//! The HTTP front end shared by [`Server`](crate::Server) and
//! [`Router`](crate::Router).
//!
//! Both processes are a [`Service`] behind one [`Front`]: it runs the
//! named accept thread on the bound listener, arms the socket timeouts on every connection before
//! its first byte is read (a stalled client gets 408 and costs at most
//! the timeout, not a pinned thread), runs one thread per connection,
//! reads the request (400/408/413 on failure), answers the routes every
//! process shares — `POST /shutdown`, 405 for a known path with the wrong
//! method, 404 for the rest — and hands the service's own routes to it.
//!
//! Shutdown flips a flag, calls the service's
//! [`shutdown_begun`](Service::shutdown_begun) hook, and wakes the
//! accept loop with a self-connection; the loop answers that (and any
//! late client) 503, waits for every connection to finish, then calls
//! [`drained`](Service::drained).

use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use swa_core::{MetricsRecorder, Recorder};

use crate::http::{
    apply_io_timeouts, is_timeout, read_request, write_response, HttpError, Request,
};
use crate::request::render_error;

/// Socket read/write timeout armed on every accepted connection unless a
/// process configures its own (`ServeOptions::io_timeout`).
pub(crate) const IO_TIMEOUT: Duration = Duration::from_secs(5);

/// A process behind the front end: its own routes and shutdown hooks.
pub(crate) trait Service: Send + Sync + Sized + 'static {
    /// Names the threads (`swa-<PREFIX>-accept`, `swa-<PREFIX>-conn`) and
    /// the stall counter (`<PREFIX>.timeouts`).
    const PREFIX: &'static str;
    /// Names the process in the 503 a client hears during shutdown.
    const NAME: &'static str;
    /// The `(method, path)` pairs [`handle`](Self::handle) answers. Any
    /// other method on one of these paths is 405.
    const ROUTES: &'static [(&'static str, &'static str)];

    /// The sink for the stall counter.
    fn recorder(&self) -> &MetricsRecorder;

    /// Answers a request matching one of [`ROUTES`](Self::ROUTES) with a
    /// buffered `(status, body)`, or writes the response to `stream`
    /// itself (a streamed endpoint) and returns `None`.
    fn handle(
        this: &Arc<Self>,
        front: &Shared<Self>,
        request: &Request,
        stream: &mut TcpStream,
    ) -> Option<(u16, String)>;

    /// Runs once when shutdown begins, before the accept loop wakes.
    fn shutdown_begun(&self) {}

    /// Runs once in the accept thread after every connection finished.
    fn drained(&self) {}
}

/// State shared by the accept loop and every connection thread. A
/// service reads the shutdown flag and the live connection count here.
pub(crate) struct Shared<S> {
    local_addr: SocketAddr,
    shutting_down: AtomicBool,
    /// Live connection threads; the accept loop waits for 0 on exit.
    active: Mutex<usize>,
    idle: Condvar,
    service: Arc<S>,
}

impl<S: Service> Shared<S> {
    pub(crate) fn is_shutting_down(&self) -> bool {
        self.shutting_down.load(Ordering::SeqCst)
    }

    pub(crate) fn active_connections(&self) -> usize {
        *self.active.lock().expect("unpoisoned")
    }

    fn begin_shutdown(&self) {
        if self.shutting_down.swap(true, Ordering::SeqCst) {
            return;
        }
        self.service.shutdown_begun();
        // The accept loop is parked in accept(); a self-connection wakes
        // it so it can observe the flag. Failure is fine — the listener
        // may already be gone.
        let _ = TcpStream::connect(self.local_addr);
    }
}

/// A running front end: the accept thread and the service behind it.
/// Dropping the handle shuts it down gracefully.
pub(crate) struct Front<S: Service> {
    shared: Arc<Shared<S>>,
    accept: Option<JoinHandle<()>>,
}

impl<S: Service> Front<S> {
    /// Spawns the accept loop on `listener` and returns immediately.
    /// `Duration::ZERO` leaves the socket timeouts off.
    pub(crate) fn start(
        listener: TcpListener,
        io_timeout: Duration,
        service: S,
    ) -> io::Result<Self> {
        let shared = Arc::new(Shared {
            local_addr: listener.local_addr()?,
            shutting_down: AtomicBool::new(false),
            active: Mutex::new(0),
            idle: Condvar::new(),
            service: Arc::new(service),
        });
        let accept_shared = Arc::clone(&shared);
        let accept = std::thread::Builder::new()
            .name(format!("swa-{}-accept", S::PREFIX))
            .spawn(move || accept_loop(&listener, io_timeout, &accept_shared))?;
        Ok(Front {
            shared,
            accept: Some(accept),
        })
    }

    pub(crate) fn local_addr(&self) -> SocketAddr {
        self.shared.local_addr
    }

    pub(crate) fn service(&self) -> &S {
        &self.shared.service
    }

    pub(crate) fn begin_shutdown(&self) {
        self.shared.begin_shutdown();
    }

    pub(crate) fn join(mut self) {
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
    }
}

impl<S: Service> Drop for Front<S> {
    fn drop(&mut self) {
        if let Some(handle) = self.accept.take() {
            self.shared.begin_shutdown();
            let _ = handle.join();
        }
    }
}

impl<S: Service> std::fmt::Debug for Front<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Front")
            .field("local_addr", &self.shared.local_addr)
            .field("shutting_down", &self.shared.is_shutting_down())
            .finish_non_exhaustive()
    }
}

/// RAII active-connection accounting: counted before the connection
/// thread is spawned and dropped with it — also when the spawn fails or
/// the handler panics — so the shutdown drain never waits on a count
/// that cannot reach zero.
struct Conn<S>(Arc<Shared<S>>);

impl<S> Drop for Conn<S> {
    fn drop(&mut self) {
        let mut active = self.0.active.lock().expect("unpoisoned");
        *active -= 1;
        if *active == 0 {
            self.0.idle.notify_all();
        }
    }
}

fn accept_loop<S: Service>(listener: &TcpListener, io_timeout: Duration, shared: &Arc<Shared<S>>) {
    for stream in listener.incoming() {
        let Ok(mut stream) = stream else { break };
        // Arm socket timeouts before any byte is read — a stalling
        // client costs at most `io_timeout`, not a thread forever.
        let _ = apply_io_timeouts(&stream, io_timeout);
        let _ = stream.set_nodelay(true);
        if shared.is_shutting_down() {
            // The wake-up connection (or a late client); refuse politely.
            let message = format!("{} is shutting down", S::NAME);
            let _ = write_response(&mut stream, 503, &render_error("shutting-down", &message));
            break;
        }
        *shared.active.lock().expect("unpoisoned") += 1;
        let conn = Conn(Arc::clone(shared));
        let _ = std::thread::Builder::new()
            .name(format!("swa-{}-conn", S::PREFIX))
            .spawn(move || handle_connection(&conn.0, stream));
    }
    // Connections first (they may still hand work to the service), then
    // the service's own teardown.
    let mut active = shared.active.lock().expect("unpoisoned");
    while *active != 0 {
        active = shared.idle.wait(active).expect("unpoisoned");
    }
    drop(active);
    shared.service.drained();
}

fn handle_connection<S: Service>(shared: &Shared<S>, mut stream: TcpStream) {
    let reply = match read_request(&mut stream) {
        Ok(request) => route(shared, &request, &mut stream),
        Err(HttpError::Io(e)) if is_timeout(&e) => {
            let counter = format!("{}.timeouts", S::PREFIX);
            shared.service.recorder().counter(&counter, 1);
            Some((408, render_error("timeout", "client stalled mid-request")))
        }
        // The socket failed; no response is possible.
        Err(HttpError::Io(_)) => None,
        Err(HttpError::Malformed(message)) => Some((400, render_error("bad-request", &message))),
        Err(HttpError::TooLarge) => Some((
            413,
            render_error("too-large", "request body exceeds the size limit"),
        )),
    };
    if let Some((status, body)) = reply {
        let _ = write_response(&mut stream, status, &body);
    }
}

/// The routes every process shares, then the service's own.
fn route<S: Service>(
    shared: &Shared<S>,
    request: &Request,
    stream: &mut TcpStream,
) -> Option<(u16, String)> {
    let (method, path) = (request.method.as_str(), request.path.as_str());
    if (method, path) == ("POST", "/shutdown") {
        shared.begin_shutdown();
        Some((200, "{\"status\":\"shutting-down\"}".to_string()))
    } else if S::ROUTES.contains(&(method, path)) {
        S::handle(&shared.service, shared, request, stream)
    } else if path == "/shutdown" || S::ROUTES.iter().any(|&(_, known)| known == path) {
        Some((
            405,
            render_error("method-not-allowed", "unsupported method for this endpoint"),
        ))
    } else {
        Some((404, render_error("not-found", "unknown endpoint")))
    }
}
