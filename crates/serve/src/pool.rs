//! A bounded worker pool with backpressure and drain-on-cancel.
//!
//! The server dispatches every cache miss onto this pool. Three properties
//! matter for a long-running service and are guaranteed here:
//!
//! * **backpressure**: the queue is a bounded [`mpsc::sync_channel`];
//!   [`WorkerPool::try_submit`] never blocks — a full queue hands the job
//!   back so the caller can reject with 429 instead of letting latency
//!   grow without bound;
//! * **no orphaned jobs**: cancellation does not empty the queue by
//!   discarding — every job already accepted is still *invoked*, with
//!   [`JobContext::is_cancelled`] set, so whoever is waiting on its reply
//!   channel always hears back (this is the drain-on-cancel fix: a job
//!   enqueued concurrently with cancellation can never be silently
//!   dropped);
//! * **quiescence**: [`WorkerPool::shutdown`] closes the queue, runs every
//!   remaining job, and joins every worker thread — afterwards the queue
//!   is empty and no pool thread is left running.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

/// What a job sees while running.
#[derive(Debug, Clone)]
pub struct JobContext {
    cancelled: Arc<AtomicBool>,
}

impl JobContext {
    /// True once the pool has been cancelled; a job observing this should
    /// reply "cancelled" to its requester instead of doing real work.
    #[must_use]
    pub fn is_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::Acquire)
    }
}

/// A unit of work. Always invoked exactly once — possibly with the
/// context reporting cancellation.
pub type Job = Box<dyn FnOnce(&JobContext) + Send>;

/// The bounded worker pool.
pub struct WorkerPool {
    tx: Mutex<Option<SyncSender<Job>>>,
    handles: Mutex<Vec<JoinHandle<()>>>,
    cancelled: Arc<AtomicBool>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.handles.lock().expect("unpoisoned").len())
            .field("cancelled", &self.cancelled.load(Ordering::Relaxed))
            .finish()
    }
}

impl WorkerPool {
    /// Spawns `workers` threads (≥ 1; 0 is clamped) sharing a queue that
    /// holds at most `queue_depth` waiting jobs (≥ 1; 0 is clamped — a
    /// rendezvous queue would reject whenever no worker is parked, which
    /// is needlessly racy for callers).
    #[must_use]
    pub fn new(workers: usize, queue_depth: usize) -> Self {
        let workers = workers.max(1);
        let (tx, rx) = mpsc::sync_channel::<Job>(queue_depth.max(1));
        let rx = Arc::new(Mutex::new(rx));
        let cancelled = Arc::new(AtomicBool::new(false));
        let handles = (0..workers)
            .map(|i| {
                let rx = Arc::clone(&rx);
                let ctx = JobContext {
                    cancelled: Arc::clone(&cancelled),
                };
                std::thread::Builder::new()
                    .name(format!("swa-serve-worker-{i}"))
                    .spawn(move || worker_loop(&rx, &ctx))
                    .expect("spawn worker thread")
            })
            .collect();
        Self {
            tx: Mutex::new(Some(tx)),
            handles: Mutex::new(handles),
            cancelled,
        }
    }

    /// Enqueues a job without blocking.
    ///
    /// # Errors
    ///
    /// Hands the job back when the queue is full (backpressure: the caller
    /// rejects the request) or the pool is already shut down.
    pub fn try_submit(&self, job: Job) -> Result<(), Job> {
        let guard = self.tx.lock().expect("unpoisoned");
        match guard.as_ref() {
            None => {
                drop(guard);
                Err(job)
            }
            Some(tx) => match tx.try_send(job) {
                Ok(()) => Ok(()),
                Err(TrySendError::Full(job) | TrySendError::Disconnected(job)) => {
                    drop(guard);
                    Err(job)
                }
            },
        }
    }

    /// Flags cancellation. Queued and running jobs observe it through
    /// [`JobContext::is_cancelled`]; none are discarded.
    pub fn cancel(&self) {
        self.cancelled.store(true, Ordering::Release);
    }

    /// True once [`cancel`](Self::cancel) has been called.
    #[must_use]
    pub fn is_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::Acquire)
    }

    /// Closes the queue, drains every remaining job (each is invoked, so
    /// cancellation never orphans an accepted job), and joins all worker
    /// threads. Idempotent; afterwards the pool is quiescent.
    pub fn shutdown(&self) {
        // Dropping the sender closes the channel; workers exit once the
        // queue runs dry.
        *self.tx.lock().expect("unpoisoned") = None;
        let handles = std::mem::take(&mut *self.handles.lock().expect("unpoisoned"));
        for handle in handles {
            let _ = handle.join();
        }
    }

    /// Number of worker threads not yet joined (0 after shutdown).
    #[must_use]
    pub fn live_workers(&self) -> usize {
        self.handles.lock().expect("unpoisoned").len()
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn worker_loop(rx: &Mutex<Receiver<Job>>, ctx: &JobContext) {
    loop {
        // Hold the lock only for the dequeue, not while running the job.
        let job = match rx.lock().expect("unpoisoned").recv() {
            Ok(job) => job,
            Err(_) => return,
        };
        // A panicking job must not take the worker thread with it — the
        // pool would silently shrink until no worker is left. Containing
        // the panic drops the job's reply channel, which the waiting
        // handler observes as a disconnect and maps to 500.
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| job(ctx)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::mpsc::channel;

    /// A job that parks until released, so tests can fill the queue
    /// deterministically.
    fn blocking_job(release: Receiver<()>, ran: Arc<AtomicUsize>) -> Job {
        Box::new(move |_ctx| {
            release.recv().ok();
            ran.fetch_add(1, Ordering::SeqCst);
        })
    }

    #[test]
    fn full_queue_hands_the_job_back() {
        let pool = WorkerPool::new(1, 1);
        let ran = Arc::new(AtomicUsize::new(0));
        let (unblock, wait) = channel();
        // Occupy the single worker…
        pool.try_submit(blocking_job(wait, ran.clone()))
            .map_err(|_| ())
            .unwrap();
        // …then fill the depth-1 queue. The worker may not have dequeued
        // the first job yet, so allow one slot to be taken either way.
        let mut accepted = 0;
        let mut rejected = 0;
        for _ in 0..3 {
            let r = ran.clone();
            let job: Job = Box::new(move |_| {
                r.fetch_add(1, Ordering::SeqCst);
            });
            match pool.try_submit(job) {
                Ok(()) => accepted += 1,
                Err(_returned) => rejected += 1,
            }
        }
        assert!(rejected >= 1, "a full queue must reject");
        unblock.send(()).unwrap();
        pool.shutdown();
        assert_eq!(ran.load(Ordering::SeqCst), 1 + accepted);
    }

    #[test]
    fn cancel_drains_without_orphaning_queued_jobs() {
        let pool = WorkerPool::new(1, 4);
        let invoked = Arc::new(AtomicUsize::new(0));
        let saw_cancel = Arc::new(AtomicUsize::new(0));
        let (unblock, wait) = channel();
        pool.try_submit(blocking_job(wait, invoked.clone()))
            .map_err(|_| ())
            .unwrap();
        // Enqueue jobs that will still be queued when cancellation lands.
        let mut queued = 0;
        loop {
            let invoked = invoked.clone();
            let saw_cancel = saw_cancel.clone();
            let job: Job = Box::new(move |ctx| {
                invoked.fetch_add(1, Ordering::SeqCst);
                if ctx.is_cancelled() {
                    saw_cancel.fetch_add(1, Ordering::SeqCst);
                }
            });
            match pool.try_submit(job) {
                Ok(()) => queued += 1,
                Err(_) => break,
            }
        }
        assert!(queued >= 3, "queue should hold several jobs (got {queued})");

        pool.cancel();
        unblock.send(()).unwrap();
        pool.shutdown();

        // Quiescence: every accepted job was invoked (none orphaned in the
        // queue), the queued ones observed cancellation, and no worker
        // thread is left.
        assert_eq!(invoked.load(Ordering::SeqCst), 1 + queued);
        assert_eq!(saw_cancel.load(Ordering::SeqCst), queued);
        assert_eq!(pool.live_workers(), 0);
    }

    #[test]
    fn submit_after_shutdown_is_rejected() {
        let pool = WorkerPool::new(2, 2);
        pool.shutdown();
        let job: Job = Box::new(|_| {});
        assert!(pool.try_submit(job).is_err());
        assert_eq!(pool.live_workers(), 0);
        // Idempotent.
        pool.shutdown();
    }

    #[test]
    fn jobs_run_concurrently_across_workers() {
        let pool = WorkerPool::new(4, 8);
        let done = Arc::new(AtomicUsize::new(0));
        for _ in 0..8 {
            let done = done.clone();
            let job: Job = Box::new(move |_| {
                done.fetch_add(1, Ordering::SeqCst);
            });
            assert!(
                pool.try_submit(job).is_ok(),
                "a depth-8 queue cannot overflow on 8 submissions"
            );
        }
        pool.shutdown();
        assert_eq!(done.load(Ordering::SeqCst), 8);
    }

    #[test]
    fn panicking_job_does_not_kill_the_worker() {
        let pool = WorkerPool::new(1, 4);
        let job: Job = Box::new(|_| panic!("job blew up"));
        pool.try_submit(job).map_err(|_| ()).unwrap();
        // The single worker must survive the panic and run the next job.
        let (done_tx, done_rx) = channel();
        let follow_up: Job = Box::new(move |_| {
            done_tx.send(()).unwrap();
        });
        pool.try_submit(follow_up).map_err(|_| ()).unwrap();
        done_rx
            .recv_timeout(std::time::Duration::from_secs(5))
            .expect("worker died with the panicking job");
        assert_eq!(pool.live_workers(), 1);
        pool.shutdown();
    }
}
