//! # swa-nsa — networks of stopwatch automata
//!
//! This crate implements the formal substrate of the `swa` project: the
//! *Network of Stopwatch Automata* (NSA) formalism of Cassez & Larsen, in
//! the discrete-time fragment used by the paper *“Stopwatch Automata-Based
//! Model for Efficient Schedulability Analysis of Modular Computer
//! Systems”*, together with a deterministic event-driven simulator.
//!
//! ## Formalism
//!
//! An automaton (tuple `⟨L, l₀, U, C, V, v̄₀, AU, AS, E, I, P⟩` in the
//! paper) is built from:
//!
//! * **locations** ([`automaton::Location`]) with invariants and an optional
//!   *committed* flag (time cannot pass while any automaton is committed);
//! * **edges** ([`automaton::Edge`]) carrying a guard, a synchronization
//!   action (internal, send `ch!`, receive `ch?`) and updates;
//! * **clocks** that can be stopped and resumed — stopwatches — plus bounded
//!   integer **variables** and **arrays** shared across the network;
//! * **channels**, binary (one sender, one receiver) or broadcast (one
//!   sender, all ready receivers).
//!
//! Guards and invariants use the restricted normal form of
//! [`guard`]: clock-free predicates (with bounded `forall`/`exists`,
//! module [`expr`]) plus clock atoms `clock ⋈ expr`. This is what makes the
//! simulator's next-event computation exact.
//!
//! ## Simulation
//!
//! [`sim::Simulator`] interprets a network under maximal-progress semantics
//! and produces an [`trace::NsaTrace`] of synchronization events. For the
//! models constructed by `swa-core` every run yields the same observable
//! trace (the paper's determinism theorem); [`sim::TieBreak`] exists to
//! *test* that claim rather than to influence results.
//!
//! ## Example
//!
//! ```
//! use swa_nsa::automaton::{AutomatonBuilder, Edge};
//! use swa_nsa::expr::CmpOp;
//! use swa_nsa::guard::{ClockAtom, Guard, Invariant};
//! use swa_nsa::network::NetworkBuilder;
//! use swa_nsa::sim::Simulator;
//! use swa_nsa::update::Update;
//!
//! let mut nb = NetworkBuilder::new();
//! let c = nb.clock("c");
//! let mut a = AutomatonBuilder::new("periodic");
//! let wait = a.location_with_invariant("wait", Invariant::upper_bound(c, 25));
//! a.edge(
//!     Edge::new(wait, wait)
//!         .with_guard(Guard::always().and_clock(ClockAtom::new(c, CmpOp::Ge, 25)))
//!         .with_update(Update::ResetClock(c)),
//! );
//! nb.automaton(a.finish(wait));
//! let network = nb.build()?;
//!
//! let outcome = Simulator::new(&network).horizon(100).run()?;
//! assert_eq!(outcome.trace.len(), 3); // at t = 25, 50, 75 (horizon exclusive)
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![allow(clippy::module_name_repetitions)]

pub mod automaton;
pub mod bytecode;
pub mod diagnose;
pub mod dot;
mod dominance;
pub mod error;
pub mod expr;
pub mod fastsim;
pub mod guard;
pub mod ids;
pub mod network;
pub mod semantics;
pub mod sim;
pub mod snapshot;
pub mod state;
pub mod trace;
pub mod update;
pub mod uppaal;

pub use automaton::{Automaton, AutomatonBuilder, Edge, Frame, Location, Sync};
pub use bytecode::{CompileStats, CompiledNetwork, EvalEngine};
pub use diagnose::{BlockReason, Diagnosis, DiagnosisKind, ExplainedError};
pub use error::{BuildError, EvalError, SimError, SnapshotError};
pub use expr::{CmpOp, IntExpr, Pred};
pub use guard::{ClockAtom, Guard, Invariant};
pub use ids::{
    ArrayId, AutomatonId, ChannelId, ClockId, EdgeId, LocationId, ParamId, TemplateId, VarId,
};
pub use network::{ChannelKind, Network, NetworkBuilder};
pub use sim::{SimOutcome, SimSession, SimStats, Simulator, StopReason, TieBreak};
pub use snapshot::{Snapshot, SNAPSHOT_VERSION};
pub use state::State;
pub use trace::{NsaTrace, SyncEvent};
pub use update::{LValue, Update};
