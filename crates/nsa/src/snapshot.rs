//! Versioned snapshots of simulator state for checkpointing and
//! warm-start.
//!
//! A [`Snapshot`] captures everything a [`crate::sim::SimSession`] needs to
//! resume a run: the full concrete [`State`] (locations, clock valuations
//! including the frozen/running flags, variable store, model time), the
//! action-transition counter, the interpreter stats, and the trace cursor
//! (how many events preceded the snapshot). The event wheel of the
//! accelerated loop is *derived* state — `FastRun`
//! rebuilds it from the [`State`] on resume — so it is deliberately not
//! serialized; this is what makes snapshots engine-independent.
//!
//! The byte encoding ([`Snapshot::to_bytes`]) is versioned, little-endian
//! and length-prefixed, in the same style as `swa-core`'s canonical
//! configuration encoding. Identical simulator states produce identical
//! bytes under both the AST and bytecode engines.

use crate::error::SnapshotError;
use crate::ids::LocationId;
use crate::network::Network;
use crate::sim::SimStats;
use crate::state::{ClockVal, State};

/// Version tag written at the head of every serialized snapshot. Bump on
/// any change to the byte layout; old snapshots are then rejected with
/// [`SnapshotError::UnsupportedVersion`] instead of being misread.
pub const SNAPSHOT_VERSION: u8 = 1;

/// A resumable snapshot of one simulation run.
///
/// Taken with [`crate::sim::SimSession::snapshot`] and resumed with
/// [`crate::sim::Simulator::resume`] or
/// [`crate::sim::SimSession::restore`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    /// The full concrete network state at the snapshot instant.
    pub state: State,
    /// Action transitions taken up to the snapshot instant.
    pub steps: u64,
    /// Interpreter counters accumulated up to the snapshot instant.
    pub stats: SimStats,
    /// Number of trace events recorded before the snapshot (the trace
    /// cursor). The events themselves are owned by the session or the
    /// checkpoint store, not the snapshot.
    pub trace_len: u64,
}

impl Snapshot {
    /// The model time at which the snapshot was taken.
    #[must_use]
    pub fn time(&self) -> i64 {
        self.state.time
    }

    /// Serializes the snapshot to the versioned byte format.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(
            64 + self.state.locations.len() * 4
                + self.state.clocks_len() * 9
                + self.state.vars.len() * 8,
        );
        out.push(SNAPSHOT_VERSION);
        out.extend_from_slice(&self.steps.to_le_bytes());
        out.extend_from_slice(&self.stats.wheel_wakeups.to_le_bytes());
        out.extend_from_slice(&self.trace_len.to_le_bytes());
        out.extend_from_slice(&self.state.time.to_le_bytes());
        out.extend_from_slice(&(self.state.locations.len() as u64).to_le_bytes());
        for l in &self.state.locations {
            out.extend_from_slice(&l.raw().to_le_bytes());
        }
        out.extend_from_slice(&(self.state.clocks_len() as u64).to_le_bytes());
        for c in self.state.iter_clocks() {
            out.extend_from_slice(&c.value.to_le_bytes());
            out.push(u8::from(c.running));
        }
        out.extend_from_slice(&(self.state.vars.len() as u64).to_le_bytes());
        for v in &self.state.vars {
            out.extend_from_slice(&v.to_le_bytes());
        }
        out
    }

    /// Decodes a snapshot from its byte format.
    ///
    /// Decoding checks only the framing; call [`validate`](Self::validate)
    /// against the target network before resuming.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::UnsupportedVersion`], [`SnapshotError::Truncated`]
    /// or [`SnapshotError::TrailingBytes`] on malformed input.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, SnapshotError> {
        let mut r = Reader { bytes, at: 0 };
        let version = r.u8()?;
        if version != SNAPSHOT_VERSION {
            return Err(SnapshotError::UnsupportedVersion {
                found: version,
                supported: SNAPSHOT_VERSION,
            });
        }
        let steps = r.u64()?;
        let wheel_wakeups = r.u64()?;
        let trace_len = r.u64()?;
        let time = r.i64()?;
        let n_locations = r.len(4)?;
        let mut locations = Vec::with_capacity(n_locations);
        for _ in 0..n_locations {
            locations.push(LocationId::from_raw(r.u32()?));
        }
        let n_clocks = r.len(9)?;
        let mut clocks = Vec::with_capacity(n_clocks);
        for _ in 0..n_clocks {
            let value = r.i64()?;
            let running = r.u8()? != 0;
            clocks.push(ClockVal { value, running });
        }
        let n_vars = r.len(8)?;
        let mut vars = Vec::with_capacity(n_vars);
        for _ in 0..n_vars {
            vars.push(r.i64()?);
        }
        if r.at != bytes.len() {
            return Err(SnapshotError::TrailingBytes {
                extra: bytes.len() - r.at,
            });
        }
        Ok(Self {
            state: State::from_parts(locations, clocks, vars, time),
            steps,
            stats: SimStats { wheel_wakeups },
            trace_len,
        })
    }

    /// Checks that the snapshot shape matches `network`'s declarations:
    /// one location per automaton (each in range), one valuation per clock
    /// and per flattened variable cell.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::NetworkMismatch`] or
    /// [`SnapshotError::LocationOutOfRange`] when the snapshot was taken of
    /// a structurally different network.
    pub fn validate(&self, network: &Network) -> Result<(), SnapshotError> {
        let automata = network.automaton_count();
        if self.state.locations.len() != automata {
            return Err(SnapshotError::NetworkMismatch {
                field: "locations",
                expected: automata,
                found: self.state.locations.len(),
            });
        }
        for (i, location) in self.state.locations.iter().enumerate() {
            let automaton = crate::ids::AutomatonId::from_raw(
                u32::try_from(i).expect("automaton count fits u32"),
            );
            if location.index() >= network.location_count(automaton) {
                return Err(SnapshotError::LocationOutOfRange {
                    automaton,
                    location: *location,
                });
            }
        }
        if self.state.clocks_len() != network.clocks().len() {
            return Err(SnapshotError::NetworkMismatch {
                field: "clocks",
                expected: network.clocks().len(),
                found: self.state.clocks_len(),
            });
        }
        let cells =
            network.vars().len() + network.arrays().iter().map(|a| a.init.len()).sum::<usize>();
        if self.state.vars.len() != cells {
            return Err(SnapshotError::NetworkMismatch {
                field: "variables",
                expected: cells,
                found: self.state.vars.len(),
            });
        }
        Ok(())
    }

    /// Approximate heap footprint of the snapshot, for byte-budgeted
    /// stores.
    #[must_use]
    pub fn approx_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.state.locations.len() * std::mem::size_of::<LocationId>()
            + self.state.clocks_len() * std::mem::size_of::<ClockVal>()
            + self.state.vars.len() * 8
    }
}

/// Little-endian cursor over a snapshot byte stream.
struct Reader<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl Reader<'_> {
    fn take(&mut self, n: usize) -> Result<&[u8], SnapshotError> {
        let end = self.at.checked_add(n).ok_or(SnapshotError::Truncated)?;
        if end > self.bytes.len() {
            return Err(SnapshotError::Truncated);
        }
        let slice = &self.bytes[self.at..end];
        self.at = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    fn u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    fn i64(&mut self) -> Result<i64, SnapshotError> {
        Ok(i64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// A count of `record`-byte records. A count the remaining input cannot
    /// hold is truncation, rejected before anything is allocated for it.
    fn len(&mut self, record: usize) -> Result<usize, SnapshotError> {
        let n = usize::try_from(self.u64()?).map_err(|_| SnapshotError::Truncated)?;
        if n > (self.bytes.len() - self.at) / record {
            return Err(SnapshotError::Truncated);
        }
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::automaton::{AutomatonBuilder, Edge};
    use crate::expr::CmpOp;
    use crate::guard::{ClockAtom, Guard, Invariant};
    use crate::network::NetworkBuilder;
    use crate::sim::Simulator;
    use crate::update::Update;

    fn ticker_network() -> Network {
        let mut nb = NetworkBuilder::new();
        let c = nb.clock("c");
        nb.stopped_clock("frozen");
        nb.var("x", 3, 0, 100);
        nb.array("arr", vec![7, 8], 0, 100);
        let mut a = AutomatonBuilder::new("ticker");
        let l0 = a.location_with_invariant("wait", Invariant::upper_bound(c, 10));
        a.edge(
            Edge::new(l0, l0)
                .with_guard(Guard::always().and_clock(ClockAtom::new(c, CmpOp::Ge, 10)))
                .with_update(Update::ResetClock(c))
                .with_label("tick"),
        );
        nb.automaton(a.finish(l0));
        nb.build().unwrap()
    }

    fn sample_snapshot(network: &Network) -> Snapshot {
        let mut session = Simulator::new(network).horizon(100).session();
        session.run_until(35).unwrap();
        session.snapshot()
    }

    #[test]
    fn bytes_round_trip_exactly() {
        let n = ticker_network();
        let snap = sample_snapshot(&n);
        let bytes = snap.to_bytes();
        let back = Snapshot::from_bytes(&bytes).unwrap();
        assert_eq!(back, snap);
        assert_eq!(back.to_bytes(), bytes);
        back.validate(&n).unwrap();
    }

    #[test]
    fn serialization_is_deterministic_and_engine_independent() {
        use crate::bytecode::EvalEngine;
        let n = ticker_network();
        let mut bytes = Vec::new();
        for engine in [EvalEngine::Ast, EvalEngine::Bytecode] {
            let mut session = Simulator::new(&n).horizon(100).engine(engine).session();
            session.run_until(35).unwrap();
            bytes.push(session.snapshot().to_bytes());
        }
        assert_eq!(bytes[0], bytes[1]);
    }

    #[test]
    fn version_mismatch_is_rejected() {
        let n = ticker_network();
        let mut bytes = sample_snapshot(&n).to_bytes();
        bytes[0] = SNAPSHOT_VERSION + 1;
        assert!(matches!(
            Snapshot::from_bytes(&bytes),
            Err(SnapshotError::UnsupportedVersion { .. })
        ));
    }

    #[test]
    fn truncation_and_trailing_bytes_are_rejected() {
        let n = ticker_network();
        let bytes = sample_snapshot(&n).to_bytes();
        for cut in 0..bytes.len() {
            assert!(
                matches!(
                    Snapshot::from_bytes(&bytes[..cut]),
                    Err(SnapshotError::Truncated | SnapshotError::UnsupportedVersion { .. })
                ),
                "prefix of {cut} bytes must not decode"
            );
        }
        let mut long = bytes;
        long.push(0);
        assert_eq!(
            Snapshot::from_bytes(&long),
            Err(SnapshotError::TrailingBytes { extra: 1 })
        );
    }

    #[test]
    fn a_corrupted_length_is_truncation_not_an_allocation() {
        let n = ticker_network();
        let bytes = sample_snapshot(&n).to_bytes();
        // The locations count follows the version byte and four 8-byte
        // header fields.
        let at = 1 + 4 * 8;
        let mut bad = bytes;
        bad[at..at + 8].copy_from_slice(&(1u64 << 53).to_le_bytes());
        assert_eq!(Snapshot::from_bytes(&bad), Err(SnapshotError::Truncated));
    }

    #[test]
    fn validate_rejects_other_networks() {
        let n = ticker_network();
        let snap = sample_snapshot(&n);

        let mut nb = NetworkBuilder::new();
        let mut a = AutomatonBuilder::new("other");
        let l0 = a.location("l0");
        a.edge(Edge::new(l0, l0));
        nb.automaton(a.finish(l0));
        let other = nb.build().unwrap();
        assert!(matches!(
            snap.validate(&other),
            Err(SnapshotError::NetworkMismatch { .. })
        ));

        let mut bad = snap;
        bad.state.locations[0] = LocationId::from_raw(99);
        assert!(matches!(
            bad.validate(&n),
            Err(SnapshotError::LocationOutOfRange { .. })
        ));
    }
}
