//! The virtual-link automaton (base type **L** of the paper).
//!
//! A link ferries one message from its sender task to its receiver task
//! with a transfer delay exactly equal to its pessimistic upper bound (the
//! paper's worst-case assumption). On delivery it sets `is_data_ready[h]`
//! and broadcasts on the receiver's `receive` channel to wake a waiting
//! receiver job.

use swa_nsa::{
    Automaton, AutomatonBuilder, ChannelId, ClockAtom, ClockId, CmpOp, Edge, Frame, Guard,
    Invariant, Sync, Update, VarId,
};

use super::{param, Ctx};

/// Template parameters, by [`swa_nsa::ParamId`] index.
const MESSAGE: u32 = 0;
const DELAY: u32 = 1;

/// Template-local clock, variable and channels, in [`HopParams::frame`]
/// order.
const CLOCK: ClockId = ClockId::from_raw(0);
const OVERRUN: VarId = VarId::from_raw(0);
const IN: ChannelId = ChannelId::from_raw(0);
const OUT: ChannelId = ChannelId::from_raw(1);

/// The structural role of a link automaton: a whole direct link, or one
/// hop of a routed chain (the last hop delivers, the others relay).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LinkShape {
    /// A single-jump virtual link.
    Direct,
    /// A hop of a multi-hop chain; `last` delivers.
    Hop {
        /// Whether this is the delivering (wire) hop.
        last: bool,
    },
}

/// Per-instance parameters of one link or hop automaton.
#[derive(Debug, Clone)]
pub struct HopParams {
    /// Message index `h`.
    pub h: usize,
    /// Worst-case delay of this hop (the whole link's for a direct link).
    pub delay: i64,
    /// The transfer clock.
    pub clock: ClockId,
    /// The channel a frame arrives on (the sender's `send`, or the
    /// previous hop's relay).
    pub input: ChannelId,
    /// The channel a frame leaves on (the receiver's `receive`, or the
    /// next hop's relay).
    pub output: ChannelId,
}

impl HopParams {
    /// The frame binding [`link_template`] to this automaton.
    #[must_use]
    pub fn frame(&self, name: String, ctx: &Ctx) -> Frame {
        Frame {
            name,
            params: vec![
                i64::try_from(self.h).expect("message index fits i64"),
                self.delay,
            ],
            clocks: vec![self.clock],
            vars: vec![ctx.vl_overrun],
            channels: vec![self.input, self.output],
        }
    }
}

/// Builds the link template of one shape.
///
/// A link holds each frame for exactly its worst-case delay (the paper's
/// worst-case assumption). The delivering automaton sets
/// `is_data_ready[h]` and broadcasts on the receiver's `receive` channel
/// to wake a waiting receiver job; a relaying hop broadcasts to the next
/// hop instead, so a chain delivers at the sum of its hop delays — the
/// equivalence the `link_chain` tests assert.
///
/// If a frame arrives while a transfer is still in progress (which a
/// valid configuration rules out — the model builder rejects delays that
/// are not smaller than the endpoint period), the link raises the global
/// `vl_overrun` flag instead of silently dropping the instance.
#[must_use]
pub fn link_template(ctx: &Ctx, shape: LinkShape) -> Automaton {
    let delivers = matches!(shape, LinkShape::Direct | LinkShape::Hop { last: true });
    let mut b = AutomatonBuilder::new("link");
    let idle = b.location("idle");
    let transfer =
        b.location_with_invariant("transfer", Invariant::upper_bound(CLOCK, param(DELAY)));
    let out = b.committed_location(if shape == LinkShape::Direct {
        "deliver"
    } else {
        "forward"
    });
    b.edge(
        Edge::new(idle, transfer)
            .with_sync(Sync::Recv(IN))
            .with_update(Update::ResetClock(CLOCK))
            .with_label("accept"),
    );
    let elapsed = Edge::new(transfer, out).with_guard(Guard::always().and_clock(ClockAtom::new(
        CLOCK,
        CmpOp::Ge,
        param(DELAY),
    )));
    b.edge(if delivers {
        elapsed
            .with_update(Update::set_elem(ctx.is_data_ready, param(MESSAGE), 1))
            .with_label("delay_elapsed")
    } else {
        elapsed.with_label("latency_elapsed")
    });
    b.edge(
        Edge::new(out, idle)
            .with_sync(Sync::Send(OUT))
            .with_label(if delivers { "deliver" } else { "relay" }),
    );
    // Overrun detection: a frame arriving while busy is a modeling error
    // surfaced via the shared flag rather than a silent drop.
    for loc in [transfer, out] {
        b.edge(
            Edge::new(loc, loc)
                .with_sync(Sync::Recv(IN))
                .with_update(Update::set(OVERRUN, 1))
                .with_label("overrun"),
        );
    }
    b.finish(idle)
}
