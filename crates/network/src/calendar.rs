//! The delivery calendar: every flit and credit on a wire, filed under the
//! cycle it arrives and addressed to the router (or source) that consumes
//! it.
//!
//! A flit switched onto a link during cycle `t` arrives at the downstream
//! input port at `t + 1 + link_delay`; a credit freed during `t` reaches
//! the upstream output port at `t + 1 + credit_latency`. The consumer of
//! each message is resolved once, when it is emitted, through the
//! [`LinkTable`] built at network construction — so delivery is a plain
//! walk over the messages due this cycle, with no per-link queues to poll
//! and no topology arithmetic on the per-cycle path.
//!
//! Per-link FIFO order is kept by construction: a link carries at most
//! one flit per cycle, and messages due in the same cycle come out of the
//! wheel in emission order (see [`EventWheel`]).

use crate::topology::Mesh;
use router_core::{EventWheel, Flit};

/// A flit on a link: deliver `flit` into input `port` of router `node`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FlitArrival {
    pub node: u32,
    pub port: u8,
    pub flit: Flit,
}

/// A credit on its way upstream: return one credit for VC `vc` of output
/// `port` of router `node` — or, when `port` is the local port, to
/// `node`'s own source, whose injection channel feeds that input.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CreditArrival {
    pub node: u32,
    pub port: u8,
    pub vc: u8,
}

/// The far end of every port of the mesh, resolved once at construction:
/// `far[node * ports + port]` is the `(node, port)` on the other side of
/// that link. Links are symmetric, so one entry serves both directions —
/// a flit leaving output `port` of `node` enters the far end's input, and
/// a credit for input `port` of `node` returns to the far end's output.
/// The local port's far end is the node itself (its source and sink);
/// unwired mesh-edge ports have none.
#[derive(Debug)]
pub(crate) struct LinkTable {
    ports: usize,
    far: Vec<Option<(u32, u8)>>,
}

impl LinkTable {
    pub(crate) fn new(mesh: &Mesh) -> Self {
        let ports = mesh.ports();
        let local = mesh.local_port();
        let mut far = Vec::with_capacity(mesh.nodes() * ports);
        // Port order per node: the 2n mesh ports, then the local port.
        for node in 0..mesh.nodes() {
            far.extend((0..local).map(|port| {
                mesh.neighbor(node, port)
                    .map(|next| (next as u32, mesh.opposite(port) as u8))
            }));
            far.push(Some((node as u32, local as u8)));
        }
        LinkTable { ports, far }
    }

    /// Whether port `port` of `node` leads anywhere (false only at a
    /// mesh edge).
    pub(crate) fn is_wired(&self, node: usize, port: usize) -> bool {
        self.far[node * self.ports + port].is_some()
    }

    /// The `(node, port)` across port `port` of `node`.
    ///
    /// # Panics
    ///
    /// Panics on an unwired mesh-edge port: no flit is routed and no
    /// credit is returned there.
    #[inline]
    pub(crate) fn far_end(&self, node: usize, port: usize) -> (u32, u8) {
        self.far[node * self.ports + port].expect("message on an unwired port")
    }
}

/// Every flit and credit in flight towards one set of consumers: the
/// whole network under the serial engines, one shard's nodes under the
/// sharded engine.
#[derive(Debug)]
pub(crate) struct Calendar {
    pub flits: EventWheel<FlitArrival>,
    pub credits: EventWheel<CreditArrival>,
}

impl Calendar {
    /// A calendar accepting messages up to `horizon` cycles ahead of the
    /// last drained cycle.
    pub(crate) fn new(horizon: u64) -> Self {
        Calendar {
            flits: EventWheel::new(horizon),
            credits: EventWheel::new(horizon),
        }
    }

    /// The earliest cycle with a message due, or `None` when nothing is
    /// in flight.
    pub(crate) fn next_due(&self) -> Option<u64> {
        [self.flits.next_due(), self.credits.next_due()]
            .into_iter()
            .flatten()
            .min()
    }

    /// Moves both drain cursors to `now` over cycles with nothing due
    /// (see [`EventWheel::advance_to`]).
    pub(crate) fn advance_to(&mut self, now: u64) {
        self.flits.advance_to(now);
        self.credits.advance_to(now);
    }

    /// Messages in flight, flits and credits.
    pub(crate) fn pending(&self) -> usize {
        self.flits.pending() + self.credits.pending()
    }

    /// Flits in flight.
    pub(crate) fn flits_in_flight(&self) -> u64 {
        self.flits.pending() as u64
    }

    /// Drains every message with its due cycle, leaving the calendar
    /// empty (the migration primitive: the entries are re-scheduled on
    /// their consumers' new owners).
    pub(crate) fn drain_pending_into(
        &mut self,
        flits: &mut Vec<(u64, FlitArrival)>,
        credits: &mut Vec<(u64, CreditArrival)>,
    ) {
        self.flits.drain_pending_into(flits);
        self.credits.drain_pending_into(credits);
    }
}
