//! Forwarding wrappers that put a span around every call into a layer's
//! public trait, without changing what the call does.
//!
//! - [`TracedEndpoint`] wraps any [`Endpoint`] (a transport sender, a
//!   video client) and is installed with `take_endpoint`/`set_endpoint`.
//!   Its `as_any` forwards to the inner endpoint, so
//!   `Simulator::endpoint_mut::<Concrete>` still finds the wrapped one.
//! - [`TracedQueue`] wraps a link's [`Queue`], including
//!   `dequeue_train`, so the engine's packet-train fusion sees the same
//!   answers.
//! - [`TracedAbr`] wraps a boxed [`Abr`].
//!
//! The transparency tests check that a wrapped run and a bare run give
//! the same outputs and the same event counts.

use crate::trace::{self, site};
use netsim::{
    Dequeue, Discipline, Endpoint, EnqueueResult, LinkId, NodeCtx, NodeId, Packet, PacketRef,
    Queue, QueueStats, SimTime, Simulator, TrainStop,
};
use video::{Abr, AbrContext, AbrDecision, ChunkMeasurement};

/// Span-recording forwarder around an endpoint.
pub struct TracedEndpoint {
    inner: Box<dyn Endpoint>,
    site: usize,
}

impl Endpoint for TracedEndpoint {
    fn on_packet(&mut self, now: SimTime, pkt: Packet, ctx: &mut NodeCtx) {
        let inner = &mut self.inner;
        trace::span(self.site, || inner.on_packet(now, pkt, ctx));
    }

    fn on_timer(&mut self, now: SimTime, token: u64, ctx: &mut NodeCtx) {
        let inner = &mut self.inner;
        trace::span(self.site, || inner.on_timer(now, token, ctx));
    }

    fn as_any(&mut self) -> &mut dyn std::any::Any {
        self.inner.as_any()
    }
}

/// Replace `node`'s endpoint by a [`TracedEndpoint`] charging `site`.
pub fn wrap_endpoint(sim: &mut Simulator, node: NodeId, site: usize) {
    let inner = sim.take_endpoint(node).expect("node has an endpoint");
    sim.set_endpoint(node, Box::new(TracedEndpoint { inner, site }));
}

/// Span-recording forwarder around a queue discipline.
#[derive(Debug)]
pub struct TracedQueue {
    inner: Box<dyn Queue>,
    enq: usize,
    deq: usize,
}

impl Queue for TracedQueue {
    fn enqueue(&mut self, now: SimTime, pkt: PacketRef) -> EnqueueResult {
        let inner = &mut self.inner;
        trace::span(self.enq, || inner.enqueue(now, pkt))
    }

    fn dequeue(&mut self, now: SimTime, dropped: &mut Vec<PacketRef>) -> Dequeue {
        let inner = &mut self.inner;
        trace::span(self.deq, || inner.dequeue(now, dropped))
    }

    fn dequeue_train(
        &mut self,
        now: SimTime,
        max_packets: usize,
        max_bytes: u64,
        out: &mut Vec<PacketRef>,
        dropped: &mut Vec<PacketRef>,
    ) -> TrainStop {
        let inner = &mut self.inner;
        trace::span(self.deq, || {
            inner.dequeue_train(now, max_packets, max_bytes, out, dropped)
        })
    }

    fn occupied_bytes(&self) -> u64 {
        self.inner.occupied_bytes()
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn capacity_bytes(&self) -> u64 {
        self.inner.capacity_bytes()
    }

    fn stats(&self) -> &QueueStats {
        self.inner.stats()
    }

    fn stats_mut(&mut self) -> &mut QueueStats {
        self.inner.stats_mut()
    }

    fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    fn reset_max_occupancy(&mut self) {
        self.inner.reset_max_occupancy()
    }
}

/// The (enqueue, dequeue) sites of a discipline, by its label.
pub fn queue_sites(discipline: &str) -> (usize, usize) {
    match discipline {
        "droptail" => (site::ENQ_DROPTAIL, site::DEQ_DROPTAIL),
        "drr" => (site::ENQ_DRR, site::DEQ_DRR),
        "codel" => (site::ENQ_CODEL, site::DEQ_CODEL),
        other => panic!("no queue sites for discipline {other:?}"),
    }
}

/// Swap a [`TracedQueue`] into `link`, charging the sites of `discipline`.
pub fn wrap_queue(sim: &mut Simulator, link: LinkId, discipline: &str) {
    let (enq, deq) = queue_sites(discipline);
    let l = sim.link_mut(link);
    let inner = std::mem::replace(&mut l.queue, Discipline::DropTail.build(1));
    l.queue = Box::new(TracedQueue { inner, enq, deq });
}

/// Span-recording forwarder around an ABR.
pub struct TracedAbr {
    inner: Box<dyn Abr>,
}

impl TracedAbr {
    /// Wrap `inner`.
    pub fn new(inner: Box<dyn Abr>) -> Self {
        TracedAbr { inner }
    }
}

impl Abr for TracedAbr {
    fn select(&mut self, ctx: &AbrContext<'_>) -> AbrDecision {
        let inner = &mut self.inner;
        trace::span(site::ABR_SELECT, || inner.select(ctx))
    }

    fn on_chunk_downloaded(&mut self, m: &ChunkMeasurement) {
        let inner = &mut self.inner;
        trace::span(site::ABR_OBSERVE, || inner.on_chunk_downloaded(m))
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}
