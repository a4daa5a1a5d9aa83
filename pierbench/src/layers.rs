//! The traced node wrapper: times every simulator upcall into a [`PierNode`]
//! and attributes it to the layer that does the work.
//!
//! A call is classified by the message it delivers (`DhtMsg` → `RouteBody` →
//! `PierPayload` variant) or by the timer token it fires.  Batched frames
//! (`RouteBatch`, `DirectBatch`) split their time evenly over the payloads
//! they carry.  Every `match` below is exhaustive without a wildcard arm, so a
//! new message variant breaks this build instead of going uncounted.

use pier_core::{PierMsg, PierNode, PierPayload};
use pier_dht::{timers, DhtMsg, RouteBody};
use pier_simnet::{Context, Node, NodeAddr};
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

/// A simulated host the benchmark can drive: the plain engine or the traced
/// wrapper around it.
pub trait Host: Node<Msg = PierMsg> {
    /// The engine running on this host.
    fn pier(&self) -> &PierNode;
    /// Mutable access to the engine (client calls).
    fn pier_mut(&mut self) -> &mut PierNode;
}

impl Host for PierNode {
    fn pier(&self) -> &PierNode {
        self
    }
    fn pier_mut(&mut self) -> &mut PierNode {
        self
    }
}

/// The layers a handler call is attributed to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// Overlay maintenance: stabilize, notify, fingers, ping, DHT timers,
    /// node start and stop.
    DhtMaint,
    /// Routed storage: Put, Get, GetReply, Replicate, Handoff, stored tuples.
    DhtStore,
    /// Query dissemination and teardown (one-shot scans run here).
    Install,
    /// Engine timers: epoch evaluation, hold-down, finalize, flush.
    Epoch,
    /// Join rehash and probe traffic, Bloom summaries, recursive expansion.
    Join,
    /// Partial aggregates and epoch summaries.
    Agg,
    /// Result rows streaming to the origin.
    Result,
    /// Trace collection and statistics gossip.
    Other,
}

/// Number of [`Layer`]s.
pub const NLAYERS: usize = 8;

/// Every layer, in report order.
pub const LAYERS: [Layer; NLAYERS] = [
    Layer::DhtMaint,
    Layer::DhtStore,
    Layer::Install,
    Layer::Epoch,
    Layer::Join,
    Layer::Agg,
    Layer::Result,
    Layer::Other,
];

impl Layer {
    /// Metric-name prefix of the layer.
    pub fn name(self) -> &'static str {
        match self {
            Layer::DhtMaint => "dht.maint",
            Layer::DhtStore => "dht.store",
            Layer::Install => "engine.install",
            Layer::Epoch => "engine.epoch",
            Layer::Join => "engine.join",
            Layer::Agg => "engine.agg",
            Layer::Result => "engine.result",
            Layer::Other => "engine.other",
        }
    }
}

/// The layer a PIER payload's handling belongs to.
fn payload_layer(p: &PierPayload) -> Layer {
    match p {
        PierPayload::Tuple(_) | PierPayload::TupleBatch(_) => Layer::DhtStore,
        PierPayload::Query(_) | PierPayload::StopQuery(_) => Layer::Install,
        PierPayload::Partial { .. }
        | PierPayload::EpochDone { .. }
        | PierPayload::WindowRetract { .. } => Layer::Agg,
        PierPayload::Result(_) | PierPayload::ResultBatch { .. } => Layer::Result,
        PierPayload::JoinTuple { .. }
        | PierPayload::JoinBatch { .. }
        | PierPayload::Bloom { .. }
        | PierPayload::Expand { .. } => Layer::Join,
        PierPayload::TraceRequest { .. }
        | PierPayload::TraceReport { .. }
        | PierPayload::StatsGossip { .. } => Layer::Other,
    }
}

fn body_layer(b: &RouteBody<PierPayload>) -> Layer {
    match b {
        RouteBody::Put { .. } | RouteBody::Get { .. } => Layer::DhtStore,
        RouteBody::AppSend { payload, .. } => payload_layer(payload),
        RouteBody::FindSuccessor { .. } => Layer::DhtMaint,
    }
}

/// Payload units per layer carried by one wire message.
pub type Units = [u32; NLAYERS];

/// Count the payloads a message carries, per layer.
pub fn classify(msg: &PierMsg) -> Units {
    let mut units = [0u32; NLAYERS];
    let mut add = |l: Layer| units[l as usize] += 1;
    match msg {
        DhtMsg::Route { body, .. } => add(body_layer(body)),
        DhtMsg::RouteBatch { routes } => routes.iter().for_each(|r| add(body_layer(&r.body))),
        DhtMsg::FoundSuccessor { .. }
        | DhtMsg::GetNeighbors
        | DhtMsg::Neighbors { .. }
        | DhtMsg::Notify { .. }
        | DhtMsg::Ping { .. }
        | DhtMsg::Pong { .. } => add(Layer::DhtMaint),
        DhtMsg::Replicate { .. } | DhtMsg::Handoff { .. } | DhtMsg::GetReply { .. } => {
            add(Layer::DhtStore)
        }
        DhtMsg::Direct { payload } => add(payload_layer(payload)),
        DhtMsg::DirectBatch { payloads } => payloads.iter().for_each(|p| add(payload_layer(p))),
        DhtMsg::Broadcast { payload, .. } => add(payload_layer(payload)),
    }
    if units.iter().all(|&u| u == 0) {
        units[Layer::Other as usize] = 1;
    }
    units
}

/// The layer of a timer firing.
pub fn timer_layer(token: u64) -> Layer {
    if (timers::TOKEN_BASE..timers::TOKEN_LIMIT).contains(&token) {
        Layer::DhtMaint
    } else {
        Layer::Epoch
    }
}

/// Accumulated handler time and work per layer.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Tally {
    /// Handler wall time per layer, nanoseconds.
    pub ns: [f64; NLAYERS],
    /// Payload units (or timer firings, starts, stops) per layer.
    pub units: [f64; NLAYERS],
    /// Payload units that arrived in wire messages, per layer.
    pub msgs: [f64; NLAYERS],
    /// Point-to-point frames delivered (`Direct` and `DirectBatch`).
    pub direct_frames: u64,
    /// Payloads those frames carried.
    pub direct_payloads: u64,
}

impl Tally {
    fn add(&mut self, units: &Units, ns: f64) {
        let total: u32 = units.iter().sum();
        for (i, &u) in units.iter().enumerate() {
            if u > 0 {
                self.ns[i] += ns * u as f64 / total as f64;
                self.units[i] += u as f64;
                self.msgs[i] += u as f64;
            }
        }
    }

    fn add_one(&mut self, layer: Layer, ns: f64) {
        self.ns[layer as usize] += ns;
        self.units[layer as usize] += 1.0;
    }

    /// Total handler time, nanoseconds.
    pub fn total_ns(&self) -> f64 {
        self.ns.iter().sum()
    }

    /// Field-wise `self - earlier`.
    pub fn since(&self, earlier: &Tally) -> Tally {
        let mut d = self.clone();
        for i in 0..NLAYERS {
            d.ns[i] -= earlier.ns[i];
            d.units[i] -= earlier.units[i];
            d.msgs[i] -= earlier.msgs[i];
        }
        d.direct_frames -= earlier.direct_frames;
        d.direct_payloads -= earlier.direct_payloads;
        d
    }
}

/// A [`PierNode`] whose every upcall is timed and attributed to a layer.
pub struct Traced {
    node: PierNode,
    tally: Rc<RefCell<Tally>>,
}

impl Traced {
    /// Wrap `node`, accumulating into the shared `tally`.
    pub fn new(node: PierNode, tally: Rc<RefCell<Tally>>) -> Self {
        Traced { node, tally }
    }
}

impl Host for Traced {
    fn pier(&self) -> &PierNode {
        &self.node
    }
    fn pier_mut(&mut self) -> &mut PierNode {
        &mut self.node
    }
}

impl Node for Traced {
    type Msg = PierMsg;

    fn on_start(&mut self, ctx: &mut Context<PierMsg>) {
        let t = Instant::now();
        self.node.on_start(ctx);
        self.tally.borrow_mut().add_one(Layer::DhtMaint, t.elapsed().as_nanos() as f64);
    }

    fn on_message(&mut self, ctx: &mut Context<PierMsg>, from: NodeAddr, msg: PierMsg) {
        let units = classify(&msg);
        let direct = match &msg {
            DhtMsg::Direct { .. } => Some(1),
            DhtMsg::DirectBatch { payloads } => Some(payloads.len() as u64),
            _ => None,
        };
        let t = Instant::now();
        self.node.on_message(ctx, from, msg);
        let ns = t.elapsed().as_nanos() as f64;
        let mut tally = self.tally.borrow_mut();
        tally.add(&units, ns);
        if let Some(n) = direct {
            tally.direct_frames += 1;
            tally.direct_payloads += n;
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<PierMsg>, token: u64) {
        let t = Instant::now();
        self.node.on_timer(ctx, token);
        self.tally.borrow_mut().add_one(timer_layer(token), t.elapsed().as_nanos() as f64);
    }

    fn on_stop(&mut self, ctx: &mut Context<PierMsg>) {
        let t = Instant::now();
        self.node.on_stop(ctx);
        self.tally.borrow_mut().add_one(Layer::DhtMaint, t.elapsed().as_nanos() as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pier_core::QueryId;

    fn stop() -> PierPayload {
        PierPayload::StopQuery(QueryId::new(NodeAddr(0), 1))
    }

    #[test]
    fn batches_count_toward_the_layers_they_carry() {
        let frame: PierMsg = DhtMsg::DirectBatch {
            payloads: vec![
                stop(),
                PierPayload::EpochDone { query: QueryId(1), epoch: 3, contributors: 2 },
                PierPayload::EpochDone { query: QueryId(1), epoch: 4, contributors: 2 },
            ],
        };
        let units = classify(&frame);
        assert_eq!(units[Layer::Install as usize], 1);
        assert_eq!(units[Layer::Agg as usize], 2);
        assert_eq!(units.iter().sum::<u32>(), 3);

        let mut tally = Tally::default();
        tally.add(&units, 300.0);
        assert_eq!(tally.ns[Layer::Install as usize], 100.0);
        assert_eq!(tally.ns[Layer::Agg as usize], 200.0);
    }

    #[test]
    fn maintenance_and_timers_are_told_apart() {
        assert_eq!(classify(&DhtMsg::Ping { nonce: 1 })[Layer::DhtMaint as usize], 1);
        assert_eq!(timer_layer(timers::STABILIZE), Layer::DhtMaint);
        assert_eq!(timer_layer(timers::TOKEN_LIMIT), Layer::Epoch);
        let bcast: PierMsg =
            DhtMsg::Broadcast { payload: stop(), range_end: pier_dht::Id::ZERO, depth: 0 };
        assert_eq!(classify(&bcast)[Layer::Install as usize], 1);
    }
}
