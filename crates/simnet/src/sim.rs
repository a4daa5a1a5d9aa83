//! The discrete-event simulation driver.
//!
//! [`Simulation`] owns every simulated node, a priority queue of pending
//! events (message deliveries, timer expirations, membership changes), the
//! latency/loss models and the metrics.  Driver code (examples, tests, the
//! benchmark harness) advances virtual time with [`Simulation::run_until`] /
//! [`Simulation::run_for`], injects work by invoking node methods through
//! [`Simulation::invoke`], and inspects results between steps.

use crate::churn::{ChurnKind, ChurnSchedule};
use crate::latency::LatencyModel;
use crate::loss::{LossModel, PartitionSet};
use crate::metrics::Metrics;
use crate::node::{Action, Context, Node, NodeAddr, TimerId, WireSize};
use crate::rng::DetRng;
use crate::time::{Duration, SimTime};
use crate::trace::{TraceEvent, TraceLog};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashSet};

/// Static configuration of a simulation run.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Root seed; every random draw in the run derives from it.
    pub seed: u64,
    /// One-way delay model.
    pub latency: LatencyModel,
    /// Message loss model.
    pub loss: LossModel,
    /// If non-zero, record up to this many trace events.
    pub trace_capacity: usize,
    /// Safety valve: abort `run_until` after this many events (0 = unlimited).
    pub max_events_per_run: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            seed: 0xC0FFEE,
            latency: LatencyModel::default(),
            loss: LossModel::None,
            trace_capacity: 0,
            max_events_per_run: 0,
        }
    }
}

impl SimConfig {
    /// Convenience constructor with just a seed.
    pub fn with_seed(seed: u64) -> Self {
        SimConfig { seed, ..Default::default() }
    }
}

enum EventKind<M> {
    Deliver { from: NodeAddr, to: NodeAddr, msg: M, sent_at: SimTime, bytes: usize },
    Timer { node: NodeAddr, id: TimerId, token: u64, incarnation: u64 },
    NodeDown { node: NodeAddr },
    NodeUp { node: NodeAddr },
}

/// Heap key of a pending event: `(at, seq, slot)`.  `seq` is unique, so the
/// order is exactly `(at, seq)` — earliest first, ties in push order — and
/// `slot` (the event body's index in the slab) never decides it.  Keeping
/// bodies out of the heap means every sift moves 24 bytes, not a message.
type EventKey = Reverse<(SimTime, u64, u32)>;

struct NodeSlot<N> {
    handler: N,
    rng: DetRng,
    alive: bool,
    incarnation: u64,
}

/// The discrete-event simulator.
pub struct Simulation<N: Node> {
    config: SimConfig,
    factory: Box<dyn FnMut(NodeAddr) -> N>,
    nodes: Vec<NodeSlot<N>>,
    queue: BinaryHeap<EventKey>,
    /// Event bodies, indexed by the `slot` of their heap key.
    events: Vec<Option<EventKind<N::Msg>>>,
    /// Slots of `events` free for reuse.
    free_slots: Vec<u32>,
    /// One action buffer, lent to every handler call and drained after it.
    actions: Vec<Action<N::Msg>>,
    cancelled_timers: HashSet<u64>,
    partitions: PartitionSet,
    now: SimTime,
    seq: u64,
    next_timer_id: u64,
    net_rng: DetRng,
    metrics: Metrics,
    trace: TraceLog,
}

impl<N: Node> Simulation<N> {
    /// Create a simulation.  `factory` builds a node handler for a given
    /// address; it is reused when churned nodes restart.
    pub fn new(config: SimConfig, factory: impl FnMut(NodeAddr) -> N + 'static) -> Self {
        let root = DetRng::new(config.seed);
        let trace = if config.trace_capacity > 0 {
            TraceLog::with_capacity(config.trace_capacity)
        } else {
            TraceLog::disabled()
        };
        Simulation {
            net_rng: root.stream(0xFACE),
            factory: Box::new(factory),
            nodes: Vec::new(),
            queue: BinaryHeap::new(),
            events: Vec::new(),
            free_slots: Vec::new(),
            actions: Vec::new(),
            cancelled_timers: HashSet::new(),
            partitions: PartitionSet::none(),
            now: SimTime::ZERO,
            seq: 0,
            next_timer_id: 0,
            metrics: Metrics::new(),
            trace,
            config,
        }
    }

    /// Add one node; it boots immediately (its `on_start` runs at the current
    /// virtual time).  Returns the new node's address.
    pub fn add_node(&mut self) -> NodeAddr {
        let addr = NodeAddr(self.nodes.len() as u32);
        let handler = (self.factory)(addr);
        let rng = DetRng::new(self.config.seed).stream(0x1000 + addr.0 as u64);
        self.nodes.push(NodeSlot { handler, rng, alive: true, incarnation: 0 });
        self.metrics.on_node_start();
        self.trace.push(TraceEvent::NodeUp { at: self.now, node: addr });
        self.run_handler(addr, HandlerCall::Start);
        addr
    }

    /// Add `n` nodes, returning their addresses.
    pub fn add_nodes(&mut self, n: usize) -> Vec<NodeAddr> {
        (0..n).map(|_| self.add_node()).collect()
    }

    /// Number of nodes ever created (alive or not).
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Whether `addr` is currently alive.
    pub fn is_alive(&self, addr: NodeAddr) -> bool {
        self.nodes.get(addr.index()).map(|s| s.alive).unwrap_or(false)
    }

    /// Addresses of all currently alive nodes.
    pub fn alive_nodes(&self) -> Vec<NodeAddr> {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, s)| s.alive)
            .map(|(i, _)| NodeAddr(i as u32))
            .collect()
    }

    /// Immutable access to a node's handler (dead nodes are still inspectable).
    pub fn node(&self, addr: NodeAddr) -> Option<&N> {
        self.nodes.get(addr.index()).map(|s| &s.handler)
    }

    /// Mutable access to a node's handler.  Use [`Simulation::invoke`] instead
    /// when the call needs to send messages or set timers.
    pub fn node_mut(&mut self, addr: NodeAddr) -> Option<&mut N> {
        self.nodes.get_mut(addr.index()).map(|s| &mut s.handler)
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Accumulated metrics.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Mutable metrics (for protocol layers that want to bump named counters).
    pub fn metrics_mut(&mut self) -> &mut Metrics {
        &mut self.metrics
    }

    /// Recorded trace events (empty unless `trace_capacity > 0`).
    pub fn trace(&self) -> &TraceLog {
        &self.trace
    }

    /// Install a network partition.
    pub fn set_partition(&mut self, partitions: PartitionSet) {
        self.partitions = partitions;
    }

    /// Remove any installed partition.
    pub fn heal_partition(&mut self) {
        self.partitions.heal();
    }

    /// Invoke a closure on a node with a full [`Context`], so that driver code
    /// (a "client" in PIER terms) can call node methods that send messages or
    /// set timers.  Returns `None` if the node is dead or unknown.
    pub fn invoke<R>(
        &mut self,
        addr: NodeAddr,
        f: impl FnOnce(&mut N, &mut Context<N::Msg>) -> R,
    ) -> Option<R> {
        if !self.is_alive(addr) {
            return None;
        }
        let now = self.now;
        let slot = &mut self.nodes[addr.index()];
        let mut ctx = Context {
            addr,
            now,
            rng: &mut slot.rng,
            actions: std::mem::take(&mut self.actions),
            next_timer_id: &mut self.next_timer_id,
        };
        let out = f(&mut slot.handler, &mut ctx);
        let actions = ctx.actions;
        self.apply_actions(addr, actions);
        Some(out)
    }

    /// Kill a node immediately (crash semantics: no goodbye messages are sent,
    /// pending timers are discarded, in-flight messages to it will be dropped).
    pub fn kill_node(&mut self, addr: NodeAddr) {
        if !self.is_alive(addr) {
            return;
        }
        self.run_handler(addr, HandlerCall::Stop);
        let slot = &mut self.nodes[addr.index()];
        slot.alive = false;
        slot.incarnation += 1;
        self.metrics.on_node_stop();
        self.trace.push(TraceEvent::NodeDown { at: self.now, node: addr });
    }

    /// Restart a dead node immediately with a fresh handler from the factory.
    pub fn restart_node(&mut self, addr: NodeAddr) {
        let Some(slot) = self.nodes.get_mut(addr.index()) else { return };
        if slot.alive {
            return;
        }
        slot.handler = (self.factory)(addr);
        slot.alive = true;
        self.metrics.on_node_start();
        self.trace.push(TraceEvent::NodeUp { at: self.now, node: addr });
        self.run_handler(addr, HandlerCall::Start);
    }

    /// Schedule a node failure at a future virtual time.
    pub fn schedule_kill(&mut self, at: SimTime, addr: NodeAddr) {
        let at = at.max(self.now);
        self.push_event(at, EventKind::NodeDown { node: addr });
    }

    /// Schedule a node restart at a future virtual time.
    pub fn schedule_restart(&mut self, at: SimTime, addr: NodeAddr) {
        let at = at.max(self.now);
        self.push_event(at, EventKind::NodeUp { node: addr });
    }

    /// Apply a whole churn schedule (each event becomes a scheduled kill or
    /// restart).
    pub fn apply_churn(&mut self, schedule: &ChurnSchedule) {
        for ev in schedule.events() {
            match ev.kind {
                ChurnKind::Down => self.schedule_kill(ev.at, ev.node),
                ChurnKind::Up => self.schedule_restart(ev.at, ev.node),
            }
        }
    }

    /// Process events until the queue is empty or virtual time would exceed
    /// `deadline`, then advance the clock to `deadline`.  If
    /// `max_events_per_run` stops the loop first while events are still due
    /// by `deadline`, the clock stays at the last event processed, so those
    /// events later fire at their own time.  Returns the number of events
    /// processed.
    pub fn run_until(&mut self, deadline: SimTime) -> u64 {
        let limit = match self.config.max_events_per_run {
            0 => u64::MAX,
            n => n,
        };
        let mut processed = 0u64;
        while processed < limit && self.next_event_at().is_some_and(|at| at <= deadline) {
            self.step();
            processed += 1;
        }
        if self.now < deadline && self.next_event_at().is_none_or(|at| at > deadline) {
            self.now = deadline;
        }
        processed
    }

    /// Run for `d` of virtual time from now.
    pub fn run_for(&mut self, d: Duration) -> u64 {
        let deadline = self.now + d;
        self.run_until(deadline)
    }

    /// Run until no events remain (or `limit` events have been processed).
    /// Useful for tests of protocols that quiesce.
    pub fn run_until_idle(&mut self, limit: u64) -> u64 {
        let mut processed = 0;
        while processed < limit && self.next_event_at().is_some() {
            self.step();
            processed += 1;
        }
        processed
    }

    /// Number of events currently queued.
    pub fn pending_events(&self) -> usize {
        self.queue.len()
    }

    /// Virtual time of the earliest queued event.
    fn next_event_at(&self) -> Option<SimTime> {
        self.queue.peek().map(|Reverse((at, _, _))| *at)
    }

    fn push_event(&mut self, at: SimTime, kind: EventKind<N::Msg>) {
        let seq = self.seq;
        self.seq += 1;
        let slot = match self.free_slots.pop() {
            Some(slot) => {
                self.events[slot as usize] = Some(kind);
                slot
            }
            None => {
                let slot = u32::try_from(self.events.len()).expect("fewer than 2^32 queued events");
                self.events.push(Some(kind));
                slot
            }
        };
        self.queue.push(Reverse((at, seq, slot)));
    }

    /// Pop the earliest event, advance the clock to it and dispatch it.
    fn step(&mut self) {
        let Some(Reverse((at, _, slot))) = self.queue.pop() else { return };
        let kind = self.events[slot as usize].take().expect("queued slot holds its event");
        self.free_slots.push(slot);
        self.now = self.now.max(at);
        self.dispatch(kind);
    }

    fn dispatch(&mut self, kind: EventKind<N::Msg>) {
        match kind {
            EventKind::Deliver { from, to, msg, sent_at, bytes } => {
                if !self.is_alive(to) {
                    self.metrics.on_drop_dead();
                    self.trace.push(TraceEvent::DropDead { at: self.now, from, to });
                    return;
                }
                let latency = self.now.saturating_since(sent_at);
                self.metrics.on_deliver(bytes, latency.as_micros());
                self.trace.push(TraceEvent::Deliver { at: self.now, from, to, bytes });
                self.run_handler(to, HandlerCall::Message { from, msg });
            }
            EventKind::Timer { node, id, token, incarnation } => {
                if !self.cancelled_timers.is_empty() && self.cancelled_timers.remove(&id.0) {
                    self.metrics.on_timer_cancelled();
                    return;
                }
                let Some(slot) = self.nodes.get(node.index()) else { return };
                if !slot.alive || slot.incarnation != incarnation {
                    return;
                }
                self.metrics.on_timer_fired();
                self.trace.push(TraceEvent::TimerFired { at: self.now, node, token });
                self.run_handler(node, HandlerCall::Timer { token });
            }
            EventKind::NodeDown { node } => {
                self.kill_node(node);
            }
            EventKind::NodeUp { node } => {
                self.restart_node(node);
            }
        }
    }

    fn run_handler(&mut self, addr: NodeAddr, call: HandlerCall<N::Msg>) {
        let now = self.now;
        let Some(slot) = self.nodes.get_mut(addr.index()) else { return };
        if !slot.alive {
            return;
        }
        let mut ctx = Context {
            addr,
            now,
            rng: &mut slot.rng,
            actions: std::mem::take(&mut self.actions),
            next_timer_id: &mut self.next_timer_id,
        };
        match call {
            HandlerCall::Start => slot.handler.on_start(&mut ctx),
            HandlerCall::Stop => slot.handler.on_stop(&mut ctx),
            HandlerCall::Message { from, msg } => slot.handler.on_message(&mut ctx, from, msg),
            HandlerCall::Timer { token } => slot.handler.on_timer(&mut ctx, token),
        }
        let actions = ctx.actions;
        self.apply_actions(addr, actions);
    }

    /// Apply the actions a handler requested, then keep the drained buffer
    /// for the next handler call.
    fn apply_actions(&mut self, from: NodeAddr, mut actions: Vec<Action<N::Msg>>) {
        for action in actions.drain(..) {
            match action {
                Action::Send { to, msg } => {
                    let bytes = msg.wire_size();
                    self.metrics.on_send(bytes);
                    if self.partitions.blocks(from, to)
                        || self.config.loss.drops(&mut self.net_rng, from, to)
                    {
                        self.metrics.on_drop_loss();
                        self.trace.push(TraceEvent::DropLoss { at: self.now, from, to });
                        continue;
                    }
                    let delay = self.config.latency.sample(&mut self.net_rng, from, to);
                    let at = self.now + delay;
                    self.push_event(
                        at,
                        EventKind::Deliver { from, to, msg, sent_at: self.now, bytes },
                    );
                }
                Action::SetTimer { id, delay, token } => {
                    let incarnation = self.nodes[from.index()].incarnation;
                    let at = self.now + delay;
                    self.push_event(at, EventKind::Timer { node: from, id, token, incarnation });
                }
                Action::CancelTimer { id } => {
                    self.cancelled_timers.insert(id.0);
                }
            }
        }
        self.actions = actions;
    }
}

enum HandlerCall<M> {
    Start,
    Stop,
    Message { from: NodeAddr, msg: M },
    Timer { token: u64 },
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    #[derive(Clone, Debug)]
    enum Msg {
        Ping(u64),
        #[allow(dead_code)] // the payload documents the echoed nonce
        Pong(u64),
    }
    impl WireSize for Msg {
        fn wire_size(&self) -> usize {
            9
        }
    }

    /// A node that pings its successor every 100 ms and counts pongs.
    struct PingNode {
        peers: u32,
        pings_received: u64,
        pongs_received: u64,
        ticks: u64,
    }

    impl Node for PingNode {
        type Msg = Msg;

        fn on_start(&mut self, ctx: &mut Context<Msg>) {
            ctx.set_timer(Duration::from_millis(100), 1);
        }

        fn on_message(&mut self, ctx: &mut Context<Msg>, from: NodeAddr, msg: Msg) {
            match msg {
                Msg::Ping(n) => {
                    self.pings_received += 1;
                    ctx.send(from, Msg::Pong(n));
                }
                Msg::Pong(_) => self.pongs_received += 1,
            }
        }

        fn on_timer(&mut self, ctx: &mut Context<Msg>, token: u64) {
            assert_eq!(token, 1);
            self.ticks += 1;
            let next = NodeAddr((ctx.addr().0 + 1) % self.peers);
            if next != ctx.addr() {
                ctx.send(next, Msg::Ping(self.ticks));
            }
            ctx.set_timer(Duration::from_millis(100), 1);
        }
    }

    fn ping_sim(n: usize, seed: u64) -> Simulation<PingNode> {
        ping_sim_capped(n, seed, 0)
    }

    /// [`ping_sim`] with `max_events_per_run` set to `cap`.
    fn ping_sim_capped(n: usize, seed: u64, cap: u64) -> Simulation<PingNode> {
        let peers = n as u32;
        let mut sim = Simulation::new(
            SimConfig {
                seed,
                latency: LatencyModel::Constant(Duration::from_millis(10)),
                max_events_per_run: cap,
                ..Default::default()
            },
            move |_addr| PingNode { peers, pings_received: 0, pongs_received: 0, ticks: 0 },
        );
        sim.add_nodes(n);
        sim
    }

    #[test]
    fn ping_pong_round_trips() {
        let mut sim = ping_sim(4, 1);
        sim.run_for(Duration::from_secs(2));
        for addr in sim.alive_nodes() {
            let node = sim.node(addr).unwrap();
            assert!(node.ticks >= 19, "ticks {}", node.ticks);
            assert!(node.pings_received > 0);
            assert!(node.pongs_received > 0);
        }
        assert!(sim.metrics().messages_delivered() > 0);
        assert_eq!(sim.metrics().messages_dropped_loss(), 0);
    }

    #[test]
    fn determinism_across_runs() {
        let run = |seed| {
            let peers = 5u32;
            let mut sim = Simulation::new(
                SimConfig {
                    seed,
                    latency: LatencyModel::Uniform {
                        min: Duration::from_millis(5),
                        max: Duration::from_millis(80),
                    },
                    ..Default::default()
                },
                move |_| PingNode { peers, pings_received: 0, pongs_received: 0, ticks: 0 },
            );
            sim.add_nodes(5);
            sim.run_for(Duration::from_secs(3));
            (
                sim.metrics().messages_sent(),
                sim.metrics().messages_delivered(),
                sim.metrics().delivery_latency().unwrap().mean().round() as u64,
            )
        };
        assert_eq!(run(7), run(7));
        // Different seeds draw different latencies, so the mean differs.
        assert_ne!(run(7).2, run(8).2);
    }

    #[test]
    fn killed_nodes_stop_receiving() {
        let mut sim = ping_sim(2, 3);
        sim.run_for(Duration::from_secs(1));
        sim.kill_node(NodeAddr(1));
        assert!(!sim.is_alive(NodeAddr(1)));
        let delivered_before = sim.metrics().messages_delivered();
        sim.run_for(Duration::from_secs(1));
        // Node 0 keeps sending pings into the void: drops-to-dead accumulate.
        assert!(sim.metrics().messages_dropped_dead() > 0);
        // Node 1 never handles anything further.
        let n1 = sim.node(NodeAddr(1)).unwrap();
        let n1_pings = n1.pings_received;
        sim.run_for(Duration::from_secs(1));
        assert_eq!(sim.node(NodeAddr(1)).unwrap().pings_received, n1_pings);
        assert!(sim.metrics().messages_delivered() > delivered_before); // node 0 still gets nothing new? actually node0 receives no pongs; deliveries only to node0 from nobody. Allow >= .
    }

    #[test]
    fn restart_gives_fresh_state() {
        let mut sim = ping_sim(3, 4);
        sim.run_for(Duration::from_secs(2));
        let before = sim.node(NodeAddr(2)).unwrap().ticks;
        assert!(before > 0);
        sim.kill_node(NodeAddr(2));
        sim.restart_node(NodeAddr(2));
        assert!(sim.is_alive(NodeAddr(2)));
        assert_eq!(sim.node(NodeAddr(2)).unwrap().ticks, 0);
        sim.run_for(Duration::from_secs(1));
        assert!(sim.node(NodeAddr(2)).unwrap().ticks > 0);
    }

    #[test]
    fn scheduled_churn_applies() {
        let mut sim = ping_sim(3, 5);
        let mut schedule = ChurnSchedule::none();
        schedule.push(SimTime::from_secs(1), NodeAddr(0), ChurnKind::Down);
        schedule.push(SimTime::from_secs(2), NodeAddr(0), ChurnKind::Up);
        sim.apply_churn(&schedule);
        sim.run_until(SimTime::from_millis(1_500));
        assert!(!sim.is_alive(NodeAddr(0)));
        sim.run_until(SimTime::from_millis(2_500));
        assert!(sim.is_alive(NodeAddr(0)));
        assert_eq!(sim.metrics().node_stops(), 1);
        assert_eq!(sim.metrics().node_starts(), 4); // 3 initial + 1 restart
    }

    #[test]
    fn stale_timers_do_not_fire_after_restart() {
        let mut sim = ping_sim(1, 6);
        // The single node arms a 100 ms timer at start. Kill and restart it
        // immediately: the old incarnation's timer must not fire.
        sim.kill_node(NodeAddr(0));
        sim.restart_node(NodeAddr(0));
        sim.run_for(Duration::from_millis(350));
        let node = sim.node(NodeAddr(0)).unwrap();
        // Only the new incarnation's timers fired: at most 3 ticks in 350 ms.
        assert!(node.ticks <= 3, "ticks {}", node.ticks);
        assert!(node.ticks >= 3);
    }

    #[test]
    fn loss_model_drops_messages() {
        let peers = 2u32;
        let mut sim = Simulation::new(
            SimConfig {
                seed: 9,
                latency: LatencyModel::Constant(Duration::from_millis(5)),
                loss: LossModel::Bernoulli(1.0),
                ..Default::default()
            },
            move |_| PingNode { peers, pings_received: 0, pongs_received: 0, ticks: 0 },
        );
        sim.add_nodes(2);
        sim.run_for(Duration::from_secs(1));
        assert_eq!(sim.metrics().messages_delivered(), 0);
        assert!(sim.metrics().messages_dropped_loss() > 0);
    }

    #[test]
    fn partition_blocks_and_heals() {
        let mut sim = ping_sim(2, 10);
        sim.set_partition(PartitionSet::split(&[&[NodeAddr(0)], &[NodeAddr(1)]]));
        sim.run_for(Duration::from_secs(1));
        assert_eq!(sim.metrics().messages_delivered(), 0);
        sim.heal_partition();
        sim.run_for(Duration::from_secs(1));
        assert!(sim.metrics().messages_delivered() > 0);
    }

    #[test]
    fn invoke_sends_messages() {
        let mut sim = ping_sim(2, 11);
        let sent_before = sim.metrics().messages_sent();
        let out = sim.invoke(NodeAddr(0), |_node, ctx| {
            ctx.send(NodeAddr(1), Msg::Ping(99));
            42
        });
        assert_eq!(out, Some(42));
        assert_eq!(sim.metrics().messages_sent(), sent_before + 1);
        sim.run_for(Duration::from_millis(50));
        assert!(sim.node(NodeAddr(1)).unwrap().pings_received >= 1);
        // Invoking a dead node returns None.
        sim.kill_node(NodeAddr(1));
        assert_eq!(sim.invoke(NodeAddr(1), |_n, _c| 1), None);
    }

    #[test]
    fn run_until_advances_time_even_when_idle() {
        let mut sim = ping_sim(0, 12);
        assert_eq!(sim.num_nodes(), 0);
        sim.run_until(SimTime::from_secs(5));
        assert_eq!(sim.now(), SimTime::from_secs(5));
        assert_eq!(sim.pending_events(), 0);
    }

    #[test]
    fn event_cap_leaves_the_clock_at_the_last_event() {
        // Both nodes tick first at 100 ms; a cap of one event per run stops
        // after the first tick, with the second still due.
        let mut sim = ping_sim_capped(2, 14, 1);
        let deadline = SimTime::from_secs(1);
        assert_eq!(sim.run_until(deadline), 1);
        assert_eq!(sim.now(), SimTime::from_millis(100));
        // Capped runs resume where they stopped, so every event still fires at
        // its own time: each delivery takes exactly the model's 10 ms.
        let mut runs = 1;
        while sim.run_until(deadline) == 1 {
            runs += 1;
        }
        let latency = sim.metrics().delivery_latency().unwrap();
        assert!(latency.count() > 0);
        assert_eq!(latency.max(), 10_000);
        assert_eq!(sim.metrics().timers_fired(), 2 * 10);
        assert!(runs > 40, "runs {runs}");
        // Once nothing is due by the deadline, the clock advances to it.
        assert_eq!(sim.now(), deadline);
    }

    /// One event a [`Recorder`] pushed: where and when it is due, and whether
    /// it must fire.
    struct Pushed {
        at: SimTime,
        to: NodeAddr,
        /// For a timer, the incarnation of the node that set it.
        timer_of: Option<u64>,
        cancelled: bool,
    }

    /// Everything the recorders of one simulation pushed and saw fire.  An
    /// event's tag is its index in `pushed`, so tag order is push order.
    #[derive(Default)]
    struct Log {
        pushed: Vec<Pushed>,
        fired: Vec<u64>,
        starts: Vec<u64>,
    }

    /// A node that logs every send and timer it requests, and every message
    /// and timer handed to it, in a log shared by all nodes.
    struct Recorder {
        log: Rc<RefCell<Log>>,
        peers: u32,
        incarnation: u64,
    }

    impl Recorder {
        fn send(&self, ctx: &mut Context<u64>, to: NodeAddr) {
            let mut log = self.log.borrow_mut();
            let tag = log.pushed.len() as u64;
            let at = ctx.now() + Duration::from_millis(10);
            log.pushed.push(Pushed { at, to, timer_of: None, cancelled: false });
            ctx.send(to, tag);
        }

        fn timer(&self, ctx: &mut Context<u64>, delay_ms: u64, cancel: bool) {
            let mut log = self.log.borrow_mut();
            let tag = log.pushed.len() as u64;
            let at = ctx.now() + Duration::from_millis(delay_ms);
            let to = ctx.addr();
            log.pushed.push(Pushed { at, to, timer_of: Some(self.incarnation), cancelled: cancel });
            let id = ctx.set_timer(Duration::from_millis(delay_ms), tag);
            if cancel {
                ctx.cancel_timer(id);
            }
        }
    }

    impl Node for Recorder {
        type Msg = u64;

        fn on_start(&mut self, ctx: &mut Context<u64>) {
            self.timer(ctx, 10, false);
            self.timer(ctx, 10, true);
            self.timer(ctx, 20, false);
        }

        fn on_message(&mut self, ctx: &mut Context<u64>, from: NodeAddr, tag: u64) {
            self.log.borrow_mut().fired.push(tag);
            if tag.is_multiple_of(5) {
                self.send(ctx, from);
            }
        }

        fn on_timer(&mut self, ctx: &mut Context<u64>, tag: u64) {
            self.log.borrow_mut().fired.push(tag);
            let me = ctx.addr();
            for peer in (0..self.peers).map(NodeAddr).filter(|&p| p != me) {
                self.send(ctx, peer);
            }
            // Cancel a timer due at the same time as a surviving one, so its
            // slot is freed and reused while same-time events are queued.
            let delay_ms = 10 + 10 * (tag % 3);
            self.timer(ctx, delay_ms, false);
            if tag.is_multiple_of(2) {
                self.timer(ctx, delay_ms, true);
            }
        }
    }

    #[test]
    fn pop_order_is_at_then_push_order_across_slot_reuse() {
        let log = Rc::new(RefCell::new(Log::default()));
        let factory_log = Rc::clone(&log);
        let mut sim = Simulation::new(
            SimConfig {
                seed: 15,
                latency: LatencyModel::Constant(Duration::from_millis(10)),
                ..Default::default()
            },
            move |addr: NodeAddr| {
                let mut l = factory_log.borrow_mut();
                if l.starts.len() <= addr.index() {
                    l.starts.resize(addr.index() + 1, 0);
                }
                l.starts[addr.index()] += 1;
                let incarnation = l.starts[addr.index()] - 1;
                Recorder { log: Rc::clone(&factory_log), peers: 3, incarnation }
            },
        );
        // Node 1 is down from 505 ms to 512 ms and restarts as incarnation 1
        // while timers of incarnation 0 are still queued; both changes are
        // queued events, interleaved with the traffic.
        let (down, up) = (SimTime::from_millis(505), SimTime::from_millis(512));
        sim.schedule_kill(down, NodeAddr(1));
        sim.schedule_restart(up, NodeAddr(1));
        sim.add_nodes(3);
        sim.run_until(SimTime::from_millis(1_500));

        let log = log.borrow();
        let (events, fired) = (&log.pushed, &log.fired);
        let deadline = SimTime::from_millis(1_500);
        let alive = |to: NodeAddr, at: SimTime| to != NodeAddr(1) || at < down || at > up;
        let incarnation_at = |to: NodeAddr, at: SimTime| u64::from(to == NodeAddr(1) && at > up);
        let mut expected: Vec<(SimTime, u64)> = events
            .iter()
            .enumerate()
            .filter(|(_, e)| e.at <= deadline && !e.cancelled && alive(e.to, e.at))
            .filter(|(_, e)| e.timer_of.is_none_or(|inc| inc == incarnation_at(e.to, e.at)))
            .map(|(tag, e)| (e.at, tag as u64))
            .collect();
        expected.sort();
        let expected: Vec<u64> = expected.into_iter().map(|(_, tag)| tag).collect();
        let first_difference = fired.iter().zip(&expected).position(|(f, e)| f != e);
        assert_eq!((first_difference, fired.len()), (None, expected.len()), "pop order");

        // The run exercised what it claims to: same-time events, cancelled
        // and stale timers, and drops to the dead node.
        assert!(fired.len() > 300, "fired {}", fired.len());
        let cancelled = events.iter().filter(|e| e.cancelled && e.at <= deadline).count() as u64;
        assert_eq!(sim.metrics().timers_cancelled(), cancelled);
        assert!(cancelled > 20);
        let stale = events
            .iter()
            .filter(|e| e.timer_of == Some(0) && e.to == NodeAddr(1) && e.at > up && !e.cancelled)
            .count();
        assert!(stale > 0);
        assert!(sim.metrics().messages_dropped_dead() > 0);
        let ties =
            expected.windows(2).filter(|w| events[w[0] as usize].at == events[w[1] as usize].at);
        assert!(ties.count() > 100);
        // Slots were recycled: the slab never grew to the number of events.
        assert!(sim.events.len() * 4 < events.len(), "slab {}", sim.events.len());
    }

    #[test]
    fn trace_records_when_enabled() {
        let peers = 2u32;
        let mut sim = Simulation::new(
            SimConfig {
                seed: 13,
                latency: LatencyModel::Constant(Duration::from_millis(1)),
                trace_capacity: 1000,
                ..Default::default()
            },
            move |_| PingNode { peers, pings_received: 0, pongs_received: 0, ticks: 0 },
        );
        sim.add_nodes(2);
        sim.run_for(Duration::from_millis(500));
        assert!(sim.trace().count_if(|e| matches!(e, TraceEvent::Deliver { .. })) > 0);
        assert_eq!(sim.trace().count_if(|e| matches!(e, TraceEvent::NodeUp { .. })), 2);
    }
}
