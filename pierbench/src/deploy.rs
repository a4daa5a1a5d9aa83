//! A PIER deployment driven from outside, generic over the hosted node type
//! so the plain and the traced run execute the same harness code.
//!
//! [`Deployment::boot`] builds the simulation exactly as
//! `pier_core::PierTestbed::new` does; the client calls mirror the testbed's
//! (tables are re-provisioned on hosts that restarted after churn).  The
//! harness times its own calls into the system — advancing the simulator,
//! submitting SQL, publishing — so the traced run can split the CPU among
//! them.

use crate::layers::{Host, Tally};
use pier_core::engine::EngineStats;
use pier_core::{PierConfig, PierNode, QueryId, TableDef, Tuple};
use pier_simnet::{
    Duration, LatencyModel, MetricsSnapshot, NodeAddr, SimConfig, SimTime, Simulation,
};
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

/// Polling step of the answer watcher, in microseconds: the resolution of
/// every latency.
pub const POLL_US: u64 = 1_000;

/// Wall time the harness spent in each kind of call into the system.
#[derive(Clone, Copy, Debug, Default)]
pub struct HarnessClock {
    /// Inside `Simulation::run_until` (simulator loop plus handlers).
    pub run_ns: f64,
    /// Simulator events processed.
    pub events: u64,
    /// Inside `submit_sql`.
    pub submit_ns: f64,
    /// `submit_sql` calls.
    pub submits: u64,
    /// Inside `publish_batch` / `publish_local`.
    pub publish_ns: f64,
    /// Tuples handed to them.
    pub published: u64,
    /// Live-node seconds of simulated time elapsed.
    pub node_seconds: f64,
}

impl HarnessClock {
    /// Field-wise `self - earlier`.
    pub fn since(&self, e: &HarnessClock) -> HarnessClock {
        HarnessClock {
            run_ns: self.run_ns - e.run_ns,
            events: self.events - e.events,
            submit_ns: self.submit_ns - e.submit_ns,
            submits: self.submits - e.submits,
            publish_ns: self.publish_ns - e.publish_ns,
            published: self.published - e.published,
            node_seconds: self.node_seconds - e.node_seconds,
        }
    }
}

/// Network-wide engine and DHT counters, including those of node
/// incarnations that churn replaced.
#[derive(Clone, Copy, Debug, Default)]
pub struct Totals {
    /// Field-wise sum of every incarnation's `EngineStats`.
    pub engine: EngineStats,
    /// Routed operations delivered.
    pub deliveries: u64,
    /// Hops those deliveries took.
    pub delivery_hops: u64,
}

impl Totals {
    fn add_node(&mut self, node: &PierNode) {
        self.engine.merge(&node.stats());
        let d = node.dht.stats();
        self.deliveries += d.deliveries;
        self.delivery_hops += d.delivery_hops;
    }
}

/// A running deployment.
pub struct Deployment<N: Host> {
    sim: Simulation<N>,
    nodes: Vec<NodeAddr>,
    table_defs: Vec<TableDef>,
    retired: Totals,
    alive: usize,
    /// The harness's own timing.
    pub clock: HarnessClock,
    /// Handler time per layer (traced runs only).
    pub tally: Option<Rc<RefCell<Tally>>>,
    /// Calibration units timed so far.
    pub calibration: Calibration,
}

/// The calibration units a deployment timed, one per simulated second.
#[derive(Clone, Copy, Debug, Default)]
pub struct Calibration {
    /// Units timed.
    pub units: u64,
    /// Their summed CPU seconds.
    pub unit_s: f64,
    /// CPU seconds spent calibrating, to leave out of every phase's time.
    pub spent_s: f64,
}

impl<N: Host + 'static> Deployment<N> {
    /// Boot `nodes` hosts and run the overlay for `warmup`, exactly as
    /// `PierTestbed::new` does.  `wrap` turns each fresh engine into the
    /// hosted node type.
    pub fn boot(
        nodes: usize,
        seed: u64,
        pier: PierConfig,
        warmup: Duration,
        wrap: impl Fn(PierNode) -> N + 'static,
        tally: Option<Rc<RefCell<Tally>>>,
    ) -> Self {
        let mut rng = pier_simnet::DetRng::new(seed);
        let latency = LatencyModel::planetary(nodes.max(1), &mut rng);
        let sim = Simulation::new(SimConfig { seed, latency, ..Default::default() }, move |addr| {
            let bootstrap = if addr.0 == 0 { None } else { Some(NodeAddr(0)) };
            wrap(PierNode::new(addr, pier.clone(), bootstrap))
        });
        let mut d = Deployment {
            sim,
            nodes: Vec::new(),
            table_defs: Vec::new(),
            retired: Totals::default(),
            alive: nodes,
            clock: HarnessClock::default(),
            tally,
            calibration: Calibration::default(),
        };
        let t = Instant::now();
        d.nodes = d.sim.add_nodes(nodes);
        d.clock.run_ns += t.elapsed().as_nanos() as f64;
        d.run_until(d.sim.now() + warmup);
        d
    }

    /// Node addresses, in creation order.
    pub fn nodes(&self) -> &[NodeAddr] {
        &self.nodes
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.sim.now()
    }

    /// Simulator traffic counters.
    pub fn wire(&self) -> MetricsSnapshot {
        self.sim.metrics().snapshot()
    }

    /// Is the host alive?
    pub fn is_alive(&self, addr: NodeAddr) -> bool {
        self.sim.is_alive(addr)
    }

    /// The engine of a host (dead hosts stay inspectable).
    pub fn pier(&self, addr: NodeAddr) -> &PierNode {
        self.sim.node(addr).expect("known node").pier()
    }

    /// Advance virtual time to `t`, timing a calibration unit at every whole
    /// simulated second.
    pub fn run_until(&mut self, t: SimTime) {
        while self.sim.now() < t {
            let from = self.sim.now();
            let second = SimTime::from_secs(from.as_secs() + 1);
            let to = second.min(t);
            let start = Instant::now();
            self.clock.events += self.sim.run_until(to);
            self.clock.run_ns += start.elapsed().as_nanos() as f64;
            self.clock.node_seconds += self.alive as f64 * to.saturating_since(from).as_secs_f64();
            if to == second {
                let start = crate::clock::process_cpu_s();
                self.calibration.unit_s += crate::clock::calibrate();
                self.calibration.units += 1;
                self.calibration.spent_s += crate::clock::process_cpu_s() - start;
            }
        }
    }

    /// Register a table on every host, now and after any later restart.
    pub fn create_table_everywhere(&mut self, def: &TableDef) {
        self.table_defs.push(def.clone());
        for &addr in &self.nodes {
            if let Some(node) = self.sim.node_mut(addr) {
                node.pier_mut().create_table(def.clone());
            }
        }
    }

    /// Set cardinality hints for a table on every host.
    pub fn set_table_stats_everywhere(&mut self, table: &str, stats: pier_core::TableStats) {
        for &addr in &self.nodes {
            if let Some(node) = self.sim.node_mut(addr) {
                node.pier_mut().set_table_stats(table, stats);
            }
        }
    }

    fn ensure_tables(&mut self, addr: NodeAddr) {
        if let Some(node) = self.sim.node_mut(addr) {
            for def in &self.table_defs {
                if node.pier().catalog().get(&def.name).is_none() {
                    node.pier_mut().create_table(def.clone());
                }
            }
        }
    }

    /// Publish tuples of one table from a host through the DHT put path.
    pub fn publish_batch(&mut self, from: NodeAddr, table: &str, tuples: Vec<Tuple>) {
        self.ensure_tables(from);
        let n = tuples.len() as u64;
        let start = Instant::now();
        self.sim.invoke(from, |node, ctx| {
            node.pier_mut().publish_batch(ctx, table, tuples).expect("publish_batch failed")
        });
        self.clock.publish_ns += start.elapsed().as_nanos() as f64;
        self.clock.published += n;
    }

    /// Store a tuple at a host (monitoring data about that host).
    pub fn publish_local(&mut self, at: NodeAddr, table: &str, tuple: Tuple) {
        self.ensure_tables(at);
        let now = self.sim.now();
        let start = Instant::now();
        if let Some(node) = self.sim.node_mut(at) {
            node.pier_mut().publish_local(now, table, tuple).expect("publish_local failed");
        }
        self.clock.publish_ns += start.elapsed().as_nanos() as f64;
        self.clock.published += 1;
    }

    /// Submit SQL from a host.
    pub fn submit_sql(&mut self, from: NodeAddr, sql: &str) -> Result<QueryId, String> {
        self.ensure_tables(from);
        let start = Instant::now();
        let id = self
            .sim
            .invoke(from, |node, ctx| {
                node.pier_mut().submit_sql(ctx, sql).map_err(|e| e.to_string())
            })
            .unwrap_or_else(|| Err(format!("origin {from} is not alive")));
        self.clock.submit_ns += start.elapsed().as_nanos() as f64;
        self.clock.submits += 1;
        id
    }

    /// Crash a host now.
    pub fn kill(&mut self, addr: NodeAddr) {
        if self.sim.is_alive(addr) {
            self.sim.kill_node(addr);
            self.alive -= 1;
        }
    }

    /// Restart a crashed host with a fresh engine; the old incarnation's
    /// counters are kept in the totals.
    pub fn restart(&mut self, addr: NodeAddr) {
        if self.sim.is_alive(addr) {
            return;
        }
        if let Some(node) = self.sim.node(addr) {
            self.retired.add_node(node.pier());
        }
        self.sim.restart_node(addr);
        self.alive += 1;
    }

    /// Network-wide counters over every incarnation so far.
    pub fn totals(&self) -> Totals {
        let mut t = self.retired;
        for i in 0..self.sim.num_nodes() {
            if let Some(node) = self.sim.node(NodeAddr(i as u32)) {
                t.add_node(node.pier());
            }
        }
        t
    }

    /// Items held in live hosts' DHT stores.
    pub fn store_items(&self) -> u64 {
        let live = self.nodes.iter().filter(|&&a| self.sim.is_alive(a));
        live.map(|&a| self.pier(a).dht.store_len() as u64).sum()
    }
}

/// One answer the benchmark expects: a query's epoch at its origin.
#[derive(Clone, Debug)]
pub struct Expected {
    /// Origin host.
    pub origin: NodeAddr,
    /// Query.
    pub query: QueryId,
    /// Epoch (0 for one-shot queries).
    pub epoch: u64,
    /// When the answer was due.
    pub due: SimTime,
}

/// Watches expected answers at their origins and records when each last
/// changed, at [`POLL_US`] resolution.
#[derive(Default)]
pub struct AnswerBook {
    expected: Vec<Expected>,
    seen: Vec<(usize, u64)>,
    completed: Vec<Option<SimTime>>,
    first_open: usize,
    /// How long after its due time an answer is watched.
    pub horizon: Duration,
}

impl AnswerBook {
    /// A book watching each answer for `horizon` after it is due.
    pub fn new(horizon: Duration) -> Self {
        AnswerBook { horizon, ..Default::default() }
    }

    /// Start watching an answer; answers must be registered in due order.
    pub fn expect(&mut self, e: Expected) {
        assert!(
            self.expected.last().is_none_or(|last| last.due <= e.due),
            "answers out of due order"
        );
        self.expected.push(e);
        self.seen.push((0, 0));
        self.completed.push(None);
    }

    /// Expected answers, in registration order.
    pub fn expected(&self) -> &[Expected] {
        &self.expected
    }

    /// When each answer last changed.
    pub fn completed(&self) -> &[Option<SimTime>] {
        &self.completed
    }

    fn poll<N: Host + 'static>(&mut self, d: &Deployment<N>) {
        let now = d.now();
        // Answers are registered in due order, so the watched ones form a
        // window that only moves forward.
        while self.expected.get(self.first_open).is_some_and(|e| e.due + self.horizon < now) {
            self.first_open += 1;
        }
        for (i, e) in self.expected.iter().enumerate().skip(self.first_open) {
            if e.due > now {
                break;
            }
            let Some(res) = d.pier(e.origin).results(e.query) else { continue };
            let print = (res.raw_rows(e.epoch).len(), res.contributors(e.epoch));
            if print != self.seen[i] {
                self.seen[i] = print;
                self.completed[i] = Some(now);
            }
        }
    }

    /// The final rows of every expected answer (`None` if it never arrived).
    pub fn answers<N: Host + 'static>(&self, d: &Deployment<N>) -> Vec<Option<Vec<Tuple>>> {
        self.expected
            .iter()
            .map(|e| {
                let res = d.pier(e.origin).results(e.query)?;
                res.epochs().contains(&e.epoch).then(|| res.rows(e.epoch))
            })
            .collect()
    }
}

/// Advance to `t` in [`POLL_US`] steps, watching answers after each.
pub fn advance<N: Host + 'static>(d: &mut Deployment<N>, book: &mut AnswerBook, t: SimTime) {
    while d.now() < t {
        let step = (d.now() + Duration::from_micros(POLL_US)).min(t);
        d.run_until(step);
        book.poll(d);
    }
}

/// An open-loop request schedule: requests are issued at their due times no
/// matter how earlier ones fare, and are timed from when they were due.
#[derive(Clone, Debug)]
pub struct OpenLoop {
    due: Vec<SimTime>,
    next: usize,
    /// Largest delay between a request's due time and its issue.
    pub max_late: Duration,
}

impl OpenLoop {
    /// A schedule of due times (must be ascending).
    pub fn new(due: Vec<SimTime>) -> Self {
        assert!(due.windows(2).all(|w| w[0] <= w[1]), "due times must ascend");
        OpenLoop { due, next: 0, max_late: Duration::ZERO }
    }

    /// The next due time not yet issued.
    pub fn next_due(&self) -> Option<SimTime> {
        self.due.get(self.next).copied()
    }

    /// Due times of every request due by `now`, marking them issued and
    /// recording how late the generator ran.
    pub fn take_due(&mut self, now: SimTime) -> Vec<SimTime> {
        let mut out = Vec::new();
        while let Some(due) = self.next_due().filter(|&d| d <= now) {
            self.max_late = self.max_late.max(now.saturating_since(due));
            out.push(due);
            self.next += 1;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::judge::Verdict;

    #[test]
    fn open_loop_issues_everything_due_and_times_from_due() {
        let ms = |m: u64| SimTime::from_micros(m * 1000);
        let mut lp = OpenLoop::new(vec![ms(100), ms(200), ms(250), ms(900)]);
        assert!(lp.take_due(ms(50)).is_empty());
        // The harness stalled until 260 ms: both late requests go out at
        // once, and each stays timed from its own due time.
        let issued = lp.take_due(ms(260));
        assert_eq!(issued, vec![ms(100), ms(200), ms(250)]);
        assert_eq!(lp.max_late, Duration::from_millis(160));
        // An answer completing at 400 ms for the request due at 100 ms took
        // 300 ms, although it was sent only 140 ms before completing.
        let v = Verdict { due: issued[0], completed: Some(ms(400)), ok: true, completeness: 1.0 };
        assert_eq!(v.latency_ms(), Some(300.0));
        assert_eq!(lp.next_due(), Some(ms(900)));
        assert_eq!(lp.take_due(ms(1000)), vec![ms(900)]);
        assert_eq!(lp.next_due(), None);
    }
}
