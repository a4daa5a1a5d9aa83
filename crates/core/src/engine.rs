//! The PIER node: a relational query engine layered on the DHT.
//!
//! Every simulated host runs one [`PierNode`].  It owns a [`DhtNode`] (the
//! communication substrate and temporary tuple store) and the query-execution
//! state for every active query.  The engine implements the paper's
//! "multihop, in-network" operators:
//!
//! * **Query dissemination** — plans are broadcast over the DHT's recursive
//!   dissemination tree; each node instantiates the plan locally.
//! * **Hierarchical aggregation** — each node folds its local tuples into
//!   mergeable partial states and forwards them hop-by-hop toward the node
//!   responsible for the query's aggregation key, combining at every hop
//!   after a short hold-down (the classic in-network aggregation of
//!   PIER/TAG).  The root finalizes each epoch and streams result rows to the
//!   query origin.
//! * **Distributed joins** — symmetric rehash joins (both relations rehashed
//!   on the join key into a query-scoped namespace), Fetch-Matches joins
//!   (DHT `get` probes against the inner relation), and Bloom-filter
//!   semi-joins.
//! * **Recursive queries** — expansion requests chase edges through the
//!   partitioned edge relation, with per-vertex duplicate suppression
//!   (distributed semi-naïve evaluation).
//! * **Continuous queries** — the same plan re-evaluated every epoch over a
//!   sliding window of recently stored tuples (the paper's Figure 1 query).

use crate::bloom::BloomFilter;
use crate::catalog::{Catalog, TableDef};
use crate::column::ColumnarBatch;
use crate::dataflow::join::{probe_joined, JoinBuild};
use crate::dataflow::ops::{sort_tuples, FilterOp, GroupAggregator, GroupKey, ProjectOp, TopK};
use crate::encoding::TupleBlock;
use crate::kernel::Kernel;
use crate::payload::PierPayload;
use crate::planner::{PlanCache, Planner};
use crate::query::{ContinuousSpec, JoinStrategy, QueryId, QueryKind, QuerySpec, ResultRow};
use crate::sql::{parse, parse_select, SelectStmt, Statement};
use crate::stats::{apply_totals, GossipView, TableSummary};
use crate::trace::OpTrace;
use crate::tuple::Tuple;
use crate::value::Value;
use pier_dht::{timers as dht_timers, DhtConfig, DhtMsg, DhtNode, ResourceKey, Upcall};
use pier_simnet::{Context, Duration, Node, NodeAddr, SimTime};
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::fmt;
use std::rc::Rc;

/// The wire message type PIER nodes exchange (DHT messages carrying
/// [`PierPayload`]s).
pub type PierMsg = DhtMsg<PierPayload>;

/// Key of a deferred join-rehash buffer: (query, stage, epoch, side).
/// Scan-side (side 1 and stage-0 side 0) and intermediate (side 0, stage
/// ≥ 1) rehashes all defer under the same time-based flush, so concurrent
/// queries' rehash traffic can share `RouteBatch` frames.
type RehashBufKey = (QueryId, u8, u64, u8);

/// Accounting stream of a staged point-to-point payload: which counters pay
/// for its wire frame.  `Query` traffic bills the per-query message counters
/// (and the producer-side trace), `Engine` bills only the node-level
/// counters (e.g. partial relays for queries this node never installed), and
/// `Gossip` is observability traffic kept out of the query counters
/// entirely.  A frame that coalesces ≥ 2 distinct streams is a shared
/// frame: exactly one stream pays for it and the rest ride free.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
enum DirectStream {
    Query(QueryId),
    Engine,
    Gossip,
}

/// How many stopped queries a node remembers: their execution traces answer
/// late `EXPLAIN ANALYZE` trace requests, and operator input still in flight
/// for them is dropped instead of buffered.
pub const MAX_FINISHED_TRACES: usize = 256;

type Ctx<'a> = Context<'a, PierMsg>;

/// Errors surfaced by the engine's client API.
#[derive(Clone, Debug, PartialEq)]
pub struct PierError {
    /// Description.
    pub message: String,
}

impl PierError {
    fn new(message: impl Into<String>) -> Self {
        PierError { message: message.into() }
    }
}

impl fmt::Display for PierError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PIER error: {}", self.message)
    }
}

impl std::error::Error for PierError {}

/// What the aggregation root of a windowed continuous query does with
/// partials that arrive for an epoch whose window(s) it has already closed
/// and reported (see [`crate::query::WindowSpec`]).
///
/// Windows close when the root's *watermark* — the highest epoch it has
/// finalized — passes the window's last epoch.  A partial delayed past the
/// root's collect-and-extend grace period is *late*; this policy decides
/// whether its data is lost or folded in retroactively.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WindowLatePolicy {
    /// Discard late partials (counted in
    /// [`EngineStats::window_late_dropped`]).  Closed windows are immutable
    /// and their state is freed at close — the cheap, at-most-once default.
    Drop,
    /// Merge late partials into the retained window state and re-emit the
    /// corrected window: the origin receives a retraction for the window's
    /// previous rows, then the updated rows.  Closed-window state is kept
    /// for a bounded number of slides, so very late data (beyond the
    /// retention horizon) is still dropped.
    Patch,
}

/// Engine configuration.
///
/// # Example: the batching and statistics knobs
///
/// ```
/// use pier_core::engine::PierConfig;
/// use pier_simnet::Duration;
///
/// let mut config = PierConfig::fast_test();
/// // Batched wire paths are on by default; benchmarks flip this off to
/// // measure against the one-message-per-tuple baseline.
/// assert!(config.batching);
/// config.batch_max = 128;          // cap tuples per batch (PIER_BATCH_MAX)
/// config.auto_stats = true;        // gossip table statistics automatically
/// config.stats_interval = Duration::from_secs(2);
/// assert!(config.adaptive);        // re-plan live queries when stats move
/// ```
#[derive(Clone, Debug)]
pub struct PierConfig {
    /// DHT / overlay parameters.
    pub dht: DhtConfig,
    /// Hold-down delay before a node forwards combined partial aggregates.
    pub holddown: Duration,
    /// How long the aggregation root waits after an epoch starts before
    /// finalizing (must exceed typical tree depth × hold-down + latency).
    pub collect_delay: Duration,
    /// How long the origin collects per-node Bloom filters before
    /// broadcasting the combined filter.
    pub bloom_collect_delay: Duration,
    /// Bits in each Bloom filter (the default geometry, used when the
    /// planner did not suggest a statistics-sized one).
    pub bloom_bits: usize,
    /// Lower clamp for planner-suggested per-stage Bloom geometry
    /// ([`JoinStage::bloom_bits`](crate::query::JoinStage)).
    pub bloom_bits_min: usize,
    /// Upper clamp for planner-suggested per-stage Bloom geometry.
    pub bloom_bits_max: usize,
    /// Inner-stage Bloom semi-joins: when the planner marks a symmetric-hash
    /// stage past the first as filterable, its join sites summarize the
    /// intermediate keys that reached them, the origin combines and
    /// broadcasts the filter, and right-relation scan sites prune their
    /// rehash through it — the stage-0 Bloom protocol generalized to a
    /// per-(query, stage, epoch) handshake.  `false` rehashes inner right
    /// sides eagerly and unfiltered, as before.
    pub inner_bloom: bool,
    /// Hold-down deadline at inner right-relation scan sites: if the
    /// combined filter has not arrived this long after the epoch started,
    /// ship the right side unfiltered.  A lost summary therefore degrades to
    /// extra traffic, never to missing results the filter would have kept.
    pub bloom_fallback_delay: Duration,
    /// Cross-query piggybacking: point-to-point payloads (results, partials,
    /// pending statistics gossip) and deferred intermediate rehashes from
    /// *different* queries that share a destination or next hop within one
    /// flush window ride a single wire frame (`DirectBatch` /
    /// `RouteBatch`).  Single-query traffic is unaffected — frames merge
    /// only across ≥ 2 concurrent streams.
    pub piggyback: bool,
    /// Coalesce hot wire paths into batch messages (`TupleBatch`,
    /// `JoinBatch`, `ResultBatch`, and DHT-level `RouteBatch`es).  `false`
    /// reproduces the original one-message-per-tuple behaviour; benchmarks
    /// flip this to measure the saving.
    pub batching: bool,
    /// Maximum tuples per batch message (the `PIER_BATCH_MAX` knob).  Larger
    /// batches amortize per-message overhead further but make each loss
    /// under churn costlier; buffers flush early once a batch reaches this
    /// size.  The `pier-bench` binaries read the `PIER_BATCH_MAX` environment
    /// variable into this field so deployments can tune it without
    /// recompiling.
    pub batch_max: usize,
    /// Time-based flush: with a value `n > 0`, result buffers and
    /// intermediate join-rehash buffers may span up to `n` engine ticks
    /// (upcall-processing drains) before flushing, letting chatty operators
    /// — the stages of a multi-way join above all — coalesce output across
    /// ticks instead of flushing every tick.  A hold-down-length timer
    /// bounds the added latency when the node goes quiet.  `0` (the
    /// default) preserves the classic flush-every-tick behaviour.
    pub batch_flush_ticks: u32,
    /// Automatic statistics: every [`PierConfig::stats_interval`] each node
    /// summarizes the live soft state it stores per table and gossips the
    /// summaries to ring neighbours until every catalog converges on
    /// network-wide cardinalities (no manual
    /// [`set_table_stats`](PierNode::set_table_stats) required).  Off by
    /// default so measurement-sensitive benchmarks see no extra traffic.
    pub auto_stats: bool,
    /// How often a node re-summarizes and pushes its statistics view.
    pub stats_interval: Duration,
    /// How many successor-list neighbours each gossip round pushes to (the
    /// predecessor is always included, so information spreads both ways
    /// around the ring).
    pub stats_fanout: usize,
    /// Gossip entry expiry: a node's statistics entry is evicted from the
    /// local view after this many gossip intervals without a fresher
    /// sequence number, so a permanently departed node stops inflating the
    /// network-wide cardinality totals.  Restarted nodes re-enter
    /// immediately (their sequence numbers are time-seeded).  `0` disables
    /// expiry.
    pub stats_ttl_intervals: u32,
    /// Mid-flight re-planning: when a catalog change (typically gossiped
    /// statistics) flips the cost ranking of a live continuous SQL query's
    /// join strategy, the origin re-plans and re-disseminates the spec; every
    /// node swaps to it at its next epoch boundary, recording the switch in
    /// the query's execution trace.
    pub adaptive: bool,
    /// Trace-fed costing: after a continuous multi-way join has run a few
    /// epochs, its origin collects the network-wide execution trace
    /// (per-stage input and match counters), folds it into per-query
    /// [`ObservedStats`](crate::planner::ObservedStats) that override the
    /// catalog estimates, and re-plans.  When the corrected costs change the
    /// plan — a different join order, strategy mix, or a bushy shape — the
    /// staged-spec swap path (`adaptive`) switches every node at its next
    /// epoch boundary.  Off by default: plans then come from catalog
    /// statistics only, exactly as before.
    pub feedback: bool,
    /// Batch-aware soft-state renewal: publishers log what
    /// [`publish_batch`](PierNode::publish_batch) stored, and
    /// [`renew_published`](PierNode::renew_published) re-publishes only the
    /// tuples past half their table's TTL instead of the whole batch —
    /// per-item renewal inside a stored batch.  Off by default (publishers
    /// re-publish everything every TTL, as before).
    pub renewal: bool,
    /// Vectorized execution: run local scans, filters, projections, and
    /// grouped aggregation over [`crate::column::ColumnarBatch`]es with
    /// compiled [`crate::kernel::Kernel`] pipelines instead of per-row
    /// [`crate::expr::Expr::eval`].  Results are identical either way (the
    /// row path is kept as the behavioural reference); benchmarks flip this
    /// to measure the speedup.
    pub vectorized: bool,
    /// Compact columnar wire encoding for the batch payloads (`TupleBatch`,
    /// `JoinBatch`, `ResultBatch`): per-column dictionary / run-length
    /// compression where it wins over plain row-major, chosen per column per
    /// block.  `false` reproduces the plain encoding's byte accounting
    /// exactly.
    pub columnar_wire: bool,
    /// What the aggregation root does with partials that arrive after the
    /// windows covering their epoch have closed (windowed continuous
    /// aggregates only; see [`WindowLatePolicy`]).  Interacts with
    /// `collect_delay` and `holddown`: the shorter those grace periods are
    /// relative to network latency, the more data arrives late and the more
    /// this policy matters.
    pub window_late_policy: WindowLatePolicy,
}

impl Default for PierConfig {
    fn default() -> Self {
        // Base tables are queried with local scans; storing DHT-level replicas
        // would make replicated tuples show up twice in scans, so the engine
        // runs the DHT without item replication and relies on soft-state
        // renewal (publishers re-publish every TTL) for durability, as PIER does.
        let dht = DhtConfig { replication_factor: 0, ..DhtConfig::default() };
        PierConfig {
            dht,
            holddown: Duration::from_millis(250),
            collect_delay: Duration::from_millis(4_000),
            bloom_collect_delay: Duration::from_millis(1_500),
            bloom_bits: 4096,
            bloom_bits_min: 1024,
            bloom_bits_max: 65_536,
            inner_bloom: true,
            bloom_fallback_delay: Duration::from_millis(8_000),
            piggyback: true,
            batching: true,
            batch_max: 512,
            batch_flush_ticks: 0,
            auto_stats: false,
            stats_interval: Duration::from_millis(5_000),
            stats_fanout: 3,
            stats_ttl_intervals: 8,
            adaptive: true,
            feedback: false,
            renewal: false,
            vectorized: true,
            columnar_wire: true,
            window_late_policy: WindowLatePolicy::Drop,
        }
    }
}

impl PierConfig {
    /// Fast timers for small test networks.
    pub fn fast_test() -> Self {
        let mut dht = DhtConfig::fast_test();
        dht.replication_factor = 0;
        PierConfig {
            dht,
            holddown: Duration::from_millis(100),
            collect_delay: Duration::from_millis(3_000),
            bloom_collect_delay: Duration::from_millis(800),
            bloom_bits: 2048,
            bloom_bits_min: 512,
            bloom_bits_max: 16_384,
            inner_bloom: true,
            bloom_fallback_delay: Duration::from_millis(3_000),
            piggyback: true,
            batching: true,
            batch_max: 512,
            batch_flush_ticks: 0,
            auto_stats: false,
            stats_interval: Duration::from_millis(2_000),
            stats_fanout: 3,
            stats_ttl_intervals: 8,
            adaptive: true,
            feedback: false,
            renewal: false,
            vectorized: true,
            columnar_wire: true,
            window_late_policy: WindowLatePolicy::Drop,
        }
    }

    /// Parameters matching the PlanetLab-scale experiments.
    pub fn planetlab() -> Self {
        let mut dht = DhtConfig::planetlab();
        dht.replication_factor = 0;
        PierConfig {
            dht,
            holddown: Duration::from_millis(300),
            collect_delay: Duration::from_millis(5_000),
            bloom_collect_delay: Duration::from_millis(2_000),
            bloom_bits: 8192,
            bloom_bits_min: 2048,
            bloom_bits_max: 131_072,
            inner_bloom: true,
            bloom_fallback_delay: Duration::from_millis(10_000),
            piggyback: true,
            batching: true,
            batch_max: 512,
            batch_flush_ticks: 0,
            auto_stats: false,
            stats_interval: Duration::from_millis(5_000),
            stats_fanout: 3,
            stats_ttl_intervals: 8,
            adaptive: true,
            feedback: false,
            renewal: false,
            vectorized: true,
            columnar_wire: true,
            window_late_policy: WindowLatePolicy::Drop,
        }
    }
}

/// Per-node counters describing the engine's own activity (read by benches).
#[derive(Clone, Copy, Debug, Default)]
pub struct EngineStats {
    /// Tuples published into the DHT from this node.
    pub tuples_published: u64,
    /// Tuples read by local scans.
    pub tuples_scanned: u64,
    /// Result rows sent toward query origins.
    pub results_sent: u64,
    /// Partial-aggregate messages sent.
    pub partials_sent: u64,
    /// Partial-aggregate messages merged locally (in-network combining).
    pub partials_merged: u64,
    /// Tuples rehashed to join sites.
    pub join_tuples_sent: u64,
    /// Join output rows produced at this node.
    pub join_matches: u64,
    /// Recursive expansion messages sent.
    pub expands_sent: u64,
    /// Epoch evaluations performed.
    pub epochs_run: u64,
    /// DHT wire messages this engine initiated on the query wire paths
    /// (publishes, rehashed join tuples, partials, results, Bloom summaries,
    /// expansions) — the denominator of the batching win.
    pub messages_sent: u64,
    /// Application-payload bytes handed to the DHT on those paths (counted
    /// per payload, whether its first hop was remote or this node itself).
    pub bytes_shipped: u64,
    /// Batch payloads (each coalescing ≥ 2 tuples) among them.
    pub batches_sent: u64,
    /// SQL submissions answered from the per-node plan cache.
    pub plan_cache_hits: u64,
    /// SQL submissions that ran the full planning pipeline.
    pub plan_cache_misses: u64,
    /// Statistics-gossip messages sent.  Tracked separately from
    /// `messages_sent` / `bytes_shipped` so the observability plane does not
    /// pollute the query-path counters it is meant to measure.
    pub stats_gossip_sent: u64,
    /// Times this node swapped a live query to a re-planned spec at an epoch
    /// boundary (mid-flight re-planning).
    pub replans: u64,
    /// Right-relation tuples tested against a combined Bloom filter before
    /// rehash (stage 0 and inner stages alike).
    pub bloom_tested: u64,
    /// Of those, tuples the filter passed (and were therefore rehashed).
    pub bloom_passed: u64,
    /// Inner-stage epochs whose combined filter missed the hold-down deadline
    /// and shipped the right side unfiltered.
    pub bloom_fallbacks: u64,
    /// Point-to-point payloads that rode an existing frame to the same
    /// destination (or next hop) instead of paying for their own message.
    pub piggybacked_payloads: u64,
    /// Wire frames that carried payloads from ≥ 2 distinct streams
    /// (different queries, or a query plus engine/gossip traffic).
    pub shared_frames: u64,
    /// Times this node staged a trace-corrected plan for a live query
    /// (trace-fed costing, a subset of `replans`).
    pub feedback_replans: u64,
    /// Statistics-gossip payloads held for a deferred flush window
    /// (`batch_flush_ticks > 0`) so they could ride the next batch flush's
    /// frames instead of shipping in their own tick.
    pub gossip_deferred: u64,
    /// Tuples re-published by per-item soft-state renewal (past half TTL).
    pub renewals_published: u64,
    /// Tuples a renewal sweep left in place because they were still fresh —
    /// the traffic a whole-batch re-publish would have paid for.
    pub renewal_tuples_skipped: u64,
    /// Epoch-count windows this node closed and reported as an aggregation
    /// root (windowed continuous aggregates).
    pub windows_closed: u64,
    /// Late partial-aggregate payloads discarded because the windows
    /// covering their epoch had already closed
    /// ([`WindowLatePolicy::Drop`], or `Patch` past its retention horizon).
    pub window_late_dropped: u64,
    /// Already-closed windows re-opened, corrected, and re-emitted because
    /// a late partial arrived under [`WindowLatePolicy::Patch`].
    pub window_late_patched: u64,
    /// Alert tuples published into a query's `pier:alert:<id>` namespace
    /// (windowed aggregates with a `HAVING` trigger).
    pub alerts_emitted: u64,
    /// Per-(query, epoch) states freed at epoch boundaries once their epoch
    /// was a retirement horizon old with no engine timer outstanding.
    pub epochs_retired: u64,
    /// Arrivals (join tuples, probe answers, partials, Bloom filters) for an
    /// already-retired epoch, counted and dropped.
    pub late_epoch_dropped: u64,
    /// Operator input that arrived for a query already stopped at this
    /// node, dropped instead of buffered for a plan that never comes.
    pub stopped_query_dropped: u64,
    /// Gauge, not a counter: per-(query, epoch) states currently held.
    pub live_epoch_states: u64,
}

impl EngineStats {
    /// Field-wise sum (benchmarks aggregate per-node stats network-wide).
    pub fn merge(&mut self, other: &EngineStats) {
        self.tuples_published += other.tuples_published;
        self.tuples_scanned += other.tuples_scanned;
        self.results_sent += other.results_sent;
        self.partials_sent += other.partials_sent;
        self.partials_merged += other.partials_merged;
        self.join_tuples_sent += other.join_tuples_sent;
        self.join_matches += other.join_matches;
        self.expands_sent += other.expands_sent;
        self.epochs_run += other.epochs_run;
        self.messages_sent += other.messages_sent;
        self.bytes_shipped += other.bytes_shipped;
        self.batches_sent += other.batches_sent;
        self.plan_cache_hits += other.plan_cache_hits;
        self.plan_cache_misses += other.plan_cache_misses;
        self.stats_gossip_sent += other.stats_gossip_sent;
        self.replans += other.replans;
        self.bloom_tested += other.bloom_tested;
        self.bloom_passed += other.bloom_passed;
        self.bloom_fallbacks += other.bloom_fallbacks;
        self.piggybacked_payloads += other.piggybacked_payloads;
        self.shared_frames += other.shared_frames;
        self.feedback_replans += other.feedback_replans;
        self.gossip_deferred += other.gossip_deferred;
        self.renewals_published += other.renewals_published;
        self.renewal_tuples_skipped += other.renewal_tuples_skipped;
        self.windows_closed += other.windows_closed;
        self.window_late_dropped += other.window_late_dropped;
        self.window_late_patched += other.window_late_patched;
        self.alerts_emitted += other.alerts_emitted;
        self.epochs_retired += other.epochs_retired;
        self.late_epoch_dropped += other.late_epoch_dropped;
        self.stopped_query_dropped += other.stopped_query_dropped;
        self.live_epoch_states += other.live_epoch_states;
    }
}

/// What an engine timer is for.
#[derive(Clone, Debug)]
enum TimerPurpose {
    /// Start the next epoch of a continuous query.
    Epoch(QueryId),
    /// Forward combined partials for (query, epoch).
    Holddown(QueryId, u64),
    /// Finalize (query, epoch) at the aggregation root.
    RootFinalize(QueryId, u64),
    /// Combine and broadcast Bloom filters for (query, stage, epoch).
    BloomPhase2(QueryId, u8, u64),
    /// Quiescence check on an inner-stage Bloom summary under construction:
    /// ship it to the origin once intermediate arrivals go quiet.
    InnerBloomSummary(QueryId, u8, u64),
    /// Hold-down deadline for an inner stage's combined filter: if it has
    /// not arrived, rehash the right relation unfiltered.
    BloomFallback(QueryId, u8, u64),
    /// Summarize local soft state and push the statistics view to neighbours.
    StatsGossip,
    /// Deadline flush of deferred result / rehash buffers (only armed when
    /// `PierConfig::batch_flush_ticks` lets buffers span ticks).
    BatchFlush,
}

impl TimerPurpose {
    /// The (query, epoch) whose state the timer will touch when it fires.
    fn epoch_scope(&self) -> Option<(QueryId, u64)> {
        match *self {
            TimerPurpose::Holddown(id, epoch) | TimerPurpose::RootFinalize(id, epoch) => {
                Some((id, epoch))
            }
            TimerPurpose::BloomPhase2(id, _, epoch)
            | TimerPurpose::InnerBloomSummary(id, _, epoch)
            | TimerPurpose::BloomFallback(id, _, epoch) => Some((id, epoch)),
            TimerPurpose::Epoch(_) | TimerPurpose::StatsGossip | TimerPurpose::BatchFlush => None,
        }
    }
}

/// Execution state of one query at one node.
struct RunningQuery {
    spec: QuerySpec,
    epoch: u64,
    /// Everything this node keeps per epoch, created on first touch and
    /// dropped only by [`PierNode::retire`].
    epochs: BTreeMap<u64, EpochState>,
    /// Epochs below this are retired: their state is gone, and arrivals for
    /// them are counted and dropped (at the root they count as finalized).
    retired_below: u64,
    /// Windowed aggregates, root side (created by the first window touch).
    window: Option<Box<WindowState>>,
    /// Recursive queries: vertices already expanded at this node.
    visited: HashSet<String>,
    /// Producer-side per-operator counters (`EXPLAIN ANALYZE`).
    trace: OpTrace,
    /// A re-planned spec waiting to be applied at this node's next epoch
    /// evaluation.  Deferring the swap to an epoch boundary keeps every
    /// node's per-epoch evaluation on a single strategy, so a flip never
    /// mixes strategies *within* one node-epoch.
    pending_spec: Option<QuerySpec>,
    /// Kernels compiled once from the live spec and reused every epoch
    /// (vectorized path).  Cleared when a re-planned spec is applied.
    kernels: Option<Rc<CompiledKernels>>,
    /// Origin-side trace-fed costing state: a network-wide trace collection
    /// is outstanding for this query.
    feedback_requested: bool,
    /// Origin-side: the trace-fed correction has run (whether or not it
    /// changed the plan); no further collections are issued.
    feedback_settled: bool,
    /// Origin-side: the observed statistics the query was last (re)planned
    /// with, overlaid on the catalog by any later catalog-driven re-plan so
    /// a statistics gossip round cannot silently undo the trace correction.
    observed: Option<crate::planner::ObservedStats>,
}

/// One query's state for one epoch at one node: the aggregation plane's
/// buffers and root bookkeeping plus every join stage's state.
#[derive(Default)]
struct EpochState {
    /// Partials waiting for the hold-down timer (non-root).  The two
    /// accumulators are boxed: each lives only until its epoch forwards or
    /// finalizes, and the map keeps every state inline.
    pending: Option<Box<GroupAggregator>>,
    pending_contrib: u64,
    holddown_armed: bool,
    /// Root-side accumulation.
    root_acc: Option<Box<GroupAggregator>>,
    root_contrib: u64,
    finalize_armed: bool,
    /// Already finalized as the aggregation root; late partials are
    /// discarded rather than double-reported.
    finalized: bool,
    /// Last time a partial arrived at the root (quiescence check).
    root_last_update: Option<SimTime>,
    /// How many times finalization has been postponed.
    root_extensions: u32,
    /// This node already counted itself as an aggregation contributor
    /// (aggregates over joins produce partials incrementally as matches
    /// arrive, so the first batch of an epoch counts the node).
    agg_contributed: bool,
    /// Per join stage, indexed by stage number.
    stages: Vec<StageState>,
    /// Engine timers armed for this epoch that have not fired yet; the
    /// state is never retired while one is outstanding.
    timers: u32,
}

impl EpochState {
    fn stage(&mut self, stage: u8) -> &mut StageState {
        let k = stage as usize;
        if self.stages.len() <= k {
            self.stages.resize_with(k + 1, StageState::default);
        }
        &mut self.stages[k]
    }
}

/// One join stage's state within one epoch.
#[derive(Default)]
struct StageState {
    /// Scalar reference path: join-site hash tables (0 = left, 1 = right),
    /// key -> tuples.
    scalar: [HashMap<Value, Vec<Tuple>>; 2],
    /// Vectorized path: columnar build sides with a typed key-vector hash
    /// index, replacing `scalar` when `PierConfig::vectorized` is on.
    build: JoinBuild,
    /// Origin side: union of the per-node Bloom summaries received so far.
    bloom: Option<BloomFilter>,
    bloom_armed: bool,
    /// Origin side: the last combined filter broadcast for an inner stage,
    /// so a supplementary summary that adds no new bits does not trigger a
    /// redundant re-broadcast.
    bloom_sent: Option<(Vec<u64>, u8)>,
    /// Combined filter received (stage-0 Bloom join phase 2).
    combined_bloom: Option<BloomFilter>,
    /// Join-site summary of intermediate keys (inner-stage Bloom semi-join).
    inner_summary: Option<InnerSummary>,
    /// This node already rehashed the stage's right relation — filtered
    /// through a combined filter or via the hold-down fallback, whichever
    /// fired first.
    phase2_done: bool,
    /// Scan-site rows pruned by an inner-stage combined filter, kept so a
    /// refreshed filter (late intermediate keys reopen the handshake) can
    /// re-test and ship them.
    held_rows: Vec<Tuple>,
}

/// Windowed aggregates, root side.
#[derive(Default)]
struct WindowState {
    /// Per-window merged group states (each finalized epoch's accumulator
    /// folded into every window covering it).
    acc: HashMap<u64, GroupAggregator>,
    /// Max per-epoch contributor count folded into each window ("responding
    /// nodes" over the window).
    contrib: HashMap<u64, u64>,
    /// Highest epoch this root has finalized — the window-close watermark.
    watermark: Option<u64>,
    /// Windows at or above `closed_below` already closed and reported.
    /// Under [`WindowLatePolicy::Patch`] late data re-opens them transiently
    /// (the corrected window is re-emitted); under `Drop` it is discarded.
    closed: BTreeSet<u64>,
    /// Every window below this counts as closed, its state retired.
    closed_below: u64,
}

impl WindowState {
    fn is_closed(&self, w: u64) -> bool {
        w < self.closed_below || self.closed.contains(&w)
    }

    /// Forget closed windows more than [`WINDOW_PATCH_RETAIN`] slides
    /// behind the newest close: late data for them is dropped either way.
    fn retire(&mut self) {
        let Some(&newest) = self.closed.last() else { return };
        let below = newest.saturating_sub(WINDOW_PATCH_RETAIN);
        if below <= self.closed_below {
            return;
        }
        self.closed_below = below;
        self.closed = self.closed.split_off(&below);
        self.acc.retain(|&w, _| w >= below);
        self.contrib.retain(|&w, _| w >= below);
    }
}

/// The vectorized pipeline for one query: every `Expr` the per-epoch hot
/// loops evaluate, compiled to a [`Kernel`] exactly once per (node, spec).
/// Re-planning invalidates the cache — the next epoch recompiles from the
/// swapped spec.
#[derive(Debug, Default)]
struct CompiledKernels {
    /// The scan predicate: `Select`/`Aggregate` `WHERE`, or a join's
    /// pushed-down left-side filter.
    filter: Option<Kernel>,
    /// `Select` projection kernels.
    project: Vec<Kernel>,
    /// Per join stage: `[left key, right key]` plus the pushed-down
    /// right-side filter.
    stages: Vec<StageKernels>,
}

#[derive(Debug)]
struct StageKernels {
    keys: [Kernel; 2],
    right_filter: Option<Kernel>,
    /// The stage's residual (non-equi) predicate, applied to joined rows.
    post: Option<Kernel>,
}

/// One node's in-progress Bloom summary of the intermediate keys that
/// reached it for an inner join stage (phase 1 of the inner-stage semi-join
/// handshake).
struct InnerSummary {
    filter: BloomFilter,
    /// Last time an intermediate key was folded in (quiescence check).
    last_update: SimTime,
    /// How many times shipping has been postponed for late arrivals.
    extensions: u32,
    /// Sent to the origin; later arrivals no longer make the filter.
    shipped: bool,
}

impl CompiledKernels {
    fn from_spec(spec: &QuerySpec) -> Self {
        match &spec.kind {
            QueryKind::Select { filter, project, .. } => CompiledKernels {
                filter: filter.as_ref().map(Kernel::compile),
                project: Kernel::compile_all(project),
                stages: Vec::new(),
            },
            QueryKind::Aggregate { filter, .. } => CompiledKernels {
                filter: filter.as_ref().map(Kernel::compile),
                ..CompiledKernels::default()
            },
            QueryKind::Join { left_filter, stages, .. } => CompiledKernels {
                filter: left_filter.as_ref().map(Kernel::compile),
                project: Vec::new(),
                stages: stages
                    .iter()
                    .map(|s| StageKernels {
                        keys: [Kernel::compile(&s.left_key), Kernel::compile(&s.right_key)],
                        right_filter: s.right_filter.as_ref().map(Kernel::compile),
                        post: s.post_filter.as_ref().map(Kernel::compile),
                    })
                    .collect(),
            },
            QueryKind::Recursive { .. } => CompiledKernels::default(),
        }
    }

    /// The join-key kernel of one stage side (0 = left, 1 = right).
    fn stage_key(&self, stage: usize, side: u8) -> Option<&Kernel> {
        self.stages.get(stage).map(|s| &s.keys[side as usize])
    }
}

impl RunningQuery {
    fn new(spec: QuerySpec) -> Self {
        RunningQuery {
            spec,
            epoch: 0,
            epochs: BTreeMap::new(),
            retired_below: 0,
            window: None,
            visited: HashSet::new(),
            trace: OpTrace::default(),
            pending_spec: None,
            kernels: None,
            feedback_requested: false,
            feedback_settled: false,
            observed: None,
        }
    }

    /// The live state of `epoch`, created on first touch; `None` once the
    /// epoch is retired.
    fn epoch_mut(&mut self, epoch: u64) -> Option<&mut EpochState> {
        if epoch < self.retired_below {
            return None;
        }
        Some(self.epochs.entry(epoch).or_default())
    }

    fn window_mut(&mut self) -> &mut WindowState {
        self.window.get_or_insert_with(Box::default)
    }
}

/// Results collected at the query origin.
#[derive(Clone, Debug)]
pub struct QueryResults {
    /// The query these results belong to.
    pub spec: QuerySpec,
    rows: BTreeMap<u64, Vec<Tuple>>,
    contributors: BTreeMap<u64, u64>,
}

impl QueryResults {
    fn new(spec: QuerySpec) -> Self {
        QueryResults { spec, rows: BTreeMap::new(), contributors: BTreeMap::new() }
    }

    /// Epochs for which at least one row or an epoch summary arrived.
    pub fn epochs(&self) -> Vec<u64> {
        let mut e: Vec<u64> = self.rows.keys().chain(self.contributors.keys()).copied().collect();
        e.sort_unstable();
        e.dedup();
        e
    }

    /// Raw rows received for an epoch, in arrival order.
    pub fn raw_rows(&self, epoch: u64) -> &[Tuple] {
        self.rows.get(&epoch).map(|v| v.as_slice()).unwrap_or(&[])
    }

    /// Rows for an epoch with the query's ORDER BY / LIMIT applied (for
    /// streaming SELECT/JOIN queries the origin performs the final top-k;
    /// for aggregates over joins the origin finishes the aggregation).
    pub fn rows(&self, epoch: u64) -> Vec<Tuple> {
        let mut rows = self.raw_rows(epoch).to_vec();
        if let QueryKind::Join { aggregate: Some(agg), order_by, limit, .. } = &self.spec.kind {
            if !agg.hierarchical {
                // Raw-row streaming baseline: the matched rows arrived
                // unaggregated; the origin runs the whole GROUP BY here.
                let mut acc = GroupAggregator::new(agg.group_exprs.clone(), agg.aggs.clone());
                for r in &rows {
                    acc.update(r);
                }
                rows = acc.finalize();
            }
            // Hierarchical mode ships finalized aggregate-output rows from
            // the root (pre-projection, hidden aggregates included), so both
            // modes converge here: HAVING (already applied at the root in
            // hierarchical mode, idempotent on its output), re-sort in
            // network-arrival-independent order, limit, then the final
            // projection to the client's column order.
            if let Some(h) = &agg.having {
                rows.retain(|r| h.matches(r));
            }
            if !order_by.is_empty() {
                sort_tuples(&mut rows, order_by);
            }
            if let Some(n) = limit {
                rows.truncate(*n);
            }
            let project = ProjectOp::new(
                agg.final_project.iter().map(|&i| crate::expr::Expr::col(i)).collect(),
            );
            return rows.iter().map(|r| project.apply_one(r)).collect();
        }
        let (order_by, limit) = match &self.spec.kind {
            QueryKind::Select { order_by, limit, .. } | QueryKind::Join { order_by, limit, .. } => {
                (order_by.clone(), *limit)
            }
            // The aggregation root orders/limits before shipping, but rows
            // arrive at the origin in arbitrary network order, so the
            // ordering is re-applied here.  Rows travel *pre-projection*
            // (group columns ++ all aggregates, hidden ones included), which
            // lets the root's sort keys apply directly — ORDER BY an
            // aggregate that is not in the select list still works — and the
            // final projection to the client's column order happens last.
            QueryKind::Aggregate { order_by, limit, final_project, .. } => {
                if !order_by.is_empty() {
                    sort_tuples(&mut rows, order_by);
                }
                if let Some(n) = limit {
                    rows.truncate(*n);
                }
                let project = ProjectOp::new(
                    final_project.iter().map(|&i| crate::expr::Expr::col(i)).collect(),
                );
                return rows.iter().map(|r| project.apply_one(r)).collect();
            }
            _ => (Vec::new(), None),
        };
        if !order_by.is_empty() {
            sort_tuples(&mut rows, &order_by);
        }
        if let Some(n) = limit {
            rows.truncate(n);
        }
        rows
    }

    /// Rows across every epoch (useful for one-shot queries), each epoch with
    /// the query's ordering/projection applied.
    pub fn all_rows(&self) -> Vec<Tuple> {
        self.epochs().into_iter().flat_map(|e| self.rows(e)).collect()
    }

    /// The most recent epoch with data, and its rows.
    pub fn latest(&self) -> Option<(u64, Vec<Tuple>)> {
        self.epochs().last().map(|&e| (e, self.rows(e)))
    }

    /// Number of nodes whose data contributed to an epoch ("responding
    /// nodes"); only reported for aggregation queries.
    pub fn contributors(&self, epoch: u64) -> u64 {
        self.contributors.get(&epoch).copied().unwrap_or(0)
    }
}

/// Identity of one scan delta: table, scan time, window start, and the local
/// store's mutation count (contents can only change through a mutation, so
/// equal keys guarantee equal scan results).
type ScanBatchKey = (String, SimTime, SimTime, u64);

/// A PIER node: DHT + catalog + query engine, hosted on one simulated host.
pub struct PierNode {
    addr: NodeAddr,
    config: PierConfig,
    /// The DHT substrate.
    pub dht: DhtNode<PierPayload>,
    catalog: Catalog,
    queries: HashMap<QueryId, RunningQuery>,
    results: HashMap<QueryId, QueryResults>,
    /// Pending Fetch-Matches probes: DHT get request id -> (query, stage,
    /// epoch, left/intermediate tuple).
    pending_fetch: HashMap<u64, (QueryId, u8, u64, Tuple)>,
    /// Operator input (rehashed join tuples, recursive expansions) that
    /// arrived before this node received the query plan.  PIER stores such
    /// tuples as soft state in the DHT; we buffer them and replay them when
    /// the plan arrives.
    early_arrivals: HashMap<QueryId, Vec<PierPayload>>,
    timer_purposes: HashMap<u64, TimerPurpose>,
    /// Result rows produced during the current engine tick, coalesced per
    /// (query, epoch) and flushed as one `ResultBatch` per destination when
    /// the tick's upcall processing drains (the origin address is derived
    /// from the query id).  First-come order, so flushing preserves the
    /// per-epoch row order the unbatched path would produce.
    pending_results: Vec<((QueryId, u64), Vec<Tuple>)>,
    /// Join-rehash tuples deferred by the time-based flush
    /// (`batch_flush_ticks > 0`), per (query, stage, epoch, side); flushed
    /// with the same cadence as `pending_results`.
    pending_rehash: Vec<(RehashBufKey, Vec<(Value, Tuple)>)>,
    /// Point-to-point payloads (results, partials, statistics gossip) staged
    /// during the current engine tick.  Flushed at every upcall drain —
    /// never deferred across ticks — so staging adds no latency; entries to
    /// the same destination from ≥ 2 distinct streams share one
    /// `DirectBatch` frame (cross-query piggybacking).  Empty whenever
    /// `PierConfig::piggyback` is off.
    pending_direct: Vec<(NodeAddr, DirectStream, PierPayload)>,
    /// Statistics-gossip payloads held for the deferred flush window
    /// (`batch_flush_ticks > 0`): unlike `pending_direct` they may span
    /// ticks, so a gossip round lands in the same flush as the query frames
    /// it can ride.  Empty when the time-based flush is off.
    pending_gossip: Vec<(NodeAddr, PierPayload)>,
    /// Upcall-processing drains since the deferred buffers last flushed.
    ticks_since_flush: u32,
    /// A `BatchFlush` deadline timer is in flight.
    flush_timer_armed: bool,
    plan_cache: PlanCache,
    /// Origin-side trace collection (`EXPLAIN ANALYZE`): number of nodes
    /// that reported plus the merged network-wide trace, per query.
    trace_acc: HashMap<QueryId, (u64, OpTrace)>,
    /// Queries that were stopped, with the trace of those this node ran,
    /// kept so a later `TraceRequest` can still be answered and stragglers
    /// are dropped.  Bounded FIFO ([`MAX_FINISHED_TRACES`]) so a long-lived
    /// node running many short queries does not grow without bound.
    stopped: HashMap<QueryId, Option<OpTrace>>,
    stopped_order: std::collections::VecDeque<QueryId>,
    /// SQL text and the catalog version it was last planned at, for
    /// continuous queries this node originated (mid-flight re-planning).
    origin_sql: HashMap<QueryId, (String, u64)>,
    /// This node's view of the gossiped per-node statistics.
    gossip: GossipView,
    gossip_seq: u64,
    /// Memo of recent scan-delta columnar conversions, keyed on
    /// `(table, now, since, store mutation count)`: concurrent queries
    /// scanning the same table window in the same quiescent store state
    /// share one row-to-column pivot instead of each paying for it.
    scan_batches: Vec<(ScanBatchKey, std::rc::Rc<ColumnarBatch>)>,
    /// Per-table log of what this node's `publish_batch` calls stored, with
    /// each tuple's last publish time (only kept when `PierConfig::renewal`
    /// is on): the input of per-item soft-state renewal.
    publish_log: HashMap<String, Vec<(Tuple, SimTime)>>,
    next_token: u64,
    next_query_seq: u32,
    publish_seq: u64,
    stats: EngineStats,
}

impl PierNode {
    /// Create a PIER node.  `bootstrap` is any existing node of the overlay
    /// (or `None` for the first node).
    pub fn new(addr: NodeAddr, config: PierConfig, bootstrap: Option<NodeAddr>) -> Self {
        let dht = DhtNode::new(addr, config.dht.clone(), bootstrap);
        PierNode {
            addr,
            config,
            dht,
            catalog: Catalog::new(),
            queries: HashMap::new(),
            results: HashMap::new(),
            pending_fetch: HashMap::new(),
            early_arrivals: HashMap::new(),
            timer_purposes: HashMap::new(),
            pending_results: Vec::new(),
            pending_rehash: Vec::new(),
            pending_direct: Vec::new(),
            pending_gossip: Vec::new(),
            ticks_since_flush: 0,
            flush_timer_armed: false,
            plan_cache: PlanCache::new(),
            trace_acc: HashMap::new(),
            stopped: HashMap::new(),
            stopped_order: std::collections::VecDeque::new(),
            origin_sql: HashMap::new(),
            gossip: GossipView::new(),
            gossip_seq: 0,
            scan_batches: Vec::new(),
            publish_log: HashMap::new(),
            next_token: 1_000,
            next_query_seq: 1,
            publish_seq: 0,
            stats: EngineStats::default(),
        }
    }

    /// This node's network address.
    pub fn addr(&self) -> NodeAddr {
        self.addr
    }

    /// The local catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Engine activity counters.
    pub fn stats(&self) -> EngineStats {
        let mut stats = self.stats;
        stats.plan_cache_hits = self.plan_cache.hits();
        stats.plan_cache_misses = self.plan_cache.misses();
        stats.live_epoch_states = self.queries.values().map(|q| q.epochs.len() as u64).sum();
        stats
    }

    /// Record `payload`'s bytes (and batch-ness) in the shipping counters.
    /// Wire-message counts are added separately because a routed batch
    /// submission reports how many messages it actually put on the wire.
    fn note_payload(&mut self, payload: &PierPayload) {
        use pier_simnet::WireSize;
        self.stats.bytes_shipped += payload.wire_size() as u64;
        if matches!(
            payload,
            PierPayload::TupleBatch(_)
                | PierPayload::JoinBatch { .. }
                | PierPayload::ResultBatch { .. }
        ) {
            self.stats.batches_sent += 1;
        }
    }

    /// Record one payload that costs exactly one wire message (direct sends,
    /// unbatched routed sends).
    fn note_send(&mut self, payload: &PierPayload) {
        self.stats.messages_sent += 1;
        self.note_payload(payload);
    }

    /// Like [`note_payload`](Self::note_payload), but also mirrors the bytes
    /// and batch count into the query's execution trace, so `EXPLAIN ANALYZE`
    /// totals reconcile with the engine-wide counters.
    fn note_query_payload(&mut self, id: QueryId, payload: &PierPayload) {
        use pier_simnet::WireSize;
        let bytes = payload.wire_size() as u64;
        let batch = matches!(
            payload,
            PierPayload::TupleBatch(_)
                | PierPayload::JoinBatch { .. }
                | PierPayload::ResultBatch { .. }
        );
        self.stats.bytes_shipped += bytes;
        if batch {
            self.stats.batches_sent += 1;
        }
        if let Some(q) = self.queries.get_mut(&id) {
            q.trace.bytes_shipped += bytes;
            if batch {
                q.trace.batches_sent += 1;
            }
        }
    }

    /// Like [`note_send`](Self::note_send), but query-scoped.
    fn note_query_send(&mut self, id: QueryId, payload: &PierPayload) {
        self.note_query_payload(id, payload);
        self.add_query_msgs(id, 1);
    }

    /// Count wire messages against both the engine-wide counters and the
    /// query's trace.
    fn add_query_msgs(&mut self, id: QueryId, n: u64) {
        self.stats.messages_sent += n;
        if let Some(q) = self.queries.get_mut(&id) {
            q.trace.messages_sent += n;
        }
    }

    /// This node's producer-side execution trace for a query, live or
    /// finished (used by tests and the trace-collection protocol).
    pub fn query_trace(&self, id: QueryId) -> Option<&OpTrace> {
        self.queries.get(&id).map(|q| &q.trace).or_else(|| self.stopped.get(&id)?.as_ref())
    }

    /// Origin-side `EXPLAIN ANALYZE` collection state: how many nodes have
    /// reported so far and the merged network-wide trace.
    pub fn collected_trace(&self, id: QueryId) -> Option<(u64, &OpTrace)> {
        self.trace_acc.get(&id).map(|(n, t)| (*n, t))
    }

    /// Broadcast a trace request for a query this node originated.  Every
    /// node (this one included) answers with its per-operator trace; answers
    /// are merged into [`collected_trace`](Self::collected_trace).  Any
    /// previously collected state for the query is reset first, so repeated
    /// requests do not double-count.
    pub fn request_traces(&mut self, ctx: &mut Ctx<'_>, id: QueryId) {
        self.trace_acc.insert(id, (0, OpTrace::default()));
        self.dht.broadcast(ctx, PierPayload::TraceRequest { query: id });
        self.process_upcalls(ctx);
    }

    /// Number of queries currently installed at this node.
    pub fn active_queries(&self) -> usize {
        self.queries.len()
    }

    /// Join-site build rows (both sides, every stage and live epoch) this
    /// node holds across all its queries.
    pub fn join_build_rows(&self) -> u64 {
        let stages = self.queries.values().flat_map(|q| q.epochs.values()).flat_map(|s| &s.stages);
        stages
            .map(|st| {
                let scalar: usize = st.scalar.iter().flat_map(|t| t.values()).map(Vec::len).sum();
                (scalar + st.build.stored_rows(0) + st.build.stored_rows(1)) as u64
            })
            .sum()
    }

    /// Operator input held for queries whose plan has not reached this node.
    pub fn buffered_early_arrivals(&self) -> usize {
        self.early_arrivals.values().map(Vec::len).sum()
    }

    /// Register a table definition in the local catalog.  Every node that
    /// publishes into or queries a table must agree on its definition; the
    /// test/benchmark harness installs definitions on all nodes.
    pub fn create_table(&mut self, def: TableDef) {
        self.catalog.register(def);
    }

    /// Record cardinality hints for a table in the local catalog; the
    /// physical planner costs distributed join strategies from them.
    pub fn set_table_stats(&mut self, table: &str, stats: crate::catalog::TableStats) {
        self.catalog.set_stats(table, stats);
    }

    /// Results collected at this node for a query it originated.
    pub fn results(&self, id: QueryId) -> Option<&QueryResults> {
        self.results.get(&id)
    }

    /// Ids of the queries this node originated.
    pub fn originated_queries(&self) -> Vec<QueryId> {
        let mut ids: Vec<QueryId> = self.results.keys().copied().collect();
        ids.sort();
        ids
    }

    // ------------------------------------------------------------------
    // Publishing
    // ------------------------------------------------------------------

    /// Publish a tuple into the DHT under its table's partitioning key.
    pub fn publish(
        &mut self,
        ctx: &mut Ctx<'_>,
        table: &str,
        tuple: Tuple,
    ) -> Result<(), PierError> {
        let def = self
            .catalog
            .get(table)
            .ok_or_else(|| PierError::new(format!("unknown table '{table}'")))?
            .clone();
        self.publish_seq += 1;
        let instance = ((self.addr.0 as u64) << 32) | (self.publish_seq & 0xFFFF_FFFF);
        let key = ResourceKey::new(def.name.clone(), def.resource_of(&tuple), instance);
        let payload = PierPayload::Tuple(tuple);
        self.note_payload(&payload);
        let sent = self.dht.put(ctx, key, payload, Some(def.ttl));
        self.stats.messages_sent += sent as u64;
        self.stats.tuples_published += 1;
        self.process_upcalls(ctx);
        Ok(())
    }

    /// Publish many tuples of one table with coalesced wire traffic: tuples
    /// sharing a partitioning value travel (and are stored) as a single
    /// `TupleBatch`, and batches whose first routing hop coincides share one
    /// wire message.  With `batching` disabled this degenerates to per-tuple
    /// puts, which benchmarks use as the baseline.
    pub fn publish_batch(
        &mut self,
        ctx: &mut Ctx<'_>,
        table: &str,
        tuples: Vec<Tuple>,
    ) -> Result<(), PierError> {
        if !self.config.batching {
            for tuple in tuples {
                self.publish(ctx, table, tuple)?;
            }
            return Ok(());
        }
        let def = self
            .catalog
            .get(table)
            .ok_or_else(|| PierError::new(format!("unknown table '{table}'")))?
            .clone();
        let groups = group_by_key(tuples.into_iter().map(|t| (def.resource_of(&t), t)));
        let mut items = Vec::new();
        for (resource, group) in groups {
            for chunk in group.chunks(self.config.batch_max.max(1)) {
                self.publish_seq += 1;
                let instance = ((self.addr.0 as u64) << 32) | (self.publish_seq & 0xFFFF_FFFF);
                let key = ResourceKey::new(def.name.clone(), resource.clone(), instance);
                let payload = if chunk.len() == 1 {
                    PierPayload::Tuple(chunk[0].clone())
                } else {
                    PierPayload::TupleBatch(TupleBlock::new(
                        chunk.to_vec(),
                        self.config.columnar_wire,
                    ))
                };
                self.stats.tuples_published += chunk.len() as u64;
                self.note_payload(&payload);
                if self.config.renewal {
                    let log = self.publish_log.entry(def.name.clone()).or_default();
                    let now = ctx.now();
                    log.extend(chunk.iter().map(|t| (t.clone(), now)));
                }
                items.push((key, payload, Some(def.ttl)));
            }
        }
        let sent = self.dht.put_batch(ctx, items);
        self.stats.messages_sent += sent as u64;
        self.process_upcalls(ctx);
        Ok(())
    }

    /// Soft-state renewal for a table this node publishes into: re-publish
    /// only the logged tuples whose remaining lifetime has fallen below half
    /// the table's TTL, and skip (but keep) the fresh ones.  The blanket
    /// alternative — re-publishing the whole working set every period — pays
    /// full wire cost for tuples nowhere near expiry; per-item ages make the
    /// renewal traffic proportional to what is actually going stale.
    /// Requires [`PierConfig::renewal`]; without it the publish log is empty
    /// and this is a no-op.
    pub fn renew_published(&mut self, ctx: &mut Ctx<'_>, table: &str) -> Result<(), PierError> {
        let def = self
            .catalog
            .get(table)
            .ok_or_else(|| PierError::new(format!("unknown table '{table}'")))?
            .clone();
        let Some(log) = self.publish_log.get_mut(table) else { return Ok(()) };
        let now = ctx.now();
        let half_ttl = def.ttl.as_micros() / 2;
        let mut stale = Vec::new();
        let mut fresh = Vec::new();
        for (tuple, published_at) in log.drain(..) {
            if now.as_micros().saturating_sub(published_at.as_micros()) >= half_ttl {
                stale.push(tuple);
            } else {
                fresh.push((tuple, published_at));
            }
        }
        *log = fresh;
        self.stats.renewal_tuples_skipped += log.len() as u64;
        if stale.is_empty() {
            return Ok(());
        }
        self.stats.renewals_published += stale.len() as u64;
        // Re-publishing re-logs the stale half at `now`, resetting its age.
        self.publish_batch(ctx, table, stale)
    }

    /// Store a tuple locally (no routing).  Monitoring data *about this node*
    /// is published this way: scans still see it, and it expires like any
    /// other soft state, but no network traffic is spent placing it.
    pub fn publish_local(
        &mut self,
        now: SimTime,
        table: &str,
        tuple: Tuple,
    ) -> Result<(), PierError> {
        let def = self
            .catalog
            .get(table)
            .ok_or_else(|| PierError::new(format!("unknown table '{table}'")))?
            .clone();
        self.publish_seq += 1;
        let instance = ((self.addr.0 as u64) << 32) | (self.publish_seq & 0xFFFF_FFFF);
        let key = ResourceKey::new(def.name.clone(), def.resource_of(&tuple), instance);
        self.dht.local_put(now, key, PierPayload::Tuple(tuple), Some(def.ttl));
        self.stats.tuples_published += 1;
        Ok(())
    }

    // ------------------------------------------------------------------
    // Query submission (client API)
    // ------------------------------------------------------------------

    /// Parse, plan, and submit a SQL `SELECT`.  `CREATE TABLE` statements are
    /// applied to the local catalog only and return an error mentioning it.
    pub fn submit_sql(&mut self, ctx: &mut Ctx<'_>, sql: &str) -> Result<QueryId, PierError> {
        // Plan-cache fast path: a hit skips lexing, parsing, binding and
        // optimization entirely.  Only successfully planned SELECTs are ever
        // inserted, so a hit is known to be a SELECT without parsing.
        if let Some(planned) = self.plan_cache.lookup(sql, self.catalog.version()) {
            return self.submit_planned(ctx, sql, planned);
        }
        let stmt = parse(sql).map_err(|e| PierError::new(e.to_string()))?;
        match stmt {
            Statement::Select(sel) => self.submit_select(ctx, sql, &sel),
            Statement::Explain { .. } => Err(PierError::new(
                "EXPLAIN is evaluated locally, not disseminated; use explain_sql \
                 (or PierTestbed::explain_analyze for EXPLAIN ANALYZE)",
            )),
            Statement::CreateTable(_) | Statement::Insert(_) => Err(PierError::new(
                "only SELECT can be submitted as a distributed query; use create_table/publish",
            )),
        }
    }

    /// Plan and submit an already-parsed `SELECT`.  `sql` keys the plan cache
    /// and, for continuous queries, is kept so the origin can re-plan the
    /// query mid-flight when the catalog (typically its gossiped statistics)
    /// changes.  `EXPLAIN ANALYZE` drives this with the inner statement.
    pub fn submit_select(
        &mut self,
        ctx: &mut Ctx<'_>,
        sql: &str,
        stmt: &SelectStmt,
    ) -> Result<QueryId, PierError> {
        let planned = self
            .plan_cache
            .plan_parsed(&self.catalog, sql, stmt)
            .map_err(|e| PierError::new(e.to_string()))?;
        self.submit_planned(ctx, sql, planned)
    }

    fn submit_planned(
        &mut self,
        ctx: &mut Ctx<'_>,
        sql: &str,
        planned: crate::planner::PlannedQuery,
    ) -> Result<QueryId, PierError> {
        let continuous = planned.continuous;
        let id = self.submit(ctx, planned.kind, planned.output_names, continuous)?;
        if continuous.is_some() {
            // Remember the text so epoch boundaries can re-plan it against a
            // changed catalog (mid-flight re-planning).
            self.origin_sql.insert(id, (sql.to_string(), self.catalog.version()));
        }
        Ok(id)
    }

    /// Run the planning pipeline over `EXPLAIN <select>` (or a bare `SELECT`)
    /// against this node's catalog and render each stage's output.  Purely
    /// local: nothing is disseminated.  For `EXPLAIN ANALYZE` this renders
    /// the static stages only — executing the query and collecting the
    /// network-wide trace is the testbed's job
    /// (`PierTestbed::explain_analyze`).
    pub fn explain_sql(&self, sql: &str) -> Result<String, PierError> {
        let stmt = parse(sql).map_err(|e| PierError::new(e.to_string()))?;
        let select = match stmt {
            Statement::Explain { select, .. } => *select,
            Statement::Select(sel) => sel,
            Statement::CreateTable(_) | Statement::Insert(_) => {
                return Err(PierError::new("EXPLAIN supports only SELECT statements"))
            }
        };
        Planner::new(&self.catalog)
            .explain_select(&select)
            .map(|e| e.render())
            .map_err(|e| PierError::new(e.to_string()))
    }

    /// Submit a query built through the algebraic interface.
    pub fn submit(
        &mut self,
        ctx: &mut Ctx<'_>,
        kind: QueryKind,
        output_names: Vec<String>,
        continuous: Option<ContinuousSpec>,
    ) -> Result<QueryId, PierError> {
        let id = QueryId::new(self.addr, self.next_query_seq);
        self.next_query_seq += 1;
        let spec = QuerySpec { id, kind, output_names, continuous };
        self.results.insert(id, QueryResults::new(spec.clone()));
        // Disseminate to every node (including ourselves, which installs it).
        self.dht.broadcast(ctx, PierPayload::Query(Box::new(spec)));
        self.process_upcalls(ctx);
        Ok(id)
    }

    /// Stop a continuous query everywhere.
    pub fn stop_query(&mut self, ctx: &mut Ctx<'_>, id: QueryId) {
        self.dht.broadcast(ctx, PierPayload::StopQuery(id));
        self.process_upcalls(ctx);
    }

    // ------------------------------------------------------------------
    // Timer plumbing
    // ------------------------------------------------------------------

    fn arm_timer(&mut self, ctx: &mut Ctx<'_>, delay: Duration, purpose: TimerPurpose) {
        if let Some((id, epoch)) = purpose.epoch_scope() {
            if let Some(state) = self.queries.get_mut(&id).and_then(|q| q.epoch_mut(epoch)) {
                state.timers += 1;
            }
        }
        let token = self.next_token;
        self.next_token += 1;
        self.timer_purposes.insert(token, purpose);
        ctx.set_timer(delay, token);
    }

    // ------------------------------------------------------------------
    // Epoch-state lifecycle
    // ------------------------------------------------------------------

    /// How long after its end an epoch can still see legitimate activity:
    /// the root's collect delay plus its four 3×hold-down postponements,
    /// plus the inner-stage Bloom fallback deadline.
    fn retire_horizon(&self) -> Duration {
        let c = &self.config;
        c.collect_delay + c.holddown.saturating_mul(12) + c.bloom_fallback_delay
    }

    /// The one place epoch state is freed, run at each epoch boundary:
    /// drop, oldest first, every epoch that ended a retirement horizon ago
    /// and has no engine timer outstanding.  Stops at the first epoch that
    /// must stay, so the retired epochs are always a prefix.
    fn retire(&mut self, id: QueryId, now: SimTime) {
        let horizon = self.retire_horizon();
        let Some(q) = self.queries.get_mut(&id) else { return };
        let Some(c) = q.spec.continuous else { return };
        // Epoch e ends at (e + 1) · period.
        let cutoff =
            now.as_micros().saturating_sub(horizon.as_micros()) / c.period.as_micros().max(1);
        let mut retired = 0;
        while let Some(entry) = q.epochs.first_entry() {
            if *entry.key() >= cutoff || entry.get().timers > 0 {
                break;
            }
            entry.remove();
            retired += 1;
        }
        let blocked = q.epochs.first_key_value().map_or(cutoff, |(&e, _)| e.min(cutoff));
        q.retired_below = q.retired_below.max(blocked);
        if let Some(win) = q.window.as_mut() {
            win.retire();
        }
        q.trace.epochs_retired += retired;
        self.stats.epochs_retired += retired;
    }

    /// Count and drop an arrival for a retired epoch of an installed query.
    fn drop_if_retired(&mut self, id: QueryId, epoch: u64) -> bool {
        let Some(q) = self.queries.get_mut(&id) else { return false };
        if epoch >= q.retired_below {
            return false;
        }
        q.trace.late_epoch_dropped += 1;
        self.stats.late_epoch_dropped += 1;
        true
    }

    // ------------------------------------------------------------------
    // Upcall processing
    // ------------------------------------------------------------------

    fn process_upcalls(&mut self, ctx: &mut Ctx<'_>) {
        loop {
            let mut upcalls = self.dht.take_upcalls();
            if upcalls.is_empty() {
                // The tick has quiesced: ship whatever results it produced
                // (or defer, when the time-based flush allows spanning
                // ticks), then drain anything the flush itself enqueued.
                self.flush_results(ctx);
                upcalls = self.dht.take_upcalls();
                if upcalls.is_empty() {
                    break;
                }
            }
            for up in upcalls {
                match up {
                    Upcall::Broadcast { payload } => self.on_broadcast(ctx, payload),
                    Upcall::Delivered { payload, .. } => self.on_delivered(ctx, payload),
                    Upcall::Direct { payload, .. } => self.on_direct(ctx, payload),
                    Upcall::GetResult { req_id, items, .. } => {
                        self.on_get_result(ctx, req_id, items)
                    }
                    Upcall::NewItem { .. } | Upcall::Joined | Upcall::LookupResult { .. } => {}
                }
            }
        }
    }

    fn on_broadcast(&mut self, ctx: &mut Ctx<'_>, payload: PierPayload) {
        match payload {
            PierPayload::Query(spec) => self.install_query(ctx, *spec),
            PierPayload::StopQuery(id) => {
                // Ship this query's buffered result rows while the trace can
                // still account for them, then keep the trace so a later
                // `EXPLAIN ANALYZE` trace request can still be answered.
                // This must *force* the flush: with `batch_flush_ticks > 0`
                // the tick-drain flush may defer, and a deferred buffer
                // shipped after the query is removed would count
                // bytes/messages the (frozen) trace can no longer mirror —
                // breaking reconciliation.  Per-query, so co-resident
                // queries' deferral windows stay intact.
                self.flush_query(ctx, id);
                let trace = self.queries.remove(&id).map(|q| q.trace);
                match self.stopped.entry(id) {
                    Entry::Occupied(mut e) => {
                        if trace.is_some() {
                            e.insert(trace);
                        }
                    }
                    Entry::Vacant(e) => {
                        e.insert(trace);
                        self.stopped_order.push_back(id);
                        if self.stopped_order.len() > MAX_FINISHED_TRACES {
                            if let Some(oldest) = self.stopped_order.pop_front() {
                                self.stopped.remove(&oldest);
                            }
                        }
                    }
                }
                // Input buffered for a plan that never arrived here will
                // never be replayed now.
                self.early_arrivals.remove(&id);
                self.origin_sql.remove(&id);
            }
            PierPayload::TraceRequest { query } => self.answer_trace_request(ctx, query),
            PierPayload::Bloom { query, stage, epoch, bits, k, combined: true } => {
                if self.drop_if_retired(query, epoch) {
                    return;
                }
                let filter = BloomFilter::from_words(bits, k);
                if stage == 0 {
                    if let Some(state) =
                        self.queries.get_mut(&query).and_then(|q| q.epoch_mut(epoch))
                    {
                        state.stage(0).combined_bloom = Some(filter);
                    }
                    self.run_bloom_phase2(ctx, query, epoch);
                } else {
                    self.run_inner_phase2(ctx, query, stage, epoch, Some(&filter));
                }
            }
            _ => {}
        }
    }

    fn on_delivered(&mut self, ctx: &mut Ctx<'_>, payload: PierPayload) {
        // Operator input can race ahead of query dissemination (a rehashed
        // tuple may reach the join site before the site hears about the
        // query).  Buffer it; install_query replays it.
        let query_of = match &payload {
            PierPayload::JoinTuple { query, .. }
            | PierPayload::JoinBatch { query, .. }
            | PierPayload::Expand { query, .. } => Some(*query),
            _ => None,
        };
        if let Some(id) = query_of {
            if !self.queries.contains_key(&id) {
                if self.stopped.contains_key(&id) {
                    // A straggler of a stopped query (a rehash in flight
                    // when the stop arrived): its plan is never coming.
                    self.stats.stopped_query_dropped += 1;
                    return;
                }
                let buf = self.early_arrivals.entry(id).or_default();
                if buf.len() < 100_000 {
                    buf.push(payload);
                }
                return;
            }
        }
        match payload {
            PierPayload::JoinTuple { query, stage, epoch, side, key, tuple } => {
                self.on_join_tuples(ctx, query, stage, epoch, side, key, vec![tuple])
            }
            PierPayload::JoinBatch { query, stage, epoch, side, key, tuples } => {
                self.on_join_tuples(ctx, query, stage, epoch, side, key, tuples.into_rows())
            }
            PierPayload::Expand { query, vertex, depth } => {
                self.on_expand(ctx, query, vertex, depth)
            }
            _ => {}
        }
    }

    fn on_direct(&mut self, ctx: &mut Ctx<'_>, payload: PierPayload) {
        match payload {
            PierPayload::Partial { query, epoch, groups, contributors } => {
                self.absorb_partials(ctx, query, epoch, groups, contributors, true);
            }
            PierPayload::Result(row) => {
                if let Some(res) = self.results.get_mut(&row.query) {
                    res.rows.entry(row.epoch).or_default().push(row.tuple);
                }
            }
            PierPayload::ResultBatch { query, epoch, rows } => {
                if let Some(res) = self.results.get_mut(&query) {
                    res.rows.entry(epoch).or_default().extend(rows.into_rows());
                }
            }
            PierPayload::EpochDone { query, epoch, contributors } => {
                if let Some(res) = self.results.get_mut(&query) {
                    // One root per query normally (take the max over its
                    // possibly-postponed reports); colocated aggregation has
                    // one root per join site, each reporting disjoint
                    // contributors, so they sum.
                    let colocated = res
                        .spec
                        .kind
                        .join_aggregate()
                        .is_some_and(|a| a.hierarchical && a.colocated);
                    let e = res.contributors.entry(epoch).or_insert(0);
                    if colocated {
                        *e += contributors;
                    } else {
                        *e = (*e).max(contributors);
                    }
                    res.rows.entry(epoch).or_default();
                }
            }
            PierPayload::WindowRetract { query, window } => {
                // A late-data patch is coming: forget the window's previous
                // rows; the corrected rows and a fresh EpochDone follow.
                if let Some(res) = self.results.get_mut(&query) {
                    res.rows.insert(window, Vec::new());
                    res.contributors.remove(&window);
                }
            }
            PierPayload::Bloom { query, stage, epoch, bits, k, combined: false } => {
                self.on_bloom_summary(ctx, query, stage, epoch, bits, k);
            }
            PierPayload::TraceReport { query, trace, .. } => {
                let (reporters, acc) = self.trace_acc.entry(query).or_default();
                *reporters += 1;
                acc.merge(&trace);
            }
            PierPayload::StatsGossip { entries } => {
                let changed = self.gossip.absorb(entries, ctx.now().as_micros());
                if changed {
                    let totals = self.gossip.totals();
                    apply_totals(&mut self.catalog, &totals);
                }
            }
            _ => {}
        }
    }

    /// Answer an `EXPLAIN ANALYZE` trace request: merge locally at the
    /// origin, report directly otherwise.  Observability traffic is *not*
    /// counted in the query-path counters it measures.
    fn answer_trace_request(&mut self, ctx: &mut Ctx<'_>, id: QueryId) {
        let Some(trace) = self.query_trace(id).cloned() else { return };
        if id.origin() == self.addr {
            let (reporters, acc) = self.trace_acc.entry(id).or_default();
            *reporters += 1;
            acc.merge(&trace);
        } else {
            let payload =
                PierPayload::TraceReport { query: id, node: self.addr, trace: Box::new(trace) };
            self.dht.send_direct(ctx, id.origin(), payload);
        }
    }

    // ------------------------------------------------------------------
    // Query installation & epochs
    // ------------------------------------------------------------------

    fn install_query(&mut self, ctx: &mut Ctx<'_>, spec: QuerySpec) {
        let id = spec.id;
        if let Some(q) = self.queries.get_mut(&id) {
            // Re-dissemination of a known query.  If the origin re-planned it
            // (mid-flight adaptivity), stage the new spec; it takes effect at
            // this node's next epoch evaluation so no single node-epoch mixes
            // strategies.  A matching spec clears any staged one — the origin
            // may have reverted a re-plan before this node ever applied it.
            if q.spec.kind != spec.kind {
                q.pending_spec = Some(spec);
            } else {
                q.pending_spec = None;
            }
            return;
        }
        let continuous = spec.continuous;
        let is_recursive_origin =
            matches!(spec.kind, QueryKind::Recursive { .. }) && spec.origin() == self.addr;
        self.queries.insert(id, RunningQuery::new(spec));

        // Replay operator input that arrived before the plan did.
        if let Some(buffered) = self.early_arrivals.remove(&id) {
            for payload in buffered {
                self.on_delivered(ctx, payload);
            }
        }

        // Recursive queries are seeded from the origin only.
        if is_recursive_origin {
            self.seed_recursive(ctx, id);
        }

        self.run_epoch(ctx, id);
        if let Some(c) = continuous {
            let delay = epoch_align_delay(ctx.now(), &c);
            self.arm_timer(ctx, delay, TimerPurpose::Epoch(id));
        }
    }

    /// Execute the local portion of one epoch of a query, first applying any
    /// re-planned spec staged for this epoch boundary.
    fn run_epoch(&mut self, ctx: &mut Ctx<'_>, id: QueryId) {
        let now = ctx.now();
        let (spec, epoch, replanned) = {
            let Some(q) = self.queries.get_mut(&id) else { return };
            let epoch = match &q.spec.continuous {
                Some(c) => continuous_epoch(now, c),
                None => 0,
            };
            let mut replanned = false;
            if let Some(new_spec) = q.pending_spec.take() {
                if new_spec.kind != q.spec.kind {
                    q.trace.replans += 1;
                    q.trace.switches.push(format!(
                        "epoch {epoch}: {} -> {}",
                        strategy_label(&q.spec.kind),
                        strategy_label(&new_spec.kind)
                    ));
                    q.spec = new_spec;
                    q.kernels = None;
                    replanned = true;
                }
            }
            q.trace.epochs_run += 1;
            (q.spec.clone(), epoch, replanned)
        };
        if replanned {
            self.stats.replans += 1;
            // The origin's result bookkeeping mirrors the live spec.
            if let Some(res) = self.results.get_mut(&id) {
                res.spec = spec.clone();
            }
        }
        self.stats.epochs_run += 1;

        let since = scan_since(&spec, now);

        match &spec.kind {
            QueryKind::Select { table, filter, project, .. } => {
                let rows = self.scan_traced(id, table, now, since);
                if self.config.vectorized {
                    // Batch → filter kernel → selection vector → projection
                    // kernels, then one output tuple per surviving row.
                    let Some(kern) = self.query_kernels(id) else { return };
                    let batch = self.batch_for_scan(table, now, since, &rows);
                    let sel = match &kern.filter {
                        Some(k) => k.filter(&batch, &batch.full_selection()),
                        None => batch.full_selection(),
                    };
                    let cols: Vec<crate::column::Column> =
                        kern.project.iter().map(|k| k.eval(&batch, &sel)).collect();
                    for j in 0..sel.len() {
                        let out = Tuple::new(cols.iter().map(|c| c.value_at(j)).collect());
                        self.send_result(ctx, &spec, epoch, out);
                    }
                } else {
                    let filter_op = filter.clone().map(FilterOp::new);
                    let project_op = ProjectOp::new(project.clone());
                    for row in rows {
                        if filter_op.as_ref().map(|f| f.accepts(&row)).unwrap_or(true) {
                            let out = project_op.apply_one(&row);
                            self.send_result(ctx, &spec, epoch, out);
                        }
                    }
                }
            }
            QueryKind::Aggregate { table, filter, group_exprs, aggs, .. } => {
                let rows = self.scan_traced(id, table, now, since);
                let mut agg = GroupAggregator::new(group_exprs.clone(), aggs.clone());
                if self.config.vectorized {
                    let Some(kern) = self.query_kernels(id) else { return };
                    let batch = self.batch_for_scan(table, now, since, &rows);
                    let sel = match &kern.filter {
                        Some(k) => k.filter(&batch, &batch.full_selection()),
                        None => batch.full_selection(),
                    };
                    agg.update_batch(&batch, &sel);
                } else {
                    let filter_op = filter.clone().map(FilterOp::new);
                    for row in rows {
                        if filter_op.as_ref().map(|f| f.accepts(&row)).unwrap_or(true) {
                            agg.update(&row);
                        }
                    }
                }
                let partials = agg.take_partials();
                self.absorb_partials(ctx, id, epoch, partials, 1, false);
            }
            QueryKind::Join { left_table, left_filter, stages, .. } => {
                // Right sides first: every symmetric-hash stage's right
                // relation is scanned and rehashed into that stage's
                // namespace.  Fetch-Matches stages are probed on demand and
                // the (stage-0-only) Bloom stage's right side waits for the
                // combined filter.
                let stages = stages.clone();
                let left_table = left_table.clone();
                let left_filter = left_filter.clone();
                let kern = self.query_kernels(id);
                for (k, stage) in stages.iter().enumerate() {
                    if stage.strategy == JoinStrategy::SymmetricHash {
                        if crate::query::join_side_fed(&stages, k as u8, 1) {
                            // A merge stage: its side 1 is another stage's
                            // streamed output, not a base relation — nothing
                            // to scan here.
                            continue;
                        }
                        if k > 0 && stage.inner_bloom && self.config.inner_bloom {
                            // Inner-stage Bloom semi-join: the right relation
                            // waits for the stage's combined filter (or the
                            // hold-down fallback) instead of rehashing now.
                            let delay = self.config.bloom_fallback_delay;
                            self.arm_timer(
                                ctx,
                                delay,
                                TimerPurpose::BloomFallback(id, k as u8, epoch),
                            );
                            continue;
                        }
                        let rows = self.scan_filtered_traced(
                            id,
                            &stage.right_table,
                            now,
                            since,
                            &stage.right_filter,
                            kern.as_deref().and_then(|c| {
                                c.stages.get(k).and_then(|s| s.right_filter.as_ref())
                            }),
                        );
                        self.rehash_stage(
                            ctx,
                            &spec,
                            k as u8,
                            epoch,
                            1,
                            &stage.right_key,
                            Some(&stage.right_ship_cols),
                            rows,
                        );
                    }
                }
                // Bushy subchain roots: a stage whose left side is its own
                // base-table scan (rather than the previous stage's output)
                // starts a concurrent subchain — scan and feed it exactly
                // like the stage-0 driving side.  The stage-0 Bloom protocol
                // needs two base-table sides and its phase-2 machinery is
                // keyed to stage 0, so the planner never roots a subchain on
                // it; anything unexpected degrades to a symmetric rehash.
                for (k, stage) in stages.iter().enumerate() {
                    let Some(scan) = &stage.left_scan else { continue };
                    let rows =
                        self.scan_filtered_traced(id, &scan.table, now, since, &scan.filter, None);
                    match stage.strategy {
                        JoinStrategy::FetchMatches => {
                            let left_key = stage.left_key.clone();
                            let right_table = stage.right_table.clone();
                            self.probe_stage(
                                ctx,
                                id,
                                k as u8,
                                epoch,
                                &left_key,
                                &right_table,
                                rows,
                            );
                        }
                        _ => {
                            self.rehash_stage(
                                ctx,
                                &spec,
                                k as u8,
                                epoch,
                                0,
                                &stage.left_key,
                                Some(&stage.left_ship_cols),
                                rows,
                            );
                        }
                    }
                }
                // Driving side: the stage-0 left input is a base-table scan.
                let rows = self.scan_filtered_traced(
                    id,
                    &left_table,
                    now,
                    since,
                    &left_filter,
                    kern.as_deref().and_then(|c| c.filter.as_ref()),
                );
                let stage0 = &stages[0];
                match stage0.strategy {
                    JoinStrategy::SymmetricHash => {
                        self.rehash_stage(
                            ctx,
                            &spec,
                            0,
                            epoch,
                            0,
                            &stage0.left_key,
                            Some(&stage0.left_ship_cols),
                            rows,
                        );
                    }
                    JoinStrategy::FetchMatches => {
                        let left_key = stage0.left_key.clone();
                        let right_table = stage0.right_table.clone();
                        self.probe_stage(ctx, id, 0, epoch, &left_key, &right_table, rows);
                    }
                    JoinStrategy::BloomFilter => {
                        // Phase 1: summarize and rehash the left relation;
                        // the right relation waits for the combined filter.
                        let mut bloom =
                            BloomFilter::new(self.clamped_bloom_bits(stage0.bloom_bits), 4);
                        for row in &rows {
                            let key = stage0.left_key.eval(row);
                            if !key.is_null() {
                                bloom.insert(&key);
                            }
                        }
                        self.rehash_stage(
                            ctx,
                            &spec,
                            0,
                            epoch,
                            0,
                            &stage0.left_key,
                            Some(&stage0.left_ship_cols),
                            rows,
                        );
                        let (bits, k) = bloom.to_words();
                        let payload = PierPayload::Bloom {
                            query: id,
                            stage: 0,
                            epoch,
                            bits,
                            k,
                            combined: false,
                        };
                        self.note_query_send(id, &payload);
                        self.dht.send_direct(ctx, spec.origin(), payload);
                    }
                }
                // Hierarchical aggregate over the join: the origin seeds an
                // empty partial for the epoch so the aggregation root always
                // finalizes it — a global aggregate over a matchless epoch
                // still reports its one "empty" row (COUNT = 0), and the
                // epoch's contributor summary reaches the origin.  Nodes
                // with actual matches contribute through the final stage.
                if spec.origin() == self.addr {
                    if let Some(agg) = spec.kind.join_aggregate() {
                        if agg.hierarchical {
                            let contributors = self.first_contribution(id, epoch);
                            self.absorb_partials(ctx, id, epoch, Vec::new(), contributors, false);
                        }
                    }
                }
            }
            QueryKind::Recursive { .. } => {
                // Recursive queries are driven by Expand messages, not scans.
            }
        }
        self.process_upcalls(ctx);
    }

    /// The columnar form of a scan delta, shared across every query that
    /// scans the same `(table, now, since)` window while the local store is
    /// unchanged — with many concurrent monitoring queries over one table
    /// (PIER's target workload), the row-to-column pivot happens once and
    /// the per-query cost is just the kernels.
    fn batch_for_scan(
        &mut self,
        table: &str,
        now: SimTime,
        since: SimTime,
        rows: &[Tuple],
    ) -> std::rc::Rc<ColumnarBatch> {
        const MAX_SCAN_BATCHES: usize = 8;
        let muts = self.dht.store_mutations();
        if let Some((_, batch)) = self
            .scan_batches
            .iter()
            .find(|(k, _)| k.0 == table && k.1 == now && k.2 == since && k.3 == muts)
        {
            return batch.clone();
        }
        let batch = std::rc::Rc::new(ColumnarBatch::from_rows(rows));
        if self.scan_batches.len() >= MAX_SCAN_BATCHES {
            self.scan_batches.remove(0);
        }
        self.scan_batches.push(((table.to_string(), now, since, muts), batch.clone()));
        batch
    }

    fn scan(&mut self, table: &str, now: SimTime, since: SimTime) -> Vec<Tuple> {
        let items = self.dht.lscan_since(table, now, since);
        // A stored item carries one tuple or a same-key batch; scans read
        // through the difference.
        let rows: Vec<Tuple> =
            items.into_iter().flat_map(|(_, payload)| payload.tuples().to_vec()).collect();
        self.stats.tuples_scanned += rows.len() as u64;
        rows
    }

    /// Scan on behalf of a query, mirroring the scanned-tuple count into its
    /// execution trace.
    fn scan_traced(
        &mut self,
        id: QueryId,
        table: &str,
        now: SimTime,
        since: SimTime,
    ) -> Vec<Tuple> {
        let rows = self.scan(table, now, since);
        if let Some(q) = self.queries.get_mut(&id) {
            q.trace.tuples_scanned += rows.len() as u64;
        }
        rows
    }

    /// Scan a table and apply a pushed-down predicate before any tuple is
    /// shipped (the optimizer places per-side join filters here).  The trace
    /// counts the tuples *scanned*, before the filter drops any.  With a
    /// compiled `kernel` for the predicate and vectorization on, the filter
    /// runs as a selection-vector kernel over a columnar batch.
    fn scan_filtered_traced(
        &mut self,
        id: QueryId,
        table: &str,
        now: SimTime,
        since: SimTime,
        filter: &Option<crate::expr::Expr>,
        kernel: Option<&Kernel>,
    ) -> Vec<Tuple> {
        let rows = self.scan_traced(id, table, now, since);
        if rows.is_empty() || filter.is_none() {
            return rows;
        }
        if self.config.vectorized {
            if let Some(k) = kernel {
                let batch = self.batch_for_scan(table, now, since, &rows);
                let sel = k.filter(&batch, &batch.full_selection());
                let mut keep = vec![false; rows.len()];
                for &j in &sel {
                    keep[j as usize] = true;
                }
                return rows
                    .into_iter()
                    .zip(keep)
                    .filter_map(|(r, keep)| keep.then_some(r))
                    .collect();
            }
        }
        let op = FilterOp::new(filter.clone().expect("checked above"));
        rows.into_iter().filter(|r| op.accepts(r)).collect()
    }

    /// The query's compiled kernel pipeline, building it on first use.
    fn query_kernels(&mut self, id: QueryId) -> Option<Rc<CompiledKernels>> {
        let q = self.queries.get_mut(&id)?;
        if q.kernels.is_none() {
            q.kernels = Some(Rc::new(CompiledKernels::from_spec(&q.spec)));
        }
        q.kernels.clone()
    }

    fn send_result(&mut self, ctx: &mut Ctx<'_>, spec: &QuerySpec, epoch: u64, tuple: Tuple) {
        self.stats.results_sent += 1;
        if let Some(q) = self.queries.get_mut(&spec.id) {
            q.trace.results_sent += 1;
            *q.trace.epoch_rows.entry(epoch).or_insert(0) += 1;
        }
        if !self.config.batching {
            let row = ResultRow { query: spec.id, epoch, tuple };
            let payload = PierPayload::Result(row);
            self.note_query_send(spec.id, &payload);
            self.dht.send_direct(ctx, spec.origin(), payload);
            return;
        }
        // Buffer; flush_results ships one message per (origin, query, epoch)
        // when the current engine tick drains (or earlier at batch_max).
        let key = (spec.id, epoch);
        let flush_now = {
            let rows = match self.pending_results.iter_mut().find(|(k, _)| *k == key) {
                Some((_, rows)) => rows,
                None => {
                    self.pending_results.push((key, Vec::new()));
                    &mut self.pending_results.last_mut().expect("just pushed").1
                }
            };
            rows.push(tuple);
            rows.len() >= self.config.batch_max.max(1)
        };
        if flush_now {
            self.force_flush(ctx);
        }
    }

    /// Tick-drain flush: ship the deferred buffers now, unless the
    /// time-based flush (`batch_flush_ticks > 0`) lets them span more
    /// ticks — in which case a hold-down-length deadline timer is armed so
    /// buffered rows cannot starve on a quiescent node.
    fn flush_results(&mut self, ctx: &mut Ctx<'_>) {
        if self.pending_results.is_empty() && self.pending_rehash.is_empty() {
            self.flush_direct(ctx);
            return;
        }
        if self.config.batch_flush_ticks > 0 {
            self.ticks_since_flush += 1;
            if self.ticks_since_flush < self.config.batch_flush_ticks {
                if !self.flush_timer_armed {
                    self.flush_timer_armed = true;
                    let delay = self.config.holddown;
                    self.arm_timer(ctx, delay, TimerPurpose::BatchFlush);
                }
                // Results and rehashes may span ticks, but staged direct
                // sends (partials, gossip) always ship in their own tick.
                self.flush_direct(ctx);
                return;
            }
        }
        self.force_flush(ctx);
    }

    /// Ship every buffered result row (one message per (query, epoch): a
    /// plain `Result` for a single row, a `ResultBatch` otherwise) and every
    /// deferred intermediate rehash buffer.
    fn force_flush(&mut self, ctx: &mut Ctx<'_>) {
        self.ticks_since_flush = 0;
        // Gossip held over the deferral window ships with this flush, merging
        // into the same destination frames as the query traffic below.
        for (peer, payload) in std::mem::take(&mut self.pending_gossip) {
            self.pending_direct.push((peer, DirectStream::Gossip, payload));
        }
        let results = std::mem::take(&mut self.pending_results);
        let rehashes = std::mem::take(&mut self.pending_rehash);
        self.ship_deferred(ctx, results, rehashes);
    }

    /// Ship only `id`'s deferred buffers, leaving other queries' deferral
    /// windows intact (a StopQuery must flush the dying query's buffers
    /// while its trace can still account for them, but co-resident queries
    /// keep coalescing).
    fn flush_query(&mut self, ctx: &mut Ctx<'_>, id: QueryId) {
        let (results, rest): (Vec<_>, Vec<_>) =
            std::mem::take(&mut self.pending_results).into_iter().partition(|((q, _), _)| *q == id);
        self.pending_results = rest;
        let (rehashes, rest): (Vec<_>, Vec<_>) = std::mem::take(&mut self.pending_rehash)
            .into_iter()
            .partition(|((q, _, _, _), _)| *q == id);
        self.pending_rehash = rest;
        self.ship_deferred(ctx, results, rehashes);
    }

    fn ship_deferred(
        &mut self,
        ctx: &mut Ctx<'_>,
        results: Vec<((QueryId, u64), Vec<Tuple>)>,
        rehashes: Vec<(RehashBufKey, Vec<(Value, Tuple)>)>,
    ) {
        for ((query, epoch), mut rows) in results {
            let origin = query.origin();
            let payload = if rows.len() == 1 {
                PierPayload::Result(ResultRow {
                    query,
                    epoch,
                    tuple: rows.pop().expect("len checked"),
                })
            } else {
                PierPayload::ResultBatch {
                    query,
                    epoch,
                    rows: TupleBlock::new(rows, self.config.columnar_wire),
                }
            };
            if self.config.piggyback {
                self.note_query_payload(query, &payload);
                self.pending_direct.push((origin, DirectStream::Query(query), payload));
            } else {
                self.note_query_send(query, &payload);
                self.dht.send_direct(ctx, origin, payload);
            }
        }
        // Results ship before rehashes, as the unbatched paths would.
        self.flush_direct(ctx);
        let multi_query =
            rehashes.iter().map(|((q, _, _, _), _)| *q).collect::<HashSet<_>>().len() >= 2;
        if self.config.piggyback && multi_query {
            self.ship_rehash_merged(ctx, rehashes);
        } else {
            for ((query, stage, epoch, side), pairs) in rehashes {
                let namespace = join_namespace(query, stage);
                self.send_rehash(ctx, query, stage, epoch, side, namespace, pairs);
            }
        }
    }

    /// Drain the staged point-to-point payloads.  Per destination (in
    /// staging order): a run from a single accounting stream replays the
    /// exact unstaged sends; payloads from ≥ 2 distinct streams merge into
    /// one `DirectBatch` frame, charged to the first query stream aboard
    /// (or the engine stream if no query rides) — every other payload is
    /// counted as piggybacked.
    fn flush_direct(&mut self, ctx: &mut Ctx<'_>) {
        if self.pending_direct.is_empty() {
            return;
        }
        let staged = std::mem::take(&mut self.pending_direct);
        let groups = group_by_key(
            staged.into_iter().map(|(dest, stream, payload)| (dest, (stream, payload))),
        );
        for (dest, entries) in groups {
            let distinct = {
                let mut streams: Vec<DirectStream> = entries.iter().map(|(s, _)| *s).collect();
                streams.sort_unstable();
                streams.dedup();
                streams.len()
            };
            if distinct < 2 {
                for (stream, payload) in entries {
                    match stream {
                        DirectStream::Query(q) => self.add_query_msgs(q, 1),
                        DirectStream::Engine => self.stats.messages_sent += 1,
                        DirectStream::Gossip => {}
                    }
                    self.dht.send_direct(ctx, dest, payload);
                }
                continue;
            }
            self.stats.shared_frames += 1;
            let charged = entries
                .iter()
                .position(|(s, _)| matches!(s, DirectStream::Query(_)))
                .or_else(|| entries.iter().position(|(s, _)| matches!(s, DirectStream::Engine)));
            match charged.map(|i| entries[i].0) {
                Some(DirectStream::Query(q)) => self.add_query_msgs(q, 1),
                Some(DirectStream::Engine) => self.stats.messages_sent += 1,
                _ => {}
            }
            for (i, (stream, _)) in entries.iter().enumerate() {
                if Some(i) == charged {
                    continue;
                }
                self.stats.piggybacked_payloads += 1;
                if let DirectStream::Query(q) = stream {
                    if let Some(rq) = self.queries.get_mut(q) {
                        rq.trace.piggybacked_payloads += 1;
                    }
                }
            }
            let payloads: Vec<PierPayload> = entries.into_iter().map(|(_, p)| p).collect();
            self.dht.send_direct_batch(ctx, dest, payloads);
        }
    }

    /// Ship deferred intermediate rehashes from several queries through one
    /// `send_to_key_batch` call, so tuples bound for the same next hop share
    /// a `RouteBatch` frame across query boundaries.  Mirrors the DHT's
    /// next-hop grouping ([`DhtNode::route_next_hop`]) to attribute each
    /// predicted frame: the first payload's query pays for it, co-riding
    /// payloads from other queries count as piggybacked.
    fn ship_rehash_merged(
        &mut self,
        ctx: &mut Ctx<'_>,
        rehashes: Vec<(RehashBufKey, Vec<(Value, Tuple)>)>,
    ) {
        let mut items: Vec<(ResourceKey, PierPayload)> = Vec::new();
        let mut owners: Vec<(QueryId, u8, u8)> = Vec::new();
        for ((query, stage, epoch, side), pairs) in rehashes {
            let namespace = join_namespace(query, stage);
            let mut shipped = 0u64;
            for (key, group) in group_by_key(pairs) {
                let resource = ResourceKey::singleton(&namespace, key.partition_string());
                for chunk in group.chunks(self.config.batch_max.max(1)) {
                    self.stats.join_tuples_sent += chunk.len() as u64;
                    shipped += chunk.len() as u64;
                    let payload = if chunk.len() == 1 {
                        PierPayload::JoinTuple {
                            query,
                            stage,
                            epoch,
                            side,
                            key: key.clone(),
                            tuple: chunk[0].clone(),
                        }
                    } else {
                        PierPayload::JoinBatch {
                            query,
                            stage,
                            epoch,
                            side,
                            key: key.clone(),
                            tuples: TupleBlock::new(chunk.to_vec(), self.config.columnar_wire),
                        }
                    };
                    self.note_query_payload(query, &payload);
                    items.push((resource.clone(), payload));
                    owners.push((query, stage, side));
                }
            }
            if let Some(q) = self.queries.get_mut(&query) {
                q.trace.tuples_shipped += shipped;
                *q.trace.stage_shipped.entry(stage).or_insert(0) += shipped;
            }
        }
        // Predict the DHT's per-next-hop frame grouping (first-occurrence
        // order, local deliveries free) to attribute messages per query.
        let mut hop_index: HashMap<NodeAddr, usize> = HashMap::new();
        let mut hop_groups: Vec<Vec<usize>> = Vec::new();
        for (i, (resource, _)) in items.iter().enumerate() {
            let Some(peer) = self.dht.route_next_hop(&resource.routing_id()) else {
                continue;
            };
            match hop_index.get(&peer.addr) {
                Some(&g) => hop_groups[g].push(i),
                None => {
                    hop_index.insert(peer.addr, hop_groups.len());
                    hop_groups.push(vec![i]);
                }
            }
        }
        let mut predicted = 0usize;
        for group in &hop_groups {
            predicted += 1;
            let (head_query, head_stage, head_side) = owners[group[0]];
            self.add_query_msgs(head_query, 1);
            if head_side == 1 {
                // The frame is attributed to the head payload's query, so
                // its per-stage rehash-message counter pays for it too.
                if let Some(q) = self.queries.get_mut(&head_query) {
                    *q.trace.stage_rehash_msgs.entry(head_stage).or_insert(0) += 1;
                }
            }
            let mut shared = false;
            for &i in &group[1..] {
                if owners[i].0 != head_query {
                    shared = true;
                    self.stats.piggybacked_payloads += 1;
                    if let Some(q) = self.queries.get_mut(&owners[i].0) {
                        q.trace.piggybacked_payloads += 1;
                    }
                }
            }
            if shared {
                self.stats.shared_frames += 1;
            }
        }
        let sent = self.dht.send_to_key_batch(ctx, items);
        debug_assert_eq!(sent, predicted, "next-hop prediction drifted from route_many");
    }

    // ------------------------------------------------------------------
    // Aggregation (hierarchical, in-network)
    // ------------------------------------------------------------------

    fn agg_root_id(query: QueryId) -> pier_dht::Id {
        ResourceKey::singleton("pier:agg", format!("{query}")).routing_id()
    }

    /// Fold partial states into this node's role for the query: root
    /// accumulator if we are the aggregation root, otherwise the pending
    /// buffer that the hold-down timer will forward.
    fn absorb_partials(
        &mut self,
        ctx: &mut Ctx<'_>,
        id: QueryId,
        epoch: u64,
        groups: Vec<(GroupKey, Vec<AggStateVec>)>,
        contributors: u64,
        from_network: bool,
    ) {
        if !self.queries.contains_key(&id) {
            // This node never received the query plan (e.g. it joined after
            // dissemination).  It cannot combine — it lacks the aggregate
            // specs — but it can still relay the partials toward the root so
            // the data is not lost.
            if from_network {
                if let Some(next) = self.dht.route_next_hop(&Self::agg_root_id(id)) {
                    self.stats.partials_sent += 1;
                    let payload = PierPayload::Partial { query: id, epoch, groups, contributors };
                    if self.config.piggyback {
                        self.note_payload(&payload);
                        self.pending_direct.push((next.addr, DirectStream::Engine, payload));
                    } else {
                        self.note_send(&payload);
                        self.dht.send_direct(ctx, next.addr, payload);
                    }
                }
            }
            return;
        }
        if from_network {
            self.stats.partials_merged += 1;
            if let Some(q) = self.queries.get_mut(&id) {
                q.trace.partials_merged += 1;
            }
        }
        // Colocated join aggregation: the grouping column *is* the final
        // stage's join key, so the DHT already partitioned each group wholly
        // onto one join site.  Every site acts as the aggregation root for
        // its own groups — finalizing in place and skipping the partial
        // climb entirely (aggregate-aware stage keys).
        let is_root = self.dht.route_next_hop(&Self::agg_root_id(id)).is_none()
            || self.queries[&id]
                .spec
                .kind
                .join_aggregate()
                .is_some_and(|a| a.hierarchical && a.colocated);

        // Partials for a retired epoch are dropped, except at a windowed
        // root: there the late-data policy decides per covering window.
        let windowed = self.queries[&id].spec.kind.window_spec().is_some();
        if !(is_root && windowed) && self.drop_if_retired(id, epoch) {
            return;
        }

        let Some((group_exprs, aggs)) =
            self.queries[&id].spec.kind.partial_agg_parts().map(|(g, a)| (g.to_vec(), a.to_vec()))
        else {
            return;
        };

        let mut arm_finalize = false;
        let mut arm_holddown = false;
        let mut reemit: Vec<u64> = Vec::new();
        {
            let q = self.queries.get_mut(&id).expect("query checked above");
            let finalized = q.epochs.get(&epoch).is_some_and(|s| s.finalized);
            if is_root && (epoch < q.retired_below || finalized) {
                // The epoch was already finalized and reported.  For plain
                // continuous queries late partials are dropped (best-effort
                // soft state, as in PIER); for windowed queries lateness is
                // judged per covering window and the configured policy
                // decides what happens to already-closed ones.
                let Some(wspec) = q.spec.kind.window_spec() else { return };
                let policy = self.config.window_late_policy;
                let mut dropped = false;
                let win = q.window_mut();
                for w in wspec.windows_of(epoch) {
                    if win.is_closed(w) {
                        match (policy, win.acc.get_mut(&w)) {
                            (WindowLatePolicy::Patch, Some(acc)) => {
                                for (key, states) in &groups {
                                    acc.merge_group(key.clone(), states);
                                }
                                // The late subtree never made it into the
                                // epoch's contributor total, so add it here.
                                *win.contrib.entry(w).or_insert(0) += contributors;
                                reemit.push(w);
                            }
                            // Drop policy, or Patch past its retention
                            // horizon: the window's state is gone.
                            _ => dropped = true,
                        }
                    } else {
                        // The window is still open — the data is not late
                        // for *it*.  Fold it in; the window reports it when
                        // the watermark closes it.
                        let acc = win.acc.entry(w).or_insert_with(|| {
                            GroupAggregator::new(group_exprs.clone(), aggs.clone())
                        });
                        for (key, states) in &groups {
                            acc.merge_group(key.clone(), states);
                        }
                        *win.contrib.entry(w).or_insert(0) += contributors;
                    }
                }
                if dropped {
                    self.stats.window_late_dropped += 1;
                    q.trace.window_late_dropped += 1;
                }
                for _ in &reemit {
                    self.stats.window_late_patched += 1;
                    q.trace.window_late_patched += 1;
                }
                for w in reemit {
                    self.emit_window(ctx, id, w, true);
                }
                return;
            }
            let state = q.epoch_mut(epoch).expect("retired epochs returned above");
            if is_root {
                let acc = state
                    .root_acc
                    .get_or_insert_with(|| Box::new(GroupAggregator::new(group_exprs, aggs)));
                for (key, states) in groups {
                    acc.merge_group(key, &states);
                }
                state.root_contrib += contributors;
                state.root_last_update = Some(ctx.now());
                arm_finalize = !std::mem::replace(&mut state.finalize_armed, true);
            } else {
                let buf = state
                    .pending
                    .get_or_insert_with(|| Box::new(GroupAggregator::new(group_exprs, aggs)));
                for (key, states) in groups {
                    buf.merge_group(key, &states);
                }
                state.pending_contrib += contributors;
                arm_holddown = !std::mem::replace(&mut state.holddown_armed, true);
            }
        }
        if arm_finalize {
            let delay = self.config.collect_delay;
            self.arm_timer(ctx, delay, TimerPurpose::RootFinalize(id, epoch));
        }
        if arm_holddown {
            let delay = self.config.holddown;
            self.arm_timer(ctx, delay, TimerPurpose::Holddown(id, epoch));
        }
    }

    /// 1 the first time this node contributes to (query, epoch) as an
    /// aggregation input, 0 afterwards.
    fn first_contribution(&mut self, id: QueryId, epoch: u64) -> u64 {
        let state = self.queries.get_mut(&id).and_then(|q| q.epoch_mut(epoch));
        state.map_or(0, |s| u64::from(!std::mem::replace(&mut s.agg_contributed, true)))
    }

    /// Ship the buffered partials for (query, epoch) one hop closer to the root.
    fn forward_partials(&mut self, ctx: &mut Ctx<'_>, id: QueryId, epoch: u64) {
        let Some(q) = self.queries.get_mut(&id) else { return };
        let Some(state) = q.epochs.get_mut(&epoch) else { return };
        state.holddown_armed = false;
        let Some(mut buf) = state.pending.take() else { return };
        let contributors = std::mem::take(&mut state.pending_contrib);
        let groups = buf.take_partials();
        if groups.is_empty() && contributors == 0 {
            return;
        }
        match self.dht.route_next_hop(&Self::agg_root_id(id)).map(|p| p.addr) {
            Some(next) if next != self.addr => {
                self.stats.partials_sent += 1;
                if let Some(q) = self.queries.get_mut(&id) {
                    q.trace.partials_sent += 1;
                }
                let payload = PierPayload::Partial { query: id, epoch, groups, contributors };
                if self.config.piggyback {
                    self.note_query_payload(id, &payload);
                    self.pending_direct.push((next, DirectStream::Query(id), payload));
                } else {
                    self.note_query_send(id, &payload);
                    self.dht.send_direct(ctx, next, payload);
                }
            }
            _ => {
                // We became the root in the meantime: absorb locally.
                self.absorb_partials(ctx, id, epoch, groups, contributors, false);
            }
        }
    }

    /// Finalize an epoch at the aggregation root and ship the result rows.
    fn finalize_epoch(&mut self, ctx: &mut Ctx<'_>, id: QueryId, epoch: u64) {
        // Quiescence check: if partials are still trickling in, postpone the
        // finalization a few times so slow subtrees are not cut off.
        let holddown = self.config.holddown;
        let Some(q) = self.queries.get_mut(&id) else { return };
        let Some(state) = q.epochs.get_mut(&epoch) else { return };
        let recently = state
            .root_last_update
            .is_some_and(|t| ctx.now().saturating_since(t) < holddown.saturating_mul(3));
        if recently && state.root_extensions < 4 {
            state.root_extensions += 1;
            self.arm_timer(ctx, holddown.saturating_mul(3), TimerPurpose::RootFinalize(id, epoch));
            return;
        }
        state.finalize_armed = false;
        state.finalized = true;
        let Some(acc) = state.root_acc.take() else { return };
        let contributors = std::mem::take(&mut state.root_contrib);
        let spec = q.spec.clone();

        if let Some(wspec) = spec.kind.window_spec() {
            // Windowed aggregate: the epoch's merged state is not reported
            // on its own — it is folded into every window covering it, and
            // whole windows are reported when the watermark closes them.
            self.fold_epoch_into_windows(ctx, id, epoch, *acc, contributors, wspec);
            return;
        }

        // Both aggregation shapes finalize here: the classic single-table
        // aggregate, and the hierarchical aggregate terminating a join.
        let (having, order_by, limit) = match &spec.kind {
            QueryKind::Aggregate { having, order_by, limit, .. } => (having, order_by, limit),
            QueryKind::Join { aggregate: Some(agg), order_by, limit, .. } => {
                (&agg.having, order_by, limit)
            }
            _ => return,
        };

        let mut rows = acc.finalize();
        if let Some(h) = having {
            rows.retain(|r| h.matches(r));
        }
        if !order_by.is_empty() || limit.is_some() {
            let mut topk = TopK::new(order_by.clone(), limit.unwrap_or(usize::MAX));
            for r in rows {
                topk.push(r);
            }
            rows = topk.finish();
        }
        // Rows ship pre-projection (hidden aggregates included) so the
        // origin can re-sort on any ORDER BY key; it projects afterwards.
        for row in rows {
            self.send_result(ctx, &spec, epoch, row);
        }
        let done = PierPayload::EpochDone { query: id, epoch, contributors };
        self.note_query_send(id, &done);
        self.dht.send_direct(ctx, spec.origin(), done);
        self.process_upcalls(ctx);
    }

    /// Fold one finalized epoch's root accumulator into every window
    /// covering it, advance the watermark, and close (report) every window
    /// the watermark has passed.
    fn fold_epoch_into_windows(
        &mut self,
        ctx: &mut Ctx<'_>,
        id: QueryId,
        epoch: u64,
        acc: GroupAggregator,
        contributors: u64,
        wspec: crate::query::WindowSpec,
    ) {
        let to_close = {
            let Some(q) = self.queries.get_mut(&id) else { return };
            let win = q.window_mut();
            for w in wspec.windows_of(epoch) {
                if win.is_closed(w) {
                    // A straggler epoch whose windows all reported already;
                    // the late-partial path owns that case.
                    continue;
                }
                match win.acc.get_mut(&w) {
                    Some(wa) => wa.merge(&acc),
                    None => {
                        win.acc.insert(w, acc.clone());
                    }
                }
                // "Responding nodes" for a window: the best (largest)
                // epoch-level turnout among the epochs it covers.
                let c = win.contrib.entry(w).or_insert(0);
                *c = (*c).max(contributors);
            }
            let watermark = win.watermark.map_or(epoch, |m| m.max(epoch));
            win.watermark = Some(watermark);
            let mut close: Vec<u64> = win
                .acc
                .keys()
                .copied()
                .filter(|&w| wspec.closing_epoch(w) <= watermark && !win.is_closed(w))
                .collect();
            close.sort_unstable();
            close
        };
        for w in to_close {
            self.emit_window(ctx, id, w, false);
        }
    }

    /// Close one window at the aggregation root: finalize its merged state,
    /// apply HAVING / ORDER BY / LIMIT, ship the rows (tagged with the
    /// window id in the `epoch` slot of every result payload) plus an
    /// `EpochDone`, and publish alert tuples if the query has a `HAVING`
    /// trigger.  `reemit` marks a late-data correction under
    /// [`WindowLatePolicy::Patch`]: a [`PierPayload::WindowRetract`]
    /// precedes the corrected rows so the origin replaces, not appends.
    fn emit_window(&mut self, ctx: &mut Ctx<'_>, id: QueryId, window: u64, reemit: bool) {
        let retain = self.config.window_late_policy == WindowLatePolicy::Patch;
        let (spec, mut rows, contributors) = {
            let Some(q) = self.queries.get_mut(&id) else { return };
            let win = q.window_mut();
            let Some(acc) = win.acc.get(&window) else { return };
            let rows = acc.finalize();
            let contributors = win.contrib.get(&window).copied().unwrap_or(0);
            win.closed.insert(window);
            if retain {
                // Keep a bounded horizon of closed-window state so late
                // partials can patch recent windows; anything older is
                // freed (and further late data for it degrades to Drop).
                let cutoff = window.saturating_sub(WINDOW_PATCH_RETAIN);
                let closed = &win.closed;
                win.acc.retain(|w, _| *w >= cutoff || !closed.contains(w));
                win.contrib.retain(|w, _| *w >= cutoff || !closed.contains(w));
            } else {
                win.acc.remove(&window);
                win.contrib.remove(&window);
            }
            if !reemit {
                q.trace.windows_closed += 1;
            }
            (q.spec.clone(), rows, contributors)
        };
        if !reemit {
            self.stats.windows_closed += 1;
        }

        let (having, order_by, limit) = match &spec.kind {
            QueryKind::Aggregate { having, order_by, limit, .. } => (having, order_by, limit),
            QueryKind::Join { aggregate: Some(agg), order_by, limit, .. } => {
                (&agg.having, order_by, limit)
            }
            _ => return,
        };
        if let Some(h) = having {
            rows.retain(|r| h.matches(r));
        }
        // Trigger form: every row surviving HAVING is an alert for this
        // window, captured before ORDER BY / LIMIT trim the report.
        let alert_rows = if having.is_some() { rows.clone() } else { Vec::new() };
        if !order_by.is_empty() || limit.is_some() {
            let mut topk = TopK::new(order_by.clone(), limit.unwrap_or(usize::MAX));
            for r in rows {
                topk.push(r);
            }
            rows = topk.finish();
        }

        if reemit {
            let retract = PierPayload::WindowRetract { query: id, window };
            self.note_query_send(id, &retract);
            self.dht.send_direct(ctx, spec.origin(), retract);
        }
        for row in rows {
            self.send_result(ctx, &spec, window, row);
        }
        let done = PierPayload::EpochDone { query: id, epoch: window, contributors };
        self.note_query_send(id, &done);
        self.dht.send_direct(ctx, spec.origin(), done);
        if !alert_rows.is_empty() {
            self.publish_alerts(ctx, &spec, window, alert_rows);
        }
        self.process_upcalls(ctx);
    }

    /// Publish one closed window's qualifying rows as alert tuples into the
    /// query's [`alert namespace`](PierNode::alert_namespace).  Keys are
    /// deterministic per (window, group), so a patched re-emission
    /// overwrites the stale alert instead of duplicating it.
    fn publish_alerts(
        &mut self,
        ctx: &mut Ctx<'_>,
        spec: &QuerySpec,
        window: u64,
        rows: Vec<Tuple>,
    ) {
        let (group_len, final_project) = match &spec.kind {
            QueryKind::Aggregate { group_exprs, final_project, .. } => {
                (group_exprs.len(), final_project.clone())
            }
            QueryKind::Join { aggregate: Some(agg), .. } => {
                (agg.group_exprs.len(), agg.final_project.clone())
            }
            _ => return,
        };
        let namespace = Self::alert_namespace(spec.id);
        // Alerts live several windows, then expire like any soft state.
        let ttl = spec
            .continuous
            .map(|c| {
                let wspec =
                    spec.kind.window_spec().unwrap_or(crate::query::WindowSpec::tumbling(1));
                let span = c.period.as_micros().saturating_mul(4 * wspec.size as u64);
                Duration::from_micros(span.max(Duration::from_secs(60).as_micros()))
            })
            .unwrap_or(Duration::from_secs(60));
        let project =
            ProjectOp::new(final_project.iter().map(|&i| crate::expr::Expr::col(i)).collect());
        for row in rows {
            let group_tag: String = row.values()[..group_len.min(row.values().len())]
                .iter()
                .map(|v| v.partition_string())
                .collect::<Vec<_>>()
                .join("\u{1f}");
            let resource = format!("{window}:{group_tag}");
            let projected = project.apply_one(&row);
            let mut values = Vec::with_capacity(projected.values().len() + 1);
            values.push(Value::Int(window as i64));
            values.extend(projected.values().iter().cloned());
            let key = ResourceKey::new(namespace.clone(), resource.clone(), stable_hash(&resource));
            let payload = PierPayload::Tuple(Tuple::new(values));
            self.note_payload(&payload);
            let sent = self.dht.put(ctx, key, payload, Some(ttl));
            self.stats.messages_sent += sent as u64;
            self.stats.alerts_emitted += 1;
            if let Some(q) = self.queries.get_mut(&spec.id) {
                q.trace.alerts_emitted += 1;
            }
        }
    }

    /// The DHT namespace a windowed query's `HAVING` trigger publishes
    /// alert tuples into.  Any node can subscribe by submitting an
    /// algebraic continuous [`QueryKind::Select`] over it; each alert row
    /// is `(window, …the query's select list…)`.
    pub fn alert_namespace(query: QueryId) -> String {
        format!("pier:alert:{query}")
    }

    // ------------------------------------------------------------------
    // Joins
    // ------------------------------------------------------------------

    /// Rehash one side of a join stage into the stage's DHT namespace.  The
    /// join key is evaluated over the full input tuple, then only
    /// `ship_cols` ship (join-side projection pushdown).  With the
    /// time-based flush on (`batch_flush_ticks > 0`), batched rehashes of
    /// every side buffer across engine ticks, so concurrent queries'
    /// rehash traffic meets in one flush window.
    #[allow(clippy::too_many_arguments)]
    fn rehash_stage(
        &mut self,
        ctx: &mut Ctx<'_>,
        spec: &QuerySpec,
        stage: u8,
        epoch: u64,
        side: u8,
        key_expr: &crate::expr::Expr,
        ship_cols: Option<&[usize]>,
        rows: Vec<Tuple>,
    ) {
        let namespace = join_namespace(spec.id, stage);
        let narrow = |row: &Tuple| match ship_cols {
            Some(cols) => row.project(cols),
            None => row.clone(),
        };
        // Vectorized: one kernel evaluation over the whole input batch
        // computes every row's join key (the stage's key kernel is compiled
        // once per spec and cached on the query).
        let keys: Vec<Value> = if self.config.vectorized && rows.len() > 1 {
            let kern = self.query_kernels(spec.id);
            match kern.as_deref().and_then(|c| c.stage_key(stage as usize, side)) {
                Some(k) => {
                    let batch = ColumnarBatch::from_rows(&rows);
                    let col = k.eval(&batch, &batch.full_selection());
                    (0..rows.len()).map(|j| col.value_at(j)).collect()
                }
                None => rows.iter().map(|r| key_expr.eval(r)).collect(),
            }
        } else {
            rows.iter().map(|r| key_expr.eval(r)).collect()
        };
        if !self.config.batching {
            for (row, key) in rows.iter().zip(keys) {
                if key.is_null() {
                    continue;
                }
                self.stats.join_tuples_sent += 1;
                let payload = PierPayload::JoinTuple {
                    query: spec.id,
                    stage,
                    epoch,
                    side,
                    key: key.clone(),
                    tuple: narrow(row),
                };
                self.note_query_payload(spec.id, &payload);
                if let Some(q) = self.queries.get_mut(&spec.id) {
                    q.trace.tuples_shipped += 1;
                    *q.trace.stage_shipped.entry(stage).or_insert(0) += 1;
                }
                let sent = self.dht.send_to_key(
                    ctx,
                    ResourceKey::singleton(namespace.clone(), key.partition_string()),
                    payload,
                );
                self.add_query_msgs(spec.id, sent as u64);
                if side == 1 {
                    if let Some(q) = self.queries.get_mut(&spec.id) {
                        *q.trace.stage_rehash_msgs.entry(stage).or_insert(0) += sent as u64;
                    }
                }
            }
            return;
        }
        let pairs: Vec<(Value, Tuple)> = rows
            .iter()
            .zip(keys)
            .filter_map(|(row, key)| {
                if key.is_null() {
                    return None;
                }
                Some((key, narrow(row)))
            })
            .collect();
        if self.config.batch_flush_ticks > 0 {
            // Buffer across ticks; the shared flush cadence (or the
            // hold-down deadline timer) ships it.
            let bufkey = (spec.id, stage, epoch, side);
            let buf = match self.pending_rehash.iter_mut().find(|(k, _)| *k == bufkey) {
                Some((_, buf)) => buf,
                None => {
                    self.pending_rehash.push((bufkey, Vec::new()));
                    &mut self.pending_rehash.last_mut().expect("just pushed").1
                }
            };
            buf.extend(pairs);
            if buf.len() >= self.config.batch_max.max(1) {
                self.force_flush(ctx);
            }
            return;
        }
        self.send_rehash(ctx, spec.id, stage, epoch, side, namespace, pairs);
    }

    /// Ship pre-keyed rehash tuples: coalesce per join-key value — every
    /// tuple with the same key value travels to the same site, so one
    /// `JoinBatch` per (destination, query, stage, epoch) replaces one
    /// message per tuple.
    #[allow(clippy::too_many_arguments)]
    fn send_rehash(
        &mut self,
        ctx: &mut Ctx<'_>,
        id: QueryId,
        stage: u8,
        epoch: u64,
        side: u8,
        namespace: String,
        pairs: Vec<(Value, Tuple)>,
    ) {
        let groups = group_by_key(pairs);
        let mut items = Vec::new();
        let mut shipped = 0u64;
        for (key, group) in groups {
            let resource = ResourceKey::singleton(namespace.clone(), key.partition_string());
            for chunk in group.chunks(self.config.batch_max.max(1)) {
                self.stats.join_tuples_sent += chunk.len() as u64;
                shipped += chunk.len() as u64;
                let payload = if chunk.len() == 1 {
                    PierPayload::JoinTuple {
                        query: id,
                        stage,
                        epoch,
                        side,
                        key: key.clone(),
                        tuple: chunk[0].clone(),
                    }
                } else {
                    PierPayload::JoinBatch {
                        query: id,
                        stage,
                        epoch,
                        side,
                        key: key.clone(),
                        tuples: TupleBlock::new(chunk.to_vec(), self.config.columnar_wire),
                    }
                };
                self.note_query_payload(id, &payload);
                items.push((resource.clone(), payload));
            }
        }
        if let Some(q) = self.queries.get_mut(&id) {
            q.trace.tuples_shipped += shipped;
            *q.trace.stage_shipped.entry(stage).or_insert(0) += shipped;
        }
        let sent = self.dht.send_to_key_batch(ctx, items);
        self.add_query_msgs(id, sent as u64);
        if side == 1 {
            // Right-relation rehash wire messages per stage: the numerator of
            // the inner-stage Bloom win (`EXPLAIN ANALYZE` renders the rate).
            if let Some(q) = self.queries.get_mut(&id) {
                *q.trace.stage_rehash_msgs.entry(stage).or_insert(0) += sent as u64;
            }
        }
    }

    /// Issue one Fetch-Matches DHT probe per input tuple against a stage's
    /// (join-key-partitioned) right table.  The tuples never leave this
    /// node; probe answers continue in [`on_get_result`](Self::on_get_result).
    #[allow(clippy::too_many_arguments)]
    fn probe_stage(
        &mut self,
        ctx: &mut Ctx<'_>,
        id: QueryId,
        stage: u8,
        epoch: u64,
        left_key: &crate::expr::Expr,
        right_table: &str,
        rows: Vec<Tuple>,
    ) {
        let mut probes = 0u64;
        for row in rows {
            let key = left_key.eval(&row);
            if key.is_null() {
                continue;
            }
            let req = self
                .dht
                .get(ctx, ResourceKey::singleton(right_table.to_string(), key.partition_string()));
            self.pending_fetch.insert(req, (id, stage, epoch, row));
            probes += 1;
        }
        if let Some(q) = self.queries.get_mut(&id) {
            q.trace.probes_sent += probes;
            *q.trace.stage_probes.entry(stage).or_insert(0) += probes;
            // Each probe carries one probing-side row into this stage.
            *q.trace.stage_left_in.entry(stage).or_insert(0) += probes;
        }
        // A probe is a routed request plus its response: two wire messages
        // the engine initiates.  Counting them keeps Fetch-Matches honest in
        // the message counters the cost model optimizes (a probe's
        // FETCH_PROBE_COST is priced against exactly this traffic).
        if probes > 0 {
            self.add_query_msgs(id, probes * 2);
        }
    }

    /// Continue with a stage's matched (post-filtered) concat rows: the
    /// final stage projects and streams results to the origin; inner stages
    /// narrow to their `out_cols` and hand the intermediates to the next
    /// stage — rehashed by that stage's key into its namespace, or probed
    /// directly when the next stage runs Fetch-Matches.
    fn emit_stage_rows(
        &mut self,
        ctx: &mut Ctx<'_>,
        spec: &QuerySpec,
        stage: u8,
        epoch: u64,
        rows: Vec<Tuple>,
    ) {
        let QueryKind::Join { stages, project, aggregate, .. } = &spec.kind else { return };
        self.stats.join_matches += rows.len() as u64;
        if let Some(q) = self.queries.get_mut(&spec.id) {
            q.trace.join_matches += rows.len() as u64;
            *q.trace.stage_matches.entry(stage).or_insert(0) += rows.len() as u64;
        }
        let terminal =
            stages[stage as usize].out_to.is_none() && stage as usize + 1 == stages.len();
        if terminal {
            // An aggregate terminating the chain: fold this node's matched
            // rows into a per-(query, epoch) partial state and hand it to
            // the hierarchical aggregation plane — partials climb toward the
            // aggregation root, combining at every hop, instead of raw rows
            // streaming to the origin.  The raw-row baseline
            // (`hierarchical: false`) falls through to the streaming path
            // below; the origin aggregates there.
            if let Some(agg) = aggregate {
                if agg.hierarchical {
                    if rows.is_empty() {
                        return;
                    }
                    let mut acc = GroupAggregator::new(agg.group_exprs.clone(), agg.aggs.clone());
                    if self.config.vectorized {
                        let batch = ColumnarBatch::from_rows(&rows);
                        acc.update_batch(&batch, &batch.full_selection());
                    } else {
                        for row in &rows {
                            acc.update(row);
                        }
                    }
                    let partials = acc.take_partials();
                    // A node counts itself as a contributor once per epoch,
                    // however many final-stage batches it produces.
                    let contributors = self.first_contribution(spec.id, epoch);
                    self.absorb_partials(ctx, spec.id, epoch, partials, contributors, false);
                    return;
                }
            }
            let project_op = ProjectOp::new(project.clone());
            for row in rows {
                let out = project_op.apply_one(&row);
                self.send_result(ctx, spec, epoch, out);
            }
            return;
        }
        // DAG routing: a stage's output goes where its `out_to` edge points
        // (a bushy subchain tail feeds the merge stage's declared side); the
        // chain default is the next stage's probing side.
        let st = &stages[stage as usize];
        let (tk, tside) = st.out_to.unwrap_or((stage + 1, 0));
        let next = &stages[tk as usize];
        let outs: Vec<Tuple> = rows.iter().map(|r| r.project(&st.out_cols)).collect();
        if tside == 1 {
            // Feeding a merge stage's build side: rehash by the target's
            // right key so both subchains' outputs meet at the same sites.
            let right_key = next.right_key.clone();
            let ship = next.right_ship_cols.clone();
            self.rehash_stage(ctx, spec, tk, epoch, 1, &right_key, Some(&ship), outs);
            return;
        }
        match next.strategy {
            JoinStrategy::FetchMatches => {
                let left_key = next.left_key.clone();
                let right_table = next.right_table.clone();
                self.probe_stage(ctx, spec.id, tk, epoch, &left_key, &right_table, outs);
            }
            _ => {
                let left_key = next.left_key.clone();
                let ship = next.left_ship_cols.clone();
                self.rehash_stage(ctx, spec, tk, epoch, 0, &left_key, Some(&ship), outs);
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn on_join_tuples(
        &mut self,
        ctx: &mut Ctx<'_>,
        id: QueryId,
        stage: u8,
        epoch: u64,
        side: u8,
        key: Value,
        tuples: Vec<Tuple>,
    ) {
        if self.drop_if_retired(id, epoch) {
            return;
        }
        let Some(q) = self.queries.get(&id) else { return };
        let spec = q.spec.clone();
        let Some(st) = spec.kind.join_stages().and_then(|s| s.get(stage as usize)) else {
            return;
        };
        // Tuples produced under a superseded spec (mid-flight re-planning
        // briefly mixes layouts across nodes) may not match this stage's
        // column layout; drop them rather than join garbage.  The same
        // guard applies below to tuples *stored* before this node swapped
        // specs: a swap leaves the epochs already under way as they are,
        // and their build sides go only when the epoch retires.
        let expect = if side == 0 { st.left_ship_cols.len() } else { st.right_ship_cols.len() };
        let other_expect =
            if side == 0 { st.right_ship_cols.len() } else { st.left_ship_cols.len() };
        let tuples: Vec<Tuple> = tuples.into_iter().filter(|t| t.arity() == expect).collect();
        if tuples.is_empty() {
            return;
        }
        // Receiver-side input cardinalities feed the trace-fed cost model:
        // counting here (post arity filter) observes exactly the rows the
        // join consumed, wherever in the DAG they came from.
        if let Some(q) = self.queries.get_mut(&id) {
            let per_side =
                if side == 0 { &mut q.trace.stage_left_in } else { &mut q.trace.stage_right_in };
            *per_side.entry(stage).or_insert(0) += tuples.len() as u64;
        }

        // Inner-stage Bloom phase 1: every intermediate key that reaches
        // this join site makes the stage's summary (the batch shares one
        // key, so this is one filter insertion per delivery).
        if side == 0 && stage > 0 && st.inner_bloom && self.config.inner_bloom {
            let suggested = st.bloom_bits;
            self.note_inner_key(ctx, id, stage, epoch, suggested, &key);
        }

        let outputs: Vec<Tuple> = if self.config.vectorized {
            // Vectorized build/probe: the batch pivots into the stage's
            // columnar build side once, and the probe runs as a single-pass
            // kernel over the other side's stored chunks — no per-row
            // `Value` clones, no per-tuple hash lookups.  Output order
            // matches the scalar path exactly (incoming-major over stored
            // rows in arrival order).
            let kern = self.query_kernels(id);
            let post = kern
                .as_deref()
                .and_then(|c| c.stages.get(stage as usize))
                .and_then(|s| s.post.as_ref());
            let Some(state) = self.queries.get_mut(&id).and_then(|q| q.epoch_mut(epoch)) else {
                return;
            };
            let build = &mut state.stage(stage).build;
            let incoming = build.insert(side as usize, &key, &tuples);
            probe_joined(
                &incoming,
                side,
                build.matches(1 - side as usize, &key),
                other_expect,
                post,
            )
        } else {
            // Scalar reference path: store the whole batch, then probe the
            // other side once per arrival (matches already stored locally
            // pair with every incoming tuple, exactly as a sequence of
            // single-tuple deliveries would).
            let Some(state) = self.queries.get_mut(&id).and_then(|q| q.epoch_mut(epoch)) else {
                return;
            };
            let tables = &mut state.stage(stage).scalar;
            tables[side as usize].entry(key.clone()).or_default().extend(tuples.iter().cloned());
            let matches: Vec<Tuple> =
                tables[1 - side as usize].get(&key).cloned().unwrap_or_default();

            let filter_op = st.post_filter.clone().map(FilterOp::new);
            let mut outputs = Vec::new();
            for tuple in &tuples {
                for m in matches.iter().filter(|m| m.arity() == other_expect) {
                    let joined = if side == 0 { tuple.concat(m) } else { m.concat(tuple) };
                    if filter_op.as_ref().map(|f| f.accepts(&joined)).unwrap_or(true) {
                        outputs.push(joined);
                    }
                }
            }
            outputs
        };
        self.emit_stage_rows(ctx, &spec, stage, epoch, outputs);
        self.process_upcalls(ctx);
    }

    fn on_get_result(
        &mut self,
        ctx: &mut Ctx<'_>,
        req_id: u64,
        items: Vec<(ResourceKey, PierPayload)>,
    ) {
        let Some((id, stage, epoch, left_tuple)) = self.pending_fetch.remove(&req_id) else {
            return;
        };
        if self.drop_if_retired(id, epoch) {
            return;
        }
        let Some(q) = self.queries.get(&id) else { return };
        let spec = q.spec.clone();
        let Some(st) = spec.kind.join_stages().and_then(|s| s.get(stage as usize)) else {
            return;
        };
        let probe_key = st.left_key.eval(&left_tuple);
        let right_filter_op = st.right_filter.clone().map(FilterOp::new);
        let filter_op = st.post_filter.clone().map(FilterOp::new);
        let mut outputs = Vec::new();
        let mut right_in = 0u64;
        for (_, payload) in items {
            for right_tuple in payload.tuples() {
                if !st.right_key.eval(right_tuple).sql_eq(&probe_key) {
                    continue;
                }
                if !right_filter_op.as_ref().map(|f| f.accepts(right_tuple)).unwrap_or(true) {
                    continue;
                }
                right_in += 1;
                let joined = left_tuple.concat(right_tuple);
                if filter_op.as_ref().map(|f| f.accepts(&joined)).unwrap_or(true) {
                    outputs.push(joined);
                }
            }
        }
        if right_in > 0 {
            if let Some(q) = self.queries.get_mut(&id) {
                *q.trace.stage_right_in.entry(stage).or_insert(0) += right_in;
            }
        }
        self.emit_stage_rows(ctx, &spec, stage, epoch, outputs);
        self.process_upcalls(ctx);
    }

    /// Origin side of both Bloom handshakes (stage 0 and inner stages):
    /// union per-node summaries per (stage, epoch) and arm the combine
    /// deadline on the first arrival.
    fn on_bloom_summary(
        &mut self,
        ctx: &mut Ctx<'_>,
        id: QueryId,
        stage: u8,
        epoch: u64,
        bits: Vec<u64>,
        k: u8,
    ) {
        if self.drop_if_retired(id, epoch) {
            return;
        }
        let arm = {
            let Some(state) = self.queries.get_mut(&id).and_then(|q| q.epoch_mut(epoch)) else {
                return;
            };
            let st = state.stage(stage);
            let incoming = BloomFilter::from_words(bits, k);
            match &mut st.bloom {
                Some(b) => b.union(&incoming),
                None => st.bloom = Some(incoming),
            }
            !std::mem::replace(&mut st.bloom_armed, true)
        };
        if arm {
            let delay = self.config.bloom_collect_delay;
            self.arm_timer(ctx, delay, TimerPurpose::BloomPhase2(id, stage, epoch));
        }
    }

    fn broadcast_combined_bloom(&mut self, ctx: &mut Ctx<'_>, id: QueryId, stage: u8, epoch: u64) {
        let Some(state) = self.queries.get_mut(&id).and_then(|q| q.epochs.get_mut(&epoch)) else {
            return;
        };
        let st = state.stage(stage);
        st.bloom_armed = false;
        let (bits, k) = if stage == 0 {
            // Stage 0 summarizes complete local scans, so one broadcast per
            // epoch suffices; consume the collection.
            let Some(filter) = st.bloom.take() else { return };
            filter.to_words()
        } else {
            // Inner stages summarize *streamed* intermediates: keep the
            // collection accumulating so supplementary summaries (late keys
            // reopen a join site's filter) re-broadcast a grown filter, and
            // suppress re-broadcasts that add no new bits.
            let Some(filter) = &st.bloom else { return };
            let words = filter.to_words();
            if st.bloom_sent.as_ref() == Some(&words) {
                return;
            }
            st.bloom_sent = Some(words.clone());
            words
        };
        self.dht.broadcast(
            ctx,
            PierPayload::Bloom { query: id, stage, epoch, bits, k, combined: true },
        );
        self.process_upcalls(ctx);
    }

    /// The per-stage Bloom geometry: a planner suggestion of 0 means "no
    /// statistics", which falls back to the configured default; anything
    /// else is clamped to the configured bounds.
    fn clamped_bloom_bits(&self, suggested: u32) -> usize {
        if suggested == 0 {
            self.config.bloom_bits
        } else {
            (suggested as usize).clamp(self.config.bloom_bits_min, self.config.bloom_bits_max)
        }
    }

    /// Fold one intermediate key into this join site's inner-stage Bloom
    /// summary, creating it (and arming its quiescence timer) on first use.
    fn note_inner_key(
        &mut self,
        ctx: &mut Ctx<'_>,
        id: QueryId,
        stage: u8,
        epoch: u64,
        suggested_bits: u32,
        key: &Value,
    ) {
        if key.is_null() {
            return;
        }
        let now = ctx.now();
        let bits = self.clamped_bloom_bits(suggested_bits);
        let mut arm = false;
        {
            let Some(state) = self.queries.get_mut(&id).and_then(|q| q.epoch_mut(epoch)) else {
                return;
            };
            let entry = state.stage(stage).inner_summary.get_or_insert_with(|| {
                arm = true;
                InnerSummary {
                    filter: BloomFilter::new(bits, 4),
                    last_update: now,
                    extensions: 0,
                    shipped: false,
                }
            });
            if entry.shipped {
                if entry.filter.may_contain(key) {
                    // Already covered (or a false positive, which passes scan
                    // sites anyway); nothing to refresh.
                    return;
                }
                // A key the shipped summary missed: reopen the handshake.
                // The cumulative filter re-ships after a fresh quiescence
                // window, the origin re-broadcasts the grown combination,
                // and scan sites re-test their held rows — so no match is
                // ever lost to summary timing, only delayed.
                entry.shipped = false;
                entry.extensions = 0;
                arm = true;
            }
            entry.filter.insert(key);
            entry.last_update = now;
        }
        if arm {
            let delay = self.config.holddown.saturating_mul(3);
            self.arm_timer(ctx, delay, TimerPurpose::InnerBloomSummary(id, stage, epoch));
        }
    }

    /// Quiescence-gated phase-1 ship of an inner-stage summary: postpone
    /// while intermediates are still arriving, then send the filter to the
    /// origin on the same counters as any query-path payload.
    fn ship_inner_summary(&mut self, ctx: &mut Ctx<'_>, id: QueryId, stage: u8, epoch: u64) {
        let quiet_after = self.config.holddown.saturating_mul(3);
        let shipped = {
            let Some(state) = self.queries.get_mut(&id).and_then(|q| q.epochs.get_mut(&epoch))
            else {
                return;
            };
            let Some(entry) = state.stage(stage).inner_summary.as_mut() else { return };
            if entry.shipped {
                return;
            }
            let quiet = ctx.now().saturating_since(entry.last_update) >= quiet_after;
            if !quiet && entry.extensions < 8 {
                entry.extensions += 1;
                None
            } else {
                entry.shipped = true;
                Some(entry.filter.to_words())
            }
        };
        match shipped {
            None => {
                self.arm_timer(ctx, quiet_after, TimerPurpose::InnerBloomSummary(id, stage, epoch));
            }
            Some((bits, k)) => {
                let origin = id.origin();
                let payload =
                    PierPayload::Bloom { query: id, stage, epoch, bits, k, combined: false };
                self.note_query_send(id, &payload);
                self.dht.send_direct(ctx, origin, payload);
                self.process_upcalls(ctx);
            }
        }
    }

    /// Phase 2 of an inner-stage Bloom semi-join at a right-relation scan
    /// site: rehash the stage's right table, pruned through the combined
    /// filter — or unfiltered when the hold-down deadline fired first
    /// (`filter == None`).  Whichever trigger runs first wins; the other is
    /// a no-op.
    fn run_inner_phase2(
        &mut self,
        ctx: &mut Ctx<'_>,
        id: QueryId,
        stage: u8,
        epoch: u64,
        filter: Option<&BloomFilter>,
    ) {
        let first = {
            let Some(state) = self.queries.get_mut(&id).and_then(|q| q.epoch_mut(epoch)) else {
                return;
            };
            !std::mem::replace(&mut state.stage(stage).phase2_done, true)
        };
        let spec = self.queries[&id].spec.clone();
        let Some(st) = spec.kind.join_stages().and_then(|s| s.get(stage as usize)).cloned() else {
            return;
        };
        // A mid-flight re-plan may have swapped strategies; only a
        // symmetric-hash stage knows how to consume this rehash.
        if st.strategy != JoinStrategy::SymmetricHash {
            return;
        }
        if !first {
            // Refresh: a re-broadcast combined filter (grown by late
            // intermediate keys) re-tests only the rows the previous filter
            // pruned.  A hold-down fallback firing after a completed phase 2
            // is a no-op — held rows were pruned by a filter that only ever
            // grows, so they are not owed to anyone until a refresh passes
            // them.
            let Some(f) = filter else { return };
            let held = self.held_rows(id, epoch, stage).map(std::mem::take).unwrap_or_default();
            if held.is_empty() {
                return;
            }
            let (pass, keep): (Vec<Tuple>, Vec<Tuple>) =
                held.into_iter().partition(|r| f.may_contain(&st.right_key.eval(r)));
            let tested = (pass.len() + keep.len()) as u64;
            self.stats.bloom_tested += tested;
            self.stats.bloom_passed += pass.len() as u64;
            if let Some(q) = self.queries.get_mut(&id) {
                *q.trace.stage_bloom_tested.entry(stage).or_insert(0) += tested;
                *q.trace.stage_bloom_passed.entry(stage).or_insert(0) += pass.len() as u64;
            }
            if let Some(rows) = self.held_rows(id, epoch, stage) {
                *rows = keep;
            }
            if pass.is_empty() {
                return;
            }
            self.rehash_stage(
                ctx,
                &spec,
                stage,
                epoch,
                1,
                &st.right_key,
                Some(&st.right_ship_cols),
                pass,
            );
            self.process_upcalls(ctx);
            return;
        }
        let now = ctx.now();
        let since = scan_since(&spec, now);
        let kern = self.query_kernels(id);
        let rows = self.scan_filtered_traced(
            id,
            &st.right_table,
            now,
            since,
            &st.right_filter,
            kern.as_deref()
                .and_then(|c| c.stages.get(stage as usize).and_then(|s| s.right_filter.as_ref())),
        );
        let survivors: Vec<Tuple> = match filter {
            Some(f) => {
                // Null keys cannot equi-join anywhere; drop them outright.
                // Pruned (non-passing) rows are *held*, not discarded: a
                // refreshed combined filter re-tests them.
                let mut keep = Vec::new();
                let mut held = Vec::new();
                for r in rows {
                    let k = st.right_key.eval(&r);
                    if k.is_null() {
                        continue;
                    }
                    if f.may_contain(&k) {
                        keep.push(r);
                    } else {
                        held.push(r);
                    }
                }
                let tested = (keep.len() + held.len()) as u64;
                let passed = keep.len() as u64;
                self.stats.bloom_tested += tested;
                self.stats.bloom_passed += passed;
                if let Some(q) = self.queries.get_mut(&id) {
                    *q.trace.stage_bloom_tested.entry(stage).or_insert(0) += tested;
                    *q.trace.stage_bloom_passed.entry(stage).or_insert(0) += passed;
                }
                if let Some(rows) = self.held_rows(id, epoch, stage) {
                    *rows = held;
                }
                keep
            }
            None => {
                // Hold-down fallback: the combined filter never arrived in
                // time.  Ship unfiltered — more traffic, identical results.
                self.stats.bloom_fallbacks += 1;
                if let Some(q) = self.queries.get_mut(&id) {
                    q.trace.bloom_fallbacks += 1;
                }
                rows
            }
        };
        self.rehash_stage(
            ctx,
            &spec,
            stage,
            epoch,
            1,
            &st.right_key,
            Some(&st.right_ship_cols),
            survivors,
        );
        self.process_upcalls(ctx);
    }

    /// The inner-stage scan-site rows held back by the combined filter.
    fn held_rows(&mut self, id: QueryId, epoch: u64, stage: u8) -> Option<&mut Vec<Tuple>> {
        let state = self.queries.get_mut(&id)?.epochs.get_mut(&epoch)?;
        Some(&mut state.stage(stage).held_rows)
    }

    fn run_bloom_phase2(&mut self, ctx: &mut Ctx<'_>, id: QueryId, epoch: u64) {
        let Some(q) = self.queries.get(&id) else { return };
        let spec = q.spec.clone();
        // The Bloom protocol only ever runs at stage 0, whose two sides are
        // base tables (later stages' left inputs are streamed intermediates
        // that cannot wait for a filter phase).
        let Some(st) = spec.kind.join_stages().map(|s| s[0].clone()) else { return };
        if st.strategy != JoinStrategy::BloomFilter {
            return;
        }
        let Some(filter) = self
            .queries
            .get_mut(&id)
            .and_then(|q| q.epochs.get_mut(&epoch))
            .and_then(|s| s.stage(0).combined_bloom.clone())
        else {
            return;
        };
        let now = ctx.now();
        let since = scan_since(&spec, now);
        let kern = self.query_kernels(id);
        let rows = self.scan_filtered_traced(
            id,
            &st.right_table,
            now,
            since,
            &st.right_filter,
            kern.as_deref().and_then(|c| c.stages.first().and_then(|s| s.right_filter.as_ref())),
        );
        let mut tested = 0u64;
        let survivors: Vec<Tuple> = rows
            .into_iter()
            .filter(|r| {
                let k = st.right_key.eval(r);
                if k.is_null() {
                    return false;
                }
                tested += 1;
                filter.may_contain(&k)
            })
            .collect();
        self.stats.bloom_tested += tested;
        self.stats.bloom_passed += survivors.len() as u64;
        if let Some(q) = self.queries.get_mut(&id) {
            *q.trace.stage_bloom_tested.entry(0).or_insert(0) += tested;
            *q.trace.stage_bloom_passed.entry(0).or_insert(0) += survivors.len() as u64;
        }
        self.rehash_stage(
            ctx,
            &spec,
            0,
            epoch,
            1,
            &st.right_key,
            Some(&st.right_ship_cols),
            survivors,
        );
        self.process_upcalls(ctx);
    }

    // ------------------------------------------------------------------
    // Automatic statistics & mid-flight re-planning
    // ------------------------------------------------------------------

    /// One anti-entropy round: summarize the live soft state this node stores
    /// for every cataloged table, fold the totals into the local catalog, and
    /// push the whole epoch-stamped view to ring neighbours.
    fn stats_gossip_round(&mut self, ctx: &mut Ctx<'_>) {
        let now = ctx.now();
        let tables: Vec<String> =
            self.catalog.table_names().iter().map(|s| s.to_string()).collect();
        let mut summaries = Vec::with_capacity(tables.len());
        for table in tables {
            let (rows, distinct_keys) =
                self.dht.namespace_summary(&table, now, |p| p.tuples().len() as u64);
            summaries.push(TableSummary { table, rows, distinct_keys });
        }
        // Seed the sequence from virtual time so a restarted node (fresh
        // state, same address) immediately outranks its own pre-crash
        // entries in every peer's view instead of being rejected as stale
        // until its counter catches up.
        self.gossip_seq = self.gossip_seq.max(now.as_micros()) + 1;
        self.gossip.update_self(self.addr, self.gossip_seq, summaries, now.as_micros());
        // Gossip entry expiry: a node whose summaries stopped refreshing for
        // `stats_ttl_intervals` gossip rounds is permanently gone (restarts
        // re-enter with fresher time-seeded sequence numbers) — evict it so
        // it stops inflating the network-wide totals.
        let ttl = self
            .config
            .stats_interval
            .as_micros()
            .saturating_mul(self.config.stats_ttl_intervals as u64);
        self.gossip.expire(now.as_micros(), ttl);
        let totals = self.gossip.totals();
        apply_totals(&mut self.catalog, &totals);

        // Push to the predecessor plus the first `stats_fanout` live
        // successors, so views spread both ways around the ring.
        let mut peers: Vec<NodeAddr> = Vec::new();
        if let Some(p) = self.dht.predecessor() {
            peers.push(p.addr);
        }
        for s in self.dht.successor_list().iter().take(self.config.stats_fanout.max(1)) {
            peers.push(s.addr);
        }
        peers.retain(|&a| a != self.addr);
        // In tiny rings the predecessor reappears in the successor list, and
        // the duplicates are not adjacent: sort before deduplicating.
        peers.sort_unstable_by_key(|a| a.0);
        peers.dedup();
        let entries = self.gossip.wire_entries();
        for peer in peers {
            self.stats.stats_gossip_sent += 1;
            let payload = PierPayload::StatsGossip { entries: entries.clone() };
            if self.config.piggyback {
                if self.config.batching && self.config.batch_flush_ticks > 0 {
                    // Deferred-flush mode: hold the gossip across the same
                    // window the RouteBatch/result buffers span, so it rides
                    // the next forced flush's shared frames instead of
                    // shipping in its own tick.  The deadline timer bounds
                    // how stale a held view can get on a quiescent node.
                    self.pending_gossip.push((peer, payload));
                    self.stats.gossip_deferred += 1;
                    if !self.flush_timer_armed {
                        self.flush_timer_armed = true;
                        let delay = self.config.holddown;
                        self.arm_timer(ctx, delay, TimerPurpose::BatchFlush);
                    }
                } else {
                    // Pending gossip rides whatever query frame shares the
                    // destination at the tick drain — near-zero marginal cost.
                    self.pending_direct.push((peer, DirectStream::Gossip, payload));
                }
            } else {
                self.dht.send_direct(ctx, peer, payload);
            }
        }
        self.process_upcalls(ctx);
    }

    /// Re-plan a continuous SQL query this node originated against the
    /// current catalog.  Called at every epoch boundary; a no-op unless the
    /// catalog version moved since the last planning.  When the cost ranking
    /// flips the physical plan, the updated spec is applied locally (we *are*
    /// at an epoch boundary) and re-disseminated so every other node swaps at
    /// its own next boundary.
    fn maybe_replan(&mut self, ctx: &mut Ctx<'_>, id: QueryId) {
        if !self.config.adaptive {
            return;
        }
        let Some((sql, planned_version)) = self.origin_sql.get(&id).cloned() else { return };
        let version = self.catalog.version();
        if version == planned_version {
            return;
        }
        let Ok(stmt) = parse_select(&sql) else { return };
        // Once the feedback loop has corrected this query, catalog-driven
        // re-plans keep the observed overlay: gossip moving the catalog must
        // not silently revert a trace-corrected order to catalog-only costs.
        let observed = self.queries.get(&id).and_then(|q| q.observed.clone());
        let mut planner = Planner::new(&self.catalog);
        if let Some(obs) = observed.as_ref() {
            planner = planner.observed(obs).allow_bushy();
        }
        let Ok(planned) = planner.plan_select(&stmt) else { return };
        self.origin_sql.insert(id, (sql, version));
        let changed = match self.queries.get_mut(&id) {
            Some(q) if q.spec.kind != planned.kind => {
                q.pending_spec = Some(QuerySpec {
                    id,
                    kind: planned.kind,
                    output_names: planned.output_names,
                    continuous: q.spec.continuous,
                });
                true
            }
            _ => false,
        };
        if changed {
            // The origin applies the staged spec in the epoch evaluation that
            // follows this call; other nodes apply it at their next epoch.
            let spec = self.queries[&id].pending_spec.clone().expect("pending spec staged above");
            self.dht.broadcast(ctx, PierPayload::Query(Box::new(spec)));
            self.process_upcalls(ctx);
        }
    }

    /// One step of the trace-fed feedback loop, run by the origin of a
    /// continuous multi-way join at each epoch boundary (behind
    /// [`PierConfig::feedback`]).  Two phases, one epoch apart: after the
    /// query has run long enough to have meaningful counters, broadcast a
    /// trace request; at the following boundary, fold the merged network-wide
    /// trace into [`ObservedStats`](crate::planner::ObservedStats) and
    /// re-plan with them overriding the catalog estimates.  One-shot per
    /// query: the corrected plan sticks (and later catalog-driven re-plans
    /// keep the overlay via [`PierNode::maybe_replan`]).
    fn feedback_step(&mut self, ctx: &mut Ctx<'_>, id: QueryId) {
        let Some(q) = self.queries.get(&id) else { return };
        if q.feedback_settled || !self.origin_sql.contains_key(&id) {
            return;
        }
        let stages = q.spec.kind.join_stages().map(|s| s.len()).unwrap_or(0);
        if stages < 2 {
            // Single-stage joins have no order to correct.
            return;
        }
        if q.feedback_requested {
            self.feedback_replan(ctx, id);
        } else if q.epoch >= 2 {
            if let Some(q) = self.queries.get_mut(&id) {
                q.feedback_requested = true;
            }
            self.request_traces(ctx, id);
        }
    }

    /// Phase 2 of the feedback loop: turn the collected trace into observed
    /// statistics and re-plan the query with them.  If the corrected costs
    /// change the physical plan, the new spec is staged exactly like a
    /// catalog-driven re-plan (applied at each node's next epoch boundary)
    /// and the plan cache entry for the SQL text is dropped so future
    /// identical submissions re-cost from scratch.
    fn feedback_replan(&mut self, ctx: &mut Ctx<'_>, id: QueryId) {
        let Some((sql, _)) = self.origin_sql.get(&id).cloned() else { return };
        let Some((_, trace)) = self.trace_acc.get(&id) else { return };
        let trace = trace.clone();
        let Some(q) = self.queries.get_mut(&id) else { return };
        q.feedback_requested = false;
        q.feedback_settled = true;
        // The absolute epoch about to be evaluated — the one the corrected
        // spec first applies in at the origin (results are keyed by it).
        let epoch = match &q.spec.continuous {
            Some(c) => continuous_epoch(ctx.now(), c),
            None => 0,
        };
        let obs = fold_observed(&q.spec, q.epoch.max(1), &trace);
        if obs.is_empty() {
            return;
        }
        q.observed = Some(obs.clone());
        let Ok(stmt) = parse_select(&sql) else { return };
        let Ok(planned) =
            Planner::new(&self.catalog).observed(&obs).allow_bushy().plan_select(&stmt)
        else {
            return;
        };
        let version = self.catalog.version();
        self.origin_sql.insert(id, (sql.clone(), version));
        let changed = match self.queries.get_mut(&id) {
            Some(q) if q.spec.kind != planned.kind => {
                let old = strategy_label(&q.spec.kind);
                let new = strategy_label(&planned.kind);
                q.trace
                    .switches
                    .push(format!("epoch {epoch}: feedback: trace-corrected {old} -> {new}"));
                q.pending_spec = Some(QuerySpec {
                    id,
                    kind: planned.kind,
                    output_names: planned.output_names,
                    continuous: q.spec.continuous,
                });
                true
            }
            _ => false,
        };
        if changed {
            // The cached plan was produced from catalog-only estimates the
            // engine now knows to be wrong for this statement.
            self.plan_cache.invalidate(&sql);
            self.stats.feedback_replans += 1;
            let spec = self.queries[&id].pending_spec.clone().expect("pending spec staged above");
            self.dht.broadcast(ctx, PierPayload::Query(Box::new(spec)));
            self.process_upcalls(ctx);
        }
    }

    // ------------------------------------------------------------------
    // Recursive queries
    // ------------------------------------------------------------------

    fn seed_recursive(&mut self, ctx: &mut Ctx<'_>, id: QueryId) {
        let Some(q) = self.queries.get(&id) else { return };
        let QueryKind::Recursive { edges_table, source, .. } = &q.spec.kind else { return };
        let edges_table = edges_table.clone();
        let source = source.clone();
        self.stats.expands_sent += 1;
        if let Some(q) = self.queries.get_mut(&id) {
            q.trace.expands_sent += 1;
        }
        let resource = ResourceKey::singleton(edges_table, source.partition_string());
        let payload = PierPayload::Expand { query: id, vertex: source, depth: 0 };
        self.note_query_payload(id, &payload);
        let sent = self.dht.send_to_key(ctx, resource, payload);
        self.add_query_msgs(id, sent as u64);
        self.process_upcalls(ctx);
    }

    fn on_expand(&mut self, ctx: &mut Ctx<'_>, id: QueryId, vertex: Value, depth: u32) {
        let Some(q) = self.queries.get_mut(&id) else { return };
        let spec = q.spec.clone();
        let QueryKind::Recursive { edges_table, src_col, dst_col, max_depth, .. } = &spec.kind
        else {
            return;
        };
        if !q.visited.insert(vertex.partition_string()) {
            return;
        }
        let now = ctx.now();
        let edges_table = edges_table.clone();
        let edges = self.scan_traced(id, &edges_table, now, SimTime::ZERO);
        let epoch = 0;
        let mut to_expand = Vec::new();
        for edge in edges {
            if !edge.get(*src_col).sql_eq(&vertex) {
                continue;
            }
            let dst = edge.get(*dst_col).clone();
            let row = Tuple::new(vec![vertex.clone(), dst.clone(), Value::Int(depth as i64 + 1)]);
            self.send_result(ctx, &spec, epoch, row);
            if depth + 1 < *max_depth {
                to_expand.push(dst);
            }
        }
        for dst in to_expand {
            self.stats.expands_sent += 1;
            if let Some(q) = self.queries.get_mut(&id) {
                q.trace.expands_sent += 1;
            }
            let resource = ResourceKey::singleton(edges_table.clone(), dst.partition_string());
            let payload = PierPayload::Expand { query: id, vertex: dst, depth: depth + 1 };
            self.note_query_payload(id, &payload);
            let sent = self.dht.send_to_key(ctx, resource, payload);
            self.add_query_msgs(id, sent as u64);
        }
        self.process_upcalls(ctx);
    }
}

/// Alias to keep `absorb_partials`'s signature readable.
type AggStateVec = crate::aggregate::AggState;

/// How many closed windows' worth of state the root retains for late-data
/// patching under [`WindowLatePolicy::Patch`]; late partials for windows
/// older than this many slides behind the newest close degrade to `Drop`.
const WINDOW_PATCH_RETAIN: u64 = 4;

/// Deterministic 64-bit string hash (FNV-1a), used for alert instance keys
/// so a patched re-emission overwrites its predecessor.
fn stable_hash(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// How far back this epoch's local scans reach.  Windowed queries merge
/// per-epoch deltas into window state at the aggregation root, so each epoch
/// scans only what arrived since the previous one; plain continuous queries
/// rescan the whole trailing time window every epoch; one-shot queries scan
/// everything stored.
fn scan_since(spec: &QuerySpec, now: SimTime) -> SimTime {
    match spec.continuous {
        Some(c) if spec.kind.window_spec().is_some() => {
            SimTime::from_micros(now.as_micros().saturating_sub(c.period.as_micros()))
        }
        Some(c) => SimTime::from_micros(now.as_micros().saturating_sub(c.window.as_micros())),
        None => SimTime::ZERO,
    }
}

/// Short label of the part of a spec that re-planning can change, for the
/// trace's switch records.
fn strategy_label(kind: &QueryKind) -> String {
    match kind {
        QueryKind::Join { stages, aggregate, .. } => {
            let labels: Vec<String> = stages.iter().map(|s| format!("{:?}", s.strategy)).collect();
            let mut label = labels.join("+");
            match aggregate {
                Some(a) if a.hierarchical => label.push_str("+HierAgg"),
                Some(_) => label.push_str("+OriginAgg"),
                None => {}
            }
            label
        }
        QueryKind::Select { .. } => "Select".to_string(),
        QueryKind::Aggregate { .. } => "Aggregate".to_string(),
        QueryKind::Recursive { .. } => "Recursive".to_string(),
    }
}

/// Fold a network-wide merged execution trace into per-query observed
/// statistics the planner can substitute for catalog estimates.
///
/// The per-stage input counters are totals over `epochs` epochs, so base
/// cardinalities divide by the epoch count; a stage's join selectivity comes
/// from the standard independence model `matches = sel * left * right`
/// applied per epoch, i.e. `sel = matches_total * epochs / (left_total *
/// right_total)`.  The walk follows the stage DAG (`left_scan` roots and
/// `out_to` edges) so the left-side *placed set* of each stage — the key the
/// planner looks selectivities up under — is correct for bushy shapes too.
fn fold_observed(spec: &QuerySpec, epochs: u64, trace: &OpTrace) -> crate::planner::ObservedStats {
    use crate::planner::ObservedStats;
    let mut obs = ObservedStats::default();
    let QueryKind::Join { left_table, stages, .. } = &spec.kind else { return obs };
    let e = epochs.max(1) as f64;
    // feeder[k][side]: which earlier stage's output streams into (k, side).
    let mut feeder: Vec<[Option<usize>; 2]> = vec![[None, None]; stages.len()];
    for (i, st) in stages.iter().enumerate() {
        match st.out_to {
            Some((tk, side)) => feeder[tk as usize][side as usize] = Some(i),
            None if i + 1 < stages.len() => feeder[i + 1][0] = Some(i),
            None => {}
        }
    }
    // Tables joined by each stage's output, in DAG order (feeders always
    // precede the stages they feed).
    let mut acc: Vec<Vec<String>> = vec![Vec::new(); stages.len()];
    for (k, st) in stages.iter().enumerate() {
        let left_in = trace.stage_left_in.get(&(k as u8)).copied().unwrap_or(0) as f64;
        let right_in = trace.stage_right_in.get(&(k as u8)).copied().unwrap_or(0) as f64;
        let left_set: Vec<String> = if let Some(scan) = &st.left_scan {
            if left_in > 0.0 {
                obs.table_rows.insert(scan.table.clone(), left_in / e);
            }
            vec![scan.table.clone()]
        } else if let Some(f) = feeder[k][0] {
            acc[f].clone()
        } else {
            if left_in > 0.0 {
                obs.table_rows.insert(left_table.clone(), left_in / e);
            }
            vec![left_table.clone()]
        };
        let mut placed = left_set;
        if let Some(f) = feeder[k][1] {
            // A merge stage: its build side is another subchain's output, not
            // a base relation — no table cardinality or per-stage selectivity
            // to learn here.
            placed.extend(acc[f].iter().cloned());
        } else {
            // Only a plain symmetric-hash stage rehashes the right relation
            // in full: a Bloom-filtered side (stage-0 or inner semi-join)
            // arrives pre-filtered and a Fetch-Matches side is only ever the
            // matching tuples, so their counts would bias the model.
            let unbiased_right =
                matches!(st.strategy, JoinStrategy::SymmetricHash) && !st.inner_bloom;
            if unbiased_right {
                if right_in > 0.0 {
                    obs.table_rows.insert(st.right_table.clone(), right_in / e);
                }
                let matches = trace.stage_matches.get(&(k as u8)).copied().unwrap_or(0) as f64;
                if left_in > 0.0 && right_in > 0.0 {
                    let key = ObservedStats::placed_key(placed.iter().map(String::as_str));
                    let sel = (matches * e) / (left_in * right_in);
                    obs.stage_selectivity.insert((st.right_table.clone(), key), sel);
                }
            }
            placed.push(st.right_table.clone());
        }
        acc[k] = placed;
    }
    obs
}

/// The query-and-stage-scoped DHT namespace a join stage's tuples rehash
/// into.  Scoping by stage keeps the chain's intermediate shipments of one
/// key value from colliding across stages.
fn join_namespace(id: QueryId, stage: u8) -> String {
    format!("pier:join:{id}:{stage}")
}

/// Group `items` by key, preserving first-occurrence group order (the
/// simulator's reproducibility requires deterministic message ordering, which
/// bare HashMap iteration would break).  O(n) via an index map.
fn group_by_key<K, V>(items: impl IntoIterator<Item = (K, V)>) -> Vec<(K, Vec<V>)>
where
    K: std::hash::Hash + Eq + Clone,
{
    let mut index: HashMap<K, usize> = HashMap::new();
    let mut groups: Vec<(K, Vec<V>)> = Vec::new();
    for (key, value) in items {
        match index.get(&key) {
            Some(&i) => groups[i].1.push(value),
            None => {
                index.insert(key.clone(), groups.len());
                groups.push((key, vec![value]));
            }
        }
    }
    groups
}

/// The epoch a continuous query is in at virtual time `now`.  Epochs are
/// derived from absolute virtual time (not a per-node counter) so every node —
/// including ones that joined after the query was disseminated — labels its
/// contributions consistently.
fn continuous_epoch(now: SimTime, c: &ContinuousSpec) -> u64 {
    now.as_micros() / c.period.as_micros().max(1)
}

/// Delay until shortly after the next epoch boundary.
fn epoch_align_delay(now: SimTime, c: &ContinuousSpec) -> Duration {
    let period = c.period.as_micros().max(1);
    Duration::from_micros(period - (now.as_micros() % period) + 1_000)
}

impl Node for PierNode {
    type Msg = PierMsg;

    fn on_start(&mut self, ctx: &mut Context<Self::Msg>) {
        self.dht.start(ctx);
        if self.config.auto_stats {
            let delay = self.config.stats_interval;
            self.arm_timer(ctx, delay, TimerPurpose::StatsGossip);
        }
        self.process_upcalls(ctx);
    }

    fn on_message(&mut self, ctx: &mut Context<Self::Msg>, from: NodeAddr, msg: Self::Msg) {
        self.dht.handle_message(ctx, from, msg);
        self.process_upcalls(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Context<Self::Msg>, token: u64) {
        if (dht_timers::TOKEN_BASE..dht_timers::TOKEN_LIMIT).contains(&token) {
            self.dht.handle_timer(ctx, token);
            self.process_upcalls(ctx);
            return;
        }
        let Some(purpose) = self.timer_purposes.remove(&token) else { return };
        if let Some((id, epoch)) = purpose.epoch_scope() {
            if let Some(state) = self.queries.get_mut(&id).and_then(|q| q.epochs.get_mut(&epoch)) {
                state.timers = state.timers.saturating_sub(1);
            }
        }
        match purpose {
            TimerPurpose::Epoch(id) => {
                let continuous = self.queries.get(&id).and_then(|q| q.spec.continuous);
                if let Some(c) = continuous {
                    // Mid-flight adaptivity: if the catalog moved since this
                    // query was planned, re-plan it now, at the epoch
                    // boundary, before this epoch's evaluation.
                    if id.origin() == self.addr {
                        self.maybe_replan(ctx, id);
                        if self.config.feedback {
                            self.feedback_step(ctx, id);
                        }
                    }
                    let (evaluations, spec) = {
                        let q = self.queries.get_mut(&id).expect("query exists");
                        q.epoch += 1;
                        // A staged re-plan is about to take effect in this
                        // epoch's evaluation; re-disseminating the stale spec
                        // would flip remote nodes back.
                        let spec = q.pending_spec.clone().unwrap_or_else(|| q.spec.clone());
                        (q.epoch, spec)
                    };
                    // Continuous queries are soft state: the origin re-disseminates
                    // the plan every few epochs so nodes that joined (or rejoined
                    // after a failure) start participating.
                    if spec.origin() == self.addr && evaluations % 3 == 0 {
                        self.dht.broadcast(ctx, PierPayload::Query(Box::new(spec)));
                    }
                    self.retire(id, ctx.now());
                    self.run_epoch(ctx, id);
                    let delay = epoch_align_delay(ctx.now(), &c);
                    self.arm_timer(ctx, delay, TimerPurpose::Epoch(id));
                }
            }
            TimerPurpose::Holddown(id, epoch) => {
                self.forward_partials(ctx, id, epoch);
                self.process_upcalls(ctx);
            }
            TimerPurpose::RootFinalize(id, epoch) => self.finalize_epoch(ctx, id, epoch),
            TimerPurpose::BloomPhase2(id, stage, epoch) => {
                self.broadcast_combined_bloom(ctx, id, stage, epoch)
            }
            TimerPurpose::InnerBloomSummary(id, stage, epoch) => {
                self.ship_inner_summary(ctx, id, stage, epoch)
            }
            TimerPurpose::BloomFallback(id, stage, epoch) => {
                self.run_inner_phase2(ctx, id, stage, epoch, None)
            }
            TimerPurpose::BatchFlush => {
                self.flush_timer_armed = false;
                self.force_flush(ctx);
                self.process_upcalls(ctx);
            }
            TimerPurpose::StatsGossip => {
                self.stats_gossip_round(ctx);
                let delay = self.config.stats_interval;
                self.arm_timer(ctx, delay, TimerPurpose::StatsGossip);
            }
        }
    }
}
