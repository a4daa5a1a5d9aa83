//! Epoch-state lifecycle: every continuous query keeps one state per
//! (query, epoch) at each node, retired once the epoch is a horizon old.
//!
//! * Over 500 epochs, for every join strategy × vectorized on/off ×
//!   windowed/unwindowed, live epoch states per query per node stay within
//!   ⌈horizon / period⌉ + 2 and the join build rows held stay flat.
//! * An arrival forced in for a retired epoch is dropped and counted, and
//!   the new counters reconcile field for field between the engine totals
//!   and the per-query traces.
//! * Stragglers of a stopped query (rehashes in flight when the stop
//!   arrives) are dropped, not buffered for a plan that never comes.

use pier::core::{Catalog, PierPayload, Planner};
use pier::dht::ResourceKey;
use pier::prelude::*;

const PERIOD_US: u64 = 1_000_000;
const NODES: usize = 4;
const EPOCHS: u64 = 500;

fn tables() -> Vec<TableDef> {
    let int_pair = |name: &str, k: &str, v: &str| {
        TableDef::new(
            name,
            Schema::of(&[(k, DataType::Int), (v, DataType::Int)]),
            k,
            Duration::from_secs(2),
        )
    };
    vec![int_pair("a", "ak", "x"), int_pair("b", "bk", "j"), int_pair("c", "ck", "y")]
}

fn sql(windowed: bool) -> String {
    let chain = "SELECT c.y, COUNT(*) AS n, SUM(a.x) AS total \
                 FROM a JOIN b ON a.ak = b.bk JOIN c ON b.j = c.ck GROUP BY c.y";
    if windowed {
        format!("{chain} WINDOW TUMBLING 2 EPOCHS CONTINUOUS EVERY 1 SECONDS")
    } else {
        format!("{chain} CONTINUOUS EVERY 1 SECONDS WINDOW 2 SECONDS")
    }
}

/// One epoch's fresh rows: every node routes a few rows of each table.
fn publish_round(bed: &mut PierTestbed, round: u64) {
    for (i, addr) in bed.nodes().to_vec().into_iter().enumerate() {
        let i = i as i64;
        let r = round as i64;
        let rows = |f: &dyn Fn(i64) -> (i64, i64)| -> Vec<Tuple> {
            (0..2)
                .map(|n| {
                    let (k, v) = f(n);
                    Tuple::new(vec![Value::Int(k), Value::Int(v)])
                })
                .collect()
        };
        bed.publish_batch(addr, "a", rows(&|n| ((i + n) % 4, r % 7 + n)));
        bed.publish_batch(addr, "b", rows(&|n| ((i + 2 * n) % 4, (i + n) % 3)));
        bed.publish_batch(addr, "c", rows(&|n| ((i + n) % 3, n)));
    }
}

/// The retirement horizon as the engine works it out from its config.
fn horizon_us(pier: &PierConfig) -> u64 {
    pier.collect_delay.as_micros()
        + 12 * pier.holddown.as_micros()
        + pier.bloom_fallback_delay.as_micros()
}

struct Run {
    bed: PierTestbed,
    id: QueryId,
    max_live: u64,
    early_rows: u64,
    late_rows: u64,
}

fn run(strategy: JoinStrategy, inner_bloom: bool, vectorized: bool, windowed: bool) -> Run {
    let mut pier = PierConfig::fast_test();
    pier.vectorized = vectorized;
    let mut bed =
        PierTestbed::new(TestbedConfig { nodes: NODES, seed: 41, pier, ..Default::default() });
    let mut catalog = Catalog::new();
    for def in tables() {
        bed.create_table_everywhere(&def);
        catalog.register(def);
    }
    let stmt = pier::core::sql::parse_select(&sql(windowed)).unwrap();
    let mut planned = Planner::with_join_strategy(&catalog, strategy).plan_select(&stmt).unwrap();
    if let QueryKind::Join { stages, .. } = &mut planned.kind {
        stages[1].inner_bloom = inner_bloom;
    }
    let origin = bed.nodes()[1];
    let id =
        bed.submit_query(origin, planned.kind, planned.output_names, planned.continuous).unwrap();

    let mut max_live = 0;
    let (mut early_rows, mut late_rows) = (0, 0);
    for round in 0..EPOCHS {
        publish_round(&mut bed, round);
        bed.run_for(Duration::from_micros(PERIOD_US));
        for &addr in bed.nodes() {
            // One query per deployment: the node's gauge is per query.
            max_live = max_live.max(bed.node(addr).unwrap().stats().live_epoch_states);
        }
        let rows: u64 = bed.nodes().iter().map(|&a| bed.node(a).unwrap().join_build_rows()).sum();
        if (50..150).contains(&round) {
            early_rows = early_rows.max(rows);
        } else if round >= EPOCHS - 100 {
            late_rows = late_rows.max(rows);
        }
    }
    Run { bed, id, max_live, early_rows, late_rows }
}

/// Route a join tuple for epoch 1 — long retired — to its join site.
fn inject_late_join_tuple(bed: &mut PierTestbed, id: QueryId) {
    let from = bed.nodes()[0];
    bed.sim().invoke(from, move |node, ctx| {
        let key = Value::Int(2);
        let resource = ResourceKey::singleton(format!("pier:join:{id}:0"), key.partition_string());
        let tuple = Tuple::new(vec![Value::Int(2), Value::Int(5)]);
        let payload = PierPayload::JoinTuple { query: id, stage: 0, epoch: 1, side: 0, key, tuple };
        node.dht.send_to_key(ctx, resource, payload);
    });
    bed.run_for(Duration::from_secs(2));
}

#[test]
fn symmetric_hash_epoch_state_stays_bounded() {
    check_bounded(JoinStrategy::SymmetricHash, false);
}

#[test]
fn inner_bloom_epoch_state_stays_bounded() {
    check_bounded(JoinStrategy::SymmetricHash, true);
}

#[test]
fn fetch_matches_epoch_state_stays_bounded() {
    check_bounded(JoinStrategy::FetchMatches, false);
}

#[test]
fn bloom_join_epoch_state_stays_bounded() {
    check_bounded(JoinStrategy::BloomFilter, false);
}

/// 500 epochs of one join strategy in all four vectorized × windowed
/// combinations.
fn check_bounded(strategy: JoinStrategy, inner_bloom: bool) {
    for vectorized in [true, false] {
        for windowed in [false, true] {
            let label = format!(
                "{strategy:?} inner_bloom={inner_bloom} vectorized={vectorized} \
                 windowed={windowed}"
            );
            let Run { mut bed, id, max_live, early_rows, late_rows } =
                run(strategy, inner_bloom, vectorized, windowed);
            let origin = bed.nodes()[1];

            let bound = horizon_us(&PierConfig::fast_test()).div_ceil(PERIOD_US) + 2;
            assert!(max_live <= bound, "{label}: {max_live} live epoch states > {bound}");
            assert!(max_live > 0, "{label}: no epoch state at all");
            // Flat up to the jitter of which epochs are live when
            // sampled; without retirement the late figure would be
            // several times the early one.
            assert!(
                late_rows <= early_rows + early_rows / 10,
                "{label}: build rows grew from {early_rows} to {late_rows}"
            );
            if strategy != JoinStrategy::FetchMatches {
                assert!(early_rows > 0, "{label}: no join ever built");
            }
            // Results keep flowing to the end (a windowed query's result
            // keys are window ids, two epochs each).
            let now_epoch = bed.now().as_micros() / PERIOD_US;
            let epochs_per_key = if windowed { 2 } else { 1 };
            let recent = bed.epochs(origin, id).into_iter().any(|e| {
                (e + 1) * epochs_per_key + 20 > now_epoch && !bed.results(origin, id, e).is_empty()
            });
            assert!(recent, "{label}: no results near the end of the run");

            let before = bed.engine_totals();
            assert_eq!(before.late_epoch_dropped, 0, "{label}: late arrivals in steady state");
            inject_late_join_tuple(&mut bed, id);
            let totals = bed.engine_totals();
            assert_eq!(totals.late_epoch_dropped, 1, "{label}: forced late arrival");

            // Reconciliation: the deployment runs one query, so its
            // per-node traces sum to the engine totals field for field.
            let (mut retired, mut dropped, mut live) = (0, 0, 0);
            for &addr in bed.nodes() {
                let node = bed.node(addr).unwrap();
                let trace = node.query_trace(id).unwrap();
                retired += trace.epochs_retired;
                dropped += trace.late_epoch_dropped;
                live += node.stats().live_epoch_states;
            }
            assert!(totals.epochs_retired > 0, "{label}: nothing retired");
            assert_eq!(retired, totals.epochs_retired, "{label}");
            assert_eq!(dropped, totals.late_epoch_dropped, "{label}");
            assert_eq!(live, totals.live_epoch_states, "{label}");
        }
    }
}

#[test]
fn stragglers_of_a_stopped_join_are_dropped_not_buffered() {
    let mut bed = PierTestbed::new(TestbedConfig {
        nodes: 8,
        seed: 77,
        pier: PierConfig::fast_test(),
        ..Default::default()
    });
    let mut catalog = Catalog::new();
    for def in tables() {
        bed.create_table_everywhere(&def);
        catalog.register(def);
    }
    let origin = bed.nodes()[1];
    let stmt = pier::core::sql::parse_select(&sql(false)).unwrap();
    let planned = Planner::with_join_strategy(&catalog, JoinStrategy::SymmetricHash)
        .plan_select(&stmt)
        .unwrap();
    let id =
        bed.submit_query(origin, planned.kind, planned.output_names, planned.continuous).unwrap();
    for round in 0..4 {
        publish_round(&mut bed, round);
        bed.run_for(Duration::from_micros(PERIOD_US));
    }
    // Epochs are evaluated 1 ms after each boundary; stop half a
    // millisecond later, while that epoch's rehashes are on the wire.
    publish_round(&mut bed, 4);
    let boundary = (bed.now().as_micros() / PERIOD_US + 1) * PERIOD_US;
    bed.run_until(SimTime::from_micros(boundary + 1_500));
    bed.stop_query(origin, id);
    bed.run_for(Duration::from_secs(5));

    let nodes = bed.nodes().to_vec();
    let buffered: usize =
        nodes.iter().map(|&a| bed.node(a).unwrap().buffered_early_arrivals()).sum();
    assert_eq!(buffered, 0, "stragglers of a stopped query must not be buffered");
    let totals = bed.engine_totals();
    assert!(totals.stopped_query_dropped > 0, "the stop must have raced some rehashes");
    assert!(nodes.iter().all(|&a| bed.node(a).unwrap().active_queries() == 0));
}
