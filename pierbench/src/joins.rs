//! `monitor_joins`: concurrent continuous monitoring joins on a healthy
//! network.
//!
//! 64 hosts run eight continuous `netstats ⋈ links ⋈ intrusions … GROUP BY`
//! queries over the `pier_bench::skewed_workload` shape.  Links and intrusion
//! reports are provisioned once; every host publishes a fresh batch of
//! readings through the DHT put path every epoch, so writes run beside the
//! joins.  Join build/probe, Bloom filters, epoch evaluation, the wire
//! encoding and per-query state show here; overlay maintenance is small.

use crate::deploy::{advance, AnswerBook, Deployment, Expected};
use crate::judge::{judge_rows, snapshot, Publication, Verdict};
use crate::layers::Host;
use crate::round::{finish, Meter, Round};
use pier_apps::netmon::netstats_table;
use pier_apps::snort::intrusions_table;
use pier_apps::topology::links_table;
use pier_bench::{experiment_config, host, skewed_catalog, skewed_workload, SkewedWorkload};
use pier_core::{Catalog, MemoryDb, PierConfig, Planner, Tuple, Value};
use pier_simnet::{DetRng, Duration, SimTime};
use std::cell::RefCell;
use std::rc::Rc;

const NODES: usize = 64;
const WARMUP_S: u64 = 40;
const PERIOD_S: u64 = 5;
const EPOCHS: u64 = 14;
const HORIZON_S: u64 = 12;
const SHAPE: SkewedWorkload = SkewedWorkload { readings_per_host: 40, intrusion_every: 4 };
/// The window covers the whole run, so the static links and intrusion
/// reports stay visible; readings leave the scan when their 30 s soft state
/// expires.
const WINDOW_S: u64 = 600;

const CHAIN: &str =
    "FROM netstats n JOIN links l ON n.host = l.src JOIN intrusions i ON l.dst = i.host";

/// The eight concurrent queries: different filters, groupings and
/// aggregates over the same three-way chain.
pub fn queries() -> Vec<String> {
    let shapes = [
        "SELECT i.host, COUNT(*) AS n, SUM(n.out_rate) AS total {C} WHERE n.out_rate > 2 GROUP BY i.host",
        "SELECT i.host, COUNT(*) AS n, SUM(n.out_rate) AS total {C} WHERE n.out_rate > 5 GROUP BY i.host",
        "SELECT i.host, MIN(n.out_rate) AS lo, MAX(n.out_rate) AS hi {C} WHERE l.kind = 'successor' GROUP BY i.host",
        "SELECT l.kind, COUNT(*) AS n, SUM(n.out_rate) AS total {C} GROUP BY l.kind",
        "SELECT i.rule_id, COUNT(*) AS n, MAX(n.out_rate) AS peak {C} GROUP BY i.rule_id",
        "SELECT n.host, COUNT(*) AS n, SUM(i.hits) AS hits {C} WHERE n.out_rate > 4 GROUP BY n.host",
        "SELECT i.description, COUNT(*) AS n {C} WHERE n.out_rate > 3 GROUP BY i.description",
        "SELECT i.host, SUM(n.in_rate) AS inbound {C} WHERE l.kind = 'finger' GROUP BY i.host",
    ];
    shapes
        .iter()
        .map(|s| {
            format!(
                "{} CONTINUOUS EVERY {PERIOD_S} SECONDS WINDOW {WINDOW_S} SECONDS",
                s.replace("{C}", CHAIN)
            )
        })
        .collect()
}

/// One round of fresh readings for host `i`: the skewed shape's per-host
/// level plus seeded noise in steps of 0.5, so every SUM is exact in
/// floating point whatever order the network adds it in.
fn readings(rng: &mut DetRng, i: usize) -> Vec<Tuple> {
    (0..SHAPE.readings_per_host)
        .map(|_| {
            Tuple::new(vec![
                Value::str(host(NODES, i)),
                Value::Float((2 + i % 7) as f64 + 0.5 * rng.index(8) as f64),
                Value::Float(0.5 * (1 + rng.index(4)) as f64),
            ])
        })
        .collect()
}

/// Run one round.
pub fn run<N: Host + 'static>(
    seed: u64,
    boot: impl FnOnce(usize, u64, PierConfig, Duration) -> Deployment<N>,
) -> Result<Round, String> {
    let setup_meter = Meter::start_fresh();
    let mut d =
        boot(NODES, crate::TESTBED_SEED, experiment_config(), Duration::from_secs(WARMUP_S));
    let catalog = skewed_catalog(NODES, SHAPE);
    for def in [netstats_table(), links_table(), intrusions_table()] {
        d.create_table_everywhere(&def);
        let stats = catalog.stats(&def.name).ok_or("skewed catalog lacks a table")?;
        d.set_table_stats_everywhere(&def.name, stats);
    }
    let (_, links, intrusions) = skewed_workload(NODES, SHAPE);
    let mut log = Vec::new();
    let nodes = d.nodes().to_vec();
    for (i, &addr) in nodes.iter().enumerate() {
        let mine = links[2 * i..2 * i + 2].to_vec();
        log.push(Publication {
            table: "links",
            at: d.now(),
            ttl: links_table().ttl,
            rows: mine.clone(),
        });
        d.publish_batch(addr, "links", mine);
        let reports: Vec<Tuple> = intrusions
            .iter()
            .filter(|t| t.get(0).as_str() == Some(&host(NODES, i)))
            .cloned()
            .collect();
        if !reports.is_empty() {
            log.push(Publication {
                table: "intrusions",
                at: d.now(),
                ttl: intrusions_table().ttl,
                rows: reports.clone(),
            });
            d.publish_batch(addr, "intrusions", reports);
        }
    }
    let t0 = SimTime::from_secs((d.now().as_secs() + PERIOD_S).div_ceil(PERIOD_S) * PERIOD_S);
    d.run_until(t0);
    let setup = setup_meter.stop(&d);

    let meter = Meter::start(&d);
    let wire_before = d.wire();
    let totals_before = d.totals();
    let mut book = AnswerBook::new(Duration::from_secs(HORIZON_S));
    let sqls = queries();
    let mut rng = DetRng::new(seed).stream(0x701E);
    let mut origins = nodes.clone();
    rng.shuffle(&mut origins);
    let mut submitted = Vec::new();
    for (sql, &origin) in sqls.iter().zip(&origins) {
        submitted.push((origin, d.submit_sql(origin, sql)?));
    }
    let period = Duration::from_secs(PERIOD_S);
    for e in 1..=EPOCHS {
        let due = t0 + period.saturating_mul(e);
        for &(origin, query) in &submitted {
            book.expect(Expected { origin, query, epoch: due.as_secs() / PERIOD_S, due });
        }
    }
    for k in 0..EPOCHS {
        // Mid-epoch, well away from the scans at the epoch boundaries.
        let at = t0 + period.saturating_mul(k) + Duration::from_millis(2_500);
        advance(&mut d, &mut book, at);
        for (i, &addr) in nodes.iter().enumerate() {
            let rows = readings(&mut rng, i);
            log.push(Publication {
                table: "netstats",
                at,
                ttl: netstats_table().ttl,
                rows: rows.clone(),
            });
            d.publish_batch(addr, "netstats", rows);
        }
    }
    let end = t0 + period.saturating_mul(EPOCHS) + Duration::from_secs(HORIZON_S);
    advance(&mut d, &mut book, end);
    let measured = meter.stop(&d);

    let answers = book.answers(&d);
    let expected = reference(seed, &catalog, &sqls, &log, book.expected())?;
    let mut verdicts = Vec::new();
    for (((e, completed), answer), want) in
        book.expected().iter().zip(book.completed()).zip(&answers).zip(expected.iter())
    {
        let (ok, completeness) = judge_rows(want, answer.as_deref());
        verdicts.push(Verdict { due: e.due, completed: *completed, ok, completeness });
    }
    let virtual_s = end.saturating_since(t0).as_secs_f64();
    Ok(finish(&d, setup, measured, virtual_s, wire_before, &totals_before, verdicts, &answers, 0.0))
}

/// The expected rows of every expected answer, in registration order.
type Answers = Rc<Vec<Vec<Tuple>>>;

thread_local! {
    /// Reference answers by seed.  The publish log and the expected answers
    /// are a function of the seed alone, so later rounds reuse them.
    static REFERENCE: RefCell<Option<(u64, Answers)>> = const { RefCell::new(None) };
}

/// The centralized answer to every expected `(query, epoch)`, evaluated on
/// the database each epoch's scan sees.
fn reference(
    seed: u64,
    catalog: &Catalog,
    sqls: &[String],
    log: &[Publication],
    expected: &[Expected],
) -> Result<Answers, String> {
    if let Some((s, r)) = REFERENCE.with(|c| c.borrow().clone()) {
        if s == seed && r.len() == expected.len() {
            return Ok(r);
        }
    }
    let planner = Planner::new(catalog);
    let plans = sqls
        .iter()
        .map(|sql| {
            let stmt = pier_core::sql::parse_select(sql).map_err(|e| e.to_string())?;
            planner.plan_select(&stmt).map_err(|e| e.to_string())
        })
        .collect::<Result<Vec<_>, String>>()?;
    let mut out = Vec::new();
    let mut db_at: Option<(SimTime, MemoryDb)> = None;
    for (e, k) in expected.iter().zip((0..sqls.len()).cycle()) {
        let scan = e.due + Duration::from_millis(1);
        if db_at.as_ref().map(|(t, _)| *t) != Some(scan) {
            db_at = Some((scan, snapshot(log, scan, Duration::from_secs(WINDOW_S))));
        }
        let db = &db_at.as_ref().expect("snapshot just built").1;
        out.push(db.execute(&plans[k].logical));
    }
    let out = Rc::new(out);
    REFERENCE.with(|c| *c.borrow_mut() = Some((seed, out.clone())));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_query_plans_against_the_workload_catalog() {
        let catalog = skewed_catalog(NODES, SHAPE);
        for sql in queries() {
            let stmt = pier_core::sql::parse_select(&sql).unwrap();
            let planned = Planner::new(&catalog).plan_select(&stmt).unwrap();
            assert!(planned.continuous.is_some(), "{sql}");
        }
    }

    #[test]
    fn readings_are_exact_in_binary() {
        let mut rng = DetRng::new(3);
        for i in 0..NODES {
            for t in readings(&mut rng, i) {
                let v = t.get(1).as_f64().unwrap();
                assert_eq!((v * 2.0).fract(), 0.0);
            }
        }
    }
}
