//! `fig1_churn`: the paper's Figure 1 under churn.
//!
//! 300 hosts with the `experiment_config()` timers each store a fresh
//! `netstats` reading every 5 s while four origins run the Figure-1
//! continuous SUM, with `COUNT(*)` beside it so completeness is read from
//! the answer itself.  A fifth of the hosts fail a third of the way through
//! and recover at two thirds.  Overlay maintenance and the simulator loop
//! dominate the CPU here; the engine is a small share.

use crate::deploy::{advance, AnswerBook, Deployment, Expected};
use crate::judge::{judge_sum_count, sum_count_expect, Downtime, Reading, Verdict};
use crate::layers::Host;
use crate::round::{finish, Meter, Round};
use pier_apps::netmon::{netstats_table, NetworkMonitor};
use pier_bench::experiment_config;
use pier_core::PierConfig;
use pier_simnet::{DetRng, Duration, NodeAddr, SimTime};

const NODES: usize = 300;
const WARMUP_S: u64 = 120;
const PERIOD_S: u64 = 5;
const WINDOW_S: u64 = 10;
/// Concurrent copies of the Figure-1 query, from distinct origins: four
/// give over a hundred answers per round, enough for a p90 with ten
/// samples beyond it.
const ORIGINS: usize = 4;
const EPOCHS: u64 = 30;
const VICTIMS: usize = NODES / 5;
/// How long each answer is watched after its epoch starts.
const HORIZON_S: u64 = 12;

/// The Figure-1 query with a COUNT beside the SUM.
pub fn sql() -> String {
    format!(
        "SELECT SUM(out_rate) AS total_out, COUNT(*) AS n FROM netstats \
         CONTINUOUS EVERY {PERIOD_S} SECONDS WINDOW {WINDOW_S} SECONDS"
    )
}

enum Action {
    Publish,
    Kill(NodeAddr),
    Restart(NodeAddr),
}

/// Run one round.
pub fn run<N: Host + 'static>(
    seed: u64,
    boot: impl FnOnce(usize, u64, PierConfig, Duration) -> Deployment<N>,
) -> Result<Round, String> {
    let setup_meter = Meter::start_fresh();
    let mut d =
        boot(NODES, crate::TESTBED_SEED, experiment_config(), Duration::from_secs(WARMUP_S));
    d.create_table_everywhere(&netstats_table());
    let period = Duration::from_secs(PERIOD_S);
    let t0 = SimTime::from_secs(d.now().as_secs().div_ceil(PERIOD_S) * PERIOD_S);
    d.run_until(t0);
    let setup = setup_meter.stop(&d);

    let meter = Meter::start(&d);
    let wire_before = d.wire();
    let totals_before = d.totals();
    let mut book = AnswerBook::new(Duration::from_secs(HORIZON_S));
    let mut monitor = NetworkMonitor::new(NODES, seed);

    // Origins and victims: disjoint seeded picks among the hosts other than
    // the overlay's bootstrap host.
    let mut hosts: Vec<NodeAddr> = d.nodes()[1..].to_vec();
    DetRng::new(seed).stream(0xC4A2).shuffle(&mut hosts);
    let (origins, victims) = (&hosts[..ORIGINS], &hosts[ORIGINS..ORIGINS + VICTIMS]);
    let sql = sql();
    let mut queries = Vec::new();
    for &o in origins {
        queries.push((o, d.submit_sql(o, &sql)?));
    }
    let fail_at = t0 + Duration::from_millis(EPOCHS * PERIOD_S * 1000 / 3 + 1_250);
    let recover_at = t0 + Duration::from_millis(EPOCHS * PERIOD_S * 1000 * 2 / 3 + 1_250);

    let mut plan: Vec<(SimTime, Action)> = Vec::new();
    for k in 0..EPOCHS {
        plan.push((t0 + period.saturating_mul(k) + Duration::from_millis(2_500), Action::Publish));
    }
    for &v in victims {
        plan.push((fail_at, Action::Kill(v)));
        plan.push((recover_at, Action::Restart(v)));
    }
    plan.sort_by_key(|(t, _)| *t);

    for e in 1..=EPOCHS {
        let due = t0 + period.saturating_mul(e);
        let epoch = due.as_secs() / PERIOD_S;
        for &(origin, query) in &queries {
            book.expect(Expected { origin, query, epoch, due });
        }
    }

    let mut readings = Vec::new();
    for (t, action) in plan {
        advance(&mut d, &mut book, t);
        match action {
            Action::Publish => {
                for i in 0..NODES {
                    let addr = NodeAddr(i as u32);
                    if !d.is_alive(addr) {
                        continue;
                    }
                    let tuple = monitor.sample(i);
                    let value = tuple.get(1).as_f64().expect("out_rate is numeric");
                    readings.push(Reading { host: i, at: t, value });
                    d.publish_local(addr, "netstats", tuple);
                }
            }
            Action::Kill(a) => d.kill(a),
            Action::Restart(a) => d.restart(a),
        }
    }
    let end = t0 + period.saturating_mul(EPOCHS) + Duration::from_secs(HORIZON_S);
    advance(&mut d, &mut book, end);
    let measured = meter.stop(&d);

    let downtime: Vec<Downtime> = victims
        .iter()
        .map(|v| Downtime { host: v.index(), from: fail_at, until: recover_at })
        .collect();
    let answers = book.answers(&d);
    let mut verdicts = Vec::new();
    for ((e, completed), answer) in book.expected().iter().zip(book.completed()).zip(&answers) {
        // Each host scans at 1 ms past the epoch boundary; the answer is
        // formed within the aggregation collect delay that follows.
        let scan = e.due + Duration::from_millis(1);
        let settled = e.due + experiment_config().collect_delay + Duration::from_secs(1);
        let exp = sum_count_expect(
            &readings,
            &downtime,
            scan,
            Duration::from_secs(WINDOW_S),
            netstats_table().ttl,
            settled,
        );
        let got = answer
            .as_ref()
            .and_then(|rows| rows.first())
            .map(|row| (row.get(0).as_f64().unwrap_or(0.0), row.get(1).as_i64().unwrap_or(0)));
        let (ok, completeness) = judge_sum_count(&exp, got);
        verdicts.push(Verdict { due: e.due, completed: *completed, ok, completeness });
    }
    let virtual_s = end.saturating_since(t0).as_secs_f64();
    Ok(finish(&d, setup, measured, virtual_s, wire_before, &totals_before, verdicts, &answers, 0.0))
}
