//! Turn rounds into the named metrics the benchmark prints.

use crate::judge::percentile;
use crate::layers::{Layer, LAYERS};
use crate::round::{PhaseStats, Round};

/// A named measurement with its unit.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

fn m(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric { name: name.into(), value, unit }
}

/// Median (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of nothing");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The CPU seconds of a phase over several rounds: the median of the
/// rounds' normalized CPU times ([`PhaseStats::normalized_s`]).
pub fn phase_cpu_s(phases: &[&PhaseStats]) -> f64 {
    median(&phases.iter().map(|p| p.normalized_s()).collect::<Vec<_>>())
}

/// `a / b`, or 0 when there is nothing to divide by.
fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// The end-to-end metrics.  CPU-based ones are medians over the rounds; the
/// rest are deterministic and taken from the first round.
pub fn end_to_end(rounds: &[Round], peak_rss_mb: f64) -> Result<Vec<Metric>, String> {
    let r = &rounds[0];
    let n = r.verdicts.len() as f64;
    let lat: Vec<f64> = r.verdicts.iter().filter_map(|v| v.latency_ms()).collect();
    let p = |q: f64| {
        percentile(&lat, q).ok_or_else(|| {
            format!("{} latency samples: too few for ten beyond p{}", lat.len(), q * 100.0)
        })
    };
    let ok = r.verdicts.iter().filter(|v| v.ok).count() as f64;
    let node_s = r.measured.clock.node_seconds;
    Ok(vec![
        m("setup_s", phase_cpu_s(&rounds.iter().map(|r| &r.setup).collect::<Vec<_>>()), "s"),
        m(
            "virtual_s_per_cpu_s",
            r.virtual_s / phase_cpu_s(&rounds.iter().map(|r| &r.measured).collect::<Vec<_>>()),
            "s/s",
        ),
        m("result_latency_p50_ms", p(0.5)?, "ms"),
        m("result_latency_p90_ms", p(0.9)?, "ms"),
        m("completeness", r.verdicts.iter().map(|v| v.completeness).sum::<f64>() / n, "ratio"),
        m("ok_frac", ok / n, "ratio"),
        m("wire_msgs_per_node_s", r.wire.messages_sent as f64 / node_s, "msg/node/s"),
        m("wire_kb_per_node_s", r.wire.bytes_sent as f64 / 1024.0 / node_s, "KiB/node/s"),
        m("query_msgs_per_answer", r.engine.messages_sent as f64 / n, "msg"),
        m("peak_rss_mb", peak_rss_mb, "MiB"),
    ])
}

/// Share of a phase's wall time spent in each part of the program: the
/// simulator's own loop, each handler layer, the client calls, and the
/// benchmark harness (answer polling, bookkeeping).  The parts sum to one.
pub fn shares(p: &PhaseStats) -> Vec<(&'static str, f64)> {
    let tally = p.tally.as_ref().expect("traced phase");
    let total = p.wall_ns;
    let client = p.clock.submit_ns + p.clock.publish_ns;
    let mut out = vec![("simnet", (p.clock.run_ns - tally.total_ns()) / total)];
    out.extend(LAYERS.iter().map(|&l| (l.name(), tally.ns[l as usize] / total)));
    out.push(("client", client / total));
    out.push(("harness", (total - p.clock.run_ns - client) / total));
    out
}

fn layer_metrics(r: &Round) -> Vec<Metric> {
    let p = &r.measured;
    let t = p.tally.as_ref().expect("traced round");
    let share = |l: Layer| t.ns[l as usize] / p.wall_ns;
    let us_per = |l: Layer| ratio(t.ns[l as usize] / 1000.0, t.units[l as usize]);
    let simnet_ns = p.clock.run_ns - t.total_ns();
    let node_s = p.clock.node_seconds;
    let e = &r.engine;
    let answers = r.verdicts.len() as f64;
    let s = &r.setup;
    let st = s.tally.as_ref().expect("traced round");
    let engine_ns: f64 = LAYERS[2..].iter().map(|&l| st.ns[l as usize]).sum();
    vec![
        m("simnet.cpu_share", simnet_ns / p.wall_ns, "ratio"),
        m("simnet.ns_per_event", ratio(simnet_ns, p.clock.events as f64), "ns/event"),
        m("simnet.events_per_node_s", p.clock.events as f64 / node_s, "1/node/s"),
        m("dht.maint_cpu_share", share(Layer::DhtMaint), "ratio"),
        m("dht.maint_us_per_call", us_per(Layer::DhtMaint), "us/call"),
        m("dht.maint_msgs_per_node_s", t.msgs[Layer::DhtMaint as usize] / node_s, "msg/node/s"),
        m("dht.store_cpu_share", share(Layer::DhtStore), "ratio"),
        m("dht.store_us_per_call", us_per(Layer::DhtStore), "us/call"),
        m("dht.hops_per_delivery", ratio(e.delivery_hops as f64, e.deliveries as f64), "hops"),
        m("dht.store_items", r.store_items as f64, "count"),
        m("engine.install_cpu_share", share(Layer::Install), "ratio"),
        m("engine.install_us_per_call", us_per(Layer::Install), "us/call"),
        m("engine.epoch_cpu_share", share(Layer::Epoch), "ratio"),
        m("engine.epoch_us_per_call", us_per(Layer::Epoch), "us/call"),
        m(
            "engine.tuples_scanned_per_epoch",
            ratio(e.tuples_scanned as f64, e.epochs_run as f64),
            "tuples",
        ),
        m("engine.join_cpu_share", share(Layer::Join), "ratio"),
        m("engine.join_us_per_msg", us_per(Layer::Join), "us/msg"),
        m(
            "engine.join_match_ratio",
            ratio(e.join_matches as f64, e.join_tuples_sent as f64),
            "ratio",
        ),
        m("engine.bloom_pass_ratio", ratio(e.bloom_passed as f64, e.bloom_tested as f64), "ratio"),
        m("engine.agg_cpu_share", share(Layer::Agg), "ratio"),
        m("engine.partials_per_answer", e.partials_sent as f64 / answers, "msg"),
        m("engine.result_cpu_share", share(Layer::Result), "ratio"),
        m("engine.other_cpu_share", share(Layer::Other), "ratio"),
        m("engine.bytes_per_msg", ratio(e.bytes_shipped as f64, e.messages_sent as f64), "B"),
        m(
            "engine.payloads_per_frame",
            ratio(t.direct_payloads as f64, t.direct_frames as f64),
            "ratio",
        ),
        m("planner.plan_us", ratio(p.clock.submit_ns / 1000.0, p.clock.submits as f64), "us/query"),
        m(
            "planner.cache_hit_ratio",
            ratio(e.plan_cache_hits as f64, (e.plan_cache_hits + e.plan_cache_misses) as f64),
            "ratio",
        ),
        m(
            "client.publish_us_per_tuple",
            ratio(p.clock.publish_ns / 1000.0, p.clock.published as f64),
            "us/tuple",
        ),
        m("setup.simnet_cpu_share", (s.clock.run_ns - st.total_ns()) / s.wall_ns, "ratio"),
        m("setup.dht_maint_cpu_share", st.ns[Layer::DhtMaint as usize] / s.wall_ns, "ratio"),
        m("setup.dht_store_cpu_share", st.ns[Layer::DhtStore as usize] / s.wall_ns, "ratio"),
        m("setup.engine_cpu_share", engine_ns / s.wall_ns, "ratio"),
    ]
}

/// The per-layer metrics: medians over the traced rounds, plus the tracing
/// overhead measured against the plain rounds run beside them.
pub fn per_layer(plain: &[Round], traced: &[Round]) -> Vec<Metric> {
    let per_round: Vec<Vec<Metric>> = traced.iter().map(layer_metrics).collect();
    let mut out: Vec<Metric> = per_round[0]
        .iter()
        .enumerate()
        .map(|(i, first)| {
            let values: Vec<f64> = per_round.iter().map(|r| r[i].value).collect();
            m(first.name.clone(), median(&values), first.unit)
        })
        .collect();
    let measured = |rs: &[Round]| phase_cpu_s(&rs.iter().map(|r| &r.measured).collect::<Vec<_>>());
    let setup = |rs: &[Round]| phase_cpu_s(&rs.iter().map(|r| &r.setup).collect::<Vec<_>>());
    out.push(m("trace.overhead_frac", measured(traced) / measured(plain) - 1.0, "ratio"));
    out.push(m("trace.setup_overhead_frac", setup(traced) / setup(plain) - 1.0, "ratio"));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
