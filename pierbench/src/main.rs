//! End-to-end benchmark of the PIER reproduction.
//!
//! ```text
//! cargo run --release --offline --manifest-path pierbench/Cargo.toml -- \
//!     --workload <fig1_churn|monitor_joins|search_publish> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload is the paper's own (see its module).  A run repeats whole
//! rounds — set-up, then the measured phase — until `--seconds` of wall time
//! are spent (at least [`MIN_ROUNDS`]).  Every round checks every expected
//! answer against a reference built from the benchmark's own publish log.
//!
//! * `--trace 0` prints the end-to-end metrics.  CPU-based ones are medians
//!   over the rounds of CPU time normalized by a calibration unit timed after
//!   every simulated second ([`report::phase_cpu_s`]), so that how fast the
//!   shared machine happens to run cancels out; the deterministic ones
//!   (simulated latency, answers, traffic) are printed once — every round
//!   must reproduce them exactly.
//! * `--trace 1` alternates plain rounds with rounds whose hosts are wrapped
//!   in the timing [`layers::Traced`] node, and prints the per-layer metrics,
//!   the layer-coverage table, and the tracing overhead.  Traced rounds must
//!   reproduce the plain rounds' deterministic numbers exactly.
//!
//! The last line of standard output is one JSON object:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`.  `attempted`
//! counts expected answers and `failed` those missing or wrong; `correct`
//! says whether every check ran and every round reproduced the first.

mod clock;
mod deploy;
mod fig1;
mod joins;
mod judge;
mod layers;
mod report;
mod round;
mod search;

use deploy::Deployment;
use layers::{Tally, Traced};
use pier_core::{PierConfig, PierNode};
use pier_simnet::Duration;
use report::Metric;
use round::Round;
use std::cell::RefCell;
use std::process::ExitCode;
use std::rc::Rc;
use std::time::Instant;

/// Fewest rounds a `--trace 0` run makes (the set-up time is their median).
const MIN_ROUNDS: usize = 3;
/// Most rounds a run makes, whatever `--seconds` allows.
const MAX_ROUNDS: usize = 9;

const WORKLOADS: [&str; 3] = ["fig1_churn", "monitor_joins", "search_publish"];

/// Seed of the simulated testbed: host placement, link latencies and the
/// simulator's own randomness.  The testbed stays fixed, like the paper's
/// PlanetLab slice; `--seed` varies the workload's inputs — the data, the
/// churn victims, the search schedule.
pub const TESTBED_SEED: u64 = 1;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; expected one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Share of the measured phase's CPU above which a layer counts as
/// exercised, and below which as bypassed.
const LARGE: f64 = 0.15;
const SMALL: f64 = 0.10;

/// The layers each workload is built to exercise and to bypass.  Across the
/// three, each optimisable layer is large in one workload and small in
/// another, so a change to it has a workload that shows it and one that
/// predicts no change.
const COVERAGE: [(&str, &[&str], &[&str]); 3] = [
    ("fig1_churn", &["simnet", "dht.maint"], &["dht.store", "engine.install", "engine.join"]),
    ("monitor_joins", &["engine.epoch", "engine.join"], &["engine.install", "dht.maint"]),
    ("search_publish", &["dht.store", "engine.install"], &["engine.epoch", "engine.join"]),
];

/// Print the measured phase's layer shares and check them against
/// [`COVERAGE`].  Informational: a faster layer may rightly fall below
/// [`LARGE`], so the check does not decide `correct`.
fn print_coverage(workload: &str, r: &Round) {
    let shares = report::shares(&r.measured);
    let setup = report::shares(&r.setup);
    println!("layer coverage of the measured phase (share of wall time; set-up beside it):");
    for ((name, share), (_, s)) in shares.iter().zip(&setup) {
        println!("  {name:<16} {share:>7.4}   (set-up {s:>7.4})");
    }
    let total: f64 = shares.iter().map(|(_, s)| s).sum();
    println!("  {:<16} {total:>7.4}", "sum");
    let share = |l: &str| shares.iter().find(|(n, _)| *n == l).map_or(0.0, |(_, s)| *s);
    let (_, large, small) =
        COVERAGE.iter().find(|(w, _, _)| *w == workload).expect("known workload");
    for l in *large {
        let ok = share(l) >= LARGE;
        println!(
            "  coverage: {l} exercised ({:.3} {} {LARGE}){}",
            share(l),
            if ok { ">=" } else { "<" },
            if ok { "" } else { "  DRIFTED" }
        );
    }
    for l in *small {
        let ok = share(l) <= SMALL;
        println!(
            "  coverage: {l} bypassed ({:.3} {} {SMALL}){}",
            share(l),
            if ok { "<=" } else { ">" },
            if ok { "" } else { "  DRIFTED" }
        );
    }
}

fn plain_boot(n: usize, seed: u64, pier: PierConfig, warmup: Duration) -> Deployment<PierNode> {
    Deployment::boot(n, seed, pier, warmup, |node| node, None)
}

fn traced_boot(n: usize, seed: u64, pier: PierConfig, warmup: Duration) -> Deployment<Traced> {
    let tally = Rc::new(RefCell::new(Tally::default()));
    let shared = tally.clone();
    Deployment::boot(
        n,
        seed,
        pier,
        warmup,
        move |node| Traced::new(node, shared.clone()),
        Some(tally),
    )
}

fn run_round(workload: &str, seed: u64, traced: bool) -> Result<Round, String> {
    match (workload, traced) {
        ("fig1_churn", false) => fig1::run(seed, plain_boot),
        ("fig1_churn", true) => fig1::run(seed, traced_boot),
        ("monitor_joins", false) => joins::run(seed, plain_boot),
        ("monitor_joins", true) => joins::run(seed, traced_boot),
        ("search_publish", false) => search::run(seed, plain_boot),
        ("search_publish", true) => search::run(seed, traced_boot),
        _ => Err(format!("unknown workload {workload}")),
    }
}

fn json_metrics(metrics: &[Metric]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| format!("\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}", m.name, m.value, m.unit))
        .collect();
    format!("{{{}}}", fields.join(", "))
}

fn run(args: &Args) -> Result<(), String> {
    let started = Instant::now();
    let mut plain: Vec<Round> = Vec::new();
    let mut traced: Vec<Round> = Vec::new();
    let min_rounds = if args.trace { 1 } else { MIN_ROUNDS };
    // The peak after the first round: later rounds repeat it, and only grow
    // the process's heap by fragmentation as their number varies.
    let mut peak_rss_mb = None;
    loop {
        // Traced runs alternate the order within each pair (traced, plain,
        // plain, traced, ...).  A single pair puts the process's own warm-up
        // on the traced round, so the overhead it reports errs high.
        if args.trace && traced.len().is_multiple_of(2) {
            traced.push(run_round(&args.workload, args.seed, true)?);
            plain.push(run_round(&args.workload, args.seed, false)?);
        } else {
            plain.push(run_round(&args.workload, args.seed, false)?);
            if args.trace {
                traced.push(run_round(&args.workload, args.seed, true)?);
            }
        }
        if peak_rss_mb.is_none() {
            peak_rss_mb = Some(clock::peak_rss_mb()?);
        }
        let done = plain.len() >= min_rounds && started.elapsed().as_secs_f64() >= args.seconds;
        if done || plain.len() + traced.len() >= MAX_ROUNDS {
            break;
        }
    }

    let first = &plain[0];
    let mut correct = true;
    for (i, r) in plain.iter().chain(&traced).enumerate().skip(1) {
        if r.digest != first.digest {
            let (a, b) = first
                .digest
                .lines()
                .zip(r.digest.lines())
                .find(|(a, b)| a != b)
                .unwrap_or(("(shorter)", "(longer)"));
            eprintln!("determinism guard: round {i} differs from round 0:\n  {a}\n  {b}");
            correct = false;
        }
    }
    let attempted = first.verdicts.len();
    let failed = first.verdicts.iter().filter(|v| !v.ok).count();
    for v in first.verdicts.iter().filter(|v| !v.ok).take(20) {
        let got = v.completed.map_or("never arrived".to_string(), |c| format!("completed {c}"));
        eprintln!("  failed: due {} ({got}, completeness {:.3})", v.due, v.completeness);
    }
    if attempted == 0 {
        return Err("the workload expected no answers".into());
    }
    if failed == attempted {
        eprintln!("every expected answer was missing or wrong");
        correct = false;
    }
    eprintln!(
        "{}: seed {} — {} plain and {} traced rounds; {attempted} answers expected, {failed} missing or wrong",
        args.workload,
        args.seed,
        plain.len(),
        traced.len()
    );

    let metrics = if args.trace {
        print_coverage(&args.workload, &traced[0]);
        report::per_layer(&plain, &traced)
    } else {
        report::end_to_end(&plain, peak_rss_mb.expect("one round ran"))?
    };
    let per_round = |f: fn(&Round) -> f64| {
        plain.iter().map(|r| format!("{:.3}", f(r))).collect::<Vec<_>>().join(" ")
    };
    if let Some(r) = plain.iter().find(|r| r.generator_late_ms > 0.0) {
        eprintln!("open-loop generator ran up to {} ms late", r.generator_late_ms);
    }
    eprintln!(
        "CPU s per plain round, raw / normalized: set-up {} / {}; measured {} / {}",
        per_round(|r| r.setup.cpu_s),
        per_round(|r| r.setup.normalized_s()),
        per_round(|r| r.measured.cpu_s),
        per_round(|r| r.measured.normalized_s())
    );
    for m in &metrics {
        println!("{} = {} {}", m.name, m.value, m.unit);
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        json_metrics(&metrics)
    );
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("pierbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("pierbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_optimisable_layer_is_exercised_by_one_workload_and_bypassed_by_another() {
        for layer in
            ["simnet", "dht.maint", "dht.store", "engine.install", "engine.epoch", "engine.join"]
        {
            let large = COVERAGE.iter().filter(|(_, l, _)| l.contains(&layer)).count();
            let small = COVERAGE.iter().filter(|(_, _, s)| s.contains(&layer)).count();
            assert!(large >= 1, "{layer} is exercised by no workload");
            // The simulator loop runs under every workload; monitor_joins
            // holds it to about a third of its fig1_churn share.
            assert!(small >= 1 || layer == "simnet", "{layer} is bypassed by no workload");
        }
        for (w, _, _) in COVERAGE {
            assert!(WORKLOADS.contains(&w));
        }
    }
}
