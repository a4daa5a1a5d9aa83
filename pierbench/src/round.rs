//! One round of a workload: set-up, then the measured phase, with the
//! numbers each phase leaves behind.

use crate::clock::process_cpu_s;
use crate::deploy::{Calibration, Deployment, HarnessClock, Totals};
use crate::judge::Verdict;
use crate::layers::{Host, Tally};
use pier_core::engine::EngineStats;
use pier_simnet::MetricsSnapshot;
use std::time::Instant;

/// CPU, wall time, harness timing and (traced runs) handler time of a phase.
#[derive(Clone, Debug, Default)]
pub struct PhaseStats {
    /// Process CPU seconds, calibration left out.
    pub cpu_s: f64,
    /// Mean CPU seconds of the calibration units timed during the phase.
    pub cal_unit_s: f64,
    /// Wall nanoseconds, calibration left out.
    pub wall_ns: f64,
    /// Harness call timing.
    pub clock: HarnessClock,
    /// Handler time per layer (traced runs only).
    pub tally: Option<Tally>,
}

impl PhaseStats {
    /// The phase's CPU seconds normalized to the calibration reference
    /// speed: how fast the shared machine ran during the phase cancels out.
    pub fn normalized_s(&self) -> f64 {
        self.cpu_s * crate::clock::CAL_REF_S / self.cal_unit_s
    }
}

/// Marks the start of a phase.
pub struct Meter {
    cpu: f64,
    wall: Instant,
    clock: HarnessClock,
    tally: Option<Tally>,
    calibration: Calibration,
}

impl Meter {
    /// Start a phase before the deployment exists.
    pub fn start_fresh() -> Meter {
        Meter {
            cpu: process_cpu_s(),
            wall: Instant::now(),
            clock: HarnessClock::default(),
            tally: Some(Tally::default()),
            calibration: Calibration::default(),
        }
    }

    /// Start a phase on a running deployment.
    pub fn start<N: Host + 'static>(d: &Deployment<N>) -> Meter {
        Meter {
            cpu: process_cpu_s(),
            wall: Instant::now(),
            clock: d.clock,
            tally: d.tally.as_ref().map(|t| t.borrow().clone()),
            calibration: d.calibration,
        }
    }

    /// End the phase.
    pub fn stop<N: Host + 'static>(self, d: &Deployment<N>) -> PhaseStats {
        let wall = self.wall.elapsed().as_nanos() as f64;
        let end = process_cpu_s();
        let cal = &d.calibration;
        let spent_s = cal.spent_s - self.calibration.spent_s;
        let units = cal.units - self.calibration.units;
        assert!(units > 0, "a phase spans at least one simulated second");
        let tally = match (&d.tally, &self.tally) {
            (Some(now), Some(then)) => Some(now.borrow().since(then)),
            _ => None,
        };
        PhaseStats {
            cpu_s: end - self.cpu - spent_s,
            cal_unit_s: (cal.unit_s - self.calibration.unit_s) / units as f64,
            // Calibration is single-threaded CPU work: its wall time is its
            // CPU time.
            wall_ns: wall - spent_s * 1e9,
            clock: d.clock.since(&self.clock),
            tally,
        }
    }
}

/// Measured-phase changes of the engine counters the report reads.
#[derive(Clone, Copy, Debug, Default)]
pub struct EngineDelta {
    pub messages_sent: u64,
    pub bytes_shipped: u64,
    pub tuples_scanned: u64,
    pub epochs_run: u64,
    pub join_tuples_sent: u64,
    pub join_matches: u64,
    pub bloom_tested: u64,
    pub bloom_passed: u64,
    pub partials_sent: u64,
    pub plan_cache_hits: u64,
    pub plan_cache_misses: u64,
    pub deliveries: u64,
    pub delivery_hops: u64,
}

impl EngineDelta {
    /// `after - before`.
    pub fn between(before: &Totals, after: &Totals) -> EngineDelta {
        let (a, b): (&EngineStats, &EngineStats) = (&after.engine, &before.engine);
        EngineDelta {
            messages_sent: a.messages_sent - b.messages_sent,
            bytes_shipped: a.bytes_shipped - b.bytes_shipped,
            tuples_scanned: a.tuples_scanned - b.tuples_scanned,
            epochs_run: a.epochs_run - b.epochs_run,
            join_tuples_sent: a.join_tuples_sent - b.join_tuples_sent,
            join_matches: a.join_matches - b.join_matches,
            bloom_tested: a.bloom_tested - b.bloom_tested,
            bloom_passed: a.bloom_passed - b.bloom_passed,
            partials_sent: a.partials_sent - b.partials_sent,
            plan_cache_hits: a.plan_cache_hits - b.plan_cache_hits,
            plan_cache_misses: a.plan_cache_misses - b.plan_cache_misses,
            deliveries: after.deliveries - before.deliveries,
            delivery_hops: after.delivery_hops - before.delivery_hops,
        }
    }
}

/// Everything one round of a workload produced.
#[derive(Clone, Debug)]
pub struct Round {
    /// Boot, warm-up and provisioning.
    pub setup: PhaseStats,
    /// The measured phase.
    pub measured: PhaseStats,
    /// Simulated seconds of the measured phase.
    pub virtual_s: f64,
    /// One verdict per expected answer.
    pub verdicts: Vec<Verdict>,
    /// Simulator traffic during the measured phase.
    pub wire: MetricsSnapshot,
    /// Engine and DHT counters during the measured phase.
    pub engine: EngineDelta,
    /// Items in live hosts' DHT stores at the end.
    pub store_items: u64,
    /// How late the open-loop generator issued requests, simulated ms.
    pub generator_late_ms: f64,
    /// Every deterministic quantity of the round (traffic, engine counters,
    /// answers): equal seeds must give equal digests, traced or not.
    pub digest: String,
}

/// Close a round: collect counters and the deterministic digest.
#[allow(clippy::too_many_arguments)]
pub fn finish<N: Host + 'static>(
    d: &Deployment<N>,
    setup: PhaseStats,
    measured: PhaseStats,
    virtual_s: f64,
    wire_before: MetricsSnapshot,
    totals_before: &Totals,
    verdicts: Vec<Verdict>,
    answers: &[Option<Vec<pier_core::Tuple>>],
    generator_late_ms: f64,
) -> Round {
    let totals = d.totals();
    let wire = d.wire().delta(&wire_before);
    let mut digest = format!("{:?}\n{:?}\n", d.wire(), totals.engine);
    for v in &verdicts {
        digest.push_str(&format!("{v:?}\n"));
    }
    for a in answers {
        match a {
            None => digest.push_str("-\n"),
            Some(rows) => {
                let mut rows: Vec<String> = rows.iter().map(|t| format!("{t}")).collect();
                rows.sort();
                digest.push_str(&rows.join(";"));
                digest.push('\n');
            }
        }
    }
    Round {
        setup,
        measured,
        virtual_s,
        verdicts,
        wire,
        engine: EngineDelta::between(totals_before, &totals),
        store_items: d.store_items(),
        generator_late_ms,
        digest,
    }
}
