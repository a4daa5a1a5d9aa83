//! Reference answers and the rules that judge the system's answers.
//!
//! Every reference is built from the benchmark's own publish log and churn
//! schedule, never from the system's own counters.  An answer is *ok* when it
//! equals the reference on a healthy network, or — while nodes are down — when
//! it is merely *sound*: everything it contains could have been produced from
//! the data that was published.

use pier_core::{MemoryDb, Tuple};
use pier_simnet::{Duration, SimTime};
use std::collections::HashMap;

/// The judgement of one expected answer.
#[derive(Clone, Debug, PartialEq)]
pub struct Verdict {
    /// When the answer was due (epoch start, or scheduled submit time).
    pub due: SimTime,
    /// When the answer last changed at the origin; `None` if it never arrived.
    pub completed: Option<SimTime>,
    /// Present and right (or, under churn, present and sound).
    pub ok: bool,
    /// Fraction of the reference answer delivered (0 when missing or unsound).
    pub completeness: f64,
}

impl Verdict {
    /// Simulated milliseconds from due to completion, if it completed.
    pub fn latency_ms(&self) -> Option<f64> {
        self.completed.map(|c| c.saturating_since(self.due).as_micros() as f64 / 1000.0)
    }
}

/// The `q`-quantile of `samples` by nearest rank, reported only when at least
/// ten samples lie beyond it (so a tail percentile rests on a tail).
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    let rank = ((q * n as f64).ceil() as usize).max(1);
    if n == 0 || n - rank < 10 {
        return None;
    }
    Some(s[rank - 1])
}

/// Whether a tuple stored at `at` is seen by a scan at `scan` over a
/// `window` of a table whose soft state lives for `ttl`.  Workloads publish
/// well away from epoch boundaries, so the routing delay between publish and
/// store never moves a tuple across this boundary.
pub fn visible(at: SimTime, scan: SimTime, window: Duration, ttl: Duration) -> bool {
    at <= scan && at + ttl > scan && at.as_micros() + window.as_micros() >= scan.as_micros()
}

// ---------------------------------------------------------------------------
// Figure 1: SUM and COUNT over live hosts' readings
// ---------------------------------------------------------------------------

/// One `netstats` reading a host stored locally.
#[derive(Clone, Copy, Debug)]
pub struct Reading {
    /// Host index (its node address).
    pub host: usize,
    /// Publish time.
    pub at: SimTime,
    /// The `out_rate` value.
    pub value: f64,
}

/// A host's down period `[from, until)`.
#[derive(Clone, Copy, Debug)]
pub struct Downtime {
    /// Host index.
    pub host: usize,
    /// Failure time.
    pub from: SimTime,
    /// Recovery time.
    pub until: SimTime,
}

/// What the Figure-1 query should answer for one epoch.
#[derive(Clone, Debug, PartialEq)]
pub struct SumCountExpect {
    /// SUM over the readings of hosts alive since publishing them.
    pub sum: f64,
    /// COUNT of those readings.
    pub count: i64,
    /// Every reading published in the window, ascending: the answer must be
    /// the SUM and COUNT of some subset of these.
    pub published: Vec<f64>,
    /// Some host was down during the window or while the answer was formed.
    pub degraded: bool,
}

/// Reference for a windowed `SUM(x), COUNT(*)` over locally stored readings.
pub fn sum_count_expect(
    readings: &[Reading],
    downtime: &[Downtime],
    scan: SimTime,
    window: Duration,
    ttl: Duration,
    settled: SimTime,
) -> SumCountExpect {
    let overlaps = |host: Option<usize>, from: SimTime, until: SimTime| {
        downtime
            .iter()
            .any(|d| host.is_none_or(|h| h == d.host) && d.from <= until && d.until > from)
    };
    let mut sum = 0.0;
    let mut count = 0;
    let mut published = Vec::new();
    for r in readings.iter().filter(|r| visible(r.at, scan, window, ttl)) {
        published.push(r.value);
        // A restart wipes the host's store: the reading survives only if its
        // host stayed up from publishing to the scan.
        if !overlaps(Some(r.host), r.at, scan) {
            sum += r.value;
            count += 1;
        }
    }
    published.sort_by(f64::total_cmp);
    let window_start = SimTime::from_micros(scan.as_micros().saturating_sub(window.as_micros()));
    SumCountExpect { sum, count, published, degraded: overlaps(None, window_start, settled) }
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-6 * a.abs().max(b.abs()).max(1.0)
}

/// Judge a `(SUM, COUNT)` answer; `None` is a missing answer.  Returns
/// `(ok, completeness)`.
pub fn judge_sum_count(exp: &SumCountExpect, got: Option<(f64, i64)>) -> (bool, f64) {
    let Some((sum, count)) = got else { return (false, 0.0) };
    let n = exp.published.len();
    let sound = count >= 0 && (count as usize) <= n && {
        let k = count as usize;
        let lo: f64 = exp.published[..k].iter().sum();
        let hi: f64 = exp.published[n - k..].iter().sum();
        (sum >= lo || close(sum, lo)) && (sum <= hi || close(sum, hi))
    };
    if !sound {
        return (false, 0.0);
    }
    let completeness =
        if exp.count == 0 { 1.0 } else { (count as f64 / exp.count as f64).min(1.0) };
    let exact = count == exp.count && close(sum, exp.sum);
    (exact || exp.degraded, completeness)
}

// ---------------------------------------------------------------------------
// Row-set answers (monitoring joins, keyword search)
// ---------------------------------------------------------------------------

fn row_counts(rows: &[Tuple]) -> HashMap<String, i64> {
    let mut counts = HashMap::new();
    for t in rows {
        *counts.entry(format!("{t}")).or_insert(0) += 1;
    }
    counts
}

/// Judge a row-set answer on a healthy network: it is ok only if it equals
/// `expected` as a multiset.  Completeness is the share of expected rows
/// delivered.
pub fn judge_rows(expected: &[Tuple], got: Option<&[Tuple]>) -> (bool, f64) {
    let Some(got) = got else { return (false, 0.0) };
    let mut want = row_counts(expected);
    let mut matched = 0;
    for t in got {
        if let Some(c) = want.get_mut(&format!("{t}")).filter(|c| **c > 0) {
            *c -= 1;
            matched += 1;
        }
    }
    let completeness =
        if expected.is_empty() { 1.0 } else { matched as f64 / expected.len() as f64 };
    (matched == expected.len() && got.len() == expected.len(), completeness)
}

/// Judge a search answer against the rows that must be in it (`required`:
/// published long enough before the search) and the rows that may be in it
/// (`allowed`: published at any time, `required` included).  A row outside
/// `allowed`, or repeated more often than published, makes it unsound.
pub fn judge_search(required: &[Tuple], allowed: &[Tuple], got: Option<&[Tuple]>) -> (bool, f64) {
    let Some(got) = got else { return (false, 0.0) };
    let mut may = row_counts(allowed);
    for t in got {
        match may.get_mut(&format!("{t}")) {
            Some(c) if *c > 0 => *c -= 1,
            _ => return (false, 0.0),
        }
    }
    let (_, completeness) = judge_rows(required, Some(got));
    (completeness == 1.0, completeness)
}

/// One publication of base-table rows, for per-epoch reference snapshots.
#[derive(Clone, Debug)]
pub struct Publication {
    /// Table name.
    pub table: &'static str,
    /// Publish time.
    pub at: SimTime,
    /// The table's soft-state lifetime.
    pub ttl: Duration,
    /// The rows.
    pub rows: Vec<Tuple>,
}

/// The centralized database a scan at `scan` over `window` sees.
pub fn snapshot(log: &[Publication], scan: SimTime, window: Duration) -> MemoryDb {
    let mut db = MemoryDb::new();
    for p in log.iter().filter(|p| visible(p.at, scan, window, p.ttl)) {
        db.insert(p.table, p.rows.iter().cloned());
    }
    db
}

#[cfg(test)]
mod tests {
    use super::*;
    use pier_core::Value;

    fn s(secs: f64) -> SimTime {
        SimTime::from_micros((secs * 1e6) as u64)
    }

    fn row(name: &str, n: i64) -> Tuple {
        Tuple::new(vec![Value::str(name), Value::Int(n)])
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 0.5), Some(50.0));
        assert_eq!(percentile(&hundred, 0.9), Some(90.0));
        assert_eq!(percentile(&hundred[..99], 0.9), None, "only 9 samples beyond p90");
        assert_eq!(percentile(&[], 0.5), None);
        // Order of the input does not matter.
        let mut shuffled = hundred.clone();
        shuffled.reverse();
        assert_eq!(percentile(&shuffled, 0.9), Some(90.0));
    }

    #[test]
    fn visibility_respects_window_ttl_and_scan_time() {
        let w = Duration::from_secs(10);
        let ttl = Duration::from_secs(30);
        assert!(visible(s(2.5), s(10.001), w, ttl));
        assert!(!visible(s(0.0), s(10.001), w, ttl), "older than the window");
        assert!(!visible(s(12.5), s(10.001), w, ttl), "published after the scan");
        assert!(!visible(s(2.5), s(40.0), Duration::from_secs(600), ttl), "expired");
    }

    fn fig1_case() -> (Vec<Reading>, Vec<Downtime>) {
        // Three hosts, two readings each inside the window; host 2 fails
        // after publishing and is still down at the scan.
        let readings = vec![
            Reading { host: 0, at: s(2.5), value: 10.0 },
            Reading { host: 1, at: s(2.5), value: 20.0 },
            Reading { host: 2, at: s(2.5), value: 40.0 },
            Reading { host: 0, at: s(7.5), value: 11.0 },
            Reading { host: 1, at: s(7.5), value: 21.0 },
            Reading { host: 2, at: s(7.5), value: 41.0 },
        ];
        let down = vec![Downtime { host: 2, from: s(8.0), until: s(30.0) }];
        (readings, down)
    }

    #[test]
    fn sum_count_reference_drops_hosts_that_failed() {
        let (readings, down) = fig1_case();
        let w = Duration::from_secs(10);
        let ttl = Duration::from_secs(30);
        let exp = sum_count_expect(&readings, &down, s(10.001), w, ttl, s(15.0));
        assert_eq!(exp.count, 4);
        assert_eq!(exp.sum, 62.0);
        assert_eq!(exp.published, vec![10.0, 11.0, 20.0, 21.0, 40.0, 41.0]);
        assert!(exp.degraded);

        // Healthy epoch before the failure window: everything counts.
        let healthy = sum_count_expect(&readings, &[], s(10.001), w, ttl, s(15.0));
        assert_eq!((healthy.sum, healthy.count), (143.0, 6));
        assert!(!healthy.degraded);
    }

    #[test]
    fn sum_count_judge_accepts_sound_partial_and_rejects_over_count() {
        let (readings, down) = fig1_case();
        let exp = sum_count_expect(
            &readings,
            &down,
            s(10.001),
            Duration::from_secs(10),
            Duration::from_secs(30),
            s(15.0),
        );
        // Exact answer.
        assert_eq!(judge_sum_count(&exp, Some((62.0, 4))), (true, 1.0));
        // Under churn a partial but sound answer is ok, with its completeness.
        assert_eq!(judge_sum_count(&exp, Some((31.0, 2))), (true, 0.5));
        // Still including the failed host's readings is sound (they were published).
        assert_eq!(judge_sum_count(&exp, Some((143.0, 6))), (true, 1.0));
        // Over-count: a SUM no subset of two published readings can reach.
        assert_eq!(judge_sum_count(&exp, Some((90.0, 2))), (false, 0.0));
        // Over-count: more readings than were ever published.
        assert_eq!(judge_sum_count(&exp, Some((143.0, 7))), (false, 0.0));
        // Missing.
        assert_eq!(judge_sum_count(&exp, None), (false, 0.0));

        // On a healthy network any deviation is wrong, even a sound one.
        let healthy = SumCountExpect { degraded: false, ..exp };
        assert_eq!(judge_sum_count(&healthy, Some((31.0, 2))), (false, 0.5));
        assert_eq!(judge_sum_count(&healthy, Some((62.0, 4))), (true, 1.0));
    }

    #[test]
    fn row_judge_is_multiset_equality_with_partial_credit() {
        let expected = vec![row("a", 1), row("b", 2), row("b", 2), row("c", 3)];
        let mut got = expected.clone();
        got.reverse();
        assert_eq!(judge_rows(&expected, Some(&got)), (true, 1.0));
        assert_eq!(judge_rows(&expected, Some(&got[..2])), (false, 0.5));
        let wrong = vec![row("a", 1), row("b", 2), row("b", 2), row("c", 4)];
        assert_eq!(judge_rows(&expected, Some(&wrong)), (false, 0.75));
        assert_eq!(judge_rows(&expected, None), (false, 0.0));
    }

    #[test]
    fn row_judge_matches_the_reference_evaluator() {
        let log = vec![
            Publication {
                table: "t",
                at: s(1.0),
                ttl: Duration::from_secs(30),
                rows: vec![row("a", 1), row("a", 2)],
            },
            Publication {
                table: "t",
                at: s(6.0),
                ttl: Duration::from_secs(30),
                rows: vec![row("b", 5)],
            },
            Publication {
                table: "t",
                at: s(40.0),
                ttl: Duration::from_secs(30),
                rows: vec![row("late", 9)],
            },
        ];
        let db = snapshot(&log, s(10.0), Duration::from_secs(600));
        assert_eq!(db.rows("t").len(), 3);
        // Hand-computed: the scan at 10 s sees the first two publications.
        assert!(pier_core::same_rows(db.rows("t"), &[row("a", 1), row("a", 2), row("b", 5)]));
        let db = snapshot(&log, s(10.0), Duration::from_secs(5));
        assert!(pier_core::same_rows(db.rows("t"), &[row("b", 5)]));
    }

    #[test]
    fn search_judge_separates_required_optional_and_unsound_rows() {
        let required = vec![row("f1", 1), row("f2", 2)];
        let allowed = vec![row("f1", 1), row("f2", 2), row("f3-new", 3)];
        assert_eq!(judge_search(&required, &allowed, Some(&required)), (true, 1.0));
        // A file published just before the search may be included.
        let with_new = vec![row("f1", 1), row("f2", 2), row("f3-new", 3)];
        assert_eq!(judge_search(&required, &allowed, Some(&with_new)), (true, 1.0));
        // Missing a required file.
        assert_eq!(judge_search(&required, &allowed, Some(&required[..1])), (false, 0.5));
        // A duplicate or an unpublished file is unsound.
        let dup = vec![row("f1", 1), row("f1", 1), row("f2", 2)];
        assert_eq!(judge_search(&required, &allowed, Some(&dup)), (false, 0.0));
        let bogus = vec![row("f1", 1), row("f2", 2), row("nope", 0)];
        assert_eq!(judge_search(&required, &allowed, Some(&bogus)), (false, 0.0));
    }

    #[test]
    fn latency_is_measured_from_the_due_time() {
        let v = Verdict { due: s(10.0), completed: Some(s(10.25)), ok: true, completeness: 1.0 };
        assert_eq!(v.latency_ms(), Some(250.0));
        let missing = Verdict { completed: None, ..v };
        assert_eq!(missing.latency_ms(), None);
    }
}
