//! `search_publish`: open-loop keyword search while files keep arriving.
//!
//! 100 hosts bulk-publish a Zipf filesharing corpus (`FileCorpus`).  During
//! the measured phase new files arrive every second through the DHT put path
//! while one-shot keyword searches are issued on a fixed simulated-time
//! schedule (open loop), each from a seeded origin.  With corpus statistics
//! installed the planner resolves each search to a Fetch-Matches join, so
//! query install and scan, per-query planning and broadcast, and DHT `Get`
//! probes dominate; continuous-query machinery is idle.

use crate::deploy::{advance, AnswerBook, Deployment, Expected, OpenLoop};
use crate::judge::{judge_search, Verdict};
use crate::layers::Host;
use crate::round::{finish, Meter, Round};
use pier_apps::filesharing::{files_table, keywords_table, FileCorpus, VOCABULARY};
use pier_bench::experiment_config;
use pier_core::{PierConfig, Tuple};
use pier_simnet::{DetRng, Duration, NodeAddr, SimTime};
use std::collections::BTreeMap;

const NODES: usize = 100;
const WARMUP_S: u64 = 40;
const CORPUS: usize = 2_000;
/// Files arriving per second during the measured phase.
const ARRIVALS_PER_S: usize = 5;
const SECONDS: u64 = 60;
/// Searches are due every 400 ms, offset 200 ms from the arrivals.
const SEARCH_EVERY_MS: u64 = 400;
/// A file published at least this long before a search is due must be found.
const GRACE_MS: u64 = 1_000;
const HORIZON_S: u64 = 10;

/// Publish files (and their postings) from their owners' hosts, one batch
/// per owner and table.
fn publish_files<N: Host + 'static>(d: &mut Deployment<N>, files: &[(Tuple, Vec<Tuple>)]) {
    let mut by_owner: BTreeMap<u32, (Vec<Tuple>, Vec<Tuple>)> = BTreeMap::new();
    for (file, postings) in files {
        let owner = file.get(2).as_str().expect("owner is a host name");
        let idx: u32 = owner.trim_start_matches("planetlab-").parse().expect("numbered host");
        let slot = by_owner.entry(idx).or_default();
        slot.0.push(file.clone());
        slot.1.extend(postings.iter().cloned());
    }
    for (idx, (f, p)) in by_owner {
        d.publish_batch(NodeAddr(idx), "files", f);
        d.publish_batch(NodeAddr(idx), "keywords", p);
    }
}

/// The result row a search returns for a file: `(name, owner, size_kb)`.
fn result_row(file: &Tuple) -> Tuple {
    file.project(&[1, 2, 3])
}

/// The keywords of `n` searches: Zipf(0.9) popularity over the vocabulary
/// in exact proportions (largest remainder), in seeded order, so every seed
/// runs the same mix of cheap and expensive searches.
fn keyword_schedule(rng: &mut DetRng, n: usize) -> Vec<&'static str> {
    let w: Vec<f64> = (1..=VOCABULARY.len()).map(|k| 1.0 / (k as f64).powf(0.9)).collect();
    let total: f64 = w.iter().sum();
    let exact: Vec<f64> = w.iter().map(|x| x / total * n as f64).collect();
    let mut counts: Vec<usize> = exact.iter().map(|x| x.floor() as usize).collect();
    let mut by_remainder: Vec<usize> = (0..w.len()).collect();
    by_remainder
        .sort_by(|&a, &b| (exact[b] - exact[b].floor()).total_cmp(&(exact[a] - exact[a].floor())));
    let short = n - counts.iter().sum::<usize>();
    for &k in &by_remainder[..short] {
        counts[k] += 1;
    }
    let mut out: Vec<&'static str> = counts
        .iter()
        .enumerate()
        .flat_map(|(k, &c)| std::iter::repeat_n(VOCABULARY[k], c))
        .collect();
    rng.shuffle(&mut out);
    out
}

/// Run one round.
pub fn run<N: Host + 'static>(
    seed: u64,
    boot: impl FnOnce(usize, u64, PierConfig, Duration) -> Deployment<N>,
) -> Result<Round, String> {
    let arrivals = ARRIVALS_PER_S * SECONDS as usize;
    let corpus = FileCorpus::generate(CORPUS + arrivals, NODES, seed);
    let mut postings: Vec<Vec<Tuple>> = vec![Vec::new(); CORPUS + arrivals];
    for p in corpus.postings() {
        let id = p.get(1).as_i64().expect("file id") as usize;
        postings[id].push(p.clone());
    }
    let files: Vec<(Tuple, Vec<Tuple>)> = corpus.files().iter().cloned().zip(postings).collect();

    let setup_meter = Meter::start_fresh();
    let mut d =
        boot(NODES, crate::TESTBED_SEED, experiment_config(), Duration::from_secs(WARMUP_S));
    d.create_table_everywhere(&files_table());
    d.create_table_everywhere(&keywords_table());
    d.set_table_stats_everywhere("files", corpus.files_stats());
    d.set_table_stats_everywhere("keywords", corpus.keywords_stats());
    // (publish time, file row, keywords) of every file, for the reference.
    let mut published: Vec<(SimTime, Tuple, Vec<String>)> = Vec::new();
    let note = |at: SimTime, batch: &[(Tuple, Vec<Tuple>)], log: &mut Vec<_>| {
        for (f, ps) in batch {
            let kws = ps.iter().map(|p| p.get(0).as_str().expect("keyword").to_string()).collect();
            log.push((at, result_row(f), kws));
        }
    };
    note(d.now(), &files[..CORPUS], &mut published);
    publish_files(&mut d, &files[..CORPUS]);
    let t0 = SimTime::from_secs(d.now().as_secs() + 10);
    d.run_until(t0);
    let setup = setup_meter.stop(&d);

    let meter = Meter::start(&d);
    let wire_before = d.wire();
    let totals_before = d.totals();
    let mut book = AnswerBook::new(Duration::from_secs(HORIZON_S));
    let mut rng = DetRng::new(seed).stream(0x5EA2);
    let n_searches = SECONDS * 1000 / SEARCH_EVERY_MS;
    let due: Vec<SimTime> = (0..n_searches)
        .map(|i| t0 + Duration::from_millis(SEARCH_EVERY_MS / 2 + i * SEARCH_EVERY_MS))
        .collect();
    let mut searches = OpenLoop::new(due);
    let schedule = keyword_schedule(&mut rng, n_searches as usize);
    let mut keywords = Vec::new();
    let mut next_batch = 0u64;
    loop {
        let next_arrival = (next_batch < SECONDS).then(|| t0 + Duration::from_secs(next_batch));
        let Some(next) = [next_arrival, searches.next_due()].into_iter().flatten().min() else {
            break;
        };
        advance(&mut d, &mut book, next);
        if next_arrival == Some(d.now()) {
            let lo = CORPUS + next_batch as usize * ARRIVALS_PER_S;
            let batch = &files[lo..lo + ARRIVALS_PER_S];
            note(d.now(), batch, &mut published);
            publish_files(&mut d, batch);
            next_batch += 1;
        }
        for due in searches.take_due(d.now()) {
            let kw = schedule[keywords.len()];
            let origin = NodeAddr(rng.index(NODES) as u32);
            let query = d.submit_sql(origin, &FileCorpus::probe_search_sql(kw))?;
            book.expect(Expected { origin, query, epoch: 0, due });
            keywords.push(kw);
        }
    }
    let end = t0 + Duration::from_secs(SECONDS + HORIZON_S);
    advance(&mut d, &mut book, end);
    let measured = meter.stop(&d);

    let answers = book.answers(&d);
    let mut verdicts = Vec::new();
    for (((e, completed), answer), kw) in
        book.expected().iter().zip(book.completed()).zip(&answers).zip(&keywords)
    {
        let with_kw = published.iter().filter(|(_, _, kws)| kws.iter().any(|k| k == kw));
        let allowed: Vec<Tuple> = with_kw.clone().map(|(_, row, _)| row.clone()).collect();
        let required: Vec<Tuple> = with_kw
            .filter(|(at, _, _)| *at + Duration::from_millis(GRACE_MS) <= e.due)
            .map(|(_, row, _)| row.clone())
            .collect();
        let (ok, completeness) = judge_search(&required, &allowed, answer.as_deref());
        verdicts.push(Verdict { due: e.due, completed: *completed, ok, completeness });
    }
    let virtual_s = end.saturating_since(t0).as_secs_f64();
    let late_ms = searches.max_late.as_micros() as f64 / 1000.0;
    Ok(finish(
        &d,
        setup,
        measured,
        virtual_s,
        wire_before,
        &totals_before,
        verdicts,
        &answers,
        late_ms,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keyword_schedule_has_exact_zipf_counts() {
        let a = keyword_schedule(&mut DetRng::new(1), 150);
        let b = keyword_schedule(&mut DetRng::new(2), 150);
        assert_eq!(a.len(), 150);
        let count = |v: &[&str], k: &str| v.iter().filter(|x| **x == k).count();
        for k in VOCABULARY {
            assert_eq!(count(&a, k), count(&b, k), "{k}");
        }
        assert!(count(&a, VOCABULARY[0]) > count(&a, VOCABULARY[19]));
        assert_ne!(a, b, "the seed orders the schedule");
    }
}
