//! `ingest`: one closed-loop writer and no concurrent reads. Each
//! episode opens a fresh engine and writes 6 simulated hours of scrape
//! rounds at a 10 s interval, enough for flushes and both compaction
//! kinds to cycle several times. Episodes repeat until the run's time is
//! up; every episode of a seed must leave the same `state_digest`.
//!
//! After each episode a verify pass reads 300 seeded-picked timeseries
//! back over their whole range, three times, and checks them sample for
//! sample; those reads are this workload's query population.

use std::path::Path;
use std::time::Instant;

use crate::layers::{check_profiles, Books, Layers, QueryProbe, WriteProbe};
use crate::measure::{
    closed_loop_writes, end_to_end, fastest_median, ms, Metric, QueryMark, QueryPhase, Tally,
    WriteMark, WritePhase, WRITE_CHUNK,
};
use crate::oracle::{Oracle, Query};
use crate::workload::{generator, Picks, Store, HOSTS, ROUND_SAMPLES, SERIES_HOSTS};
use tu_tsbs::devops::METRICS_PER_HOST;

const INTERVAL_MS: i64 = 10_000;
const HOURS: i64 = 6;

/// Timeseries one verify pass reads back: individual series and group
/// members in a fixed 3:1 mix. A group member costs about ten times a
/// series to read (its chunks hold all 101 columns), so a fixed mix keeps
/// the latency median inside one mode.
const VERIFY_SERIES: usize = 225;
const VERIFY_MEMBERS: usize = 75;
/// Verify passes per episode: the query metrics take each read's fastest
/// pass, so more passes find the fast CPU mode more often.
const VERIFY_PASSES: usize = 3;

/// Reads timeseries picked by `seed` back over `[0, last written round]`,
/// `passes` times in the same order, checking each result against the
/// generator. With `probe`, the reads
/// are profiled and the profiles' object Gets are checked against the
/// tier's books.
pub fn verify_pass(
    store: &Store,
    last_step: i64,
    seed: u64,
    passes: usize,
    tally: &mut Tally,
    mut probe: Option<&mut QueryProbe>,
) -> QueryPhase {
    let gen = &store.gen;
    let oracle = Oracle::new(gen);
    let mut picks = Picks::new(seed);
    let mut pick = |hosts: std::ops::Range<usize>, n: usize| {
        let mut all: Vec<(usize, usize)> = hosts
            .flat_map(|h| (0..METRICS_PER_HOST).map(move |m| (h, m)))
            .collect();
        for i in (1..all.len()).rev() {
            all.swap(i, (picks.next() % (i as u64 + 1)) as usize);
        }
        all.truncate(n);
        all
    };
    let series = pick(0..SERIES_HOSTS, VERIFY_SERIES);
    let members = pick(SERIES_HOSTS..HOSTS, VERIFY_MEMBERS);
    let order: Vec<(usize, usize)> = series
        .chunks(VERIFY_SERIES / VERIFY_MEMBERS)
        .zip(&members)
        .flat_map(|(s, m)| s.iter().chain([m]))
        .copied()
        .collect();
    let end = gen.ts_of(last_step) + 1;
    let books = probe.as_ref().map(|_| Books::take(store));
    let gets = probe.as_ref().map_or(0, |p| p.object_gets);
    let mark = QueryMark::take(store);
    let mut phase = QueryPhase::default();
    for &(host, metric) in order.iter().cycle().take(passes * order.len()) {
        let q = Query::series(gen, host, metric, 0, end);
        let t = Instant::now();
        let out = q.run(&store.db, probe.as_deref_mut());
        let took = t.elapsed();
        if let Some(out) = tally.op("verify query", out) {
            phase.timings.call(ms(took));
            tally.judge(oracle.check(gen, &q, &out, last_step));
        }
    }
    phase.close(store, &mark);
    if let (Some(probe), Some(books)) = (probe, books) {
        let delta = books.check(store, tally, "verify pass");
        check_profiles(probe.object_gets - gets, &delta, tally, "verify pass");
        probe.add_registry(&delta);
    }
    phase
}

struct Episode {
    setup_s: f64,
    write: WritePhase,
    verify: QueryPhase,
}

/// One episode in a fresh engine. With `layers`, the writes and the
/// verify pass are traced and their per-layer metrics recorded.
fn episode(
    dir: &Path,
    seed: u64,
    tally: &mut Tally,
    digests: &mut Vec<String>,
    mut layers: Option<&mut Layers>,
) -> Option<Episode> {
    let gen = generator(seed, INTERVAL_MS, HOURS);
    let steps = gen.steps();
    let t = Instant::now();
    let store = tally.op("open and register", Store::open(dir, gen))?;
    let setup_s = t.elapsed().as_secs_f64();
    let traced = layers.is_some();
    let books = traced.then(|| Books::take(&store));
    let mark = WriteMark::take(&store);
    let mut probe = WriteProbe::default();
    let timings = closed_loop_writes(&store, traced.then_some(&mut probe), tally)?;
    let write = WritePhase::finish(
        &store,
        &mark,
        timings,
        (steps - 1) as u64 * ROUND_SAMPLES,
        steps as u64 * ROUND_SAMPLES,
    );
    let mut query_probe = QueryProbe::default();
    if let (Some(layers), Some(books)) = (layers.as_deref_mut(), books) {
        layers.writes(&store, &probe, &books, tally);
        layers.codecs(&store.gen);
    }
    if let Some(digest) = tally.op("state digest", store.db.state_digest()) {
        let first = digests.first().cloned().unwrap_or_else(|| digest.clone());
        tally.check(if digest == first {
            Ok(())
        } else {
            Err(format!(
                "state digest {digest} differs from the first episode's {first}"
            ))
        });
        digests.push(digest);
    }
    let verify = verify_pass(
        &store,
        steps - 1,
        seed,
        VERIFY_PASSES,
        tally,
        traced.then_some(&mut query_probe),
    );
    if let Some(layers) = layers {
        layers.queries(&query_probe);
    }
    store.close();
    Some(Episode {
        setup_s,
        write,
        verify,
    })
}

/// Runs episodes until `seconds` have passed (at least two, so the digest
/// check compares). Traced, episodes alternate untraced and traced and the
/// per-layer metrics come from the first traced one.
pub fn run(dir: &Path, seed: u64, seconds: f64, trace: bool, tally: &mut Tally) -> Vec<Metric> {
    let start = Instant::now();
    let mut digests = Vec::new();
    let mut episodes: Vec<Episode> = Vec::new();
    let mut traced: Vec<Episode> = Vec::new();
    let mut layers = Layers::default();
    let mut n = 0;
    while n < 2 || start.elapsed().as_secs_f64() < seconds {
        let traced_ep = trace && n % 2 == 1;
        let mut ep_layers = Layers::default();
        let Some(ep) = episode(
            dir,
            seed,
            tally,
            &mut digests,
            traced_ep.then_some(&mut ep_layers),
        ) else {
            break;
        };
        n += 1;
        if traced_ep {
            if traced.is_empty() {
                layers = ep_layers;
            }
            traced.push(ep);
        } else {
            episodes.push(ep);
        }
    }
    eprintln!(
        "perfbench: ingest seed {seed}: {n} episodes, state digest {}",
        digests.first().map_or("-", String::as_str)
    );
    if trace {
        let p50 = |eps: &[Episode]| {
            fastest_median(
                eps.iter()
                    .flat_map(|e| e.write.timings.lat_ms.chunks(WRITE_CHUNK)),
            )
        };
        layers.set(
            "obs.trace_overhead_pct",
            (p50(&traced) / p50(&episodes) - 1.0) * 100.0,
        );
        return layers.into_metrics();
    }
    let setup: Vec<f64> = episodes.iter().map(|e| e.setup_s).collect();
    let (writes, reads): (Vec<WritePhase>, Vec<QueryPhase>) =
        episodes.into_iter().map(|e| (e.write, e.verify)).unzip();
    end_to_end(
        &setup,
        &writes,
        &reads,
        VERIFY_SERIES + VERIFY_MEMBERS,
        &reads,
    )
}
