//! `live`: an open-loop writer and an open-loop dashboard reader sharing
//! the engine. Set-up pre-loads 6 simulated hours at a 10 s interval.
//! Then the writer issues one scrape round every [`WRITE_EVERY`] and the
//! reader one query every [`READ_EVERY`], each on a fixed schedule that
//! does not wait for the engine. The reader cycles `1-1-1`, `5-1-1`,
//! `1-8-1` and `5-8-1` (MAX per 5 min) and `lastpoint` (raw) over the most
//! recent acknowledged hour, first hosts alternating between the two host
//! kinds each cycle, and checks only acknowledged samples.
//!
//! Both time every operation from when it was due, so a write stalled
//! behind inline compaction delays every later write; how late each
//! generator itself ran is reported too. After the run a verify pass
//! reads 300 timeseries back; with the engine quiet, its reads
//! give the modelled storage time and request dollars per query.
//!
//! Concurrent queries currently lose acknowledged samples, so every run
//! reports failed operations and `live` stays out of `BENCHMARK.json`
//! until that is fixed (see the README's "Known defects").

use std::path::Path;
use std::sync::atomic::{AtomicI64, Ordering};
use std::time::{Duration, Instant};

use tu_tsbs::queries::QueryPattern;

use crate::ingest::verify_pass;
use crate::layers::{Books, Layers, QueryProbe, WriteProbe};
use crate::measure::{
    closed_loop_writes, end_to_end, median, ms, quantile, Metric, QueryPhase, Tally, Timings,
    WriteMark, WritePhase,
};
use crate::oracle::{Oracle, Query};
use crate::workload::{generator, Picks, Store, ROUND_SAMPLES};

const INTERVAL_MS: i64 = 10_000;
const PRELOAD_HOURS: i64 = 6;
/// The writer's schedule: about a quarter of `ingest`'s closed-loop
/// throughput on a 2-core x86-64 host.
const WRITE_EVERY: Duration = Duration::from_millis(8);
/// The reader's schedule.
const READ_EVERY: Duration = Duration::from_millis(10);
/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;

const DASHBOARD: [(QueryPattern, bool); 5] = [
    (QueryPattern::P1x1x1, true),
    (QueryPattern::P5x1x1, true),
    (QueryPattern::P1x8x1, true),
    (QueryPattern::P5x8x1, true),
    (QueryPattern::LastPoint, false),
];

/// Opens a fresh engine and pre-loads it.
fn setup(dir: &Path, seed: u64, tally: &mut Tally) -> Option<(Store, f64)> {
    let gen = generator(seed, INTERVAL_MS, PRELOAD_HOURS);
    let t = Instant::now();
    let store = tally.op("open and register", Store::open(dir, gen))?;
    closed_loop_writes(&store, None, tally)?;
    Some((store, t.elapsed().as_secs_f64()))
}

/// What one open-loop run measured.
#[derive(Default)]
struct Run {
    /// Per round: completion minus due time, and call time.
    writes: Timings,
    /// Start minus due time, per round: how late the writer ran.
    write_late_ms: Vec<f64>,
    write_probe: WriteProbe,
    /// The same for the dashboard queries.
    reads: QueryPhase,
    read_late_ms: Vec<f64>,
    read_probe: QueryProbe,
    /// The last acknowledged scrape step.
    last_step: i64,
}

/// Sleeps until `due`, returning at once when it has passed.
fn wait_until(due: Instant) {
    let now = Instant::now();
    if due > now {
        std::thread::sleep(due - now);
    }
}

/// One open-loop run of `seconds`, continuing the scrape stream after
/// `last_step`. Traced, writes are timed call by call and queries are
/// profiled.
fn open_loop(
    store: &Store,
    seed: u64,
    seconds: f64,
    last_step: i64,
    traced: bool,
    tally: &mut Tally,
) -> Run {
    let acked = AtomicI64::new(last_step);
    let t0 = Instant::now();
    let deadline = t0 + Duration::from_secs_f64(seconds);
    let (mut w, mut r) = (Run::default(), Run::default());
    let (mut w_tally, mut r_tally) = (Tally::default(), Tally::default());
    std::thread::scope(|s| {
        s.spawn(|| {
            let mut next = store.round(last_step + 1);
            for k in 0.. {
                let due = t0 + WRITE_EVERY * k;
                if due >= deadline {
                    break;
                }
                wait_until(due);
                let started = Instant::now();
                let res = store.write(&next, traced.then_some(&mut w.write_probe));
                let done = Instant::now();
                if w_tally.op("write round", res).is_none() {
                    break;
                }
                acked.store(next.step, Ordering::Release);
                w.writes.record(ms(done - due), ms(done - started));
                w.write_late_ms.push(ms(started - due));
                next = store.round(next.step + 1);
            }
        });
        s.spawn(|| {
            let oracle = Oracle::new(&store.gen);
            let mut picks = Picks::new(seed);
            for k in 0.. {
                let due = t0 + READ_EVERY * k;
                if due >= deadline {
                    break;
                }
                wait_until(due);
                let (pattern, aggregate) = DASHBOARD[k as usize % DASHBOARD.len()];
                let step = acked.load(Ordering::Acquire);
                let group_host = (k as usize / DASHBOARD.len()) % 2 == 1;
                let q = Query::tsbs(&store.gen, pattern, picks.host_pick(group_host), aggregate)
                    .ending_at(store.gen.ts_of(step));
                let started = Instant::now();
                let out = q.run(&store.db, traced.then_some(&mut r.read_probe));
                let done = Instant::now();
                if let Some(out) = r_tally.op(q.name, out) {
                    r.reads.timings.record(ms(done - due), ms(done - started));
                    r.read_late_ms.push(ms(started - due));
                    r_tally.judge(oracle.check(&store.gen, &q, &out, step));
                }
            }
        });
    });
    for t in [w_tally, r_tally] {
        tally.attempted += t.attempted;
        tally.failed += t.failed;
    }
    w.last_step = acked.into_inner();
    w.reads = r.reads;
    w.read_late_ms = r.read_late_ms;
    w.read_probe = r.read_probe;
    w
}

pub fn run(dir: &Path, seed: u64, seconds: f64, trace: bool, tally: &mut Tally) -> Vec<Metric> {
    let mut setup_s = Vec::new();
    let mut store = None;
    for i in 0..if trace { 1 } else { SETUPS } {
        let Some((s, secs)) = setup(dir, seed, tally) else {
            return Vec::new();
        };
        setup_s.push(secs);
        if i + 1 < SETUPS && !trace {
            s.close();
        } else {
            store = Some(s);
        }
    }
    let Some(store) = store else {
        return Vec::new();
    };
    let preloaded = store.gen.steps() - 1;
    if trace {
        return traced(store, seed, seconds, preloaded, tally);
    }
    let mark = WriteMark::take(&store);
    let run = open_loop(&store, seed, seconds, preloaded, false, tally);
    let rounds = run.writes.lat_ms.len() as u64;
    let write = WritePhase::finish(
        &store,
        &mark,
        run.writes,
        rounds * ROUND_SAMPLES,
        (run.last_step + 1) as u64 * ROUND_SAMPLES,
    );
    eprintln!(
        "perfbench: live seed {seed}: {rounds} rounds and {} queries; generator lateness p50/p99: writer {:.3}/{:.3} ms, reader {:.3}/{:.3} ms",
        run.reads.timings.lat_ms.len(),
        median(&run.write_late_ms),
        quantile(&run.write_late_ms, 0.99),
        median(&run.read_late_ms),
        quantile(&run.read_late_ms, 0.99),
    );
    let verify = verify_pass(&store, run.last_step, seed, 1, tally, None);
    store.close();
    let queries = run.reads.timings.lat_ms.len();
    end_to_end(&setup_s, &[write], &[run.reads], queries, &[verify])
}

/// The traced run: half the time untraced, then half traced, then a
/// profiled verify pass.
fn traced(store: Store, seed: u64, seconds: f64, preloaded: i64, tally: &mut Tally) -> Vec<Metric> {
    let mut layers = Layers::default();
    let plain = open_loop(&store, seed, seconds / 2.0, preloaded, false, tally);
    let books = Books::take(&store);
    let run = open_loop(
        &store,
        seed ^ 1,
        seconds / 2.0,
        plain.last_step,
        true,
        tally,
    );
    let delta = layers.writes(&store, &run.write_probe, &books, tally);
    layers.codecs(&store.gen);
    let mut read_probe = run.read_probe;
    read_probe.add_registry(&delta);
    layers.queries(&read_probe);
    layers.set("load.write_late_p99_ms", quantile(&run.write_late_ms, 0.99));
    layers.set("load.query_late_p99_ms", quantile(&run.read_late_ms, 0.99));
    layers.set(
        "obs.trace_overhead_pct",
        (median(&run.writes.lat_ms) / median(&plain.writes.lat_ms) - 1.0) * 100.0,
    );
    let mut verify_probe = QueryProbe::default();
    verify_pass(
        &store,
        run.last_step,
        seed,
        1,
        tally,
        Some(&mut verify_probe),
    );
    store.close();
    layers.into_metrics()
}
