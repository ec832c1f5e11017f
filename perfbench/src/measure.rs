//! Counting operations, summarising timings, and turning write and query
//! phases into the end-to-end metrics.

use std::fmt::Display;
use std::time::Instant;

use tu_common::Result;

use crate::layers::WriteProbe;
use crate::workload::{Store, ROUND_SAMPLES, SERIES, USER_BYTES_PER_SAMPLE};

/// Operations attempted and failed. A failed operation is an engine
/// error, an oracle mismatch, a digest mismatch or a book mismatch.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Counts one operation; an error counts as failed and yields `None`.
    pub fn op<T>(&mut self, what: &str, r: Result<T>) -> Option<T> {
        self.attempted += 1;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.fail(format!("{what}: {e}"));
                None
            }
        }
    }

    /// Counts one standalone check (a digest or book comparison).
    pub fn check(&mut self, r: std::result::Result<(), String>) {
        self.attempted += 1;
        self.judge(r);
    }

    /// Judges the output of the operation just counted by [`Tally::op`]:
    /// a mismatch fails that operation.
    pub fn judge(&mut self, r: std::result::Result<(), String>) {
        if let Err(e) = r {
            self.fail(e);
        }
    }

    /// Marks the last counted operation as failed.
    pub fn fail(&mut self, msg: impl Display) {
        self.failed += 1;
        if self.failed <= 10 {
            eprintln!("perfbench: FAILED {msg}");
        }
    }
}

/// Nearest-rank quantile of unsorted values; 0 for none.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The mean of the values ranked from the 40th to the 60th percentile.
/// Where the operations' costs leave a gap near the middle, a median jumps
/// across it when a few operations shift; this band mean moves with them
/// in proportion.
pub fn middle_mean(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let (lo, hi) = (v.len() * 2 / 5, (v.len() * 3).div_ceil(5));
    let band = &v[lo..hi.max(lo + 1).min(v.len())];
    if band.is_empty() {
        return 0.0;
    }
    band.iter().sum::<f64>() / band.len() as f64
}

/// Milliseconds between two instants, as `f64`.
pub fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Per-operation times of a phase, in milliseconds.
#[derive(Default)]
pub struct Timings {
    /// Latency as the client sees it: the call time in closed loops,
    /// completion minus due time in `live`.
    pub lat_ms: Vec<f64>,
    /// Time inside the call.
    pub service_ms: Vec<f64>,
}

impl Timings {
    pub fn record(&mut self, lat_ms: f64, service_ms: f64) {
        self.lat_ms.push(lat_ms);
        self.service_ms.push(service_ms);
    }

    /// A closed-loop call: latency and service time are the same.
    pub fn call(&mut self, ms: f64) {
        self.record(ms, ms);
    }
}

/// Writes the generator's scrape rounds after round 0 in a closed loop,
/// timing each; `None` after a failed round.
pub fn closed_loop_writes(
    store: &Store,
    mut probe: Option<&mut WriteProbe>,
    tally: &mut Tally,
) -> Option<Timings> {
    let mut timings = Timings::default();
    for step in 1..store.gen.steps() {
        let round = store.round(step);
        let t = Instant::now();
        let r = store.write(&round, probe.as_deref_mut());
        let took = t.elapsed();
        tally.op("write round", r)?;
        timings.call(ms(took));
    }
    Some(timings)
}

/// Where a write phase started: the storage books it is measured against.
pub struct WriteMark {
    storage_ns: u64,
    bytes_written: u64,
}

impl WriteMark {
    pub fn take(store: &Store) -> WriteMark {
        WriteMark {
            storage_ns: store.storage_ns(),
            bytes_written: store.tier_bytes_written(),
        }
    }
}

/// One write phase: an `ingest` episode, a `history` set-up, or the
/// `live` writer's measured run. Every operation is one scrape round.
pub struct WritePhase {
    pub timings: Timings,
    pub storage_s_per_msample: f64,
    pub write_amp: f64,
    pub stored_bytes_per_sample: f64,
    pub memory_bytes_per_series: f64,
    pub cloud_usd_per_msample: f64,
}

impl WritePhase {
    /// Closes a phase whose rounds wrote `written` samples since `mark`,
    /// with `stored` samples held by the engine in total.
    pub fn finish(
        store: &Store,
        mark: &WriteMark,
        timings: Timings,
        written: u64,
        stored: u64,
    ) -> WritePhase {
        let (block, object) = store.used_bytes();
        WritePhase {
            timings,
            storage_s_per_msample: (store.storage_ns() - mark.storage_ns) as f64
                / 1e3
                / written as f64,
            write_amp: (store.tier_bytes_written() - mark.bytes_written) as f64
                / (written as f64 * USER_BYTES_PER_SAMPLE),
            stored_bytes_per_sample: (block + object) as f64 / stored as f64,
            memory_bytes_per_series: store.db.memory_stats().total() as f64 / SERIES as f64,
            cloud_usd_per_msample: (store.request_usd() + store.footprint_usd())
                / (stored as f64 / 1e6),
        }
    }
}

/// Where a query phase started.
pub struct QueryMark {
    storage_ns: u64,
    request_usd: f64,
}

impl QueryMark {
    pub fn take(store: &Store) -> QueryMark {
        QueryMark {
            storage_ns: store.storage_ns(),
            request_usd: store.request_usd(),
        }
    }
}

/// One query phase.
#[derive(Default)]
pub struct QueryPhase {
    pub timings: Timings,
    /// Modelled storage nanoseconds and request dollars over the phase;
    /// only meaningful when the phase ran alone on the engine.
    pub storage_ns: u64,
    pub request_usd: f64,
}

impl QueryPhase {
    pub fn close(&mut self, store: &Store, mark: &QueryMark) {
        self.storage_ns = store.storage_ns() - mark.storage_ns;
        self.request_usd = store.request_usd() - mark.request_usd;
    }
}

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
    }
}

/// Each operation's fastest time over `runs`, repetitions of the same
/// sequence of operations (a last, cut-short repetition counts for the
/// operations it reached).
pub fn fastest<'a>(runs: impl IntoIterator<Item = &'a [f64]>) -> Vec<f64> {
    let mut best: Vec<f64> = Vec::new();
    for run in runs {
        for (i, &t) in run.iter().enumerate() {
            match best.get_mut(i) {
                Some(b) => *b = b.min(t),
                None => best.push(t),
            }
        }
    }
    best
}

/// Each rank's fastest time over `runs`: the k-th fastest operation of
/// every run, at its smallest. Unlike [`fastest`], the runs need only hold
/// the same number of like operations, not the same ones in the same
/// order, so a flush that falls on another round in another run still
/// counts once.
pub fn fastest_by_rank(runs: &[&[f64]]) -> Vec<f64> {
    let sorted: Vec<Vec<f64>> = runs
        .iter()
        .map(|r| {
            let mut v = r.to_vec();
            v.sort_by(f64::total_cmp);
            v
        })
        .collect();
    fastest(sorted.iter().map(|v| &v[..]))
}

/// The smallest median over `chunks`.
pub fn fastest_median<'a>(chunks: impl IntoIterator<Item = &'a [f64]>) -> f64 {
    chunks.into_iter().map(median).fold(f64::INFINITY, f64::min)
}

/// Operations per second of summed call time.
fn rate(service_ms: &[f64], per_op: f64) -> f64 {
    per_op * service_ms.len() as f64 / (service_ms.iter().sum::<f64>() / 1e3)
}

/// Write rounds per chunk for `write_p50_ms`.
pub const WRITE_CHUNK: usize = 256;

/// The end-to-end metrics of a run. `writes` are repetitions of the same
/// number of rounds; `reads` hold whole passes over one sequence of
/// `pass_len` queries, against one engine or against several holding like
/// data. `cost` gives the modelled storage time and request dollars per
/// query, pooled; the other storage figures are medians over `writes`.
///
/// The machine the bounds were set on alternates between a fast and a
/// slow phase about 1.5x apart, each held for one to tens of seconds, so a
/// median or a rate over a whole run lands in one phase or the other from
/// run to run. Every workload repeats its work, so the CPU-wall figures
/// keep to the fast phase:
/// - the write median is the smallest median over chunks of 256
///   consecutive rounds;
/// - the query median is the mean of the middle fifth (40th to 60th
///   percentile) of each query's fastest pass;
/// - the write rate sums each rank's fastest round ([`fastest_by_rank`]),
///   so every flush and compaction still counts once; the query rate sums
///   each query's fastest pass;
/// - a p99 pools every operation: the tail is the rare seal, flush and
///   compaction rounds or the longest queries, and a large pooled sample
///   of them varies less than a best-of-N over a few repetitions.
pub fn end_to_end(
    setup_s: &[f64],
    writes: &[WritePhase],
    reads: &[QueryPhase],
    pass_len: usize,
    cost: &[QueryPhase],
) -> Vec<Metric> {
    let per_phase = |f: fn(&WritePhase) -> f64| median(&writes.iter().map(f).collect::<Vec<_>>());
    let write_lat: Vec<f64> = writes
        .iter()
        .flat_map(|w| w.timings.lat_ms.iter().copied())
        .collect();
    let write_chunks = writes
        .iter()
        .flat_map(|w| w.timings.lat_ms.chunks_exact(WRITE_CHUNK));
    let write_svc = fastest_by_rank(
        &writes
            .iter()
            .map(|w| &w.timings.service_ms[..])
            .collect::<Vec<_>>(),
    );
    let pass_len = pass_len.max(1);
    let read_lat: Vec<f64> = reads
        .iter()
        .flat_map(|r| r.timings.lat_ms.iter().copied())
        .collect();
    let read_best = fastest(reads.iter().flat_map(|r| r.timings.lat_ms.chunks(pass_len)));
    let read_svc = fastest(
        reads
            .iter()
            .flat_map(|r| r.timings.service_ms.chunks(pass_len)),
    );
    let n_cost = cost
        .iter()
        .map(|c| c.timings.lat_ms.len())
        .sum::<usize>()
        .max(1) as f64;
    let cost_ns: u64 = cost.iter().map(|c| c.storage_ns).sum();
    let cost_usd: f64 = cost.iter().map(|c| c.request_usd).sum();
    vec![
        metric("setup_s", median(setup_s), "s"),
        metric(
            "ingest_samples_per_s",
            rate(&write_svc, ROUND_SAMPLES as f64),
            "samples/s",
        ),
        metric("write_p50_ms", fastest_median(write_chunks), "ms"),
        metric("write_p99_ms", quantile(&write_lat, 0.99), "ms"),
        metric(
            "storage_s_per_Msample",
            per_phase(|w| w.storage_s_per_msample),
            "s/Msample",
        ),
        metric("write_amp", per_phase(|w| w.write_amp), "ratio"),
        metric(
            "stored_bytes_per_sample",
            per_phase(|w| w.stored_bytes_per_sample),
            "bytes/sample",
        ),
        metric(
            "memory_bytes_per_series",
            per_phase(|w| w.memory_bytes_per_series),
            "bytes/series",
        ),
        metric(
            "cloud_usd_per_Msample",
            per_phase(|w| w.cloud_usd_per_msample),
            "USD/Msample",
        ),
        metric("query_p50_ms", middle_mean(&read_best), "ms"),
        metric("query_p99_ms", quantile(&read_lat, 0.99), "ms"),
        metric("queries_per_s", rate(&read_svc, 1.0), "queries/s"),
        metric("query_storage_ms_mean", cost_ns as f64 / 1e6 / n_cost, "ms"),
        metric(
            "cloud_usd_per_kquery",
            cost_usd / n_cost * 1e3,
            "USD/kquery",
        ),
    ]
}
