//! Per-layer metrics of the traced run, measured from outside the
//! engine: the benchmark's own timing of its calls, registry counter and
//! `span.lsm.*` histogram deltas, query profiles, `tree_stats()`,
//! `memory_stats()`, per-tier `StorageStats` deltas, and direct timing of
//! the public encoders and decoders on the workload's own samples.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use tu_cloud::cost::StorageStats;
use tu_common::Sample;
use tu_compress::{gorilla, nullxor};
use tu_core::profile::QueryProfile;
use tu_obs::MetricsSnapshot;
use tu_tsbs::devops::{DevOpsGenerator, METRICS_PER_HOST};

use crate::measure::{median, metric, Metric, Tally};
use crate::workload::{Store, HOSTS, SERIES_HOSTS};

/// Every per-layer metric with its unit, in output order.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("core.put_batch.busy_ms", "ms"),
    ("core.put_group.busy_ms", "ms"),
    ("core.query.fanout_ms", "ms"),
    ("core.query.sort_ms", "ms"),
    ("index.select_ms", "ms"),
    ("index.matched_ids_per_query", "ids/query"),
    ("index.postings_bytes", "bytes"),
    ("compress.gorilla.encode_ns_per_sample", "ns/sample"),
    ("compress.nullxor.encode_ns_per_sample", "ns/sample"),
    ("compress.bytes_per_sample", "bytes/sample"),
    ("compress.gorilla.decode_ns_per_sample", "ns/sample"),
    ("compress.agg.meta_answered_ratio", "ratio"),
    ("compress.agg.skipped_ratio", "ratio"),
    ("compress.agg.pushdown_chunks_per_query", "chunks/query"),
    ("lsm.wal.records_per_wave", "records/wave"),
    ("lsm.wal.fsyncs_per_ksample", "fsyncs/ksample"),
    ("lsm.flush.count", "count"),
    ("lsm.flush.ms", "ms"),
    ("lsm.compact.l0_l1.count", "count"),
    ("lsm.compact.l0_l1.ms", "ms"),
    ("lsm.compact.l1_l2.count", "count"),
    ("lsm.compact.l1_l2.ms", "ms"),
    ("lsm.stall.max_ms", "ms"),
    ("lsm.cache.hit_ratio", "ratio"),
    ("lsm.cache.evictions", "count"),
    ("lsm.sstable.block_loads_per_query", "blocks/query"),
    ("lsm.readahead.blocks_per_request", "blocks/request"),
    ("lsm.bloom.negative_ratio", "ratio"),
    ("mmap.page_cache_bytes", "bytes"),
    ("core.objects_bytes", "bytes"),
    ("cloud.block.put_requests_per_ksample", "requests/ksample"),
    ("cloud.block.bytes_written_per_ksample", "bytes/ksample"),
    ("cloud.object.put_requests_per_ksample", "requests/ksample"),
    ("cloud.object.bytes_written_per_ksample", "bytes/ksample"),
    ("cloud.block.get_requests_per_query", "requests/query"),
    ("cloud.object.get_requests_per_query", "requests/query"),
    ("cloud.object.bytes_read_per_query", "bytes/query"),
    ("cloud.object.first_reads_per_query", "reads/query"),
    ("load.write_late_p99_ms", "ms"),
    ("load.query_late_p99_ms", "ms"),
    ("obs.trace_overhead_pct", "%"),
];

/// The per-layer values of one traced run; a layer the workload leaves
/// idle reads 0.
#[derive(Default)]
pub struct Layers {
    values: BTreeMap<&'static str, f64>,
}

impl Layers {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "{name}");
        self.values
            .insert(name, if value.is_finite() { value } else { 0.0 });
    }

    pub fn into_metrics(self) -> Vec<Metric> {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| metric(name, self.values.get(name).copied().unwrap_or(0.0), unit))
            .collect()
    }

    /// Write-side layers of a traced write phase: `probe` from the calls,
    /// `books` taken when the phase began. Returns the phase's book delta.
    pub fn writes(
        &mut self,
        store: &Store,
        probe: &WriteProbe,
        books: &Books,
        tally: &mut Tally,
    ) -> BookDelta {
        let d = books.check(store, tally, "write phase");
        let ksamples = probe.samples as f64 / 1e3;
        self.set(
            "core.put_batch.busy_ms",
            probe.put_batch_ns as f64 / 1e6 / probe.put_batch_calls.max(1) as f64,
        );
        self.set(
            "core.put_group.busy_ms",
            probe.put_group_ns as f64 / 1e6 / probe.put_group_calls.max(1) as f64,
        );
        self.set("lsm.stall.max_ms", probe.stall_max_ns as f64 / 1e6);
        let records = counter(&d.registry, "lsm.wal.group_commit.records");
        self.set(
            "lsm.wal.records_per_wave",
            ratio(
                records,
                counter(&d.registry, "lsm.wal.group_commit.batches"),
            ),
        );
        self.set(
            "lsm.wal.fsyncs_per_ksample",
            counter(&d.registry, "lsm.wal.group_commit.fsyncs") as f64 / ksamples,
        );
        for (span, count, mean_ms) in [
            ("span.lsm.flush.ns", "lsm.flush.count", "lsm.flush.ms"),
            (
                "span.lsm.compact.l0_l1.ns",
                "lsm.compact.l0_l1.count",
                "lsm.compact.l0_l1.ms",
            ),
            (
                "span.lsm.compact.l1_l2.ns",
                "lsm.compact.l1_l2.count",
                "lsm.compact.l1_l2.ms",
            ),
        ] {
            let (n, sum_ns) = d
                .registry
                .histogram(span)
                .map_or((0, 0), |h| (h.count, h.sum));
            self.set(count, n as f64);
            self.set(mean_ms, ratio(sum_ns, n) / 1e6);
        }
        self.set(
            "cloud.block.put_requests_per_ksample",
            d.block.put_requests as f64 / ksamples,
        );
        self.set(
            "cloud.block.bytes_written_per_ksample",
            d.block.bytes_written as f64 / ksamples,
        );
        self.set(
            "cloud.object.put_requests_per_ksample",
            d.object.put_requests as f64 / ksamples,
        );
        self.set(
            "cloud.object.bytes_written_per_ksample",
            d.object.bytes_written as f64 / ksamples,
        );
        let mem = store.db.memory_stats();
        self.set("index.postings_bytes", mem.postings_bytes as f64);
        self.set("mmap.page_cache_bytes", mem.page_cache_bytes as f64);
        self.set("core.objects_bytes", mem.objects_bytes as f64);
        d
    }

    /// Query-side layers of a traced query phase.
    pub fn queries(&mut self, probe: &QueryProbe) {
        let n = probe.queries.max(1) as f64;
        self.set("index.select_ms", probe.select_ns as f64 / 1e6 / n);
        self.set("core.query.fanout_ms", probe.fanout_ns as f64 / 1e6 / n);
        self.set("core.query.sort_ms", probe.sort_ns as f64 / 1e6 / n);
        self.set("index.matched_ids_per_query", probe.matched_ids as f64 / n);
        let agg_chunks = probe.agg_meta + probe.agg_skipped + probe.agg_pushdown;
        self.set(
            "compress.agg.meta_answered_ratio",
            ratio(probe.agg_meta, agg_chunks),
        );
        self.set(
            "compress.agg.skipped_ratio",
            ratio(probe.agg_skipped, agg_chunks),
        );
        self.set(
            "compress.agg.pushdown_chunks_per_query",
            ratio(probe.agg_pushdown, probe.agg_queries),
        );
        self.set(
            "lsm.cache.hit_ratio",
            ratio(probe.cache_hits, probe.cache_hits + probe.cache_misses),
        );
        self.set("lsm.cache.evictions", probe.evictions as f64);
        self.set(
            "lsm.sstable.block_loads_per_query",
            probe.block_loads as f64 / n,
        );
        self.set(
            "lsm.readahead.blocks_per_request",
            ratio(probe.readahead_blocks, probe.readahead_requests),
        );
        self.set(
            "lsm.bloom.negative_ratio",
            ratio(probe.bloom_negatives, probe.bloom_checks),
        );
        self.set(
            "cloud.block.get_requests_per_query",
            probe.block_gets as f64 / n,
        );
        self.set(
            "cloud.object.get_requests_per_query",
            probe.object_gets as f64 / n,
        );
        self.set(
            "cloud.object.bytes_read_per_query",
            probe.object_bytes_read as f64 / n,
        );
        self.set(
            "cloud.object.first_reads_per_query",
            probe.object_first_reads as f64 / n,
        );
    }

    /// Times the public Gorilla and NullXOR codecs on the workload's own
    /// samples: the individual series' first 8 chunks and the group hosts'
    /// first 8 row chunks, the median of 5 passes.
    pub fn codecs(&mut self, gen: &DevOpsGenerator) {
        const CHUNK: i64 = 32;
        const CHUNKS: i64 = 8;
        let series: Vec<Vec<Sample>> = (0..SERIES_HOSTS)
            .flat_map(|h| (0..METRICS_PER_HOST).map(move |m| (h, m)))
            .flat_map(|(h, m)| {
                (0..CHUNKS).map(move |c| {
                    (c * CHUNK..(c + 1) * CHUNK)
                        .map(|s| Sample::new(gen.ts_of(s), gen.value(h, m, s)))
                        .collect()
                })
            })
            .collect();
        let rows: Vec<(i64, Vec<Option<f64>>)> = (SERIES_HOSTS..HOSTS)
            .flat_map(|h| (0..CHUNKS * CHUNK).map(move |s| (h, s)))
            .map(|(h, s)| {
                (
                    gen.ts_of(s),
                    gen.host_row(h, s).into_iter().map(Some).collect(),
                )
            })
            .collect();
        let series_samples = (series.len() * CHUNK as usize) as f64;
        let group_samples = (rows.len() * METRICS_PER_HOST) as f64;
        let (mut enc, mut dec, mut nx) = (Vec::new(), Vec::new(), Vec::new());
        let mut bytes = 0usize;
        for _ in 0..5 {
            let t = Instant::now();
            let chunks: Vec<Vec<u8>> = series
                .iter()
                .map(|c| gorilla::compress_chunk_framed(black_box(c)).unwrap_or_default())
                .collect();
            enc.push(t.elapsed().as_nanos() as f64 / series_samples);
            let t = Instant::now();
            let decoded: usize = chunks
                .iter()
                .map(|c| gorilla::decompress_chunk(black_box(c)).map_or(0, |s| s.len()))
                .sum();
            dec.push(t.elapsed().as_nanos() as f64 / series_samples);
            black_box(decoded);
            let t = Instant::now();
            let groups: Vec<Vec<u8>> = rows
                .chunks(CHUNK as usize)
                .map(|chunk| {
                    let mut e = nullxor::GroupChunkEncoder::new(METRICS_PER_HOST);
                    for (ts, row) in chunk {
                        let _ = e.append_row(*ts, black_box(row));
                    }
                    e.finish_framed()
                })
                .collect();
            nx.push(t.elapsed().as_nanos() as f64 / group_samples);
            bytes = chunks.iter().chain(&groups).map(Vec::len).sum();
        }
        self.set("compress.gorilla.encode_ns_per_sample", median(&enc));
        self.set("compress.gorilla.decode_ns_per_sample", median(&dec));
        self.set("compress.nullxor.encode_ns_per_sample", median(&nx));
        self.set(
            "compress.bytes_per_sample",
            bytes as f64 / (series_samples + group_samples),
        );
    }
}

fn counter(s: &MetricsSnapshot, name: &str) -> u64 {
    s.counter(name).unwrap_or(0)
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The benchmark's timing of its own write calls.
#[derive(Default)]
pub struct WriteProbe {
    pub samples: u64,
    put_batch_ns: u64,
    put_batch_calls: u64,
    put_group_ns: u64,
    put_group_calls: u64,
    stall_max_ns: u64,
}

impl WriteProbe {
    /// Records one write call: `put_group_fast` if `group`, else
    /// `put_batch`; `stalled` if the tree flushed or compacted during it.
    pub fn call(&mut self, group: bool, ns: u64, stalled: bool) {
        if group {
            self.put_group_ns += ns;
            self.put_group_calls += 1;
        } else {
            self.put_batch_ns += ns;
            self.put_batch_calls += 1;
        }
        if stalled {
            self.stall_max_ns = self.stall_max_ns.max(ns);
        }
    }
}

/// Sums over the profiles of a traced query phase.
#[derive(Default)]
pub struct QueryProbe {
    queries: u64,
    agg_queries: u64,
    select_ns: u64,
    fanout_ns: u64,
    sort_ns: u64,
    matched_ids: u64,
    agg_meta: u64,
    agg_skipped: u64,
    agg_pushdown: u64,
    cache_hits: u64,
    cache_misses: u64,
    block_loads: u64,
    readahead_requests: u64,
    readahead_blocks: u64,
    block_gets: u64,
    pub object_gets: u64,
    object_bytes_read: u64,
    object_first_reads: u64,
    evictions: u64,
    bloom_checks: u64,
    bloom_negatives: u64,
}

impl QueryProbe {
    pub fn add(&mut self, p: &QueryProfile, aggregate: bool) {
        let stage = |name: &str| {
            p.stages
                .iter()
                .find(|s| s.name == name)
                .map_or(0, |s| s.total_ns)
        };
        let count = |name: &str| p.counters.get(name).copied().unwrap_or(0);
        self.queries += 1;
        self.agg_queries += aggregate as u64;
        self.select_ns += stage("select");
        self.fanout_ns += stage("fanout");
        self.sort_ns += stage("sort");
        self.matched_ids += p.matched_ids as u64;
        self.agg_meta += count("core.query.agg.meta_answered");
        self.agg_skipped += count("core.query.agg.skipped_chunks");
        self.agg_pushdown += count("core.query.agg.pushdown_chunks");
        self.cache_hits += p.cache_hits;
        self.cache_misses += p.cache_misses;
        self.block_loads += p.block_loads;
        self.readahead_requests += p.readahead_requests;
        self.readahead_blocks += p.readahead_blocks;
        self.block_gets += p.block.get_requests;
        self.object_gets += p.object.get_requests;
        self.object_bytes_read += p.object.bytes_read;
        self.object_first_reads += p.object.first_reads;
    }

    /// Adds the cache-eviction and bloom counters a traced query phase
    /// moved in the registry (profiles do not carry them).
    pub fn add_registry(&mut self, delta: &BookDelta) {
        self.evictions += counter(&delta.registry, "lsm.cache.evictions");
        self.bloom_checks += counter(&delta.registry, "lsm.bloom.checks");
        self.bloom_negatives += counter(&delta.registry, "lsm.bloom.negatives");
    }
}

/// The storage books at one instant: each tier's `StorageStats` and the
/// registry, which keeps a second copy in `cloud.<tier>.*`.
pub struct Books {
    block: StorageStats,
    object: StorageStats,
    registry: MetricsSnapshot,
}

/// The change in both books since a [`Books`] was taken.
pub struct BookDelta {
    pub block: StorageStats,
    pub object: StorageStats,
    pub registry: MetricsSnapshot,
}

impl Books {
    pub fn take(store: &Store) -> Books {
        let env = store.db.storage();
        Books {
            block: env.block.stats(),
            object: env.object.stats(),
            registry: tu_obs::global().snapshot(),
        }
    }

    /// The book check: each tier's `StorageStats` delta must equal its
    /// `cloud.<tier>.*` registry delta. A mismatch is a failed operation.
    pub fn check(&self, store: &Store, tally: &mut Tally, phase: &str) -> BookDelta {
        let now = Books::take(store);
        let d = BookDelta {
            block: now.block.since(&self.block),
            object: now.object.since(&self.object),
            registry: now.registry.since(&self.registry),
        };
        for (tier, s) in [("block", &d.block), ("object", &d.object)] {
            let books = [
                ("get_requests", s.get_requests),
                ("put_requests", s.put_requests),
                ("delete_requests", s.delete_requests),
                ("bytes_read", s.bytes_read),
                ("bytes_written", s.bytes_written),
            ];
            for (field, stats) in books {
                let reg = counter(&d.registry, &format!("cloud.{tier}.{field}"));
                tally.check(if reg == stats {
                    Ok(())
                } else {
                    Err(format!("book check, {phase}: StorageStats {tier}.{field} moved {stats}, registry moved {reg}"))
                });
            }
        }
        d
    }
}

/// The second book check: the object Gets the per-query profiles charged
/// must add up to the tier's total over a phase in which only those
/// queries ran.
pub fn check_profiles(profiled_gets: u64, delta: &BookDelta, tally: &mut Tally, phase: &str) {
    tally.check(if profiled_gets == delta.object.get_requests {
        Ok(())
    } else {
        Err(format!(
            "book check, {phase}: profiles charged {profiled_gets} object Gets, the tier served {}",
            delta.object.get_requests
        ))
    });
}
