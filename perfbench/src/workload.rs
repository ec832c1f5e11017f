//! The shared set-up every workload runs on: one engine configuration and
//! the TSBS DevOps scrape stream, stored with the unified data model
//! (hosts 0–4 as individual series, hosts 5–9 as one group per host).

use std::path::{Path, PathBuf};
use std::time::Instant;

use tu_cloud::cost::LatencyMode;
use tu_cloud::pricing::{self, Tier};
use tu_common::{GroupId, Labels, Result, SeriesId, SeriesRef, Timestamp, Value};
use tu_core::engine::{Options, TimeUnion};
use tu_lsm::TreeOptions;
use tu_tsbs::devops::{DevOpsGenerator, DevOpsOptions, METRICS_PER_HOST};

use crate::layers::WriteProbe;

/// Hosts in the DevOps generator.
pub const HOSTS: usize = 10;
/// Hosts `0..SERIES_HOSTS` are stored as individual series, the rest as
/// one group per host.
pub const SERIES_HOSTS: usize = 5;
/// Timeseries in the dataset (10 hosts x 101 metrics).
pub const SERIES: usize = HOSTS * METRICS_PER_HOST;
/// Samples in one scrape round: one value per timeseries.
pub const ROUND_SAMPLES: u64 = SERIES as u64;
/// The block-cache budget. The `history` working set is about 2.4 MB of
/// SSTable data, so it does not fit.
pub const CACHE_BYTES: usize = 1 << 20;
/// User bytes per sample (8-byte timestamp + 8-byte value), the
/// denominator of write amplification.
pub const USER_BYTES_PER_SAMPLE: f64 = 16.0;
pub const HOUR_MS: i64 = 3_600_000;

/// The one engine configuration all workloads use. Every pool has width 1
/// (it runs inline on its caller), so engine threads plus load-generator
/// threads never exceed two.
pub fn engine_options() -> Options {
    Options {
        chunk_samples: 32,
        tree: TreeOptions {
            memtable_bytes: 1 << 20,
            max_sstable_bytes: 1 << 20,
            block_cache_bytes: CACHE_BYTES,
            flush_threads: 1,
            ..TreeOptions::default()
        },
        index_slots_per_segment: 1 << 16,
        latency: LatencyMode::Virtual,
        inline_maintenance: true,
        query_threads: 1,
        ingest_threads: 1,
        ..Options::default()
    }
}

/// The DevOps generator for a workload: `hours` of scrapes every
/// `interval_ms`, values drawn from `seed`.
pub fn generator(seed: u64, interval_ms: i64, hours: i64) -> DevOpsGenerator {
    DevOpsGenerator::new(DevOpsOptions {
        hosts: HOSTS,
        start_ms: 0,
        interval_ms,
        duration_ms: hours * HOUR_MS,
        seed,
    })
}

/// One scrape round, generated before it is written: a 505-sample
/// `put_batch` plus one 101-value row per group.
pub struct Round {
    pub step: i64,
    pub t: Timestamp,
    batch: Vec<(SeriesId, Timestamp, Value)>,
    rows: Vec<Vec<Value>>,
}

/// An engine holding the DevOps dataset, with the handles of its
/// fast-path inserts.
pub struct Store {
    pub db: TimeUnion,
    pub gen: DevOpsGenerator,
    dir: PathBuf,
    series: Vec<SeriesId>,
    groups: Vec<(GroupId, Vec<SeriesRef>)>,
}

impl Store {
    /// Opens a fresh engine in `dir` and registers every series and group
    /// through the slow path with scrape round 0.
    pub fn open(dir: &Path, gen: DevOpsGenerator) -> Result<Store> {
        let _ = std::fs::remove_dir_all(dir);
        let db = TimeUnion::open(dir, engine_options())?;
        let t0 = gen.ts_of(0);
        let mut series = Vec::with_capacity(SERIES_HOSTS * METRICS_PER_HOST);
        for host in 0..SERIES_HOSTS {
            for metric in 0..METRICS_PER_HOST {
                let labels = gen.series_labels(host, metric);
                series.push(db.put(&labels, t0, gen.value(host, metric, 0))?);
            }
        }
        let member_tags: Vec<Labels> = gen
            .metric_names()
            .iter()
            .map(|m| Labels::from_pairs([("metric", m.as_str())]))
            .collect();
        let mut groups = Vec::with_capacity(HOSTS - SERIES_HOSTS);
        for host in SERIES_HOSTS..HOSTS {
            let row = gen.host_row(host, 0);
            groups.push(db.put_group(&gen.host_labels(host), &member_tags, t0, &row)?);
        }
        db.sync_wal()?;
        Ok(Store {
            db,
            gen,
            dir: dir.to_path_buf(),
            series,
            groups,
        })
    }

    /// Generates scrape round `step` (not timed by callers).
    pub fn round(&self, step: i64) -> Round {
        let t = self.gen.ts_of(step);
        let mut batch = Vec::with_capacity(self.series.len());
        for host in 0..SERIES_HOSTS {
            for metric in 0..METRICS_PER_HOST {
                let id = self.series[host * METRICS_PER_HOST + metric];
                batch.push((id, t, self.gen.value(host, metric, step)));
            }
        }
        let rows = (SERIES_HOSTS..HOSTS)
            .map(|host| self.gen.host_row(host, step))
            .collect();
        Round {
            step,
            t,
            batch,
            rows,
        }
    }

    /// Writes one round: `put_batch` for the series hosts, then
    /// `put_group_fast` for each group host. With `probe`, every call is
    /// timed and `tree_stats()` is read around it, so a call that ran a
    /// flush or compaction inline shows as a stall.
    pub fn write(&self, round: &Round, probe: Option<&mut WriteProbe>) -> Result<()> {
        let Some(probe) = probe else {
            self.db.put_batch(&round.batch)?;
            for ((gid, refs), row) in self.groups.iter().zip(&round.rows) {
                self.db.put_group_fast(*gid, refs, round.t, row)?;
            }
            return Ok(());
        };
        probe.samples += ROUND_SAMPLES;
        let mut epoch = tree_epoch(&self.db);
        let mut timed = |group: bool, call: &mut dyn FnMut() -> Result<()>| -> Result<()> {
            let t = Instant::now();
            call()?;
            let ns = t.elapsed().as_nanos() as u64;
            let now = tree_epoch(&self.db);
            probe.call(group, ns, now != epoch);
            epoch = now;
            Ok(())
        };
        timed(false, &mut || self.db.put_batch(&round.batch))?;
        for ((gid, refs), row) in self.groups.iter().zip(&round.rows) {
            timed(true, &mut || {
                self.db.put_group_fast(*gid, refs, round.t, row)
            })?;
        }
        Ok(())
    }

    /// Bytes occupied on the fast and slow tiers.
    pub fn used_bytes(&self) -> (u64, u64) {
        let env = self.db.storage();
        (env.block.used_bytes(), env.object.used_bytes())
    }

    /// The modelled storage nanoseconds charged so far.
    pub fn storage_ns(&self) -> u64 {
        self.db.storage().clock.virtual_ns()
    }

    /// Object-tier request dollars (Eq. 4/6) charged so far; the block
    /// tier bills capacity only.
    pub fn request_usd(&self) -> f64 {
        let o = self.db.storage().object.stats();
        pricing::request_cost_usd(Tier::Object, o.get_requests, o.put_requests)
    }

    /// One month of the current footprint on both tiers, in dollars.
    pub fn footprint_usd(&self) -> f64 {
        let (block, object) = self.used_bytes();
        pricing::monthly_cost_usd(Tier::Block, block)
            + pricing::monthly_cost_usd(Tier::Object, object)
    }

    /// Bytes written to both tiers so far.
    pub fn tier_bytes_written(&self) -> u64 {
        let env = self.db.storage();
        env.block.stats().bytes_written + env.object.stats().bytes_written
    }

    /// Closes the engine and deletes its directory.
    pub fn close(self) {
        let dir = self.dir.clone();
        drop(self);
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// Flush and compaction counts: they change only while maintenance runs.
fn tree_epoch(db: &TimeUnion) -> (u64, u64, u64) {
    let s = db.tree_stats();
    (s.flushes, s.l0_to_l1_compactions, s.l1_to_l2_compactions)
}

/// A small deterministic generator for query picks, seeded from the
/// workload seed.
pub struct Picks(u64);

impl Picks {
    pub fn new(seed: u64) -> Picks {
        Picks(seed ^ 0x5151_7e57_a11c_e5ed)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut x = self.0;
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^ (x >> 31)
    }

    /// A TSBS pick (it selects the first host and the first CPU metric)
    /// among the group hosts or among the individual-series hosts.
    pub fn host_pick(&mut self, group_host: bool) -> u64 {
        self.next() % SERIES_HOSTS as u64 + if group_host { SERIES_HOSTS as u64 } else { 0 }
    }
}
