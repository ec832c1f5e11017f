//! The slow tier: a directory-backed object store modelling AWS S3.
//!
//! Objects are written and deleted whole; reads are whole-object GETs or
//! range GETs (S3 supports `Range:` headers — the paper charges one Get
//! request per SSTable data block fetched, Equations 4/6). Every operation
//! pays the S3 latency model, and Get/Put counters are exposed because
//! request traffic is the quantity the time-partitioned tree is designed to
//! minimize (§3.3 "Compaction cost analysis").

use std::collections::HashMap;
use std::fs::{self, File};
use std::io::{Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use tu_common::lockdep::{self, Mutex};

use crate::cost::{CostClock, LatencyModel, StorageStats, TierCounters};
use tu_common::{Error, Result};

/// Directory-backed slow object storage with an S3-like cost model.
pub struct ObjectStore {
    root: PathBuf,
    model: LatencyModel,
    clock: CostClock,
    stats: Stats,
    obs: TierCounters,
    used_bytes: AtomicU64,
    /// Mirrors `used_bytes` into the registry so the cost ledger can price
    /// the capacity term of Eq. 4 from a snapshot alone.
    used_gauge: &'static tu_obs::Gauge,
    state: Mutex<State>,
}

#[derive(Default)]
struct State {
    sizes: HashMap<String, u64>,
    read_before: std::collections::HashSet<String>,
}

#[derive(Default)]
struct Stats {
    gets: AtomicU64,
    puts: AtomicU64,
    deletes: AtomicU64,
    bytes_read: AtomicU64,
    bytes_written: AtomicU64,
}

impl ObjectStore {
    /// Opens the store rooted at `root`, indexing existing objects.
    pub fn open(root: impl Into<PathBuf>, model: LatencyModel, clock: CostClock) -> Result<Self> {
        let root = root.into();
        fs::create_dir_all(&root)?;
        let store = ObjectStore {
            root,
            model,
            clock,
            stats: Stats::default(),
            obs: TierCounters::for_tier("object"),
            used_bytes: AtomicU64::new(0),
            used_gauge: tu_obs::gauge("cloud.object.used_bytes"),
            state: Mutex::new(&lockdep::CLOUD_OBJECT_STATE, State::default()),
        };
        store.reindex()?;
        Ok(store)
    }

    fn sync_used_gauge(&self) {
        self.used_gauge
            .set(self.used_bytes.load(Ordering::Relaxed) as i64);
    }

    fn reindex(&self) -> Result<()> {
        // Walk the tree before taking the lock: directory I/O under
        // `state` would stall every concurrent reader/writer for the
        // duration of the scan.
        let mut sizes = HashMap::new();
        let mut total = 0;
        let mut stack = vec![self.root.clone()];
        while let Some(dir) = stack.pop() {
            for entry in fs::read_dir(&dir)? {
                let entry = entry?;
                let path = entry.path();
                if path.is_dir() {
                    stack.push(path);
                } else {
                    let len = entry.metadata()?.len();
                    total += len;
                    sizes.insert(self.rel_name(&path), len);
                }
            }
        }
        self.state.lock().sizes = sizes;
        self.used_bytes.store(total, Ordering::Relaxed);
        self.sync_used_gauge();
        Ok(())
    }

    fn rel_name(&self, path: &Path) -> String {
        // Paths reaching here come from walking `self.root`, so the strip
        // always succeeds; fall back to the full path rather than panic.
        path.strip_prefix(&self.root)
            .unwrap_or(path)
            .to_string_lossy()
            .into_owned()
    }

    fn path_of(&self, key: &str) -> PathBuf {
        self.root.join(key)
    }

    /// Uploads an object (PUT). Replaces any existing object at `key`.
    pub fn put(&self, key: &str, data: &[u8]) -> Result<()> {
        let path = self.path_of(key);
        if let Some(parent) = path.parent() {
            fs::create_dir_all(parent)?;
        }
        fs::write(&path, data)?;
        let old = {
            let mut state = self.state.lock();
            let old = state.sizes.insert(key.to_string(), data.len() as u64);
            // A PUT replaces the object's content, so the next read is a
            // first read again (cold fetch); leaving the key in
            // `read_before` would skip the first-read penalty and
            // under-charge Figure 1c's model on overwrite-heavy workloads.
            state.read_before.remove(key);
            old
        };
        if let Some(old) = old {
            self.used_bytes.fetch_sub(old, Ordering::Relaxed);
        }
        self.used_bytes
            .fetch_add(data.len() as u64, Ordering::Relaxed);
        self.sync_used_gauge();
        self.stats.puts.fetch_add(1, Ordering::Relaxed);
        self.stats
            .bytes_written
            .fetch_add(data.len() as u64, Ordering::Relaxed);
        self.obs.record_write(data.len() as u64);
        self.clock.charge(self.model.write_ns(data.len() as u64));
        Ok(())
    }

    /// Downloads a whole object (GET).
    pub fn get(&self, key: &str) -> Result<Vec<u8>> {
        let data = fs::read(self.path_of(key)).map_err(|e| self.map_nf(e, key))?;
        self.charge_get(key, data.len() as u64);
        Ok(data)
    }

    /// Range GET: `len` bytes starting at `offset`. One billable Get
    /// request, regardless of length. Short reads at end-of-object return
    /// the available prefix.
    pub fn get_range(&self, key: &str, offset: u64, len: usize) -> Result<Vec<u8>> {
        let mut f = File::open(self.path_of(key)).map_err(|e| self.map_nf(e, key))?;
        f.seek(SeekFrom::Start(offset))?;
        let mut buf = vec![0u8; len];
        let mut filled = 0;
        while filled < len {
            let n = f.read(&mut buf[filled..])?;
            if n == 0 {
                break;
            }
            filled += n;
        }
        buf.truncate(filled);
        self.charge_get(key, filled as u64);
        Ok(buf)
    }

    /// Multi-range GET: several `(offset, len)` ranges served by one
    /// billable request — the covering span is fetched once and sliced per
    /// range, the way an HTTP multipart range GET is billed. This is what
    /// makes coalesced SSTable readahead cheaper under Equations 4/6: a run
    /// of adjacent blocks costs one Get instead of one per block. Ranges
    /// past end-of-object yield their available prefix; an empty range list
    /// issues no request.
    pub fn get_multi_range(&self, key: &str, ranges: &[(u64, usize)]) -> Result<Vec<Vec<u8>>> {
        let Some(span_start) = ranges.iter().map(|&(o, _)| o).min() else {
            return Ok(Vec::new());
        };
        let span_end = ranges
            .iter()
            .map(|&(o, l)| o + l as u64)
            .max()
            .unwrap_or(span_start);
        let mut f = File::open(self.path_of(key)).map_err(|e| self.map_nf(e, key))?;
        f.seek(SeekFrom::Start(span_start))?;
        let want = (span_end - span_start) as usize;
        let mut buf = vec![0u8; want];
        let mut filled = 0;
        while filled < want {
            let n = f.read(&mut buf[filled..])?;
            if n == 0 {
                break;
            }
            filled += n;
        }
        buf.truncate(filled);
        self.charge_get(key, filled as u64);
        Ok(crate::block::slice_ranges(&buf, span_start, ranges))
    }

    fn charge_get(&self, key: &str, len: u64) {
        let first = {
            // Allocate the key only on an object's first read.
            let mut state = self.state.lock();
            !state.read_before.contains(key) && state.read_before.insert(key.to_string())
        };
        self.stats.gets.fetch_add(1, Ordering::Relaxed);
        self.stats.bytes_read.fetch_add(len, Ordering::Relaxed);
        self.obs.record_read(len, first);
        self.clock.charge(self.model.read_ns(len, first));
    }

    fn map_nf(&self, e: std::io::Error, key: &str) -> Error {
        if e.kind() == std::io::ErrorKind::NotFound {
            Error::not_found(format!("object {key}"))
        } else {
            Error::Io(e)
        }
    }

    /// Deletes an object. Idempotent like S3: deleting a missing key is OK.
    pub fn delete(&self, key: &str) -> Result<()> {
        match fs::remove_file(self.path_of(key)) {
            Ok(()) => {}
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(e.into()),
        }
        let mut state = self.state.lock();
        let old = state.sizes.remove(key);
        state.read_before.remove(key);
        drop(state);
        if let Some(old) = old {
            self.used_bytes.fetch_sub(old, Ordering::Relaxed);
        }
        self.sync_used_gauge();
        self.stats.deletes.fetch_add(1, Ordering::Relaxed);
        self.obs.record_delete();
        Ok(())
    }

    /// Size of an object in bytes.
    pub fn len(&self, key: &str) -> Result<u64> {
        self.state
            .lock()
            .sizes
            .get(key)
            .copied()
            .ok_or_else(|| Error::not_found(format!("object {key}")))
    }

    /// True if the object exists.
    pub fn exists(&self, key: &str) -> bool {
        self.state.lock().sizes.contains_key(key)
    }

    /// All keys with the given prefix, sorted (LIST, uncharged — the paper's
    /// cost model only counts data traffic).
    pub fn list_prefix(&self, prefix: &str) -> Vec<String> {
        let state = self.state.lock();
        let mut out: Vec<String> = state
            .sizes
            .keys()
            .filter(|k| k.starts_with(prefix))
            .cloned()
            .collect();
        out.sort();
        out
    }

    /// Total bytes stored across all objects.
    pub fn used_bytes(&self) -> u64 {
        self.used_bytes.load(Ordering::Relaxed)
    }

    /// Snapshot of the operation counters.
    pub fn stats(&self) -> StorageStats {
        StorageStats {
            get_requests: self.stats.gets.load(Ordering::Relaxed),
            put_requests: self.stats.puts.load(Ordering::Relaxed),
            delete_requests: self.stats.deletes.load(Ordering::Relaxed),
            bytes_read: self.stats.bytes_read.load(Ordering::Relaxed),
            bytes_written: self.stats.bytes_written.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::LatencyMode;

    fn store() -> (tempfile::TempDir, ObjectStore) {
        let dir = tempfile::tempdir().unwrap();
        let s = ObjectStore::open(
            dir.path().join("obj"),
            LatencyModel::s3(),
            CostClock::new(LatencyMode::Virtual),
        )
        .unwrap();
        (dir, s)
    }

    #[test]
    fn put_get_round_trip() {
        let (_d, s) = store();
        s.put("l2/part-0/sst-3", b"payload").unwrap();
        assert_eq!(s.get("l2/part-0/sst-3").unwrap(), b"payload");
        assert_eq!(s.len("l2/part-0/sst-3").unwrap(), 7);
        assert_eq!(s.used_bytes(), 7);
    }

    #[test]
    fn range_get_counts_one_request() {
        let (_d, s) = store();
        s.put("k", b"0123456789").unwrap();
        let before = s.stats();
        assert_eq!(s.get_range("k", 4, 3).unwrap(), b"456");
        let d = s.stats().since(&before);
        assert_eq!(d.get_requests, 1);
        assert_eq!(d.bytes_read, 3);
    }

    #[test]
    fn multi_range_get_counts_one_request() {
        let (_d, s) = store();
        s.put("k", b"0123456789").unwrap();
        let before = s.stats();
        let parts = s.get_multi_range("k", &[(2, 3), (5, 3)]).unwrap();
        assert_eq!(parts, vec![b"234".to_vec(), b"567".to_vec()]);
        let d = s.stats().since(&before);
        assert_eq!(d.get_requests, 1, "coalesced ranges share one request");
        assert_eq!(d.bytes_read, 6);
        assert!(s.get_multi_range("k", &[]).unwrap().is_empty());
        assert_eq!(s.stats().since(&before).get_requests, 1);
    }

    #[test]
    fn missing_object_is_not_found_but_delete_is_idempotent() {
        let (_d, s) = store();
        assert!(s.get("nope").unwrap_err().is_not_found());
        s.delete("nope").unwrap();
        assert_eq!(s.stats().delete_requests, 1);
    }

    #[test]
    fn list_prefix_sorted() {
        let (_d, s) = store();
        for k in ["p/2", "p/1", "q/3"] {
            s.put(k, b"x").unwrap();
        }
        assert_eq!(s.list_prefix("p/"), vec!["p/1", "p/2"]);
    }

    #[test]
    fn per_request_cost_dominates_for_small_objects() {
        // Two small GETs should cost roughly twice one GET: latency is
        // per-request, not per-byte, below the 16 KiB knee.
        let (_d, s) = store();
        s.put("a", &[0u8; 64]).unwrap();
        s.put("b", &[0u8; 8192]).unwrap();
        s.get("a").unwrap(); // absorb first-read penalties
        s.get("b").unwrap();
        let t0 = s.clock.virtual_ns();
        s.get("a").unwrap();
        let small = s.clock.virtual_ns() - t0;
        let t1 = s.clock.virtual_ns();
        s.get("b").unwrap();
        let large = s.clock.virtual_ns() - t1;
        assert_eq!(small, large, "flat latency below the knee");
    }

    #[test]
    fn overwrite_resets_first_read_penalty() {
        // Regression: a PUT over an existing key replaces its content, so
        // the next GET must pay the first-read penalty again. Before the
        // fix, `read_before` survived overwrites and the re-read was
        // charged as warm.
        let (_d, s) = store();
        s.put("k", &[0u8; 256]).unwrap();
        s.get("k").unwrap(); // first read: cold
        let t0 = s.clock.virtual_ns();
        s.get("k").unwrap(); // warm
        let warm = s.clock.virtual_ns() - t0;
        s.put("k", &[1u8; 256]).unwrap(); // overwrite invalidates warmth
        let t1 = s.clock.virtual_ns();
        s.get("k").unwrap();
        let after_overwrite = s.clock.virtual_ns() - t1;
        assert!(
            after_overwrite > warm,
            "re-read after overwrite must be cold: {after_overwrite}ns vs warm {warm}ns"
        );
    }

    #[test]
    fn range_reads_of_same_object_pay_penalty_once() {
        // Multiple ranged GETs of one (unmodified) object are billed one
        // request each, but only the first is a cold read.
        let (_d, s) = store();
        s.put("k", &[0u8; 8192]).unwrap();
        let before = s.stats();
        s.get_range("k", 0, 1024).unwrap();
        let t0 = s.clock.virtual_ns();
        s.get_range("k", 1024, 1024).unwrap();
        s.get_range("k", 2048, 1024).unwrap();
        let warm_pair = s.clock.virtual_ns() - t0;
        let d = s.stats().since(&before);
        assert_eq!(d.get_requests, 3, "one billable Get per range");
        assert_eq!(d.bytes_read, 3 * 1024);
        // Two warm requests together cost less than cold + warm.
        let m = LatencyModel::s3();
        assert_eq!(warm_pair, 2 * m.read_ns(1024, false));
    }

    #[test]
    fn reopen_reindexes() {
        let dir = tempfile::tempdir().unwrap();
        let clock = CostClock::new(LatencyMode::Off);
        {
            let s =
                ObjectStore::open(dir.path().join("o"), LatencyModel::s3(), clock.clone()).unwrap();
            s.put("x/y", b"abc").unwrap();
        }
        let s = ObjectStore::open(dir.path().join("o"), LatencyModel::s3(), clock).unwrap();
        assert!(s.exists("x/y"));
        assert_eq!(s.used_bytes(), 3);
    }
}
