//! SSTable format: prefix-compressed data blocks, an index block, a bloom
//! filter, and a properties footer.
//!
//! Layout (offsets grow downward):
//!
//! ```text
//! [data block 0][data block 1]...      Snappy-compressed, CRC-guarded
//! [index block]                        last-key -> (offset, len) per block
//! [bloom filter]
//! [properties]                         entry count, first/last key
//! [footer: 4 x (u64 offset, u64 len) + u64 magic]
//! ```
//!
//! Every block (data, index, properties) is framed as
//! `[payload][compression tag: 1 byte][masked crc32c: 4 bytes]`, like
//! LevelDB. Keys are the 16-byte `(id, start_ts)` chunk keys of
//! `tu_common::keys`, so the properties' first/last key double as the
//! table's ID range — which the patch mechanism needs (Figure 11).

use std::sync::Arc;

use tu_cloud::block::BlockStore;
use tu_cloud::object::ObjectStore;
use tu_common::{varint, Error, Result};
use tu_compress::{crc, snappy};

use crate::bloom::BloomFilter;
use crate::cache::BlockCache;

/// A parsed data block as stored in the cache.
type Block = Arc<Vec<(Vec<u8>, Vec<u8>)>>;

const MAGIC: u64 = 0x7475_5353_5441_424c; // "tuSSTABL"
const FOOTER_LEN: usize = 8 * 8 + 8;
const RESTART_INTERVAL: usize = 16;
/// Target uncompressed data-block size; the paper's cost model bills one
/// slow-storage Get per 4 KiB block (Table 1: `S_block`).
pub const BLOCK_SIZE: usize = 4096;

const COMPRESS_NONE: u8 = 0;
const COMPRESS_SNAPPY: u8 = 1;

/// Block-load and readahead counters, resolved once per process. Traced,
/// so profiled operations see which block fetches they caused.
struct SstObs {
    block_loads: tu_obs::TracedCounter,
    block_load_bytes: tu_obs::TracedCounter,
    coalesced_requests: tu_obs::TracedCounter,
    coalesced_blocks: tu_obs::TracedCounter,
    bloom_checks: tu_obs::TracedCounter,
    bloom_negatives: tu_obs::TracedCounter,
}

fn sst_obs() -> &'static SstObs {
    static OBS: std::sync::OnceLock<SstObs> = std::sync::OnceLock::new();
    OBS.get_or_init(|| SstObs {
        block_loads: tu_obs::traced("lsm.sstable.block_loads"),
        block_load_bytes: tu_obs::traced("lsm.sstable.block_load_bytes"),
        coalesced_requests: tu_obs::traced("lsm.readahead.coalesced_requests"),
        coalesced_blocks: tu_obs::traced("lsm.readahead.coalesced_blocks"),
        bloom_checks: tu_obs::traced("lsm.bloom.checks"),
        bloom_negatives: tu_obs::traced("lsm.bloom.negatives"),
    })
}

/// Default cap on how many adjacent uncached blocks one coalesced readahead
/// request may fetch (64 x 4 KiB ≈ 256 KiB per request — well past the
/// latency model's 16 KiB knee, so larger runs would trade little latency
/// for much more over-read on early-terminated scans).
pub const DEFAULT_READAHEAD_BLOCKS: usize = 64;

// --- block building ---------------------------------------------------------

/// Builds one prefix-compressed block.
struct BlockBuilder {
    buf: Vec<u8>,
    restarts: Vec<u32>,
    last_key: Vec<u8>,
    entries: usize,
}

impl BlockBuilder {
    fn new() -> Self {
        BlockBuilder {
            buf: Vec::with_capacity(BLOCK_SIZE),
            restarts: vec![0],
            last_key: Vec::new(),
            entries: 0,
        }
    }

    fn add(&mut self, key: &[u8], value: &[u8]) {
        let shared = if self.entries % RESTART_INTERVAL == 0 {
            self.restarts.push(self.buf.len() as u32);
            0
        } else {
            key.iter()
                .zip(&self.last_key)
                .take_while(|(a, b)| a == b)
                .count()
        };
        varint::write_u64(&mut self.buf, shared as u64);
        varint::write_u64(&mut self.buf, (key.len() - shared) as u64);
        varint::write_u64(&mut self.buf, value.len() as u64);
        self.buf.extend_from_slice(&key[shared..]);
        self.buf.extend_from_slice(value);
        self.last_key.clear();
        self.last_key.extend_from_slice(key);
        self.entries += 1;
    }

    fn estimated_len(&self) -> usize {
        self.buf.len() + self.restarts.len() * 4 + 4
    }

    fn is_empty(&self) -> bool {
        self.entries == 0
    }

    fn finish(mut self) -> Vec<u8> {
        // The first restart pushed at construction is a duplicate of the
        // one pushed by the first add(); drop it.
        let restarts = if self.restarts.len() > 1 {
            &self.restarts[1..]
        } else {
            &self.restarts[..]
        };
        for &r in restarts {
            self.buf.extend_from_slice(&r.to_le_bytes());
        }
        self.buf
            .extend_from_slice(&(restarts.len() as u32).to_le_bytes());
        self.buf
    }
}

/// Parses entries out of one uncompressed block.
fn block_entries(block: &[u8]) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
    if block.len() < 4 {
        return Err(Error::corruption("sstable block shorter than trailer"));
    }
    let n_restarts = tu_common::bytes::u32_le(&block[block.len() - 4..]) as usize;
    let data_end = block
        .len()
        .checked_sub(4 + n_restarts * 4)
        .ok_or_else(|| Error::corruption("sstable block restart count invalid"))?;
    let mut out = Vec::new();
    let mut off = 0usize;
    let mut last_key: Vec<u8> = Vec::new();
    while off < data_end {
        let (shared, n) = varint::read_u64(&block[off..])?;
        off += n;
        let (non_shared, n) = varint::read_u64(&block[off..])?;
        off += n;
        let (vlen, n) = varint::read_u64(&block[off..])?;
        off += n;
        let shared = shared as usize;
        let non_shared = non_shared as usize;
        let vlen = vlen as usize;
        if shared > last_key.len() || off + non_shared + vlen > data_end {
            return Err(Error::corruption("sstable block entry out of bounds"));
        }
        let mut key = last_key[..shared].to_vec();
        key.extend_from_slice(&block[off..off + non_shared]);
        off += non_shared;
        let value = block[off..off + vlen].to_vec();
        off += vlen;
        last_key = key.clone();
        out.push((key, value));
    }
    Ok(out)
}

fn frame_block(payload: &[u8]) -> Vec<u8> {
    // Compress if it helps.
    let compressed = snappy::compress(payload);
    let (tag, body) = if compressed.len() < payload.len() {
        (COMPRESS_SNAPPY, compressed)
    } else {
        (COMPRESS_NONE, payload.to_vec())
    };
    let mut out = body;
    out.push(tag);
    let checksum = crc::mask(crc::crc32c(&out));
    out.extend_from_slice(&checksum.to_le_bytes());
    out
}

fn unframe_block(framed: &[u8]) -> Result<Vec<u8>> {
    if framed.len() < 5 {
        return Err(Error::corruption("sstable block frame truncated"));
    }
    let (body_tag, crc_bytes) = framed.split_at(framed.len() - 4);
    let stored = crc::unmask(tu_common::bytes::u32_le(crc_bytes));
    if crc::crc32c(body_tag) != stored {
        return Err(Error::corruption("sstable block checksum mismatch"));
    }
    let (body, tag) = body_tag.split_at(body_tag.len() - 1);
    match tag[0] {
        COMPRESS_NONE => Ok(body.to_vec()),
        COMPRESS_SNAPPY => snappy::decompress(body),
        other => Err(Error::corruption(format!(
            "unknown sstable compression tag {other}"
        ))),
    }
}

// --- table building ----------------------------------------------------------

/// Summary of a finished table, persisted by the tree's manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableProps {
    pub entries: u64,
    pub first_key: Vec<u8>,
    pub last_key: Vec<u8>,
    /// Total file size in bytes.
    pub file_len: u64,
    /// How many entries carry a `tu_compress::agg` stats envelope — the
    /// pushdown-eligible fraction the introspection plane reports as
    /// "stats-footer coverage".
    pub stats_chunks: u64,
}

/// Builds a serialized SSTable in memory from sorted `(key, value)` adds.
pub struct TableBuilder {
    buf: Vec<u8>,
    current: BlockBuilder,
    index: Vec<(Vec<u8>, u64, u64)>, // (last key, offset, len)
    keys: Vec<Vec<u8>>,
    first_key: Option<Vec<u8>>,
    last_key: Vec<u8>,
    entries: u64,
    stats_chunks: u64,
}

impl Default for TableBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl TableBuilder {
    pub fn new() -> Self {
        TableBuilder {
            buf: Vec::new(),
            current: BlockBuilder::new(),
            index: Vec::new(),
            keys: Vec::new(),
            first_key: None,
            last_key: Vec::new(),
            entries: 0,
            stats_chunks: 0,
        }
    }

    /// Adds an entry; keys must arrive in strictly increasing order.
    pub fn add(&mut self, key: &[u8], value: &[u8]) -> Result<()> {
        if self.entries > 0 && key <= self.last_key.as_slice() {
            return Err(Error::invalid("sstable keys must be strictly increasing"));
        }
        if self.first_key.is_none() {
            self.first_key = Some(key.to_vec());
        }
        self.current.add(key, value);
        if tu_compress::agg::split_envelope(value).0.is_some() {
            self.stats_chunks += 1;
        }
        self.keys.push(key.to_vec());
        self.last_key.clear();
        self.last_key.extend_from_slice(key);
        self.entries += 1;
        if self.current.estimated_len() >= BLOCK_SIZE {
            self.flush_block();
        }
        Ok(())
    }

    fn flush_block(&mut self) {
        if self.current.is_empty() {
            return;
        }
        let block = std::mem::replace(&mut self.current, BlockBuilder::new());
        let framed = frame_block(&block.finish());
        let offset = self.buf.len() as u64;
        self.buf.extend_from_slice(&framed);
        self.index
            .push((self.last_key.clone(), offset, framed.len() as u64));
    }

    pub fn entries(&self) -> u64 {
        self.entries
    }

    /// Current approximate size of the table being built.
    pub fn estimated_len(&self) -> usize {
        self.buf.len() + self.current.estimated_len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries == 0
    }

    /// Finalizes the table, returning the file bytes and properties.
    pub fn finish(mut self) -> Result<(Vec<u8>, TableProps)> {
        if self.entries == 0 {
            return Err(Error::invalid("cannot finish an empty sstable"));
        }
        self.flush_block();
        // Index block.
        let mut idx = BlockBuilder::new();
        for (last_key, offset, len) in &self.index {
            let mut v = Vec::with_capacity(16);
            varint::write_u64(&mut v, *offset);
            varint::write_u64(&mut v, *len);
            idx.add(last_key, &v);
        }
        let index_framed = frame_block(&idx.finish());
        let index_off = self.buf.len() as u64;
        self.buf.extend_from_slice(&index_framed);
        // Bloom filter.
        let bloom = BloomFilter::build(self.keys.iter().map(|k| k.as_slice()), 10);
        let bloom_bytes = bloom.to_bytes();
        let bloom_off = self.buf.len() as u64;
        self.buf.extend_from_slice(&bloom_bytes);
        // Properties block.
        let first_key = self
            .first_key
            .ok_or_else(|| Error::invalid("sstable has entries but no first key"))?;
        let mut props = Vec::new();
        varint::write_u64(&mut props, self.entries);
        varint::write_u64(&mut props, first_key.len() as u64);
        props.extend_from_slice(&first_key);
        varint::write_u64(&mut props, self.last_key.len() as u64);
        props.extend_from_slice(&self.last_key);
        varint::write_u64(&mut props, self.stats_chunks);
        let props_framed = frame_block(&props);
        let props_off = self.buf.len() as u64;
        self.buf.extend_from_slice(&props_framed);
        // Footer.
        for v in [
            index_off,
            index_framed.len() as u64,
            bloom_off,
            bloom_bytes.len() as u64,
            props_off,
            props_framed.len() as u64,
            0,
            0,
        ] {
            self.buf.extend_from_slice(&v.to_le_bytes());
        }
        self.buf.extend_from_slice(&MAGIC.to_le_bytes());
        let props = TableProps {
            entries: self.entries,
            first_key,
            last_key: self.last_key,
            file_len: self.buf.len() as u64,
            stats_chunks: self.stats_chunks,
        };
        Ok((self.buf, props))
    }
}

// --- reading ------------------------------------------------------------------

/// Random-access byte source an SSTable can be read from: a fast-tier file
/// or a slow-tier object.
pub enum TableSource {
    Block(Arc<BlockStore>, String),
    Object(Arc<ObjectStore>, String),
}

impl TableSource {
    fn read_at(&self, offset: u64, len: usize) -> Result<Vec<u8>> {
        let data = match self {
            TableSource::Block(store, name) => store.read_range(name, offset, len)?,
            TableSource::Object(store, key) => store.get_range(key, offset, len)?,
        };
        if data.len() != len {
            return Err(Error::corruption(format!(
                "short read: wanted {len} bytes at {offset}, got {}",
                data.len()
            )));
        }
        Ok(data)
    }

    /// Fetches several ranges with one billable store request (the
    /// readahead path: a run of adjacent data blocks costs one Get).
    fn read_multi(&self, ranges: &[(u64, usize)]) -> Result<Vec<Vec<u8>>> {
        let parts = match self {
            TableSource::Block(store, name) => store.read_multi_range(name, ranges)?,
            TableSource::Object(store, key) => store.get_multi_range(key, ranges)?,
        };
        for (part, &(offset, len)) in parts.iter().zip(ranges) {
            if part.len() != len {
                return Err(Error::corruption(format!(
                    "short read: wanted {len} bytes at {offset}, got {}",
                    part.len()
                )));
            }
        }
        Ok(parts)
    }

    fn len(&self) -> Result<u64> {
        match self {
            TableSource::Block(store, name) => store.len(name),
            TableSource::Object(store, key) => store.len(key),
        }
    }

    /// A cache identity for this table.
    fn cache_name(&self) -> String {
        match self {
            TableSource::Block(_, name) => format!("b:{name}"),
            TableSource::Object(_, key) => format!("o:{key}"),
        }
    }
}

/// An open SSTable: footer, index, and bloom loaded; data blocks fetched on
/// demand through the block cache.
pub struct Table {
    source: TableSource,
    cache: Option<Arc<BlockCache>>,
    cache_name: String,
    index: Vec<(Vec<u8>, u64, u64)>,
    bloom: BloomFilter,
    props: TableProps,
    /// Max adjacent uncached blocks fetched by one coalesced readahead
    /// request during range scans; `<= 1` disables coalescing.
    readahead_blocks: usize,
}

impl Table {
    /// Opens a table, reading footer + index + bloom + properties.
    pub fn open(source: TableSource, cache: Option<Arc<BlockCache>>) -> Result<Self> {
        let file_len = source.len()?;
        if file_len < FOOTER_LEN as u64 {
            return Err(Error::corruption("sstable shorter than its footer"));
        }
        let footer = source.read_at(file_len - FOOTER_LEN as u64, FOOTER_LEN)?;
        let magic = tu_common::bytes::u64_le(&footer[FOOTER_LEN - 8..]);
        if magic != MAGIC {
            return Err(Error::corruption("sstable footer magic mismatch"));
        }
        let mut fields = [0u64; 8];
        for (i, f) in fields.iter_mut().enumerate() {
            *f = tu_common::bytes::u64_le(&footer[i * 8..i * 8 + 8]);
        }
        let [index_off, index_len, bloom_off, bloom_len, props_off, props_len, _, _] = fields;
        // Index, bloom, and properties are laid out contiguously at the
        // file tail; fetch them in a single request (one Get on the slow
        // tier instead of three).
        let tail_len = (file_len - FOOTER_LEN as u64 - index_off) as usize;
        let tail = source.read_at(index_off, tail_len)?;
        let slice = |off: u64, len: u64| -> Result<&[u8]> {
            let start = (off - index_off) as usize;
            tail.get(start..start + len as usize)
                .ok_or_else(|| Error::corruption("sstable tail section out of bounds"))
        };
        let index_block = unframe_block(slice(index_off, index_len)?)?;
        let mut index = Vec::new();
        for (key, value) in block_entries(&index_block)? {
            let (off, n) = varint::read_u64(&value)?;
            let (len, _) = varint::read_u64(&value[n..])?;
            index.push((key, off, len));
        }
        let bloom = BloomFilter::from_bytes(slice(bloom_off, bloom_len)?)
            .ok_or_else(|| Error::corruption("sstable bloom filter truncated"))?;
        let props_block = unframe_block(slice(props_off, props_len)?)?;
        let mut off = 0usize;
        let (entries, n) = varint::read_u64(&props_block[off..])?;
        off += n;
        let (fk_len, n) = varint::read_u64(&props_block[off..])?;
        off += n;
        let first_key = props_block
            .get(off..off + fk_len as usize)
            .ok_or_else(|| Error::corruption("sstable properties truncated"))?
            .to_vec();
        off += fk_len as usize;
        let (lk_len, n) = varint::read_u64(&props_block[off..])?;
        off += n;
        let last_key = props_block
            .get(off..off + lk_len as usize)
            .ok_or_else(|| Error::corruption("sstable properties truncated"))?
            .to_vec();
        off += lk_len as usize;
        // Tables written before stats coverage was recorded simply end
        // here; treat them as having no stats envelopes.
        let stats_chunks = if off < props_block.len() {
            varint::read_u64(&props_block[off..])?.0
        } else {
            0
        };
        let cache_name = source.cache_name();
        Ok(Table {
            source,
            cache,
            cache_name,
            index,
            bloom,
            props: TableProps {
                entries,
                first_key,
                last_key,
                file_len,
                stats_chunks,
            },
            readahead_blocks: DEFAULT_READAHEAD_BLOCKS,
        })
    }

    /// Sets the coalesced-readahead cap for range scans (`<= 1` disables
    /// coalescing; every block is then fetched with its own request).
    pub fn set_readahead(&mut self, blocks: usize) {
        self.readahead_blocks = blocks;
    }

    pub fn props(&self) -> &TableProps {
        &self.props
    }

    /// Number of data blocks.
    pub fn block_count(&self) -> usize {
        self.index.len()
    }

    fn load_block(&self, block_idx: usize) -> Result<Arc<Vec<(Vec<u8>, Vec<u8>)>>> {
        let (_, off, len) = self.index[block_idx];
        if let Some(cache) = &self.cache {
            if let Some(hit) = cache.get(&self.cache_name, off) {
                return Ok(hit);
            }
        }
        // Cache miss: this read reaches storage (one billable Get on the
        // slow tier — the per-block term of Equations 4/6).
        sst_obs().block_loads.inc();
        sst_obs().block_load_bytes.add(len);
        let framed = self.source.read_at(off, len as usize)?;
        let entries = Arc::new(block_entries(&unframe_block(&framed)?)?);
        if let Some(cache) = &self.cache {
            cache.insert(&self.cache_name, off, entries.clone(), len as usize);
        }
        Ok(entries)
    }

    /// Loads the data blocks listed in `blocks` (ascending, distinct
    /// indices) for a range scan, coalescing runs of adjacent uncached
    /// blocks into single ranged store reads. Returns them in list order.
    ///
    /// Cache accounting matches the one-at-a-time path exactly: each block
    /// is probed once (one hit or one miss per block), and
    /// `lsm.sstable.block_loads`/`block_load_bytes` still count every block
    /// that reached storage. What changes is the *request* count — a run of
    /// `k >= 2` adjacent misses costs one Get instead of `k` (the
    /// per-request term of Equations 4/6), surfaced as
    /// `lsm.readahead.coalesced_requests`/`coalesced_blocks`.
    fn load_blocks(&self, blocks: &[usize]) -> Result<Vec<Block>> {
        let mut out: Vec<Option<Block>> = vec![None; blocks.len()];
        // Positions in `blocks` whose block is not cached.
        let mut missing: Vec<usize> = Vec::new();
        for (pos, &idx) in blocks.iter().enumerate() {
            let (_, off, _) = self.index[idx];
            if let Some(cache) = &self.cache {
                if let Some(hit) = cache.get(&self.cache_name, off) {
                    out[pos] = Some(hit);
                    continue;
                }
            }
            missing.push(pos);
        }
        let max_run = self.readahead_blocks.max(1);
        let mut i = 0;
        while i < missing.len() {
            let mut j = i + 1;
            while j < missing.len()
                && blocks[missing[j]] == blocks[missing[j - 1]] + 1
                && j - i < max_run
            {
                j += 1;
            }
            self.fetch_run(blocks, &missing[i..j], &mut out)?;
            i = j;
        }
        out.into_iter()
            .map(|b| b.ok_or_else(|| Error::corruption("range block neither cached nor fetched")))
            .collect()
    }

    /// Fetches one run of adjacent uncached blocks (`run` holds their
    /// positions in `blocks`) from storage, parses them, and inserts them
    /// into the cache.
    fn fetch_run(&self, blocks: &[usize], run: &[usize], out: &mut [Option<Block>]) -> Result<()> {
        let frames = if run.len() >= 2 {
            let ranges: Vec<(u64, usize)> = run
                .iter()
                .map(|&pos| {
                    let (_, off, len) = self.index[blocks[pos]];
                    (off, len as usize)
                })
                .collect();
            sst_obs().coalesced_requests.inc();
            sst_obs().coalesced_blocks.add(run.len() as u64);
            self.source.read_multi(&ranges)?
        } else {
            let (_, off, len) = self.index[blocks[run[0]]];
            vec![self.source.read_at(off, len as usize)?]
        };
        for (&pos, framed) in run.iter().zip(&frames) {
            let (_, off, len) = self.index[blocks[pos]];
            sst_obs().block_loads.inc();
            sst_obs().block_load_bytes.add(len);
            let entries = Arc::new(block_entries(&unframe_block(framed)?)?);
            if let Some(cache) = &self.cache {
                cache.insert(&self.cache_name, off, entries.clone(), len as usize);
            }
            out[pos] = Some(entries);
        }
        Ok(())
    }

    /// Point lookup.
    pub fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        if key < self.props.first_key.as_slice() || key > self.props.last_key.as_slice() {
            return Ok(None);
        }
        sst_obs().bloom_checks.inc();
        if !self.bloom.may_contain(key) {
            sst_obs().bloom_negatives.inc();
            return Ok(None);
        }
        let block_idx = match self
            .index
            .binary_search_by(|(last, _, _)| last.as_slice().cmp(key))
        {
            Ok(i) => i,
            Err(i) if i < self.index.len() => i,
            Err(_) => return Ok(None),
        };
        let entries = self.load_block(block_idx)?;
        Ok(entries
            .binary_search_by(|(k, _)| k.as_slice().cmp(key))
            .ok()
            .map(|i| entries[i].1.clone()))
    }

    /// Iterates entries with keys in `[start, end)`: the one-range case
    /// of [`Table::ranges`].
    pub fn range(&self, start: &[u8], end: &[u8]) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
        self.ranges(&[(start, end)])
    }

    /// Iterates entries with keys in any of the `[start, end)` ranges,
    /// which must be ascending and disjoint; entries come out in key
    /// order.
    ///
    /// Every range's bounding blocks are located up front via the index,
    /// and the union of those block spans is loaded once: a block shared
    /// by neighbouring ranges is probed and fetched once, and adjacent
    /// uncached blocks — within one range or across several — are read
    /// ahead with coalesced store requests.
    pub fn ranges<K: AsRef<[u8]>>(&self, ranges: &[(K, K)]) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
        debug_assert!(ranges
            .windows(2)
            .all(|w| w[0].1.as_ref() <= w[1].0.as_ref()));
        let mut out = Vec::new();
        // (start, end, first block, last block) of every non-empty range.
        let mut spans = Vec::with_capacity(ranges.len());
        let mut blocks: Vec<usize> = Vec::new();
        for (start, end) in ranges {
            let (start, end) = (start.as_ref(), end.as_ref());
            if let Some((first, last)) = self.block_span(start, end) {
                // Spans of ascending ranges ascend too, so extending past
                // the previous span's last block keeps `blocks` sorted
                // and distinct.
                let from = blocks.last().map_or(first, |&b| first.max(b + 1));
                blocks.extend(from..=last);
                spans.push((start, end, first, last));
            }
        }
        if blocks.is_empty() {
            return Ok(out);
        }
        let loaded = self.load_blocks(&blocks)?;
        for (start, end, first, last) in spans {
            let at = blocks.partition_point(|&b| b < first);
            'span: for entries in &loaded[at..=at + (last - first)] {
                for (k, v) in entries.iter() {
                    if k.as_slice() >= end {
                        break 'span;
                    }
                    if k.as_slice() >= start {
                        out.push((k.clone(), v.clone()));
                    }
                }
            }
        }
        Ok(out)
    }

    /// The first and last data block that can hold keys in `[start, end)`,
    /// or `None` when no block can.
    fn block_span(&self, start: &[u8], end: &[u8]) -> Option<(usize, usize)> {
        if self.index.is_empty() || start >= end {
            return None;
        }
        let first_block = match self
            .index
            .binary_search_by(|(last, _, _)| last.as_slice().cmp(start))
        {
            Ok(i) => i,
            Err(i) => i,
        };
        if first_block >= self.index.len() {
            return None;
        }
        // The first block whose last key reaches `end` is the final block
        // that can still hold keys `< end`; later blocks start past it.
        let last_block = match self
            .index
            .binary_search_by(|(last, _, _)| last.as_slice().cmp(end))
        {
            Ok(i) => i,
            Err(i) => i.min(self.index.len() - 1),
        };
        Some((first_block, last_block))
    }

    /// Reads every entry (used by compaction). Fetches the whole data
    /// region in a single request — compactions stream tables
    /// sequentially, so they pay one Get per table, not one per block
    /// (queries do pay per block, as the paper's Equations 4/6 model).
    pub fn scan_all(&self) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
        let Some(&(_, last_off, last_len)) = self.index.last() else {
            return Ok(Vec::new());
        };
        let data_end = (last_off + last_len) as usize;
        let region = self.source.read_at(0, data_end)?;
        let mut out = Vec::with_capacity(self.props.entries as usize);
        for &(_, off, len) in &self.index {
            let framed = &region[off as usize..(off + len) as usize];
            out.extend(block_entries(&unframe_block(framed)?)?);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tu_cloud::cost::{CostClock, LatencyMode, LatencyModel};
    use tu_common::keys::encode_key;

    fn build_table(n: u64) -> (Vec<u8>, TableProps) {
        let mut b = TableBuilder::new();
        for i in 0..n {
            let key = encode_key(i / 8, (i % 8) as i64 * 1000);
            b.add(&key, format!("value-{i}").as_bytes()).unwrap();
        }
        b.finish().unwrap()
    }

    fn open_on_block(bytes: &[u8]) -> (tempfile::TempDir, Table) {
        let dir = tempfile::tempdir().unwrap();
        let store = Arc::new(
            BlockStore::open(
                dir.path().join("b"),
                LatencyModel::ebs(),
                CostClock::new(LatencyMode::Off),
            )
            .unwrap(),
        );
        store.write_file("sst-1", bytes).unwrap();
        let t = Table::open(TableSource::Block(store, "sst-1".into()), None).unwrap();
        (dir, t)
    }

    #[test]
    fn build_and_point_get() {
        let (bytes, props) = build_table(500);
        assert_eq!(props.entries, 500);
        let (_d, t) = open_on_block(&bytes);
        assert_eq!(t.props().entries, 500);
        for i in (0..500u64).step_by(37) {
            let key = encode_key(i / 8, (i % 8) as i64 * 1000);
            assert_eq!(
                t.get(&key).unwrap(),
                Some(format!("value-{i}").into_bytes()),
                "entry {i}"
            );
        }
        assert_eq!(t.get(&encode_key(999, 0)).unwrap(), None);
        assert_eq!(t.get(&encode_key(0, 999)).unwrap(), None);
    }

    #[test]
    fn multi_block_tables_have_many_blocks() {
        let (bytes, _) = build_table(5000);
        let (_d, t) = open_on_block(&bytes);
        assert!(t.block_count() > 1, "5000 entries should span blocks");
        assert_eq!(t.scan_all().unwrap().len(), 5000);
    }

    #[test]
    fn range_scan_respects_bounds() {
        let (bytes, _) = build_table(256);
        let (_d, t) = open_on_block(&bytes);
        // Keys of series id 3 (entries 24..32): timestamps 0..8000.
        let start = encode_key(3, 0);
        let end = encode_key(4, 0);
        let hits = t.range(&start, &end).unwrap();
        assert_eq!(hits.len(), 8);
        for (k, _) in &hits {
            assert_eq!(tu_common::keys::decode_id(k).unwrap(), 3);
        }
        // Sub-range of timestamps.
        let hits = t.range(&encode_key(3, 2000), &encode_key(3, 5000)).unwrap();
        assert_eq!(hits.len(), 3);
        assert!(t.range(&end, &start).unwrap().is_empty());
    }

    #[test]
    fn keys_must_be_strictly_increasing() {
        let mut b = TableBuilder::new();
        b.add(b"aaaaaaaaaaaaaaaa", b"1").unwrap();
        assert!(b.add(b"aaaaaaaaaaaaaaaa", b"2").is_err());
        assert!(b.add(b"a", b"2").is_err());
    }

    #[test]
    fn empty_table_cannot_finish() {
        assert!(TableBuilder::new().finish().is_err());
    }

    #[test]
    fn corruption_is_detected() {
        let (mut bytes, _) = build_table(100);
        // Flip a byte in the middle of the first data block.
        bytes[10] ^= 0xff;
        let (_d, t) = open_on_block(&bytes);
        let key = encode_key(0, 0);
        let err = t.get(&key).unwrap_err();
        assert!(err.is_corruption(), "got {err}");
    }

    #[test]
    fn bad_magic_rejected_at_open() {
        let (mut bytes, _) = build_table(10);
        let n = bytes.len();
        bytes[n - 1] ^= 0xff;
        let dir = tempfile::tempdir().unwrap();
        let store = Arc::new(
            BlockStore::open(
                dir.path().join("b"),
                LatencyModel::ebs(),
                CostClock::new(LatencyMode::Off),
            )
            .unwrap(),
        );
        store.write_file("sst", &bytes).unwrap();
        assert!(Table::open(TableSource::Block(store, "sst".into()), None).is_err());
    }

    #[test]
    fn works_from_object_store_with_cache() {
        let (bytes, _) = build_table(2000);
        let dir = tempfile::tempdir().unwrap();
        let store = Arc::new(
            ObjectStore::open(
                dir.path().join("o"),
                LatencyModel::s3(),
                CostClock::new(LatencyMode::Virtual),
            )
            .unwrap(),
        );
        store.put("l2/sst-9", &bytes).unwrap();
        let cache = Arc::new(BlockCache::new(1 << 20));
        let t = Table::open(
            TableSource::Object(store.clone(), "l2/sst-9".into()),
            Some(cache),
        )
        .unwrap();
        let key = encode_key(5, 3000);
        let before = store.stats();
        assert!(t.get(&key).unwrap().is_some());
        let after_first = store.stats();
        assert!(t.get(&key).unwrap().is_some());
        let after_second = store.stats();
        assert!(after_first.get_requests > before.get_requests);
        assert_eq!(
            after_second.get_requests, after_first.get_requests,
            "second read must be served from the block cache"
        );
    }

    #[test]
    fn range_readahead_coalesces_adjacent_block_fetches() {
        // A long cold range scan over a multi-block table must cost far
        // fewer Get requests than blocks, because adjacent uncached blocks
        // are fetched with one coalesced ranged read (Equations 4/6 bill
        // per request). Stats are read per store instance, so this is
        // immune to other tests' global-counter traffic.
        let (bytes, _) = build_table(5000);
        let dir = tempfile::tempdir().unwrap();
        let store = Arc::new(
            ObjectStore::open(
                dir.path().join("o"),
                LatencyModel::s3(),
                CostClock::new(LatencyMode::Virtual),
            )
            .unwrap(),
        );
        store.put("l2/sst", &bytes).unwrap();
        let cache = Arc::new(BlockCache::new(1 << 20));
        let t = Table::open(
            TableSource::Object(store.clone(), "l2/sst".into()),
            Some(cache.clone()),
        )
        .unwrap();
        let blocks = t.block_count();
        assert!(blocks >= 4, "need a multi-block table, got {blocks}");

        let before = store.stats();
        let all = t
            .range(&encode_key(0, 0), &encode_key(u64::MAX, i64::MAX))
            .unwrap();
        assert_eq!(all.len(), 5000);
        let cold = store.stats().since(&before);
        assert_eq!(
            cold.get_requests, 1,
            "one coalesced Get for {blocks} blocks"
        );

        // Warm re-scan: everything is cached, zero requests.
        let before = store.stats();
        t.range(&encode_key(0, 0), &encode_key(u64::MAX, i64::MAX))
            .unwrap();
        assert_eq!(store.stats().since(&before).get_requests, 0);

        // With coalescing disabled the same cold scan pays one Get/block.
        cache.clear();
        let mut t2 = Table::open(
            TableSource::Object(store.clone(), "l2/sst".into()),
            Some(cache),
        )
        .unwrap();
        t2.set_readahead(1);
        let before = store.stats();
        t2.range(&encode_key(0, 0), &encode_key(u64::MAX, i64::MAX))
            .unwrap();
        assert_eq!(
            store.stats().since(&before).get_requests,
            blocks as u64,
            "uncoalesced scan pays one Get per block"
        );
    }

    #[test]
    fn readahead_skips_cached_blocks_and_respects_cap() {
        let (bytes, _) = build_table(5000);
        let dir = tempfile::tempdir().unwrap();
        let store = Arc::new(
            BlockStore::open(
                dir.path().join("b"),
                LatencyModel::ebs(),
                CostClock::new(LatencyMode::Off),
            )
            .unwrap(),
        );
        store.write_file("sst-1", &bytes).unwrap();
        let cache = Arc::new(BlockCache::new(1 << 20));
        let mut t = Table::open(
            TableSource::Block(store.clone(), "sst-1".into()),
            Some(cache),
        )
        .unwrap();
        t.set_readahead(2);
        // Warm one middle block via a point get so the cold scan has a
        // cached hole splitting the run.
        t.get(&encode_key(300, 0)).unwrap();
        let before = store.stats();
        let all = t
            .range(&encode_key(0, 0), &encode_key(u64::MAX, i64::MAX))
            .unwrap();
        assert_eq!(all.len(), 5000);
        let d = store.stats().since(&before);
        let blocks = t.block_count() as u64;
        // Cap 2 → at least ceil((blocks-1)/2) requests, but strictly
        // fewer than one per block.
        assert!(d.get_requests < blocks, "{} !< {blocks}", d.get_requests);
        assert!(
            d.get_requests >= blocks / 2,
            "{} vs {blocks}",
            d.get_requests
        );
    }

    #[test]
    fn multi_range_scan_reads_the_block_union_once() {
        // build_table puts 8 keys per id, so a few hundred neighbouring
        // ids span many blocks. Scanning their key ranges together must
        // return exactly the single-range results, in order, from one
        // coalesced Get, where scanning them one by one pays a Get per
        // range.
        let (bytes, _) = build_table(5000);
        let dir = tempfile::tempdir().unwrap();
        let store = Arc::new(
            ObjectStore::open(
                dir.path().join("o"),
                LatencyModel::s3(),
                CostClock::new(LatencyMode::Virtual),
            )
            .unwrap(),
        );
        store.put("l2/sst", &bytes).unwrap();
        let cache = Arc::new(BlockCache::new(1 << 20));
        let t = Table::open(
            TableSource::Object(store.clone(), "l2/sst".into()),
            Some(cache.clone()),
        )
        .unwrap();
        let ids: Vec<u64> = (100..400).step_by(3).collect();
        let ranges: Vec<_> = ids
            .iter()
            .map(|&id| (encode_key(id, 1000), encode_key(id, 6000)))
            .collect();

        let before = store.stats();
        let batched = t.ranges(&ranges).unwrap();
        let cold = store.stats().since(&before);
        assert_eq!(cold.get_requests, 1, "one coalesced Get for every range");

        cache.clear();
        let before = store.stats();
        let mut one_by_one = Vec::new();
        for (lo, hi) in &ranges {
            one_by_one.extend(t.range(lo, hi).unwrap());
        }
        let single = store.stats().since(&before);
        assert_eq!(batched, one_by_one);
        assert_eq!(batched.len(), ids.len() * 5);
        assert_eq!(
            single.bytes_read, cold.bytes_read,
            "same blocks, fewer requests"
        );
        assert!(single.get_requests > cold.get_requests);
        // Empty and out-of-table ranges contribute nothing.
        let none = [(encode_key(9_000, 0), encode_key(9_001, 0))];
        assert!(t.ranges(&none).unwrap().is_empty());
    }

    #[test]
    fn chunk_key_prefix_compression_is_effective() {
        // Consecutive chunks of one series share 8-byte ID prefixes and
        // most timestamp bytes (§3.3); prefix compression should make the
        // per-entry key overhead small.
        let mut b = TableBuilder::new();
        for i in 0..1000i64 {
            b.add(&encode_key(42, i * 60_000), &[0u8; 8]).unwrap();
        }
        let (bytes, _) = b.finish().unwrap();
        // 1000 entries x (16B key + 8B value) = 24 KB raw; expect much less.
        assert!(bytes.len() < 12_000, "got {} bytes", bytes.len());
    }
}
