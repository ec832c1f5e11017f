//! Batched tree reads: a query reads the tree once for every id the index
//! matched, scanning each table over all of those ids' key ranges together.
//!
//! * Output contract: a multi-id `query` or `query_aggregate` returns
//!   exactly what the same query restricted to each matched id returns,
//!   concatenated and re-sorted by label bytes, at every thread count.
//! * Cost contract: a cold query over neighbouring series pays one object
//!   Get per object table or patch holding them, not one per (series,
//!   table).

use timeunion::engine::{AggKind, Options, QueryResult, Selector, TimeUnion};
use timeunion::lsm::TreeOptions;
use timeunion::model::{Labels, Sample};
use tu_cloud::cost::LatencyMode;
use tu_compress::gorilla;

const MIN: i64 = 60_000;
const HOUR: i64 = 60 * MIN;

fn opts() -> Options {
    Options {
        chunk_samples: 8,
        latency: LatencyMode::Virtual,
        tree: TreeOptions {
            memtable_bytes: 16 << 10,
            max_sstable_bytes: 16 << 10,
            ..TreeOptions::default()
        },
        ..Options::default()
    }
}

/// A deterministic sample value, distinct per (stream, minute).
fn value(stream: u64, t: i64) -> f64 {
    (stream * 10_000) as f64 + (t / MIN) as f64 * 0.5
}

/// Every bit of a result: ids, label bytes, timestamps and value bits.
fn bits(r: &QueryResult) -> Vec<(u64, Vec<u8>, Vec<(i64, u64)>)> {
    r.iter()
        .map(|s| {
            let samples = s.samples.iter().map(|x| (x.t, x.v.to_bits())).collect();
            (s.id, s.labels.to_bytes(), samples)
        })
        .collect()
}

/// Concatenates per-id results and restores the executor's output order.
fn merged(parts: Vec<QueryResult>) -> QueryResult {
    let mut out: QueryResult = parts.into_iter().flatten().collect();
    out.sort_by_cached_key(|s| s.labels.to_bytes());
    out
}

/// Twelve individual series and three four-member groups, written so the
/// tree holds data at every level: L2 partitions, out-of-order L2
/// patches, L0/L1 tables, the memtable and the heads. Two series also
/// carry a rewritten chunk key whose newest version must win. Returns the
/// `uid` tag of every stream.
fn build(db: &TimeUnion) -> Vec<String> {
    let mut uids = Vec::new();
    let mut series = Vec::new();
    for s in 0..12u64 {
        let uid = format!("s{s}");
        let labels = Labels::from_pairs([
            ("metric", format!("m{}", s % 3).as_str()),
            ("host", format!("h{}", s / 3).as_str()),
            ("uid", uid.as_str()),
        ]);
        series.push(db.put(&labels, 0, value(s, 0)).unwrap());
        uids.push(uid);
    }
    let mut groups = Vec::new();
    for g in 0..3u64 {
        let uid = format!("g{g}");
        let gtags = Labels::from_pairs([
            ("job", "node"),
            ("host", format!("h{g}").as_str()),
            ("uid", uid.as_str()),
        ]);
        let members: Vec<Labels> = (0..4)
            .map(|m| {
                Labels::from_pairs([
                    ("metric", format!("m{}", m % 3).as_str()),
                    ("cpu", format!("c{m}").as_str()),
                ])
            })
            .collect();
        let values: Vec<f64> = (0..4).map(|m| value(100 + g * 4 + m, 0)).collect();
        groups.push(db.put_group(&gtags, &members, 0, &values).unwrap());
        uids.push(uid);
    }
    let write = |from: i64, to: i64, step: i64| {
        let mut t = from;
        while t < to {
            for (s, &id) in series.iter().enumerate() {
                db.put_by_id(id, t, value(s as u64, t)).unwrap();
            }
            for (g, (gid, refs)) in groups.iter().enumerate() {
                let values: Vec<f64> = (0..refs.len() as u64)
                    .map(|m| value(100 + g as u64 * 4 + m, t))
                    .collect();
                db.put_group_fast(*gid, refs, t, &values).unwrap();
            }
            t += step;
        }
    };
    // In-order history; older windows move to L2.
    write(MIN, 10 * HOUR, MIN);
    db.flush_all().unwrap();
    // Out-of-order backfill into L2 windows: lands as patches.
    write(HOUR + 30 * 1000, 3 * HOUR, 7 * MIN);
    // Rewritten keys: same (id, chunk start) as an L2 chunk, new values.
    // One rewrite is flushed to a fast-tier table, one stays in memory.
    let rewrite = |id: u64, start: i64, bias: f64| {
        let samples: Vec<Sample> = (0..8)
            .map(|i| Sample::new(start + i * MIN, bias - i as f64))
            .collect();
        let chunk = gorilla::compress_chunk_framed(&samples).unwrap();
        db.debug_put_chunk(id, start, start + 7 * MIN, chunk)
            .unwrap();
    };
    rewrite(series[1], 16 * MIN, -1_000.0);
    db.flush_all().unwrap();
    rewrite(series[4], 16 * MIN, -2_000.0);
    // Recent data on the fast tier, plus unsealed head samples.
    write(10 * HOUR, 13 * HOUR + 3 * MIN, MIN);
    uids
}

#[test]
fn multi_id_queries_equal_concatenated_single_id_queries() {
    let dir = tempfile::tempdir().unwrap();
    let db = TimeUnion::open(dir.path().join("db"), opts()).unwrap();
    let uids = build(&db);
    let stats = db.tree_stats();
    assert!(stats.l2_partitions > 0, "{stats:?}");
    assert!(stats.patches_created > 0, "{stats:?}");
    assert!(stats.l0_partitions + stats.l1_partitions > 0, "{stats:?}");

    let cases: Vec<(Vec<Selector>, i64, i64)> = vec![
        (vec![Selector::exact("metric", "m1")], 0, 12 * HOUR),
        (vec![Selector::exact("host", "h1")], 10 * MIN, 2 * HOUR),
        (vec![Selector::exact("job", "node")], HOUR, 11 * HOUR),
        (
            vec![Selector::regex("metric", "m[02]").unwrap()],
            9 * HOUR,
            12 * HOUR,
        ),
    ];
    for threads in [1, 2, 8] {
        db.set_query_threads(threads);
        for (sel, start, end) in &cases {
            let single = |extra: &str| {
                let mut s = sel.clone();
                s.push(Selector::exact("uid", extra));
                s
            };
            let got = db.query(sel, *start, *end).unwrap();
            assert!(got.len() > 1, "{sel:?} must match several series");
            let want = merged(
                uids.iter()
                    .map(|u| db.query(&single(u), *start, *end).unwrap())
                    .collect(),
            );
            assert_eq!(
                bits(&got),
                bits(&want),
                "query {sel:?} at {threads} threads"
            );
            for kind in AggKind::ALL {
                let step = 5 * MIN;
                let got = db.query_aggregate(sel, kind, *start, *end, step).unwrap();
                let want = merged(
                    uids.iter()
                        .map(|u| {
                            db.query_aggregate(&single(u), kind, *start, *end, step)
                                .unwrap()
                        })
                        .collect(),
                );
                assert_eq!(
                    bits(&got),
                    bits(&want),
                    "{kind:?} {sel:?} at {threads} threads"
                );
            }
        }
    }

    // The rewritten chunks won over their L2 originals.
    let got = db
        .query(&[Selector::exact("host", "h0")], 16 * MIN, 24 * MIN)
        .unwrap();
    let s1 = got
        .iter()
        .find(|s| s.labels.get("uid") == Some("s1"))
        .unwrap();
    assert_eq!(s1.samples.len(), 8);
    assert!(
        s1.samples.iter().all(|x| x.v <= -1_000.0),
        "{:?}",
        s1.samples
    );
    let got = db
        .query(&[Selector::exact("host", "h1")], 16 * MIN, 24 * MIN)
        .unwrap();
    let s4 = got
        .iter()
        .find(|s| s.labels.get("uid") == Some("s4"))
        .unwrap();
    assert!(
        s4.samples.iter().all(|x| x.v <= -2_000.0),
        "{:?}",
        s4.samples
    );
}

#[test]
fn cold_query_pays_one_get_per_object_table() {
    let dir = tempfile::tempdir().unwrap();
    let db = TimeUnion::open(dir.path().join("db"), opts()).unwrap();
    const K: u64 = 6;
    let mut ids = Vec::new();
    for s in 0..K {
        let labels = Labels::from_pairs([("metric", "cpu"), ("uid", format!("s{s}").as_str())]);
        ids.push(db.put(&labels, 0, value(s, 0)).unwrap());
    }
    for step in 1..(8 * HOUR / MIN) {
        let t = step * MIN;
        for (s, &id) in ids.iter().enumerate() {
            db.put_by_id(id, t, value(s as u64, t)).unwrap();
        }
    }
    db.flush_all().unwrap();
    // Out-of-order backfill for two of the series: L2 patches.
    for t in (HOUR + 30_000..3 * HOUR).step_by(5 * MIN as usize) {
        db.put_by_id(ids[1], t, -1.0).unwrap();
        db.put_by_id(ids[2], t, -2.0).unwrap();
    }
    db.flush_all().unwrap();
    assert!(db.tree_stats().patches_created > 0);
    let object = &db.storage().object;
    // Every object is an L2 table or patch; the six series are the only
    // data, so each object holds at least one of them.
    let tables = object.list_prefix("").len() as u64;
    assert!(tables > 1);

    let all = [Selector::exact("metric", "cpu")];
    let range = (0, 9 * HOUR);
    db.query(&all, range.0, range.1).unwrap(); // open every table once
    db.clear_block_cache();
    let before = object.stats();
    let got = db.query(&all, range.0, range.1).unwrap();
    let batched = object.stats().since(&before).get_requests;
    assert_eq!(got.len(), K as usize);
    assert_eq!(batched, tables, "one Get per object table or patch");

    // One series at a time, the same reads cost a Get per (series,
    // table): every base table holds all six series.
    let bases = object
        .list_prefix("")
        .iter()
        .filter(|name| name.contains("/sst-"))
        .count() as u64;
    assert!(bases > 1);
    let mut per_series = 0;
    for s in 0..K {
        db.clear_block_cache();
        let before = object.stats();
        let one = [Selector::exact("uid", format!("s{s}"))];
        db.query(&one, range.0, range.1).unwrap();
        per_series += object.stats().since(&before).get_requests;
    }
    assert!(
        per_series >= K * bases,
        "{per_series} Gets one series at a time vs {batched} batched over {bases} base tables"
    );
}
