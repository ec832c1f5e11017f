//! `history`: read-only queries over a day of data that does not fit the
//! block cache. Set-up writes 24 simulated hours at a 30 s interval and
//! calls `maintain()`, leaving recent data in memory and on the fast tier
//! and older data on the object tier. One closed-loop client then cycles
//! through the Table 2 patterns plus `1-1-all` and `5-1-all`, each issued
//! as `query_aggregate` (MAX, 5 min) and as raw `query` from every first
//! host, replaying that 180-query set from a seeded starting point. The
//! queried engine receives no writes after its set-up.
//!
//! The block cache splits its 1 MiB into 8 LRU shards of 128 KiB, about
//! nine blocks each, by a hash of (table, offset). Offsets follow how well
//! a seed's values compress, so whether the last hour's blocks crowd one
//! shard is a lottery: with seed 31 the `1-8-1` and `5-8-1` queries miss
//! the cache 3-12 times each where seed 41 hits, and take 1.3-1.9x as
//! long. An untraced run therefore queries four engines, each set up from
//! its own seed drawn from the run's, in bursts of passes that go round
//! them, and takes a query's fastest pass over all four layouts. Four more
//! set-ups, from further drawn seeds, are closed as soon as they are
//! timed. The eight set-ups run at even steps of the query time, the
//! queried and the write-only ones in turn: the machine's slow phases last
//! tens of seconds, and the set-ups' writes, this workload's write
//! population, must not all fall in one.

use std::path::Path;
use std::time::Instant;

use tu_tsbs::queries::QueryPattern;

use crate::layers::{check_profiles, Books, Layers, QueryProbe, WriteProbe};
use crate::measure::{
    closed_loop_writes, end_to_end, fastest, median, ms, Metric, QueryMark, QueryPhase, Tally,
    WriteMark, WritePhase,
};
use crate::oracle::{Oracle, Query};
use crate::workload::{generator, Picks, Store, HOSTS, ROUND_SAMPLES};

const INTERVAL_MS: i64 = 30_000;
const HOURS: i64 = 24;
/// Set-ups per untraced run, half of them for queried engines and half
/// write-only. `setup_s` is their median.
const SETUPS: usize = 8;
/// Consecutive passes on one engine. After a switch the first pass runs
/// with the CPU caches holding another engine; the burst's later passes
/// give each query a warm fastest time.
const BURST: usize = 4;

/// Opens a fresh engine and writes the day. With `layers`, the writes are
/// traced and their per-layer metrics recorded.
fn setup(
    dir: &Path,
    seed: u64,
    tally: &mut Tally,
    layers: Option<&mut Layers>,
) -> Option<(Store, f64, WritePhase)> {
    let gen = generator(seed, INTERVAL_MS, HOURS);
    let steps = gen.steps();
    let t = Instant::now();
    let store = tally.op("open and register", Store::open(dir, gen))?;
    let books = layers.is_some().then(|| Books::take(&store));
    let mark = WriteMark::take(&store);
    let mut probe = WriteProbe::default();
    let timings = closed_loop_writes(&store, books.is_some().then_some(&mut probe), tally)?;
    tally.op("maintain", store.db.maintain())?;
    let setup_s = t.elapsed().as_secs_f64();
    let write = WritePhase::finish(
        &store,
        &mark,
        timings,
        (steps - 1) as u64 * ROUND_SAMPLES,
        steps as u64 * ROUND_SAMPLES,
    );
    if let (Some(layers), Some(books)) = (layers, books) {
        layers.writes(&store, &probe, &books, tally);
        layers.codecs(&store.gen);
    }
    Some((store, setup_s, write))
}

/// The run's query set: every pattern, as an aggregate and as a raw
/// query, from every first host, rotated by a seeded offset. Covering
/// every host keeps the set's cost the same for every seed: a group host
/// costs about ten times an individual-series host to read, so a seeded
/// share of them would move the latency quantiles between seeds. A
/// rotation, unlike a shuffle, also keeps which queries follow each other,
/// and with it what the block cache holds for each query.
fn query_set(store: &Store, seed: u64) -> Vec<Query> {
    let mut set: Vec<Query> = QueryPattern::all()
        .iter()
        .flat_map(|&p| [true, false].map(|agg| (p, agg)))
        .flat_map(|(p, agg)| (0..HOSTS as u64).map(move |host| (p, agg, host)))
        .map(|(p, agg, host)| Query::tsbs(&store.gen, p, host, agg))
        .collect();
    let offset = Picks::new(seed).next() % set.len() as u64;
    set.rotate_left(offset as usize);
    set
}

/// Runs and checks every query of `queries`; with `probe`, profiled.
fn run_set(
    store: &Store,
    oracle: &Oracle,
    queries: &[Query],
    phase: &mut QueryPhase,
    tally: &mut Tally,
    mut probe: Option<&mut QueryProbe>,
) {
    let last_step = store.gen.steps() - 1;
    for q in queries {
        let t = Instant::now();
        let out = q.run(&store.db, probe.as_deref_mut());
        let took = t.elapsed();
        if let Some(out) = tally.op(q.name, out) {
            phase.timings.call(ms(took));
            tally.judge(oracle.check(&store.gen, q, &out, last_step));
        }
    }
}

/// The seeds of the run's set-ups: the run's own seed, then seeds drawn
/// from it.
fn setup_seeds(seed: u64, n: usize) -> Vec<u64> {
    let mut picks = Picks::new(seed);
    (0..n)
        .map(|i| if i == 0 { seed } else { picks.next() })
        .collect()
}

/// An engine under query, with its checked query set and timings.
struct Queried {
    store: Store,
    oracle: Oracle,
    queries: Vec<Query>,
    mark: QueryMark,
    phase: QueryPhase,
}

pub fn run(dir: &Path, seed: u64, seconds: f64, trace: bool, tally: &mut Tally) -> Vec<Metric> {
    let setups = if trace { 1 } else { SETUPS };
    let seeds = setup_seeds(seed, setups);
    let mut layers = Layers::default();
    let mut setup_s = Vec::new();
    let mut writes = Vec::new();
    let mut engines: Vec<Queried> = Vec::new();
    let mut traced = QueryPhase::default();
    let mut probe = QueryProbe::default();
    let mut query_s = 0.0;
    let mut pass = 0;
    // Set-up `n` is due after `n / setups` of the query time. The even
    // ones stay open for queries; the odd ones are closed as soon as they
    // are timed. Bursts of passes go round the open engines until
    // `seconds` of query time are up. Traced runs alternate untraced and
    // traced passes.
    loop {
        let n = setup_s.len();
        if n < setups && pass % BURST == 0 && query_s >= seconds * n as f64 / setups as f64 {
            let queried = n % 2 == 0;
            let at = dir.join(if queried {
                format!("query-{n}")
            } else {
                "write".into()
            });
            let Some((store, secs, write)) =
                setup(&at, seeds[n], tally, trace.then_some(&mut layers))
            else {
                return Vec::new();
            };
            setup_s.push(secs);
            writes.push(write);
            if !queried {
                store.close();
                continue;
            }
            let oracle = Oracle::new(&store.gen);
            let queries = query_set(&store, seed);
            // One warm-up pass fills the cache and table handles before
            // timing.
            run_set(
                &store,
                &oracle,
                &queries,
                &mut QueryPhase::default(),
                tally,
                None,
            );
            engines.push(Queried {
                mark: QueryMark::take(&store),
                store,
                oracle,
                queries,
                phase: QueryPhase::default(),
            });
            continue;
        }
        if n == setups && query_s >= seconds && pass >= 2 * BURST * engines.len() {
            break;
        }
        let open = engines.len();
        let e = &mut engines[pass / BURST % open];
        let t = Instant::now();
        if trace && pass % 2 == 1 {
            let books = Books::take(&e.store);
            let gets = probe.object_gets;
            run_set(
                &e.store,
                &e.oracle,
                &e.queries,
                &mut traced,
                tally,
                Some(&mut probe),
            );
            let delta = books.check(&e.store, tally, "query pass");
            check_profiles(probe.object_gets - gets, &delta, tally, "query pass");
            probe.add_registry(&delta);
        } else {
            run_set(&e.store, &e.oracle, &e.queries, &mut e.phase, tally, None);
        }
        query_s += t.elapsed().as_secs_f64();
        pass += 1;
    }
    let pass_len = engines[0].queries.len();
    let reads: Vec<QueryPhase> = engines
        .into_iter()
        .map(|mut e| {
            e.phase.close(&e.store, &e.mark);
            e.store.close();
            e.phase
        })
        .collect();
    if trace {
        layers.queries(&probe);
        let p50 = |phase: &QueryPhase| median(&fastest(phase.timings.lat_ms.chunks(pass_len)));
        layers.set(
            "obs.trace_overhead_pct",
            (p50(&traced) / p50(&reads[0]) - 1.0) * 100.0,
        );
        return layers.into_metrics();
    }
    end_to_end(&setup_s, &writes, &reads, pass_len, &reads)
}
