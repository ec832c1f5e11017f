//! The output oracle: TSBS queries whose targets are known by
//! construction, and result checks computed from `DevOpsGenerator::value`
//! alone, independent of the engine.

use std::collections::{BTreeMap, HashMap};

use tu_common::{Result, Timestamp};
use tu_compress::agg::AggKind;
use tu_core::engine::TimeUnion;
use tu_core::query::QueryResult;
use tu_index::Selector;
use tu_tsbs::devops::{DevOpsGenerator, METRICS_PER_HOST};
use tu_tsbs::queries::{QueryPattern, STEP_MS};

use crate::layers::QueryProbe;
use crate::workload::HOSTS;

/// One query: what to ask the engine and what it targets.
pub struct Query {
    pub name: &'static str,
    /// `query_aggregate` with MAX over 5-minute windows, or raw `query`.
    pub aggregate: bool,
    pub selectors: Vec<Selector>,
    pub start: Timestamp,
    pub end: Timestamp,
    hosts: Vec<usize>,
    metrics: Vec<usize>,
}

impl Query {
    /// A TSBS pattern against `gen`'s whole span. `pick` chooses hosts and
    /// metrics the way TSBS does: consecutive hosts from `pick`, CPU
    /// metrics from `pick`.
    pub fn tsbs(gen: &DevOpsGenerator, pattern: QueryPattern, pick: u64, aggregate: bool) -> Query {
        let spec = pattern.spec(gen, pick);
        let (n_metrics, n_hosts) = shape(pattern);
        Query {
            name: pattern.name(),
            aggregate,
            selectors: spec.selectors,
            start: spec.start,
            end: spec.end,
            hosts: (0..n_hosts).map(|i| (pick as usize + i) % HOSTS).collect(),
            metrics: (0..n_metrics).map(|i| (pick as usize + i) % 10).collect(),
        }
    }

    /// One timeseries over `[start, end)`.
    pub fn series(
        gen: &DevOpsGenerator,
        host: usize,
        metric: usize,
        start: Timestamp,
        end: Timestamp,
    ) -> Query {
        Query {
            name: "series",
            aggregate: false,
            selectors: vec![
                Selector::exact("hostname", format!("host_{host}")),
                Selector::exact("metric", gen.metric_names()[metric].clone()),
            ],
            start,
            end,
            hosts: vec![host],
            metrics: vec![metric],
        }
    }

    /// Moves the query window to end just after `last_t`, keeping a
    /// pattern's length: one hour, or two scrape intervals for
    /// `lastpoint` (the TSBS spec's own window).
    pub fn ending_at(mut self, last_t: Timestamp) -> Query {
        let len = self.end - self.start;
        self.end = last_t + 1;
        self.start = self.end - len;
        self
    }

    /// Runs the query. With `probe`, it runs profiled and the profile is
    /// added to `probe`.
    pub fn run(&self, db: &TimeUnion, probe: Option<&mut QueryProbe>) -> Result<QueryResult> {
        let (sel, start, end) = (&self.selectors, self.start, self.end);
        let Some(probe) = probe else {
            return if self.aggregate {
                db.query_aggregate(sel, AggKind::Max, start, end, STEP_MS)
            } else {
                db.query(sel, start, end)
            };
        };
        let (out, profile) = if self.aggregate {
            db.query_aggregate_profiled(sel, AggKind::Max, start, end, STEP_MS)?
        } else {
            db.query_profiled(sel, start, end)?
        };
        probe.add(&profile, self.aggregate);
        Ok(out)
    }
}

/// `(metrics, hosts)` of a pattern, from its TSBS name `M-H-D`.
fn shape(pattern: QueryPattern) -> (usize, usize) {
    let mut parts = pattern.name().split('-');
    let mut num = || parts.next().and_then(|p| p.parse().ok()).unwrap_or(1);
    let metrics = num();
    (metrics, num())
}

/// Checks a result against the generator. Only scrape steps up to
/// `last_step` count as written (in `live`, the last acknowledged round).
pub struct Oracle {
    metric_index: HashMap<String, usize>,
}

impl Oracle {
    pub fn new(gen: &DevOpsGenerator) -> Oracle {
        let metric_index = gen
            .metric_names()
            .iter()
            .enumerate()
            .map(|(i, m)| (m.clone(), i))
            .collect();
        Oracle { metric_index }
    }

    /// `Err` describes the first mismatch.
    pub fn check(
        &self,
        gen: &DevOpsGenerator,
        q: &Query,
        out: &QueryResult,
        last_step: i64,
    ) -> std::result::Result<(), String> {
        let mut want: Vec<(usize, usize)> = q
            .hosts
            .iter()
            .flat_map(|&h| q.metrics.iter().map(move |&m| (h, m)))
            .collect();
        want.sort_unstable();
        want.dedup();
        let mut got = Vec::with_capacity(out.len());
        for s in out {
            let host = s
                .labels
                .get("hostname")
                .and_then(|h| h.strip_prefix("host_"))
                .and_then(|h| h.parse::<usize>().ok());
            let metric = s
                .labels
                .get("metric")
                .and_then(|m| self.metric_index.get(m));
            match (host, metric) {
                (Some(h), Some(&m)) if h < HOSTS && m < METRICS_PER_HOST => got.push((h, m, s)),
                _ => return Err(format!("{}: unknown series {:?}", q.name, s.labels)),
            }
        }
        got.sort_by_key(|(h, m, _)| (*h, *m));
        let got_ids: Vec<(usize, usize)> = got.iter().map(|(h, m, _)| (*h, *m)).collect();
        if got_ids != want {
            return Err(format!(
                "{}: series {:?}, expected {:?}",
                q.name, got_ids, want
            ));
        }
        for (host, metric, s) in got {
            let raw = expected_samples(gen, host, metric, q.start, q.end, last_step);
            let expect = if q.aggregate {
                max_per_window(&raw, q.start)
            } else {
                raw
            };
            let actual: Vec<(Timestamp, u64)> =
                s.samples.iter().map(|x| (x.t, x.v.to_bits())).collect();
            let expect: Vec<(Timestamp, u64)> =
                expect.iter().map(|&(t, v)| (t, v.to_bits())).collect();
            if actual != expect {
                let at = actual
                    .iter()
                    .zip(&expect)
                    .position(|(a, b)| a != b)
                    .unwrap_or(actual.len().min(expect.len()));
                return Err(format!(
                    "{} host_{host} metric {metric}: {} samples, expected {}, first difference at {at}",
                    q.name,
                    actual.len(),
                    expect.len()
                ));
            }
        }
        Ok(())
    }
}

/// The generator's samples of one series in `[start, end)` up to step
/// `last_step`.
fn expected_samples(
    gen: &DevOpsGenerator,
    host: usize,
    metric: usize,
    start: Timestamp,
    end: Timestamp,
    last_step: i64,
) -> Vec<(Timestamp, f64)> {
    let o = gen.options();
    let first = ((start - o.start_ms).max(0) + o.interval_ms - 1) / o.interval_ms;
    (first..=last_step)
        .map(|s| (s, gen.ts_of(s)))
        .take_while(|&(_, t)| t < end)
        .filter(|&(_, t)| t >= start)
        .map(|(s, t)| (t, gen.value(host, metric, s)))
        .collect()
}

/// MAX per 5-minute window aligned at `start`; empty windows are absent.
fn max_per_window(samples: &[(Timestamp, f64)], start: Timestamp) -> Vec<(Timestamp, f64)> {
    let mut windows: BTreeMap<Timestamp, f64> = BTreeMap::new();
    for &(t, v) in samples {
        let w = start + (t - start) / STEP_MS * STEP_MS;
        windows.entry(w).and_modify(|m| *m = m.max(v)).or_insert(v);
    }
    windows.into_iter().collect()
}
