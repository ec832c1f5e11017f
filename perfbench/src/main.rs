//! The repository benchmark. See `perfbench/README.md` for the
//! workloads, the metrics and what each layer metric should move.
//!
//! ```text
//! perfbench --workload <ingest|history|live> --seed <n> --seconds <s> --trace <0|1> --work-dir <dir>
//! ```
//!
//! With `--trace 0` the last stdout line carries the end-to-end metrics,
//! with `--trace 1` the per-layer metrics of a separate traced run. Every
//! query result is checked against the generator; the exit code is 0 only
//! when the run completed (failed operations are reported, not hidden).

mod history;
mod ingest;
mod layers;
mod live;
mod measure;
mod oracle;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;

use measure::{Metric, Tally};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    work_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut work_dir) =
        (None, None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => trace = Some(value == "1"),
            "--work-dir" => work_dir = Some(PathBuf::from(&value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let args = Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
        work_dir: work_dir.ok_or("--work-dir is required")?,
    };
    if !(args.seconds > 0.0 && args.seconds <= 120.0) {
        return Err(format!(
            "--seconds {} is out of range (0, 120]",
            args.seconds
        ));
    }
    Ok(args)
}

/// The result line: `{"correct":..,"attempted":..,"failed":..,"metrics":{..}}`.
fn result_json(tally: &Tally, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0 && tally.attempted > 0,
        tally.attempted.max(1),
        tally.failed,
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let dir = args
        .work_dir
        .join(format!("{}-{}", args.workload, std::process::id()));
    let mut tally = Tally::default();
    let run = match args.workload.as_str() {
        "ingest" => ingest::run,
        "history" => history::run,
        "live" => live::run,
        other => {
            eprintln!("perfbench: unknown workload {other} (ingest, history, live)");
            return ExitCode::from(2);
        }
    };
    let metrics = run(&dir, args.seed, args.seconds, args.trace, &mut tally);
    let _ = std::fs::remove_dir_all(&dir);
    if metrics.is_empty() {
        eprintln!(
            "perfbench: {} did not complete ({} of {} operations failed)",
            args.workload, tally.failed, tally.attempted
        );
        return ExitCode::FAILURE;
    }
    for m in &metrics {
        eprintln!("perfbench: {:<42} {:>16.6} {}", m.name, m.value, m.unit);
    }
    eprintln!(
        "perfbench: workload {} seed {} trace {}: {} operations, {} failed",
        args.workload, args.seed, args.trace as u8, tally.attempted, tally.failed
    );
    println!("{}", result_json(&tally, &metrics));
    ExitCode::SUCCESS
}
