//! The repository benchmark: three workloads over the program's public API,
//! each checked for correct outputs, printing end-to-end metrics (tracing
//! off) or per-layer metrics (a separate traced run).
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <serve_open|search_churn|fleet_static> --seed <n> \
//!     --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`; the lines before it are
//! a human-readable report stamped with the core count, git revision, seed,
//! per-metric sample counts and the spool directory's filesystem.  See
//! `perfbench/README.md` for why each workload exists and which layers it
//! leaves idle.

mod fleet_static;
mod replay;
mod search_churn;
mod serve_open;
mod stats;
mod sys;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// End-to-end metrics every workload reports with tracing off, with units.
/// An operation's time is its latency on `serve_open` and its CPU time on
/// the compute workloads; the README maps them to the workload-specific
/// names.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("op_p50_ms", "ms"),
    ("work_per_s", "1/s"),
];

/// Per-layer metrics every workload reports from its traced run, with
/// units.  A layer a workload leaves idle reads 0 there.
pub const PER_LAYER: [(&str, &str); 47] = [
    ("serve.codec.encode_ns", "ns"),
    ("serve.codec.decode_ns", "ns"),
    ("serve.service_ns.p50", "ns"),
    ("serve.service_ns.p99", "ns"),
    ("serve.wire_ns.p50", "ns"),
    ("serve.cache.hit_rate", "frac"),
    ("serve.cache.hits", "count"),
    ("serve.cache.misses", "count"),
    ("serve.cache.evictions", "count"),
    ("serve.cache.entries", "count"),
    ("serve.gen.lag_us.p99", "us"),
    ("search.self_ms", "ms"),
    ("search.evals", "count"),
    ("search.folds", "count"),
    ("search.cache_hits", "count"),
    ("fleet.driver.self_ms", "ms"),
    ("fleet.driver.attempts", "count"),
    ("fleet.driver.retries", "count"),
    ("fleet.shard.self_ms", "ms"),
    ("driver.transport.publish_ms", "ms"),
    ("driver.transport.fetch_ms", "ms"),
    ("driver.transport.bytes", "bytes"),
    ("fleet.checkpoint.save_ms", "ms"),
    ("fleet.checkpoint.bytes", "bytes"),
    ("fleet.placement.ms", "ms"),
    ("fleet.placement.replans", "count"),
    ("fleet.placement.migrations", "count"),
    ("population.sample_ms", "ms"),
    ("population.churn_ms", "ms"),
    ("netsim.build_ms", "ms"),
    ("netsim.run_ms", "ms"),
    ("netsim.events", "count"),
    ("netsim.ns_per_event", "ns"),
    ("fleet.ingest_ms", "ms"),
    ("fleet.fold.self_ms", "ms"),
    ("fleet.state_buckets", "count"),
    ("trace.wall_ms", "ms"),
    ("trace.untraced_wall_ms", "ms"),
    ("trace.overhead_ms", "ms"),
    ("trace.stage_sum_frac", "frac"),
    ("trace.reps", "count"),
    ("serve.requests", "count"),
    ("serve.rtt_ns.p50", "ns"),
    ("serve.untraced_p50_us", "us"),
    ("serve.untraced_p99_us", "us"),
    ("serve.untraced_slo_frac", "frac"),
    ("serve.traced_p50_us", "us"),
];

/// The three workloads.
const WORKLOADS: [&str; 3] = ["serve_open", "search_churn", "fleet_static"];

/// One measured value.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Samples the value was reduced from.
    pub samples: usize,
}

impl Metric {
    /// A metric reduced from `samples` samples.
    #[must_use]
    pub fn new(name: &'static str, value: f64, unit: &'static str, samples: usize) -> Self {
        Self {
            name,
            value,
            unit,
            samples,
        }
    }
}

/// What a workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (the base of `failed_frac`).
    pub attempted: u64,
    /// Operations that failed, output mismatches included.
    pub failed: u64,
    /// What the `attempted` operations are.
    pub attempted_base: &'static str,
    /// Reasons the run is invalid although no operation failed (a
    /// generator behind schedule, a trace that does not tile its wall).
    pub invalid: Vec<String>,
    /// `END_TO_END` metrics (untraced) or `PER_LAYER` metrics (traced).
    pub metrics: Vec<Metric>,
    /// The workload's own names for its end-to-end results, for the report.
    pub named: Vec<Metric>,
    /// Free-form facts about the run (sizes, digests), for the report.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Counts `ok` as one attempted operation, failed unless `ok`, and
    /// records `what` when it failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < 64 {
                self.notes.push(format!("MISMATCH: {}", what()));
            }
        }
    }
}

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measurement budget.
    pub seconds: Duration,
    /// Traced (per-layer) run.
    pub trace: bool,
    /// Scratch directory inside the working directory.
    pub work_dir: PathBuf,
}

const USAGE: &str = "usage: perfbench --workload <serve_open|search_churn|fleet_static> \
--seed <u64> --seconds <1..=60> --trace <0|1>";

fn parse_args(mut raw: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    while let Some(flag) = raw.next() {
        let value = raw.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<u64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=60).contains(&s) {
                    return Err("--seconds must be within 1..=60".into());
                }
                seconds = Some(Duration::from_secs(s));
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
                });
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    Ok(Args {
        work_dir: PathBuf::from(".perfbench_work").join(&workload),
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Orders `metrics` as `expected` lists them, filling idle layers with 0.
fn complete(
    metrics: &[Metric],
    expected: &[(&'static str, &'static str)],
    fill_idle: bool,
) -> Result<Vec<Metric>, String> {
    let mut by_name: BTreeMap<&str, &Metric> = BTreeMap::new();
    for metric in metrics {
        if by_name.insert(metric.name, metric).is_some() {
            return Err(format!("metric {} reported twice", metric.name));
        }
        match expected.iter().find(|(name, _)| *name == metric.name) {
            Some((_, unit)) if *unit == metric.unit => {}
            Some((_, unit)) => {
                return Err(format!(
                    "metric {} in {} not {unit}",
                    metric.name, metric.unit
                ))
            }
            None => return Err(format!("metric {} is not declared", metric.name)),
        }
    }
    expected
        .iter()
        .map(|&(name, unit)| match by_name.get(name) {
            Some(metric) if metric.value.is_finite() => Ok((*metric).clone()),
            Some(metric) => Err(format!("metric {name} is {}", metric.value)),
            None if fill_idle => Ok(Metric::new(name, 0.0, unit, 0)),
            None => Err(format!("metric {name} missing")),
        })
        .collect()
}

/// FNV-1a 64 digest of state and answer bytes.
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xCBF2_9CE4_8422_2325u64, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

fn json_number(value: f64) -> String {
    // `{:?}` prints the shortest representation that round-trips, so every
    // digit measured survives.
    format!("{value:?}")
}

fn run(args: &Args) -> Result<Outcome, String> {
    match args.workload.as_str() {
        "serve_open" => serve_open::run(args),
        "search_churn" => search_churn::run(args),
        "fleet_static" => fleet_static::run(args),
        _ => unreachable!("workload validated by the parser"),
    }
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Err(error) = std::fs::create_dir_all(&args.work_dir) {
        eprintln!("cannot create {}: {error}", args.work_dir.display());
        return ExitCode::FAILURE;
    }
    println!("# {}", sys::Stamp::take(&args).describe());
    let outcome = match run(&args) {
        Ok(outcome) => outcome,
        Err(message) => {
            eprintln!("perfbench {}: {message}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    let expected: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let metrics = match complete(&outcome.metrics, expected, args.trace) {
        Ok(metrics) => metrics,
        Err(message) => {
            eprintln!("perfbench {}: {message}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    for note in &outcome.notes {
        println!("# {note}");
    }
    for reason in &outcome.invalid {
        println!("# INVALID: {reason}");
    }
    let failed_frac = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    println!(
        "# failed_frac {failed_frac} ({} failed of {} {})",
        outcome.failed, outcome.attempted, outcome.attempted_base
    );
    for metric in outcome.named.iter().chain(&metrics) {
        println!(
            "# metric {:<30} {:>18} {:<6} n={}",
            metric.name,
            json_number(metric.value),
            metric.unit,
            metric.samples
        );
    }
    println!("# elapsed_s {:.3}", started.elapsed().as_secs_f64());
    let correct = outcome.failed == 0 && outcome.invalid.is_empty() && outcome.attempted > 0;
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted.max(1),
        outcome.failed,
        body.join(", ")
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_lists_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json: String = std::fs::read_to_string(path)
            .expect("BENCHMARK.json next to the benchmark directory")
            .chars()
            .filter(|c| !c.is_whitespace())
            .collect();
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(
                json.contains(&format!("{{\"name\":\"{name}\",\"unit\":\"{unit}\"")),
                "{name} ({unit}) is not declared in BENCHMARK.json"
            );
        }
        for workload in WORKLOADS {
            assert!(json.contains(&format!("{{\"name\":\"{workload}\",\"why\"")));
        }
        let declared = json.matches("\"name\":").count();
        assert_eq!(
            declared,
            WORKLOADS.len() + END_TO_END.len() + PER_LAYER.len()
        );
    }

    #[test]
    fn idle_layers_read_zero_and_strays_are_refused() {
        let reported = [Metric::new("netsim.run_ms", 1.5, "ms", 3)];
        let filled = complete(&reported, &PER_LAYER, true).expect("declared metric");
        assert_eq!(filled.len(), PER_LAYER.len());
        assert!(filled
            .iter()
            .all(|m| (m.name == "netsim.run_ms") == (m.value != 0.0)));
        let stray = [Metric::new("nonsense", 1.0, "ms", 1)];
        assert!(complete(&stray, &PER_LAYER, true).is_err());
        assert!(complete(&[], &END_TO_END, false).is_err());
    }
}
