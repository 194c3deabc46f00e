//! `fleet_static`: a direct fold of a large heterogeneous fleet with no
//! churn, at the host's full width.
//!
//! The time goes to `netsim` and the `fleet` aggregator; placement, the
//! driver, the spool and `search` stay idle.  That makes it the control an
//! optimisation of those layers must leave unchanged, and the main
//! workload for an engine change.

use crate::replay::{fold_traced, FoldCounts};
use crate::stats::{median, quantile, timed_setup, Series};
use crate::trace::{self_ms, total_ms, Tracer, STAGE_SUM_TOLERANCE};
use crate::{fnv1a64, sys, Args, Metric, Outcome, PER_LAYER};
use hidwa_core::fleet::FleetConfig;
use hidwa_core::population::PopulationModel;
use hidwa_core::sweep::SweepRunner;
use hidwa_units::TimeSpan;
use std::time::Instant;

/// Bodies in the fleet: one fold at width 2 takes a few seconds.
pub const BODIES: usize = 40_000;
/// Simulated seconds per body.
pub const HORIZON_S: f64 = 60.0;
/// Bodies folded by the warm-up in set-up.
const WARMUP_BODIES: usize = 512;

/// The set-up before timing: the fleet configuration and a warm-up fold of
/// its first [`WARMUP_BODIES`] bodies at full width, so worker threads,
/// the link table and the allocator have run once.
fn configure(seed: u64) -> FleetConfig {
    let config = FleetConfig::new(BODIES)
        .with_population(PopulationModel::mixed_default())
        .with_horizon(TimeSpan::from_seconds(HORIZON_S))
        .with_base_seed(seed);
    let warmup = config.run_until(&SweepRunner::with_threads(sys::nproc()), WARMUP_BODIES);
    std::hint::black_box(warmup);
    config
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let (config, setup) = timed_setup(|| Ok(configure(args.seed)))?;
    let mut outcome = Outcome {
        attempted_base: "state-byte checks (each fold against the first; traced replay against \
                         the program)",
        ..Outcome::default()
    };
    outcome.notes.push(format!(
        "fleet_static: {BODIES} mixed_default bodies x {HORIZON_S} s horizon, no churn, base seed {}",
        args.seed
    ));
    if args.trace {
        traced(args, &config, &mut outcome)?;
    } else {
        untraced(args, &config, setup, &mut outcome)?;
    }
    Ok(outcome)
}

fn untraced(
    args: &Args,
    config: &FleetConfig,
    setup: Metric,
    outcome: &mut Outcome,
) -> Result<(), String> {
    let width = sys::nproc();
    let runner = SweepRunner::with_threads(width);
    let start = Instant::now();
    let mut walls_ms = Vec::new();
    let mut cpus_ms = Vec::new();
    let mut reference: Option<Vec<u8>> = None;
    while walls_ms.is_empty() || start.elapsed() < args.seconds {
        let cpu_start = sys::process_cpu_ms();
        let fold_start = Instant::now();
        let checkpoint = config.run_until(&runner, BODIES);
        walls_ms.push(fold_start.elapsed().as_secs_f64() * 1e3);
        cpus_ms.push(sys::process_cpu_ms() - cpu_start);
        let state = checkpoint.save().to_vec();
        match &reference {
            None => {
                outcome.check(checkpoint.bodies_ingested() == BODIES, || {
                    "fold ingested a partial fleet".into()
                });
                reference = Some(state);
            }
            Some(first) => outcome.check(*first == state, || {
                format!("fold {} state differs from fold 1", walls_ms.len())
            }),
        }
    }
    let reference = reference.expect("at least one fold");
    let bodies_per_s = BODIES as f64 / (median(&walls_ms) / 1e3);
    let fold_cpu_ms = median(&cpus_ms);
    outcome.notes.push(format!(
        "fleet_static: width {width}, {} folds, state {} bytes, digest {:016x}",
        walls_ms.len(),
        reference.len(),
        fnv1a64(&reference)
    ));
    outcome.named = vec![
        Metric::new("fleet_bodies_per_s", bodies_per_s, "1/s", walls_ms.len()),
        Metric::new("fold_p50_ms", median(&walls_ms), "ms", walls_ms.len()),
        Metric::new(
            "fold_p90_ms",
            quantile(&walls_ms, 0.9),
            "ms",
            walls_ms.len(),
        ),
    ];
    outcome.metrics = vec![
        setup,
        Metric::new("peak_rss_mb", sys::peak_rss_mb()?, "MB", 1),
        Metric::new("op_p50_ms", fold_cpu_ms, "ms", cpus_ms.len()),
        Metric::new(
            "work_per_s",
            BODIES as f64 / (fold_cpu_ms / 1e3),
            "1/s",
            cpus_ms.len(),
        ),
    ];
    Ok(())
}

/// Alternates an untraced serial fold by the program with the traced
/// serial replay, checking that both produce the same state bytes.
fn traced(args: &Args, config: &FleetConfig, outcome: &mut Outcome) -> Result<(), String> {
    let tracer = Tracer::new();
    let serial = SweepRunner::serial();
    let mut series = Series::default();
    let start = Instant::now();
    let mut reps = 0usize;
    let mut reference: Option<Vec<u8>> = None;
    while reps == 0 || start.elapsed() < args.seconds {
        reps += 1;
        let untraced_start = Instant::now();
        let program = config.run_until(&serial, BODIES);
        let untraced_ms = untraced_start.elapsed().as_secs_f64() * 1e3;
        let program = program.save().to_vec();

        let counts = FoldCounts::default();
        let traced_start = Instant::now();
        let replayed = {
            let _fold = tracer.span("fleet.fold");
            fold_traced(config, 0..BODIES, &tracer, &counts)
        };
        let traced_ms = traced_start.elapsed().as_secs_f64() * 1e3;
        if reps == 1 {
            tracer
                .dump(&args.work_dir.join("spans.tsv"))
                .map_err(|e| format!("cannot write spans: {e}"))?;
        }
        let stages = tracer.take_stages();

        outcome.check(program == replayed, || {
            format!("traced replay {reps} state differs from the program's fold")
        });
        let first = reference.get_or_insert_with(|| program.clone());
        outcome.check(*first == program, || {
            format!("fold {reps} state differs from fold 1")
        });
        let stage_sum_frac = total_ms(&stages) / traced_ms;
        if (stage_sum_frac - 1.0).abs() > STAGE_SUM_TOLERANCE {
            outcome.invalid.push(format!(
                "rep {reps}: stage self-times sum to {stage_sum_frac:.4} of the traced wall \
                 (tolerance {STAGE_SUM_TOLERANCE})"
            ));
        }
        let events = FoldCounts::get(&counts.events) as f64;
        let run_ms = self_ms(&stages, "netsim.run");
        series.push(
            "population.sample_ms",
            self_ms(&stages, "population.sample"),
        );
        series.push("netsim.build_ms", self_ms(&stages, "netsim.build"));
        series.push("netsim.run_ms", run_ms);
        series.push("netsim.events", events);
        series.push("netsim.ns_per_event", run_ms * 1e6 / events.max(1.0));
        series.push("fleet.ingest_ms", self_ms(&stages, "fleet.ingest"));
        series.push("fleet.fold.self_ms", self_ms(&stages, "fleet.fold"));
        series.push(
            "fleet.checkpoint.save_ms",
            self_ms(&stages, "fleet.checkpoint.save"),
        );
        series.push(
            "fleet.checkpoint.bytes",
            FoldCounts::get(&counts.checkpoint_bytes) as f64,
        );
        series.push(
            "fleet.state_buckets",
            FoldCounts::get(&counts.state_buckets) as f64,
        );
        series.push("trace.wall_ms", traced_ms);
        series.push("trace.untraced_wall_ms", untraced_ms);
        series.push("trace.overhead_ms", traced_ms - untraced_ms);
        series.push("trace.stage_sum_frac", stage_sum_frac);
    }
    outcome.notes.push(format!(
        "fleet_static traced: {reps} pairs of serial folds (program, then traced replay); \
         spans of the first replay in {}",
        args.work_dir.join("spans.tsv").display()
    ));
    outcome.metrics = series.medians(&PER_LAYER);
    outcome
        .metrics
        .push(Metric::new("trace.reps", reps as f64, "count", 1));
    Ok(())
}
