//! `search_churn`: an exhaustive search of the paper's 32-point grid over a
//! churned fleet, through the search driver, the fleet driver and a spool
//! on disk.
//!
//! Placement re-plans, the driver, the spool transport, checkpoint encode
//! and validation and the `HIDWASRC` index all do real work here.  Plan
//! serving stays idle.  Every repetition starts from a fresh search and
//! spool root, so no repetition resumes from or reuses an earlier one.

use crate::replay::{FoldCounts, ReplayExecutor, TimingTransport};
use crate::stats::{median, quantile, timed_setup, Series};
use crate::trace::{self_ms, total_ms, Tracer, STAGE_SUM_TOLERANCE};
use crate::{fnv1a64, sys, Args, Metric, Outcome, PER_LAYER};
use hidwa_core::fleet::driver::{
    DriverError, DriverFleetSpec, FleetDriver, InProcessExecutor, PopulationSpec, ShardAssignment,
    ShardExecutor, SpoolTransport, Transport,
};
use hidwa_core::fleet::{ChurnSpec, PolicyKind};
use hidwa_core::population::ChurnModel;
use hidwa_core::search::{
    pareto_frontier, EvaluationOutcome, ObjectiveSpace, SearchCheckpoint, SearchDriver, SearchRun,
    SearchSpec, SearchStrategy,
};
use hidwa_core::sweep::SweepRunner;
use hidwa_units::TimeSpan;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Bodies per evaluated fleet.
pub const BODIES: usize = 48;
/// Simulated seconds per body.
pub const HORIZON_S: f64 = 0.5;
/// Grid points checked against a direct in-process fold.
const CHECKED_POINTS: u64 = 4;

/// The `fleet_search` bench's churn template: rate 0.3, link fade 0.8.
fn churn_template() -> ChurnSpec {
    ChurnSpec::new(
        ChurnModel::with_rate(0.3).with_link_fade(0.8),
        PolicyKind::StaticAtAdmission,
    )
    .with_hysteresis_threshold(0.1)
}

fn search_spec(seed: u64) -> SearchSpec {
    let base = DriverFleetSpec::new(BODIES)
        .with_base_seed(seed)
        .with_horizon(TimeSpan::from_seconds(HORIZON_S))
        .with_population(PopulationSpec::Uniform)
        .with_churn(churn_template());
    SearchSpec::new(base, ObjectiveSpace::paper_default())
}

/// What set-up yields: the search and the expected outcomes of a
/// seed-chosen subset of grid points, folded directly in-process.
struct Prepared {
    driver: SearchDriver,
    expected: Vec<EvaluationOutcome>,
}

fn prepare(seed: u64) -> Prepared {
    let spec = search_spec(seed);
    let grid = spec.space().len();
    let serial = SweepRunner::serial();
    let expected = (0..CHECKED_POINTS)
        .map(|k| {
            spec.evaluation((seed.wrapping_add(k * 9)) % grid)
                .run(&serial)
        })
        .collect();
    Prepared {
        driver: SearchDriver::new(spec, SearchStrategy::ExhaustiveGrid),
        expected,
    }
}

/// Wraps the program's executor and counts shard executions, so a shard
/// reused from an earlier blob would show as a missing execution.
struct CountingExecutor {
    inner: InProcessExecutor,
    executions: AtomicUsize,
}

impl ShardExecutor for CountingExecutor {
    fn execute(
        &self,
        spec: &DriverFleetSpec,
        shard: &ShardAssignment,
        attempt: usize,
        transport: &dyn Transport,
    ) -> Result<(), DriverError> {
        self.executions.fetch_add(1, Ordering::Relaxed);
        self.inner.execute(spec, shard, attempt, transport)
    }
}

/// A fresh, empty directory for one repetition.
fn fresh_root(args: &Args, name: &str) -> Result<PathBuf, String> {
    let root = args.work_dir.join(name);
    if root.exists() {
        std::fs::remove_dir_all(&root)
            .map_err(|e| format!("cannot clear {}: {e}", root.display()))?;
    }
    Ok(root)
}

fn read_index(root: &Path) -> Vec<u8> {
    std::fs::read(SearchDriver::checkpoint_path(root)).unwrap_or_default()
}

/// The first repetition's results, which every later one must reproduce.
struct Reference {
    evaluations: Vec<EvaluationOutcome>,
    frontier: Vec<EvaluationOutcome>,
    index: Vec<u8>,
}

/// Checks one program search: a complete, non-resumed grid whose every
/// shard was executed, agreeing with the first repetition (or becoming it,
/// after agreeing with the direct folds).
fn check_run(
    run: &SearchRun,
    index: Vec<u8>,
    executions: usize,
    prepared: &Prepared,
    reference: &mut Option<Reference>,
    outcome: &mut Outcome,
) {
    let spec = prepared.driver.spec();
    let grid = spec.space().len() as usize;
    outcome.check(
        run.complete()
            && run.requests() == grid
            && run.folds() == grid
            && run.cache_hits() == 0
            && run.resumed() == 0
            && executions == grid * spec.shards(),
        || {
            format!(
                "search was not a fresh full grid: {} requests, {} folds, {} cache hits, \
                 {} resumed, {executions} shard executions",
                run.requests(),
                run.folds(),
                run.cache_hits(),
                run.resumed()
            )
        },
    );
    match reference {
        None => {
            for expected in &prepared.expected {
                let got = run
                    .evaluations()
                    .iter()
                    .find(|e| e.point() == expected.point());
                outcome.check(got == Some(expected), || {
                    format!("point {} differs from a direct fold", expected.point())
                });
            }
            *reference = Some(Reference {
                evaluations: run.evaluations().to_vec(),
                frontier: run.frontier().to_vec(),
                index,
            });
        }
        Some(first) => {
            for (got, want) in run.evaluations().iter().zip(&first.evaluations) {
                outcome.check(got == want, || {
                    format!(
                        "point {} (state_fp {:016x}) differs from repetition 1",
                        got.point(),
                        got.state_fp()
                    )
                });
            }
            outcome.check(
                run.evaluations().len() == first.evaluations.len()
                    && run.frontier() == first.frontier
                    && index == first.index,
                || "frontier or search index differs from repetition 1".into(),
            );
        }
    }
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let (prepared, setup) = timed_setup(|| Ok(prepare(args.seed)))?;
    let mut outcome = Outcome {
        attempted_base: "evaluations and search invariants checked",
        ..Outcome::default()
    };
    outcome.notes.push(format!(
        "search_churn: 32-point paper grid, {BODIES} uniform bodies x {HORIZON_S} s, churn rate 0.3 \
         fade 0.8, {} shard(s) per evaluation, base seed {}",
        prepared.driver.spec().shards(),
        args.seed
    ));
    if args.trace {
        traced(args, &prepared, &mut outcome)?;
    } else {
        untraced(args, &prepared, setup, &mut outcome)?;
    }
    Ok(outcome)
}

fn untraced(
    args: &Args,
    prepared: &Prepared,
    setup: Metric,
    outcome: &mut Outcome,
) -> Result<(), String> {
    let width = sys::nproc();
    let runner = SweepRunner::with_threads(width);
    let executor = CountingExecutor {
        inner: InProcessExecutor::serial(),
        executions: AtomicUsize::new(0),
    };
    let grid = prepared.driver.spec().space().len() as f64;
    let mut reference = None;
    let mut walls_ms = Vec::new();
    let mut cpus_ms = Vec::new();
    let start = Instant::now();
    while walls_ms.is_empty() || start.elapsed() < args.seconds {
        let root = fresh_root(args, "spool")?;
        executor.executions.store(0, Ordering::Relaxed);
        let cpu_start = sys::process_cpu_ms();
        let search_start = Instant::now();
        let run = prepared
            .driver
            .run(&runner, &executor, &root)
            .map_err(|e| format!("search failed: {e}"))?;
        walls_ms.push(search_start.elapsed().as_secs_f64() * 1e3);
        cpus_ms.push(sys::process_cpu_ms() - cpu_start);
        let executions = executor.executions.load(Ordering::Relaxed);
        check_run(
            &run,
            read_index(&root),
            executions,
            prepared,
            &mut reference,
            outcome,
        );
    }
    let _ = std::fs::remove_dir_all(args.work_dir.join("spool"));
    let search_s = median(&walls_ms) / 1e3;
    let search_cpu_ms = median(&cpus_ms);
    outcome.notes.push(format!(
        "search_churn: width {width}, {} searches from fresh roots",
        walls_ms.len()
    ));
    outcome.named = vec![
        Metric::new("search_s", search_s, "s", walls_ms.len()),
        Metric::new(
            "search_p90_s",
            quantile(&walls_ms, 0.9) / 1e3,
            "s",
            walls_ms.len(),
        ),
        Metric::new(
            "search_points_per_s",
            grid / search_s,
            "1/s",
            walls_ms.len(),
        ),
    ];
    outcome.metrics = vec![
        setup,
        Metric::new("peak_rss_mb", sys::peak_rss_mb()?, "MB", 1),
        Metric::new("op_p50_ms", search_cpu_ms, "ms", cpus_ms.len()),
        Metric::new(
            "work_per_s",
            grid / (search_cpu_ms / 1e3),
            "1/s",
            cpus_ms.len(),
        ),
    ];
    Ok(())
}

/// What the traced replica of one search produced.
struct Replica {
    evaluations: Vec<EvaluationOutcome>,
    attempts: usize,
    shards: usize,
    reused: usize,
    transport_bytes: u64,
    merged_bytes: u64,
}

/// The program's exhaustive search, one grid point per wave, rebuilt from
/// its public calls with a span around each layer: the fleet driver runs
/// every evaluation with the replaying executor over a timed spool.
fn replica(
    spec: &SearchSpec,
    root: &Path,
    tracer: &Tracer,
    counts: &FoldCounts,
) -> Result<Replica, String> {
    let _search = tracer.span("search");
    std::fs::create_dir_all(root).map_err(|e| format!("cannot create {}: {e}", root.display()))?;
    let index_path = SearchDriver::checkpoint_path(root);
    let executor = ReplayExecutor { tracer, counts };
    let mut index = SearchCheckpoint::new(spec);
    let mut replica = Replica {
        evaluations: Vec::new(),
        attempts: 0,
        shards: 0,
        reused: 0,
        transport_bytes: 0,
        merged_bytes: 0,
    };
    for point in 0..spec.space().len() {
        let evaluation = spec.evaluation(point);
        let (driver, spool) = tracer.time("fleet.driver", || {
            let driver = FleetDriver::new(evaluation.spec().clone(), spec.shards());
            let spool = driver.spool_in(root);
            (driver, spool)
        });
        let transport = TimingTransport::new(
            spool.map_err(|e| format!("cannot open spool: {e}"))?,
            tracer,
        );
        let run = tracer
            .time("fleet.driver", || driver.run(&executor, &transport))
            .map_err(|e| format!("driver failed at point {point}: {e}"))?;
        replica.attempts += run.total_attempts();
        replica.shards += driver.shard_count();
        replica.reused += run.reused_shards();
        replica.transport_bytes += transport.published_bytes();
        let state = tracer.time("fleet.checkpoint.save", || run.state_bytes());
        replica.merged_bytes += state.len() as u64;
        let outcome = EvaluationOutcome::from_report(point, run.report(), fnv1a64(&state));
        index.record(outcome);
        replica.evaluations.push(outcome);
        let tmp = index_path.with_extension("ckpt.tmp");
        std::fs::write(&tmp, index.save())
            .and_then(|()| std::fs::rename(&tmp, &index_path))
            .map_err(|e| format!("cannot write search index: {e}"))?;
    }
    Ok(replica)
}

/// The blob shard `shard` of grid point `point` left under `root`.
fn shard_blob(spec: &SearchSpec, root: &Path, point: u64, shard: usize) -> Option<Vec<u8>> {
    let driver = FleetDriver::new(spec.evaluation(point).spec().clone(), spec.shards());
    SpoolTransport::create(root.join(driver.fingerprint()))
        .ok()?
        .fetch(shard)
        .ok()?
}

/// Alternates an untraced serial search by the program with the traced
/// replica, checking outcomes, frontier, index and every shard blob.
fn traced(args: &Args, prepared: &Prepared, outcome: &mut Outcome) -> Result<(), String> {
    let spec = prepared.driver.spec();
    let serial = SweepRunner::serial();
    let tracer = Tracer::new();
    let mut series = Series::default();
    let mut reference = None;
    let mut reps = 0usize;
    let start = Instant::now();
    while reps == 0 || start.elapsed() < args.seconds {
        reps += 1;
        let program_root = fresh_root(args, "spool-program")?;
        let executor = CountingExecutor {
            inner: InProcessExecutor::serial(),
            executions: AtomicUsize::new(0),
        };
        let untraced_start = Instant::now();
        let run = prepared
            .driver
            .run(&serial, &executor, &program_root)
            .map_err(|e| format!("search failed: {e}"))?;
        let untraced_ms = untraced_start.elapsed().as_secs_f64() * 1e3;
        let program_index = read_index(&program_root);
        check_run(
            &run,
            program_index.clone(),
            executor.executions.load(Ordering::Relaxed),
            prepared,
            &mut reference,
            outcome,
        );

        let replica_root = fresh_root(args, "spool-replica")?;
        let counts = FoldCounts::default();
        let traced_start = Instant::now();
        let replica = replica(spec, &replica_root, &tracer, &counts)?;
        let traced_ms = traced_start.elapsed().as_secs_f64() * 1e3;
        if reps == 1 {
            tracer
                .dump(&args.work_dir.join("spans.tsv"))
                .map_err(|e| format!("cannot write spans: {e}"))?;
        }
        let stages = tracer.take_stages();

        outcome.check(
            replica.evaluations == run.evaluations()
                && pareto_frontier(&replica.evaluations) == run.frontier()
                && read_index(&replica_root) == program_index
                && replica.reused == 0,
            || format!("traced replica {reps} differs from the program's search"),
        );
        for point in 0..spec.space().len() {
            for shard in 0..spec.shards() {
                let program = shard_blob(spec, &program_root, point, shard);
                let replayed = shard_blob(spec, &replica_root, point, shard);
                outcome.check(program.is_some() && program == replayed, || {
                    format!("point {point} shard {shard}: replayed blob differs from the program's")
                });
            }
        }

        let stage_sum_frac = total_ms(&stages) / traced_ms;
        if (stage_sum_frac - 1.0).abs() > STAGE_SUM_TOLERANCE {
            outcome.invalid.push(format!(
                "rep {reps}: stage self-times sum to {stage_sum_frac:.4} of the traced wall"
            ));
        }
        let events = FoldCounts::get(&counts.events) as f64;
        let run_ms = self_ms(&stages, "netsim.run");
        for (metric, stage) in [
            ("search.self_ms", "search"),
            ("fleet.driver.self_ms", "fleet.driver"),
            ("fleet.shard.self_ms", "fleet.shard"),
            ("driver.transport.publish_ms", "driver.transport.publish"),
            ("driver.transport.fetch_ms", "driver.transport.fetch"),
            ("fleet.checkpoint.save_ms", "fleet.checkpoint.save"),
            ("fleet.placement.ms", "fleet.placement"),
            ("population.sample_ms", "population.sample"),
            ("population.churn_ms", "population.churn"),
            ("netsim.build_ms", "netsim.build"),
            ("fleet.ingest_ms", "fleet.ingest"),
        ] {
            series.push(metric, self_ms(&stages, stage));
        }
        series.push("netsim.run_ms", run_ms);
        series.push("netsim.events", events);
        series.push("netsim.ns_per_event", run_ms * 1e6 / events.max(1.0));
        series.push("search.evals", run.requests() as f64);
        series.push("search.folds", run.folds() as f64);
        series.push("search.cache_hits", run.cache_hits() as f64);
        series.push("fleet.driver.attempts", replica.attempts as f64);
        series.push(
            "fleet.driver.retries",
            replica.attempts.saturating_sub(replica.shards) as f64,
        );
        series.push("driver.transport.bytes", replica.transport_bytes as f64);
        series.push(
            "fleet.checkpoint.bytes",
            (FoldCounts::get(&counts.checkpoint_bytes) + replica.merged_bytes) as f64,
        );
        series.push(
            "fleet.placement.replans",
            FoldCounts::get(&counts.replans) as f64,
        );
        series.push(
            "fleet.placement.migrations",
            FoldCounts::get(&counts.migrations) as f64,
        );
        series.push("trace.wall_ms", traced_ms);
        series.push("trace.untraced_wall_ms", untraced_ms);
        series.push("trace.overhead_ms", traced_ms - untraced_ms);
        series.push("trace.stage_sum_frac", stage_sum_frac);
    }
    for root in ["spool-program", "spool-replica"] {
        let _ = std::fs::remove_dir_all(args.work_dir.join(root));
    }
    outcome.notes.push(format!(
        "search_churn traced: {reps} pairs of serial searches (program, then traced replica); \
         spans of the first replica in {}",
        args.work_dir.join("spans.tsv").display()
    ));
    outcome.metrics = series.medians(&PER_LAYER);
    outcome
        .metrics
        .push(Metric::new("trace.reps", reps as f64, "count", 1));
    Ok(())
}
