//! End-to-end determinism of the search layer (ISSUE 10 satellite):
//! random grids × strategies × `SweepRunner` widths × shard layouts produce
//! a byte-identical frontier, checkpoint and per-evaluation fleet state,
//! and a search killed after `k` evaluations (the deterministic
//! `run_with_budget` stand-in) resumes to the identical frontier without
//! re-folding completed evaluations.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

use hidwa_core::fleet::driver::{DriverFleetSpec, FleetDriver, InProcessExecutor};
use hidwa_core::fleet::placement::{ChurnSpec, PolicyKind};
use hidwa_core::partition::Objective;
use hidwa_core::population::ChurnModel;
use hidwa_core::search::{
    ObjectiveSpace, SearchDriver, SearchRun, SearchSpec, SearchStrategy, CHECKPOINT_FILE,
};
use hidwa_core::sweep::SweepRunner;
use hidwa_netsim::mac::MacPolicy;
use hidwa_phy::RadioTechnology;
use proptest::prelude::*;

static CASE: AtomicUsize = AtomicUsize::new(0);

/// A unique scratch root per invocation, removed by `Scratch::drop`.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Self {
        let case = CASE.fetch_add(1, Ordering::Relaxed);
        Self(std::env::temp_dir().join(format!(
            "hidwa-search-det-{}-{tag}-{case}",
            std::process::id()
        )))
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A small churned base fleet, so the objective and policy axes are live.
fn base_spec(bodies: usize, seed: u64, horizon_ms: u64) -> DriverFleetSpec {
    DriverFleetSpec::new(bodies)
        .with_base_seed(seed)
        .with_horizon(hidwa_units::TimeSpan::from_seconds(
            horizon_ms as f64 / 1000.0,
        ))
        .with_top_k(3)
        .with_churn(
            ChurnSpec::new(
                ChurnModel::with_rate(0.4).with_epochs(3),
                PolicyKind::StaticAtAdmission,
            )
            .with_hysteresis_threshold(0.1),
        )
}

/// Builds a grid from the proptest booleans: each true doubles one axis, so
/// the grid has 1–8 points.
fn space(two_macs: bool, two_radios: bool, two_policies: bool) -> ObjectiveSpace {
    let mut space = ObjectiveSpace::new()
        .with_objective_axis(&[Objective::LeafEnergy, Objective::EnergyDelayProduct]);
    if two_macs {
        space = space.with_mac_axis(&[MacPolicy::Polling, MacPolicy::Tdma]);
    }
    if two_radios {
        space = space.with_radio_axis(&[RadioTechnology::WiR, RadioTechnology::Ble]);
    }
    if two_policies {
        space =
            space.with_churn_policy_axis(&[PolicyKind::StaticAtAdmission, PolicyKind::Hysteresis]);
    }
    space
}

/// Runs the search in a fresh root and returns the run plus the sealed
/// checkpoint bytes it left behind.
fn run_in(
    driver: &SearchDriver,
    runner: &SweepRunner,
    threads: usize,
    root: &Path,
) -> (SearchRun, Vec<u8>) {
    let executor = InProcessExecutor::with_threads(threads);
    let run = driver.run(runner, &executor, root).expect("search runs");
    let bytes = std::fs::read(SearchDriver::checkpoint_path(root)).expect("checkpoint file exists");
    (run, bytes)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The frontier, every evaluation outcome (including its fleet-state
    /// fingerprint) and the final checkpoint bytes are identical across
    /// runner widths, per-evaluation shard counts and worker thread
    /// counts, for both strategies.
    #[test]
    fn search_is_identical_across_execution_layouts(
        bodies in 2usize..5,
        seed in 0u64..1000,
        horizon_ms in 40u64..70,
        width in 2usize..4,
        shards in 2usize..4,
        two_macs in any::<bool>(),
        two_radios in any::<bool>(),
        two_policies in any::<bool>(),
        descent in any::<bool>(),
    ) {
        let strategy = if descent {
            SearchStrategy::CoordinateDescent { max_rounds: 2 }
        } else {
            SearchStrategy::ExhaustiveGrid
        };
        let spec = SearchSpec::new(
            base_spec(bodies, seed, horizon_ms),
            space(two_macs, two_radios, two_policies),
        );
        let serial_root = Scratch::new("serial");
        let (serial, serial_bytes) = run_in(
            &SearchDriver::new(spec.clone(), strategy),
            &SweepRunner::serial(),
            1,
            serial_root.path(),
        );
        prop_assert!(serial.complete());
        prop_assert_eq!(serial.folds(), serial.evaluations().len());
        prop_assert!(!serial.frontier().is_empty());

        // Wider runner, more worker threads per evaluation.
        let wide_root = Scratch::new("wide");
        let (wide, wide_bytes) = run_in(
            &SearchDriver::new(spec.clone(), strategy),
            &SweepRunner::with_threads(width),
            2,
            wide_root.path(),
        );
        prop_assert_eq!(serial.evaluations(), wide.evaluations());
        prop_assert_eq!(serial.frontier(), wide.frontier());
        prop_assert_eq!(&serial_bytes, &wide_bytes);

        // Different per-evaluation shard layout: identity excludes it, so
        // even the checkpoint bytes must match.
        let sharded_root = Scratch::new("sharded");
        let (sharded, sharded_bytes) = run_in(
            &SearchDriver::new(spec.clone().with_shards(shards), strategy),
            &SweepRunner::with_threads(width),
            1,
            sharded_root.path(),
        );
        prop_assert_eq!(serial.evaluations(), sharded.evaluations());
        prop_assert_eq!(serial.frontier(), sharded.frontier());
        prop_assert_eq!(&serial_bytes, &sharded_bytes);
    }

    /// Kill-after-k: a budgeted run stops early with a partial index, and
    /// an unbudgeted run on the same root replays the completed
    /// evaluations as cache hits, folds only the remainder, and lands on
    /// the identical frontier and checkpoint bytes.
    #[test]
    fn killed_search_resumes_to_identical_frontier(
        bodies in 2usize..5,
        seed in 0u64..1000,
        horizon_ms in 40u64..70,
        budget in 0usize..6,
        two_macs in any::<bool>(),
        two_radios in any::<bool>(),
        descent in any::<bool>(),
    ) {
        let strategy = if descent {
            SearchStrategy::CoordinateDescent { max_rounds: 2 }
        } else {
            SearchStrategy::ExhaustiveGrid
        };
        let spec = SearchSpec::new(
            base_spec(bodies, seed, horizon_ms),
            space(two_macs, two_radios, false),
        );
        let baseline_root = Scratch::new("baseline");
        let (baseline, baseline_bytes) = run_in(
            &SearchDriver::new(spec.clone(), strategy),
            &SweepRunner::serial(),
            1,
            baseline_root.path(),
        );

        let killed_root = Scratch::new("killed");
        let driver = SearchDriver::new(spec, strategy);
        let runner = SweepRunner::serial();
        let executor = InProcessExecutor::serial();
        let partial = driver
            .run_with_budget(&runner, &executor, killed_root.path(), Some(budget))
            .expect("budgeted search runs");
        prop_assert_eq!(partial.folds(), budget.min(baseline.folds()));
        prop_assert_eq!(partial.complete(), budget >= baseline.folds());

        let resumed = driver
            .run(&runner, &executor, killed_root.path())
            .expect("resumed search runs");
        prop_assert!(resumed.complete());
        prop_assert_eq!(resumed.evaluations(), baseline.evaluations());
        prop_assert_eq!(resumed.frontier(), baseline.frontier());
        prop_assert_eq!(resumed.resumed(), partial.folds());
        prop_assert_eq!(resumed.folds() + partial.folds(), baseline.folds());
        let resumed_bytes = std::fs::read(SearchDriver::checkpoint_path(killed_root.path()))
            .expect("checkpoint file exists");
        prop_assert_eq!(&resumed_bytes, &baseline_bytes);
    }
}

/// Non-property anchor over the full five-axis paper grid: the in-process
/// reference fold, the one-shard driver and the three-shard driver agree
/// on every outcome, and the *merged fleet-state bytes* of a grid point
/// are literally byte-identical across shard layouts (not merely equal
/// fingerprints).
#[test]
fn full_grid_anchor_is_layout_invariant() {
    let spec = SearchSpec::new(base_spec(3, 7, 30), ObjectiveSpace::paper_default());
    assert_eq!(spec.space().len(), 32);
    let runner = SweepRunner::serial();
    let executor = InProcessExecutor::serial();

    let direct_root = Scratch::new("anchor-direct");
    let sharded_root = Scratch::new("anchor-sharded");
    for index in 0..spec.space().len() {
        let evaluation = spec.evaluation(index);
        let reference = evaluation.run(&runner);
        let one = evaluation
            .run_with_driver(1, &executor, direct_root.path())
            .expect("one-shard evaluation");
        let three = evaluation
            .run_with_driver(3, &executor, sharded_root.path())
            .expect("three-shard evaluation");
        assert_eq!(reference, one, "point {index} differs in-process vs driver");
        assert_eq!(one, three, "point {index} differs across shard layouts");
    }

    // Byte-level witness for one point: the merged checkpoint blobs of the
    // two layouts are identical, not just their digests.
    let evaluation = spec.evaluation(17);
    let merged_bytes = |shards: usize, root: &Path| -> Vec<u8> {
        let driver = FleetDriver::new(evaluation.spec().clone(), shards);
        let transport = driver.spool_in(root).expect("spool opens");
        driver
            .run(&executor, &transport)
            .expect("fleet driver runs")
            .state_bytes()
    };
    assert_eq!(
        merged_bytes(1, direct_root.path()),
        merged_bytes(3, sharded_root.path())
    );
}

/// A coordinator killed mid-publish leaves `search.ckpt.tmp-<pid>` next to
/// the index.  Resuming must ignore it — whether it carries this process's
/// pid (the next publish writes over it) or another's — and finish with the
/// outcomes and index bytes of an uninterrupted run.
#[test]
fn leftover_index_temp_file_does_not_affect_resume() {
    let spec = SearchSpec::new(base_spec(3, 5, 40), space(true, true, false));
    let driver = SearchDriver::new(spec, SearchStrategy::ExhaustiveGrid);
    let runner = SweepRunner::serial();
    let executor = InProcessExecutor::serial();

    let baseline_root = Scratch::new("tombstone-baseline");
    let (baseline, baseline_bytes) = run_in(&driver, &runner, 1, baseline_root.path());

    let killed_root = Scratch::new("tombstone-killed");
    let root = killed_root.path();
    driver
        .run_with_budget(&runner, &executor, root, Some(3))
        .expect("budgeted search runs");
    let index = std::fs::read(SearchDriver::checkpoint_path(root)).expect("index exists");
    let own = hidwa_core::sealed::temp_path(root, CHECKPOINT_FILE);
    let foreign = root.join(format!("{CHECKPOINT_FILE}.tmp-0"));
    std::fs::write(&own, &index[..index.len() / 2]).expect("write own tombstone");
    std::fs::write(&foreign, b"HIDWASRC torn").expect("write foreign tombstone");

    let resumed = driver
        .run(&runner, &executor, root)
        .expect("resumed search runs");
    assert!(resumed.complete());
    assert_eq!(resumed.resumed(), 3);
    assert_eq!(resumed.evaluations(), baseline.evaluations());
    assert_eq!(resumed.frontier(), baseline.frontier());
    let resumed_bytes = std::fs::read(SearchDriver::checkpoint_path(root)).expect("index exists");
    assert_eq!(resumed_bytes, baseline_bytes);
    assert!(!own.exists(), "the publish renames its own temp name away");
    assert_eq!(
        std::fs::read(&foreign).expect("foreign tombstone"),
        b"HIDWASRC torn"
    );
}
