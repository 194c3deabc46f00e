//! The traced replay of a fleet fold: the program's fold body by body
//! through public calls, each call inside a span, and a timing wrapper
//! around the program's spool transport.
//!
//! [`fold_traced`] mirrors `FleetConfig`'s per-body fold (scenario draw,
//! churn draw, placement, build, run, reduce, ingest) and must produce
//! byte-identical checkpoint state; the workloads check that against the
//! untraced program on every repetition.

use crate::trace::Tracer;
use hidwa_core::fleet::checkpoint::FleetCheckpoint;
use hidwa_core::fleet::driver::{
    DriverError, DriverFleetSpec, ShardAssignment, ShardExecutor, SpoolTransport, Transport,
    TransportError,
};
use hidwa_core::fleet::{placement, BodySummary, FleetAggregator, FleetConfig};
use hidwa_core::population::LinkCache;
use hidwa_netsim::sketch::LatencySketch;
use hidwa_units::{Energy, TimeSpan};
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Work counts of a traced fold, summed over its bodies.
#[derive(Debug, Default)]
pub struct FoldCounts {
    /// Discrete events the simulations processed.
    pub events: AtomicU64,
    /// Placement re-plans after admission.
    pub replans: AtomicU64,
    /// Placement cut changes.
    pub migrations: AtomicU64,
    /// Bytes of checkpoint blobs saved.
    pub checkpoint_bytes: AtomicU64,
    /// Aggregator state buckets of the last fold captured.
    pub state_buckets: AtomicU64,
}

impl FoldCounts {
    fn add(counter: &AtomicU64, value: u64) {
        counter.fetch_add(value, Ordering::Relaxed);
    }

    /// Reads a counter.
    #[must_use]
    pub fn get(counter: &AtomicU64) -> u64 {
        counter.load(Ordering::Relaxed)
    }
}

/// Simulates one body with a span around every layer call and reduces it
/// to the summary the program's fold ingests.
fn replay_body(
    config: &FleetConfig,
    body_index: usize,
    links: &LinkCache,
    tracer: &Tracer,
    counts: &FoldCounts,
) -> BodySummary {
    let scenario = tracer.time("population.sample", || config.scenario_for_body(body_index));
    let (active_span, migrations, replans, placement_energy) = match config.churn() {
        None => (config.horizon(), 0, 0, Energy::ZERO),
        Some(spec) => {
            let sample = tracer.time("population.churn", || {
                spec.churn()
                    .sample(config.base_seed(), body_index as u64, config.horizon())
            });
            let outcome = tracer.time("fleet.placement", || {
                placement::simulate_placement(spec, &scenario, &sample)
            });
            (
                sample.active(),
                outcome.migrations,
                outcome.replans,
                outcome.energy,
            )
        }
    };
    let mut sim = tracer.time("netsim.build", || scenario.build_simulation(links));
    let report = tracer.time("netsim.run", || sim.run(active_span));
    let mut latency = LatencySketch::new();
    let mut worst_p95 = TimeSpan::ZERO;
    for (stats, sketch) in report.node_stats().iter().zip(report.latency_sketches()) {
        latency.merge(sketch);
        worst_p95 = worst_p95.max(stats.p95_latency);
    }
    FoldCounts::add(&counts.events, report.events_processed());
    FoldCounts::add(&counts.replans, replans);
    FoldCounts::add(&counts.migrations, migrations);
    BodySummary {
        body_index,
        seed: scenario.seed(),
        archetype: Arc::clone(scenario.archetype_label()),
        nodes: scenario.leaves().len(),
        generated_frames: report.node_stats().iter().map(|s| s.generated_frames).sum(),
        delivered_frames: report.node_stats().iter().map(|s| s.delivered_frames).sum(),
        delivered_bytes: report.node_stats().iter().map(|s| s.delivered_bytes).sum(),
        events_processed: report.events_processed(),
        delivery_ratio: report.delivery_ratio(),
        total_energy: report.total_energy(),
        worst_p95_latency: worst_p95,
        latency,
        active_span,
        migrations,
        replans,
        placement_energy,
    }
}

/// Folds `range` of `config` serially, body by body, and returns the saved
/// checkpoint blob of the partial state (what a shard publishes, or the
/// whole fleet's state when `range` covers it).
pub fn fold_traced(
    config: &FleetConfig,
    range: Range<usize>,
    tracer: &Tracer,
    counts: &FoldCounts,
) -> Vec<u8> {
    let end = range.end;
    let links = LinkCache::for_population(config.population());
    let mut aggregator = FleetAggregator::new(config.horizon(), config.top_k());
    for body_index in range {
        let summary = replay_body(config, body_index, &links, tracer, counts);
        tracer.time("fleet.ingest", || aggregator.ingest(summary));
    }
    counts
        .state_buckets
        .store(aggregator.state_buckets() as u64, Ordering::Relaxed);
    let blob = tracer.time("fleet.checkpoint.save", || {
        FleetCheckpoint::capture(config, &aggregator, end)
            .save()
            .to_vec()
    });
    FoldCounts::add(&counts.checkpoint_bytes, blob.len() as u64);
    blob
}

/// A [`ShardExecutor`] that folds a shard through [`fold_traced`] and
/// publishes on the transport the driver hands it.
pub struct ReplayExecutor<'a> {
    /// Span sink.
    pub tracer: &'a Tracer,
    /// Work counts, summed over every shard executed.
    pub counts: &'a FoldCounts,
}

impl ShardExecutor for ReplayExecutor<'_> {
    fn execute(
        &self,
        spec: &DriverFleetSpec,
        shard: &ShardAssignment,
        _attempt: usize,
        transport: &dyn Transport,
    ) -> Result<(), DriverError> {
        let _span = self.tracer.span("fleet.shard");
        let config = spec.to_config();
        let blob = fold_traced(&config, shard.range(), self.tracer, self.counts);
        transport.publish(shard.index, &blob)?;
        Ok(())
    }
}

/// The program's [`SpoolTransport`] with a span around every call.
pub struct TimingTransport<'a> {
    inner: SpoolTransport,
    tracer: &'a Tracer,
    published: AtomicU64,
}

impl<'a> TimingTransport<'a> {
    /// Wraps `inner`.
    #[must_use]
    pub fn new(inner: SpoolTransport, tracer: &'a Tracer) -> Self {
        Self {
            inner,
            tracer,
            published: AtomicU64::new(0),
        }
    }

    /// Bytes published through this transport.
    #[must_use]
    pub fn published_bytes(&self) -> u64 {
        self.published.load(Ordering::Relaxed)
    }
}

impl Transport for TimingTransport<'_> {
    fn publish(&self, shard: usize, blob: &[u8]) -> Result<(), TransportError> {
        self.published
            .fetch_add(blob.len() as u64, Ordering::Relaxed);
        self.tracer.time("driver.transport.publish", || {
            self.inner.publish(shard, blob)
        })
    }

    fn fetch(&self, shard: usize) -> Result<Option<Vec<u8>>, TransportError> {
        self.tracer
            .time("driver.transport.fetch", || self.inner.fetch(shard))
    }

    fn discard(&self, shard: usize) -> Result<(), TransportError> {
        self.tracer
            .time("driver.transport.discard", || self.inner.discard(shard))
    }

    fn worker_flags(&self) -> Vec<String> {
        self.inner.worker_flags()
    }
}
