//! In-memory span recording for the traced runs.
//!
//! A span is one call into a layer: its name, start, end and the span that
//! was open when it started (its parent).  Spans are kept in memory and
//! reduced when a repetition ends.  A stage's self time is its span's
//! duration minus the part of that interval its child spans cover, so the
//! self times of every stage tile the traced wall exactly when the spans
//! nest, and exceed it when spans overlap (work on concurrent threads).
//!
//! The traced runs execute serially, so one shared stack of open spans
//! orders them correctly even when the fleet driver runs a shard on a
//! coordinator thread of its own: the calling thread waits for it.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// Largest accepted gap between the stage self-times' sum and the traced
/// wall, as a share of the wall.
pub const STAGE_SUM_TOLERANCE: f64 = 0.02;

#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

#[derive(Debug, Default)]
struct State {
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Records spans against one time origin.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    state: Mutex<State>,
}

/// An open span; dropping it records the end.
#[must_use = "a span ends when its guard is dropped"]
pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    id: usize,
}

/// Self time of one stage over a repetition.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Stage {
    /// Nanoseconds not covered by child spans.
    pub self_ns: u64,
}

impl Tracer {
    /// A tracer with no spans.
    #[must_use]
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            state: Mutex::new(State::default()),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    /// Opens a span named `name` under the innermost open span.
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        let mut state = self.state.lock().expect("tracer poisoned");
        let parent = state.open.last().copied();
        let id = state.spans.len();
        let start_ns = self.now_ns();
        state.spans.push(Span {
            name,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        state.open.push(id);
        SpanGuard { tracer: self, id }
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let _span = self.span(name);
        f()
    }

    /// Reduces the recorded spans to per-stage self times and clears them.
    ///
    /// # Panics
    /// If a span is still open: the caller reduced mid-repetition.
    pub fn take_stages(&self) -> BTreeMap<&'static str, Stage> {
        let spans = {
            let mut state = self.state.lock().expect("tracer poisoned");
            assert!(state.open.is_empty(), "a span is still open");
            std::mem::take(&mut state.spans)
        };
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
        for span in &spans {
            if let Some(parent) = span.parent {
                children[parent].push((span.start_ns, span.end_ns));
            }
        }
        let mut stages: BTreeMap<&'static str, Stage> = BTreeMap::new();
        for (span, kids) in spans.iter().zip(&mut children) {
            let covered = union_length(kids, span.start_ns, span.end_ns);
            let stage = stages.entry(span.name).or_default();
            stage.self_ns += span.end_ns - span.start_ns - covered;
        }
        stages
    }

    /// Writes the spans recorded so far as tab-separated
    /// `id parent name start_ns end_ns` lines (parent `-` for roots).
    ///
    /// # Errors
    /// The file's I/O error.
    pub fn dump(&self, path: &Path) -> std::io::Result<()> {
        let state = self.state.lock().expect("tracer poisoned");
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\tname\tstart_ns\tend_ns")?;
        for (id, span) in state.spans.iter().enumerate() {
            let parent = span
                .parent
                .map_or_else(|| "-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{id}\t{parent}\t{}\t{}\t{}",
                span.name, span.start_ns, span.end_ns
            )?;
        }
        out.flush()
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let end_ns = self.tracer.now_ns();
        let Ok(mut state) = self.tracer.state.lock() else {
            return;
        };
        state.spans[self.id].end_ns = end_ns;
        // Guards drop innermost first; a span closed out of order would
        // overlap its siblings, which the stage-sum check reports.
        if let Some(position) = state.open.iter().rposition(|&open| open == self.id) {
            state.open.remove(position);
        }
    }
}

/// Length of the union of `intervals`, clipped to `start..end`.
fn union_length(intervals: &mut [(u64, u64)], start: u64, end: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = start;
    for &(from, to) in intervals.iter() {
        let from = from.max(reach);
        let to = to.min(end);
        if to > from {
            covered += to - from;
            reach = to;
        }
    }
    covered
}

/// Milliseconds of self time `stages` record for `name` (0 when absent).
#[must_use]
pub fn self_ms(stages: &BTreeMap<&'static str, Stage>, name: &str) -> f64 {
    stages
        .get(name)
        .map_or(0.0, |stage| stage.self_ns as f64 / 1e6)
}

/// Milliseconds of self time over every stage.
#[must_use]
pub fn total_ms(stages: &BTreeMap<&'static str, Stage>) -> f64 {
    stages
        .values()
        .map(|stage| stage.self_ns as f64 / 1e6)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_tile_the_root_span() {
        let tracer = Tracer::new();
        {
            let _root = tracer.span("root");
            tracer.time("child", || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            tracer.time("child", || {
                tracer.time("grandchild", || {
                    std::thread::sleep(std::time::Duration::from_millis(1));
                });
            });
        }
        let stages = tracer.take_stages();
        assert!(stages["child"].self_ns >= 2_000_000);
        assert!(stages["grandchild"].self_ns >= 1_000_000);
        let total: u64 = stages.values().map(|s| s.self_ns).sum();
        assert!(total >= 3_000_000);
        assert!(tracer.take_stages().is_empty());
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        let mut intervals = vec![(10, 30), (20, 40), (50, 60)];
        assert_eq!(union_length(&mut intervals, 0, 100), 40);
        assert_eq!(union_length(&mut intervals, 25, 55), 20);
    }
}
