//! Order statistics over measured samples.

/// The `q`-quantile (`0.0..=1.0`) of `values` by linear interpolation
/// between closest ranks; `0.0` for an empty slice.
#[must_use]
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let low = rank.floor() as usize;
    let high = rank.ceil() as usize;
    sorted[low] + (sorted[high] - sorted[low]) * (rank - low as f64)
}

/// The median of `values`.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Per-repetition values of named metrics, reduced to their medians.
#[derive(Debug, Default)]
pub struct Series {
    values: std::collections::BTreeMap<&'static str, Vec<f64>>,
}

impl Series {
    /// Records one repetition's value of `name`.
    pub fn push(&mut self, name: &'static str, value: f64) {
        self.values.entry(name).or_default().push(value);
    }

    /// One metric per name: the median over repetitions, with the unit
    /// `units` declares for it.
    ///
    /// # Panics
    /// If a name is not declared in `units`.
    #[must_use]
    pub fn medians(&self, units: &[(&'static str, &'static str)]) -> Vec<crate::Metric> {
        self.values
            .iter()
            .map(|(&name, values)| {
                let unit = units
                    .iter()
                    .find(|(declared, _)| *declared == name)
                    .map(|&(_, unit)| unit)
                    .unwrap_or_else(|| panic!("metric {name} is not declared"));
                crate::Metric::new(name, median(values), unit, values.len())
            })
            .collect()
    }
}

/// Set-ups timed per run; the median is reported, so a stall of the host
/// during one of them does not move `setup_s`.
const SETUP_REPS: usize = 21;

/// Runs `setup` [`SETUP_REPS`] times and returns the last result with the
/// median set-up time in seconds: the CPU time the whole process spent in
/// one set-up, so that neighbours taking the CPU away do not move it.
pub fn timed_setup<T>(
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(T, crate::Metric), String> {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        // Drop the previous result first so its teardown is not timed.
        drop(last.take());
        let start = crate::sys::process_cpu_ms();
        let value = setup()?;
        times.push((crate::sys::process_cpu_ms() - start) / 1e3);
        last = Some(value);
    }
    let metric = crate::Metric::new("setup_s", median(&times), "s", times.len());
    Ok((last.expect("at least one set-up"), metric))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let values = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&values), 2.5);
        assert_eq!(quantile(&values, 0.0), 1.0);
        assert_eq!(quantile(&values, 1.0), 4.0);
        assert_eq!(median(&[]), 0.0);
    }
}
