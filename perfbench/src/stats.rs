//! Summary statistics: nearest-rank percentiles with the "ten samples
//! beyond" reporting rule, medians, log-log slopes, and the
//! attempted/failed tally behind `ok_ratio`.

/// How many samples must lie beyond a percentile's rank before the
/// percentile is reported.
pub const MIN_BEYOND: usize = 10;

/// The nearest-rank `p`-th percentile (`0 < p <= 100`) of ascending
/// `sorted` samples: the smallest sample with at least `p`% of all
/// samples at or below it. `None` for an empty slice.
pub fn nearest_rank(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[rank(sorted.len(), p) - 1])
}

/// The 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64 / 100.0).ceil() as usize).clamp(1, n)
}

/// Whether percentile `p` of `n` samples has at least [`MIN_BEYOND`]
/// samples strictly above its rank, and so may be reported.
pub fn reportable(n: usize, p: f64) -> bool {
    n > 0 && n - rank(n, p) >= MIN_BEYOND
}

/// The highest of the candidate percentiles that [`reportable`] allows.
pub fn highest_reportable(n: usize, candidates: &[f64]) -> Option<f64> {
    candidates
        .iter()
        .copied()
        .filter(|&p| reportable(n, p))
        .fold(None, |best, p| Some(best.map_or(p, |b: f64| b.max(p))))
}

/// Sorts a copy of `values` ascending (NaN-free input).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    v
}

/// The nearest-rank median of unsorted `values`, or 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    nearest_rank(&sorted(values), 50.0).unwrap_or(0.0)
}

/// `min q1 median q3 max (n=N)` of `values` (nearest rank), for report
/// lines.
pub fn summary(values: &[f64]) -> String {
    let v = sorted(values);
    let at = |p| nearest_rank(&v, p).unwrap_or(0.0);
    format!(
        "{:.4} {:.4} {:.4} {:.4} {:.4} (n={})",
        v.first().copied().unwrap_or(0.0),
        at(25.0),
        at(50.0),
        at(75.0),
        v.last().copied().unwrap_or(0.0),
        v.len()
    )
}

/// The least-squares slope of `ln y` against `ln x` over positive pairs.
pub fn loglog_slope(points: &[(f64, f64)]) -> f64 {
    let logs: Vec<(f64, f64)> = points
        .iter()
        .filter(|(x, y)| *x > 0.0 && *y > 0.0)
        .map(|(x, y)| (x.ln(), y.ln()))
        .collect();
    let n = logs.len() as f64;
    if logs.len() < 2 {
        return 0.0;
    }
    let mx = logs.iter().map(|p| p.0).sum::<f64>() / n;
    let my = logs.iter().map(|p| p.1).sum::<f64>() / n;
    let sxy: f64 = logs.iter().map(|p| (p.0 - mx) * (p.1 - my)).sum();
    let sxx: f64 = logs.iter().map(|p| (p.0 - mx) * (p.0 - mx)).sum();
    if sxx == 0.0 {
        0.0
    } else {
        sxy / sxx
    }
}

/// Operations attempted and failed. A failure is a non-2xx answer, a
/// transport or connect error, or a failed correctness check; each
/// check counts as one attempt.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    /// Operations and checks attempted.
    pub attempted: u64,
    /// Operations and checks that failed.
    pub failed: u64,
    /// One line per failure, for the report.
    pub failures: Vec<String>,
}

impl Tally {
    /// Counts one attempt; records `what` as a failure unless `ok`.
    pub fn record(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 20 {
                self.failures.push(what());
            }
        }
    }

    /// A correctness check: `expected == actual`, else a failure naming
    /// both.
    pub fn check_eq<T: PartialEq + std::fmt::Debug>(&mut self, what: &str, expected: T, actual: T) {
        let ok = expected == actual;
        self.record(ok, || {
            format!("{what}: expected {expected:?}, got {actual:?}")
        });
    }

    /// Folds another tally in.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for f in other.failures {
            if self.failures.len() < 20 {
                self.failures.push(f);
            }
        }
    }

    /// Failed ÷ attempted (0 when nothing was attempted).
    pub fn failed_ratio(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// `1 − failed_ratio`: the end-to-end metric, which is never 0 on a
    /// healthy run.
    pub fn ok_ratio(&self) -> f64 {
        1.0 - self.failed_ratio()
    }
}
