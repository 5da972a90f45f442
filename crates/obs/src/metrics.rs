//! Counters and log2-bucketed histograms on atomics.

use crate::registry::registry;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Number of histogram buckets: bucket `i` holds values `v` with
/// `floor(log2(v)) == i - 1` (bucket 0 holds `v == 0`), so the largest
/// bucket covers everything from `2^62` up.
pub const BUCKETS: usize = 64;

/// A monotonic counter. All operations are relaxed atomics — safe and
/// cheap on hot paths, deterministic totals once threads join.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// A fresh, unregistered counter (registered ones come from
    /// [`CounterHandle`] or [`crate::Registry::counter`]).
    pub fn new() -> Self {
        Counter::default()
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// The current total.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Resets to zero (used between benchmark sections).
    pub fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// The bucket index a value falls into: 0 for 0, else
/// `64 - leading_zeros(v)` (i.e. one past the index of the highest set
/// bit), capped at [`BUCKETS`]` - 1`.
#[inline]
pub(crate) fn bucket_of(v: u64) -> usize {
    (64 - v.leading_zeros() as usize).min(BUCKETS - 1)
}

/// The inclusive upper bound of a bucket (`u64::MAX` for the last).
pub(crate) fn bucket_bound(i: usize) -> u64 {
    if i >= BUCKETS - 1 {
        u64::MAX
    } else if i == 0 {
        0
    } else {
        (1u64 << i) - 1
    }
}

/// A log2-bucketed histogram of `u64` samples (durations in nanoseconds,
/// sizes in elements). Lock-free; per-bucket counts plus count/sum/max.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// A fresh, unregistered histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Records one sample.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Records a [`std::time::Duration`] in nanoseconds.
    #[inline]
    pub fn record_duration(&self, d: std::time::Duration) {
        self.record(d.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// A consistent-enough copy of the current state (exact once all
    /// recording threads have joined).
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }

    /// Resets all buckets and tallies.
    pub fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }
}

/// An immutable copy of a [`Histogram`]'s state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket sample counts (see [`BUCKETS`]).
    pub buckets: [u64; BUCKETS],
    /// Total samples.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Largest sample.
    pub max: u64,
}

impl HistogramSnapshot {
    /// Rebuilds a snapshot from its serialised parts: the
    /// `(inclusive upper bound, count)` pairs of
    /// [`HistogramSnapshot::nonzero_buckets`] plus the tallies. This is
    /// the inverse of the JSONL histogram shape, used by offline
    /// consumers (`reproduce slo-check`) to run the same quantile math
    /// over persisted runs. Bounds that are not exact bucket bounds
    /// land in the bucket that contains them.
    pub fn from_nonzero_buckets(pairs: &[(u64, u64)], count: u64, sum: u64, max: u64) -> Self {
        let mut buckets = [0u64; BUCKETS];
        for &(bound, n) in pairs {
            buckets[bucket_of(bound)] += n;
        }
        HistogramSnapshot {
            buckets,
            count,
            sum,
            max,
        }
    }

    /// Mean sample, or 0 with no samples.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// An upper bound on the `q`-quantile (0 ≤ q ≤ 1): the bound of the
    /// bucket the quantile sample lands in.
    pub fn quantile_bound(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_bound(i).min(self.max);
            }
        }
        self.max
    }

    /// An interpolated estimate of the `q`-quantile (0 ≤ q ≤ 1).
    ///
    /// Where [`HistogramSnapshot::quantile_bound`] answers with the whole
    /// bucket's upper bound — off by up to 2× with log2 buckets — this
    /// assumes samples are spread uniformly *inside* the quantile's
    /// bucket and interpolates linearly between the bucket's lower bound
    /// and `min(upper bound, max)`. The estimate is exact for the zero
    /// bucket and never exceeds the observed maximum.
    pub fn quantile_estimate(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if seen + c >= rank {
                if i == 0 {
                    return 0.0; // bucket 0 holds only v == 0
                }
                let lower = bucket_bound(i - 1) + 1;
                let upper = bucket_bound(i).min(self.max).max(lower);
                let frac = (rank - seen) as f64 / c as f64;
                return lower as f64 + frac * (upper - lower) as f64;
            }
            seen += c;
        }
        self.max as f64
    }

    /// The non-empty buckets as `(inclusive upper bound, count)` pairs.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (bucket_bound(i), c))
            .collect()
    }
}

/// A static handle to a named counter: registration on first use, an
/// atomic add thereafter.
///
/// ```
/// static CALLS: cable_obs::CounterHandle = cable_obs::CounterHandle::new("example.calls");
/// CALLS.get().incr();
/// ```
pub struct CounterHandle {
    name: &'static str,
    cell: OnceLock<Arc<Counter>>,
}

impl CounterHandle {
    /// Declares a handle (const, so it can be a `static`).
    pub const fn new(name: &'static str) -> Self {
        CounterHandle {
            name,
            cell: OnceLock::new(),
        }
    }

    /// The registered counter.
    #[inline]
    pub fn get(&self) -> &Counter {
        self.cell.get_or_init(|| registry().counter(self.name))
    }
}

/// A static handle to a named histogram; see [`CounterHandle`].
pub struct HistogramHandle {
    name: &'static str,
    cell: OnceLock<Arc<Histogram>>,
}

impl HistogramHandle {
    /// Declares a handle (const, so it can be a `static`).
    pub const fn new(name: &'static str) -> Self {
        HistogramHandle {
            name,
            cell: OnceLock::new(),
        }
    }

    /// The registered histogram.
    #[inline]
    pub fn get(&self) -> &Histogram {
        self.cell.get_or_init(|| registry().histogram(self.name))
    }

    /// The metric name the histogram registers under.
    pub fn name(&self) -> &'static str {
        self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_log2() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(7), 3);
        assert_eq!(bucket_of(8), 4);
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
        // Bounds are consistent with membership.
        for v in [0u64, 1, 2, 3, 4, 5, 127, 128, 1 << 20] {
            let b = bucket_of(v);
            assert!(v <= bucket_bound(b), "{v} in bucket {b}");
            if b > 0 {
                assert!(v > bucket_bound(b - 1), "{v} beyond bucket {}", b - 1);
            }
        }
    }

    #[test]
    fn histogram_tallies() {
        let h = Histogram::new();
        for v in [0u64, 1, 1, 3, 8, 1000] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 6);
        assert_eq!(s.sum, 1013);
        assert_eq!(s.max, 1000);
        assert_eq!(s.buckets[0], 1); // the zero
        assert_eq!(s.buckets[1], 2); // the ones
        assert_eq!(s.buckets[2], 1); // 3
        assert_eq!(s.buckets[4], 1); // 8
        assert!((s.mean() - 1013.0 / 6.0).abs() < 1e-9);
        assert!(s.quantile_bound(0.5) <= 3);
        assert_eq!(s.quantile_bound(1.0), 1000);
    }

    #[test]
    fn quantile_estimate_interpolates_a_uniform_distribution() {
        let h = Histogram::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        let s = h.snapshot();
        // rank 50 lands in bucket 6 (32..=63) behind 31 earlier samples:
        // 32 + 19/32 * 31 = 50.40625 — close to the true median, where
        // quantile_bound can only say "≤ 63".
        assert!((s.quantile_estimate(0.5) - 50.40625).abs() < 1e-9);
        assert_eq!(s.quantile_bound(0.5), 63);
        // rank 99 lands in bucket 7, clamped to the observed max 100:
        // 64 + 36/37 * 36 = 99.027…
        assert!((s.quantile_estimate(0.99) - (64.0 + 36.0 / 37.0 * 36.0)).abs() < 1e-9);
        // The extremes are exact.
        assert!((s.quantile_estimate(1.0) - 100.0).abs() < 1e-9);
        assert!((s.quantile_estimate(0.01) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn quantile_estimate_edge_cases() {
        let empty = Histogram::new().snapshot();
        assert_eq!(empty.quantile_estimate(0.5), 0.0);

        let zeros = Histogram::new();
        for _ in 0..10 {
            zeros.record(0);
        }
        assert_eq!(zeros.snapshot().quantile_estimate(0.99), 0.0);

        // A constant sample interpolates inside its bucket but never
        // above the observed max.
        let sevens = Histogram::new();
        for _ in 0..10 {
            sevens.record(7);
        }
        let s = sevens.snapshot();
        assert!((s.quantile_estimate(1.0) - 7.0).abs() < 1e-9);
        assert!(s.quantile_estimate(0.5) >= 4.0 && s.quantile_estimate(0.5) <= 7.0);

        // A single sample: every quantile is that sample (the bucket
        // interpolation clamps to the observed max).
        let single = Histogram::new();
        single.record(1000);
        let s = single.snapshot();
        for q in [0.0, 0.5, 0.95, 0.99, 1.0] {
            assert!(
                (s.quantile_estimate(q) - 1000.0).abs() < 1e-9,
                "q={q}: {}",
                s.quantile_estimate(q)
            );
        }

        // Everything in one bucket: interpolation stays inside
        // [lower bound, observed max].
        let packed = Histogram::new();
        for v in [130u64, 200, 255] {
            packed.record(v); // all in bucket 8 (128..=255)
        }
        let s = packed.snapshot();
        for q in [0.01, 0.5, 0.99] {
            let est = s.quantile_estimate(q);
            assert!((128.0..=255.0).contains(&est), "q={q}: {est}");
        }
        assert!((s.quantile_estimate(1.0) - 255.0).abs() < 1e-9);

        // The overflow bucket (v ≥ 2^62) is unbounded above; estimates
        // clamp to the observed max instead of u64::MAX.
        let overflow = Histogram::new();
        overflow.record(u64::MAX);
        overflow.record(u64::MAX - 1);
        let s = overflow.snapshot();
        assert_eq!(s.buckets[BUCKETS - 1], 2);
        for q in [0.5, 0.99, 1.0] {
            let est = s.quantile_estimate(q);
            assert!(est <= u64::MAX as f64, "q={q}: {est}");
            assert!(est >= (1u64 << 62) as f64, "q={q}: {est}");
        }
        assert_eq!(s.quantile_bound(0.99), u64::MAX);
    }

    #[test]
    fn snapshot_round_trips_through_nonzero_buckets() {
        let h = Histogram::new();
        for v in [0u64, 1, 5, 900, 70_000, u64::MAX] {
            h.record(v);
        }
        let s = h.snapshot();
        let rebuilt =
            HistogramSnapshot::from_nonzero_buckets(&s.nonzero_buckets(), s.count, s.sum, s.max);
        assert_eq!(rebuilt, s);
        assert_eq!(rebuilt.quantile_estimate(0.95), s.quantile_estimate(0.95));
    }
}
