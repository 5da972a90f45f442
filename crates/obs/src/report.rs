//! The human-readable stage-cost report.

use crate::registry::Snapshot;
use std::fmt::Write as _;

impl Snapshot {
    /// Renders the snapshot as an aligned text report: histograms (span
    /// timings and size distributions) first, then counters, both sorted
    /// by name. Nanosecond histograms (names ending in `_ns`) are shown
    /// in human time units.
    pub fn render(&self) -> String {
        let mut out = String::new();
        if self.histograms.values().all(|h| h.count == 0) && self.counters.values().all(|&c| c == 0)
        {
            out.push_str("cable-obs: no activity recorded\n");
            return out;
        }
        let timed: Vec<_> = self
            .histograms
            .iter()
            .filter(|(_, h)| h.count > 0)
            .collect();
        if !timed.is_empty() {
            out.push_str("── spans / distributions ──\n");
            let width = timed.iter().map(|(k, _)| k.len()).max().unwrap_or(0);
            for (name, h) in timed {
                let is_time = name.ends_with("_ns");
                let _ = writeln!(
                    out,
                    "{name:width$}  n={:<8} mean={:>10} p50={:>10} p95={:>10} p99={:>10} max={:>10} total={}",
                    h.count,
                    fmt_value(h.mean() as u64, is_time),
                    fmt_value(h.quantile_estimate(0.5) as u64, is_time),
                    fmt_value(h.quantile_estimate(0.95) as u64, is_time),
                    fmt_value(h.quantile_estimate(0.99) as u64, is_time),
                    fmt_value(h.max, is_time),
                    fmt_value(h.sum, is_time),
                );
            }
        }
        let stages = self.parallel_stages();
        if !stages.is_empty() {
            out.push_str("── parallel stages (busy/wall speedup) ──\n");
            let width = stages.iter().map(|(k, _, _, _)| k.len()).max().unwrap_or(0);
            for (label, busy, wall, speedup) in stages {
                let _ = writeln!(
                    out,
                    "{label:width$}  busy={:>10} wall={:>10} speedup={speedup:.2}×",
                    fmt_value(busy, true),
                    fmt_value(wall, true),
                );
            }
        }
        let counted: Vec<_> = self.counters.iter().filter(|(_, &c)| c > 0).collect();
        if !counted.is_empty() {
            out.push_str("── counters ──\n");
            let width = counted.iter().map(|(k, _)| k.len()).max().unwrap_or(0);
            for (name, &c) in counted {
                let _ = writeln!(out, "{name:width$}  {c}");
            }
        }
        out
    }

    /// The `par.stage.<label>` histogram pairs as
    /// `(label, busy ns, wall ns, busy/wall speedup)`, label-sorted.
    /// Busy sums per-unit run time across workers; wall is the elapsed
    /// time of the whole stage, so the ratio is the stage's effective
    /// parallel speedup (1.0 when sequential).
    pub fn parallel_stages(&self) -> Vec<(String, u64, u64, f64)> {
        self.histograms
            .iter()
            .filter_map(|(name, busy)| {
                let label = name.strip_prefix("par.stage.")?.strip_suffix(".busy_ns")?;
                let wall = self.histograms.get(&format!("par.stage.{label}.wall_ns"))?;
                if busy.count == 0 || wall.sum == 0 {
                    return None;
                }
                let speedup = busy.sum as f64 / wall.sum as f64;
                Some((label.to_owned(), busy.sum, wall.sum, speedup))
            })
            .collect()
    }
}

/// Formats a value, as a duration when it counts nanoseconds.
fn fmt_value(v: u64, is_time: bool) -> String {
    if !is_time {
        return v.to_string();
    }
    match v {
        0..=9_999 => format!("{v}ns"),
        10_000..=9_999_999 => format!("{:.1}µs", v as f64 / 1e3),
        10_000_000..=999_999_999 => format!("{:.1}ms", v as f64 / 1e6),
        _ => format!("{:.2}s", v as f64 / 1e9),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::HistogramSnapshot;
    use crate::metrics::BUCKETS;

    #[test]
    fn empty_snapshot_says_so() {
        let s = Snapshot::default();
        assert!(s.render().contains("no activity"));
    }

    #[test]
    fn report_lists_active_metrics_only() {
        let mut s = Snapshot::default();
        s.counters.insert("a.active".into(), 3);
        s.counters.insert("b.idle".into(), 0);
        let mut h = HistogramSnapshot {
            buckets: [0; BUCKETS],
            count: 2,
            sum: 3_000_000,
            max: 2_900_000,
        };
        h.buckets[21] = 2;
        s.histograms.insert("x.build_ns".into(), h);
        let text = s.render();
        assert!(text.contains("a.active"), "{text}");
        assert!(!text.contains("b.idle"), "{text}");
        assert!(text.contains("x.build_ns"), "{text}");
        assert!(text.contains("ms") || text.contains("µs"), "{text}");
    }

    #[test]
    fn parallel_stages_pair_busy_with_wall() {
        let mut s = Snapshot::default();
        let h = |sum: u64| HistogramSnapshot {
            buckets: [0; BUCKETS],
            count: 1,
            sum,
            max: sum,
        };
        s.histograms
            .insert("par.stage.fa.executed.busy_ns".into(), h(4_000_000));
        s.histograms
            .insert("par.stage.fa.executed.wall_ns".into(), h(1_000_000));
        // An unpaired busy histogram is skipped.
        s.histograms.insert("par.stage.orphan.busy_ns".into(), h(9));
        let stages = s.parallel_stages();
        assert_eq!(stages.len(), 1);
        let (label, busy, wall, speedup) = &stages[0];
        assert_eq!(label, "fa.executed");
        assert_eq!((*busy, *wall), (4_000_000, 1_000_000));
        assert!((speedup - 4.0).abs() < 1e-9);
        let text = s.render();
        assert!(text.contains("parallel stages"), "{text}");
        assert!(text.contains("4.00×"), "{text}");
    }

    #[test]
    fn time_formatting_picks_units() {
        assert_eq!(fmt_value(500, true), "500ns");
        assert_eq!(fmt_value(50_000, true), "50.0µs");
        assert_eq!(fmt_value(50_000_000, true), "50.0ms");
        assert_eq!(fmt_value(2_500_000_000, true), "2.50s");
        assert_eq!(fmt_value(1234, false), "1234");
    }
}
