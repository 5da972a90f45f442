//! Prometheus text exposition of the metric registry.
//!
//! Encodes a [`Snapshot`] in the Prometheus text format (version 0.0.4,
//! what `GET /metrics` is expected to speak): every counter as a
//! `counter` family, every histogram as a `histogram` family (cumulative
//! `le` buckets ending in `+Inf`, `_sum`, `_count`) **plus** a parallel
//! `summary` family carrying interpolated p50/p95/p99 quantiles from
//! [`HistogramSnapshot::quantile_estimate`]. The summary lives under a
//! distinct `<name>_summary` family because Prometheus forbids one
//! family exposing both bucket and quantile series.
//!
//! Both encoders also merge [`Labelled`] histogram series that a caller
//! keeps outside the registry (the server's per-route latencies) into
//! the summary family they belong to.
//!
//! Metric names are sanitized (`.` and any other non-`[a-zA-Z0-9_:]`
//! byte become `_`) so registry names like `par.tasks` export as
//! `par_tasks`.

use crate::metrics::HistogramSnapshot;
use crate::registry::Snapshot;
use std::fmt::Write as _;

/// Quantiles exposed in each histogram's companion summary family.
pub const SUMMARY_QUANTILES: [f64; 3] = [0.5, 0.95, 0.99];

/// One labelled histogram series kept outside the registry (the
/// server's per-route latencies): its summary lines join the family of
/// the registry histogram `name` under `key="value"`.
#[derive(Debug, Clone)]
pub struct Labelled<'a> {
    /// The registry name of the family it joins (`http.request.us`).
    pub name: &'a str,
    /// The label dimension and its value (`("route", "/healthz")`).
    pub label: (&'a str, &'a str),
    /// The series' samples.
    pub hist: HistogramSnapshot,
}

/// Renders the whole snapshot as Prometheus text exposition, with the
/// `labelled` series merged into their families, so one family carries
/// the global total and its labelled breakdown side by side. A series
/// joins the registry histogram it names; its owner records that
/// histogram too, so the family is always there.
pub fn encode(snapshot: &Snapshot, labelled: &[Labelled]) -> String {
    let mut out = String::new();
    for (name, &value) in &snapshot.counters {
        let name = sanitize(name);
        let _ = writeln!(out, "# TYPE {name} counter");
        let _ = writeln!(out, "{name} {value}");
    }
    for (name, hist) in &snapshot.histograms {
        let series: Vec<&Labelled> = labelled.iter().filter(|s| s.name == name).collect();
        encode_histogram(&mut out, &sanitize(name), hist, &series);
    }
    out
}

fn encode_histogram(
    out: &mut String,
    name: &str,
    hist: &HistogramSnapshot,
    labelled: &[&Labelled],
) {
    let _ = writeln!(out, "# TYPE {name} histogram");
    let mut cumulative = 0u64;
    for (bound, count) in hist.nonzero_buckets() {
        cumulative += count;
        if bound == u64::MAX {
            // The top log2 bucket is unbounded; fold it into +Inf.
            continue;
        }
        let _ = writeln!(out, "{name}_bucket{{le=\"{bound}\"}} {cumulative}");
    }
    let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {}", hist.count);
    let _ = writeln!(out, "{name}_sum {}", hist.sum);
    let _ = writeln!(out, "{name}_count {}", hist.count);

    let _ = writeln!(out, "# TYPE {name}_summary summary");
    for q in SUMMARY_QUANTILES {
        let _ = writeln!(
            out,
            "{name}_summary{{quantile=\"{q}\"}} {}",
            fmt_f64(hist.quantile_estimate(q))
        );
    }
    let _ = writeln!(out, "{name}_summary_sum {}", hist.sum);
    let _ = writeln!(out, "{name}_summary_count {}", hist.count);
    // Labelled series ride the summary family (quantile series can
    // carry extra label dimensions; bucket series would need per-label
    // cumulative merging for no operational gain).
    for series in labelled {
        let (key, value) = series.label;
        let labels = format!("{}=\"{}\"", sanitize(key), escape_label(value));
        for q in SUMMARY_QUANTILES {
            let _ = writeln!(
                out,
                "{name}_summary{{{labels},quantile=\"{q}\"}} {}",
                fmt_f64(series.hist.quantile_estimate(q))
            );
        }
        let _ = writeln!(out, "{name}_summary_sum{{{labels}}} {}", series.hist.sum);
        let _ = writeln!(
            out,
            "{name}_summary_count{{{labels}}} {}",
            series.hist.count
        );
    }
}

/// The `/metrics` body: build identity and uptime gauges, then the
/// global families with the `labelled` series merged in.
pub fn encode_full(snapshot: &Snapshot, labelled: &[Labelled]) -> String {
    let info = crate::build_info();
    let mut out = String::new();
    let _ = writeln!(out, "# TYPE cable_build_info gauge");
    let _ = writeln!(
        out,
        "cable_build_info{{version=\"{}\",git=\"{}\",rustc=\"{}\"}} 1",
        escape_label(info.version),
        escape_label(info.git_hash),
        escape_label(info.rustc)
    );
    let _ = writeln!(out, "# TYPE uptime_seconds gauge");
    let _ = writeln!(out, "uptime_seconds {}", crate::uptime_seconds());
    out.push_str(&encode(snapshot, labelled));
    out
}

/// Escapes a label value per the text format: backslash, double quote,
/// and newline.
pub fn escape_label(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

/// Maps a registry name onto the Prometheus name charset.
pub fn sanitize(name: &str) -> String {
    let mut out: String = name
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
                c
            } else {
                '_'
            }
        })
        .collect();
    if out.starts_with(|c: char| c.is_ascii_digit()) {
        out.insert(0, '_');
    }
    out
}

fn fmt_f64(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.0}")
    } else {
        format!("{v}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Histogram;
    use crate::registry::Registry;

    #[test]
    fn sanitize_maps_dots_and_leading_digits() {
        assert_eq!(sanitize("par.tasks"), "par_tasks");
        assert_eq!(sanitize("obs.recorder.dropped"), "obs_recorder_dropped");
        assert_eq!(sanitize("9lives"), "_9lives");
        assert_eq!(sanitize("ok_name:x"), "ok_name:x");
    }

    #[test]
    fn counters_and_histograms_expose_all_series() {
        let r = Registry::default();
        r.counter("core.ops").add(42);
        let h = r.histogram("span.build.ns");
        for v in [1u64, 2, 3, 100] {
            h.record(v);
        }
        let text = encode(&r.snapshot(), &[]);

        assert!(text.contains("# TYPE core_ops counter\ncore_ops 42\n"));
        assert!(text.contains("# TYPE span_build_ns histogram"));
        // Buckets are cumulative: 1 → le=1, {2,3} → le=3 at 3, 100 at le=127.
        assert!(text.contains("span_build_ns_bucket{le=\"1\"} 1"));
        assert!(text.contains("span_build_ns_bucket{le=\"3\"} 3"));
        assert!(text.contains("span_build_ns_bucket{le=\"127\"} 4"));
        assert!(text.contains("span_build_ns_bucket{le=\"+Inf\"} 4"));
        assert!(text.contains("span_build_ns_sum 106"));
        assert!(text.contains("span_build_ns_count 4"));
        // The companion summary carries interpolated quantiles.
        assert!(text.contains("# TYPE span_build_ns_summary summary"));
        assert!(text.contains("span_build_ns_summary{quantile=\"0.5\"}"));
        assert!(text.contains("span_build_ns_summary{quantile=\"0.95\"}"));
        assert!(text.contains("span_build_ns_summary{quantile=\"0.99\"}"));
    }

    #[test]
    fn unbounded_top_bucket_folds_into_inf() {
        let r = Registry::default();
        r.histogram("big").record(u64::MAX);
        let text = encode(&r.snapshot(), &[]);
        assert!(!text.contains("le=\"18446744073709551615\""), "{text}");
        assert!(text.contains("big_bucket{le=\"+Inf\"} 1"), "{text}");
    }

    #[test]
    fn empty_snapshot_encodes_to_nothing() {
        assert_eq!(encode(&Snapshot::default(), &[]), "");
    }

    #[test]
    fn labelled_series_join_their_family() {
        let r = Registry::default();
        r.histogram("core.lat_ns").record(100);
        r.histogram("core.lat_ns").record(300);
        let own = Histogram::new();
        own.record(100);
        let labelled = [Labelled {
            name: "core.lat_ns",
            label: ("session", "s-1"),
            hist: own.snapshot(),
        }];
        let text = encode_full(&r.snapshot(), &labelled);

        // One TYPE line per family, global series first, then the
        // labelled series on the summary family.
        assert_eq!(
            text.matches("# TYPE core_lat_ns_summary summary").count(),
            1
        );
        assert!(text.contains("core_lat_ns_summary_count 2\n"), "{text}");
        assert!(
            text.contains("core_lat_ns_summary{session=\"s-1\",quantile=\"0.95\"}"),
            "{text}"
        );
        assert!(
            text.contains("core_lat_ns_summary_count{session=\"s-1\"} 1"),
            "{text}"
        );
    }

    #[test]
    fn encode_full_leads_with_build_info_and_uptime() {
        let text = encode_full(&Snapshot::default(), &[]);
        assert!(text.contains("# TYPE cable_build_info gauge"), "{text}");
        assert!(
            text.contains(&format!("version=\"{}\"", env!("CARGO_PKG_VERSION"))),
            "{text}"
        );
        assert!(text.contains("git="), "{text}");
        assert!(text.contains("# TYPE uptime_seconds gauge"), "{text}");
        assert!(text.contains("\nuptime_seconds "), "{text}");
    }

    #[test]
    fn label_values_are_escaped() {
        assert_eq!(escape_label("plain"), "plain");
        assert_eq!(escape_label("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }
}
