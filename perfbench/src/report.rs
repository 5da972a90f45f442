//! Metric names, the human-readable report, and the final JSON line.

use crate::stats::Tally;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The end-to-end metrics every untraced run prints, with units. The
/// same list, with bounds, is `BENCHMARK.json`'s `end_to_end`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("ops_per_s", "1/s"),
    ("ok_ratio", "fraction"),
];

/// Further end-to-end figures, printed as `# metric` lines (not in the
/// result line) where the workload has them. The result line carries
/// only metrics every workload has and that are steady enough to bound:
/// a median over a run's ten-odd batch rounds spreads about a quarter
/// more from run to run than their mean. `p99_ms` is printed only with
/// at least ten samples beyond its rank.
pub const ALSO_REPORTED: &[(&str, &str)] = &[
    ("p50_ms", "ms"),
    ("item_p50_ms", "ms"),
    ("throughput_rps", "req/s"),
    ("p99_ms", "ms"),
    ("write_p50_ms", "ms"),
    ("read_p50_ms", "ms"),
    ("failed_ratio", "fraction"),
];

/// The per-layer metrics every traced run prints, with units. A layer a
/// workload never calls reads 0 with 0 samples. The same list is
/// `BENCHMARK.json`'s `per_layer`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("machine.calib_ms", "ms"),
    ("machine.calib_mem_ms", "ms"),
    ("trace.overhead_pct", "%"),
    ("workload.generate_ms", "ms"),
    ("strauss.extract_ms", "ms"),
    ("learn.mine_ms", "ms"),
    ("learn.mine_share", "fraction"),
    ("core.refchoice_ms", "ms"),
    ("core.refchoice_tries", "count"),
    ("fa.sweep_ms", "ms"),
    ("core.expert_ms", "ms"),
    ("core.expert_decisions", "count"),
    ("store.save_ms", "ms"),
    ("store.ingest_us_per_trace", "us"),
    ("store.compact_ms", "ms"),
    ("store.open_ms", "ms"),
    ("store.bytes_per_input_byte", "ratio"),
    ("fca.godin_ms", "ms"),
    ("fca.hasse_ms", "ms"),
    ("fca.insert_us_per_object", "us"),
    ("fca.time_slope", "slope"),
    ("fca.concepts", "count"),
    ("fca.hasse_edges", "count"),
    ("fca.share", "fraction"),
    ("par.cpu_per_wall", "ratio"),
    ("par.threads", "count"),
    ("core.api_ms.create", "ms"),
    ("core.api_ms.ingest", "ms"),
    ("core.api_ms.label", "ms"),
    ("core.api_ms.lattice", "ms"),
    ("core.api_ms.concepts", "ms"),
    ("core.api_ms.focus", "ms"),
    ("core.api_ms.digest", "ms"),
    ("http.overhead_ms", "ms"),
    ("http.connects_per_request", "ratio"),
    ("obs.queue_wait_us.p50", "us"),
    ("obs.queue_wait_us.p99", "us"),
    ("store.fsync_us", "us"),
    ("store.fsyncs_per_write", "ratio"),
    ("store.bytes_written_per_request", "bytes"),
    ("core.reopen_ms", "ms"),
    ("store.replayed_per_reopen", "ratio"),
    ("core.manager_hit_ratio", "fraction"),
];

/// One measured value with the number of samples behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Measured {
    /// The value, in the metric's unit.
    pub value: f64,
    /// Samples (calls, requests, rounds) the value summarises.
    pub samples: usize,
}

/// A run's measured metrics plus free-form report lines.
#[derive(Debug, Default)]
pub struct Report {
    metrics: BTreeMap<String, Measured>,
    /// Lines printed before the result (workload sizes, extra
    /// percentiles, self-time tables).
    pub notes: Vec<String>,
}

impl Report {
    /// Sets metric `name`.
    pub fn set(&mut self, name: &str, value: f64, samples: usize) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.metrics
            .insert(name.to_owned(), Measured { value, samples });
    }

    /// Looks up metric `name`.
    pub fn get(&self, name: &str) -> Option<Measured> {
        self.metrics.get(name).copied()
    }

    /// Adds a report line.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }
}

/// The report lines for `names` (each prefixed `# `) followed by the
/// final JSON result line. A metric the run never set prints 0 with 0
/// samples.
pub fn render(report: &Report, names: &[(&str, &str)], tally: &Tally) -> String {
    let mut out = String::new();
    for line in &report.notes {
        let _ = writeln!(out, "# {line}");
    }
    let mut json = String::new();
    for (i, (name, unit)) in names.iter().enumerate() {
        let m = report.get(name).unwrap_or(Measured {
            value: 0.0,
            samples: 0,
        });
        let _ = writeln!(
            out,
            "# metric {name} = {} {unit} (n={})",
            m.value, m.samples
        );
        if i > 0 {
            json.push_str(", ");
        }
        let _ = write!(
            json,
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            m.value
        );
    }
    for (name, unit) in ALSO_REPORTED {
        if let Some(m) = report.get(name) {
            let _ = writeln!(
                out,
                "# metric {name} = {} {unit} (n={})",
                m.value, m.samples
            );
        }
    }
    for failure in &tally.failures {
        let _ = writeln!(out, "# failure {failure}");
    }
    let _ = writeln!(
        out,
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
        tally.failed == 0,
        tally.attempted.max(1),
        tally.failed
    );
    out
}
