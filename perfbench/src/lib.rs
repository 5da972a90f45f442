//! The Cable benchmark: four workloads that each let one layer do most
//! of the work, measured from outside through the crates' public
//! functions and the counters the server exports. See `README.md` in
//! this directory for the workloads, metrics and how to read a run.

pub mod client;
pub mod lattice;
pub mod machine;
pub mod pipeline;
pub mod report;
pub mod service;
pub mod spans;
pub mod stats;

use report::Report;
use spans::Tracer;
use stats::Tally;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// The named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Table 2 as a user runs it: 17 specs through the whole pipeline.
    PaperPipeline,
    /// Synthetic §5.2-shaped contexts built batch and incrementally.
    LatticeScale,
    /// Short-lived tenants writing through the HTTP API.
    SvcIngest,
    /// A read-mostly mix over 8× more tenants than the session cache.
    SvcEvict,
}

impl Workload {
    /// Every workload the command runs (`BENCHMARK.json` lists all but
    /// `svc-ingest`).
    pub const ALL: [Workload; 4] = [
        Workload::PaperPipeline,
        Workload::LatticeScale,
        Workload::SvcIngest,
        Workload::SvcEvict,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperPipeline => "paper-pipeline",
            Workload::LatticeScale => "lattice-scale",
            Workload::SvcIngest => "svc-ingest",
            Workload::SvcEvict => "svc-evict",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Everything a workload needs to run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// The workload seed: the same seed gives the same inputs.
    pub seed: u64,
    /// How long the timed phase lasts.
    pub seconds: f64,
    /// Whether this is the traced run (per-layer metrics).
    pub trace: bool,
    /// A scratch directory this run owns.
    pub work_dir: PathBuf,
    /// The `cable` binary for the service workloads.
    pub cable_bin: PathBuf,
}

impl RunConfig {
    /// The timed-phase budget.
    pub fn budget(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

/// What a workload hands back: metrics, the pass/fail tally, and the
/// traced run's spans.
#[derive(Debug)]
pub struct Outcome {
    /// Metrics and report lines.
    pub report: Report,
    /// Operations and checks attempted and failed.
    pub tally: Tally,
    /// Spans (empty for an untraced run).
    pub tracer: Tracer,
}

/// Repeats `round` until `budget` is spent: a new round starts only if
/// the previous one would still fit, and at least one always runs.
/// Returns each round's wall time in seconds.
pub fn rounds_within(budget: Duration, mut round: impl FnMut(usize)) -> Vec<f64> {
    let start = Instant::now();
    let mut walls: Vec<f64> = Vec::new();
    loop {
        let t = Instant::now();
        round(walls.len());
        walls.push(t.elapsed().as_secs_f64());
        let last = Duration::from_secs_f64(*walls.last().expect("one round ran"));
        if start.elapsed() + last > budget {
            return walls;
        }
    }
}

/// Splits the walls of alternating rounds into (untraced, traced): in a
/// traced run the odd rounds are traced; otherwise every round is
/// untraced.
pub fn split_alternate(walls: &[f64], traced: bool) -> (Vec<f64>, Vec<f64>) {
    if !traced {
        return (walls.to_vec(), Vec::new());
    }
    let (even, odd): (Vec<_>, Vec<_>) = walls.iter().enumerate().partition(|(i, _)| i % 2 == 0);
    let values = |v: Vec<(usize, &f64)>| v.into_iter().map(|(_, w)| *w).collect();
    (values(even), values(odd))
}

/// Times `reps` repetitions of a set-up step and returns the median in
/// seconds plus the last repetition's product. Each earlier product is
/// dropped before the next repetition starts its clock.
pub fn median_setup<T>(reps: usize, mut setup: impl FnMut(usize) -> T) -> (f64, T) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for i in 0..reps.max(1) {
        drop(last.take());
        let t = Instant::now();
        let out = setup(i);
        times.push(t.elapsed().as_secs_f64());
        last = Some(out);
    }
    (
        stats::median(&times),
        last.expect("at least one repetition"),
    )
}
