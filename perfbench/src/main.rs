//! `perfbench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Runs one workload and prints a report (lines starting `# `) whose
//! last line is the JSON result: `correct`, `attempted`, `failed`, and
//! the end-to-end metrics (`--trace 0`) or per-layer metrics
//! (`--trace 1`). Exit status 0 means the run completed; 2 is a usage
//! error and 1 a run that could not start.

use perfbench::report::{self, END_TO_END, PER_LAYER};
use perfbench::{lattice, machine, pipeline, service, stats, RunConfig, Workload};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: perfbench --workload paper-pipeline|lattice-scale|svc-ingest|svc-evict --seed N --seconds S --trace 0|1";

/// Where runs keep their stores and span files, relative to the
/// directory the benchmark runs from.
const WORK_ROOT: &str = ".bench_work";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload {value:?}"))?)
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| format!("bad --seed {value:?}"))?,
                )
            }
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s > 0.0)
                        .ok_or(format!("bad --seconds {value:?}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(35.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let calib_start = machine::calib_ms();
    let mem_start = machine::calib_mem_ms();
    let work_dir =
        PathBuf::from(WORK_ROOT).join(format!("{}-{}", args.workload.name(), std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work_dir) {
        eprintln!("perfbench: creating {}: {e}", work_dir.display());
        return ExitCode::from(1);
    }
    let cable_bin = std::env::current_exe()
        .ok()
        .and_then(|exe| Some(exe.parent()?.join("cable")))
        .unwrap_or_default();
    let cfg = RunConfig {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        work_dir: work_dir.clone(),
        cable_bin,
    };
    let outcome = match args.workload {
        Workload::PaperPipeline => Ok(pipeline::run(&cfg)),
        Workload::LatticeScale => Ok(lattice::run(&cfg)),
        w @ (Workload::SvcIngest | Workload::SvcEvict) => service::run(&cfg, w),
    };
    let calib_mid = machine::calib_ms();
    let mem_mid = machine::calib_mem_ms();
    let mut outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            let _ = std::fs::remove_dir_all(&work_dir);
            eprintln!("perfbench: {}: {e}", args.workload.name());
            return ExitCode::from(1);
        }
    };
    if args.trace {
        let spans = PathBuf::from(WORK_ROOT).join("spans").join(format!(
            "{}-seed{}.jsonl",
            args.workload.name(),
            args.seed
        ));
        match outcome.tracer.write_jsonl(&spans) {
            Ok(()) => outcome.report.note(format!(
                "{} spans written to {}",
                outcome.tracer.spans().len(),
                spans.display()
            )),
            Err(e) => eprintln!("perfbench: writing {}: {e}", spans.display()),
        }
    }
    let _ = std::fs::remove_dir_all(&work_dir);
    let calib_end = machine::calib_ms();
    let mem_end = machine::calib_mem_ms();
    let calib = [calib_start, calib_mid, calib_end];
    let mem = [mem_start, mem_mid, mem_end];
    outcome
        .report
        .set("machine.calib_ms", stats::median(&calib), calib.len());
    outcome
        .report
        .set("machine.calib_mem_ms", stats::median(&mem), mem.len());
    let attempted = outcome.tally.attempted as usize;
    outcome
        .report
        .set("ok_ratio", outcome.tally.ok_ratio(), attempted);
    outcome
        .report
        .set("failed_ratio", outcome.tally.failed_ratio(), attempted);
    let context = format!(
        "context {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"calib_ms\": [{calib_start:.3}, {calib_mid:.3}, {calib_end:.3}], \"calib_mem_ms\": [{mem_start:.3}, {mem_mid:.3}, {mem_end:.3}], \"nproc\": {}, \"pool_threads\": {}, \"fs_type\": \"{}\", \"failed_ratio\": {}}}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        machine::nproc(),
        cable_par::threads(),
        machine::fs_type(std::path::Path::new(".")),
        outcome.tally.failed_ratio(),
    );
    outcome.report.notes.insert(0, context);
    let names = if args.trace { PER_LAYER } else { END_TO_END };
    print!("{}", report::render(&outcome.report, names, &outcome.tally));
    ExitCode::SUCCESS
}
