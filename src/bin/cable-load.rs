//! `cable-load` — the service load driver, and the service, chaos and
//! crash drills.
//!
//! ```text
//! cable-load --addr HOST:PORT [--labelers N] [--requests N] [--seed N]
//!            [--json-out PATH] [--chaos]
//! cable-load drill service|chaos|crash
//! ```
//!
//! The first form runs `--labelers` concurrent labelers against a
//! `cable serve --api` instance, each opening its own session and then
//! issuing `--requests` seeded ops, and prints a throughput/latency
//! summary; `--json-out` writes the `load_summary` record and the
//! `pipeline_snapshot` that `reproduce slo-check` gates on. `--chaos`
//! retries *declared* degraded 503s instead of counting them as errors.
//! Exit codes: **0** clean, **2** usage, **3** on any 5xx, transport
//! error or request that gave up its retry budget (or an unwritable
//! `--json-out`).
//!
//! `drill` runs a CI drill from the repository root (DESIGN.md §10, §14,
//! §17), prints `<drill> drill: PASS` or exits **1** naming the failed
//! gate, and writes its artifacts (`LOAD_record.json`,
//! `TRACE_export.json`, `TRACE_lanes.json`, `TRACE_attribution.json`;
//! `CHAOS_record.jsonl`, `CHAOS_load.json`,
//! `CHAOS_degraded_timeline.jsonl`) to the working directory. Only `cable serve` and the ingest the crash drill kills run
//! as child processes — the `cable` built next to this binary — so
//! `CABLE_FAULTS`, `CABLE_PAR` and `CABLE_OBS` reach them alone. The load,
//! the gates and the sequential replay run here, the replay making the
//! library calls `cable session open|ingest|resume` and
//! `cable label --store --script` make, reopening the store at every step
//! as those commands do.

use cable_bench::{compare, slocheck};
use cable_core::{parse_script, session_state_record, CableSession, StoredSession};
use cable_fa::{templates, Fa};
use cable_load::{run, LabelerLog, LoadOptions, LoadReport, Step};
use cable_obs::json::Value;
use cable_obs::JsonlSink;
use cable_trace::{Trace, TraceSet, Vocab};
use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{exit, Child, Command, Stdio};
use std::time::Duration;

/// The drills' fleet: 64 labelers × 16 requests from one seed.
const LABELERS: usize = 64;
const REQUESTS: usize = 16;
const SEED: u64 = 20260808;
/// Sustained chaos: every journal append has a 2% chance of an injected
/// I/O error, every fsync 1%, reproducible from the seed.
const CHAOS_FAULTS: &str = "20260808:io@store.journal.append=0.02,io@store.fsync=0.01";
/// The denser schedule the `CABLE_PAR=1` vs `8` timeline runs under:
/// one labeler issuing `TIMELINE_REQUESTS` ops, so the two runs compare
/// at least `TIMELINE_MIN_HITS` fired `(site, hit)` pairs. A write op
/// is one journal write (and one fsync) however many records it
/// journals, so few ops hit the plane: 1024 requests fire 39 faults.
const TIMELINE_FAULTS: &str = "777:io@store.journal.append=0.05,io@store.fsync=0.03";
const TIMELINE_REQUESTS: usize = 1024;
const TIMELINE_MIN_HITS: usize = 16;

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: cable-load --addr HOST:PORT [--labelers N] [--requests N] [--seed N] \
         [--json-out PATH] [--chaos]\n\
       \x20      cable-load drill service|chaos|crash"
    );
    exit(2);
}

fn parse<T: std::str::FromStr>(flag: &str, value: Option<String>) -> T {
    value
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| usage(&format!("{flag} needs a valid value")))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().is_some_and(|a| a == "drill") {
        let drill = args
            .get(1)
            .filter(|_| args.len() == 2)
            .map_or("", String::as_str);
        let run_drill: fn(&Path) -> Result<(), String> = match drill {
            "service" => service,
            "chaos" => chaos,
            "crash" => crash,
            _ => usage("drill takes one of service, chaos, crash"),
        };
        let work = std::env::temp_dir().join(format!("cable-drill-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&work);
        let outcome = std::fs::create_dir_all(&work)
            .map_err(|e| format!("creating {}: {e}", work.display()))
            .and_then(|()| run_drill(&work));
        let _ = std::fs::remove_dir_all(&work);
        if let Err(e) = outcome {
            eprintln!("{drill} drill: FAIL — {e}");
            exit(1);
        }
        println!("{drill} drill: PASS");
        return;
    }

    let mut args = args.into_iter();
    let mut json_out = None;
    let mut opts = LoadOptions::new("");
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => opts.addr = parse("--addr", args.next()),
            "--labelers" => {
                opts.labelers = parse::<usize>("--labelers", args.next());
                if opts.labelers == 0 {
                    usage("--labelers must be positive");
                }
            }
            "--requests" => opts.requests = parse("--requests", args.next()),
            "--seed" => opts.seed = parse("--seed", args.next()),
            "--json-out" => json_out = args.next(),
            "--chaos" => opts.chaos = true,
            other => usage(&format!("unknown argument {other:?}")),
        }
    }
    if opts.addr.is_empty() {
        usage("--addr is required");
    }
    if let Err(e) = fleet(opts, json_out.as_deref()) {
        eprintln!("load: FAIL — {e}");
        exit(3);
    }
}

/// Writes the `load_summary` record and the process's
/// `pipeline_snapshot` (which holds `load.request_ns`).
fn write_load_record(path: &str, report: &LoadReport, seed: u64) -> Result<(), String> {
    let snapshot = Value::object([
        ("record", Value::from("pipeline_snapshot")),
        ("seed", Value::from(seed)),
        ("snapshot", cable_obs::registry().snapshot().to_json()),
    ]);
    let sink = JsonlSink::create(path).map_err(|e| format!("cannot write {path}: {e}"))?;
    sink.write(&report.to_json())
        .and_then(|()| sink.write(&snapshot))
        .and_then(|()| sink.flush())
        .map_err(|e| format!("writing {path}: {e}"))
}

/// Runs a fleet, prints its summary and writes its record (before the
/// gate, so a failed run still leaves one), then applies the load gate:
/// no 5xx (declared 503s under `--chaos` are absorbed, not counted), no
/// transport error, no abandoned request.
fn fleet(opts: LoadOptions, record: Option<&str>) -> Result<LoadReport, String> {
    let report = run(&opts);
    print!("{}", report.render());
    if let Some(path) = record {
        write_load_record(path, &report, opts.seed)?;
    }
    if report.errors_5xx > 0 || report.io_errors > 0 || report.gave_up > 0 {
        return Err(format!(
            "{} server errors, {} transport errors, {} gave up",
            report.errors_5xx, report.io_errors, report.gave_up
        ));
    }
    Ok(report)
}

/// The `cable` binary built next to this one.
fn cable() -> Result<Command, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating cable-load: {e}"))?;
    let cable = exe.with_file_name(format!("cable{}", std::env::consts::EXE_SUFFIX));
    if !cable.is_file() {
        return Err(format!("{} is missing; build it first", cable.display()));
    }
    Ok(Command::new(cable))
}

/// A `cable serve --api` child on an ephemeral port, killed on drop.
struct Server {
    child: Child,
    addr: String,
}

impl Server {
    /// Starts `cable serve` with 16 resident sessions under `root`, plus
    /// `args` and `env`, and waits for the address it announces.
    fn start(root: &Path, args: &[&str], env: &[(&str, &str)]) -> Result<Server, String> {
        let mut child = cable()?
            .args("serve --obs-listen 0 --api --max-open-sessions 16".split(' '))
            .arg("--store-root")
            .arg(root)
            .args(args)
            .envs(env.iter().copied())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("starting cable serve: {e}"))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut server = Server {
            child,
            addr: String::new(),
        };
        for line in BufReader::new(stdout).lines() {
            let line = line.map_err(|e| format!("reading serve's announcement: {e}"))?;
            if let Some(rest) = line.strip_prefix("serving http://") {
                server.addr = rest.split('/').next().unwrap_or_default().to_owned();
                println!("service bound {}", server.addr);
                return Ok(server);
            }
        }
        Err("serve never announced its address".into())
    }

    /// `labelers` × `requests` ops from `seed` against this server.
    fn options(&self, labelers: usize, requests: usize, seed: u64, chaos: bool) -> LoadOptions {
        LoadOptions {
            addr: self.addr.clone(),
            labelers,
            requests,
            seed,
            chaos,
        }
    }

    /// `GET path`, requiring a 2xx answer; returns the body.
    fn get(&self, path: &str) -> Result<String, String> {
        match cable_load::request(&self.addr, "GET", path, None) {
            Ok(r) if (200..300).contains(&r.status) => Ok(r.body),
            Ok(r) => Err(format!("GET {path} answered {}: {}", r.status, r.body)),
            Err(e) => Err(format!("GET {path}: {e}")),
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn write(path: impl AsRef<Path>, text: &str) -> Result<(), String> {
    let path = path.as_ref();
    std::fs::write(path, text).map_err(|e| format!("writing {}: {e}", path.display()))
}

fn read(path: impl AsRef<Path>) -> Result<String, String> {
    let path = path.as_ref();
    std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))
}

/// A `--events-out` file's wide events, each with its line.
fn read_events(path: impl AsRef<Path>) -> Result<Vec<(String, Value)>, String> {
    let text = read(&path)?;
    let events = cable_obs::parse_jsonl(&text).map_err(|e| format!("events: {e}"))?;
    Ok(text.lines().map(str::to_owned).zip(events).collect())
}

fn kind(event: &Value) -> &str {
    event
        .get("kind")
        .and_then(Value::as_str)
        .unwrap_or_default()
}

fn service(work: &Path) -> Result<(), String> {
    println!("== start the labeling service (port 0, 16 resident sessions, tracing on)");
    let server = Server::start(
        &work.join("tenants"),
        &["--trace-seed", &SEED.to_string(), "--trace-slow-us", "0"],
        &[("CABLE_OBS", "1")],
    )?;
    println!("== gate 1a: {LABELERS} concurrent labelers, zero 5xx allowed");
    let opts = server.options(LABELERS, REQUESTS, SEED, false);
    let report = fleet(opts, Some("LOAD_record.json"))?;
    println!("== pull the span-tree export and the recorder timeline before shutdown");
    let export = server.get("/tracez/export")?;
    write("TRACE_export.json", &export)?;
    let lanes = server.get("/tracez?limit=100000")?;
    write("TRACE_lanes.json", &lanes)?;
    drop(server);

    println!("== gate 1b: p99 latency within the committed budget");
    let records = compare::load("LOAD_record.json").map_err(|e| e.to_string())?;
    let budgets = slocheck::load_budgets("SLO_load_budgets.json").map_err(|e| e.to_string())?;
    let slo = slocheck::check(&records, &budgets);
    print!("{}", slo.render());
    if !slo.passed() {
        return Err("request latency over the committed budget".into());
    }

    println!("== gate 3a: every kept span tree is well-formed");
    let summary = cable_bench::check_trace_export(&export).map_err(|p| p.join("\n"))?;
    let (trees, spans) = (summary.traces, summary.spans);
    println!("trace gate: PASS ({trees} span trees, {spans} spans, all well-formed)");

    println!("== gate 3b: named stages explain >=95% of the p99 request");
    let export = Value::parse(export.trim()).map_err(|e| format!("TRACE_export.json: {e}"))?;
    let attribution = cable_bench::trace_report(&export)?;
    print!("{}", attribution.render());
    write(
        "TRACE_attribution.json",
        &format!("{}\n", attribution.to_json()),
    )?;
    if !attribution.passes(95.0) {
        let coverage = attribution.p99.coverage_pct;
        return Err(format!("p99 coverage {coverage:.1}% below the 95% gate"));
    }

    println!("== gate 3c: the server's timeline is a valid Chrome trace with its workers' lanes");
    let summary = cable_bench::check_chrome_trace(&lanes).map_err(|p| p.join("\n"))?;
    if !lanes.contains("\"cable-obs-conn-") {
        return Err("TRACE_lanes.json has no cable-obs-conn-N lane".into());
    }
    let (events, n) = (summary.events, summary.lanes);
    println!("trace gate: PASS ({events} events across {n} lanes)");

    println!("== gate 2: sequential replay reproduces every session digest");
    replay_all(&report.logs, &work.join("replay"), false)
}

fn chaos(work: &Path) -> Result<(), String> {
    println!("== start the labeling service under fault injection ({CHAOS_FAULTS})");
    let server = Server::start(
        &work.join("tenants"),
        &["--events-out", "CHAOS_record.jsonl"],
        &[("CABLE_OBS", "1"), ("CABLE_FAULTS", CHAOS_FAULTS)],
    )?;
    println!("== gate 1a: {LABELERS} chaos labelers, every 5xx must be declared");
    let opts = server.options(LABELERS, REQUESTS, SEED, true);
    let report = fleet(opts, Some("CHAOS_load.json"))?;
    println!("== gate 1b: the fleet ends healthy — no store left read-only");
    let health = server.get("/healthz")?;
    let degraded_now = Value::parse(health.trim())
        .ok()
        .and_then(|v| v.get("durability")?.get("degraded_now")?.as_u64());
    if degraded_now != Some(0) {
        return Err(format!("healthz reports stores still degraded: {health}"));
    }
    drop(server);

    println!("== gate 1c: chaos actually happened (faults fired, stores degraded and recovered)");
    let events = read_events("CHAOS_record.jsonl")?;
    let count = |k: &str| events.iter().filter(|(_, e)| kind(e) == k).count();
    let (fired, degraded) = (count("fault_injected"), count("store_degraded"));
    let (recovered, absorbed) = (count("store_recovered"), report.degraded_503 as usize);
    println!(
        "fault timeline: {fired} injected, {degraded} degradations, {recovered} recoveries, \
         {absorbed} declared 503s absorbed"
    );
    for (n, what) in [
        (fired, "no faults fired — the drill proved nothing"),
        (degraded, "faults fired but no store degraded"),
        (recovered, "stores degraded but never recovered"),
        (absorbed, "no declared degraded 503 reached a labeler"),
    ] {
        if n == 0 {
            return Err(what.into());
        }
    }
    let chaos_kinds = ["fault_injected", "store_degraded", "store_recovered"];
    let timeline: String = events
        .iter()
        .filter(|(_, e)| chaos_kinds.contains(&kind(e)))
        .map(|(line, _)| format!("{line}\n"))
        .collect();
    write("CHAOS_degraded_timeline.jsonl", &timeline)?;

    println!("== gate 2: the wide-event log honours the chaos event contracts");
    for (i, (_, event)) in events.iter().enumerate() {
        cable_obs::events::check_schema(event)
            .map_err(|e| format!("CHAOS_record.jsonl:{}: {e}", i + 1))?;
    }
    println!("event-schema gate: PASS ({} events)", events.len());

    println!("== gate 3: fault-free sequential replay reproduces every session digest");
    replay_all(&report.logs, &work.join("replay"), true)?;

    println!("== gate 4: the fault timeline is identical at CABLE_PAR=1 and CABLE_PAR=8");
    let mut timelines = Vec::new();
    for par in ["1", "8"] {
        let events_path = work.join(format!("par{par}-events.jsonl"));
        let server = Server::start(
            &work.join(format!("par{par}")),
            &["--events-out", &events_path.to_string_lossy()],
            &[
                ("CABLE_OBS", "1"),
                ("CABLE_FAULTS", TIMELINE_FAULTS),
                ("CABLE_PAR", par),
            ],
        )?;
        fleet(server.options(1, TIMELINE_REQUESTS, 777, true), None)?;
        drop(server);
        let mut fired: Vec<(String, u64)> = read_events(&events_path)?
            .iter()
            .filter(|(_, e)| kind(e) == "fault_injected")
            .filter_map(|(_, e)| Some((e.get("site")?.as_str()?.into(), e.get("hit")?.as_u64()?)))
            .collect();
        fired.sort();
        if fired.len() < TIMELINE_MIN_HITS {
            return Err(format!(
                "CABLE_PAR={par}: {} faults fired, fewer than {TIMELINE_MIN_HITS}",
                fired.len()
            ));
        }
        timelines.push(fired);
    }
    if timelines[0] != timelines[1] {
        let (one, eight) = (&timelines[0], &timelines[1]);
        return Err(format!(
            "fault timelines differ at CABLE_PAR=1 and 8:\n{one:?}\n{eight:?}"
        ));
    }
    let hits = timelines[0].len();
    println!("fault timeline identical across CABLE_PAR=1/8 ({hits} fired hits)");
    Ok(())
}

fn crash(work: &Path) -> Result<(), String> {
    // A small base corpus and a large, varied ingest batch (big enough
    // that per-trace fsync keeps the ingest running while we shoot it).
    let base = "fopen(X) fread(X) fclose(X)\nfopen(X) fwrite(X) fclose(X)\n".repeat(40);
    let batch: String = (1..=5000)
        .map(|i| match i % 4 {
            0 => "popen(Y) fread(Y) pclose(Y)\n",
            1 => "fopen(X) fread(X) fwrite(X) fclose(X)\n",
            2 => "popen(Y) fwrite(Y) pclose(Y)\n",
            _ => "fopen(X) fclose(X)\n",
        })
        .collect();
    let fa = read("testdata/figure6_fixed.fa")?;
    let (clean, crashed) = (work.join("clean"), work.join("crashed"));

    println!("== uninterrupted reference run");
    open_session(&base, Some(&fa), &clean)?;
    let ingest = |dir: &Path, text: &str, fsync| {
        reopen(dir)?
            .ingest_text(text, fsync)
            .map_err(|e| format!("ingesting into {}: {e}", dir.display()))
    };
    ingest(&clean, &batch, true)?;

    println!("== crashed run: kill -9 mid-journal");
    open_session(&base, Some(&fa), &crashed)?;
    let batch_path = work.join("batch.traces");
    write(&batch_path, &batch)?;
    let mut child = cable()?
        .args(["session", "ingest", "--fsync-per-trace", "--store"])
        .arg(&crashed)
        .arg("--traces")
        .arg(&batch_path)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .map_err(|e| format!("starting cable session ingest: {e}"))?;
    std::thread::sleep(Duration::from_millis(300));
    let _ = child.kill();
    let _ = child.wait();

    println!("== resume after the crash");
    let ingested = reopen(&crashed)?.session().traces().len() - base.lines().count();
    let rest: String = batch.split_inclusive('\n').skip(ingested).collect();
    let total = batch.lines().count();
    println!("recovered {ingested} of {total} batch traces; re-ingesting the rest");
    if rest.is_empty() {
        println!("note: the ingest finished before the kill landed; prefix = whole batch");
    } else {
        ingest(&crashed, &rest, false)?;
    }

    println!("== gate 1: resumed + completed state equals the uninterrupted state");
    let before = resume(&clean)?;
    same_state(&before, &resume(&crashed)?, false)?;

    println!("== gate 2: states still agree after compaction");
    for dir in [&clean, &crashed] {
        reopen(dir)?
            .compact()
            .map_err(|e| format!("compacting {}: {e}", dir.display()))?;
    }
    let after = resume(&clean)?;
    same_state(&after, &resume(&crashed)?, false)?;
    same_state(&before, &after, true).map_err(|e| format!("compaction changed the state: {e}"))
}

/// `cable session open --traces F [--fa F] --store DIR`: the traces parse
/// before the FA, so both share one vocabulary in the CLI's order.
fn open_session(traces: &str, fa: Option<&str>, dir: &Path) -> Result<(), String> {
    let mut vocab = Vocab::new();
    let traces = TraceSet::parse(traces, &mut vocab).map_err(|e| format!("traces: {e}"))?;
    let fa = match fa {
        Some(text) => Fa::parse(text, &mut vocab).map_err(|e| format!("fa: {e}"))?,
        None => {
            let list: Vec<Trace> = traces.iter().map(|(_, t)| t.clone()).collect();
            templates::unordered_of_trace_events(&list)
        }
    };
    let session = CableSession::try_new(traces, fa)
        .map_err(|stop| format!("budget exceeded: {}", stop.error))?;
    session
        .save(vocab, dir)
        .map_err(|e| format!("saving session to {}: {e}", dir.display()))?;
    Ok(())
}

/// Opens the store at `dir` as every `cable` store command does,
/// recovering the journal.
fn reopen(dir: &Path) -> Result<StoredSession, String> {
    CableSession::open(dir)
        .map(|(stored, _)| stored)
        .map_err(|e| format!("opening store {}: {e}", dir.display()))
}

/// `cable session resume --store DIR --json-out F`.
fn resume(dir: &Path) -> Result<Value, String> {
    Ok(session_state_record(&reopen(dir)?))
}

/// Replays one labeler's acknowledged steps into a fresh store at
/// `dir` and returns the resumed `session_state` record.
fn replay(steps: &[Step], dir: &Path) -> Result<Value, String> {
    for step in steps {
        match step {
            Step::Open(traces) => open_session(traces, None, dir)?,
            Step::Ingest(traces) => {
                reopen(dir)?
                    .ingest_text(traces, false)
                    .map_err(|e| format!("ingest: {e}"))?;
            }
            Step::Label(script) => {
                let mut stored = reopen(dir)?;
                let commands = parse_script(script, stored.session().lattice().len())?;
                for (id, selector, name) in commands {
                    stored
                        .label_traces(id, &selector, &name)
                        .map_err(|e| format!("label: {e}"))?;
                }
            }
        }
    }
    resume(dir)
}

/// Replays every labeler into its own store under `root` and requires
/// each digest to equal the server's (`generation` aside when
/// `ignore_generation`: every recovery republishes the snapshot, so a
/// chaos server's count runs ahead of a fault-free replay's).
fn replay_all(logs: &[LabelerLog], root: &Path, ignore_generation: bool) -> Result<(), String> {
    for (i, log) in logs.iter().enumerate() {
        let name = format!("labeler-{i:03}");
        let served = log
            .digest
            .as_ref()
            .ok_or(format!("{name}: no server digest"))?;
        let replayed = replay(&log.steps, &root.join(&name)).map_err(|e| format!("{name}: {e}"))?;
        same_state(served, &replayed, ignore_generation)
            .map_err(|e| format!("{name}: replayed digest diverged from the server's: {e}"))?;
    }
    let replayed = logs.len();
    println!("replayed {replayed} of {LABELERS} sessions, all digests identical");
    Ok(())
}

/// The drills' digest comparison: `reproduce diff` on two
/// `session_state` records, optionally without their `generation`.
fn same_state(a: &Value, b: &Value, ignore_generation: bool) -> Result<(), String> {
    let strip = |v: &Value| match v {
        Value::Object(fields) if ignore_generation => {
            let mut fields = fields.clone();
            fields.remove("generation");
            Value::Object(fields)
        }
        _ => v.clone(),
    };
    let differences = compare::diff(&[strip(a)], &[strip(b)]);
    if differences.is_empty() {
        Ok(())
    } else {
        Err(differences.join("; "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The replay gate cannot pass vacuously: a replay that drops the
    /// last acknowledged label diverges from the whole log's digest.
    #[test]
    fn a_replay_missing_its_last_label_is_caught() {
        let root = std::env::temp_dir().join(format!("cable-load-replay-{}", std::process::id()));
        let steps = vec![
            Step::Open("fopen(#1) fread(#1) fclose(#1)\nfopen(#2)\n".into()),
            Step::Ingest("fopen(#3) fwrite(#3) fclose(#3)\n".into()),
            Step::Label("label c0 unlabeled good\n".into()),
            Step::Ingest("fopen(#4)\n".into()),
            Step::Label("label c0 unlabeled bad\n".into()),
        ];
        let served = replay(&steps, &root.join("served")).unwrap();
        let log = |steps: &[Step]| LabelerLog {
            steps: steps.to_vec(),
            digest: Some(served.clone()),
        };
        assert_eq!(
            replay_all(&[log(&steps)], &root.join("whole"), false),
            Ok(())
        );
        let short = replay_all(&[log(&steps[..4])], &root.join("short"), true);
        let _ = std::fs::remove_dir_all(&root);
        assert!(short
            .unwrap_err()
            .contains("labeler-000: replayed digest diverged"));
    }
}
