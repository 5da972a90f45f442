//! Regenerates the paper's evaluation tables.
//!
//! ```text
//! reproduce [table1|table2|table3|scaling|coring|ablation|mutants|all]
//!           [--seed N] [--threads N] [--quick] [--stats] [--json-out PATH]
//!           [--mutants-per-family N]
//!           [--trace-out PATH] [--obs-listen ADDR]
//!           [--deadline-ms N] [--max-concepts N] [--faults SEED:SPEC]
//! reproduce compare --baseline PATH --current PATH [--tolerance PCT]
//! reproduce diff PATH PATH
//! reproduce check-trace PATH
//! reproduce trace-report --export PATH [--min-coverage PCT] [--json-out PATH]
//! reproduce check-events PATH
//! reproduce slo-check --records PATH --budgets PATH
//! ```
//!
//! `--quick` lowers the Random-strategy trial count (the paper uses
//! 1024) and the Optimal search budget for a fast smoke run.
//! `--threads N` sizes the cable-par pool (same effect as `CABLE_PAR=N`;
//! `1` forces the sequential path).
//!
//! `--stats` prints the cable-obs metric report (with the self-time
//! profile) after the tables, and `--json-out PATH` writes
//! machine-readable JSONL perf records (conventionally
//! `BENCH_pipeline.json`): one `table2_spec` record per specification
//! when table2 runs, then one final `pipeline_snapshot` record with the
//! whole metric registry and profile. `--trace-out PATH` exports the
//! flight recorder as Chrome trace-event JSON (load it in Perfetto),
//! and `--obs-listen ADDR` serves `/metrics`, `/healthz`, and `/tracez`
//! while the run lasts. All four flags enable span timing and the
//! flight recorder; so does `CABLE_OBS=1`.
//!
//! `--deadline-ms N` / `--max-concepts N` install a cable-guard resource
//! budget for the run: table2 then reports the guarded lattice build,
//! with `budget_stopped: true` and the deterministic partial concept
//! count in the JSONL record when the budget trips (the timing and
//! store measurements are skipped). The CI budget-determinism gate runs
//! table2 this way under different `CABLE_PAR` values and `diff`s the
//! records. `--faults SEED:SPEC` (or `CABLE_FAULTS`) installs the
//! deterministic fault-injection plane, as in the `cable` binary.
//!
//! `mutants` (not part of `all`) runs the mutation matrix: for each
//! protocol family (Locking, FdLife, SockLife) the seeded cable-mutate
//! engine derives `--mutants-per-family` surviving mutants of the
//! ground-truth FA (default 36, so 108 total; 8 with `--quick`), and
//! each mutant is debugged as the buggy reference spec of a Cable
//! session over the family's corpus. With `--json-out` every run emits
//! one timing-free `mutation_row` record plus a final `mutation_summary`
//! whose `equivalent_survivors` count must be zero — the CI mutation
//! drill greps for it and `diff`s two runs at different `CABLE_PAR`.
//!
//! `compare` is the CI perf-regression gate: exits non-zero when the
//! current run's counts drift from the baseline at all, or its total
//! build time regresses beyond the tolerance (percent, default 25).
//! `diff` is the CI determinism gate: exits non-zero unless the two
//! record files are identical once timing is stripped.
//! `check-trace` structurally validates a trace file, sniffing its
//! shape: a `--trace-out` export must be JSON with a `traceEvents`
//! array, matched B/E pairs and non-decreasing timestamps per lane, and
//! at least one event on every lane; a `/tracez/export` dump must hold
//! well-formed span trees (closed spans, acyclic parents, every span
//! reachable from its request root). `trace-report` then attributes
//! each kept request's wall time to named stages (queue / lock-wait /
//! fsync / serialization / lattice / handler) by self-time under the
//! nearest categorised ancestor, singles out the p99 request with its
//! critical path, and writes the `trace_attribution` record; with
//! `--min-coverage PCT` it fails unless the stages explain at least
//! that much of the p99 request's wall time.
//!
//! `--events-out PATH` writes the wide-event log (one self-describing
//! JSONL record per unit of work) alongside the run; `check-events`
//! validates such a file against the event schema (every record parses
//! and carries a scope id and outcome). `slo-check` is the CI
//! latency-budget gate: it reconstructs the per-stage histograms from a
//! `--json-out` file's final `pipeline_snapshot` and fails when any
//! stage's estimated p95 exceeds its committed budget (see
//! `SLO_budgets.json`).

use cable_bench::tables::scaling_fit;
use cable_bench::{compare, scaling, table1, table2_with_deltas, table3};
use cable_obs::json::Value;
use cable_obs::JsonlSink;
use std::env;

fn main() {
    let args: Vec<String> = env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("compare") => run_compare(&args[1..]),
        Some("diff") => run_diff(&args[1..]),
        Some("check-trace") => run_check_trace(&args[1..]),
        Some("trace-report") => run_trace_report(&args[1..]),
        Some("check-events") => run_check_events(&args[1..]),
        Some("slo-check") => run_slo_check(&args[1..]),
        _ => {}
    }
    let mut which = Vec::new();
    let mut seed = 2003u64; // PLDI 2003.
    let mut quick = false;
    let mut stats = false;
    let mut json_out: Option<String> = None;
    let mut trace_out: Option<String> = None;
    let mut events_out: Option<String> = None;
    let mut obs_listen: Option<String> = None;
    let mut deadline_ms: Option<u64> = None;
    let mut max_concepts: Option<u64> = None;
    let mut faults: Option<String> = None;
    let mut mutants_per_family: Option<usize> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--seed" => {
                i += 1;
                seed = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage("--seed needs an integer"));
            }
            "--threads" => {
                i += 1;
                let n: usize = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage("--threads needs an integer"));
                cable_par::configure(n);
            }
            "--quick" => quick = true,
            "--stats" => stats = true,
            "--json-out" => {
                i += 1;
                json_out = Some(
                    args.get(i)
                        .cloned()
                        .unwrap_or_else(|| usage("--json-out needs a path")),
                );
            }
            "--trace-out" => {
                i += 1;
                trace_out = Some(
                    args.get(i)
                        .cloned()
                        .unwrap_or_else(|| usage("--trace-out needs a path")),
                );
            }
            "--events-out" => {
                i += 1;
                events_out = Some(
                    args.get(i)
                        .cloned()
                        .unwrap_or_else(|| usage("--events-out needs a path")),
                );
            }
            "--obs-listen" => {
                i += 1;
                obs_listen = Some(
                    args.get(i)
                        .cloned()
                        .unwrap_or_else(|| usage("--obs-listen needs an address or port")),
                );
            }
            "--deadline-ms" => {
                i += 1;
                deadline_ms = Some(
                    args.get(i)
                        .and_then(|s| s.parse().ok())
                        .unwrap_or_else(|| usage("--deadline-ms needs an integer")),
                );
            }
            "--max-concepts" => {
                i += 1;
                max_concepts = Some(
                    args.get(i)
                        .and_then(|s| s.parse().ok())
                        .unwrap_or_else(|| usage("--max-concepts needs an integer")),
                );
            }
            "--faults" => {
                i += 1;
                faults = Some(
                    args.get(i)
                        .cloned()
                        .unwrap_or_else(|| usage("--faults needs a spec (seed:kind@site[,...])")),
                );
            }
            "--mutants-per-family" => {
                i += 1;
                mutants_per_family = Some(
                    args.get(i)
                        .and_then(|s| s.parse().ok())
                        .filter(|n| *n > 0)
                        .unwrap_or_else(|| usage("--mutants-per-family needs a positive integer")),
                );
            }
            "table1" | "table2" | "table3" | "scaling" | "coring" | "ablation" | "mutants"
            | "all" => which.push(args[i].clone()),
            other => usage(&format!("unknown argument {other:?}")),
        }
        i += 1;
    }
    cable_obs::init_from_env();
    if let Some(spec) = &faults {
        cable_guard::faults::install(spec).unwrap_or_else(|e| usage(&format!("--faults: {e}")));
    } else if let Err(e) = cable_guard::init_from_env() {
        die(&format!("CABLE_FAULTS: {e}"));
    }
    let _budget_guard = cable_guard::Budget {
        deadline: deadline_ms.map(std::time::Duration::from_millis),
        max_concepts,
        ..Default::default()
    }
    .install();
    if stats || json_out.is_some() || trace_out.is_some() || obs_listen.is_some() {
        cable_obs::set_enabled(true);
    }
    if let Some(path) = &events_out {
        let sink = JsonlSink::create(path).unwrap_or_else(|e| {
            eprintln!("error: cannot create {path}: {e}");
            std::process::exit(2);
        });
        cable_obs::events::install_sink(sink);
    }
    let _server = obs_listen.as_deref().map(|addr| {
        let server = cable_core::server::ObsServer::bind(addr).unwrap_or_else(|e| die(&e));
        eprintln!("obs: serving http://{}/metrics", server.addr());
        server.spawn()
    });
    let sink = json_out.as_deref().map(|path| {
        JsonlSink::create(path).unwrap_or_else(|e| {
            eprintln!("error: cannot create {path}: {e}");
            std::process::exit(2);
        })
    });
    if which.is_empty() {
        which.push("all".to_owned());
    }
    let all = which.iter().any(|w| w == "all");
    let registry = cable_specs::registry();
    let (random_trials, optimal_budget) = if quick { (64, 50_000) } else { (1024, 500_000) };

    // No-panic boundary: a genuine panic anywhere in the table runs
    // (including injected `--faults` panics at cable-par task
    // boundaries) surfaces as a structured error + exit code, not an
    // unwind. Budget trips inside table2 are handled gracefully further
    // down; only an unexpected unwind lands here.
    let contained = cable_guard::contain(|| {
        if all || which.iter().any(|w| w == "table1") {
            println!("## Table 1: specifications after debugging (seed {seed})\n");
            println!("| spec | states | transitions | ≡ ground truth | bugs | buggy programs | description |");
            println!("|---|---|---|---|---|---|---|");
            let rows = table1(&registry, seed);
            let mut total_bugs = 0;
            for r in &rows {
                println!(
                    "| {} | {} | {} | {} | {} | {} | {} |",
                    r.name,
                    r.states,
                    r.transitions,
                    if r.equivalent { "yes" } else { "no" },
                    r.bugs,
                    r.buggy_programs,
                    r.description
                );
                total_bugs += r.bugs;
            }
            println!("\ntotal bugs found by the corrected specifications: {total_bugs}\n");
        }

        if all || which.iter().any(|w| w == "table2") {
            println!("## Table 2: cost of concept analysis (seed {seed})\n");
            println!(
            "| spec | traces | unique | reference FA | transitions | k | concepts | build (ms) | \
             ingest (µs/trace) | store (bytes) |"
        );
            println!("|---|---|---|---|---|---|---|---|---|---|");
            let rows_with_deltas = table2_with_deltas(&registry, seed);
            if let Some(sink) = &sink {
                for (r, delta) in &rows_with_deltas {
                    let record = Value::object([
                        ("record", Value::from("table2_spec")),
                        ("seed", Value::from(seed)),
                        ("spec", Value::from(r.name.as_str())),
                        ("traces", Value::from(r.traces)),
                        ("unique", Value::from(r.unique)),
                        ("reference", Value::from(r.reference.as_str())),
                        ("transitions", Value::from(r.transitions)),
                        ("max_row", Value::from(r.max_row)),
                        ("concepts", Value::from(r.concepts)),
                        ("build_ms", Value::from(r.build_ms)),
                        ("ingest_us_per_trace", Value::from(r.ingest_us_per_trace)),
                        ("store_bytes", Value::from(r.store_bytes)),
                        ("journal_bytes", Value::from(r.journal_bytes)),
                        ("budget_stopped", Value::from(r.budget_stopped)),
                        ("obs", delta.to_json()),
                    ]);
                    sink.write(&record).expect("writing perf record");
                }
            }
            let rows: Vec<_> = rows_with_deltas.into_iter().map(|(r, _)| r).collect();
            let mut max_ms = 0.0f64;
            for r in &rows {
                println!(
                    "| {} | {} | {} | {} | {} | {} | {}{} | {:.2} | {:.1} | {} |",
                    r.name,
                    r.traces,
                    r.unique,
                    r.reference,
                    r.transitions,
                    r.max_row,
                    r.concepts,
                    if r.budget_stopped { "*" } else { "" },
                    r.build_ms,
                    r.ingest_us_per_trace,
                    r.store_bytes
                );
                max_ms = max_ms.max(r.build_ms);
            }
            if rows.iter().any(|r| r.budget_stopped) {
                println!("\n\\* budget stopped the build; concepts counts the partial lattice");
            }
            println!("\nlongest lattice construction: {max_ms:.2} ms (paper: < 22 s)\n");
            // The paper's linear-size observation over the real specs.
            let pts: Vec<(f64, f64)> = rows
                .iter()
                .map(|r| (r.transitions as f64, r.concepts as f64))
                .collect();
            if let Some((a, b)) = cable_util::stats::linear_fit(&pts) {
                let r2 = cable_util::stats::r_squared(&pts, a, b);
                println!("lattice size vs transitions: concepts ≈ {a:.1} + {b:.2}·transitions (r² = {r2:.2})\n");
            }
        }

        if all || which.iter().any(|w| w == "table3") {
            println!("## Table 3: labeling cost by strategy (seed {seed})\n");
            println!(
                "| spec | concepts | Baseline | Expert | Top-down | Bottom-up | Random | Optimal |"
            );
            println!("|---|---|---|---|---|---|---|---|");
            let rows = table3(&registry, seed, 16, random_trials, optimal_budget);
            let mut expert_total = 0usize;
            let mut baseline_total = 0usize;
            let mut best_ratio: Option<(f64, String, usize, usize)> = None;
            for r in &rows {
                println!(
                    "| {} | {} | {} | {} | {} | {} | {} | {} |",
                    r.name,
                    r.concepts,
                    r.baseline,
                    fmt_opt(r.expert),
                    fmt_opt(r.top_down),
                    fmt_opt(r.bottom_up),
                    r.random_mean
                        .map(|m| format!("{m:.1}"))
                        .unwrap_or_else(|| "—".into()),
                    fmt_opt(r.optimal),
                );
                if let Some(e) = r.expert {
                    expert_total += e;
                    baseline_total += r.baseline;
                    let ratio = e as f64 / r.baseline as f64;
                    if best_ratio.as_ref().is_none_or(|(b, _, _, _)| ratio < *b) {
                        best_ratio = Some((ratio, r.name.clone(), e, r.baseline));
                    }
                }
            }
            println!(
            "\nExpert/Baseline over all specs: {expert_total}/{baseline_total} = {:.2} (paper: < 1/3 on average)",
            expert_total as f64 / baseline_total as f64
        );
            if let Some((ratio, name, e, b)) = best_ratio {
                println!("best case: {name} needed {e} decisions vs {b} by hand (ratio {ratio:.2}; paper: 28 vs 224)\n");
            }
        }

        if all || which.iter().any(|w| w == "coring") {
            println!("## §6 ablation: coring vs Cable (seed {seed})\n");
            println!("Coring drops transitions below a frequency threshold; no threshold");
            println!("separates errors from correct traces the way Cable does.\n");
            let thresholds = [1u64, 2, 4, 8, 16, 32];
            for name in ["XOpenDisplay", "FilePair", "XtFree"] {
                let spec = registry.spec(name).expect("known spec");
                let report = cable_bench::coring_sweep(spec, seed, &thresholds);
                println!(
                    "### {} ({} bad classes, {} good classes)\n",
                    report.name, report.total_bad, report.total_good
                );
                println!("| method | errors kept | good classes lost |");
                println!("|---|---|---|");
                for row in &report.sweep {
                    println!(
                        "| coring ≥ {} | {} | {} |",
                        row.threshold, row.errors_kept, row.good_lost
                    );
                }
                println!(
                    "| **Cable** | **{}** | **{}** |\n",
                    report.cable_errors_kept, report.cable_good_lost
                );
            }
        }

        if all || which.iter().any(|w| w == "ablation") {
            println!(
                "## §5.2 ablation: lattice over all traces vs representatives (seed {seed})\n"
            );
            println!("| spec | traces | unique | concepts | all (ms) | dedup (ms) | speedup |");
            println!("|---|---|---|---|---|---|---|");
            for name in ["FilePair", "XtFree", "RegionsBig"] {
                let spec = registry.spec(name).expect("known spec");
                let row = cable_bench::dedup_ablation(spec, seed);
                println!(
                    "| {} | {} | {} | {} | {:.2} | {:.2} | {:.1}× |",
                    row.name,
                    row.traces,
                    row.unique,
                    row.concepts,
                    row.all_ms,
                    row.dedup_ms,
                    row.all_ms / row.dedup_ms.max(1e-6)
                );
            }
            println!("\n## §2.1 ablation: sk-strings granularity dial (FilePair good traces)\n");
            println!("| k | s% | states | transitions | ≡ ground truth |");
            println!("|---|---|---|---|---|");
            let spec = registry.spec("FilePair").expect("known spec");
            for row in cable_bench::learner_sweep(spec, seed) {
                println!(
                    "| {} | {:.0} | {} | {} | {} |",
                    row.k,
                    row.s_percent,
                    row.states,
                    row.transitions,
                    if row.equivalent { "yes" } else { "no" }
                );
            }
            println!();
            println!("## §6 comparison: concept lattice vs Jaccard-HAC dendrogram\n");
            println!(
                "Minimum cluster decisions to realise the oracle labeling (lower is better).\n"
            );
            println!("| spec | classes | lattice | HAC single | HAC complete | HAC average |");
            println!("|---|---|---|---|---|---|");
            for name in ["FilePair", "XtFree", "XInternAtom", "XFreeGC"] {
                let spec = registry.spec(name).expect("known spec");
                let row = cable_bench::hac_comparison(spec, seed, optimal_budget);
                println!(
                    "| {} | {} | {} | {} | {} | {} |",
                    row.name,
                    row.classes,
                    fmt_opt(row.lattice),
                    row.hac_single,
                    row.hac_complete,
                    row.hac_average
                );
            }
            println!();
        }

        if all || which.iter().any(|w| w == "scaling") {
            println!("## §5.2 scaling: lattice size and time vs FA transitions (seed {seed})\n");
            println!("| transitions | objects | concepts | build (ms) |");
            println!("|---|---|---|---|");
            let rows = scaling(seed);
            for r in &rows {
                println!(
                    "| {} | {} | {} | {:.2} |",
                    r.transitions, r.objects, r.concepts, r.build_ms
                );
            }
            if let Some((a, b, r2)) = scaling_fit(&rows) {
                println!("\nfit: concepts ≈ {a:.1} + {b:.2}·transitions (r² = {r2:.2})\n");
            }
        }

        // Not part of `all`: the matrix is its own CI gate (the
        // mutation drill) and would skew the perf-baseline comparisons.
        if which.iter().any(|w| w == "mutants") {
            let per_family = mutants_per_family.unwrap_or(if quick { 8 } else { 36 });
            println!(
                "## Mutation matrix: debugging generated buggy specs (seed {seed}, \
                 {per_family} mutants/family)\n"
            );
            println!(
                "| family | # | operator | witness | len | classes | concepts | \
                 Baseline | Expert | saved |"
            );
            println!("|---|---|---|---|---|---|---|---|---|---|");
            let (rows, summary) = cable_bench::mutation_matrix(seed, per_family);
            for r in &rows {
                println!(
                    "| {} | {} | {} | `{}` | {} | {} | {} | {} | {} | {} |",
                    r.family,
                    r.mutant,
                    r.kind,
                    r.witness,
                    r.witness_len,
                    r.unique,
                    r.concepts,
                    r.baseline,
                    fmt_opt(r.expert),
                    fmt_opt(r.saved),
                );
            }
            println!(
                "\n{} survivors across {} families ({} candidates drawn, {} filtered as \
                 equivalent); {} re-verified equivalent survivors (must be 0); Expert reached \
                 the oracle labeling on {}/{} runs\n",
                summary.mutants,
                summary.families,
                summary.candidates,
                summary.filtered,
                summary.equivalent_survivors,
                summary.expert_solved,
                summary.mutants,
            );
            if let Some(sink) = &sink {
                for r in &rows {
                    let record = Value::object([
                        ("record", Value::from("mutation_row")),
                        ("seed", Value::from(seed)),
                        ("family", Value::from(r.family.as_str())),
                        ("mutant", Value::from(r.mutant)),
                        ("kind", Value::from(r.kind)),
                        ("description", Value::from(r.description.as_str())),
                        ("witness", Value::from(r.witness.as_str())),
                        ("witness_len", Value::from(r.witness_len)),
                        (
                            "parent_accepts_witness",
                            Value::from(r.parent_accepts_witness),
                        ),
                        ("traces", Value::from(r.traces)),
                        ("unique", Value::from(r.unique)),
                        ("transitions", Value::from(r.transitions)),
                        ("concepts", Value::from(r.concepts)),
                        ("baseline", Value::from(r.baseline)),
                        ("expert", opt_value(r.expert)),
                        ("saved", opt_value(r.saved)),
                    ]);
                    sink.write(&record).expect("writing mutation row");
                }
                let record = Value::object([
                    ("record", Value::from("mutation_summary")),
                    ("seed", Value::from(seed)),
                    ("per_family", Value::from(per_family)),
                    ("families", Value::from(summary.families)),
                    ("mutants", Value::from(summary.mutants)),
                    ("candidates", Value::from(summary.candidates)),
                    ("filtered", Value::from(summary.filtered)),
                    (
                        "equivalent_survivors",
                        Value::from(summary.equivalent_survivors),
                    ),
                    ("expert_solved", Value::from(summary.expert_solved)),
                ]);
                sink.write(&record).expect("writing mutation summary");
            }
        }
    });
    if let Err(e) = contained {
        eprintln!("error: {e}");
        let code = match e {
            cable_guard::GuardError::BudgetExceeded { .. } => 4,
            _ => 5,
        };
        std::process::exit(code);
    }

    let snap = cable_obs::registry().snapshot();
    let lanes = cable_obs::recorder::snapshot();
    let profile = cable_obs::chrome::self_time(&lanes);
    if let Some(sink) = &sink {
        let record = Value::object([
            ("record", Value::from("pipeline_snapshot")),
            ("seed", Value::from(seed)),
            ("snapshot", snap.to_json()),
            ("profile", cable_obs::chrome::profile_json(&profile)),
        ]);
        sink.write(&record).expect("writing final snapshot");
        sink.flush().expect("flushing perf records");
    }
    if let Some(path) = &trace_out {
        let trace = cable_obs::chrome::chrome_trace(&lanes);
        std::fs::write(path, format!("{trace}\n"))
            .unwrap_or_else(|e| die(&format!("cannot write {path}: {e}")));
        eprintln!(
            "obs: wrote Chrome trace with {} lanes to {path} (open in Perfetto)",
            lanes.len()
        );
    }
    if let Some(path) = &events_out {
        // Dropping the sink flushes it; report how much the run logged.
        let total = cable_obs::events::total_emitted();
        drop(cable_obs::events::take_sink());
        eprintln!("obs: wrote {total} wide events to {path}");
    }
    if stats {
        println!("{}", snap.render());
        print!("{}", cable_obs::chrome::render_profile(&profile));
        let scopes = cable_obs::scoped().snapshot();
        print!("{}", cable_obs::render_scopes(&scopes));
    }
}

/// The `check-trace` subcommand: the structural trace gate CI runs.
/// Sniffs the file shape — a Chrome trace-event export (`--trace-out`)
/// gets the Perfetto-loadability check, a `/tracez/export` dump gets
/// the span-tree well-formedness check.
fn run_check_trace(args: &[String]) -> ! {
    let [path] = args else {
        usage("check-trace needs exactly one trace path");
    };
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| die(&format!("{path}: {e}")));
    let is_export = Value::parse(text.trim())
        .ok()
        .and_then(|v| v.get("record").and_then(Value::as_str).map(str::to_owned))
        .as_deref()
        == Some("trace_export");
    let problems = if is_export {
        match cable_bench::check_trace_export(&text) {
            Ok(summary) => {
                println!(
                    "trace gate: PASS ({path}: {} span trees, {} spans, all well-formed)",
                    summary.traces, summary.spans
                );
                std::process::exit(0);
            }
            Err(problems) => problems,
        }
    } else {
        match cable_bench::check_chrome_trace(&text) {
            Ok(summary) => {
                println!(
                    "trace gate: PASS ({path}: {} events across {} lanes)",
                    summary.events, summary.lanes
                );
                std::process::exit(0);
            }
            Err(problems) => problems,
        }
    };
    for p in &problems {
        println!("FAIL: {p}");
    }
    std::process::exit(1);
}

/// The `trace-report` subcommand: critical-path and stage attribution
/// over a `/tracez/export` dump. The `trace_attribution` record it
/// writes is the artifact ROADMAP item 1 (sharded slot map, yes or no)
/// is decided on; `--min-coverage` turns it into a CI gate.
fn run_trace_report(args: &[String]) -> ! {
    let mut export_path: Option<String> = None;
    let mut json_out: Option<String> = None;
    let mut min_coverage: f64 = 0.0;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--export" => {
                i += 1;
                export_path = args.get(i).cloned();
            }
            "--json-out" => {
                i += 1;
                json_out = args.get(i).cloned();
            }
            "--min-coverage" => {
                i += 1;
                min_coverage = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--min-coverage needs a percentage"));
            }
            other => usage(&format!("unknown trace-report argument {other:?}")),
        }
        i += 1;
    }
    let path = export_path.unwrap_or_else(|| usage("trace-report needs --export PATH"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| die(&format!("{path}: {e}")));
    let export = Value::parse(text.trim()).unwrap_or_else(|e| die(&format!("{path}: {e}")));
    let report =
        cable_bench::trace_report(&export).unwrap_or_else(|e| die(&format!("{path}: {e}")));
    print!("{}", report.render());
    if let Some(out) = json_out {
        let sink = JsonlSink::create(&out).unwrap_or_else(|e| die(&format!("{out}: {e}")));
        sink.write(&report.to_json()).expect("writing attribution");
        sink.flush().expect("flushing attribution");
    }
    if !report.passes(min_coverage) {
        println!(
            "trace-report: FAIL — p99 coverage {:.1}% below the {min_coverage:.1}% gate",
            report.p99.coverage_pct
        );
        std::process::exit(1);
    }
    if min_coverage > 0.0 {
        println!("trace-report: PASS (coverage gate {min_coverage:.1}%)");
    }
    std::process::exit(0);
}

/// The `check-events` subcommand: the CI event-schema gate over a
/// `--events-out` file. Every record must parse as a wide event with a
/// non-empty kind, scope id, and outcome; an empty file fails (a run
/// that logged nothing is a broken event pipeline, not a clean one).
fn run_check_events(args: &[String]) -> ! {
    let [path] = args else {
        usage("check-events needs exactly one events path");
    };
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| die(&format!("{path}: {e}")));
    let records = cable_obs::parse_jsonl(&text).unwrap_or_else(|e| die(&format!("{path}: {e}")));
    if records.is_empty() {
        println!("FAIL: {path} holds no events");
        std::process::exit(1);
    }
    let mut failures = 0usize;
    for (i, record) in records.iter().enumerate() {
        if let Err(e) = cable_obs::events::check_schema(record) {
            println!("FAIL: {path}:{}: {e}", i + 1);
            failures += 1;
        }
    }
    if failures > 0 {
        std::process::exit(1);
    }
    println!(
        "event-schema gate: PASS ({path}: {} events, all self-describing)",
        records.len()
    );
    std::process::exit(0);
}

/// The `slo-check` subcommand: the CI latency-budget gate.
fn run_slo_check(args: &[String]) -> ! {
    let mut records_path: Option<String> = None;
    let mut budgets_path: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--records" => {
                i += 1;
                records_path = Some(
                    args.get(i)
                        .cloned()
                        .unwrap_or_else(|| usage("--records needs a path")),
                );
            }
            "--budgets" => {
                i += 1;
                budgets_path = Some(
                    args.get(i)
                        .cloned()
                        .unwrap_or_else(|| usage("--budgets needs a path")),
                );
            }
            other => usage(&format!("unknown slo-check argument {other:?}")),
        }
        i += 1;
    }
    let records_path = records_path.unwrap_or_else(|| usage("slo-check needs --records PATH"));
    let budgets_path = budgets_path.unwrap_or_else(|| usage("slo-check needs --budgets PATH"));
    let records = compare::load(&records_path).unwrap_or_else(|e| die(&e.to_string()));
    let budgets =
        cable_bench::slocheck::load_budgets(&budgets_path).unwrap_or_else(|e| die(&e.to_string()));
    let report = cable_bench::slocheck::check(&records, &budgets);
    print!("{}", report.render());
    std::process::exit(if report.passed() { 0 } else { 1 });
}

/// The `compare` subcommand: the CI perf-regression gate.
fn run_compare(args: &[String]) -> ! {
    let mut baseline: Option<String> = None;
    let mut current: Option<String> = None;
    let mut tolerance = 25.0f64;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--baseline" => {
                i += 1;
                baseline = Some(
                    args.get(i)
                        .cloned()
                        .unwrap_or_else(|| usage("--baseline needs a path")),
                );
            }
            "--current" => {
                i += 1;
                current = Some(
                    args.get(i)
                        .cloned()
                        .unwrap_or_else(|| usage("--current needs a path")),
                );
            }
            "--tolerance" => {
                i += 1;
                tolerance = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage("--tolerance needs a number (percent)"));
            }
            other => usage(&format!("unknown compare argument {other:?}")),
        }
        i += 1;
    }
    let baseline = baseline.unwrap_or_else(|| usage("compare needs --baseline PATH"));
    let current = current.unwrap_or_else(|| usage("compare needs --current PATH"));
    let base = compare::load(&baseline).unwrap_or_else(|e| die(&e.to_string()));
    let cur = compare::load(&current).unwrap_or_else(|e| die(&e.to_string()));
    let report = compare::compare(&base, &cur, tolerance);
    print!("{}", report.render());
    std::process::exit(if report.passed() { 0 } else { 1 });
}

/// The `diff` subcommand: the CI determinism gate.
fn run_diff(args: &[String]) -> ! {
    let [a, b] = args else {
        usage("diff needs exactly two record paths");
    };
    let ra = compare::load(a).unwrap_or_else(|e| die(&e.to_string()));
    let rb = compare::load(b).unwrap_or_else(|e| die(&e.to_string()));
    let differences = compare::diff(&ra, &rb);
    if differences.is_empty() {
        println!("determinism gate: PASS ({a} and {b} agree once timing is stripped)");
        std::process::exit(0);
    }
    for d in &differences {
        println!("FAIL: {d}");
    }
    std::process::exit(1);
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

fn fmt_opt(v: Option<usize>) -> String {
    v.map(|x| x.to_string()).unwrap_or_else(|| "—".into())
}

fn opt_value(v: Option<usize>) -> Value {
    v.map(Value::from).unwrap_or(Value::Null)
}

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: reproduce [table1|table2|table3|scaling|coring|ablation|mutants|all] [options]\n\
         \u{20}      reproduce compare --baseline PATH --current PATH [--tolerance PCT]\n\
         \u{20}      reproduce diff PATH PATH\n\
         \u{20}      reproduce check-trace PATH\n\
         \u{20}      reproduce trace-report --export PATH [--min-coverage PCT] [--json-out PATH]\n\
         \u{20}      reproduce check-events PATH\n\
         \u{20}      reproduce slo-check --records PATH --budgets PATH\n\
         options:\n\
         \u{20} --seed N          RNG seed for corpus generation (default 2003)\n\
         \u{20} --threads N       size of the cable-par pool (like CABLE_PAR=N; 1 = sequential)\n\
         \u{20} --quick           lower trial counts / search budgets for a fast smoke run\n\
         \u{20} --mutants-per-family N  surviving mutants per protocol family for `mutants`\n\
         \u{20}                   (default 36, or 8 with --quick)\n\
         \u{20} --stats           print the metric report and self-time profile to stdout\n\
         \u{20} --json-out PATH   write JSONL perf records (table2 specs + pipeline snapshot)\n\
         \u{20} --trace-out PATH  export the flight recorder as Chrome trace-event JSON\n\
         \u{20} --events-out PATH write the wide-event log as JSONL (one record per unit of work)\n\
         \u{20} --obs-listen ADDR serve /metrics, /healthz, /tracez, /eventz, /sloz while the run lasts\n\
         \u{20}                   (ADDR is host:port, or a bare port bound on 127.0.0.1)\n\
         \u{20} --deadline-ms N   install a wall-clock budget; table2 reports guarded builds\n\
         \u{20} --max-concepts N  install a concept-count budget (deterministic partial lattices)\n\
         \u{20} --faults SPEC     install the fault plane (seed:kind@site[#K|=P][,...]; or CABLE_FAULTS)"
    );
    std::process::exit(2);
}
