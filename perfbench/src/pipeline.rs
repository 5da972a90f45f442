//! `paper-pipeline`: Table 2 as a user runs it.
//!
//! Each item is one registry spec × one seed through the user's path:
//! `cable_bench::prepare` (generate, extract, mine, choose a reference
//! FA, build the session), `strategy::expert`, then a store round trip —
//! `save` of ≈80% of the scenarios, `ingest_text` of the held-out rest,
//! `compact`, and `CableSession::open`. A round is all 17 specs for each
//! of the [`CORPUS_SEEDS`] — one `reproduce table2` — and every round
//! repeats the same items, so each round must reproduce the records of
//! the untimed warm-up round exactly.
//!
//! The corpora are fixed rather than drawn from the benchmark seed:
//! mining one seed's corpora takes 1.3–1.9 s depending on the seed, so
//! a run covering a few drawn seeds would measure the draw, not the
//! code. The benchmark seed orders the items and picks which ≈20% of
//! each corpus is held out for the incremental ingest.
//!
//! The traced run takes the same path apart call by call (the same
//! public functions `prepare` composes) and checks that it lands on the
//! same record as `prepare` for every item.

use crate::report::Report;
use crate::spans::Tracer;
use crate::stats::{self, Tally};
use crate::{machine, median_setup, rounds_within, Outcome, RunConfig};
use cable_bench::{extract_scenarios, ReferenceFaChoice};
use cable_core::{strategy, CableSession};
use cable_fa::{templates, Fa};
use cable_learn::Pta;
use cable_specs::SpecDef;
use cable_strauss::Miner;
use cable_trace::{Trace, TraceSet, Vocab};
use cable_util::rng;
use cable_workload::Oracle;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// The workload seeds of every round: Table 2's seed (`reproduce`'s
/// default). One seed keeps a round near 2 s, so a run makes several.
pub const CORPUS_SEEDS: [u64; 1] = [2003];

/// Set-up repetitions whose median is `setup_s`.
const SETUP_REPS: usize = 15;

/// What one item must reproduce exactly, run after run and on the
/// traced path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ItemRecord {
    /// Spec name.
    pub spec: String,
    /// Workload seed.
    pub seed: u64,
    /// Lattice concepts.
    pub concepts: usize,
    /// Identical-trace classes.
    pub classes: usize,
    /// The reference FA the pipeline chose.
    pub reference: String,
    /// Expert labeling decisions (inspections + labelings).
    pub decisions: usize,
}

/// One round's items, `(spec index, workload seed)`, in the order the
/// benchmark seed gives.
pub fn items(seed: u64, specs: usize) -> Vec<(usize, u64)> {
    let mut out: Vec<(usize, u64)> = CORPUS_SEEDS
        .iter()
        .flat_map(|&s| (0..specs).map(move |i| (i, s)))
        .collect();
    rng::shuffle(&mut out, &mut rng::seeded(seed));
    out
}

/// Which of `n` scenarios an item holds out for the incremental ingest:
/// ≈20%, at least one when `n > 1`, drawn from `(seed, stream)`.
pub fn held_out(seed: u64, stream: u64, n: usize) -> Vec<bool> {
    let keep = ((n * 4) / 5).max(1);
    let mut out: Vec<bool> = (0..n).map(|i| i >= keep).collect();
    rng::shuffle(&mut out, &mut rng::stream(seed, stream));
    out
}

/// Byte and trace counts from one store round trip.
#[derive(Debug, Default, Clone, Copy)]
struct StoreFigures {
    input_bytes: u64,
    snapshot_bytes: u64,
    held_out: usize,
}

/// Saves the scenarios `held_out` leaves in as a store under `dir`,
/// ingests the rest, compacts, reopens, and checks that the incremental path
/// and the reopened session land on the batch session's classes and
/// concepts.
#[allow(clippy::too_many_arguments)]
fn store_round_trip(
    tr: &mut Tracer,
    scenarios: &TraceSet,
    vocab: &Vocab,
    reference: &Fa,
    batch: &CableSession,
    dir: &Path,
    held_out: &[bool],
    label: &str,
    tally: &mut Tally,
) -> StoreFigures {
    let _ = std::fs::remove_dir_all(dir);
    let mut base = TraceSet::new();
    let mut rest = String::new();
    let mut figures = StoreFigures::default();
    for (i, (_, t)) in scenarios.iter().enumerate() {
        let line = t.display(vocab).to_string();
        figures.input_bytes += line.len() as u64 + 1;
        if !held_out[i] {
            base.push(t.clone());
        } else {
            let _ = writeln!(rest, "{line}");
            figures.held_out += 1;
        }
    }
    let saved = tr.span("store.save", |_| {
        CableSession::new(base, reference.clone()).save(vocab.clone(), dir)
    });
    let mut stored = match saved {
        Ok(s) => s,
        Err(e) => {
            tally.record(false, || format!("{label}: save: {e}"));
            return figures;
        }
    };
    if figures.held_out > 0 {
        let ingested = tr.span("store.ingest", |_| stored.ingest_text(&rest, false));
        tally.record(ingested.is_ok(), || format!("{label}: ingest failed"));
    }
    tally.check_eq(
        &format!("{label}: incremental classes"),
        batch.classes().len(),
        stored.session().classes().len(),
    );
    tally.check_eq(
        &format!("{label}: incremental concepts"),
        batch.lattice().len(),
        stored.session().lattice().len(),
    );
    let compacted = tr.span("store.compact", |_| stored.compact());
    tally.record(compacted.is_ok(), || format!("{label}: compact failed"));
    figures.snapshot_bytes = stored.store().snapshot_bytes().unwrap_or(0);
    drop(stored);
    match tr.span("store.open", |_| CableSession::open(dir)) {
        Ok((reopened, _)) => tally.check_eq(
            &format!("{label}: reopened concepts"),
            batch.lattice().len(),
            reopened.session().lattice().len(),
        ),
        Err(e) => tally.record(false, || format!("{label}: open: {e}")),
    }
    let _ = std::fs::remove_dir_all(dir);
    figures
}

/// The user's path for one item, as one call to `cable_bench::prepare`.
fn item(spec: &SpecDef, seed: u64, dir: &Path, split: &Split, tally: &mut Tally) -> ItemRecord {
    let label = format!("{}@{seed}", spec.name());
    let mut p = cable_bench::prepare(spec, seed);
    let oracle = &p.oracle;
    let cost = strategy::expert(&mut p.session, &|t: &Trace| oracle.label(t).to_owned());
    tally.record(cost.is_some(), || {
        format!("{label}: expert found no labeling")
    });
    let reference = p.session.reference_fa().clone();
    let mut off = Tracer::new(false, 0);
    store_round_trip(
        &mut off,
        &p.scenarios,
        &p.vocab,
        &reference,
        &p.session,
        dir,
        &split.held_out(spec, seed, p.scenarios.len()),
        &label,
        tally,
    );
    ItemRecord {
        spec: spec.name().to_owned(),
        seed,
        concepts: p.session.lattice().len(),
        classes: p.session.classes().len(),
        reference: p.reference.name(),
        decisions: cost.map_or(0, |c| c.total()),
    }
}

/// The candidate reference FAs in the order `prepare` tries them.
fn candidates(scenarios: &TraceSet, mined: &Fa, vocab: &Vocab) -> Vec<(ReferenceFaChoice, Fa)> {
    let list: Vec<Trace> = scenarios.iter().map(|(_, t)| t.clone()).collect();
    let alphabet = templates::distinct_event_pats(&list);
    let unordered = (
        ReferenceFaChoice::Unordered,
        templates::unordered(&alphabet),
    );
    let seed_orders = alphabet.iter().map(|pat| {
        (
            ReferenceFaChoice::SeedOrder(vocab.op_name(pat.op).to_owned()),
            templates::seed_order(&alphabet, pat),
        )
    });
    let mut out = Vec::new();
    if mined.transition_count() <= 3 * alphabet.len().max(1) {
        out.push((ReferenceFaChoice::Mined, mined.clone()));
        out.push(unordered);
        out.extend(seed_orders);
    } else {
        out.push(unordered);
        out.extend(seed_orders);
        out.push((ReferenceFaChoice::Mined, mined.clone()));
    }
    out.push((ReferenceFaChoice::Exact, Pta::build(&list).to_fa()));
    out
}

/// The same item taken apart: one span per layer call.
fn traced_item(
    tr: &mut Tracer,
    spec: &SpecDef,
    seed: u64,
    dir: &Path,
    split: &Split,
    figures: &mut Vec<StoreFigures>,
    tally: &mut Tally,
) -> ItemRecord {
    let label = format!("{}@{seed} (traced)", spec.name());
    tr.span("pipeline.item", |tr| {
        let mut vocab = Vocab::new();
        let workload = tr.span("workload.generate", |_| spec.generate(seed, &mut vocab));
        let miner = Miner::new(spec.seeds());
        let scenarios = tr.span("strauss.extract", |_| {
            extract_scenarios(spec, &workload, &vocab)
        });
        let mined = tr.span("learn.mine", |_| miner.back.mine_set(&scenarios));
        let oracle: Oracle = spec.oracle(&mut vocab);
        let chosen = tr.span("core.refchoice", |tr| {
            for (choice, fa) in candidates(&scenarios, &mined, &vocab) {
                let (session, ok) = tr.span("core.refchoice.try", |_| {
                    let session = CableSession::new(scenarios.clone(), fa);
                    let ok = session.is_well_formed_for(|t| oracle.label(t));
                    (session, ok)
                });
                if ok {
                    return Some((choice, session));
                }
            }
            None
        });
        let Some((choice, mut session)) = chosen else {
            tally.record(false, || format!("{label}: no well-formed reference"));
            return ItemRecord {
                spec: spec.name().to_owned(),
                seed,
                concepts: 0,
                classes: 0,
                reference: "none".into(),
                decisions: 0,
            };
        };
        let traces: Vec<&Trace> = scenarios.iter().map(|(_, t)| t).collect();
        tr.span("fa.sweep", |_| {
            std::hint::black_box(session.reference_fa().executed_transitions_batch(&traces))
        });
        let cost = tr.span("core.expert", |_| {
            strategy::expert(&mut session, &|t: &Trace| oracle.label(t).to_owned())
        });
        tally.record(cost.is_some(), || {
            format!("{label}: expert found no labeling")
        });
        let reference = session.reference_fa().clone();
        figures.push(store_round_trip(
            tr,
            &scenarios,
            &vocab,
            &reference,
            &session,
            dir,
            &split.held_out(spec, seed, scenarios.len()),
            &label,
            tally,
        ));
        ItemRecord {
            spec: spec.name().to_owned(),
            seed,
            concepts: session.lattice().len(),
            classes: session.classes().len(),
            reference: choice.name(),
            decisions: cost.map_or(0, |c| c.total()),
        }
    })
}

/// The benchmark seed's held-out draw, one stream per item.
struct Split {
    seed: u64,
}

impl Split {
    fn held_out(&self, spec: &SpecDef, corpus: u64, n: usize) -> Vec<bool> {
        let name = spec
            .name()
            .bytes()
            .fold(0u64, |h, b| h.wrapping_mul(31).wrapping_add(u64::from(b)));
        held_out(self.seed, rng::derive_seed(corpus, name), n)
    }
}

/// Generates every item's corpus and extracts its scenarios: the
/// benchmark's input generation. Returns the scenario count.
fn setup(specs: &[&SpecDef]) -> usize {
    let mut scenarios = 0;
    for seed in CORPUS_SEEDS {
        for spec in specs {
            let mut vocab = Vocab::new();
            let workload = spec.generate(seed, &mut vocab);
            scenarios += extract_scenarios(spec, &workload, &vocab).len();
        }
    }
    scenarios
}

/// Checks each record against the first one seen for its item.
fn check_records(
    expected: &mut BTreeMap<(String, u64), ItemRecord>,
    records: &[ItemRecord],
    what: &str,
    tally: &mut Tally,
) {
    for r in records {
        let key = (r.spec.clone(), r.seed);
        match expected.get(&key) {
            Some(e) => tally.check_eq(&format!("{}@{} {what}", r.spec, r.seed), e, r),
            None => {
                expected.insert(key, r.clone());
            }
        }
    }
}

/// Runs the workload.
pub fn run(cfg: &RunConfig) -> Outcome {
    let registry = cable_specs::registry();
    let specs: Vec<&SpecDef> = registry.iter().collect();
    let order = items(cfg.seed, specs.len());
    let split = Split { seed: cfg.seed };
    let dir = cfg.work_dir.join("store");
    let mut tally = Tally::default();
    let mut report = Report::default();
    let mut tracer = Tracer::new(cfg.trace, cfg.seed);

    let (setup_s, scenarios) = median_setup(SETUP_REPS, |_| setup(&specs));
    report.set("setup_s", setup_s, SETUP_REPS);
    report.note(format!(
        "paper-pipeline: {} specs x seeds {CORPUS_SEEDS:?} = {} items per round, {scenarios} scenarios, pool {} workers",
        specs.len(),
        order.len(),
        cable_par::threads()
    ));

    // The warm-up round: untimed; its records are what every later
    // round must reproduce.
    let mut expected: BTreeMap<(String, u64), ItemRecord> = BTreeMap::new();
    let warm: Vec<ItemRecord> = order
        .iter()
        .map(|&(i, seed)| item(specs[i], seed, &dir, &split, &mut tally))
        .collect();
    check_records(&mut expected, &warm, "warm-up", &mut tally);

    // The timed rounds. A traced run alternates untraced and traced
    // rounds, so host drift during the run lands on both alike.
    let mut item_ms: Vec<f64> = Vec::new();
    let mut untraced_s = 0.0;
    let mut figures = Vec::new();
    let cpu0 = machine::on_cpu_ns();
    let timed = Instant::now();
    let all = rounds_within(cfg.budget(), |r| {
        let mut records = Vec::new();
        if cfg.trace && r % 2 == 1 {
            for &(i, seed) in &order {
                records.push(traced_item(
                    &mut tracer,
                    specs[i],
                    seed,
                    &dir,
                    &split,
                    &mut figures,
                    &mut tally,
                ));
            }
            check_records(&mut expected, &records, "traced vs prepare", &mut tally);
            return;
        }
        let round = Instant::now();
        for &(i, seed) in &order {
            let t = Instant::now();
            records.push(item(specs[i], seed, &dir, &split, &mut tally));
            item_ms.push(t.elapsed().as_secs_f64() * 1e3);
            tally.attempted += 1;
        }
        untraced_s += round.elapsed().as_secs_f64();
        check_records(&mut expected, &records, "repeats", &mut tally);
    });
    let timed_s = timed.elapsed().as_secs_f64();
    let cpu1 = machine::on_cpu_ns();
    let (walls, traced_walls) = crate::split_alternate(&all, cfg.trace);
    report.set("wall_s", untraced_s / walls.len() as f64, walls.len());
    report.note(format!("round walls (s): {}", stats::summary(&walls)));
    report.set("p50_ms", stats::median(&walls) * 1e3, walls.len());
    report.set("item_p50_ms", stats::median(&item_ms), item_ms.len());
    report.set(
        "ops_per_s",
        item_ms.len() as f64 / untraced_s,
        item_ms.len(),
    );
    note_tail(&mut report, &item_ms);

    if cfg.trace {
        let overhead = stats::median(&traced_walls) / stats::median(&walls) - 1.0;
        report.set("trace.overhead_pct", overhead * 100.0, traced_walls.len());
        let traced_s: f64 = traced_walls.iter().sum();
        per_layer(&mut report, &tracer, &figures, traced_s);
        if let (Some(a), Some(b)) = (cpu0, cpu1) {
            report.set(
                "par.cpu_per_wall",
                (b - a) as f64 / 1e9 / timed_s,
                all.len(),
            );
        }
    }
    report.set("par.threads", cable_par::threads() as f64, 1);
    let decisions: usize = expected.values().map(|r| r.decisions).sum();
    report.set("core.expert_decisions", decisions as f64, expected.len());
    report.note(format!(
        "paper-pipeline: {} distinct items, {decisions} expert decisions in total",
        expected.len()
    ));
    Outcome {
        report,
        tally,
        tracer,
    }
}

/// Adds the highest reportable item-time percentile as a report line.
fn note_tail(report: &mut Report, ms: &[f64]) {
    if let Some(p) = stats::highest_reportable(ms.len(), &[90.0, 99.0]) {
        let v = stats::nearest_rank(&stats::sorted(ms), p).unwrap_or(0.0);
        report.note(format!("item p{p} = {v:.3} ms (n={})", ms.len()));
    }
}

/// The per-layer metrics from the traced items.
fn per_layer(report: &mut Report, tr: &Tracer, figures: &[StoreFigures], traced_s: f64) {
    for (metric, span) in [
        ("workload.generate_ms", "workload.generate"),
        ("strauss.extract_ms", "strauss.extract"),
        ("learn.mine_ms", "learn.mine"),
        ("core.refchoice_ms", "core.refchoice.try"),
        ("fa.sweep_ms", "fa.sweep"),
        ("core.expert_ms", "core.expert"),
        ("store.save_ms", "store.save"),
        ("store.compact_ms", "store.compact"),
        ("store.open_ms", "store.open"),
    ] {
        let d = tr.durations_ms(span);
        report.set(metric, stats::median(&d), d.len());
    }
    let items = tr.durations_ms("pipeline.item");
    let mine: f64 = tr.durations_ms("learn.mine").iter().sum();
    report.set("learn.mine_share", mine / 1e3 / traced_s, items.len());
    let tries = tr.durations_ms("core.refchoice.try").len();
    report.set(
        "core.refchoice_tries",
        tries as f64 / items.len() as f64,
        items.len(),
    );

    let ingest_ms = tr.durations_ms("store.ingest");
    let held_out: Vec<usize> = figures
        .iter()
        .map(|f| f.held_out)
        .filter(|&n| n > 0)
        .collect();
    let per_trace: Vec<f64> = ingest_ms
        .iter()
        .zip(&held_out)
        .map(|(ms, &n)| ms * 1e3 / n as f64)
        .collect();
    report.set(
        "store.ingest_us_per_trace",
        stats::median(&per_trace),
        per_trace.len(),
    );
    let input: u64 = figures.iter().map(|f| f.input_bytes).sum();
    let snapshot: u64 = figures.iter().map(|f| f.snapshot_bytes).sum();
    report.set(
        "store.bytes_per_input_byte",
        snapshot as f64 / input.max(1) as f64,
        figures.len(),
    );

    for (name, t) in tr.self_times() {
        report.note(format!(
            "self {name}: {} calls, total {:.1} ms, self {:.1} ms",
            t.calls, t.total_ms, t.self_ms
        ));
    }
}
