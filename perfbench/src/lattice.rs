//! `lattice-scale`: the concept-lattice layer at the sizes §5.2 talks
//! about, where Godin insertion and Hasse assembly do almost all the
//! work and nothing else runs.
//!
//! Contexts are seeded and shaped like a session's (each object has
//! 2–8 attributes, popular attributes more often than rare ones) over an
//! objects × attributes grid. Each one is built with
//! `ConceptLattice::build` (Godin insertion on a one-thread `cable-par`
//! pool, then Hasse assembly) and again incrementally with
//! `insert_objects`, the
//! service's ingest path; both must give the same concepts and edges.
//! A round is one pass over the grid. [`WORKERS`] threads make passes at
//! once, each building its own lattices, as the service's workers do for
//! two tenants.
//!
//! The contexts' shapes are fixed; the benchmark seed relabels them,
//! permuting objects and attributes. Relabelled contexts have isomorphic
//! lattices, so every seed builds the same number of concepts and cover
//! edges, while Godin and `insert_objects` see the objects in a new
//! order. Hasse assembly grows about cubically in the concept count, so
//! contexts drawn afresh per seed would make the run's cost follow the
//! draw rather than the code.

use crate::report::Report;
use crate::spans::Tracer;
use crate::stats::{self, Tally};
use crate::{machine, median_setup, rounds_within, Outcome, RunConfig};
use cable_fca::{godin, ConceptLattice, Context};
use cable_util::rng::{self, Rng};
use cable_util::BitSet;
use std::collections::BTreeMap;
use std::time::Instant;

/// Objects per context along the grid. It stops at 750 so that a pass
/// takes ≈1.5 s and a run makes many: a 1,500 × 64 context alone takes
/// ≈2 s to build, and one build of it varies by half within a process.
pub const OBJECTS: [usize; 3] = [250, 500, 750];

/// Attributes per context along the grid.
pub const ATTRIBUTES: [usize; 2] = [32, 64];

/// The `cable-par` pool size the workload runs at.
pub const POOL_THREADS: usize = 1;

/// Threads making passes at once: one per vCPU of the 2-vCPU reference
/// host. Each vCPU of a shared host slows down and speeds up on its own,
/// with its neighbours' load, so the mean pass over two workers spreads
/// less from run to run than one worker's passes do.
pub const WORKERS: usize = 2;

/// Set-up repetitions whose median is `setup_s`.
const SETUP_REPS: usize = 15;

/// The seed of the grid's shapes, which the benchmark seed relabels.
const SHAPE_SEED: u64 = 52;

/// One seeded context: object `i` gets 2–8 distinct attributes, drawn
/// with a cubic bias towards low attribute indices so that objects
/// share attributes the way traces through a small FA share
/// transitions.
pub fn context(seed: u64, objects: usize, attributes: usize) -> Context {
    let mut rng = rng::stream(seed, (objects * 1_000 + attributes) as u64);
    let rows: Vec<BitSet> = (0..objects)
        .map(|_| {
            let k = rng.gen_range(2usize..=8);
            let mut row = BitSet::with_capacity(attributes);
            while row.len() < k {
                let u: f64 = rng.gen();
                row.insert((u.powi(3) * attributes as f64) as usize);
            }
            row
        })
        .collect();
    Context::from_rows(rows, attributes)
}

/// `ctx` with its objects and attributes permuted by `seed`.
pub fn relabel(ctx: &Context, seed: u64) -> Context {
    let mut rng = rng::stream(
        seed,
        (ctx.object_count() * 1_000 + ctx.attribute_count()) as u64,
    );
    let mut objects: Vec<usize> = (0..ctx.object_count()).collect();
    let mut attributes: Vec<usize> = (0..ctx.attribute_count()).collect();
    rng::shuffle(&mut objects, &mut rng);
    rng::shuffle(&mut attributes, &mut rng);
    let rows = objects
        .iter()
        .map(|&o| {
            let mut row = BitSet::with_capacity(ctx.attribute_count());
            for a in ctx.row(o).iter() {
                row.insert(attributes[a]);
            }
            row
        })
        .collect();
    Context::from_rows(rows, ctx.attribute_count())
}

/// The grid's contexts relabelled by `seed`, smallest first.
pub fn grid(seed: u64) -> Vec<Context> {
    let mut out = Vec::new();
    for &attributes in &ATTRIBUTES {
        for &objects in &OBJECTS {
            out.push(relabel(&context(SHAPE_SEED, objects, attributes), seed));
        }
    }
    out.sort_by_key(|c| (c.object_count(), c.attribute_count()));
    out
}

/// The lattice grown from the empty context by one `insert_objects`
/// batch over every row.
fn incremental(ctx: &Context) -> ConceptLattice {
    let empty = Context::from_rows(Vec::new(), ctx.attribute_count());
    ConceptLattice::build(&empty).insert_objects((0..ctx.object_count()).map(|i| (i, ctx.row(i))))
}

/// Concept count and Hasse edge count.
fn shape(l: &ConceptLattice) -> (usize, usize) {
    (l.len(), l.ids().map(|id| l.children(id).len()).sum())
}

/// Whether two lattices have the same concepts (in their canonical
/// order) and the same cover edges.
fn same_lattice(a: &ConceptLattice, b: &ConceptLattice) -> bool {
    a.len() == b.len()
        && a.ids().all(|id| {
            let (x, y) = (a.concept(id), b.concept(id));
            x.extent == y.extent && x.intent == y.intent && a.children(id) == b.children(id)
        })
}

/// Builds one context both ways, checks they agree, and returns the
/// batch lattice's shape.
fn item(tr: &mut Tracer, ctx: &Context, tally: &mut Tally) -> (usize, usize) {
    let label = format!("{}x{}", ctx.object_count(), ctx.attribute_count());
    let (batch, inc) = tr.span("lattice.item", |tr| {
        let batch = if tr.enabled() {
            let concepts = tr.span("fca.godin", |_| godin::concepts_auto(ctx));
            tr.span("fca.hasse", |_| ConceptLattice::from_concepts(concepts))
        } else {
            ConceptLattice::build(ctx)
        };
        let inc = tr.span("fca.insert", |_| incremental(ctx));
        (batch, inc)
    });
    tally.record(same_lattice(&batch, &inc), || {
        format!("{label}: insert_objects differs from build")
    });
    shape(&batch)
}

/// What one worker thread hands back.
struct Worker {
    /// Every pass's wall time in seconds, in order.
    walls: Vec<f64>,
    /// The untraced passes' per-context wall times, ms.
    item_ms: Vec<f64>,
    /// This thread's on-CPU time over its passes, ns.
    cpu_ns: Option<u64>,
    tally: Tally,
    tracer: Tracer,
}

/// One worker's timed passes, each checked against the warm-up
/// `shapes`. A traced run alternates untraced and traced passes, so host
/// drift during the run lands on both alike.
fn worker(
    cfg: &RunConfig,
    contexts: &[Context],
    shapes: &BTreeMap<usize, (usize, usize)>,
    epoch: Instant,
) -> Worker {
    let mut tracer = Tracer::with_epoch(cfg.trace, cfg.seed, epoch);
    let mut untraced = Tracer::new(false, cfg.seed);
    let mut tally = Tally::default();
    let mut item_ms = Vec::new();
    let cpu0 = machine::thread_on_cpu_ns();
    let walls = rounds_within(cfg.budget(), |r| {
        let traced = cfg.trace && r % 2 == 1;
        for (i, ctx) in contexts.iter().enumerate() {
            let t = Instant::now();
            let s = item(
                if traced { &mut tracer } else { &mut untraced },
                ctx,
                &mut tally,
            );
            if !traced {
                item_ms.push(t.elapsed().as_secs_f64() * 1e3);
            }
            tally.check_eq(&format!("context {i} shape repeats"), shapes[&i], s);
        }
    });
    let cpu_ns = match (cpu0, machine::thread_on_cpu_ns()) {
        (Some(a), Some(b)) => Some(b - a),
        _ => None,
    };
    Worker {
        walls,
        item_ms,
        cpu_ns,
        tally,
        tracer,
    }
}

/// Runs the workload.
pub fn run(cfg: &RunConfig) -> Outcome {
    // One thread (`--threads 1`): on a 2-vCPU host the default two-thread
    // pool made these builds ≈1.6× slower and widened the ten-run spread
    // from ≈0.15 to ≈0.25, so sharding overhead would drown a lattice
    // change.
    cable_par::configure(POOL_THREADS);
    let mut tally = Tally::default();
    let mut report = Report::default();
    let epoch = Instant::now();
    let mut tracer = Tracer::with_epoch(cfg.trace, cfg.seed, epoch);

    // Set-up: the grid, plus NextClosure's lattice of the smallest
    // context — the independent answer the run is checked against.
    let (setup_s, (contexts, oracle)) = median_setup(SETUP_REPS, |_| {
        let contexts = grid(cfg.seed);
        let oracle = ConceptLattice::build_next_closure(&contexts[0]);
        (contexts, oracle)
    });
    report.set("setup_s", setup_s, SETUP_REPS);

    // The warm-up pass: untimed; its shapes are what every later pass
    // must repeat.
    let mut untraced = Tracer::new(false, cfg.seed);
    let shapes: BTreeMap<usize, (usize, usize)> = contexts
        .iter()
        .enumerate()
        .map(|(i, ctx)| (i, item(&mut untraced, ctx, &mut tally)))
        .collect();

    let timed = Instant::now();
    let workers: Vec<Worker> = std::thread::scope(|s| {
        let (contexts, shapes) = (&contexts, &shapes);
        let handles: Vec<_> = (0..WORKERS)
            .map(|_| s.spawn(move || worker(cfg, contexts, shapes, epoch)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a lattice worker panicked"))
            .collect()
    });
    let timed_s = timed.elapsed().as_secs_f64();

    // Each worker's rate over its own untraced passes, summed, so a
    // worker that finished its last pass early adds no idle time.
    let mut walls = Vec::new();
    let mut traced_walls = Vec::new();
    let mut item_ms = Vec::new();
    let mut ops_per_s = 0.0;
    let mut cpu_ns = Some(0);
    for w in workers {
        let (untraced_w, traced_w) = crate::split_alternate(&w.walls, cfg.trace);
        ops_per_s += (untraced_w.len() * contexts.len()) as f64 / untraced_w.iter().sum::<f64>();
        walls.extend(untraced_w);
        traced_walls.extend(traced_w);
        item_ms.extend(w.item_ms);
        cpu_ns = cpu_ns.zip(w.cpu_ns).map(|(a, b)| a + b);
        tally.merge(w.tally);
        tracer.absorb(w.tracer);
    }
    report.set(
        "wall_s",
        walls.iter().sum::<f64>() / walls.len() as f64,
        walls.len(),
    );
    report.note(format!("round walls (s): {}", stats::summary(&walls)));
    report.set("p50_ms", stats::median(&walls) * 1e3, walls.len());
    report.set("item_p50_ms", stats::median(&item_ms), item_ms.len());
    report.set("ops_per_s", ops_per_s, item_ms.len());

    tally.record(
        same_lattice(&ConceptLattice::build(&contexts[0]), &oracle),
        || "NextClosure disagrees with Godin on the smallest context".into(),
    );

    let concepts: usize = shapes.values().map(|s| s.0).sum();
    let edges: usize = shapes.values().map(|s| s.1).sum();
    report.note(format!(
        "lattice-scale: {} contexts ({:?} objects x {:?} attributes), {} to {} concepts, {WORKERS} threads making passes, pool {} workers",
        contexts.len(),
        OBJECTS,
        ATTRIBUTES,
        shapes.values().map(|s| s.0).min().unwrap_or(0),
        shapes.values().map(|s| s.0).max().unwrap_or(0),
        cable_par::threads()
    ));
    report.set("fca.concepts", concepts as f64, shapes.len());
    report.set("fca.hasse_edges", edges as f64, shapes.len());
    report.set("par.threads", cable_par::threads() as f64, 1);

    if cfg.trace {
        let overhead = stats::median(&traced_walls) / stats::median(&walls) - 1.0;
        report.set("trace.overhead_pct", overhead * 100.0, traced_walls.len());
        let traced_s: f64 = traced_walls.iter().sum();
        per_layer(&mut report, &tracer, &contexts, &shapes, traced_s);
        if let Some(ns) = cpu_ns {
            report.set(
                "par.cpu_per_wall",
                ns as f64 / 1e9 / timed_s,
                walls.len() + traced_walls.len(),
            );
        }
    }
    Outcome {
        report,
        tally,
        tracer,
    }
}

/// The per-layer metrics from the traced passes.
fn per_layer(
    report: &mut Report,
    tr: &Tracer,
    contexts: &[Context],
    shapes: &BTreeMap<usize, (usize, usize)>,
    traced_s: f64,
) {
    let godin = tr.durations_ms("fca.godin");
    let hasse = tr.durations_ms("fca.hasse");
    let insert = tr.durations_ms("fca.insert");
    report.set("fca.godin_ms", stats::median(&godin), godin.len());
    report.set("fca.hasse_ms", stats::median(&hasse), hasse.len());
    let per_object: Vec<f64> = insert
        .iter()
        .zip(contexts.iter().cycle())
        .map(|(ms, ctx)| ms * 1e3 / ctx.object_count() as f64)
        .collect();
    report.set(
        "fca.insert_us_per_object",
        stats::median(&per_object),
        per_object.len(),
    );

    // §5.2: build time against lattice size, one point per context
    // (the median over the traced passes).
    let n = contexts.len();
    let points: Vec<(f64, f64)> = (0..n)
        .map(|i| {
            let build: Vec<f64> = godin
                .iter()
                .zip(&hasse)
                .skip(i)
                .step_by(n)
                .map(|(g, h)| g + h)
                .collect();
            (shapes[&i].0 as f64, stats::median(&build))
        })
        .collect();
    report.set("fca.time_slope", stats::loglog_slope(&points), points.len());
    for (concepts, ms) in &points {
        report.note(format!("build {concepts} concepts: {ms:.2} ms"));
    }
    let fca: f64 = godin.iter().chain(&hasse).chain(&insert).sum();
    report.set("fca.share", fca / 1e3 / traced_s, godin.len());
}
