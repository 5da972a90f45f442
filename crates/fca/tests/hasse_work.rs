//! The lattice's complexity gate, on work counts rather than time: the
//! number of neighbour-rule probes `X ∩ τ(m)` Hasse assembly makes must
//! grow at most as concept count^1.3 on a fixed grid of session-shaped
//! contexts (the all-pairs assembly's first pass alone grows as
//! concept count²). Counts are deterministic, so the gate cannot flake
//! on a noisy host. The counters are process-global, so this binary
//! holds this one test.

mod common;

use cable_fca::{godin, ConceptLattice};

/// Counter `name`'s growth while `f` runs.
fn counted<T>(name: &str, f: impl FnOnce() -> T) -> (T, u64) {
    let before = cable_obs::registry().snapshot();
    let value = f();
    let delta = cable_obs::registry().snapshot().delta_since(&before);
    (value, delta.counter(name).unwrap_or(0))
}

/// The least-squares slope of `ln y` against `ln x`.
fn loglog_slope(points: &[(f64, f64)]) -> f64 {
    let logs: Vec<(f64, f64)> = points.iter().map(|(x, y)| (x.ln(), y.ln())).collect();
    cable_util::stats::linear_fit(&logs)
        .expect("distinct concept counts")
        .1
}

#[test]
fn hasse_probes_grow_linearly_in_the_concept_count() {
    for attributes in [32, 64] {
        let mut hasse = Vec::new();
        let mut godin = Vec::new();
        for objects in [100, 200, 400, 800, 1_200] {
            let ctx = common::session_shaped(52, objects, attributes);
            let (concepts, inserted) = counted("fca.godin.intersections", || godin::concepts(&ctx));
            let (lattice, probes) = counted("fca.hasse.intersections", || {
                ConceptLattice::from_concepts(concepts)
            });
            let n = lattice.len() as f64;
            hasse.push((n, probes as f64));
            godin.push((n, inserted as f64));
            println!(
                "{objects} x {attributes}: {} concepts, {probes} Hasse probes, {inserted} Godin intersections",
                lattice.len()
            );
        }
        let (hasse, godin) = (loglog_slope(&hasse), loglog_slope(&godin));
        println!("{attributes} attributes: Hasse slope {hasse:.3}, Godin slope {godin:.3}");
        assert!(
            hasse <= 1.3,
            "{attributes} attributes: Hasse probes grow as concepts^{hasse:.3}"
        );
    }
}
