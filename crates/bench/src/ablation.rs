//! Ablation experiments for the design choices DESIGN.md calls out.
//!
//! * [`coring_sweep`] — §6's motivating claim: the original Strauss
//!   removed errors by *coring* (dropping low-frequency transitions).
//!   "Some buggy traces occurred so frequently that suppressing them
//!   would also suppress valid traces." The sweep shows that no coring
//!   threshold separates good from bad the way a Cable-debugged
//!   specification does.
//! * [`dedup_ablation`] — §5.2 builds the lattice "from representatives
//!   for classes of identical scenarios, rather than from all of the
//!   scenarios". The concept lattice is identical either way (duplicate
//!   rows add no concepts); the ablation measures the construction-time
//!   difference, which is the reason for the optimisation.
//! * [`learner_sweep`] — §2.1 step 1b: "by varying parameters of the
//!   FA-learning algorithm, the author can choose … a large FA that makes
//!   very fine distinctions … or a smaller FA that makes coarser
//!   distinctions". The sweep reports FA size versus sk-strings
//!   parameters.

use crate::pipeline::prepare;
use cable_fca::ConceptLattice;
use cable_learn::SkStrings;
use cable_specs::SpecDef;
use cable_strauss::BackEnd;
use cable_trace::Trace;
use std::time::Instant;

/// One point of the coring sweep.
#[derive(Debug, Clone)]
pub struct CoringRow {
    /// The coring threshold (minimum transition frequency kept).
    pub threshold: u64,
    /// Erroneous scenario classes still accepted by the cored FA.
    pub errors_kept: usize,
    /// Correct scenario classes wrongly rejected by the cored FA.
    pub good_lost: usize,
}

/// The coring sweep plus the Cable result for comparison.
#[derive(Debug, Clone)]
pub struct CoringReport {
    /// Specification name.
    pub name: String,
    /// Total erroneous classes in the scenario population.
    pub total_bad: usize,
    /// Total correct classes.
    pub total_good: usize,
    /// The sweep, by increasing threshold.
    pub sweep: Vec<CoringRow>,
    /// Errors kept by the Cable-debugged (re-mined) specification.
    pub cable_errors_kept: usize,
    /// Good classes lost by the Cable-debugged specification.
    pub cable_good_lost: usize,
}

/// Runs the coring sweep for one specification.
pub fn coring_sweep(spec: &SpecDef, seed: u64, thresholds: &[u64]) -> CoringReport {
    let mut p = prepare(spec, seed);
    let reps: Vec<(Trace, bool)> = p
        .scenarios
        .identical_classes()
        .iter()
        .map(|c| {
            let t = p.scenarios.trace(c.representative).clone();
            let good = p.oracle.is_good(&t);
            (t, good)
        })
        .collect();
    let total_good = reps.iter().filter(|(_, g)| *g).count();
    let total_bad = reps.len() - total_good;
    let scenario_list: Vec<Trace> = p.scenarios.iter().map(|(_, t)| t.clone()).collect();

    let sweep = thresholds
        .iter()
        .map(|&threshold| {
            let back = BackEnd {
                learner: SkStrings::default(),
                coring_threshold: Some(threshold),
            };
            let fa = back.mine(&scenario_list);
            let errors_kept = reps
                .iter()
                .filter(|(t, good)| !good && fa.accepts(t))
                .count();
            let good_lost = reps
                .iter()
                .filter(|(t, good)| *good && !fa.accepts(t))
                .count();
            CoringRow {
                threshold,
                errors_kept,
                good_lost,
            }
        })
        .collect();

    // The Cable route: debug with the Expert strategy and re-mine.
    crate::tables::debug_with_expert(&mut p);
    let good_traces: Vec<Trace> = p
        .session
        .traces_with_label("good")
        .into_iter()
        .map(|id| p.session.traces().trace(id).clone())
        .collect();
    let corrected = p.miner.remine(&good_traces);
    let cable_errors_kept = reps
        .iter()
        .filter(|(t, good)| !good && corrected.accepts(t))
        .count();
    let cable_good_lost = reps
        .iter()
        .filter(|(t, good)| *good && !corrected.accepts(t))
        .count();

    CoringReport {
        name: p.name,
        total_bad,
        total_good,
        sweep,
        cable_errors_kept,
        cable_good_lost,
    }
}

/// One row of the deduplication ablation.
#[derive(Debug, Clone)]
pub struct DedupRow {
    /// Specification name.
    pub name: String,
    /// Total scenario traces.
    pub traces: usize,
    /// Identical classes.
    pub unique: usize,
    /// Lattice size (identical for both variants — asserted).
    pub concepts: usize,
    /// Build time over all traces (ms).
    pub all_ms: f64,
    /// Build time over representatives (ms).
    pub dedup_ms: f64,
}

/// Measures lattice construction over all traces vs representatives.
pub fn dedup_ablation(spec: &SpecDef, seed: u64) -> DedupRow {
    let p = prepare(spec, seed);
    let fa = p.session.reference_fa();
    // Context over all traces.
    let mut full = cable_fca::Context::new(p.scenarios.len(), fa.transition_count());
    for (i, (_, t)) in p.scenarios.iter().enumerate() {
        for a in fa.executed_transitions(t).iter() {
            full.add(i, a);
        }
    }
    let start = Instant::now();
    let full_lattice = ConceptLattice::build(&full);
    let all_ms = start.elapsed().as_secs_f64() * 1e3;
    let start = Instant::now();
    let dedup_lattice = ConceptLattice::build(p.session.context());
    let dedup_ms = start.elapsed().as_secs_f64() * 1e3;
    assert_eq!(
        full_lattice.len(),
        dedup_lattice.len(),
        "duplicate rows never add concepts"
    );
    DedupRow {
        name: p.name,
        traces: p.scenarios.len(),
        unique: p.session.classes().len(),
        concepts: dedup_lattice.len(),
        all_ms,
        dedup_ms,
    }
}

/// One row of the learner parameter sweep.
#[derive(Debug, Clone)]
pub struct LearnerRow {
    /// sk-strings `k`.
    pub k: usize,
    /// sk-strings `s` (percent).
    pub s_percent: f64,
    /// States of the learned FA.
    pub states: usize,
    /// Transitions of the learned FA.
    pub transitions: usize,
    /// Whether it is language-equivalent to ground truth.
    pub equivalent: bool,
}

/// Sweeps sk-strings parameters over one specification's *good*
/// scenarios and reports the learned FA size (the §2.1 granularity
/// dial).
pub fn learner_sweep(spec: &SpecDef, seed: u64) -> Vec<LearnerRow> {
    let mut p = prepare(spec, seed);
    let good: Vec<Trace> = p
        .scenarios
        .iter()
        .map(|(_, t)| t.clone())
        .filter(|t| p.oracle.is_good(t))
        .collect();
    let truth = spec.ground_truth(&mut p.vocab);
    [(1, 50.0), (2, 50.0), (2, 100.0), (3, 100.0), (4, 100.0)]
        .into_iter()
        .map(|(k, s_percent)| {
            let fa = SkStrings { k, s_percent }.learn(&good);
            LearnerRow {
                k,
                s_percent,
                states: fa.state_count(),
                transitions: fa.transition_count(),
                equivalent: fa.equivalent(&truth),
            }
        })
        .collect()
}

/// One row of the §6 clustering-technique comparison: minimum *cluster
/// decisions* (one `Label traces`-style command per cluster) needed to
/// realise the oracle labeling, on the concept lattice vs a Jaccard-HAC
/// dendrogram over the same objects.
#[derive(Debug, Clone)]
pub struct HacRow {
    /// Specification name.
    pub name: String,
    /// Trace classes (objects clustered).
    pub classes: usize,
    /// Minimum commands on the concept lattice (`None` when the Optimal
    /// search budget trips).
    pub lattice: Option<usize>,
    /// Minimum commands on the single-linkage dendrogram.
    pub hac_single: usize,
    /// Minimum commands on the complete-linkage dendrogram.
    pub hac_complete: usize,
    /// Minimum commands on the average-linkage dendrogram.
    pub hac_average: usize,
}

/// Runs the §6 clustering comparison for one specification.
pub fn hac_comparison(spec: &SpecDef, seed: u64, optimal_budget: usize) -> HacRow {
    use cable_fca::hac::{cluster, Linkage};
    let mut p = prepare(spec, seed);
    let class_labels: Vec<String> = p
        .session
        .classes()
        .iter()
        .map(|c| {
            p.oracle
                .label(p.session.traces().trace(c.representative))
                .to_owned()
        })
        .collect();
    let label_of = |o: usize| class_labels[o].clone();
    let ctx = p.session.context().clone();
    let hac_single = cluster(&ctx, Linkage::Single).min_uniform_cover(label_of);
    let hac_complete = cluster(&ctx, Linkage::Complete).min_uniform_cover(label_of);
    let hac_average = cluster(&ctx, Linkage::Average).min_uniform_cover(label_of);
    let oracle = p.oracle.clone();
    let o = move |t: &Trace| oracle.label(t).to_owned();
    // Optimal counts inspect+label per command; divide by two to compare
    // command counts.
    let lattice =
        cable_core::strategy::optimal(&mut p.session, &o, optimal_budget).map(|c| c.total() / 2);
    HacRow {
        name: p.name,
        classes: class_labels.len(),
        lattice,
        hac_single,
        hac_complete,
        hac_average,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coring_never_beats_cable() {
        let reg = cable_specs::registry();
        let spec = reg.spec("XOpenDisplay").expect("known spec");
        let report = coring_sweep(spec, 3, &[1, 2, 4, 8, 16]);
        assert_eq!(report.cable_errors_kept, 0, "Cable rejects every bug");
        assert_eq!(report.cable_good_lost, 0, "Cable keeps every good class");
        // Threshold 1 keeps everything, including the errors.
        assert!(report.sweep[0].errors_kept > 0);
        // Every threshold either keeps errors or loses good traces.
        for row in &report.sweep {
            assert!(
                row.errors_kept > 0 || row.good_lost > 0,
                "threshold {} separated perfectly — the §6 claim would be falsified \
                 for this workload",
                row.threshold
            );
        }
    }

    #[test]
    fn dedup_preserves_lattice() {
        let reg = cable_specs::registry();
        let spec = reg.spec("Quarks").expect("known spec");
        let row = dedup_ablation(spec, 3);
        assert!(row.traces >= row.unique);
        assert!(row.concepts >= 1);
    }

    #[test]
    fn lattice_commands_never_exceed_hac_commands_by_much() {
        // The lattice can exploit overlapping clusters; the dendrogram
        // cannot. On a real spec the lattice optimum should be at most
        // the best dendrogram's cover.
        let reg = cable_specs::registry();
        let spec = reg.spec("XInternAtom").expect("known spec");
        let row = hac_comparison(spec, 3, 200_000);
        let lattice = row.lattice.expect("small enough for optimal");
        let best_hac = row.hac_single.min(row.hac_complete).min(row.hac_average);
        assert!(
            lattice <= best_hac,
            "lattice {lattice} vs best HAC {best_hac}"
        );
    }

    #[test]
    fn finer_parameters_give_no_smaller_fas() {
        let reg = cable_specs::registry();
        let spec = reg.spec("RmvTimeOut").expect("known spec");
        let rows = learner_sweep(spec, 3);
        let coarse = rows.first().expect("nonempty").states;
        let fine = rows.last().expect("nonempty").states;
        assert!(fine >= coarse, "finer settings merge less");
    }
}
