//! The miner's back end: learning a specification from scenarios.

use cable_fa::Fa;
use cable_learn::SkStrings;
use cable_obs::{CounterHandle, HistogramHandle, Span};
use cable_trace::{Trace, TraceSet};

/// Wall-clock cost of back-end learning runs.
static MINE_NS: HistogramHandle = HistogramHandle::new("strauss.back.mine_ns");
/// State pairs the sk-strings learner merged.
static SK_MERGES: CounterHandle = CounterHandle::new("learn.sk.merges");
/// Level-`k` distributions the sk-strings learner recomputed after a
/// merge.
static SK_RECOMPUTED: CounterHandle = CounterHandle::new("learn.sk.recomputed_states");
/// Rounds in which the sk-strings learner ran its pairwise subset scan.
static SK_SUBSET_SCANS: CounterHandle = CounterHandle::new("learn.sk.subset_scans");

/// The back end: the sk-strings learner plus an optional coring
/// threshold.
///
/// *Coring* — dropping transitions traversed by fewer than
/// `coring_threshold` training traces — is the naive error-removal
/// mechanism of the original Strauss that §6 contrasts with Cable.
///
/// # Examples
///
/// ```
/// use cable_strauss::BackEnd;
/// use cable_trace::{Trace, Vocab};
///
/// let mut v = Vocab::new();
/// let traces = vec![
///     Trace::parse("open(X) close(X)", &mut v).unwrap(),
///     Trace::parse("open(X) read(X) close(X)", &mut v).unwrap(),
/// ];
/// let fa = BackEnd::default().mine(&traces);
/// assert!(fa.accepts(&traces[0]));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct BackEnd {
    /// The learner: Raman & Patrick's sk-strings (the paper's choice).
    pub learner: SkStrings,
    /// If set, drop learned transitions with traversal count below this.
    pub coring_threshold: Option<u64>,
}

impl BackEnd {
    /// Mines a specification FA from scenario traces.
    pub fn mine(&self, scenarios: &[Trace]) -> Fa {
        let _span = Span::enter("strauss.back.mine", &MINE_NS);
        let (counted, work) = self.learner.learn_counted_with_work(scenarios);
        SK_MERGES.get().add(work.merges);
        SK_RECOMPUTED.get().add(work.recomputed_states);
        SK_SUBSET_SCANS.get().add(work.subset_scans);
        match self.coring_threshold {
            Some(min) => counted.to_fa_cored(min),
            None => counted.to_fa(),
        }
    }

    /// Mines from a [`TraceSet`] (convenience for re-mining labelled
    /// traces).
    pub fn mine_set(&self, scenarios: &TraceSet) -> Fa {
        let traces: Vec<Trace> = scenarios.iter().map(|(_, t)| t.clone()).collect();
        self.mine(&traces)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cable_trace::Vocab;

    fn traces(texts: &[&str], v: &mut Vocab) -> Vec<Trace> {
        texts.iter().map(|t| Trace::parse(t, v).unwrap()).collect()
    }

    #[test]
    fn mines_with_default_learner() {
        let mut v = Vocab::new();
        let ts = traces(&["open(X) close(X)", "open(X) read(X) close(X)"], &mut v);
        let fa = BackEnd::default().mine(&ts);
        for t in &ts {
            assert!(fa.accepts(t));
        }
    }

    #[test]
    fn coring_drops_the_rare_error() {
        let mut v = Vocab::new();
        // Nine good traces, one erroneous.
        let mut ts = Vec::new();
        for _ in 0..9 {
            ts.push(Trace::parse("open(X) close(X)", &mut v).unwrap());
        }
        ts.push(Trace::parse("open(X) leak_marker(X)", &mut v).unwrap());
        let be = BackEnd {
            learner: SkStrings {
                k: 3,
                s_percent: 100.0,
            },
            coring_threshold: Some(3),
        };
        let fa = be.mine(&ts);
        assert!(fa.accepts(&ts[0]));
        assert!(!fa.accepts(&ts[9]), "cored away");
    }

    #[test]
    fn mine_set_matches_mine() {
        let mut v = Vocab::new();
        let ts = traces(&["a(X)", "a(X) b(X)"], &mut v);
        let set: TraceSet = ts.iter().cloned().collect();
        let be = BackEnd::default();
        assert!(be.mine(&ts).equivalent(&be.mine_set(&set)));
    }
}
