//! The rebuild-every-round sk-strings learner, kept as the oracle the
//! incremental learner of [`crate::sk`] is tested against.
//!
//! Each round recomputes every state's `k`-string distribution with a
//! shared memo, re-sorts and re-hashes every top set, merges the first
//! equivalent pair, and renumbers the whole automaton. It makes the same
//! merges in the same order as [`SkStrings::learn_counted`] and returns
//! an equal [`CountedFa`]; only tests call it.

use crate::counted::CountedFa;
use crate::pta::Pta;
use crate::sk::SkStrings;
use cable_trace::Trace;
use std::collections::HashSet;

/// Learns the counted automaton [`SkStrings::learn_counted`] learns, by
/// recomputing everything each round.
///
/// Agglomerative merging to a fixpoint: each round computes every
/// state's `k`-string distribution with a shared memo, merges the first
/// equivalent pair, and restarts (indices shift after renumbering).
pub fn learn_counted(sk: &SkStrings, traces: &[Trace]) -> CountedFa {
    let mut fa = Pta::build(traces).to_counted();
    while let Some((a, b)) = find_equivalent_pair(sk, &fa) {
        fa = fa.merge(a, b);
    }
    fa
}

/// Finds a pair of states whose top-`s`% `k`-strings are mutually
/// producible (the "AND" acceptance criterion). Prefers pairs with
/// *equal* top sets (found via hash buckets); falls back to a full
/// pairwise subset scan.
fn find_equivalent_pair(sk: &SkStrings, fa: &CountedFa) -> Option<(usize, usize)> {
    let n = fa.state_count();
    let dists = fa.k_strings_all(sk.k);
    let keys: Vec<HashSet<&Vec<cable_fa::EventPat>>> =
        dists.iter().map(|d| d.keys().collect()).collect();
    let tops: Vec<Vec<Vec<cable_fa::EventPat>>> = (0..n)
        .map(|s| top_strings(&dists[s], sk.s_percent))
        .collect();
    // Fast path: equal top sets imply equivalence.
    let mut buckets: std::collections::HashMap<Vec<Vec<cable_fa::EventPat>>, usize> =
        std::collections::HashMap::new();
    for (s, top) in tops.iter().enumerate() {
        let mut sorted = top.clone();
        sorted.sort();
        if let Some(&other) = buckets.get(&sorted) {
            return Some((other, s));
        }
        buckets.insert(sorted, s);
    }
    // Full scan with the asymmetric subset criterion.
    for a in 0..n {
        for b in (a + 1)..n {
            if tops[a].iter().all(|s| keys[b].contains(s))
                && tops[b].iter().all(|s| keys[a].contains(s))
            {
                return Some((a, b));
            }
        }
    }
    None
}

/// The smallest probability-sorted prefix of the distribution covering
/// `s_percent`/100 of the mass.
fn top_strings(
    dist: &std::collections::HashMap<Vec<cable_fa::EventPat>, f64>,
    s_percent: f64,
) -> Vec<Vec<cable_fa::EventPat>> {
    let mut entries: Vec<(&Vec<cable_fa::EventPat>, f64)> =
        dist.iter().map(|(k, &v)| (k, v)).collect();
    entries.sort_by(|a, b| {
        b.1.partial_cmp(&a.1)
            .expect("probabilities are not NaN")
            .then_with(|| a.0.cmp(b.0))
    });
    let threshold = s_percent / 100.0;
    let mut cum = 0.0;
    let mut out = Vec::new();
    for (string, p) in entries {
        out.push(string.clone());
        cum += p;
        if cum >= threshold {
            break;
        }
    }
    out
}
