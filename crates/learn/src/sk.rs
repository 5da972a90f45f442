//! The sk-strings learner of Raman & Patrick.
//!
//! Starting from the PTA, repeatedly merge pairs of states whose
//! *stochastic k-strings* agree: the top `s`% most probable strings of
//! length ≤ `k` producible from one state must all be producible from the
//! other, and vice versa (the "AND" acceptance criterion). Merging stops
//! at a fixpoint.
//!
//! Larger `k` and `s` make finer distinctions (less merging, bigger FA);
//! the paper exploits exactly this dial when choosing reference FAs for
//! clustering (§2.1 step 1b).

use crate::counted::CountedFa;
use crate::pta::Pta;
use cable_fa::{EventPat, Fa};
use cable_trace::Trace;
use std::collections::{BTreeSet, HashMap, HashSet};

/// Configuration of the sk-strings learner.
///
/// # Examples
///
/// ```
/// use cable_learn::SkStrings;
/// let fine = SkStrings { k: 3, s_percent: 100.0 };
/// let coarse = SkStrings::default(); // k = 2, s = 50%
/// assert!(fine.k > coarse.k);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SkStrings {
    /// Maximum string length considered.
    pub k: usize,
    /// Probability mass (0–100] that the compared string sets must cover.
    pub s_percent: f64,
}

impl Default for SkStrings {
    /// `k = 2`, `s = 50%` — a mid-granularity setting that merges loop
    /// bodies but keeps call-order distinctions.
    fn default() -> Self {
        SkStrings {
            k: 2,
            s_percent: 50.0,
        }
    }
}

/// The work one sk-strings run did, for the `learn.sk.*` counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SkWork {
    /// State pairs merged.
    pub merges: u64,
    /// Level-`k` distributions recomputed after a merge, summed over
    /// merges: the states that reach the kept state within `k` steps.
    pub recomputed_states: u64,
    /// Rounds that found no two equal top sets and ran the pairwise
    /// subset scan (the last, pair-less round included).
    pub subset_scans: u64,
}

impl SkStrings {
    /// Learns an automaton from traces, returning the merged
    /// counted automaton (with frequencies, for coring).
    ///
    /// Agglomerative merging to a fixpoint: each round merges the first
    /// equivalent pair of states, where "first" is in state order.
    pub fn learn_counted(&self, traces: &[Trace]) -> CountedFa {
        self.learn_counted_with_work(traces).0
    }

    /// [`SkStrings::learn_counted`], also returning the work it did.
    ///
    /// The merger updates its state incrementally: states keep their
    /// prefix-tree ids (a merged state is marked dead, and the kept
    /// state is always the lower id, so live ids stay in renumbered
    /// order), and a merge recomputes only the distributions it can
    /// change. The result equals that of the rebuild-every-round
    /// [`crate::reference`] learner, transition order and counts
    /// included.
    pub fn learn_counted_with_work(&self, traces: &[Trace]) -> (CountedFa, SkWork) {
        let mut merger = Merger::new(self, &Pta::build(traces).to_counted());
        while let Some((keep, drop)) = merger.equivalent_pair() {
            merger.merge(keep, drop);
        }
        (merger.to_counted(), merger.work)
    }

    /// Learns an automaton from traces.
    pub fn learn(&self, traces: &[Trace]) -> Fa {
        self.learn_counted(traces).to_fa()
    }
}

/// A `k`-string over interned labels (label ids are numbered in
/// [`EventPat`] order, so comparing strings compares their patterns).
type KString = Vec<u32>;

/// A state's distribution over `k`-strings.
type Dist = HashMap<KString, f64>;

/// A transition, identified by its prefix-tree index; a collapsed
/// parallel edge keeps the lowest index and the summed count.
struct Edge {
    src: usize,
    label: u32,
    dst: usize,
    count: u64,
}

/// The incremental sk-strings merger.
///
/// After `drop` merges into `keep`, a level-`j` distribution can change
/// only at states that reach `keep` within `j` steps, so only those are
/// recomputed, with the float operations of [`CountedFa::k_strings`] in
/// its order. Not `j - 1` steps: where a predecessor's edges to `keep`
/// and `drop` collapse into one, the summed probability can round
/// differently, and states `j` steps from `keep` see that. Only the
/// recomputed states move between the buckets of equal top sets.
struct Merger {
    k: usize,
    s_percent: f64,
    labels: Vec<EventPat>,
    edges: Vec<Edge>,
    /// Live outgoing edge ids per state, ascending.
    out: Vec<Vec<usize>>,
    /// Live incoming edge ids per state.
    inc: Vec<Vec<usize>>,
    accept: Vec<u64>,
    live: Vec<bool>,
    /// `dists[s][j]`: the level-`j` distribution of state `s`.
    dists: Vec<Vec<Dist>>,
    /// The sorted top set of each state's level-`k` distribution.
    tops: Vec<Vec<KString>>,
    /// States by top set.
    buckets: HashMap<Vec<KString>, BTreeSet<usize>>,
    /// `(second, first)` ids of every bucket with two or more members.
    pairs: BTreeSet<(usize, usize)>,
    work: SkWork,
}

impl Merger {
    fn new(sk: &SkStrings, fa: &CountedFa) -> Merger {
        let n = fa.state_count();
        let mut labels: Vec<EventPat> = fa.transitions().iter().map(|t| t.1.clone()).collect();
        labels.sort();
        labels.dedup();
        let mut merger = Merger {
            k: sk.k,
            s_percent: sk.s_percent,
            edges: Vec::with_capacity(fa.transition_count()),
            out: vec![Vec::new(); n],
            inc: vec![Vec::new(); n],
            accept: (0..n).map(|s| fa.accept_count(s)).collect(),
            live: vec![true; n],
            dists: vec![vec![Dist::new(); sk.k + 1]; n],
            tops: vec![Vec::new(); n],
            buckets: HashMap::new(),
            pairs: BTreeSet::new(),
            work: SkWork::default(),
            labels,
        };
        for (id, (src, pat, dst, count)) in fa.transitions().iter().enumerate() {
            let label = merger.labels.binary_search(pat).expect("interned label") as u32;
            merger.edges.push(Edge {
                src: *src,
                label,
                dst: *dst,
                count: *count,
            });
            merger.out[*src].push(id);
            merger.inc[*dst].push(id);
        }
        for j in 0..=sk.k {
            for s in 0..n {
                merger.dists[s][j] = merger.dist(s, j);
            }
        }
        for s in 0..n {
            let top = merger.top_set(s);
            merger.join(s, top);
        }
        merger
    }

    /// The level-`j` distribution of `s` from the level-`j - 1`
    /// distributions of its successors: [`CountedFa::k_strings`]'s
    /// arithmetic, in its order (stop probability first, then outgoing
    /// transitions by id).
    fn dist(&self, s: usize, j: usize) -> Dist {
        let total = self.accept[s]
            + self.out[s]
                .iter()
                .map(|&e| self.edges[e].count)
                .sum::<u64>();
        let mut dist = Dist::new();
        if total == 0 {
            dist.insert(Vec::new(), 1.0);
            return dist;
        }
        let stop_p = self.accept[s] as f64 / total as f64;
        if stop_p > 0.0 {
            dist.insert(Vec::new(), stop_p);
        }
        if j > 0 {
            for &e in &self.out[s] {
                let edge = &self.edges[e];
                let p = edge.count as f64 / total as f64;
                for (string, sp) in &self.dists[edge.dst][j - 1] {
                    let mut key = Vec::with_capacity(string.len() + 1);
                    key.push(edge.label);
                    key.extend_from_slice(string);
                    *dist.entry(key).or_insert(0.0) += p * sp;
                }
            }
        } else {
            *dist.entry(Vec::new()).or_insert(0.0) += 1.0 - stop_p;
        }
        dist
    }

    /// The sorted top set of `s`: the smallest probability-sorted prefix
    /// of its level-`k` distribution covering `s_percent`/100 of the
    /// mass.
    fn top_set(&self, s: usize) -> Vec<KString> {
        let mut entries: Vec<(&KString, f64)> =
            self.dists[s][self.k].iter().map(|(k, &v)| (k, v)).collect();
        entries.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .expect("probabilities are not NaN")
                .then_with(|| a.0.cmp(b.0))
        });
        let threshold = self.s_percent / 100.0;
        let mut cum = 0.0;
        let mut top = Vec::new();
        for (string, p) in entries {
            top.push(string.clone());
            cum += p;
            if cum >= threshold {
                break;
            }
        }
        top.sort();
        top
    }

    /// The next pair to merge, as `(keep, drop)`. Equal top sets come
    /// first: the bucket whose second-smallest id is least, paired with
    /// its smallest id. Only when no bucket has two members does the
    /// pairwise scan look for mutually producible top sets.
    fn equivalent_pair(&mut self) -> Option<(usize, usize)> {
        if let Some(&(second, first)) = self.pairs.first() {
            return Some((first, second));
        }
        self.work.subset_scans += 1;
        let live: Vec<usize> = (0..self.live.len()).filter(|&s| self.live[s]).collect();
        let producible = |a: usize, b: usize| {
            self.tops[a]
                .iter()
                .all(|string| self.dists[b][self.k].contains_key(string))
        };
        for (i, &a) in live.iter().enumerate() {
            for &b in &live[i + 1..] {
                if producible(a, b) && producible(b, a) {
                    return Some((a, b));
                }
            }
        }
        None
    }

    /// Merges `drop` into `keep` (`keep < drop`), collapses the parallel
    /// edges this creates, and recomputes what the merge can change.
    fn merge(&mut self, keep: usize, drop: usize) {
        self.work.merges += 1;
        self.leave(drop);
        self.live[drop] = false;
        self.accept[keep] += self.accept[drop];
        let outgoing = std::mem::take(&mut self.out[drop]);
        for &e in &outgoing {
            self.edges[e].src = keep;
        }
        let incoming = std::mem::take(&mut self.inc[drop]);
        for &e in &incoming {
            self.edges[e].dst = keep;
        }
        self.out[keep].extend(outgoing);
        self.out[keep].sort_unstable();
        let mut sources: Vec<usize> = incoming.iter().map(|&e| self.edges[e].src).collect();
        self.inc[keep].extend(incoming);
        sources.push(keep);
        sources.sort_unstable();
        sources.dedup();
        for src in sources {
            self.collapse(src);
        }
        self.recompute_around(keep);
    }

    /// Folds each outgoing edge of `src` into the lowest-id edge with
    /// the same label and destination.
    fn collapse(&mut self, src: usize) {
        let out = std::mem::take(&mut self.out[src]);
        let mut kept: Vec<usize> = Vec::with_capacity(out.len());
        for e in out {
            let (label, dst, count) = (self.edges[e].label, self.edges[e].dst, self.edges[e].count);
            match kept
                .iter()
                .find(|&&k| self.edges[k].label == label && self.edges[k].dst == dst)
            {
                Some(&k) => {
                    self.edges[k].count += count;
                    self.inc[dst].retain(|&i| i != e);
                }
                None => kept.push(e),
            }
        }
        self.out[src] = kept;
    }

    /// Recomputes, level by level, the level-`j` distribution of every
    /// state within `j` backward steps of `keep`, then re-buckets the
    /// states whose level-`k` distribution was recomputed.
    fn recompute_around(&mut self, keep: usize) {
        let mut seen = HashSet::from([keep]);
        let mut layers = vec![vec![keep]];
        for d in 1..=self.k {
            let mut next = Vec::new();
            for &s in &layers[d - 1] {
                for &e in &self.inc[s] {
                    let src = self.edges[e].src;
                    if seen.insert(src) {
                        next.push(src);
                    }
                }
            }
            layers.push(next);
        }
        for j in 0..=self.k {
            for &s in layers[..=j].iter().flatten() {
                self.dists[s][j] = self.dist(s, j);
            }
        }
        self.work.recomputed_states += seen.len() as u64;
        for &s in layers.iter().flatten() {
            let top = self.top_set(s);
            if top != self.tops[s] {
                self.leave(s);
                self.join(s, top);
            }
        }
    }

    /// Puts `s` into the bucket of `top`.
    fn join(&mut self, s: usize, top: Vec<KString>) {
        let members = self.buckets.entry(top.clone()).or_default();
        if let Some(pair) = candidate(members) {
            self.pairs.remove(&pair);
        }
        members.insert(s);
        self.pairs.extend(candidate(members));
        self.tops[s] = top;
    }

    /// Takes `s` out of its bucket.
    fn leave(&mut self, s: usize) {
        let members = self
            .buckets
            .get_mut(&self.tops[s])
            .expect("every live state is bucketed");
        if let Some(pair) = candidate(members) {
            self.pairs.remove(&pair);
        }
        members.remove(&s);
        self.pairs.extend(candidate(members));
        if members.is_empty() {
            self.buckets.remove(&self.tops[s]);
        }
    }

    /// The merged automaton, live states renumbered in id order and
    /// transitions in id order.
    fn to_counted(&self) -> CountedFa {
        let mut rank = vec![usize::MAX; self.live.len()];
        let live: Vec<usize> = (0..self.live.len()).filter(|&s| self.live[s]).collect();
        for (r, &s) in live.iter().enumerate() {
            rank[s] = r;
        }
        let mut ids: Vec<usize> = live
            .iter()
            .flat_map(|&s| self.out[s].iter().copied())
            .collect();
        ids.sort_unstable();
        let transitions = ids
            .into_iter()
            .map(|e| {
                let edge = &self.edges[e];
                (
                    rank[edge.src],
                    self.labels[edge.label as usize].clone(),
                    rank[edge.dst],
                    edge.count,
                )
            })
            .collect();
        let accept = live.iter().map(|&s| self.accept[s]).collect();
        CountedFa::new(live.len(), rank[0], transitions, accept)
    }
}

/// A bucket's merge candidate as `(second, first)` of its ids, if it
/// has two members.
fn candidate(members: &BTreeSet<usize>) -> Option<(usize, usize)> {
    let mut ids = members.iter().copied();
    let first = ids.next()?;
    Some((ids.next()?, first))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cable_trace::{Trace, Vocab};

    fn traces(texts: &[&str], v: &mut Vocab) -> Vec<Trace> {
        texts.iter().map(|t| Trace::parse(t, v).unwrap()).collect()
    }

    #[test]
    fn learns_a_loop() {
        let mut v = Vocab::new();
        let ts = traces(
            &[
                "open(X) close(X)",
                "open(X) read(X) close(X)",
                "open(X) read(X) read(X) close(X)",
            ],
            &mut v,
        );
        let fa = SkStrings::default().learn(&ts);
        // Training traces still accepted.
        for t in &ts {
            assert!(fa.accepts(t), "training trace rejected");
        }
        // Generalisation: more reads.
        let more =
            Trace::parse("open(X) read(X) read(X) read(X) read(X) close(X)", &mut v).unwrap();
        assert!(fa.accepts(&more));
        // But not garbage.
        let garbage = Trace::parse("read(X) open(X)", &mut v).unwrap();
        assert!(!fa.accepts(&garbage));
        // And the FA is smaller than the PTA (7 nodes).
        assert!(fa.state_count() < 7);
    }

    #[test]
    fn full_s_and_large_k_learn_exactly_on_distinct_traces() {
        let mut v = Vocab::new();
        let ts = traces(&["a(X) b(X)", "c(X) d(X)"], &mut v);
        let fa = SkStrings {
            k: 4,
            s_percent: 100.0,
        }
        .learn(&ts);
        for t in &ts {
            assert!(fa.accepts(t));
        }
        // No cross-contamination between the two branches.
        assert!(!fa.accepts(&Trace::parse("a(X) d(X)", &mut v).unwrap()));
        assert!(!fa.accepts(&Trace::parse("c(X) b(X)", &mut v).unwrap()));
    }

    #[test]
    fn merges_identical_suffixes() {
        let mut v = Vocab::new();
        let ts = traces(&["a(X) z(X)", "b(X) z(X)"], &mut v);
        let fa = SkStrings {
            k: 2,
            s_percent: 100.0,
        }
        .learn(&ts);
        // The two post-a / post-b states have identical k-strings {z}, so
        // they merge: 4 states instead of the PTA's 5.
        assert!(fa.state_count() <= 4);
        for t in &ts {
            assert!(fa.accepts(t));
        }
    }

    #[test]
    fn empty_training_set() {
        let fa = SkStrings::default().learn(&[]);
        assert_eq!(fa.state_count(), 1);
        assert!(!fa.accepts(&Trace::empty()));
    }

    #[test]
    fn single_trace_stays_linear() {
        let mut v = Vocab::new();
        let ts = traces(&["a(X) b(X) c(X)"], &mut v);
        let fa = SkStrings::default().learn(&ts);
        assert!(fa.accepts(&ts[0]));
        assert!(!fa.accepts(&Trace::parse("a(X) b(X)", &mut v).unwrap()));
    }
}
