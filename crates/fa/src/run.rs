//! Running traces on automata: acceptance and the executed-transition
//! relation.
//!
//! §3.2 of the paper: let `AS(o)` be the set of accepting transition
//! sequences for trace `o`. The context relation is
//! `R = {(o, a) | ∃ s ∈ AS(o). a appears in s}` — transition `a` *can be
//! executed* while accepting `o`. We compute, for each trace, the set of
//! such transitions with a forward/backward reachability sweep:
//!
//! * `fwd[i]` — states reachable from a start state by consuming
//!   `o[0..i]`,
//! * `bwd[i]` — states from which an accepting state is reachable by
//!   consuming `o[i..]`,
//! * transition `(s, ℓ, d)` is executed at position `i` iff `ℓ` matches
//!   `o[i]`, `s ∈ fwd[i]`, and `d ∈ bwd[i+1]`.
//!
//! This is `O(|o| · |δ|)` per trace and needs no enumeration of the
//! (possibly exponential) accepting-sequence set.

use crate::fa::{Fa, StateId};
use cable_obs::{CounterHandle, HistogramHandle, Span};
use cable_trace::Trace;
use cable_util::BitSet;

/// Executed-transition relation computations (one per trace).
static EXECUTED_CALLS: CounterHandle = CounterHandle::new("fa.executed.calls");
/// Events consumed across all executed-transition sweeps.
static EXECUTED_EVENTS: CounterHandle = CounterHandle::new("fa.executed.events");
/// Acceptance runs.
static ACCEPT_CALLS: CounterHandle = CounterHandle::new("fa.accepts.calls");
/// Wall-clock cost of executed-transition sweeps.
static EXECUTED_NS: HistogramHandle = HistogramHandle::new("fa.executed.sweep_ns");

impl Fa {
    /// Tests whether the automaton accepts the trace.
    ///
    /// # Examples
    ///
    /// ```
    /// use cable_fa::templates;
    /// use cable_trace::{Trace, Vocab};
    ///
    /// let mut v = Vocab::new();
    /// let t = Trace::parse("a(X) b(X)", &mut v).unwrap();
    /// let fa = templates::unordered_of_trace_events(std::slice::from_ref(&t));
    /// assert!(fa.accepts(&t));
    /// ```
    pub fn accepts(&self, trace: &Trace) -> bool {
        ACCEPT_CALLS.get().incr();
        let mut current = self.start_states().clone();
        for event in trace.iter() {
            let mut next = BitSet::with_capacity(self.state_count());
            for s in current.iter() {
                for &tid in self.outgoing(StateId(s as u32)) {
                    let t = self.transition(tid);
                    if t.label.matches(event) {
                        next.insert(t.dst.index());
                    }
                }
            }
            current = next;
            if current.is_empty() {
                return false;
            }
        }
        !current.is_disjoint(self.accept_states())
    }

    /// Forward state sets: `fwd[i]` is the set of states reachable from a
    /// start state by consuming the first `i` events. Has length
    /// `trace.len() + 1`.
    pub fn forward_sets(&self, trace: &Trace) -> Vec<BitSet> {
        let mut sets = Vec::with_capacity(trace.len() + 1);
        sets.push(self.start_states().clone());
        for event in trace.iter() {
            let mut next = BitSet::with_capacity(self.state_count());
            for s in sets.last().expect("nonempty").iter() {
                for &tid in self.outgoing(StateId(s as u32)) {
                    let t = self.transition(tid);
                    if t.label.matches(event) {
                        next.insert(t.dst.index());
                    }
                }
            }
            sets.push(next);
        }
        sets
    }

    /// Backward state sets: `bwd[i]` is the set of states from which an
    /// accepting state is reachable by consuming events `i..`. Has length
    /// `trace.len() + 1`.
    pub fn backward_sets(&self, trace: &Trace) -> Vec<BitSet> {
        let mut sets = vec![BitSet::new(); trace.len() + 1];
        sets[trace.len()] = self.accept_states().clone();
        for i in (0..trace.len()).rev() {
            let event = &trace.events()[i];
            let mut prev = BitSet::with_capacity(self.state_count());
            for t in self.transitions() {
                if sets[i + 1].contains(t.dst.index()) && t.label.matches(event) {
                    prev.insert(t.src.index());
                }
            }
            sets[i] = prev;
        }
        sets
    }

    /// The set of transition ids that appear on **some** accepting
    /// sequence for the trace (the paper's relation `R`, §3.2).
    ///
    /// Returns the empty set when the automaton does not accept the trace
    /// (there are no accepting sequences).
    pub fn executed_transitions(&self, trace: &Trace) -> BitSet {
        let _span = Span::enter("fa.executed.sweep", &EXECUTED_NS);
        EXECUTED_CALLS.get().incr();
        EXECUTED_EVENTS.get().add(trace.len() as u64);
        let fwd = self.forward_sets(trace);
        let bwd = self.backward_sets(trace);
        let mut executed = BitSet::with_capacity(self.transition_count());
        // An empty trace executes no transitions even when accepted.
        for (i, event) in trace.iter().enumerate() {
            for (tid, t) in self.transitions().iter().enumerate() {
                if !executed.contains(tid)
                    && t.label.matches(event)
                    && fwd[i].contains(t.src.index())
                    && bwd[i + 1].contains(t.dst.index())
                {
                    executed.insert(tid);
                }
            }
        }
        executed
    }

    /// [`executed_transitions`](Fa::executed_transitions) for a batch of
    /// traces, swept in parallel on the [`cable_par`] pool.
    ///
    /// The result is index-ordered — `out[i]` is the relation for
    /// `traces[i]` — and bit-for-bit identical to mapping the sequential
    /// method over the slice, whatever the pool size. If one sweep
    /// panics, the pool poisons this batch's job and the other chunks
    /// stop before their next trace.
    pub fn executed_transitions_batch(&self, traces: &[&Trace]) -> Vec<BitSet> {
        cable_par::par_map("fa.executed", traces, |t| self.executed_transitions(t))
    }

    /// [`executed_transitions_batch`](Fa::executed_transitions_batch)
    /// under the calling thread's `cable-guard` budget: with a budget
    /// installed the traces are swept sequentially on this thread with a
    /// checkpoint before each one, so a trip returns the relations of the
    /// already-swept prefix — index-exact, identical across `CABLE_PAR`
    /// settings. With no budget this is the parallel batch sweep.
    ///
    /// # Errors
    ///
    /// A [`SweepStop`] carrying the typed error and the prefix of
    /// relations swept before the trip.
    pub fn try_executed_transitions_batch(
        &self,
        traces: &[&Trace],
    ) -> Result<Vec<BitSet>, Box<SweepStop>> {
        if !cable_guard::budget_active() {
            return Ok(self.executed_transitions_batch(traces));
        }
        let mut out = Vec::with_capacity(traces.len());
        for (i, t) in traces.iter().enumerate() {
            if let Err(error) = cable_guard::checkpoint("fa.executed.sweep") {
                return Err(Box::new(SweepStop {
                    error,
                    partial: out,
                    traces_swept: i,
                }));
            }
            out.push(self.executed_transitions(t));
        }
        Ok(out)
    }
}

/// A budget-stopped [`Fa::try_executed_transitions_batch`]: the typed
/// error plus the relations of the traces swept before the trip
/// (`partial.len() == traces_swept`, aligned with the input prefix).
#[derive(Debug)]
pub struct SweepStop {
    /// Why the sweep stopped.
    pub error: cable_guard::GuardError,
    /// Relations for the first [`SweepStop::traces_swept`] traces.
    pub partial: Vec<BitSet>,
    /// How many leading traces were fully swept.
    pub traces_swept: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FaBuilder;
    use cable_trace::Vocab;

    /// The stdio example of Figure 1 (buggy: fclose closes both kinds).
    fn stdio_fa(v: &mut Vocab) -> Fa {
        let mut b = FaBuilder::new();
        let s0 = b.state();
        let s1 = b.state();
        let s2 = b.state();
        b.start(s0).accept(s2);
        b.event_var(s0, "fopen", s1, v);
        b.event_var(s0, "popen", s1, v);
        b.event_var(s1, "fread", s1, v);
        b.event_var(s1, "fwrite", s1, v);
        b.event_var(s1, "fclose", s2, v);
        b.build()
    }

    #[test]
    fn accepts_and_rejects() {
        let mut v = Vocab::new();
        let fa = stdio_fa(&mut v);
        let ok = Trace::parse("fopen(X) fread(X) fwrite(X) fclose(X)", &mut v).unwrap();
        let ok2 = Trace::parse("popen(X) fclose(X)", &mut v).unwrap();
        let bad = Trace::parse("fopen(X) fread(X)", &mut v).unwrap();
        let bad2 = Trace::parse("fclose(X)", &mut v).unwrap();
        assert!(fa.accepts(&ok));
        assert!(fa.accepts(&ok2), "the Figure 1 bug: popen …fclose accepted");
        assert!(!fa.accepts(&bad));
        assert!(!fa.accepts(&bad2));
    }

    #[test]
    fn executed_transitions_exact() {
        let mut v = Vocab::new();
        let fa = stdio_fa(&mut v);
        // Transitions: 0 fopen, 1 popen, 2 fread, 3 fwrite, 4 fclose.
        let t = Trace::parse("fopen(X) fread(X) fclose(X)", &mut v).unwrap();
        assert_eq!(fa.executed_transitions(&t).to_vec(), vec![0, 2, 4]);
        let u = Trace::parse("popen(X) fclose(X)", &mut v).unwrap();
        assert_eq!(fa.executed_transitions(&u).to_vec(), vec![1, 4]);
    }

    #[test]
    fn rejected_trace_executes_nothing() {
        let mut v = Vocab::new();
        let fa = stdio_fa(&mut v);
        let t = Trace::parse("fopen(X) fread(X)", &mut v).unwrap();
        assert!(fa.executed_transitions(&t).is_empty());
    }

    #[test]
    fn empty_trace() {
        let mut v = Vocab::new();
        let fa = stdio_fa(&mut v);
        let t = Trace::empty();
        assert!(!fa.accepts(&t), "start is not accepting here");
        assert!(fa.executed_transitions(&t).is_empty());
        let mut b = FaBuilder::new();
        let s = b.state();
        b.start(s).accept(s);
        b.event_var(s, "f", s, &mut v);
        let loop_fa = b.build();
        assert!(loop_fa.accepts(&t));
        assert!(loop_fa.executed_transitions(&t).is_empty());
    }

    #[test]
    fn nondeterminism_unions_paths() {
        // Two parallel paths accepting the same trace: both executed.
        let mut v = Vocab::new();
        let mut b = FaBuilder::new();
        let s0 = b.state();
        let a1 = b.state();
        let a2 = b.state();
        b.start(s0).accept(a1).accept(a2);
        b.event_var(s0, "f", a1, &mut v);
        b.event_var(s0, "f", a2, &mut v);
        let fa = b.build();
        let t = Trace::parse("f(X)", &mut v).unwrap();
        assert_eq!(fa.executed_transitions(&t).len(), 2);
    }

    #[test]
    fn dead_end_transitions_not_executed() {
        // A transition matching the event but leading to a dead end is not
        // on any accepting sequence.
        let mut v = Vocab::new();
        let mut b = FaBuilder::new();
        let s0 = b.state();
        let dead = b.state();
        let acc = b.state();
        b.start(s0).accept(acc);
        b.event_var(s0, "f", dead, &mut v); // tid 0: dead end
        b.event_var(s0, "f", acc, &mut v); // tid 1: accepting
        let fa = b.build();
        let t = Trace::parse("f(X)", &mut v).unwrap();
        assert_eq!(fa.executed_transitions(&t).to_vec(), vec![1]);
    }

    #[test]
    fn batch_matches_per_trace_sweeps() {
        let mut v = Vocab::new();
        let fa = stdio_fa(&mut v);
        let traces: Vec<Trace> = [
            "fopen(X) fread(X) fclose(X)",
            "popen(X) fclose(X)",
            "fopen(X) fread(X)",
            "fopen(X) fwrite(X) fclose(X)",
        ]
        .iter()
        .map(|s| Trace::parse(s, &mut v).unwrap())
        .collect();
        let refs: Vec<&Trace> = traces.iter().collect();
        let batch = fa.executed_transitions_batch(&refs);
        let sequential: Vec<_> = traces.iter().map(|t| fa.executed_transitions(t)).collect();
        assert_eq!(batch, sequential);
    }

    #[test]
    fn forward_backward_shapes() {
        let mut v = Vocab::new();
        let fa = stdio_fa(&mut v);
        let t = Trace::parse("fopen(X) fclose(X)", &mut v).unwrap();
        let fwd = fa.forward_sets(&t);
        let bwd = fa.backward_sets(&t);
        assert_eq!(fwd.len(), 3);
        assert_eq!(bwd.len(), 3);
        assert_eq!(fwd[0], fa.start_states().clone());
        assert_eq!(bwd[2], fa.accept_states().clone());
        assert!(!fwd[2].is_disjoint(fa.accept_states()));
    }
}
