//! Deterministic per-labeler workloads.
//!
//! Each labeler is a seeded stream ([`cable_util::rng::stream`]): the
//! traces it synthesises and the op mix it draws depend only on
//! `(seed, labeler index)` — never on timing, thread scheduling, or
//! what other labelers do. Trace text uses the grammar the parser
//! accepts (`fopen(#7)`-style events with `#N` object ids), with
//! object ids fresh per labeler so ingest batches never collide.
//!
//! Ops whose *payload* depends on server state (which concept to
//! label or focus on) resolve that choice at issue time from the
//! concept count the server reported — a pure function of the traces
//! ingested so far, hence still deterministic. The resolved op is what
//! lands in the run's step log, so a replay needs no re-resolution.

use cable_util::rng::{self, Rng, SmallRng};

/// One resolved request against a labeler's session, after the
/// mandatory opening `POST /api/sessions`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// `POST …/ingest` with this trace text.
    Ingest {
        /// Trace text, one trace per line.
        traces: String,
    },
    /// `POST …/label` on concept `cN`.
    Label {
        /// The concept index (`cN`).
        concept: usize,
        /// `all` or `unlabeled` (the `with:` selector is exercised by
        /// the API tests; the driver sticks to replayable ones).
        selector: &'static str,
        /// The label name to apply.
        label: &'static str,
    },
    /// `GET …/lattice`.
    Lattice,
    /// `GET …/concepts`.
    Concepts,
    /// `GET …/focus?concept=cN` on the lattice top (always nonempty).
    Focus,
    /// `GET …/digest`.
    Digest,
}

/// The op-mix weights, in [`Op`] declaration order (ingest, label,
/// lattice, concepts, focus, digest). Mutations dominate — they are
/// the ops that exercise journaling, eviction, and the determinism
/// property — with enough reads mixed in to keep the cache honest.
const WEIGHTS: [f64; 6] = [40.0, 20.0, 15.0, 10.0, 10.0, 5.0];

/// The labels a labeler applies, drawn uniformly.
const LABELS: [&str; 3] = ["good", "bad", "leak"];

/// One simulated labeler's deterministic op stream.
#[derive(Debug, Clone)]
pub struct Labeler {
    rng: SmallRng,
    next_obj: u32,
}

impl Labeler {
    /// The labeler for stream `index` of `seed`.
    pub fn new(seed: u64, index: u64) -> Labeler {
        Labeler {
            rng: rng::stream(seed, index),
            next_obj: 1,
        }
    }

    /// One synthetic trace over a fresh object id: an open, a few
    /// reads or a write, and (usually) a close — the file-handle
    /// vocabulary of the paper's running example, with enough shape
    /// variety to keep the lattice non-trivial.
    fn trace(&mut self) -> String {
        let obj = self.next_obj;
        self.next_obj += 1;
        let mut text = format!("fopen(#{obj})");
        if self.rng.gen_bool(0.3) {
            text.push_str(&format!(" fwrite(#{obj})"));
        } else {
            for _ in 0..self.rng.gen_range(1usize..=3) {
                text.push_str(&format!(" fread(#{obj})"));
            }
        }
        // Every fifth trace or so leaks the handle.
        if !self.rng.gen_bool(0.2) {
            text.push_str(&format!(" fclose(#{obj})"));
        }
        text
    }

    fn traces(&mut self, n: usize) -> String {
        let mut out = String::new();
        for _ in 0..n {
            out.push_str(&self.trace());
            out.push('\n');
        }
        out
    }

    /// The trace corpus the labeler opens its session with.
    pub fn seed_traces(&mut self) -> String {
        let n = self.rng.gen_range(3usize..=5);
        self.traces(n)
    }

    /// The next op, resolved against the current concept count (as
    /// reported by the server on create/ingest).
    pub fn next_op(&mut self, concepts: usize) -> Op {
        match rng::weighted_index(&WEIGHTS, &mut self.rng).expect("static weights") {
            0 => {
                let n = self.rng.gen_range(1usize..=3);
                Op::Ingest {
                    traces: self.traces(n),
                }
            }
            1 => Op::Label {
                concept: self.rng.gen_range(0..concepts.max(1)),
                selector: if self.rng.gen_bool(0.75) {
                    "unlabeled"
                } else {
                    "all"
                },
                label: LABELS[self.rng.gen_range(0..LABELS.len())],
            },
            2 => Op::Lattice,
            3 => Op::Concepts,
            4 => Op::Focus,
            _ => Op::Digest,
        }
    }
}

impl Op {
    /// Whether the op mutates session state (and so must appear in the
    /// step log a replay applies).
    pub fn mutates(&self) -> bool {
        matches!(self, Op::Ingest { .. } | Op::Label { .. })
    }

    /// The `label` script line for a label op, in the exact syntax
    /// `cable label --store DIR --script FILE` parses.
    pub fn script_line(&self) -> Option<String> {
        match self {
            Op::Label {
                concept,
                selector,
                label,
            } => Some(format!("label c{concept} {selector} {label}\n")),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_replayable_and_distinct() {
        let mut a = Labeler::new(42, 3);
        let mut b = Labeler::new(42, 3);
        assert_eq!(a.seed_traces(), b.seed_traces());
        for _ in 0..50 {
            assert_eq!(a.next_op(7), b.next_op(7));
        }
        let mut c = Labeler::new(42, 4);
        assert_ne!(a.seed_traces(), c.seed_traces());
    }

    #[test]
    fn traces_use_the_parser_grammar() {
        let mut l = Labeler::new(7, 0);
        let text = l.seed_traces();
        for line in text.lines() {
            for event in line.split_whitespace() {
                let (op, rest) = event.split_once('(').unwrap();
                assert!(matches!(op, "fopen" | "fread" | "fwrite" | "fclose"));
                assert!(rest.starts_with('#') && rest.ends_with(')'));
            }
        }
    }

    #[test]
    fn label_ops_stay_in_bounds_and_render_scripts() {
        let mut l = Labeler::new(9, 1);
        let mut saw_label = false;
        for _ in 0..200 {
            let op = l.next_op(5);
            if let Op::Label { concept, .. } = op {
                assert!(concept < 5);
                saw_label = true;
                let line = op.script_line().unwrap();
                assert!(line.starts_with(&format!("label c{concept} ")));
                assert!(op.mutates());
            }
        }
        assert!(saw_label, "label ops should appear in 200 draws");
    }

    #[test]
    fn object_ids_never_repeat_within_a_labeler() {
        let mut l = Labeler::new(11, 2);
        let mut seen = std::collections::HashSet::new();
        let mut all = l.seed_traces();
        for _ in 0..20 {
            if let Op::Ingest { traces } = l.next_op(3) {
                all.push_str(&traces);
            }
        }
        for line in all.lines() {
            let obj = line
                .split_once("(#")
                .and_then(|(_, rest)| rest.split_once(')'))
                .unwrap()
                .0
                .to_string();
            assert!(seen.insert(obj), "object id reused across traces");
        }
    }
}
