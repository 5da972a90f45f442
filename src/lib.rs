//! # Cable
//!
//! A reproduction of *Debugging Temporal Specifications with Concept
//! Analysis* (Ammons, Bodík, Larus, Mandelin — PLDI 2003).
//!
//! This facade crate re-exports the whole workspace so that downstream
//! users can depend on a single crate:
//!
//! * [`trace`] — events, traces, trace sets,
//! * [`fa`] — finite automata over event labels; the executed-transition
//!   relation that defines trace similarity; the completed automaton
//!   algebra (complement, difference, distinguishing witnesses),
//! * [`mutate`] — deterministic, seeded spec mutation deriving buggy
//!   reference FAs from correct ones,
//! * [`fca`] — formal concept analysis (contexts, Godin's incremental
//!   lattice algorithm, NextClosure),
//! * [`learn`] — the prefix-tree acceptor and the sk-strings automaton
//!   learner,
//! * [`workload`] — the synthetic program-trace generator standing in for
//!   the paper's X11 trace corpus,
//! * [`strauss`] — the specification miner (front end + back end),
//! * [`verify`] — the trace-level specification checker producing
//!   violation traces,
//! * [`session`] — Cable itself: concept-lattice-driven labeling sessions
//!   and the labeling strategies of §4.2, plus the labeling service and
//!   the HTTP server behind `cable serve` (`session::server`),
//! * [`specs`] — the seventeen evaluation specifications (Table 1),
//! * [`par`] — the deterministic thread pool the pipeline stages
//!   run on (`CABLE_PAR` / `--threads` control the worker count),
//! * [`store`] — crash-safe persistent session stores (snapshot +
//!   write-ahead journal) behind `CableSession::save`/`open`,
//! * [`guard`] — thread-scoped resource budgets, the panic boundary,
//!   and the deterministic fault-injection plane (`CABLE_FAULTS` /
//!   `--faults`).
//!
//! # Quickstart
//!
//! ```
//! use cable::prelude::*;
//! use cable::trace::Vocab;
//!
//! // The paper's running example: the stdio file/pipe protocol.
//! let registry = cable::specs::registry();
//! let spec = registry.spec("FilePair").unwrap();
//! let mut vocab = Vocab::new();
//! let workload = spec.generate(42, &mut vocab);
//! let scenarios = cable::strauss::FrontEnd::new(spec.seeds())
//!     .extract_all(&workload, &vocab);
//! assert!(!scenarios.is_empty());
//!
//! // Cluster the scenarios with the unordered template and label them.
//! let all: Vec<Trace> = scenarios.iter().map(|(_, t)| t.clone()).collect();
//! let fa = cable::fa::templates::unordered_of_trace_events(&all);
//! let session = CableSession::new(scenarios, fa);
//! assert!(session.lattice().len() > 1);
//! ```

pub use cable_core as session;
pub use cable_fa as fa;
pub use cable_fca as fca;
pub use cable_guard as guard;
pub use cable_learn as learn;
pub use cable_mutate as mutate;
pub use cable_obs as obs;
pub use cable_par as par;
pub use cable_specs as specs;
pub use cable_store as store;
pub use cable_strauss as strauss;
pub use cable_trace as trace;
pub use cable_util as util;
pub use cable_verify as verify;
pub use cable_workload as workload;

/// Commonly used items, for glob import in examples and tests.
pub mod prelude {
    pub use cable_core::{CableSession, ConceptState, Label, LabelStore};
    pub use cable_fa::{Fa, FaBuilder};
    pub use cable_fca::{ConceptLattice, Context};
    pub use cable_trace::{Event, Trace, TraceSet};
}
