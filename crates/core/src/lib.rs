//! Cable: concept-lattice-driven debugging of temporal specifications.
//!
//! This crate is the paper's primary contribution. A [`CableSession`]
//! takes a set of traces (violation traces from a verifier, or scenario
//! traces from a miner) and a *reference FA*, builds the concept lattice
//! whose objects are trace classes and whose attributes are the FA
//! transitions each trace can execute, and then supports the §4 workflow:
//!
//! * concept states ([`ConceptState`]: Unlabeled / PartlyLabeled /
//!   FullyLabeled — green / yellow / red in the original UI),
//! * the **Label traces** command ([`CableSession::label_traces`]) with
//!   its all / unlabeled / with-label selectors,
//! * the summary views **Show FA** (sk-strings-learned automaton),
//!   **Show transitions**, and **Show traces**,
//! * **Focus** sub-sessions over a different reference FA, with label
//!   merge-back,
//! * the **well-formedness** check of §4.3,
//! * the §4.2 labeling **strategies** (Top-down, Bottom-up, Random,
//!   Optimal, Expert, Baseline) with the paper's operation-cost
//!   accounting ([`strategy`]).
//!
//! Identical traces (equal event sequences) are grouped into classes, and
//! the lattice is built over class representatives, exactly as §5.2
//! describes; labels attach to classes (hence to every member trace).
//!
//! The same workflow runs as a service: a [`SessionManager`] keeps
//! tenant-qualified sessions open over their stores, [`CableApi`] serves
//! the §4 commands as JSON under `/api/`, and the [`server`] module is the
//! std-only HTTP server hosting it next to the exposition endpoints
//! (`/metrics`, `/healthz`, `/tracez`, `/eventz`, `/sloz`) that
//! `cable serve` and `--obs-listen` expose.
//!
//! # Examples
//!
//! ```
//! use cable_core::{CableSession, Label, TraceSelector};
//! use cable_fa::templates;
//! use cable_trace::{Trace, TraceSet, Vocab};
//!
//! let mut v = Vocab::new();
//! let mut traces = TraceSet::new();
//! traces.push(Trace::parse("popen(X) pclose(X)", &mut v).unwrap());
//! traces.push(Trace::parse("popen(X)", &mut v).unwrap());
//! let all: Vec<Trace> = traces.iter().map(|(_, t)| t.clone()).collect();
//! let fa = templates::unordered_of_trace_events(&all);
//! let mut session = CableSession::new(traces, fa);
//!
//! // Label the cluster of traces that execute pclose as good.
//! let top = session.lattice().top();
//! let child = session.lattice().children(top)[0];
//! session.label_traces(child, &TraceSelector::All, "good");
//! // The remaining unlabeled traces at the top are the leaks.
//! session.label_traces(top, &TraceSelector::Unlabeled, "bad");
//! assert!(session.all_labeled());
//! ```

pub mod api;
pub mod digest;
pub mod label;
pub mod manager;
pub mod persist;
pub mod server;
pub mod session;
pub mod strategy;
pub mod wellformed;

pub use api::CableApi;
pub use digest::session_state_record;
pub use label::{Label, LabelStore};
pub use manager::{ManagerError, SessionKey, SessionManager};
pub use persist::{IngestReport, StoredSession};
pub use session::{
    parse_script, CableSession, ConceptState, FocusSession, LabelCount, SessionProgress,
    SessionStop, TraceSelector,
};
pub use strategy::Cost;
