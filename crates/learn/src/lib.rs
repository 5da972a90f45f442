//! Automaton learners.
//!
//! Cable and Strauss both need to *infer* an FA from a set of traces:
//!
//! * Strauss's back end learns the specification FA from scenario traces;
//! * Cable's **Show FA** summary displays a learned FA for the traces of a
//!   concept (§4.1: "Cable uses Raman and Patrick's sk-strings learner").
//!
//! This crate provides:
//!
//! * [`Pta`] — the prefix-tree acceptor with traversal frequencies, which
//!   accepts exactly the training traces;
//! * [`SkStrings`] — the sk-strings learner: states of the PTA are merged
//!   when their top-`s`% most probable `k`-strings agree, generalising
//!   the language beyond the training set.
//!
//! The learner consumes traces whose events are matched *exactly* (each
//! distinct event becomes one alphabet letter via
//! [`cable_fa::EventPat::exact`]).
//!
//! # Examples
//!
//! ```
//! use cable_learn::SkStrings;
//! use cable_trace::{Trace, Vocab};
//!
//! let mut v = Vocab::new();
//! let traces: Vec<Trace> = [
//!     "open(X) close(X)",
//!     "open(X) read(X) close(X)",
//!     "open(X) read(X) read(X) close(X)",
//! ]
//! .iter()
//! .map(|t| Trace::parse(t, &mut v).unwrap())
//! .collect();
//! let fa = SkStrings::default().learn(&traces);
//! // The learner generalises the read-loop:
//! let longer = Trace::parse("open(X) read(X) read(X) read(X) close(X)", &mut v).unwrap();
//! assert!(fa.accepts(&longer));
//! ```

pub mod counted;
pub mod pta;
pub mod reference;
pub mod sk;

pub use counted::CountedFa;
pub use pta::Pta;
pub use sk::{SkStrings, SkWork};
