//! Strauss: the specification miner (Figure 7).
//!
//! Strauss has a front end and a back end (§2.2):
//!
//! * the [`FrontEnd`] extracts *scenario traces* from a training set of
//!   program execution traces: starting from each *seed* event it follows
//!   the object identities threaded through event arguments, collects the
//!   per-object event sequence, and canonicalises object ids to variables;
//! * the [`BackEnd`] uses machine-learning techniques (here: the
//!   sk-strings learner from [`cable_learn`]) to learn a specification
//!   FA that accepts the scenario traces, optionally *coring* away
//!   low-frequency transitions — the naive error-removal mechanism this
//!   paper's Cable supersedes.
//!
//! The [`Miner`] couples the two, and [`Miner::remine`] reruns the back
//! end on the traces a Cable session labelled `good` (§2.2 step 3).

pub mod back;
pub mod front;
pub mod miner;

pub use back::BackEnd;
pub use front::FrontEnd;
pub use miner::{MinedSpec, Miner};
