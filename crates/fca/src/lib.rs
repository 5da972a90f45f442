//! Formal concept analysis (FCA).
//!
//! Concept analysis (§3 of the paper, after Wille) takes a set `O` of
//! objects, a set `A` of attributes, and a relation `R ⊆ O × A`, and
//! produces the complete lattice of *concepts*: pairs `(X, Y)` with
//! `σ(X) = Y` and `τ(Y) = X`, where `σ(X)` is the set of attributes shared
//! by all objects in `X` and `τ(Y)` the set of objects enjoying all
//! attributes in `Y`.
//!
//! In Cable, objects are traces and attributes are the transitions of a
//! reference FA that each trace can execute; the similarity of a set of
//! traces is `sim(X) = |σ(X)|`, which grows as one moves *down* the
//! lattice — the property that makes hierarchical labeling work.
//!
//! Two construction algorithms are provided:
//!
//! * [`godin`] — the incremental algorithm of Godin, Missaoui & Alaoui
//!   (Algorithm 1), the one the paper uses and times in Table 2;
//! * [`next_closure`] — Ganter's batch NextClosure enumeration, used as a
//!   differential-testing reference.
//!
//! Both end in one assembly, [`ConceptLattice::try_from_concepts`], which
//! finds the Hasse diagram with Lindig's neighbour rule; [`reference`](mod@reference)
//! keeps the all-pairs assembly it replaced as its test oracle.
//!
//! # Examples
//!
//! The animals example of Figure 9/10 (from Siff's thesis):
//!
//! ```
//! use cable_fca::{Context, ConceptLattice};
//!
//! let mut ctx = Context::new(5, 5);
//! // objects: cats gibbons dolphins humans whales
//! // attributes: four-legged hair-covered intelligent marine thumbed
//! for (o, attrs) in [
//!     (0, vec![0, 1]),
//!     (1, vec![1, 2, 4]),
//!     (2, vec![2, 3]),
//!     (3, vec![2, 4]),
//!     (4, vec![2, 3]),
//! ] {
//!     for a in attrs {
//!         ctx.add(o, a);
//!     }
//! }
//! let lattice = ConceptLattice::build(&ctx);
//! assert_eq!(lattice.len(), 8);
//! ```

pub mod context;
pub mod dot;
pub mod godin;
pub mod hac;
pub mod lattice;
pub mod next_closure;
pub mod reference;

pub use context::Context;
pub use lattice::{Concept, ConceptId, ConceptLattice, LatticeError, PartialBuild};
