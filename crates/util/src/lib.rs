//! Shared utilities for the Cable workspace.
//!
//! This crate provides the small, dependency-light building blocks that the
//! rest of the reproduction is built on:
//!
//! * [`BitSet`] — a dense, growable bit set used for FCA extents/intents and
//!   automaton state sets,
//! * [`hash`] — a seeded word hasher for maps keyed by bit-set words,
//! * [`Interner`] and [`Symbol`] — cheap interned strings for event names,
//! * [`rng`] — seeded deterministic random number helpers so that every
//!   experiment in the reproduction is replayable,
//! * [`stats`] — tiny summary-statistics helpers used by the benchmark
//!   tables.
//!
//! # Examples
//!
//! ```
//! use cable_util::BitSet;
//!
//! let mut a = BitSet::new();
//! a.insert(3);
//! a.insert(70);
//! let b: cable_util::BitSet = [3usize, 70, 71].into_iter().collect();
//! assert!(a.is_subset(&b));
//! assert_eq!(a.intersection(&b).len(), 2);
//! ```

pub mod bitset;
pub mod hash;
pub mod interner;
pub mod rng;
pub mod stats;

pub use bitset::BitSet;
pub use interner::{Interner, Symbol};
