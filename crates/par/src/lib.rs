//! `cable-par`: the deterministic parallel executor of the Cable
//! workspace.
//!
//! Every stage of the reproduction pipeline — executed-transition sweeps,
//! context construction, workload generation, the per-specification
//! table loop — decomposes into independent units, and the ROADMAP's
//! north star is "as fast as the hardware allows". This crate supplies
//! the executor those stages share, with **no dependencies beyond
//! `std`** (the workspace builds offline): a thread pool hand-rolled on
//! `std::sync` primitives, sized from
//! [`std::thread::available_parallelism`]. Each multi-chunk [`par_map`]
//! is one job whose chunks are claimed from an atomic cursor; its caller
//! runs the unclaimed ones and waits only for chunks other threads
//! claimed, so a caller never runs another stage's work (the isolation
//! and deadlock-freedom argument is in the `pool` module).
//!
//! # Determinism contract
//!
//! The paper's experiments are replayable bit-for-bit from a seed, and
//! parallelism must not break that. The contract:
//!
//! * [`par_map`] returns results in **input index order**, whatever
//!   schedule the workers run, over chunks whose boundaries depend only
//!   on the input length — never on the worker count;
//! * `CABLE_PAR=1` (or [`configure`]`(1)`, or a single-core machine)
//!   takes a pure sequential path that produces the very same values.
//!
//! So any pipeline artifact computed through this crate is identical for
//! every worker count; only wall-clock time changes.
//!
//! # Sizing
//!
//! The global pool sizes itself once, on first use, from (in order):
//! [`configure`] (the CLIs' `--threads N`), the `CABLE_PAR` environment
//! variable, then [`std::thread::available_parallelism`].
//!
//! # Observability
//!
//! The pool feeds `cable-obs`: counters `par.tasks` and
//! `par.task_panics`, the worker park histogram `wait.park.us`, and —
//! while observation is enabled — per-stage histograms
//! `par.stage.<label>.busy_ns` / `par.stage.<label>.wall_ns` whose ratio
//! is the per-stage speedup line of the `--stats` report.
//!
//! # Examples
//!
//! ```
//! let squares = cable_par::par_map("doc.squares", &[1u64, 2, 3, 4], |x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16]);
//! ```

mod pool;

pub use pool::Pool;

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

static GLOBAL: OnceLock<Pool> = OnceLock::new();
static CONFIGURED: AtomicUsize = AtomicUsize::new(0);

/// Requests a thread count for the global pool (the CLIs' `--threads N`).
///
/// Takes effect only before the pool's first use; returns whether the
/// request was recorded. `0` is clamped to `1`.
pub fn configure(n: usize) -> bool {
    if GLOBAL.get().is_some() {
        return false;
    }
    CONFIGURED.store(n.max(1), Ordering::Relaxed);
    GLOBAL.get().is_none()
}

/// The number of logical threads the global pool runs chunks on
/// (workers plus the calling thread).
pub fn threads() -> usize {
    global().threads()
}

/// The global pool, created on first use.
pub fn global() -> &'static Pool {
    GLOBAL.get_or_init(|| Pool::new(resolve_threads()))
}

/// The thread count the global pool will use: [`configure`], then
/// `CABLE_PAR`, then [`std::thread::available_parallelism`].
fn resolve_threads() -> usize {
    let configured = CONFIGURED.load(Ordering::Relaxed);
    if configured > 0 {
        return configured;
    }
    if let Ok(v) = std::env::var("CABLE_PAR") {
        if let Ok(n) = v.trim().parse::<usize>() {
            return n.max(1);
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Maps `f` over `items` on the global pool, returning results in input
/// order regardless of worker count or schedule. See [`Pool::par_map`].
pub fn par_map<T, U, F>(label: &'static str, items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    global().par_map(label, items, f)
}

/// Like [`par_map`], passing each item's index too.
pub fn par_map_indexed<T, U, F>(label: &'static str, items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> U + Sync,
{
    global().par_map_indexed(label, items, f)
}

/// The fixed chunk size for `n` items: depends only on `n`, so chunk
/// boundaries — and therefore chunk span ids — are identical for every
/// worker count. Targets at most 64 chunks.
pub(crate) fn chunk_size(n: usize) -> usize {
    n.div_ceil(64).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunking_depends_only_on_length() {
        assert_eq!(chunk_size(1), 1);
        assert_eq!(chunk_size(64), 1);
        assert_eq!(chunk_size(65), 2);
        assert_eq!(chunk_size(1000), 16);
    }

    #[test]
    fn global_map_is_index_ordered() {
        let items: Vec<usize> = (0..500).collect();
        let out = par_map("test.order", &items, |&x| x * 2);
        assert_eq!(out, items.iter().map(|&x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn configure_after_first_use_is_rejected() {
        let _ = threads(); // force pool creation
        assert!(!configure(4));
    }
}
