//! Load driver for the cable labeling service.
//!
//! `cable-load` simulates N concurrent labelers hammering a `cable
//! serve --api` instance: each labeler owns one tenant, opens one
//! session, and then issues a seeded mix of ingest / label / lattice /
//! concepts / focus / digest requests over plain HTTP. The whole
//! workload is a pure function of `(seed, labeler index)` via
//! [`cable_util::rng::stream`], so a run is replayable bit-for-bit —
//! and, because [`run`] returns every mutation the server acknowledged
//! ([`Step`]) with the server's final digest of each session
//! ([`LabelerLog`]), a run can be replayed **sequentially** into fresh
//! stores and the resulting digests compared against the server's.
//! That equivalence (concurrent service run ≡ sequential replay, per
//! session) is the determinism gate of the service and chaos drills
//! (`cable-load drill service|chaos`).
//!
//! The driver reports throughput, error counts, and exact p50/p95/p99
//! request latencies, and writes a JSONL file whose final record is
//! the standard `pipeline_snapshot`, so `reproduce slo-check` can gate
//! the service's latency budget and `reproduce compare` can ingest the
//! file without special-casing it.

pub mod client;
pub mod driver;
pub mod plan;

pub use client::{request, Response};
pub use driver::{run, LabelerLog, LoadOptions, LoadReport, Step};
pub use plan::{Labeler, Op};
