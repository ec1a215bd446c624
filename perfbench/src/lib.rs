//! End-to-end and per-layer benchmark of radio-rs.
//!
//! The benchmark drives the repository's public API from outside the
//! program: it generates every input from a seed, times whole calls,
//! checks every result against the scalar reference plans and the report
//! parsers, and (in a separate traced run) wraps the entry point of each
//! layer to record spans.  `README.md` in this directory lists the
//! workloads, the metrics and the layer-to-metric predictions.

pub mod fingerprint;
pub mod node_trace;
pub mod runner;
pub mod stats;
pub mod trace;
pub mod workloads;
