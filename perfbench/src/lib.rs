//! # perfbench — the repository's benchmark
//!
//! Runs one workload of HydEE cells for a fixed host time and reports
//! end-to-end metrics (tracing off) or per-layer metrics (a separate
//! traced run), checking every result against pinned digests. Every layer
//! is reached from outside through its public interface; see `README.md`
//! in this directory for the workloads and the layer → metric map.

pub mod calib;
pub mod cell;
pub mod host;
pub mod inputs;
pub mod measure;
pub mod probe;
pub mod replay;
pub mod report;
pub mod spans;
