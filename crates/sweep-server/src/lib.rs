//! Simulation-as-a-service for HydEE parameter sweeps: a resident job
//! server fronted by a **content-addressed run cache**.
//!
//! The simulator is deterministic — one [`scenario::ScenarioSpec`]
//! always produces the bit-identical [`scenario::RunRecord`] — which
//! makes every sweep cell a pure function of its spec. This crate
//! exploits that:
//!
//! * [`store`] — the [`RunStore`]: an append-only, commit-marked JSONL
//!   segment store keyed by [`scenario::CacheKey`] (FNV-1a-128 of the
//!   versioned cell descriptor). Re-submitting a cell is a cache hit
//!   that returns the *exact bytes* the first run persisted; editing any
//!   spec axis changes the key, so only the delta re-runs.
//! * [`job`] — a priority [`JobQueue`] with cancellation, plus
//!   [`run_job`], which fans a suite's cells across rayon through the
//!   store.
//! * [`server`] — the resident [`Server`]: TCP line protocol and/or a
//!   spool directory, one worker thread, atomic result publication.
//! * [`client`] — [`Client`] for `sweep submit/status/cancel/result`.
//! * [`codec`] — a verified `RunRecord` decoder over the vendored
//!   `serde_json::Value`, with a byte-identity proof per record.
//!
//! See `DESIGN.md` §2.7 for the store format, the cache-key contract,
//! and the job lifecycle.

pub mod client;
pub mod codec;
pub mod job;
pub mod server;
pub mod store;

pub use client::Client;
pub use job::{run_job, JobQueue, JobSpec, JobState, JobStatus};
pub use server::Server;
pub use store::{LoadReport, RunStore, StoredRun};

/// The workspace reads JSON with the vendored [`serde_json::from_str`].
/// This module keeps the `sweep_server::json::Value` path the perfbench
/// workspace imports, and holds the reader's unit tests: the vendored
/// crates are not default workspace members, so a plain `cargo test`
/// would not run tests kept there.
pub mod json {
    pub use serde_json::Value;

    #[cfg(test)]
    mod tests;
}
