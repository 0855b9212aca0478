//! `RunRecord` ⇄ JSON codec with a byte-stability guarantee.
//!
//! The workspace's vendored `serde` has no typed deserializer, so the
//! store persists each record as the exact string `serde_json::to_string`
//! produced and this module supplies the missing inverse: read the raw
//! line as an integer-exact [`serde_json::Value`], map it back into a
//! [`RunRecord`], then prove the round trip by re-encoding and comparing
//! bytes ([`decode_verified`]). A record that fails the proof is rejected
//! — the store would rather re-simulate a cell (determinism makes that
//! safe) than ever serve a record that is not bit-identical to what the
//! simulation wrote.

use det_sim::{SimDuration, SimTime};
use mps_sim::Metrics;
use scenario::RunRecord;
use serde_json::Value;

fn field<'v>(v: &'v Value, key: &str) -> Result<&'v Value, String> {
    v.get(key).ok_or_else(|| format!("missing field `{key}`"))
}

fn s(v: &Value, key: &str) -> Result<String, String> {
    field(v, key)?
        .as_str()
        .map(str::to_owned)
        .ok_or_else(|| format!("field `{key}` is not a string"))
}

fn u(v: &Value, key: &str) -> Result<u64, String> {
    field(v, key)?
        .as_u64()
        .ok_or_else(|| format!("field `{key}` is not a u64"))
}

fn us(v: &Value, key: &str) -> Result<usize, String> {
    field(v, key)?
        .as_usize()
        .ok_or_else(|| format!("field `{key}` is not a usize"))
}

fn f(v: &Value, key: &str) -> Result<f64, String> {
    field(v, key)?
        .as_f64()
        .ok_or_else(|| format!("field `{key}` is not a number"))
}

fn b(v: &Value, key: &str) -> Result<bool, String> {
    field(v, key)?
        .as_bool()
        .ok_or_else(|| format!("field `{key}` is not a bool"))
}

fn decode_metrics(v: &Value) -> Result<Metrics, String> {
    // Exhaustive literal on purpose: a field added to `Metrics` fails to
    // compile here instead of silently defaulting in decoded records.
    Ok(Metrics {
        app_messages: u(v, "app_messages")?,
        app_bytes: u(v, "app_bytes")?,
        wire_bytes: u(v, "wire_bytes")?,
        ctl_messages: u(v, "ctl_messages")?,
        ctl_bytes: u(v, "ctl_bytes")?,
        deliveries: u(v, "deliveries")?,
        events: u(v, "events")?,
        logged_messages: u(v, "logged_messages")?,
        logged_bytes: u(v, "logged_bytes")?,
        logged_bytes_peak: u(v, "logged_bytes_peak")?,
        logged_bytes_cumulative: u(v, "logged_bytes_cumulative")?,
        gc_reclaimed_messages: u(v, "gc_reclaimed_messages")?,
        gc_reclaimed_bytes: u(v, "gc_reclaimed_bytes")?,
        checkpoints: u(v, "checkpoints")?,
        checkpoint_bytes: u(v, "checkpoint_bytes")?,
        checkpoint_time: SimDuration(u(v, "checkpoint_time")?),
        failures: u(v, "failures")?,
        failed_ranks: u(v, "failed_ranks")?,
        ranks_rolled_back: u(v, "ranks_rolled_back")?,
        lost_work: SimDuration(u(v, "lost_work")?),
        suppressed_sends: u(v, "suppressed_sends")?,
        replayed_messages: u(v, "replayed_messages")?,
        replayed_bytes: u(v, "replayed_bytes")?,
        recovery_time: SimDuration(u(v, "recovery_time")?),
        makespan: SimTime(u(v, "makespan")?),
    })
}

/// Decode a parsed record object. Field-for-field inverse of the
/// `Serialize` derive on [`RunRecord`]; [`decode_verified`] proves the
/// pairing per line, so the two cannot drift apart silently.
pub fn decode_record(v: &Value) -> Result<RunRecord, String> {
    Ok(RunRecord {
        scenario: s(v, "scenario")?,
        workload: s(v, "workload")?,
        protocol: s(v, "protocol")?,
        clusters: s(v, "clusters")?,
        network: s(v, "network")?,
        topology: s(v, "topology")?,
        n_ranks: us(v, "n_ranks")?,
        n_clusters: us(v, "n_clusters")?,
        n_failures: us(v, "n_failures")?,
        failure_model: s(v, "failure_model")?,
        checkpoint_policy: s(v, "checkpoint_policy")?,
        avg_rollback_pct: f(v, "avg_rollback_pct")?,
        static_logged_bytes: u(v, "static_logged_bytes")?,
        static_total_bytes: u(v, "static_total_bytes")?,
        static_logged_pct: f(v, "static_logged_pct")?,
        program_resident_bytes: u(v, "program_resident_bytes")?,
        program_unrolled_bytes: u(v, "program_unrolled_bytes")?,
        completed: b(v, "completed")?,
        status: s(v, "status")?,
        makespan_ps: u(v, "makespan_ps")?,
        makespan_s: f(v, "makespan_s")?,
        digest: u(v, "digest")?,
        trace_consistent: b(v, "trace_consistent")?,
        trace_violations: us(v, "trace_violations")?,
        rollback_rank_fraction: f(v, "rollback_rank_fraction")?,
        lost_work_s: f(v, "lost_work_s")?,
        recovery_s: f(v, "recovery_s")?,
        checkpoint_overhead_s: f(v, "checkpoint_overhead_s")?,
        waste_fraction: f(v, "waste_fraction")?,
        metrics: decode_metrics(field(v, "metrics")?)?,
        shards: u(v, "shards")? as u32,
        barrier_rounds: u(v, "barrier_rounds")?,
        pair_lookahead: s(v, "pair_lookahead")?,
    })
}

/// Canonical serialized form of a record — the exact bytes the store
/// persists and the bit-identical-hit contract compares.
pub fn encode_record(record: &RunRecord) -> String {
    serde_json::to_string(record).expect("RunRecord serializes")
}

/// Decode `raw` and prove the round trip: the decoded record must
/// re-encode to exactly `raw`. Catches schema drift (a field added to
/// `RunRecord` but not to [`decode_record`]), precision loss, and any
/// future emitter change — all as a recoverable error, never as a
/// silently different record.
pub fn decode_verified(raw: &str) -> Result<RunRecord, String> {
    let v = serde_json::from_str(raw).map_err(|e| e.to_string())?;
    let record = decode_record(&v)?;
    let reencoded = encode_record(&record);
    if reencoded != raw {
        return Err(format!(
            "record round-trip not byte-identical ({} vs {} bytes)",
            reencoded.len(),
            raw.len()
        ));
    }
    Ok(record)
}

#[cfg(test)]
mod tests {
    use super::*;
    use scenario::{ClusterStrategy, Executor, ProtocolSpec, ScenarioSpec};
    use workloads::WorkloadSpec;

    fn simulated_record() -> RunRecord {
        Executor::run_one(&ScenarioSpec::new(
            WorkloadSpec::NetPipe {
                rounds: 3,
                bytes: 256,
            },
            ProtocolSpec::hydee(),
            ClusterStrategy::PerRank,
        ))
    }

    #[test]
    fn real_record_round_trips_byte_identically() {
        let record = simulated_record();
        let raw = encode_record(&record);
        let decoded = decode_verified(&raw).expect("round trip");
        assert_eq!(encode_record(&decoded), raw);
    }

    #[test]
    fn extreme_values_round_trip() {
        let mut record = simulated_record();
        record.digest = u64::MAX; // would be rounded by an f64 parser
        record.makespan_ps = u64::MAX - 1;
        record.makespan_s = 1e-12;
        record.waste_fraction = f64::NAN; // emits as null
        record.status = "deadlock: \"rank 0\"\nrecv(src=1)\t«π»".into();
        let raw = encode_record(&record);
        let decoded = decode_verified(&raw).expect("round trip");
        assert_eq!(decoded.digest, u64::MAX);
        assert_eq!(decoded.makespan_ps, u64::MAX - 1);
        assert_eq!(decoded.status, record.status);
        assert!(decoded.waste_fraction.is_nan());
        assert_eq!(encode_record(&decoded), raw);
    }

    #[test]
    fn tampered_payload_fails_verification() {
        let raw = encode_record(&simulated_record());
        // Whitespace changes decode fine but are not byte-identical.
        let spaced = raw.replace(":", ": ");
        assert!(decode_verified(&spaced).is_err());
        // Truncation fails the parse outright.
        assert!(decode_verified(&raw[..raw.len() - 2]).is_err());
        // A missing field is a decode error.
        let dropped = raw.replacen("\"digest\":", "\"digest_x\":", 1);
        assert!(decode_verified(&dropped).is_err());
    }
}
