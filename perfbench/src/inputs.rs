//! The benchmark's workloads, generated from the `--seed` argument.
//!
//! The seed reaches the generated inputs only: it becomes the engine's
//! delivery-order perturbation seed on the halo workloads and the Poisson
//! failure seeds on `hydee_sweep`. Nothing else in a run depends on it.
//! Every cell carries the outcome it must reproduce whatever the seed
//! (send-determinism makes the digest seed-independent).

use scenario::{ClusterStrategy, FailureModelSpec, ProtocolSpec, ScenarioSpec, TopologySpec};
use workloads::WorkloadSpec;

/// Workload names accepted by `--workload`.
pub const WORKLOADS: [&str; 3] = ["halo_serial", "halo_sharded", "hydee_sweep"];

/// The halo application: 4096 ranks, where per-event engine cost grows.
/// 50 iterations (~1M events) keep one pass near two seconds, so a run
/// holds enough passes for its medians to ride out host-speed phases.
const HALO: &str = "stencil:4096x50:face=4096:compute_us=100";
/// The halo application's failure-free digest and event count.
const HALO_PIN: Pin = Pin {
    digest: 15690515381452639109,
    events: Some(1015296),
};

/// The sweep's stencil: 1024 ranks, 50 iterations (~5.5 ms simulated), so
/// a pass of the sweep stays near three host seconds.
const STENCIL1024: &str = "stencil:1024x50:face=4096:compute_us=100";
/// Failure-free digest of [`STENCIL1024`].
const STENCIL1024_DIGEST: u64 = 2687571438730938557;

const CG: &str = "nas:CG:scale=0.015625";
/// Failure-free digest of [`CG`].
const CG_DIGEST: u64 = 8169403615470048095;

/// Shards of `halo_sharded`, sized for a 2-core host.
const HALO_SHARDS: usize = 2;

/// What every run of a cell must reproduce. `events` is pinned only where
/// the event count is independent of the protocol and the failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pin {
    pub digest: u64,
    pub events: Option<u64>,
}

/// One cell of a workload: a scenario plus the engine seed it runs with.
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    pub spec: ScenarioSpec,
    pub perturb_seed: Option<u64>,
    pub pin: Pin,
}

/// SplitMix64: spreads consecutive seeds over the whole `u64` range.
pub(crate) fn mix(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d1_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn parse<T>(r: Result<T, String>) -> T {
    r.unwrap_or_else(|e| panic!("benchmark cell does not parse: {e}"))
}

fn spec(workload: &str, protocol: &str, clusters: &str) -> ScenarioSpec {
    ScenarioSpec::new(
        parse(WorkloadSpec::parse(workload)),
        parse(ProtocolSpec::parse(protocol)),
        parse(ClusterStrategy::parse(clusters)),
    )
}

/// Per-rank MTBF of one second: over 1024 ranks, all three failures land
/// within the stencil's run.
fn poisson(seed: u64) -> FailureModelSpec {
    FailureModelSpec::Poisson {
        mtbf_ms: 1_000,
        seed,
        max_failures: 3,
    }
}

/// The cells of `workload` for `seed`, or `None` for an unknown name.
pub fn cells(workload: &str, seed: u64) -> Option<Vec<Cell>> {
    let halo = |clusters: &str, shards: usize| Cell {
        spec: spec(HALO, "native", clusters).with_shards(shards),
        perturb_seed: Some(mix(seed)),
        pin: HALO_PIN,
    };
    let recovered = |spec: ScenarioSpec, digest: u64| Cell {
        spec,
        perturb_seed: None,
        pin: Pin {
            digest,
            events: None,
        },
    };
    let cg_failure = parse(FailureModelSpec::parse("fail@195000us:r7"));
    Some(match workload {
        "halo_serial" => vec![halo("single", 1)],
        "halo_sharded" => vec![halo("blocks64", HALO_SHARDS)],
        "hydee_sweep" => vec![
            recovered(
                spec(
                    STENCIL1024,
                    "hydee:young-daly:first=1:stagger=0:pfs",
                    "part64",
                )
                .with_failure_model(poisson(mix(seed ^ 1))),
                STENCIL1024_DIGEST,
            ),
            recovered(
                spec(
                    STENCIL1024,
                    "hydee:log-pressure:budget=16777216:pfs",
                    "part64",
                )
                .with_topology(TopologySpec::Dragonfly { g: 2 })
                .with_failure_model(poisson(mix(seed ^ 2))),
                STENCIL1024_DIGEST,
            ),
            recovered(
                spec(CG, "hydee:ckpt100ms:pfs", "part16").with_failure_model(cg_failure.clone()),
                CG_DIGEST,
            ),
            recovered(
                spec(CG, "coordinated:ckpt100ms:pfs", "part16")
                    .with_failure_model(cg_failure.clone()),
                CG_DIGEST,
            ),
            recovered(
                spec(CG, "event-logged:ckpt100ms:pfs", "part16").with_failure_model(cg_failure),
                CG_DIGEST,
            ),
        ],
        _ => return None,
    })
}
