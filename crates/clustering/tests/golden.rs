//! Golden pins of the partitions the experiments resolve: an FNV-1a-64
//! hash of `ClusterMap::assignment()` for the sweep's 1024-rank stencil
//! at `part64` and for every Table-I NAS kernel (256 ranks, class-D
//! volumes) at each cluster count Table I uses. The hashes were produced
//! by the O(n³) reference partitioner, so any change to a resolved
//! `ClusterMap` — and with it every downstream digest — fails here first.

use clustering::{partition, CommGraph, PartitionConfig};
use workloads::WorkloadSpec;

fn fnv1a64(assignment: &[u32]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in assignment.iter().flat_map(|c| c.to_le_bytes()) {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Resolve `workload` the way `ClusterStrategy::Partitioned(k)` does.
fn resolve(workload: &str, k: usize) -> mps_sim::ClusterMap {
    let app = WorkloadSpec::parse(workload)
        .expect("registry name")
        .build();
    let n = app.n_ranks();
    let graph = CommGraph::from_application(&app);
    partition(&graph, &PartitionConfig::balanced(k.min(n), n))
}

const GOLDEN: [(&str, usize, u64); 37] = [
    (
        "stencil:1024x50:face=4096:compute_us=100",
        64,
        0xbe93a5a875a0bd85,
    ),
    ("nas:BT", 2, 0x24a3e54328489825),
    ("nas:BT", 4, 0x2971eb355057ce25),
    ("nas:BT", 5, 0x140b36597c8f7752),
    ("nas:BT", 6, 0x71c359eec2ddee04),
    ("nas:BT", 8, 0x46e30cd115ab5925),
    ("nas:BT", 16, 0xdbcda71b80aa8cb6),
    ("nas:CG", 2, 0x24a3e54328489825),
    ("nas:CG", 4, 0x2971eb355057ce25),
    ("nas:CG", 5, 0x93a37ce7c50ca0a5),
    ("nas:CG", 6, 0x47a72c25141a21a5),
    ("nas:CG", 8, 0xa2838e8c67610725),
    ("nas:CG", 16, 0x5f8dcdf4c9402725),
    ("nas:FT", 2, 0x24a3e54328489825),
    ("nas:FT", 4, 0x2971eb355057ce25),
    ("nas:FT", 5, 0x140b36597c8f7752),
    ("nas:FT", 6, 0xd72160cd0f9e71f4),
    ("nas:FT", 8, 0x72b5a98f376cbed4),
    ("nas:FT", 16, 0x991ec91640faa7e5),
    ("nas:LU", 2, 0x24a3e54328489825),
    ("nas:LU", 4, 0x2971eb355057ce25),
    ("nas:LU", 5, 0x9a4d09f556386172),
    ("nas:LU", 6, 0x53749817edb16a05),
    ("nas:LU", 8, 0x46e30cd115ab5925),
    ("nas:LU", 16, 0x47eb5091544a5f44),
    ("nas:MG", 2, 0x24a3e54328489825),
    ("nas:MG", 4, 0x2971eb355057ce25),
    ("nas:MG", 5, 0x9a4d09f556386172),
    ("nas:MG", 6, 0xd72160cd0f9e71f4),
    ("nas:MG", 8, 0x72b5a98f376cbed4),
    ("nas:MG", 16, 0x71a6291af36c5494),
    ("nas:SP", 2, 0x24a3e54328489825),
    ("nas:SP", 4, 0x2971eb355057ce25),
    ("nas:SP", 5, 0x9a4d09f556386172),
    ("nas:SP", 6, 0xd72160cd0f9e71f4),
    ("nas:SP", 8, 0x46e30cd115ab5925),
    ("nas:SP", 16, 0x47eb5091544a5f44),
];

#[test]
fn resolved_partitions_match_golden_hashes() {
    let mismatches: Vec<String> = GOLDEN
        .iter()
        .filter_map(|&(workload, k, want)| {
            let got = fnv1a64(resolve(workload, k).assignment());
            (got != want).then(|| format!("{workload} part{k}: {got:#018x} != {want:#018x}"))
        })
        .collect();
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}

/// `part256` on a 4096-rank stencil: out of reach of the O(n³)
/// reference (minutes), a fraction of a second now.
#[test]
fn stencil_4096_part256_resolves() {
    let map = resolve("stencil:4096x2", 256);
    let cap = PartitionConfig::balanced(256, 4096)
        .max_cluster_size
        .unwrap();
    assert_eq!(map.n_ranks(), 4096);
    assert_eq!(map.n_clusters(), 256);
    assert!(map.max_cluster_size() <= cap);
}
