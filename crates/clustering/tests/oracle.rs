//! Pins [`clustering::partition`] to the reference partitioner it
//! replaced: the O(n³) dense-matrix agglomeration (every merge rescans
//! all cluster pairs) followed by the `BTreeMap` refinement. The fast
//! partitioner must return the *identical* `ClusterMap` on every input —
//! ties, zero-weight and disconnected graphs, every size cap and every
//! `k` from 1 to n included.

use clustering::{partition, CommGraph, PartitionConfig};
use mps_sim::{ClusterMap, Rank};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// The reference partitioner, kept only as this test's oracle.
mod reference {
    use super::*;

    pub fn partition(graph: &CommGraph, cfg: &PartitionConfig) -> ClusterMap {
        let n = graph.n_ranks();
        let max_size = cfg.max_cluster_size.unwrap_or(n);
        let mut assignment = greedy_agglomerate(graph, cfg.k, max_size);
        for _ in 0..cfg.refine_passes {
            if !refine_once(graph, &mut assignment, max_size) {
                break;
            }
        }
        ClusterMap::new(compact_ids(assignment))
    }

    fn greedy_agglomerate(graph: &CommGraph, k: usize, max_size: usize) -> Vec<u32> {
        let n = graph.n_ranks();
        let mut cl: Vec<u32> = (0..n as u32).collect();
        let mut size: Vec<usize> = vec![1; n];
        let mut w = vec![0u64; n * n];
        for i in 0..n {
            for (j, weight) in graph.neighbors(Rank(i as u32)) {
                w[i * n + j.idx()] = weight;
            }
        }
        let mut alive: Vec<bool> = vec![true; n];
        let mut n_clusters = n;
        while n_clusters > k {
            // Heaviest feasible pair (a < b); ties to the smallest merged
            // size, then the smallest indices.
            let mut best: Option<(u64, usize, usize)> = None;
            for a in 0..n {
                if !alive[a] {
                    continue;
                }
                for b in (a + 1)..n {
                    if !alive[b] || size[a] + size[b] > max_size {
                        continue;
                    }
                    let weight = w[a * n + b];
                    let cand = (weight, usize::MAX - (size[a] + size[b]), usize::MAX - a);
                    let cur = best.map(|(bw, a0, b0)| {
                        (bw, usize::MAX - (size[a0] + size[b0]), usize::MAX - a0)
                    });
                    if cur.is_none() || cand > cur.unwrap() {
                        best = Some((weight, a, b));
                    }
                }
            }
            let Some((_, a, b)) = best else {
                break;
            };
            for j in 0..n {
                if alive[j] && j != a && j != b {
                    w[a * n + j] += w[b * n + j];
                    w[j * n + a] = w[a * n + j];
                }
            }
            size[a] += size[b];
            alive[b] = false;
            for c in cl.iter_mut() {
                if *c == b as u32 {
                    *c = a as u32;
                }
            }
            n_clusters -= 1;
        }
        cl
    }

    fn refine_once(graph: &CommGraph, assignment: &mut [u32], max_size: usize) -> bool {
        let n = assignment.len();
        let mut sizes = BTreeMap::<u32, usize>::new();
        for &c in assignment.iter() {
            *sizes.entry(c).or_default() += 1;
        }
        let mut moved = false;
        for r in 0..n {
            let my_cluster = assignment[r];
            if sizes[&my_cluster] == 1 {
                continue;
            }
            let mut toward = BTreeMap::<u32, u64>::new();
            for (nb, weight) in graph.neighbors(Rank(r as u32)) {
                *toward.entry(assignment[nb.idx()]).or_default() += weight;
            }
            let home = toward.get(&my_cluster).copied().unwrap_or(0);
            let best = toward
                .iter()
                .filter(|(&c, _)| c != my_cluster && sizes[&c] < max_size)
                .max_by_key(|(&c, &w)| (w, std::cmp::Reverse(c)));
            if let Some((&c, &w)) = best {
                if w > home {
                    assignment[r] = c;
                    *sizes.get_mut(&my_cluster).unwrap() -= 1;
                    *sizes.get_mut(&c).unwrap() += 1;
                    moved = true;
                }
            }
        }
        moved
    }

    fn compact_ids(assignment: Vec<u32>) -> Vec<u32> {
        let mut mapping = BTreeMap::<u32, u32>::new();
        let mut next = 0u32;
        assignment
            .into_iter()
            .map(|c| {
                *mapping.entry(c).or_insert_with(|| {
                    next += 1;
                    next - 1
                })
            })
            .collect()
    }
}

/// Assert fast == reference for `graph` under `cfg`.
fn check(graph: &CommGraph, cfg: PartitionConfig) {
    let fast = partition(graph, &cfg);
    let slow = reference::partition(graph, &cfg);
    assert_eq!(
        fast.assignment(),
        slow.assignment(),
        "n={} cfg={cfg:?}",
        graph.n_ranks()
    );
}

/// The size caps a run can ask for: unbounded, the `balanced` slack, and
/// the tightest feasible cap `ceil(n/k)`.
fn caps(k: usize, n: usize) -> [Option<usize>; 3] {
    [
        None,
        PartitionConfig::balanced(k, n).max_cluster_size,
        Some(n.div_ceil(k)),
    ]
}

/// Check `graph` at k = 1, k = n and `k`, under every cap and with
/// `passes` refinement passes (0 pins the agglomeration alone).
fn check_all(graph: &CommGraph, k: usize, passes: usize) {
    let n = graph.n_ranks();
    for k in [1, n, k] {
        for cap in caps(k, n) {
            check(
                graph,
                PartitionConfig {
                    k,
                    max_cluster_size: cap,
                    refine_passes: passes,
                },
            );
        }
    }
}

/// Weight shapes: free weights, all equal (every pair ties), a few
/// distinct values (many partial ties), and equal weights confined to
/// three blocks (a disconnected graph).
fn arb_graph() -> impl Strategy<Value = CommGraph> {
    (
        1usize..36,
        0u8..4,
        prop::collection::vec((0usize..1024, 0usize..1024, 1u64..10_000), 0..160),
    )
        .prop_map(|(n, shape, edges)| {
            let mut g = CommGraph::new(n);
            let block = n.div_ceil(3);
            for (a, b, w) in edges {
                let (a, mut b) = (a % n, b % n);
                let w = match shape {
                    0 => w,
                    1 => 64,
                    2 => w % 3 + 1,
                    _ => {
                        b = (a / block) * block + b % block.min(n - (a / block) * block);
                        64
                    }
                };
                g.add(Rank(a as u32), Rank(b as u32), w);
            }
            g
        })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    #[test]
    fn fast_partition_equals_reference(g in arb_graph(), k in 1usize..1024, passes in 0usize..6) {
        let k = 1 + k % g.n_ranks();
        check_all(&g, k, passes);
    }
}

/// A `w × h` grid with unit weights on every edge: the stencil shape,
/// where almost every merge is a tie.
fn grid(w: usize, h: usize) -> CommGraph {
    let mut g = CommGraph::new(w * h);
    for y in 0..h {
        for x in 0..w {
            let r = (y * w + x) as u32;
            if x + 1 < w {
                g.add(Rank(r), Rank(r + 1), 1);
            }
            if y + 1 < h {
                g.add(Rank(r), Rank(r + w as u32), 1);
            }
        }
    }
    g
}

fn from_edges(n: usize, edges: &[(u32, u32, u64)]) -> CommGraph {
    let mut g = CommGraph::new(n);
    for &(a, b, w) in edges {
        g.add(Rank(a), Rank(b), w);
    }
    g
}

#[test]
fn structured_graphs_equal_reference() {
    // Rank 0 pairs with 1 first, so {0, 1} is too big to join {2, 3} or
    // {4, 5} under a cap of 3; the zero-traffic fallback then folds the
    // isolated 6 into {0, 1}, and refinement sees rank 0 pulled equally
    // by both pairs (10 > its home 9): the move must go to the smaller id.
    let refine_tie = from_edges(
        7,
        &[
            (0, 1, 9),
            (2, 3, 8),
            (4, 5, 8),
            (0, 2, 5),
            (0, 3, 5),
            (0, 4, 5),
            (0, 5, 5),
        ],
    );
    // The fallback joins a lone rank to a larger cluster with a smaller
    // id; the merged cluster must keep the smaller id for later ties.
    let fallback_ids = from_edges(8, &[(7, 4, 3), (7, 2, 2)]);
    let complete = {
        let mut g = CommGraph::new(40);
        for a in 0..40u32 {
            for b in (a + 1)..40 {
                g.add(Rank(a), Rank(b), 8);
            }
        }
        g
    };
    let star = {
        let mut g = CommGraph::new(33);
        for b in 1..33u32 {
            g.add(Rank(0), Rank(b), 1 + u64::from(b % 4));
        }
        g
    };
    let ring = {
        let mut g = CommGraph::new(30);
        for a in 0..30u32 {
            g.add(Rank(a), Rank((a + 1) % 30), 100);
        }
        g
    };
    for g in [
        refine_tie,
        fallback_ids,
        grid(8, 8),
        grid(12, 6),
        complete,
        star,
        ring,
        CommGraph::new(17),
    ] {
        for k in [2, 3, 4, 5, 8] {
            check_all(&g, k.min(g.n_ranks()), 4);
        }
    }
}
