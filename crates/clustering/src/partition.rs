//! Process-clustering partitioners.
//!
//! Reimplementation of the role of Ropars et al.'s clustering tool \[28\]:
//! find a partition of the ranks into `k` clusters that keeps clusters
//! small (bounding rollback) while minimising the inter-cluster traffic
//! (bounding logged bytes).
//!
//! Two phases:
//!
//! 1. **Greedy agglomeration** — start from singletons, repeatedly merge
//!    the pair of clusters with the heaviest connecting traffic, subject
//!    to a maximum cluster size, until `k` clusters remain.
//! 2. **Kernighan–Lin-style refinement** — move individual ranks between
//!    clusters whenever that strictly reduces the edge cut and respects
//!    the size bound.
//!
//! Both phases are deterministic; the tie-break contract and the
//! complexity are stated in DESIGN.md §2.10.

use crate::graph::CommGraph;
use mps_sim::{ClusterMap, Rank};
use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap};

/// Partitioning constraints.
#[derive(Debug, Clone, Copy)]
pub struct PartitionConfig {
    /// Target number of clusters.
    pub k: usize,
    /// Maximum ranks per cluster (`None` = unbounded, i.e. `n`).
    pub max_cluster_size: Option<usize>,
    /// Refinement passes over all ranks.
    pub refine_passes: usize,
}

impl PartitionConfig {
    pub fn with_k(k: usize) -> Self {
        PartitionConfig {
            k,
            max_cluster_size: None,
            refine_passes: 4,
        }
    }

    /// Balanced clusters: cap at `ceil(n/k) * slack_num/slack_den`.
    pub fn balanced(k: usize, n: usize) -> Self {
        PartitionConfig {
            k,
            max_cluster_size: Some((n.div_ceil(k) * 5).div_ceil(4)),
            refine_passes: 4,
        }
    }
}

/// Partition `graph` into `cfg.k` clusters.
///
/// # Panics
/// Panics if `k` is 0 or exceeds the rank count, or if the size bound
/// makes `k` clusters infeasible.
pub fn partition(graph: &CommGraph, cfg: &PartitionConfig) -> ClusterMap {
    let n = graph.n_ranks();
    assert!(cfg.k >= 1 && cfg.k <= n, "need 1 <= k <= n");
    let max_size = cfg.max_cluster_size.unwrap_or(n);
    assert!(
        max_size * cfg.k >= n,
        "size bound {max_size} x {k} clusters cannot hold {n} ranks",
        k = cfg.k
    );
    let mut assignment = greedy_agglomerate(graph, cfg.k, max_size);
    for _ in 0..cfg.refine_passes {
        if !refine_once(graph, &mut assignment, max_size) {
            break;
        }
    }
    ClusterMap::new(compact_ids(assignment))
}

/// A feasible positive-traffic merge `(a, b)`, `a < b`, in the greedy
/// phase's lazy max-heap, pushed by `owner` (one of `a`, `b`) as the best
/// of the pairs it owns. The derived order is the merge priority:
/// heaviest traffic, then smallest merged size, then smallest `a`, then
/// smallest `b`. The last two fields only order copies of one pair.
#[derive(PartialEq, Eq, PartialOrd, Ord)]
struct Candidate {
    weight: u64,
    merged: Reverse<usize>,
    a: Reverse<u32>,
    b: Reverse<u32>,
    owner: u32,
    /// Stamps of `a` and `b` at push time.
    stamps: (u32, u32),
}

/// Greedy agglomeration state.
///
/// A cluster's id is its smallest rank, which is also its union-find
/// root: a merge always folds the larger id into the smaller. A cluster
/// *changes* when it absorbs another; its stamp is bumped then (and when
/// it is absorbed), and every pair whose weight or merged size moved
/// involves the cluster that just changed.
///
/// Each pair is **owned** by the endpoint that changed last (ties: the
/// larger id), and each live cluster keeps at most one heap entry: the
/// best feasible positive pair among those it owns. A change hands the
/// changed cluster all of its pairs, so its entry is recomputed exactly;
/// every other cluster only ever loses pairs, so its entry stays an upper
/// bound on its best and is recomputed when it surfaces stale. The top
/// live entry is therefore the best pair overall. Sizes only grow, so a
/// pair over the size bound never becomes feasible again.
struct Agglomeration {
    max_size: usize,
    parent: Vec<u32>,
    size: Vec<usize>,
    stamp: Vec<u32>,
    /// Merge count at the cluster's last change (0 = never changed).
    age: Vec<u32>,
    /// Live clusters' traffic rows. Entries may name clusters that have
    /// since changed or been absorbed; a row is resolved through
    /// `parent` and coalesced whenever its own cluster changes.
    rows: Vec<Vec<(u32, u64)>>,
    heap: BinaryHeap<Candidate>,
    /// Live clusters by `(size, id)`, for the zero-traffic fallback.
    by_size: BTreeSet<(usize, u32)>,
    /// Scratch: position of a cluster in the row being rebuilt.
    slot: Vec<u32>,
}

impl Agglomeration {
    fn new(graph: &CommGraph, max_size: usize) -> Self {
        let n = graph.n_ranks();
        let mut ag = Agglomeration {
            max_size,
            parent: (0..n as u32).collect(),
            size: vec![1; n],
            stamp: vec![0; n],
            age: vec![0; n],
            rows: (0..n)
                .map(|r| {
                    graph
                        .neighbors(Rank(r as u32))
                        .map(|(j, w)| (j.0, w))
                        .collect()
                })
                .collect(),
            heap: BinaryHeap::with_capacity(n),
            by_size: (0..n as u32).map(|c| (1, c)).collect(),
            slot: vec![u32::MAX; n],
        };
        for c in 0..n {
            ag.push_best(c);
        }
        ag
    }

    /// Push `c`'s best feasible positive pair among the pairs it owns.
    fn push_best(&mut self, c: usize) {
        let me = (self.age[c], c as u32);
        let best = self.rows[c]
            .iter()
            .filter(|&&(j, _)| self.parent[j as usize] == j && (self.age[j as usize], j) < me)
            .filter_map(|&(j, w)| {
                let merged = self.size[c] + self.size[j as usize];
                (merged <= self.max_size).then(|| {
                    let (a, b) = (j.min(c as u32), j.max(c as u32));
                    Candidate {
                        weight: w,
                        merged: Reverse(merged),
                        a: Reverse(a),
                        b: Reverse(b),
                        owner: c as u32,
                        stamps: (self.stamp[a as usize], self.stamp[b as usize]),
                    }
                })
            })
            .max();
        self.heap.extend(best);
    }

    /// The best feasible positive-traffic pair, if any.
    fn pop_best(&mut self) -> Option<(usize, usize)> {
        while let Some(top) = self.heap.pop() {
            let (a, b, owner) = (top.a.0 as usize, top.b.0 as usize, top.owner as usize);
            let owner_stamp = if owner == a {
                top.stamps.0
            } else {
                top.stamps.1
            };
            if self.stamp[owner] != owner_stamp {
                continue; // the owner changed (and re-pushed) or died
            }
            if (self.stamp[a], self.stamp[b]) == top.stamps {
                return Some((a, b));
            }
            // The partner changed and took the pair over.
            self.push_best(owner);
        }
        None
    }

    /// Fold cluster `b` into cluster `a` (`a < b`).
    fn merge(&mut self, a: usize, b: usize, n_merges: u32) {
        self.by_size.remove(&(self.size[a], a as u32));
        self.by_size.remove(&(self.size[b], b as u32));
        self.size[a] += self.size[b];
        self.by_size.insert((self.size[a], a as u32));
        self.parent[b] = a as u32;
        self.stamp[a] += 1;
        self.stamp[b] += 1;
        self.age[a] = n_merges;
        let (row_a, row_b) = (
            std::mem::take(&mut self.rows[a]),
            std::mem::take(&mut self.rows[b]),
        );
        let mut row: Vec<(u32, u64)> = Vec::with_capacity(row_a.len() + row_b.len());
        for (j, w) in row_a.into_iter().chain(row_b) {
            let j = find(&mut self.parent, j);
            if j as usize == a {
                continue; // now internal traffic
            }
            match self.slot[j as usize] {
                u32::MAX => {
                    self.slot[j as usize] = row.len() as u32;
                    row.push((j, w));
                }
                p => row[p as usize].1 += w,
            }
        }
        for &(j, _) in &row {
            self.slot[j as usize] = u32::MAX;
        }
        self.rows[a] = row;
        self.push_best(a);
    }
}

/// Greedy agglomeration down to `k` clusters.
fn greedy_agglomerate(graph: &CommGraph, k: usize, max_size: usize) -> Vec<u32> {
    let n = graph.n_ranks();
    let mut ag = Agglomeration::new(graph, max_size);
    for n_merges in 1..=(n - k) as u32 {
        let Some((a, b)) = ag
            .pop_best()
            .or_else(|| lightest_pair(&ag.by_size, max_size))
        else {
            // No feasible merge (size bound); accept more clusters.
            break;
        };
        ag.merge(a, b, n_merges);
    }
    (0..n as u32).map(|r| find(&mut ag.parent, r)).collect()
}

/// The zero-traffic fallback, used once no positive-traffic merge is
/// feasible: every feasible pair then has zero weight, and the smallest
/// merged size, then smallest `a`, then smallest `b` is always the first
/// two clusters in `(size, id)` order.
fn lightest_pair(by_size: &BTreeSet<(usize, u32)>, max_size: usize) -> Option<(usize, usize)> {
    let mut it = by_size.iter();
    let (&(s1, c1), &(s2, c2)) = (it.next()?, it.next()?);
    (s1 + s2 <= max_size).then(|| (c1.min(c2) as usize, c1.max(c2) as usize))
}

/// Union-find root of `x`, halving the path on the way.
fn find(parent: &mut [u32], mut x: u32) -> u32 {
    while parent[x as usize] != x {
        let up = parent[parent[x as usize] as usize];
        parent[x as usize] = up;
        x = up;
    }
    x
}

/// One KL refinement pass; returns true if any move was made.
fn refine_once(graph: &CommGraph, assignment: &mut [u32], max_size: usize) -> bool {
    let n = assignment.len();
    let mut sizes = vec![0usize; n];
    for &c in assignment.iter() {
        sizes[c as usize] += 1;
    }
    // Traffic from the current rank toward each cluster; `touched` lists
    // the clusters with a nonzero entry so resetting stays O(degree).
    let mut toward = vec![0u64; n];
    let mut touched: Vec<u32> = Vec::new();
    let mut moved = false;
    for r in 0..n {
        let my_cluster = assignment[r];
        if sizes[my_cluster as usize] == 1 {
            continue; // would empty a cluster
        }
        for (nb, weight) in graph.neighbors(Rank(r as u32)) {
            let c = assignment[nb.idx()];
            if toward[c as usize] == 0 {
                touched.push(c);
            }
            toward[c as usize] += weight;
        }
        let home = toward[my_cluster as usize];
        // Best alternative cluster: heaviest, then smallest id.
        let best = touched
            .iter()
            .filter(|&&c| c != my_cluster && sizes[c as usize] < max_size)
            .map(|&c| (toward[c as usize], Reverse(c)))
            .max();
        for c in touched.drain(..) {
            toward[c as usize] = 0;
        }
        if let Some((w, Reverse(c))) = best {
            if w > home {
                assignment[r] = c;
                sizes[my_cluster as usize] -= 1;
                sizes[c as usize] += 1;
                moved = true;
            }
        }
    }
    moved
}

/// Renumber cluster ids densely (0..k), ordered by smallest member rank.
fn compact_ids(assignment: Vec<u32>) -> Vec<u32> {
    let mut mapping = vec![u32::MAX; assignment.len()];
    let mut next = 0u32;
    assignment
        .into_iter()
        .map(|c| {
            let id = &mut mapping[c as usize];
            if *id == u32::MAX {
                *id = next;
                next += 1;
            }
            *id
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two tightly-coupled groups with a thin bridge.
    fn two_communities() -> CommGraph {
        let mut g = CommGraph::new(8);
        for grp in 0..2u32 {
            let base = grp * 4;
            for i in 0..4u32 {
                for j in (i + 1)..4u32 {
                    g.add(Rank(base + i), Rank(base + j), 1000);
                }
            }
        }
        g.add(Rank(3), Rank(4), 1); // bridge
        g
    }

    #[test]
    fn finds_obvious_communities() {
        let g = two_communities();
        let map = partition(&g, &PartitionConfig::with_k(2));
        assert_eq!(map.n_clusters(), 2);
        for i in 0..4u32 {
            assert!(map.same_cluster(Rank(0), Rank(i)), "rank {i}");
            assert!(map.same_cluster(Rank(4), Rank(4 + i)), "rank {}", 4 + i);
        }
        assert!(!map.same_cluster(Rank(0), Rank(4)));
    }

    #[test]
    fn k_equals_n_gives_singletons() {
        let g = two_communities();
        let map = partition(&g, &PartitionConfig::with_k(8));
        assert_eq!(map.n_clusters(), 8);
    }

    #[test]
    fn k_equals_one_gives_single_cluster() {
        let g = two_communities();
        let map = partition(&g, &PartitionConfig::with_k(1));
        assert_eq!(map.n_clusters(), 1);
    }

    #[test]
    fn size_bound_is_respected() {
        let g = two_communities();
        let cfg = PartitionConfig {
            k: 4,
            max_cluster_size: Some(2),
            refine_passes: 4,
        };
        let map = partition(&g, &cfg);
        assert!(map.max_cluster_size() <= 2);
        assert_eq!(map.n_clusters(), 4);
    }

    #[test]
    fn deterministic_output() {
        let g = two_communities();
        let a = partition(&g, &PartitionConfig::with_k(3));
        let b = partition(&g, &PartitionConfig::with_k(3));
        assert_eq!(a.assignment(), b.assignment());
    }

    #[test]
    fn refinement_reduces_cut_on_ring() {
        // A ring of 8 with strong links; k=2 should produce two contiguous
        // arcs (minimal cut = 2 edges).
        let mut g = CommGraph::new(8);
        for i in 0..8u32 {
            g.add(Rank(i), Rank((i + 1) % 8), 100);
        }
        let map = partition(&g, &PartitionConfig::balanced(2, 8));
        let cut: u64 = (0..8u32)
            .map(|i| {
                let j = (i + 1) % 8;
                if map.same_cluster(Rank(i), Rank(j)) {
                    0
                } else {
                    100
                }
            })
            .sum();
        assert_eq!(cut, 200, "minimal ring cut is two edges");
    }

    #[test]
    #[should_panic(expected = "need 1 <= k <= n")]
    fn zero_k_panics() {
        let g = CommGraph::new(4);
        let _ = partition(&g, &PartitionConfig::with_k(0));
    }
}
