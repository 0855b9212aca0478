//! Weighted communication graphs.
//!
//! The paper's clustering tool (Ropars et al. \[28\]) consumes "a graph
//! defining the amount of data sent in each application channel",
//! collected by instrumenting MPICH2. We build the same graph statically
//! from an [`mps_sim::Application`]'s op streams: no run is needed,
//! because our programs declare their traffic.

use mps_sim::{Application, Rank};

/// Undirected weighted communication graph over ranks, stored as
/// per-rank sparse adjacency: memory O(ranks + communicating pairs).
#[derive(Debug, Clone)]
pub struct CommGraph {
    /// `adj[i]` = `(j, bytes exchanged between i and j, both
    /// directions)` for every `j != i` with nonzero traffic, ascending
    /// in `j`. Symmetric: `(j, w)` in `adj[i]` iff `(i, w)` in `adj[j]`.
    adj: Vec<Vec<(u32, u64)>>,
    /// Sum of all pair weights (each undirected pair counted once).
    total: u64,
}

impl CommGraph {
    pub fn new(n: usize) -> Self {
        CommGraph {
            adj: vec![Vec::new(); n],
            total: 0,
        }
    }

    pub fn n_ranks(&self) -> usize {
        self.adj.len()
    }

    /// Add `bytes` of traffic between `a` and `b` (order irrelevant).
    pub fn add(&mut self, a: Rank, b: Rank, bytes: u64) {
        if a == b || bytes == 0 {
            return;
        }
        for (row, col) in [(a, b), (b, a)] {
            let row = &mut self.adj[row.idx()];
            match row.binary_search_by_key(&col.0, |&(j, _)| j) {
                Ok(p) => row[p].1 += bytes,
                Err(p) => row.insert(p, (col.0, bytes)),
            }
        }
        self.total += bytes;
    }

    #[inline]
    pub fn weight(&self, a: Rank, b: Rank) -> u64 {
        let row = &self.adj[a.idx()];
        match row.binary_search_by_key(&b.0, |&(j, _)| j) {
            Ok(p) => row[p].1,
            Err(_) => 0,
        }
    }

    /// Total traffic (each undirected pair counted once).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Build statically from an application's programs, streaming each
    /// rank's aggregated send totals — closed form for generated
    /// programs, so graph extraction is O(ranks × pattern), not
    /// O(ranks × pattern × iterations). Rows are collected unsorted and
    /// coalesced once, so arrival order of the chunks costs nothing.
    pub fn from_application(app: &Application) -> Self {
        let mut adj: Vec<Vec<(u32, u64)>> = vec![Vec::new(); app.n_ranks()];
        let mut total = 0u64;
        app.send_summary(|src, dst, bytes, _msgs| {
            if src != dst && bytes > 0 {
                adj[src.idx()].push((dst.0, bytes));
                adj[dst.idx()].push((src.0, bytes));
                total += bytes;
            }
        });
        for row in &mut adj {
            row.sort_unstable_by_key(|&(j, _)| j);
            row.dedup_by(|next, kept| {
                let same = next.0 == kept.0;
                if same {
                    kept.1 += next.1;
                }
                same
            });
            row.shrink_to_fit();
        }
        CommGraph { adj, total }
    }

    /// Neighbours of `r` with nonzero weight, ascending by rank.
    pub fn neighbors(&self, r: Rank) -> impl Iterator<Item = (Rank, u64)> + '_ {
        self.adj[r.idx()].iter().map(|&(j, w)| (Rank(j), w))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mps_sim::Tag;

    #[test]
    fn add_is_symmetric_and_ignores_self() {
        let mut g = CommGraph::new(3);
        g.add(Rank(0), Rank(1), 10);
        g.add(Rank(1), Rank(0), 5);
        g.add(Rank(2), Rank(2), 100);
        assert_eq!(g.weight(Rank(0), Rank(1)), 15);
        assert_eq!(g.weight(Rank(1), Rank(0)), 15);
        assert_eq!(g.weight(Rank(2), Rank(2)), 0);
        assert_eq!(g.total(), 15);
    }

    #[test]
    fn from_application_counts_sends() {
        let mut app = Application::new(3);
        app.rank_mut(Rank(0)).send(Rank(1), 100, Tag(0));
        app.rank_mut(Rank(1)).recv(Rank(0), Tag(0));
        app.rank_mut(Rank(1)).send(Rank(2), 50, Tag(0));
        app.rank_mut(Rank(2)).recv(Rank(1), Tag(0));
        let g = CommGraph::from_application(&app);
        assert_eq!(g.weight(Rank(0), Rank(1)), 100);
        assert_eq!(g.weight(Rank(1), Rank(2)), 50);
        assert_eq!(g.weight(Rank(0), Rank(2)), 0);
        assert_eq!(g.total(), 150);
    }

    #[test]
    fn neighbors_iterates_nonzero() {
        let mut g = CommGraph::new(4);
        g.add(Rank(0), Rank(2), 7);
        g.add(Rank(0), Rank(3), 9);
        let nb: Vec<_> = g.neighbors(Rank(0)).collect();
        assert_eq!(nb, vec![(Rank(2), 7), (Rank(3), 9)]);
    }
}
