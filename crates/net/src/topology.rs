//! Overlay topology generation, and the one layout of an overlay graph.
//!
//! Three families cover the experiments: ring-based k-regular lattices
//! (deterministic baseline), Watts–Strogatz small worlds (Gnutella-like
//! clustering with short paths) and Barabási–Albert scale-free graphs
//! (measured Gnutella degree distributions were heavy-tailed).
//!
//! A generator grows and rewires edge sets, then freezes them into a
//! [`Topology`]: an immutable CSR whose neighbour runs the walk reads and
//! whose edge ids index the routing digests' layers
//! ([`crate::RouteTable`]).

use crate::peer::PeerId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;
use std::ops::Range;

/// An undirected overlay graph over peers `0..n`, frozen in CSR form.
/// Each undirected edge is two directed ones: the edge `q → p` has
/// advertiser `q` and receiver `p`; `q`'s out-edges are one contiguous
/// run of ids sorted by receiver, and every edge knows the id of its
/// opposite direction. No self-loop and no duplicate edge exists.
#[derive(Debug, Clone)]
pub struct Topology {
    /// Node `q`'s out-edges are the ids `offsets[q]..offsets[q+1]`.
    offsets: Vec<u32>,
    /// Receiver of each edge, ascending within an advertiser's run.
    receivers: Vec<u32>,
    /// Id of the opposite direction of each edge.
    reverse: Vec<u32>,
}

/// Edge sets under construction: what a generator grows and rewires
/// before [`Sets::freeze`] lays them out.
struct Sets(Vec<BTreeSet<u32>>);

impl Sets {
    /// Adds an undirected edge; self-loops and ids outside `0..n` are
    /// ignored.
    fn connect(&mut self, a: u32, b: u32) {
        let n = self.0.len() as u32;
        if a != b && a.max(b) < n && self.0[a as usize].insert(b) {
            self.0[b as usize].insert(a);
        }
    }

    fn freeze(self) -> Topology {
        let mut topo = Topology { offsets: vec![0], receivers: Vec::new(), reverse: Vec::new() };
        for set in &self.0 {
            topo.receivers.extend(set);
            topo.offsets.push(topo.receivers.len() as u32);
        }
        topo.reverse = (0..topo.len() as u32)
            .flat_map(|q| topo.run(q).map(move |e| (q, e)))
            // the graph is undirected, so the opposite direction exists
            .map(|(q, e)| topo.edge(topo.receivers[e], q).unwrap_or(e) as u32)
            .collect();
        topo
    }
}

impl Topology {
    /// The graph over peers `0..n` with the undirected `edges`;
    /// self-loops, duplicates and ids outside `0..n` are ignored.
    pub fn from_edges(n: usize, edges: impl IntoIterator<Item = (PeerId, PeerId)>) -> Self {
        let mut sets = Sets(vec![BTreeSet::new(); n]);
        edges.into_iter().for_each(|(a, b)| sets.connect(a.0, b.0));
        sets.freeze()
    }

    /// Number of peers.
    pub fn len(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// `true` when the topology has no peers.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Neighbors of `p` in id order (none for an id outside the graph).
    pub fn neighbors(&self, p: PeerId) -> impl Iterator<Item = PeerId> + '_ {
        self.receivers[self.run(p.0)].iter().map(|&q| PeerId(q))
    }

    /// Degree of `p`.
    pub fn degree(&self, p: PeerId) -> usize {
        self.run(p.0).len()
    }

    /// Total number of undirected edges.
    pub fn edge_count(&self) -> usize {
        self.receivers.len() / 2
    }

    /// Ids of `advertiser`'s out-edges, ascending by receiver (empty for
    /// an id outside the graph).
    pub(crate) fn run(&self, advertiser: u32) -> Range<usize> {
        let at = |i: usize| self.offsets.get(i).map_or(self.receivers.len(), |&o| o as usize);
        at(advertiser as usize)..at(advertiser as usize + 1)
    }

    /// Id of the edge `advertiser → receiver`, if the two are neighbours.
    pub(crate) fn edge(&self, advertiser: u32, receiver: u32) -> Option<usize> {
        let run = self.run(advertiser);
        self.receivers[run.clone()].binary_search(&receiver).ok().map(|i| run.start + i)
    }

    /// Receiver of edge `e`.
    pub(crate) fn receiver(&self, e: usize) -> u32 {
        self.receivers[e]
    }

    /// Id of the opposite direction of edge `e`.
    pub(crate) fn reverse(&self, e: usize) -> usize {
        self.reverse[e] as usize
    }

    /// Advertiser of edge `e`: the receiver of its reverse.
    pub(crate) fn advertiser(&self, e: usize) -> u32 {
        self.receivers[self.reverse(e)]
    }

    /// Ring lattice: each peer connects to its `k` nearest neighbors on
    /// each side (degree `2k` for `n > 2k`).
    pub fn ring_lattice(n: usize, k: usize) -> Self {
        Self::lattice_sets(n, k).freeze()
    }

    fn lattice_sets(n: usize, k: usize) -> Sets {
        let mut sets = Sets(vec![BTreeSet::new(); n]);
        for i in 0..n {
            for j in 1..=k {
                sets.connect(i as u32, ((i + j) % n) as u32);
            }
        }
        sets
    }

    /// Watts–Strogatz small world: ring lattice with each edge rewired
    /// with probability `beta`.
    pub fn small_world(n: usize, k: usize, beta: f64, seed: u64) -> Self {
        let mut sets = Self::lattice_sets(n, k);
        let mut rng = StdRng::seed_from_u64(seed);
        for i in 0..n {
            for j in 1..=k {
                if rng.gen::<f64>() < beta {
                    let (a, b) = (i as u32, ((i + j) % n) as u32);
                    // pick a new endpoint avoiding self and duplicates
                    for _attempt in 0..16 {
                        let c = rng.gen_range(0..n) as u32;
                        if c != a && !sets.0[a as usize].contains(&c) {
                            if sets.0[a as usize].remove(&b) {
                                sets.0[b as usize].remove(&a);
                            }
                            sets.connect(a, c);
                            break;
                        }
                    }
                }
            }
        }
        sets.freeze()
    }

    /// Barabási–Albert preferential attachment: starts from a small
    /// clique, each new peer attaches to `m` existing peers chosen
    /// proportionally to degree.
    pub fn scale_free(n: usize, m: usize, seed: u64) -> Self {
        let m = m.max(1);
        let mut sets = Sets(vec![BTreeSet::new(); n]);
        let mut rng = StdRng::seed_from_u64(seed);
        let seed_size = (m + 1).min(n);
        // initial clique
        for i in 0..seed_size {
            for j in (i + 1)..seed_size {
                sets.connect(i as u32, j as u32);
            }
        }
        // degree-weighted endpoint pool (each edge contributes both ends)
        let mut pool: Vec<u32> = Vec::new();
        for (i, neighbors) in sets.0.iter().enumerate() {
            for _ in 0..neighbors.len() {
                pool.push(i as u32);
            }
        }
        for i in seed_size..n {
            let new = i as u32;
            let mut chosen = BTreeSet::new();
            while chosen.len() < m.min(i) {
                let pick = if pool.is_empty() {
                    rng.gen_range(0..i) as u32
                } else {
                    pool[rng.gen_range(0..pool.len())]
                };
                if pick != new {
                    chosen.insert(pick);
                }
            }
            for c in chosen {
                sets.connect(new, c);
                pool.push(new);
                pool.push(c);
            }
        }
        sets.freeze()
    }

    /// Is the graph connected (ignoring isolated zero-degree peers is NOT
    /// done — every peer must be reachable)?
    pub fn is_connected(&self) -> bool {
        let n = self.len();
        if n == 0 {
            return true;
        }
        let mut seen = vec![false; n];
        let mut stack = vec![PeerId(0)];
        seen[0] = true;
        let mut count = 1;
        while let Some(p) = stack.pop() {
            for nb in self.neighbors(p) {
                if !seen[nb.index()] {
                    seen[nb.index()] = true;
                    count += 1;
                    stack.push(nb);
                }
            }
        }
        count == n
    }

    /// All peer ids.
    pub fn peers(&self) -> impl Iterator<Item = PeerId> {
        (0..self.len() as u32).map(PeerId)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_lattice_degrees() {
        let t = Topology::ring_lattice(10, 2);
        for p in t.peers() {
            assert_eq!(t.degree(p), 4, "{p}");
        }
        assert!(t.is_connected());
        assert_eq!(t.edge_count(), 20);
    }

    #[test]
    fn small_world_stays_connected_mostly() {
        let t = Topology::small_world(100, 3, 0.1, 42);
        assert_eq!(t.len(), 100);
        // rewiring preserves edge count
        assert_eq!(t.edge_count(), 300);
        assert!(t.is_connected(), "beta=0.1 rewiring should keep the ring backbone connected");
    }

    #[test]
    fn scale_free_has_heavy_tail() {
        let t = Topology::scale_free(200, 2, 7);
        assert!(t.is_connected());
        let max_degree = t.peers().map(|p| t.degree(p)).max().unwrap();
        let min_degree = t.peers().map(|p| t.degree(p)).min().unwrap();
        assert!(min_degree >= 2);
        assert!(
            max_degree >= 10,
            "preferential attachment should produce hubs, max degree {max_degree}"
        );
    }

    /// The CSR invariants: each node's run ascends strictly (so no
    /// duplicate), no edge is a self-loop, and every edge's reverse
    /// leads back, from its receiver to its advertiser.
    fn assert_well_formed(t: &Topology, name: &str) {
        for q in 0..t.len() as u32 {
            let run = t.run(q);
            let receivers: Vec<u32> = run.clone().map(|e| t.receiver(e)).collect();
            assert!(receivers.windows(2).all(|w| w[0] < w[1]), "{name}: run of {q} {receivers:?}");
            for e in run {
                assert_ne!(t.receiver(e), q, "{name}: self-loop at {q}");
                assert_eq!(t.advertiser(e), q, "{name}: edge {e}");
                assert_eq!(t.reverse(t.reverse(e)), e, "{name}: edge {e}");
                assert_eq!(t.receiver(t.reverse(e)), t.advertiser(e), "{name}: edge {e}");
                assert_eq!(t.edge(q, t.receiver(e)), Some(e), "{name}: edge {e}");
            }
        }
    }

    #[test]
    fn every_graph_is_a_well_formed_csr() {
        let messy = [(0, 1), (1, 0), (0, 1), (2, 2), (1, 2), (3, 0), (0, 3), (9, 1)];
        let from_edges = Topology::from_edges(4, messy.map(|(a, b)| (PeerId(a), PeerId(b))));
        for (name, t) in [
            ("ring_lattice", Topology::ring_lattice(10, 2)),
            ("small_world", Topology::small_world(60, 3, 0.3, 5)),
            ("scale_free", Topology::scale_free(60, 2, 5)),
            ("from_edges", from_edges),
            ("empty", Topology::from_edges(3, [])),
        ] {
            assert_well_formed(&t, name);
        }
    }

    #[test]
    fn from_edges_ignores_self_loops_duplicates_and_strangers() {
        let edge = |a, b| (PeerId(a), PeerId(b));
        let t = Topology::from_edges(3, [edge(0, 1), edge(1, 0), edge(0, 0), edge(0, 7)]);
        assert_eq!((t.degree(PeerId(0)), t.edge_count()), (1, 1));
        assert!(!t.is_connected()); // peer 2 isolated
        assert_eq!(t.neighbors(PeerId(7)).count(), 0, "an id outside the graph has none");
        assert_eq!(t.edge(7, 0), None);
        let t = Topology::from_edges(3, [edge(0, 1), edge(1, 2)]);
        assert!(t.is_connected());
        assert_eq!(t.neighbors(PeerId(1)).collect::<Vec<_>>(), vec![PeerId(0), PeerId(2)]);
    }

    /// The neighbour lists the generators produced before the CSR
    /// layout: freezing the edge sets rewires nothing.
    #[test]
    fn generators_match_the_pre_csr_neighbour_lists() {
        let lists = |t: &Topology| -> Vec<Vec<u32>> {
            t.peers().map(|p| t.neighbors(p).map(|q| q.0).collect()).collect()
        };
        let small_world: [&[u32]; 16] = [
            &[2, 6, 14, 15], &[2, 3], &[0, 1, 3, 14], &[1, 2, 4, 11], &[3, 6, 11], &[6, 7],
            &[0, 4, 5, 7, 8], &[5, 6, 8, 13], &[6, 7, 9, 10], &[8, 10, 12, 14],
            &[8, 9, 11, 12], &[3, 4, 10, 12, 13, 15], &[9, 10, 11, 13, 14],
            &[7, 11, 12, 14, 15], &[0, 2, 9, 12, 13], &[0, 11, 13],
        ];
        assert_eq!(lists(&Topology::small_world(16, 2, 0.2, 7)), small_world.map(<[u32]>::to_vec));
        let scale_free: [&[u32]; 16] = [
            &[1, 2, 4, 11], &[0, 2, 3, 4, 6, 9], &[0, 1, 3, 5, 6, 10, 14],
            &[1, 2, 5, 7, 8, 9, 13, 15], &[0, 1, 7, 10], &[2, 3], &[1, 2, 13],
            &[3, 4, 8, 12, 15], &[3, 7, 12, 14], &[1, 3, 11], &[2, 4], &[0, 9], &[7, 8],
            &[3, 6], &[2, 8], &[3, 7],
        ];
        assert_eq!(lists(&Topology::scale_free(16, 2, 7)), scale_free.map(<[u32]>::to_vec));
    }

    #[test]
    fn deterministic_generation() {
        let a = Topology::small_world(50, 2, 0.2, 9);
        let b = Topology::small_world(50, 2, 0.2, 9);
        for p in a.peers() {
            assert_eq!(
                a.neighbors(p).collect::<Vec<_>>(),
                b.neighbors(p).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn empty_topology() {
        let t = Topology::from_edges(0, []);
        assert!(t.is_empty());
        assert!(t.is_connected());
    }
}
