//! Overlay topology generation.
//!
//! Three families cover the experiments: ring-based k-regular lattices
//! (deterministic baseline), Watts–Strogatz small worlds (Gnutella-like
//! clustering with short paths) and Barabási–Albert scale-free graphs
//! (measured Gnutella degree distributions were heavy-tailed).

use crate::peer::PeerId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

/// An undirected overlay graph over peers `0..n`.
#[derive(Debug, Clone)]
pub struct Topology {
    adjacency: Vec<BTreeSet<PeerId>>,
    /// XOR of a hash of every undirected edge, kept current by
    /// `connect`/`disconnect`: equal edge sets give equal fingerprints
    /// whatever the order they were built in.
    fingerprint: u64,
}

impl Topology {
    /// An empty topology over `n` peers.
    pub fn empty(n: usize) -> Self {
        Topology { adjacency: vec![BTreeSet::new(); n], fingerprint: 0 }
    }

    /// Number of peers.
    pub fn len(&self) -> usize {
        self.adjacency.len()
    }

    /// `true` when the topology has no peers.
    pub fn is_empty(&self) -> bool {
        self.adjacency.is_empty()
    }

    /// Adds an undirected edge (self-loops ignored).
    pub fn connect(&mut self, a: PeerId, b: PeerId) {
        if a != b && self.adjacency[a.index()].insert(b) {
            self.adjacency[b.index()].insert(a);
            self.fingerprint ^= edge_hash(a, b);
        }
    }

    /// Removes an undirected edge.
    pub fn disconnect(&mut self, a: PeerId, b: PeerId) {
        if self.adjacency[a.index()].remove(&b) {
            self.adjacency[b.index()].remove(&a);
            self.fingerprint ^= edge_hash(a, b);
        }
    }

    /// A 64-bit summary of the edge set, O(1) to read: what a cache
    /// derived from this graph (the routing-digest edge arena) compares
    /// to notice that the graph was rewired under it.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Neighbors of `p` in id order.
    pub fn neighbors(&self, p: PeerId) -> impl Iterator<Item = PeerId> + '_ {
        self.adjacency[p.index()].iter().copied()
    }

    /// Degree of `p`.
    pub fn degree(&self, p: PeerId) -> usize {
        self.adjacency[p.index()].len()
    }

    /// Total number of undirected edges.
    pub fn edge_count(&self) -> usize {
        self.adjacency.iter().map(BTreeSet::len).sum::<usize>() / 2
    }

    /// Ring lattice: each peer connects to its `k` nearest neighbors on
    /// each side (degree `2k` for `n > 2k`).
    pub fn ring_lattice(n: usize, k: usize) -> Self {
        let mut t = Topology::empty(n);
        for i in 0..n {
            for j in 1..=k {
                let other = (i + j) % n;
                t.connect(PeerId(i as u32), PeerId(other as u32));
            }
        }
        t
    }

    /// Watts–Strogatz small world: ring lattice with each edge rewired
    /// with probability `beta`.
    pub fn small_world(n: usize, k: usize, beta: f64, seed: u64) -> Self {
        let mut t = Self::ring_lattice(n, k);
        let mut rng = StdRng::seed_from_u64(seed);
        for i in 0..n {
            for j in 1..=k {
                if rng.gen::<f64>() < beta {
                    let a = PeerId(i as u32);
                    let b = PeerId(((i + j) % n) as u32);
                    // pick a new endpoint avoiding self and duplicates
                    for _attempt in 0..16 {
                        let c = PeerId(rng.gen_range(0..n) as u32);
                        if c != a && !t.adjacency[a.index()].contains(&c) {
                            t.disconnect(a, b);
                            t.connect(a, c);
                            break;
                        }
                    }
                }
            }
        }
        t
    }

    /// Barabási–Albert preferential attachment: starts from a small
    /// clique, each new peer attaches to `m` existing peers chosen
    /// proportionally to degree.
    pub fn scale_free(n: usize, m: usize, seed: u64) -> Self {
        let m = m.max(1);
        let mut t = Topology::empty(n);
        let mut rng = StdRng::seed_from_u64(seed);
        let seed_size = (m + 1).min(n);
        // initial clique
        for i in 0..seed_size {
            for j in (i + 1)..seed_size {
                t.connect(PeerId(i as u32), PeerId(j as u32));
            }
        }
        // degree-weighted endpoint pool (each edge contributes both ends)
        let mut pool: Vec<PeerId> = Vec::new();
        for (i, neighbors) in t.adjacency.iter().enumerate() {
            for _ in 0..neighbors.len() {
                pool.push(PeerId(i as u32));
            }
        }
        for i in seed_size..n {
            let new = PeerId(i as u32);
            let mut chosen = BTreeSet::new();
            while chosen.len() < m.min(i) {
                let pick = if pool.is_empty() {
                    PeerId(rng.gen_range(0..i) as u32)
                } else {
                    pool[rng.gen_range(0..pool.len())]
                };
                if pick != new {
                    chosen.insert(pick);
                }
            }
            for c in chosen {
                t.connect(new, c);
                pool.push(new);
                pool.push(c);
            }
        }
        t
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

/// Direction-free hash of one edge (splitmix64 finalizer over the
/// ordered endpoint pair).
fn edge_hash(a: PeerId, b: PeerId) -> u64 {
    let (lo, hi) = (a.0.min(b.0) as u64, a.0.max(b.0) as u64);
    let mut x = (hi << 32 | lo).wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
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

    #[test]
    fn connect_disconnect() {
        let mut t = Topology::empty(3);
        t.connect(PeerId(0), PeerId(1));
        t.connect(PeerId(0), PeerId(0)); // self loop ignored
        assert_eq!(t.degree(PeerId(0)), 1);
        assert!(!t.is_connected()); // peer 2 isolated
        t.connect(PeerId(1), PeerId(2));
        assert!(t.is_connected());
        t.disconnect(PeerId(0), PeerId(1));
        assert_eq!(t.degree(PeerId(0)), 0);
    }

    #[test]
    fn fingerprint_follows_the_edge_set_not_its_history() {
        let mut a = Topology::empty(4);
        let empty = a.fingerprint();
        a.connect(PeerId(0), PeerId(1));
        a.connect(PeerId(2), PeerId(3));
        let mut b = Topology::empty(4);
        b.connect(PeerId(3), PeerId(2));
        b.connect(PeerId(1), PeerId(0));
        b.connect(PeerId(1), PeerId(0)); // a repeat changes nothing
        assert_eq!(a.fingerprint(), b.fingerprint());
        // a rewire keeps node and edge counts but not the fingerprint
        b.disconnect(PeerId(2), PeerId(3));
        b.connect(PeerId(1), PeerId(3));
        assert_eq!(a.edge_count(), b.edge_count());
        assert_ne!(a.fingerprint(), b.fingerprint());
        a.disconnect(PeerId(0), PeerId(1));
        a.disconnect(PeerId(0), PeerId(1)); // so does a repeated removal
        a.disconnect(PeerId(2), PeerId(3));
        assert_eq!(a.fingerprint(), empty);
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
        let t = Topology::empty(0);
        assert!(t.is_empty());
        assert!(t.is_connected());
    }
}
