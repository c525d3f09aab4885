//! World construction: N servents over one simulated fabric.
#![expect(clippy::expect_used, reason = "the experiment harness fails fast; continuing after a failed publish would silently skew every measured table")]

use crate::corpus;
use crate::workload::{assign_providers, rng_for};
use rand::rngs::StdRng;
use up2p_core::{Community, PayloadPlane, Servent};
use up2p_net::{build_network, PeerId, PeerNetwork, ProtocolKind, SearchOutcome};
use up2p_store::Query;

/// A complete simulated deployment: fabric, payload plane and one servent
/// per peer.
pub struct World {
    /// The metadata/routing fabric.
    pub net: Box<dyn PeerNetwork>,
    /// The payload plane.
    pub plane: PayloadPlane,
    /// One servent per peer, indexed by peer id.
    pub servents: Vec<Servent>,
}

impl std::fmt::Debug for World {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("World")
            .field("protocol", &self.net.protocol_name())
            .field("peers", &self.servents.len())
            .finish()
    }
}

impl World {
    /// Builds a world of `peers` servents over the given protocol.
    pub fn new(kind: ProtocolKind, peers: usize, seed: u64) -> World {
        World::over(build_network(kind, peers, seed), peers)
    }

    /// A world of `peers` servents over a fabric built by the caller.
    fn over(net: Box<dyn PeerNetwork>, peers: usize) -> World {
        let servents = (0..peers).map(|i| Servent::new(PeerId(i as u32))).collect();
        World { net, plane: PayloadPlane::new(), servents }
    }

    /// Number of peers.
    pub fn len(&self) -> usize {
        self.servents.len()
    }

    /// `true` for a world without peers.
    pub fn is_empty(&self) -> bool {
        self.servents.is_empty()
    }

    /// Makes every servent a member of `community` (local join — the
    /// network discovery path is exercised by the E3 scenario itself).
    pub fn join_all(&mut self, community: &Community) {
        for s in &mut self.servents {
            s.join(community.clone());
        }
    }

    /// Distributes the GoF corpus over the peers with `replicas`
    /// providers per pattern.
    ///
    /// # Panics
    ///
    /// Panics on validation failure — corpus objects are known-valid.
    pub fn populate_patterns(&mut self, community: &Community, replicas: usize, rng: &mut StdRng) {
        let assignment =
            assign_providers(corpus::GOF_PATTERNS.len(), self.len(), replicas, rng);
        for (p, providers) in corpus::GOF_PATTERNS.iter().zip(assignment) {
            let values = corpus::pattern_values(p);
            for provider in providers {
                let s = &mut self.servents[provider as usize];
                let obj = s.create_object(&community.id, &values).expect("corpus object is valid");
                s.publish(&mut *self.net, &mut self.plane, &obj).expect("member of community");
            }
        }
    }

    /// Runs one search from a peer.
    ///
    /// # Panics
    ///
    /// Panics if `peer` is not a member of `community`.
    pub fn search_from(
        &mut self,
        peer: usize,
        community: &Community,
        query: &Query,
    ) -> SearchOutcome {
        self.servents[peer]
            .search(&mut *self.net, &community.id, query)
            .expect("member of community")
    }
}

/// Convenience: a fresh deterministic world populated with the GoF
/// design-pattern community, used by several scenarios and benches.
pub fn pattern_world(
    kind: ProtocolKind,
    peers: usize,
    replicas: usize,
    seed: u64,
) -> (World, Community) {
    pattern_world_over(build_network(kind, peers, seed), peers, replicas, rng_for(seed, "populate"))
}

/// [`pattern_world`] over a fabric built by the caller, providers drawn
/// from `rng`.
pub(crate) fn pattern_world_over(
    net: Box<dyn PeerNetwork>,
    peers: usize,
    replicas: usize,
    mut rng: StdRng,
) -> (World, Community) {
    let community = corpus::pattern_community();
    let mut world = World::over(net, peers);
    world.join_all(&community);
    world.populate_patterns(&community, replicas, &mut rng);
    (world, community)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn world_builds_and_searches_on_all_protocols() {
        for kind in [ProtocolKind::Napster, ProtocolKind::Gnutella, ProtocolKind::FastTrack] {
            let (mut world, community) = pattern_world(kind, 32, 2, 7);
            let out = world.search_from(5, &community, &Query::any_keyword("observer"));
            assert!(
                !out.hits.is_empty(),
                "{kind}: observer should be discoverable from peer 5"
            );
        }
    }

    #[test]
    fn populate_registers_23_objects() {
        let (world, community) = pattern_world(ProtocolKind::Napster, 16, 1, 3);
        let total: usize = world
            .servents
            .iter()
            .map(|s| s.repository().search(Some(&community.id), &Query::All).len())
            .sum();
        assert_eq!(total, 23);
        assert_eq!(world.plane.len(), 23);
    }

    #[test]
    fn replicas_multiply_local_copies() {
        let (world, community) = pattern_world(ProtocolKind::Napster, 16, 3, 3);
        let total: usize = world
            .servents
            .iter()
            .map(|s| s.repository().search(Some(&community.id), &Query::All).len())
            .sum();
        assert_eq!(total, 69, "23 patterns x 3 replicas");
    }

    #[test]
    fn worlds_are_deterministic() {
        let run = || {
            let (mut world, community) = pattern_world(ProtocolKind::Gnutella, 24, 2, 11);
            let out = world.search_from(3, &community, &Query::any_keyword("factory"));
            (out.hits.len(), out.messages, out.latency)
        };
        assert_eq!(run(), run());
    }
}
