//! FastTrack: leaves publish metadata to their super-peer; queries
//! flood only the (much smaller) super-peer overlay.
//!
//! Sits between Napster and Gnutella in the E6 comparison: no single
//! server, but message cost scales with super-peer edges rather than all
//! peers. Every super-peer's record table is an [`IndexNode`], so each
//! super answers a query with a posting-list lookup over its leaves'
//! records instead of scanning them. What is FastTrack's alone — the
//! leaves' assignment, the supers' indexes and the leaf↔super write
//! path — is [`Supers`]; the rest of the protocol is the one
//! [`crate::Substrate`]'s and its driver's, [`crate::DesNetwork`]. Who
//! shares what is said once, by the provider sets of those indexes: a
//! retrieve asks the provider's super, as Napster's asks its server.

use crate::digest::DigestConfig;
use crate::index_node::IndexNode;
use crate::message::{ResourceRecord, SharedFields};
use crate::peer::PeerId;
use crate::stats::{MsgKind, NetStats};
use crate::topology::Topology;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration for the super-peer substrate.
#[derive(Debug, Clone, Copy)]
pub struct SuperPeerConfig {
    /// Number of super-peers (the first `supers` peer ids).
    pub supers: usize,
    /// Each-side neighbor count of the super-peer ring lattice before
    /// small-world rewiring.
    pub super_degree: usize,
    /// TTL for flooding among super-peers.
    pub ttl: u8,
    /// Routing-digest layer over the super overlay; `enabled: true`
    /// prunes the super-peer flood, as the `search_guided` workload runs it.
    pub digests: DigestConfig,
}

impl Default for SuperPeerConfig {
    fn default() -> Self {
        SuperPeerConfig { supers: 8, super_degree: 2, ttl: 4, digests: DigestConfig::default() }
    }
}

/// The supers of a FastTrack network and what they index: super `s` is
/// peer `s`, node `s` of the super overlay, and holds index `s`.
pub(crate) struct Supers {
    /// peer index → index of its super-peer (supers map to themselves).
    super_of: Vec<u32>,
    /// Per-super metadata index over its leaves' records, and with its
    /// provider sets the one record of which peer shares which key.
    indexes: Vec<IndexNode>,
}

impl Supers {
    /// The supers of `n` peers and the overlay among them: the first
    /// `config.supers` ids are supers, every other peer is assigned a
    /// uniformly random one (seeded).
    ///
    /// # Panics
    ///
    /// Panics if `config.supers` is zero or exceeds `n`.
    #[expect(clippy::disallowed_macros, reason = "`# Panics` unless 1 <= supers <= n; `Substrate::build` passes `NetConfig::super_count`, clamped to 1..=n, and builds at least one peer; the other callers are tests with literal counts below n")]
    pub fn new(n: usize, config: SuperPeerConfig, seed: u64) -> (Supers, Topology) {
        assert!(config.supers > 0 && config.supers <= n, "invalid super count");
        let mut rng = StdRng::seed_from_u64(seed);
        let super_of = (0..n)
            .map(|i| if i < config.supers { i } else { rng.gen_range(0..config.supers) } as u32)
            .collect();
        let topology = if config.supers <= 3 {
            Topology::ring_lattice(config.supers, 1)
        } else {
            Topology::small_world(config.supers, config.super_degree, 0.2, seed ^ 0x5eed)
        };
        let supers = Supers {
            super_of,
            indexes: std::iter::repeat_with(IndexNode::new).take(config.supers).collect(),
        };
        (supers, topology)
    }

    /// The super-peer index a peer is attached to; `None` for an id
    /// outside the network.
    pub fn super_of(&self, peer: PeerId) -> Option<usize> {
        self.super_of.get(peer.index()).map(|&s| s as usize)
    }

    /// Super `s`'s index.
    pub fn index(&self, s: u32) -> &IndexNode {
        &self.indexes[s as usize]
    }

    /// Does `provider` hold the object `key`? Its super's index lists it
    /// among the record's providers exactly while it shares the key.
    pub fn owns(&self, provider: PeerId, key: &str) -> bool {
        self.super_of(provider).is_some_and(|s| self.indexes[s].has_provider(key, provider))
    }

    /// A live peer of the network shares `record`: a leaf uploads it to
    /// its super (one `Publish`). Returns the super when the record
    /// entered its index — the first record under a key wins.
    pub fn publish(
        &mut self,
        provider: PeerId,
        record: &ResourceRecord,
        stats: &mut NetStats,
    ) -> Option<u32> {
        let s = self.super_of[provider.index()];
        if s != provider.0 {
            stats.sent(MsgKind::Publish); // leaf → super upload
        }
        self.indexes[s as usize].insert(provider, record).then_some(s)
    }

    /// A peer of the network withdraws `key`: a leaf tells its super (one
    /// `Unpublish`). Returns the super, with the community and fields of
    /// the record, when it left the index with its last provider.
    pub fn unpublish(
        &mut self,
        provider: PeerId,
        key: &str,
        stats: &mut NetStats,
    ) -> Option<(u32, &str, SharedFields)> {
        let s = self.super_of[provider.index()];
        if s != provider.0 {
            stats.sent(MsgKind::Unpublish);
        }
        let node = &mut self.indexes[s as usize];
        let (slot, fields) = node.remove_slot(provider, key)?;
        Some((s, node.community_name(slot), fields))
    }

    /// Deterministic estimate of resident bytes: super indexes and the
    /// leaves' assignment.
    pub fn approx_bytes(&self) -> u64 {
        let indexes: u64 = self.indexes.iter().map(|i| i.len() as u64 * 256).sum();
        indexes + self.super_of.len() as u64 * 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::des::DesNetwork;
    use crate::latency::LatencySpec;
    use crate::stats::{Fate, RetrieveOutcome, SearchOutcome};
    use crate::substrate::Substrate;
    use crate::traits::{PeerNetwork, SearchRequest};
    use std::collections::BTreeSet;
    use up2p_store::Query;

    fn record(key: &str, name: &str) -> ResourceRecord {
        ResourceRecord::new(key, "c", vec![("o/name".to_string(), name.to_string())])
    }

    fn net(n: usize, supers: usize) -> DesNetwork {
        DesNetwork::new(Substrate::fasttrack(
            n,
            SuperPeerConfig { supers, super_degree: 2, ttl: 6, ..SuperPeerConfig::default() },
            LatencySpec::Constant(1_000).build(n, 1),
            42,
        ))
    }

    #[test]
    fn leaves_are_assigned_to_supers() {
        let net = net(50, 5);
        for p in 0..50u32 {
            let s = net.substrate().super_of(PeerId(p)).expect("in range");
            assert!(s < 5);
            // a peer is a super exactly when it is its own super
            assert_eq!(s == p as usize, p < 5, "peer {p} under super {s}");
        }
    }

    #[test]
    fn publish_search_across_supers() {
        let mut net = net(50, 5);
        net.publish(PeerId(30), record("k", "observer"));
        let out = net.search(PeerId(40), "c", &Query::any_keyword("observer"));
        assert_eq!(out.hits.len(), 1);
        assert_eq!(out.hits[0].provider, PeerId(30));
        assert!(out.messages >= 2, "at least uplink + some flooding");
    }

    #[test]
    fn message_cost_scales_with_supers_not_peers() {
        let mut big_flat = net(400, 5);
        big_flat.publish(PeerId(300), record("k", "x"));
        let out = big_flat.search(PeerId(200), "c", &Query::any_keyword("x"));
        // super overlay has 5 nodes / ~10 edges; cost must not approach 400
        assert!(out.messages < 50, "messages {} should be tiny", out.messages);
        assert_eq!(out.hits.len(), 1);
    }

    #[test]
    fn dead_super_orphans_its_leaves() {
        let mut net = net(20, 4);
        // find a leaf and kill its super
        let leaf = PeerId(15);
        let s = net.substrate().super_of(leaf).expect("in range");
        net.publish(PeerId(10), record("k", "x"));
        net.set_alive(PeerId(s as u32), false);
        let out = net.search(leaf, "c", &Query::any_keyword("x"));
        assert!(out.hits.is_empty(), "orphaned leaf cannot search");
    }

    #[test]
    fn dead_provider_filtered() {
        let mut net = net(20, 4);
        net.publish(PeerId(10), record("k", "x"));
        net.set_alive(PeerId(10), false);
        let out = net.search(PeerId(12), "c", &Query::any_keyword("x"));
        assert!(out.hits.is_empty());
        assert!(!net.retrieve(PeerId(12), PeerId(10), "k").is_fetched());
    }

    #[test]
    fn super_origin_searches_without_uplink() {
        let mut net = net(20, 4);
        net.publish(PeerId(0), record("k", "x"));
        let out = net.search(PeerId(0), "c", &Query::any_keyword("x"));
        assert_eq!(out.hits.len(), 1);
        assert_eq!(out.hits[0].hops, 0, "own index, no uplink hop");
    }

    #[test]
    fn retrieve_round_trip() {
        let mut net = net(20, 4);
        net.publish(PeerId(10), record("k", "x"));
        let got = net.retrieve(PeerId(12), PeerId(10), "k");
        assert!(got.is_fetched());
        if let RetrieveOutcome::Fetched { latency, .. } = got {
            assert_eq!(latency, 2_000);
        }
    }

    #[test]
    fn unpublish_removes_from_super_index() {
        let mut net = net(20, 4);
        net.publish(PeerId(10), record("k", "x"));
        net.unpublish(PeerId(10), "k");
        let out = net.search(PeerId(12), "c", &Query::any_keyword("x"));
        assert!(out.hits.is_empty());
    }

    #[test]
    #[should_panic(expected = "invalid super count")]
    fn zero_supers_rejected() {
        net(10, 0);
    }

    #[test]
    fn retrieve_failure_kinds_are_counted() {
        let mut net = net(20, 4);
        net.publish(PeerId(10), record("k", "x"));
        assert!(net.retrieve(PeerId(12), PeerId(10), "k").is_fetched());
        // live provider without the object answers RetrieveFail
        assert!(!net.retrieve(PeerId(12), PeerId(11), "k").is_fetched());
        // dead provider: the request is dropped, no response of any kind
        net.set_alive(PeerId(10), false);
        assert!(!net.retrieve(PeerId(12), PeerId(10), "k").is_fetched());
        assert_eq!(net.stats().count(MsgKind::Retrieve), 3);
        assert_eq!(net.stats().count(MsgKind::RetrieveOk), 1);
        assert_eq!(net.stats().count(MsgKind::RetrieveFail), 1);
        assert_eq!(net.stats().fate_count(Fate::ProviderOffline), 1);
        assert_eq!(net.stats().retrieves, 3);
        assert_eq!(net.stats().retrieves_ok, 1);

        // two leaves under different supers share "k2": a retrieve asks
        // the provider's super, so one withdrawal fails only its own
        let a = PeerId(13);
        let sup = |p| net.substrate().super_of(p).expect("in range");
        let b = (4..20).map(PeerId).find(|&p| sup(p) != sup(a)).expect("another super's leaf");
        net.publish(a, record("k2", "y"));
        net.publish(b, record("k2", "y"));
        net.unpublish(a, "k2");
        net.reset_stats();
        assert!(!net.retrieve(PeerId(12), a, "k2").is_fetched());
        assert!(net.retrieve(PeerId(12), b, "k2").is_fetched());
        net.publish(a, record("k2", "y"));
        assert!(net.retrieve(PeerId(12), a, "k2").is_fetched(), "republished");
        assert_eq!(net.stats().count(MsgKind::RetrieveFail), 1);
        assert_eq!(net.stats().count(MsgKind::RetrieveOk), 2);
    }

    #[test]
    fn dead_origin_retrieve_sends_no_messages() {
        let mut net = net(20, 4);
        net.publish(PeerId(10), record("k", "x"));
        net.reset_stats();
        net.set_alive(PeerId(12), false);
        assert!(!net.retrieve(PeerId(12), PeerId(10), "k").is_fetched());
        assert_eq!(net.stats().retrieves, 1, "the attempt is still counted");
        assert_eq!(net.stats().messages, 0, "a dead peer cannot send");
    }

    fn guided_net(n: usize, supers: usize) -> DesNetwork {
        DesNetwork::new(Substrate::fasttrack(
            n,
            SuperPeerConfig {
                supers,
                super_degree: 2,
                ttl: 6,
                digests: DigestConfig::guided(),
            },
            LatencySpec::Constant(1_000).build(n, 1),
            42,
        ))
    }

    #[test]
    fn guided_super_flood_still_finds_records() {
        let mut blind = net(50, 8);
        let mut guided = guided_net(50, 8);
        for target in [PeerId(30), PeerId(45)] {
            blind.publish(target, record(&format!("k{target:?}"), "observer"));
            guided.publish(target, record(&format!("k{target:?}"), "observer"));
        }
        let b = blind.search(PeerId(40), "c", &Query::any_keyword("observer"));
        let g = guided.search(PeerId(40), "c", &Query::any_keyword("observer"));
        assert!(!g.hits.is_empty(), "guided search still reaches a replica");
        // guided hits ⊆ blind hits (same assignment seed, same records)
        let blind_hits: BTreeSet<(String, PeerId)> =
            b.hits.into_iter().map(|h| (h.key, h.provider)).collect();
        for h in &g.hits {
            assert!(blind_hits.contains(&(h.key.clone(), h.provider)), "{h:?}");
        }
        assert!(
            g.messages <= b.messages,
            "guided ({}) must not exceed the blind super flood ({})",
            g.messages,
            b.messages
        );
    }

    #[test]
    fn batch_serving_is_exactly_sequential_serving_in_flood_mode() {
        let build = || {
            let mut n = net(60, 8);
            for p in [20u32, 35, 50] {
                n.publish(PeerId(p), record(&format!("k{p}"), "observer"));
            }
            n.set_alive(PeerId(41), false); // one dead origin in the batch
            n
        };
        let requests = vec![
            SearchRequest::new(PeerId(40), "c", Query::any_keyword("observer")),
            SearchRequest::new(PeerId(0), "c", Query::any_keyword("observer")),
            SearchRequest::new(PeerId(41), "c", Query::any_keyword("observer")),
            SearchRequest::new(PeerId(42), "c", Query::any_keyword("missing")),
        ];
        let mut seq = build();
        let expected: Vec<SearchOutcome> = requests
            .iter()
            .map(|r| seq.search(r.origin, &r.community, &r.query))
            .collect();
        for workers in [1usize, 4] {
            let mut batch = build();
            let got = batch.search_batch(&requests, workers);
            assert_eq!(got.len(), expected.len());
            for (g, e) in got.iter().zip(&expected) {
                assert_eq!(g.hits, e.hits, "workers={workers}");
                assert_eq!(g.messages, e.messages, "workers={workers}");
                assert_eq!(g.latency, e.latency, "workers={workers}");
                assert_eq!(g.first_hit_latency, e.first_hit_latency, "workers={workers}");
            }
            let (s, b) = (seq.stats(), batch.stats());
            assert_eq!(b.messages, s.messages, "workers={workers}");
            assert_eq!(b.by_kind(), s.by_kind(), "workers={workers}");
            assert_eq!(b.queries, s.queries, "workers={workers}");
            assert_eq!(b.queries_with_hits, s.queries_with_hits, "workers={workers}");
            assert_eq!(b.hits, s.hits, "workers={workers}");
            let fates = |stats: &NetStats| Fate::ALL.map(|f| stats.fate_count(f));
            assert_eq!(fates(b), fates(s), "workers={workers}");
            assert_eq!(b.hit_hops, s.hit_hops, "workers={workers}");
        }
    }

    #[test]
    fn guided_batch_finds_the_same_hits_and_pays_digests_once() {
        let build = || {
            let mut n = guided_net(50, 8);
            n.publish(PeerId(30), record("k", "x"));
            n
        };
        let mut seq = build();
        let expected = seq.search(PeerId(40), "c", &Query::any_keyword("x"));
        let mut batch = build();
        let requests = vec![
            SearchRequest::new(PeerId(40), "c", Query::any_keyword("x")),
            SearchRequest::new(PeerId(41), "c", Query::any_keyword("x")),
        ];
        let got = batch.search_batch(&requests, 4);
        // digest-selected forwarding is deterministic, so the matching
        // query reproduces the sequential hit set inside a batch
        assert_eq!(got[0].hits, expected.hits);
        assert!(!got[1].hits.is_empty(), "second origin reaches the record too");
        // the lazy digest build is shared state, paid once for the batch
        let edges = 2 * batch.substrate().topology().expect("the super overlay").edge_count() as u64;
        assert_eq!(batch.stats().count(MsgKind::DigestRequest), edges);
        assert_eq!(batch.stats().count(MsgKind::DigestPush), edges);
        assert_eq!(batch.stats().queries, 2);
    }

    #[test]
    fn guided_super_search_counts_digest_traffic() {
        let mut net = guided_net(50, 8);
        net.publish(PeerId(30), record("k", "x"));
        net.search(PeerId(40), "c", &Query::any_keyword("x"));
        // one request per directed super-overlay edge, pushed once
        let edges = 2 * net.substrate().topology().expect("the super overlay").edge_count() as u64;
        assert_eq!(net.stats().count(MsgKind::DigestRequest), edges);
        assert_eq!(net.stats().count(MsgKind::DigestPush), edges);
        // a second search with no publishes in between pays nothing new
        net.search(PeerId(40), "c", &Query::any_keyword("x"));
        assert_eq!(net.stats().count(MsgKind::DigestRequest), edges);
        assert_eq!(net.stats().count(MsgKind::DigestPush), edges);
    }
}
