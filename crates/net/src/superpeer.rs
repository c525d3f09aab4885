//! FastTrack-style super-peer substrate: leaves publish metadata to their
//! super-peer; queries flood only the (much smaller) super-peer overlay.
//!
//! Sits between Napster and Gnutella in the E6 comparison: no single
//! server, but message cost scales with super-peer edges rather than all
//! peers. Every super-peer's record table is an [`IndexNode`], so each
//! super answers a query with a posting-list lookup over its leaves'
//! records instead of scanning them.

use crate::digest::{DigestConfig, Probe, RouteTable};
use crate::index_node::IndexNode;
use crate::latency::LatencyModel;
use crate::message::ResourceRecord;
use crate::overlay::{self, Match, Walk};
use crate::peer::PeerId;
use crate::stats::{MsgKind, NetStats, RetrieveOutcome, SearchOutcome};
use crate::topology::Topology;
use crate::traits::PeerNetwork;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;
use up2p_store::Query;

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

/// The super-peer (FastTrack) substrate.
pub struct SuperPeerNetwork {
    config: SuperPeerConfig,
    /// peer index → index of its super-peer (supers map to themselves).
    super_of: Vec<u32>,
    /// Overlay among super-peers; `PeerId` in this graph is the *super
    /// index* (0..supers), which is also the super's global peer id.
    super_topology: Topology,
    /// Per-super metadata index over its leaves' records.
    indexes: Vec<IndexNode>,
    alive: Vec<bool>,
    /// Per-directed-edge attenuated digests over the super overlay.
    routes: RouteTable,
    /// Per-peer owned object keys (for retrieval).
    owned: Vec<BTreeSet<String>>,
    latency: Box<dyn LatencyModel + Send>,
    pub(crate) stats: NetStats,
    /// Seeded source for the random-walk fallback.
    walk_rng: StdRng,
}

impl std::fmt::Debug for SuperPeerNetwork {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SuperPeerNetwork")
            .field("peers", &self.alive.len())
            .field("config", &self.config)
            .finish()
    }
}

impl SuperPeerNetwork {
    /// Creates a network of `n` peers. The first `config.supers` ids are
    /// super-peers; every other peer is assigned to a uniformly random
    /// super (seeded).
    ///
    /// # Panics
    ///
    /// Panics if `config.supers` is zero or exceeds `n`.
    pub fn new(
        n: usize,
        config: SuperPeerConfig,
        latency: Box<dyn LatencyModel + Send>,
        seed: u64,
    ) -> Self {
        // panic-ok: `# Panics` unless 1 <= supers <= n; `build_network_with` and `DesNetwork::build` pass `NetConfig::super_count`, clamped to 1..=n, and build at least one peer; the other callers are tests with literal counts below n
        assert!(config.supers > 0 && config.supers <= n, "invalid super count");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut super_of = Vec::with_capacity(n);
        for i in 0..n {
            if i < config.supers {
                super_of.push(i as u32);
            } else {
                super_of.push(rng.gen_range(0..config.supers) as u32);
            }
        }
        let super_topology = if config.supers <= 3 {
            Topology::ring_lattice(config.supers, 1)
        } else {
            Topology::small_world(config.supers, config.super_degree, 0.2, seed ^ 0x5eed)
        };
        SuperPeerNetwork {
            config,
            super_of,
            super_topology,
            indexes: std::iter::repeat_with(IndexNode::new).take(config.supers).collect(),
            alive: vec![true; n],
            routes: RouteTable::new(config.digests),
            owned: vec![BTreeSet::new(); n],
            latency,
            stats: NetStats::new(),
            walk_rng: StdRng::seed_from_u64(seed ^ 0x3a1f_7a1c),
        }
    }

    /// The super-peer index a peer is attached to; `None` for an id
    /// outside the network.
    pub fn super_of(&self, peer: PeerId) -> Option<usize> {
        self.super_of.get(peer.index()).map(|&s| s as usize)
    }

    /// Is the given peer a super-peer?
    pub fn is_super(&self, peer: PeerId) -> bool {
        peer.index() < self.config.supers
    }

    /// Number of records shared by one peer.
    pub(crate) fn shared_count(&self, peer: PeerId) -> usize {
        self.owned.get(peer.index()).map_or(0, BTreeSet::len)
    }

    /// The routing digests as of the last refresh.
    pub(crate) fn routes(&self) -> &RouteTable {
        &self.routes
    }

    /// Deterministic estimate of resident state in bytes: liveness, owned
    /// keys, super indexes, super overlay and routing digests.
    pub(crate) fn approx_bytes(&self) -> u64 {
        let owned: u64 = self
            .owned
            .iter()
            .map(|s| 24 + s.iter().map(|k| 32 + k.len() as u64).sum::<u64>())
            .sum();
        let indexes: u64 = self.indexes.iter().map(|i| i.len() as u64 * 256).sum();
        self.alive.len() as u64
            + owned
            + indexes
            + self.super_topology.edge_count() as u64 * 16
            + self.super_of.len() as u64 * 4
            + self.routes.approx_bytes()
    }

    /// Brings the routing digests over the super overlay up to date with
    /// the writes since the last refresh, counting the
    /// `DigestRequest`/`DigestPush` exchange. Lazy, like the flooding
    /// substrate: the next guided search triggers it.
    pub fn refresh_digests(&mut self) {
        let Self { super_topology, indexes, routes, stats, .. } = self;
        overlay::refresh_digests(routes, super_topology, stats, |s, visit| {
            indexes[s as usize].for_each_record(visit)
        });
    }

    /// Opens a query: counts it, and for a live origin brings the digests
    /// up to date. `false` means the query never leaves.
    pub(crate) fn begin_query(&mut self, origin: PeerId) -> bool {
        self.stats.queries += 1;
        let live = self.is_alive(origin);
        if live {
            self.refresh_digests();
        }
        live
    }

    /// The walk of one query over the super overlay and the local
    /// evaluation its hops run: each super answers for its live leaves
    /// from its own index. `probe` is the query compiled for `community`.
    /// Borrowed by [`crate::DesNetwork`] one event at a time; the query
    /// enters at [`SuperPeerNetwork::super_of`] its origin.
    pub(crate) fn walk<'a>(
        &'a mut self,
        community: &'a str,
        query: &'a Query,
        probe: &'a Probe,
    ) -> (Walk<'a>, impl FnMut(u32, &Probe) -> Vec<Match> + 'a) {
        let (alive, indexes) = (&self.alive, &self.indexes);
        let walk = Walk {
            topology: &self.super_topology,
            routes: &self.routes,
            alive,
            latency: self.latency.as_mut(),
            walk_rng: &mut self.walk_rng,
            stats: &mut self.stats,
            probe,
            ttl: self.config.ttl,
            dedup: true,
        };
        let is_alive = move |p| overlay::is_alive(alive, p);
        let eval = move |s: u32, _: &Probe| {
            overlay::index_matches(&indexes[s as usize], is_alive, community, query)
        };
        (walk, eval)
    }
}

impl PeerNetwork for SuperPeerNetwork {
    fn protocol_name(&self) -> &'static str {
        "FastTrack"
    }

    fn peer_count(&self) -> usize {
        self.alive.len()
    }

    fn is_alive(&self, peer: PeerId) -> bool {
        overlay::is_alive(&self.alive, peer)
    }

    fn set_alive(&mut self, peer: PeerId, alive: bool) {
        if let Some(a) = self.alive.get_mut(peer.index()) {
            *a = alive;
        }
    }

    fn publish(&mut self, provider: PeerId, record: ResourceRecord) {
        if !self.is_alive(provider) {
            return;
        }
        let s = self.super_of[provider.index()];
        if !self.is_super(provider) {
            self.stats.sent(MsgKind::Publish); // leaf → super upload
        }
        self.owned[provider.index()].insert(record.key.clone());
        // first record wins; the digests hear of it when it enters the index
        if self.indexes[s as usize].insert(provider, &record) {
            self.routes.record_added(s, &record.community, &record.fields);
        }
    }

    fn unpublish(&mut self, provider: PeerId, key: &str) {
        // an id outside the network has no super to tell
        let Some(&s) = self.super_of.get(provider.index()) else { return };
        if !self.is_super(provider) {
            self.stats.sent(MsgKind::Unpublish);
        }
        self.owned[provider.index()].remove(key);
        // the record leaves the digests with its last provider
        let node = &mut self.indexes[s as usize];
        if let Some((slot, fields)) = node.remove_slot(provider, key) {
            self.routes.record_removed(s, node.community_name(slot), &fields);
        }
    }

    fn search(&mut self, origin: PeerId, community: &str, query: &Query) -> SearchOutcome {
        if !self.begin_query(origin) {
            return SearchOutcome::default();
        }
        let entry = self.super_of[origin.index()];
        let probe = Probe::new(community, query);
        let (mut walk, eval) = self.walk(community, query, &probe);
        walk.run(origin.0, Some(entry), eval)
    }

    fn retrieve(&mut self, origin: PeerId, provider: PeerId, key: &str) -> RetrieveOutcome {
        let Self { alive, owned, latency, stats, .. } = self;
        overlay::retrieve(
            stats,
            overlay::is_alive(alive, origin),
            alive.get(provider.index()).copied(),
            provider,
            || owned[provider.index()].contains(key),
            || latency.delay(origin, provider) + latency.delay(provider, origin),
        )
    }

    fn stats(&self) -> &NetStats {
        &self.stats
    }

    fn reset_stats(&mut self) {
        self.stats = NetStats::new();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::latency::ConstantLatency;
    use crate::traits::SearchRequest;

    fn record(key: &str, name: &str) -> ResourceRecord {
        ResourceRecord::new(key, "c", vec![("o/name".to_string(), name.to_string())])
    }

    fn net(n: usize, supers: usize) -> SuperPeerNetwork {
        SuperPeerNetwork::new(
            n,
            SuperPeerConfig { supers, super_degree: 2, ttl: 6, ..SuperPeerConfig::default() },
            Box::new(ConstantLatency(1_000)),
            42,
        )
    }

    #[test]
    fn leaves_are_assigned_to_supers() {
        let net = net(50, 5);
        for p in 0..50u32 {
            let s = net.super_of(PeerId(p)).expect("in range");
            assert!(s < 5);
            if p < 5 {
                assert_eq!(s, p as usize, "supers are their own super");
                assert!(net.is_super(PeerId(p)));
            }
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
        let s = net.super_of(leaf).expect("in range");
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
        assert_eq!(net.stats().dropped, 1);
        assert_eq!(net.stats().retrieves, 3);
        assert_eq!(net.stats().retrieves_ok, 1);
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

    fn guided_net(n: usize, supers: usize) -> SuperPeerNetwork {
        SuperPeerNetwork::new(
            n,
            SuperPeerConfig {
                supers,
                super_degree: 2,
                ttl: 6,
                digests: DigestConfig::guided(),
            },
            Box::new(ConstantLatency(1_000)),
            42,
        )
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
            assert_eq!(b.dropped, s.dropped, "workers={workers}");
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
        let edges = 2 * batch.super_topology.edge_count() as u64;
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
        let edges = 2 * net.super_topology.edge_count() as u64;
        assert_eq!(net.stats().count(MsgKind::DigestRequest), edges);
        assert_eq!(net.stats().count(MsgKind::DigestPush), edges);
        // a second search with no publishes in between pays nothing new
        net.search(PeerId(40), "c", &Query::any_keyword("x"));
        assert_eq!(net.stats().count(MsgKind::DigestRequest), edges);
        assert_eq!(net.stats().count(MsgKind::DigestPush), edges);
    }
}
