//! Gnutella-style flooding substrate: TTL-limited query broadcast over an
//! overlay graph with duplicate suppression, hits routed back along the
//! reverse path.
//!
//! Publishing is free (objects are shared from the provider's own store;
//! no metadata leaves the peer), searching costs O(edges within the TTL
//! horizon) messages — exactly the trade-off against Napster that
//! experiment E6 measures.
//!
//! The peers' records live in a [`ShareTable`], the substrate's one type
//! parameter: [`PeerIndexes`], an [`IndexNode`] per peer, as
//! [`FloodingNetwork::new`] builds it, or the struct-of-arrays
//! [`crate::RecordArena`] that [`crate::DesNetwork`] drives. In front of
//! either sits one flat array of per-peer Bloom words, so that the
//! nineteen visited peers in twenty with nothing to say are skipped
//! without opening their records. That summary and everything else —
//! liveness, write path, digests, retrieve, the assembly of the query
//! walk — exists once, here, for both.
//!
//! With [`DigestConfig::enabled`] the substrate switches to *guided*
//! search (the `des_guided` workload): forwarding consults per-neighbor
//! [`crate::RouteTable`] digests, follows only the most promising
//! neighbors, stops at the first peer with local hits, and falls back to
//! TTL'd random walkers when no digest matches.

use crate::digest::{self, DigestConfig, Probe, RecordVisitor, RouteTable};
use crate::index_node::IndexNode;
use crate::latency::LatencyModel;
use crate::message::{ResourceRecord, SharedFields, DEFAULT_TTL};
use crate::overlay::{self, Match, Walk};
use crate::peer::PeerId;
use crate::stats::{NetStats, RetrieveOutcome, SearchOutcome};
use crate::topology::Topology;
use crate::traits::PeerNetwork;
use rand::rngs::StdRng;
use rand::SeedableRng;
use up2p_store::Query;

/// Tuning knobs for the flooding substrate.
#[derive(Debug, Clone, Copy)]
pub struct FloodingConfig {
    /// Initial query TTL in overlay hops.
    pub ttl: u8,
    /// Drop duplicate query arrivals (Gnutella's GUID cache). Disabling
    /// this is the E6 ablation `flooding_no_dedup`.
    pub dedup: bool,
    /// Routing-digest layer; `enabled: true` switches searches from
    /// blind flooding to guided forwarding (as `des_guided` runs it).
    pub digests: DigestConfig,
}

impl Default for FloodingConfig {
    fn default() -> Self {
        FloodingConfig { ttl: DEFAULT_TTL, dedup: true, digests: DigestConfig::default() }
    }
}

/// The records every peer of a flat overlay shares from its own store:
/// peer `p`'s records are provided by `p` alone, and republishing a key
/// replaces the peer's copy (last publish wins). An id outside
/// `0..peers` shares nothing and accepts nothing.
///
/// Two layouts, each measured as irreplaceable on its side (DESIGN.md
/// §3e): [`PeerIndexes`], an inverted index per peer, for a flood that
/// evaluates at 450 peers per query; [`crate::RecordArena`],
/// struct-of-arrays over all peers, for 10 000+ simulated peers. The
/// constructor that builds the network fixes the layout, never an option,
/// and the term summary in front of either is the network's.
pub trait ShareTable {
    /// An empty table for peers `0..peers`.
    fn with_peers(peers: usize) -> Self;

    /// Inserts or replaces `peer`'s copy of `record`; returns the
    /// `(community, fields)` of the copy it replaced.
    fn upsert(&mut self, peer: u32, record: &ResourceRecord) -> Option<(&str, SharedFields)>;

    /// Removes `peer`'s copy of `key`; returns its `(community, fields)`
    /// when there was one.
    fn remove(&mut self, peer: u32, key: &str) -> Option<(&str, SharedFields)>;

    /// Does `peer` share `key`?
    fn has(&self, peer: u32, key: &str) -> bool;

    /// Number of records `peer` shares.
    fn shared_count(&self, peer: u32) -> usize;

    /// The local evaluation of one query at every peer it visits: the
    /// returned closure maps a live `peer` its copy reached to that
    /// peer's records matching `query` within `community`, as
    /// `(key, provider, fields)` in the layout's own order. Whatever the
    /// layout can work out from `community` and `query` alone it works
    /// out here, once, not at each peer.
    fn matcher<'a>(
        &'a self,
        community: &'a str,
        query: &'a Query,
    ) -> impl FnMut(u32) -> Vec<Match> + 'a;

    /// [`ShareTable::matcher`] asked of one peer.
    fn matches(&self, peer: u32, community: &str, query: &Query) -> Vec<Match> {
        self.matcher(community, query)(peer)
    }

    /// Visits `(community, fields)` of every record `peer` shares — what
    /// the peer's routing digest and term summary are built from.
    fn for_each_record(&self, peer: u32, visit: &mut RecordVisitor<'_>);

    /// Deterministic size estimate in bytes (no allocator introspection).
    fn approx_bytes(&self) -> u64;
}

/// 64-bit words of one peer's term summary: 4 096 bits, a constant. The
/// few dozen records a flat-overlay peer shares fill about a tenth of it
/// (DESIGN.md §3b); 2 000 peers' worth is 1 MiB — cache-resident where
/// the 2 000 indexes behind it are not — and 10 000 peers' is 5.1 MB.
const SUMMARY_WORDS: usize = 64;

/// One peer's term summary.
type Summary = [u64; SUMMARY_WORDS];

/// Sets `words` to the summary of exactly the records `peer` shares.
fn summarize<T: ShareTable>(words: &mut Summary, shared: &T, peer: u32) {
    words.fill(0);
    shared.for_each_record(peer, &mut |community, fields| {
        digest::for_each_record_entry(community, fields, |h| digest::insert(words, h));
    });
}

/// One inverted index per peer: the provider of every record in slot `i`
/// is peer `i`.
#[derive(Debug)]
pub struct PeerIndexes {
    nodes: Vec<IndexNode>,
}

impl ShareTable for PeerIndexes {
    fn with_peers(peers: usize) -> Self {
        PeerIndexes { nodes: std::iter::repeat_with(IndexNode::new).take(peers).collect() }
    }

    fn upsert(&mut self, peer: u32, record: &ResourceRecord) -> Option<(&str, SharedFields)> {
        let node = self.nodes.get_mut(peer as usize)?;
        let (slot, fields) = node.upsert_slot(PeerId(peer), record)?;
        Some((node.community_name(slot), fields))
    }

    fn remove(&mut self, peer: u32, key: &str) -> Option<(&str, SharedFields)> {
        let node = self.nodes.get_mut(peer as usize)?;
        let (slot, fields) = node.remove_slot(PeerId(peer), key)?;
        Some((node.community_name(slot), fields))
    }

    fn has(&self, peer: u32, key: &str) -> bool {
        self.nodes.get(peer as usize).is_some_and(|node| node.has_provider(key, PeerId(peer)))
    }

    fn shared_count(&self, peer: u32) -> usize {
        self.nodes.get(peer as usize).map_or(0, IndexNode::len)
    }

    fn matcher<'a>(
        &'a self,
        community: &'a str,
        query: &'a Query,
    ) -> impl FnMut(u32) -> Vec<Match> + 'a {
        move |peer| match self.nodes.get(peer as usize) {
            // the only provider in `peer`'s index is `peer`, which is being asked
            Some(node) => overlay::index_matches(node, |_| true, community, query),
            None => Vec::new(),
        }
    }

    fn for_each_record(&self, peer: u32, visit: &mut RecordVisitor<'_>) {
        if let Some(node) = self.nodes.get(peer as usize) {
            node.for_each_record(visit);
        }
    }

    fn approx_bytes(&self) -> u64 {
        self.nodes.iter().map(|node| node.len() as u64 * 256).sum()
    }
}

/// The flooding (Gnutella) substrate. Without type arguments this is the
/// network [`FloodingNetwork::new`] builds, over [`PeerIndexes`].
///
/// Most peers a query visits share nothing that matches, and learning
/// that from the share table is a chain of cache misses into the peer's
/// own index, or a scan of its records in the arena. So each peer has a
/// Bloom summary of the terms its records are indexed under, in the
/// digests' vocabulary: a peer whose words deny the walk's [`Probe`] is
/// skipped, any other is asked as before — the predicate DESIGN.md §3c
/// proves weaker than the index, so it never hides a match. A fresh
/// publish sets bits; an unpublish or a replacing publish rebuilds that
/// peer's words from what it still shares (a Bloom filter cannot forget,
/// and counters that could would be sixteen times the array). A peer
/// sharing far more than the constant is sized for saturates its words
/// and is simply always asked.
pub struct FloodingNetwork<T: ShareTable = PeerIndexes> {
    topology: Topology,
    alive: Vec<bool>,
    /// What every peer shares from its own store.
    shared: T,
    /// Each peer's term summary, in front of `shared`.
    summary: Vec<Summary>,
    latency: Box<dyn LatencyModel + Send + Sync>,
    config: FloodingConfig,
    pub(crate) stats: NetStats,
    /// Per-directed-edge attenuated digests (guided search only).
    routes: RouteTable,
    /// Seeded source for the random-walk fallback; part of the
    /// deterministic state, not wall-clock randomness.
    walk_rng: StdRng,
}

impl<T: ShareTable> std::fmt::Debug for FloodingNetwork<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FloodingNetwork")
            .field("peers", &self.alive.len())
            .field("edges", &self.topology.edge_count())
            .field("config", &self.config)
            .finish()
    }
}

impl FloodingNetwork {
    /// Creates a flooding network over the given overlay with all peers
    /// online.
    pub fn new(
        topology: Topology,
        latency: Box<dyn LatencyModel + Send + Sync>,
        config: FloodingConfig,
    ) -> Self {
        FloodingNetwork::with_table(topology, latency, config)
    }
}

impl<T: ShareTable> FloodingNetwork<T> {
    /// [`FloodingNetwork::new`] over the share-table layout `T`.
    pub(crate) fn with_table(
        topology: Topology,
        latency: Box<dyn LatencyModel + Send + Sync>,
        config: FloodingConfig,
    ) -> Self {
        let n = topology.len();
        FloodingNetwork {
            topology,
            alive: vec![true; n],
            shared: T::with_peers(n),
            summary: vec![[0; SUMMARY_WORDS]; n],
            latency,
            config,
            stats: NetStats::new(),
            routes: RouteTable::new(config.digests),
            walk_rng: StdRng::seed_from_u64(0xd16e_57ed ^ n as u64),
        }
    }

    /// The overlay graph.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The configuration in effect.
    pub fn config(&self) -> FloodingConfig {
        self.config
    }

    /// Number of records shared by one peer.
    pub fn shared_count(&self, peer: PeerId) -> usize {
        self.shared.shared_count(peer.0)
    }

    /// The routing digests as of the last refresh.
    pub(crate) fn routes(&self) -> &RouteTable {
        &self.routes
    }

    /// Deterministic estimate of resident state in bytes: liveness,
    /// share table, term summaries, overlay edges and routing digests.
    pub(crate) fn approx_bytes(&self) -> u64 {
        self.alive.len() as u64
            + self.shared.approx_bytes()
            + std::mem::size_of_val(self.summary.as_slice()) as u64
            + self.topology.edge_count() as u64 * 16
            + self.routes.approx_bytes()
    }

    /// Brings the routing digests up to date with the writes since the
    /// last refresh and repropagates the attenuated layers they changed,
    /// counting the `DigestRequest`/`DigestPush` exchange the refresh
    /// costs. A no-op when guided search is disabled or nothing changed
    /// since the last refresh; guided searches call this lazily, the way
    /// a servent batches digest updates onto its keep-alives.
    pub fn refresh_digests(&mut self) {
        let shared = &self.shared;
        overlay::refresh_digests(&mut self.routes, &self.topology, &mut self.stats, |p, visit| {
            shared.for_each_record(p, visit)
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

    /// The walk of one query over this network, and the local evaluation
    /// its hops run: a peer whose term summary admits the walk's probe
    /// answers from its own shares. Borrowed for a whole query by
    /// [`PeerNetwork::search`] and for one event at a time by
    /// [`crate::DesNetwork`]; the query enters at its origin (`entry: None`).
    pub(crate) fn walk<'a>(
        &'a mut self,
        community: &'a str,
        query: &'a Query,
    ) -> (Walk<'a>, impl FnMut(u32, &Probe) -> Vec<Match> + 'a) {
        let walk = Walk {
            topology: &self.topology,
            routes: &self.routes,
            alive: &self.alive,
            latency: self.latency.as_mut(),
            walk_rng: &mut self.walk_rng,
            stats: &mut self.stats,
            probe: Probe::new(community, query),
            ttl: self.config.ttl,
            dedup: self.config.dedup,
        };
        let summary = &self.summary;
        let mut matcher = self.shared.matcher(community, query);
        let eval = move |peer: u32, probe: &Probe| match summary.get(peer as usize) {
            Some(words) if probe.may_match(words) => matcher(peer),
            _ => Vec::new(),
        };
        (walk, eval)
    }
}

impl<T: ShareTable> PeerNetwork for FloodingNetwork<T> {
    fn protocol_name(&self) -> &'static str {
        "Gnutella"
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
        // Gnutella shares from the local store: no message is sent, and
        // republishing a key replaces the peer's own record (upsert) —
        // the stored record it replaces leaves the routing digests and
        // the peer's summary, the new one enters both
        let Some(words) = self.summary.get_mut(provider.index()) else { return };
        match self.shared.upsert(provider.0, &record) {
            Some((community, fields)) => {
                self.routes.record_removed(provider.0, community, &fields);
                summarize(words, &self.shared, provider.0);
            }
            // a fresh key only adds terms
            None => digest::for_each_record_entry(&record.community, &record.fields, |h| {
                digest::insert(words, h)
            }),
        }
        self.routes.record_added(provider.0, &record.community, &record.fields);
    }

    fn unpublish(&mut self, provider: PeerId, key: &str) {
        if let Some((community, fields)) = self.shared.remove(provider.0, key) {
            self.routes.record_removed(provider.0, community, &fields);
            summarize(&mut self.summary[provider.index()], &self.shared, provider.0);
        }
    }

    fn search(&mut self, origin: PeerId, community: &str, query: &Query) -> SearchOutcome {
        if !self.begin_query(origin) {
            return SearchOutcome::default();
        }
        let (mut walk, eval) = self.walk(community, query);
        walk.run(origin.0, None, eval)
    }

    fn retrieve(&mut self, origin: PeerId, provider: PeerId, key: &str) -> RetrieveOutcome {
        let Self { alive, shared, latency, stats, .. } = self;
        overlay::retrieve(
            stats,
            overlay::is_alive(alive, origin),
            alive.get(provider.index()).copied(),
            provider,
            || shared.has(provider.0, key),
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
    use crate::stats::MsgKind;
    use crate::RecordArena;
    use proptest::collection::vec as pvec;
    use proptest::prelude::*;

    fn record(key: &str, name: &str) -> ResourceRecord {
        ResourceRecord::new(key, "c", vec![("o/name".to_string(), name.to_string())])
    }

    fn line(n: usize) -> FloodingNetwork {
        // 0 - 1 - 2 - ... - (n-1)
        let mut t = Topology::empty(n);
        for i in 0..n - 1 {
            t.connect(PeerId(i as u32), PeerId(i as u32 + 1));
        }
        FloodingNetwork::new(t, Box::new(ConstantLatency(1_000)), FloodingConfig::default())
    }

    #[test]
    fn finds_object_within_ttl() {
        let mut net = line(5);
        net.publish(PeerId(3), record("k", "observer"));
        let out = net.search(PeerId(0), "c", &Query::any_keyword("observer"));
        assert_eq!(out.hits.len(), 1);
        assert_eq!(out.hits[0].provider, PeerId(3));
        assert_eq!(out.hits[0].hops, 3);
        // query travelled 3 edges there, hit 3 edges back: 6000us
        assert_eq!(out.first_hit_latency, Some(6_000));
    }

    #[test]
    fn ttl_bounds_reach() {
        let mut t = Topology::empty(6);
        for i in 0..5 {
            t.connect(PeerId(i), PeerId(i + 1));
        }
        let mut net = FloodingNetwork::new(
            t,
            Box::new(ConstantLatency(1_000)),
            FloodingConfig { ttl: 2, ..FloodingConfig::default() },
        );
        net.publish(PeerId(5), record("far", "x"));
        net.publish(PeerId(2), record("near", "x"));
        let out = net.search(PeerId(0), "c", &Query::any_keyword("x"));
        let keys: Vec<&str> = out.hits.iter().map(|h| h.key.as_str()).collect();
        assert_eq!(keys, vec!["near"], "ttl 2 reaches peer 2 but not peer 5");
    }

    #[test]
    fn local_hits_are_free() {
        let mut net = line(3);
        net.publish(PeerId(0), record("k", "x"));
        let out = net.search(PeerId(0), "c", &Query::any_keyword("x"));
        assert_eq!(out.hits.len(), 1);
        assert_eq!(out.hits[0].hops, 0);
        assert_eq!(out.first_hit_latency, Some(0));
    }

    #[test]
    fn dedup_caps_messages_on_cyclic_graphs() {
        let cycle = |dedup| {
            let mut t = Topology::empty(4);
            // complete graph — worst case for duplicate queries
            for i in 0..4u32 {
                for j in (i + 1)..4 {
                    t.connect(PeerId(i), PeerId(j));
                }
            }
            let mut net = FloodingNetwork::new(
                t,
                Box::new(ConstantLatency(1_000)),
                FloodingConfig { ttl: 4, dedup, ..FloodingConfig::default() },
            );
            net.publish(PeerId(3), record("k", "x"));
            let out = net.search(PeerId(0), "c", &Query::any_keyword("x"));
            out.messages
        };
        let with = cycle(true);
        let without = cycle(false);
        assert!(
            without > with * 2,
            "no-dedup should blow up message count: {without} vs {with}"
        );
    }

    #[test]
    fn dead_peers_break_the_path() {
        let mut net = line(5);
        net.publish(PeerId(4), record("k", "x"));
        net.set_alive(PeerId(2), false);
        let out = net.search(PeerId(0), "c", &Query::any_keyword("x"));
        assert!(out.hits.is_empty(), "peer 2 is the only route to peer 4");
        assert!(net.stats().dropped > 0);
    }

    #[test]
    fn replicas_found_on_both_sides() {
        let mut net = line(7);
        net.publish(PeerId(1), record("k", "x"));
        net.publish(PeerId(5), record("k", "x"));
        let out = net.search(PeerId(3), "c", &Query::any_keyword("x"));
        assert_eq!(out.hits.len(), 2);
        assert_eq!(out.distinct_keys(), 1);
        let providers: Vec<PeerId> = out.hits.iter().map(|h| h.provider).collect();
        assert!(providers.contains(&PeerId(1)) && providers.contains(&PeerId(5)));
    }

    #[test]
    fn retrieve_requires_live_provider_with_object() {
        let mut net = line(3);
        net.publish(PeerId(2), record("k", "x"));
        assert!(net.retrieve(PeerId(0), PeerId(2), "k").is_fetched());
        assert!(!net.retrieve(PeerId(0), PeerId(1), "k").is_fetched(), "peer 1 lacks it");
        net.set_alive(PeerId(2), false);
        assert!(!net.retrieve(PeerId(0), PeerId(2), "k").is_fetched());
        assert_eq!(net.stats().retrieves, 3);
        assert_eq!(net.stats().retrieves_ok, 1);
        // per-kind accounting: every live-origin attempt sends Retrieve;
        // a live provider without the object answers RetrieveFail; a dead
        // provider answers nothing (the request is dropped)
        assert_eq!(net.stats().count(MsgKind::Retrieve), 3);
        assert_eq!(net.stats().count(MsgKind::RetrieveOk), 1);
        assert_eq!(net.stats().count(MsgKind::RetrieveFail), 1);
        assert_eq!(net.stats().dropped, 1);
    }

    #[test]
    fn dead_origin_retrieve_sends_no_messages() {
        let mut net = line(3);
        net.publish(PeerId(2), record("k", "x"));
        net.set_alive(PeerId(0), false);
        assert!(!net.retrieve(PeerId(0), PeerId(2), "k").is_fetched());
        assert_eq!(net.stats().retrieves, 1, "the attempt is still counted");
        assert_eq!(net.stats().messages, 0, "a dead peer cannot send");
    }

    #[test]
    fn unpublish_stops_hits() {
        let mut net = line(3);
        net.publish(PeerId(1), record("k", "x"));
        net.unpublish(PeerId(1), "k");
        let out = net.search(PeerId(0), "c", &Query::any_keyword("x"));
        assert!(out.hits.is_empty());
        assert_eq!(net.shared_count(PeerId(1)), 0);
    }

    #[test]
    fn republish_updates_the_peers_own_record() {
        // a peer's share table keeps last-publish-wins semantics: the
        // same key republished with new metadata serves the new fields
        let mut net = line(3);
        net.publish(PeerId(1), record("k", "old name"));
        net.publish(PeerId(1), record("k", "new name"));
        assert_eq!(net.shared_count(PeerId(1)), 1);
        assert!(net.search(PeerId(0), "c", &Query::any_keyword("old")).hits.is_empty());
        let out = net.search(PeerId(0), "c", &Query::any_keyword("new"));
        assert_eq!(out.hits.len(), 1);
    }

    #[test]
    fn community_scoping_respected() {
        let mut net = line(3);
        net.publish(
            PeerId(1),
            ResourceRecord::new("k", "other", vec![("o/name".to_string(), "x".to_string())]),
        );
        let out = net.search(PeerId(0), "c", &Query::any_keyword("x"));
        assert!(out.hits.is_empty());
    }

    #[test]
    fn message_count_bounded_by_edge_budget() {
        // with dedup, forwards ≤ 2 * edges (each edge crossed at most once
        // per direction) plus hit back-propagation
        let t = Topology::ring_lattice(20, 2);
        let edges = t.edge_count() as u64;
        let mut net =
            FloodingNetwork::new(t, Box::new(ConstantLatency(1_000)), FloodingConfig::default());
        let out = net.search(PeerId(0), "c", &Query::any_keyword("nothing"));
        assert!(out.messages <= edges * 2, "{} > {}", out.messages, edges * 2);
    }

    /// An edgeless network of `peers` over the layout `T`.
    fn alone<T: ShareTable>(peers: usize) -> FloodingNetwork<T> {
        let latency = Box::new(ConstantLatency(1_000));
        FloodingNetwork::with_table(Topology::empty(peers), latency, FloodingConfig::default())
    }

    /// Does `peer`'s summary let `query` through to its share table?
    fn passes<T: ShareTable>(net: &FloodingNetwork<T>, peer: usize, query: &Query) -> bool {
        Probe::new("c", query).may_match(&net.summary[peer])
    }

    /// `peer`'s answer as a walk's hop evaluates it: summary first.
    fn gated<T: ShareTable>(
        net: &mut FloodingNetwork<T>,
        peer: u32,
        community: &str,
        query: &Query,
    ) -> Vec<Match> {
        let (walk, mut eval) = net.walk(community, query);
        eval(peer, &walk.probe)
    }

    fn keys(matches: Vec<Match>) -> Vec<String> {
        matches.into_iter().map(|(key, _, _)| key).collect()
    }

    fn forgets_with_the_last_carrier<T: ShareTable>() {
        let mut net = alone::<T>(2);
        net.publish(PeerId(0), record("a", "shared alpha"));
        net.publish(PeerId(0), record("b", "shared beta"));
        let (shared, alpha, beta) =
            (Query::any_keyword("shared"), Query::any_keyword("alpha"), Query::any_keyword("beta"));
        assert!(passes(&net, 0, &shared) && passes(&net, 0, &alpha));
        assert!(!passes(&net, 1, &shared), "each peer has words of its own");
        // a Bloom filter cannot forget: the removal rebuilds peer 0's words
        // from the record it still shares
        net.unpublish(PeerId(0), "a");
        assert!(!passes(&net, 0, &alpha), "no record of peer 0 carries it any more");
        assert!(passes(&net, 0, &shared) && passes(&net, 0, &beta), "b still does");
        assert_eq!(keys(gated(&mut net, 0, "c", &shared)), ["b"]);
        // a replacing publish rebuilds too: the old fields' terms go
        net.publish(PeerId(0), record("b", "gamma"));
        assert!(!passes(&net, 0, &shared) && !passes(&net, 0, &beta));
        assert!(passes(&net, 0, &Query::any_keyword("gamma")));
        assert!(passes(&net, 0, &Query::All), "the community marker stays with a record");
        net.unpublish(PeerId(0), "b");
        assert!(!passes(&net, 0, &Query::All), "and leaves with the last one");
        assert!(net.summary.iter().flatten().all(|&w| w == 0));
    }

    #[test]
    fn a_removed_records_terms_leave_the_summary_with_their_last_carrier() {
        forgets_with_the_last_carrier::<PeerIndexes>();
        forgets_with_the_last_carrier::<RecordArena>();
    }

    fn saturates<T: ShareTable>() {
        // far more distinct terms than 4 096 bits can tell apart: the
        // words fill up, stop filtering, and the layout answers as ever
        let mut net = alone::<T>(1);
        for i in 0..4_000 {
            net.publish(PeerId(0), record(&format!("k{i}"), &format!("term{i} word{i}")));
        }
        let ones: u32 = net.summary[0].iter().map(|w| w.count_ones()).sum();
        assert!(ones > 4_000, "only {ones} of 4 096 bits set");
        let unseen = Query::any_keyword("unseen");
        assert!(passes(&net, 0, &unseen), "saturated: all may match");
        assert!(gated(&mut net, 0, "c", &unseen).is_empty());
        assert_eq!(keys(gated(&mut net, 0, "c", &Query::any_keyword("term1234"))), ["k1234"]);
        assert_eq!(gated(&mut net, 0, "c", &Query::All).len(), 4_000);
        let liveness = 1;
        assert_eq!(
            net.approx_bytes(),
            liveness + net.shared.approx_bytes() + 512,
            "the words are counted"
        );
    }

    #[test]
    fn a_saturated_summary_falls_through_to_the_index() {
        saturates::<PeerIndexes>();
        saturates::<RecordArena>();
    }

    /// One write of the summary proptest's tape, at one of three peers
    /// (and one id outside the network).
    #[derive(Debug, Clone)]
    enum Write {
        Publish { peer: u32, key: u8, community: usize, fields: Vec<(&'static str, &'static str)> },
        Unpublish { peer: u32, key: u8 },
    }

    const COMMUNITIES: [&str; 2] = ["alpha", "beta"];

    fn value() -> impl Strategy<Value = &'static str> + Clone {
        prop_oneof![
            Just("apple"),
            Just("banana split"),
            Just("Observer Pattern"),
            Just("factory"),
            Just("errant banana"),
        ]
    }

    /// Fresh publishes, republishes with changed fields or into the other
    /// community, unpublishes of present and absent keys.
    fn tape() -> impl Strategy<Value = Vec<Write>> {
        let path = prop_oneof![Just("o/name"), Just("o/tag")];
        let write = prop_oneof![
            3 => (0u32..4, 0u8..4, 0..COMMUNITIES.len(), pvec((path, value()), 0..3)).prop_map(
                |(peer, key, community, fields)| Write::Publish { peer, key, community, fields }
            ),
            1 => (0u32..4, 0u8..4).prop_map(|(peer, key)| Write::Unpublish { peer, key }),
        ];
        pvec(write, 1..24)
    }

    /// Every query form a summary is asked: terms it can check, and forms
    /// it passes on the community marker alone.
    fn query() -> impl Strategy<Value = Query> {
        let word = prop_oneof![
            Just("apple"),
            Just("banana"),
            Just("observer"),
            Just("banana split"),
            Just("missing"),
        ];
        let leaf = prop_oneof![
            Just(Query::All),
            word.clone().prop_map(Query::any_keyword),
            word.clone().prop_map(|w| Query::keyword("name", w)),
            word.clone().prop_map(|w| Query::eq("o/name", w)),
            word.prop_map(|w| Query::contains("o/tag", w)),
        ];
        leaf.prop_recursive(2, 8, 3, |inner| {
            prop_oneof![
                pvec(inner.clone(), 0..3).prop_map(Query::And),
                pvec(inner.clone(), 0..3).prop_map(Query::Or),
                inner.prop_map(|q| Query::Not(Box::new(q))),
            ]
        })
    }

    /// After every write of `tape`, every peer's summary-gated evaluation
    /// equals the layout's ungated matcher, for every query in both
    /// communities.
    fn gating_hides_nothing<T: ShareTable>(
        tape: &[Write],
        queries: &[Query],
    ) -> Result<(), TestCaseError> {
        let mut net = alone::<T>(3);
        for (i, write) in tape.iter().enumerate() {
            match write {
                Write::Publish { peer, key, community, fields } => {
                    let fields: Vec<(String, String)> =
                        fields.iter().map(|&(p, v)| (p.to_string(), v.to_string())).collect();
                    let community = COMMUNITIES[*community];
                    let record = ResourceRecord::new(format!("k{key}"), community, fields);
                    net.publish(PeerId(*peer), record);
                }
                Write::Unpublish { peer, key } => net.unpublish(PeerId(*peer), &format!("k{key}")),
            }
            for query in queries {
                for community in COMMUNITIES {
                    let got: Vec<Vec<Match>> =
                        (0..4).map(|peer| gated(&mut net, peer, community, query)).collect();
                    for (peer, got) in (0..4).zip(got) {
                        prop_assert_eq!(
                            got,
                            net.shared.matches(peer, community, query),
                            "peer {} asked {} in {} after write #{}: {:?}",
                            peer, query, community, i, write
                        );
                    }
                }
            }
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The summary never hides a match and never invents one, in
        /// front of either layout: whatever it skips, the layout would
        /// have answered with nothing.
        #[test]
        fn the_summary_never_hides_a_match(tape in tape(), queries in pvec(query(), 1..4)) {
            gating_hides_nothing::<PeerIndexes>(&tape, &queries)?;
            gating_hides_nothing::<RecordArena>(&tape, &queries)?;
        }
    }

    fn guided_line(n: usize) -> FloodingNetwork {
        let mut t = Topology::empty(n);
        for i in 0..n - 1 {
            t.connect(PeerId(i as u32), PeerId(i as u32 + 1));
        }
        let config =
            FloodingConfig { digests: DigestConfig::guided(), ..FloodingConfig::default() };
        FloodingNetwork::new(t, Box::new(ConstantLatency(1_000)), config)
    }

    #[test]
    fn guided_search_follows_the_digest_trail() {
        let mut net = guided_line(6);
        net.publish(PeerId(4), record("k", "observer"));
        let out = net.search(PeerId(0), "c", &Query::any_keyword("observer"));
        assert_eq!(out.hits.len(), 1);
        assert_eq!(out.hits[0].provider, PeerId(4));
        // a line has one digest-matching direction: 4 Query hops out,
        // 4 QueryHit hops back, nothing else
        assert_eq!(out.messages, 8);
        assert_eq!(net.stats().count(MsgKind::Query), 4);
        assert_eq!(net.stats().count(MsgKind::QueryHit), 4);
        // the digest handshake was paid once, one request per directed edge
        assert_eq!(net.stats().count(MsgKind::DigestRequest), 10);
        assert!(net.stats().count(MsgKind::DigestPush) >= 10);
    }

    #[test]
    fn guided_search_prunes_hopeless_directions() {
        let mut net = guided_line(6);
        net.publish(PeerId(1), record("k", "x"));
        // origin 2 sees a depth-1 match toward 1 and nothing toward 3:
        // one Query, one QueryHit, and the frontier stop ends it there
        let out = net.search(PeerId(2), "c", &Query::any_keyword("x"));
        assert_eq!(out.hits.len(), 1);
        assert_eq!(out.messages, 2);
    }

    #[test]
    fn guided_local_hits_cost_nothing() {
        let mut net = guided_line(4);
        net.publish(PeerId(0), record("k", "x"));
        net.publish(PeerId(3), record("k2", "x"));
        let out = net.search(PeerId(0), "c", &Query::any_keyword("x"));
        // frontier stop at the origin: the local hit satisfies the query
        assert_eq!(out.hits.len(), 1);
        assert_eq!(out.hits[0].hops, 0);
        assert_eq!(out.messages, 0);
    }

    #[test]
    fn guided_search_refreshes_after_unpublish() {
        let mut net = guided_line(5);
        net.publish(PeerId(4), record("k", "x"));
        assert_eq!(net.search(PeerId(0), "c", &Query::any_keyword("x")).hits.len(), 1);
        net.unpublish(PeerId(4), "k");
        let out = net.search(PeerId(0), "c", &Query::any_keyword("x"));
        assert!(out.hits.is_empty(), "a removed record is never resurrected");
        // no digest matches anywhere, so the search degrades to the
        // fallback walkers: at most walk_width TTL'd walks, far below the
        // flood cost (which would still cross every edge)
        let bound = (net.config().ttl as u64) * net.config().digests.walk_width as u64;
        assert!(out.messages <= bound, "{} > {bound}", out.messages);
    }

    #[test]
    fn walk_fallback_survives_stale_digests() {
        // peer death does NOT dirty the digests (a real overlay only
        // notices through timeouts), so the guided path toward the dead
        // provider goes stale; the walker fallback keeps exploring and
        // the search still terminates without false hits
        let mut net = guided_line(5);
        net.publish(PeerId(3), record("k", "x"));
        assert_eq!(net.search(PeerId(0), "c", &Query::any_keyword("x")).hits.len(), 1);
        net.set_alive(PeerId(3), false);
        let out = net.search(PeerId(0), "c", &Query::any_keyword("x"));
        assert!(out.hits.is_empty(), "dead providers never produce hits");
        assert!(net.stats().dropped > 0, "the stale trail ends at the dead peer");
    }

    #[test]
    fn guided_hits_are_a_subset_of_flooding_hits() {
        // same topology, same records; guided may return fewer hits
        // (frontier stop) but never one flooding would not have found
        let build = |guided: bool| {
            let t = Topology::small_world(24, 2, 0.2, 9);
            let digests =
                if guided { DigestConfig::guided() } else { DigestConfig::default() };
            let mut net = FloodingNetwork::new(
                t,
                Box::new(ConstantLatency(1_000)),
                FloodingConfig { digests, ..FloodingConfig::default() },
            );
            for i in [3u32, 11, 19] {
                net.publish(PeerId(i), record(&format!("k{i}"), "needle"));
            }
            net
        };
        let flood_hits: std::collections::BTreeSet<(String, PeerId)> = build(false)
            .search(PeerId(0), "c", &Query::any_keyword("needle"))
            .hits
            .into_iter()
            .map(|h| (h.key, h.provider))
            .collect();
        let guided = build(true).search(PeerId(0), "c", &Query::any_keyword("needle"));
        for h in &guided.hits {
            assert!(
                flood_hits.contains(&(h.key.clone(), h.provider)),
                "guided found {h:?} that flooding missed"
            );
        }
        assert!(!guided.hits.is_empty(), "digests lead to at least one replica");
    }
}
