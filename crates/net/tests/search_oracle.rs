//! The search oracle: on random worlds — all three protocols, publishes,
//! removals, deaths, Gnutella with duplicate suppression on and off —
//! every blind search finds exactly what the world says it must, and a
//! guided one finds nothing the world does not hold. The expected hits
//! come from a model of the world, not from a second run of the network:
//!
//! * Napster: [`LinearTable`] over the live providers, in its order;
//! * Gnutella: the records of every live peer within TTL hops of a live
//!   origin, by BFS over live peers, each hit's `hops` its distance;
//! * FastTrack: one [`LinearTable`] per super (an offline leaf's publish
//!   is dropped), over the supers within the super TTL of the origin's
//!   live super, by BFS over live supers. Leaves move between supers
//!   with their records as `World::set_alive` says.
//!
//! Links are constant-latency, so the first copy to reach a node came the
//! shortest way. This is what licenses a refactor of the scheduler or of
//! the substrate it drives. Beside it, the record arena is held to a plain
//! [`IndexNode`] per peer.

mod common;

use common::{
    field_path, oracle_query, publish_ops, republish, value_word, LinearTable, PublishOp,
    COMMUNITIES, ORACLE_PEERS,
};
use proptest::collection::vec as pvec;
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use up2p_net::{
    build_network_with, DesNetwork, DigestConfig, FloodingConfig, IndexNode, LatencySpec, MsgKind,
    EntryVisitor, NetConfig, PeerId, PeerNetwork, Probe, ProtocolKind, RecordArena, ResourceRecord,
    RoutingDigest, SuperPeerConfig, Substrate, Topology,
};
use up2p_store::Query;

const LINK: LatencySpec = LatencySpec::Constant(20_000);

/// Peers of the share-table tape; ids from here up are outside the table.
const TABLE_PEERS: u32 = 3;

/// One write on the share-table tape. Five keys over three peers and two
/// communities, so a tape re-upserts keys with changed fields, moves them
/// to the other community, and removes keys that are not there.
#[derive(Debug, Clone)]
struct TableOp {
    remove: bool,
    peer: u32,
    record: ResourceRecord,
}

fn table_ops() -> impl Strategy<Value = Vec<TableOp>> {
    pvec(
        (
            0u8..3,
            0u32..TABLE_PEERS + 2,
            0usize..5,
            0usize..COMMUNITIES.len(),
            pvec((field_path(), value_word()), 1..3),
        ),
        1..40,
    )
    .prop_map(|ops| {
        ops.into_iter()
            .map(|(kind, peer, key, community, fields)| {
                let fields: Vec<(String, String)> =
                    fields.into_iter().map(|(p, v)| (p.to_string(), v.to_string())).collect();
                TableOp {
                    remove: kind == 0,
                    // the two ids past the table: just outside, and far outside
                    peer: if peer > TABLE_PEERS { u32::MAX } else { peer },
                    record: ResourceRecord::new(format!("k{key}"), COMMUNITIES[community], fields),
                }
            })
            .collect()
    })
}

type Fields = Vec<(String, String)>;
type TableView = (Vec<bool>, Vec<Vec<(String, PeerId, Fields)>>, Vec<u64>);

/// Everything a share table lets one see of one peer, order-free: which
/// of the tape's keys it has, the hit set of a keyword and of
/// `Query::All` per community (the record multiset), and the multiset of
/// its records' digest entries.
fn table_view(
    has: impl Fn(&str) -> bool,
    matches: impl Fn(&str, &Query) -> Vec<(String, PeerId, Fields)>,
    for_each_entry: impl FnOnce(&mut EntryVisitor<'_>),
) -> TableView {
    let has = (0..5).map(|k| has(&format!("k{k}"))).collect();
    let mut hit_sets = Vec::new();
    for community in COMMUNITIES {
        for query in [Query::any_keyword("banana"), Query::All] {
            let mut hits = matches(community, &query);
            hits.sort();
            hit_sets.push(hits);
        }
    }
    let mut entries = Vec::new();
    for_each_entry(&mut |h| entries.push(h));
    entries.sort_unstable();
    (has, hit_sets, entries)
}

/// [`table_view`] of `peer` in the arena.
fn arena_view(arena: &RecordArena, peer: u32) -> TableView {
    table_view(
        |key| arena.has(peer, key),
        |community, query| {
            let hits = arena.matches(peer, community, query).into_iter();
            hits.map(|(key, provider, fields)| (key, provider, fields.to_vec())).collect()
        },
        |visit| arena.for_each_entry(peer, visit),
    )
}

/// [`table_view`] of `peer` as a plain [`IndexNode`] per peer holds it;
/// an id with no node shares nothing.
fn node_view(nodes: &mut [IndexNode], peer: u32) -> TableView {
    let Some(node) = nodes.get_mut(peer as usize) else {
        return table_view(|_| false, |_, _| Vec::new(), |_| {});
    };
    let mut entries = Vec::new();
    node.for_each_entry(&mut |h| entries.push(h));
    table_view(
        |key| node.has_provider(key, PeerId(peer)),
        |community, query| {
            let mut hits = Vec::new();
            node.search(community, query, |_| true, |key, provider, fields| {
                hits.push((key.to_string(), provider, fields.to_vec()));
            });
            hits
        },
        |visit| entries.into_iter().for_each(visit),
    )
}

/// `(key, provider, hops)` per hit.
type Hits = Vec<(String, PeerId, u8)>;

/// What a search must find, kept beside the network from the writes and
/// deaths it is given and the graph its substrate was built with.
struct World {
    kind: ProtocolKind,
    alive: Vec<bool>,
    /// The graph a query walks (peers on Gnutella, supers on FastTrack),
    /// as adjacency lists.
    graph: Vec<Vec<u32>>,
    ttl: u8,
    /// Each peer's super on FastTrack, as leaves move.
    super_of: Vec<Option<usize>>,
    /// Napster's one server table, or FastTrack's table per super.
    tables: Vec<LinearTable>,
    /// What each Gnutella peer shares from its own store.
    shared: BTreeMap<(u32, String), ResourceRecord>,
}

impl World {
    fn of(substrate: &Substrate, n: usize, ttl: u8) -> World {
        let graph = substrate.topology().map_or_else(Vec::new, |t| {
            t.peers().map(|p| t.neighbors(p).map(|nb| nb.0).collect()).collect()
        });
        World {
            kind: substrate.kind(),
            alive: vec![true; n],
            tables: (0..graph.len().max(1)).map(|_| LinearTable::default()).collect(),
            graph,
            ttl,
            super_of: (0..n as u32).map(|p| substrate.super_of(PeerId(p))).collect(),
            shared: BTreeMap::new(),
        }
    }

    fn publish(&mut self, provider: PeerId, record: &ResourceRecord) {
        let p = provider.index();
        match self.kind {
            ProtocolKind::Napster if self.alive[p] => {
                self.tables[0].publish(provider, record);
            }
            ProtocolKind::FastTrack if self.alive[p] => {
                let s = self.super_of[p].expect("a peer of the network has a super");
                self.tables[s].publish(provider, record);
            }
            ProtocolKind::Gnutella => {
                self.shared.insert((provider.0, record.key.clone()), record.clone());
            }
            _ => {}
        }
    }

    fn unpublish(&mut self, provider: PeerId, key: &str) {
        match self.kind {
            ProtocolKind::Napster => {
                self.tables[0].unpublish(provider, key);
            }
            ProtocolKind::FastTrack => {
                let s = self.super_of[provider.index()].expect("a peer of the network has a super");
                self.tables[s].unpublish(provider, key);
            }
            ProtocolKind::Gnutella => {
                self.shared.remove(&(provider.0, key.to_string()));
            }
        }
    }

    /// `peer` goes offline or comes back. On FastTrack every live leaf is
    /// then homed at a live super, unless none is live: a super gone
    /// offline hands its live leaves to the live super with the fewest
    /// records (ties to the lowest id), a leaf back under an offline
    /// super moves there, and the first super back takes every live leaf.
    fn set_alive(&mut self, peer: u32, up: bool) {
        let p = peer as usize;
        let was = std::mem::replace(&mut self.alive[p], up);
        if was == up || self.kind != ProtocolKind::FastTrack {
            return;
        }
        let supers = 0..self.graph.len();
        let live: Vec<usize> = supers.filter(|&s| self.alive[s]).collect();
        let emptiest = live.iter().copied().min_by_key(|&s| (self.tables[s].len(), s));
        let home = |world: &World, leaf: usize| world.super_of[leaf].expect("a peer has a super");
        let leaves = self.graph.len()..self.alive.len();
        let moving: Vec<(usize, usize)> = if home(self, p) != p {
            let stranded = up && !self.alive[home(self, p)];
            emptiest.filter(|_| stranded).map(|to| (p, to)).into_iter().collect()
        } else if let (false, Some(to)) = (up, emptiest) {
            let homed_here = |&leaf: &usize| self.alive[leaf] && home(self, leaf) == p;
            leaves.filter(homed_here).map(|leaf| (leaf, to)).collect()
        } else if up && live.len() == 1 {
            let stranded = |&leaf: &usize| self.alive[leaf] && home(self, leaf) != p;
            leaves.filter(stranded).map(|leaf| (leaf, p)).collect()
        } else {
            Vec::new()
        };
        for (leaf, to) in moving {
            let from = home(self, leaf);
            for record in self.tables[from].provided_by(PeerId(leaf as u32)) {
                self.tables[from].unpublish(PeerId(leaf as u32), &record.key);
                self.tables[to].publish(PeerId(leaf as u32), &record);
            }
            self.super_of[leaf] = Some(to);
        }
    }

    /// The live nodes of the graph within TTL hops of `entry`, with their
    /// distance, by BFS over live nodes.
    fn reach(&self, entry: u32) -> Vec<(u32, u8)> {
        let mut dist = vec![None; self.graph.len()];
        dist[entry as usize] = Some(0u8);
        let mut frontier = VecDeque::from([entry]);
        let mut reached = Vec::new();
        while let Some(node) = frontier.pop_front() {
            let d = dist[node as usize].expect("queued nodes have a distance");
            reached.push((node, d));
            if d == self.ttl {
                continue;
            }
            for &nb in &self.graph[node as usize] {
                if self.alive[nb as usize] && dist[nb as usize].is_none() {
                    dist[nb as usize] = Some(d + 1);
                    frontier.push_back(nb);
                }
            }
        }
        reached
    }

    /// The hits a blind search from `origin` must return: in the server's
    /// order on Napster, sorted on the overlays.
    fn expected(&self, origin: PeerId, community: &str, query: &Query) -> Hits {
        let o = origin.index();
        if !self.alive[o] {
            return Vec::new();
        }
        let mut hits: Hits = Vec::new();
        match self.kind {
            ProtocolKind::Napster => {
                let found = self.tables[0].search(community, query, &self.alive);
                return found.into_iter().map(|(key, provider)| (key, provider, 1)).collect();
            }
            ProtocolKind::Gnutella => {
                for (peer, d) in self.reach(origin.0) {
                    let own = self.shared.range((peer, String::new())..(peer + 1, String::new()));
                    for ((_, key), record) in own {
                        if record.community == community && query.matches_fields(&record.fields) {
                            hits.push((key.clone(), PeerId(peer), d));
                        }
                    }
                }
            }
            ProtocolKind::FastTrack => {
                let entry = self.super_of[o].expect("a peer of the network has a super");
                if !self.alive[entry] {
                    return Vec::new(); // no super is live
                }
                let leaf = u8::from(entry != o);
                for (s, d) in self.reach(entry as u32) {
                    for (key, provider) in self.tables[s as usize].search(community, query, &self.alive) {
                        hits.push((key, provider, d + leaf));
                    }
                }
            }
        }
        hits.sort();
        hits
    }
}

/// The network under test and the world beside it: `build_network_with`
/// over `config`, or on Gnutella without duplicate suppression the same
/// overlay built by hand at TTL 3, short enough that the reach ends
/// inside the overlay.
fn network(
    kind: ProtocolKind,
    n: usize,
    seed: u64,
    config: &NetConfig,
    dedup: bool,
) -> (Box<dyn PeerNetwork>, World) {
    if kind == ProtocolKind::Gnutella && !dedup {
        let topology = Topology::small_world(n, 2, 0.2, seed);
        let flooding = FloodingConfig { ttl: 3, dedup, digests: config.digests };
        let substrate = Substrate::gnutella(topology, config.latency.build(n, seed), flooding);
        let world = World::of(&substrate, n, flooding.ttl);
        return (Box::new(DesNetwork::new(substrate)), world);
    }
    let ttl = match kind {
        ProtocolKind::FastTrack => SuperPeerConfig::default().ttl,
        _ => FloodingConfig::default().ttl,
    };
    let world = World::of(&Substrate::build(kind, n, seed, config), n, ttl);
    (build_network_with(kind, n, seed, config), world)
}

/// Applies `op` to the network and to its world.
fn publish(net: &mut dyn PeerNetwork, world: &mut World, op: &PublishOp) {
    let record = ResourceRecord::new(&*op.key, op.community, op.fields.clone());
    world.publish(op.provider, &record);
    net.publish(op.provider, record);
}

fn unpublish(net: &mut dyn PeerNetwork, world: &mut World, (key, provider): (usize, u32)) {
    let key = format!("k{key}");
    world.unpublish(PeerId(provider), &key);
    net.unpublish(PeerId(provider), &key);
}

fn set_alive(net: &mut dyn PeerNetwork, world: &mut World, peer: u32, up: bool) {
    world.set_alive(peer, up);
    net.set_alive(PeerId(peer), up);
}

/// A search's hits as the world orders them.
fn found(kind: ProtocolKind, out: &up2p_net::SearchOutcome) -> Hits {
    let mut hits: Hits = out.hits.iter().map(|h| (h.key.clone(), h.provider, h.hops)).collect();
    if kind != ProtocolKind::Napster {
        hits.sort();
    }
    hits
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every blind search, on every protocol, finds what the world holds
    /// within its reach and nothing else. Deaths land either before the
    /// publishes, so Napster and FastTrack drop an offline peer's upload,
    /// or after the removals; some peers come back before the searches.
    #[test]
    fn blind_search_finds_what_the_world_holds(
        dims in (0usize..3, 8usize..40, 0u64..500, any::<bool>()),
        publishes in publish_ops(),
        removals in pvec((0usize..16, 0u32..ORACLE_PEERS as u32), 0..8),
        deaths in (
            pvec(0u32..ORACLE_PEERS as u32, 0..4),
            any::<bool>(),
            pvec(0u32..ORACLE_PEERS as u32, 0..3),
        ),
        origins in pvec(0u32..ORACLE_PEERS as u32, 1..4),
        query in oracle_query(),
    ) {
        let (kind_idx, n, seed, dedup) = dims;
        let (deaths, early, returns) = deaths;
        let kind =
            [ProtocolKind::Napster, ProtocolKind::Gnutella, ProtocolKind::FastTrack][kind_idx];
        let config = NetConfig::new().latency(LINK);
        let (mut net, mut world) = network(kind, n, seed, &config, dedup);
        let net = &mut *net;
        for &p in deaths.iter().filter(|_| early) {
            set_alive(net, &mut world, p, false);
        }
        for op in &publishes {
            publish(net, &mut world, op);
        }
        for &removal in &removals {
            unpublish(net, &mut world, removal);
        }
        for &p in deaths.iter().filter(|_| !early) {
            set_alive(net, &mut world, p, false);
        }
        for &p in &returns {
            set_alive(net, &mut world, p, true);
        }
        for (i, &origin) in origins.iter().enumerate() {
            let community = COMMUNITIES[i % 2];
            let out = net.search(PeerId(origin), community, &query);
            prop_assert_eq!(
                found(kind, &out),
                world.expected(PeerId(origin), community, &query),
                "search #{} ({:?}, dedup {}, origin {}, {} in {})",
                i, kind, dedup, origin, query, community
            );
        }
    }

    /// Guided search between writes — the first search builds the digests,
    /// every later round's publishes, republishes and withdrawals reach
    /// them as deltas and the next search pays a refresh — finds nothing
    /// the world does not hold within the blind reach, under stateful
    /// coordinate latency and tiny digests that force walker fallbacks.
    #[test]
    fn guided_search_finds_nothing_the_world_lacks(
        dims in (0usize..2, 8usize..32, 0u64..300),
        rounds in pvec(
            (publish_ops(), pvec((0usize..16, 0u32..ORACLE_PEERS as u32), 0..8)),
            2..5,
        ),
        deaths in pvec(0u32..ORACLE_PEERS as u32, 0..3),
        origin in 0u32..ORACLE_PEERS as u32,
        query in oracle_query(),
    ) {
        let (kind_idx, n, seed) = dims;
        let kind = [ProtocolKind::Gnutella, ProtocolKind::FastTrack][kind_idx];
        let config = NetConfig::new()
            .latency(LatencySpec::Coordinate { base: 1_000, per_unit: 39_000 })
            .digests(DigestConfig { log2_bits: 8, ..DigestConfig::guided() });
        let (mut net, mut world) = network(kind, n, seed, &config, true);
        let net = &mut *net;
        for &p in &deaths {
            set_alive(net, &mut world, p, false);
        }
        for (round, (publishes, removals)) in rounds.iter().enumerate() {
            for op in publishes.iter().take(12) {
                publish(net, &mut world, op);
            }
            for &removal in removals {
                unpublish(net, &mut world, removal);
            }
            let community = COMMUNITIES[round % 2];
            let out = net.search(PeerId(origin), community, &query);
            let blind: BTreeSet<(String, PeerId)> = world
                .expected(PeerId(origin), community, &query)
                .into_iter()
                .map(|(key, provider, _)| (key, provider))
                .collect();
            for h in &out.hits {
                prop_assert!(
                    blind.contains(&(h.key.clone(), h.provider)),
                    "round {}: ({}, {:?}) is not in the blind reach ({:?}, {} in {})",
                    round, h.key, h.provider, kind, query, community
                );
            }
        }
        prop_assert!(
            !world.alive[origin as usize] || net.stats().count(MsgKind::DigestRequest) > 0,
            "guided mode was on: a live origin's first search built the digests"
        );
    }

    /// The record arena both schedulers share answers like a plain
    /// [`IndexNode`] per peer after every write of a random tape — every
    /// return value and read compared — and advertises bit-identical
    /// routing digests for any publish/unpublish history. The search
    /// equivalences above and the flood's gate rest on this.
    #[test]
    fn arena_digests_bit_identical_to_index_node(
        publishes in publish_ops(),
        removals in pvec((0usize..16, 0u32..ORACLE_PEERS as u32), 0..12),
        log2_bits in 6u8..12,
        tape in table_ops(),
    ) {
        let mut nodes: Vec<IndexNode> = (0..TABLE_PEERS).map(|_| IndexNode::new()).collect();
        let mut arena = RecordArena::with_peers(TABLE_PEERS as usize);
        for (i, op) in tape.iter().enumerate() {
            // what the write pushed out is what the digests are told left
            let provider = PeerId(op.peer);
            let from_nodes = nodes.get_mut(op.peer as usize).and_then(|node| {
                if op.remove {
                    node.remove(provider, &op.record.key).map(|(c, f)| (c.to_string(), f.to_vec()))
                } else {
                    republish(node, provider, &op.record)
                }
            });
            let from_arena = if op.remove {
                arena.remove(op.peer, &op.record.key)
            } else {
                arena.upsert(op.peer, &op.record)
            };
            let from_arena =
                from_arena.map(|(community, fields)| (community.to_string(), fields.to_vec()));
            prop_assert_eq!(from_nodes, from_arena, "op #{} returned differently: {:?}", i, op);
            for peer in (0..=TABLE_PEERS).chain([u32::MAX]) {
                prop_assert_eq!(
                    node_view(&mut nodes, peer),
                    arena_view(&arena, peer),
                    "peer {} differs after op #{}: {:?}", peer, i, op
                );
            }
        }

        // Drive one peer's state both ways through the *same* history.
        let peer = PeerId(0);
        let mut node = IndexNode::new();
        let mut arena_net = DesNetwork::build(
            ProtocolKind::Gnutella, ORACLE_PEERS, 1,
            &NetConfig::new().digests(DigestConfig { log2_bits, ..DigestConfig::guided() }),
        );
        for op in &publishes {
            let record = ResourceRecord::new(&*op.key, op.community, op.fields.clone());
            republish(&mut node, peer, &record);
            arena_net.publish(peer, record);
        }
        for (key, provider) in removals {
            let key = format!("k{key}");
            node.remove(PeerId(provider), &key);
            arena_net.unpublish(PeerId(provider), &key);
        }
        let mut from_node = RoutingDigest::new(log2_bits);
        node.for_each_entry(&mut |h| from_node.insert(h));
        // Read peer 0's advertisement back out through the route tables
        // of one of its neighbors: after a refresh, the depth-1 layer that
        // neighbor holds *is* peer 0's own digest, so `min_depth ==
        // Some(1)` must agree with the reference digest's `may_match` for
        // any query — sample a few.
        arena_net.refresh_digests();
        let substrate = arena_net.substrate();
        let topo = substrate.topology().expect("an overlay");
        let routes = substrate.routes().expect("an overlay");
        let receiver = topo.neighbors(PeerId(0)).next().expect("peer 0 has a neighbor").0;
        let probes = [
            Query::any_keyword("banana"),
            Query::any_keyword("observer"),
            Query::contains("o/name", "apple"),
            Query::eq("o/tag", "factory"),
            Query::any_keyword("missing"),
        ];
        for community in COMMUNITIES {
            for q in &probes {
                let via_routes =
                    routes.min_depth(topo, 0, receiver, &Probe::new(community, q), 1).is_some();
                prop_assert_eq!(
                    via_routes,
                    from_node.may_match(community, q),
                    "digest disagreement for {} in {}", q, community
                );
            }
        }
    }
}
