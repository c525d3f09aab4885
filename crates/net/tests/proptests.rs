//! Property tests for the simulated substrates: determinism, message
//! bounds, cross-protocol agreement on search results, the index/scan
//! equivalence oracle for [`IndexNode`], and the event queue's pop order.

use proptest::collection::vec as pvec;
use proptest::prelude::*;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap};
use up2p_net::sim::EventQueue;
use up2p_net::{
    build_network, ConstantLatency, DigestConfig, FloodingConfig, FloodingNetwork, IndexNode,
    PeerId, PeerIndexes, PeerNetwork, ProtocolKind, ResourceRecord, RouteTable, RoutingDigest,
    ShareTable, SharedFields, Time, Topology,
};
use up2p_store::{Query, ValuePattern};

fn record(key: &str, name: &str) -> ResourceRecord {
    ResourceRecord::new(key, "c", vec![("o/name".to_string(), name.to_string())])
}

// ---------------------------------------------------------------------
// Index/scan equivalence oracle
// ---------------------------------------------------------------------

/// One publish operation in the oracle workload.
#[derive(Debug, Clone)]
struct PublishOp {
    key: String,
    community: &'static str,
    provider: PeerId,
    fields: Vec<(String, String)>,
}

const COMMUNITIES: [&str; 2] = ["alpha", "beta"];
const ORACLE_PEERS: usize = 8;

fn field_path() -> impl Strategy<Value = &'static str> {
    prop_oneof![Just("o/name"), Just("o/tag"), Just("meta/name")]
}

fn value_word() -> impl Strategy<Value = &'static str> {
    prop_oneof![
        Just("apple"),
        Just("banana split"),
        Just("Observer Pattern"),
        Just("factory"),
        Just("errant banana"),
    ]
}

fn publish_ops() -> impl Strategy<Value = Vec<PublishOp>> {
    pvec(
        (
            0usize..16,
            0usize..COMMUNITIES.len(),
            0u32..ORACLE_PEERS as u32,
            pvec((field_path(), value_word()), 1..3),
        ),
        0..40,
    )
    .prop_map(|ops| {
        ops.into_iter()
            .map(|(key, community, provider, fields)| PublishOp {
                key: format!("k{key}"),
                community: COMMUNITIES[community],
                provider: PeerId(provider),
                fields: fields
                    .into_iter()
                    .map(|(p, v)| (p.to_string(), v.to_string()))
                    .collect(),
            })
            .collect()
    })
}

/// Random queries covering every class the substrates evaluate: exact,
/// keyword (fielded and any-field), wildcard patterns, and boolean
/// composition over them.
fn oracle_query() -> impl Strategy<Value = Query> {
    let reference = prop_oneof![
        Just("name"),
        Just("o/name"),
        Just("tag"),
        Just("meta/name"),
        Just("absent/field"),
    ];
    let frag = prop_oneof![
        Just("apple"),
        Just("banana"),
        Just("observer"),
        Just("pattern"),
        Just("err"),
        Just("missing"),
    ];
    let leaf = prop_oneof![
        Just(Query::All),
        (reference.clone(), frag.clone()).prop_map(|(f, w)| Query::eq(f, w)),
        (reference.clone(), frag.clone()).prop_map(|(f, w)| Query::contains(f, w)),
        (reference.clone(), frag.clone()).prop_map(|(f, w)| Query::keyword(f, w)),
        frag.clone().prop_map(Query::any_keyword),
        (reference.clone(), frag.clone()).prop_map(|(f, w)| Query::Match {
            field: f.to_string(),
            pattern: ValuePattern::from_wildcard(&format!("{w}*")),
        }),
        (reference.clone(), frag).prop_map(|(f, w)| Query::Match {
            field: f.to_string(),
            pattern: ValuePattern::from_wildcard(&format!("*{w}")),
        }),
        reference.prop_map(|f| Query::Match {
            field: f.to_string(),
            pattern: ValuePattern::Present,
        }),
    ];
    leaf.prop_recursive(2, 12, 3, |inner| {
        prop_oneof![
            pvec(inner.clone(), 0..3).prop_map(Query::and),
            pvec(inner.clone(), 0..3).prop_map(Query::or),
            inner.prop_map(|q| Query::Not(Box::new(q))),
        ]
    })
}

/// The pre-refactor reference: a flat record table evaluated with a
/// linear `Query::matches_fields` scan and per-record provider sets
/// (first publish of a key wins, last provider removes the record).
///
/// Emission order is modelled too: within a community a record is
/// emitted from the place it was admitted to — a new one at the end, or
/// the place freed last when a record of that community has been removed
/// since (how the index hands out doc-ids) — providers ascending.
#[derive(Default)]
struct LinearTable {
    records: BTreeMap<String, (ResourceRecord, BTreeSet<PeerId>)>,
    /// Community → (key per place, freed places in the order freed).
    places: BTreeMap<String, (Vec<Option<String>>, Vec<usize>)>,
}

impl LinearTable {
    fn publish(&mut self, provider: PeerId, record: &ResourceRecord) {
        if let Some((_, providers)) = self.records.get_mut(&record.key) {
            providers.insert(provider);
            return;
        }
        self.records.insert(record.key.clone(), (record.clone(), BTreeSet::from([provider])));
        let (keys, free) = self.places.entry(record.community.clone()).or_default();
        match free.pop() {
            Some(place) => keys[place] = Some(record.key.clone()),
            None => keys.push(Some(record.key.clone())),
        }
    }

    /// Last publish wins: the stored record is replaced (leaving its
    /// place, taking one as any fresh record does) and keeps the
    /// providers it had.
    fn upsert(&mut self, provider: PeerId, record: &ResourceRecord) {
        let kept = self.evict(&record.key);
        self.publish(provider, record);
        self.records.get_mut(&record.key).expect("just published").1.extend(kept);
    }

    fn unpublish(&mut self, provider: PeerId, key: &str) {
        let Some((_, providers)) = self.records.get_mut(key) else { return };
        providers.remove(&provider);
        if providers.is_empty() {
            self.evict(key);
        }
    }

    /// Drops the record and frees its place; returns its providers.
    fn evict(&mut self, key: &str) -> BTreeSet<PeerId> {
        let Some((record, providers)) = self.records.remove(key) else { return BTreeSet::new() };
        let (keys, free) = self.places.get_mut(&record.community).expect("placed at publish");
        let place = keys.iter().position(|k| k.as_deref() == Some(key)).expect("placed");
        keys[place] = None;
        free.push(place);
        providers
    }

    fn providers(&self, key: &str) -> Option<&BTreeSet<PeerId>> {
        self.records.get(key).map(|(_, providers)| providers)
    }

    fn search(&self, community: &str, query: &Query, alive: &[bool]) -> Vec<(String, PeerId)> {
        let mut hits = Vec::new();
        let Some((keys, _)) = self.places.get(community) else { return hits };
        for key in keys.iter().flatten() {
            let (record, providers) = &self.records[key];
            if !query.matches_fields(&record.fields) {
                continue;
            }
            for &p in providers {
                if alive.get(p.index()).copied().unwrap_or(false) {
                    hits.push((record.key.clone(), p));
                }
            }
        }
        hits
    }
}

// ---------------------------------------------------------------------
// Delta-maintained routing digests against a from-scratch rebuild
// ---------------------------------------------------------------------

/// One step of a digest-maintenance history over a few overlay nodes.
#[derive(Debug, Clone)]
enum DigestOp {
    /// Publish `key` at node `at` on behalf of `provider`. With four
    /// keys, two communities and three providers this is also a
    /// republish with changed fields, a republish into the other
    /// community, and a second provider of a key.
    Publish { at: u32, provider: u32, key: u8, community: usize, fields: Vec<(String, String)> },
    /// Withdraw `provider`'s copy: a non-last provider, the last one, or
    /// one that never published.
    Unpublish { at: u32, provider: u32, key: u8 },
    Refresh,
}

fn digest_ops(nodes: u32) -> impl Strategy<Value = Vec<DigestOp>> {
    let publish = || {
        (
            0..nodes,
            0u32..3,
            0u8..4,
            0usize..COMMUNITIES.len(),
            pvec((field_path(), value_word()), 0..3),
        )
            .prop_map(|(at, provider, key, community, fields)| DigestOp::Publish {
                at,
                provider,
                key,
                community,
                fields: fields.into_iter().map(|(p, v)| (p.to_string(), v.to_string())).collect(),
            })
    };
    // half publishes, a quarter withdrawals, a quarter refreshes
    let op = prop_oneof![
        publish(),
        publish(),
        (0..nodes, 0u32..3, 0u8..4)
            .prop_map(|(at, provider, key)| DigestOp::Unpublish { at, provider, key }),
        Just(DigestOp::Refresh),
    ];
    pvec(op, 1..60)
}

/// A connected overlay: node `i > 0` hangs off `parents[i-1] % i`, plus
/// a few chords.
fn connected_topology(parents: &[u32], chords: &[(u32, u32)]) -> Topology {
    let n = parents.len() as u32 + 1;
    let mut topo = Topology::empty(n as usize);
    for (i, &parent) in parents.iter().enumerate() {
        topo.connect(PeerId(i as u32 + 1), PeerId(parent % (i as u32 + 1)));
    }
    for &(a, b) in chords {
        topo.connect(PeerId(a % n), PeerId(b % n));
    }
    topo
}

/// Every layer of every directed edge of `table`, in edge order.
fn all_layers(table: &RouteTable, topo: &Topology, radius: u8) -> Vec<Vec<Vec<u64>>> {
    let mut out = Vec::new();
    for q in topo.peers() {
        for p in topo.neighbors(q) {
            let layers = (1..=radius.max(1))
                .map(|d| table.layer(q.0, p.0, d).expect("edge and depth exist").to_vec())
                .collect();
            out.push(layers);
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The licence for delta maintenance: whatever the history of
    /// publishes, republishes, withdrawals and refreshes, after every
    /// refresh the delta-maintained table holds, bit for bit, what a
    /// table built from scratch from the same share tables holds, and it
    /// reports one push per directed edge whose layers changed. Run
    /// against both call sites: the flat overlay's last-publish-wins
    /// `upsert` and the two-tier overlay's first-record-wins `insert`.
    #[test]
    fn delta_digests_equal_a_rebuild_from_scratch(
        parents in pvec(any::<u32>(), 2..9),
        chords in pvec((any::<u32>(), any::<u32>()), 0..6),
        shape in (0u8..5, 6u8..10, any::<bool>()),
        ops in digest_ops(3),
    ) {
        let (radius, log2_bits, flat) = shape;
        let config = DigestConfig { radius, log2_bits, ..DigestConfig::guided() };
        let topo = connected_topology(&parents, &chords);
        prop_assert!(topo.is_connected());
        let directed = 2 * topo.edge_count() as u64;
        let n = topo.len() as u32;
        let mut nodes: Vec<IndexNode> = (0..n).map(|_| IndexNode::new()).collect();
        let mut table = RouteTable::new(config);
        let mut before: Option<Vec<Vec<Vec<u64>>>> = None;
        for op in ops.iter().chain([&DigestOp::Refresh]) {
            match op {
                DigestOp::Publish { at, provider, key, community, fields } => {
                    // spread the three generated node ids over the overlay
                    let at = at * (n - 1) / 2;
                    let record = ResourceRecord::new(
                        format!("k{key}"), COMMUNITIES[*community], fields.clone());
                    let node = &mut nodes[at as usize];
                    if flat {
                        if let Some((slot, fields)) = node.upsert_slot(PeerId(*provider), &record) {
                            table.record_removed(at, node.community_name(slot), &fields);
                        }
                        table.record_added(at, &record.community, &record.fields);
                    } else if node.insert(PeerId(*provider), &record) {
                        table.record_added(at, &record.community, &record.fields);
                    }
                }
                DigestOp::Unpublish { at, provider, key } => {
                    let at = at * (n - 1) / 2;
                    let node = &mut nodes[at as usize];
                    if let Some((slot, fields)) = node.remove_slot(PeerId(*provider), &format!("k{key}")) {
                        table.record_removed(at, node.community_name(slot), &fields);
                    }
                }
                DigestOp::Refresh => {
                    let got = table
                        .refresh(&topo, |p, visit| nodes[p as usize].for_each_record(visit));
                    let mut scratch = RouteTable::new(config);
                    scratch.refresh(&topo, |p, visit| nodes[p as usize].for_each_record(visit));
                    let after = all_layers(&table, &topo, radius);
                    prop_assert_eq!(&after, &all_layers(&scratch, &topo, radius));
                    let expected = match &before {
                        None => (directed, directed),
                        Some(before) => {
                            (0, before.iter().zip(&after).filter(|(b, a)| b != a).count() as u64)
                        }
                    };
                    prop_assert_eq!(got, expected, "(requests, pushes)");
                    prop_assert!(!table.needs_refresh());
                    before = Some(after);
                }
            }
        }
    }

    /// No false negatives, from the index's side: whatever a node's index
    /// answers for a query, the digest of that node says "maybe" — for
    /// every query class, after removals too.
    #[test]
    fn digest_never_denies_what_the_index_answers(
        publishes in publish_ops(),
        removals in pvec((0usize..16, 0u32..ORACLE_PEERS as u32), 0..12),
        query in oracle_query(),
        log2_bits in 6u8..13,
    ) {
        let mut node = IndexNode::new();
        for op in &publishes {
            let record = ResourceRecord::new(&*op.key, op.community, op.fields.clone());
            node.insert(op.provider, &record);
        }
        for &(key, provider) in &removals {
            node.remove_slot(PeerId(provider), &format!("k{key}"));
        }
        let mut digest = RoutingDigest::new(log2_bits);
        digest.add_node(&node);
        for community in COMMUNITIES {
            let mut answered = false;
            node.search(community, &query, |_| true, |_, _, _| answered = true);
            prop_assert!(
                !answered || digest.may_match(community, &query),
                "digest denies {} in {} although the index answers it", query, community
            );
        }
    }

    /// The flood's term summary never hides a match and never invents
    /// one: after every write of a random tape — fresh publishes,
    /// republishes with other fields or into the other community,
    /// withdrawals of present and absent keys — a flooding network's
    /// answer at each of its peers (a TTL-0 search there: the peer's
    /// summary, then its index) is every query form's answer of a plain
    /// [`IndexNode`] given the same writes, peer by peer and community by
    /// community (the same words live in both communities, so a term
    /// present only in the other one is asked for all the time), and so
    /// is the bare [`PeerIndexes`] table's, asked with no summary in
    /// front. The network's writes set summary bits or rebuild a peer's
    /// words; the plain nodes have no summary.
    #[test]
    fn term_summary_never_changes_an_answer(
        ops in digest_ops(3),
        queries in pvec(oracle_query(), 1..4),
    ) {
        let mut table = PeerIndexes::with_peers(3);
        let mut net = FloodingNetwork::new(
            Topology::empty(3),
            Box::new(ConstantLatency(1)),
            FloodingConfig { ttl: 0, ..FloodingConfig::default() },
        );
        let mut plain: Vec<IndexNode> = (0..3).map(|_| IndexNode::new()).collect();
        let own = |r: Option<(&str, SharedFields)>| r.map(|(c, f)| (c.to_string(), f.to_vec()));
        let named = |node: &IndexNode, r: Option<(u32, SharedFields)>| {
            r.map(|(slot, f)| (node.community_name(slot).to_string(), f.to_vec()))
        };
        for (i, op) in ops.iter().enumerate() {
            match op {
                DigestOp::Publish { at, key, community, fields, .. } => {
                    let record = ResourceRecord::new(
                        format!("k{key}"), COMMUNITIES[*community], fields.clone());
                    let node = &mut plain[*at as usize];
                    let pushed_out = node.upsert_slot(PeerId(*at), &record);
                    prop_assert_eq!(
                        own(table.upsert(*at, &record)),
                        named(node, pushed_out),
                        "op #{}: {:?}", i, op
                    );
                    net.publish(PeerId(*at), record);
                }
                DigestOp::Unpublish { at, key, .. } => {
                    let key = format!("k{key}");
                    let node = &mut plain[*at as usize];
                    let removed = node.remove_slot(PeerId(*at), &key);
                    prop_assert_eq!(
                        own(ShareTable::remove(&mut table, *at, &key)),
                        named(node, removed),
                        "op #{}: {:?}", i, op
                    );
                    net.unpublish(PeerId(*at), &key);
                }
                DigestOp::Refresh => continue,
            }
            for query in &queries {
                for community in COMMUNITIES {
                    // one matcher for the walk's worth of peers, as the flood uses it
                    let mut matcher = table.matcher(community, query);
                    for peer in 0..4u32 {
                        let mut expected = Vec::new();
                        if let Some(node) = plain.get(peer as usize) {
                            node.search(community, query, |_| true, |key, provider, fields| {
                                expected.push((key.to_string(), provider, fields.to_vec()));
                            });
                        }
                        let got: Vec<_> = matcher(peer)
                            .into_iter()
                            .map(|(key, provider, fields)| (key, provider, fields.to_vec()))
                            .collect();
                        prop_assert_eq!(
                            &got, &expected,
                            "peer {} answers {} in {} differently after op #{}: {:?}",
                            peer, query, community, i, op
                        );
                        let summarised: Vec<_> = net
                            .search(PeerId(peer), community, query)
                            .hits
                            .into_iter()
                            .map(|hit| (hit.key, hit.provider, hit.fields.to_vec()))
                            .collect();
                        prop_assert_eq!(
                            &summarised, &expected,
                            "peer {}'s summary changes its answer to {} in {} after op #{}: {:?}",
                            peer, query, community, i, op
                        );
                    }
                }
            }
        }
    }

    /// With duplicate suppression, forwarded queries cross each overlay
    /// edge at most once per direction: total messages are bounded by
    /// 2·|E| plus the hit back-propagation (≤ hits · ttl hops).
    #[test]
    fn flooding_message_bound(
        n in 8usize..64,
        k in 1usize..3,
        seed in 0u64..500,
        origin in 0u32..8,
    ) {
        let topo = Topology::small_world(n, k, 0.2, seed);
        let edges = topo.edge_count() as u64;
        let mut net = FloodingNetwork::new(
            topo, Box::new(ConstantLatency(1_000)), FloodingConfig::default());
        net.publish(PeerId((n as u32).saturating_sub(1)), record("k", "target"));
        let out = net.search(PeerId(origin % n as u32), "c", &Query::any_keyword("target"));
        let hit_budget = out.hits.len() as u64 * 8;
        prop_assert!(
            out.messages <= edges * 2 + hit_budget,
            "messages {} > bound {} (edges {})",
            out.messages, edges * 2 + hit_budget, edges
        );
    }

    /// Identical seeds produce identical outcomes (full determinism).
    #[test]
    fn deterministic_given_seed(
        kind_idx in 0usize..3,
        n in 8usize..64,
        seed in 0u64..500,
    ) {
        let kind = [ProtocolKind::Napster, ProtocolKind::Gnutella, ProtocolKind::FastTrack][kind_idx];
        let run = || {
            let mut net = build_network(kind, n, seed);
            net.publish(PeerId(1), record("k", "target"));
            let out = net.search(PeerId((n - 1) as u32), "c", &Query::any_keyword("target"));
            (out.hits.len(), out.messages, out.latency, out.first_hit_latency)
        };
        prop_assert_eq!(run(), run());
    }

    /// All three protocols agree on *what* exists when everyone is alive
    /// and the overlay is within TTL reach (they differ only in cost).
    #[test]
    fn protocols_agree_on_results(n in 16usize..48, seed in 0u64..200, provider in 1u32..10) {
        let mut found = Vec::new();
        for kind in [ProtocolKind::Napster, ProtocolKind::Gnutella, ProtocolKind::FastTrack] {
            let mut net = build_network(kind, n, seed);
            net.publish(PeerId(provider % n as u32), record("k", "needle"));
            let out = net.search(PeerId(0), "c", &Query::any_keyword("needle"));
            found.push(out.distinct_keys());
        }
        // small-world @ TTL 7 covers n ≤ 48 comfortably
        prop_assert_eq!(&found, &vec![1, 1, 1]);
    }

    /// Searching for something never published finds nothing, on every
    /// substrate, and queries never panic.
    #[test]
    fn absent_objects_never_found(n in 4usize..40, seed in 0u64..200) {
        for kind in [ProtocolKind::Napster, ProtocolKind::Gnutella, ProtocolKind::FastTrack] {
            let mut net = build_network(kind, n, seed);
            net.publish(PeerId(0), record("k", "exists"));
            let out = net.search(PeerId(0), "c", &Query::any_keyword("missing"));
            prop_assert!(out.hits.is_empty());
            // wrong community also yields nothing
            let out = net.search(PeerId(0), "other", &Query::any_keyword("exists"));
            prop_assert!(out.hits.is_empty());
        }
    }

    /// The index/scan equivalence oracle: for random records,
    /// communities, liveness patterns and queries (exact, keyword,
    /// wildcard, boolean), `IndexNode` emits the hits of the old linear
    /// `matches_fields` scan in the model's order, and answers
    /// `provider_count` / `has_provider` as the model does after every
    /// op of a publish, unpublish, publish-again tape. Half the
    /// withdrawals name a copy some publish made, so records do lose
    /// their last provider and the last leg admits records into the
    /// doc-ids they freed; every other op of that leg is an upsert, the
    /// one path that frees a doc-id while the record still has providers.
    #[test]
    fn index_node_agrees_with_linear_scan(
        publishes in publish_ops(),
        removals in pvec((0usize..40, any::<bool>()), 0..24),
        republishes in publish_ops(),
        liveness in pvec(any::<bool>(), ORACLE_PEERS),
        query in oracle_query(),
    ) {
        let mut node = IndexNode::new();
        let mut linear = LinearTable::default();
        enum Write {
            Insert(ResourceRecord),
            Upsert(ResourceRecord),
            Remove(String),
        }
        let record = |op: &PublishOp| ResourceRecord::new(&*op.key, op.community, op.fields.clone());
        let tape = publishes
            .iter()
            .map(|op| (op.provider, Write::Insert(record(op))))
            .chain(removals.iter().map(|&(i, published)| match publishes.get(i % publishes.len().max(1)) {
                Some(op) if published => (op.provider, Write::Remove(op.key.clone())),
                _ => (PeerId((i % ORACLE_PEERS) as u32), Write::Remove(format!("k{}", i % 16))),
            }))
            .chain(republishes.iter().enumerate().map(|(n, op)| {
                (op.provider, if n % 2 == 1 { Write::Upsert(record(op)) } else { Write::Insert(record(op)) })
            }));
        for (i, (provider, write)) in tape.enumerate() {
            match &write {
                Write::Insert(record) => {
                    node.insert(provider, record);
                    linear.publish(provider, record);
                }
                Write::Upsert(record) => {
                    node.upsert_slot(provider, record);
                    linear.upsert(provider, record);
                }
                Write::Remove(key) => {
                    node.remove_slot(provider, key);
                    linear.unpublish(provider, key);
                }
            }
            for k in 0..16 {
                let key = format!("k{k}");
                let expected = linear.providers(&key);
                prop_assert_eq!(
                    node.provider_count(&key), expected.map_or(0, BTreeSet::len),
                    "provider_count({}) after op #{}", key, i
                );
                for p in (0..ORACLE_PEERS as u32).map(PeerId) {
                    prop_assert_eq!(
                        node.has_provider(&key, p), expected.is_some_and(|set| set.contains(&p)),
                        "has_provider({}, {:?}) after op #{}", key, p, i
                    );
                }
            }
        }
        for community in COMMUNITIES {
            let expected = linear.search(community, &query, &liveness);
            let mut got: Vec<(String, PeerId)> = Vec::new();
            node.search(
                community,
                &query,
                |p| liveness.get(p.index()).copied().unwrap_or(false),
                |key, p, _| got.push((key.to_string(), p)),
            );
            prop_assert_eq!(
                &got, &expected,
                "index/scan disagreement in {} on {}", community, query
            );
        }
    }

    /// More replicas never decreases the number of hits (monotonicity the
    /// replication experiment E5 rests on).
    #[test]
    fn replication_monotone(n in 16usize..48, seed in 0u64..100, r1 in 1usize..4, extra in 1usize..4) {
        let r2 = r1 + extra;
        let hits_with = |replicas: usize| {
            let mut net = build_network(ProtocolKind::Gnutella, n, seed);
            for i in 0..replicas {
                net.publish(PeerId((i * 3 % n) as u32), record("k", "needle"));
            }
            let out = net.search(PeerId((n - 1) as u32), "c", &Query::any_keyword("needle"));
            out.hits.len()
        };
        prop_assert!(hits_with(r2) >= hits_with(r1));
    }

    /// Guided search's hit set is a subset of the flooding hit set on
    /// random topologies, records and queries: a digest can only prune or
    /// redirect, never invent. Tiny digests (256 bits) force heavy bloom
    /// false positives; those cost messages, not correctness.
    #[test]
    fn guided_hits_subset_of_flooding(
        n in 8usize..48,
        k in 1usize..3,
        seed in 0u64..200,
        origin in 0u32..8,
        publishes in publish_ops(),
        query in oracle_query(),
    ) {
        let build = |digests: DigestConfig| {
            let topo = Topology::small_world(n, k, 0.2, seed);
            let mut net = FloodingNetwork::new(
                topo,
                Box::new(ConstantLatency(1_000)),
                FloodingConfig { digests, ..FloodingConfig::default() },
            );
            for op in &publishes {
                let record = ResourceRecord::new(&*op.key, op.community, op.fields.clone());
                net.publish(op.provider, record);
            }
            net
        };
        let origin = PeerId(origin % n as u32);
        let tiny = DigestConfig { log2_bits: 8, ..DigestConfig::guided() };
        for community in COMMUNITIES {
            let flood: BTreeSet<(String, PeerId)> = build(DigestConfig::default())
                .search(origin, community, &query)
                .hits
                .into_iter()
                .map(|h| (h.key, h.provider))
                .collect();
            let guided = build(tiny).search(origin, community, &query);
            for h in &guided.hits {
                prop_assert!(
                    flood.contains(&(h.key.clone(), h.provider)),
                    "guided hit ({}, {:?}) not found by flooding for {} in {}",
                    h.key, h.provider, query, community
                );
            }
        }
    }

    /// Digests go stale-but-safe: after unpublishes and peer deaths a
    /// guided search may pay extra messages chasing stale digest trails,
    /// but every hit it returns is a record still shared by a live peer —
    /// removed records and dead providers are never resurrected.
    #[test]
    fn guided_digests_stale_but_safe(
        n in 8usize..40,
        seed in 0u64..200,
        publishes in publish_ops(),
        removals in pvec((0usize..16, 0u32..ORACLE_PEERS as u32), 0..12),
        deaths in pvec(0u32..ORACLE_PEERS as u32, 0..4),
        query in oracle_query(),
    ) {
        let topo = Topology::small_world(n, 2, 0.2, seed);
        let mut net = FloodingNetwork::new(
            topo,
            Box::new(ConstantLatency(1_000)),
            FloodingConfig { digests: DigestConfig::guided(), ..FloodingConfig::default() },
        );
        // per-peer share-table oracle, matching the flooding substrate's
        // semantics: every peer shares its own copy, last publish wins
        let mut tables: BTreeMap<(PeerId, String), ResourceRecord> = BTreeMap::new();
        for op in &publishes {
            let record = ResourceRecord::new(&*op.key, op.community, op.fields.clone());
            net.publish(op.provider, record.clone());
            tables.insert((op.provider, op.key.clone()), record);
        }
        // build the digests against the full record set...
        net.search(PeerId(0), "alpha", &Query::All);
        // ...then mutate the world under them
        for &(key, provider) in &removals {
            let key = format!("k{key}");
            net.unpublish(PeerId(provider), &key);
            tables.remove(&(PeerId(provider), key));
        }
        for &p in &deaths {
            // deaths deliberately do NOT dirty the digests
            net.set_alive(PeerId(p), false);
        }
        let origin = PeerId(n as u32 - 1);
        for community in COMMUNITIES {
            let live_oracle: BTreeSet<(String, PeerId)> = tables
                .iter()
                .filter(|((p, _), rec)| {
                    net.is_alive(*p)
                        && rec.community == community
                        && query.matches_fields(&rec.fields)
                })
                .map(|((p, key), _)| (key.clone(), *p))
                .collect();
            let out = net.search(origin, community, &query);
            for h in &out.hits {
                prop_assert!(
                    live_oracle.contains(&(h.key.clone(), h.provider)),
                    "stale digest resurrected ({}, {:?}) for {} in {}",
                    h.key, h.provider, query, community
                );
            }
        }
    }
}

// ---------------------------------------------------------------------
// The event queue against a binary heap
// ---------------------------------------------------------------------

/// Push-time spans past the last pop: all ties, a few instants, a
/// latency-like spread, and times far apart.
const SPANS: [u64; 4] = [1, 4, 1_000, 1 << 40];

/// One step of a queue tape.
#[derive(Debug, Clone)]
enum QueueOp {
    /// Push at the last pop plus `draw` reduced into span `span`, or into
    /// the tape's own span when `None`.
    Push { draw: u64, span: Option<usize> },
    /// Push strictly before the last pop (at it while nothing has popped).
    PushBelow(u64),
    Pop,
}

fn queue_ops() -> impl Strategy<Value = Vec<QueueOp>> {
    let op = prop_oneof![
        7 => any::<u64>().prop_map(|draw| QueueOp::Push { draw, span: None }),
        1 => (any::<u64>(), 0..SPANS.len())
            .prop_map(|(draw, span)| QueueOp::Push { draw, span: Some(span) }),
        1 => any::<u64>().prop_map(QueueOp::PushBelow),
        7 => Just(QueueOp::Pop),
    ];
    pvec(op, 0..400)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Replay determinism rests on the queue's order: on any tape of
    /// pushes and pops, `EventQueue` pops exactly what a binary heap keyed
    /// on `(time, push number)` pops, and agrees on its size at every step.
    #[test]
    fn event_queue_pops_what_a_binary_heap_pops(
        tape_span in 0..SPANS.len(),
        tape in queue_ops(),
    ) {
        let mut queue = EventQueue::new();
        let mut heap: BinaryHeap<Reverse<(Time, u64)>> = BinaryHeap::new();
        let (mut last_pop, mut pushes): (Time, u64) = (0, 0);
        for op in tape.into_iter().map(Some).chain(std::iter::repeat(None)) {
            let at = match op {
                Some(QueueOp::Push { draw, span }) => {
                    Some(last_pop + draw % SPANS[span.unwrap_or(tape_span)])
                }
                Some(QueueOp::PushBelow(draw)) => Some(draw.checked_rem(last_pop).unwrap_or(0)),
                // the tape, then a drain
                Some(QueueOp::Pop) | None => None,
            };
            if let Some(at) = at {
                queue.push(at, pushes);
                heap.push(Reverse((at, pushes)));
                pushes += 1;
            } else {
                let popped = queue.pop();
                prop_assert_eq!(popped, heap.pop().map(|Reverse(e)| e));
                match popped {
                    Some((at, _)) => last_pop = at,
                    None if op.is_none() => break,
                    None => {}
                }
            }
            prop_assert_eq!(queue.len(), heap.len());
            prop_assert_eq!(queue.is_empty(), heap.is_empty());
        }
    }
}

/// Guided search at a scale where it matters: 256 peers sharing 10 000
/// records whose names draw three words each from a skewed vocabulary
/// (popular words are everywhere, the tail sits at a few peers). Routing
/// digests must cut the per-query message bill at least tenfold on both
/// decentralized substrates while still answering at least nine in ten
/// of the queries blind flooding answers, and what the digests cost to
/// maintain is reported rather than hidden.
#[test]
fn guided_search_cuts_the_message_bill_tenfold_at_scale() {
    use rand::{rngs::StdRng, Rng, SeedableRng};
    use up2p_net::{build_network_with, NetConfig};
    const PEERS: usize = 256;
    const RECORDS: usize = 10_000;
    const VOCABULARY: f64 = 5_000.0;
    const QUERIES: usize = 40;
    let mut rng = StdRng::seed_from_u64(7);
    // cubing a uniform draw piles the mass onto the low word numbers
    let mut word = move || format!("word{:04}", (VOCABULARY * rng.gen::<f64>().powi(3)) as usize);
    let records: Vec<ResourceRecord> = (0..RECORDS)
        .map(|i| record(&format!("k{i}"), &format!("{} {} {}", word(), word(), word())))
        .collect();
    let queries: Vec<Query> = (0..QUERIES).map(|_| Query::keyword("name", &word())).collect();

    for kind in [ProtocolKind::Gnutella, ProtocolKind::FastTrack] {
        // (mean messages per query, queries answered, digest messages)
        let measure = |config: &NetConfig| {
            let mut net = build_network_with(kind, PEERS, 7, config);
            for (i, r) in records.iter().enumerate() {
                net.publish(PeerId((i % PEERS) as u32), r.clone());
            }
            net.reset_stats();
            let (mut messages, mut answered) = (0u64, 0usize);
            for (i, q) in queries.iter().enumerate() {
                let out = net.search(PeerId(((i * 11 + 5) % PEERS) as u32), "c", q);
                messages += out.messages;
                answered += usize::from(!out.hits.is_empty());
            }
            (messages as f64 / QUERIES as f64, answered, net.digest_messages())
        };
        let (flood_msgs, flood_answered, flood_digest) = measure(&NetConfig::new());
        let (guided_msgs, guided_answered, guided_digest) =
            measure(&NetConfig::new().digests(DigestConfig::guided()));
        assert!(flood_answered > QUERIES / 2, "{kind}: the mix should mostly be answerable");
        assert!(
            flood_msgs >= 10.0 * guided_msgs,
            "{kind}: guided search should cut messages ≥10x, got {flood_msgs:.1} → {guided_msgs:.1}"
        );
        assert!(
            guided_answered as f64 >= 0.9 * flood_answered as f64,
            "{kind}: guided answered {guided_answered} of the {flood_answered} flooding answers"
        );
        assert_eq!(flood_digest, 0, "{kind}: blind flooding pays no digest traffic");
        assert!(guided_digest > 0, "{kind}: the digest maintenance bill must be reported");
    }
}
