//! Property tests for the simulated substrates: determinism, message
//! bounds, cross-protocol agreement on search results, the index/scan
//! equivalence oracle for [`IndexNode`], the flood's record gate, and the
//! event queue's pop order.

mod common;

use common::{
    field_path, oracle_query, publish_ops, republish, value_word, LinearTable, PublishOp,
    COMMUNITIES, ORACLE_PEERS,
};
use proptest::collection::vec as pvec;
use proptest::prelude::*;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap};
use up2p_net::sim::EventQueue;
use up2p_net::{
    build_network, sign_record, DesNetwork, DigestConfig, FloodingConfig, IndexNode, LatencySpec,
    MsgKind, PeerId, PeerNetwork, Probe, ProtocolKind, RecordArena, ResourceRecord, RouteTable,
    RoutingDigest, SharedFields, Signature, Substrate, Time, Topology,
};
use up2p_store::{Query, ResourceId};

fn record(key: &str, name: &str) -> ResourceRecord {
    ResourceRecord::new(key, "c", vec![("o/name".to_string(), name.to_string())])
}

/// An `And` of two terms the oracle's values carry in different records
/// as often as in one: what a flooded peer's term summary admits and only
/// its record signatures can turn away.
fn split_and() -> impl Strategy<Value = Query> {
    let term = prop_oneof![
        prop_oneof![Just("apple"), Just("banana"), Just("observer"), Just("factory")]
            .prop_map(Query::any_keyword),
        (field_path(), value_word()).prop_map(|(f, v)| Query::eq(f, v)),
    ];
    (term.clone(), term).prop_map(|(a, b)| Query::and([a, b]))
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
    let tree = parents.iter().zip(1..).map(|(&parent, i)| (PeerId(i), PeerId(parent % i)));
    let chords = chords.iter().map(|&(a, b)| (PeerId(a % n), PeerId(b % n)));
    Topology::from_edges(n as usize, tree.chain(chords))
}

/// Applies one write of a digest history at `nodes` and reports the
/// records it moved to `table`: on the flat overlay a peer's own table,
/// last publish wins (a withdrawal, then an upload), which publishes and
/// withdraws only its own records; on the two-tier overlay a shared
/// table, first record wins. The three generated node ids are spread
/// over the overlay. `false` for a `Refresh`, which is the caller's.
fn write(op: &DigestOp, nodes: &mut [IndexNode], table: &mut RouteTable, flat: bool) -> bool {
    let spread = |at: u32| at * (nodes.len() as u32 - 1) / 2;
    let who = |at: u32, provider: u32| PeerId(if flat { at } else { provider });
    match op {
        DigestOp::Publish { at, provider, key, community, fields } => {
            let at = spread(*at);
            let record =
                ResourceRecord::new(format!("k{key}"), COMMUNITIES[*community], fields.clone());
            let node = &mut nodes[at as usize];
            let provider = who(at, *provider);
            if flat {
                node.withdraw(provider, &record.key, |entries| {
                    table.record_removed(at, |visit| entries.visit(visit))
                });
            }
            let (id, fields) = (ResourceId::from_key(&record.key), record.fields.clone());
            node.upload(provider, id, &record.community, fields, |entries| {
                table.record_added(at, |visit| entries.visit(visit))
            });
        }
        DigestOp::Unpublish { at, provider, key } => {
            let at = spread(*at);
            let node = &mut nodes[at as usize];
            node.withdraw(who(at, *provider), &format!("k{key}"), |entries| {
                table.record_removed(at, |visit| entries.visit(visit))
            });
        }
        DigestOp::Refresh => return false,
    }
    true
}

/// The layers a route table keeps per directed edge: the attenuation
/// radius, fixed at five (DESIGN.md §3c).
const RADIUS: u8 = 5;

/// Every layer of the directed edge `q → p` of `table`, depth 1 first.
fn all_layers_of(table: &RouteTable, topo: &Topology, q: u32, p: u32) -> Vec<Vec<u64>> {
    let layer = |d| table.layer(topo, q, p, d);
    assert_eq!(layer(0), None, "no layer above the first");
    assert_eq!(layer(RADIUS + 1), None, "no layer beyond the radius");
    (1..=RADIUS).map(|d| layer(d).expect("edge and depth exist")).collect()
}

/// Every layer of every directed edge of `table`, in edge order.
fn all_layers(table: &RouteTable, topo: &Topology) -> Vec<Vec<Vec<u64>>> {
    let mut out = Vec::new();
    for q in topo.peers() {
        for p in topo.neighbors(q) {
            out.push(all_layers_of(table, topo, q.0, p.0));
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The licence for delta maintenance: whatever the history of
    /// publishes, republishes, withdrawals and refreshes, after every
    /// refresh the delta-maintained table holds, bit for bit, what a
    /// table built from scratch from the same share tables holds, its
    /// layer fill is their set bits, and it reports one push per
    /// directed edge whose layers changed. Run
    /// against both call sites: the flat overlay's last-publish-wins
    /// republish and the two-tier overlay's first-record-wins `insert`.
    #[test]
    fn delta_digests_equal_a_rebuild_from_scratch(
        parents in pvec(any::<u32>(), 2..9),
        chords in pvec((any::<u32>(), any::<u32>()), 0..6),
        shape in (6u8..10, any::<bool>()),
        ops in digest_ops(3),
    ) {
        let (log2_bits, flat) = shape;
        let config = DigestConfig { log2_bits, ..DigestConfig::guided() };
        let topo = connected_topology(&parents, &chords);
        prop_assert!(topo.is_connected());
        let directed = 2 * topo.edge_count() as u64;
        let n = topo.len() as u32;
        let mut nodes: Vec<IndexNode> = (0..n).map(|_| IndexNode::new()).collect();
        let mut table = RouteTable::new(config);
        let mut before: Option<Vec<Vec<Vec<u64>>>> = None;
        for op in ops.iter().chain([&DigestOp::Refresh]) {
            if write(op, &mut nodes, &mut table, flat) {
                continue;
            }
            let got = table
                .refresh(&topo, |p, visit| nodes[p as usize].for_each_entry(visit));
            let mut scratch = RouteTable::new(config);
            scratch.refresh(&topo, |p, visit| nodes[p as usize].for_each_entry(visit));
            let after = all_layers(&table, &topo);
            prop_assert_eq!(&after, &all_layers(&scratch, &topo));
            // the set-bit counts the wave keeps are the layers'
            let mut ones = [0u64; RADIUS as usize];
            for edge in &after {
                for (sum, layer) in ones.iter_mut().zip(edge) {
                    *sum += layer.iter().map(|w| u64::from(w.count_ones())).sum::<u64>();
                }
            }
            let bits = (after.len() << log2_bits) as f64;
            prop_assert_eq!(table.fill(), Some(ones.map(|o| o as f64 / bits)));
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

    /// The depth code answers what the layers it encodes answer: after
    /// every refresh of a random history, the minimum depth of every
    /// directed edge, for queries of every form (`Or`, `Not`, wildcards
    /// and split `And`s among them) at every TTL, is the first decoded
    /// layer within `min(ttl, radius)` whose digest may match.
    #[test]
    fn min_depth_is_the_first_layer_that_may_match(
        parents in pvec(any::<u32>(), 2..9),
        chords in pvec((any::<u32>(), any::<u32>()), 0..6),
        shape in (6u8..10, any::<bool>()),
        ops in digest_ops(3),
        queries in pvec(prop_oneof![oracle_query(), split_and()], 1..4),
    ) {
        let (log2_bits, flat) = shape;
        let config = DigestConfig { log2_bits, ..DigestConfig::guided() };
        let topo = connected_topology(&parents, &chords);
        let mut nodes: Vec<IndexNode> = (0..topo.len()).map(|_| IndexNode::new()).collect();
        let mut table = RouteTable::new(config);
        let probes: Vec<(&str, &Query, Probe)> = queries
            .iter()
            .flat_map(|q| COMMUNITIES.map(|c| (c, q, Probe::new(c, q))))
            .collect();
        for op in ops.iter().chain([&DigestOp::Refresh]) {
            if write(op, &mut nodes, &mut table, flat) {
                continue;
            }
            table.refresh(&topo, |p, visit| nodes[p as usize].for_each_entry(visit));
            for (q, p) in topo.peers().flat_map(|q| topo.neighbors(q).map(move |p| (q.0, p.0))) {
                let layers = all_layers_of(&table, &topo, q, p);
                for (community, query, probe) in &probes {
                    for ttl in 0..=RADIUS + 1 {
                        let first = (1..=ttl.min(RADIUS))
                            .find(|&d| probe.may_match(&layers[usize::from(d) - 1]));
                        prop_assert_eq!(
                            table.min_depth(&topo, q, p, probe, ttl),
                            first,
                            "{} in {} behind {} → {} at ttl {}", query, community, q, p, ttl
                        );
                    }
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
            node.remove(PeerId(provider), &format!("k{key}"));
        }
        let mut digest = RoutingDigest::new(log2_bits);
        node.for_each_entry(&mut |h| digest.insert(h));
        for community in COMMUNITIES {
            let mut answered = false;
            node.search(community, &query, |_| true, |_, _, _| answered = true);
            prop_assert!(
                !answered || digest.may_match(community, &query),
                "digest denies {} in {} although the index answers it", query, community
            );
        }
    }

    /// The flood's gate never hides a match and never invents one: after
    /// every write of a random tape — fresh publishes, republishes with
    /// other fields or into the other community, withdrawals of present
    /// and absent keys — a flooding network's answer at each of its peers
    /// (a TTL-0 search there: the peer's summary and record signatures,
    /// then `matches_fields` on the records they admit) is every query
    /// form's answer of a plain [`IndexNode`] given the same writes, peer
    /// by peer and community by community (the same words live in both
    /// communities, so a term present only in the other one is asked for
    /// all the time). The node recycles doc-ids where the arena appends,
    /// so that comparison is of multisets; in order, the answer is the
    /// ungated scan of a bare [`RecordArena`] given the same writes, whose
    /// every write returns what the node's does. Half the queries are
    /// two-term `And`s, which the summary admits wherever the terms sit in
    /// different records.
    #[test]
    fn term_summary_never_changes_an_answer(
        ops in digest_ops(3),
        queries in pvec(prop_oneof![oracle_query(), split_and()], 1..4),
    ) {
        let mut arena = RecordArena::with_peers(3);
        let mut net = DesNetwork::new(Substrate::gnutella(
            Topology::from_edges(3, []),
            LatencySpec::Constant(1).build(0, 1),
            FloodingConfig { ttl: 0, ..FloodingConfig::default() },
        ));
        let mut plain: Vec<IndexNode> = (0..3).map(|_| IndexNode::new()).collect();
        let own = |r: Option<(&str, SharedFields)>| r.map(|(c, f)| (c.to_string(), f.to_vec()));
        let owned = |(key, provider, fields): (String, PeerId, SharedFields)| {
            (key, provider, fields.to_vec())
        };
        for (i, op) in ops.iter().enumerate() {
            match op {
                DigestOp::Publish { at, key, community, fields, .. } => {
                    let record = ResourceRecord::new(
                        format!("k{key}"), COMMUNITIES[*community], fields.clone());
                    let pushed_out = republish(&mut plain[*at as usize], PeerId(*at), &record);
                    prop_assert_eq!(
                        own(arena.upsert(*at, &record)),
                        pushed_out,
                        "op #{}: {:?}", i, op
                    );
                    net.publish(PeerId(*at), record);
                }
                DigestOp::Unpublish { at, key, .. } => {
                    let key = format!("k{key}");
                    let removed = own(plain[*at as usize].remove(PeerId(*at), &key));
                    prop_assert_eq!(
                        own(arena.remove(*at, &key)),
                        removed,
                        "op #{}: {:?}", i, op
                    );
                    net.unpublish(PeerId(*at), &key);
                }
                DigestOp::Refresh => continue,
            }
            for query in &queries {
                for community in COMMUNITIES {
                    for peer in 0..4u32 {
                        let mut expected = Vec::new();
                        if let Some(node) = plain.get(peer as usize) {
                            node.search(community, query, |_| true, |key, provider, fields| {
                                expected.push((key.to_string(), provider, fields.to_vec()));
                            });
                        }
                        let gated: Vec<_> = net
                            .search(PeerId(peer), community, query)
                            .hits
                            .into_iter()
                            .map(|hit| (hit.key, hit.provider, hit.fields.to_vec()))
                            .collect();
                        let scanned: Vec<_> =
                            arena.matches(peer, community, query).into_iter().map(owned).collect();
                        prop_assert_eq!(
                            &gated, &scanned,
                            "peer {}'s gate changes its answer to {} in {} after op #{}: {:?}",
                            peer, query, community, i, op
                        );
                        let mut gated = gated;
                        gated.sort();
                        expected.sort();
                        prop_assert_eq!(
                            &gated, &expected,
                            "peer {} answers {} in {} unlike its index after op #{}: {:?}",
                            peer, query, community, i, op
                        );
                    }
                }
            }
        }
    }

    /// The compiled signature test is the predicate it stands for: for
    /// every query form — `Or`, `Not`, `All`, wildcards, nested `And`s —
    /// and any 2-word signature, whether random words (dense or a quarter
    /// full) or the signature of a generated record, [`Probe::admits`]
    /// answers what [`Probe::may_match`] answers, in both communities.
    #[test]
    fn signature_mask_is_may_match(
        query in prop_oneof![
            oracle_query(),
            split_and(),
            pvec(prop_oneof![split_and(), oracle_query()], 0..3).prop_map(Query::And),
        ],
        random in pvec((any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()), 0..8),
        publishes in publish_ops(),
    ) {
        let mut signatures: Vec<Signature> = Vec::new();
        for (a, b, c, d) in random {
            signatures.extend([[a, b], [a & c, b & d]]);
        }
        for op in &publishes {
            signatures.push(sign_record(op.community, &op.fields, |_| {}));
        }
        for community in COMMUNITIES {
            let probe = Probe::new(community, &query);
            for signature in &signatures {
                prop_assert_eq!(
                    probe.admits(signature),
                    probe.may_match(signature),
                    "{} in {} over {:x?}", query, community, signature
                );
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
        let mut net = DesNetwork::new(Substrate::gnutella(
            topo, LatencySpec::Constant(1_000).build(0, 1), FloodingConfig::default()));
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
    /// `matches_fields` scan in the model's order, each with the shared
    /// fields of the record that first entered under its key. After every
    /// op of a publish, unpublish, publish-again tape it returns what the
    /// model does — `insert` whether the record entered, `remove` the record
    /// that left with its last provider — and answers `has_provider` for
    /// every peer as the model does. Half the withdrawals name a copy
    /// some publish made, so records do lose their last provider and the
    /// last leg admits records into the doc-ids they freed.
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
            .chain(republishes.iter().map(|op| (op.provider, Write::Insert(record(op)))));
        for (i, (provider, write)) in tape.enumerate() {
            match &write {
                Write::Insert(record) => prop_assert_eq!(
                    node.insert(provider, record),
                    linear.publish(provider, record),
                    "insert({:?}, {}) at op #{}", provider, record.key, i
                ),
                Write::Remove(key) => prop_assert_eq!(
                    node.remove(provider, key).map(|(c, f)| (c.to_string(), f.to_vec())),
                    linear.unpublish(provider, key).map(|r| (r.community, r.fields.to_vec())),
                    "remove({:?}, {}) at op #{}", provider, key, i
                ),
            }
            for k in 0..16 {
                let key = format!("k{k}");
                let expected = linear.providers(&key);
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
            let mut handed: Vec<SharedFields> = Vec::new();
            node.search(
                community,
                &query,
                |p| liveness.get(p.index()).copied().unwrap_or(false),
                |key, p, fields| {
                    got.push((key.to_string(), p));
                    handed.push(fields.clone());
                },
            );
            prop_assert_eq!(
                &got, &expected,
                "index/scan disagreement in {} on {}", community, query
            );
            // each hit carries the very allocation its key entered with
            for ((key, p), fields) in got.iter().zip(&handed) {
                let admitted = linear.record(key).map(|r| &r.fields);
                prop_assert!(
                    admitted.is_some_and(|f| SharedFields::ptr_eq(f, fields)),
                    "hit ({}, {:?}) in {} carries another record's fields", key, p, community
                );
            }
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
            let mut net = DesNetwork::new(Substrate::gnutella(
                topo,
                LatencySpec::Constant(1_000).build(0, 1),
                FloodingConfig { digests, ..FloodingConfig::default() },
            ));
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
        let mut net = DesNetwork::new(Substrate::gnutella(
            topo,
            LatencySpec::Constant(1_000).build(0, 1),
            FloodingConfig { digests: DigestConfig::guided(), ..FloodingConfig::default() },
        ));
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
            let stats = net.stats();
            let digest = stats.count(MsgKind::DigestPush) + stats.count(MsgKind::DigestRequest);
            (messages as f64 / QUERIES as f64, answered, digest)
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
