//! Equivalence property tests: the discrete-event engine
//! ([`DesNetwork`]) replays the step-based substrates' accounting
//! decision-for-decision. On random topologies, record workloads,
//! removals, deaths, and queries — with the same seeds — every search
//! must produce the same hit *set* (key, provider, hops), the same
//! message count, the same latencies, and the aggregate [`NetStats`]
//! counters (including every per-[`MsgKind`] counter) must match.
//!
//! Hit *order* is deliberately not compared: the DES arena scans records
//! in per-peer insertion order while the step substrate's metadata index
//! scans in doc-id order, and doc ids are recycled.

use proptest::collection::vec as pvec;
use proptest::prelude::*;
use std::collections::BTreeSet;
use up2p_net::{
    build_network_with, DesNetwork, DigestConfig, FloodingConfig, FloodingNetwork, IndexNode,
    LatencySpec, MsgKind, NetConfig, NetStats, PeerId, PeerIndexes, PeerNetwork, ProtocolKind,
    RecordArena, ResourceRecord, RoutingDigest, SearchOutcome, ShareTable, Topology,
};
use up2p_store::{Query, ValuePattern};

const COMMUNITIES: [&str; 2] = ["alpha", "beta"];
const ORACLE_PEERS: usize = 8;

/// One publish operation in the oracle workload (same shape as the
/// PR 3/4 oracle in `proptests.rs`).
#[derive(Debug, Clone)]
struct PublishOp {
    key: String,
    community: &'static str,
    provider: PeerId,
    fields: Vec<(String, String)>,
}

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
        (reference.clone(), frag).prop_map(|(f, w)| Query::Match {
            field: f.to_string(),
            pattern: ValuePattern::from_wildcard(&format!("{w}*")),
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
type TableView = (Vec<bool>, usize, Vec<Vec<(String, PeerId, Fields)>>, Vec<(String, Fields)>);

/// Everything a [`ShareTable`] lets one see of `peer`, order-free: which
/// of the tape's keys it has, its record count, the hit set of a keyword
/// and of `Query::All` per community, and the record multiset.
fn table_view<T: ShareTable>(table: &T, peer: u32) -> TableView {
    let has = (0..5).map(|k| table.has(peer, &format!("k{k}"))).collect();
    let mut hit_sets = Vec::new();
    for community in COMMUNITIES {
        for query in [Query::any_keyword("banana"), Query::All] {
            let mut hits: Vec<_> = table
                .matches(peer, community, &query)
                .into_iter()
                .map(|(key, provider, fields)| (key, provider, fields.to_vec()))
                .collect();
            hits.sort();
            hit_sets.push(hits);
        }
    }
    let mut records = Vec::new();
    table.for_each_record(peer, &mut |community, fields| {
        records.push((community.to_string(), fields.to_vec()));
    });
    records.sort();
    (has, table.shared_count(peer), hit_sets, records)
}

/// Order-insensitive hit set: `(key, provider, hops)` triples.
type HitSet = BTreeSet<(String, PeerId, u8)>;

/// Everything about a search outcome except hit order.
fn outcome_fingerprint(out: &SearchOutcome) -> (HitSet, u64, u64, Option<u64>) {
    let hits: HitSet = out
        .hits
        .iter()
        .map(|h| (h.key.clone(), h.provider, h.hops))
        .collect();
    (hits, out.messages, out.latency, out.first_hit_latency)
}

/// The complete observable state of a [`NetStats`], per-kind counters
/// included.
fn stats_fingerprint(stats: &NetStats) -> (Vec<u64>, Vec<(u8, u64)>) {
    let mut counters = vec![
        stats.messages,
        stats.dropped,
        stats.queries,
        stats.queries_with_hits,
        stats.hits,
        stats.retrieves,
        stats.retrieves_ok,
    ];
    counters.extend(MsgKind::ALL.iter().map(|&k| stats.count(k)));
    let hops = stats.hit_hops.iter().map(|(&h, &c)| (h, c)).collect();
    (counters, hops)
}

/// Runs the identical workload against the step substrate and the DES
/// engine, comparing every search outcome and the final stats.
#[allow(clippy::too_many_arguments)]
fn assert_equivalent(
    kind: ProtocolKind,
    n: usize,
    seed: u64,
    config: &NetConfig,
    publishes: &[PublishOp],
    removals: &[(String, PeerId)],
    deaths: &[PeerId],
    searches: &[(PeerId, &'static str, Query)],
    retrieves: &[(PeerId, PeerId, String)],
) -> Result<(), TestCaseError> {
    let step = build_network_with(kind, n, seed, config);
    let des = DesNetwork::build(kind, n, seed, config);
    assert_pair_equivalent(kind, step, des, publishes, removals, deaths, searches, retrieves)
}

/// [`assert_equivalent`] over a step substrate and a DES engine the
/// caller built alike.
#[allow(clippy::too_many_arguments)]
fn assert_pair_equivalent(
    kind: ProtocolKind,
    mut step: Box<dyn PeerNetwork + Send>,
    mut des: DesNetwork,
    publishes: &[PublishOp],
    removals: &[(String, PeerId)],
    deaths: &[PeerId],
    searches: &[(PeerId, &'static str, Query)],
    retrieves: &[(PeerId, PeerId, String)],
) -> Result<(), TestCaseError> {
    for op in publishes {
        let record = ResourceRecord::new(&*op.key, op.community, op.fields.clone());
        step.publish(op.provider, record.clone());
        des.publish(op.provider, record);
    }
    for (key, provider) in removals {
        step.unpublish(*provider, key);
        des.unpublish(*provider, key);
    }
    for &p in deaths {
        step.set_alive(p, false);
        des.set_alive(p, false);
    }
    for (i, (origin, community, query)) in searches.iter().enumerate() {
        let s = step.search(*origin, community, query);
        let d = des.search(*origin, community, query);
        prop_assert_eq!(
            outcome_fingerprint(&s),
            outcome_fingerprint(&d),
            "search #{} diverged ({:?}, origin {:?}, {} in {})",
            i,
            kind,
            origin,
            query,
            community
        );
    }
    for (origin, provider, key) in retrieves {
        let s = step.retrieve(*origin, *provider, key);
        let d = des.retrieve(*origin, *provider, key);
        prop_assert_eq!(s.is_fetched(), d.is_fetched(), "retrieve diverged ({kind:?})");
    }
    prop_assert_eq!(
        stats_fingerprint(step.stats()),
        stats_fingerprint(des.stats()),
        "aggregate stats diverged ({:?})",
        kind
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Blind baseline, constant latency: all three protocols, full
    /// workload (publish / unpublish / deaths / searches / retrieves).
    #[test]
    fn des_matches_step_blind(
        dims in (0usize..3, 8usize..40, 0u64..500),
        publishes in publish_ops(),
        removals in pvec((0usize..16, 0u32..ORACLE_PEERS as u32), 0..8),
        deaths in pvec(0u32..ORACLE_PEERS as u32, 0..3),
        origins in pvec(0u32..ORACLE_PEERS as u32, 1..4),
        query in oracle_query(),
    ) {
        let (kind_idx, n, seed) = dims;
        let kind =
            [ProtocolKind::Napster, ProtocolKind::Gnutella, ProtocolKind::FastTrack][kind_idx];
        let removals: Vec<(String, PeerId)> =
            removals.into_iter().map(|(k, p)| (format!("k{k}"), PeerId(p))).collect();
        let deaths: Vec<PeerId> = deaths.into_iter().map(PeerId).collect();
        let searches: Vec<(PeerId, &'static str, Query)> = origins
            .iter()
            .enumerate()
            .map(|(i, &o)| (PeerId(o), COMMUNITIES[i % 2], query.clone()))
            .collect();
        let retrieves: Vec<(PeerId, PeerId, String)> = publishes
            .iter()
            .take(3)
            .map(|op| (PeerId(0), op.provider, op.key.clone()))
            .collect();
        assert_equivalent(
            kind, n, seed, &NetConfig::default(),
            &publishes, &removals, &deaths, &searches, &retrieves,
        )?;
    }

    /// Guided search (routing digests on, tiny blooms to force false
    /// positives and walker fallback) with *uniform* latency, so the
    /// equivalence also pins down the order of RNG draws — both the
    /// walker RNG and the stateful latency RNG.
    #[test]
    fn des_matches_step_guided(
        dims in (0usize..2, 8usize..32, 0u64..300),
        publishes in publish_ops(),
        deaths in pvec(0u32..ORACLE_PEERS as u32, 0..3),
        origins in pvec(0u32..ORACLE_PEERS as u32, 1..4),
        query in oracle_query(),
    ) {
        let (kind_idx, n, seed) = dims;
        let kind = [ProtocolKind::Gnutella, ProtocolKind::FastTrack][kind_idx];
        let config = NetConfig::new()
            .latency(LatencySpec::Uniform(1_000, 40_000))
            .digests(DigestConfig { log2_bits: 8, ..DigestConfig::guided() });
        let deaths: Vec<PeerId> = deaths.into_iter().map(PeerId).collect();
        let searches: Vec<(PeerId, &'static str, Query)> = origins
            .iter()
            .enumerate()
            .map(|(i, &o)| (PeerId(o), COMMUNITIES[i % 2], query.clone()))
            .collect();
        assert_equivalent(
            kind, n, seed, &config,
            &publishes, &[], &deaths, &searches, &[],
        )?;
    }

    /// Writes between guided searches: the digests are built by the
    /// first search, so every later round's publishes, republishes and
    /// withdrawals reach them as deltas and the next search pays a
    /// refresh. The DES driver must pay what the step driver pays —
    /// `DigestPush` and `DigestRequest` are in the stats fingerprint,
    /// compared after every round — and find what it finds.
    #[test]
    fn des_matches_step_guided_write_then_refresh(
        dims in (0usize..2, 8usize..32, 0u64..300),
        rounds in pvec(
            (publish_ops(), pvec((0usize..16, 0u32..ORACLE_PEERS as u32), 0..8)),
            2..5,
        ),
        origin in 0u32..ORACLE_PEERS as u32,
        query in oracle_query(),
    ) {
        let (kind_idx, n, seed) = dims;
        let kind = [ProtocolKind::Gnutella, ProtocolKind::FastTrack][kind_idx];
        let config = NetConfig::new()
            .digests(DigestConfig { log2_bits: 8, ..DigestConfig::guided() });
        let mut step = build_network_with(kind, n, seed, &config);
        let mut des = DesNetwork::build(kind, n, seed, &config);
        for (round, (publishes, removals)) in rounds.iter().enumerate() {
            for op in publishes.iter().take(12) {
                let record = ResourceRecord::new(&*op.key, op.community, op.fields.clone());
                step.publish(op.provider, record.clone());
                des.publish(op.provider, record);
            }
            for &(key, provider) in removals {
                let key = format!("k{key}");
                step.unpublish(PeerId(provider), &key);
                des.unpublish(PeerId(provider), &key);
            }
            let community = COMMUNITIES[round % 2];
            let s = step.search(PeerId(origin), community, &query);
            let d = des.search(PeerId(origin), community, &query);
            prop_assert_eq!(
                outcome_fingerprint(&s),
                outcome_fingerprint(&d),
                "round {} diverged ({:?}, {} in {})", round, kind, query, community
            );
            prop_assert_eq!(
                stats_fingerprint(step.stats()),
                stats_fingerprint(des.stats()),
                "stats diverged after round {} ({:?})", round, kind
            );
        }
        // guided mode was on: the first search built the digests
        prop_assert!(step.stats().count(MsgKind::DigestRequest) > 0);
    }

    /// The un-deduped flooding ablation (E6) also matches: revisits
    /// re-evaluate records and re-send hit back-propagation.
    #[test]
    fn des_matches_step_no_dedup(
        n in 8usize..20,
        seed in 0u64..200,
        publishes in publish_ops(),
        origin in 0u32..ORACLE_PEERS as u32,
        query in oracle_query(),
    ) {
        let config = FloodingConfig { ttl: 3, dedup: false, ..FloodingConfig::default() };
        let topology = || Topology::small_world(n, 2, 0.2, seed);
        let latency = || NetConfig::default().latency.build(n, seed);
        let searches = vec![(PeerId(origin), COMMUNITIES[0], query)];
        assert_pair_equivalent(
            ProtocolKind::Gnutella,
            Box::new(FloodingNetwork::new(topology(), latency(), config)),
            DesNetwork::gnutella(topology(), latency(), config),
            &publishes, &[], &[], &searches, &[],
        )?;
    }

    /// The two [`ShareTable`] layouts — the DES record arena and the
    /// step substrate's [`PeerIndexes`] — answer alike through the
    /// one trait after every write of a random tape, and advertise
    /// bit-identical routing digests for any publish/unpublish history.
    /// The search equivalences above rest on this.
    #[test]
    fn arena_digests_bit_identical_to_index_node(
        publishes in publish_ops(),
        removals in pvec((0usize..16, 0u32..ORACLE_PEERS as u32), 0..12),
        log2_bits in 6u8..12,
        tape in table_ops(),
    ) {
        let mut nodes = PeerIndexes::with_peers(TABLE_PEERS as usize);
        let mut arena = RecordArena::with_peers(TABLE_PEERS as usize);
        for (i, op) in tape.iter().enumerate() {
            // what the write pushed out is what the digests are told left
            let own = |r: Option<(&str, up2p_net::SharedFields)>| {
                r.map(|(community, fields)| (community.to_string(), fields.to_vec()))
            };
            let (from_nodes, from_arena) = if op.remove {
                (
                    own(ShareTable::remove(&mut nodes, op.peer, &op.record.key)),
                    own(ShareTable::remove(&mut arena, op.peer, &op.record.key)),
                )
            } else {
                (
                    own(ShareTable::upsert(&mut nodes, op.peer, &op.record)),
                    own(ShareTable::upsert(&mut arena, op.peer, &op.record)),
                )
            };
            prop_assert_eq!(from_nodes, from_arena, "op #{} returned differently: {:?}", i, op);
            for peer in (0..=TABLE_PEERS).chain([u32::MAX]) {
                prop_assert_eq!(
                    table_view(&nodes, peer),
                    table_view(&arena, peer),
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
            node.upsert_slot(peer, &record);
            arena_net.publish(peer, record);
        }
        for (key, provider) in removals {
            let key = format!("k{key}");
            node.remove_slot(PeerId(provider), &key);
            arena_net.unpublish(PeerId(provider), &key);
        }
        let mut from_node = RoutingDigest::new(log2_bits);
        from_node.add_node(&node);
        // Read peer 0's advertisement back out through the route tables
        // of one of its neighbors: after a refresh, `min_depth == Some(1)`
        // must agree with the reference digest's `may_match` for any
        // query — sample a few.
        arena_net.refresh_digests();
        // Same overlay construction as `DesNetwork::build` (seed 1): the
        // depth-1 advertisement peer 0's neighbor holds *is* peer 0's own
        // digest, so `min_depth == Some(1)` must agree with the reference
        // digest's `may_match` for any probe.
        let topo = Topology::small_world(ORACLE_PEERS, 2, 0.2, 1);
        let receiver = topo.neighbors(PeerId(0)).next().map(|p| p.0).unwrap_or(1);
        let probes = [
            Query::any_keyword("banana"),
            Query::any_keyword("observer"),
            Query::contains("o/name", "apple"),
            Query::eq("o/tag", "factory"),
            Query::any_keyword("missing"),
        ];
        for community in COMMUNITIES {
            for q in &probes {
                let via_routes = arena_net
                    .route_min_depth(0, receiver, community, q, 1)
                    .is_some();
                prop_assert_eq!(
                    via_routes,
                    from_node.may_match(community, q),
                    "digest disagreement for {} in {}", q, community
                );
            }
        }
    }
}
