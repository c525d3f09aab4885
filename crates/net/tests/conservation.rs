//! Message conservation: each protocol sends exactly its own set of
//! [`MsgKind`]s. One script — two publishes from non-super peers, a
//! search that hits, a retrieve that fetches, one of a missing key and
//! one from a dead provider, an unpublish from a leaf and a second search
//! — runs on every protocol, blind and guided, and the kinds with a
//! nonzero count must be the protocol's row of [`SENDS`]. Deleting an
//! emission site empties its kind; a substrate counting a kind that is
//! not its own (Gnutella publishes locally, so a `Publish` there) adds
//! one. A second script has a known but offline provider write, come back
//! and be searched for, and holds each protocol's liveness rule for
//! writes to the counts and hits in a table.
//!
//! Hop conservation: on random worlds, every hop of every query ends as
//! exactly one [`Fate`] — see [`every_hop_ends_as_exactly_one_fate`].

mod common;

use common::{oracle_query, publish_ops, COMMUNITIES, ORACLE_PEERS};
use proptest::collection::vec as pvec;
use proptest::prelude::*;
use std::collections::BTreeSet;
use up2p_net::churn::exponential_schedule;
use up2p_net::{
    build_network_with, DesEvent, DesNetwork, DigestConfig, Fate, FloodingConfig, LatencySpec,
    MsgKind, NetConfig, NetStats, PeerId, PeerNetwork, ProtocolKind, ResourceRecord,
    RetrieveOutcome, SuperPeerConfig, Substrate, Topology,
};
use up2p_store::Query;

const PEERS: usize = 64;
const SEED: u64 = 7;

/// What Napster sends, and FastTrack with it: the query round trip, the
/// leaf's uploads to its index, and the three legs of a retrieve.
const INDEXED: &[MsgKind] = &[
    MsgKind::Query,
    MsgKind::QueryHit,
    MsgKind::Publish,
    MsgKind::Unpublish,
    MsgKind::Retrieve,
    MsgKind::RetrieveOk,
    MsgKind::RetrieveFail,
];

/// What Gnutella sends: it publishes locally, so no uploads.
const FLOODED: &[MsgKind] = &[
    MsgKind::Query,
    MsgKind::QueryHit,
    MsgKind::Retrieve,
    MsgKind::RetrieveOk,
    MsgKind::RetrieveFail,
];

/// The kinds each protocol sends blind, in counter order. Guided,
/// Gnutella and FastTrack also send `DigestPush` and `DigestRequest`;
/// Napster has no digest layer.
const SENDS: [(ProtocolKind, &[MsgKind]); 3] = [
    (ProtocolKind::Napster, INDEXED),
    (ProtocolKind::Gnutella, FLOODED),
    (ProtocolKind::FastTrack, INDEXED),
];

/// Runs the script and returns every kind's count, in counter order.
fn run_script(net: &mut dyn PeerNetwork) -> Vec<(MsgKind, u64)> {
    let record = |key: &str| {
        ResourceRecord::new(key, "c", vec![("o/name".to_string(), "observer".to_string())])
    };
    // FastTrack's supers are ids 0..8 at 64 peers: both publishers are leaves
    net.publish(PeerId(20), record("k1"));
    net.publish(PeerId(41), record("k2"));
    let found = net.search(PeerId(50), "c", &Query::any_keyword("observer"));
    assert!(!found.hits.is_empty(), "{}: the search must hit", net.protocol_name());
    assert_ne!(net.retrieve(PeerId(50), PeerId(20), "k1"), RetrieveOutcome::Unavailable);
    assert_eq!(net.retrieve(PeerId(50), PeerId(20), "missing"), RetrieveOutcome::Unavailable);
    net.set_alive(PeerId(41), false);
    assert_eq!(net.retrieve(PeerId(50), PeerId(41), "k2"), RetrieveOutcome::Unavailable);
    net.unpublish(PeerId(20), "k1");
    net.search(PeerId(50), "c", &Query::any_keyword("observer"));
    assert_retrieves_conserved(net.stats());
    MsgKind::ALL.into_iter().map(|k| (k, net.stats().count(k))).collect()
}

/// A retrieve request that was sent is answered, refused, or finds its
/// provider offline: `Retrieve = RetrieveOk + RetrieveFail +
/// ProviderOffline`.
fn assert_retrieves_conserved(stats: &NetStats) {
    let answered = stats.count(MsgKind::RetrieveOk) + stats.count(MsgKind::RetrieveFail);
    let offline = stats.fate_count(Fate::ProviderOffline);
    assert_eq!(stats.count(MsgKind::Retrieve), answered + offline, "{:?}", stats.by_kind());
}

#[test]
fn every_protocol_sends_exactly_its_own_kinds() {
    for (kind, blind) in SENDS {
        for guided in [false, true] {
            let digests = if guided { DigestConfig::guided() } else { DigestConfig::default() };
            let config = NetConfig::new().digests(digests);
            let counts = run_script(&mut *build_network_with(kind, PEERS, SEED, &config));

            let mut expected = blind.to_vec();
            if guided && kind != ProtocolKind::Napster {
                expected.extend([MsgKind::DigestPush, MsgKind::DigestRequest]);
            }
            let sent: Vec<MsgKind> =
                counts.iter().filter(|&&(_, n)| n > 0).map(|&(k, _)| k).collect();
            assert_eq!(sent, expected, "{kind} (guided: {guided}) sent {counts:?}");
        }
    }
}

/// Every kind with a nonzero count, in counter order.
type Counts = Vec<(MsgKind, u64)>;

/// A provider the network knows but that is offline writes: two
/// publishes, then an unpublish of one of them. It comes back online and
/// a search asks for both. Returns the nonzero per-kind counts after the
/// publishes, after the unpublish and after the search, and the keys the
/// search found.
fn offline_script(net: &mut dyn PeerNetwork) -> ([Counts; 3], Vec<String>) {
    let record = |key: &str| {
        ResourceRecord::new(key, "c", vec![("o/name".to_string(), "observer".to_string())])
    };
    let counts = |net: &dyn PeerNetwork| -> Counts {
        let all = MsgKind::ALL.into_iter().map(|k| (k, net.stats().count(k)));
        all.filter(|&(_, n)| n > 0).collect()
    };
    // a leaf on FastTrack (supers are ids 0..8 at 64 peers)
    let provider = PeerId(30);
    net.set_alive(provider, false);
    net.publish(provider, record("k1"));
    net.publish(provider, record("k2"));
    let published = counts(net);
    net.unpublish(provider, "k1");
    let unpublished = counts(net);
    net.set_alive(provider, true);
    let found = net.search(PeerId(50), "c", &Query::any_keyword("observer"));
    let mut keys: Vec<String> = found.hits.into_iter().map(|h| h.key).collect();
    keys.sort();
    ([published, unpublished, counts(net)], keys)
}

#[test]
fn an_offline_provider_writes_by_its_protocols_rule() {
    use MsgKind::{DigestPush, DigestRequest, Query as Q, QueryHit, Unpublish};
    // Napster and FastTrack drop an offline peer's publish (it has no
    // session to upload on) but still send its unpublish; Gnutella
    // upserts and removes in the peer's own store, sending nothing, so
    // the record left behind is found once the peer is back.
    let napster = [vec![], vec![(Unpublish, 1)], vec![(Q, 1), (QueryHit, 1), (Unpublish, 1)]];
    let rows: [(ProtocolKind, bool, [Counts; 3], &[&str]); 6] = [
        (ProtocolKind::Napster, false, napster.clone(), &[]),
        (ProtocolKind::Napster, true, napster, &[]),
        (ProtocolKind::Gnutella, false, [vec![], vec![], vec![(Q, 193), (QueryHit, 4)]], &["k2"]),
        (
            ProtocolKind::Gnutella,
            true,
            [vec![], vec![], vec![(Q, 35), (QueryHit, 4), (DigestPush, 256), (DigestRequest, 256)]],
            &["k2"],
        ),
        (
            ProtocolKind::FastTrack,
            false,
            [vec![], vec![(Unpublish, 1)], vec![(Q, 26), (Unpublish, 1)]],
            &[],
        ),
        (
            ProtocolKind::FastTrack,
            true,
            [
                vec![],
                vec![(Unpublish, 1)],
                vec![(Q, 9), (Unpublish, 1), (DigestPush, 32), (DigestRequest, 32)],
            ],
            &[],
        ),
    ];
    for (kind, guided, counts, keys) in rows {
        let digests = if guided { DigestConfig::guided() } else { DigestConfig::default() };
        let config = NetConfig::new().digests(digests);
        let got = offline_script(&mut *build_network_with(kind, PEERS, SEED, &config));
        assert_eq!(got, (counts, keys.iter().map(|k| k.to_string()).collect()), "{kind} {guided}");
    }
}

/// The network of one conservation case: `kind` over `n` peers at
/// `ttl`, blind or guided (tiny digests, so walkers fall back), Gnutella
/// with or without duplicate suppression, FastTrack over `supers`
/// supers, on seeded coordinate latency.
fn conservation_network(
    kind: ProtocolKind,
    n: usize,
    seed: u64,
    (ttl, guided, dedup, supers): (u8, bool, bool, usize),
) -> DesNetwork {
    let latency = LatencySpec::Coordinate { base: 1_000, per_unit: 39_000 }.build(n, seed);
    let digests = match guided {
        true => DigestConfig { log2_bits: 8, ..DigestConfig::guided() },
        false => DigestConfig::default(),
    };
    DesNetwork::new(match kind {
        ProtocolKind::Napster => Substrate::napster(n, latency),
        ProtocolKind::Gnutella => {
            let topology = Topology::small_world(n, 2, 0.2, seed);
            Substrate::gnutella(topology, latency, FloodingConfig { ttl, dedup, digests })
        }
        ProtocolKind::FastTrack => {
            let config = SuperPeerConfig { supers, ttl, digests, ..SuperPeerConfig::default() };
            Substrate::fasttrack(n, config, latency, seed)
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every hop ends as exactly one [`Fate`]. A hop is a `Query` or
    /// `ServerQuery` event, a flat origin's look at its own shares (a
    /// Gnutella `QueryIssue` at a live origin), or a dropped uplink (a
    /// FastTrack `QueryIssue` at a live leaf while no super is live: a
    /// live leaf is homed at a live super otherwise). Replaying the
    /// trace's churn over the liveness the test set, with `Q` and `S` the
    /// `Query` and `ServerQuery` events, `L` the looks, `D` the dropped
    /// uplinks and `E` the free entries (a FastTrack `QueryIssue` at a
    /// live super, whose copy to itself is a `Query` event that no
    /// message carried):
    ///
    /// ```text
    /// Σ_{f ≠ ProviderOffline} fate_count(f) = Q + S + L + D
    /// count(MsgKind::Query)                 = Q + S + D − E
    /// ```
    ///
    /// so `Σ fates = count(Query) + L + E`. Each of those events carries
    /// its fate in the trace and no other event carries one, each fate's
    /// counter equals its entries in the trace, and `Forwarded` equals the
    /// distinct `(qid, via)` among the copies a visit sent. Retrieves
    /// keep `Retrieve = RetrieveOk + RetrieveFail + ProviderOffline`.
    #[test]
    fn every_hop_ends_as_exactly_one_fate(
        dims in (0usize..3, 8usize..40, 0u64..500),
        shape in (1u8..6, any::<bool>(), any::<bool>(), 1usize..5),
        publishes in publish_ops(),
        removals in pvec((0usize..16, 0u32..ORACLE_PEERS as u32), 0..8),
        peers in (
            pvec(0u32..ORACLE_PEERS as u32, 0..3),
            pvec(0u32..ORACLE_PEERS as u32, 1..8),
            pvec((0u32..ORACLE_PEERS as u32, 0u32..ORACLE_PEERS as u32, 0usize..16), 0..6),
        ),
        query in oracle_query(),
    ) {
        let ((kind_idx, n, seed), (deaths, origins, retrieves)) = (dims, peers);
        let kind =
            [ProtocolKind::Napster, ProtocolKind::Gnutella, ProtocolKind::FastTrack][kind_idx];
        let mut net = conservation_network(kind, n, seed, shape);
        for op in &publishes {
            let record = ResourceRecord::new(&*op.key, op.community, op.fields.clone());
            net.publish(op.provider, record);
        }
        for &(key, provider) in &removals {
            net.unpublish(PeerId(provider), &format!("k{key}"));
        }
        let mut alive = vec![true; n];
        for &p in &deaths {
            net.set_alive(PeerId(p), false);
            alive[p as usize] = false;
        }
        net.enable_trace();
        let horizon = origins.len() as u64 * 30_000;
        net.schedule_churn(&exponential_schedule(n, horizon, 150_000, 60_000, seed));
        for (i, &origin) in origins.iter().enumerate() {
            let at = i as u64 * 30_000;
            let qid = net.schedule_query(at, PeerId(origin), COMMUNITIES[i % 2], query.clone());
            prop_assert_eq!(qid as usize, i, "query ids start at 0");
        }
        net.run();
        for &(origin, provider, key) in &retrieves {
            net.retrieve(PeerId(origin), PeerId(provider), &format!("k{key}"));
        }

        // supers never move, so the final assignment tells them apart
        let super_of = |p: u32| net.substrate().super_of(PeerId(p));
        let supers = match kind {
            ProtocolKind::FastTrack => net.substrate().topology().map_or(0, |t| t.len()),
            _ => 0,
        };
        let (mut q, mut sq, mut looks, mut dropped, mut free) = (0u64, 0u64, 0u64, 0u64, 0u64);
        let mut senders = BTreeSet::new();
        let mut traced = [0u64; Fate::ALL.len()];
        for (t, event, fate) in net.trace() {
            let hop = match *event {
                DesEvent::Churn { peer, online } => {
                    alive[peer.index()] = online;
                    false
                }
                DesEvent::Query { qid, via, .. } => {
                    q += 1;
                    if via != u32::MAX {
                        senders.insert((qid, via));
                    }
                    true
                }
                DesEvent::ServerQuery { .. } => {
                    sq += 1;
                    true
                }
                DesEvent::QueryIssue { qid } => {
                    let origin = origins[qid as usize];
                    let live = alive[origin as usize];
                    let no_super_live = !alive[..supers].contains(&true);
                    match (kind, super_of(origin)) {
                        (ProtocolKind::Gnutella, _) if live => {
                            looks += 1;
                            true
                        }
                        (ProtocolKind::FastTrack, Some(s)) if live && s == origin as usize => {
                            free += 1;
                            false
                        }
                        (ProtocolKind::FastTrack, Some(_)) if live && no_super_live => {
                            dropped += 1;
                            true
                        }
                        _ => false,
                    }
                }
                DesEvent::HitDeliver { .. } | DesEvent::DigestRefresh => false,
            };
            prop_assert_eq!(fate.is_some(), hop, "at {}: {:?} ended as {:?}", t, event, fate);
            if let Some(fate) = fate {
                traced[*fate as usize] += 1;
            }
        }

        let stats = net.stats();
        let hop_fates = Fate::ALL.into_iter().filter(|&f| f != Fate::ProviderOffline);
        for fate in hop_fates.clone() {
            prop_assert_eq!(stats.fate_count(fate), traced[fate as usize], "{:?}", fate);
        }
        let ended: u64 = hop_fates.map(|f| stats.fate_count(f)).sum();
        prop_assert_eq!(ended, q + sq + looks + dropped, "{:?}: every hop ends once", kind);
        prop_assert_eq!(stats.count(MsgKind::Query), q + sq + dropped - free, "{:?}", kind);
        prop_assert_eq!(stats.fate_count(Fate::Forwarded), senders.len() as u64, "{:?}", kind);
        assert_retrieves_conserved(stats);
    }
}
