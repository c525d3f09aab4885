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

use up2p_net::{
    build_network_with, DigestConfig, MsgKind, NetConfig, PeerId, PeerNetwork, ProtocolKind,
    ResourceRecord,
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
    assert!(net.retrieve(PeerId(50), PeerId(20), "k1").is_fetched());
    assert!(!net.retrieve(PeerId(50), PeerId(20), "missing").is_fetched());
    net.set_alive(PeerId(41), false);
    assert!(!net.retrieve(PeerId(50), PeerId(41), "k2").is_fetched());
    net.unpublish(PeerId(20), "k1");
    net.search(PeerId(50), "c", &Query::any_keyword("observer"));
    MsgKind::ALL.into_iter().map(|k| (k, net.stats().count(k))).collect()
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
