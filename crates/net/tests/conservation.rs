//! Message conservation: each protocol sends exactly its own set of
//! [`MsgKind`]s. One script — two publishes from non-super peers, a
//! search that hits, a retrieve that fetches, one of a missing key and
//! one from a dead provider, an unpublish from a leaf and a second search
//! — runs on every protocol, blind and guided, through both schedulers,
//! and the kinds with a nonzero count must be the protocol's row of
//! [`SENDS`]. Deleting an emission site empties its kind; a substrate
//! counting a kind that is not its own (Gnutella publishes locally, so a
//! `Publish` there) adds one. The step and DES runs must count every
//! kind alike, so the DES engine sending anything of its own fails here
//! as well as in `des_equivalence.rs`.

use up2p_net::{
    build_network_with, DesNetwork, DigestConfig, MsgKind, NetConfig, PeerId, PeerNetwork,
    ProtocolKind, ResourceRecord,
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
fn every_protocol_sends_exactly_its_own_kinds_under_both_schedulers() {
    for (kind, blind) in SENDS {
        for guided in [false, true] {
            let digests = if guided { DigestConfig::guided() } else { DigestConfig::default() };
            let config = NetConfig::new().digests(digests);
            let step = run_script(&mut *build_network_with(kind, PEERS, SEED, &config));
            let des = run_script(&mut DesNetwork::build(kind, PEERS, SEED, &config));
            assert_eq!(step, des, "{kind} (guided: {guided}): the schedulers count alike");

            let mut expected = blind.to_vec();
            if guided && kind != ProtocolKind::Napster {
                expected.extend([MsgKind::DigestPush, MsgKind::DigestRequest]);
            }
            let sent: Vec<MsgKind> =
                step.iter().filter(|&&(_, n)| n > 0).map(|&(k, _)| k).collect();
            assert_eq!(sent, expected, "{kind} (guided: {guided}) sent {step:?}");
        }
    }
}
