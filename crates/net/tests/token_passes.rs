//! A record is tokenized once: when it enters an index node. Counted by
//! `up2p_store::token_passes`, one pass per field value through the
//! store's token visitor, on this thread.
//!
//! An index node keeps each record's term symbols, so removing a record,
//! moving it to another super with its leaf, and building or recounting
//! a routing digest read those symbols and tokenize nothing. A value
//! that is not ASCII costs one more pass when it enters — the tokens of
//! its normalized form, which the digests also carry (DESIGN.md §3c) —
//! and none afterwards.

use up2p_net::{
    DesNetwork, DigestConfig, MsgKind, NetConfig, PeerId, PeerNetwork, ProtocolKind,
    ResourceRecord, RetrieveOutcome,
};
use up2p_store::{token_passes, Query};

const PEERS: usize = 200;
const RECORDS: usize = 2_000;
/// A record published after the build; a multiple of 7, so its title is
/// not ASCII when `accents` is set.
const LATE: usize = 2_002;
/// Field values per record.
const VALUES: u64 = 3;

/// Record `i`: three values, the title of every seventh one not ASCII
/// when `accents` is set.
fn record(i: usize, accents: bool) -> ResourceRecord {
    let title = match accents && i.is_multiple_of(7) {
        true => format!("Été {i}"),
        false => format!("Summer {i}"),
    };
    let fields = vec![
        ("track/title".to_string(), title),
        ("track/artist".to_string(), format!("artist{}", i % 50)),
        ("track/genre".to_string(), ["jazz", "rock", "folk"][i % 3].to_string()),
    ];
    ResourceRecord::new(format!("k{i}"), "c", fields)
}

/// Passes `f` costs on this thread.
fn passes(f: impl FnOnce()) -> u64 {
    let before = token_passes();
    f();
    token_passes() - before
}

/// The values of records `0..n` that are not ASCII.
fn accented(n: usize) -> u64 {
    (0..n).filter(|i| i.is_multiple_of(7)).count() as u64
}

#[test]
fn a_guided_fasttrack_record_is_tokenized_when_it_enters_its_super_and_never_again() {
    for accents in [false, true] {
        let digests = DigestConfig { log2_bits: 12, ..DigestConfig::guided() };
        let config = NetConfig::new().digests(digests);
        let mut net = DesNetwork::build(ProtocolKind::FastTrack, PEERS, 1, &config);
        let extra = if accents { accented(RECORDS) } else { 0 };
        let at = format!("accents: {accents}");
        // publish queues each upload; the unpublish of an absent key
        // reads the supers' indexes, which applies every queued one
        let spent = passes(|| {
            for i in 0..RECORDS {
                net.publish(PeerId((i % PEERS) as u32), record(i, accents));
            }
            net.unpublish(PeerId(0), "absent");
        });
        assert_eq!(spent, VALUES * RECORDS as u64 + extra, "{at}: publish and settle");
        assert_eq!(passes(|| net.refresh_digests()), 0, "{at}: the first digest build");
        // super 1 goes offline: its live leaves and their records move
        let publishes = net.stats().count(MsgKind::Publish);
        assert_eq!(passes(|| net.set_alive(PeerId(1), false)), 0, "{at}: a leaf move");
        assert!(net.stats().count(MsgKind::Publish) > publishes, "{at}: nothing moved");
        assert_eq!(passes(|| net.refresh_digests()), 0, "{at}: the refresh after the move");
        assert_eq!(passes(|| net.unpublish(PeerId(7), "k7")), 0, "{at}: an unpublish");
        assert_eq!(passes(|| net.refresh_digests()), 0, "{at}: the refresh after it");
        // a record published after the build: its values once, and the
        // refresh that applies and advertises it nothing more
        let late = passes(|| {
            net.publish(PeerId(42), record(LATE, accents));
            net.refresh_digests();
        });
        assert_eq!(late, VALUES + u64::from(accents), "{at}: a publish after the build");
        let fetched = net.retrieve(PeerId(43), PeerId(42), &format!("k{LATE}"));
        assert_ne!(fetched, RetrieveOutcome::Unavailable, "{at}: it is shared");
    }
}

#[test]
fn a_napster_record_is_tokenized_when_it_enters_the_server_and_not_when_it_leaves() {
    for accents in [false, true] {
        let mut net = DesNetwork::build(ProtocolKind::Napster, PEERS, 1, &NetConfig::new());
        let extra = if accents { accented(RECORDS) } else { 0 };
        let spent = passes(|| {
            for i in 0..RECORDS {
                net.publish(PeerId((i % PEERS) as u32), record(i, accents));
            }
        });
        assert_eq!(spent, VALUES * RECORDS as u64 + extra, "accents: {accents}: publish");
        let keys: Vec<String> = (0..RECORDS).map(|i| format!("k{i}")).collect();
        let spent = passes(|| {
            for (i, key) in keys.iter().enumerate() {
                net.unpublish(PeerId((i % PEERS) as u32), key);
            }
        });
        assert_eq!(spent, 0, "accents: {accents}: remove");
        assert!(net.search(PeerId(0), "c", &Query::All).hits.is_empty(), "every record left");
    }
}
