//! Allocation budgets of the search paths and of a replica publish,
//! counted by a global allocator that counts what the calling thread
//! allocates (`alloc`, `alloc_zeroed` and `realloc` each count one), so
//! tests running beside it on other threads add nothing.
//!
//! A search builds one `SearchHit` per (record, live provider), and each
//! hit's key is one `String`: a search allocates at least once per hit.
//! Everything else it allocates is a budget per search, the same at
//! every index size: the hit vector, sized from the count of matching
//! records where they are gathered, the vectors those records are
//! gathered into, and the driver's bookkeeping. A search that allocated
//! per candidate again, beside the key, or grew its hit vector one
//! doubling at a time, would exceed it at the larger index.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use up2p_net::{
    build_network, build_network_with, DesNetwork, DigestConfig, MsgKind, NetConfig, PeerId,
    PeerNetwork, ProtocolKind, ResourceRecord,
};
use up2p_store::Query;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // a thread being torn down has no counter left; nothing to count
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// counter is a const-initialized thread-local `Cell`, which neither
// allocates nor runs a destructor.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's contract for `alloc`, passed on
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's contract for `alloc_zeroed`, passed on
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: the caller's contract for `realloc`, passed on
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's contract for `dealloc`, passed on
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Allocations made on this thread so far.
fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// Allocations a Napster search may make beyond one per hit, at any
/// index size: one for the hit vector and 8 for the search — the one
/// vector of gathered rows and the driver's per-query state.
const NAPSTER_BUDGET: u64 = 9;

/// The same for a FastTrack search, whose query floods all 8 supers
/// (`ceil(sqrt 50)`): per super that answers, the rows it gathers, the
/// matches it hands back and at most one growth of the query's hit
/// vector, and the driver's per-query state.
const FASTTRACK_BUDGET: u64 = 26;

const PEERS: usize = 50;

/// `(hits, allocations)` of one search of `kind` for the tenth of
/// `records` records that are jazz, each shared by one of `PEERS` peers,
/// all online. The counted search is the second of two equal ones, so no
/// queue or table grown by the first is counted.
fn search(kind: ProtocolKind, records: usize) -> (u64, u64) {
    let mut net = build_network(kind, PEERS, 1);
    for i in 0..records {
        let genre = if i % 10 == 0 { "jazz" } else { "rock" };
        let fields = vec![
            ("track/title".to_string(), format!("track {i}")),
            ("track/genre".to_string(), genre.to_string()),
        ];
        net.publish(PeerId((i % PEERS) as u32), ResourceRecord::new(format!("k{i}"), "c", fields));
    }
    let query = Query::any_keyword("jazz");
    let warm = net.search(PeerId(PEERS as u32 - 1), "c", &query);
    let before = allocations();
    let out = net.search(PeerId(PEERS as u32 - 1), "c", &query);
    let spent = allocations() - before;
    assert_eq!(out.hits.len(), warm.hits.len());
    (out.hits.len() as u64, spent)
}

/// Holds a search of `kind` to one allocation a hit and `budget` beyond,
/// at 2 000 and at 20 000 records.
fn within_budget(kind: ProtocolKind, budget: u64) {
    for records in [2_000, 20_000] {
        let (hits, spent) = search(kind, records);
        let at = format!("{kind:?}, {records} records");
        assert_eq!(hits as usize, records / 10, "{at}: every jazz record is one hit");
        assert!(spent >= hits, "{at}: {spent} allocations, fewer than {hits} hits");
        let beyond = spent - hits;
        assert!(
            beyond <= budget,
            "{at}: {spent} allocations, {hits} hits, {beyond} beyond (budget {budget})"
        );
    }
}

#[test]
fn a_napster_search_allocates_once_per_hit_and_a_budget_per_search() {
    within_budget(ProtocolKind::Napster, NAPSTER_BUDGET);
}

#[test]
fn a_fasttrack_search_allocates_once_per_hit_and_a_budget_per_search() {
    within_budget(ProtocolKind::FastTrack, FASTTRACK_BUDGET);
}

/// Allocations a guided Gnutella search for 20 hits may make beyond one
/// per hit, at any network size: the query's copy, community and
/// compiled probe (5); its admitted set, visited bitmap and guided pick
/// list (3); the arena's hit vector, sized once at its first hit for the
/// answering peer's records (1); the trail of forwarding visits, grown
/// one doubling at a time (4 at most, within 32 visits); and the event
/// queue's buckets (2).
const GUIDED_BUDGET: u64 = 15;

/// The same for a guided FastTrack search on `search_guided`'s digests,
/// whose query goes from super 7 to super 0 by its digests: the query's
/// copy and compiled probe, the guided walk's bookkeeping, what super 0
/// gathers and hands back, and the event queue's buckets.
const GUIDED_FASTTRACK_BUDGET: u64 = 14;

/// `(hits, allocations)` of one guided search of `kind` from peer 7 over
/// `peers` peers that share ten records each: peer 0 holds the 20 jazz
/// ones, within the digests' reach of peer 7 at both sizes tested (on
/// FastTrack both are supers). The counted search is the second of two
/// equal ones, as in [`search`].
fn guided_search(kind: ProtocolKind, digests: DigestConfig, peers: usize) -> (u64, u64) {
    let config = NetConfig::new().digests(digests);
    let mut net = build_network_with(kind, peers, 1, &config);
    for i in 0..peers * 10 {
        let (genre, at) = if i < 20 { ("jazz", 0) } else { ("rock", i % peers) };
        let fields = vec![
            ("track/title".to_string(), format!("track {i}")),
            ("track/genre".to_string(), genre.to_string()),
        ];
        net.publish(PeerId(at as u32), ResourceRecord::new(format!("k{i}"), "c", fields));
    }
    let query = Query::any_keyword("jazz");
    let warm = net.search(PeerId(7), "c", &query);
    let before = allocations();
    let out = net.search(PeerId(7), "c", &query);
    let spent = allocations() - before;
    assert_eq!(out.hits.len(), warm.hits.len());
    (out.hits.len() as u64, spent)
}

/// Holds a guided search of `kind` for 20 hits to one allocation a hit
/// and `budget` beyond, at 200 and at 4 096 peers.
fn guided_within_budget(kind: ProtocolKind, digests: DigestConfig, budget: u64) {
    for peers in [200, 4_096] {
        let (hits, spent) = guided_search(kind, digests, peers);
        let at = format!("guided {kind:?}, {peers} peers");
        assert_eq!(hits, 20, "{at}: every jazz record is one hit");
        let beyond = spent - hits;
        assert!(
            beyond <= budget,
            "{at}: {spent} allocations, {hits} hits, {beyond} beyond (budget {budget})"
        );
    }
}

#[test]
fn a_guided_gnutella_search_allocates_once_per_hit_and_a_budget_per_search() {
    let digests = DigestConfig { log2_bits: 12, ..DigestConfig::guided() };
    guided_within_budget(ProtocolKind::Gnutella, digests, GUIDED_BUDGET);
}

#[test]
fn a_guided_fasttrack_search_allocates_once_per_hit_and_a_budget_per_search() {
    guided_within_budget(ProtocolKind::FastTrack, DigestConfig::guided(), GUIDED_FASTTRACK_BUDGET);
}

/// A warm digest refresh allocates nothing (DESIGN.md §3c): on a guided
/// Gnutella world whose digests are built, neither a refresh with nothing
/// dirty nor one after a publish to a node whose Bloom counts already
/// exist. The second must do work, or the first would hold it vacuously.
#[test]
fn a_warm_digest_refresh_allocates_nothing() {
    let digests = DigestConfig { log2_bits: 12, ..DigestConfig::guided() };
    let config = NetConfig::new().digests(digests);
    let mut net = DesNetwork::build(ProtocolKind::Gnutella, 200, 1, &config);
    let record = |i: usize| {
        let fields = vec![("track/title".to_string(), format!("track {i}"))];
        ResourceRecord::new(format!("k{i}"), "c", fields)
    };
    for i in 0..2_000 {
        net.publish(PeerId((i % 200) as u32), record(i));
    }
    net.refresh_digests();
    // peer 3's first write since the build gives it its Bloom counts
    net.publish(PeerId(3), record(2_000));
    net.refresh_digests();

    let before = allocations();
    net.refresh_digests();
    assert_eq!(allocations() - before, 0, "a refresh with nothing dirty");

    net.publish(PeerId(3), record(2_001));
    let pushes = net.stats().count(MsgKind::DigestPush);
    let before = allocations();
    net.refresh_digests();
    let spent = allocations() - before;
    assert!(net.stats().count(MsgKind::DigestPush) > pushes, "the refresh pushed nothing");
    assert_eq!(spent, 0, "a refresh after a publish to a node with counts");
}

/// Allocations of `n` pushes into an empty vector of provider ids: the
/// growth of a provider list from nothing to `n`.
fn provider_list_growth(n: u32) -> u64 {
    let before = allocations();
    let mut list = Vec::new();
    for p in 0..n {
        std::hint::black_box(&mut list).push(PeerId(p));
    }
    allocations() - before
}

/// A replica publish on Napster, a key the server already indexes,
/// adds its provider and nothing else: over 40 replicas of one record,
/// the server allocates only for the growth of the record's provider
/// list from one provider to 41.
#[test]
fn a_replica_publish_allocates_only_its_provider_lists_growth() {
    let mut net = build_network(ProtocolKind::Napster, PEERS, 1);
    let record = || {
        let fields = vec![("track/title".to_string(), "shared track".to_string())];
        ResourceRecord::new("k", "c", fields)
    };
    net.publish(PeerId(0), record());
    let mut spent = 0;
    for p in 1..=40 {
        let replica = record();
        let before = allocations();
        net.publish(PeerId(p), replica);
        spent += allocations() - before;
    }
    let growth = provider_list_growth(41) - provider_list_growth(1);
    assert!(spent <= growth, "40 replica publishes: {spent} allocations, growth {growth}");
    let out = net.search(PeerId(0), "c", &Query::any_keyword("shared"));
    assert_eq!(out.hits.len(), 41, "one hit per provider");
}

/// Allocations of one write to an index node, once it has seen the
/// record's terms and freed a doc-id before: the record's `ResourceId`,
/// its symbol vector, and, where its doc-id's provider list is not
/// recycled, that list (a FastTrack upload also allocates the queue it
/// waits in until its super's index is next read, where it reuses the
/// freed provider list). Removing it allocates nothing: it is looked up
/// by the key it came with, and its postings are replayed from its
/// symbols.
const INSERT_BUDGET: u64 = 3;

/// `(insert, remove)` allocations of a record entering and leaving the
/// index of `kind`'s server or super: the record shares its terms with
/// the 200 already published, and a record published and withdrawn
/// before it left its doc-id free.
fn index_write(kind: ProtocolKind) -> (u64, u64) {
    let mut net = DesNetwork::build(kind, PEERS, 1, &NetConfig::new());
    let record = |i: usize| {
        let fields = vec![
            ("track/title".to_string(), format!("track {}", i % 20)),
            ("track/genre".to_string(), "jazz".to_string()),
        ];
        ResourceRecord::new(format!("k{i}"), "c", fields)
    };
    for i in 0..200 {
        net.publish(PeerId((i % PEERS) as u32), record(i));
    }
    let provider = PeerId(PEERS as u32 - 1);
    let mut spent = (0, 0);
    for i in [200, 201] {
        let (fresh, key) = (record(i), format!("k{i}"));
        let before = allocations();
        net.publish(provider, fresh);
        // FastTrack: the read that applies the queued upload
        net.refresh_digests();
        let inserted = allocations() - before;
        let before = allocations();
        net.unpublish(provider, &key);
        spent = (inserted, allocations() - before);
    }
    let out = net.search(PeerId(0), "c", &Query::any_keyword("jazz"));
    assert_eq!(out.hits.len(), 200, "{kind:?}: the record left again");
    spent
}

#[test]
fn an_index_write_allocates_its_id_and_symbols_and_a_remove_nothing() {
    for kind in [ProtocolKind::Napster, ProtocolKind::FastTrack] {
        let (inserted, removed) = index_write(kind);
        assert!(inserted <= INSERT_BUDGET, "{kind:?}: an insert allocated {inserted} times");
        assert_eq!(removed, 0, "{kind:?}: a remove allocated");
    }
}
