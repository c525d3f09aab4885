//! Allocation budgets of the search paths, counted by a global allocator
//! that counts what the calling thread allocates (`alloc`, `alloc_zeroed`
//! and `realloc` each count one), so tests running beside it on other
//! threads add nothing.
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
use up2p_net::{build_network, PeerId, ProtocolKind, ResourceRecord};
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
