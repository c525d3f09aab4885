//! Concurrency properties of [`ShardedIndexNode`], one `RwLock` around an
//! [`IndexNode`]: readers racing one writer only ever observe states the
//! sequential oracle passes through, in oracle order; and the search
//! path never takes a write guard.

use proptest::collection::vec as pvec;
use proptest::prelude::*;
use std::collections::BTreeSet;
use up2p_net::{IndexNode, PeerId, ResourceRecord, ShardedIndexNode};
use up2p_store::Query;

const COMMUNITIES: [&str; 2] = ["alpha", "beta"];

/// One write of the racing workload: publish/withdraw (`insert`/
/// `remove`), the node's only writes, each a single critical section
/// under the node's write guard — so every state a concurrent reader can
/// observe is exactly a sequential prefix of the tape.
#[derive(Debug, Clone)]
enum Op {
    Insert { key: usize, community: usize, peer: u32, name: &'static str },
    Remove { key: usize, peer: u32 },
}

fn name_word() -> impl Strategy<Value = &'static str> {
    prop_oneof![Just("apple"), Just("banana"), Just("observer"), Just("pattern")]
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    pvec(
        prop_oneof![
            (0usize..8, 0usize..COMMUNITIES.len(), 0u32..4, name_word())
                .prop_map(|(key, community, peer, name)| Op::Insert { key, community, peer, name }),
            (0usize..8, 0u32..4).prop_map(|(key, peer)| Op::Remove { key, peer }),
        ],
        1..32,
    )
}

fn record(op: &Op) -> Option<ResourceRecord> {
    match op {
        Op::Insert { key, community, name, .. } => Some(ResourceRecord::new(
            format!("k{key}"),
            COMMUNITIES[*community],
            vec![("o/name".to_string(), (*name).to_string())],
        )),
        Op::Remove { .. } => None,
    }
}

/// A hit set as observed by a reader: `(key, provider)` pairs.
type HitSet = BTreeSet<(String, PeerId)>;

/// Hit set of `community` under `Query::All` with everyone alive — the
/// most state-sensitive observation a reader can make.
fn observe(node: &ShardedIndexNode, community: &str) -> HitSet {
    let mut hits = BTreeSet::new();
    node.search(community, &Query::All, |_| true, |key, p, _| {
        hits.insert((key.to_string(), p));
    });
    hits
}

/// The sequential oracle: per community, the hit set after every prefix
/// of the tape (index 0 = empty node).
fn oracle_states(tape: &[Op]) -> Vec<Vec<HitSet>> {
    let mut node = IndexNode::new();
    let mut states: Vec<Vec<HitSet>> = COMMUNITIES
        .iter()
        .map(|_| vec![BTreeSet::new()])
        .collect();
    for op in tape {
        match op {
            Op::Insert { peer, .. } => {
                let rec = record(op).expect("insert has a record");
                node.insert(PeerId(*peer), &rec);
            }
            Op::Remove { key, peer } => {
                node.remove_slot(PeerId(*peer), &format!("k{key}"));
            }
        }
        for (c, community) in COMMUNITIES.iter().enumerate() {
            let mut hits = BTreeSet::new();
            node.search(community, &Query::All, |_| true, |key, p, _| {
                hits.insert((key.to_string(), p));
            });
            states[c].push(hits);
        }
    }
    states
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// N concurrent readers + 1 writer: every hit set a reader observes
    /// equals some sequential-oracle prefix state of that community, and
    /// each reader's observations advance monotonically through the
    /// oracle sequence (one `RwLock` ⇒ no time travel).
    #[test]
    fn readers_observe_exactly_sequential_oracle_prefixes(tape in ops()) {
        const READERS: usize = 3;
        const READS: usize = 24;
        let states = oracle_states(&tape);
        let node = ShardedIndexNode::new();
        let observations: Vec<Vec<(usize, HitSet)>> =
            std::thread::scope(|scope| {
                let readers: Vec<_> = (0..READERS)
                    .map(|r| {
                        let node = &node;
                        scope.spawn(move || {
                            let mut seen = Vec::with_capacity(READS);
                            for i in 0..READS {
                                let c = (r + i) % COMMUNITIES.len();
                                seen.push((c, observe(node, COMMUNITIES[c])));
                                std::thread::yield_now();
                            }
                            seen
                        })
                    })
                    .collect();
                for op in &tape {
                    match op {
                        Op::Insert { peer, .. } => {
                            let rec = record(op).expect("insert has a record");
                            node.insert(PeerId(*peer), &rec);
                        }
                        Op::Remove { key, peer } => {
                            node.remove(PeerId(*peer), &format!("k{key}"));
                        }
                    }
                    std::thread::yield_now();
                }
                readers.into_iter().map(|h| h.join().expect("reader thread")).collect()
            });
        for (r, seen) in observations.iter().enumerate() {
            // earliest oracle index each community may still be at
            let mut floor = vec![0usize; COMMUNITIES.len()];
            for (step, (c, hits)) in seen.iter().enumerate() {
                let found = (floor[*c]..states[*c].len()).find(|&i| &states[*c][i] == hits);
                match found {
                    Some(i) => floor[*c] = i,
                    None => prop_assert!(
                        false,
                        "reader {r} step {step}: observed state of {} matches no oracle \
                         prefix ≥ {} — got {hits:?}",
                        COMMUNITIES[*c],
                        floor[*c],
                    ),
                }
            }
        }
        // after the writer finishes, everyone converges on the final state
        for (c, community) in COMMUNITIES.iter().enumerate() {
            let last = states[c].last().expect("oracle has an initial state");
            prop_assert_eq!(&observe(&node, community), last);
        }
    }
}

/// Regression: the read path (search, provider checks, counts) never
/// acquires the write guard.
#[test]
fn search_never_takes_a_write_guard() {
    let node = ShardedIndexNode::new();
    for i in 0..20u32 {
        node.insert(
            PeerId(i % 5),
            &ResourceRecord::new(
                format!("k{i}"),
                COMMUNITIES[i as usize % 2],
                vec![("o/name".to_string(), format!("name{i}"))],
            ),
        );
    }
    let writes_after_publish = node.write_guard_count();
    assert!(writes_after_publish > 0, "publishing takes the write guard");
    for _ in 0..50 {
        for community in COMMUNITIES {
            observe(&node, community);
        }
        observe(&node, "never-published"); // unknown community: still read-only
        assert!(node.has_provider("k3", PeerId(3)));
        assert!(!node.has_provider("k3", PeerId(4)));
        assert_eq!(node.provider_count("k0"), 1);
        assert_eq!(node.len(), 20);
        assert!(!node.is_empty());
        assert_eq!(node.community_count(), 2);
    }
    assert_eq!(
        node.write_guard_count(),
        writes_after_publish,
        "a search/read acquired a write guard"
    );
}
