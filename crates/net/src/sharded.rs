//! The index node the Napster server serves through `&self`.
//!
//! [`ShardedIndexNode`] is one `RwLock` around a [`crate::IndexNode`]:
//! every method takes the guard and calls the node's own method, so the
//! first-record-wins / last-provider-out semantics exist once, in
//! `index_node.rs`. Reads take the read guard — pool workers search side
//! by side — and `insert` / `remove` the write guard, one critical
//! section each: a reader racing a writer sees the node before or after
//! a write, never inside one.
//!
//! The name is older than the shape. Every measured workload publishes
//! into one community, which a node sharded by community serves from one
//! shard (DESIGN.md §3f, *Why the server's node is one lock*). This is
//! the crate's only lock, and nothing is acquired under it: each guarded
//! section touches the node alone, and the `alive` / `emit` closures
//! [`ShardedIndexNode::search`] runs under the read guard must not lock
//! (no caller's does).

use crate::index_node::IndexNode;
use crate::message::{ResourceRecord, SharedFields};
use crate::peer::PeerId;
use parking_lot::RwLock;
use std::sync::atomic::{AtomicU64, Ordering};
use up2p_store::Query;

/// An [`IndexNode`] servable from many threads through `&self`.
pub struct ShardedIndexNode {
    node: RwLock<IndexNode>,
    /// Write-guard acquisitions; see [`ShardedIndexNode::write_guard_count`].
    write_guards: AtomicU64,
}

impl Default for ShardedIndexNode {
    fn default() -> ShardedIndexNode {
        ShardedIndexNode::new()
    }
}

impl ShardedIndexNode {
    /// Creates an empty index node.
    pub fn new() -> ShardedIndexNode {
        ShardedIndexNode {
            node: RwLock::new(IndexNode::new()),
            write_guards: AtomicU64::new(0),
        }
    }

    /// Number of distinct records currently indexed.
    pub fn len(&self) -> usize {
        self.node.read().len()
    }

    /// `true` when no records are indexed.
    pub fn is_empty(&self) -> bool {
        self.node.read().is_empty()
    }

    /// Number of communities with at least one record ever published.
    pub fn community_count(&self) -> usize {
        self.node.read().community_count()
    }

    /// Write-guard acquisitions so far. Searches must leave this
    /// unchanged — see the regression test in
    /// `tests/sharded_concurrency.rs`.
    pub fn write_guard_count(&self) -> u64 {
        self.write_guards.load(Ordering::Relaxed)
    }

    /// Registers `provider` for the record — first-record-wins, as
    /// [`crate::IndexNode::insert`].
    pub fn insert(&self, provider: PeerId, record: &ResourceRecord) {
        self.write_guards.fetch_add(1, Ordering::Relaxed);
        self.node.write().insert(provider, record);
    }

    /// Withdraws `provider`'s copy of the record; the record's postings
    /// disappear with its last provider.
    pub fn remove(&self, provider: PeerId, key: &str) {
        self.write_guards.fetch_add(1, Ordering::Relaxed);
        self.node.write().remove_slot(provider, key);
    }

    /// Is `provider` currently advertising the record?
    pub fn has_provider(&self, key: &str, provider: PeerId) -> bool {
        self.node.read().has_provider(key, provider)
    }

    /// Number of providers advertising the record.
    pub fn provider_count(&self, key: &str) -> usize {
        self.node.read().provider_count(key)
    }

    /// Evaluates a community-scoped query against this node's records,
    /// invoking `emit(key, provider, fields)` for every (record, live
    /// provider) pair under the read guard, in
    /// [`crate::IndexNode::search`]'s order.
    pub fn search<A, E>(&self, community: &str, query: &Query, alive: A, emit: E)
    where
        A: Fn(PeerId) -> bool,
        E: FnMut(&str, PeerId, &SharedFields),
    {
        self.node.read().search(community, query, alive, emit);
    }
}

impl std::fmt::Debug for ShardedIndexNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let node = self.node.read();
        f.debug_struct("ShardedIndexNode")
            .field("records", &node.len())
            .field("communities", &node.community_count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(key: &str, community: &str, name: &str) -> ResourceRecord {
        ResourceRecord::new(key, community, vec![("o/name".to_string(), name.to_string())])
    }

    fn hits(node: &ShardedIndexNode, community: &str, query: &Query) -> Vec<(String, PeerId)> {
        let mut out = Vec::new();
        node.search(community, query, |_| true, |key, p, _| out.push((key.to_string(), p)));
        out
    }

    #[test]
    fn mirrors_index_node_round_trip_semantics() {
        let node = ShardedIndexNode::new();
        node.insert(PeerId(1), &record("k1", "patterns", "Observer"));
        node.insert(PeerId(2), &record("k2", "patterns", "Visitor"));
        node.insert(PeerId(3), &record("k3", "songs", "Jazz"));
        assert_eq!(node.len(), 3);
        assert_eq!(node.community_count(), 2);
        assert_eq!(
            hits(&node, "patterns", &Query::any_keyword("observer")),
            vec![("k1".to_string(), PeerId(1))]
        );
        node.remove(PeerId(1), "k1");
        assert!(hits(&node, "patterns", &Query::any_keyword("observer")).is_empty());
        node.remove(PeerId(9), "k2");
        node.remove(PeerId(1), "missing");
        assert_eq!(node.len(), 2);
    }

    #[test]
    fn first_record_wins_and_providers_accumulate() {
        let node = ShardedIndexNode::new();
        node.insert(PeerId(1), &record("k", "c", "original"));
        node.insert(PeerId(2), &record("k", "c", "changed"));
        assert_eq!(node.provider_count("k"), 2);
        assert!(node.has_provider("k", PeerId(2)));
        assert!(!node.has_provider("k", PeerId(3)));
        assert_eq!(hits(&node, "c", &Query::any_keyword("original")).len(), 2);
        assert!(hits(&node, "c", &Query::any_keyword("changed")).is_empty());
        node.remove(PeerId(1), "k");
        node.remove(PeerId(2), "k");
        assert!(node.is_empty());
    }

    #[test]
    fn search_agrees_with_index_node_on_an_interleaved_history() {
        // drive both implementations through one randomized-ish op tape
        // and compare observable state at every step
        let sharded = ShardedIndexNode::new();
        let mut linear = crate::IndexNode::new();
        let communities = ["a", "b", "c"];
        for step in 0u32..200 {
            let key = format!("k{}", step % 17);
            let community = communities[(step % 3) as usize];
            let peer = PeerId(step % 5);
            let rec = record(&key, community, &format!("name{} term{}", step % 7, step % 11));
            match step % 4 {
                0..=2 => {
                    sharded.insert(peer, &rec);
                    linear.insert(peer, &rec);
                }
                _ => {
                    sharded.remove(peer, &key);
                    linear.remove_slot(peer, &key);
                }
            }
            assert_eq!(sharded.len(), linear.len(), "step {step}");
            for c in communities {
                let q = Query::any_keyword(&format!("name{}", step % 7));
                let mut a = Vec::new();
                sharded.search(c, &q, |_| true, |k, p, _| a.push((k.to_string(), p)));
                let mut b = Vec::new();
                linear.search(c, &q, |_| true, |k, p, _| b.push((k.to_string(), p)));
                assert_eq!(a, b, "step {step} community {c}");
            }
        }
    }

    #[test]
    fn liveness_filters_the_candidate_set() {
        let node = ShardedIndexNode::new();
        node.insert(PeerId(1), &record("k", "c", "x"));
        node.insert(PeerId(2), &record("k", "c", "x"));
        let mut v = Vec::new();
        node.search("c", &Query::any_keyword("x"), |p| p == PeerId(2), |_, p, _| v.push(p));
        assert_eq!(v, vec![PeerId(2)]);
    }

    #[test]
    fn hits_share_the_published_metadata_allocation() {
        let node = ShardedIndexNode::new();
        let rec = record("k", "c", "x");
        node.insert(PeerId(1), &rec);
        let mut shared = false;
        node.search("c", &Query::All, |_| true, |_, _, fields| {
            shared = SharedFields::ptr_eq(fields, &rec.fields);
        });
        assert!(shared, "no metadata copy between publish and hit");
    }
}
