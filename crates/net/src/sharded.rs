//! An [`IndexNode`] that counts its writes.
//!
//! [`ShardedIndexNode`] is an [`IndexNode`] plus a counter of the
//! `insert` / `remove` calls made on it. Writes take `&mut self` and
//! [`ShardedIndexNode::search`] takes `&self`, so "a search writes
//! nothing" is a fact the borrow checker holds; the counter reports it
//! to the benchmark's `net.sharded.write_guards` probe, which reads 0
//! across its traced searches. The first-record-wins / last-provider-out
//! semantics exist once, in `index_node.rs`. The Napster server holds a
//! plain [`IndexNode`], as every super-peer does.

use crate::index_node::IndexNode;
use crate::message::{ResourceRecord, SharedFields};
use crate::peer::PeerId;
use up2p_store::Query;

/// An [`IndexNode`] with a count of the writes made on it.
#[derive(Debug, Default)]
pub struct ShardedIndexNode {
    node: IndexNode,
    /// Writes so far; see [`ShardedIndexNode::write_guard_count`].
    writes: u64,
}

impl ShardedIndexNode {
    /// Creates an empty index node.
    pub fn new() -> ShardedIndexNode {
        ShardedIndexNode::default()
    }

    /// Number of distinct records currently indexed.
    pub fn len(&self) -> usize {
        self.node.len()
    }

    /// `true` when no records are indexed.
    pub fn is_empty(&self) -> bool {
        self.node.is_empty()
    }

    /// `insert` and `remove` calls so far. A search takes `&self` and
    /// leaves this unchanged.
    pub fn write_guard_count(&self) -> u64 {
        self.writes
    }

    /// Registers `provider` for the record — first-record-wins, as
    /// [`IndexNode::insert`].
    pub fn insert(&mut self, provider: PeerId, record: &ResourceRecord) {
        self.writes += 1;
        self.node.insert(provider, record);
    }

    /// Withdraws `provider`'s copy of the record; the record's postings
    /// disappear with its last provider.
    pub fn remove(&mut self, provider: PeerId, key: &str) {
        self.writes += 1;
        self.node.remove(provider, key);
    }

    /// Evaluates a community-scoped query against this node's records,
    /// invoking `emit(key, provider, fields)` for every (record, live
    /// provider) pair, in [`IndexNode::search`]'s order.
    pub fn search<A, E>(&self, community: &str, query: &Query, alive: A, emit: E)
    where
        A: Fn(PeerId) -> bool,
        E: FnMut(&str, PeerId, &SharedFields),
    {
        self.node.search(community, query, alive, emit);
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
        let mut node = ShardedIndexNode::new();
        node.insert(PeerId(1), &record("k1", "patterns", "Observer"));
        node.insert(PeerId(2), &record("k2", "patterns", "Visitor"));
        node.insert(PeerId(3), &record("k3", "songs", "Jazz"));
        assert_eq!(node.len(), 3);
        assert_eq!(hits(&node, "songs", &Query::All), vec![("k3".to_string(), PeerId(3))]);
        assert_eq!(
            hits(&node, "patterns", &Query::any_keyword("observer")),
            vec![("k1".to_string(), PeerId(1))]
        );
        node.remove(PeerId(1), "k1");
        assert!(hits(&node, "patterns", &Query::any_keyword("observer")).is_empty());
        node.remove(PeerId(9), "k2");
        node.remove(PeerId(1), "missing");
        assert_eq!(node.len(), 2);
        assert_eq!(node.write_guard_count(), 6, "every insert and remove counts");
    }

    #[test]
    fn first_record_wins_and_providers_accumulate() {
        let mut node = ShardedIndexNode::new();
        node.insert(PeerId(1), &record("k", "c", "original"));
        node.insert(PeerId(2), &record("k", "c", "changed"));
        assert!(node.node.has_provider("k", PeerId(1)));
        assert!(node.node.has_provider("k", PeerId(2)));
        assert!(!node.node.has_provider("k", PeerId(3)));
        assert_eq!(hits(&node, "c", &Query::any_keyword("original")).len(), 2);
        assert!(hits(&node, "c", &Query::any_keyword("changed")).is_empty());
        node.remove(PeerId(1), "k");
        node.remove(PeerId(2), "k");
        assert!(node.is_empty());
    }

    #[test]
    fn search_agrees_with_index_node_on_an_interleaved_history() {
        // drive both through one op tape and compare observable state,
        // and the write count, at every step
        let mut sharded = ShardedIndexNode::new();
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
                    linear.remove(peer, &key);
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
            assert_eq!(sharded.write_guard_count(), u64::from(step) + 1, "searches write nothing");
        }
    }

    #[test]
    fn liveness_filters_the_candidate_set() {
        let mut node = ShardedIndexNode::new();
        node.insert(PeerId(1), &record("k", "c", "x"));
        node.insert(PeerId(2), &record("k", "c", "x"));
        let mut v = Vec::new();
        node.search("c", &Query::any_keyword("x"), |p| p == PeerId(2), |_, p, _| v.push(p));
        assert_eq!(v, vec![PeerId(2)]);
    }

    #[test]
    fn hits_share_the_published_metadata_allocation() {
        let mut node = ShardedIndexNode::new();
        let rec = record("k", "c", "x");
        node.insert(PeerId(1), &rec);
        let mut shared = false;
        node.search("c", &Query::All, |_| true, |_, _, fields| {
            shared = SharedFields::ptr_eq(fields, &rec.fields);
        });
        assert!(shared, "no metadata copy between publish and hit");
    }
}
