//! Community-sharded, read-mostly index node for the serving plane.
//!
//! [`ShardedIndexNode`] is the concurrent counterpart of
//! [`crate::IndexNode`]: the same community-partitioned metadata index
//! (one [`CommunityTable`] per community, identical first-record-wins /
//! last-provider-out semantics — the implementation is literally
//! shared), but every community's table sits behind its own `RwLock`
//! shard so the node can be served from many threads at once:
//!
//! * `search` takes **read guards only** — a router read to resolve the
//!   community to its shard, then a shard read to evaluate the query.
//!   Queries against different communities touch disjoint shards;
//!   queries against the same community share a read guard. Neither
//!   path touches the key table.
//! * `insert`/`remove` serialize on the key-routing table
//!   (`keys`) and then write **only the owning shard**, so a publish
//!   into one community never blocks searches of another.
//!
//! Lock discipline (named classes, registered with the runtime
//! lock-order checker in debug builds and the `up2p-analyzer`
//! declared-order graph):
//!
//! ```text
//! sharded.keys  →  sharded.router  →  sharded.shard
//! ```
//!
//! Writers hold `keys` for the whole mutation and acquire the router
//! and shard guards strictly under it, one shard guard at a time.
//! Readers clone the shard's `Arc` out of the router guard and drop it
//! before locking the shard, so no read path ever nests guards.

use crate::index_node::CommunityTable;
use crate::message::{ResourceRecord, SharedFields};
use crate::peer::PeerId;
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use up2p_store::{Query, ResourceId};

/// Community name → shard slot plus the shard handles themselves.
/// Written only when a record is first published into a brand-new
/// community; every other operation takes it read-only.
#[derive(Default)]
struct Router {
    names: HashMap<String, u32>,
    shards: Vec<Arc<RwLock<CommunityTable>>>,
}

/// A community-sharded [`crate::IndexNode`] servable from many threads
/// through `&self`.
pub struct ShardedIndexNode {
    /// Lock class `sharded.router` — read-mostly community routing.
    router: RwLock<Router>,
    /// Lock class `sharded.keys` — record key → shard slot, for
    /// community-blind removal and provider checks. Searches never
    /// touch it; writers serialize on it.
    keys: RwLock<HashMap<ResourceId, u32>>,
    /// Write-guard acquisitions across all three lock classes. Test
    /// instrumentation: the search-is-read-only regression asserts this
    /// stays flat across queries.
    write_guards: AtomicU64,
}

impl Default for ShardedIndexNode {
    fn default() -> ShardedIndexNode {
        ShardedIndexNode::new()
    }
}

impl ShardedIndexNode {
    /// Creates an empty sharded index node and (debug builds) registers
    /// the shard lock classes with the runtime lock-order checker.
    pub fn new() -> ShardedIndexNode {
        #[cfg(debug_assertions)]
        {
            static DECLARED: std::sync::Once = std::sync::Once::new();
            DECLARED.call_once(|| {
                parking_lot::declare_order(&["sharded.keys", "sharded.router", "sharded.shard"]);
            });
        }
        ShardedIndexNode {
            router: RwLock::with_name("sharded.router", Router::default()),
            keys: RwLock::with_name("sharded.keys", HashMap::new()),
            write_guards: AtomicU64::new(0),
        }
    }

    /// Number of distinct records currently indexed.
    pub fn len(&self) -> usize {
        let keys = self.keys.read();
        keys.len()
    }

    /// `true` when no records are indexed.
    pub fn is_empty(&self) -> bool {
        let keys = self.keys.read();
        keys.is_empty()
    }

    /// Number of communities with at least one record ever published
    /// (shards are created lazily and never reclaimed).
    pub fn community_count(&self) -> usize {
        let router = self.router.read();
        router.shards.len()
    }

    /// Write-guard acquisitions so far (any lock class). Searches must
    /// leave this unchanged — see the regression test in
    /// `tests/sharded_concurrency.rs`.
    pub fn write_guard_count(&self) -> u64 {
        self.write_guards.load(Ordering::Relaxed)
    }

    /// Clones the shard handle for `slot` out of the router (read
    /// guard dropped on return, so callers lock the shard unnested).
    fn shard(&self, slot: u32) -> Arc<RwLock<CommunityTable>> {
        let router = self.router.read();
        Arc::clone(&router.shards[slot as usize])
    }

    /// Resolves the community's shard slot, materializing the shard on
    /// first publish into a new community (the only router write).
    fn slot_for(&self, community: &str) -> u32 {
        {
            let router = self.router.read();
            if let Some(&slot) = router.names.get(community) {
                return slot;
            }
        }
        self.write_guards.fetch_add(1, Ordering::Relaxed);
        let mut router = self.router.write();
        if let Some(&slot) = router.names.get(community) {
            return slot;
        }
        let slot = router.shards.len() as u32;
        router.names.insert(community.to_string(), slot);
        router.shards.push(Arc::new(RwLock::with_name("sharded.shard", CommunityTable::default())));
        slot
    }

    /// Registers `provider` for the record — first-record-wins, exactly
    /// as [`crate::IndexNode::insert`]. Writes the key table and the one
    /// owning shard; searches of other communities proceed untouched.
    pub fn insert(&self, provider: PeerId, record: &ResourceRecord) {
        self.write_guards.fetch_add(1, Ordering::Relaxed);
        let mut keys = self.keys.write();
        if let Some(&slot) = keys.get(record.key.as_str()) {
            let shard = self.shard(slot);
            self.write_guards.fetch_add(1, Ordering::Relaxed);
            if shard.write().add_provider(record.key.as_str(), provider) {
                return;
            }
            // key table and shard disagree (should not happen); drop the
            // stale key entry and re-index the record fresh
            keys.remove(record.key.as_str());
        }
        let slot = self.slot_for(record.community.as_str());
        let id = ResourceId::from_key(&record.key);
        let shard = self.shard(slot);
        self.write_guards.fetch_add(1, Ordering::Relaxed);
        {
            let mut table = shard.write();
            table.index_record(id.clone(), provider, &record.fields);
        }
        keys.insert(id, slot);
    }

    /// Withdraws `provider`'s copy of the record; the record's postings
    /// disappear with its last provider.
    pub fn remove(&self, provider: PeerId, key: &str) {
        self.write_guards.fetch_add(1, Ordering::Relaxed);
        let mut keys = self.keys.write();
        let Some(&slot) = keys.get(key) else { return };
        let shard = self.shard(slot);
        self.write_guards.fetch_add(1, Ordering::Relaxed);
        let gone = shard.write().remove_provider(key, provider);
        if gone.is_some() {
            keys.remove(key);
        }
    }

    /// Is `provider` currently advertising the record?
    pub fn has_provider(&self, key: &str, provider: PeerId) -> bool {
        let slot = {
            let keys = self.keys.read();
            keys.get(key).copied()
        };
        let Some(slot) = slot else { return false };
        let shard = self.shard(slot);
        let table = shard.read();
        table.has_provider(key, provider)
    }

    /// Number of providers advertising the record.
    pub fn provider_count(&self, key: &str) -> usize {
        let slot = {
            let keys = self.keys.read();
            keys.get(key).copied()
        };
        let Some(slot) = slot else { return 0 };
        let shard = self.shard(slot);
        let table = shard.read();
        table.provider_count(key)
    }

    /// Evaluates a community-scoped query against this node's records,
    /// invoking `emit(key, provider, fields)` for every (record, live
    /// provider) pair — read guards only, never the key table. Hit order
    /// matches [`crate::IndexNode::search`]: candidates in insertion
    /// order, providers ascending.
    pub fn search<A, E>(&self, community: &str, query: &Query, alive: A, emit: E)
    where
        A: Fn(PeerId) -> bool,
        E: FnMut(&str, PeerId, &SharedFields),
    {
        let shard = {
            let router = self.router.read();
            let Some(&slot) = router.names.get(community) else { return };
            Arc::clone(&router.shards[slot as usize])
        };
        let table = shard.read();
        table.search(query, alive, emit);
    }
}

impl std::fmt::Debug for ShardedIndexNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedIndexNode")
            .field("records", &self.len())
            .field("communities", &self.community_count())
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
