//! The shared per-node metadata index of the nodes that hold many
//! peers' records.
//!
//! The paper's servent evaluates community-scoped queries at whichever
//! node holds the records. On the Napster server and each FastTrack
//! super-peer that is [`IndexNode`]: a community-partitioned wrapper over
//! [`up2p_store::MetadataIndex`] that turns `search` into a posting-list
//! lookup instead of an O(records) scan, and keeps exactly one shared
//! metadata allocation per record (provider uploads and search hits are
//! refcount bumps). A Gnutella peer's few dozen records are verified one
//! by one behind their signatures instead ([`crate::RecordArena`]).
//!
//! Sub-indexes are created lazily, on the first record published into a
//! community; provider liveness is applied to the candidate set the
//! index produces, never to the full corpus.
//!
//! An index node has one write rule: the first record published under a
//! key wins, later publishes only add providers, and the record leaves
//! with its last provider. It lives here and nowhere else: the Napster
//! server and every super-peer hold an [`IndexNode`], and
//! [`crate::ShardedIndexNode`] is one with a write counter.

use crate::message::{ResourceRecord, SharedFields};
use crate::peer::PeerId;
use std::collections::HashMap;
use up2p_store::{MetadataIndex, Query, ResourceId};

/// One community's slice of an index node: the inverted metadata index
/// plus the providers of each record.
#[derive(Debug, Default)]
struct CommunityTable {
    index: MetadataIndex,
    /// The index's doc-id → peers currently advertising that record,
    /// ascending (hit emission per record is deterministic, as the
    /// pre-index scan produced). A search candidate arrives as a doc-id;
    /// a key-addressed operation pays `MetadataIndex::doc_of` first. The
    /// index recycles the doc-id of a removed record, which leaves with
    /// its last provider, so a recycled slot starts empty.
    providers: Vec<Vec<PeerId>>,
}

impl CommunityTable {
    fn providers_mut(&mut self, key: &str) -> Option<&mut Vec<PeerId>> {
        self.providers.get_mut(self.index.doc_of(key)? as usize)
    }

    /// Adds `provider` to an already-indexed key.
    fn add_provider(&mut self, key: &str, provider: PeerId) {
        if let Some(set) = self.providers_mut(key) {
            if let Err(at) = set.binary_search(&provider) {
                set.insert(at, provider);
            }
        }
    }

    /// Indexes a fresh record (one refcount bump on the shared metadata)
    /// with `provider` as its first advertiser.
    fn index_record(&mut self, id: ResourceId, provider: PeerId, fields: &SharedFields) {
        let doc = self.index.insert_shared(id, SharedFields::clone(fields)) as usize;
        if doc >= self.providers.len() {
            self.providers.resize_with(doc + 1, Vec::new);
        }
        if let Some(set) = self.providers.get_mut(doc) {
            set.clear();
            set.push(provider);
        }
    }

    /// Withdraws `provider`'s copy of the record. When the last provider
    /// leaves, the record's postings are removed from the sub-index
    /// (targeted replay — cost proportional to the record, not the
    /// index). Returns the record's fields exactly when it disappeared.
    fn remove_provider(&mut self, key: &str, provider: PeerId) -> Option<SharedFields> {
        let set = self.providers_mut(key)?;
        if let Ok(at) = set.binary_search(&provider) {
            set.remove(at);
        }
        if !set.is_empty() {
            return None;
        }
        // the emptied slot is whichever record the index admits next
        self.index.remove(&ResourceId::from_key(key))
    }

    /// Is `provider` currently advertising the record?
    fn has_provider(&self, key: &str, provider: PeerId) -> bool {
        let set = self.index.doc_of(key).and_then(|doc| self.providers.get(doc as usize));
        set.is_some_and(|set| set.binary_search(&provider).is_ok())
    }

    /// Visits the fields of every live record of this community.
    fn for_each_record<F: FnMut(&SharedFields)>(&self, mut f: F) {
        self.index.for_each_match(&Query::All, |_, fields| f(fields));
    }

    /// Evaluates a query against this community's records, invoking
    /// `emit(key, provider, fields)` for every (record, live provider)
    /// pair. Candidates arrive in doc-id order — insertion order, except
    /// that a record admitted after a removal takes the place freed last
    /// — providers in ascending peer id.
    fn search<A, E>(&self, query: &Query, alive: A, mut emit: E)
    where
        A: Fn(PeerId) -> bool,
        E: FnMut(&str, PeerId, &SharedFields),
    {
        self.index.for_each_match_doc(query, |doc, id, fields| {
            for &p in self.providers.get(doc as usize).into_iter().flatten() {
                if alive(p) {
                    emit(id.as_hex(), p, fields);
                }
            }
        });
    }
}

/// A community-partitioned metadata index held by one record-storing
/// network node.
///
/// Semantics mirror the original linear share tables exactly (the
/// equivalence is property-tested against `Query::matches_fields`):
///
/// * [`IndexNode::insert`] keeps the first record published under a key
///   and only adds providers afterwards (the `or_insert` semantics the
///   centralized server and super-peer tables had),
/// * [`IndexNode::remove`] takes the record out with its last provider,
/// * `search` evaluates one community's sub-index and filters candidate
///   records through a caller-supplied liveness predicate.
#[derive(Debug, Default)]
pub struct IndexNode {
    /// Community name → slot in `communities` (sub-indexes are created
    /// lazily on first publish).
    names: HashMap<String, u32>,
    /// Slot → community name (the inverse of `names`).
    slot_names: Vec<String>,
    communities: Vec<CommunityTable>,
    /// Record key → community slot, for community-blind removal and
    /// provider checks.
    by_key: HashMap<ResourceId, u32>,
}

impl IndexNode {
    /// Creates an empty index node.
    pub fn new() -> IndexNode {
        IndexNode::default()
    }

    /// Number of distinct records currently indexed.
    pub fn len(&self) -> usize {
        self.by_key.len()
    }

    /// `true` when no records are indexed.
    pub fn is_empty(&self) -> bool {
        self.by_key.is_empty()
    }

    /// Registers `provider` for the record. The first publish of a key
    /// indexes the record's fields (one refcount bump on the shared
    /// metadata); subsequent publishes of the same key are provider-set
    /// insertions only, regardless of the fields they carry — exactly
    /// the first-record-wins semantics the linear tables had. Returns
    /// `true` when the record entered the share table (first provider
    /// in), `false` when only its provider set grew.
    pub fn insert(&mut self, provider: PeerId, record: &ResourceRecord) -> bool {
        if let Some(&slot) = self.by_key.get(record.key.as_str()) {
            self.communities[slot as usize].add_provider(record.key.as_str(), provider);
            return false;
        }
        let slot = match self.names.get(record.community.as_str()) {
            Some(&slot) => slot,
            None => {
                let slot = self.communities.len() as u32;
                self.names.insert(record.community.clone(), slot);
                self.slot_names.push(record.community.clone());
                self.communities.push(CommunityTable::default());
                slot
            }
        };
        let id = ResourceId::from_key(&record.key);
        self.communities[slot as usize].index_record(id.clone(), provider, &record.fields);
        self.by_key.insert(id, slot);
        true
    }

    /// Withdraws `provider`'s copy of the record; the record's postings
    /// disappear with its last provider, and only then are its
    /// `(community, fields)` returned.
    pub fn remove(&mut self, provider: PeerId, key: &str) -> Option<(&str, SharedFields)> {
        let &slot = self.by_key.get(key)?;
        let fields = self.communities[slot as usize].remove_provider(key, provider)?;
        self.by_key.remove(key);
        Some((self.slot_names[slot as usize].as_str(), fields))
    }

    /// Is `provider` currently advertising the record?
    pub fn has_provider(&self, key: &str, provider: PeerId) -> bool {
        self.by_key
            .get(key)
            .is_some_and(|&slot| self.communities[slot as usize].has_provider(key, provider))
    }

    /// Visits `(community, fields)` of every record in this node's share
    /// table, whatever its provider set — what a routing digest of the
    /// node is built from.
    pub fn for_each_record<F>(&self, mut f: F)
    where
        F: FnMut(&str, &[(String, String)]),
    {
        for (name, sub) in self.slot_names.iter().zip(&self.communities) {
            sub.for_each_record(|fields| f(name, fields));
        }
    }

    /// Evaluates a community-scoped query against this node's records,
    /// invoking `emit(key, provider, fields)` for every (record, live
    /// provider) pair. `alive` filters the candidate set the index
    /// produced — the full corpus is never scanned. Candidates arrive in
    /// insertion order (a record admitted after a removal takes the place
    /// freed last), providers in ascending peer id.
    pub fn search<A, E>(&self, community: &str, query: &Query, alive: A, emit: E)
    where
        A: Fn(PeerId) -> bool,
        E: FnMut(&str, PeerId, &SharedFields),
    {
        let Some(&slot) = self.names.get(community) else { return };
        self.communities[slot as usize].search(query, alive, emit);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(key: &str, community: &str, name: &str) -> ResourceRecord {
        ResourceRecord::new(key, community, vec![("o/name".to_string(), name.to_string())])
    }

    fn hits(node: &IndexNode, community: &str, query: &Query) -> Vec<(String, PeerId)> {
        let mut out = Vec::new();
        node.search(community, query, |_| true, |key, p, _| out.push((key.to_string(), p)));
        out
    }

    fn providers(node: &IndexNode, key: &str) -> Vec<u32> {
        (0..10).filter(|&p| node.has_provider(key, PeerId(p))).collect()
    }

    #[test]
    fn insert_search_remove_round_trip() {
        let mut node = IndexNode::new();
        let observer = record("k1", "patterns", "Observer");
        node.insert(PeerId(1), &observer);
        node.insert(PeerId(2), &record("k2", "patterns", "Visitor"));
        assert_eq!(node.len(), 2);
        assert_eq!(
            hits(&node, "patterns", &Query::any_keyword("observer")),
            vec![("k1".to_string(), PeerId(1))]
        );
        let (community, fields) = node.remove(PeerId(1), "k1").expect("last provider out");
        assert_eq!(community, "patterns");
        assert!(SharedFields::ptr_eq(&fields, &observer.fields), "the published fields leave");
        assert!(hits(&node, "patterns", &Query::any_keyword("observer")).is_empty());
        assert_eq!(node.len(), 1);
        // removing an absent key or provider is a no-op
        assert!(node.remove(PeerId(9), "k2").is_none());
        assert!(node.remove(PeerId(1), "missing").is_none());
        assert_eq!(node.len(), 1);
    }

    #[test]
    fn communities_partition_lazily() {
        let mut node = IndexNode::new();
        assert_eq!(node.communities.len(), 0);
        node.insert(PeerId(1), &record("k1", "patterns", "Observer"));
        assert_eq!(node.communities.len(), 1);
        node.insert(PeerId(2), &record("k2", "songs", "Observer"));
        assert_eq!(node.communities.len(), 2);
        assert_eq!(hits(&node, "patterns", &Query::any_keyword("observer")).len(), 1);
        assert_eq!(hits(&node, "songs", &Query::any_keyword("observer")).len(), 1);
        assert!(hits(&node, "absent", &Query::All).is_empty());
    }

    #[test]
    fn replicas_share_one_record_and_leave_one_at_a_time() {
        let mut node = IndexNode::new();
        assert!(node.insert(PeerId(1), &record("k", "c", "x")));
        assert!(!node.insert(PeerId(3), &record("k", "c", "x")), "a second provider only");
        assert_eq!(node.len(), 1);
        assert_eq!(providers(&node, "k"), [1, 3]);
        assert_eq!(
            hits(&node, "c", &Query::All),
            vec![("k".to_string(), PeerId(1)), ("k".to_string(), PeerId(3))]
        );
        assert!(node.remove(PeerId(1), "k").is_none(), "a provider is left");
        assert_eq!(providers(&node, "k"), [3]);
        assert_eq!(node.len(), 1);
        assert!(node.remove(PeerId(3), "k").is_some());
        assert!(node.is_empty());
    }

    #[test]
    fn liveness_filters_the_candidate_set() {
        let mut node = IndexNode::new();
        node.insert(PeerId(1), &record("k", "c", "x"));
        node.insert(PeerId(2), &record("k", "c", "x"));
        let out = {
            let mut v = Vec::new();
            node.search("c", &Query::any_keyword("x"), |p| p == PeerId(2), |_, p, _| v.push(p));
            v
        };
        assert_eq!(out, vec![PeerId(2)]);
    }

    #[test]
    fn hits_share_the_published_metadata_allocation() {
        let mut node = IndexNode::new();
        let rec = record("k", "c", "x");
        node.insert(PeerId(1), &rec);
        let mut shared = false;
        node.search("c", &Query::All, |_| true, |_, _, fields| {
            shared = SharedFields::ptr_eq(fields, &rec.fields);
        });
        assert!(shared, "no metadata copy between publish and hit");
    }

    #[test]
    fn a_recycled_doc_slot_inherits_no_provider() {
        let mut node = IndexNode::new();
        node.insert(PeerId(1), &record("old", "c", "x"));
        node.insert(PeerId(2), &record("old", "c", "x"));
        node.insert(PeerId(5), &record("other", "c", "x"));
        // the last provider out frees the record's doc-id ...
        assert!(node.remove(PeerId(1), "old").is_none());
        assert!(node.remove(PeerId(2), "old").is_some());
        // ... and the next record of the community is admitted into it
        assert!(node.insert(PeerId(3), &record("new", "c", "x")));
        assert!(providers(&node, "old").is_empty());
        assert_eq!(providers(&node, "new"), [3]);
        assert_eq!(
            hits(&node, "c", &Query::All),
            vec![("new".to_string(), PeerId(3)), ("other".to_string(), PeerId(5))],
            "the recycled slot emits the new provider only, in the old record's place"
        );
        // a slot freed while another community grows is empty for
        // whoever comes next
        assert!(node.insert(PeerId(4), &record("moved", "d", "y")));
        assert!(node.remove(PeerId(3), "new").is_some());
        assert!(node.insert(PeerId(7), &record("next", "c", "z")));
        assert_eq!(providers(&node, "next"), [7]);
        assert_eq!(
            hits(&node, "c", &Query::All),
            vec![("next".to_string(), PeerId(7)), ("other".to_string(), PeerId(5))]
        );
        assert_eq!(hits(&node, "d", &Query::All), vec![("moved".to_string(), PeerId(4))]);
    }

    #[test]
    fn first_record_wins_for_a_key() {
        // matches the old BTreeMap or_insert semantics: a second publish
        // of the same key only adds a provider, even with new fields
        let mut node = IndexNode::new();
        node.insert(PeerId(1), &record("k", "c", "original"));
        node.insert(PeerId(2), &record("k", "c", "changed"));
        assert_eq!(hits(&node, "c", &Query::any_keyword("original")).len(), 2);
        assert!(hits(&node, "c", &Query::any_keyword("changed")).is_empty());
    }

    #[test]
    fn digest_terms_cover_live_communities_only() {
        use crate::digest::{community_scope, entry_hash, RoutingDigest};
        let mut node = IndexNode::new();
        node.insert(PeerId(1), &record("k1", "patterns", "Observer Pattern"));
        node.insert(PeerId(2), &record("k2", "songs", "Jazz"));
        let digest = |node: &IndexNode| {
            let mut d = RoutingDigest::new(12);
            node.for_each_record(|community, fields| d.add_record(community, fields));
            d
        };
        let has = |d: &RoutingDigest, c: &str, t: Option<&str>| {
            d.contains(entry_hash(community_scope(c), t))
        };
        let d = digest(&node);
        // community markers plus tokens; an exact value is asked by its
        // tokens, so the whole one is no entry
        assert!(has(&d, "patterns", None));
        assert!(has(&d, "patterns", Some("observer")));
        assert!(has(&d, "patterns", Some("pattern")));
        assert!(!has(&d, "patterns", Some("observer pattern")));
        assert!(has(&d, "songs", Some("jazz")));
        // withdrawing a community's last record drops it from the record
        // walk, and so from the digest, even though its sub-index slot
        // persists
        node.remove(PeerId(1), "k1");
        let mut visited = Vec::new();
        node.for_each_record(|c, fields| visited.push((c.to_string(), fields.to_vec())));
        let jazz = record("k2", "songs", "Jazz").fields.to_vec();
        assert_eq!(visited, vec![("songs".to_string(), jazz)]);
        let d = digest(&node);
        assert!(!has(&d, "patterns", None) && !has(&d, "patterns", Some("observer")));
        assert!(has(&d, "songs", None));
    }
}
