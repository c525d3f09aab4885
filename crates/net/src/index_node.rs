//! The shared per-node metadata index every record-holding node uses.
//!
//! The paper's servent evaluates community-scoped queries at whichever
//! node holds the records — the Napster server, each FastTrack
//! super-peer, or every Gnutella peer's own share table. [`IndexNode`]
//! is that evaluation engine: a community-partitioned wrapper over
//! [`up2p_store::MetadataIndex`] that turns `search` into a posting-list
//! lookup instead of an O(records) scan, and keeps exactly one shared
//! metadata allocation per record (provider uploads and search hits are
//! refcount bumps).
//!
//! Sub-indexes are created lazily, on the first record published into a
//! community; provider liveness is applied to the candidate set the
//! index produces, never to the full corpus.
//!
//! The first-record-wins / last-provider-out semantics live here and
//! nowhere else: the Napster server and every super-peer hold an
//! [`IndexNode`], and [`crate::ShardedIndexNode`] is one with a write
//! counter.

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
    /// index recycles the doc-id of a removed record, so `take_record`
    /// empties the slot in the same step.
    providers: Vec<Vec<PeerId>>,
}

impl CommunityTable {
    fn providers_of(&self, key: &str) -> Option<&Vec<PeerId>> {
        self.providers.get(self.index.doc_of(key)? as usize)
    }

    fn providers_mut(&mut self, key: &str) -> Option<&mut Vec<PeerId>> {
        self.providers.get_mut(self.index.doc_of(key)? as usize)
    }

    /// Adds `provider` to an already-indexed key. Returns `false` when
    /// the key is not present here (caller indexes the record fresh).
    fn add_provider(&mut self, key: &str, provider: PeerId) -> bool {
        match self.providers_mut(key) {
            Some(set) => {
                if let Err(at) = set.binary_search(&provider) {
                    set.insert(at, provider);
                }
                true
            }
            None => false,
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

    /// Removes the record and its postings outright, returning the
    /// providers it had (for upsert's provider-preserving replace) and
    /// the fields it was indexed under.
    fn take_record(&mut self, key: &str) -> Option<(Vec<PeerId>, SharedFields)> {
        let doc = self.index.doc_of(key)?;
        let fields = self.index.remove(&ResourceId::from_key(key))?;
        // `doc` now belongs to whichever record the index admits next
        let providers = self.providers.get_mut(doc as usize).map(std::mem::take);
        Some((providers.unwrap_or_default(), fields))
    }

    /// Merges `extra` into the record's providers (no-op when the key is
    /// absent).
    fn extend_providers(&mut self, key: &str, extra: Vec<PeerId>) {
        if let Some(set) = self.providers_mut(key) {
            set.extend(extra);
            set.sort_unstable();
            set.dedup();
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
        self.take_record(key).map(|(_, fields)| fields)
    }

    /// Is `provider` currently advertising the record?
    fn has_provider(&self, key: &str, provider: PeerId) -> bool {
        self.providers_of(key).is_some_and(|set| set.binary_search(&provider).is_ok())
    }

    /// Number of providers advertising the record.
    fn provider_count(&self, key: &str) -> usize {
        self.providers_of(key).map_or(0, Vec::len)
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
///   centralized server and super-peer tables had), while
///   [`IndexNode::upsert_slot`] replaces the stored record (the
///   overwrite semantics a peer's own share table had),
/// * a record disappears when its last provider withdraws,
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

    /// Number of communities with at least one record ever published
    /// (sub-indexes are lazy — this counts materialized ones).
    pub fn community_count(&self) -> usize {
        self.communities.len()
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
            if self.communities[slot as usize].add_provider(record.key.as_str(), provider) {
                return false;
            }
            // key table and provider table disagree (should not happen);
            // drop the stale key entry and re-index the record fresh
            self.by_key.remove(record.key.as_str());
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

    /// Registers `provider` for the record, replacing the stored fields
    /// (and community) when the key is already present — the
    /// last-publish-wins semantics a peer's *own* share table has (a
    /// Gnutella peer republishing a key shares the new record, not the
    /// old one). Providers accumulated under the old record are kept.
    /// The record always enters the share table; the return value is the
    /// `(community slot, fields)` of the stored record it pushed out, if
    /// any. A slot reads back through [`IndexNode::community_name`],
    /// which leaves the node free for the caller to use in between.
    pub fn upsert_slot(
        &mut self,
        provider: PeerId,
        record: &ResourceRecord,
    ) -> Option<(u32, SharedFields)> {
        let previous = self.by_key.get(record.key.as_str()).copied().and_then(|slot| {
            let taken = self.communities[slot as usize].take_record(record.key.as_str())?;
            self.by_key.remove(record.key.as_str());
            Some((slot, taken))
        });
        self.insert(provider, record);
        let (old_slot, (old_providers, old_fields)) = previous?;
        if let Some(&slot) = self.by_key.get(record.key.as_str()) {
            self.communities[slot as usize].extend_providers(record.key.as_str(), old_providers);
        }
        Some((old_slot, old_fields))
    }

    /// Withdraws `provider`'s copy of the record; the record's postings
    /// disappear with its last provider, and only then is its
    /// `(community slot, fields)` returned.
    pub fn remove_slot(&mut self, provider: PeerId, key: &str) -> Option<(u32, SharedFields)> {
        let &slot = self.by_key.get(key)?;
        let fields = self.communities[slot as usize].remove_provider(key, provider)?;
        self.by_key.remove(key);
        Some((slot, fields))
    }

    /// The community a slot returned by [`IndexNode::upsert_slot`] or
    /// [`IndexNode::remove_slot`] stands for; empty for a number neither
    /// returned.
    pub fn community_name(&self, slot: u32) -> &str {
        self.slot_names.get(slot as usize).map_or("", String::as_str)
    }

    /// Is `provider` currently advertising the record?
    pub fn has_provider(&self, key: &str, provider: PeerId) -> bool {
        self.by_key
            .get(key)
            .is_some_and(|&slot| self.communities[slot as usize].has_provider(key, provider))
    }

    /// Number of providers advertising the record.
    pub fn provider_count(&self, key: &str) -> usize {
        self.by_key
            .get(key)
            .map_or(0, |&slot| self.communities[slot as usize].provider_count(key))
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

    #[test]
    fn insert_search_remove_round_trip() {
        let mut node = IndexNode::new();
        node.insert(PeerId(1), &record("k1", "patterns", "Observer"));
        node.insert(PeerId(2), &record("k2", "patterns", "Visitor"));
        assert_eq!(node.len(), 2);
        assert_eq!(
            hits(&node, "patterns", &Query::any_keyword("observer")),
            vec![("k1".to_string(), PeerId(1))]
        );
        node.remove_slot(PeerId(1), "k1");
        assert!(hits(&node, "patterns", &Query::any_keyword("observer")).is_empty());
        assert_eq!(node.len(), 1);
        // removing an absent key or provider is a no-op
        node.remove_slot(PeerId(9), "k2");
        node.remove_slot(PeerId(1), "missing");
        assert_eq!(node.len(), 1);
    }

    #[test]
    fn communities_partition_lazily() {
        let mut node = IndexNode::new();
        assert_eq!(node.community_count(), 0);
        node.insert(PeerId(1), &record("k1", "patterns", "Observer"));
        assert_eq!(node.community_count(), 1);
        node.insert(PeerId(2), &record("k2", "songs", "Observer"));
        assert_eq!(node.community_count(), 2);
        assert_eq!(hits(&node, "patterns", &Query::any_keyword("observer")).len(), 1);
        assert_eq!(hits(&node, "songs", &Query::any_keyword("observer")).len(), 1);
        assert!(hits(&node, "absent", &Query::All).is_empty());
    }

    #[test]
    fn replicas_share_one_record_and_leave_one_at_a_time() {
        let mut node = IndexNode::new();
        node.insert(PeerId(1), &record("k", "c", "x"));
        node.insert(PeerId(3), &record("k", "c", "x"));
        assert_eq!(node.len(), 1);
        assert_eq!(node.provider_count("k"), 2);
        assert_eq!(
            hits(&node, "c", &Query::All),
            vec![("k".to_string(), PeerId(1)), ("k".to_string(), PeerId(3))]
        );
        assert!(node.has_provider("k", PeerId(3)));
        assert!(!node.has_provider("k", PeerId(2)));
        node.remove_slot(PeerId(1), "k");
        assert_eq!(node.provider_count("k"), 1);
        assert_eq!(node.len(), 1);
        node.remove_slot(PeerId(3), "k");
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
    fn upsert_replaces_the_stored_record() {
        let mut node = IndexNode::new();
        node.insert(PeerId(1), &record("k", "c", "original"));
        node.insert(PeerId(2), &record("k", "c", "original"));
        node.upsert_slot(PeerId(1), &record("k", "c", "changed"));
        assert_eq!(node.len(), 1);
        assert!(hits(&node, "c", &Query::any_keyword("original")).is_empty());
        // both providers survive the replacement
        assert_eq!(
            hits(&node, "c", &Query::any_keyword("changed")),
            vec![("k".to_string(), PeerId(1)), ("k".to_string(), PeerId(2))]
        );
        // an upsert can also move the record to another community
        node.upsert_slot(PeerId(1), &record("k", "d", "moved"));
        assert!(hits(&node, "c", &Query::All).is_empty());
        assert_eq!(hits(&node, "d", &Query::any_keyword("moved")).len(), 2);
        // and behaves as a plain insert for a fresh key
        node.upsert_slot(PeerId(3), &record("k2", "c", "fresh"));
        assert_eq!(hits(&node, "c", &Query::any_keyword("fresh")), vec![("k2".to_string(), PeerId(3))]);
    }

    #[test]
    fn a_recycled_doc_slot_inherits_no_provider() {
        let mut node = IndexNode::new();
        node.insert(PeerId(1), &record("old", "c", "x"));
        node.insert(PeerId(2), &record("old", "c", "x"));
        node.insert(PeerId(5), &record("other", "c", "x"));
        // the last provider out frees the record's doc-id ...
        node.remove_slot(PeerId(1), "old");
        node.remove_slot(PeerId(2), "old");
        // ... and the next record of the community is admitted into it
        node.insert(PeerId(3), &record("new", "c", "x"));
        assert!(!node.has_provider("old", PeerId(1)) && !node.has_provider("old", PeerId(3)));
        assert_eq!(node.provider_count("old"), 0);
        assert_eq!(node.provider_count("new"), 1);
        assert!(!node.has_provider("new", PeerId(1)) && !node.has_provider("new", PeerId(2)));
        assert_eq!(
            hits(&node, "c", &Query::All),
            vec![("new".to_string(), PeerId(3)), ("other".to_string(), PeerId(5))],
            "the recycled slot emits the new provider only, in the old record's place"
        );
        // the replace path frees and refills a slot in one call: the
        // providers it carries over are the replaced record's own
        node.insert(PeerId(4), &record("new", "c", "x"));
        node.upsert_slot(PeerId(6), &record("new", "c", "y"));
        assert_eq!(node.provider_count("new"), 3);
        assert_eq!(
            hits(&node, "c", &Query::any_keyword("y")),
            [3, 4, 6].map(|p| ("new".to_string(), PeerId(p))).to_vec()
        );
        // moved to another community, the slot it leaves behind is empty
        // for whoever comes next
        node.upsert_slot(PeerId(6), &record("new", "d", "y"));
        node.insert(PeerId(7), &record("next", "c", "z"));
        assert_eq!(node.provider_count("next"), 1);
        assert_eq!(
            hits(&node, "c", &Query::All),
            vec![("next".to_string(), PeerId(7)), ("other".to_string(), PeerId(5))]
        );
        assert_eq!(hits(&node, "d", &Query::All).len(), 3);
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
            d.add_node(node);
            d
        };
        let has = |d: &RoutingDigest, c: &str, t: Option<&str>| {
            d.contains(entry_hash(community_scope(c), t))
        };
        let d = digest(&node);
        // community markers plus tokens plus the normalized exact value
        assert!(has(&d, "patterns", None));
        assert!(has(&d, "patterns", Some("observer")));
        assert!(has(&d, "patterns", Some("observer pattern")));
        assert!(has(&d, "songs", Some("jazz")));
        // withdrawing a community's last record drops it from the record
        // walk, and so from the digest, even though its sub-index slot
        // persists
        node.remove_slot(PeerId(1), "k1");
        let mut visited = Vec::new();
        node.for_each_record(|c, fields| visited.push((c.to_string(), fields.to_vec())));
        let jazz = record("k2", "songs", "Jazz").fields.to_vec();
        assert_eq!(visited, vec![("songs".to_string(), jazz)]);
        let d = digest(&node);
        assert!(!has(&d, "patterns", None) && !has(&d, "patterns", Some("observer")));
        assert!(has(&d, "songs", None));
    }
}
