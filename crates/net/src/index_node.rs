//! The shared per-node metadata index of the nodes that hold many
//! peers' records.
//!
//! The paper's servent evaluates community-scoped queries at whichever
//! node holds the records. On the Napster server and each FastTrack
//! super-peer that is [`IndexNode`]: a community-partitioned wrapper over
//! [`up2p_store::DocIndex`] that turns `search` into a posting-list
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
//! server and every super-peer hold an [`IndexNode`]. A node counts its
//! writes ([`IndexNode::write_guard_count`]); a search takes `&self`, so
//! it writes nothing and leaves the count as it was.
//!
//! A record is tokenized once, when it enters: its index keeps the term
//! symbols it was posted under, and what the routing digests are told of
//! it — when it enters, when it leaves, when a digest is built — is read
//! off those symbols ([`Entries`]), as is what a record moving to another
//! node is indexed under there.

use crate::digest::{community_scope, entry_hash, EntryVisitor};
use crate::message::{ResourceRecord, SharedFields};
use crate::peer::PeerId;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hint::black_box;
use std::sync::Arc;
use up2p_store::{for_each_token, normalize, DocIndex, Query, Removed, ResourceId, SymbolTable};

/// One community's slice of an index node: the inverted metadata index
/// plus the providers of each record, and the digest entries of its
/// terms.
#[derive(Debug)]
struct CommunityTable {
    index: DocIndex,
    /// The index's doc-id → peers currently advertising that record,
    /// ascending (hit emission per record is deterministic, as the
    /// pre-index scan produced). A search candidate arrives as a doc-id,
    /// and a key-addressed operation finds it in the node's key map. The
    /// index recycles the doc-id of a removed record, which leaves with
    /// its last provider, so a recycled slot starts empty, and a doc-id
    /// is live exactly while its list is not.
    providers: Vec<Vec<PeerId>>,
    /// The community's [`community_scope`], where each of its entry
    /// hashes starts.
    scope: u64,
    /// Per term symbol of `index`, its entry hash, taken the first time
    /// a digest asks for it; 0 until then (a hash that is 0 is taken
    /// again at each use).
    hashes: Vec<u64>,
    /// Per doc-id of a record with a non-ASCII value, the entries of the
    /// normalized forms of those values, taken when it entered.
    extra: HashMap<u32, Box<[u64]>>,
}

/// Where a record comes from when it enters an index node.
enum Source<'a> {
    /// Its fields, tokenized here.
    Fields(SharedFields),
    /// Doc `doc` of another node's table, whose id, fields and symbols
    /// it is indexed under.
    Table(&'a CommunityTable, u32),
}

impl CommunityTable {
    fn new(community: &str) -> CommunityTable {
        CommunityTable {
            index: DocIndex::default(),
            providers: Vec::new(),
            scope: community_scope(community),
            hashes: Vec::new(),
            extra: HashMap::new(),
        }
    }

    /// Adds `provider` to the record under `doc`.
    fn add_provider(&mut self, doc: u32, provider: PeerId) {
        if let Some(set) = self.providers.get_mut(doc as usize) {
            if let Err(at) = set.binary_search(&provider) {
                set.insert(at, provider);
            }
        }
    }

    /// Indexes a fresh record `id` (one refcount bump on the shared
    /// metadata) with `provider` as its first advertiser; returns its
    /// doc-id, or `None` when `src` is a free doc of another table. A
    /// record from another table is indexed under that table's symbols
    /// and brings its extra entries; one given by its fields is tokenized,
    /// and the normalized forms of its non-ASCII values too, while their
    /// strings are warm.
    fn index_record(&mut self, id: &ResourceId, provider: PeerId, src: Source<'_>) -> Option<u32> {
        let (doc, extra) = match src {
            Source::Fields(fields) => {
                let extra = extra_entries(self.scope, &fields);
                (self.index.insert(ResourceId::clone(id), fields), extra)
            }
            Source::Table(from, at) => {
                (self.index.insert_copy(&from.index, at)?, from.extra.get(&at).cloned())
            }
        };
        if let Some(extra) = extra {
            self.extra.insert(doc, extra);
        }
        let doc_slot = doc as usize;
        if doc_slot >= self.providers.len() {
            self.providers.resize_with(doc_slot + 1, Vec::new);
        }
        if let Some(set) = self.providers.get_mut(doc_slot) {
            set.clear();
            set.push(provider);
        }
        Some(doc)
    }

    /// Withdraws `provider`'s copy of the record under `doc`. When the
    /// last provider leaves, the record's postings are removed from the
    /// sub-index by replaying its symbols, `left` is handed its entries,
    /// and what the index kept of it is returned.
    fn remove_provider(
        &mut self,
        doc: u32,
        provider: PeerId,
        left: impl FnOnce(Entries<'_>),
    ) -> Option<Removed> {
        let set = self.providers.get_mut(doc as usize)?;
        if let Ok(at) = set.binary_search(&provider) {
            set.remove(at);
        }
        if !set.is_empty() {
            return None;
        }
        // the emptied slot is whichever record the index admits next
        let removed = self.index.remove(doc)?;
        let extra = self.extra.remove(&doc);
        let extra = extra.as_deref().unwrap_or(&[]);
        let CommunityTable { index, scope, hashes, .. } = self;
        left(Entries { scope: *scope, hashes, index, tokens: removed.tokens(), extra });
        Some(removed)
    }

    /// The entries of the live record under `doc`.
    fn entries(&mut self, doc: u32) -> Entries<'_> {
        let CommunityTable { index, scope, hashes, extra, .. } = self;
        let (index, extra) = (&*index, extra_of(extra, doc));
        Entries { scope: *scope, hashes, index, tokens: index.tokens_of(doc), extra }
    }

    /// Hands the entries of every live record of this community to
    /// `visit`, in doc-id order.
    fn for_each_entry(&mut self, visit: &mut EntryVisitor<'_>) {
        let CommunityTable { index, scope, hashes, extra, .. } = self;
        let index = &*index;
        for (doc, tokens) in index.doc_tokens() {
            let extra = extra_of(extra, doc);
            Entries { scope: *scope, hashes, index, tokens, extra }.visit(visit);
        }
    }

    /// Is `provider` currently advertising the record under `doc`?
    fn has_provider(&self, doc: u32, provider: PeerId) -> bool {
        let set = self.providers.get(doc as usize);
        set.is_some_and(|set| set.binary_search(&provider).is_ok())
    }

    /// Evaluates a query against this community's records, invoking
    /// `emit(key, provider, fields)` for every (record, live provider)
    /// pair, where `emit` is what `sized` makes of the number of matching
    /// records. Candidates arrive in doc-id order — insertion order,
    /// except that a record admitted after a removal takes the place
    /// freed last — providers in ascending peer id.
    ///
    /// Two passes: every candidate's row is read first, then the hits are
    /// emitted. An emitter that keeps a hit bumps the fields' refcount, a
    /// locked instruction no later load may pass, so reading each row
    /// between two bumps would pay its cache misses one after another.
    /// The gather touches the lines `emit` reads — the key's bytes, the
    /// provider list, the refcount — with plain loads, which overlap.
    fn search<A, S, E>(&self, query: &Query, alive: A, sized: S)
    where
        A: Fn(PeerId) -> bool,
        S: FnOnce(usize) -> E,
        E: FnMut(&str, PeerId, &SharedFields),
    {
        let rows = self.index.gather_matches(query, |doc, id, fields| {
            let providers = self.providers.get(doc as usize).map_or(&[][..], Vec::as_slice);
            let key = id.as_hex();
            let first = (key.bytes().next(), providers.first().copied());
            black_box((first, Arc::strong_count(fields)));
            (key, fields, providers)
        });
        let mut emit = sized(rows.len());
        for (key, fields, providers) in rows {
            for &p in providers {
                if alive(p) {
                    emit(key, p, fields);
                }
            }
        }
    }
}

/// The extra entries of the record under `doc` in `extra`.
fn extra_of(extra: &HashMap<u32, Box<[u64]>>, doc: u32) -> &[u64] {
    extra.get(&doc).map_or(&[], |e| &e[..])
}

/// The entries the normalized forms of a record's non-ASCII values add
/// to its digest vocabulary ([`crate::digest::for_each_record_entry`]'s
/// second pass over such a value); `None` when every value is ASCII.
fn extra_entries(scope: u64, fields: &[(String, String)]) -> Option<Box<[u64]>> {
    let mut extra = Vec::new();
    for (_, value) in fields.iter().filter(|(_, value)| !value.is_ascii()) {
        for_each_token(&normalize(value), |t| extra.push(entry_hash(scope, Some(t))));
    }
    (!extra.is_empty()).then(|| extra.into_boxed_slice())
}

/// One record's routing-digest entries, read off the symbols its index
/// node keeps for it: the entries `digest::for_each_record_entry`
/// enumerates from the record's strings, as a multiset, with no
/// tokenizer pass. What
/// [`crate::RouteTable::record_added`] and
/// [`crate::RouteTable::record_removed`] are handed for a record of an
/// index node.
pub struct Entries<'a> {
    scope: u64,
    /// The entry hash of each of `index`'s term symbols, taken lazily.
    hashes: &'a mut Vec<u64>,
    index: &'a DocIndex,
    tokens: &'a [u32],
    extra: &'a [u64],
}

impl Entries<'_> {
    /// Hands each entry hash to `visit`: the community marker, one entry
    /// per token occurrence, then the normalized forms' extra entries.
    pub fn visit(self, visit: &mut EntryVisitor<'_>) {
        let Entries { scope, hashes, index, tokens, extra } = self;
        visit(entry_hash(scope, None));
        for &sym in tokens {
            let i = sym as usize;
            let hash = match hashes.get(i) {
                Some(&hash) if hash != 0 => hash,
                _ => {
                    let hash = entry_hash(scope, Some(index.term(sym)));
                    if i >= hashes.len() {
                        hashes.resize(i + 1, 0);
                    }
                    hashes[i] = hash;
                    hash
                }
            };
            visit(hash);
        }
        extra.iter().for_each(|&h| visit(h));
    }
}

/// Where a record sits in an index node: its community's slot and its
/// doc-id there, valid until the record leaves.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Share {
    slot: u32,
    doc: u32,
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
    /// Community name ↔ slot in `communities` (sub-indexes are created
    /// lazily on first publish).
    names: SymbolTable,
    communities: Vec<CommunityTable>,
    /// Record key → its place, the node's one key map: every key-addressed
    /// operation finds its record here, with one lookup.
    by_key: HashMap<ResourceId, Share>,
    /// `insert` and `remove` calls so far.
    writes: u64,
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

    /// `insert` and `remove` calls so far. A search takes `&self` and
    /// leaves this unchanged.
    pub fn write_guard_count(&self) -> u64 {
        self.writes
    }

    /// Registers `provider` for the record. The first publish of a key
    /// indexes the record's fields (one refcount bump on the shared
    /// metadata); subsequent publishes of the same key are provider-set
    /// insertions only, regardless of the fields they carry — exactly
    /// the first-record-wins semantics the linear tables had. Returns
    /// `true` when the record entered the share table (first provider
    /// in), `false` when only its provider set grew.
    pub fn insert(&mut self, provider: PeerId, record: &ResourceRecord) -> bool {
        // a replica is looked up by the key it came with: only a new
        // record's id is built
        self.writes += 1;
        if self.add_replica(provider, &record.key) {
            return false;
        }
        let (id, fields) = (ResourceId::from_key(&record.key), SharedFields::clone(&record.fields));
        self.admit(provider, id, &record.community, Source::Fields(fields), |_| {})
    }

    /// [`IndexNode::insert`] of a record given by its parts: an `id` the
    /// index keeps when the record is new, and dropped otherwise, with
    /// one key lookup either way. `added` is handed the record's entries
    /// when it entered.
    pub fn upload(
        &mut self,
        provider: PeerId,
        id: ResourceId,
        community: &str,
        fields: SharedFields,
        added: impl FnOnce(Entries<'_>),
    ) -> bool {
        self.writes += 1;
        self.admit(provider, id, community, Source::Fields(fields), added)
    }

    /// [`IndexNode::upload`] of `provider`'s copy of the record `from`
    /// holds at `share`, with the id and fields `from` holds and indexed
    /// under the terms `from` keeps for it: no value is tokenized again.
    pub(crate) fn take_over(
        &mut self,
        provider: PeerId,
        from: &IndexNode,
        share: Share,
        added: impl FnOnce(Entries<'_>),
    ) -> bool {
        let Some(table) = from.communities.get(share.slot as usize) else { return false };
        let Some((id, _)) = table.index.record(share.doc) else { return false };
        self.writes += 1;
        let community = from.names.name(share.slot);
        let source = Source::Table(table, share.doc);
        self.admit(provider, ResourceId::clone(id), community, source, added)
    }

    /// Adds `provider` to the record under `key`, if the index holds one.
    fn add_replica(&mut self, provider: PeerId, key: &str) -> bool {
        let Some(&Share { slot, doc }) = self.by_key.get(key) else { return false };
        self.communities[slot as usize].add_provider(doc, provider);
        true
    }

    /// The one write body: adds `provider` to the record under `id`, or
    /// indexes the record from `source` when no key of the index names it
    /// yet and hands `added` its entries. Whether it entered.
    fn admit(
        &mut self,
        provider: PeerId,
        id: ResourceId,
        community: &str,
        source: Source<'_>,
        added: impl FnOnce(Entries<'_>),
    ) -> bool {
        let IndexNode { names, communities, by_key, .. } = self;
        let fresh = match by_key.entry(id) {
            Entry::Occupied(live) => {
                let Share { slot, doc } = *live.get();
                communities[slot as usize].add_provider(doc, provider);
                return false;
            }
            Entry::Vacant(fresh) => fresh,
        };
        let slot = names.intern(community);
        if slot as usize == communities.len() {
            communities.push(CommunityTable::new(community));
        }
        let table = &mut communities[slot as usize];
        let Some(doc) = table.index_record(fresh.key(), provider, source) else { return false };
        fresh.insert(Share { slot, doc });
        added(table.entries(doc));
        true
    }

    /// Withdraws `provider`'s copy of the record; the record's postings
    /// disappear with its last provider, and only then are its
    /// `(community, fields)` returned.
    pub fn remove(&mut self, provider: PeerId, key: &str) -> Option<(&str, SharedFields)> {
        self.withdraw(provider, key, |_| {})
    }

    /// [`IndexNode::remove`] that hands `left` the entries of the record
    /// when it left.
    pub fn withdraw(
        &mut self,
        provider: PeerId,
        key: &str,
        left: impl FnOnce(Entries<'_>),
    ) -> Option<(&str, SharedFields)> {
        self.writes += 1;
        let &share = self.by_key.get(key)?;
        self.withdraw_at(provider, share, left)
    }

    /// [`IndexNode::withdraw`] of the record at `share`; the record's
    /// key leaves the key map with its last provider.
    fn withdraw_at(
        &mut self,
        provider: PeerId,
        share: Share,
        left: impl FnOnce(Entries<'_>),
    ) -> Option<(&str, SharedFields)> {
        let table = self.communities.get_mut(share.slot as usize)?;
        let removed = table.remove_provider(share.doc, provider, left)?;
        self.by_key.remove(removed.id());
        Some((self.names.name(share.slot), removed.into_fields()))
    }

    /// [`IndexNode::withdraw`] of `provider`'s copy of the record at
    /// `share`.
    pub(crate) fn remove_share(
        &mut self,
        provider: PeerId,
        share: Share,
        left: impl FnOnce(Entries<'_>),
    ) {
        self.writes += 1;
        self.withdraw_at(provider, share, left);
    }

    /// Is `provider` currently advertising the record?
    pub fn has_provider(&self, key: &str, provider: PeerId) -> bool {
        let Some(&Share { slot, doc }) = self.by_key.get(key) else { return false };
        self.communities[slot as usize].has_provider(doc, provider)
    }

    /// Hands the entries of every record in this node's share table to
    /// `visit`, whatever its provider set — what a routing digest of the
    /// node is built from.
    pub fn for_each_entry(&mut self, visit: &mut EntryVisitor<'_>) {
        for table in &mut self.communities {
            table.for_each_entry(visit);
        }
    }

    /// Visits every record in this node's share table once per
    /// provider, as `(share, provider)`, community by community in
    /// doc-id order, providers ascending — what a super hands on when its
    /// leaves move to another.
    pub(crate) fn for_each_share(&self, mut f: impl FnMut(Share, PeerId)) {
        for (slot, table) in (0..).zip(&self.communities) {
            for (doc, providers) in (0..).zip(&table.providers) {
                providers.iter().for_each(|&p| f(Share { slot, doc }, p));
            }
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
        self.search_sized(community, query, alive, |_| emit);
    }

    /// [`IndexNode::search`] whose emitter is made once the matching
    /// records are known: `sized` gets their number, which is the hit
    /// count when each has one live provider, and is not called when the
    /// community has no records.
    pub(crate) fn search_sized<A, S, E>(&self, community: &str, query: &Query, alive: A, sized: S)
    where
        A: Fn(PeerId) -> bool,
        S: FnOnce(usize) -> E,
        E: FnMut(&str, PeerId, &SharedFields),
    {
        let Some(slot) = self.names.get(community) else { return };
        self.communities[slot as usize].search(query, alive, sized);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl IndexNode {
        /// Visits `(community, fields)` of every record in this node's
        /// share table, whatever its provider set: what the reference
        /// digests of the tests are built from, by the strings.
        pub(crate) fn for_each_record(&self, mut f: impl FnMut(&str, &[(String, String)])) {
            for (slot, table) in (0..).zip(&self.communities) {
                let name = self.names.name(slot);
                table.index.gather_matches(&Query::All, |_, _, fields| f(name, fields));
            }
        }

        /// Visits `(key, provider)` of every record in this node's share
        /// table once per provider.
        pub(crate) fn for_each_key(&self, mut f: impl FnMut(&str, PeerId)) {
            self.for_each_share(|share, provider| {
                let table = &self.communities[share.slot as usize];
                if let Some((id, _)) = table.index.record(share.doc) {
                    f(id.as_hex(), provider);
                }
            });
        }
    }

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
    fn every_write_counts_and_a_search_none() {
        let mut node = IndexNode::new();
        node.insert(PeerId(1), &record("k1", "patterns", "Observer"));
        node.insert(PeerId(2), &record("k1", "patterns", "Observer"));
        node.insert(PeerId(3), &record("k2", "songs", "Jazz"));
        // a no-op removal is a write call all the same
        node.remove(PeerId(9), "k2");
        node.remove(PeerId(1), "missing");
        node.remove(PeerId(1), "k1");
        assert_eq!(node.write_guard_count(), 6, "every insert and remove counts");
        hits(&node, "patterns", &Query::any_keyword("observer"));
        hits(&node, "songs", &Query::All);
        hits(&node, "absent", &Query::All);
        assert_eq!(node.write_guard_count(), 6, "searches write nothing");
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

    use crate::digest::for_each_record_entry;
    use proptest::prelude::*;

    /// The one key map states each record's place: every key names a
    /// live doc of its slot's table indexed under that key, and the
    /// tables hold as many live docs as the map holds keys.
    fn keys_name_their_places(node: &IndexNode) -> Result<(), TestCaseError> {
        for (key, share) in &node.by_key {
            let record = node.communities[share.slot as usize].index.record(share.doc);
            prop_assert_eq!(record.map(|(id, _)| id), Some(key), "slot {}", share.slot);
        }
        let docs = node.communities.iter().map(|table| table.index.doc_tokens().count());
        prop_assert_eq!(docs.sum::<usize>(), node.len());
        Ok(())
    }

    /// `entries`' hashes, sorted: a multiset.
    fn multiset(entries: Entries<'_>) -> Vec<u64> {
        let mut got = Vec::new();
        entries.visit(&mut |h| got.push(h));
        got.sort_unstable();
        got
    }

    /// [`for_each_record_entry`]'s hashes of a record, sorted.
    fn oracle(community: &str, fields: &[(String, String)]) -> Vec<u64> {
        let mut want = Vec::new();
        for_each_record_entry(community, fields, |h| want.push(h));
        want.sort_unstable();
        want
    }

    /// Values with repeated words, a word shared by two fields, and words
    /// whose lowercase moves a token boundary.
    fn record_fields() -> impl Strategy<Value = Vec<(String, String)>> {
        let word = prop_oneof![
            Just("jazz"),
            Just("Jazz jazz"),
            Just("İstanbul"),
            Just("Été"),
            Just("of"),
            Just("x-ray"),
        ];
        let path = prop_oneof![Just("o/name"), Just("o/tag")];
        proptest::collection::vec((path, word), 0..4)
            .prop_map(|f| f.into_iter().map(|(p, v)| (p.to_string(), v.to_string())).collect())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The entries an index node reads off its symbols are, as a
        /// multiset, the entries `for_each_record_entry` enumerates from
        /// the record's strings: for every record of a node given a tape
        /// of uploads (replicas among them) and withdrawals, for every
        /// record that leaves (what `withdraw` hands over), and for every
        /// record a second node takes over from the first. After every
        /// write and after the take-over, each node's key map names
        /// exactly its live docs.
        #[test]
        fn index_entries_are_the_records_entries(
            tape in proptest::collection::vec(
                (0u8..6, 0usize..2, 0u32..3, any::<bool>(), record_fields()), 1..30,
            ),
        ) {
            const COMMUNITIES: [&str; 2] = ["songs", "patterns"];
            let mut node = IndexNode::new();
            for (key, community, provider, withdraw, fields) in tape {
                let (key, community) = (format!("k{key}"), COMMUNITIES[community]);
                if withdraw {
                    let mut left = None;
                    let gone = node.withdraw(PeerId(provider), &key, |e| left = Some(multiset(e)));
                    prop_assert_eq!(gone.is_some(), left.is_some());
                    if let (Some((c, f)), Some(left)) = (gone, left) {
                        prop_assert_eq!(left, oracle(c, &f));
                    }
                } else {
                    let fields: SharedFields = fields.into();
                    let mut added = None;
                    let id = ResourceId::from_key(&key);
                    let entered = node.upload(PeerId(provider), id, community, fields.clone(), |e| {
                        added = Some(multiset(e))
                    });
                    prop_assert_eq!(entered, added.is_some());
                    if let Some(added) = added {
                        prop_assert_eq!(added, oracle(community, &fields));
                    }
                }
                keys_name_their_places(&node)?;
            }
            let mut shares = Vec::new();
            node.for_each_share(|share, provider| shares.push((share, provider)));
            let mut other = IndexNode::new();
            for &(share, provider) in &shares {
                let table = &node.communities[share.slot as usize];
                let community = node.names.name(share.slot);
                let record = table.index.record(share.doc).expect("a listed share is live");
                let fields = SharedFields::clone(record.1);
                let mut added = None;
                other.take_over(provider, &node, share, |e| added = Some(multiset(e)));
                if let Some(added) = added {
                    prop_assert_eq!(added, oracle(community, &fields));
                }
            }
            for n in [&mut node, &mut other] {
                for slot in 0..n.communities.len() as u32 {
                    let community = n.names.name(slot).to_string();
                    let table = &mut n.communities[slot as usize];
                    let docs: Vec<u32> = table.index.doc_tokens().map(|(doc, _)| doc).collect();
                    for doc in docs {
                        let fields = SharedFields::clone(table.index.record(doc).expect("live").1);
                        prop_assert_eq!(multiset(table.entries(doc)), oracle(&community, &fields));
                    }
                }
            }
            keys_name_their_places(&other)?;
            prop_assert_eq!(node.len(), other.len(), "every record moved");
        }
    }
}
