//! The inverted metadata index.
//!
//! Only fields extracted by the community's *Indexed Attribute* filter
//! (Fig. 1 of the paper) enter the index; experiment E7 measures the
//! size/recall trade-off, `up2p_bench`'s `store.index_*` probes the scale.
//!
//! Layout: every [`ResourceId`] is interned to a dense `u32` doc-id and
//! every field path / token / normalized value to a `u32` symbol, so a
//! posting is 4 bytes instead of a cloned 40-char hex `String`. Posting
//! lists are sorted `Vec<u32>` per `(field path, term)`; `And` intersects
//! them with galloping (exponential) search, `Or` takes a k-way merge.
//! Field references resolve through a precomputed suffix map
//! ([`MetadataIndex::intern_path`] registers `a/b/c` under `a/b/c`, `b/c`
//! and `c`), so exact references are a single hash lookup instead of a
//! scan over every field's posting map. Removal replays the removed
//! object's own stored fields instead of sweeping the whole index.
//!
//! Doc-id contract: the doc-id an insert allocates
//! ([`MetadataIndex::insert_shared`] returns it,
//! [`MetadataIndex::doc_of`] looks it up) is stable until that id is
//! removed — a `remove`, or the re-insert of the same id, which removes
//! first — whatever happens to other objects in between. Afterwards it
//! is recycled: the next insert may be handed the same number. A caller
//! that keeps state in a `Vec` beside the index, addressed by doc-id
//! ([`MetadataIndex::for_each_match_doc`] passes it), clears a slot when
//! it removes the id.

use crate::digest::ResourceId;
use crate::query::{Query, ValuePattern};
use crate::tokenizer::{for_each_token, normalize};
use std::borrow::Cow;
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

/// Shared handle to one object's extracted `(field path, value)` pairs.
/// Cloning is a refcount bump; the index, the repository and the network
/// layer all hold the same allocation.
pub type SharedFields = Arc<[(String, String)]>;

/// One field value's pre-tokenized form: exactly what
/// [`MetadataIndex::insert_tokenized`] needs to post the field without
/// touching the tokenizer. Produced by [`prepare_fields`] at publish
/// time and persisted in WAL/segment records so recovery replays posting
/// lists instead of re-deriving them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PreparedField {
    /// Normalized value ([`normalize`]d), the exact-match key.
    pub norm: String,
    /// Keyword tokens in visit order (duplicates preserved — posting
    /// insertion deduplicates per doc anyway).
    pub tokens: Vec<String>,
}

/// Tokenizes and normalizes every field value once, producing the
/// prepared form the durable store persists. This is the *only*
/// tokenization pass an object needs: publish runs it, the WAL carries
/// it, recovery replays it.
pub fn prepare_fields(fields: &[(String, String)]) -> Vec<PreparedField> {
    fields
        .iter()
        .map(|(_, value)| {
            let norm = normalize(value);
            let mut tokens = Vec::new();
            for_each_token(value, |t| tokens.push(t.to_string()));
            PreparedField { norm, tokens }
        })
        .collect()
}

/// Interner mapping strings to dense `u32` symbols. Each distinct string
/// is stored exactly once (as the lookup key); the content byte total is
/// accumulated on intern so `bytes()` is O(1) and matches what is
/// actually resident.
#[derive(Debug, Clone, Default)]
struct SymbolTable {
    lookup: HashMap<String, u32>,
    content_bytes: usize,
}

impl SymbolTable {
    fn intern(&mut self, s: &str) -> u32 {
        if let Some(&sym) = self.lookup.get(s) {
            return sym;
        }
        let sym = self.lookup.len() as u32;
        self.content_bytes += s.len();
        self.lookup.insert(s.to_string(), sym);
        sym
    }

    fn get(&self, s: &str) -> Option<u32> {
        self.lookup.get(s).copied()
    }

    fn len(&self) -> usize {
        self.lookup.len()
    }

    /// Total bytes of interned string content (each distinct string
    /// counted once — the point of interning).
    fn bytes(&self) -> usize {
        self.content_bytes
    }
}

/// Everything stored per indexed object: the original id, the raw
/// extracted fields (public API + snippets), and the interned/normalized
/// forms the scan fallback and targeted removal replay. Fields are held
/// behind an `Arc` so callers that already share the extracted metadata
/// (the net layer's index nodes, the repository) pay a refcount bump, not
/// a deep copy, per index.
#[derive(Debug, Clone)]
struct DocEntry {
    id: ResourceId,
    fields: SharedFields,
    path_syms: Vec<u32>,
    norms: Vec<String>,
}

/// Inverted index over extracted `(field path, value)` pairs.
#[derive(Debug, Clone, Default)]
pub struct MetadataIndex {
    /// Field-path interner; `tokens`/`exact` are indexed by path symbol.
    paths: SymbolTable,
    /// Shared interner for tokens and normalized values.
    terms: SymbolTable,
    /// Field reference (full path or any `/`-aligned suffix) → path
    /// symbols it matches, in ascending symbol order.
    ref_paths: HashMap<String, Vec<u32>>,
    /// Per path symbol: token symbol → sorted doc-id posting list.
    tokens: Vec<HashMap<u32, Vec<u32>>>,
    /// Per path symbol: normalized-value symbol → sorted posting list.
    exact: Vec<HashMap<u32, Vec<u32>>>,
    /// Doc-id → entry; `None` marks a recycled slot.
    docs: Vec<Option<DocEntry>>,
    /// ResourceId → doc-id for every live object.
    doc_ids: HashMap<ResourceId, u32>,
    /// Recycled doc-ids available for reuse.
    free: Vec<u32>,
}

/// Size statistics for experiment E7 and the benchmark's `store.index_bytes`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IndexStats {
    /// Number of indexed objects.
    pub objects: usize,
    /// Distinct field paths with at least one posting.
    pub fields: usize,
    /// Total postings across the token index.
    pub token_postings: usize,
    /// Total postings across the exact-value index.
    pub exact_postings: usize,
    /// Approximate resident bytes: interned path/term string content
    /// (each distinct string once), 4 bytes per posting, 4 bytes per
    /// posting-list key, and 40 bytes per live object for its id (the
    /// length of a content id in hex; a shorter `from_key` id still
    /// counts 40).
    pub approx_bytes: usize,
}

impl MetadataIndex {
    /// Creates an empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Indexes (or re-indexes) an object's extracted fields.
    pub fn insert(&mut self, id: ResourceId, fields: Vec<(String, String)>) {
        self.insert_shared(id, fields.into());
    }

    /// Indexes (or re-indexes) an object whose extracted fields are
    /// already shared. The index keeps the `Arc` (a refcount bump) — this
    /// is the borrowing insert the net layer's index nodes use so one
    /// metadata allocation serves the publisher, every index node and
    /// every search hit. Returns the doc-id the object now lives under
    /// (module docs: stable until this id is removed, recycled after).
    pub fn insert_shared(&mut self, id: ResourceId, fields: SharedFields) -> u32 {
        self.remove(&id);
        self.admit(id, fields, None)
    }

    /// Indexes an object from its pre-tokenized form without running the
    /// tokenizer — the durable publish path: `prep` is what
    /// [`prepare_fields`] produced for the WAL record. When the prepared
    /// form does not line up with the fields (foreign or damaged input),
    /// tokenizes normally rather than posting mismatched lists. Returns
    /// the doc-id, as [`insert_shared`](Self::insert_shared) does.
    pub fn insert_tokenized(
        &mut self,
        id: ResourceId,
        fields: SharedFields,
        prep: &[PreparedField],
    ) -> u32 {
        self.remove(&id);
        self.admit(id, fields, Some(prep))
    }

    /// Removes an object by replaying its own stored fields — cost is
    /// proportional to the removed object's postings, not the index size.
    /// Returns the fields it was indexed under; its doc-id is free for
    /// the next insert from here on.
    pub fn remove(&mut self, id: &ResourceId) -> Option<SharedFields> {
        let doc = self.doc_ids.remove(id)?;
        let Some(entry) = self.docs.get_mut(doc as usize).and_then(Option::take) else {
            // id table pointed at an empty slot (should not happen);
            // recycle the slot and there is nothing to unpost
            self.free.push(doc);
            return None;
        };
        for (i, (_, value)) in entry.fields.iter().enumerate() {
            let path = entry.path_syms[i] as usize;
            if let Some(v) = self.terms.get(&entry.norms[i]) {
                unpost(&mut self.exact[path], v, doc);
            }
            let (terms, tokens) = (&self.terms, &mut self.tokens);
            for_each_token(value, |token| {
                if let Some(t) = terms.get(token) {
                    unpost(&mut tokens[path], t, doc);
                }
            });
        }
        self.free.push(doc);
        Some(entry.fields)
    }

    /// The doc-id a live object is indexed under (module docs: stable
    /// until `key` is removed).
    pub fn doc_of(&self, key: &str) -> Option<u32> {
        self.doc_ids.get(key).copied()
    }

    /// Number of indexed objects.
    pub fn len(&self) -> usize {
        self.doc_ids.len()
    }

    /// `true` when nothing is indexed.
    pub fn is_empty(&self) -> bool {
        self.doc_ids.is_empty()
    }

    /// The extracted fields of an indexed object.
    pub fn fields(&self, id: &ResourceId) -> Option<&[(String, String)]> {
        self.shared_fields(id).map(|f| &**f)
    }

    /// The shared handle to an indexed object's extracted fields (clone =
    /// refcount bump; this is what search hits carry).
    pub fn shared_fields(&self, id: &ResourceId) -> Option<&Arc<[(String, String)]>> {
        let doc = *self.doc_ids.get(id)?;
        self.docs.get(doc as usize)?.as_ref().map(|entry| &entry.fields)
    }

    /// All indexed ids.
    pub fn ids(&self) -> BTreeSet<ResourceId> {
        self.doc_ids.keys().cloned().collect()
    }

    /// Executes a query, returning matching ids.
    ///
    /// Keyword and exact-match branches are answered from the inverted
    /// structures via the reference→path map; wildcard patterns fall back
    /// to scanning stored normalized values. Results always agree with
    /// [`Query::matches_fields`] (property-tested).
    pub fn execute(&self, query: &Query) -> BTreeSet<ResourceId> {
        self.exec(query)
            .iter()
            .filter_map(|&doc| self.docs.get(doc as usize).and_then(Option::as_ref))
            .map(|entry| entry.id.clone())
            .collect()
    }

    /// Visits every matching object in ascending doc-id (insertion)
    /// order without materializing an id set. The callback receives the
    /// id and the shared fields handle, so callers can compose the
    /// candidate set with their own state — e.g. the net layer filters
    /// by provider liveness and emits hits that share the same `Arc`.
    pub fn for_each_match<F>(&self, query: &Query, mut f: F)
    where
        F: FnMut(&ResourceId, &Arc<[(String, String)]>),
    {
        self.for_each_match_doc(query, |_, id, fields| f(id, fields));
    }

    /// [`for_each_match`](Self::for_each_match), also passing each
    /// object's doc-id — the index into whatever the caller keeps per
    /// object beside the index (the net layer's provider table).
    pub fn for_each_match_doc<F>(&self, query: &Query, mut f: F)
    where
        F: FnMut(u32, &ResourceId, &Arc<[(String, String)]>),
    {
        for &doc in self.exec(query).iter() {
            if let Some(entry) = self.docs.get(doc as usize).and_then(Option::as_ref) {
                f(doc, &entry.id, &entry.fields);
            }
        }
    }

    /// Allocates a doc-id (recycling freed slots) and registers the id.
    fn alloc_doc(&mut self, id: ResourceId) -> u32 {
        let doc = match self.free.pop() {
            Some(doc) => doc,
            None => {
                self.docs.push(None);
                (self.docs.len() - 1) as u32
            }
        };
        self.doc_ids.insert(id, doc);
        doc
    }

    /// Interns a field path, extending the per-path maps and registering
    /// the path under every `/`-aligned suffix reference.
    fn intern_path(&mut self, path: &str) -> u32 {
        if let Some(sym) = self.paths.get(path) {
            return sym;
        }
        let sym = self.paths.intern(path);
        self.tokens.push(HashMap::new());
        self.exact.push(HashMap::new());
        self.ref_paths.entry(path.to_string()).or_default().push(sym);
        for (i, b) in path.bytes().enumerate() {
            if b == b'/' {
                self.ref_paths.entry(path[i + 1..].to_string()).or_default().push(sym);
            }
        }
        sym
    }

    /// Indexes an object that is not (or no longer) in the index: from
    /// `prep` when it lines up with the fields, through the tokenizer
    /// otherwise.
    fn admit(&mut self, id: ResourceId, fields: SharedFields, prep: Option<&[PreparedField]>) -> u32 {
        match prep.filter(|p| p.len() == fields.len()) {
            Some(prep) => self.post(id, fields, prep),
            None => self.post(id, fields, Tokenizer),
        }
    }

    /// The one posting body: allocates the doc-id (returned), interns and
    /// posts the fields with each one's normalized value and tokens taken
    /// from `source`, and stores the entry; every list stays sorted.
    /// Removal later replays the entry via `for_each_token`, which
    /// matches a prepared source because [`prepare_fields`] used the
    /// same visitor.
    fn post<S: TermSource>(&mut self, id: ResourceId, fields: SharedFields, source: S) -> u32 {
        let doc = self.alloc_doc(id.clone());
        let mut path_syms = Vec::with_capacity(fields.len());
        let mut norms = Vec::with_capacity(fields.len());
        for (i, (path, value)) in fields.iter().enumerate() {
            let p = self.intern_path(path);
            path_syms.push(p);
            let norm = source.norm(i, value);
            let v = self.terms.intern(&norm);
            add_posting(self.exact[p as usize].entry(v).or_default(), doc);
            let (terms, tokens) = (&mut self.terms, &mut self.tokens);
            source.for_each_token(i, value, |token| {
                let t = terms.intern(token);
                add_posting(tokens[p as usize].entry(t).or_default(), doc);
            });
            norms.push(norm);
        }
        self.docs[doc as usize] = Some(DocEntry { id, fields, path_syms, norms });
        doc
    }

    /// Sorted doc-ids of every live object.
    fn all_docs(&self) -> Vec<u32> {
        self.docs
            .iter()
            .enumerate()
            .filter(|(_, e)| e.is_some())
            .map(|(i, _)| i as u32)
            .collect()
    }

    /// Path symbols matched by a field reference (empty when no stored
    /// path matches).
    fn resolve_reference(&self, reference: &str) -> &[u32] {
        self.ref_paths.get(reference).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Union of the posting lists for `term` across `paths` in `maps`.
    fn union_postings<'a>(
        &self,
        maps: &'a [HashMap<u32, Vec<u32>>],
        paths: &[u32],
        term: u32,
    ) -> Cow<'a, [u32]> {
        let lists: Vec<&[u32]> =
            paths.iter().filter_map(|&p| maps[p as usize].get(&term)).map(Vec::as_slice).collect();
        union_k(&lists)
    }

    /// Core evaluator over interned doc-ids; every branch returns a
    /// sorted, duplicate-free list. A term found under one path — most
    /// queries — is that path's posting list, borrowed; only a branch
    /// that combines lists allocates.
    fn exec(&self, query: &Query) -> Cow<'_, [u32]> {
        const NONE: Cow<'static, [u32]> = Cow::Borrowed(&[]);
        match query {
            Query::All => Cow::Owned(self.all_docs()),
            Query::And(qs) => {
                let mut lists = Vec::with_capacity(qs.len());
                for q in qs {
                    let l = self.exec(q);
                    if l.is_empty() {
                        return NONE;
                    }
                    lists.push(l);
                }
                lists.sort_unstable_by_key(|l| l.len());
                let mut iter = lists.into_iter();
                // an empty conjunction holds of every object
                let Some(mut acc) = iter.next() else { return Cow::Owned(self.all_docs()) };
                for l in iter {
                    acc = Cow::Owned(intersect_gallop(&acc, &l));
                    if acc.is_empty() {
                        break;
                    }
                }
                acc
            }
            Query::Or(qs) => {
                let lists: Vec<Cow<'_, [u32]>> = qs.iter().map(|q| self.exec(q)).collect();
                let slices: Vec<&[u32]> = lists.iter().map(|l| &**l).collect();
                Cow::Owned(union_k(&slices).into_owned())
            }
            Query::Not(q) => Cow::Owned(difference(&self.all_docs(), &self.exec(q))),
            Query::Keyword { field, word } => {
                let Some(t) = self.terms.get(word) else { return NONE };
                match field {
                    None => {
                        let lists: Vec<&[u32]> =
                            self.tokens.iter().filter_map(|m| m.get(&t)).map(Vec::as_slice).collect();
                        union_k(&lists)
                    }
                    Some(f) => self.union_postings(&self.tokens, self.resolve_reference(f), t),
                }
            }
            Query::Match { field, pattern } => match pattern {
                ValuePattern::Exact(value) => {
                    let Some(v) = self.terms.get(value) else { return NONE };
                    self.union_postings(&self.exact, self.resolve_reference(field), v)
                }
                _ => {
                    let path_syms = self.resolve_reference(field);
                    if path_syms.is_empty() {
                        return NONE;
                    }
                    self.docs
                        .iter()
                        .enumerate()
                        .filter(|(_, e)| {
                            e.as_ref().is_some_and(|e| {
                                e.path_syms.iter().zip(&e.norms).any(|(p, norm)| {
                                    path_syms.contains(p) && pattern.matches_normalized(norm)
                                })
                            })
                        })
                        .map(|(i, _)| i as u32)
                        .collect()
                }
            },
        }
    }

    /// Current size statistics.
    pub fn stats(&self) -> IndexStats {
        let token_postings: usize = self.tokens.iter().flat_map(HashMap::values).map(Vec::len).sum();
        let exact_postings: usize = self.exact.iter().flat_map(HashMap::values).map(Vec::len).sum();
        let lists: usize =
            self.tokens.iter().map(HashMap::len).sum::<usize>() + self.exact.iter().map(HashMap::len).sum::<usize>();
        let fields = (0..self.paths.len())
            .filter(|&p| !self.tokens[p].is_empty() || !self.exact[p].is_empty())
            .count();
        IndexStats {
            objects: self.doc_ids.len(),
            fields,
            token_postings,
            exact_postings,
            approx_bytes: self.paths.bytes()
                + self.terms.bytes()
                + 4 * (token_postings + exact_postings)
                + 4 * lists
                + 40 * self.doc_ids.len(),
        }
    }
}

/// Where [`MetadataIndex::post`] gets field `i`'s normalized value and
/// keyword tokens.
trait TermSource {
    fn norm(&self, i: usize, value: &str) -> String;
    fn for_each_token(&self, i: usize, value: &str, f: impl FnMut(&str));
}

/// Derives both from the raw value; the token visitor allocates no
/// `String` per token.
struct Tokenizer;

impl TermSource for Tokenizer {
    fn norm(&self, _: usize, value: &str) -> String {
        normalize(value)
    }
    fn for_each_token(&self, _: usize, value: &str, f: impl FnMut(&str)) {
        for_each_token(value, f);
    }
}

/// Reads back what [`prepare_fields`] derived; never runs the tokenizer.
/// The slice must be as long as the object's field list.
impl TermSource for &[PreparedField] {
    fn norm(&self, i: usize, _: &str) -> String {
        self[i].norm.clone()
    }
    fn for_each_token(&self, i: usize, _: &str, mut f: impl FnMut(&str)) {
        self[i].tokens.iter().for_each(|t| f(t));
    }
}

/// Adds `doc` to a sorted posting list. Ascending doc-ids (the common
/// case) append in O(1); a recycled, lower doc-id is inserted at its
/// sorted position.
fn add_posting(list: &mut Vec<u32>, doc: u32) {
    match list.last() {
        Some(&tail) if tail == doc => {}
        Some(&tail) if tail > doc => {
            if let Err(pos) = list.binary_search(&doc) {
                list.insert(pos, doc);
            }
        }
        _ => list.push(doc),
    }
}

/// Removes `doc` from the posting list under `term`, dropping the map
/// entry when the list empties.
fn unpost(map: &mut HashMap<u32, Vec<u32>>, term: u32, doc: u32) {
    if let Some(list) = map.get_mut(&term) {
        if let Ok(pos) = list.binary_search(&doc) {
            list.remove(pos);
        }
        if list.is_empty() {
            map.remove(&term);
        }
    }
}

/// First index `i >= from` with `list[i] >= target`, found by exponential
/// probing followed by binary search on the bracketed run.
fn gallop(list: &[u32], target: u32, from: usize) -> usize {
    if from >= list.len() || list[from] >= target {
        return from;
    }
    // invariant: list[lo] < target
    let mut lo = from;
    let mut step = 1;
    loop {
        let hi = lo + step;
        if hi >= list.len() || list[hi] >= target {
            let end = hi.min(list.len());
            return lo + 1 + list[lo + 1..end].partition_point(|&v| v < target);
        }
        lo = hi;
        step *= 2;
    }
}

/// Intersection of two sorted lists: iterate the smaller, gallop the
/// larger — O(s · log(l/s)) instead of O(s + l).
fn intersect_gallop(a: &[u32], b: &[u32]) -> Vec<u32> {
    let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    let mut out = Vec::new();
    let mut pos = 0;
    for &x in small {
        pos = gallop(large, x, pos);
        if pos == large.len() {
            break;
        }
        if large[pos] == x {
            out.push(x);
            pos += 1;
        }
    }
    out
}

/// K-way merge of sorted lists into one sorted, duplicate-free list; a
/// single list is its own union and comes back borrowed.
fn union_k<'a>(lists: &[&'a [u32]]) -> Cow<'a, [u32]> {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    match lists {
        [] => Cow::Borrowed(&[]),
        [only] => Cow::Borrowed(only),
        _ => {
            let mut heap: BinaryHeap<Reverse<(u32, usize)>> = BinaryHeap::with_capacity(lists.len());
            let mut pos = vec![0usize; lists.len()];
            for (i, l) in lists.iter().enumerate() {
                if let Some(&first) = l.first() {
                    heap.push(Reverse((first, i)));
                }
            }
            let mut out = Vec::new();
            while let Some(Reverse((v, i))) = heap.pop() {
                if out.last() != Some(&v) {
                    out.push(v);
                }
                pos[i] += 1;
                if let Some(&next) = lists[i].get(pos[i]) {
                    heap.push(Reverse((next, i)));
                }
            }
            Cow::Owned(out)
        }
    }
}

/// Sorted-list difference `all \ sub` (two-pointer).
fn difference(all: &[u32], sub: &[u32]) -> Vec<u32> {
    let mut out = Vec::with_capacity(all.len().saturating_sub(sub.len()));
    let mut j = 0;
    for &x in all {
        while j < sub.len() && sub[j] < x {
            j += 1;
        }
        if j == sub.len() || sub[j] != x {
            out.push(x);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(n: u8) -> ResourceId {
        ResourceId::for_bytes(&[n])
    }

    fn sample() -> MetadataIndex {
        let mut ix = MetadataIndex::new();
        ix.insert(
            id(1),
            vec![
                ("pattern/name".into(), "Observer".into()),
                ("pattern/category".into(), "behavioral".into()),
                ("pattern/intent".into(), "notify dependents automatically".into()),
            ],
        );
        ix.insert(
            id(2),
            vec![
                ("pattern/name".into(), "Abstract Factory".into()),
                ("pattern/category".into(), "creational".into()),
                ("pattern/intent".into(), "families of related objects".into()),
            ],
        );
        ix.insert(
            id(3),
            vec![
                ("pattern/name".into(), "Factory Method".into()),
                ("pattern/category".into(), "creational".into()),
                ("pattern/intent".into(), "defer instantiation to subclasses".into()),
            ],
        );
        ix
    }

    #[test]
    fn keyword_search_hits_tokens() {
        let ix = sample();
        let hits = ix.execute(&Query::any_keyword("factory"));
        assert_eq!(hits.len(), 2);
        let hits = ix.execute(&Query::keyword("name", "observer"));
        assert_eq!(hits, BTreeSet::from([id(1)]));
    }

    #[test]
    fn exact_match_uses_value_index() {
        let ix = sample();
        let hits = ix.execute(&Query::eq("category", "CREATIONAL"));
        assert_eq!(hits.len(), 2);
        let hits = ix.execute(&Query::eq("name", "abstract factory"));
        assert_eq!(hits, BTreeSet::from([id(2)]));
    }

    #[test]
    fn wildcard_scan() {
        let ix = sample();
        let q = Query::Match {
            field: "name".into(),
            pattern: ValuePattern::from_wildcard("*factory*"),
        };
        assert_eq!(ix.execute(&q).len(), 2);
        let q = Query::Match {
            field: "name".into(),
            pattern: ValuePattern::from_wildcard("observ*"),
        };
        assert_eq!(ix.execute(&q), BTreeSet::from([id(1)]));
    }

    #[test]
    fn boolean_composition() {
        let ix = sample();
        let q = Query::and([
            Query::eq("category", "creational"),
            Query::any_keyword("families"),
        ]);
        assert_eq!(ix.execute(&q), BTreeSet::from([id(2)]));
        let q = Query::Not(Box::new(Query::eq("category", "creational")));
        assert_eq!(ix.execute(&q), BTreeSet::from([id(1)]));
    }

    #[test]
    fn remove_clears_postings() {
        let mut ix = sample();
        ix.remove(&id(2));
        assert_eq!(ix.len(), 2);
        assert!(ix.execute(&Query::any_keyword("families")).is_empty());
        let hits = ix.execute(&Query::any_keyword("factory"));
        assert_eq!(hits, BTreeSet::from([id(3)]));
        // removing twice is a no-op
        ix.remove(&id(2));
        assert_eq!(ix.len(), 2);
    }

    #[test]
    fn reinsert_replaces_old_fields() {
        let mut ix = sample();
        ix.insert(id(1), vec![("pattern/name".into(), "Mediator".into())]);
        assert!(ix.execute(&Query::keyword("name", "observer")).is_empty());
        assert_eq!(ix.execute(&Query::keyword("name", "mediator")), BTreeSet::from([id(1)]));
        assert_eq!(ix.len(), 3);
    }

    #[test]
    fn stats_track_sizes() {
        let ix = sample();
        let s = ix.stats();
        assert_eq!(s.objects, 3);
        assert_eq!(s.fields, 3);
        assert!(s.token_postings > 0);
        assert!(s.exact_postings >= 9);
        assert!(s.approx_bytes > 0);
        // an empty index reports zeros
        assert_eq!(MetadataIndex::new().stats(), IndexStats::default());
    }

    #[test]
    fn index_agrees_with_reference_semantics() {
        let ix = sample();
        let queries = [
            Query::any_keyword("factory"),
            Query::eq("category", "creational"),
            Query::contains("intent", "objects"),
            Query::and([Query::any_keyword("factory"), Query::any_keyword("method")]),
            Query::or([Query::eq("name", "observer"), Query::eq("name", "mediator")]),
            Query::Not(Box::new(Query::any_keyword("notify"))),
        ];
        for q in queries {
            let via_index = ix.execute(&q);
            let via_scan: BTreeSet<ResourceId> = ix
                .ids()
                .into_iter()
                .filter(|id| q.matches_fields(ix.fields(id).unwrap()))
                .collect();
            assert_eq!(via_index, via_scan, "disagreement on {q}");
        }
    }

    #[test]
    fn tokenized_insert_agrees_with_tokenizing_insert() {
        let fields = |n: &str, c: &str| -> SharedFields {
            vec![
                ("pattern/name".to_string(), n.to_string()),
                ("pattern/category".to_string(), c.to_string()),
            ]
            .into()
        };
        let items: Vec<(ResourceId, SharedFields)> = vec![
            (id(1), fields("Observer", "behavioral")),
            (id(2), fields("Abstract Factory", "creational")),
            (id(1), fields("Mediator", "behavioral")), // repeat: last wins
            (id(3), fields("Factory Method", "creational")),
        ];
        let mut reference = MetadataIndex::new();
        let mut single = MetadataIndex::new();
        for (rid, f) in &items {
            reference.insert_shared(rid.clone(), Arc::clone(f));
            single.insert_tokenized(rid.clone(), Arc::clone(f), &prepare_fields(f));
        }
        for q in [
            Query::any_keyword("factory"),
            Query::eq("category", "behavioral"),
            Query::keyword("name", "mediator"),
            Query::keyword("name", "observer"),
            Query::All,
        ] {
            assert_eq!(single.execute(&q), reference.execute(&q), "on {q}");
        }
        let (a, b) = (single.stats(), reference.stats());
        assert_eq!(a.token_postings, b.token_postings);
        assert_eq!(a.exact_postings, b.exact_postings);
        // removal replays tokenized entries correctly (same token stream)
        single.remove(&id(2));
        reference.remove(&id(2));
        assert_eq!(
            single.execute(&Query::any_keyword("factory")),
            reference.execute(&Query::any_keyword("factory"))
        );
        let (a, b) = (single.stats(), reference.stats());
        assert_eq!(a.token_postings, b.token_postings);
        // a prep that does not line up falls back to full tokenization
        let mut fallback = MetadataIndex::new();
        fallback.insert_tokenized(id(7), fields("Observer", "behavioral"), &[]);
        assert_eq!(fallback.execute(&Query::any_keyword("observer")), BTreeSet::from([id(7)]));
    }

    #[test]
    fn doc_ids_are_recycled_after_remove() {
        let mut ix = MetadataIndex::new();
        for n in 0..6u8 {
            ix.insert(id(n), vec![("o/name".into(), format!("thing{n}"))]);
        }
        for n in 0..6u8 {
            ix.remove(&id(n));
        }
        assert!(ix.is_empty());
        let s = ix.stats();
        assert_eq!((s.objects, s.token_postings, s.exact_postings), (0, 0, 0));
        // re-inserting reuses freed slots rather than growing the table
        for n in 0..6u8 {
            ix.insert(id(n), vec![("o/name".into(), format!("item{n}"))]);
        }
        assert_eq!(ix.docs.len(), 6, "slots are recycled, not appended");
        assert_eq!(ix.execute(&Query::keyword("name", "item3")), BTreeSet::from([id(3)]));
    }

    #[test]
    fn a_doc_id_is_stable_until_its_own_remove_and_reused_after() {
        let mut ix = MetadataIndex::new();
        let named = |n: u8| -> SharedFields { vec![("o/name".to_string(), format!("thing{n}"))].into() };
        let docs: Vec<u32> = (0..4).map(|n| ix.insert_shared(id(n), named(n))).collect();
        assert_eq!(docs, vec![0, 1, 2, 3]);
        let kept = id(2);
        assert_eq!(ix.doc_of(kept.as_hex()), Some(2));
        // unrelated removes and inserts leave it where it is
        assert!(ix.remove(&id(0)).is_some());
        assert!(ix.remove(&id(3)).is_some());
        ix.insert_shared(id(7), named(7));
        ix.insert_shared(id(8), named(8));
        ix.insert_shared(id(9), named(9));
        assert_eq!(ix.doc_of(kept.as_hex()), Some(2));
        let mut visited = Vec::new();
        ix.for_each_match_doc(&Query::keyword("name", "thing2"), |doc, rid, _| {
            visited.push((doc, rid.clone()));
        });
        assert_eq!(visited, vec![(2, kept.clone())], "the visitor passes the same number");
        // its own remove frees the number: the id no longer resolves and
        // the next insert is handed it
        assert!(ix.remove(&kept).is_some());
        assert_eq!(ix.doc_of(kept.as_hex()), None);
        assert_eq!(ix.insert_shared(id(10), named(10)), 2);
        assert_eq!(ix.doc_of(id(10).as_hex()), Some(2));
        assert!(ix.remove(&kept).is_none(), "removing twice returns nothing");
    }

    #[test]
    fn multi_segment_reference_resolves_all_suffix_paths() {
        let mut ix = MetadataIndex::new();
        ix.insert(id(1), vec![("a/b/c".into(), "deep".into())]);
        ix.insert(id(2), vec![("b/c".into(), "shallow".into())]);
        ix.insert(id(3), vec![("x/c".into(), "other".into())]);
        // "b/c" matches both the exact path and the /-aligned suffix
        let hits = ix.execute(&Query::Match {
            field: "b/c".into(),
            pattern: ValuePattern::Present,
        });
        assert_eq!(hits, BTreeSet::from([id(1), id(2)]));
        // the bare leaf still matches everything ending in /c
        let hits = ix.execute(&Query::Match { field: "c".into(), pattern: ValuePattern::Present });
        assert_eq!(hits.len(), 3);
    }

    #[test]
    fn shared_fields_flow_by_reference() {
        let mut ix = MetadataIndex::new();
        let fields: Arc<[(String, String)]> =
            vec![("pattern/name".to_string(), "Observer Pattern".to_string())].into();
        ix.insert_shared(id(1), Arc::clone(&fields));
        // the index holds the same allocation, not a copy
        let held = ix.shared_fields(&id(1)).expect("indexed");
        assert!(Arc::ptr_eq(held, &fields));
        assert_eq!(ix.fields(&id(1)), Some(&*fields));
        // candidate iteration surfaces the same handle and composes with
        // an external predicate
        let mut seen = Vec::new();
        ix.for_each_match(&Query::any_keyword("observer"), |rid, f| {
            assert!(Arc::ptr_eq(f, &fields));
            seen.push(rid.clone());
        });
        assert_eq!(seen, vec![id(1)]);
        ix.for_each_match(&Query::any_keyword("missing"), |_, _| panic!("no match expected"));
    }

    #[test]
    fn for_each_match_visits_in_insertion_order() {
        let ix = sample();
        let mut order = Vec::new();
        ix.for_each_match(&Query::eq("category", "creational"), |rid, _| {
            order.push(rid.clone());
        });
        assert_eq!(order, vec![id(2), id(3)], "ascending doc-id order");
    }

    #[test]
    fn merge_helpers_hold_their_invariants() {
        assert_eq!(intersect_gallop(&[1, 3, 5, 7], &[2, 3, 4, 5, 6, 8, 9, 11]), vec![3, 5]);
        assert_eq!(intersect_gallop(&[], &[1, 2]), Vec::<u32>::new());
        assert_eq!(*union_k(&[&[1, 4, 9], &[2, 4, 10], &[4, 5]]), [1, 2, 4, 5, 9, 10]);
        assert!(union_k(&[]).is_empty());
        assert!(matches!(union_k(&[&[3, 8]]), Cow::Borrowed([3, 8])), "one list is not copied");
        assert_eq!(difference(&[1, 2, 3, 4], &[2, 4]), vec![1, 3]);
        assert_eq!(gallop(&[1, 3, 5, 7, 9], 6, 0), 3);
        assert_eq!(gallop(&[1, 3, 5, 7, 9], 100, 2), 5);
        assert_eq!(gallop(&[1, 3, 5], 0, 0), 0);
    }
}
