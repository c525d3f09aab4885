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
//! ([`DocIndex::intern_path`] registers `a/b/c` under `a/b/c`, `b/c`
//! and `c`), so exact references are a single hash lookup instead of a
//! scan over every field's posting map. An object is tokenized once, at
//! insert: its entry keeps every symbol it was posted under, and removal
//! unposts exactly those, with no tokenizer pass and no term lookup.
//!
//! [`DocIndex`] is addressed by doc-id: an insert allots one and a
//! removal names one. [`MetadataIndex`] is a `DocIndex` with the doc-id
//! of each live [`ResourceId`] beside it, for a caller that addresses
//! objects by id (the repository); an index node keeps its own key map.
//!
//! Doc-id contract: the doc-id [`DocIndex::insert`] allots is stable
//! until [`DocIndex::remove`] of it, whatever happens to other objects in
//! between (a [`MetadataIndex`] re-insert of a live id removes it first
//! and is allotted it again). Afterwards it is recycled: the next insert
//! may be handed the same number. A caller that keeps state in a `Vec`
//! beside the index, addressed by doc-id ([`DocIndex::gather_matches`]
//! passes it), clears a slot when it removes the doc-id.

use crate::digest::ResourceId;
use crate::query::{Query, ValuePattern};
use crate::tokenizer::{for_each_token, is_normalized, normalize};
use std::borrow::Cow;
use std::collections::hash_map::Entry;
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

/// Interner mapping strings to dense `u32` symbols and back. Each
/// distinct string is stored exactly once, one `Arc<str>` shared by the
/// lookup map and the symbol → name vector; the content byte total is
/// accumulated on intern so `bytes()` is O(1) and matches what is
/// actually resident. Symbols are never freed, and are handed out
/// densely from 0, so a `Vec` beside the table can be indexed by them.
#[derive(Debug, Clone, Default)]
pub struct SymbolTable {
    lookup: HashMap<Arc<str>, u32>,
    names: Vec<Arc<str>>,
    content_bytes: usize,
}

impl SymbolTable {
    /// The symbol of `s`, interning it on first sight.
    pub fn intern(&mut self, s: &str) -> u32 {
        if let Some(&sym) = self.lookup.get(s) {
            return sym;
        }
        let sym = self.names.len() as u32;
        let name: Arc<str> = Arc::from(s);
        self.content_bytes += s.len();
        self.lookup.insert(Arc::clone(&name), sym);
        self.names.push(name);
        sym
    }

    /// The symbol of `s`, if it was ever interned.
    pub fn get(&self, s: &str) -> Option<u32> {
        self.lookup.get(s).copied()
    }

    /// The string `sym` was interned as.
    ///
    /// # Panics
    ///
    /// Panics if no [`SymbolTable::intern`] of this table returned `sym`.
    pub fn name(&self, sym: u32) -> &str {
        &self.names[sym as usize]
    }

    fn len(&self) -> usize {
        self.names.len()
    }

    /// Total bytes of interned string content (each distinct string
    /// counted once — the point of interning).
    fn bytes(&self) -> usize {
        self.content_bytes
    }
}

/// Everything stored per indexed object: the original id, the raw
/// extracted fields (public API + snippets), and every symbol the object
/// was posted under, in one allocation, which the scan fallback and
/// removal replay. Fields are held behind an `Arc` so callers that
/// already share the extracted metadata (the net layer's index nodes, the
/// repository) pay a refcount bump, not a deep copy, per index.
#[derive(Debug, Clone)]
struct DocEntry {
    id: ResourceId,
    fields: SharedFields,
    /// For field `i`, `syms[3i]` is its path symbol, `syms[3i + 1]` its
    /// normalized value's and `syms[3i + 2]` the end of its tokens; the
    /// token symbols of every field follow the `3n` head, field after
    /// field, one per occurrence.
    syms: Box<[u32]>,
}

impl DocEntry {
    /// Length of the per-field head of `syms`.
    fn head(&self) -> usize {
        3 * self.fields.len()
    }

    /// `(path, normalized value, tokens)` of each field, in field order.
    fn postings(&self) -> impl Iterator<Item = (u32, u32, &[u32])> + '_ {
        let head = self.syms.get(..self.head()).unwrap_or(&[]);
        let mut start = head.len();
        head.chunks_exact(3).map(move |field| {
            let end = (field[2] as usize).max(start);
            let tokens = self.syms.get(start..end).unwrap_or(&[]);
            start = end;
            (field[0], field[1], tokens)
        })
    }

    /// Every token symbol of the object, one per occurrence, in field
    /// order.
    fn tokens(&self) -> &[u32] {
        self.syms.get(self.head()..).unwrap_or(&[])
    }
}

/// An object [`DocIndex::remove`] took out of the index, with the token
/// symbols it was posted under, which stay resolvable through
/// [`DocIndex::term`] (symbols are never freed).
#[derive(Debug)]
pub struct Removed(DocEntry);

impl Removed {
    /// The id it was indexed under.
    pub fn id(&self) -> &ResourceId {
        &self.0.id
    }

    /// Its token symbols, one per occurrence, in field order.
    pub fn tokens(&self) -> &[u32] {
        self.0.tokens()
    }

    /// The fields it was indexed under.
    pub fn into_fields(self) -> SharedFields {
        self.0.fields
    }
}

/// Inverted index over extracted `(field path, value)` pairs, addressed
/// by doc-id: an insert allots one, and an object is removed by it.
#[derive(Debug, Clone, Default)]
pub struct DocIndex {
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
    /// Recycled doc-ids available for reuse, last freed on top: the
    /// `None` slots of `docs`.
    free: Vec<u32>,
    /// The symbols of the entry being posted, collected here before the
    /// entry takes them in one allocation of their exact length.
    scratch: Vec<u32>,
}

/// A [`DocIndex`] addressed by object id, as the repository keeps it.
#[derive(Debug, Clone, Default)]
pub struct MetadataIndex {
    index: DocIndex,
    /// ResourceId → doc-id for every live object.
    doc_ids: HashMap<ResourceId, u32>,
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

    /// Indexes (or re-indexes) an object whose extracted fields are
    /// already shared; the index keeps the `Arc` (a refcount bump).
    /// Returns the doc-id the object now lives under.
    pub fn insert_shared(&mut self, id: ResourceId, fields: SharedFields) -> u32 {
        self.admit(id, fields, Tokenizer)
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
        if prep.len() == fields.len() {
            self.admit(id, fields, prep)
        } else {
            self.admit(id, fields, Tokenizer)
        }
    }

    /// Removes an object ([`DocIndex::remove`] of its doc-id), returning
    /// the fields it was indexed under.
    pub fn remove(&mut self, id: &ResourceId) -> Option<SharedFields> {
        let doc = self.doc_ids.remove(id)?;
        self.index.remove(doc).map(Removed::into_fields)
    }

    /// Executes a query, returning matching ids.
    ///
    /// Keyword and exact-match branches are answered from the inverted
    /// structures via the reference→path map; wildcard patterns fall back
    /// to scanning each object's normalized values, resolved from the
    /// symbols it holds. Results always agree with
    /// [`Query::matches_fields`] (property-tested).
    pub fn execute(&self, query: &Query) -> BTreeSet<ResourceId> {
        self.index
            .exec(query)
            .iter()
            .filter_map(|&doc| self.index.entry(doc))
            .map(|entry| entry.id.clone())
            .collect()
    }

    /// Visits every matching object in ascending doc-id (insertion)
    /// order without materializing an id set. The callback receives the
    /// id and the shared fields handle.
    pub fn for_each_match<F>(&self, query: &Query, mut f: F)
    where
        F: FnMut(&ResourceId, &Arc<[(String, String)]>),
    {
        for &doc in self.index.exec(query).iter() {
            if let Some(entry) = self.index.entry(doc) {
                f(&entry.id, &entry.fields);
            }
        }
    }

    /// Current size statistics.
    pub fn stats(&self) -> IndexStats {
        let DocIndex { paths, terms, tokens, exact, .. } = &self.index;
        let token_postings: usize = tokens.iter().flat_map(HashMap::values).map(Vec::len).sum();
        let exact_postings: usize = exact.iter().flat_map(HashMap::values).map(Vec::len).sum();
        let lists: usize = tokens.iter().chain(exact).map(HashMap::len).sum();
        let fields = (0..paths.len())
            .filter(|&p| !tokens[p].is_empty() || !exact[p].is_empty())
            .count();
        let objects = self.doc_ids.len();
        IndexStats {
            objects,
            fields,
            token_postings,
            exact_postings,
            approx_bytes: paths.bytes()
                + terms.bytes()
                + 4 * (token_postings + exact_postings)
                + 4 * lists
                + 40 * objects,
        }
    }

    /// The one write body, with one `doc_ids` lookup: a live id's entry
    /// is removed first, and the doc-id that frees is the one the new
    /// entry is allotted (the free list is last in, first out), so the
    /// id keeps its doc-id. Returns the doc-id.
    fn admit<S: TermSource>(&mut self, id: ResourceId, fields: SharedFields, source: S) -> u32 {
        let doc = match self.doc_ids.entry(ResourceId::clone(&id)) {
            Entry::Occupied(live) => {
                self.index.remove(*live.get());
                live.into_mut()
            }
            Entry::Vacant(new) => new.insert(0),
        };
        *doc = self.index.admit(id, fields, source);
        *doc
    }
}

impl DocIndex {
    /// Indexes an object whose extracted fields are already shared under
    /// a fresh doc-id, which it returns (module docs: stable until it is
    /// removed, recycled after). The index keeps the `Arc` (a refcount
    /// bump), so one metadata allocation serves the publisher, every
    /// index node and every search hit.
    pub fn insert(&mut self, id: ResourceId, fields: SharedFields) -> u32 {
        self.admit(id, fields, Tokenizer)
    }

    /// Indexes the object `source` holds under its doc-id `doc`, with the
    /// id and fields it holds there and its terms read there by symbol
    /// name, without running the tokenizer — a record moving from one
    /// index to another. Returns the doc-id it is allotted here; `None`
    /// when `doc` is free in `source`.
    pub fn insert_copy(&mut self, source: &DocIndex, doc: u32) -> Option<u32> {
        let entry = source.entry(doc)?;
        let (id, fields) = (ResourceId::clone(&entry.id), SharedFields::clone(&entry.fields));
        Some(self.admit(id, fields, OtherIndex { terms: &source.terms, entry }))
    }

    /// Removes the object under `doc` by replaying the symbols its entry
    /// keeps — cost is proportional to its postings, not the index size,
    /// and no value is tokenized again — and hands back what the entry
    /// kept. `doc` is free for the next insert from here on; `None` when
    /// it already was.
    pub fn remove(&mut self, doc: u32) -> Option<Removed> {
        let entry = self.docs.get_mut(doc as usize)?.take()?;
        self.free.push(doc);
        unpost_entry(&mut self.exact, &mut self.tokens, doc, &entry);
        Some(Removed(entry))
    }

    /// The id and fields of the live object under a doc-id.
    pub fn record(&self, doc: u32) -> Option<(&ResourceId, &SharedFields)> {
        self.entry(doc).map(|entry| (&entry.id, &entry.fields))
    }

    /// The token symbols of the live object under a doc-id, one per
    /// occurrence, in field order; empty for a free doc-id.
    pub fn tokens_of(&self, doc: u32) -> &[u32] {
        self.entry(doc).map_or(&[], DocEntry::tokens)
    }

    /// Every live object's doc-id with its token symbols, in doc-id order.
    pub fn doc_tokens(&self) -> impl Iterator<Item = (u32, &[u32])> + '_ {
        let live = (0..).zip(&self.docs).filter_map(|(doc, e)| Some((doc, e.as_ref()?)));
        live.map(|(doc, entry)| (doc, entry.tokens()))
    }

    /// The term a symbol of this index was interned as: a token or a
    /// normalized value.
    ///
    /// # Panics
    ///
    /// Panics if no insert into this index interned `sym`.
    pub fn term(&self, sym: u32) -> &str {
        self.terms.name(sym)
    }

    /// One row per matching object, in ascending doc-id order: `row` is
    /// handed each object's doc-id — the index into whatever the caller
    /// keeps per object beside the index (the net layer's provider
    /// table) — its id and its shared fields, borrowed from the index.
    /// The rows land in one vector sized to the candidate set, so a
    /// caller can read every candidate before it acts on any.
    pub fn gather_matches<'a, T, F>(&'a self, query: &Query, mut row: F) -> Vec<T>
    where
        F: FnMut(u32, &'a ResourceId, &'a Arc<[(String, String)]>) -> T,
    {
        let docs = self.exec(query);
        let mut rows = Vec::with_capacity(docs.len());
        for &doc in docs.iter() {
            if let Some(entry) = self.entry(doc) {
                rows.push(row(doc, &entry.id, &entry.fields));
            }
        }
        rows
    }

    /// The live entry under a doc-id.
    fn entry(&self, doc: u32) -> Option<&DocEntry> {
        self.docs.get(doc as usize).and_then(Option::as_ref)
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

    /// The one write body: allots a doc-id, the one freed last if any,
    /// and posts the fields under it. Returns the doc-id.
    fn admit<S: TermSource>(&mut self, id: ResourceId, fields: SharedFields, source: S) -> u32 {
        let doc = self.free.pop().unwrap_or_else(|| {
            self.docs.push(None);
            (self.docs.len() - 1) as u32
        });
        self.post(doc, id, fields, source);
        doc
    }

    /// Interns and posts the fields under `doc` with each one's
    /// normalized value and tokens taken from `source`, and stores the
    /// entry with every symbol posted; every list stays sorted.
    fn post<S: TermSource>(&mut self, doc: u32, id: ResourceId, fields: SharedFields, source: S) {
        let mut syms = std::mem::take(&mut self.scratch);
        syms.clear();
        syms.resize(3 * fields.len(), 0);
        for (i, (path, value)) in fields.iter().enumerate() {
            let p = self.intern_path(path);
            let norm = source.norm(i, value);
            let v = self.terms.intern(&norm);
            add_posting(self.exact[p as usize].entry(v).or_default(), doc);
            let (terms, tokens) = (&mut self.terms, &mut self.tokens);
            source.for_each_token(i, value, |token| {
                let t = terms.intern(token);
                add_posting(tokens[p as usize].entry(t).or_default(), doc);
                syms.push(t);
            });
            let end = syms.len() as u32;
            syms[3 * i..3 * i + 3].copy_from_slice(&[p, v, end]);
        }
        let entry = DocEntry { id, fields, syms: Box::from(syms.as_slice()) };
        self.docs[doc as usize] = Some(entry);
        self.scratch = syms;
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
                                e.postings().any(|(p, norm, _)| {
                                    path_syms.contains(&p)
                                        && pattern.matches_normalized(self.terms.name(norm))
                                })
                            })
                        })
                        .map(|(i, _)| i as u32)
                        .collect()
                }
            },
        }
    }
}

/// Where [`DocIndex::post`] gets field `i`'s normalized value and
/// keyword tokens.
trait TermSource {
    fn norm<'a>(&'a self, i: usize, value: &'a str) -> Cow<'a, str>;
    fn for_each_token(&self, i: usize, value: &str, f: impl FnMut(&str));
}

/// Derives both from the raw value; the token visitor allocates no
/// `String` per token, and a value already in normal form is borrowed.
struct Tokenizer;

impl TermSource for Tokenizer {
    fn norm<'a>(&'a self, _: usize, value: &'a str) -> Cow<'a, str> {
        if is_normalized(value) {
            Cow::Borrowed(value)
        } else {
            Cow::Owned(normalize(value))
        }
    }
    fn for_each_token(&self, _: usize, value: &str, f: impl FnMut(&str)) {
        for_each_token(value, f);
    }
}

/// Reads back what [`prepare_fields`] derived, by borrow; never runs
/// the tokenizer. The slice must be as long as the object's field list.
impl TermSource for &[PreparedField] {
    fn norm<'a>(&'a self, i: usize, _: &'a str) -> Cow<'a, str> {
        Cow::Borrowed(&self[i].norm)
    }
    fn for_each_token(&self, i: usize, _: &str, mut f: impl FnMut(&str)) {
        self[i].tokens.iter().for_each(|t| f(t));
    }
}

/// Reads another index's entry of the same fields by symbol name; never
/// runs the tokenizer.
struct OtherIndex<'a> {
    terms: &'a SymbolTable,
    entry: &'a DocEntry,
}

impl TermSource for OtherIndex<'_> {
    fn norm<'a>(&'a self, i: usize, _: &'a str) -> Cow<'a, str> {
        let norm = self.entry.syms.get(3 * i + 1).map_or("", |&v| self.terms.name(v));
        Cow::Borrowed(norm)
    }
    fn for_each_token(&self, i: usize, _: &str, mut f: impl FnMut(&str)) {
        if let Some((_, _, tokens)) = self.entry.postings().nth(i) {
            tokens.iter().for_each(|&t| f(self.terms.name(t)));
        }
    }
}

/// Unposts every symbol `entry` keeps from the lists under `doc`.
fn unpost_entry(
    exact: &mut [HashMap<u32, Vec<u32>>],
    tokens: &mut [HashMap<u32, Vec<u32>>],
    doc: u32,
    entry: &DocEntry,
) {
    for (path, norm, terms) in entry.postings() {
        let path = path as usize;
        unpost(&mut exact[path], norm, doc);
        for &t in terms {
            unpost(&mut tokens[path], t, doc);
        }
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
        ix.insert_shared(
            id(1),
            vec![
                ("pattern/name".into(), "Observer".into()),
                ("pattern/category".into(), "behavioral".into()),
                ("pattern/intent".into(), "notify dependents automatically".into()),
            ]
            .into(),
        );
        ix.insert_shared(
            id(2),
            vec![
                ("pattern/name".into(), "Abstract Factory".into()),
                ("pattern/category".into(), "creational".into()),
                ("pattern/intent".into(), "families of related objects".into()),
            ]
            .into(),
        );
        ix.insert_shared(
            id(3),
            vec![
                ("pattern/name".into(), "Factory Method".into()),
                ("pattern/category".into(), "creational".into()),
                ("pattern/intent".into(), "defer instantiation to subclasses".into()),
            ]
            .into(),
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
        assert_eq!(ix.stats().objects, 2);
        assert!(ix.execute(&Query::any_keyword("families")).is_empty());
        let hits = ix.execute(&Query::any_keyword("factory"));
        assert_eq!(hits, BTreeSet::from([id(3)]));
        // removing twice is a no-op
        ix.remove(&id(2));
        assert_eq!(ix.stats().objects, 2);
    }

    /// Two records share one normalized value, so one symbol: removing
    /// either unposts only its own doc-id from that symbol's list.
    #[test]
    fn removing_one_of_two_equal_values_keeps_the_other_posted() {
        let mut ix = MetadataIndex::new();
        ix.insert_shared(id(1), vec![("o/name".into(), "Abstract  Factory".into())].into());
        ix.insert_shared(id(2), vec![("o/name".into(), "abstract factory".into())].into());
        ix.remove(&id(1));
        assert_eq!(ix.execute(&Query::eq("name", "ABSTRACT factory")), BTreeSet::from([id(2)]));
        let q = Query::Match { field: "name".into(), pattern: ValuePattern::from_wildcard("*t f*") };
        assert_eq!(ix.execute(&q), BTreeSet::from([id(2)]));
        assert_eq!(ix.stats().exact_postings, 1);
        ix.remove(&id(2));
        assert!(ix.execute(&Query::eq("name", "abstract factory")).is_empty());
    }

    #[test]
    fn reinsert_replaces_old_fields() {
        let mut ix = sample();
        ix.insert_shared(id(1), vec![("pattern/name".into(), "Mediator".into())].into());
        assert!(ix.execute(&Query::keyword("name", "observer")).is_empty());
        assert_eq!(ix.execute(&Query::keyword("name", "mediator")), BTreeSet::from([id(1)]));
        assert_eq!(ix.stats().objects, 3);
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
                .doc_ids
                .iter()
                .filter(|&(_, &doc)| q.matches_fields(ix.index.record(doc).unwrap().1))
                .map(|(id, _)| id.clone())
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
            ix.insert_shared(id(n), vec![("o/name".into(), format!("thing{n}"))].into());
        }
        for n in 0..6u8 {
            ix.remove(&id(n));
        }
        let s = ix.stats();
        assert_eq!((s.objects, s.token_postings, s.exact_postings), (0, 0, 0));
        // re-inserting reuses freed slots rather than growing the table
        for n in 0..6u8 {
            ix.insert_shared(id(n), vec![("o/name".into(), format!("item{n}"))].into());
        }
        assert_eq!(ix.index.docs.len(), 6, "slots are recycled, not appended");
        assert_eq!(ix.execute(&Query::keyword("name", "item3")), BTreeSet::from([id(3)]));
    }

    #[test]
    fn a_doc_id_is_stable_until_its_own_remove_and_reused_after() {
        let mut ix = DocIndex::default();
        let named = |n: u8| -> SharedFields { vec![("o/name".to_string(), format!("thing{n}"))].into() };
        let docs: Vec<u32> = (0..4).map(|n| ix.insert(id(n), named(n))).collect();
        assert_eq!(docs, vec![0, 1, 2, 3]);
        let kept = id(2);
        // unrelated removes and inserts leave it where it is
        assert_eq!(ix.remove(0).map(|gone| gone.id().clone()), Some(id(0)));
        assert!(ix.remove(3).is_some());
        let recycled: Vec<u32> = (7..10).map(|n| ix.insert(id(n), named(n))).collect();
        assert_eq!(recycled, vec![3, 0, 4], "the doc-id freed last is allotted first");
        assert_eq!(ix.doc_id(2), kept);
        let visited =
            ix.gather_matches(&Query::keyword("name", "thing2"), |doc, rid, _| (doc, rid.clone()));
        assert_eq!(visited, vec![(2, kept.clone())], "the gather passes the same number");
        // its own remove frees the number, and the next insert is handed it
        let gone = ix.remove(2).expect("live");
        assert_eq!(gone.id(), &kept);
        assert!(ix.remove(2).is_none(), "removing twice returns nothing");
        assert!(ix.record(2).is_none());
        assert_eq!(ix.insert(id(10), named(10)), 2);
        assert_eq!(ix.doc_id(2), id(10));
    }

    #[test]
    fn multi_segment_reference_resolves_all_suffix_paths() {
        let mut ix = MetadataIndex::new();
        ix.insert_shared(id(1), vec![("a/b/c".into(), "deep".into())].into());
        ix.insert_shared(id(2), vec![("b/c".into(), "shallow".into())].into());
        ix.insert_shared(id(3), vec![("x/c".into(), "other".into())].into());
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
        // the index holds the same allocation, not a copy: candidate
        // iteration surfaces it, and composes with an external predicate
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

    /// What an index holds, by name: per `(path, term)` the ids of its
    /// token postings and of its exact-value postings (empty lists
    /// included, so a list left behind empty shows), and its live ids.
    type View = (
        BTreeMap<(String, String), BTreeSet<ResourceId>>,
        BTreeMap<(String, String), BTreeSet<ResourceId>>,
        BTreeSet<ResourceId>,
    );

    fn view(ix: &DocIndex) -> View {
        let lists = |maps: &[HashMap<u32, Vec<u32>>]| {
            let mut out = BTreeMap::new();
            for (p, map) in maps.iter().enumerate() {
                for (&term, docs) in map {
                    let ids = docs.iter().map(|&d| ix.doc_id(d)).collect();
                    let path = ix.paths.name(p as u32).to_string();
                    out.insert((path, ix.term(term).to_string()), ids);
                }
            }
            out
        };
        let live = ix.doc_tokens().map(|(doc, _)| ix.doc_id(doc)).collect();
        (lists(&ix.tokens), lists(&ix.exact), live)
    }

    impl DocIndex {
        /// The id under a live doc-id.
        fn doc_id(&self, doc: u32) -> ResourceId {
            self.record(doc).map(|(id, _)| id.clone()).expect("a posted doc-id is live")
        }
    }

    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// Values with repeated words, case and spacing to normalize, and
    /// words whose lowercase moves a token boundary or is longer.
    fn value() -> impl Strategy<Value = String> {
        const WORDS: &[&str] =
            &["blue", "Blue", "BLUE  blue", "İstanbul", "Été", "straße", "a", "x-1", "  "];
        proptest::collection::vec(0..WORDS.len(), 0..4)
            .prop_map(|picks| picks.iter().map(|&i| WORDS[i]).collect::<Vec<_>>().join(" "))
    }

    /// One to three fields, two of which may share a path.
    fn fields() -> impl Strategy<Value = Vec<(String, String)>> {
        let path = prop_oneof![Just("o/name"), Just("o/tag"), Just("p/name")];
        proptest::collection::vec((path, value()), 1..4)
            .prop_map(|f| f.into_iter().map(|(p, v)| (p.to_string(), v)).collect())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Removal replays the symbols an entry keeps: after a tape of
        /// inserts, re-inserts of a live id and removals, every token
        /// list, exact list and live id is what an index given only the
        /// surviving records holds, each surviving id's doc-id holds that
        /// id, and each live entry's token symbols name the tokenizer's
        /// stream of its values.
        #[test]
        fn removal_by_symbols_leaves_what_an_index_never_given_the_record_holds(
            tape in proptest::collection::vec((0u8..6, any::<bool>(), fields()), 1..24),
        ) {
            let mut ix = MetadataIndex::new();
            let mut live: BTreeMap<ResourceId, SharedFields> = BTreeMap::new();
            for (n, remove, f) in tape {
                let rid = id(n);
                if remove {
                    prop_assert_eq!(ix.remove(&rid).is_some(), live.remove(&rid).is_some());
                } else {
                    let f: SharedFields = f.into();
                    live.insert(rid.clone(), SharedFields::clone(&f));
                    ix.insert_shared(rid, f);
                }
            }
            let mut fresh = MetadataIndex::new();
            for (rid, f) in &live {
                fresh.insert_shared(rid.clone(), SharedFields::clone(f));
            }
            prop_assert_eq!(view(&ix.index), view(&fresh.index));
            prop_assert_eq!(ix.doc_ids.len(), live.len());
            for (rid, f) in &live {
                let doc = ix.doc_ids[rid];
                prop_assert_eq!(&ix.index.doc_id(doc), rid);
                let ix = &ix.index;
                let held: Vec<&str> = ix.tokens_of(doc).iter().map(|&t| ix.term(t)).collect();
                let mut stream = Vec::new();
                for (_, v) in f.iter() {
                    for_each_token(v, |t| stream.push(t.to_string()));
                }
                prop_assert_eq!(held, stream);
            }
        }
    }
}
