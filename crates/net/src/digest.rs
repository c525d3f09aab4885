//! Routing digests for guided (digest-pruned) search.
//!
//! Blind TTL flooding asks every reachable peer: ~900 messages per query
//! on the `search_flood` workload's 2k-peer overlay. The guided-search
//! literature (EGSP's guided protocol, ATLAAS-P2P's discovery layer,
//! attenuated Bloom filters in general) recovers near-flooding recall at
//! a fraction of the cost by giving each peer a compact, conservative
//! summary of what is reachable *through* each neighbor, and forwarding
//! a query only toward neighbors whose summary plausibly matches.
//!
//! This module provides that layer for the simulated substrates:
//!
//! * [`RoutingDigest`] — a Bloom-filter bitset over `(community, term)`
//!   pairs. A record contributes its community marker and, per field,
//!   the normalized exact value and the keyword tokens — the terms the
//!   store's index posts it under (`for_each_record_entry` is the one
//!   place that enumerates them, for the routing digests and for the
//!   per-peer term summary of [`crate::FloodingNetwork`] alike). Digests hash term
//!   *strings*, not symbol ids: interner symbols are private to each
//!   index, strings are the wire-stable identity. A query is compiled
//!   once into a [`Probe`] — every hash it needs — and asked of as many
//!   digests as there are.
//! * [`RouteTable`] — the per-directed-edge *attenuated* digest table: for
//!   the edge `q → p`, layer `d` summarizes everything reachable from `p`
//!   through `q` within `d` hops. Layers are monotone
//!   (`layer d ⊇ layer d-1`), so the first matching layer gives a
//!   conservative minimum depth toward a match. Kept current by deltas:
//!   counted local digests follow each record in and out, and a refresh
//!   recomputes only the layers, edges and words a write reached.
//! * [`DigestConfig`] — the knobs: layer count (radius), bits per layer,
//!   guided fanout and the width of the random-walk fallback.
//!
//! The digest answers "may a match exist behind this neighbor?" — never
//! "does one exist". False positives only cost messages; false negatives
//! are impossible for fresh digests because every query predicate is
//! mapped to a *weaker* digest predicate (see [`RoutingDigest::may_match`]).
//! Hits themselves always come from real [`IndexNode`] evaluation at the
//! visited peer, so a stale digest can waste messages but can never
//! resurrect an unpublished record (property-tested).

use crate::index_node::IndexNode;
use crate::topology::Topology;
use up2p_store::{for_each_token, is_normalized, normalize, Query, ValuePattern};

/// Tuning knobs for the routing-digest layer. `enabled: false` (the
/// default) keeps every substrate byte-for-byte on its blind-flooding
/// behavior; experiments opt in explicitly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DigestConfig {
    /// Consult digests to prune forwarding (guided search).
    pub enabled: bool,
    /// Attenuation radius: number of layers kept per directed edge
    /// (layer `d` covers the subtree within `d` hops).
    pub radius: u8,
    /// log2 of the bit width of each layer (15 → 32,768 bits = 4 KiB).
    pub log2_bits: u8,
    /// Maximum neighbors a guided query is forwarded to per hop.
    pub fanout: usize,
    /// Random walkers spawned at the origin when no neighbor digest
    /// matches (mid-path dead ends continue as a single walker).
    pub walk_width: usize,
}

impl Default for DigestConfig {
    fn default() -> Self {
        DigestConfig { enabled: false, radius: 5, log2_bits: 15, fanout: 2, walk_width: 2 }
    }
}

impl DigestConfig {
    /// Guided search with the default sizing (radius 5, 4 KiB layers,
    /// fanout 2, two fallback walkers).
    pub fn guided() -> DigestConfig {
        DigestConfig { enabled: true, ..DigestConfig::default() }
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// splitmix64 finalizer: spreads the FNV accumulator over all 64 bits so
/// the two Bloom probes (low word, high word) are independent.
fn mix(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// What a share table hands each of its records to, as
/// `(community, fields)` — see [`RouteTable::refresh`].
pub type RecordVisitor<'a> = dyn FnMut(&str, &[(String, String)]) + 'a;

/// FNV state after the community name and the separator that keeps
/// `("ab","c")` apart from `("a","bc")`; every entry hash of the
/// community continues from here.
pub(crate) fn community_scope(community: &str) -> u64 {
    fnv1a(fnv1a(FNV_OFFSET, community.as_bytes()), &[0xff])
}

/// Hash of a digest entry of the community whose [`community_scope`] is
/// `scope`: `None` marks the community as present, `Some(t)` marks one
/// term of that community. The community is folded in so the same word
/// in two communities sets different bits (community scoping survives
/// digest compression).
pub(crate) fn entry_hash(scope: u64, term: Option<&str>) -> u64 {
    mix(term.map_or(scope, |t| fnv1a(scope, t.as_bytes())))
}

/// The digest vocabulary of one record, as entry hashes: the community
/// marker, then each field's normalized value and keyword tokens —
/// exactly the terms the store's index posts the record under. An entry
/// is visited once per occurrence (a token two fields share is visited
/// twice), so replaying the same record takes out of the occurrence
/// counts precisely what it put in.
pub(crate) fn for_each_record_entry(
    community: &str,
    fields: &[(String, String)],
    mut f: impl FnMut(u64),
) {
    let scope = community_scope(community);
    f(entry_hash(scope, None));
    let mut entry = |term: &str| f(entry_hash(scope, Some(term)));
    for (_, value) in fields {
        if is_normalized(value) {
            entry(value);
        } else {
            entry(&normalize(value));
        }
        for_each_token(value, &mut entry);
    }
}

/// 64-bit words of a digest of `1 << log2_bits` bits (minimum one word).
fn words_for(log2_bits: u8) -> usize {
    1usize << log2_bits.clamp(6, 30).saturating_sub(6)
}

/// The two Bloom probes (double hashing) of an entry hash in a table of
/// `bits` bits, a power of two.
fn probes(bits: u64, h: u64) -> [usize; 2] {
    let mask = bits - 1;
    let h2 = (h >> 32) | 1; // odd stride: visits every bit of a pow-2 table
    [(h & mask) as usize, (h.wrapping_add(h2) & mask) as usize]
}

/// Sets the bits of one entry hash in the words of a digest (a
/// power-of-two number of them).
pub(crate) fn insert(words: &mut [u64], h: u64) {
    for bit in probes(words.len() as u64 * 64, h) {
        words[bit / 64] |= 1u64 << (bit % 64);
    }
}

fn contains(words: &[u64], h: u64) -> bool {
    probes(words.len() as u64 * 64, h).into_iter().all(|bit| words[bit / 64] >> (bit % 64) & 1 == 1)
}

/// A query compiled against one community for asking digests: the
/// community marker's hash and the query's `And`/`Or`/term tree with
/// every entry hash taken once. Whoever asks many digests the same
/// question — a flood visiting hundreds of peers, a forwarding decision
/// reading up to `radius` layers of every neighbor — builds one probe and
/// hashes no string again. [`Probe::may_match`] is the one definition of
/// the conservative predicate; [`RoutingDigest::may_match`] documents it.
#[derive(Debug, Clone)]
pub struct Probe {
    community: u64,
    terms: Terms,
}

/// What a [`Probe`] asks of a digest beyond community presence.
#[derive(Debug, Clone)]
enum Terms {
    /// Nothing a digest can check term-wise (`All`, `Not`, wildcard and
    /// `Present` patterns): community presence alone decides.
    Any,
    /// The entry hash of a keyword or of a normalized exact value.
    Term(u64),
    And(Vec<Terms>),
    Or(Vec<Terms>),
}

impl Terms {
    fn of(scope: u64, query: &Query) -> Terms {
        let term = |t: &str| Terms::Term(entry_hash(scope, Some(t)));
        match query {
            Query::And(qs) => Terms::And(qs.iter().map(|q| Terms::of(scope, q)).collect()),
            Query::Or(qs) => Terms::Or(qs.iter().map(|q| Terms::of(scope, q)).collect()),
            Query::Keyword { word, .. } => term(word),
            Query::Match { pattern: ValuePattern::Exact(value), .. } => term(value),
            Query::All | Query::Not(_) | Query::Match { .. } => Terms::Any,
        }
    }

    fn plausible(&self, words: &[u64]) -> bool {
        match self {
            Terms::Any => true,
            Terms::Term(h) => contains(words, *h),
            Terms::And(ts) => ts.iter().all(|t| t.plausible(words)),
            Terms::Or(ts) => ts.iter().any(|t| t.plausible(words)),
        }
    }
}

impl Probe {
    /// Compiles `query` as asked within `community`.
    pub fn new(community: &str, query: &Query) -> Probe {
        let scope = community_scope(community);
        Probe { community: entry_hash(scope, None), terms: Terms::of(scope, query) }
    }

    /// [`RoutingDigest::may_match`] over the words of one digest (a
    /// power-of-two number of them).
    pub fn may_match(&self, words: &[u64]) -> bool {
        contains(words, self.community) && self.terms.plausible(words)
    }
}

/// A Bloom-filter bitset over `(community, term)` hashes. Two probes per
/// entry (double hashing); the bit width is fixed at construction and
/// must match for unions and layer comparisons.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoutingDigest {
    words: Box<[u64]>,
}

impl RoutingDigest {
    /// Creates an empty digest of `1 << log2_bits` bits (minimum 64).
    pub fn new(log2_bits: u8) -> RoutingDigest {
        RoutingDigest { words: vec![0u64; words_for(log2_bits)].into_boxed_slice() }
    }

    /// Bit capacity (always a power of two).
    pub fn bit_len(&self) -> u64 {
        self.words.len() as u64 * 64
    }

    /// Number of set bits — the fill level experiments report.
    pub fn ones(&self) -> u64 {
        self.words.iter().map(|w| w.count_ones() as u64).sum()
    }

    /// Sets the bits for one entry hash.
    pub fn insert(&mut self, h: u64) {
        insert(&mut self.words, h);
    }

    /// May the entry be present? (No false negatives.)
    pub fn contains(&self, h: u64) -> bool {
        contains(&self.words, h)
    }

    /// Folds one record into the digest: the community presence bit plus
    /// every indexed term of its fields.
    pub fn add_record(&mut self, community: &str, fields: &[(String, String)]) {
        for_each_record_entry(community, fields, |h| self.insert(h));
    }

    /// Folds one node's share table into the digest, record by record.
    pub fn add_node(&mut self, node: &IndexNode) {
        node.for_each_record(|community, fields| self.add_record(community, fields));
    }

    /// Conservative query evaluation: `true` whenever *any* record
    /// matching `query` in `community` could sit behind this digest.
    ///
    /// Every query form maps to a predicate at least as weak as its real
    /// index semantics, so a fresh digest never yields a false negative:
    ///
    /// * `Keyword` → the token's term bit (field restrictions ignored),
    /// * `Match` with an `Exact` pattern → the normalized value's term
    ///   bit (exact patterns are pre-normalized by the query builders),
    /// * `And` → all branches plausible, `Or` → any branch plausible
    ///   (an empty `Or` matches nothing, exactly like the evaluator),
    /// * everything else (`All`, `Not`, wildcard/`Present` patterns) →
    ///   community presence alone.
    pub fn may_match(&self, community: &str, query: &Query) -> bool {
        Probe::new(community, query).may_match(&self.words)
    }
}

/// The directed edges of one topology in CSR form: the edge `q → p`
/// (advertiser `q`, receiver `p`) has a dense id, `q`'s out-edges are one
/// contiguous run sorted by receiver, and every edge knows its opposite
/// direction. That is all the layer recurrence needs: the upstream edges
/// of `q → p` are the reverses of `q`'s other out-edges, and the edges
/// depending on `r → q` are `q`'s out-edges other than `q → r`.
#[derive(Debug, Default)]
struct EdgeIndex {
    /// Advertiser `q`'s out-edges are the ids `offsets[q]..offsets[q+1]`.
    offsets: Vec<u32>,
    /// Receiver of each edge, ascending within an advertiser's run.
    receivers: Vec<u32>,
    /// Id of the opposite direction of each edge.
    reverse: Vec<u32>,
    /// [`Topology::fingerprint`] of the graph this was taken from.
    fingerprint: u64,
}

impl EdgeIndex {
    fn of(topo: &Topology) -> EdgeIndex {
        let mut offsets = Vec::with_capacity(topo.len() + 1);
        let mut receivers = Vec::new();
        offsets.push(0);
        for q in topo.peers() {
            receivers.extend(topo.neighbors(q).map(|p| p.0));
            offsets.push(receivers.len() as u32);
        }
        let mut index =
            EdgeIndex { offsets, receivers, reverse: Vec::new(), fingerprint: topo.fingerprint() };
        let reverse = (0..index.nodes() as u32)
            .flat_map(|q| index.run(q).map(move |e| (q, e)))
            // the graph is undirected, so the opposite direction exists
            .map(|(q, e)| index.id(index.receivers[e], q).unwrap_or(e) as u32)
            .collect();
        index.reverse = reverse;
        index
    }

    fn nodes(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    fn len(&self) -> usize {
        self.receivers.len()
    }

    /// Ids of `advertiser`'s out-edges (empty for an unknown node).
    fn run(&self, advertiser: u32) -> std::ops::Range<usize> {
        let at = |i: usize| self.offsets.get(i).map_or(self.len(), |&o| o as usize);
        at(advertiser as usize)..at(advertiser as usize + 1)
    }

    fn id(&self, advertiser: u32, receiver: u32) -> Option<usize> {
        let run = self.run(advertiser);
        self.receivers[run.clone()].binary_search(&receiver).ok().map(|i| run.start + i)
    }

    fn advertiser(&self, edge: usize) -> u32 {
        self.receivers[self.reverse[edge] as usize]
    }
}

/// Per-directed-edge attenuated digest table for one overlay.
///
/// For each directed edge `q → p` the table holds `radius` monotone
/// layers: layer 1 is `q`'s own share table; layer `d` additionally
/// unions layer `d-1` of every edge `r → q` with `r ≠ p` — everything
/// reachable from `p` through `q` in at most `d` hops (echoes around
/// cycles only ever *add* bits, keeping the no-false-negative direction).
/// All layers live in one `[edge][layer][word]` arena laid out from the
/// topology on the first build.
///
/// Maintenance is lazy and batched, as a real servent would piggyback
/// digest refreshes on its keep-alives, and costs what changed, not what
/// exists:
///
/// * the substrate reports every record entering or leaving a node's
///   share table ([`RouteTable::record_added`] /
///   [`RouteTable::record_removed`]). A node written since the build
///   keeps per-bit occurrence counts (a counting Bloom filter), so its
///   own digest follows each record without looking at the others;
/// * the next guided search triggers [`RouteTable::refresh`], which
///   pushes the changed words outward one layer at a time: layer `d` of
///   an edge is recomputed only when layer `d-1` of the edge itself or of
///   an upstream edge changed, and an edge whose recomputed layer equals
///   the stored one ends the wave there;
/// * the refresh reports how many `DigestRequest`/`DigestPush` messages
///   the exchange cost (one push per directed edge whose advertisement
///   actually changed).
///
/// Peer death/revival deliberately does *not* dirty anything — digests
/// go stale under churn, and the random-walk fallback plus real per-peer
/// evaluation keep that safe.
#[derive(Debug)]
pub struct RouteTable {
    config: DigestConfig,
    /// 64-bit words per layer and layers per edge, from `config`.
    words: usize,
    depth: usize,
    edges: EdgeIndex,
    /// `[edge][layer][word]`; layer index `d-1` covers depth `d`.
    layers: Vec<u64>,
    /// `[node][word]`: each node's digest of its own share table.
    local: Vec<u64>,
    /// Per-bit occurrence counts of the nodes written since the build
    /// (`None`: never written, or recounted from its records at the next
    /// refresh).
    counts: Vec<Option<Box<[u32]>>>,
    /// Nodes whose share table changed since the last refresh.
    dirty: Vec<u32>,
    is_dirty: Vec<bool>,
    /// Words of some `local` digest a write since the last refresh may
    /// have changed; nothing outside them can differ in any layer.
    touched: Vec<bool>,
    wave: Wave,
    built: bool,
}

/// The refresh wave's working lists, kept between refreshes so that a
/// refresh allocates nothing.
#[derive(Debug, Default)]
struct Wave {
    /// Indices of the touched words.
    touched_words: Vec<usize>,
    /// Edges whose layer below the one being computed changed.
    frontier: Vec<usize>,
    /// The frontier plus its dependent edges, each once.
    candidates: Vec<usize>,
    is_candidate: Vec<bool>,
    /// Edges with any changed layer: one `DigestPush` each.
    pushed: Vec<usize>,
    is_pushed: Vec<bool>,
    /// One layer's touched words, gathered before they are compared.
    gather: Vec<u64>,
}

/// Appends `edge` to `list` unless its flag says it is already there.
fn push_once(list: &mut Vec<usize>, listed: &mut [bool], edge: usize) {
    if !std::mem::replace(&mut listed[edge], true) {
        list.push(edge);
    }
}

impl RouteTable {
    /// Creates an empty table; nothing is allocated until the first
    /// [`RouteTable::refresh`].
    pub fn new(config: DigestConfig) -> RouteTable {
        RouteTable {
            config,
            words: words_for(config.log2_bits),
            depth: config.radius.max(1) as usize,
            edges: EdgeIndex::default(),
            layers: Vec::new(),
            local: Vec::new(),
            counts: Vec::new(),
            dirty: Vec::new(),
            is_dirty: Vec::new(),
            touched: Vec::new(),
            wave: Wave::default(),
            built: false,
        }
    }

    /// The configuration the table was built with.
    pub fn config(&self) -> DigestConfig {
        self.config
    }

    /// Does the next guided search need a refresh first?
    pub fn needs_refresh(&self) -> bool {
        !self.built || !self.dirty.is_empty()
    }

    /// A record entered `node`'s share table (first provider in).
    pub fn record_added(&mut self, node: u32, community: &str, fields: &[(String, String)]) {
        self.record_delta(node, community, fields, true);
    }

    /// A record left `node`'s share table (last provider out). `fields`
    /// are the ones it was stored under.
    pub fn record_removed(&mut self, node: u32, community: &str, fields: &[(String, String)]) {
        self.record_delta(node, community, fields, false);
    }

    fn record_delta(
        &mut self,
        node: u32,
        community: &str,
        fields: &[(String, String)],
        entering: bool,
    ) {
        // before the build there is nothing to keep current: the first
        // refresh reads every record
        let Some(counts) = self.counts.get_mut(node as usize) else { return };
        if !std::mem::replace(&mut self.is_dirty[node as usize], true) {
            self.dirty.push(node);
        }
        // the first write since the build: counted from the node's
        // records at the refresh
        let Some(count_of) = counts.as_deref_mut() else { return };
        let own = &mut self.local[node as usize * self.words..][..self.words];
        let touched = &mut self.touched;
        let mut exact = true;
        for_each_record_entry(community, fields, |h| {
            for bit in probes(own.len() as u64 * 64, h) {
                let count = &mut count_of[bit];
                let stepped = if entering { count.checked_add(1) } else { count.checked_sub(1) };
                let Some(stepped) = stepped else {
                    exact = false;
                    continue;
                };
                *count = stepped;
                let (word, flag) = (bit / 64, 1u64 << (bit % 64));
                if (stepped == 0) == (own[word] & flag != 0) {
                    own[word] ^= flag;
                    touched[word] = true;
                }
            }
        });
        if !exact {
            // a count left its integer range (or a record left that never
            // entered): recount this node from its records instead
            *counts = None;
        }
    }

    /// Brings the attenuated layers up to date with the share tables
    /// across `topo`. `records_of(node, visit)` must call `visit` with
    /// the `(community, fields)` of every record in `node`'s share table;
    /// it is asked for every node on the first build and afterwards only
    /// for a node's first write since. Returns `(requests, pushes)`:
    /// `DigestRequest` messages (one per directed edge, first exchange
    /// only) and `DigestPush` messages (one per directed edge whose
    /// advertised layers changed).
    pub fn refresh<F>(&mut self, topo: &Topology, mut records_of: F) -> (u64, u64)
    where
        F: FnMut(u32, &mut RecordVisitor<'_>),
    {
        if !self.built || self.edges.nodes() != topo.len() {
            // the first exchange: every node's digest from its records
            let n = topo.len();
            self.local = vec![0; n * self.words];
            self.counts = std::iter::repeat_with(|| None).take(n).collect();
            self.is_dirty = vec![false; n];
            self.touched = vec![false; self.words];
            self.wave.gather = vec![0; self.words];
            for node in 0..n as u32 {
                let own = &mut self.local[node as usize * self.words..][..self.words];
                records_of(node, &mut |community, fields| {
                    for_each_record_entry(community, fields, |h| insert(own, h));
                });
            }
            self.built = true;
            self.lay_out(topo);
            self.propagate();
            let directed = self.edges.len() as u64;
            return (directed, directed);
        }
        for i in 0..self.dirty.len() {
            let node = self.dirty[i];
            if self.counts[node as usize].is_none() {
                self.recount(node, &mut records_of);
            }
        }
        if self.edges.fingerprint == topo.fingerprint() {
            return (0, self.propagate());
        }
        // same nodes, other links: rebuild the arena for them, and an
        // advertisement changed when it differs from what the same
        // directed edge carried before
        let (old_edges, old_layers) = self.lay_out(topo);
        self.propagate();
        let stride = self.depth * self.words;
        let changed = (0..topo.len() as u32)
            .flat_map(|q| self.edges.run(q).map(move |e| (q, e)))
            .filter(|&(q, e)| {
                let before = old_edges.id(q, self.edges.receivers[e]);
                before.map(|o| &old_layers[o * stride..][..stride])
                    != Some(&self.layers[e * stride..][..stride])
            })
            .count();
        (0, changed as u64)
    }

    /// Lays a zeroed arena out for `topo` and returns the one it
    /// replaces. All zeros is the fixpoint of an overlay sharing nothing:
    /// starting there, every node is a change, in every word, for the
    /// next [`RouteTable::propagate`].
    fn lay_out(&mut self, topo: &Topology) -> (EdgeIndex, Vec<u64>) {
        let edges = std::mem::replace(&mut self.edges, EdgeIndex::of(topo));
        let arena = vec![0; self.edges.len() * self.depth * self.words];
        self.wave.is_candidate = vec![false; self.edges.len()];
        self.wave.is_pushed = vec![false; self.edges.len()];
        // a wave lists an edge at most once per list: sized once with the
        // arena, the three never grow (DESIGN.md §3e)
        for list in [&mut self.wave.frontier, &mut self.wave.candidates, &mut self.wave.pushed] {
            list.clear();
            list.reserve_exact(self.edges.len());
        }
        self.touched.fill(true);
        self.dirty.clear();
        self.dirty.extend(0..topo.len() as u32);
        (edges, std::mem::replace(&mut self.layers, arena))
    }

    /// Counts `node`'s share table from its records: the first write
    /// since the build, or counts that went out of range.
    fn recount<F>(&mut self, node: u32, records_of: &mut F)
    where
        F: FnMut(u32, &mut RecordVisitor<'_>),
    {
        let words = self.words;
        let mut count_of = vec![0u32; words * 64].into_boxed_slice();
        let fresh = &mut self.wave.gather[..words];
        fresh.fill(0);
        let mut exact = true;
        records_of(node, &mut |community, fields| {
            for_each_record_entry(community, fields, |h| {
                insert(fresh, h);
                for bit in probes(words as u64 * 64, h) {
                    match count_of[bit].checked_add(1) {
                        Some(count) => count_of[bit] = count,
                        None => exact = false,
                    }
                }
            });
        });
        let own = &mut self.local[node as usize * words..][..words];
        for (i, (old, new)) in own.iter_mut().zip(fresh.iter()).enumerate() {
            self.touched[i] |= *old != *new;
            *old = *new;
        }
        // counts that cannot be held exactly are not kept at all: the
        // node is recounted at every refresh that follows a write to it
        self.counts[node as usize] = exact.then_some(count_of);
    }

    /// The delta wave: copies the dirty nodes' digests into layer 1 of
    /// their out-edges, then recomputes layer `d` of exactly the edges
    /// whose own or upstream layer `d-1` changed, comparing against the
    /// stored layer — only in the touched words, the only ones that can
    /// differ. Returns the number of edges with any changed layer and
    /// leaves nothing dirty.
    fn propagate(&mut self) -> u64 {
        let RouteTable { words, depth, edges, layers, local, dirty, is_dirty, touched, wave, .. } =
            self;
        let (words, stride) = (*words, *depth * *words);
        let Wave {
            touched_words: at,
            frontier,
            candidates,
            is_candidate,
            pushed,
            is_pushed,
            gather,
        } = wave;
        at.clear();
        at.extend((0..words).filter(|&i| std::mem::take(&mut touched[i])));
        frontier.clear();
        for node in dirty.drain(..) {
            is_dirty[node as usize] = false;
            let own = &local[node as usize * words..][..words];
            for e in edges.run(node) {
                let layer = &mut layers[e * stride..][..words];
                let mut changed = false;
                for &i in at.iter() {
                    changed |= layer[i] != own[i];
                    layer[i] = own[i];
                }
                if changed {
                    frontier.push(e);
                    push_once(pushed, is_pushed, e);
                }
            }
        }
        for d in 1..*depth {
            for &e in frontier.iter() {
                push_once(candidates, is_candidate, e);
                for c in edges.run(edges.receivers[e]).filter(|&f| f != edges.reverse[e] as usize) {
                    push_once(candidates, is_candidate, c);
                }
            }
            frontier.clear();
            let below = (d - 1) * words;
            for c in candidates.drain(..) {
                is_candidate[c] = false;
                // layer d = layer d-1 ∪ upstream layer d-1; every read
                // is of the finished layer below
                let gather = &mut gather[..at.len()];
                for (g, &i) in gather.iter_mut().zip(at.iter()) {
                    *g = layers[c * stride + below + i];
                }
                for f in edges.run(edges.advertiser(c)).filter(|&f| f != c) {
                    let upstream = edges.reverse[f] as usize * stride + below;
                    for (g, &i) in gather.iter_mut().zip(at.iter()) {
                        *g |= layers[upstream + i];
                    }
                }
                let layer = &mut layers[c * stride + below + words..][..words];
                let mut changed = false;
                for (&g, &i) in gather.iter().zip(at.iter()) {
                    changed |= layer[i] != g;
                    layer[i] = g;
                }
                if changed {
                    frontier.push(c);
                    push_once(pushed, is_pushed, c);
                }
            }
        }
        let pushes = pushed.len() as u64;
        for e in pushed.drain(..) {
            is_pushed[e] = false;
        }
        pushes
    }

    /// Minimum plausible depth of a match for `probe`'s query behind the
    /// edge `advertiser → receiver`: the 1-based index of the first layer
    /// whose digest may match, probing at most `min(max_depth, radius)`
    /// layers. `None` means "no match within reach through that
    /// neighbor" (or the edge is unknown).
    pub fn min_depth(
        &self,
        advertiser: u32,
        receiver: u32,
        probe: &Probe,
        max_depth: u8,
    ) -> Option<u8> {
        let edge = self.edges.id(advertiser, receiver)?;
        let cap = max_depth.min(self.config.radius) as usize;
        self.layers[edge * self.depth * self.words..]
            .chunks_exact(self.words)
            .take(cap.min(self.depth))
            .position(|layer| probe.may_match(layer))
            .map(|i| i as u8 + 1)
    }

    /// The words of layer `depth` (1-based) of the edge
    /// `advertiser → receiver`, as of the last refresh.
    pub fn layer(&self, advertiser: u32, receiver: u32, depth: u8) -> Option<&[u64]> {
        let edge = self.edges.id(advertiser, receiver)?;
        let d = (depth as usize).checked_sub(1).filter(|&d| d < self.depth)?;
        Some(&self.layers[(edge * self.depth + d) * self.words..][..self.words])
    }

    /// Bytes the table holds: the layer arena, the edge index, the local
    /// digests, and a count array for each node written since the build.
    pub fn approx_bytes(&self) -> u64 {
        let counted = self.counts.iter().flatten().count();
        let edge_index = self.edges.offsets.len() + 2 * self.edges.len();
        ((self.layers.len() + self.local.len()) * 8
            + edge_index * 4
            + counted * self.words * 64 * 4) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::ResourceRecord;
    use crate::peer::PeerId;
    use proptest::collection::vec as pvec;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::HashMap;

    impl RoutingDigest {
        /// ORs `other` into `self`, returning whether any bit changed.
        /// Only the full-recompute reference below unions whole digests.
        ///
        /// # Panics
        ///
        /// Panics when the two digests have different bit widths.
        fn union_with(&mut self, other: &RoutingDigest) -> bool {
            assert_eq!(self.words.len(), other.words.len(), "digest width mismatch");
            let mut changed = false;
            for (w, o) in self.words.iter_mut().zip(other.words.iter()) {
                let merged = *w | o;
                changed |= merged != *w;
                *w = merged;
            }
            changed
        }
    }

    fn record(key: &str, community: &str, value: &str) -> ResourceRecord {
        ResourceRecord::new(key, community, vec![("o/name".to_string(), value.to_string())])
    }

    fn node_with(entries: &[(&str, &str, &str)]) -> IndexNode {
        let mut node = IndexNode::new();
        for (i, (community, field, value)) in entries.iter().enumerate() {
            node.insert(
                PeerId(0),
                &ResourceRecord::new(
                    format!("k{i}"),
                    *community,
                    vec![(field.to_string(), value.to_string())],
                ),
            );
        }
        node
    }

    fn line(n: u32) -> Topology {
        let mut topo = Topology::empty(n as usize);
        for i in 1..n {
            topo.connect(PeerId(i - 1), PeerId(i));
        }
        topo
    }

    fn small(log2_bits: u8) -> DigestConfig {
        DigestConfig { log2_bits, ..DigestConfig::guided() }
    }

    /// [`entry_hash`] from the community's name, hashed anew at every call.
    fn term_hash(community: &str, term: Option<&str>) -> u64 {
        entry_hash(community_scope(community), term)
    }

    /// The string-hashing walk [`Probe::may_match`] used to be — community
    /// name and every term re-hashed at each digest asked — kept as the
    /// oracle for the compiled probe.
    fn reference_may_match(words: &[u64], community: &str, query: &Query) -> bool {
        contains(words, term_hash(community, None)) && terms_plausible(words, community, query)
    }

    fn terms_plausible(words: &[u64], community: &str, query: &Query) -> bool {
        match query {
            Query::All | Query::Not(_) | Query::Match { pattern: ValuePattern::Prefix(_), .. }
            | Query::Match { pattern: ValuePattern::Suffix(_), .. }
            | Query::Match { pattern: ValuePattern::Contains(_), .. }
            | Query::Match { pattern: ValuePattern::Present, .. } => true,
            Query::And(qs) => qs.iter().all(|q| terms_plausible(words, community, q)),
            Query::Or(qs) => qs.iter().any(|q| terms_plausible(words, community, q)),
            Query::Keyword { word, .. } => contains(words, term_hash(community, Some(word))),
            Query::Match { pattern: ValuePattern::Exact(value), .. } => {
                contains(words, term_hash(community, Some(value)))
            }
        }
    }

    const PROBE_COMMUNITIES: [&str; 2] = ["alpha", "beta"];

    fn probe_term() -> impl Strategy<Value = &'static str> + Clone {
        prop_oneof![
            Just("apple"),
            Just("banana"),
            Just("observer"),
            Just("observer pattern"),
            Just("err"),
            Just("missing"),
        ]
    }

    /// Queries of every form a digest is asked, over a vocabulary small
    /// enough for a random digest to hold some terms and lack others.
    fn probe_query() -> impl Strategy<Value = Query> {
        let field = prop_oneof![Just("name"), Just("o/tag"), Just("absent/field")];
        let term = probe_term();
        let pattern = |p: fn(String) -> ValuePattern| {
            (field.clone(), term.clone())
                .prop_map(move |(f, t)| Query::Match { field: f.into(), pattern: p(t.into()) })
        };
        let leaf = prop_oneof![
            Just(Query::All),
            term.clone().prop_map(Query::any_keyword),
            (field.clone(), term.clone()).prop_map(|(f, t)| Query::keyword(f, t)),
            (field.clone(), term.clone()).prop_map(|(f, t)| Query::eq(f, t)),
            pattern(ValuePattern::Prefix),
            pattern(ValuePattern::Suffix),
            pattern(ValuePattern::Contains),
            field
                .clone()
                .prop_map(|f| Query::Match { field: f.into(), pattern: ValuePattern::Present }),
        ];
        leaf.prop_recursive(3, 16, 3, |inner| {
            prop_oneof![
                pvec(inner.clone(), 0..4).prop_map(Query::And),
                pvec(inner.clone(), 0..4).prop_map(Query::Or),
                inner.prop_map(|q| Query::Not(Box::new(q))),
            ]
        })
    }

    proptest! {
        /// The compiled probe is the predicate it replaced: over digests
        /// of every width the substrates run, filled with a random subset
        /// of the vocabulary (and of the other community's, and with
        /// stray bits), it answers what the string-hashing walk answers.
        /// Bit-identical guided routing rests on this.
        #[test]
        fn probe_is_may_match(
            log2_bits in 6u8..13,
            held in pvec((0..PROBE_COMMUNITIES.len(), any::<bool>(), probe_term()), 0..10),
            stray in pvec(any::<u64>(), 0..24),
            query in probe_query(),
        ) {
            let mut digest = RoutingDigest::new(log2_bits);
            for (community, marker, term) in held {
                let term = if marker { None } else { Some(term) };
                digest.insert(term_hash(PROBE_COMMUNITIES[community], term));
            }
            for h in stray {
                digest.insert(h);
            }
            for community in PROBE_COMMUNITIES {
                let expected = reference_may_match(&digest.words, community, &query);
                prop_assert_eq!(
                    Probe::new(community, &query).may_match(&digest.words),
                    expected,
                    "{} in {} over {} bits", query, community, digest.bit_len()
                );
                prop_assert_eq!(digest.may_match(community, &query), expected);
            }
        }
    }

    /// The full recompute [`RouteTable::refresh`] used to be, kept as the
    /// oracle for the delta wave: every local digest from its node's
    /// whole share table, every layer of every edge by clone and union.
    #[derive(Default)]
    struct Reference {
        edges: HashMap<(u32, u32), Vec<RoutingDigest>>,
        built: bool,
    }

    impl Reference {
        fn refresh(
            &mut self,
            config: DigestConfig,
            topo: &Topology,
            nodes: &[IndexNode],
        ) -> (u64, u64) {
            let n = topo.len() as u32;
            let first = !self.built;
            let local: Vec<RoutingDigest> = nodes
                .iter()
                .map(|node| {
                    let mut d = RoutingDigest::new(config.log2_bits);
                    d.add_node(node);
                    d
                })
                .collect();
            self.built = true;

            // layer 1: each advertiser's own digest
            let mut edges: HashMap<(u32, u32), Vec<RoutingDigest>> = HashMap::new();
            let mut keys: Vec<(u32, u32)> = Vec::new();
            for p in 0..n {
                for q in topo.neighbors(PeerId(p)) {
                    keys.push((q.0, p));
                }
            }
            for &(q, p) in &keys {
                edges.insert((q, p), vec![local[q as usize].clone()]);
            }
            // layer d = layer d-1 ∪ neighbors' layer d-1 (monotone closure);
            // pushes are deferred so every read this round sees layer d-1
            for _ in 1..config.radius.max(1) {
                let mut next: Vec<RoutingDigest> = Vec::with_capacity(keys.len());
                for &(q, p) in &keys {
                    let mut layer = edges[&(q, p)].last().unwrap().clone();
                    for r in topo.neighbors(PeerId(q)) {
                        if r.0 != p {
                            layer.union_with(edges[&(r.0, q)].last().unwrap());
                        }
                    }
                    next.push(layer);
                }
                for (key, layer) in keys.iter().zip(next) {
                    edges.get_mut(key).unwrap().push(layer);
                }
            }

            let requests = if first { keys.len() as u64 } else { 0 };
            let pushes = keys
                .iter()
                .filter(|key| first || self.edges.get(key) != edges.get(key))
                .count() as u64;
            self.edges = edges;
            (requests, pushes)
        }
    }

    /// An overlay of share tables with the delta-maintained table and the
    /// reference side by side; every refresh checks one against the other.
    struct World {
        config: DigestConfig,
        topo: Topology,
        nodes: Vec<IndexNode>,
        table: RouteTable,
        reference: Reference,
    }

    impl World {
        fn new(config: DigestConfig, topo: Topology) -> World {
            let nodes = (0..topo.len()).map(|_| IndexNode::new()).collect();
            let (table, reference) = (RouteTable::new(config), Reference::default());
            World { config, topo, nodes, table, reference }
        }

        fn insert(&mut self, at: u32, provider: u32, record: &ResourceRecord) {
            let node = &mut self.nodes[at as usize];
            if node.insert(PeerId(provider), record) {
                self.table.record_added(at, &record.community, &record.fields);
            }
        }

        fn upsert(&mut self, at: u32, provider: u32, record: &ResourceRecord) {
            let node = &mut self.nodes[at as usize];
            if let Some((slot, fields)) = node.upsert_slot(PeerId(provider), record) {
                self.table.record_removed(at, node.community_name(slot), &fields);
            }
            self.table.record_added(at, &record.community, &record.fields);
        }

        fn remove(&mut self, at: u32, provider: u32, key: &str) {
            let node = &mut self.nodes[at as usize];
            if let Some((slot, fields)) = node.remove_slot(PeerId(provider), key) {
                self.table.record_removed(at, node.community_name(slot), &fields);
            }
        }

        /// Refreshes both sides and holds the table to the reference:
        /// the message counts, and every layer of every directed edge.
        fn refresh(&mut self) -> (u64, u64) {
            let nodes = &self.nodes;
            let got = self
                .table
                .refresh(&self.topo, |p, visit| nodes[p as usize].for_each_record(visit));
            let expected = self.reference.refresh(self.config, &self.topo, nodes);
            assert_eq!(got, expected, "(requests, pushes)");
            assert!(!self.table.needs_refresh());
            for (&(q, p), layers) in &self.reference.edges {
                for (d, layer) in layers.iter().enumerate() {
                    assert_eq!(
                        self.table.layer(q, p, d as u8 + 1),
                        Some(&*layer.words),
                        "layer {} of {q} → {p}",
                        d + 1
                    );
                }
                assert_eq!(self.table.layer(q, p, layers.len() as u8 + 1), None);
            }
            got
        }

        /// Does `at`'s own advertisement (layer 1 toward `toward`) carry
        /// the entry?
        fn advertises(&self, at: u32, toward: u32, community: &str, term: Option<&str>) -> bool {
            let layer = self.table.layer(at, toward, 1).expect("edge exists");
            contains(layer, term_hash(community, term))
        }
    }

    #[test]
    fn insert_contains_no_false_negatives() {
        let mut d = RoutingDigest::new(10);
        let entries: Vec<u64> =
            (0..200).map(|i| term_hash("c", Some(&format!("term{i}")))).collect();
        for &h in &entries {
            d.insert(h);
        }
        assert!(entries.iter().all(|&h| d.contains(h)), "bloom filters never false-negative");
        assert!(d.ones() > 0 && d.ones() <= 400);
    }

    #[test]
    fn union_is_monotone_and_reports_change() {
        let mut a = RoutingDigest::new(8);
        let mut b = RoutingDigest::new(8);
        a.insert(term_hash("c", Some("apple")));
        b.insert(term_hash("c", Some("banana")));
        assert!(a.union_with(&b), "new bits arrived");
        assert!(!a.union_with(&b), "idempotent");
        assert!(a.contains(term_hash("c", Some("apple"))));
        assert!(a.contains(term_hash("c", Some("banana"))));
    }

    #[test]
    #[should_panic(expected = "digest width mismatch")]
    fn union_rejects_width_mismatch() {
        let mut a = RoutingDigest::new(8);
        a.union_with(&RoutingDigest::new(9));
    }

    #[test]
    fn may_match_is_weaker_than_real_evaluation() {
        let node = node_with(&[
            ("songs", "track/title", "Abstract Factory Blues"),
            ("songs", "track/genre", "jazz"),
            ("patterns", "pattern/name", "Observer"),
        ]);
        let mut d = RoutingDigest::new(12);
        d.add_node(&node);
        // everything the node can answer is plausible
        assert!(d.may_match("songs", &Query::any_keyword("factory")));
        assert!(d.may_match("songs", &Query::eq("track/genre", "jazz")));
        assert!(d.may_match("patterns", &Query::keyword("name", "observer")));
        assert!(d.may_match("songs", &Query::All));
        assert!(d.may_match(
            "songs",
            &Query::and([Query::eq("track/genre", "jazz"), Query::any_keyword("blues")])
        ));
        // normalized multi-word exact values are digest terms too
        assert!(d.may_match("songs", &Query::eq("track/title", "abstract factory blues")));
        // absent community / absent conjunct prune (true negatives)
        assert!(!d.may_match("videos", &Query::All));
        assert!(!d.may_match(
            "songs",
            &Query::and([Query::eq("track/genre", "jazz"), Query::any_keyword("zzzunseen")])
        ));
        // an empty Or matches nothing, like the evaluator
        assert!(!d.may_match("songs", &Query::Or(Vec::new())));
        // wildcard patterns cannot be checked term-wise: community bit only
        assert!(d.may_match(
            "songs",
            &Query::Match { field: "track/title".into(), pattern: ValuePattern::Prefix("abs".into()) }
        ));
    }

    #[test]
    fn digest_tracks_unpublish_on_rebuild() {
        let mut node = node_with(&[("c", "o/name", "ephemeral")]);
        let mut before = RoutingDigest::new(12);
        before.add_node(&node);
        assert!(before.may_match("c", &Query::any_keyword("ephemeral")));
        node.remove_slot(PeerId(0), "k0");
        let mut after = RoutingDigest::new(12);
        after.add_node(&node);
        assert!(!after.may_match("c", &Query::any_keyword("ephemeral")));
        assert!(!after.may_match("c", &Query::All), "empty community drops its bit");
    }

    #[test]
    fn record_entries_hash_like_term_hash() {
        let fields = vec![("o/name".to_string(), "  Observer   Pattern ".to_string())];
        let mut got = Vec::new();
        for_each_record_entry("patterns", &fields, |h| got.push(h));
        let expected = [None, Some("observer pattern"), Some("observer"), Some("pattern")]
            .map(|term| term_hash("patterns", term));
        assert_eq!(got, expected);
    }

    #[test]
    fn route_table_layers_give_min_depth_on_a_line() {
        // 0 - 1 - 2 - 3: a record at 3 must appear at depth 3 behind the
        // edge 1 → 0, depth 2 behind 2 → 1, depth 1 behind 3 → 2
        let mut world = World::new(small(12), line(4));
        world.insert(3, 3, &record("k", "c", "needle"));
        let (requests, pushes) = world.refresh();
        assert_eq!(requests, 6, "one request per directed edge");
        assert_eq!(pushes, 6, "first exchange pushes every edge");
        let table = &world.table;
        let q = Query::any_keyword("needle");
        assert_eq!(table.min_depth(1, 0, &Probe::new("c", &q), 7), Some(3));
        assert_eq!(table.min_depth(2, 1, &Probe::new("c", &q), 7), Some(2));
        assert_eq!(table.min_depth(3, 2, &Probe::new("c", &q), 7), Some(1));
        // looking back toward the empty side finds nothing
        assert_eq!(table.min_depth(0, 1, &Probe::new("c", &q), 7), None);
        // a ttl too small to reach the record prunes the probe
        assert_eq!(table.min_depth(1, 0, &Probe::new("c", &q), 2), None);
        // neither a non-edge nor an unknown node is an advertiser
        assert_eq!(table.min_depth(0, 2, &Probe::new("c", &q), 7), None);
        assert_eq!(table.min_depth(9, 0, &Probe::new("c", &q), 7), None);
    }

    #[test]
    fn refresh_pushes_only_changed_advertisements() {
        let mut world = World::new(small(12), line(3));
        world.refresh();
        // a write that leaves the share table as it was → no pushes, no
        // requests
        world.insert(0, 0, &record("gone", "c", "transient"));
        world.remove(0, 0, "gone");
        assert!(world.table.needs_refresh());
        assert_eq!(world.refresh(), (0, 0));
        // a publish at 0 changes 0's advertisement to 1 and (through the
        // attenuated layers) 1's advertisement to 2 — but not the edges
        // pointing back toward 0
        world.insert(0, 0, &record("k", "c", "fresh"));
        let (requests, pushes) = world.refresh();
        assert_eq!(requests, 0);
        assert_eq!(pushes, 2, "0→1 and 1→2 changed; 1→0 and 2→1 did not");
        assert_eq!(
            world.table.min_depth(1, 2, &Probe::new("c", &Query::any_keyword("fresh")), 7),
            Some(2),
            "the new record is visible two hops away after the refresh"
        );
    }

    #[test]
    fn the_wave_stops_where_the_union_is_saturated() {
        // 0 - 1 - 2 - 3 - 4 with the same record at 0 and at 2: what 0
        // adds is already in every layer ≥ 2 that 2's copy reaches
        let mut world = World::new(small(12), line(5));
        world.upsert(2, 2, &record("k", "c", "needle"));
        world.refresh();
        world.upsert(0, 0, &record("k", "c", "needle"));
        let (_, pushes) = world.refresh();
        // 0→1 (all layers) and 1→2 (layer 2 up) change; 2→3 already
        // carried the bits in layer 1, so nothing travels further
        assert_eq!(pushes, 2);
    }

    #[test]
    fn delta_refresh_equals_full_recompute_on_random_histories() {
        const VALUES: [&str; 5] =
            ["apple", "banana split", "Observer Pattern", "factory", "errant banana"];
        for seed in 0..48u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let n = rng.gen_range(3..12usize);
            let degree = rng.gen_range(1..3usize);
            let config = DigestConfig {
                radius: rng.gen_range(0..5),
                log2_bits: rng.gen_range(6..10),
                ..DigestConfig::guided()
            };
            let mut world = World::new(config, Topology::small_world(n, degree, 0.3, seed));
            // the flat overlay upserts into the provider's own table; the
            // two-tier one inserts first-record-wins into a shared table
            let flat = seed % 2 == 0;
            for _ in 0..rng.gen_range(20..120) {
                let at = rng.gen_range(0..n as u32);
                let provider = if flat { at } else { rng.gen_range(0..4u32) };
                let key = format!("k{}", rng.gen_range(0..10u32));
                match rng.gen_range(0..10u32) {
                    0..=4 => {
                        let fields: Vec<(String, String)> = (0..rng.gen_range(0..3u32))
                            .map(|i| (format!("o/f{i}"), VALUES[rng.gen_range(0..5usize)].into()))
                            .collect();
                        let community = ["alpha", "beta"][rng.gen_range(0..2usize)];
                        let record = ResourceRecord::new(key, community, fields);
                        if flat {
                            world.upsert(at, provider, &record);
                        } else {
                            world.insert(at, provider, &record);
                        }
                    }
                    5..=7 => world.remove(at, provider, &key),
                    _ => {
                        world.refresh();
                    }
                }
            }
            world.refresh();
        }
    }

    #[test]
    fn a_rewired_topology_is_rebuilt_not_trusted() {
        // 0 - 1 - 2 - 3 with the record at 3
        let mut world = World::new(small(10), line(4));
        world.insert(3, 3, &record("k", "c", "needle"));
        world.refresh();
        // move 3 from behind 2 to behind 0: same node and edge counts
        world.topo.disconnect(PeerId(2), PeerId(3));
        world.topo.connect(PeerId(0), PeerId(3));
        world.insert(1, 1, &record("k1", "c", "other"));
        let (requests, pushes) = world.refresh();
        assert_eq!(requests, 0);
        assert!(pushes > 0);
        let nodes = &world.nodes;
        let mut fresh = RouteTable::new(world.config);
        fresh.refresh(&world.topo, |p, visit| nodes[p as usize].for_each_record(visit));
        let q = Query::any_keyword("needle");
        for a in 0..4 {
            for b in 0..4 {
                assert_eq!(
                    world.table.min_depth(a, b, &Probe::new("c", &q), 7),
                    fresh.min_depth(a, b, &Probe::new("c", &q), 7),
                    "{a} → {b}"
                );
            }
        }
        assert_eq!(world.table.min_depth(3, 0, &Probe::new("c", &q), 7), Some(1));
        let probe = Probe::new("c", &q);
        assert_eq!(world.table.min_depth(3, 2, &probe, 7), None, "the old edge is gone");
        // and the rebuilt arena keeps following deltas
        world.remove(3, 3, "k");
        world.refresh();
        assert_eq!(world.table.min_depth(3, 0, &Probe::new("c", &q), 7), None);
    }

    #[test]
    fn shared_token_survives_until_its_last_record_leaves() {
        let mut world = World::new(small(12), line(2));
        world.refresh();
        world.insert(0, 0, &record("a", "c", "shared alpha"));
        world.insert(0, 0, &record("b", "c", "shared beta"));
        world.refresh();
        assert!(world.advertises(0, 1, "c", Some("shared")));
        world.remove(0, 0, "a");
        world.refresh();
        assert!(world.advertises(0, 1, "c", Some("shared")), "b still carries the token");
        assert!(!world.advertises(0, 1, "c", Some("alpha")));
        world.remove(0, 0, "b");
        world.refresh();
        assert!(!world.advertises(0, 1, "c", Some("shared")));
    }

    #[test]
    fn colliding_terms_share_a_counted_bit() {
        // at 64 bits two distinct terms soon share a probe: find a pair
        // with one bit in common and one each of their own
        let bits_of = |t: &str| probes(64, term_hash("c", Some(t)));
        let terms: Vec<String> = (0..400).map(|i| format!("t{i}")).collect();
        let (a, b, common) = terms
            .iter()
            .flat_map(|a| terms.iter().map(move |b| (a, b)))
            .find_map(|(a, b)| {
                let (pa, pb) = (bits_of(a), bits_of(b));
                let common = pa.into_iter().find(|bit| pb.contains(bit))?;
                (pa != pb && pa[0] != pa[1] && pb[0] != pb[1]).then_some((a, b, common))
            })
            .expect("some pair collides in 64 bits");
        let mut world = World::new(small(6), line(2));
        world.refresh();
        // no community marker or exact value in the way: bare tokens of
        // a one-word value hash the same as the value, so each term is
        // entered twice and leaves twice
        world.insert(0, 0, &record("a", "c", a));
        world.insert(0, 0, &record("b", "c", b));
        world.refresh();
        let bit_set = |world: &World| {
            let layer = world.table.layer(0, 1, 1).expect("edge exists");
            layer[common / 64] >> (common % 64) & 1 == 1
        };
        assert!(bit_set(&world));
        world.remove(0, 0, "a");
        world.refresh();
        assert!(bit_set(&world), "the bit {common} still belongs to {b}");
        assert!(world.advertises(0, 1, "c", Some(b)));
    }

    #[test]
    fn last_record_of_a_community_clears_its_marker() {
        let mut world = World::new(small(12), line(2));
        world.refresh();
        world.insert(0, 0, &record("a", "songs", "jazz"));
        world.insert(0, 0, &record("b", "songs", "blues"));
        world.insert(0, 0, &record("c", "patterns", "observer"));
        world.refresh();
        world.remove(0, 0, "a");
        world.refresh();
        assert!(world.advertises(0, 1, "songs", None));
        world.remove(0, 0, "b");
        world.refresh();
        assert!(!world.advertises(0, 1, "songs", None));
        assert!(world.advertises(0, 1, "patterns", None));
        assert_eq!(world.table.min_depth(0, 1, &Probe::new("songs", &Query::All), 7), None);
    }

    #[test]
    fn counts_out_of_range_are_recounted_not_saturated() {
        let mut world = World::new(small(8), line(2));
        world.refresh();
        world.insert(0, 0, &record("a", "c", "needle"));
        world.refresh();
        // one more occurrence than the count type holds
        let bit = probes(256, term_hash("c", Some("needle")))[0];
        world.table.counts[0].as_mut().expect("written node keeps counts")[bit] = u32::MAX;
        world.insert(0, 0, &record("b", "c", "needle"));
        assert!(world.table.counts[0].is_none(), "inexact counts are dropped");
        world.refresh();
        // two records, each entering "needle" as its value and as its token
        assert_eq!(world.table.counts[0].as_ref().expect("recounted")[bit], 4);
        world.remove(0, 0, "a");
        world.remove(0, 0, "b");
        world.refresh();
        assert!(!world.advertises(0, 1, "c", Some("needle")), "exact again: both left");
        // a record leaving that the counts never saw enter
        world.table.record_removed(0, "c", &[("o/name".to_string(), "phantom".to_string())]);
        assert!(world.table.counts[0].is_none());
        world.refresh();
    }

    #[test]
    fn only_written_nodes_own_counts() {
        let mut world = World::new(small(10), line(3));
        // writes before the build are part of the build, not deltas
        world.insert(1, 1, &record("pre", "c", "early"));
        world.refresh();
        let built = world.table.approx_bytes();
        assert!(world.table.counts.iter().all(Option::is_none));
        world.insert(2, 2, &record("k", "c", "late"));
        world.refresh();
        let one_array = 1024 * std::mem::size_of::<u32>() as u64;
        assert_eq!(world.table.approx_bytes(), built + one_array);
        world.remove(2, 2, "k");
        world.insert(2, 2, &record("k2", "c", "later"));
        world.refresh();
        assert_eq!(world.table.approx_bytes(), built + one_array, "allocated once per node");
        assert!(world.table.counts[0].is_none() && world.table.counts[1].is_none());
        // a table that is never refreshed holds nothing
        let mut idle = RouteTable::new(DigestConfig::guided());
        idle.record_added(0, "c", &[]);
        assert_eq!(idle.approx_bytes(), 0);
        assert!(idle.needs_refresh(), "only because it was never built");
    }
}
