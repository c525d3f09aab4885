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
//! * The digest — a Bloom-filter bitset over `(community, term)` pairs,
//!   the format [`RouteTable`] keeps per node. The vocabulary is tokens:
//!   a record contributes its community marker and, per field, the
//!   keyword tokens the store's index posts it under, and a query's
//!   `Exact` pattern is asked as the `And` of its own tokens. A whole
//!   value is no term: nearly unique per record, it would fill the deep
//!   layers for one query form alone
//!   (`for_each_record_entry` is the one definition of a record's
//!   entries, for the routing digests and for the per-peer term
//!   summaries, stored bit-sliced, and record [`Signature`]s of the
//!   Gnutella [`crate::RecordArena`] alike; an [`crate::IndexNode`]
//!   reads the same entries off the term symbols its index keeps).
//!   Digests hash term *strings*, not symbol ids: interner symbols are
//!   private to each index, strings are the wire-stable identity. A
//!   query is compiled once into a [`Probe`] — every hash it needs — and
//!   asked of as many digests as there are.
//! * [`RouteTable`] — the per-directed-edge *attenuated* digest table: for
//!   the edge `q → p`, layer `d` summarizes everything reachable from `p`
//!   through `q` within `d` hops. Layers are monotone
//!   (`layer d ⊇ layer d-1`), so the first matching layer gives a
//!   conservative minimum depth toward a match, and each Bloom bit needs
//!   only its first depth: three bit-planes an edge hold it as a code,
//!   from which any layer decodes. Kept current by deltas: counted local
//!   digests follow each record in and out, and a refresh recomputes
//!   only the layers, edges and words a write reached. Its edges are the
//!   [`Topology`]'s own: the table keeps no graph of its own, only the
//!   planes, each edge's at the slot of its reverse, so that what a node
//!   hears from its neighbours is its own run.
//! * [`DigestConfig`] — the knobs: whether to guide at all, and the bits
//!   per layer. The radius (5 layers) is a constant here, the guided
//!   fanout (2, on a layer sparse enough to believe) and the fallback's
//!   walker width (2) in the overlay walk.
//!
//! [`RoutingDigest`] is one digest as a plain bitset. No route runs
//! through it: it is the reference the table's layers and the compiled
//! probes are tested against.
//!
//! The digest answers "may a match exist behind this neighbor?" — never
//! "does one exist". False positives only cost messages; false negatives
//! are impossible for fresh digests because every query predicate is
//! mapped to a *weaker* digest predicate (see [`RoutingDigest::may_match`]).
//! Hits themselves always come from real evaluation at the visited peer
//! ([`crate::IndexNode`], [`crate::RecordArena`]), so a stale digest can
//! waste messages but can never resurrect an unpublished record
//! (property-tested).

use crate::topology::Topology;
use up2p_store::{for_each_token, normalize, Query, ValuePattern};

/// Tuning knobs for the routing-digest layer. `enabled: false` (the
/// default) keeps every substrate byte-for-byte on its blind-flooding
/// behavior; experiments opt in explicitly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DigestConfig {
    /// Consult digests to prune forwarding (guided search).
    pub enabled: bool,
    /// log2 of the bit width of each layer (15 → 32,768 bits = 4 KiB).
    pub log2_bits: u8,
}

impl Default for DigestConfig {
    fn default() -> Self {
        DigestConfig { enabled: false, log2_bits: 15 }
    }
}

impl DigestConfig {
    /// Guided search with the default sizing: 4 KiB layers, five of them
    /// per directed edge, fanout 2 and two fallback walkers.
    pub fn guided() -> DigestConfig {
        DigestConfig { enabled: true, ..DigestConfig::default() }
    }
}

/// Attenuation radius: the layers kept per directed edge (layer `d`
/// covers the subtree within `d` hops).
const RADIUS: usize = 5;

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

/// What a record's digest entries are handed to, one entry hash at a
/// time — see [`RouteTable::refresh`].
pub type EntryVisitor<'a> = dyn FnMut(u64) + 'a;

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
/// marker, then each field's keyword tokens — the terms the store's
/// index posts the record under as keywords. A whole value is no entry:
/// an `Exact` pattern is asked by its tokens ([`Probe::new`]), which a
/// value equal to it carries. Lowercasing can move a token boundary in
/// a non-ASCII value (`İ` lowercases to `i` and a combining dot, which
/// is no letter), so such a value also enters the tokens of its
/// normalized form, the form an `Exact` pattern is compared with. An
/// entry is visited once per occurrence (a token two fields share is
/// visited twice), so replaying the same record takes out of the
/// occurrence counts precisely what it put in. An [`crate::IndexNode`]
/// reads the same entries off the symbols its index keeps
/// ([`crate::Entries`]); this is the definition they are tested against.
#[inline]
pub(crate) fn for_each_record_entry(
    community: &str,
    fields: &[(String, String)],
    mut f: impl FnMut(u64),
) {
    let scope = community_scope(community);
    f(entry_hash(scope, None));
    let mut entry = |term: &str| f(entry_hash(scope, Some(term)));
    for (_, value) in fields {
        for_each_token(value, &mut entry);
        if !value.is_ascii() {
            for_each_token(&normalize(value), &mut entry);
        }
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
    probes(words.len() as u64 * 64, h).into_iter().all(|bit| contains_bit(words, bit))
}

/// Is bit `bit` of a digest's `words` set?
fn contains_bit(words: &[u64], bit: usize) -> bool {
    words[bit / 64] >> (bit % 64) & 1 == 1
}

/// 64-bit words of one record's signature: 128 bits, a constant. A
/// record's community marker and tokens are six-odd distinct entries,
/// two bits each, so a signature is about a tenth full and admits a
/// term its record lacks ~1 % of the time; an `And` of two such terms
/// far less. One word would admit ~3 %. At 16 bytes a record,
/// 100 000 records cost 1.6 MB.
pub const SIGNATURE_WORDS: usize = 2;

/// One record's own digest: what a flooded peer asks before it verifies
/// that record ([`Probe::admits`]).
pub type Signature = [u64; SIGNATURE_WORDS];

/// The record's [`Signature`], with each of its entry hashes handed to
/// `entry` on the way (the Gnutella arena sets its peer's term-summary
/// bits from them): one enumeration of the entries serves both.
pub fn sign_record(
    community: &str,
    fields: &[(String, String)],
    mut entry: impl FnMut(u64),
) -> Signature {
    let mut signature = [0; SIGNATURE_WORDS];
    for_each_record_entry(community, fields, |h| {
        entry(h);
        insert(&mut signature, h);
    });
    signature
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
    /// When the query has no `Or`, the predicate is one conjunction of
    /// entries, the community marker's and every term's: their hashes,
    /// and the bits a [`Signature`] must hold to pass.
    conjunction: Option<(Box<[u64]>, Signature)>,
}

/// What a [`Probe`] asks of a digest beyond community presence.
#[derive(Debug, Clone)]
enum Terms {
    /// Nothing a digest can check term-wise (`All`, `Not`, wildcard and
    /// `Present` patterns): community presence alone decides.
    Any,
    /// The entry hash of one token: a keyword, or one of an exact
    /// value's.
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
            Query::Match { pattern: ValuePattern::Exact(value), .. } => {
                let mut tokens = Vec::new();
                for_each_token(value, |t| tokens.push(term(t)));
                Terms::And(tokens)
            }
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

    /// Folds into `out` the digests of `slices` for which
    /// [`Terms::plausible`] holds: ANDs them in, or ORs them in when `or`.
    /// A branch of the same connective folds straight into `out`; one of
    /// the other is evaluated on its own first.
    fn fold_sliced(&self, slices: &Slices, out: &mut [u64], or: bool) {
        match self {
            Terms::Any if or => out.fill(!0),
            Terms::Any => {}
            Terms::Term(h) => slices.fold(*h, out, or),
            Terms::And(ts) if !or => ts.iter().for_each(|t| t.fold_sliced(slices, out, false)),
            Terms::Or(ts) if or => ts.iter().for_each(|t| t.fold_sliced(slices, out, true)),
            Terms::And(ts) | Terms::Or(ts) => {
                // an `And` under an `Or` starts from every digest, an `Or`
                // under an `And` from none
                let mut own = vec![if or { !0 } else { 0 }; out.len()];
                ts.iter().for_each(|t| t.fold_sliced(slices, &mut own, !or));
                fold(out, own.into_iter(), or);
            }
        }
    }

    /// Appends to `entries` every entry [`Terms::plausible`] requires;
    /// `false` when an `Or` leaves a choice that no one list says.
    fn require(&self, entries: &mut Vec<u64>) -> bool {
        match self {
            Terms::Any => true,
            Terms::Term(h) => {
                entries.push(*h);
                true
            }
            Terms::And(ts) => ts.iter().all(|t| t.require(entries)),
            Terms::Or(_) => false,
        }
    }

    /// The smallest depth code ([`RouteTable`]) that
    /// [`Terms::plausible`] needs of a route table's bits, `code(bit)`
    /// each in a table of `bits` bits: it holds in layer `d` exactly when
    /// the result is at least `7 − d`. [`ANY`] when nothing is needed.
    fn code(&self, bits: u64, code: &impl Fn(usize) -> u8) -> u8 {
        match self {
            Terms::Any => ANY,
            Terms::Term(h) => {
                let [a, b] = probes(bits, *h).map(code);
                a.min(b)
            }
            Terms::And(ts) => ts.iter().map(|t| t.code(bits, code)).min().unwrap_or(ANY),
            Terms::Or(ts) => ts.iter().map(|t| t.code(bits, code)).max().unwrap_or(NONE),
        }
    }
}

impl Probe {
    /// Compiles `query` as asked within `community`.
    pub fn new(community: &str, query: &Query) -> Probe {
        let scope = community_scope(community);
        let (community, terms) = (entry_hash(scope, None), Terms::of(scope, query));
        let mut entries = vec![community];
        let conjunction = terms.require(&mut entries).then(|| {
            let mut required = [0; SIGNATURE_WORDS];
            entries.iter().for_each(|&h| insert(&mut required, h));
            (entries.into_boxed_slice(), required)
        });
        Probe { community, terms, conjunction }
    }

    /// [`RoutingDigest::may_match`] over the words of one digest (a
    /// power-of-two number of them).
    pub fn may_match(&self, words: &[u64]) -> bool {
        contains(words, self.community) && self.terms.plausible(words)
    }

    /// [`Probe::may_match`] asked of every digest of `slices` at once:
    /// sets `out` to the digests that may match, one bit each, reading
    /// only the two rows of each entry the probe names.
    pub(crate) fn may_match_sliced(&self, slices: &Slices, out: &mut Vec<u64>) {
        out.clear();
        out.resize(slices.words, !0);
        slices.fold(self.community, out, false);
        self.terms.fold_sliced(slices, out, false);
    }

    /// [`Probe::may_match`] over one record's signature: two word tests
    /// against the mask compiled with the probe, or the predicate itself
    /// when the query holds an `Or`.
    pub fn admits(&self, signature: &Signature) -> bool {
        match &self.conjunction {
            Some((_, mask)) => signature.iter().zip(mask).all(|(s, m)| s & m == *m),
            None => self.may_match(signature),
        }
    }

    /// The smallest depth code among the bits [`Probe::may_match`] needs
    /// of a route table of `bits` bits, `code(bit)` each: the probe may
    /// match layer `d` exactly when the result is at least `7 − d`
    /// ([`RouteTable`]). A conjunction reads its bits in one flat pass and
    /// stops at the first below `floor`, a code too deep to matter; a
    /// probe with an `Or` walks its term tree.
    fn code(&self, bits: u64, floor: u8, code: impl Fn(usize) -> u8) -> u8 {
        let Some((entries, _)) = &self.conjunction else {
            return Terms::Term(self.community).code(bits, &code).min(self.terms.code(bits, &code));
        };
        let mut least = ANY;
        for bit in entries.iter().flat_map(|&h| probes(bits, h)) {
            least = least.min(code(bit));
            if least < floor {
                break;
            }
        }
        least
    }
}

/// Many digests of one width stored bit-sliced, as bit-sliced signature
/// files (Faloutsos & Christodoulakis) and BitFunnel store Bloom filters:
/// row `b` holds bit `b` of every digest, digest `i` at bit `i % 64` of
/// the row's word `i / 64`. A probe reads the two rows of each entry it
/// names once for all the digests ([`Probe::may_match_sliced`]); digest
/// `i` is the column of its bits.
#[derive(Debug, Default)]
pub(crate) struct Slices {
    /// Row `b` is the `words` words from `b * words`.
    rows: Vec<u64>,
    /// 64-bit words of one row: `ceil(digests / 64)`.
    words: usize,
    /// Bits of one digest, a power of two: the number of rows.
    bits: usize,
}

impl Slices {
    /// `digests` empty digests of `digest_words` words each.
    pub(crate) fn new(digests: usize, digest_words: usize) -> Slices {
        let (words, bits) = (digests.div_ceil(64), digest_words * 64);
        Slices { rows: vec![0; bits * words], words, bits }
    }

    /// Where digest `i`'s bit `bit` sits: the word's index and the bit's
    /// mask.
    fn cell(&self, bit: usize, i: usize) -> (usize, u64) {
        (bit * self.words + i / 64, 1 << (i % 64))
    }

    /// Sets entry `h`'s bits in digest `i`.
    pub(crate) fn insert(&mut self, i: usize, h: u64) {
        for bit in probes(self.bits as u64, h) {
            let (word, mask) = self.cell(bit, i);
            self.rows[word] |= mask;
        }
    }

    /// Clears entry `h`'s bits from digest `i`, except those `kept`, a
    /// digest of the same width, sets.
    pub(crate) fn remove(&mut self, i: usize, h: u64, kept: &[u64]) {
        for bit in probes(self.bits as u64, h) {
            if !contains_bit(kept, bit) {
                let (word, mask) = self.cell(bit, i);
                self.rows[word] &= !mask;
            }
        }
    }

    /// Bytes of the rows.
    pub(crate) fn bytes(&self) -> usize {
        std::mem::size_of_val(self.rows.as_slice())
    }

    /// Folds into `out` the digests holding entry `h`: the AND of its two
    /// rows, ANDed into `out` or, when `or`, ORed in.
    fn fold(&self, h: u64, out: &mut [u64], or: bool) {
        let row = |bit: usize| &self.rows[bit * self.words..][..self.words];
        let [a, b] = probes(self.bits as u64, h).map(row);
        fold(out, a.iter().zip(b).map(|(a, b)| a & b), or);
    }
}

/// ANDs `set` into `out` word by word, or ORs it in when `or`.
fn fold(out: &mut [u64], set: impl Iterator<Item = u64>, or: bool) {
    for (o, s) in out.iter_mut().zip(set) {
        if or {
            *o |= s;
        } else {
            *o &= s;
        }
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

    /// Conservative query evaluation: `true` whenever *any* record
    /// matching `query` in `community` could sit behind this digest.
    ///
    /// Every query form maps to a predicate at least as weak as its real
    /// index semantics, so a fresh digest never yields a false negative:
    ///
    /// * `Keyword` → the token's term bit (field restrictions ignored),
    /// * `Match` with an `Exact` pattern → the term bits of all its
    ///   tokens (exact patterns are pre-normalized by the query builders,
    ///   and a value equal to one carries its tokens; a pattern with no
    ///   token is community presence alone),
    /// * `And` → all branches plausible, `Or` → any branch plausible
    ///   (an empty `Or` matches nothing, exactly like the evaluator),
    /// * everything else (`All`, `Not`, wildcard/`Present` patterns) →
    ///   community presence alone.
    pub fn may_match(&self, community: &str, query: &Query) -> bool {
        Probe::new(community, query).may_match(&self.words)
    }
}

/// Bit-planes a directed edge keeps: three bits hold a Bloom bit's depth
/// code, one of the six states of its first depth (1 to [`RADIUS`], or
/// none).
const PLANES: usize = 3;

/// The depth code of a Bloom bit whose first layer is `depth`:
/// `7 − depth`, so a shallower bit has a larger code, and 0 ([`NONE`])
/// past the radius, so a zeroed arena is the empty table. Layer `d` is the
/// bits whose code is at least `7 − d`.
fn code(depth: usize) -> u8 {
    if depth > RADIUS {
        NONE
    } else {
        7 - depth as u8
    }
}

/// The code of a bit in no layer.
const NONE: u8 = 0;

/// Above every depth code: what a probe that needs no bit asks.
const ANY: u8 = 7;

/// Layer `depth` of the words at one index of an edge's planes, plane 0
/// first: the bits whose code is at least `7 − depth`, three terms at
/// most.
fn decode([p0, p1, p2]: [u64; PLANES], depth: usize) -> u64 {
    match depth {
        1 => p2 & p1,
        2 => p2 & (p1 | p0),
        3 => p2,
        4 => p2 | (p1 & p0),
        _ => p2 | p1,
    }
}

/// Gives the bits of `mask` the code of first depth `depth` in the words
/// at one index of an edge's planes.
fn paint(words: &mut [u64; PLANES], mask: u64, depth: usize) {
    let code = code(depth);
    for (k, w) in words.iter_mut().enumerate() {
        if code >> k & 1 == 1 {
            *w |= mask;
        } else {
            *w &= !mask;
        }
    }
}

/// The words at index `i` of an edge's planes, `planes` the edge's
/// `[plane][word]` block.
fn at(planes: &[u64], i: usize) -> [u64; PLANES] {
    let words = planes.len() / PLANES;
    [planes[i], planes[words + i], planes[2 * words + i]]
}

/// Stores `words` at index `i` of an edge's planes.
fn put(planes: &mut [u64], i: usize, words: [u64; PLANES]) {
    let plane = planes.len() / PLANES;
    for (k, w) in words.into_iter().enumerate() {
        planes[k * plane + i] = w;
    }
}

/// The arena slot of edge `e`, `q → p`: the id of its reverse `p → q`,
/// `p`'s out-edge toward `q`. Everything `p`'s neighbours advertise to
/// `p` then lies in `p`'s own run, `topo.run(p)`, one block; the slot of
/// `q → p` is found as `topo.edge(p, q)`. The mapping is its own
/// inverse: slot `s` holds edge `slot(topo, s)`.
fn slot(topo: &Topology, e: usize) -> usize {
    topo.reverse(e)
}

/// Per-directed-edge attenuated digest table for one overlay.
///
/// For each directed edge `q → p` the table describes five (the radius)
/// monotone layers: layer 1 is `q`'s own share table; layer `d`
/// additionally unions layer `d-1` of every edge `r → q` with `r ≠ p` —
/// everything reachable from `p` through `q` in at most `d` hops (echoes
/// around cycles only ever *add* bits, keeping the no-false-negative
/// direction). Monotone layers give each Bloom bit one fact, the first
/// depth whose layer holds it, and the table keeps only that: three
/// bit-planes an edge hold each bit's depth code, `7 − depth` or 0 for
/// none. Layer `d` is the bits of code at least `7 − d`, a bitwise
/// expression of at most three planes, and a conjunctive probe's
/// minimum depth is `7 −` the smallest code among its bits. All
/// planes live in one `[slot][plane][word]` arena laid out on the first
/// build, each edge `q → p` at the slot of its reverse `p → q`, so
/// what `p` hears from its neighbours is `p`'s own run of the
/// [`Topology`], one block: the table is always handed the overlay it
/// serves.
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
///   the stored one ends the wave there. A bit entering layer `d` takes
///   first depth `d`, which also enters it in every deeper layer that
///   lacked it; a bit leaving layer `d` takes `d+1`;
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
    /// 64-bit words per layer, and per plane, from `config`.
    words: usize,
    /// `[slot][plane][word]`, [`PLANES`] planes an edge at its [`slot`]:
    /// plane `k` holds bit `k` of each Bloom bit's depth code.
    planes: Vec<u64>,
    /// `[slot][layer]`: the set bits of each layer, kept by the wave.
    ones: Vec<u32>,
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
    /// Indices of the words a refresh recomputes: the touched ones, or
    /// every one on the first build.
    at_words: Vec<usize>,
    /// One layer's words at `at_words`, gathered before they are written.
    gather: Vec<u64>,
    wave: Wave,
    built: bool,
}

/// The refresh wave's working lists, kept between refreshes so that a
/// refresh allocates nothing.
#[derive(Debug, Default)]
struct Wave {
    /// Edges whose layer below the one being computed changed.
    frontier: Vec<usize>,
    /// The frontier plus its dependent edges, each once.
    candidates: Vec<usize>,
    is_candidate: Vec<bool>,
    /// Edges with any changed layer: one `DigestPush` each.
    pushed: Vec<usize>,
    is_pushed: Vec<bool>,
}

/// Writes each `(index, word)` of `words` into layer `depth` of one
/// edge, `planes` its `[plane][word]` block and `ones` its layers' set
/// bits, kept current: a bit entering the layer takes first depth
/// `depth`, one leaving it `depth + 1`, or none past the radius. The
/// wave writes layers in order, so a bit leaving layer `depth` is in no
/// shallower one. Whether any word of the layer changed.
fn write_layer(
    planes: &mut [u64],
    ones: &mut [u32],
    depth: usize,
    words: impl Iterator<Item = (usize, u64)>,
) -> bool {
    let mut changed = false;
    for (i, new) in words {
        let old = at(planes, i);
        let was = decode(old, depth);
        if was == new {
            continue;
        }
        changed = true;
        let mut now = old;
        paint(&mut now, new & !was, depth);
        paint(&mut now, was & !new, depth + 1);
        put(planes, i, now);
        // the layers the write moved: `depth`, and each deeper one an
        // entering bit was not in yet
        for d in depth..=RADIUS {
            let (before, after) = (decode(old, d), decode(now, d));
            if before == after {
                break;
            }
            ones[d - 1] = ones[d - 1] + after.count_ones() - before.count_ones();
        }
    }
    changed
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
            planes: Vec::new(),
            ones: Vec::new(),
            local: Vec::new(),
            counts: Vec::new(),
            dirty: Vec::new(),
            is_dirty: Vec::new(),
            touched: Vec::new(),
            at_words: Vec::new(),
            gather: Vec::new(),
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

    /// A record entered `node`'s share table (first provider in):
    /// `entries` hands its entry hashes to the visitor it is given, and is
    /// not called before the first refresh.
    pub fn record_added(&mut self, node: u32, entries: impl FnOnce(&mut EntryVisitor<'_>)) {
        self.record_delta(node, entries, true);
    }

    /// A record left `node`'s share table (last provider out): `entries`
    /// hands over the entries it was stored under.
    pub fn record_removed(&mut self, node: u32, entries: impl FnOnce(&mut EntryVisitor<'_>)) {
        self.record_delta(node, entries, false);
    }

    fn record_delta(
        &mut self,
        node: u32,
        entries: impl FnOnce(&mut EntryVisitor<'_>),
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
        entries(&mut |h| {
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
    /// across `topo`, the overlay the table serves: it is laid out for it
    /// on the first refresh and never rewired. `entries_of(node, visit)`
    /// must call `visit` with the entry hashes of every record in
    /// `node`'s share table, each record's as `for_each_record_entry`
    /// enumerates them; it is asked for every node on the first build and
    /// afterwards only for a node's first write since. Returns
    /// `(requests, pushes)`: `DigestRequest` messages (one per directed
    /// edge, first exchange only) and `DigestPush` messages (one per
    /// directed edge whose advertised layers changed).
    pub fn refresh<F>(&mut self, topo: &Topology, mut entries_of: F) -> (u64, u64)
    where
        F: FnMut(u32, &mut EntryVisitor<'_>),
    {
        if !self.built {
            // the first exchange: every node's digest from its records
            let n = topo.len();
            self.local = vec![0; n * self.words];
            self.counts = std::iter::repeat_with(|| None).take(n).collect();
            self.is_dirty = vec![false; n];
            self.touched = vec![false; self.words];
            self.gather = vec![0; self.words];
            for node in 0..n as u32 {
                let own = &mut self.local[node as usize * self.words..][..self.words];
                entries_of(node, &mut |h| insert(own, h));
            }
            self.built = true;
            self.build(topo);
            let directed = 2 * topo.edge_count() as u64;
            return (directed, directed);
        }
        for i in 0..self.dirty.len() {
            let node = self.dirty[i];
            if self.counts[node as usize].is_none() {
                self.recount(node, &mut entries_of);
            }
        }
        (0, self.propagate(topo))
    }

    /// The first build over `topo`: lays the arena out and computes every
    /// layer of every edge, every word, in one straight pass per layer.
    /// It walks edge ids in order, not slots: an advertiser's out-edges
    /// are consecutive ids that all gather from its run, read once for
    /// all of them (walking slots, for sequential writes, built a
    /// 10 000-peer table 13 % slower on a 2-vCPU host). Every edge
    /// changes, so no frontier is kept; before layer `d` is
    /// written no bit has a first depth of `d` or more, so each of its
    /// bits enters or stays, and the set-bit counts are taken once at the
    /// end. The delta wave's equivalence tests hold its result to a
    /// table built from scratch.
    fn build(&mut self, topo: &Topology) {
        let directed = 2 * topo.edge_count();
        let (words, stride) = (self.words, PLANES * self.words);
        self.planes = vec![0; directed * stride];
        self.ones = vec![0; directed * RADIUS];
        let wave = &mut self.wave;
        wave.is_candidate = vec![false; directed];
        wave.is_pushed = vec![false; directed];
        // a wave lists an edge at most once per list: sized once with the
        // arena, the three never grow (DESIGN.md §3e)
        for list in [&mut wave.frontier, &mut wave.candidates, &mut wave.pushed] {
            list.clear();
            list.reserve_exact(directed);
        }
        self.at_words = (0..words).collect();
        for depth in 1..=RADIUS {
            for c in 0..directed {
                self.gather(topo, c, depth);
                let edge = &mut self.planes[slot(topo, c) * stride..][..stride];
                for (i, &new) in self.gather.iter().enumerate() {
                    let mut now = at(edge, i);
                    let entering = new & !decode(now, depth);
                    paint(&mut now, entering, depth);
                    put(edge, i, now);
                }
            }
        }
        let slots = self.planes.chunks_exact(stride);
        for (edge, ones) in slots.zip(self.ones.chunks_exact_mut(RADIUS)) {
            for i in 0..words {
                let now = at(edge, i);
                for (d, ones) in (1..).zip(ones.iter_mut()) {
                    *ones += decode(now, d).count_ones();
                }
            }
        }
    }

    /// Recomputes layer `depth` of edge `c` at `at_words` and writes it
    /// ([`write_layer`]); whether it changed.
    fn recompute(&mut self, topo: &Topology, c: usize, depth: usize) -> bool {
        self.gather(topo, c, depth);
        let (s, stride) = (slot(topo, c), PLANES * self.words);
        write_layer(
            &mut self.planes[s * stride..][..stride],
            &mut self.ones[s * RADIUS..][..RADIUS],
            depth,
            self.at_words.iter().copied().zip(self.gather.iter().copied()),
        )
    }

    /// Gathers what layer `depth` of edge `c` holds at `at_words`: the
    /// advertiser's own digest for layer 1, else layer `d-1` of `c`
    /// unioned with that of every edge upstream of it: each edge into
    /// the advertiser but the one from `c`'s receiver, whose slots are
    /// the advertiser's run without `c`. A write to layer `d` moves no
    /// bit of layer `d-1`, so edges already written at `d` read as
    /// before.
    fn gather(&mut self, topo: &Topology, c: usize, depth: usize) {
        let RouteTable { words, planes, local, at_words, gather, .. } = self;
        let (words, stride) = (*words, PLANES * *words);
        let gather = &mut gather[..at_words.len()];
        if depth == 1 {
            let own = &local[topo.advertiser(c) as usize * words..][..words];
            for (g, &i) in gather.iter_mut().zip(at_words.iter()) {
                *g = own[i];
            }
        } else {
            let edge = &planes[slot(topo, c) * stride..][..stride];
            for (g, &i) in gather.iter_mut().zip(at_words.iter()) {
                *g = decode(at(edge, i), depth - 1);
            }
            // slot `c` holds the edge receiver → advertiser, not upstream
            for s in topo.run(topo.advertiser(c)).filter(|&s| s != c) {
                let upstream = &planes[s * stride..][..stride];
                for (g, &i) in gather.iter_mut().zip(at_words.iter()) {
                    *g |= decode(at(upstream, i), depth - 1);
                }
            }
        }
    }

    /// Counts `node`'s share table from its records: the first write
    /// since the build, or counts that went out of range.
    fn recount<F>(&mut self, node: u32, entries_of: &mut F)
    where
        F: FnMut(u32, &mut EntryVisitor<'_>),
    {
        let words = self.words;
        let mut count_of = vec![0u32; words * 64].into_boxed_slice();
        let fresh = &mut self.gather[..words];
        fresh.fill(0);
        let mut exact = true;
        entries_of(node, &mut |h| {
            insert(fresh, h);
            for bit in probes(words as u64 * 64, h) {
                match count_of[bit].checked_add(1) {
                    Some(count) => count_of[bit] = count,
                    None => exact = false,
                }
            }
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
    /// differ. A bit entering layer `d` of an edge also enters its deeper
    /// layers, but every edge that reads those has read the bit one layer
    /// below already, at `d + 1`, so the wave need not visit them again.
    /// Returns the number of edges with any changed layer and leaves
    /// nothing dirty.
    fn propagate(&mut self, topo: &Topology) -> u64 {
        let mut wave = std::mem::take(&mut self.wave);
        let Wave { frontier, candidates, is_candidate, pushed, is_pushed } = &mut wave;
        let touched = &mut self.touched;
        self.at_words.clear();
        self.at_words.extend((0..self.words).filter(|&i| std::mem::take(&mut touched[i])));
        frontier.clear();
        for i in 0..self.dirty.len() {
            let node = self.dirty[i];
            self.is_dirty[node as usize] = false;
            for e in topo.run(node) {
                if self.recompute(topo, e, 1) {
                    frontier.push(e);
                    push_once(pushed, is_pushed, e);
                }
            }
        }
        self.dirty.clear();
        for depth in 2..=RADIUS {
            for &e in frontier.iter() {
                push_once(candidates, is_candidate, e);
                for c in topo.run(topo.receiver(e)).filter(|&f| f != topo.reverse(e)) {
                    push_once(candidates, is_candidate, c);
                }
            }
            frontier.clear();
            for c in candidates.drain(..) {
                is_candidate[c] = false;
                if self.recompute(topo, c, depth) {
                    frontier.push(c);
                    push_once(pushed, is_pushed, c);
                }
            }
        }
        let pushes = pushed.len() as u64;
        for e in pushed.drain(..) {
            is_pushed[e] = false;
        }
        self.wave = wave;
        pushes
    }

    /// Minimum plausible depth of a match for `probe`'s query behind the
    /// edge `advertiser → receiver` of `topo`, the overlay the table was
    /// refreshed over: the 1-based index of the first layer whose digest
    /// may match, probing at most `min(max_depth, radius)` layers. `None`
    /// means "no match within reach through that neighbor" (or the edge
    /// is unknown).
    pub fn min_depth(
        &self,
        topo: &Topology,
        advertiser: u32,
        receiver: u32,
        probe: &Probe,
        max_depth: u8,
    ) -> Option<u8> {
        // the edge's slot: the receiver's out-edge toward the advertiser
        self.slot_min_depth(topo.edge(receiver, advertiser)?, probe, max_depth)
    }

    /// [`RouteTable::min_depth`] of every edge toward `receiver` from a
    /// neighbour `keep` keeps, as `(neighbour, depth)` in neighbour id
    /// order — the order of [`Topology::neighbors`]. Their slots are
    /// `receiver`'s own run, so the hop reads one block.
    pub(crate) fn min_depths_toward<'a>(
        &'a self,
        topo: &'a Topology,
        receiver: u32,
        keep: impl Fn(u32) -> bool + 'a,
        probe: &'a Probe,
        max_depth: u8,
    ) -> impl Iterator<Item = (u32, Option<u8>)> + 'a {
        topo.run(receiver)
            .map(|s| (topo.receiver(s), s))
            .filter(move |&(nb, _)| keep(nb))
            .map(move |(nb, s)| (nb, self.slot_min_depth(s, probe, max_depth)))
    }

    /// [`RouteTable::min_depth`] of the edge at slot `s`: `7 −` the
    /// smallest depth code among the bits the probe needs, when that code
    /// is a depth within reach; `None` for a slot the table holds no
    /// planes at.
    fn slot_min_depth(&self, s: usize, probe: &Probe, max_depth: u8) -> Option<u8> {
        let stride = PLANES * self.words;
        let planes = self.planes.get(s * stride..)?.get(..stride)?;
        let floor = code(usize::from(max_depth).min(RADIUS));
        let code = probe.code(self.words as u64 * 64, floor, |bit| {
            let (i, shift) = (bit / 64, bit % 64);
            let plane = |k: usize| (planes[k * self.words + i] >> shift & 1) as u8;
            plane(2) << 2 | plane(1) << 1 | plane(0)
        });
        (code >= floor).then(|| 7 - code)
    }

    /// Layer `depth` (1-based) of the edge `advertiser → receiver` of
    /// `topo`, as of the last refresh, decoded from its planes.
    pub fn layer(
        &self,
        topo: &Topology,
        advertiser: u32,
        receiver: u32,
        depth: u8,
    ) -> Option<Vec<u64>> {
        let s = topo.edge(receiver, advertiser)?; // the edge's slot
        let depth = usize::from(depth);
        if !(1..=RADIUS).contains(&depth) {
            return None;
        }
        let stride = PLANES * self.words;
        let planes = self.planes.get(s * stride..)?.get(..stride)?;
        Some((0..self.words).map(|i| decode(at(planes, i), depth)).collect())
    }

    /// Is layer `depth` (1-based) of the edge `advertiser → receiver`
    /// sparse enough to believe: `2·ones² < bits²`? A term absent from a
    /// layer a fraction `f` full passes its two probes with chance `f²`,
    /// so below `f² = ½` a one-term match there is more likely real than
    /// a false positive. `false` for an edge or depth the table does not
    /// hold. The count sits in the receiver's run, which a guided hop at
    /// the receiver has just read.
    pub(crate) fn is_sparse(
        &self,
        topo: &Topology,
        advertiser: u32,
        receiver: u32,
        depth: u8,
    ) -> bool {
        let s = topo.edge(receiver, advertiser); // the edge's slot
        let d = (depth as usize).checked_sub(1).filter(|&d| d < RADIUS);
        let ones = s.zip(d).and_then(|(s, d)| self.ones.get(s * RADIUS + d));
        let bits = self.words as u64 * 64;
        ones.is_some_and(|&ones| 2 * u64::from(ones).pow(2) < bits.pow(2))
    }

    /// The mean fill of each layer over every directed edge, as of the
    /// last refresh: the share of its bits set, depth 1 first. `None`
    /// before the first refresh.
    pub fn fill(&self) -> Option<[f64; RADIUS]> {
        let mut sum = [0u64; RADIUS];
        for (i, &ones) in self.ones.iter().enumerate() {
            sum[i % RADIUS] += u64::from(ones);
        }
        let bits = (self.ones.len() / RADIUS * self.words * 64) as f64;
        (bits > 0.0).then(|| sum.map(|s| s as f64 / bits))
    }

    /// Bytes the table holds: the plane arena with each layer's set-bit
    /// count, the local digests, and a count array for each node written
    /// since the build. The edges are the topology's.
    pub fn approx_bytes(&self) -> u64 {
        let counted = self.counts.iter().flatten().count();
        let words = self.planes.len() + self.local.len();
        (words * 8 + self.ones.len() * 4 + counted * self.words * 64 * 4) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index_node::IndexNode;
    use crate::message::ResourceRecord;
    use crate::peer::PeerId;
    use proptest::collection::vec as pvec;
    use up2p_store::ResourceId;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::HashMap;

    impl Slices {
        /// Digest `i`'s words, gathered from its column.
        pub(crate) fn column(&self, i: usize) -> Vec<u64> {
            let mut words = vec![0; self.bits / 64];
            for bit in 0..self.bits {
                let (word, mask) = self.cell(bit, i);
                if self.rows[word] & mask != 0 {
                    words[bit / 64] |= 1 << (bit % 64);
                }
            }
            words
        }
    }

    impl RoutingDigest {
        /// Bit capacity (always a power of two).
        fn bit_len(&self) -> u64 {
            self.words.len() as u64 * 64
        }

        /// Number of set bits.
        fn ones(&self) -> u64 {
            self.words.iter().map(|w| w.count_ones() as u64).sum()
        }

        /// Folds every record of `node`'s share table into the digest.
        fn add_node(&mut self, node: &IndexNode) {
            node.for_each_record(|community, fields| self.add_record(community, fields));
        }

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
        Topology::from_edges(n as usize, (1..n).map(|i| (PeerId(i - 1), PeerId(i))))
    }

    fn small(log2_bits: u8) -> DigestConfig {
        DigestConfig { log2_bits, ..DigestConfig::guided() }
    }

    /// [`entry_hash`] from the community's name, hashed anew at every call.
    fn term_hash(community: &str, term: Option<&str>) -> u64 {
        entry_hash(community_scope(community), term)
    }

    /// The string-hashing walk [`Probe::may_match`] used to be — community
    /// name and every term re-hashed at each digest asked, an exact value
    /// split by the store's own `tokenize` — kept as the oracle for the
    /// compiled probe.
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
            Query::Match { pattern: ValuePattern::Exact(value), .. } => up2p_store::tokenize(value)
                .iter()
                .all(|token| contains(words, term_hash(community, Some(token)))),
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
            for _ in 1..RADIUS {
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
            let (node, table) = (&mut self.nodes[at as usize], &mut self.table);
            let (id, fields) = (ResourceId::from_key(&record.key), record.fields.clone());
            node.upload(PeerId(provider), id, &record.community, fields, |entries| {
                table.record_added(at, |visit| entries.visit(visit))
            });
        }

        /// Last publish wins, as in a peer's own table: `provider`'s
        /// stored copy leaves, then `record` enters. On a node only
        /// `provider` publishes to, that replaces the record.
        fn upsert(&mut self, at: u32, provider: u32, record: &ResourceRecord) {
            self.remove(at, provider, &record.key);
            self.insert(at, provider, record);
        }

        fn remove(&mut self, at: u32, provider: u32, key: &str) {
            let (node, table) = (&mut self.nodes[at as usize], &mut self.table);
            node.withdraw(PeerId(provider), key, |entries| {
                table.record_removed(at, |visit| entries.visit(visit))
            });
        }

        /// Refreshes both sides and holds the table to the reference:
        /// the message counts, and every layer of every directed edge.
        fn refresh(&mut self) -> (u64, u64) {
            let nodes = &mut self.nodes;
            let got = self
                .table
                .refresh(&self.topo, |p, visit| nodes[p as usize].for_each_entry(visit));
            let expected = self.reference.refresh(self.config, &self.topo, nodes);
            assert_eq!(got, expected, "(requests, pushes)");
            assert!(!self.table.needs_refresh());
            for (&(q, p), layers) in &self.reference.edges {
                let s = self.topo.edge(p, q).expect("edge exists");
                for (d, layer) in layers.iter().enumerate() {
                    assert_eq!(
                        self.table.layer(&self.topo, q, p, d as u8 + 1),
                        Some(layer.words.to_vec()),
                        "layer {} of {q} → {p}",
                        d + 1
                    );
                    let ones = self.table.ones[s * RADIUS + d];
                    assert_eq!(u64::from(ones), layer.ones(), "set bits of layer {}", d + 1);
                }
                assert_eq!(self.table.layer(&self.topo, q, p, layers.len() as u8 + 1), None);
            }
            got
        }

        /// Does `at`'s own advertisement (layer 1 toward `toward`) carry
        /// the entry?
        fn advertises(&self, at: u32, toward: u32, community: &str, term: Option<&str>) -> bool {
            let layer = self.table.layer(&self.topo, at, toward, 1).expect("edge exists");
            contains(&layer, term_hash(community, term))
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
        node.remove(PeerId(0), "k0");
        let mut after = RoutingDigest::new(12);
        after.add_node(&node);
        assert!(!after.may_match("c", &Query::any_keyword("ephemeral")));
        assert!(!after.may_match("c", &Query::All), "empty community drops its bit");
    }

    #[test]
    fn record_entries_hash_like_term_hash() {
        // tokens only: the whole value is asked by its tokens
        let fields = vec![("o/name".to_string(), "  Observer   Pattern ".to_string())];
        let mut got = Vec::new();
        for_each_record_entry("patterns", &fields, |h| got.push(h));
        let expected =
            [None, Some("observer"), Some("pattern")].map(|term| term_hash("patterns", term));
        assert_eq!(got, expected);
        // `İ` lowercases to `i` and a combining dot, no letter: the raw
        // value's one token is two in its normalized form, which enters too
        let fields = vec![("o/city".to_string(), "İstanbul Köln".to_string())];
        let mut got = Vec::new();
        for_each_record_entry("cities", &fields, |h| got.push(h));
        let raw = [Some("i\u{307}stanbul"), Some("köln")];
        let normalized = [Some("i"), Some("stanbul"), Some("köln")];
        let expected: Vec<u64> = [None]
            .into_iter()
            .chain(raw)
            .chain(normalized)
            .map(|term| term_hash("cities", term))
            .collect();
        assert_eq!(got, expected);
        let signature = sign_record("cities", &fields, |_| {});
        assert!(Probe::new("cities", &Query::eq("o/city", "İstanbul Köln")).admits(&signature));
    }

    #[test]
    fn an_exact_value_is_asked_by_its_tokens() {
        let mut d = RoutingDigest::new(12);
        for term in ["abstract", "blues"] {
            d.insert(term_hash("songs", Some(term)));
        }
        d.insert(term_hash("songs", None));
        // every token must be there, wherever it came from
        assert!(!d.may_match("songs", &Query::eq("track/title", "Abstract Factory Blues")));
        d.insert(term_hash("songs", Some("factory")));
        assert!(d.may_match("songs", &Query::eq("track/title", "Abstract Factory Blues")));
        // stopwords are no tokens, and a value of none is community presence
        assert!(d.may_match("songs", &Query::eq("track/title", "the blues")));
        assert!(d.may_match("songs", &Query::eq("track/title", "--")));
        assert!(!d.may_match("films", &Query::eq("track/title", "--")));
    }

    /// A connected overlay: node `i > 0` hangs off `parents[i-1] % i`,
    /// plus a few chords.
    fn connected(parents: &[u32], chords: &[(u32, u32)]) -> Topology {
        let n = parents.len() as u32 + 1;
        let tree = parents.iter().zip(1..).map(|(&parent, i)| (PeerId(i), PeerId(parent % i)));
        let chords = chords.iter().map(|&(a, b)| (PeerId(a % n), PeerId(b % n)));
        Topology::from_edges(n as usize, tree.chain(chords))
    }

    /// Minimum depths toward a node, and whether layers toward it are
    /// sparse.
    type HopReads = (Vec<Vec<(u32, Option<u8>)>>, Vec<bool>);

    /// What a guided hop at `p` reads of `table`: the minimum depths
    /// toward `p` of every probe at every TTL, from every neighbour and
    /// from all but the first, and whether each layer of each edge toward
    /// `p` is sparse.
    fn hop_reads(table: &RouteTable, topo: &Topology, p: u32, probes: &[Probe]) -> HopReads {
        let first = topo.neighbors(PeerId(p)).next().map(|nb| nb.0);
        let mut depths = Vec::new();
        for probe in probes {
            for ttl in 0..=RADIUS as u8 + 1 {
                depths.push(table.min_depths_toward(topo, p, |_| true, probe, ttl).collect());
                let onward = move |nb| Some(nb) != first;
                depths.push(table.min_depths_toward(topo, p, onward, probe, ttl).collect());
            }
        }
        let sparse = topo
            .neighbors(PeerId(p))
            .flat_map(|nb| (0..=RADIUS as u8 + 1).map(move |d| (nb.0, d)))
            .map(|(nb, d)| table.is_sparse(topo, nb, p, d))
            .collect();
        (depths, sparse)
    }

    proptest! {
        /// A guided hop at `p` reads only `p`'s run: over random
        /// connected overlays and share tables, once every slot outside
        /// `topo.run(p)` holds garbage, planes and set-bit counts alike,
        /// `min_depths_toward(p, …)` and `is_sparse(…, p, …)` return
        /// what they returned before.
        #[test]
        fn a_guided_hop_reads_only_its_own_run(
            parents in pvec(any::<u32>(), 1..9),
            chords in pvec((any::<u32>(), any::<u32>()), 0..6),
            log2_bits in 6u8..10,
            shares in pvec((any::<u32>(), 0..PROBE_COMMUNITIES.len(), probe_term()), 0..16),
            seed in any::<u64>(),
        ) {
            let topo = connected(&parents, &chords);
            let mut nodes: Vec<IndexNode> = (0..topo.len()).map(|_| IndexNode::new()).collect();
            for (i, &(at, community, term)) in shares.iter().enumerate() {
                let record = record(&format!("k{i}"), PROBE_COMMUNITIES[community], term);
                nodes[at as usize % topo.len()].insert(PeerId(0), &record);
            }
            let mut table = RouteTable::new(small(log2_bits));
            table.refresh(&topo, |p, visit| nodes[p as usize].for_each_entry(visit));
            let probes: Vec<Probe> = ["apple", "observer pattern", "missing"]
                .into_iter()
                .map(Query::any_keyword)
                .chain([Query::All])
                .flat_map(|q| PROBE_COMMUNITIES.map(|c| Probe::new(c, &q)))
                .collect();
            let (planes, ones) = (table.planes.clone(), table.ones.clone());
            let stride = PLANES * table.words;
            let mut rng = StdRng::seed_from_u64(seed);
            for p in 0..topo.len() as u32 {
                let before = hop_reads(&table, &topo, p, &probes);
                let own = topo.run(p);
                for s in (0..2 * topo.edge_count()).filter(|s| !own.contains(s)) {
                    table.planes[s * stride..][..stride].fill_with(|| rng.gen());
                    table.ones[s * RADIUS..][..RADIUS].fill_with(|| rng.gen());
                }
                prop_assert_eq!(hop_reads(&table, &topo, p, &probes), before, "at {}", p);
                table.planes.clone_from(&planes);
                table.ones.clone_from(&ones);
            }
        }
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
        let probe = Probe::new("c", &Query::any_keyword("needle"));
        let min_depth = |q, p, ttl| world.table.min_depth(&world.topo, q, p, &probe, ttl);
        assert_eq!(min_depth(1, 0, 7), Some(3));
        assert_eq!(min_depth(2, 1, 7), Some(2));
        assert_eq!(min_depth(3, 2, 7), Some(1));
        // looking back toward the empty side finds nothing
        assert_eq!(min_depth(0, 1, 7), None);
        // a ttl too small to reach the record prunes the probe
        assert_eq!(min_depth(1, 0, 2), None);
        // neither a non-edge nor an unknown node is an advertiser
        assert_eq!(min_depth(0, 2, 7), None);
        assert_eq!(min_depth(9, 0, 7), None);
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
        let probe = Probe::new("c", &Query::any_keyword("fresh"));
        assert_eq!(
            world.table.min_depth(&world.topo, 1, 2, &probe, 7),
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
            let config = small(rng.gen_range(6..10));
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
    fn every_first_depth_reads_and_writes_as_its_layers_say() {
        // one bit of a one-word table in each of its six states: first
        // depth 1 to the radius, and `RADIUS + 1` for none
        let bit = 1u64 << 37;
        let coded = |first: usize| {
            let mut words = [0; PLANES];
            paint(&mut words, bit, first);
            words
        };
        let first_of = |words: [u64; PLANES]| {
            (1..=RADIUS).find(|&d| decode(words, d) & bit != 0).unwrap_or(RADIUS + 1)
        };
        let ones_of = |words: [u64; PLANES]| -> Vec<u32> {
            (1..=RADIUS).map(|d| decode(words, d).count_ones()).collect()
        };
        // writes layer `depth` of the bit in state `first` as `new`:
        // the state after, and whether the write reports a change; the
        // set-bit counts it keeps must be those of every layer after
        let write = |first: usize, depth: usize, new: u64| {
            let mut planes = coded(first).to_vec();
            let mut ones = ones_of(coded(first));
            let changed = write_layer(&mut planes, &mut ones, depth, std::iter::once((0, new)));
            let words = at(&planes, 0);
            assert_eq!(ones, ones_of(words), "set bits after writing layer {depth} at {first}");
            (first_of(words), changed)
        };
        for first in 1..=RADIUS + 1 {
            for depth in 1..=RADIUS {
                let expected = if first <= depth { bit } else { 0 };
                assert_eq!(decode(coded(first), depth), expected, "layer {depth} at {first}");
                // entering: a deeper bit moves up to `depth`, entering
                // every layer from there to the one it was first in
                let entered = (first.min(depth), first > depth);
                assert_eq!(write(first, depth, bit), entered, "entering {depth} at {first}");
                // leaving: the wave clears a bit only from a layer no
                // shallower one holds it in; it moves one layer down
                if first >= depth {
                    let left = if first == depth { (depth + 1, true) } else { (first, false) };
                    assert_eq!(write(first, depth, 0), left, "leaving {depth} at {first}");
                }
            }
        }
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
        // no community marker in the way: each one-word record enters its
        // term once and takes it out once
        world.insert(0, 0, &record("a", "c", a));
        world.insert(0, 0, &record("b", "c", b));
        world.refresh();
        let bit_set = |world: &World| {
            let layer = world.table.layer(&world.topo, 0, 1, 1).expect("edge exists");
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
        let probe = Probe::new("songs", &Query::All);
        assert_eq!(world.table.min_depth(&world.topo, 0, 1, &probe, 7), None);
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
        // two records, each entering "needle" once, as its one token
        assert_eq!(world.table.counts[0].as_ref().expect("recounted")[bit], 2);
        world.remove(0, 0, "a");
        world.remove(0, 0, "b");
        world.refresh();
        assert!(!world.advertises(0, 1, "c", Some("needle")), "exact again: both left");
        // a record leaving that the counts never saw enter
        let phantom = [("o/name".to_string(), "phantom".to_string())];
        world.table.record_removed(0, |visit| for_each_record_entry("c", &phantom, visit));
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
        idle.record_added(0, |visit| for_each_record_entry("c", &[], visit));
        assert_eq!(idle.approx_bytes(), 0);
        assert!(idle.needs_refresh(), "only because it was never built");
    }
}
