//! Content addressing: a from-scratch SHA-1 and the [`ResourceId`] newtype.
//!
//! U-P2P needs stable, collision-resistant object identifiers so that the
//! same object published by different peers is recognized as one resource
//! (the paper's replication story depends on this). SHA-1 matches the era
//! and is implemented here to keep the dependency budget at zero.
//!
//! [`Sha1`] is incremental: whole 64-byte blocks are compressed straight
//! from the caller's slice, and only a partial block is ever buffered, so
//! an id over `community ‖ 0 ‖ xml` streams its three pieces instead of
//! concatenating them. The compression function keeps its message
//! schedule in a 16-word ring and runs the four 20-round stages as four
//! loops, each with its own boolean function. There is one implementation
//! on every host: no SHA-NI path behind runtime detection (DESIGN.md §3h).

use std::fmt;
use std::sync::Arc;

/// A 160-bit content hash identifying a stored object, shown as 40 hex
/// digits. Backed by a shared `Arc<str>`, so cloning an id (every search
/// hit, every posting materialization) is a reference-count bump rather
/// than a 40-byte heap copy.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ResourceId(Arc<str>);

impl ResourceId {
    /// Identifier for an object: hash of its community id and its
    /// canonical XML text.
    pub fn for_object(community: &str, xml: &str) -> ResourceId {
        let mut hasher = Sha1::new();
        hasher.update(community.as_bytes());
        hasher.update(&[0]);
        hasher.update(xml.as_bytes());
        ResourceId(hex(&hasher.finish()).into())
    }

    /// Identifier from raw bytes (attachments).
    pub fn for_bytes(bytes: &[u8]) -> ResourceId {
        ResourceId(hex(&sha1(bytes)).into())
    }

    /// The 40-char hex form.
    pub fn as_hex(&self) -> &str {
        &self.0
    }

    /// Parses a hex id (for persistence).
    pub fn from_hex(s: &str) -> Option<ResourceId> {
        if s.len() == 40 && s.chars().all(|c| c.is_ascii_hexdigit()) {
            Some(ResourceId(s.to_ascii_lowercase().into()))
        } else {
            None
        }
    }

    /// A short prefix for display: the first 8 hex digits, or the whole
    /// id when it is shorter (ids wrapped by [`ResourceId::from_key`]
    /// are not guaranteed to be 40-hex).
    pub fn short(&self) -> &str {
        self.0.get(..8).unwrap_or(&self.0)
    }

    /// Wraps an arbitrary string key as an identifier without hashing.
    ///
    /// The network layer addresses records by the string key a provider
    /// published them under (normally the 40-hex content id, but any
    /// opaque key works); this lets its index nodes use the key directly
    /// as a [`crate::MetadataIndex`] document id.
    pub fn from_key(key: &str) -> ResourceId {
        ResourceId(key.into())
    }
}

/// `HashMap<ResourceId, _>` lookups by bare `&str` key without allocating
/// an id. Sound because the derived `Hash`/`Eq` of the newtype delegate to
/// the inner string content.
impl std::borrow::Borrow<str> for ResourceId {
    fn borrow(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for ResourceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

const HEX_DIGITS: &[u8; 16] = b"0123456789abcdef";

fn hex(bytes: &[u8]) -> String {
    let mut s = String::with_capacity(bytes.len() * 2);
    for &b in bytes {
        s.push(HEX_DIGITS[(b >> 4) as usize] as char);
        s.push(HEX_DIGITS[(b & 0x0f) as usize] as char);
    }
    s
}

/// SHA-1 as specified in FIPS 180-1. Used for content addressing only —
/// this is a reproduction of a 2002 system, not a security boundary.
pub fn sha1(data: &[u8]) -> [u8; 20] {
    let mut hasher = Sha1::new();
    hasher.update(data);
    hasher.finish()
}

/// Incremental SHA-1: feeding a message in any number of pieces gives
/// the digest [`sha1`] gives for their concatenation.
#[derive(Debug, Clone)]
pub struct Sha1 {
    state: [u32; 5],
    /// The partial block the last [`Sha1::update`] left, `buffer[..buffered]`.
    buffer: [u8; 64],
    buffered: usize,
    /// Message length in bytes.
    len: u64,
}

impl Default for Sha1 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha1 {
    /// A hasher that has seen no bytes.
    pub fn new() -> Sha1 {
        Sha1 {
            state: [0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476, 0xC3D2E1F0],
            buffer: [0; 64],
            buffered: 0,
            len: 0,
        }
    }

    /// Appends `data` to the message.
    pub fn update(&mut self, mut data: &[u8]) {
        self.len = self.len.wrapping_add(data.len() as u64);
        if self.buffered > 0 {
            let take = data.len().min(64 - self.buffered);
            let (head, rest) = data.split_at(take);
            self.buffer[self.buffered..self.buffered + take].copy_from_slice(head);
            self.buffered += take;
            data = rest;
            if self.buffered < 64 {
                return;
            }
            compress(&mut self.state, &self.buffer);
            self.buffered = 0;
        }
        let (blocks, tail) = data.as_chunks::<64>();
        for block in blocks {
            compress(&mut self.state, block);
        }
        self.buffer[..tail.len()].copy_from_slice(tail);
        self.buffered = tail.len();
    }

    /// The digest of everything fed so far. The padding — `0x80`, zeros
    /// and the 64-bit big-endian bit length — spills into a second block
    /// when fewer than 9 bytes of the last one are free.
    pub fn finish(mut self) -> [u8; 20] {
        let mut tail = [0u8; 128];
        tail[..self.buffered].copy_from_slice(&self.buffer[..self.buffered]);
        tail[self.buffered] = 0x80;
        let end = if self.buffered < 56 { 64 } else { 128 };
        tail[end - 8..end].copy_from_slice(&self.len.wrapping_mul(8).to_be_bytes());
        for block in tail[..end].as_chunks::<64>().0 {
            compress(&mut self.state, block);
        }
        let mut out = [0u8; 20];
        for (bytes, word) in out.as_chunks_mut::<4>().0.iter_mut().zip(self.state) {
            *bytes = word.to_be_bytes();
        }
        out
    }
}

/// Rounds 0–19: choose `c` or `d` by the bits of `b`.
#[inline(always)]
fn ch(b: u32, c: u32, d: u32) -> u32 {
    d ^ (b & (c ^ d))
}

/// Rounds 20–39 and 60–79.
#[inline(always)]
fn parity(b: u32, c: u32, d: u32) -> u32 {
    b ^ c ^ d
}

/// Rounds 40–59: the majority of `b, c, d`.
#[inline(always)]
fn maj(b: u32, c: u32, d: u32) -> u32 {
    (b & c) | (d & (b | c))
}

/// Word `t` of the message schedule. Words past 15 are derived in
/// place: word `t` overwrites word `t - 16` of the ring.
#[inline(always)]
fn schedule(w: &mut [u32; 16], t: usize) -> u32 {
    if t >= 16 {
        let mixed = w[(t + 13) & 15] ^ w[(t + 8) & 15] ^ w[(t + 2) & 15] ^ w[t & 15];
        w[t & 15] = mixed.rotate_left(1);
    }
    w[t & 15]
}

/// One round, in place: the new `a` lands in `e`'s variable and `b` is
/// rotated where it stands, so the next round names the five variables
/// one position on — `(e, a, b, c, d)` — and nothing is moved.
macro_rules! round {
    ($a:ident, $b:ident, $c:ident, $d:ident, $e:ident, $f:ident, $k:expr, $w:expr) => {
        $e = $e
            .wrapping_add($a.rotate_left(5))
            .wrapping_add($f($b, $c, $d))
            .wrapping_add($k)
            .wrapping_add($w);
        $b = $b.rotate_left(30);
    };
}

/// Five rounds from round `t`, after which the names are back in place.
macro_rules! five {
    ($w:ident, $t:expr, $f:ident, $k:expr, $a:ident, $b:ident, $c:ident, $d:ident, $e:ident) => {
        round!($a, $b, $c, $d, $e, $f, $k, schedule(&mut $w, $t));
        round!($e, $a, $b, $c, $d, $f, $k, schedule(&mut $w, $t + 1));
        round!($d, $e, $a, $b, $c, $f, $k, schedule(&mut $w, $t + 2));
        round!($c, $d, $e, $a, $b, $f, $k, schedule(&mut $w, $t + 3));
        round!($b, $c, $d, $e, $a, $f, $k, schedule(&mut $w, $t + 4));
    };
}

/// The twenty rounds of one boolean function and constant from round
/// `t0`, unrolled: a loop here leaves the schedule's `t >= 16` test and
/// ring indices to run time, and costs a tenth of the speed.
macro_rules! stage {
    ($w:ident, $t0:expr, $f:ident, $k:expr, $a:ident, $b:ident, $c:ident, $d:ident, $e:ident) => {
        five!($w, $t0, $f, $k, $a, $b, $c, $d, $e);
        five!($w, $t0 + 5, $f, $k, $a, $b, $c, $d, $e);
        five!($w, $t0 + 10, $f, $k, $a, $b, $c, $d, $e);
        five!($w, $t0 + 15, $f, $k, $a, $b, $c, $d, $e);
    };
}

/// Compresses one block into `state`.
fn compress(state: &mut [u32; 5], block: &[u8; 64]) {
    let mut w = [0u32; 16];
    for (word, bytes) in w.iter_mut().zip(block.as_chunks::<4>().0) {
        *word = u32::from_be_bytes(*bytes);
    }
    let [mut a, mut b, mut c, mut d, mut e] = *state;
    stage!(w, 0, ch, 0x5A82_7999, a, b, c, d, e);
    stage!(w, 20, parity, 0x6ED9_EBA1, a, b, c, d, e);
    stage!(w, 40, maj, 0x8F1B_BCDC, a, b, c, d, e);
    stage!(w, 60, parity, 0xCA62_C1D6, a, b, c, d, e);
    for (h, v) in state.iter_mut().zip([a, b, c, d, e]) {
        *h = h.wrapping_add(v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sha1_known_vectors() {
        assert_eq!(hex(&sha1(b"")), "da39a3ee5e6b4b0d3255bfef95601890afd80709");
        assert_eq!(hex(&sha1(b"abc")), "a9993e364706816aba3e25717850c26c9cd0d89d");
        assert_eq!(
            hex(&sha1(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1"
        );
        // > 64 bytes exercises multi-block path
        let long = vec![b'a'; 1000];
        assert_eq!(hex(&sha1(&long)), "291e9a6c66994949b57ba5e650361e98fc36b1ba");
        // FIPS 180-1's third vector: one million 'a'
        let million = vec![b'a'; 1_000_000];
        assert_eq!(hex(&sha1(&million)), "34aa973cd4c4daa4f61eeb2bdbad27316534016f");
    }

    #[test]
    fn ids_are_deterministic_and_community_scoped() {
        let a = ResourceId::for_object("mp3", "<song><title>x</title></song>");
        let b = ResourceId::for_object("mp3", "<song><title>x</title></song>");
        let c = ResourceId::for_object("cml", "<song><title>x</title></song>");
        assert_eq!(a, b);
        assert_ne!(a, c, "same XML in a different community is a different resource");
        assert_eq!(a.as_hex().len(), 40);
    }

    #[test]
    fn from_hex_round_trip() {
        let id = ResourceId::for_bytes(b"data");
        let back = ResourceId::from_hex(id.as_hex()).unwrap();
        assert_eq!(id, back);
        assert!(ResourceId::from_hex("xyz").is_none());
        assert!(ResourceId::from_hex(&"a".repeat(39)).is_none());
    }

    #[test]
    fn from_key_wraps_and_borrows_as_str() {
        use std::borrow::Borrow;
        use std::collections::HashMap;
        let id = ResourceId::from_key("k1");
        assert_eq!(Borrow::<str>::borrow(&id), "k1");
        // hash consistency: map keyed by ResourceId answers &str lookups
        let mut map: HashMap<ResourceId, u32> = HashMap::new();
        map.insert(id.clone(), 7);
        assert_eq!(map.get("k1"), Some(&7));
        assert_eq!(map.get("k2"), None);
        // hex ids round-trip through from_key unchanged
        let hashed = ResourceId::for_bytes(b"data");
        assert_eq!(ResourceId::from_key(hashed.as_hex()), hashed);
    }

    #[test]
    fn short_form_is_prefix() {
        let id = ResourceId::for_bytes(b"data");
        assert_eq!(id.short().len(), 8);
        assert!(id.as_hex().starts_with(id.short()));
        // ids from arbitrary keys display without panicking
        assert_eq!(ResourceId::from_key("k1").short(), "k1");
        assert_eq!(ResourceId::from_key("exactly8").short(), "exactly8");
        assert_eq!(ResourceId::from_key("more-than-eight").short(), "more-tha");
    }
}
