//! The compile cache — the one content-keyed cache of this crate.
//!
//! A community is a downloaded schema plus stylesheets, and everything
//! the servent derives from them is a pure function of their text. A
//! [`CompileCache`] computes such a function once per distinct input,
//! process-wide, and hands the result out by clone (an `Arc` in every
//! instantiation): [`crate::StylesheetCache`] for XSLT source,
//! [`crate::SchemaCache`] for XSD source and [`crate::FormCache`] for
//! rendered form pages.
//!
//! A lookup hashes its key eight bytes per step ([`bucket_hash`]) to pick
//! a bucket, then compares the key byte for byte with what each entry of
//! the bucket stored: the hash decides only how far a lookup searches,
//! never whether it hits.

use crate::error::CoreError;
use parking_lot::RwLock;
use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};

/// Entries a [`CompileCache`] holds; inserting one more evicts the
/// oldest. The inputs are bytes a stranger authored, so the cache must
/// not grow without bound. A constant, not an option, because no caller
/// needs another value: a community costs one schema, up to four sheets
/// and two pages, so each cache holds what 250 joined communities need.
pub const CAPACITY: usize = 1024;

/// What a [`CompileCache`] is keyed on. The [`bucket_hash`] only picks a
/// bucket; a hit is proven by [`CacheKey::matches`] against what the
/// entry stored, so a collision or a stale entry costs a second compile,
/// never a wrong answer.
pub(crate) trait CacheKey {
    /// What an entry keeps of its key.
    type Stored;
    /// The bucket the key falls in: [`bucket_hash`] of its parts.
    fn bucket(&self) -> u64;
    /// `true` when `stored` was made from a key equal to this one.
    fn matches(&self, stored: &Self::Stored) -> bool;
    /// The form an entry keeps.
    fn to_stored(&self) -> Self::Stored;
}

/// Source text is its own key: hashed whole, stored once per entry and
/// compared byte for byte on every hit.
impl CacheKey for str {
    type Stored = Box<str>;

    fn bucket(&self) -> u64 {
        bucket_hash(BUCKET_SEED, self.as_bytes())
    }

    fn matches(&self, stored: &Box<str>) -> bool {
        self == &**stored
    }

    fn to_stored(&self) -> Box<str> {
        self.into()
    }
}

/// Where a key's [`bucket_hash`] chain starts.
pub(crate) const BUCKET_SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// Multiplier of one [`bucket_hash`] step (the FxHash constant).
const BUCKET_MUL: u64 = 0x517c_c1b7_2722_0a95;

/// A bucket hash continued from `hash`, eight bytes per step: each
/// little-endian word — the last one zero-padded and then the length —
/// is folded in with a rotate, an xor and a multiply. Stable,
/// dependency-free, and good enough to pick a bucket when every hit is
/// verified against the stored key; the length keeps `"a"` and `"a\0"`,
/// and the parts of a chained key, apart.
pub(crate) fn bucket_hash(mut hash: u64, bytes: &[u8]) -> u64 {
    let mut step = |word: u64| hash = (hash.rotate_left(5) ^ word).wrapping_mul(BUCKET_MUL);
    let (words, tail) = bytes.as_chunks::<8>();
    for word in words {
        step(u64::from_le_bytes(*word));
    }
    let mut last = [0u8; 8];
    last[..tail.len()].copy_from_slice(tail);
    step(u64::from_le_bytes(last));
    step(bytes.len() as u64);
    hash
}

/// Compile-once store from keys stored as `S` to values `V`.
///
/// Values are compiled outside any lock and inserted under a
/// double-check, so racing callers converge on one entry and all hold
/// the winner's value. Errors are never cached: a broken input reports
/// its error on every call and leaves the cache untouched. At
/// [`CAPACITY`] entries the oldest insertion is evicted; recompiling an
/// evicted input yields an equal value, so eviction costs time only.
pub struct CompileCache<S, V> {
    entries: RwLock<Entries<S, V>>,
}

struct Entries<S, V> {
    buckets: HashMap<u64, Vec<(S, V)>>,
    /// The bucket of every entry, oldest first.
    order: VecDeque<u64>,
}

impl<S, V: Clone> Entries<S, V> {
    fn lookup<K: CacheKey<Stored = S> + ?Sized>(&self, hash: u64, key: &K) -> Option<V> {
        let bucket = self.buckets.get(&hash)?;
        bucket.iter().find(|(stored, _)| key.matches(stored)).map(|(_, value)| value.clone())
    }

    fn insert(&mut self, hash: u64, stored: S, value: V) {
        if self.order.len() == CAPACITY {
            // a bucket keeps insertion order, so the oldest entry of the
            // cache is the first of its bucket
            let oldest = self.order.pop_front().map(|hash| self.buckets.entry(hash));
            if let Some(Entry::Occupied(mut bucket)) = oldest {
                bucket.get_mut().remove(0);
                if bucket.get().is_empty() {
                    bucket.remove();
                }
            }
        }
        self.buckets.entry(hash).or_default().push((stored, value));
        self.order.push_back(hash);
    }
}

impl<S, V: Clone> CompileCache<S, V> {
    /// Creates an empty cache.
    pub(crate) fn new() -> Self {
        let entries = Entries { buckets: HashMap::new(), order: VecDeque::new() };
        CompileCache { entries: RwLock::new(entries) }
    }

    /// Returns the value cached for `key`, running `compile` and caching
    /// its result on first sight.
    ///
    /// # Errors
    ///
    /// Whatever `compile` returns; nothing is cached in that case.
    pub(crate) fn get_or_compile<K>(
        &self,
        key: &K,
        compile: impl FnOnce() -> Result<V, CoreError>,
    ) -> Result<V, CoreError>
    where
        K: CacheKey<Stored = S> + ?Sized,
    {
        let hash = key.bucket();
        {
            let entries = self.entries.read();
            if let Some(found) = entries.lookup(hash, key) {
                return Ok(found);
            }
        }
        // Compile outside any lock: compilation may be slow, may fail
        // and may consult a cache, this one included, and none of that
        // may happen under a guard (`a_compile_may_consult_its_own_cache`).
        let value = compile()?;
        let stored = key.to_stored();
        let mut entries = self.entries.write();
        // Double-check: another thread may have compiled it meanwhile.
        if let Some(found) = entries.lookup(hash, key) {
            return Ok(found);
        }
        entries.insert(hash, stored, value.clone());
        Ok(value)
    }

    /// Number of entries held, at most [`CAPACITY`].
    pub fn len(&self) -> usize {
        self.entries.read().order.len()
    }

    /// `true` when nothing has been cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<S, V: Clone> std::fmt::Debug for CompileCache<S, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompileCache").field("entries", &self.len()).finish()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::sync::Arc;

    /// The convergence property every instantiation must keep: eight
    /// threads racing on one unseen key leave one entry, and every
    /// caller holds the winner's value.
    pub(crate) fn assert_racing_gets_converge<S: Send + Sync, T: Send + Sync + ?Sized>(
        cache: &CompileCache<S, Arc<T>>,
        get: impl Fn() -> Arc<T> + Sync,
    ) {
        let values: Vec<Arc<T>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8).map(|_| scope.spawn(&get)).collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(cache.len(), 1, "all threads share one cache entry");
        let winner = get();
        assert!(values.iter().all(|v| Arc::ptr_eq(v, &winner)));
    }

    type Echo = CompileCache<Box<str>, Arc<str>>;

    fn echo(cache: &Echo, key: &str, compiles: &mut usize) -> Arc<str> {
        cache
            .get_or_compile(key, || {
                *compiles += 1;
                Ok(key.into())
            })
            .unwrap()
    }

    /// The invariant that makes a lock-order checker unnecessary: no
    /// guard in the workspace is held while another lock is taken. The
    /// one place code runs that could take a second lock is `compile`,
    /// and it runs with no guard held, so it may even fill this cache.
    /// Moving `compile()` under either guard deadlocks here; the wait is
    /// bounded so that fails the test instead of hanging the suite.
    #[test]
    fn a_compile_may_consult_its_own_cache() {
        let cache = Arc::new(Echo::new());
        let (tx, rx) = std::sync::mpsc::channel();
        let worker = Arc::clone(&cache);
        let handle = std::thread::spawn(move || {
            let outer = worker.get_or_compile("outer", || {
                let inner = worker.get_or_compile("inner", || Ok("inner".into()))?;
                Ok(format!("outer of {inner}").into())
            });
            let _ = tx.send(outer);
        });
        let outer = rx
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("a nested get_or_compile returns instead of deadlocking");
        handle.join().expect("the worker finishes once it has sent");
        assert_eq!(&*outer.unwrap(), "outer of inner");
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn capacity_bounds_the_cache_and_evicts_oldest_first() {
        let cache = Echo::new();
        let mut compiles = 0;
        let extra = 5;
        for i in 0..CAPACITY + extra {
            echo(&cache, &format!("source {i}"), &mut compiles);
            assert!(cache.len() <= CAPACITY);
        }
        assert_eq!(cache.len(), CAPACITY);
        assert_eq!(compiles, CAPACITY + extra);
        // the newest entries are hits
        echo(&cache, &format!("source {}", CAPACITY + extra - 1), &mut compiles);
        echo(&cache, &format!("source {extra}"), &mut compiles);
        assert_eq!(compiles, CAPACITY + extra, "a held entry is not recompiled");
        // the oldest were evicted: a miss recompiles to an equal value
        assert_eq!(&*echo(&cache, "source 0", &mut compiles), "source 0");
        assert_eq!(compiles, CAPACITY + extra + 1);
        assert_eq!(cache.len(), CAPACITY);
    }

    /// A key whose hash is constant: every entry shares one bucket.
    struct Colliding<'a>(&'a str);

    impl CacheKey for Colliding<'_> {
        type Stored = Box<str>;
        fn bucket(&self) -> u64 {
            7
        }
        fn matches(&self, stored: &Box<str>) -> bool {
            self.0 == &**stored
        }
        fn to_stored(&self) -> Box<str> {
            self.0.into()
        }
    }

    #[test]
    fn colliding_keys_never_answer_for_each_other() {
        let cache = Echo::new();
        let get = |key: &str| cache.get_or_compile(&Colliding(key), || Ok(key.into())).unwrap();
        for i in 0..CAPACITY + 3 {
            let key = format!("k{i}");
            assert_eq!(&*get(&key), key.as_str());
        }
        assert_eq!(cache.len(), CAPACITY, "eviction inside one bucket keeps the bound");
        assert_eq!(&*get("k0"), "k0");
        assert_eq!(&*get(&format!("k{}", CAPACITY + 2)), format!("k{}", CAPACITY + 2).as_str());
    }

    #[test]
    fn bucket_hash_keeps_lengths_and_parts_apart() {
        let one = |bytes: &[u8]| bucket_hash(BUCKET_SEED, bytes);
        let two = |a: &[u8], b: &[u8]| bucket_hash(bucket_hash(BUCKET_SEED, a), b);
        let mut seen = std::collections::HashSet::new();
        for key in [&b""[..], b"\0", b"a", b"a\0", b"abcdefgh", b"abcdefgh\0", b"abcdefghi"] {
            assert!(seen.insert(one(key)), "{key:?} collides");
        }
        assert_ne!(two(b"ab", b"c"), two(b"a", b"bc"));
        assert_ne!(two(b"", b"abc"), one(b"abc"));
        // one word differing anywhere in a long text moves the hash
        let sheet = "x".repeat(1038);
        let mut edited = sheet.clone().into_bytes();
        edited[517] = b'y';
        assert_ne!(one(sheet.as_bytes()), one(&edited));
    }

    #[test]
    fn failed_compile_caches_nothing() {
        let cache = Echo::new();
        let fail = || cache.get_or_compile("key", || Err(CoreError::Unavailable("no".into())));
        assert!(fail().is_err());
        assert!(fail().is_err(), "error repeats, not cached away");
        assert!(cache.is_empty());
    }

    #[test]
    fn racing_gets_converge_on_one_entry() {
        let cache = Echo::new();
        assert_racing_gets_converge(&cache, || {
            cache.get_or_compile("key", || Ok("key".into())).unwrap()
        });
    }
}
