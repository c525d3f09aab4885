//! Minimal offline stand-in for `parking_lot`: mutexes and rwlocks whose
//! `lock()`/`read()`/`write()` return guards directly (no poison `Result`),
//! which is the only API difference from `std::sync` this workspace relies
//! on. Poisoned locks are recovered transparently, matching parking_lot's
//! "no poisoning" semantics.
//!
//! **Debug builds add a lock-order runtime checker** that cross-validates
//! the static `up2p-analyzer` lock-discipline rule: every acquisition is
//! recorded on a per-thread held stack, nested acquisitions feed a global
//! observed-order table keyed by lock *class* (the `with_name` label, or
//! the instance identity for anonymous locks), and the process panics the
//! moment two classes are ever taken in both orders — the ABBA deadlock
//! shape, caught on the first inverted acquisition rather than the first
//! actual deadlock. Release builds compile all of this away.

use std::sync::{self, PoisonError};

pub use lock_order::{observed_pairs, reset as reset_lock_order};

/// Lock-order tracking: per-thread held stacks and the global
/// observed-pair table. Active in debug builds only.
pub mod lock_order {
    use std::collections::HashMap;
    #[cfg(debug_assertions)]
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::{Mutex as StdMutex, OnceLock, PoisonError};

    /// Identity of a lock for ordering purposes: its declared class name,
    /// or the anonymous instance id. Only debug builds track locks, so
    /// only they construct one; release builds keep the type because the
    /// (then always empty) observed-pair table is keyed by it.
    #[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
    #[cfg_attr(not(debug_assertions), allow(dead_code))]
    pub(crate) enum LockKey {
        Named(&'static str),
        Anon(u64),
    }

    impl std::fmt::Display for LockKey {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            match self {
                LockKey::Named(n) => write!(f, "{n}"),
                LockKey::Anon(id) => write!(f, "<anonymous lock #{id}>"),
            }
        }
    }

    #[cfg(debug_assertions)]
    pub(crate) static NEXT_ID: AtomicU64 = AtomicU64::new(1);

    /// A monotonically increasing token per acquisition, so guards can be
    /// released out of LIFO order.
    #[cfg(debug_assertions)]
    static NEXT_TOKEN: AtomicU64 = AtomicU64::new(1);

    /// Directed pairs `(held, acquired)` ever observed, with the thread
    /// name that first observed them.
    type Observed = HashMap<(LockKey, LockKey), String>;

    fn observed() -> std::sync::MutexGuard<'static, Observed> {
        static OBSERVED: OnceLock<StdMutex<Observed>> = OnceLock::new();
        let table = OBSERVED.get_or_init(|| StdMutex::new(HashMap::new()));
        table.lock().unwrap_or_else(PoisonError::into_inner)
    }

    #[cfg(debug_assertions)]
    thread_local! {
        static HELD: std::cell::RefCell<Vec<(LockKey, u64)>> =
            const { std::cell::RefCell::new(Vec::new()) };
    }

    /// Clears the observed pairs (test isolation).
    pub fn reset() {
        observed().clear();
    }

    /// Every `(held, acquired)` class pair observed so far, rendered as
    /// strings, sorted. Debug builds only; empty in release builds.
    pub fn observed_pairs() -> Vec<(String, String)> {
        let mut v: Vec<(String, String)> =
            observed().keys().map(|(a, b)| (a.to_string(), b.to_string())).collect();
        v.sort();
        v
    }

    /// Records an acquisition, asserting order discipline. Returns the
    /// release token.
    #[cfg(debug_assertions)]
    pub(crate) fn acquired(key: &LockKey) -> u64 {
        let token = NEXT_TOKEN.fetch_add(1, Ordering::Relaxed);
        let held_snapshot: Vec<LockKey> =
            HELD.with(|h| h.borrow().iter().map(|(k, _)| k.clone()).collect());
        if !held_snapshot.is_empty() {
            let thread = std::thread::current().name().unwrap_or("<unnamed>").to_string();
            // decide violations while holding the registry lock, panic after
            let mut violation: Option<String> = None;
            {
                let mut pairs = observed();
                for h in &held_snapshot {
                    if h == key {
                        violation = Some(format!(
                            "lock-order violation: nested acquisition of lock class \
                             `{key}` (no intra-class order exists)"
                        ));
                        break;
                    }
                    // dynamic inversion: has the reverse pair ever happened?
                    if let Some(first_thread) = pairs.get(&(key.clone(), h.clone())).cloned() {
                        violation = Some(format!(
                            "lock-order inversion: this thread acquires `{key}` while \
                             holding `{h}`, but thread `{first_thread}` previously \
                             acquired `{h}` while holding `{key}` — ABBA deadlock shape"
                        ));
                        break;
                    }
                    pairs.entry((h.clone(), key.clone())).or_insert_with(|| thread.clone());
                }
            }
            if let Some(message) = violation {
                panic!("{message}");
            }
        }
        HELD.with(|h| h.borrow_mut().push((key.clone(), token)));
        token
    }

    /// Records a release by token (guards may drop in any order).
    #[cfg(debug_assertions)]
    pub(crate) fn released(token: u64) {
        HELD.with(|h| {
            let mut held = h.borrow_mut();
            if let Some(pos) = held.iter().rposition(|(_, t)| *t == token) {
                held.remove(pos);
            }
        });
    }
}

#[cfg(debug_assertions)]
use lock_order::LockKey;

/// Tracking payload of an instrumented lock: its class key in debug
/// builds, nothing in release builds.
#[derive(Debug)]
struct Tracking {
    #[cfg(debug_assertions)]
    key: LockKey,
}

impl Tracking {
    fn new(_name: Option<&'static str>) -> Tracking {
        Tracking {
            #[cfg(debug_assertions)]
            key: match _name {
                Some(n) => LockKey::Named(n),
                None => LockKey::Anon(
                    lock_order::NEXT_ID.fetch_add(1, std::sync::atomic::Ordering::Relaxed),
                ),
            },
        }
    }

    fn acquired(&self) -> ReleaseToken {
        ReleaseToken {
            #[cfg(debug_assertions)]
            token: lock_order::acquired(&self.key),
        }
    }
}

/// Pops the acquisition record when the guard drops.
#[derive(Debug)]
struct ReleaseToken {
    #[cfg(debug_assertions)]
    token: u64,
}

impl Drop for ReleaseToken {
    fn drop(&mut self) {
        #[cfg(debug_assertions)]
        lock_order::released(self.token);
    }
}

/// A mutex with parking_lot's panic-free locking API.
#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized> {
    tracking: Tracking,
    inner: sync::Mutex<T>,
}

impl Default for Tracking {
    fn default() -> Tracking {
        Tracking::new(None)
    }
}

/// RAII guard for [`Mutex::lock`]; releases the lock (and its order-
/// tracking record) on drop.
#[derive(Debug)]
pub struct MutexGuard<'a, T: ?Sized> {
    inner: sync::MutexGuard<'a, T>,
    _release: ReleaseToken,
}

impl<T: ?Sized> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> std::ops::DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

impl<T> Mutex<T> {
    pub fn new(value: T) -> Mutex<T> {
        Mutex { tracking: Tracking::new(None), inner: sync::Mutex::new(value) }
    }

    /// A mutex carrying a lock-class name for the debug-build order
    /// checker: all locks sharing a name form one class in the order
    /// graph, mirroring how the static analyzer classes guards by
    /// receiver field name.
    pub fn with_name(name: &'static str, value: T) -> Mutex<T> {
        Mutex { tracking: Tracking::new(Some(name)), inner: sync::Mutex::new(value) }
    }

    pub fn into_inner(self) -> T {
        self.inner.into_inner().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> Mutex<T> {
    pub fn lock(&self) -> MutexGuard<'_, T> {
        let inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        MutexGuard { inner, _release: self.tracking.acquired() }
    }

    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match self.inner.try_lock() {
            Ok(g) => Some(MutexGuard { inner: g, _release: self.tracking.acquired() }),
            Err(sync::TryLockError::Poisoned(p)) => {
                Some(MutexGuard { inner: p.into_inner(), _release: self.tracking.acquired() })
            }
            Err(sync::TryLockError::WouldBlock) => None,
        }
    }

    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A reader-writer lock with parking_lot's panic-free API.
#[derive(Debug, Default)]
pub struct RwLock<T: ?Sized> {
    tracking: Tracking,
    inner: sync::RwLock<T>,
}

/// RAII guard for [`RwLock::read`].
#[derive(Debug)]
pub struct RwLockReadGuard<'a, T: ?Sized> {
    inner: sync::RwLockReadGuard<'a, T>,
    _release: ReleaseToken,
}

impl<T: ?Sized> std::ops::Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

/// RAII guard for [`RwLock::write`].
#[derive(Debug)]
pub struct RwLockWriteGuard<'a, T: ?Sized> {
    inner: sync::RwLockWriteGuard<'a, T>,
    _release: ReleaseToken,
}

impl<T: ?Sized> std::ops::Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> std::ops::DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

impl<T> RwLock<T> {
    pub fn new(value: T) -> RwLock<T> {
        RwLock { tracking: Tracking::new(None), inner: sync::RwLock::new(value) }
    }

    /// An rwlock carrying a lock-class name for the debug-build order
    /// checker. Read and write acquisitions count the same for ordering.
    pub fn with_name(name: &'static str, value: T) -> RwLock<T> {
        RwLock { tracking: Tracking::new(Some(name)), inner: sync::RwLock::new(value) }
    }

    pub fn into_inner(self) -> T {
        self.inner.into_inner().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> RwLock<T> {
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        let inner = self.inner.read().unwrap_or_else(PoisonError::into_inner);
        RwLockReadGuard { inner, _release: self.tracking.acquired() }
    }

    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        let inner = self.inner.write().unwrap_or_else(PoisonError::into_inner);
        RwLockWriteGuard { inner, _release: self.tracking.acquired() }
    }

    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::Mutex as StdMutex;

    /// The order registry is process-global; serialize the tests that
    /// depend on it so `reset()` calls don't race.
    fn registry_guard() -> std::sync::MutexGuard<'static, ()> {
        static GATE: StdMutex<()> = StdMutex::new(());
        GATE.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn mutex_locks_without_result() {
        let m = Mutex::new(1);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
        assert!(m.try_lock().is_some());
    }

    #[test]
    fn rwlock_reads_and_writes() {
        let l = RwLock::new(vec![1]);
        l.write().push(2);
        assert_eq!(l.read().len(), 2);
    }

    #[test]
    fn consistent_nesting_is_recorded_not_punished() {
        let _g = registry_guard();
        lock_order::reset();
        let a = Mutex::with_name("test.consistent.a", 1);
        let b = Mutex::with_name("test.consistent.b", 2);
        for _ in 0..2 {
            let ga = a.lock();
            let gb = b.lock();
            assert_eq!(*ga + *gb, 3);
        }
        let recorded = observed_pairs()
            .iter()
            .any(|(f, t)| f == "test.consistent.a" && t == "test.consistent.b");
        // a release build records nothing, so there is no pair to find
        assert_eq!(recorded, cfg!(debug_assertions));
        lock_order::reset();
    }

    #[test]
    fn inversion_panics_in_debug_builds() {
        let _g = registry_guard();
        lock_order::reset();
        let a = Mutex::with_name("test.inv.a", ());
        let b = Mutex::with_name("test.inv.b", ());
        {
            let _ga = a.lock();
            let _gb = b.lock(); // records a → b
        }
        let result = catch_unwind(AssertUnwindSafe(|| {
            let _gb = b.lock();
            let _ga = a.lock(); // b → a: inversion
        }));
        if cfg!(debug_assertions) {
            let err = result.expect_err("inverted order must panic in debug builds");
            let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
            assert!(msg.contains("inversion"), "unexpected panic message: {msg}");
        } else {
            assert!(result.is_ok());
        }
        lock_order::reset();
    }

    #[test]
    fn out_of_order_guard_drops_are_fine() {
        let _g = registry_guard();
        lock_order::reset();
        let a = Mutex::with_name("test.drops.a", ());
        let b = Mutex::with_name("test.drops.b", ());
        let ga = a.lock();
        let gb = b.lock();
        drop(ga); // release the outer guard first
        drop(gb);
        // b is no longer held, so this is not an inversion of a live guard
        let _gb = b.lock();
        lock_order::reset();
    }

    #[test]
    fn anonymous_locks_do_not_collide_as_a_class() {
        let _g = registry_guard();
        lock_order::reset();
        let a = Mutex::new(());
        let b = Mutex::new(());
        let ga = a.lock();
        let gb = b.lock(); // distinct anonymous identities: no violation
        drop(gb);
        drop(ga);
        lock_order::reset();
    }
}
