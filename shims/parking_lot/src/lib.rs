//! Minimal offline stand-in for `parking_lot`: a reader-writer lock whose
//! `read()`/`write()` return guards directly (no poison `Result`), which
//! is the only API difference from `std::sync` this workspace relies on.
//! A poisoned lock is recovered transparently, matching parking_lot's
//! "no poisoning" semantics.

use std::sync::{self, PoisonError};

pub use std::sync::{RwLockReadGuard, RwLockWriteGuard};

/// A reader-writer lock with parking_lot's panic-free API.
#[derive(Debug)]
pub struct RwLock<T: ?Sized>(sync::RwLock<T>);

impl<T> RwLock<T> {
    pub fn new(value: T) -> RwLock<T> {
        RwLock(sync::RwLock::new(value))
    }
}

impl<T: ?Sized> RwLock<T> {
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        self.0.read().unwrap_or_else(PoisonError::into_inner)
    }

    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        self.0.write().unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    #[test]
    fn rwlock_reads_and_writes() {
        let l = RwLock::new(vec![1]);
        l.write().push(2);
        assert_eq!(l.read().len(), 2);
    }

    #[test]
    fn a_writer_that_panics_leaves_its_value_readable_and_writable() {
        let l = RwLock::new(vec![1]);
        let result = catch_unwind(AssertUnwindSafe(|| {
            let mut guard = l.write();
            guard.push(2);
            panic!("writer dies holding the guard");
        }));
        assert!(result.is_err());
        assert_eq!(*l.read(), vec![1, 2], "the write before the panic is kept");
        l.write().push(3);
        assert_eq!(*l.read(), vec![1, 2, 3]);
    }
}
