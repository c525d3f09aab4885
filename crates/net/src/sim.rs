//! The discrete-event queue the DES engine drains: its global timeline,
//! on which every query, churn transition and digest refresh runs.

use crate::message::Time;
use std::collections::VecDeque;

/// A deterministic time-ordered event queue.
///
/// Events pop by **timestamp, then push order**: what makes every run
/// (and the [`crate::DesNetwork`] replay logs) byte-for-byte reproducible
/// for a given seed.
///
/// ```
/// use up2p_net::sim::EventQueue;
///
/// let mut q = EventQueue::new();
/// q.push(10, "pushed first");
/// q.push(10, "pushed second");
/// q.push(5, "earlier wins regardless of push order");
/// assert_eq!(q.pop(), Some((5, "earlier wins regardless of push order")));
/// assert_eq!(q.pop(), Some((10, "pushed first")));
/// assert_eq!(q.pop(), Some((10, "pushed second")));
/// assert_eq!(q.pop(), None);
/// ```
///
/// A monotone radix queue, O(1) to push: an event waits in `due` while its
/// time is the last one popped, else in bucket *i*, *i* the highest bit in
/// which the two times differ. Equal times always share a container and
/// every container keeps push order: that is the whole tie-break.
#[derive(Debug, Default)]
pub struct EventQueue<E> {
    /// The time of the last pop, at or before every queued time.
    last: Time,
    due: VecDeque<E>,
    /// Grown on first use.
    buckets: Vec<Vec<(Time, E)>>,
    /// Bit *i* set iff bucket *i* is non-empty.
    occupied: u64,
    len: usize,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue { last: 0, due: VecDeque::new(), buckets: Vec::new(), occupied: 0, len: 0 }
    }

    /// Schedules `event` for delivery at virtual time `at`.
    #[inline]
    pub fn push(&mut self, at: Time, event: E) {
        if at < self.last {
            // a DES query scheduled before the clock after a partial pump:
            // re-file everything against time 0, once, where re-filing
            // against `at` would cost a pass per push of a descending run
            let due_at = std::mem::replace(&mut self.last, 0);
            let due = std::mem::take(&mut self.due).into_iter().map(|e| (due_at, e));
            self.occupied = 0;
            for (t, e) in due.chain(std::mem::take(&mut self.buckets).into_iter().flatten()) {
                self.file(t, e);
            }
        }
        self.file(at, event);
        self.len += 1;
    }

    /// Pops the earliest event, returning `(time, event)`.
    #[inline]
    pub fn pop(&mut self) -> Option<(Time, E)> {
        if self.due.is_empty() {
            self.advance();
        }
        let event = self.due.pop_front()?;
        self.len -= 1;
        Some((self.last, event))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Files `event` against `last`, which `at` is not before.
    fn file(&mut self, at: Time, event: E) {
        let Some(i) = (at ^ self.last).checked_ilog2() else { return self.due.push_back(event) };
        let i = i as usize;
        if self.buckets.len() <= i {
            self.buckets.resize_with(i + 1, Vec::new);
        }
        self.buckets[i].push((at, event));
        self.occupied |= 1 << i;
    }

    /// Moves `last` to the earliest queued time, the minimum of the lowest
    /// non-empty bucket, and re-files that bucket below it: its times are
    /// the only ones that agree with `last` above bit *i*, so every other
    /// bucket keeps its index.
    fn advance(&mut self) {
        let i = self.occupied.trailing_zeros() as usize;
        // all buckets empty: i is 64, and there is no bucket 64
        let Some(bucket) = self.buckets.get_mut(i) else { return };
        let mut bucket = std::mem::take(bucket);
        self.occupied &= !(1 << i);
        self.last = bucket.iter().map(|&(at, _)| at).min().unwrap_or(self.last);
        for (at, event) in bucket.drain(..) {
            self.file(at, event);
        }
        // nothing landed back in bucket i: it keeps its allocation
        self.buckets[i] = bucket;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(30, "c");
        q.push(10, "a");
        q.push(20, "b");
        assert_eq!(q.pop(), Some((10, "a")));
        assert_eq!(q.pop(), Some((20, "b")));
        assert_eq!(q.pop(), Some((30, "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn equal_times_pop_in_push_order() {
        let mut q = EventQueue::new();
        q.push(5, 1);
        q.push(5, 2);
        q.push(5, 3);
        assert_eq!(q.pop().unwrap().1, 1);
        assert_eq!(q.pop().unwrap().1, 2);
        assert_eq!(q.pop().unwrap().1, 3);
    }

    #[test]
    fn len_tracks() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.push(1, ());
        q.push(2, ());
        assert_eq!(q.len(), 2);
        q.pop();
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn descending_pushes_below_the_last_pop_drain_in_order() {
        // one re-file for the whole run: a re-file per push would be
        // quadratic, some 5·10^9 moves, and never finish here
        const N: u64 = 100_000;
        let mut q = EventQueue::new();
        q.push(2 * N, 0);
        q.push(2 * N + 1, 0);
        assert_eq!(q.pop(), Some((2 * N, 0)));
        for at in (N..2 * N).rev() {
            q.push(at, at);
        }
        assert_eq!(q.len(), N as usize + 1);
        for at in N..2 * N {
            assert_eq!(q.pop(), Some((at, at)));
        }
        assert_eq!(q.pop(), Some((2 * N + 1, 0)));
        assert!(q.is_empty());
    }
}
