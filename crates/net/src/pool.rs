//! Thread-pool fan-out for batch query serving.
//!
//! [`serve_batch`] is the pooled driver behind
//! [`crate::PeerNetwork::search_batch`] on the Napster substrate:
//! `workers` scoped threads evaluate a strided partition of the request
//! indices against shared read-only state (the per-request evaluator
//! takes `&self`-style shared state — for the Napster server that is
//! [`crate::ShardedIndexNode::search`], which takes the node's read
//! guard), stream `(index, result)` pairs back
//! over a crossbeam channel, and the caller reassembles them in request
//! order so batch output is deterministic and identical to sequential
//! serving.
//!
//! The strided partition (worker `w` takes indices `w, w+N, w+2N, ...`)
//! exists because the crossbeam shim's `Receiver` is single-consumer:
//! work cannot be pulled from a shared queue, so it is dealt like cards
//! instead — which also keeps the assignment independent of timing.

use crossbeam::channel;

/// Evaluates `count` requests with `workers` threads, returning results
/// in request order. `eval(i)` must be safe to call from any thread
/// (shared state behind read guards); each index is evaluated exactly
/// once. With `workers <= 1` (or a single request) evaluation is inline
/// — no threads, no channel.
///
/// ```
/// let squares = up2p_net::serve_batch(4, 10, |i| (i * i) as u64);
/// assert_eq!(squares, (0..10).map(|i| (i * i) as u64).collect::<Vec<_>>());
/// ```
pub fn serve_batch<R, F>(workers: usize, count: usize, eval: F) -> Vec<R>
where
    R: Send + Default,
    F: Fn(usize) -> R + Sync,
{
    let workers = workers.max(1).min(count);
    if workers <= 1 {
        return (0..count).map(eval).collect();
    }
    let mut out: Vec<R> = Vec::new();
    out.resize_with(count, R::default);
    let (tx, rx) = channel::unbounded::<(usize, R)>();
    std::thread::scope(|scope| {
        for w in 0..workers {
            let tx = tx.clone();
            let eval = &eval;
            scope.spawn(move || {
                let mut i = w;
                while i < count {
                    if tx.send((i, eval(i))).is_err() {
                        return;
                    }
                    i += workers;
                }
            });
        }
        drop(tx);
        while let Ok((i, result)) = rx.recv() {
            if let Some(slot) = out.get_mut(i) {
                *slot = result;
            }
        }
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn results_arrive_in_request_order_at_any_width() {
        for workers in [0, 1, 2, 3, 8, 64] {
            let calls = AtomicU64::new(0);
            let out = serve_batch(workers, 23, |i| {
                calls.fetch_add(1, Ordering::Relaxed);
                i * 2
            });
            assert_eq!(out, (0..23).map(|i| i * 2).collect::<Vec<_>>(), "workers={workers}");
            assert_eq!(calls.load(Ordering::Relaxed), 23, "each index evaluated exactly once");
        }
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let out: Vec<u64> = serve_batch(8, 0, |_| 1);
        assert!(out.is_empty());
    }
}
