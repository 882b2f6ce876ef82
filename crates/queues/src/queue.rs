//! The [`ConcurrentQueue`] interface shared by the durable queues, plus a sequential
//! reference model used by correctness tests.
//!
//! This mirrors [`flit_datastructs::ConcurrentMap`]: values are single machine words
//! (`u64`), construction takes the persistence policy, and the policy is reachable
//! from the structure so harnesses can read its statistics.

use flit::{FlitDb, FlitHandle, Policy};
use flit_ebr::Guard;

/// A concurrent FIFO queue of `u64` values, generic over the persistence [`Policy`].
///
/// Construction takes the owning [`FlitDb`]; **every operation takes the calling
/// thread's [`FlitHandle`]** (`queue.enqueue(&h, v)`), mirroring
/// [`flit_datastructs::ConcurrentMap`]. Structures implement only the bodies
/// (`enqueue_op`, `dequeue_op`); the provided [`enqueue`](Self::enqueue) and
/// [`dequeue`](Self::dequeue) wrappers pin the handle, run a body under that
/// guard and call [`FlitHandle::operation_completion`] exactly once before
/// unpinning.
///
/// `enqueue` always succeeds (the queue is unbounded); `dequeue` returns `None` when
/// the queue is observed empty. Both are linearizable, and durably linearizable when
/// instantiated with a persistent policy and a durability method that persists the
/// result-defining stores.
pub trait ConcurrentQueue<P: Policy>: Send + Sync {
    /// Short name used in benchmark output (`"msqueue"`, ...).
    const NAME: &'static str;

    /// Build an empty queue in `db`.
    fn in_db(db: &FlitDb<P>) -> Self;

    /// Append `value` at the tail. Completes the operation: runs
    /// [`enqueue_op`](Self::enqueue_op), then `h.operation_completion()` once.
    #[inline]
    fn enqueue(&self, h: &FlitHandle<'_, P>, value: u64) {
        debug_assert_eq!(h.db_id(), self.db().id(), "handle from another FlitDb");
        let guard = h.pin();
        self.enqueue_op(h, value, &guard);
        h.operation_completion();
    }

    /// Remove and return the value at the head, or `None` if the queue is empty.
    /// Completes the operation like [`enqueue`](Self::enqueue).
    #[inline]
    fn dequeue(&self, h: &FlitHandle<'_, P>) -> Option<u64> {
        debug_assert_eq!(h.db_id(), self.db().id(), "handle from another FlitDb");
        let guard = h.pin();
        let result = self.dequeue_op(h, &guard);
        h.operation_completion();
        result
    }

    /// The body of [`enqueue`](Self::enqueue) under the wrapper's `guard`,
    /// without the completion. Call it only from the wrapper: a bare call
    /// returns before the enqueued node is known to be persisted.
    fn enqueue_op(&self, h: &FlitHandle<'_, P>, value: u64, guard: &Guard<'_>);

    /// The body of [`dequeue`](Self::dequeue); the same rule as
    /// [`enqueue_op`](Self::enqueue_op).
    fn dequeue_op(&self, h: &FlitHandle<'_, P>, guard: &Guard<'_>) -> Option<u64>;

    /// Number of values currently queued. Only meaningful in quiescent states;
    /// intended for tests and for validating pre-fill (raw loads: no handle
    /// required).
    fn len(&self) -> usize;

    /// `true` when the queue holds no values (quiescent states only).
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The database this queue lives in.
    fn db(&self) -> &FlitDb<P>;

    /// Access the persistence policy (e.g. to read its statistics).
    fn policy(&self) -> &P {
        self.db().policy()
    }
}

/// A trivially correct sequential queue used as the model in property-based tests: a
/// `VecDeque` behind a mutex.
#[derive(Debug, Default)]
pub struct SequentialQueue {
    inner: std::sync::Mutex<std::collections::VecDeque<u64>>,
}

impl SequentialQueue {
    /// Create an empty model queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Model enqueue.
    pub fn enqueue(&self, value: u64) {
        self.inner.lock().unwrap().push_back(value);
    }

    /// Model dequeue.
    pub fn dequeue(&self) -> Option<u64> {
        self.inner.lock().unwrap().pop_front()
    }

    /// Model size.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().len()
    }

    /// Model emptiness.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The queued values in FIFO order (used to compare against a concurrent
    /// queue's quiescent contents).
    pub fn snapshot(&self) -> Vec<u64> {
        self.inner.lock().unwrap().iter().copied().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_model_is_fifo() {
        let q = SequentialQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.dequeue(), None);
        q.enqueue(1);
        q.enqueue(2);
        q.enqueue(3);
        assert_eq!(q.len(), 3);
        assert_eq!(q.dequeue(), Some(1));
        assert_eq!(q.dequeue(), Some(2));
        assert_eq!(q.dequeue(), Some(3));
        assert_eq!(q.dequeue(), None);
    }

    #[test]
    fn snapshot_preserves_order() {
        let q = SequentialQueue::new();
        for v in [5u64, 7, 9] {
            q.enqueue(v);
        }
        assert_eq!(q.snapshot(), vec![5, 7, 9]);
        q.dequeue();
        assert_eq!(q.snapshot(), vec![7, 9]);
    }
}
