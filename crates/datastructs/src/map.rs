//! The [`ConcurrentMap`] interface shared by all four evaluated data structures, plus
//! a sequential reference model used by correctness tests.
//!
//! The paper benchmarks set-like maps with 64-bit keys; `insert` does not overwrite an
//! existing key (it returns `false`), matching the behaviour of the original
//! implementations used in the evaluation.

use flit::{FlitDb, FlitHandle, Policy};
use flit_alloc::ArenaConfig;
use flit_ebr::Guard;

/// A concurrent ordered or unordered map from `u64` keys to `u64` values, generic
/// over the persistence [`Policy`].
///
/// Construction takes the owning [`FlitDb`] (the facade holding the policy, the
/// EBR collector and the arena registry); **every operation takes the calling
/// thread's [`FlitHandle`]** — the explicit session whose persist epoch the
/// operation's fences and flushes are attributed to (`map.insert(&h, k, v)`).
/// The handle must come from the same database the map was built in
/// (debug-asserted by the wrappers).
///
/// Structures implement only the operation bodies (`get_op`, `insert_op`,
/// `remove_op`). The provided [`get`](Self::get), [`insert`](Self::insert) and
/// [`remove`](Self::remove) wrappers pin the handle, run a body under that
/// guard and call [`FlitHandle::operation_completion`] exactly once before
/// unpinning, so every operation meets the P-V interface's Condition 4 on
/// every return path by construction. (Completing while still pinned keeps the
/// completion's counter update from waiting on the unpin's store.)
///
/// Keys must be strictly smaller than `u64::MAX - 16`: the top few key values are
/// reserved for the sentinel nodes of the tree and list structures.
pub trait ConcurrentMap<P: Policy>: Send + Sync {
    /// Short name used in benchmark output (`"list"`, `"bst"`, ...).
    const NAME: &'static str;

    /// Build an empty map in `db`, expected to hold roughly `capacity_hint` keys
    /// (used by the hash table to size its bucket array; ignored by the others).
    fn with_capacity(db: &FlitDb<P>, capacity_hint: usize) -> Self;

    /// [`ConcurrentMap::with_capacity`] with an explicit arena sizing config, so
    /// multi-instance systems (one map per shard) can grow each map's arena in
    /// instance-sized steps. The default implementation ignores the config —
    /// structures whose node arenas are sized by their own internal rules keep
    /// those rules; the hash table honours it.
    fn with_capacity_cfg(db: &FlitDb<P>, capacity_hint: usize, config: ArenaConfig) -> Self
    where
        Self: Sized,
    {
        let _ = config;
        Self::with_capacity(db, capacity_hint)
    }

    /// Look up `key`, returning its value if present. Completes the operation:
    /// runs [`get_op`](Self::get_op), then `h.operation_completion()` once.
    #[inline]
    fn get(&self, h: &FlitHandle<'_, P>, key: u64) -> Option<u64> {
        debug_assert_eq!(h.db_id(), self.db().id(), "handle from another FlitDb");
        let guard = h.pin();
        let result = self.get_op(h, key, &guard);
        h.operation_completion();
        result
    }

    /// Insert `(key, value)`; returns `false` (without modifying the map) when the key
    /// is already present. Completes the operation like [`get`](Self::get).
    #[inline]
    fn insert(&self, h: &FlitHandle<'_, P>, key: u64, value: u64) -> bool {
        debug_assert_eq!(h.db_id(), self.db().id(), "handle from another FlitDb");
        let guard = h.pin();
        let result = self.insert_op(h, key, value, &guard);
        h.operation_completion();
        result
    }

    /// Remove `key`; returns `false` when it was not present. Completes the
    /// operation like [`get`](Self::get).
    #[inline]
    fn remove(&self, h: &FlitHandle<'_, P>, key: u64) -> bool {
        debug_assert_eq!(h.db_id(), self.db().id(), "handle from another FlitDb");
        let guard = h.pin();
        let result = self.remove_op(h, key, &guard);
        h.operation_completion();
        result
    }

    /// The body of [`get`](Self::get): the structure's lookup under the
    /// wrapper's `guard`, without the completion. Call it only from a wrapper
    /// or from another structure's body that delegates to this one (the hash
    /// table's bucket lists); a bare call returns without persisting what the
    /// lookup p-loaded.
    fn get_op(&self, h: &FlitHandle<'_, P>, key: u64, guard: &Guard<'_>) -> Option<u64>;

    /// The body of [`insert`](Self::insert); the same rule as
    /// [`get_op`](Self::get_op).
    fn insert_op(&self, h: &FlitHandle<'_, P>, key: u64, value: u64, guard: &Guard<'_>) -> bool;

    /// The body of [`remove`](Self::remove); the same rule as
    /// [`get_op`](Self::get_op).
    fn remove_op(&self, h: &FlitHandle<'_, P>, key: u64, guard: &Guard<'_>) -> bool;

    /// `true` if `key` is present.
    fn contains(&self, h: &FlitHandle<'_, P>, key: u64) -> bool {
        self.get(h, key).is_some()
    }

    /// Enumerate the `(key, value)` pairs whose key matches `prefix` under
    /// `mask` (`key & mask == prefix & mask`; a zero mask selects everything),
    /// read from a **frozen snapshot** taken at call time — concurrent updates
    /// during the walk do not appear in the result. Pairs are sorted by key.
    ///
    /// Returns `None` when the structure cannot take snapshots — the in-place
    /// structures mutate nodes under the reader's feet, so any walk they could
    /// offer would be a non-atomic view. Structures with copy-on-write roots
    /// (the HAMT) override this with a real retained-root snapshot.
    fn snapshot_scan(
        &self,
        h: &FlitHandle<'_, P>,
        prefix: u64,
        mask: u64,
    ) -> Option<Vec<(u64, u64)>> {
        let _ = (h, prefix, mask);
        None
    }

    /// Number of keys currently present. Only meaningful in quiescent states; intended
    /// for tests and for validating pre-fill (raw loads: no handle required).
    fn len(&self) -> usize;

    /// `true` when the map holds no keys (quiescent states only).
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The database this map lives in (handles are created from it; its policy
    /// carries the statistics).
    fn db(&self) -> &FlitDb<P>;

    /// Access the persistence policy (e.g. to read its statistics).
    fn policy(&self) -> &P {
        self.db().policy()
    }
}

/// Largest key value usable by callers (larger values are reserved for sentinels).
pub const MAX_USER_KEY: u64 = u64::MAX - 16;

/// A trivially correct sequential map used as the model in property-based tests: a
/// `BTreeMap` behind a mutex, exposing the same insert-does-not-overwrite semantics.
#[derive(Debug, Default)]
pub struct SequentialMap {
    inner: std::sync::Mutex<std::collections::BTreeMap<u64, u64>>,
}

impl SequentialMap {
    /// Create an empty model map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Model lookup.
    pub fn get(&self, key: u64) -> Option<u64> {
        self.inner.lock().unwrap().get(&key).copied()
    }

    /// Model insert (no overwrite).
    pub fn insert(&self, key: u64, value: u64) -> bool {
        let mut m = self.inner.lock().unwrap();
        if let std::collections::btree_map::Entry::Vacant(e) = m.entry(key) {
            e.insert(value);
            true
        } else {
            false
        }
    }

    /// Model remove.
    pub fn remove(&self, key: u64) -> bool {
        self.inner.lock().unwrap().remove(&key).is_some()
    }

    /// Model size.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().len()
    }

    /// Model emptiness.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_model_semantics() {
        let m = SequentialMap::new();
        assert!(m.is_empty());
        assert!(m.insert(1, 10));
        assert!(!m.insert(1, 20), "insert must not overwrite");
        assert_eq!(m.get(1), Some(10));
        assert!(m.remove(1));
        assert!(!m.remove(1));
        assert_eq!(m.len(), 0);
    }
}
