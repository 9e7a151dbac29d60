//! Reusable execution scratch: [`ExecArena`] and the concurrent
//! [`ArenaPool`].
//!
//! A [`QueryBatch`](crate::QueryBatch) already stores its point keys and
//! range bounds as the dense runs the backend hooks take, so the executor
//! ([`SecondaryIndex::execute_in`]) borrows the point run as it is. What it
//! still derives per execution is the submission slot of every operation
//! and the range run with the inverted (empty) ranges filtered out. Done
//! naively that allocates three scratch vectors per execution, which at
//! service rates (thousands of fused submissions per second) turns the
//! allocator into a fixed per-submission tax. An [`ExecArena`] owns those
//! buffers and is reused across submissions: they are cleared (length, not
//! capacity) and refilled, so steady-state execution performs no scratch
//! allocation at all.
//!
//! [`ArenaPool`] extends the same reuse to concurrent executors — the
//! sharded scatter path checks one arena out per in-flight shard task and
//! returns it afterwards, so a fixed working set of arenas serves any
//! number of submissions.
//!
//! [`SecondaryIndex::execute_in`]: crate::SecondaryIndex::execute_in

use std::sync::Mutex;

/// Reusable scratch buffers for one mixed-batch execution.
///
/// Obtain one with [`ExecArena::new`] (or from an [`ArenaPool`]) and thread
/// it through [`execute_in`](crate::SecondaryIndex::execute_in) calls. The
/// arena carries no result state between executions — every call clears and
/// refills it — so reusing one arena across different backends and batches
/// is always correct; reuse only buys back the allocations.
#[derive(Debug, Default)]
pub struct ExecArena {
    /// Submission-order slots of the point lookups, parallel to the
    /// batch's own point run.
    pub(crate) point_slots: Vec<usize>,
    /// Submission-order slots of the non-inverted range lookups.
    pub(crate) range_slots: Vec<usize>,
    /// Inclusive range bounds, parallel to `range_slots`.
    pub(crate) range_bounds: Vec<(u64, u64)>,
}

impl ExecArena {
    /// A fresh arena; buffers grow on first use and are kept afterwards.
    pub fn new() -> Self {
        ExecArena::default()
    }

    /// Clears every buffer, keeping capacity.
    pub(crate) fn clear(&mut self) {
        self.point_slots.clear();
        self.range_slots.clear();
        self.range_bounds.clear();
    }

    /// Total capacity currently retained, in entries (a reuse diagnostic).
    pub fn capacity(&self) -> usize {
        self.point_slots.capacity() + self.range_slots.capacity() + self.range_bounds.capacity()
    }
}

/// A concurrent free list of [`ExecArena`]s.
///
/// Executors that fan work out (the sharded scatter path) run every
/// in-flight task [`with`](ArenaPool::with) an arena of the pool; the pool
/// grows to the peak concurrency ever observed and then serves every later
/// submission allocation-free.
#[derive(Debug, Default)]
pub struct ArenaPool {
    free: Mutex<Vec<ExecArena>>,
}

impl ArenaPool {
    /// An empty pool.
    pub fn new() -> Self {
        ArenaPool::default()
    }

    /// Checks an arena out, creating a fresh one when the pool is empty.
    fn check_out(&self) -> ExecArena {
        self.free
            .lock()
            .expect("arena pool poisoned")
            .pop()
            .unwrap_or_default()
    }

    /// Returns an arena to the pool for later reuse.
    fn check_in(&self, arena: ExecArena) {
        self.free.lock().expect("arena pool poisoned").push(arena);
    }

    /// Runs `f` with a checked-out arena, returning it afterwards (also on
    /// the error path — the arena is returned before `f`'s result is
    /// propagated).
    pub fn with<R>(&self, f: impl FnOnce(&mut ExecArena) -> R) -> R {
        let mut arena = self.check_out();
        let result = f(&mut arena);
        self.check_in(arena);
        result
    }

    /// Number of arenas currently parked in the pool.
    pub fn idle(&self) -> usize {
        self.free.lock().expect("arena pool poisoned").len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arena_reuse_keeps_capacity() {
        let mut arena = ExecArena::new();
        arena.point_slots.extend(0..200);
        arena.range_slots.extend(0..10);
        arena.range_bounds.extend((0..10).map(|i| (i, i + 1)));
        let cap = arena.capacity();
        assert!(cap >= 220);
        arena.clear();
        assert!(arena.point_slots.is_empty() && arena.range_bounds.is_empty());
        assert_eq!(arena.capacity(), cap, "clear keeps capacity");
    }

    #[test]
    fn pool_round_trips_arenas() {
        let pool = ArenaPool::new();
        assert_eq!(pool.idle(), 0);
        let mut a = pool.check_out();
        a.point_slots.extend(0..1000);
        a.point_slots.clear();
        let cap = a.capacity();
        pool.check_in(a);
        assert_eq!(pool.idle(), 1);
        // The same arena (same capacity) comes back out.
        let b = pool.check_out();
        assert_eq!(b.capacity(), cap);
        assert_eq!(pool.idle(), 0);
        pool.check_in(b);
        pool.with(|arena| arena.point_slots.push(1));
        assert_eq!(pool.idle(), 1);
    }
}
