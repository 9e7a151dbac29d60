//! Parallel "kernel" execution and the shared host worker pool.
//!
//! A CUDA kernel launch spawns one logical thread per work item (one per
//! lookup in the raytracing pipeline). The kernel drivers above this crate
//! (`optix_sim::launch` and `gpu_baselines`' lookup kernel) execute those
//! logical threads on a pool of host worker threads: the grid is split into
//! contiguous chunks, and each worker runs its chunk while accumulating
//! counters in a private [`ThreadCtx`]. At the end, all contexts are merged
//! into a single [`KernelStats`] record, which mirrors how Nsight aggregates
//! per-kernel metrics.
//!
//! The pool logic is exposed through two reusable scoped-parallel helpers —
//! [`parallel_tasks`] and [`parallel_map`] — so that callers above the kernel
//! layer (the sharded execution layer, the simulated pipeline) reuse the same
//! width policy and scheduling instead of re-implementing scoped-thread
//! plumbing per call site. The helpers run on one **persistent, process-wide
//! pool** of parked worker threads: a call publishes its fan-out to the pool,
//! participates in draining it from the calling thread, and blocks until
//! every task has finished. Spawning threads per call — the previous
//! design — cost tens of microseconds per submission and dominated the
//! host query path (a sharded execute fans out twice: once per shard, once
//! per kernel chunk). With the shared pool a fan-out costs two mutex
//! acquisitions and at most `worker_count - 1` futex wakes. Each call's
//! *width* is still bounded by [`worker_count`] (so `RTX_WORKERS` keeps
//! timing runs reproducible); nested calls draw helpers from the same pool
//! and degrade to inline execution instead of oversubscribing the machine.

use std::sync::Mutex;

use crate::profiler::KernelStats;

/// Per-logical-thread execution context: local counters that are merged into
/// the kernel's [`KernelStats`] after the launch.
#[derive(Debug, Default)]
pub struct ThreadCtx {
    /// Counters accumulated by this worker.
    pub stats: KernelStats,
}

impl ThreadCtx {
    /// Creates a fresh context.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `n` executed instructions.
    #[inline]
    pub fn add_instructions(&mut self, n: u64) {
        self.stats.instructions += n;
    }

    /// Records a memory read of `bytes` that missed the caches.
    #[inline]
    pub fn add_dram_read(&mut self, bytes: u64) {
        self.stats.dram_bytes_read += bytes;
    }

    /// Records a memory read of `bytes` served by the L2 cache.
    #[inline]
    pub fn add_l2_read(&mut self, bytes: u64) {
        self.stats.l2_hit_bytes += bytes;
    }

    /// Records a memory read of `bytes` served by the L1 cache.
    #[inline]
    pub fn add_l1_read(&mut self, bytes: u64) {
        self.stats.l1_hit_bytes += bytes;
    }
}

/// Hard ceiling on the worker pool, with or without an override.
const MAX_WORKERS: usize = 64;

/// Default cap on the worker pool (kept small so per-test overhead stays
/// reasonable).
const DEFAULT_WORKER_CAP: usize = 16;

/// Number of host worker threads used to execute kernels and coarse parallel
/// tasks.
///
/// Defaults to the machine's available parallelism capped at 16; the
/// logical-thread semantics do not depend on this number. The `RTX_WORKERS`
/// environment variable overrides the detected value, clamped to `1..=64` —
/// `RTX_WORKERS=0` clamps *up* to 1 (fully serial) rather than configuring a
/// zero-worker pool that could never drain [`parallel_tasks`]. The clamp
/// keeps benchmark and CI runs reproducible on heterogeneous hosts; set
/// `RTX_WORKERS=1` for fully serial execution. Non-numeric or empty values
/// fall back to the detected default.
///
/// The variable is read on every call (tests change it in-process); the
/// detected default is read once per process, since detecting it reads the
/// CPU quota (~17 µs, and an allocation) and every launch asks at least
/// twice.
pub fn worker_count() -> usize {
    if let Ok(raw) = std::env::var("RTX_WORKERS") {
        if let Ok(n) = raw.trim().parse::<usize>() {
            return n.clamp(1, MAX_WORKERS);
        }
    }
    static DETECTED: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *DETECTED.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
            .min(DEFAULT_WORKER_CAP)
    })
}

/// The persistent helper-thread pool behind [`parallel_tasks`].
///
/// A fan-out lives on the **submitting thread's stack**; only a raw pointer
/// to it travels through the pool's queue. Soundness rests on a strict
/// protocol:
///
/// 1. a worker may dereference a queued pointer only while holding the
///    queue lock (the submitter cannot have returned: it must take that
///    same lock to retract its entry before unwinding its stack);
/// 2. a worker that wants to help *attaches* (bumps `attached`) under the
///    queue lock, and the submitter blocks until `attached == 0` **and**
///    every claimed task has finished before returning;
/// 3. every task body — on workers and on the submitter — runs under
///    `catch_unwind`, so an unwinding stack can never race a helper that
///    still borrows it; the first panic payload is re-thrown by the
///    submitter once the fan-out has fully quiesced.
mod pool {
    use std::collections::VecDeque;
    use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Condvar, Mutex, OnceLock};

    /// One published fan-out: `run(i)` for every `i in 0..tasks`, claimed
    /// via an atomic cursor by the submitter and any attached helpers.
    struct Fanout {
        /// The type-erased task body, borrowed from the submitter's stack
        /// (lifetime upheld by the attach/retract protocol above).
        run: *const (dyn Fn(usize) + Sync),
        tasks: usize,
        /// Next unclaimed task index (may overshoot `tasks`).
        next: AtomicUsize,
        /// Tasks that have finished running (panicked ones included).
        finished: AtomicUsize,
        /// Helper slots still open — `worker_count() - 1` at submission, so
        /// the configured width bounds each call's concurrency.
        helper_slots: AtomicUsize,
        /// Helpers currently attached (mutated under `gate`).
        attached: Mutex<usize>,
        /// Wakes the submitter when the last task finishes or the last
        /// helper detaches.
        quiesced: Condvar,
        /// First panic payload observed by any claimant.
        panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
    }

    /// Queue entry. The raw pointer is only dereferenced under the pool
    /// queue lock or after attaching — see the module protocol.
    struct FanoutPtr(*const Fanout);
    unsafe impl Send for FanoutPtr {}

    struct Pool {
        queue: Mutex<VecDeque<FanoutPtr>>,
        work: Condvar,
    }

    impl Fanout {
        /// Claims and runs tasks until the cursor is exhausted, recording
        /// completions and capturing the first panic.
        fn drain(&self) {
            let run = unsafe { &*self.run };
            loop {
                let i = self.next.fetch_add(1, Ordering::Relaxed);
                if i >= self.tasks {
                    return;
                }
                if let Err(payload) = catch_unwind(AssertUnwindSafe(|| run(i))) {
                    let mut slot = self.panic.lock().expect("panic slot poisoned");
                    slot.get_or_insert(payload);
                }
                let done = self.finished.fetch_add(1, Ordering::AcqRel) + 1;
                if done == self.tasks {
                    // Lock-then-notify so a submitter between its check and
                    // its wait cannot miss the wakeup.
                    let _gate = self.attached.lock().expect("fanout gate poisoned");
                    self.quiesced.notify_all();
                }
            }
        }
    }

    /// The process-wide pool, spawned on first use with one thread per
    /// available core (bounded by the worker cap). Threads park on the
    /// queue condvar and live for the rest of the process.
    fn pool() -> &'static Pool {
        static POOL: OnceLock<&'static Pool> = OnceLock::new();
        POOL.get_or_init(|| {
            let pool: &'static Pool = Box::leak(Box::new(Pool {
                queue: Mutex::new(VecDeque::new()),
                work: Condvar::new(),
            }));
            let threads = std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4)
                .min(super::MAX_WORKERS);
            for i in 0..threads {
                std::thread::Builder::new()
                    .name(format!("gpu-pool-{i}"))
                    .spawn(move || worker_loop(pool))
                    .expect("spawn pool worker");
            }
            pool
        })
    }

    fn worker_loop(pool: &'static Pool) {
        let mut queue = pool.queue.lock().expect("pool queue poisoned");
        loop {
            // Find a fan-out worth helping: pop entries whose tasks are all
            // claimed or whose helper slots are spent, attach to the first
            // live one (deref is sound: we hold the queue lock).
            let fanout = loop {
                match queue.front() {
                    None => break None,
                    Some(entry) => {
                        let fanout = unsafe { &*entry.0 };
                        if fanout.next.load(Ordering::Relaxed) >= fanout.tasks
                            || fanout
                                .helper_slots
                                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |s| {
                                    s.checked_sub(1)
                                })
                                .is_err()
                        {
                            queue.pop_front();
                            continue;
                        }
                        *fanout.attached.lock().expect("fanout gate poisoned") += 1;
                        break Some(fanout);
                    }
                }
            };
            let Some(fanout) = fanout else {
                queue = pool.work.wait(queue).expect("pool queue poisoned");
                continue;
            };
            drop(queue);

            fanout.drain();
            {
                let mut attached = fanout.attached.lock().expect("fanout gate poisoned");
                *attached -= 1;
                fanout.quiesced.notify_all();
                // The notify happens under the gate: once the submitter
                // observes `attached == 0` this helper no longer touches
                // the fan-out.
            }

            queue = pool.queue.lock().expect("pool queue poisoned");
        }
    }

    /// Publishes `run` over `0..tasks` to the pool, drains it from the
    /// calling thread alongside at most `width - 1` pool helpers, and
    /// returns once every task has finished. Panics in any task are
    /// re-thrown here after the fan-out has quiesced.
    pub(super) fn run_fanout(tasks: usize, width: usize, run: &(dyn Fn(usize) + Sync)) {
        // Erase the borrow's lifetime for storage in the queue; the
        // attach/retract protocol guarantees no claimant outlives the call.
        let run: &'static (dyn Fn(usize) + Sync) =
            unsafe { std::mem::transmute::<&_, &'static _>(run) };
        let fanout = Fanout {
            run,
            tasks,
            next: AtomicUsize::new(0),
            finished: AtomicUsize::new(0),
            helper_slots: AtomicUsize::new(width.saturating_sub(1)),
            attached: Mutex::new(0),
            quiesced: Condvar::new(),
            panic: Mutex::new(None),
        };
        let pool = pool();
        {
            let mut queue = pool.queue.lock().expect("pool queue poisoned");
            queue.push_back(FanoutPtr(&fanout));
        }
        for _ in 0..width.saturating_sub(1) {
            pool.work.notify_one();
        }

        fanout.drain();

        // Retract the queue entry (if no helper consumed it) so no new
        // helper can attach, then wait for the attached ones to finish.
        {
            let mut queue = pool.queue.lock().expect("pool queue poisoned");
            let this = &fanout as *const Fanout;
            queue.retain(|entry| !std::ptr::eq(entry.0, this));
        }
        {
            let mut attached = fanout.attached.lock().expect("fanout gate poisoned");
            while *attached != 0 || fanout.finished.load(Ordering::Acquire) != fanout.tasks {
                attached = fanout
                    .quiesced
                    .wait(attached)
                    .expect("fanout gate poisoned");
            }
        }
        let payload = fanout.panic.lock().expect("panic slot poisoned").take();
        if let Some(payload) = payload {
            resume_unwind(payload);
        }
    }
}

/// Runs `tasks` independent jobs on the shared worker pool and returns
/// their results in task order.
///
/// At most [`worker_count`] jobs run concurrently *per call*; remaining
/// jobs are pulled from a shared counter as claimants free up, so
/// heterogeneous task costs balance dynamically (important when tasks are
/// per-shard sub-batches of very different sizes). With a single worker —
/// or a single task — the jobs run inline on the calling thread without
/// touching the pool. The calling thread always participates in draining
/// its own fan-out, so a call makes progress even when every pool thread
/// is busy; nested calls therefore compose without deadlock (they simply
/// degrade toward inline execution under pool pressure).
pub fn parallel_tasks<R, F>(tasks: usize, run: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    if tasks == 0 {
        return Vec::new();
    }
    let workers = worker_count().min(tasks);
    if workers == 1 {
        return (0..tasks).map(run).collect();
    }

    let results: Vec<Mutex<Option<R>>> = (0..tasks).map(|_| Mutex::new(None)).collect();
    pool::run_fanout(tasks, workers, &|i| {
        let r = run(i);
        *results[i].lock().expect("task slot poisoned") = Some(r);
    });

    results
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("task slot poisoned")
                .expect("task result missing")
        })
        .collect()
}

/// Runs `run(index, item)` over every item on the worker pool, returning the
/// results in item order. Like [`parallel_tasks`], but each job takes
/// ownership of its input — the natural shape for fanning out per-shard
/// columns or per-worker output slices.
pub fn parallel_map<T, R, F>(items: Vec<T>, run: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    parallel_tasks(slots.len(), |i| {
        let item = slots[i]
            .lock()
            .expect("item slot poisoned")
            .take()
            .expect("item taken twice");
        run(i, item)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn worker_count_is_positive_and_bounded() {
        let w = worker_count();
        assert!((1..=MAX_WORKERS).contains(&w));
    }

    /// Serialises the tests that mutate `RTX_WORKERS` (process-global env).
    static ENV_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn rtx_workers_env_overrides_worker_count() {
        // Other tests in this binary never read RTX_WORKERS with a value
        // set, and every value used here stays within the documented clamp,
        // so a concurrent `worker_count` call observing the override is
        // still valid.
        let _guard = ENV_LOCK.lock().unwrap();
        std::env::set_var("RTX_WORKERS", "3");
        assert_eq!(worker_count(), 3);
        std::env::set_var("RTX_WORKERS", "100000");
        assert_eq!(worker_count(), MAX_WORKERS, "override clamps at the cap");
        let detected = {
            std::env::remove_var("RTX_WORKERS");
            worker_count()
        };
        for invalid in ["-2", "many", ""] {
            std::env::set_var("RTX_WORKERS", invalid);
            assert_eq!(worker_count(), detected, "invalid {invalid:?} ignored");
        }
        std::env::remove_var("RTX_WORKERS");
    }

    #[test]
    fn rtx_workers_zero_clamps_to_one_worker() {
        // A zero-worker pool could never drain `parallel_tasks`, so 0 must
        // clamp up to fully serial execution instead of being honoured.
        let _guard = ENV_LOCK.lock().unwrap();
        std::env::set_var("RTX_WORKERS", "0");
        assert_eq!(worker_count(), 1, "0 clamps to serial, not to a dead pool");
        let results = parallel_tasks(64, |i| i + 1);
        assert_eq!(results.len(), 64, "the clamped pool still drains");
        assert!(results.iter().enumerate().all(|(i, &r)| r == i + 1));
        std::env::remove_var("RTX_WORKERS");
    }

    #[test]
    fn parallel_tasks_preserves_task_order() {
        let results = parallel_tasks(257, |i| i * 3);
        assert_eq!(results.len(), 257);
        assert!(results.iter().enumerate().all(|(i, &r)| r == i * 3));
        assert!(parallel_tasks(0, |i| i).is_empty());
    }

    #[test]
    fn parallel_tasks_runs_every_task_exactly_once() {
        let hits = AtomicU64::new(0);
        let _ = parallel_tasks(1000, |_| hits.fetch_add(1, Ordering::Relaxed));
        assert_eq!(hits.load(Ordering::Relaxed), 1000);
    }

    #[test]
    fn parallel_map_moves_items_and_keeps_order() {
        let items: Vec<String> = (0..100).map(|i| format!("item-{i}")).collect();
        let results = parallel_map(items, |i, s| format!("{s}/{i}"));
        assert!(results
            .iter()
            .enumerate()
            .all(|(i, r)| *r == format!("item-{i}/{i}")));
        assert!(parallel_map(Vec::<u8>::new(), |_, b| b).is_empty());
    }

    #[test]
    fn nested_parallel_tasks_compose() {
        // A coarse task that itself fans a kernel's chunks out over the pool
        // (the sharded-execution shape) must not deadlock or lose work.
        let totals = parallel_tasks(4, |t| {
            parallel_tasks(100, |_| t as u64 + 1).iter().sum::<u64>()
        });
        assert_eq!(totals, vec![100, 200, 300, 400]);
    }
}
