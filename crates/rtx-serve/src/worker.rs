//! The fenced worker loop both services run.
//!
//! A service is one worker thread that owns a unit of work — an index
//! backend for [`QueryService`](crate::QueryService), a whole table for
//! [`TableService`](crate::TableService) — behind one bounded queue that
//! any number of clients feed. The worker drains the queue strictly in
//! submission order, one unit at a time:
//!
//! * a **run of reads**: consecutive read requests up to
//!   [`max_coalesce_ops`](ServiceConfig::max_coalesce_ops) admission-cost
//!   units, handed to the unit as one run;
//! * or **one write**, alone. It is the fence: a write never overtakes the
//!   reads queued before it, because the run stops at it, and it is visible
//!   to every read queued after it, because nothing else runs meanwhile.
//!
//! What a run or a write *does* is the [`Unit`]'s business; admission,
//! draining, the panic guard, the write-stall clock, shutdown and the reply
//! wait are shared.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Instant;

use rtx_query::IndexError;

use crate::config::ServiceConfig;
use crate::error::ServeError;
use crate::service::{Counters, ServiceStats};

/// The sending side of one request's typed answer.
pub(crate) type Reply<T> = mpsc::Sender<Result<T, IndexError>>;

/// The receiving side: what a client waits on.
pub(crate) type Ticket<T> = mpsc::Receiver<Result<T, IndexError>>;

/// A write-side backend call panicked and may have half-applied: the worker
/// must stop.
pub(crate) struct Halt;

/// What the worker does with its unit of work: the part of a service that
/// differs between an index backend and a table.
pub(crate) trait Unit: Send + Sized + 'static {
    /// What clients check before submitting, fixed for the service's life.
    type Profile: Send + Sync;
    /// A queued read, carrying its reply channel.
    type Read: Send;
    /// A queued write, carrying its typed reply channel.
    type Write: Send;

    /// Operations in a read; its admission cost is this, at least 1.
    fn read_ops(read: &Self::Read) -> usize;
    /// Operations in a write; its admission cost is this, at least 1.
    fn write_ops(write: &Self::Write) -> usize;
    /// Mirrors the unit's gauges (memory, persistence) into the counters.
    fn refresh_gauges(&self, shared: &Shared<Self>);
    /// Executes a run of consecutive reads and answers each, leaving `run`
    /// empty.
    fn run_reads(&mut self, run: &mut Vec<Self::Read>, shared: &Shared<Self>);
    /// Applies one write through [`Shared::fence`] and answers it.
    fn apply_write(&mut self, write: Self::Write, shared: &Shared<Self>) -> Result<(), Halt>;
    /// Runs after every unit, while the worker holds the unit exclusively.
    fn after_unit(&mut self, _shared: &Shared<Self>) -> Result<(), Halt> {
        Ok(())
    }
}

/// One queued client request.
enum Request<W: Unit> {
    Read(W::Read),
    Write(W::Write),
}

impl<W: Unit> Request<W> {
    /// Queue-admission cost: operations, at least 1, so empty requests
    /// cannot flood the queue.
    fn cost(&self) -> usize {
        match self {
            Request::Read(read) => W::read_ops(read),
            Request::Write(write) => W::write_ops(write),
        }
        .max(1)
    }
}

/// The submission queue, behind the shared mutex.
struct Queue<W: Unit> {
    requests: VecDeque<Request<W>>,
    /// Total admission cost of the queued requests.
    queued_cost: usize,
    shutdown: bool,
}

/// What one drain took off the queue.
enum Drained<T> {
    /// A run of reads, left in the caller's run buffer.
    Reads,
    /// One write, alone.
    Write(T),
    Shutdown,
}

/// State shared between the clients and the worker thread.
pub(crate) struct Shared<W: Unit> {
    queue: Mutex<Queue<W>>,
    /// Wakes the worker when requests arrive or shutdown is signalled.
    work: Condvar,
    pub(crate) config: ServiceConfig,
    /// The name a panicking unit reports as the failed backend.
    pub(crate) name: Arc<str>,
    pub(crate) profile: W::Profile,
    pub(crate) counters: Counters,
}

impl<W: Unit> Shared<W> {
    fn lock(&self) -> MutexGuard<'_, Queue<W>> {
        // The queue's invariants hold between any two statements that
        // touch it, so a poisoned lock still guards a valid queue.
        self.queue.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Admits one request into the queue (or rejects it), waking the worker
    /// on success.
    fn enqueue(&self, request: Request<W>) -> Result<(), ServeError> {
        let cost = request.cost();
        let max_queue_depth = self.config.max_queue_depth;
        // A submission larger than the whole admission limit could never
        // be admitted — reject it as non-retryable instead of reporting
        // the Overloaded (retry-later) livelock.
        if cost > max_queue_depth {
            return Err(ServeError::TooLarge {
                ops: cost,
                max_queue_depth,
            });
        }
        {
            let mut q = self.lock();
            if q.shutdown {
                return Err(ServeError::ShuttingDown);
            }
            if q.queued_cost + cost > max_queue_depth {
                self.counters
                    .rejected_batches
                    .fetch_add(1, Ordering::Relaxed);
                return Err(ServeError::Overloaded {
                    queued_ops: q.queued_cost,
                    max_queue_depth,
                });
            }
            q.queued_cost += cost;
            self.counters
                .peak_queued_ops
                .fetch_max(q.queued_cost as u64, Ordering::Relaxed);
            q.requests.push_back(request);
        }
        self.work.notify_one();
        Ok(())
    }

    /// Blocks until work is available, then drains the next unit: reads
    /// accumulate into `run` up to the coalesce cap, the first write cuts
    /// the run short (the fence), a leading write is taken alone. Nothing
    /// waits for late arrivals: they join the next drain.
    fn drain(&self, run: &mut Vec<W::Read>) -> Drained<W::Write> {
        run.clear();
        let mut q = self.lock();
        while q.requests.is_empty() {
            if q.shutdown {
                return Drained::Shutdown;
            }
            q = self.work.wait(q).unwrap_or_else(PoisonError::into_inner);
        }

        let max_coalesce_ops = self.config.max_coalesce_ops;
        self.counters
            .linger_decisions
            .fetch_add(1, Ordering::Relaxed);
        let mut run_cost = 0;
        // Pop as many consecutive reads as fit under the coalesce cap.
        while let Some(request) = q.requests.pop_front() {
            let cost = request.cost();
            match request {
                Request::Read(read) if run.is_empty() || run_cost + cost <= max_coalesce_ops => {
                    run.push(read)
                }
                Request::Write(write) if run.is_empty() => {
                    q.queued_cost -= cost;
                    return Drained::Write(write);
                }
                // A read past the cap, or a write behind the run (the
                // fence): it heads the next drain.
                request => {
                    q.requests.push_front(request);
                    break;
                }
            }
            q.queued_cost -= cost;
            run_cost += cost;
            if run_cost >= max_coalesce_ops {
                break;
            }
        }
        debug_assert!(!run.is_empty(), "drain found work but took nothing");
        Drained::Reads
    }

    /// Runs one backend call on the worker, turning a panic into the error
    /// that answers the request (and counting it) instead of unwinding
    /// through the worker. `Err` means the call panicked.
    pub(crate) fn guard_backend<T>(&self, call: impl FnOnce() -> T) -> Result<T, IndexError> {
        catch_unwind(AssertUnwindSafe(call)).map_err(|payload| {
            self.counters.backend_panics.fetch_add(1, Ordering::Relaxed);
            let detail = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_string());
            IndexError::Backend {
                backend: Arc::clone(&self.name),
                message: format!("backend panicked: {detail}"),
            }
        })
    }

    /// Runs one write-side backend call behind the fence: guarded, and
    /// timed as a write stall, since everything queued behind the write
    /// waits exactly this long. A panic may have half-applied the write, so
    /// the queue closes *before* `reply` hears of it, and the worker halts.
    pub(crate) fn fence<T>(
        &self,
        reply: &Reply<T>,
        call: impl FnOnce() -> Result<T, IndexError>,
    ) -> Result<Result<T, IndexError>, Halt> {
        let start = Instant::now();
        let applied = self.guard_backend(call);
        let stall_ns = start.elapsed().as_nanos() as u64;
        let c = &self.counters;
        c.write_stall_ns_total
            .fetch_add(stall_ns, Ordering::Relaxed);
        c.write_stall_ns_max.fetch_max(stall_ns, Ordering::Relaxed);
        applied.map_err(|panicked| {
            self.close();
            let _ = reply.send(Err(panicked));
            Halt
        })
    }

    /// Current queue occupancy in admission-cost units.
    pub(crate) fn queued_ops(&self) -> usize {
        self.lock().queued_cost
    }

    /// Admits a read built around its reply channel and returns the ticket
    /// to claim the answer with.
    pub(crate) fn submit_read<T>(
        &self,
        read: impl FnOnce(Reply<T>) -> W::Read,
    ) -> Result<Ticket<T>, ServeError> {
        let (reply, ticket) = mpsc::channel();
        let read = read(reply);
        let ops = W::read_ops(&read) as u64;
        self.enqueue(Request::Read(read))?;
        let c = &self.counters;
        c.submitted_batches.fetch_add(1, Ordering::Relaxed);
        c.submitted_ops.fetch_add(ops, Ordering::Relaxed);
        Ok(ticket)
    }

    /// Admits a write built around its reply channel and blocks until the
    /// worker has applied it.
    pub(crate) fn submit_write<T>(
        &self,
        write: impl FnOnce(Reply<T>) -> W::Write,
    ) -> Result<T, ServeError> {
        let (reply, ticket) = mpsc::channel();
        self.enqueue(Request::Write(write(reply)))?;
        wait(ticket)
    }

    /// Refuses new requests and drops the queued ones, so their clients see
    /// a closed reply channel ([`ServeError::ShuttingDown`]) instead of
    /// waiting on a worker that is gone.
    fn close(&self) {
        let mut q = self.lock();
        q.shutdown = true;
        q.requests.clear();
        q.queued_cost = 0;
    }
}

/// Closes the queue when the worker leaves, however it leaves. A no-op
/// after a regular shutdown, which exits only once the queue is empty.
struct CloseOnExit<'a, W: Unit>(&'a Shared<W>);

impl<W: Unit> Drop for CloseOnExit<'_, W> {
    fn drop(&mut self) {
        self.0.close();
    }
}

/// The worker loop: drain → run the reads or apply the write → after-unit
/// hook, strictly in queue order, until shutdown *and* an empty queue — or
/// until a write-side call panics, which may have left the unit half
/// updated.
fn work<W: Unit>(shared: &Shared<W>, mut unit: W) {
    let _close = CloseOnExit(shared);
    // The run buffer lives for the whole service: cleared between drains,
    // never reallocated.
    let mut run = Vec::new();
    loop {
        let applied = match shared.drain(&mut run) {
            Drained::Shutdown => return,
            Drained::Reads => {
                unit.run_reads(&mut run, shared);
                Ok(())
            }
            Drained::Write(write) => unit.apply_write(write, shared),
        };
        if applied.and_then(|()| unit.after_unit(shared)).is_err() {
            return;
        }
    }
}

/// The worker thread of a service and its handle on the shared state.
///
/// Dropping it signals shutdown, drains every queued request and joins the
/// thread — already-admitted submissions are still answered, new ones are
/// rejected with [`ServeError::ShuttingDown`].
pub(crate) struct Worker<W: Unit> {
    pub(crate) shared: Arc<Shared<W>>,
    thread: Option<JoinHandle<()>>,
}

impl<W: Unit> Worker<W> {
    /// Starts the worker thread that owns `unit`.
    pub(crate) fn spawn(
        unit: W,
        config: ServiceConfig,
        name: Arc<str>,
        profile: W::Profile,
    ) -> Self {
        let shared = Arc::new(Shared {
            queue: Mutex::new(Queue {
                requests: VecDeque::new(),
                queued_cost: 0,
                shutdown: false,
            }),
            work: Condvar::new(),
            config,
            name,
            profile,
            counters: Counters::default(),
        });
        // Seed the gauges so a service reports its footprint before any
        // write.
        unit.refresh_gauges(&shared);
        let thread = std::thread::Builder::new()
            .name("rtx-serve-worker".to_string())
            .spawn({
                let shared = Arc::clone(&shared);
                move || work(&shared, unit)
            })
            .expect("spawn service worker");
        Worker {
            shared,
            thread: Some(thread),
        }
    }

    /// Shuts the service down (draining the queue) and returns the final
    /// counters.
    pub(crate) fn shutdown(mut self) -> ServiceStats {
        self.stop();
        self.shared.counters.snapshot()
    }

    fn stop(&mut self) {
        self.shared.lock().shutdown = true;
        self.shared.work.notify_all();
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

impl<W: Unit> Drop for Worker<W> {
    fn drop(&mut self) {
        self.stop();
    }
}

impl<W: Unit> std::fmt::Debug for Worker<W> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Worker")
            .field("name", &self.shared.name)
            .field("config", &self.shared.config)
            .finish()
    }
}

/// Blocks until the worker has answered the request behind `ticket`.
pub(crate) fn wait<T>(ticket: Ticket<T>) -> Result<T, ServeError> {
    match ticket.recv() {
        Ok(result) => result.map_err(ServeError::Index),
        // The worker drains the queue before exiting, so a closed channel
        // means the service stopped abnormally.
        Err(mpsc::RecvError) => Err(ServeError::ShuttingDown),
    }
}
