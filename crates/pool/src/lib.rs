//! A minimal **std-only work-stealing thread pool** for batched top-k
//! execution: one job per query.
//!
//! The workspace builds fully offline (see `vendor/README.md`), so the
//! usual suspects — `rayon`, `crossbeam` — are unavailable. This crate
//! provides the small slice of their functionality the batched query
//! front door (`topk_core::batch::QueryBatch`) actually needs, from `std`
//! primitives only:
//!
//! * [`ThreadPool`] — a fixed set of worker threads, each with its own
//!   task deque. Workers run their own tasks newest-first (locality) and
//!   **steal** oldest-first from siblings when idle, so an uneven batch —
//!   one deep query next to many shallow ones — balances itself.
//! * [`ThreadPool::scope_run`] — structured fork/join: run a batch of
//!   closures (which may borrow from the caller's stack) and return their
//!   outputs **in submission order**. The calling thread *helps* execute
//!   queued tasks while it waits, which makes nested calls from inside a
//!   worker — a job that submits a scope of its own onto the same pool —
//!   deadlock-free by construction: a waiter is always also an executor.
//! * [`model`] — a deterministic schedule model (greedy lane assignment)
//!   mirroring `topk_distributed::LatencyModel`'s role: CI gates on
//!   modelled makespans, which are reproducible on any machine, while
//!   wall-clock numbers remain hardware reports.
//!
//! Panics inside a task are caught on the worker and re-raised from
//! [`ThreadPool::scope_run`] on the submitting thread.
//!
//! ```
//! use topk_pool::ThreadPool;
//!
//! let pool = ThreadPool::new(4);
//! let inputs = vec![1u64, 2, 3, 4, 5, 6, 7, 8];
//! // Borrowing jobs: each closure reads from the caller's stack.
//! let squares = pool.scope_run(
//!     inputs.iter().map(|&x| move || x * x).collect::<Vec<_>>(),
//! );
//! assert_eq!(squares, vec![1, 4, 9, 16, 25, 36, 49, 64]);
//! ```

#![deny(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]

pub mod model;

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Duration;

/// A lifetime-erased unit of work. Tasks are only ever created by
/// [`ThreadPool::scope_run`], which guarantees (by joining before it
/// returns) that every borrow a task captures outlives its execution.
type Task = Box<dyn FnOnce() + Send>;

/// Locks a mutex, ignoring poisoning: pool bookkeeping is a plain counter
/// or an `Option` slot, both valid after a writer panicked between lock
/// and unlock (and task panics are caught *outside* any pool lock anyway).
fn lock_ignore_poison<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    match mutex.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// State shared between the pool handle and its worker threads.
struct Shared {
    /// One deque per worker. The owner pops newest-first from its own
    /// queue; everyone else steals oldest-first.
    queues: Vec<Mutex<VecDeque<Task>>>,
    /// Number of queued (not yet started) tasks, guarded by the mutex the
    /// wakeup condvar waits on.
    pending: Mutex<usize>,
    /// Signalled once per pushed task and at shutdown.
    wakeup: Condvar,
    /// Set by `Drop`; workers exit once their queues are drained.
    shutdown: AtomicBool,
    /// Round-robin cursor for external pushes.
    next_queue: AtomicUsize,
    /// Tasks that went through the queues (inline fast paths excluded).
    executed: AtomicUsize,
}

impl Shared {
    fn push(&self, task: Task) {
        let i = self.next_queue.fetch_add(1, Ordering::Relaxed) % self.queues.len();
        // Increment `pending` BEFORE the task becomes stealable: if the
        // counter were bumped after the push, a concurrent `find_task`
        // could pop the task and saturate its decrement at zero first,
        // leaving the counter permanently over by one — and an overcount
        // turns every idle worker's wait loop into a busy spin. With the
        // increment first, decrements never outrun increments, so the
        // counter can only be transiently high (bounded by in-flight
        // pushes), never permanently wrong.
        {
            let mut pending = lock_ignore_poison(&self.pending);
            *pending += 1;
        }
        lock_ignore_poison(&self.queues[i]).push_back(task);
        self.wakeup.notify_one();
    }

    /// Takes one task: the home queue newest-first, then siblings
    /// oldest-first (classic work stealing — the thief takes the task the
    /// owner would reach last).
    fn find_task(&self, home: usize) -> Option<Task> {
        let width = self.queues.len();
        for offset in 0..width {
            let i = (home + offset) % width;
            let task = {
                let mut queue = lock_ignore_poison(&self.queues[i]);
                if offset == 0 {
                    queue.pop_back()
                } else {
                    queue.pop_front()
                }
            };
            if let Some(task) = task {
                let mut pending = lock_ignore_poison(&self.pending);
                *pending = pending.saturating_sub(1);
                drop(pending);
                self.executed.fetch_add(1, Ordering::Relaxed);
                return Some(task);
            }
        }
        None
    }

    fn worker_loop(self: &Arc<Self>, home: usize) {
        loop {
            if let Some(task) = self.find_task(home) {
                task();
                continue;
            }
            let mut pending = lock_ignore_poison(&self.pending);
            loop {
                if self.shutdown.load(Ordering::Acquire) {
                    return;
                }
                if *pending > 0 {
                    break;
                }
                pending = self
                    .wakeup
                    .wait(pending)
                    .unwrap_or_else(|poisoned| poisoned.into_inner());
            }
        }
    }
}

/// Per-scope join state: how many of the scope's jobs have fully
/// completed, plus the condvar the submitting thread parks on.
struct ScopeSync {
    completed: Mutex<usize>,
    done: Condvar,
}

/// A fixed-size work-stealing thread pool.
///
/// One pool is meant to be shared: the batched query front door
/// (`topk_core::batch::QueryBatch`) dispatches whole queries onto it,
/// batch after batch, and nested [`ThreadPool::scope_run`] calls compose
/// because waiters help execute.
///
/// Dropping the pool joins all worker threads (any in-flight `scope_run`
/// has returned by then — it joins its own tasks before returning).
pub struct ThreadPool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for ThreadPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadPool")
            .field("threads", &self.workers.len())
            .finish()
    }
}

impl topk_trace::MetricSource for ThreadPool {
    fn record_metrics(&self, registry: &mut topk_trace::MetricsRegistry) {
        registry.counter_add("pool.tasks_executed", self.tasks_executed() as u64);
        registry.gauge_set("pool.threads", self.num_threads() as f64);
    }
}

impl ThreadPool {
    /// Spawns a pool of `threads` worker threads.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    pub fn new(threads: usize) -> Self {
        assert!(threads > 0, "a thread pool needs at least one thread");
        let shared = Arc::new(Shared {
            queues: (0..threads).map(|_| Mutex::new(VecDeque::new())).collect(),
            pending: Mutex::new(0),
            wakeup: Condvar::new(),
            shutdown: AtomicBool::new(false),
            next_queue: AtomicUsize::new(0),
            executed: AtomicUsize::new(0),
        });
        let workers = (0..threads)
            .map(|home| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("topk-pool-{home}"))
                    .spawn(move || shared.worker_loop(home))
                    .expect("spawning a pool worker thread")
            })
            .collect();
        ThreadPool { shared, workers }
    }

    /// Number of worker threads.
    pub fn num_threads(&self) -> usize {
        self.workers.len()
    }

    /// Test-only view of the queued-task counter, for asserting it drains
    /// back to zero (an overcount would turn idle workers into busy
    /// spinners).
    #[cfg(test)]
    fn pending_tasks(&self) -> usize {
        *lock_ignore_poison(&self.shared.pending)
    }

    /// Number of tasks that have been dispatched through the pool's
    /// queues so far (whoever ended up running them — a worker or a
    /// helping waiter). A single-job scope runs inline and is not
    /// dispatched, so it is not counted, which makes this an observable
    /// witness that fan-out actually happened — the `batch_scaling` bench
    /// gates on it.
    pub fn tasks_executed(&self) -> usize {
        self.shared.executed.load(Ordering::Relaxed)
    }

    /// Runs every job on the pool and returns their outputs **in job
    /// order** (never in completion order — downstream merges stay
    /// deterministic regardless of thread count).
    ///
    /// Jobs may borrow from the caller's stack: `scope_run` does not
    /// return until every job has finished, so the borrows outlive all
    /// uses. The calling thread participates in execution while it waits
    /// (it may also pick up tasks of *other* concurrent scopes — that is
    /// what makes nested calls from worker threads deadlock-free).
    ///
    /// # Panics
    ///
    /// If a job panics, the panic is re-raised here (after every job of
    /// the scope has completed).
    pub fn scope_run<T, F>(&self, jobs: Vec<F>) -> Vec<T>
    where
        T: Send,
        F: FnOnce() -> T + Send,
    {
        let n = jobs.len();
        if n == 0 {
            return Vec::new();
        }
        if n == 1 {
            // One job cannot be parallelised; run it inline and skip the
            // queue round-trip.
            let job = jobs.into_iter().next().expect("n == 1");
            return vec![job()];
        }

        let slots: Vec<Mutex<Option<std::thread::Result<T>>>> =
            (0..n).map(|_| Mutex::new(None)).collect();
        let sync = ScopeSync {
            completed: Mutex::new(0),
            done: Condvar::new(),
        };

        // Scope ids are drawn on the dispatching thread (where a traced
        // query's dispatches are serialized), so job lanes are assigned
        // deterministically no matter which worker runs which job.
        // `None` — the cold path — when no trace session is observing.
        let trace_scope = topk_trace::pool_scope(n);

        for (i, job) in jobs.into_iter().enumerate() {
            let slot = &slots[i];
            let sync = &sync;
            let task = move || {
                let result = {
                    // The lane guard must flush before the completion
                    // count below releases the caller: a session could
                    // otherwise finish without this job's events.
                    let _lane = trace_scope.map(|s| s.enter_job(i));
                    catch_unwind(AssertUnwindSafe(job))
                };
                *lock_ignore_poison(slot) = Some(result);
                // The completion count is the LAST touch of scope state:
                // once the caller observes `completed == n` (which requires
                // this guard to be released), it may return and invalidate
                // every reference this closure captured.
                let mut completed = lock_ignore_poison(&sync.completed);
                *completed += 1;
                if *completed == n {
                    sync.done.notify_all();
                }
            };
            let erased: Box<dyn FnOnce() + Send + '_> = Box::new(task);
            // SAFETY: `scope_run` only returns after observing
            // `completed == n`, i.e. after every erased task has finished
            // running and released the scope lock, so the non-'static
            // borrows the tasks capture (`slots`, `sync`) are live for
            // every access. After its body returns a task only gets its
            // heap allocation freed, which touches no borrowed state.
            let erased: Task =
                unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + '_>, Task>(erased) };
            self.shared.push(erased);
        }

        // Help until this scope's jobs are all done. Checking the counter
        // first keeps the common case (helper ran the last job itself)
        // free of any condvar round-trip.
        loop {
            if *lock_ignore_poison(&sync.completed) == n {
                break;
            }
            if let Some(task) = self.shared.find_task(0) {
                task();
                continue;
            }
            let completed = lock_ignore_poison(&sync.completed);
            if *completed < n {
                // Timed wait: a task of another scope may be pushed (and
                // worth stealing) without anyone signalling `done`.
                drop(
                    sync.done
                        .wait_timeout(completed, Duration::from_micros(200)),
                );
            }
        }

        let mut outputs = Vec::with_capacity(n);
        for slot in &slots {
            match lock_ignore_poison(slot)
                .take()
                .expect("completed == n implies every slot is filled")
            {
                Ok(value) => outputs.push(value),
                Err(payload) => resume_unwind(payload),
            }
        }
        outputs
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        {
            let _pending = lock_ignore_poison(&self.shared.pending);
            self.shared.wakeup.notify_all();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn runs_every_job_and_preserves_order() {
        let pool = ThreadPool::new(4);
        let outputs = pool.scope_run((0..100u64).map(|i| move || i * 2).collect::<Vec<_>>());
        assert_eq!(outputs, (0..100u64).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn jobs_may_borrow_caller_state() {
        let pool = ThreadPool::new(2);
        let data = vec![10u64, 20, 30, 40];
        let total = AtomicU64::new(0);
        let echoed = pool.scope_run(
            data.iter()
                .map(|&x| {
                    let total = &total;
                    move || {
                        total.fetch_add(x, Ordering::Relaxed);
                        x
                    }
                })
                .collect::<Vec<_>>(),
        );
        assert_eq!(echoed, data);
        assert_eq!(total.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn empty_and_singleton_batches() {
        let pool = ThreadPool::new(2);
        let none: Vec<u64> = pool.scope_run(Vec::<fn() -> u64>::new());
        assert!(none.is_empty());
        assert_eq!(pool.scope_run(vec![|| 7u64]), vec![7]);
        // Neither batch was dispatched through the queues.
        assert_eq!(pool.tasks_executed(), 0);
    }

    #[test]
    fn dispatched_tasks_are_counted_deterministically() {
        for threads in [1, 3] {
            let pool = ThreadPool::new(threads);
            pool.scope_run((0..5u64).map(|i| move || i).collect::<Vec<_>>());
            assert_eq!(pool.tasks_executed(), 5, "{threads} threads");
            pool.scope_run((0..4u64).map(|i| move || i).collect::<Vec<_>>());
            assert_eq!(pool.tasks_executed(), 9, "{threads} threads");
        }
    }

    #[test]
    fn single_threaded_pool_completes_batches() {
        let pool = ThreadPool::new(1);
        assert_eq!(pool.num_threads(), 1);
        let outputs = pool.scope_run((0..32u64).map(|i| move || i + 1).collect::<Vec<_>>());
        assert_eq!(outputs.len(), 32);
        assert_eq!(outputs[31], 32);
    }

    #[test]
    fn nested_scopes_from_worker_threads_do_not_deadlock() {
        // Every outer job fans out an inner batch onto the SAME pool —
        // more outer jobs than threads, so workers must help while they
        // wait on their inner scopes.
        let pool = ThreadPool::new(2);
        let outer = pool.scope_run(
            (0..8u64)
                .map(|i| {
                    let pool = &pool;
                    move || {
                        let inner = pool
                            .scope_run((0..4u64).map(|j| move || i * 10 + j).collect::<Vec<_>>());
                        inner.iter().sum::<u64>()
                    }
                })
                .collect::<Vec<_>>(),
        );
        let expected: Vec<u64> = (0..8u64).map(|i| 4 * 10 * i + 6).collect();
        assert_eq!(outer, expected);
    }

    /// Regression for the push/steal counter race: a thief popping a task
    /// before the submitter's counter increment must not leave `pending`
    /// permanently inflated (that would busy-spin every idle worker).
    /// The helping wait loop polls `find_task` in a tight loop, so many
    /// small scopes from many threads exercise exactly that interleaving.
    #[test]
    fn pending_counter_drains_to_zero_under_concurrent_churn() {
        let pool = ThreadPool::new(4);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for round in 0..200u64 {
                        let got = pool
                            .scope_run((0..3u64).map(|i| move || round + i).collect::<Vec<_>>());
                        assert_eq!(got.len(), 3);
                    }
                });
            }
        });
        assert_eq!(pool.pending_tasks(), 0, "queued-task counter must drain");
    }

    #[test]
    fn outputs_are_independent_of_thread_count() {
        let job_set = || (0..50u64).map(|i| move || i * i).collect::<Vec<_>>();
        let reference = ThreadPool::new(1).scope_run(job_set());
        for threads in [2, 3, 8] {
            assert_eq!(ThreadPool::new(threads).scope_run(job_set()), reference);
        }
    }

    #[test]
    fn panics_propagate_to_the_submitter() {
        let pool = ThreadPool::new(2);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.scope_run(
                (0..4u64)
                    .map(|i| move || if i == 2 { panic!("job 2 exploded") } else { i })
                    .collect::<Vec<_>>(),
            )
        }));
        let payload = result.expect_err("the panic must cross scope_run");
        let message = payload
            .downcast_ref::<&str>()
            .copied()
            .map(str::to_owned)
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(message.contains("job 2 exploded"), "got: {message}");
        // The pool stays usable after a panicking batch.
        assert_eq!(pool.scope_run(vec![|| 1u64, || 2]), vec![1, 2]);
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_are_rejected() {
        let _ = ThreadPool::new(0);
    }

    #[test]
    fn debug_reports_thread_count() {
        let pool = ThreadPool::new(3);
        assert_eq!(format!("{pool:?}"), "ThreadPool { threads: 3 }");
    }
}
