//! The process-wide worker pool behind [`super::for_each_index`].
//!
//! Pool threads are spawned lazily, up to the largest `workers` any
//! caller has asked for, and then live for the rest of the process,
//! parked on a condition variable between fan-outs. One fan-out is one
//! [`Job`]: a queue entry that lends up to `workers` pool threads, an
//! atomic counter they claim indices from, and a count of unfinished
//! indices the calling thread sleeps on. Jobs are served oldest first,
//! so concurrent callers share the threads instead of each spawning
//! its own.

use std::any::Any;
use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::{self, Thread};

/// The payload of a task panic.
type Panic = Box<dyn Any + Send + 'static>;

/// One fan-out: `task(0..total)`, shared by the pool threads lent to it.
struct Job {
    /// The caller's closure, its lifetime erased by [`run`].
    task: &'static (dyn Fn(usize) + Sync),
    total: usize,
    /// The next unclaimed index.
    next: AtomicUsize,
    /// Indices not yet finished; the caller waits for zero.
    pending: AtomicUsize,
    /// The first task panic, re-raised on the caller.
    panic: Mutex<Option<Panic>>,
    caller: Thread,
}

impl Job {
    /// Claims and runs indices until none is left, waking the caller
    /// when the last one finishes.
    fn work(&self) {
        loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.total {
                return;
            }
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| (self.task)(i))) {
                lock(&self.panic).get_or_insert(payload);
            }
            // Release publishes the task's writes to the caller, whose
            // Acquire load of zero in `run` pairs with it; `next` only
            // hands out indices and publishes nothing.
            if self.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
                self.caller.unpark();
            }
        }
    }
}

struct State {
    /// Jobs still lending threads, oldest first, each with the number
    /// of pool threads it may still take.
    queue: VecDeque<(Arc<Job>, usize)>,
    /// Pool threads spawned so far.
    threads: usize,
    /// Pool threads parked on [`Pool::work`].
    idle: usize,
}

struct Pool {
    state: Mutex<State>,
    work: Condvar,
}

static POOL: Pool = Pool {
    state: Mutex::new(State {
        queue: VecDeque::new(),
        threads: 0,
        idle: 0,
    }),
    work: Condvar::new(),
};

thread_local! {
    static ON_POOL_THREAD: Cell<bool> = const { Cell::new(false) };
}

/// Whether the current thread is a pool thread, i.e. inside a task.
pub(super) fn on_pool_thread() -> bool {
    ON_POOL_THREAD.with(Cell::get)
}

/// Every update under the pool's locks leaves their data valid at each
/// step (the one panic inside them is a failed spawn, before the count
/// moves), so a poisoned lock is recovered, not propagated.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Runs `task(0..total)` on up to `workers` (at least one) pool threads
/// and returns once every index has finished, re-raising the first task
/// panic. The calling thread runs no task.
pub(super) fn run(workers: usize, total: usize, task: &(dyn Fn(usize) + Sync)) {
    // SAFETY: only the lifetime is erased. A pool thread calls `task`
    // only for an index below `total` that it claimed, and this
    // function returns only after `pending` reaches zero, i.e. after
    // every such call has returned. Later claims see an index of at
    // least `total` and never touch `task`, so no call outlives the
    // borrow, just as with `std::thread::scope`.
    let task: &'static (dyn Fn(usize) + Sync) = unsafe { std::mem::transmute(task) };
    let job = Arc::new(Job {
        task,
        total,
        next: AtomicUsize::new(0),
        pending: AtomicUsize::new(total),
        panic: Mutex::new(None),
        caller: thread::current(),
    });
    let wake = {
        let mut state = lock(&POOL.state);
        while state.threads < workers {
            spawn_worker(state.threads);
            state.threads += 1;
        }
        state.queue.push_back((Arc::clone(&job), workers));
        workers.min(state.idle)
    };
    for _ in 0..wake {
        POOL.work.notify_one();
    }
    while job.pending.load(Ordering::Acquire) != 0 {
        thread::park();
    }
    let panic = lock(&job.panic).take();
    if let Some(payload) = panic {
        resume_unwind(payload);
    }
}

fn spawn_worker(n: usize) {
    thread::Builder::new()
        .name(format!("grid-pool-{n}"))
        .spawn(|| {
            ON_POOL_THREAD.with(|on| on.set(true));
            loop {
                next_job().work();
            }
        })
        .expect("spawn a grid pool thread");
}

/// Parks until a job lends this thread, then takes the lend. Jobs whose
/// indices are all claimed leave the queue unserved.
fn next_job() -> Arc<Job> {
    let mut state = lock(&POOL.state);
    loop {
        while let Some((job, lends)) = state.queue.front_mut() {
            if job.next.load(Ordering::Relaxed) >= job.total {
                state.queue.pop_front();
                continue;
            }
            let job = Arc::clone(job);
            *lends -= 1;
            if *lends == 0 {
                state.queue.pop_front();
            }
            return job;
        }
        state.idle += 1;
        state = POOL
            .work
            .wait(state)
            .unwrap_or_else(PoisonError::into_inner);
        state.idle -= 1;
    }
}
