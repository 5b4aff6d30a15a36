//! Persistent worker pool behind the `par` fan-out primitives.
//!
//! Before this module existed, every `par::map`/`for_slabs`/… call spawned
//! fresh OS threads through `std::thread::scope`. A thread spawn costs tens
//! of microseconds; a compiled 16-qubit circuit run fans out once per
//! kernel op, a batched `serve` solve once per phase, and the sharded
//! annealer once per color class per exchange round — so per-call spawning
//! taxed every hot path in the workspace at once. This pool parks a set of
//! long-lived workers on a condvar and turns each fan-out into a
//! register + wake + claim handshake (a handful of uncontended mutex
//! acquisitions), amortizing thread creation across the process lifetime.
//!
//! # Execution model
//!
//! [`run`] takes a slice of jobs (one closure per pre-chunked piece of
//! work — the chunk geometry is fixed by the caller in `par`, never here)
//! and returns when every job has executed exactly once:
//!
//! 1. The caller publishes a [`Batch`] — a stack-allocated descriptor
//!    holding the job pointers and two counters (`next` claimed, `done`
//!    finished) — into the process-wide registry and wakes the workers.
//! 2. Idle workers and **the caller itself** claim jobs one at a time
//!    under the registry lock and execute them outside it. The caller
//!    claims only from its own batch; workers claim from the oldest batch
//!    with unclaimed jobs.
//! 3. When its batch is fully claimed, the caller parks on the completion
//!    condvar until `done == n` (the per-call barrier), then resumes any
//!    worker panic.
//!
//! Because the caller is always an eligible executor of its own jobs, a
//! fan-out issued *from inside a pool worker* (Portfolio → sharded
//! annealer → slab kernels) makes progress even when every other worker is
//! busy: the nested caller simply runs all of its own chunks. Reentrancy
//! can therefore never deadlock — no job ever *waits* on a pool slot, only
//! on jobs that some live thread (possibly itself) has already claimed.
//!
//! Workers are spawned lazily, one short of the largest fan-out width seen
//! so far (the caller is the last executor), and never exit. A batch
//! never spawns more than `par::thread_count() − 1` workers, however many
//! jobs it holds: `par::map` and `par::map_rng` hand the pool up to eight
//! chunks per thread and `par::map_uneven` one job per coarse item, and
//! the jobs beyond the pool's width wait for whichever executor frees up
//! first, in order. Shrinking `par::set_threads` masks workers rather
//! than retiring them: the chunk geometry callers build from
//! [`super::thread_count`] is what bounds concurrency, and surplus workers
//! just stay parked.
//!
//! # Determinism
//!
//! The pool executes jobs it is handed; it never splits, merges, or
//! reorders the work inside them. Which thread runs a job — and in what
//! interleaving — is scheduling-dependent, but every job writes only its
//! own output slots (the `par` contract), so results are byte-for-byte
//! identical for any thread count. The `par` unit tests and the
//! `parallel_determinism` suite pin 1-vs-N-thread equality.
//!
//! # Safety argument (the one `unsafe` core in the workspace)
//!
//! The workspace forbids `unsafe` everywhere except this module (the
//! `qmldb-math` manifest downgrades the workspace-wide `forbid` to `deny`
//! so this file alone can opt in; every other crate keeps the forbid).
//! Executing borrowed closures on threads that outlive the borrow requires
//! erasing lifetimes, exactly as `rayon`/`crossbeam` do. The erasure is
//! sound because of four invariants, each marked at its use site:
//!
//! 1. **Borrows outlive execution.** [`run`] does not return until
//!    `done == n`, and `done` is incremented only *after* a claimed job
//!    finishes. So every erased `&mut dyn FnMut` strictly outlives all
//!    calls through it, and the `Batch`/job-pointer array on the caller's
//!    stack outlives every dereference.
//! 2. **Exclusive claims.** `next` is incremented under the registry
//!    mutex, handing each job index to exactly one executor; a job is
//!    called at most once, so the `&mut` aliasing rule holds.
//! 3. **No dangling registry entries.** A batch is pushed before any
//!    worker can see it and removed (under the same lock) the moment its
//!    last job is claimed — and `run` cannot return before that, since
//!    `done == n` requires `next == n`. Executors touch the batch pointer
//!    only between their lock-guarded claim and lock-guarded completion
//!    report, both of which happen before `done` reaches `n`.
//! 4. **All shared counters are lock-guarded.** `next`, `done`, and the
//!    panic slot are touched only while holding the registry mutex, so no
//!    data race exists and no atomics are needed; user code never runs
//!    under the lock, so the mutex cannot deadlock or poison on the fast
//!    path (poisoning is recovered defensively anyway).
//!
//! Panics inside a job are caught at the executor, recorded in the batch
//! (first panic wins, matching `std::thread::scope`), and resumed on the
//! calling thread after the barrier — so a caller observes a worker panic
//! exactly where `std::thread::scope` would have surfaced it, and the
//! pool (which never unwinds through its own state) stays usable.
#![allow(unsafe_code)]
#![deny(unsafe_op_in_unsafe_fn)]
#![warn(clippy::undocumented_unsafe_blocks)]

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

/// A lifetime-erased job pointer. The `'static` here is a lie told only
/// inside this module: invariant 1 (see module docs) guarantees the
/// pointee outlives every call through the pointer.
type RawJob = *mut (dyn FnMut() + Send + 'static);

/// One fan-out call's shared state. Lives on the calling thread's stack
/// for the duration of [`run`]; the registry holds a raw pointer to it
/// (invariant 3 bounds that pointer's visibility).
struct Batch {
    /// Pointer to the caller's array of erased job pointers.
    jobs: *mut RawJob,
    /// Total jobs in the batch.
    n: usize,
    /// Jobs claimed so far (lock-guarded). Registry invariant: a batch is
    /// listed if and only if `next < n`.
    next: usize,
    /// Jobs finished so far (lock-guarded). `run` returns after this
    /// reaches `n`.
    done: usize,
    /// First panic payload caught from a job, resumed by the caller.
    panic: Option<Box<dyn std::any::Any + Send>>,
}

/// Registry entry. Raw pointers are not `Send`, but every access to the
/// pointee is serialized by the registry mutex and bounded by invariant 3,
/// so moving the pointer between threads is sound.
struct BatchPtr(*mut Batch);
// SAFETY: see `BatchPtr` docs — all dereferences are lock-guarded and the
// pointee outlives its registry entry (module invariant 3).
unsafe impl Send for BatchPtr {}

struct State {
    /// Batches with at least one unclaimed job, oldest first.
    queue: Vec<BatchPtr>,
    /// Worker threads spawned so far (they never exit).
    workers: usize,
}

struct Shared {
    state: Mutex<State>,
    /// Workers park here when the queue is empty.
    work_cv: Condvar,
    /// Callers park here waiting for their batch's completion barrier.
    done_cv: Condvar,
}

fn shared() -> &'static Shared {
    static SHARED: OnceLock<Shared> = OnceLock::new();
    SHARED.get_or_init(|| Shared {
        state: Mutex::new(State {
            queue: Vec::new(),
            workers: 0,
        }),
        work_cv: Condvar::new(),
        done_cv: Condvar::new(),
    })
}

/// Locks the registry, recovering from poisoning: no user code ever runs
/// while the lock is held (invariant 4), so a poisoned state is still
/// consistent — the panic that poisoned it happened outside the guard.
fn lock(shared: &Shared) -> MutexGuard<'_, State> {
    shared.state.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Upper bound on pool size. Chunk geometry already caps useful fan-out
/// width at `par::thread_count()`; this is a backstop against a runaway
/// `set_threads` value, not a tuning knob. Jobs beyond the cap are simply
/// executed by the caller.
const MAX_WORKERS: usize = 512;

/// Spawns workers until at least `wanted` exist (capped). Spawn failure
/// degrades gracefully: the caller executes whatever workers don't claim.
fn ensure_workers(st: &mut State, wanted: usize) {
    let wanted = wanted.min(MAX_WORKERS);
    while st.workers < wanted {
        let name = format!("qmldb-par-{}", st.workers);
        match std::thread::Builder::new().name(name).spawn(worker_loop) {
            Ok(_) => st.workers += 1,
            Err(_) => break,
        }
    }
}

/// Claims one job under the lock: from the specific batch `only` (the
/// caller's own), or from the oldest queued batch (workers). Removes the
/// batch from the queue when its last job is claimed.
fn claim(st: &mut State, only: Option<*mut Batch>) -> Option<(*mut Batch, RawJob)> {
    let pos = match only {
        Some(bp) => st.queue.iter().position(|q| q.0 == bp)?,
        None => {
            if st.queue.is_empty() {
                return None;
            }
            0
        }
    };
    let bp = st.queue[pos].0;
    // SAFETY: queue entries point to live `Batch` values (module invariant
    // 3): the owning `run` frame cannot have returned, because removal
    // from the queue happens below under this same lock and `run` blocks
    // until `done == n`, which requires every claim to complete first.
    let b = unsafe { &mut *bp };
    debug_assert!(b.next < b.n, "queued batch must have unclaimed jobs");
    let idx = b.next;
    b.next += 1;
    // SAFETY: `idx < n` (queue invariant) keeps the read in bounds of the
    // caller's job array, which outlives the batch's queue entry
    // (invariant 1); `next` hands out each index exactly once
    // (invariant 2), so the returned pointer grants exclusive access.
    let job = unsafe { *b.jobs.add(idx) };
    if b.next == b.n {
        st.queue.remove(pos);
    }
    Some((bp, job))
}

/// Runs one claimed job and reports its completion (and any panic) back
/// to the batch under the lock. Shared by workers and callers.
fn execute(shared: &Shared, bp: *mut Batch, job: RawJob) {
    // `AssertUnwindSafe`: on panic the job's captures may be mid-mutation,
    // but the caller resumes the panic after the barrier, so the only
    // observer of that state is the unwind itself — the same exposure
    // `std::thread::scope` has.
    //
    // SAFETY: `claim` granted exclusive access to this job (invariant 2)
    // and the pointee outlives the call (invariant 1).
    let result = catch_unwind(AssertUnwindSafe(|| unsafe { (*job)() }));
    let st = lock(shared);
    // SAFETY: the batch is alive: its `run` frame is still blocked on the
    // completion barrier, because this job's `done` increment — happening
    // right now, under the lock — has not been counted yet (invariant 3).
    let b = unsafe { &mut *bp };
    if let Err(payload) = result {
        if b.panic.is_none() {
            b.panic = Some(payload);
        }
    }
    b.done += 1;
    if b.done == b.n {
        shared.done_cv.notify_all();
    }
    drop(st);
}

/// The persistent worker body: claim → execute → repeat, parking on the
/// work condvar when no batch has unclaimed jobs. Job panics are caught in
/// [`execute`], so a worker never dies.
fn worker_loop() {
    let shared = shared();
    let mut st = lock(shared);
    loop {
        match claim(&mut st, None) {
            Some((bp, job)) => {
                drop(st);
                execute(shared, bp, job);
                st = lock(shared);
            }
            None => {
                st = shared
                    .work_cv
                    .wait(st)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        }
    }
}

/// Executes every job in `jobs` exactly once, in parallel on the
/// persistent pool, and returns once all have finished. The calling
/// thread participates as an executor of its own batch, so this is safe
/// to call from inside a pool worker (nested fan-out) and completes even
/// if no worker is ever available. If a job panics, the first panic is
/// re-raised on the calling thread *after* all jobs have finished —
/// the same surface as `std::thread::scope` — and the pool remains
/// usable afterwards.
pub fn run(jobs: &mut [&mut (dyn FnMut() + Send + '_)]) {
    let n = jobs.len();
    if n == 0 {
        return;
    }
    if n == 1 {
        // One job needs no dispatch; run it inline, panics propagate
        // naturally.
        jobs[0]();
        return;
    }
    let mut raw: Vec<RawJob> = jobs
        .iter_mut()
        .map(|job| {
            let ptr: *mut (dyn FnMut() + Send + '_) = &mut **job;
            // SAFETY: pure lifetime erasure — both pointer types have the
            // same layout, and invariant 1 (the barrier below) guarantees
            // the pointee outlives every call through the erased pointer.
            unsafe { std::mem::transmute::<*mut (dyn FnMut() + Send + '_), RawJob>(ptr) }
        })
        .collect();
    let mut batch = Batch {
        jobs: raw.as_mut_ptr(),
        n,
        next: 0,
        done: 0,
        panic: None,
    };
    let shared = shared();
    // The single pointer every access between publish and barrier release
    // goes through — local claims, worker claims, `done` reports, and the
    // barrier's own reads all share one provenance, synchronized by the
    // registry lock.
    let bp: *mut Batch = &mut batch;

    // Publish the batch and wake the pool. Workers may start claiming the
    // moment the lock drops.
    {
        let mut st = lock(shared);
        // The caller is one executor, so `thread_count() − 1` workers
        // give the configured width. A batch with more jobs than that
        // (`par::map_uneven`) queues the rest for whoever frees up first.
        ensure_workers(&mut st, n.min(super::thread_count()) - 1);
        st.queue.push(BatchPtr(bp));
        shared.work_cv.notify_all();
    }

    // Work the caller's own batch until every job is claimed. This is the
    // reentrancy guarantee: even with zero free workers, the loop drains
    // the whole batch on this thread.
    loop {
        let claimed = {
            let mut st = lock(shared);
            claim(&mut st, Some(bp))
        };
        match claimed {
            Some((b, job)) => execute(shared, b, job),
            None => break,
        }
    }

    // Completion barrier: wait for jobs claimed by workers. The condition
    // is mutated by *other* threads (executors bump `done` through the
    // registered pointer while they hold the lock `wait` releases), which
    // the lint cannot see.
    #[allow(clippy::while_immutable_condition)]
    {
        let mut st = lock(shared);
        // SAFETY: `batch` lives in this frame, and executors touch it only
        // under the registry lock this thread holds whenever it evaluates
        // the condition (invariant 4).
        while unsafe { (*bp).done < (*bp).n } {
            st = shared
                .done_cv
                .wait(st)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
    // From here the batch is unreachable: it left the queue at the last
    // claim, and every executor's last touch was its lock-guarded `done`
    // report, all of which happened before the barrier released.
    drop(raw);

    if let Some(payload) = batch.panic.take() {
        resume_unwind(payload);
    }
}

/// Pool introspection for tests and diagnostics: workers spawned so far.
pub fn worker_count() -> usize {
    lock(shared()).workers
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Builds a job slice from a Vec of closures and runs it.
    fn run_closures<J: FnMut() + Send>(jobs: &mut [J]) {
        let mut refs: Vec<&mut (dyn FnMut() + Send)> = jobs
            .iter_mut()
            .map(|j| j as &mut (dyn FnMut() + Send))
            .collect();
        run(&mut refs);
    }

    #[test]
    fn runs_every_job_exactly_once() {
        let counts: Vec<AtomicUsize> = (0..16).map(|_| AtomicUsize::new(0)).collect();
        let mut jobs: Vec<_> = (0..16)
            .map(|i| {
                let counts = &counts;
                move || {
                    counts[i].fetch_add(1, Ordering::Relaxed);
                }
            })
            .collect();
        run_closures(&mut jobs);
        for (i, c) in counts.iter().enumerate() {
            assert_eq!(
                c.load(Ordering::Relaxed),
                1,
                "job {i} ran a wrong number of times"
            );
        }
    }

    #[test]
    fn jobs_write_disjoint_borrowed_output() {
        let mut out = vec![0u64; 8];
        {
            let mut jobs: Vec<_> = out
                .chunks_mut(2)
                .enumerate()
                .map(|(ci, chunk)| {
                    move || {
                        for (k, slot) in chunk.iter_mut().enumerate() {
                            *slot = (ci * 2 + k) as u64 + 100;
                        }
                    }
                })
                .collect();
            run_closures(&mut jobs);
        }
        assert_eq!(out, (100..108).collect::<Vec<u64>>());
    }

    #[test]
    fn empty_and_single_job_batches_run_inline() {
        let mut empty: Vec<fn()> = Vec::new();
        let mut refs: Vec<&mut (dyn FnMut() + Send)> = empty
            .iter_mut()
            .map(|j| j as &mut (dyn FnMut() + Send))
            .collect();
        run(&mut refs);

        let mut hit = false;
        {
            let mut jobs = vec![|| hit = true];
            run_closures(&mut jobs);
        }
        assert!(hit);
    }

    #[test]
    fn nested_run_from_inside_a_job_completes() {
        // Reentrant fan-out: jobs themselves fan out. With all workers
        // potentially busy on the outer batch, the inner callers must
        // drain their own batches (caller-as-executor rule).
        let total = AtomicUsize::new(0);
        let mut outer: Vec<_> = (0..4)
            .map(|_| {
                let total = &total;
                move || {
                    let mut inner: Vec<_> = (0..4)
                        .map(|_| {
                            let total = &total;
                            move || {
                                total.fetch_add(1, Ordering::Relaxed);
                            }
                        })
                        .collect();
                    run_closures(&mut inner);
                }
            })
            .collect();
        run_closures(&mut outer);
        assert_eq!(total.load(Ordering::Relaxed), 16);
    }

    #[test]
    fn panic_propagates_and_pool_survives() {
        let before = worker_count();
        let result = std::panic::catch_unwind(|| {
            let mut jobs: Vec<Box<dyn FnMut() + Send>> = vec![
                Box::new(|| {}),
                Box::new(|| panic!("job exploded")),
                Box::new(|| {}),
                Box::new(|| {}),
            ];
            let mut refs: Vec<&mut (dyn FnMut() + Send)> =
                jobs.iter_mut().map(|j| &mut **j).collect();
            run(&mut refs);
        });
        let payload = result.expect_err("panic must reach the caller");
        let msg = payload
            .downcast_ref::<&str>()
            .copied()
            .unwrap_or("<non-str payload>");
        assert!(msg.contains("job exploded"), "wrong payload: {msg}");
        assert!(worker_count() >= before, "workers must not die on panic");

        // The pool keeps working after a caught panic.
        let mut out = vec![0usize; 6];
        {
            let mut jobs: Vec<_> = out
                .chunks_mut(1)
                .enumerate()
                .map(|(i, chunk)| move || chunk[0] = i + 1)
                .collect();
            run_closures(&mut jobs);
        }
        assert_eq!(out, vec![1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn many_sequential_batches_reuse_workers() {
        // Dispatch amortization smoke test: the worker count must not grow
        // with the number of fan-outs, only with the widest one.
        let mut widest = 0;
        for round in 0..64 {
            let width = 2 + round % 3;
            widest = widest.max(width);
            let mut acc = vec![0usize; width];
            let mut jobs: Vec<_> = acc
                .chunks_mut(1)
                .enumerate()
                .map(|(i, chunk)| move || chunk[0] = i * round)
                .collect();
            run_closures(&mut jobs);
            for (i, v) in acc.iter().enumerate() {
                assert_eq!(*v, i * round);
            }
        }
        // Workers spawned by other tests in this process count too, so
        // only assert the backstop, not an exact number.
        assert!(worker_count() <= MAX_WORKERS);
    }
}
