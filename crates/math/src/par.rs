//! Deterministic fork-join parallelism.
//!
//! Every hot loop in the workspace — Gram matrices, annealer restarts,
//! Trotter-replica sweeps, shot estimation, compiled kernel slabs — is an
//! index-addressed map over independent work items. This module splits
//! such maps into contiguous chunks and executes one job per chunk on the
//! persistent worker pool ([`pool`]), while keeping the one contract the
//! rest of the workspace is built on: **results are bit-identical for 1
//! and N threads**.
//!
//! Two rules make that hold:
//!
//! 1. Work item `i` writes only slot `i` of the output, so assembly order
//!    is fixed regardless of which thread ran it.
//! 2. Stochastic work items never share a generator. [`map_rng`] forks one
//!    child [`Rng64`] per item from the caller's generator *serially,
//!    before any job is dispatched*, so the parent stream advances
//!    identically however many threads execute the map.
//!
//! The chunk geometry is a pure function of `(item count, thread count)`
//! — never of scheduling — and the pool executes the per-chunk job bodies
//! verbatim, so *which* thread runs a job cannot change a single rounding.
//!
//! The pool width comes from the `QMLDB_THREADS` environment variable
//! (default: the machine's available parallelism), read once per process;
//! [`set_threads`] overrides it at runtime, which is what the determinism
//! tests and benchmark baselines use. The persistent pool sizes itself to
//! the widest fan-out seen and honors every override between calls —
//! lowering the count masks surplus workers (they stay parked), raising
//! it lazily spawns more.

pub mod pool;

use crate::Rng64;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Runtime override installed by [`set_threads`]; 0 means "not set".
static OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Thread count resolved from the environment, computed once.
static ENV_THREADS: OnceLock<usize> = OnceLock::new();

fn env_threads() -> usize {
    *ENV_THREADS.get_or_init(|| {
        match std::env::var("QMLDB_THREADS") {
            Ok(v) => match v.trim().parse::<usize>() {
                Ok(n) if n >= 1 => n,
                _ => 1, // unparsable or zero: fail safe, stay serial
            },
            Err(_) => std::thread::available_parallelism().map_or(1, |n| n.get()),
        }
    })
}

/// The number of worker threads parallel maps will use.
pub fn thread_count() -> usize {
    match OVERRIDE.load(Ordering::Relaxed) {
        0 => env_threads(),
        n => n,
    }
}

/// Overrides the thread count process-wide (clamped to ≥ 1). Intended for
/// tests and benchmarks that compare 1-thread vs N-thread execution;
/// production code should configure `QMLDB_THREADS` instead. The
/// persistent pool honors the override on the next fan-out: chunk
/// geometry always follows [`thread_count`], and the pool grows (or
/// masks idle workers) to match.
pub fn set_threads(n: usize) {
    OVERRIDE.store(n.max(1), Ordering::Relaxed);
}

/// Clears a [`set_threads`] override, returning to the environment default.
pub fn reset_threads() {
    OVERRIDE.store(0, Ordering::Relaxed);
}

/// Executes one pre-built job per chunk on the worker pool and returns
/// when all have finished. Every `par` primitive funnels through here: the
/// primitive owns the chunk geometry and disjoint-output splitting (all
/// safe code), the pool only runs the closures. A panicking job surfaces
/// on the calling thread after all jobs finish.
fn fanout<J: FnMut() + Send>(jobs: &mut [J]) {
    let mut refs: Vec<&mut (dyn FnMut() + Send)> = jobs
        .iter_mut()
        .map(|j| j as &mut (dyn FnMut() + Send))
        .collect();
    pool::run(&mut refs);
}

/// Maps `f` over `items` on up to [`thread_count`] pool workers,
/// returning outputs in item order. `f(i, &items[i])` must depend only on
/// its arguments for the determinism contract to hold (the compiler cannot
/// check that `f` ignores ambient mutable state, but `Fn + Sync` rules out
/// the easy mistakes).
pub fn map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let threads = thread_count().min(items.len()).max(1);
    if threads == 1 {
        return items.iter().enumerate().map(|(i, x)| f(i, x)).collect();
    }
    let chunk = items.len().div_ceil(threads);
    let mut out: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
    {
        let f = &f;
        let mut jobs: Vec<_> = items
            .chunks(chunk)
            .zip(out.chunks_mut(chunk))
            .enumerate()
            .map(|(ci, (in_chunk, out_chunk))| {
                move || {
                    let base = ci * chunk;
                    for (k, (item, slot)) in in_chunk.iter().zip(out_chunk.iter_mut()).enumerate() {
                        *slot = Some(f(base + k, item));
                    }
                }
            })
            .collect();
        fanout(&mut jobs);
    }
    out.into_iter()
        .map(|r| r.expect("fan-out returned without filling every slot"))
        .collect()
}

/// Like [`map`], but each work item also receives its own independent
/// random stream forked from `rng`. The forks happen serially up front, so
/// the caller's generator — and every per-item stream — is identical for
/// any thread count.
pub fn map_rng<T, R, F>(items: &[T], rng: &mut Rng64, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T, &mut Rng64) -> R + Sync,
{
    let mut streams: Vec<Rng64> = items.iter().map(|_| rng.fork()).collect();
    let threads = thread_count().min(items.len()).max(1);
    if threads == 1 {
        return items
            .iter()
            .zip(streams.iter_mut())
            .enumerate()
            .map(|(i, (x, r))| f(i, x, r))
            .collect();
    }
    let chunk = items.len().div_ceil(threads);
    let mut out: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
    {
        let f = &f;
        let mut jobs: Vec<_> = items
            .chunks(chunk)
            .zip(streams.chunks_mut(chunk))
            .zip(out.chunks_mut(chunk))
            .enumerate()
            .map(|(ci, ((in_chunk, rng_chunk), out_chunk))| {
                move || {
                    let base = ci * chunk;
                    for (k, ((item, r), slot)) in in_chunk
                        .iter()
                        .zip(rng_chunk.iter_mut())
                        .zip(out_chunk.iter_mut())
                        .enumerate()
                    {
                        *slot = Some(f(base + k, item, r));
                    }
                }
            })
            .collect();
        fanout(&mut jobs);
    }
    out.into_iter()
        .map(|r| r.expect("fan-out returned without filling every slot"))
        .collect()
}

/// Maps `f` over a few coarse work items of uneven cost, one pool job per
/// item, returning outputs in item order. Unlike [`map`], which cuts its
/// items into one contiguous chunk per thread, every item here is its
/// own job and idle executors claim the next unclaimed one, so a long
/// item never holds shorter ones hostage behind it in a chunk. Jobs are
/// claimed in item order: put the longest first. Each item is mutated in
/// place and writes only its own output slot, so the outputs — and the
/// items afterwards — are bit-identical for any thread count.
pub fn map_uneven<T, R, F>(items: &mut [T], f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, &mut T) -> R + Sync,
{
    if thread_count() == 1 || items.len() <= 1 {
        return items.iter_mut().enumerate().map(|(i, x)| f(i, x)).collect();
    }
    let mut out: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
    {
        let f = &f;
        let mut jobs: Vec<_> = items
            .iter_mut()
            .zip(out.iter_mut())
            .enumerate()
            .map(|(i, (item, slot))| move || *slot = Some(f(i, item)))
            .collect();
        fanout(&mut jobs);
    }
    out.into_iter()
        .map(|r| r.expect("fan-out returned without filling every slot"))
        .collect()
}

/// Runs `f` over disjoint contiguous slabs of `data` on up to
/// [`thread_count`] pool workers. Each slab's length is a multiple of
/// `align` (except possibly the trailing slab), and `f` receives the
/// slab's starting offset into `data` alongside the slab itself, so
/// kernels can reconstruct global indices.
///
/// This is the amplitude-slab primitive behind compiled gate kernels: a
/// gate on target bit `b` maps amplitude pairs `(i, i | b)` that both live
/// inside any slab aligned to `2b` elements, so slabs can be transformed
/// independently. When the alignment forces a single slab (top-bit gates
/// on small states) or the pool is one thread wide, `f` runs serially on
/// the whole buffer — the per-element arithmetic is identical either way,
/// which is what keeps slab execution bit-identical for any thread count.
pub fn for_slabs<T, F>(data: &mut [T], align: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    assert!(align > 0, "slab alignment must be positive");
    let len = data.len();
    let threads = thread_count();
    // Buffers shorter than one aligned block (states under 2·align
    // amplitudes, e.g. circuits below 8 qubits against a 256 block) must
    // degrade to a single serial slab: a parallel split would either be
    // empty or break the alignment contract.
    if threads <= 1 || len <= align {
        f(0, data);
        return;
    }
    match slab_size(len, align, threads) {
        None => f(0, data),
        Some(slab) => {
            let f = &f;
            let mut jobs: Vec<_> = data
                .chunks_mut(slab)
                .enumerate()
                .map(|(ci, chunk)| move || f(ci * slab, &mut *chunk))
                .collect();
            fanout(&mut jobs);
        }
    }
}

/// Smallest align-multiple slab that covers a `len`-element buffer in
/// ≤ `threads` pieces, or `None` when the alignment forces a single slab.
/// The boundary grid depends only on `(len, align, threads)` — never on
/// scheduling — so a given configuration always splits identically.
fn slab_size(len: usize, align: usize, threads: usize) -> Option<usize> {
    let slab = len.div_ceil(threads).next_multiple_of(align);
    (slab < len).then_some(slab)
}

/// Runs `f` over matched aligned chunk pairs of two equal-length slices:
/// `f(offset, &mut a[offset..], &mut b[offset..])` with both chunks the
/// same length, a multiple of `align` except possibly the trailing pair.
///
/// This is the intra-kernel split for gates on *high* target bits: a gate
/// on bit `b ≥ slab size` couples `amps[i]` with `amps[i|b]`, which can
/// never share a contiguous slab — but the bit-clear half and bit-set
/// half of a `2b` super-block are element-wise partners, so chunking the
/// two halves in lockstep yields independent pair ranges. Chunk `k` of
/// `a` is transformed only with chunk `k` of `b`, with per-element
/// arithmetic identical for any partition, so results stay bit-identical
/// for any thread count.
pub fn for_slab_pairs<T, F>(a: &mut [T], b: &mut [T], align: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T], &mut [T]) + Sync,
{
    assert!(align > 0, "slab alignment must be positive");
    assert_eq!(a.len(), b.len(), "pair slices must have equal length");
    let len = a.len();
    let threads = thread_count();
    if threads <= 1 || len <= align {
        f(0, a, b);
        return;
    }
    match slab_size(len, align, threads) {
        None => f(0, a, b),
        Some(slab) => {
            let f = &f;
            let mut jobs: Vec<_> = a
                .chunks_mut(slab)
                .zip(b.chunks_mut(slab))
                .enumerate()
                .map(|(ci, (ca, cb))| move || f(ci * slab, &mut *ca, &mut *cb))
                .collect();
            fanout(&mut jobs);
        }
    }
}

/// Four-way [`for_slab_pairs`]: matched aligned chunks of four
/// equal-length slices, `f(offset, c0, c1, c2, c3)`. The quad split
/// behind two-qubit kernels whose target bits are both above the slab
/// size — the four basis-bit combinations of a super-block are
/// element-wise partners, exactly as the two halves are for one high bit.
pub fn for_slab_quads<T, F>(
    s0: &mut [T],
    s1: &mut [T],
    s2: &mut [T],
    s3: &mut [T],
    align: usize,
    f: F,
) where
    T: Send,
    F: Fn(usize, &mut [T], &mut [T], &mut [T], &mut [T]) + Sync,
{
    assert!(align > 0, "slab alignment must be positive");
    assert!(
        s0.len() == s1.len() && s1.len() == s2.len() && s2.len() == s3.len(),
        "quad slices must have equal length"
    );
    let len = s0.len();
    let threads = thread_count();
    if threads <= 1 || len <= align {
        f(0, s0, s1, s2, s3);
        return;
    }
    match slab_size(len, align, threads) {
        None => f(0, s0, s1, s2, s3),
        Some(slab) => {
            let f = &f;
            let mut jobs: Vec<_> = s0
                .chunks_mut(slab)
                .zip(s1.chunks_mut(slab))
                .zip(s2.chunks_mut(slab))
                .zip(s3.chunks_mut(slab))
                .enumerate()
                .map(|(ci, (((c0, c1), c2), c3))| {
                    move || f(ci * slab, &mut *c0, &mut *c1, &mut *c2, &mut *c3)
                })
                .collect();
            fanout(&mut jobs);
        }
    }
}

/// Maps `f` over the index range `0..n` — the shape restart loops take.
pub fn map_indices<R, F>(n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let idx: Vec<usize> = (0..n).collect();
    map(&idx, |_, &i| f(i))
}

/// [`map_indices`] with a forked random stream per index.
pub fn map_indices_rng<R, F>(n: usize, rng: &mut Rng64, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize, &mut Rng64) -> R + Sync,
{
    let idx: Vec<usize> = (0..n).collect();
    map_rng(&idx, rng, |_, &i, r| f(i, r))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs `body` under an explicit thread-count override, restoring the
    /// previous override afterwards. Serialized so concurrent unit tests
    /// don't fight over the process-wide setting.
    fn with_threads<R>(n: usize, body: impl FnOnce() -> R) -> R {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        let _guard = LOCK.lock().unwrap();
        let prev = OVERRIDE.load(Ordering::Relaxed);
        set_threads(n);
        let out = body();
        OVERRIDE.store(prev, Ordering::Relaxed);
        out
    }

    #[test]
    fn map_preserves_order_and_values() {
        let items: Vec<u64> = (0..1000).collect();
        let serial = with_threads(1, || map(&items, |i, &x| x * 3 + i as u64));
        let parallel = with_threads(4, || map(&items, |i, &x| x * 3 + i as u64));
        assert_eq!(serial, parallel);
        assert_eq!(serial[10], 40);
    }

    #[test]
    fn map_handles_empty_and_tiny_inputs() {
        let empty: Vec<u32> = Vec::new();
        assert!(map(&empty, |_, &x| x).is_empty());
        assert_eq!(with_threads(8, || map(&[7u32], |_, &x| x + 1)), vec![8]);
    }

    #[test]
    fn map_rng_streams_are_thread_count_invariant() {
        let items: Vec<usize> = (0..37).collect();
        let mut rng1 = Rng64::new(99);
        let mut rng4 = Rng64::new(99);
        let digest = |r: &mut Rng64| (0..16).fold(0u64, |acc, _| acc ^ r.next_u64());
        let a = with_threads(1, || map_rng(&items, &mut rng1, |_, _, r| digest(r)));
        let b = with_threads(4, || map_rng(&items, &mut rng4, |_, _, r| digest(r)));
        assert_eq!(a, b);
        // Parent streams advanced identically too.
        assert_eq!(rng1.next_u64(), rng4.next_u64());
    }

    #[test]
    fn map_uneven_is_thread_count_invariant_and_mutates_in_place() {
        let run = |threads: usize| {
            with_threads(threads, || {
                let mut items: Vec<(u64, Rng64)> =
                    (0..7).map(|i| (i, Rng64::new(77 + i))).collect();
                let results = map_uneven(&mut items, |i, (x, r)| {
                    // Uneven items: item i draws 1000·i numbers.
                    for _ in 0..1000 * i {
                        *x = x.wrapping_mul(3).wrapping_add(r.next_u64());
                    }
                    *x >> 7
                });
                let streams: Vec<u64> = items.iter_mut().map(|(_, r)| r.next_u64()).collect();
                let values: Vec<u64> = items.iter().map(|(x, _)| *x).collect();
                (values, results, streams)
            })
        };
        let serial = run(1);
        assert_eq!(serial, run(2));
        assert_eq!(serial, run(4));
    }

    #[test]
    fn map_indices_matches_manual_loop() {
        let expect: Vec<usize> = (0..25).map(|i| i * i).collect();
        assert_eq!(with_threads(3, || map_indices(25, |i| i * i)), expect);
    }

    #[test]
    fn worker_panic_propagates_to_caller_and_layer_survives() {
        // Regression (PR 9): the pooled dispatcher must surface a job
        // panic on the calling thread — not as a misleading "unfilled
        // slot" expect — and must keep working afterwards.
        let items: Vec<usize> = (0..64).collect();
        with_threads(4, || {
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                map(&items, |_, &x| {
                    if x == 41 {
                        panic!("item 41 is unlucky");
                    }
                    x * 2
                })
            }));
            let payload = result.expect_err("the job panic must reach the caller");
            let msg = payload
                .downcast_ref::<&str>()
                .copied()
                .unwrap_or("<non-str payload>");
            assert!(msg.contains("item 41 is unlucky"), "wrong payload: {msg}");

            // The layer (and the pool behind it) keeps answering.
            let doubled = map(&items, |_, &x| x * 2);
            assert_eq!(doubled, items.iter().map(|&x| x * 2).collect::<Vec<_>>());
        });
    }

    #[test]
    fn nested_fanout_from_inside_a_worker_completes_and_matches_serial() {
        // Reentrant fan-out (Portfolio → sharded annealer → slab kernels
        // in miniature): an inner map issued from inside a pooled job must
        // complete without deadlock and match the serial result exactly.
        let expect = with_threads(1, || {
            map_indices(6, |i| {
                map_indices(8, |j| (i * 31 + j) as u64).iter().sum::<u64>()
            })
        });
        for threads in [2usize, 3, 4] {
            let got = with_threads(threads, || {
                map_indices(6, |i| {
                    map_indices(8, |j| (i * 31 + j) as u64).iter().sum::<u64>()
                })
            });
            assert_eq!(got, expect, "nested fan-out diverged at {threads} threads");
        }
    }

    #[test]
    fn set_threads_resize_mid_sequence_is_honored_and_deterministic() {
        // The pool must follow every set_threads change between calls —
        // growing, masking, and growing again — with results identical to
        // an all-serial run of the same sequence.
        let items: Vec<u64> = (0..97).collect();
        let sequence = || -> Vec<Vec<u64>> {
            [4usize, 2, 5, 3, 1]
                .iter()
                .map(|&t| {
                    set_threads(t);
                    map(&items, |i, &x| x.wrapping_mul(7).wrapping_add(i as u64))
                })
                .collect()
        };
        let resized = with_threads(4, sequence);
        let serial: Vec<Vec<u64>> = with_threads(1, || {
            (0..5)
                .map(|_| map(&items, |i, &x| x.wrapping_mul(7).wrapping_add(i as u64)))
                .collect()
        });
        assert_eq!(resized, serial);
    }

    #[test]
    fn for_slabs_covers_every_element_once() {
        let mut data: Vec<u64> = vec![0; 4096];
        with_threads(4, || {
            for_slabs(&mut data, 8, |base, slab| {
                for (k, x) in slab.iter_mut().enumerate() {
                    *x += (base + k) as u64 + 1;
                }
            });
        });
        for (i, x) in data.iter().enumerate() {
            assert_eq!(
                *x,
                i as u64 + 1,
                "element {i} touched wrong number of times"
            );
        }
    }

    #[test]
    fn for_slabs_alignment_is_respected() {
        let mut data = vec![0u8; 4096];
        with_threads(5, || {
            for_slabs(&mut data, 64, |base, slab| {
                assert_eq!(base % 64, 0, "slab base {base} misaligned");
                // Every slab except the trailing one is a multiple of align.
                if base + slab.len() != 4096 {
                    assert_eq!(slab.len() % 64, 0);
                }
                slab[0] = 1;
            });
        });
    }

    #[test]
    fn for_slabs_serial_when_alignment_forces_one_slab() {
        let mut data = vec![0u32; 128];
        with_threads(8, || {
            for_slabs(&mut data, 128, |base, slab| {
                assert_eq!(base, 0);
                assert_eq!(slab.len(), 128);
                slab.iter_mut().for_each(|x| *x += 1);
            });
        });
        assert!(data.iter().all(|&x| x == 1));
    }

    #[test]
    fn for_slabs_matches_across_thread_counts() {
        let run = |threads: usize| {
            with_threads(threads, || {
                let mut data: Vec<f64> = (0..2048).map(|i| i as f64 * 0.5).collect();
                for_slabs(&mut data, 2, |base, slab| {
                    for (k, x) in slab.iter_mut().enumerate() {
                        *x = x.sin() + (base + k) as f64;
                    }
                });
                data
            })
        };
        assert_eq!(run(1), run(4));
    }

    #[test]
    fn for_slabs_degrades_to_one_serial_slab_at_and_below_one_block() {
        // Boundary cases for the 256-amplitude kernel block: a buffer of
        // exactly one block, and one just below it, must both run as a
        // single serial slab covering everything — never an empty or
        // misaligned split.
        for len in [256usize, 255, 1, 0] {
            let mut data = vec![0u32; len];
            with_threads(4, || {
                let calls = std::sync::atomic::AtomicUsize::new(0);
                for_slabs(&mut data, 256, |base, slab| {
                    assert_eq!(base, 0, "len {len}: slab must start at 0");
                    assert_eq!(slab.len(), len, "len {len}: slab must cover all");
                    slab.iter_mut().for_each(|x| *x += 1);
                    calls.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                });
                let calls = calls.into_inner();
                assert_eq!(calls, 1, "len {len}: exactly one serial slab");
            });
            assert!(data.iter().all(|&x| x == 1));
        }
    }

    #[test]
    fn for_slabs_splits_just_above_one_block() {
        // Two blocks is the smallest splittable buffer: every slab must
        // land on the 256 grid and the union must cover exactly once.
        let mut data = vec![0u8; 512];
        with_threads(4, || {
            for_slabs(&mut data, 256, |base, slab| {
                assert_eq!(base % 256, 0);
                assert_eq!(slab.len() % 256, 0);
                slab.iter_mut().for_each(|x| *x += 1);
            });
        });
        assert!(data.iter().all(|&x| x == 1));
    }

    #[test]
    fn for_slab_pairs_covers_matched_chunks_once() {
        let run = |threads: usize| {
            with_threads(threads, || {
                let mut a: Vec<f64> = (0..2048).map(|i| i as f64 * 0.25).collect();
                let mut b: Vec<f64> = (0..2048).map(|i| i as f64 - 7.0).collect();
                for_slab_pairs(&mut a, &mut b, 256, |base, ca, cb| {
                    assert_eq!(base % 256, 0, "chunk base {base} off the grid");
                    assert_eq!(ca.len(), cb.len());
                    for (k, (x, y)) in ca.iter_mut().zip(cb.iter_mut()).enumerate() {
                        let (x0, y0) = (*x, *y);
                        *x = x0.sin() + y0 + (base + k) as f64;
                        *y = y0.cos() - x0;
                    }
                });
                (a, b)
            })
        };
        assert_eq!(run(1), run(4), "pair split must be thread-count invariant");
    }

    #[test]
    fn for_slab_pairs_serial_at_and_below_one_block() {
        for len in [256usize, 255] {
            let mut a = vec![1u64; len];
            let mut b = vec![2u64; len];
            with_threads(8, || {
                let calls = std::sync::atomic::AtomicUsize::new(0);
                for_slab_pairs(&mut a, &mut b, 256, |base, ca, cb| {
                    assert_eq!(base, 0);
                    assert_eq!(ca.len(), len);
                    assert_eq!(cb.len(), len);
                    calls.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                });
                let calls = calls.into_inner();
                assert_eq!(calls, 1, "len {len}: exactly one serial slab pair");
            });
        }
    }

    #[test]
    fn for_slab_quads_covers_matched_chunks_once() {
        let run = |threads: usize| {
            with_threads(threads, || {
                let mut s: Vec<Vec<u64>> = (0..4)
                    .map(|j| (0..1024).map(|i| (j * 1024 + i) as u64).collect())
                    .collect();
                let (first, rest) = s.split_at_mut(1);
                let (second, rest) = rest.split_at_mut(1);
                let (third, fourth) = rest.split_at_mut(1);
                for_slab_quads(
                    &mut first[0],
                    &mut second[0],
                    &mut third[0],
                    &mut fourth[0],
                    256,
                    |base, c0, c1, c2, c3| {
                        assert_eq!(base % 256, 0);
                        for k in 0..c0.len() {
                            let sum = c0[k] + c1[k] + c2[k] + c3[k];
                            c0[k] = sum + (base + k) as u64;
                            c3[k] = sum ^ c1[k];
                            c1[k] += 1;
                            c2[k] = c2[k].rotate_left(3);
                        }
                    },
                );
                s
            })
        };
        assert_eq!(run(1), run(4), "quad split must be thread-count invariant");
    }

    #[test]
    fn set_threads_clamps_to_one() {
        with_threads(1, || {
            set_threads(0);
            assert_eq!(thread_count(), 1);
        });
    }
}
