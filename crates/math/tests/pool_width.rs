//! The pool never grows past the configured width.
//!
//! `par::map_uneven` hands the pool one job per item, so a batch can hold
//! more jobs than there are threads. The pool must still spawn at most
//! `thread_count() − 1` workers (the caller is the last executor), and so
//! never run more than `thread_count()` jobs at once. This file is its own
//! test process, so no other test's wider fan-out has spawned workers
//! before it.

use qmldb_math::par;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

#[test]
fn a_batch_wider_than_the_pool_spawns_at_most_threads_minus_one_workers() {
    par::set_threads(2);
    let running = AtomicUsize::new(0);
    let peak = AtomicUsize::new(0);
    let mut items: Vec<u64> = (0..16).collect();
    let out = par::map_uneven(&mut items, |i, x| {
        let now = running.fetch_add(1, Ordering::SeqCst) + 1;
        peak.fetch_max(now, Ordering::SeqCst);
        std::thread::sleep(Duration::from_millis(2));
        running.fetch_sub(1, Ordering::SeqCst);
        *x += 1;
        i as u64 * 10
    });
    assert_eq!(out, (0..16).map(|i| i * 10).collect::<Vec<u64>>());
    assert_eq!(items, (1..17).collect::<Vec<u64>>());
    assert!(
        par::pool::worker_count() <= 1,
        "{} workers for a width of 2",
        par::pool::worker_count()
    );
    assert!(
        peak.load(Ordering::SeqCst) <= 2,
        "more jobs ran at once than threads"
    );
    par::reset_threads();
}
