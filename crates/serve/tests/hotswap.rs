//! Concurrency stress tests for the hot-swap cell: many readers hammering
//! `pin` while a writer publishes as fast as it can. The cell is built
//! from std's `Mutex` and `Arc`, so it has no memory-ordering argument of
//! its own to prove; these tests pin its contract — no torn or freed read,
//! generations only move forward, and every published value is dropped
//! exactly once.

use policysmith_serve::PolicyCell;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// A value whose two halves must always agree; any torn or stale-freed
/// read breaks the invariant check.
#[derive(Clone)]
struct Canary {
    a: u64,
    b: u64,
    /// Padding that a use-after-free would likely scribble over.
    blob: Vec<u64>,
}

impl Canary {
    fn new(x: u64) -> Canary {
        Canary { a: x, b: !x, blob: vec![x; 32] }
    }
    fn check(&self) {
        assert_eq!(self.b, !self.a, "torn canary");
        assert!(self.blob.iter().all(|&v| v == self.a), "scribbled canary");
    }
}

#[test]
fn readers_never_observe_torn_or_freed_values() {
    const READERS: usize = 4;
    const PUBLISHES: u64 = 20_000;

    let cell = PolicyCell::new(Canary::new(0), READERS);
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        for _ in 0..READERS {
            let mut handle = cell.register();
            let stop = &stop;
            scope.spawn(move || {
                let mut last_gen = 0u64;
                loop {
                    // stop is checked AFTER the read, so every reader
                    // pins at least once even if the writer finishes
                    // before this thread is first scheduled (1-core boxes)
                    let done = stop.load(Ordering::Relaxed);
                    let gen_before = handle.cell().generation();
                    let guard = handle.pin();
                    guard.check();
                    drop(guard);
                    // generations move forward only
                    assert!(gen_before >= last_gen, "generation went backwards");
                    last_gen = gen_before;
                    if done {
                        break;
                    }
                }
            });
        }
        for i in 1..=PUBLISHES {
            cell.publish(Canary::new(i), "stress");
        }
        stop.store(true, Ordering::Relaxed);
    });
    assert_eq!(cell.generation(), PUBLISHES);
}

#[test]
fn every_published_value_is_dropped_exactly_once() {
    static LIVE: AtomicUsize = AtomicUsize::new(0);
    static DROPS: AtomicUsize = AtomicUsize::new(0);

    struct Tracked(#[allow(dead_code)] u64);
    impl Tracked {
        fn new(x: u64) -> Tracked {
            LIVE.fetch_add(1, Ordering::SeqCst);
            Tracked(x)
        }
    }
    impl Drop for Tracked {
        fn drop(&mut self) {
            LIVE.fetch_sub(1, Ordering::SeqCst);
            DROPS.fetch_add(1, Ordering::SeqCst);
        }
    }
    // Tracked must be Sync for the cell; it is (no interior mutability).
    const PUBLISHES: u64 = 5_000;
    {
        let cell = PolicyCell::new(Tracked::new(0), 3);
        let stop = AtomicBool::new(false);
        std::thread::scope(|scope| {
            for _ in 0..3 {
                let mut handle = cell.register();
                let stop = &stop;
                scope.spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        let _g = handle.pin();
                    }
                });
            }
            for i in 1..=PUBLISHES {
                cell.publish(Tracked::new(i), "drop-stress");
            }
            stop.store(true, Ordering::Relaxed);
        });
    }
    assert_eq!(LIVE.load(Ordering::SeqCst), 0, "every value reclaimed");
    assert_eq!(DROPS.load(Ordering::SeqCst) as u64, PUBLISHES + 1, "no double frees");
}
