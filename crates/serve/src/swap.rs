//! The hot-swap handle: a publication cell that hands out the live policy
//! as an [`Arc`].
//!
//! A [`PolicyCell`] owns the live policy. Writer side: the background
//! adaptation thread [`publish`](PolicyCell::publish)es a replacement by
//! swapping the cell's `Arc` under a mutex — in-flight readers never
//! observe a torn value, because the swap replaces the `Arc`, never
//! mutates the pointee. Reader side: each serving worker
//! [`register`](PolicyCell::register)s once and [`pin`](ReaderHandle::pin)s
//! a [`Guard`] that owns a clone of the `Arc`; the value stays valid for as
//! long as the guard is held, no matter how many publishes land meanwhile.
//!
//! The per-decision check never takes the mutex:
//! [`generation`](PolicyCell::generation) is one relaxed load, and a
//! worker pins only when it moves — a few times per run. A deposed value is freed when its
//! last `Arc` drops: at the publish itself when no guard holds it, else
//! when the last such guard is released.
//!
//! The cell keeps no history. Every publish emits a `publish` trace event;
//! the serve run's publish log ([`SwapRecord`](crate::SwapRecord)) is
//! written by its one publisher, the runtime's adaptation thread.

use std::ops::Deref;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// A publication cell for values shared across serving threads (compiled
/// policies, in this crate). See the [module docs](self).
pub struct PolicyCell<T> {
    /// The live value. Only ever replaced whole; pointees are immutable.
    current: Mutex<Arc<T>>,
    /// Number of publishes so far, bumped under `current`'s lock: the
    /// cheap per-decision "did anything change?" check.
    generation: AtomicU64,
    max_readers: usize,
    registered: AtomicUsize,
}

/// `current` guards an `Arc` that stays valid if its holder panics, so a
/// poisoned lock is recovered rather than cascading the panic into every
/// other serving thread that touches the cell.
fn lock<U>(m: &Mutex<U>) -> MutexGuard<'_, U> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

impl<T> PolicyCell<T> {
    /// A cell serving `initial` at generation 0, with capacity for
    /// `max_readers` registered reader handles.
    pub fn new(initial: T, max_readers: usize) -> PolicyCell<T> {
        PolicyCell {
            current: Mutex::new(Arc::new(initial)),
            generation: AtomicU64::new(0),
            max_readers,
            registered: AtomicUsize::new(0),
        }
    }

    /// Register one reader (typically: one serving worker thread). Panics
    /// once `max_readers` handles exist: the capacity is the number of
    /// readers the caller declared, and minting more is a bug there.
    pub fn register(&self) -> ReaderHandle<'_, T> {
        let slot = self.registered.fetch_add(1, Ordering::Relaxed);
        assert!(slot < self.max_readers, "reader capacity exhausted ({})", self.max_readers);
        ReaderHandle { cell: self }
    }

    /// The current generation — an atomic load, cheap enough for a
    /// serving worker to check on **every** decision. Workers compare it
    /// against the generation they last adopted and re-pin only on change;
    /// a momentarily stale read just delays adoption by one decision. A
    /// pin after reading generation `g` sees generation `g` or newer: the
    /// bump happens under the lock the pin takes.
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Relaxed)
    }

    /// Publish a new value: swap the live `Arc` and bump the generation
    /// under one lock (readers see the old value or the new one, both
    /// intact), drop the cell's hold on the deposed value, and emit the
    /// `publish` trace event. Returns the new generation.
    pub fn publish(&self, value: T, provenance: impl Into<String>) -> u64 {
        let (generation, deposed) = {
            let mut current = lock(&self.current);
            let deposed = std::mem::replace(&mut *current, Arc::new(value));
            (self.generation.fetch_add(1, Ordering::Relaxed) + 1, deposed)
        };
        // frees the deposed value unless a guard still holds it
        drop(deposed);
        policysmith_obs::emit(policysmith_obs::TraceKind::Publish {
            generation,
            provenance: provenance.into(),
        });
        generation
    }
}

/// One registered reader's handle on the cell.
pub struct ReaderHandle<'c, T> {
    cell: &'c PolicyCell<T>,
}

impl<'c, T> ReaderHandle<'c, T> {
    /// Clone the live value's `Arc` out of the cell. The value stays
    /// valid until the guard drops, regardless of concurrent publishes.
    /// Hold guards briefly (one decision, one clone): a held guard keeps a
    /// deposed value alive.
    pub fn pin(&mut self) -> Guard<T> {
        Guard(lock(&self.cell.current).clone())
    }

    /// The cell this handle reads from.
    pub fn cell(&self) -> &'c PolicyCell<T> {
        self.cell
    }
}

/// A reader's hold on one published value.
pub struct Guard<T>(Arc<T>);

impl<T> Deref for Guard<T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use policysmith_obs::TraceKind;

    #[test]
    fn initial_value_is_served_at_generation_zero() {
        let cell = PolicyCell::new(41u64, 2);
        assert_eq!(cell.generation(), 0);
        let mut h = cell.register();
        assert_eq!(*h.pin(), 41);
    }

    #[test]
    fn publish_swaps_and_logs() {
        let cell = PolicyCell::new(1u64, 2);
        let mut h = cell.register();
        // the global trace log is shared with tests running in parallel:
        // find this test's publishes by their provenance
        let mark = policysmith_obs::trace::global().seq();
        assert_eq!(cell.publish(2, "publish_swaps_and_logs: first"), 1);
        assert_eq!(cell.publish(3, "publish_swaps_and_logs: second"), 2);
        assert_eq!(*h.pin(), 3);
        assert_eq!(cell.generation(), 2);
        let logged: Vec<(u64, String)> = policysmith_obs::trace::global()
            .events_since(mark)
            .into_iter()
            .filter_map(|e| match e.kind {
                TraceKind::Publish { generation, provenance }
                    if provenance.starts_with("publish_swaps_and_logs") =>
                {
                    Some((generation, provenance))
                }
                _ => None,
            })
            .collect();
        assert_eq!(
            logged,
            [
                (1, "publish_swaps_and_logs: first".to_string()),
                (2, "publish_swaps_and_logs: second".to_string())
            ]
        );
    }

    #[test]
    fn pinned_reader_blocks_reclamation_until_unpin() {
        let cell = PolicyCell::new(10u64, 2);
        let mut h = cell.register();
        let guard = h.pin();
        assert_eq!(*guard, 10);
        cell.publish(20, "while pinned");
        cell.publish(30, "still pinned");
        // the deposed 10 must NOT be reclaimed: the guard still holds it
        assert_eq!(*guard, 10, "guard keeps the old value, untorn");
        drop(guard);
        assert_eq!(*h.pin(), 30);
    }

    #[test]
    fn reader_pinned_after_a_publish_sees_the_new_value() {
        let cell = PolicyCell::new(1u64, 1);
        let mut h = cell.register();
        for i in 2..50u64 {
            cell.publish(i, format!("gen {}", i - 1));
            assert_eq!(*h.pin(), i);
        }
    }

    #[test]
    #[should_panic(expected = "reader capacity exhausted")]
    fn register_beyond_capacity_panics() {
        let cell = PolicyCell::new(0u64, 1);
        let _a = cell.register();
        let _b = cell.register();
    }

    #[test]
    fn drop_reclaims_everything_exactly_once() {
        use std::sync::atomic::AtomicUsize;
        static LIVE: AtomicUsize = AtomicUsize::new(0);
        struct Counted;
        impl Counted {
            fn new() -> Counted {
                LIVE.fetch_add(1, Ordering::SeqCst);
                Counted
            }
        }
        impl Drop for Counted {
            fn drop(&mut self) {
                LIVE.fetch_sub(1, Ordering::SeqCst);
            }
        }
        {
            let cell = PolicyCell::new(Counted::new(), 3);
            let mut h = cell.register();
            {
                let _g = h.pin();
                for _ in 0..10 {
                    cell.publish(Counted::new(), "pinned");
                }
            }
            for _ in 0..10 {
                cell.publish(Counted::new(), "quiescent");
            }
            assert!(LIVE.load(Ordering::SeqCst) >= 1);
        }
        assert_eq!(LIVE.load(Ordering::SeqCst), 0, "every value dropped exactly once");
    }

    /// Counts its own live instances through a shared counter, so each
    /// test owns its count.
    struct Tracked(Arc<AtomicUsize>);

    impl Tracked {
        fn new(live: &Arc<AtomicUsize>) -> Tracked {
            live.fetch_add(1, Ordering::SeqCst);
            Tracked(live.clone())
        }
    }

    impl Drop for Tracked {
        fn drop(&mut self) {
            self.0.fetch_sub(1, Ordering::SeqCst);
        }
    }

    #[test]
    fn a_deposed_value_drops_with_its_last_guard() {
        let live = Arc::new(AtomicUsize::new(0));
        let cell = PolicyCell::new(Tracked::new(&live), 3);
        let (mut a, mut b) = (cell.register(), cell.register());
        let (ga, gb) = (a.pin(), b.pin());
        cell.publish(Tracked::new(&live), "depose the initial value");
        assert_eq!(live.load(Ordering::SeqCst), 2, "two guards hold the deposed value");
        drop(ga);
        assert_eq!(live.load(Ordering::SeqCst), 2, "one guard still holds it");
        drop(gb);
        assert_eq!(live.load(Ordering::SeqCst), 1, "freed on release, no publish needed");
        // unguarded, a deposed value is freed by the publish itself
        cell.publish(Tracked::new(&live), "depose generation 1");
        assert_eq!(live.load(Ordering::SeqCst), 1);
    }
}
