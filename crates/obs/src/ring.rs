//! A bounded lock-free SPSC ring: the per-worker window-sample lane into
//! the adaptation thread.
//!
//! One producer (the serving worker), one consumer (the adaptation
//! thread). `push` is two `Relaxed`/`Acquire` loads and a `Release` store
//! on success — no locks, no allocation, no syscalls — and reports a full
//! ring by returning the value, so the caller decides the backpressure
//! policy (serving workers keep an unbounded local backlog rather than
//! ever stalling the decision path; see `serve::runtime`).
//!
//! Both endpoints raise a `closed` flag on drop, so the consumer can
//! distinguish "empty for now" from "producer finished", and a producer
//! flushing its backlog can bail out if the consumer died.

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

struct Inner<T> {
    buf: Box<[UnsafeCell<MaybeUninit<T>>]>,
    /// Next index to pop (owned by the consumer).
    head: AtomicUsize,
    /// Next index to push (owned by the producer).
    tail: AtomicUsize,
    tx_closed: AtomicBool,
    rx_closed: AtomicBool,
}

// The UnsafeCell slots are only touched by the single producer (writes at
// tail) and single consumer (reads at head), never concurrently on the
// same index thanks to the head/tail protocol below.
unsafe impl<T: Send> Send for Inner<T> {}
unsafe impl<T: Send> Sync for Inner<T> {}

impl<T> Drop for Inner<T> {
    fn drop(&mut self) {
        // Drop any items still in flight.
        let head = *self.head.get_mut();
        let tail = *self.tail.get_mut();
        let cap = self.buf.len();
        for i in head..tail {
            unsafe { (*self.buf[i % cap].get()).assume_init_drop() };
        }
    }
}

/// Create a bounded SPSC ring with room for `capacity` items.
pub fn spsc<T: Send>(capacity: usize) -> (SpscSender<T>, SpscReceiver<T>) {
    let cap = capacity.max(1);
    let inner = Arc::new(Inner {
        buf: (0..cap).map(|_| UnsafeCell::new(MaybeUninit::uninit())).collect(),
        head: AtomicUsize::new(0),
        tail: AtomicUsize::new(0),
        tx_closed: AtomicBool::new(false),
        rx_closed: AtomicBool::new(false),
    });
    (SpscSender { inner: inner.clone() }, SpscReceiver { inner })
}

/// The producing endpoint. `!Clone`: exactly one producer.
pub struct SpscSender<T: Send> {
    inner: Arc<Inner<T>>,
}

impl<T: Send> SpscSender<T> {
    /// Try to push; returns the value back if the ring is full.
    pub fn push(&mut self, value: T) -> Result<(), T> {
        let inner = &*self.inner;
        let tail = inner.tail.load(Ordering::Relaxed);
        let head = inner.head.load(Ordering::Acquire);
        if tail.wrapping_sub(head) == inner.buf.len() {
            return Err(value);
        }
        unsafe { (*inner.buf[tail % inner.buf.len()].get()).write(value) };
        inner.tail.store(tail.wrapping_add(1), Ordering::Release);
        Ok(())
    }

    /// True once the consumer endpoint has been dropped (flushing a
    /// backlog into a dead ring is pointless).
    pub fn receiver_closed(&self) -> bool {
        self.inner.rx_closed.load(Ordering::Acquire)
    }
}

impl<T: Send> Drop for SpscSender<T> {
    fn drop(&mut self) {
        self.inner.tx_closed.store(true, Ordering::Release);
    }
}

/// The consuming endpoint. `!Clone`: exactly one consumer.
pub struct SpscReceiver<T: Send> {
    inner: Arc<Inner<T>>,
}

impl<T: Send> SpscReceiver<T> {
    /// Pop the oldest item, if any.
    pub fn pop(&mut self) -> Option<T> {
        let inner = &*self.inner;
        let head = inner.head.load(Ordering::Relaxed);
        let tail = inner.tail.load(Ordering::Acquire);
        if head == tail {
            return None;
        }
        let value = unsafe { (*inner.buf[head % inner.buf.len()].get()).assume_init_read() };
        inner.head.store(head.wrapping_add(1), Ordering::Release);
        Some(value)
    }

    /// True once the producer has been dropped **and** the ring is
    /// drained — nothing more will ever arrive.
    pub fn finished(&self) -> bool {
        // Order matters: check closed before empty, so a push racing the
        // producer's final drop is never missed.
        let closed = self.inner.tx_closed.load(Ordering::Acquire);
        let head = self.inner.head.load(Ordering::Relaxed);
        let tail = self.inner.tail.load(Ordering::Acquire);
        closed && head == tail
    }
}

impl<T: Send> Drop for SpscReceiver<T> {
    fn drop(&mut self) {
        self.inner.rx_closed.store(true, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order_and_full_signal() {
        let (mut tx, mut rx) = spsc::<u32>(4);
        for i in 0..4 {
            assert!(tx.push(i).is_ok());
        }
        assert_eq!(tx.push(99), Err(99));
        assert_eq!(rx.pop(), Some(0));
        assert!(tx.push(99).is_ok(), "pop frees a slot");
        assert_eq!((1..4).map(|_| rx.pop().unwrap()).collect::<Vec<_>>(), vec![1, 2, 3]);
        assert_eq!(rx.pop(), Some(99));
        assert_eq!(rx.pop(), None);
        assert!(!rx.finished());
        drop(tx);
        assert!(rx.finished());
    }

    #[test]
    fn close_flags_propagate_both_ways() {
        let (tx, rx) = spsc::<u8>(2);
        assert!(!tx.receiver_closed());
        drop(rx);
        assert!(tx.receiver_closed());
    }

    #[test]
    fn cross_thread_stream_arrives_intact() {
        let (mut tx, mut rx) = spsc::<u64>(8);
        std::thread::scope(|scope| {
            scope.spawn(move || {
                for i in 0..10_000u64 {
                    let mut v = i;
                    loop {
                        match tx.push(v) {
                            Ok(()) => break,
                            Err(back) => {
                                v = back;
                                std::thread::yield_now();
                            }
                        }
                    }
                }
            });
            let mut expect = 0u64;
            while expect < 10_000 {
                match rx.pop() {
                    Some(v) => {
                        assert_eq!(v, expect);
                        expect += 1;
                    }
                    None => std::thread::yield_now(),
                }
            }
            assert!(rx.pop().is_none());
        });
    }

    #[test]
    fn dropping_a_nonempty_ring_drops_in_flight_items() {
        use std::sync::atomic::AtomicUsize;
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        struct D;
        impl Drop for D {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::SeqCst);
            }
        }
        let (mut tx, rx) = spsc::<D>(4);
        tx.push(D).ok();
        tx.push(D).ok();
        drop(tx);
        drop(rx);
        assert_eq!(DROPS.load(Ordering::SeqCst), 2);
    }
}
