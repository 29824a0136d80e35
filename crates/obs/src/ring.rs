//! A bounded lock-free SPSC ring.
//!
//! No serving path uses it: the serve runtime's window samples ride a std
//! `mpsc` channel. It survives for one caller, the benchmark's
//! `obs.ring_roundtrip_ns` probe, and holds only what that probe calls —
//! [`spsc`], [`SpscSender::push`] and [`SpscReceiver::pop`]. It is the
//! workspace's only `unsafe` code.
//!
//! One producer, one consumer. `push` is two `Relaxed`/`Acquire` loads and
//! a `Release` store on success — no locks, no allocation, no syscalls —
//! and reports a full ring by returning the value.

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

struct Inner<T> {
    buf: Box<[UnsafeCell<MaybeUninit<T>>]>,
    /// Next index to pop (owned by the consumer).
    head: AtomicUsize,
    /// Next index to push (owned by the producer).
    tail: AtomicUsize,
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
