//! Single-threaded async synchronization primitives for simulation tasks:
//! [`oneshot`] channels, unbounded [`mpsc`] channels, a fair
//! [`Semaphore`] (used e.g. to model bounded device queue depth), and
//! [`join_all`], which runs futures side by side in one task.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::sync::{Arc, Mutex};
use std::task::{Context, Poll, Wake, Waker};

/// Error returned when the other half of a channel is gone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Closed;

impl std::fmt::Display for Closed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "channel closed")
    }
}

impl std::error::Error for Closed {}

/// One-shot value channels.
pub mod oneshot {
    use super::*;

    struct Inner<T> {
        value: Option<T>,
        waker: Option<Waker>,
        sender_dropped: bool,
    }

    /// Sending half; consumes itself on send.
    pub struct Sender<T> {
        inner: Rc<RefCell<Inner<T>>>,
    }

    /// Receiving half; a future resolving to the sent value.
    pub struct Receiver<T> {
        inner: Rc<RefCell<Inner<T>>>,
    }

    /// Creates a oneshot channel.
    pub fn channel<T>() -> (Sender<T>, Receiver<T>) {
        let inner = Rc::new(RefCell::new(Inner {
            value: None,
            waker: None,
            sender_dropped: false,
        }));
        (
            Sender {
                inner: inner.clone(),
            },
            Receiver { inner },
        )
    }

    impl<T> Sender<T> {
        /// Delivers `value` to the receiver. Returns the value back if the
        /// receiver was dropped.
        pub fn send(self, value: T) -> Result<(), T> {
            let mut inner = self.inner.borrow_mut();
            if Rc::strong_count(&self.inner) == 1 {
                return Err(value);
            }
            inner.value = Some(value);
            if let Some(w) = inner.waker.take() {
                w.wake();
            }
            Ok(())
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            let mut inner = self.inner.borrow_mut();
            inner.sender_dropped = true;
            if let Some(w) = inner.waker.take() {
                w.wake();
            }
        }
    }

    impl<T> Future for Receiver<T> {
        type Output = Result<T, Closed>;

        fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
            let mut inner = self.inner.borrow_mut();
            if let Some(v) = inner.value.take() {
                return Poll::Ready(Ok(v));
            }
            if inner.sender_dropped {
                return Poll::Ready(Err(Closed));
            }
            inner.waker = Some(cx.waker().clone());
            Poll::Pending
        }
    }

    impl<T> std::fmt::Debug for Sender<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.debug_struct("oneshot::Sender").finish_non_exhaustive()
        }
    }

    impl<T> std::fmt::Debug for Receiver<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.debug_struct("oneshot::Receiver").finish_non_exhaustive()
        }
    }
}

/// Unbounded multi-producer single-consumer channels.
pub mod mpsc {
    use super::*;

    struct Inner<T> {
        queue: VecDeque<T>,
        waker: Option<Waker>,
        senders: usize,
        receiver_alive: bool,
    }

    /// Cloneable sending half.
    pub struct Sender<T> {
        inner: Rc<RefCell<Inner<T>>>,
    }

    /// Receiving half.
    pub struct Receiver<T> {
        inner: Rc<RefCell<Inner<T>>>,
    }

    /// Creates an unbounded channel.
    pub fn channel<T>() -> (Sender<T>, Receiver<T>) {
        let inner = Rc::new(RefCell::new(Inner {
            queue: VecDeque::new(),
            waker: None,
            senders: 1,
            receiver_alive: true,
        }));
        (
            Sender {
                inner: inner.clone(),
            },
            Receiver { inner },
        )
    }

    impl<T> Sender<T> {
        /// Enqueues `value`.
        ///
        /// # Errors
        ///
        /// Returns the value back if the receiver was dropped.
        pub fn send(&self, value: T) -> Result<(), T> {
            let mut inner = self.inner.borrow_mut();
            if !inner.receiver_alive {
                return Err(value);
            }
            inner.queue.push_back(value);
            if let Some(w) = inner.waker.take() {
                w.wake();
            }
            Ok(())
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.inner.borrow_mut().senders += 1;
            Sender {
                inner: self.inner.clone(),
            }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            let mut inner = self.inner.borrow_mut();
            inner.senders -= 1;
            if inner.senders == 0 {
                if let Some(w) = inner.waker.take() {
                    w.wake();
                }
            }
        }
    }

    impl<T> Receiver<T> {
        /// Waits for the next value; `None` once all senders are dropped and
        /// the queue is drained.
        pub fn recv(&self) -> RecvFut<'_, T> {
            RecvFut { rx: self }
        }

        /// Queued item count.
        pub(crate) fn len(&self) -> usize {
            self.inner.borrow().queue.len()
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            self.inner.borrow_mut().receiver_alive = false;
        }
    }

    /// Future returned by [`Receiver::recv`].
    #[derive(Debug)]
    pub struct RecvFut<'a, T> {
        rx: &'a Receiver<T>,
    }

    impl<T> Future for RecvFut<'_, T> {
        type Output = Option<T>;

        fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
            let mut inner = self.rx.inner.borrow_mut();
            if let Some(v) = inner.queue.pop_front() {
                return Poll::Ready(Some(v));
            }
            if inner.senders == 0 {
                return Poll::Ready(None);
            }
            inner.waker = Some(cx.waker().clone());
            Poll::Pending
        }
    }

    impl<T> std::fmt::Debug for Sender<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.debug_struct("mpsc::Sender").finish_non_exhaustive()
        }
    }

    impl<T> std::fmt::Debug for Receiver<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.debug_struct("mpsc::Receiver")
                .field("len", &self.len())
                .finish()
        }
    }
}

/// A fair (FIFO) async counting semaphore.
///
/// Releases hand permits directly to the longest-waiting acquirer, so a
/// stream of new arrivals cannot starve waiters. Used to model bounded
/// resources such as an SSD's hardware queue depth.
#[derive(Debug)]
pub struct Semaphore {
    inner: Rc<RefCell<SemInner>>,
}

#[derive(Debug)]
struct SemInner {
    permits: usize,
    waiters: VecDeque<Rc<RefCell<Waiter>>>,
}

#[derive(Debug)]
struct Waiter {
    granted: bool,
    cancelled: bool,
    waker: Option<Waker>,
}

impl Semaphore {
    /// Creates a semaphore with `permits` initial permits.
    pub fn new(permits: usize) -> Semaphore {
        Semaphore {
            inner: Rc::new(RefCell::new(SemInner {
                permits,
                waiters: VecDeque::new(),
            })),
        }
    }

    /// Currently available permits.
    pub fn available(&self) -> usize {
        self.inner.borrow().permits
    }

    /// Acquires one permit, waiting if none is available. The permit is
    /// released when the returned guard is dropped.
    pub fn acquire(&self) -> Acquire {
        Acquire {
            sem: self.clone_ref(),
            waiter: None,
        }
    }

    fn clone_ref(&self) -> Semaphore {
        Semaphore {
            inner: self.inner.clone(),
        }
    }

    fn release_one(&self) {
        let mut inner = self.inner.borrow_mut();
        loop {
            match inner.waiters.pop_front() {
                Some(w) => {
                    let mut w = w.borrow_mut();
                    if w.cancelled {
                        continue;
                    }
                    w.granted = true;
                    if let Some(waker) = w.waker.take() {
                        waker.wake();
                    }
                    return;
                }
                None => {
                    inner.permits += 1;
                    return;
                }
            }
        }
    }
}

impl Clone for Semaphore {
    fn clone(&self) -> Self {
        self.clone_ref()
    }
}

/// Future returned by [`Semaphore::acquire`].
#[derive(Debug)]
pub struct Acquire {
    sem: Semaphore,
    waiter: Option<Rc<RefCell<Waiter>>>,
}

impl Future for Acquire {
    type Output = Permit;

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Permit> {
        if let Some(w) = &self.waiter {
            let mut w = w.borrow_mut();
            if w.granted {
                drop(w);
                self.waiter = None;
                return Poll::Ready(Permit {
                    sem: self.sem.clone_ref(),
                });
            }
            w.waker = Some(cx.waker().clone());
            return Poll::Pending;
        }
        let mut inner = self.sem.inner.borrow_mut();
        if inner.permits > 0 && inner.waiters.is_empty() {
            inner.permits -= 1;
            drop(inner);
            return Poll::Ready(Permit {
                sem: self.sem.clone_ref(),
            });
        }
        let w = Rc::new(RefCell::new(Waiter {
            granted: false,
            cancelled: false,
            waker: Some(cx.waker().clone()),
        }));
        inner.waiters.push_back(w.clone());
        drop(inner);
        self.waiter = Some(w);
        Poll::Pending
    }
}

impl Drop for Acquire {
    fn drop(&mut self) {
        if let Some(w) = &self.waiter {
            let mut w = w.borrow_mut();
            if w.granted {
                // We were handed a permit but never consumed it; pass it on.
                drop(w);
                self.sem.release_one();
            } else {
                w.cancelled = true;
            }
        }
    }
}

/// An acquired semaphore permit; releases on drop.
#[derive(Debug)]
pub struct Permit {
    sem: Semaphore,
}

impl Drop for Permit {
    fn drop(&mut self) {
        self.sem.release_one();
    }
}

/// Runs `futs` side by side in the task that polls the result, which
/// resolves to their outputs in order. Each future is polled only when its
/// own waker fired — all of them, in order, at the first poll — never
/// because a sibling's did, and a wake during the poll is served in that
/// same poll. So the futures see exactly the polls they would see as
/// tasks spawned together, one after another, at this task's place in the
/// ready queue.
pub fn join_all<F: Future>(futs: Vec<F>) -> JoinAll<F> {
    let woken = Arc::new(Mutex::new(Woken {
        flags: vec![true; futs.len()],
        parent: None,
        polling: false,
    }));
    let children = futs
        .into_iter()
        .enumerate()
        .map(|(idx, fut)| {
            let waker = Waker::from(Arc::new(ChildWake {
                idx,
                woken: Arc::clone(&woken),
            }));
            Child::Pending(Box::pin(fut), waker)
        })
        .collect::<Vec<_>>();
    JoinAll {
        left: children.len(),
        children,
        woken,
    }
}

/// Future returned by [`join_all`].
pub struct JoinAll<F: Future> {
    children: Vec<Child<F>>,
    left: usize,
    woken: Arc<Mutex<Woken>>,
}

// Nothing in a `JoinAll` is structurally pinned: each child future sits
// in its own box, and outputs are only ever moved out.
impl<F: Future> Unpin for JoinAll<F> {}

enum Child<F: Future> {
    Pending(Pin<Box<F>>, Waker),
    Done(F::Output),
}

/// Which children were woken since they were last polled, and the task
/// to wake for them.
struct Woken {
    flags: Vec<bool>,
    parent: Option<Waker>,
    /// Set while [`JoinAll::poll`] runs: a wake then needs no task wake.
    polling: bool,
}

struct ChildWake {
    idx: usize,
    woken: Arc<Mutex<Woken>>,
}

impl Wake for ChildWake {
    fn wake(self: Arc<Self>) {
        self.wake_by_ref();
    }

    fn wake_by_ref(self: &Arc<Self>) {
        let parent = {
            let mut w = self.woken.lock().expect("join_all state");
            w.flags[self.idx] = true;
            if w.polling {
                None
            } else {
                w.parent.clone()
            }
        };
        if let Some(p) = parent {
            p.wake();
        }
    }
}

impl<F: Future> JoinAll<F> {
    /// The lowest-indexed woken child, its flag cleared.
    fn next_woken(&self) -> Option<usize> {
        let mut w = self.woken.lock().expect("join_all state");
        let idx = w.flags.iter().position(|&f| f)?;
        w.flags[idx] = false;
        Some(idx)
    }
}

impl<F: Future> Future for JoinAll<F> {
    type Output = Vec<F::Output>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Vec<F::Output>> {
        let this = self.get_mut();
        {
            let mut w = this.woken.lock().expect("join_all state");
            if !w.parent.as_ref().is_some_and(|p| p.will_wake(cx.waker())) {
                w.parent = Some(cx.waker().clone());
            }
            w.polling = true;
        }
        while let Some(idx) = this.next_woken() {
            if let Child::Pending(fut, waker) = &mut this.children[idx] {
                if let Poll::Ready(out) = fut.as_mut().poll(&mut Context::from_waker(waker)) {
                    this.children[idx] = Child::Done(out);
                    this.left -= 1;
                }
            }
        }
        this.woken.lock().expect("join_all state").polling = false;
        if this.left > 0 {
            return Poll::Pending;
        }
        let outs = std::mem::take(&mut this.children)
            .into_iter()
            .map(|c| match c {
                Child::Done(out) => out,
                Child::Pending(..) => unreachable!("every child finished"),
            })
            .collect();
        Poll::Ready(outs)
    }
}

impl<F: Future> std::fmt::Debug for JoinAll<F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JoinAll")
            .field("children", &self.children.len())
            .field("left", &self.left)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Sim, SimTime};
    use std::time::Duration;

    #[test]
    fn oneshot_delivers() {
        let mut sim = Sim::new(1);
        let out = sim.block_on(async {
            let (tx, rx) = oneshot::channel();
            tx.send(5u32).unwrap();
            rx.await
        });
        assert_eq!(out, Ok(5));
    }

    #[test]
    fn oneshot_sender_drop_closes() {
        let mut sim = Sim::new(1);
        let out = sim.block_on(async {
            let (tx, rx) = oneshot::channel::<u32>();
            drop(tx);
            rx.await
        });
        assert_eq!(out, Err(Closed));
    }

    #[test]
    fn oneshot_receiver_drop_rejects_send() {
        let (tx, rx) = oneshot::channel::<u32>();
        drop(rx);
        assert_eq!(tx.send(3), Err(3));
    }

    #[test]
    fn mpsc_preserves_order_and_closes() {
        let mut sim = Sim::new(1);
        let out = sim.block_on(async {
            let (tx, rx) = mpsc::channel();
            for i in 0..5 {
                tx.send(i).unwrap();
            }
            drop(tx);
            let mut got = Vec::new();
            while let Some(v) = rx.recv().await {
                got.push(v);
            }
            got
        });
        assert_eq!(out, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn mpsc_wakes_blocked_receiver() {
        let mut sim = Sim::new(1);
        let h = sim.handle();
        let out = sim.block_on(async move {
            let (tx, rx) = mpsc::channel();
            let h2 = h.clone();
            h.spawn(async move {
                h2.sleep(Duration::from_millis(1)).await;
                tx.send(42).unwrap();
            });
            rx.recv().await
        });
        assert_eq!(out, Some(42));
    }

    #[test]
    fn semaphore_limits_concurrency() {
        let mut sim = Sim::new(1);
        let h = sim.handle();
        let peak = Rc::new(RefCell::new((0usize, 0usize))); // (current, max)
        let sem = Semaphore::new(3);
        let mut handles = Vec::new();
        for _ in 0..10 {
            let sem = sem.clone();
            let peak = peak.clone();
            let h2 = h.clone();
            handles.push(h.spawn(async move {
                let _permit = sem.acquire().await;
                {
                    let mut p = peak.borrow_mut();
                    p.0 += 1;
                    p.1 = p.1.max(p.0);
                }
                h2.sleep(Duration::from_micros(50)).await;
                peak.borrow_mut().0 -= 1;
            }));
        }
        sim.block_on(async move {
            for jh in handles {
                jh.await;
            }
        });
        assert_eq!(peak.borrow().1, 3);
    }

    #[test]
    fn semaphore_is_fifo_fair() {
        let mut sim = Sim::new(1);
        let h = sim.handle();
        let order = Rc::new(RefCell::new(Vec::new()));
        let sem = Semaphore::new(1);
        let mut handles = Vec::new();
        for i in 0..5 {
            let sem = sem.clone();
            let order = order.clone();
            let h2 = h.clone();
            handles.push(h.spawn(async move {
                let _p = sem.acquire().await;
                order.borrow_mut().push(i);
                h2.sleep(Duration::from_micros(10)).await;
            }));
        }
        sim.block_on(async move {
            for jh in handles {
                jh.await;
            }
        });
        assert_eq!(order.borrow().clone(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn cancelled_waiter_does_not_leak_permit() {
        let mut sim = Sim::new(1);
        let h = sim.handle();
        let sem = Semaphore::new(1);
        let sem2 = sem.clone();
        let h2 = h.clone();
        sim.block_on(async move {
            let p = sem2.acquire().await;
            // Start a waiter, then cancel it via timeout.
            let waiter = h2.timeout(Duration::from_micros(5), sem2.acquire());
            assert!(waiter.await.is_err());
            drop(p);
            // Semaphore must still grant.
            let _p2 = h2
                .timeout(Duration::from_micros(5), sem2.acquire())
                .await
                .expect("permit available after cancellation");
        });
        // All permits returned once the block's guards drop.
        assert_eq!(sem.available(), 1);
    }

    #[test]
    fn join_all_polls_each_future_only_on_its_own_wake() {
        let mut sim = Sim::new(1);
        let h = sim.handle();
        let polls = Rc::new(RefCell::new(vec![0u32; 3]));
        let futs: Vec<_> = [3u64, 1, 2]
            .into_iter()
            .enumerate()
            .map(|(i, ms)| {
                let (h, polls) = (h.clone(), polls.clone());
                let mut sleep = Box::pin(h.sleep(Duration::from_millis(ms)));
                std::future::poll_fn(move |cx| {
                    polls.borrow_mut()[i] += 1;
                    sleep.as_mut().poll(cx).map(|()| (i, h.now()))
                })
            })
            .collect();
        let hh = h.clone();
        let out = sim.block_on(async move { hh.spawn(join_all(futs)).await });
        let ms = SimTime::from_millis;
        assert_eq!(out, [(0, ms(3)), (1, ms(1)), (2, ms(2))]);
        // A first poll each, then one poll at its own timer: never a poll
        // for a sibling's wake.
        assert_eq!(*polls.borrow(), [2, 2, 2]);
    }

    #[test]
    fn join_all_serves_a_wake_from_a_sibling_in_the_same_poll() {
        let mut sim = Sim::new(1);
        let h = sim.handle();
        let sem = Semaphore::new(1);
        let order = Rc::new(RefCell::new(Vec::new()));
        let futs: Vec<_> = (0..3)
            .map(|i| {
                let (h, sem, order) = (h.clone(), sem.clone(), order.clone());
                async move {
                    let _permit = sem.acquire().await;
                    order.borrow_mut().push((i, h.now()));
                    h.sleep(Duration::from_millis(1)).await;
                }
            })
            .collect();
        let hh = h.clone();
        let spawns = h.spawns();
        sim.block_on(async move { hh.spawn(join_all(futs)).await });
        let ms = SimTime::from_millis;
        assert_eq!(*order.borrow(), [(0, ms(0)), (1, ms(1)), (2, ms(2))]);
        assert_eq!(h.spawns() - spawns, 2); // `block_on`'s and the join's
    }
}
