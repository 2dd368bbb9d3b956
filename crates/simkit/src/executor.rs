//! A deterministic, single-threaded, virtual-time async executor.
//!
//! The executor drives `!Send` futures over a simulated clock: time advances
//! only when no task is runnable, jumping straight to the next timer or
//! message delivery. Runs are exactly reproducible for a given seed because
//! all scheduling is FIFO and all randomness flows from one seeded RNG.
//!
//! # Examples
//!
//! ```
//! use simkit::{Sim, time::SimTime};
//! use std::time::Duration;
//!
//! let mut sim = Sim::new(42);
//! let h = sim.handle();
//! let elapsed = sim.block_on(async move {
//!     h.sleep(Duration::from_millis(5)).await;
//!     h.now()
//! });
//! assert_eq!(elapsed, SimTime::from_millis(5));
//! ```

use std::cell::RefCell;
use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, RawWaker, RawWakerVTable, Waker};
use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::net::{Addr, NetState, NodeId, Packet};
use crate::queue::{EventKey, EventQueue};
use crate::time::SimTime;

/// Identifies a spawned task. Slot indices are reused; the generation
/// counter distinguishes incarnations so stale wake-ups are ignored.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct TaskId {
    idx: u32,
    gen: u32,
}

type ReadyQueue = Rc<RefCell<VecDeque<TaskId>>>;

/// What a task's [`Waker`] points at. Each task gets one, at its first
/// poll, and keeps it for life: a wake pushes the task's id onto the ready
/// queue, and cloning or dropping the waker only counts references.
///
/// The waker is built over an `Rc`, which `Waker`'s `Send + Sync` would
/// normally forbid. It is sound here because every waker stays on the
/// thread of the simulation that made it: [`Sim`] and [`SimHandle`] are
/// `!Send` through their `Rc`s, every future the executor polls is one of
/// theirs, and no code in the workspace moves a `Waker` out of a
/// simulation's own state to another thread.
struct TaskWaker {
    id: TaskId,
    ready: ReadyQueue,
}

impl TaskWaker {
    const VTABLE: RawWakerVTable = RawWakerVTable::new(
        TaskWaker::clone_raw,
        TaskWaker::wake_raw,
        TaskWaker::wake_by_ref_raw,
        TaskWaker::drop_raw,
    );

    fn waker(id: TaskId, ready: ReadyQueue) -> Waker {
        let data = Rc::into_raw(Rc::new(TaskWaker { id, ready })).cast::<()>();
        // SAFETY: `data` is an owned `Rc<TaskWaker>` reference, and every
        // vtable entry treats it as one (see the type's docs for why an
        // `Rc` may back a `Waker` here).
        unsafe { Waker::from_raw(RawWaker::new(data, &Self::VTABLE)) }
    }

    fn wake_by_ref(&self) {
        self.ready.borrow_mut().push_back(self.id);
    }

    // # Safety (all four vtable entries)
    //
    // `data` is the pointer of a live waker built by `TaskWaker::waker` or
    // `clone_raw`, i.e. an `Rc<TaskWaker>` reference that waker owns, on
    // the thread of the simulation that built it.

    unsafe fn clone_raw(data: *const ()) -> RawWaker {
        // SAFETY: `data` is the `Rc<TaskWaker>` of a live waker, so its
        // count is at least one; the new `RawWaker` owns the increment.
        unsafe { Rc::increment_strong_count(data.cast::<TaskWaker>()) };
        RawWaker::new(data, &Self::VTABLE)
    }

    unsafe fn wake_raw(data: *const ()) {
        // SAFETY: waking by value consumes the waker's own reference.
        let this = unsafe { Rc::from_raw(data.cast::<TaskWaker>()) };
        this.wake_by_ref();
    }

    unsafe fn wake_by_ref_raw(data: *const ()) {
        // SAFETY: the waker that holds `data` is borrowed for this call.
        unsafe { &*data.cast::<TaskWaker>() }.wake_by_ref();
    }

    unsafe fn drop_raw(data: *const ()) {
        // SAFETY: dropping the waker releases its own reference.
        unsafe { Rc::decrement_strong_count(data.cast::<TaskWaker>()) };
    }
}

struct Task {
    fut: Pin<Box<dyn Future<Output = ()>>>,
    node: Option<NodeId>,
    /// Built at the first poll, then handed to every later one.
    waker: Option<Waker>,
}

/// What a spawn boxes: the caller's future and the join state its output
/// goes to, side by side — `size_of::<F>()` plus one pointer.
struct TaskFuture<F: Future> {
    fut: F,
    state: Rc<RefCell<JoinState<F::Output>>>,
}

impl<F: Future> Future for TaskFuture<F> {
    type Output = ();

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        // SAFETY: nothing below moves out of `this`; `fut` is re-pinned at
        // once and `state` is an `Rc`, which is not pinned.
        let this = unsafe { self.get_unchecked_mut() };
        // SAFETY: `fut` is structurally pinned. It is only ever reached
        // through this projection, never moved out of the pinned
        // `TaskFuture` (which has no `Drop` impl and is not `repr(packed)`),
        // and `TaskFuture` is `Unpin` only when `F` is.
        let fut = unsafe { Pin::new_unchecked(&mut this.fut) };
        let Poll::Ready(out) = fut.poll(cx) else {
            return Poll::Pending;
        };
        let mut s = this.state.borrow_mut();
        s.value = Some(out);
        s.finished = true;
        if let Some(w) = s.waker.take() {
            w.wake();
        }
        Poll::Ready(())
    }
}

enum SlotState {
    Vacant,
    Idle(Task),
    /// The task has been taken out of the slab for polling.
    Polling,
}

struct Slot {
    gen: u32,
    state: SlotState,
}

#[derive(Default)]
struct TaskSlab {
    slots: Vec<Slot>,
    free: Vec<u32>,
    live: usize,
}

impl TaskSlab {
    fn insert(&mut self, task: Task) -> TaskId {
        self.live += 1;
        if let Some(idx) = self.free.pop() {
            let slot = &mut self.slots[idx as usize];
            slot.state = SlotState::Idle(task);
            TaskId { idx, gen: slot.gen }
        } else {
            let idx = self.slots.len() as u32;
            self.slots.push(Slot {
                gen: 0,
                state: SlotState::Idle(task),
            });
            TaskId { idx, gen: 0 }
        }
    }

    fn take_for_poll(&mut self, id: TaskId) -> Option<Task> {
        let slot = self.slots.get_mut(id.idx as usize)?;
        if slot.gen != id.gen {
            return None;
        }
        match std::mem::replace(&mut slot.state, SlotState::Polling) {
            SlotState::Idle(task) => Some(task),
            other => {
                slot.state = other;
                None
            }
        }
    }

    fn put_back(&mut self, id: TaskId, task: Task) {
        let slot = &mut self.slots[id.idx as usize];
        debug_assert_eq!(slot.gen, id.gen);
        debug_assert!(matches!(slot.state, SlotState::Polling));
        slot.state = SlotState::Idle(task);
    }

    fn complete(&mut self, id: TaskId) {
        let slot = &mut self.slots[id.idx as usize];
        debug_assert_eq!(slot.gen, id.gen);
        slot.state = SlotState::Vacant;
        slot.gen = slot.gen.wrapping_add(1);
        self.free.push(id.idx);
        self.live -= 1;
    }

    /// Removes every idle task owned by `node`, returning the futures so the
    /// caller can drop them outside the scheduler borrow.
    fn remove_node(&mut self, node: NodeId) -> Vec<Task> {
        let mut removed = Vec::new();
        for idx in 0..self.slots.len() {
            let owned =
                matches!(&self.slots[idx].state, SlotState::Idle(t) if t.node == Some(node));
            if owned {
                let slot = &mut self.slots[idx];
                if let SlotState::Idle(task) = std::mem::replace(&mut slot.state, SlotState::Vacant)
                {
                    slot.gen = slot.gen.wrapping_add(1);
                    self.free.push(idx as u32);
                    self.live -= 1;
                    removed.push(task);
                }
            }
        }
        removed
    }
}

pub(crate) enum TimerFire {
    Wake(Waker),
    /// A [`SimHandle::call_at`] callback; `owner`'s death cancels it.
    Call {
        owner: Option<NodeId>,
        f: Box<dyn FnOnce()>,
    },
    Deliver {
        to: Addr,
        packet: Packet,
    },
}

/// Counters for [`Sleep`] timers and [`SimHandle::call_at`] callbacks
/// (packet deliveries share the event queue but are counted by
/// [`NetStats`](crate::net::NetStats)). Deterministic for a given seed;
/// `armed == fired + cancelled + pending` always holds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TimerStats {
    /// Sleeps and callbacks that entered the event queue (at most once per
    /// [`Sleep`]).
    pub armed: u64,
    /// Timers that reached their deadline and woke their task or ran their
    /// callback.
    pub fired: u64,
    /// Timers removed first: their [`Sleep`] was dropped, their callback
    /// cancelled, or its owner killed.
    pub cancelled: u64,
    /// Timers in the event queue now.
    pub pending: u64,
}

pub(crate) struct Inner {
    now: SimTime,
    timers: EventQueue<TimerFire>,
    timer_stats: TimerStats,
    tasks: TaskSlab,
    pub(crate) rng: StdRng,
    pub(crate) net: NetState,
    /// Task polls executed so far. Deterministic for a given seed and
    /// workload, so perf baselines can report sim-events/sec with a
    /// byte-stable numerator.
    polls: u64,
    /// Tasks spawned so far; deterministic like `polls`.
    spawns: u64,
    /// True while [`Sim::poll_task`] is polling a task.
    polling: bool,
}

impl Inner {
    pub(crate) fn now(&self) -> SimTime {
        self.now
    }

    pub(crate) fn schedule(&mut self, at: SimTime, fire: TimerFire) -> EventKey {
        self.timers.push(at, fire)
    }

    /// Removes all idle tasks and pending callbacks owned by `node` so the
    /// caller can drop them outside of the scheduler borrow.
    pub(crate) fn remove_node(&mut self, node: NodeId) -> (Vec<impl Sized>, Vec<impl Sized>) {
        let calls = self.timers.remove_where(
            |fire| matches!(fire, TimerFire::Call { owner: Some(n), .. } if *n == node),
        );
        self.timer_stats.cancelled += calls.len() as u64;
        self.timer_stats.pending -= calls.len() as u64;
        (self.tasks.remove_node(node), calls)
    }
}

/// A deterministic discrete-event simulation.
///
/// Owns the run loop; cheap [`SimHandle`]s are passed into tasks for
/// spawning, sleeping, messaging, and randomness.
pub struct Sim {
    handle: SimHandle,
}

impl Sim {
    /// Creates a simulation whose randomness derives entirely from `seed`.
    pub fn new(seed: u64) -> Sim {
        let inner = Inner {
            now: SimTime::ZERO,
            timers: EventQueue::new(),
            timer_stats: TimerStats::default(),
            tasks: TaskSlab::default(),
            rng: StdRng::seed_from_u64(seed),
            net: NetState::new(),
            polls: 0,
            spawns: 0,
            polling: false,
        };
        Sim {
            handle: SimHandle {
                inner: Rc::new(RefCell::new(inner)),
                ready: Rc::default(),
            },
        }
    }

    /// Returns a cheap, cloneable handle for use inside tasks.
    pub fn handle(&self) -> SimHandle {
        self.handle.clone()
    }

    /// Runs `fut` to completion, driving all other spawned tasks and virtual
    /// time along the way, and returns its output.
    ///
    /// # Panics
    ///
    /// Panics if the simulation deadlocks (no runnable task, no pending
    /// timer) before `fut` completes.
    pub fn block_on<F>(&mut self, fut: F) -> F::Output
    where
        F: Future + 'static,
        F::Output: 'static,
    {
        let jh = self.handle.spawn(fut);
        loop {
            if self.drain_ready(|| jh.is_finished()) {
                return jh.try_take().expect("join handle lost its value");
            }
            if !self.advance(None) {
                panic!(
                    "simulation deadlocked at {} before block_on future completed",
                    self.handle.now()
                );
            }
        }
    }

    /// Runs until there is no runnable task and no pending timer.
    pub fn run(&mut self) {
        loop {
            self.drain_ready(|| false);
            if !self.advance(None) {
                break;
            }
        }
    }

    /// Runs until virtual time reaches `deadline` (or the simulation goes
    /// idle, whichever comes first). Leaves later timers pending.
    pub fn run_until(&mut self, deadline: SimTime) {
        loop {
            self.drain_ready(|| false);
            match self.advance(Some(deadline)) {
                true => continue,
                false => break,
            }
        }
        let mut inner = self.handle.inner.borrow_mut();
        if inner.now < deadline {
            inner.now = deadline;
        }
    }

    /// Polls runnable tasks in FIFO order until `done()` holds (checked
    /// before each poll; returns true) or none is left (returns false).
    fn drain_ready(&mut self, done: impl Fn() -> bool) -> bool {
        while !done() {
            let next = self.handle.ready.borrow_mut().pop_front();
            match next {
                Some(tid) => self.poll_task(tid),
                None => return false,
            }
        }
        true
    }

    /// Fires the next timer, advancing the clock. Returns false if there was
    /// nothing to fire (or it lies past `deadline`).
    ///
    /// Called only once the ready queue is empty, so whatever the event sets
    /// in motion — a sink answering a request in place included — runs
    /// before any other task, exactly as a task spawned for it would.
    fn advance(&mut self, deadline: Option<SimTime>) -> bool {
        debug_assert!(
            self.handle.ready.borrow().is_empty(),
            "an event fired with tasks still ready"
        );
        let fire = {
            let mut inner = self.handle.inner.borrow_mut();
            let Some((at, fire)) = inner.timers.pop(deadline) else {
                return false;
            };
            debug_assert!(at >= inner.now, "timer in the past");
            inner.now = at;
            if !matches!(fire, TimerFire::Deliver { .. }) {
                inner.timer_stats.fired += 1;
                inner.timer_stats.pending -= 1;
            }
            fire
        };
        match fire {
            TimerFire::Wake(waker) => waker.wake(),
            TimerFire::Call { f, .. } => f(),
            TimerFire::Deliver { to, packet } => self.handle.deliver_now(to, packet),
        }
        true
    }

    fn poll_task(&mut self, tid: TaskId) {
        let task = {
            let mut inner = self.handle.inner.borrow_mut();
            inner.polls += 1;
            let task = inner.tasks.take_for_poll(tid);
            inner.polling = task.is_some();
            task
        };
        let Some(mut task) = task else { return };
        let waker = task
            .waker
            .get_or_insert_with(|| TaskWaker::waker(tid, self.handle.ready.clone()));
        let poll = task.fut.as_mut().poll(&mut Context::from_waker(waker));
        let mut inner = self.handle.inner.borrow_mut();
        inner.polling = false;
        match poll {
            Poll::Ready(()) => inner.tasks.complete(tid),
            Poll::Pending => {
                let killed = task.node.is_some_and(|n| inner.net.is_dead(n));
                if killed {
                    inner.tasks.complete(tid);
                    // Outside the scheduler borrow: `Sleep::drop` takes it.
                    drop(inner);
                    drop(task);
                } else {
                    inner.tasks.put_back(tid, task);
                }
            }
        }
    }
}

impl std::fmt::Debug for Sim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sim")
            .field("now", &self.handle.now())
            .finish()
    }
}

/// Cheap, cloneable handle to a running [`Sim`].
///
/// All task-side interaction with the simulation — spawning, sleeping,
/// messaging, randomness — goes through a handle.
#[derive(Clone)]
pub struct SimHandle {
    pub(crate) inner: Rc<RefCell<Inner>>,
    ready: ReadyQueue,
}

impl SimHandle {
    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.inner.borrow().now
    }

    /// Task polls executed so far — the discrete-event "work" counter.
    /// Deterministic for a given seed and workload, so perf baselines can
    /// report sim-events/sec with a byte-stable numerator.
    pub fn polls(&self) -> u64 {
        self.inner.borrow().polls
    }

    /// Tasks spawned so far (every [`SimHandle::spawn`] and
    /// [`SimHandle::spawn_on`], [`Sim::block_on`]'s own included).
    /// Deterministic for a given seed and workload, like [`SimHandle::polls`].
    pub fn spawns(&self) -> u64 {
        self.inner.borrow().spawns
    }

    /// Snapshot of the [`Sleep`] timer counters.
    pub fn timer_stats(&self) -> TimerStats {
        self.inner.borrow().timer_stats
    }

    /// Spawns a task not owned by any simulated node.
    pub fn spawn<F>(&self, fut: F) -> JoinHandle<F::Output>
    where
        F: Future + 'static,
        F::Output: 'static,
    {
        self.spawn_inner(fut, None)
    }

    /// Spawns a task owned by `node`; it is aborted if the node is killed.
    pub fn spawn_on<F>(&self, node: NodeId, fut: F) -> JoinHandle<F::Output>
    where
        F: Future + 'static,
        F::Output: 'static,
    {
        self.spawn_inner(fut, Some(node))
    }

    fn spawn_inner<F>(&self, fut: F, node: Option<NodeId>) -> JoinHandle<F::Output>
    where
        F: Future + 'static,
        F::Output: 'static,
    {
        let state = Rc::new(RefCell::new(JoinState {
            value: None,
            waker: None,
            finished: false,
        }));
        let wrapped = Box::pin(TaskFuture {
            fut,
            state: state.clone(),
        });
        let tid = {
            let mut inner = self.inner.borrow_mut();
            inner.spawns += 1;
            if let Some(n) = node {
                assert!(
                    !inner.net.is_dead(n),
                    "spawn_on a dead node {n:?}; revive it first"
                );
            }
            inner.tasks.insert(Task {
                fut: wrapped,
                node,
                waker: None,
            })
        };
        self.ready.borrow_mut().push_back(tid);
        JoinHandle { state }
    }

    /// Sleeps for `dur` of virtual time.
    pub fn sleep(&self, dur: Duration) -> Sleep {
        let deadline = self.now() + dur;
        self.sleep_until(deadline)
    }

    /// Sleeps until the given virtual instant (returns immediately if it is
    /// already past).
    pub fn sleep_until(&self, deadline: SimTime) -> Sleep {
        Sleep {
            handle: self.clone(),
            deadline,
            armed: None,
        }
    }

    /// Runs `f` at virtual instant `at` without a task: the callback is an
    /// entry in the event queue, fired in `(at, seq)` order with sleeps and
    /// packet deliveries and counted in [`TimerStats`] like a [`Sleep`].
    /// It runs at its event, with no task ready, so it stands in exactly
    /// for a task that would sleep until `at` and then run `f` — provided
    /// nothing would have armed another entry for the same instant between
    /// the call and that task's first poll. An `at` already reached fires at the next event,
    /// after every ready task: a deadline that is already due belongs in a
    /// task. [`SimHandle::kill_node`] on `owner` cancels the callback.
    ///
    /// # Panics
    ///
    /// Panics if `owner` is dead, like [`SimHandle::spawn_on`].
    pub fn call_at(
        &self,
        owner: Option<NodeId>,
        at: SimTime,
        f: impl FnOnce() + 'static,
    ) -> TimerKey {
        let mut inner = self.inner.borrow_mut();
        if let Some(n) = owner {
            assert!(
                !inner.net.is_dead(n),
                "call_at owned by a dead node {n:?}; revive it first"
            );
        }
        inner.timer_stats.armed += 1;
        inner.timer_stats.pending += 1;
        let f = Box::new(f);
        TimerKey(inner.schedule(at, TimerFire::Call { owner, f }))
    }

    /// Removes the callback `key` names, in O(1). Returns false if it
    /// already fired or was cancelled.
    pub(crate) fn cancel(&self, key: TimerKey) -> bool {
        let removed = {
            let mut inner = self.inner.borrow_mut();
            let removed = inner.timers.remove(key.0);
            if removed.is_some() {
                inner.timer_stats.cancelled += 1;
                inner.timer_stats.pending -= 1;
            }
            removed
        };
        // Outside the scheduler borrow: the closure may own a `Sleep`.
        removed.is_some()
    }

    /// Runs `f` where a task spawned now would first be polled, spawning
    /// one only when that place is not here and now. Inside a task's poll
    /// it is the back of the ready queue, so `f` becomes a one-shot task
    /// there, owned by `owner`. In a [`SimHandle::call_at`] callback or a
    /// sink, which run at an event with no task ready, it is the instant
    /// the callback returns, so `f` runs at once — the same only when the
    /// call is the last thing the callback does.
    pub fn run_next(&self, owner: Option<NodeId>, f: impl FnOnce() + 'static) {
        if self.inner.borrow().polling {
            self.spawn_inner(async move { f() }, owner);
        } else {
            f();
        }
    }

    /// Yields once, letting other runnable tasks make progress.
    pub fn yield_now(&self) -> YieldNow {
        YieldNow { polled: false }
    }

    /// Runs `fut` with an upper bound of `dur` virtual time.
    ///
    /// # Errors
    ///
    /// Returns [`Elapsed`] if the timeout fires first.
    pub async fn timeout<F: Future>(&self, dur: Duration, fut: F) -> Result<F::Output, Elapsed> {
        let sleep = self.sleep(dur);
        let mut fut = std::pin::pin!(fut);
        let mut sleep = std::pin::pin!(sleep);
        std::future::poll_fn(|cx| {
            if let Poll::Ready(v) = fut.as_mut().poll(cx) {
                return Poll::Ready(Ok(v));
            }
            if sleep.as_mut().poll(cx).is_ready() {
                return Poll::Ready(Err(Elapsed));
            }
            Poll::Pending
        })
        .await
    }

    /// Runs a closure against the simulation RNG.
    pub(crate) fn with_rng<T>(&self, f: impl FnOnce(&mut StdRng) -> T) -> T {
        f(&mut self.inner.borrow_mut().rng)
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn rand_f64(&self) -> f64 {
        self.with_rng(|r| r.gen::<f64>())
    }

    /// Uniform `u64` over the full range.
    pub fn rand_u64(&self) -> u64 {
        self.with_rng(|r| r.gen::<u64>())
    }

    /// Uniform integer in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    pub fn rand_range(&self, lo: u64, hi: u64) -> u64 {
        self.with_rng(|r| r.gen_range(lo..hi))
    }

    /// Derives an independent RNG stream from the simulation RNG; useful for
    /// components that must not perturb global sampling order.
    pub fn fork_rng(&self) -> StdRng {
        let seed = self.rand_u64();
        StdRng::seed_from_u64(seed)
    }
}

impl std::fmt::Debug for SimHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimHandle")
            .field("now", &self.now())
            .finish()
    }
}

/// Names a callback armed by [`SimHandle::call_at`], for
/// [`SimHandle::cancel`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimerKey(EventKey);

/// Error returned by [`SimHandle::timeout`] when the deadline fires first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Elapsed;

impl std::fmt::Display for Elapsed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "virtual-time deadline elapsed")
    }
}

impl std::error::Error for Elapsed {}

struct JoinState<T> {
    value: Option<T>,
    waker: Option<Waker>,
    finished: bool,
}

/// Handle for awaiting a spawned task's output.
pub struct JoinHandle<T> {
    state: Rc<RefCell<JoinState<T>>>,
}

impl<T> JoinHandle<T> {
    /// True once the task has run to completion.
    pub(crate) fn is_finished(&self) -> bool {
        self.state.borrow().finished
    }

    /// Takes the output if the task has completed and the value was not
    /// already consumed.
    pub(crate) fn try_take(&self) -> Option<T> {
        self.state.borrow_mut().value.take()
    }
}

impl<T> Future for JoinHandle<T> {
    type Output = T;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<T> {
        let mut s = self.state.borrow_mut();
        if let Some(v) = s.value.take() {
            return Poll::Ready(v);
        }
        assert!(!s.finished, "JoinHandle polled after output was taken");
        s.waker = Some(cx.waker().clone());
        Poll::Pending
    }
}

impl<T> std::fmt::Debug for JoinHandle<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JoinHandle")
            .field("finished", &self.is_finished())
            .finish()
    }
}

/// Future returned by [`SimHandle::sleep`] / [`SimHandle::sleep_until`].
///
/// Holds at most one event-queue entry: the first pending poll arms it,
/// later polls only retarget its waker, and dropping the `Sleep` removes it.
#[derive(Debug)]
pub struct Sleep {
    handle: SimHandle,
    deadline: SimTime,
    armed: Option<EventKey>,
}

impl Future for Sleep {
    type Output = ();

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        let this = self.get_mut();
        let mut inner = this.handle.inner.borrow_mut();
        if inner.now >= this.deadline {
            return Poll::Ready(());
        }
        match this.armed {
            None => {
                let wake = TimerFire::Wake(cx.waker().clone());
                this.armed = Some(inner.schedule(this.deadline, wake));
                inner.timer_stats.armed += 1;
                inner.timer_stats.pending += 1;
            }
            // Still queued: the deadline has not passed, and otherwise only
            // `Drop` removes the entry.
            Some(key) => match inner.timers.get_mut(key) {
                Some(TimerFire::Wake(waker)) if !waker.will_wake(cx.waker()) => {
                    *waker = cx.waker().clone();
                }
                _ => {}
            },
        }
        Poll::Pending
    }
}

impl Drop for Sleep {
    // Borrows the scheduler state, so task futures must never be dropped
    // under that borrow (see `Sim::poll_task` and `SimHandle::kill_node`).
    fn drop(&mut self) {
        if let Some(key) = self.armed {
            let mut inner = self.handle.inner.borrow_mut();
            // `None` when the timer already fired.
            if inner.timers.remove(key).is_some() {
                inner.timer_stats.cancelled += 1;
                inner.timer_stats.pending -= 1;
            }
        }
    }
}

/// Future returned by [`SimHandle::yield_now`].
#[derive(Debug)]
pub struct YieldNow {
    polled: bool,
}

impl Future for YieldNow {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        if self.polled {
            Poll::Ready(())
        } else {
            self.polled = true;
            cx.waker().wake_by_ref();
            Poll::Pending
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_starts_at_zero() {
        let sim = Sim::new(1);
        assert_eq!(sim.handle().now(), SimTime::ZERO);
    }

    #[test]
    fn sleep_advances_virtual_time_only() {
        let mut sim = Sim::new(1);
        let h = sim.handle();
        let t = sim.block_on(async move {
            h.sleep(Duration::from_secs(3600)).await;
            h.now()
        });
        assert_eq!(t, SimTime::from_secs(3600));
    }

    #[test]
    fn tasks_interleave_deterministically() {
        let mut sim = Sim::new(1);
        let h = sim.handle();
        let log = Rc::new(RefCell::new(Vec::new()));
        let (l1, l2) = (log.clone(), log.clone());
        let h1 = h.clone();
        let h2 = h.clone();
        sim.block_on(async move {
            let a = h.spawn(async move {
                for i in 0..3 {
                    h1.sleep(Duration::from_micros(10)).await;
                    l1.borrow_mut().push(format!("a{i}"));
                }
            });
            let b = h.spawn(async move {
                for i in 0..3 {
                    h2.sleep(Duration::from_micros(15)).await;
                    l2.borrow_mut().push(format!("b{i}"));
                }
            });
            a.await;
            b.await;
        });
        // a fires at 10,20,30; b at 15,30,45. At the t=30 tie, b's timer was
        // registered earlier (at t=15) so it fires first.
        assert_eq!(
            log.borrow().clone(),
            vec!["a0", "b0", "a1", "b1", "a2", "b2"]
        );
    }

    fn boxed_task_size<F: Future>(_: &F) -> usize {
        std::mem::size_of::<TaskFuture<F>>()
    }

    #[test]
    fn a_task_boxes_its_future_once_plus_a_pointer() {
        let big = [7u8; 1000];
        let h = Sim::new(1).handle();
        let fut = async move {
            h.yield_now().await;
            big.iter().map(|&b| u32::from(b)).sum::<u32>()
        };
        let size = std::mem::size_of_val(&fut);
        assert!(size >= 1000);
        assert!(boxed_task_size(&fut) <= size + 16, "{size}");
    }

    #[test]
    fn spawns_are_counted() {
        let mut sim = Sim::new(1);
        let h = sim.handle();
        let hh = h.clone();
        assert_eq!(h.spawns(), 0);
        sim.block_on(async move {
            hh.spawn(async {}).await;
            hh.spawn_on(NodeId(3), async {}).await;
        });
        assert_eq!(h.spawns(), 3); // `block_on`'s own task included
    }

    #[test]
    fn join_handle_returns_value() {
        let mut sim = Sim::new(1);
        let h = sim.handle();
        let out = sim.block_on(async move {
            let jh = h.spawn(async { 7u32 });
            jh.await
        });
        assert_eq!(out, 7);
    }

    #[test]
    fn timeout_fires_on_slow_future() {
        let mut sim = Sim::new(1);
        let h = sim.handle();
        let hh = h.clone();
        let out = sim.block_on(async move {
            hh.timeout(Duration::from_millis(1), async {
                hh.sleep(Duration::from_millis(10)).await;
                5
            })
            .await
        });
        assert_eq!(out, Err(Elapsed));
        // The losing inner sleep was dropped with the timeout and took its
        // timer with it.
        let stats = h.timer_stats();
        assert_eq!((stats.armed, stats.fired, stats.cancelled), (2, 1, 1));
        assert_eq!(stats.pending, 0);
    }

    #[test]
    fn timeout_passes_fast_future() {
        let mut sim = Sim::new(1);
        let h = sim.handle();
        let hh = h.clone();
        let out = sim.block_on(async move {
            hh.timeout(Duration::from_millis(10), async {
                hh.sleep(Duration::from_millis(1)).await;
                5
            })
            .await
        });
        assert_eq!(out, Ok(5));
        // The 10 ms guard was disarmed when the timeout returned.
        let stats = h.timer_stats();
        assert_eq!((stats.armed, stats.fired, stats.cancelled), (2, 1, 1));
        assert_eq!(stats.pending, 0);
    }

    #[test]
    fn repolled_timeout_arms_one_timer() {
        let mut sim = Sim::new(1);
        let h = sim.handle();
        let hh = h.clone();
        let (tx, rx) = crate::sync::mpsc::channel::<u32>();
        h.spawn(async move {
            for i in 0..100 {
                tx.send(i).unwrap();
                hh.yield_now().await;
            }
        });
        let hh = h.clone();
        let got = sim.block_on(async move {
            hh.timeout(Duration::from_secs(1), async {
                let mut got = 0;
                while rx.recv().await.is_some() {
                    got += 1;
                }
                got
            })
            .await
        });
        assert_eq!(got, Ok(100));
        // A hundred wake-ups re-polled the guard sleep; it armed once.
        let stats = h.timer_stats();
        assert_eq!((stats.armed, stats.cancelled, stats.pending), (1, 1, 0));
    }

    #[test]
    fn dropped_sleep_never_polls_its_task() {
        let mut sim = Sim::new(1);
        let h = sim.handle();
        let hh = h.clone();
        h.spawn(async move {
            let fast = hh.sleep(Duration::from_millis(1));
            hh.timeout(Duration::from_millis(10), fast).await.unwrap();
            hh.sleep(Duration::from_millis(100)).await;
        });
        sim.run_until(SimTime::from_millis(5));
        let polls = h.polls();
        assert_eq!(h.timer_stats().pending, 1); // the 100 ms sleep
        sim.run_until(SimTime::from_millis(50)); // across the old 10 ms deadline
        assert_eq!(h.polls(), polls);
    }

    use std::sync::Arc;
    use std::task::Wake;

    struct CountWake(std::sync::atomic::AtomicU32);

    impl Wake for CountWake {
        fn wake(self: Arc<Self>) {
            self.0.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        }
    }

    #[test]
    fn repolled_sleep_wakes_the_latest_waker_once() {
        let mut sim = Sim::new(1);
        let h = sim.handle();
        let (a, b) = (Arc::new(CountWake(0.into())), Arc::new(CountWake(0.into())));
        let (wa, wb) = (Waker::from(a.clone()), Waker::from(b.clone()));
        let (mut cx_a, mut cx_b) = (Context::from_waker(&wa), Context::from_waker(&wb));
        let mut sleep = std::pin::pin!(h.sleep(Duration::from_millis(10)));
        assert!(sleep.as_mut().poll(&mut cx_a).is_pending());
        assert!(sleep.as_mut().poll(&mut cx_b).is_pending());
        assert_eq!(h.timer_stats().armed, 1);
        sim.run_until(SimTime::from_millis(20));
        assert_eq!(a.0.load(std::sync::atomic::Ordering::Relaxed), 0);
        assert_eq!(b.0.load(std::sync::atomic::Ordering::Relaxed), 1);
        assert!(sleep.as_mut().poll(&mut cx_b).is_ready());
        assert_eq!(h.timer_stats().fired, 1);
    }

    fn checked(h: &SimHandle) -> TimerStats {
        let t = h.timer_stats();
        assert_eq!(t.armed, t.fired + t.cancelled + t.pending, "{t:?}");
        t
    }

    #[test]
    fn callbacks_fire_in_time_then_arming_order_with_sleeps_and_packets() {
        use crate::net::{Addr, LatencyConfig};
        let mut sim = Sim::new(1);
        let h = sim.handle();
        h.set_latency(LatencyConfig {
            one_way: Duration::from_micros(20),
            jitter_std: Duration::ZERO,
        });
        let log = Rc::new(RefCell::new(Vec::new()));
        let at = |us| SimTime::from_micros(us);
        let l = log.clone();
        h.bind_sink(Addr::new(NodeId(2), 0), move |_| {
            l.borrow_mut().push("packet@20")
        });
        let l = log.clone();
        h.call_at(None, at(20), move || {
            l.borrow_mut().push("call@20 armed first")
        });
        h.send(Addr::new(NodeId(1), 0), Addr::new(NodeId(2), 0), ());
        let (l, hh) = (log.clone(), h.clone());
        h.spawn(async move {
            hh.sleep_until(at(20)).await;
            l.borrow_mut().push("sleep@20");
        });
        let l = log.clone();
        h.call_at(None, at(10), move || l.borrow_mut().push("call@10"));
        let l = log.clone();
        h.call_at(None, at(20), move || {
            l.borrow_mut().push("call@20 armed last")
        });
        sim.run();
        assert_eq!(
            *log.borrow(),
            [
                "call@10",
                "call@20 armed first",
                "packet@20",
                "call@20 armed last",
                "sleep@20"
            ]
        );
        let t = checked(&h);
        assert_eq!((t.armed, t.fired, t.cancelled), (4, 4, 0));
        assert_eq!(h.polls(), 2, "callbacks poll nothing");
    }

    #[test]
    fn a_cancelled_callback_never_runs_and_is_counted() {
        let mut sim = Sim::new(1);
        let h = sim.handle();
        let ran = Rc::new(RefCell::new(0));
        let keys: Vec<TimerKey> = (0..10u64)
            .map(|i| {
                let r = ran.clone();
                h.call_at(None, SimTime::from_millis(i), move || *r.borrow_mut() += 1)
            })
            .collect();
        assert_eq!(checked(&h).pending, 10);
        for k in keys.iter().step_by(2) {
            assert!(h.cancel(*k));
            assert!(!h.cancel(*k), "a second cancel finds nothing");
        }
        assert_eq!(checked(&h).pending, 5);
        sim.run();
        assert_eq!(*ran.borrow(), 5);
        assert!(!h.cancel(keys[1]), "a fired callback cannot be cancelled");
        let t = checked(&h);
        assert_eq!((t.armed, t.fired, t.cancelled, t.pending), (10, 5, 5, 0));
    }

    #[test]
    fn kill_node_cancels_only_the_callbacks_it_owns() {
        let mut sim = Sim::new(1);
        let h = sim.handle();
        let log = Rc::new(RefCell::new(Vec::new()));
        for (owner, name) in [
            (Some(NodeId(1)), "n1"),
            (Some(NodeId(2)), "n2"),
            (None, "none"),
        ] {
            let l = log.clone();
            h.call_at(owner, SimTime::from_millis(5), move || {
                l.borrow_mut().push(name)
            });
        }
        h.kill_node(NodeId(1));
        assert_eq!(checked(&h).cancelled, 1);
        // Revived before the old deadline: the new incarnation arms its own,
        // and the old incarnation's never runs.
        h.revive_node(NodeId(1));
        let l = log.clone();
        h.call_at(Some(NodeId(1)), SimTime::from_millis(5), move || {
            l.borrow_mut().push("n1 again")
        });
        sim.run();
        assert_eq!(*log.borrow(), ["n2", "none", "n1 again"]);
        let t = checked(&h);
        assert_eq!((t.armed, t.fired, t.cancelled, t.pending), (4, 3, 1, 0));
    }

    #[test]
    #[should_panic(expected = "dead node")]
    fn call_at_on_a_dead_node_panics() {
        let sim = Sim::new(1);
        let h = sim.handle();
        h.kill_node(NodeId(4));
        h.call_at(Some(NodeId(4)), SimTime::from_millis(1), || {});
    }

    #[test]
    fn run_next_spawns_inside_a_task_and_runs_at_once_at_an_event() {
        let mut sim = Sim::new(1);
        let h = sim.handle();
        let log = Rc::new(RefCell::new(Vec::new()));
        let (l, hh) = (log.clone(), h.clone());
        h.spawn(async move {
            let l2 = l.clone();
            hh.run_next(None, move || l2.borrow_mut().push("deferred"));
            l.borrow_mut().push("rest of the poll");
        });
        let (l, hh) = (log.clone(), h.clone());
        h.call_at(None, SimTime::from_millis(1), move || {
            l.borrow_mut().push("event");
            let l2 = l.clone();
            hh.run_next(None, move || l2.borrow_mut().push("inline"));
        });
        sim.run();
        assert_eq!(
            *log.borrow(),
            ["rest of the poll", "deferred", "event", "inline"]
        );
        assert_eq!(h.spawns(), 2);
    }

    #[test]
    fn rng_is_deterministic_across_runs() {
        let draw = |seed| {
            let sim = Sim::new(seed);
            let h = sim.handle();
            (0..8).map(|_| h.rand_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(9), draw(9));
        assert_ne!(draw(9), draw(10));
    }

    #[test]
    fn run_until_stops_at_deadline() {
        let mut sim = Sim::new(1);
        let h = sim.handle();
        let hits = Rc::new(RefCell::new(0));
        let hits2 = hits.clone();
        let hh = h.clone();
        h.spawn(async move {
            loop {
                hh.sleep(Duration::from_millis(10)).await;
                *hits2.borrow_mut() += 1;
            }
        });
        sim.run_until(SimTime::from_millis(35));
        assert_eq!(*hits.borrow(), 3);
        assert_eq!(h.now(), SimTime::from_millis(35));
        sim.run_until(SimTime::from_millis(100));
        assert_eq!(*hits.borrow(), 10);
    }

    #[test]
    fn yield_now_round_robins() {
        let mut sim = Sim::new(1);
        let h = sim.handle();
        let log = Rc::new(RefCell::new(Vec::new()));
        let (l1, l2) = (log.clone(), log.clone());
        let (h1, h2) = (h.clone(), h.clone());
        sim.block_on(async move {
            let a = h.spawn(async move {
                for i in 0..2 {
                    l1.borrow_mut().push(("a", i));
                    h1.yield_now().await;
                }
            });
            let b = h.spawn(async move {
                for i in 0..2 {
                    l2.borrow_mut().push(("b", i));
                    h2.yield_now().await;
                }
            });
            a.await;
            b.await;
        });
        assert_eq!(
            log.borrow().clone(),
            vec![("a", 0), ("b", 0), ("a", 1), ("b", 1)]
        );
    }

    #[test]
    #[should_panic(expected = "deadlocked")]
    fn block_on_detects_deadlock() {
        let mut sim = Sim::new(1);
        sim.block_on(std::future::pending::<()>());
    }
}
