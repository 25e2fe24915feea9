//! Synchronization primitives for user-level threads.
//!
//! The paper's Figure 2 requires "Lock (e.g., mutex)" and "Wait (e.g.,
//! condition variable)" from the thread package. These primitives block
//! *the calling user-level thread only* — the VP keeps running other
//! ready threads, which is the whole point of a lightweight thread
//! package. They must only be shared among threads of a single VP
//! (one address space); cross-address-space coordination is Chant's job.

use std::cell::UnsafeCell;
use std::collections::VecDeque;
use std::ops::{Deref, DerefMut};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex as PlMutex;

use crate::current;
use crate::error::UltError;
use crate::tcb::Tid;
use crate::vp::Vp;

/// The calling ULT's tid, or [`UltError::NotUltContext`] when called from
/// an ordinary OS thread (e.g. a fault-shim deliverer or a test
/// harness) — far likelier to happen by accident now that one VP's
/// threads span several OS threads. Cross-VP sharing stays an assert: it
/// is a same-process programming error, not a runtime condition.
fn current_on(expect_vp: &Arc<Vp>) -> Result<Tid, UltError> {
    current::with_current(|c| {
        let ctx = c.ok_or(UltError::NotUltContext)?;
        assert!(
            Arc::ptr_eq(&ctx.vp, expect_vp),
            "ULT sync primitive shared across VPs (address spaces); use Chant messaging instead"
        );
        Ok(ctx.tcb.id)
    })
}

/// A cancelled thread unwinds out of its waiting loop without removing
/// itself from the primitive's waiter queue; handing it a wakeup would
/// strand the live waiters behind it. Wake-up paths use this to skip
/// dead entries — both threads that already finished (`Done`) and
/// threads with a cancellation pending, which may still be queued Ready
/// but will only unwind when next scheduled, never consume the resource,
/// and never pass the wakeup on.
fn is_wakeable(vp: &Arc<Vp>, tid: Tid) -> bool {
    !vp.is_cancel_requested(tid)
        && matches!(
            vp.thread_info(tid),
            Some(info) if info.state != crate::ThreadState::Done
        )
}

/// Pop waiters until one is still wakeable and wake it.
fn wake_first_alive(vp: &Arc<Vp>, waiters: &mut VecDeque<Tid>) {
    while let Some(t) = waiters.pop_front() {
        if is_wakeable(vp, t) {
            let _ = vp.unblock(t);
            return;
        }
    }
}

struct MutexInner {
    owner: Option<Tid>,
    waiters: VecDeque<Tid>,
}

/// A mutual-exclusion lock for user-level threads of one VP.
///
/// Blocking on a contended lock yields the VP to other ready threads;
/// unlocking hands the mutex to the longest-waiting thread (FIFO).
pub struct UltMutex<T: ?Sized> {
    vp: Arc<Vp>,
    state: PlMutex<MutexInner>,
    data: UnsafeCell<T>,
}

// Safety: access to `data` is serialized by the ULT-level locking protocol
// (a thread only touches `data` between acquire and release), and only one
// ULT of the VP runs at a time anyway.
unsafe impl<T: ?Sized + Send> Send for UltMutex<T> {}
unsafe impl<T: ?Sized + Send> Sync for UltMutex<T> {}

impl<T> UltMutex<T> {
    /// Create a mutex owned by the given VP.
    pub fn new(vp: &Arc<Vp>, value: T) -> Arc<UltMutex<T>> {
        Arc::new(UltMutex {
            vp: Arc::clone(vp),
            state: PlMutex::new(MutexInner {
                owner: None,
                waiters: VecDeque::new(),
            }),
            data: UnsafeCell::new(value),
        })
    }
}

impl<T: ?Sized> UltMutex<T> {
    /// Acquire the lock, blocking the calling user-level thread if needed.
    ///
    /// # Errors
    /// [`UltError::NotUltContext`] when called from a non-ULT OS thread.
    pub fn lock(self: &Arc<Self>) -> Result<UltMutexGuard<'_, T>, UltError> {
        let me = current_on(&self.vp)?;
        loop {
            {
                let mut st = self.state.lock();
                match st.owner {
                    None => {
                        st.owner = Some(me);
                        break;
                    }
                    Some(o) => {
                        assert_ne!(o, me, "ULT mutex is not reentrant");
                        if !st.waiters.contains(&me) {
                            st.waiters.push_back(me);
                        }
                    }
                }
            }
            self.vp.block();
        }
        Ok(UltMutexGuard { mutex: self })
    }

    /// Try to acquire the lock without blocking. `Ok(None)` means the
    /// lock is held by another thread.
    ///
    /// # Errors
    /// [`UltError::NotUltContext`] when called from a non-ULT OS thread.
    pub fn try_lock(self: &Arc<Self>) -> Result<Option<UltMutexGuard<'_, T>>, UltError> {
        let me = current_on(&self.vp)?;
        let mut st = self.state.lock();
        if st.owner.is_none() {
            st.owner = Some(me);
            drop(st);
            Ok(Some(UltMutexGuard { mutex: self }))
        } else {
            Ok(None)
        }
    }

    fn unlock_internal(&self) {
        let mut st = self.state.lock();
        st.owner = None;
        wake_first_alive(&self.vp, &mut st.waiters);
    }
}

/// RAII guard for [`UltMutex`]; releases the lock on drop.
pub struct UltMutexGuard<'a, T: ?Sized> {
    mutex: &'a Arc<UltMutex<T>>,
}

impl<T: ?Sized> Deref for UltMutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        // Safety: the guard proves we hold the ULT-level lock.
        unsafe { &*self.mutex.data.get() }
    }
}

impl<T: ?Sized> DerefMut for UltMutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        // Safety: the guard proves we hold the ULT-level lock.
        unsafe { &mut *self.mutex.data.get() }
    }
}

impl<T: ?Sized> Drop for UltMutexGuard<'_, T> {
    fn drop(&mut self) {
        self.mutex.unlock_internal();
    }
}

/// A condition variable for user-level threads of one VP.
pub struct UltCondvar {
    vp: Arc<Vp>,
    waiters: PlMutex<VecDeque<Tid>>,
}

impl UltCondvar {
    /// Create a condition variable owned by the given VP.
    pub fn new(vp: &Arc<Vp>) -> Arc<UltCondvar> {
        Arc::new(UltCondvar {
            vp: Arc::clone(vp),
            waiters: PlMutex::new(VecDeque::new()),
        })
    }

    /// Atomically release `guard`'s mutex and wait for a notification, then
    /// re-acquire the mutex before returning. As with POSIX, spurious
    /// wakeups are possible: callers must re-check their predicate.
    ///
    /// # Errors
    /// [`UltError::NotUltContext`] when called from a non-ULT OS thread
    /// (impossible in practice: the guard proves a ULT acquired the lock).
    pub fn wait<'a, T: ?Sized>(
        &self,
        guard: UltMutexGuard<'a, T>,
    ) -> Result<UltMutexGuard<'a, T>, UltError> {
        let me = current_on(&self.vp)?;
        let mutex = guard.mutex;
        self.waiters.lock().push_back(me);
        drop(guard); // release the mutex
        self.vp.block();
        mutex.lock()
    }

    /// Like [`UltCondvar::wait`], but give up after `timeout`. Returns
    /// the re-acquired guard and whether the wait *timed out* (`true` =
    /// no notification arrived in time). The wait is a timer in the VP
    /// ([`Vp::block_until`]): the thread is blocked, not polling, so an
    /// otherwise idle lane sleeps until the notification or the deadline.
    pub fn wait_timeout<'a, T: ?Sized>(
        &self,
        guard: UltMutexGuard<'a, T>,
        timeout: Duration,
    ) -> Result<(UltMutexGuard<'a, T>, bool), UltError> {
        let me = current_on(&self.vp)?;
        let mutex = guard.mutex;
        let deadline = Instant::now() + timeout;
        self.waiters.lock().push_back(me);
        drop(guard); // release the mutex
        loop {
            self.vp.block_until(deadline);
            // Decide under the queue lock, so a notification and the
            // timeout cannot both claim this wait: still queued at the
            // deadline means no notifier picked us — remove ourselves so
            // a future notification is not wasted on a waiter that
            // already gave up.
            let mut w = self.waiters.lock();
            let queued = w.iter().position(|&t| t == me);
            let timed_out = match queued {
                None => false, // a notifier popped us
                Some(i) if Instant::now() >= deadline => {
                    w.remove(i);
                    true
                }
                Some(_) => continue, // spurious wake: keep waiting
            };
            drop(w);
            return Ok((mutex.lock()?, timed_out));
        }
    }

    /// Wake one waiting thread, if any (skipping waiters that were
    /// cancelled while queued).
    pub fn notify_one(&self) {
        let mut w = self.waiters.lock();
        wake_first_alive(&self.vp, &mut w);
    }

    /// Wake all waiting threads, as one batch ([`Vp::unblock_all`]).
    pub fn notify_all(&self) {
        let mut all = std::mem::take(&mut *self.waiters.lock());
        self.vp.unblock_all(all.make_contiguous());
    }
}

/// A reusable barrier for a fixed party of user-level threads of one VP.
pub struct UltBarrier {
    vp: Arc<Vp>,
    state: PlMutex<BarrierState>,
}

struct BarrierState {
    parties: usize,
    arrived: Vec<Tid>,
    generation: u64,
}

impl UltBarrier {
    /// Create a barrier for `parties` threads.
    pub fn new(vp: &Arc<Vp>, parties: usize) -> Arc<UltBarrier> {
        assert!(parties > 0, "barrier needs at least one party");
        Arc::new(UltBarrier {
            vp: Arc::clone(vp),
            state: PlMutex::new(BarrierState {
                parties,
                arrived: Vec::new(),
                generation: 0,
            }),
        })
    }

    /// Wait until all parties have arrived. Returns `true` for exactly one
    /// thread per generation (the "leader"), like `std::sync::Barrier`.
    ///
    /// # Errors
    /// [`UltError::NotUltContext`] when called from a non-ULT OS thread.
    pub fn wait(&self) -> Result<bool, UltError> {
        let me = current_on(&self.vp)?;
        let my_gen;
        {
            let mut st = self.state.lock();
            my_gen = st.generation;
            st.arrived.push(me);
            if st.arrived.len() == st.parties {
                st.generation += 1;
                let to_wake: Vec<Tid> =
                    st.arrived.drain(..).filter(|&t| t != me).collect();
                drop(st);
                self.vp.unblock_all(&to_wake);
                return Ok(true);
            }
        }
        loop {
            self.vp.block();
            let st = self.state.lock();
            if st.generation != my_gen {
                return Ok(false);
            }
        }
    }
}

/// A counting semaphore for user-level threads of one VP.
pub struct UltSemaphore {
    vp: Arc<Vp>,
    state: PlMutex<SemState>,
}

struct SemState {
    permits: usize,
    waiters: VecDeque<Tid>,
}

impl UltSemaphore {
    /// Create a semaphore with the given number of permits.
    pub fn new(vp: &Arc<Vp>, permits: usize) -> Arc<UltSemaphore> {
        Arc::new(UltSemaphore {
            vp: Arc::clone(vp),
            state: PlMutex::new(SemState {
                permits,
                waiters: VecDeque::new(),
            }),
        })
    }

    /// Acquire one permit, blocking the calling thread if none are
    /// available.
    ///
    /// # Errors
    /// [`UltError::NotUltContext`] when called from a non-ULT OS thread.
    pub fn acquire(&self) -> Result<(), UltError> {
        let me = current_on(&self.vp)?;
        loop {
            {
                let mut st = self.state.lock();
                if st.permits > 0 {
                    st.permits -= 1;
                    return Ok(());
                }
                if !st.waiters.contains(&me) {
                    st.waiters.push_back(me);
                }
            }
            self.vp.block();
        }
    }

    /// Acquire one permit, giving up after `timeout`. Returns whether a
    /// permit was acquired. Blocks on a VP timer, like
    /// [`UltCondvar::wait_timeout`].
    pub fn acquire_timeout(&self, timeout: Duration) -> Result<bool, UltError> {
        let me = current_on(&self.vp)?;
        let deadline = Instant::now() + timeout;
        loop {
            {
                let mut st = self.state.lock();
                let queued = st.waiters.iter().position(|&t| t == me);
                if st.permits > 0 {
                    st.permits -= 1;
                    if let Some(i) = queued {
                        st.waiters.remove(i);
                    }
                    return Ok(true);
                }
                if Instant::now() >= deadline {
                    if let Some(i) = queued {
                        st.waiters.remove(i);
                    }
                    return Ok(false);
                }
                if queued.is_none() {
                    st.waiters.push_back(me);
                }
            }
            self.vp.block_until(deadline);
        }
    }

    /// Try to acquire a permit without blocking.
    pub fn try_acquire(&self) -> bool {
        let mut st = self.state.lock();
        if st.permits > 0 {
            st.permits -= 1;
            true
        } else {
            false
        }
    }

    /// Release one permit, waking a waiter if any (skipping waiters that
    /// were cancelled while queued).
    pub fn release(&self) {
        let mut st = self.state.lock();
        st.permits += 1;
        wake_first_alive(&self.vp, &mut st.waiters);
    }

    /// Current number of available permits.
    pub fn available(&self) -> usize {
        self.state.lock().permits
    }
}

/// A readers/writer lock for user-level threads of one VP.
/// Writer-preferring: once a writer waits, new readers queue behind it.
pub struct UltRwLock<T: ?Sized> {
    vp: Arc<Vp>,
    state: PlMutex<RwState>,
    data: UnsafeCell<T>,
}

struct RwState {
    /// Active readers (writer active is represented as `usize::MAX`).
    readers: usize,
    waiting_writers: VecDeque<Tid>,
    waiting_readers: VecDeque<Tid>,
}

// Safety: same argument as UltMutex — access to `data` is serialized by
// the ULT-level protocol and only one ULT runs at a time.
unsafe impl<T: ?Sized + Send> Send for UltRwLock<T> {}
unsafe impl<T: ?Sized + Send + Sync> Sync for UltRwLock<T> {}

const WRITER_ACTIVE: usize = usize::MAX;

impl<T> UltRwLock<T> {
    /// Create a reader/writer lock owned by the given VP.
    pub fn new(vp: &Arc<Vp>, value: T) -> Arc<UltRwLock<T>> {
        Arc::new(UltRwLock {
            vp: Arc::clone(vp),
            state: PlMutex::new(RwState {
                readers: 0,
                waiting_writers: VecDeque::new(),
                waiting_readers: VecDeque::new(),
            }),
            data: UnsafeCell::new(value),
        })
    }
}

impl<T: ?Sized> UltRwLock<T> {
    /// Acquire shared (read) access.
    ///
    /// # Errors
    /// [`UltError::NotUltContext`] when called from a non-ULT OS thread.
    pub fn read(self: &Arc<Self>) -> Result<UltReadGuard<'_, T>, UltError> {
        let me = current_on(&self.vp)?;
        loop {
            {
                let mut st = self.state.lock();
                if st.readers != WRITER_ACTIVE && st.waiting_writers.is_empty() {
                    st.readers += 1;
                    return Ok(UltReadGuard { lock: self });
                }
                if !st.waiting_readers.contains(&me) {
                    st.waiting_readers.push_back(me);
                }
            }
            self.vp.block();
        }
    }

    /// Acquire exclusive (write) access.
    ///
    /// # Errors
    /// [`UltError::NotUltContext`] when called from a non-ULT OS thread.
    pub fn write(self: &Arc<Self>) -> Result<UltWriteGuard<'_, T>, UltError> {
        let me = current_on(&self.vp)?;
        loop {
            {
                let mut st = self.state.lock();
                if st.readers == 0 {
                    st.readers = WRITER_ACTIVE;
                    return Ok(UltWriteGuard { lock: self });
                }
                if !st.waiting_writers.contains(&me) {
                    st.waiting_writers.push_back(me);
                }
            }
            self.vp.block();
        }
    }

    fn release_read(&self) {
        let mut st = self.state.lock();
        debug_assert!(st.readers != WRITER_ACTIVE && st.readers > 0);
        st.readers -= 1;
        if st.readers == 0 {
            wake_first_alive(&self.vp, &mut st.waiting_writers);
        }
    }

    fn release_write(&self) {
        let mut st = self.state.lock();
        debug_assert_eq!(st.readers, WRITER_ACTIVE);
        st.readers = 0;
        // Prefer a live writer; otherwise wake every queued reader.
        let mut probe = st.waiting_writers.clone();
        let live_writer = loop {
            match probe.pop_front() {
                Some(t) if is_wakeable(&self.vp, t) => break true,
                Some(_) => continue,
                None => break false,
            }
        };
        if live_writer {
            wake_first_alive(&self.vp, &mut st.waiting_writers);
        } else {
            st.waiting_writers.clear();
            self.vp.unblock_all(st.waiting_readers.make_contiguous());
            st.waiting_readers.clear();
        }
    }
}

/// Shared-access guard for [`UltRwLock`].
pub struct UltReadGuard<'a, T: ?Sized> {
    lock: &'a Arc<UltRwLock<T>>,
}

impl<T: ?Sized> Deref for UltReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        // Safety: shared access is protected by the reader count.
        unsafe { &*self.lock.data.get() }
    }
}

impl<T: ?Sized> Drop for UltReadGuard<'_, T> {
    fn drop(&mut self) {
        self.lock.release_read();
    }
}

/// Exclusive-access guard for [`UltRwLock`].
pub struct UltWriteGuard<'a, T: ?Sized> {
    lock: &'a Arc<UltRwLock<T>>,
}

impl<T: ?Sized> Deref for UltWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        // Safety: exclusive access is protected by WRITER_ACTIVE.
        unsafe { &*self.lock.data.get() }
    }
}

impl<T: ?Sized> DerefMut for UltWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        // Safety: exclusive access is protected by WRITER_ACTIVE.
        unsafe { &mut *self.lock.data.get() }
    }
}

impl<T: ?Sized> Drop for UltWriteGuard<'_, T> {
    fn drop(&mut self) {
        self.lock.release_write();
    }
}
