//! Thread-local data for user-level threads (pthread_key style).
//!
//! The paper's global-thread design deliberately keeps thread-local data
//! a *local* concern: "the thread-local data primitives are only concerned
//! with a particular local thread" (§3.3), which is why Chant can inherit
//! them unchanged from the underlying package. This module is that
//! underlying facility.

use std::any::Any;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::current;

static NEXT_KEY: AtomicU64 = AtomicU64::new(1);

/// A typed key naming one thread-local slot across all threads
/// (cf. `pthread_key_create`).
pub struct TlsKey<T> {
    id: u64,
    _marker: PhantomData<fn() -> T>,
}

impl<T> Clone for TlsKey<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for TlsKey<T> {}

impl<T: Send + Clone + 'static> TlsKey<T> {
    /// Allocate a fresh key. Keys are process-global and never reused.
    pub fn new() -> TlsKey<T> {
        TlsKey {
            id: NEXT_KEY.fetch_add(1, Ordering::Relaxed),
            _marker: PhantomData,
        }
    }

    /// Set the calling thread's value for this key
    /// (cf. `pthread_setspecific`).
    ///
    /// # Panics
    /// Panics if called outside a user-level thread.
    pub fn set(&self, value: T) {
        current::with_current(|c| {
            let ctx = c.expect("TLS used outside a user-level thread");
            ctx.tcb
                .tls
                .lock()
                .insert(self.id, Box::new(value) as Box<dyn Any + Send>);
        });
    }

    /// Get a clone of the calling thread's value for this key
    /// (cf. `pthread_getspecific`). `None` if never set.
    pub fn get(&self) -> Option<T> {
        current::with_current(|c| {
            let ctx = c.expect("TLS used outside a user-level thread");
            ctx.tcb
                .tls
                .lock()
                .get(&self.id)
                .and_then(|b| b.downcast_ref::<T>())
                .cloned()
        })
    }

    /// Remove the calling thread's value for this key, returning it.
    pub fn take(&self) -> Option<T> {
        current::with_current(|c| {
            let ctx = c.expect("TLS used outside a user-level thread");
            ctx.tcb
                .tls
                .lock()
                .remove(&self.id)
                .and_then(|b| b.downcast::<T>().ok())
                .map(|b| *b)
        })
    }

    /// Run `f` with a mutable reference to the slot's value, inserting
    /// `default()` first if the slot is empty. `f` must not yield or
    /// block: the calling thread's slot table is locked while it runs.
    pub fn with_mut<R>(&self, default: impl FnOnce() -> T, f: impl FnOnce(&mut T) -> R) -> R {
        current::with_current(|c| {
            let ctx = c.expect("TLS used outside a user-level thread");
            let mut tls = ctx.tcb.tls.lock();
            let slot = tls
                .entry(self.id)
                .or_insert_with(|| Box::new(default()) as Box<dyn Any + Send>);
            f(slot.downcast_mut::<T>().expect("TLS key type mismatch"))
        })
    }
}

impl<T: Send + Clone + 'static> Default for TlsKey<T> {
    fn default() -> Self {
        Self::new()
    }
}
