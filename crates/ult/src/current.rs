//! The per-OS-thread notion of "which user-level thread am I".
//!
//! The OS thread a lane runs on carries, in OS-level TLS, the VP and TCB
//! of the user-level thread it is executing right now; that is how
//! `yield_now`, `block`, TLS keys and the Chant layer find their context
//! (cf. `pthread_chanter_self`). The slot is *moved*, not copied, at
//! every context switch: the departing thread takes its entry out before
//! it switches and puts it back when it is resumed, so the lane's other
//! threads each find their own entry there in between. Every access to
//! the slot is an `#[inline(never)]` leaf function, as the context layer
//! requires of the crate's thread-locals (see `ctx`): no function that
//! touches it straddles a switch.

use std::cell::RefCell;
use std::sync::Arc;

use crate::tcb::{Tcb, Tid};
use crate::vp::Vp;

pub(crate) struct UltContext {
    pub vp: Arc<Vp>,
    pub tcb: Arc<Tcb>,
}

thread_local! {
    static CURRENT: RefCell<Option<UltContext>> = const { RefCell::new(None) };
}

/// Replace this OS thread's current user-level thread, returning the
/// previous one: `swap_current(None)` before switching away,
/// `swap_current(mine)` on resuming.
#[inline(never)]
pub(crate) fn swap_current(ctx: Option<UltContext>) -> Option<UltContext> {
    CURRENT.with(|c| c.replace(ctx))
}

/// Run `f` on the current user-level thread's context. `f` must not
/// reach a context switch (nothing in this crate passes one that does).
#[inline(never)]
pub(crate) fn with_current<R>(f: impl FnOnce(Option<&UltContext>) -> R) -> R {
    CURRENT.with(|c| f(c.borrow().as_ref()))
}

/// `"'name' (tid N) of VP 'vp'"` for the current user-level thread, for
/// the panic hook. `None` off-ULT, or if the slot is being written.
#[inline(never)]
pub(crate) fn describe_current() -> Option<String> {
    CURRENT.with(|c| {
        let c = c.try_borrow().ok()?;
        let ctx = c.as_ref()?;
        Some(format!(
            "'{}' (tid {}) of VP '{}'",
            ctx.tcb.name,
            ctx.tcb.id,
            ctx.vp.name()
        ))
    })
}

/// Returns `true` if the calling OS thread is currently executing a
/// user-level thread. Chant uses this to enforce its rule that "only
/// nonblocking communication primitives from the underlying communication
/// system are utilized" from thread context (paper §3.1): a call that
/// would block the whole VP asserts `!is_ult_context()` first.
pub fn is_ult_context() -> bool {
    with_current(|c| c.is_some())
}

/// The local thread id of the calling user-level thread, if any.
/// This is the `thread` component of `pthread_chanter_self`'s 3-tuple.
pub fn current_tid() -> Option<Tid> {
    with_current(|c| c.map(|ctx| ctx.tcb.id))
}

/// The VP the calling user-level thread belongs to, if any.
pub fn current_vp() -> Option<Arc<Vp>> {
    with_current(|c| c.map(|ctx| Arc::clone(&ctx.vp)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_os_thread_is_not_ult() {
        assert!(!is_ult_context());
        assert_eq!(current_tid(), None);
        assert!(current_vp().is_none());
    }
}
