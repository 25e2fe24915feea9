//! The context seam on its own, both implementations: a host switches
//! to a context and back, contexts switch among themselves, and misuse
//! is a panic rather than two threads on one stack.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use super::{Context, Host, Kind};

fn kinds() -> Vec<Kind> {
    let mut kinds = vec![Kind::OsThread];
    #[cfg(chant_native_ctx)]
    kinds.push(Kind::Native);
    kinds
}

#[test]
fn host_and_context_ping_pong() {
    for kind in kinds() {
        let host = Host::enter(kind);
        let back = host.context().clone();
        let log = Arc::new(Mutex::new(Vec::new()));
        let me: Arc<OnceLock<Context>> = Arc::new(OnceLock::new());
        let (l, m) = (Arc::clone(&log), Arc::clone(&me));
        let ctx = Context::new(
            kind,
            Box::new(move || {
                let me = m.get().expect("own handle").clone();
                for i in 0..3 {
                    l.lock().unwrap().push(format!("ctx {i}"));
                    assert!(back.is_suspended());
                    Context::switch(&me, &back);
                }
                l.lock().unwrap().push("ctx done".into());
                back
            }),
            Some(64 * 1024),
        )
        .unwrap();
        assert!(me.set(ctx.clone()).is_ok());
        assert!(ctx.is_suspended(), "a fresh context is resumable");
        for i in 0..4 {
            log.lock().unwrap().push(format!("host {i}"));
            Context::switch(host.context(), &ctx);
        }
        assert!(!ctx.is_suspended(), "a finished context is not resumable");
        assert_eq!(
            *log.lock().unwrap(),
            ["host 0", "ctx 0", "host 1", "ctx 1", "host 2", "ctx 2", "host 3", "ctx done"],
            "{kind:?}"
        );
    }
}

#[test]
fn a_chain_of_contexts_hands_the_thread_on() {
    // host -> c0 -> c1 -> ... -> c9 -> host, each exiting into the next:
    // every stack but the last is released by its successor.
    for kind in kinds() {
        let host = Host::enter(kind);
        let ran = Arc::new(AtomicUsize::new(0));
        let mut next = host.context().clone();
        for _ in 0..10 {
            let (to, ran) = (next.clone(), Arc::clone(&ran));
            next = Context::new(
                kind,
                Box::new(move || {
                    ran.fetch_add(1, Ordering::SeqCst);
                    to
                }),
                None,
            )
            .unwrap();
        }
        Context::switch(host.context(), &next);
        assert_eq!(ran.load(Ordering::SeqCst), 10, "{kind:?}");
    }
}

#[test]
#[should_panic(expected = "running or finished")]
fn resuming_a_finished_context_panics() {
    let kind = Kind::DEFAULT;
    let host = Host::enter(kind);
    let back = host.context().clone();
    let ctx = Context::new(kind, Box::new(move || back), None).unwrap();
    Context::switch(host.context(), &ctx);
    Context::switch(host.context(), &ctx);
}

#[test]
#[should_panic(expected = "not the context running on this OS thread")]
fn switching_on_behalf_of_another_context_panics() {
    let kind = Kind::DEFAULT;
    let host = Host::enter(kind);
    let back = host.context().clone();
    let a = Context::new(kind, Box::new(move || back), None).unwrap();
    let back = host.context().clone();
    let b = Context::new(kind, Box::new(move || back), None).unwrap();
    // The caller is the host, not `a`.
    Context::switch(&a, &b);
}

#[cfg(chant_native_ctx)]
#[test]
fn stacks_are_page_rounded_and_the_default_is_recycled() {
    use super::stack::{Stack, DEFAULT_STACK_SIZE};
    let odd = Stack::new(Some(70_000)).unwrap();
    assert!(odd.usable() >= 70_000 && odd.usable().is_multiple_of(4096));
    assert_eq!(odd.top() as usize % 16, 0);
    let tiny = Stack::new(Some(1)).unwrap();
    assert!(
        tiny.usable() >= 16 * 1024,
        "floor for the scheduler's own frames"
    );
    // A released default-size stack comes back from the pool (unless a
    // concurrently running test took it first, hence the retry).
    let recycled = (0..64).any(|_| {
        let s = Stack::new(None).unwrap();
        assert_eq!(s.usable(), DEFAULT_STACK_SIZE);
        let top = s.top();
        s.release();
        let again = Stack::new(None).unwrap();
        let same = again.top() == top;
        again.release();
        same
    });
    assert!(recycled);
}
