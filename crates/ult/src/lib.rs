//! # chant-ult: a user-level cooperative threads package
//!
//! This crate is the *lightweight thread library* substrate of the Chant
//! reproduction (Haines, Cronk & Mehrotra, *"On the Design of Chant: A
//! Talking Threads Package"*, SC'94). The paper layers Chant over "any
//! system which provides a common set of capabilities" (its Figure 2):
//!
//! * **thread management** — create, destroy, attributes, thread ids;
//! * **scheduling and preemption** — policy control and `yield`;
//! * **synchronization** — locks (mutex) and waits (condition variables);
//! * **information** — thread id, scheduling info, thread-local data.
//!
//! All of those are provided here, together with the two *scheduler hook
//! points* that Chant's polling policies need (paper §3.1 and §4.2):
//!
//! * a **schedule-point hook**, invoked every time the scheduler looks for
//!   the next thread to run — this is where the *Scheduler polls (WQ)*
//!   policy scans its list of outstanding receive requests;
//! * a **pre-dispatch hook**, invoked on a candidate thread *before* its
//!   context is fully restored — this is where the *Scheduler polls (PS)*
//!   policy performs its "partial switch": test the pending request stored
//!   in the thread control block and requeue the TCB on failure.
//!
//! ## Execution model
//!
//! Each [`Vp`] ("virtual processor", the paper's *processing element +
//! process* context) multiplexes many user-level threads with **strict
//! cooperative scheduling**: exactly one thread of a VP lane runs at any
//! time, and control moves only at explicit points (`yield_now`,
//! blocking operations, exit).
//!
//! A thread is a **saved register set plus a stack of its own**, and a
//! lane is **one OS thread**: the caller of [`Vp::start`] for lane 0,
//! one named host thread for each further lane. A thread is placed on
//! one lane at spawn and runs there only, so it never changes OS thread
//! between its first instruction and its exit. A *full switch* saves
//! the departing thread's callee-saved registers and stack pointer and
//! restores the next thread's — a dozen instructions of `global_asm!`,
//! no system call, no kernel scheduling decision — after the scheduler
//! (run queues, hooks, timers) has run on the departing thread's stack,
//! as the paper's scheduler does. A *partial switch* is the paper's
//! too: the pre-dispatch hook peeks at the candidate's TCB and puts it
//! back without restoring its context. Create and switch therefore cost
//! what the paper's Table 1 says such a package costs: microseconds and
//! less. Everything the Chant paper measures — who runs when, how many
//! full context switches happen, when the scheduler polls — is under
//! the control of this crate, exactly as it was for the paper's "small
//! lightweight thread library" on the Intel Paragon.
//!
//! Stacks are `mmap`'d: [`SpawnAttr::stack_size`] bytes (default 2 MiB,
//! what a `std::thread` gets), reserved but committed lazily — only the
//! pages a thread touches are resident — with a guard page below, so an
//! overflow kills the process by signal instead of corrupting a
//! neighbour. The native switch exists for x86-64 and AArch64 Linux; on
//! any other target each thread is carried by an OS thread and a switch
//! is a baton hand-off between them — same API, same schedule, same
//! counters (the crate's tests hold the two implementations against
//! each other), kernel-priced switches. The choice is made by the
//! target alone; the `ctx` module documents the seam and its invariants.
//!
//! ### What code running on a VP must not do
//!
//! * **Block the OS thread.** A lane is one OS thread: a blocking system
//!   call, `std::thread::sleep` or a `std::sync` wait stalls every
//!   thread of the lane. Use this crate's primitives, which block the
//!   calling user-level thread only.
//! * **Overflow the stack.** There is no growth; ask for what you need.
//!
//! ## Quick example
//!
//! ```
//! use chant_ult::{Vp, SpawnAttr};
//!
//! let vp = Vp::new(Default::default());
//! let handle = vp.spawn(SpawnAttr::new().name("worker"), |_| 21 * 2);
//! vp.start();
//! assert_eq!(handle.join().unwrap(), 42);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod attr;
mod config;
mod ctx;
mod current;
mod error;
mod hooks;
mod obs;
mod park;
mod stats;
mod sync;
#[cfg(target_os = "linux")]
pub mod sys;
mod tcb;
mod tls;
mod vp;

pub use attr::{Priority, SpawnAttr};
pub use config::VpConfig;
pub use current::{current_tid, current_vp, is_ult_context};
pub use error::{JoinError, UltError};
pub use hooks::{DispatchDecision, NullHook, PendingPoll, SchedulerHook};
pub use park::TimerKey;
pub use stats::{StatsSnapshot, VpStats};
pub use sync::{
    UltBarrier, UltCondvar, UltMutex, UltMutexGuard, UltReadGuard, UltRwLock, UltSemaphore,
    UltWriteGuard,
};
pub use tcb::{Tid, MAIN_TID};
pub use tls::TlsKey;
pub use vp::{is_cancel_payload, yield_now, JoinHandle, ThreadInfo, ThreadState, Vp};

#[cfg(test)]
mod tests;
