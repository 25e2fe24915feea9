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
//! cooperative scheduling**: exactly one thread of a VP runs at any time,
//! and control moves only at explicit points (`yield_now`, blocking
//! operations, exit). Threads are backed by real OS threads so that stack
//! state is genuine, but the OS never makes a scheduling decision for us:
//! a parked thread runs only when this scheduler hands it the baton.
//! Everything the Chant paper measures — who runs when, how many full
//! context switches happen, when the scheduler polls — is therefore fully
//! under the control of this crate, exactly as it was for the paper's
//! "small lightweight thread library" on the Intel Paragon.
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

mod affinity;
mod attr;
mod config;
mod current;
mod error;
mod hooks;
#[cfg(feature = "trace")]
mod obs;
mod park;
mod stats;
mod sync;
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
