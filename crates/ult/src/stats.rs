//! Scheduling statistics.
//!
//! The paper's Tables 3–5 report, per run: total time, the "total number
//! of complete context switches performed", and the total number of
//! `msgtest` calls. The first two are properties of the thread scheduler
//! and are counted here; `msgtest` counts live in `chant-comm`.

chant_obs::counters! {
    /// Monotonic counters describing one VP's scheduling activity.
    "ult": pub struct VpStats => pub struct StatsSnapshot {
        /// Complete context switches: the scheduling baton moved from one
        /// thread to a *different* thread whose context was then restored.
        /// This is the paper's "CtxSw" column.
        full_switches,
        /// A thread yielded but was immediately re-dispatched because it was
        /// the only candidate ("the scheduler simply returns without having to
        /// perform a context switch", paper §4.1).
        self_redispatches,
        /// Partial switches: a candidate TCB was examined by the pre-dispatch
        /// hook and requeued without restoring its context (PS algorithm).
        partial_switches,
        /// Schedule points: times the scheduler looked for the next thread.
        schedule_points,
        /// Voluntary yields from running threads.
        yields,
        /// Threads that entered the Blocked state.
        blocks,
        /// Threads moved back to the ready queue from Blocked.
        unblocks,
        /// Parks: times a lane whose round dispatched nothing slept until
        /// its nearest timer deadline or a wake-up. (Nothing spins; the
        /// name is the one the benchmark reads, `ult.idle_spins`.)
        idle_spins,
        /// Threads spawned over the VP's lifetime.
        spawned,
        /// Threads that ran to completion (returned, panicked, or cancelled).
        exited,
    }
}
