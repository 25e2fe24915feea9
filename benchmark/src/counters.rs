//! One flat, named snapshot of every public counter the runtime keeps:
//! the scheduler's, the endpoint's, the transport's, RSR's, KV's and
//! pub-sub's, plus this OS process's CPU time and context switches.
//! Window deltas of these, summed over both ranks and divided by ops,
//! are the count-type per-layer metrics.

use chant_core::ChantNode;
use chant_kv::kv_stats;
use chant_pubsub::PubsubNode;

use crate::stats::proc_usage;

/// The one gauge among the counters: OS threads alive right now.
const THREADS: &str = "proc.threads";

/// Named monotone counters in a fixed order (the same on every rank,
/// since every rank runs this binary), so they travel as bare values.
#[derive(Clone, Debug)]
pub struct Counters(Vec<(&'static str, u64)>);

impl Counters {
    /// Snapshot `node`'s counters. Transport and `/proc` counters belong
    /// to the OS process, not the node: pass `process_wide` for exactly
    /// one node per process so summing over nodes counts them once.
    pub fn snapshot(node: &ChantNode, process_wide: bool) -> Counters {
        let s = node.vp().stats().snapshot();
        let c = node.endpoint().stats().snapshot();
        let r = node.rsr_stats();
        let k = kv_stats(node);
        let p = node.pubsub_stats();
        let mut v = vec![
            ("ult.full_switches", s.full_switches),
            ("ult.partial_switches", s.partial_switches),
            ("ult.blocks", s.blocks),
            ("ult.schedule_points", s.schedule_points),
            ("ult.idle_spins", s.idle_spins),
            ("comm.sends", c.sends),
            ("comm.msgtests", c.msgtests),
            ("comm.msgtest_failures", c.msgtest_failures),
            ("comm.unexpected_buffered", c.unexpected_buffered),
            ("comm.posted_matches", c.posted_matches),
            ("comm.blocking_waits", c.blocking_waits),
            ("comm.bytes_sent", c.bytes_sent),
            ("rsr.retries", r.retries),
            ("rsr.timeouts", r.timeouts),
            ("rsr.dup_dropped", r.dup_dropped),
            ("rsr.dup_replayed", r.dup_replayed),
            ("kv.mutations", k.mutations),
            ("kv.reads", k.reads),
            ("kv.repl_sent", k.repl_sent),
            ("kv.repl_retries", k.repl_retries),
            ("kv.no_lease", k.no_lease),
            ("kv.not_ready", k.not_ready),
            ("kv.dup_replayed", k.dup_replayed),
            ("kv.stale_dropped", k.stale_dropped),
            ("kv.staged_bulk", k.staged_bulk),
            ("pubsub.published", p.published),
            ("pubsub.delivered", p.delivered),
            ("pubsub.forwarded", p.forwarded),
            ("pubsub.acks", p.acks),
            ("pubsub.retransmits", p.retransmits),
            ("pubsub.dup_dropped", p.dup_dropped),
            ("pubsub.resyncs", p.resyncs),
        ];
        let (t, u) = if process_wide {
            (node.world().transport_stats(), proc_usage())
        } else {
            Default::default()
        };
        v.extend([
            ("transport.frames_sent", t.frames_sent),
            ("transport.frame_bytes_sent", t.frame_bytes_sent),
            ("transport.coalesced_writes", t.coalesced_writes),
            ("transport.coalesced_frames", t.coalesced_frames),
            ("transport.wakeups", t.wakeups),
            ("transport.partial_writes", t.partial_writes),
            ("transport.pool_hits", t.pool_hits),
            ("transport.pool_misses", t.pool_misses),
            ("transport.send_failures", t.send_failures),
            ("transport.reconnects", t.reconnects),
            ("proc.cpu_user_us", u.cpu_user_us),
            ("proc.cpu_sys_us", u.cpu_sys_us),
            ("proc.vol_ctx", u.vol_ctx),
            ("proc.invol_ctx", u.invol_ctx),
            (THREADS, u.threads),
        ]);
        Counters(v)
    }

    /// `self - earlier`, field by field; the thread gauge stays as it is.
    pub fn since(&self, earlier: &Counters) -> Counters {
        Counters(
            self.0
                .iter()
                .zip(&earlier.0)
                .map(|(&(name, now), &(_, then))| {
                    (
                        name,
                        if name == THREADS {
                            now
                        } else {
                            now.saturating_sub(then)
                        },
                    )
                })
                .collect(),
        )
    }

    /// Add another rank's values (in this order) to these.
    pub fn add_values(&mut self, other: &[u64]) -> Result<(), String> {
        if other.len() != self.0.len() {
            return Err(format!(
                "peer sent {} counters, expected {}",
                other.len(),
                self.0.len()
            ));
        }
        for ((_, mine), theirs) in self.0.iter_mut().zip(other) {
            *mine += theirs;
        }
        Ok(())
    }

    pub fn values(&self) -> Vec<u64> {
        self.0.iter().map(|&(_, v)| v).collect()
    }

    /// # Panics
    /// On a name this table does not hold: a typo in the benchmark.
    pub fn get(&self, name: &str) -> u64 {
        self.0
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("no counter named {name}"))
            .1
    }

    pub fn getf(&self, name: &str) -> f64 {
        self.get(name) as f64
    }
}
