//! A latency-modelling transport: wall-clock delayed delivery.
//!
//! The default in-memory transport delivers synchronously, which is
//! right for semantic tests but hides the phenomenon Chant exists for:
//! message *flight time* that threads can hide behind computation. This
//! module adds an optional per-world latency model — `α + β·n` wall
//! nanoseconds per message, like a real interconnect — implemented by a
//! background deliverer thread with a deadline queue. Per-(src, dst)
//! FIFO ordering is preserved (messages on one link never overtake each
//! other, as on a wormhole-routed network).

use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

use bytes::Bytes;
use parking_lot::{Condvar, Mutex};

use crate::header::{Address, Header};
use crate::world::WorldInner;

/// Affine wall-clock latency model: a message of `n` bytes spends
/// `fixed_ns + n × per_byte_ns` nanoseconds in flight.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LatencyModel {
    /// Fixed per-message flight time (ns).
    pub fixed_ns: u64,
    /// Additional flight time per payload byte (ns).
    pub per_byte_ns: u64,
}

impl LatencyModel {
    /// Flight time for an `n`-byte body.
    pub fn flight(&self, bytes: usize) -> Duration {
        Duration::from_nanos(self.fixed_ns + bytes as u64 * self.per_byte_ns)
    }
}

#[derive(Default)]
struct HoldState {
    /// Held messages, earliest due first, FIFO within a tie.
    held: BTreeMap<(Instant, u64), (Header, Bytes)>,
    seq: u64,
    shutdown: bool,
}

/// Messages held until a due time, and the background thread that hands
/// each to the world's last hop when it comes due. The queue itself
/// imposes no order between messages beyond their due times: the
/// latency model (below) adds a per-link FIFO floor on submit, the fault
/// shim holds without one — that absence is what reorders.
#[derive(Default)]
pub(crate) struct HoldQueue {
    state: Mutex<HoldState>,
    cv: Condvar,
}

impl HoldQueue {
    /// Create the queue and start its deliverer thread.
    pub fn start(thread_name: &str, world: Weak<WorldInner>) -> Arc<HoldQueue> {
        let queue = Arc::new(HoldQueue::default());
        let q2 = Arc::clone(&queue);
        std::thread::Builder::new()
            .name(thread_name.into())
            .spawn(move || q2.run(world))
            .expect("spawn hold-queue deliverer");
        queue
    }

    /// Hold a message until `due`.
    pub fn hold(&self, due: Instant, header: Header, body: Bytes) {
        let mut st = self.state.lock();
        st.seq += 1;
        let seq = st.seq;
        st.held.insert((due, seq), (header, body));
        self.cv.notify_one();
    }

    /// Stop the deliverer (flushes nothing; pending messages are lost —
    /// only used on world teardown).
    pub fn shutdown(&self) {
        self.state.lock().shutdown = true;
        self.cv.notify_one();
    }

    fn run(&self, world: Weak<WorldInner>) {
        loop {
            // Pop the next due entry, or sleep until one is due.
            let (header, body) = {
                let mut st = self.state.lock();
                loop {
                    if st.shutdown {
                        return;
                    }
                    let now = Instant::now();
                    match st.held.first_key_value() {
                        Some((&(due, _), _)) if due <= now => {
                            break st.held.pop_first().expect("peeked entry").1;
                        }
                        Some((&(due, _), _)) => {
                            self.cv.wait_for(&mut st, due - now);
                        }
                        None => {
                            self.cv.wait(&mut st);
                        }
                    }
                }
            };
            match world.upgrade() {
                // Through the last hop, not straight into the endpoint:
                // on a TCP world a held message to another endpoint must
                // still cross the socket like every other message.
                Some(w) => w.last_hop(header, body),
                None => return, // world is gone; stop delivering
            }
        }
    }
}

/// The latency line: a [`HoldQueue`] whose due times are the model's
/// flight times, floored per link so a link stays FIFO.
pub(crate) struct DelayLine {
    model: LatencyModel,
    /// Last scheduled delivery per (src, dst).
    link_floor: Mutex<HashMap<(Address, Address), Instant>>,
    queue: Arc<HoldQueue>,
}

impl DelayLine {
    /// Create the delay line and start its deliverer thread.
    pub fn start(model: LatencyModel, world: Weak<WorldInner>) -> Arc<DelayLine> {
        Arc::new(DelayLine {
            model,
            link_floor: Mutex::new(HashMap::new()),
            queue: HoldQueue::start("chant-comm-delayline", world),
        })
    }

    /// Enqueue a message for delayed delivery.
    pub fn submit(&self, header: Header, body: Bytes) {
        let due = Instant::now() + self.model.flight(body.len());
        // Per-link FIFO: never schedule before an earlier message on the
        // same (src, dst) link. The floor stays locked until the message
        // is queued, so two submits on one link queue in floor order.
        let mut floors = self.link_floor.lock();
        let floor = floors.entry((header.src, header.dst)).or_insert(due);
        *floor = due.max(*floor);
        self.queue.hold(*floor, header, body);
    }

    /// Stop the deliverer.
    pub fn shutdown(&self) {
        self.queue.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flight_time_is_affine() {
        let m = LatencyModel {
            fixed_ns: 1_000_000,
            per_byte_ns: 10,
        };
        assert_eq!(m.flight(0), Duration::from_nanos(1_000_000));
        assert_eq!(m.flight(100), Duration::from_nanos(1_001_000));
    }

    #[test]
    fn queue_orders_by_due_then_seq() {
        let t0 = Instant::now();
        let header = Header {
            src: Address::new(0, 0),
            dst: Address::new(0, 0),
            tag: 0,
            ctx: 0,
            kind: 0,
            len: 0,
            trace: 0,
        };
        let q = HoldQueue::default();
        for (ms, tag) in [(5, 1), (1, 2), (5, 3)] {
            q.hold(t0 + Duration::from_millis(ms), Header { tag, ..header }, Bytes::new());
        }
        let mut st = q.state.lock();
        let order: Vec<i32> = std::iter::from_fn(|| st.held.pop_first())
            .map(|(_, (h, _))| h.tag)
            .collect();
        assert_eq!(order, [2, 1, 3]);
    }
}
