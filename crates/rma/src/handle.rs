//! Completion handles for nonblocking one-sided operations.

use std::time::{Duration, Instant};

use bytes::Bytes;
use chant_core::wire::Reader;
use chant_core::{ChantError, ChantNode, RsrCallHandle};
use parking_lot::Mutex;

/// Which one-sided operation a handle tracks (decides how its reply
/// payload decodes).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum OpKind {
    Get,
    Put,
    FetchAdd,
    CompareSwap,
}

/// The decoded outcome of a completed one-sided operation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RmaResult {
    /// Bytes read by a `get`.
    Bytes(Bytes),
    /// The cell value *before* a `fetch_add` or `compare_swap`.
    Old(u64),
    /// A `put` finished.
    Done,
}

impl RmaResult {
    /// The bytes of a completed `get`.
    ///
    /// # Panics
    /// Panics when the operation was not a `get`.
    pub fn into_bytes(self) -> Bytes {
        match self {
            RmaResult::Bytes(b) => b,
            other => panic!("expected get result, found {other:?}"),
        }
    }

    /// The prior cell value of a completed atomic.
    ///
    /// # Panics
    /// Panics when the operation was not an atomic.
    pub fn old(self) -> u64 {
        match self {
            RmaResult::Old(v) => v,
            other => panic!("expected atomic result, found {other:?}"),
        }
    }
}

pub(crate) enum Inner {
    /// Local fast path: the operation already executed against this
    /// node's own segment table.
    Ready(Result<RmaResult, ChantError>),
    /// In flight to a remote node as an RSR.
    Remote {
        call: RsrCallHandle,
        decoded: Mutex<Option<Result<RmaResult, ChantError>>>,
    },
}

/// Handle to a nonblocking one-sided operation, returned by the `i`-
/// prefixed methods of [`crate::RmaNode`].
///
/// Completion rides the node's normal polling machinery — the same
/// `msgtest`/deadline engine as an ordinary receive — so
/// [`RmaHandle::wait`] blocks only the calling thread, under whichever
/// of the four polling policies the cluster runs, and
/// [`RmaHandle::wait_timeout`] bounds the wait without invalidating the
/// handle.
pub struct RmaHandle {
    pub(crate) kind: OpKind,
    pub(crate) inner: Inner,
    /// Issue time, for the `core.rma.*_ns` latency histograms.
    #[cfg_attr(not(feature = "trace"), allow(dead_code))]
    pub(crate) started: Instant,
    /// Where completion latency is recorded; `None` when untraced.
    #[cfg(feature = "trace")]
    pub(crate) latency_ns: Option<std::sync::Arc<chant_obs::Histogram>>,
}

impl RmaHandle {
    /// Decode the raw reply payload of this operation kind.
    fn decode_payload(&self, payload: Bytes) -> Result<RmaResult, ChantError> {
        match self.kind {
            OpKind::Get => Ok(RmaResult::Bytes(payload)),
            OpKind::Put => Ok(RmaResult::Done),
            OpKind::FetchAdd | OpKind::CompareSwap => {
                Ok(RmaResult::Old(Reader::new(&payload).u64()?))
            }
        }
    }

    #[cfg(feature = "trace")]
    fn record_latency(&self) {
        if let Some(h) = &self.latency_ns {
            h.record(self.started.elapsed().as_nanos() as u64);
        }
    }

    #[cfg(not(feature = "trace"))]
    fn record_latency(&self) {}

    /// Absorb a terminal outcome from the underlying call, caching the
    /// decoded result. Caller guarantees `node.rsr_take` is `Some`.
    fn absorb(&self, node: &ChantNode, call: &RsrCallHandle) -> Result<RmaResult, ChantError> {
        let raw = node
            .rsr_take(call)
            .expect("absorb called before the RSR completed");
        let result = raw.and_then(|payload| self.decode_payload(payload));
        if let Inner::Remote { decoded, .. } = &self.inner {
            let mut slot = decoded.lock();
            if slot.is_none() {
                *slot = Some(result.clone());
                self.record_latency();
            }
        }
        result
    }

    /// Nonblocking completion probe (counts as one `msgtest` against the
    /// posted reply, like testing an ordinary receive).
    pub fn test(&self, node: &ChantNode) -> bool {
        match &self.inner {
            Inner::Ready(_) => true,
            Inner::Remote { call, decoded } => {
                if decoded.lock().is_some() {
                    return true;
                }
                if node.rsr_test(call) {
                    let _ = self.absorb(node, call);
                    true
                } else {
                    false
                }
            }
        }
    }

    /// Block the calling thread (never the processor) until the
    /// operation completes, under the node's polling policy — retrying
    /// with backoff when the cluster has a
    /// [`chant_core::RetryPolicy`].
    pub fn wait(&self, node: &ChantNode) -> Result<RmaResult, ChantError> {
        match &self.inner {
            Inner::Ready(r) => r.clone(),
            Inner::Remote { call, decoded } => {
                if let Some(r) = decoded.lock().clone() {
                    return r;
                }
                match node.rsr_wait(call) {
                    Ok(payload) => {
                        let result = self.decode_payload(payload);
                        let mut slot = decoded.lock();
                        if slot.is_none() {
                            *slot = Some(result.clone());
                            self.record_latency();
                        }
                        result
                    }
                    // Terminal remote errors are cached on the call and
                    // reachable via rsr_take; transient ones (Timeout,
                    // NodeUnreachable) are returned uncached so the
                    // caller may wait again.
                    Err(e) => {
                        if node.rsr_take(call).is_some() {
                            self.absorb(node, call)
                        } else {
                            Err(e)
                        }
                    }
                }
            }
        }
    }

    /// Bounded wait: returns `Ok(())` once the operation is complete
    /// (its result then available via [`RmaHandle::take`] or
    /// [`RmaHandle::wait`]), or [`ChantError::Timeout`] once `timeout`
    /// elapses. The handle stays valid after a timeout — the reply may
    /// still arrive and the wait may be re-issued.
    pub fn wait_timeout(&self, node: &ChantNode, timeout: Duration) -> Result<(), ChantError> {
        match &self.inner {
            Inner::Ready(_) => Ok(()),
            Inner::Remote { call, decoded } => {
                if decoded.lock().is_some() {
                    return Ok(());
                }
                node.rsr_wait_deadline(call, Instant::now() + timeout)?;
                let _ = self.absorb(node, call);
                Ok(())
            }
        }
    }

    /// The operation's outcome, once a test or wait has observed
    /// completion; `None` while still in flight.
    pub fn take(&self) -> Option<Result<RmaResult, ChantError>> {
        match &self.inner {
            Inner::Ready(r) => Some(r.clone()),
            Inner::Remote { decoded, .. } => decoded.lock().clone(),
        }
    }
}
