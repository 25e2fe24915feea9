//! The per-node one-sided API and the server-side handlers.

use std::sync::Arc;
use std::time::Instant;

use bytes::Bytes;
use chant_comm::Address;
use chant_core::ranges::fns;
use chant_core::wire::Writer;
use chant_core::{ChantError, ChantNode, ChanterId, ClusterBuilder};
use parking_lot::Mutex;

use crate::handle::{Inner, OpKind, RmaHandle, RmaResult};
use crate::segment::{RmaSegment, RmaState};
use crate::wire::{
    decode_compare_swap, decode_fetch_add, decode_get, decode_put, encode_compare_swap,
    encode_fetch_add, encode_get, encode_put, CompareSwapArgs, FetchAddArgs, GetArgs, PutArgs,
};

/// Register the one-sided memory service on a cluster under
/// construction. Every node's server thread then answers the four RMA
/// function codes ([`chant_core::ranges::fns::RMA_GET`] and friends), so
/// any thread anywhere can access any registered segment.
///
/// ```
/// use chant_rma::{with_rma, RmaNode};
///
/// let cluster = with_rma(chant_core::ChantCluster::builder().pes(2)).build();
/// cluster.run(|node| {
///     node.rma_register(7, 64);
///     // ... synchronise registration (e.g. a barrier), then get/put ...
/// });
/// ```
pub fn with_rma(builder: ClusterBuilder) -> ClusterBuilder {
    builder
        .rsr_ext_handler(fns::RMA_GET, |node, req| {
            let a = decode_get(&req.args)?;
            rma_state(node).get(a.seg)?.read(a.offset, a.len)
        })
        .rsr_ext_handler(fns::RMA_PUT, |node, req| {
            let a = decode_put(&req.args)?;
            rma_state(node).get(a.seg)?.write(a.offset, &a.data)?;
            Ok(Bytes::new())
        })
        .rsr_ext_handler(fns::RMA_FETCH_ADD, |node, req| {
            let a = decode_fetch_add(&req.args)?;
            let old = rma_state(node).get(a.seg)?.fetch_add(a.offset, a.delta)?;
            Ok(Writer::new().u64(old).finish())
        })
        .rsr_ext_handler(fns::RMA_COMPARE_SWAP, |node, req| {
            let a = decode_compare_swap(&req.args)?;
            let old = rma_state(node)
                .get(a.seg)?
                .compare_swap(a.offset, a.expected, a.new)?;
            Ok(Writer::new().u64(old).finish())
        })
}

fn rma_state(node: &ChantNode) -> Arc<RmaState> {
    node.extension(RmaState::default)
}

/// One-sided memory operations, callable on any [`ChantNode`] of a
/// cluster built through [`with_rma`].
///
/// Targets are `(pe, process)` addresses — segments belong to *nodes*,
/// not threads, so no thread on the target participates in an access
/// (its server thread services the request, exactly like the built-in
/// remote thread operations). Operations against this node's own
/// address take a local fast path and complete immediately.
///
/// Registration is not globally synchronised: an op can reach a node
/// before that node registers the target segment and fail with
/// [`ChantError::NoSuchSegment`]. Register segments up front and
/// synchronise (e.g. [`chant_core::ChantGroup::barrier`]) before the
/// first access.
pub trait RmaNode {
    /// Register a zero-initialised segment of `size` bytes on this node
    /// under id `seg`, making it remotely accessible.
    ///
    /// # Panics
    /// Panics if `seg` is already registered on this node.
    fn rma_register(&self, seg: u32, size: usize) -> Arc<RmaSegment>;

    /// This node's own segment `seg`, if registered.
    fn rma_segment(&self, seg: u32) -> Option<Arc<RmaSegment>>;

    /// Remove segment `seg` from this node; later accesses fail with
    /// [`ChantError::NoSuchSegment`]. Returns whether it was registered.
    fn rma_unregister(&self, seg: u32) -> bool;

    /// Nonblocking one-sided read of `len` bytes at `offset` of segment
    /// `seg` on node `dst`.
    fn rma_iget(&self, dst: Address, seg: u32, offset: u64, len: u64)
        -> Result<RmaHandle, ChantError>;

    /// Nonblocking one-sided write of `data` at `offset` of segment
    /// `seg` on node `dst`.
    fn rma_iput(
        &self,
        dst: Address,
        seg: u32,
        offset: u64,
        data: &[u8],
    ) -> Result<RmaHandle, ChantError>;

    /// Nonblocking atomic fetch-and-add (wrapping) on the 8-byte cell at
    /// `offset`; the handle resolves to the prior value.
    fn rma_ifetch_add(
        &self,
        dst: Address,
        seg: u32,
        offset: u64,
        delta: u64,
    ) -> Result<RmaHandle, ChantError>;

    /// Nonblocking atomic compare-and-swap on the 8-byte cell at
    /// `offset`; the handle resolves to the value found (swap happened
    /// iff it equals `expected`).
    fn rma_icompare_swap(
        &self,
        dst: Address,
        seg: u32,
        offset: u64,
        expected: u64,
        new: u64,
    ) -> Result<RmaHandle, ChantError>;

    /// Blocking [`RmaNode::rma_iget`].
    fn rma_get(&self, dst: Address, seg: u32, offset: u64, len: u64)
        -> Result<Bytes, ChantError>;

    /// Blocking [`RmaNode::rma_iput`].
    fn rma_put(&self, dst: Address, seg: u32, offset: u64, data: &[u8])
        -> Result<(), ChantError>;

    /// Blocking [`RmaNode::rma_ifetch_add`].
    fn rma_fetch_add(
        &self,
        dst: Address,
        seg: u32,
        offset: u64,
        delta: u64,
    ) -> Result<u64, ChantError>;

    /// Blocking [`RmaNode::rma_icompare_swap`].
    fn rma_compare_swap(
        &self,
        dst: Address,
        seg: u32,
        offset: u64,
        expected: u64,
        new: u64,
    ) -> Result<u64, ChantError>;
}

/// Shared issue path: local fast path for self-targeted ops, RSR for
/// everything else.
fn issue<L>(
    node: &ChantNode,
    dst: Address,
    kind: OpKind,
    fn_id: u32,
    args: Bytes,
    local: L,
) -> Result<RmaHandle, ChantError>
where
    L: FnOnce(&RmaState) -> Result<RmaResult, ChantError>,
{
    node.check_dst(ChanterId::new(dst.pe, dst.process, 0))?;
    let latency_ns = rma_state(node).obs(kind).map(|(issued, latency_ns)| {
        issued.incr();
        Arc::clone(latency_ns)
    });
    let started = Instant::now();
    let inner = if dst == node.address() {
        Inner::Ready(local(&rma_state(node)))
    } else {
        Inner::Remote {
            call: node.rsr_icall(dst, fn_id, &args)?,
            decoded: Mutex::new(None),
        }
    };
    Ok(RmaHandle {
        kind,
        inner,
        started,
        latency_ns,
    })
}

impl RmaNode for ChantNode {
    fn rma_register(&self, seg: u32, size: usize) -> Arc<RmaSegment> {
        rma_state(self).register(seg, size)
    }

    fn rma_segment(&self, seg: u32) -> Option<Arc<RmaSegment>> {
        rma_state(self).lookup(seg)
    }

    fn rma_unregister(&self, seg: u32) -> bool {
        rma_state(self).unregister(seg)
    }

    fn rma_iget(
        &self,
        dst: Address,
        seg: u32,
        offset: u64,
        len: u64,
    ) -> Result<RmaHandle, ChantError> {
        let args = encode_get(&GetArgs { seg, offset, len });
        issue(self, dst, OpKind::Get, fns::RMA_GET, args, |st| {
            st.get(seg)?.read(offset, len).map(RmaResult::Bytes)
        })
    }

    fn rma_iput(
        &self,
        dst: Address,
        seg: u32,
        offset: u64,
        data: &[u8],
    ) -> Result<RmaHandle, ChantError> {
        let args = encode_put(&PutArgs {
            seg,
            offset,
            data: Bytes::copy_from_slice(data),
        });
        issue(self, dst, OpKind::Put, fns::RMA_PUT, args, |st| {
            st.get(seg)?.write(offset, data).map(|()| RmaResult::Done)
        })
    }

    fn rma_ifetch_add(
        &self,
        dst: Address,
        seg: u32,
        offset: u64,
        delta: u64,
    ) -> Result<RmaHandle, ChantError> {
        let args = encode_fetch_add(&FetchAddArgs { seg, offset, delta });
        issue(self, dst, OpKind::FetchAdd, fns::RMA_FETCH_ADD, args, |st| {
            st.get(seg)?.fetch_add(offset, delta).map(RmaResult::Old)
        })
    }

    fn rma_icompare_swap(
        &self,
        dst: Address,
        seg: u32,
        offset: u64,
        expected: u64,
        new: u64,
    ) -> Result<RmaHandle, ChantError> {
        let args = encode_compare_swap(&CompareSwapArgs {
            seg,
            offset,
            expected,
            new,
        });
        issue(
            self,
            dst,
            OpKind::CompareSwap,
            fns::RMA_COMPARE_SWAP,
            args,
            |st| {
                st.get(seg)?
                    .compare_swap(offset, expected, new)
                    .map(RmaResult::Old)
            },
        )
    }

    fn rma_get(
        &self,
        dst: Address,
        seg: u32,
        offset: u64,
        len: u64,
    ) -> Result<Bytes, ChantError> {
        Ok(self.rma_iget(dst, seg, offset, len)?.wait(self)?.into_bytes())
    }

    fn rma_put(
        &self,
        dst: Address,
        seg: u32,
        offset: u64,
        data: &[u8],
    ) -> Result<(), ChantError> {
        self.rma_iput(dst, seg, offset, data)?.wait(self)?;
        Ok(())
    }

    fn rma_fetch_add(
        &self,
        dst: Address,
        seg: u32,
        offset: u64,
        delta: u64,
    ) -> Result<u64, ChantError> {
        Ok(self.rma_ifetch_add(dst, seg, offset, delta)?.wait(self)?.old())
    }

    fn rma_compare_swap(
        &self,
        dst: Address,
        seg: u32,
        offset: u64,
        expected: u64,
        new: u64,
    ) -> Result<u64, ChantError> {
        Ok(self
            .rma_icompare_swap(dst, seg, offset, expected, new)?
            .wait(self)?
            .old())
    }
}
