//! Registered memory segments: the targets of one-sided operations.
//!
//! A segment is a node-local byte array that remote nodes may read,
//! write, and atomically update *without any thread on the owning node
//! participating* — the owner registers it once and the server thread
//! services every access. Segments are id-addressed (the id is chosen by
//! the registering node and must be agreed on out of band, exactly like
//! an MPI window or a GASNet segment handle) and every access is
//! bounds-checked against the registered size.

use std::collections::HashMap;
use std::sync::Arc;

use bytes::Bytes;
use chant_core::ChantError;
use parking_lot::Mutex;

/// A registered memory segment: `size` bytes of remotely accessible
/// storage, zero-initialised.
///
/// All accessors take the segment's internal lock, which is what makes
/// one-sided atomics atomic: the owning node's server thread executes
/// remote operations serially, and local accessors from the owner's own
/// threads serialise against them through the same lock.
pub struct RmaSegment {
    id: u32,
    size: usize,
    data: Mutex<Vec<u8>>,
}

impl RmaSegment {
    pub(crate) fn new(id: u32, size: usize) -> RmaSegment {
        RmaSegment {
            id,
            size,
            data: Mutex::new(vec![0; size]),
        }
    }

    /// The segment id remote nodes address this segment by.
    pub fn id(&self) -> u32 {
        self.id
    }

    /// Registered size in bytes (fixed at registration).
    pub fn size(&self) -> usize {
        self.size
    }

    fn check_span(&self, offset: u64, len: u64) -> Result<(), ChantError> {
        let end = offset.checked_add(len);
        if end.is_none() || end.unwrap() > self.size as u64 {
            return Err(ChantError::RmaOutOfBounds {
                seg: self.id,
                offset,
                len,
                size: self.size as u64,
            });
        }
        Ok(())
    }

    fn check_cell(&self, offset: u64) -> Result<(), ChantError> {
        if !offset.is_multiple_of(8) {
            return Err(ChantError::RmaMisaligned { offset });
        }
        self.check_span(offset, 8)
    }

    /// Copy `len` bytes starting at `offset` out of the segment.
    pub fn read(&self, offset: u64, len: u64) -> Result<Bytes, ChantError> {
        self.check_span(offset, len)?;
        let data = self.data.lock();
        Ok(Bytes::copy_from_slice(
            &data[offset as usize..(offset + len) as usize],
        ))
    }

    /// Overwrite the bytes starting at `offset` with `src`.
    pub fn write(&self, offset: u64, src: &[u8]) -> Result<(), ChantError> {
        self.check_span(offset, src.len() as u64)?;
        let mut data = self.data.lock();
        data[offset as usize..offset as usize + src.len()].copy_from_slice(src);
        Ok(())
    }

    /// Atomically load the little-endian `u64` cell at `offset` (which
    /// must be 8-byte aligned).
    pub fn load(&self, offset: u64) -> Result<u64, ChantError> {
        self.check_cell(offset)?;
        let data = self.data.lock();
        Ok(read_cell(&data, offset))
    }

    /// Atomically add `delta` (wrapping) to the cell at `offset`,
    /// returning the value *before* the add.
    pub fn fetch_add(&self, offset: u64, delta: u64) -> Result<u64, ChantError> {
        self.check_cell(offset)?;
        let mut data = self.data.lock();
        let old = read_cell(&data, offset);
        write_cell(&mut data, offset, old.wrapping_add(delta));
        Ok(old)
    }

    /// Atomically replace the cell at `offset` with `new` if it holds
    /// `expected`, returning the value found (the swap happened iff the
    /// return value equals `expected`).
    pub fn compare_swap(&self, offset: u64, expected: u64, new: u64) -> Result<u64, ChantError> {
        self.check_cell(offset)?;
        let mut data = self.data.lock();
        let old = read_cell(&data, offset);
        if old == expected {
            write_cell(&mut data, offset, new);
        }
        Ok(old)
    }
}

fn read_cell(data: &[u8], offset: u64) -> u64 {
    let o = offset as usize;
    u64::from_le_bytes(data[o..o + 8].try_into().expect("checked 8-byte cell"))
}

fn write_cell(data: &mut [u8], offset: u64, value: u64) {
    let o = offset as usize;
    data[o..o + 8].copy_from_slice(&value.to_le_bytes());
}

/// Per-node segment table, stored in the node's typed extension slot.
#[derive(Default)]
pub(crate) struct RmaState {
    segments: Mutex<HashMap<u32, Arc<RmaSegment>>>,
    /// Per op kind, the `core.rma.<op>` counter and `core.rma.<op>_ns`
    /// latency histogram, looked up once per node; `None` once resolved
    /// means no tracer was installed.
    obs: std::sync::OnceLock<Option<[OpObs; 4]>>,
}

/// One op kind's issue counter and completion-latency histogram.
pub(crate) type OpObs = (Arc<chant_obs::Counter>, Arc<chant_obs::Histogram>);

impl RmaState {
    pub(crate) fn obs(&self, kind: crate::handle::OpKind) -> Option<&OpObs> {
        self.obs
            .get_or_init(|| {
                chant_obs::tracer::active().then(|| {
                    let reg = chant_obs::registry();
                    // In `OpKind` declaration order.
                    ["get", "put", "fetch_add", "compare_swap"].map(|op| {
                        (
                            reg.counter(&format!("core.rma.{op}")),
                            reg.histogram(&format!("core.rma.{op}_ns")),
                        )
                    })
                })
            })
            .as_ref()
            .map(|per_kind| &per_kind[kind as usize])
    }

    pub(crate) fn register(&self, id: u32, size: usize) -> Arc<RmaSegment> {
        let seg = Arc::new(RmaSegment::new(id, size));
        let prev = self.segments.lock().insert(id, Arc::clone(&seg));
        assert!(prev.is_none(), "segment {id} registered twice on this node");
        seg
    }

    pub(crate) fn get(&self, id: u32) -> Result<Arc<RmaSegment>, ChantError> {
        self.segments
            .lock()
            .get(&id)
            .cloned()
            .ok_or(ChantError::NoSuchSegment(id))
    }

    pub(crate) fn lookup(&self, id: u32) -> Option<Arc<RmaSegment>> {
        self.segments.lock().get(&id).cloned()
    }

    pub(crate) fn unregister(&self, id: u32) -> bool {
        self.segments.lock().remove(&id).is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_write_roundtrip_and_zero_init() {
        let seg = RmaSegment::new(1, 32);
        assert_eq!(&seg.read(0, 32).unwrap()[..], &[0u8; 32]);
        seg.write(8, b"chant").unwrap();
        assert_eq!(&seg.read(8, 5).unwrap()[..], b"chant");
        assert_eq!(seg.read(7, 1).unwrap()[0], 0);
    }

    #[test]
    fn bounds_are_enforced_with_overflow_safety() {
        let seg = RmaSegment::new(2, 16);
        assert!(matches!(
            seg.read(8, 9),
            Err(ChantError::RmaOutOfBounds { seg: 2, size: 16, .. })
        ));
        assert!(seg.write(16, b"x").is_err());
        // offset + len overflowing u64 must not wrap into "in bounds".
        assert!(seg.read(u64::MAX, 2).is_err());
        // Zero-length access at the end boundary is legal.
        assert_eq!(seg.read(16, 0).unwrap().len(), 0);
    }

    #[test]
    fn atomics_wrap_misalign_and_cas() {
        let seg = RmaSegment::new(3, 24);
        assert_eq!(seg.fetch_add(8, 5).unwrap(), 0);
        assert_eq!(seg.fetch_add(8, u64::MAX).unwrap(), 5);
        assert_eq!(seg.load(8).unwrap(), 4); // 5 + MAX wraps to 4
        assert!(matches!(
            seg.fetch_add(9, 1),
            Err(ChantError::RmaMisaligned { offset: 9 })
        ));
        // An aligned cell that would run off the end is a bounds error.
        assert!(matches!(
            seg.fetch_add(24, 1),
            Err(ChantError::RmaOutOfBounds { .. })
        ));
        assert_eq!(seg.compare_swap(16, 0, 7).unwrap(), 0);
        assert_eq!(seg.load(16).unwrap(), 7);
        assert_eq!(seg.compare_swap(16, 0, 9).unwrap(), 7); // mismatch: no swap
        assert_eq!(seg.load(16).unwrap(), 7);
    }

    #[test]
    fn state_registers_and_unregisters() {
        let st = RmaState::default();
        let seg = st.register(4, 8);
        assert_eq!(st.get(4).unwrap().id(), seg.id());
        assert!(st.unregister(4));
        assert!(!st.unregister(4));
        assert!(matches!(st.get(4), Err(ChantError::NoSuchSegment(4))));
    }
}
