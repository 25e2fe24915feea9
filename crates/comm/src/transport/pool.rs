//! A small free-list of `Vec<u8>`s for the socket backend.
//!
//! The socket backend moves every frame through a transient byte buffer
//! (frame encode on the way out, payload staging on the way in). At
//! tens of thousands of messages per second, allocating and freeing
//! that buffer per frame is measurable; recycling capacity through this
//! pool makes the steady-state hot path allocation-free. Buffers come
//! back cleared but with their capacity intact, so `encode_frame_into`
//! appends into memory that has already been sized by earlier traffic.
//!
//! The pool is deliberately bounded in two dimensions: at most
//! [`BufferPool::max_pooled`] buffers are retained (the rest free on
//! `put`), and a buffer whose capacity outgrew [`MAX_POOLED_CAPACITY`]
//! is dropped rather than cached — one 64 MiB bulk transfer must not
//! pin 64 MiB forever.

use std::sync::Arc;

use super::TransportStats;

/// Buffers that grew beyond this are freed, not pooled.
const MAX_POOLED_CAPACITY: usize = 1 << 20;

/// Recycles `Vec<u8>` capacity across frames (see module docs). It has
/// no lock of its own: it lives under its transport's.
pub(crate) struct BufferPool {
    free: Vec<Vec<u8>>,
    max_pooled: usize,
    /// The owning transport's counters (`pool_hits`, `pool_misses`).
    stats: Arc<TransportStats>,
}

impl BufferPool {
    /// A pool retaining at most `max_pooled` idle buffers, counting
    /// hits and misses into `stats`.
    pub fn new(max_pooled: usize, stats: Arc<TransportStats>) -> BufferPool {
        BufferPool {
            free: Vec::with_capacity(max_pooled.min(64)),
            max_pooled,
            stats,
        }
    }

    /// An empty buffer, reusing pooled capacity when available.
    pub fn get(&mut self) -> Vec<u8> {
        if let Some(buf) = self.free.pop() {
            self.stats.pool_hits.incr();
            debug_assert!(buf.is_empty(), "pooled buffer not cleared");
            buf
        } else {
            self.stats.pool_misses.incr();
            Vec::new()
        }
    }

    /// Return a buffer to the pool (cleared; capacity kept unless the
    /// buffer or the pool outgrew its bound).
    pub fn put(&mut self, mut buf: Vec<u8>) {
        if buf.capacity() == 0 || buf.capacity() > MAX_POOLED_CAPACITY {
            return;
        }
        buf.clear();
        if self.free.len() < self.max_pooled {
            self.free.push(buf);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool(max_pooled: usize) -> BufferPool {
        BufferPool::new(max_pooled, Arc::default())
    }

    #[test]
    fn capacity_is_recycled() {
        let mut pool = pool(4);
        let mut a = pool.get();
        a.extend_from_slice(&[7u8; 300]);
        let cap = a.capacity();
        pool.put(a);
        let b = pool.get();
        assert!(b.is_empty());
        assert_eq!(b.capacity(), cap, "capacity must survive the pool");
        let s = pool.stats.snapshot();
        assert_eq!((s.pool_hits, s.pool_misses), (1, 1));
    }

    #[test]
    fn pool_is_bounded() {
        let mut pool = pool(2);
        for _ in 0..5 {
            let mut v = pool.get();
            v.push(1);
            pool.put(v);
        }
        // Never more than two buffers retained.
        assert!(pool.free.len() <= 2);
    }

    #[test]
    fn oversized_buffers_are_not_cached() {
        let mut pool = pool(4);
        let mut big = Vec::with_capacity(MAX_POOLED_CAPACITY + 1);
        big.push(0u8);
        pool.put(big);
        assert_eq!(pool.free.len(), 0);
        // Zero-capacity buffers are not worth caching either.
        pool.put(Vec::new());
        assert_eq!(pool.free.len(), 0);
    }
}
