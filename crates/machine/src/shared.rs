//! The shared buffer of `MemoryModel::Shared` machines.
//!
//! On the SGI Challenge the pC++ runtime places collections and the
//! d/stream buffer in a single address space; pC++/streams then collapses
//! its per-node buffers "to one or eliminated" (paper §4). `SharedBuffer`
//! is the substrate for that variant: a buffer allocated *before* the
//! machine run and cloned into every rank's closure.
//!
//! The buffer does not advance virtual clocks by itself — the cost of
//! shared accesses is the caller's to charge (typically via
//! [`crate::NodeCtx::charge_memcpy`] plus a lock-handoff latency), because
//! only the caller knows how many bytes moved.

use std::sync::Arc;

use parking_lot::Mutex;

/// A shared, growable byte buffer with offset reservation — the "single
/// buffer" that a shared-memory d/stream packs into. Ranks reserve disjoint
/// extents and then fill them without further locking conflicts (here:
/// short lock per fill; the simulation is about layout, not lock-freedom).
#[derive(Debug, Clone)]
pub struct SharedBuffer {
    inner: Arc<Mutex<Vec<u8>>>,
}

impl SharedBuffer {
    /// An empty shared buffer.
    pub fn new() -> Self {
        SharedBuffer {
            inner: Arc::new(Mutex::new(Vec::new())),
        }
    }

    /// Reserve `len` bytes at the end of the buffer, returning the extent's
    /// starting offset. The extent is zero-filled until written.
    pub fn reserve(&self, len: usize) -> usize {
        let mut buf = self.inner.lock();
        let off = buf.len();
        buf.resize(off + len, 0);
        off
    }

    /// Write `data` at `offset` (which must have been reserved).
    ///
    /// # Panics
    /// Panics if the extent is out of bounds — that is a layout bug in the
    /// caller, not a recoverable condition.
    pub fn write_at(&self, offset: usize, data: &[u8]) {
        let mut buf = self.inner.lock();
        assert!(
            offset + data.len() <= buf.len(),
            "SharedBuffer::write_at beyond reserved extent ({} + {} > {})",
            offset,
            data.len(),
            buf.len()
        );
        buf[offset..offset + data.len()].copy_from_slice(data);
    }

    /// Current length in bytes.
    pub fn len(&self) -> usize {
        self.inner.lock().len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot the contents.
    pub fn to_vec(&self) -> Vec<u8> {
        self.inner.lock().clone()
    }

    /// Clear contents (length back to zero, capacity kept).
    pub fn clear(&self) {
        self.inner.lock().clear();
    }
}

impl Default for SharedBuffer {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MachineConfig;
    use crate::machine::Machine;

    #[test]
    fn shared_buffer_reservations_are_disjoint() {
        let buf = SharedBuffer::new();
        let b2 = buf.clone();
        Machine::run(MachineConfig::sgi_challenge(8), move |ctx| {
            let mine = vec![ctx.rank() as u8; 16];
            let off = b2.reserve(mine.len());
            b2.write_at(off, &mine);
            ctx.barrier().unwrap();
        })
        .unwrap();
        // 8 ranks × 16 bytes, every byte equal to its writer's rank and
        // each extent homogeneous.
        let data = buf.to_vec();
        assert_eq!(data.len(), 128);
        for chunk in data.chunks(16) {
            assert!(chunk.iter().all(|&b| b == chunk[0]));
        }
        let mut seen: Vec<u8> = data.chunks(16).map(|c| c[0]).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..8).collect::<Vec<u8>>());
    }

    #[test]
    #[should_panic(expected = "beyond reserved extent")]
    fn write_beyond_extent_panics() {
        let buf = SharedBuffer::new();
        let off = buf.reserve(4);
        buf.write_at(off, &[0u8; 8]);
    }

    #[test]
    fn clear_resets_length() {
        let buf = SharedBuffer::new();
        buf.reserve(10);
        assert_eq!(buf.len(), 10);
        buf.clear();
        assert!(buf.is_empty());
    }
}
