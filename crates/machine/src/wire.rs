//! Minimal, dependency-free byte encoding for values that cross the
//! simulated wire (reductions, size exchanges, framing of gathered
//! buffers). All integers are little-endian.

use crate::time::VTime;

/// A value that can be sent through the simulated network.
pub trait Wire: Sized {
    /// Serialize into bytes.
    fn to_wire(&self) -> Vec<u8>;
    /// Deserialize; `None` on malformed input.
    fn from_wire(bytes: &[u8]) -> Option<Self>;
    /// Run `f` over the encoding. The default encodes with
    /// [`Wire::to_wire`]; fixed-size types encode on the stack, so a
    /// collective carries them without a heap buffer.
    fn with_wire<R>(&self, f: impl FnOnce(&[u8]) -> R) -> R {
        f(&self.to_wire())
    }
}

macro_rules! impl_wire_int {
    ($($t:ty),*) => {$(
        impl Wire for $t {
            fn to_wire(&self) -> Vec<u8> {
                self.to_le_bytes().to_vec()
            }
            fn from_wire(bytes: &[u8]) -> Option<Self> {
                Some(<$t>::from_le_bytes(bytes.try_into().ok()?))
            }
            fn with_wire<R>(&self, f: impl FnOnce(&[u8]) -> R) -> R {
                f(&self.to_le_bytes())
            }
        }
    )*};
}

impl_wire_int!(u8, u16, u32, u64, i8, i16, i32, i64, f32, f64);

impl Wire for usize {
    fn to_wire(&self) -> Vec<u8> {
        (*self as u64).to_wire()
    }
    fn from_wire(bytes: &[u8]) -> Option<Self> {
        u64::from_wire(bytes).map(|v| v as usize)
    }
    fn with_wire<R>(&self, f: impl FnOnce(&[u8]) -> R) -> R {
        (*self as u64).with_wire(f)
    }
}

impl Wire for VTime {
    fn to_wire(&self) -> Vec<u8> {
        self.as_nanos().to_wire()
    }
    fn from_wire(bytes: &[u8]) -> Option<Self> {
        u64::from_wire(bytes).map(VTime::from_nanos)
    }
    fn with_wire<R>(&self, f: impl FnOnce(&[u8]) -> R) -> R {
        self.as_nanos().with_wire(f)
    }
}

impl Wire for Vec<u8> {
    fn to_wire(&self) -> Vec<u8> {
        self.clone()
    }
    fn from_wire(bytes: &[u8]) -> Option<Self> {
        Some(bytes.to_vec())
    }
}

impl Wire for () {
    fn to_wire(&self) -> Vec<u8> {
        Vec::new()
    }
    fn from_wire(bytes: &[u8]) -> Option<Self> {
        bytes.is_empty().then_some(())
    }
    fn with_wire<R>(&self, f: impl FnOnce(&[u8]) -> R) -> R {
        f(&[])
    }
}

/// Append a length-prefixed byte block to `out`.
pub fn put_block(out: &mut Vec<u8>, block: &[u8]) {
    out.extend_from_slice(&(block.len() as u64).to_le_bytes());
    out.extend_from_slice(block);
}

/// Read the length-prefixed block starting at `*pos`; advances `*pos`.
pub fn get_block<'a>(buf: &'a [u8], pos: &mut usize) -> Option<&'a [u8]> {
    let len_bytes = buf.get(*pos..*pos + 8)?;
    let len = u64::from_le_bytes(len_bytes.try_into().ok()?) as usize;
    let start = *pos + 8;
    let block = buf.get(start..start + len)?;
    *pos = start + len;
    Some(block)
}

/// Frame a list of byte blocks into one buffer.
pub fn frame_blocks<B: AsRef<[u8]>>(blocks: &[B]) -> Vec<u8> {
    let total: usize = blocks.iter().map(|b| b.as_ref().len() + 8).sum();
    let mut out = Vec::with_capacity(total + 8);
    out.extend_from_slice(&(blocks.len() as u64).to_le_bytes());
    for b in blocks {
        put_block(&mut out, b.as_ref());
    }
    out
}

/// Inverse of [`frame_blocks`].
pub fn unframe_blocks(buf: &[u8]) -> Option<Vec<Vec<u8>>> {
    let mut pos = 0usize;
    let count_bytes = buf.get(0..8)?;
    let count = u64::from_le_bytes(count_bytes.try_into().ok()?) as usize;
    pos += 8;
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        out.push(get_block(buf, &mut pos)?.to_vec());
    }
    (pos == buf.len()).then_some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitive_roundtrips() {
        assert_eq!(u64::from_wire(&0xdead_beefu64.to_wire()), Some(0xdead_beef));
        assert_eq!(i32::from_wire(&(-17i32).to_wire()), Some(-17));
        assert_eq!(f64::from_wire(&3.25f64.to_wire()), Some(3.25));
        assert_eq!(usize::from_wire(&42usize.to_wire()), Some(42));
        assert_eq!(
            VTime::from_wire(&VTime::from_nanos(99).to_wire()),
            Some(VTime::from_nanos(99))
        );
        assert_eq!(<()>::from_wire(&().to_wire()), Some(()));
    }

    #[test]
    fn stack_encodings_equal_the_heap_ones() {
        assert_eq!(
            0xdead_beefu64.with_wire(<[u8]>::to_vec),
            0xdead_beefu64.to_wire()
        );
        assert_eq!((-17i16).with_wire(<[u8]>::to_vec), (-17i16).to_wire());
        assert_eq!(42usize.with_wire(<[u8]>::to_vec), 42usize.to_wire());
        let t = VTime::from_nanos(99);
        assert_eq!(t.with_wire(<[u8]>::to_vec), t.to_wire());
        assert_eq!(().with_wire(<[u8]>::to_vec), ().to_wire());
        assert_eq!(vec![1u8, 2].with_wire(<[u8]>::to_vec), vec![1u8, 2]);
    }

    #[test]
    fn malformed_input_is_rejected() {
        assert_eq!(u64::from_wire(&[1, 2, 3]), None);
        assert_eq!(<()>::from_wire(&[0]), None);
    }

    #[test]
    fn block_framing_roundtrips() {
        let blocks = vec![vec![1u8, 2, 3], vec![], vec![9u8; 100]];
        let framed = frame_blocks(&blocks);
        assert_eq!(unframe_blocks(&framed), Some(blocks));
    }

    #[test]
    fn unframe_rejects_trailing_garbage_and_truncation() {
        let mut framed = frame_blocks(&[vec![1u8, 2]]);
        framed.push(0);
        assert_eq!(unframe_blocks(&framed), None);
        let framed = frame_blocks(&[vec![1u8, 2]]);
        assert_eq!(unframe_blocks(&framed[..framed.len() - 1]), None);
    }

    #[test]
    fn get_block_walks_a_sequence() {
        let mut buf = Vec::new();
        put_block(&mut buf, b"ab");
        put_block(&mut buf, b"");
        put_block(&mut buf, b"xyz");
        let mut pos = 0;
        assert_eq!(get_block(&buf, &mut pos), Some(&b"ab"[..]));
        assert_eq!(get_block(&buf, &mut pos), Some(&b""[..]));
        assert_eq!(get_block(&buf, &mut pos), Some(&b"xyz"[..]));
        assert_eq!(pos, buf.len());
        assert_eq!(get_block(&buf, &mut pos), None);
    }
}
