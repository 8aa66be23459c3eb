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
pub fn unframe_blocks(buf: &[u8]) -> Result<Vec<Vec<u8>>, ReadError> {
    Reader::parse(buf, |r| {
        let count = r.count(8)?;
        let mut out = Vec::with_capacity(count);
        for _ in 0..count {
            out.push(r.block()?.to_vec());
        }
        Ok(out)
    })
}

/// Inverse of [`frame_blocks`] over `(id, bytes)` pairs, each framed as
/// an 8-byte id block followed by its data block: the ids and the
/// borrowed data, in frame order.
pub fn unframe_id_blocks(buf: &[u8]) -> Result<Vec<(u64, &[u8])>, ReadError> {
    // An odd block count leaves its last block unread for `finish`.
    Reader::parse(buf, |r| {
        (0..r.count(8)? / 2)
            .map(|_| Ok((Reader::parse(r.block()?, Reader::u64)?, r.block()?)))
            .collect()
    })
}

/// Why a [`Reader`] stopped: at byte `at` a field needed `want` bytes
/// (saturating) and `left` remained; `want == 0` means [`Reader::finish`]
/// found `left` unread bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadError {
    at: usize,
    want: u64,
    left: usize,
}

impl std::fmt::Display for ReadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (at, left) = (self.at, self.left);
        match self.want {
            0 => write!(f, "{left} trailing bytes at offset {at}"),
            want => write!(f, "needs {want} bytes at offset {at}, {left} remain"),
        }
    }
}

impl std::error::Error for ReadError {}

/// A bounds-checked little-endian cursor over a byte slice: the one way
/// the workspace's binary decoders read fields. Every read checks its
/// width against the bytes left, a count is capped by what the rest can
/// hold before anything is allocated, and no offset arithmetic can
/// overflow, so damaged input is a [`ReadError`], never a panic.
#[derive(Debug, Clone, Copy)]
pub struct Reader<'a> {
    rest: &'a [u8],
    len: usize,
}

impl<'a> Reader<'a> {
    /// A cursor at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader {
            rest: buf,
            len: buf.len(),
        }
    }

    /// Decode all of `buf` with `f`: bytes `f` leaves unread are an error.
    pub fn parse<T>(
        buf: &'a [u8],
        f: impl FnOnce(&mut Self) -> Result<T, ReadError>,
    ) -> Result<T, ReadError> {
        let mut r = Reader::new(buf);
        let v = f(&mut r)?;
        r.finish().map(|()| v)
    }

    /// Bytes consumed so far.
    pub fn pos(&self) -> usize {
        self.len - self.rest.len()
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.rest.len()
    }

    fn short(&self, want: u64) -> ReadError {
        ReadError {
            at: self.pos(),
            want,
            left: self.rest.len(),
        }
    }

    /// The next `n` bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], ReadError> {
        let (head, rest) = self
            .rest
            .split_at_checked(n)
            .ok_or_else(|| self.short(n as u64))?;
        self.rest = rest;
        Ok(head)
    }

    /// The next `N` bytes, by value.
    pub fn array<const N: usize>(&mut self) -> Result<[u8; N], ReadError> {
        let (head, rest) = self
            .rest
            .split_first_chunk()
            .ok_or_else(|| self.short(N as u64))?;
        self.rest = rest;
        Ok(*head)
    }

    /// One byte.
    pub fn u8(&mut self) -> Result<u8, ReadError> {
        self.array().map(|[b]| b)
    }

    /// A little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, ReadError> {
        self.array().map(u32::from_le_bytes)
    }

    /// A little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, ReadError> {
        self.array().map(u64::from_le_bytes)
    }

    /// The next `n` little-endian `u64`s: one length check, then a
    /// fixed-width walk.
    pub fn u64s(
        &mut self,
        n: usize,
    ) -> Result<impl ExactSizeIterator<Item = u64> + Clone + 'a, ReadError> {
        let (words, _) = self.take(n.saturating_mul(8))?.as_chunks();
        Ok(words.iter().map(|w| u64::from_le_bytes(*w)))
    }

    /// A block framed by [`put_block`]: a `u64` length, then the bytes.
    pub fn block(&mut self) -> Result<&'a [u8], ReadError> {
        let n = self.u64()?;
        self.take(n.try_into().unwrap_or(usize::MAX))
    }

    /// A `u64` count of items that each take at least `elem_bytes` bytes
    /// (at least 1) of the rest: a count the rest cannot hold is an
    /// error, so the caller may allocate `count` items.
    pub fn count(&mut self, elem_bytes: usize) -> Result<usize, ReadError> {
        let n = self.u64()?;
        self.fits(n, elem_bytes)
    }

    /// [`Reader::count`] for a `u32` count.
    pub fn count32(&mut self, elem_bytes: usize) -> Result<usize, ReadError> {
        let n = self.u32()?;
        self.fits(n.into(), elem_bytes)
    }

    fn fits(&self, n: u64, elem_bytes: usize) -> Result<usize, ReadError> {
        let want = n.saturating_mul(elem_bytes.max(1) as u64);
        match usize::try_from(n) {
            Ok(n) if want <= self.rest.len() as u64 => Ok(n),
            _ => Err(self.short(want)),
        }
    }

    /// Require every byte to have been read.
    pub fn finish(self) -> Result<(), ReadError> {
        match self.rest.len() {
            0 => Ok(()),
            _ => Err(self.short(0)),
        }
    }
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
        assert_eq!(unframe_blocks(&framed), Ok(blocks));
    }

    #[test]
    fn unframe_rejects_trailing_garbage_and_truncation() {
        let mut framed = frame_blocks(&[vec![1u8, 2]]);
        framed.push(0);
        assert!(unframe_blocks(&framed).is_err());
        let framed = frame_blocks(&[vec![1u8, 2]]);
        assert!(unframe_blocks(&framed[..framed.len() - 1]).is_err());
        // A count no buffer could hold fails before any allocation.
        assert!(unframe_blocks(&u64::MAX.to_le_bytes()).is_err());
    }

    #[test]
    fn id_blocks_roundtrip_and_reject_odd_frames() {
        let data = [vec![7u8; 3], vec![]];
        let framed = frame_blocks(&[
            &5u64.to_le_bytes()[..],
            &data[0],
            &9u64.to_le_bytes(),
            &data[1],
        ]);
        assert_eq!(
            unframe_id_blocks(&framed),
            Ok(vec![(5, &data[0][..]), (9, &data[1][..])])
        );
        assert!(unframe_id_blocks(&frame_blocks(&[5u64.to_le_bytes()])).is_err());
        assert!(unframe_id_blocks(&frame_blocks(&[[5u8; 7], [0; 7]])).is_err());
    }

    #[test]
    fn reader_walks_blocks_and_fields() {
        let mut buf = Vec::new();
        put_block(&mut buf, b"ab");
        put_block(&mut buf, b"");
        buf.push(9);
        buf.extend_from_slice(&7u32.to_le_bytes());
        buf.extend_from_slice(&[1, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0]);
        let mut r = Reader::new(&buf);
        assert_eq!(r.block(), Ok(&b"ab"[..]));
        assert_eq!(r.block(), Ok(&b""[..]));
        assert_eq!(r.u8(), Ok(9));
        assert_eq!(r.u32(), Ok(7));
        assert_eq!(r.u64s(2).unwrap().collect::<Vec<_>>(), vec![1, 2]);
        assert_eq!(r.pos(), buf.len());
        assert!(r.block().is_err());
        assert_eq!(r.finish(), Ok(()));
    }

    #[test]
    fn reader_rejects_short_huge_and_trailing_input() {
        let buf = [0xffu8; 12];
        let mut r = Reader::new(&buf);
        let short = r.take(13).unwrap_err();
        assert_eq!(short.to_string(), "needs 13 bytes at offset 0, 12 remain");
        assert!(r.u64s(usize::MAX).is_err());
        assert!(r.u64s(2).is_err());
        // The failed reads consumed nothing.
        assert!(Reader::new(&buf).block().is_err());
        assert!(Reader::new(&buf).count(1).is_err());
        assert!(Reader::new(&buf).count32(1).is_err());
        let mut r = Reader::new(&buf);
        assert_eq!(r.u32(), Ok(u32::MAX));
        let trailing = r.finish().unwrap_err();
        assert_eq!(trailing.to_string(), "8 trailing bytes at offset 4");
        // A count fits when the rest can hold it, even at zero width.
        let mut two = 2u32.to_le_bytes().to_vec();
        two.extend_from_slice(&[0, 0]);
        assert_eq!(Reader::new(&two).count32(1), Ok(2));
        assert_eq!(Reader::new(&two).count32(0), Ok(2));
        assert!(Reader::new(&two).count32(2).is_err());
        assert!(Reader::parse(&two, |r| r.u32()).is_err());
    }
}
