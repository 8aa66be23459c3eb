//! Element serialization: the `StreamData` trait and the
//! [`Inserter`]/[`Extractor`] visitors.
//!
//! In pC++ the library overloads `operator<<`/`operator>>` per type, and
//! the *stream-gen* tool writes those operators for user-defined classes.
//! In Rust the same role is played by the [`StreamData`] trait: `insert`
//! decomposes a value into primitive insertions, `extract` mirrors it. The
//! `dstreams-streamgen` crate generates `StreamData` impls from struct
//! declarations; the [`impl_stream_data!`](crate::impl_stream_data) macro
//! derives them inline.
//!
//! ### Checked mode
//!
//! The paper's format stores only per-element byte sizes; pairing each
//! extract with the right insert is the programmer's obligation. Because
//! d/streams are pitched for *debugging* workflows, this implementation
//! adds an optional checked mode that embeds a type tag and count with
//! every primitive insertion and validates them on extraction. It is off
//! by default (matching the paper's overhead profile) and recorded in the
//! file so reader and writer cannot disagree silently.

use dstreams_machine::wire::Reader;

use crate::error::StreamError;

/// A primitive type that d/streams can move: fixed-width, little-endian.
pub trait Prim: Copy {
    /// Width in bytes.
    const WIDTH: usize;
    /// Human-readable tag (checked mode diagnostics).
    const NAME: &'static str;
    /// Numeric tag stored in checked mode.
    const TAG: u8;
    /// Append the little-endian image to `out`.
    fn put(self, out: &mut Vec<u8>);
    /// Append the little-endian images of all of `s` to `out` in one pass.
    fn put_slice(s: &[Self], out: &mut Vec<u8>);
    /// Decode from exactly `WIDTH` bytes.
    fn get(b: &[u8]) -> Self;
    /// Decode every `WIDTH`-byte word of `b` onto the end of `out`
    /// (`b.len()` must be a multiple of `WIDTH`).
    fn get_slice(b: &[u8], out: &mut Vec<Self>);
}

macro_rules! impl_prim {
    ($($t:ty => $tag:expr),* $(,)?) => {$(
        impl Prim for $t {
            const WIDTH: usize = std::mem::size_of::<$t>();
            const NAME: &'static str = stringify!($t);
            const TAG: u8 = $tag;
            fn put(self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            fn put_slice(s: &[Self], out: &mut Vec<u8>) {
                let start = out.len();
                out.resize(start + std::mem::size_of_val(s), 0);
                let (words, _) = out[start..].as_chunks_mut::<{ Self::WIDTH }>();
                for (word, v) in words.iter_mut().zip(s) {
                    *word = v.to_le_bytes();
                }
            }
            fn get(b: &[u8]) -> Self {
                <$t>::from_le_bytes(b.try_into().expect("exact width"))
            }
            fn get_slice(b: &[u8], out: &mut Vec<Self>) {
                let (words, rest) = b.as_chunks::<{ Self::WIDTH }>();
                debug_assert!(rest.is_empty(), "whole words only");
                out.extend(words.iter().map(|w| <$t>::from_le_bytes(*w)));
            }
        }
    )*};
}

impl_prim! {
    u8 => 1, i8 => 2, u16 => 3, i16 => 4,
    u32 => 5, i32 => 6, u64 => 7, i64 => 8,
    f32 => 9, f64 => 10,
}

/// Name for a checked-mode tag byte (diagnostics).
pub(crate) fn tag_name(tag: u8) -> &'static str {
    match tag {
        1 => "u8",
        2 => "i8",
        3 => "u16",
        4 => "i16",
        5 => "u32",
        6 => "i32",
        7 => "u64",
        8 => "i64",
        9 => "f32",
        10 => "f64",
        _ => "unknown",
    }
}

/// Receives the decomposition of one element during insertion.
///
/// An `Inserter` appends the element's chunk to the insert's run buffer
/// owned by the output stream; field order here defines the byte order in
/// the file and must be mirrored exactly by the extraction function.
pub struct Inserter<'a> {
    buf: &'a mut Vec<u8>,
    checked: bool,
}

impl<'a> Inserter<'a> {
    pub(crate) fn new(buf: &'a mut Vec<u8>, checked: bool) -> Self {
        Inserter { buf, checked }
    }

    fn mark<T: Prim>(&mut self, count: usize) {
        if self.checked {
            self.buf.push(T::TAG);
            self.buf.extend_from_slice(&(count as u32).to_le_bytes());
        }
    }

    /// Insert a single primitive value.
    pub fn prim<T: Prim>(&mut self, v: T) {
        self.mark::<T>(1);
        v.put(self.buf);
    }

    /// Insert a slice of primitives with *no* length header — the length
    /// must be recoverable at extract time (e.g. from a previously
    /// inserted count field), exactly like the paper's
    /// `s << array(p.mass, p.numberOfParticles)`.
    pub fn slice<T: Prim>(&mut self, s: &[T]) {
        self.mark::<T>(s.len());
        T::put_slice(s, self.buf);
    }

    /// Insert a length-prefixed vector (u64 count, then elements) — the
    /// Rust-idiomatic self-describing variant.
    pub fn vec<T: Prim>(&mut self, v: &[T]) {
        self.prim(v.len() as u64);
        self.slice(v);
    }

    /// Insert raw bytes (no length header).
    pub fn bytes(&mut self, b: &[u8]) {
        self.mark::<u8>(b.len());
        self.buf.extend_from_slice(b);
    }

    /// Insert a nested `StreamData` value.
    pub fn nested<T: StreamData>(&mut self, v: &T) {
        v.insert(self);
    }

    /// Bytes appended so far (across all insertions into this element).
    pub fn bytes_written(&self) -> usize {
        self.buf.len()
    }
}

/// Supplies the decomposition of one element during extraction.
pub struct Extractor<'a> {
    r: Reader<'a>,
    element: usize,
    checked: bool,
}

impl<'a> Extractor<'a> {
    /// Extract element `element` from its unread bytes `buf`.
    pub(crate) fn new(buf: &'a [u8], element: usize, checked: bool) -> Self {
        Extractor {
            r: Reader::new(buf),
            element,
            checked,
        }
    }

    /// Bytes consumed so far (the stream persists progress).
    pub(crate) fn consumed(&self) -> usize {
        self.r.pos()
    }

    fn overrun(&self, wanted: usize) -> StreamError {
        StreamError::ExtractOverrun {
            element: self.element,
            wanted,
            available: self.r.remaining(),
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], StreamError> {
        self.r.take(n).map_err(|_| self.overrun(n))
    }

    fn check_mark<T: Prim>(&mut self, count: usize) -> Result<(), StreamError> {
        if !self.checked {
            return Ok(());
        }
        let [tag, w @ ..] = self.r.array::<5>().map_err(|_| self.overrun(5))?;
        let wrote = u32::from_le_bytes(w) as usize;
        if tag != T::TAG {
            return Err(StreamError::TypeMismatch {
                wrote: tag_name(tag),
                read: T::NAME,
            });
        }
        if wrote != count {
            return Err(StreamError::CountMismatch { wrote, read: count });
        }
        Ok(())
    }

    /// Extract a single primitive value.
    pub fn prim<T: Prim>(&mut self) -> Result<T, StreamError> {
        self.check_mark::<T>(1)?;
        Ok(T::get(self.take(T::WIDTH)?))
    }

    /// Extract `count` primitives into `out` (cleared first) — the mirror
    /// of [`Inserter::slice`].
    pub fn slice_into<T: Prim>(
        &mut self,
        out: &mut Vec<T>,
        count: usize,
    ) -> Result<(), StreamError> {
        self.check_mark::<T>(count)?;
        let raw = self.take(count.saturating_mul(T::WIDTH))?;
        out.clear();
        T::get_slice(raw, out);
        Ok(())
    }

    /// Extract a length-prefixed vector — the mirror of [`Inserter::vec`].
    pub fn vec<T: Prim>(&mut self) -> Result<Vec<T>, StreamError> {
        let n = self.prim::<u64>()? as usize;
        // Sanity bound: a corrupt length cannot exceed the element's data
        // (checked before any allocation; saturating to survive absurd n).
        let wanted = n.saturating_mul(T::WIDTH);
        if wanted > self.r.remaining() + 5 {
            return Err(self.overrun(wanted));
        }
        let mut out = Vec::new();
        self.slice_into(&mut out, n)?;
        Ok(out)
    }

    /// Extract `len` raw bytes — the mirror of [`Inserter::bytes`].
    pub fn bytes(&mut self, len: usize) -> Result<Vec<u8>, StreamError> {
        self.check_mark::<u8>(len)?;
        Ok(self.take(len)?.to_vec())
    }

    /// Extract a nested `StreamData` value into `v`.
    pub fn nested<T: StreamData>(&mut self, v: &mut T) -> Result<(), StreamError> {
        v.extract(self)
    }

    /// Bytes remaining in this element's data.
    pub fn remaining(&self) -> usize {
        self.r.remaining()
    }
}

/// A type that can be inserted into and extracted from a d/stream.
///
/// `extract` must consume exactly the bytes `insert` produced, in the same
/// order — the file stores per-element sizes, not field boundaries
/// (enable checked mode on the stream while debugging a new impl).
pub trait StreamData {
    /// Decompose `self` into primitive insertions.
    fn insert(&self, ins: &mut Inserter<'_>);
    /// Rebuild `self` from primitive extractions, mirroring `insert`.
    fn extract(&mut self, ext: &mut Extractor<'_>) -> Result<(), StreamError>;
    /// Bytes `insert` appends in unchecked mode, as a capacity hint: it
    /// never changes what is written, and 0 (the default) means unknown.
    /// [`impl_stream_data!`](crate::impl_stream_data) and stream-gen
    /// derive it exactly.
    fn encoded_len(&self) -> usize {
        0
    }
}

/// Serialize one value with the d/stream element encoding, outside any
/// stream (unit tests, manual buffering baselines, local files).
pub fn to_bytes<T: StreamData>(v: &T, checked: bool) -> Vec<u8> {
    let mut buf = Vec::new();
    v.insert(&mut Inserter::new(&mut buf, checked));
    buf
}

/// Inverse of [`to_bytes`]: rebuild `v` from `bytes`, requiring full
/// consumption (leftover bytes indicate an insert/extract mismatch).
pub fn from_bytes<T: StreamData>(
    v: &mut T,
    bytes: &[u8],
    checked: bool,
) -> Result<(), StreamError> {
    let mut ext = Extractor::new(bytes, 0, checked);
    v.extract(&mut ext)?;
    if ext.remaining() != 0 {
        return Err(StreamError::CorruptRecord(format!(
            "{} bytes left after extraction",
            ext.remaining()
        )));
    }
    Ok(())
}

macro_rules! impl_stream_data_prim {
    ($($t:ty),*) => {$(
        impl StreamData for $t {
            fn insert(&self, ins: &mut Inserter<'_>) {
                ins.prim(*self);
            }
            fn extract(&mut self, ext: &mut Extractor<'_>) -> Result<(), StreamError> {
                *self = ext.prim()?;
                Ok(())
            }
            fn encoded_len(&self) -> usize {
                <$t as Prim>::WIDTH
            }
        }
    )*};
}

impl_stream_data_prim!(u8, i8, u16, i16, u32, i32, u64, i64, f32, f64);

/// Unchecked bytes of [`Inserter::vec`]: the u64 count, then the values.
fn vec_len<T: Prim>(v: &[T]) -> usize {
    8 + v.len() * T::WIDTH
}

impl<T: Prim> StreamData for Vec<T> {
    fn insert(&self, ins: &mut Inserter<'_>) {
        ins.vec(self);
    }
    fn extract(&mut self, ext: &mut Extractor<'_>) -> Result<(), StreamError> {
        *self = ext.vec()?;
        Ok(())
    }
    fn encoded_len(&self) -> usize {
        vec_len(self)
    }
}

impl<T: Prim> StreamData for dstreams_collections::GridRow<T> {
    fn insert(&self, ins: &mut Inserter<'_>) {
        ins.vec(&self.cells);
    }
    fn extract(&mut self, ext: &mut Extractor<'_>) -> Result<(), StreamError> {
        self.cells = ext.vec()?;
        Ok(())
    }
    fn encoded_len(&self) -> usize {
        vec_len(&self.cells)
    }
}

impl<T: StreamData, const N: usize> StreamData for [T; N] {
    fn insert(&self, ins: &mut Inserter<'_>) {
        for v in self {
            v.insert(ins);
        }
    }
    fn extract(&mut self, ext: &mut Extractor<'_>) -> Result<(), StreamError> {
        for v in self {
            v.extract(ext)?;
        }
        Ok(())
    }
    fn encoded_len(&self) -> usize {
        self.iter().map(T::encoded_len).sum()
    }
}

/// Derive a [`StreamData`] impl for a struct from a field recipe.
///
/// Field kinds:
/// * `prim name` — a primitive field;
/// * `slice name: T [len_field]` — a `Vec<T>` whose length equals another
///   (already listed) primitive field, stored *without* a length prefix
///   (paper-style `array(ptr, count)`);
/// * `vec name` — a `Vec<Prim>` stored with a length prefix;
/// * `nested name` — a field that itself implements `StreamData`.
///
/// The derived [`StreamData::encoded_len`] sums the fields' encoded
/// lengths, so it is exact whenever every nested type's is.
///
/// ```
/// use dstreams_core::{impl_stream_data, StreamData};
///
/// #[derive(Default, Clone, PartialEq, Debug)]
/// struct ParticleList {
///     number_of_particles: i64,
///     mass: Vec<f64>,
///     tags: Vec<u32>,
/// }
///
/// impl_stream_data!(ParticleList {
///     prim number_of_particles,
///     slice mass: f64 [number_of_particles],
///     vec tags,
/// });
/// ```
#[macro_export]
macro_rules! impl_stream_data {
    ($ty:ty { $($body:tt)* }) => {
        impl $crate::StreamData for $ty {
            fn insert(&self, ins: &mut $crate::Inserter<'_>) {
                $crate::impl_stream_data!(@insert self, ins, $($body)*);
            }
            fn extract(
                &mut self,
                ext: &mut $crate::Extractor<'_>,
            ) -> Result<(), $crate::StreamError> {
                $crate::impl_stream_data!(@extract self, ext, $($body)*);
                Ok(())
            }
            fn encoded_len(&self) -> usize {
                $crate::impl_stream_data!(@len self, $($body)*)
            }
        }
    };

    // ---- insert arms ----
    (@insert $self:ident, $ins:ident, prim $f:ident, $($rest:tt)*) => {
        $ins.prim($self.$f);
        $crate::impl_stream_data!(@insert $self, $ins, $($rest)*);
    };
    (@insert $self:ident, $ins:ident, slice $f:ident : $t:ty [$len:ident], $($rest:tt)*) => {
        debug_assert_eq!($self.$f.len(), $self.$len as usize,
            concat!("slice field ", stringify!($f), " length must equal ", stringify!($len)));
        $ins.slice::<$t>(&$self.$f);
        $crate::impl_stream_data!(@insert $self, $ins, $($rest)*);
    };
    (@insert $self:ident, $ins:ident, vec $f:ident, $($rest:tt)*) => {
        $ins.vec(&$self.$f);
        $crate::impl_stream_data!(@insert $self, $ins, $($rest)*);
    };
    (@insert $self:ident, $ins:ident, nested $f:ident, $($rest:tt)*) => {
        $ins.nested(&$self.$f);
        $crate::impl_stream_data!(@insert $self, $ins, $($rest)*);
    };
    (@insert $self:ident, $ins:ident,) => {};

    // ---- extract arms ----
    (@extract $self:ident, $ext:ident, prim $f:ident, $($rest:tt)*) => {
        $self.$f = $ext.prim()?;
        $crate::impl_stream_data!(@extract $self, $ext, $($rest)*);
    };
    (@extract $self:ident, $ext:ident, slice $f:ident : $t:ty [$len:ident], $($rest:tt)*) => {
        let count = $self.$len as usize;
        $ext.slice_into::<$t>(&mut $self.$f, count)?;
        $crate::impl_stream_data!(@extract $self, $ext, $($rest)*);
    };
    (@extract $self:ident, $ext:ident, vec $f:ident, $($rest:tt)*) => {
        $self.$f = $ext.vec()?;
        $crate::impl_stream_data!(@extract $self, $ext, $($rest)*);
    };
    (@extract $self:ident, $ext:ident, nested $f:ident, $($rest:tt)*) => {
        $ext.nested(&mut $self.$f)?;
        $crate::impl_stream_data!(@extract $self, $ext, $($rest)*);
    };
    (@extract $self:ident, $ext:ident,) => {};

    // ---- encoded_len arms ----
    (@len $self:ident, slice $f:ident : $t:ty [$len:ident], $($rest:tt)*) => {
        $self.$f.len() * <$t as $crate::Prim>::WIDTH
            + $crate::impl_stream_data!(@len $self, $($rest)*)
    };
    // `prim`, `vec` and `nested` fields are `StreamData` themselves.
    (@len $self:ident, $kind:ident $f:ident, $($rest:tt)*) => {
        $crate::StreamData::encoded_len(&$self.$f)
            + $crate::impl_stream_data!(@len $self, $($rest)*)
    };
    (@len $self:ident,) => {
        0
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: StreamData + Default + PartialEq + std::fmt::Debug>(v: &T, checked: bool) {
        let mut buf = Vec::new();
        v.insert(&mut Inserter::new(&mut buf, checked));
        let mut out = T::default();
        let mut ext = Extractor::new(&buf, 0, checked);
        out.extract(&mut ext).unwrap();
        assert_eq!(&out, v);
        assert_eq!(ext.remaining(), 0, "extract must consume everything");
    }

    #[test]
    fn primitives_roundtrip_in_both_modes() {
        for checked in [false, true] {
            roundtrip(&42i32, checked);
            roundtrip(&-7i64, checked);
            roundtrip(&3.5f64, checked);
            roundtrip(&255u8, checked);
            roundtrip(&vec![1.0f32, 2.0, 3.0], checked);
            roundtrip(&[1u16, 2, 3], checked);
        }
    }

    #[test]
    fn unchecked_layout_is_raw_little_endian() {
        let mut buf = Vec::new();
        let mut ins = Inserter::new(&mut buf, false);
        ins.prim(0x0102_0304u32);
        ins.slice(&[1.0f64]);
        assert_eq!(buf.len(), 4 + 8, "no hidden headers in unchecked mode");
        assert_eq!(&buf[..4], &[4, 3, 2, 1]);
    }

    #[test]
    fn checked_mode_adds_tags_and_catches_type_errors() {
        let mut buf = Vec::new();
        Inserter::new(&mut buf, true).prim(1.5f64);
        // Extracting as i64 must be caught.
        let err = Extractor::new(&buf, 0, true).prim::<i64>().unwrap_err();
        assert!(matches!(
            err,
            StreamError::TypeMismatch {
                wrote: "f64",
                read: "i64"
            }
        ));
    }

    #[test]
    fn checked_mode_catches_count_errors() {
        let mut buf = Vec::new();
        Inserter::new(&mut buf, true).slice(&[1u32, 2, 3]);
        let mut out = Vec::new();
        let err = Extractor::new(&buf, 0, true)
            .slice_into::<u32>(&mut out, 2)
            .unwrap_err();
        assert!(matches!(
            err,
            StreamError::CountMismatch { wrote: 3, read: 2 }
        ));
    }

    #[test]
    fn overrun_is_reported_with_element_context() {
        let mut buf = Vec::new();
        Inserter::new(&mut buf, false).prim(7u8);
        let err = Extractor::new(&buf, 42, false).prim::<u64>().unwrap_err();
        assert!(matches!(
            err,
            StreamError::ExtractOverrun {
                element: 42,
                wanted: 8,
                available: 1
            }
        ));
    }

    /// `slice` as it was before it moved whole slices: tag and count in
    /// checked mode, then one `put` per value.
    fn slice_per_value<T: Prim>(s: &[T], checked: bool) -> Vec<u8> {
        let mut out = Vec::new();
        if checked {
            out.push(T::TAG);
            out.extend_from_slice(&(s.len() as u32).to_le_bytes());
        }
        for &v in s {
            v.put(&mut out);
        }
        out
    }

    fn check_slice_kernels<T: Prim + PartialEq + std::fmt::Debug>(values: &[T]) {
        for checked in [false, true] {
            for n in [0, 1, 2, 7, values.len()] {
                let s = &values[..n];
                let ctx = format!("{} x{n} checked={checked}", T::NAME);
                // A byte already in the buffer must stay untouched.
                let mut buf = vec![0xEE];
                Inserter::new(&mut buf, checked).slice(s);
                let mut want = vec![0xEE];
                want.extend(slice_per_value(s, checked));
                assert_eq!(buf, want, "{ctx}: bulk slice != per-value put");

                let mut out = vec![values[1]];
                let mut ext = Extractor::new(&buf[1..], 0, checked);
                ext.slice_into(&mut out, n).unwrap();
                assert_eq!(out, s, "{ctx}: slice_into round trip");
                assert_eq!(ext.remaining(), 0, "{ctx}");

                // Cut inside the data, and inside the checked header.
                let cuts = [buf.len() - 1, 3];
                for cut in cuts.into_iter().filter(|&c| c > 1 && c < buf.len()) {
                    let err = Extractor::new(&buf[1..cut], 5, checked)
                        .slice_into(&mut out, n)
                        .unwrap_err();
                    assert!(
                        matches!(err, StreamError::ExtractOverrun { element: 5, .. }),
                        "{ctx} cut at {cut}: {err:?}"
                    );
                }
            }
            // An absurd count overruns instead of overflowing the length.
            let mut out = Vec::new();
            let err = Extractor::new(&[0u8; 8], 0, false)
                .slice_into::<T>(&mut out, usize::MAX)
                .unwrap_err();
            assert!(matches!(err, StreamError::ExtractOverrun { .. }));
        }
    }

    #[test]
    fn bulk_slice_kernels_match_per_value_encoding_for_every_prim() {
        let ints = || (0..20i64).map(|i| i * 0x0123_4567 - 0x89);
        check_slice_kernels(&ints().map(|i| i as u8).collect::<Vec<_>>());
        check_slice_kernels(&ints().map(|i| i as i8).collect::<Vec<_>>());
        check_slice_kernels(&ints().map(|i| i as u16).collect::<Vec<_>>());
        check_slice_kernels(&ints().map(|i| i as i16).collect::<Vec<_>>());
        check_slice_kernels(&ints().map(|i| i as u32).collect::<Vec<_>>());
        check_slice_kernels(&ints().map(|i| i as i32).collect::<Vec<_>>());
        check_slice_kernels(&ints().map(|i| (i as u64) << 20).collect::<Vec<_>>());
        check_slice_kernels(&ints().map(|i| -i << 30).collect::<Vec<_>>());
        check_slice_kernels(&ints().map(|i| i as f32 / 3.0).collect::<Vec<_>>());
        check_slice_kernels(&ints().map(|i| i as f64 / -7.0).collect::<Vec<_>>());
    }

    #[test]
    fn corrupt_vec_length_is_rejected_not_allocated() {
        let mut buf = Vec::new();
        Inserter::new(&mut buf, false).prim(u64::MAX); // absurd length
        let err = Extractor::new(&buf, 0, false).vec::<f64>().unwrap_err();
        assert!(matches!(err, StreamError::ExtractOverrun { .. }));
    }

    #[derive(Default, Clone, PartialEq, Debug)]
    struct Particles {
        n: i64,
        mass: Vec<f64>,
        label: Vec<u8>,
    }
    impl_stream_data!(Particles {
        prim n,
        slice mass: f64 [n],
        vec label,
    });

    #[test]
    fn macro_derived_struct_roundtrips() {
        let p = Particles {
            n: 3,
            mass: vec![1.0, 2.0, 3.0],
            label: b"halo".to_vec(),
        };
        for checked in [false, true] {
            roundtrip(&p, checked);
        }
    }

    #[derive(Default, Clone, PartialEq, Debug)]
    struct Nested {
        id: u32,
        inner: Particles,
    }
    impl_stream_data!(Nested {
        prim id,
        nested inner,
    });

    #[test]
    fn nested_structs_roundtrip() {
        let v = Nested {
            id: 9,
            inner: Particles {
                n: 2,
                mass: vec![0.5, 0.25],
                label: vec![],
            },
        };
        roundtrip(&v, false);
        roundtrip(&v, true);
    }

    /// Recursively structured data (paper: "recursively structured data
    /// types such as trees can be output naturally using recursive
    /// insertion functions").
    #[derive(Default, Clone, PartialEq, Debug)]
    struct Tree {
        value: f64,
        children: Vec<Tree>,
    }

    impl StreamData for Tree {
        fn insert(&self, ins: &mut Inserter<'_>) {
            ins.prim(self.value);
            ins.prim(self.children.len() as u64);
            for c in &self.children {
                c.insert(ins);
            }
        }
        fn extract(&mut self, ext: &mut Extractor<'_>) -> Result<(), StreamError> {
            self.value = ext.prim()?;
            let n = ext.prim::<u64>()? as usize;
            self.children.clear();
            for _ in 0..n {
                let mut child = Tree::default();
                child.extract(ext)?;
                self.children.push(child);
            }
            Ok(())
        }
    }

    #[test]
    fn recursive_tree_roundtrips() {
        let tree = Tree {
            value: 1.0,
            children: vec![
                Tree {
                    value: 2.0,
                    children: vec![Tree {
                        value: 4.0,
                        children: vec![],
                    }],
                },
                Tree {
                    value: 3.0,
                    children: vec![],
                },
            ],
        };
        roundtrip(&tree, false);
        roundtrip(&tree, true);
    }
}
