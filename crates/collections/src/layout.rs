//! A layout = distribution + alignment + element count: everything needed
//! to know which rank owns which element of a collection, and everything a
//! d/stream must record in its self-describing file header.

use std::collections::BTreeMap;

use dstreams_machine::wire::{ReadError, Reader};

use crate::alignment::Alignment;
use crate::distribution::{DistKind, Distribution};
use crate::error::CollectionError;

/// Complete placement description of a collection's elements.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Layout {
    n_elements: usize,
    dist: Distribution,
    align: Alignment,
}

impl Layout {
    /// Build a layout of `n_elements` over `dist` via `align`; checks the
    /// alignment stays inside the template.
    pub fn new(
        n_elements: usize,
        dist: Distribution,
        align: Alignment,
    ) -> Result<Self, CollectionError> {
        if let Some(max) = align.max_cell(n_elements)? {
            if max >= dist.len() {
                return Err(CollectionError::TemplateOverflow {
                    template_index: max,
                    template_len: dist.len(),
                });
            }
        }
        Ok(Layout {
            n_elements,
            dist,
            align,
        })
    }

    /// Identity-aligned layout where the template size equals the element
    /// count — the common case (the paper's Figure 3 example).
    pub fn dense(
        n_elements: usize,
        nprocs: usize,
        kind: DistKind,
    ) -> Result<Self, CollectionError> {
        Layout::new(
            n_elements,
            Distribution::new(n_elements, nprocs, kind)?,
            Alignment::identity(),
        )
    }

    /// Number of elements in the collection.
    pub fn len(&self) -> usize {
        self.n_elements
    }

    /// Whether the collection is empty.
    pub fn is_empty(&self) -> bool {
        self.n_elements == 0
    }

    /// Machine size the layout was built for.
    pub fn nprocs(&self) -> usize {
        self.dist.nprocs()
    }

    /// The underlying distribution.
    pub fn distribution(&self) -> &Distribution {
        &self.dist
    }

    /// The alignment onto the template.
    pub fn alignment(&self) -> Alignment {
        self.align
    }

    /// Owning rank of element `i`.
    pub fn owner(&self, i: usize) -> Result<usize, CollectionError> {
        self.check(i)?;
        self.dist.owner(self.align.template_cell(i))
    }

    /// Whether element `i` lives on `rank`.
    pub fn is_local(&self, i: usize, rank: usize) -> Result<bool, CollectionError> {
        Ok(self.owner(i)? == rank)
    }

    /// Global element indices owned by `rank`, in increasing order — this
    /// is also the order of the rank's local storage and of the rank's
    /// block in a d/stream file.
    ///
    /// O(min(template cells on `rank`, n)): the rank's cells are
    /// enumerated in closed form and mapped back through the alignment,
    /// unless the template holds more cells on `rank` than the collection
    /// has elements, in which case scanning the elements is cheaper.
    pub fn local_elements(&self, rank: usize) -> Vec<usize> {
        if self.align == Alignment::identity() {
            return self
                .local_runs(rank)
                .into_iter()
                .flat_map(|(i, len)| i..i + len)
                .collect();
        }
        if self.dist.local_count(rank) > self.n_elements {
            return (0..self.n_elements)
                .filter(|&i| self.owner(i).expect("i < len") == rank)
                .collect();
        }
        self.dist
            .local_cells(rank)
            .into_iter()
            .filter_map(|t| self.align.element_for_cell(t))
            .filter(|&i| i < self.n_elements)
            .collect()
    }

    /// [`Layout::local_elements`] as increasing `(first element, len)`
    /// runs of consecutive global ids. Under the identity alignment these
    /// are the distribution's cell runs below `n`, in O(runs); other
    /// alignments coalesce the element list.
    fn local_runs(&self, rank: usize) -> Vec<(usize, usize)> {
        let n = self.n_elements;
        if self.align == Alignment::identity() {
            return self.dist.local_runs(rank, n);
        }
        let mut runs: Vec<(usize, usize)> = Vec::new();
        for i in self.local_elements(rank) {
            match runs.last_mut() {
                Some((first, len)) if *first + *len == i => *len += 1,
                _ => runs.push((i, 1)),
            }
        }
        runs
    }

    /// Every element in d/stream file order as `(first element, len)`
    /// runs of consecutive global ids: the runs of writer rank 0's local
    /// elements, then rank 1's, and so on. One run per rank for BLOCK,
    /// runs of at most `k` for CYCLIC(k), the owned column runs of each
    /// owned row for a composed 2-D pattern, in O(runs) under the
    /// identity alignment.
    pub fn file_runs(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        // Writer ranks past the one holding the last element own nothing:
        // stop there, however many ranks the layout claims.
        let mut left = self.n_elements;
        (0..self.nprocs())
            .map_while(move |w| {
                (left > 0).then(|| {
                    let runs = self.local_runs(w);
                    left -= runs.iter().map(|&(_, len)| len).sum::<usize>();
                    runs
                })
            })
            .flatten()
    }

    /// Every element in d/stream file order: writer rank 0's local
    /// elements, then rank 1's, and so on. O(min(template length,
    /// nprocs · n)) in total — O(n) for a dense layout.
    pub fn file_order(&self) -> impl Iterator<Item = usize> + '_ {
        self.file_runs().flat_map(|(i, len)| i..i + len)
    }

    /// Number of elements owned by `rank`.
    pub fn local_count(&self, rank: usize) -> usize {
        if self.align == Alignment::identity() {
            // Every cell below `n` is an element: O(1).
            self.dist.cells_below(rank, self.n_elements)
        } else {
            self.local_elements(rank).len()
        }
    }

    /// Local slot (position within the owner's storage) of element `i`.
    pub fn local_slot(&self, i: usize) -> Result<usize, CollectionError> {
        Ok(self.place(i)?.1)
    }

    /// Placement of element `i`: `(owning rank, local slot)`. O(1) under
    /// the identity alignment, over a template of any length (element
    /// `i` is cell `i`, and the owner's cells below `i` are all
    /// elements). Other alignments cost one [`Layout::local_elements`]
    /// of the owner, because their local slots are not a closed-form
    /// function of the template; place many elements of such a layout
    /// with [`Layout::pieces`] instead.
    pub fn place(&self, i: usize) -> Result<(usize, usize), CollectionError> {
        self.check(i)?;
        if self.align == Alignment::identity() {
            return self.dist.place(i);
        }
        let owner = self.owner(i)?;
        let slot = self
            .local_elements(owner)
            .iter()
            .position(|&e| e == i)
            .expect("element is in its owner's list");
        Ok((owner, slot))
    }

    /// Placement queries for runs of elements: where a run lands
    /// ([`Pieces::piece`]), and a cursor over each rank's local elements
    /// ([`Pieces::local_run`], [`Pieces::count_below`]). Free under the
    /// identity alignment, where all three are closed-form; other
    /// alignments first coalesce the elements, in O(n log P), into a run
    /// table for each owning rank (a stored layout may claim any number
    /// of ranks; only the owning ones get a table).
    pub fn pieces(&self) -> Pieces<'_> {
        let runs = (self.align != Alignment::identity()).then(|| {
            let mut tables = BTreeMap::<usize, Vec<LocalRun>>::new();
            for i in 0..self.n_elements {
                let Ok(rank) = self.owner(i) else { continue };
                let runs = tables.entry(rank).or_default();
                match runs.last_mut() {
                    Some(run) if run.first + run.len == i => run.len += 1,
                    last => {
                        let slot = last.map_or(0, |r| r.slot + r.len);
                        runs.push(LocalRun {
                            first: i,
                            slot,
                            len: 1,
                        });
                    }
                }
            }
            tables
        });
        Pieces { layout: self, runs }
    }

    fn check(&self, i: usize) -> Result<(), CollectionError> {
        if i >= self.n_elements {
            return Err(CollectionError::IndexOutOfRange {
                index: i,
                len: self.n_elements,
            });
        }
        Ok(())
    }

    /// Plain-data descriptor for serialization in d/stream file headers.
    pub fn descriptor(&self) -> LayoutDescriptor {
        LayoutDescriptor {
            n_elements: self.n_elements as u64,
            template_len: self.dist.len() as u64,
            nprocs: self.dist.nprocs() as u32,
            dist_code: self.dist.kind().code(),
            dist_param: self.dist.kind().param(),
            align_stride: self.align.stride as u64,
            align_offset: self.align.offset as u64,
        }
    }

    /// Rebuild a layout from a descriptor (e.g. read from a file header).
    pub fn from_descriptor(d: &LayoutDescriptor) -> Result<Layout, CollectionError> {
        let kind = DistKind::from_code(d.dist_code, d.dist_param).ok_or_else(|| {
            CollectionError::BadDistribution(format!(
                "unknown distribution code {} / param {}",
                d.dist_code, d.dist_param
            ))
        })?;
        let dist = Distribution::new(d.template_len as usize, d.nprocs as usize, kind)?;
        let align = Alignment::affine(d.align_stride as usize, d.align_offset as usize)?;
        Layout::new(d.n_elements as usize, dist, align)
    }

    /// The same placement re-expressed for a machine of `nprocs` ranks —
    /// used when a file written on P processors is read on Q (paper §4.1:
    /// "regardless of differences in the number of processors and
    /// distribution of the reading and writing arrays").
    pub fn with_nprocs(&self, nprocs: usize) -> Result<Layout, CollectionError> {
        Layout::new(
            self.n_elements,
            Distribution::new(self.dist.len(), nprocs, self.dist.kind())?,
            self.align,
        )
    }
}

/// Placement of element runs and per-rank element cursors, from
/// [`Layout::pieces`].
#[derive(Debug, Clone)]
pub struct Pieces<'a> {
    layout: &'a Layout,
    /// Each rank's local elements as increasing runs of consecutive ids,
    /// for non-identity alignments only.
    runs: Option<BTreeMap<usize, Vec<LocalRun>>>,
}

/// Local elements `first..first + len` of one rank, at slots `slot..`.
#[derive(Debug, Clone, Copy)]
struct LocalRun {
    first: usize,
    slot: usize,
    len: usize,
}

impl Pieces<'_> {
    /// The longest prefix of elements `i, i + 1, …, i + len - 1` that one
    /// rank owns at consecutive local slots: `(owner, slot of i, prefix
    /// length)`, the length at least 1 when `len` is. In closed form
    /// under the identity alignment ([`Distribution::piece`]); otherwise
    /// one binary search of the owner's run table.
    pub fn piece(&self, i: usize, len: usize) -> Result<(usize, usize, usize), CollectionError> {
        let n = self.layout.n_elements;
        self.layout.check(i)?;
        if len > n - i {
            return Err(CollectionError::IndexOutOfRange {
                index: i + len - 1,
                len: n,
            });
        }
        let Some(runs) = &self.runs else {
            return self.layout.dist.piece(i, len);
        };
        let owner = self.layout.owner(i)?;
        let runs = &runs[&owner];
        let run = runs[runs.partition_point(|r| r.first <= i) - 1];
        Ok((
            owner,
            run.slot + (i - run.first),
            len.min(run.first + run.len - i),
        ))
    }

    /// `rank`'s local elements from slot `k` on, as far as their ids are
    /// consecutive and at most `max` of them (`k + max <= count_below(rank,
    /// len())`): `(first id, run length)`, the length at least 1 when
    /// `max` is. In closed form under the identity alignment (the
    /// distribution's k-th local cell and run length); otherwise one
    /// binary search of the rank's run table.
    pub fn local_run(
        &self,
        rank: usize,
        k: usize,
        max: usize,
    ) -> Result<(usize, usize), CollectionError> {
        let Some(runs) = &self.runs else {
            return self.layout.dist.local_run(rank, k, max);
        };
        let runs = &runs[&rank];
        let run = runs[runs.partition_point(|r| r.slot <= k) - 1];
        let skip = k - run.slot;
        Ok((run.first + skip, (run.len - skip).min(max)))
    }

    /// How many of `rank`'s local elements have an id below `i` (`i <=
    /// len()`); with `i = len()`, the rank's element count. O(1) under
    /// the identity alignment, one binary search otherwise.
    pub fn count_below(&self, rank: usize, i: usize) -> usize {
        let Some(runs) = &self.runs else {
            // Under the identity alignment every cell below `i <= n` is
            // an element.
            return self.layout.dist.cells_below(rank, i);
        };
        let Some(runs) = runs.get(&rank) else {
            return 0;
        };
        match runs.partition_point(|r| r.first < i) {
            0 => 0,
            r => {
                let run = runs[r - 1];
                run.slot + run.len.min(i - run.first)
            }
        }
    }
}

/// Fixed-width, plain-data image of a [`Layout`] for file headers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LayoutDescriptor {
    /// Element count.
    pub n_elements: u64,
    /// Template length.
    pub template_len: u64,
    /// Machine size at write time.
    pub nprocs: u32,
    /// Distribution pattern code.
    pub dist_code: u32,
    /// Distribution parameter (block size for BLOCK-CYCLIC).
    pub dist_param: u64,
    /// Alignment stride.
    pub align_stride: u64,
    /// Alignment offset.
    pub align_offset: u64,
}

impl LayoutDescriptor {
    /// Serialized size in bytes.
    pub const WIRE_LEN: usize = 8 + 8 + 4 + 4 + 8 + 8 + 8;

    /// Encode as little-endian bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut v = Vec::with_capacity(Self::WIRE_LEN);
        v.extend_from_slice(&self.n_elements.to_le_bytes());
        v.extend_from_slice(&self.template_len.to_le_bytes());
        v.extend_from_slice(&self.nprocs.to_le_bytes());
        v.extend_from_slice(&self.dist_code.to_le_bytes());
        v.extend_from_slice(&self.dist_param.to_le_bytes());
        v.extend_from_slice(&self.align_stride.to_le_bytes());
        v.extend_from_slice(&self.align_offset.to_le_bytes());
        v
    }

    /// Decode from bytes produced by [`LayoutDescriptor::encode`].
    pub fn decode(b: &[u8]) -> Result<LayoutDescriptor, ReadError> {
        Reader::parse(b, Self::read)
    }

    /// Read an encoded descriptor at `r`'s cursor.
    pub fn read(r: &mut Reader<'_>) -> Result<LayoutDescriptor, ReadError> {
        Ok(LayoutDescriptor {
            n_elements: r.u64()?,
            template_len: r.u64()?,
            nprocs: r.u32()?,
            dist_code: r.u32()?,
            dist_param: r.u64()?,
            align_stride: r.u64()?,
            align_offset: r.u64()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_layout_partitions_all_elements() {
        for kind in [DistKind::Block, DistKind::Cyclic, DistKind::BlockCyclic(3)] {
            let l = Layout::dense(13, 4, kind).unwrap();
            let mut seen = [false; 13];
            for r in 0..4 {
                for e in l.local_elements(r) {
                    assert!(!seen[e], "element {e} owned twice");
                    seen[e] = true;
                    assert_eq!(l.owner(e).unwrap(), r);
                }
                assert_eq!(l.local_count(r), l.local_elements(r).len());
            }
            assert!(seen.iter().all(|&s| s));
        }
    }

    #[test]
    fn aligned_layout_respects_the_affine_map() {
        // 5 elements at template cells 1, 3, 5, 7, 9 of a 10-cell CYCLIC
        // template over 2 procs: all odd cells live on rank 1.
        let dist = Distribution::new(10, 2, DistKind::Cyclic).unwrap();
        let align = Alignment::affine(2, 1).unwrap();
        let l = Layout::new(5, dist, align).unwrap();
        assert_eq!(l.local_count(0), 0);
        assert_eq!(l.local_count(1), 5);
        assert_eq!(l.local_elements(1), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn alignment_overflow_is_rejected() {
        let dist = Distribution::new(10, 2, DistKind::Block).unwrap();
        let align = Alignment::affine(3, 0).unwrap();
        // Element 4 maps to cell 12 > 9.
        assert!(matches!(
            Layout::new(5, dist, align),
            Err(CollectionError::TemplateOverflow { .. })
        ));
    }

    #[test]
    fn local_slot_matches_position_in_local_elements() {
        let l = Layout::dense(11, 3, DistKind::Cyclic).unwrap();
        for r in 0..3 {
            for (slot, e) in l.local_elements(r).into_iter().enumerate() {
                assert_eq!(l.local_slot(e).unwrap(), slot);
            }
        }
    }

    #[test]
    fn descriptor_roundtrips() {
        let dist = Distribution::new(20, 4, DistKind::BlockCyclic(3)).unwrap();
        let align = Alignment::affine(2, 1).unwrap();
        let l = Layout::new(9, dist, align).unwrap();
        let d = l.descriptor();
        let bytes = d.encode();
        assert_eq!(bytes.len(), LayoutDescriptor::WIRE_LEN);
        let d2 = LayoutDescriptor::decode(&bytes).unwrap();
        assert_eq!(d, d2);
        let l2 = Layout::from_descriptor(&d2).unwrap();
        assert_eq!(l, l2);
    }

    #[test]
    fn decode_rejects_wrong_length() {
        assert!(LayoutDescriptor::decode(&[0u8; 10]).is_err());
    }

    #[test]
    fn with_nprocs_redistributes_the_same_elements() {
        let l = Layout::dense(16, 4, DistKind::Block).unwrap();
        let l2 = l.with_nprocs(2).unwrap();
        assert_eq!(l2.len(), 16);
        assert_eq!(l2.local_count(0), 8);
        assert_eq!(l2.local_count(1), 8);
    }

    #[test]
    fn out_of_range_element_is_rejected() {
        let l = Layout::dense(4, 2, DistKind::Block).unwrap();
        assert!(l.owner(4).is_err());
        assert!(l.local_slot(9).is_err());
    }
}
