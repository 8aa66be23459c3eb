//! Collections: distributed arrays of objects, the pC++ data structure on
//! which d/streams operate.
//!
//! A `Collection<T>` is SPMD state: every rank holds the elements its
//! layout assigns to it, in increasing global-index order. "Object
//! parallelism" — the concurrent application of a function to every
//! element — is expressed with [`Collection::apply`]; the ranks genuinely
//! run in parallel because the machine runs one thread per rank.

use dstreams_machine::wire::{frame_blocks, unframe_id_blocks, ReadError, Reader};
use dstreams_machine::{NodeCtx, Wire};

use crate::error::CollectionError;
use crate::layout::Layout;

/// A distributed array of objects of type `T` (one rank's view).
#[derive(Debug)]
pub struct Collection<T> {
    layout: Layout,
    rank: usize,
    /// Global indices of local elements, in increasing order.
    global_ids: Vec<usize>,
    /// Local elements, parallel to `global_ids`.
    local: Vec<T>,
}

impl<T> Collection<T> {
    /// Build this rank's part of a collection, initializing each local
    /// element from its global index.
    pub fn new(
        ctx: &NodeCtx,
        layout: Layout,
        mut init: impl FnMut(usize) -> T,
    ) -> Result<Self, CollectionError> {
        if layout.nprocs() != ctx.nprocs() {
            return Err(CollectionError::BadDistribution(format!(
                "layout built for {} procs, machine has {}",
                layout.nprocs(),
                ctx.nprocs()
            )));
        }
        let global_ids = layout.local_elements(ctx.rank());
        let local = global_ids.iter().map(|&g| init(g)).collect();
        Ok(Collection {
            layout,
            rank: ctx.rank(),
            global_ids,
            local,
        })
    }

    /// The collection's layout.
    pub fn layout(&self) -> &Layout {
        &self.layout
    }

    /// Total number of elements across all ranks.
    pub fn len(&self) -> usize {
        self.layout.len()
    }

    /// Whether the collection has no elements at all.
    pub fn is_empty(&self) -> bool {
        self.layout.is_empty()
    }

    /// Number of elements on this rank.
    pub fn local_len(&self) -> usize {
        self.local.len()
    }

    /// Global indices of this rank's elements, in storage order.
    pub fn global_ids(&self) -> &[usize] {
        &self.global_ids
    }

    /// Immutable view of the local elements, in storage order.
    pub fn local(&self) -> &[T] {
        &self.local
    }

    /// Mutable view of the local elements, in storage order.
    pub fn local_mut(&mut self) -> &mut [T] {
        &mut self.local
    }

    /// Iterate `(global_index, &element)` over local elements.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &T)> {
        self.global_ids.iter().copied().zip(self.local.iter())
    }

    /// Iterate `(global_index, &mut element)` over local elements.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (usize, &mut T)> {
        self.global_ids.iter().copied().zip(self.local.iter_mut())
    }

    /// Reference to the element with global index `i`, if local.
    pub fn get(&self, i: usize) -> Result<&T, CollectionError> {
        let slot = self.slot_of(i)?;
        Ok(&self.local[slot])
    }

    /// Mutable reference to the element with global index `i`, if local.
    pub fn get_mut(&mut self, i: usize) -> Result<&mut T, CollectionError> {
        let slot = self.slot_of(i)?;
        Ok(&mut self.local[slot])
    }

    fn slot_of(&self, i: usize) -> Result<usize, CollectionError> {
        if i >= self.layout.len() {
            return Err(CollectionError::IndexOutOfRange {
                index: i,
                len: self.layout.len(),
            });
        }
        self.global_ids
            .binary_search(&i)
            .map_err(|_| CollectionError::NotLocal {
                index: i,
                owner: self.layout.owner(i).expect("checked above"),
                rank: self.rank,
            })
    }

    /// Object-parallel application: run `f` on every local element. With
    /// all ranks calling this, every element of the distributed array is
    /// visited exactly once, concurrently across ranks — pC++'s
    /// `collection.memberFunction()` idiom.
    pub fn apply(&mut self, mut f: impl FnMut(&mut T)) {
        for e in &mut self.local {
            f(e);
        }
    }

    /// Like [`Collection::apply`], with the global index supplied.
    pub fn apply_indexed(&mut self, mut f: impl FnMut(usize, &mut T)) {
        for (g, e) in self.global_ids.iter().copied().zip(self.local.iter_mut()) {
            f(g, e);
        }
    }

    /// Reduce a per-element projection across the entire distributed
    /// collection; the result is delivered to every rank.
    pub fn reduce<U, P, O>(
        &self,
        ctx: &NodeCtx,
        identity: U,
        project: P,
        op: O,
    ) -> Result<U, CollectionError>
    where
        U: Wire + Clone,
        P: Fn(&T) -> U,
        O: Fn(U, U) -> U + Copy,
    {
        let local = self.local.iter().map(&project).fold(identity, &op);
        Ok(ctx.all_reduce(local, op)?)
    }

    /// Collective remote element access — pC++'s global element name
    /// space: every rank asks for a set of element indices (local or
    /// remote) and receives their serialized images. Owners serve
    /// requests through one all-to-all exchange; every rank must call
    /// this, even with an empty request list.
    ///
    /// Out-of-range indices error *before* any communication; to keep the
    /// ranks' collectives aligned, validate indices beforehand (or accept
    /// that an error on one rank aborts the whole SPMD phase).
    ///
    /// Returns the requested elements' bytes in request order.
    pub fn fetch_all(
        &self,
        ctx: &NodeCtx,
        requests: &[usize],
        serialize: impl Fn(&T) -> Vec<u8>,
    ) -> Result<Vec<Vec<u8>>, CollectionError> {
        // Phase 1: route requests to owners.
        let mut want: Vec<Vec<Vec<u8>>> = vec![Vec::new(); ctx.nprocs()];
        for &gid in requests {
            let owner = self.layout.owner(gid)?;
            want[owner].push((gid as u64).to_le_bytes().to_vec());
        }
        let framed: Vec<Vec<u8>> = want.iter().map(|w| frame_blocks(w)).collect();
        let incoming = ctx.all_to_all(framed)?;

        // Phase 2: serve and route responses back.
        let mut replies: Vec<Vec<Vec<u8>>> = vec![Vec::new(); ctx.nprocs()];
        for (from, buf) in incoming.iter().enumerate() {
            let asks = Reader::parse(buf, |r| {
                (0..r.count(16)?)
                    .map(|_| Reader::parse(r.block()?, Reader::u64))
                    .collect::<Result<Vec<_>, _>>()
            })
            .map_err(malformed("fetch_all: request"))?;
            for gid in asks {
                let gid = gid as usize;
                let elem = self.get(gid)?;
                replies[from].push((gid as u64).to_le_bytes().to_vec());
                replies[from].push(serialize(elem));
            }
        }
        let framed: Vec<Vec<u8>> = replies.iter().map(|r| frame_blocks(r)).collect();
        let answers = ctx.all_to_all(framed)?;

        // Phase 3: match responses to this rank's request order.
        let mut by_gid: std::collections::HashMap<usize, Vec<u8>> =
            std::collections::HashMap::new();
        for buf in &answers {
            for (g, data) in unframe_id_blocks(buf).map_err(malformed("fetch_all: reply"))? {
                by_gid.insert(g as usize, data.to_vec());
            }
        }
        requests
            .iter()
            .map(|gid| {
                by_gid.get(gid).cloned().ok_or({
                    CollectionError::IndexOutOfRange {
                        index: *gid,
                        len: self.layout.len(),
                    }
                })
            })
            .collect()
    }

    /// Redistribute the collection in memory to a new layout (possibly a
    /// different distribution pattern; the machine size is fixed within a
    /// run). Elements are serialized, routed to their new owners in one
    /// all-to-all, and rebuilt — the in-memory analogue of writing with
    /// one layout and `read`ing with another. Collective.
    pub fn redistribute(
        self,
        ctx: &NodeCtx,
        new_layout: Layout,
        serialize: impl Fn(&T) -> Vec<u8>,
        deserialize: impl Fn(&[u8]) -> T,
    ) -> Result<Collection<T>, CollectionError> {
        if new_layout.nprocs() != ctx.nprocs() {
            return Err(CollectionError::BadDistribution(format!(
                "new layout built for {} procs, machine has {}",
                new_layout.nprocs(),
                ctx.nprocs()
            )));
        }
        if new_layout.len() != self.layout.len() {
            return Err(CollectionError::BadDistribution(format!(
                "cannot redistribute {} elements into a layout of {}",
                self.layout.len(),
                new_layout.len()
            )));
        }
        // Route each element to its new owner.
        let mut parts: Vec<Vec<Vec<u8>>> = vec![Vec::new(); ctx.nprocs()];
        for (gid, e) in self.iter() {
            let owner = new_layout.owner(gid)?;
            parts[owner].push((gid as u64).to_le_bytes().to_vec());
            parts[owner].push(serialize(e));
        }
        let framed: Vec<Vec<u8>> = parts.iter().map(|p| frame_blocks(p)).collect();
        ctx.charge_memcpy(framed.iter().map(|f| f.len()).sum());
        let received = ctx.all_to_all(framed)?;

        // Rebuild local storage in the new layout's slot order.
        let global_ids = new_layout.local_elements(ctx.rank());
        let mut slots: Vec<Option<T>> = (0..global_ids.len()).map(|_| None).collect();
        for buf in received {
            for (g, data) in unframe_id_blocks(&buf).map_err(malformed("redistribute"))? {
                let g = g as usize;
                let slot = global_ids
                    .binary_search(&g)
                    .map_err(|_| CollectionError::NotLocal {
                        index: g,
                        owner: new_layout.owner(g).unwrap_or(usize::MAX),
                        rank: ctx.rank(),
                    })?;
                slots[slot] = Some(deserialize(data));
            }
        }
        let local: Vec<T> = slots
            .into_iter()
            .enumerate()
            .map(|(slot, v)| {
                v.ok_or(CollectionError::IndexOutOfRange {
                    index: global_ids[slot],
                    len: new_layout.len(),
                })
            })
            .collect::<Result<_, _>>()?;
        Ok(Collection {
            layout: new_layout,
            rank: ctx.rank(),
            global_ids,
            local,
        })
    }

    /// Gather a serialized image of every element to rank 0, ordered by
    /// global index. Returns `Some` on rank 0 only. Intended for the
    /// debugging workflow the paper motivates: comparing a parallel run's
    /// data against a sequential reference.
    pub fn gather_to_root(
        &self,
        ctx: &NodeCtx,
        serialize: impl Fn(&T) -> Vec<u8>,
    ) -> Result<Option<Vec<Vec<u8>>>, CollectionError> {
        // Frame (global_id, bytes) pairs per rank, then reorder at root.
        let mut blocks = Vec::with_capacity(self.local.len() * 2);
        for (g, e) in self.iter() {
            blocks.push((g as u64).to_le_bytes().to_vec());
            blocks.push(serialize(e));
        }
        let framed = frame_blocks(&blocks);
        let gathered = ctx.gather(0, framed)?;
        match gathered {
            None => Ok(None),
            Some(per_rank) => {
                let mut out: Vec<Option<Vec<u8>>> = vec![None; self.layout.len()];
                for buf in per_rank {
                    for (g, data) in unframe_id_blocks(&buf).map_err(malformed("gather_to_root"))? {
                        let len = out.len();
                        *out.get_mut(g as usize)
                            .ok_or(CollectionError::IndexOutOfRange {
                                index: g as usize,
                                len,
                            })? = Some(data.to_vec());
                    }
                }
                out.into_iter()
                    .enumerate()
                    .map(|(g, v)| {
                        v.ok_or(CollectionError::IndexOutOfRange {
                            index: g,
                            len: self.layout.len(),
                        })
                    })
                    .collect::<Result<Vec<_>, _>>()
                    .map(Some)
            }
        }
    }
}

/// The error for a malformed `what` frame of a collection collective.
pub(crate) fn malformed(what: &'static str) -> impl Fn(ReadError) -> CollectionError {
    move |e| CollectionError::BadDistribution(format!("{what}: malformed frame: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distribution::DistKind;
    use dstreams_machine::{Machine, MachineConfig};

    fn layout(n: usize, np: usize, kind: DistKind) -> Layout {
        Layout::dense(n, np, kind).unwrap()
    }

    #[test]
    fn construction_covers_every_element_once() {
        let counts = Machine::run(MachineConfig::functional(3), |ctx| {
            let c = Collection::new(ctx, layout(10, 3, DistKind::Cyclic), |g| g * 2).unwrap();
            for (g, v) in c.iter() {
                assert_eq!(*v, g * 2);
            }
            c.local_len()
        })
        .unwrap();
        assert_eq!(counts.iter().sum::<usize>(), 10);
    }

    #[test]
    fn layout_machine_mismatch_is_rejected() {
        Machine::run(MachineConfig::functional(2), |ctx| {
            let err = Collection::new(ctx, layout(10, 3, DistKind::Block), |_| 0u8).unwrap_err();
            assert!(matches!(err, CollectionError::BadDistribution(_)));
        })
        .unwrap();
    }

    #[test]
    fn get_distinguishes_local_remote_and_out_of_range() {
        Machine::run(MachineConfig::functional(2), |ctx| {
            let c = Collection::new(ctx, layout(4, 2, DistKind::Block), |g| g).unwrap();
            if ctx.rank() == 0 {
                assert_eq!(*c.get(1).unwrap(), 1);
                assert!(matches!(
                    c.get(3),
                    Err(CollectionError::NotLocal {
                        index: 3,
                        owner: 1,
                        rank: 0
                    })
                ));
            }
            assert!(matches!(
                c.get(99),
                Err(CollectionError::IndexOutOfRange { .. })
            ));
        })
        .unwrap();
    }

    #[test]
    fn apply_visits_each_local_element() {
        Machine::run(MachineConfig::functional(4), |ctx| {
            let mut c = Collection::new(ctx, layout(13, 4, DistKind::Block), |g| g as i64).unwrap();
            c.apply(|v| *v += 100);
            c.apply_indexed(|g, v| assert_eq!(*v, g as i64 + 100));
        })
        .unwrap();
    }

    #[test]
    fn reduce_spans_the_whole_collection() {
        let sums = Machine::run(MachineConfig::functional(3), |ctx| {
            let c = Collection::new(ctx, layout(10, 3, DistKind::Cyclic), |g| g as u64).unwrap();
            c.reduce(ctx, 0u64, |&v| v, |a, b| a + b).unwrap()
        })
        .unwrap();
        assert_eq!(sums, vec![45, 45, 45]);
    }

    #[test]
    fn gather_to_root_orders_by_global_index() {
        let out = Machine::run(MachineConfig::functional(3), |ctx| {
            let c = Collection::new(ctx, layout(7, 3, DistKind::Cyclic), |g| g as u8 + 10).unwrap();
            c.gather_to_root(ctx, |v| vec![*v]).unwrap()
        })
        .unwrap();
        let root = out[0].as_ref().unwrap();
        assert_eq!(root.len(), 7);
        for (g, bytes) in root.iter().enumerate() {
            assert_eq!(bytes, &vec![g as u8 + 10]);
        }
        assert!(out[1].is_none() && out[2].is_none());
    }

    #[test]
    fn redistribute_moves_every_element_to_its_new_owner() {
        Machine::run(MachineConfig::functional(4), |ctx| {
            let c = Collection::new(ctx, layout(13, 4, DistKind::Block), |g| {
                vec![g as u8; g % 3 + 1]
            })
            .unwrap();
            let new = layout(13, 4, DistKind::Cyclic);
            let c2 = c
                .redistribute(ctx, new.clone(), |v| v.clone(), |b| b.to_vec())
                .unwrap();
            assert_eq!(c2.layout(), &new);
            for (gid, v) in c2.iter() {
                assert_eq!(v, &vec![gid as u8; gid % 3 + 1]);
            }
        })
        .unwrap();
    }

    #[test]
    fn redistribute_rejects_mismatched_shapes() {
        Machine::run(MachineConfig::functional(2), |ctx| {
            let c = Collection::new(ctx, layout(6, 2, DistKind::Block), |g| g as u64).unwrap();
            let err = c
                .redistribute(
                    ctx,
                    layout(7, 2, DistKind::Block),
                    |v| v.to_le_bytes().to_vec(),
                    |b| u64::from_le_bytes(b.try_into().unwrap()),
                )
                .unwrap_err();
            assert!(matches!(err, CollectionError::BadDistribution(_)));
        })
        .unwrap();
    }

    #[test]
    fn fetch_all_serves_local_and_remote_elements() {
        Machine::run(MachineConfig::functional(3), |ctx| {
            let c =
                Collection::new(ctx, layout(9, 3, DistKind::Cyclic), |g| g as u64 * 11).unwrap();
            // Every rank asks for a different mix, including duplicates.
            let requests: Vec<usize> = vec![0, 8, ctx.rank(), 8];
            let got = c
                .fetch_all(ctx, &requests, |v| v.to_le_bytes().to_vec())
                .unwrap();
            assert_eq!(got.len(), 4);
            for (ask, bytes) in requests.iter().zip(&got) {
                let v = u64::from_le_bytes(bytes.as_slice().try_into().unwrap());
                assert_eq!(v, *ask as u64 * 11);
            }
        })
        .unwrap();
    }

    #[test]
    fn fetch_all_with_empty_requests_is_collective_safe() {
        Machine::run(MachineConfig::functional(2), |ctx| {
            let c = Collection::new(ctx, layout(4, 2, DistKind::Block), |g| g as u8).unwrap();
            // Rank 0 asks for everything; rank 1 asks for nothing.
            let requests: Vec<usize> = if ctx.is_root() {
                vec![3, 2, 1, 0]
            } else {
                vec![]
            };
            let got = c.fetch_all(ctx, &requests, |v| vec![*v]).unwrap();
            if ctx.is_root() {
                assert_eq!(got, vec![vec![3], vec![2], vec![1], vec![0]]);
            } else {
                assert!(got.is_empty());
            }
        })
        .unwrap();
    }

    #[test]
    fn fetch_all_rejects_out_of_range_requests() {
        Machine::run(MachineConfig::functional(2), |ctx| {
            let c = Collection::new(ctx, layout(4, 2, DistKind::Block), |g| g as u8).unwrap();
            // Keep the error rank-consistent: both ranks ask for the bad id.
            assert!(c.fetch_all(ctx, &[9], |v| vec![*v]).is_err());
        })
        .unwrap();
    }

    #[test]
    fn variable_sized_elements_are_fine() {
        // The whole point of the paper: elements may differ in size.
        Machine::run(MachineConfig::functional(2), |ctx| {
            let mut c =
                Collection::new(ctx, layout(6, 2, DistKind::Block), |g| vec![g as u8; g]).unwrap();
            c.apply_indexed(|g, v| assert_eq!(v.len(), g));
            let total: u64 = c
                .reduce(ctx, 0u64, |v| v.len() as u64, |a, b| a + b)
                .unwrap();
            assert_eq!(total, (0..6).sum::<usize>() as u64);
        })
        .unwrap();
    }
}
