//! A PetSc/Chameleon-style array I/O interface.
//!
//! The paper's related work (§5): "PetSc/Chameleon supports I/O on
//! block-distributed arrays" of *fixed-size* elements. This module
//! reproduces that interface — `PltFileWrite`/`PltFileRead` in spirit — as
//! a comparator for d/streams:
//!
//! * BLOCK distribution only;
//! * every element the same, caller-declared size;
//! * no metadata in the file beyond a tiny fixed header (element size +
//!   count) — the reader must already know the data's shape;
//! * reading redistributes over a (possibly different) processor count,
//!   but only BLOCK → BLOCK.
//!
//! What it *cannot* do — variable-sized elements, CYCLIC layouts,
//! interleaving — is exactly the gap pC++/streams fills (see
//! `tests/baseline_comparison.rs` at the workspace root).

use dstreams_collections::{Collection, DistKind, Layout};
use dstreams_machine::wire::Reader;
use dstreams_machine::NodeCtx;
use dstreams_pfs::{OpenMode, Pfs};

use crate::FixedIoError;

/// Magic for Chameleon-style files.
const MAGIC: [u8; 8] = *b"CHAMARR\0";
/// Header: magic + element size + element count.
const HEADER_LEN: usize = 8 + 8 + 8;

/// Write a BLOCK-distributed collection of fixed-size elements.
///
/// `encode` must produce exactly `elem_size` bytes for every element;
/// anything else is an error (this baseline has no size table to record
/// variation — the paper's point).
pub fn write_block_array<T>(
    ctx: &NodeCtx,
    pfs: &Pfs,
    file: &str,
    c: &Collection<T>,
    elem_size: usize,
    encode: impl Fn(&T) -> Vec<u8>,
) -> Result<(), FixedIoError> {
    if c.layout().distribution().kind() != DistKind::Block
        || c.layout().alignment() != dstreams_collections::Alignment::identity()
    {
        return Err(FixedIoError::BlockOnly);
    }
    let mut block = Vec::with_capacity(HEADER_LEN + c.local_len() * elem_size);
    if ctx.is_root() {
        block.extend_from_slice(&MAGIC);
        block.extend_from_slice(&(elem_size as u64).to_le_bytes());
        block.extend_from_slice(&(c.len() as u64).to_le_bytes());
    }
    for (gid, e) in c.iter() {
        let bytes = encode(e);
        if bytes.len() != elem_size {
            return Err(FixedIoError::SizeViolation {
                element: gid,
                declared: elem_size,
                actual: bytes.len(),
            });
        }
        block.extend_from_slice(&bytes);
    }
    ctx.charge_memcpy(block.len());
    let fh = pfs.open(ctx.is_root(), file, OpenMode::Create)?;
    fh.write_ordered(ctx, &block)?;
    Ok(())
}

/// Read back into a BLOCK-distributed collection. The caller must supply
/// the element size it *believes* the file has; a mismatch against the
/// header (all this format stores) is an error.
pub fn read_block_array<T>(
    ctx: &NodeCtx,
    pfs: &Pfs,
    file: &str,
    c: &mut Collection<T>,
    elem_size: usize,
    decode: impl Fn(&mut T, &[u8]),
) -> Result<(), FixedIoError> {
    if c.layout().distribution().kind() != DistKind::Block {
        return Err(FixedIoError::BlockOnly);
    }
    let fh = pfs.open(false, file, OpenMode::Read)?;
    // Rank 0 validates the tiny header and broadcasts the verdict.
    let head = if ctx.is_root() {
        let mut buf = vec![0u8; HEADER_LEN];
        match fh.read_at(ctx, 0, &mut buf) {
            Ok(()) => buf,
            Err(_) => Vec::new(),
        }
    } else {
        Vec::new()
    };
    let head = ctx.broadcast(0, head)?;
    let Ok((MAGIC, file_elem, file_count)) =
        Reader::parse(&head, |r| Ok((r.array()?, r.u64()?, r.u64()?)))
    else {
        return Err(FixedIoError::NotAnArrayFile(file.to_string()));
    };
    let (file_elem, file_count) = (file_elem as usize, file_count as usize);
    if file_elem != elem_size {
        return Err(FixedIoError::SizeViolation {
            element: 0,
            declared: elem_size,
            actual: file_elem,
        });
    }
    if file_count != c.len() {
        return Err(FixedIoError::CountMismatch {
            file: file_count,
            collection: c.len(),
        });
    }
    // BLOCK → BLOCK: each rank's elements are contiguous in the file.
    let ids = c.global_ids().to_vec();
    let my_len = ids.len() * elem_size;
    let my_off = HEADER_LEN as u64 + ids.first().map(|&g| g as u64).unwrap_or(0) * elem_size as u64;
    let raw = fh.read_ordered(ctx, my_off, my_len)?;
    ctx.charge_memcpy(raw.len());
    for (slot, chunk) in raw.chunks_exact(elem_size).enumerate() {
        decode(&mut c.local_mut()[slot], chunk);
    }
    Ok(())
}

/// A [`Layout`] helper: the only placement this baseline accepts.
pub fn block_layout(n: usize, nprocs: usize) -> Result<Layout, FixedIoError> {
    Ok(Layout::dense(n, nprocs, DistKind::Block)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dstreams_machine::{Machine, MachineConfig};

    fn enc(v: &f64) -> Vec<u8> {
        v.to_le_bytes().to_vec()
    }
    fn dec(v: &mut f64, b: &[u8]) {
        *v = f64::from_le_bytes(b.try_into().expect("8 bytes"));
    }

    #[test]
    fn block_array_roundtrips_across_processor_counts() {
        let pfs = Pfs::in_memory(4);
        let p = pfs.clone();
        Machine::run(MachineConfig::functional(4), move |ctx| {
            let layout = block_layout(14, 4).unwrap();
            let c = Collection::new(ctx, layout, |i| i as f64 * 0.5).unwrap();
            write_block_array(ctx, &p, "arr", &c, 8, enc).unwrap();
        })
        .unwrap();
        let p = pfs.clone();
        Machine::run(MachineConfig::functional(3), move |ctx| {
            let layout = block_layout(14, 3).unwrap();
            let mut c = Collection::new(ctx, layout, |_| 0.0f64).unwrap();
            read_block_array(ctx, &p, "arr", &mut c, 8, dec).unwrap();
            for (gid, v) in c.iter() {
                assert_eq!(*v, gid as f64 * 0.5);
            }
        })
        .unwrap();
    }

    #[test]
    fn non_block_layouts_are_rejected() {
        let pfs = Pfs::in_memory(2);
        let p = pfs.clone();
        Machine::run(MachineConfig::functional(2), move |ctx| {
            let layout = Layout::dense(6, 2, DistKind::Cyclic).unwrap();
            let c = Collection::new(ctx, layout, |i| i as f64).unwrap();
            assert!(matches!(
                write_block_array(ctx, &p, "x", &c, 8, enc),
                Err(FixedIoError::BlockOnly)
            ));
        })
        .unwrap();
    }

    #[test]
    fn variable_sizes_are_impossible() {
        // The paper's differentiation: this baseline cannot store
        // variable-sized elements at all.
        let pfs = Pfs::in_memory(2);
        let p = pfs.clone();
        Machine::run(MachineConfig::functional(2), move |ctx| {
            let layout = block_layout(4, 2).unwrap();
            let c = Collection::new(ctx, layout, |i| vec![0u8; i + 1]).unwrap();
            let err = write_block_array(ctx, &p, "v", &c, 2, |v| v.clone()).unwrap_err();
            assert!(matches!(err, FixedIoError::SizeViolation { .. }));
        })
        .unwrap();
    }

    #[test]
    fn wrong_declared_size_and_count_are_caught() {
        let pfs = Pfs::in_memory(2);
        let p = pfs.clone();
        Machine::run(MachineConfig::functional(2), move |ctx| {
            let layout = block_layout(6, 2).unwrap();
            let c = Collection::new(ctx, layout.clone(), |i| i as f64).unwrap();
            write_block_array(ctx, &p, "a", &c, 8, enc).unwrap();

            let mut back = Collection::new(ctx, layout.clone(), |_| 0.0f64).unwrap();
            assert!(matches!(
                read_block_array(ctx, &p, "a", &mut back, 4, dec),
                Err(FixedIoError::SizeViolation { .. })
            ));
            let layout8 = block_layout(8, 2).unwrap();
            let mut wrong = Collection::new(ctx, layout8, |_| 0.0f64).unwrap();
            assert!(matches!(
                read_block_array(ctx, &p, "a", &mut wrong, 8, dec),
                Err(FixedIoError::CountMismatch {
                    file: 6,
                    collection: 8
                })
            ));
        })
        .unwrap();
    }

    #[test]
    fn garbage_files_are_rejected() {
        let pfs = Pfs::in_memory(1);
        let p = pfs.clone();
        Machine::run(MachineConfig::functional(1), move |ctx| {
            let fh = p.open(true, "junk", OpenMode::Create).unwrap();
            fh.write_at(ctx, 0, b"not an array").unwrap();
            let layout = block_layout(2, 1).unwrap();
            let mut c = Collection::new(ctx, layout, |_| 0.0f64).unwrap();
            assert!(matches!(
                read_block_array(ctx, &p, "junk", &mut c, 8, dec),
                Err(FixedIoError::NotAnArrayFile(_))
            ));
        })
        .unwrap();
    }
}
