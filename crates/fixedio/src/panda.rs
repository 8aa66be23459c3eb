//! A Panda-style array I/O interface.
//!
//! The paper's related work (§5): "Panda supports more general HPF-style
//! array distributions and interleaving, as does pC++/streams" — but for
//! arrays of *fixed-size* elements. This module reproduces that level of
//! capability as the second comparator:
//!
//! * any HPF distribution (BLOCK / CYCLIC / BLOCK-CYCLIC) and affine
//!   alignment, recorded in a schema header (Panda's "logical schema");
//! * multiple fields per element, interleaved per element in the file
//!   (Panda's physical schemas for multidimensional arrays);
//! * **fixed element sizes only**: offsets are *computed* from the schema,
//!   there is no per-element size table — which is precisely why this
//!   class of library cannot hold particle lists of varying length.
//!
//! Reads work under any reader distribution: because sizes are fixed,
//! every rank can compute its elements' file positions directly and fetch
//! them with positioned reads (coalescing contiguous runs).

use dstreams_collections::{Collection, Layout, LayoutDescriptor};
use dstreams_machine::wire::{ReadError, Reader};
use dstreams_machine::NodeCtx;
use dstreams_pfs::{OpenMode, Pfs};

use crate::FixedIoError;

/// Magic for Panda-style files.
const MAGIC: [u8; 8] = *b"PANDARR\0";

/// One field of the logical schema: a fixed number of bytes per element.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchemaField {
    /// Field name (schema identity; checked on read).
    pub name: String,
    /// Bytes per element for this field.
    pub elem_size: usize,
}

/// The logical schema: field list, applied per element, interleaved.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schema {
    /// Fields in file order.
    pub fields: Vec<SchemaField>,
}

impl Schema {
    /// Bytes per element across all fields.
    pub fn elem_bytes(&self) -> usize {
        self.fields.iter().map(|f| f.elem_size).sum()
    }

    /// Byte offset of field `k` within an element.
    pub fn field_offset(&self, k: usize) -> usize {
        self.fields[..k].iter().map(|f| f.elem_size).sum()
    }

    fn encode(&self) -> Vec<u8> {
        let mut v = Vec::new();
        v.extend_from_slice(&(self.fields.len() as u32).to_le_bytes());
        for f in &self.fields {
            v.extend_from_slice(&(f.name.len() as u32).to_le_bytes());
            v.extend_from_slice(f.name.as_bytes());
            v.extend_from_slice(&(f.elem_size as u64).to_le_bytes());
        }
        v
    }

    /// Read an encoded schema at `r`'s cursor; `None` when malformed.
    fn read(r: &mut Reader<'_>) -> Option<Schema> {
        let count = r.count32(12).ok()?;
        let mut field = || -> Result<_, ReadError> {
            let name = r.u32().and_then(|n| r.take(n as usize))?;
            Ok((name, r.u64()?))
        };
        let fields = (0..count)
            .map(|_| {
                let (name, elem_size) = field().ok()?;
                Some(SchemaField {
                    name: String::from_utf8(name.to_vec()).ok()?,
                    elem_size: usize::try_from(elem_size).ok()?,
                })
            })
            .collect::<Option<Vec<_>>>()?;
        Some(Schema { fields })
    }
}

/// Write a collection under `schema`: for each element, each field's bytes
/// in schema order (interleaved), elements in node order; the file header
/// records the writer's layout and the schema.
///
/// `encode_field(k, element)` must produce exactly
/// `schema.fields[k].elem_size` bytes.
pub fn write_array<T>(
    ctx: &NodeCtx,
    pfs: &Pfs,
    file: &str,
    c: &Collection<T>,
    schema: &Schema,
    encode_field: impl Fn(usize, &T) -> Vec<u8>,
) -> Result<(), FixedIoError> {
    let elem_bytes = schema.elem_bytes();
    let mut block = Vec::with_capacity(c.local_len() * elem_bytes + 128);
    if ctx.is_root() {
        block.extend_from_slice(&MAGIC);
        block.extend_from_slice(&c.layout().descriptor().encode());
        block.extend_from_slice(&schema.encode());
    }
    for (gid, e) in c.iter() {
        for (k, f) in schema.fields.iter().enumerate() {
            let bytes = encode_field(k, e);
            if bytes.len() != f.elem_size {
                return Err(FixedIoError::SizeViolation {
                    element: gid,
                    declared: f.elem_size,
                    actual: bytes.len(),
                });
            }
            block.extend_from_slice(&bytes);
        }
    }
    ctx.charge_memcpy(block.len());
    let fh = pfs.open(ctx.is_root(), file, OpenMode::Create)?;
    fh.write_ordered(ctx, &block)?;
    Ok(())
}

/// Header info recovered from a Panda-style file.
struct FileInfo {
    writer_layout: Layout,
    schema: Schema,
    data_base: u64,
}

fn read_header(ctx: &NodeCtx, pfs: &Pfs, file: &str) -> Result<FileInfo, FixedIoError> {
    let fh = pfs.open(false, file, OpenMode::Read)?;
    // Rank 0 reads a generous header prefix and broadcasts it.
    let head = if ctx.is_root() {
        let want = (fh.len() as usize).min(4096);
        let mut buf = vec![0u8; want];
        match fh.read_at(ctx, 0, &mut buf) {
            Ok(()) => buf,
            Err(_) => Vec::new(),
        }
    } else {
        Vec::new()
    };
    let head = ctx.broadcast(0, head)?;
    let not_array = || FixedIoError::NotAnArrayFile(file.to_string());
    let mut r = Reader::new(&head);
    if r.array() != Ok(MAGIC) {
        return Err(not_array());
    }
    let desc = LayoutDescriptor::read(&mut r).map_err(|_| not_array())?;
    let schema = Schema::read(&mut r).ok_or_else(not_array)?;
    let writer_layout = Layout::from_descriptor(&desc)?;
    // The data region the header implies must lie inside the file.
    let data_base = r.pos();
    let data_end = schema
        .fields
        .iter()
        .try_fold(0usize, |acc, f| acc.checked_add(f.elem_size))
        .and_then(|b| b.checked_mul(writer_layout.len()))
        .and_then(|b| b.checked_add(data_base));
    if data_end.is_none_or(|end| end as u64 > fh.len()) {
        return Err(not_array());
    }
    Ok(FileInfo {
        writer_layout,
        schema,
        data_base: data_base as u64,
    })
}

/// Read one named field of every local element into the collection, under
/// *any* reader layout (offsets are computed from the writer layout in the
/// header — fixed sizes make a size table unnecessary).
pub fn read_field<T>(
    ctx: &NodeCtx,
    pfs: &Pfs,
    file: &str,
    c: &mut Collection<T>,
    field_name: &str,
    decode_field: impl Fn(&mut T, &[u8]),
) -> Result<(), FixedIoError> {
    let info = read_header(ctx, pfs, file)?;
    if info.writer_layout.len() != c.len() {
        return Err(FixedIoError::CountMismatch {
            file: info.writer_layout.len(),
            collection: c.len(),
        });
    }
    let k = info
        .schema
        .fields
        .iter()
        .position(|f| f.name == field_name)
        .ok_or_else(|| FixedIoError::UnknownField(field_name.to_string()))?;
    let elem_bytes = info.schema.elem_bytes();
    let field_off = info.schema.field_offset(k);
    let field_size = info.schema.fields[k].elem_size;

    // File position of each element: node-order rank blocks, elements in
    // the writer's local order within each block.
    let mut elem_pos = vec![0u64; c.len()];
    let mut cursor = info.data_base;
    for gid in info.writer_layout.file_order() {
        elem_pos[gid] = cursor;
        cursor += elem_bytes as u64;
    }

    let fh = pfs.open(false, file, OpenMode::Read)?;
    // Fetch each local element's field; coalesce adjacent elements into
    // runs to keep the op count honest for block-on-block reads.
    let ids = c.global_ids().to_vec();
    let mut runs: Vec<(u64, Vec<usize>)> = Vec::new(); // (start offset, slots)
    for (slot, &gid) in ids.iter().enumerate() {
        let off = elem_pos[gid] + field_off as u64;
        match runs.last_mut() {
            // Coalescing applies when the *whole elements* are adjacent
            // and the field occupies the full element (single-field
            // schemas); otherwise each field read stands alone.
            Some((start, slots))
                if info.schema.fields.len() == 1
                    && *start + (slots.len() * elem_bytes) as u64 == off =>
            {
                slots.push(slot);
            }
            _ => runs.push((off, vec![slot])),
        }
    }
    for (start, slots) in &runs {
        let len = if info.schema.fields.len() == 1 {
            slots.len() * elem_bytes
        } else {
            field_size
        };
        let mut buf = vec![0u8; len];
        fh.read_at(ctx, *start, &mut buf)?;
        if info.schema.fields.len() == 1 {
            for (i, &slot) in slots.iter().enumerate() {
                decode_field(
                    &mut c.local_mut()[slot],
                    &buf[i * elem_bytes..(i + 1) * elem_bytes],
                );
            }
        } else {
            decode_field(&mut c.local_mut()[slots[0]], &buf);
        }
    }
    ctx.barrier()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dstreams_collections::DistKind;
    use dstreams_machine::{Machine, MachineConfig};

    #[derive(Debug, Default, Clone, PartialEq)]
    struct Cell {
        density: f64,
        pressure: f64,
    }

    fn schema() -> Schema {
        Schema {
            fields: vec![
                SchemaField {
                    name: "density".into(),
                    elem_size: 8,
                },
                SchemaField {
                    name: "pressure".into(),
                    elem_size: 8,
                },
            ],
        }
    }

    fn enc(k: usize, e: &Cell) -> Vec<u8> {
        match k {
            0 => e.density.to_le_bytes().to_vec(),
            _ => e.pressure.to_le_bytes().to_vec(),
        }
    }

    #[test]
    fn interleaved_fields_roundtrip_across_distributions() {
        let pfs = Pfs::in_memory(4);
        let p = pfs.clone();
        Machine::run(MachineConfig::functional(4), move |ctx| {
            let layout = Layout::dense(11, 4, DistKind::Cyclic).unwrap();
            let c = Collection::new(ctx, layout, |i| Cell {
                density: i as f64 + 0.25,
                pressure: 100.0 + i as f64,
            })
            .unwrap();
            write_array(ctx, &p, "panda", &c, &schema(), enc).unwrap();
        })
        .unwrap();

        let p = pfs.clone();
        Machine::run(MachineConfig::functional(3), move |ctx| {
            let layout = Layout::dense(11, 3, DistKind::Block).unwrap();
            let mut c = Collection::new(ctx, layout, |_| Cell::default()).unwrap();
            read_field(ctx, &p, "panda", &mut c, "pressure", |e, b| {
                e.pressure = f64::from_le_bytes(b.try_into().expect("8 bytes"));
            })
            .unwrap();
            read_field(ctx, &p, "panda", &mut c, "density", |e, b| {
                e.density = f64::from_le_bytes(b.try_into().expect("8 bytes"));
            })
            .unwrap();
            for (gid, e) in c.iter() {
                assert_eq!(e.density, gid as f64 + 0.25);
                assert_eq!(e.pressure, 100.0 + gid as f64);
            }
        })
        .unwrap();
    }

    #[test]
    fn fields_are_interleaved_per_element_in_the_file() {
        let pfs = Pfs::in_memory(1);
        let p = pfs.clone();
        Machine::run(MachineConfig::functional(1), move |ctx| {
            let layout = Layout::dense(2, 1, DistKind::Block).unwrap();
            let c = Collection::new(ctx, layout, |i| Cell {
                density: i as f64,
                pressure: 10.0 + i as f64,
            })
            .unwrap();
            write_array(ctx, &p, "il", &c, &schema(), enc).unwrap();
            // Data region: e0.density, e0.pressure, e1.density, e1.pressure.
            let fh = p.open(false, "il", OpenMode::Read).unwrap();
            let mut tail = vec![0u8; 32];
            fh.read_at(ctx, fh.len() - 32, &mut tail).unwrap();
            let vals: Vec<f64> = tail
                .chunks_exact(8)
                .map(|b| f64::from_le_bytes(b.try_into().expect("8 bytes")))
                .collect();
            assert_eq!(vals, vec![0.0, 10.0, 1.0, 11.0]);
        })
        .unwrap();
    }

    #[test]
    fn unknown_fields_and_wrong_sizes_are_rejected() {
        let pfs = Pfs::in_memory(2);
        let p = pfs.clone();
        Machine::run(MachineConfig::functional(2), move |ctx| {
            let layout = Layout::dense(4, 2, DistKind::Block).unwrap();
            let c = Collection::new(ctx, layout.clone(), |i| Cell {
                density: i as f64,
                pressure: 0.0,
            })
            .unwrap();
            write_array(ctx, &p, "s", &c, &schema(), enc).unwrap();
            let mut back = Collection::new(ctx, layout.clone(), |_| Cell::default()).unwrap();
            assert!(matches!(
                read_field(ctx, &p, "s", &mut back, "velocity", |_, _| {}),
                Err(FixedIoError::UnknownField(_))
            ));
            // Encoder producing the wrong width is caught at write time.
            let err = write_array(ctx, &p, "bad", &c, &schema(), |_, _| vec![1, 2, 3]).unwrap_err();
            assert!(matches!(err, FixedIoError::SizeViolation { .. }));
        })
        .unwrap();
    }
}
