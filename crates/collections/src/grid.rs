//! Distributed 2-D grids over collections.
//!
//! The paper's introduction motivates d/streams with "adaptive parallel
//! applications using dynamic distributed data structures (e.g.
//! distributed grids of variable density)". In pC++ such a grid is built
//! *over the distributed array base*: a 1-D collection whose elements are
//! grid rows (possibly of varying density). [`Grid2d`] packages that
//! idiom: row-wise placement via any [`DistKind`], per-cell access and
//! object-parallel application, and — for BLOCK row placement — the halo
//! exchange a stencil computation needs.
//!
//! Because a `Grid2d` *is* a `Collection<GridRow<T>>`, it streams through
//! d/streams like any other collection (`GridRow` implements the
//! element-decomposition contract via the caller's `StreamData` impl; the
//! `dstreams-core` crate provides one for primitive cell types).

use dstreams_machine::wire::{ReadError, Reader};
use dstreams_machine::{NodeCtx, Wire};

use crate::collection::{malformed, Collection};
use crate::distribution::DistKind;
use crate::error::CollectionError;
use crate::layout::Layout;

/// One row of a 2-D grid. The cell vector's length is the row's
/// *density*; adaptive grids vary it per row.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct GridRow<T> {
    /// The row's cells.
    pub cells: Vec<T>,
}

/// The halo returned by [`Grid2d::exchange_row_halo`]: the neighbor row
/// above and below this rank's contiguous range (`None` at grid edges).
pub type RowHalo<T> = (Option<Vec<T>>, Option<Vec<T>>);

/// Halo of one contiguous run of locally-owned rows, as returned by
/// [`Grid2d::exchange_run_halos`]. Under CYCLIC(k) placement a rank owns
/// many runs of `k` rows each; every run gets its own halo.
#[derive(Debug, Clone, PartialEq)]
pub struct RunHalo<T> {
    /// Global index of the run's first row.
    pub first_row: usize,
    /// Global index of the run's last row (inclusive).
    pub last_row: usize,
    /// Up to `width` rows immediately above the run, in increasing row
    /// order (the last entry is row `first_row - 1`); truncated at the
    /// grid edge.
    pub above: Vec<Vec<T>>,
    /// Up to `width` rows immediately below the run, in increasing row
    /// order (the first entry is row `last_row + 1`); truncated at the
    /// grid edge.
    pub below: Vec<Vec<T>>,
}

/// A distributed 2-D grid: rows placed over ranks, cells local to a row.
#[derive(Debug)]
pub struct Grid2d<T> {
    rows: usize,
    coll: Collection<GridRow<T>>,
}

impl<T> Grid2d<T> {
    /// Build a grid of `rows`, distributing rows by `kind`, with cell
    /// `(i, j)` initialized by `init`. `density(i)` gives row `i`'s cell
    /// count (uniform grids pass a constant).
    pub fn new(
        ctx: &NodeCtx,
        rows: usize,
        kind: DistKind,
        mut density: impl FnMut(usize) -> usize,
        mut init: impl FnMut(usize, usize) -> T,
    ) -> Result<Self, CollectionError> {
        let layout = Layout::dense(rows, ctx.nprocs(), kind)?;
        let coll = Collection::new(ctx, layout, |i| GridRow {
            cells: (0..density(i)).map(|j| init(i, j)).collect(),
        })?;
        Ok(Grid2d { rows, coll })
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Whether the grid has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// The underlying collection (for streaming through d/streams).
    pub fn as_collection(&self) -> &Collection<GridRow<T>> {
        &self.coll
    }

    /// Mutable access to the underlying collection.
    pub fn as_collection_mut(&mut self) -> &mut Collection<GridRow<T>> {
        &mut self.coll
    }

    /// Consume the grid, yielding the collection.
    pub fn into_collection(self) -> Collection<GridRow<T>> {
        self.coll
    }

    /// Rebuild a grid view over a collection of rows.
    pub fn from_collection(coll: Collection<GridRow<T>>) -> Self {
        Grid2d {
            rows: coll.len(),
            coll,
        }
    }

    /// Reference to cell `(i, j)` if row `i` is local.
    pub fn get(&self, i: usize, j: usize) -> Result<&T, CollectionError> {
        let row = self.coll.get(i)?;
        row.cells.get(j).ok_or(CollectionError::IndexOutOfRange {
            index: j,
            len: row.cells.len(),
        })
    }

    /// Mutable reference to cell `(i, j)` if row `i` is local.
    pub fn get_mut(&mut self, i: usize, j: usize) -> Result<&mut T, CollectionError> {
        let row = self.coll.get_mut(i)?;
        let len = row.cells.len();
        row.cells
            .get_mut(j)
            .ok_or(CollectionError::IndexOutOfRange { index: j, len })
    }

    /// Object-parallel application over every local cell, with its
    /// `(row, column)` coordinates.
    pub fn apply_cells(&mut self, mut f: impl FnMut(usize, usize, &mut T)) {
        self.coll.apply_indexed(|i, row| {
            for (j, cell) in row.cells.iter_mut().enumerate() {
                f(i, j, cell);
            }
        });
    }

    /// Total cell count across all ranks.
    pub fn total_cells(&self, ctx: &NodeCtx) -> Result<u64, CollectionError> {
        self.coll
            .reduce(ctx, 0u64, |r| r.cells.len() as u64, |a, b| a + b)
    }
}

impl<T> Grid2d<T> {
    fn unsupported(&self, operation: &'static str, requirement: String) -> CollectionError {
        CollectionError::UnsupportedPlacement {
            layout: self.coll.layout().descriptor(),
            operation,
            requirement,
        }
    }

    /// The guaranteed length of every non-final contiguous row run under
    /// the grid's placement — the largest halo width `exchange_run_halos`
    /// can serve from a single neighboring run.
    fn run_quantum(&self) -> Result<usize, CollectionError> {
        let dist = self.coll.layout().distribution();
        Ok(match dist.kind() {
            DistKind::Block => dist.len().div_ceil(dist.nprocs()).max(1),
            DistKind::Cyclic => 1,
            DistKind::BlockCyclic(k) => k,
            DistKind::Composed2d(_) => {
                return Err(self.unsupported(
                    "halo exchange",
                    "row placement must be 1-D (BLOCK or CYCLIC(k))".into(),
                ))
            }
        })
    }
}

impl<T: Wire + Clone + Default> Grid2d<T> {
    /// Exchange boundary rows between neighboring ranks — the halo a
    /// vertical stencil needs. Requires BLOCK row placement (each rank
    /// owns one contiguous row range, so a single `(above, below)` pair
    /// describes its whole boundary); for CYCLIC(k) placements use
    /// [`Grid2d::exchange_run_halos`], which returns a halo per run.
    ///
    /// Returns `(above, below)`: the last row of the preceding rank's
    /// range and the first row of the following rank's, `None` at the
    /// grid edges. Collective.
    pub fn exchange_row_halo(&self, ctx: &NodeCtx) -> Result<RowHalo<T>, CollectionError> {
        if self.coll.layout().distribution().kind() != DistKind::Block {
            return Err(self.unsupported(
                "exchange_row_halo",
                "BLOCK row placement (one contiguous run per rank); \
                 use exchange_run_halos for CYCLIC(k) rows"
                    .into(),
            ));
        }
        let mut runs = self.exchange_run_halos(ctx, 1)?;
        Ok(match runs.pop() {
            Some(run) => (
                run.above.into_iter().next_back(),
                run.below.into_iter().next(),
            ),
            None => (None, None),
        })
    }

    /// Exchange halos of `width` rows around every contiguous run of
    /// locally-owned rows. Supports BLOCK and CYCLIC(k) row placement
    /// with `k >= width` (every non-final run then spans a full block of
    /// `k` rows, so each side of a halo comes from exactly one
    /// neighboring run). Collective; ranks without rows still
    /// participate and receive an empty vector.
    pub fn exchange_run_halos(
        &self,
        ctx: &NodeCtx,
        width: usize,
    ) -> Result<Vec<RunHalo<T>>, CollectionError> {
        if width == 0 {
            return Err(CollectionError::BadDistribution(
                "halo width must be at least 1".into(),
            ));
        }
        let quantum = self.run_quantum()?;
        if width > quantum {
            return Err(self.unsupported(
                "exchange_run_halos",
                format!(
                    "halo width {width} exceeds the placement's run length \
                     {quantum}; CYCLIC(k) rows need k >= width"
                ),
            ));
        }

        let encode = |row: &GridRow<T>| -> Vec<u8> {
            let mut buf = Vec::new();
            for c in &row.cells {
                let w = c.to_wire();
                buf.extend_from_slice(&(w.len() as u32).to_le_bytes());
                buf.extend_from_slice(&w);
            }
            buf
        };
        let decode = |buf: &[u8]| -> Result<Vec<T>, CollectionError> {
            let mut out = Vec::new();
            let mut r = Reader::new(buf);
            while r.remaining() > 0 {
                let raw = r
                    .u32()
                    .and_then(|len| r.take(len as usize))
                    .map_err(malformed("halo: cell"))?;
                out.push(T::from_wire(raw).ok_or_else(|| {
                    CollectionError::BadDistribution("halo: undecodable cell".into())
                })?);
            }
            Ok(out)
        };

        // Split the local rows into contiguous runs of global ids; note
        // each run's position in local storage (local order == id order).
        let ids = self.coll.global_ids();
        let mut runs: Vec<(usize, usize)> = Vec::new(); // (local start, len)
        for (slot, &id) in ids.iter().enumerate() {
            match runs.last_mut() {
                Some(&mut (start, ref mut len)) if ids[start] + *len == id => *len += 1,
                _ => runs.push((slot, 1)),
            }
        }

        // Advertise each run's boundary rows: its first and last
        // min(width, run_len) rows. Every rank gathers every
        // advertisement and slices out what its own runs need — robust
        // to empty ranks, and small (halo data only, not whole runs).
        let push_rows = |mine: &mut Vec<u8>, rows: &[GridRow<T>]| {
            mine.extend_from_slice(&(rows.len() as u32).to_le_bytes());
            for row in rows {
                let e = encode(row);
                mine.extend_from_slice(&(e.len() as u64).to_le_bytes());
                mine.extend_from_slice(&e);
            }
        };
        let mut mine = Vec::new();
        mine.extend_from_slice(&(runs.len() as u32).to_le_bytes());
        for &(start, len) in &runs {
            let w = width.min(len);
            mine.extend_from_slice(&(ids[start] as u64).to_le_bytes());
            mine.extend_from_slice(&((ids[start] + len - 1) as u64).to_le_bytes());
            push_rows(&mut mine, &self.coll.local()[start..start + w]);
            push_rows(&mut mine, &self.coll.local()[start + len - w..start + len]);
        }
        let all = ctx.all_gather(mine)?;

        // Decode every rank's advertisements, keyed by run boundary ids.
        struct Adv<'a> {
            first_id: usize,
            last_id: usize,
            first: Vec<&'a [u8]>,
            last: Vec<&'a [u8]>,
        }
        fn rows<'a>(r: &mut Reader<'a>) -> Result<Vec<&'a [u8]>, ReadError> {
            (0..r.count32(8)?).map(|_| r.block()).collect()
        }
        let mut advs: Vec<Adv> = Vec::new();
        for buf in &all {
            Reader::parse(buf, |r| {
                for _ in 0..r.count32(24)? {
                    advs.push(Adv {
                        first_id: r.u64()? as usize,
                        last_id: r.u64()? as usize,
                        first: rows(r)?,
                        last: rows(r)?,
                    });
                }
                Ok(())
            })
            .map_err(malformed("halo: advertisement"))?;
        }

        // Assemble each local run's halo. Because width <= quantum and
        // every non-final run spans a full quantum, each side lies
        // entirely within the single adjacent run.
        let missing =
            || CollectionError::BadDistribution("halo: missing neighbor advertisement".into());
        let mut out = Vec::with_capacity(runs.len());
        for &(start, len) in &runs {
            let (first_id, last_id) = (ids[start], ids[start] + len - 1);
            let mut above = Vec::new();
            if first_id > 0 {
                let w = width.min(first_id);
                let donor = advs
                    .iter()
                    .find(|a| a.last_id == first_id - 1)
                    .ok_or_else(missing)?;
                let rows = donor.last.len().checked_sub(w).ok_or_else(missing)?;
                for raw in &donor.last[rows..] {
                    above.push(decode(raw)?);
                }
            }
            let mut below = Vec::new();
            if last_id + 1 < self.rows {
                let w = width.min(self.rows - last_id - 1);
                let donor = advs
                    .iter()
                    .find(|a| a.first_id == last_id + 1)
                    .ok_or_else(missing)?;
                for raw in donor.first.get(..w).ok_or_else(missing)? {
                    below.push(decode(raw)?);
                }
            }
            out.push(RunHalo {
                first_row: first_id,
                last_row: last_id,
                above,
                below,
            });
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dstreams_machine::{Machine, MachineConfig};

    #[test]
    fn construction_and_cell_access() {
        Machine::run(MachineConfig::functional(3), |ctx| {
            let mut grid =
                Grid2d::new(ctx, 9, DistKind::Block, |_| 4, |i, j| (i * 10 + j) as i64).unwrap();
            assert_eq!(grid.rows(), 9);
            for &i in grid.as_collection().global_ids().to_vec().iter() {
                for j in 0..4 {
                    assert_eq!(*grid.get(i, j).unwrap(), (i * 10 + j) as i64);
                }
                assert!(matches!(
                    grid.get(i, 4),
                    Err(CollectionError::IndexOutOfRange { .. })
                ));
            }
            *grid
                .get_mut(grid.as_collection().global_ids()[0], 0)
                .unwrap() = -1;
        })
        .unwrap();
    }

    #[test]
    fn variable_density_rows() {
        Machine::run(MachineConfig::functional(2), |ctx| {
            let grid =
                Grid2d::new(ctx, 6, DistKind::Block, |i| i + 1, |i, j| (i + j) as u32).unwrap();
            let total = grid.total_cells(ctx).unwrap();
            assert_eq!(total, (1..=6).sum::<usize>() as u64);
        })
        .unwrap();
    }

    #[test]
    fn apply_cells_touches_every_cell_once() {
        Machine::run(MachineConfig::functional(4), |ctx| {
            let mut grid = Grid2d::new(ctx, 8, DistKind::Block, |_| 3, |_, _| 0u64).unwrap();
            grid.apply_cells(|i, j, v| *v = (i * 100 + j) as u64);
            let sum = grid
                .as_collection()
                .reduce(ctx, 0u64, |r| r.cells.iter().sum::<u64>(), |a, b| a + b)
                .unwrap();
            let want: u64 = (0..8)
                .flat_map(|i| (0..3).map(move |j| (i * 100 + j) as u64))
                .sum();
            assert_eq!(sum, want);
        })
        .unwrap();
    }

    #[test]
    fn halo_exchange_delivers_neighbor_rows() {
        for np in [1usize, 2, 3, 4] {
            Machine::run(MachineConfig::functional(np), move |ctx| {
                let grid =
                    Grid2d::new(ctx, 8, DistKind::Block, |_| 2, |i, j| (i * 2 + j) as f64).unwrap();
                let (above, below) = grid.exchange_row_halo(ctx).unwrap();
                let ids = grid.as_collection().global_ids();
                if ids.is_empty() {
                    assert!(above.is_none() && below.is_none());
                    return;
                }
                let my_first = ids[0];
                let my_last = ids[ids.len() - 1];
                match above {
                    Some(row) => {
                        assert!(my_first > 0);
                        let want = my_first - 1;
                        assert_eq!(row, vec![(want * 2) as f64, (want * 2 + 1) as f64]);
                    }
                    None => assert_eq!(my_first, 0),
                }
                match below {
                    Some(row) => {
                        assert!(my_last < 7);
                        let want = my_last + 1;
                        assert_eq!(row, vec![(want * 2) as f64, (want * 2 + 1) as f64]);
                    }
                    None => assert_eq!(my_last, 7),
                }
            })
            .unwrap();
        }
    }

    #[test]
    fn halo_requires_block_placement() {
        Machine::run(MachineConfig::functional(2), |ctx| {
            let grid = Grid2d::new(ctx, 6, DistKind::Cyclic, |_| 1, |_, _| 0i32).unwrap();
            // The single-pair API still wants BLOCK, but now says so with
            // the offending layout attached...
            match grid.exchange_row_halo(ctx) {
                Err(CollectionError::UnsupportedPlacement {
                    layout,
                    operation,
                    requirement,
                }) => {
                    assert_eq!(layout, grid.as_collection().layout().descriptor());
                    assert_eq!(layout.dist_code, DistKind::Cyclic.code());
                    assert_eq!(operation, "exchange_row_halo");
                    assert!(requirement.contains("exchange_run_halos"), "{requirement}");
                }
                other => panic!("expected UnsupportedPlacement, got {other:?}"),
            }
            // ...and the run-based API serves CYCLIC rows at width 1 but
            // rejects widths beyond the placement's run length.
            let halos = grid.exchange_run_halos(ctx, 1).unwrap();
            assert_eq!(halos.len(), 3);
            match grid.exchange_run_halos(ctx, 2) {
                Err(CollectionError::UnsupportedPlacement { requirement, .. }) => {
                    assert!(requirement.contains("k >= width"), "{requirement}");
                }
                other => panic!("expected UnsupportedPlacement, got {other:?}"),
            }
        })
        .unwrap();
    }

    #[test]
    fn run_halos_deliver_neighbor_rows_under_cyclic_k() {
        // 12 rows dealt CYCLIC(3) over up to 3 ranks; width up to k.
        for np in [1usize, 2, 3] {
            for width in [1usize, 2, 3] {
                Machine::run(MachineConfig::functional(np), move |ctx| {
                    let grid = Grid2d::new(
                        ctx,
                        12,
                        DistKind::BlockCyclic(3),
                        |_| 2,
                        |i, j| (i * 2 + j) as i64,
                    )
                    .unwrap();
                    let row = |i: usize| vec![(i * 2) as i64, (i * 2 + 1) as i64];
                    let halos = grid.exchange_run_halos(ctx, width).unwrap();
                    let mut seen_rows = 0usize;
                    for h in &halos {
                        // Runs are maximal contiguous stretches: blocks of
                        // k on a real grid, the whole grid on one rank.
                        let run_len = h.last_row - h.first_row + 1;
                        assert_eq!(run_len, if np == 1 { 12 } else { 3 });
                        seen_rows += run_len;
                        let want_above: Vec<_> = (h.first_row.saturating_sub(width)..h.first_row)
                            .map(row)
                            .collect();
                        let want_below: Vec<_> = (h.last_row + 1..(h.last_row + 1 + width).min(12))
                            .map(row)
                            .collect();
                        assert_eq!(h.above, want_above, "np {np} width {width}");
                        assert_eq!(h.below, want_below, "np {np} width {width}");
                    }
                    assert_eq!(seen_rows, grid.as_collection().local_len());
                })
                .unwrap();
            }
        }
    }

    #[test]
    fn run_halos_match_row_halo_under_block() {
        Machine::run(MachineConfig::functional(3), |ctx| {
            let grid = Grid2d::new(ctx, 8, DistKind::Block, |_| 1, |i, _| i as u32).unwrap();
            let (above, below) = grid.exchange_row_halo(ctx).unwrap();
            let halos = grid.exchange_run_halos(ctx, 1).unwrap();
            assert_eq!(halos.len(), 1);
            assert_eq!(above.as_ref(), halos[0].above.last());
            assert_eq!(below.as_ref(), halos[0].below.first());
        })
        .unwrap();
    }

    #[test]
    fn more_ranks_than_rows_is_fine() {
        Machine::run(MachineConfig::functional(5), |ctx| {
            let grid = Grid2d::new(ctx, 3, DistKind::Block, |_| 2, |i, j| (i + j) as u16).unwrap();
            // Ranks without rows see no halo; ranks with rows see correct ones.
            let (above, below) = grid.exchange_row_halo(ctx).unwrap();
            if grid.as_collection().local_len() == 0 {
                assert!(above.is_none() && below.is_none());
            }
        })
        .unwrap();
    }
}
