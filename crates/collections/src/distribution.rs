//! HPF-style distributions of a template over processors.
//!
//! pC++ inherits High Performance Fortran's distribution vocabulary: a
//! *template* of `n` abstract cells is distributed over `P` processors
//! BLOCK-wise, CYCLIC-ly, or in blocks of `k` dealt round-robin
//! (BLOCK-CYCLIC). Collections are then *aligned* to the template (see
//! [`crate::alignment`]). The paper's example declares
//! `Distribution d(12, &P, CYCLIC)`.

use crate::error::CollectionError;

/// A two-dimensional composed distribution: the template is viewed as a
/// row-major `rows × (len / rows)` matrix placed over a `grid_rows ×
/// (nprocs / grid_rows)` processor grid, each axis independently BLOCK
/// or CYCLIC(k) (HPF's `(BLOCK, CYCLIC(k))` style composition).
///
/// The per-axis pattern is encoded as a block size with `0` meaning
/// BLOCK; `k >= 1` meaning CYCLIC(k). Field widths are chosen so the
/// whole description packs into the single `dist_param` word of the
/// fixed-width [`crate::LayoutDescriptor`]: up to `2^32 - 1` rows,
/// `2^16 - 1` grid rows and per-axis block sizes up to 255.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Composed2d {
    /// Template rows (first-axis extent). Must divide the template length.
    pub rows: u32,
    /// Processor-grid rows. Must divide the processor count.
    pub grid_rows: u16,
    /// Row-axis block size: 0 = BLOCK, k >= 1 = CYCLIC(k).
    pub row_k: u8,
    /// Column-axis block size: 0 = BLOCK, k >= 1 = CYCLIC(k).
    pub col_k: u8,
}

impl Composed2d {
    /// Pack into the descriptor's `dist_param` word.
    pub fn pack(self) -> u64 {
        (self.rows as u64) << 32
            | (self.grid_rows as u64) << 16
            | (self.row_k as u64) << 8
            | self.col_k as u64
    }

    /// Inverse of [`Composed2d::pack`].
    pub fn unpack(param: u64) -> Composed2d {
        Composed2d {
            rows: (param >> 32) as u32,
            grid_rows: (param >> 16) as u16,
            row_k: (param >> 8) as u8,
            col_k: param as u8,
        }
    }
}

/// The distribution pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DistKind {
    /// Contiguous blocks of `ceil(n / P)` cells per processor.
    Block,
    /// Cell `t` on processor `t mod P`.
    Cyclic,
    /// Blocks of `k` cells dealt round-robin.
    BlockCyclic(usize),
    /// Row-major 2-D composition of per-axis BLOCK / CYCLIC(k) patterns.
    Composed2d(Composed2d),
}

impl DistKind {
    /// Stable numeric code used by the self-describing file format.
    pub fn code(self) -> u32 {
        match self {
            DistKind::Block => 0,
            DistKind::Cyclic => 1,
            DistKind::BlockCyclic(_) => 2,
            DistKind::Composed2d(_) => 3,
        }
    }

    /// Parameter accompanying [`DistKind::code`] (block size, packed 2-D
    /// shape, or 0).
    pub fn param(self) -> u64 {
        match self {
            DistKind::BlockCyclic(k) => k as u64,
            DistKind::Composed2d(c) => c.pack(),
            _ => 0,
        }
    }

    /// Inverse of [`DistKind::code`]/[`DistKind::param`].
    pub fn from_code(code: u32, param: u64) -> Option<DistKind> {
        match code {
            0 => Some(DistKind::Block),
            1 => Some(DistKind::Cyclic),
            2 if param > 0 => Some(DistKind::BlockCyclic(param as usize)),
            3 => {
                let c = Composed2d::unpack(param);
                (c.rows > 0 && c.grid_rows > 0).then_some(DistKind::Composed2d(c))
            }
            _ => None,
        }
    }
}

/// One axis of a composed (n-dimensional) distribution: `cells` template
/// cells placed over `procs` processors, BLOCK (`k == 0`) or CYCLIC(k)
/// (`k >= 1`). The formulas mirror the 1-D [`Distribution`] exactly, so
/// a single-axis composition places cells identically to the 1-D kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Axis {
    /// Axis extent in template cells.
    pub cells: usize,
    /// Processors along this axis.
    pub procs: usize,
    /// Block size: 0 = BLOCK, k >= 1 = CYCLIC(k).
    pub k: usize,
}

impl Axis {
    fn block_size(&self) -> usize {
        self.cells.div_ceil(self.procs).max(1)
    }

    /// Owning processor coordinate of axis cell `c` (`c < cells`).
    pub fn owner(&self, c: usize) -> usize {
        match self.k {
            0 => (c / self.block_size()).min(self.procs - 1),
            k => (c / k) % self.procs,
        }
    }

    /// Local slot of axis cell `c` on its owner; slots are dense and
    /// increase with `c`.
    pub fn local_index(&self, c: usize) -> usize {
        if self.k == 0 {
            c - self.owner(c) * self.block_size()
        } else {
            (c / (self.k * self.procs)) * self.k + c % self.k
        }
    }

    /// Number of axis cells owned by processor coordinate `p`.
    pub fn local_count(&self, p: usize) -> usize {
        self.cells_below(p, self.cells)
    }

    /// The axis cell at local index `j` of processor coordinate `p`
    /// (`j < local_count(p)`): the inverse of [`Axis::local_index`]. O(1).
    fn nth_cell(&self, p: usize, j: usize) -> usize {
        match self.k {
            0 => p * self.block_size() + j,
            k => (j / k) * k * self.procs + p * k + j % k,
        }
    }

    /// How many cells of processor coordinate `p < procs` lie below axis
    /// cell `c` (`c <= cells`). O(1).
    fn cells_below(&self, p: usize, c: usize) -> usize {
        match self.k {
            0 => {
                // The last processor absorbs everything past its start
                // (matches `owner`'s min-clamp).
                let below = c.saturating_sub(p * self.block_size());
                if p == self.procs - 1 {
                    below
                } else {
                    below.min(self.block_size())
                }
            }
            k => {
                let round = k * self.procs;
                (c / round) * k + (c % round).saturating_sub(p * k).min(k)
            }
        }
    }

    /// Axis cells owned by processor coordinate `p`, increasing (empty for
    /// `p >= procs`). O(count).
    pub fn local_cells(&self, p: usize) -> Vec<usize> {
        self.local_runs(p, self.cells)
            .into_iter()
            .flat_map(|(c, len)| c..c + len)
            .collect()
    }

    /// [`Axis::local_cells`] below cell `below` as `(first cell, len)`
    /// runs of consecutive cells, increasing: BLOCK is one run, CYCLIC(k)
    /// runs of at most `k` every `k * procs` cells. O(runs below `below`).
    fn local_runs(&self, p: usize, below: usize) -> Vec<(usize, usize)> {
        if p >= self.procs {
            return Vec::new();
        }
        let end = self.cells.min(below);
        if self.k == 0 {
            let first = p * self.block_size();
            let count = self.local_count(p).min(end.saturating_sub(first));
            return if count == 0 {
                Vec::new()
            } else {
                vec![(first, count)]
            };
        }
        (p * self.k..end)
            .step_by(self.k * self.procs)
            .map(|c| (c, self.k.min(end - c)))
            .collect()
    }

    /// How many of the cells `c, c + 1, …` (at most `len`, and never
    /// past the axis end) share `c`'s owner at consecutive local
    /// indices. O(1): a BLOCK run ends at the owner's block end (the last
    /// processor's block at the axis end), a CYCLIC(k) run at the end of
    /// its block of `k` unless one processor owns the whole axis.
    fn piece_len(&self, c: usize, len: usize) -> usize {
        let end = if self.k == 0 {
            let owner = self.owner(c);
            if owner == self.procs - 1 {
                self.cells
            } else {
                (owner + 1) * self.block_size()
            }
        } else if self.procs == 1 {
            self.cells
        } else {
            c + self.k - c % self.k
        };
        len.min(end.min(self.cells) - c)
    }
}

/// Closed-form owner and local offset of the cell at `coord` under the
/// row-major composition of `axes` (the processor grid is row-major
/// too). Local offsets are dense per rank and increase with the
/// row-major linearization of `coord` — the invariant every d/streams
/// distribution must satisfy so that local storage order matches file
/// block order.
pub fn composed_place(axes: &[Axis], coord: &[usize]) -> (usize, usize) {
    debug_assert_eq!(axes.len(), coord.len());
    let mut rank = 0usize;
    let mut local = 0usize;
    for (ax, &c) in axes.iter().zip(coord) {
        let p = ax.owner(c);
        rank = rank * ax.procs + p;
        local = local * ax.local_count(p) + ax.local_index(c);
    }
    (rank, local)
}

/// The cell at local offset `j` (`j <` the rank's cell count) of the
/// processor-grid rank `rank`, as a row-major linear index: the inverse
/// of [`composed_place`]. O(axes).
fn composed_nth_cell(axes: &[Axis], mut rank: usize, mut j: usize) -> usize {
    let mut cell = 0;
    let mut scale = 1;
    for ax in axes.iter().rev() {
        let p = rank % ax.procs;
        rank /= ax.procs;
        let count = ax.local_count(p);
        cell += ax.nth_cell(p, j % count) * scale;
        j /= count;
        scale *= ax.cells;
    }
    cell
}

/// How many cells of the processor-grid rank `rank` have a row-major
/// linear index below `t` (`t <=` the cell count). Innermost axis first:
/// the cells below `t` in one slice along axes `i..` are the owned
/// slices below `t`'s coordinate on axis `i`, plus the cells below `t`
/// within its own slice if the rank owns that coordinate. O(axes).
fn composed_cells_below(axes: &[Axis], mut rank: usize, t: usize) -> usize {
    if t == 0 {
        return 0;
    }
    let mut below = 0;
    let mut inner = 1;
    let mut stride = 1;
    for (i, ax) in axes.iter().enumerate().rev() {
        let p = rank % ax.procs;
        rank /= ax.procs;
        let c = if i == 0 {
            t / stride
        } else {
            (t / stride) % ax.cells
        };
        let own = c < ax.cells && ax.owner(c) == p;
        below = ax.cells_below(p, c) * inner + if own { below } else { 0 };
        inner *= ax.local_count(p);
        stride *= ax.cells;
    }
    below
}

/// Cells the processor-grid rank `rank` owns under the composition of
/// `axes`, as increasing row-major linear indices (empty for a rank off
/// the grid). O(count).
pub fn composed_local_cells(axes: &[Axis], rank: usize) -> Vec<usize> {
    composed_local_runs(axes, rank, usize::MAX)
        .into_iter()
        .flat_map(|(t, len)| t..t + len)
        .collect()
}

/// [`composed_local_cells`] as `(first cell, len)` runs: the cross
/// product of the leading axes' owned cells with the last axis's owned
/// runs, so each run lies within one row of the last axis. O(runs).
fn composed_local_runs(axes: &[Axis], rank: usize, below: usize) -> Vec<(usize, usize)> {
    if rank >= axes.iter().map(|ax| ax.procs).product() || axes.iter().any(|ax| ax.cells == 0) {
        return Vec::new();
    }
    let mut coords = vec![0usize; axes.len()];
    let mut r = rank;
    for (ax, p) in axes.iter().zip(&mut coords).rev() {
        *p = r % ax.procs;
        r /= ax.procs;
    }
    let Some((last, lead)) = axes.split_last() else {
        return vec![(0, 1)];
    };
    // Only prefixes below `cap` hold a cell below `below`, where one
    // prefix unit spans `span` cells.
    let mut prefixes = vec![0usize];
    let mut span: usize = axes.iter().map(|ax| ax.cells).product();
    for (ax, &p) in lead.iter().zip(&coords) {
        span /= ax.cells;
        let cap = below.div_ceil(span);
        prefixes = prefixes
            .iter()
            .flat_map(|&prefix| {
                let base = prefix * ax.cells;
                ax.local_runs(p, cap.saturating_sub(base))
                    .into_iter()
                    .flat_map(move |(c, len)| base + c..base + c + len)
            })
            .collect();
    }
    let p = coords[axes.len() - 1];
    prefixes
        .iter()
        .flat_map(|&prefix| {
            let base = prefix * last.cells;
            last.local_runs(p, below.saturating_sub(base))
                .into_iter()
                .map(move |(c, len)| (base + c, len))
        })
        .collect()
}

/// A template of `len` cells distributed over `nprocs` processors.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Distribution {
    len: usize,
    nprocs: usize,
    kind: DistKind,
}

impl Distribution {
    /// Create a distribution; validates parameters.
    pub fn new(len: usize, nprocs: usize, kind: DistKind) -> Result<Self, CollectionError> {
        if nprocs == 0 {
            return Err(CollectionError::BadDistribution(
                "nprocs must be at least 1".into(),
            ));
        }
        if let DistKind::BlockCyclic(0) = kind {
            return Err(CollectionError::BadDistribution(
                "BLOCK-CYCLIC block size must be at least 1".into(),
            ));
        }
        // A stored header can claim any parameters: the placement
        // arithmetic (a round of `k * nprocs` cells, `len + nprocs`) must
        // fit a usize.
        let k = if let DistKind::BlockCyclic(k) = kind {
            k
        } else {
            1
        };
        if k.checked_mul(nprocs)
            .and_then(|r| r.checked_add(len))
            .is_none()
        {
            return Err(CollectionError::BadDistribution(format!(
                "{kind:?} over {nprocs} procs and {len} cells overflows"
            )));
        }
        if let DistKind::Composed2d(c) = kind {
            if c.rows == 0 || c.grid_rows == 0 {
                return Err(CollectionError::BadDistribution(
                    "composed 2-D shape extents must be at least 1".into(),
                ));
            }
            if !len.is_multiple_of(c.rows as usize) {
                return Err(CollectionError::BadDistribution(format!(
                    "composed 2-D rows {} must divide template length {len}",
                    c.rows
                )));
            }
            if !nprocs.is_multiple_of(c.grid_rows as usize) {
                return Err(CollectionError::BadDistribution(format!(
                    "composed 2-D grid rows {} must divide processor count {nprocs}",
                    c.grid_rows
                )));
            }
        }
        Ok(Distribution { len, nprocs, kind })
    }

    /// The per-axis view of a composed pattern (`None` for 1-D kinds).
    /// Axes are `[rows, cols]`, row-major over cells and processors.
    pub fn axes(&self) -> Option<[Axis; 2]> {
        match self.kind {
            DistKind::Composed2d(c) => {
                let rows = c.rows as usize;
                let grid_rows = c.grid_rows as usize;
                Some([
                    Axis {
                        cells: rows,
                        procs: grid_rows,
                        k: c.row_k as usize,
                    },
                    Axis {
                        cells: self.len / rows,
                        procs: self.nprocs / grid_rows,
                        k: c.col_k as usize,
                    },
                ])
            }
            _ => None,
        }
    }

    /// Template length.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the template is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of processors.
    pub fn nprocs(&self) -> usize {
        self.nprocs
    }

    /// The distribution pattern.
    pub fn kind(&self) -> DistKind {
        self.kind
    }

    /// Block size of the BLOCK pattern (`ceil(len / nprocs)`, min 1).
    fn block_size(&self) -> usize {
        self.len.div_ceil(self.nprocs).max(1)
    }

    /// Owning processor of template cell `t`.
    pub fn owner(&self, t: usize) -> Result<usize, CollectionError> {
        if t >= self.len {
            return Err(CollectionError::TemplateOverflow {
                template_index: t,
                template_len: self.len,
            });
        }
        Ok(self.place(t)?.0)
    }

    /// Closed-form placement of template cell `t`: its owning rank and
    /// its dense local offset on that rank, in O(1).
    pub fn place(&self, t: usize) -> Result<(usize, usize), CollectionError> {
        if t >= self.len {
            return Err(CollectionError::TemplateOverflow {
                template_index: t,
                template_len: self.len,
            });
        }
        Ok(match self.kind {
            DistKind::Block => {
                let owner = (t / self.block_size()).min(self.nprocs - 1);
                (owner, t - owner * self.block_size())
            }
            DistKind::Cyclic => (t % self.nprocs, t / self.nprocs),
            DistKind::BlockCyclic(k) => {
                ((t / k) % self.nprocs, (t / (k * self.nprocs)) * k + t % k)
            }
            DistKind::Composed2d(_) => {
                let axes = self.axes().expect("composed kind has axes");
                let cols = axes[1].cells;
                composed_place(&axes, &[t / cols, t % cols])
            }
        })
    }

    /// Local slot of template cell `t` on its owner. Local slots on each
    /// rank are dense, starting at 0, and increase with `t`.
    pub fn local_index(&self, t: usize) -> Result<usize, CollectionError> {
        if t >= self.len {
            return Err(CollectionError::TemplateOverflow {
                template_index: t,
                template_len: self.len,
            });
        }
        Ok(self.place(t)?.1)
    }

    /// Number of template cells owned by `rank` (0 for `rank >= nprocs`),
    /// in O(1).
    pub fn local_count(&self, rank: usize) -> usize {
        self.cells_below(rank, self.len)
    }

    /// Template cells owned by `rank`, in local-slot (increasing) order;
    /// empty for `rank >= nprocs`. Closed-form in O(local count), never a
    /// scan of the template: streams call this per record per rank.
    pub fn local_cells(&self, rank: usize) -> Vec<usize> {
        self.local_runs(rank, self.len)
            .into_iter()
            .flat_map(|(t, len)| t..t + len)
            .collect()
    }

    /// [`Distribution::local_cells`] below cell `below` as increasing
    /// `(first cell, len)` runs of consecutive cells, in O(runs below
    /// `below`): one run for BLOCK, runs of at most `k` for CYCLIC(k) and
    /// BLOCK-CYCLIC(k), and the owned column runs of each owned row for a
    /// composed pattern.
    pub(crate) fn local_runs(&self, rank: usize, below: usize) -> Vec<(usize, usize)> {
        match self.axes() {
            Some(axes) => composed_local_runs(&axes, rank, below),
            None => self.axis().local_runs(rank, below),
        }
    }

    /// `rank`'s cells from local offset `j` on, as far as they are
    /// consecutive cells and at most `max` of them (`j + max <=
    /// local_count(rank)`): `(first cell, run length)`, the length at
    /// least 1 when `max` is. O(1) for the 1-D kinds, O(axes) composed.
    pub(crate) fn local_run(
        &self,
        rank: usize,
        j: usize,
        max: usize,
    ) -> Result<(usize, usize), CollectionError> {
        // A rank's consecutive cells sit at consecutive local offsets, so
        // its run from `first` is the piece that starts there.
        match self.axes() {
            Some(axes) => {
                let first = composed_nth_cell(&axes, rank, j);
                Ok((first, self.piece(first, max)?.2))
            }
            None => {
                let axis = self.axis();
                let first = axis.nth_cell(rank, j);
                Ok((first, axis.piece_len(first, max)))
            }
        }
    }

    /// How many of `rank`'s cells lie below template cell `t` (`t <=
    /// len()`), in O(1); 0 for `rank >= nprocs`.
    pub(crate) fn cells_below(&self, rank: usize, t: usize) -> usize {
        if rank >= self.nprocs {
            return 0;
        }
        match self.axes() {
            Some(axes) => composed_cells_below(&axes, rank, t),
            None => self.axis().cells_below(rank, t),
        }
    }

    /// The longest prefix of template cells `t, t + 1, …, t + len - 1`
    /// (`t + len <= len()`) that one rank owns at consecutive local
    /// offsets: `(owner, local offset of t, prefix length)`. O(1).
    pub fn piece(&self, t: usize, len: usize) -> Result<(usize, usize, usize), CollectionError> {
        let (owner, local) = self.place(t)?;
        if len == 0 {
            return Ok((owner, local, 0));
        }
        let Some([rows, cols]) = self.axes() else {
            return Ok((owner, local, self.axis().piece_len(t, len)));
        };
        // Within a row the column axis decides; a piece that reaches the
        // row end carries on into the next row only if that row's first
        // cell is the very next slot on the same rank.
        let c = t % cols.cells;
        let first = cols.piece_len(c, len);
        if first == len
            || c + first < cols.cells
            || self.place(t + first)? != (owner, local + first)
        {
            return Ok((owner, local, first));
        }
        // Unless the rank owns whole rows, the piece ends in that row.
        let rest = len - first;
        if cols.piece_len(0, cols.cells) < cols.cells {
            return Ok((owner, local, first + cols.piece_len(0, rest)));
        }
        // Whole rows follow for as long as the row axis keeps them on one
        // processor at consecutive local indices, then a partial row.
        let run = rows.piece_len(t / cols.cells + 1, rows.cells);
        let whole = (rest / cols.cells).min(run);
        let tail = if whole < run { rest % cols.cells } else { 0 };
        Ok((owner, local, first + whole * cols.cells + tail))
    }

    /// The single axis a 1-D kind is (BLOCK is CYCLIC with `k = 0`).
    fn axis(&self) -> Axis {
        let k = match self.kind {
            DistKind::Block => 0,
            DistKind::Cyclic => 1,
            DistKind::BlockCyclic(k) => k,
            DistKind::Composed2d(_) => unreachable!("composed kinds have two axes"),
        };
        Axis {
            cells: self.len,
            procs: self.nprocs,
            k,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_consistency(d: &Distribution) {
        // owner/local_index/local_count/local_cells must agree.
        let mut counts = vec![0usize; d.nprocs()];
        for t in 0..d.len() {
            let o = d.owner(t).unwrap();
            let l = d.local_index(t).unwrap();
            assert_eq!(l, counts[o], "cell {t}: local slots must be dense in order");
            counts[o] += 1;
        }
        for (r, &count) in counts.iter().enumerate() {
            assert_eq!(count, d.local_count(r), "rank {r} count");
            let cells = d.local_cells(r);
            assert_eq!(cells.len(), count);
            for (slot, &t) in cells.iter().enumerate() {
                assert_eq!(d.owner(t).unwrap(), r);
                assert_eq!(d.local_index(t).unwrap(), slot);
                let (first, len) = d.local_run(r, slot, count - slot).unwrap();
                assert_eq!(first, t);
                let run = cells[slot..]
                    .windows(2)
                    .take_while(|w| w[0] + 1 == w[1])
                    .count();
                assert_eq!(len, run + 1, "rank {r} run at slot {slot}");
            }
            for t in 0..=d.len() {
                let below = cells.iter().filter(|&&c| c < t).count();
                assert_eq!(d.cells_below(r, t), below, "rank {r} below {t}");
            }
        }
        assert_eq!(d.cells_below(d.nprocs(), d.len()), 0);
        assert_eq!(counts.iter().sum::<usize>(), d.len());
    }

    #[test]
    fn block_distribution_is_consistent() {
        for (len, np) in [(12, 4), (13, 4), (3, 4), (0, 2), (16, 1), (7, 3)] {
            check_consistency(&Distribution::new(len, np, DistKind::Block).unwrap());
        }
    }

    #[test]
    fn cyclic_distribution_is_consistent() {
        for (len, np) in [(12, 4), (13, 4), (3, 4), (0, 2), (16, 1), (7, 3)] {
            check_consistency(&Distribution::new(len, np, DistKind::Cyclic).unwrap());
        }
    }

    #[test]
    fn block_cyclic_distribution_is_consistent() {
        for (len, np, k) in [
            (12, 4, 2),
            (13, 4, 3),
            (3, 4, 2),
            (25, 3, 4),
            (16, 1, 5),
            (9, 2, 10),
        ] {
            check_consistency(&Distribution::new(len, np, DistKind::BlockCyclic(k)).unwrap());
        }
    }

    #[test]
    fn block_puts_contiguous_ranges_on_each_rank() {
        let d = Distribution::new(12, 3, DistKind::Block).unwrap();
        assert_eq!(d.local_cells(0), vec![0, 1, 2, 3]);
        assert_eq!(d.local_cells(1), vec![4, 5, 6, 7]);
        assert_eq!(d.local_cells(2), vec![8, 9, 10, 11]);
    }

    #[test]
    fn cyclic_deals_cells_round_robin() {
        let d = Distribution::new(7, 3, DistKind::Cyclic).unwrap();
        assert_eq!(d.local_cells(0), vec![0, 3, 6]);
        assert_eq!(d.local_cells(1), vec![1, 4]);
        assert_eq!(d.local_cells(2), vec![2, 5]);
    }

    #[test]
    fn block_cyclic_deals_blocks() {
        let d = Distribution::new(10, 2, DistKind::BlockCyclic(2)).unwrap();
        assert_eq!(d.local_cells(0), vec![0, 1, 4, 5, 8, 9]);
        assert_eq!(d.local_cells(1), vec![2, 3, 6, 7]);
    }

    #[test]
    fn invalid_parameters_are_rejected() {
        assert!(Distribution::new(4, 0, DistKind::Block).is_err());
        assert!(Distribution::new(4, 2, DistKind::BlockCyclic(0)).is_err());
    }

    #[test]
    fn out_of_range_cells_are_rejected() {
        let d = Distribution::new(4, 2, DistKind::Block).unwrap();
        assert!(d.owner(4).is_err());
        assert!(d.local_index(4).is_err());
    }

    #[test]
    fn kind_codes_roundtrip() {
        for kind in [
            DistKind::Block,
            DistKind::Cyclic,
            DistKind::BlockCyclic(7),
            DistKind::Composed2d(Composed2d {
                rows: 6,
                grid_rows: 2,
                row_k: 0,
                col_k: 3,
            }),
        ] {
            assert_eq!(DistKind::from_code(kind.code(), kind.param()), Some(kind));
        }
        assert_eq!(DistKind::from_code(99, 0), None);
        assert_eq!(DistKind::from_code(2, 0), None);
        // A composed shape with a zero extent never decodes.
        assert_eq!(DistKind::from_code(3, 0), None);
    }

    fn composed(rows: u32, grid_rows: u16, row_k: u8, col_k: u8) -> DistKind {
        DistKind::Composed2d(Composed2d {
            rows,
            grid_rows,
            row_k,
            col_k,
        })
    }

    #[test]
    fn composed_2d_distribution_is_consistent() {
        for (len, np, kind) in [
            (24, 4, composed(4, 2, 0, 0)),  // (BLOCK, BLOCK) on 2x2
            (24, 4, composed(6, 2, 1, 0)),  // (CYCLIC, BLOCK)
            (36, 6, composed(6, 3, 2, 1)),  // (CYCLIC(2), CYCLIC)
            (30, 6, composed(5, 2, 0, 3)),  // (BLOCK, CYCLIC(3))
            (16, 1, composed(4, 1, 1, 1)),  // single rank
            (0, 4, composed(7, 2, 0, 0)),   // empty template
            (12, 12, composed(3, 3, 1, 2)), // more procs than a row
            (40, 4, composed(10, 4, 3, 0)), // 4x1 grid (column degenerate)
        ] {
            check_consistency(&Distribution::new(len, np, kind).unwrap());
        }
    }

    #[test]
    fn composed_2d_matches_manual_block_block_placement() {
        // 4x6 cells on a 2x2 grid, both axes BLOCK: quadrant layout.
        let d = Distribution::new(24, 4, composed(4, 2, 0, 0)).unwrap();
        assert_eq!(d.local_cells(0), vec![0, 1, 2, 6, 7, 8]);
        assert_eq!(d.local_cells(1), vec![3, 4, 5, 9, 10, 11]);
        assert_eq!(d.local_cells(2), vec![12, 13, 14, 18, 19, 20]);
        assert_eq!(d.local_cells(3), vec![15, 16, 17, 21, 22, 23]);
    }

    #[test]
    fn composed_2d_rejects_non_dividing_shapes() {
        assert!(Distribution::new(10, 4, composed(3, 2, 0, 0)).is_err());
        assert!(Distribution::new(12, 3, composed(3, 2, 0, 0)).is_err());
        assert!(Distribution::new(12, 2, composed(0, 1, 0, 0)).is_err());
    }

    #[test]
    fn single_axis_composition_matches_1d_kinds() {
        // A degenerate 1xN composition along the column axis must place
        // cells exactly like the corresponding 1-D distribution.
        for (k, kind_1d) in [
            (0u8, DistKind::Block),
            (1, DistKind::Cyclic),
            (3, DistKind::BlockCyclic(3)),
        ] {
            let c = Distribution::new(13, 3, composed(1, 1, 0, k)).unwrap();
            let d = Distribution::new(13, 3, kind_1d).unwrap();
            for t in 0..13 {
                assert_eq!(c.place(t).unwrap(), d.place(t).unwrap(), "cell {t}");
            }
        }
    }

    #[test]
    fn place_agrees_with_owner_and_local_index() {
        for kind in [
            DistKind::Block,
            DistKind::Cyclic,
            DistKind::BlockCyclic(2),
            composed(3, 2, 1, 0),
        ] {
            let d = Distribution::new(12, 4, kind).unwrap();
            for t in 0..12 {
                let (r, l) = d.place(t).unwrap();
                assert_eq!(r, d.owner(t).unwrap());
                assert_eq!(l, d.local_index(t).unwrap());
            }
        }
        assert!(Distribution::new(4, 2, DistKind::Block)
            .unwrap()
            .place(4)
            .is_err());
    }

    #[test]
    fn three_axis_composition_is_dense_and_ordered() {
        // The generic axis machinery is n-D even though the wire format
        // projects 2-D: exercise a 3-D composition directly.
        let axes = [
            Axis {
                cells: 4,
                procs: 2,
                k: 0,
            },
            Axis {
                cells: 6,
                procs: 3,
                k: 2,
            },
            Axis {
                cells: 5,
                procs: 2,
                k: 1,
            },
        ];
        let nprocs = 2 * 3 * 2;
        let mut cells = vec![Vec::new(); nprocs];
        for x in 0..4 {
            for y in 0..6 {
                for z in 0..5 {
                    let (rank, local) = composed_place(&axes, &[x, y, z]);
                    assert!(rank < nprocs);
                    assert_eq!(local, cells[rank].len(), "slots dense in row-major order");
                    cells[rank].push((x * 6 + y) * 5 + z);
                }
            }
        }
        for (rank, owned) in cells.iter().enumerate() {
            assert_eq!(
                owned.len(),
                composed_cells_below(&axes, rank, 4 * 6 * 5),
                "rank {rank}"
            );
            assert_eq!(*owned, composed_local_cells(&axes, rank), "rank {rank}");
            for (j, &t) in owned.iter().enumerate() {
                assert_eq!(composed_nth_cell(&axes, rank, j), t, "rank {rank} slot {j}");
            }
            for t in 0..=4 * 6 * 5 {
                let below = owned.iter().filter(|&&c| c < t).count();
                assert_eq!(composed_cells_below(&axes, rank, t), below, "rank {rank}");
            }
        }
        assert!(composed_local_cells(&axes, nprocs).is_empty());
        assert_eq!(cells.iter().map(Vec::len).sum::<usize>(), 4 * 6 * 5);
    }

    #[test]
    fn more_procs_than_cells_leaves_some_ranks_empty() {
        let d = Distribution::new(2, 5, DistKind::Block).unwrap();
        check_consistency(&d);
        assert_eq!(d.local_count(0), 1);
        assert_eq!(d.local_count(1), 1);
        assert_eq!(d.local_count(4), 0);
    }
}
