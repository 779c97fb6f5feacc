//! Query-time indexes over arbitrary rectangle partitions.
//!
//! A published synopsis is just a list of `(Rect, f64)` leaf cells. The
//! naive way to answer a rectangle count query from it — test every cell
//! for overlap — is O(cells) per query, which makes large releases
//! unusable at serving scale. This module compiles a cell list **once**
//! into an index that answers in (poly)logarithmic time. There are three
//! paths, tried in this order:
//!
//! * [`LatticeIndex`] — every cell edge lies (bitwise) on one common
//!   rectilinear lattice small enough to afford: uniform grids,
//!   hierarchy and wavelet leaves, adaptive grids with a fixed second
//!   level. The cells are scattered onto that lattice and summed into
//!   prefix sums; a query is two binary searches per axis plus O(1)
//!   prefix-sum lookups.
//! * [`BlockIndex`] — the cells form a two-level partition: a coarse
//!   grid of lines no cell crosses, and inside each coarse block a
//!   lattice of its own. This is the shape of every adaptive-grid
//!   release, whose second-level grid size varies per first-level cell
//!   so that no affordable common lattice exists. A query sums the fully
//!   covered blocks through one coarse prefix-sum lookup and answers
//!   only the blocks on its rim through their own lattices.
//! * [`BandIndex`] — the general path, for irregular partitions (KD
//!   trees, hand-built releases). Cells are bucketed into *bands*
//!   of identical y-extent, each band keeping its cells sorted by `x0`
//!   with prefix sums; bands intersecting the query's y-range are found
//!   through a segment tree over band start coordinates with max-end
//!   pruning, and every tree node doubles as a level of a coarse
//!   y-skip-list: it pre-aggregates its subtree's bounding extents and
//!   value sum, so a subtree lying entirely inside the query is
//!   absorbed in O(1) instead of stabbing each band. A query costs
//!   O(log bands + boundary·log cells-per-band), where only the bands
//!   *partially* covered at the query's rim are stabbed — wide
//!   dashboard-style queries touch O(log bands) nodes total instead of
//!   O(bands).
//!
//! All three reproduce the *uniformity assumption* semantics of
//! [`Rect::overlap_fraction`] exactly (up to floating-point roundoff):
//! a cell with value `v` contributes `v · |cell ∩ query| / |cell|`.
//! [`CellIndex::build`] picks the first path that applies and is
//! affordable, so callers never need to know which partition shape they
//! are holding.

use crate::sat::{block_sum, prefix_sums_in_place};
use crate::{Rect, MAX_GRID_CELLS};

/// Maximum blow-up factor a lattice may pay: scattering `n` cells onto
/// a lattice of more than `LATTICE_BLOWUP_CAP · n` slots falls back to
/// the next path instead (an adversarially irregular partition can
/// induce an O(n²) lattice). The block path applies the same cap to
/// every block and to its coarse grid.
const LATTICE_BLOWUP_CAP: usize = 8;

/// Relative tolerance for merging near-equal coordinates: y-extents
/// into one band, and a coarse line with the drifted edge of the block
/// before it.
///
/// Adaptive-grid level-2 subdivision computes cell edges as
/// `parent_y0 + i · (height / m₂)`, so two cells meant to share a row
/// can disagree by a few ULPs of float drift. Snapping such extents
/// into the first-seen band keeps the index tight (one band per
/// logical row instead of one per drifted bit pattern) while
/// perturbing any answer by at most the same relative amount — far
/// below the 1e-9 equivalence budget the compiled surface is tested
/// against.
///
/// The tolerance scales with `max(band height, |y|)`: ULP drift is
/// relative to the coordinate's *magnitude*, so a thin band far from
/// the origin (projected coordinates, e.g. UTM metres around 10⁶)
/// drifts by far more than its own height. At 1e-12 (~4 ULPs of the
/// magnitude) genuinely distinct rows — separated by at least a cell
/// height — stay far outside the snap.
const BAND_Y_SNAP_REL: f64 = 1e-12;

/// A compiled index over a rectangle partition, ready to answer
/// uniformity-assumption range-count queries in sublinear time.
#[derive(Debug, Clone)]
pub enum CellIndex {
    /// All cells align to a common rectilinear lattice.
    Lattice(LatticeIndex),
    /// Two-level partition: a coarse grid of per-block lattices.
    Blocks(BlockIndex),
    /// Irregular partition: sorted row-band index.
    Bands(BandIndex),
}

impl CellIndex {
    /// Compiles a cell list. Infallible: any list (including empty or
    /// degenerate cells, which can never contribute to an answer) gets
    /// an index; the lattice path is tried first, then the block path,
    /// then bands.
    pub fn build(cells: &[(Rect, f64)]) -> CellIndex {
        let live = live_cells(cells);
        if let Some(lattice) = LatticeIndex::from_live(&live) {
            return CellIndex::Lattice(lattice);
        }
        if let Some(blocks) = BlockIndex::from_live(&live) {
            return CellIndex::Blocks(blocks);
        }
        CellIndex::Bands(BandIndex::build(cells))
    }

    /// Estimated count inside `query` under the uniformity assumption;
    /// exactly the sum `Σ vᵢ · cellᵢ.overlap_fraction(query)` the linear
    /// scan computes, up to floating-point roundoff.
    pub fn answer(&self, query: &Rect) -> f64 {
        match self {
            CellIndex::Lattice(l) => l.answer(query),
            CellIndex::Blocks(b) => b.answer(query),
            CellIndex::Bands(b) => b.answer(query),
        }
    }

    /// Sum of all cell values (the partition's total estimate), O(1).
    pub fn total(&self) -> f64 {
        match self {
            CellIndex::Lattice(l) => l.total(),
            CellIndex::Blocks(b) => b.total(),
            CellIndex::Bands(b) => b.total(),
        }
    }

    /// Estimated resident size in bytes (struct plus owned arrays).
    ///
    /// This is the quantity serving-side memory budgets account for: it
    /// is dominated by the heap arrays (edge coordinates and prefix
    /// sums for the lattice and block paths, bands and tree aggregates
    /// for the band path), so the enum discriminant padding is ignored.
    /// Every array is allocated (or shrunk) to its exact length, so the
    /// figure is the heap actually held.
    pub fn memory_bytes(&self) -> usize {
        match self {
            CellIndex::Lattice(l) => l.memory_bytes(),
            CellIndex::Blocks(b) => b.memory_bytes(),
            CellIndex::Bands(b) => b.memory_bytes(),
        }
    }
}

/// The cells that can contribute to an answer: degenerate (zero-area)
/// ones never do, and their coordinates must not shape an index.
fn live_cells(cells: &[(Rect, f64)]) -> Vec<&(Rect, f64)> {
    cells.iter().filter(|(r, _)| !r.is_empty()).collect()
}

/// Appends the sorted, deduplicated edge coordinates of one axis to
/// `out` and returns how many were appended.
fn push_edges(
    cells: &[&(Rect, f64)],
    lo: impl Fn(&Rect) -> f64,
    hi: impl Fn(&Rect) -> f64,
    out: &mut Vec<f64>,
) -> usize {
    let start = out.len();
    for (rect, _) in cells {
        out.push(lo(rect));
        out.push(hi(rect));
    }
    out[start..].sort_unstable_by(f64::total_cmp);
    let mut kept = start;
    for i in start..out.len() {
        if kept == start || out[i] != out[kept - 1] {
            out[kept] = out[i];
            kept += 1;
        }
    }
    out.truncate(kept);
    kept - start
}

/// Sorted, deduplicated edge coordinates of one axis, allocated to fit.
fn collect_edges(
    cells: &[&(Rect, f64)],
    lo: impl Fn(&Rect) -> f64,
    hi: impl Fn(&Rect) -> f64,
) -> Vec<f64> {
    let mut edges = Vec::with_capacity(cells.len() * 2);
    push_edges(cells, lo, hi, &mut edges);
    edges.shrink_to_fit();
    edges
}

/// Index of `x` in a sorted edge array, or `None` when `x` is not
/// (bitwise) one of the edges.
fn edge_index(edges: &[f64], x: f64) -> Option<usize> {
    let i = edges.partition_point(|&e| e < x);
    (i < edges.len() && edges[i] == x).then_some(i)
}

/// Scatters `cells` onto the lattice `xs × ys` and turns `prefix` (zeroed,
/// `xs.len() · ys.len()` long) into its row-major prefix sums: entry
/// `(c, r)` holds the sum of all slots with column `< c` and row `< r`.
/// Cells spanning several slots are split with their value distributed
/// by area share. `None` when a cell edge is not a lattice line — the
/// partition is not rectilinear after all.
fn fill_prefix_sums(
    cells: &[&(Rect, f64)],
    xs: &[f64],
    ys: &[f64],
    prefix: &mut [f64],
) -> Option<()> {
    let stride = xs.len();
    for (rect, v) in cells {
        let ix0 = edge_index(xs, rect.x0())?;
        let ix1 = edge_index(xs, rect.x1())?;
        let iy0 = edge_index(ys, rect.y0())?;
        let iy1 = edge_index(ys, rect.y1())?;
        debug_assert!(ix0 < ix1 && iy0 < iy1);
        let area = rect.area();
        for iy in iy0..iy1 {
            let h = ys[iy + 1] - ys[iy];
            for ix in ix0..ix1 {
                let w = xs[ix + 1] - xs[ix];
                prefix[(iy + 1) * stride + ix + 1] += v * (w * h / area);
            }
        }
    }
    prefix_sums_in_place(prefix, stride);
    Some(())
}

/// Per-axis decomposition of the continuous interval `[q0, q1]` against
/// a sorted edge array: at most three segments of lattice slots
/// `(first_slot, one_past_last_slot, weight)` — a partial leading slot,
/// a run of fully covered slots, and a partial trailing slot.
fn axis_segments(edges: &[f64], q0: f64, q1: f64) -> [Option<(usize, usize, f64)>; 3] {
    let mut out = [None, None, None];
    let n = edges.len() - 1; // number of slots
    let q0 = q0.max(edges[0]);
    let q1 = q1.min(edges[n]);
    if q1 <= q0 {
        return out;
    }
    // Slot containing q0: rightmost edge <= q0.
    let i0 = edges
        .partition_point(|&e| e <= q0)
        .saturating_sub(1)
        .min(n - 1);
    // Slot containing q1 (as an exclusive upper bound).
    let i1 = edges
        .partition_point(|&e| e < q1)
        .saturating_sub(1)
        .min(n - 1)
        .max(i0);
    let frac = |i: usize| {
        let w = edges[i + 1] - edges[i];
        if w <= 0.0 {
            return 0.0;
        }
        ((q1.min(edges[i + 1]) - q0.max(edges[i])) / w).clamp(0.0, 1.0)
    };
    if i0 == i1 {
        out[0] = Some((i0, i0 + 1, frac(i0)));
        return out;
    }
    out[0] = Some((i0, i0 + 1, frac(i0)));
    if i0 + 1 < i1 {
        out[1] = Some((i0 + 1, i1, 1.0));
    }
    out[2] = Some((i1, i1 + 1, frac(i1)));
    out
}

/// The lattice answer over flat slices: `xs` and `ys` are the ascending
/// edges, `prefix` the `xs.len() · ys.len()` prefix sums
/// [`fill_prefix_sums`] built. Shared by [`LatticeIndex`] and every
/// block of a [`BlockIndex`].
fn lattice_answer(xs: &[f64], ys: &[f64], prefix: &[f64], query: &Rect) -> f64 {
    let xsegs = axis_segments(xs, query.x0(), query.x1());
    let ysegs = axis_segments(ys, query.y0(), query.y1());
    let stride = xs.len();
    let mut sum = 0.0;
    for &(r0, r1, wy) in ysegs.iter().flatten() {
        if wy <= 0.0 {
            continue;
        }
        for &(c0, c1, wx) in xsegs.iter().flatten() {
            let w = wx * wy;
            if w > 0.0 {
                sum += w * block_sum(prefix, stride, c0, r0, c1, r1);
            }
        }
    }
    sum
}

/// The regular-lattice fast path: cells scattered onto the rectilinear
/// lattice induced by their own edges, summed into prefix sums.
///
/// Lattice slots need not be equi-width — only *shared*: every cell
/// edge must coincide (bitwise) with a lattice line. Cells spanning
/// several slots are split with their value distributed proportionally
/// to area, which leaves every uniformity-assumption query answer
/// unchanged.
#[derive(Debug, Clone)]
pub struct LatticeIndex {
    /// `cols + 1` ascending x edge coordinates.
    xs: Vec<f64>,
    /// `rows + 1` ascending y edge coordinates.
    ys: Vec<f64>,
    /// `(cols + 1) · (rows + 1)` row-major prefix sums over the
    /// scattered `cols × rows` value matrix.
    prefix: Vec<f64>,
}

impl LatticeIndex {
    /// Attempts the lattice compilation; `None` when the cells do not
    /// align to their induced lattice or the lattice would be more than
    /// `LATTICE_BLOWUP_CAP` (8) times larger than the cell list.
    pub fn try_build(cells: &[(Rect, f64)]) -> Option<LatticeIndex> {
        LatticeIndex::from_live(&live_cells(cells))
    }

    fn from_live(live: &[&(Rect, f64)]) -> Option<LatticeIndex> {
        if live.is_empty() {
            return None;
        }
        // Edges come from the live cells only: a degenerate cell off the
        // lattice must not inflate the slot grid or stretch its bounds.
        let xs = collect_edges(live, |r| r.x0(), |r| r.x1());
        let ys = collect_edges(live, |r| r.y0(), |r| r.y1());
        if xs.len() < 2 || ys.len() < 2 {
            return None;
        }
        let slots = (xs.len() - 1).checked_mul(ys.len() - 1)?;
        if slots > MAX_GRID_CELLS || slots > live.len().saturating_mul(LATTICE_BLOWUP_CAP) {
            return None;
        }
        let mut prefix = vec![0.0; xs.len() * ys.len()];
        fill_prefix_sums(live, &xs, &ys, &mut prefix)?;
        Some(LatticeIndex { xs, ys, prefix })
    }

    /// Lattice shape as `(cols, rows)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.xs.len() - 1, self.ys.len() - 1)
    }

    /// Answers a query in O(log cols + log rows).
    pub fn answer(&self, query: &Rect) -> f64 {
        lattice_answer(&self.xs, &self.ys, &self.prefix, query)
    }

    /// Sum of all values.
    pub fn total(&self) -> f64 {
        *self.prefix.last().expect("a lattice has at least one slot")
    }

    /// Estimated resident size in bytes: the struct, both edge arrays
    /// and the prefix sums.
    pub fn memory_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + (self.xs.len() + self.ys.len() + self.prefix.len()) * std::mem::size_of::<f64>()
    }
}

/// Coarse lines of one axis: the coordinates no cell crosses, ascending,
/// from the lowest cell edge to the highest.
///
/// A sweep over the cells' intervals sorted by start: a new coarse slot
/// begins where an interval starts at or after the furthest end seen so
/// far, within [`BAND_Y_SNAP_REL`] — a block's last sub-edge
/// `x0 + (x1 − x0)·m/m` can land an ULP past the parent edge the next
/// block starts at.
fn coarse_lines(cells: &[&(Rect, f64)], extent: impl Fn(&Rect) -> (f64, f64)) -> Vec<f64> {
    let mut spans: Vec<(f64, f64)> = cells.iter().map(|(r, _)| extent(r)).collect();
    spans.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
    let mut lines = vec![spans[0].0];
    let mut reach = spans[0].1;
    for &(lo, hi) in &spans[1..] {
        let start = lines[lines.len() - 1];
        let tol = start.abs().max(reach.abs()).max(lo.abs()) * BAND_Y_SNAP_REL;
        if lo >= reach - tol {
            lines.push(lo);
        }
        reach = reach.max(hi);
    }
    lines.push(reach);
    lines.shrink_to_fit();
    lines
}

/// The coarse slots `[a, b)` the interval `[q0, q1]` touches, split
/// around the fully covered run `[fa, fb)`: the partial slots are
/// `[a, fa)` and `[fb, b)`, at most one each. `None` on a miss.
fn coarse_span(lines: &[f64], q0: f64, q1: f64) -> Option<(usize, usize, usize, usize)> {
    let n = lines.len() - 1;
    let a = lines[1..].partition_point(|&e| e <= q0);
    let b = lines[..n].partition_point(|&e| e < q1);
    if a >= b {
        return None;
    }
    let fa = if lines[a] >= q0 { a } else { a + 1 };
    let fb = if lines[b] <= q1 { b } else { b - 1 }.max(fa);
    Some((a, fa, fb, b))
}

/// Where one block of a [`BlockIndex`] lives in the shared arena: from
/// `offset`, `cols + 1` x edges, `rows + 1` y edges and
/// `(cols + 1) · (rows + 1)` prefix sums. An empty block has
/// `cols == rows == 0` and no arena entries.
#[derive(Debug, Clone, Copy)]
struct BlockHeader {
    offset: usize,
    cols: u32,
    rows: u32,
}

/// The two-level path: a coarse grid of blocks, each block a lattice of
/// its own.
///
/// The coarse lines are the coordinates no cell crosses (found
/// generically, not from any hint about the producing method), and each
/// cell belongs to the block holding its centre. A query sums the
/// blocks it covers fully through one lookup in the prefix sums of the
/// block totals, and answers each block on its rim — at most two per
/// covered row or column, plus the partially covered rows and columns —
/// through that block's lattice. Every block's edges and prefix sums
/// sit back to back in one arena, so the index is a handful of
/// allocations whatever the block count.
#[derive(Debug, Clone)]
pub struct BlockIndex {
    /// `cols + 1` ascending coarse x lines.
    cx: Vec<f64>,
    /// `rows + 1` ascending coarse y lines.
    cy: Vec<f64>,
    /// `(cols + 1) · (rows + 1)` row-major prefix sums of the block
    /// totals.
    coarse: Vec<f64>,
    /// One header per block, row-major over the coarse grid.
    blocks: Vec<BlockHeader>,
    /// Every block's edges and prefix sums.
    arena: Vec<f64>,
}

impl BlockIndex {
    /// Attempts the block compilation; `None` when the coarse grid is
    /// smaller than 2×2, has more than `LATTICE_BLOWUP_CAP` (8) blocks
    /// per cell, or some block's cells do not form an affordable
    /// lattice.
    pub fn try_build(cells: &[(Rect, f64)]) -> Option<BlockIndex> {
        BlockIndex::from_live(&live_cells(cells))
    }

    fn from_live(live: &[&(Rect, f64)]) -> Option<BlockIndex> {
        if live.is_empty() {
            return None;
        }
        let cx = coarse_lines(live, |r| (r.x0(), r.x1()));
        let cy = coarse_lines(live, |r| (r.y0(), r.y1()));
        let (cols, rows) = (cx.len() - 1, cy.len() - 1);
        if cols < 2 || rows < 2 {
            return None;
        }
        let count = cols.checked_mul(rows)?;
        if count > live.len().saturating_mul(LATTICE_BLOWUP_CAP) {
            return None;
        }

        // Bucket the cells by block (a counting sort on the centre's
        // coarse slot).
        let slot = |lines: &[f64], v: f64| lines[1..lines.len() - 1].partition_point(|&e| e <= v);
        let keys: Vec<usize> = live
            .iter()
            .map(|(r, _)| {
                let c = r.center();
                slot(&cy, c.y) * cols + slot(&cx, c.x)
            })
            .collect();
        let mut starts = vec![0usize; count + 1];
        for &k in &keys {
            starts[k + 1] += 1;
        }
        for i in 0..count {
            starts[i + 1] += starts[i];
        }
        let mut fill = starts.clone();
        let mut order = vec![live[0]; live.len()];
        for (&cell, &k) in live.iter().zip(&keys) {
            order[fill[k]] = cell;
            fill[k] += 1;
        }

        let mut arena = Vec::new();
        let mut blocks = Vec::with_capacity(count);
        let mut coarse = vec![0.0; (cols + 1) * (rows + 1)];
        for (b, bounds) in starts.windows(2).enumerate() {
            let members = &order[bounds[0]..bounds[1]];
            let offset = arena.len();
            if members.is_empty() {
                blocks.push(BlockHeader {
                    offset,
                    cols: 0,
                    rows: 0,
                });
                continue;
            }
            let nx = push_edges(members, |r| r.x0(), |r| r.x1(), &mut arena);
            let ny = push_edges(members, |r| r.y0(), |r| r.y1(), &mut arena);
            if (nx - 1) * (ny - 1) > members.len() * LATTICE_BLOWUP_CAP {
                return None;
            }
            let base = arena.len();
            arena.resize(base + nx * ny, 0.0);
            let (edges, prefix) = arena.split_at_mut(base);
            let (xs, ys) = edges[offset..].split_at(nx);
            fill_prefix_sums(members, xs, ys, prefix)?;
            coarse[(b / cols + 1) * (cols + 1) + b % cols + 1] = prefix[prefix.len() - 1];
            blocks.push(BlockHeader {
                offset,
                cols: u32::try_from(nx - 1).ok()?,
                rows: u32::try_from(ny - 1).ok()?,
            });
        }
        arena.shrink_to_fit();
        prefix_sums_in_place(&mut coarse, cols + 1);
        Some(BlockIndex {
            cx,
            cy,
            coarse,
            blocks,
            arena,
        })
    }

    /// Coarse grid shape as `(cols, rows)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.cx.len() - 1, self.cy.len() - 1)
    }

    /// Answer of one block's lattice.
    fn block_answer(&self, block: usize, query: &Rect) -> f64 {
        let BlockHeader { offset, cols, rows } = self.blocks[block];
        if cols == 0 {
            return 0.0;
        }
        let (nx, ny) = (cols as usize + 1, rows as usize + 1);
        let data = &self.arena[offset..offset + nx + ny + nx * ny];
        let (xs, rest) = data.split_at(nx);
        let (ys, prefix) = rest.split_at(ny);
        lattice_answer(xs, ys, prefix, query)
    }

    /// Answers a query with one coarse prefix-sum lookup plus one block
    /// lattice answer per rim block.
    pub fn answer(&self, query: &Rect) -> f64 {
        let Some((c0, fc0, fc1, c1)) = coarse_span(&self.cx, query.x0(), query.x1()) else {
            return 0.0;
        };
        let Some((r0, fr0, fr1, r1)) = coarse_span(&self.cy, query.y0(), query.y1()) else {
            return 0.0;
        };
        let cols = self.cx.len() - 1;
        let mut sum = if fc0 < fc1 && fr0 < fr1 {
            block_sum(&self.coarse, cols + 1, fc0, fr0, fc1, fr1)
        } else {
            0.0
        };
        for r in r0..r1 {
            if (fr0..fr1).contains(&r) {
                for c in (c0..fc0).chain(fc1..c1) {
                    sum += self.block_answer(r * cols + c, query);
                }
            } else {
                for c in c0..c1 {
                    sum += self.block_answer(r * cols + c, query);
                }
            }
        }
        sum
    }

    /// Sum of all values.
    pub fn total(&self) -> f64 {
        self.coarse[self.coarse.len() - 1]
    }

    /// Estimated resident size in bytes: the struct, the coarse lines
    /// and prefix sums, the block headers and the arena.
    pub fn memory_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + (self.cx.len() + self.cy.len() + self.coarse.len() + self.arena.len())
                * std::mem::size_of::<f64>()
            + self.blocks.len() * std::mem::size_of::<BlockHeader>()
    }
}

/// A snap group under construction: the band's y-extent plus the
/// member cells collected before the per-band x-sort.
type BandGroup<'a> = (f64, f64, Vec<&'a (Rect, f64)>);

/// One band: all cells sharing the same y-extent, sorted by `x0`.
#[derive(Debug, Clone)]
struct Band {
    y0: f64,
    y1: f64,
    /// Ascending cell left edges.
    x0s: Vec<f64>,
    /// Ascending cell right edges (cells in a band are x-disjoint, so
    /// sorting by `x0` sorts `x1` too).
    x1s: Vec<f64>,
    /// Cell values, same order.
    values: Vec<f64>,
    /// `values` prefix sums (`len + 1` entries).
    prefix: Vec<f64>,
    /// Set when the band's cells overlap in x (not a true partition):
    /// answer this band by linear scan to stay faithful to the
    /// reference semantics.
    overlapping: bool,
}

impl Band {
    /// Contribution of this band to `query`, already restricted to the
    /// band's y-slab.
    fn answer(&self, query: &Rect) -> f64 {
        let fy = (query.y1().min(self.y1) - query.y0().max(self.y0)) / (self.y1 - self.y0);
        if fy <= 0.0 {
            return 0.0;
        }
        let (qx0, qx1) = (query.x0(), query.x1());
        if self.overlapping {
            let mut sum = 0.0;
            for i in 0..self.values.len() {
                let w = self.x1s[i] - self.x0s[i];
                if w <= 0.0 {
                    continue;
                }
                let ov = qx1.min(self.x1s[i]) - qx0.max(self.x0s[i]);
                if ov > 0.0 {
                    sum += self.values[i] * (ov / w).clamp(0.0, 1.0);
                }
            }
            return sum * fy.clamp(0.0, 1.0);
        }
        // First cell whose right edge passes qx0, first cell starting at
        // or after qx1: the query's x-span is exactly [lo, hi).
        let lo = self.x1s.partition_point(|&x| x <= qx0);
        let hi = self.x0s.partition_point(|&x| x < qx1);
        if lo >= hi {
            return 0.0;
        }
        let mut sum = self.prefix[hi] - self.prefix[lo];
        // The two boundary cells may be partially covered.
        for i in [lo, hi - 1] {
            let w = self.x1s[i] - self.x0s[i];
            if w <= 0.0 {
                sum -= self.values[i];
                continue;
            }
            let fx = ((qx1.min(self.x1s[i]) - qx0.max(self.x0s[i])) / w).clamp(0.0, 1.0);
            sum -= self.values[i] * (1.0 - fx);
            if lo == hi - 1 {
                break; // single boundary cell: adjust once
            }
        }
        sum * fy.clamp(0.0, 1.0)
    }
}

/// Traversal statistics of one [`BandIndex`] query — how much of the
/// band structure the answer actually touched.
///
/// Exposed so regression tests (and capacity planning) can assert the
/// skip-list bound: a query fully covering `k` interior bands must
/// absorb them through O(log bands) aggregated nodes
/// (`nodes_absorbed`) and stab only the O(1) partially covered rim
/// bands (`bands_stabbed`), never scale with `k`.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct BandStabStats {
    /// Segment-tree nodes visited (including absorbed and pruned ones).
    pub nodes_visited: usize,
    /// Bands answered individually (partial overlap at the query rim).
    pub bands_stabbed: usize,
    /// Subtrees absorbed whole through their pre-aggregated sum.
    pub nodes_absorbed: usize,
}

/// The general path: a sorted row-bucket / interval index with a
/// coarse y-skip-list over the bands.
///
/// Bands are ordered by `y0`; a segment tree storing each subrange's
/// maximum `y1` prunes whole subtrees that end before the query starts,
/// so a stab visits O(log bands) tree nodes plus the bands actually
/// intersecting the query's y-range. Each node additionally carries its
/// subtree's bounding y/x extents and total value — the coarse levels
/// of a deterministic skip list — so a subtree *fully contained* in the
/// query contributes its precomputed sum in O(1) instead of being
/// walked band by band. Wide queries therefore decompose canonically:
/// O(log bands) absorbed nodes plus the partially covered rim bands.
#[derive(Debug, Clone)]
pub struct BandIndex {
    bands: Vec<Band>,
    /// Segment-tree node aggregates (1-indexed, size `2·bands.len()`
    /// rounded up to a power of two). One struct per node keeps the
    /// prune *and* absorb tests on a single cache line — the stab walk
    /// is memory-bound, so split parallel arrays would cost one miss
    /// per field instead of one per node.
    nodes: Vec<NodeAgg>,
    /// Leaf count of the segment tree (power of two ≥ `bands.len()`).
    tree_base: usize,
    total: f64,
}

/// Per-subtree aggregates: the pruning bound plus the skip-list
/// payload. Empty slots hold sign-appropriate infinities (and sum 0)
/// so they prune and absorb vacuously without edge guards.
#[derive(Debug, Clone, Copy)]
struct NodeAgg {
    /// Maximum band `y1` (`-inf` when empty) — the pruning bound.
    max_y1: f64,
    /// Minimum band `y0` (`+inf` when empty). Bands are y0-sorted, so
    /// this equals the leftmost live band's `y0`.
    min_y0: f64,
    /// Minimum cell `x0` (`+inf` when empty).
    min_x0: f64,
    /// Maximum cell `x1` (`-inf` when empty).
    max_x1: f64,
    /// Total cell value — the sum absorbed when the subtree is fully
    /// inside the query.
    sum: f64,
}

impl NodeAgg {
    const EMPTY: NodeAgg = NodeAgg {
        max_y1: f64::NEG_INFINITY,
        min_y0: f64::INFINITY,
        min_x0: f64::INFINITY,
        max_x1: f64::NEG_INFINITY,
        sum: 0.0,
    };

    fn merge(a: &NodeAgg, b: &NodeAgg) -> NodeAgg {
        NodeAgg {
            max_y1: a.max_y1.max(b.max_y1),
            min_y0: a.min_y0.min(b.min_y0),
            min_x0: a.min_x0.min(b.min_x0),
            max_x1: a.max_x1.max(b.max_x1),
            sum: a.sum + b.sum,
        }
    }
}

impl BandIndex {
    /// Groups cells into bands and builds the stabbing tree. Degenerate
    /// (zero-area) cells are dropped — they cannot contribute to any
    /// query.
    pub fn build(cells: &[(Rect, f64)]) -> BandIndex {
        // Group by exact y-extent.
        let mut sorted: Vec<&(Rect, f64)> = cells.iter().filter(|(r, _)| !r.is_empty()).collect();
        sorted.sort_by(|a, b| {
            a.0.y0()
                .total_cmp(&b.0.y0())
                .then(a.0.y1().total_cmp(&b.0.y1()))
                .then(a.0.x0().total_cmp(&b.0.x0()))
        });
        // Group into bands. The tolerance snap treats y-extents within a
        // few ULPs of the current band (float drift from derived
        // subdivision edges) as the same row; sorting by (y0, y1) makes
        // drifted twins adjacent, so comparing against the last group
        // suffices. Snapped members may arrive out of x-order (the sort
        // key ranked their drifted y0 first), so cells are grouped
        // first and each band x-sorted afterwards.
        let mut groups: Vec<BandGroup> = Vec::new();
        for cell in sorted {
            let rect = &cell.0;
            let same_band = groups.last().is_some_and(|(y0, y1, _)| {
                let scale = (y1 - y0).abs().max(y0.abs()).max(y1.abs());
                let tol = scale * BAND_Y_SNAP_REL;
                (y0 - rect.y0()).abs() <= tol && (y1 - rect.y1()).abs() <= tol
            });
            if !same_band {
                groups.push((rect.y0(), rect.y1(), Vec::new()));
            }
            groups.last_mut().expect("group exists").2.push(cell);
        }
        let mut bands: Vec<Band> = Vec::with_capacity(groups.len());
        for (y0, y1, mut members) in groups {
            members.sort_by(|a, b| a.0.x0().total_cmp(&b.0.x0()));
            let mut band = Band {
                y0,
                y1,
                x0s: Vec::with_capacity(members.len()),
                x1s: Vec::with_capacity(members.len()),
                values: Vec::with_capacity(members.len()),
                prefix: Vec::with_capacity(members.len() + 1),
                overlapping: false,
            };
            band.prefix.push(0.0);
            for (rect, v) in members {
                if let Some(&prev_x1) = band.x1s.last() {
                    if rect.x0() < prev_x1 {
                        band.overlapping = true;
                    }
                }
                band.x0s.push(rect.x0());
                band.x1s.push(rect.x1());
                band.values.push(*v);
                band.prefix
                    .push(band.prefix.last().expect("non-empty prefix") + v);
            }
            bands.push(band);
        }
        let total = bands
            .iter()
            .map(|b| b.prefix.last().expect("non-empty prefix"))
            .sum();

        // Aggregate segment tree over bands (which are sorted by y0):
        // max y1 for pruning, plus the skip-list payload — subtree
        // bounding extents and value sums — for O(1) absorption of
        // fully covered subtrees.
        let tree_base = bands.len().next_power_of_two().max(1);
        let mut nodes = vec![NodeAgg::EMPTY; 2 * tree_base];
        for (i, b) in bands.iter().enumerate() {
            nodes[tree_base + i] = NodeAgg {
                max_y1: b.y1,
                min_y0: b.y0,
                // Cells are x0-sorted, so the band's leftmost edge is
                // the first x0; right edges are only co-sorted for
                // disjoint bands, so take the explicit max.
                min_x0: b.x0s.first().copied().unwrap_or(f64::INFINITY),
                max_x1: b.x1s.iter().copied().fold(f64::NEG_INFINITY, f64::max),
                sum: *b.prefix.last().expect("non-empty prefix"),
            };
        }
        for i in (1..tree_base).rev() {
            nodes[i] = NodeAgg::merge(&nodes[2 * i], &nodes[2 * i + 1]);
        }
        BandIndex {
            bands,
            nodes,
            tree_base,
            total,
        }
    }

    /// Number of bands.
    pub fn band_count(&self) -> usize {
        self.bands.len()
    }

    /// Answers a query in O(log bands + boundary·log band-width) where
    /// `boundary` is the number of bands only *partially* covered by
    /// the query; fully covered interior runs are absorbed through the
    /// skip-list aggregates without being stabbed.
    pub fn answer(&self, query: &Rect) -> f64 {
        self.answer_with_stats(query).0
    }

    /// [`BandIndex::answer`] plus the [`BandStabStats`] describing how
    /// the tree walk decomposed the query — for skip-list regression
    /// tests and serving-side diagnostics.
    pub fn answer_with_stats(&self, query: &Rect) -> (f64, BandStabStats) {
        let mut stats = BandStabStats::default();
        if self.bands.is_empty() || query.is_empty() {
            return (0.0, stats);
        }
        // Candidate bands start before the query ends...
        let ub = self.bands.partition_point(|b| b.y0 < query.y1());
        if ub == 0 {
            return (0.0, stats);
        }
        // ...and the tree prunes those ending before the query starts.
        let mut sum = 0.0;
        self.stab(1, 0, self.tree_base, ub, query, &mut sum, &mut stats);
        (sum, stats)
    }

    /// Recursive pruned walk: node `node` covers band indices
    /// `[lo, hi)`; only indices `< ub` are candidates.
    #[allow(clippy::too_many_arguments)]
    fn stab(
        &self,
        node: usize,
        lo: usize,
        hi: usize,
        ub: usize,
        query: &Rect,
        sum: &mut f64,
        stats: &mut BandStabStats,
    ) {
        stats.nodes_visited += 1;
        let agg = &self.nodes[node];
        if lo >= ub || lo >= self.bands.len() || agg.max_y1 <= query.y0() {
            return;
        }
        // Coarse skip: every band in this subtree lies fully inside the
        // query (its y-extent inside [qy0, qy1], every cell's x-extent
        // inside [qx0, qx1]), so each contributes exactly its total and
        // the precomputed subtree sum is the exact answer share. A band
        // beyond `ub` can never pass this test — it would need
        // y1 ≤ qy1 ≤ y0, impossible for a non-degenerate band — and
        // empty slots pass vacuously with sum 0, so neither needs a
        // separate guard.
        // The x-conditions lead the chain: stab-heavy queries (narrow
        // in x, tall in y) fail them at every node, so they
        // short-circuit the test where it runs most often.
        if agg.min_x0 >= query.x0()
            && agg.max_x1 <= query.x1()
            && agg.min_y0 >= query.y0()
            && agg.max_y1 <= query.y1()
        {
            *sum += agg.sum;
            stats.nodes_absorbed += 1;
            return;
        }
        if hi - lo == 1 {
            *sum += self.bands[lo].answer(query);
            stats.bands_stabbed += 1;
            return;
        }
        let mid = (lo + hi) / 2;
        self.stab(2 * node, lo, mid, ub, query, sum, stats);
        self.stab(2 * node + 1, mid, hi, ub, query, sum, stats);
    }

    /// Sum of all values.
    pub fn total(&self) -> f64 {
        self.total
    }

    /// Estimated resident size in bytes: the struct, the per-band cell
    /// arrays and the segment-tree aggregates.
    pub fn memory_bytes(&self) -> usize {
        let bands: usize = self
            .bands
            .iter()
            .map(|b| {
                std::mem::size_of::<Band>()
                    + (b.x0s.len() + b.x1s.len() + b.values.len() + b.prefix.len())
                        * std::mem::size_of::<f64>()
            })
            .sum();
        std::mem::size_of::<Self>() + bands + self.nodes.len() * std::mem::size_of::<NodeAgg>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DenseGrid, Domain};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Reference semantics: the linear scan every index must match.
    fn linear_scan(cells: &[(Rect, f64)], q: &Rect) -> f64 {
        cells.iter().map(|(r, v)| v * r.overlap_fraction(q)).sum()
    }

    fn uniform_cells(cols: usize, rows: usize) -> Vec<(Rect, f64)> {
        let domain = Domain::from_corners(0.0, 0.0, 10.0, 6.0).unwrap();
        let grid = DenseGrid::from_fn(domain, cols, rows, |c, r| {
            ((c * 31 + r * 17) % 13) as f64 - 4.0
        })
        .unwrap();
        grid.iter_cells().map(|(_, _, rect, v)| (rect, v)).collect()
    }

    /// An AG-like two-level partition: a 4×4 top grid, each top cell
    /// subdivided into its own k×k subgrid.
    fn adaptive_cells() -> Vec<(Rect, f64)> {
        let domain = Domain::from_corners(-2.0, 1.0, 6.0, 9.0).unwrap();
        let mut cells = Vec::new();
        for row in 0..4 {
            for col in 0..4 {
                let parent = domain.cell_rect(4, 4, col, row);
                let k = 1 + (col * 5 + row * 3) % 4;
                for sr in 0..k {
                    for sc in 0..k {
                        let cell = parent.grid_cell(k, k, sc, sr);
                        cells.push((cell, ((sc + sr + col + row) as f64) - 2.5));
                    }
                }
            }
        }
        cells
    }

    /// A two-level partition whose second-level sizes `k(col, row)` vary
    /// too much for one affordable common lattice: an `m1 × m1` top grid
    /// over `domain`, each top cell subdivided into its own `k × k` grid.
    fn two_level_cells(
        domain: Rect,
        m1: usize,
        k: impl Fn(usize, usize) -> usize,
    ) -> Vec<(Rect, f64)> {
        let mut cells = Vec::new();
        for row in 0..m1 {
            for col in 0..m1 {
                let parent = domain.grid_cell(m1, m1, col, row);
                let k = k(col, row);
                for sr in 0..k {
                    for sc in 0..k {
                        let v = ((sc * 7 + sr * 3 + col + row) % 11) as f64 - 3.0;
                        cells.push((parent.grid_cell(k, k, sc, sr), v));
                    }
                }
            }
        }
        cells
    }

    /// Second-level sizes for up to 5×5 top grids: distinct primes
    /// along every row and column, so no inner line is shared by a
    /// whole row or column of blocks (which would split it into finer
    /// coarse slots).
    fn prime_k(col: usize, row: usize) -> usize {
        [2, 3, 5, 7, 11][(col + 2 * row) % 5]
    }

    /// Random queries over (and a little beyond) `domain`.
    fn random_queries(domain: &Rect, n: usize, seed: u64) -> Vec<Rect> {
        let mut rng = StdRng::seed_from_u64(seed);
        let (w, h) = (domain.width(), domain.height());
        (0..n)
            .map(|_| {
                let x = domain.x0() + rng.random_range(-0.1..1.0) * w;
                let y = domain.y0() + rng.random_range(-0.1..1.0) * h;
                let qw = rng.random_range(0.0..0.8) * w;
                let qh = rng.random_range(0.0..0.8) * h;
                Rect::new(x, y, x + qw, y + qh).unwrap()
            })
            .collect()
    }

    fn query_mix(domain: &Rect) -> Vec<Rect> {
        let (x0, y0, x1, y1) = (domain.x0(), domain.y0(), domain.x1(), domain.y1());
        let w = domain.width();
        let h = domain.height();
        vec![
            // Domain-spanning.
            *domain,
            Rect::new(x0 - w, y0 - h, x1 + w, y1 + h).unwrap(),
            // Slivers.
            Rect::new(x0 + 0.499 * w, y0, x0 + 0.501 * w, y1).unwrap(),
            Rect::new(x0, y0 + 0.1 * h, x1, y0 + 0.1001 * h).unwrap(),
            // Interior boxes.
            Rect::new(x0 + 0.25 * w, y0 + 0.25 * h, x0 + 0.75 * w, y0 + 0.5 * h).unwrap(),
            Rect::new(x0 + 0.1 * w, y0 + 0.6 * h, x0 + 0.2 * w, y0 + 0.9 * h).unwrap(),
            // Misses.
            Rect::new(x1 + 1.0, y1 + 1.0, x1 + 2.0, y1 + 2.0).unwrap(),
            Rect::new(x0 - 3.0, y0, x0 - 1.0, y1).unwrap(),
        ]
    }

    fn assert_matches_scan(cells: &[(Rect, f64)], index: &CellIndex, queries: &[Rect]) {
        for q in queries {
            let expect = linear_scan(cells, q);
            let got = index.answer(q);
            assert!(
                (got - expect).abs() <= 1e-9 * (1.0 + expect.abs()),
                "query {q:?}: index {got} vs scan {expect}"
            );
        }
    }

    #[test]
    fn uniform_grid_compiles_to_lattice() {
        let cells = uniform_cells(16, 12);
        let index = CellIndex::build(&cells);
        assert!(matches!(index, CellIndex::Lattice(_)));
        let domain = Rect::new(0.0, 0.0, 10.0, 6.0).unwrap();
        assert_matches_scan(&cells, &index, &query_mix(&domain));
        assert!((index.total() - linear_scan(&cells, &domain)).abs() < 1e-9);
    }

    #[test]
    fn adaptive_partition_compiles_and_matches() {
        let cells = adaptive_cells();
        let index = CellIndex::build(&cells);
        let domain = Rect::new(-2.0, 1.0, 6.0, 9.0).unwrap();
        assert_matches_scan(&cells, &index, &query_mix(&domain));
    }

    #[test]
    fn band_path_matches_on_irregular_partition() {
        // KD-like vertical strips of differing heights: no common
        // lattice small enough, so the band path must engage when the
        // lattice path is skipped.
        let cells = adaptive_cells();
        let index = CellIndex::Bands(BandIndex::build(&cells));
        let domain = Rect::new(-2.0, 1.0, 6.0, 9.0).unwrap();
        assert_matches_scan(&cells, &index, &query_mix(&domain));
    }

    #[test]
    fn random_queries_agree_on_both_paths() {
        let cells = adaptive_cells();
        let lattice = CellIndex::build(&cells);
        let bands = CellIndex::Bands(BandIndex::build(&cells));
        let mut rng = StdRng::seed_from_u64(17);
        for _ in 0..500 {
            let ax = rng.random_range(-3.0..7.0);
            let ay = rng.random_range(0.0..10.0);
            let w = rng.random_range(0.0..8.0);
            let h = rng.random_range(0.0..8.0);
            let q = Rect::new(ax, ay, ax + w, ay + h).unwrap();
            let expect = linear_scan(&cells, &q);
            for index in [&lattice, &bands] {
                let got = index.answer(&q);
                assert!(
                    (got - expect).abs() <= 1e-9 * (1.0 + expect.abs()),
                    "query {q:?}: {got} vs {expect}"
                );
            }
        }
    }

    #[test]
    fn single_cell_and_empty_inputs() {
        let empty = CellIndex::build(&[]);
        assert_eq!(empty.answer(&Rect::new(0.0, 0.0, 1.0, 1.0).unwrap()), 0.0);
        assert_eq!(empty.total(), 0.0);

        let one = vec![(Rect::new(0.0, 0.0, 2.0, 2.0).unwrap(), 8.0)];
        let index = CellIndex::build(&one);
        let q = Rect::new(0.0, 0.0, 1.0, 1.0).unwrap();
        assert!((index.answer(&q) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn degenerate_cells_are_ignored() {
        let cells = vec![
            (Rect::new(0.0, 0.0, 1.0, 1.0).unwrap(), 4.0),
            (Rect::new(1.0, 0.0, 1.0, 1.0).unwrap(), 99.0), // zero width
        ];
        let index = CellIndex::build(&cells);
        let q = Rect::new(0.0, 0.0, 2.0, 1.0).unwrap();
        assert!((index.answer(&q) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn degenerate_cells_do_not_inflate_the_lattice() {
        // A zero-area cell with off-lattice coordinates (even outside
        // the live bounding box) must not add lattice lines or stretch
        // the slot grid.
        let mut cells = uniform_cells(8, 8);
        cells.push((Rect::new(-5.0, 3.33, -5.0, 7.77).unwrap(), 42.0));
        match LatticeIndex::try_build(&cells) {
            Some(lattice) => assert_eq!(lattice.shape(), (8, 8)),
            None => panic!("lattice path must still engage"),
        }
    }

    #[test]
    fn near_equal_bands_snap_into_one() {
        // AG level-2 subdivision derives row edges as
        // `y0 + i · (h / m₂)`, so logically identical rows drift by a
        // few ULPs. The band index must snap them together instead of
        // opening one band per drifted bit pattern — and must keep its
        // sorted-x invariant even though drifted twins arrive out of
        // x-order from the (y0, y1, x0) sort.
        let rows = 6;
        let cols = 8;
        let mut cells = Vec::new();
        for r in 0..rows {
            for c in 0..cols {
                // Per-cell drift of ~1 ULP on both row edges, varying
                // with the column so x-order and y-order disagree.
                let drift = ((c % 3) as f64 - 1.0) * 2e-16;
                let y0 = r as f64 * (1.0 + drift);
                let y1 = (r + 1) as f64 * (1.0 + drift);
                let x0 = c as f64;
                cells.push((
                    Rect::new(x0, y0, x0 + 1.0, y1.max(y0 + 0.5)).unwrap(),
                    (r * cols + c) as f64 - 10.0,
                ));
            }
        }
        let index = BandIndex::build(&cells);
        assert_eq!(
            index.band_count(),
            rows,
            "drifted rows must merge into one band each"
        );
        // Row 0 drifts multiplicatively from y0 = 0, so its members all
        // share y0 = 0 exactly: the merge there exercises the x-resort,
        // while later rows exercise the y-tolerance.
        let wrapped = CellIndex::Bands(index);
        let domain = Rect::new(0.0, 0.0, cols as f64, rows as f64).unwrap();
        assert_matches_scan(&cells, &wrapped, &query_mix(&domain));
    }

    #[test]
    fn thin_bands_far_from_origin_still_snap() {
        // Projected coordinates (UTM-like): rows of height 0.1 around
        // y = 10⁶. ULP drift there is ~1.2e-10 — larger than a
        // height-relative tolerance would allow, so the snap must
        // scale with the coordinate magnitude.
        let base = 1.0e6;
        let rows = 4;
        let mut cells = Vec::new();
        for r in 0..rows {
            for c in 0..6 {
                let drift = ((c % 3) as f64 - 1.0) * 2.0e-10;
                let y0 = base + r as f64 * 0.1 + drift;
                let x0 = c as f64;
                cells.push((
                    Rect::new(x0, y0, x0 + 1.0, y0 + 0.1).unwrap(),
                    (r + c) as f64,
                ));
            }
        }
        let index = BandIndex::build(&cells);
        assert_eq!(index.band_count(), rows, "ULP-drifted UTM rows must merge");
        let wrapped = CellIndex::Bands(index);
        let domain = Rect::new(0.0, base, 6.0, base + 0.1 * rows as f64).unwrap();
        assert_matches_scan(&cells, &wrapped, &query_mix(&domain));
    }

    #[test]
    fn clearly_distinct_bands_do_not_snap() {
        // The tolerance is relative and tiny: rows 1e-6 apart (huge
        // compared to ULP drift) must stay separate bands.
        let cells = vec![
            (Rect::new(0.0, 0.0, 1.0, 1.0).unwrap(), 1.0),
            (Rect::new(0.0, 1e-6, 1.0, 1.0 + 1e-6).unwrap(), 2.0),
        ];
        let index = BandIndex::build(&cells);
        assert_eq!(index.band_count(), 2);
    }

    #[test]
    fn overlapping_cells_fall_back_to_scan_semantics() {
        // Not a partition: two cells overlap. The index must still match
        // the linear scan (per-band linear fallback).
        let cells = vec![
            (Rect::new(0.0, 0.0, 2.0, 1.0).unwrap(), 4.0),
            (Rect::new(1.0, 0.0, 3.0, 1.0).unwrap(), 2.0),
        ];
        let index = CellIndex::Bands(BandIndex::build(&cells));
        let domain = Rect::new(0.0, 0.0, 3.0, 1.0).unwrap();
        assert_matches_scan(&cells, &index, &query_mix(&domain));
    }

    #[test]
    fn lattice_declines_oversized_blowup() {
        // n cells whose edges induce an O(n²) lattice: staircase of
        // offset rows. try_build must decline, CellIndex must fall back.
        let n = 64;
        let mut cells = Vec::new();
        for i in 0..n {
            let y0 = i as f64;
            // Each row split at a unique offset.
            let split = 0.3 + 9.0 * (i as f64) / n as f64;
            cells.push((Rect::new(0.0, y0, split, y0 + 1.0).unwrap(), 1.0));
            cells.push((Rect::new(split, y0, 10.0, y0 + 1.0).unwrap(), 2.0));
        }
        assert!(LatticeIndex::try_build(&cells).is_none());
        let index = CellIndex::build(&cells);
        assert!(matches!(index, CellIndex::Bands(_)));
        let domain = Rect::new(0.0, 0.0, 10.0, n as f64).unwrap();
        assert_matches_scan(&cells, &index, &query_mix(&domain));
    }

    /// KD-like staircase partition: `n` rows, each split at a unique x
    /// offset, so no affordable lattice exists and every row is its own
    /// band.
    fn staircase_cells(n: usize) -> Vec<(Rect, f64)> {
        let mut cells = Vec::new();
        for i in 0..n {
            let y0 = i as f64;
            let split = 0.3 + 9.0 * (i as f64) / n as f64;
            cells.push((
                Rect::new(0.0, y0, split, y0 + 1.0).unwrap(),
                (i % 7) as f64 - 2.0,
            ));
            cells.push((Rect::new(split, y0, 10.0, y0 + 1.0).unwrap(), 2.0));
        }
        cells
    }

    #[test]
    fn skip_list_absorbs_wide_queries() {
        // A query fully covering interior bands and half-covering the
        // first and last one: the interior run must be absorbed through
        // aggregated nodes, leaving exactly the two rim bands stabbed.
        let n = 256;
        let cells = staircase_cells(n);
        let index = BandIndex::build(&cells);
        assert_eq!(index.band_count(), n);
        let wide = Rect::new(-1.0, 0.5, 11.0, n as f64 - 0.5).unwrap();
        let (got, stats) = index.answer_with_stats(&wide);
        let expect = linear_scan(&cells, &wide);
        assert!(
            (got - expect).abs() <= 1e-9 * (1.0 + expect.abs()),
            "wide query: {got} vs {expect}"
        );
        assert_eq!(stats.bands_stabbed, 2, "only the rim bands may be stabbed");
        assert!(
            stats.nodes_absorbed >= 2,
            "interior bands must be absorbed through aggregate nodes"
        );
        // A query covering everything absorbs at the root: one visit.
        let all = Rect::new(-1.0, -1.0, 11.0, n as f64 + 1.0).unwrap();
        let (got, stats) = index.answer_with_stats(&all);
        assert!((got - index.total()).abs() <= 1e-9 * (1.0 + index.total().abs()));
        assert_eq!(stats.nodes_visited, 1);
        assert_eq!(stats.nodes_absorbed, 1);
        assert_eq!(stats.bands_stabbed, 0);
    }

    #[test]
    fn skip_list_scales_logarithmically_with_band_count() {
        // Quadrupling the band count must grow the visited-node count
        // by O(log) — a handful of extra tree levels — while the
        // stabbed-band count stays constant at the two rim bands.
        let mut visited_by_n = Vec::new();
        for n in [64usize, 256, 1024] {
            let cells = staircase_cells(n);
            let index = BandIndex::build(&cells);
            let wide = Rect::new(-1.0, 0.5, 11.0, n as f64 - 0.5).unwrap();
            let (got, stats) = index.answer_with_stats(&wide);
            let expect = linear_scan(&cells, &wide);
            assert!((got - expect).abs() <= 1e-9 * (1.0 + expect.abs()));
            assert_eq!(stats.bands_stabbed, 2, "n = {n}");
            let log2n = n.ilog2() as usize;
            assert!(
                stats.nodes_visited <= 6 * log2n,
                "n = {n}: visited {} nodes, want O(log n)",
                stats.nodes_visited
            );
            visited_by_n.push(stats.nodes_visited);
        }
        // Each 4x step in bands may add at most ~4 levels of the walk
        // (two root-to-rim paths, two levels per 4x).
        for w in visited_by_n.windows(2) {
            assert!(
                w[1] <= w[0] + 16,
                "visited counts {visited_by_n:?} grow super-logarithmically"
            );
        }
    }

    #[test]
    fn skip_list_matches_scan_on_adversarial_sets() {
        // The absorb path must stay faithful on irregular and
        // overlapping (non-partition) inputs, including queries whose
        // edges coincide with band and cell boundaries.
        let mut adversarial = staircase_cells(48);
        // Overlapping extras: break the disjointness invariant.
        adversarial.push((Rect::new(2.0, 3.0, 9.0, 11.5).unwrap(), 5.0));
        adversarial.push((Rect::new(1.0, 3.0, 4.0, 11.5).unwrap(), -3.0));
        for cells in [adaptive_cells(), adversarial] {
            let index = BandIndex::build(&cells);
            let bbox = cells
                .iter()
                .fold(None::<Rect>, |acc, (r, _)| {
                    Some(match acc {
                        None => *r,
                        Some(b) => Rect::new(
                            b.x0().min(r.x0()),
                            b.y0().min(r.y0()),
                            b.x1().max(r.x1()),
                            b.y1().max(r.y1()),
                        )
                        .unwrap(),
                    })
                })
                .unwrap();
            let (x0, y0, x1, y1) = (bbox.x0(), bbox.y0(), bbox.x1(), bbox.y1());
            let (w, h) = (bbox.width(), bbox.height());
            let wrapped = CellIndex::Bands(index);
            let mut queries = query_mix(&bbox);
            queries.extend([
                // Wide interiors hitting the absorb path.
                Rect::new(x0 - 1.0, y0 + 0.1 * h, x1 + 1.0, y1 - 0.1 * h).unwrap(),
                Rect::new(x0 + 0.05 * w, y0 - 1.0, x1 - 0.05 * w, y1 + 1.0).unwrap(),
                // Band-aligned edges: absorb boundaries exactly on y0/y1.
                Rect::new(x0, y0 + 1.0, x1, y1 - 1.0).unwrap(),
            ]);
            assert_matches_scan(&cells, &wrapped, &queries);
        }
    }

    #[test]
    fn two_level_partition_compiles_to_blocks() {
        let domain = Rect::new(-2.0, 1.0, 6.0, 9.0).unwrap();
        let cells = two_level_cells(domain, 5, prime_k);
        assert!(LatticeIndex::try_build(&cells).is_none());
        let index = CellIndex::build(&cells);
        match &index {
            CellIndex::Blocks(b) => assert_eq!(b.shape(), (5, 5)),
            other => panic!("expected the block path, got {other:?}"),
        }
        let mut queries = query_mix(&domain);
        queries.extend(random_queries(&domain, 400, 23));
        // Block-aligned edges: fully covered blocks come from the
        // coarse prefix sums alone.
        let (a, b) = (domain.grid_cell(5, 5, 1, 1), domain.grid_cell(5, 5, 3, 4));
        queries.push(Rect::new(a.x0(), a.y0(), b.x1(), b.y1()).unwrap());
        queries.push(a);
        assert_matches_scan(&cells, &index, &queries);
        assert!((index.total() - linear_scan(&cells, &domain)).abs() < 1e-9);
    }

    #[test]
    fn ulp_drifted_block_borders_still_compile_to_blocks() {
        // A block's last sub-edge `x0 + (x1 − x0)·k/k` may land an ULP
        // on either side of the parent edge the next block starts at.
        // Past it, the blocks overlap by an ULP and only the snap
        // tolerance finds the coarse line; short of it, they leave an
        // ULP gap. Both must yield the same 4×4 coarse grid.
        let domain = Rect::new(0.1, 0.3, 7.7, 5.9).unwrap();
        for step in [1i64, -1] {
            let nudge = |v: f64| f64::from_bits((v.to_bits() as i64 + step) as u64);
            let mut cells = two_level_cells(domain, 4, prime_k);
            for (rect, _) in &mut cells {
                let x1 = if rect.x1() < domain.x1() {
                    nudge(rect.x1())
                } else {
                    rect.x1()
                };
                let y1 = if rect.y1() < domain.y1() {
                    nudge(rect.y1())
                } else {
                    rect.y1()
                };
                // Only the sub-cells on a block's far border drift.
                let on_x_border = (0..4).any(|c| rect.x1() == domain.grid_cell(4, 4, c, 0).x1());
                let on_y_border = (0..4).any(|r| rect.y1() == domain.grid_cell(4, 4, 0, r).y1());
                *rect = Rect::new(
                    rect.x0(),
                    rect.y0(),
                    if on_x_border { x1 } else { rect.x1() },
                    if on_y_border { y1 } else { rect.y1() },
                )
                .unwrap();
            }
            let index = BlockIndex::try_build(&cells).expect("drifted borders must compile");
            assert_eq!(index.shape(), (4, 4), "step {step}");
            let wrapped = CellIndex::Blocks(index);
            let mut queries = query_mix(&domain);
            queries.extend(random_queries(&domain, 300, 29));
            assert_matches_scan(&cells, &wrapped, &queries);
        }
    }

    #[test]
    fn empty_blocks_answer_zero() {
        // A hole in the partition: the centre block of a 3×3 coarse grid
        // holds no cells, so it is empty but still a block.
        let domain = Rect::new(0.0, 0.0, 9.0, 9.0).unwrap();
        let mut cells = two_level_cells(domain, 3, prime_k);
        let hole = domain.grid_cell(3, 3, 1, 1);
        cells.retain(|(r, _)| !hole.contains_rect(r));
        let index = BlockIndex::try_build(&cells).expect("a hole keeps the coarse lines");
        assert_eq!(index.shape(), (3, 3));
        let wrapped = CellIndex::Blocks(index);
        assert_eq!(wrapped.answer(&hole), 0.0);
        let mut queries = query_mix(&domain);
        queries.extend(random_queries(&domain, 300, 31));
        assert_matches_scan(&cells, &wrapped, &queries);
    }

    #[test]
    fn a_block_that_is_no_lattice_falls_to_bands() {
        // 2×2 coarse grid; the lower-left block is a staircase whose
        // induced lattice blows past the cap, so the block path declines
        // as a whole.
        let n = 64;
        let mut cells = staircase_cells(n);
        let h = n as f64;
        cells.push((Rect::new(10.0, 0.0, 20.0, h).unwrap(), 3.0));
        cells.push((Rect::new(0.0, h, 10.0, 2.0 * h).unwrap(), 5.0));
        cells.push((Rect::new(10.0, h, 20.0, 2.0 * h).unwrap(), 7.0));
        assert!(BlockIndex::try_build(&cells).is_none());
        let index = CellIndex::build(&cells);
        assert!(matches!(index, CellIndex::Bands(_)));
        let domain = Rect::new(0.0, 0.0, 20.0, 2.0 * h).unwrap();
        assert_matches_scan(&cells, &index, &query_mix(&domain));
    }

    #[test]
    fn one_by_n_coarse_shapes_decline() {
        // Vertical strips, each split at heights of its own: no y line
        // is shared, so the coarse grid is n×1. Transposed, it is 1×n.
        let splits = [0.0, 1.7, 2.9, 5.3, 8.0, 12.0];
        let mut strips = Vec::new();
        for (i, pair) in splits.windows(2).enumerate() {
            let k = 2 + i;
            for j in 0..k {
                let y0 = 10.0 * j as f64 / k as f64;
                let y1 = 10.0 * (j + 1) as f64 / k as f64;
                strips.push((Rect::new(pair[0], y0, pair[1], y1).unwrap(), 1.0));
            }
        }
        let transposed: Vec<(Rect, f64)> = strips
            .iter()
            .map(|(r, v)| (Rect::new(r.y0(), r.x0(), r.y1(), r.x1()).unwrap(), *v))
            .collect();
        assert!(BlockIndex::try_build(&strips).is_none());
        assert!(BlockIndex::try_build(&transposed).is_none());
        // One cell is a 1×1 coarse grid.
        let one = [(Rect::new(0.0, 0.0, 1.0, 1.0).unwrap(), 1.0)];
        assert!(BlockIndex::try_build(&one).is_none());
    }

    #[test]
    fn stored_index_arrays_are_allocated_to_fit() {
        // memory_bytes() counts lengths; the catalog's byte budget is
        // only honest if no array holds spare capacity behind them.
        let lattice = LatticeIndex::try_build(&uniform_cells(100, 100)).unwrap();
        for v in [&lattice.xs, &lattice.ys, &lattice.prefix] {
            assert_eq!(v.capacity(), v.len());
        }
        let domain = Rect::new(-2.0, 1.0, 6.0, 9.0).unwrap();
        let blocks = BlockIndex::try_build(&two_level_cells(domain, 5, prime_k)).unwrap();
        for v in [&blocks.cx, &blocks.cy, &blocks.coarse, &blocks.arena] {
            assert_eq!(v.capacity(), v.len());
        }
        assert_eq!(blocks.blocks.capacity(), blocks.blocks.len());
        let bands = BandIndex::build(&staircase_cells(100));
        assert_eq!(bands.bands.capacity(), bands.bands.len());
        assert_eq!(bands.nodes.capacity(), bands.nodes.len());
        for band in &bands.bands {
            for v in [&band.x0s, &band.x1s, &band.values, &band.prefix] {
                assert_eq!(v.capacity(), v.len());
            }
        }
    }

    #[test]
    fn axis_segment_weights_cover_interval() {
        let edges = vec![0.0, 1.0, 2.5, 2.5 + 1e-9, 7.0, 10.0];
        for (q0, q1) in [
            (0.0, 10.0),
            (0.5, 9.0),
            (1.2, 2.1),
            (2.5, 7.0),
            (-5.0, 50.0),
        ] {
            let segs = axis_segments(&edges, q0, q1);
            let covered: f64 = segs
                .iter()
                .flatten()
                .map(|&(a, b, w)| {
                    if b - a == 1 {
                        w * (edges[b] - edges[a])
                    } else {
                        edges[b] - edges[a]
                    }
                })
                .sum();
            let expect = (q1.min(10.0) - q0.max(0.0)).max(0.0);
            assert!(
                (covered - expect).abs() < 1e-9,
                "({q0},{q1}): covered {covered} expect {expect}"
            );
        }
    }
}
