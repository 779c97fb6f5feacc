//! Summed-area tables (2-D prefix sums).

use serde::{Deserialize, Serialize};

use crate::DenseGrid;

/// A summed-area table over a [`DenseGrid`].
///
/// Stores `(cols + 1) × (rows + 1)` prefix sums so any axis-aligned block
/// of cells can be summed in O(1). This is the backbone of query answering
/// for every grid-based synopsis: a rectangle query decomposes into at most
/// nine cell blocks (interior, four edges, four corners), each resolved
/// with a single table lookup.
///
/// Sums are accumulated in `f64`. For the cell counts and grid sizes used
/// in this workspace (≤ 2²⁴ cells, counts ≤ 10⁷) the rounding error is
/// far below the noise the privacy mechanisms add.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SummedAreaTable {
    cols: usize,
    rows: usize,
    /// `(cols + 1) * (rows + 1)` row-major prefix sums; entry `(c, r)`
    /// holds the sum of all cells with column `< c` and row `< r`.
    prefix: Vec<f64>,
}

impl SummedAreaTable {
    /// Builds the prefix-sum table of a grid.
    pub fn new(grid: &DenseGrid) -> Self {
        let cols = grid.cols();
        let rows = grid.rows();
        let stride = cols + 1;
        let mut prefix = vec![0.0f64; stride * (rows + 1)];
        for (r, row) in grid.values().chunks_exact(cols).enumerate() {
            prefix[(r + 1) * stride + 1..(r + 2) * stride].copy_from_slice(row);
        }
        prefix_sums_in_place(&mut prefix, stride);
        SummedAreaTable { cols, rows, prefix }
    }

    /// Number of grid columns covered.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of grid rows covered.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Sum of the half-open cell block `cols [c0, c1) × rows [r0, r1)`.
    ///
    /// Out-of-range bounds are clamped; empty ranges yield `0.0`.
    #[inline]
    pub fn sum(&self, c0: usize, r0: usize, c1: usize, r1: usize) -> f64 {
        let c0 = c0.min(self.cols);
        let c1 = c1.min(self.cols);
        let r0 = r0.min(self.rows);
        let r1 = r1.min(self.rows);
        if c0 >= c1 || r0 >= r1 {
            return 0.0;
        }
        block_sum(&self.prefix, self.cols + 1, c0, r0, c1, r1)
    }

    /// Sum of every cell in the grid.
    #[inline]
    pub fn total(&self) -> f64 {
        self.sum(0, 0, self.cols, self.rows)
    }

    /// Estimated resident size in bytes: the struct itself plus the
    /// owned prefix-sum array. Used by serving-side memory budgets.
    pub fn memory_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.prefix.len() * std::mem::size_of::<f64>()
    }
}

/// Turns slot values stored at `(c + 1, r + 1)` of a row-major table
/// with `stride` columns (first row and column zero) into prefix sums in
/// place: entry `(c, r)` becomes the sum of all slots with column `< c`
/// and row `< r`. Accumulates row by row, so every table built this way
/// rounds the same.
pub(crate) fn prefix_sums_in_place(table: &mut [f64], stride: usize) {
    for r in 1..table.len() / stride {
        let mut row_acc = 0.0;
        for c in 1..stride {
            row_acc += table[r * stride + c];
            // prefix[r][c] = prefix[r-1][c] + running row sum
            table[r * stride + c] = table[(r - 1) * stride + c] + row_acc;
        }
    }
}

/// Sum of the slot block `cols [c0, c1) × rows [r0, r1)` of a prefix-sum
/// table with `stride` columns. The bounds must be in range and
/// non-empty.
#[inline]
pub(crate) fn block_sum(
    prefix: &[f64],
    stride: usize,
    c0: usize,
    r0: usize,
    c1: usize,
    r1: usize,
) -> f64 {
    prefix[r1 * stride + c1] - prefix[r0 * stride + c1] - prefix[r1 * stride + c0]
        + prefix[r0 * stride + c0]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Domain;

    fn grid_from(vals: &[&[f64]]) -> DenseGrid {
        let rows = vals.len();
        let cols = vals[0].len();
        let domain = Domain::from_corners(0.0, 0.0, cols as f64, rows as f64).unwrap();
        let mut g = DenseGrid::zeros(domain, cols, rows).unwrap();
        for (r, row) in vals.iter().enumerate() {
            for (c, v) in row.iter().enumerate() {
                g.set(c, r, *v);
            }
        }
        g
    }

    #[test]
    fn matches_naive_sums() {
        let g = grid_from(&[
            &[1.0, 2.0, 3.0, 4.0],
            &[5.0, 6.0, 7.0, 8.0],
            &[9.0, 10.0, 11.0, 12.0],
        ]);
        let sat = SummedAreaTable::new(&g);
        for c0 in 0..=4 {
            for c1 in c0..=4 {
                for r0 in 0..=3 {
                    for r1 in r0..=3 {
                        let mut naive = 0.0;
                        for c in c0..c1 {
                            for r in r0..r1 {
                                naive += g.get(c, r);
                            }
                        }
                        assert!(
                            (sat.sum(c0, r0, c1, r1) - naive).abs() < 1e-9,
                            "block ({c0},{r0})..({c1},{r1})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn clamps_out_of_range() {
        let g = grid_from(&[&[1.0, 1.0], &[1.0, 1.0]]);
        let sat = SummedAreaTable::new(&g);
        assert_eq!(sat.sum(0, 0, 100, 100), 4.0);
        assert_eq!(sat.sum(5, 5, 9, 9), 0.0);
    }

    #[test]
    fn empty_range_is_zero() {
        let g = grid_from(&[&[3.0]]);
        let sat = SummedAreaTable::new(&g);
        assert_eq!(sat.sum(0, 0, 0, 1), 0.0);
        assert_eq!(sat.sum(0, 0, 1, 0), 0.0);
        assert_eq!(sat.total(), 3.0);
    }

    #[test]
    fn handles_negative_values() {
        // Noisy counts can be negative; the table must not assume
        // non-negativity.
        let g = grid_from(&[&[-1.0, 2.0], &[3.0, -4.0]]);
        let sat = SummedAreaTable::new(&g);
        assert!((sat.total() - 0.0).abs() < 1e-12);
        assert!((sat.sum(0, 0, 1, 1) - -1.0).abs() < 1e-12);
        assert!((sat.sum(1, 1, 2, 2) - -4.0).abs() < 1e-12);
    }
}
