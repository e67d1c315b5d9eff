//! Compressed sparse row (CSR) matrices.
//!
//! The matvec/matmul kernels are row-partitioned across the ambient
//! [`crate::par`] thread count once the matrix carries enough work
//! ([`CsrMatrix::PAR_MIN_NNZ`] stored entries / [`CsrMatrix::PAR_MIN_WORK`]
//! scalar multiplies); smaller problems always run serial. Each output row
//! is computed by exactly the same per-row loop either way, so results are
//! bit-identical at every thread count.

use crate::dense::DenseMatrix;
use crate::operator::LinearOperator;
use crate::par;

/// A sparse matrix in compressed sparse row format.
///
/// Duplicate entries passed to [`CsrMatrix::from_triplets`] are summed,
/// matching the usual assembly semantics for finite-element / graph
/// Laplacian matrices.
///
/// # Example
/// ```
/// use sgl_linalg::CsrMatrix;
/// let a = CsrMatrix::from_triplets(2, 2, &[(0, 0, 1.0), (0, 1, 2.0), (1, 1, 3.0)]);
/// assert_eq!(a.nnz(), 3);
/// assert_eq!(a.matvec(&[1.0, 1.0]), vec![3.0, 3.0]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    nrows: usize,
    ncols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    values: Vec<f64>,
}

impl CsrMatrix {
    /// Build from `(row, col, value)` triplets; duplicates are summed,
    /// explicit zeros are kept out of the structure.
    ///
    /// # Panics
    /// Panics if any index is out of bounds.
    pub fn from_triplets(nrows: usize, ncols: usize, triplets: &[(usize, usize, f64)]) -> Self {
        for &(r, c, _) in triplets {
            assert!(r < nrows && c < ncols, "from_triplets: index out of bounds");
        }
        // Count entries per row.
        let mut counts = vec![0usize; nrows];
        for &(r, _, _) in triplets {
            counts[r] += 1;
        }
        let mut row_ptr = vec![0usize; nrows + 1];
        for i in 0..nrows {
            row_ptr[i + 1] = row_ptr[i] + counts[i];
        }
        let mut col_idx = vec![0usize; triplets.len()];
        let mut values = vec![0.0; triplets.len()];
        let mut next = row_ptr.clone();
        for &(r, c, v) in triplets {
            let p = next[r];
            col_idx[p] = c;
            values[p] = v;
            next[r] += 1;
        }
        // Sort each row by column and merge duplicates.
        let mut out_col = Vec::with_capacity(triplets.len());
        let mut out_val = Vec::with_capacity(triplets.len());
        let mut out_ptr = vec![0usize; nrows + 1];
        let mut scratch: Vec<(usize, f64)> = Vec::new();
        for r in 0..nrows {
            scratch.clear();
            for p in row_ptr[r]..row_ptr[r + 1] {
                scratch.push((col_idx[p], values[p]));
            }
            scratch.sort_unstable_by_key(|&(c, _)| c);
            let mut i = 0;
            while i < scratch.len() {
                let c = scratch[i].0;
                let mut v = 0.0;
                while i < scratch.len() && scratch[i].0 == c {
                    v += scratch[i].1;
                    i += 1;
                }
                if v != 0.0 {
                    out_col.push(c);
                    out_val.push(v);
                }
            }
            out_ptr[r + 1] = out_col.len();
        }
        CsrMatrix {
            nrows,
            ncols,
            row_ptr: out_ptr,
            col_idx: out_col,
            values: out_val,
        }
    }

    /// An all-zero matrix with the given shape.
    pub fn zeros(nrows: usize, ncols: usize) -> Self {
        CsrMatrix {
            nrows,
            ncols,
            row_ptr: vec![0; nrows + 1],
            col_idx: Vec::new(),
            values: Vec::new(),
        }
    }

    /// Identity matrix of order `n`.
    pub fn identity(n: usize) -> Self {
        CsrMatrix {
            nrows: n,
            ncols: n,
            row_ptr: (0..=n).collect(),
            col_idx: (0..n).collect(),
            values: vec![1.0; n],
        }
    }

    /// Number of rows.
    #[inline]
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    #[inline]
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of stored (structurally nonzero) entries.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Column indices and values of row `i`.
    #[inline]
    pub fn row(&self, i: usize) -> (&[usize], &[f64]) {
        let lo = self.row_ptr[i];
        let hi = self.row_ptr[i + 1];
        (&self.col_idx[lo..hi], &self.values[lo..hi])
    }

    /// Entry `(i, j)` (zero if not stored).
    pub fn get(&self, i: usize, j: usize) -> f64 {
        let (cols, vals) = self.row(i);
        match cols.binary_search(&j) {
            Ok(p) => vals[p],
            Err(_) => 0.0,
        }
    }

    /// The diagonal as a vector (length `min(nrows, ncols)`): one linear
    /// pass over the stored entries (rows are sorted by column, so the
    /// scan of row `i` stops at the first column ≥ `i`).
    pub fn diagonal(&self) -> Vec<f64> {
        let n = self.nrows.min(self.ncols);
        let mut d = vec![0.0; n];
        for i in 0..n {
            for p in self.row_ptr[i]..self.row_ptr[i + 1] {
                let c = self.col_idx[p];
                if c >= i {
                    if c == i {
                        d[i] = self.values[p];
                    }
                    break;
                }
            }
        }
        d
    }

    /// `y = A x` into a fresh vector.
    ///
    /// # Panics
    /// Panics if `x.len() != ncols`.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.nrows];
        self.matvec_into(x, &mut y);
        y
    }

    /// Stored entries below which [`CsrMatrix::matvec_into`] stays
    /// serial: under this, fork-join overhead exceeds the row work.
    pub const PAR_MIN_NNZ: usize = 100_000;
    /// Scalar-multiply count below which [`CsrMatrix::matmul_dense`]
    /// stays serial (`nnz × rhs columns`).
    pub const PAR_MIN_WORK: usize = 100_000;

    /// Rows `lo..hi` of `y ← A x` (the shared serial row kernel).
    #[inline]
    fn matvec_rows(&self, x: &[f64], y: &mut [f64], lo_row: usize) {
        for (off, yi) in y.iter_mut().enumerate() {
            let i = lo_row + off;
            let lo = self.row_ptr[i];
            let hi = self.row_ptr[i + 1];
            let mut s = 0.0;
            for p in lo..hi {
                s += self.values[p] * x[self.col_idx[p]];
            }
            *yi = s;
        }
    }

    /// `y ← A x` into a caller-provided buffer, row-partitioned across
    /// the ambient thread count when the matrix holds at least
    /// [`CsrMatrix::PAR_MIN_NNZ`] entries (bit-identical to the serial
    /// kernel either way).
    ///
    /// # Panics
    /// Panics on any length mismatch.
    pub fn matvec_into(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.ncols, "matvec: x length mismatch");
        assert_eq!(y.len(), self.nrows, "matvec: y length mismatch");
        if self.nnz() < Self::PAR_MIN_NNZ || par::current_threads() <= 1 {
            self.matvec_rows(x, y, 0);
            return;
        }
        let min_rows = (self.nrows / par::current_threads()).max(1024);
        par::for_each_row_chunk(y, 1, min_rows, |first_row, chunk| {
            self.matvec_rows(x, chunk, first_row);
        });
    }

    /// `y = Aᵀ x`.
    ///
    /// # Panics
    /// Panics if `x.len() != nrows`.
    pub fn matvec_t(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.nrows, "matvec_t: x length mismatch");
        let mut y = vec![0.0; self.ncols];
        for i in 0..self.nrows {
            let xi = x[i];
            if xi == 0.0 {
                continue;
            }
            let lo = self.row_ptr[i];
            let hi = self.row_ptr[i + 1];
            for p in lo..hi {
                y[self.col_idx[p]] += self.values[p] * xi;
            }
        }
        y
    }

    /// Quadratic form `xᵀ A x`.
    ///
    /// # Panics
    /// Panics unless the matrix is square and `x` has matching length.
    pub fn quadratic_form(&self, x: &[f64]) -> f64 {
        assert_eq!(self.nrows, self.ncols, "quadratic_form: must be square");
        let ax = self.matvec(x);
        crate::vecops::dot(x, &ax)
    }

    /// Apply to every column of a (row-major) dense matrix: `Y = A X`,
    /// row-partitioned across the ambient thread count once
    /// `nnz · X.ncols()` reaches [`CsrMatrix::PAR_MIN_WORK`] (the per-row
    /// accumulation is unchanged, so results are bit-identical).
    pub fn matmul_dense(&self, x: &DenseMatrix) -> DenseMatrix {
        assert_eq!(x.nrows(), self.ncols, "matmul_dense: shape mismatch");
        let ncols = x.ncols();
        let mut y = DenseMatrix::zeros(self.nrows, ncols);
        let work = self.nnz().saturating_mul(ncols);
        let row_kernel = |first_row: usize, rows: &mut [f64]| {
            for (r, yrow) in rows.chunks_mut(ncols).enumerate() {
                let i = first_row + r;
                for p in self.row_ptr[i]..self.row_ptr[i + 1] {
                    crate::vecops::axpy(self.values[p], x.row(self.col_idx[p]), yrow);
                }
            }
        };
        if ncols == 0 {
            return y;
        }
        if work < Self::PAR_MIN_WORK || par::current_threads() <= 1 {
            row_kernel(0, y.as_mut_slice());
        } else {
            let min_rows = (self.nrows / par::current_threads()).max(128);
            par::for_each_row_chunk(y.as_mut_slice(), ncols, min_rows, row_kernel);
        }
        y
    }

    /// Transpose (explicit).
    pub fn transpose(&self) -> CsrMatrix {
        let mut trip = Vec::with_capacity(self.nnz());
        for i in 0..self.nrows {
            let (cols, vals) = self.row(i);
            for (c, v) in cols.iter().zip(vals) {
                trip.push((*c, i, *v));
            }
        }
        CsrMatrix::from_triplets(self.ncols, self.nrows, &trip)
    }

    /// Maximum absolute asymmetry `max |A_ij − A_ji|` (0 for symmetric).
    pub fn symmetry_defect(&self) -> f64 {
        let t = self.transpose();
        let mut worst = 0.0f64;
        for i in 0..self.nrows {
            let (ca, va) = self.row(i);
            let (cb, vb) = t.row(i);
            // Merge-compare the two sorted rows.
            let (mut p, mut q) = (0usize, 0usize);
            while p < ca.len() || q < cb.len() {
                let (cva, cvb) = (
                    ca.get(p).copied().unwrap_or(usize::MAX),
                    cb.get(q).copied().unwrap_or(usize::MAX),
                );
                if cva == cvb {
                    worst = worst.max((va[p] - vb[q]).abs());
                    p += 1;
                    q += 1;
                } else if cva < cvb {
                    worst = worst.max(va[p].abs());
                    p += 1;
                } else {
                    worst = worst.max(vb[q].abs());
                    q += 1;
                }
            }
        }
        worst
    }

    /// Densify (small matrices only; used by tests and the dense baseline).
    pub fn to_dense(&self) -> DenseMatrix {
        let mut m = DenseMatrix::zeros(self.nrows, self.ncols);
        for i in 0..self.nrows {
            let (cols, vals) = self.row(i);
            for (c, v) in cols.iter().zip(vals) {
                m.set(i, *c, *v);
            }
        }
        m
    }

    /// Iterate over all stored entries as `(row, col, value)`, lazily —
    /// the iterator walks `row_ptr` in place and allocates nothing.
    pub fn iter(&self) -> CsrEntries<'_> {
        CsrEntries {
            mat: self,
            row: 0,
            pos: 0,
        }
    }
}

/// Lazy `(row, col, value)` iterator over a [`CsrMatrix`]'s stored
/// entries (created by [`CsrMatrix::iter`]).
#[derive(Debug, Clone)]
pub struct CsrEntries<'a> {
    mat: &'a CsrMatrix,
    /// Row containing `pos` (advanced past empty rows on demand).
    row: usize,
    /// Cursor into `col_idx` / `values`.
    pos: usize,
}

impl Iterator for CsrEntries<'_> {
    type Item = (usize, usize, f64);

    fn next(&mut self) -> Option<Self::Item> {
        if self.pos >= self.mat.values.len() {
            return None;
        }
        while self.pos >= self.mat.row_ptr[self.row + 1] {
            self.row += 1;
        }
        let p = self.pos;
        self.pos += 1;
        (self.row, self.mat.col_idx[p], self.mat.values[p]).into()
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.mat.values.len() - self.pos;
        (left, Some(left))
    }
}

impl ExactSizeIterator for CsrEntries<'_> {}

impl LinearOperator for CsrMatrix {
    fn dim(&self) -> usize {
        assert_eq!(
            self.nrows, self.ncols,
            "LinearOperator requires a square matrix"
        );
        self.nrows
    }

    fn apply(&self, x: &[f64], y: &mut [f64]) {
        self.matvec_into(x, y);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CsrMatrix {
        // [ 2 -1  0 ]
        // [-1  2 -1 ]
        // [ 0 -1  2 ]
        CsrMatrix::from_triplets(
            3,
            3,
            &[
                (0, 0, 2.0),
                (0, 1, -1.0),
                (1, 0, -1.0),
                (1, 1, 2.0),
                (1, 2, -1.0),
                (2, 1, -1.0),
                (2, 2, 2.0),
            ],
        )
    }

    #[test]
    fn triplets_sum_duplicates() {
        let a = CsrMatrix::from_triplets(2, 2, &[(0, 0, 1.0), (0, 0, 2.0), (1, 1, 1.0)]);
        assert_eq!(a.get(0, 0), 3.0);
        assert_eq!(a.nnz(), 2);
    }

    #[test]
    fn zero_sum_duplicates_are_dropped() {
        let a = CsrMatrix::from_triplets(2, 2, &[(0, 1, 1.0), (0, 1, -1.0), (1, 0, 2.0)]);
        assert_eq!(a.nnz(), 1);
        assert_eq!(a.get(0, 1), 0.0);
    }

    #[test]
    fn matvec_matches_dense() {
        let a = sample();
        let d = a.to_dense();
        let x = [1.0, 2.0, 3.0];
        assert_eq!(a.matvec(&x), d.matvec(&x));
    }

    #[test]
    fn matvec_t_matches_transpose() {
        let a = CsrMatrix::from_triplets(2, 3, &[(0, 0, 1.0), (0, 2, 2.0), (1, 1, -1.0)]);
        let x = [1.0, 2.0];
        assert_eq!(a.matvec_t(&x), a.transpose().matvec(&x));
    }

    #[test]
    fn rows_are_sorted() {
        let a = CsrMatrix::from_triplets(1, 4, &[(0, 3, 1.0), (0, 0, 2.0), (0, 2, 3.0)]);
        let (cols, _) = a.row(0);
        assert_eq!(cols, &[0, 2, 3]);
    }

    #[test]
    fn diagonal_extraction() {
        assert_eq!(sample().diagonal(), vec![2.0, 2.0, 2.0]);
    }

    #[test]
    fn symmetry_defect_zero_for_symmetric() {
        assert_eq!(sample().symmetry_defect(), 0.0);
        let asym = CsrMatrix::from_triplets(2, 2, &[(0, 1, 1.0)]);
        assert_eq!(asym.symmetry_defect(), 1.0);
    }

    #[test]
    fn quadratic_form_matches_manual() {
        let a = sample();
        // xᵀAx with x = (1,1,1): Laplacian-like, equals 2 (boundary terms).
        let q = a.quadratic_form(&[1.0, 1.0, 1.0]);
        assert_eq!(q, 2.0);
    }

    #[test]
    fn matmul_dense_matches_columnwise() {
        let a = sample();
        let x = DenseMatrix::from_rows(&[vec![1.0, 0.0], vec![0.0, 1.0], vec![1.0, 1.0]]);
        let y = a.matmul_dense(&x);
        for j in 0..2 {
            let col = x.column(j);
            assert_eq!(y.column(j), a.matvec(&col));
        }
    }

    #[test]
    fn identity_is_identity() {
        let i = CsrMatrix::identity(4);
        let x = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(i.matvec(&x), x.to_vec());
    }

    #[test]
    fn iter_yields_all_entries() {
        let a = sample();
        let entries: Vec<_> = a.iter().collect();
        assert_eq!(entries.len(), 7);
        assert!(entries.contains(&(1, 0, -1.0)));
    }

    #[test]
    fn iter_skips_empty_rows_lazily() {
        // Rows 0 and 2 empty, entries only in rows 1 and 3.
        let a = CsrMatrix::from_triplets(4, 4, &[(1, 0, 1.0), (3, 2, 2.0), (3, 3, 3.0)]);
        let mut it = a.iter();
        assert_eq!(it.len(), 3);
        assert_eq!(it.next(), Some((1, 0, 1.0)));
        assert_eq!(it.next(), Some((3, 2, 2.0)));
        assert_eq!(it.next(), Some((3, 3, 3.0)));
        assert_eq!(it.next(), None);
        assert!(CsrMatrix::zeros(5, 5).iter().next().is_none());
    }

    #[test]
    fn diagonal_with_gaps_and_rectangles() {
        // Missing diagonal entries read as 0; rectangular shapes clip.
        let a = CsrMatrix::from_triplets(3, 3, &[(0, 1, 5.0), (1, 1, 7.0), (2, 0, 1.0)]);
        assert_eq!(a.diagonal(), vec![0.0, 7.0, 0.0]);
        let r = CsrMatrix::from_triplets(2, 4, &[(0, 0, 1.0), (1, 1, 2.0), (1, 3, 9.0)]);
        assert_eq!(r.diagonal(), vec![1.0, 2.0]);
    }

    #[test]
    fn parallel_matvec_matches_serial_exactly() {
        use crate::rng::Rng;
        // Big enough to clear PAR_MIN_NNZ: a banded 40k×40k matrix.
        let n = 40_000usize;
        let band = 3usize;
        let mut trip = Vec::new();
        let mut rng = Rng::seed_from_u64(13);
        for i in 0..n {
            for j in i.saturating_sub(band)..(i + band + 1).min(n) {
                trip.push((i, j, rng.standard_normal()));
            }
        }
        let a = CsrMatrix::from_triplets(n, n, &trip);
        assert!(a.nnz() >= CsrMatrix::PAR_MIN_NNZ);
        let x = rng.normal_vec(n);
        let serial = crate::par::with_threads(1, || a.matvec(&x));
        for t in [2usize, 4] {
            let par = crate::par::with_threads(t, || a.matvec(&x));
            assert_eq!(par, serial, "threads = {t}");
        }
        let xm = DenseMatrix::from_fn(n, 3, |i, j| ((i + j) % 17) as f64 - 8.0);
        let serial_m = crate::par::with_threads(1, || a.matmul_dense(&xm));
        let par_m = crate::par::with_threads(4, || a.matmul_dense(&xm));
        assert_eq!(par_m, serial_m);
    }
}
