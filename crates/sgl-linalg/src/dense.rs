//! Row-major dense matrices.
//!
//! Sized for the dense work SGL actually does: measurement matrices
//! (`N × M`, tall and skinny), spectral embeddings (`N × (r−1)`) and the
//! small Gram/Rayleigh–Ritz systems inside the iterative eigensolvers.

use crate::vecops;

/// A row-major dense matrix of `f64`.
///
/// # Example
/// ```
/// use sgl_linalg::DenseMatrix;
/// let a = DenseMatrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
/// assert_eq!(a.get(1, 0), 3.0);
/// let y = a.matvec(&[1.0, 1.0]);
/// assert_eq!(y, vec![3.0, 7.0]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DenseMatrix {
    nrows: usize,
    ncols: usize,
    data: Vec<f64>,
}

impl DenseMatrix {
    /// All-zeros matrix of the given shape.
    pub fn zeros(nrows: usize, ncols: usize) -> Self {
        DenseMatrix {
            nrows,
            ncols,
            data: vec![0.0; nrows * ncols],
        }
    }

    /// Identity matrix of order `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m.set(i, i, 1.0);
        }
        m
    }

    /// Build from a closure evaluated at every `(row, col)`.
    pub fn from_fn(nrows: usize, ncols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(nrows * ncols);
        for i in 0..nrows {
            for j in 0..ncols {
                data.push(f(i, j));
            }
        }
        DenseMatrix { nrows, ncols, data }
    }

    /// Build from explicit rows.
    ///
    /// # Panics
    /// Panics if rows have inconsistent lengths.
    pub fn from_rows(rows: &[Vec<f64>]) -> Self {
        let nrows = rows.len();
        let ncols = rows.first().map_or(0, |r| r.len());
        let mut data = Vec::with_capacity(nrows * ncols);
        for r in rows {
            assert_eq!(r.len(), ncols, "from_rows: ragged rows");
            data.extend_from_slice(r);
        }
        DenseMatrix { nrows, ncols, data }
    }

    /// Build a matrix whose columns are the given vectors.
    ///
    /// # Panics
    /// Panics if columns have inconsistent lengths.
    pub fn from_columns(cols: &[Vec<f64>]) -> Self {
        let ncols = cols.len();
        let nrows = cols.first().map_or(0, |c| c.len());
        let mut m = Self::zeros(nrows, ncols);
        for (j, c) in cols.iter().enumerate() {
            assert_eq!(c.len(), nrows, "from_columns: ragged columns");
            for i in 0..nrows {
                m.set(i, j, c[i]);
            }
        }
        m
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

    /// Entry at `(i, j)`.
    ///
    /// # Panics
    /// Panics if out of bounds.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        assert!(i < self.nrows && j < self.ncols, "get: index out of bounds");
        self.data[i * self.ncols + j]
    }

    /// Set entry at `(i, j)`.
    ///
    /// # Panics
    /// Panics if out of bounds.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        assert!(i < self.nrows && j < self.ncols, "set: index out of bounds");
        self.data[i * self.ncols + j] = v;
    }

    /// Borrow row `i` as a slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.ncols..(i + 1) * self.ncols]
    }

    /// Mutably borrow row `i`.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        &mut self.data[i * self.ncols..(i + 1) * self.ncols]
    }

    /// Copy column `j` out into a new vector.
    pub fn column(&self, j: usize) -> Vec<f64> {
        (0..self.nrows).map(|i| self.get(i, j)).collect()
    }

    /// Overwrite column `j` from a slice.
    ///
    /// # Panics
    /// Panics if `col.len() != nrows`.
    pub fn set_column(&mut self, j: usize, col: &[f64]) {
        assert_eq!(col.len(), self.nrows, "set_column: length mismatch");
        for i in 0..self.nrows {
            self.set(i, j, col[i]);
        }
    }

    /// Flat row-major data.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Flat row-major data, mutable.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Matrix–vector product `A x`.
    ///
    /// # Panics
    /// Panics if `x.len() != ncols`.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.ncols, "matvec: length mismatch");
        let mut y = vec![0.0; self.nrows];
        for i in 0..self.nrows {
            y[i] = vecops::dot(self.row(i), x);
        }
        y
    }

    /// Transposed matrix–vector product `Aᵀ x`.
    ///
    /// # Panics
    /// Panics if `x.len() != nrows`.
    pub fn matvec_t(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.nrows, "matvec_t: length mismatch");
        let mut y = vec![0.0; self.ncols];
        for i in 0..self.nrows {
            let xi = x[i];
            if xi != 0.0 {
                vecops::axpy(xi, self.row(i), &mut y);
            }
        }
        y
    }

    /// Matrix product `A · B`.
    ///
    /// # Panics
    /// Panics on inner-dimension mismatch.
    pub fn matmul(&self, b: &DenseMatrix) -> DenseMatrix {
        assert_eq!(self.ncols, b.nrows, "matmul: inner dimension mismatch");
        let mut c = DenseMatrix::zeros(self.nrows, b.ncols);
        for i in 0..self.nrows {
            for k in 0..self.ncols {
                let aik = self.get(i, k);
                if aik == 0.0 {
                    continue;
                }
                let brow = b.row(k);
                let crow = c.row_mut(i);
                vecops::axpy(aik, brow, crow);
            }
        }
        c
    }

    /// Gram matrix `Aᵀ A` (symmetric, `ncols × ncols`).
    pub fn gram(&self) -> DenseMatrix {
        let k = self.ncols;
        let mut g = DenseMatrix::zeros(k, k);
        for row in 0..self.nrows {
            let r = self.row(row);
            for i in 0..k {
                let ri = r[i];
                if ri == 0.0 {
                    continue;
                }
                for j in i..k {
                    let v = ri * r[j];
                    g.data[i * k + j] += v;
                }
            }
        }
        for i in 0..k {
            for j in 0..i {
                g.data[i * k + j] = g.data[j * k + i];
            }
        }
        g
    }

    /// Cross-Gram `Aᵀ B` (`self.ncols × b.ncols`).
    ///
    /// # Panics
    /// Panics if row counts differ.
    pub fn gram_with(&self, b: &DenseMatrix) -> DenseMatrix {
        assert_eq!(self.nrows, b.nrows, "gram_with: row count mismatch");
        let mut g = DenseMatrix::zeros(self.ncols, b.ncols);
        for row in 0..self.nrows {
            let ra = self.row(row);
            let rb = b.row(row);
            for i in 0..self.ncols {
                let ai = ra[i];
                if ai == 0.0 {
                    continue;
                }
                vecops::axpy(ai, rb, g.row_mut(i));
            }
        }
        g
    }

    /// Transpose.
    pub fn transpose(&self) -> DenseMatrix {
        DenseMatrix::from_fn(self.ncols, self.nrows, |i, j| self.get(j, i))
    }

    /// Maximum absolute entry.
    pub fn max_abs(&self) -> f64 {
        vecops::norm_inf(&self.data)
    }

    /// `self ← self + alpha * other` (same shape).
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn add_scaled(&mut self, alpha: f64, other: &DenseMatrix) {
        assert_eq!(
            (self.nrows, self.ncols),
            (other.nrows, other.ncols),
            "add_scaled: shape mismatch"
        );
        vecops::axpy(alpha, &other.data, &mut self.data);
    }

    /// Extract the submatrix made of the given rows (in order).
    ///
    /// # Panics
    /// Panics if any index is out of bounds.
    pub fn select_rows(&self, rows: &[usize]) -> DenseMatrix {
        let mut m = DenseMatrix::zeros(rows.len(), self.ncols);
        for (out, &r) in rows.iter().enumerate() {
            m.row_mut(out).copy_from_slice(self.row(r));
        }
        m
    }

    /// Symmetry defect `max |A - Aᵀ|` (0 for symmetric matrices).
    pub fn symmetry_defect(&self) -> f64 {
        assert_eq!(self.nrows, self.ncols, "symmetry_defect: must be square");
        let mut worst = 0.0f64;
        for i in 0..self.nrows {
            for j in (i + 1)..self.ncols {
                worst = worst.max((self.get(i, j) - self.get(j, i)).abs());
            }
        }
        worst
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> DenseMatrix {
        DenseMatrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]])
    }

    #[test]
    fn shape_accessors() {
        let a = sample();
        assert_eq!(a.nrows(), 2);
        assert_eq!(a.ncols(), 3);
    }

    #[test]
    fn matvec_matches_manual() {
        let a = sample();
        assert_eq!(a.matvec(&[1.0, 0.0, -1.0]), vec![-2.0, -2.0]);
    }

    #[test]
    fn matvec_t_matches_transpose_matvec() {
        let a = sample();
        let at = a.transpose();
        let x = [0.5, -1.5];
        assert_eq!(a.matvec_t(&x), at.matvec(&x));
    }

    #[test]
    fn matmul_identity() {
        let a = sample();
        let i3 = DenseMatrix::identity(3);
        assert_eq!(a.matmul(&i3), a);
    }

    #[test]
    fn matmul_known_product() {
        let a = DenseMatrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let b = DenseMatrix::from_rows(&[vec![0.0, 1.0], vec![1.0, 0.0]]);
        let c = a.matmul(&b);
        assert_eq!(c, DenseMatrix::from_rows(&[vec![2.0, 1.0], vec![4.0, 3.0]]));
    }

    #[test]
    fn gram_is_at_a() {
        let a = sample();
        let g = a.gram();
        let expect = a.transpose().matmul(&a);
        assert!((0..9).all(|k| (g.as_slice()[k] - expect.as_slice()[k]).abs() < 1e-12));
        assert_eq!(g.symmetry_defect(), 0.0);
    }

    #[test]
    fn gram_with_matches_matmul() {
        let a = sample();
        let b = DenseMatrix::from_rows(&[vec![1.0, 0.0], vec![0.0, 1.0]]);
        let g = a.gram_with(&b);
        let expect = a.transpose().matmul(&b);
        assert_eq!(g, expect);
    }

    #[test]
    fn columns_roundtrip() {
        let mut a = sample();
        let c = a.column(1);
        assert_eq!(c, vec![2.0, 5.0]);
        a.set_column(1, &[9.0, 8.0]);
        assert_eq!(a.column(1), vec![9.0, 8.0]);
    }

    #[test]
    fn select_rows_picks_rows() {
        let a = sample();
        let s = a.select_rows(&[1]);
        assert_eq!(s.nrows(), 1);
        assert_eq!(s.row(0), &[4.0, 5.0, 6.0]);
    }

    #[test]
    fn from_columns_matches_from_rows_transposed() {
        let a = DenseMatrix::from_columns(&[vec![1.0, 3.0], vec![2.0, 4.0]]);
        assert_eq!(a, DenseMatrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]));
    }

    #[test]
    #[should_panic(expected = "inner dimension mismatch")]
    fn matmul_mismatch_panics() {
        let a = sample();
        let b = sample();
        let _ = a.matmul(&b);
    }
}
