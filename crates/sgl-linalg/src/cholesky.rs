//! Dense Cholesky factorization for small SPD systems.
//!
//! Used for Rayleigh–Ritz mass matrices inside the eigensolvers, for
//! the dense coarse-grid solves at the bottom of the AMG hierarchy, and
//! for the off-tree capacitance of the spanning-tree preconditioner.

use crate::dense::DenseMatrix;
use crate::error::LinalgError;

/// Lower-triangular Cholesky factor `A = L Lᵀ` of an SPD matrix.
///
/// # Example
/// ```
/// use sgl_linalg::{DenseMatrix, CholeskyFactor};
/// let a = DenseMatrix::from_rows(&[vec![4.0, 2.0], vec![2.0, 3.0]]);
/// let ch = CholeskyFactor::compute(&a).unwrap();
/// let x = ch.solve(&[8.0, 7.0]);
/// assert!((x[0] - 1.25).abs() < 1e-12 && (x[1] - 1.5).abs() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct CholeskyFactor {
    l: DenseMatrix,
}

impl CholeskyFactor {
    /// Factor a symmetric positive-definite matrix.
    ///
    /// Only the lower triangle of `a` is read.
    ///
    /// # Errors
    /// Returns [`LinalgError::NotPositiveDefinite`] when a pivot is not
    /// strictly positive, and a dimension error for non-square input.
    pub fn compute(a: &DenseMatrix) -> Result<Self, LinalgError> {
        let n = a.nrows();
        if a.ncols() != n {
            return Err(LinalgError::DimensionMismatch {
                context: "cholesky (square required)",
                expected: n,
                actual: a.ncols(),
            });
        }
        let mut l = DenseMatrix::zeros(n, n);
        for j in 0..n {
            let mut d = a.get(j, j);
            for k in 0..j {
                let ljk = l.get(j, k);
                d -= ljk * ljk;
            }
            if d <= 0.0 || !d.is_finite() {
                return Err(LinalgError::NotPositiveDefinite { pivot: j });
            }
            let djj = d.sqrt();
            l.set(j, j, djj);
            for i in (j + 1)..n {
                let mut s = a.get(i, j);
                for k in 0..j {
                    s -= l.get(i, k) * l.get(j, k);
                }
                l.set(i, j, s / djj);
            }
        }
        Ok(CholeskyFactor { l })
    }

    /// Order of the factored matrix.
    pub fn order(&self) -> usize {
        self.l.nrows()
    }

    /// Borrow the lower-triangular factor.
    pub fn l(&self) -> &DenseMatrix {
        &self.l
    }

    /// Solve `A x = b`.
    ///
    /// # Panics
    /// Panics if `b.len()` differs from the matrix order.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        let mut y = b.to_vec();
        self.solve_in_place(&mut y);
        y
    }

    /// Solve `A x = b` in place: `y` holds `b` on entry and `x` on exit.
    ///
    /// # Panics
    /// Panics if `y.len()` differs from the matrix order.
    pub fn solve_in_place(&self, y: &mut [f64]) {
        let n = self.order();
        assert_eq!(y.len(), n, "cholesky solve: length mismatch");
        // Forward: L y = b
        for i in 0..n {
            for k in 0..i {
                y[i] -= self.l.get(i, k) * y[k];
            }
            y[i] /= self.l.get(i, i);
        }
        // Backward: Lᵀ x = y
        for i in (0..n).rev() {
            for k in (i + 1)..n {
                y[i] -= self.l.get(k, i) * y[k];
            }
            y[i] /= self.l.get(i, i);
        }
    }

    /// Solve for several right-hand sides given as matrix columns.
    pub fn solve_matrix(&self, b: &DenseMatrix) -> DenseMatrix {
        let mut x = DenseMatrix::zeros(b.nrows(), b.ncols());
        for j in 0..b.ncols() {
            x.set_column(j, &self.solve(&b.column(j)));
        }
        x
    }

    /// `log det A = 2 Σ log L_ii`.
    pub fn log_det(&self) -> f64 {
        (0..self.order())
            .map(|i| self.l.get(i, i).ln())
            .sum::<f64>()
            * 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    fn random_spd(n: usize, seed: u64) -> DenseMatrix {
        let mut rng = Rng::seed_from_u64(seed);
        let b = DenseMatrix::from_fn(n + 3, n, |_, _| rng.standard_normal());
        let mut g = b.gram();
        for i in 0..n {
            let v = g.get(i, i) + 0.5;
            g.set(i, i, v);
        }
        g
    }

    #[test]
    fn reconstructs_matrix() {
        let a = random_spd(6, 1);
        let ch = CholeskyFactor::compute(&a).unwrap();
        let llt = ch.l().matmul(&ch.l().transpose());
        let mut diff = llt;
        diff.add_scaled(-1.0, &a);
        assert!(diff.max_abs() < 1e-10);
    }

    #[test]
    fn solve_gives_residual_zero() {
        let a = random_spd(8, 2);
        let mut rng = Rng::seed_from_u64(3);
        let b = rng.normal_vec(8);
        let x = CholeskyFactor::compute(&a).unwrap().solve(&b);
        let r = a.matvec(&x);
        for i in 0..8 {
            assert!((r[i] - b[i]).abs() < 1e-9);
        }
    }

    #[test]
    fn log_det_matches_2x2() {
        let a = DenseMatrix::from_rows(&[vec![4.0, 2.0], vec![2.0, 3.0]]);
        // det = 12 - 4 = 8
        let ch = CholeskyFactor::compute(&a).unwrap();
        assert!((ch.log_det() - 8.0f64.ln()).abs() < 1e-12);
    }

    #[test]
    fn rejects_indefinite() {
        let a = DenseMatrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 1.0]]);
        assert!(matches!(
            CholeskyFactor::compute(&a),
            Err(LinalgError::NotPositiveDefinite { pivot: 1 })
        ));
    }

    #[test]
    fn solve_matrix_handles_multiple_rhs() {
        let a = random_spd(5, 4);
        let ch = CholeskyFactor::compute(&a).unwrap();
        let b = DenseMatrix::identity(5);
        let inv = ch.solve_matrix(&b);
        let prod = a.matmul(&inv);
        let mut diff = prod;
        diff.add_scaled(-1.0, &DenseMatrix::identity(5));
        assert!(diff.max_abs() < 1e-9);
    }
}
