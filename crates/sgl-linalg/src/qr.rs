//! Householder QR factorization and column orthonormalization.
//!
//! Used for least-squares fits and for keeping the filtered subspace
//! bases of the solver-free spectrum ([`crate::filter`]) orthonormal.

use crate::dense::DenseMatrix;
use crate::error::LinalgError;
use crate::vecops;

/// Householder QR factorization of an `m × n` matrix with `m ≥ n`.
///
/// # Example
/// ```
/// use sgl_linalg::{DenseMatrix, QrFactor};
/// let a = DenseMatrix::from_rows(&[vec![1.0, 0.0], vec![1.0, 1.0], vec![1.0, 2.0]]);
/// let qr = QrFactor::compute(&a).unwrap();
/// // Least squares fit of y = c0 + c1*t through (0,1), (1,2), (2,3).
/// let c = qr.solve_least_squares(&[1.0, 2.0, 3.0]).unwrap();
/// assert!((c[0] - 1.0).abs() < 1e-12 && (c[1] - 1.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct QrFactor {
    /// Householder vectors in the lower trapezoid, R in the upper triangle.
    packed: DenseMatrix,
    /// Scalar tau per reflector.
    tau: Vec<f64>,
}

impl QrFactor {
    /// Factor `a = Q R`.
    ///
    /// # Errors
    /// Returns [`LinalgError::DimensionMismatch`] if `m < n`.
    pub fn compute(a: &DenseMatrix) -> Result<Self, LinalgError> {
        let m = a.nrows();
        let n = a.ncols();
        if m < n {
            return Err(LinalgError::DimensionMismatch {
                context: "qr (need m >= n)",
                expected: n,
                actual: m,
            });
        }
        let mut packed = a.clone();
        let mut tau = vec![0.0; n];
        let mut v = vec![0.0; m];
        for k in 0..n {
            // Build the Householder vector for column k below the diagonal.
            let mut normx = 0.0;
            for i in k..m {
                let x = packed.get(i, k);
                normx += x * x;
            }
            normx = normx.sqrt();
            if normx == 0.0 {
                tau[k] = 0.0;
                continue;
            }
            let alpha = packed.get(k, k);
            let beta = -alpha.signum() * normx;
            let v0 = alpha - beta;
            v[k] = 1.0;
            for i in (k + 1)..m {
                v[i] = packed.get(i, k) / v0;
            }
            // H = I - tau v vᵀ with v normalized so v[k] = 1, tau = (beta - alpha)/beta.
            let t = (beta - alpha) / beta;
            tau[k] = t;
            // Store R(k,k) and v below the diagonal.
            packed.set(k, k, beta);
            for i in (k + 1)..m {
                let vi = v[i];
                packed.set(i, k, vi);
            }
            // Apply H to the trailing columns.
            for j in (k + 1)..n {
                let mut s = packed.get(k, j);
                for i in (k + 1)..m {
                    s += v[i] * packed.get(i, j);
                }
                s *= t;
                let new = packed.get(k, j) - s;
                packed.set(k, j, new);
                for i in (k + 1)..m {
                    let new = packed.get(i, j) - s * v[i];
                    packed.set(i, j, new);
                }
            }
        }
        Ok(QrFactor { packed, tau })
    }

    /// Number of rows of the factored matrix.
    pub fn nrows(&self) -> usize {
        self.packed.nrows()
    }

    /// Number of columns of the factored matrix.
    pub fn ncols(&self) -> usize {
        self.packed.ncols()
    }

    /// Apply `Qᵀ` to a vector in place.
    fn apply_qt(&self, x: &mut [f64]) {
        let m = self.nrows();
        let n = self.ncols();
        assert_eq!(x.len(), m, "apply_qt: length mismatch");
        for k in 0..n {
            let t = self.tau[k];
            if t == 0.0 {
                continue;
            }
            let mut s = x[k];
            for i in (k + 1)..m {
                s += self.packed.get(i, k) * x[i];
            }
            s *= t;
            x[k] -= s;
            for i in (k + 1)..m {
                x[i] -= s * self.packed.get(i, k);
            }
        }
    }

    /// Apply `Q` to a vector in place.
    fn apply_q(&self, x: &mut [f64]) {
        let m = self.nrows();
        let n = self.ncols();
        assert_eq!(x.len(), m, "apply_q: length mismatch");
        for k in (0..n).rev() {
            let t = self.tau[k];
            if t == 0.0 {
                continue;
            }
            let mut s = x[k];
            for i in (k + 1)..m {
                s += self.packed.get(i, k) * x[i];
            }
            s *= t;
            x[k] -= s;
            for i in (k + 1)..m {
                x[i] -= s * self.packed.get(i, k);
            }
        }
    }

    /// The upper-triangular factor `R` (`n × n`).
    pub fn r(&self) -> DenseMatrix {
        let n = self.ncols();
        DenseMatrix::from_fn(
            n,
            n,
            |i, j| if j >= i { self.packed.get(i, j) } else { 0.0 },
        )
    }

    /// The thin orthonormal factor `Q` (`m × n`).
    pub fn thin_q(&self) -> DenseMatrix {
        let m = self.nrows();
        let n = self.ncols();
        let mut q = DenseMatrix::zeros(m, n);
        let mut e = vec![0.0; m];
        for j in 0..n {
            e.iter_mut().for_each(|v| *v = 0.0);
            e[j] = 1.0;
            self.apply_q(&mut e);
            q.set_column(j, &e);
        }
        q
    }

    /// Solve the least-squares problem `min ‖A x − b‖₂`.
    ///
    /// # Errors
    /// Returns [`LinalgError::NotPositiveDefinite`] if `R` is singular
    /// (rank-deficient `A`), or a dimension error for a wrong-sized `b`.
    pub fn solve_least_squares(&self, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
        let m = self.nrows();
        let n = self.ncols();
        if b.len() != m {
            return Err(LinalgError::DimensionMismatch {
                context: "qr solve rhs",
                expected: m,
                actual: b.len(),
            });
        }
        let mut y = b.to_vec();
        self.apply_qt(&mut y);
        // Back substitution on R x = y[..n].
        let mut x = vec![0.0; n];
        for i in (0..n).rev() {
            let mut s = y[i];
            for j in (i + 1)..n {
                s -= self.packed.get(i, j) * x[j];
            }
            let rii = self.packed.get(i, i);
            if rii.abs() < 1e-300 {
                return Err(LinalgError::NotPositiveDefinite { pivot: i });
            }
            x[i] = s / rii;
        }
        Ok(x)
    }
}

/// Orthonormalize the columns of `a` in place by modified Gram–Schmidt with
/// one reorthogonalization pass, dropping (numerically) dependent columns.
///
/// Returns the matrix restricted to the surviving columns; column order is
/// preserved.
pub fn orthonormalize_columns(a: &DenseMatrix, drop_tol: f64) -> DenseMatrix {
    let m = a.nrows();
    let n = a.ncols();
    let mut cols: Vec<Vec<f64>> = (0..n).map(|j| a.column(j)).collect();
    let mut kept: Vec<Vec<f64>> = Vec::with_capacity(n);
    for mut c in cols.drain(..) {
        let orig = vecops::norm2(&c);
        if orig == 0.0 {
            continue;
        }
        // Two passes of projection for numerical stability.
        for _ in 0..2 {
            for q in &kept {
                vecops::orthogonalize_against(q, &mut c);
            }
        }
        let rem = vecops::norm2(&c);
        if rem > drop_tol * orig.max(1e-300) {
            vecops::scale(1.0 / rem, &mut c);
            kept.push(c);
        }
    }
    let mut q = DenseMatrix::zeros(m, kept.len());
    for (j, c) in kept.iter().enumerate() {
        q.set_column(j, c);
    }
    q
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    fn random_matrix(m: usize, n: usize, seed: u64) -> DenseMatrix {
        let mut rng = Rng::seed_from_u64(seed);
        DenseMatrix::from_fn(m, n, |_, _| rng.standard_normal())
    }

    #[test]
    fn qr_reconstructs_a() {
        let a = random_matrix(8, 5, 1);
        let f = QrFactor::compute(&a).unwrap();
        let qr = f.thin_q().matmul(&f.r());
        let mut diff = qr.clone();
        diff.add_scaled(-1.0, &a);
        assert!(diff.max_abs() < 1e-12, "defect {}", diff.max_abs());
    }

    #[test]
    fn thin_q_is_orthonormal() {
        let a = random_matrix(10, 4, 2);
        let f = QrFactor::compute(&a).unwrap();
        let q = f.thin_q();
        let g = q.gram();
        let mut defect = 0.0f64;
        for i in 0..4 {
            for j in 0..4 {
                let want = if i == j { 1.0 } else { 0.0 };
                defect = defect.max((g.get(i, j) - want).abs());
            }
        }
        assert!(defect < 1e-12, "defect {defect}");
    }

    #[test]
    fn least_squares_matches_normal_equations() {
        let a = random_matrix(20, 3, 3);
        let mut rng = Rng::seed_from_u64(4);
        let b = rng.normal_vec(20);
        let x = QrFactor::compute(&a)
            .unwrap()
            .solve_least_squares(&b)
            .unwrap();
        // Residual must be orthogonal to the column space: Aᵀ(Ax - b) = 0.
        let mut r = a.matvec(&x);
        vecops::axpy(-1.0, &b, &mut r);
        let g = a.matvec_t(&r);
        assert!(
            vecops::norm_inf(&g) < 1e-10,
            "grad {}",
            vecops::norm_inf(&g)
        );
    }

    #[test]
    fn wide_matrix_is_rejected() {
        let a = random_matrix(2, 5, 5);
        assert!(matches!(
            QrFactor::compute(&a),
            Err(LinalgError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn orthonormalize_drops_dependent_columns() {
        let c0 = vec![1.0, 0.0, 0.0];
        let c1 = vec![2.0, 0.0, 0.0]; // dependent on c0
        let c2 = vec![0.0, 1.0, 0.0];
        let a = DenseMatrix::from_columns(&[c0, c1, c2]);
        let q = orthonormalize_columns(&a, 1e-10);
        assert_eq!(q.ncols(), 2);
        let g = q.gram();
        assert!((g.get(0, 0) - 1.0).abs() < 1e-12);
        assert!(g.get(0, 1).abs() < 1e-12);
    }

    #[test]
    fn orthonormalize_keeps_full_rank_basis() {
        let a = random_matrix(30, 6, 6);
        let q = orthonormalize_columns(&a, 1e-10);
        assert_eq!(q.ncols(), 6);
        let g = q.gram();
        for i in 0..6 {
            for j in 0..6 {
                let want = if i == j { 1.0 } else { 0.0 };
                assert!((g.get(i, j) - want).abs() < 1e-10);
            }
        }
    }
}
