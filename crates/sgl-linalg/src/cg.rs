//! (Preconditioned) conjugate gradients for symmetric positive
//! (semi-)definite systems.
//!
//! Laplacian systems are handled by projecting the right-hand side and all
//! iterates onto the mean-zero subspace (enable
//! [`CgOptions::project_mean`]), which is mathematically equivalent to
//! solving on the orthogonal complement of the null space.

use crate::error::LinalgError;
use crate::operator::LinearOperator;
use crate::vecops;

/// A preconditioner: an approximation of `A⁻¹` applied as `z = M⁻¹ r`.
pub trait Preconditioner {
    /// Apply `z ← M⁻¹ r`.
    fn apply(&self, r: &[f64], z: &mut [f64]);
}

impl<T: Preconditioner + ?Sized> Preconditioner for &T {
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        (**self).apply(r, z)
    }
}

/// The trivial preconditioner `M = I`.
#[derive(Debug, Clone, Default)]
pub struct IdentityPreconditioner;

impl Preconditioner for IdentityPreconditioner {
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        z.copy_from_slice(r);
    }
}

/// Jacobi (diagonal) preconditioner `M = diag(A)`.
#[derive(Debug, Clone)]
pub struct JacobiPreconditioner {
    inv_diag: Vec<f64>,
}

impl JacobiPreconditioner {
    /// Build from the matrix diagonal. Zero diagonal entries are treated
    /// as 1 (no scaling) so the preconditioner stays well-defined.
    pub fn from_diagonal(diag: &[f64]) -> Self {
        JacobiPreconditioner {
            inv_diag: diag
                .iter()
                .map(|&d| if d.abs() > 0.0 { 1.0 / d } else { 1.0 })
                .collect(),
        }
    }
}

impl Preconditioner for JacobiPreconditioner {
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        for i in 0..r.len() {
            z[i] = self.inv_diag[i] * r[i];
        }
    }
}

/// Options controlling a CG solve.
#[derive(Debug, Clone)]
pub struct CgOptions {
    /// Relative residual tolerance `‖r‖ ≤ rtol · ‖b‖`.
    pub rtol: f64,
    /// Absolute residual floor (stops division-by-tiny for near-zero rhs).
    pub atol: f64,
    /// Iteration cap.
    pub max_iter: usize,
    /// Project iterates and rhs onto the mean-zero subspace (for singular
    /// Laplacians whose null space is spanned by the constant vector).
    pub project_mean: bool,
    /// Apply the operator through the full mean-zero sandwich
    /// `P A P`: project a copy of the search direction before `A` and the
    /// product after (in addition to the `project_mean` projection).
    /// Equivalent to wrapping `A` in a
    /// [`ProjectedOperator`](crate::ProjectedOperator) — bit-for-bit, but
    /// through a reusable workspace buffer instead of a per-iteration
    /// clone.
    pub project_apply_input: bool,
}

impl Default for CgOptions {
    fn default() -> Self {
        CgOptions {
            rtol: 1e-10,
            atol: 1e-300,
            max_iter: 10_000,
            project_mean: false,
            project_apply_input: false,
        }
    }
}

/// Result of a CG solve.
#[derive(Debug, Clone)]
pub struct CgSolution {
    /// The solution vector.
    pub x: Vec<f64>,
    /// Iterations performed.
    pub iterations: usize,
    /// Final relative residual `‖b − A x‖ / ‖b‖`.
    pub relative_residual: f64,
}

/// Iteration statistics of an in-place CG solve ([`pcg_solve_with`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CgIterStats {
    /// Iterations performed.
    pub iterations: usize,
    /// Final relative residual `‖b − A x‖ / ‖b‖`.
    pub relative_residual: f64,
}

/// Reusable scratch buffers for [`pcg_solve_with`]: holding one of these
/// across a batch of solves makes every solve after the first
/// allocation-free (buffers are grown on demand and kept).
#[derive(Debug, Clone, Default)]
pub struct CgWorkspace {
    rhs: Vec<f64>,
    r: Vec<f64>,
    z: Vec<f64>,
    p: Vec<f64>,
    ap: Vec<f64>,
    /// Projected copy of `p` for `project_apply_input`.
    pp: Vec<f64>,
}

impl CgWorkspace {
    /// An empty workspace (buffers are sized on first use).
    pub fn new() -> Self {
        CgWorkspace::default()
    }

    /// A workspace pre-sized for `n`-dimensional solves.
    pub fn with_dim(n: usize) -> Self {
        let mut ws = CgWorkspace::default();
        ws.prepare(n);
        ws
    }

    fn prepare(&mut self, n: usize) {
        for buf in [
            &mut self.rhs,
            &mut self.r,
            &mut self.z,
            &mut self.p,
            &mut self.ap,
            &mut self.pp,
        ] {
            buf.resize(n, 0.0);
        }
    }
}

/// Solve `A x = b` by plain conjugate gradients.
///
/// # Errors
/// See [`pcg_solve`].
pub fn cg_solve<A: LinearOperator>(
    a: &A,
    b: &[f64],
    opts: &CgOptions,
) -> Result<CgSolution, LinalgError> {
    pcg_solve(a, &IdentityPreconditioner, b, opts)
}

/// Solve `A x = b` by preconditioned conjugate gradients.
///
/// # Errors
/// Returns [`LinalgError::NotConverged`] if the iteration cap is hit,
/// [`LinalgError::InvalidInput`] at the first non-finite `pᵀAp`, `rᵀz`
/// or residual, and [`LinalgError::DimensionMismatch`] for a wrong-sized
/// `b`.
pub fn pcg_solve<A: LinearOperator, M: Preconditioner>(
    a: &A,
    m: &M,
    b: &[f64],
    opts: &CgOptions,
) -> Result<CgSolution, LinalgError> {
    let mut x = vec![0.0; a.dim()];
    let mut ws = CgWorkspace::new();
    let stats = pcg_solve_with(a, m, b, opts, &mut ws, &mut x)?;
    Ok(CgSolution {
        x,
        iterations: stats.iterations,
        relative_residual: stats.relative_residual,
    })
}

/// [`pcg_solve`] writing into a caller-provided solution buffer and
/// drawing all scratch vectors from a reusable [`CgWorkspace`] — the
/// allocation-free inner loop every batched solver fans out over.
///
/// `x` is overwritten (the initial guess is always zero, matching
/// [`pcg_solve`]).
///
/// # Errors
/// See [`pcg_solve`].
pub fn pcg_solve_with<A: LinearOperator, M: Preconditioner>(
    a: &A,
    m: &M,
    b: &[f64],
    opts: &CgOptions,
    ws: &mut CgWorkspace,
    x: &mut [f64],
) -> Result<CgIterStats, LinalgError> {
    let n = a.dim();
    if b.len() != n {
        return Err(LinalgError::DimensionMismatch {
            context: "cg rhs",
            expected: n,
            actual: b.len(),
        });
    }
    assert_eq!(x.len(), n, "cg solution buffer length mismatch");
    ws.prepare(n);
    let CgWorkspace {
        rhs,
        r,
        z,
        p,
        ap,
        pp,
    } = ws;
    rhs.copy_from_slice(b);
    if opts.project_mean {
        vecops::project_out_mean(rhs);
    }
    let bnorm = vecops::norm2(rhs).max(opts.atol);

    x.fill(0.0);
    r.copy_from_slice(rhs);
    m.apply(r, z);
    if opts.project_mean {
        vecops::project_out_mean(z);
    }
    p.copy_from_slice(z);
    let mut rz = vecops::dot(r, z);

    let mut rel = vecops::norm2(r) / bnorm;
    if !rel.is_finite() {
        return Err(non_finite("residual"));
    }
    if rel <= opts.rtol {
        return Ok(CgIterStats {
            iterations: 0,
            relative_residual: rel,
        });
    }
    if !rz.is_finite() {
        return Err(non_finite("rᵀz"));
    }

    for iter in 1..=opts.max_iter {
        if opts.project_apply_input {
            // The P·A·P sandwich, buffered: bit-identical to applying a
            // ProjectedOperator, without its per-iteration clone.
            pp.copy_from_slice(p);
            vecops::project_out_mean(pp);
            a.apply(pp, ap);
            vecops::project_out_mean(ap);
        } else {
            a.apply(p, ap);
        }
        if opts.project_mean {
            vecops::project_out_mean(ap);
        }
        let pap = vecops::dot(p, ap);
        if !pap.is_finite() {
            return Err(non_finite("pᵀAp"));
        }
        if pap <= 0.0 {
            // Semi-definite breakdown: direction in (numerical) null space.
            return Err(LinalgError::NotConverged {
                method: "pcg (indefinite direction)",
                iterations: iter,
                residual: rel,
            });
        }
        let alpha = rz / pap;
        vecops::axpy(alpha, p, x);
        vecops::axpy(-alpha, ap, r);
        rel = vecops::norm2(r) / bnorm;
        if !rel.is_finite() {
            return Err(non_finite("residual"));
        }
        if rel <= opts.rtol {
            if opts.project_mean {
                vecops::project_out_mean(x);
            }
            return Ok(CgIterStats {
                iterations: iter,
                relative_residual: rel,
            });
        }
        m.apply(r, z);
        if opts.project_mean {
            vecops::project_out_mean(z);
        }
        let rz_new = vecops::dot(r, z);
        if !rz_new.is_finite() {
            return Err(non_finite("rᵀz"));
        }
        let beta = rz_new / rz;
        rz = rz_new;
        for i in 0..n {
            p[i] = z[i] + beta * p[i];
        }
    }
    Err(LinalgError::NotConverged {
        method: "pcg",
        iterations: opts.max_iter,
        residual: rel,
    })
}

/// NaN fails every comparison, so it would otherwise read as neither
/// breakdown nor convergence and spin PCG to its iteration cap.
fn non_finite(what: &str) -> LinalgError {
    LinalgError::InvalidInput(format!(
        "pcg: non-finite {what} (NaN or inf from the right-hand side, operator or preconditioner)"
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operator::{FnOperator, ProjectedOperator};
    use crate::rng::Rng;
    use crate::sparse::CsrMatrix;
    use std::cell::Cell;

    /// 1-D Poisson (Dirichlet) matrix of order n.
    fn poisson1d(n: usize) -> CsrMatrix {
        let mut t = Vec::new();
        for i in 0..n {
            t.push((i, i, 2.0));
            if i + 1 < n {
                t.push((i, i + 1, -1.0));
                t.push((i + 1, i, -1.0));
            }
        }
        CsrMatrix::from_triplets(n, n, &t)
    }

    /// Path-graph Laplacian (singular, null space = constants).
    fn path_laplacian(n: usize) -> CsrMatrix {
        let mut t = Vec::new();
        for i in 0..n - 1 {
            t.push((i, i, 1.0));
            t.push((i + 1, i + 1, 1.0));
            t.push((i, i + 1, -1.0));
            t.push((i + 1, i, -1.0));
        }
        CsrMatrix::from_triplets(n, n, &t)
    }

    #[test]
    fn solves_spd_system() {
        let a = poisson1d(50);
        let mut rng = Rng::seed_from_u64(1);
        let xtrue = rng.normal_vec(50);
        let b = a.matvec(&xtrue);
        let sol = cg_solve(&a, &b, &CgOptions::default()).unwrap();
        for i in 0..50 {
            assert!((sol.x[i] - xtrue[i]).abs() < 1e-7);
        }
    }

    #[test]
    fn jacobi_preconditioner_reduces_iterations() {
        // Badly scaled diagonal system.
        let n = 100;
        let mut t = Vec::new();
        for i in 0..n {
            t.push((i, i, 10.0f64.powi((i % 6) as i32)));
        }
        let a = CsrMatrix::from_triplets(n, n, &t);
        let b = vec![1.0; n];
        let plain = cg_solve(&a, &b, &CgOptions::default()).unwrap();
        let m = JacobiPreconditioner::from_diagonal(&a.diagonal());
        let pre = pcg_solve(&a, &m, &b, &CgOptions::default()).unwrap();
        assert!(pre.iterations < plain.iterations);
        assert!(pre.iterations <= 2); // diagonal system: exact in one step
    }

    #[test]
    fn singular_laplacian_with_projection() {
        let l = path_laplacian(40);
        let mut rng = Rng::seed_from_u64(2);
        let mut b = rng.normal_vec(40);
        vecops::project_out_mean(&mut b);
        let opts = CgOptions {
            project_mean: true,
            ..CgOptions::default()
        };
        let p = ProjectedOperator::new(&l);
        let sol = pcg_solve(&p, &IdentityPreconditioner, &b, &opts).unwrap();
        // Residual small and solution mean-zero.
        let r = l.matvec(&sol.x);
        let mut diff = vecops::sub(&b, &r);
        vecops::project_out_mean(&mut diff);
        assert!(vecops::norm2(&diff) < 1e-7);
        assert!(vecops::mean(&sol.x).abs() < 1e-10);
    }

    #[test]
    fn zero_rhs_returns_zero() {
        let a = poisson1d(5);
        let sol = cg_solve(&a, &[0.0; 5], &CgOptions::default()).unwrap();
        assert_eq!(sol.iterations, 0);
        assert!(vecops::norm2(&sol.x) == 0.0);
    }

    #[test]
    fn iteration_cap_errors() {
        let a = poisson1d(200);
        let b = vec![1.0; 200];
        let opts = CgOptions {
            max_iter: 2,
            rtol: 1e-14,
            ..CgOptions::default()
        };
        assert!(matches!(
            cg_solve(&a, &b, &opts),
            Err(LinalgError::NotConverged { .. })
        ));
    }

    #[test]
    fn wrong_rhs_size_errors() {
        let a = poisson1d(5);
        assert!(matches!(
            cg_solve(&a, &[1.0; 4], &CgOptions::default()),
            Err(LinalgError::DimensionMismatch { .. })
        ));
    }

    /// A NaN/inf probe on a 1000-node path: PCG must return a typed error
    /// within two iterations instead of running to its 10 000 cap.
    fn non_finite_probe<A: LinearOperator, M: Preconditioner>(a: &A, m: &M) {
        let mut b = Rng::seed_from_u64(6).normal_vec(a.dim());
        vecops::project_out_mean(&mut b);
        let opts = CgOptions {
            project_mean: true,
            ..CgOptions::default()
        };
        let res = pcg_solve(a, m, &b, &opts);
        assert!(matches!(res, Err(LinalgError::InvalidInput(_))), "{res:?}");
    }

    #[test]
    fn non_finite_preconditioner_errors_within_two_iterations() {
        struct Poisoned(f64, Cell<usize>);
        impl Preconditioner for Poisoned {
            fn apply(&self, _: &[f64], z: &mut [f64]) {
                self.1.set(self.1.get() + 1);
                z.fill(self.0);
            }
        }
        let l = path_laplacian(1000);
        for bad in [f64::NAN, f64::INFINITY] {
            let m = Poisoned(bad, Cell::new(0));
            non_finite_probe(&ProjectedOperator::new(&l), &m);
            assert!(m.1.get() <= 2, "{bad}: {} applies", m.1.get());
        }
    }

    #[test]
    fn non_finite_operator_errors_within_two_iterations() {
        for bad in [f64::NAN, f64::INFINITY] {
            let applies = Cell::new(0usize);
            let op = FnOperator::new(1000, |_: &[f64], y: &mut [f64]| {
                applies.set(applies.get() + 1);
                y.fill(bad);
            });
            non_finite_probe(&op, &IdentityPreconditioner);
            assert!(applies.get() <= 2, "{bad}: {} applies", applies.get());
        }
    }

    #[test]
    fn workspace_reuse_is_bit_identical() {
        // A shared workspace across several solves (the batched-solver
        // pattern) must give exactly the allocating path's answers, even
        // when a previous solve left different data in the buffers.
        let a = poisson1d(80);
        let mut rng = Rng::seed_from_u64(4);
        let mut ws = CgWorkspace::new();
        for _ in 0..3 {
            let b = rng.normal_vec(80);
            let fresh = cg_solve(&a, &b, &CgOptions::default()).unwrap();
            let mut x = vec![f64::NAN; 80];
            let st = pcg_solve_with(
                &a,
                &IdentityPreconditioner,
                &b,
                &CgOptions::default(),
                &mut ws,
                &mut x,
            )
            .unwrap();
            assert_eq!(x, fresh.x);
            assert_eq!(st.iterations, fresh.iterations);
            assert_eq!(st.relative_residual, fresh.relative_residual);
        }
    }
}
