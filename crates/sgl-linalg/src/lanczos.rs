//! Symmetric Lanczos with full reorthogonalization.
//!
//! SGL needs two spectral computations that map naturally onto Lanczos:
//!
//! * the first ~50 nonzero Laplacian eigenvalues for evaluating the
//!   graphical-Lasso objective (run Lanczos on `L⁺` applied through a fast
//!   Laplacian solve — shift-invert around zero — and invert the Ritz
//!   values), and
//! * reference spectra in tests (run Lanczos on `L` directly).
//!
//! Full reorthogonalization keeps the basis numerically orthogonal, so no
//! ghost eigenvalues appear; for the subspace sizes SGL uses (≤ ~200) the
//! `O(m²N)` cost is dwarfed by the operator applications.

use crate::dense::DenseMatrix;
use crate::error::LinalgError;
use crate::operator::LinearOperator;
use crate::rng::Rng;
use crate::symeig::tridiag_eig;
use crate::vecops;

/// Which end of the spectrum to target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Which {
    /// Smallest eigenvalues of the operator.
    Smallest,
    /// Largest eigenvalues of the operator.
    Largest,
}

/// Options for a Lanczos run.
#[derive(Debug, Clone)]
pub struct LanczosOptions {
    /// Residual tolerance: a Ritz pair `(θ, y)` is converged when
    /// `|β_m · s_last| ≤ tol · max(|θ|, θ_scale)`.
    pub tol: f64,
    /// Maximum number of Lanczos vectors (the subspace is grown until all
    /// requested pairs converge or this cap is hit).
    pub max_subspace: usize,
    /// Seed for the random start vector.
    pub seed: u64,
}

impl Default for LanczosOptions {
    fn default() -> Self {
        LanczosOptions {
            tol: 1e-10,
            max_subspace: 300,
            seed: 7,
        }
    }
}

/// Eigenpairs returned by the sparse eigensolvers, ascending by value.
#[derive(Debug, Clone)]
pub struct SpectralPairs {
    /// Eigenvalues, ascending.
    pub values: Vec<f64>,
    /// Matching unit eigenvectors as columns.
    pub vectors: DenseMatrix,
}

/// Reusable buffers for the Lanczos iteration ([`lanczos_with`]).
///
/// The basis is stored as one flat `m × n` row-major buffer, so growing
/// the subspace is an amortized `extend` instead of a fresh `Vec` per
/// iteration. Callers that run Lanczos repeatedly can additionally hold
/// one workspace across calls to make whole calls allocation-free once
/// the buffers have grown to size ([`lanczos`] itself allocates a fresh
/// workspace per call).
#[derive(Debug, Clone, Default)]
pub struct LanczosWorkspace {
    /// Lanczos vectors, row-major `m × n`.
    basis: Vec<f64>,
    /// The working vector `w`.
    w: Vec<f64>,
    /// Normalized deflation constraints, row-major.
    cons: Vec<f64>,
    alpha: Vec<f64>,
    beta: Vec<f64>,
}

impl LanczosWorkspace {
    /// An empty workspace (buffers are sized on first use).
    pub fn new() -> Self {
        LanczosWorkspace::default()
    }
}

/// Compute the `k` largest eigenpairs of `op` (see [`lanczos`]).
///
/// # Errors
/// Propagates [`LinalgError::NotConverged`] when the subspace cap is hit
/// before the requested pairs converge.
pub fn lanczos_largest<A: LinearOperator>(
    op: &A,
    k: usize,
    constraints: &[Vec<f64>],
    opts: &LanczosOptions,
) -> Result<SpectralPairs, LinalgError> {
    lanczos(op, k, Which::Largest, constraints, opts)
}

/// Lanczos driver: grows the Krylov subspace with full reorthogonalization,
/// monitoring Ritz residuals at the requested end of the spectrum and
/// keeping the basis orthogonal to every vector in `constraints`
/// (deflation). A fresh workspace is allocated per call; use
/// [`lanczos_with`] to amortize it across calls.
///
/// # Errors
/// Propagates [`LinalgError::NotConverged`] when the subspace cap is hit
/// before the requested pairs converge.
pub fn lanczos<A: LinearOperator>(
    op: &A,
    k: usize,
    which: Which,
    constraints: &[Vec<f64>],
    opts: &LanczosOptions,
) -> Result<SpectralPairs, LinalgError> {
    lanczos_with(
        op,
        k,
        which,
        constraints,
        opts,
        &mut LanczosWorkspace::new(),
    )
}

/// [`lanczos`] drawing every buffer — the growing basis included — from a
/// reusable [`LanczosWorkspace`], so the inner loop performs no
/// per-iteration allocation (the basis grows by amortized `extend` into
/// the workspace) and repeat calls reuse the grown buffers outright.
///
/// # Errors
/// See [`lanczos`].
pub fn lanczos_with<A: LinearOperator>(
    op: &A,
    k: usize,
    which: Which,
    constraints: &[Vec<f64>],
    opts: &LanczosOptions,
    ws: &mut LanczosWorkspace,
) -> Result<SpectralPairs, LinalgError> {
    let n = op.dim();
    if k == 0 {
        return Ok(SpectralPairs {
            values: Vec::new(),
            vectors: DenseMatrix::zeros(n, 0),
        });
    }
    let usable = n.saturating_sub(constraints.len());
    if k > usable {
        return Err(LinalgError::InvalidInput(format!(
            "requested {k} eigenpairs but only {usable} are available after deflation"
        )));
    }
    let max_m = opts.max_subspace.min(usable);

    let LanczosWorkspace {
        basis,
        w,
        cons,
        alpha,
        beta,
    } = ws;
    basis.clear();
    alpha.clear();
    beta.clear();
    w.resize(n, 0.0);

    // Normalized constraint basis for deflation (rows of `cons`).
    cons.clear();
    for c in constraints {
        let start = cons.len();
        cons.extend_from_slice(c);
        let (prev, cur) = cons.split_at_mut(start);
        for q in prev.chunks_exact(n) {
            vecops::orthogonalize_against(q, cur);
        }
        if vecops::normalize(cur) <= 1e-12 {
            cons.truncate(start);
        }
    }

    let mut rng = Rng::seed_from_u64(opts.seed);

    // Start vector: random, deflated, normalized.
    for x in w.iter_mut() {
        *x = rng.standard_normal();
    }
    for c in cons.chunks_exact(n) {
        vecops::orthogonalize_against(c, w);
    }
    if vecops::normalize(w) == 0.0 {
        return Err(LinalgError::InvalidInput(
            "start vector annihilated by constraints".into(),
        ));
    }
    basis.extend_from_slice(w);

    let check_every = 5usize;
    loop {
        let m = basis.len() / n;
        // w = A v_{m-1}; the Rayleigh quotient against v_{m-1} is alpha.
        let vlast = &basis[(m - 1) * n..m * n];
        op.apply(vlast, w);
        alpha.push(vecops::dot(vlast, w));
        // Deflate and full reorthogonalization (two passes) — this
        // subsumes the classical three-term recurrence and keeps the basis
        // orthogonal to working precision, preventing ghost Ritz values.
        for _ in 0..2 {
            for c in cons.chunks_exact(n) {
                vecops::orthogonalize_against(c, w);
            }
            for vj in basis.chunks_exact(n) {
                vecops::orthogonalize_against(vj, w);
            }
        }

        let b = vecops::norm2(w);
        let at_cap = m == max_m;
        let invariant = b < 1e-13;

        if m.is_multiple_of(check_every) || at_cap || invariant || m >= k + 2 {
            // Ritz extraction on the current (possibly block-decoupled)
            // tridiagonal matrix. A zero beta from a restart decouples the
            // blocks exactly, which tridiag_eig handles natively.
            let t = tridiag_eig(alpha, beta)?;
            let mm = alpha.len();
            let idx: Vec<usize> = match which {
                Which::Smallest => (0..k.min(mm)).collect(),
                Which::Largest => (mm.saturating_sub(k)..mm).collect(),
            };
            if idx.len() == k {
                let scale = t
                    .values
                    .iter()
                    .fold(0.0f64, |acc, &x| acc.max(x.abs()))
                    .max(1e-30);
                let all_ok = idx.iter().all(|&i| {
                    let s_last = t.vectors.get(mm - 1, i);
                    (b * s_last).abs() <= opts.tol * scale
                });
                // Once the whole deflated space is spanned, residuals are
                // exactly zero regardless of the last-row criterion.
                let spans_everything = invariant && mm >= usable;
                if all_ok || spans_everything {
                    return Ok(assemble_ritz(basis, &t, &idx, k, n));
                }
            }
            if at_cap {
                return Err(LinalgError::NotConverged {
                    method: "lanczos",
                    iterations: mm,
                    residual: b,
                });
            }
        }

        if invariant {
            // Invariant subspace hit before convergence (eigenvalue
            // multiplicity): restart with a fresh deflated direction.
            for x in w.iter_mut() {
                *x = rng.standard_normal();
            }
            for _ in 0..2 {
                for c in cons.chunks_exact(n) {
                    vecops::orthogonalize_against(c, w);
                }
                for vj in basis.chunks_exact(n) {
                    vecops::orthogonalize_against(vj, w);
                }
            }
            if vecops::normalize(w) < 1e-10 {
                return Err(LinalgError::NotConverged {
                    method: "lanczos (no fresh direction)",
                    iterations: m,
                    residual: b,
                });
            }
            beta.push(0.0);
        } else {
            vecops::scale(1.0 / b, w);
            beta.push(b);
        }
        basis.extend_from_slice(w);
    }
}

/// Assemble, sort (ascending) and normalize the selected Ritz pairs from
/// the flat row-major basis.
fn assemble_ritz(
    basis: &[f64],
    t: &crate::symeig::SymEig,
    idx: &[usize],
    k: usize,
    n: usize,
) -> SpectralPairs {
    let values_raw: Vec<f64> = idx.iter().map(|&i| t.values[i]).collect();
    let mut cols: Vec<Vec<f64>> = Vec::with_capacity(k);
    for &i in idx {
        let mut y = vec![0.0; n];
        for (j, vj) in basis.chunks_exact(n).enumerate() {
            vecops::axpy(t.vectors.get(j, i), vj, &mut y);
        }
        vecops::normalize(&mut y);
        cols.push(y);
    }
    let mut order: Vec<usize> = (0..k).collect();
    order.sort_by(|&a, &b| values_raw[a].partial_cmp(&values_raw[b]).unwrap());
    let values: Vec<f64> = order.iter().map(|&i| values_raw[i]).collect();
    let sorted_cols: Vec<Vec<f64>> = order.iter().map(|&i| cols[i].clone()).collect();
    SpectralPairs {
        values,
        vectors: DenseMatrix::from_columns(&sorted_cols),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sparse::CsrMatrix;
    use crate::symeig::SymEig;

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
    fn smallest_nontrivial_of_path_matches_closed_form() {
        let n = 30;
        let l = path_laplacian(n);
        let ones = vec![1.0; n];
        let pairs = lanczos(&l, 4, Which::Smallest, &[ones], &LanczosOptions::default()).unwrap();
        for (k, &lam) in pairs.values.iter().enumerate() {
            let expect = 2.0 - 2.0 * (std::f64::consts::PI * (k + 1) as f64 / n as f64).cos();
            assert!(
                (lam - expect).abs() < 1e-8,
                "k={k}: got {lam}, want {expect}"
            );
        }
    }

    #[test]
    fn largest_of_diagonal() {
        let d = CsrMatrix::from_triplets(
            5,
            5,
            &[
                (0, 0, 1.0),
                (1, 1, 5.0),
                (2, 2, 3.0),
                (3, 3, 9.0),
                (4, 4, 7.0),
            ],
        );
        let pairs = lanczos_largest(&d, 2, &[], &LanczosOptions::default()).unwrap();
        assert!((pairs.values[0] - 7.0).abs() < 1e-9);
        assert!((pairs.values[1] - 9.0).abs() < 1e-9);
    }

    #[test]
    fn eigenvectors_satisfy_residual() {
        let l = path_laplacian(25);
        let ones = vec![1.0; 25];
        let pairs = lanczos(&l, 3, Which::Smallest, &[ones], &LanczosOptions::default()).unwrap();
        for i in 0..3 {
            let x = pairs.vectors.column(i);
            let ax = l.matvec(&x);
            let mut r = ax;
            vecops::axpy(-pairs.values[i], &x, &mut r);
            assert!(vecops::norm2(&r) < 1e-7, "pair {i}");
        }
    }

    #[test]
    fn matches_dense_decomposition() {
        let l = path_laplacian(12);
        let dense = SymEig::compute(&l.to_dense()).unwrap();
        let ones = vec![1.0; 12];
        let pairs = lanczos(&l, 5, Which::Smallest, &[ones], &LanczosOptions::default()).unwrap();
        for i in 0..5 {
            assert!((pairs.values[i] - dense.values[i + 1]).abs() < 1e-8);
        }
    }

    #[test]
    fn reused_workspace_is_bit_identical() {
        // Repeated calls through one workspace (dirty buffers from a
        // differently-sized previous run included) must match the fresh
        // allocating path exactly.
        let mut ws = LanczosWorkspace::new();
        let big = path_laplacian(40);
        lanczos_with(
            &big,
            3,
            Which::Smallest,
            &[vec![1.0; 40]],
            &LanczosOptions::default(),
            &mut ws,
        )
        .unwrap();
        for n in [25usize, 30] {
            let l = path_laplacian(n);
            let ones = vec![1.0; n];
            let fresh = lanczos(
                &l,
                4,
                Which::Smallest,
                std::slice::from_ref(&ones),
                &LanczosOptions::default(),
            )
            .unwrap();
            let reused = lanczos_with(
                &l,
                4,
                Which::Smallest,
                &[ones],
                &LanczosOptions::default(),
                &mut ws,
            )
            .unwrap();
            assert_eq!(reused.values, fresh.values);
            assert_eq!(reused.vectors, fresh.vectors);
        }
    }

    #[test]
    fn zero_k_is_empty() {
        let l = path_laplacian(5);
        let pairs = lanczos(&l, 0, Which::Smallest, &[], &LanczosOptions::default()).unwrap();
        assert!(pairs.values.is_empty());
    }

    #[test]
    fn too_many_pairs_is_an_error() {
        let l = path_laplacian(5);
        let ones = vec![1.0; 5];
        assert!(lanczos(&l, 5, Which::Smallest, &[ones], &LanczosOptions::default()).is_err());
    }
}
