//! Locally optimal block preconditioned conjugate gradients (LOBPCG).
//!
//! This is the eigensolver behind Step 2 of the SGL loop: it computes the
//! first `r−1` nontrivial Laplacian eigenpairs of the evolving learned
//! graph, with the constant vector deflated through an explicit constraint
//! and a fast Laplacian solver plugged in as the preconditioner. SGL's
//! embed passes an exact `L⁺` while the graph is a near-tree (`k` off-tree
//! edges with `k² ≤ 16·n`: a tree solve plus a Woodbury correction), and
//! an AMG V-cycle above that rule, where a tree solve alone would need
//! many times the iterations. The constraints are projected out of every
//! new block: with a near-exact inverse the preconditioned residuals fall
//! almost inside the block, and the round-off their normalization
//! amplifies must not accumulate along the constant vector.
//!
//! The iteration is the standard form of Knyazev (2001). With a search
//! block of `b = nev + extra_block` columns, one iteration costs:
//!
//! * `3·b` operator applications — `A` on the block `X` (so the
//!   convergence test always sees fresh residuals), on the preconditioned
//!   residuals `W`, and on the conjugate directions `P`;
//! * `b` preconditioner applications;
//! * Gram–Schmidt of `W` against `X`, and of `P` against `X` and `W`
//!   (`X` itself is orthonormal by construction);
//! * one Rayleigh–Ritz of order `m ≤ 3·b`: the upper triangle of
//!   `Sᵀ(AS)` for `S = [X W P]`, and a dense `m × m` eigensolve.
//!
//! The next block is `X = S·C` for the `b` lowest Ritz vectors `C`, and
//! the next conjugate directions are the `[W P]` rows of that update,
//! `P = W·C_W + P·C_P`.

use crate::cg::Preconditioner;
use crate::dense::DenseMatrix;
use crate::error::LinalgError;
use crate::operator::LinearOperator;
use crate::rng::Rng;
use crate::symeig::SymEig;
use crate::vecops;

/// Options for a LOBPCG run.
#[derive(Debug, Clone)]
pub struct LobpcgOptions {
    /// Relative residual tolerance: pair `i` is converged when
    /// `‖A xᵢ − θᵢ xᵢ‖ ≤ tol · max(‖A‖_est, |θᵢ|)`, where `‖A‖_est` is the
    /// largest `‖A x‖` seen over the unit block columns so far.
    pub tol: f64,
    /// Iteration cap.
    pub max_iter: usize,
    /// Extra basis vectors carried beyond the requested count (guards the
    /// targeted pairs against slow convergence of the block edge).
    pub extra_block: usize,
    /// Seed for the random initial block.
    pub seed: u64,
}

impl Default for LobpcgOptions {
    fn default() -> Self {
        LobpcgOptions {
            tol: 1e-8,
            max_iter: 500,
            extra_block: 2,
            seed: 11,
        }
    }
}

/// Output of [`lobpcg`].
#[derive(Debug, Clone)]
pub struct LobpcgResult {
    /// The `nev` smallest eigenvalues (ascending) in the deflated subspace.
    pub values: Vec<f64>,
    /// Matching unit eigenvectors as columns (`n × nev`).
    pub vectors: DenseMatrix,
    /// Iterations performed.
    pub iterations: usize,
    /// Final residual norms per returned pair.
    pub residuals: Vec<f64>,
}

/// Search directions whose norm falls below this fraction of their norm
/// before orthogonalization are numerically dependent and dropped.
const DROP_TOL: f64 = 1e-8;
/// Largest `|XᵀX − I|` entry tolerated before the block is cleaned up.
const ORTHO_TOL: f64 = 1e-10;

/// Compute the `nev` smallest eigenpairs of `op` orthogonal to
/// `constraints`, using `precond` as an (approximate) inverse.
///
/// # Errors
/// Returns [`LinalgError::NotConverged`] when the iteration cap is reached
/// or the block loses rank, and [`LinalgError::InvalidInput`] when `nev`
/// exceeds the deflated dimension or the operator or preconditioner
/// yields a non-finite value.
pub fn lobpcg<A: LinearOperator, M: Preconditioner>(
    op: &A,
    precond: &M,
    nev: usize,
    constraints: &[Vec<f64>],
    opts: &LobpcgOptions,
) -> Result<LobpcgResult, LinalgError> {
    lobpcg_with_guess(op, precond, nev, constraints, None, opts)
}

/// [`lobpcg`] with a warm-start block: columns of `guess` seed the search
/// subspace (any missing columns are filled randomly). When the operator
/// changed only slightly since the guess was computed — SGL adds a
/// handful of edges per iteration — convergence drops to a few steps.
///
/// # Errors
/// See [`lobpcg`].
pub fn lobpcg_with_guess<A: LinearOperator, M: Preconditioner>(
    op: &A,
    precond: &M,
    nev: usize,
    constraints: &[Vec<f64>],
    guess: Option<&DenseMatrix>,
    opts: &LobpcgOptions,
) -> Result<LobpcgResult, LinalgError> {
    let n = op.dim();
    if nev == 0 {
        return Ok(LobpcgResult {
            values: Vec::new(),
            vectors: DenseMatrix::zeros(n, 0),
            iterations: 0,
            residuals: Vec::new(),
        });
    }
    let usable = n.saturating_sub(constraints.len());
    if nev > usable {
        return Err(LinalgError::InvalidInput(format!(
            "requested {nev} eigenpairs but only {usable} remain after deflation"
        )));
    }
    let block = (nev + opts.extra_block).min(usable);

    // Orthonormal constraint basis.
    let mut cons = Block::zeros(n, constraints.len());
    for (j, c) in constraints.iter().enumerate() {
        cons.col_mut(j).copy_from_slice(c);
    }
    orthonormalize(&mut cons, &[], 1e-12)?;

    // Initial block: warm-start columns first, random fill after (drawn
    // row by row), deflated and orthonormalized. A guess column inside the
    // constraint span is dropped rather than normalized from round-off.
    let mut rng = Rng::seed_from_u64(opts.seed);
    if let Some(g) = guess {
        debug_assert_eq!(g.nrows(), n, "guess row count mismatch");
    }
    let mut x = Block::zeros(n, block);
    for i in 0..n {
        for j in 0..block {
            x.data[j * n + i] = match guess {
                Some(g) if j < g.ncols() => g.get(i, j),
                _ => rng.standard_normal(),
            };
        }
    }
    orthonormalize(&mut x, &[&cons], 1e-12)?;
    while x.ncols < block {
        // Degenerate guess columns: top up with fresh random directions.
        let mut extra = Block {
            n,
            ncols: 1,
            data: rng.normal_vec(n),
        };
        orthonormalize(&mut extra, &[&cons, &x], 1e-12)?;
        if extra.ncols == 0 {
            return Err(LinalgError::InvalidInput(
                "initial block lost rank after deflation".into(),
            ));
        }
        x.data.extend_from_slice(&extra.data);
        x.ncols += 1;
    }

    let mut ax = Block::zeros(n, block);
    let mut r = Block::zeros(n, block);
    let mut p: Option<Block> = None;
    let mut theta = vec![0.0; block];
    let mut last_resid = vec![f64::INFINITY; nev];
    // Running estimate of ‖A‖ from the unit basis columns seen so far;
    // the convergence threshold must scale with it, not with the (often
    // tiny) block eigenvalues, or the attainable round-off floor
    // ε·‖A‖ sits above the target and the iteration spins.
    let mut a_norm = 1e-300f64;

    for iter in 1..=opts.max_iter {
        // Rayleigh quotients and residuals R = AX − X·diag(θ).
        for j in 0..block {
            let (xj, axj) = (x.col(j), ax.col_mut(j));
            op.apply(xj, axj);
            a_norm = a_norm.max(norm(axj));
            theta[j] = dot(xj, axj);
            for ((rv, &av), &xv) in r.col_mut(j).iter_mut().zip(ax.col(j)).zip(xj) {
                *rv = av - theta[j] * xv;
            }
            if !theta[j].is_finite() {
                return Err(non_finite("Rayleigh quotient"));
            }
        }
        // Convergence on the nev targeted pairs, relative to ‖A‖.
        let mut all_ok = true;
        for j in 0..nev {
            let rn = norm(r.col(j));
            if !rn.is_finite() {
                return Err(non_finite("residual"));
            }
            last_resid[j] = rn;
            if rn > opts.tol * a_norm.max(theta[j].abs()) {
                all_ok = false;
            }
        }
        if all_ok {
            debug_assert!(
                x.cols()
                    .all(|xj| cons.cols().all(|c| dot(c, xj).abs() <= 1e-8 * norm(xj))),
                "lobpcg: a returned vector has a component in the constraint span"
            );
            let (vals, vecs) = finalize(&x, &theta, nev);
            return Ok(LobpcgResult {
                values: vals,
                vectors: vecs,
                iterations: iter,
                residuals: last_resid,
            });
        }

        // Preconditioned residuals, deflated, orthonormal to X.
        let mut w = Block::zeros(n, block);
        for j in 0..block {
            let wj = w.col_mut(j);
            precond.apply(r.col(j), wj);
            project_out(&cons, wj);
        }
        orthonormalize(&mut w, &[&x], DROP_TOL)?;
        // Conjugate directions, orthonormal to X and W.
        if let Some(pm) = p.as_mut() {
            orthonormalize(pm, &[&x, &w], DROP_TOL)?;
        }
        let p_live = p.take().filter(|pm| pm.ncols > 0);
        let aw = apply_block(op, &w);
        let ap = p_live.as_ref().map(|pm| apply_block(op, pm));

        // Rayleigh–Ritz on S = [X W P]: G = Sᵀ(AS), upper triangle.
        let s: Vec<&[f64]> = x
            .cols()
            .chain(w.cols())
            .chain(p_live.iter().flat_map(Block::cols))
            .collect();
        let as_: Vec<&[f64]> = ax
            .cols()
            .chain(aw.cols())
            .chain(ap.iter().flat_map(Block::cols))
            .collect();
        let m = s.len();
        let mut g = DenseMatrix::zeros(m, m);
        for i in 0..m {
            for j in i..m {
                let v = dot(s[i], as_[j]);
                g.set(i, j, v);
                g.set(j, i, v);
            }
        }
        if !g.as_slice().iter().all(|v| v.is_finite()) {
            return Err(non_finite("Rayleigh–Ritz matrix"));
        }
        let eig = SymEig::compute(&g)?;

        // P = [W P]·C_{W,P}, then X = X·C_X + P = S·C, orthonormal as S
        // and C are.
        let c = &eig.vectors;
        let mut x_new = Block::zeros(n, block);
        let mut p_new = Block::zeros(n, block);
        for j in 0..block {
            let pj = p_new.col_mut(j);
            for k in block..m {
                vecops::axpy(c.get(k, j), s[k], pj);
            }
            let xj = x_new.col_mut(j);
            xj.copy_from_slice(p_new.col(j));
            for k in 0..block {
                vecops::axpy(c.get(k, j), s[k], xj);
            }
        }
        p = (m > block).then_some(p_new);
        // Deflate the new block too. Once a near-exact preconditioner has
        // put W almost inside span(X), normalizing W's remainder amplifies
        // round-off in the constraint directions; left in X, Rayleigh–Ritz
        // would grow that component towards the constraint's own (lower)
        // eigenvalue.
        for xj in x_new.data.chunks_exact_mut(n) {
            project_out(&cons, xj);
        }

        if orthonormality_defect(&x_new) > ORTHO_TOL {
            // Round-off has eroded the basis: clean the block and restart
            // the search directions from it.
            orthonormalize(&mut x_new, &[&cons], 1e-12)?;
            p = None;
            if x_new.ncols < block {
                return Err(LinalgError::NotConverged {
                    method: "lobpcg (block rank collapse)",
                    iterations: iter,
                    residual: last_resid.iter().fold(0.0f64, |a, &b| a.max(b)),
                });
            }
        }
        x = x_new;
    }
    Err(LinalgError::NotConverged {
        method: "lobpcg",
        iterations: opts.max_iter,
        residual: last_resid.iter().fold(0.0f64, |a, &b| a.max(b)),
    })
}

/// A block of `ncols` vectors of length `n`, each stored contiguously
/// (column-major), so every kernel below streams unit-stride slices.
struct Block {
    n: usize,
    ncols: usize,
    data: Vec<f64>,
}

impl Block {
    fn zeros(n: usize, ncols: usize) -> Self {
        Block {
            n,
            ncols,
            data: vec![0.0; n * ncols],
        }
    }

    fn col(&self, j: usize) -> &[f64] {
        &self.data[j * self.n..(j + 1) * self.n]
    }

    fn col_mut(&mut self, j: usize) -> &mut [f64] {
        &mut self.data[j * self.n..(j + 1) * self.n]
    }

    fn cols(&self) -> std::slice::ChunksExact<'_, f64> {
        self.data.chunks_exact(self.n)
    }
}

/// `xᵀy` over eight independent partial sums: the additions pipeline (and
/// vectorize) instead of each waiting on one running total.
#[inline]
fn dot(x: &[f64], y: &[f64]) -> f64 {
    const LANES: usize = 8;
    assert_eq!(x.len(), y.len(), "dot: length mismatch");
    let (xs, ys) = (x.chunks_exact(LANES), y.chunks_exact(LANES));
    let tail: f64 = xs
        .remainder()
        .iter()
        .zip(ys.remainder())
        .map(|(a, b)| a * b)
        .sum();
    let mut acc = [0.0f64; LANES];
    for (a, b) in xs.zip(ys) {
        for k in 0..LANES {
            acc[k] += a[k] * b[k];
        }
    }
    acc.iter().sum::<f64>() + tail
}

#[inline]
fn norm(x: &[f64]) -> f64 {
    dot(x, x).sqrt()
}

/// Remove from `v` its components along the orthonormal columns of `basis`.
fn project_out(basis: &Block, v: &mut [f64]) {
    for c in basis.cols() {
        vecops::axpy(-dot(c, v), c, v);
    }
}

fn non_finite(what: &str) -> LinalgError {
    LinalgError::InvalidInput(format!(
        "lobpcg: non-finite {what} (the operator or preconditioner produced NaN or inf)"
    ))
}

/// Orthonormalize the columns of `v` against the orthonormal columns of
/// `basis` and against each other by modified Gram–Schmidt, in place. A
/// column gets a second pass when the first cancelled more than half of
/// its length ("twice is enough"), and is dropped when what remains is
/// below `drop_tol` of its original norm. Survivors keep their order.
fn orthonormalize(v: &mut Block, basis: &[&Block], drop_tol: f64) -> Result<(), LinalgError> {
    let n = v.n;
    let mut kept = 0;
    for j in 0..v.ncols {
        let (done, rest) = v.data.split_at_mut(j * n);
        let c = &mut rest[..n];
        let orig = norm(c);
        if !orig.is_finite() {
            return Err(non_finite("search vector"));
        }
        if orig == 0.0 {
            continue;
        }
        let mut before = orig;
        let mut rem = orig;
        for _ in 0..2 {
            let prior = basis.iter().flat_map(|b| b.cols());
            for q in prior.chain(done[..kept * n].chunks_exact(n)) {
                vecops::axpy(-dot(q, c), q, c);
            }
            rem = norm(c);
            if rem > std::f64::consts::FRAC_1_SQRT_2 * before {
                break;
            }
            before = rem;
        }
        if rem > drop_tol * orig {
            vecops::scale(1.0 / rem, c);
            v.data.copy_within(j * n..(j + 1) * n, kept * n);
            kept += 1;
        }
    }
    v.ncols = kept;
    v.data.truncate(kept * n);
    Ok(())
}

/// Largest entry of `|XᵀX − I|`.
fn orthonormality_defect(x: &Block) -> f64 {
    let mut worst = 0.0f64;
    for i in 0..x.ncols {
        for j in i..x.ncols {
            let want = if i == j { 1.0 } else { 0.0 };
            worst = worst.max((dot(x.col(i), x.col(j)) - want).abs());
        }
    }
    worst
}

fn apply_block<A: LinearOperator>(op: &A, v: &Block) -> Block {
    let mut out = Block::zeros(v.n, v.ncols);
    for (src, dst) in v.cols().zip(out.data.chunks_exact_mut(v.n)) {
        op.apply(src, dst);
    }
    out
}

/// Sort the block by Rayleigh quotient and return the first `nev` pairs.
fn finalize(x: &Block, theta: &[f64], nev: usize) -> (Vec<f64>, DenseMatrix) {
    let mut order: Vec<usize> = (0..x.ncols).collect();
    order.sort_by(|&a, &b| theta[a].total_cmp(&theta[b]));
    let vals: Vec<f64> = order.iter().take(nev).map(|&j| theta[j]).collect();
    let cols: Vec<Vec<f64>> = order.iter().take(nev).map(|&j| x.col(j).to_vec()).collect();
    (vals, DenseMatrix::from_columns(&cols))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cg::{IdentityPreconditioner, JacobiPreconditioner};
    use crate::operator::FnOperator;
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

    fn grid_laplacian(nx: usize, ny: usize) -> CsrMatrix {
        let id = |i: usize, j: usize| i * ny + j;
        let n = nx * ny;
        let mut t = Vec::new();
        let mut add = |a: usize, b: usize| {
            t.push((a, a, 1.0));
            t.push((b, b, 1.0));
            t.push((a, b, -1.0));
            t.push((b, a, -1.0));
        };
        for i in 0..nx {
            for j in 0..ny {
                if i + 1 < nx {
                    add(id(i, j), id(i + 1, j));
                }
                if j + 1 < ny {
                    add(id(i, j), id(i, j + 1));
                }
            }
        }
        CsrMatrix::from_triplets(n, n, &t)
    }

    #[test]
    fn path_smallest_nontrivial() {
        let n = 40;
        let l = path_laplacian(n);
        let ones = vec![1.0; n];
        let res = lobpcg(
            &l,
            &IdentityPreconditioner,
            3,
            &[ones],
            &LobpcgOptions::default(),
        )
        .unwrap();
        for (k, &lam) in res.values.iter().enumerate() {
            let expect = 2.0 - 2.0 * (std::f64::consts::PI * (k + 1) as f64 / n as f64).cos();
            assert!(
                (lam - expect).abs() < 1e-6,
                "k={k}: got {lam} want {expect}"
            );
        }
    }

    #[test]
    fn grid_matches_dense_eig() {
        let l = grid_laplacian(6, 5);
        let dense = SymEig::compute(&l.to_dense()).unwrap();
        let ones = vec![1.0; 30];
        let res = lobpcg(
            &l,
            &JacobiPreconditioner::from_diagonal(&l.diagonal()),
            4,
            &[ones],
            &LobpcgOptions::default(),
        )
        .unwrap();
        for k in 0..4 {
            assert!(
                (res.values[k] - dense.values[k + 1]).abs() < 1e-6,
                "k={k}: {} vs {}",
                res.values[k],
                dense.values[k + 1]
            );
        }
    }

    #[test]
    fn vectors_are_orthonormal_and_deflated() {
        let n = 30;
        let l = path_laplacian(n);
        let ones = vec![1.0; n];
        let res = lobpcg(
            &l,
            &IdentityPreconditioner,
            3,
            std::slice::from_ref(&ones),
            &LobpcgOptions::default(),
        )
        .unwrap();
        let g = res.vectors.gram();
        for i in 0..3 {
            for j in 0..3 {
                let want = if i == j { 1.0 } else { 0.0 };
                assert!((g.get(i, j) - want).abs() < 1e-6);
            }
            // Orthogonal to the constant vector.
            let dot1 = vecops::dot(&res.vectors.column(i), &ones);
            assert!(dot1.abs() < 1e-6);
        }
    }

    #[test]
    fn zero_nev_is_empty() {
        let l = path_laplacian(5);
        let res = lobpcg(
            &l,
            &IdentityPreconditioner,
            0,
            &[],
            &LobpcgOptions::default(),
        )
        .unwrap();
        assert!(res.values.is_empty());
        assert_eq!(res.iterations, 0);
    }

    #[test]
    fn excessive_nev_is_invalid() {
        let l = path_laplacian(4);
        let ones = vec![1.0; 4];
        assert!(matches!(
            lobpcg(
                &l,
                &IdentityPreconditioner,
                4,
                &[ones],
                &LobpcgOptions::default()
            ),
            Err(LinalgError::InvalidInput(_))
        ));
    }

    /// Laplacian of a weighted edge list.
    fn laplacian(n: usize, edges: &[(usize, usize, f64)]) -> CsrMatrix {
        let mut t = Vec::new();
        for &(a, b, w) in edges {
            t.push((a, a, w));
            t.push((b, b, w));
            t.push((a, b, -w));
            t.push((b, a, -w));
        }
        CsrMatrix::from_triplets(n, n, &t)
    }

    /// Edges of an `nx × ny` grid with weights drawn from `[0.5, 2)`.
    fn weighted_grid_edges(nx: usize, ny: usize, seed: u64) -> Vec<(usize, usize, f64)> {
        let mut rng = Rng::seed_from_u64(seed);
        let id = |i: usize, j: usize| i * ny + j;
        let mut edges = Vec::new();
        for i in 0..nx {
            for j in 0..ny {
                if i + 1 < nx {
                    edges.push((id(i, j), id(i + 1, j), rng.uniform_in(0.5, 2.0)));
                }
                if j + 1 < ny {
                    edges.push((id(i, j), id(i, j + 1), rng.uniform_in(0.5, 2.0)));
                }
            }
        }
        edges
    }

    fn jacobi(l: &CsrMatrix) -> JacobiPreconditioner {
        JacobiPreconditioner::from_diagonal(&l.diagonal())
    }

    /// The returned pairs are the smallest nontrivial eigenpairs of `l`
    /// (values within `tol` of the dense reference) and the vectors are
    /// orthonormal and orthogonal to the constant vector.
    fn assert_matches_dense(l: &CsrMatrix, res: &LobpcgResult, tol: f64) {
        let dense = SymEig::compute(&l.to_dense()).unwrap();
        for (k, &lam) in res.values.iter().enumerate() {
            let want = dense.values[k + 1];
            assert!((lam - want).abs() < tol, "pair {k}: {lam} vs {want}");
        }
        let g = res.vectors.gram();
        let ones = vec![1.0; l.nrows()];
        for i in 0..res.values.len() {
            for j in 0..res.values.len() {
                let want = if i == j { 1.0 } else { 0.0 };
                assert!((g.get(i, j) - want).abs() < 1e-8, "gram ({i},{j})");
            }
            assert!(vecops::dot(&res.vectors.column(i), &ones).abs() < 1e-8);
        }
    }

    #[test]
    fn non_finite_operator_is_an_error_not_convergence() {
        let n = 20;
        let ones = vec![1.0; n];
        for bad in [f64::NAN, f64::INFINITY] {
            let op = FnOperator::new(n, move |_: &[f64], y: &mut [f64]| y.fill(bad));
            let res = lobpcg(
                &op,
                &IdentityPreconditioner,
                2,
                std::slice::from_ref(&ones),
                &LobpcgOptions::default(),
            );
            assert!(
                matches!(res, Err(LinalgError::InvalidInput(_))),
                "{bad}: {res:?}"
            );
        }
    }

    #[test]
    fn non_finite_preconditioner_is_an_error() {
        struct NanPreconditioner;
        impl Preconditioner for NanPreconditioner {
            fn apply(&self, _: &[f64], z: &mut [f64]) {
                z.fill(f64::NAN);
            }
        }
        let l = path_laplacian(20);
        let ones = vec![1.0; 20];
        let res = lobpcg(
            &l,
            &NanPreconditioner,
            2,
            &[ones],
            &LobpcgOptions::default(),
        );
        assert!(matches!(res, Err(LinalgError::InvalidInput(_))), "{res:?}");
    }

    #[test]
    fn warm_start_after_two_new_edges_beats_cold_start() {
        let (nx, ny) = (12, 10);
        let n = nx * ny;
        let ones = vec![1.0; n];
        let opts = LobpcgOptions::default();
        let mut edges = weighted_grid_edges(nx, ny, 3);
        let before = laplacian(n, &edges);
        let old = lobpcg(
            &before,
            &jacobi(&before),
            4,
            std::slice::from_ref(&ones),
            &opts,
        )
        .unwrap();

        edges.push((14, 52, 0.7));
        edges.push((61, 107, 1.3));
        let after = laplacian(n, &edges);
        let cold = lobpcg(
            &after,
            &jacobi(&after),
            4,
            std::slice::from_ref(&ones),
            &opts,
        )
        .unwrap();
        let warm = lobpcg_with_guess(
            &after,
            &jacobi(&after),
            4,
            std::slice::from_ref(&ones),
            Some(&old.vectors),
            &opts,
        )
        .unwrap();
        assert_matches_dense(&after, &cold, 1e-6);
        assert_matches_dense(&after, &warm, 1e-6);
        assert!(
            warm.iterations < cold.iterations,
            "warm {} vs cold {} iterations",
            warm.iterations,
            cold.iterations
        );
    }

    #[test]
    fn duplicate_guess_columns_are_topped_up() {
        let l = grid_laplacian(7, 6);
        let ones = vec![1.0; 42];
        let opts = LobpcgOptions::default();
        let first = lobpcg(&l, &jacobi(&l), 3, std::slice::from_ref(&ones), &opts).unwrap();
        let v = first.vectors.column(0);
        // Three copies of one vector and one that deflation zeroes: a
        // single usable direction for a block of five.
        let guess = DenseMatrix::from_columns(&[v.clone(), v.clone(), v, ones.clone()]);
        let res = lobpcg_with_guess(
            &l,
            &jacobi(&l),
            3,
            std::slice::from_ref(&ones),
            Some(&guess),
            &opts,
        )
        .unwrap();
        assert_eq!(res.values.len(), 3);
        assert_matches_dense(&l, &res, 1e-6);
    }

    #[test]
    fn session_shape_on_irregular_weighted_graph_matches_dense() {
        // A random tree plus random chords, weights over three decades.
        let n = 160;
        let mut rng = Rng::seed_from_u64(29);
        let mut edges = Vec::new();
        for v in 1..n {
            edges.push((rng.below(v), v, 10f64.powf(rng.uniform_in(-1.5, 1.5))));
        }
        for _ in 0..2 * n {
            let (a, b) = (rng.below(n), rng.below(n));
            if a != b {
                edges.push((a.min(b), a.max(b), 10f64.powf(rng.uniform_in(-1.5, 1.5))));
            }
        }
        let l = laplacian(n, &edges);
        let ones = vec![1.0; n];
        let res = lobpcg(
            &l,
            &jacobi(&l),
            4,
            std::slice::from_ref(&ones),
            &LobpcgOptions {
                tol: 1e-7,
                max_iter: 400,
                extra_block: 3,
                seed: 0xE16,
            },
        )
        .unwrap();
        assert_matches_dense(&l, &res, 1e-6);
    }

    /// `L⁺` as a dense matrix, from the nonzero eigenpairs of `l`.
    struct PseudoInverse(DenseMatrix);

    impl PseudoInverse {
        fn of(l: &CsrMatrix) -> Self {
            let n = l.nrows();
            let eig = SymEig::compute(&l.to_dense()).unwrap();
            let mut m = DenseMatrix::zeros(n, n);
            for k in 1..n {
                let v = eig.vectors.column(k);
                for (i, &vi) in v.iter().enumerate() {
                    vecops::axpy(vi / eig.values[k], &v, m.row_mut(i));
                }
            }
            PseudoInverse(m)
        }
    }

    impl Preconditioner for PseudoInverse {
        fn apply(&self, r: &[f64], z: &mut [f64]) {
            z.copy_from_slice(&self.0.matvec(r));
        }
    }

    #[test]
    fn exact_inverse_preconditioner_keeps_the_block_deflated() {
        // SGL's shape: a tree with conductances over four decades gains
        // three chords per step, and each solve is warm-started from the
        // last. With an exact inverse, W falls almost inside span(X); its
        // normalized remainder then carries amplified round-off along the
        // constant vector, which X must not accumulate.
        let (n, nev) = (100, 9);
        let ones = vec![1.0; n];
        let weight = |rng: &mut Rng| 10f64.powf(4.0 * rng.uniform() - 2.0);
        let opts = LobpcgOptions {
            tol: 1e-7,
            max_iter: 400,
            extra_block: 3,
            seed: 0xE16,
        };
        for seed in [2, 3, 6] {
            let mut rng = Rng::seed_from_u64(seed);
            let mut edges: Vec<(usize, usize, f64)> = (1..n)
                .map(|v| (rng.below(v), v, weight(&mut rng)))
                .collect();
            let mut guess: Option<DenseMatrix> = None;
            for step in 0..6 {
                let l = laplacian(n, &edges);
                let res = lobpcg_with_guess(
                    &l,
                    &PseudoInverse::of(&l),
                    nev,
                    std::slice::from_ref(&ones),
                    guess.as_ref(),
                    &opts,
                )
                .unwrap();
                for j in 0..nev {
                    let leak = vecops::dot(&res.vectors.column(j), &ones) / (n as f64).sqrt();
                    assert!(
                        leak.abs() < 1e-8,
                        "seed {seed} step {step}: vector {j} has {leak:.1e} along the constraint"
                    );
                }
                assert_matches_dense(&l, &res, 1e-6);
                guess = Some(res.vectors);
                for _ in 0..3 {
                    let (a, b) = (rng.below(n), rng.below(n));
                    if a != b {
                        edges.push((a.min(b), a.max(b), weight(&mut rng)));
                    }
                }
            }
        }
    }
}
