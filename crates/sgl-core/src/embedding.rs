//! Step 2 of Algorithm 1: spectral graph embedding.
//!
//! The projection matrix of eq. (12) uses the first `r − 1` nontrivial
//! Laplacian eigenpairs, each eigenvector scaled by `1/√(λ + 1/σ²)`:
//! squared row distances of the embedding are then exactly the truncated
//! effective-resistance estimates `z^emb` of eq. (13). Eigenpairs are
//! computed by deflated LOBPCG, warm-started from the previous
//! iteration's block, which keeps every SGL iteration nearly linear.
//!
//! The preconditioner follows the graph, by the same rule the solver
//! layer's `Auto` uses ([`exact_tree_or_amg`]). SGL learns near-trees: a
//! spanning tree plus `k = m − (n − 1)` off-tree edges. While
//! `k² ≤ 16·n` the preconditioner is an exact `L⁺` (a tree solve with a
//! Woodbury correction for the off-tree edges), and LOBPCG converges in
//! a few steps. Graphs above the rule (meshes, and the densest learned
//! graphs) are preconditioned by an aggregation-AMG V-cycle.

use crate::backend::Embedder;
use crate::error::SglError;
use sgl_graph::laplacian::LaplacianOp;
use sgl_graph::Graph;
use sgl_linalg::lanczos::{lanczos_largest, LanczosOptions};
use sgl_linalg::lobpcg::{lobpcg_with_guess, LobpcgOptions};
use sgl_linalg::{vecops, DenseMatrix, FnOperator, LinalgError, ProjectedOperator};
use sgl_solver::{exact_tree_or_amg, SolverContext, SolverHandle, SolverPolicy};
use std::cell::RefCell;

/// A spectral embedding `U_r` (eq. 12): row `u` is node `u`'s coordinate.
#[derive(Debug, Clone)]
pub struct Embedding {
    /// `N × (r−1)` coordinates, column `j` = `u_{j+2} / √(λ_{j+2} + 1/σ²)`.
    pub coords: DenseMatrix,
    /// The nontrivial eigenvalues `λ_2, …, λ_r` (ascending).
    pub eigenvalues: Vec<f64>,
    /// Eigensolver iterations spent.
    pub solver_iterations: usize,
}

impl Embedding {
    /// Squared embedding distance `z^emb_{s,t} = ‖U_r^T e_{s,t}‖²`.
    pub fn distance_sq(&self, s: usize, t: usize) -> f64 {
        vecops::dist_sq(self.coords.row(s), self.coords.row(t))
    }

    /// Number of embedded nodes.
    pub fn num_nodes(&self) -> usize {
        self.coords.nrows()
    }

    /// Embedding width (`r − 1`).
    pub fn width(&self) -> usize {
        self.coords.ncols()
    }
}

/// Options for [`spectral_embedding`].
#[derive(Debug, Clone)]
pub struct EmbeddingOptions {
    /// Eigensolver residual tolerance.
    pub tol: f64,
    /// Eigensolver iteration cap.
    pub max_iter: usize,
    /// Seed for the random initial block.
    pub seed: u64,
}

impl Default for EmbeddingOptions {
    fn default() -> Self {
        EmbeddingOptions {
            tol: 1e-7,
            max_iter: 400,
            seed: 0xE16,
        }
    }
}

/// Compute the `width = r − 1` dimensional spectral embedding of a
/// connected graph with diagonal shift `1/σ² = shift`.
///
/// # Errors
/// Returns [`SglError::InvalidGraph`] for empty/disconnected graphs and
/// propagates eigensolver failures.
pub fn spectral_embedding(
    graph: &Graph,
    width: usize,
    shift: f64,
    opts: &EmbeddingOptions,
) -> Result<Embedding, SglError> {
    spectral_embedding_warm(graph, width, shift, opts, None)
}

/// [`spectral_embedding`] seeded with a previous embedding's eigenvector
/// block (per-column scaling is irrelevant — LOBPCG orthonormalizes).
/// SGL's loop passes the previous iteration's embedding, which cuts the
/// eigensolver down to a few steps because only ~`⌈Nβ⌉` edges changed.
///
/// # Errors
/// See [`spectral_embedding`].
pub fn spectral_embedding_warm(
    graph: &Graph,
    width: usize,
    shift: f64,
    opts: &EmbeddingOptions,
    warm_start: Option<&DenseMatrix>,
) -> Result<Embedding, SglError> {
    let mut ctx = SolverContext::new(SolverPolicy::default());
    Embedder::Lobpcg.embed(graph, width, shift, opts, warm_start, &mut ctx)
}

/// The [`Embedder::Lobpcg`] arm; the caller has checked the input.
pub(crate) fn lobpcg_embedding(
    graph: &Graph,
    width: usize,
    shift: f64,
    opts: &EmbeddingOptions,
    warm_start: Option<&DenseMatrix>,
    ctx: &mut SolverContext,
) -> Result<Embedding, SglError> {
    let n = graph.num_nodes();
    let op = LaplacianOp::new(graph);
    let (_, precond) = exact_tree_or_amg(graph);
    let ones = vec![1.0; n];
    let res = match lobpcg_with_guess(
        &op,
        &precond.as_ref(),
        width,
        std::slice::from_ref(&ones),
        warm_start,
        &LobpcgOptions {
            tol: opts.tol,
            max_iter: opts.max_iter,
            extra_block: 3,
            seed: opts.seed,
        },
    ) {
        Ok(r) => r,
        Err(sgl_linalg::LinalgError::NotConverged { .. }) => {
            // Extreme weight spreads (e.g. very few measurements with
            // near-duplicate rows) can stall LOBPCG; shift-invert Lanczos
            // through a fast solve is far more robust for tightly
            // clustered smallest eigenvalues.
            sgl_trace::count("embed.fallbacks", 1);
            let handle = ctx.handle_for(graph)?;
            shift_invert_fallback(handle.as_ref(), width, &ones, opts)?
        }
        Err(e) => return Err(e.into()),
    };
    // Scale columns by 1/sqrt(λ + shift).
    let mut coords = res.vectors.clone();
    for j in 0..width {
        let denom = (res.values[j] + shift).max(f64::MIN_POSITIVE).sqrt();
        let col = coords.column(j);
        let scaled: Vec<f64> = col.iter().map(|v| v / denom).collect();
        coords.set_column(j, &scaled);
    }
    Ok(Embedding {
        coords,
        eigenvalues: res.values,
        solver_iterations: res.iterations,
    })
}

/// Apply `L⁺` through `handle` inside an eigensolver, capturing the
/// first inner-solve failure instead of panicking: the operator keeps
/// satisfying its infallible signature by yielding zeros, and the caller
/// checks the slot as soon as the eigensolver returns.
fn shift_invert_lanczos(
    handle: &dyn SolverHandle,
    width: usize,
    ones: &[f64],
    lanczos_opts: &LanczosOptions,
) -> Result<sgl_linalg::SpectralPairs, SglError> {
    let n = handle.num_nodes();
    let solve_error: RefCell<Option<LinalgError>> = RefCell::new(None);
    let apply = FnOperator::new(n, |x: &[f64], y: &mut [f64]| {
        if solve_error.borrow().is_some() {
            y.fill(0.0);
            return;
        }
        match handle.solve(x) {
            Ok(sol) => y.copy_from_slice(&sol),
            Err(e) => {
                *solve_error.borrow_mut() = Some(e);
                y.fill(0.0);
            }
        }
    });
    let projected = ProjectedOperator::new(apply);
    let pairs = lanczos_largest(&projected, width, &[ones.to_vec()], lanczos_opts);
    if let Some(e) = solve_error.borrow_mut().take() {
        return Err(e.into());
    }
    Ok(pairs?)
}

/// Robust fallback for [`spectral_embedding`]: shift-invert Lanczos with
/// the Laplacian applied through a fast solver.
fn shift_invert_fallback(
    handle: &dyn SolverHandle,
    width: usize,
    ones: &[f64],
    opts: &EmbeddingOptions,
) -> Result<sgl_linalg::LobpcgResult, SglError> {
    let n = handle.num_nodes();
    let pairs = shift_invert_lanczos(
        handle,
        width,
        ones,
        &LanczosOptions {
            tol: (opts.tol * 1e-2).max(1e-12),
            max_subspace: (6 * width + 80).min(n - 1),
            seed: opts.seed,
        },
    )?;
    // θ ascending are the largest eigenvalues of L⁺; reverse to get the
    // smallest eigenvalues of L ascending, with matching vectors.
    let order: Vec<usize> = (0..width).rev().collect();
    let values: Vec<f64> = order
        .iter()
        .map(|&i| 1.0 / pairs.values[i].max(f64::MIN_POSITIVE))
        .collect();
    let cols: Vec<Vec<f64>> = order.iter().map(|&i| pairs.vectors.column(i)).collect();
    Ok(sgl_linalg::LobpcgResult {
        values,
        vectors: DenseMatrix::from_columns(&cols),
        iterations: 0,
        residuals: vec![0.0; width],
    })
}

/// First `k` nonzero Laplacian eigenvalues (ascending) of a connected
/// graph — the quantities plotted in the paper's eigenvalue scatter plots
/// and used by the objective evaluation — by shift-invert Lanczos: each
/// step applies `L⁺` through one solve on a default-[`SolverPolicy`]
/// handle.
///
/// # Errors
/// Propagates eigensolver/solver failures; rejects `k ≥ N`.
pub fn smallest_nonzero_eigenvalues(graph: &Graph, k: usize) -> Result<Vec<f64>, SglError> {
    let n = graph.num_nodes();
    if k + 1 > n {
        return Err(SglError::InvalidGraph(format!(
            "requested {k} nonzero eigenvalues of a {n}-node graph"
        )));
    }
    let ones = vec![1.0; n];
    let handle = SolverPolicy::default().build_handle(graph)?;
    let pairs = shift_invert_lanczos(
        handle.as_ref(),
        k,
        &ones,
        &LanczosOptions {
            tol: 1e-8,
            max_subspace: (3 * k + 40).min(n - 1),
            seed: 5,
        },
    )?;
    // θ are the largest eigenvalues of L⁺, ascending; invert and flip to
    // get the smallest of L ascending.
    let mut vals: Vec<f64> = pairs
        .values
        .iter()
        .rev()
        .map(|&t| 1.0 / t.max(f64::MIN_POSITIVE))
        .collect();
    vals.sort_by(|a, b| a.partial_cmp(b).unwrap());
    Ok(vals)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgl_datasets::grid2d;
    use sgl_linalg::SymEig;

    #[test]
    fn embedding_matches_dense_eigenpairs() {
        let g = grid2d(5, 4);
        let emb = spectral_embedding(&g, 3, 0.0, &EmbeddingOptions::default()).unwrap();
        let dense = SymEig::compute(&sgl_graph::laplacian::laplacian_csr(&g).to_dense()).unwrap();
        for j in 0..3 {
            assert!(
                (emb.eigenvalues[j] - dense.values[j + 1]).abs() < 1e-5,
                "eig {j}: {} vs {}",
                emb.eigenvalues[j],
                dense.values[j + 1]
            );
        }
    }

    #[test]
    fn embedding_distance_approximates_truncated_resistance() {
        // On a path graph with r−1 = N−1 (full spectrum) the embedding
        // distance IS the effective resistance. Use a small path.
        let n = 8;
        let g = Graph::from_edges(n, (0..n - 1).map(|i| (i, i + 1, 1.0)));
        let emb = spectral_embedding(&g, n - 2, 0.0, &EmbeddingOptions::default()).unwrap();
        // R_eff(0, 1) on a unit path = 1 (series resistors elsewhere
        // don't matter). Truncation at n-2 of n-1 eigenvectors loses a
        // little, so check a generous lower bound and the exact cap.
        let z = emb.distance_sq(0, 1);
        assert!(z <= 1.0 + 1e-9, "z^emb must lower-bound R_eff, got {z}");
        assert!(z > 0.8, "z^emb too small: {z}");
    }

    #[test]
    fn eigenvalue_batches_agree_between_methods() {
        // Shift-invert Lanczos against the dense reference.
        let g = grid2d(7, 6);
        let got = smallest_nonzero_eigenvalues(&g, 6).unwrap();
        let dense = SymEig::compute(&sgl_graph::laplacian::laplacian_csr(&g).to_dense()).unwrap();
        for (j, x) in got.iter().enumerate() {
            assert!(
                (x - dense.values[j + 1]).abs() < 1e-6,
                "{x} vs {}",
                dense.values[j + 1]
            );
        }
    }

    #[test]
    fn shift_changes_scaling_only() {
        let g = grid2d(4, 4);
        let a = spectral_embedding(&g, 2, 0.0, &EmbeddingOptions::default()).unwrap();
        let b = spectral_embedding(&g, 2, 0.5, &EmbeddingOptions::default()).unwrap();
        assert_eq!(a.eigenvalues.len(), b.eigenvalues.len());
        // Shifted embedding is strictly shorter.
        assert!(b.distance_sq(0, 15) < a.distance_sq(0, 15));
    }

    #[test]
    fn cold_embed_above_the_exact_tree_rule_stays_on_amg() {
        // k = 841 off-tree edges on 900 nodes, far above k² ≤ 16·n: the
        // V-cycle takes about 19 iterations, a plain tree solve 282.
        let emb =
            spectral_embedding(&grid2d(30, 30), 4, 0.0, &EmbeddingOptions::default()).unwrap();
        assert!(
            (1..=40).contains(&emb.solver_iterations),
            "{} LOBPCG iterations (0: the shift-invert fallback ran)",
            emb.solver_iterations
        );
    }

    #[test]
    fn disconnected_graph_rejected() {
        let g = Graph::from_edges(4, [(0, 1, 1.0), (2, 3, 1.0)]);
        assert!(spectral_embedding(&g, 1, 0.0, &EmbeddingOptions::default()).is_err());
    }

    use sgl_graph::Graph;
}
