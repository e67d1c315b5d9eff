//! Swappable stage backends for the SGL pipeline.
//!
//! Algorithm 1 is a staged loop — embed, score, check, densify, scale —
//! and each stage sits behind a trait here so a [`SglSession`] can swap
//! implementations without forking the loop:
//!
//! * [`EmbeddingBackend`] — Step 2, the spectral embedding. The default
//!   [`LanczosBackend`] wraps the warm-started LOBPCG/Lanczos solver;
//!   [`DenseEigBackend`] runs a full dense eigendecomposition for
//!   small-N exactness (tests, debugging, reference runs).
//! * [`CandidateScorer`] — Step 3, the edge sensitivity score. The
//!   default [`SpectralGradientScorer`] is eq. (13); a solver-free
//!   SF-SGL-style scorer plugs in here.
//! * [`StoppingRule`] — Step 4, the convergence decision on `s_max`.
//! * [`EdgeScaler`] — Step 5, the final global weight scaling.
//!
//! [`SglSession`]: crate::session::SglSession

use crate::embedding::{spectral_embedding_ctx, Embedding, EmbeddingOptions};
use crate::error::SglError;
use crate::measure::Measurements;
use crate::scaling::spectral_edge_scaling_with;
use crate::sensitivity::CandidatePool;
use sgl_graph::laplacian::laplacian_csr;
use sgl_graph::Graph;
use sgl_linalg::{DenseMatrix, SymEig};
use sgl_solver::SolverContext;

/// Step 2: compute the spectral embedding `U_r` of the current graph.
///
/// All stage traits ([`EmbeddingBackend`], [`CandidateScorer`],
/// [`StoppingRule`], [`EdgeScaler`]) are `Send + Sync`: a session owns
/// its backends as boxed trait objects, and a whole
/// [`SglSession`](crate::session::SglSession) must be movable into a
/// writer thread (the streaming-ingest path of `sgl-serve`). Backends
/// hold prepared, immutable state — per-call scratch belongs in the call,
/// not the struct.
pub trait EmbeddingBackend: std::fmt::Debug + Send + Sync {
    /// Short human-readable backend name (for traces and logs).
    fn name(&self) -> &'static str;

    /// Embed a connected graph into `width` dimensions with diagonal
    /// shift `1/σ² = shift`. `warm_start` carries the previous
    /// iteration's eigenvector block when only a few edges changed;
    /// `ctx` is the session's shared solver context, consulted only by
    /// backends that need a shift-invert solve.
    ///
    /// # Errors
    /// Returns [`SglError::InvalidGraph`] for unusable graphs and
    /// propagates eigensolver failures.
    fn embed(
        &self,
        graph: &Graph,
        width: usize,
        shift: f64,
        opts: &EmbeddingOptions,
        warm_start: Option<&DenseMatrix>,
        ctx: &mut SolverContext,
    ) -> Result<Embedding, SglError>;
}

/// The default iterative backend: warm-started deflated LOBPCG with a
/// shift-invert Lanczos fallback (the seed pipeline's solver).
#[derive(Debug, Clone, Copy, Default)]
pub struct LanczosBackend;

impl EmbeddingBackend for LanczosBackend {
    fn name(&self) -> &'static str {
        "lanczos"
    }

    fn embed(
        &self,
        graph: &Graph,
        width: usize,
        shift: f64,
        opts: &EmbeddingOptions,
        warm_start: Option<&DenseMatrix>,
        ctx: &mut SolverContext,
    ) -> Result<Embedding, SglError> {
        spectral_embedding_ctx(graph, width, shift, opts, warm_start, ctx)
    }
}

/// Exact dense-eigendecomposition backend: `O(N³)` per embed, so only
/// sensible for small graphs, where it provides machine-precision
/// eigenpairs — the reference the iterative backend is tested against.
#[derive(Debug, Clone, Copy)]
pub struct DenseEigBackend {
    /// Refuse graphs larger than this (guards accidental `O(N³)` blowups;
    /// 0 disables the guard).
    pub max_nodes: usize,
}

impl Default for DenseEigBackend {
    fn default() -> Self {
        DenseEigBackend { max_nodes: 2048 }
    }
}

impl DenseEigBackend {
    /// A backend with an explicit node-count guard (0 = unlimited).
    pub fn with_limit(max_nodes: usize) -> Self {
        DenseEigBackend { max_nodes }
    }
}

impl EmbeddingBackend for DenseEigBackend {
    fn name(&self) -> &'static str {
        "dense-eig"
    }

    fn embed(
        &self,
        graph: &Graph,
        width: usize,
        shift: f64,
        _opts: &EmbeddingOptions,
        _warm_start: Option<&DenseMatrix>,
        _ctx: &mut SolverContext,
    ) -> Result<Embedding, SglError> {
        let n = graph.num_nodes();
        if n < 2 {
            return Err(SglError::InvalidGraph(
                "embedding needs at least two nodes".into(),
            ));
        }
        if width + 1 >= n {
            return Err(SglError::InvalidGraph(format!(
                "embedding width {width} too large for {n} nodes"
            )));
        }
        if self.max_nodes != 0 && n > self.max_nodes {
            return Err(SglError::InvalidGraph(format!(
                "DenseEigBackend limited to {} nodes, got {n}; raise the \
                 limit or use LanczosBackend",
                self.max_nodes
            )));
        }
        if !sgl_graph::traversal::is_connected(graph) {
            return Err(SglError::InvalidGraph(
                "embedding requires a connected graph".into(),
            ));
        }
        let eig = SymEig::compute(&laplacian_csr(graph).to_dense())?;
        // Skip the trivial pair (λ₁ = 0, constant vector); take the next
        // `width` eigenpairs ascending and apply the eq. (12) scaling.
        let eigenvalues: Vec<f64> = eig.values[1..=width].to_vec();
        let cols: Vec<Vec<f64>> = (1..=width)
            .map(|j| {
                let denom = (eig.values[j] + shift).max(f64::MIN_POSITIVE).sqrt();
                eig.vectors
                    .column(j)
                    .into_iter()
                    .map(|v| v / denom)
                    .collect()
            })
            .collect();
        Ok(Embedding {
            coords: DenseMatrix::from_columns(&cols),
            eigenvalues,
            solver_iterations: 0,
        })
    }
}

/// Step 3: score the candidate pool under the current embedding.
pub trait CandidateScorer: std::fmt::Debug + Send + Sync {
    /// One score per remaining candidate, aligned with
    /// [`CandidatePool::candidates`]. Higher = more influential; the
    /// session adds the top `⌈Nβ⌉` scores above tolerance.
    fn score(&self, pool: &CandidatePool, embedding: &Embedding) -> Vec<f64>;
}

/// The paper's eq. (13) gradient score
/// `s = ‖U_rᵀ e_{s,t}‖² − z^data / M`.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpectralGradientScorer;

impl CandidateScorer for SpectralGradientScorer {
    fn score(&self, pool: &CandidatePool, embedding: &Embedding) -> Vec<f64> {
        pool.sensitivities(embedding)
    }
}

/// Step 4: decide when the densification loop has converged.
///
/// The rule owns *both* tolerance decisions of the loop: when to stop
/// ([`is_converged`](StoppingRule::is_converged)) and which candidate
/// scores are high enough to densify with
/// ([`selection_tol`](StoppingRule::selection_tol)) — so swapping the
/// rule on a session changes the whole convergence behavior, with no
/// hidden second threshold.
pub trait StoppingRule: std::fmt::Debug + Send + Sync {
    /// Called once per iteration with the 1-based iteration number and
    /// the maximum candidate score; `true` ends the loop as converged.
    fn is_converged(&self, iteration: usize, smax: f64) -> bool;

    /// Only candidates scoring strictly above this join the graph
    /// (Step 3's eligibility threshold).
    fn selection_tol(&self) -> f64;
}

/// The paper's Step 4: stop when `s_max < tol`.
#[derive(Debug, Clone, Copy)]
pub struct SensitivityThreshold {
    /// Convergence tolerance on the maximum sensitivity.
    pub tol: f64,
}

impl StoppingRule for SensitivityThreshold {
    fn is_converged(&self, _iteration: usize, smax: f64) -> bool {
        smax < self.tol
    }

    fn selection_tol(&self) -> f64 {
        self.tol
    }
}

/// Step 5: rescale the learned graph's weights against the measurements.
pub trait EdgeScaler: std::fmt::Debug + Send + Sync {
    /// Scale `graph` in place, returning the applied factor (`None` when
    /// the step is skipped, e.g. for voltage-only measurements). `ctx`
    /// is the session's shared solver context; a scaler that mutates
    /// weights must invalidate it.
    ///
    /// # Errors
    /// Propagates solver failures.
    fn scale(
        &self,
        graph: &mut Graph,
        measurements: &Measurements,
        ctx: &mut SolverContext,
    ) -> Result<Option<f64>, SglError>;
}

/// The paper's eq. (21–23) spectral edge scaling; silently skipped when
/// no current measurements are available (matching `Sgl::learn`).
#[derive(Debug, Clone, Copy, Default)]
pub struct SpectralScaler;

impl EdgeScaler for SpectralScaler {
    fn scale(
        &self,
        graph: &mut Graph,
        measurements: &Measurements,
        ctx: &mut SolverContext,
    ) -> Result<Option<f64>, SglError> {
        if measurements.currents().is_none() {
            return Ok(None);
        }
        let handle = ctx.handle_for(graph)?;
        let factor = spectral_edge_scaling_with(graph, measurements, handle.as_ref())?;
        Ok(Some(factor))
    }
}

/// A scaler that never scales (keeps the relative weights as learned).
#[derive(Debug, Clone, Copy, Default)]
pub struct NoScaler;

impl EdgeScaler for NoScaler {
    fn scale(
        &self,
        _graph: &mut Graph,
        _m: &Measurements,
        _ctx: &mut SolverContext,
    ) -> Result<Option<f64>, SglError> {
        Ok(None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgl_datasets::grid2d;
    use sgl_solver::SolverPolicy;

    fn ctx() -> SolverContext {
        SolverContext::new(SolverPolicy::default())
    }

    #[test]
    fn dense_backend_matches_lanczos_eigenvalues() {
        let g = grid2d(5, 4);
        let opts = EmbeddingOptions::default();
        let a = LanczosBackend
            .embed(&g, 3, 0.0, &opts, None, &mut ctx())
            .unwrap();
        let b = DenseEigBackend::default()
            .embed(&g, 3, 0.0, &opts, None, &mut ctx())
            .unwrap();
        for (x, y) in a.eigenvalues.iter().zip(&b.eigenvalues) {
            assert!((x - y).abs() < 1e-5, "{x} vs {y}");
        }
        // Distances agree too (rotation-invariant check).
        assert!((a.distance_sq(0, 19) - b.distance_sq(0, 19)).abs() < 1e-5);
    }

    #[test]
    fn dense_backend_node_guard() {
        let g = grid2d(5, 5);
        let opts = EmbeddingOptions::default();
        assert!(DenseEigBackend::with_limit(10)
            .embed(&g, 3, 0.0, &opts, None, &mut ctx())
            .is_err());
        assert!(DenseEigBackend::with_limit(0)
            .embed(&g, 3, 0.0, &opts, None, &mut ctx())
            .is_ok());
    }

    #[test]
    fn dense_backend_rejects_disconnected() {
        let g = Graph::from_edges(4, [(0, 1, 1.0), (2, 3, 1.0)]);
        let opts = EmbeddingOptions::default();
        assert!(DenseEigBackend::default()
            .embed(&g, 1, 0.0, &opts, None, &mut ctx())
            .is_err());
    }

    #[test]
    fn stopping_rule_threshold() {
        let rule = SensitivityThreshold { tol: 1e-3 };
        assert!(rule.is_converged(1, 1e-4));
        assert!(!rule.is_converged(1, 1e-2));
    }

    #[test]
    fn spectral_scaler_skips_voltage_only() {
        let g = grid2d(4, 4);
        let meas = Measurements::generate(&g, 5, 1).unwrap();
        let volts = Measurements::from_voltages(meas.voltages().clone()).unwrap();
        let mut learned = g.clone();
        let mut c = ctx();
        assert_eq!(
            SpectralScaler.scale(&mut learned, &volts, &mut c).unwrap(),
            None
        );
        // Voltage-only skip never builds a solver.
        assert_eq!(c.handles_built(), 0);
        assert!(SpectralScaler
            .scale(&mut learned, &meas, &mut c)
            .unwrap()
            .is_some());
        assert_eq!(c.handles_built(), 1);
        let mut learned2 = g.clone();
        assert_eq!(NoScaler.scale(&mut learned2, &meas, &mut c).unwrap(), None);
    }
}
