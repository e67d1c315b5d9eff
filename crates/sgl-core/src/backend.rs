//! Step 2's embedding backends.
//!
//! Algorithm 1 is one fixed loop, and Step 2, the spectral embedding, is
//! its only stage with more than one implementation. [`Embedder`] names
//! them: the iterative arm of each learning strategy, plus an exact dense
//! eigendecomposition for small-graph reference runs
//! ([`SglSession::with_dense_embedding`](crate::SglSession::with_dense_embedding)).

use crate::config::SglConfig;
use crate::embed::BandedEigBackend;
use crate::embedding::{lobpcg_embedding, Embedding, EmbeddingOptions};
use crate::error::SglError;
use crate::strategy::LearnStrategyKind;
use sgl_graph::laplacian::laplacian_csr;
use sgl_graph::Graph;
use sgl_linalg::{DenseMatrix, SymEig};
use sgl_solver::SolverContext;

/// How Step 2 computes the spectral embedding. A session runs its
/// strategy's arm ([`Embedder::for_config`]) unless
/// [`SglSession::with_dense_embedding`](crate::SglSession::with_dense_embedding)
/// pins the dense reference.
#[derive(Debug)]
pub enum Embedder {
    /// Warm-started deflated LOBPCG with a shift-invert Lanczos fallback
    /// (the solver strategy). The solver context is only touched when
    /// LOBPCG stalls and the fallback engages, so a converging run builds
    /// no solver at all.
    Lobpcg,
    /// A full dense eigendecomposition: `O(N³)` per embed, so only
    /// sensible for small graphs, where it gives machine-precision
    /// eigenpairs — the reference the iterative arms are tested against.
    /// Refuses graphs above the context policy's `dense_max_nodes`
    /// (0 = unlimited).
    Dense,
    /// Banded matvec-only Rayleigh–Ritz (the solver-free strategy); never
    /// touches the solver context.
    Banded(BandedEigBackend),
}

impl Embedder {
    /// The embedder of the config's strategy.
    pub fn for_config(config: &SglConfig) -> Self {
        match config.strategy {
            LearnStrategyKind::Solver => Embedder::Lobpcg,
            LearnStrategyKind::SolverFree => {
                Embedder::Banded(BandedEigBackend::from_config(config))
            }
        }
    }

    /// Embed a connected graph into `width` dimensions with diagonal
    /// shift `1/σ² = shift`. `warm_start` carries the previous
    /// iteration's eigenvector block when only a few edges changed;
    /// `ctx` is the session's shared solver context, which only the
    /// LOBPCG fallback solves through and the dense arm reads its size
    /// guard from.
    ///
    /// # Errors
    /// Returns [`SglError::InvalidGraph`] for unusable graphs and
    /// propagates eigensolver failures.
    pub fn embed(
        &self,
        graph: &Graph,
        width: usize,
        shift: f64,
        opts: &EmbeddingOptions,
        warm_start: Option<&DenseMatrix>,
        ctx: &mut SolverContext,
    ) -> Result<Embedding, SglError> {
        check_embeddable(graph, width)?;
        match self {
            Embedder::Lobpcg => lobpcg_embedding(graph, width, shift, opts, warm_start, ctx),
            Embedder::Dense => dense_embedding(graph, width, shift, ctx.policy().dense_max_nodes),
            Embedder::Banded(banded) => banded.embed(graph, width, shift, opts, warm_start),
        }
    }
}

/// The input checks every embedder shares.
fn check_embeddable(graph: &Graph, width: usize) -> Result<(), SglError> {
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
    if !sgl_graph::traversal::is_connected(graph) {
        return Err(SglError::InvalidGraph(
            "embedding requires a connected graph".into(),
        ));
    }
    Ok(())
}

/// The [`Embedder::Dense`] arm.
fn dense_embedding(
    graph: &Graph,
    width: usize,
    shift: f64,
    max_nodes: usize,
) -> Result<Embedding, SglError> {
    let n = graph.num_nodes();
    if max_nodes != 0 && n > max_nodes {
        return Err(SglError::InvalidGraph(format!(
            "dense embedding limited to dense_max_nodes = {max_nodes}, got {n} \
             nodes; raise the policy's limit or use the iterative embedder"
        )));
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::Measurements;
    use sgl_datasets::grid2d;
    use sgl_solver::SolverPolicy;

    fn ctx(dense_max_nodes: usize) -> SolverContext {
        SolverContext::new(SolverPolicy {
            dense_max_nodes,
            ..SolverPolicy::default()
        })
    }

    #[test]
    fn dense_backend_matches_lanczos_eigenvalues() {
        // Both inputs embed on the exact tree preconditioner. The grid
        // (k = 12 off-tree edges) runs at SGL's default tolerance. The
        // near-tree (k = 20) spreads its conductances over four decades,
        // which inflates ‖L‖, to which LOBPCG's residual test is relative:
        // at 1e-7 its distance below lands 1.7e-5 from the dense value,
        // so it runs at 1e-10.
        let tight = EmbeddingOptions {
            tol: 1e-10,
            ..EmbeddingOptions::default()
        };
        for (g, opts) in [
            (grid2d(5, 4), EmbeddingOptions::default()),
            (sgl_datasets::weighted_near_tree(200, 20, 11), tight),
        ] {
            let a = Embedder::Lobpcg
                .embed(&g, 3, 0.0, &opts, None, &mut ctx(0))
                .unwrap();
            let b = Embedder::Dense
                .embed(&g, 3, 0.0, &opts, None, &mut ctx(0))
                .unwrap();
            for (x, y) in a.eigenvalues.iter().zip(&b.eigenvalues) {
                assert!((x - y).abs() < 1e-5, "{x} vs {y}");
            }
            // Distances agree too (rotation-invariant check).
            let last = g.num_nodes() - 1;
            let (da, db) = (a.distance_sq(0, last), b.distance_sq(0, last));
            assert!((da - db).abs() < 1e-5, "{da} vs {db}");
        }
    }

    #[test]
    fn dense_backend_node_guard() {
        // The guard is the solver policy's `dense_max_nodes`.
        let g = grid2d(5, 5);
        let opts = EmbeddingOptions::default();
        let embed = |limit| Embedder::Dense.embed(&g, 3, 0.0, &opts, None, &mut ctx(limit));
        assert!(embed(10).is_err());
        assert!(embed(25).is_ok());
        assert!(embed(0).is_ok(), "0 disables the guard");
    }

    #[test]
    fn dense_backend_rejects_disconnected() {
        let g = Graph::from_edges(4, [(0, 1, 1.0), (2, 3, 1.0)]);
        let opts = EmbeddingOptions::default();
        assert!(Embedder::Dense
            .embed(&g, 1, 0.0, &opts, None, &mut ctx(0))
            .is_err());
    }

    #[test]
    fn spectral_scaler_skips_voltage_only() {
        // Step 5 of the solver strategy: eqs. (21–23) through a solver
        // handle drawn from the session's context.
        let g = grid2d(4, 4);
        let meas = Measurements::generate(&g, 5, 1).unwrap();
        let volts = Measurements::from_voltages(meas.voltages().clone()).unwrap();
        let scaler = LearnStrategyKind::Solver;
        let mut learned = g.clone();
        let mut c = SolverContext::new(SolverPolicy::default());
        assert_eq!(
            scaler.scale_edges(&mut learned, &volts, &mut c).unwrap(),
            None
        );
        // Voltage-only skip never builds a solver.
        assert_eq!(c.handles_built(), 0);
        assert!(scaler
            .scale_edges(&mut learned, &meas, &mut c)
            .unwrap()
            .is_some());
        assert_eq!(c.handles_built(), 1);
    }
}
