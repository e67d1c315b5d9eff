//! Algorithm 1: the SGL spectral graph densification loop.
//!
//! ```text
//! 1. build kNN graph G_o over the voltage rows of X
//! 2. extract its maximum spanning tree T; G ← T
//! 3. while s_max ≥ tol:
//!      compute U_r for G                 (Step 2, spectral embedding)
//!      score off-tree candidates         (Step 3, eq. 13)
//!      add the top ⌈Nβ⌉ with s > tol     (densification)
//! 4. spectral edge scaling with X, Y     (Step 5, eqs. 21–23)
//! ```
//!
//! [`Sgl`] is the one-shot entry point; it is a thin facade over
//! [`SglSession`], which exposes the same
//! loop step-by-step with observers, incremental measurement batches,
//! and a dense reference embedding.

use crate::config::SglConfig;
use crate::embedding::Embedding;
use crate::error::SglError;
use crate::measure::Measurements;
use crate::session::SglSession;
use sgl_graph::Graph;

/// Wall-clock breakdown of one densification iteration's phases, in
/// seconds. Timing is measurement-only: it never feeds back into the
/// algorithm, so traces stay bit-identical across runs that differ only
/// in speed.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct StepTimings {
    /// Candidate scoring (Step 3), plus the spectral embedding (Step 2)
    /// when none is cached — the first iteration's cold embed.
    pub score_s: f64,
    /// Top-candidate selection and edge insertion (densification).
    pub densify_s: f64,
    /// The warm-started spectral re-embed (Step 2) after the graph
    /// change, the `embed` trace span. The field keeps its historical
    /// name; no weight refinement happens in it. Delivered as `0.0` to
    /// [`SessionObserver`](crate::session::SessionObserver) callbacks
    /// (which fire before the re-embed runs); the copy kept in
    /// [`LearnResult::trace`] carries the measured value.
    pub refine_s: f64,
}

/// Per-iteration convergence record (the series behind Figs. 1, 2, 4–6).
///
/// Equality ignores [`timings`](IterationRecord::timings): two records
/// are equal when they describe the same *algorithmic* step, regardless
/// of how long it took — checkpoint-resume and parallel-equivalence
/// tests compare traces across runs whose speeds legitimately differ.
#[derive(Debug, Clone, Copy)]
pub struct IterationRecord {
    /// 1-based iteration number.
    pub iteration: usize,
    /// Maximum edge sensitivity observed this iteration.
    pub smax: f64,
    /// Edges added this iteration.
    pub edges_added: usize,
    /// Total edges in the learned graph after this iteration.
    pub total_edges: usize,
    /// Smallest nontrivial eigenvalue of the current graph (algebraic
    /// connectivity), a cheap health indicator of the densification.
    pub lambda2: f64,
    /// Wall-clock phase breakdown (zeroed on records restored from a
    /// checkpoint — timing is not part of the persistent format).
    pub timings: StepTimings,
}

impl PartialEq for IterationRecord {
    fn eq(&self, other: &Self) -> bool {
        self.iteration == other.iteration
            && self.smax == other.smax
            && self.edges_added == other.edges_added
            && self.total_edges == other.total_edges
            && self.lambda2 == other.lambda2
    }
}

/// Why a learning run stopped — the stopping-rule verdict behind the
/// bare [`LearnResult::converged`] flag.
///
/// `converged: false` alone cannot distinguish "hit the iteration cap"
/// from "ran out of candidates"; this enum records the actual halt site
/// of the densification loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopVerdict {
    /// The stopping rule fired: `s_max` dropped below tolerance.
    Converged,
    /// The per-epoch iteration cap (`max_iterations`) was hit first.
    MaxIterations,
    /// The candidate pool ran dry before the stopping rule fired.
    /// [`LearnResult::converged`] tells whether the last observed
    /// `s_max` was already below tolerance when it happened.
    CandidatesExhausted,
    /// `s_max` was still above tolerance but no candidate cleared the
    /// selection threshold — the numerical corner the loop treats as
    /// converged to avoid spinning.
    Stalled,
    /// The loop never halted; [`SglSession::finish`] was called on a
    /// still-running session.
    InProgress,
}

impl StopVerdict {
    /// Stable kebab-case label (for logs, traces, and bench rows).
    pub fn as_str(&self) -> &'static str {
        match self {
            StopVerdict::Converged => "converged",
            StopVerdict::MaxIterations => "max-iterations",
            StopVerdict::CandidatesExhausted => "candidates-exhausted",
            StopVerdict::Stalled => "stalled",
            StopVerdict::InProgress => "in-progress",
        }
    }
}

impl std::fmt::Display for StopVerdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The outcome of a learning run.
#[derive(Debug, Clone)]
pub struct LearnResult {
    /// The learned resistor network.
    pub graph: Graph,
    /// The kNN graph of Step 1 (candidate source).
    pub knn_graph: Graph,
    /// Per-iteration convergence trace.
    pub trace: Vec<IterationRecord>,
    /// Whether `s_max < tol` was reached (vs. hitting the iteration cap
    /// or exhausting candidates).
    pub converged: bool,
    /// Why the loop stopped (the halt site behind the `converged` flag).
    pub stop_verdict: StopVerdict,
    /// Edge-scaling factor applied in Step 5 (`None` if skipped).
    pub scale_factor: Option<f64>,
    /// The final spectral embedding of the learned graph.
    pub embedding: Embedding,
    /// Lifetime Laplacian-solve statistics of the run (all handle
    /// revisions combined); all-zero for a solver-free pipeline.
    pub solver_stats: sgl_solver::SolveStats,
    /// Solver handles the session's context built: one per solved graph
    /// revision, plus rebuilds after recovery; 0 for a solver-free
    /// pipeline.
    pub handles_built: usize,
    /// How many times the session degraded its learning strategy
    /// (Solver → SolverFree) after repeated solver failures. Zero on a
    /// healthy run.
    pub fallbacks_taken: usize,
}

impl LearnResult {
    /// Density `|E|/|V|` of the learned graph.
    pub fn density(&self) -> f64 {
        self.graph.density()
    }

    /// Reconstruct the (unscaled) learned graph as it stood after trace
    /// entry `index` — edges are appended in insertion order, so a prefix
    /// of the final edge list is exactly the iteration snapshot. Used to
    /// replay objective-vs-iteration curves (Figs. 2, 4–6).
    ///
    /// # Errors
    /// Returns [`SglError::OutOfRange`] if `index` is not a valid trace
    /// index.
    pub fn graph_at_iteration(&self, index: usize) -> Result<Graph, SglError> {
        let record = self.trace.get(index).ok_or_else(|| {
            SglError::OutOfRange(format!(
                "iteration index {index} out of range for a {}-entry trace",
                self.trace.len()
            ))
        })?;
        let mut g = self
            .graph
            .edge_subgraph(&(0..record.total_edges).collect::<Vec<_>>());
        if let Some(f) = self.scale_factor {
            // The final graph is scaled; undo it for the snapshot.
            g.scale_weights(1.0 / f);
        }
        Ok(g)
    }
}

/// The one-shot SGL learner (a facade over
/// [`SglSession`]).
///
/// # Example
/// ```
/// use sgl_core::{Measurements, Sgl, SglConfig};
///
/// let truth = sgl_datasets::grid2d(8, 8);
/// let meas = Measurements::generate(&truth, 16, 7)?;
/// let result = Sgl::new(SglConfig::default().with_tol(1e-4)).learn(&meas)?;
/// assert!(result.graph.num_edges() >= truth.num_nodes() - 1);
/// # Ok::<(), sgl_core::SglError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Sgl {
    config: SglConfig,
}

impl Sgl {
    /// Create a learner with the given configuration.
    pub fn new(config: SglConfig) -> Self {
        Sgl { config }
    }

    /// Borrow the configuration.
    pub fn config(&self) -> &SglConfig {
        &self.config
    }

    /// Run the full pipeline on a measurement set: initialize a
    /// [`SglSession`], drive it to completion, and finish.
    ///
    /// # Errors
    /// Returns configuration/measurement validation errors and propagates
    /// numerical failures from the embedded solvers.
    pub fn learn(&self, measurements: &Measurements) -> Result<LearnResult, SglError> {
        SglSession::new(self.config.clone(), measurements)?.run()
    }

    /// Run Steps 2–5 on a caller-provided candidate graph (must span all
    /// measurement nodes and be connected). Useful when a domain-specific
    /// similarity graph replaces the kNN construction.
    ///
    /// # Errors
    /// See [`Sgl::learn`].
    pub fn learn_from_knn(
        &self,
        measurements: &Measurements,
        knn_graph: Graph,
    ) -> Result<LearnResult, SglError> {
        SglSession::with_candidate_graph(self.config.clone(), measurements, knn_graph)?.run()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::embedding::smallest_nonzero_eigenvalues;
    use sgl_datasets::grid2d;
    use sgl_linalg::vecops;

    fn quick_config() -> SglConfig {
        SglConfig::default().with_tol(1e-6).with_max_iterations(100)
    }

    #[test]
    fn learns_connected_ultra_sparse_graph() {
        let truth = grid2d(10, 10);
        let meas = Measurements::generate(&truth, 25, 1).unwrap();
        let result = Sgl::new(quick_config()).learn(&meas).unwrap();
        assert!(sgl_graph::traversal::is_connected(&result.graph));
        // Ultra-sparse: density near a spanning tree, far below the kNN
        // graph's.
        assert!(result.density() < 1.6, "density {}", result.density());
        assert!(result.density() >= (100.0 - 1.0) / 100.0);
        assert!(result.knn_graph.density() > result.density());
        assert!(result.scale_factor.is_some());
    }

    #[test]
    fn smax_trend_is_downward() {
        let truth = grid2d(9, 9);
        let meas = Measurements::generate(&truth, 25, 2).unwrap();
        let result = Sgl::new(quick_config()).learn(&meas).unwrap();
        assert!(result.trace.len() >= 3, "expected several iterations");
        let first = result.trace.first().unwrap().smax;
        let last = result.trace.last().unwrap().smax;
        assert!(
            last < first,
            "smax should decrease: first {first}, last {last}"
        );
    }

    #[test]
    fn learned_graph_preserves_low_spectrum() {
        let truth = grid2d(8, 8);
        let meas = Measurements::generate(&truth, 30, 3).unwrap();
        let result = Sgl::new(quick_config()).learn(&meas).unwrap();
        let ref_eigs = smallest_nonzero_eigenvalues(&truth, 6).unwrap();
        let got_eigs = smallest_nonzero_eigenvalues(&result.graph, 6).unwrap();
        let corr = vecops::pearson(&ref_eigs, &got_eigs);
        assert!(corr > 0.9, "spectral correlation too low: {corr}");
    }

    #[test]
    fn voltage_only_learning_skips_scaling() {
        let truth = grid2d(7, 7);
        let meas = Measurements::generate(&truth, 20, 4).unwrap();
        let volts = Measurements::from_voltages(meas.voltages().clone()).unwrap();
        let result = Sgl::new(quick_config()).learn(&volts).unwrap();
        assert!(result.scale_factor.is_none());
        assert!(sgl_graph::traversal::is_connected(&result.graph));
    }

    #[test]
    fn trace_edges_are_monotone() {
        let truth = grid2d(8, 8);
        let meas = Measurements::generate(&truth, 20, 5).unwrap();
        let result = Sgl::new(quick_config()).learn(&meas).unwrap();
        for w in result.trace.windows(2) {
            assert!(w[1].total_edges >= w[0].total_edges);
            assert_eq!(w[1].iteration, w[0].iteration + 1);
        }
    }

    #[test]
    fn tiny_measurement_set_is_rejected() {
        let truth = grid2d(2, 2);
        // 4 nodes is the bare minimum; 3 rows must fail.
        let meas = Measurements::generate(&truth, 3, 6).unwrap();
        let small = meas.subset_rows(&[0, 1, 2]);
        assert!(Sgl::new(quick_config()).learn(&small).is_err());
    }

    #[test]
    fn iteration_snapshots_are_prefixes() {
        let truth = grid2d(8, 8);
        let meas = Measurements::generate(&truth, 20, 8).unwrap();
        let result = Sgl::new(quick_config()).learn(&meas).unwrap();
        assert!(!result.trace.is_empty());
        for (i, rec) in result.trace.iter().enumerate() {
            let snap = result.graph_at_iteration(i).unwrap();
            assert_eq!(snap.num_edges(), rec.total_edges);
            // Every snapshot contains the spanning tree (still connected).
            assert!(sgl_graph::traversal::is_connected(&snap));
        }
        // Last snapshot equals the final graph modulo the scale factor.
        let last = result.graph_at_iteration(result.trace.len() - 1).unwrap();
        let f = result.scale_factor.unwrap();
        for (a, b) in last.edges().iter().zip(result.graph.edges()) {
            assert!((a.weight * f - b.weight).abs() < 1e-12);
        }
        // Out-of-range snapshot indices are an error, not a panic.
        assert!(matches!(
            result.graph_at_iteration(result.trace.len()),
            Err(SglError::OutOfRange(_))
        ));
    }

    #[test]
    fn beta_one_converges_in_fewer_iterations() {
        let truth = grid2d(8, 8);
        let meas = Measurements::generate(&truth, 20, 7).unwrap();
        let slow = Sgl::new(quick_config().with_beta(1e-3))
            .learn(&meas)
            .unwrap();
        let fast = Sgl::new(quick_config().with_beta(1.0))
            .learn(&meas)
            .unwrap();
        assert!(fast.trace.len() <= slow.trace.len());
    }
}
