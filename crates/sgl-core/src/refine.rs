//! Edge-weight refinement — an extension beyond the paper's Algorithm 1.
//!
//! SGL fixes every included edge's weight at its kNN value `M/z^data`.
//! The stationarity condition of objective (2) for an *interior* edge
//! weight (with the full spectrum, σ² → ∞) is
//!
//! ```text
//! ∂F/∂w_e = R_eff(e) − z^data_e / M = 0,
//! ```
//!
//! i.e. distortion `η_e = M·R_eff(e)/z^data_e = 1` (eq. 14/15). After
//! densification converges, a few damped multiplicative sweeps
//!
//! ```text
//! w_e ← w_e · η_e^γ,   η measured on the current graph, clamped per round
//! ```
//!
//! drive every included edge toward that optimum. Crucially the
//! resistances are estimated with the **Johnson–Lindenstrauss sketch**
//! (`O(log N)` Laplacian solves per round) rather than the `r − 1`
//! dimensional embedding: the truncated embedding *underestimates*
//! `R_eff` (eq. 20) badly enough to push weights the wrong way, while the
//! sketch is unbiased.

use crate::error::SglError;
use crate::measure::Measurements;
use crate::resistance::{ResistanceEstimator, ResistanceSketch, SpectralSketch};
use sgl_graph::Graph;
use sgl_linalg::FilteredSpectrumOptions;
use sgl_solver::{SolverContext, SolverPolicy};

/// Options for [`refine_weights`].
#[derive(Debug, Clone)]
pub struct RefineOptions {
    /// Number of fixed-point sweeps.
    pub rounds: usize,
    /// Damping exponent γ ∈ (0, 1].
    pub damping: f64,
    /// Per-round clamp on the multiplicative factor (`[1/c, c]`).
    pub clamp: f64,
    /// JL projections per round (0 = auto: `⌈24 ln N⌉` capped at 300).
    pub projections: usize,
    /// Seed for the sketch projections.
    pub seed: u64,
}

impl Default for RefineOptions {
    fn default() -> Self {
        RefineOptions {
            rounds: 4,
            damping: 0.6,
            clamp: 4.0,
            projections: 0,
            seed: 0x1EF1,
        }
    }
}

/// One round's summary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RefineRecord {
    /// Round number (1-based).
    pub round: usize,
    /// Maximum |log η| over edges before the update (0 = at fixed point).
    pub max_log_distortion: f64,
    /// Mean |log η| over edges before the update.
    pub mean_log_distortion: f64,
}

/// Refine the weights of `graph` in place toward the `η = 1` fixed point;
/// returns the per-round distortion trace. Solver handles come from a
/// fresh default-policy context; use [`refine_weights_with`] to share a
/// caller-owned [`SolverContext`] (and its cumulative statistics).
///
/// Run [`crate::scaling::spectral_edge_scaling`] afterwards to restore
/// the global calibration (refinement preserves ratios, not scale).
///
/// # Errors
/// Propagates solver failures; rejects node-count mismatches and invalid
/// options.
pub fn refine_weights(
    graph: &mut Graph,
    measurements: &Measurements,
    opts: &RefineOptions,
) -> Result<Vec<RefineRecord>, SglError> {
    let mut ctx = SolverContext::new(SolverPolicy::default());
    refine_weights_with(graph, measurements, opts, &mut ctx)
}

/// [`refine_weights`] drawing every round's JL-sketch solver handle from
/// a shared [`SolverContext`] — the multilevel path, where one context
/// tracks the lifetime solve statistics of a whole V-cycle. Each round's
/// weight update moves the graph's revision, so the next round's request
/// builds a fresh handle.
///
/// # Errors
/// See [`refine_weights`].
pub fn refine_weights_with(
    graph: &mut Graph,
    measurements: &Measurements,
    opts: &RefineOptions,
    ctx: &mut SolverContext,
) -> Result<Vec<RefineRecord>, SglError> {
    let n = graph.num_nodes();
    let q = if opts.projections > 0 {
        opts.projections
    } else {
        ((24.0 * (n.max(2) as f64).ln()).ceil() as usize).clamp(50, 300)
    };
    let mut resistor = JlResistor {
        ctx,
        q,
        seed: opts.seed,
    };
    refine_rounds(graph, measurements, opts, &mut resistor)
}

/// Solver-free weight refinement (the SF-SGL path): each round's
/// effective resistances come from the *filtered* truncated-spectrum
/// sketch ([`SpectralSketch::build_filtered`]) — plain smoothed-matvec
/// extraction, no Laplacian solver or factorization anywhere. The round
/// loop, damping, clamping, and trace are shared with
/// [`refine_weights_with`].
///
/// `opts.projections` is reinterpreted as the sketch *width* (retained
/// eigenpairs; 0 = auto). The truncated sum lower-bounds `R_eff`, which
/// biases η slightly low; the damping/clamp keep that bias from
/// over-shrinking weights, and the small-λ pairs that dominate `1/λ`
/// are exactly the ones the filter extracts best.
///
/// # Errors
/// Propagates eigensolver failures; rejects node-count mismatches and
/// invalid options.
pub fn refine_weights_solver_free(
    graph: &mut Graph,
    measurements: &Measurements,
    opts: &RefineOptions,
) -> Result<Vec<RefineRecord>, SglError> {
    let mut fopts = FilteredSpectrumOptions::default();
    fopts.filter.count = 16;
    fopts.filter.sweeps = 16;
    fopts.oversample = 8;
    let mut resistor = FilteredResistor {
        width: opts.projections,
        seed: opts.seed,
        opts: fopts,
    };
    refine_rounds(graph, measurements, opts, &mut resistor)
}

/// How a refinement round obtains its effective-resistance oracle — the
/// seam between the solver-backed and solver-free variants.
trait RefineResistor {
    fn estimator(
        &mut self,
        graph: &Graph,
        round: usize,
    ) -> Result<Box<dyn ResistanceEstimator>, SglError>;
}

/// JL sketch through the shared solver context (the classic path).
struct JlResistor<'a> {
    ctx: &'a mut SolverContext,
    q: usize,
    seed: u64,
}

impl RefineResistor for JlResistor<'_> {
    fn estimator(
        &mut self,
        graph: &Graph,
        round: usize,
    ) -> Result<Box<dyn ResistanceEstimator>, SglError> {
        let handle = self.ctx.handle_for(graph)?;
        Ok(Box::new(ResistanceSketch::build_with(
            handle.as_ref(),
            graph,
            self.q,
            self.seed.wrapping_add(round as u64),
        )?))
    }
}

/// Filtered truncated-spectrum sketch, rebuilt from matvecs each round
/// (the solver-free path).
struct FilteredResistor {
    width: usize,
    seed: u64,
    opts: FilteredSpectrumOptions,
}

impl RefineResistor for FilteredResistor {
    fn estimator(
        &mut self,
        graph: &Graph,
        round: usize,
    ) -> Result<Box<dyn ResistanceEstimator>, SglError> {
        Ok(Box::new(SpectralSketch::build_filtered(
            graph,
            self.width,
            self.seed.wrapping_add(round as u64),
            &self.opts,
        )?))
    }
}

/// The shared fixed-point loop: score every edge's distortion η against
/// the round's resistance oracle, apply the damped clamped update,
/// record the trace.
fn refine_rounds(
    graph: &mut Graph,
    measurements: &Measurements,
    opts: &RefineOptions,
    resistor: &mut dyn RefineResistor,
) -> Result<Vec<RefineRecord>, SglError> {
    if graph.num_nodes() != measurements.num_nodes() {
        return Err(SglError::InvalidMeasurements(format!(
            "graph has {} nodes, measurements have {}",
            graph.num_nodes(),
            measurements.num_nodes()
        )));
    }
    if !(opts.damping > 0.0 && opts.damping <= 1.0) {
        return Err(SglError::InvalidConfig(format!(
            "damping must be in (0, 1], got {}",
            opts.damping
        )));
    }
    if opts.clamp <= 1.0 {
        return Err(SglError::InvalidConfig(format!(
            "clamp must exceed 1, got {}",
            opts.clamp
        )));
    }
    let m = measurements.num_measurements() as f64;
    // Cache data distances per edge (fixed across rounds).
    let zdata: Vec<f64> = graph
        .edges()
        .iter()
        .map(|e| {
            measurements
                .data_distance_sq(e.u, e.v)
                .max(f64::MIN_POSITIVE)
        })
        .collect();

    let mut trace = Vec::with_capacity(opts.rounds);
    for round in 1..=opts.rounds {
        let sketch = resistor.estimator(graph, round)?;
        let num_edges = graph.num_edges();
        // Per-edge scoring is independent (the sketch is read-only), so
        // it fans out across the ambient thread count; the weight writes
        // and the distortion reduction happen serially afterwards in
        // edge order, keeping the result identical at any thread count.
        let etas: Vec<f64> = {
            // Reborrow immutably for the parallel read-only phase.
            let g: &Graph = graph;
            let est: &dyn ResistanceEstimator = sketch.as_ref();
            sgl_linalg::par::try_map_indexed(num_edges, 64, |i| {
                let e = g.edge(i);
                let reff = est.resistance(e.u, e.v)?.max(f64::MIN_POSITIVE);
                Ok::<f64, SglError>((m * reff / zdata[i]).max(f64::MIN_POSITIVE))
            })?
        };
        let mut max_log = 0.0f64;
        let mut sum_log = 0.0f64;
        for (i, &eta) in etas.iter().enumerate() {
            let log_eta = eta.ln();
            max_log = max_log.max(log_eta.abs());
            sum_log += log_eta.abs();
            let factor = eta.powf(opts.damping).clamp(1.0 / opts.clamp, opts.clamp);
            graph.set_weight(i, graph.edge(i).weight * factor);
        }
        trace.push(RefineRecord {
            round,
            max_log_distortion: max_log,
            mean_log_distortion: sum_log / num_edges.max(1) as f64,
        });
    }
    Ok(trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::Sgl;
    use crate::config::SglConfig;
    use crate::metrics::compare_spectra;
    use sgl_datasets::grid2d;

    fn learn(side: usize, m: usize, seed: u64) -> (Graph, Measurements, crate::LearnResult) {
        let truth = grid2d(side, side);
        let meas = Measurements::generate(&truth, m, seed).unwrap();
        let result = Sgl::new(SglConfig::default().with_tol(1e-7).with_max_iterations(80))
            .learn(&meas)
            .unwrap();
        (truth, meas, result)
    }

    #[test]
    fn distortion_decreases_over_rounds() {
        let (_, meas, result) = learn(10, 30, 1);
        let mut g = result.graph.clone();
        let trace = refine_weights(&mut g, &meas, &RefineOptions::default()).unwrap();
        assert_eq!(trace.len(), 4);
        assert!(
            trace.last().unwrap().mean_log_distortion < trace.first().unwrap().mean_log_distortion,
            "distortion should shrink: {trace:?}"
        );
    }

    #[test]
    fn refinement_improves_or_preserves_spectral_match() {
        let (truth, meas, result) = learn(10, 30, 2);
        let before = compare_spectra(&truth, &result.graph, 8)
            .unwrap()
            .mean_relative_error;
        let mut g = result.graph.clone();
        refine_weights(&mut g, &meas, &RefineOptions::default()).unwrap();
        crate::scaling::spectral_edge_scaling(&mut g, &meas).unwrap();
        let after = compare_spectra(&truth, &g, 8).unwrap().mean_relative_error;
        assert!(
            after < before + 0.05,
            "refinement degraded eigenvalue error: {before} -> {after}"
        );
    }

    #[test]
    fn invalid_options_rejected() {
        let truth = grid2d(5, 5);
        let meas = Measurements::generate(&truth, 10, 3).unwrap();
        let mut g = truth.clone();
        let bad_damp = RefineOptions {
            damping: 0.0,
            ..RefineOptions::default()
        };
        assert!(refine_weights(&mut g, &meas, &bad_damp).is_err());
        let bad_clamp = RefineOptions {
            clamp: 1.0,
            ..RefineOptions::default()
        };
        assert!(refine_weights(&mut g, &meas, &bad_clamp).is_err());
    }

    #[test]
    fn shared_context_matches_standalone_and_tracks_stats() {
        let (_, meas, result) = learn(7, 20, 5);
        let opts = RefineOptions {
            rounds: 2,
            ..RefineOptions::default()
        };
        let mut standalone = result.graph.clone();
        refine_weights(&mut standalone, &meas, &opts).unwrap();

        let mut shared = result.graph.clone();
        let mut ctx = SolverContext::new(SolverPolicy::default());
        refine_weights_with(&mut shared, &meas, &opts, &mut ctx).unwrap();

        for (a, b) in standalone.edges().iter().zip(shared.edges()) {
            assert_eq!((a.u, a.v), (b.u, b.v));
            assert_eq!(a.weight, b.weight, "context path must be bit-identical");
        }
        // Each round sketches a new revision (the previous round moved
        // the weights), so two rounds build two handles, and the context
        // saw every sketch solve.
        assert_eq!(ctx.handles_built(), 2, "one handle per round");
        assert!(ctx.cumulative_stats().solves > 0);
    }

    #[test]
    fn solver_free_refine_tracks_the_solver_path() {
        let (truth, meas, result) = learn(10, 30, 6);
        let opts = RefineOptions::default();
        let mut solver_g = result.graph.clone();
        refine_weights(&mut solver_g, &meas, &opts).unwrap();
        let mut sf_g = result.graph.clone();
        let trace = refine_weights_solver_free(&mut sf_g, &meas, &opts).unwrap();
        assert_eq!(trace.len(), opts.rounds);
        // Same fixed point chased without a solver: distortion shrinks
        // and the refined graph stays spectrally close to the
        // solver-refined one.
        assert!(
            trace.last().unwrap().mean_log_distortion < trace.first().unwrap().mean_log_distortion,
            "distortion should shrink: {trace:?}"
        );
        crate::scaling::solver_free_edge_scaling(&mut sf_g, &meas).unwrap();
        crate::scaling::spectral_edge_scaling(&mut solver_g, &meas).unwrap();
        let cmp = compare_spectra(&solver_g, &sf_g, 6).unwrap();
        assert!(
            cmp.mean_relative_error < 0.1,
            "solver-free refine diverged: {cmp:?}"
        );
        // And going solver-free costs no ground-truth fidelity: the
        // solver-free graph correlates with the truth as well as the
        // solver-refined one does (small slack for the differing
        // resistance estimators).
        let sf_vs_truth = compare_spectra(&truth, &sf_g, 6).unwrap();
        let solver_vs_truth = compare_spectra(&truth, &solver_g, 6).unwrap();
        assert!(
            sf_vs_truth.correlation > solver_vs_truth.correlation - 0.02,
            "solver-free {sf_vs_truth:?} vs solver {solver_vs_truth:?}"
        );
    }

    #[test]
    fn topology_is_preserved() {
        let (_, meas, result) = learn(7, 20, 4);
        let mut g = result.graph.clone();
        refine_weights(&mut g, &meas, &RefineOptions::default()).unwrap();
        assert_eq!(g.num_edges(), result.graph.num_edges());
        for (a, b) in g.edges().iter().zip(result.graph.edges()) {
            assert_eq!((a.u, a.v), (b.u, b.v));
            assert!(a.weight > 0.0);
        }
    }
}
