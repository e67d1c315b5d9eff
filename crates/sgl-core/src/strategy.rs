//! The two learning strategies: how the loop obtains its spectra.
//!
//! Algorithm 1 is one fixed loop — embed, score by eq. (13), stop at
//! `s_max < tol`, densify, scale by eqs. (21–23) — and SF-SGL changes
//! only how Steps 2 and 5 get their spectra. So the strategy is plain
//! data, [`LearnStrategyKind`], and each step that depends on it
//! `match`es on it:
//!
//! * [`LearnStrategyKind::Solver`] — LOBPCG embedding with a
//!   shift-invert fallback through the session's [`SolverContext`],
//!   solve-based Step-5 scaling and weight refinement, and exact-solve
//!   effective resistances.
//! * [`LearnStrategyKind::SolverFree`] — the SF-SGL path: multilevel
//!   band-filtered embeddings ([`BandedEigBackend`]), matvec-only
//!   scaling and refinement, and the spectral-sketch resistance
//!   estimator. No Laplacian system is ever solved and no factorization
//!   is ever built.
//!
//! The strategy is selected by config
//! ([`SglConfig::builder().strategy(…)`](crate::SglConfigBuilder::strategy)),
//! so the facade, the serving writer, `learn_multilevel`, and the
//! benches run either path unchanged. Step 2 is
//! [`Embedder::for_config`](crate::backend::Embedder::for_config); Step 5,
//! refinement and the resistance estimator are the methods below.
//!
//! [`BandedEigBackend`]: crate::embed::BandedEigBackend

use crate::error::SglError;
use crate::measure::Measurements;
use crate::refine::{refine_weights_solver_free, refine_weights_with, RefineOptions, RefineRecord};
use crate::resistance::{ExactSolve, ResistanceEstimator, SpectralSketch};
use crate::scaling::{solver_free_edge_scaling, spectral_edge_scaling_with};
use sgl_graph::Graph;
use sgl_solver::SolverContext;

/// Which learning strategy a session runs — plain data, carried by
/// [`SglConfig::strategy`](crate::SglConfig::strategy).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LearnStrategyKind {
    /// The solver-backed loop of the paper's Algorithm 1: eigensolves
    /// may fall back to shift-invert through the session's solver
    /// context, and Step 5 solves `L x̃ = y`.
    #[default]
    Solver,
    /// The solver-free SF-SGL loop: every solve is replaced by filtered
    /// matvecs.
    SolverFree,
}

impl LearnStrategyKind {
    /// Stable kebab-case label (for logs and bench JSON).
    pub fn as_str(self) -> &'static str {
        match self {
            LearnStrategyKind::Solver => "solver",
            LearnStrategyKind::SolverFree => "solver-free",
        }
    }

    /// Step 5: rescale `graph` against the measurements in place and
    /// return the applied factor — eqs. (21–23) through a handle drawn
    /// from `ctx`, or the matvec-only CG recurrence of
    /// [`solver_free_edge_scaling`], which never consults `ctx`. Skipped
    /// (`None`) for voltage-only measurements.
    ///
    /// # Errors
    /// Propagates solver failures.
    pub fn scale_edges(
        self,
        graph: &mut Graph,
        measurements: &Measurements,
        ctx: &mut SolverContext,
    ) -> Result<Option<f64>, SglError> {
        if measurements.currents().is_none() {
            return Ok(None);
        }
        let factor = match self {
            LearnStrategyKind::Solver => {
                let handle = ctx.handle_for(graph)?;
                spectral_edge_scaling_with(graph, measurements, handle.as_ref())?
            }
            LearnStrategyKind::SolverFree => solver_free_edge_scaling(graph, measurements)?,
        };
        Ok(Some(factor))
    }

    /// Post-densification weight refinement (the multilevel V-cycle runs
    /// it between levels): the JL-sketch fixed point of
    /// [`refine_weights_with`] through `ctx`, or the filtered-sketch
    /// [`refine_weights_solver_free`], which never consults `ctx`.
    ///
    /// # Errors
    /// Propagates solver/estimator failures.
    pub fn refine_weights(
        self,
        graph: &mut Graph,
        measurements: &Measurements,
        opts: &RefineOptions,
        ctx: &mut SolverContext,
    ) -> Result<Vec<RefineRecord>, SglError> {
        match self {
            LearnStrategyKind::Solver => refine_weights_with(graph, measurements, opts, ctx),
            LearnStrategyKind::SolverFree => refine_weights_solver_free(graph, measurements, opts),
        }
    }

    /// The effective-resistance oracle for `graph`: exact solves
    /// through a handle drawn from `ctx`, or the auto-width
    /// [`SpectralSketch`] (exact below its dense cutoff, filtered above
    /// it), which never consults `ctx` — the solver-free strategy stays
    /// solver-free.
    ///
    /// # Errors
    /// Propagates solver/eigensolver construction failures.
    pub fn resistance_estimator(
        self,
        graph: &Graph,
        ctx: &mut SolverContext,
        seed: u64,
    ) -> Result<Box<dyn ResistanceEstimator>, SglError> {
        Ok(match self {
            LearnStrategyKind::Solver => Box::new(ExactSolve::from_handle(ctx.handle_for(graph)?)),
            LearnStrategyKind::SolverFree => Box::new(SpectralSketch::build(graph, 0, seed)?),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgl_solver::SolverPolicy;

    #[test]
    fn kind_labels_are_stable() {
        assert_eq!(LearnStrategyKind::default(), LearnStrategyKind::Solver);
        assert_eq!(LearnStrategyKind::Solver.as_str(), "solver");
        assert_eq!(LearnStrategyKind::SolverFree.as_str(), "solver-free");
    }

    #[test]
    fn scaler_skips_voltage_only_and_builds_nothing() {
        let g = sgl_datasets::grid2d(5, 5);
        let meas = Measurements::generate(&g, 6, 1).unwrap();
        let volts = Measurements::from_voltages(meas.voltages().clone()).unwrap();
        for (kind, handles) in [
            (LearnStrategyKind::Solver, 1),
            (LearnStrategyKind::SolverFree, 0),
        ] {
            let mut ctx = SolverContext::new(SolverPolicy::default());
            let mut learned = g.clone();
            assert_eq!(
                kind.scale_edges(&mut learned, &volts, &mut ctx).unwrap(),
                None,
                "{kind:?}"
            );
            // The voltage-only skip never builds a solver.
            assert_eq!(ctx.handles_built(), 0, "{kind:?}");
            assert!(kind
                .scale_edges(&mut learned, &meas, &mut ctx)
                .unwrap()
                .is_some());
            // Only the solver strategy solves to scale.
            assert_eq!(ctx.handles_built(), handles, "{kind:?}");
            assert_eq!(ctx.cumulative_stats().solves > 0, handles > 0, "{kind:?}");
        }
    }
}
