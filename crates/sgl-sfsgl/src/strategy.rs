//! The [`LearnStrategy`] bundle that makes the whole loop solver-free.

use crate::embed::BandedEigBackend;
use sgl_core::refine::{refine_weights_solver_free, RefineOptions, RefineRecord};
use sgl_core::scaling::solver_free_edge_scaling;
use sgl_core::{
    EdgeScaler, EmbeddingBackend, LearnStrategy, LearnStrategyKind, Measurements, ResistanceMethod,
    SglConfig, SglError,
};
use sgl_graph::Graph;
use sgl_solver::SolverContext;

/// Step-5 scaler of the solver-free path: the eq. (23) factor evaluated
/// by [`solver_free_edge_scaling`] (diagonally scaled CG recurrences —
/// matvecs only), skipped for voltage-only measurements exactly like the
/// solver-backed [`SpectralScaler`](sgl_core::SpectralScaler). The
/// session's solver context is never consulted.
#[derive(Debug, Clone, Copy, Default)]
pub struct SolverFreeScaler;

impl EdgeScaler for SolverFreeScaler {
    fn scale(
        &self,
        graph: &mut Graph,
        measurements: &Measurements,
        _ctx: &mut SolverContext,
    ) -> Result<Option<f64>, SglError> {
        if measurements.currents().is_none() {
            return Ok(None);
        }
        let factor = solver_free_edge_scaling(graph, measurements)?;
        Ok(Some(factor))
    }
}

/// The SF-SGL strategy: banded matvec-only embeddings
/// ([`BandedEigBackend`]), the CG-recurrence Step-5 scaler
/// ([`SolverFreeScaler`]), the truncated-spectrum resistance sketch, and
/// the filtered-sketch weight refinement. A session or multilevel run
/// resolved to this strategy completes with `handles_built == 0` and
/// `solves == 0` on its solver context.
#[derive(Debug, Clone, Copy, Default)]
pub struct SolverFreeStrategy;

impl LearnStrategy for SolverFreeStrategy {
    fn name(&self) -> &'static str {
        "solver-free"
    }

    fn kind(&self) -> LearnStrategyKind {
        LearnStrategyKind::SolverFree
    }

    fn embedding_backend(&self, config: &SglConfig) -> Box<dyn EmbeddingBackend> {
        Box::new(BandedEigBackend::from_config(config))
    }

    fn edge_scaler(&self, _config: &SglConfig) -> Box<dyn EdgeScaler> {
        Box::new(SolverFreeScaler)
    }

    fn resistance_method(&self, config: &SglConfig) -> ResistanceMethod {
        // Exact solves and the JL sketch both run Laplacian systems; the
        // spectral sketch is the one estimator that stays matvec-only.
        // An explicit width is honored; anything else maps to the
        // auto-width sketch.
        match config.resistance {
            ResistanceMethod::SpectralSketch { width } => {
                ResistanceMethod::SpectralSketch { width }
            }
            _ => ResistanceMethod::SpectralSketch { width: 0 },
        }
    }

    fn refine_weights(
        &self,
        graph: &mut Graph,
        measurements: &Measurements,
        opts: &RefineOptions,
        _ctx: &mut SolverContext,
    ) -> Result<Vec<RefineRecord>, SglError> {
        refine_weights_solver_free(graph, measurements, opts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strategy_reports_solver_free_stages() {
        let cfg = SglConfig::default();
        let s = SolverFreeStrategy;
        assert_eq!(s.name(), "solver-free");
        assert_eq!(s.kind(), LearnStrategyKind::SolverFree);
        assert_eq!(s.kind().as_str(), "solver-free");
        assert!(format!("{:?}", s.embedding_backend(&cfg)).starts_with("BandedEigBackend"));
        assert_eq!(format!("{:?}", s.edge_scaler(&cfg)), "SolverFreeScaler");
    }

    #[test]
    fn solver_bound_resistance_methods_are_remapped() {
        let s = SolverFreeStrategy;
        let base = SglConfig::default();
        assert_eq!(
            s.resistance_method(&base.clone().with_resistance(ResistanceMethod::ExactSolve)),
            ResistanceMethod::SpectralSketch { width: 0 }
        );
        assert_eq!(
            s.resistance_method(
                &base
                    .clone()
                    .with_resistance(ResistanceMethod::JlSketch { projections: 32 })
            ),
            ResistanceMethod::SpectralSketch { width: 0 }
        );
        assert_eq!(
            s.resistance_method(
                &base.with_resistance(ResistanceMethod::SpectralSketch { width: 12 })
            ),
            ResistanceMethod::SpectralSketch { width: 12 }
        );
    }

    #[test]
    fn scaler_skips_voltage_only_and_builds_nothing() {
        let g = sgl_datasets::grid2d(5, 5);
        let meas = Measurements::generate(&g, 6, 1).unwrap();
        let volts = Measurements::from_voltages(meas.voltages().clone()).unwrap();
        let mut ctx = SolverContext::new(sgl_solver::SolverPolicy::default());
        let mut learned = g.clone();
        assert_eq!(
            SolverFreeScaler
                .scale(&mut learned, &volts, &mut ctx)
                .unwrap(),
            None
        );
        let factor = SolverFreeScaler
            .scale(&mut learned, &meas, &mut ctx)
            .unwrap();
        assert!(factor.is_some());
        assert_eq!(ctx.handles_built(), 0);
        assert_eq!(ctx.cumulative_stats().solves, 0);
    }
}
