//! Step 5 of Algorithm 1: spectral edge scaling (eqs. 21–23).
//!
//! The densification loop fixes the graph *topology* and relative
//! weights; the final global scale is recovered by comparing voltage
//! magnitudes: solve `L x̃_i = y_i` on the learned graph and multiply all
//! weights by `√((1/M) Σ_i ‖x̃_i‖² / ‖x_i‖²)` — if the learned
//! conductances are uniformly too small, the reconstructed voltages are
//! too large in exactly that proportion.

use crate::error::SglError;
use crate::measure::Measurements;
use sgl_graph::laplacian::LaplacianOp;
use sgl_graph::Graph;
use sgl_linalg::cg::{pcg_solve, CgOptions, JacobiPreconditioner};
use sgl_linalg::{par, vecops};
use sgl_solver::{SolverHandle, SolverPolicy};

/// Relative residual for the solver-free factor's inner CG runs: the
/// factor enters through `‖x̃‖²`, so a `1e-4` residual bounds the factor
/// error well inside the few-percent agreement the A/B criterion needs.
const SOLVER_FREE_RTOL: f64 = 1e-4;

/// Apply spectral edge scaling to `graph` in place, returning the scale
/// factor that was applied. Builds a default-policy solver handle; use
/// [`spectral_edge_scaling_with`] to share a session handle.
///
/// # Errors
/// Returns [`SglError::InvalidMeasurements`] when no current measurements
/// are available and propagates solver failures.
pub fn spectral_edge_scaling(
    graph: &mut Graph,
    measurements: &Measurements,
) -> Result<f64, SglError> {
    let handle = SolverPolicy::default().build_handle(graph)?;
    spectral_edge_scaling_with(graph, measurements, handle.as_ref())
}

/// [`spectral_edge_scaling`] through an existing handle prepared for the
/// *unscaled* `graph` (the handle is stale once this returns — the
/// caller invalidates its context).
///
/// # Errors
/// See [`spectral_edge_scaling`].
pub fn spectral_edge_scaling_with(
    graph: &mut Graph,
    measurements: &Measurements,
    handle: &dyn SolverHandle,
) -> Result<f64, SglError> {
    let factor = edge_scale_factor_with(graph, measurements, handle)?;
    graph.scale_weights(factor);
    Ok(factor)
}

/// Compute the eq. (23) scale factor without mutating the graph, with a
/// default-policy handle.
///
/// # Errors
/// See [`spectral_edge_scaling`].
pub fn edge_scale_factor(graph: &Graph, measurements: &Measurements) -> Result<f64, SglError> {
    let handle = SolverPolicy::default().build_handle(graph)?;
    edge_scale_factor_with(graph, measurements, handle.as_ref())
}

/// [`edge_scale_factor`] through an existing handle: the `M` current
/// columns are solved in one batched call.
///
/// # Errors
/// See [`spectral_edge_scaling`].
pub fn edge_scale_factor_with(
    graph: &Graph,
    measurements: &Measurements,
    handle: &dyn SolverHandle,
) -> Result<f64, SglError> {
    let y = measurements.currents().ok_or_else(|| {
        SglError::InvalidMeasurements(
            "edge scaling needs current measurements (Y); construct with Measurements::new \
             or disable scale_edges"
                .into(),
        )
    })?;
    if graph.num_nodes() != measurements.num_nodes() {
        return Err(SglError::InvalidMeasurements(format!(
            "graph has {} nodes but measurements have {}",
            graph.num_nodes(),
            measurements.num_nodes()
        )));
    }
    if handle.num_nodes() != graph.num_nodes() {
        return Err(SglError::InvalidGraph(format!(
            "solver handle prepared for {} nodes, graph has {}",
            handle.num_nodes(),
            graph.num_nodes()
        )));
    }
    let m = measurements.num_measurements();
    let rhs: Vec<Vec<f64>> = (0..m).map(|i| y.column(i)).collect();
    let xtildes = handle.solve_batch(&rhs)?;
    let mut ratio_sum = 0.0;
    for (i, xtilde) in xtildes.iter().enumerate() {
        let xi = measurements.voltage_vector(i);
        let xi_norm_sq = vecops::norm2_sq(&xi);
        if xi_norm_sq == 0.0 {
            return Err(SglError::InvalidMeasurements(format!(
                "voltage measurement {i} is identically zero"
            )));
        }
        ratio_sum += vecops::norm2_sq(xtilde) / xi_norm_sq;
    }
    let factor = (ratio_sum / m as f64).sqrt();
    if !(factor.is_finite() && factor > 0.0) {
        return Err(SglError::InvalidMeasurements(format!(
            "degenerate edge scale factor {factor}"
        )));
    }
    Ok(factor)
}

/// The eq. (23) scale factor computed without a solver handle — the
/// SF-SGL Step 5. Each `x̃_i = L⁺ y_i` is evaluated as a polynomial of
/// Laplacian matvecs (diagonally scaled conjugate-gradient recurrence on
/// the mean-zero subspace): no factorization, no preconditioner setup,
/// no [`SolverContext`](sgl_solver::SolverContext) — `handles_built` and
/// `solves` stay untouched. The `M` measurement columns are independent
/// and run through the deterministic `par` layer, so the result is
/// bit-identical at any thread count and matches [`edge_scale_factor`]
/// to the CG tolerance (relative residual `1e-4`).
///
/// It reproduces the solve-based factor on arbitrarily
/// spectrally-distorted learned graphs, not only under a uniform
/// misscale.
///
/// # Errors
/// Returns [`SglError::InvalidMeasurements`] when no current
/// measurements are available, on node-count mismatch, or for a zero
/// voltage column, and propagates CG breakdowns on disconnected or
/// numerically degenerate graphs.
pub fn solver_free_scale_factor(
    graph: &Graph,
    measurements: &Measurements,
) -> Result<f64, SglError> {
    let y = measurements.currents().ok_or_else(|| {
        SglError::InvalidMeasurements(
            "edge scaling needs current measurements (Y); construct with Measurements::new \
             or disable scale_edges"
                .into(),
        )
    })?;
    if graph.num_nodes() != measurements.num_nodes() {
        return Err(SglError::InvalidMeasurements(format!(
            "graph has {} nodes but measurements have {}",
            graph.num_nodes(),
            measurements.num_nodes()
        )));
    }
    let op = LaplacianOp::new(graph);
    let pre = JacobiPreconditioner::from_diagonal(&graph.weighted_degrees());
    let n = graph.num_nodes();
    let opts = CgOptions {
        rtol: SOLVER_FREE_RTOL,
        max_iter: (20 * n).max(1_000),
        project_mean: true,
        ..CgOptions::default()
    };
    let m = measurements.num_measurements();
    let ratios = par::try_map_indexed(m, 1, |i| -> Result<f64, SglError> {
        let xi = measurements.voltage_vector(i);
        let xi_norm_sq = vecops::norm2_sq(&xi);
        if xi_norm_sq == 0.0 {
            return Err(SglError::InvalidMeasurements(format!(
                "voltage measurement {i} is identically zero"
            )));
        }
        let sol = pcg_solve(&op, &pre, &y.column(i), &opts)?;
        Ok(vecops::norm2_sq(&sol.x) / xi_norm_sq)
    })?;
    let factor = (ratios.iter().sum::<f64>() / m as f64).sqrt();
    if !(factor.is_finite() && factor > 0.0) {
        return Err(SglError::InvalidMeasurements(format!(
            "degenerate edge scale factor {factor}"
        )));
    }
    Ok(factor)
}

/// Apply the [`solver_free_scale_factor`] to `graph` in place, returning
/// the factor — the solver-free Step 5.
///
/// # Errors
/// See [`solver_free_scale_factor`].
pub fn solver_free_edge_scaling(
    graph: &mut Graph,
    measurements: &Measurements,
) -> Result<f64, SglError> {
    let factor = solver_free_scale_factor(graph, measurements)?;
    graph.scale_weights(factor);
    Ok(factor)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgl_datasets::grid2d;

    #[test]
    fn scaling_recovers_uniform_weight_error() {
        // Ground truth graph; measurements generated on it.
        let truth = grid2d(6, 6);
        let meas = Measurements::generate(&truth, 20, 1).unwrap();
        // "Learned" graph = truth with all weights off by 4×.
        let mut learned = truth.clone();
        learned.scale_weights(0.25);
        let factor = spectral_edge_scaling(&mut learned, &meas).unwrap();
        assert!(
            (factor - 4.0).abs() < 1e-6,
            "expected factor 4, got {factor}"
        );
        // After scaling, weights match the truth again.
        for (et, el) in truth.edges().iter().zip(learned.edges()) {
            assert!((et.weight - el.weight).abs() < 1e-9);
        }
    }

    #[test]
    fn perfect_graph_scale_is_one() {
        let truth = grid2d(5, 5);
        let meas = Measurements::generate(&truth, 15, 2).unwrap();
        let factor = edge_scale_factor(&truth, &meas).unwrap();
        assert!((factor - 1.0).abs() < 1e-7, "got {factor}");
    }

    #[test]
    fn missing_currents_is_an_error() {
        let truth = grid2d(4, 4);
        let meas = Measurements::generate(&truth, 5, 3).unwrap();
        let voltage_only = Measurements::from_voltages(meas.voltages().clone()).unwrap();
        let mut g = truth.clone();
        assert!(spectral_edge_scaling(&mut g, &voltage_only).is_err());
    }

    #[test]
    fn shared_handle_path_matches_default() {
        let truth = grid2d(5, 5);
        let meas = Measurements::generate(&truth, 10, 4).unwrap();
        let mut g = truth.clone();
        g.scale_weights(0.5);
        let a = edge_scale_factor(&g, &meas).unwrap();
        let handle = SolverPolicy::default().build_handle(&g).unwrap();
        let b = edge_scale_factor_with(&g, &meas, handle.as_ref()).unwrap();
        assert!((a - b).abs() < 1e-9);
        // The M current columns went through one batched solve.
        assert_eq!(handle.stats().batches, 1);
        assert_eq!(handle.stats().solves, 10);
        // A handle for the wrong graph is rejected.
        let wrong = SolverPolicy::default().build_handle(&grid2d(4, 4)).unwrap();
        assert!(edge_scale_factor_with(&g, &meas, wrong.as_ref()).is_err());
    }

    #[test]
    fn node_count_mismatch_is_an_error() {
        let truth = grid2d(4, 4);
        let meas = Measurements::generate(&truth, 5, 3).unwrap();
        let smaller = grid2d(3, 3);
        assert!(edge_scale_factor(&smaller, &meas).is_err());
    }

    #[test]
    fn solver_free_factor_matches_the_solve_based_one() {
        // On a genuinely learned (spectrally distorted) graph the
        // matvec-CG factor must reproduce the solve-based eq. (23) value
        // to the CG tolerance.
        let truth = grid2d(10, 10);
        let meas = crate::Measurements::generate(&truth, 25, 6).unwrap();
        let cfg = crate::SglConfig::default()
            .with_tol(1e-6)
            .with_max_iterations(60)
            .with_scale_edges(false);
        let learned = crate::Sgl::new(cfg).learn(&meas).unwrap().graph;
        let exact = edge_scale_factor(&learned, &meas).unwrap();
        let free = solver_free_scale_factor(&learned, &meas).unwrap();
        assert!(
            (free / exact - 1.0).abs() < 1e-3,
            "solver-free factor {free} vs solve-based {exact}"
        );
        // The in-place variant applies exactly that factor.
        let mut scaled = learned.clone();
        let applied = solver_free_edge_scaling(&mut scaled, &meas).unwrap();
        assert_eq!(applied, free);
        for (a, b) in learned.edges().iter().zip(scaled.edges()) {
            assert!((a.weight * free - b.weight).abs() < 1e-12);
        }
    }

    #[test]
    fn solver_free_factor_is_thread_count_invariant() {
        let truth = grid2d(7, 7);
        let meas = crate::Measurements::generate(&truth, 12, 9).unwrap();
        let serial =
            sgl_linalg::par::with_threads(1, || solver_free_scale_factor(&truth, &meas).unwrap());
        let parallel =
            sgl_linalg::par::with_threads(4, || solver_free_scale_factor(&truth, &meas).unwrap());
        assert_eq!(serial.to_bits(), parallel.to_bits());
    }

    #[test]
    fn solver_free_factor_requires_currents() {
        let truth = grid2d(4, 4);
        let meas = crate::Measurements::generate(&truth, 5, 3).unwrap();
        let voltage_only = crate::Measurements::from_voltages(meas.voltages().clone()).unwrap();
        assert!(solver_free_scale_factor(&truth, &voltage_only).is_err());
        let smaller = grid2d(3, 3);
        assert!(solver_free_scale_factor(&smaller, &meas).is_err());
    }
}
