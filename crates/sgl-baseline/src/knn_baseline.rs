//! The kNN-graph baseline: Step 1 + Step 5 of the pipeline without any
//! densification — exactly the "5NN" comparison of Figs. 2 and 3.

use sgl_core::{spectral_edge_scaling, Measurements, SglError};
use sgl_graph::Graph;
use sgl_knn::build_knn_graph;

/// Build the scaled kNN baseline graph for a measurement set.
///
/// The graph topology is the symmetrized `k`-nearest-neighbor graph over
/// the voltage rows with eq. (15) weights; if current measurements are
/// present, the same spectral edge scaling as SGL's Step 5 is applied so
/// the comparison is apples-to-apples.
///
/// # Errors
/// Propagates scaling/solver failures.
pub fn knn_baseline(
    measurements: &Measurements,
    k: usize,
) -> Result<(Graph, Option<f64>), SglError> {
    let mut graph = build_knn_graph(measurements.voltages(), k);
    let factor = if measurements.currents().is_some() {
        Some(spectral_edge_scaling(&mut graph, measurements)?)
    } else {
        None
    };
    Ok((graph, factor))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgl_core::{objective, ObjectiveOptions, Sgl, SglConfig};
    use sgl_datasets::grid2d;

    #[test]
    fn baseline_is_denser_than_sgl() {
        let truth = grid2d(9, 9);
        let meas = Measurements::generate(&truth, 25, 1).unwrap();
        let (knn, factor) = knn_baseline(&meas, 5).unwrap();
        assert!(factor.is_some());
        let sgl = Sgl::new(SglConfig::default().with_tol(1e-6).with_max_iterations(80))
            .learn(&meas)
            .unwrap();
        assert!(
            knn.density() > 1.5 * sgl.graph.density(),
            "kNN {} vs SGL {}",
            knn.density(),
            sgl.graph.density()
        );
    }

    #[test]
    fn sgl_objective_at_least_matches_knn() {
        // The headline comparison of Fig. 2: SGL's final objective should
        // not lose to the scaled 5NN graph.
        let truth = grid2d(8, 8);
        let meas = Measurements::generate(&truth, 30, 2).unwrap();
        let (knn, _) = knn_baseline(&meas, 5).unwrap();
        let sgl = Sgl::new(SglConfig::default().with_tol(1e-7).with_max_iterations(120))
            .learn(&meas)
            .unwrap();
        let opts = ObjectiveOptions::default();
        let f_knn = objective(&knn, &meas, &opts).unwrap().total;
        let f_sgl = objective(&sgl.graph, &meas, &opts).unwrap().total;
        assert!(
            f_sgl > f_knn - 1.0,
            "SGL objective {f_sgl} should be at least comparable to kNN {f_knn}"
        );
    }

    #[test]
    fn voltage_only_baseline_skips_scaling() {
        let truth = grid2d(6, 6);
        let meas = Measurements::generate(&truth, 15, 3).unwrap();
        let volts = Measurements::from_voltages(meas.voltages().clone()).unwrap();
        let (g, factor) = knn_baseline(&volts, 5).unwrap();
        assert!(factor.is_none());
        assert!(g.num_edges() > 0);
    }
}
