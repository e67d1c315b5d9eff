//! Reduced-network learning (Fig. 8): learn a spectrally-similar graph on
//! a random subset of nodes using only their voltage measurement rows.
//!
//! The paper observes that feeding SGL 20% (10%) of the node voltage rows
//! — with no current data — yields resistor networks ~5× (10×) smaller
//! that still track the original graph's low spectrum.

use crate::algorithm::{LearnResult, Sgl};
use crate::config::SglConfig;
use crate::error::SglError;
use crate::measure::Measurements;
use sgl_linalg::Rng;

/// Output of [`learn_reduced`].
#[derive(Debug, Clone)]
pub struct ReducedResult {
    /// Indices (into the original node set) of the kept nodes.
    pub node_indices: Vec<usize>,
    /// The learning result on the reduced node set.
    pub result: LearnResult,
    /// Reduction ratio `N_original / N_reduced`.
    pub reduction_ratio: f64,
}

/// Learn a reduced network from a random `fraction` of node voltages.
///
/// Current measurements are not used (they don't restrict to a node
/// subset), so the learned graph keeps the kNN weight scale — exactly the
/// Fig. 8 setting.
///
/// # Errors
/// Propagates learning failures; rejects fractions outside `(0, 1]` and
/// subsets below 4 nodes.
pub fn learn_reduced(
    measurements: &Measurements,
    fraction: f64,
    config: &SglConfig,
    seed: u64,
) -> Result<ReducedResult, SglError> {
    if !(fraction > 0.0 && fraction <= 1.0) {
        return Err(SglError::InvalidConfig(format!(
            "reduction fraction must be in (0, 1], got {fraction}"
        )));
    }
    let n = measurements.num_nodes();
    let keep = ((n as f64 * fraction).round() as usize).max(1);
    if keep < 4 {
        return Err(SglError::InvalidMeasurements(format!(
            "reduced set of {keep} nodes is too small to learn"
        )));
    }
    let mut rng = Rng::seed_from_u64(seed);
    let mut node_indices = rng.sample_indices(n, keep);
    node_indices.sort_unstable();
    let sub = measurements.subset_rows(&node_indices);
    // No currents on the subset → disable scaling.
    let cfg = config.clone().with_scale_edges(false);
    let result = Sgl::new(cfg).learn(&sub)?;
    Ok(ReducedResult {
        node_indices,
        reduction_ratio: n as f64 / keep as f64,
        result,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::compare_spectra;
    use sgl_datasets::grid2d;
    use sgl_graph::traversal::is_connected;

    fn quick_config() -> SglConfig {
        SglConfig::default().with_tol(1e-6).with_max_iterations(60)
    }

    #[test]
    fn reduced_graph_is_smaller_and_connected() {
        let truth = grid2d(12, 12);
        let meas = Measurements::generate(&truth, 30, 1).unwrap();
        let red = learn_reduced(&meas, 0.25, &quick_config(), 7).unwrap();
        assert_eq!(red.node_indices.len(), 36);
        assert!((red.reduction_ratio - 4.0).abs() < 1e-12);
        assert_eq!(red.result.graph.num_nodes(), 36);
        assert!(is_connected(&red.result.graph));
        assert!(red.result.scale_factor.is_none());
    }

    #[test]
    fn reduced_graph_tracks_low_spectrum_shape() {
        let truth = grid2d(14, 14);
        let meas = Measurements::generate(&truth, 40, 2).unwrap();
        let red = learn_reduced(&meas, 0.3, &quick_config(), 3).unwrap();
        // Eigenvalue *shape* correlation (scale differs since the reduced
        // graph lives on fewer nodes).
        let cmp = compare_spectra(&truth, &red.result.graph, 8).unwrap();
        assert!(
            cmp.correlation > 0.8,
            "reduced spectrum correlation {}",
            cmp.correlation
        );
    }

    #[test]
    fn invalid_fraction_rejected() {
        let truth = grid2d(6, 6);
        let meas = Measurements::generate(&truth, 10, 3).unwrap();
        assert!(learn_reduced(&meas, 0.0, &quick_config(), 1).is_err());
        assert!(learn_reduced(&meas, 1.5, &quick_config(), 1).is_err());
        assert!(learn_reduced(&meas, 0.01, &quick_config(), 1).is_err());
    }

    #[test]
    fn indices_are_sorted_unique_subset() {
        let truth = grid2d(10, 10);
        let meas = Measurements::generate(&truth, 15, 4).unwrap();
        let red = learn_reduced(&meas, 0.2, &quick_config(), 5).unwrap();
        let mut sorted = red.node_indices.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted, red.node_indices);
        assert!(red.node_indices.iter().all(|&i| i < 100));
    }
}
