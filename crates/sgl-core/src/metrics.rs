//! Quality metrics: the quantities plotted in the paper's figures.

use crate::embedding::smallest_nonzero_eigenvalues;
use crate::error::SglError;
use sgl_graph::Graph;
use sgl_linalg::vecops;

/// Side-by-side comparison of the low spectra of two graphs (the
/// eigenvalue scatter plots of Figs. 3–6 and 8–10).
#[derive(Debug, Clone)]
pub struct SpectrumComparison {
    /// Eigenvalues of the reference (original) graph, ascending.
    pub reference: Vec<f64>,
    /// Eigenvalues of the approximating (learned) graph, ascending.
    pub approximate: Vec<f64>,
    /// Pearson correlation between the two sequences.
    pub correlation: f64,
    /// Mean relative error `mean |λ̂ − λ| / λ`.
    pub mean_relative_error: f64,
}

/// Compare the first `k` nonzero eigenvalues of two graphs.
///
/// # Errors
/// Propagates eigensolver failures from either graph.
pub fn compare_spectra(
    reference: &Graph,
    approximate: &Graph,
    k: usize,
) -> Result<SpectrumComparison, SglError> {
    let r = smallest_nonzero_eigenvalues(reference, k)?;
    let a = smallest_nonzero_eigenvalues(approximate, k)?;
    Ok(spectrum_comparison_from_values(r, a))
}

/// Build a [`SpectrumComparison`] from precomputed eigenvalue lists.
///
/// # Panics
/// Panics if the lists have different lengths or are empty.
pub fn spectrum_comparison_from_values(
    reference: Vec<f64>,
    approximate: Vec<f64>,
) -> SpectrumComparison {
    assert_eq!(
        reference.len(),
        approximate.len(),
        "eigenvalue lists must have equal length"
    );
    assert!(!reference.is_empty(), "eigenvalue lists must be non-empty");
    let correlation = vecops::pearson(&reference, &approximate);
    let mean_relative_error = reference
        .iter()
        .zip(&approximate)
        .map(|(&r, &a)| (a - r).abs() / r.abs().max(f64::MIN_POSITIVE))
        .sum::<f64>()
        / reference.len() as f64;
    SpectrumComparison {
        reference,
        approximate,
        correlation,
        mean_relative_error,
    }
}

/// Pearson correlation between two equally-long samples (re-exported for
/// scatter-plot harnesses).
pub fn pearson(a: &[f64], b: &[f64]) -> f64 {
    vecops::pearson(a, b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgl_datasets::grid2d;

    #[test]
    fn identical_graphs_correlate_perfectly() {
        let g = grid2d(6, 6);
        let c = compare_spectra(&g, &g, 8).unwrap();
        assert!(c.correlation > 0.999999, "corr {}", c.correlation);
        assert!(c.mean_relative_error < 1e-6);
    }

    #[test]
    fn scaled_graph_keeps_correlation_but_gains_error() {
        let g = grid2d(6, 6);
        let mut h = g.clone();
        h.scale_weights(2.0);
        let c = compare_spectra(&g, &h, 8).unwrap();
        // Scaling multiplies every eigenvalue by 2: perfectly correlated,
        // 100% relative error.
        assert!(c.correlation > 0.999999);
        assert!((c.mean_relative_error - 1.0).abs() < 1e-6);
    }

    #[test]
    fn unrelated_graphs_correlate_less() {
        let g = grid2d(8, 8);
        let mut h = g.clone();
        // Heavily distort: re-weight edges in a sawtooth pattern.
        for i in 0..h.num_edges() {
            let w = if i % 2 == 0 { 100.0 } else { 0.01 };
            h.set_weight(i, w);
        }
        let c = compare_spectra(&g, &h, 8).unwrap();
        assert!(c.mean_relative_error > 0.5);
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn length_mismatch_panics() {
        spectrum_comparison_from_values(vec![1.0], vec![1.0, 2.0]);
    }
}
