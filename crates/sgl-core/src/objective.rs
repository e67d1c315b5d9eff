//! Evaluation of the graphical-Lasso objective (eq. 2).
//!
//! ```text
//! F = log det(Θ) − (1/M) Tr(XᵀΘX) − β‖Θ‖₁,   Θ = L + I/σ²
//! ```
//!
//! As in the paper's experiments, the log-determinant is approximated
//! from the first `q` (default 50) nonzero Laplacian eigenvalues, the
//! trace term is computed exactly from the quadratic form, and the
//! sparsity term uses `β = 0` (§II.B shows the edge ranking is unchanged).

use crate::embedding::smallest_nonzero_eigenvalues;
use crate::error::SglError;
use crate::measure::Measurements;
use sgl_graph::laplacian::LaplacianOp;
use sgl_graph::Graph;
use sgl_linalg::vecops;

/// Options for [`objective`].
#[derive(Debug, Clone)]
pub struct ObjectiveOptions {
    /// Number of nonzero eigenvalues for the log-det approximation.
    pub num_eigenvalues: usize,
    /// Prior variance σ² (∞ drops the diagonal shift, as in the paper).
    pub sigma_sq: f64,
}

impl Default for ObjectiveOptions {
    fn default() -> Self {
        ObjectiveOptions {
            num_eigenvalues: 50,
            sigma_sq: f64::INFINITY,
        }
    }
}

/// Decomposed objective value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ObjectiveValue {
    /// `Σ log(λ_i + 1/σ²)` over the first `q` nonzero eigenvalues.
    pub log_det: f64,
    /// `(1/M) Tr(XᵀΘX)`.
    pub trace_term: f64,
    /// `F = log_det − trace_term`.
    pub total: f64,
}

/// Evaluate the objective of eq. (2) for a learned graph against the
/// measurements.
///
/// # Errors
/// Propagates eigensolver failures; rejects shape mismatches.
pub fn objective(
    graph: &Graph,
    measurements: &Measurements,
    opts: &ObjectiveOptions,
) -> Result<ObjectiveValue, SglError> {
    let n = graph.num_nodes();
    if measurements.num_nodes() != n {
        return Err(SglError::InvalidMeasurements(format!(
            "graph has {n} nodes, measurements have {}",
            measurements.num_nodes()
        )));
    }
    let q = opts.num_eigenvalues.min(n.saturating_sub(1));
    let shift = if opts.sigma_sq.is_infinite() {
        0.0
    } else {
        1.0 / opts.sigma_sq
    };
    let eigs = smallest_nonzero_eigenvalues(graph, q)?;
    let log_det: f64 = eigs
        .iter()
        .map(|&l| (l + shift).max(f64::MIN_POSITIVE).ln())
        .sum();

    // Exact trace term: (1/M) Σ_i [ x_iᵀ L x_i + shift · ‖x_i‖² ].
    let op = LaplacianOp::new(graph);
    let m = measurements.num_measurements();
    let mut tr = 0.0;
    for i in 0..m {
        let xi = measurements.voltage_vector(i);
        tr += op.quadratic_form(&xi);
        if shift > 0.0 {
            tr += shift * vecops::norm2_sq(&xi);
        }
    }
    let trace_term = tr / m as f64;
    Ok(ObjectiveValue {
        log_det,
        trace_term,
        total: log_det - trace_term,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgl_datasets::grid2d;
    use sgl_linalg::SymEig;

    #[test]
    fn matches_dense_computation() {
        let g = grid2d(5, 5);
        let meas = Measurements::generate(&g, 10, 1).unwrap();
        let opts = ObjectiveOptions {
            num_eigenvalues: 24, // all nonzero eigenvalues of a 25-node graph
            ..ObjectiveOptions::default()
        };
        let got = objective(&g, &meas, &opts).unwrap();

        // Dense reference.
        let l = sgl_graph::laplacian::laplacian_csr(&g);
        let eig = SymEig::compute(&l.to_dense()).unwrap();
        let log_det: f64 = eig.values[1..].iter().map(|&v| v.ln()).sum();
        let mut tr = 0.0;
        for i in 0..10 {
            let xi = meas.voltage_vector(i);
            tr += l.quadratic_form(&xi);
        }
        tr /= 10.0;
        assert!((got.log_det - log_det).abs() < 1e-4, "logdet");
        assert!((got.trace_term - tr).abs() < 1e-9, "trace");
        assert!((got.total - (log_det - tr)).abs() < 1e-4);
    }

    #[test]
    fn true_graph_beats_underweighted_copy() {
        // Under the circuit measurement model the trace term is small
        // (currents are unit-norm, so xᵀLx = yᵀL⁺y ≪ N−1) and the
        // objective rewards larger conductances; the meaningful sanity
        // check is that *down*-scaling — which hurts both terms' balance
        // the way a too-sparse learned graph does — lowers F.
        let g = grid2d(6, 6);
        let meas = Measurements::generate(&g, 20, 2).unwrap();
        let opts = ObjectiveOptions::default();
        let f_true = objective(&g, &meas, &opts).unwrap().total;
        let mut wrong = g.clone();
        wrong.scale_weights(0.2);
        let f_wrong = objective(&wrong, &meas, &opts).unwrap().total;
        assert!(
            f_true > f_wrong,
            "true {f_true} should beat down-scaled {f_wrong}"
        );
        // And F must be monotone in the log-det direction: removing half
        // the edges (keeping a spanning structure) lowers log det.
        let tree = sgl_graph::mst::maximum_spanning_tree(&g).to_graph(&g);
        let f_tree = objective(&tree, &meas, &opts).unwrap().total;
        assert!(f_true > f_tree, "true {f_true} should beat tree {f_tree}");
    }

    #[test]
    fn finite_sigma_adds_shift() {
        let g = grid2d(4, 4);
        let meas = Measurements::generate(&g, 5, 3).unwrap();
        let inf = objective(&g, &meas, &ObjectiveOptions::default()).unwrap();
        let shifted = objective(
            &g,
            &meas,
            &ObjectiveOptions {
                sigma_sq: 1.0,
                ..ObjectiveOptions::default()
            },
        )
        .unwrap();
        assert!(shifted.log_det > inf.log_det);
        assert!(shifted.trace_term > inf.trace_term);
    }

    #[test]
    fn mismatched_sizes_error() {
        let g = grid2d(4, 4);
        let meas = Measurements::generate(&grid2d(5, 5), 5, 4).unwrap();
        assert!(objective(&g, &meas, &ObjectiveOptions::default()).is_err());
    }
}
