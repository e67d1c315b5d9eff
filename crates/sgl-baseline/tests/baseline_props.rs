//! Additional integration checks for the baselines.

use sgl_baseline::{knn_baseline, DenseGspEstimator, DenseGspOptions};
use sgl_core::{objective, Measurements, ObjectiveOptions};
use sgl_datasets::grid2d;
use sgl_knn::build_knn_graph;

#[test]
fn dense_estimator_gradient_norm_shrinks() {
    let truth = grid2d(5, 5);
    let meas = Measurements::generate(&truth, 20, 1).unwrap();
    let knn = build_knn_graph(meas.voltages(), 4);
    let short = DenseGspEstimator::new(DenseGspOptions {
        max_iterations: 3,
        ..DenseGspOptions::default()
    })
    .estimate(&meas, &knn)
    .unwrap();
    let long = DenseGspEstimator::new(DenseGspOptions {
        max_iterations: 120,
        ..DenseGspOptions::default()
    })
    .estimate(&meas, &knn)
    .unwrap();
    assert!(
        long.final_gradient_norm <= short.final_gradient_norm * 1.5,
        "more iterations should not leave a much larger gradient: {} vs {}",
        long.final_gradient_norm,
        short.final_gradient_norm
    );
    assert!(
        long.objective_trace.last().unwrap() >= short.objective_trace.last().unwrap(),
        "longer optimization must not score worse"
    );
}

#[test]
fn knn_baseline_scaling_improves_its_own_objective_consistency() {
    // Scaling calibrates the trace term: the scaled 5NN graph's voltages
    // must reproduce measured voltage magnitudes on average.
    let truth = grid2d(8, 8);
    let meas = Measurements::generate(&truth, 25, 2).unwrap();
    let (scaled, factor) = knn_baseline(&meas, 5).unwrap();
    assert!(factor.is_some());
    // Re-applying the scale factor computation on the scaled graph gives ~1.
    let refactor = sgl_core::edge_scale_factor(&scaled, &meas).unwrap();
    assert!(
        (refactor - 1.0).abs() < 0.05,
        "scaled graph should be calibrated, refactor {refactor}"
    );
}

#[test]
fn baselines_are_deterministic() {
    let truth = grid2d(7, 7);
    let meas = Measurements::generate(&truth, 20, 3).unwrap();
    let (a, fa) = knn_baseline(&meas, 5).unwrap();
    let (b, fb) = knn_baseline(&meas, 5).unwrap();
    assert_eq!(a.num_edges(), b.num_edges());
    assert_eq!(fa, fb);
}

#[test]
fn objective_comparable_across_graph_sizes() {
    // Guard the ObjectiveOptions::num_eigenvalues clamp: tiny graphs with
    // fewer than 50 nonzero eigenvalues must still evaluate.
    let truth = grid2d(4, 4);
    let meas = Measurements::generate(&truth, 10, 4).unwrap();
    let f = objective(&truth, &meas, &ObjectiveOptions::default()).unwrap();
    assert!(f.total.is_finite());
    assert!(f.log_det.is_finite());
}
