//! Baseline comparisons: SGL vs the scaled-kNN graph (the paper's
//! comparison) and vs a dense projected-gradient optimizer of the same
//! objective (the expensive reference SGL is designed to replace).

use sgl::prelude::*;
use sgl_baseline::{knn_baseline, DenseGspEstimator, DenseGspOptions};
use sgl_core::{objective, ObjectiveOptions};
use sgl_knn::build_knn_graph;

#[test]
fn sgl_beats_unscaled_5nn_objective() {
    // Fig. 2's structural claim: 5NN = SGL's edge set plus extra edges
    // whose sensitivities are negative, so the unscaled kNN-weighted 5NN
    // graph scores strictly worse.
    let truth = sgl_datasets::grid2d(12, 12);
    let meas = Measurements::generate(&truth, 40, 1).unwrap();
    let result = Sgl::new(SglConfig::default().with_tol(1e-9).with_max_iterations(150))
        .learn(&meas)
        .unwrap();
    let opts = ObjectiveOptions::default();
    let f_sgl = objective(
        &result
            .graph_at_iteration(result.trace.len() - 1)
            .expect("trace index in range"),
        &meas,
        &opts,
    )
    .unwrap()
    .total;
    let f_knn = objective(&result.knn_graph, &meas, &opts).unwrap().total;
    assert!(
        f_sgl > f_knn,
        "SGL {f_sgl} should beat unscaled 5NN {f_knn}"
    );
}

#[test]
fn sgl_is_much_sparser_than_5nn() {
    let truth = sgl_datasets::grid2d(12, 12);
    let meas = Measurements::generate(&truth, 40, 2).unwrap();
    let result = Sgl::new(SglConfig::default().with_tol(1e-9).with_max_iterations(150))
        .learn(&meas)
        .unwrap();
    let (knn, factor) = knn_baseline(&meas, 5).unwrap();
    assert!(factor.is_some());
    assert!(
        knn.density() > 2.0 * result.density(),
        "kNN {} vs SGL {}",
        knn.density(),
        result.density()
    );
}

#[test]
fn sgl_tracks_the_dense_optimizer() {
    // On a small instance, run the O(N³)-per-iteration dense estimator
    // seeded with the same kNN candidates. SGL's solution (same candidate
    // pool, greedy stagewise instead of full gradient) should land within
    // a modest gap of the dense reference optimum.
    let truth = sgl_datasets::grid2d(7, 7);
    let meas = Measurements::generate(&truth, 30, 3).unwrap();
    let knn = build_knn_graph(meas.voltages(), 5);

    let dense = DenseGspEstimator::new(DenseGspOptions {
        max_iterations: 150,
        ..DenseGspOptions::default()
    })
    .estimate(&meas, &knn)
    .unwrap();

    let result = Sgl::new(
        SglConfig::default()
            .with_tol(1e-10)
            .with_max_iterations(150),
    )
    .learn_from_knn(&meas, knn)
    .unwrap();

    // Evaluate both under the same (finite-sigma) objective used by the
    // dense estimator.
    let opts = ObjectiveOptions {
        num_eigenvalues: 48,
        sigma_sq: 1e4,
    };
    let f_dense = objective(&dense.graph, &meas, &opts).unwrap().total;
    let f_sgl = objective(
        &result
            .graph_at_iteration(result.trace.len() - 1)
            .expect("trace index in range"),
        &meas,
        &opts,
    )
    .unwrap()
    .total;
    // The dense optimizer may tune weights continuously, so it can edge
    // ahead; SGL must stay within a small absolute gap of it.
    let gap = f_dense - f_sgl;
    assert!(
        gap < 25.0,
        "SGL ({f_sgl}) too far below dense reference ({f_dense})"
    );
}

#[test]
fn l1_pressure_shrinks_total_weight() {
    let truth = sgl_datasets::grid2d(6, 6);
    let meas = Measurements::generate(&truth, 25, 4).unwrap();
    let knn = build_knn_graph(meas.voltages(), 6);
    let total = |g: &sgl_graph::Graph| -> f64 { g.edges().iter().map(|e| e.weight).sum() };
    let run = |beta: f64| {
        DenseGspEstimator::new(DenseGspOptions {
            beta,
            max_iterations: 80,
            ..DenseGspOptions::default()
        })
        .estimate(&meas, &knn)
        .unwrap()
    };
    let free = run(0.0);
    let pressured = run(1.0);
    assert!(
        total(&pressured.graph) < total(&free.graph),
        "l1 pressure should shrink total weight: {} vs {}",
        total(&pressured.graph),
        total(&free.graph)
    );
}
