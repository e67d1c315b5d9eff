//! End-to-end pipeline tests: measurements → SGL → learned graph, with
//! the paper's qualitative claims as assertions.

use sgl::prelude::*;
use sgl_core::{compare_spectra, objective, ObjectiveOptions};
use sgl_graph::traversal::is_connected;

fn config() -> SglConfig {
    SglConfig::default().with_tol(1e-8).with_max_iterations(150)
}

#[test]
fn mesh_learning_preserves_spectrum_at_tree_density() {
    let truth = sgl_datasets::grid2d(15, 15);
    let meas = Measurements::generate(&truth, 40, 1).unwrap();
    let result = Sgl::new(config()).learn(&meas).unwrap();

    assert!(is_connected(&result.graph));
    // Ultra-sparse: close to a spanning tree, far sparser than the truth.
    assert!(
        result.density() < 1.3,
        "density {} should be near 1",
        result.density()
    );
    let cmp = compare_spectra(&truth, &result.graph, 10).unwrap();
    assert!(
        cmp.correlation > 0.93,
        "low-spectrum correlation {}",
        cmp.correlation
    );
}

#[test]
fn fe_mesh_learning_works() {
    let mesh = sgl_datasets::fe_plate_mesh(500, 3);
    let meas = Measurements::generate(&mesh.graph, 40, 2).unwrap();
    let result = Sgl::new(config()).learn(&meas).unwrap();
    assert!(is_connected(&result.graph));
    assert!(result.density() < 1.4);
    let cmp = compare_spectra(&mesh.graph, &result.graph, 8).unwrap();
    assert!(cmp.correlation > 0.9, "correlation {}", cmp.correlation);
}

#[test]
fn circuit_learning_works() {
    let truth = sgl_datasets::circuit_grid(22, 22, 1.9, 5);
    let meas = Measurements::generate(&truth, 40, 3).unwrap();
    let result = Sgl::new(config()).learn(&meas).unwrap();
    assert!(is_connected(&result.graph));
    let cmp = compare_spectra(&truth, &result.graph, 8).unwrap();
    assert!(cmp.correlation > 0.9, "correlation {}", cmp.correlation);
}

#[test]
fn objective_rises_along_the_densification_path() {
    // The core claim of the gradient interpretation (eq. 13): every batch
    // of added edges increases the (unscaled) objective.
    let truth = sgl_datasets::grid2d(10, 10);
    let meas = Measurements::generate(&truth, 30, 4).unwrap();
    let result = Sgl::new(config()).learn(&meas).unwrap();
    assert!(result.trace.len() >= 3);
    let opts = ObjectiveOptions {
        num_eigenvalues: 30,
        ..ObjectiveOptions::default()
    };
    // The sensitivity of eq. 13 is a first-order gradient; a finite edge
    // addition gains log(1 + w·R_eff) < w·R_eff, so tiny dips are
    // possible. Require a clear overall rise with no significant dip.
    let values: Vec<f64> = (0..result.trace.len())
        .step_by(2)
        .map(|i| {
            objective(&result.graph_at_iteration(i).unwrap(), &meas, &opts)
                .unwrap()
                .total
        })
        .collect();
    let first = values[0];
    let last = *values.last().unwrap();
    assert!(
        last > first,
        "objective should rise overall: {first} -> {last}"
    );
    let range = (last - first).abs().max(1e-9);
    for w in values.windows(2) {
        assert!(
            w[1] > w[0] - 0.05 * range,
            "significant objective dip: {} -> {}",
            w[0],
            w[1]
        );
    }
}

#[test]
fn learning_is_deterministic() {
    let truth = sgl_datasets::grid2d(9, 9);
    let meas = Measurements::generate(&truth, 25, 5).unwrap();
    let a = Sgl::new(config()).learn(&meas).unwrap();
    let b = Sgl::new(config()).learn(&meas).unwrap();
    assert_eq!(a.graph.num_edges(), b.graph.num_edges());
    for (ea, eb) in a.graph.edges().iter().zip(b.graph.edges()) {
        assert_eq!((ea.u, ea.v), (eb.u, eb.v));
        assert_eq!(ea.weight, eb.weight);
    }
    assert_eq!(a.trace.len(), b.trace.len());
}

#[test]
fn smax_first_vs_last_decreases() {
    let truth = sgl_datasets::grid2d(12, 12);
    let meas = Measurements::generate(&truth, 30, 6).unwrap();
    let result = Sgl::new(config()).learn(&meas).unwrap();
    let first = result.trace.first().unwrap().smax;
    let last = result.trace.last().unwrap().smax;
    assert!(last < first, "smax should fall: {first} -> {last}");
}
