//! Identify a power-delivery-network-style resistor grid from port
//! measurements — the EDA use case motivating the paper.
//!
//! A circuit-style grid with log-uniform conductances (the `G2_circuit`
//! class) is measured with random current excitations; SGL recovers an
//! ultra-sparse electrically-equivalent model. We check the model three
//! ways: spectrum preservation, effective-resistance preservation, and
//! voltage-prediction error on *held-out* excitations.
//!
//! Run with: `cargo run --release --example power_grid_identification`

use sgl::prelude::*;
use sgl_core::{compare_spectra, pairwise_effective_resistances, sample_node_pairs, SolverPolicy};
use sgl_linalg::vecops;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A 40×40 power-grid-like network at G2_circuit density (1.92).
    let truth = sgl_datasets::circuit_grid(40, 40, 1.92, 9);
    println!("power grid    : {truth}");

    let measurements = Measurements::generate(&truth, 50, 3)?;
    let result = Sgl::new(
        SglConfig::default()
            .with_tol(1e-10)
            .with_max_iterations(150),
    )
    .learn(&measurements)?;
    println!("learned model : {}", result.graph);

    // Spectral fidelity.
    let cmp = compare_spectra(&truth, &result.graph, 15)?;
    println!(
        "spectrum      : correlation {:.4}, mean rel err {:.3}",
        cmp.correlation, cmp.mean_relative_error
    );

    // Effective-resistance fidelity on random node pairs (what an IR-drop
    // analysis would query).
    let pairs = sample_node_pairs(truth.num_nodes(), 200, 5);
    let r_true = pairwise_effective_resistances(&truth, &pairs)?;
    let r_model = pairwise_effective_resistances(&result.graph, &pairs)?;
    println!(
        "eff. resist.  : correlation {:.4}",
        vecops::pearson(&r_true, &r_model)
    );

    // Held-out voltage prediction: excite both networks with FRESH
    // currents and compare responses.
    let holdout = Measurements::generate(&truth, 10, 777)?;
    let model_solver = SolverPolicy::default().build_handle(&result.graph)?;
    let mut rel_err_sum = 0.0;
    for i in 0..holdout.num_measurements() {
        let y = holdout.currents().expect("currents").column(i);
        let v_true = holdout.voltage_vector(i);
        let v_model = model_solver.solve(&y)?;
        let diff = vecops::sub(&v_model, &v_true);
        rel_err_sum += vecops::norm2(&diff) / vecops::norm2(&v_true);
    }
    println!(
        "held-out volt : mean relative error {:.3} over 10 fresh excitations",
        rel_err_sum / 10.0
    );
    println!(
        "compression   : {} -> {} edges ({:.1}% kept)",
        truth.num_edges(),
        result.graph.num_edges(),
        100.0 * result.graph.num_edges() as f64 / truth.num_edges() as f64
    );
    Ok(())
}
