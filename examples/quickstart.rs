//! Quickstart: learn a resistor network back from simulated measurements.
//!
//! Run with: `cargo run --release --example quickstart`

use sgl::prelude::*;
use sgl_core::compare_spectra;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Ground truth: a 20×20 resistor mesh (unit conductances).
    let truth = sgl_datasets::grid2d(20, 20);
    println!("ground truth   : {truth}");

    // 2. Simulate M = 30 measurement pairs: random unit currents pushed
    //    through the network, voltages read back (paper §III.A).
    let measurements = Measurements::generate(&truth, 30, 42)?;
    println!(
        "measurements   : {} nodes x {} excitations",
        measurements.num_nodes(),
        measurements.num_measurements()
    );

    // 3. Learn an ultra-sparse network from the measurements alone.
    let config = SglConfig::default().with_tol(1e-9).with_max_iterations(120);
    let result = Sgl::new(config).learn(&measurements)?;
    println!("learned graph  : {}", result.graph);
    println!(
        "iterations     : {} (converged: {})",
        result.trace.len(),
        result.converged
    );
    if let Some(f) = result.scale_factor {
        println!("edge scaling   : x{f:.4}");
    }

    // 4. How well does the learned graph preserve the true spectrum?
    let cmp = compare_spectra(&truth, &result.graph, 10)?;
    println!(
        "spectrum       : correlation {:.4}, mean relative error {:.3}",
        cmp.correlation, cmp.mean_relative_error
    );
    println!(
        "densities      : truth {:.2} -> kNN {:.2} -> learned {:.2}",
        truth.density(),
        result.knn_graph.density(),
        result.density()
    );
    Ok(())
}
