//! Robustness to measurement noise (the Fig. 9 experiment as an API tour).
//!
//! Voltages are corrupted as `x̃ = x + ζ‖x‖ε̂` at increasing noise levels;
//! SGL still recovers the low spectrum even at ζ = 0.5.
//!
//! Run with: `cargo run --release --example noisy_measurements`

use sgl::prelude::*;
use sgl_core::compare_spectra;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let truth = sgl_datasets::grid2d(25, 25);
    println!("ground truth: {truth}");
    let clean = Measurements::generate(&truth, 50, 1)?;
    let config = SglConfig::default().with_tol(1e-9).with_max_iterations(120);

    println!(
        "\n{:>10} {:>10} {:>12} {:>14}",
        "noise", "density", "corr", "mean_rel_err"
    );
    for zeta in [0.0, 0.1, 0.25, 0.5] {
        let noisy = clean.with_noise(zeta, 123);
        let result = Sgl::new(config.clone()).learn(&noisy)?;
        let cmp = compare_spectra(&truth, &result.graph, 12)?;
        println!(
            "{:>9.0}% {:>10.3} {:>12.4} {:>14.3}",
            zeta * 100.0,
            result.density(),
            cmp.correlation,
            cmp.mean_relative_error
        );
    }
    println!("\nEven heavy noise leaves the first Laplacian eigenvalues intact —");
    println!("they encode global structure that M independent excitations agree on.");
    Ok(())
}
