//! Reduced-network learning (the Fig. 8 experiment): learn a 5–10×
//! smaller spectrally-similar resistor network from a random subset of
//! node voltages, with no current measurements at all.
//!
//! Run with: `cargo run --release --example network_reduction`

use sgl::prelude::*;
use sgl_core::{learn_reduced, smallest_nonzero_eigenvalues};
use sgl_linalg::vecops;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A circuit-style network of ~2.5k nodes.
    let truth = sgl_datasets::circuit_grid(50, 50, 1.92, 4);
    println!("original network: {truth}");

    let measurements = Measurements::generate(&truth, 80, 2)?;
    let config = SglConfig::default().with_tol(1e-9).with_max_iterations(120);
    let true_eigs = smallest_nonzero_eigenvalues(&truth, 12)?;

    for fraction in [0.2, 0.1] {
        let red = learn_reduced(&measurements, fraction, &config, 7)?;
        let red_eigs = smallest_nonzero_eigenvalues(&red.result.graph, 12)?;
        println!(
            "\n{:.0}% of node voltages -> {} ({:.1}x smaller)",
            fraction * 100.0,
            red.result.graph,
            red.reduction_ratio
        );
        println!(
            "  eigenvalue shape correlation vs original: {:.4}",
            vecops::pearson(&true_eigs, &red_eigs)
        );
        println!(
            "  kept nodes (first 8): {:?} ...",
            &red.node_indices[..8.min(red.node_indices.len())]
        );
    }
    println!("\nThe reduced models keep the original's global (spectral) structure,");
    println!("usable for coarse-grained simulation or hierarchical analysis.");
    Ok(())
}
