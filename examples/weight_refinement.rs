//! Edge-weight refinement (an extension beyond the paper): after SGL's
//! densification fixes the topology, a few multiplicative fixed-point
//! sweeps push every edge toward the η = 1 stationarity condition of
//! eq. (14), tightening the spectral and effective-resistance match.
//! The result is exported as a Matrix Market file ready for SPICE-style
//! consumption.
//!
//! Run with: `cargo run --release --example weight_refinement`

use sgl::prelude::*;
use sgl_core::{
    compare_spectra, pairwise_effective_resistances, refine_weights, sample_node_pairs,
    spectral_edge_scaling, RefineOptions,
};
use sgl_linalg::vecops;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let truth = sgl_datasets::grid2d(18, 18);
    let meas = Measurements::generate(&truth, 40, 6)?;
    let result =
        Sgl::new(SglConfig::default().with_tol(1e-9).with_max_iterations(120)).learn(&meas)?;

    let pairs = sample_node_pairs(truth.num_nodes(), 150, 3);
    let r_true = pairwise_effective_resistances(&truth, &pairs)?;
    let report = |label: &str, g: &sgl_graph::Graph| -> Result<(), Box<dyn std::error::Error>> {
        let cmp = compare_spectra(&truth, g, 10)?;
        let r = pairwise_effective_resistances(g, &pairs)?;
        println!(
            "{label:<11} eig corr {:.4}  eig rel-err {:.3}  ER corr {:.4}",
            cmp.correlation,
            cmp.mean_relative_error,
            vecops::pearson(&r_true, &r)
        );
        Ok(())
    };

    println!("graph: {}\n", result.graph);
    report("learned", &result.graph)?;

    // Refine weights toward the eta = 1 fixed point, then re-calibrate.
    let mut refined = result.graph.clone();
    let trace = refine_weights(&mut refined, &meas, &RefineOptions::default())?;
    spectral_edge_scaling(&mut refined, &meas)?;
    report("refined", &refined)?;

    println!("\ndistortion trace (mean |log eta| per round):");
    for r in &trace {
        println!(
            "  round {}: mean {:.4}  max {:.4}",
            r.round, r.mean_log_distortion, r.max_log_distortion
        );
    }

    // Export for downstream tools.
    let out = std::path::Path::new("target").join("repro");
    std::fs::create_dir_all(&out)?;
    let path = out.join("refined_network.mtx");
    sgl_graph::io::write_matrix_market(std::fs::File::create(&path)?, &refined)?;
    println!("\nrefined network written to {}", path.display());
    Ok(())
}
