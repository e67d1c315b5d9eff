//! Figure 8: reduced networks learned from 20% / 10% of node voltages on
//! the "G2_circuit" graph.
//!
//! Paper result: 5× and 10× smaller resistor networks whose eigenvalue
//! scatters against the original correlate at 0.999 and 0.994.
//!
//! Usage: `fig08_reduction [--scale 0.05] [--m 100] [--eigs 25] [--quick]`

use sgl_bench::{banner, fix, sci, Args, Table};
use sgl_core::{learn_reduced, smallest_nonzero_eigenvalues, Measurements, SglConfig};
use sgl_datasets::TestCase;
use sgl_linalg::vecops::pearson;

fn main() {
    let args = Args::from_env();
    let scale: f64 = args.get("scale", if args.has("quick") { 0.015 } else { 0.05 });
    let m: usize = args.get("m", 100);
    let k_eigs: usize = args.get("eigs", 25);
    let truth = TestCase::G2Circuit.generate_scaled(scale, 11);
    banner(
        "Figure 8",
        "reduced networks from partial node voltages (G2_circuit)",
        &[
            ("|V|", truth.num_nodes().to_string()),
            ("|E|", truth.num_edges().to_string()),
            ("M", m.to_string()),
        ],
    );

    let meas = Measurements::generate(&truth, m, 7).expect("measurements");
    let config = SglConfig::default()
        .with_tol(1e-12)
        .with_max_iterations(150);
    let true_eigs = smallest_nonzero_eigenvalues(&truth, k_eigs).expect("true eigenvalues");

    let mut summary = Table::new(&[
        "fraction",
        "nodes",
        "edges",
        "reduction",
        "density",
        "corr_coef",
    ]);
    for fraction in [0.2, 0.1] {
        let red = learn_reduced(&meas, fraction, &config, 5).expect("reduction");
        let red_eigs =
            smallest_nonzero_eigenvalues(&red.result.graph, k_eigs).expect("reduced eigenvalues");
        // The reduced graph lives on fewer nodes: compare eigenvalue
        // *shape* via Pearson correlation, as the paper's scatter does.
        let corr = pearson(&true_eigs, &red_eigs);
        let mut scatter = Table::new(&["lambda_original", "lambda_reduced"]);
        for i in 0..k_eigs {
            scatter.row(&[sci(true_eigs[i]), sci(red_eigs[i])]);
        }
        let pct = (fraction * 100.0) as usize;
        let csv = scatter
            .write_csv(&format!("fig08_reduction_{pct}pct"))
            .expect("csv");
        println!("{pct}% voltages: scatter -> {}", csv.display());
        summary.row(&[
            format!("{pct}%"),
            red.result.graph.num_nodes().to_string(),
            red.result.graph.num_edges().to_string(),
            format!("{:.1}x", red.reduction_ratio),
            fix(red.result.density(), 3),
            fix(corr, 4),
        ]);
    }
    println!();
    summary.print();
    let _ = summary.write_csv("fig08_summary");
    println!();
    println!("paper: 30K/31K (5x) at corr 0.999 and 15K/16K (10x) at corr 0.994");
}
