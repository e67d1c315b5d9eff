//! Figure 9: learning the "2D mesh" graph from noisy voltage
//! measurements, `x̃ = x + ζ ‖x‖ ε̂` for ζ ∈ {0, 0.1, 0.25, 0.5}.
//!
//! Paper result: approximation degrades gracefully with noise; even at
//! ζ = 0.5 the first Laplacian eigenvalues are still preserved.
//!
//! Usage: `fig09_noise [--scale 0.25] [--m 50] [--eigs 25] [--quick]`

use sgl_bench::{banner, fix, sci, Args, Table};
use sgl_core::{smallest_nonzero_eigenvalues, Measurements, Sgl, SglConfig};
use sgl_datasets::grid2d;
use sgl_linalg::vecops::pearson;

fn main() {
    let args = Args::from_env();
    let scale: f64 = args.get("scale", if args.has("quick") { 0.04 } else { 0.25 });
    let m: usize = args.get("m", 50);
    let k_eigs: usize = args.get("eigs", 25);
    let side = ((10_000.0 * scale).sqrt().round() as usize).max(8);
    let truth = grid2d(side, side);
    banner(
        "Figure 9",
        "graphs learned with noisy measurements (2D mesh)",
        &[
            ("|V|", truth.num_nodes().to_string()),
            ("M", m.to_string()),
            ("eigs", k_eigs.to_string()),
        ],
    );

    let clean = Measurements::generate(&truth, m, 7).expect("measurements");
    let true_eigs = smallest_nonzero_eigenvalues(&truth, k_eigs).expect("true eigenvalues");
    let config = SglConfig::default()
        .with_tol(1e-12)
        .with_max_iterations(200);

    let mut summary = Table::new(&["noise_pct", "density", "corr_coef", "mean_rel_err"]);
    for zeta in [0.0, 0.1, 0.25, 0.5] {
        let noisy = clean.with_noise(zeta, 99);
        let result = Sgl::new(config.clone()).learn(&noisy).expect("learning");
        let got = smallest_nonzero_eigenvalues(&result.graph, k_eigs).expect("learned eigenvalues");
        let corr = pearson(&true_eigs, &got);
        let rel = true_eigs
            .iter()
            .zip(&got)
            .map(|(t, g)| (g - t).abs() / t)
            .sum::<f64>()
            / k_eigs as f64;
        let pct = (zeta * 100.0) as usize;
        let mut scatter = Table::new(&["lambda_original", "lambda_learned"]);
        for i in 0..k_eigs {
            scatter.row(&[sci(true_eigs[i]), sci(got[i])]);
        }
        let _ = scatter.write_csv(&format!("fig09_noise_{pct}pct"));
        summary.row(&[
            format!("{pct}%"),
            fix(result.density(), 3),
            fix(corr, 4),
            fix(rel, 4),
        ]);
    }
    summary.print();
    let csv = summary.write_csv("fig09_summary").expect("csv");
    println!();
    println!("paper: even 50% noise preserves the first few eigenvalues");
    println!("series written to {}", csv.display());
}
