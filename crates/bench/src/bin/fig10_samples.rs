//! Figure 10: effect of the number of measurements on learning quality
//! ("fe_4elt2", M ∈ {5, 10, 25, 50}).
//!
//! Paper result: more samples → tighter eigenvalue scatter, consistent
//! with the O(log N) sample-complexity analysis of §II.D.
//!
//! Usage: `fig10_samples [--scale 0.15] [--eigs 25] [--quick]`

use sgl_bench::{banner, fix, sci, Args, Table};
use sgl_core::{smallest_nonzero_eigenvalues, Measurements, Sgl, SglConfig};
use sgl_datasets::TestCase;
use sgl_linalg::vecops::pearson;

fn main() {
    let args = Args::from_env();
    let scale: f64 = args.get("scale", if args.has("quick") { 0.03 } else { 0.15 });
    let k_eigs: usize = args.get("eigs", 25);
    let truth = TestCase::Fe4elt2.generate_scaled(scale, 11);
    banner(
        "Figure 10",
        "effect of the number of measurements (fe_4elt2)",
        &[
            ("|V|", truth.num_nodes().to_string()),
            ("eigs", k_eigs.to_string()),
        ],
    );

    let true_eigs = smallest_nonzero_eigenvalues(&truth, k_eigs).expect("true eigenvalues");
    let config = SglConfig::default()
        .with_tol(1e-12)
        .with_max_iterations(200);

    let mut summary = Table::new(&["measurements", "density", "corr_coef", "mean_rel_err"]);
    for m in [5usize, 10, 25, 50] {
        let meas = Measurements::generate(&truth, m, 7).expect("measurements");
        let result = Sgl::new(config.clone()).learn(&meas).expect("learning");
        let got = smallest_nonzero_eigenvalues(&result.graph, k_eigs).expect("learned eigenvalues");
        let corr = pearson(&true_eigs, &got);
        let rel = true_eigs
            .iter()
            .zip(&got)
            .map(|(t, g)| (g - t).abs() / t)
            .sum::<f64>()
            / k_eigs as f64;
        let mut scatter = Table::new(&["lambda_original", "lambda_learned"]);
        for i in 0..k_eigs {
            scatter.row(&[sci(true_eigs[i]), sci(got[i])]);
        }
        let _ = scatter.write_csv(&format!("fig10_samples_m{m}"));
        summary.row(&[
            m.to_string(),
            fix(result.density(), 3),
            fix(corr, 4),
            fix(rel, 4),
        ]);
    }
    summary.print();
    let csv = summary.write_csv("fig10_summary").expect("csv");
    println!();
    println!("paper: scatter tightens substantially from M = 5 to M = 50");
    println!("series written to {}", csv.display());
}
