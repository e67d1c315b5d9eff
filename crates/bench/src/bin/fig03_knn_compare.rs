//! Figure 3: spectral comparison with the 5NN graph on "fe_4elt2" —
//! eigenvalue scatter (true vs approximated) and graph densities.
//!
//! Paper result: the SGL graph (density 1.09) tracks the true eigenvalues
//! closely; the 5NN graph (density 2.89) overshoots them badly.
//!
//! Usage: `fig03_knn_compare [--scale 0.3] [--m 50] [--eigs 30] [--quick]`

use sgl_baseline::knn_baseline;
use sgl_bench::{banner, sci, Args, Table};
use sgl_core::{smallest_nonzero_eigenvalues, Measurements, Sgl, SglConfig};
use sgl_datasets::TestCase;
use sgl_linalg::vecops::pearson;

fn main() {
    let args = Args::from_env();
    let scale: f64 = args.get("scale", if args.has("quick") { 0.04 } else { 0.3 });
    let m: usize = args.get("m", 50);
    let k_eigs: usize = args.get("eigs", 30);
    let truth = TestCase::Fe4elt2.generate_scaled(scale, 11);
    banner(
        "Figure 3",
        "eigenvalue scatter: SGL vs 5NN (fe_4elt2)",
        &[
            ("|V|", truth.num_nodes().to_string()),
            ("|E|", truth.num_edges().to_string()),
            ("M", m.to_string()),
            ("eigs", k_eigs.to_string()),
        ],
    );

    let meas = Measurements::generate(&truth, m, 7).expect("measurements");
    let sgl = Sgl::new(
        SglConfig::default()
            .with_tol(1e-12)
            .with_max_iterations(200),
    )
    .learn(&meas)
    .expect("learning");
    let (knn, _) = knn_baseline(&meas, 5).expect("5NN baseline");

    let true_eigs = smallest_nonzero_eigenvalues(&truth, k_eigs).expect("true eigs");
    let sgl_eigs = smallest_nonzero_eigenvalues(&sgl.graph, k_eigs).expect("sgl eigs");
    let knn_eigs = smallest_nonzero_eigenvalues(&knn, k_eigs).expect("knn eigs");

    let mut table = Table::new(&["index", "lambda_true", "lambda_sgl", "lambda_5nn"]);
    for i in 0..k_eigs {
        table.row(&[
            (i + 2).to_string(),
            sci(true_eigs[i]),
            sci(sgl_eigs[i]),
            sci(knn_eigs[i]),
        ]);
    }
    table.print();
    let csv = table.write_csv("fig03_knn_compare").expect("csv");

    println!();
    println!(
        "correlation with true spectrum: SGL {:.4}, 5NN {:.4}",
        pearson(&true_eigs, &sgl_eigs),
        pearson(&true_eigs, &knn_eigs)
    );
    let rel = |a: &[f64], b: &[f64]| {
        a.iter().zip(b).map(|(x, y)| (y - x).abs() / x).sum::<f64>() / a.len() as f64
    };
    println!(
        "mean relative eigenvalue error: SGL {:.3}, 5NN {:.3}",
        rel(&true_eigs, &sgl_eigs),
        rel(&true_eigs, &knn_eigs)
    );
    println!(
        "densities: SGL {:.3} vs 5NN {:.3}  (paper: 1.09 vs 2.89)",
        sgl.density(),
        knn.density()
    );
    println!("series written to {}", csv.display());
}
