//! Figure 11: runtime scalability of SGL (Steps 2–5, excluding kNN
//! construction) over growing 2-D meshes.
//!
//! The paper plots near-linear runtime growth in the node count. We time
//! `Sgl::learn_from_knn` (Steps 2–5 exactly — the kNN graph is built
//! outside the timer) over a mesh-size sweep and report seconds and
//! normalized seconds per node and per iteration.
//!
//! Usage: `fig11_scalability [--m 50] [--iters 10] [--max-side 140] [--quick]`

use sgl_bench::{banner, fix, time, Args, Table};
use sgl_core::{Measurements, Sgl, SglConfig};
use sgl_datasets::grid2d;
use sgl_knn::build_knn_graph;

fn main() {
    let args = Args::from_env();
    let m: usize = args.get("m", 50);
    let iters: usize = args.get("iters", 10);
    let max_side: usize = args.get("max-side", if args.has("quick") { 40 } else { 140 });
    banner(
        "Figure 11",
        "runtime scalability of SGL (excluding kNN construction)",
        &[
            ("M", m.to_string()),
            ("iterations_timed", iters.to_string()),
            ("max_side", max_side.to_string()),
        ],
    );

    // Fixed iteration budget isolates per-iteration scaling from
    // convergence-length differences across sizes.
    let config = SglConfig::default()
        .with_tol(0.0)
        .with_max_iterations(iters)
        .with_scale_edges(true);

    let sides: Vec<usize> = [20usize, 30, 40, 60, 80, 100, 120, 140]
        .into_iter()
        .filter(|&s| s <= max_side)
        .collect();
    let mut table = Table::new(&[
        "nodes",
        "edges_knn",
        "seconds",
        "sec_per_iter",
        "usec_per_node_iter",
    ]);
    for side in sides {
        let truth = grid2d(side, side);
        let n = truth.num_nodes();
        let meas = Measurements::generate(&truth, m, 7).expect("measurements");
        let knn = build_knn_graph(meas.voltages(), 5);
        let edges_knn = knn.num_edges();
        let (result, secs) = time(|| {
            Sgl::new(config.clone())
                .learn_from_knn(&meas, knn)
                .expect("learning")
        });
        let per_iter = secs / result.trace.len().max(1) as f64;
        table.row(&[
            n.to_string(),
            edges_knn.to_string(),
            fix(secs, 3),
            fix(per_iter, 4),
            fix(per_iter / n as f64 * 1e6, 3),
        ]);
    }
    table.print();
    let csv = table.write_csv("fig11_scalability").expect("csv");
    println!();
    println!("paper: runtime grows nearly linearly with node count;");
    println!("the last column (µs per node-iteration) should stay roughly flat");
    println!("series written to {}", csv.display());
}
