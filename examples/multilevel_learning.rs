//! Multilevel learning: coarsen, learn small, prolong, refine — and
//! prune with effective-resistance sampling.
//!
//! Run with: `cargo run --release --example multilevel_learning`

use sgl::prelude::*;
use sgl_core::compare_spectra;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Ground truth: a 40×40 resistor mesh, measured 30 times.
    let truth = sgl_datasets::grid2d(40, 40);
    let meas = Measurements::generate(&truth, 30, 42)?;
    println!("ground truth    : {truth}");

    let cfg = SglConfig::builder()
        .tol(1e-6)
        .max_iterations(200)
        .coarsening_ratio(0.6) // shrink to ≤ 60% of the nodes per level
        .max_levels(6)
        .build()?;

    // Flat reference: the ordinary one-shot learner.
    let t0 = std::time::Instant::now();
    let flat = Sgl::new(cfg.clone()).learn(&meas)?;
    let flat_wall = t0.elapsed().as_secs_f64();
    println!(
        "flat learn      : {} in {:.2}s, {} PCG iterations",
        flat.graph, flat_wall, flat.solver_stats.iterations
    );

    // Multilevel: learn once on ≤ 256 nodes, prolong + refine upward.
    let mut opts = MultilevelOptions::default();
    opts.hierarchy.coarsest_size = 256;
    let t0 = std::time::Instant::now();
    let multi = learn_multilevel(&cfg, &meas, &opts)?;
    let multi_wall = t0.elapsed().as_secs_f64();
    println!(
        "multilevel      : {} in {:.2}s, {} PCG iterations",
        multi.graph, multi_wall, multi.solver_stats.iterations
    );
    println!("hierarchy       : {:?} nodes per level", multi.level_sizes);
    for r in &multi.reports {
        println!(
            "  level {}: {} nodes, {} edges (+{} densified, -{} pruned)",
            r.level, r.nodes, r.edges, r.edges_densified, r.edges_pruned
        );
    }

    // The two learners should agree spectrally.
    let cmp = compare_spectra(&flat.graph, &multi.graph, 8)?;
    println!(
        "spectrum vs flat: correlation {:.4}, mean relative error {:.3}",
        cmp.correlation, cmp.mean_relative_error
    );

    // Standalone resistance sparsification: prune the flat result's kNN
    // graph down to 2.2 edges/node while keeping the low spectrum within
    // a 30% band.
    let opts = SparsifyOptions {
        max_relative_error: 0.3,
        ..SparsifyOptions::default()
    };
    let sparse = sparsify_by_resistance(&flat.knn_graph, 2.2, &opts)?;
    println!(
        "sparsified kNN  : {} -> {} edges (spectral error {:.3}, within tolerance: {})",
        flat.knn_graph.num_edges(),
        sparse.graph.num_edges(),
        sparse
            .spectral
            .as_ref()
            .map_or(0.0, |c| c.mean_relative_error),
        sparse.within_tolerance
    );
    Ok(())
}
