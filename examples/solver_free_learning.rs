//! Solver-free spectral graph learning (SF-SGL): the whole SGL loop —
//! embedding, sensitivity scoring, effective resistances, Step-5 edge
//! scaling — as pure matvec arithmetic, with never a Laplacian
//! factorization or solver handle. Runs the solver and solver-free
//! strategies side by side on the same measurements and compares the
//! learned spectra.
//!
//! Run with: `cargo run --release --example solver_free_learning`

use sgl::prelude::*;
use sgl_core::compare_spectra;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Ground truth and simulated measurements, as in the quickstart.
    let truth = sgl_datasets::grid2d(12, 12);
    let meas = Measurements::generate(&truth, 30, 11)?;
    println!("ground truth : {truth}");

    // The strategy is plain config: `LearnStrategyKind::SolverFree` runs
    // in every entry point (Sgl, SglSession, learn_multilevel, the
    // serving writer) with no setup call.
    let cfg = |strategy| {
        SglConfig::builder()
            .tol(1e-4)
            .max_iterations(40)
            .strategy(strategy)
            .build()
    };

    // --- Arm A: the classic solver-backed loop ---------------------------
    let solver = Sgl::new(cfg(LearnStrategyKind::Solver)?).learn(&meas)?;
    println!(
        "solver arm   : {} ({} iterations, {} Laplacian solves)",
        solver.graph,
        solver.trace.len(),
        solver.solver_stats.solves
    );

    // --- Arm B: solver-free (SF-SGL) -------------------------------------
    // Same config, different strategy: banded multilevel embeddings, a
    // diagonally-scaled CG recurrence for Step 5, truncated-spectrum
    // resistances. Drive a session so the solver context is observable.
    let mut session = SglSession::new(cfg(LearnStrategyKind::SolverFree)?, &meas)?;
    session.run_to_completion()?;
    let handles = session.solver_context().handles_built();
    assert_eq!(handles, 0);
    let free = session.finish()?;
    assert_eq!(free.solver_stats.solves, 0);
    println!(
        "solver-free  : {} ({} iterations, {} solves, {} handles — SF-SGL)",
        free.graph,
        free.trace.len(),
        free.solver_stats.solves,
        handles
    );

    // --- Agreement --------------------------------------------------------
    // The two arms learn the same structure: first-6 eigenvalues within
    // a few percent, correlation ≥ 0.99 (the tracked bench_learn gate).
    let cmp = compare_spectra(&solver.graph, &free.graph, 6)?;
    println!(
        "agreement    : first-6 eigenvalue mean relative error {:.4}, correlation {:.4}",
        cmp.mean_relative_error, cmp.correlation
    );
    assert!(cmp.correlation > 0.99 && cmp.mean_relative_error < 0.05);

    // Determinism rides along: the solver-free path runs band-parallel
    // through the deterministic par layer, so any thread count learns a
    // bit-identical graph.
    let serial = Sgl::new(cfg(LearnStrategyKind::SolverFree)?.with_parallelism(1)).learn(&meas)?;
    let parallel =
        Sgl::new(cfg(LearnStrategyKind::SolverFree)?.with_parallelism(4)).learn(&meas)?;
    for (a, b) in serial.graph.edges().iter().zip(parallel.graph.edges()) {
        assert_eq!(a.weight.to_bits(), b.weight.to_bits());
    }
    println!("determinism  : bit-identical at 1 and 4 threads ✓");
    Ok(())
}
