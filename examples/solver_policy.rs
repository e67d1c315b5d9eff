//! The unified solver-context API: choose how every Laplacian solve in
//! the pipeline runs — method, tolerance, iteration cap — from configuration,
//! and go entirely solver-free with the SF-SGL strategy and its spectral
//! sketch.
//!
//! Run with: `cargo run --release --example solver_policy`

use sgl::prelude::*;
use sgl_core::{pairwise_effective_resistances, sample_node_pairs, PolicyMethod, SolverPolicy};
use sgl_linalg::vecops;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let truth = sgl_datasets::fe_plate_mesh(150, 7).graph;
    println!("ground truth    : {truth}");

    // --- 1. Policy-driven measurement generation -------------------------
    // The same policy type controls standalone utilities: here the
    // ground-truth solves run on the exact dense Cholesky reference
    // (small N), batched into a single solve_batch call.
    let gen_policy = SolverPolicy::default().with_method(PolicyMethod::DenseCholesky);
    let measurements = Measurements::generate_with(&truth, 40, 42, &gen_policy)?;
    println!(
        "measurements    : {} nodes x {} excitations (dense Cholesky reference)",
        measurements.num_nodes(),
        measurements.num_measurements()
    );

    // --- 2. Method selection through the config builder -----------------
    // Every solve the session performs (edge scaling, any shift-invert
    // fallback, exact resistances) honors this policy; the session
    // builds ONE handle per learned-graph revision and shares it.
    let cfg = SglConfig::builder()
        .tol(1e-7)
        .max_iterations(100)
        .solver_method(PolicyMethod::AmgPcg)
        .solver_rtol(1e-10)
        .build()?;
    let mut session = SglSession::new(cfg, &measurements)?;
    session.run_to_completion()?;
    // The solver strategy's resistance estimator (ExactSolve) draws the
    // session's shared handle; a second request on the same revision
    // reuses it.
    let exact = session.resistance_estimator()?;
    let sample = sample_node_pairs(truth.num_nodes(), 20, 3);
    let _ = exact.resistances(&sample)?;
    drop(exact);
    session.resistance_estimator()?;
    let ctx = session.solver_context();
    let stats = ctx.current_handle().expect("handle built above").stats();
    println!(
        "amg-pcg session : policy {:?}, handles built: {} (shared across requests)",
        ctx.policy().method,
        ctx.handles_built()
    );
    println!(
        "handle stats    : {} RHS in {} batched call(s), {} PCG iterations",
        stats.solves, stats.batches, stats.iterations
    );
    let result = session.finish()?;
    println!(
        "learned graph   : {} ({} iterations, converged: {})",
        result.graph,
        result.trace.len(),
        result.converged
    );

    // --- 3. The solver-free mode ----------------------------------------
    // With voltage-only measurements and the solver-free strategy (whose
    // resistance estimator is the spectral sketch), the entire learning
    // loop runs without constructing a Laplacian solver at all (the
    // SF-SGL observation).
    let volts = Measurements::from_voltages(measurements.voltages().clone())?;
    let cfg = SglConfig::builder()
        .tol(1e-7)
        .max_iterations(100)
        .strategy(LearnStrategyKind::SolverFree)
        .build()?;
    let mut session = SglSession::new(cfg, &volts)?;
    session.run_to_completion()?;

    let estimator = session.resistance_estimator()?;
    let pairs = sample_node_pairs(truth.num_nodes(), 50, 9);
    let learned_r = estimator.resistances(&pairs)?;
    let true_r = pairwise_effective_resistances(&truth, &pairs)?;
    println!(
        "solver-free run : estimator `{}`, handles built: {} (solver-free!)",
        estimator.name(),
        session.solver_context().handles_built()
    );
    println!(
        "ER preservation : correlation {:.4} over {} node pairs",
        vecops::pearson(&true_r, &learned_r),
        pairs.len()
    );
    Ok(())
}
