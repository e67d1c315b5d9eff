//! Resilience: checkpoint/resume, deterministic fault injection, and
//! graceful degradation, end to end.
//!
//! Three acts:
//!
//! 1. **Checkpoint/resume** — interrupt a learning session mid-loop,
//!    save it to disk, restore, and verify the resumed run learns a
//!    graph bit-identical to the uninterrupted one.
//! 2. **Faulted learning** — rerun the same learn with a [`FaultPlan`]
//!    forcing a PCG stagnation; the session invalidates its solver
//!    handle and retries the step on a fresh one, and the learned graph
//!    matches the fault-free run.
//! 3. **Degraded serving** — serve the model through an injected writer
//!    panic; the supervised writer restarts from accumulated
//!    measurements, the reader keeps answering, and no measurement
//!    column is lost.
//!
//! Run with: `cargo run --release --example resilience`

use std::sync::Arc;

use sgl::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let truth = sgl_datasets::grid2d(9, 9);
    let meas = Measurements::generate(&truth, 20, 5)?;
    // A tight eigensolver budget keeps the embedding on the
    // shift-invert solver path, so the fault plan has real solver
    // traffic to fire on.
    let cfg = SglConfig::builder()
        .tol(1e-6)
        .max_iterations(80)
        .eig_tol(1e-12)
        .eig_max_iter(2)
        .build()?;

    // ---- Act 1: checkpoint/resume -------------------------------------
    let mut live = SglSession::from_owned(cfg.clone(), meas.clone())?;
    for _ in 0..3 {
        live.step()?;
    }
    let path = std::env::temp_dir().join(format!("sgl-resilience-{}.sglck", std::process::id()));
    live.checkpoint(&path)?;
    println!(
        "checkpoint      : {} iterations saved to {}",
        live.trace().len(),
        path.display()
    );
    let mut restored = SglSession::restore(&path, cfg.clone())?;
    std::fs::remove_file(&path).ok();
    live.run_to_completion()?;
    restored.run_to_completion()?;
    let uninterrupted = live.finish()?;
    let resumed = restored.finish()?;
    let identical = uninterrupted.graph.num_edges() == resumed.graph.num_edges()
        && uninterrupted
            .graph
            .edges()
            .iter()
            .zip(resumed.graph.edges())
            .all(|(a, b)| (a.u, a.v) == (b.u, b.v) && a.weight.to_bits() == b.weight.to_bits());
    println!(
        "resume          : {} edges, bit-identical to uninterrupted run: {identical}",
        resumed.graph.num_edges()
    );
    assert!(identical, "resumed run diverged from the uninterrupted one");

    // ---- Act 2: faulted learning --------------------------------------
    let plan = Arc::new(FaultPlan::new().with_fault(FaultKind::PcgStagnation, 0));
    let mut faulted = SglSession::from_owned(cfg.clone(), meas)?;
    faulted.set_fault_plan(Arc::clone(&plan));
    faulted.run_to_completion()?;
    let faulted = faulted.finish()?;
    for event in plan.injected() {
        println!(
            "fault injected  : {} at opportunity {}",
            event.kind.as_str(),
            event.opportunity
        );
    }
    println!(
        "recovery        : {} strategy fallbacks, converged: {}",
        faulted.fallbacks_taken, faulted.converged,
    );
    let max_drift = uninterrupted
        .graph
        .edges()
        .iter()
        .zip(faulted.graph.edges())
        .map(|(a, b)| (a.weight - b.weight).abs() / a.weight.abs().max(1.0))
        .fold(0.0f64, f64::max);
    println!("fault drift     : max relative weight drift {max_drift:.3e} vs fault-free run");
    assert!(max_drift <= 1e-6, "faulted run drifted past 1e-6");

    // ---- Act 3: degraded serving --------------------------------------
    let cfg_serve = SglConfig::builder()
        .k(4)
        .r(4)
        .tol(0.0)
        .max_iterations(3)
        .build()?;
    let mut session = SglSession::from_owned(cfg_serve, Measurements::generate(&truth, 12, 3)?)?;
    session.run_to_completion()?;
    let serve_plan = Arc::new(FaultPlan::new().with_fault(FaultKind::WriterPanic, 0));
    let opts = ServeOptions {
        fault_plan: Some(Arc::clone(&serve_plan)),
        ..ServeOptions::default()
    };
    let server = SglServer::new(session, opts)?;
    let reader = server.handle();

    let before = reader.resistances(&[(0, 80)])?;
    // This ingest trips the injected writer panic; the supervisor
    // rebuilds the session and republishes.
    server.ingest(Measurements::generate(&truth, 5, 8)?)?;
    server.flush()?;
    let after = reader.resistances(&[(0, 80)])?;
    let stats = server.stats();
    println!(
        "serving         : v{} -> v{} across an injected writer panic ({} restart)",
        before.version, after.version, stats.writer_restarts
    );
    assert_eq!(stats.writer_restarts, 1);

    let session = server.shutdown()?;
    println!(
        "handoff         : {} measurement columns survived the restart",
        session.measurements().num_measurements()
    );
    assert_eq!(session.measurements().num_measurements(), 17);
    println!("all resilience contracts held");
    Ok(())
}
