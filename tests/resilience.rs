//! Cross-crate resilience contract: injected faults are recovered, not
//! fatal — and recovery never silently changes what is learned. A
//! faulted run converges to the fault-free run's graph bit for bit,
//! faulted runs stay bit-identical across thread counts (fault
//! opportunities tick on the serial control path), a killed writer
//! restarts without torn reads, a checkpointed session resumes
//! bit-identically, and a quarantined ingest batch never perturbs the
//! session.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use sgl::prelude::*;
use sgl_linalg::DenseMatrix;

/// The targeted solver-fault schedule used across these tests: one PCG
/// stagnation at the first solve, which the session recovers from by
/// retrying the step on a fresh handle.
fn solver_faults() -> Arc<FaultPlan> {
    Arc::new(FaultPlan::new().with_fault(FaultKind::PcgStagnation, 0))
}

/// A config whose embedding deterministically stalls LOBPCG (tight
/// tolerance, tiny iteration budget) so every step goes through the
/// shift-invert solver path — the in-loop solver traffic the fault
/// schedule needs opportunities on.
fn solver_heavy_config(parallelism: usize) -> SglConfig {
    SglConfig::builder()
        .tol(1e-6)
        .max_iterations(80)
        .eig_tol(1e-12)
        .eig_max_iter(2)
        .parallelism(parallelism)
        .build()
        .unwrap()
}

fn learn(parallelism: usize, faults: Option<Arc<FaultPlan>>) -> LearnResult {
    let truth = sgl_datasets::grid2d(9, 9);
    let meas = Measurements::generate(&truth, 20, 5).unwrap();
    let mut session = SglSession::from_owned(solver_heavy_config(parallelism), meas).unwrap();
    if let Some(plan) = faults {
        session.set_fault_plan(plan);
    }
    session.run_to_completion().unwrap();
    session.finish().unwrap()
}

fn assert_same_topology(a: &Graph, b: &Graph, what: &str) {
    let key = |g: &Graph| {
        let mut edges: Vec<(usize, usize)> = g.edges().iter().map(|e| (e.u, e.v)).collect();
        edges.sort_unstable();
        edges
    };
    assert_eq!(key(a), key(b), "{what}: edge sets differ");
}

/// The headline recovery contract: a run with an injected PCG
/// stagnation completes, converges, and learns the fault-free graph bit
/// for bit. The session retries the failed step on a fresh handle for
/// the same graph under the same policy, which solves exactly as the
/// fault-free run's handle does.
#[test]
fn faulted_run_recovers_to_the_fault_free_graph() {
    let clean = learn(1, None);
    let plan = solver_faults();
    let faulted = learn(1, Some(Arc::clone(&plan)));

    // The schedule actually fired and the recovery machinery engaged.
    assert_eq!(
        plan.injected_count(),
        1,
        "faults fired: {:?}",
        plan.injected()
    );
    assert_eq!(faulted.fallbacks_taken, 0);

    assert!(clean.converged && faulted.converged);
    assert_same_topology(&clean.graph, &faulted.graph, "faulted vs fault-free");
    for (ec, ef) in clean.graph.edges().iter().zip(faulted.graph.edges()) {
        assert_eq!(
            ec.weight.to_bits(),
            ef.weight.to_bits(),
            "edge ({},{}) moved under faults",
            ec.u,
            ec.v
        );
    }
    assert_eq!(clean.trace, faulted.trace);
    assert_eq!(clean.scale_factor, faulted.scale_factor);
}

/// Fault opportunities advance on the serial control path, so the same
/// schedule fires at the same logical instant at any thread count — a
/// faulted run is bit-identical at 1 vs N workers.
#[test]
fn faulted_runs_bit_identical_across_thread_counts() {
    let serial = learn(1, Some(solver_faults()));
    for threads in [2usize, 4] {
        let parallel = learn(threads, Some(solver_faults()));
        assert_same_topology(
            &serial.graph,
            &parallel.graph,
            "1 vs N threads under faults",
        );
        for (ea, eb) in serial.graph.edges().iter().zip(parallel.graph.edges()) {
            assert_eq!(
                ea.weight.to_bits(),
                eb.weight.to_bits(),
                "threads={threads}: faulted weights must be bit-identical"
            );
        }
        assert_eq!(serial.trace, parallel.trace, "threads={threads}");
        assert_eq!(serial.scale_factor, parallel.scale_factor);
    }
}

/// After repeated solver failures the session swaps Solver → SolverFree
/// instead of dying; the fallback is recorded in the result.
#[test]
fn repeated_solver_failures_fall_back_to_solver_free() {
    // Stagnate every PCG solve: the fresh-factorization retry fails
    // too, forcing the strategy fallback rung.
    let mut plan = FaultPlan::new();
    for nth in 0..256 {
        plan = plan.with_fault(FaultKind::PcgStagnation, nth);
    }
    let truth = sgl_datasets::grid2d(8, 8);
    let meas = Measurements::generate(&truth, 18, 9).unwrap();
    let mut session = SglSession::from_owned(solver_heavy_config(0), meas).unwrap();
    session.set_fault_plan(Arc::new(plan));
    session.run_to_completion().unwrap();
    assert!(session.fallbacks_taken() >= 1);
    let result = session.finish().unwrap();
    assert!(result.fallbacks_taken >= 1);
    assert!(result.graph.num_edges() >= 63); // spanning tree + densification
}

/// Killing the writer mid-publish (injected panic inside the ingest
/// path) leaves every reader consistent: queries keep answering from
/// the last published snapshot during the restart, and the rebuilt
/// writer republishes the batch afterwards.
#[test]
fn killed_writer_restarts_without_torn_reads() {
    let truth = sgl_datasets::grid2d(6, 6);
    let meas = Measurements::generate(&truth, 12, 3).unwrap();
    let cfg = SglConfig::builder()
        .k(4)
        .r(4)
        .tol(0.0)
        .max_iterations(3)
        .build()
        .unwrap();
    let mut session = SglSession::from_owned(cfg, meas).unwrap();
    session.run_to_completion().unwrap();
    let plan = Arc::new(FaultPlan::new().with_fault(FaultKind::WriterPanic, 0));
    let opts = ServeOptions {
        fault_plan: Some(Arc::clone(&plan)),
        ..ServeOptions::default()
    };
    let server = SglServer::new(session, opts).unwrap();

    // Canonical answers per version, captured from pinned snapshots.
    let reader = server.handle();
    let pairs = [(0usize, 35usize), (5, 30), (12, 17)];
    let canon_v0 = reader.snapshot().resistances(&pairs).unwrap();

    let stop = Arc::new(AtomicBool::new(false));
    let mut readers = Vec::new();
    for _ in 0..3 {
        let handle = server.handle();
        let stop = Arc::clone(&stop);
        readers.push(std::thread::spawn(move || {
            let mut seen = Vec::new();
            while !stop.load(Ordering::Relaxed) {
                let resp = handle.resistances(&pairs).unwrap();
                seen.push((resp.version, resp.value));
            }
            seen
        }));
    }

    // This ingest trips the injected panic; the supervisor rebuilds the
    // writer and re-absorbs the batch.
    server
        .ingest(Measurements::generate(&truth, 5, 8).unwrap())
        .unwrap();
    server.flush().unwrap();
    let canon_v1 = reader.snapshot().resistances(&pairs).unwrap();
    stop.store(true, Ordering::Relaxed);

    let stats = server.stats();
    assert_eq!(stats.writer_restarts, 1);
    assert_eq!(stats.batches_quarantined, 0);
    assert!(reader.version() >= 1);
    for t in readers {
        for (version, value) in t.join().unwrap() {
            let expected = if version == 0 { &canon_v0 } else { &canon_v1 };
            assert_eq!(&value, expected, "torn read on version {version}");
        }
    }

    // The restarted writer lost nothing: all 17 columns survive handoff.
    let session = server.shutdown().unwrap();
    assert_eq!(session.measurements().num_measurements(), 17);
}

/// A quarantined ingest batch is isolated: it is counted, rejected, and
/// the session, the served snapshot, and later ingests are exactly what
/// they would have been had the bad batch never arrived.
#[test]
fn quarantined_batch_does_not_perturb_the_session() {
    let truth = sgl_datasets::grid2d(5, 5);
    let build = || {
        let meas = Measurements::generate(&truth, 10, 3).unwrap();
        let cfg = SglConfig::builder()
            .k(4)
            .r(4)
            .tol(0.0)
            .max_iterations(3)
            .build()
            .unwrap();
        let mut session = SglSession::from_owned(cfg, meas).unwrap();
        session.run_to_completion().unwrap();
        SglServer::new(session, ServeOptions::default()).unwrap()
    };
    let good_batch = Measurements::generate(&truth, 4, 11).unwrap();

    // Control: good batch only.
    let control = build();
    control.ingest(good_batch.clone()).unwrap();
    control.flush().unwrap();
    let control_answer = control.handle().resistances(&[(0, 24)]).unwrap();

    // Treatment: a mismatched batch sandwiched before the good one.
    let treated = build();
    let wrong = Measurements::generate(&sgl_datasets::grid2d(3, 3), 3, 1).unwrap();
    assert!(matches!(
        treated.ingest(wrong),
        Err(ServeError::BadQuery(_))
    ));
    treated.ingest(good_batch).unwrap();
    treated.flush().unwrap();
    let treated_answer = treated.handle().resistances(&[(0, 24)]).unwrap();

    assert_eq!(treated.stats().batches_quarantined, 1);
    assert_eq!(control.stats().batches_quarantined, 0);
    // Bit-identical serving state: the bad batch left no trace.
    assert_eq!(treated_answer.value, control_answer.value);
    assert_eq!(treated_answer.version, control_answer.version);
    let a = control.shutdown().unwrap();
    let b = treated.shutdown().unwrap();
    assert_eq!(
        a.measurements().num_measurements(),
        b.measurements().num_measurements()
    );
}

/// Checkpoint/resume at the facade level: interrupt a session mid-learn,
/// restore it from disk, and the continued run is bit-identical to the
/// uninterrupted one — graph, trace, and final scale factor.
#[test]
fn checkpoint_resume_is_bit_identical_to_uninterrupted_run() {
    let truth = sgl_datasets::grid2d(8, 8);
    let meas = Measurements::generate(&truth, 16, 21).unwrap();
    let cfg = SglConfig::builder()
        .tol(1e-6)
        .max_iterations(60)
        .build()
        .unwrap();

    let mut live = SglSession::from_owned(cfg.clone(), meas).unwrap();
    for _ in 0..3 {
        live.step().unwrap();
    }
    let path =
        std::env::temp_dir().join(format!("sgl-resilience-ckpt-{}.sglck", std::process::id()));
    live.checkpoint(&path).unwrap();
    let mut restored = SglSession::restore(&path, cfg).unwrap();
    std::fs::remove_file(&path).ok();

    live.run_to_completion().unwrap();
    restored.run_to_completion().unwrap();
    let a = live.finish().unwrap();
    let b = restored.finish().unwrap();

    assert_eq!(a.trace, b.trace);
    assert_eq!(a.stop_verdict, b.stop_verdict);
    assert_eq!(
        a.scale_factor.map(f64::to_bits),
        b.scale_factor.map(f64::to_bits)
    );
    assert_same_topology(&a.graph, &b.graph, "resumed vs uninterrupted");
    for (ea, eb) in a.graph.edges().iter().zip(b.graph.edges()) {
        assert_eq!(ea.weight.to_bits(), eb.weight.to_bits());
    }
}

/// NaN/inf measurements are stopped at every ingest boundary — the
/// constructors, the session extension path, and (transitively) serve
/// ingest — as `InvalidMeasurements`, never a downstream solver error.
#[test]
fn non_finite_measurements_are_rejected_at_the_boundary() {
    let mut x = DenseMatrix::zeros(4, 2);
    x.set(0, 0, 1.0);
    x.set(2, 1, f64::NAN);
    assert!(matches!(
        Measurements::from_voltages(x.clone()),
        Err(SglError::InvalidMeasurements(_))
    ));
    let y = DenseMatrix::zeros(4, 2);
    assert!(matches!(
        Measurements::new(x, y.clone()),
        Err(SglError::InvalidMeasurements(_))
    ));
    let mut bad_y = y;
    bad_y.set(1, 1, f64::INFINITY);
    let mut ok_x = DenseMatrix::zeros(4, 2);
    ok_x.set(0, 0, 1.0);
    ok_x.set(1, 0, -1.0);
    ok_x.set(2, 1, 0.5);
    assert!(matches!(
        Measurements::new(ok_x, bad_y),
        Err(SglError::InvalidMeasurements(_))
    ));
}
