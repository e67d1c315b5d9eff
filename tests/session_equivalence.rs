//! The `SglSession` facade contract: a step-wise session run must be
//! indistinguishable from one-shot `Sgl::learn`, observers must see the
//! complete trace, and the dense reference embedding must learn the
//! same edge set as the default iterative one.

use sgl::prelude::*;
use sgl_core::SessionObserver;
use std::sync::{Arc, Mutex};

fn config(tol: f64) -> SglConfig {
    SglConfig::builder()
        .tol(tol)
        .max_iterations(120)
        .build()
        .unwrap()
}

fn assert_same_result(a: &LearnResult, b: &LearnResult) {
    assert_eq!(a.trace, b.trace, "traces differ");
    assert_eq!(a.converged, b.converged);
    match (a.scale_factor, b.scale_factor) {
        (Some(x), Some(y)) => assert!((x - y).abs() < 1e-12, "scale {x} vs {y}"),
        (x, y) => assert_eq!(x, y),
    }
    assert_eq!(a.graph.num_edges(), b.graph.num_edges());
    for (ea, eb) in a.graph.edges().iter().zip(b.graph.edges()) {
        assert_eq!((ea.u, ea.v), (eb.u, eb.v), "edge order differs");
        assert!((ea.weight - eb.weight).abs() < 1e-12);
    }
}

/// Property (checked over a grid of shapes, seeds, and measurement
/// counts): driving the loop one step at a time produces exactly the
/// graph, trace, and scale factor of the one-shot facade.
#[test]
fn stepwise_session_equals_one_shot_learn() {
    for &(rows, cols, m, seed) in &[
        (8usize, 8usize, 20usize, 1u64),
        (9, 7, 25, 2),
        (10, 10, 16, 3),
        (6, 12, 30, 4),
    ] {
        let truth = sgl_datasets::grid2d(rows, cols);
        let meas = Measurements::generate(&truth, m, seed).unwrap();
        let oneshot = Sgl::new(config(1e-6)).learn(&meas).unwrap();

        let mut session = SglSession::new(config(1e-6), &meas).unwrap();
        let mut steps = 0;
        while !session.is_done() {
            match session.step().unwrap() {
                StepOutcome::AlreadyDone => panic!("stepped a halted session"),
                _ => steps += 1,
            }
            assert!(steps <= 1000, "runaway loop");
        }
        let stepped = session.finish().unwrap();
        assert_same_result(&stepped, &oneshot);
    }
}

/// Acceptance criterion: an observer registered on a session sees every
/// `IterationRecord` that `LearnResult.trace` contains, in order.
#[test]
fn observer_sees_exactly_the_trace() {
    let truth = sgl_datasets::grid2d(10, 10);
    let meas = Measurements::generate(&truth, 25, 5).unwrap();
    let seen: Arc<Mutex<Vec<IterationRecord>>> = Arc::default();
    let sink = Arc::clone(&seen);

    let mut session = SglSession::new(config(1e-6), &meas).unwrap();
    session.observe(move |r: &IterationRecord| sink.lock().unwrap().push(*r));
    session.run_to_completion().unwrap();
    let result = session.finish().unwrap();

    assert!(!result.trace.is_empty());
    assert_eq!(&*seen.lock().unwrap(), &result.trace);
}

/// A trait-object observer also receives the finish notification with
/// the final result.
#[test]
fn trait_observer_receives_finish() {
    struct Counter {
        iterations: Arc<Mutex<usize>>,
        finished: Arc<Mutex<Option<usize>>>,
    }
    impl SessionObserver for Counter {
        fn on_iteration(&mut self, _r: &IterationRecord) {
            *self.iterations.lock().unwrap() += 1;
        }
        fn on_finish(&mut self, result: &LearnResult) {
            *self.finished.lock().unwrap() = Some(result.trace.len());
        }
    }

    let truth = sgl_datasets::grid2d(8, 8);
    let meas = Measurements::generate(&truth, 20, 6).unwrap();
    let iterations = Arc::new(Mutex::new(0));
    let finished = Arc::new(Mutex::new(None));
    let mut session = SglSession::new(config(1e-6), &meas).unwrap();
    session.observe(Counter {
        iterations: Arc::clone(&iterations),
        finished: Arc::clone(&finished),
    });
    let result = session.run().unwrap();
    assert_eq!(*iterations.lock().unwrap(), result.trace.len());
    assert_eq!(*finished.lock().unwrap(), Some(result.trace.len()));
}

/// Acceptance criterion: pinning the dense embedding in place of the
/// default LOBPCG one on an 8×8 grid changes the learned edge set by
/// zero edges at `tol = 1e-4`.
#[test]
fn dense_and_lanczos_backends_agree_on_small_grids() {
    for &(rows, cols, seed) in &[(8usize, 8usize, 7u64), (6, 6, 8), (7, 5, 9)] {
        let truth = sgl_datasets::grid2d(rows, cols);
        let meas = Measurements::generate(&truth, 20, seed).unwrap();
        let cfg = config(1e-4);

        let lobpcg = SglSession::new(cfg.clone(), &meas).unwrap().run().unwrap();
        let dense = SglSession::new(cfg, &meas)
            .unwrap()
            .with_dense_embedding()
            .run()
            .unwrap();

        let edges = |r: &LearnResult| -> std::collections::BTreeSet<(usize, usize)> {
            r.graph.edges().iter().map(|e| (e.u, e.v)).collect()
        };
        let a = edges(&lobpcg);
        let b = edges(&dense);
        let diff = a.symmetric_difference(&b).count();
        assert_eq!(
            diff, 0,
            "{rows}x{cols} seed {seed}: backends disagree on {diff} edges"
        );
    }
}

/// Incremental sessions: feeding the same measurements in two batches
/// still learns a connected ultra-sparse graph over the full data.
#[test]
fn incremental_batches_learn_a_comparable_graph() {
    let truth = sgl_datasets::grid2d(9, 9);
    let n = truth.num_nodes();
    let all = Measurements::generate(&truth, 30, 10).unwrap();
    let split = 15;
    let col_batch = |lo: usize, hi: usize| {
        let cols: Vec<Vec<f64>> = (lo..hi).map(|j| all.voltages().column(j)).collect();
        Measurements::from_voltages(sgl_linalg::DenseMatrix::from_columns(&cols)).unwrap()
    };

    let first = col_batch(0, split);
    let mut session = SglSession::new(config(1e-6), &first).unwrap();
    session.run_to_completion().unwrap();
    session.extend_measurements(&col_batch(split, 30)).unwrap();
    session.run_to_completion().unwrap();
    let incremental = session.finish().unwrap();

    assert!(sgl_graph::traversal::is_connected(&incremental.graph));
    assert_eq!(incremental.graph.num_nodes(), n);
    assert!(incremental.density() < 2.0);
    // The trace spans both epochs with consistent numbering.
    for w in incremental.trace.windows(2) {
        assert_eq!(w[1].iteration, w[0].iteration + 1);
        assert!(w[1].total_edges >= w[0].total_edges);
    }
}
