//! End-to-end guarantees of the solver-free path: a full learn that
//! never builds a solver handle, agrees spectrally with the solver path,
//! and is bit-identical at any thread count.

use sgl::prelude::*;
use sgl_core::compare_spectra;

fn scenario() -> (sgl_graph::Graph, Measurements) {
    let truth = sgl_datasets::grid2d(12, 12);
    let meas = Measurements::generate(&truth, 30, 11).unwrap();
    (truth, meas)
}

fn config(strategy: LearnStrategyKind) -> SglConfig {
    SglConfig::builder()
        .tol(1e-4)
        .max_iterations(40)
        .strategy(strategy)
        .build()
        .unwrap()
}

#[test]
fn full_learn_completes_with_zero_solves_and_zero_handles() {
    let (_, meas) = scenario();
    let mut session = SglSession::new(config(LearnStrategyKind::SolverFree), &meas).unwrap();
    session.run_to_completion().unwrap();
    assert_eq!(
        session.solver_context().handles_built(),
        0,
        "solver-free learn must never build a handle"
    );
    assert_eq!(
        session.solver_context().cumulative_stats().solves,
        0,
        "solver-free learn must never solve a system"
    );
    let result = session.finish().unwrap();
    assert_eq!(result.solver_stats.solves, 0);
    assert!(result.graph.num_edges() > 0);
    assert!(result.scale_factor.is_some(), "Step 5 ran (solver-free)");
}

#[test]
fn solver_free_learn_tracks_the_solver_path_spectrally() {
    let (_, meas) = scenario();
    let solver = Sgl::new(config(LearnStrategyKind::Solver))
        .learn(&meas)
        .unwrap();
    let free = Sgl::new(config(LearnStrategyKind::SolverFree))
        .learn(&meas)
        .unwrap();
    let cmp = compare_spectra(&solver.graph, &free.graph, 6).unwrap();
    assert!(
        cmp.mean_relative_error < 0.05,
        "first-6 eigenvalue error must stay within 5%: {cmp:?}"
    );
    assert!(
        cmp.correlation > 0.99,
        "spectra must correlate at 0.99+: {cmp:?}"
    );
}

#[test]
fn solver_free_learn_is_bit_identical_across_thread_counts() {
    let (_, meas) = scenario();
    let serial = Sgl::new(config(LearnStrategyKind::SolverFree).with_parallelism(1))
        .learn(&meas)
        .unwrap();
    let parallel = Sgl::new(config(LearnStrategyKind::SolverFree).with_parallelism(4))
        .learn(&meas)
        .unwrap();
    assert_eq!(serial.graph.num_edges(), parallel.graph.num_edges());
    for (a, b) in serial.graph.edges().iter().zip(parallel.graph.edges()) {
        assert_eq!((a.u, a.v), (b.u, b.v));
        assert_eq!(a.weight.to_bits(), b.weight.to_bits());
    }
    assert_eq!(
        serial.scale_factor.map(f64::to_bits),
        parallel.scale_factor.map(f64::to_bits)
    );
}

#[test]
fn multilevel_learn_stays_solver_free_end_to_end() {
    use sgl_multilevel::HierarchyOptions;
    let truth = sgl_datasets::grid2d(16, 16);
    let meas = Measurements::generate(&truth, 25, 1).unwrap();
    let opts = MultilevelOptions {
        hierarchy: HierarchyOptions {
            coarsest_size: 64,
            ..HierarchyOptions::default()
        },
        ..MultilevelOptions::default()
    };
    let free = learn_multilevel(&config(LearnStrategyKind::SolverFree), &meas, &opts).unwrap();
    assert_eq!(
        free.solver_stats.solves, 0,
        "solver-free V-cycle must never solve: {:?}",
        free.solver_stats
    );
    assert!(free.scale_factor.is_some(), "finest-level Step 5 ran");
    assert!(sgl_graph::traversal::is_connected(&free.graph));
    // And it still lands near the solver-backed V-cycle spectrally.
    let solver = learn_multilevel(&config(LearnStrategyKind::Solver), &meas, &opts).unwrap();
    assert!(solver.solver_stats.solves > 0, "control arm does solve");
    let cmp = compare_spectra(&solver.graph, &free.graph, 6).unwrap();
    assert!(
        cmp.correlation > 0.98 && cmp.mean_relative_error < 0.15,
        "multilevel solver-free drifted: {cmp:?}"
    );
}

#[test]
fn multilevel_in_cycle_pruning_stays_solver_free() {
    use sgl_multilevel::HierarchyOptions;
    let truth = sgl_datasets::grid2d(14, 14);
    let meas = Measurements::generate(&truth, 25, 9).unwrap();
    let target = 1.05;
    let opts = MultilevelOptions {
        hierarchy: HierarchyOptions {
            coarsest_size: 49,
            ..HierarchyOptions::default()
        },
        target_density: Some(target),
        ..MultilevelOptions::default()
    };
    let free = learn_multilevel(&config(LearnStrategyKind::SolverFree), &meas, &opts).unwrap();
    assert!(
        free.reports.iter().any(|r| r.edges_pruned > 0),
        "no level pruned: {:?}",
        free.reports
    );
    assert_eq!(
        free.solver_stats.solves, 0,
        "solver-free pruning must never solve: {:?}",
        free.solver_stats
    );
    assert!(free.density() <= target, "density {}", free.density());
}

#[test]
fn voltage_only_measurements_skip_scaling_but_still_learn() {
    let (_, meas) = scenario();
    let volts = Measurements::from_voltages(meas.voltages().clone()).unwrap();
    let result = Sgl::new(config(LearnStrategyKind::SolverFree))
        .learn(&volts)
        .unwrap();
    assert_eq!(result.scale_factor, None);
    assert_eq!(result.solver_stats.solves, 0);
}
