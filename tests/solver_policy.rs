//! The unified solver-context API end to end: config-driven solver
//! policies, shared per-revision handles, batched solves, the resistance
//! estimators — and the solver-free learning path.

use sgl::prelude::*;
use sgl_core::{
    pairwise_effective_resistances, sample_node_pairs, PolicyMethod, ResistanceSketch,
    SolverPolicy, SpectralSketch,
};
use sgl_linalg::vecops;

fn delaunay_truth() -> sgl_graph::Graph {
    // A Delaunay-triangulated FE-style plate (Bowyer–Watson over random
    // interior points) — irregular, connected, mesh-class.
    sgl_datasets::fe_plate_mesh(120, 2).graph
}

#[test]
fn spectral_sketch_runs_the_full_loop_without_a_laplacian_solver() {
    // The SF-SGL claim in miniature: with the solver-free strategy and
    // voltage-only measurements (no scaling solve), the whole learning
    // loop and the session's resistance estimator never build a
    // Laplacian solver — witnessed by the session's own build counter.
    let truth = delaunay_truth();
    let meas = Measurements::generate(&truth, 40, 3).unwrap();
    let volts = Measurements::from_voltages(meas.voltages().clone()).unwrap();
    let cfg = SglConfig::builder()
        .tol(1e-6)
        .max_iterations(100)
        .strategy(LearnStrategyKind::SolverFree)
        .build()
        .unwrap();
    let mut session = SglSession::new(cfg, &volts).unwrap();
    session.run_to_completion().unwrap();

    // The strategy's estimator works on the learned graph, solver-free.
    let est = session.resistance_estimator().unwrap();
    assert_eq!(est.name(), "spectral-sketch");
    let pairs = sample_node_pairs(truth.num_nodes(), 10, 5);
    let rs = est.resistances(&pairs).unwrap();
    assert!(rs.iter().all(|r| *r > 0.0 && r.is_finite()));

    assert_eq!(
        session.solver_context().handles_built(),
        0,
        "solver-free run must never construct a Laplacian solver"
    );
    let result = session.finish().unwrap();
    assert!(result.converged);
    assert!(sgl_graph::traversal::is_connected(&result.graph));
}

#[test]
fn solver_policy_controls_every_pipeline_solve() {
    // The same learning run under the dense reference backend must land
    // on the same graph: every solve (measurement generation included)
    // honors the configured policy.
    let truth = sgl_datasets::grid2d(8, 8);
    let default_meas = Measurements::generate(&truth, 20, 7).unwrap();

    let default_cfg = SglConfig::builder().tol(1e-6).build().unwrap();
    let baseline = SglSession::new(default_cfg, &default_meas)
        .unwrap()
        .run()
        .unwrap();

    let dense_policy = SolverPolicy::default().with_method(PolicyMethod::DenseCholesky);
    let dense_meas = Measurements::generate_with(&truth, 20, 7, &dense_policy).unwrap();
    let dense_cfg = SglConfig::builder()
        .tol(1e-6)
        .solver_method(PolicyMethod::DenseCholesky)
        .build()
        .unwrap();
    let mut session = SglSession::new(dense_cfg, &dense_meas).unwrap();
    session.run_to_completion().unwrap();
    let dense = session.finish().unwrap();

    assert_eq!(dense.graph.num_edges(), baseline.graph.num_edges());
    for (a, b) in dense.graph.edges().iter().zip(baseline.graph.edges()) {
        assert_eq!((a.u, a.v), (b.u, b.v));
        assert!((a.weight - b.weight).abs() < 1e-6);
    }
    let (fa, fb) = (dense.scale_factor.unwrap(), baseline.scale_factor.unwrap());
    assert!(
        (fa - fb).abs() < 1e-6,
        "scale factors diverge: {fa} vs {fb}"
    );
}

#[test]
fn per_revision_reuse_shares_handles_across_stages() {
    let truth = sgl_datasets::grid2d(7, 7);
    let meas = Measurements::generate(&truth, 20, 9).unwrap();
    let cfg = SglConfig::builder().tol(1e-6).build().unwrap();
    let mut session = SglSession::new(cfg, &meas).unwrap();
    session.run_to_completion().unwrap();
    // Converged without scaling yet: exact + JL estimators on the final
    // revision share one handle.
    let built_before = session.solver_context().handles_built();
    session.resistance_estimator().unwrap();
    let built_exact = session.solver_context().handles_built();
    assert!(built_exact <= built_before + 1);
    session.resistance_estimator().unwrap();
    assert_eq!(
        session.solver_context().handles_built(),
        built_exact,
        "same revision must reuse the cached handle"
    );
    session.finish().unwrap();
}

#[test]
fn estimators_agree_within_the_jl_tolerance_bound() {
    // Deterministic companion of the gated proptest: on a mesh and on a
    // Delaunay graph, the JL sketch at the eq.-18 projection count and
    // the spectral sketch both track ExactSolve within ε.
    for (truth, seed) in [(sgl_datasets::grid2d(8, 8), 1u64), (delaunay_truth(), 2u64)] {
        let n = truth.num_nodes();
        let pairs = sample_node_pairs(n, 30, seed);
        let exact = pairwise_effective_resistances(&truth, &pairs).unwrap();

        let eps = 0.5;
        let q = ResistanceSketch::recommended_projections(n, eps);
        let jl = ResistanceSketch::build(&truth, q, seed).unwrap();
        for (k, &(s, t)) in pairs.iter().enumerate() {
            let est = jl.estimate(s, t).unwrap();
            assert!(
                est >= (1.0 - eps) * exact[k] && est <= (1.0 + eps) * exact[k],
                "JL pair ({s},{t}): {est} outside (1±ε)·{}",
                exact[k]
            );
        }

        // Full-width spectral sketch is exact (well inside any ε).
        let spectral = SpectralSketch::build(&truth, 0, seed).unwrap();
        for (k, &(s, t)) in pairs.iter().enumerate() {
            let est = spectral.estimate(s, t).unwrap();
            assert!(
                (est - exact[k]).abs() <= 1e-5 * (1.0 + exact[k]),
                "spectral pair ({s},{t}): {est} vs {}",
                exact[k]
            );
        }
    }
}

#[test]
fn all_policy_methods_agree_on_small_grids() {
    for g in [sgl_datasets::grid2d(6, 6), sgl_datasets::grid2d(4, 9)] {
        let n = g.num_nodes();
        let mut rng = sgl_linalg::Rng::seed_from_u64(11);
        let mut b = rng.normal_vec(n);
        vecops::project_out_mean(&mut b);
        let reference = SolverPolicy::default()
            .with_method(PolicyMethod::DenseCholesky)
            .build_handle(&g)
            .unwrap()
            .solve(&b)
            .unwrap();
        for method in [
            PolicyMethod::Auto,
            PolicyMethod::TreePcg,
            PolicyMethod::AmgPcg,
        ] {
            let h = SolverPolicy::default()
                .with_method(method)
                .build_handle(&g)
                .unwrap();
            let x = h.solve(&b).unwrap();
            let d = vecops::sub(&x, &reference);
            assert!(
                vecops::norm2(&d) / vecops::norm2(&reference) < 1e-6,
                "{method:?} disagrees with the dense reference"
            );
            // Batch and sequential paths are identical.
            let batch = h.solve_batch(std::slice::from_ref(&b)).unwrap();
            let d = vecops::sub(&batch[0], &x);
            assert!(vecops::norm2(&d) < 1e-12);
        }
    }
}
