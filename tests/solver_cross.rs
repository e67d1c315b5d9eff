//! Cross-crate consistency: all Laplacian solver methods and the
//! shift-invert eigenvalue route must agree with each other and with
//! dense reference computations.

use sgl_core::smallest_nonzero_eigenvalues;
use sgl_graph::laplacian::laplacian_csr;
use sgl_graph::Graph;
use sgl_linalg::{vecops, Rng, SymEig};
use sgl_solver::{PolicyMethod, SolverPolicy};

fn mean_zero_rhs(n: usize, seed: u64) -> Vec<f64> {
    let mut rng = Rng::seed_from_u64(seed);
    let mut b = rng.normal_vec(n);
    vecops::project_out_mean(&mut b);
    b
}

#[test]
fn all_solver_backends_agree_on_meshes_and_circuits() {
    let cases = [
        sgl_datasets::grid2d(9, 9),
        sgl_datasets::circuit_grid(9, 9, 1.7, 1),
        sgl_datasets::fe_plate_mesh(250, 2).graph,
    ];
    for (ci, g) in cases.iter().enumerate() {
        let b = mean_zero_rhs(g.num_nodes(), ci as u64);
        let mut solutions = Vec::new();
        for m in [PolicyMethod::TreePcg, PolicyMethod::AmgPcg] {
            let s = SolverPolicy::default()
                .with_method(m)
                .build_handle(g)
                .unwrap();
            solutions.push(s.solve(&b).unwrap());
        }
        for w in solutions.windows(2) {
            let d = vecops::sub(&w[0], &w[1]);
            assert!(
                vecops::norm2(&d) / vecops::norm2(&w[0]) < 1e-6,
                "case {ci}: methods disagree"
            );
        }
    }
}

#[test]
fn solver_matches_dense_pseudoinverse() {
    let g = sgl_datasets::grid2d(6, 6);
    let n = g.num_nodes();
    let b = mean_zero_rhs(n, 7);
    let solver = SolverPolicy::default().build_handle(&g).unwrap();
    let x = solver.solve(&b).unwrap();
    // Dense reference via eigendecomposition pseudoinverse.
    let eig = SymEig::compute(&laplacian_csr(&g).to_dense()).unwrap();
    let mut x_ref = vec![0.0; n];
    for k in 1..n {
        let v = eig.vectors.column(k);
        let c = vecops::dot(&v, &b) / eig.values[k];
        vecops::axpy(c, &v, &mut x_ref);
    }
    let d = vecops::sub(&x, &x_ref);
    assert!(
        vecops::norm2(&d) < 1e-7,
        "dense mismatch {}",
        vecops::norm2(&d)
    );
}

#[test]
fn eigenvalue_methods_agree_with_dense() {
    let g = sgl_datasets::circuit_grid(8, 8, 1.7, 3);
    let dense = SymEig::compute(&laplacian_csr(&g).to_dense()).unwrap();
    let got = smallest_nonzero_eigenvalues(&g, 6).unwrap();
    for k in 0..6 {
        assert!(
            (got[k] - dense.values[k + 1]).abs() < 1e-6 * dense.values[k + 1].max(1.0),
            "shift-invert eig {k}"
        );
    }
}

#[test]
fn weighted_graphs_are_handled() {
    // Heavily heterogeneous weights (6 decades) must not break any method.
    let mut g = Graph::new(30);
    let mut rng = Rng::seed_from_u64(5);
    for i in 0..29 {
        g.add_edge(i, i + 1, 10f64.powf(rng.uniform_in(-3.0, 3.0)));
    }
    for _ in 0..15 {
        let u = rng.below(30);
        let v = rng.below(30);
        if u != v && !g.has_edge(u, v) {
            g.add_edge(u, v, 10f64.powf(rng.uniform_in(-3.0, 3.0)));
        }
    }
    let b = mean_zero_rhs(30, 6);
    let l = laplacian_csr(&g);
    for m in [PolicyMethod::TreePcg, PolicyMethod::AmgPcg] {
        let s = SolverPolicy::default()
            .with_method(m)
            .build_handle(&g)
            .unwrap();
        let x = s.solve(&b).unwrap();
        let lx = l.matvec(&x);
        let mut r = vecops::sub(&b, &lx);
        vecops::project_out_mean(&mut r);
        assert!(
            vecops::norm2(&r) / vecops::norm2(&b) < 1e-7,
            "{m:?} residual too large"
        );
    }
}
