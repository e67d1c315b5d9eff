//! Seeded property tests for the Laplacian solvers.
//!
//! Each property runs on [`CASES`] fixed cases whose parameters are drawn
//! from an [`Rng`] seeded per property, so every run checks the same
//! cases and a failure names the parameters that reproduce it.

use sgl_graph::laplacian::laplacian_csr;
use sgl_graph::Graph;
use sgl_linalg::{vecops, Rng};
use sgl_solver::{AmgHierarchy, PolicyMethod, SolverPolicy, TreeSolver};

/// Cases per property.
const CASES: usize = 24;

/// A draw from `lo..hi`.
fn draw(gen: &mut Rng, lo: usize, hi: usize) -> usize {
    lo + gen.below(hi - lo)
}

/// A graph seed from `0..10_000`.
fn draw_seed(gen: &mut Rng) -> u64 {
    gen.below(10_000) as u64
}

fn random_tree(n: usize, seed: u64) -> Graph {
    let mut rng = Rng::seed_from_u64(seed);
    let mut g = Graph::new(n);
    for v in 1..n {
        let u = rng.below(v);
        g.add_edge(u, v, 10f64.powf(rng.uniform_in(-2.0, 2.0)));
    }
    g
}

fn random_connected(n: usize, extra: usize, seed: u64) -> Graph {
    let mut g = random_tree(n, seed);
    let mut rng = Rng::seed_from_u64(seed ^ 0x77);
    let mut added = 0;
    let mut tries = 0;
    while added < extra && tries < 20 * extra + 20 {
        tries += 1;
        let u = rng.below(n);
        let v = rng.below(n);
        if u != v && !g.has_edge(u, v) {
            g.add_edge(u, v, 10f64.powf(rng.uniform_in(-2.0, 2.0)));
            added += 1;
        }
    }
    g
}

fn mean_zero(n: usize, seed: u64) -> Vec<f64> {
    let mut rng = Rng::seed_from_u64(seed);
    let mut b = rng.normal_vec(n);
    vecops::project_out_mean(&mut b);
    b
}

#[test]
fn tree_solver_is_exact_on_random_trees() {
    let mut gen = Rng::seed_from_u64(1);
    for _ in 0..CASES {
        let (n, seed) = (draw(&mut gen, 2, 40), draw_seed(&mut gen));
        let tree = random_tree(n, seed);
        let b = mean_zero(n, seed ^ 1);
        let x = TreeSolver::new(&tree).solve(&b);
        let l = laplacian_csr(&tree);
        let lx = l.matvec(&x);
        for i in 0..n {
            assert!(
                (lx[i] - b[i]).abs() < 1e-8 * vecops::norm2(&b).max(1.0),
                "n={n} seed={seed}: residual at {i}"
            );
        }
        assert!(vecops::mean(&x).abs() < 1e-9, "n={n} seed={seed}");
    }
}

#[test]
fn pcg_backends_solve_random_connected_graphs() {
    let mut gen = Rng::seed_from_u64(2);
    for _ in 0..CASES {
        let (n, extra, seed) = (
            draw(&mut gen, 4, 30),
            draw(&mut gen, 1, 20),
            draw_seed(&mut gen),
        );
        let g = random_connected(n, extra, seed);
        let b = mean_zero(n, seed ^ 2);
        let l = laplacian_csr(&g);
        for method in [
            PolicyMethod::Auto,
            PolicyMethod::TreePcg,
            PolicyMethod::AmgPcg,
        ] {
            let s = SolverPolicy::default()
                .with_method(method)
                .build_handle(&g)
                .unwrap();
            let x = s.solve(&b).unwrap();
            let lx = l.matvec(&x);
            let mut r = vecops::sub(&b, &lx);
            vecops::project_out_mean(&mut r);
            assert!(
                vecops::norm2(&r) / vecops::norm2(&b).max(1e-300) < 1e-7,
                "n={n} extra={extra} seed={seed}: {method:?} failed"
            );
        }
    }
}

#[test]
fn amg_vcycle_is_a_valid_pcg_preconditioner() {
    // As a PCG preconditioner the V-cycle must act like an SPD operator
    // on the mean-zero subspace: symmetric bilinear form and positive
    // energy. (A standalone residual-contraction guarantee is NOT
    // claimed for unsmoothed aggregation on arbitrary weighted graphs —
    // PCG supplies the convergence.)
    let mut gen = Rng::seed_from_u64(3);
    for _ in 0..CASES {
        let (n, extra, seed) = (
            draw(&mut gen, 30, 120),
            draw(&mut gen, 10, 60),
            draw_seed(&mut gen),
        );
        let g = random_connected(n, extra, seed);
        let h = AmgHierarchy::build(&g);
        let a = mean_zero(n, seed ^ 3);
        let b = mean_zero(n, seed ^ 4);
        let ma = h.v_cycle(&a);
        let mb = h.v_cycle(&b);
        let scale = vecops::norm2(&a) * vecops::norm2(&mb) + vecops::norm2(&b) * vecops::norm2(&ma);
        let case = format!("n={n} extra={extra} seed={seed}");
        assert!(
            (vecops::dot(&a, &mb) - vecops::dot(&b, &ma)).abs() < 1e-9 * scale.max(1e-300),
            "{case}: V-cycle not symmetric"
        );
        assert!(vecops::dot(&a, &ma) > 0.0, "{case}: V-cycle not positive");
        assert!(vecops::dot(&b, &mb) > 0.0, "{case}: V-cycle not positive");
    }
}

#[test]
fn solutions_respect_superposition() {
    // L⁺ is linear: solve(a + b) == solve(a) + solve(b).
    let mut gen = Rng::seed_from_u64(4);
    for _ in 0..CASES {
        let (n, seed) = (draw(&mut gen, 4, 25), draw_seed(&mut gen));
        let g = random_connected(n, 5, seed);
        let s = SolverPolicy::default().build_handle(&g).unwrap();
        let b1 = mean_zero(n, seed ^ 4);
        let b2 = mean_zero(n, seed ^ 5);
        let sum: Vec<f64> = b1.iter().zip(&b2).map(|(a, b)| a + b).collect();
        let x1 = s.solve(&b1).unwrap();
        let x2 = s.solve(&b2).unwrap();
        let xs = s.solve(&sum).unwrap();
        for i in 0..n {
            assert!(
                (xs[i] - x1[i] - x2[i]).abs() < 1e-6,
                "n={n} seed={seed}: superposition broken at {i}"
            );
        }
    }
}

#[test]
fn parallel_solve_batch_matches_serial() {
    // Per-RHS fan-out must agree with the serial path to (well beyond)
    // solver tolerance on any connected graph. The design guarantees
    // bit-identical results; assert a strict 1e-12.
    let mut gen = Rng::seed_from_u64(5);
    for _ in 0..CASES {
        let (n, nrhs, seed, threads) = (
            draw(&mut gen, 6, 30),
            draw(&mut gen, 1, 7),
            draw_seed(&mut gen),
            draw(&mut gen, 2, 6),
        );
        let g = random_connected(n, 4, seed);
        let rhs: Vec<Vec<f64>> = (0..nrhs)
            .map(|i| mean_zero(n, seed ^ (100 + i as u64)))
            .collect();
        let serial = SolverPolicy::default()
            .with_parallelism(1)
            .build_handle(&g)
            .unwrap()
            .solve_batch(&rhs)
            .unwrap();
        let par = SolverPolicy::default()
            .with_parallelism(threads)
            .build_handle(&g)
            .unwrap()
            .solve_batch(&rhs)
            .unwrap();
        for (a, b) in par.iter().zip(&serial) {
            let d = vecops::sub(a, b);
            assert!(
                vecops::norm2(&d) <= 1e-12,
                "n={n} nrhs={nrhs} seed={seed} threads={threads}: batch diverges: {}",
                vecops::norm2(&d)
            );
        }
    }
}
