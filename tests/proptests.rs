//! Cross-crate seeded property tests: randomized structural invariants
//! of the measurement pipeline and the learning loop.
//!
//! Each property runs on [`CASES`] fixed cases whose parameters are drawn
//! from an [`Rng`] seeded per property, so every run checks the same
//! cases and a failure names the parameters that reproduce it.

use sgl::prelude::*;
use sgl_core::sensitivity::CandidatePool;
use sgl_core::{spectral_embedding, EmbeddingOptions};
use sgl_graph::laplacian::laplacian_csr;
use sgl_graph::mst::maximum_spanning_tree;
use sgl_graph::Graph;
use sgl_linalg::{vecops, Rng, SymEig};

/// Cases per property.
const CASES: usize = 24;

/// A draw from `lo..hi`.
fn draw(gen: &mut Rng, lo: usize, hi: usize) -> usize {
    lo + gen.below(hi - lo)
}

/// A seed from `0..hi`.
fn draw_seed(gen: &mut Rng, hi: usize) -> u64 {
    gen.below(hi) as u64
}

/// A random connected weighted graph: spanning tree + extra edges.
fn random_connected_graph(n: usize, extra: usize, seed: u64) -> Graph {
    let mut rng = Rng::seed_from_u64(seed);
    let mut g = Graph::new(n);
    for v in 1..n {
        let u = rng.below(v);
        g.add_edge(u, v, 0.2 + rng.uniform() * 5.0);
    }
    let mut added = 0;
    let mut guard = 0;
    while added < extra && guard < extra * 20 {
        guard += 1;
        let u = rng.below(n);
        let v = rng.below(n);
        if u != v && !g.has_edge(u, v) {
            g.add_edge(u, v, 0.2 + rng.uniform() * 5.0);
            added += 1;
        }
    }
    g
}

#[test]
fn measurements_satisfy_laplacian_equation() {
    let mut gen = Rng::seed_from_u64(1);
    for _ in 0..CASES {
        let (n, m, seed) = (
            draw(&mut gen, 6, 20),
            draw(&mut gen, 2, 6),
            draw_seed(&mut gen, 500),
        );
        let g = random_connected_graph(n, n / 2, seed);
        let meas = Measurements::generate(&g, m, seed).unwrap();
        let l = laplacian_csr(&g);
        for j in 0..m {
            let x = meas.voltage_vector(j);
            let lx = l.matvec(&x);
            let y = meas.currents().unwrap().column(j);
            for i in 0..n {
                assert!(
                    (lx[i] - y[i]).abs() < 1e-6,
                    "n={n} m={m} seed={seed}: L x ≠ y at {i}"
                );
            }
        }
    }
}

#[test]
fn max_spanning_tree_beats_random_spanning_tree() {
    let mut gen = Rng::seed_from_u64(2);
    for _ in 0..CASES {
        let (n, seed) = (draw(&mut gen, 5, 25), draw_seed(&mut gen, 500));
        let g = random_connected_graph(n, n, seed);
        let mst = maximum_spanning_tree(&g);
        let mst_weight: f64 = mst.edge_indices.iter().map(|&i| g.edge(i).weight).sum();
        // A random spanning tree via union-find over shuffled edges.
        let mut rng = Rng::seed_from_u64(seed ^ 0xABCD);
        let mut order: Vec<usize> = (0..g.num_edges()).collect();
        rng.shuffle(&mut order);
        let mut uf = sgl_graph::UnionFind::new(n);
        let mut rnd_weight = 0.0;
        for i in order {
            let e = g.edge(i);
            if uf.union(e.u, e.v) {
                rnd_weight += e.weight;
            }
        }
        assert!(mst_weight >= rnd_weight - 1e-12, "n={n} seed={seed}");
    }
}

#[test]
fn embedding_distance_lower_bounds_effective_resistance() {
    // Eq. 20: z^emb computed from r−1 < N−1 eigenvectors never exceeds
    // the true effective resistance.
    let mut gen = Rng::seed_from_u64(3);
    for _ in 0..CASES {
        let (n, seed) = (draw(&mut gen, 8, 18), draw_seed(&mut gen, 300));
        let g = random_connected_graph(n, 3, seed);
        let emb = spectral_embedding(&g, 3, 0.0, &EmbeddingOptions::default()).unwrap();
        let eig = SymEig::compute(&laplacian_csr(&g).to_dense()).unwrap();
        let mut rng = Rng::seed_from_u64(seed);
        for _ in 0..5 {
            let s = rng.below(n);
            let t = rng.below(n);
            if s == t {
                continue;
            }
            // Exact resistance from the dense pseudoinverse.
            let mut r_exact = 0.0;
            for k in 1..n {
                let v = eig.vectors.column(k);
                let d = v[s] - v[t];
                r_exact += d * d / eig.values[k];
            }
            let z = emb.distance_sq(s, t);
            assert!(
                z <= r_exact * (1.0 + 1e-6) + 1e-9,
                "n={n} seed={seed}: z^emb {z} exceeds R_eff {r_exact}"
            );
        }
    }
}

#[test]
fn sensitivities_match_dense_gradient() {
    // Eq. 13 against the dense eigendecomposition, on the actual SGL
    // candidate pool of a random measurement set.
    let mut gen = Rng::seed_from_u64(4);
    for _ in 0..CASES {
        let (n, seed) = (draw(&mut gen, 8, 16), draw_seed(&mut gen, 300));
        let truth = random_connected_graph(n, n / 2, seed);
        let meas = Measurements::generate(&truth, 4, seed).unwrap();
        let knn = sgl_knn::build_knn_graph(meas.voltages(), 3);
        let tree = maximum_spanning_tree(&knn);
        let tree_graph = tree.to_graph(&knn);
        let width = 3.min(n - 2);
        let emb =
            spectral_embedding(&tree_graph, width, 0.0, &EmbeddingOptions::default()).unwrap();
        let pool = CandidatePool::from_off_tree(&knn, &tree, &meas);
        let sens = pool.sensitivities(&emb);
        let dense = SymEig::compute(&laplacian_csr(&tree_graph).to_dense()).unwrap();
        for (c, s) in pool.candidates().iter().zip(&sens) {
            let mut zemb = 0.0;
            for j in 1..=width {
                let col = dense.vectors.column(j);
                let d = col[c.u] - col[c.v];
                zemb += d * d / dense.values[j];
            }
            let want = zemb - c.zdata / 4.0;
            assert!(
                (s - want).abs() < 1e-4 * (1.0 + want.abs()),
                "n={n} seed={seed}: sensitivity {s} vs dense {want}"
            );
        }
    }
}

#[test]
fn noise_preserves_shapes_and_currents() {
    let mut gen = Rng::seed_from_u64(5);
    for _ in 0..CASES {
        let (n, zeta, seed) = (
            draw(&mut gen, 6, 15),
            gen.uniform_in(0.01, 0.8),
            draw_seed(&mut gen, 300),
        );
        let g = random_connected_graph(n, 2, seed);
        let meas = Measurements::generate(&g, 3, seed).unwrap();
        let noisy = meas.with_noise(zeta, seed ^ 1);
        assert_eq!(noisy.num_nodes(), meas.num_nodes());
        assert_eq!(noisy.num_measurements(), meas.num_measurements());
        // Currents untouched, relative voltage perturbation == zeta.
        assert_eq!(noisy.currents().unwrap(), meas.currents().unwrap());
        for j in 0..3 {
            let a = meas.voltage_vector(j);
            let b = noisy.voltage_vector(j);
            let rel = vecops::norm2(&vecops::sub(&a, &b)) / vecops::norm2(&a);
            assert!(
                (rel - zeta).abs() < 1e-9,
                "n={n} zeta={zeta} seed={seed}: relative perturbation {rel}"
            );
        }
    }
}

#[test]
fn resistance_estimators_agree_with_exact() {
    // The JL ResistanceSketch at the eq.-18 projection count stays within
    // the (1 ± ε) JL tolerance of ExactSolve, and the solver-free
    // SpectralSketch at full width matches to solver precision.
    let mut gen = Rng::seed_from_u64(6);
    for _ in 0..CASES {
        let (n, extra, seed) = (
            draw(&mut gen, 8, 20),
            draw(&mut gen, 2, 6),
            draw_seed(&mut gen, 300),
        );
        let g = random_connected_graph(n, extra, seed);
        let pairs = sgl_core::sample_node_pairs(n, 6, seed);
        let exact = sgl_core::pairwise_effective_resistances(&g, &pairs).unwrap();
        let spectral = sgl_core::SpectralSketch::build(&g, 0, seed).unwrap();
        for (k, &(s, t)) in pairs.iter().enumerate() {
            let est = spectral.estimate(s, t).unwrap();
            assert!(
                (est - exact[k]).abs() <= 1e-5 * (1.0 + exact[k].abs()),
                "n={n} extra={extra} seed={seed}: spectral ({s},{t}): {est} vs {}",
                exact[k]
            );
        }
        let eps = 0.5;
        let q = sgl_core::ResistanceSketch::recommended_projections(n, eps);
        let jl = sgl_core::ResistanceSketch::build(&g, q, seed ^ 0x9E37).unwrap();
        for (k, &(s, t)) in pairs.iter().enumerate() {
            let est = jl.estimate(s, t).unwrap();
            assert!(
                est >= (1.0 - eps) * exact[k] && est <= (1.0 + eps) * exact[k],
                "n={n} extra={extra} seed={seed}: jl ({s},{t}): {est} outside (1±ε)·{}",
                exact[k]
            );
        }
    }
}

#[test]
fn scaling_inverts_uniform_weight_distortion() {
    let mut gen = Rng::seed_from_u64(7);
    for _ in 0..CASES {
        let (n, factor, seed) = (
            draw(&mut gen, 8, 16),
            gen.uniform_in(0.05, 20.0),
            draw_seed(&mut gen, 300),
        );
        let truth = random_connected_graph(n, n / 3, seed);
        let meas = Measurements::generate(&truth, 6, seed).unwrap();
        let mut distorted = truth.clone();
        distorted.scale_weights(factor);
        let applied = sgl_core::spectral_edge_scaling(&mut distorted, &meas).unwrap();
        assert!(
            (applied * factor - 1.0).abs() < 1e-5,
            "n={n} factor={factor} seed={seed}: applied {applied}"
        );
    }
}
