//! Cross-crate property-based tests (proptest): randomized structural
//! invariants of the measurement pipeline and the learning loop.

// Requires the external `proptest` crate: compiled only with
// `--features property-tests` in a networked environment.
#![cfg(feature = "property-tests")]

use proptest::prelude::*;
use sgl::prelude::*;
use sgl_core::sensitivity::CandidatePool;
use sgl_core::{spectral_embedding, EmbeddingOptions};
use sgl_graph::laplacian::laplacian_csr;
use sgl_graph::mst::maximum_spanning_tree;
use sgl_graph::Graph;
use sgl_linalg::{vecops, Rng, SymEig};

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn measurements_satisfy_laplacian_equation(
        n in 6usize..20,
        m in 2usize..6,
        seed in 0u64..500,
    ) {
        let g = random_connected_graph(n, n / 2, seed);
        let meas = Measurements::generate(&g, m, seed).unwrap();
        let l = laplacian_csr(&g);
        for j in 0..m {
            let x = meas.voltage_vector(j);
            let lx = l.matvec(&x);
            let y = meas.currents().unwrap().column(j);
            for i in 0..n {
                prop_assert!((lx[i] - y[i]).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn max_spanning_tree_beats_random_spanning_tree(
        n in 5usize..25,
        seed in 0u64..500,
    ) {
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
        prop_assert!(mst_weight >= rnd_weight - 1e-12);
    }

    #[test]
    fn embedding_distance_lower_bounds_effective_resistance(
        n in 8usize..18,
        seed in 0u64..300,
    ) {
        // Eq. 20: z^emb computed from r−1 < N−1 eigenvectors never
        // exceeds the true effective resistance.
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
            prop_assert!(
                z <= r_exact * (1.0 + 1e-6) + 1e-9,
                "z^emb {} exceeds R_eff {}",
                z,
                r_exact
            );
        }
    }

    #[test]
    fn sensitivities_match_dense_gradient(
        n in 8usize..16,
        seed in 0u64..300,
    ) {
        // Eq. 13 against the dense eigendecomposition, on the actual
        // SGL candidate pool of a random measurement set.
        let truth = random_connected_graph(n, n / 2, seed);
        let meas = Measurements::generate(&truth, 4, seed).unwrap();
        let knn = sgl_knn::build_knn_graph(
            meas.voltages(),
            &sgl_knn::KnnGraphConfig { k: 3, ..Default::default() },
        );
        let tree = maximum_spanning_tree(&knn);
        let tree_graph = tree.to_graph(&knn);
        let width = 3.min(n - 2);
        let emb = spectral_embedding(&tree_graph, width, 0.0, &EmbeddingOptions::default())
            .unwrap();
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
            prop_assert!((s - want).abs() < 1e-4 * (1.0 + want.abs()));
        }
    }

    #[test]
    fn noise_preserves_shapes_and_currents(
        n in 6usize..15,
        zeta in 0.01f64..0.8,
        seed in 0u64..300,
    ) {
        let g = random_connected_graph(n, 2, seed);
        let meas = Measurements::generate(&g, 3, seed).unwrap();
        let noisy = meas.with_noise(zeta, seed ^ 1);
        prop_assert_eq!(noisy.num_nodes(), meas.num_nodes());
        prop_assert_eq!(noisy.num_measurements(), meas.num_measurements());
        // Currents untouched, relative voltage perturbation == zeta.
        prop_assert_eq!(noisy.currents().unwrap(), meas.currents().unwrap());
        for j in 0..3 {
            let a = meas.voltage_vector(j);
            let b = noisy.voltage_vector(j);
            let rel = vecops::norm2(&vecops::sub(&a, &b)) / vecops::norm2(&a);
            prop_assert!((rel - zeta).abs() < 1e-9);
        }
    }

    #[test]
    fn resistance_estimators_agree_with_exact(
        n in 8usize..20,
        extra in 2usize..6,
        seed in 0u64..300,
    ) {
        // JlSketch at the eq.-18 projection count stays within the
        // (1 ± ε) JL tolerance of ExactSolve, and the solver-free
        // SpectralSketch at full width matches to solver precision.
        let g = random_connected_graph(n, extra, seed);
        let pairs = sgl_core::sample_node_pairs(n, 6, seed);
        let exact = sgl_core::pairwise_effective_resistances(&g, &pairs).unwrap();
        let spectral = sgl_core::SpectralSketch::build(&g, 0, seed).unwrap();
        for (k, &(s, t)) in pairs.iter().enumerate() {
            let est = spectral.estimate(s, t).unwrap();
            prop_assert!(
                (est - exact[k]).abs() <= 1e-5 * (1.0 + exact[k].abs()),
                "spectral ({s},{t}): {} vs {}",
                est,
                exact[k]
            );
        }
        let eps = 0.5;
        let q = sgl_core::ResistanceSketch::recommended_projections(n, eps);
        let jl = sgl_core::ResistanceSketch::build(&g, q, seed ^ 0x9E37).unwrap();
        for (k, &(s, t)) in pairs.iter().enumerate() {
            let est = jl.estimate(s, t).unwrap();
            prop_assert!(
                est >= (1.0 - eps) * exact[k] && est <= (1.0 + eps) * exact[k],
                "jl ({s},{t}): {} outside (1±ε)·{}",
                est,
                exact[k]
            );
        }
    }

    #[test]
    fn solver_backends_agree_on_small_random_graphs(
        n in 6usize..20,
        extra in 0usize..8,
        seed in 0u64..300,
    ) {
        use sgl_core::{PolicyMethod, SolverPolicy};
        let g = random_connected_graph(n, extra, seed);
        let mut rng = Rng::seed_from_u64(seed ^ 0xF00);
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
            PolicyMethod::JacobiPcg,
        ] {
            let h = SolverPolicy::default()
                .with_method(method)
                .build_handle(&g)
                .unwrap();
            let x = h.solve(&b).unwrap();
            let d = vecops::sub(&x, &reference);
            prop_assert!(
                vecops::norm2(&d) / vecops::norm2(&reference).max(1e-300) < 1e-6,
                "{:?} disagrees with the dense reference",
                method
            );
        }
    }

    #[test]
    fn scaling_inverts_uniform_weight_distortion(
        n in 8usize..16,
        factor in 0.05f64..20.0,
        seed in 0u64..300,
    ) {
        let truth = random_connected_graph(n, n / 3, seed);
        let meas = Measurements::generate(&truth, 6, seed).unwrap();
        let mut distorted = truth.clone();
        distorted.scale_weights(factor);
        let applied = sgl_core::spectral_edge_scaling(&mut distorted, &meas).unwrap();
        prop_assert!((applied * factor - 1.0).abs() < 1e-5);
    }
}
