//! Cross-crate contract of the parallel execution layer: parallelism
//! changes wall-clock, never results. The full learning loop, the
//! batched solve layer, and the kNN build must produce identical output
//! at every thread count — and two runs with the same config and seed
//! must agree exactly regardless of how many workers either used.

use sgl::prelude::*;
use sgl_core::resistance::{sample_node_pairs, ResistanceEstimator, SpectralSketch};
use sgl_graph::Graph;
use sgl_knn::build_knn_graph;
use sgl_linalg::{par, vecops, DenseMatrix, Rng};
use sgl_multilevel::{spectral_affinity_aggregate, AggregationOptions};

fn learn_with_threads(parallelism: usize, seed: u64) -> LearnResult {
    let truth = sgl_datasets::grid2d(9, 9);
    let meas = Measurements::generate(&truth, 20, seed).unwrap();
    let cfg = SglConfig::builder()
        .tol(1e-6)
        .max_iterations(80)
        .parallelism(parallelism)
        .build()
        .unwrap();
    Sgl::new(cfg).learn(&meas).unwrap()
}

fn assert_graphs_identical(a: &Graph, b: &Graph, what: &str) {
    assert_eq!(a.num_edges(), b.num_edges(), "{what}: edge count");
    for (ea, eb) in a.edges().iter().zip(b.edges()) {
        assert_eq!((ea.u, ea.v), (eb.u, eb.v), "{what}: topology");
        assert_eq!(
            ea.weight, eb.weight,
            "{what}: weights must be bit-identical"
        );
    }
}

#[test]
fn learned_graph_is_identical_at_any_thread_count() {
    let serial = learn_with_threads(1, 5);
    for threads in [2usize, 4, 0] {
        let par_run = learn_with_threads(threads, 5);
        assert_graphs_identical(
            &serial.graph,
            &par_run.graph,
            &format!("parallelism={threads}"),
        );
        assert_eq!(serial.trace, par_run.trace, "parallelism={threads}: trace");
        assert_eq!(serial.scale_factor, par_run.scale_factor);
    }
}

#[test]
fn two_runs_same_seed_agree_across_thread_counts() {
    // The determinism contract as a user sees it: same config + seed ⇒
    // same learned graph, no matter which machine/thread-count ran it.
    let a = learn_with_threads(3, 11);
    let b = learn_with_threads(2, 11);
    assert_graphs_identical(&a.graph, &b.graph, "3 vs 2 workers");
}

#[test]
fn knn_graph_identical_at_any_thread_count() {
    let mut rng = Rng::seed_from_u64(3);
    let x = DenseMatrix::from_fn(150, 6, |_, _| rng.standard_normal());
    let serial = par::with_threads(1, || build_knn_graph(&x, 5));
    for threads in [2usize, 5] {
        let g = par::with_threads(threads, || build_knn_graph(&x, 5));
        assert_graphs_identical(&serial, &g, &format!("knn at {threads} threads"));
    }
}

/// A random spanning tree on 60 nodes plus 4 chords: a near-tree inside
/// the tree preconditioner's exactness rule (`k² ≤ 16·n`), which the
/// grid starts are not.
fn near_tree() -> Graph {
    let n = 60;
    let mut rng = Rng::seed_from_u64(60);
    let mut g = Graph::new(n);
    for v in 1..n {
        g.add_edge(rng.below(v), v, 0.2 + rng.uniform());
    }
    while g.num_edges() < n - 1 + 4 {
        let (u, v) = (rng.below(n), rng.below(n));
        if u != v && !g.has_edge(u, v) {
            g.add_edge(u, v, 0.2 + rng.uniform());
        }
    }
    g
}

#[test]
fn batched_solves_identical_under_ambient_scope() {
    for (g, method) in [
        (sgl_datasets::grid2d(8, 8), "amg-pcg"),
        (near_tree(), "tree-pcg"),
    ] {
        let n = g.num_nodes();
        let mut rng = Rng::seed_from_u64(9);
        let rhs: Vec<Vec<f64>> = (0..5)
            .map(|_| {
                let mut b = rng.normal_vec(n);
                vecops::project_out_mean(&mut b);
                b
            })
            .collect();
        let handle = SolverPolicy::default().build_handle(&g).unwrap();
        assert_eq!(handle.method_name(), method);
        let serial = par::with_threads(1, || handle.solve_batch(&rhs).unwrap());
        for threads in [2usize, 4] {
            let par_xs = par::with_threads(threads, || handle.solve_batch(&rhs).unwrap());
            assert_eq!(par_xs, serial, "{method}, threads = {threads}");
        }
    }
}

#[test]
fn pairwise_resistances_identical_at_any_thread_count() {
    let g = sgl_datasets::grid2d(7, 7);
    let sketch = SpectralSketch::build(&g, 0, 2).unwrap();
    let pairs = sample_node_pairs(49, 200, 4);
    let serial = par::with_threads(1, || sketch.resistances(&pairs).unwrap());
    let par_rs = par::with_threads(4, || sketch.resistances(&pairs).unwrap());
    assert_eq!(par_rs, serial);
}

#[test]
fn served_snapshot_queries_identical_at_any_thread_count() {
    // The serving layer inherits the determinism contract: a pinned
    // GraphSnapshot answers resistance and interpolation queries
    // bit-identically at every ambient worker count, and the serve
    // handle path reproduces the direct snapshot path.
    let truth = sgl_datasets::grid2d(8, 8);
    let meas = Measurements::generate(&truth, 15, 3).unwrap();
    let cfg = SglConfig::builder()
        .tol(0.0)
        .max_iterations(5)
        .build()
        .unwrap();
    let mut session = SglSession::from_owned(cfg, meas).unwrap();
    session.run_to_completion().unwrap();
    let server = SglServer::new(session, ServeOptions::default()).unwrap();
    let snap = server.handle().snapshot();

    let pairs = sample_node_pairs(64, 40, 8);
    let mut injection = vec![0.0; 64];
    injection[0] = 1.0;
    injection[63] = -1.0;

    let serial_r = par::with_threads(1, || snap.resistances(&pairs).unwrap());
    let serial_v = par::with_threads(1, || snap.interpolate(&injection).unwrap());
    for threads in [2usize, 4] {
        let par_r = par::with_threads(threads, || snap.resistances(&pairs).unwrap());
        let par_v = par::with_threads(threads, || snap.interpolate(&injection).unwrap());
        assert_eq!(par_r, serial_r, "resistances at {threads} threads");
        assert_eq!(par_v, serial_v, "interpolation at {threads} threads");
    }

    let handle = server.handle();
    assert_eq!(handle.resistances(&pairs).unwrap().value, serial_r);
    assert_eq!(handle.interpolate(&injection).unwrap().value, serial_v);
}

#[test]
fn clustering_partitions_identical_at_any_thread_count() {
    use sgl_core::clustering::{kmeans, spectral_clustering};
    // kmeans on raw rows and the full spectral pipeline: the partition
    // must not depend on the ambient worker count.
    let mut rng = Rng::seed_from_u64(21);
    let data = DenseMatrix::from_fn(120, 4, |_, _| rng.standard_normal());
    let serial_km = par::with_threads(1, || kmeans(&data, 4, 7, 100));
    let ambient_km = kmeans(&data, 4, 7, 100);
    assert_eq!(serial_km.labels, ambient_km.labels);

    let g = sgl_datasets::grid2d(9, 9);
    let serial = par::with_threads(1, || spectral_clustering(&g, 3, 5).unwrap());
    let ambient = spectral_clustering(&g, 3, 5).unwrap();
    let par4 = par::with_threads(4, || spectral_clustering(&g, 3, 5).unwrap());
    assert_eq!(serial, ambient);
    assert_eq!(serial, par4);
}

#[test]
fn spectral_aggregation_partitions_identical_at_any_thread_count() {
    use sgl_graph::laplacian::LaplacianOp;
    use sgl_linalg::filter::{smoothed_test_vectors, FilterOptions};
    let g = sgl_datasets::grid2d(12, 12);
    let aggregate = || {
        let vectors = smoothed_test_vectors(
            &LaplacianOp::new(&g),
            &g.weighted_degrees(),
            &FilterOptions::default(),
        );
        spectral_affinity_aggregate(&g, &vectors, &AggregationOptions::default()).unwrap()
    };
    let serial = par::with_threads(1, aggregate);
    let ambient = aggregate();
    let par4 = par::with_threads(4, aggregate);
    assert_eq!(serial.partition(), ambient.partition());
    assert_eq!(serial.partition(), par4.partition());
    assert_eq!(serial.num_coarse(), par4.num_coarse());
}
