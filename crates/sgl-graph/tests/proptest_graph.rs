//! Seeded property tests for the graph substrate.
//!
//! Each property runs on [`CASES`] fixed cases whose parameters are drawn
//! from an [`Rng`] seeded per property, so every run checks the same
//! cases and a failure names the parameters that reproduce it.

use sgl_graph::laplacian::{laplacian_csr, LaplacianOp};
use sgl_graph::mst::{maximum_spanning_tree, minimum_spanning_tree};
use sgl_graph::traversal::{bfs_distances, connected_components};
use sgl_graph::tree::RootedTree;
use sgl_graph::{Graph, UnionFind};
use sgl_linalg::{vecops, LinearOperator, Rng};

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

fn random_graph(n: usize, extra: usize, seed: u64, connected: bool) -> Graph {
    let mut rng = Rng::seed_from_u64(seed);
    let mut g = Graph::new(n);
    if connected {
        for v in 1..n {
            let u = rng.below(v);
            g.add_edge(u, v, 0.1 + rng.uniform() * 9.9);
        }
    }
    let mut tries = 0;
    let mut added = 0;
    while added < extra && tries < 20 * extra + 20 {
        tries += 1;
        let u = rng.below(n);
        let v = rng.below(n);
        if u != v && !g.has_edge(u, v) {
            g.add_edge(u, v, 0.1 + rng.uniform() * 9.9);
            added += 1;
        }
    }
    g
}

#[test]
fn laplacian_rows_sum_to_zero_and_psd() {
    let mut gen = Rng::seed_from_u64(1);
    for _ in 0..CASES {
        let (n, extra, seed) = (
            draw(&mut gen, 2, 25),
            draw(&mut gen, 0, 30),
            draw_seed(&mut gen),
        );
        let case = format!("n={n} extra={extra} seed={seed}");
        let g = random_graph(n, extra, seed, true);
        let l = laplacian_csr(&g);
        let ones = vec![1.0; n];
        assert!(vecops::norm2(&l.matvec(&ones)) < 1e-10, "{case}: row sums");
        // Quadratic form non-negative for random vectors.
        let mut rng = Rng::seed_from_u64(seed ^ 7);
        for _ in 0..5 {
            let x = rng.normal_vec(n);
            assert!(l.quadratic_form(&x) >= -1e-10, "{case}: not PSD");
        }
        // Matrix-free operator agrees with CSR.
        let op = LaplacianOp::new(&g);
        let x = rng.normal_vec(n);
        let a = l.matvec(&x);
        let b = op.apply_vec(&x);
        for i in 0..n {
            assert!((a[i] - b[i]).abs() < 1e-12, "{case}: operator row {i}");
        }
    }
}

#[test]
fn spanning_tree_structure() {
    let mut gen = Rng::seed_from_u64(2);
    for _ in 0..CASES {
        let (n, extra, seed) = (
            draw(&mut gen, 2, 30),
            draw(&mut gen, 0, 40),
            draw_seed(&mut gen),
        );
        let case = format!("n={n} extra={extra} seed={seed}");
        let g = random_graph(n, extra, seed, true);
        let t = maximum_spanning_tree(&g);
        assert_eq!(t.num_components, 1, "{case}");
        assert_eq!(t.edge_indices.len(), n - 1, "{case}");
        // Tree + off-tree = all edges.
        assert_eq!(
            t.edge_indices.len() + t.off_tree_edges().len(),
            g.num_edges(),
            "{case}"
        );
        // Max tree outweighs min tree.
        let tmin = minimum_spanning_tree(&g);
        let wmax: f64 = t.edge_indices.iter().map(|&i| g.edge(i).weight).sum();
        let wmin: f64 = tmin.edge_indices.iter().map(|&i| g.edge(i).weight).sum();
        assert!(wmax >= wmin - 1e-12, "{case}: {wmax} < {wmin}");
        // The tree graph is connected and acyclic.
        let tg = t.to_graph(&g);
        assert_eq!(connected_components(&tg).num_components, 1, "{case}");
    }
}

#[test]
fn component_labels_partition_nodes() {
    let mut gen = Rng::seed_from_u64(3);
    for _ in 0..CASES {
        let (n, extra, seed) = (
            draw(&mut gen, 1, 30),
            draw(&mut gen, 0, 20),
            draw_seed(&mut gen),
        );
        let case = format!("n={n} extra={extra} seed={seed}");
        let g = random_graph(n, extra, seed, false);
        let c = connected_components(&g);
        assert_eq!(c.labels.len(), n, "{case}");
        // Each edge joins same-component nodes.
        for e in g.edges() {
            assert_eq!(c.labels[e.u], c.labels[e.v], "{case}");
        }
        // Union-find agrees with BFS labelling.
        let mut uf = UnionFind::new(n);
        for e in g.edges() {
            uf.union(e.u, e.v);
        }
        assert_eq!(uf.num_sets(), c.num_components, "{case}");
    }
}

#[test]
fn bfs_distance_triangle_inequality_on_edges() {
    let mut gen = Rng::seed_from_u64(4);
    for _ in 0..CASES {
        let (n, extra, seed) = (
            draw(&mut gen, 2, 25),
            draw(&mut gen, 0, 25),
            draw_seed(&mut gen),
        );
        let g = random_graph(n, extra, seed, true);
        let d = bfs_distances(&g, 0);
        for e in g.edges() {
            assert!(
                d[e.u].abs_diff(d[e.v]) <= 1,
                "n={n} extra={extra} seed={seed}: edge ({}, {})",
                e.u,
                e.v
            );
        }
    }
}

#[test]
fn rooted_tree_path_resistance_is_symmetric_metric() {
    let mut gen = Rng::seed_from_u64(5);
    for _ in 0..CASES {
        let (n, seed) = (draw(&mut gen, 2, 20), draw_seed(&mut gen));
        let g = random_graph(n, 0, seed, true);
        let t = RootedTree::from_tree_graph(&g, 0);
        let mut rng = Rng::seed_from_u64(seed ^ 3);
        for _ in 0..5 {
            let a = rng.below(n);
            let b = rng.below(n);
            let case = format!("n={n} seed={seed} a={a} b={b}");
            let rab = t.path_resistance(a, b);
            let rba = t.path_resistance(b, a);
            assert!((rab - rba).abs() < 1e-12, "{case}: asymmetric");
            if a != b {
                assert!(rab > 0.0, "{case}");
            } else {
                assert_eq!(rab, 0.0, "{case}");
            }
            // Triangle inequality through a third node.
            let c = rng.below(n);
            assert!(
                rab <= t.path_resistance(a, c) + t.path_resistance(c, b) + 1e-12,
                "{case} c={c}: triangle inequality"
            );
        }
    }
}

#[test]
fn matrix_market_roundtrip() {
    // The writer prints `{:.17e}`, which round-trips every f64 exactly.
    let mut gen = Rng::seed_from_u64(6);
    for _ in 0..CASES {
        let (n, extra, seed) = (
            draw(&mut gen, 2, 15),
            draw(&mut gen, 0, 15),
            draw_seed(&mut gen),
        );
        let case = format!("n={n} extra={extra} seed={seed}");
        let g = random_graph(n, extra, seed, true);
        let mut buf = Vec::new();
        sgl_graph::io::write_matrix_market(&mut buf, &g).unwrap();
        let g2 = sgl_graph::io::read_matrix_market(
            std::io::Cursor::new(buf),
            sgl_graph::io::MatrixKind::Adjacency,
        )
        .unwrap();
        assert_eq!(g2.num_nodes(), g.num_nodes(), "{case}");
        assert_eq!(g2.num_edges(), g.num_edges(), "{case}");
        for e in g.edges() {
            let i = g2.find_edge(e.u, e.v).unwrap();
            assert_eq!(
                g2.edge(i).weight.to_bits(),
                e.weight.to_bits(),
                "{case}: edge ({}, {})",
                e.u,
                e.v
            );
        }
    }
}
