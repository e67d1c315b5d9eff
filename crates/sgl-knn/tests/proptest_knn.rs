//! Seeded property tests for nearest-neighbor search and graph building.
//!
//! Each property runs on [`CASES`] fixed cases whose parameters are drawn
//! from an [`Rng`] seeded per property, so every run checks the same
//! cases and a failure names the parameters that reproduce it.

use sgl_knn::{build_knn_graph, BruteForceKnn};
use sgl_linalg::{vecops, DenseMatrix, Rng};
use std::collections::HashSet;

/// Cases per property.
const CASES: usize = 24;

/// A draw from `lo..hi`.
fn draw(gen: &mut Rng, lo: usize, hi: usize) -> usize {
    lo + gen.below(hi - lo)
}

/// A point-set seed from `0..1000`.
fn draw_seed(gen: &mut Rng) -> u64 {
    gen.below(1000) as u64
}

fn random_points(n: usize, d: usize, seed: u64) -> DenseMatrix {
    let mut rng = Rng::seed_from_u64(seed);
    DenseMatrix::from_fn(n, d, |_, _| rng.uniform())
}

#[test]
fn brute_force_is_exactly_sorted_and_correct() {
    let mut gen = Rng::seed_from_u64(1);
    for _ in 0..CASES {
        let (n, d, k, seed) = (
            draw(&mut gen, 3, 60),
            draw(&mut gen, 1, 6),
            draw(&mut gen, 1, 8),
            draw_seed(&mut gen),
        );
        let case = format!("n={n} d={d} k={k} seed={seed}");
        let x = random_points(n, d, seed);
        let idx = BruteForceKnn::new(&x);
        let mut rng = Rng::seed_from_u64(seed ^ 9);
        let probe = rng.below(n);
        let res = idx.knn_of_point(probe, k);
        assert_eq!(res.len(), k.min(n - 1), "{case}");
        // Sorted ascending and self-free.
        for w in res.windows(2) {
            assert!(w[0].1 <= w[1].1, "{case}: not sorted");
        }
        assert!(!res.iter().any(|&(i, _)| i == probe), "{case}: self-match");
        // The reported k-th distance lower-bounds every excluded point.
        if let Some(&(_, dk)) = res.last() {
            let in_set: HashSet<usize> = res.iter().map(|&(i, _)| i).collect();
            for j in 0..n {
                if j == probe || in_set.contains(&j) {
                    continue;
                }
                let dj = vecops::dist_sq(x.row(j), x.row(probe));
                assert!(dj >= dk - 1e-12, "{case}: point {j} closer than the k-th");
            }
        }
    }
}

#[test]
fn knn_graph_is_always_connected_with_positive_weights() {
    let mut gen = Rng::seed_from_u64(2);
    for _ in 0..CASES {
        let (n, k, seed) = (
            draw(&mut gen, 4, 80),
            draw(&mut gen, 1, 5),
            draw_seed(&mut gen),
        );
        let case = format!("n={n} k={k} seed={seed}");
        let x = random_points(n, 2, seed);
        let g = build_knn_graph(&x, k);
        assert_eq!(g.num_nodes(), n, "{case}");
        assert!(sgl_graph::traversal::is_connected(&g), "{case}");
        for e in g.edges() {
            assert!(
                e.weight > 0.0 && e.weight.is_finite(),
                "{case}: edge ({}, {}) weight {}",
                e.u,
                e.v,
                e.weight
            );
        }
        // At least k edges per node requested → at least ~n·k/2 edges
        // before symmetrization dedup; must be at least a spanning tree.
        assert!(g.num_edges() >= n - 1, "{case}: {} edges", g.num_edges());
    }
}
