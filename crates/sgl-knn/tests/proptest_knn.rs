//! Seeded property tests for nearest-neighbor search and graph building.
//!
//! Each property runs on [`CASES`] fixed cases whose parameters are drawn
//! from an [`Rng`] seeded per property, so every run checks the same
//! cases and a failure names the parameters that reproduce it.

use sgl_graph::traversal::connected_components;
use sgl_graph::Graph;
use sgl_knn::{build_knn_graph, BruteForceKnn};
use sgl_linalg::{par, vecops, DenseMatrix, Rng};
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

/// Row `i`'s `k` nearest other rows: every candidate sorted by
/// `(distance, index)`, then cut at `k`.
fn sorted_reference(x: &DenseMatrix, i: usize, k: usize) -> Vec<(usize, f64)> {
    let mut all: Vec<(usize, f64)> = (0..x.nrows())
        .filter(|&j| j != i)
        .map(|j| (j, vecops::dist_sq(x.row(i), x.row(j))))
        .collect();
    all.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
    all.truncate(k);
    all
}

/// A point set of one of four shapes: a random cloud, a cloud of rows
/// drawn from a few distinct ones (exact duplicates), a small-integer
/// lattice (exact distance ties everywhere), or a tiny set with `n = 2`
/// or `d = 1`. Sizes straddle the 8-point lanes and 64-row tiles.
fn shaped_points(shape: usize, gen: &mut Rng) -> (DenseMatrix, String) {
    let seed = draw_seed(gen);
    let mut rng = Rng::seed_from_u64(seed);
    let (n, d) = match shape {
        3 => (draw(gen, 2, 4), 1),
        _ => (draw(gen, 2, 200), draw(gen, 1, 6)),
    };
    let x = match shape {
        0 | 3 => DenseMatrix::from_fn(n, d, |_, _| rng.uniform()),
        1 => {
            let pool = DenseMatrix::from_fn(draw(gen, 1, 6), d, |_, _| rng.uniform());
            let rows: Vec<Vec<f64>> = (0..n)
                .map(|_| pool.row(rng.below(pool.nrows())).to_vec())
                .collect();
            DenseMatrix::from_rows(&rows)
        }
        _ => DenseMatrix::from_fn(n, d, |_, _| rng.below(3) as f64),
    };
    (x, format!("shape={shape} n={n} d={d} seed={seed}"))
}

#[test]
fn all_knn_equals_the_sorted_reference_at_any_thread_count() {
    let mut gen = Rng::seed_from_u64(3);
    for case in 0..4 * CASES {
        let (x, what) = shaped_points(case % 4, &mut gen);
        let n = x.nrows();
        // k from 1 up to past n − 1.
        let k = draw(&mut gen, 1, n.min(9) + 2);
        let idx = BruteForceKnn::new(&x);
        for threads in [1usize, 2, 3] {
            let tables = par::with_threads(threads, || idx.all_knn(k));
            assert_eq!(tables.len(), n, "{what}");
            for (i, table) in tables.iter().enumerate() {
                let want = sorted_reference(&x, i, k);
                assert_eq!(table, &want, "{what} k={k} threads={threads} row {i}");
                for &(j, dist) in table {
                    assert_eq!(
                        dist.to_bits(),
                        vecops::dist_sq(x.row(i), x.row(j)).to_bits(),
                        "{what} k={k} threads={threads} pair ({i}, {j})"
                    );
                }
            }
            if threads == 1 {
                for i in [0, n / 2, n - 1] {
                    assert_eq!(idx.knn_of_point(i, k), tables[i], "{what} k={k} row {i}");
                }
            }
        }
    }
}

/// The per-query scan of earlier releases, kept as a reference: it sorts
/// by distance alone, so it only defines the tables when no two
/// candidates tie.
fn legacy_scan(x: &DenseMatrix, query: usize, k: usize) -> Vec<(usize, f64)> {
    let mut best: Vec<(usize, f64)> = Vec::with_capacity(k + 1);
    for i in 0..x.nrows() {
        if i == query {
            continue;
        }
        let d = vecops::dist_sq(x.row(i), x.row(query));
        if best.len() < k {
            best.push((i, d));
            best.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap());
        } else if let Some(last) = best.last() {
            if d < last.1 {
                best.pop();
                let pos = best
                    .binary_search_by(|p| p.1.partial_cmp(&d).unwrap())
                    .unwrap_or_else(|e| e);
                best.insert(pos, (i, d));
            }
        }
    }
    best
}

#[test]
fn all_knn_matches_the_legacy_scan_on_tie_free_clouds() {
    let mut gen = Rng::seed_from_u64(4);
    for _ in 0..CASES {
        let (n, d, k, seed) = (
            draw(&mut gen, 2, 300),
            draw(&mut gen, 1, 24),
            draw(&mut gen, 1, 10),
            draw_seed(&mut gen),
        );
        let case = format!("n={n} d={d} k={k} seed={seed}");
        let x = random_points(n, d, seed);
        let tables = par::with_threads(2, || BruteForceKnn::new(&x).all_knn(k));
        for (i, table) in tables.iter().enumerate() {
            assert_eq!(*table, legacy_scan(&x, i, k), "{case}: row {i}");
        }
    }
}

/// The kNN graph build of earlier releases, kept as a reference: tables
/// from [`sorted_reference`], a fully sorted median, and a serial repair
/// that joins each non-largest component through the first
/// minimum-distance pair of its `(u, v)` scan.
fn reference_build(x: &DenseMatrix, k: usize) -> Graph {
    let (n, m) = (x.nrows(), x.ncols());
    let tables: Vec<_> = (0..n).map(|i| sorted_reference(x, i, k)).collect();
    let mut all_d: Vec<f64> = tables
        .iter()
        .flat_map(|t| t.iter().map(|&(_, d)| d))
        .filter(|&d| d > 0.0)
        .collect();
    all_d.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let median = all_d.get(all_d.len() / 2).copied().unwrap_or(1.0);
    let floor = (median * 1e-8).max(f64::MIN_POSITIVE);
    let mut g = Graph::new(n);
    for (i, table) in tables.iter().enumerate() {
        for &(j, d) in table {
            if g.find_edge(i, j).is_none() {
                g.add_edge(i, j, m as f64 / d.max(floor));
            }
        }
    }
    loop {
        let comps = connected_components(&g);
        if comps.num_components <= 1 {
            return g;
        }
        let largest = comps.largest();
        for (cid, nodes) in comps.groups().iter().enumerate() {
            if cid == largest {
                continue;
            }
            let mut best: Option<(usize, usize, f64)> = None;
            for &u in nodes {
                for v in 0..n {
                    if comps.labels[v] == cid {
                        continue;
                    }
                    let d = vecops::dist_sq(x.row(u), x.row(v));
                    if best.is_none_or(|(_, _, bd)| d < bd) {
                        best = Some((u, v, d));
                    }
                }
            }
            let (u, v, d) = best.expect("a component has an outside");
            g.add_edge(u, v, m as f64 / d.max(f64::MIN_POSITIVE));
        }
    }
}

/// Separated clusters of random points, or of small-integer lattice
/// points whose distances tie exactly, so the repair's first-minimum
/// rule decides which pair joins two components.
#[test]
fn repair_adds_the_reference_edges_on_separated_clusters() {
    let mut gen = Rng::seed_from_u64(5);
    for case in 0..2 * CASES {
        let (clusters, d, k, seed) = (
            draw(&mut gen, 2, 6),
            draw(&mut gen, 1, 8),
            draw(&mut gen, 1, 4),
            draw_seed(&mut gen),
        );
        let lattice = case % 2 == 1;
        let mut rng = Rng::seed_from_u64(seed);
        let mut rows = Vec::new();
        for c in 0..clusters {
            let size = draw(&mut gen, 2, 60);
            for _ in 0..size {
                let mut row: Vec<f64> = (0..d)
                    .map(|_| {
                        if lattice {
                            rng.below(3) as f64
                        } else {
                            rng.uniform()
                        }
                    })
                    .collect();
                row[0] += 100.0 * c as f64;
                rows.push(row);
            }
        }
        let x = DenseMatrix::from_rows(&rows);
        let case = format!(
            "clusters={clusters} n={} d={d} k={k} lattice={lattice} seed={seed}",
            x.nrows()
        );
        let want = reference_build(&x, k);
        assert!(
            connected_components(&want).num_components == 1,
            "{case}: reference left the graph split"
        );
        for threads in [1usize, 3] {
            let got = par::with_threads(threads, || build_knn_graph(&x, k));
            assert_eq!(
                got.num_edges(),
                want.num_edges(),
                "{case} threads={threads}"
            );
            for (a, b) in got.edges().iter().zip(want.edges()) {
                assert_eq!(
                    (a.u, a.v, a.weight.to_bits()),
                    (b.u, b.v, b.weight.to_bits()),
                    "{case} threads={threads}"
                );
            }
        }
    }
}
