//! Step 1 of the SGL pipeline: build a connected, weighted kNN graph from
//! the voltage measurement matrix.
//!
//! Edge weights follow eq. (15) of the paper: `w_{s,t} = M / z^data_{s,t}`
//! with `z^data_{s,t} = ‖X^T e_{s,t}‖²` the squared distance between the
//! two nodes' measurement rows. A tiny relative floor keeps weights finite
//! when two rows coincide. If the raw kNN graph is disconnected, the
//! smaller components are stitched to the rest through their closest
//! outside pair (searched exactly), so downstream spanning-tree and
//! Laplacian machinery always sees a connected graph.

use crate::brute::all_knn;
use crate::kernel::{block, Panels, LANES};
use sgl_graph::traversal::connected_components;
use sgl_graph::Graph;
use sgl_linalg::{par, DenseMatrix};

/// Floor for squared neighbor distances, relative to the median one
/// (guards duplicate rows).
const DIST_FLOOR_REL: f64 = 1e-8;

/// Row pairs per parallel chunk of a repair scan.
const REPAIR_MIN_CHUNK: usize = 4;

/// Build the weighted kNN graph over the rows of `x` (an `N × M`
/// measurement matrix) with `k` neighbors per node (the paper uses
/// `k = 5`).
///
/// There is no per-call thread knob: the search and the repair fan out
/// over the shared [`par`] layer, so the ambient thread count
/// (`SglConfig::parallelism`, a [`par::with_threads`] scope, or
/// `SGL_NUM_THREADS`) governs them like every other parallel stage.
///
/// When the [`sgl_trace`] recorder is on, each call records one
/// `knn_build` span holding a `knn_search` span (the neighbor tables) and
/// a `knn_repair` span (the connectivity repair).
///
/// # Panics
/// Panics if `x` has fewer than 2 rows, zero columns, or `k == 0`.
pub fn build_knn_graph(x: &DenseMatrix, k: usize) -> Graph {
    let n = x.nrows();
    let m = x.ncols();
    assert!(n >= 2, "knn graph needs at least two nodes");
    assert!(m >= 1, "knn graph needs at least one measurement column");
    assert!(k >= 1, "k must be positive");
    let _build = sgl_trace::span!("knn_build", count = n);

    let tables = {
        let _search = sgl_trace::span!("knn_search", count = n);
        all_knn(x, k)
    };

    // Distance floor: relative to the median neighbor distance.
    let mut all_d: Vec<f64> = tables
        .iter()
        .flat_map(|t| t.iter().map(|&(_, d)| d))
        .filter(|&d| d > 0.0)
        .collect();
    let median = if all_d.is_empty() {
        1.0
    } else {
        let mid = all_d.len() / 2;
        *all_d.select_nth_unstable_by(mid, f64::total_cmp).1
    };
    let floor = (median * DIST_FLOOR_REL).max(f64::MIN_POSITIVE);

    let mut g = Graph::new(n);
    for (i, table) in tables.iter().enumerate() {
        for &(j, d) in table {
            // A mutual pair sits in both rows' tables with the same
            // distance bits, so the first occurrence makes the edge and
            // the reverse one is skipped (add_edge would sum the two).
            if g.find_edge(i, j).is_none() {
                g.add_edge(i, j, m as f64 / d.max(floor));
            }
        }
    }
    let _repair = sgl_trace::span!("knn_repair", count = n);
    repair_connectivity(&mut g, x);
    g
}

/// Connect all components by adding, for each non-largest component, its
/// minimum-distance edge to the outside: the first minimum in `(u, v)`
/// order, `u` over the component's nodes and `v` over every node outside
/// it, both ascending. Components need not be small (the 1500-point
/// benchmark cloud's 5-NN graph splits into four of 375 nodes), so each
/// search runs the blocked kernel against a packed copy of the outside
/// points, in parallel across the component's rows.
fn repair_connectivity(g: &mut Graph, x: &DenseMatrix) {
    let m = x.ncols();
    loop {
        let comps = connected_components(g);
        if comps.num_components <= 1 {
            return;
        }
        let largest = comps.largest();
        for (cid, nodes) in comps.groups().iter().enumerate() {
            if cid == largest {
                continue;
            }
            let outside: Vec<usize> = (0..x.nrows()).filter(|&v| comps.labels[v] != cid).collect();
            let (u, v, d) = closest_pair(x, nodes, &outside);
            g.add_edge(u, v, m as f64 / d.max(f64::MIN_POSITIVE));
        }
    }
}

/// The first minimum-distance pair `(u, v, dist²)` in `(u, v)` order,
/// with `u` from `inside` and `v` from `outside` (both non-empty).
fn closest_pair(x: &DenseMatrix, inside: &[usize], outside: &[usize]) -> (usize, usize, f64) {
    let panels = Panels::pack(x, outside);
    // Each row's first minimum over the outside points, two rows a block
    // (an odd last row runs as its own partner, and the zip below drops
    // the copy): per lane, panel 0 seeds the minimum and a later panel
    // replaces it only when strictly closer.
    let rows = par::map_indexed(inside.len().div_ceil(2), REPAIR_MIN_CHUNK, |b| {
        let a0 = x.row(inside[2 * b]);
        let a1 = x.row(inside[(2 * b + 1).min(inside.len() - 1)]);
        let mut best = block(a0, a1, panels.panel(0));
        let mut at = [[0usize; LANES]; 2];
        for p in 1..panels.num_panels() {
            let s = block(a0, a1, panels.panel(p));
            // Rarely true once the minima settle, so test it branch-free.
            let mut closer = false;
            for (sr, br) in s.iter().zip(&best) {
                for (a, b) in sr.iter().zip(br) {
                    closer |= a < b;
                }
            }
            if !closer {
                continue;
            }
            for r in 0..2 {
                for l in 0..LANES {
                    if s[r][l] < best[r][l] {
                        best[r][l] = s[r][l];
                        at[r][l] = p;
                    }
                }
            }
        }
        [0, 1].map(|r| {
            (0..LANES)
                .map(|l| (best[r][l], at[r][l] * LANES + l))
                .filter(|&(_, v)| v < panels.len())
                .min_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)))
                .expect("outside is non-empty")
        })
    });
    let (&u, &(d, v)) = inside
        .iter()
        .zip(rows.iter().flatten())
        .min_by(|a, b| a.1 .0.total_cmp(&b.1 .0))
        .expect("inside is non-empty");
    (u, outside[v], d)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgl_graph::traversal::is_connected;
    use sgl_linalg::Rng;

    fn ring_data(n: usize) -> DenseMatrix {
        // Points on a circle: every node has well-defined neighbors.
        DenseMatrix::from_fn(n, 2, |i, j| {
            let t = 2.0 * std::f64::consts::PI * i as f64 / n as f64;
            if j == 0 {
                t.cos()
            } else {
                t.sin()
            }
        })
    }

    #[test]
    fn ring_gives_ring_graph() {
        let x = ring_data(40);
        let g = build_knn_graph(&x, 2);
        assert!(is_connected(&g));
        // 2NN on a ring connects each node to its two ring neighbors.
        assert_eq!(g.num_edges(), 40);
        for d in g.degrees() {
            assert_eq!(d, 2);
        }
    }

    #[test]
    fn weights_follow_eq15() {
        let x = DenseMatrix::from_rows(&[
            vec![0.0, 0.0, 0.0],
            vec![1.0, 0.0, 0.0],
            vec![5.0, 0.0, 0.0],
        ]);
        let g = build_knn_graph(&x, 1);
        // Edge (0,1): dist² = 1, M = 3 → w = 3.
        let i = g.find_edge(0, 1).unwrap();
        assert!((g.edge(i).weight - 3.0).abs() < 1e-12);
    }

    #[test]
    fn disconnected_clusters_get_stitched() {
        // Two far-apart clusters; k=1 cannot connect them.
        let mut rows = Vec::new();
        let mut rng = Rng::seed_from_u64(1);
        for _ in 0..10 {
            rows.push(vec![rng.uniform() * 0.1, rng.uniform() * 0.1]);
        }
        for _ in 0..10 {
            rows.push(vec![100.0 + rng.uniform() * 0.1, rng.uniform() * 0.1]);
        }
        let x = DenseMatrix::from_rows(&rows);
        let g = build_knn_graph(&x, 1);
        assert!(is_connected(&g));
    }

    #[test]
    fn duplicate_rows_yield_finite_weights() {
        let x = DenseMatrix::from_rows(&[
            vec![1.0, 1.0],
            vec![1.0, 1.0], // exact duplicate
            vec![2.0, 2.0],
        ]);
        let g = build_knn_graph(&x, 5);
        for e in g.edges() {
            assert!(e.weight.is_finite());
        }
    }
}
