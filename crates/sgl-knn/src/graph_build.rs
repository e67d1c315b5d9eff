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

use crate::brute::BruteForceKnn;
use sgl_graph::traversal::connected_components;
use sgl_graph::Graph;
use sgl_linalg::{vecops, DenseMatrix};

/// Floor for squared neighbor distances, relative to the median one
/// (guards duplicate rows).
const DIST_FLOOR_REL: f64 = 1e-8;

/// Build the weighted kNN graph over the rows of `x` (an `N × M`
/// measurement matrix) with `k` neighbors per node (the paper uses
/// `k = 5`).
///
/// There is no per-call thread knob: the search fans out over the shared
/// [`par`](sgl_linalg::par) layer, so the ambient thread count
/// (`SglConfig::parallelism`, a
/// [`par::with_threads`](sgl_linalg::par::with_threads) scope, or
/// `SGL_NUM_THREADS`) governs it like every other parallel stage.
///
/// # Panics
/// Panics if `x` has fewer than 2 rows, zero columns, or `k == 0`.
pub fn build_knn_graph(x: &DenseMatrix, k: usize) -> Graph {
    let n = x.nrows();
    let m = x.ncols();
    assert!(n >= 2, "knn graph needs at least two nodes");
    assert!(m >= 1, "knn graph needs at least one measurement column");
    assert!(k >= 1, "k must be positive");

    let tables = BruteForceKnn::new(x).all_knn(k);

    // Distance floor: relative to the median neighbor distance.
    let mut all_d: Vec<f64> = tables
        .iter()
        .flat_map(|t| t.iter().map(|&(_, d)| d))
        .filter(|&d| d > 0.0)
        .collect();
    all_d.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let median = all_d.get(all_d.len() / 2).copied().unwrap_or(1.0);
    let floor = (median * DIST_FLOOR_REL).max(f64::MIN_POSITIVE);

    let mut g = Graph::new(n);
    for (i, table) in tables.iter().enumerate() {
        for &(j, d) in table {
            let w = m as f64 / d.max(floor);
            // add_edge merges the symmetric duplicates; keep the larger
            // weight semantics by letting merge sum — instead, skip if
            // the reverse edge already exists (weights are identical).
            if g.find_edge(i, j).is_none() {
                g.add_edge(i, j, w);
            }
        }
    }
    repair_connectivity(&mut g, x);
    g
}

/// Connect all components by adding, for each non-largest component, the
/// minimum-distance edge to the outside (exact search over the component
/// boundary; components are small in practice).
fn repair_connectivity(g: &mut Graph, x: &DenseMatrix) {
    let m = x.ncols();
    loop {
        let comps = connected_components(g);
        if comps.num_components <= 1 {
            return;
        }
        let groups = comps.groups();
        let largest = comps.largest();
        // Join every non-largest component to its closest outside node.
        for (cid, nodes) in groups.iter().enumerate() {
            if cid == largest {
                continue;
            }
            let mut best: Option<(usize, usize, f64)> = None;
            for &u in nodes {
                for v in 0..x.nrows() {
                    if comps.labels[v] == cid {
                        continue;
                    }
                    let d = vecops::dist_sq(x.row(u), x.row(v));
                    if best.is_none_or(|(_, _, bd)| d < bd) {
                        best = Some((u, v, d));
                    }
                }
            }
            if let Some((u, v, d)) = best {
                let w = m as f64 / d.max(f64::MIN_POSITIVE);
                g.add_edge(u, v, w);
            }
        }
    }
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
