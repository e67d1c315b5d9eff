//! Synthetic test-case generators standing in for the paper's benchmark
//! matrices.
//!
//! The SGL paper evaluates on sparse matrices from circuit simulation and
//! finite-element analysis (`2D mesh`, `airfoil`, `fe_4elt2`, `crack`,
//! `G2_circuit`). Those files are not redistributable here, so this crate
//! generates synthetic graphs of the same *class*, size and density (see
//! DESIGN.md §4 for the substitution argument):
//!
//! * [`grid2d`] / [`torus2d`] / [`grid3d`] — regular meshes ("2D mesh");
//! * [`mod@delaunay`] — a from-scratch Bowyer–Watson triangulator;
//! * [`domains`] — FE-style point clouds: airfoil profile, cracked plate,
//!   perforated plate (`fe_4elt2`-like), triangulated into meshes;
//! * [`circuit`] — power-grid-style networks ("G2_circuit"-like);
//! * [`random_geometric`] — random geometric graphs for tests;
//! * [`weighted_near_tree`] — a random tree plus a few chords, the shape
//!   SGL learns, with conductances spread over four decades;
//! * [`TestCase`] — one-call access to paper-sized instances.
//!
//! Every generator is deterministic given its seed.
//!
//! # Example
//! ```
//! let mesh = sgl_datasets::grid2d(10, 10);
//! assert_eq!(mesh.num_nodes(), 100);
//! assert_eq!(mesh.num_edges(), 180);
//! ```

pub mod circuit;
pub mod delaunay;
pub mod domains;
pub mod testcase;

pub use circuit::circuit_grid;
pub use delaunay::{delaunay, Point};
pub use domains::{airfoil_mesh, crack_mesh, fe_plate_mesh, MeshedDomain};
pub use testcase::TestCase;

use sgl_graph::Graph;
use sgl_linalg::Rng;

/// Regular `nx × ny` 2-D grid with unit weights (the paper's "2D mesh").
///
/// # Panics
/// Panics if either dimension is zero.
pub fn grid2d(nx: usize, ny: usize) -> Graph {
    assert!(nx > 0 && ny > 0, "grid2d: dimensions must be positive");
    let id = |i: usize, j: usize| i * ny + j;
    let mut edges = Vec::with_capacity(2 * nx * ny);
    for i in 0..nx {
        for j in 0..ny {
            if i + 1 < nx {
                edges.push((id(i, j), id(i + 1, j), 1.0));
            }
            if j + 1 < ny {
                edges.push((id(i, j), id(i, j + 1), 1.0));
            }
        }
    }
    Graph::from_edges(nx * ny, edges)
}

/// 2-D torus (grid with wraparound): exactly `2·nx·ny` edges, so a
/// 100×100 torus matches the paper's `|V| = 10,000, |E| = 20,000`.
///
/// # Panics
/// Panics if either dimension is below 3 (wraparound would create
/// parallel edges).
pub fn torus2d(nx: usize, ny: usize) -> Graph {
    assert!(nx >= 3 && ny >= 3, "torus2d: dimensions must be at least 3");
    let id = |i: usize, j: usize| i * ny + j;
    let mut edges = Vec::with_capacity(2 * nx * ny);
    for i in 0..nx {
        for j in 0..ny {
            edges.push((id(i, j), id((i + 1) % nx, j), 1.0));
            edges.push((id(i, j), id(i, (j + 1) % ny), 1.0));
        }
    }
    Graph::from_edges(nx * ny, edges)
}

/// Regular 3-D grid with unit weights.
///
/// # Panics
/// Panics if any dimension is zero.
pub fn grid3d(nx: usize, ny: usize, nz: usize) -> Graph {
    assert!(
        nx > 0 && ny > 0 && nz > 0,
        "grid3d: dimensions must be positive"
    );
    let id = |i: usize, j: usize, k: usize| (i * ny + j) * nz + k;
    let mut edges = Vec::new();
    for i in 0..nx {
        for j in 0..ny {
            for k in 0..nz {
                if i + 1 < nx {
                    edges.push((id(i, j, k), id(i + 1, j, k), 1.0));
                }
                if j + 1 < ny {
                    edges.push((id(i, j, k), id(i, j + 1, k), 1.0));
                }
                if k + 1 < nz {
                    edges.push((id(i, j, k), id(i, j, k + 1), 1.0));
                }
            }
        }
    }
    Graph::from_edges(nx * ny * nz, edges)
}

/// Random geometric graph: `n` uniform points in the unit square, edges
/// between pairs closer than `radius`, weight `1/dist`. Useful as an
/// irregular but connected-ish small test graph.
pub fn random_geometric(n: usize, radius: f64, seed: u64) -> Graph {
    let mut rng = Rng::seed_from_u64(seed);
    let pts: Vec<(f64, f64)> = (0..n).map(|_| (rng.uniform(), rng.uniform())).collect();
    let mut edges = Vec::new();
    for i in 0..n {
        for j in (i + 1)..n {
            let dx = pts[i].0 - pts[j].0;
            let dy = pts[i].1 - pts[j].1;
            let d = (dx * dx + dy * dy).sqrt();
            if d < radius && d > 0.0 {
                edges.push((i, j, 1.0 / d));
            }
        }
    }
    Graph::from_edges(n, edges)
}

/// A random recursive tree on `n` nodes plus `chords` random chords
/// (`n − 1 + chords` edges), every conductance log-uniform in
/// `[1e-2, 1e2]`: the near-tree shape SGL learns, with the wide weight
/// spread that stresses solvers and eigensolvers.
///
/// # Panics
/// Panics if `n == 0` or if `chords` exceeds the `(n−1)(n−2)/2` pairs
/// left outside the tree.
pub fn weighted_near_tree(n: usize, chords: usize, seed: u64) -> Graph {
    assert!(n > 0, "weighted_near_tree: n must be positive");
    assert!(
        chords <= (n - 1) * n.saturating_sub(2) / 2,
        "weighted_near_tree: {chords} chords do not fit on {n} nodes"
    );
    let mut rng = Rng::seed_from_u64(seed);
    let weight = |rng: &mut Rng| 10f64.powf(4.0 * rng.uniform() - 2.0);
    let mut g = Graph::new(n);
    for v in 1..n {
        let u = rng.below(v);
        g.add_edge(u, v, weight(&mut rng));
    }
    while g.num_edges() < n - 1 + chords {
        let (u, v) = (rng.below(n), rng.below(n));
        if u != v && !g.has_edge(u, v) {
            g.add_edge(u, v, weight(&mut rng));
        }
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgl_graph::traversal::is_connected;

    #[test]
    fn grid2d_counts() {
        let g = grid2d(100, 100);
        assert_eq!(g.num_nodes(), 10_000);
        assert_eq!(g.num_edges(), 2 * 100 * 99);
        assert!(is_connected(&g));
    }

    #[test]
    fn torus_matches_paper_2d_mesh() {
        let g = torus2d(100, 100);
        assert_eq!(g.num_nodes(), 10_000);
        assert_eq!(g.num_edges(), 20_000);
        assert!(is_connected(&g));
    }

    #[test]
    fn grid3d_counts() {
        let g = grid3d(4, 5, 6);
        assert_eq!(g.num_nodes(), 120);
        // edges: 3*5*6 + 4*4*6 + 4*5*5 = 90 + 96 + 100
        assert_eq!(g.num_edges(), 286);
        assert!(is_connected(&g));
    }

    #[test]
    fn grid_degree_bounds() {
        let g = grid2d(5, 5);
        for d in g.degrees() {
            assert!((2..=4).contains(&d));
        }
        let t = torus2d(5, 5);
        for d in t.degrees() {
            assert_eq!(d, 4);
        }
    }

    #[test]
    fn weighted_near_tree_counts() {
        let g = weighted_near_tree(200, 20, 11);
        assert_eq!(g.num_nodes(), 200);
        assert_eq!(g.num_edges(), 199 + 20);
        assert!(is_connected(&g));
        assert!(g.edges().iter().all(|e| (1e-2..=1e2).contains(&e.weight)));
        let h = weighted_near_tree(200, 20, 11);
        assert!(g.edges().iter().zip(h.edges()).all(|(a, b)| a == b));
    }

    #[test]
    fn rgg_is_deterministic() {
        let a = random_geometric(50, 0.3, 9);
        let b = random_geometric(50, 0.3, 9);
        assert_eq!(a.num_edges(), b.num_edges());
    }
}
