//! Seeded property tests for the synthetic test-case generators.
//!
//! Each property runs on [`CASES`] fixed cases whose parameters are drawn
//! from an [`Rng`] seeded per property, so every run checks the same
//! cases and a failure names the parameters that reproduce it. A case
//! whose parameters fall outside a property's precondition is skipped.

use sgl_datasets::delaunay::{delaunay, triangulation_edges, Point};
use sgl_datasets::{circuit_grid, grid2d, grid3d, torus2d};
use sgl_graph::traversal::{connected_components, is_connected};
use sgl_linalg::Rng;
use std::collections::HashSet;

/// Cases per property.
const CASES: usize = 24;

/// A draw from `lo..hi`.
fn draw(gen: &mut Rng, lo: usize, hi: usize) -> usize {
    lo + gen.below(hi - lo)
}

/// A generator seed from `0..1000`.
fn draw_seed(gen: &mut Rng) -> u64 {
    gen.below(1000) as u64
}

#[test]
fn grids_are_connected_with_exact_counts() {
    let mut gen = Rng::seed_from_u64(1);
    for _ in 0..CASES {
        let (nx, ny) = (draw(&mut gen, 2, 12), draw(&mut gen, 2, 12));
        let case = format!("nx={nx} ny={ny}");
        let g = grid2d(nx, ny);
        assert_eq!(g.num_nodes(), nx * ny, "{case}");
        assert_eq!(g.num_edges(), nx * (ny - 1) + ny * (nx - 1), "{case}");
        assert!(is_connected(&g), "{case}");
    }
}

#[test]
fn torus_has_regular_degree() {
    let mut gen = Rng::seed_from_u64(2);
    for _ in 0..CASES {
        let (nx, ny) = (draw(&mut gen, 3, 10), draw(&mut gen, 3, 10));
        let case = format!("nx={nx} ny={ny}");
        let g = torus2d(nx, ny);
        assert_eq!(g.num_edges(), 2 * nx * ny, "{case}");
        for d in g.degrees() {
            assert_eq!(d, 4, "{case}");
        }
    }
}

#[test]
fn grid3d_connected() {
    let mut gen = Rng::seed_from_u64(3);
    for _ in 0..CASES {
        let (nx, ny, nz) = (
            draw(&mut gen, 2, 5),
            draw(&mut gen, 2, 5),
            draw(&mut gen, 2, 5),
        );
        let case = format!("nx={nx} ny={ny} nz={nz}");
        let g = grid3d(nx, ny, nz);
        assert_eq!(g.num_nodes(), nx * ny * nz, "{case}");
        assert!(is_connected(&g), "{case}");
    }
}

#[test]
fn circuit_grid_density_and_connectivity() {
    let mut gen = Rng::seed_from_u64(4);
    let mut in_range = 0;
    for _ in 0..CASES {
        let (side, dens_pct, seed) = (
            draw(&mut gen, 6, 20),
            draw(&mut gen, 110, 180),
            draw_seed(&mut gen),
        );
        let case = format!("side={side} dens_pct={dens_pct} seed={seed}");
        let density = dens_pct as f64 / 100.0;
        let n = side * side;
        let max_density = (2 * side * (side - 1)) as f64 / n as f64;
        if density >= max_density {
            continue;
        }
        in_range += 1;
        let g = circuit_grid(side, side, density, seed);
        assert!(is_connected(&g), "{case}");
        let want = (density * n as f64).round() as usize;
        assert_eq!(g.num_edges(), want, "{case}");
    }
    assert!(
        2 * in_range > CASES,
        "only {in_range} of {CASES} cases had a reachable density"
    );
}

#[test]
fn delaunay_euler_formula_random_points() {
    let mut gen = Rng::seed_from_u64(5);
    for _ in 0..CASES {
        let (n, seed) = (draw(&mut gen, 4, 60), draw_seed(&mut gen));
        let case = format!("n={n} seed={seed}");
        let mut rng = Rng::seed_from_u64(seed);
        let pts: Vec<Point> = (0..n)
            .map(|_| Point::new(rng.uniform(), rng.uniform()))
            .collect();
        let tris = delaunay(&pts);
        if tris.is_empty() {
            continue;
        }
        let edges = triangulation_edges(&tris);
        // Triangulated planar disk: V − E + F = 1 (outer face excluded).
        // Duplicate/degenerate points may be skipped, so count used nodes.
        let mut used: Vec<bool> = vec![false; n];
        for t in &tris {
            for &v in t {
                used[v] = true;
            }
        }
        let v = used.iter().filter(|&&u| u).count() as i64;
        let e = edges.len() as i64;
        let f = tris.len() as i64;
        assert_eq!(v - e + f, 1, "{case}: V={v} E={e} F={f}");
        // The triangulation's edge graph is connected on used nodes.
        let g = sgl_graph::Graph::from_edges(n, edges.iter().map(|&(a, b)| (a, b, 1.0)));
        let comps = connected_components(&g);
        let used_comp: HashSet<usize> = (0..n)
            .filter(|&i| used[i])
            .map(|i| comps.labels[i])
            .collect();
        assert_eq!(used_comp.len(), 1, "{case}");
    }
}

#[test]
fn delaunay_triangles_index_valid_points() {
    let mut gen = Rng::seed_from_u64(6);
    for _ in 0..CASES {
        let (n, seed) = (draw(&mut gen, 3, 40), draw_seed(&mut gen));
        let case = format!("n={n} seed={seed}");
        let mut rng = Rng::seed_from_u64(seed);
        let pts: Vec<Point> = (0..n)
            .map(|_| Point::new(rng.uniform() * 10.0, rng.uniform() * 10.0))
            .collect();
        for t in delaunay(&pts) {
            for &v in &t {
                assert!(v < n, "{case}: index {v}");
            }
            assert!(t[0] < t[1] && t[1] < t[2], "{case}: unsorted triple {t:?}");
        }
    }
}
