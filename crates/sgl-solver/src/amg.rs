//! Unsmoothed-aggregation algebraic multigrid for graph Laplacians.
//!
//! With piecewise-constant prolongation the Galerkin coarse operator
//! `Pᵀ L P` is itself the Laplacian of the *contracted* graph, so the whole
//! hierarchy is built with plain graph operations:
//!
//! 1. aggregate each node with its (unaggregated) neighbors — strongest
//!    connections first;
//! 2. contract the graph along the aggregation map;
//! 3. repeat until the coarse graph is small, then factor it densely with
//!    an eigen-pseudoinverse (the Laplacian null space is handled exactly).
//!
//! One symmetric V-cycle (forward Gauss–Seidel down, backward up) is an
//! SPD operation on the mean-zero subspace and is used as the PCG
//! preconditioner for mesh-like graphs, standing in for the SAMG solver
//! the paper cites.

use crate::preconditioner::GaussSeidelPreconditioner;
use sgl_graph::laplacian::laplacian_csr;
use sgl_graph::{AdjacencyCsr, Graph};
use sgl_linalg::{vecops, CsrMatrix, DenseMatrix, Preconditioner, SymEig};

/// Stop coarsening when a level has at most this many nodes.
const COARSEST_SIZE: usize = 64;
/// Hard cap on the number of levels.
const MAX_LEVELS: usize = 25;
/// Abort coarsening if a level shrinks by less than this factor (guards
/// against stalls on pathological graphs).
const MIN_SHRINK: f64 = 0.9;
/// Gauss–Seidel sweeps per pre/post smoothing step.
const SMOOTHING_SWEEPS: usize = 1;

struct Level {
    laplacian: CsrMatrix,
    smoother: GaussSeidelPreconditioner,
    /// Fine node → coarse aggregate id (map to the next level).
    aggregate_of: Vec<usize>,
    num_coarse: usize,
}

/// Dense eigen-pseudoinverse used at the coarsest level.
struct CoarseSolve {
    values: Vec<f64>,
    vectors: DenseMatrix,
}

impl CoarseSolve {
    fn new(l: &CsrMatrix) -> Self {
        let eig = SymEig::compute(&l.to_dense()).expect("coarse eig");
        CoarseSolve {
            values: eig.values,
            vectors: eig.vectors,
        }
    }

    fn solve(&self, b: &[f64]) -> Vec<f64> {
        let n = b.len();
        let scale = self.values.last().copied().unwrap_or(1.0).abs().max(1e-300);
        let mut x = vec![0.0; n];
        for k in 0..n {
            let lam = self.values[k];
            if lam <= 1e-10 * scale {
                continue; // null space component
            }
            let vk = self.vectors.column(k);
            let c = vecops::dot(&vk, b) / lam;
            vecops::axpy(c, &vk, &mut x);
        }
        x
    }
}

/// A built AMG hierarchy; apply with [`AmgHierarchy::v_cycle`] or use it
/// as a [`Preconditioner`].
pub struct AmgHierarchy {
    levels: Vec<Level>,
    coarse: CoarseSolve,
    num_nodes: usize,
}

impl std::fmt::Debug for AmgHierarchy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AmgHierarchy")
            .field("num_nodes", &self.num_nodes)
            .field("levels", &(self.levels.len() + 1))
            .finish()
    }
}

impl AmgHierarchy {
    /// Build the hierarchy for a connected graph.
    ///
    /// # Panics
    /// Panics on an empty graph.
    pub fn build(g: &Graph) -> Self {
        assert!(g.num_nodes() > 0, "amg: empty graph");
        let mut levels = Vec::new();
        let mut current = g.clone();
        for _ in 0..MAX_LEVELS {
            if current.num_nodes() <= COARSEST_SIZE {
                break;
            }
            let agg = aggregate(&current);
            let num_coarse = agg.num_aggregates;
            if num_coarse as f64 > MIN_SHRINK * current.num_nodes() as f64 {
                break; // coarsening stalled
            }
            let coarse = contract(&current, &agg.aggregate_of, num_coarse);
            let lap = laplacian_csr(&current);
            levels.push(Level {
                smoother: GaussSeidelPreconditioner::new(lap.clone(), SMOOTHING_SWEEPS),
                laplacian: lap,
                aggregate_of: agg.aggregate_of,
                num_coarse,
            });
            current = coarse;
        }
        let coarse_lap = laplacian_csr(&current);
        AmgHierarchy {
            coarse: CoarseSolve::new(&coarse_lap),
            levels,
            num_nodes: g.num_nodes(),
        }
    }

    /// Number of levels including the coarsest.
    pub fn num_levels(&self) -> usize {
        self.levels.len() + 1
    }

    /// Node counts per level, finest first.
    pub fn level_sizes(&self) -> Vec<usize> {
        let mut sizes: Vec<usize> = self.levels.iter().map(|l| l.laplacian.nrows()).collect();
        sizes.push(self.levels.last().map_or(self.num_nodes, |l| l.num_coarse));
        sizes
    }

    /// One V-cycle approximately solving `L x = b`; returns mean-zero `x`.
    ///
    /// # Panics
    /// Panics if `b.len()` differs from the finest level size.
    pub fn v_cycle(&self, b: &[f64]) -> Vec<f64> {
        assert_eq!(b.len(), self.num_nodes, "v_cycle: rhs length mismatch");
        let mut bp = b.to_vec();
        vecops::project_out_mean(&mut bp);
        let mut x = self.cycle(0, &bp);
        vecops::project_out_mean(&mut x);
        x
    }

    fn cycle(&self, level: usize, b: &[f64]) -> Vec<f64> {
        if level == self.levels.len() {
            return self.coarse.solve(b);
        }
        let lvl = &self.levels[level];
        let n = b.len();
        let mut x = vec![0.0; n];
        // Pre-smooth (forward sweeps).
        lvl.smoother.sweep_forward(b, &mut x);
        // Residual and restriction.
        let mut r = lvl.laplacian.matvec(&x);
        for i in 0..n {
            r[i] = b[i] - r[i];
        }
        let mut rc = vec![0.0; lvl.num_coarse];
        for i in 0..n {
            rc[lvl.aggregate_of[i]] += r[i];
        }
        // Coarse correction.
        let ec = self.cycle(level + 1, &rc);
        for i in 0..n {
            x[i] += ec[lvl.aggregate_of[i]];
        }
        // Post-smooth (backward sweeps, keeping the cycle symmetric).
        lvl.smoother.sweep_backward(b, &mut x);
        x
    }
}

impl Preconditioner for AmgHierarchy {
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        let x = self.v_cycle(r);
        z.copy_from_slice(&x);
    }
}

struct Aggregation {
    aggregate_of: Vec<usize>,
    num_aggregates: usize,
}

/// Greedy seed-based aggregation: every unaggregated node swallows its
/// unaggregated neighbors; leftovers join their strongest neighbor.
fn aggregate(g: &Graph) -> Aggregation {
    let n = g.num_nodes();
    let adj = AdjacencyCsr::build(g);
    let mut agg = vec![usize::MAX; n];
    let mut num = 0usize;
    // Pass 1: seeds with fully unaggregated neighborhoods.
    for u in 0..n {
        if agg[u] != usize::MAX {
            continue;
        }
        if adj.neighbors(u).any(|(v, _, _)| agg[v] != usize::MAX) {
            continue;
        }
        agg[u] = num;
        for (v, _, _) in adj.neighbors(u) {
            agg[v] = num;
        }
        num += 1;
    }
    // Pass 2: join the strongest aggregated neighbor.
    for u in 0..n {
        if agg[u] != usize::MAX {
            continue;
        }
        let mut best: Option<(usize, f64)> = None;
        for (v, w, _) in adj.neighbors(u) {
            if agg[v] != usize::MAX && best.is_none_or(|(_, bw)| w > bw) {
                best = Some((agg[v], w));
            }
        }
        match best {
            Some((a, _)) => agg[u] = a,
            None => {
                // Isolated node: its own aggregate.
                agg[u] = num;
                num += 1;
            }
        }
    }
    Aggregation {
        aggregate_of: agg,
        num_aggregates: num,
    }
}

/// Contract a graph along an aggregation map (Galerkin coarse Laplacian).
fn contract(g: &Graph, aggregate_of: &[usize], num_coarse: usize) -> Graph {
    let mut coarse = Graph::new(num_coarse);
    for e in g.edges() {
        let (a, b) = (aggregate_of[e.u], aggregate_of[e.v]);
        if a != b {
            coarse.add_edge(a, b, e.weight);
        }
    }
    coarse
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgl_linalg::cg::{pcg_solve, CgOptions};
    use sgl_linalg::{ProjectedOperator, Rng};

    fn grid_graph(nx: usize, ny: usize) -> Graph {
        let id = |i: usize, j: usize| i * ny + j;
        let mut edges = Vec::new();
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

    #[test]
    fn hierarchy_coarsens() {
        let g = grid_graph(30, 30);
        let h = AmgHierarchy::build(&g);
        assert!(h.num_levels() >= 2);
        let sizes = h.level_sizes();
        assert_eq!(sizes[0], 900);
        for w in sizes.windows(2) {
            assert!(w[1] < w[0], "sizes must strictly decrease: {sizes:?}");
        }
    }

    #[test]
    fn v_cycle_reduces_residual() {
        let g = grid_graph(20, 20);
        let l = laplacian_csr(&g);
        let h = AmgHierarchy::build(&g);
        let mut rng = Rng::seed_from_u64(3);
        let mut b = rng.normal_vec(400);
        vecops::project_out_mean(&mut b);
        let x = h.v_cycle(&b);
        let lx = l.matvec(&x);
        let mut r = vecops::sub(&b, &lx);
        vecops::project_out_mean(&mut r);
        assert!(
            vecops::norm2(&r) < 0.5 * vecops::norm2(&b),
            "one V-cycle should cut the residual at least in half"
        );
    }

    #[test]
    fn amg_pcg_converges_fast_on_meshes() {
        let g = grid_graph(25, 25);
        let l = laplacian_csr(&g);
        let h = AmgHierarchy::build(&g);
        let mut rng = Rng::seed_from_u64(4);
        let mut b = rng.normal_vec(g.num_nodes());
        vecops::project_out_mean(&mut b);
        let opts = CgOptions {
            rtol: 1e-10,
            project_mean: true,
            ..CgOptions::default()
        };
        let p = ProjectedOperator::new(&l);
        let sol = pcg_solve(&p, &h, &b, &opts).unwrap();
        assert!(
            sol.iterations <= 40,
            "AMG-PCG took {} iterations",
            sol.iterations
        );
        let lx = l.matvec(&sol.x);
        let mut r = vecops::sub(&b, &lx);
        vecops::project_out_mean(&mut r);
        assert!(vecops::norm2(&r) / vecops::norm2(&b) < 1e-8);
    }

    #[test]
    fn small_graph_is_direct_solve() {
        let g = grid_graph(3, 3);
        let h = AmgHierarchy::build(&g);
        assert_eq!(h.num_levels(), 1); // below COARSEST_SIZE: pure dense solve
        let l = laplacian_csr(&g);
        let b = {
            let mut v = vec![0.0; 9];
            v[0] = 1.0;
            v[8] = -1.0;
            v
        };
        let x = h.v_cycle(&b);
        let lx = l.matvec(&x);
        for i in 0..9 {
            assert!((lx[i] - b[i]).abs() < 1e-9);
        }
    }

    #[test]
    fn aggregation_covers_all_nodes() {
        let g = grid_graph(10, 7);
        let a = aggregate(&g);
        assert!(a.aggregate_of.iter().all(|&x| x < a.num_aggregates));
        assert!(a.num_aggregates < 70);
        assert!(a.num_aggregates > 0);
    }

    #[test]
    fn contraction_preserves_total_boundary_weight() {
        let g = grid_graph(6, 6);
        let a = aggregate(&g);
        let c = contract(&g, &a.aggregate_of, a.num_aggregates);
        // Total coarse weight equals total fine weight across aggregates.
        let cross: f64 = g
            .edges()
            .iter()
            .filter(|e| a.aggregate_of[e.u] != a.aggregate_of[e.v])
            .map(|e| e.weight)
            .sum();
        let coarse_total: f64 = c.edges().iter().map(|e| e.weight).sum();
        assert!((cross - coarse_total).abs() < 1e-12);
    }
}
