//! Exact `O(N)` solver for spanning-tree Laplacian systems.
//!
//! On a tree, `L_T x = b` (with `Σ b = 0`) is solved by two sweeps:
//!
//! 1. **Upward** (leaves → root): the current through the edge `(u,
//!    parent(u))` equals the total injection inside `u`'s subtree, so a
//!    single pass in reverse BFS order accumulates all edge flows.
//! 2. **Downward** (root → leaves): fixing `x_root = 0`, Ohm's law gives
//!    `x_u = x_parent + flow_u / w_u`; a final projection makes the
//!    solution mean-zero.

use sgl_graph::tree::RootedTree;
use sgl_graph::Graph;
use sgl_linalg::vecops;

/// Precomputed tree factorization (just the rooted order — the "numeric"
/// work is done per solve in two linear sweeps).
///
/// # Example
/// ```
/// use sgl_graph::Graph;
/// use sgl_solver::TreeSolver;
/// let tree = Graph::from_edges(3, [(0, 1, 2.0), (1, 2, 1.0)]);
/// let solver = TreeSolver::new(&tree);
/// let x = solver.solve(&[1.0, 0.0, -1.0]);
/// // Current 1 A flows 0 → 2 across conductances 2 and 1.
/// assert!(((x[0] - x[1]) - 0.5).abs() < 1e-12);
/// assert!(((x[1] - x[2]) - 1.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct TreeSolver {
    tree: RootedTree,
}

impl TreeSolver {
    /// Build from a connected tree graph.
    ///
    /// # Panics
    /// Panics if `tree` is not a connected tree (see
    /// [`RootedTree::from_tree_graph`]).
    pub fn new(tree: &Graph) -> Self {
        TreeSolver {
            tree: RootedTree::from_tree_graph(tree, 0),
        }
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.tree.num_nodes()
    }

    /// Solve `L_T x = b` returning the mean-zero solution.
    ///
    /// The right-hand side is projected onto the mean-zero subspace first,
    /// so any `b` is accepted.
    ///
    /// # Panics
    /// Panics if `b.len()` differs from the node count.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        let mut x = vec![0.0; self.num_nodes()];
        self.solve_into(b, &mut x);
        x
    }

    /// Apply the solve into a caller-provided buffer, allocation-free
    /// (the preconditioner path applies this once per PCG iteration).
    ///
    /// # Panics
    /// Panics if `b` or `out` differs in length from the node count.
    pub fn solve_into(&self, b: &[f64], out: &mut [f64]) {
        let n = self.num_nodes();
        assert_eq!(b.len(), n, "tree solve: rhs length mismatch");
        assert_eq!(out.len(), n, "tree solve: output length mismatch");
        out.copy_from_slice(b);
        self.solve_in_place(out);
    }

    /// Solve `L_T x = b` in place: `out` holds `b` on entry and the
    /// mean-zero `x` on exit. Both sweeps run in place: the upward pass
    /// turns `out` into edge currents, and the downward pass overwrites
    /// each node's current with its potential exactly when it is last
    /// read (parents precede children in elimination order).
    ///
    /// # Panics
    /// Panics if `out.len()` differs from the node count.
    pub fn solve_in_place(&self, out: &mut [f64]) {
        assert_eq!(
            out.len(),
            self.num_nodes(),
            "tree solve: output length mismatch"
        );
        vecops::project_out_mean(out);
        // Upward sweep: accumulate subtree injection sums into the parent;
        // `out[u]` becomes the current through (u, parent(u)).
        for &u in self.tree.order.iter().rev() {
            let p = self.tree.parent[u];
            if p != u {
                let fu = out[u];
                out[p] += fu;
            }
        }
        // Downward sweep: integrate potentials from the root.
        for &u in &self.tree.order {
            let p = self.tree.parent[u];
            if p != u {
                out[u] = out[p] + out[u] / self.tree.parent_weight[u];
            } else {
                out[u] = 0.0;
            }
        }
        vecops::project_out_mean(out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgl_graph::laplacian::laplacian_csr;
    use sgl_linalg::Rng;

    fn check_solution(tree: &Graph, b: &[f64], x: &[f64], tol: f64) {
        let l = laplacian_csr(tree);
        let lx = l.matvec(x);
        let mut bp = b.to_vec();
        vecops::project_out_mean(&mut bp);
        for i in 0..b.len() {
            assert!(
                (lx[i] - bp[i]).abs() < tol,
                "residual {} at {i}",
                (lx[i] - bp[i]).abs()
            );
        }
        assert!(vecops::mean(x).abs() < tol);
    }

    #[test]
    fn path_tree_exact() {
        let tree = Graph::from_edges(5, (0..4).map(|i| (i, i + 1, (i + 1) as f64)));
        let solver = TreeSolver::new(&tree);
        let mut rng = Rng::seed_from_u64(1);
        let mut b = rng.normal_vec(5);
        vecops::project_out_mean(&mut b);
        let x = solver.solve(&b);
        check_solution(&tree, &b, &x, 1e-12);
    }

    #[test]
    fn star_tree_exact() {
        let tree = Graph::from_edges(6, (1..6).map(|i| (0, i, i as f64)));
        let solver = TreeSolver::new(&tree);
        let b = [5.0, -1.0, -1.0, -1.0, -1.0, -1.0];
        let x = solver.solve(&b);
        check_solution(&tree, &b, &x, 1e-12);
    }

    #[test]
    fn random_tree_exact() {
        // Random recursive tree on 200 nodes.
        let mut rng = Rng::seed_from_u64(7);
        let n = 200;
        let mut edges = Vec::new();
        for v in 1..n {
            let u = rng.below(v);
            edges.push((u, v, 0.1 + rng.uniform() * 10.0));
        }
        let tree = Graph::from_edges(n, edges);
        let solver = TreeSolver::new(&tree);
        let mut b = rng.normal_vec(n);
        vecops::project_out_mean(&mut b);
        let x = solver.solve(&b);
        check_solution(&tree, &b, &x, 1e-9);
    }

    #[test]
    fn unbalanced_rhs_is_projected() {
        let tree = Graph::from_edges(3, [(0, 1, 1.0), (1, 2, 1.0)]);
        let solver = TreeSolver::new(&tree);
        // Sum is not zero; solver should project.
        let x = solver.solve(&[3.0, 0.0, 0.0]);
        check_solution(&tree, &[3.0, 0.0, 0.0], &x, 1e-12);
    }

    #[test]
    fn two_node_ohms_law() {
        let tree = Graph::from_edges(2, [(0, 1, 4.0)]);
        let solver = TreeSolver::new(&tree);
        let x = solver.solve(&[1.0, -1.0]);
        assert!(((x[0] - x[1]) - 0.25).abs() < 1e-14);
    }
}
