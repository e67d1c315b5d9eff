//! User-facing Laplacian solver facade.

use crate::amg::{AmgHierarchy, AmgOptions};
use crate::preconditioner::TreePreconditioner;
use crate::tree_solver::TreeSolver;
use sgl_graph::laplacian::LaplacianOp;

use sgl_graph::traversal::is_connected;
use sgl_graph::Graph;
use sgl_linalg::cg::{pcg_solve_with, CgOptions, CgWorkspace};
use sgl_linalg::{vecops, JacobiPreconditioner, LinalgError, Preconditioner};
use std::sync::Arc;

/// Which solver backend to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SolverMethod {
    /// Pick automatically: exact tree solve for trees, tree-preconditioned
    /// PCG for near-trees (density ≤ 1.4; one iteration per solve within
    /// the [`TreePcg`](Self::TreePcg) exactness rule, the plain tree
    /// preconditioner above it), AMG-PCG otherwise.
    #[default]
    Auto,
    /// Exact `O(N)` solve (graph must be a tree).
    TreeDirect,
    /// PCG preconditioned by a maximum-spanning-tree solve. With `k`
    /// off-tree edges, `0 < k` and `k² ≤ 16·N`, the preconditioner
    /// absorbs them exactly and PCG takes one iteration per solve; see
    /// [`TreePreconditioner`].
    TreePcg,
    /// PCG preconditioned by an aggregation-AMG V-cycle.
    AmgPcg,
    /// PCG preconditioned by the Laplacian diagonal.
    JacobiPcg,
    /// PCG preconditioned by a shifted IC(0) factorization.
    IcholPcg,
}

/// Options for [`LaplacianSolver`].
#[derive(Debug, Clone)]
pub struct SolverOptions {
    /// Backend selection.
    pub method: SolverMethod,
    /// Relative residual tolerance for the PCG backends.
    pub rtol: f64,
    /// PCG iteration cap.
    pub max_iter: usize,
    /// AMG construction options (used by the AMG backend).
    pub amg: AmgOptions,
}

impl Default for SolverOptions {
    fn default() -> Self {
        SolverOptions {
            method: SolverMethod::Auto,
            rtol: 1e-10,
            max_iter: 10_000,
            amg: AmgOptions::default(),
        }
    }
}

/// Statistics from the most informative solve path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolverStats {
    /// PCG iterations (0 for direct tree solves).
    pub iterations: usize,
    /// Final relative residual.
    pub relative_residual: f64,
}

/// Reusable scratch buffers for [`LaplacianSolver::solve_into`]: one per
/// worker keeps a whole batch of solves allocation-free after the first.
#[derive(Debug, Clone, Default)]
pub struct SolveScratch {
    cg: CgWorkspace,
}

impl SolveScratch {
    /// An empty scratch (buffers are sized on first use).
    pub fn new() -> Self {
        SolveScratch::default()
    }
}

enum Backend {
    TreeDirect(TreeSolver),
    Pcg {
        /// Shared so revision wrappers can keep preconditioning PCG on
        /// an *updated* operator without refactoring (see
        /// [`LaplacianSolver::preconditioner`]).
        precond: Arc<dyn Preconditioner + Send + Sync>,
    },
}

/// A prepared solver for `L x = b` on a fixed connected graph.
///
/// Solutions are always returned mean-zero (the canonical representative
/// in the Laplacian's quotient space); right-hand sides are projected onto
/// the mean-zero subspace first.
pub struct LaplacianSolver {
    op: LaplacianOp,
    backend: Backend,
    opts: SolverOptions,
    method: SolverMethod,
    num_nodes: usize,
}

impl std::fmt::Debug for LaplacianSolver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LaplacianSolver")
            .field("num_nodes", &self.num_nodes)
            .field("method", &self.method)
            .finish()
    }
}

impl LaplacianSolver {
    /// Prepare a solver for the given connected graph.
    ///
    /// # Errors
    /// Returns [`LinalgError::InvalidInput`] for disconnected graphs, for
    /// empty graphs, or when [`SolverMethod::TreeDirect`] is requested on a
    /// non-tree.
    pub fn new(graph: &Graph, opts: SolverOptions) -> Result<Self, LinalgError> {
        let n = graph.num_nodes();
        if n == 0 {
            return Err(LinalgError::InvalidInput("empty graph".into()));
        }
        if !is_connected(graph) {
            return Err(LinalgError::InvalidInput(
                "laplacian solver requires a connected graph".into(),
            ));
        }
        let is_tree = graph.num_edges() == n - 1;
        let method = match opts.method {
            SolverMethod::Auto => {
                if is_tree {
                    SolverMethod::TreeDirect
                } else if graph.density() <= 1.4 {
                    SolverMethod::TreePcg
                } else {
                    SolverMethod::AmgPcg
                }
            }
            m => m,
        };
        let backend = match method {
            SolverMethod::TreeDirect => {
                if !is_tree {
                    return Err(LinalgError::InvalidInput(
                        "TreeDirect requested on a graph with cycles".into(),
                    ));
                }
                Backend::TreeDirect(TreeSolver::new(graph))
            }
            SolverMethod::TreePcg => Backend::Pcg {
                precond: Arc::new(TreePreconditioner::from_graph(graph)),
            },
            SolverMethod::AmgPcg => Backend::Pcg {
                precond: Arc::new(AmgHierarchy::build(graph, &opts.amg)),
            },
            SolverMethod::JacobiPcg => Backend::Pcg {
                precond: Arc::new(JacobiPreconditioner::from_diagonal(
                    &graph.weighted_degrees(),
                )),
            },
            SolverMethod::IcholPcg => Backend::Pcg {
                precond: Arc::new(crate::ichol::IncompleteCholesky::new(
                    &sgl_graph::laplacian::laplacian_csr(graph),
                    1e-8,
                )?),
            },
            SolverMethod::Auto => unreachable!("resolved above"),
        };
        Ok(LaplacianSolver {
            op: LaplacianOp::new(graph),
            backend,
            opts,
            method,
            num_nodes: n,
        })
    }

    /// The backend actually in use (after `Auto` resolution).
    pub fn method(&self) -> SolverMethod {
        self.method
    }

    /// The PCG preconditioner prepared for this graph, if the resolved
    /// method is a PCG variant (`None` for the exact tree solve). Shared
    /// out so a solver revision can keep preconditioning PCG on a
    /// slightly *updated* operator — the stale-preconditioner
    /// amortization: the setup (tree build, IC(0) factorization, AMG
    /// hierarchy) keeps earning across low-rank graph changes. PCG is
    /// invariant to preconditioner scaling, so a uniformly rescaled
    /// graph needs no adjustment at all.
    pub fn preconditioner(&self) -> Option<Arc<dyn Preconditioner + Send + Sync>> {
        match &self.backend {
            Backend::Pcg { precond } => Some(Arc::clone(precond)),
            Backend::TreeDirect(_) => None,
        }
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Solve `L x = b`, returning the mean-zero solution.
    ///
    /// # Errors
    /// Returns [`LinalgError::NotConverged`] if PCG hits its iteration cap
    /// and a dimension error for a wrong-sized `b`.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
        Ok(self.solve_with_stats(b)?.0)
    }

    /// Solve and report iteration statistics.
    ///
    /// # Errors
    /// See [`LaplacianSolver::solve`].
    pub fn solve_with_stats(&self, b: &[f64]) -> Result<(Vec<f64>, SolverStats), LinalgError> {
        let mut x = vec![0.0; self.num_nodes];
        let stats = self.solve_into(b, &mut x, &mut SolveScratch::new())?;
        Ok((x, stats))
    }

    /// Solve `L x = b` into a caller-provided buffer, drawing all scratch
    /// vectors from a reusable [`SolveScratch`]. This is the hot entry
    /// point of the batched solvers: one scratch per worker makes every
    /// solve after the first allocation-free.
    ///
    /// # Errors
    /// See [`LaplacianSolver::solve`].
    ///
    /// # Panics
    /// Panics if `x.len()` differs from the node count.
    pub fn solve_into(
        &self,
        b: &[f64],
        x: &mut [f64],
        scratch: &mut SolveScratch,
    ) -> Result<SolverStats, LinalgError> {
        if b.len() != self.num_nodes {
            return Err(LinalgError::DimensionMismatch {
                context: "laplacian solve rhs",
                expected: self.num_nodes,
                actual: b.len(),
            });
        }
        assert_eq!(x.len(), self.num_nodes, "solve_into: x length mismatch");
        match &self.backend {
            Backend::TreeDirect(ts) => {
                ts.solve_into(b, x);
                Ok(SolverStats {
                    iterations: 0,
                    relative_residual: 0.0,
                })
            }
            Backend::Pcg { precond } => {
                let cg_opts = CgOptions {
                    rtol: self.opts.rtol,
                    max_iter: self.opts.max_iter,
                    project_mean: true,
                    // The buffered P·A·P sandwich — same arithmetic as
                    // the old ProjectedOperator wrapper, but through the
                    // workspace instead of a per-iteration clone.
                    project_apply_input: true,
                    ..CgOptions::default()
                };
                let st =
                    pcg_solve_with(&self.op, &precond.as_ref(), b, &cg_opts, &mut scratch.cg, x)?;
                vecops::project_out_mean(x);
                Ok(SolverStats {
                    iterations: st.iterations,
                    relative_residual: st.relative_residual,
                })
            }
        }
    }

    /// Solve for many right-hand sides (columns of `b` as slices),
    /// sequentially through one shared scratch. (The parallel fan-out
    /// lives in `sgl-solver`'s batched backend handles.)
    ///
    /// # Errors
    /// See [`LaplacianSolver::solve`].
    pub fn solve_many(&self, rhs: &[Vec<f64>]) -> Result<Vec<Vec<f64>>, LinalgError> {
        let mut scratch = SolveScratch::new();
        rhs.iter()
            .map(|b| {
                let mut x = vec![0.0; self.num_nodes];
                self.solve_into(b, &mut x, &mut scratch)?;
                Ok(x)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgl_datasets::grid2d;
    use sgl_graph::laplacian::laplacian_csr;
    use sgl_linalg::Rng;

    fn verify(g: &Graph, solver: &LaplacianSolver, seed: u64) {
        let n = g.num_nodes();
        let mut rng = Rng::seed_from_u64(seed);
        let mut b = rng.normal_vec(n);
        vecops::project_out_mean(&mut b);
        let x = solver.solve(&b).unwrap();
        let l = laplacian_csr(g);
        let lx = l.matvec(&x);
        let mut r = vecops::sub(&b, &lx);
        vecops::project_out_mean(&mut r);
        assert!(
            vecops::norm2(&r) / vecops::norm2(&b) < 1e-8,
            "relative residual too large"
        );
        assert!(vecops::mean(&x).abs() < 1e-9, "solution must be mean-zero");
    }

    #[test]
    fn auto_on_tree_uses_direct() {
        let g = Graph::from_edges(20, (0..19).map(|i| (i, i + 1, 1.0 + i as f64 * 0.1)));
        let s = LaplacianSolver::new(&g, SolverOptions::default()).unwrap();
        assert_eq!(s.method(), SolverMethod::TreeDirect);
        verify(&g, &s, 1);
    }

    #[test]
    fn auto_on_mesh_uses_amg() {
        let g = grid2d(12, 12);
        let s = LaplacianSolver::new(&g, SolverOptions::default()).unwrap();
        assert_eq!(s.method(), SolverMethod::AmgPcg);
        verify(&g, &s, 2);
    }

    #[test]
    fn all_backends_agree() {
        let g = grid2d(8, 8);
        let mut rng = Rng::seed_from_u64(5);
        let mut b = rng.normal_vec(64);
        vecops::project_out_mean(&mut b);
        let mut solutions = Vec::new();
        for m in [
            SolverMethod::TreePcg,
            SolverMethod::AmgPcg,
            SolverMethod::JacobiPcg,
            SolverMethod::IcholPcg,
        ] {
            let s = LaplacianSolver::new(
                &g,
                SolverOptions {
                    method: m,
                    ..SolverOptions::default()
                },
            )
            .unwrap();
            solutions.push(s.solve(&b).unwrap());
        }
        for w in solutions.windows(2) {
            let d = vecops::sub(&w[0], &w[1]);
            assert!(vecops::norm2(&d) < 1e-6, "backends disagree");
        }
    }

    #[test]
    fn tree_direct_on_cyclic_graph_errors() {
        let g = Graph::from_edges(3, [(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0)]);
        let r = LaplacianSolver::new(
            &g,
            SolverOptions {
                method: SolverMethod::TreeDirect,
                ..SolverOptions::default()
            },
        );
        assert!(r.is_err());
    }

    #[test]
    fn disconnected_graph_errors() {
        let g = Graph::from_edges(4, [(0, 1, 1.0), (2, 3, 1.0)]);
        assert!(LaplacianSolver::new(&g, SolverOptions::default()).is_err());
    }

    #[test]
    fn solve_many_matches_individual() {
        let g = grid2d(5, 5);
        let s = LaplacianSolver::new(&g, SolverOptions::default()).unwrap();
        let mut rng = Rng::seed_from_u64(9);
        let rhs: Vec<Vec<f64>> = (0..3)
            .map(|_| {
                let mut v = rng.normal_vec(25);
                vecops::project_out_mean(&mut v);
                v
            })
            .collect();
        let many = s.solve_many(&rhs).unwrap();
        for (b, x) in rhs.iter().zip(&many) {
            let single = s.solve(b).unwrap();
            let d = vecops::sub(x, &single);
            assert!(vecops::norm2(&d) < 1e-12);
        }
    }
}
