//! The PCG/tree handle [`SolverPolicy::build_handle`] returns for every
//! method but the dense reference.

use crate::backend::{PolicyMethod, SolveStats, SolverHandle, SolverPolicy, StatCell};
use crate::tree_solver::TreeSolver;
use sgl_graph::laplacian::LaplacianOp;
use sgl_linalg::cg::{pcg_solve_with, CgOptions, CgWorkspace};
use sgl_linalg::{par, vecops, LinalgError, Preconditioner};

/// What a [`PcgHandle`] runs per right-hand side.
pub(crate) enum Kernel {
    /// Exact `O(N)` elimination on a tree.
    Tree(TreeSolver),
    /// Projected PCG on the graph's Laplacian.
    Pcg {
        op: LaplacianOp,
        precond: Box<dyn Preconditioner + Send + Sync>,
    },
}

/// A prepared solver for `L x = b` on a fixed connected graph: the exact
/// tree solve or PCG to the policy's tolerance. Right-hand sides are
/// projected onto the mean-zero subspace and solutions returned
/// mean-zero.
pub(crate) struct PcgHandle {
    kernel: Kernel,
    /// The method after `Auto` resolution.
    method: PolicyMethod,
    rtol: f64,
    max_iter: usize,
    /// Worker threads for `solve_batch` fan-out (0 = ambient, 1 = serial).
    parallelism: usize,
    num_nodes: usize,
    stats: StatCell,
}

impl PcgHandle {
    pub(crate) fn new(
        kernel: Kernel,
        method: PolicyMethod,
        policy: &SolverPolicy,
        num_nodes: usize,
    ) -> Self {
        PcgHandle {
            kernel,
            method,
            rtol: policy.rtol,
            max_iter: policy.max_iter,
            parallelism: policy.parallelism,
            num_nodes,
            stats: StatCell::default(),
        }
    }

    /// Solve `L x = b` into `x`, drawing every scratch vector from `ws`
    /// (one workspace per worker keeps a batch allocation-free after its
    /// first solve). Returns the PCG iterations and relative residual
    /// (both 0 for the tree solve).
    fn solve_into(
        &self,
        b: &[f64],
        x: &mut [f64],
        ws: &mut CgWorkspace,
    ) -> Result<(usize, f64), LinalgError> {
        if b.len() != self.num_nodes {
            return Err(LinalgError::DimensionMismatch {
                context: "laplacian solve rhs",
                expected: self.num_nodes,
                actual: b.len(),
            });
        }
        match &self.kernel {
            Kernel::Tree(ts) => {
                ts.solve_into(b, x);
                Ok((0, 0.0))
            }
            Kernel::Pcg { op, precond } => {
                let cg_opts = CgOptions {
                    rtol: self.rtol,
                    max_iter: self.max_iter,
                    project_mean: true,
                    // The buffered P·A·P sandwich: the projected operator
                    // through the workspace, no per-iteration clone.
                    project_apply_input: true,
                    ..CgOptions::default()
                };
                let st = pcg_solve_with(op, &precond.as_ref(), b, &cg_opts, ws, x)?;
                vecops::project_out_mean(x);
                Ok((st.iterations, st.relative_residual))
            }
        }
    }
}

impl SolverHandle for PcgHandle {
    fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    fn method_name(&self) -> &'static str {
        self.method.name()
    }

    fn solve(&self, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
        let _sp = sgl_trace::span!("pcg_solve");
        let mut x = vec![0.0; self.num_nodes];
        let (iters, residual) = self.solve_into(b, &mut x, &mut CgWorkspace::new())?;
        self.stats.record(1, iters, residual);
        Ok(x)
    }

    fn solve_batch(&self, rhs: &[Vec<f64>]) -> Result<Vec<Vec<f64>>, LinalgError> {
        let _sp = sgl_trace::span!("solve_batch", count = rhs.len());
        self.stats.record_batch();
        let n = self.num_nodes;
        // Fan out across right-hand sides; every solve is independent and
        // runs the identical serial kernel over a per-worker workspace, so
        // results match the serial path exactly. Nested parallelism (the
        // sparse kernels inside each solve) collapses to serial inside
        // the region — one level of fan-out, no oversubscription.
        let solved: Vec<(Vec<f64>, (usize, f64))> =
            par::with_threads_hint(self.parallelism, || {
                par::try_map_chunked(rhs.len(), 1, |range| {
                    let mut ws = CgWorkspace::new();
                    range
                        .map(|i| {
                            let mut x = vec![0.0; n];
                            let st = self.solve_into(&rhs[i], &mut x, &mut ws)?;
                            Ok((x, st))
                        })
                        .collect()
                })
            })?;
        // Stats are recorded after the join, in RHS order, so counters
        // and the "last" residual do not depend on thread scheduling.
        let mut out = Vec::with_capacity(solved.len());
        for (x, (iters, residual)) in solved {
            self.stats.record(1, iters, residual);
            out.push(x);
        }
        Ok(out)
    }

    fn stats(&self) -> SolveStats {
        self.stats.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgl_datasets::grid2d;
    use sgl_graph::laplacian::laplacian_csr;
    use sgl_graph::Graph;
    use sgl_linalg::Rng;
    use std::sync::Arc;

    fn build(g: &Graph, method: PolicyMethod) -> Result<Arc<dyn SolverHandle>, LinalgError> {
        SolverPolicy::default().with_method(method).build_handle(g)
    }

    fn verify(g: &Graph, solver: &dyn SolverHandle, seed: u64) {
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
        let s = build(&g, PolicyMethod::Auto).unwrap();
        assert_eq!(s.method_name(), "tree-direct");
        verify(&g, s.as_ref(), 1);
    }

    #[test]
    fn auto_on_mesh_uses_amg() {
        let g = grid2d(12, 12);
        let s = build(&g, PolicyMethod::Auto).unwrap();
        assert_eq!(s.method_name(), "amg-pcg");
        verify(&g, s.as_ref(), 2);
    }

    #[test]
    fn all_backends_agree() {
        let g = grid2d(8, 8);
        let mut rng = Rng::seed_from_u64(5);
        let mut b = rng.normal_vec(64);
        vecops::project_out_mean(&mut b);
        let mut solutions = Vec::new();
        for m in [PolicyMethod::TreePcg, PolicyMethod::AmgPcg] {
            solutions.push(build(&g, m).unwrap().solve(&b).unwrap());
        }
        for w in solutions.windows(2) {
            let d = vecops::sub(&w[0], &w[1]);
            assert!(vecops::norm2(&d) < 1e-6, "methods disagree");
        }
    }

    #[test]
    fn tree_direct_on_cyclic_graph_errors() {
        let g = Graph::from_edges(3, [(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0)]);
        assert!(build(&g, PolicyMethod::TreeDirect).is_err());
    }

    #[test]
    fn disconnected_graph_errors() {
        let g = Graph::from_edges(4, [(0, 1, 1.0), (2, 3, 1.0)]);
        assert!(build(&g, PolicyMethod::Auto).is_err());
    }

    #[test]
    fn solve_many_matches_individual() {
        // A serial batch runs every RHS through one shared workspace; the
        // reused buffers must not leak state between solves.
        let g = grid2d(5, 5);
        let s = SolverPolicy::default()
            .with_parallelism(1)
            .build_handle(&g)
            .unwrap();
        let mut rng = Rng::seed_from_u64(9);
        let rhs: Vec<Vec<f64>> = (0..3)
            .map(|_| {
                let mut v = rng.normal_vec(25);
                vecops::project_out_mean(&mut v);
                v
            })
            .collect();
        let many = s.solve_batch(&rhs).unwrap();
        for (b, x) in rhs.iter().zip(&many) {
            let single = s.solve(b).unwrap();
            let d = vecops::sub(x, &single);
            assert!(vecops::norm2(&d) < 1e-12);
        }
    }
}
