//! The solve layer: [`SolverPolicy`] → [`SolverHandle`].
//!
//! SGL solves `L x = b` around its densification loop (measurement
//! generation, Step-5 edge scaling, the shift-invert embedding fallback,
//! resistance queries). Instead of each stage preparing its own solver, a
//! stage asks a [`SolverPolicy`] — the plain-data description of which
//! method to run and how hard — to build a *handle* for the current graph
//! and reuses it for every right-hand side.
//! [`SolverPolicy::build_handle`] is the only way to get a solver. It
//! resolves `Auto` to the exact tree solve on trees and otherwise to
//! [`exact_tree_or_amg`]'s choice, the rule Step 2's embed shares.
//!
//! [`SolverHandle`] is object-safe: sessions share
//! `Arc<dyn SolverHandle>` across stages.

use crate::amg::AmgHierarchy;
use crate::laplacian_solver::{Kernel, PcgHandle};
use crate::preconditioner::{exact_tree_or_amg, TreePreconditioner};
use crate::tree_solver::TreeSolver;
use sgl_graph::laplacian::{laplacian_csr, LaplacianOp};
use sgl_graph::traversal::is_connected;
use sgl_graph::Graph;
use sgl_linalg::{par, vecops, CholeskyFactor, LinalgError, Preconditioner};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Cumulative statistics of a [`SolverHandle`] over its lifetime.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SolveStats {
    /// Right-hand sides solved (batch members count individually).
    pub solves: usize,
    /// [`SolverHandle::solve_batch`] calls.
    pub batches: usize,
    /// Cumulative inner (PCG) iterations; 0 for direct methods.
    pub iterations: usize,
    /// Relative residual of the most recent solve; 0 for direct methods.
    pub last_relative_residual: f64,
}

impl SolveStats {
    /// Fold a later snapshot into this one: counters add, and the later
    /// snapshot's residual becomes the "most recent" one if it recorded
    /// any solve at all.
    pub fn absorb(&mut self, later: &SolveStats) {
        self.solves += later.solves;
        self.batches += later.batches;
        self.iterations += later.iterations;
        if later.solves > 0 {
            self.last_relative_residual = later.last_relative_residual;
        }
    }
}

/// Interior-mutable stat counters (solves take `&self`).
#[derive(Debug, Default)]
pub(crate) struct StatCell {
    solves: AtomicUsize,
    batches: AtomicUsize,
    iterations: AtomicUsize,
    last_residual_bits: AtomicU64,
}

impl StatCell {
    pub(crate) fn record(&self, rhs: usize, iterations: usize, residual: f64) {
        self.solves.fetch_add(rhs, Ordering::Relaxed);
        self.iterations.fetch_add(iterations, Ordering::Relaxed);
        self.last_residual_bits
            .store(residual.to_bits(), Ordering::Relaxed);
        // Mirror into the unified metrics registry. Calls are per-solve
        // (post-join, in RHS order), so totals are bit-stable across thread
        // counts; gated on the recorder, so the disabled path stays a single
        // relaxed load inside `count`/`observe`.
        sgl_trace::count("solver.solves", rhs as u64);
        sgl_trace::count("solver.pcg_iterations_total", iterations as u64);
        if iterations > 0 {
            sgl_trace::observe("solver.pcg_iterations", iterations as u64);
        }
        if residual > 0.0 && residual.is_finite() {
            // Histogram of achieved accuracy in bits: -log2(residual).
            let bits = (-residual.log2()).clamp(0.0, 1024.0) as u64;
            sgl_trace::observe("solver.residual_bits", bits);
        }
    }

    pub(crate) fn record_batch(&self) {
        self.batches.fetch_add(1, Ordering::Relaxed);
        sgl_trace::count("solver.batches", 1);
    }

    pub(crate) fn snapshot(&self) -> SolveStats {
        SolveStats {
            solves: self.solves.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            iterations: self.iterations.load(Ordering::Relaxed),
            last_relative_residual: f64::from_bits(self.last_residual_bits.load(Ordering::Relaxed)),
        }
    }
}

/// A prepared, reusable solver for `L x = b` on one fixed graph.
///
/// Solutions are mean-zero (the canonical representative in the
/// Laplacian's quotient space). Handles are `Send + Sync` and cheap to
/// share via `Arc`: a session builds one per learned-graph revision and
/// every stage solves through it.
pub trait SolverHandle: Send + Sync {
    /// Number of nodes of the prepared graph.
    fn num_nodes(&self) -> usize;

    /// Name of the concrete method in use (after any `Auto` resolution).
    fn method_name(&self) -> &'static str;

    /// Solve `L x = b`, returning the mean-zero solution.
    ///
    /// # Errors
    /// Returns [`LinalgError::NotConverged`] when an iterative method
    /// hits its cap and a dimension error for a wrong-sized `b`.
    fn solve(&self, b: &[f64]) -> Result<Vec<f64>, LinalgError>;

    /// Solve `L X = B` for many right-hand sides in one call. Every
    /// RHS reuses the handle's prepared setup (factorization or
    /// preconditioner) — that amortization comes from the handle, not
    /// the batch — and routing multi-RHS work through this single entry
    /// point is what lets a handle add genuinely blocked solves without
    /// touching call sites. Current implementations solve the batch one
    /// RHS at a time.
    ///
    /// # Errors
    /// See [`SolverHandle::solve`].
    fn solve_batch(&self, rhs: &[Vec<f64>]) -> Result<Vec<Vec<f64>>, LinalgError>;

    /// Cumulative solve statistics for this handle.
    fn stats(&self) -> SolveStats;
}

// ---------------------------------------------------------------------------
// Dense Cholesky handle: small-N exact reference.
// ---------------------------------------------------------------------------

/// Dense Cholesky reference: factors `L + (1/N)·11ᵀ` (SPD on a connected
/// graph) once, then every solve is two exact triangular sweeps —
/// `O(N²)` per RHS with the `O(N³)` factorization paid once per handle,
/// which favors many-RHS workloads on small graphs. `O(N²)` memory, so
/// guarded by [`SolverPolicy::dense_max_nodes`]; this is the ground
/// truth the iterative methods are tested against.
struct DenseHandle {
    chol: CholeskyFactor,
    num_nodes: usize,
    parallelism: usize,
    stats: StatCell,
}

impl DenseHandle {
    /// Factor a connected, non-empty graph.
    fn new(graph: &Graph, parallelism: usize) -> Result<Self, LinalgError> {
        let n = graph.num_nodes();
        // L + (1/n)·11ᵀ is SPD and agrees with L on the mean-zero
        // subspace, so solving against it with a mean-zero b yields the
        // mean-zero Laplacian solution directly.
        let mut dense = laplacian_csr(graph).to_dense();
        let shift = 1.0 / n as f64;
        for i in 0..n {
            for j in 0..n {
                let v = dense.get(i, j) + shift;
                dense.set(i, j, v);
            }
        }
        Ok(DenseHandle {
            chol: CholeskyFactor::compute(&dense)?,
            num_nodes: n,
            parallelism,
            stats: StatCell::default(),
        })
    }

    fn solve_one(&self, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
        if b.len() != self.num_nodes {
            return Err(LinalgError::DimensionMismatch {
                context: "laplacian solve rhs",
                expected: self.num_nodes,
                actual: b.len(),
            });
        }
        let mut rhs = b.to_vec();
        vecops::project_out_mean(&mut rhs);
        let mut x = self.chol.solve(&rhs);
        vecops::project_out_mean(&mut x);
        Ok(x)
    }
}

impl SolverHandle for DenseHandle {
    fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    fn method_name(&self) -> &'static str {
        PolicyMethod::DenseCholesky.name()
    }

    fn solve(&self, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
        let _sp = sgl_trace::span!("dense_solve");
        let x = self.solve_one(b)?;
        self.stats.record(1, 0, 0.0);
        Ok(x)
    }

    fn solve_batch(&self, rhs: &[Vec<f64>]) -> Result<Vec<Vec<f64>>, LinalgError> {
        let _sp = sgl_trace::span!("solve_batch", count = rhs.len());
        self.stats.record_batch();
        // Independent triangular sweeps per RHS: fan out like the PCG
        // handle (results are per-RHS exact either way).
        let out = par::with_threads_hint(self.parallelism, || {
            par::try_map_indexed(rhs.len(), 1, |i| self.solve_one(&rhs[i]))
        })?;
        self.stats.record(rhs.len(), 0, 0.0);
        Ok(out)
    }

    fn stats(&self) -> SolveStats {
        self.stats.snapshot()
    }
}

// ---------------------------------------------------------------------------
// SolverPolicy: the plain-data, config-threadable description.
// ---------------------------------------------------------------------------

/// The method a [`SolverPolicy`] builds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PolicyMethod {
    /// Pick from the graph: the exact tree solve for trees; otherwise
    /// [`exact_tree_or_amg`]'s choice — tree-PCG on the exact near-tree
    /// preconditioner while the `k` off-tree edges satisfy
    /// `k² ≤ 16·N`, AMG-PCG above that.
    #[default]
    Auto,
    /// Exact `O(N)` elimination (graph must be a tree).
    TreeDirect,
    /// PCG preconditioned by a maximum-spanning-tree solve, exact (one
    /// PCG iteration per solve) when the `k` off-tree edges satisfy
    /// `0 < k` and `k² ≤ 16·N`; see [`TreePreconditioner`].
    TreePcg,
    /// PCG preconditioned by an aggregation-AMG V-cycle.
    AmgPcg,
    /// Dense Cholesky of `L + (1/N)·11ᵀ` — exact, small-N reference.
    DenseCholesky,
}

impl PolicyMethod {
    /// Short stable name (for logs and traces); a handle's
    /// [`method_name`](SolverHandle::method_name) is the name of the
    /// method `Auto` resolved to.
    pub fn name(self) -> &'static str {
        match self {
            PolicyMethod::Auto => "auto",
            PolicyMethod::TreeDirect => "tree-direct",
            PolicyMethod::TreePcg => "tree-pcg",
            PolicyMethod::AmgPcg => "amg-pcg",
            PolicyMethod::DenseCholesky => "dense-cholesky",
        }
    }
}

/// The user-controllable description of how the pipeline solves
/// Laplacian systems: which method, to what tolerance, under which
/// iteration cap. Plain data — thread it through `SglConfig` and hand it
/// to a [`SolverContext`](crate::SolverContext), or build a standalone
/// handle with [`build_handle`](SolverPolicy::build_handle).
#[derive(Debug, Clone, PartialEq)]
pub struct SolverPolicy {
    /// Method selection.
    pub method: PolicyMethod,
    /// Relative residual tolerance for iterative methods.
    pub rtol: f64,
    /// Iteration cap for iterative methods.
    pub max_iter: usize,
    /// Node-count guard for [`PolicyMethod::DenseCholesky`] (0 = off).
    pub dense_max_nodes: usize,
    /// Worker threads for `solve_batch` fan-out across right-hand sides.
    /// `0` (the default) inherits the ambient
    /// [`sgl_linalg::par`] thread count — all
    /// available cores unless a scope or environment override says
    /// otherwise; `1` pins the guaranteed-serial path (bit-identical
    /// results either way).
    pub parallelism: usize,
}

impl Default for SolverPolicy {
    fn default() -> Self {
        SolverPolicy {
            method: PolicyMethod::Auto,
            rtol: 1e-10,
            max_iter: 10_000,
            dense_max_nodes: 4096,
            parallelism: 0,
        }
    }
}

impl SolverPolicy {
    /// Validate the policy.
    ///
    /// # Errors
    /// Returns [`LinalgError::InvalidInput`] for a non-finite or
    /// non-positive tolerance or a zero iteration cap.
    pub fn validate(&self) -> Result<(), LinalgError> {
        if !self.rtol.is_finite() || self.rtol <= 0.0 {
            return Err(LinalgError::InvalidInput(format!(
                "solver rtol must be finite and positive, got {}",
                self.rtol
            )));
        }
        if self.max_iter == 0 {
            return Err(LinalgError::InvalidInput(
                "solver max_iter must be at least 1".into(),
            ));
        }
        Ok(())
    }

    /// Validate, resolve the method, and prepare a handle for `graph`.
    ///
    /// # Errors
    /// See [`SolverPolicy::validate`]; also returns
    /// [`LinalgError::InvalidInput`] for graphs the method cannot
    /// prepare (empty, disconnected, above `dense_max_nodes` for
    /// [`PolicyMethod::DenseCholesky`], non-tree for
    /// [`PolicyMethod::TreeDirect`]).
    pub fn build_handle(&self, graph: &Graph) -> Result<Arc<dyn SolverHandle>, LinalgError> {
        self.validate()?;
        let n = graph.num_nodes();
        if n == 0 {
            return Err(LinalgError::InvalidInput("empty graph".into()));
        }
        if self.method == PolicyMethod::DenseCholesky
            && self.dense_max_nodes != 0
            && n > self.dense_max_nodes
        {
            return Err(LinalgError::InvalidInput(format!(
                "dense Cholesky limited to {} nodes, got {n}; raise \
                 dense_max_nodes or use an iterative method",
                self.dense_max_nodes
            )));
        }
        if !is_connected(graph) {
            return Err(LinalgError::InvalidInput(
                "laplacian solver requires a connected graph".into(),
            ));
        }
        let is_tree = graph.num_edges() == n - 1;
        let (method, precond): (_, Box<dyn Preconditioner + Send + Sync>) = match self.method {
            PolicyMethod::DenseCholesky => {
                return Ok(Arc::new(DenseHandle::new(graph, self.parallelism)?));
            }
            PolicyMethod::Auto | PolicyMethod::TreeDirect if is_tree => {
                let kernel = Kernel::Tree(TreeSolver::new(graph));
                return Ok(Arc::new(PcgHandle::new(
                    kernel,
                    PolicyMethod::TreeDirect,
                    self,
                    n,
                )));
            }
            PolicyMethod::TreeDirect => {
                return Err(LinalgError::InvalidInput(
                    "TreeDirect requested on a graph with cycles".into(),
                ));
            }
            PolicyMethod::Auto => exact_tree_or_amg(graph),
            PolicyMethod::TreePcg => (
                PolicyMethod::TreePcg,
                Box::new(TreePreconditioner::from_graph(graph)),
            ),
            PolicyMethod::AmgPcg => (PolicyMethod::AmgPcg, Box::new(AmgHierarchy::build(graph))),
        };
        let kernel = Kernel::Pcg {
            op: LaplacianOp::new(graph),
            precond,
        };
        Ok(Arc::new(PcgHandle::new(kernel, method, self, n)))
    }

    /// Builder-style setter for the method.
    #[must_use]
    pub fn with_method(mut self, method: PolicyMethod) -> Self {
        self.method = method;
        self
    }

    /// Builder-style setter for the tolerance.
    #[must_use]
    pub fn with_rtol(mut self, rtol: f64) -> Self {
        self.rtol = rtol;
        self
    }

    /// Builder-style setter for the iteration cap.
    #[must_use]
    pub fn with_max_iter(mut self, max_iter: usize) -> Self {
        self.max_iter = max_iter;
        self
    }

    /// Builder-style setter for the batch-solve worker count
    /// (0 = ambient/all cores, 1 = serial).
    #[must_use]
    pub fn with_parallelism(mut self, parallelism: usize) -> Self {
        self.parallelism = parallelism;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgl_datasets::grid2d;
    use sgl_linalg::Rng;

    fn mean_zero_rhs(n: usize, seed: u64) -> Vec<f64> {
        let mut rng = Rng::seed_from_u64(seed);
        let mut b = rng.normal_vec(n);
        vecops::project_out_mean(&mut b);
        b
    }

    fn dense() -> SolverPolicy {
        SolverPolicy::default().with_method(PolicyMethod::DenseCholesky)
    }

    #[test]
    fn dense_cholesky_matches_iterative() {
        let g = grid2d(7, 7);
        let b = mean_zero_rhs(49, 1);
        let dense = dense().build_handle(&g).unwrap();
        let pcg = SolverPolicy::default().build_handle(&g).unwrap();
        let xd = dense.solve(&b).unwrap();
        let xi = pcg.solve(&b).unwrap();
        let d = vecops::sub(&xd, &xi);
        assert!(vecops::norm2(&d) < 1e-7, "methods disagree");
        assert!(vecops::mean(&xd).abs() < 1e-12);
    }

    #[test]
    fn dense_cholesky_solves_exactly() {
        let g = grid2d(6, 5);
        let b = mean_zero_rhs(30, 2);
        let h = dense().build_handle(&g).unwrap();
        let x = h.solve(&b).unwrap();
        let l = laplacian_csr(&g);
        let r = vecops::sub(&b, &l.matvec(&x));
        assert!(vecops::norm2(&r) / vecops::norm2(&b) < 1e-10);
    }

    #[test]
    fn solve_batch_matches_sequential() {
        let g = grid2d(6, 6);
        let rhs: Vec<Vec<f64>> = (0..4).map(|i| mean_zero_rhs(36, 10 + i)).collect();
        for policy in [SolverPolicy::default(), dense()] {
            let h = policy.build_handle(&g).unwrap();
            let batch = h.solve_batch(&rhs).unwrap();
            for (b, x) in rhs.iter().zip(&batch) {
                let single = h.solve(b).unwrap();
                let d = vecops::sub(x, &single);
                assert!(
                    vecops::norm2(&d) < 1e-12,
                    "{} batch mismatch",
                    h.method_name()
                );
            }
        }
    }

    #[test]
    fn parallel_batch_is_bit_identical_to_serial() {
        use sgl_linalg::par;
        let g = grid2d(9, 9);
        let rhs: Vec<Vec<f64>> = (0..6).map(|i| mean_zero_rhs(81, 30 + i)).collect();
        for method in [PolicyMethod::Auto, PolicyMethod::DenseCholesky] {
            let serial = SolverPolicy::default()
                .with_method(method)
                .with_parallelism(1)
                .build_handle(&g)
                .unwrap()
                .solve_batch(&rhs)
                .unwrap();
            for threads in [2usize, 4] {
                let h = SolverPolicy::default()
                    .with_method(method)
                    .with_parallelism(threads)
                    .build_handle(&g)
                    .unwrap();
                let par_xs = h.solve_batch(&rhs).unwrap();
                assert_eq!(par_xs, serial, "{method:?} at {threads} threads");
                // The ambient (policy 0) path under an explicit scope
                // override agrees too, and stats stay deterministic.
                let amb = SolverPolicy::default()
                    .with_method(method)
                    .build_handle(&g)
                    .unwrap();
                let amb_xs = par::with_threads(threads, || amb.solve_batch(&rhs).unwrap());
                assert_eq!(amb_xs, serial);
                assert_eq!(amb.stats().solves, rhs.len());
                assert_eq!(amb.stats().batches, 1);
            }
        }
    }

    #[test]
    fn stats_count_solves_and_batches() {
        let g = grid2d(5, 5);
        let h = SolverPolicy::default().build_handle(&g).unwrap();
        assert_eq!(h.stats(), SolveStats::default());
        let rhs: Vec<Vec<f64>> = (0..3).map(|i| mean_zero_rhs(25, i)).collect();
        h.solve(&rhs[0]).unwrap();
        h.solve_batch(&rhs).unwrap();
        let st = h.stats();
        assert_eq!(st.solves, 4);
        assert_eq!(st.batches, 1);
        assert!(st.iterations > 0, "PCG should report iterations");
        assert!(st.last_relative_residual < 1e-9);
    }

    #[test]
    fn dense_guard_and_bad_graphs_rejected() {
        let g = grid2d(5, 5);
        let limited = |max| SolverPolicy {
            dense_max_nodes: max,
            ..dense()
        };
        assert!(limited(10).build_handle(&g).is_err());
        assert!(limited(0).build_handle(&g).is_ok());
        let disconnected = Graph::from_edges(4, [(0, 1, 1.0), (2, 3, 1.0)]);
        assert!(dense().build_handle(&disconnected).is_err());
        assert!(SolverPolicy::default().build_handle(&disconnected).is_err());
    }

    #[test]
    fn policy_builds_every_method() {
        let g = grid2d(5, 5);
        let b = mean_zero_rhs(25, 3);
        let reference = dense().build_handle(&g).unwrap().solve(&b).unwrap();
        for method in [
            PolicyMethod::Auto,
            PolicyMethod::TreePcg,
            PolicyMethod::AmgPcg,
        ] {
            let h = SolverPolicy::default()
                .with_method(method)
                .build_handle(&g)
                .unwrap();
            let x = h.solve(&b).unwrap();
            let d = vecops::sub(&x, &reference);
            assert!(
                vecops::norm2(&d) < 1e-6,
                "{method:?} disagrees with dense reference"
            );
        }
    }

    #[test]
    fn policy_validation_rejects_bad_values() {
        assert!(SolverPolicy::default().with_rtol(0.0).validate().is_err());
        assert!(SolverPolicy::default()
            .with_rtol(f64::NAN)
            .validate()
            .is_err());
        assert!(SolverPolicy::default().with_max_iter(0).validate().is_err());
        assert!(SolverPolicy::default()
            .with_rtol(0.0)
            .build_handle(&grid2d(3, 3))
            .is_err());
    }

    #[test]
    fn policy_threads_tolerance_into_facade() {
        // A loose tolerance must reach the PCG loop: far fewer iterations.
        let g = grid2d(12, 12);
        let b = mean_zero_rhs(144, 4);
        let tight = SolverPolicy::default()
            .with_method(PolicyMethod::AmgPcg)
            .build_handle(&g)
            .unwrap();
        tight.solve(&b).unwrap();
        let loose = SolverPolicy::default()
            .with_method(PolicyMethod::AmgPcg)
            .with_rtol(1e-2)
            .build_handle(&g)
            .unwrap();
        loose.solve(&b).unwrap();
        assert!(loose.stats().iterations < tight.stats().iterations);
    }
}
