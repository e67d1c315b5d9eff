//! Dense projected-gradient Laplacian estimation — the small-scale
//! stand-in for the CVX-based GSP methods of [2, 3, 5].
//!
//! Maximizes the objective of eq. (2) over non-negative edge weights on a
//! fixed candidate edge set, using the exact gradient of eq. (4):
//!
//! ```text
//! ∂F/∂w_st = Σ_i (u_iᵀ e_st)² / (λ_i + 1/σ²) − (1/M)‖Xᵀe_st‖² − 4β
//! ```
//!
//! with a full dense eigendecomposition per iteration (`O(N³)`), a
//! projection `w ← max(w, 0)`, and backtracking line search. This is
//! exactly the computation SGL avoids; at `N` in the low hundreds it
//! provides a trustworthy reference optimum for validating SGL's
//! solution quality.

use sgl_core::{Measurements, SglError};
use sgl_graph::Graph;
use sgl_linalg::{vecops, DenseMatrix, SymEig};

/// Options for the dense estimator.
#[derive(Debug, Clone)]
pub struct DenseGspOptions {
    /// Prior variance σ² (kept finite so `Θ = L + I/σ²` is PD even when
    /// weights vanish).
    pub sigma_sq: f64,
    /// ℓ1 sparsity weight β (adds `−4β` to every gradient entry).
    pub beta: f64,
    /// Gradient-ascent iteration cap.
    pub max_iterations: usize,
    /// Stop when the projected gradient's max-norm falls below this.
    pub grad_tol: f64,
    /// Initial step size for the backtracking line search.
    pub initial_step: f64,
}

impl Default for DenseGspOptions {
    fn default() -> Self {
        DenseGspOptions {
            sigma_sq: 1e4,
            beta: 0.0,
            max_iterations: 300,
            grad_tol: 1e-6,
            initial_step: 1.0,
        }
    }
}

/// Output of [`DenseGspEstimator::estimate`].
#[derive(Debug, Clone)]
pub struct GspResult {
    /// The estimated graph (candidate edges with optimized weights;
    /// zero-weight edges are dropped).
    pub graph: Graph,
    /// Objective value after each accepted step.
    pub objective_trace: Vec<f64>,
    /// Iterations performed.
    pub iterations: usize,
    /// Max-norm of the projected gradient at exit.
    pub final_gradient_norm: f64,
}

/// The dense graphical-Lasso-style estimator.
#[derive(Debug, Clone, Default)]
pub struct DenseGspEstimator {
    opts: DenseGspOptions,
}

struct Problem<'a> {
    edges: Vec<(usize, usize)>,
    zdata: Vec<f64>,
    n: usize,
    shift: f64,
    beta: f64,
    meas: &'a Measurements,
}

impl Problem<'_> {
    fn laplacian(&self, w: &[f64]) -> DenseMatrix {
        let mut l = DenseMatrix::zeros(self.n, self.n);
        for (k, &(u, v)) in self.edges.iter().enumerate() {
            let wk = w[k];
            if wk == 0.0 {
                continue;
            }
            l.set(u, u, l.get(u, u) + wk);
            l.set(v, v, l.get(v, v) + wk);
            l.set(u, v, l.get(u, v) - wk);
            l.set(v, u, l.get(v, u) - wk);
        }
        l
    }

    /// Objective F(w) and its eigendecomposition (reused for gradients).
    fn objective(&self, w: &[f64]) -> Result<(f64, SymEig), SglError> {
        let l = self.laplacian(w);
        let eig = SymEig::compute(&l)?;
        let log_det: f64 = eig
            .values
            .iter()
            .map(|&v| (v + self.shift).max(f64::MIN_POSITIVE).ln())
            .sum();
        let m = self.meas.num_measurements();
        let mut tr = 0.0;
        for i in 0..m {
            let xi = self.meas.voltage_vector(i);
            let lx = l.matvec(&xi);
            tr += vecops::dot(&xi, &lx) + self.shift * vecops::norm2_sq(&xi);
        }
        tr /= m as f64;
        let l1 = 4.0 * self.beta * w.iter().sum::<f64>();
        Ok((log_det - tr - l1, eig))
    }

    /// Exact gradient via eq. (4).
    fn gradient(&self, eig: &SymEig) -> Vec<f64> {
        let m = self.meas.num_measurements() as f64;
        let mut grad = vec![0.0; self.edges.len()];
        for (k, &(u, v)) in self.edges.iter().enumerate() {
            let mut emb = 0.0;
            for i in 0..self.n {
                let col = eig.vectors.column(i);
                let d = col[u] - col[v];
                emb += d * d / (eig.values[i] + self.shift).max(f64::MIN_POSITIVE);
            }
            grad[k] = emb - self.zdata[k] / m - 4.0 * self.beta;
        }
        grad
    }
}

impl DenseGspEstimator {
    /// Create an estimator.
    pub fn new(opts: DenseGspOptions) -> Self {
        DenseGspEstimator { opts }
    }

    /// Optimize edge weights on the candidate edge set of `candidates`
    /// (its weights seed the iteration).
    ///
    /// # Errors
    /// Propagates eigendecomposition failures; rejects node-count
    /// mismatches and empty candidate sets.
    pub fn estimate(
        &self,
        measurements: &Measurements,
        candidates: &Graph,
    ) -> Result<GspResult, SglError> {
        let n = candidates.num_nodes();
        if n != measurements.num_nodes() {
            return Err(SglError::InvalidMeasurements(format!(
                "candidates have {n} nodes, measurements {}",
                measurements.num_nodes()
            )));
        }
        if candidates.num_edges() == 0 {
            return Err(SglError::InvalidGraph("no candidate edges".into()));
        }
        let edges: Vec<(usize, usize)> = candidates.edges().iter().map(|e| (e.u, e.v)).collect();
        let zdata: Vec<f64> = edges
            .iter()
            .map(|&(u, v)| measurements.data_distance_sq(u, v))
            .collect();
        let problem = Problem {
            edges,
            zdata,
            n,
            shift: 1.0 / self.opts.sigma_sq,
            beta: self.opts.beta,
            meas: measurements,
        };

        let mut w: Vec<f64> = candidates.edges().iter().map(|e| e.weight).collect();
        let (mut f, mut eig) = problem.objective(&w)?;
        let mut trace = vec![f];
        let mut step = self.opts.initial_step;
        let mut grad_norm = f64::INFINITY;
        let mut iterations = 0;
        for it in 1..=self.opts.max_iterations {
            iterations = it;
            let grad = problem.gradient(&eig);
            // Projected gradient: ignore descent directions blocked at 0.
            grad_norm = w
                .iter()
                .zip(&grad)
                .map(|(&wk, &gk)| if wk <= 0.0 && gk < 0.0 { 0.0 } else { gk.abs() })
                .fold(0.0f64, f64::max);
            if grad_norm <= self.opts.grad_tol {
                break;
            }
            // Backtracking line search on the projected step.
            let mut accepted = false;
            for _ in 0..40 {
                let trial: Vec<f64> = w
                    .iter()
                    .zip(&grad)
                    .map(|(&wk, &gk)| (wk + step * gk).max(0.0))
                    .collect();
                match problem.objective(&trial) {
                    Ok((ft, eigt)) if ft > f => {
                        w = trial;
                        f = ft;
                        eig = eigt;
                        trace.push(f);
                        accepted = true;
                        // Gentle step growth after success.
                        step *= 1.5;
                        break;
                    }
                    _ => step *= 0.5,
                }
            }
            if !accepted {
                break; // line search exhausted: at (numerical) optimum
            }
        }

        let mut graph = Graph::new(n);
        for (k, &(u, v)) in problem.edges.iter().enumerate() {
            if w[k] > 1e-12 {
                graph.add_edge(u, v, w[k]);
            }
        }
        Ok(GspResult {
            graph,
            objective_trace: trace,
            iterations,
            final_gradient_norm: grad_norm,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgl_datasets::grid2d;
    use sgl_knn::build_knn_graph;

    fn setup(nx: usize, ny: usize, m: usize, seed: u64) -> (Graph, Measurements, Graph) {
        let truth = grid2d(nx, ny);
        let meas = Measurements::generate(&truth, m, seed).unwrap();
        let knn = build_knn_graph(meas.voltages(), 5);
        (truth, meas, knn)
    }

    #[test]
    fn objective_increases_monotonically() {
        let (_, meas, knn) = setup(5, 5, 15, 1);
        let est = DenseGspEstimator::new(DenseGspOptions {
            max_iterations: 40,
            ..DenseGspOptions::default()
        });
        let r = est.estimate(&meas, &knn).unwrap();
        for wpair in r.objective_trace.windows(2) {
            assert!(wpair[1] >= wpair[0], "objective must not decrease");
        }
        assert!(r.objective_trace.len() > 1, "should make progress");
    }

    #[test]
    fn improves_over_initial_candidates() {
        let (_, meas, knn) = setup(5, 5, 20, 2);
        let est = DenseGspEstimator::new(DenseGspOptions {
            max_iterations: 60,
            ..DenseGspOptions::default()
        });
        let r = est.estimate(&meas, &knn).unwrap();
        let gain = r.objective_trace.last().unwrap() - r.objective_trace.first().unwrap();
        assert!(gain > 0.0, "no improvement: {gain}");
    }

    #[test]
    fn mismatched_nodes_rejected() {
        let (_, meas, _) = setup(4, 4, 10, 3);
        let wrong = grid2d(3, 3);
        let est = DenseGspEstimator::default();
        assert!(est.estimate(&meas, &wrong).is_err());
    }

    #[test]
    fn empty_candidates_rejected() {
        let (_, meas, _) = setup(4, 4, 10, 4);
        let empty = Graph::new(16);
        assert!(DenseGspEstimator::default()
            .estimate(&meas, &empty)
            .is_err());
    }
}
