//! Effective resistance computation behind one trait —
//! [`ResistanceEstimator`] — with three estimators:
//!
//! * [`ExactSolve`] — one Laplacian solve per pair through a shared
//!   [`SolverHandle`] (batched over pair lists);
//! * [`ResistanceSketch`] — the Spielman–Srivastava
//!   Johnson–Lindenstrauss projection the paper's sample-complexity
//!   analysis builds on (eq. 18): `q` batched solves of preprocessing,
//!   `O(q)` per query. Weight refinement and sparsification use it;
//! * [`SpectralSketch`] — a *solver-free* truncated-spectrum sketch in
//!   the spirit of SF-SGL (Zhang, Zhao & Feng 2023): a dense
//!   eigendecomposition below a cutoff, filtered Rayleigh–Ritz
//!   extraction above it, no [`SolverHandle`] construction anywhere.
//!
//! A session serves the estimator of its strategy:
//! [`LearnStrategyKind::resistance_estimator`](crate::LearnStrategyKind::resistance_estimator)
//! returns [`ExactSolve`] for the solver strategy and [`SpectralSketch`]
//! for the solver-free one.

use crate::error::SglError;
use sgl_graph::laplacian::{laplacian_csr, LaplacianOp};
use sgl_graph::Graph;
use sgl_linalg::lanczos::SpectralPairs;
use sgl_linalg::{filtered_spectrum, DenseMatrix, FilteredSpectrumOptions, Rng, SymEig};
use sgl_solver::{SolverHandle, SolverPolicy};
use std::sync::Arc;

/// A prepared effective-resistance oracle for one fixed graph.
///
/// Estimators are immutable once built and `Send + Sync`: one estimator
/// (boxed or `Arc`-shared) can serve queries from many reader threads
/// concurrently without a mutex — the serving layer (`sgl-serve`) relies
/// on this to answer resistance queries lock-free against a published
/// snapshot.
pub trait ResistanceEstimator: std::fmt::Debug + Send + Sync {
    /// Short strategy name (for logs and traces).
    fn name(&self) -> &'static str;

    /// Number of nodes of the prepared graph.
    fn num_nodes(&self) -> usize;

    /// Effective resistance (estimate) between two distinct nodes.
    ///
    /// # Errors
    /// Returns [`SglError::OutOfRange`] for out-of-range or equal
    /// indices; propagates solver failures.
    fn resistance(&self, s: usize, t: usize) -> Result<f64, SglError>;

    /// Resistances for a batch of pairs.
    ///
    /// # Errors
    /// See [`ResistanceEstimator::resistance`].
    fn resistances(&self, pairs: &[(usize, usize)]) -> Result<Vec<f64>, SglError> {
        pairs.iter().map(|&(s, t)| self.resistance(s, t)).collect()
    }
}

fn check_pair(n: usize, s: usize, t: usize) -> Result<(), SglError> {
    if s >= n || t >= n {
        return Err(SglError::OutOfRange(format!(
            "node pair ({s}, {t}) out of range for {n} nodes"
        )));
    }
    if s == t {
        return Err(SglError::OutOfRange(format!(
            "effective resistance needs distinct nodes, got ({s}, {s})"
        )));
    }
    Ok(())
}

/// A spectral sketch needs a connected graph of at least two nodes.
fn check_sketch_graph(graph: &Graph) -> Result<(), SglError> {
    if graph.num_nodes() < 2 {
        return Err(SglError::InvalidGraph(
            "resistance sketch needs at least two nodes".into(),
        ));
    }
    if !sgl_graph::traversal::is_connected(graph) {
        return Err(SglError::InvalidGraph(
            "resistance sketch requires a connected graph".into(),
        ));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// ExactSolve
// ---------------------------------------------------------------------------

/// Exact effective resistances via `R(s,t) = (e_s − e_t)ᵀ L⁺ (e_s − e_t)`
/// through a shared [`SolverHandle`]; pair lists go through one
/// [`solve_batch`](SolverHandle::solve_batch) call.
#[derive(Clone)]
pub struct ExactSolve {
    handle: Arc<dyn SolverHandle>,
}

impl std::fmt::Debug for ExactSolve {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExactSolve")
            .field("num_nodes", &self.handle.num_nodes())
            .field("method", &self.handle.method_name())
            .finish()
    }
}

impl ExactSolve {
    /// Wrap an already-built handle (the session path).
    pub fn from_handle(handle: Arc<dyn SolverHandle>) -> Self {
        ExactSolve { handle }
    }

    /// Build a handle for `graph` under `policy`, then wrap it.
    ///
    /// # Errors
    /// Propagates solver construction failures.
    pub fn build(graph: &Graph, policy: &SolverPolicy) -> Result<Self, SglError> {
        Ok(ExactSolve {
            handle: policy.build_handle(graph)?,
        })
    }
}

impl ResistanceEstimator for ExactSolve {
    fn name(&self) -> &'static str {
        "exact-solve"
    }

    fn num_nodes(&self) -> usize {
        self.handle.num_nodes()
    }

    fn resistance(&self, s: usize, t: usize) -> Result<f64, SglError> {
        effective_resistance(self.handle.as_ref(), s, t)
    }

    fn resistances(&self, pairs: &[(usize, usize)]) -> Result<Vec<f64>, SglError> {
        let n = self.num_nodes();
        let mut rhs = Vec::with_capacity(pairs.len());
        for &(s, t) in pairs {
            check_pair(n, s, t)?;
            let mut b = vec![0.0; n];
            b[s] = 1.0;
            b[t] = -1.0;
            rhs.push(b);
        }
        let xs = self.handle.solve_batch(&rhs)?;
        Ok(pairs
            .iter()
            .zip(&xs)
            .map(|(&(s, t), x)| x[s] - x[t])
            .collect())
    }
}

/// Exact effective resistance between two nodes via one solve on a
/// prepared handle.
///
/// # Errors
/// Returns [`SglError::OutOfRange`] for out-of-range or equal indices;
/// propagates solver failures.
pub fn effective_resistance(
    handle: &dyn SolverHandle,
    s: usize,
    t: usize,
) -> Result<f64, SglError> {
    let n = handle.num_nodes();
    check_pair(n, s, t)?;
    let mut b = vec![0.0; n];
    b[s] = 1.0;
    b[t] = -1.0;
    let x = handle.solve(&b)?;
    Ok(x[s] - x[t])
}

/// Exact effective resistances for a batch of node pairs: one
/// default-policy handle, one batched solve.
///
/// # Errors
/// Propagates solver construction/solve failures; returns
/// [`SglError::OutOfRange`] for invalid pairs.
pub fn pairwise_effective_resistances(
    graph: &Graph,
    pairs: &[(usize, usize)],
) -> Result<Vec<f64>, SglError> {
    ExactSolve::build(graph, &SolverPolicy::default())?.resistances(pairs)
}

// ---------------------------------------------------------------------------
// ResistanceSketch (JL)
// ---------------------------------------------------------------------------

/// A JL sketch of the effective-resistance metric: `q` random projections
/// of `W^{1/2} B L⁺`, so `R(s,t) ≈ ‖Z e_{s,t}‖²` for any pair in `O(q)`
/// time after `q` batched solves of preprocessing.
#[derive(Debug, Clone)]
pub struct ResistanceSketch {
    /// `q × N`, row i = zᵢᵀ with zᵢ = L⁺ Bᵀ W^{1/2} cᵢ.
    rows: DenseMatrix,
}

impl ResistanceSketch {
    /// Build a sketch with `q` projections through a default-policy
    /// handle (see [`ResistanceSketch::build_with`] for the shared-handle
    /// path).
    ///
    /// `q = O(log N / ε²)` yields `(1±ε)` estimates (eq. 18); in practice
    /// `q ≈ 8 ln N` gives usable scatter plots.
    ///
    /// # Errors
    /// Propagates solver failures; rejects `q == 0`.
    pub fn build(graph: &Graph, q: usize, seed: u64) -> Result<Self, SglError> {
        let handle = SolverPolicy::default().build_handle(graph)?;
        Self::build_with(handle.as_ref(), graph, q, seed)
    }

    /// Build a sketch through an existing handle for `graph`: the `q`
    /// projected right-hand sides are assembled up front and solved in
    /// one [`solve_batch`](SolverHandle::solve_batch) call.
    ///
    /// # Errors
    /// See [`ResistanceSketch::build`].
    pub fn build_with(
        handle: &dyn SolverHandle,
        graph: &Graph,
        q: usize,
        seed: u64,
    ) -> Result<Self, SglError> {
        if q == 0 {
            return Err(SglError::InvalidConfig(
                "sketch needs at least one projection".into(),
            ));
        }
        let n = graph.num_nodes();
        if handle.num_nodes() != n {
            return Err(SglError::InvalidGraph(format!(
                "solver handle prepared for {} nodes, graph has {n}",
                handle.num_nodes()
            )));
        }
        let mut rng = Rng::seed_from_u64(seed);
        let scale = 1.0 / (q as f64).sqrt();
        let mut rhs = Vec::with_capacity(q);
        for _ in 0..q {
            // b = Bᵀ W^{1/2} c, assembled edge by edge with c ∈ {±1/√q}.
            let mut b = vec![0.0; n];
            for e in graph.edges() {
                let c = rng.rademacher() * scale * e.weight.sqrt();
                b[e.u] += c;
                b[e.v] -= c;
            }
            rhs.push(b);
        }
        let zs = handle.solve_batch(&rhs)?;
        let mut rows = DenseMatrix::zeros(q, n);
        for (i, z) in zs.iter().enumerate() {
            rows.row_mut(i).copy_from_slice(z);
        }
        Ok(ResistanceSketch { rows })
    }

    /// Recommended projection count `⌈24 ln N / ε²⌉` (eq. 18).
    pub fn recommended_projections(num_nodes: usize, epsilon: f64) -> usize {
        assert!(epsilon > 0.0, "epsilon must be positive");
        ((24.0 * (num_nodes.max(2) as f64).ln()) / (epsilon * epsilon)).ceil() as usize
    }

    /// Number of projections `q`.
    pub fn num_projections(&self) -> usize {
        self.rows.nrows()
    }

    /// Estimated effective resistance `‖Z e_{s,t}‖²`.
    ///
    /// # Errors
    /// Returns [`SglError::OutOfRange`] for out-of-range or equal
    /// indices.
    pub fn estimate(&self, s: usize, t: usize) -> Result<f64, SglError> {
        check_pair(self.rows.ncols(), s, t)?;
        let q = self.rows.nrows();
        let mut acc = 0.0;
        for i in 0..q {
            let r = self.rows.row(i);
            let d = r[s] - r[t];
            acc += d * d;
        }
        Ok(acc)
    }
}

impl ResistanceEstimator for ResistanceSketch {
    fn name(&self) -> &'static str {
        "jl-sketch"
    }

    fn num_nodes(&self) -> usize {
        self.rows.ncols()
    }

    fn resistance(&self, s: usize, t: usize) -> Result<f64, SglError> {
        self.estimate(s, t)
    }

    fn resistances(&self, pairs: &[(usize, usize)]) -> Result<Vec<f64>, SglError> {
        // O(q) per query and read-only: pair-partition across the
        // ambient thread count (each entry identical to the serial scan).
        sgl_linalg::par::try_map_indexed(pairs.len(), 64, |i| self.estimate(pairs[i].0, pairs[i].1))
    }
}

// ---------------------------------------------------------------------------
// SpectralSketch (solver-free)
// ---------------------------------------------------------------------------

/// Solver-free truncated-spectrum resistance sketch (SF-SGL style).
///
/// Uses the spectral expansion `R(s,t) = Σ_{j≥2} (u_j[s] − u_j[t])²/λ_j`
/// truncated to `width` nontrivial eigenpairs, stored as rows
/// `u_j/√λ_j` so queries are the same squared row-distance as the JL
/// sketch. Eigenpairs come from a dense eigendecomposition at or below
/// [`SpectralSketch::DENSE_CUTOFF`] nodes (where the truncation can run
/// to the full spectrum and the sketch is *exact*) and from the filtered
/// Rayleigh–Ritz extraction above it — no Laplacian solver is ever
/// constructed, which is the SF-SGL observation: the resistance step of
/// the learning loop does not need one.
///
/// Truncation makes the estimate a *lower bound* (eq. 20) that tightens
/// as `width` grows and is exact at `width = N − 1`.
#[derive(Debug, Clone)]
pub struct SpectralSketch {
    /// `width × N`, row j = `u_{j+2}ᵀ / √λ_{j+2}`.
    rows: DenseMatrix,
    /// The retained nontrivial eigenvalues (ascending).
    eigenvalues: Vec<f64>,
}

impl SpectralSketch {
    /// Below this node count the full dense spectrum is used.
    pub const DENSE_CUTOFF: usize = 512;
    /// Auto width: `min(N − 1, AUTO_WIDTH_CAP)`.
    pub const AUTO_WIDTH_CAP: usize = 128;

    /// Build a sketch with `width` nontrivial eigenpairs (0 = auto:
    /// the full spectrum at or below [`SpectralSketch::DENSE_CUTOFF`]
    /// nodes, otherwise [`SpectralSketch::AUTO_WIDTH_CAP`]).
    ///
    /// At or below the cutoff the eigenpairs come from a dense
    /// eigendecomposition; above it, a dense solve is far too expensive
    /// for an estimator rebuilt every graph revision, so this is
    /// [`SpectralSketch::build_filtered`] with default options.
    ///
    /// # Errors
    /// Returns [`SglError::InvalidGraph`] for empty/disconnected graphs
    /// and propagates eigensolver failures.
    pub fn build(graph: &Graph, width: usize, seed: u64) -> Result<Self, SglError> {
        let n = graph.num_nodes();
        if n > Self::DENSE_CUTOFF {
            return Self::build_filtered(graph, width, seed, &FilteredSpectrumOptions::default());
        }
        check_sketch_graph(graph)?;
        let width = if width == 0 { n - 1 } else { width.min(n - 1) };
        let eig = SymEig::compute(&laplacian_csr(graph).to_dense())?;
        let vectors: Vec<Vec<f64>> = (1..=width).map(|j| eig.vectors.column(j)).collect();
        Ok(Self::assemble(eig.values[1..=width].to_vec(), &vectors, n))
    }

    /// Build a sketch of `width` nontrivial eigenpairs (0 = auto:
    /// [`SpectralSketch::AUTO_WIDTH_CAP`]) through the filtered
    /// Rayleigh–Ritz extraction ([`filtered_spectrum`]) — the SF-SGL
    /// route: smoothed test vectors (weighted-Jacobi low-pass filtering)
    /// instead of a dense eigendecomposition or a Lanczos recurrence.
    /// Like [`SpectralSketch::build`] this never constructs a Laplacian
    /// solver.
    ///
    /// # Errors
    /// Returns [`SglError::InvalidGraph`] for empty/disconnected graphs
    /// and propagates eigensolver failures.
    pub fn build_filtered(
        graph: &Graph,
        width: usize,
        seed: u64,
        opts: &FilteredSpectrumOptions,
    ) -> Result<Self, SglError> {
        check_sketch_graph(graph)?;
        let n = graph.num_nodes();
        let full = n - 1;
        let width = if width == 0 {
            full.min(Self::AUTO_WIDTH_CAP)
        } else {
            width.min(full)
        };
        let op = LaplacianOp::new(graph);
        let diag = graph.weighted_degrees();
        let mut opts = opts.clone();
        opts.filter.seed = seed;
        // Heavy low-pass smoothing collapses the test-vector span toward
        // the smooth end of the spectrum; when the requested width is a
        // large fraction of it, damp the sweep count so the Rayleigh–Ritz
        // subspace keeps full rank.
        opts.filter.sweeps = opts.filter.sweeps.min((n / width.max(1)).max(1));
        let pairs = filtered_spectrum(&op, &diag, width, None, &opts)?;
        Ok(Self::from_pairs(&pairs))
    }

    /// Assemble a sketch from already-computed nontrivial eigenpairs
    /// (`vectors` columns, `values` ascending) — the shared tail of every
    /// construction path, and the hook the solver-free strategy uses to
    /// reuse its band-filtered eigenpairs as a resistance oracle without
    /// a second extraction.
    pub fn from_pairs(pairs: &SpectralPairs) -> Self {
        let n = pairs.vectors.nrows();
        let width = pairs.values.len();
        let vectors: Vec<Vec<f64>> = (0..width).map(|j| pairs.vectors.column(j)).collect();
        Self::assemble(pairs.values.clone(), &vectors, n)
    }

    fn assemble(values: Vec<f64>, vectors: &[Vec<f64>], n: usize) -> Self {
        let mut rows = DenseMatrix::zeros(values.len(), n);
        // Row builds are independent scalings of distinct eigenvectors:
        // partition them across the ambient thread count.
        sgl_linalg::par::for_each_row_chunk(rows.as_mut_slice(), n, 8, |first, chunk| {
            for (r, row) in chunk.chunks_mut(n).enumerate() {
                let j = first + r;
                let denom = values[j].max(f64::MIN_POSITIVE).sqrt();
                for (out, x) in row.iter_mut().zip(&vectors[j]) {
                    *out = x / denom;
                }
            }
        });
        SpectralSketch {
            rows,
            eigenvalues: values,
        }
    }

    /// Number of retained nontrivial eigenpairs.
    pub fn width(&self) -> usize {
        self.rows.nrows()
    }

    /// The retained nontrivial eigenvalues (ascending).
    pub fn eigenvalues(&self) -> &[f64] {
        &self.eigenvalues
    }

    /// Estimated effective resistance (truncated spectral sum).
    ///
    /// # Errors
    /// Returns [`SglError::OutOfRange`] for out-of-range or equal
    /// indices.
    pub fn estimate(&self, s: usize, t: usize) -> Result<f64, SglError> {
        check_pair(self.rows.ncols(), s, t)?;
        let mut acc = 0.0;
        for j in 0..self.rows.nrows() {
            let r = self.rows.row(j);
            let d = r[s] - r[t];
            acc += d * d;
        }
        Ok(acc)
    }
}

impl ResistanceEstimator for SpectralSketch {
    fn name(&self) -> &'static str {
        "spectral-sketch"
    }

    fn num_nodes(&self) -> usize {
        self.rows.ncols()
    }

    fn resistance(&self, s: usize, t: usize) -> Result<f64, SglError> {
        self.estimate(s, t)
    }

    fn resistances(&self, pairs: &[(usize, usize)]) -> Result<Vec<f64>, SglError> {
        sgl_linalg::par::try_map_indexed(pairs.len(), 64, |i| self.estimate(pairs[i].0, pairs[i].1))
    }
}

/// Sample `count` distinct random node pairs (s ≠ t) for scatter plots.
pub fn sample_node_pairs(num_nodes: usize, count: usize, seed: u64) -> Vec<(usize, usize)> {
    assert!(num_nodes >= 2, "need at least two nodes");
    let mut rng = Rng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(count);
    let mut seen = std::collections::HashSet::new();
    let mut guard = 0usize;
    while out.len() < count && guard < count * 50 {
        guard += 1;
        let s = rng.below(num_nodes);
        let t = rng.below(num_nodes);
        if s == t {
            continue;
        }
        let key = if s < t { (s, t) } else { (t, s) };
        if seen.insert(key) {
            out.push(key);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::LearnStrategyKind;
    use sgl_datasets::grid2d;
    use sgl_linalg::vecops;
    use sgl_solver::SolverContext;

    fn default_handle(g: &Graph) -> Arc<dyn SolverHandle> {
        SolverPolicy::default().build_handle(g).unwrap()
    }

    #[test]
    fn path_resistance_is_hop_count() {
        let n = 10;
        let g = Graph::from_edges(n, (0..n - 1).map(|i| (i, i + 1, 1.0)));
        let handle = default_handle(&g);
        for t in 1..n {
            let r = effective_resistance(handle.as_ref(), 0, t).unwrap();
            assert!((r - t as f64).abs() < 1e-8, "R(0,{t}) = {r}");
        }
    }

    #[test]
    fn parallel_resistors_combine() {
        // Two nodes joined by conductances 1 and 3 in parallel → R = 1/4.
        let mut g = Graph::new(2);
        g.add_edge(0, 1, 1.0);
        g.add_edge(0, 1, 3.0); // merges to conductance 4
        let handle = default_handle(&g);
        let r = effective_resistance(handle.as_ref(), 0, 1).unwrap();
        assert!((r - 0.25).abs() < 1e-10);
    }

    #[test]
    fn out_of_range_pairs_are_errors_not_panics() {
        let g = grid2d(3, 3);
        let handle = default_handle(&g);
        assert!(matches!(
            effective_resistance(handle.as_ref(), 0, 9),
            Err(SglError::OutOfRange(_))
        ));
        assert!(matches!(
            effective_resistance(handle.as_ref(), 4, 4),
            Err(SglError::OutOfRange(_))
        ));
        let sketch = ResistanceSketch::build(&g, 8, 1).unwrap();
        assert!(matches!(
            sketch.estimate(9, 0),
            Err(SglError::OutOfRange(_))
        ));
        assert!(matches!(
            sketch.estimate(2, 2),
            Err(SglError::OutOfRange(_))
        ));
        let spectral = SpectralSketch::build(&g, 0, 1).unwrap();
        assert!(matches!(
            spectral.estimate(0, 99),
            Err(SglError::OutOfRange(_))
        ));
        assert!(matches!(
            pairwise_effective_resistances(&g, &[(0, 42)]),
            Err(SglError::OutOfRange(_))
        ));
    }

    #[test]
    fn sketch_approximates_exact() {
        let g = grid2d(7, 7);
        let pairs = sample_node_pairs(49, 30, 3);
        let exact = pairwise_effective_resistances(&g, &pairs).unwrap();
        let sketch = ResistanceSketch::build(&g, 600, 4).unwrap();
        for (k, &(s, t)) in pairs.iter().enumerate() {
            let est = sketch.estimate(s, t).unwrap();
            let rel = (est - exact[k]).abs() / exact[k];
            assert!(rel < 0.35, "pair ({s},{t}): rel error {rel}");
        }
        // Correlation across pairs should be extremely high.
        let ests: Vec<f64> = pairs
            .iter()
            .map(|&(s, t)| sketch.estimate(s, t).unwrap())
            .collect();
        assert!(vecops::pearson(&exact, &ests) > 0.97);
    }

    #[test]
    fn spectral_sketch_is_exact_at_full_width() {
        // Below the dense cutoff the auto width is the full spectrum, so
        // the truncated sum *is* the resistance.
        let g = grid2d(6, 6);
        let pairs = sample_node_pairs(36, 20, 5);
        let exact = pairwise_effective_resistances(&g, &pairs).unwrap();
        let sketch = SpectralSketch::build(&g, 0, 6).unwrap();
        assert_eq!(sketch.width(), 35);
        for (k, &(s, t)) in pairs.iter().enumerate() {
            let est = sketch.estimate(s, t).unwrap();
            assert!(
                (est - exact[k]).abs() < 1e-6 * (1.0 + exact[k]),
                "pair ({s},{t}): {est} vs {}",
                exact[k]
            );
        }
    }

    #[test]
    fn spectral_sketch_truncation_lower_bounds() {
        let g = grid2d(6, 6);
        let pairs = sample_node_pairs(36, 15, 7);
        let exact = pairwise_effective_resistances(&g, &pairs).unwrap();
        let narrow = SpectralSketch::build(&g, 8, 8).unwrap();
        assert_eq!(narrow.width(), 8);
        for (k, &(s, t)) in pairs.iter().enumerate() {
            let est = narrow.estimate(s, t).unwrap();
            assert!(
                est <= exact[k] * (1.0 + 1e-9) + 1e-12,
                "truncated estimate must lower-bound R_eff"
            );
        }
    }

    #[test]
    fn filtered_sketch_tracks_the_dense_one() {
        // The filtered (SF-SGL) construction extracts the same leading
        // eigenpairs, so resistances must correlate tightly with the
        // dense-path sketch of the same width.
        let g = grid2d(7, 7);
        let pairs = sample_node_pairs(49, 25, 13);
        let dense = SpectralSketch::build(&g, 12, 2).unwrap();
        let mut opts = sgl_linalg::FilteredSpectrumOptions::default();
        opts.filter.count = 16;
        opts.filter.sweeps = 24;
        opts.oversample = 12;
        let filtered = SpectralSketch::build_filtered(&g, 12, 2, &opts).unwrap();
        assert_eq!(filtered.width(), 12);
        let a: Vec<f64> = pairs
            .iter()
            .map(|&(s, t)| dense.estimate(s, t).unwrap())
            .collect();
        let b: Vec<f64> = pairs
            .iter()
            .map(|&(s, t)| filtered.estimate(s, t).unwrap())
            .collect();
        assert!(vecops::pearson(&a, &b) > 0.99, "filtered sketch diverged");
        // Ritz values upper-bound the true eigenvalues, so the filtered
        // truncation still lower-bounds the resistance.
        let exact = pairwise_effective_resistances(&g, &pairs).unwrap();
        for (k, est) in b.iter().enumerate() {
            assert!(*est <= exact[k] * (1.0 + 1e-9) + 1e-12);
        }
    }

    #[test]
    fn from_pairs_matches_direct_assembly() {
        let g = grid2d(5, 5);
        let eig = SymEig::compute(&laplacian_csr(&g).to_dense()).unwrap();
        let width = 10;
        let cols: Vec<Vec<f64>> = (1..=width).map(|j| eig.vectors.column(j)).collect();
        let pairs = SpectralPairs {
            values: eig.values[1..=width].to_vec(),
            vectors: DenseMatrix::from_columns(&cols),
        };
        let via_pairs = SpectralSketch::from_pairs(&pairs);
        let direct = SpectralSketch::build(&g, width, 3).unwrap();
        assert_eq!(via_pairs.width(), direct.width());
        for &(s, t) in &sample_node_pairs(25, 12, 14) {
            let a = via_pairs.estimate(s, t).unwrap();
            let b = direct.estimate(s, t).unwrap();
            assert!((a - b).abs() < 1e-9 * (1.0 + b), "{a} vs {b}");
        }
    }

    #[test]
    fn estimators_agree_through_the_factory() {
        let g = grid2d(6, 6);
        let pairs = sample_node_pairs(36, 15, 9);
        let mut ctx = SolverContext::new(SolverPolicy::default());
        let spectral = LearnStrategyKind::SolverFree
            .resistance_estimator(&g, &mut ctx, 1)
            .unwrap();
        assert_eq!(spectral.name(), "spectral-sketch");
        let spectral = spectral.resistances(&pairs).unwrap();
        // The solver-free estimator never touches the context.
        assert_eq!(ctx.handles_built(), 0);
        let exact = LearnStrategyKind::Solver
            .resistance_estimator(&g, &mut ctx, 1)
            .unwrap();
        assert_eq!(exact.name(), "exact-solve");
        let exact = exact.resistances(&pairs).unwrap();
        for (a, b) in exact.iter().zip(&spectral) {
            assert!((a - b).abs() < 1e-6 * (1.0 + a), "{a} vs {b}");
        }
        let handle = ctx.handle_for(&g).unwrap();
        let jl = ResistanceSketch::build_with(handle.as_ref(), &g, 800, 1)
            .unwrap()
            .resistances(&pairs)
            .unwrap();
        assert!(vecops::pearson(&exact, &jl) > 0.97);
        // The exact and JL estimators share the context's handle.
        assert_eq!(ctx.handles_built(), 1);
    }

    #[test]
    fn batched_resistances_match_singles() {
        let g = grid2d(5, 5);
        let est = ExactSolve::build(&g, &SolverPolicy::default()).unwrap();
        let pairs = sample_node_pairs(25, 10, 11);
        let batch = est.resistances(&pairs).unwrap();
        for (&(s, t), r) in pairs.iter().zip(&batch) {
            let single = est.resistance(s, t).unwrap();
            assert!((single - r).abs() < 1e-12);
        }
        // The batch path went through solve_batch.
        assert_eq!(est.handle.stats().batches, 1);
    }

    #[test]
    fn recommended_projections_formula() {
        let q = ResistanceSketch::recommended_projections(1000, 0.5);
        assert_eq!(q, ((24.0 * 1000f64.ln()) / 0.25).ceil() as usize);
    }

    #[test]
    fn sampled_pairs_are_distinct_and_valid() {
        let pairs = sample_node_pairs(20, 50, 9);
        let set: std::collections::HashSet<_> = pairs.iter().collect();
        assert_eq!(set.len(), pairs.len());
        for &(s, t) in &pairs {
            assert!(s < t && t < 20);
        }
    }
}
