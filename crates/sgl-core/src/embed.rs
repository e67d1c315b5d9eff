//! The solver-free Step-2 backend: banded Rayleigh–Ritz embeddings.
//!
//! [`BandedEigBackend`] is the [`Embedder::Banded`](crate::backend::Embedder::Banded)
//! arm, and it never touches the session's
//! [`SolverContext`](sgl_solver::SolverContext): the embedding subspace comes from a
//! multilevel [band basis](crate::bands) (plus the previous iteration's
//! eigenvector block as a warm start), and the eigenpairs from one
//! matvec-only Rayleigh–Ritz projection
//! ([`sgl_linalg::filtered_spectrum`]). A session driven by this backend
//! finishes a full learn with `handles_built == 0` and `solves == 0`.

use crate::bands::{band_basis, band_skeleton, BandBasisOptions};
use crate::coarsen::Coarsening;
use crate::config::SglConfig;
use crate::embedding::{Embedding, EmbeddingOptions};
use crate::error::SglError;
use sgl_graph::laplacian::LaplacianOp;
use sgl_graph::Graph;
use sgl_linalg::filter::{FilterOptions, FilteredSpectrumOptions};
use sgl_linalg::{filtered_spectrum, DenseMatrix};
use std::sync::Mutex;

/// Solver-free spectral embedding backend (see the module docs).
///
/// The coarsening skeleton is built lazily from the first graph of each
/// node count and cached; the learn loop re-embeds the same (densifying)
/// graph every iteration, so the partition is computed once, not per
/// call. The cache is keyed by node count because `learn_multilevel`
/// reuses one backend across hierarchy levels of different sizes.
pub struct BandedEigBackend {
    /// Band generation knobs.
    bands: BandBasisOptions,
    /// Target shrink factor per skeleton level, in `(0, 1)`.
    coarsening_ratio: f64,
    /// Cap on skeleton depth (bands = levels, so this caps the bands).
    max_levels: usize,
    /// Stop coarsening at this many nodes.
    coarsest_size: usize,
    /// Extra Ritz directions beyond the requested width (absorbs basis
    /// redundancy; larger = more accurate low pairs, more dense work).
    oversample: usize,
    /// Fresh smoothed test vectors the Rayleigh–Ritz step adds on top of
    /// the band basis.
    fresh_vectors: usize,
    /// Total Rayleigh–Ritz passes: after the band-basis projection, each
    /// extra pass smooths the Ritz block with damped Jacobi and
    /// re-projects (filtered subspace iteration). High-frequency
    /// contamination — the dominant error of prolonged coarse vectors —
    /// decays geometrically per pass.
    rr_passes: usize,
    skeleton: Mutex<Option<(usize, Vec<Coarsening>)>>,
}

impl std::fmt::Debug for BandedEigBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BandedEigBackend")
            .field("bands", &self.bands)
            .field("coarsening_ratio", &self.coarsening_ratio)
            .field("max_levels", &self.max_levels)
            .field("coarsest_size", &self.coarsest_size)
            .field("oversample", &self.oversample)
            .field("fresh_vectors", &self.fresh_vectors)
            .field("rr_passes", &self.rr_passes)
            .finish_non_exhaustive()
    }
}

impl Default for BandedEigBackend {
    fn default() -> Self {
        BandedEigBackend {
            bands: BandBasisOptions::default(),
            coarsening_ratio: 0.5,
            max_levels: 4,
            coarsest_size: 32,
            oversample: 6,
            fresh_vectors: 8,
            rr_passes: 4,
            skeleton: Mutex::new(None),
        }
    }
}

impl BandedEigBackend {
    /// Derive a backend from the session config: the skeleton follows
    /// the config's multilevel shape (`coarsening_ratio`, `max_levels`)
    /// and the band seed follows the config seed, so two sessions with
    /// the same config embed bit-identically.
    pub fn from_config(config: &SglConfig) -> Self {
        BandedEigBackend {
            bands: BandBasisOptions {
                seed: config.seed ^ 0x5F56,
                ..BandBasisOptions::default()
            },
            coarsening_ratio: config.coarsening_ratio.clamp(0.1, 0.9),
            max_levels: config.max_levels.max(2),
            ..BandedEigBackend::default()
        }
    }

    /// The cached skeleton for `graph`, building it on first sight of
    /// this node count.
    fn skeleton_for(&self, graph: &Graph) -> Result<Vec<Coarsening>, SglError> {
        let mut cache = self
            .skeleton
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if let Some((n, skeleton)) = cache.as_ref() {
            if *n == graph.num_nodes() {
                return Ok(skeleton.clone());
            }
        }
        let skeleton = band_skeleton(
            graph,
            self.coarsening_ratio,
            self.max_levels,
            self.coarsest_size,
            &self.bands,
        )?;
        *cache = Some((graph.num_nodes(), skeleton.clone()));
        Ok(skeleton)
    }

    /// Embed a connected graph that [`Embedder::embed`](crate::backend::Embedder::embed)
    /// has already checked.
    pub(crate) fn embed(
        &self,
        graph: &Graph,
        width: usize,
        shift: f64,
        opts: &EmbeddingOptions,
        warm_start: Option<&DenseMatrix>,
    ) -> Result<Embedding, SglError> {
        let n = graph.num_nodes();
        let skeleton = self.skeleton_for(graph)?;
        let basis = band_basis(graph, &skeleton, width + self.oversample, &self.bands);
        let mut columns: Vec<Vec<f64>> = (0..basis.ncols()).map(|j| basis.column(j)).collect();
        if let Some(ws) = warm_start {
            if ws.nrows() == n {
                columns.extend((0..ws.ncols()).map(|j| ws.column(j)));
            }
        }
        let stacked = DenseMatrix::from_columns(&columns);
        let op = LaplacianOp::new(graph);
        let diag = graph.weighted_degrees();
        let fs_opts = FilteredSpectrumOptions {
            filter: FilterOptions {
                count: self.fresh_vectors.max(1),
                sweeps: self.bands.coarse_sweeps,
                omega: self.bands.omega,
                seed: opts.seed ^ self.bands.seed.rotate_left(17),
            },
            oversample: self.oversample,
            ..FilteredSpectrumOptions::default()
        };
        let _rr_sp = sgl_trace::span!("rayleigh_ritz", count = self.rr_passes.max(1));
        let mut pairs = filtered_spectrum(&op, &diag, width, Some(&stacked), &fs_opts)?;
        // Filtered subspace iteration: smooth the Ritz block and
        // re-project. Smoothing damps the eigencomponent at `λ` by
        // `(1 − ωλ/d)` per sweep, so the high-frequency error that
        // leaked through the bands dies geometrically while the sought
        // low modes are barely touched; Rayleigh–Ritz re-extracts the
        // best approximations from the cleaned block each pass.
        for _ in 1..self.rr_passes.max(1) {
            let smoothed: Vec<Vec<f64>> = (0..pairs.vectors.ncols())
                .map(|j| {
                    let mut v = pairs.vectors.column(j);
                    crate::bands::jacobi_smooth(
                        &op,
                        &diag,
                        &mut v,
                        self.bands.polish_sweeps.max(2),
                        self.bands.omega,
                    );
                    v
                })
                .collect();
            let block = DenseMatrix::from_columns(&smoothed);
            pairs = filtered_spectrum(&op, &diag, width, Some(&block), &fs_opts)?;
        }
        // The eq. (12) scaling, exactly as the other backends apply it.
        let cols: Vec<Vec<f64>> = (0..width)
            .map(|j| {
                let denom = (pairs.values[j] + shift).max(f64::MIN_POSITIVE).sqrt();
                pairs
                    .vectors
                    .column(j)
                    .into_iter()
                    .map(|v| v / denom)
                    .collect()
            })
            .collect();
        Ok(Embedding {
            coords: DenseMatrix::from_columns(&cols),
            eigenvalues: pairs.values,
            solver_iterations: 0,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::Embedder;
    use sgl_solver::{SolverContext, SolverPolicy};

    fn ctx() -> SolverContext {
        SolverContext::new(SolverPolicy::default())
    }

    fn banded() -> Embedder {
        Embedder::Banded(BandedEigBackend::default())
    }

    #[test]
    fn tracks_the_dense_backend_without_touching_the_context() {
        let g = sgl_datasets::grid2d(12, 12);
        let opts = EmbeddingOptions::default();
        let mut c = ctx();
        let banded = banded().embed(&g, 5, 0.0, &opts, None, &mut c).unwrap();
        assert_eq!(c.handles_built(), 0, "banded embed must stay solver-free");
        assert_eq!(banded.solver_iterations, 0);
        let exact = Embedder::Dense
            .embed(&g, 5, 0.0, &opts, None, &mut ctx())
            .unwrap();
        for (a, b) in banded.eigenvalues.iter().zip(&exact.eigenvalues) {
            assert!(
                (a - b).abs() / b < 0.05,
                "banded eigenvalue {a} vs exact {b}"
            );
        }
        // Embedding distances drive the sensitivity scores — spot-check
        // a few pairs for agreement.
        for (s, t) in [(0usize, 143usize), (5, 77), (60, 61)] {
            let da = banded.distance_sq(s, t);
            let db = exact.distance_sq(s, t);
            assert!(
                (da - db).abs() / db < 0.25,
                "distance_sq({s},{t}) {da} vs {db}"
            );
        }
    }

    #[test]
    fn warm_start_is_accepted_and_skeleton_is_cached() {
        let g = sgl_datasets::grid2d(10, 10);
        let opts = EmbeddingOptions::default();
        let backend = banded();
        let mut c = ctx();
        let first = backend.embed(&g, 4, 0.0, &opts, None, &mut c).unwrap();
        let again = backend
            .embed(&g, 4, 0.0, &opts, Some(&first.coords), &mut c)
            .unwrap();
        assert_eq!(c.handles_built(), 0);
        for (a, b) in first.eigenvalues.iter().zip(&again.eigenvalues) {
            assert!((a - b).abs() / b < 0.02, "{a} vs {b}");
        }
    }

    #[test]
    fn rejects_degenerate_graphs() {
        let opts = EmbeddingOptions::default();
        let backend = banded();
        let tiny = sgl_graph::Graph::from_edges(2, [(0, 1, 1.0)]);
        assert!(backend
            .embed(&tiny, 3, 0.0, &opts, None, &mut ctx())
            .is_err());
        let split = sgl_graph::Graph::from_edges(4, [(0, 1, 1.0), (2, 3, 1.0)]);
        assert!(backend
            .embed(&split, 1, 0.0, &opts, None, &mut ctx())
            .is_err());
    }
}
