//! Multilevel band bases: the SF-SGL frequency decomposition.
//!
//! SF-SGL replaces the eigensolver's Krylov/shift-invert machinery with
//! a *spectral-domain decomposition*: approximate eigenvectors are drawn
//! band by band, where band `b` lives on level `b` of a multilevel
//! coarsening hierarchy. Coarse levels, prolonged back to the fine graph
//! and lightly smoothed, span the low-frequency end of the spectrum;
//! the fine level's own smoothed test vectors cover the broad remainder.
//! Stacking the bands gives a rich subspace whose Rayleigh–Ritz
//! projection ([`sgl_linalg::filtered_spectrum`]) recovers the smallest
//! nontrivial eigenpairs — using nothing but matvecs and weighted-Jacobi
//! sweeps.
//!
//! Bands are independent, so they are generated embarrassingly parallel
//! through the deterministic [`par`] layer: the basis
//! is bit-identical at any thread count.

use crate::coarsen::Coarsening;
use crate::error::SglError;
use crate::hierarchy::{HierarchyOptions, MultilevelHierarchy};
use sgl_graph::laplacian::LaplacianOp;
use sgl_graph::Graph;
use sgl_linalg::filter::{smoothed_test_vectors, FilterOptions};
use sgl_linalg::operator::LinearOperator;
use sgl_linalg::{par, DenseMatrix};

/// Knobs of [`band_basis`] (and of the backend that owns one).
#[derive(Debug, Clone)]
pub struct BandBasisOptions {
    /// Test vectors drawn per band (0 = auto: an even split of the
    /// requested subspace across bands, at least 4 each).
    pub vectors_per_band: usize,
    /// Jacobi sweeps for the fine band's test vectors (kept low so the
    /// fine band retains mid/high-frequency content).
    pub fine_sweeps: usize,
    /// Jacobi sweeps for each coarse band's test vectors (coarse levels
    /// are cheap, so heavier smoothing is affordable and sharpens the
    /// low-frequency bias).
    pub coarse_sweeps: usize,
    /// Weighted-Jacobi polish sweeps applied on the fine graph after
    /// prolongation (smooths the piecewise-constant interpolation error).
    pub polish_sweeps: usize,
    /// Jacobi damping factor `ω ∈ (0, 1]`.
    pub omega: f64,
    /// Base seed; band `b` perturbs it deterministically.
    pub seed: u64,
}

impl Default for BandBasisOptions {
    fn default() -> Self {
        BandBasisOptions {
            vectors_per_band: 0,
            fine_sweeps: 4,
            coarse_sweeps: 10,
            polish_sweeps: 2,
            omega: 2.0 / 3.0,
            seed: 0x5F56,
        }
    }
}

/// The coarsening skeleton of a band decomposition: `skeleton[b]` maps
/// the fine graph onto level `b + 1` (composed through all intermediate
/// levels). Built once per node count and reused across the learn
/// loop's iterations — the partition is a subspace choice, so keeping
/// it fixed while edges densify only changes how well each band spans
/// its window, never correctness.
///
/// # Errors
/// Propagates hierarchy-construction failures (empty or disconnected
/// graphs, bad ratios).
pub fn band_skeleton(
    graph: &Graph,
    coarsening_ratio: f64,
    max_levels: usize,
    coarsest_size: usize,
    opts: &BandBasisOptions,
) -> Result<Vec<Coarsening>, SglError> {
    let hierarchy = MultilevelHierarchy::build(
        graph,
        coarsening_ratio,
        max_levels,
        &HierarchyOptions {
            coarsest_size,
            filter: FilterOptions {
                seed: opts.seed ^ 0xC0A5,
                ..FilterOptions::default()
            },
            ..HierarchyOptions::default()
        },
    )?;
    let mut composed: Vec<Coarsening> = Vec::new();
    for level in hierarchy.levels() {
        if let Some(step) = &level.coarsening {
            let next = match composed.last() {
                Some(acc) => acc.compose(step),
                None => step.clone(),
            };
            composed.push(next);
        }
    }
    Ok(composed)
}

/// Generate the stacked band basis for `graph`: one block of lightly
/// smoothed fine-level test vectors plus, per skeleton level, a block of
/// coarse-level test vectors prolonged piecewise-constant and polished
/// with fine-level Jacobi sweeps. Columns are returned unorthogonalized
/// (the Rayleigh–Ritz step orthonormalizes).
///
/// `width` is the number of eigenpairs the caller will extract; it sizes
/// the auto split when [`BandBasisOptions::vectors_per_band`] is 0.
pub fn band_basis(
    graph: &Graph,
    skeleton: &[Coarsening],
    width: usize,
    opts: &BandBasisOptions,
) -> DenseMatrix {
    let bands = skeleton.len() + 1;
    let _sp = sgl_trace::span!("band_build", count = bands);
    let per_band = if opts.vectors_per_band > 0 {
        opts.vectors_per_band
    } else {
        (width + 4).div_ceil(bands).max(4)
    };
    let op = LaplacianOp::new(graph);
    let diag = graph.weighted_degrees();
    let blocks: Vec<Vec<Vec<f64>>> = par::map_indexed(bands, 1, |b| {
        let seed = opts
            .seed
            .wrapping_add(0x9E37_79B9u64.wrapping_mul(b as u64 + 1));
        if b == 0 {
            let vectors = smoothed_test_vectors(
                &op,
                &diag,
                &FilterOptions {
                    count: per_band,
                    sweeps: opts.fine_sweeps,
                    omega: opts.omega,
                    seed,
                },
            );
            (0..vectors.ncols()).map(|j| vectors.column(j)).collect()
        } else {
            let coarsening = &skeleton[b - 1];
            let coarse = coarsening.contract(graph);
            let cop = LaplacianOp::new(&coarse);
            let cdiag = coarse.weighted_degrees();
            let vectors = smoothed_test_vectors(
                &cop,
                &cdiag,
                &FilterOptions {
                    count: per_band,
                    sweeps: opts.coarse_sweeps,
                    omega: opts.omega,
                    seed,
                },
            );
            (0..vectors.ncols())
                .map(|j| {
                    let mut fine = prolong(&vectors.column(j), coarsening.partition());
                    jacobi_smooth(&op, &diag, &mut fine, opts.polish_sweeps, opts.omega);
                    fine
                })
                .collect()
        }
    });
    let columns: Vec<Vec<f64>> = blocks.into_iter().flatten().collect();
    DenseMatrix::from_columns(&columns)
}

/// Piecewise-constant prolongation: `fine[i] = coarse[partition[i]]`.
fn prolong(coarse: &[f64], partition: &[usize]) -> Vec<f64> {
    partition.iter().map(|&agg| coarse[agg]).collect()
}

/// `sweeps` damped Jacobi iterations on the homogeneous system:
/// `x ← x − ω D⁻¹ L x` — the classic smoother, used to wash the
/// prolongation's staircase artifacts out of a band vector and to drive
/// the backend's subspace-refinement passes.
pub fn jacobi_smooth(op: &LaplacianOp, diag: &[f64], x: &mut [f64], sweeps: usize, omega: f64) {
    let n = x.len();
    let mut lx = vec![0.0; n];
    for _ in 0..sweeps {
        op.apply(x, &mut lx);
        for i in 0..n {
            let d = if diag[i] > 0.0 { diag[i] } else { 1.0 };
            x[i] -= omega * lx[i] / d;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgl_linalg::par::with_threads;

    #[test]
    fn skeleton_levels_compose_to_fewer_nodes() {
        let g = sgl_datasets::grid2d(16, 16);
        let skel = band_skeleton(&g, 0.5, 4, 16, &BandBasisOptions::default()).unwrap();
        assert!(!skel.is_empty(), "256 nodes should coarsen");
        let mut last = g.num_nodes();
        for c in &skel {
            assert_eq!(c.num_fine(), g.num_nodes(), "always maps from fine");
            assert!(c.num_coarse() < last, "levels must shrink");
            last = c.num_coarse();
        }
    }

    #[test]
    fn basis_is_bit_identical_across_thread_counts() {
        let g = sgl_datasets::grid2d(12, 12);
        let opts = BandBasisOptions::default();
        let skel = band_skeleton(&g, 0.5, 3, 24, &opts).unwrap();
        let serial = with_threads(1, || band_basis(&g, &skel, 8, &opts));
        let parallel = with_threads(4, || band_basis(&g, &skel, 8, &opts));
        assert_eq!(serial.ncols(), parallel.ncols());
        for j in 0..serial.ncols() {
            for (a, b) in serial.column(j).iter().zip(parallel.column(j)) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn coarse_bands_are_smoother_than_the_fine_band() {
        // Rayleigh quotients of the prolonged+polished coarse band sit
        // below the fine band's: the decomposition separates frequencies.
        let g = sgl_datasets::grid2d(14, 14);
        let opts = BandBasisOptions {
            vectors_per_band: 6,
            ..BandBasisOptions::default()
        };
        let skel = band_skeleton(&g, 0.4, 3, 20, &opts).unwrap();
        assert!(!skel.is_empty());
        let basis = band_basis(&g, &skel, 6, &opts);
        let op = LaplacianOp::new(&g);
        let rq = |v: &[f64]| {
            let mut lv = vec![0.0; v.len()];
            op.apply(v, &mut lv);
            let num: f64 = v.iter().zip(&lv).map(|(a, b)| a * b).sum();
            let den: f64 = v.iter().map(|a| a * a).sum();
            num / den
        };
        let fine_mean: f64 = (0..6).map(|j| rq(&basis.column(j))).sum::<f64>() / 6.0;
        let last = basis.ncols() - 6;
        let coarse_mean: f64 = (last..basis.ncols())
            .map(|j| rq(&basis.column(j)))
            .sum::<f64>()
            / 6.0;
        assert!(
            coarse_mean < fine_mean,
            "coarsest band mean RQ {coarse_mean} should sit below fine band {fine_mean}"
        );
    }
}
