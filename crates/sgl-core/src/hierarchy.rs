//! The multilevel hierarchy: candidate graphs at every level, linked by
//! spectral-affinity coarsenings.
//!
//! Level 0 is the fine candidate graph (the kNN graph the flat pipeline
//! would densify); each subsequent level is the Galerkin contraction of
//! the previous one along a [`Coarsening`] computed from low-pass
//! filtered test vectors ([`sgl_linalg::filter`]). Construction stops at
//! `coarsest_size` nodes, at `max_levels` levels, or when aggregation
//! stalls. Given the same graph and options the hierarchy is
//! bit-identical across runs and thread counts.

use crate::coarsen::{spectral_affinity_aggregate, AggregationOptions, Coarsening};
use crate::error::SglError;
use sgl_graph::laplacian::LaplacianOp;
use sgl_graph::Graph;
use sgl_linalg::filter::{smoothed_test_vectors, FilterOptions};

/// Knobs of [`MultilevelHierarchy::build`] beyond the `SglConfig`-owned
/// `coarsening_ratio` / `max_levels` pair.
#[derive(Debug, Clone)]
pub struct HierarchyOptions {
    /// Stop coarsening once a level has at most this many nodes (the
    /// coarsest level is where the full SGL learner runs, so it should
    /// stay comfortably dense-eig/LOBPCG sized).
    pub coarsest_size: usize,
    /// Low-pass filter for the per-level test vectors (the seed is
    /// perturbed per level so levels draw independent vectors).
    pub filter: FilterOptions,
    /// Matching passes per level (see [`AggregationOptions`]).
    pub max_match_passes: usize,
}

impl Default for HierarchyOptions {
    fn default() -> Self {
        HierarchyOptions {
            coarsest_size: 256,
            filter: FilterOptions::default(),
            max_match_passes: 4,
        }
    }
}

/// One level of the hierarchy.
#[derive(Debug, Clone)]
pub struct HierarchyLevel {
    /// The candidate graph at this level (level 0 = the fine graph).
    pub graph: Graph,
    /// Map to the next (coarser) level; `None` at the coarsest level.
    pub coarsening: Option<Coarsening>,
}

/// A built multilevel hierarchy, finest level first.
#[derive(Debug, Clone)]
pub struct MultilevelHierarchy {
    levels: Vec<HierarchyLevel>,
}

impl MultilevelHierarchy {
    /// Coarsen `fine` until `coarsest_size`, `max_levels`, or a stall —
    /// each level by spectral-affinity aggregation at
    /// `coarsening_ratio` (both typically drawn from
    /// `SglConfig::{coarsening_ratio, max_levels}`).
    ///
    /// # Errors
    /// Returns [`SglError::InvalidGraph`] for an empty or disconnected
    /// fine graph and [`SglError::InvalidConfig`] for a ratio outside
    /// `(0, 1)` or `max_levels == 0`.
    pub fn build(
        fine: &Graph,
        coarsening_ratio: f64,
        max_levels: usize,
        opts: &HierarchyOptions,
    ) -> Result<Self, SglError> {
        if fine.num_nodes() == 0 {
            return Err(SglError::InvalidGraph("hierarchy: empty graph".into()));
        }
        if !sgl_graph::traversal::is_connected(fine) {
            return Err(SglError::InvalidGraph(
                "hierarchy: fine graph must be connected".into(),
            ));
        }
        if max_levels == 0 {
            return Err(SglError::InvalidConfig(
                "hierarchy: max_levels must be at least 1".into(),
            ));
        }
        let agg_opts = AggregationOptions {
            target_ratio: coarsening_ratio,
            max_passes: opts.max_match_passes,
        };
        // Validate the ratio once up front (aggregation would also catch
        // it, but only when a level actually coarsens).
        if !(coarsening_ratio > 0.0 && coarsening_ratio < 1.0) {
            return Err(SglError::InvalidConfig(format!(
                "hierarchy: coarsening_ratio must lie in (0, 1), got {coarsening_ratio}"
            )));
        }
        let mut levels: Vec<HierarchyLevel> = Vec::new();
        let mut current = fine.clone();
        while levels.len() + 1 < max_levels {
            let n = current.num_nodes();
            if n <= opts.coarsest_size {
                break;
            }
            let op = LaplacianOp::new(&current);
            let vectors = smoothed_test_vectors(
                &op,
                &current.weighted_degrees(),
                &FilterOptions {
                    seed: opts.filter.seed.wrapping_add(levels.len() as u64),
                    ..opts.filter.clone()
                },
            );
            let coarsening = spectral_affinity_aggregate(&current, &vectors, &agg_opts)?;
            // Stall guard: a level that barely shrinks (or would drop
            // below a learnable size) ends the hierarchy.
            if coarsening.num_coarse() >= n || coarsening.num_coarse() < 4 {
                break;
            }
            let coarse = coarsening.contract(&current);
            levels.push(HierarchyLevel {
                graph: current,
                coarsening: Some(coarsening),
            });
            current = coarse;
        }
        levels.push(HierarchyLevel {
            graph: current,
            coarsening: None,
        });
        Ok(MultilevelHierarchy { levels })
    }

    /// Number of levels (1 = no coarsening happened).
    pub fn num_levels(&self) -> usize {
        self.levels.len()
    }

    /// Node counts per level, finest first.
    pub fn level_sizes(&self) -> Vec<usize> {
        self.levels.iter().map(|l| l.graph.num_nodes()).collect()
    }

    /// Borrow a level (0 = finest).
    ///
    /// # Panics
    /// Panics on an out-of-range index.
    pub fn level(&self, l: usize) -> &HierarchyLevel {
        &self.levels[l]
    }

    /// The coarsest level.
    pub fn coarsest(&self) -> &HierarchyLevel {
        self.levels
            .last()
            .expect("hierarchy has at least one level")
    }

    /// All levels, finest first.
    pub fn levels(&self) -> &[HierarchyLevel] {
        &self.levels
    }

    /// The composed fine-to-coarsest coarsening (`None` when the
    /// hierarchy has a single level).
    pub fn composed_coarsening(&self) -> Option<Coarsening> {
        let mut iter = self.levels.iter().filter_map(|l| l.coarsening.as_ref());
        let first = iter.next()?.clone();
        Some(iter.fold(first, |acc, c| acc.compose(c)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_shrinking_levels() {
        let g = sgl_datasets::grid2d(40, 40);
        let opts = HierarchyOptions {
            coarsest_size: 100,
            ..HierarchyOptions::default()
        };
        let h = MultilevelHierarchy::build(&g, 0.6, 10, &opts).unwrap();
        assert!(h.num_levels() >= 3, "sizes {:?}", h.level_sizes());
        let sizes = h.level_sizes();
        assert_eq!(sizes[0], 1600);
        for w in sizes.windows(2) {
            assert!(w[1] < w[0], "levels must shrink: {sizes:?}");
            assert!(
                (w[1] as f64) <= 0.75 * w[0] as f64,
                "shrink too weak: {sizes:?}"
            );
        }
        // Every level stays connected.
        for l in h.levels() {
            assert!(sgl_graph::traversal::is_connected(&l.graph));
        }
        // The composed coarsening maps straight to the coarsest level.
        let all = h.composed_coarsening().unwrap();
        assert_eq!(all.num_fine(), 1600);
        assert_eq!(all.num_coarse(), *sizes.last().unwrap());
    }

    #[test]
    fn respects_level_cap_and_coarsest_size() {
        let g = sgl_datasets::grid2d(30, 30);
        let opts = HierarchyOptions {
            coarsest_size: 50,
            ..HierarchyOptions::default()
        };
        let capped = MultilevelHierarchy::build(&g, 0.6, 2, &opts).unwrap();
        assert_eq!(capped.num_levels(), 2);
        let flat = MultilevelHierarchy::build(&g, 0.6, 1, &opts).unwrap();
        assert_eq!(flat.num_levels(), 1);
        assert!(flat.composed_coarsening().is_none());
        // A graph already below coarsest_size never coarsens.
        let tiny = MultilevelHierarchy::build(
            &sgl_datasets::grid2d(5, 5),
            0.6,
            10,
            &HierarchyOptions::default(),
        )
        .unwrap();
        assert_eq!(tiny.num_levels(), 1);
    }

    #[test]
    fn hierarchy_is_deterministic() {
        let g = sgl_datasets::grid2d(20, 20);
        let opts = HierarchyOptions {
            coarsest_size: 60,
            ..HierarchyOptions::default()
        };
        let a = MultilevelHierarchy::build(&g, 0.55, 6, &opts).unwrap();
        let b = MultilevelHierarchy::build(&g, 0.55, 6, &opts).unwrap();
        assert_eq!(a.level_sizes(), b.level_sizes());
        for (la, lb) in a.levels().iter().zip(b.levels()) {
            assert_eq!(
                la.coarsening.as_ref().map(|c| c.partition().to_vec()),
                lb.coarsening.as_ref().map(|c| c.partition().to_vec())
            );
            for (ea, eb) in la.graph.edges().iter().zip(lb.graph.edges()) {
                assert_eq!((ea.u, ea.v), (eb.u, eb.v));
                assert_eq!(ea.weight, eb.weight);
            }
        }
    }

    #[test]
    fn bad_inputs_are_errors() {
        let g = sgl_datasets::grid2d(6, 6);
        let opts = HierarchyOptions::default();
        assert!(MultilevelHierarchy::build(&g, 0.0, 4, &opts).is_err());
        assert!(MultilevelHierarchy::build(&g, 1.0, 4, &opts).is_err());
        assert!(MultilevelHierarchy::build(&g, 0.5, 0, &opts).is_err());
        let disconnected = Graph::from_edges(4, [(0, 1, 1.0), (2, 3, 1.0)]);
        assert!(MultilevelHierarchy::build(&disconnected, 0.5, 4, &opts).is_err());
    }
}
