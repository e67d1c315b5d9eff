//! Spectral-affinity node aggregation.
//!
//! Two nodes belong in one aggregate when every *smooth* test vector
//! assigns them nearly the same value — the algebraic-distance affinity
//! of lean AMG, reused by SF-SGL/GRASPEL-style spectral coarsening. The
//! affinity between neighbors `u, v` with filtered signatures
//! `x_u, x_v` (rows of the test-vector matrix) is the squared cosine
//!
//! ```text
//! aff(u, v) = ⟨x_u, x_v⟩² / (‖x_u‖² ‖x_v‖²) ∈ [0, 1],
//! ```
//!
//! and aggregation is greedy heavy-affinity matching over the graph's
//! edges, repeated (with restricted test vectors) until the requested
//! coarsening ratio is met. Everything is ordered by node/edge index
//! with explicit tie-breaking, so the resulting [`Coarsening`] is
//! **bit-identical across thread counts and runs** — the determinism
//! contract the multilevel hierarchy inherits.

use crate::error::SglError;
use sgl_graph::coarsen::{contract_partition, prolongation_matrix, validate_partition};
use sgl_graph::{AdjacencyCsr, Graph};
use sgl_linalg::{vecops, CsrMatrix, DenseMatrix};

/// A partition of fine nodes into coarse aggregates, with the
/// piecewise-constant prolongation it induces.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Coarsening {
    partition: Vec<usize>,
    num_coarse: usize,
}

impl Coarsening {
    /// Wrap a validated partition.
    ///
    /// # Panics
    /// Panics on an invalid partition (out-of-range label or empty
    /// aggregate) — see [`validate_partition`].
    pub fn new(partition: Vec<usize>, num_coarse: usize) -> Self {
        validate_partition(&partition, num_coarse);
        Coarsening {
            partition,
            num_coarse,
        }
    }

    /// Fine node → aggregate id map.
    pub fn partition(&self) -> &[usize] {
        &self.partition
    }

    /// Number of coarse aggregates.
    pub fn num_coarse(&self) -> usize {
        self.num_coarse
    }

    /// Number of fine nodes.
    pub fn num_fine(&self) -> usize {
        self.partition.len()
    }

    /// Achieved shrink factor `num_coarse / num_fine`.
    pub fn ratio(&self) -> f64 {
        self.num_coarse as f64 / self.partition.len() as f64
    }

    /// Nodes per aggregate.
    pub fn aggregate_sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0usize; self.num_coarse];
        for &a in &self.partition {
            sizes[a] += 1;
        }
        sizes
    }

    /// The piecewise-constant prolongation `P` (`num_fine × num_coarse`).
    pub fn prolongation(&self) -> CsrMatrix {
        prolongation_matrix(&self.partition, self.num_coarse)
    }

    /// Restrict node-major data by aggregate **means** (voltages: the
    /// coarse node's potential is its members' average).
    ///
    /// # Panics
    /// Panics if `x` has a row per fine node mismatch.
    pub fn restrict_mean(&self, x: &DenseMatrix) -> DenseMatrix {
        let mut out = self.restrict_sum(x);
        let sizes = self.aggregate_sizes();
        for (a, &size) in sizes.iter().enumerate() {
            let inv = 1.0 / size as f64;
            for v in out.row_mut(a) {
                *v *= inv;
            }
        }
        out
    }

    /// Restrict node-major data by aggregate **sums** (`Pᵀ x`; currents:
    /// the coarse node absorbs its members' injections).
    ///
    /// # Panics
    /// Panics if `x` has a row per fine node mismatch.
    pub fn restrict_sum(&self, x: &DenseMatrix) -> DenseMatrix {
        assert_eq!(
            x.nrows(),
            self.partition.len(),
            "restrict: row count mismatch"
        );
        let m = x.ncols();
        let mut out = DenseMatrix::zeros(self.num_coarse, m);
        for (u, &a) in self.partition.iter().enumerate() {
            let src = x.row(u);
            let dst = out.row_mut(a);
            for j in 0..m {
                dst[j] += src[j];
            }
        }
        out
    }

    /// Compose with a coarsening of *this* coarsening's coarse level:
    /// the result maps fine nodes straight to the coarser aggregates.
    ///
    /// # Panics
    /// Panics if `coarser` does not partition exactly this coarsening's
    /// aggregates.
    pub fn compose(&self, coarser: &Coarsening) -> Coarsening {
        assert_eq!(
            coarser.num_fine(),
            self.num_coarse,
            "compose: level mismatch"
        );
        let partition = self
            .partition
            .iter()
            .map(|&a| coarser.partition[a])
            .collect();
        Coarsening::new(partition, coarser.num_coarse)
    }

    /// Contract a graph defined on this coarsening's fine nodes (the
    /// graph-level Galerkin operator).
    ///
    /// # Panics
    /// Panics on node-count mismatch.
    pub fn contract(&self, g: &Graph) -> Graph {
        contract_partition(g, &self.partition, self.num_coarse)
    }
}

/// Options for [`spectral_affinity_aggregate`].
#[derive(Debug, Clone)]
pub struct AggregationOptions {
    /// Keep matching until the coarse count is at most
    /// `target_ratio · N` (or matching stalls).
    pub target_ratio: f64,
    /// Cap on internal matching passes per call.
    pub max_passes: usize,
}

impl Default for AggregationOptions {
    fn default() -> Self {
        AggregationOptions {
            target_ratio: 0.6,
            max_passes: 4,
        }
    }
}

/// Squared-cosine affinity of two signature rows.
#[inline]
fn affinity(a: &[f64], b: &[f64]) -> f64 {
    let num = vecops::dot(a, b);
    let den = vecops::norm2_sq(a) * vecops::norm2_sq(b);
    if den <= 0.0 {
        0.0
    } else {
        (num * num) / den
    }
}

/// One deterministic heavy-affinity matching pass: each unassigned node
/// (ascending index) pairs with its highest-affinity unassigned
/// neighbor (ties: smaller index); leftovers join their
/// highest-affinity assigned neighbor; isolated nodes keep their own
/// aggregate.
fn match_pass(graph: &Graph, vectors: &DenseMatrix) -> Coarsening {
    let n = graph.num_nodes();
    let adj = AdjacencyCsr::build(graph);
    let mut partition = vec![usize::MAX; n];
    let mut next_id = 0usize;
    for u in 0..n {
        if partition[u] != usize::MAX {
            continue;
        }
        let mut best: Option<(usize, f64)> = None;
        for (v, _, _) in adj.neighbors(u) {
            if partition[v] != usize::MAX {
                continue;
            }
            let a = affinity(vectors.row(u), vectors.row(v));
            let better = match best {
                None => true,
                Some((bv, ba)) => a > ba || (a == ba && v < bv),
            };
            if better {
                best = Some((v, a));
            }
        }
        if let Some((v, _)) = best {
            partition[u] = next_id;
            partition[v] = next_id;
            next_id += 1;
        }
    }
    // Leftovers: all neighbors already matched (or none). Join the
    // strongest-affinity neighbor's aggregate; isolated nodes become
    // singletons.
    for u in 0..n {
        if partition[u] != usize::MAX {
            continue;
        }
        let mut best: Option<(usize, f64)> = None;
        for (v, _, _) in adj.neighbors(u) {
            if partition[v] == usize::MAX {
                continue; // another leftover; resolved on its own turn
            }
            let a = affinity(vectors.row(u), vectors.row(v));
            let better = match best {
                None => true,
                Some((bv, ba)) => a > ba || (a == ba && v < bv),
            };
            if better {
                best = Some((v, a));
            }
        }
        match best {
            Some((v, _)) => partition[u] = partition[v],
            None => {
                partition[u] = next_id;
                next_id += 1;
            }
        }
    }
    Coarsening::new(partition, next_id)
}

/// Aggregate a connected graph by spectral affinity of the given test
/// vectors (`N × t`, row `u` = node `u`'s low-pass signature — see
/// [`sgl_linalg::filter`]). Matching passes repeat, with mean-restricted
/// signatures on the contracted graph, until the coarse count reaches
/// `opts.target_ratio · N`, a pass stops shrinking, or `opts.max_passes`
/// passes ran.
///
/// Deterministic: same graph + vectors ⇒ the same partition, at any
/// ambient thread count.
///
/// # Errors
/// Returns [`SglError::InvalidGraph`] for an empty graph and
/// [`SglError::InvalidConfig`] for a ratio outside `(0, 1)`.
///
/// # Panics
/// Panics if `vectors` does not have one row per node.
pub fn spectral_affinity_aggregate(
    graph: &Graph,
    vectors: &DenseMatrix,
    opts: &AggregationOptions,
) -> Result<Coarsening, SglError> {
    let n = graph.num_nodes();
    if n == 0 {
        return Err(SglError::InvalidGraph("aggregation: empty graph".into()));
    }
    assert_eq!(
        vectors.nrows(),
        n,
        "aggregation: one signature row per node"
    );
    if !(opts.target_ratio > 0.0 && opts.target_ratio < 1.0) {
        return Err(SglError::InvalidConfig(format!(
            "aggregation target_ratio must lie in (0, 1), got {}",
            opts.target_ratio
        )));
    }
    let target = ((opts.target_ratio * n as f64).ceil() as usize).max(1);
    let mut coarsening = match_pass(graph, vectors);
    let mut pass = 1;
    while coarsening.num_coarse() > target && pass < opts.max_passes {
        let coarse_graph = coarsening.contract(graph);
        let coarse_vectors = coarsening.restrict_mean(vectors);
        let next = match_pass(&coarse_graph, &coarse_vectors);
        if next.num_coarse() == coarsening.num_coarse() {
            break; // stalled
        }
        coarsening = coarsening.compose(&next);
        pass += 1;
    }
    Ok(coarsening)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgl_graph::laplacian::LaplacianOp;
    use sgl_linalg::filter::{smoothed_test_vectors, FilterOptions};

    fn signatures(g: &Graph) -> DenseMatrix {
        let op = LaplacianOp::new(g);
        smoothed_test_vectors(&op, &g.weighted_degrees(), &FilterOptions::default())
    }

    #[test]
    fn matching_pairs_cover_all_nodes() {
        let g = sgl_datasets::grid2d(8, 8);
        let c = spectral_affinity_aggregate(&g, &signatures(&g), &AggregationOptions::default())
            .unwrap();
        assert_eq!(c.num_fine(), 64);
        assert!(c.num_coarse() < 64);
        assert!(
            c.num_coarse() >= 64 / 4,
            "over-aggressive: {}",
            c.num_coarse()
        );
        // Every aggregate is non-empty by construction (validated).
        assert_eq!(c.aggregate_sizes().iter().sum::<usize>(), 64);
    }

    #[test]
    fn aggregates_are_connected() {
        // Matching only ever merges along edges, so each aggregate's
        // induced subgraph must be connected.
        let g = sgl_datasets::grid2d(10, 6);
        let c = spectral_affinity_aggregate(&g, &signatures(&g), &AggregationOptions::default())
            .unwrap();
        for a in 0..c.num_coarse() {
            let members: Vec<usize> = (0..c.num_fine())
                .filter(|&u| c.partition()[u] == a)
                .collect();
            let intra: Vec<usize> = g
                .edges()
                .iter()
                .enumerate()
                .filter(|(_, e)| c.partition()[e.u] == a && c.partition()[e.v] == a)
                .map(|(i, _)| i)
                .collect();
            let sub = g.edge_subgraph(&intra);
            let comps = sgl_graph::traversal::connected_components(&sub);
            // The subgraph keeps all N nodes; members must share one
            // component.
            let label = comps.labels[members[0]];
            assert!(
                members.iter().all(|&u| comps.labels[u] == label),
                "aggregate {a} is disconnected"
            );
        }
    }

    #[test]
    fn deeper_target_ratio_coarsens_further() {
        let g = sgl_datasets::grid2d(12, 12);
        let v = signatures(&g);
        let mild = spectral_affinity_aggregate(
            &g,
            &v,
            &AggregationOptions {
                target_ratio: 0.6,
                max_passes: 4,
            },
        )
        .unwrap();
        let deep = spectral_affinity_aggregate(
            &g,
            &v,
            &AggregationOptions {
                target_ratio: 0.2,
                max_passes: 4,
            },
        )
        .unwrap();
        assert!(deep.num_coarse() < mild.num_coarse());
        assert!(
            deep.num_coarse() as f64 <= 0.35 * 144.0,
            "{}",
            deep.num_coarse()
        );
    }

    #[test]
    fn aggregation_is_deterministic() {
        let g = sgl_datasets::grid2d(9, 9);
        let v = signatures(&g);
        let a = spectral_affinity_aggregate(&g, &v, &AggregationOptions::default()).unwrap();
        let b = spectral_affinity_aggregate(&g, &v, &AggregationOptions::default()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn restriction_mean_and_sum() {
        let c = Coarsening::new(vec![0, 0, 1], 2);
        let x = DenseMatrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]]);
        let sum = c.restrict_sum(&x);
        assert_eq!(sum.row(0), &[4.0, 6.0]);
        assert_eq!(sum.row(1), &[5.0, 6.0]);
        let mean = c.restrict_mean(&x);
        assert_eq!(mean.row(0), &[2.0, 3.0]);
        assert_eq!(mean.row(1), &[5.0, 6.0]);
    }

    #[test]
    fn compose_flattens_two_levels() {
        let fine = Coarsening::new(vec![0, 0, 1, 1, 2, 2], 3);
        let coarse = Coarsening::new(vec![0, 0, 1], 2);
        let all = fine.compose(&coarse);
        assert_eq!(all.partition(), &[0, 0, 0, 0, 1, 1]);
        assert_eq!(all.num_coarse(), 2);
    }

    #[test]
    fn bad_inputs_are_errors() {
        let g = sgl_datasets::grid2d(3, 3);
        let v = signatures(&g);
        assert!(matches!(
            spectral_affinity_aggregate(
                &g,
                &v,
                &AggregationOptions {
                    target_ratio: 1.0,
                    max_passes: 2
                }
            ),
            Err(SglError::InvalidConfig(_))
        ));
        assert!(matches!(
            spectral_affinity_aggregate(
                &Graph::new(0),
                &DenseMatrix::zeros(0, 1),
                &AggregationOptions::default()
            ),
            Err(SglError::InvalidGraph(_))
        ));
    }
}
