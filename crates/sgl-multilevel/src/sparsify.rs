//! Effective-resistance edge sampling (GRASPEL-style spectral
//! sparsification) for learned/prolonged graphs.
//!
//! Each off-tree edge is scored by its *leverage* `w_e · R_eff(e)` — the
//! spectral-sparsification sampling weight of Spielman–Srivastava — and
//! the lowest-leverage edges are dropped until the graph meets a target
//! density. A maximum spanning tree is always kept, so connectivity
//! survives any target. The resistances follow the learning strategy:
//! a 64-projection JL [`ResistanceSketch`] through the options' solver
//! policy, or the solver-free [`SpectralSketch`]. An optional
//! spectral-similarity check compares the low eigenvalues before and
//! after pruning.

use sgl_core::{
    compare_spectra, LearnStrategyKind, ResistanceEstimator, ResistanceSketch, SglError,
    SpectralSketch, SpectrumComparison,
};
use sgl_graph::mst::maximum_spanning_tree;
use sgl_graph::Graph;
use sgl_solver::{SolveStats, SolverContext, SolverPolicy};

/// JL projections of the solver strategy's leverage sketch: one batched
/// solve of this many right-hand sides scores every edge.
const JL_PROJECTIONS: usize = 64;

/// Options for [`sparsify_by_resistance`].
#[derive(Debug, Clone)]
pub struct SparsifyOptions {
    /// Which strategy's resistance estimator scores the edges:
    /// [`LearnStrategyKind::Solver`] amortizes one batched solve over
    /// every edge (the JL sketch); [`LearnStrategyKind::SolverFree`]
    /// keeps the whole pass solver-free (the spectral sketch).
    pub strategy: LearnStrategyKind,
    /// Solver policy of the JL sketch's solves.
    pub policy: SolverPolicy,
    /// Seed of either sketch.
    pub seed: u64,
    /// Compare this many low nonzero eigenvalues before/after pruning
    /// (0 skips the check — e.g. inside a V-cycle where the caller
    /// verifies the final graph instead).
    pub check_eigs: usize,
    /// The check passes when the mean relative eigenvalue error stays
    /// below this bound.
    pub max_relative_error: f64,
}

impl Default for SparsifyOptions {
    fn default() -> Self {
        SparsifyOptions {
            strategy: LearnStrategyKind::Solver,
            policy: SolverPolicy::default(),
            seed: 0x5BA6,
            check_eigs: 6,
            max_relative_error: 0.1,
        }
    }
}

/// Outcome of [`sparsify_by_resistance`].
#[derive(Debug, Clone)]
pub struct Sparsified {
    /// The pruned graph (identical to the input when it already met the
    /// target density).
    pub graph: Graph,
    /// Edges kept.
    pub kept_edges: usize,
    /// Edges dropped.
    pub dropped_edges: usize,
    /// Low-spectrum comparison original vs. pruned (`None` when the
    /// check was skipped or nothing was dropped).
    pub spectral: Option<SpectrumComparison>,
    /// Whether the spectral check passed (vacuously `true` when
    /// skipped).
    pub within_tolerance: bool,
    /// Laplacian-solve statistics of the resistance estimation.
    pub solver_stats: SolveStats,
    /// Solver handles built for the resistance estimation.
    pub handles_built: usize,
}

/// Prune `graph` down to at most `target_density · N` edges by
/// effective-resistance leverage scores, never dropping below a maximum
/// spanning tree. See the [module docs](self).
///
/// Deterministic: scores are computed by a seeded estimator and ties
/// break by edge index, so the kept edge set is identical across runs
/// and thread counts.
///
/// # Errors
/// Returns [`SglError::InvalidConfig`] for a non-positive target
/// density, [`SglError::InvalidGraph`] for a disconnected graph, and
/// propagates estimator/solver failures.
pub fn sparsify_by_resistance(
    graph: &Graph,
    target_density: f64,
    opts: &SparsifyOptions,
) -> Result<Sparsified, SglError> {
    if !(target_density > 0.0 && target_density.is_finite()) {
        return Err(SglError::InvalidConfig(format!(
            "sparsify: target density must be positive and finite, got {target_density}"
        )));
    }
    if !sgl_graph::traversal::is_connected(graph) {
        return Err(SglError::InvalidGraph(
            "sparsify: graph must be connected".into(),
        ));
    }
    let n = graph.num_nodes();
    let target_edges = ((target_density * n as f64).floor() as usize).max(n.saturating_sub(1));
    if graph.num_edges() <= target_edges {
        return Ok(Sparsified {
            graph: graph.clone(),
            kept_edges: graph.num_edges(),
            dropped_edges: 0,
            spectral: None,
            within_tolerance: true,
            solver_stats: SolveStats::default(),
            handles_built: 0,
        });
    }

    let mut ctx = SolverContext::new(opts.policy.clone());
    let estimator: Box<dyn ResistanceEstimator> = match opts.strategy {
        LearnStrategyKind::Solver => {
            let handle = ctx.handle_for(graph)?;
            Box::new(ResistanceSketch::build_with(
                handle.as_ref(),
                graph,
                JL_PROJECTIONS,
                opts.seed,
            )?)
        }
        LearnStrategyKind::SolverFree => Box::new(SpectralSketch::build(graph, 0, opts.seed)?),
    };
    let tree = maximum_spanning_tree(graph);
    let off = tree.off_tree_edges();
    let pairs: Vec<(usize, usize)> = off
        .iter()
        .map(|&i| {
            let e = graph.edge(i);
            (e.u, e.v)
        })
        .collect();
    let resistances = estimator.resistances(&pairs)?;

    // Leverage score w_e · R_e, highest kept; ties break by edge index.
    let mut scored: Vec<(usize, f64)> = off
        .iter()
        .zip(&resistances)
        .map(|(&i, &r)| (i, graph.edge(i).weight * r.max(0.0)))
        .collect();
    scored.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    let keep_off = target_edges.saturating_sub(tree.edge_indices.len());
    let mut keep = tree.edge_indices.clone();
    keep.extend(scored.iter().take(keep_off).map(|&(i, _)| i));
    keep.sort_unstable();
    let pruned = graph.edge_subgraph(&keep);

    let spectral = if opts.check_eigs > 0 {
        let k = opts.check_eigs.min(n.saturating_sub(2)).max(1);
        Some(compare_spectra(graph, &pruned, k)?)
    } else {
        None
    };
    let within_tolerance = spectral
        .as_ref()
        .is_none_or(|c| c.mean_relative_error <= opts.max_relative_error);
    Ok(Sparsified {
        kept_edges: pruned.num_edges(),
        dropped_edges: graph.num_edges() - pruned.num_edges(),
        graph: pruned,
        spectral,
        within_tolerance,
        solver_stats: ctx.cumulative_stats(),
        handles_built: ctx.handles_built(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgl_graph::traversal::is_connected;

    #[test]
    fn prunes_to_target_and_stays_connected() {
        let g = sgl_datasets::grid2d(12, 12); // density ~1.83
        let s = sparsify_by_resistance(&g, 1.3, &SparsifyOptions::default()).unwrap();
        assert!(is_connected(&s.graph));
        assert!(s.graph.density() <= 1.3 + 1e-12);
        assert_eq!(s.kept_edges + s.dropped_edges, g.num_edges());
        assert!(s.dropped_edges > 0);
        assert!(s.solver_stats.solves > 0, "JL sketch must have solved");
        // Every kept edge existed in the original with its weight.
        for e in s.graph.edges() {
            let i = g.find_edge(e.u, e.v).unwrap();
            assert_eq!(g.edge(i).weight, e.weight);
        }
    }

    #[test]
    fn spectral_check_reports_low_error_on_mild_pruning() {
        let g = sgl_datasets::grid2d(10, 10);
        let opts = SparsifyOptions {
            max_relative_error: 0.35,
            ..SparsifyOptions::default()
        };
        let s = sparsify_by_resistance(&g, 1.5, &opts).unwrap();
        let cmp = s.spectral.expect("check requested");
        assert!(
            cmp.mean_relative_error < 0.35,
            "{}",
            cmp.mean_relative_error
        );
        assert!(s.within_tolerance);
        assert!(cmp.correlation > 0.9);
    }

    #[test]
    fn already_sparse_graph_is_untouched() {
        let g = sgl_datasets::grid2d(6, 6);
        let s = sparsify_by_resistance(&g, 3.0, &SparsifyOptions::default()).unwrap();
        assert_eq!(s.dropped_edges, 0);
        assert_eq!(s.graph.num_edges(), g.num_edges());
        assert!(s.spectral.is_none());
        assert!(s.within_tolerance);
    }

    #[test]
    fn tree_floor_is_respected() {
        // A target below 1 edge/node can never break the spanning tree.
        let g = sgl_datasets::grid2d(8, 8);
        let opts = SparsifyOptions {
            check_eigs: 0,
            ..SparsifyOptions::default()
        };
        let s = sparsify_by_resistance(&g, 0.1, &opts).unwrap();
        assert_eq!(s.graph.num_edges(), 63);
        assert!(is_connected(&s.graph));
        assert!(s.spectral.is_none(), "check was skipped");
    }

    #[test]
    fn deterministic_across_runs_and_estimators_reject_bad_input() {
        let g = sgl_datasets::grid2d(9, 9);
        let opts = SparsifyOptions {
            check_eigs: 0,
            ..SparsifyOptions::default()
        };
        let a = sparsify_by_resistance(&g, 1.2, &opts).unwrap();
        let b = sparsify_by_resistance(&g, 1.2, &opts).unwrap();
        assert_eq!(a.graph.num_edges(), b.graph.num_edges());
        for (ea, eb) in a.graph.edges().iter().zip(b.graph.edges()) {
            assert_eq!((ea.u, ea.v, ea.weight), (eb.u, eb.v, eb.weight));
        }
        assert!(sparsify_by_resistance(&g, 0.0, &opts).is_err());
        let disconnected = Graph::from_edges(4, [(0, 1, 1.0), (2, 3, 1.0)]);
        assert!(sparsify_by_resistance(&disconnected, 1.0, &opts).is_err());
    }
}
