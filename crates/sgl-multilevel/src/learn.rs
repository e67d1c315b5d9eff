//! The multilevel learning driver: coarsen, learn at the coarsest
//! level, prolong, refine — one V-shaped sweep.
//!
//! ```text
//! level 0 (N nodes)      kNN candidate graph ──┐        ┌─▶ refined graph
//! level 1 (≈ρN)                 contraction ──┐│        │┌─ prolong + refine
//!   ⋮                                          ⋮│        │⋮
//! level L (coarsest)             SglSession learns ─────┘
//! ```
//!
//! The full learning loop runs **once**, on the coarsest candidate
//! graph, through the ordinary [`SglSession`] over *restricted*
//! measurements (aggregate means of `X`, aggregate sums of `Y`) — with
//! the exact dense backends when the coarsest level fits them, so the
//! expensive part of the pipeline runs at a size where it is trivial.
//! The learned topology then climbs back up one level at a time:
//!
//! 1. **prolong** — the level's own candidate MST (Step 1b, one Kruskal
//!    pass, no solves) plus, for every coarse *off-tree* pick, the
//!    strongest fine candidate edge crossing its aggregate pair, at the
//!    fine edge's own eq.-(15) data weight `M/z^data`;
//! 2. **densify** — a bounded number of flat-loop Steps 2–3 sweeps
//!    (embed → score → add), warm-started from the prolonged coarse
//!    embedding (nested iteration) and run at a scoring-grade
//!    eigensolver tolerance;
//! 3. **refine** — bounded [`refine_weights_with`](sgl_core::refine_weights_with) sweeps toward the
//!    `η = 1` stationarity point;
//! 4. optionally **prune** back to a target density by
//!    resistance-leverage sampling.
//!
//! The finest level gets the usual Step-5 spectral edge scaling. All
//! Laplacian solves above the coarsest level flow through one
//! [`SolverContext`] (auxiliary quantities at [`MultilevelOptions::aux_rtol`]),
//! so [`MultilevelResult::solver_stats`] reports the whole V-cycle's PCG
//! effort — the number the multilevel bench compares against flat
//! learning.

use crate::coarsen::Coarsening;
use crate::hierarchy::{HierarchyOptions, MultilevelHierarchy};
use crate::sparsify::{sparsify_by_resistance, SparsifyOptions};
use sgl_core::embedding::EmbeddingOptions;
use sgl_core::{
    CandidatePool, Embedder, LearnResult, Measurements, RefineOptions, SglConfig, SglError,
    SglSession,
};
use sgl_graph::mst::maximum_spanning_tree;
use sgl_graph::Graph;
use sgl_knn::build_knn_graph;
use sgl_linalg::par::with_threads_hint;
use sgl_linalg::DenseMatrix;
use sgl_solver::{SolveStats, SolverContext};
use std::collections::HashMap;

/// Knobs of [`learn_multilevel`] beyond the shared [`SglConfig`]
/// (which contributes `coarsening_ratio`, `max_levels`, the solver
/// policy, and the coarsest-level learning parameters).
#[derive(Debug, Clone)]
pub struct MultilevelOptions {
    /// Hierarchy construction (coarsest size, test-vector filter).
    pub hierarchy: HierarchyOptions,
    /// Bounded densification sweeps per level after prolongation: each
    /// sweep embeds the current graph (warm-started from the prolonged
    /// coarse embedding — the nested-iteration trick that keeps fine
    /// eigensolves to a few steps), scores the remaining candidates, and
    /// adds the top `⌈N_ℓ β⌉` above tolerance — the flat loop's Step 2–3,
    /// capped. `0` keeps the coarse topology untouched.
    pub densify_iters: usize,
    /// Budget multiplier on `β` during the bounded sweeps: each sweep
    /// may add up to `⌈N_ℓ β · densify_boost⌉` edges. The flat loop
    /// re-embeds after every `⌈Nβ⌉` additions; with the sweep count
    /// capped, the same edge volume has to land in fewer, larger
    /// batches.
    pub densify_boost: f64,
    /// Eigensolver residual tolerance for the bounded sweeps' embeds
    /// (`None` inherits `SglConfig::eig_tol`). Candidate *scoring*
    /// tolerates much cruder spectra than the flat loop's convergence
    /// test — the SF-SGL observation — and a looser tolerance keeps
    /// LOBPCG well clear of its stall/fallback path on big fine levels.
    pub densify_eig_tol: Option<f64>,
    /// Relative residual tolerance for the V-cycle's *auxiliary* solves
    /// — JL refinement sketches and the Step-5 scaling ratio — which
    /// need a few digits, not the policy's full 1e-10 (`None` inherits
    /// `SolverPolicy::rtol`). The JL sketch itself carries percent-level
    /// sampling error, so solving its projections tighter buys nothing;
    /// the learned topology is unaffected, and the global Step-5 scale
    /// factor is computed to roughly this relative accuracy (so against
    /// a flat run the weights agree to ~`aux_rtol`, not bit-for-bit,
    /// when `scale_edges` is on).
    pub aux_rtol: Option<f64>,
    /// Per-level weight refinement after densification. `rounds = 0`
    /// disables refinement entirely.
    pub refine: RefineOptions,
    /// Prune a prolonged level back to this density (edges/node) when
    /// it exceeds it; `None` never prunes. The in-cycle check is
    /// eigenvalue-free (`check_eigs = 0` is forced) — verify the final
    /// graph instead — and the pruning follows `SglConfig::strategy`
    /// (its `strategy` field is overridden), so a solver-free run
    /// prunes without a solve.
    pub target_density: Option<f64>,
    /// Estimator settings for the in-cycle pruning.
    pub sparsify: SparsifyOptions,
}

impl Default for MultilevelOptions {
    fn default() -> Self {
        MultilevelOptions {
            hierarchy: HierarchyOptions::default(),
            densify_iters: 8,
            densify_boost: 4.0,
            densify_eig_tol: Some(1e-5),
            aux_rtol: Some(1e-4),
            refine: RefineOptions {
                rounds: 1,
                projections: 16,
                ..RefineOptions::default()
            },
            target_density: None,
            sparsify: SparsifyOptions::default(),
        }
    }
}

/// Per-level summary of the upward sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LevelReport {
    /// Level index (0 = finest).
    pub level: usize,
    /// Nodes at this level.
    pub nodes: usize,
    /// Edges after densification, refinement, and any pruning.
    pub edges: usize,
    /// Edges added by the bounded densification sweeps.
    pub edges_densified: usize,
    /// Refinement rounds run at this level.
    pub refine_rounds: usize,
    /// Edges removed by in-cycle pruning (0 when pruning is off).
    pub edges_pruned: usize,
}

/// The outcome of [`learn_multilevel`].
#[derive(Debug, Clone)]
pub struct MultilevelResult {
    /// The learned fine-level graph.
    pub graph: Graph,
    /// Node counts per hierarchy level, finest first.
    pub level_sizes: Vec<usize>,
    /// The coarsest-level learning result (trace, embedding, …).
    pub coarse: LearnResult,
    /// Upward-sweep reports, coarsest first.
    pub reports: Vec<LevelReport>,
    /// Step-5 scale factor applied at the finest level (`None` when
    /// skipped — voltage-only data or `scale_edges = false`).
    pub scale_factor: Option<f64>,
    /// Lifetime Laplacian-solve statistics of the whole run: the
    /// coarsest session's plus every prolong/refine/scale solve above
    /// it.
    pub solver_stats: SolveStats,
    /// Solver handles built over the whole run: the coarsest session's,
    /// the upward sweep's and in-cycle pruning's.
    pub handles_built: usize,
}

impl MultilevelResult {
    /// Number of hierarchy levels.
    pub fn num_levels(&self) -> usize {
        self.level_sizes.len()
    }

    /// Density `|E|/|V|` of the learned fine graph.
    pub fn density(&self) -> f64 {
        self.graph.density()
    }
}

/// Learn a graph from measurements through the multilevel hierarchy:
/// build the kNN candidate graph (Step 1), coarsen it to
/// `config.max_levels` levels at `config.coarsening_ratio`, learn on the
/// coarsest level with a normal [`SglSession`], and prolong + refine
/// back to the fine level. See the [module docs](self).
///
/// Deterministic: same config, options, and measurements produce a
/// bit-identical graph at any `config.parallelism` / thread count.
///
/// # Errors
/// Propagates configuration, hierarchy, session, and solver failures.
pub fn learn_multilevel(
    config: &SglConfig,
    measurements: &Measurements,
    opts: &MultilevelOptions,
) -> Result<MultilevelResult, SglError> {
    config.validate()?;
    let candidate = with_threads_hint(config.parallelism, || {
        build_knn_graph(measurements.voltages(), config.k)
    });
    learn_multilevel_from_candidate(config, measurements, candidate, opts)
}

/// [`learn_multilevel`] over a caller-provided fine candidate graph
/// (must span all measurement nodes and be connected) — the analogue of
/// [`SglSession::with_candidate_graph`].
///
/// # Errors
/// See [`learn_multilevel`].
pub fn learn_multilevel_from_candidate(
    config: &SglConfig,
    measurements: &Measurements,
    candidate: Graph,
    opts: &MultilevelOptions,
) -> Result<MultilevelResult, SglError> {
    config.validate()?;
    if measurements.num_nodes() < 4 {
        return Err(SglError::InvalidMeasurements(
            "need at least 4 nodes to learn a graph".into(),
        ));
    }
    if candidate.num_nodes() != measurements.num_nodes() {
        return Err(SglError::InvalidGraph(format!(
            "candidate graph has {} nodes, measurements have {}",
            candidate.num_nodes(),
            measurements.num_nodes()
        )));
    }
    with_threads_hint(config.parallelism, || {
        learn_inner(config, measurements, candidate, opts)
    })
}

fn learn_inner(
    config: &SglConfig,
    measurements: &Measurements,
    candidate: Graph,
    opts: &MultilevelOptions,
) -> Result<MultilevelResult, SglError> {
    // One strategy drives the whole V-cycle: the coarse session runs it
    // from the config, and the upward sweep's embeds, weight refinement,
    // in-cycle pruning and finest-level Step 5 all follow
    // `config.strategy` — so a
    // solver-free config keeps the entire multilevel run at
    // `solves == 0` / `handles_built == 0`.
    let hierarchy = {
        let _sp = sgl_trace::span!("coarsen", count = candidate.num_nodes());
        MultilevelHierarchy::build(
            &candidate,
            config.coarsening_ratio,
            config.max_levels,
            &opts.hierarchy,
        )?
    };
    let coarsest = hierarchy.num_levels() - 1;

    // Restrict the measurements level by level: voltages by aggregate
    // mean, currents by aggregate sum (Pᵀ y — injections add up).
    let mut level_meas: Vec<Measurements> = vec![measurements.clone()];
    for l in 0..coarsest {
        let c = hierarchy.level(l).coarsening.as_ref().expect("inner level");
        let prev = &level_meas[l];
        let x = c.restrict_mean(prev.voltages());
        let next = match prev.currents() {
            Some(y) => Measurements::new(x, c.restrict_sum(y))?,
            None => Measurements::from_voltages(x)?,
        };
        level_meas.push(next);
    }

    // Learn once, on the coarsest candidate graph. Edge scaling is
    // deferred to the finest level (coarse weights only decide the
    // topology), which also keeps the coarse session cheaper. At the
    // sizes the hierarchy bottoms out at, the exact dense backends are
    // the right algorithms — machine-precision eigenpairs, a direct
    // factorization instead of iterations, and no LOBPCG stall path —
    // so an `Auto` policy gets upgraded to them when the coarsest level
    // fits the dense guard (which both dense backends read from the
    // policy's `dense_max_nodes`).
    let coarse_nodes = hierarchy.coarsest().graph.num_nodes();
    let mut coarse_cfg = config.clone().with_scale_edges(false);
    let use_dense = config.solver.method == sgl_solver::PolicyMethod::Auto
        && config.solver.dense_max_nodes != 0
        && coarse_nodes <= config.solver.dense_max_nodes;
    if use_dense {
        coarse_cfg.solver.method = sgl_solver::PolicyMethod::DenseCholesky;
    }
    let mut session = SglSession::with_candidate_graph(
        coarse_cfg,
        &level_meas[coarsest],
        hierarchy.coarsest().graph.clone(),
    )?;
    if use_dense {
        session = session.with_dense_embedding();
    }
    let coarse_result = {
        let _sp = sgl_trace::span!("level", count = coarsest);
        session.run()?
    };

    // Upward sweep: prolong, densify, refine, optionally prune — all
    // through one solver context so the stats add up. Auxiliary solves
    // (refinement sketches, the scaling ratio) run at `aux_rtol`.
    let mut aux_policy = config.solver.clone();
    if let Some(rtol) = opts.aux_rtol {
        aux_policy.rtol = rtol.max(config.solver.rtol);
    }
    let mut ctx = SolverContext::new(aux_policy);
    let mut current = coarse_result.graph.clone();
    let mut reports = vec![LevelReport {
        level: coarsest,
        nodes: current.num_nodes(),
        edges: current.num_edges(),
        edges_densified: 0,
        refine_rounds: 0,
        edges_pruned: 0,
    }];
    // The coarse embedding rides up the hierarchy as the eigensolver
    // warm start (nested iteration): at each level its rows are copied
    // onto the aggregate's members before the first fine embed.
    let mut warm_coords = Some(coarse_result.embedding.coords.clone());
    let mut prune_stats = SolveStats::default();
    let mut prune_handles = 0;
    for l in (0..coarsest).rev() {
        let _level_sp = sgl_trace::span!("level", count = l);
        let level = hierarchy.level(l);
        let coarsening = level.coarsening.as_ref().expect("inner level");
        let mut fine = prolong(&level.graph, coarsening, &current)?;
        warm_coords = warm_coords
            .map(|coords| prolong_coords(&coords, coarsening))
            .filter(|c| c.nrows() == fine.num_nodes());
        let mut densified = 0;
        if opts.densify_iters > 0 {
            let (added, next_warm) = densify_level(
                &mut fine,
                &level.graph,
                &level_meas[l],
                config,
                opts,
                warm_coords.take(),
                &mut ctx,
            )?;
            densified = added;
            warm_coords = next_warm;
        }
        if opts.refine.rounds > 0 {
            config
                .strategy
                .refine_weights(&mut fine, &level_meas[l], &opts.refine, &mut ctx)?;
        }
        let mut pruned = 0;
        if let Some(target) = opts.target_density {
            if fine.density() > target {
                let s = sparsify_by_resistance(
                    &fine,
                    target,
                    &SparsifyOptions {
                        strategy: config.strategy,
                        check_eigs: 0,
                        ..opts.sparsify.clone()
                    },
                )?;
                pruned = s.dropped_edges;
                prune_stats.absorb(&s.solver_stats);
                prune_handles += s.handles_built;
                fine = s.graph;
            }
        }
        reports.push(LevelReport {
            level: l,
            nodes: fine.num_nodes(),
            edges: fine.num_edges(),
            edges_densified: densified,
            refine_rounds: opts.refine.rounds,
            edges_pruned: pruned,
        });
        current = fine;
    }

    // Step 5 at the finest level, exactly like the flat pipeline: the
    // strategy's scaling (solver-backed or matvec-only) applies the
    // global factor.
    let scale_factor = if config.scale_edges {
        config
            .strategy
            .scale_edges(&mut current, measurements, &mut ctx)?
    } else {
        None
    };

    let mut solver_stats = coarse_result.solver_stats;
    solver_stats.absorb(&ctx.cumulative_stats());
    solver_stats.absorb(&prune_stats);
    let handles_built = coarse_result.handles_built + ctx.handles_built() + prune_handles;
    Ok(MultilevelResult {
        graph: current,
        level_sizes: hierarchy.level_sizes(),
        coarse: coarse_result,
        reports,
        scale_factor,
        solver_stats,
        handles_built,
    })
}

/// Piecewise-constant prolongation of embedding coordinates: every fine
/// node inherits its aggregate's row. Column scaling is irrelevant to
/// the eigensolver (LOBPCG orthonormalizes its start block), so this is
/// the textbook nested-iteration warm start.
fn prolong_coords(coarse: &DenseMatrix, coarsening: &Coarsening) -> DenseMatrix {
    let part = coarsening.partition();
    let mut fine = DenseMatrix::zeros(part.len(), coarse.ncols());
    for (u, &a) in part.iter().enumerate() {
        fine.row_mut(u).copy_from_slice(coarse.row(a));
    }
    fine
}

/// Bounded densification at one level: up to `max_iters` sweeps of the
/// flat loop's Steps 2–3 (embed → score → add top `⌈N β⌉` above
/// tolerance) over the candidates not yet in `graph`, with the
/// eigensolver warm-started from `warm_coords` (and then from each
/// sweep's own block). Embeds run through the strategy's Step-2
/// embedder. Returns the number of edges added and the last embedding
/// block for the next level's warm start.
fn densify_level(
    graph: &mut Graph,
    candidate: &Graph,
    measurements: &Measurements,
    config: &SglConfig,
    opts: &MultilevelOptions,
    warm_coords: Option<DenseMatrix>,
    ctx: &mut SolverContext,
) -> Result<(usize, Option<DenseMatrix>), SglError> {
    let n = graph.num_nodes();
    let width = (config.r - 1).min(n.saturating_sub(2)).max(1);
    let emb_opts = EmbeddingOptions {
        tol: opts.densify_eig_tol.unwrap_or(config.eig_tol),
        max_iter: config.eig_max_iter,
        seed: config.seed,
    };
    let embedder = Embedder::for_config(config);
    let per_iter = ((n as f64 * config.beta * opts.densify_boost.max(1.0)).ceil() as usize).max(1);
    let mut pool = CandidatePool::from_graph_excluding(candidate, graph, measurements);
    let mut warm = warm_coords.filter(|c| c.ncols() == width);
    let mut added = 0usize;
    for _ in 0..opts.densify_iters {
        if pool.is_empty() {
            break;
        }
        let embedding =
            embedder.embed(graph, width, config.shift(), &emb_opts, warm.as_ref(), ctx)?;
        let sens = pool.sensitivities(&embedding);
        let smax = sens.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        warm = Some(embedding.coords);
        if smax < config.tol {
            break;
        }
        let picked = pool.select_top(&sens, per_iter, config.tol);
        if picked.is_empty() {
            break;
        }
        for c in &picked {
            graph.add_edge(c.u, c.v, c.weight);
        }
        added += picked.len();
    }
    Ok((added, warm))
}

/// Expand a learned coarse graph one level down.
///
/// The base of the fine graph is the fine candidate's own maximum
/// spanning tree — exactly the flat learner's Step 1b, and a spanning
/// tree costs one Kruskal pass, no solves, so there is nothing to save
/// by approximating it from below. What the coarse level actually
/// contributes is its *densification choices*: every learned coarse
/// edge that is **off** the coarse candidate's own MST is a pick, and
/// each pick expands to the strongest fine candidate edge crossing
/// between its two aggregates, at the fine edge's own eq.-(15) data
/// weight — exactly what the flat learner would have assigned.
/// Deterministic: crossing-edge winners are resolved in candidate edge
/// order with strict improvement, plus the adjacency tie-break of the
/// MST itself.
fn prolong(
    fine_candidate: &Graph,
    coarsening: &Coarsening,
    coarse_learned: &Graph,
) -> Result<Graph, SglError> {
    if coarse_learned.num_nodes() != coarsening.num_coarse() {
        return Err(SglError::InvalidGraph(format!(
            "prolong: learned graph has {} nodes, coarsening has {} aggregates",
            coarse_learned.num_nodes(),
            coarsening.num_coarse()
        )));
    }
    let part = coarsening.partition();

    // Base: the fine candidate's MST (Step 1b of the flat loop).
    let fine_tree = maximum_spanning_tree(fine_candidate);
    let mut out = fine_tree.to_graph(fine_candidate);

    // The strongest *off-tree* crossing edge per aggregate pair — the
    // same pool the flat learner densifies from — in one pass over the
    // fine candidate edge list.
    let mut best_cross: HashMap<(usize, usize), usize> = HashMap::new();
    for (i, e) in fine_candidate.edges().iter().enumerate() {
        if fine_tree.in_tree[i] {
            continue;
        }
        let (a, b) = (part[e.u], part[e.v]);
        if a == b {
            continue;
        }
        let key = (a.min(b), a.max(b));
        match best_cross.entry(key) {
            std::collections::hash_map::Entry::Occupied(mut o) => {
                if e.weight > fine_candidate.edge(*o.get()).weight {
                    o.insert(i);
                }
            }
            std::collections::hash_map::Entry::Vacant(v) => {
                v.insert(i);
            }
        }
    }

    // The coarse picks: learned edges off the coarse candidate's MST,
    // each expanded to its strongest off-tree fine crossing edge (picks
    // whose every fine realization is already a tree edge are covered
    // and skipped).
    let coarse_candidate = coarsening.contract(fine_candidate);
    let coarse_tree = maximum_spanning_tree(&coarse_candidate);
    for ce in coarse_learned.edges() {
        if let Some(i) = coarse_candidate.find_edge(ce.u, ce.v) {
            if coarse_tree.in_tree[i] {
                continue; // base connectivity, already covered by the fine MST
            }
        }
        if let Some(&i) = best_cross.get(&(ce.u, ce.v)) {
            let e = fine_candidate.edge(i);
            out.add_edge(e.u, e.v, e.weight);
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgl_core::Sgl;
    use sgl_graph::traversal::is_connected;

    fn quick_config() -> SglConfig {
        SglConfig::default().with_tol(1e-6).with_max_iterations(100)
    }

    fn quick_opts(coarsest: usize) -> MultilevelOptions {
        MultilevelOptions {
            hierarchy: HierarchyOptions {
                coarsest_size: coarsest,
                ..HierarchyOptions::default()
            },
            ..MultilevelOptions::default()
        }
    }

    #[test]
    fn learns_connected_ultra_sparse_graph_through_levels() {
        let truth = sgl_datasets::grid2d(16, 16);
        let meas = Measurements::generate(&truth, 25, 1).unwrap();
        let r = learn_multilevel(&quick_config(), &meas, &quick_opts(64)).unwrap();
        assert!(r.num_levels() >= 2, "sizes {:?}", r.level_sizes);
        assert_eq!(r.graph.num_nodes(), 256);
        assert!(is_connected(&r.graph));
        assert!(r.density() < 2.0, "density {}", r.density());
        assert!(r.scale_factor.is_some());
        assert!(r.solver_stats.solves > 0);
        // Reports walk coarsest → finest and end on the full node set.
        assert_eq!(
            r.reports.first().unwrap().nodes,
            *r.level_sizes.last().unwrap()
        );
        assert_eq!(r.reports.last().unwrap().nodes, 256);
    }

    #[test]
    fn spectrum_tracks_flat_learning() {
        use sgl_core::compare_spectra;
        let truth = sgl_datasets::grid2d(16, 16);
        let meas = Measurements::generate(&truth, 30, 3).unwrap();
        let flat = Sgl::new(quick_config()).learn(&meas).unwrap();
        let multi = learn_multilevel(&quick_config(), &meas, &quick_opts(64)).unwrap();
        let cmp = compare_spectra(&flat.graph, &multi.graph, 6).unwrap();
        assert!(
            cmp.mean_relative_error < 0.10,
            "multilevel spectrum drifted {:.3} from flat",
            cmp.mean_relative_error
        );
        assert!(cmp.correlation > 0.98, "corr {}", cmp.correlation);
    }

    #[test]
    fn voltage_only_skips_scaling() {
        let truth = sgl_datasets::grid2d(12, 12);
        let meas = Measurements::generate(&truth, 20, 5).unwrap();
        let volts = Measurements::from_voltages(meas.voltages().clone()).unwrap();
        let r = learn_multilevel(&quick_config(), &volts, &quick_opts(48)).unwrap();
        assert!(r.scale_factor.is_none());
        assert!(is_connected(&r.graph));
    }

    #[test]
    fn single_level_hierarchy_degenerates_to_flat_session() {
        // max_levels = 1: no coarsening, the "coarsest" session IS the
        // fine session; prolongation never runs. Scaling is off so the
        // comparison is exact — with scaling on, the multilevel path
        // computes the global factor at `aux_rtol` accuracy, not the
        // policy's full tolerance.
        let truth = sgl_datasets::grid2d(8, 8);
        let meas = Measurements::generate(&truth, 20, 7).unwrap();
        let cfg = quick_config().with_max_levels(1).with_scale_edges(false);
        let multi = learn_multilevel(&cfg, &meas, &MultilevelOptions::default()).unwrap();
        let flat = Sgl::new(cfg).learn(&meas).unwrap();
        assert_eq!(multi.num_levels(), 1);
        assert_eq!(multi.graph.num_edges(), flat.graph.num_edges());
        for (a, b) in multi.graph.edges().iter().zip(flat.graph.edges()) {
            assert_eq!((a.u, a.v), (b.u, b.v));
            assert_eq!(a.weight, b.weight);
        }
    }

    #[test]
    fn in_cycle_pruning_caps_density() {
        let truth = sgl_datasets::grid2d(14, 14);
        let meas = Measurements::generate(&truth, 25, 9).unwrap();
        let opts = MultilevelOptions {
            target_density: Some(1.05),
            ..quick_opts(49)
        };
        let r = learn_multilevel(&quick_config(), &meas, &opts).unwrap();
        assert!(r.density() <= 1.05 + 1e-12, "density {}", r.density());
        assert!(is_connected(&r.graph));
        assert!(r.reports.iter().any(|rep| rep.edges_pruned > 0));
    }

    #[test]
    fn node_mismatch_is_rejected() {
        let truth = sgl_datasets::grid2d(8, 8);
        let meas = Measurements::generate(&truth, 10, 11).unwrap();
        let wrong = sgl_datasets::grid2d(5, 5);
        assert!(learn_multilevel_from_candidate(
            &quick_config(),
            &meas,
            wrong,
            &MultilevelOptions::default()
        )
        .is_err());
    }
}
