//! [`SolverContext`] — a session-owned cache of the current graph
//! revision's [`SolverHandle`].
//!
//! The SGL loop mutates its learned graph between iterations but solves
//! against a *fixed* graph many times within one iteration (edge
//! scaling, shift-invert embedding, resistance sketching). The context
//! captures exactly that lifecycle: stages call
//! [`handle_for`](SolverContext::handle_for) and share one prepared
//! handle per graph revision.
//!
//! # One handle per revision
//!
//! Change detection is `O(1)`: every [`Graph`] mutation moves it to a
//! fresh process-unique [`Graph::revision`], and the context compares
//! epochs instead of rehashing the edge list (the structural fingerprint
//! survives as a debug assertion only). Any change — inserted edges, a
//! reweight, a Step-5 rescale — makes the next request build a fresh
//! handle through [`SolverPolicy::build_handle`]; callers never report
//! what changed. The rebuild is cheap on the graphs SGL learns: they
//! are spanning trees plus `k` off-tree edges, which `Auto` serves with
//! the exact near-tree preconditioner
//! ([`exact_tree_or_amg`](crate::preconditioner::exact_tree_or_amg)) —
//! `k` `O(N)` tree solves and a `k × k` factor to set up, one PCG
//! iteration per solve.
//!
//! [`invalidate`](SolverContext::invalidate) forces a rebuild of an
//! unchanged graph (fault recovery, a freshly installed fault plan), and
//! [`handles_built`](SolverContext::handles_built) counts the builds. A
//! failed build is returned as it is: every way `build_handle` can fail
//! (policy validation, an empty or disconnected graph, the dense size
//! cap, a pinned `TreeDirect` on a graph with cycles) fails the same way
//! on a retry. The one fault this layer injects is
//! [`FaultKind::PcgStagnation`], through a handle wrapper that a
//! [`FaultPlan`] installs.

use crate::backend::{SolveStats, SolverHandle, SolverPolicy};
use crate::fault::{FaultKind, FaultPlan};
use sgl_graph::Graph;
use sgl_linalg::LinalgError;
use std::sync::Arc;

/// Revision-tracked solver cache driven by a [`SolverPolicy`] (see the
/// [module docs](self)).
pub struct SolverContext {
    policy: SolverPolicy,
    /// The handle prepared for graph revision `revision`.
    handle: Option<Arc<dyn SolverHandle>>,
    /// [`Graph::revision`] the cached handle was prepared for (`0` =
    /// none yet).
    revision: u64,
    stale: bool,
    /// Handle builds (one per graph revision served, plus rebuilds after
    /// [`invalidate`](SolverContext::invalidate)).
    handles_built: usize,
    /// Fingerprint of the graph the cached handle was built for — the
    /// revision counter's debug-mode witness.
    #[cfg(debug_assertions)]
    fingerprint: u64,
    /// Stats accumulated from handles of *previous* revisions (retired
    /// on rebuild), so the context can report lifetime totals.
    retired_stats: SolveStats,
    /// Deterministic fault-injection schedule, if any (see
    /// [`FaultPlan`]). `None` in production: zero overhead.
    faults: Option<Arc<FaultPlan>>,
}

/// Cheap structural fingerprint (FNV-1a over the edge list). Since the
/// [`Graph::revision`] epoch took over change detection this only backs
/// the `debug_assert` that a served handle matches the graph bit for bit
/// — the O(nnz) hash is never computed in release builds.
#[cfg(debug_assertions)]
fn graph_fingerprint(graph: &Graph) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |v: u64| {
        h ^= v;
        h = h.wrapping_mul(PRIME);
    };
    mix(graph.num_nodes() as u64);
    mix(graph.num_edges() as u64);
    for e in graph.edges() {
        mix(e.u as u64);
        mix(e.v as u64);
        mix(e.weight.to_bits());
    }
    h
}

impl std::fmt::Debug for SolverContext {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SolverContext")
            .field("policy", &self.policy)
            .field("cached", &self.handle.is_some())
            .field("stale", &self.stale)
            .field("handles_built", &self.handles_built)
            .finish()
    }
}

impl SolverContext {
    /// Create a context for the given policy.
    pub fn new(policy: SolverPolicy) -> Self {
        SolverContext {
            policy,
            handle: None,
            revision: 0,
            stale: false,
            handles_built: 0,
            #[cfg(debug_assertions)]
            fingerprint: 0,
            retired_stats: SolveStats::default(),
            faults: None,
        }
    }

    /// The policy driving this context.
    pub fn policy(&self) -> &SolverPolicy {
        &self.policy
    }

    /// Install a deterministic fault-injection schedule: every
    /// subsequent solve through a context-built handle consults the plan
    /// for [`FaultKind::PcgStagnation`]. Installing a plan invalidates
    /// the cache so already-built handles don't bypass injection.
    pub fn set_fault_plan(&mut self, plan: Arc<FaultPlan>) {
        self.faults = Some(plan);
        self.stale = true;
    }

    /// Mark the cached handle stale even though the graph did not move
    /// (fault recovery, strategy fallback): the next
    /// [`handle_for`](SolverContext::handle_for) rebuilds from scratch.
    /// Graph mutations need no call — the revision check catches them.
    pub fn invalidate(&mut self) {
        self.stale = true;
    }

    /// The handle for the current graph revision: built on first use,
    /// served from cache while the [`Graph::revision`] epoch matches (an
    /// `O(1)` check — a mutated graph can never be silently served a
    /// stale handle), and rebuilt after any mutation or
    /// [`invalidate`](SolverContext::invalidate).
    ///
    /// # Errors
    /// Propagates [`SolverPolicy::build_handle`] failures; the stale
    /// cache is dropped either way.
    pub fn handle_for(&mut self, graph: &Graph) -> Result<Arc<dyn SolverHandle>, LinalgError> {
        let rebuild = self.handle.is_none()
            || self.stale
            || self.revision == 0
            || graph.revision() != self.revision;
        if rebuild {
            if let Some(old) = self.handle.take() {
                self.retired_stats.absorb(&old.stats());
            }
            let handle = {
                let _sp = sgl_trace::span!("handle_build", count = graph.num_nodes());
                self.policy.build_handle(graph)?
            };
            let handle: Arc<dyn SolverHandle> = match &self.faults {
                Some(plan) if plan.plans(FaultKind::PcgStagnation) => {
                    Arc::new(FaultInjectedHandle {
                        inner: handle,
                        plan: Arc::clone(plan),
                    })
                }
                _ => handle,
            };
            self.handles_built += 1;
            sgl_trace::count("solver.handles_built", 1);
            self.stale = false;
            self.revision = graph.revision();
            #[cfg(debug_assertions)]
            {
                self.fingerprint = graph_fingerprint(graph);
            }
            self.handle = Some(handle);
        } else {
            // The epoch matched: in debug builds, prove the content did
            // too (the counter's contract: equal revisions ⇒ equal
            // graphs).
            #[cfg(debug_assertions)]
            debug_assert_eq!(
                graph_fingerprint(graph),
                self.fingerprint,
                "graph revision matched but content differs — revision contract violated"
            );
        }
        Ok(Arc::clone(self.handle.as_ref().expect("handle just built")))
    }

    /// The cached handle, if any (no build is triggered).
    pub fn current_handle(&self) -> Option<&Arc<dyn SolverHandle>> {
        self.handle.as_ref()
    }

    /// How many handles this context has built — the observable cost of
    /// the per-revision cache (and the witness that a solver-free
    /// pipeline never built one).
    pub fn handles_built(&self) -> usize {
        self.handles_built
    }

    /// Lifetime solve statistics: every retired revision's counters plus
    /// the current handle's (zeros if no handle was ever built).
    pub fn cumulative_stats(&self) -> SolveStats {
        let mut total = self.retired_stats;
        if let Some(h) = &self.handle {
            total.absorb(&h.stats());
        }
        total
    }
}

/// A [`SolverHandle`] wrapper that consults a [`FaultPlan`] before
/// delegating: one [`FaultKind::PcgStagnation`] opportunity per
/// `solve`/`solve_batch` call, checked on the serial control path
/// before any parallel dispatch (thread-count invariant). Stats pass
/// straight through to the wrapped handle.
struct FaultInjectedHandle {
    inner: Arc<dyn SolverHandle>,
    plan: Arc<FaultPlan>,
}

impl FaultInjectedHandle {
    /// One stagnation opportunity: when the plan fires here, the error
    /// an exhausted iteration budget surfaces as.
    fn stagnate(&self) -> Result<(), LinalgError> {
        if self.plan.should_fire(FaultKind::PcgStagnation) {
            return Err(LinalgError::NotConverged {
                method: "fault-injection",
                iterations: 0,
                residual: f64::INFINITY,
            });
        }
        Ok(())
    }
}

impl SolverHandle for FaultInjectedHandle {
    fn num_nodes(&self) -> usize {
        self.inner.num_nodes()
    }

    fn method_name(&self) -> &'static str {
        self.inner.method_name()
    }

    fn solve(&self, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
        self.stagnate()?;
        self.inner.solve(b)
    }

    fn solve_batch(&self, rhs: &[Vec<f64>]) -> Result<Vec<Vec<f64>>, LinalgError> {
        self.stagnate()?;
        self.inner.solve_batch(rhs)
    }

    fn stats(&self) -> SolveStats {
        self.inner.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::PolicyMethod;
    use sgl_datasets::grid2d;
    use sgl_linalg::{vecops, Rng};

    fn mean_zero_rhs(n: usize, seed: u64) -> Vec<f64> {
        let mut rng = Rng::seed_from_u64(seed);
        let mut b = rng.normal_vec(n);
        vecops::project_out_mean(&mut b);
        b
    }

    #[test]
    fn per_revision_reuses_until_invalidated() {
        let g = grid2d(5, 5);
        let mut ctx = SolverContext::new(SolverPolicy::default());
        assert_eq!(ctx.handles_built(), 0);
        let a = ctx.handle_for(&g).unwrap();
        let b = ctx.handle_for(&g).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "same revision must share the handle");
        assert_eq!(ctx.handles_built(), 1);
        ctx.invalidate();
        let c = ctx.handle_for(&g).unwrap();
        assert!(!Arc::ptr_eq(&a, &c), "invalidate must rebuild");
        assert_eq!(ctx.handles_built(), 2);
    }

    #[test]
    fn cumulative_stats_survive_rebuilds() {
        let g = grid2d(5, 5);
        let mut ctx = SolverContext::new(SolverPolicy::default());
        assert_eq!(ctx.cumulative_stats(), Default::default());
        let b = {
            let mut v = vec![0.0; 25];
            v[0] = 1.0;
            v[24] = -1.0;
            v
        };
        ctx.handle_for(&g).unwrap().solve(&b).unwrap();
        ctx.invalidate();
        ctx.handle_for(&g).unwrap().solve(&b).unwrap();
        let total = ctx.cumulative_stats();
        assert_eq!(total.solves, 2, "retired handle's solves must be kept");
        assert!(total.last_relative_residual >= 0.0);
    }

    #[test]
    fn node_count_change_rebuilds() {
        let mut ctx = SolverContext::new(SolverPolicy::default());
        ctx.handle_for(&grid2d(4, 4)).unwrap();
        let h = ctx.handle_for(&grid2d(5, 5)).unwrap();
        assert_eq!(h.num_nodes(), 25);
        assert_eq!(ctx.handles_built(), 2);
    }

    #[test]
    fn silent_graph_mutation_is_caught_by_the_revision() {
        // Same node count, mutated weights, no invalidate() — the O(1)
        // revision check must not serve the handle factored for the old
        // graph.
        let mut g = grid2d(4, 4);
        let mut ctx = SolverContext::new(SolverPolicy::default());
        let a = ctx.handle_for(&g).unwrap();
        g.scale_weights(3.0);
        let b = ctx.handle_for(&g).unwrap();
        assert!(
            !Arc::ptr_eq(&a, &b),
            "stale handle served for mutated graph"
        );
        assert_eq!(ctx.handles_built(), 2);
        // R(0,1)-style sanity: the new handle solves the scaled system.
        let mut rhs = vec![0.0; 16];
        rhs[0] = 1.0;
        rhs[15] = -1.0;
        let xa = a.solve(&rhs).unwrap();
        let xb = b.solve(&rhs).unwrap();
        assert!(((xa[0] - xa[15]) / (xb[0] - xb[15]) - 3.0).abs() < 1e-6);
    }

    #[test]
    fn same_revision_clone_shares_the_handle() {
        // A clone carries its original's revision and identical content:
        // the O(1) check may (and does) reuse the cached handle.
        let g = grid2d(5, 5);
        let clone = g.clone();
        let mut ctx = SolverContext::new(SolverPolicy::default());
        let a = ctx.handle_for(&g).unwrap();
        let b = ctx.handle_for(&clone).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(ctx.handles_built(), 1);
    }

    #[test]
    fn failed_build_drops_stale_cache() {
        let g = grid2d(4, 4);
        let policy = SolverPolicy::default().with_method(PolicyMethod::DenseCholesky);
        let mut ctx = SolverContext::new(SolverPolicy {
            dense_max_nodes: 16,
            ..policy
        });
        ctx.handle_for(&g).unwrap();
        ctx.invalidate();
        assert!(ctx.handle_for(&grid2d(6, 6)).is_err());
        assert!(ctx.current_handle().is_none());
    }

    /// Solve through a context handle and compare against a fresh
    /// `Auto` factorization of the same graph.
    fn assert_matches_fresh(ctx: &mut SolverContext, g: &Graph, seed: u64, tol: f64) {
        let n = g.num_nodes();
        let b = mean_zero_rhs(n, seed);
        let x = ctx.handle_for(g).unwrap().solve(&b).unwrap();
        let fresh = SolverPolicy::default().build_handle(g).unwrap();
        let y = fresh.solve(&b).unwrap();
        let d = vecops::sub(&x, &y);
        assert!(
            vecops::norm2(&d) / vecops::norm2(&y).max(1e-300) < tol,
            "context solve drifted from fresh factorization: {}",
            vecops::norm2(&d)
        );
    }

    #[test]
    fn stacked_delta_batches_keep_matching() {
        // Four batches of inserted edges, no report to the context: each
        // revision gets its own handle, and every one solves like a
        // fresh factorization of the current graph.
        let mut g = grid2d(6, 6);
        let mut ctx = SolverContext::new(SolverPolicy::default());
        ctx.handle_for(&g).unwrap();
        let mut rng = Rng::seed_from_u64(42);
        for round in 0..4 {
            for _ in 0..3 {
                let u = rng.below(36);
                let v = rng.below(36);
                if u == v {
                    continue;
                }
                g.add_edge(u, v, 0.3 + rng.uniform());
            }
            assert_matches_fresh(&mut ctx, &g, 100 + round, 1e-8);
        }
        assert_eq!(ctx.handles_built(), 5, "one build per revision");
    }

    #[test]
    fn delta_equivalence_across_every_backend_method() {
        for method in [
            PolicyMethod::TreePcg,
            PolicyMethod::AmgPcg,
            PolicyMethod::DenseCholesky,
        ] {
            let mut g = grid2d(6, 6);
            let mut ctx = SolverContext::new(SolverPolicy::default().with_method(method));
            ctx.handle_for(&g).unwrap();
            g.add_edge(0, 13, 0.9);
            g.add_edge(7, 29, 1.4);
            let h = ctx.handle_for(&g).unwrap();
            assert_eq!(
                h.method_name(),
                method.name(),
                "the rebuild keeps the method"
            );
            assert_eq!(ctx.handles_built(), 2, "{method:?}");
            assert_matches_fresh(&mut ctx, &g, 11, 1e-7);
        }
    }

    #[test]
    fn injected_stagnation_surfaces_then_recovers() {
        let g = grid2d(5, 5);
        let mut ctx = SolverContext::new(SolverPolicy::default());
        let plan = Arc::new(FaultPlan::new().with_fault(FaultKind::PcgStagnation, 0));
        ctx.set_fault_plan(Arc::clone(&plan));
        let h = ctx.handle_for(&g).unwrap();
        let b = mean_zero_rhs(25, 5);
        assert!(matches!(h.solve(&b), Err(LinalgError::NotConverged { .. })));
        // The trigger is spent: the very same handle serves the retry.
        h.solve(&b).unwrap();
        assert_eq!(plan.injected_count(), 1);
        assert_eq!(h.stats().solves, 1, "the injected failure is not a solve");
    }
}
