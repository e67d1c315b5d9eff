//! [`SolverContext`] — a session-owned cache of the current graph
//! revision's [`SolverHandle`], with an *incremental revision* path for
//! small edge deltas.
//!
//! The SGL loop mutates its learned graph between iterations but solves
//! against a *fixed* graph many times within one iteration (edge
//! scaling, shift-invert embedding, resistance sketching). The context
//! captures exactly that lifecycle: stages call
//! [`handle_for`](SolverContext::handle_for) and share one prepared
//! handle; the owner reports every graph change — either as an explicit
//! low-rank delta through [`apply_deltas`](SolverContext::apply_deltas)
//! / [`apply_scale`](SolverContext::apply_scale), or wholesale through
//! [`invalidate`](SolverContext::invalidate).
//!
//! # The incremental revision model
//!
//! Algorithm 1 adds only `⌈Nβ⌉` edges per iteration, so consecutive
//! graph revisions differ by a *low-rank* Laplacian update
//! `L' = L + B W Bᵀ`. Instead of refactoring (tree / AMG hierarchy /
//! dense Cholesky) from scratch, `apply_deltas` keeps the
//! existing base handle and wraps it in a
//! [`WoodburyUpdate`] correction: the corrected
//! base is a near-exact inverse of the updated operator, and each solve
//! runs a short PCG against the *true* updated Laplacian with that
//! correction as the preconditioner — so results still meet the
//! policy's `rtol` against the current graph, at the cost of
//! `O(solve + rank·N)` instead of `O(setup + solve)`. A uniform
//! rescale (Step 5) is even cheaper: `(c·L)⁺ = L⁺/c` needs no new
//! factorization at all.
//!
//! Two triggers force a full refactorization: the accumulated delta rank
//! exceeding [`SolverPolicy::max_delta_rank`], and the corrected solve's
//! outer PCG iteration count blowing up past a fixed 4 × its post-build
//! baseline (the stale factorization has drifted too far). Numerical
//! breakdown of the correction (singular capacitance, vanishing merged
//! weight) refreshes as well, so the incremental path never serves an
//! unreliable handle. [`revision_stats`](SolverContext::revision_stats)
//! reports how many full builds, incremental updates, and forced
//! refreshes a context performed — the observable cost of the policy.
//!
//! Change detection is `O(1)`: every [`Graph`] mutation moves it to a
//! fresh process-unique [`Graph::revision`], and the context compares
//! epochs instead of rehashing the edge list (the structural fingerprint
//! survives as a debug assertion only).

use crate::backend::{PolicyMethod, SolveStats, SolverHandle, SolverPolicy, StatCell};
use crate::fault::{FaultKind, FaultPlan};
use sgl_graph::laplacian::{apply_laplacian_deltas, laplacian_csr};
use sgl_graph::{EdgeDelta, Graph};
use sgl_linalg::cg::{pcg_solve_with, CgOptions, CgWorkspace};
use sgl_linalg::{par, vecops, CsrMatrix, LinalgError, Preconditioner, WoodburyUpdate};
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

/// Refresh trigger on iteration blow-up: when a delta-corrected solve's
/// outer PCG takes more than this factor × the iterations of the first
/// corrected solve after the last full build, the context schedules a
/// refactorization (the stale base has drifted too far from the current
/// operator).
const REFRESH_ITER_FACTOR: f64 = 4.0;

/// Lifetime counters of a [`SolverContext`]'s revision machinery: how
/// often it paid for a full factorization versus an incremental
/// correction, and what forced the refreshes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RevisionStats {
    /// Full handle builds (factorizations from scratch).
    pub handles_built: usize,
    /// Delta batches absorbed incrementally (Woodbury wraps + scale
    /// wraps) instead of refactoring.
    pub delta_updates: usize,
    /// Total delta-edge columns absorbed incrementally over the
    /// context's lifetime.
    pub delta_rank_applied: usize,
    /// Full refreshes forced by the accumulated rank exceeding
    /// [`SolverPolicy::max_delta_rank`].
    pub refreshes_on_rank: usize,
    /// Full refreshes forced by corrected-solve PCG iterations exceeding
    /// 4 × the post-build baseline.
    pub refreshes_on_iters: usize,
    /// Full refreshes forced by numerical breakdown of the correction
    /// (singular capacitance, vanishing merged weight, failed base
    /// solve).
    pub refreshes_on_numeric: usize,
    /// Preconditioner downgrades taken by the degradation ladder
    /// (AMG → tree → Jacobi) after a build breakdown.
    pub precond_downgrades: usize,
}

impl RevisionStats {
    /// Fold another context's counters into this one.
    pub fn absorb(&mut self, other: &RevisionStats) {
        self.handles_built += other.handles_built;
        self.delta_updates += other.delta_updates;
        self.delta_rank_applied += other.delta_rank_applied;
        self.refreshes_on_rank += other.refreshes_on_rank;
        self.refreshes_on_iters += other.refreshes_on_iters;
        self.refreshes_on_numeric += other.refreshes_on_numeric;
        self.precond_downgrades += other.precond_downgrades;
    }
}

/// The accumulated low-rank state between two full factorizations.
struct DeltaState {
    /// Distinct delta edges since the last full build.
    edges: Vec<(usize, usize)>,
    /// Accumulated signed weight change per delta edge.
    weights: Vec<f64>,
    /// Base solutions `(c·L₀)⁺ b_e`, aligned with `edges`.
    z_rows: Vec<Vec<f64>>,
    /// Edge → index in the three vectors above, for merging.
    index: HashMap<(usize, usize), usize>,
    /// Uniform factor applied to the base operator since the build
    /// (`apply_scale` products; 1 when never scaled).
    base_scale: f64,
    /// Set by the revision handle when its outer PCG blows up.
    needs_refresh: Arc<AtomicBool>,
    /// Outer iterations of the first corrected solve after the build
    /// (0 = not yet recorded).
    baseline_iters: Arc<AtomicUsize>,
}

impl DeltaState {
    fn fresh() -> Self {
        DeltaState {
            edges: Vec::new(),
            weights: Vec::new(),
            z_rows: Vec::new(),
            index: HashMap::new(),
            base_scale: 1.0,
            needs_refresh: Arc::new(AtomicBool::new(false)),
            baseline_iters: Arc::new(AtomicUsize::new(0)),
        }
    }

    fn rank(&self) -> usize {
        self.edges.len()
    }
}

/// Revision-tracked solver cache driven by a [`SolverPolicy`] (see the
/// [module docs](self) for the incremental revision model).
pub struct SolverContext {
    policy: SolverPolicy,
    /// The handle served to callers: the base itself, or a revision
    /// wrapper around it.
    handle: Option<Arc<dyn SolverHandle>>,
    /// The fully factored handle behind `handle` (identical to it when
    /// no delta has been absorbed).
    base: Option<Arc<dyn SolverHandle>>,
    delta: Option<DeltaState>,
    /// Laplacian CSR of the current revision, maintained incrementally
    /// while the delta path is active (the outer-PCG operator).
    lap: Option<Arc<CsrMatrix>>,
    /// [`Graph::revision`] the served handle was prepared for (`0` =
    /// none yet).
    revision: u64,
    stale: bool,
    stats: RevisionStats,
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
            .field(
                "delta_rank",
                &self.delta.as_ref().map_or(0, DeltaState::rank),
            )
            .field("stats", &self.stats)
            .finish()
    }
}

/// Mirror a scheduled refactorization into the trace/metrics registry
/// (labelled instant event + unified counter). No-op while the recorder
/// is disabled.
fn note_refresh(kind: &'static str) {
    sgl_trace::count("solver.refreshes", 1);
    sgl_trace::trace_event!("handle_refresh", label = kind);
}

impl SolverContext {
    /// Create a context for the given policy.
    pub fn new(policy: SolverPolicy) -> Self {
        SolverContext {
            policy,
            handle: None,
            base: None,
            delta: None,
            lap: None,
            revision: 0,
            stale: false,
            stats: RevisionStats::default(),
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

    /// Install a deterministic fault-injection schedule. Every
    /// subsequent handle build, solve through a context-built handle,
    /// and Woodbury correction consults the plan at its opportunity
    /// site. Installing a plan invalidates the cache so already-built
    /// handles don't bypass injection.
    pub fn set_fault_plan(&mut self, plan: Arc<FaultPlan>) {
        self.faults = Some(plan);
        self.stale = true;
    }

    /// The installed fault plan, if any.
    pub fn fault_plan(&self) -> Option<&Arc<FaultPlan>> {
        self.faults.as_ref()
    }

    /// Mark the cached handle stale (the graph changed in a way the
    /// incremental path cannot express — topology removal, bulk edits);
    /// the next [`handle_for`](SolverContext::handle_for) refactors from
    /// scratch. For low-rank changes prefer
    /// [`apply_deltas`](SolverContext::apply_deltas) /
    /// [`apply_scale`](SolverContext::apply_scale), which keep the
    /// existing factorization alive.
    pub fn invalidate(&mut self) {
        self.stale = true;
    }

    /// Whether the corrected handle has flagged itself for refresh
    /// (outer PCG iteration blow-up).
    fn iter_flagged(&self) -> bool {
        self.delta
            .as_ref()
            .is_some_and(|d| d.needs_refresh.load(Ordering::Relaxed))
    }

    /// Retire every cached handle's counters into the lifetime totals
    /// and drop the cache.
    fn retire_current(&mut self) {
        if let Some(h) = self.handle.take() {
            self.retired_stats.absorb(&h.stats());
            if let Some(b) = self.base.take() {
                if !Arc::ptr_eq(&h, &b) {
                    self.retired_stats.absorb(&b.stats());
                }
            }
        } else if let Some(b) = self.base.take() {
            self.retired_stats.absorb(&b.stats());
        }
        self.delta = None;
        self.lap = None;
    }

    /// The handle for the current graph revision: built from scratch on
    /// first use, served from cache while the [`Graph::revision`] epoch
    /// matches (an `O(1)` check — a mutated graph can never be silently
    /// served a stale handle), and refactored after
    /// [`invalidate`](SolverContext::invalidate) or a pending refresh
    /// trigger. Revisions absorbed via
    /// [`apply_deltas`](SolverContext::apply_deltas) /
    /// [`apply_scale`](SolverContext::apply_scale) are served as
    /// corrected wrappers around the cached base factorization.
    ///
    /// # Errors
    /// Propagates [`SolverPolicy::build_handle`] failures that the
    /// degradation ladder cannot recover; the stale cache is dropped
    /// either way.
    pub fn handle_for(&mut self, graph: &Graph) -> Result<Arc<dyn SolverHandle>, LinalgError> {
        let iter_flagged = self.iter_flagged();
        let rebuild = self.handle.is_none()
            || self.stale
            || iter_flagged
            || self.revision == 0
            || graph.revision() != self.revision;
        if rebuild {
            if iter_flagged {
                self.stats.refreshes_on_iters += 1;
                note_refresh("iters");
            }
            self.retire_current();
            let handle = {
                let _sp = sgl_trace::span!("handle_build", count = graph.num_nodes());
                self.build_with_degradation(graph)?
            };
            self.stats.handles_built += 1;
            sgl_trace::count("solver.handles_built", 1);
            self.stale = false;
            self.revision = graph.revision();
            #[cfg(debug_assertions)]
            {
                self.fingerprint = graph_fingerprint(graph);
            }
            self.base = Some(Arc::clone(&handle));
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

    /// Build a handle for `graph`, walking the preconditioner
    /// degradation ladder on breakdown: a failed primary build (real, or
    /// injected via [`FaultKind::PrecondBreakdown`]) downgrades to a
    /// spanning-tree preconditioner, then to Jacobi — each successful
    /// downgrade counted in [`RevisionStats::precond_downgrades`]. The
    /// dense reference deliberately has no ladder (its size-cap failure
    /// is a configuration contract, not a numerical breakdown).
    /// When a plan schedules [`FaultKind::PcgStagnation`], the built
    /// handle is wrapped so solves consult the plan.
    fn build_with_degradation(
        &mut self,
        graph: &Graph,
    ) -> Result<Arc<dyn SolverHandle>, LinalgError> {
        let injected = self
            .faults
            .as_ref()
            .is_some_and(|p| p.should_fire(FaultKind::PrecondBreakdown));
        let primary = if injected {
            Err(FaultPlan::error_for(FaultKind::PrecondBreakdown))
        } else {
            self.policy.build_handle(graph)
        };
        let built = match primary {
            Ok(h) => Ok(h),
            Err(err) => {
                let mut recovered = Err(err);
                for &method in downgrade_ladder(self.policy.method) {
                    let fallback = self.policy.clone().with_method(method);
                    if let Ok(h) = fallback.build_handle(graph) {
                        self.stats.precond_downgrades += 1;
                        sgl_trace::count("solver.precond_downgrades", 1);
                        sgl_trace::trace_event!("precond_downgrade", label = method.name());
                        recovered = Ok(h);
                        break;
                    }
                }
                recovered
            }
        }?;
        Ok(match &self.faults {
            Some(plan) if plan.plans(FaultKind::PcgStagnation) => Arc::new(FaultInjectedHandle {
                inner: built,
                plan: Arc::clone(plan),
            }),
            _ => built,
        })
    }

    /// Absorb a low-rank edge delta into the cached factorization
    /// instead of refactoring: call **after** mutating the graph, with
    /// the post-mutation graph and the batch of weight changes just
    /// applied (insertions at `+w`, reweights at `w' − w`). The next
    /// [`handle_for`](SolverContext::handle_for) then serves a corrected
    /// handle — the cached base plus a [`WoodburyUpdate`] over the
    /// accumulated delta edges — that still solves to the policy's
    /// `rtol` against the *updated* operator.
    ///
    /// Falls back to scheduling a full refactorization (exactly the
    /// [`invalidate`](SolverContext::invalidate) behavior) whenever the
    /// incremental path is off (`max_delta_rank == 0`), nothing usable
    /// is cached, the accumulated rank would exceed the cap, a refresh
    /// was already pending, or the correction breaks down numerically
    /// (including a failed base solve) — the fallback is always
    /// available, so this never fails.
    pub fn apply_deltas(&mut self, graph: &Graph, deltas: &[EdgeDelta]) {
        let _sp = sgl_trace::span!("delta_update", count = deltas.len());
        if deltas.is_empty() {
            if self.revision != 0 && graph.revision() != self.revision {
                // The graph moved but the caller reported no delta:
                // nothing to absorb, refactor.
                self.stale = true;
            }
            return;
        }
        if self.handle.is_none()
            || self.stale
            || self.revision == 0
            || self.policy.max_delta_rank == 0
        {
            self.stale = true;
            return;
        }
        if self.iter_flagged() {
            self.stats.refreshes_on_iters += 1;
            note_refresh("iters");
            // Drop the flagged state so the refresh is counted once
            // (handle_for would otherwise see the flag again).
            self.delta = None;
            self.stale = true;
            return;
        }
        let base = Arc::clone(self.base.as_ref().expect("cached handle implies base"));
        let n = base.num_nodes();
        for d in deltas {
            if d.u >= n || d.v >= n || d.u == d.v || !d.dweight.is_finite() {
                self.stale = true;
                self.stats.refreshes_on_numeric += 1;
                note_refresh("numeric");
                return;
            }
        }

        // Merge the batch into the accumulated delta set.
        let mut state = self.delta.take().unwrap_or_else(DeltaState::fresh);
        let mut new_edges: Vec<(usize, usize)> = Vec::new();
        let new_rank_added;
        {
            let mut merged: HashMap<(usize, usize), f64> = HashMap::new();
            for d in deltas {
                let key = (d.u.min(d.v), d.u.max(d.v));
                *merged.entry(key).or_insert(0.0) += d.dweight;
            }
            // Deterministic order: sort the new keys.
            let mut keys: Vec<_> = merged.keys().copied().collect();
            keys.sort_unstable();
            for key in keys {
                let dw = merged[&key];
                match state.index.get(&key) {
                    Some(&i) => state.weights[i] += dw,
                    None => new_edges.push(key),
                }
            }
            new_rank_added = new_edges.len();
            let rank_after = state.rank() + new_edges.len();
            if rank_after > self.policy.max_delta_rank {
                self.stats.refreshes_on_rank += 1;
                note_refresh("rank");
                self.stale = true;
                return;
            }
            // In Woodbury mode (direct base, no standalone
            // preconditioner) every new incidence column needs its base
            // solution, fetched in one batched call through the *base*
            // factorization. In stale-preconditioner mode the setup is
            // reused as-is and no extra solves are paid at all.
            if !new_edges.is_empty() {
                let zs = if base.stale_preconditioner().is_some() {
                    vec![Vec::new(); new_edges.len()]
                } else {
                    let rhs: Vec<Vec<f64>> = new_edges
                        .iter()
                        .map(|&(u, v)| {
                            let mut b = vec![0.0; n];
                            b[u] = 1.0;
                            b[v] = -1.0;
                            b
                        })
                        .collect();
                    match base.solve_batch(&rhs) {
                        Ok(zs) => zs,
                        Err(_) => {
                            self.stats.refreshes_on_numeric += 1;
                            note_refresh("numeric");
                            self.stale = true;
                            return;
                        }
                    }
                };
                for (&(u, v), mut z) in new_edges.iter().zip(zs) {
                    if state.base_scale != 1.0 {
                        let inv = 1.0 / state.base_scale;
                        for x in &mut z {
                            *x *= inv;
                        }
                    }
                    state.index.insert((u, v), state.edges.len());
                    state.edges.push((u, v));
                    state.weights.push(merged[&(u, v)]);
                    state.z_rows.push(z);
                }
            }
        }
        // Drop deltas whose merged weight vanished (a perfect undo):
        // they would make W⁻¹ singular while contributing nothing.
        if state.weights.iter().any(|w| w.abs() < 1e-300) {
            let mut kept = DeltaState::fresh();
            kept.base_scale = state.base_scale;
            kept.needs_refresh = Arc::clone(&state.needs_refresh);
            kept.baseline_iters = Arc::clone(&state.baseline_iters);
            for i in 0..state.edges.len() {
                if state.weights[i].abs() >= 1e-300 {
                    kept.index.insert(state.edges[i], kept.edges.len());
                    kept.edges.push(state.edges[i]);
                    kept.weights.push(state.weights[i]);
                    kept.z_rows.push(std::mem::take(&mut state.z_rows[i]));
                }
            }
            state = kept;
        }

        // Maintain the updated-operator CSR incrementally; a pattern
        // miss (genuinely new edge) rebuilds it from the graph. Retire
        // the outgoing wrapper first — it shares this Arc, and dropping
        // it makes the in-place patch genuinely in place instead of a
        // copy-on-write of the whole matrix.
        self.retire_wrapper();
        let lap = match self.lap.take() {
            Some(mut lap) => {
                if apply_laplacian_deltas(Arc::make_mut(&mut lap), deltas) {
                    lap
                } else {
                    Arc::new(laplacian_csr(graph))
                }
            }
            None => Arc::new(laplacian_csr(graph)),
        };

        let correction = match self.correction_for(&base, &state) {
            Some(c) => c,
            None => {
                self.stats.refreshes_on_numeric += 1;
                note_refresh("numeric");
                self.stale = true;
                return;
            }
        };
        self.stats.delta_rank_applied += new_rank_added;
        sgl_trace::count("solver.delta_updates", 1);
        sgl_trace::count("solver.delta_rank_applied", new_rank_added as u64);
        self.finish_wrap(graph, state, lap, correction);
    }

    /// Pick the correction mode for the accumulated delta state:
    /// nothing at rank 0 (pure rescale / perfect cancellation), the
    /// base's own stale preconditioner for iterative bases (their setup
    /// keeps working on the updated operator, zero extra cost), or a
    /// Woodbury-corrected base solve for direct bases. `None` = the
    /// correction broke down numerically; refactor.
    fn correction_for(
        &self,
        base: &Arc<dyn SolverHandle>,
        state: &DeltaState,
    ) -> Option<Correction> {
        if state.rank() == 0 {
            return Some(Correction::Exact);
        }
        if let Some(precond) = base.stale_preconditioner() {
            return Some(Correction::StalePrecond(precond));
        }
        // Injected capacitance singularity: pretend the update broke
        // down so the refreshes_on_numeric recovery path runs.
        if self
            .faults
            .as_ref()
            .is_some_and(|p| p.should_fire(FaultKind::WoodburySingular))
        {
            return None;
        }
        match WoodburyUpdate::new(
            base.num_nodes(),
            state.edges.clone(),
            state.weights.clone(),
            &state.z_rows,
        ) {
            Ok(u) => Some(Correction::Woodbury(u)),
            Err(_) => None,
        }
    }

    /// Absorb a uniform weight rescale (`w_e ← factor · w_e` for every
    /// edge, Step 5 of Algorithm 1) into the cached factorization:
    /// `(c·L)⁺ = L⁺ / c`, so the corrected handle needs no new solves at
    /// all. Call **after** `Graph::scale_weights`, with the post-scale
    /// graph. Falls back to scheduling a refactorization exactly like
    /// [`apply_deltas`](SolverContext::apply_deltas) when nothing usable
    /// is cached or the incremental path is off.
    ///
    /// # Panics
    /// Panics if `factor` is not positive and finite (the same contract
    /// as `Graph::scale_weights`).
    pub fn apply_scale(&mut self, graph: &Graph, factor: f64) {
        let _sp = sgl_trace::span!("scale_update", value = factor);
        assert!(
            factor > 0.0 && factor.is_finite(),
            "scale factor must be positive and finite"
        );
        if self.handle.is_none()
            || self.stale
            || self.revision == 0
            || self.policy.max_delta_rank == 0
        {
            self.stale = true;
            return;
        }
        if self.iter_flagged() {
            self.stats.refreshes_on_iters += 1;
            note_refresh("iters");
            // Count the refresh once; handle_for must not see the flag
            // again.
            self.delta = None;
            self.stale = true;
            return;
        }
        let mut state = self.delta.take().unwrap_or_else(DeltaState::fresh);
        state.base_scale *= factor;
        // The accumulated delta edges were scaled along with the rest of
        // the graph; their base solutions shrink by the same factor.
        let inv = 1.0 / factor;
        for w in &mut state.weights {
            *w *= factor;
        }
        for z in &mut state.z_rows {
            for x in z.iter_mut() {
                *x *= inv;
            }
        }
        // As in `apply_deltas`: drop the outgoing wrapper before
        // mutating the shared CSR so the rescale stays in place.
        self.retire_wrapper();
        let lap = match self.lap.take() {
            Some(mut lap) => {
                Arc::make_mut(&mut lap).scale_values(factor);
                lap
            }
            None => Arc::new(laplacian_csr(graph)),
        };
        let base = Arc::clone(self.base.as_ref().expect("cached handle implies base"));
        let correction = match self.correction_for(&base, &state) {
            Some(c) => c,
            None => {
                self.stats.refreshes_on_numeric += 1;
                note_refresh("numeric");
                self.stale = true;
                return;
            }
        };
        self.finish_wrap(graph, state, lap, correction);
    }

    /// Retire the served wrapper's counters and drop it, keeping the
    /// base factorization (and its stats accounting) alive. No-op when
    /// the served handle *is* the base.
    fn retire_wrapper(&mut self) {
        if let Some(old) = self.handle.take() {
            match &self.base {
                Some(b) if Arc::ptr_eq(&old, b) => {}
                _ => self.retired_stats.absorb(&old.stats()),
            }
        }
    }

    /// Install the corrected wrapper for the (post-mutation) graph.
    fn finish_wrap(
        &mut self,
        graph: &Graph,
        state: DeltaState,
        lap: Arc<CsrMatrix>,
        correction: Correction,
    ) {
        let base = Arc::clone(self.base.as_ref().expect("cached handle implies base"));
        // Retire any wrapper still being served (callers usually already
        // did this before mutating the shared CSR).
        self.retire_wrapper();
        let exact = matches!(correction, Correction::Exact);
        let wrapper: Arc<dyn SolverHandle> = if exact && state.base_scale == 1.0 {
            // No correction left at all: the base itself is current.
            Arc::clone(&base)
        } else {
            Arc::new(RevisionedHandle {
                num_nodes: base.num_nodes(),
                base,
                correction,
                inv_scale: 1.0 / state.base_scale,
                op: Arc::clone(&lap),
                rtol: self.policy.rtol,
                max_iter: self.policy.max_iter,
                parallelism: self.policy.parallelism,
                baseline_iters: Arc::clone(&state.baseline_iters),
                needs_refresh: Arc::clone(&state.needs_refresh),
                stats: StatCell::default(),
            })
        };
        self.stats.delta_updates += 1;
        self.handle = Some(wrapper);
        self.delta = Some(state);
        self.lap = Some(lap);
        self.revision = graph.revision();
        #[cfg(debug_assertions)]
        {
            self.fingerprint = graph_fingerprint(graph);
        }
    }

    /// The cached handle, if any (no build is triggered).
    pub fn current_handle(&self) -> Option<&Arc<dyn SolverHandle>> {
        self.handle.as_ref()
    }

    /// A clone of the cached handle's `Arc`, if any — shared, read-only
    /// access for concurrent readers (handles are `Send + Sync`). The
    /// clone keeps serving the revision it was built for even after the
    /// context absorbs further deltas: in-place operator patches
    /// copy-on-write when a reader still holds the operator, so a
    /// published handle never changes under its holder.
    pub fn shared_handle(&self) -> Option<Arc<dyn SolverHandle>> {
        self.handle.clone()
    }

    /// How many handles this context has built from scratch — the
    /// observable cost of the reuse policy (and the witness that a
    /// solver-free pipeline never built one). Incremental revisions
    /// absorbed by [`apply_deltas`](SolverContext::apply_deltas) do
    /// **not** count; see
    /// [`revision_stats`](SolverContext::revision_stats) for the full
    /// breakdown.
    pub fn handles_built(&self) -> usize {
        self.stats.handles_built
    }

    /// Accumulated delta rank currently riding on the cached base
    /// factorization (0 when the base is exact for the served
    /// revision).
    pub fn delta_rank(&self) -> usize {
        self.delta.as_ref().map_or(0, DeltaState::rank)
    }

    /// Lifetime revision counters: full builds, incremental updates,
    /// and what forced each refresh.
    pub fn revision_stats(&self) -> RevisionStats {
        self.stats
    }

    /// Lifetime solve statistics: every retired revision's counters plus
    /// the current handles' (zeros if no handle was ever built). While a
    /// corrected wrapper is active this includes the base
    /// factorization's preconditioner solves — the true total work.
    pub fn cumulative_stats(&self) -> SolveStats {
        let mut total = self.retired_stats;
        match (&self.handle, &self.base) {
            (Some(h), Some(b)) => {
                total.absorb(&h.stats());
                if !Arc::ptr_eq(h, b) {
                    total.absorb(&b.stats());
                }
            }
            (Some(h), None) => total.absorb(&h.stats()),
            (None, Some(b)) => total.absorb(&b.stats()),
            (None, None) => {}
        }
        total
    }
}

/// The degradation ladder: which methods to fall back to, in order,
/// when a build breaks down. Strictly toward cheaper, more robust
/// setups — Jacobi cannot break down on a connected Laplacian. Dense
/// Cholesky is excluded on purpose: its failure mode is the
/// `dense_max_nodes` configuration cap, which must surface, not
/// degrade.
fn downgrade_ladder(method: PolicyMethod) -> &'static [PolicyMethod] {
    match method {
        PolicyMethod::Auto | PolicyMethod::AmgPcg => {
            &[PolicyMethod::TreePcg, PolicyMethod::JacobiPcg]
        }
        PolicyMethod::TreePcg | PolicyMethod::TreeDirect => &[PolicyMethod::JacobiPcg],
        _ => &[],
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

impl SolverHandle for FaultInjectedHandle {
    fn num_nodes(&self) -> usize {
        self.inner.num_nodes()
    }

    fn method_name(&self) -> &'static str {
        self.inner.method_name()
    }

    fn solve(&self, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
        if self.plan.should_fire(FaultKind::PcgStagnation) {
            return Err(FaultPlan::error_for(FaultKind::PcgStagnation));
        }
        self.inner.solve(b)
    }

    fn solve_batch(&self, rhs: &[Vec<f64>]) -> Result<Vec<Vec<f64>>, LinalgError> {
        if self.plan.should_fire(FaultKind::PcgStagnation) {
            return Err(FaultPlan::error_for(FaultKind::PcgStagnation));
        }
        self.inner.solve_batch(rhs)
    }

    fn stats(&self) -> SolveStats {
        self.inner.stats()
    }

    fn stale_preconditioner(&self) -> Option<Arc<dyn Preconditioner + Send + Sync>> {
        self.inner.stale_preconditioner()
    }
}

// ---------------------------------------------------------------------------
// RevisionedHandle: the corrected wrapper served between refactorizations.
// ---------------------------------------------------------------------------

/// How a [`RevisionedHandle`] bridges the gap between the stale base
/// factorization and the current operator.
enum Correction {
    /// No gap beyond a uniform rescale: `(c·L)⁺ b = L⁺ b / c`, exact,
    /// no outer iteration at all.
    Exact,
    /// Iterative base: its prepared preconditioner (tree / AMG V-cycle /
    /// Jacobi) still preconditions the *updated* operator
    /// well — run PCG against the new Laplacian with the stale setup.
    /// Zero preparation cost per revision.
    StalePrecond(Arc<dyn Preconditioner + Send + Sync>),
    /// Direct base (exact tree solve, dense Cholesky): the
    /// Woodbury-corrected base solve is a near-exact inverse of the
    /// updated operator, so the outer PCG settles in a couple of
    /// iterations. Costs one batched base solve per new delta edge at
    /// preparation.
    Woodbury(WoodburyUpdate),
}

/// A [`SolverHandle`] for graph revision `L' = c·(L₀ + B W Bᵀ)` served
/// without refactoring (see [`Correction`] for the modes): every solve
/// runs against the *true* updated operator, so results still meet the
/// policy `rtol` on the current graph.
struct RevisionedHandle {
    base: Arc<dyn SolverHandle>,
    correction: Correction,
    /// `1 / c` for the accumulated uniform rescale `c`.
    inv_scale: f64,
    /// The updated operator (current revision's Laplacian).
    op: Arc<CsrMatrix>,
    rtol: f64,
    max_iter: usize,
    parallelism: usize,
    baseline_iters: Arc<AtomicUsize>,
    needs_refresh: Arc<AtomicBool>,
    stats: StatCell,
    num_nodes: usize,
}

impl RevisionedHandle {
    /// Woodbury-mode preconditioner application: `M⁻¹ r = (1/c) ·
    /// correct(base_solve(r))` — a near-exact inverse of the updated
    /// operator. Base-solve failures land in `error` (the PCG keeps its
    /// infallible signature by seeing zeros) and surface after the
    /// solve.
    fn precondition_via_base(
        &self,
        update: &WoodburyUpdate,
        r: &[f64],
        z: &mut [f64],
        error: &RefCell<Option<LinalgError>>,
    ) {
        if error.borrow().is_some() {
            z.fill(0.0);
            return;
        }
        match self.base.solve(r) {
            Ok(mut y) => {
                update.correct(&mut y);
                if self.inv_scale != 1.0 {
                    for x in &mut y {
                        *x *= self.inv_scale;
                    }
                }
                z.copy_from_slice(&y);
                vecops::project_out_mean(z);
            }
            Err(e) => {
                *error.borrow_mut() = Some(e);
                z.fill(0.0);
            }
        }
    }

    /// Refresh policy: the first corrected solve after a build sets the
    /// baseline; later solves exceeding [`REFRESH_ITER_FACTOR`] ×
    /// baseline flag the context for a refactorization.
    ///
    /// Called only from the serial accounting paths (`solve`, and
    /// `solve_batch` *after* the join, in RHS order) — never from inside
    /// the parallel region — so the baseline and the refresh decision
    /// are identical at every thread count.
    fn watch_iterations(&self, iterations: usize) {
        if matches!(self.correction, Correction::Exact) {
            return;
        }
        let iters = iterations.max(1);
        let baseline = self.baseline_iters.load(Ordering::Relaxed);
        if baseline == 0 {
            self.baseline_iters.store(iters, Ordering::Relaxed);
        } else if iters as f64 > REFRESH_ITER_FACTOR * baseline as f64 {
            self.needs_refresh.store(true, Ordering::Relaxed);
        }
    }

    fn solve_into(
        &self,
        b: &[f64],
        x: &mut [f64],
        ws: &mut CgWorkspace,
    ) -> Result<(usize, f64), LinalgError> {
        if b.len() != self.num_nodes {
            return Err(LinalgError::DimensionMismatch {
                context: "laplacian solve rhs",
                expected: self.num_nodes,
                actual: b.len(),
            });
        }
        let opts = CgOptions {
            rtol: self.rtol,
            max_iter: self.max_iter,
            project_mean: true,
            project_apply_input: true,
            ..CgOptions::default()
        };
        match &self.correction {
            Correction::Exact => {
                // Pure rescale: exact, no outer iteration.
                let y = self.base.solve(b)?;
                for (xi, yi) in x.iter_mut().zip(&y) {
                    *xi = yi * self.inv_scale;
                }
                Ok((0, self.base.stats().last_relative_residual))
            }
            Correction::StalePrecond(precond) => {
                // The base's own setup preconditions the updated
                // operator (PCG is invariant to preconditioner scaling,
                // so the rescale needs no adjustment here).
                let st = pcg_solve_with(self.op.as_ref(), &precond.as_ref(), b, &opts, ws, x)?;
                vecops::project_out_mean(x);
                Ok((st.iterations, st.relative_residual))
            }
            Correction::Woodbury(update) => {
                let error: RefCell<Option<LinalgError>> = RefCell::new(None);
                let precond = FnPrecond(|r: &[f64], z: &mut [f64]| {
                    self.precondition_via_base(update, r, z, &error)
                });
                let st = pcg_solve_with(self.op.as_ref(), &precond, b, &opts, ws, x);
                if let Some(e) = error.borrow_mut().take() {
                    return Err(e);
                }
                let st = st?;
                vecops::project_out_mean(x);
                Ok((st.iterations, st.relative_residual))
            }
        }
    }

    /// Whether this wrapper adds its own solve on top of the base's
    /// (`Exact` solves delegate 1:1 to the base, which already records
    /// them — recording here too would double-count).
    fn records_own_stats(&self) -> bool {
        !matches!(self.correction, Correction::Exact)
    }
}

/// Closure adapter for the [`Preconditioner`] trait.
struct FnPrecond<F: Fn(&[f64], &mut [f64])>(F);

impl<F: Fn(&[f64], &mut [f64])> Preconditioner for FnPrecond<F> {
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        (self.0)(r, z)
    }
}

impl SolverHandle for RevisionedHandle {
    fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    fn method_name(&self) -> &'static str {
        match &self.correction {
            Correction::Exact => "revision-scaled",
            Correction::StalePrecond(_) => "revision-stale-precond",
            Correction::Woodbury(_) => "revision-woodbury",
        }
    }

    fn solve(&self, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
        let mut x = vec![0.0; self.num_nodes];
        let (iters, residual) = self.solve_into(b, &mut x, &mut CgWorkspace::new())?;
        self.watch_iterations(iters);
        if self.records_own_stats() {
            self.stats.record(1, iters, residual);
        }
        Ok(x)
    }

    fn solve_batch(&self, rhs: &[Vec<f64>]) -> Result<Vec<Vec<f64>>, LinalgError> {
        if self.records_own_stats() {
            self.stats.record_batch();
        }
        let n = self.num_nodes;
        // Same fan-out contract as the policy-built handles: independent
        // per-RHS solves over per-worker scratch, results and stats in
        // RHS order (bit-identical at any thread count).
        let solved: Vec<(Vec<f64>, (usize, f64))> =
            par::with_threads_hint(self.parallelism, || {
                par::try_map_chunked(rhs.len(), 1, |range| {
                    let mut ws = CgWorkspace::new();
                    range
                        .map(|i| {
                            let mut x = vec![0.0; n];
                            let st = self.solve_into(&rhs[i], &mut x, &mut ws)?;
                            Ok((x, st))
                        })
                        .collect()
                })
            })?;
        // Post-join, in RHS order: both the stat counters and the
        // refresh decision are independent of thread scheduling.
        let mut out = Vec::with_capacity(solved.len());
        for (x, (iters, residual)) in solved {
            self.watch_iterations(iters);
            if self.records_own_stats() {
                self.stats.record(1, iters, residual);
            }
            out.push(x);
        }
        Ok(out)
    }

    fn stats(&self) -> SolveStats {
        self.stats.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::PolicyMethod;
    use sgl_datasets::grid2d;
    use sgl_linalg::Rng;

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
    /// factorization of the same graph.
    fn assert_matches_fresh(ctx: &mut SolverContext, g: &Graph, seed: u64, tol: f64) {
        let n = g.num_nodes();
        let b = mean_zero_rhs(n, seed);
        let x = ctx.handle_for(g).unwrap().solve(&b).unwrap();
        let fresh = SolverPolicy::default().build_handle(g).unwrap();
        let y = fresh.solve(&b).unwrap();
        let d = vecops::sub(&x, &y);
        assert!(
            vecops::norm2(&d) / vecops::norm2(&y).max(1e-300) < tol,
            "corrected solve drifted from fresh factorization: {}",
            vecops::norm2(&d)
        );
    }

    #[test]
    fn apply_deltas_solves_like_a_fresh_factorization() {
        let mut g = grid2d(6, 6);
        let mut ctx = SolverContext::new(SolverPolicy::default());
        ctx.handle_for(&g).unwrap();
        // Insert three chords and bump an existing edge.
        let mut deltas = Vec::new();
        for &(u, v, w) in &[(0usize, 14usize, 0.8), (3, 27, 1.3), (10, 35, 0.5)] {
            g.add_edge(u, v, w);
            deltas.push(EdgeDelta::insert(u, v, w));
        }
        let e0 = g.edge(0);
        g.set_weight(0, e0.weight * 2.0);
        deltas.push(EdgeDelta::reweight(e0.u, e0.v, e0.weight, e0.weight * 2.0));
        ctx.apply_deltas(&g, &deltas);
        assert_eq!(ctx.handles_built(), 1, "delta batch must not refactor");
        assert_eq!(ctx.delta_rank(), 4);
        let h = ctx.handle_for(&g).unwrap();
        // Auto on a mesh resolves to AMG-PCG: the revision reuses its
        // stale V-cycle as the preconditioner, no extra solves at all.
        assert_eq!(h.method_name(), "revision-stale-precond");
        assert_eq!(ctx.handles_built(), 1);
        assert_matches_fresh(&mut ctx, &g, 1, 1e-8);
        let st = ctx.revision_stats();
        assert_eq!(st.delta_updates, 1);
        assert_eq!(st.delta_rank_applied, 4);
    }

    #[test]
    fn stacked_delta_batches_keep_matching() {
        let mut g = grid2d(6, 6);
        let mut ctx = SolverContext::new(SolverPolicy::default());
        ctx.handle_for(&g).unwrap();
        let mut rng = Rng::seed_from_u64(42);
        for round in 0..4 {
            let mut deltas = Vec::new();
            for _ in 0..3 {
                let u = rng.below(36);
                let v = rng.below(36);
                if u == v {
                    continue;
                }
                let w = 0.3 + rng.uniform();
                g.add_edge(u, v, w);
                deltas.push(EdgeDelta::insert(u, v, w));
            }
            ctx.apply_deltas(&g, &deltas);
            assert_matches_fresh(&mut ctx, &g, 100 + round, 1e-8);
        }
        assert_eq!(ctx.handles_built(), 1, "all four batches absorbed");
        assert!(ctx.revision_stats().delta_updates >= 4);
    }

    #[test]
    fn rank_cap_forces_refactor() {
        let mut g = grid2d(6, 6);
        let policy = SolverPolicy::default().with_max_delta_rank(2);
        let mut ctx = SolverContext::new(policy);
        ctx.handle_for(&g).unwrap();
        g.add_edge(0, 8, 1.0);
        g.add_edge(1, 9, 1.0);
        ctx.apply_deltas(
            &g,
            &[EdgeDelta::insert(0, 8, 1.0), EdgeDelta::insert(1, 9, 1.0)],
        );
        ctx.handle_for(&g).unwrap();
        assert_eq!(ctx.handles_built(), 1);
        // One more distinct edge exceeds the cap of 2: full refactor.
        g.add_edge(2, 10, 1.0);
        ctx.apply_deltas(&g, &[EdgeDelta::insert(2, 10, 1.0)]);
        ctx.handle_for(&g).unwrap();
        assert_eq!(ctx.handles_built(), 2);
        assert_eq!(ctx.revision_stats().refreshes_on_rank, 1);
        assert_eq!(ctx.delta_rank(), 0, "refresh clears the delta state");
        assert_matches_fresh(&mut ctx, &g, 7, 1e-8);
    }

    #[test]
    fn zero_cap_disables_the_incremental_path() {
        let mut g = grid2d(5, 5);
        let mut ctx = SolverContext::new(SolverPolicy::default().with_max_delta_rank(0));
        ctx.handle_for(&g).unwrap();
        g.add_edge(0, 7, 1.0);
        ctx.apply_deltas(&g, &[EdgeDelta::insert(0, 7, 1.0)]);
        ctx.handle_for(&g).unwrap();
        assert_eq!(ctx.handles_built(), 2, "cap 0 must always refactor");
        assert_eq!(ctx.revision_stats().delta_updates, 0);
    }

    #[test]
    fn apply_scale_is_exact_and_free() {
        let mut g = grid2d(5, 5);
        let mut ctx = SolverContext::new(SolverPolicy::default());
        let before = ctx.handle_for(&g).unwrap();
        let b = mean_zero_rhs(25, 3);
        let x0 = before.solve(&b).unwrap();
        g.scale_weights(4.0);
        ctx.apply_scale(&g, 4.0);
        let after = ctx.handle_for(&g).unwrap();
        assert_eq!(ctx.handles_built(), 1, "rescale must not refactor");
        assert_eq!(after.method_name(), "revision-scaled");
        let x1 = after.solve(&b).unwrap();
        for (a, b) in x0.iter().zip(&x1) {
            assert!((a / 4.0 - b).abs() < 1e-12, "{a} vs {b}");
        }
        assert_matches_fresh(&mut ctx, &g, 4, 1e-8);
    }

    #[test]
    fn deltas_then_scale_compose() {
        let mut g = grid2d(6, 6);
        let mut ctx = SolverContext::new(SolverPolicy::default());
        ctx.handle_for(&g).unwrap();
        g.add_edge(0, 14, 0.7);
        ctx.apply_deltas(&g, &[EdgeDelta::insert(0, 14, 0.7)]);
        g.scale_weights(2.5);
        ctx.apply_scale(&g, 2.5);
        assert_eq!(ctx.handles_built(), 1);
        assert_matches_fresh(&mut ctx, &g, 5, 1e-8);
        // And a delta on top of the scale still composes.
        g.add_edge(2, 20, 1.1);
        ctx.apply_deltas(&g, &[EdgeDelta::insert(2, 20, 1.1)]);
        assert_eq!(ctx.handles_built(), 1);
        assert_matches_fresh(&mut ctx, &g, 6, 1e-8);
    }

    #[test]
    fn deltas_without_a_cached_handle_fall_back_to_stale() {
        let mut g = grid2d(5, 5);
        let mut ctx = SolverContext::new(SolverPolicy::default());
        // No handle yet: apply_deltas is a no-op schedule.
        g.add_edge(0, 7, 1.0);
        ctx.apply_deltas(&g, &[EdgeDelta::insert(0, 7, 1.0)]);
        ctx.handle_for(&g).unwrap();
        assert_eq!(ctx.handles_built(), 1);
        assert_eq!(ctx.revision_stats().delta_updates, 0);
    }

    #[test]
    fn unreported_mutation_with_empty_delta_refactors() {
        let mut g = grid2d(5, 5);
        let mut ctx = SolverContext::new(SolverPolicy::default());
        ctx.handle_for(&g).unwrap();
        g.add_edge(0, 7, 1.0);
        // Caller reports "no delta" for a moved graph: the context must
        // not pretend the cached handle still matches.
        ctx.apply_deltas(&g, &[]);
        ctx.handle_for(&g).unwrap();
        assert_eq!(ctx.handles_built(), 2);
    }

    #[test]
    fn delta_equivalence_across_every_backend_method() {
        for method in [
            PolicyMethod::TreePcg,
            PolicyMethod::AmgPcg,
            PolicyMethod::JacobiPcg,
            PolicyMethod::DenseCholesky,
        ] {
            let mut g = grid2d(6, 6);
            let mut ctx = SolverContext::new(SolverPolicy::default().with_method(method));
            ctx.handle_for(&g).unwrap();
            g.add_edge(0, 13, 0.9);
            g.add_edge(7, 29, 1.4);
            ctx.apply_deltas(
                &g,
                &[EdgeDelta::insert(0, 13, 0.9), EdgeDelta::insert(7, 29, 1.4)],
            );
            assert_eq!(ctx.handles_built(), 1, "{method:?}");
            assert_matches_fresh(&mut ctx, &g, 11, 1e-7);
        }
    }

    #[test]
    fn injected_breakdown_walks_the_downgrade_ladder() {
        let g = grid2d(5, 5);
        let mut ctx = SolverContext::new(SolverPolicy::default().with_method(PolicyMethod::AmgPcg));
        let plan = Arc::new(FaultPlan::new().with_fault(FaultKind::PrecondBreakdown, 0));
        ctx.set_fault_plan(Arc::clone(&plan));
        let h = ctx.handle_for(&g).unwrap();
        assert_eq!(h.method_name(), "tree-pcg", "first rung of the ladder");
        assert_eq!(ctx.revision_stats().precond_downgrades, 1);
        assert_eq!(plan.injected_count(), 1);
        // The downgraded handle still solves to policy tolerance.
        assert_matches_fresh(&mut ctx, &g, 21, 1e-8);
        // The next rebuild is past the trigger: back to the primary.
        ctx.invalidate();
        let h2 = ctx.handle_for(&g).unwrap();
        assert_eq!(h2.method_name(), "amg-pcg");
        assert_eq!(ctx.revision_stats().precond_downgrades, 1);
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

    #[test]
    fn injected_woodbury_singularity_forces_refresh() {
        let n = 20;
        let mut g = Graph::from_edges(n, (0..n - 1).map(|i| (i, i + 1, 1.0)));
        let mut ctx =
            SolverContext::new(SolverPolicy::default().with_method(PolicyMethod::TreeDirect));
        let plan = Arc::new(FaultPlan::new().with_fault(FaultKind::WoodburySingular, 0));
        ctx.set_fault_plan(Arc::clone(&plan));
        ctx.handle_for(&g).unwrap();
        g.add_edge(0, 10, 0.5);
        ctx.apply_deltas(&g, &[EdgeDelta::insert(0, 10, 0.5)]);
        assert_eq!(plan.injected_count(), 1);
        assert_eq!(ctx.revision_stats().refreshes_on_numeric, 1);
        // Recovery: the next handle is a clean refactorization.
        ctx.handle_for(&g).unwrap();
        assert_eq!(ctx.handles_built(), 2);
        assert_matches_fresh(&mut ctx, &g, 22, 1e-8);
    }

    #[test]
    fn woodbury_singularity_in_apply_scale_is_traced_as_a_refresh() {
        // The rescale's correction breaks down (second Woodbury
        // opportunity): the refresh must reach the `solver.refreshes`
        // counter and the `handle_refresh` event like every other one.
        let _guard = sgl_trace::test_guard();
        let n = 20;
        let mut g = Graph::from_edges(n, (0..n - 1).map(|i| (i, i + 1, 1.0)));
        let mut ctx =
            SolverContext::new(SolverPolicy::default().with_method(PolicyMethod::TreeDirect));
        let plan = Arc::new(FaultPlan::new().with_fault(FaultKind::WoodburySingular, 1));
        ctx.set_fault_plan(Arc::clone(&plan));
        ctx.handle_for(&g).unwrap();
        g.add_edge(0, 10, 0.5);
        ctx.apply_deltas(&g, &[EdgeDelta::insert(0, 10, 0.5)]);
        assert_eq!(plan.injected_count(), 0);
        g.scale_weights(2.0);
        sgl_trace::clear();
        sgl_trace::enable();
        let before = sgl_trace::counter("solver.refreshes").get();
        ctx.apply_scale(&g, 2.0);
        let refreshes = sgl_trace::counter("solver.refreshes").get() - before;
        let events = sgl_trace::take_events();
        sgl_trace::disable();
        assert_eq!(plan.injected_count(), 1);
        assert_eq!(ctx.revision_stats().refreshes_on_numeric, 1);
        assert_eq!(refreshes, 1, "the numeric refresh escaped the counter");
        assert!(events.iter().any(
            |e| e.name == "handle_refresh" && e.payload == sgl_trace::Payload::Label("numeric")
        ));
        ctx.handle_for(&g).unwrap();
        assert_eq!(ctx.handles_built(), 2);
        assert_matches_fresh(&mut ctx, &g, 23, 1e-8);
    }

    #[test]
    fn tree_base_with_off_tree_deltas_is_the_classic_case() {
        // Exact O(N) tree solve + Woodbury over the off-tree chords: the
        // corrected preconditioner is an exact inverse, so the outer PCG
        // settles in a couple of iterations.
        let n = 30;
        let mut g = Graph::from_edges(n, (0..n - 1).map(|i| (i, i + 1, 1.0 + 0.1 * i as f64)));
        let mut ctx =
            SolverContext::new(SolverPolicy::default().with_method(PolicyMethod::TreeDirect));
        ctx.handle_for(&g).unwrap();
        g.add_edge(0, 15, 0.5);
        g.add_edge(7, 22, 1.0);
        ctx.apply_deltas(
            &g,
            &[EdgeDelta::insert(0, 15, 0.5), EdgeDelta::insert(7, 22, 1.0)],
        );
        let h = ctx.handle_for(&g).unwrap();
        let b = mean_zero_rhs(n, 9);
        h.solve(&b).unwrap();
        assert_eq!(ctx.handles_built(), 1);
        assert!(
            h.stats().iterations <= 4,
            "near-exact preconditioner should converge almost immediately, took {}",
            h.stats().iterations
        );
        assert_matches_fresh(&mut ctx, &g, 10, 1e-8);
    }
}
