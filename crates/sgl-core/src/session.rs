//! The staged SGL pipeline: [`SglSession`].
//!
//! [`Sgl::learn`](crate::Sgl::learn) runs Algorithm 1 in one shot; a
//! session exposes the same loop one iteration at a time, with three
//! extra powers the monolithic entry point cannot offer:
//!
//! * **A dense reference embedding** —
//!   [`SglSession::with_dense_embedding`] pins Step 2 to an exact dense
//!   eigendecomposition, the small-graph reference the iterative
//!   embedders are tested against. Otherwise Step 2 follows the config's
//!   [`LearnStrategyKind`] ([`Embedder::for_config`]).
//! * **Observers** — callbacks fire on every [`IterationRecord`] as it is
//!   produced (progress bars, live plots, early telemetry) instead of
//!   waiting for the final trace.
//! * **Incremental measurements** — [`SglSession::extend_measurements`]
//!   folds a newly arrived batch into a *running* session: the kNN
//!   candidate pool is rebuilt over the richer data while the learned
//!   graph and the spectral embedding warm-start are kept.
//!
//! ```
//! use sgl_core::{IterationRecord, Measurements, SglConfig, SglSession, StepOutcome};
//!
//! let truth = sgl_datasets::grid2d(6, 6);
//! let meas = Measurements::generate(&truth, 15, 3)?;
//! let cfg = SglConfig::builder().tol(1e-6).build()?;
//! let mut session = SglSession::new(cfg, &meas)?;
//! session.observe(|rec: &IterationRecord| {
//!     println!("iter {}: smax {:.3e}", rec.iteration, rec.smax);
//! });
//! while !session.is_done() {
//!     session.step()?;
//! }
//! let result = session.finish()?;
//! assert!(result.graph.num_edges() >= truth.num_nodes() - 1);
//! # Ok::<(), sgl_core::SglError>(())
//! ```

use crate::algorithm::{IterationRecord, LearnResult, StepTimings, StopVerdict};
use crate::backend::Embedder;
use crate::config::SglConfig;
use crate::embedding::{Embedding, EmbeddingOptions};
use crate::error::SglError;
use crate::measure::Measurements;
use crate::resistance::ResistanceEstimator;
use crate::sensitivity::{Candidate, CandidatePool};
use crate::strategy::LearnStrategyKind;
use sgl_graph::mst::maximum_spanning_tree;
use sgl_graph::Graph;
use sgl_knn::build_knn_graph;
use sgl_linalg::par::with_threads_hint as with_session_threads;
use sgl_linalg::DenseMatrix;
use sgl_solver::{FaultPlan, SolverContext};
use std::borrow::Cow;
use std::sync::Arc;
use std::time::Instant;

/// What a single [`SglSession::step`] did.
#[derive(Debug, Clone, PartialEq)]
pub enum StepOutcome {
    /// Edges were added; the loop can continue.
    Progressed(IterationRecord),
    /// `s_max` fell below tolerance (or no candidate cleared it); the
    /// loop is done and converged.
    Converged(IterationRecord),
    /// The candidate pool ran dry before `s_max` fell below tolerance.
    /// `converged` reports whether the last observed `s_max` was already
    /// below tolerance.
    Exhausted {
        /// See variant docs.
        converged: bool,
    },
    /// The iteration cap was hit without convergence.
    CapReached,
    /// The loop had already halted; nothing was done.
    AlreadyDone,
}

/// Observer of a running session. Implemented for any
/// `FnMut(&IterationRecord)` closure; implement the trait directly when
/// you also want the finish notification.
///
/// Observers are `Send` so a session carrying them can be moved into a
/// writer thread; share results back through
/// `Arc<Mutex<…>>` or a channel sender rather than `Rc<RefCell<…>>`.
pub trait SessionObserver: Send {
    /// Called exactly once per trace record, as it is produced.
    fn on_iteration(&mut self, record: &IterationRecord);

    /// Called once when the session is finished into a [`LearnResult`].
    fn on_finish(&mut self, _result: &LearnResult) {}
}

impl<F: FnMut(&IterationRecord) + Send> SessionObserver for F {
    fn on_iteration(&mut self, record: &IterationRecord) {
        self(record)
    }
}

/// A stepwise SGL learning session (see the [module docs](self)).
///
/// Construct with [`SglSession::new`], optionally pin the dense reference
/// embedding with [`with_dense_embedding`](SglSession::with_dense_embedding),
/// then drive with [`step`](SglSession::step) / [`run`](SglSession::run)
/// and finish with [`finish`](SglSession::finish).
pub struct SglSession<'m> {
    config: SglConfig,
    /// Borrowed for one-shot runs; promoted to owned only when
    /// [`extend_measurements`](SglSession::extend_measurements) grows it.
    measurements: Cow<'m, Measurements>,
    knn_graph: Graph,
    graph: Graph,
    pool: CandidatePool,
    /// Lazily computed so the embedder can be pinned after construction.
    embedding: Option<Embedding>,
    trace: Vec<IterationRecord>,
    /// Steps taken since init or the last measurement extension (the
    /// `max_iterations` cap applies per epoch).
    epoch_iterations: usize,
    /// Trace length at the start of the current epoch; records before it
    /// were scored against a smaller measurement set.
    epoch_start: usize,
    /// Whether the candidate graph came from the kNN step (and may be
    /// rebuilt on extension) vs. a caller-provided domain graph.
    knn_candidates: bool,
    converged: bool,
    halted: bool,
    /// Which halt site ended the loop ([`StopVerdict::InProgress`] while
    /// running).
    verdict: StopVerdict,
    /// The session-owned solve layer: one policy-built handle per
    /// learned-graph revision, shared by every stage and invalidated on
    /// edge insertion.
    solver: SolverContext,
    /// Step 2: the config strategy's embedder, or the pinned dense one.
    embedder: Embedder,
    observers: Vec<Box<dyn SessionObserver>>,
    /// Consecutive solver failures across steps (reset on any success) —
    /// the degradation trigger for the strategy fallback.
    solver_failures: usize,
    /// Strategy fallbacks taken (Solver → SolverFree after repeated
    /// solver failures); surfaced in [`LearnResult::fallbacks_taken`].
    fallbacks_taken: usize,
}

impl std::fmt::Debug for SglSession<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SglSession")
            .field("nodes", &self.graph.num_nodes())
            .field("edges", &self.graph.num_edges())
            .field("pool", &self.pool.len())
            .field("iterations", &self.trace.len())
            .field("converged", &self.converged)
            .field("halted", &self.halted)
            .field("solver", &self.solver)
            .field("embedder", &self.embedder)
            .finish()
    }
}

/// Everything a checkpoint must persist to resume a session
/// bit-identically (see [`crate::checkpoint`]).
///
/// The embedder, observers, and solver handles are deliberately *not*
/// state: the embedder is rebuilt from the config's strategy on
/// restore, observers cannot survive a process boundary, and the
/// checkpoint acts as a solver **revision barrier** — the live session's
/// context is invalidated at save time, so both the continuing session
/// and a restored one rebuild the same fresh factorization at their next
/// solve.
pub(crate) struct SessionState {
    pub config: SglConfig,
    pub measurements: Measurements,
    pub knn_graph: Graph,
    pub graph: Graph,
    /// Remaining pool candidates, verbatim and in order —
    /// [`CandidatePool::select_top`] removes by `swap_remove`, so the
    /// order is history-dependent and must be replayed exactly.
    pub candidates: Vec<Candidate>,
    pub pool_measurements: usize,
    pub embedding: Option<Embedding>,
    pub trace: Vec<IterationRecord>,
    pub epoch_iterations: usize,
    pub epoch_start: usize,
    pub knn_candidates: bool,
    pub converged: bool,
    pub halted: bool,
    pub verdict: StopVerdict,
    pub solver_failures: usize,
    pub fallbacks_taken: usize,
}

impl<'m> SglSession<'m> {
    /// Initialize a session: validate, build the kNN candidate graph
    /// (Step 1) and its maximum spanning tree (Step 1b).
    ///
    /// # Errors
    /// Returns configuration/measurement validation errors.
    pub fn new(config: SglConfig, measurements: &'m Measurements) -> Result<Self, SglError> {
        Self::new_from_cow(config, Cow::Borrowed(measurements))
    }

    /// Like [`SglSession::new`], but taking ownership of the
    /// measurements, which unties the session from any borrow: the
    /// returned `SglSession<'static>` can be moved into another thread —
    /// the handoff a long-lived serving task (`sgl-serve`'s writer loop)
    /// needs, where the session must outlive the scope that created it.
    ///
    /// # Errors
    /// See [`SglSession::new`].
    pub fn from_owned(
        config: SglConfig,
        measurements: Measurements,
    ) -> Result<SglSession<'static>, SglError> {
        SglSession::new_from_cow(config, Cow::Owned(measurements))
    }

    fn new_from_cow(
        config: SglConfig,
        measurements: Cow<'m, Measurements>,
    ) -> Result<Self, SglError> {
        // Honor SGL_TRACE/SGL_LOG for any program that builds a session,
        // without requiring code changes at the call site.
        sgl_trace::init_from_env();
        config.validate()?;
        let n = measurements.num_nodes();
        if n < 4 {
            return Err(SglError::InvalidMeasurements(
                "need at least 4 nodes to learn a graph".into(),
            ));
        }
        let knn_graph = with_session_threads(config.parallelism, || {
            build_knn_graph(measurements.voltages(), config.k)
        });
        let mut session = Self::init(config, measurements, knn_graph)?;
        session.knn_candidates = true;
        Ok(session)
    }

    /// Initialize from a caller-provided candidate graph (must span all
    /// measurement nodes and be connected), replacing the kNN step with a
    /// domain-specific similarity graph.
    ///
    /// # Errors
    /// See [`SglSession::new`].
    pub fn with_candidate_graph(
        config: SglConfig,
        measurements: &'m Measurements,
        knn_graph: Graph,
    ) -> Result<Self, SglError> {
        Self::init(config, Cow::Borrowed(measurements), knn_graph)
    }

    fn init(
        config: SglConfig,
        measurements: Cow<'m, Measurements>,
        knn_graph: Graph,
    ) -> Result<Self, SglError> {
        sgl_trace::init_from_env();
        let _sp = sgl_trace::span!("init");
        config.validate()?;
        let n = measurements.num_nodes();
        if knn_graph.num_nodes() != n {
            return Err(SglError::InvalidGraph(format!(
                "candidate graph has {} nodes, measurements have {n}",
                knn_graph.num_nodes()
            )));
        }
        if !sgl_graph::traversal::is_connected(&knn_graph) {
            return Err(SglError::InvalidGraph(
                "candidate graph must be connected".into(),
            ));
        }
        let tree = maximum_spanning_tree(&knn_graph);
        let graph = tree.to_graph(&knn_graph);
        let pool = CandidatePool::from_off_tree(&knn_graph, &tree, &measurements);
        let solver = SolverContext::new(config.solver.clone());
        let embedder = Embedder::for_config(&config);
        Ok(SglSession {
            config,
            measurements,
            knn_graph,
            graph,
            pool,
            embedding: None,
            trace: Vec::new(),
            epoch_iterations: 0,
            epoch_start: 0,
            knn_candidates: false,
            converged: false,
            halted: false,
            verdict: StopVerdict::InProgress,
            solver,
            embedder,
            observers: Vec::new(),
            solver_failures: 0,
            fallbacks_taken: 0,
        })
    }

    /// Pin Step 2 to the exact dense eigendecomposition
    /// ([`Embedder::Dense`]), which refuses graphs above the solver
    /// policy's `dense_max_nodes`. Any cached embedding is discarded so
    /// the next step embeds densely (a mid-run switch loses the warm
    /// start but never mixes embedders).
    #[must_use]
    pub fn with_dense_embedding(mut self) -> Self {
        self.embedder = Embedder::Dense;
        self.embedding = None;
        self
    }

    /// Register an observer; every subsequently produced
    /// [`IterationRecord`] is delivered to it.
    pub fn observe(&mut self, observer: impl SessionObserver + 'static) {
        self.observers.push(Box::new(observer));
    }

    /// The configuration driving this session.
    pub fn config(&self) -> &SglConfig {
        &self.config
    }

    /// The (possibly extended) measurement set.
    pub fn measurements(&self) -> &Measurements {
        &self.measurements
    }

    /// The current candidate (kNN) graph.
    pub fn knn_graph(&self) -> &Graph {
        &self.knn_graph
    }

    /// The learned graph as it currently stands (unscaled).
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The trace so far.
    pub fn trace(&self) -> &[IterationRecord] {
        &self.trace
    }

    /// Remaining candidate count.
    pub fn candidates_remaining(&self) -> usize {
        self.pool.len()
    }

    /// The session-owned solver context: the policy in force, the cached
    /// handle (if any), and how many handles have been built so far.
    pub fn solver_context(&self) -> &SolverContext {
        &self.solver
    }

    /// Install a deterministic fault-injection schedule on the session's
    /// solver context (see [`FaultPlan`]): subsequent solves consult the
    /// plan for PCG stagnation, exercising the recovery paths —
    /// solver-state invalidation with step retry, and the Solver →
    /// SolverFree strategy fallback.
    pub fn set_fault_plan(&mut self, plan: Arc<FaultPlan>) {
        self.solver.set_fault_plan(plan);
    }

    /// Strategy fallbacks taken so far (Solver → SolverFree after
    /// repeated solver failures).
    pub fn fallbacks_taken(&self) -> usize {
        self.fallbacks_taken
    }

    /// The strategy's effective-resistance estimator for the *current*
    /// learned graph ([`LearnStrategyKind::resistance_estimator`]): the
    /// solver strategy serves [`ExactSolve`] on the session's shared
    /// solver handle; the solver-free strategy serves a
    /// [`SpectralSketch`] and never constructs a Laplacian solver here.
    ///
    /// The estimator snapshots the current revision — re-request it
    /// after further [`step`](SglSession::step)s.
    ///
    /// [`ExactSolve`]: crate::resistance::ExactSolve
    /// [`SpectralSketch`]: crate::resistance::SpectralSketch
    ///
    /// # Errors
    /// Propagates solver/eigensolver construction failures.
    pub fn resistance_estimator(&mut self) -> Result<Box<dyn ResistanceEstimator>, SglError> {
        with_session_threads(self.config.parallelism, || {
            self.config.strategy.resistance_estimator(
                &self.graph,
                &mut self.solver,
                self.config.seed,
            )
        })
    }

    /// Whether the densification loop has halted (converged, exhausted,
    /// or capped). [`finish`](SglSession::finish) is valid either way.
    pub fn is_done(&self) -> bool {
        self.halted
    }

    /// Whether the loop converged (`s_max` fell below `tol`).
    pub fn converged(&self) -> bool {
        self.converged
    }

    /// Why the loop halted ([`StopVerdict::InProgress`] while running).
    pub fn stop_verdict(&self) -> StopVerdict {
        self.verdict
    }

    /// The spectral embedding of the *current* learned graph, computing
    /// it if no step has cached one yet — the read-side half of handing a
    /// running session off into an immutable serving snapshot
    /// (`sgl-serve`), alongside [`solver_handle`](SglSession::solver_handle)
    /// and [`resistance_estimator`](SglSession::resistance_estimator).
    ///
    /// # Errors
    /// Propagates embedding/solver failures.
    pub fn current_embedding(&mut self) -> Result<&Embedding, SglError> {
        let parallelism = self.config.parallelism;
        with_session_threads(parallelism, || self.ensure_embedding().map(|_| ()))?;
        Ok(self.embedding.as_ref().expect("embedding just ensured"))
    }

    /// A shared, read-only solver handle for the current learned-graph
    /// revision, drawn from the session's context (built on demand). The
    /// `Arc` stays valid — and keeps serving the revision it was built
    /// for — even after the session steps on: a handle is immutable, and
    /// the next revision gets a handle of its own.
    ///
    /// # Errors
    /// Propagates solver construction failures.
    pub fn solver_handle(
        &mut self,
    ) -> Result<std::sync::Arc<dyn sgl_solver::SolverHandle>, SglError> {
        let parallelism = self.config.parallelism;
        with_session_threads(parallelism, || {
            self.solver.handle_for(&self.graph).map_err(SglError::from)
        })
    }

    fn embedding_width(&self) -> usize {
        let n = self.measurements.num_nodes();
        (self.config.r - 1).min(n.saturating_sub(2)).max(1)
    }

    fn embedding_options(&self) -> EmbeddingOptions {
        EmbeddingOptions {
            tol: self.config.eig_tol,
            max_iter: self.config.eig_max_iter,
            seed: self.config.seed,
        }
    }

    /// Per-iteration edge budget `⌈Nβ⌉` (at least 1).
    fn edges_per_iteration(&self) -> usize {
        let n = self.measurements.num_nodes() as f64;
        ((n * self.config.beta).ceil() as usize).max(1)
    }

    fn ensure_embedding(&mut self) -> Result<&Embedding, SglError> {
        if self.embedding.is_none() {
            self.embedding = Some(self.embed(None)?);
        }
        Ok(self.embedding.as_ref().expect("embedding just ensured"))
    }

    /// Embed the current graph through the session's embedder, counting
    /// the eigensolver iterations it spent.
    fn embed(&mut self, warm_start: Option<&DenseMatrix>) -> Result<Embedding, SglError> {
        let width = self.embedding_width();
        let shift = self.config.shift();
        let opts = self.embedding_options();
        let emb = self.embedder.embed(
            &self.graph,
            width,
            shift,
            &opts,
            warm_start,
            &mut self.solver,
        )?;
        sgl_trace::count("embed.lobpcg_iterations", emb.solver_iterations as u64);
        Ok(emb)
    }

    fn push_record(
        &mut self,
        smax: f64,
        edges_added: usize,
        timings: StepTimings,
    ) -> IterationRecord {
        let record = IterationRecord {
            iteration: self.trace.len() + 1,
            smax,
            edges_added,
            total_edges: self.graph.num_edges(),
            lambda2: self
                .embedding
                .as_ref()
                .and_then(|e| e.eigenvalues.first().copied())
                .unwrap_or(0.0),
            timings,
        };
        self.trace.push(record);
        sgl_trace::count("session.iterations", 1);
        sgl_trace::count("session.edges_added", edges_added as u64);
        for obs in &mut self.observers {
            obs.on_iteration(&record);
        }
        record
    }

    /// Run one iteration of the densification loop (Steps 2–4), under
    /// the session's `parallelism` knob.
    ///
    /// Solver failures (PCG stagnation, factorization drift — real or
    /// injected via [`SglSession::set_fault_plan`]) do not kill the
    /// session: the solver state is invalidated and the step retried on
    /// a fresh factorization. If the retry fails too, a solver-strategy
    /// session falls back to the solver-free strategy and retries once
    /// more; only when every rung is exhausted does the error propagate.
    ///
    /// # Errors
    /// Propagates embedding/solver failures that survive recovery.
    pub fn step(&mut self) -> Result<StepOutcome, SglError> {
        let parallelism = self.config.parallelism;
        match with_session_threads(parallelism, || self.step_inner()) {
            Ok(outcome) => {
                self.solver_failures = 0;
                Ok(outcome)
            }
            Err(SglError::Linalg(_)) => {
                // First rung: a fresh factorization. The failed stage
                // left no partial mutation behind (a failed embed leaves
                // the cache empty), so re-entering the step is safe.
                self.solver_failures += 1;
                self.solver.invalidate();
                match with_session_threads(parallelism, || self.step_inner()) {
                    Ok(outcome) => {
                        self.solver_failures = 0;
                        Ok(outcome)
                    }
                    Err(SglError::Linalg(_)) if self.try_strategy_fallback() => {
                        // Second rung: the solver-free strategy cannot
                        // suffer factorization breakdown at all.
                        self.solver_failures += 1;
                        let outcome = with_session_threads(parallelism, || self.step_inner())?;
                        self.solver_failures = 0;
                        Ok(outcome)
                    }
                    Err(e) => Err(e),
                }
            }
            Err(e) => Err(e),
        }
    }

    /// Swap the session onto the solver-free strategy after repeated
    /// solver failures. Returns `false` when the session is already
    /// solver-free.
    fn try_strategy_fallback(&mut self) -> bool {
        if self.config.strategy != LearnStrategyKind::Solver {
            return false;
        }
        self.config.strategy = LearnStrategyKind::SolverFree;
        self.embedder = Embedder::for_config(&self.config);
        // The cached embedding came from the old embedder; recompute so
        // strategies never mix within one warm-start chain.
        self.embedding = None;
        self.solver.invalidate();
        self.fallbacks_taken += 1;
        true
    }

    fn step_inner(&mut self) -> Result<StepOutcome, SglError> {
        if self.halted {
            return Ok(StepOutcome::AlreadyDone);
        }
        if self.epoch_iterations >= self.config.max_iterations {
            self.halted = true;
            self.verdict = StopVerdict::MaxIterations;
            return Ok(StepOutcome::CapReached);
        }
        self.epoch_iterations += 1;
        let _iter_sp = sgl_trace::span!("iteration", count = self.trace.len() + 1);
        // Phase timing is measurement-only (clock reads never influence
        // control flow), so results stay bit-identical however fast or
        // slow — or traced or untraced — the run is.
        let phase_start = Instant::now();
        let score_sp = sgl_trace::span!("score");
        self.ensure_embedding()?;

        let tol = self.config.tol;
        if self.pool.is_empty() {
            // Judge convergence only from records of the current epoch:
            // earlier ones were scored against a smaller measurement set.
            self.converged = match self.trace[self.epoch_start..].last() {
                Some(r) => r.smax < tol,
                // Never scored this epoch: before any extension this
                // mirrors the seed semantics (an `smax` of 0 for an empty
                // trace); after an extension an empty pool means the
                // refreshed candidate graph added nothing new, which is
                // convergence by definition.
                None if self.epoch_start == 0 => 0.0 < tol,
                None => true,
            };
            self.halted = true;
            self.verdict = StopVerdict::CandidatesExhausted;
            return Ok(StepOutcome::Exhausted {
                converged: self.converged,
            });
        }

        // Steps 2–3: embed and score by eq. (13).
        let embedding = self.embedding.as_ref().expect("embedding ensured above");
        let sens = self.pool.sensitivities(embedding);
        let smax = sens.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        drop(score_sp);
        let score_s = phase_start.elapsed().as_secs_f64();

        // Step 4: stop when s_max < tol.
        if smax < tol {
            let record = self.push_record(
                smax,
                0,
                StepTimings {
                    score_s,
                    ..StepTimings::default()
                },
            );
            self.converged = true;
            self.halted = true;
            self.verdict = StopVerdict::Converged;
            return Ok(StepOutcome::Converged(record));
        }

        // Densification: add the top ⌈Nβ⌉ candidates above tolerance.
        let densify_start = Instant::now();
        let densify_sp = sgl_trace::span!("densify");
        let picked = self.pool.select_top(&sens, self.edges_per_iteration(), tol);
        let added = picked.len();
        // A new graph revision: the solver context sees it moved and
        // builds a fresh handle on its next request.
        for c in picked {
            self.graph.add_edge(c.u, c.v, c.weight);
        }
        drop(densify_sp);
        let densify_s = densify_start.elapsed().as_secs_f64();
        let record = self.push_record(
            smax,
            added,
            StepTimings {
                score_s,
                densify_s,
                refine_s: 0.0,
            },
        );
        if added == 0 {
            // smax ≥ tol but nothing selectable: numerical corner, treat
            // as converged to avoid spinning (the verdict records the
            // stall so the flag is not mistaken for a clean rule firing).
            self.converged = true;
            self.halted = true;
            self.verdict = StopVerdict::Stalled;
            return Ok(StepOutcome::Converged(record));
        }

        // Warm-start the next embedding from this iteration's block: only
        // ~⌈Nβ⌉ edges changed, so the old block is nearly invariant.
        let embed_start = Instant::now();
        let embed_sp = sgl_trace::span!("embed");
        let warm = self.embedding.take().expect("embedding ensured above");
        self.embedding = Some(self.embed(Some(&warm.coords))?);
        drop(embed_sp);
        // The record was delivered to observers before the re-embed ran;
        // patch the trace's copy so the final breakdown is complete.
        if let Some(last) = self.trace.last_mut() {
            last.timings.refine_s = embed_start.elapsed().as_secs_f64();
        }
        Ok(StepOutcome::Progressed(record))
    }

    /// Fold a newly arrived measurement batch into the session and
    /// resume learning warm: the candidate pool is rebuilt over the
    /// extended data (already-learned edges stay out of the pool), the
    /// learned graph and current embedding are kept, the iteration cap
    /// resets for the new epoch, and the convergence flag clears so
    /// [`step`](SglSession::step) continues.
    ///
    /// Sessions built by [`SglSession::new`] also rebuild the kNN graph
    /// over the richer voltages; sessions built from a caller-provided
    /// candidate graph ([`SglSession::with_candidate_graph`]) keep that
    /// graph and only refresh the pool's cached data distances.
    ///
    /// Returns the number of candidate edges now in the pool.
    ///
    /// **Currents caveat:** the union keeps current measurements only if
    /// *both* the session's data and `batch` carry them (see
    /// [`Measurements::hstack`]). Extending a current-bearing session
    /// with a voltage-only batch therefore disables Step 5 edge scaling
    /// at [`finish`](SglSession::finish) — pass full `(X, Y)` batches if
    /// the final global scale matters.
    ///
    /// # Errors
    /// Returns [`SglError::InvalidMeasurements`] on node-count mismatch.
    pub fn extend_measurements(&mut self, batch: &Measurements) -> Result<usize, SglError> {
        self.measurements = Cow::Owned(self.measurements.hstack(batch)?);
        if self.knn_candidates {
            self.knn_graph = with_session_threads(self.config.parallelism, || {
                build_knn_graph(self.measurements.voltages(), self.config.k)
            });
        }
        self.pool =
            CandidatePool::from_graph_excluding(&self.knn_graph, &self.graph, &self.measurements);
        self.epoch_iterations = 0;
        self.epoch_start = self.trace.len();
        self.converged = false;
        self.halted = false;
        self.verdict = StopVerdict::InProgress;
        Ok(self.pool.len())
    }

    /// Drive [`step`](SglSession::step) until the loop halts.
    ///
    /// # Errors
    /// See [`SglSession::step`].
    pub fn run_to_completion(&mut self) -> Result<(), SglError> {
        while !self.halted {
            self.step()?;
        }
        Ok(())
    }

    /// Apply Step 5 (edge scaling) and produce the [`LearnResult`].
    /// Valid at any point — an unfinished loop simply yields the graph
    /// as it currently stands.
    ///
    /// # Errors
    /// Propagates embedding/solver failures.
    pub fn finish(mut self) -> Result<LearnResult, SglError> {
        let parallelism = self.config.parallelism;
        // Both the final embedding and Step-5 scaling get the same
        // one-retry recovery as `step`: invalidate the solver state and
        // re-run on a fresh factorization before giving up.
        {
            let _sp = sgl_trace::span!("finish_embed");
            if let Err(e) =
                with_session_threads(parallelism, || self.ensure_embedding().map(|_| ()))
            {
                match e {
                    SglError::Linalg(_) => {
                        self.solver.invalidate();
                        with_session_threads(parallelism, || self.ensure_embedding().map(|_| ()))?;
                    }
                    other => return Err(other),
                }
            }
        }
        let scale_factor = if self.config.scale_edges {
            let _sp = sgl_trace::span!("scale");
            let strategy = self.config.strategy;
            let attempt = with_session_threads(parallelism, || {
                strategy.scale_edges(&mut self.graph, &self.measurements, &mut self.solver)
            });
            match attempt {
                Ok(f) => f,
                Err(SglError::Linalg(_)) => {
                    self.solver.invalidate();
                    with_session_threads(parallelism, || {
                        strategy.scale_edges(&mut self.graph, &self.measurements, &mut self.solver)
                    })?
                }
                Err(e) => return Err(e),
            }
        } else {
            None
        };
        let result = LearnResult {
            graph: self.graph,
            knn_graph: self.knn_graph,
            trace: self.trace,
            converged: self.converged,
            stop_verdict: self.verdict,
            scale_factor,
            embedding: self.embedding.expect("embedding ensured above"),
            solver_stats: self.solver.cumulative_stats(),
            handles_built: self.solver.handles_built(),
            fallbacks_taken: self.fallbacks_taken,
        };
        for obs in &mut self.observers {
            obs.on_finish(&result);
        }
        // If SGL_TRACE named an output path, (re)write the Chrome trace
        // now — the natural end of a learning run for plain examples.
        sgl_trace::export_env_trace();
        Ok(result)
    }

    /// [`run_to_completion`](SglSession::run_to_completion) then
    /// [`finish`](SglSession::finish) — the one-shot path `Sgl::learn`
    /// delegates to.
    ///
    /// # Errors
    /// See [`SglSession::step`].
    pub fn run(mut self) -> Result<LearnResult, SglError> {
        self.run_to_completion()?;
        self.finish()
    }

    /// Drop any cached solver factorization — the checkpoint revision
    /// barrier (see [`SglSession::checkpoint`]).
    pub(crate) fn invalidate_solver(&mut self) {
        self.solver.invalidate();
    }

    /// Snapshot the resumable state (see [`SessionState`]). Read-only:
    /// the revision-barrier invalidation happens in
    /// [`checkpoint`](SglSession::checkpoint), not here.
    pub(crate) fn capture_state(&self) -> SessionState {
        SessionState {
            config: self.config.clone(),
            measurements: self.measurements.as_ref().clone(),
            knn_graph: self.knn_graph.clone(),
            graph: self.graph.clone(),
            candidates: self.pool.candidates().to_vec(),
            pool_measurements: self.pool.num_measurements(),
            embedding: self.embedding.clone(),
            trace: self.trace.clone(),
            epoch_iterations: self.epoch_iterations,
            epoch_start: self.epoch_start,
            knn_candidates: self.knn_candidates,
            converged: self.converged,
            halted: self.halted,
            verdict: self.verdict,
            solver_failures: self.solver_failures,
            fallbacks_taken: self.fallbacks_taken,
        }
    }
}

impl SglSession<'static> {
    /// Rebuild a session from a [`SessionState`] snapshot: the embedder
    /// is rebuilt from the config's (possibly degraded) strategy, the
    /// solver context starts fresh — matching the
    /// revision barrier the saving session went through — and the
    /// measurements are owned, so the result is `'static`.
    pub(crate) fn from_state(state: SessionState) -> Result<SglSession<'static>, SglError> {
        let SessionState {
            config,
            measurements,
            knn_graph,
            graph,
            candidates,
            pool_measurements,
            embedding,
            trace,
            epoch_iterations,
            epoch_start,
            knn_candidates,
            converged,
            halted,
            verdict,
            solver_failures,
            fallbacks_taken,
        } = state;
        config.validate()?;
        let solver = SolverContext::new(config.solver.clone());
        let embedder = Embedder::for_config(&config);
        Ok(SglSession {
            config,
            measurements: Cow::Owned(measurements),
            knn_graph,
            graph,
            pool: CandidatePool::from_parts(candidates, pool_measurements),
            embedding,
            trace,
            epoch_iterations,
            epoch_start,
            knn_candidates,
            converged,
            halted,
            verdict,
            solver,
            embedder,
            observers: Vec::new(),
            solver_failures,
            fallbacks_taken,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::Sgl;
    use sgl_datasets::grid2d;
    use sgl_solver::FaultKind;
    use std::sync::{Arc, Mutex};

    fn quick_config() -> SglConfig {
        SglConfig::default().with_tol(1e-6).with_max_iterations(100)
    }

    #[test]
    fn stepwise_run_matches_one_shot_learn() {
        let truth = grid2d(8, 8);
        let meas = Measurements::generate(&truth, 20, 11).unwrap();
        let oneshot = Sgl::new(quick_config()).learn(&meas).unwrap();

        let mut session = SglSession::new(quick_config(), &meas).unwrap();
        let mut outcomes = Vec::new();
        while !session.is_done() {
            outcomes.push(session.step().unwrap());
        }
        // A halted session steps idempotently.
        assert_eq!(session.step().unwrap(), StepOutcome::AlreadyDone);
        let stepped = session.finish().unwrap();

        assert_eq!(stepped.trace, oneshot.trace);
        assert_eq!(stepped.converged, oneshot.converged);
        assert_eq!(stepped.scale_factor, oneshot.scale_factor);
        assert_eq!(stepped.graph.num_edges(), oneshot.graph.num_edges());
        for (a, b) in stepped.graph.edges().iter().zip(oneshot.graph.edges()) {
            assert_eq!((a.u, a.v), (b.u, b.v));
            assert!((a.weight - b.weight).abs() < 1e-15);
        }
        // The last outcome is terminal, earlier ones all progressed.
        for o in &outcomes[..outcomes.len() - 1] {
            assert!(matches!(o, StepOutcome::Progressed(_)), "{o:?}");
        }
        assert!(matches!(
            outcomes.last().unwrap(),
            StepOutcome::Converged(_) | StepOutcome::Exhausted { .. }
        ));
    }

    #[test]
    fn observer_sees_every_trace_record() {
        let truth = grid2d(8, 8);
        let meas = Measurements::generate(&truth, 20, 12).unwrap();
        // Observers are `Send`, so the sink is an Arc<Mutex<…>> (an
        // Rc<RefCell<…>> no longer compiles — by design).
        let seen: Arc<Mutex<Vec<IterationRecord>>> = Arc::default();
        let sink = Arc::clone(&seen);
        let mut session = SglSession::new(quick_config(), &meas).unwrap();
        session.observe(move |r: &IterationRecord| sink.lock().unwrap().push(*r));
        session.run_to_completion().unwrap();
        let result = session.finish().unwrap();
        assert!(!result.trace.is_empty());
        assert_eq!(&*seen.lock().unwrap(), &result.trace);
    }

    #[test]
    fn session_and_estimator_are_send() {
        // The serving handoff contract: a whole session (with its
        // embedder and observers) moves into a writer thread, and
        // a boxed estimator is shared across reader threads.
        fn assert_send<T: Send>() {}
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send::<SglSession<'static>>();
        assert_send_sync::<Box<dyn ResistanceEstimator>>();
    }

    #[test]
    fn owned_session_moves_across_threads() {
        let truth = grid2d(6, 6);
        let meas = Measurements::generate(&truth, 12, 31).unwrap();
        let borrowed = SglSession::new(quick_config(), &meas)
            .unwrap()
            .run()
            .unwrap();
        let session = SglSession::from_owned(quick_config(), meas).unwrap();
        // An owned session is 'static: hand it to a thread wholesale.
        let result = std::thread::spawn(move || session.run().unwrap())
            .join()
            .unwrap();
        // Ownership changes nothing about the learned graph.
        assert_eq!(result.graph.num_edges(), borrowed.graph.num_edges());
        for (a, b) in result.graph.edges().iter().zip(borrowed.graph.edges()) {
            assert_eq!((a.u, a.v, a.weight), (b.u, b.v, b.weight));
        }
        assert_eq!(result.trace, borrowed.trace);
    }

    #[test]
    fn stop_verdict_reports_halt_site() {
        let truth = grid2d(8, 8);
        let meas = Measurements::generate(&truth, 20, 13).unwrap();

        // Iteration cap.
        let mut capped = SglSession::new(quick_config().with_max_iterations(1), &meas).unwrap();
        capped.step().unwrap();
        capped.step().unwrap();
        assert_eq!(capped.stop_verdict(), StopVerdict::MaxIterations);
        let r = capped.finish().unwrap();
        assert_eq!(r.stop_verdict, StopVerdict::MaxIterations);
        assert!(!r.converged);

        // Convergence (or candidate exhaustion below tolerance) on a
        // full run; either way the verdict agrees with the flag.
        let full = SglSession::new(quick_config(), &meas)
            .unwrap()
            .run()
            .unwrap();
        assert!(matches!(
            full.stop_verdict,
            StopVerdict::Converged | StopVerdict::CandidatesExhausted
        ));
        assert!(full.converged);

        // Finishing a never-stepped session: still in progress.
        let meas2 = Measurements::generate(&truth, 20, 14).unwrap();
        let idle = SglSession::new(quick_config(), &meas2).unwrap();
        assert_eq!(idle.stop_verdict(), StopVerdict::InProgress);
        let r = idle.finish().unwrap();
        assert_eq!(r.stop_verdict, StopVerdict::InProgress);
        assert_eq!(r.stop_verdict.as_str(), "in-progress");
    }

    #[test]
    fn cap_reached_reports_and_halts() {
        let truth = grid2d(8, 8);
        let meas = Measurements::generate(&truth, 20, 13).unwrap();
        let cfg = quick_config().with_max_iterations(2);
        let mut session = SglSession::new(cfg, &meas).unwrap();
        assert!(matches!(
            session.step().unwrap(),
            StepOutcome::Progressed(_)
        ));
        assert!(matches!(
            session.step().unwrap(),
            StepOutcome::Progressed(_)
        ));
        assert_eq!(session.step().unwrap(), StepOutcome::CapReached);
        assert!(session.is_done());
        assert!(!session.converged());
        let result = session.finish().unwrap();
        assert_eq!(result.trace.len(), 2);
        assert!(!result.converged);
    }

    #[test]
    fn swapped_scaler_skips_scaling() {
        let truth = grid2d(6, 6);
        let meas = Measurements::generate(&truth, 15, 14).unwrap();
        let session = SglSession::new(quick_config().with_scale_edges(false), &meas).unwrap();
        let result = session.run().unwrap();
        assert_eq!(result.scale_factor, None);
    }

    #[test]
    fn dense_backend_session_runs() {
        let truth = grid2d(6, 6);
        let meas = Measurements::generate(&truth, 15, 15).unwrap();
        let session = SglSession::new(quick_config(), &meas)
            .unwrap()
            .with_dense_embedding();
        let result = session.run().unwrap();
        assert!(sgl_graph::traversal::is_connected(&result.graph));
        assert!(!result.trace.is_empty());
    }

    #[test]
    fn extend_measurements_resumes_learning() {
        let truth = grid2d(8, 8);
        let all = Measurements::generate(&truth, 30, 16).unwrap();
        // Split columns: first 15 vs last 15 excitations arrive as
        // separate voltage-only batches.
        let cols_a: Vec<Vec<f64>> = (0..15).map(|j| all.voltages().column(j)).collect();
        let cols_b: Vec<Vec<f64>> = (15..30).map(|j| all.voltages().column(j)).collect();
        let batch_a =
            Measurements::from_voltages(sgl_linalg::DenseMatrix::from_columns(&cols_a)).unwrap();
        let batch_b =
            Measurements::from_voltages(sgl_linalg::DenseMatrix::from_columns(&cols_b)).unwrap();

        let mut session = SglSession::new(quick_config(), &batch_a).unwrap();
        session.run_to_completion().unwrap();
        let edges_before = session.graph().num_edges();
        let trace_before = session.trace().len();
        assert!(session.is_done());

        session.extend_measurements(&batch_b).unwrap();
        assert!(!session.is_done());
        assert_eq!(session.measurements().num_measurements(), 30);
        session.run_to_completion().unwrap();
        let result = session.finish().unwrap();

        // The trace keeps growing monotonically across the extension.
        assert!(result.trace.len() >= trace_before);
        for w in result.trace.windows(2) {
            assert_eq!(w[1].iteration, w[0].iteration + 1);
            assert!(w[1].total_edges >= w[0].total_edges);
        }
        assert!(result.graph.num_edges() >= edges_before);
        assert!(sgl_graph::traversal::is_connected(&result.graph));
    }

    #[test]
    fn solver_free_strategy_resolves_from_the_config() {
        let truth = grid2d(6, 6);
        let meas = Measurements::generate(&truth, 10, 20).unwrap();
        let cfg = quick_config().with_strategy(LearnStrategyKind::SolverFree);
        let mut session = SglSession::new(cfg, &meas).unwrap();
        session.run_to_completion().unwrap();
        assert_eq!(session.solver_context().handles_built(), 0);
        let result = session.finish().unwrap();
        assert_eq!(result.solver_stats.solves, 0);
        assert!(result.scale_factor.is_some(), "Step 5 ran solver-free");
    }

    #[test]
    fn solver_failures_fall_back_to_solver_free() {
        // LOBPCG cannot reach 1e-12 in two iterations, so every embed
        // takes the shift-invert fallback, and every PCG solve there
        // stagnates: the fresh-factorization retry fails too, and the
        // session must take the strategy fallback rung.
        let mut plan = FaultPlan::new();
        for nth in 0..256 {
            plan = plan.with_fault(FaultKind::PcgStagnation, nth);
        }
        let truth = grid2d(8, 8);
        let meas = Measurements::generate(&truth, 18, 9).unwrap();
        let cfg = SglConfig::builder()
            .tol(1e-6)
            .max_iterations(80)
            .eig_tol(1e-12)
            .eig_max_iter(2)
            .build()
            .unwrap();
        let mut session = SglSession::new(cfg, &meas).unwrap();
        session.set_fault_plan(Arc::new(plan));
        session.run_to_completion().unwrap();
        assert_eq!(session.config().strategy, LearnStrategyKind::SolverFree);
        let result = session.finish().unwrap();
        assert_eq!(result.fallbacks_taken, 1);
    }

    #[test]
    fn extend_rejects_node_mismatch() {
        let truth = grid2d(6, 6);
        let meas = Measurements::generate(&truth, 10, 17).unwrap();
        let other = Measurements::generate(&grid2d(5, 5), 10, 17).unwrap();
        let mut session = SglSession::new(quick_config(), &meas).unwrap();
        assert!(session.extend_measurements(&other).is_err());
    }

    #[test]
    fn extend_keeps_custom_candidate_graph() {
        let truth = grid2d(6, 6);
        let meas = Measurements::generate(&truth, 12, 21).unwrap();
        let batch = Measurements::generate(&truth, 8, 22).unwrap();
        // Domain-provided candidate graph: the true topology itself.
        let mut session =
            SglSession::with_candidate_graph(quick_config(), &meas, truth.clone()).unwrap();
        session.run_to_completion().unwrap();
        session.extend_measurements(&batch).unwrap();
        // The caller's candidate graph must survive the extension.
        assert_eq!(session.knn_graph().num_edges(), truth.num_edges());
        for (a, b) in session.knn_graph().edges().iter().zip(truth.edges()) {
            assert_eq!((a.u, a.v), (b.u, b.v));
        }
        session.run_to_completion().unwrap();
        let result = session.finish().unwrap();
        // Every learned edge comes from the domain graph.
        for e in result.graph.edges() {
            assert!(truth.has_edge(e.u, e.v), "foreign edge ({}, {})", e.u, e.v);
        }
    }

    #[test]
    fn mid_run_backend_swap_discards_cached_embedding() {
        let truth = grid2d(6, 6);
        let meas = Measurements::generate(&truth, 15, 23).unwrap();
        let mut session = SglSession::new(quick_config(), &meas).unwrap();
        assert!(matches!(
            session.step().unwrap(),
            StepOutcome::Progressed(_)
        ));
        // Switching after a step must not reuse the stale embedding.
        session = session.with_dense_embedding();
        session.run_to_completion().unwrap();
        let result = session.finish().unwrap();
        assert!(result.converged);
        assert!(sgl_graph::traversal::is_connected(&result.graph));
    }

    #[test]
    fn finish_without_steps_yields_spanning_tree() {
        let truth = grid2d(6, 6);
        let meas = Measurements::generate(&truth, 10, 18).unwrap();
        let session = SglSession::new(quick_config(), &meas).unwrap();
        let result = session.finish().unwrap();
        assert_eq!(result.graph.num_edges(), truth.num_nodes() - 1);
        assert!(result.trace.is_empty());
        assert!(!result.converged);
    }
}
