//! The staged SGL pipeline: [`SglSession`].
//!
//! [`Sgl::learn`](crate::Sgl::learn) runs Algorithm 1 in one shot; a
//! session exposes the same loop one iteration at a time, with three
//! extra powers the monolithic entry point cannot offer:
//!
//! * **Swappable backends** — every stage is a trait object
//!   ([`EmbeddingBackend`], [`CandidateScorer`], [`StoppingRule`],
//!   [`EdgeScaler`]), so a dense reference eigensolver, a solver-free
//!   scorer, or a custom stopping criterion drop in without forking the
//!   loop.
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
use crate::backend::{CandidateScorer, EdgeScaler, EmbeddingBackend, StoppingRule};
use crate::config::SglConfig;
use crate::embedding::{Embedding, EmbeddingOptions};
use crate::error::SglError;
use crate::measure::Measurements;
use crate::resistance::{build_resistance_estimator, ResistanceEstimator, ResistanceMethod};
use crate::sensitivity::{Candidate, CandidatePool};
use crate::strategy::{resolve_strategy, solver_free_registered, LearnStrategyKind};
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
    /// The stopping rule fired (or no candidate cleared the tolerance);
    /// the loop is done and converged.
    Converged(IterationRecord),
    /// The candidate pool ran dry before the stopping rule fired.
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
/// Observers are `Send` (like the stage backends) so a session carrying
/// them can be moved into a writer thread; share results back through
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
/// Construct with [`SglSession::new`], optionally swap stage backends
/// with the `with_*` methods *before the first step*, then drive with
/// [`step`](SglSession::step) / [`run`](SglSession::run) and finish with
/// [`finish`](SglSession::finish).
pub struct SglSession<'m> {
    config: SglConfig,
    /// Borrowed for one-shot runs; promoted to owned only when
    /// [`extend_measurements`](SglSession::extend_measurements) grows it.
    measurements: Cow<'m, Measurements>,
    knn_graph: Graph,
    graph: Graph,
    pool: CandidatePool,
    /// Lazily computed so backends can be swapped after construction.
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
    backend: Box<dyn EmbeddingBackend>,
    scorer: Box<dyn CandidateScorer>,
    stopping: Box<dyn StoppingRule>,
    scaler: Box<dyn EdgeScaler>,
    /// Resistance estimator the strategy resolved for this session (the
    /// solver-free strategy remaps solver-backed methods to the spectral
    /// sketch).
    resistance: ResistanceMethod,
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
            .field("backend", &self.backend)
            .field("scorer", &self.scorer)
            .field("stopping", &self.stopping)
            .field("scaler", &self.scaler)
            .finish()
    }
}

/// Everything a checkpoint must persist to resume a session
/// bit-identically (see [`crate::checkpoint`]).
///
/// Stage backends, observers, and solver handles are deliberately *not*
/// state: backends are re-resolved from the config's strategy on
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
        let knn_graph = {
            let _sp = sgl_trace::span!("knn_build", count = n);
            with_session_threads(config.parallelism, || {
                build_knn_graph(measurements.voltages(), &config.knn_graph_config())
            })
        };
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
        // The strategy bundles the stage backends; `with_*` swaps still
        // override individual stages afterwards.
        let strategy = resolve_strategy(&config)?;
        let backend = strategy.embedding_backend(&config);
        let scorer = strategy.scorer(&config);
        let stopping = strategy.stopping_rule(&config);
        let scaler = strategy.edge_scaler(&config);
        let resistance = strategy.resistance_method(&config);
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
            backend,
            scorer,
            stopping,
            scaler,
            resistance,
            observers: Vec::new(),
            solver_failures: 0,
            fallbacks_taken: 0,
        })
    }

    /// Swap the embedding backend. Any cached embedding is discarded so
    /// the next step embeds with the new backend (a mid-run swap loses
    /// the warm start but never mixes backends).
    #[must_use]
    pub fn with_embedding_backend(mut self, backend: Box<dyn EmbeddingBackend>) -> Self {
        self.backend = backend;
        self.embedding = None;
        self
    }

    /// Swap the candidate scorer.
    #[must_use]
    pub fn with_scorer(mut self, scorer: Box<dyn CandidateScorer>) -> Self {
        self.scorer = scorer;
        self
    }

    /// Swap the stopping rule.
    #[must_use]
    pub fn with_stopping_rule(mut self, stopping: Box<dyn StoppingRule>) -> Self {
        self.stopping = stopping;
        self
    }

    /// Swap the edge scaler applied at [`finish`](SglSession::finish).
    #[must_use]
    pub fn with_edge_scaler(mut self, scaler: Box<dyn EdgeScaler>) -> Self {
        self.scaler = scaler;
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
    /// solver context (see [`FaultPlan`]): subsequent handle builds and
    /// solves consult the plan, exercising the recovery paths —
    /// preconditioner downgrade ladder, solver-state invalidation with
    /// step retry, and the Solver → SolverFree strategy fallback.
    pub fn set_fault_plan(&mut self, plan: Arc<FaultPlan>) {
        self.solver.set_fault_plan(plan);
    }

    /// Strategy fallbacks taken so far (Solver → SolverFree after
    /// repeated solver failures).
    pub fn fallbacks_taken(&self) -> usize {
        self.fallbacks_taken
    }

    /// Materialize the strategy-resolved [`ResistanceMethod`] for the
    /// *current* learned graph. [`ExactSolve`] and [`JlSketch`] draw the
    /// shared solver handle from the session's context;
    /// [`SpectralSketch`] stays solver-free, so a session configured
    /// with it — or running the solver-free strategy, which remaps the
    /// solver-backed methods onto it — never constructs a Laplacian
    /// solver here.
    ///
    /// The estimator snapshots the current revision — re-request it
    /// after further [`step`](SglSession::step)s.
    ///
    /// [`ResistanceMethod`]: crate::resistance::ResistanceMethod
    /// [`ExactSolve`]: crate::resistance::ExactSolve
    /// [`JlSketch`]: crate::resistance::JlSketch
    /// [`SpectralSketch`]: crate::resistance::SpectralSketch
    ///
    /// # Errors
    /// Propagates solver/eigensolver construction failures.
    pub fn resistance_estimator(&mut self) -> Result<Box<dyn ResistanceEstimator>, SglError> {
        with_session_threads(self.config.parallelism, || {
            build_resistance_estimator(
                &self.graph,
                self.resistance,
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

    /// Whether the stopping rule declared convergence.
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

    /// Embed the current graph through the session's backend, counting
    /// the eigensolver iterations it spent.
    fn embed(&mut self, warm_start: Option<&DenseMatrix>) -> Result<Embedding, SglError> {
        let width = self.embedding_width();
        let shift = self.config.shift();
        let opts = self.embedding_options();
        let emb = self.backend.embed(
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
    /// a fresh factorization. If the retry fails too, the session
    /// attempts the strategy fallback (Solver → SolverFree, when the
    /// `sgl-sfsgl` factory is registered) and retries once more; only
    /// when every rung is exhausted does the error propagate.
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
    /// solver-free or no factory is registered (see
    /// [`register_solver_free_strategy`](crate::strategy::register_solver_free_strategy)).
    fn try_strategy_fallback(&mut self) -> bool {
        if self.config.strategy != LearnStrategyKind::Solver || !solver_free_registered() {
            return false;
        }
        self.config.strategy = LearnStrategyKind::SolverFree;
        let strategy = match resolve_strategy(&self.config) {
            Ok(s) => s,
            Err(_) => {
                self.config.strategy = LearnStrategyKind::Solver;
                return false;
            }
        };
        self.backend = strategy.embedding_backend(&self.config);
        self.scorer = strategy.scorer(&self.config);
        self.stopping = strategy.stopping_rule(&self.config);
        self.scaler = strategy.edge_scaler(&self.config);
        self.resistance = strategy.resistance_method(&self.config);
        // The cached embedding came from the old backend; recompute so
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

        if self.pool.is_empty() {
            // Judge convergence only from records of the current epoch:
            // earlier ones were scored against a smaller measurement set.
            let iteration = self.trace.len() + 1;
            self.converged = match self.trace[self.epoch_start..].last() {
                Some(r) => self.stopping.is_converged(iteration, r.smax),
                // Never scored this epoch: before any extension this
                // mirrors the seed semantics (an `smax` of 0 for an empty
                // trace); after an extension an empty pool means the
                // refreshed candidate graph added nothing new, which is
                // convergence by definition.
                None if self.epoch_start == 0 => self.stopping.is_converged(iteration, 0.0),
                None => true,
            };
            self.halted = true;
            self.verdict = StopVerdict::CandidatesExhausted;
            return Ok(StepOutcome::Exhausted {
                converged: self.converged,
            });
        }

        // Steps 2–3: embed and score.
        let embedding = self.embedding.as_ref().expect("embedding ensured above");
        let sens = self.scorer.score(&self.pool, embedding);
        let smax = sens.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        drop(score_sp);
        let score_s = phase_start.elapsed().as_secs_f64();

        // Step 4: convergence check.
        let iteration = self.trace.len() + 1;
        if self.stopping.is_converged(iteration, smax) {
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
        let picked = self.pool.select_top(
            &sens,
            self.edges_per_iteration(),
            self.stopping.selection_tol(),
        );
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
                build_knn_graph(
                    self.measurements.voltages(),
                    &self.config.knn_graph_config(),
                )
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
            let attempt = with_session_threads(parallelism, || {
                self.scaler
                    .scale(&mut self.graph, &self.measurements, &mut self.solver)
            });
            match attempt {
                Ok(f) => f,
                Err(SglError::Linalg(_)) => {
                    self.solver.invalidate();
                    with_session_threads(parallelism, || {
                        self.scaler
                            .scale(&mut self.graph, &self.measurements, &mut self.solver)
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
            revision_stats: self.solver.revision_stats(),
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
    /// Rebuild a session from a [`SessionState`] snapshot: stage
    /// backends are re-resolved from the config's (possibly degraded)
    /// strategy, the solver context starts fresh — matching the
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
        let strategy = resolve_strategy(&config)?;
        let backend = strategy.embedding_backend(&config);
        let scorer = strategy.scorer(&config);
        let stopping = strategy.stopping_rule(&config);
        let scaler = strategy.edge_scaler(&config);
        let resistance = strategy.resistance_method(&config);
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
            backend,
            scorer,
            stopping,
            scaler,
            resistance,
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
    use crate::backend::{DenseEigBackend, NoScaler};
    use sgl_datasets::grid2d;
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
        // The serving handoff contract: a whole session (with its boxed
        // stage backends and observers) moves into a writer thread, and
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
        let session = SglSession::new(quick_config(), &meas)
            .unwrap()
            .with_edge_scaler(Box::new(NoScaler));
        let result = session.run().unwrap();
        assert_eq!(result.scale_factor, None);
    }

    #[test]
    fn dense_backend_session_runs() {
        let truth = grid2d(6, 6);
        let meas = Measurements::generate(&truth, 15, 15).unwrap();
        let session = SglSession::new(quick_config(), &meas)
            .unwrap()
            .with_embedding_backend(Box::new(DenseEigBackend::default()));
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
    fn swapped_stopping_rule_owns_both_thresholds() {
        use crate::backend::StoppingRule;

        #[derive(Debug)]
        struct Strict {
            tol: f64,
        }
        impl StoppingRule for Strict {
            fn is_converged(&self, _iteration: usize, smax: f64) -> bool {
                smax < self.tol
            }
            fn selection_tol(&self) -> f64 {
                self.tol
            }
        }

        let truth = grid2d(8, 8);
        let meas = Measurements::generate(&truth, 20, 19).unwrap();
        // Loose config tolerance, strict rule: the rule must win — the
        // session keeps densifying past the config threshold.
        let cfg = quick_config().with_tol(1e-2);
        let loose = SglSession::new(cfg.clone(), &meas).unwrap().run().unwrap();
        let strict = SglSession::new(cfg, &meas)
            .unwrap()
            .with_stopping_rule(Box::new(Strict { tol: 1e-6 }))
            .run()
            .unwrap();
        assert!(
            strict.trace.len() > loose.trace.len(),
            "strict rule should run longer: {} vs {}",
            strict.trace.len(),
            loose.trace.len()
        );
        let last = strict.final_smax().unwrap();
        assert!(last < 1e-6, "strict rule ignored: final smax {last}");
    }

    #[test]
    fn unregistered_solver_free_fails_at_init() {
        use crate::strategy::LearnStrategyKind;
        let truth = grid2d(6, 6);
        let meas = Measurements::generate(&truth, 10, 20).unwrap();
        let cfg = quick_config().with_strategy(LearnStrategyKind::SolverFree);
        let err = SglSession::new(cfg, &meas).unwrap_err();
        assert!(
            err.to_string().contains("sgl_sfsgl::register"),
            "unhelpful error: {err}"
        );
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
        // Swapping after a step must not reuse the stale embedding.
        session = session.with_embedding_backend(Box::new(DenseEigBackend::default()));
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
