//! [`SglServer`]: the read/write split around a learned graph.
//!
//! One writer thread owns the [`SglSession`] and consumes streamed
//! measurement batches; any number of cheap, cloneable [`ServeHandle`]s
//! answer queries against the latest published [`GraphSnapshot`]. A
//! publish is an `Arc` swap through the
//! [`SnapshotCell`] — readers never block on
//! the writer, and a refresh builds one solver handle for the new graph
//! revision through the session's
//! [`SolverContext`](sgl_solver::SolverContext) (the exact near-tree
//! preconditioner on the graphs SGL learns).
//!
//! Lifecycle: [`SglServer::new`] takes ownership of a prepared session
//! (use [`SglSession::from_owned`] for a `'static` one), cuts snapshot
//! version 0, and spawns the writer. [`SglServer::ingest`] queues a
//! measurement batch; the writer extends the session, runs a bounded
//! number of refinement sweeps, and publishes the refreshed snapshot.
//! [`SglServer::shutdown`] drains the writer and hands the session back
//! out, ready for [`SglSession::finish`].

use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::Instant;

use sgl_core::{FaultKind, FaultPlan, Measurements, SglSession};
use sgl_solver::RevisionStats;

use crate::epoch::SnapshotCell;
use crate::snapshot::GraphSnapshot;
use crate::ServeError;

/// Tunables for a serving instance.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// k for the snapshot's embedding clustering (clamped to node count).
    pub clusters: usize,
    /// Refinement sweeps ([`SglSession::step`]) per ingested batch.
    pub refresh_iters: usize,
    /// Watermark on the writer's ingest queue, counted in batches
    /// (including the one currently being absorbed). Past it,
    /// [`SglServer::ingest`] sheds with
    /// [`ServeError::IngestBackpressure`] instead of queueing without
    /// bound. `0` disables the check (the pre-watermark behavior).
    pub max_pending_batches: usize,
    /// Deterministic fault-injection schedule threaded into the writer
    /// (injected panics); also install it on the session via
    /// [`SglSession::set_fault_plan`](sgl_core::SglSession::set_fault_plan)
    /// to reach the solver faults. `None` (the default) is inert.
    pub fault_plan: Option<Arc<FaultPlan>>,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            clusters: 4,
            refresh_iters: 4,
            max_pending_batches: 64,
            fault_plan: None,
        }
    }
}

/// A point-in-time view of the server's counters.
#[derive(Debug, Clone, Copy)]
pub struct ServeStats {
    /// Version of the currently served snapshot.
    pub version: u64,
    /// Snapshots published after the initial one.
    pub snapshots_published: u64,
    /// Measurement columns absorbed via ingest.
    pub measurements_ingested: u64,
    /// Queries answered across all handles.
    pub queries_answered: u64,
    /// Resistance and interpolation queries answered, each with one
    /// snapshot load and one batched solve per 64 right-hand sides (a
    /// solver-free snapshot answers resistances from its sketch
    /// instead).
    pub batches_executed: u64,
    /// Reads 0: a failed solve is not retried. Kept only because the
    /// repository benchmark reads it; ROADMAP item 4 drops it.
    pub query_retries: u64,
    /// Reads 0: queries carry no deadline. Kept only because the
    /// repository benchmark reads it; ROADMAP item 4 drops it.
    pub deadline_misses: u64,
    /// Ingest batches rejected and dropped (validation failure at
    /// [`SglServer::ingest`] or absorb failure in the writer); the
    /// served snapshot is untouched by a quarantined batch.
    pub batches_quarantined: u64,
    /// Ingest batches shed at the
    /// [`ServeOptions::max_pending_batches`] watermark
    /// ([`ServeError::IngestBackpressure`]); they never reached the
    /// writer.
    pub batches_rejected: u64,
    /// Batches currently queued for the writer (including one being
    /// absorbed) — the depth the watermark bounds.
    pub pending_batches: u64,
    /// Times the supervised writer thread panicked and was rebuilt from
    /// the accumulated measurements.
    pub writer_restarts: u64,
    /// Median latency of the queries [`batches_executed`](Self::batches_executed)
    /// counts, measured inside the server from snapshot load to answer,
    /// in milliseconds. A rejected or failed query is in neither.
    pub query_latency_p50_ms: f64,
    /// 99th-percentile solve-backed query latency, milliseconds.
    pub query_latency_p99_ms: f64,
    /// Reads 0: no query waits in a queue. Kept only because the
    /// repository benchmark reads it; ROADMAP item 4 drops it.
    pub queue_wait_p99_ms: f64,
    /// The session solver context's revision counters at the last
    /// publish — handles built and ladder downgrades.
    pub revision: RevisionStats,
}

/// A query answer tagged with the snapshot version that produced it.
///
/// Every value inside one response is internally consistent: it was
/// computed against exactly one [`GraphSnapshot`], never a mix of a
/// pre- and post-publish graph.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryResponse<T> {
    /// The snapshot version that answered.
    pub version: u64,
    /// The answer.
    pub value: T,
}

enum WriterMsg {
    Ingest(Measurements),
    Flush(mpsc::Sender<()>),
}

struct Shared {
    cell: SnapshotCell<GraphSnapshot>,
    queries: AtomicU64,
    /// Resistance and interpolation queries answered.
    solves: AtomicU64,
    /// Latency of every answered resistance and interpolation query,
    /// nanoseconds. Always recording (a few atomic adds per query),
    /// independent of whether the trace recorder is on.
    latency: sgl_trace::Histogram,
    snapshots_published: AtomicU64,
    measurements_ingested: AtomicU64,
    batches_quarantined: AtomicU64,
    batches_rejected: AtomicU64,
    /// Batches queued for the writer (including one being absorbed);
    /// bounded by `ingest_watermark`.
    pending_batches: AtomicU64,
    /// Copy of [`ServeOptions::max_pending_batches`] (0 = unbounded).
    ingest_watermark: u64,
    writer_restarts: AtomicU64,
}

/// The serving instance: owns the writer thread, hands out read handles.
#[derive(Debug)]
pub struct SglServer {
    shared: Arc<Shared>,
    ingest_tx: Option<mpsc::Sender<WriterMsg>>,
    writer: Option<JoinHandle<Result<SglSession<'static>, ServeError>>>,
}

impl std::fmt::Debug for Shared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Shared")
            .field("cell", &self.cell)
            .field("queries", &self.queries.load(Ordering::Relaxed))
            .finish()
    }
}

/// Count a rejected batch in the shared stats and on the trace
/// timeline (`quarantine` instant + `serve.quarantines` counter).
fn note_quarantine(shared: &Shared) {
    sgl_trace::trace_event!("quarantine");
    sgl_trace::count("serve.quarantines", 1);
    shared.batches_quarantined.fetch_add(1, Ordering::Relaxed);
}

impl SglServer {
    /// Snapshot the session as version 0 and start serving.
    ///
    /// The session must own its measurements (`SglSession<'static>`,
    /// from [`SglSession::from_owned`]) so it can move into the writer
    /// thread.
    ///
    /// # Errors
    /// Propagates snapshot construction failures.
    pub fn new(
        mut session: SglSession<'static>,
        opts: ServeOptions,
    ) -> Result<SglServer, ServeError> {
        let initial = GraphSnapshot::from_session(&mut session, opts.clusters, 0)?;
        let shared = Arc::new(Shared {
            cell: SnapshotCell::new(Arc::new(initial)),
            queries: AtomicU64::new(0),
            solves: AtomicU64::new(0),
            latency: sgl_trace::Histogram::new(),
            snapshots_published: AtomicU64::new(0),
            measurements_ingested: AtomicU64::new(0),
            batches_quarantined: AtomicU64::new(0),
            batches_rejected: AtomicU64::new(0),
            pending_batches: AtomicU64::new(0),
            ingest_watermark: opts.max_pending_batches as u64,
            writer_restarts: AtomicU64::new(0),
        });
        let (tx, rx) = mpsc::channel();
        let writer_shared = Arc::clone(&shared);
        let writer = std::thread::Builder::new()
            .name("sgl-serve-writer".into())
            .spawn(move || writer_loop(session, writer_shared, opts, rx))
            .map_err(|e| ServeError::Sgl(format!("failed to spawn writer thread: {e}")))?;
        Ok(SglServer {
            shared,
            ingest_tx: Some(tx),
            writer: Some(writer),
        })
    }

    /// A cheap, cloneable, `Send` read handle.
    pub fn handle(&self) -> ServeHandle {
        ServeHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Queue a measurement batch for the writer. Returns as soon as the
    /// batch is enqueued; the refreshed snapshot appears asynchronously
    /// (use [`flush`](Self::flush) to wait for it).
    ///
    /// The batch is validated at this boundary: a node count that does
    /// not match the served graph is rejected (and counted in
    /// [`ServeStats::batches_quarantined`]) before it can reach the
    /// writer. Non-finite values cannot arrive at all —
    /// [`Measurements`]' constructors reject them. The writer's queue is
    /// bounded: past [`ServeOptions::max_pending_batches`] queued
    /// batches, ingest sheds instead of buffering without limit.
    ///
    /// # Errors
    /// [`ServeError::BadQuery`] for a mismatched batch;
    /// [`ServeError::IngestBackpressure`] at the queue watermark;
    /// [`ServeError::Closed`] when the writer has exited (after
    /// shutdown).
    pub fn ingest(&self, batch: Measurements) -> Result<(), ServeError> {
        let nodes = self.shared.cell.load().1.num_nodes();
        if batch.num_nodes() != nodes {
            note_quarantine(&self.shared);
            return Err(ServeError::BadQuery(format!(
                "ingest batch has {} nodes; server is learning a {nodes}-node graph",
                batch.num_nodes()
            )));
        }
        // Claim a queue slot before sending so concurrent ingests cannot
        // overshoot the watermark; release it on rejection or send
        // failure (the writer releases it after absorbing the batch).
        let watermark = self.shared.ingest_watermark;
        let pending = self.shared.pending_batches.fetch_add(1, Ordering::Relaxed) + 1;
        if watermark > 0 && pending > watermark {
            self.shared.pending_batches.fetch_sub(1, Ordering::Relaxed);
            self.shared.batches_rejected.fetch_add(1, Ordering::Relaxed);
            sgl_trace::count("serve.ingest_rejected", 1);
            return Err(ServeError::IngestBackpressure {
                pending: pending - 1,
                limit: watermark,
            });
        }
        let send = self
            .ingest_tx
            .as_ref()
            .ok_or(ServeError::Closed)
            .and_then(|tx| {
                tx.send(WriterMsg::Ingest(batch))
                    .map_err(|_| ServeError::Closed)
            });
        if send.is_err() {
            self.shared.pending_batches.fetch_sub(1, Ordering::Relaxed);
        }
        send
    }

    /// Block until the writer has processed everything queued so far —
    /// on return, the latest published snapshot reflects all prior
    /// [`ingest`](Self::ingest) calls.
    ///
    /// # Errors
    /// [`ServeError::Closed`] when the writer has exited.
    pub fn flush(&self) -> Result<(), ServeError> {
        let tx = self.ingest_tx.as_ref().ok_or(ServeError::Closed)?;
        let (ack_tx, ack_rx) = mpsc::channel();
        tx.send(WriterMsg::Flush(ack_tx))
            .map_err(|_| ServeError::Closed)?;
        ack_rx.recv().map_err(|_| ServeError::Closed)
    }

    /// Current counters (see [`ServeStats`]).
    pub fn stats(&self) -> ServeStats {
        self.handle().stats()
    }

    /// Stop the writer and hand the learning session back out — the
    /// handoff mirror of [`SglServer::new`]. Outstanding handles keep
    /// answering queries from the last snapshot.
    ///
    /// # Drain ordering
    ///
    /// Shutdown is a deterministic three-step drain:
    ///
    /// 1. **Stop-accept** — the ingest sender is dropped; every
    ///    subsequent [`ingest`](Self::ingest)/[`flush`](Self::flush)
    ///    fails with [`ServeError::Closed`].
    /// 2. **Flush** — the writer keeps receiving until the queue is
    ///    empty, absorbing every batch that was accepted before step 1
    ///    through the same quarantine/restart machinery as live ingest.
    ///    The [`max_pending_batches`](ServeOptions::max_pending_batches)
    ///    watermark bounds how much work this step can represent.
    /// 3. **Handoff** — the writer thread exits and the session is
    ///    returned, ready for [`SglSession::finish`].
    ///
    /// On the healthy path no accepted batch is silently dropped: each
    /// is either absorbed (its measurement columns are present in the
    /// returned session) or accounted for in
    /// [`ServeStats::batches_quarantined`] — including batches absorbed
    /// through a writer restart after an injected or real panic.
    ///
    /// # Errors
    /// The writer's ingest error, if it exited early.
    pub fn shutdown(mut self) -> Result<SglSession<'static>, ServeError> {
        drop(self.ingest_tx.take());
        let writer = self.writer.take().expect("writer joined exactly once");
        writer
            .join()
            .map_err(|_| ServeError::Sgl("writer thread panicked".into()))?
    }
}

impl Drop for SglServer {
    fn drop(&mut self) {
        drop(self.ingest_tx.take());
        if let Some(writer) = self.writer.take() {
            let _ = writer.join();
        }
    }
}

/// Extend the session with one validated batch, run the bounded
/// refinement sweeps, and publish the refreshed snapshot. Any error
/// leaves the last published snapshot in place.
fn absorb_batch(
    session: &mut SglSession<'static>,
    batch: &Measurements,
    shared: &Shared,
    opts: &ServeOptions,
) -> Result<(), ServeError> {
    session.extend_measurements(batch)?;
    for _ in 0..opts.refresh_iters {
        if session.is_done() {
            break;
        }
        session.step()?;
    }
    let next = shared.cell.version() + 1;
    let snapshot = GraphSnapshot::from_session(session, opts.clusters, next)?;
    shared.cell.publish(Arc::new(snapshot));
    sgl_trace::trace_event!("publish", count = next);
    sgl_trace::count("serve.publishes", 1);
    shared.snapshots_published.fetch_add(1, Ordering::Relaxed);
    shared
        .measurements_ingested
        .fetch_add(batch.num_measurements() as u64, Ordering::Relaxed);
    Ok(())
}

/// The supervised writer: each ingest runs inside a panic boundary.
///
/// * An absorb **error** quarantines the batch (counted; the session
///   keeps serving and later ingests proceed).
/// * An absorb **panic** — injected via [`FaultKind::WriterPanic`] or
///   real — discards the possibly half-mutated session, rebuilds a
///   fresh one from the accumulated measurements, re-absorbs the batch
///   once, and keeps serving. Readers never notice: snapshots are
///   published only after a rebuild fully succeeds, so the last good
///   snapshot serves throughout (zero torn reads — the
///   [`SnapshotCell`] swap is all-or-nothing).
fn writer_loop(
    mut session: SglSession<'static>,
    shared: Arc<Shared>,
    opts: ServeOptions,
    rx: mpsc::Receiver<WriterMsg>,
) -> Result<SglSession<'static>, ServeError> {
    // Everything needed to resurrect the writer after a panic: the
    // config (with the strategy currently in force) and every
    // measurement column absorbed so far.
    let mut config = session.config().clone();
    let mut accumulated = session.measurements().clone();
    while let Ok(msg) = rx.recv() {
        match msg {
            WriterMsg::Ingest(batch) => {
                let _ingest_sp = sgl_trace::span!("ingest", count = batch.num_measurements());
                sgl_trace::count("serve.ingest_batches", 1);
                let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
                    if let Some(plan) = &opts.fault_plan {
                        if plan.should_fire(FaultKind::WriterPanic) {
                            panic!("injected writer panic");
                        }
                    }
                    absorb_batch(&mut session, &batch, &shared, &opts)
                }));
                match outcome {
                    Ok(Ok(())) => {
                        accumulated = accumulated.hstack(&batch)?;
                        config = session.config().clone();
                    }
                    Ok(Err(_)) => {
                        // Absorb failed cleanly: quarantine the batch,
                        // keep the session and the served snapshot.
                        note_quarantine(&shared);
                    }
                    Err(_) => {
                        // The writer panicked mid-absorb. The session
                        // may be half-mutated — rebuild it from the
                        // accumulated measurements and retry the batch
                        // once; if that fails too, quarantine it.
                        sgl_trace::trace_event!("writer_restart");
                        sgl_trace::count("serve.writer_restarts", 1);
                        shared.writer_restarts.fetch_add(1, Ordering::Relaxed);
                        let mut rebuilt =
                            SglSession::from_owned(config.clone(), accumulated.clone())?;
                        if let Some(plan) = &opts.fault_plan {
                            rebuilt.set_fault_plan(Arc::clone(plan));
                        }
                        rebuilt.run_to_completion()?;
                        session = rebuilt;
                        match absorb_batch(&mut session, &batch, &shared, &opts) {
                            Ok(()) => {
                                accumulated = accumulated.hstack(&batch)?;
                                config = session.config().clone();
                            }
                            Err(_) => {
                                note_quarantine(&shared);
                            }
                        }
                    }
                }
                // Release the queue slot claimed by `ingest` — the batch
                // has been fully absorbed, quarantined, or retried.
                shared.pending_batches.fetch_sub(1, Ordering::Relaxed);
            }
            WriterMsg::Flush(ack) => {
                let _ = ack.send(());
            }
        }
    }
    Ok(session)
}

/// A read-only query handle (see the [module docs](self)). Clone freely
/// and move clones into reader threads.
#[derive(Debug, Clone)]
pub struct ServeHandle {
    shared: Arc<Shared>,
}

impl ServeHandle {
    /// Pin the current snapshot. Everything computed from the returned
    /// `Arc` stays on this one version regardless of later publishes.
    pub fn snapshot(&self) -> Arc<GraphSnapshot> {
        self.shared.cell.load().1
    }

    /// Version of the currently served snapshot.
    pub fn version(&self) -> u64 {
        self.shared.cell.version()
    }

    /// Effective resistances for `pairs`.
    ///
    /// # Errors
    /// See [`GraphSnapshot::resistances`].
    pub fn resistances(
        &self,
        pairs: &[(usize, usize)],
    ) -> Result<QueryResponse<Vec<f64>>, ServeError> {
        self.solve_query(|snap| snap.resistances(pairs))
    }

    /// Interpolate node voltages from one current-injection vector.
    ///
    /// # Errors
    /// See [`GraphSnapshot::interpolate`].
    pub fn interpolate(&self, injections: &[f64]) -> Result<QueryResponse<Vec<f64>>, ServeError> {
        let mut r = self.interpolate_batch(std::slice::from_ref(&injections.to_vec()))?;
        Ok(QueryResponse {
            version: r.version,
            value: r.value.pop().expect("one RHS in, one solution out"),
        })
    }

    /// Batch form of [`interpolate`](Self::interpolate).
    ///
    /// # Errors
    /// See [`GraphSnapshot::interpolate_batch`].
    pub fn interpolate_batch(
        &self,
        injections: &[Vec<f64>],
    ) -> Result<QueryResponse<Vec<Vec<f64>>>, ServeError> {
        self.solve_query(|snap| snap.interpolate_batch(injections))
    }

    /// Answer a solve-backed query on the calling thread against one
    /// snapshot load, inside a `query` span and timed into
    /// [`ServeStats::query_latency_p50_ms`].
    fn solve_query<T>(
        &self,
        solve: impl FnOnce(&GraphSnapshot) -> Result<T, ServeError>,
    ) -> Result<QueryResponse<T>, ServeError> {
        let _query_sp = sgl_trace::span!("query");
        let started = Instant::now();
        self.count_query();
        let (version, snap) = self.shared.cell.load();
        let value = solve(&snap)?;
        self.shared
            .latency
            .record(started.elapsed().as_nanos() as u64);
        self.shared.solves.fetch_add(1, Ordering::Relaxed);
        Ok(QueryResponse { version, value })
    }

    /// Spectral coordinates of `node`.
    ///
    /// # Errors
    /// [`ServeError::BadQuery`] when `node` is out of range.
    pub fn embedding_coords(&self, node: usize) -> Result<QueryResponse<Vec<f64>>, ServeError> {
        self.count_query();
        let (version, snap) = self.shared.cell.load();
        let value = snap.embedding_coords(node)?.to_vec();
        Ok(QueryResponse { version, value })
    }

    /// Squared spectral-embedding distance between two nodes.
    ///
    /// # Errors
    /// [`ServeError::BadQuery`] when either node is out of range.
    pub fn embedding_distance_sq(
        &self,
        s: usize,
        t: usize,
    ) -> Result<QueryResponse<f64>, ServeError> {
        self.count_query();
        let (version, snap) = self.shared.cell.load();
        let value = snap.embedding_distance_sq(s, t)?;
        Ok(QueryResponse { version, value })
    }

    /// Cluster label of `node` in the snapshot's embedding clustering.
    ///
    /// # Errors
    /// [`ServeError::BadQuery`] when `node` is out of range.
    pub fn cluster_of(&self, node: usize) -> Result<QueryResponse<usize>, ServeError> {
        self.count_query();
        let (version, snap) = self.shared.cell.load();
        let value = snap.cluster_of(node)?;
        Ok(QueryResponse { version, value })
    }

    /// Index of the centroid nearest to `point` in embedding space.
    ///
    /// # Errors
    /// [`ServeError::BadQuery`] when `point` has the wrong width.
    pub fn nearest_cluster(&self, point: &[f64]) -> Result<QueryResponse<usize>, ServeError> {
        self.count_query();
        let (version, snap) = self.shared.cell.load();
        let value = snap.nearest_cluster(point)?;
        Ok(QueryResponse { version, value })
    }

    /// Current counters (see [`ServeStats`]).
    pub fn stats(&self) -> ServeStats {
        let ms = |ns: u64| ns as f64 / 1e6;
        let (version, snap) = self.shared.cell.load();
        ServeStats {
            version,
            snapshots_published: self.shared.snapshots_published.load(Ordering::Relaxed),
            measurements_ingested: self.shared.measurements_ingested.load(Ordering::Relaxed),
            queries_answered: self.shared.queries.load(Ordering::Relaxed),
            batches_executed: self.shared.solves.load(Ordering::Relaxed),
            query_retries: 0,
            deadline_misses: 0,
            query_latency_p50_ms: ms(self.shared.latency.percentile(50.0)),
            query_latency_p99_ms: ms(self.shared.latency.percentile(99.0)),
            queue_wait_p99_ms: 0.0,
            batches_quarantined: self.shared.batches_quarantined.load(Ordering::Relaxed),
            batches_rejected: self.shared.batches_rejected.load(Ordering::Relaxed),
            pending_batches: self.shared.pending_batches.load(Ordering::Relaxed),
            writer_restarts: self.shared.writer_restarts.load(Ordering::Relaxed),
            revision: snap.revision_stats(),
        }
    }

    fn count_query(&self) {
        self.shared.queries.fetch_add(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgl_core::SglConfig;
    use sgl_solver::SolverPolicy;

    fn serving() -> (SglServer, sgl_graph::Graph) {
        let truth = sgl_datasets::grid2d(5, 5);
        let meas = Measurements::generate(&truth, 10, 3).unwrap();
        let cfg = SglConfig::builder()
            .k(4)
            .r(4)
            .tol(0.0)
            .max_iterations(3)
            .build()
            .unwrap();
        let mut session = SglSession::from_owned(cfg, meas).unwrap();
        session.run_to_completion().unwrap();
        (
            SglServer::new(session, ServeOptions::default()).unwrap(),
            truth,
        )
    }

    #[test]
    fn ingest_publishes_and_shutdown_hands_session_back() {
        let (server, truth) = serving();
        let reader = server.handle();
        assert_eq!(reader.version(), 0);

        let before = reader.resistances(&[(0, 12), (3, 21)]).unwrap();
        assert_eq!(before.version, 0);

        server
            .ingest(Measurements::generate(&truth, 4, 5).unwrap())
            .unwrap();
        server
            .ingest(Measurements::generate(&truth, 4, 6).unwrap())
            .unwrap();
        server.flush().unwrap();
        assert_eq!(reader.version(), 2);

        // Queries now answer from the refreshed snapshot...
        let after = reader.resistances(&[(0, 12), (3, 21)]).unwrap();
        assert_eq!(after.version, 2);
        // ...while a pinned snapshot keeps serving its own version.
        let pinned = reader.snapshot();
        assert_eq!(pinned.version(), 2);
        // Each publish built a fresh handle for its graph revision: the
        // snapshot serves exactly what the policy builds for that graph
        // (the exact near-tree PCG on this fixture), one PCG iteration
        // per solve.
        let fresh = SolverPolicy::default()
            .build_handle(pinned.graph())
            .unwrap();
        assert_eq!(fresh.method_name(), "tree-pcg");
        assert_eq!(pinned.handle().method_name(), fresh.method_name());
        let stats_before = pinned.handle().stats();
        pinned
            .resistances(&sgl_core::sample_node_pairs(25, 8, 11))
            .unwrap();
        let stats_after = pinned.handle().stats();
        let solves = stats_after.solves - stats_before.solves;
        assert!(solves > 0, "the resistance query solved nothing");
        assert_eq!(
            stats_after.iterations - stats_before.iterations,
            solves,
            "one PCG iteration per solve"
        );

        let stats = server.stats();
        assert_eq!(stats.snapshots_published, 2);
        assert_eq!(stats.measurements_ingested, 8);
        assert!(stats.queries_answered >= 2);
        assert!(stats.batches_executed >= 2);

        // Handoff out: the session owns all 18 measurement columns and
        // can still finish into a LearnResult.
        let session = server.shutdown().unwrap();
        assert_eq!(session.measurements().num_measurements(), 18);
        let result = session.finish().unwrap();
        assert_eq!(result.graph.num_nodes(), 25);

        // The reader outlives the server and keeps answering.
        assert_eq!(reader.resistances(&[(0, 12)]).unwrap().version, 2);
    }

    #[test]
    fn ingest_after_shutdown_reports_closed() {
        let (server, truth) = serving();
        let reader = server.handle();
        drop(server);
        // Readers survive; only the write path is gone.
        assert!(reader.embedding_coords(0).is_ok());
        let _ = truth;
    }

    #[test]
    fn mismatched_ingest_is_quarantined_not_fatal() {
        let (server, truth) = serving();
        let reader = server.handle();
        // A wrong-sized batch is rejected at the ingest boundary...
        let other = sgl_datasets::grid2d(3, 3);
        let bad = Measurements::generate(&other, 3, 1).unwrap();
        assert!(matches!(server.ingest(bad), Err(ServeError::BadQuery(_))));
        assert_eq!(server.stats().batches_quarantined, 1);
        // ...and the server keeps serving and ingesting.
        server.flush().unwrap();
        server
            .ingest(Measurements::generate(&truth, 2, 9).unwrap())
            .unwrap();
        server.flush().unwrap();
        assert_eq!(reader.version(), 1);
        assert!(reader.resistances(&[(0, 1)]).is_ok());
        let session = server.shutdown().unwrap();
        // The quarantined batch never touched the session.
        assert_eq!(session.measurements().num_measurements(), 12);
    }

    /// The shutdown contract: batches accepted before the stop are all
    /// absorbed (never silently dropped) before the session is handed
    /// back — stop-accept → flush → handoff, with no interleaved flush
    /// call needed from the caller.
    #[test]
    fn shutdown_drains_queued_batches_before_handoff() {
        let (server, truth) = serving();
        for seed in 0..3 {
            server
                .ingest(Measurements::generate(&truth, 2, 20 + seed).unwrap())
                .unwrap();
        }
        // No flush: shutdown itself must drain all three queued batches.
        let session = server.shutdown().unwrap();
        assert_eq!(session.measurements().num_measurements(), 10 + 3 * 2);
    }

    /// Same drain contract across a poisoned writer: a batch that trips
    /// an injected panic is re-absorbed through the restart path during
    /// the drain, so the handed-back session still owns every accepted
    /// column.
    #[test]
    fn shutdown_drain_survives_injected_writer_panic() {
        let truth = sgl_datasets::grid2d(5, 5);
        let meas = Measurements::generate(&truth, 10, 3).unwrap();
        let cfg = SglConfig::builder()
            .k(4)
            .r(4)
            .tol(0.0)
            .max_iterations(3)
            .build()
            .unwrap();
        let mut session = SglSession::from_owned(cfg, meas).unwrap();
        session.run_to_completion().unwrap();
        let plan = Arc::new(FaultPlan::new().with_fault(FaultKind::WriterPanic, 1));
        let opts = ServeOptions {
            fault_plan: Some(Arc::clone(&plan)),
            ..ServeOptions::default()
        };
        let server = SglServer::new(session, opts).unwrap();
        for seed in 0..3 {
            server
                .ingest(Measurements::generate(&truth, 2, 30 + seed).unwrap())
                .unwrap();
        }
        let stats = server.stats();
        let session = server.shutdown().unwrap();
        assert_eq!(session.measurements().num_measurements(), 10 + 3 * 2);
        // The panic fired during the drain (or just before); either way
        // nothing was quarantined on this healthy-retry path.
        assert_eq!(stats.batches_rejected, 0);
        assert_eq!(plan.injected_count(), 1);
    }

    /// Past the `max_pending_batches` watermark, ingest sheds with
    /// `IngestBackpressure` instead of queueing without bound, and the
    /// server keeps serving and absorbing what it did accept.
    #[test]
    fn ingest_sheds_at_the_pending_watermark() {
        let truth = sgl_datasets::grid2d(5, 5);
        let meas = Measurements::generate(&truth, 10, 3).unwrap();
        let cfg = SglConfig::builder()
            .k(4)
            .r(4)
            .tol(0.0)
            .max_iterations(3)
            .build()
            .unwrap();
        let mut session = SglSession::from_owned(cfg, meas).unwrap();
        session.run_to_completion().unwrap();
        let opts = ServeOptions {
            max_pending_batches: 1,
            ..ServeOptions::default()
        };
        let server = SglServer::new(session, opts).unwrap();

        // Flood faster than the writer can absorb: with a watermark of
        // one, rejections must appear long before 64 sends complete.
        let mut accepted = 0usize;
        let mut rejected = 0usize;
        for seed in 0..64 {
            match server.ingest(Measurements::generate(&truth, 1, 100 + seed).unwrap()) {
                Ok(()) => accepted += 1,
                Err(ServeError::IngestBackpressure { limit, .. }) => {
                    assert_eq!(limit, 1);
                    rejected += 1;
                }
                Err(e) => panic!("unexpected ingest error: {e}"),
            }
        }
        assert!(rejected > 0, "watermark of 1 never shed under a flood");
        let stats = server.stats();
        assert_eq!(stats.batches_rejected as usize, rejected);
        assert!(stats.pending_batches <= 1);
        // Shed batches never reached the writer; accepted ones all land.
        let reader = server.handle();
        assert!(reader.resistances(&[(0, 24)]).is_ok());
        let session = server.shutdown().unwrap();
        assert_eq!(session.measurements().num_measurements(), 10 + accepted);
    }

    #[test]
    fn injected_writer_panic_restarts_and_keeps_serving() {
        let truth = sgl_datasets::grid2d(5, 5);
        let meas = Measurements::generate(&truth, 10, 3).unwrap();
        let cfg = SglConfig::builder()
            .k(4)
            .r(4)
            .tol(0.0)
            .max_iterations(3)
            .build()
            .unwrap();
        let mut session = SglSession::from_owned(cfg, meas).unwrap();
        session.run_to_completion().unwrap();
        let plan = Arc::new(FaultPlan::seeded(7).with_fault(FaultKind::WriterPanic, 1));
        let opts = ServeOptions {
            fault_plan: Some(Arc::clone(&plan)),
            ..ServeOptions::default()
        };
        let server = SglServer::new(session, opts).unwrap();
        let reader = server.handle();

        // First ingest trips the injected panic; the supervisor rebuilds
        // the writer and re-absorbs the batch.
        server
            .ingest(Measurements::generate(&truth, 4, 5).unwrap())
            .unwrap();
        server.flush().unwrap();
        let stats = server.stats();
        assert_eq!(stats.writer_restarts, 1);
        assert_eq!(stats.batches_quarantined, 0);
        assert!(reader.version() >= 1);
        assert!(reader.resistances(&[(0, 24)]).is_ok());

        // A second ingest sails through the recovered writer.
        server
            .ingest(Measurements::generate(&truth, 4, 6).unwrap())
            .unwrap();
        server.flush().unwrap();
        let session = server.shutdown().unwrap();
        assert_eq!(session.measurements().num_measurements(), 18);
        assert!(plan.injected_count() >= 1);
    }
}
