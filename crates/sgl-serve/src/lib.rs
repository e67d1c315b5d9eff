//! sgl-serve: concurrent snapshot-based query serving for learned SGL
//! graphs.
//!
//! The learner ([`sgl_core::SglSession`]) mutates a graph in place;
//! this crate puts a read/write split in front of it so the learned
//! model can answer queries **while it keeps learning** from streamed
//! measurements:
//!
//! - **Immutable snapshots** ([`GraphSnapshot`]): graph + solver
//!   handle + spectral embedding + resistance estimator + clustering,
//!   all behind one `Arc`. A query touches exactly one snapshot —
//!   never a half-published mix.
//! - **Lock-free reads** ([`epoch::SnapshotCell`]): publishing a new
//!   snapshot is an epoch-tagged pointer swap built on `std` atomics;
//!   readers never take a lock and never block on the writer.
//! - **Micro-batching** ([`batch`]): concurrent resistance and
//!   interpolation queries coalesce into single
//!   [`solve_batch`](sgl_solver::SolverHandle::solve_batch) fan-outs —
//!   safe because every right-hand side is solved independently, so
//!   batch composition cannot change an answer.
//! - **Streaming ingest** ([`SglServer::ingest`]): a writer thread owns
//!   the session, absorbs measurement batches via
//!   [`SglSession::extend_measurements`](sgl_core::SglSession::extend_measurements),
//!   runs bounded refinement sweeps, and publishes a refreshed
//!   snapshot. A refresh builds one solver handle for the new graph
//!   revision; on the near-trees SGL learns that is the exact near-tree
//!   preconditioner, one PCG iteration per solve.
//!
//! # Resilience
//!
//! The serving layer is built to degrade, not die:
//!
//! - **Supervised writer** — the writer thread wraps each ingest in a
//!   panic boundary; on a panic it rebuilds the session from the
//!   accumulated measurements and keeps serving ([`ServeStats::writer_restarts`]).
//!   Readers never see a torn snapshot either way: a publish is an
//!   all-or-nothing `Arc` swap.
//! - **Ingest quarantine** — batches that fail validation (node-count
//!   mismatch at [`SglServer::ingest`], or any absorb failure inside
//!   the writer) are dropped and counted
//!   ([`ServeStats::batches_quarantined`]); the session and the served
//!   snapshot are untouched.
//! - **Deadlines and bounded retries** — micro-batched queries retry
//!   transient solver failures with backoff
//!   ([`ServeOptions::max_retries`]) and waiting followers give up
//!   after [`ServeOptions::deadline`] — or a tighter per-request
//!   deadline ([`ServeHandle::resistances_with_deadline`]) — with
//!   [`ServeError::DeadlineExceeded`] instead of blocking forever.
//! - **Ingest backpressure** — the writer's queue is bounded by
//!   [`ServeOptions::max_pending_batches`]; past the watermark, ingest
//!   sheds with [`ServeError::IngestBackpressure`]
//!   ([`ServeStats::batches_rejected`]) instead of queueing without
//!   limit.
//! - **Deterministic fault injection** — [`ServeOptions::fault_plan`]
//!   threads an [`sgl_core::FaultPlan`] into the query path so all of
//!   the above can be exercised on schedule in tests and benches.
//!
//! # Quickstart
//!
//! ```
//! use sgl_core::{Measurements, SglConfig, SglSession};
//! use sgl_serve::{ServeOptions, SglServer};
//!
//! // Learn an initial model from the first measurement batch...
//! let truth = sgl_datasets::grid2d(5, 5);
//! let first = Measurements::generate(&truth, 10, 1)?;
//! let cfg = SglConfig::builder().k(4).r(4).tol(0.0).max_iterations(3).build()?;
//! let mut session = SglSession::from_owned(cfg, first)?;
//! session.run_to_completion()?;
//!
//! // ...serve it, streaming more measurements in behind the readers.
//! let server = SglServer::new(session, ServeOptions::default())?;
//! let reader = server.handle();
//! let before = reader.resistances(&[(0, 24)])?;
//!
//! server.ingest(Measurements::generate(&truth, 5, 2)?)?;
//! server.flush()?; // wait for the refreshed snapshot
//!
//! let after = reader.resistances(&[(0, 24)])?;
//! assert!(after.version > before.version);
//!
//! // Hand the session back out to finish learning offline.
//! let session = server.shutdown()?;
//! let result = session.finish()?;
//! assert_eq!(result.graph.num_nodes(), 25);
//! # Ok::<(), sgl_serve::ServeError>(())
//! ```
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod batch;
pub mod epoch;
pub mod server;
pub mod snapshot;

pub use batch::BatchStats;
pub use epoch::SnapshotCell;
pub use server::{QueryResponse, ServeHandle, ServeOptions, ServeStats, SglServer};
pub use snapshot::GraphSnapshot;

use sgl_core::SglError;

/// Errors surfaced by the serving layer.
///
/// `Clone` so the micro-batcher can replicate one shared-solve failure
/// to every request that joined the batch; the learning-layer cause is
/// carried as its rendered message for the same reason
/// ([`SglError`] itself is not `Clone`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// A learning- or solver-layer failure, rendered.
    Sgl(String),
    /// A malformed query (out-of-range node, wrong vector width, ...).
    BadQuery(String),
    /// The writer thread has exited; ingest and flush are no longer
    /// possible (readers keep the last snapshot).
    Closed,
    /// A micro-batched query waited past [`ServeOptions::deadline`]
    /// (or the tighter per-request deadline passed to
    /// [`ServeHandle::resistances_with_deadline`]) without an answer
    /// (its leader's solve stalled or is retrying); the request is
    /// abandoned — the caller may resubmit.
    ///
    /// [`ServeOptions::deadline`]: crate::ServeOptions::deadline
    /// [`ServeHandle::resistances_with_deadline`]: crate::ServeHandle::resistances_with_deadline
    DeadlineExceeded {
        /// The effective deadline, in milliseconds.
        deadline_ms: u64,
    },
    /// The writer's ingest queue is at
    /// [`ServeOptions::max_pending_batches`]; the batch was shed instead
    /// of queued ([`ServeStats::batches_rejected`]). Back off and
    /// resubmit — queries are unaffected.
    ///
    /// [`ServeOptions::max_pending_batches`]: crate::ServeOptions::max_pending_batches
    /// [`ServeStats::batches_rejected`]: crate::ServeStats::batches_rejected
    IngestBackpressure {
        /// Batches queued (including the one being absorbed) when the
        /// watermark check failed.
        pending: u64,
        /// The configured watermark.
        limit: u64,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Sgl(msg) => write!(f, "learning-layer failure: {msg}"),
            ServeError::BadQuery(msg) => write!(f, "bad query: {msg}"),
            ServeError::Closed => write!(f, "serving writer has shut down"),
            ServeError::DeadlineExceeded { deadline_ms } => {
                write!(f, "query deadline of {deadline_ms} ms exceeded")
            }
            ServeError::IngestBackpressure { pending, limit } => {
                write!(
                    f,
                    "ingest queue is full ({pending} batches pending, watermark {limit}); \
                     batch shed — back off and resubmit"
                )
            }
        }
    }
}

impl std::error::Error for ServeError {}

impl From<SglError> for ServeError {
    fn from(e: SglError) -> Self {
        ServeError::Sgl(e.to_string())
    }
}
