//! [`GraphSnapshot`]: one immutable, fully-materialized view of a
//! learned graph, answering every query the server offers from shared
//! references alone.
//!
//! A snapshot owns everything a query needs — the graph, a read-only
//! [`SolverHandle`], the spectral [`Embedding`], a
//! [`ResistanceEstimator`], and a k-means clustering of the embedding —
//! so readers never reach back into the (mutating) learning session.
//! Snapshots are built by the writer from a paused [`SglSession`] and
//! published through a [`SnapshotCell`](crate::epoch::SnapshotCell);
//! the `Arc<dyn SolverHandle>` inside is revision-stable: a handle is
//! immutable, and later revisions on the session's
//! [`SolverContext`](sgl_solver::SolverContext) get handles of their
//! own.
//!
//! The snapshot's graph carries the learner's *working* weights: final
//! spectral edge scaling (step 5 of the paper's flow) only runs in
//! [`SglSession::finish`], which the serving loop never calls while
//! ingest continues.

use std::sync::Arc;

use sgl_core::clustering::{kmeans, KMeansResult};
use sgl_core::{Embedding, ResistanceEstimator, SglError, SglSession};
use sgl_graph::Graph;
use sgl_linalg::vecops;
use sgl_solver::{RevisionStats, SolverHandle};

use crate::ServeError;

/// Lloyd iteration cap for the snapshot's embedding clustering.
const KMEANS_MAX_ITER: usize = 100;

/// Right-hand sides per `solve_batch` call. Bounds one query's solve
/// memory to `SOLVE_CHUNK × n` values however many pairs or vectors it
/// carries; every column is solved independently, so chunk boundaries
/// cannot change an answer.
const SOLVE_CHUNK: usize = 64;

/// An immutable serving view of a learned graph (see the [module
/// docs](self)).
#[derive(Clone)]
pub struct GraphSnapshot {
    version: u64,
    graph: Graph,
    handle: Arc<dyn SolverHandle>,
    embedding: Embedding,
    estimator: Arc<dyn ResistanceEstimator>,
    clusters: KMeansResult,
    num_measurements: usize,
    iterations: usize,
    revision_stats: RevisionStats,
}

impl std::fmt::Debug for GraphSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GraphSnapshot")
            .field("version", &self.version)
            .field("num_nodes", &self.num_nodes())
            .field("num_edges", &self.graph.num_edges())
            .field("num_measurements", &self.num_measurements)
            .field("solver", &self.handle.method_name())
            .field("estimator", &self.estimator.name())
            .finish()
    }
}

impl GraphSnapshot {
    /// Materialize a snapshot from the session's current state.
    ///
    /// Ensures the embedding and solver handle are current (building
    /// them if the session has not stepped since the last ingest), then
    /// clones out everything a reader needs. `clusters` is clamped to
    /// `1..=num_nodes`.
    ///
    /// # Errors
    /// Propagates embedding / solver / estimator construction failures.
    pub fn from_session(
        session: &mut SglSession<'_>,
        clusters: usize,
        version: u64,
    ) -> Result<Self, ServeError> {
        let embedding = session.current_embedding()?.clone();
        let handle = session.solver_handle()?;
        let estimator: Arc<dyn ResistanceEstimator> = Arc::from(session.resistance_estimator()?);
        let k = clusters.clamp(1, embedding.num_nodes());
        let clusters = kmeans(&embedding.coords, k, session.config().seed, KMEANS_MAX_ITER);
        Ok(GraphSnapshot {
            version,
            graph: session.graph().clone(),
            handle,
            embedding,
            estimator,
            clusters,
            num_measurements: session.measurements().num_measurements(),
            iterations: session.trace().len(),
            revision_stats: session.solver_context().revision_stats(),
        })
    }

    /// The publish version this snapshot was built for (0 = initial).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Number of nodes served.
    pub fn num_nodes(&self) -> usize {
        self.graph.num_nodes()
    }

    /// The learned graph at snapshot time.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The spectral embedding at snapshot time.
    pub fn embedding(&self) -> &Embedding {
        &self.embedding
    }

    /// The shared solver handle (read-only; revision-stable).
    pub fn handle(&self) -> &Arc<dyn SolverHandle> {
        &self.handle
    }

    /// The embedding clustering.
    pub fn clusters(&self) -> &KMeansResult {
        &self.clusters
    }

    /// Measurement columns the session had absorbed when this snapshot
    /// was cut.
    pub fn num_measurements(&self) -> usize {
        self.num_measurements
    }

    /// Learning iterations the session had completed at snapshot time.
    pub fn iterations(&self) -> usize {
        self.iterations
    }

    /// The session solver context's revision counters at snapshot time
    /// (handles built and ladder downgrades).
    pub fn revision_stats(&self) -> RevisionStats {
        self.revision_stats
    }

    /// Spectral coordinates of `node` (an `r−1`-vector).
    ///
    /// # Errors
    /// [`ServeError::BadQuery`] when `node` is out of range.
    pub fn embedding_coords(&self, node: usize) -> Result<&[f64], ServeError> {
        self.check_node(node)?;
        Ok(self.embedding.coords.row(node))
    }

    /// Squared spectral-embedding distance between two nodes.
    ///
    /// # Errors
    /// [`ServeError::BadQuery`] when either node is out of range.
    pub fn embedding_distance_sq(&self, s: usize, t: usize) -> Result<f64, ServeError> {
        self.check_node(s)?;
        self.check_node(t)?;
        Ok(self.embedding.distance_sq(s, t))
    }

    /// Cluster label of `node`.
    ///
    /// # Errors
    /// [`ServeError::BadQuery`] when `node` is out of range.
    pub fn cluster_of(&self, node: usize) -> Result<usize, ServeError> {
        self.check_node(node)?;
        Ok(self.clusters.labels[node])
    }

    /// Index of the centroid nearest to `point` (in embedding space);
    /// ties break to the lowest index.
    ///
    /// # Errors
    /// [`ServeError::BadQuery`] when `point` is not `r−1`-dimensional.
    pub fn nearest_cluster(&self, point: &[f64]) -> Result<usize, ServeError> {
        if point.len() != self.embedding.width() {
            return Err(ServeError::BadQuery(format!(
                "query point has {} coordinates; embedding width is {}",
                point.len(),
                self.embedding.width()
            )));
        }
        let mut best = 0usize;
        let mut best_d = f64::INFINITY;
        for c in 0..self.clusters.centroids.nrows() {
            let d = vecops::dist_sq(self.clusters.centroids.row(c), point);
            if d < best_d {
                best_d = d;
                best = c;
            }
        }
        Ok(best)
    }

    /// Effective resistances for a batch of node pairs, all answered
    /// against this snapshot's graph, 64 pairs per batched solve.
    ///
    /// # Errors
    /// [`ServeError::BadQuery`] on an out-of-range or degenerate pair,
    /// [`ServeError::Sgl`] when the solve fails.
    pub fn resistances(&self, pairs: &[(usize, usize)]) -> Result<Vec<f64>, ServeError> {
        let mut out = Vec::with_capacity(pairs.len());
        for chunk in pairs.chunks(SOLVE_CHUNK) {
            let values = self.estimator.resistances(chunk).map_err(|e| match e {
                SglError::OutOfRange(msg) => ServeError::BadQuery(msg),
                e => ServeError::from(e),
            })?;
            out.extend(values);
        }
        Ok(out)
    }

    /// Interpolate node voltages from a current-injection vector:
    /// solves `L v = b` on the snapshot's graph and returns the
    /// mean-zero voltage profile. `injections` is projected to mean
    /// zero first (a Laplacian system is only consistent on that
    /// subspace).
    ///
    /// # Errors
    /// [`ServeError::BadQuery`] for a wrong-length vector,
    /// [`ServeError::Sgl`] when the solve fails.
    pub fn interpolate(&self, injections: &[f64]) -> Result<Vec<f64>, ServeError> {
        Ok(self
            .interpolate_batch(std::slice::from_ref(&injections.to_vec()))?
            .pop()
            .expect("one RHS in, one solution out"))
    }

    /// Batch form of [`interpolate`](Self::interpolate): one
    /// `solve_batch` fan-out per 64 right-hand sides.
    ///
    /// # Errors
    /// See [`interpolate`](Self::interpolate); a single bad vector fails
    /// the whole batch.
    pub fn interpolate_batch(&self, injections: &[Vec<f64>]) -> Result<Vec<Vec<f64>>, ServeError> {
        let n = self.num_nodes();
        if let Some(b) = injections.iter().find(|b| b.len() != n) {
            return Err(ServeError::BadQuery(format!(
                "injection vector has {} entries; graph has {} nodes",
                b.len(),
                n
            )));
        }
        let mut out = Vec::with_capacity(injections.len());
        for chunk in injections.chunks(SOLVE_CHUNK) {
            let rhs: Vec<Vec<f64>> = chunk
                .iter()
                .map(|b| {
                    let mut b = b.clone();
                    vecops::project_out_mean(&mut b);
                    b
                })
                .collect();
            let values = self
                .handle
                .solve_batch(&rhs)
                .map_err(|e| ServeError::Sgl(SglError::from(e).to_string()))?;
            out.extend(values);
        }
        Ok(out)
    }

    fn check_node(&self, node: usize) -> Result<(), ServeError> {
        if node >= self.num_nodes() {
            return Err(ServeError::BadQuery(format!(
                "node {} out of range for {}-node snapshot",
                node,
                self.num_nodes()
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgl_core::{Measurements, SglConfig};

    fn snapshot() -> GraphSnapshot {
        let truth = sgl_datasets::grid2d(5, 5);
        let meas = Measurements::generate(&truth, 12, 11).unwrap();
        let cfg = SglConfig::builder()
            .k(4)
            .r(4)
            .tol(0.0)
            .max_iterations(3)
            .build()
            .unwrap();
        let mut session = SglSession::from_owned(cfg, meas).unwrap();
        session.run_to_completion().unwrap();
        GraphSnapshot::from_session(&mut session, 3, 0).unwrap()
    }

    #[test]
    fn queries_are_consistent_with_components() {
        let snap = snapshot();
        assert_eq!(snap.version(), 0);
        assert_eq!(snap.num_nodes(), 25);
        assert_eq!(snap.num_measurements(), 12);
        assert!(snap.iterations() > 0);

        // Embedding queries mirror the embedding itself.
        let d = snap.embedding_distance_sq(0, 24).unwrap();
        assert_eq!(d, snap.embedding().distance_sq(0, 24));
        assert_eq!(
            snap.embedding_coords(3).unwrap(),
            snap.embedding().coords.row(3)
        );

        // Cluster label of a node is the nearest centroid to its coords.
        let node = 7;
        let label = snap.cluster_of(node).unwrap();
        let nearest = snap
            .nearest_cluster(snap.embedding_coords(node).unwrap())
            .unwrap();
        assert_eq!(label, nearest);

        // Resistances agree with the estimator's scalar path.
        let pairs = [(0, 1), (0, 24), (5, 19)];
        let batch = snap.resistances(&pairs).unwrap();
        assert_eq!(batch.len(), 3);
        assert!(batch.iter().all(|&r| r.is_finite() && r > 0.0));
    }

    #[test]
    fn interpolation_solves_the_snapshot_laplacian() {
        let snap = snapshot();
        let n = snap.num_nodes();
        let mut b = vec![0.0; n];
        b[0] = 1.0;
        b[n - 1] = -1.0;
        let v = snap.interpolate(&b).unwrap();
        assert_eq!(v.len(), n);
        // Mean-zero voltages, and L v reproduces the injection.
        assert!(vecops::mean(&v).abs() < 1e-9);
        let lap = sgl_graph::laplacian::laplacian_csr(snap.graph());
        let back = lap.matvec(&v);
        for i in 0..n {
            assert!(
                (back[i] - b[i]).abs() < 1e-6,
                "node {i}: {} vs {}",
                back[i],
                b[i]
            );
        }
        // Batch path agrees bit-for-bit with the scalar path.
        let batch = snap.interpolate_batch(&[b.clone(), b]).unwrap();
        assert_eq!(batch[0], v);
        assert_eq!(batch[1], v);
    }

    #[test]
    fn bad_queries_are_rejected() {
        let snap = snapshot();
        assert!(matches!(
            snap.embedding_coords(99),
            Err(ServeError::BadQuery(_))
        ));
        assert!(matches!(
            snap.embedding_distance_sq(0, 99),
            Err(ServeError::BadQuery(_))
        ));
        assert!(matches!(snap.cluster_of(99), Err(ServeError::BadQuery(_))));
        assert!(matches!(
            snap.nearest_cluster(&[0.0]),
            Err(ServeError::BadQuery(_))
        ));
        assert!(matches!(
            snap.interpolate(&[1.0, -1.0]),
            Err(ServeError::BadQuery(_))
        ));
        // A bad pair is the caller's fault, not a solver failure.
        for pair in [(0, 0), (0, 25)] {
            assert!(matches!(
                snap.resistances(&[(0, 1), pair]),
                Err(ServeError::BadQuery(_))
            ));
        }
    }

    #[test]
    fn large_queries_solve_in_bounded_chunks() {
        let snap = snapshot();
        let n = snap.num_nodes();
        // 200 pairs: chunks of 64, 64, 64 and 8 columns.
        let pairs: Vec<_> = (0..200).map(|i| (i % n, (i + 1) % n)).collect();
        let before = snap.handle().stats().batches;
        let chunked = snap.resistances(&pairs).unwrap();
        assert_eq!(snap.handle().stats().batches - before, 4);
        // Chunk boundaries change no answer bit.
        assert_eq!(chunked, snap.estimator.resistances(&pairs).unwrap());

        // 65 injection vectors: one full chunk and one column.
        let mut b = vec![0.0; n];
        b[0] = 1.0;
        b[n - 1] = -1.0;
        let injections = vec![b; SOLVE_CHUNK + 1];
        let before = snap.handle().stats().batches;
        let voltages = snap.interpolate_batch(&injections).unwrap();
        assert_eq!(snap.handle().stats().batches - before, 2);
        assert_eq!(voltages.len(), injections.len());
        assert!(voltages.iter().all(|v| *v == voltages[0]));
    }
}
