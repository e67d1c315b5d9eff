//! Exact k-nearest-neighbor search and kNN-graph construction for SGL.
//!
//! SGL's Step 1 builds a connected kNN graph over the rows of the voltage
//! measurement matrix `X ∈ R^{N×M}` (each node is its `M`-dimensional
//! voltage profile) with edge weights `w_{s,t} = M / ‖X^T e_{s,t}‖²`.
//! This crate provides:
//!
//! * [`BruteForceKnn`] — exact search. Its all-points tables come from one
//!   blocked pass over the upper triangle of the point set: row tiles
//!   sweep a panel-packed copy of the points through a 2-row × 8-point
//!   register-blocked kernel, each unordered pair is
//!   computed once and offered to both rows, and each worker of the
//!   shared parallel layer keeps bounded top-`k` tables that are merged
//!   after the join. Every distance is bit-identical to
//!   [`vecops::dist_sq`](sgl_linalg::vecops::dist_sq): the kernel
//!   vectorizes across point pairs and adds each pair's squared
//!   differences in dimension order.
//! * [`build_knn_graph`] — the full Step-1 pipeline: neighbor search,
//!   symmetrization, `M/dist²` weighting, and connectivity repair. The
//!   repair joins every non-largest component of the raw kNN graph to the
//!   rest through its closest outside pair, scanning the component's rows
//!   against a packed copy of the outside points with the same kernel, in
//!   parallel.
//!
//! **Tie rule.** Neighbor tables are ordered and cut by
//! `(squared distance, index)`, distances compared by
//! [`f64::total_cmp`]: among equally distant points the lower index wins.
//! Under this strict total order a row's `k` nearest are unique, so the
//! tables do not depend on the thread count or on how the pass is split.
//!
//! # Example
//! ```
//! use sgl_knn::BruteForceKnn;
//! use sgl_linalg::DenseMatrix;
//!
//! let pts = DenseMatrix::from_rows(&[vec![0.0], vec![1.0], vec![10.0]]);
//! let index = BruteForceKnn::new(&pts);
//! let nn = index.knn(&[0.2], 2);
//! assert_eq!(nn[0].0, 0); // nearest point
//! assert_eq!(nn[1].0, 1);
//! ```

pub mod brute;
pub mod graph_build;
mod kernel;

pub use brute::BruteForceKnn;
pub use graph_build::build_knn_graph;
