//! Exact k-nearest-neighbor search and kNN-graph construction for SGL.
//!
//! SGL's Step 1 builds a connected kNN graph over the rows of the voltage
//! measurement matrix `X ∈ R^{N×M}` (each node is its `M`-dimensional
//! voltage profile) with edge weights `w_{s,t} = M / ‖X^T e_{s,t}‖²`.
//! This crate provides:
//!
//! * [`BruteForceKnn`] — exact search, multi-threaded over the shared
//!   parallel layer;
//! * [`build_knn_graph`] — the full Step-1 pipeline: neighbor search,
//!   symmetrization, `M/dist²` weighting, and connectivity repair.
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

pub use brute::BruteForceKnn;
pub use graph_build::build_knn_graph;
