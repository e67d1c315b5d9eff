//! Multilevel spectral coarsening for SGL — learn big graphs on a small
//! hierarchy.
//!
//! The flat pipeline's per-iteration cost is dominated by eigensolves on
//! the full node set. SF-SGL (Zhang, Zhao & Feng, 2023) shows the same
//! spectral-densification loop runs on a *multilevel spectrally-coarsened
//! hierarchy* instead, and GRASPEL-style effective-resistance sampling
//! keeps the learned graphs sparse at scale. This crate is that layer:
//!
//! * [`coarsen`] — spectral-affinity node aggregation from low-pass
//!   filtered test vectors ([`sgl_linalg::filter`]), producing a
//!   [`Coarsening`] (partition + piecewise-constant prolongation) with
//!   deterministic tie-breaking — bit-identical at any thread count;
//! * [`hierarchy`] — a [`MultilevelHierarchy`] of Galerkin-contracted
//!   candidate graphs (`Pᵀ L P` ≡ graph contraction, see
//!   [`sgl_graph::coarsen`]), driven by `SglConfig::coarsening_ratio`
//!   and `SglConfig::max_levels`;
//! * [`learn`] — the V-cycle driver [`learn_multilevel`]: learn once on
//!   the coarsest level through the ordinary
//!   [`SglSession`](sgl_core::SglSession), prolong the learned topology
//!   upward with fine data-driven weights, and run bounded
//!   [`refine_weights_with`](sgl_core::refine_weights_with) sweeps per
//!   level;
//! * [`sparsify`] — [`sparsify_by_resistance`]: leverage-score edge
//!   sampling through the learning strategy's resistance sketch (a JL
//!   [`ResistanceSketch`](sgl_core::ResistanceSketch), or the solver-free
//!   [`SpectralSketch`](sgl_core::SpectralSketch)), pruning a graph to a
//!   target density without ever disconnecting it, with a
//!   spectral-similarity check.
//!
//! The coarsening modules live in `sgl-core`, whose solver-free
//! embedder builds its band skeleton on them; this crate re-exports
//! them unchanged.
//!
//! # Example
//!
//! ```
//! use sgl_core::{Measurements, SglConfig};
//! use sgl_multilevel::{learn_multilevel, MultilevelOptions};
//!
//! let truth = sgl_datasets::grid2d(16, 16);
//! let meas = Measurements::generate(&truth, 25, 7)?;
//! let cfg = SglConfig::builder()
//!     .tol(1e-6)
//!     .coarsening_ratio(0.6) // shrink to ≤ 60% of the nodes per level
//!     .max_levels(4)
//!     .build()?;
//! let mut opts = MultilevelOptions::default();
//! opts.hierarchy.coarsest_size = 64; // learn on ≤ 64 nodes
//! let result = learn_multilevel(&cfg, &meas, &opts)?;
//! assert_eq!(result.graph.num_nodes(), 256);
//! assert!(result.num_levels() >= 2);
//! # Ok::<(), sgl_core::SglError>(())
//! ```

pub mod learn;
pub mod sparsify;

pub use learn::{
    learn_multilevel, learn_multilevel_from_candidate, LevelReport, MultilevelOptions,
    MultilevelResult,
};
pub use sgl_core::coarsen::{self, spectral_affinity_aggregate, AggregationOptions, Coarsening};
pub use sgl_core::hierarchy::{self, HierarchyLevel, HierarchyOptions, MultilevelHierarchy};
pub use sparsify::{sparsify_by_resistance, Sparsified, SparsifyOptions};
