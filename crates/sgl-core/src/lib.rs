//! SGL: spectral graph learning of resistor networks from voltage and
//! current measurements — the core algorithm of Feng, *"SGL: Spectral
//! Graph Learning from Measurements"*, DAC 2021.
//!
//! Given `M` measurement pairs `(X, Y)` with `L* x_i = y_i` on an unknown
//! `N`-node resistor network, the learner recovers an ultra-sparse graph
//! whose spectral-embedding (effective-resistance) distances encode the
//! measurement distances — a scalable alternative to `O(N²)`-per-iteration
//! graphical-Lasso solvers. The loop: kNN graph → maximum spanning tree →
//! iteratively add the highest-sensitivity off-tree edges (first-order
//! spectral perturbation, eq. 13) → spectral edge scaling.
//!
//! # Quickstart (one-shot)
//!
//! Configure with the typed builder, learn with [`Sgl`]:
//!
//! ```
//! use sgl_core::{Measurements, Sgl, SglConfig};
//!
//! // Ground truth: an 8×8 resistor mesh. Measure it, then learn it back.
//! let truth = sgl_datasets::grid2d(8, 8);
//! let meas = Measurements::generate(&truth, 20, 42)?;
//! let cfg = SglConfig::builder().k(5).r(5).tol(1e-5).build()?;
//! let result = Sgl::new(cfg).learn(&meas)?;
//! assert!(result.graph.density() < 2.0); // ultra-sparse
//! # Ok::<(), sgl_core::SglError>(())
//! ```
//!
//! # The staged pipeline
//!
//! [`Sgl::learn`] is a facade over [`SglSession`], which runs the same
//! loop one [`step`](SglSession::step) at a time, with per-iteration
//! observers, incremental measurement batches
//! ([`SglSession::extend_measurements`]), and an exact dense reference
//! embedding for small graphs ([`SglSession::with_dense_embedding`]):
//!
//! ```
//! use sgl_core::{Measurements, SglConfig, SglSession};
//!
//! let truth = sgl_datasets::grid2d(6, 6);
//! let meas = Measurements::generate(&truth, 15, 7)?;
//! let mut session = SglSession::new(SglConfig::builder().tol(1e-6).build()?, &meas)?
//!     .with_dense_embedding();
//! session.observe(|r: &sgl_core::IterationRecord| eprintln!("smax = {:.2e}", r.smax));
//! session.run_to_completion()?;
//! let result = session.finish()?;
//! assert!(result.converged);
//! # Ok::<(), sgl_core::SglError>(())
//! ```
//!
//! # Two strategies, one loop
//!
//! The config's [`LearnStrategyKind`] picks how Steps 2 and 5 get their
//! spectra ([`strategy`]): the solver-backed path, or the solver-free
//! SF-SGL path — banded multilevel embeddings ([`embed`], [`bands`]) on
//! a spectral coarsening ([`coarsen`], [`hierarchy`]) and matvec-only
//! scaling. Both run through the same [`SglSession`] loop.
//!
//! Beyond the learner itself the crate ships every instrument the paper's
//! evaluation uses: the objective of eq. (2) ([`mod@objective`]), effective
//! resistances and their JL sketch ([`resistance`]), spectrum comparison
//! ([`metrics`]), spectral drawing/clustering ([`drawing`],
//! [`clustering`]), noisy measurements ([`Measurements::with_noise`]) and
//! reduced-network learning ([`reduction`]).

pub mod algorithm;
pub mod backend;
pub mod bands;
pub mod checkpoint;
pub mod clustering;
pub mod coarsen;
pub mod config;
pub mod drawing;
pub mod embed;
pub mod embedding;
pub mod error;
pub mod hierarchy;
pub mod measure;
pub mod metrics;
pub mod objective;
pub mod reduction;
pub mod refine;
pub mod resistance;
pub mod scaling;
pub mod sensitivity;
pub mod session;
pub mod strategy;

pub use algorithm::{IterationRecord, LearnResult, Sgl, StepTimings, StopVerdict};
pub use backend::Embedder;
pub use config::{SglConfig, SglConfigBuilder};
pub use embed::BandedEigBackend;
pub use embedding::{
    smallest_nonzero_eigenvalues, spectral_embedding, Embedding, EmbeddingOptions,
};
pub use error::SglError;
pub use measure::Measurements;
pub use metrics::{compare_spectra, SpectrumComparison};
pub use objective::{objective, ObjectiveOptions, ObjectiveValue};
pub use reduction::{learn_reduced, ReducedResult};
pub use refine::{
    refine_weights, refine_weights_solver_free, refine_weights_with, RefineOptions, RefineRecord,
};
pub use resistance::{
    effective_resistance, pairwise_effective_resistances, sample_node_pairs, ExactSolve,
    ResistanceEstimator, ResistanceSketch, SpectralSketch,
};
pub use scaling::{
    edge_scale_factor, edge_scale_factor_with, solver_free_edge_scaling, solver_free_scale_factor,
    spectral_edge_scaling, spectral_edge_scaling_with,
};
pub use sensitivity::{Candidate, CandidatePool};
pub use session::{SessionObserver, SglSession, StepOutcome};
pub use strategy::LearnStrategyKind;
// The solve-layer vocabulary types, re-exported so configuring a session
// does not require a direct sgl-solver dependency.
pub use sgl_solver::{
    FaultEvent, FaultKind, FaultPlan, PolicyMethod, SolveStats, SolverContext, SolverHandle,
    SolverPolicy,
};
