//! SGL — Spectral Graph Learning from Measurements (DAC 2021).
//!
//! Facade crate re-exporting the whole reproduction workspace. The primary
//! entry points are [`sgl_core::Sgl`] (one-shot) and
//! [`sgl_core::SglSession`] (staged pipeline); everything else is
//! substrate:
//!
//! * [`sgl_linalg`] — dense/sparse linear algebra, eigensolvers, CG, PRNG.
//! * [`sgl_graph`] — resistor-network graphs, Laplacians, spanning trees.
//! * [`sgl_solver`] — fast Laplacian solvers (tree solve, PCG, AMG).
//! * [`sgl_knn`] — exact kNN graph construction (Step 1).
//! * [`sgl_datasets`] — synthetic meshes and circuit-style test cases.
//! * [`sgl_core`] — the SGL algorithm itself, with both learning
//!   strategies: the solver-backed loop and the solver-free SF-SGL loop
//!   (banded multilevel embeddings and matvec-only scaling/resistances,
//!   selected by [`LearnStrategyKind::SolverFree`](sgl_core::LearnStrategyKind)).
//! * [`sgl_multilevel`] — spectral coarsening: hierarchy construction,
//!   coarse-level learning ([`learn_multilevel`](sgl_multilevel::learn_multilevel)),
//!   resistance-based sparsification.
//! * [`sgl_baseline`] — kNN and dense graphical-Lasso-style baselines.
//! * [`sgl_serve`] — concurrent snapshot-based query serving with
//!   streaming measurement ingest ([`SglServer`](sgl_serve::SglServer)).
//! * [`sgl_net`] — std-only HTTP/1.1 front-end with admission control,
//!   deadline propagation, and an ingest circuit breaker
//!   ([`NetServer`](sgl_net::NetServer)).
//!
//! # Quickstart
//!
//! Configure with the typed builder, learn one-shot:
//!
//! ```
//! use sgl::prelude::*;
//!
//! // Ground-truth resistor network: a small 2-D mesh.
//! let truth = sgl_datasets::grid2d(8, 8);
//! // Simulate voltage/current measurements on it.
//! let meas = Measurements::generate(&truth, 20, 42).unwrap();
//! // Learn the network back from measurements alone.
//! let cfg = SglConfig::builder().k(5).r(5).beta(1e-3).build().unwrap();
//! let result = Sgl::new(cfg).learn(&meas).unwrap();
//! assert!(result.graph.num_nodes() == truth.num_nodes());
//! ```
//!
//! # The staged pipeline
//!
//! For per-iteration observation, an exact dense reference embedding,
//! or measurements that arrive in batches, drive an
//! [`SglSession`](sgl_core::SglSession) (`Sgl::learn` is a thin facade
//! over it):
//!
//! ```
//! use sgl::prelude::*;
//!
//! let truth = sgl_datasets::grid2d(6, 6);
//! let meas = Measurements::generate(&truth, 15, 1).unwrap();
//! let cfg = SglConfig::builder().tol(1e-6).build().unwrap();
//! let mut session = SglSession::new(cfg, &meas).unwrap();
//! session.observe(|r: &IterationRecord| eprintln!("s_max {:.2e}", r.smax));
//! while !session.is_done() {
//!     let _outcome = session.step().unwrap(); // StepOutcome per iteration
//! }
//! let result = session.finish().unwrap();
//! assert!(result.converged);
//! ```
//!
//! See `examples/incremental_learning.rs` for batch-by-batch measurement
//! arrival via
//! [`SglSession::extend_measurements`](sgl_core::SglSession::extend_measurements),
//! and `examples/solver_policy.rs` for the config-driven solve layer
//! ([`SolverPolicy`](sgl_solver::SolverPolicy): method selection, shared
//! per-revision handles, and the solver-free strategy's spectral-sketch
//! resistances).
//!
//! # Multilevel learning
//!
//! For large node counts, learn on a spectrally-coarsened hierarchy
//! instead of the full graph: the flat loop runs once at the coarsest
//! level, and the topology is prolonged + refined back up
//! ([`learn_multilevel`](sgl_multilevel::learn_multilevel)):
//!
//! ```
//! use sgl::prelude::*;
//!
//! let truth = sgl_datasets::grid2d(16, 16);
//! let meas = Measurements::generate(&truth, 25, 7).unwrap();
//! let cfg = SglConfig::builder()
//!     .coarsening_ratio(0.6)  // shrink to ≤ 60% of the nodes per level
//!     .max_levels(4)
//!     .build().unwrap();
//! let mut opts = MultilevelOptions::default();
//! opts.hierarchy.coarsest_size = 64;
//! let result = learn_multilevel(&cfg, &meas, &opts).unwrap();
//! assert!(result.num_levels() >= 2);
//! ```
//!
//! See the README's *Multilevel learning* section for the determinism
//! contract and when to prefer it over flat `Sgl::learn`.
//!
//! # Solver-free learning
//!
//! The classic loop leans on a Laplacian solver in three places: the
//! shift-invert embedding fallback, the Step-5 edge scaling, and the JL
//! resistance sketch. The SF-SGL strategy replaces all three with pure
//! matvec arithmetic — banded multilevel embeddings, a diagonally
//! scaled CG recurrence, the truncated-spectrum sketch — so a full
//! learn finishes with **zero** solves and **zero** solver handles.
//! Select the strategy by config; every entry point honors it:
//!
//! ```
//! use sgl::prelude::*;
//!
//! let truth = sgl_datasets::grid2d(8, 8);
//! let meas = Measurements::generate(&truth, 20, 42).unwrap();
//! let cfg = SglConfig::builder()
//!     .tol(1e-4)
//!     .strategy(LearnStrategyKind::SolverFree)
//!     .build().unwrap();
//! let result = Sgl::new(cfg).learn(&meas).unwrap();
//! assert_eq!(result.solver_stats.solves, 0); // no system was ever solved
//! ```
//!
//! See `examples/solver_free_learning.rs` for the solver vs solver-free
//! A/B (and `bench_learn`'s `strategy_ab` rows for the tracked
//! agreement numbers), and the README's *Solver-free learning* section
//! for how the band decomposition works.
//!
//! # Parallelism
//!
//! Every parallel stage — kNN table builds, batched Laplacian solves,
//! candidate scoring, the row-partitioned sparse kernels — runs through
//! the deterministic fork-join layer [`sgl_linalg::par`], governed by
//! one knob: `SglConfig::builder().parallelism(n)` (`0` = all cores,
//! `1` = guaranteed serial). Thread count changes wall-clock, never
//! results: the same config and seed learn a bit-identical graph at any
//! setting. See the README's *Parallel execution* section and
//! `bench_learn` for the tracked end-to-end numbers.
//!
//! # Serving
//!
//! To answer queries from a learned graph **while it keeps learning**
//! from streamed measurements, hand the session to an
//! [`SglServer`](sgl_serve::SglServer): readers get lock-free,
//! version-tagged snapshots (effective resistance, spectral
//! coordinates, nearest cluster, signal interpolation), and a writer
//! thread ingests measurement batches and republishes:
//!
//! ```
//! use sgl::prelude::*;
//!
//! let truth = sgl_datasets::grid2d(6, 6);
//! let cfg = SglConfig::builder().k(4).r(4).tol(0.0).max_iterations(3).build().unwrap();
//! let mut session =
//!     SglSession::from_owned(cfg, Measurements::generate(&truth, 12, 1).unwrap()).unwrap();
//! session.run_to_completion().unwrap();
//!
//! let server = SglServer::new(session, ServeOptions::default()).unwrap();
//! let reader = server.handle(); // Clone + Send: move into reader threads
//! server.ingest(Measurements::generate(&truth, 6, 2).unwrap()).unwrap();
//! server.flush().unwrap();
//! let r = reader.resistances(&[(0, 35)]).unwrap();
//! assert_eq!(r.version, 1); // answered by the refreshed snapshot
//! let session = server.shutdown().unwrap(); // handoff back out
//! assert!(session.finish().is_ok());
//! ```
//!
//! See `examples/serving.rs` for the full loop under concurrent readers
//! and `bench_serve` for tracked throughput/latency numbers.
//!
//! # Observability
//!
//! Every layer is instrumented through [`sgl_trace`]: RAII spans on the
//! learn/solve/serve hot paths, a global metrics registry (counters +
//! log-scale histograms), and exporters for Chrome `about:tracing` /
//! Perfetto JSON, folded flame-graph stacks, and plain-text summaries.
//! Tracing is off by default and costs one relaxed atomic load per
//! span site; it never touches the deterministic control path, so
//! results are bit-identical with the recorder on or off:
//!
//! ```
//! sgl_trace::enable();
//! let truth = sgl_datasets::grid2d(6, 6);
//! let meas = sgl_core::Measurements::generate(&truth, 12, 1).unwrap();
//! let cfg = sgl_core::SglConfig::builder().tol(1e-4).build().unwrap();
//! let _result = sgl_core::Sgl::new(cfg).learn(&meas).unwrap();
//! sgl_trace::disable();
//! let events = sgl_trace::take_events();
//! assert!(events.iter().any(|e| e.name == "iteration"));
//! let _perfetto_json = sgl_trace::chrome_trace_json(&events);
//! ```
//!
//! Set `SGL_TRACE=<path>` to capture any run without code changes (the
//! Chrome trace is written when the session finishes) and `SGL_LOG=warn`
//! (or `info`, `debug`) to surface the log facade on stderr. See the
//! README's *Observability* section and `bench_learn --trace`.

pub use sgl_baseline;
pub use sgl_core;
pub use sgl_datasets;
pub use sgl_graph;
pub use sgl_knn;
pub use sgl_linalg;
pub use sgl_multilevel;
pub use sgl_net;
pub use sgl_serve;
pub use sgl_solver;
pub use sgl_trace;

/// Convenient glob-import surface for examples and downstream users.
pub mod prelude {
    pub use sgl_core::{
        FaultEvent, FaultKind, FaultPlan, IterationRecord, LearnResult, LearnStrategyKind,
        Measurements, PolicyMethod, ResistanceEstimator, SessionObserver, Sgl, SglConfig, SglError,
        SglSession, SolverPolicy, StepOutcome, StopVerdict,
    };
    pub use sgl_graph::Graph;
    pub use sgl_multilevel::{
        learn_multilevel, sparsify_by_resistance, MultilevelHierarchy, MultilevelOptions,
        MultilevelResult, SparsifyOptions,
    };
    pub use sgl_net::{NetError, NetOptions, NetServer, NetStats, RateLimit};
    pub use sgl_serve::{
        GraphSnapshot, QueryResponse, ServeError, ServeHandle, ServeOptions, ServeStats, SglServer,
    };
}
