//! Fast graph-Laplacian solvers for the SGL reproduction — and the
//! pluggable solve layer the pipeline consumes them through.
//!
//! SGL's scalability rests on nearly-linear-time solves of `L x = b`
//! (Koutis–Miller–Peng \[7\], SAMG \[14\]). The pipeline needs them in four
//! places: generating voltage measurements (`L* x = y` on the
//! ground-truth graph), spectral edge scaling (`L x̃ = y` on the learned
//! graph), shift-invert eigenvalue computation, and the JL effective-
//! resistance sketch. This crate provides both the numerical kernels and
//! the API the pipeline talks to:
//!
//! # The solve layer (what callers use)
//!
//! * [`SolverPolicy`] — plain-data description of *how* to solve:
//!   method ([`PolicyMethod`]), tolerance, iteration cap. Threads
//!   through configuration (e.g. `SglConfig`) so every solve is
//!   user-controllable end to end, and
//!   [`build_handle`](SolverPolicy::build_handle) is the one way to get
//!   a solver: it picks the method (`Auto` resolves from the graph) and
//!   prepares it — exact tree solve, tree- or AMG-preconditioned PCG, or
//!   the exact small-N dense Cholesky reference that factors
//!   `L + (1/N)·11ᵀ` once.
//! * [`SolverHandle`] — a prepared solver for one fixed graph:
//!   [`solve`](SolverHandle::solve), multi-RHS
//!   [`solve_batch`](SolverHandle::solve_batch), and cumulative
//!   [`stats`](SolverHandle::stats). Shared across stages via `Arc`.
//! * [`SolverContext`] — a session-owned, revision-tracked cache: one
//!   handle per learned-graph revision, rebuilt whenever the graph
//!   moves, and wrapped to inject PCG stagnation when a [`FaultPlan`]
//!   asks for it.
//!
//! # The kernels (what the handles are built from)
//!
//! * [`tree_solver`] — exact `O(N)` elimination on spanning trees;
//! * [`preconditioner`] — symmetric Gauss–Seidel and spanning-tree
//!   preconditioners (support-graph preconditioning: the learned graph
//!   *is* a tree plus a few off-tree edges, which the tree
//!   preconditioner absorbs exactly through the Woodbury identity when
//!   they are few enough), and [`exact_tree_or_amg`], the one rule that
//!   picks between that exact near-tree preconditioner and AMG for both
//!   `Auto` and the embed;
//! * [`amg`] — unsmoothed-aggregation algebraic multigrid whose Galerkin
//!   coarse operators are literal graph contractions.
//!
//! # Example
//!
//! ```
//! use sgl_graph::Graph;
//! use sgl_solver::{PolicyMethod, SolverPolicy};
//!
//! let g = Graph::from_edges(3, [(0, 1, 1.0), (1, 2, 1.0)]);
//! // Policy-driven: validate, pick a method, build a reusable handle.
//! let handle = SolverPolicy::default()
//!     .with_method(PolicyMethod::Auto)
//!     .build_handle(&g)
//!     .unwrap();
//! // Push 1 A into node 0, draw 1 A from node 2.
//! let x = handle.solve(&[1.0, 0.0, -1.0]).unwrap();
//! // Voltage drop across the two unit resistors is 1 V each.
//! assert!(((x[0] - x[2]) - 2.0).abs() < 1e-8);
//! // Batched right-hand sides go through one call.
//! let xs = handle
//!     .solve_batch(&[vec![1.0, 0.0, -1.0], vec![0.0, 1.0, -1.0]])
//!     .unwrap();
//! assert_eq!(xs.len(), 2);
//! assert_eq!(handle.stats().solves, 3);
//! ```

pub mod amg;
pub mod backend;
pub mod context;
pub mod fault;
mod laplacian_solver;
pub mod preconditioner;
pub mod tree_solver;

pub use amg::AmgHierarchy;
pub use backend::{PolicyMethod, SolveStats, SolverHandle, SolverPolicy};
pub use context::SolverContext;
pub use fault::{FaultEvent, FaultKind, FaultPlan};
pub use preconditioner::{exact_tree_or_amg, GaussSeidelPreconditioner, TreePreconditioner};
pub use tree_solver::TreeSolver;
