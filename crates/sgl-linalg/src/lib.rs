//! Dense and sparse linear-algebra kernels used throughout the SGL
//! (Spectral Graph Learning) reproduction.
//!
//! The crate is self-contained (no external numeric dependencies) and
//! provides exactly the machinery the SGL pipeline needs:
//!
//! * [`vecops`] — BLAS-1 style kernels on `&[f64]` slices.
//! * [`rng`] — a small deterministic PRNG (xoshiro256++) with uniform,
//!   normal and Rademacher sampling, so every experiment is replayable
//!   from a single `u64` seed.
//! * [`DenseMatrix`] — row-major dense matrices with QR, Cholesky and a
//!   full symmetric eigensolver ([`SymEig`]).
//! * [`CsrMatrix`] — compressed sparse row matrices and the
//!   [`LinearOperator`] abstraction.
//! * [`par`] — the workspace-wide fork-join parallel layer (ambient
//!   thread counts, deterministic chunked maps, row-partitioned mutation).
//! * [`cg`] — conjugate gradients with pluggable [`Preconditioner`]s.
//! * [`mod@lobpcg`] / [`mod@lanczos`] — sparse eigensolvers for the smallest
//!   Laplacian eigenpairs (deflated block LOBPCG and shift-invert
//!   Lanczos with full reorthogonalization).
//!
//! # Example
//!
//! ```
//! use sgl_linalg::{CsrMatrix, cg::{cg_solve, CgOptions}};
//!
//! // 1-D Poisson matrix, solve A x = b.
//! let a = CsrMatrix::from_triplets(3, 3, &[
//!     (0, 0, 2.0), (0, 1, -1.0),
//!     (1, 0, -1.0), (1, 1, 2.0), (1, 2, -1.0),
//!     (2, 1, -1.0), (2, 2, 2.0),
//! ]);
//! let b = vec![1.0, 0.0, 1.0];
//! let sol = cg_solve(&a, &b, &CgOptions::default()).unwrap();
//! assert!((sol.x[0] - 1.0).abs() < 1e-8);
//! ```

pub mod cg;
pub mod cholesky;
pub mod dense;
pub mod error;
pub mod filter;
pub mod lanczos;
pub mod lobpcg;
pub mod operator;
pub mod par;
pub mod qr;
pub mod rng;
pub mod sparse;
pub mod symeig;
pub mod vecops;

pub use cg::{
    cg_solve, pcg_solve, pcg_solve_with, CgIterStats, CgOptions, CgSolution, CgWorkspace,
    IdentityPreconditioner, JacobiPreconditioner, Preconditioner,
};
pub use cholesky::CholeskyFactor;
pub use dense::DenseMatrix;
pub use error::LinalgError;
pub use filter::{
    band_decompose, filtered_spectrum, smoothed_test_vectors, BandSplitOptions, FilterOptions,
    FilteredSpectrumOptions,
};
pub use lanczos::{
    lanczos, lanczos_largest, lanczos_with, LanczosOptions, LanczosWorkspace, SpectralPairs,
};
pub use lobpcg::{lobpcg, LobpcgOptions, LobpcgResult};
pub use operator::{
    DiagonalOperator, FnOperator, LinearOperator, ProjectedOperator, ShiftedOperator,
};
pub use qr::{orthonormalize_columns, QrFactor};
pub use rng::Rng;
pub use sparse::{CsrEntries, CsrMatrix};
pub use symeig::{tridiag_eig, SymEig};
