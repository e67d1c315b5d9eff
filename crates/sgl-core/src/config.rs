//! SGL configuration (the inputs of Algorithm 1) and its typed builder.
//!
//! [`SglConfig`] is the validated, plain-data description of a learning
//! run. Construct one with [`SglConfig::builder`]:
//!
//! ```
//! use sgl_core::{PolicyMethod, SglConfig};
//!
//! let cfg = SglConfig::builder()
//!     .k(5)
//!     .r(5)
//!     .beta(1e-3)
//!     .tol(1e-9)
//!     // Every Laplacian solve in the run honors this policy.
//!     .solver_method(PolicyMethod::AmgPcg)
//!     .solver_rtol(1e-10)
//!     .build()?;
//! assert_eq!(cfg.k, 5);
//! assert_eq!(cfg.solver.method, PolicyMethod::AmgPcg);
//! # Ok::<(), sgl_core::SglError>(())
//! ```
//!
//! The solve layer has a single source of truth: [`SglConfig::solver`]
//! is the [`SolverPolicy`] behind **every** solve the session performs
//! — edge scaling, shift-invert embedding fallback, and resistance
//! estimation all share one policy-built handle per learned-graph
//! revision. The resistance estimator itself follows the strategy
//! ([`LearnStrategyKind::resistance_estimator`]).

use crate::error::SglError;
use crate::strategy::LearnStrategyKind;
use sgl_solver::{PolicyMethod, SolverPolicy};

/// Configuration for the SGL learner, mirroring Algorithm 1's inputs.
///
/// Defaults follow the paper's experimental setup (§III.A): `k = 5`,
/// `r = 5`, `β = 10⁻³`, `tol = 10⁻¹²`, `σ² → ∞`.
#[derive(Debug, Clone)]
pub struct SglConfig {
    /// `k` for the initial (exact) kNN graph.
    pub k: usize,
    /// `r` for the spectral projection matrix of eq. (12): `r − 1`
    /// nontrivial eigenvectors are used.
    pub r: usize,
    /// Edge sampling ratio `β ∈ (0, 1]`: up to `⌈Nβ⌉` edges join per
    /// iteration.
    pub beta: f64,
    /// Convergence tolerance on the maximum edge sensitivity.
    pub tol: f64,
    /// Prior feature variance `σ²` of eq. (2); `f64::INFINITY` reproduces
    /// the paper's analysis limit (no diagonal shift).
    pub sigma_sq: f64,
    /// Iteration cap (a safety net; the paper's runs converge in ≤ ~100).
    pub max_iterations: usize,
    /// Residual tolerance for the embedding eigensolver.
    pub eig_tol: f64,
    /// Iteration cap for the embedding eigensolver.
    pub eig_max_iter: usize,
    /// Run the spectral edge scaling step (needs current measurements).
    pub scale_edges: bool,
    /// Seed for the eigensolver's random initial blocks.
    pub seed: u64,
    /// How the pipeline solves Laplacian systems (method, tolerance,
    /// iteration cap, handle reuse). The session builds **one**
    /// [`SolverHandle`](sgl_solver::SolverHandle) per learned-graph
    /// revision from this policy and shares it across edge scaling,
    /// shift-invert embedding, and exact resistance queries — so changing
    /// the policy here changes every solve in the run, end to end.
    pub solver: SolverPolicy,
    /// Worker threads for every parallel stage the session runs — kNN
    /// table builds, batched Laplacian solves, candidate scoring, and
    /// the row-partitioned sparse kernels. `0` (the default) uses all
    /// available cores (subject to the `SGL_NUM_THREADS` /
    /// `RAYON_NUM_THREADS` environment overrides); `1` pins the
    /// guaranteed-serial path. Results are bit-identical at every
    /// setting — parallelism only changes wall-clock, never the learned
    /// graph.
    pub parallelism: usize,
    /// Target shrink factor per multilevel coarsening level, in
    /// `(0, 1)`: aggregation at each level keeps matching until the
    /// coarse node count drops to at most `coarsening_ratio · N` (or
    /// stalls). Consumed by `sgl-multilevel`'s hierarchy builder; the
    /// flat `Sgl::learn` pipeline ignores it.
    pub coarsening_ratio: f64,
    /// Cap on the number of coarsening levels of the multilevel
    /// hierarchy (1 = no coarsening: the whole loop runs at the fine
    /// level). Consumed by `sgl-multilevel`; ignored by the flat
    /// pipeline.
    pub max_levels: usize,
    /// Which learning strategy drives the loop: the solver-backed
    /// default, or the solver-free SF-SGL path (see
    /// [`LearnStrategyKind`]).
    pub strategy: LearnStrategyKind,
}

impl Default for SglConfig {
    fn default() -> Self {
        SglConfig {
            k: 5,
            r: 5,
            beta: 1e-3,
            tol: 1e-12,
            sigma_sq: f64::INFINITY,
            max_iterations: 500,
            eig_tol: 1e-7,
            eig_max_iter: 400,
            scale_edges: true,
            seed: 0x5617,
            solver: SolverPolicy::default(),
            parallelism: 0,
            coarsening_ratio: 0.6,
            max_levels: 10,
            strategy: LearnStrategyKind::default(),
        }
    }
}

impl SglConfig {
    /// Start a typed builder seeded with the paper defaults. `build()`
    /// validates, so an `SglConfig` obtained this way is always usable.
    pub fn builder() -> SglConfigBuilder {
        SglConfigBuilder {
            cfg: SglConfig::default(),
        }
    }

    /// Validate the configuration.
    ///
    /// # Errors
    /// Returns [`SglError::InvalidConfig`] describing the first violated
    /// constraint.
    pub fn validate(&self) -> Result<(), SglError> {
        if self.k == 0 {
            return Err(SglError::InvalidConfig("k must be at least 1".into()));
        }
        if self.r < 2 {
            return Err(SglError::InvalidConfig(
                "r must be at least 2 (one nontrivial eigenvector)".into(),
            ));
        }
        if !(self.beta > 0.0 && self.beta <= 1.0) {
            return Err(SglError::InvalidConfig(format!(
                "beta must lie in (0, 1], got {}",
                self.beta
            )));
        }
        if !self.tol.is_finite() || self.tol < 0.0 {
            return Err(SglError::InvalidConfig(format!(
                "tol must be finite and non-negative, got {}",
                self.tol
            )));
        }
        if self.sigma_sq <= 0.0 {
            return Err(SglError::InvalidConfig(format!(
                "sigma_sq must be positive (possibly infinite), got {}",
                self.sigma_sq
            )));
        }
        if self.max_iterations == 0 {
            return Err(SglError::InvalidConfig(
                "max_iterations must be at least 1".into(),
            ));
        }
        if !self.eig_tol.is_finite() || self.eig_tol <= 0.0 {
            return Err(SglError::InvalidConfig(format!(
                "eig_tol must be finite and positive, got {}",
                self.eig_tol
            )));
        }
        if self.eig_max_iter == 0 {
            return Err(SglError::InvalidConfig(
                "eig_max_iter must be at least 1".into(),
            ));
        }
        if !(self.coarsening_ratio > 0.0 && self.coarsening_ratio < 1.0) {
            return Err(SglError::InvalidConfig(format!(
                "coarsening_ratio must lie in (0, 1), got {}",
                self.coarsening_ratio
            )));
        }
        if self.max_levels == 0 {
            return Err(SglError::InvalidConfig(
                "max_levels must be at least 1".into(),
            ));
        }
        self.solver
            .validate()
            .map_err(|e| SglError::InvalidConfig(format!("solver policy: {e}")))?;
        Ok(())
    }

    /// The diagonal shift `1/σ²` used in the embedding scaling (0 when
    /// `σ² = ∞`).
    pub fn shift(&self) -> f64 {
        if self.sigma_sq.is_infinite() {
            0.0
        } else {
            1.0 / self.sigma_sq
        }
    }

    /// Builder-style setter for `k`.
    pub fn with_k(mut self, k: usize) -> Self {
        self.k = k;
        self
    }

    /// Builder-style setter for `r`.
    pub fn with_r(mut self, r: usize) -> Self {
        self.r = r;
        self
    }

    /// Builder-style setter for `beta`.
    pub fn with_beta(mut self, beta: f64) -> Self {
        self.beta = beta;
        self
    }

    /// Builder-style setter for `tol`.
    pub fn with_tol(mut self, tol: f64) -> Self {
        self.tol = tol;
        self
    }

    /// Builder-style setter for the iteration cap.
    pub fn with_max_iterations(mut self, it: usize) -> Self {
        self.max_iterations = it;
        self
    }

    /// Builder-style setter for edge scaling.
    pub fn with_scale_edges(mut self, on: bool) -> Self {
        self.scale_edges = on;
        self
    }

    /// Builder-style setter for the worker-thread count
    /// (0 = all cores, 1 = serial).
    pub fn with_parallelism(mut self, parallelism: usize) -> Self {
        self.parallelism = parallelism;
        self
    }

    /// Builder-style setter for the multilevel coarsening ratio.
    pub fn with_coarsening_ratio(mut self, ratio: f64) -> Self {
        self.coarsening_ratio = ratio;
        self
    }

    /// Builder-style setter for the multilevel level cap.
    pub fn with_max_levels(mut self, max_levels: usize) -> Self {
        self.max_levels = max_levels;
        self
    }

    /// Builder-style setter for the learning strategy.
    pub fn with_strategy(mut self, strategy: LearnStrategyKind) -> Self {
        self.strategy = strategy;
        self
    }
}

/// Typed builder for [`SglConfig`]; obtained from [`SglConfig::builder`].
///
/// Unlike the loose `with_*` setters, [`SglConfigBuilder::build`] runs
/// [`SglConfig::validate`], so invalid combinations are caught at
/// construction time instead of at `learn` time.
#[derive(Debug, Clone)]
pub struct SglConfigBuilder {
    cfg: SglConfig,
}

impl SglConfigBuilder {
    /// Neighbor count `k` for the initial kNN graph.
    pub fn k(mut self, k: usize) -> Self {
        self.cfg.k = k;
        self
    }

    /// Spectral projection order `r` (uses `r − 1` eigenvectors).
    pub fn r(mut self, r: usize) -> Self {
        self.cfg.r = r;
        self
    }

    /// Edge sampling ratio `β ∈ (0, 1]`.
    pub fn beta(mut self, beta: f64) -> Self {
        self.cfg.beta = beta;
        self
    }

    /// Convergence tolerance on the maximum edge sensitivity.
    pub fn tol(mut self, tol: f64) -> Self {
        self.cfg.tol = tol;
        self
    }

    /// Prior feature variance `σ²` (infinite = no diagonal shift).
    pub fn sigma_sq(mut self, sigma_sq: f64) -> Self {
        self.cfg.sigma_sq = sigma_sq;
        self
    }

    /// Densification iteration cap.
    pub fn max_iterations(mut self, it: usize) -> Self {
        self.cfg.max_iterations = it;
        self
    }

    /// Residual tolerance for the embedding eigensolver.
    pub fn eig_tol(mut self, tol: f64) -> Self {
        self.cfg.eig_tol = tol;
        self
    }

    /// Iteration cap for the embedding eigensolver.
    pub fn eig_max_iter(mut self, it: usize) -> Self {
        self.cfg.eig_max_iter = it;
        self
    }

    /// Enable/disable the spectral edge scaling step.
    pub fn scale_edges(mut self, on: bool) -> Self {
        self.cfg.scale_edges = on;
        self
    }

    /// Seed for the eigensolver's random initial blocks.
    pub fn seed(mut self, seed: u64) -> Self {
        self.cfg.seed = seed;
        self
    }

    /// Replace the whole solver policy (method, tolerance, iteration
    /// cap, dense guard, parallelism) in one call.
    pub fn solver_policy(mut self, solver: SolverPolicy) -> Self {
        self.cfg.solver = solver;
        self
    }

    /// Laplacian solve method for every solve in the pipeline.
    pub fn solver_method(mut self, method: PolicyMethod) -> Self {
        self.cfg.solver.method = method;
        self
    }

    /// Relative residual tolerance for the pipeline's Laplacian solves.
    pub fn solver_rtol(mut self, rtol: f64) -> Self {
        self.cfg.solver.rtol = rtol;
        self
    }

    /// Iteration cap for the pipeline's Laplacian solves.
    pub fn solver_max_iter(mut self, max_iter: usize) -> Self {
        self.cfg.solver.max_iter = max_iter;
        self
    }

    /// Worker threads for every parallel stage of the run (0 = all
    /// cores, 1 = guaranteed serial; results are identical either way).
    pub fn parallelism(mut self, parallelism: usize) -> Self {
        self.cfg.parallelism = parallelism;
        self
    }

    /// Target shrink factor per multilevel coarsening level, in
    /// `(0, 1)` (consumed by `sgl-multilevel`'s hierarchy builder).
    pub fn coarsening_ratio(mut self, ratio: f64) -> Self {
        self.cfg.coarsening_ratio = ratio;
        self
    }

    /// Cap on the number of multilevel hierarchy levels (1 = flat).
    pub fn max_levels(mut self, max_levels: usize) -> Self {
        self.cfg.max_levels = max_levels;
        self
    }

    /// Learning strategy: [`LearnStrategyKind::Solver`] (default) runs
    /// the classic solver-backed loop; [`LearnStrategyKind::SolverFree`]
    /// runs the SF-SGL path (no Laplacian solves or factorizations).
    pub fn strategy(mut self, strategy: LearnStrategyKind) -> Self {
        self.cfg.strategy = strategy;
        self
    }

    /// Validate and produce the configuration.
    ///
    /// # Errors
    /// Returns [`SglError::InvalidConfig`] for the first violated
    /// constraint.
    pub fn build(self) -> Result<SglConfig, SglError> {
        self.cfg.validate()?;
        Ok(self.cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper() {
        let c = SglConfig::default();
        assert_eq!(c.k, 5);
        assert_eq!(c.r, 5);
        assert_eq!(c.beta, 1e-3);
        assert_eq!(c.tol, 1e-12);
        assert!(c.sigma_sq.is_infinite());
        assert!(c.validate().is_ok());
    }

    #[test]
    fn shift_is_zero_for_infinite_sigma() {
        assert_eq!(SglConfig::default().shift(), 0.0);
        let c = SglConfig {
            sigma_sq: 4.0,
            ..SglConfig::default()
        };
        assert_eq!(c.shift(), 0.25);
    }

    #[test]
    fn invalid_configs_are_rejected() {
        assert!(SglConfig::default().with_r(1).validate().is_err());
        assert!(SglConfig::default().with_beta(0.0).validate().is_err());
        assert!(SglConfig::default().with_beta(1.5).validate().is_err());
        assert!(SglConfig::default().with_tol(f64::NAN).validate().is_err());
        let c = SglConfig {
            k: 0,
            ..SglConfig::default()
        };
        assert!(c.validate().is_err());
        let c = SglConfig {
            sigma_sq: -1.0,
            ..SglConfig::default()
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn eigensolver_settings_are_validated() {
        let c = SglConfig {
            eig_tol: 0.0,
            ..SglConfig::default()
        };
        assert!(c.validate().is_err());
        let c = SglConfig {
            eig_tol: f64::NAN,
            ..SglConfig::default()
        };
        assert!(c.validate().is_err());
        let c = SglConfig {
            eig_tol: f64::INFINITY,
            ..SglConfig::default()
        };
        assert!(c.validate().is_err());
        let c = SglConfig {
            eig_max_iter: 0,
            ..SglConfig::default()
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn builders_chain() {
        let c = SglConfig::default()
            .with_k(7)
            .with_r(4)
            .with_beta(0.01)
            .with_tol(1e-9)
            .with_max_iterations(10)
            .with_scale_edges(false);
        assert_eq!(c.k, 7);
        assert_eq!(c.r, 4);
        assert_eq!(c.beta, 0.01);
        assert_eq!(c.tol, 1e-9);
        assert_eq!(c.max_iterations, 10);
        assert!(!c.scale_edges);
    }

    #[test]
    fn typed_builder_validates() {
        let c = SglConfig::builder()
            .k(6)
            .r(4)
            .beta(0.5)
            .tol(1e-8)
            .sigma_sq(2.0)
            .max_iterations(42)
            .eig_tol(1e-9)
            .eig_max_iter(300)
            .scale_edges(false)
            .seed(99)
            .build()
            .unwrap();
        assert_eq!(c.k, 6);
        assert_eq!(c.r, 4);
        assert_eq!(c.beta, 0.5);
        assert_eq!(c.tol, 1e-8);
        assert_eq!(c.sigma_sq, 2.0);
        assert_eq!(c.max_iterations, 42);
        assert_eq!(c.eig_tol, 1e-9);
        assert_eq!(c.eig_max_iter, 300);
        assert!(!c.scale_edges);
        assert_eq!(c.seed, 99);

        assert!(SglConfig::builder().beta(0.0).build().is_err());
        assert!(SglConfig::builder().r(1).build().is_err());
        assert!(SglConfig::builder().eig_tol(0.0).build().is_err());
        assert!(SglConfig::builder().eig_max_iter(0).build().is_err());
    }

    #[test]
    fn solver_policy_threads_through_builder() {
        let c = SglConfig::builder()
            .solver_method(PolicyMethod::DenseCholesky)
            .solver_rtol(1e-8)
            .solver_max_iter(500)
            .build()
            .unwrap();
        assert_eq!(c.solver.method, PolicyMethod::DenseCholesky);
        assert_eq!(c.solver.rtol, 1e-8);
        assert_eq!(c.solver.max_iter, 500);
        // Policy violations are caught at build() time.
        assert!(SglConfig::builder().solver_rtol(0.0).build().is_err());
        assert!(SglConfig::builder().solver_max_iter(0).build().is_err());
        assert!(SglConfig::builder()
            .solver_policy(SolverPolicy::default().with_rtol(f64::NAN))
            .build()
            .is_err());
    }

    #[test]
    fn parallelism_threads_through_builder() {
        assert_eq!(SglConfig::default().parallelism, 0);
        let c = SglConfig::builder().parallelism(1).build().unwrap();
        assert_eq!(c.parallelism, 1);
        assert_eq!(SglConfig::default().with_parallelism(4).parallelism, 4);
    }

    #[test]
    fn multilevel_knobs_thread_through_builder() {
        let d = SglConfig::default();
        assert_eq!(d.coarsening_ratio, 0.6);
        assert_eq!(d.max_levels, 10);
        let c = SglConfig::builder()
            .coarsening_ratio(0.4)
            .max_levels(3)
            .build()
            .unwrap();
        assert_eq!(c.coarsening_ratio, 0.4);
        assert_eq!(c.max_levels, 3);
        assert_eq!(
            SglConfig::default()
                .with_coarsening_ratio(0.5)
                .coarsening_ratio,
            0.5
        );
        assert_eq!(SglConfig::default().with_max_levels(2).max_levels, 2);
        // Violations are caught at build() time.
        assert!(SglConfig::builder().coarsening_ratio(0.0).build().is_err());
        assert!(SglConfig::builder().coarsening_ratio(1.0).build().is_err());
        assert!(SglConfig::builder()
            .coarsening_ratio(f64::NAN)
            .build()
            .is_err());
        assert!(SglConfig::builder().max_levels(0).build().is_err());
    }

    #[test]
    fn strategy_threads_through_builder() {
        assert_eq!(SglConfig::default().strategy, LearnStrategyKind::Solver);
        let c = SglConfig::builder()
            .strategy(LearnStrategyKind::SolverFree)
            .build()
            .unwrap();
        assert_eq!(c.strategy, LearnStrategyKind::SolverFree);
        assert_eq!(
            SglConfig::default()
                .with_strategy(LearnStrategyKind::SolverFree)
                .strategy,
            LearnStrategyKind::SolverFree
        );
    }
}
