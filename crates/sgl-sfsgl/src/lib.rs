//! A no-op crate kept for the repository benchmark (`perfbench/`), which
//! calls [`register`] at startup.
//!
//! The solver-free SF-SGL strategy lives in `sgl-core`: select it with
//! `SglConfig::builder().strategy(LearnStrategyKind::SolverFree)`, and
//! every entry point runs it without any setup call.

/// Does nothing. The solver-free strategy needs no registration; this
/// stays only so existing callers keep compiling.
pub fn register() {}
