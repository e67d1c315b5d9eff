//! Deterministic fault injection for resilience testing.
//!
//! A [`FaultPlan`] is a seeded schedule of failures threaded through the
//! solver layer ([`SolverContext`](crate::SolverContext)) and the serving
//! layer (`sgl-serve`). Each [`FaultKind`] has *opportunity* sites in the
//! code — points where that failure could physically occur (a
//! preconditioner build, a PCG solve, a writer-thread ingest). Every time execution
//! reaches a site it asks [`FaultPlan::should_fire`], which increments
//! that kind's opportunity counter and fires iff the counter matches one
//! of the plan's trigger indices.
//!
//! Opportunity counters advance on the *serial* control path (one tick
//! per solve/build call, checked before any parallel dispatch), so a
//! plan fires at exactly the same logical instant regardless of thread
//! count — faulted runs stay bit-identical at 1 vs N threads, which is
//! what lets CI assert recovery equivalence.
//!
//! Plans are cheap, `Sync`, and shared by `Arc`; a plan with no triggers
//! is inert. [`FaultPlan::seeded`] derives a small standard schedule
//! from a seed (used by the bench interrupt/fault arms and the CI smoke
//! job), while [`FaultPlan::with_fault`] pins individual triggers for
//! targeted tests.

use sgl_linalg::{LinalgError, Rng};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// The failure modes a [`FaultPlan`] can force.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// Breakdown of the primary handle build (any method). Recovery:
    /// the downgrade ladder in [`SolverContext`](crate::SolverContext)
    /// (AMG → tree → Jacobi).
    PrecondBreakdown,
    /// PCG stagnation / iteration-budget exhaustion on a solve.
    /// Recovery: the session invalidates its solver state and retries
    /// on a fresh factorization.
    PcgStagnation,
    /// A panic inside the `sgl-serve` writer thread mid-ingest.
    /// Recovery: the supervised writer catches the panic, rebuilds its
    /// session from the accumulated measurements, and republishes;
    /// readers keep serving the last published snapshot throughout.
    WriterPanic,
}

impl FaultKind {
    /// Every kind, in counter order.
    pub const ALL: [FaultKind; 3] = [
        FaultKind::PrecondBreakdown,
        FaultKind::PcgStagnation,
        FaultKind::WriterPanic,
    ];

    /// Stable kebab-case label (logs, bench JSON).
    pub fn as_str(self) -> &'static str {
        match self {
            FaultKind::PrecondBreakdown => "precond-breakdown",
            FaultKind::PcgStagnation => "pcg-stagnation",
            FaultKind::WriterPanic => "writer-panic",
        }
    }

    fn index(self) -> usize {
        match self {
            FaultKind::PrecondBreakdown => 0,
            FaultKind::PcgStagnation => 1,
            FaultKind::WriterPanic => 2,
        }
    }
}

/// One fault that actually fired: which kind, at which opportunity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// The failure mode that fired.
    pub kind: FaultKind,
    /// Zero-based opportunity index at which it fired.
    pub opportunity: usize,
}

/// A deterministic schedule of injected failures. See the module docs.
#[derive(Debug, Default)]
pub struct FaultPlan {
    /// Trigger opportunity indices per kind (sorted, deduplicated).
    triggers: [Vec<usize>; 3],
    /// Live opportunity counters per kind.
    counters: [AtomicUsize; 3],
    /// Log of faults that actually fired.
    injected: Mutex<Vec<FaultEvent>>,
}

impl FaultPlan {
    /// An inert plan: every `should_fire` is `false`.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a trigger: fire `kind` at its `nth` (zero-based) opportunity.
    #[must_use]
    pub fn with_fault(mut self, kind: FaultKind, nth: usize) -> Self {
        let t = &mut self.triggers[kind.index()];
        if !t.contains(&nth) {
            t.push(nth);
            t.sort_unstable();
        }
        self
    }

    /// The standard seeded schedule used by the bench fault arm and the
    /// CI smoke job: one early build breakdown, one PCG stagnation and
    /// one writer panic, each at a seed-derived early opportunity.
    pub fn seeded(seed: u64) -> Self {
        let mut rng = Rng::seed_from_u64(seed ^ 0xFA17_FA17_FA17_FA17);
        Self::new()
            .with_fault(FaultKind::PrecondBreakdown, rng.below(2))
            .with_fault(FaultKind::PcgStagnation, 1 + rng.below(4))
            .with_fault(FaultKind::WriterPanic, rng.below(2))
    }

    /// Whether any trigger is registered for `kind` (fired or not).
    pub fn plans(&self, kind: FaultKind) -> bool {
        !self.triggers[kind.index()].is_empty()
    }

    /// Record one opportunity for `kind`; returns `true` iff the plan
    /// fires here. A firing is logged and visible in [`Self::injected`].
    pub fn should_fire(&self, kind: FaultKind) -> bool {
        let i = kind.index();
        let opportunity = self.counters[i].fetch_add(1, Ordering::Relaxed);
        if !self.triggers[i].contains(&opportunity) {
            return false;
        }
        if let Ok(mut log) = self.injected.lock() {
            log.push(FaultEvent { kind, opportunity });
        }
        true
    }

    /// The canonical error an injected solver-side fault surfaces as.
    /// Breakdown faults mimic a factorization failure; stagnation faults
    /// mimic an exhausted iteration budget.
    pub fn error_for(kind: FaultKind) -> LinalgError {
        match kind {
            FaultKind::PrecondBreakdown => LinalgError::NotPositiveDefinite { pivot: usize::MAX },
            _ => LinalgError::NotConverged {
                method: "fault-injection",
                iterations: 0,
                residual: f64::INFINITY,
            },
        }
    }

    /// Faults that have actually fired so far, in firing order.
    pub fn injected(&self) -> Vec<FaultEvent> {
        self.injected.lock().map(|l| l.clone()).unwrap_or_default()
    }

    /// Number of faults that have fired so far.
    pub fn injected_count(&self) -> usize {
        self.injected.lock().map(|l| l.len()).unwrap_or(0)
    }

    /// Opportunities observed so far for `kind`.
    pub fn opportunities(&self, kind: FaultKind) -> usize {
        self.counters[kind.index()].load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inert_plan_never_fires() {
        let plan = FaultPlan::new();
        for kind in FaultKind::ALL {
            for _ in 0..5 {
                assert!(!plan.should_fire(kind));
            }
            assert_eq!(plan.opportunities(kind), 5);
        }
        assert_eq!(plan.injected_count(), 0);
    }

    #[test]
    fn triggers_fire_at_exact_opportunities() {
        let plan = FaultPlan::new()
            .with_fault(FaultKind::PcgStagnation, 2)
            .with_fault(FaultKind::PcgStagnation, 4);
        let fired: Vec<bool> = (0..6)
            .map(|_| plan.should_fire(FaultKind::PcgStagnation))
            .collect();
        assert_eq!(fired, [false, false, true, false, true, false]);
        assert_eq!(
            plan.injected(),
            vec![
                FaultEvent {
                    kind: FaultKind::PcgStagnation,
                    opportunity: 2
                },
                FaultEvent {
                    kind: FaultKind::PcgStagnation,
                    opportunity: 4
                },
            ]
        );
        // Other kinds are untouched.
        assert!(!plan.plans(FaultKind::WriterPanic));
        assert!(plan.plans(FaultKind::PcgStagnation));
    }

    #[test]
    fn seeded_schedule_is_deterministic_and_covers_all_kinds() {
        let a = FaultPlan::seeded(42);
        let b = FaultPlan::seeded(42);
        assert_eq!(a.triggers, b.triggers);
        for kind in FaultKind::ALL {
            assert!(a.plans(kind), "seeded plan misses {}", kind.as_str());
        }
        let c = FaultPlan::seeded(43);
        assert_ne!(a.triggers, c.triggers);
    }

    #[test]
    fn injected_errors_match_failure_modes() {
        assert!(matches!(
            FaultPlan::error_for(FaultKind::PrecondBreakdown),
            LinalgError::NotPositiveDefinite { .. }
        ));
        assert!(matches!(
            FaultPlan::error_for(FaultKind::PcgStagnation),
            LinalgError::NotConverged { .. }
        ));
    }
}
