//! Metrics registry: named monotonic counters and log-scale histograms.
//!
//! The registry unifies the ad-hoc counters spread across `SolveStats`,
//! `SolverContext::handles_built`, and `ServeStats` under stable dotted
//! names (e.g. `solver.pcg_iterations`). Counters and histograms are plain atomics, so
//! recording from worker threads never takes a lock; name resolution does
//! take a short global lock, which is why call sites resolve once per
//! operation (a solve, a publish), never per inner-loop step.
//!
//! Counter totals are sums of per-operation integers, so they are bit-stable
//! across thread counts: the same operations run regardless of parallelism,
//! only their interleaving changes.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

use crate::recorder::enabled;

/// A monotonic counter.
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Creates a counter at zero.
    pub const fn new() -> Self {
        Counter {
            value: AtomicU64::new(0),
        }
    }

    /// Adds `n` to the counter.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Resets the counter to zero.
    pub fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

impl Default for Counter {
    fn default() -> Self {
        Self::new()
    }
}

/// Number of log₂ buckets: bucket 0 holds the value 0, bucket `i` (1..=64)
/// holds values in `[2^(i-1), 2^i)`.
const BUCKETS: usize = 65;

/// A log₂-bucketed histogram of `u64` samples (latencies in ns, sizes, ...).
///
/// Percentiles are extracted by rank-walking the buckets; the returned value
/// is the geometric midpoint of the bucket containing the requested rank,
/// clamped to the observed min/max. The relative error is therefore bounded
/// by the bucket width (a factor of 2).
pub struct Histogram {
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
    buckets: [AtomicU64; BUCKETS],
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count())
            .field("min", &self.min())
            .field("max", &self.max())
            .field("mean", &self.mean())
            .finish_non_exhaustive()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        #[allow(clippy::declare_interior_mutable_const)]
        const ZERO: AtomicU64 = AtomicU64::new(0);
        Histogram {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
            buckets: [ZERO; BUCKETS],
        }
    }

    fn bucket_of(v: u64) -> usize {
        if v == 0 {
            0
        } else {
            64 - v.leading_zeros() as usize
        }
    }

    /// Records one sample.
    pub fn record(&self, v: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
        self.buckets[Self::bucket_of(v)].fetch_add(1, Ordering::Relaxed);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Smallest recorded sample (0 when empty).
    pub fn min(&self) -> u64 {
        let m = self.min.load(Ordering::Relaxed);
        if m == u64::MAX {
            0
        } else {
            m
        }
    }

    /// Largest recorded sample.
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// Mean of recorded samples (0.0 when empty).
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum.load(Ordering::Relaxed) as f64 / n as f64
        }
    }

    /// Approximate percentile `p` in `[0, 100]`. Returns 0 when empty.
    pub fn percentile(&self, p: f64) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as u64;
        let rank = rank.min(n);
        let mut cum = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            cum += b.load(Ordering::Relaxed);
            if cum >= rank {
                let rep = if i == 0 {
                    0
                } else {
                    // Midpoint of [2^(i-1), 2^i).
                    let lo = 1u64 << (i - 1);
                    let hi = if i >= 64 { u64::MAX } else { (1u64 << i) - 1 };
                    lo / 2 + hi / 2 + (lo & hi & 1)
                };
                return rep.clamp(self.min(), self.max());
            }
        }
        self.max()
    }

    /// Per-bucket sample counts (index = log₂ bucket).
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect()
    }

    /// Resets the histogram to empty.
    pub fn reset(&self) {
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.min.store(u64::MAX, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

struct Registry {
    counters: Mutex<BTreeMap<&'static str, &'static Counter>>,
    histograms: Mutex<BTreeMap<&'static str, &'static Histogram>>,
}

static REGISTRY: OnceLock<Registry> = OnceLock::new();

fn registry() -> &'static Registry {
    REGISTRY.get_or_init(|| Registry {
        counters: Mutex::new(BTreeMap::new()),
        histograms: Mutex::new(BTreeMap::new()),
    })
}

/// Resolves (creating on first use) the named counter.
pub fn counter(name: &'static str) -> &'static Counter {
    let mut map = registry().counters.lock().unwrap();
    map.entry(name)
        .or_insert_with(|| Box::leak(Box::new(Counter::new())))
}

/// Resolves (creating on first use) the named histogram.
pub fn histogram(name: &'static str) -> &'static Histogram {
    let mut map = registry().histograms.lock().unwrap();
    map.entry(name)
        .or_insert_with(|| Box::leak(Box::new(Histogram::new())))
}

/// Adds `n` to the named counter when the recorder is enabled; a single
/// relaxed load otherwise.
#[inline]
pub fn count(name: &'static str, n: u64) {
    if enabled() {
        counter(name).add(n);
    }
}

/// Records a sample in the named histogram when the recorder is enabled.
#[inline]
pub fn observe(name: &'static str, v: u64) {
    if enabled() {
        histogram(name).record(v);
    }
}

/// Point-in-time value of one counter.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CounterSnapshot {
    /// Registered counter name.
    pub name: &'static str,
    /// Counter value at snapshot time.
    pub value: u64,
}

/// Point-in-time summary of one histogram.
#[derive(Clone, Copy, Debug)]
pub struct HistogramSnapshot {
    /// Registered histogram name.
    pub name: &'static str,
    /// Number of samples.
    pub count: u64,
    /// Approximate 50th percentile.
    pub p50: u64,
    /// Approximate 90th percentile.
    pub p90: u64,
    /// Approximate 99th percentile.
    pub p99: u64,
    /// Smallest sample.
    pub min: u64,
    /// Largest sample.
    pub max: u64,
    /// Mean sample.
    pub mean: f64,
}

/// Snapshots all registered counters, sorted by name.
pub fn counters_snapshot() -> Vec<CounterSnapshot> {
    let map = registry().counters.lock().unwrap();
    map.iter()
        .map(|(name, c)| CounterSnapshot {
            name,
            value: c.get(),
        })
        .collect()
}

/// Snapshots all registered histograms, sorted by name.
pub fn histograms_snapshot() -> Vec<HistogramSnapshot> {
    let map = registry().histograms.lock().unwrap();
    map.iter()
        .map(|(name, h)| HistogramSnapshot {
            name,
            count: h.count(),
            p50: h.percentile(50.0),
            p90: h.percentile(90.0),
            p99: h.percentile(99.0),
            min: h.min(),
            max: h.max(),
            mean: h.mean(),
        })
        .collect()
}

/// Resets every registered counter and histogram to zero/empty.
pub fn reset_metrics() {
    for c in registry().counters.lock().unwrap().values() {
        c.reset();
    }
    for h in registry().histograms.lock().unwrap().values() {
        h.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 1);
        assert_eq!(Histogram::bucket_of(2), 2);
        assert_eq!(Histogram::bucket_of(3), 2);
        assert_eq!(Histogram::bucket_of(4), 3);
        assert_eq!(Histogram::bucket_of(u64::MAX), 64);
    }

    #[test]
    fn percentile_tracks_reference_within_bucket() {
        let h = Histogram::new();
        let mut vals: Vec<u64> = (1..=1000u64).map(|i| i * 7 + 3).collect();
        for &v in &vals {
            h.record(v);
        }
        vals.sort_unstable();
        for &p in &[50.0, 90.0, 99.0] {
            let rank = ((p / 100.0) * vals.len() as f64).ceil() as usize;
            let exact = vals[rank - 1];
            let approx = h.percentile(p);
            // Same log2 bucket => within a factor of two.
            assert!(
                approx as f64 >= exact as f64 / 2.0 && approx as f64 <= exact as f64 * 2.0,
                "p{p}: approx {approx} vs exact {exact}"
            );
        }
    }

    #[test]
    fn empty_histogram_is_zeroes() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.percentile(50.0), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
    }
}
