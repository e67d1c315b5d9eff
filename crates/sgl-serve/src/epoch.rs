//! [`SnapshotCell`]: a lock-free-for-readers snapshot slot, the
//! `arc-swap` idiom built on `std` alone.
//!
//! The serving layer keeps the current [`GraphSnapshot`] behind one of
//! these cells: the single writer publishes a fresh `Arc<T>` after every
//! ingest, and any number of reader threads [`load`](SnapshotCell::load)
//! the current one without ever taking a lock — a load is two atomic
//! version reads bracketing a reader-count increment, then an `Arc`
//! clone.
//!
//! # How it works
//!
//! `Arc<T>` cannot be cloned out of a bare `AtomicPtr` safely (the
//! writer could drop the last reference between the pointer read and the
//! refcount increment), so the cell keeps a small ring of `SLOTS` slots
//! and a monotone `version` counter; slot `version % SLOTS` holds the
//! live snapshot. A reader pins a slot by incrementing its reader count,
//! then *re-checks* the version: if it moved, the reader unpins and
//! retries (publishes are rare — ingest cadence, not query cadence). The
//! writer publishes into the *next* slot — never the live one — and
//! waits for that slot's reader count to drain before overwriting, so it
//! can only disturb readers `SLOTS` generations behind, and those are
//! exactly the ones whose re-check fails.
//!
//! Why the re-check makes the unsafe cell access sound: the writer
//! stores into slot `(v+1) % SLOTS` while `version` still reads `v`. A
//! reader that pinned that slot must have loaded some version `w ≡ v+1
//! (mod SLOTS)` with `w ≤ v`; since `SLOTS ≥ 2`, any such `w` satisfies
//! `w ≤ v + 1 − SLOTS < v`, so its re-check (`version == w`) fails and
//! it never dereferences the cell. Conversely the writer's drain loop
//! (acquire) synchronizes with every unpinning reader's release
//! decrement, so a reader that *did* pass the re-check finishes its
//! `Arc` clone before the overwrite starts.
//!
//! [`GraphSnapshot`]: crate::snapshot::GraphSnapshot

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Ring length. Any value ≥ 2 is sound (see the module docs); a few
/// spare generations keep the writer from ever waiting on a reader that
/// pinned a slot just before a publish burst.
const SLOTS: usize = 8;

struct Slot<T> {
    value: UnsafeCell<Option<Arc<T>>>,
    readers: AtomicUsize,
}

/// An epoch-published `Arc<T>` cell: lock-free reads of the current
/// value, serialized writers, no external crates (see the [module
/// docs](self)).
pub struct SnapshotCell<T> {
    slots: Vec<Slot<T>>,
    /// Monotone publish counter; slot `version % SLOTS` is live.
    version: AtomicU64,
    /// Serializes publishers (readers never touch it).
    writer: Mutex<()>,
}

// SAFETY: the ring protocol above guarantees a slot's `UnsafeCell` is
// written only while no reader holds a pin that passed its version
// re-check, and read only under such a pin — so cross-thread access to
// the cells is ordered by the version/readers atomics. The payload
// itself crosses threads as `Arc<T>`, hence the `T: Send + Sync` bound.
unsafe impl<T: Send + Sync> Send for SnapshotCell<T> {}
unsafe impl<T: Send + Sync> Sync for SnapshotCell<T> {}

impl<T> SnapshotCell<T> {
    /// A cell holding `initial` as version 0.
    pub fn new(initial: Arc<T>) -> Self {
        let slots: Vec<Slot<T>> = (0..SLOTS)
            .map(|i| Slot {
                value: UnsafeCell::new((i == 0).then(|| Arc::clone(&initial))),
                readers: AtomicUsize::new(0),
            })
            .collect();
        SnapshotCell {
            slots,
            version: AtomicU64::new(0),
            writer: Mutex::new(()),
        }
    }

    /// The current version (0-based; each publish increments it).
    pub fn version(&self) -> u64 {
        self.version.load(Ordering::Acquire)
    }

    /// The current `(version, value)` — lock-free; retries only while a
    /// publish lands between the version read and the slot pin.
    pub fn load(&self) -> (u64, Arc<T>) {
        loop {
            let v = self.version.load(Ordering::Acquire);
            let slot = &self.slots[(v % SLOTS as u64) as usize];
            slot.readers.fetch_add(1, Ordering::SeqCst);
            if self.version.load(Ordering::SeqCst) == v {
                // SAFETY: the pin + re-check protocol (module docs)
                // guarantees no writer touches this slot while we hold
                // the pin with a passing re-check.
                let value = unsafe { (*slot.value.get()).clone() };
                slot.readers.fetch_sub(1, Ordering::Release);
                return (v, value.expect("live slot is always populated"));
            }
            slot.readers.fetch_sub(1, Ordering::Release);
            std::hint::spin_loop();
        }
    }

    /// Publish a new value, returning its version. Blocks only other
    /// publishers (and, briefly, on readers still draining the slot from
    /// `SLOTS` publishes ago).
    pub fn publish(&self, value: Arc<T>) -> u64 {
        // A publisher that panicked between acquiring the guard and the
        // version store left the cell fully consistent (the version is
        // only bumped after the slot write completes), so a poisoned
        // lock is safe to heal.
        let _guard = self
            .writer
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let next = self.version.load(Ordering::Relaxed) + 1;
        let slot = &self.slots[(next % SLOTS as u64) as usize];
        // Drain stragglers pinned to the ancient generation of this
        // slot; their re-check has already failed or is about to, so the
        // pin is momentary.
        while slot.readers.load(Ordering::SeqCst) != 0 {
            std::hint::spin_loop();
        }
        // SAFETY: `next` is not the live version, so no reader's
        // re-check can pass for this slot until the version store below;
        // the drain loop above synchronized with any reader that pinned
        // its old generation.
        unsafe {
            *slot.value.get() = Some(value);
        }
        self.version.store(next, Ordering::SeqCst);
        next
    }
}

impl<T> std::fmt::Debug for SnapshotCell<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SnapshotCell")
            .field("version", &self.version())
            .field("slots", &SLOTS)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    #[test]
    fn publish_advances_version_and_value() {
        let cell = SnapshotCell::new(Arc::new(10u64));
        assert_eq!(cell.load(), (0, Arc::new(10)));
        for i in 1..=20u64 {
            // Past SLOTS publishes: the ring wraps and old Arcs drop.
            assert_eq!(cell.publish(Arc::new(10 + i)), i);
            let (v, x) = cell.load();
            assert_eq!((v, *x), (i, 10 + i));
        }
        assert_eq!(cell.version(), 20);
    }

    /// Torn-read stress: the payload embeds its version redundantly; any
    /// mix of two snapshots in one load would be caught immediately.
    #[test]
    fn concurrent_loads_never_tear() {
        #[derive(Debug)]
        struct Payload {
            version: u64,
            echo: Vec<u64>,
        }
        let make = |v: u64| {
            Arc::new(Payload {
                version: v,
                echo: vec![v; 32],
            })
        };
        let cell = Arc::new(SnapshotCell::new(make(0)));
        let stop = Arc::new(AtomicBool::new(false));
        // Readers are running when the first publish starts, and every
        // load they make before `stop` is counted in `loaded`.
        let started = Arc::new(std::sync::Barrier::new(5));
        let loaded = Arc::new(AtomicU64::new(0));
        let mut readers = Vec::new();
        for _ in 0..4 {
            let cell = Arc::clone(&cell);
            let stop = Arc::clone(&stop);
            let started = Arc::clone(&started);
            let loaded = Arc::clone(&loaded);
            readers.push(std::thread::spawn(move || {
                started.wait();
                let mut loads = 0u64;
                let mut last = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let (v, p) = cell.load();
                    assert_eq!(p.version, v, "slot/value mismatch");
                    assert!(p.echo.iter().all(|&e| e == v), "torn payload");
                    assert!(v >= last, "version went backwards");
                    last = v;
                    loads += 1;
                    loaded.fetch_add(1, Ordering::Relaxed);
                }
                loads
            }));
        }
        started.wait();
        // Publish well past the ring length while readers hammer. The
        // last publish waits (up to 10 s) for a reader to have loaded, so
        // the loads overlap the publishes even when the scheduler runs
        // the publisher first.
        for v in 1..=500u64 {
            if v == 500 {
                let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
                while loaded.load(Ordering::Relaxed) == 0 && std::time::Instant::now() < deadline {
                    std::thread::yield_now();
                }
            }
            cell.publish(make(v));
            if v % 50 == 0 {
                std::thread::yield_now();
            }
        }
        stop.store(true, Ordering::Relaxed);
        let total: u64 = readers.into_iter().map(|r| r.join().unwrap()).sum();
        assert!(total > 0, "readers never got a load in");
        assert_eq!(cell.version(), 500);
    }
}
