//! Cross-crate contract of the serving layer: every response a reader
//! receives is internally consistent with exactly one published
//! snapshot — never a torn mix of pre- and post-publish state — and a
//! fixed snapshot answers bit-identically no matter how many reader
//! threads or ambient workers are involved.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use sgl::prelude::*;
use sgl_core::sample_node_pairs;
use sgl_linalg::{par, DenseMatrix};

/// An under-fitted session over the first `initial` of `m` measurement
/// columns, plus the full measurement set for streaming the rest.
fn session_and_columns(
    side: usize,
    m: usize,
    initial: usize,
) -> (SglSession<'static>, Measurements) {
    let truth = sgl_datasets::grid2d(side, side);
    let all = Measurements::generate(&truth, m, 7).unwrap();
    let cfg = SglConfig::builder()
        .k(4)
        .r(4)
        .tol(0.0)
        .max_iterations(4)
        .build()
        .unwrap();
    let first = column_batch(&all, 0, initial);
    let mut session = SglSession::from_owned(cfg, first).unwrap();
    session.run_to_completion().unwrap();
    (session, all)
}

fn column_batch(all: &Measurements, lo: usize, hi: usize) -> Measurements {
    let cols: Vec<Vec<f64>> = (lo..hi).map(|j| all.voltages().column(j)).collect();
    Measurements::from_voltages(DenseMatrix::from_columns(&cols)).unwrap()
}

/// The no-torn-reads contract under writer churn: readers hammer mixed
/// queries while the writer ingests and republishes; afterwards every
/// recorded response must bit-match the canonical answers of exactly
/// the snapshot version that served it.
#[test]
fn responses_consistent_with_exactly_one_snapshot_during_publishes() {
    let (session, all) = session_and_columns(8, 16, 10);
    let n = 64usize;
    let server = SglServer::new(session, ServeOptions::default()).unwrap();
    let reader = server.handle();

    let pairs: Vec<Vec<(usize, usize)>> = (0..8)
        .map(|i| sample_node_pairs(n, 4, 0xBEEF + i as u64))
        .collect();
    let injection = |i: usize| {
        let mut b = vec![0.0; n];
        b[i % n] = 1.0;
        b[(i * 13 + 5) % n] = -1.0;
        b
    };

    // Canonical answers per version, captured from pinned snapshots.
    let canon = |snap: &GraphSnapshot| -> (Vec<Vec<f64>>, Vec<Vec<f64>>, Vec<usize>) {
        let res = pairs.iter().map(|p| snap.resistances(p).unwrap()).collect();
        let interp = (0..4)
            .map(|i| snap.interpolate(&injection(i)).unwrap())
            .collect();
        let labels = (0..n).map(|v| snap.cluster_of(v).unwrap()).collect();
        (res, interp, labels)
    };
    let mut canonical = vec![canon(&reader.snapshot())];

    let stop = Arc::new(AtomicBool::new(false));
    let mut readers = Vec::new();
    for r in 0..3usize {
        let handle = server.handle();
        let stop = Arc::clone(&stop);
        let pairs = pairs.clone();
        readers.push(std::thread::spawn(move || {
            // (kind, index, version, payload) records for post-hoc check.
            let mut res = Vec::new();
            let mut interp = Vec::new();
            let mut clusters = Vec::new();
            let mut q = r;
            while !stop.load(Ordering::Relaxed) {
                let set = q % pairs.len();
                let resp = handle.resistances(&pairs[set]).unwrap();
                res.push((set, resp.version, resp.value));
                let i = q % 4;
                let mut b = vec![0.0; 64];
                b[i % 64] = 1.0;
                b[(i * 13 + 5) % 64] = -1.0;
                let resp = handle.interpolate(&b).unwrap();
                interp.push((i, resp.version, resp.value));
                let v = q % 64;
                let resp = handle.cluster_of(v).unwrap();
                clusters.push((v, resp.version, resp.value));
                q += 1;
            }
            (res, interp, clusters)
        }));
    }

    // Stream the remaining columns in two batches, capturing canonical
    // answers for each published version as it appears.
    for (lo, hi) in [(10usize, 13usize), (13, 16)] {
        server.ingest(column_batch(&all, lo, hi)).unwrap();
        server.flush().unwrap();
        let snap = reader.snapshot();
        assert_eq!(snap.version() as usize, canonical.len());
        canonical.push(canon(&snap));
    }
    // Let the readers observe the final version before stopping.
    let final_resp = reader.resistances(&pairs[0]).unwrap();
    assert_eq!(final_resp.version, 2);
    stop.store(true, Ordering::Relaxed);

    let mut versions_seen = std::collections::BTreeSet::new();
    versions_seen.insert(final_resp.version);
    assert_eq!(final_resp.value, canonical[2].0[0]);
    for t in readers {
        let (res, interp, clusters) = t.join().unwrap();
        for (set, version, values) in res {
            versions_seen.insert(version);
            assert_eq!(
                values, canonical[version as usize].0[set],
                "torn resistance read on version {version}"
            );
        }
        for (i, version, values) in interp {
            assert_eq!(
                values, canonical[version as usize].1[i],
                "torn interpolation read on version {version}"
            );
        }
        for (v, version, label) in clusters {
            assert_eq!(
                label, canonical[version as usize].2[v],
                "torn cluster read on version {version}"
            );
        }
    }
    // The workload genuinely spanned a publish (v0 before the first
    // ingest is pinned above; v2 is asserted after the last flush).
    assert!(versions_seen.contains(&2));
    assert!(versions_seen.len() >= 2, "saw {versions_seen:?}");

    let session = server.shutdown().unwrap();
    assert_eq!(session.measurements().num_measurements(), 16);
}

/// A fixed snapshot is a pure function of its version: answers are
/// bit-identical across reader counts and ambient worker counts (the
/// serving extension of the `parallel_equivalence` contract).
#[test]
fn fixed_snapshot_bit_identical_across_reader_and_thread_counts() {
    let (session, _) = session_and_columns(8, 12, 12);
    let server = SglServer::new(session, ServeOptions::default()).unwrap();
    let reader = server.handle();
    let pairs = sample_node_pairs(64, 12, 0x5EED);

    // Canonical: straight off the pinned snapshot, single-threaded.
    let snap = reader.snapshot();
    let canonical = par::with_threads(1, || snap.resistances(&pairs).unwrap());

    // Ambient worker count must not change a snapshot answer.
    for threads in [2usize, 4] {
        let answers = par::with_threads(threads, || snap.resistances(&pairs).unwrap());
        assert_eq!(answers, canonical, "ambient threads = {threads}");
    }

    // Concurrent readers through serve handles must reproduce the same
    // bits.
    for readers in [1usize, 2, 4] {
        let mut threads = Vec::new();
        for _ in 0..readers {
            let handle = server.handle();
            let pairs = pairs.clone();
            threads.push(std::thread::spawn(move || {
                (0..5)
                    .map(|_| handle.resistances(&pairs).unwrap())
                    .collect::<Vec<_>>()
            }));
        }
        for t in threads {
            for resp in t.join().unwrap() {
                assert_eq!(resp.version, 0);
                assert_eq!(resp.value, canonical, "readers = {readers}");
            }
        }
    }
}

/// Concurrent handle interpolation answers equal the direct snapshot
/// solve, and per-request validation errors stay individual — a bad
/// request cannot poison the requests running beside it.
#[test]
fn concurrent_queries_preserve_answers_and_isolate_bad_requests() {
    let (session, _) = session_and_columns(6, 10, 10);
    let n = 36usize;
    let server = SglServer::new(session, ServeOptions::default()).unwrap();
    let snap = server.handle().snapshot();

    let injection = |i: usize| {
        let mut b = vec![0.0; n];
        b[i] = 1.0;
        b[n - 1 - i] = -1.0;
        b
    };
    let direct: Vec<Vec<f64>> = (0..4)
        .map(|i| snap.interpolate(&injection(i)).unwrap())
        .collect();

    let mut threads = Vec::new();
    for i in 0..4usize {
        let handle = server.handle();
        let b = injection(i);
        threads.push(std::thread::spawn(move || {
            (i, handle.interpolate(&b).unwrap())
        }));
    }
    // A concurrent malformed request (wrong width) must fail alone.
    let bad_handle = server.handle();
    let bad = std::thread::spawn(move || bad_handle.interpolate(&[1.0, -1.0]));
    for t in threads {
        let (i, resp) = t.join().unwrap();
        assert_eq!(resp.value, direct[i], "handle interpolation changed bits");
    }
    assert!(matches!(bad.join().unwrap(), Err(ServeError::BadQuery(_))));

    // Same isolation on the resistance path.
    let good = server.handle().resistances(&[(0, 35)]).unwrap();
    assert!(matches!(
        server.handle().resistances(&[(0, 0)]),
        Err(ServeError::BadQuery(_))
    ));
    assert_eq!(good.value, snap.resistances(&[(0, 35)]).unwrap());
}
