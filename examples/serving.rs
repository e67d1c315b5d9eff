//! Serving: answer queries from a learned graph while it keeps learning.
//!
//! An `SglServer` splits a learning session into a single writer thread
//! (streaming-measurement ingest + bounded refinement + snapshot
//! publish) and any number of lock-free readers. This example spawns
//! reader threads that hammer effective-resistance, embedding, cluster,
//! and interpolation queries while the main thread streams in three
//! more measurement batches — then verifies every answer was tagged
//! with a snapshot version the server actually published.
//!
//! Run with: `cargo run --release --example serving`

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use sgl::prelude::*;
use sgl_linalg::DenseMatrix;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Ground truth: a 10×10 resistor mesh we pretend is unknown.
    let truth = sgl_datasets::grid2d(10, 10);
    let n = truth.num_nodes();
    println!("ground truth    : {truth}");

    // 32 excitations total; learn from the first 20, stream the rest.
    let all = Measurements::generate(&truth, 32, 7)?;
    let batch = |lo: usize, hi: usize| -> Result<Measurements, sgl_core::SglError> {
        let cols: Vec<Vec<f64>> = (lo..hi).map(|j| all.voltages().column(j)).collect();
        Measurements::from_voltages(DenseMatrix::from_columns(&cols))
    };

    // A deliberately small iteration cap: the initial model is served
    // under-fitted, and each ingested batch's refinement sweeps keep
    // adding edges, so every republish serves a new graph revision with
    // a freshly built solver handle.
    let cfg = SglConfig::builder()
        .k(5)
        .r(5)
        .tol(0.0)
        .max_iterations(4)
        .build()?;
    let mut session = SglSession::from_owned(cfg, batch(0, 20)?)?;
    session.run_to_completion()?;
    println!(
        "initial model   : {} edges after {} iterations ({})",
        session.graph().num_edges(),
        session.trace().len(),
        session.stop_verdict(),
    );

    // Serve it. The session moves into the writer thread.
    let server = SglServer::new(session, ServeOptions::default())?;
    let stop = Arc::new(AtomicBool::new(false));

    // Reader threads: each loops over a mixed query workload, recording
    // which snapshot version answered.
    let mut readers = Vec::new();
    for id in 0..3usize {
        let handle = server.handle();
        let stop = Arc::clone(&stop);
        readers.push(std::thread::spawn(move || -> Result<_, ServeError> {
            let mut answered = 0u64;
            let mut versions_seen = Vec::new();
            let mut probe = id + 1;
            while !stop.load(Ordering::Relaxed) {
                let s = probe % n;
                let t = (probe * 7 + 1) % n;
                if s != t {
                    let r = handle.resistances(&[(s, t)])?;
                    versions_seen.push(r.version);
                }
                let coords = handle.embedding_coords(s)?;
                let _cluster = handle.nearest_cluster(&coords.value)?;
                let mut inj = vec![0.0; n];
                inj[s] = 1.0;
                inj[(s + n / 2) % n] = -1.0;
                let v = handle.interpolate(&inj)?;
                assert_eq!(v.value.len(), n);
                answered += 4;
                probe = probe.wrapping_mul(31).wrapping_add(17);
            }
            versions_seen.dedup();
            Ok((answered, versions_seen))
        }));
    }

    // Stream the remaining measurements in while the readers run.
    for (i, (lo, hi)) in [(20, 24), (24, 28), (28, 32)].iter().enumerate() {
        server.ingest(batch(*lo, *hi)?)?;
        server.flush()?;
        let stats = server.stats();
        println!(
            "ingest {}        : snapshot v{} published ({} columns absorbed)",
            i + 1,
            stats.version,
            stats.measurements_ingested,
        );
    }

    stop.store(true, Ordering::Relaxed);
    for (i, reader) in readers.into_iter().enumerate() {
        let (answered, versions) = reader.join().expect("reader panicked")?;
        println!("reader {i}        : {answered} queries, saw versions {versions:?}");
        assert!(versions.iter().all(|&v| v <= 3), "impossible version");
        assert!(
            versions.windows(2).all(|w| w[0] <= w[1]),
            "version went backwards"
        );
    }

    let stats = server.stats();
    println!(
        "served          : {} queries, {} of them solve-backed (p50 {:.1} µs, p99 {:.1} µs in-server)",
        stats.queries_answered,
        stats.batches_executed,
        stats.query_latency_p50_ms * 1e3,
        stats.query_latency_p99_ms * 1e3,
    );
    println!("solver revisions: {} handles built", stats.handles_built);

    // Handoff back out: finish learning offline with everything absorbed.
    let session = server.shutdown()?;
    let result = session.finish()?;
    println!(
        "final model     : {} edges, verdict {}",
        result.graph.num_edges(),
        result.stop_verdict,
    );
    Ok(())
}
