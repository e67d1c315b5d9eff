//! Network serving: the learned graph behind an HTTP front-end that
//! sheds overload instead of falling over.
//!
//! A `NetServer` wraps a running `SglServer` in a std-only HTTP/1.1
//! front-end with three robustness layers: admission control (bounded
//! accept queue + per-peer rate limiting, both shedding with
//! `429 Retry-After`), bounded request parsing (read deadlines and
//! size caps turn slowloris and junk into clean 4xx), and graceful
//! degradation (a circuit breaker turns a faulting ingest path into
//! `503` while queries keep serving). This example queries over the wire, streams a batch in
//! via `POST /ingest`, demonstrates the breaker tripping on
//! quarantined batches, and finishes with the deterministic drain
//! that hands the learning session back.
//!
//! Run with: `cargo run --release --example network_serving`

use std::time::Duration;

use sgl::prelude::*;
use sgl_linalg::DenseMatrix;
use sgl_net::json::Json;
use sgl_net::server::loopback;
use sgl_net::{client, json};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Ground truth: an 8×8 resistor mesh; learn from 16 of 20
    // excitations, keep the rest to stream over the wire.
    let truth = sgl_datasets::grid2d(8, 8);
    let all = Measurements::generate(&truth, 20, 7)?;
    let batch = |lo: usize, hi: usize| -> Result<Measurements, sgl_core::SglError> {
        let cols: Vec<Vec<f64>> = (lo..hi).map(|j| all.voltages().column(j)).collect();
        Measurements::from_voltages(DenseMatrix::from_columns(&cols))
    };
    let cfg = SglConfig::builder()
        .k(4)
        .r(4)
        .tol(0.0)
        .max_iterations(4)
        .build()?;
    let mut session = SglSession::from_owned(cfg, batch(0, 16)?)?;
    session.run_to_completion()?;
    println!("learned model   : {} edges", session.graph().num_edges());

    // Serve it on an ephemeral loopback port. The breaker trips after
    // two ingest faults and probes again after a short cooldown.
    let server = SglServer::new(session, ServeOptions::default())?;
    let net = NetServer::bind(
        server,
        loopback(),
        NetOptions {
            breaker_trip_after: 2,
            breaker_cooldown: Duration::from_millis(200),
            ..NetOptions::default()
        },
    )?;
    let addr = net.local_addr();
    println!("serving on      : http://{addr}");

    // Query over the wire: effective resistances, version-tagged.
    let reply = client::post(addr, "/resistances", r#"{"pairs":[[0,1],[0,63]]}"#)
        .map_err(std::io::Error::other)?;
    let parsed = reply.json().map_err(std::io::Error::other)?;
    let resistances: Vec<f64> = parsed
        .get("resistances")
        .and_then(|v| v.as_array())
        .map(|xs| xs.iter().filter_map(Json::as_f64).collect())
        .unwrap_or_default();
    println!(
        "resistances     : {:?} (version {}, status {})",
        resistances,
        parsed
            .get("version")
            .and_then(|v| v.as_usize())
            .unwrap_or(0),
        reply.status,
    );

    // Stream a measurement batch in over HTTP, then flush so the next
    // query answers from the refreshed snapshot.
    let b = batch(16, 20)?;
    let cols: Vec<Vec<f64>> = (0..b.num_measurements())
        .map(|j| b.voltages().column(j))
        .collect();
    let body = format!("{{\"columns\":{}}}", json::f64_matrix(&cols));
    let reply = client::post(addr, "/ingest", &body).map_err(std::io::Error::other)?;
    println!(
        "ingest          : status {} ({} columns queued)",
        reply.status,
        cols.len()
    );
    let reply = client::post(addr, "/flush", "").map_err(std::io::Error::other)?;
    let version = reply
        .json()
        .ok()
        .and_then(|j| j.get("version").and_then(|v| v.as_usize()))
        .unwrap_or(0);
    println!(
        "flush           : status {} -> now serving version {version}",
        reply.status
    );

    // Graceful degradation: two node-count-mismatched batches are
    // quarantined, the breaker trips, ingest answers 503 — and queries
    // keep serving throughout.
    let wrong = sgl_datasets::grid2d(9, 9);
    let bad = Measurements::generate(&wrong, 2, 1)?;
    let bad_cols: Vec<Vec<f64>> = (0..2).map(|j| bad.voltages().column(j)).collect();
    let bad_body = format!("{{\"columns\":{}}}", json::f64_matrix(&bad_cols));
    for _ in 0..2 {
        let r = client::post(addr, "/ingest", &bad_body).map_err(std::io::Error::other)?;
        println!("bad ingest      : status {} (quarantined)", r.status);
    }
    let refused = client::post(addr, "/ingest", &body).map_err(std::io::Error::other)?;
    let healthz = client::get(addr, "/healthz").map_err(std::io::Error::other)?;
    println!(
        "breaker open    : ingest -> {} (Retry-After {}), queries -> {} — degraded, not down",
        refused.status,
        refused.header("retry-after").unwrap_or("?"),
        healthz.status,
    );

    // After the cooldown a clean probe closes the breaker again.
    std::thread::sleep(Duration::from_millis(250));
    let probe = client::post(addr, "/ingest", &body).map_err(std::io::Error::other)?;
    println!(
        "after cooldown  : ingest -> {} (breaker closed by clean probe)",
        probe.status
    );

    // Deterministic drain: stop accepting, answer everything admitted,
    // absorb queued batches, hand the session back.
    let stats = net.stats();
    let session = net.shutdown()?;
    println!(
        "drained         : {} requests served ({} shed), session owns {} columns",
        stats.requests_ok,
        stats.shed + stats.rate_limited,
        session.measurements().num_measurements(),
    );
    Ok(())
}
