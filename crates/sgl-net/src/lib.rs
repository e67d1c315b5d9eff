//! # sgl-net — an overload-resilient HTTP/1.1 front-end for SGL serving
//!
//! Puts [`sgl_serve::SglServer`] on the network with nothing but the
//! standard library: a [`server::NetServer`] binds a
//! `std::net::TcpListener`, spawns an accept thread plus a worker
//! pool, and serves the learned graph's query surface as small JSON
//! endpoints. The design goal is *robustness under hostile load*, in
//! three layers:
//!
//! 1. **Admission control** — connections are shed *before* they can
//!    occupy a worker: a per-peer token bucket and a bounded
//!    accept→worker queue both answer `429 Too Many Requests` with a
//!    `Retry-After` hint (reject-newest, so admitted work keeps its
//!    latency). See [`server::NetOptions::queue_capacity`] and
//!    [`server::NetOptions::rate_limit`].
//! 2. **Bounded parsing** — every connection reads under a total
//!    wall-clock budget with hard caps on header and body size
//!    ([`http`]); slowloris trickles, oversized uploads, and malformed
//!    requests all become clean 4xx responses, never hung workers and
//!    never panics.
//! 3. **Graceful degradation** — a circuit breaker ([`limit::Breaker`])
//!    over the ingest path turns a faulting writer into `503`s *while
//!    queries keep serving the last good snapshot*, and
//!    [`server::NetServer::shutdown`] drains deterministically
//!    (stop accepting → answer everything admitted → hand the
//!    learning session back).
//!
//! # Endpoints
//!
//! | Route | Body | Answer |
//! |---|---|---|
//! | `GET /healthz` | — | `{"status":"ok","version":v}` |
//! | `GET /stats` | — | front-end + serving counters |
//! | `GET /coords/<n>` | — | spectral coordinates of node `n` |
//! | `GET /cluster/<n>` | — | cluster label of node `n` |
//! | `GET /distance/<s>/<t>` | — | squared embedding distance |
//! | `POST /resistances` | `{"pairs":[[s,t],..]}` | effective resistances |
//! | `POST /interpolate` | `{"injections":[[..],..]}` | voltage solutions |
//! | `POST /nearest` | `{"point":[..]}` | nearest cluster centroid |
//! | `POST /ingest` | `{"columns":[[..],..]}` | `202` queued (breaker-gated) |
//! | `POST /flush` | — | blocks until ingests are absorbed |
//!
//! Every response carries `Connection: close` (one request per
//! connection) and the snapshot `version` that answered, so a client
//! can assert it never sees a torn read across a concurrent publish.
//! Floats are rendered with Rust's shortest round-trip `Display`, so
//! a network answer is bit-identical to the in-process one.
//!
//! # Example
//!
//! ```no_run
//! use sgl_net::{client, server::{loopback, NetOptions, NetServer}};
//! # fn demo(server: sgl_serve::SglServer) -> Result<(), String> {
//! let net = NetServer::bind(server, loopback(), NetOptions::default())
//!     .map_err(|e| e.to_string())?;
//! let reply = client::post(
//!     net.local_addr(),
//!     "/resistances",
//!     r#"{"pairs":[[0, 5]]}"#,
//! )?;
//! assert_eq!(reply.status, 200);
//! let session = net.shutdown().map_err(|e| e.to_string())?;
//! # let _ = session; Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod client;
pub mod http;
pub mod json;
pub mod limit;
pub mod server;

pub use limit::{Breaker, BreakerDecision, BreakerState, PeerLimiter};
pub use server::{loopback, NetOptions, NetServer, NetStats, RateLimit};

/// Errors surfaced by the network layer itself (request-level
/// failures are answered over the wire, not returned here).
#[derive(Debug)]
pub enum NetError {
    /// Socket or thread plumbing failed, rendered.
    Io(String),
    /// The underlying serving layer failed (e.g. during shutdown
    /// handoff).
    Serve(sgl_serve::ServeError),
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Io(msg) => write!(f, "network front-end failure: {msg}"),
            NetError::Serve(e) => write!(f, "serving layer failure: {e}"),
        }
    }
}

impl std::error::Error for NetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NetError::Io(_) => None,
            NetError::Serve(e) => Some(e),
        }
    }
}

impl From<sgl_serve::ServeError> for NetError {
    fn from(e: sgl_serve::ServeError) -> Self {
        NetError::Serve(e)
    }
}
