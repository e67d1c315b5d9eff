//! The threaded network front-end: [`NetServer`] and its tunables.
//!
//! # Architecture
//!
//! ```text
//!  accept thread ──► bounded job queue ──► worker pool ──► SglServer
//!   │ net.accepted      │ watermark          │ per-request     │ micro-batched
//!   │ rate limiter      │ reject-newest      │ read deadline   │ queries +
//!   └ 429 shed          └ 429 + Retry-After  └ 4xx on junk     └ ingest writer
//! ```
//!
//! Admission control happens *before* a connection can occupy a
//! worker: the accept thread charges the peer's token bucket and
//! checks the queue watermark, shedding with `429` while workers stay
//! free to drain admitted work. Workers then enforce the per-
//! connection read budget and size caps while parsing, propagate the
//! client's `x-sgl-deadline-ms` into the micro-batcher, and gate
//! ingest through a circuit breaker fed by the serving layer's fault
//! counters (writer restarts + quarantined batches). Queries never
//! pass through the breaker — a failing ingest path degrades writes
//! to `503` while reads keep serving the last good snapshot.

use std::collections::VecDeque;
use std::net::{IpAddr, Ipv4Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use sgl_core::{Measurements, SglSession};
use sgl_linalg::dense::DenseMatrix;
use sgl_serve::{ServeError, ServeHandle, ServeStats, SglServer};
use sgl_trace::Histogram;

use crate::http::{self, Method, ReadLimits, Request};
use crate::json::{self, Json};
use crate::limit::{Breaker, BreakerDecision, BreakerState, PeerLimiter};
use crate::NetError;

/// Per-peer sustained request rate (see [`NetOptions::rate_limit`]).
#[derive(Debug, Clone, Copy)]
pub struct RateLimit {
    /// Immediate burst allowance per peer.
    pub burst: u32,
    /// Sustained refill rate, requests per second.
    pub per_second: f64,
}

/// Tunables for a [`NetServer`].
#[derive(Debug, Clone)]
pub struct NetOptions {
    /// Worker threads handling admitted connections.
    pub workers: usize,
    /// Watermark on the accept→worker queue: a connection arriving
    /// while this many are already queued is shed with `429`
    /// (reject-newest keeps queue wait bounded for admitted work).
    pub queue_capacity: usize,
    /// Cap on one request's head (request line + headers), bytes.
    pub max_header_bytes: usize,
    /// Cap on one request's body, bytes.
    pub max_body_bytes: usize,
    /// Total wall-clock budget for *reading* one request (anti-
    /// slowloris; see [`crate::http`]).
    pub read_deadline: Duration,
    /// `Retry-After` hint (seconds) on shed responses.
    pub retry_after: Duration,
    /// Per-peer token bucket; `None` (the default) disables rate
    /// limiting — overload protection then rests on the queue
    /// watermark alone.
    pub rate_limit: Option<RateLimit>,
    /// Ingest circuit breaker: trip to `503` after this many new
    /// serving-layer faults (writer restarts + quarantined batches).
    /// `0` disables the breaker.
    pub breaker_trip_after: u64,
    /// How long a tripped breaker refuses ingest before admitting a
    /// single half-open probe.
    pub breaker_cooldown: Duration,
}

impl Default for NetOptions {
    fn default() -> Self {
        NetOptions {
            workers: 4,
            queue_capacity: 128,
            max_header_bytes: 8 * 1024,
            max_body_bytes: 1024 * 1024,
            read_deadline: Duration::from_secs(2),
            retry_after: Duration::from_secs(1),
            rate_limit: None,
            breaker_trip_after: 3,
            breaker_cooldown: Duration::from_millis(250),
        }
    }
}

/// A point-in-time view of the front-end's counters.
#[derive(Debug, Clone, Copy)]
pub struct NetStats {
    /// Connections accepted (before any admission decision).
    pub accepted: u64,
    /// Connections shed at the queue watermark (`429`).
    pub shed: u64,
    /// Connections shed by the per-peer rate limiter (`429`).
    pub rate_limited: u64,
    /// Requests rejected as malformed/oversized/slow (4xx).
    pub malformed: u64,
    /// Requests answered `2xx`.
    pub requests_ok: u64,
    /// Requests answered `4xx`/`5xx` after admission (includes
    /// `malformed`, deadline `504`s, breaker `503`s, ...).
    pub requests_failed: u64,
    /// Ingest requests refused by the open circuit breaker (`503`).
    pub breaker_rejected: u64,
    /// Times the ingest breaker tripped open.
    pub breaker_trips: u64,
    /// Current breaker state.
    pub breaker_state: BreakerState,
    /// Deepest the accept→worker queue has ever been.
    pub max_queue_depth: u64,
    /// Median accept-to-response latency of answered requests, ms.
    pub request_latency_p50_ms: f64,
    /// 99th-percentile accept-to-response latency, ms.
    pub request_latency_p99_ms: f64,
}

/// One admitted connection waiting for a worker.
struct Job {
    stream: TcpStream,
    peer: SocketAddr,
    accepted_at: Instant,
}

/// Counters shared by the acceptor and workers.
#[derive(Debug, Default)]
struct Counters {
    accepted: AtomicU64,
    shed: AtomicU64,
    rate_limited: AtomicU64,
    malformed: AtomicU64,
    requests_ok: AtomicU64,
    requests_failed: AtomicU64,
    breaker_rejected: AtomicU64,
    max_queue_depth: AtomicU64,
}

struct Inner {
    /// Read path: lock-free snapshot queries.
    handle: ServeHandle,
    /// Write path: ingest/flush/shutdown go through the owned server.
    /// The lock scope is one channel send — it serializes admission,
    /// not absorption.
    server: Mutex<Option<SglServer>>,
    jobs: Mutex<VecDeque<Job>>,
    job_ready: Condvar,
    stop: AtomicBool,
    limits: ReadLimits,
    queue_capacity: usize,
    retry_after_secs: u64,
    limiter: Option<PeerLimiter>,
    breaker: Breaker,
    counters: Counters,
    /// Accept-to-response latency, nanoseconds.
    latency: Histogram,
}

/// A running HTTP front-end over one [`SglServer`].
///
/// Construction binds a listener, spawns one accept thread and
/// [`NetOptions::workers`] worker threads, and starts serving the
/// endpoint table documented at the [crate root](crate).
/// [`shutdown`](Self::shutdown) drains and hands the learning session
/// back.
#[derive(Debug)]
pub struct NetServer {
    inner: Arc<Inner>,
    local_addr: SocketAddr,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for Inner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Inner")
            .field("queue_capacity", &self.queue_capacity)
            .finish_non_exhaustive()
    }
}

impl NetServer {
    /// Takes ownership of a running [`SglServer`] and serves it on
    /// `addr` (use port 0 for an ephemeral port;
    /// [`local_addr`](Self::local_addr) reports the binding).
    ///
    /// # Errors
    /// [`NetError::Io`] when the listener cannot bind or threads
    /// cannot spawn.
    pub fn bind(server: SglServer, addr: SocketAddr, opts: NetOptions) -> Result<Self, NetError> {
        let listener =
            TcpListener::bind(addr).map_err(|e| NetError::Io(format!("bind {addr}: {e}")))?;
        let local_addr = listener
            .local_addr()
            .map_err(|e| NetError::Io(format!("local_addr: {e}")))?;
        let inner = Arc::new(Inner {
            handle: server.handle(),
            server: Mutex::new(Some(server)),
            jobs: Mutex::new(VecDeque::new()),
            job_ready: Condvar::new(),
            stop: AtomicBool::new(false),
            limits: ReadLimits {
                max_header_bytes: opts.max_header_bytes,
                max_body_bytes: opts.max_body_bytes,
                deadline: opts.read_deadline,
            },
            queue_capacity: opts.queue_capacity.max(1),
            retry_after_secs: opts.retry_after.as_secs().max(1),
            limiter: opts
                .rate_limit
                .map(|r| PeerLimiter::new(r.burst, r.per_second)),
            breaker: Breaker::new(opts.breaker_trip_after, opts.breaker_cooldown),
            counters: Counters::default(),
            latency: Histogram::new(),
        });

        let mut workers = Vec::with_capacity(opts.workers.max(1));
        for i in 0..opts.workers.max(1) {
            let w = Arc::clone(&inner);
            let handle = std::thread::Builder::new()
                .name(format!("sgl-net-worker-{i}"))
                .spawn(move || worker_loop(&w))
                .map_err(|e| NetError::Io(format!("spawn worker: {e}")))?;
            workers.push(handle);
        }
        let a = Arc::clone(&inner);
        let acceptor = std::thread::Builder::new()
            .name("sgl-net-accept".into())
            .spawn(move || accept_loop(&a, &listener))
            .map_err(|e| NetError::Io(format!("spawn acceptor: {e}")))?;

        Ok(NetServer {
            inner,
            local_addr,
            acceptor: Some(acceptor),
            workers,
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// A direct in-process read handle onto the same snapshots the
    /// network path serves — lets tests assert network answers are
    /// bit-identical to local ones.
    pub fn serve_handle(&self) -> ServeHandle {
        self.inner.handle.clone()
    }

    /// Front-end counters.
    pub fn stats(&self) -> NetStats {
        let c = &self.inner.counters;
        let ns_to_ms = |ns: u64| ns as f64 / 1e6;
        NetStats {
            accepted: c.accepted.load(Ordering::Relaxed),
            shed: c.shed.load(Ordering::Relaxed),
            rate_limited: c.rate_limited.load(Ordering::Relaxed),
            malformed: c.malformed.load(Ordering::Relaxed),
            requests_ok: c.requests_ok.load(Ordering::Relaxed),
            requests_failed: c.requests_failed.load(Ordering::Relaxed),
            breaker_rejected: c.breaker_rejected.load(Ordering::Relaxed),
            breaker_trips: self.inner.breaker.times_opened(),
            breaker_state: self.inner.breaker.state(),
            max_queue_depth: c.max_queue_depth.load(Ordering::Relaxed),
            request_latency_p50_ms: ns_to_ms(self.inner.latency.percentile(50.0)),
            request_latency_p99_ms: ns_to_ms(self.inner.latency.percentile(99.0)),
        }
    }

    /// The serving layer's counters (same as `GET /stats` reports).
    pub fn serve_stats(&self) -> ServeStats {
        self.inner.handle.stats()
    }

    /// Graceful drain, then hand the learning session back.
    ///
    /// Ordering is deterministic and mirrors
    /// [`SglServer::shutdown`]'s three steps, extended one layer out:
    ///
    /// 1. **Stop accepting** — the stop flag flips, a self-connection
    ///    unblocks `accept`, the accept thread exits; new connections
    ///    are refused by the closed listener.
    /// 2. **Flush in-flight** — workers finish every job already in
    ///    the queue (each still under its own read deadline), then
    ///    exit; no admitted connection is dropped unanswered.
    /// 3. **Hand off** — the inner [`SglServer::shutdown`] runs its
    ///    own drain (absorb queued batches, final snapshot, session
    ///    handback).
    ///
    /// # Errors
    /// Propagates the inner server's shutdown error; the front-end
    /// threads are already joined by then.
    pub fn shutdown(mut self) -> Result<SglSession<'static>, NetError> {
        self.inner.stop.store(true, Ordering::SeqCst);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.local_addr);
        if let Some(a) = self.acceptor.take() {
            let _ = a.join();
        }
        // Order the stop flag before any worker's next Condvar::wait:
        // a worker that checked `stop` under the jobs lock but has not
        // parked yet would otherwise miss this notification and sleep
        // forever. Cycling the mutex forces that worker into `wait`
        // (where notification is guaranteed) before we notify.
        drop(lock(&self.inner.jobs));
        self.inner.job_ready.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        let server = lock(&self.inner.server)
            .take()
            .ok_or_else(|| NetError::Io("server already shut down".into()))?;
        server.shutdown().map_err(NetError::Serve)
    }
}

/// Locks a mutex, riding through poisoning (a panicked worker must
/// not wedge the whole front-end).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn accept_loop(inner: &Arc<Inner>, listener: &TcpListener) {
    for stream in listener.incoming() {
        if inner.stop.load(Ordering::SeqCst) {
            break;
        }
        let mut stream = match stream {
            Ok(s) => s,
            Err(_) => continue,
        };
        let peer = match stream.peer_addr() {
            Ok(p) => p,
            Err(_) => continue,
        };
        inner.counters.accepted.fetch_add(1, Ordering::Relaxed);
        sgl_trace::count("net.accepted", 1);

        // Admission gate 1: the peer's token bucket.
        if let Some(limiter) = &inner.limiter {
            if !limiter.admit(peer.ip(), Instant::now()) {
                inner.counters.rate_limited.fetch_add(1, Ordering::Relaxed);
                sgl_trace::count("net.shed", 1);
                shed(&mut stream, inner.retry_after_secs, "rate limit exceeded");
                continue;
            }
        }

        // Admission gate 2: the queue watermark (reject-newest).
        let mut jobs = lock(&inner.jobs);
        if jobs.len() >= inner.queue_capacity {
            drop(jobs);
            inner.counters.shed.fetch_add(1, Ordering::Relaxed);
            sgl_trace::count("net.shed", 1);
            shed(&mut stream, inner.retry_after_secs, "server overloaded");
            continue;
        }
        jobs.push_back(Job {
            stream,
            peer,
            accepted_at: Instant::now(),
        });
        let depth = jobs.len() as u64;
        drop(jobs);
        inner
            .counters
            .max_queue_depth
            .fetch_max(depth, Ordering::Relaxed);
        sgl_trace::observe("net.queue_depth", depth);
        inner.job_ready.notify_one();
    }
}

/// Writes a `429` with `Retry-After` and closes. Runs on the accept
/// thread, so it must never block long: a short write timeout bounds
/// a peer that won't read.
fn shed(stream: &mut TcpStream, retry_after_secs: u64, why: &str) {
    let _ = stream.set_write_timeout(Some(Duration::from_millis(100)));
    let body = format!("{{\"error\":{}}}", json::string(why));
    let _ = http::write_response(
        stream,
        429,
        "Too Many Requests",
        &[("retry-after", retry_after_secs.to_string())],
        &body,
    );
    let _ = stream.shutdown(Shutdown::Both);
}

fn worker_loop(inner: &Arc<Inner>) {
    loop {
        let job = {
            let mut jobs = lock(&inner.jobs);
            loop {
                if let Some(j) = jobs.pop_front() {
                    break Some(j);
                }
                if inner.stop.load(Ordering::SeqCst) {
                    break None;
                }
                jobs = inner
                    .job_ready
                    .wait(jobs)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            }
        };
        let Some(job) = job else { break };
        handle_connection(inner, job);
    }
}

/// Reads one request, dispatches it, writes one response, closes.
fn handle_connection(inner: &Arc<Inner>, job: Job) {
    let Job {
        mut stream,
        peer,
        accepted_at,
    } = job;
    let _ = stream.set_write_timeout(Some(Duration::from_secs(2)));
    let _ = stream.set_nodelay(true);

    let request = match http::read_request(&mut stream, &inner.limits) {
        Ok(r) => r,
        Err(e) => {
            if let Some((status, reason)) = e.status() {
                inner.counters.malformed.fetch_add(1, Ordering::Relaxed);
                inner
                    .counters
                    .requests_failed
                    .fetch_add(1, Ordering::Relaxed);
                sgl_trace::count("net.rejected", 1);
                sgl_trace::warn!("net: {peer}: rejected request ({e}) -> {status}");
                let body = format!("{{\"error\":{}}}", json::string(&e.to_string()));
                let _ = http::write_response(&mut stream, status, reason, &[], &body);
            }
            // Disconnected / half-open: nobody left to answer.
            let _ = stream.shutdown(Shutdown::Both);
            return;
        }
    };

    let (status, reason, extra, body) = dispatch(inner, &request);
    if status < 400 {
        inner.counters.requests_ok.fetch_add(1, Ordering::Relaxed);
    } else {
        inner
            .counters
            .requests_failed
            .fetch_add(1, Ordering::Relaxed);
    }
    let extra: Vec<(&str, String)> = extra.iter().map(|(k, v)| (*k, v.clone())).collect();
    let _ = http::write_response(&mut stream, status, reason, &extra, &body);
    let _ = stream.shutdown(Shutdown::Both);
    let elapsed_ns = accepted_at.elapsed().as_nanos() as u64;
    inner.latency.record(elapsed_ns);
    sgl_trace::observe("net.request_latency_us", elapsed_ns / 1_000);
}

type Response = (u16, &'static str, Vec<(&'static str, String)>, String);

fn ok(body: String) -> Response {
    (200, "OK", Vec::new(), body)
}

fn error_response(status: u16, reason: &'static str, msg: &str) -> Response {
    (
        status,
        reason,
        Vec::new(),
        format!("{{\"error\":{}}}", json::string(msg)),
    )
}

/// Maps a serving-layer error onto a status line.
fn serve_error_response(e: &ServeError, retry_after_secs: u64) -> Response {
    let msg = e.to_string();
    match e {
        ServeError::BadQuery(_) => error_response(400, "Bad Request", &msg),
        ServeError::DeadlineExceeded { .. } => error_response(504, "Gateway Timeout", &msg),
        ServeError::IngestBackpressure { .. } => {
            let (s, r, _, b) = error_response(429, "Too Many Requests", &msg);
            (s, r, vec![("retry-after", retry_after_secs.to_string())], b)
        }
        ServeError::Closed => error_response(503, "Service Unavailable", &msg),
        ServeError::Sgl(_) => error_response(500, "Internal Server Error", &msg),
    }
}

/// The client's per-request deadline, if it sent one.
fn request_deadline(request: &Request) -> Result<Option<Duration>, Response> {
    match request.header("x-sgl-deadline-ms") {
        None => Ok(None),
        Some(v) => v
            .trim()
            .parse::<u64>()
            .map(|ms| Some(Duration::from_millis(ms)))
            .map_err(|_| {
                error_response(400, "Bad Request", "unparseable x-sgl-deadline-ms header")
            }),
    }
}

fn dispatch(inner: &Arc<Inner>, request: &Request) -> Response {
    let segments: Vec<&str> = request
        .path
        .trim_start_matches('/')
        .split('/')
        .filter(|s| !s.is_empty())
        .collect();
    match (request.method, segments.as_slice()) {
        (Method::Get, ["healthz"]) => {
            let version = inner.handle.version();
            ok(format!("{{\"status\":\"ok\",\"version\":{version}}}"))
        }
        (Method::Get, ["stats"]) => ok(stats_json(inner)),
        (Method::Get, ["coords", node]) => match parse_index(node) {
            Err(r) => r,
            Ok(n) => match inner.handle.embedding_coords(n) {
                Ok(r) => ok(format!(
                    "{{\"version\":{},\"coords\":{}}}",
                    r.version,
                    json::f64_array(&r.value)
                )),
                Err(e) => serve_error_response(&e, inner.retry_after_secs),
            },
        },
        (Method::Get, ["cluster", node]) => match parse_index(node) {
            Err(r) => r,
            Ok(n) => match inner.handle.cluster_of(n) {
                Ok(r) => ok(format!(
                    "{{\"version\":{},\"cluster\":{}}}",
                    r.version, r.value
                )),
                Err(e) => serve_error_response(&e, inner.retry_after_secs),
            },
        },
        (Method::Get, ["distance", s, t]) => match (parse_index(s), parse_index(t)) {
            (Ok(s), Ok(t)) => match inner.handle.embedding_distance_sq(s, t) {
                Ok(r) => ok(format!(
                    "{{\"version\":{},\"distance_sq\":{}}}",
                    r.version, r.value
                )),
                Err(e) => serve_error_response(&e, inner.retry_after_secs),
            },
            (Err(r), _) | (_, Err(r)) => r,
        },
        (Method::Post, ["resistances"]) => post_resistances(inner, request),
        (Method::Post, ["interpolate"]) => post_interpolate(inner, request),
        (Method::Post, ["nearest"]) => post_nearest(inner, request),
        (Method::Post, ["ingest"]) => post_ingest(inner, request),
        (Method::Post, ["flush"]) => post_flush(inner),
        (Method::Get, _) | (Method::Post, _) => error_response(
            404,
            "Not Found",
            &format!("no route for {} {}", request.method.as_str(), request.path),
        ),
    }
}

fn parse_index(s: &str) -> Result<usize, Response> {
    s.parse::<usize>()
        .map_err(|_| error_response(400, "Bad Request", &format!("bad node index {s:?}")))
}

fn parse_body(request: &Request) -> Result<Json, Response> {
    let text = std::str::from_utf8(&request.body)
        .map_err(|_| error_response(400, "Bad Request", "body is not UTF-8"))?;
    json::parse(text)
        .map_err(|e| error_response(400, "Bad Request", &format!("invalid JSON body: {e}")))
}

/// Pulls `key` out of `body` as a flat `f64` vector.
fn vector_field(body: &Json, key: &str) -> Result<Vec<f64>, Response> {
    let cells = body.get(key).and_then(Json::as_array).ok_or_else(|| {
        error_response(400, "Bad Request", &format!("missing array field {key:?}"))
    })?;
    let mut out = Vec::with_capacity(cells.len());
    for (j, c) in cells.iter().enumerate() {
        out.push(c.as_f64().ok_or_else(|| {
            error_response(400, "Bad Request", &format!("{key}[{j}] is not a number"))
        })?);
    }
    Ok(out)
}

/// Pulls `key` out of `body` as a matrix (array of equal-length f64
/// arrays). Ragged or non-numeric input is a clean 400.
fn matrix_field(body: &Json, key: &str) -> Result<Vec<Vec<f64>>, Response> {
    let rows = body.get(key).and_then(Json::as_array).ok_or_else(|| {
        error_response(400, "Bad Request", &format!("missing array field {key:?}"))
    })?;
    let mut out = Vec::with_capacity(rows.len());
    for (i, row) in rows.iter().enumerate() {
        let cells = row.as_array().ok_or_else(|| {
            error_response(400, "Bad Request", &format!("{key}[{i}] is not an array"))
        })?;
        let mut v = Vec::with_capacity(cells.len());
        for (j, c) in cells.iter().enumerate() {
            v.push(c.as_f64().ok_or_else(|| {
                error_response(
                    400,
                    "Bad Request",
                    &format!("{key}[{i}][{j}] is not a number"),
                )
            })?);
        }
        if let Some(first) = out.first() {
            let w: &Vec<f64> = first;
            if v.len() != w.len() {
                return Err(error_response(
                    400,
                    "Bad Request",
                    &format!(
                        "{key} is ragged: row {i} has {} cells, row 0 has {}",
                        v.len(),
                        w.len()
                    ),
                ));
            }
        }
        out.push(v);
    }
    Ok(out)
}

fn post_resistances(inner: &Arc<Inner>, request: &Request) -> Response {
    let deadline = match request_deadline(request) {
        Ok(d) => d,
        Err(r) => return r,
    };
    let body = match parse_body(request) {
        Ok(b) => b,
        Err(r) => return r,
    };
    let pairs_json = match matrix_field(&body, "pairs") {
        Ok(p) => p,
        Err(r) => return r,
    };
    let mut pairs = Vec::with_capacity(pairs_json.len());
    for (i, p) in pairs_json.iter().enumerate() {
        match p.as_slice() {
            [s, t] if s.fract() == 0.0 && t.fract() == 0.0 && *s >= 0.0 && *t >= 0.0 => {
                pairs.push((*s as usize, *t as usize));
            }
            _ => {
                return error_response(
                    400,
                    "Bad Request",
                    &format!("pairs[{i}] is not a [s, t] node pair"),
                )
            }
        }
    }
    let result = match deadline {
        Some(d) => inner.handle.resistances_with_deadline(&pairs, d),
        None => inner.handle.resistances(&pairs),
    };
    match result {
        Ok(r) => ok(format!(
            "{{\"version\":{},\"resistances\":{}}}",
            r.version,
            json::f64_array(&r.value)
        )),
        Err(e) => serve_error_response(&e, inner.retry_after_secs),
    }
}

fn post_interpolate(inner: &Arc<Inner>, request: &Request) -> Response {
    let deadline = match request_deadline(request) {
        Ok(d) => d,
        Err(r) => return r,
    };
    let body = match parse_body(request) {
        Ok(b) => b,
        Err(r) => return r,
    };
    let injections = match matrix_field(&body, "injections") {
        Ok(m) => m,
        Err(r) => return r,
    };
    let result = match deadline {
        Some(d) => inner.handle.interpolate_batch_with_deadline(&injections, d),
        None => inner.handle.interpolate_batch(&injections),
    };
    match result {
        Ok(r) => ok(format!(
            "{{\"version\":{},\"solutions\":{}}}",
            r.version,
            json::f64_matrix(&r.value)
        )),
        Err(e) => serve_error_response(&e, inner.retry_after_secs),
    }
}

fn post_nearest(inner: &Arc<Inner>, request: &Request) -> Response {
    let body = match parse_body(request) {
        Ok(b) => b,
        Err(r) => return r,
    };
    let point = match vector_field(&body, "point") {
        Ok(p) => p,
        Err(r) => return r,
    };
    match inner.handle.nearest_cluster(&point) {
        Ok(r) => ok(format!(
            "{{\"version\":{},\"cluster\":{}}}",
            r.version, r.value
        )),
        Err(e) => serve_error_response(&e, inner.retry_after_secs),
    }
}

fn post_ingest(inner: &Arc<Inner>, request: &Request) -> Response {
    // Breaker gate: faults = writer restarts + quarantined batches.
    let fault_count = |s: &ServeStats| s.writer_restarts + s.batches_quarantined;
    let faults = fault_count(&inner.handle.stats());
    match inner.breaker.admit(faults, Instant::now()) {
        BreakerDecision::Refuse { retry_after } => {
            inner
                .counters
                .breaker_rejected
                .fetch_add(1, Ordering::Relaxed);
            sgl_trace::warn!("net: ingest refused by open circuit breaker");
            let secs = retry_after.as_secs().max(1).to_string();
            return (
                503,
                "Service Unavailable",
                vec![("retry-after", secs)],
                format!(
                    "{{\"error\":{}}}",
                    json::string("ingest circuit breaker is open; queries keep serving")
                ),
            );
        }
        BreakerDecision::Admit => {}
    }
    // Only the single admitted half-open ingest sees this state —
    // concurrent attempts were refused above — so it alone carries
    // probe-observation duty.
    let probe = inner.breaker.state() == BreakerState::HalfOpen;

    let body = match parse_body(request) {
        Ok(b) => b,
        Err(r) => return r,
    };
    let columns = match matrix_field(&body, "columns") {
        Ok(c) => c,
        Err(r) => return r,
    };
    if columns.is_empty() {
        return error_response(400, "Bad Request", "columns must not be empty");
    }
    let batch = match Measurements::from_voltages(DenseMatrix::from_columns(&columns)) {
        Ok(b) => b,
        Err(e) => return error_response(400, "Bad Request", &e.to_string()),
    };
    let result = {
        let guard = lock(&inner.server);
        match guard.as_ref() {
            Some(server) => server.ingest(batch),
            None => Err(ServeError::Closed),
        }
    };
    if probe {
        match &result {
            Ok(()) => {
                // Ingest only *enqueues* to the async writer; restarts
                // or quarantines caused by the probe batch surface in
                // the fault counters only once it is absorbed. Flush
                // before sampling so the breaker judges the probe's
                // real outcome, not a stale counter.
                let _ = match lock(&inner.server).as_ref() {
                    Some(server) => server.flush(),
                    None => Err(ServeError::Closed),
                };
                inner
                    .breaker
                    .observe_probe(fault_count(&inner.handle.stats()));
            }
            // The probe never reached the writer (backpressure,
            // synchronous quarantine, closed server): the path is not
            // proven healthy, so reopen rather than consult counters.
            Err(_) => inner.breaker.probe_failed(),
        }
    }
    match result {
        Ok(()) => (
            202,
            "Accepted",
            Vec::new(),
            format!("{{\"status\":\"accepted\",\"columns\":{}}}", columns.len()),
        ),
        Err(e) => serve_error_response(&e, inner.retry_after_secs),
    }
}

fn post_flush(inner: &Arc<Inner>) -> Response {
    let result = {
        let guard = lock(&inner.server);
        match guard.as_ref() {
            Some(server) => server.flush(),
            None => Err(ServeError::Closed),
        }
    };
    match result {
        Ok(()) => {
            let version = inner.handle.version();
            ok(format!("{{\"status\":\"flushed\",\"version\":{version}}}"))
        }
        Err(e) => serve_error_response(&e, inner.retry_after_secs),
    }
}

fn stats_json(inner: &Arc<Inner>) -> String {
    let serve = inner.handle.stats();
    let c = &inner.counters;
    let breaker_state = match inner.breaker.state() {
        BreakerState::Closed => "closed",
        BreakerState::Open => "open",
        BreakerState::HalfOpen => "half-open",
    };
    format!(
        concat!(
            "{{\"net\":{{",
            "\"accepted\":{},\"shed\":{},\"rate_limited\":{},\"malformed\":{},",
            "\"requests_ok\":{},\"requests_failed\":{},\"breaker_rejected\":{},",
            "\"breaker_trips\":{},\"breaker_state\":\"{}\",\"max_queue_depth\":{}}},",
            "\"serve\":{{\"version\":{},\"snapshots_published\":{},",
            "\"measurements_ingested\":{},\"queries_answered\":{},",
            "\"batches_quarantined\":{},\"batches_rejected\":{},",
            "\"pending_batches\":{},\"writer_restarts\":{},\"deadline_misses\":{}}}}}"
        ),
        c.accepted.load(Ordering::Relaxed),
        c.shed.load(Ordering::Relaxed),
        c.rate_limited.load(Ordering::Relaxed),
        c.malformed.load(Ordering::Relaxed),
        c.requests_ok.load(Ordering::Relaxed),
        c.requests_failed.load(Ordering::Relaxed),
        c.breaker_rejected.load(Ordering::Relaxed),
        inner.breaker.times_opened(),
        breaker_state,
        c.max_queue_depth.load(Ordering::Relaxed),
        serve.version,
        serve.snapshots_published,
        serve.measurements_ingested,
        serve.queries_answered,
        serve.batches_quarantined,
        serve.batches_rejected,
        serve.pending_batches,
        serve.writer_restarts,
        serve.deadline_misses,
    )
}

/// Loopback address helper for tests and benches.
pub fn loopback() -> SocketAddr {
    SocketAddr::new(IpAddr::V4(Ipv4Addr::LOCALHOST), 0)
}
