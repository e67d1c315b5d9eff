//! Resilience contract of the network front-end: adversarial clients —
//! malformed requests, slowloris trickles, half-open connections,
//! overload bursts, and a faulting ingest path — are shed or rejected
//! cleanly while well-formed queries keep getting bit-exact,
//! version-consistent answers. The server never crashes, never hangs a
//! worker, and never lets junk on the wire perturb the learned state.

use std::net::TcpStream;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use sgl::prelude::*;
use sgl_linalg::DenseMatrix;
use sgl_net::client;
use sgl_net::json;
use sgl_net::server::loopback;

/// An under-fitted owned session over the first `initial` of `m`
/// columns of a fixed seeded mesh — deterministic, so two calls build
/// bit-identical servers (the A/B control).
fn fixture(initial: usize) -> (SglSession<'static>, Graph, Measurements) {
    let truth = sgl_datasets::grid2d(6, 6);
    let all = Measurements::generate(&truth, 12, 7).unwrap();
    let cfg = SglConfig::builder()
        .k(4)
        .r(4)
        .tol(0.0)
        .max_iterations(4)
        .build()
        .unwrap();
    let cols: Vec<Vec<f64>> = (0..initial).map(|j| all.voltages().column(j)).collect();
    let first = Measurements::from_voltages(DenseMatrix::from_columns(&cols)).unwrap();
    let mut session = SglSession::from_owned(cfg, first).unwrap();
    session.run_to_completion().unwrap();
    (session, truth, all)
}

fn net_server(opts: NetOptions) -> NetServer {
    net_server_with(ServeOptions::default(), opts)
}

fn net_server_with(serve_opts: ServeOptions, opts: NetOptions) -> NetServer {
    let (session, _, _) = fixture(8);
    let server = SglServer::new(session, serve_opts).unwrap();
    NetServer::bind(server, loopback(), opts).unwrap()
}

/// JSON body for `POST /ingest` holding `batch`'s voltage columns.
fn ingest_body(batch: &Measurements) -> String {
    let cols: Vec<Vec<f64>> = (0..batch.num_measurements())
        .map(|j| batch.voltages().column(j))
        .collect();
    format!("{{\"columns\":{}}}", json::f64_matrix(&cols))
}

/// The table-driven malformed-request suite: every adversarial payload
/// gets the expected clean status (or a silent close when there is
/// nobody left to answer), and — the A/B half — a barraged server still
/// answers bit-identically to an untouched control twin.
#[test]
fn malformed_requests_get_clean_4xx_without_perturbing_the_session() {
    let (control_session, _, _) = fixture(8);
    let control = SglServer::new(control_session, ServeOptions::default()).unwrap();
    let net = net_server(NetOptions::default());
    let addr = net.local_addr();

    let huge = "x".repeat(16 * 1024);
    let many_headers = {
        let mut h = String::from("GET /healthz HTTP/1.1\r\n");
        for i in 0..100 {
            h.push_str(&format!("x-h{i}: v\r\n"));
        }
        h.push_str("\r\n");
        h
    };
    // (name, raw request bytes, expected status; None = connection
    // closed without a response because the client broke the framing).
    let table: Vec<(&str, Vec<u8>, Option<u16>)> = vec![
        ("bad verb", b"BREW /coffee HTTP/1.1\r\n\r\n".to_vec(), Some(400)),
        ("unserved verb", b"DELETE /stats HTTP/1.1\r\n\r\n".to_vec(), Some(405)),
        ("unknown route", b"GET /nope HTTP/1.1\r\ncontent-length: 0\r\n\r\n".to_vec(), Some(404)),
        ("bad protocol", b"GET /healthz SPDY/9\r\n\r\n".to_vec(), Some(400)),
        ("relative target", b"GET healthz HTTP/1.1\r\n\r\n".to_vec(), Some(400)),
        ("empty request line", b"\r\n\r\n".to_vec(), Some(400)),
        ("binary junk head", b"\x00\x01\x02\x7f\r\n\r\n".to_vec(), Some(400)),
        (
            "absurd content-length",
            b"POST /resistances HTTP/1.1\r\ncontent-length: 99999999999999\r\n\r\n".to_vec(),
            Some(413),
        ),
        (
            "negative content-length",
            b"POST /resistances HTTP/1.1\r\ncontent-length: -1\r\n\r\n".to_vec(),
            Some(400),
        ),
        (
            "non-numeric content-length",
            b"POST /resistances HTTP/1.1\r\ncontent-length: ten\r\n\r\n".to_vec(),
            Some(400),
        ),
        (
            "chunked framing",
            b"POST /resistances HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n".to_vec(),
            Some(400),
        ),
        (
            "header without colon",
            b"GET /healthz HTTP/1.1\r\nnocolonhere\r\n\r\n".to_vec(),
            Some(400),
        ),
        (
            "oversized header line",
            format!("GET /healthz HTTP/1.1\r\nx-big: {huge}\r\n\r\n").into_bytes(),
            Some(431),
        ),
        ("header spam", many_headers.into_bytes(), Some(431)),
        (
            "non-UTF-8 body",
            b"POST /resistances HTTP/1.1\r\ncontent-length: 4\r\n\r\n\xff\xfe\x01\x02".to_vec(),
            Some(400),
        ),
        (
            "invalid JSON body",
            b"POST /resistances HTTP/1.1\r\ncontent-length: 9\r\n\r\n{\"pairs\":".to_vec(),
            Some(400),
        ),
        (
            "missing field",
            b"POST /resistances HTTP/1.1\r\ncontent-length: 13\r\n\r\n{\"wrong\":[1]}".to_vec(),
            Some(400),
        ),
        (
            "ragged matrix",
            b"POST /interpolate HTTP/1.1\r\ncontent-length: 32\r\n\r\n{\"injections\":[[1,2],[1,2,3,4]]}"
                .to_vec(),
            Some(400),
        ),
        (
            "out-of-range pair",
            b"POST /resistances HTTP/1.1\r\ncontent-length: 22\r\n\r\n{\"pairs\":[[0,999999]]}".to_vec(),
            Some(400),
        ),
        (
            "bad deadline header",
            b"POST /resistances HTTP/1.1\r\nx-sgl-deadline-ms: soon\r\ncontent-length: 19\r\n\r\n{\"pairs\":[[0, 1]]}\n"
                .to_vec(),
            Some(400),
        ),
        (
            "truncated head",
            b"GET /healthz HTTP/1.1\r\nx-trunc".to_vec(),
            None,
        ),
        (
            "body shorter than declared",
            b"POST /resistances HTTP/1.1\r\ncontent-length: 500\r\n\r\n{\"pairs\"".to_vec(),
            None,
        ),
    ];

    for (name, bytes, expected) in &table {
        let got = client::raw(addr, bytes);
        match expected {
            Some(status) => {
                let reply = got.unwrap_or_else(|e| panic!("{name}: no reply ({e})"));
                assert_eq!(
                    reply.status,
                    *status,
                    "{name}: wrong status ({})",
                    reply.text()
                );
                // Every error is a parseable JSON envelope.
                let parsed = reply
                    .json()
                    .unwrap_or_else(|e| panic!("{name}: bad JSON ({e})"));
                assert!(parsed.get("error").is_some(), "{name}: no error field");
            }
            None => assert!(got.is_err(), "{name}: expected a silent close"),
        }
    }

    // A/B: the barraged server answers bit-identically to the twin
    // that never saw a single adversarial byte.
    let pairs = [(0usize, 1usize), (3, 17), (10, 35)];
    let expect = control.handle().resistances(&pairs).unwrap();
    let reply = client::post(addr, "/resistances", "{\"pairs\":[[0,1],[3,17],[10,35]]}").unwrap();
    assert_eq!(reply.status, 200);
    let parsed = reply.json().unwrap();
    assert_eq!(parsed.get("version").and_then(|v| v.as_usize()), Some(0));
    let got: Vec<f64> = parsed
        .get("resistances")
        .and_then(|v| v.as_array())
        .unwrap()
        .iter()
        .map(|x| x.as_f64().unwrap())
        .collect();
    assert_eq!(got, expect.value, "network answer diverged from control");

    // Nothing on the wire reached the learned state.
    let serve = net.serve_stats();
    assert_eq!(serve.version, 0);
    assert_eq!(serve.writer_restarts, 0);
    assert_eq!(serve.batches_quarantined, 0);
    let stats = net.stats();
    // Every answered adversarial request lands in the failure ledger;
    // the parse-level subset (unreadable before dispatch) also counts
    // as malformed.
    let expected_4xx = table.iter().filter(|(_, _, e)| e.is_some()).count() as u64;
    assert_eq!(stats.requests_failed, expected_4xx);
    assert!(stats.malformed > 0 && stats.malformed <= expected_4xx);
    net.shutdown().unwrap();
    control.shutdown().unwrap();
}

/// Reject-newest overload shedding: a burst far past the queue
/// watermark gets a mix of `200`s and `429 Retry-After`s — nothing
/// hangs, nothing crashes, every admitted answer is complete and
/// version-tagged, and the queue depth never exceeded the watermark.
#[test]
fn overload_burst_sheds_with_429_and_bounded_queue_depth() {
    let serve_opts = ServeOptions {
        batch_window: Duration::from_millis(10),
        ..ServeOptions::default()
    };
    let net_opts = NetOptions {
        workers: 2,
        queue_capacity: 4,
        ..NetOptions::default()
    };
    let net = net_server_with(serve_opts, net_opts);
    let addr = net.local_addr();
    let expect = net.serve_handle().resistances(&[(0, 1)]).unwrap().value;

    let clients = 48usize;
    let barrier = Arc::new(Barrier::new(clients));
    let mut threads = Vec::new();
    for _ in 0..clients {
        let barrier = Arc::clone(&barrier);
        threads.push(std::thread::spawn(move || {
            barrier.wait();
            client::post(addr, "/resistances", "{\"pairs\":[[0,1]]}")
        }));
    }
    let mut ok = 0u64;
    let mut shed = 0u64;
    for t in threads {
        let reply = t.join().unwrap().expect("every client gets an answer");
        match reply.status {
            200 => {
                ok += 1;
                let parsed = reply.json().unwrap();
                assert!(parsed.get("version").is_some(), "untagged answer");
                let got: Vec<f64> = parsed
                    .get("resistances")
                    .and_then(|v| v.as_array())
                    .unwrap()
                    .iter()
                    .map(|x| x.as_f64().unwrap())
                    .collect();
                assert_eq!(got, expect, "admitted answer diverged under overload");
            }
            429 => {
                shed += 1;
                assert!(
                    reply.header("retry-after").is_some(),
                    "shed without Retry-After hint"
                );
            }
            other => panic!("unexpected status {other} under overload"),
        }
    }
    assert_eq!(ok + shed, clients as u64);
    assert!(ok > 0, "some requests must be admitted");
    assert!(shed > 0, "a 12x-capacity burst must shed");
    let stats = net.stats();
    assert_eq!(stats.shed, shed);
    assert!(
        stats.max_queue_depth <= 4,
        "queue depth {} exceeded the watermark",
        stats.max_queue_depth
    );
    net.shutdown().unwrap();
}

/// The per-peer token bucket: with no refill, exactly `burst` requests
/// pass and the rest shed with `429`.
#[test]
fn rate_limiter_sheds_past_the_per_peer_burst() {
    let net = net_server(NetOptions {
        rate_limit: Some(RateLimit {
            burst: 3,
            per_second: 0.0,
        }),
        ..NetOptions::default()
    });
    let addr = net.local_addr();
    let statuses: Vec<u16> = (0..6)
        .map(|_| client::get(addr, "/healthz").unwrap().status)
        .collect();
    assert_eq!(statuses, vec![200, 200, 200, 429, 429, 429]);
    let stats = net.stats();
    assert_eq!(stats.rate_limited, 3);
    net.shutdown().unwrap();
}

/// The ingest circuit breaker: repeated quarantined batches trip it
/// open (`503` with `Retry-After`), queries keep serving throughout,
/// and after the cooldown a clean probe closes it again.
#[test]
fn breaker_trips_on_quarantined_ingests_and_recovers() {
    let net = net_server(NetOptions {
        breaker_trip_after: 2,
        breaker_cooldown: Duration::from_millis(200),
        ..NetOptions::default()
    });
    let addr = net.local_addr();
    let truth = sgl_datasets::grid2d(6, 6);
    let wrong = sgl_datasets::grid2d(7, 7); // 49 nodes vs the served 36

    // Two node-count-mismatched batches are quarantined synchronously.
    for seed in 0..2 {
        let bad = Measurements::generate(&wrong, 2, 90 + seed).unwrap();
        let reply = client::post(addr, "/ingest", &ingest_body(&bad)).unwrap();
        assert_eq!(reply.status, 400, "quarantined batch should 400");
    }
    assert_eq!(net.serve_stats().batches_quarantined, 2);

    // The next ingest — a perfectly good one — finds the breaker open.
    let good = Measurements::generate(&truth, 2, 80).unwrap();
    let reply = client::post(addr, "/ingest", &ingest_body(&good)).unwrap();
    assert_eq!(reply.status, 503, "open breaker should refuse ingest");
    assert!(reply.header("retry-after").is_some());
    assert_eq!(net.stats().breaker_trips, 1);
    assert_eq!(net.stats().breaker_rejected, 1);

    // Degraded, not down: queries still serve while ingest is refused.
    assert_eq!(client::get(addr, "/healthz").unwrap().status, 200);
    let q = client::post(addr, "/resistances", "{\"pairs\":[[0,1]]}").unwrap();
    assert_eq!(q.status, 200);
    let stats_reply = client::get(addr, "/stats").unwrap();
    assert_eq!(
        stats_reply
            .json()
            .unwrap()
            .get("net")
            .and_then(|n| n.get("breaker_state"))
            .and_then(|s| s.as_str().map(String::from)),
        Some("open".to_string())
    );

    // After the cooldown the half-open probe is admitted, succeeds,
    // and closes the breaker; ingest flows again.
    std::thread::sleep(Duration::from_millis(250));
    let reply = client::post(addr, "/ingest", &ingest_body(&good)).unwrap();
    assert_eq!(reply.status, 202, "clean probe should be admitted");
    let reply = client::post(addr, "/flush", "").unwrap();
    assert_eq!(reply.status, 200);
    let another = Measurements::generate(&truth, 2, 81).unwrap();
    assert_eq!(
        client::post(addr, "/ingest", &ingest_body(&another))
            .unwrap()
            .status,
        202
    );
    assert_eq!(net.stats().breaker_trips, 1, "no re-trip after recovery");

    let session = net.shutdown().unwrap();
    // Both good batches were absorbed: 8 initial + 2 + 2 columns.
    assert_eq!(session.measurements().num_measurements(), 12);
}

/// Anti-slowloris: a client trickling a request gets cut off with
/// `408` once the connection's total read budget expires — the worker
/// is never held past the deadline.
#[test]
fn slowloris_is_cut_off_at_the_read_deadline() {
    let net = net_server(NetOptions {
        read_deadline: Duration::from_millis(200),
        ..NetOptions::default()
    });
    let addr = net.local_addr();
    let started = Instant::now();
    let mut stream = client::connect(addr).unwrap();
    use std::io::Write;
    stream.write_all(b"GET /heal").unwrap();
    std::thread::sleep(Duration::from_millis(400));
    let reply = client::read_reply(&mut stream).unwrap();
    assert_eq!(reply.status, 408, "stalled request should time out");
    assert!(
        started.elapsed() < Duration::from_secs(3),
        "slowloris must not hold the connection open"
    );
    // The server is unharmed.
    assert_eq!(client::get(addr, "/healthz").unwrap().status, 200);
    net.shutdown().unwrap();
}

/// Half-open connections and mid-request disconnects: clients that
/// vanish — before sending anything or mid-request — leave no mark on
/// the server beyond a counter.
#[test]
fn disconnecting_clients_leave_the_server_serving() {
    let net = net_server(NetOptions {
        read_deadline: Duration::from_millis(300),
        ..NetOptions::default()
    });
    let addr = net.local_addr();
    for i in 0..20 {
        // Half-open: connect and vanish.
        let s = TcpStream::connect(addr).unwrap();
        drop(s);
        // Mid-request: send half a request and vanish.
        let mut s = TcpStream::connect(addr).unwrap();
        use std::io::Write;
        let _ = s.write_all(format!("POST /resistances HTTP/1.1\r\nx-try: {i}\r\ncon").as_bytes());
        drop(s);
    }
    // Well-formed traffic still gets full service.
    let reply = client::post(addr, "/resistances", "{\"pairs\":[[2,9]]}").unwrap();
    assert_eq!(reply.status, 200);
    let serve = net.serve_stats();
    assert_eq!(serve.writer_restarts, 0);
    assert_eq!(serve.version, 0);
    net.shutdown().unwrap();
}

/// Client deadlines propagate: `x-sgl-deadline-ms` flows through the
/// worker into the micro-batcher, and an expired wait comes back as
/// `504 Gateway Timeout` while patient requests still succeed.
#[test]
fn client_deadline_propagates_into_the_micro_batcher() {
    let serve_opts = ServeOptions {
        batch_window: Duration::from_millis(300),
        ..ServeOptions::default()
    };
    let net = net_server_with(serve_opts, NetOptions::default());
    let addr = net.local_addr();

    // The leader opens a 300 ms collection window; the impatient
    // follower joins it with a 5 ms budget and must get a 504 long
    // before the window closes.
    let leader =
        std::thread::spawn(move || client::post(addr, "/resistances", "{\"pairs\":[[0,1]]}"));
    std::thread::sleep(Duration::from_millis(50));
    let started = Instant::now();
    let reply = client::post_with_headers(
        addr,
        "/resistances",
        &[("x-sgl-deadline-ms", "5")],
        "{\"pairs\":[[2,3]]}",
    )
    .unwrap();
    assert_eq!(reply.status, 504, "expired deadline should map to 504");
    assert!(
        started.elapsed() < Duration::from_millis(200),
        "the 504 must arrive well before the batch window closes"
    );
    let leader_reply = leader.join().unwrap().unwrap();
    assert_eq!(
        leader_reply.status, 200,
        "the patient leader still succeeds"
    );
    assert_eq!(net.serve_stats().deadline_misses, 1);

    // A generous deadline sails through.
    let reply = client::post_with_headers(
        addr,
        "/resistances",
        &[("x-sgl-deadline-ms", "5000")],
        "{\"pairs\":[[0,1]]}",
    )
    .unwrap();
    assert_eq!(reply.status, 200);
    net.shutdown().unwrap();
}

/// Ingest backpressure over the wire: past the writer-queue watermark,
/// `POST /ingest` answers `429` with `Retry-After`, and the handed-back
/// session owns exactly the columns of the `202`-accepted batches.
#[test]
fn ingest_backpressure_surfaces_as_429_with_exact_accounting() {
    let serve_opts = ServeOptions {
        max_pending_batches: 1,
        refresh_iters: 6,
        ..ServeOptions::default()
    };
    let net = net_server_with(serve_opts, NetOptions::default());
    let addr = net.local_addr();
    let truth = sgl_datasets::grid2d(6, 6);

    let clients = 8usize;
    let barrier = Arc::new(Barrier::new(clients));
    let mut threads = Vec::new();
    for i in 0..clients {
        let barrier = Arc::clone(&barrier);
        let body = ingest_body(&Measurements::generate(&truth, 2, 200 + i as u64).unwrap());
        threads.push(std::thread::spawn(move || {
            barrier.wait();
            let mut statuses = Vec::new();
            for _ in 0..2 {
                statuses.push(client::post(addr, "/ingest", &body).unwrap());
            }
            statuses
        }));
    }
    let mut accepted = 0u64;
    let mut rejected = 0u64;
    for t in threads {
        for reply in t.join().unwrap() {
            match reply.status {
                202 => accepted += 1,
                429 => {
                    rejected += 1;
                    assert!(reply.header("retry-after").is_some());
                }
                other => panic!("unexpected ingest status {other}: {}", reply.text()),
            }
        }
    }
    assert_eq!(accepted + rejected, 16);
    assert!(accepted > 0, "a 1-deep watermark still admits work");
    let serve = net.serve_stats();
    assert_eq!(serve.batches_rejected, rejected, "shed ledger must balance");

    let session = net.shutdown().unwrap();
    assert_eq!(
        session.measurements().num_measurements() as u64,
        8 + 2 * accepted,
        "handed-back session must own exactly the accepted columns"
    );
}

/// Deterministic drain: shutdown stops accepting, answers everything
/// admitted, absorbs every queued batch, and hands back a session that
/// owns all accepted columns; the port then refuses new connections.
/// `net.request_latency_us` records every answered request in
/// microseconds, so sub-millisecond requests land in real histogram
/// buckets instead of all reading 0. The histogram is process-global and
/// the other tests in this file send requests of their own, so the
/// measurement runs alone in a child process of this test binary.
#[test]
fn request_latency_is_recorded_in_microseconds() {
    let out = std::process::Command::new(std::env::current_exe().unwrap())
        .args([
            "--exact",
            "request_latency_histogram_counts_each_request",
            "--ignored",
        ])
        .output()
        .unwrap();
    let log = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "isolated latency check failed:\n{log}"
    );
    assert!(
        log.contains("1 passed"),
        "isolated latency check did not run:\n{log}"
    );
}

#[test]
#[ignore = "reads a process-global histogram; run alone by request_latency_is_recorded_in_microseconds"]
fn request_latency_histogram_counts_each_request() {
    const REQUESTS: u64 = 20;
    let _guard = sgl_trace::test_guard();
    let hist = sgl_trace::histogram("net.request_latency_us");
    hist.reset();
    sgl_trace::enable();
    let net = net_server(NetOptions::default());
    let addr = net.local_addr();
    for _ in 0..REQUESTS {
        assert_eq!(client::get(addr, "/healthz").unwrap().status, 200);
    }
    // The worker observes a request after writing its reply: wait until
    // every request is recorded.
    let deadline = Instant::now() + Duration::from_secs(10);
    while hist.count() < REQUESTS && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    sgl_trace::disable();
    let p50_ms = net.stats().request_latency_p50_ms;
    net.shutdown().unwrap();

    assert_eq!(hist.count(), REQUESTS, "one observation per request");
    assert!(hist.min() >= 1, "a request recorded 0 µs: {hist:?}");
    let p50_us = hist.percentile(50.0) as f64;
    let expect_us = p50_ms * 1000.0;
    assert!(
        p50_us <= 4.0 * expect_us && p50_us >= expect_us / 4.0,
        "histogram p50 {p50_us} µs vs NetStats p50 {expect_us} µs"
    );
}

#[test]
fn graceful_shutdown_drains_and_hands_back_the_session() {
    let net = net_server(NetOptions::default());
    let addr = net.local_addr();
    let truth = sgl_datasets::grid2d(6, 6);
    for seed in 0..3 {
        let batch = Measurements::generate(&truth, 2, 60 + seed).unwrap();
        let reply = client::post(addr, "/ingest", &ingest_body(&batch)).unwrap();
        assert_eq!(reply.status, 202);
    }
    // No flush: the drain itself must absorb all three queued batches.
    let session = net.shutdown().unwrap();
    assert_eq!(session.measurements().num_measurements(), 8 + 3 * 2);
    // The listener is gone: new connections are refused.
    assert!(
        TcpStream::connect_timeout(&addr, Duration::from_millis(500)).is_err(),
        "the drained listener must refuse new connections"
    );
}
