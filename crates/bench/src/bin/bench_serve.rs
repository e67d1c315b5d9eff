//! BENCH serve — concurrent snapshot serving under streaming ingest.
//!
//! Three arms, mirroring the sgl-serve contract, emitted as
//! `target/repro/BENCH_serve.json` and tracked across PRs via the
//! committed snapshot `BENCH_serve.json` at the repo root:
//!
//! * **fixed-snapshot** — reader threads hammer micro-batched
//!   effective-resistance queries against a frozen snapshot at several
//!   reader counts. Every response must be version-tagged `v0` and
//!   bit-identical to the canonical single-threaded answers (the
//!   serving extension of the `tests/parallel_equivalence.rs`
//!   determinism contract); throughput and latency percentiles are
//!   recorded per reader count.
//! * **ingest-churn** — readers keep hammering while the writer ingests
//!   measurement batches and republishes. No reader ever stalls on a
//!   publish: latency percentiles stay bounded, and every response must
//!   bit-match the canonical answers *for the version that served it* —
//!   one snapshot per answer, never a torn mix.
//! * **overload** — the network front-end under deterministic chaos: a
//!   fresh [`sgl_net::NetServer`] takes waves of a ~10×-capacity
//!   request burst interleaved with seeded adversarial clients
//!   (malformed requests, half-open connections, mid-request
//!   disconnects) while the ingest driver streams batches over HTTP —
//!   one of them killing the writer via an injected
//!   [`FaultPlan`] panic. Asserts shed-not-crash
//!   (excess load gets `429 Retry-After`, admitted requests finish),
//!   zero torn responses (every `200` bit-matches the pinned snapshot
//!   of its wave), bounded queue depth, and p99 within the request
//!   deadline. Always runs quick-sized so the JSON schema is stable;
//!   `--net` scales it into the full soak.
//!
//! Usage: `bench_serve [--quick] [--net] [--readers N] [--queries Q]
//! [--window-us W] [--chaos-seed S] [--schema-against PATH]`
//!
//! `--schema-against` compares the emitted JSON's key set against a
//! tracked snapshot and fails on drift (the CI smoke mode).

use std::io::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use sgl_bench::{banner, fix, repro_dir, time, Args, Table};
use sgl_core::{sample_node_pairs, FaultKind, FaultPlan, Measurements, SglConfig, SglSession};
use sgl_linalg::{par, DenseMatrix, Rng};
use sgl_net::server::loopback;
use sgl_net::{client, json as netjson, NetOptions, NetServer};
use sgl_serve::{ServeHandle, ServeOptions, SglServer};

/// Node pairs per resistance query (one micro-batch submission).
const PAIRS_PER_QUERY: usize = 8;
/// Distinct query sets in the round-robin pool.
const QUERY_POOL: usize = 32;

/// One recorded reader response: which query set, which snapshot
/// version answered, the values, and the end-to-end latency.
struct Response {
    set: usize,
    version: u64,
    values: Vec<f64>,
    latency_s: f64,
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Pool of deterministic query sets over `n` nodes.
fn query_pool(n: usize) -> Vec<Vec<(usize, usize)>> {
    (0..QUERY_POOL)
        .map(|i| sample_node_pairs(n, PAIRS_PER_QUERY, 0xA11C + i as u64))
        .collect()
}

/// Spawn `readers` threads, each issuing `queries` round-robin pool
/// queries through `handle`, until done (fixed mode) or until `stop`
/// (churn mode, `queries` as a cap). Returns all recorded responses.
fn hammer(
    handle: &ServeHandle,
    pool: &Arc<Vec<Vec<(usize, usize)>>>,
    readers: usize,
    queries: usize,
    stop: Option<&Arc<AtomicBool>>,
) -> Vec<Response> {
    let mut threads = Vec::new();
    for r in 0..readers {
        let handle = handle.clone();
        let pool = Arc::clone(pool);
        let stop = stop.map(Arc::clone);
        threads.push(std::thread::spawn(move || {
            let mut out = Vec::with_capacity(queries.min(4096));
            for q in 0..queries {
                if let Some(stop) = &stop {
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                }
                let set = (q * readers + r) % pool.len();
                let t0 = Instant::now();
                let resp = handle.resistances(&pool[set]).expect("resistance query");
                out.push(Response {
                    set,
                    version: resp.version,
                    values: resp.value,
                    latency_s: t0.elapsed().as_secs_f64(),
                });
            }
            out
        }));
    }
    threads
        .into_iter()
        .flat_map(|t| t.join().expect("reader panicked"))
        .collect()
}

/// Latency percentiles (seconds) of a response set.
fn latencies(responses: &[Response]) -> (f64, f64, f64) {
    let mut lat: Vec<f64> = responses.iter().map(|r| r.latency_s).collect();
    lat.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    (
        percentile(&lat, 0.50),
        percentile(&lat, 0.99),
        lat.last().copied().unwrap_or(0.0),
    )
}

fn json_keys(text: &str) -> Vec<String> {
    let mut keys = std::collections::BTreeSet::new();
    let bytes = text.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'"' {
            if let Some(end) = text[i + 1..].find('"') {
                let key = &text[i + 1..i + 1 + end];
                let rest = text[i + 1 + end + 1..].trim_start();
                if rest.starts_with(':') {
                    keys.insert(key.to_string());
                }
                i += end + 2;
                continue;
            }
        }
        i += 1;
    }
    keys.into_iter().collect()
}

/// Outcome of the overload/chaos arm, for the report and JSON.
struct OverloadOutcome {
    waves: usize,
    clients_per_wave: usize,
    requests: u64,
    ok: u64,
    shed: u64,
    chaos_requests: u64,
    chaos_clean: u64,
    versions_observed: usize,
    writer_restarts: u64,
    injected_faults: usize,
    max_queue_depth: u64,
    queue_capacity: usize,
    p50_ms: f64,
    p99_ms: f64,
    deadline_ms: u64,
}

/// One seeded adversarial client: picks a misbehavior and checks the
/// server's reaction is clean. Clean means the specific 4xx the junk
/// deserves, a `429` shed (these clients race a deliberate overload
/// burst), or a torn-down connection — never a hang and never a 5xx.
/// Returns whether the reaction was clean.
fn chaos_client(addr: std::net::SocketAddr, rng: &mut Rng) -> bool {
    use std::io::Write as _;
    // A connection-level error is the server ripping the junk down —
    // acceptable under load; an answered status must be the expected
    // rejection or a shed.
    let clean = |expected: u16| {
        move |r: Result<client::HttpReply, String>| match r {
            Ok(reply) => reply.status == expected || reply.status == 429,
            Err(_) => true,
        }
    };
    match rng.next_u64() % 5 {
        // Malformed verb -> 400.
        0 => clean(400)(client::raw(addr, b"BREW /coffee HTTP/1.1\r\n\r\n")),
        // Absurd Content-Length -> refused up front with 413.
        1 => clean(413)(client::raw(
            addr,
            b"POST /resistances HTTP/1.1\r\ncontent-length: 99999999999\r\n\r\n",
        )),
        // Binary junk -> 400.
        2 => clean(400)(client::raw(addr, b"\x00\x01\x02\x7f\r\n\r\n")),
        // Half-open connection: connect and vanish; clean means the
        // connect itself worked (the server copes silently).
        3 => std::net::TcpStream::connect(addr).is_ok(),
        // Mid-request disconnect: half a request, then vanish.
        _ => match std::net::TcpStream::connect(addr) {
            Ok(mut s) => {
                let _ = s.write_all(b"POST /resistances HTTP/1.1\r\ncontent-len");
                true
            }
            Err(_) => false,
        },
    }
}

/// The overload/chaos arm: a [`NetServer`] over a fresh small model
/// takes `waves` bursts of `burst` concurrent queries (plus seeded
/// chaos clients), with an HTTP ingest + flush between waves — one
/// ingest killing the writer through the fault plan. Each wave's `200`s
/// must bit-match the snapshot pinned for that wave.
fn overload_arm(full: bool, chaos_seed: u64) -> OverloadOutcome {
    let (side, waves, burst, chaos_per_wave, workers) = if full {
        (16, 4, 64, 8, 4)
    } else {
        (10, 3, 32, 5, 2)
    };
    let m = 12usize;
    let initial = 8usize;
    let queue_capacity = 8usize;
    let deadline_ms = 2_000u64;

    let truth = sgl_datasets::grid2d(side, side);
    let n = truth.num_nodes();
    let all = Measurements::generate(&truth, m, 7).expect("measurements");
    let column_batch = |lo: usize, hi: usize| {
        let cols: Vec<Vec<f64>> = (lo..hi).map(|j| all.voltages().column(j)).collect();
        Measurements::from_voltages(DenseMatrix::from_columns(&cols)).expect("batch")
    };
    let config = SglConfig::default().with_tol(0.0).with_max_iterations(4);
    let mut session = SglSession::from_owned(config, column_batch(0, initial)).expect("session");
    session.run_to_completion().expect("overload-arm learn");

    // The writer dies once, on the second ingest opportunity; the
    // supervisor must restart it and re-absorb without losing columns.
    let plan = Arc::new(FaultPlan::new().with_fault(FaultKind::WriterPanic, 1));
    let serve_opts = ServeOptions {
        // A slow collection window makes each admitted query occupy its
        // worker long enough for the burst to pile into the queue.
        batch_window: Duration::from_millis(5),
        fault_plan: Some(Arc::clone(&plan)),
        ..ServeOptions::default()
    };
    let server = SglServer::new(session, serve_opts).expect("overload server");
    let net_opts = NetOptions {
        workers,
        queue_capacity,
        ..NetOptions::default()
    };
    let net = NetServer::bind(server, loopback(), net_opts).expect("bind net server");
    let addr = net.local_addr();
    let pinned = net.serve_handle();
    let pool = Arc::new(query_pool(n));

    let mut ok = 0u64;
    let mut shed = 0u64;
    let mut requests = 0u64;
    let mut chaos_requests = 0u64;
    let mut chaos_clean = 0u64;
    let mut latencies_ms: Vec<f64> = Vec::new();
    let mut versions = std::collections::BTreeSet::new();

    let per_batch = (m - initial).max(waves) / waves;
    for wave in 0..waves {
        // Pin this wave's snapshot: between waves the ingest driver is
        // quiescent, so every response in the wave must carry exactly
        // this version and bit-match its canonical answers.
        let snap = pinned.snapshot();
        versions.insert(snap.version());
        let canonical: Vec<Vec<f64>> = pool
            .iter()
            .map(|pairs| snap.resistances(pairs).expect("canonical answers"))
            .collect();

        let barrier = Arc::new(std::sync::Barrier::new(burst + chaos_per_wave));
        let mut threads = Vec::new();
        for i in 0..burst {
            let barrier = Arc::clone(&barrier);
            let set = (wave * burst + i) % QUERY_POOL;
            let body = format!(
                "{{\"pairs\":{}}}",
                netjson::f64_matrix(
                    &pool[set]
                        .iter()
                        .map(|&(s, t)| vec![s as f64, t as f64])
                        .collect::<Vec<_>>()
                )
            );
            threads.push(std::thread::spawn(move || {
                barrier.wait();
                let t0 = Instant::now();
                let reply = client::post_with_headers(
                    addr,
                    "/resistances",
                    &[("x-sgl-deadline-ms", &deadline_ms.to_string())],
                    &body,
                );
                (set, reply, t0.elapsed().as_secs_f64() * 1e3)
            }));
        }
        let mut chaos_threads = Vec::new();
        for c in 0..chaos_per_wave {
            let barrier = Arc::clone(&barrier);
            let mut rng = Rng::seed_from_u64(chaos_seed ^ (wave as u64) << 8 ^ c as u64);
            chaos_threads.push(std::thread::spawn(move || {
                barrier.wait();
                chaos_client(addr, &mut rng)
            }));
        }

        for t in threads {
            let (set, reply, ms) = t.join().expect("burst client panicked");
            let reply = reply.expect("burst client got no reply at all");
            requests += 1;
            match reply.status {
                200 => {
                    ok += 1;
                    latencies_ms.push(ms);
                    let parsed = reply.json().expect("200 body parses");
                    let version = parsed
                        .get("version")
                        .and_then(|v| v.as_usize())
                        .expect("version tag") as u64;
                    assert_eq!(
                        version,
                        snap.version(),
                        "cross-version response inside a quiescent wave"
                    );
                    let values: Vec<f64> = parsed
                        .get("resistances")
                        .and_then(|v| v.as_array())
                        .expect("resistances array")
                        .iter()
                        .map(|x| x.as_f64().expect("numeric resistance"))
                        .collect();
                    assert_eq!(
                        values, canonical[set],
                        "torn response: wave {wave} answer drifted from its pinned snapshot"
                    );
                }
                429 => {
                    shed += 1;
                    assert!(
                        reply.header("retry-after").is_some(),
                        "shed response missing Retry-After"
                    );
                }
                other => panic!("overload burst got unexpected status {other}"),
            }
        }
        for t in chaos_threads {
            chaos_requests += 1;
            if t.join().expect("chaos client panicked") {
                chaos_clean += 1;
            }
        }

        // Quiescent ingest over the wire; wave 1's batch trips the
        // injected writer panic.
        let lo = initial + wave * per_batch;
        let hi = if wave + 1 == waves {
            m
        } else {
            (lo + per_batch).min(m)
        };
        if lo < hi {
            let batch = column_batch(lo, hi);
            let cols: Vec<Vec<f64>> = (0..batch.num_measurements())
                .map(|j| batch.voltages().column(j))
                .collect();
            let body = format!("{{\"columns\":{}}}", netjson::f64_matrix(&cols));
            let reply = client::post(addr, "/ingest", &body).expect("ingest reply");
            assert_eq!(reply.status, 202, "quiescent ingest must be accepted");
            let reply = client::post(addr, "/flush", "").expect("flush reply");
            assert_eq!(reply.status, 200, "flush must succeed (writer restarted)");
        }
    }

    assert!(ok > 0, "overload arm admitted nothing");
    assert!(
        shed > 0,
        "a {burst}-client burst over {queue_capacity} queue slots must shed"
    );
    assert_eq!(
        chaos_clean, chaos_requests,
        "an adversarial client got a non-clean reaction"
    );
    assert_eq!(plan.injected_count(), 1, "the writer kill never fired");
    let serve = net.serve_stats();
    assert_eq!(
        serve.writer_restarts, 1,
        "the killed writer must restart once"
    );
    let stats = net.stats();
    assert!(
        stats.max_queue_depth <= queue_capacity as u64,
        "queue depth {} exceeded the watermark",
        stats.max_queue_depth
    );
    latencies_ms.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let p50_ms = percentile(&latencies_ms, 0.50);
    let p99_ms = percentile(&latencies_ms, 0.99);
    assert!(
        p99_ms < deadline_ms as f64,
        "admitted p99 {p99_ms:.1} ms blew the {deadline_ms} ms deadline"
    );
    let session = net.shutdown().expect("net shutdown");
    assert_eq!(
        session.measurements().num_measurements(),
        m,
        "drain lost ingested columns"
    );

    OverloadOutcome {
        waves,
        clients_per_wave: burst,
        requests,
        ok,
        shed,
        chaos_requests,
        chaos_clean,
        versions_observed: versions.len(),
        writer_restarts: serve.writer_restarts,
        injected_faults: plan.injected_count(),
        max_queue_depth: stats.max_queue_depth,
        queue_capacity,
        p50_ms,
        p99_ms,
        deadline_ms,
    }
}

fn main() {
    let args = Args::from_env();
    let quick = args.has("quick");
    let side: usize = args.get("side", if quick { 20 } else { 40 });
    let m: usize = args.get("m", if quick { 12 } else { 20 });
    let queries: usize = args.get("queries", if quick { 40 } else { 120 });
    let window_us: u64 = args.get("window-us", 200);
    let max_readers: usize = args.get("readers", if quick { 2 } else { 4 });
    // Reader threads are OS threads hammering a lock-free snapshot, so
    // oversubscription is allowed — but record the host's real
    // parallelism so the tracked latency numbers are interpretable.
    let effective_threads = max_readers.min(par::max_threads());
    if max_readers > par::max_threads() {
        sgl_trace::warn!(
            "{max_readers} reader threads requested but the host has only {} cores; \
             reader arms will oversubscribe (effective_threads = {effective_threads})",
            par::max_threads()
        );
    }
    let reader_counts: Vec<usize> = {
        let mut counts = vec![1];
        let mut c = 2;
        while c <= max_readers {
            counts.push(c);
            c *= 2;
        }
        counts
    };

    let truth = sgl_datasets::grid2d(side, side);
    let n = truth.num_nodes();
    banner(
        "BENCH serve",
        "lock-free snapshot serving: reader throughput, ingest churn, overload",
        &[
            ("nodes", n.to_string()),
            ("M", m.to_string()),
            ("queries/reader", queries.to_string()),
            ("reader_counts", format!("{reader_counts:?}")),
            ("pairs/query", PAIRS_PER_QUERY.to_string()),
            ("window_us", window_us.to_string()),
            ("effective_threads", effective_threads.to_string()),
            ("host_cores", par::max_threads().to_string()),
        ],
    );

    // Learn the initial model from ~60% of the measurement columns,
    // under-fitted (small iteration cap) so the streamed remainder keeps
    // adding edges: every publish serves a new graph revision.
    let all = Measurements::generate(&truth, m, 7).expect("measurements");
    let column_batch = |lo: usize, hi: usize| {
        let cols: Vec<Vec<f64>> = (lo..hi).map(|j| all.voltages().column(j)).collect();
        Measurements::from_voltages(DenseMatrix::from_columns(&cols)).expect("batch")
    };
    let initial_cols = (m * 3) / 5;
    let config = SglConfig::default().with_tol(0.0).with_max_iterations(6);
    let mut session =
        SglSession::from_owned(config, column_batch(0, initial_cols)).expect("session");
    session.run_to_completion().expect("initial learn");

    // `--trace PATH` records the serving timeline — query / batch_solve /
    // respond spans, queue-wait intervals, ingest / publish events — and
    // exports it as a Chrome trace at exit. Enabled only for the serving
    // phase so the learn preamble does not drown the timeline.
    let trace_path = {
        let flag = args.get("trace", String::new());
        (!flag.is_empty()).then(|| std::path::PathBuf::from(flag))
    };
    if trace_path.is_some() {
        sgl_trace::clear();
        sgl_trace::enable();
    }

    let opts = ServeOptions {
        batch_window: Duration::from_micros(window_us),
        ..ServeOptions::default()
    };
    let server = SglServer::new(session, opts).expect("server");
    let reader = server.handle();
    let pool = Arc::new(query_pool(n));

    // ---- Arm 1: fixed snapshot, scaling reader counts -------------------
    let v0 = reader.snapshot();
    assert_eq!(v0.version(), 0);
    let canonical_v0: Vec<Vec<f64>> = pool
        .iter()
        .map(|pairs| v0.resistances(pairs).expect("canonical answers"))
        .collect();

    let mut table = Table::new(&["readers", "queries", "qps", "p50_ms", "p99_ms", "wall_s"]);
    let mut fixed_rows = Vec::new();
    for &readers in &reader_counts {
        let (responses, wall_s) = time(|| hammer(&reader, &pool, readers, queries, None));
        for resp in &responses {
            assert_eq!(resp.version, 0, "fixed-snapshot query left version 0");
            assert_eq!(
                resp.values, canonical_v0[resp.set],
                "response drifted from canonical at {} readers",
                readers
            );
        }
        let (p50, p99, _max) = latencies(&responses);
        let qps = responses.len() as f64 / wall_s;
        table.row(&[
            readers.to_string(),
            responses.len().to_string(),
            fix(qps, 1),
            fix(p50 * 1e3, 3),
            fix(p99 * 1e3, 3),
            fix(wall_s, 3),
        ]);
        fixed_rows.push((readers, responses.len(), qps, p50, p99, wall_s));
    }
    println!("\nfixed snapshot (v0), bit-identical at every reader count ✓");
    table.print();

    // ---- Arm 2: readers hammer through ingest + publishes ---------------
    // Canonical answers are captured per published version from pinned
    // snapshots; every concurrent response must match the canonical set
    // of exactly the version that answered it.
    let churn_readers = *reader_counts.last().expect("non-empty");
    let ingest_batches = 3usize;
    let stop = Arc::new(AtomicBool::new(false));
    let churn_handle = reader.clone();
    let churn_pool = Arc::clone(&pool);
    let churn_stop = Arc::clone(&stop);
    let churn = std::thread::spawn(move || {
        hammer(
            &churn_handle,
            &churn_pool,
            churn_readers,
            usize::MAX / 2,
            Some(&churn_stop),
        )
    });

    let mut canonical: Vec<Vec<Vec<f64>>> = vec![canonical_v0];
    let cols_left = m - initial_cols;
    let per_batch = cols_left / ingest_batches;
    let (_, churn_wall) = time(|| {
        for b in 0..ingest_batches {
            let lo = initial_cols + b * per_batch;
            let hi = if b + 1 == ingest_batches {
                m
            } else {
                lo + per_batch
            };
            server.ingest(column_batch(lo, hi)).expect("ingest");
            server.flush().expect("flush");
            let snap = reader.snapshot();
            canonical.push(
                pool.iter()
                    .map(|pairs| snap.resistances(pairs).expect("canonical answers"))
                    .collect(),
            );
        }
    });
    stop.store(true, Ordering::Relaxed);
    let churn_responses = churn.join().expect("churn readers panicked");

    let mut versions_observed = std::collections::BTreeSet::new();
    for resp in &churn_responses {
        let v = resp.version as usize;
        assert!(v < canonical.len(), "response from unpublished version {v}");
        versions_observed.insert(resp.version);
        assert_eq!(
            resp.values, canonical[v][resp.set],
            "torn read: response does not match canonical answers of version {v}"
        );
    }
    let (churn_p50, churn_p99, churn_max) = latencies(&churn_responses);
    let stats = server.stats();
    assert_eq!(stats.snapshots_published as usize, ingest_batches);
    println!(
        "\ningest churn: {} responses across versions {:?} while publishing {} snapshots, \
         every response consistent with exactly one snapshot ✓",
        churn_responses.len(),
        versions_observed,
        stats.snapshots_published,
    );
    println!(
        "  latency p50 {:.3} ms, p99 {:.3} ms, max {:.3} ms over {:.3} s of ingest",
        churn_p50 * 1e3,
        churn_p99 * 1e3,
        churn_max * 1e3,
        churn_wall,
    );

    // Server-side latency: measured inside the micro-batcher for every
    // query (including the collection window and queue wait), the
    // authoritative numbers — the bench-side per-arm percentiles above
    // only see the client clock and miss abandoned requests.
    println!(
        "server-side latency: p50 {:.3} ms, p99 {:.3} ms; queue wait p50 {:.3} ms, \
         p99 {:.3} ms over {} queries",
        stats.query_latency_p50_ms,
        stats.query_latency_p99_ms,
        stats.queue_wait_p50_ms,
        stats.queue_wait_p99_ms,
        stats.queries_answered,
    );
    assert!(
        stats.query_latency_p99_ms > 0.0,
        "server-side latency histogram recorded nothing"
    );

    // ---- Arm 3: network front-end under overload + chaos ----------------
    let full_net = args.has("net");
    let chaos_seed: u64 = args.get("chaos-seed", 0xC4A0_5EED);
    let (overload, overload_wall) = time(|| overload_arm(full_net, chaos_seed));
    println!(
        "\noverload ({} soak, chaos seed {chaos_seed:#x}): {} requests over {} waves \
         of {} clients -> {} ok / {} shed, {} chaos clients all handled cleanly, \
         writer killed+restarted {}x, queue depth <= {}, \
         p50 {:.3} ms / p99 {:.3} ms (deadline {} ms), zero torn responses ✓ [{:.2}s]",
        if full_net { "full" } else { "quick" },
        overload.requests,
        overload.waves,
        overload.clients_per_wave,
        overload.ok,
        overload.shed,
        overload.chaos_requests,
        overload.writer_restarts,
        overload.max_queue_depth,
        overload.p50_ms,
        overload.p99_ms,
        overload.deadline_ms,
        overload_wall,
    );

    if let Some(path) = &trace_path {
        sgl_trace::disable();
        let events = sgl_trace::take_events();
        sgl_trace::write_chrome_trace(path, &events).expect("write chrome trace");
        println!("wrote {} ({} events)", path.display(), events.len());
    }

    // Hand-rolled JSON (no serde in the offline image).
    let mut json = String::from("{\n  \"bench\": \"serve\",\n");
    json.push_str(&format!("  \"host_cores\": {},\n", par::max_threads()));
    json.push_str(&format!("  \"effective_threads\": {effective_threads},\n"));
    json.push_str(&format!(
        "  \"args\": \"side={side} m={m} queries={queries} readers={max_readers} \
         window_us={window_us} quick={quick}\",\n"
    ));
    json.push_str(&format!("  \"nodes\": {n},\n"));
    json.push_str(&format!("  \"pairs_per_query\": {PAIRS_PER_QUERY},\n"));
    json.push_str("  \"fixed_snapshot\": [\n");
    for (i, (readers, count, qps, p50, p99, wall_s)) in fixed_rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"readers\": {}, \"queries\": {}, \"qps\": {:.3}, \
             \"p50_ms\": {:.6}, \"p99_ms\": {:.6}, \"wall_s\": {:.9}, \
             \"version\": 0, \"bit_identical\": true}}{}\n",
            readers,
            count,
            qps,
            p50 * 1e3,
            p99 * 1e3,
            wall_s,
            if i + 1 < fixed_rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"ingest_churn\": {{\"readers\": {}, \"responses\": {}, \
         \"versions_observed\": {}, \"snapshots_published\": {}, \
         \"measurements_ingested\": {}, \"churn_wall_s\": {:.9}, \
         \"p50_ms\": {:.6}, \"p99_ms\": {:.6}, \"max_ms\": {:.6}, \
         \"consistent\": true}},\n",
        churn_readers,
        churn_responses.len(),
        versions_observed.len(),
        stats.snapshots_published,
        stats.measurements_ingested,
        churn_wall,
        churn_p50 * 1e3,
        churn_p99 * 1e3,
        churn_max * 1e3,
    ));
    json.push_str(&format!(
        "  \"server_latency\": {{\"query_p50_ms\": {:.6}, \"query_p99_ms\": {:.6}, \
         \"queue_wait_p50_ms\": {:.6}, \"queue_wait_p99_ms\": {:.6}, \
         \"measured\": \"in-server\"}},\n",
        stats.query_latency_p50_ms,
        stats.query_latency_p99_ms,
        stats.queue_wait_p50_ms,
        stats.queue_wait_p99_ms,
    ));
    json.push_str(&format!(
        "  \"overload\": {{\"full_soak\": {}, \"chaos_seed\": {}, \"waves\": {}, \
         \"clients_per_wave\": {}, \"requests\": {}, \"ok\": {}, \"shed\": {}, \
         \"chaos_requests\": {}, \"chaos_clean\": {}, \"versions_observed\": {}, \
         \"writer_restarts\": {}, \"injected_faults\": {}, \"max_queue_depth\": {}, \
         \"queue_capacity\": {}, \"overload_p50_ms\": {:.6}, \"overload_p99_ms\": {:.6}, \
         \"deadline_ms\": {}, \"p99_within_deadline\": true, \"torn_responses\": 0, \
         \"shed_not_crash\": true}},\n",
        full_net,
        chaos_seed,
        overload.waves,
        overload.clients_per_wave,
        overload.requests,
        overload.ok,
        overload.shed,
        overload.chaos_requests,
        overload.chaos_clean,
        overload.versions_observed,
        overload.writer_restarts,
        overload.injected_faults,
        overload.max_queue_depth,
        overload.queue_capacity,
        overload.p50_ms,
        overload.p99_ms,
        overload.deadline_ms,
    ));
    json.push_str(&format!(
        "  \"serve_stats\": {{\"queries_answered\": {}, \"batches_executed\": {}, \
         \"requests_coalesced\": {}, \"rhs_columns_solved\": {}, \
         \"largest_batch\": {}}}\n}}\n",
        stats.queries_answered,
        stats.batches_executed,
        stats.requests_coalesced,
        stats.rhs_columns_solved,
        stats.largest_batch,
    ));

    let path = repro_dir().join("BENCH_serve.json");
    let mut f = std::fs::File::create(&path).expect("create BENCH_serve.json");
    f.write_all(json.as_bytes())
        .expect("write BENCH_serve.json");
    println!("\nwrote {}", path.display());

    // Schema drift check against the tracked snapshot (CI smoke mode).
    if let Some(tracked) = {
        let flag = args.get("schema-against", String::new());
        (!flag.is_empty()).then_some(flag)
    } {
        let snapshot = std::fs::read_to_string(&tracked)
            .unwrap_or_else(|e| panic!("cannot read tracked snapshot {tracked}: {e}"));
        let expect = json_keys(&snapshot);
        let got = json_keys(&json);
        assert_eq!(
            got, expect,
            "BENCH_serve.json schema drifted from the tracked snapshot {tracked}; \
             regenerate and commit it alongside the change"
        );
        println!("schema matches tracked snapshot {tracked} ✓");
    }
}
