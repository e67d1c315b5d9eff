//! The `serve-mixed` workload: a grid model served by `NetServer` over
//! loopback with default options, under an open-loop request mix from
//! one process.
//!
//! Each repetition learns the same initial model from the first
//! measurement columns, starts `SglServer` and `NetServer`, and runs two
//! phases at the same schedule: read-only, then with `POST /ingest`
//! batches of the remaining columns on a fixed cadence, so the writer's
//! extend → refresh → publish competes with the reads. Every `200` must
//! match, bit for bit, the answer of the snapshot version it reports.
//!
//! `query_p50_ms` is the fastest of the medians of one-second windows of
//! the read-only phases, and `setup_s`/`learn_s` the fastest of set-ups
//! timed in blocks before each phase: other tenants of a small shared
//! host slow everything for seconds at a time, and these figures keep
//! the program's own cost.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use sgl_core::{
    ExactSolve, Measurements, ResistanceEstimator, SglConfig, SglSession, SolverPolicy,
};
use sgl_linalg::vecops::pearson;
use sgl_linalg::DenseMatrix;
use sgl_net::json::{self, Json};
use sgl_net::server::loopback;
use sgl_net::{client, NetOptions, NetServer};
use sgl_serve::{GraphSnapshot, ServeOptions, SglServer};

use crate::inputs::{self, Request};
use crate::load::{self, Timed};
use crate::probes::per_call_s;
use crate::report::{peak_rss_mb, Report};
use crate::stats::{low, median, Summary};

const SIDE: usize = 32;
const MEASUREMENTS: usize = 20;
/// Columns the initial model is learned from; the rest are ingested.
const INITIAL: usize = 12;
const INGEST_BATCHES: usize = 4;
/// Refinement iterations of the initial learn.
const INITIAL_ITERATIONS: usize = 6;
const REPS: usize = 3;
/// Set-ups timed in one block; a repetition has a block before each
/// phase, the first ending with the set-up of its own server. So
/// `setup_s` and `learn_s` rest on 36 set-ups in six blocks spread over
/// the run: single set-ups on a shared host range over a factor of two,
/// in stretches of several seconds.
const SETUP_BLOCK: usize = 6;
/// Node pairs behind the served model's `er_corr`.
const ER_PAIRS: usize = 2048;
/// Nominal request rate of both phases, requests per second, fixed so
/// that every run offers the same load. It sits between two limits:
/// - below: the read-only phases must yield the 1000 solve samples a p99
///   needs (see `stats::tail_level`); half the mix is solves and the
///   read-only phases last 10 s at the default budget, so at least
///   200 req/s;
/// - above: queueing should stay a small part of the latency, so that
///   `query_p50_ms` follows the cost of a request. The traced run
///   measures the closed-loop saturation rate of this mix
///   (`serve.saturation_qps`, 1350 to 1430 req/s on a 2-vCPU host), and
///   300 req/s is 21% to 22% of it; an M/M/1 queue at that load waits
///   on average 0.28 of a service time.
const RATE: f64 = 300.0;
/// Stretch of the read-only phase behind one `query_p50_ms` sample.
const WINDOW: Duration = Duration::from_secs(1);
/// How long the traced run drives the server closed-loop to find the
/// rate it saturates at.
const SATURATION_SPAN: Duration = Duration::from_secs(2);

/// A reply as the sender saw it.
type Reply = Result<(u16, Vec<u8>), String>;

/// The fixed parts of every repetition.
struct Setup {
    truth: sgl_graph::Graph,
    initial: Measurements,
    ingest_bodies: Vec<String>,
    pool: Vec<Vec<(usize, usize)>>,
    injections: Vec<Vec<f64>>,
    /// The request sequence each phase sends.
    plan: Vec<Request>,
    /// Path and body of every request in `plan`.
    bodies: HashMap<Request, (String, Option<String>)>,
    er_pairs: Vec<(usize, usize)>,
    threads: usize,
}

fn columns_matrix(meas: &Measurements, lo: usize, hi: usize) -> Vec<Vec<f64>> {
    (lo..hi).map(|j| meas.voltages().column(j)).collect()
}

/// The path of `req`, and its JSON body when it is a `POST`.
fn render(
    req: Request,
    pool: &[Vec<(usize, usize)>],
    injections: &[Vec<f64>],
) -> (String, Option<String>) {
    match req {
        Request::Resistances(set) => {
            let pairs: Vec<Vec<f64>> = pool[set]
                .iter()
                .map(|&(s, t)| vec![s as f64, t as f64])
                .collect();
            (
                "/resistances".into(),
                Some(format!("{{\"pairs\":{}}}", json::f64_matrix(&pairs))),
            )
        }
        Request::Interpolate(k) => (
            "/interpolate".into(),
            Some(format!(
                "{{\"injections\":{}}}",
                json::f64_matrix(std::slice::from_ref(&injections[k]))
            )),
        ),
        Request::Coords(v) => (format!("/coords/{v}"), None),
        Request::Cluster(v) => (format!("/cluster/{v}"), None),
        Request::Distance(s, t) => (format!("/distance/{s}/{t}"), None),
    }
}

fn setup(seed: u64, count: usize, threads: usize) -> Setup {
    let grid = inputs::grid(SIDE, MEASUREMENTS, seed);
    let n = grid.truth.num_nodes();
    let initial = Measurements::from_voltages(DenseMatrix::from_columns(&columns_matrix(
        &grid.meas, 0, INITIAL,
    )))
    .expect("voltage columns are valid data");
    let per = (MEASUREMENTS - INITIAL) / INGEST_BATCHES;
    let ingest_bodies = (0..INGEST_BATCHES)
        .map(|b| {
            let lo = INITIAL + b * per;
            let cols = columns_matrix(&grid.meas, lo, lo + per);
            format!("{{\"columns\":{}}}", json::f64_matrix(&cols))
        })
        .collect();
    let pool = inputs::query_pool(n, seed);
    let injections = inputs::injections(n, inputs::sub_seed(seed, 2 << 20));
    let plan = inputs::request_mix(n, count, inputs::sub_seed(seed, 3 << 20));
    let bodies = plan
        .iter()
        .map(|&r| (r, render(r, &pool, &injections)))
        .collect();
    let er_pairs = sgl_core::sample_node_pairs(n, ER_PAIRS, inputs::sub_seed(seed, 4 << 20));
    Setup {
        truth: grid.truth,
        initial,
        ingest_bodies,
        pool,
        injections,
        plan,
        bodies,
        er_pairs,
        threads,
    }
}

fn send(addr: SocketAddr, path: &str, body: Option<&str>) -> Reply {
    let reply = match body {
        Some(b) => client::post(addr, path, b),
        None => client::get(addr, path),
    }?;
    Ok((reply.status, reply.body))
}

/// The canonical answer of `req` on `snap`, as the JSON value the
/// server puts under its key.
fn canonical(
    req: Request,
    snap: &GraphSnapshot,
    pool: &[Vec<(usize, usize)>],
    injections: &[Vec<f64>],
) -> Result<(&'static str, Vec<f64>), String> {
    let e = |e: sgl_serve::ServeError| e.to_string();
    Ok(match req {
        Request::Resistances(set) => ("resistances", snap.resistances(&pool[set]).map_err(e)?),
        Request::Interpolate(k) => (
            "solutions",
            snap.interpolate_batch(std::slice::from_ref(&injections[k]))
                .map_err(e)?
                .concat(),
        ),
        Request::Coords(v) => ("coords", snap.embedding_coords(v).map_err(e)?.to_vec()),
        Request::Cluster(v) => ("cluster", vec![snap.cluster_of(v).map_err(e)? as f64]),
        Request::Distance(s, t) => (
            "distance_sq",
            vec![snap.embedding_distance_sq(s, t).map_err(e)?],
        ),
    })
}

/// Flatten a JSON number, array of numbers, or array of arrays.
fn numbers(v: &Json, out: &mut Vec<f64>) -> bool {
    if let Some(x) = v.as_f64() {
        out.push(x);
        return true;
    }
    v.as_array()
        .is_some_and(|a| a.iter().all(|x| numbers(x, out)))
}

/// The version a reply reports and whether its values bit-match the
/// canonical answer of that version.
fn verify(
    req: Request,
    reply: &Reply,
    snapshots: &[Arc<GraphSnapshot>],
    cache: &mut HashMap<(u64, Request), (&'static str, Vec<f64>)>,
    s: &Setup,
) -> Result<u64, String> {
    let (status, body) = reply.as_ref().map_err(Clone::clone)?;
    if *status != 200 {
        return Err(format!("{req:?}: status {status}"));
    }
    let text = std::str::from_utf8(body).map_err(|_| format!("{req:?}: body is not UTF-8"))?;
    let parsed = json::parse(text).map_err(|e| format!("{req:?}: bad JSON: {e}"))?;
    let version = parsed
        .get("version")
        .and_then(Json::as_usize)
        .ok_or_else(|| format!("{req:?}: no version"))? as u64;
    let snap = snapshots
        .get(version as usize)
        .ok_or_else(|| format!("{req:?}: version {version} was never observed"))?;
    let (key, want) = match cache.entry((version, req)) {
        std::collections::hash_map::Entry::Occupied(e) => e.into_mut(),
        std::collections::hash_map::Entry::Vacant(e) => {
            e.insert(canonical(req, snap, &s.pool, &s.injections)?)
        }
    };
    let mut got = Vec::new();
    let ok = parsed.get(key).is_some_and(|v| numbers(v, &mut got))
        && got.len() == want.len()
        && got
            .iter()
            .zip(want)
            .all(|(a, b)| a.to_bits() == b.to_bits());
    if ok {
        Ok(version)
    } else {
        Err(format!("{req:?}: answer differs from snapshot v{version}"))
    }
}

/// What one repetition measured.
#[derive(Default)]
struct Rep {
    read_solve: Vec<f64>,
    /// Median solve latency of each [`WINDOW`] of the read-only phase.
    solve_window_p50: Vec<f64>,
    read_interpolate: Vec<f64>,
    read_lookup: Vec<f64>,
    ingest_solve: Vec<f64>,
    lateness: Vec<f64>,
    ingest_lateness: Vec<f64>,
    publish_s: Vec<f64>,
}

/// Run one phase's schedule against `addr`.
fn phase(addr: SocketAddr, s: &Setup, due: &[Duration], start: Instant) -> Vec<Timed<Reply>> {
    load::run(start, due, s.threads, |i| {
        let (path, body) = &s.bodies[&s.plan[i]];
        send(addr, path, body.as_deref())
    })
}

/// Seconds spent learning the initial model and setting up in total.
struct SetupTime {
    learn_s: f64,
    setup_s: f64,
}

/// Learn the initial model and start serving it on loopback.
fn start(s: &Setup) -> (NetServer, SetupTime) {
    let cfg = SglConfig::default()
        .with_tol(0.0)
        .with_max_iterations(INITIAL_ITERATIONS)
        .with_parallelism(s.threads);
    let t0 = Instant::now();
    let mut session = SglSession::from_owned(cfg, s.initial.clone()).expect("initial session");
    session.run_to_completion().expect("initial learn");
    let learn_s = t0.elapsed().as_secs_f64();
    let server = SglServer::new(session, ServeOptions::default()).expect("serving instance");
    let net = NetServer::bind(server, loopback(), NetOptions::default()).expect("bind loopback");
    let setup_s = t0.elapsed().as_secs_f64();
    (net, SetupTime { learn_s, setup_s })
}

/// Time `count` set-ups, each shut down straight away.
fn setup_block(s: &Setup, count: usize, setups: &mut Vec<SetupTime>) {
    for _ in 0..count {
        let (net, t) = start(s);
        net.shutdown().expect("graceful shutdown");
        setups.push(t);
    }
}

/// One repetition on a freshly started server: the read-only phase, a
/// block of set-ups, the ingest phase, shutdown, then the check of every
/// reply.
fn repetition(
    s: &Setup,
    net: NetServer,
    first: bool,
    phase_span: Duration,
    traced: bool,
    setups: &mut Vec<SetupTime>,
    report: &mut Report,
) -> Rep {
    let mut rep = Rep::default();
    let addr = net.local_addr();
    let handle = net.serve_handle();

    if first {
        initial_model_metrics(s, &handle.snapshot(), report);
    }
    if traced {
        layer_probes(s, &net, report);
        sgl_trace::clear();
        sgl_trace::reset_metrics();
        sgl_trace::enable();
    }

    // The probes above went through the same batcher; count from here.
    let before = net.serve_stats();
    let due = load::schedule(RATE, phase_span);
    let snapshots = Mutex::new(vec![handle.snapshot()]);

    // Phase 1: read-only.
    let read = phase(addr, s, &due, Instant::now());
    setup_block(s, SETUP_BLOCK, setups);

    // Phase 2: the same schedule, with ingest batches on a fixed cadence
    // and a monitor capturing each published snapshot.
    let stop = AtomicBool::new(false);
    let start = Instant::now();
    let (ingest, accepted) = std::thread::scope(|scope| {
        // Publishes are hundreds of milliseconds apart, so polling every
        // 200 µs sees each version; a final look follows the stop flag.
        let monitor = scope.spawn(|| loop {
            let stopping = stop.load(Ordering::SeqCst);
            let snap = handle.snapshot();
            let mut seen = snapshots.lock().expect("monitor lock");
            if snap.version() as usize == seen.len() {
                seen.push(snap);
            }
            drop(seen);
            if stopping {
                break;
            }
            std::thread::sleep(Duration::from_micros(200));
        });
        let ingester = scope.spawn(|| {
            let mut accepted = Vec::new();
            for (b, body) in s.ingest_bodies.iter().enumerate() {
                let at = phase_span.mul_f64((b + 1) as f64 / (INGEST_BATCHES + 2) as f64);
                if let Some(wait) = (start + at).checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                let reply = client::post(addr, "/ingest", body);
                accepted.push(match reply {
                    Ok(r) if r.status == 202 => Ok(start.elapsed()),
                    Ok(r) => Err(format!("ingest {b}: status {}", r.status)),
                    Err(e) => Err(format!("ingest {b}: {e}")),
                });
            }
            accepted
        });
        let ingest = phase(addr, s, &due, start);
        let accepted = ingester.join().expect("ingest thread panicked");
        // Let the writer publish every accepted batch before the monitor
        // stops.
        let deadline = Instant::now() + Duration::from_secs(30);
        while (handle.version() as usize) < INGEST_BATCHES && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        stop.store(true, Ordering::SeqCst);
        monitor.join().expect("snapshot monitor panicked");
        (ingest, accepted)
    });

    if traced {
        sgl_trace::disable();
        traced_counters(report);
    }
    let serve_stats = net.serve_stats();
    let net_stats = net.stats();
    let session = net.shutdown().expect("graceful shutdown");
    report.check(
        session.measurements().num_measurements() == MEASUREMENTS,
        || "shutdown lost ingested columns".into(),
    );

    // Verify every reply against its version's canonical answer.
    let snapshots = snapshots.into_inner().expect("snapshot list");
    let mut cache = HashMap::new();
    let mut first_seen = [None::<Duration>; INGEST_BATCHES + 1];
    let windows = ((phase_span.as_secs_f64() / WINDOW.as_secs_f64()) as usize).max(1);
    let mut window_solve = vec![Vec::new(); windows];
    for (which, timed) in [(0, &read), (1, &ingest)] {
        for t in timed {
            let req = s.plan[t.index];
            match verify(req, &t.result, &snapshots, &mut cache, s) {
                Ok(version) => {
                    report.check(true, String::new);
                    let lat = t.latency_ms();
                    match (which, req.is_solve()) {
                        (0, true) => {
                            rep.read_solve.push(lat);
                            let w = (t.due.as_secs_f64() / phase_span.as_secs_f64()
                                * windows as f64) as usize;
                            window_solve[w.min(windows - 1)].push(lat);
                            if matches!(req, Request::Interpolate(_)) {
                                rep.read_interpolate.push(lat);
                            }
                        }
                        (0, false) => rep.read_lookup.push(lat),
                        (_, true) => rep.ingest_solve.push(lat),
                        _ => {}
                    }
                    if which == 1 {
                        for slot in first_seen.iter_mut().take(version as usize + 1).skip(1) {
                            if slot.is_none_or(|d| t.done < d) {
                                *slot = Some(t.done);
                            }
                        }
                    }
                }
                Err(e) => report.check(false, || e),
            }
            if which == 0 {
                rep.lateness.push(t.lateness_ms());
            } else {
                rep.ingest_lateness.push(t.lateness_ms());
            }
        }
    }
    for (b, acc) in accepted.iter().enumerate() {
        match acc {
            Ok(at) => {
                report.check(true, String::new);
                if let Some(seen) = first_seen[b + 1] {
                    rep.publish_s.push(seen.saturating_sub(*at).as_secs_f64());
                }
            }
            Err(e) => report.check(false, || e.clone()),
        }
    }
    rep.solve_window_p50 = window_solve.iter().map(|w| median(w)).collect();
    let misses = serve_stats.deadline_misses - before.deadline_misses;
    report.check(misses == 0 && net_stats.shed == 0, || {
        format!("{misses} deadline misses, {} shed", net_stats.shed)
    });
    report.set("serve.deadline_misses", misses as f64);
    report.set(
        "serve.query_retries",
        (serve_stats.query_retries - before.query_retries) as f64,
    );
    report.set("serve.queue_wait_p99_ms", serve_stats.queue_wait_p99_ms);
    report.set(
        "serve.batches",
        (serve_stats.batches_executed - before.batches_executed) as f64,
    );
    report.set("net.shed", net_stats.shed as f64);
    report.set("net.rejected", net_stats.malformed as f64);
    report.set("net.max_queue_depth", net_stats.max_queue_depth as f64);
    rep
}

/// Quality of the initial served model: resistance correlation with the
/// truth grid on [`ER_PAIRS`] node pairs, and density.
fn initial_model_metrics(s: &Setup, snap: &GraphSnapshot, report: &mut Report) {
    // In small batches, so the evaluation does not set the peak RSS.
    let exact = ExactSolve::build(&s.truth, &SolverPolicy::default()).expect("truth solver");
    let (mut truth, mut learned) = (Vec::new(), Vec::new());
    for pairs in s.er_pairs.chunks(64) {
        truth.extend(exact.resistances(pairs).expect("truth resistances"));
        learned.extend(snap.resistances(pairs).expect("served resistances"));
    }
    report.set("er_corr", pearson(&learned, &truth));
    report.set("learned_density", snap.graph().density());
}

/// In-process query latencies and JSON costs on the served model.
fn layer_probes(s: &Setup, net: &NetServer, report: &mut Report) {
    let handle = net.serve_handle();
    let snap = handle.snapshot();
    let pairs = &s.pool[0];
    report.set(
        "serve.snapshot_query_ms",
        per_call_s(|| {
            std::hint::black_box(snap.resistances(pairs).expect("snapshot query"));
        }) * 1e3,
    );
    report.set(
        "serve.handle_query_ms",
        per_call_s(|| {
            std::hint::black_box(handle.resistances(pairs).expect("handle query"));
        }) * 1e3,
    );
    report.set(
        "solver.pcg_solve_ms",
        crate::probes::pcg_solve(snap.graph()),
    );
    let (_, body) = render(Request::Interpolate(0), &s.pool, &s.injections);
    let body = body.expect("interpolate has a body");
    report.set(
        "net.json_parse_us",
        per_call_s(|| {
            std::hint::black_box(json::parse(&body).expect("valid body"));
        }) * 1e6,
    );
    let answer = snap.interpolate(&s.injections[0]).expect("interpolation");
    report.set(
        "net.json_render_us",
        per_call_s(|| {
            std::hint::black_box(json::f64_array(&answer));
        }) * 1e6,
    );
}

/// Requests per second the server answers when every sender sends its
/// next request of the read-only mix as soon as the last is answered: the
/// most this one-process generator can drive. Every reply is checked.
fn saturation_qps(s: &Setup, report: &mut Report) -> f64 {
    let (net, _) = start(s);
    let addr = net.local_addr();
    let snapshots = [net.serve_handle().snapshot()];
    let t0 = Instant::now();
    let replies = load::closed_loop(SATURATION_SPAN, s.threads, |i| {
        let (path, body) = &s.bodies[&s.plan[i % s.plan.len()]];
        send(addr, path, body.as_deref())
    });
    let elapsed = t0.elapsed().as_secs_f64();
    net.shutdown().expect("graceful shutdown");
    let mut cache = HashMap::new();
    for (i, reply) in &replies {
        let checked = verify(s.plan[i % s.plan.len()], reply, &snapshots, &mut cache, s);
        report.check(checked.is_ok(), || checked.unwrap_err());
    }
    replies.len() as f64 / elapsed
}

/// Counters and spans of one traced repetition's phases.
fn traced_counters(report: &mut Report) {
    let counters: HashMap<&str, u64> = sgl_trace::counters_snapshot()
        .into_iter()
        .map(|c| (c.name, c.value))
        .collect();
    let count = |name: &str| counters.get(name).copied().unwrap_or(0) as f64;
    let solves = count("solver.solves");
    let pcg = count("solver.pcg_iterations_total");
    report.set("solver.solves", solves);
    report.set("solver.pcg_iterations", pcg);
    report.set(
        "solver.pcg_iters_per_solve",
        if solves > 0.0 { pcg / solves } else { 0.0 },
    );
    report.set("solver.handles_built", count("solver.handles_built"));
    report.set("solver.delta_updates", count("solver.delta_updates"));
    report.set("solver.refreshes", count("solver.refreshes"));
    let occupancy = sgl_trace::histograms_snapshot()
        .into_iter()
        .find(|h| h.name == "serve.batch_occupancy")
        .map_or(0.0, |h| h.mean);
    report.set("serve.batch_occupancy", occupancy);
    let ingest: Vec<f64> = sgl_trace::take_events()
        .iter()
        .filter(|e| e.name == "ingest")
        .map(|e| e.dur_ns as f64 / 1e9)
        .collect();
    report.set("serve.ingest_s", median(&ingest));
}

/// Run `serve-mixed` and fill `report`.
pub fn run(seed: u64, budget: Duration, traced: bool, threads: usize, report: &mut Report) {
    // A third of the budget goes to the set-ups.
    let phase_span = budget * 2 / (3 * 2 * REPS as u32);
    let count = load::schedule(RATE, phase_span).len();
    let s = setup(seed, count, threads);
    let mut setups = Vec::new();
    let mut reps = Vec::new();
    for i in 0..REPS {
        setup_block(&s, SETUP_BLOCK - 1, &mut setups);
        let (net, t) = start(&s);
        setups.push(t);
        // In the traced run the first repetition stays untraced: it is
        // the baseline of the tracing overhead.
        reps.push(repetition(
            &s,
            net,
            i == 0,
            phase_span,
            traced && i > 0,
            &mut setups,
            report,
        ));
    }
    let pooled = |f: fn(&Rep) -> &Vec<f64>| {
        reps.iter()
            .flat_map(|r| f(r).iter().copied())
            .collect::<Vec<f64>>()
    };
    let read_solve = Summary::of(&pooled(|r| &r.read_solve));
    let read_lookup = Summary::of(&pooled(|r| &r.read_lookup));
    let ingest_solve = Summary::of(&pooled(|r| &r.ingest_solve));
    let lateness = Summary::of(&pooled(|r| &r.lateness));
    let ingest_lateness = Summary::of(&pooled(|r| &r.ingest_lateness));
    report.set(
        "setup_s",
        low(&setups.iter().map(|t| t.setup_s).collect::<Vec<_>>()),
    );
    report.set(
        "learn_s",
        low(&setups.iter().map(|t| t.learn_s).collect::<Vec<_>>()),
    );
    let learn_ms: Vec<f64> = setups.iter().map(|t| (t.learn_s * 1e3).round()).collect();
    report.note(format!("initial learns (ms, in run order): {learn_ms:?}"));
    let windows = pooled(|r| &r.solve_window_p50);
    report.set("query_p50_ms", low(&windows));
    report.note(format!(
        "query_p50_ms: fastest of {} window medians; window median {:.4} ms, pooled p50 {:.4} ms",
        windows.len(),
        median(&windows),
        read_solve.p50,
    ));
    report.note(format!(
        "read-only p50 by class: solve {:.4} ms (interpolate alone {:.4} ms), lookup {:.4} ms",
        read_solve.p50,
        median(&pooled(|r| &r.read_interpolate)),
        read_lookup.p50,
    ));
    report.set("query.p99_ms", read_solve.p99);
    report.set("query.samples", read_solve.count as f64);
    report.set("serve.lookup_p99_ms", read_lookup.p99);
    report.set("serve.query_p99_ingest_ms", ingest_solve.p99);
    report.set("serve.publish_p50_s", median(&pooled(|r| &r.publish_s)));
    report.set("gen.lateness_p99_ms", lateness.p99);
    report.set("gen.ingest_lateness_p99_ms", ingest_lateness.p99);
    if traced {
        let qps = saturation_qps(&s, report);
        report.set("serve.saturation_qps", qps);
        report.note(format!(
            "closed-loop saturation {qps:.1} req/s; the nominal {RATE} req/s is {:.0}% of it",
            RATE / qps * 100.0
        ));
        let untraced = median(&reps[0].read_solve);
        let traced: Vec<f64> = reps[1..]
            .iter()
            .flat_map(|r| r.read_solve.iter().copied())
            .collect();
        report.set(
            "trace.overhead_pct",
            (median(&traced) / untraced - 1.0) * 100.0,
        );
    }
    report.note(format!(
        "{REPS} repetitions x 2 phases of {:.2} s at {RATE} req/s: solve p50/p99 from {} samples, \
         lookup p99 from {}, ingest-phase solve p99 from {}; sender lateness p99 {:.3} ms \
         read-only, {:.3} ms with ingest",
        phase_span.as_secs_f64(),
        read_solve.count,
        read_lookup.count,
        ingest_solve.count,
        lateness.p99,
        ingest_lateness.p99,
    ));
    report.set("peak_rss_mb", peak_rss_mb());
}
