//! The learn workloads: `learn-grid` (the paper's solver path on a
//! circuit) and `learn-cloud-sf` (SF-SGL on voltage-only point-cloud
//! data).
//!
//! Policy for the first-run effect: every run starts with an untimed
//! pass that learns each input once at one thread. It warms the
//! allocator and page tables and yields the reference graphs that every
//! timed learn must reproduce bit for bit. The traced run times one
//! cold learn first, and reports how much slower it is than the warm
//! median.
//!
//! Timed passes repeat until the budget is spent. Each pass learns every
//! input once, then takes one `setup_s` sample. `learn_s` is the mean
//! over inputs of each input's fastest learn and `setup_s` the median
//! sample: other tenants of a small shared host slow identical work by
//! up to half for seconds at a time.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use sgl_core::{ExactSolve, LearnResult, LearnStrategyKind, Measurements, ResistanceEstimator};
use sgl_core::{SglConfig, SglSession, SolverPolicy, StopVerdict};
use sgl_graph::Graph;
use sgl_linalg::vecops::pearson;

use crate::inputs;
use crate::probes;
use crate::report::{peak_rss_mb, Report};
use crate::stats::{low, median, Summary};

/// Which learn workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Grid,
    CloudSf,
}

const GRID_SIDE: usize = 32;
const GRID_MEASUREMENTS: usize = 20;
const CLOUD_POINTS: usize = 1500;
const CLOUD_DIMS: usize = 20;
/// Relabelled cloud copies learned per repetition; their differing
/// iteration counts average out.
const CLOUD_COPIES: usize = 16;
/// Resistance queries timed against the learned graphs.
const QUERIES: usize = 1000;
/// Timed repetitions at least, whatever the time budget.
const MIN_REPS: usize = 3;
/// Wall-clock that the `SglSession::new` calls behind one `setup_s`
/// sample add up to at least. A grid set-up takes about 9 ms, too short
/// to time alone against scheduler noise.
const SETUP_SPAN: Duration = Duration::from_millis(60);
/// A learned graph whose resistances correlate less than this with the
/// reference (truth-graph resistances, or data distances) is wrong.
const ER_FLOOR: f64 = 0.7;

/// Wall-clock of one learn's phases, seconds.
#[derive(Debug, Clone, Copy)]
struct Timing {
    new_s: f64,
    step_s: f64,
    finish_s: f64,
    total_s: f64,
}

fn config(kind: Kind, threads: usize) -> SglConfig {
    let strategy = match kind {
        Kind::Grid => LearnStrategyKind::Solver,
        Kind::CloudSf => LearnStrategyKind::SolverFree,
    };
    SglConfig::default()
        .with_tol(1e-4)
        .with_max_iterations(200)
        .with_strategy(strategy)
        .with_parallelism(threads)
}

/// One full learn — `SglSession::new`, `step` until done, `finish` —
/// with a bench-side span around each call.
fn learn(cfg: &SglConfig, meas: &Measurements) -> (LearnResult, Timing) {
    let t0 = Instant::now();
    let mut session = {
        let _sp = sgl_trace::span!("bench.session_new");
        SglSession::new(cfg.clone(), meas).expect("valid learn input")
    };
    let t1 = Instant::now();
    while !session.is_done() {
        let _sp = sgl_trace::span!("bench.session_step");
        session.step().expect("learning step");
    }
    let t2 = Instant::now();
    let result = {
        let _sp = sgl_trace::span!("bench.session_finish");
        session.finish().expect("finish")
    };
    let t3 = Instant::now();
    let s = |a: Instant, b: Instant| (b - a).as_secs_f64();
    let timing = Timing {
        new_s: s(t0, t1),
        step_s: s(t1, t2),
        finish_s: s(t2, t3),
        total_s: s(t0, t3),
    };
    (result, timing)
}

/// Whether two learns produced the same graph, bit for bit.
fn identical(a: &LearnResult, b: &LearnResult) -> bool {
    a.graph.num_edges() == b.graph.num_edges()
        && a.graph
            .edges()
            .iter()
            .zip(b.graph.edges())
            .all(|(x, y)| (x.u, x.v, x.weight.to_bits()) == (y.u, y.v, y.weight.to_bits()))
        && a.scale_factor.map(f64::to_bits) == b.scale_factor.map(f64::to_bits)
        && a.stop_verdict == b.stop_verdict
}

/// The workload's inputs, and for the grid the truth graph.
struct Inputs {
    meas: Vec<Measurements>,
    truth: Option<Graph>,
}

fn make_inputs(kind: Kind, seed: u64) -> Inputs {
    match kind {
        Kind::Grid => {
            let g = inputs::grid(GRID_SIDE, GRID_MEASUREMENTS, seed);
            Inputs {
                meas: vec![g.meas],
                truth: Some(g.truth),
            }
        }
        Kind::CloudSf => Inputs {
            meas: inputs::clouds(CLOUD_POINTS, CLOUD_DIMS, CLOUD_COPIES, seed),
            truth: None,
        },
    }
}

/// One pass over every input at `threads`, checking each graph against
/// its reference. Returns the per-input timings.
fn pass(
    kind: Kind,
    ins: &Inputs,
    refs: &[LearnResult],
    threads: usize,
    report: &mut Report,
) -> Vec<Timing> {
    let cfg = config(kind, threads);
    ins.meas
        .iter()
        .zip(refs)
        .enumerate()
        .map(|(i, (meas, reference))| {
            let (result, timing) = learn(&cfg, meas);
            report.check(identical(&result, reference), || {
                format!("input {i}: graph at {threads} threads differs from the 1-thread graph")
            });
            timing
        })
        .collect()
}

/// Mean over a pass's inputs of one phase.
fn mean(pass: &[Timing], f: impl Fn(&Timing) -> f64) -> f64 {
    pass.iter().map(f).sum::<f64>() / pass.len() as f64
}

/// One `setup_s` sample: seconds per `SglSession::new` over a pass's
/// learns, topped up with constructions of the first input until the
/// calls together span [`SETUP_SPAN`].
fn setup_sample(cfg: &SglConfig, ins: &Inputs, pass: &[Timing]) -> f64 {
    let mut total: f64 = pass.iter().map(|t| t.new_s).sum();
    let mut calls = pass.len();
    while total < SETUP_SPAN.as_secs_f64() {
        let t = Instant::now();
        let session = SglSession::new(cfg.clone(), &ins.meas[0]).expect("valid learn input");
        total += t.elapsed().as_secs_f64();
        calls += 1;
        drop(std::hint::black_box(session));
    }
    total / calls as f64
}

/// What the timed passes measured.
struct Passes {
    /// Each pass's per-input timings.
    timings: Vec<Vec<Timing>>,
    /// Each pass's `setup_s` sample.
    setups: Vec<f64>,
}

/// Repeat passes until `budget` has gone by (at least [`MIN_REPS`]), each
/// followed by its `setup_s` sample.
fn repeat(
    kind: Kind,
    ins: &Inputs,
    refs: &[LearnResult],
    threads: usize,
    budget: Duration,
    report: &mut Report,
) -> Passes {
    let cfg = config(kind, threads);
    let start = Instant::now();
    let mut out = Passes {
        timings: Vec::new(),
        setups: Vec::new(),
    };
    while out.timings.len() < MIN_REPS || start.elapsed() < budget {
        let p = pass(kind, ins, refs, threads, report);
        out.setups.push(setup_sample(&cfg, ins, &p));
        out.timings.push(p);
    }
    out
}

/// Time [`QUERIES`] resistance queries round-robin over the reference
/// graphs, check them, and return the per-query latencies (ms) with the
/// correlation of the learned resistances against the reference values.
fn queries(ins: &Inputs, refs: &[LearnResult], seed: u64, report: &mut Report) -> (Vec<f64>, f64) {
    let n = ins.meas[0].num_nodes();
    let pool = inputs::query_pool(n, seed);
    let solvers: Vec<ExactSolve> = refs
        .iter()
        .map(|r| ExactSolve::build(&r.graph, &SolverPolicy::default()).expect("solver handle"))
        .collect();
    // Query set `q` always goes to graph `q % graphs`, so each set has
    // one reference answer.
    let graph_of = |set: usize| set % solvers.len();
    let truth: Option<Vec<Vec<f64>>> = ins.truth.as_ref().map(|t| {
        let exact = ExactSolve::build(t, &SolverPolicy::default()).expect("truth solver");
        pool.iter()
            .map(|set| exact.resistances(set).expect("truth resistances"))
            .collect()
    });
    let mut first: Vec<Option<Vec<f64>>> = vec![None; pool.len()];
    let mut latencies = Vec::with_capacity(QUERIES);
    for q in 0..QUERIES {
        let set = q % pool.len();
        let t = Instant::now();
        let answer = solvers[graph_of(set)].resistances(&pool[set]);
        latencies.push(t.elapsed().as_secs_f64() * 1e3);
        let Ok(values) = answer else {
            report.check(false, || format!("query {q} failed"));
            continue;
        };
        let ok = values.iter().all(|v| v.is_finite() && *v > 0.0)
            && first[set].as_ref().is_none_or(|f| f == &values);
        report.check(ok, || {
            format!("query {q}: non-positive or non-repeatable answer")
        });
        first[set].get_or_insert(values);
    }
    let (mut learned, mut reference) = (Vec::new(), Vec::new());
    for (set, values) in first.iter().enumerate() {
        let Some(values) = values else { continue };
        let meas = &ins.meas[graph_of(set)];
        for (k, (&(s, t), &v)) in pool[set].iter().zip(values).enumerate() {
            learned.push(v);
            reference.push(match &truth {
                Some(tr) => tr[set][k],
                None => meas.data_distance_sq(s, t),
            });
        }
    }
    (latencies, pearson(&learned, &reference))
}

/// Sum of the durations of spans named `name`, seconds.
fn span_s(events: &[sgl_trace::Event], name: &str) -> f64 {
    events
        .iter()
        .filter(|e| e.name == name)
        .fold(0.0, |acc, e| acc + e.dur_ns as f64 / 1e9)
}

/// Run a learn workload and fill `report`.
pub fn run(
    kind: Kind,
    seed: u64,
    budget: Duration,
    traced: bool,
    threads: usize,
    report: &mut Report,
) {
    sgl_sfsgl::register();
    let ins = make_inputs(kind, seed);

    // Traced run: one cold learn before anything else has run.
    let cold = traced.then(|| learn(&config(kind, threads), &ins.meas[0]).1.total_s);

    // Untimed warm-up that also gives the 1-thread reference graphs.
    let serial_start = Instant::now();
    let refs: Vec<LearnResult> = ins
        .meas
        .iter()
        .map(|m| learn(&config(kind, 1), m).0)
        .collect();
    let serial_s = serial_start.elapsed().as_secs_f64() / refs.len() as f64;
    for (i, r) in refs.iter().enumerate() {
        report.check(r.stop_verdict == StopVerdict::Converged, || {
            format!(
                "input {i}: stopped as {} instead of converged",
                r.stop_verdict.as_str()
            )
        });
    }

    let untimed_budget = if traced { budget / 2 } else { budget };
    let passes = repeat(kind, &ins, &refs, threads, untimed_budget, report);
    let reps = &passes.timings;
    let rep_means: Vec<f64> = reps.iter().map(|p| mean(p, |t| t.total_s)).collect();
    // Each input at its fastest, so that every input gets its own chance
    // at a quiet stretch of the host.
    let learn_s = (0..ins.meas.len())
        .map(|i| low(&reps.iter().map(|p| p[i].total_s).collect::<Vec<_>>()))
        .sum::<f64>()
        / ins.meas.len() as f64;
    report.set("learn_s", learn_s);
    report.set("setup_s", median(&passes.setups));
    report.set(
        "learned_density",
        refs.iter().map(|r| r.graph.density()).sum::<f64>() / refs.len() as f64,
    );

    let (latencies, er_corr) = queries(&ins, &refs, seed, report);
    let q = Summary::of(&latencies);
    report.set("query_p50_ms", q.p50);
    report.set("query.p99_ms", q.p99);
    report.set("query.samples", q.count as f64);
    report.set("er_corr", er_corr);
    report.check(er_corr >= ER_FLOOR, || {
        format!("er_corr {er_corr:.4} below the floor {ER_FLOOR}")
    });
    report.note(format!(
        "{} learns per repetition, {} repetitions (pass mean fastest {:.4} s, median {:.4} s, \
         slowest {:.4} s); setup_s median of {} samples (fastest {:.6} s); {} queries",
        ins.meas.len(),
        reps.len(),
        low(&rep_means),
        median(&rep_means),
        rep_means.iter().copied().fold(0.0, f64::max),
        passes.setups.len(),
        low(&passes.setups),
        q.count,
    ));

    if traced {
        traced_layers(
            kind,
            &ins,
            &refs,
            threads,
            budget / 2,
            low(&rep_means),
            report,
        );
        let warm0 = median(&reps.iter().map(|p| p[0].total_s).collect::<Vec<_>>());
        let cold = cold.expect("cold learn timed in traced runs");
        report.set("learn.first_run_penalty_pct", (cold / warm0 - 1.0) * 100.0);
        report.set("linalg.par_speedup", serial_s / median(&rep_means));
        report.note(format!(
            "first learn in the process {cold:.4} s vs warm median {warm0:.4} s"
        ));
    }
    report.set("peak_rss_mb", peak_rss_mb());
}

/// The traced repetitions: per-layer times and counters per learn
/// (medians over every traced learn), then the kernel probes.
fn traced_layers(
    kind: Kind,
    ins: &Inputs,
    refs: &[LearnResult],
    threads: usize,
    budget: Duration,
    untraced_learn_s: f64,
    report: &mut Report,
) {
    let cfg = config(kind, threads);
    let mut per_learn: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut traced_totals = Vec::new();
    let start = Instant::now();
    sgl_trace::enable();
    let mut reps = 0;
    while reps < MIN_REPS || start.elapsed() < budget {
        reps += 1;
        let mut rep_total = 0.0;
        for (i, (meas, reference)) in ins.meas.iter().zip(refs).enumerate() {
            sgl_trace::clear();
            sgl_trace::reset_metrics();
            let (result, t) = learn(&cfg, meas);
            let events = sgl_trace::take_events();
            let counters: BTreeMap<&str, u64> = sgl_trace::counters_snapshot()
                .into_iter()
                .map(|c| (c.name, c.value))
                .collect();
            report.check(identical(&result, reference), || {
                format!("input {i}: traced graph differs from the untraced one")
            });
            rep_total += t.total_s;
            let sum = |f: fn(&sgl_core::StepTimings) -> f64| {
                result.trace.iter().map(|r| f(&r.timings)).sum::<f64>()
            };
            let count = |name: &str| counters.get(name).copied().unwrap_or(0) as f64;
            let solves = count("solver.solves");
            let pcg = count("solver.pcg_iterations_total");
            let embed = sum(|t| t.refine_s);
            for (name, v) in [
                ("session.new_s", t.new_s),
                ("session.step_s", t.step_s),
                ("session.finish_s", t.finish_s),
                ("session.iterations", result.trace.len() as f64),
                ("session.embed_s", embed),
                ("session.embed_share", embed / t.total_s),
                ("session.score_s", sum(|t| t.score_s)),
                ("session.densify_s", sum(|t| t.densify_s)),
                // The session's own phase figures against the bench's
                // wall-clock: work outside them lowers the share.
                (
                    "session.coverage",
                    (t.new_s + sum(|t| t.score_s + t.densify_s + t.refine_s) + t.finish_s)
                        / t.total_s,
                ),
                ("solver.solves", solves),
                ("solver.pcg_iterations", pcg),
                (
                    "solver.pcg_iters_per_solve",
                    if solves > 0.0 { pcg / solves } else { 0.0 },
                ),
                ("solver.handles_built", count("solver.handles_built")),
                ("solver.delta_updates", count("solver.delta_updates")),
                ("solver.refreshes", count("solver.refreshes")),
                ("knn.build_s", span_s(&events, "knn_build")),
                ("sfsgl.band_build_s", span_s(&events, "band_build")),
                ("sfsgl.rayleigh_ritz_s", span_s(&events, "rayleigh_ritz")),
            ] {
                per_learn.entry(name).or_default().push(v);
            }
        }
        traced_totals.push(rep_total / ins.meas.len() as f64);
    }
    sgl_trace::disable();
    sgl_trace::clear();
    for (name, values) in &per_learn {
        report.set(name, median(values));
    }
    if kind == Kind::CloudSf {
        for name in [
            "solver.solves",
            "solver.pcg_iterations",
            "solver.handles_built",
            "solver.delta_updates",
            "solver.refreshes",
        ] {
            let total: f64 = per_learn[name].iter().sum();
            report.check(total == 0.0, || {
                format!("{name} = {total} on the solver-free path")
            });
        }
    }
    report.set(
        "trace.overhead_pct",
        (low(&traced_totals) / untraced_learn_s - 1.0) * 100.0,
    );

    let graph = &refs[0].graph;
    let (ns, bytes) = probes::csr_matvec(graph);
    report.set("linalg.csr_matvec_ns", ns);
    report.set("linalg.csr_matvec_bytes", bytes);
    // LOBPCG's search block [X, W, P] is three embedding blocks wide.
    let block = 3 * refs[0].embedding.coords.ncols();
    let (ns, bytes) = probes::gram(graph.num_nodes(), block);
    report.set("linalg.gram_ns", ns);
    report.set("linalg.gram_bytes", bytes);
    report.set("solver.pcg_solve_ms", probes::pcg_solve(graph));
}
