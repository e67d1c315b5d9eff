//! End-to-end learning-loop benchmark across the parallel execution
//! layer and the per-revision solver cache: the full SGL pipeline (kNN
//! build → densification loop → edge scaling) on several
//! scenarios, at 1 worker thread and at N, emitting
//! `target/repro/BENCH_learn.json` — the perf trajectory tracked across
//! PRs via the committed snapshot `BENCH_learn.json` at the repo root.
//!
//! Scenarios:
//! * `grid`     — 2-D mesh with simulated voltage/current measurements;
//! * `delaunay` — Delaunay triangulation of random points (mesh-like,
//!   irregular degrees);
//! * `knn-cloud` — a raw point cloud whose coordinates are the data
//!   matrix (GRASPEL-style attribute graph learning, voltage-only).
//!
//! Every run drives the session step by step and probes a fixed set of
//! effective resistances after each iteration — the telemetry workload
//! (leverage scores, convergence diagnostics) that makes the solve
//! layer's per-iteration cost visible: each probe needs a solver handle
//! for the *current* revision, which the solver context builds once per
//! iteration and shares with the other stages.
//!
//! Besides the timings the bench *asserts*:
//! * the parallel determinism contract — the graph learned at N threads
//!   is identical (same edges, bit-identical weights) to the 1-thread
//!   run;
//! * the stop contract — runs are convergence-driven (a real tolerance
//!   under a generous iteration cap), and in `--quick` mode every
//!   scenario must land on a genuine stop verdict (`converged` or
//!   `candidates-exhausted`), never the iteration cap;
//! * the strategy contract — the solver-free (SF-SGL) arm finishes a
//!   full learn with `solver_solves == 0` and `handles_built == 0`,
//!   stays bit-identical across thread counts, and on the grid scenario
//!   lands within 5% first-6 eigenvalue error (correlation ≥ 0.99) of
//!   the solver arm;
//! * the multilevel hierarchy is bit-identical across thread counts.
//! * the resilience contract — an interrupt/checkpoint/restore run
//!   continues bit-identical to the uninterrupted one, and a run under
//!   a seeded [`FaultPlan`] (PCG stagnation) still converges to the
//!   fault-free graph (identical edge set, weights within 1e-6).
//!
//! Usage: `bench_learn [--threads N] [--m 30] [--iters 60] [--tol 1e-4]
//! [--quick] [--ml-side S] [--fault-seed S] [--schema-against PATH]`
//!
//! `--schema-against` compares the emitted JSON's key set against a
//! tracked snapshot and fails on drift (the CI smoke check).

use sgl_bench::{banner, fix, repro_dir, sci, time, Args, Table};
use sgl_core::resistance::sample_node_pairs;
use sgl_core::{
    compare_spectra, FaultPlan, LearnResult, LearnStrategyKind, Measurements, SglConfig,
    SglSession, StopVerdict,
};
use sgl_datasets::delaunay::{delaunay, Point};
use sgl_graph::Graph;
use sgl_linalg::{par, DenseMatrix, Rng};
use sgl_multilevel::{learn_multilevel, HierarchyOptions, MultilevelOptions, MultilevelResult};
use sgl_solver::SolveStats;
use std::io::Write;

/// Resistance probes per iteration (the per-iteration solver workload).
const PROBES_PER_ITER: usize = 8;

/// A named workload: measurements to learn from (and the truth size).
struct Scenario {
    name: &'static str,
    nodes: usize,
    meas: Measurements,
}

/// Delaunay mesh over `n` uniform random points, edge weight `1/dist`.
fn delaunay_graph(n: usize, seed: u64) -> Graph {
    let mut rng = Rng::seed_from_u64(seed);
    let pts: Vec<Point> = (0..n)
        .map(|_| Point::new(rng.uniform(), rng.uniform()))
        .collect();
    let mut edges = Vec::new();
    for tri in delaunay(&pts) {
        for (a, b) in [(tri[0], tri[1]), (tri[1], tri[2]), (tri[0], tri[2])] {
            let dx = pts[a].x - pts[b].x;
            let dy = pts[a].y - pts[b].y;
            let d = (dx * dx + dy * dy).sqrt().max(1e-9);
            edges.push((a, b, 1.0 / d));
        }
    }
    Graph::from_edges(n, edges)
}

/// Random Gaussian-mixture point cloud (`n × dim`) used directly as the
/// data matrix: attribute-graph learning with no simulated circuit.
fn point_cloud(n: usize, dim: usize, seed: u64) -> DenseMatrix {
    let mut rng = Rng::seed_from_u64(seed);
    let centers: Vec<Vec<f64>> = (0..4).map(|_| rng.normal_vec(dim)).collect();
    DenseMatrix::from_fn(n, dim, |i, j| {
        3.0 * centers[i % 4][j] + rng.standard_normal()
    })
}

struct Run {
    threads: usize,
    wall_s: f64,
    iterations: usize,
    edges: usize,
    converged: bool,
    solver: SolveStats,
    handles_built: usize,
    result: LearnResult,
}

/// Drive the session step by step, probing effective resistances after
/// every iteration (see the module docs), then finish with Step-5
/// scaling.
fn run_learn(scenario: &Scenario, config: &SglConfig, threads: usize) -> Run {
    let cfg = config.clone().with_parallelism(threads);
    let probes = sample_node_pairs(scenario.meas.num_nodes(), PROBES_PER_ITER, 0x9E0B);
    let (result, wall_s) = time(|| {
        let mut session = SglSession::new(cfg, &scenario.meas).expect("session");
        while !session.is_done() {
            session.step().expect("learning");
            if !session.is_done() {
                let _probe_sp = sgl_trace::span!("probe");
                let est = session.resistance_estimator().expect("estimator");
                est.resistances(&probes).expect("probes");
            }
        }
        session.finish().expect("finish")
    });
    Run {
        threads,
        wall_s,
        iterations: result.trace.len(),
        edges: result.graph.num_edges(),
        converged: result.converged,
        solver: result.solver_stats,
        handles_built: result.handles_built,
        result,
    }
}

/// Panic unless the two runs learned bit-identical graphs.
fn assert_identical(name: &str, a: &Run, b: &Run) {
    assert_eq!(
        a.result.graph.num_edges(),
        b.result.graph.num_edges(),
        "{name}: edge counts diverge across thread counts"
    );
    for (ea, eb) in a.result.graph.edges().iter().zip(b.result.graph.edges()) {
        assert_eq!(
            (ea.u, ea.v, ea.weight),
            (eb.u, eb.v, eb.weight),
            "{name}: learned graphs diverge across thread counts"
        );
    }
}

/// Solver-vs-solver-free (SF-SGL) strategy A/B on one scenario. The
/// solver-free arm reruns the identical convergence-driven config with
/// [`LearnStrategyKind::SolverFree`]: banded multilevel embeddings, a
/// CG-recurrence Step-5 scaling, truncated-spectrum resistances — no
/// factorization and no solver handle anywhere in the loop. Asserts the
/// zero-solve contract and thread-count determinism; eigenvalue
/// agreement with the solver arm is recorded per scenario and asserted
/// on the grid (the acceptance gate: ≤ 5% mean relative error over the
/// first 6 eigenvalues, correlation ≥ 0.99).
struct StrategyAb {
    name: &'static str,
    nodes: usize,
    solver_wall: f64,
    free: Run,
    eig_rel_err: f64,
    eig_corr: f64,
}

fn run_strategy_ab(
    scenario: &Scenario,
    config: &SglConfig,
    solver_run: &Run,
    threads: usize,
    assert_gate: bool,
) -> StrategyAb {
    let cfg = config.clone().with_strategy(LearnStrategyKind::SolverFree);
    let serial = run_learn(scenario, &cfg, 1);
    let parallel = run_learn(scenario, &cfg, threads);
    assert_identical(scenario.name, &serial, &parallel);
    for run in [&serial, &parallel] {
        assert_eq!(
            run.solver.solves, 0,
            "{}: solver-free arm solved a linear system",
            scenario.name
        );
        assert_eq!(
            run.handles_built, 0,
            "{}: solver-free arm built a solver handle",
            scenario.name
        );
    }
    let cmp = compare_spectra(&solver_run.result.graph, &serial.result.graph, 6)
        .expect("strategy A/B spectrum comparison");
    // The acceptance gate is asserted at the CI smoke size: at quick
    // scale the two arms walk near-identical trajectories, so spectral
    // drift means the solver-free machinery broke. At full size the
    // arms legitimately pick (slightly) different edge sets over many
    // more iterations, so agreement is recorded, not asserted.
    if assert_gate && scenario.name == "grid" {
        assert!(
            cmp.mean_relative_error < 0.05 && cmp.correlation > 0.99,
            "grid: solver-free spectrum drifted from the solver arm: {cmp:?}"
        );
    }
    StrategyAb {
        name: scenario.name,
        nodes: scenario.nodes,
        solver_wall: solver_run.wall_s,
        free: serial,
        eig_rel_err: cmp.mean_relative_error,
        eig_corr: cmp.correlation,
    }
}

/// Flat-vs-multilevel comparison on a convergence-driven grid run.
struct MultilevelBench {
    nodes: usize,
    level_sizes: Vec<usize>,
    coarsening_ratio: f64,
    flat_wall: f64,
    multi_wall: f64,
    flat_stats: SolveStats,
    multi_stats: SolveStats,
    flat_handles: usize,
    multi_handles: usize,
    flat_edges: usize,
    multi_edges: usize,
    eig_rel_err: f64,
    eig_corr: f64,
}

/// Panic unless two multilevel runs learned bit-identical hierarchies
/// and graphs.
fn assert_multilevel_identical(a: &MultilevelResult, b: &MultilevelResult) {
    assert_eq!(
        a.level_sizes, b.level_sizes,
        "multilevel: hierarchies diverge across thread counts"
    );
    assert_eq!(a.graph.num_edges(), b.graph.num_edges());
    for (ea, eb) in a.graph.edges().iter().zip(b.graph.edges()) {
        assert_eq!(
            (ea.u, ea.v, ea.weight),
            (eb.u, eb.v, eb.weight),
            "multilevel: learned graphs diverge across thread counts"
        );
    }
}

fn run_multilevel_bench(side: usize, threads: usize, m: usize) -> MultilevelBench {
    let coarsest = if side <= 48 { 64 } else { 1024 };
    let truth = sgl_datasets::grid2d(side, side);
    let nodes = truth.num_nodes();
    println!("\nmultilevel scenario: {side}x{side} grid ({nodes} nodes), M = {m}");
    let meas = Measurements::generate(&truth, m, 23).expect("multilevel measurements");
    // Convergence-driven (unlike the fixed-budget rows above) so the
    // eigenvalue agreement between the two pipelines is meaningful.
    let cfg = SglConfig::default()
        .with_tol(1e-6)
        .with_max_iterations(200)
        .with_parallelism(threads);
    let opts = MultilevelOptions {
        hierarchy: HierarchyOptions {
            coarsest_size: coarsest,
            ..HierarchyOptions::default()
        },
        ..MultilevelOptions::default()
    };

    let (flat, flat_wall) = time(|| {
        SglSession::new(cfg.clone(), &meas)
            .expect("flat session")
            .run()
            .expect("flat learn")
    });
    println!(
        "flat:       {:.2}s, {} edges, {} PCG iterations",
        flat_wall,
        flat.graph.num_edges(),
        flat.solver_stats.iterations
    );
    let (multi, multi_wall) =
        time(|| learn_multilevel(&cfg, &meas, &opts).expect("multilevel learn"));
    println!(
        "multilevel: {:.2}s, {} edges, {} PCG iterations, levels {:?}",
        multi_wall,
        multi.graph.num_edges(),
        multi.solver_stats.iterations,
        multi.level_sizes
    );
    // Determinism across thread counts: a guaranteed-serial rerun must
    // reproduce the hierarchy and the graph bit for bit.
    let serial = learn_multilevel(&cfg.clone().with_parallelism(1), &meas, &opts)
        .expect("serial multilevel learn");
    assert_multilevel_identical(&multi, &serial);
    println!("multilevel hierarchy identical at 1 and {threads} threads ✓");

    let cmp = compare_spectra(&flat.graph, &multi.graph, 6).expect("spectrum comparison");
    println!(
        "first-6 eigenvalues vs flat: mean relative error {:.4}, correlation {:.4}",
        cmp.mean_relative_error, cmp.correlation
    );
    MultilevelBench {
        nodes,
        level_sizes: multi.level_sizes.clone(),
        coarsening_ratio: cfg.coarsening_ratio,
        flat_wall,
        multi_wall,
        flat_stats: flat.solver_stats,
        multi_stats: multi.solver_stats,
        flat_handles: flat.handles_built,
        multi_handles: multi.handles_built,
        flat_edges: flat.graph.num_edges(),
        multi_edges: multi.graph.num_edges(),
        eig_rel_err: cmp.mean_relative_error,
        eig_corr: cmp.correlation,
    }
}

/// The resilience arm: interrupt/checkpoint/restore plus a seeded-fault
/// rerun, both on the grid scenario against its fault-free serial row.
struct ResilienceBench {
    nodes: usize,
    /// Iteration at which the session was checkpointed.
    checkpoint_iteration: usize,
    checkpoint_bytes: u64,
    checkpoint_write_s: f64,
    restore_s: f64,
    /// Restore-then-continue learned the same graph, bit for bit, as
    /// the uninterrupted continuation.
    resumed: bool,
    /// Faults the seeded plan actually fired.
    faults_injected: usize,
    fault_kinds: Vec<&'static str>,
    fallbacks_taken: usize,
    /// Per-iteration resistance probes dropped because an injected
    /// fault surfaced through the telemetry path (learning continued).
    probe_failures: usize,
    fault_run_converged: bool,
    /// Max relative weight drift of the faulted run vs. the fault-free
    /// reference (identical edge sets asserted).
    max_weight_rel_diff: f64,
}

fn run_resilience_bench(
    scenario: &Scenario,
    config: &SglConfig,
    reference: &Run,
    fault_seed: u64,
) -> ResilienceBench {
    let cfg = config.clone().with_parallelism(1);

    // --- Interrupt & resume -------------------------------------------
    // Step a session partway, checkpoint it, and race the continuation
    // against a restore-from-disk. Both must finish bit-identical.
    let mut live = SglSession::new(cfg.clone(), &scenario.meas).expect("session");
    let checkpoint_iteration = 3usize;
    for _ in 0..checkpoint_iteration {
        if live.is_done() {
            break;
        }
        live.step().expect("pre-checkpoint step");
    }
    let ckpt = repro_dir().join("bench_learn_interrupt.sglck");
    let ((), checkpoint_write_s) = time(|| live.checkpoint(&ckpt).expect("checkpoint"));
    let checkpoint_bytes = std::fs::metadata(&ckpt).map(|m| m.len()).unwrap_or(0);
    let (restored, restore_s) = time(|| SglSession::restore(&ckpt, cfg.clone()).expect("restore"));
    let mut restored = restored;
    live.run_to_completion().expect("continue after checkpoint");
    restored.run_to_completion().expect("resume from disk");
    let continued = live.finish().expect("finish continued");
    let resumed_result = restored.finish().expect("finish resumed");
    std::fs::remove_file(&ckpt).ok();
    let resumed = continued.graph.num_edges() == resumed_result.graph.num_edges()
        && continued
            .graph
            .edges()
            .iter()
            .zip(resumed_result.graph.edges())
            .all(|(a, b)| (a.u, a.v) == (b.u, b.v) && a.weight.to_bits() == b.weight.to_bits())
        && continued.trace == resumed_result.trace
        && continued.scale_factor.map(f64::to_bits)
            == resumed_result.scale_factor.map(f64::to_bits);
    assert!(
        resumed,
        "grid: restore-from-checkpoint diverged from the uninterrupted continuation"
    );

    // --- Seeded-fault run ---------------------------------------------
    // The standard seeded schedule fires on the run's solves, the
    // probes' included. Probes that a fault reaches are dropped and
    // counted; learning itself recovers by retrying the step on a fresh
    // handle and must land on the fault-free graph.
    let plan = std::sync::Arc::new(FaultPlan::seeded(fault_seed));
    let probes = sample_node_pairs(scenario.meas.num_nodes(), PROBES_PER_ITER, 0x9E0B);
    let mut probe_failures = 0usize;
    let mut session = SglSession::new(cfg, &scenario.meas).expect("faulted session");
    session.set_fault_plan(std::sync::Arc::clone(&plan));
    while !session.is_done() {
        session.step().expect("faulted learning");
        if !session.is_done() {
            let _probe_sp = sgl_trace::span!("probe");
            let probed = session
                .resistance_estimator()
                .and_then(|est| est.resistances(&probes));
            if probed.is_err() {
                probe_failures += 1;
            }
        }
    }
    let faulted = session.finish().expect("faulted finish");
    assert_eq!(
        faulted.graph.num_edges(),
        reference.result.graph.num_edges(),
        "grid: faulted run learned a different edge count"
    );
    let mut max_rel = 0.0f64;
    for (ea, eb) in reference
        .result
        .graph
        .edges()
        .iter()
        .zip(faulted.graph.edges())
    {
        assert_eq!(
            (ea.u, ea.v),
            (eb.u, eb.v),
            "grid: faulted run learned a different topology"
        );
        max_rel = max_rel.max((ea.weight - eb.weight).abs() / ea.weight.abs().max(1e-300));
    }
    assert!(
        max_rel <= 1e-6,
        "grid: faulted run drifted {max_rel:.3e} past the 1e-6 equivalence gate"
    );
    assert!(
        plan.injected_count() >= 1,
        "grid: the seeded fault plan never fired — no solver traffic reached it"
    );

    ResilienceBench {
        nodes: scenario.nodes,
        checkpoint_iteration,
        checkpoint_bytes,
        checkpoint_write_s,
        restore_s,
        resumed,
        faults_injected: plan.injected_count(),
        fault_kinds: plan.injected().iter().map(|e| e.kind.as_str()).collect(),
        fallbacks_taken: faulted.fallbacks_taken,
        probe_failures,
        fault_run_converged: faulted.converged,
        max_weight_rel_diff: max_rel,
    }
}

/// The leaf phases of one learn run — span names that hold real work and
/// nest inside none of the others, so their durations partition the
/// wall-clock without double counting (parents like `iteration` are
/// excluded, and Step 1 counts once as `knn_build`, not as its
/// `knn_search`/`knn_repair` children).
const LEAF_PHASES: &[&str] = &[
    "knn_build",
    "init",
    "score",
    "densify",
    "embed",
    "probe",
    "finish_embed",
    "scale",
];

/// The observability arm: a traced rerun of the grid scenario proving
/// the tracing contracts — the learned graph is bit-identical with the
/// recorder on (at 1 and N threads), the per-phase breakdown accounts
/// for the run's wall-clock, and the instrumentation left compiled into
/// the hot paths costs under 1% of the serial wall when disabled.
struct TraceBench {
    phases: Vec<sgl_trace::PhaseTotal>,
    /// Wall-clock of the traced serial run the phases partition.
    wall_s: f64,
    /// Sum of leaf-phase durations over `wall_s`.
    coverage: f64,
    events: usize,
    disabled_ns_per_span: f64,
    /// Disabled-path cost of all events a run records, as a percentage
    /// of the untraced serial wall — the "zero-overhead" budget.
    est_overhead_pct: f64,
    untraced_wall_s: f64,
}

fn run_trace_bench(
    scenario: &Scenario,
    config: &SglConfig,
    untraced_serial: &Run,
    untraced_parallel: &Run,
    threads: usize,
    trace_out: Option<&std::path::Path>,
) -> TraceBench {
    // Disabled-path cost per span site: one relaxed atomic load and an
    // inert guard. Measured directly so the budget below is the real
    // per-event price on this host, not a guess.
    assert!(
        !sgl_trace::enabled(),
        "trace bench must start with the recorder off"
    );
    let reps: u64 = 4_000_000;
    let ((), probe_wall) = time(|| {
        for _ in 0..reps {
            let g = sgl_trace::span("trace_noop");
            std::hint::black_box(&g);
        }
    });
    let disabled_ns_per_span = probe_wall * 1e9 / reps as f64;

    // Traced rerun, serial and parallel: tracing must never touch the
    // deterministic control path, so the learned graphs have to match
    // the untraced rows bit for bit.
    sgl_trace::clear();
    sgl_trace::reset_metrics();
    sgl_trace::enable();
    let traced_serial = run_learn(scenario, config, 1);
    let events = sgl_trace::take_events();
    let traced_parallel = run_learn(scenario, config, threads);
    sgl_trace::disable();
    sgl_trace::clear();
    assert_identical("grid-traced-serial", untraced_serial, &traced_serial);
    assert_identical("grid-traced-parallel", untraced_parallel, &traced_parallel);
    println!(
        "\ntrace: learned graphs bit-identical with the recorder on, 1 and {threads} threads ✓"
    );

    let phases = sgl_trace::phase_totals(&events, LEAF_PHASES);
    let phase_total_s: f64 = phases.iter().map(|p| p.total_ns as f64 / 1e9).sum();
    let coverage = phase_total_s / traced_serial.wall_s;
    for p in &phases {
        println!(
            "trace: {:>12}  {:>9.4}s  {:>5.1}%  ({} spans)",
            p.name,
            p.total_ns as f64 / 1e9,
            p.total_ns as f64 / 1e9 / traced_serial.wall_s * 100.0,
            p.count
        );
    }
    println!(
        "trace: leaf phases cover {:.1}% of the {:.3}s traced wall ({} events)",
        coverage * 100.0,
        traced_serial.wall_s,
        events.len()
    );
    assert!(
        (0.95..=1.05).contains(&coverage),
        "phase breakdown covers {:.1}% of the wall-clock; \
         the leaf spans no longer partition the run",
        coverage * 100.0
    );

    // The budget: every event the traced run recorded exists as a span
    // or instant site the untraced run also passes through. Disabled,
    // each costs `disabled_ns_per_span`; the total must stay under 1%
    // of the untraced serial wall.
    let est_overhead_pct =
        disabled_ns_per_span * events.len() as f64 / (untraced_serial.wall_s * 1e9) * 100.0;
    println!(
        "trace: disabled span costs {disabled_ns_per_span:.2}ns; {} events over a {:.3}s run \
         = {est_overhead_pct:.4}% disabled overhead (budget 1%)",
        events.len(),
        untraced_serial.wall_s
    );
    assert!(
        est_overhead_pct < 1.0,
        "disabled tracing costs {est_overhead_pct:.3}% of the serial wall (budget 1%)"
    );

    if let Some(path) = trace_out {
        sgl_trace::write_chrome_trace(path, &events).expect("write chrome trace");
        let folded = path.with_extension("folded");
        std::fs::write(&folded, sgl_trace::folded_stacks(&events)).expect("write folded stacks");
        println!("wrote {} and {}", path.display(), folded.display());
    }

    TraceBench {
        phases,
        wall_s: traced_serial.wall_s,
        coverage,
        events: events.len(),
        disabled_ns_per_span,
        est_overhead_pct,
        untraced_wall_s: untraced_serial.wall_s,
    }
}

/// Extract the sorted set of JSON object keys (`"key":`) — the schema
/// fingerprint the CI smoke run diffs against the tracked snapshot.
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

fn main() {
    let args = Args::from_env();
    let quick = args.has("quick");
    let threads: usize = args.get("threads", par::max_threads().max(2));
    let m: usize = args.get("m", if quick { 15 } else { 30 });
    let iters: usize = args.get("iters", if quick { 40 } else { 60 });
    let tol: f64 = args.get("tol", 1e-4);
    let ml_side: usize = args.get("ml-side", if quick { 40 } else { 224 });
    let fault_seed: u64 = args.get("fault-seed", 42);
    // The deterministic par layer is happy to oversubscribe (the
    // determinism contract is thread-count independent), but record the
    // host's real parallelism so the tracked timings are interpretable.
    let effective_threads = threads.min(par::max_threads());
    if threads > par::max_threads() {
        sgl_trace::warn!(
            "{threads} worker threads requested but the host has only {} cores; \
             parallel arms will oversubscribe (effective_threads = {effective_threads})",
            par::max_threads()
        );
    }
    banner(
        "BENCH learn",
        "full learning loop at 1 thread vs N threads, with per-iteration resistance probes",
        &[
            ("threads", threads.to_string()),
            ("effective_threads", effective_threads.to_string()),
            ("M", m.to_string()),
            ("iters", iters.to_string()),
            ("tol", format!("{tol:.0e}")),
            ("ml_side", ml_side.to_string()),
            ("probes", PROBES_PER_ITER.to_string()),
            ("host_cores", par::max_threads().to_string()),
        ],
    );

    // Convergence-driven: a real tolerance under a generous iteration
    // cap, so each row's stop verdict is meaningful (and asserted below)
    // instead of every scenario reporting "max-iterations".
    let config = SglConfig::default()
        .with_tol(tol)
        .with_max_iterations(iters)
        .with_scale_edges(true);

    let (grid_side, delaunay_n, cloud_n) = if quick {
        (24, 600, 500)
    } else {
        (100, 4000, 2500)
    };
    let mut scenarios = Vec::new();
    {
        let truth = sgl_datasets::grid2d(grid_side, grid_side);
        scenarios.push(Scenario {
            name: "grid",
            nodes: truth.num_nodes(),
            meas: Measurements::generate(&truth, m, 7).expect("grid measurements"),
        });
    }
    {
        let truth = delaunay_graph(delaunay_n, 11);
        scenarios.push(Scenario {
            name: "delaunay",
            nodes: truth.num_nodes(),
            meas: Measurements::generate(&truth, m, 13).expect("delaunay measurements"),
        });
    }
    {
        let cloud = point_cloud(cloud_n, m, 17);
        scenarios.push(Scenario {
            name: "knn-cloud",
            nodes: cloud_n,
            meas: Measurements::from_voltages(cloud).expect("cloud measurements"),
        });
    }

    let mut table = Table::new(&[
        "scenario",
        "nodes",
        "threads",
        "wall_s",
        "speedup",
        "iters",
        "edges",
        "pcg_iters",
        "handles",
    ]);
    let mut rows = Vec::new();
    for sc in &scenarios {
        let serial = run_learn(sc, &config, 1);
        let parallel = run_learn(sc, &config, threads);
        assert_identical(sc.name, &serial, &parallel);
        println!(
            "{}: learned graphs identical at 1 and {} threads ✓",
            sc.name, threads
        );
        // The stop contract: a convergence-driven run must land on a
        // genuine verdict. In quick mode the scenarios are small enough
        // that the cap must never be the reason the loop stopped.
        for run in [&serial, &parallel] {
            assert_ne!(
                run.result.stop_verdict,
                StopVerdict::InProgress,
                "{}: session finished while still in progress",
                sc.name
            );
            if quick {
                assert!(
                    matches!(
                        run.result.stop_verdict,
                        StopVerdict::Converged
                            | StopVerdict::CandidatesExhausted
                            | StopVerdict::Stalled
                    ),
                    "{}: small scenario stopped on {:?} instead of converging",
                    sc.name,
                    run.result.stop_verdict
                );
            }
        }
        for run in [serial, parallel] {
            let speedup = rows
                .iter()
                .find(|r: &&(&str, usize, Run)| r.0 == sc.name && r.2.threads == 1)
                .map(|r| r.2.wall_s / run.wall_s)
                .unwrap_or(1.0);
            table.row(&[
                sc.name.to_string(),
                sc.nodes.to_string(),
                run.threads.to_string(),
                fix(run.wall_s, 3),
                fix(speedup, 2),
                run.iterations.to_string(),
                run.edges.to_string(),
                run.solver.iterations.to_string(),
                run.handles_built.to_string(),
            ]);
            rows.push((sc.name, sc.nodes, run));
        }
    }
    table.print();

    // Strategy A/B: the solver-free (SF-SGL) arm against the solver rows
    // above, same config, per scenario. Serial + N-thread runs with the
    // zero-solve and determinism contracts asserted inside.
    let mut strategy_abs = Vec::new();
    for sc in &scenarios {
        let solver_serial = &rows
            .iter()
            .find(|r| r.0 == sc.name && r.2.threads == 1)
            .expect("serial solver row")
            .2;
        let ab = run_strategy_ab(sc, &config, solver_serial, threads, quick);
        println!(
            "\nsolver-free ({}, {} nodes): {:.3}s vs solver {:.3}s, {} iterations, \
             0 solves / 0 handles ✓, eig rel err {:.4}, corr {:.4}",
            ab.name,
            ab.nodes,
            ab.free.wall_s,
            ab.solver_wall,
            ab.free.iterations,
            ab.eig_rel_err,
            ab.eig_corr
        );
        strategy_abs.push(ab);
    }

    let ml = run_multilevel_bench(ml_side, threads, m);

    // Resilience arm: interrupt/resume + seeded faults on the grid
    // scenario, against its fault-free serial row.
    let grid_serial = &rows
        .iter()
        .find(|r| r.0 == "grid" && r.2.threads == 1)
        .expect("serial grid row")
        .2;
    let res = run_resilience_bench(&scenarios[0], &config, grid_serial, fault_seed);
    println!(
        "\nresilience (grid, {} nodes): checkpoint at iteration {} ({} bytes, {:.4}s write, \
         {:.4}s restore), resumed bit-identical ✓; seeded faults (seed {fault_seed}): \
         {} injected [{}], {} fallbacks, {} probes dropped, \
         max weight drift {:.2e} vs fault-free ✓",
        res.nodes,
        res.checkpoint_iteration,
        res.checkpoint_bytes,
        res.checkpoint_write_s,
        res.restore_s,
        res.faults_injected,
        res.fault_kinds.join(", "),
        res.fallbacks_taken,
        res.probe_failures,
        res.max_weight_rel_diff,
    );

    // Observability arm: traced grid rerun (bit-identity + phase
    // breakdown) and the disabled-path overhead budget. `--trace PATH`
    // additionally exports the Chrome trace and folded stacks.
    let trace_path = {
        let flag = args.get("trace", String::new());
        (!flag.is_empty()).then(|| std::path::PathBuf::from(flag))
    };
    let grid_parallel = &rows
        .iter()
        .find(|r| r.0 == "grid" && r.2.threads == threads)
        .expect("parallel grid row")
        .2;
    let tb = run_trace_bench(
        &scenarios[0],
        &config,
        grid_serial,
        grid_parallel,
        threads,
        trace_path.as_deref(),
    );

    // Hand-rolled JSON (no serde in the offline image).
    let mut json = String::from("{\n  \"bench\": \"learn\",\n");
    json.push_str(&format!("  \"host_cores\": {},\n", par::max_threads()));
    json.push_str(&format!("  \"effective_threads\": {effective_threads},\n"));
    json.push_str(&format!(
        "  \"args\": \"threads={threads} m={m} iters={iters} tol={tol:e} ml_side={ml_side} \
         fault_seed={fault_seed} quick={quick}\",\n"
    ));
    json.push_str(&format!("  \"probes_per_iteration\": {PROBES_PER_ITER},\n"));
    json.push_str(&format!("  \"threads\": {threads},\n  \"rows\": [\n"));
    for (i, (name, nodes, run)) in rows.iter().enumerate() {
        let t1 = rows
            .iter()
            .find(|r| r.0 == *name && r.2.threads == 1)
            .map(|r| r.2.wall_s)
            .unwrap_or(run.wall_s);
        json.push_str(&format!(
            "    {{\"scenario\": \"{}\", \"nodes\": {}, \"threads\": {}, \
             \"wall_s\": {:.9}, \"speedup_vs_serial\": {:.4}, \"iterations\": {}, \
             \"edges\": {}, \"converged\": {}, \"stop_reason\": \"{}\", \"solver_solves\": {}, \
             \"solver_pcg_iterations\": {}, \"solver_last_residual\": {:.3e}, \
             \"handles_built\": {}}}{}\n",
            name,
            nodes,
            run.threads,
            run.wall_s,
            t1 / run.wall_s,
            run.iterations,
            run.edges,
            run.converged,
            run.result.stop_verdict.as_str(),
            run.solver.solves,
            run.solver.iterations,
            run.solver.last_relative_residual,
            run.handles_built,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n  \"strategy_ab\": [\n");
    for (i, ab) in strategy_abs.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"scenario\": \"{}\", \"nodes\": {}, \"strategy\": \"solver-free\", \
             \"wall_s_solver\": {:.9}, \"wall_s_solver_free\": {:.9}, \"iterations\": {}, \
             \"edges\": {}, \"converged\": {}, \"stop_reason\": \"{}\", \
             \"solver_solves\": {}, \"handles_built\": {}, \
             \"eig_rel_err_vs_solver\": {}, \"eig_corr_vs_solver\": {:.6}, \
             \"bit_identical_across_threads\": true}}{}\n",
            ab.name,
            ab.nodes,
            ab.solver_wall,
            ab.free.wall_s,
            ab.free.iterations,
            ab.free.edges,
            ab.free.converged,
            ab.free.result.stop_verdict.as_str(),
            ab.free.solver.solves,
            ab.free.handles_built,
            sci(ab.eig_rel_err),
            ab.eig_corr,
            if i + 1 < strategy_abs.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    let levels: Vec<String> = ml.level_sizes.iter().map(|s| s.to_string()).collect();
    json.push_str(&format!(
        "  \"multilevel\": {{\"scenario\": \"grid\", \"nodes\": {}, \
         \"levels\": {}, \"level_sizes\": [{}], \"coarsening_ratio\": {}, \
         \"wall_s_flat\": {:.9}, \"wall_s_multilevel\": {:.9}, \
         \"pcg_iterations_flat\": {}, \"pcg_iterations_multilevel\": {}, \
         \"solves_flat\": {}, \"solves_multilevel\": {}, \
         \"handles_built_flat\": {}, \"handles_built_multilevel\": {}, \
         \"edges_flat\": {}, \"edges_multilevel\": {}, \
         \"eig_rel_err_vs_flat\": {}, \"eig_corr_vs_flat\": {:.6}, \
         \"bit_identical_across_threads\": true}},\n",
        ml.nodes,
        ml.level_sizes.len(),
        levels.join(", "),
        ml.coarsening_ratio,
        ml.flat_wall,
        ml.multi_wall,
        ml.flat_stats.iterations,
        ml.multi_stats.iterations,
        ml.flat_stats.solves,
        ml.multi_stats.solves,
        ml.flat_handles,
        ml.multi_handles,
        ml.flat_edges,
        ml.multi_edges,
        sci(ml.eig_rel_err),
        ml.eig_corr,
    ));
    json.push_str("  \"phase_breakdown\": {\"scenario\": \"grid\", ");
    json.push_str(&format!(
        "\"wall_s\": {:.9}, \"coverage\": {:.4}, \"events\": {}, \"phases\": [\n",
        tb.wall_s, tb.coverage, tb.events
    ));
    for (i, p) in tb.phases.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"phase\": \"{}\", \"total_s\": {:.9}, \"share\": {:.4}, \"spans\": {}}}{}\n",
            p.name,
            p.total_ns as f64 / 1e9,
            p.total_ns as f64 / 1e9 / tb.wall_s,
            p.count,
            if i + 1 < tb.phases.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]},\n");
    json.push_str(&format!(
        "  \"trace_overhead\": {{\"disabled_ns_per_span\": {:.3}, \"events_per_run\": {}, \
         \"disabled_overhead_pct\": {:.6}, \"wall_s_untraced\": {:.9}, \
         \"wall_s_traced\": {:.9}, \"bit_identical_traced_vs_untraced\": true}},\n",
        tb.disabled_ns_per_span, tb.events, tb.est_overhead_pct, tb.untraced_wall_s, tb.wall_s,
    ));
    let kinds: Vec<String> = res.fault_kinds.iter().map(|k| format!("\"{k}\"")).collect();
    json.push_str(&format!(
        "  \"resilience\": {{\"scenario\": \"grid\", \"nodes\": {}, \"fault_seed\": {}, \
         \"checkpoint_iteration\": {}, \"checkpoint_bytes\": {}, \
         \"checkpoint_write_s\": {:.9}, \"restore_s\": {:.9}, \"resumed\": {}, \
         \"faults_injected\": {}, \"fault_kinds\": [{}], \
         \"fallbacks_taken\": {}, \"probe_failures\": {}, \"fault_run_converged\": {}, \
         \"max_weight_rel_diff\": {}, \"graphs_equivalent\": true}}\n",
        res.nodes,
        fault_seed,
        res.checkpoint_iteration,
        res.checkpoint_bytes,
        res.checkpoint_write_s,
        res.restore_s,
        res.resumed,
        res.faults_injected,
        kinds.join(", "),
        res.fallbacks_taken,
        res.probe_failures,
        res.fault_run_converged,
        sci(res.max_weight_rel_diff),
    ));
    json.push_str("}\n");
    let path = repro_dir().join("BENCH_learn.json");
    let mut f = std::fs::File::create(&path).expect("create BENCH_learn.json");
    f.write_all(json.as_bytes())
        .expect("write BENCH_learn.json");
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
            "BENCH_learn.json schema drifted from the tracked snapshot {tracked}; \
             regenerate and commit it alongside the change"
        );
        println!("schema matches tracked snapshot {tracked} ✓");
    }
}
