//! Offline solver-layer benchmark: `solve_batch` vs sequential `solve`
//! across methods, plus handle-setup cost — emitted as
//! `target/repro/BENCH_solver.json` for CI trend tracking.
//!
//! Usage: `bench_solver [--side 32] [--m 32] [--reps 5] [--quick]`

use sgl_bench::{banner, repro_dir, Args, Table};
use sgl_linalg::{vecops, Rng};
use sgl_solver::{PolicyMethod, SolverPolicy};
use std::io::Write;
use std::time::Instant;

fn rhs_batch(n: usize, m: usize, seed: u64) -> Vec<Vec<f64>> {
    let mut rng = Rng::seed_from_u64(seed);
    (0..m)
        .map(|_| {
            let mut b = rng.normal_vec(n);
            vecops::project_out_mean(&mut b);
            b
        })
        .collect()
}

/// Best-of-`reps` wall-clock seconds.
fn best_of(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_secs_f64());
    }
    best
}

struct Row {
    method: PolicyMethod,
    nodes: usize,
    rhs: usize,
    setup_s: f64,
    batch_s: f64,
    sequential_s: f64,
}

fn main() {
    let args = Args::from_env();
    let side: usize = args.get("side", if args.has("quick") { 16 } else { 32 });
    let m: usize = args.get("m", 32);
    let reps: usize = args.get("reps", 5);
    banner(
        "BENCH solver",
        "solve_batch vs sequential solve per method",
        &[
            ("side", side.to_string()),
            ("M", m.to_string()),
            ("reps", reps.to_string()),
        ],
    );

    let g = sgl_datasets::grid2d(side, side);
    let n = g.num_nodes();
    let rhs = rhs_batch(n, m, 5);
    let mut rows = Vec::new();
    for method in [
        PolicyMethod::Auto,
        PolicyMethod::TreePcg,
        PolicyMethod::AmgPcg,
        PolicyMethod::DenseCholesky,
    ] {
        let policy = SolverPolicy {
            dense_max_nodes: 0,
            ..SolverPolicy::default().with_method(method)
        };
        let setup_s = best_of(reps, || {
            policy.build_handle(&g).unwrap();
        });
        let handle = policy.build_handle(&g).unwrap();
        let batch_s = best_of(reps, || {
            handle.solve_batch(&rhs).unwrap();
        });
        let sequential_s = best_of(reps, || {
            for b in &rhs {
                handle.solve(b).unwrap();
            }
        });
        rows.push(Row {
            method,
            nodes: n,
            rhs: m,
            setup_s,
            batch_s,
            sequential_s,
        });
    }

    let mut table = Table::new(&["method", "N", "M", "setup_s", "batch_s", "sequential_s"]);
    for r in &rows {
        table.row(&[
            format!("{:?}", r.method),
            r.nodes.to_string(),
            r.rhs.to_string(),
            format!("{:.6}", r.setup_s),
            format!("{:.6}", r.batch_s),
            format!("{:.6}", r.sequential_s),
        ]);
    }
    table.print();

    // Hand-rolled JSON (no serde in the offline image).
    let mut json = String::from("{\n  \"bench\": \"solver\",\n  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"method\": \"{:?}\", \"nodes\": {}, \"rhs\": {}, \
             \"setup_s\": {:.9}, \"batch_s\": {:.9}, \"sequential_s\": {:.9}}}{}\n",
            r.method,
            r.nodes,
            r.rhs,
            r.setup_s,
            r.batch_s,
            r.sequential_s,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    let path = repro_dir().join("BENCH_solver.json");
    let mut f = std::fs::File::create(&path).expect("create BENCH_solver.json");
    f.write_all(json.as_bytes())
        .expect("write BENCH_solver.json");
    println!("\nwrote {}", path.display());
}
