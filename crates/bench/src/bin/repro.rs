//! The paper's claims, executable: one table with a row per claim of
//! Figs. 1–11 of SGL (Feng, DAC 2021).
//!
//! A row holds the figure, the paper's statement, the metric measured
//! here, the paper's bound, the measured value and a status: `pass` or
//! `fail` against the bound, or `report` when the figure states no
//! number. Bounds are never tuned to a result, so a claim that does not
//! reproduce stays in the table as `fail`. (SF-SGL's spectrum claim is
//! gated by the `strategy_ab` rows of `bench_learn`.)
//!
//! Full scale is the default; `--quick` runs the reduced scales CI uses.
//! The table is printed and written to `target/repro/BENCH_repro.json`.
//! `--against PATH` reads a tracked table (the quick one is committed as
//! `BENCH_repro.json` at the repo root) and exits 1 when a claim that
//! passes there is missing from this run or no longer passes, or when
//! the two tables come from different modes. `fail` and `report` rows
//! never gate.
//!
//! Usage: `repro [--quick] [--against PATH]`

use std::process::ExitCode;

use sgl_baseline::knn_baseline;
use sgl_bench::{repro_dir, time};
use sgl_core::{
    learn_reduced, objective, pairwise_effective_resistances, sample_node_pairs,
    smallest_nonzero_eigenvalues, LearnResult, Measurements, ObjectiveOptions, Sgl, SglConfig,
};
use sgl_datasets::{grid2d, TestCase};
use sgl_graph::Graph;
use sgl_knn::build_knn_graph;
use sgl_linalg::vecops::pearson;
use sgl_net::json::{self, Json};

/// Convergence tolerance of every learn that runs to convergence.
const TOL: f64 = 1e-12;

/// How a measured value must compare with the paper's number.
#[derive(Clone, Copy)]
enum Cmp {
    AtMost,
    Below,
    AtLeast,
    Above,
}

impl Cmp {
    fn symbol(self) -> &'static str {
        match self {
            Cmp::AtMost => "<=",
            Cmp::Below => "<",
            Cmp::AtLeast => ">=",
            Cmp::Above => ">",
        }
    }

    /// Whether `value` keeps the bound; NaN never does.
    fn holds(self, value: f64, bound: f64) -> bool {
        match self {
            Cmp::AtMost => value <= bound,
            Cmp::Below => value < bound,
            Cmp::AtLeast => value >= bound,
            Cmp::Above => value > bound,
        }
    }
}

/// One claim of the paper and how it is measured here.
struct Claim {
    id: &'static str,
    /// The paper's bound; `None` when the figure states no number.
    bound: Option<(Cmp, f64)>,
    statement: &'static str,
    metric: &'static str,
}

const FIG07: &str = "resistance scatters hug the diagonal (no number)";
const ER_CORR: &str = "Pearson of 300 exact pair resistances";

/// Every row of the table, in figure order. The bounds are the numbers
/// the paper quotes; never change one after seeing a value.
#[rustfmt::skip]
const CLAIMS: &[Claim] = &[
    Claim { id: "fig01.iterations", bound: Some((Cmp::AtMost, 40.0)),
        statement: "s_max reaches 1e-12 in ~40 iterations",
        metric: "iterations until converged (inf if not)" },
    Claim { id: "fig02.objective", bound: Some((Cmp::Above, 0.0)),
        statement: "SGL ends at a higher objective than 5NN",
        metric: "F(last unscaled iterate) - F(raw 5NN)" },
    Claim { id: "fig02.objective_scaled", bound: None,
        statement: "(none)", metric: "the same difference after Step 5 on both" },
    Claim { id: "fig02.density_ratio", bound: Some((Cmp::AtMost, 1.09 / 2.89)),
        statement: "SGL ends at ~1/3 of 5NN's density (1.09 vs 2.89)",
        metric: "density SGL / 5NN" },
    Claim { id: "fig03.eig_error_ratio", bound: Some((Cmp::Below, 1.0)),
        statement: "SGL tracks the true eigenvalues; 5NN overshoots",
        metric: "mean rel. error of 30 eigenvalues, SGL / 5NN" },
    Claim { id: "fig04.density", bound: Some((Cmp::AtMost, 1.04)),
        statement: "airfoil: density 2.89 -> ~1.04", metric: "learned density" },
    Claim { id: "fig05.density", bound: Some((Cmp::AtMost, 1.03)),
        statement: "crack: density 2.97 -> ~1.03", metric: "learned density" },
    Claim { id: "fig06.eig_corr", bound: None,
        statement: "G2_circuit eigenvalue scatter (no number)",
        metric: "Pearson of 30 eigenvalues" },
    Claim { id: "fig07.er_corr.2D_mesh", bound: None, statement: FIG07, metric: ER_CORR },
    Claim { id: "fig07.er_corr.airfoil", bound: None, statement: FIG07, metric: ER_CORR },
    Claim { id: "fig07.er_corr.fe_4elt2", bound: None, statement: FIG07, metric: ER_CORR },
    Claim { id: "fig07.er_corr.crack", bound: None, statement: FIG07, metric: ER_CORR },
    Claim { id: "fig08.corr_5x", bound: Some((Cmp::AtLeast, 0.999)),
        statement: "5x reduced network: eigenvalue corr 0.999",
        metric: "Pearson of 25 eigenvalues" },
    Claim { id: "fig08.corr_10x", bound: Some((Cmp::AtLeast, 0.994)),
        statement: "10x reduced network: eigenvalue corr 0.994",
        metric: "Pearson of 25 eigenvalues" },
    Claim { id: "fig09.eig_corr_50pct", bound: None,
        statement: "even 50% noise preserves the first eigenvalues (no number)",
        metric: "Pearson of 25 eigenvalues at zeta = 0.5" },
    Claim { id: "fig10.eig_error_ratio", bound: Some((Cmp::Below, 1.0)),
        statement: "the scatter tightens from M = 5 to M = 50",
        metric: "mean rel. error of 25 eigenvalues, M = 50 / M = 5" },
    Claim { id: "fig11.cost_spread", bound: None,
        statement: "near-linear runtime in the node count (no number)",
        metric: "max / min seconds per node-iteration" },
];

/// A claim with its measured value.
struct Row {
    claim: &'static Claim,
    value: f64,
}

impl Row {
    fn status(&self) -> &'static str {
        match self.claim.bound {
            None => "report",
            Some((cmp, bound)) if cmp.holds(self.value, bound) => "pass",
            Some(_) => "fail",
        }
    }
}

/// Measured values keyed by claim id.
type Values = Vec<(String, f64)>;

/// The run of one or two figures at quick (`true`) or full scale.
type Figure = fn(bool) -> Values;

/// Side of the square mesh at `scale` × the paper's 10,000 nodes.
fn mesh_side(scale: f64) -> usize {
    ((10_000.0 * scale).sqrt().round() as usize).max(8)
}

/// Algorithm 1 to [`TOL`] under an iteration cap.
fn learn(meas: &Measurements, max_iterations: usize) -> LearnResult {
    let config = SglConfig::default()
        .with_tol(TOL)
        .with_max_iterations(max_iterations);
    Sgl::new(config).learn(meas).expect("learning")
}

/// The `k` smallest nonzero Laplacian eigenvalues.
fn eigs(graph: &Graph, k: usize) -> Vec<f64> {
    smallest_nonzero_eigenvalues(graph, k).expect("eigenvalues")
}

/// Mean of `|got − truth| / truth` over the pairs.
fn mean_rel_err(truth: &[f64], got: &[f64]) -> f64 {
    let sum: f64 = truth.iter().zip(got).map(|(t, g)| (g - t).abs() / t).sum();
    sum / truth.len() as f64
}

/// A paper test case at `scale`, learned from 100 measurements (Figs.
/// 4–7).
fn learn_case(case: TestCase, scale: f64) -> (Graph, LearnResult) {
    let truth = case.generate_scaled(scale, 11);
    let meas = Measurements::generate(&truth, 100, 7).expect("measurements");
    (truth, learn(&meas, 200))
}

/// Fig. 1: the maximum sensitivity's descent on the 2D mesh.
fn fig01(quick: bool) -> Values {
    let side = mesh_side(if quick { 0.04 } else { 1.0 });
    let meas = Measurements::generate(&grid2d(side, side), 50, 42).expect("measurements");
    let result = learn(&meas, 300);
    let iterations = if result.converged {
        result.trace.len() as f64
    } else {
        f64::INFINITY
    };
    vec![("fig01.iterations".into(), iterations)]
}

/// Figs. 2 and 3: one SGL learn against the 5NN baseline on fe_4elt2.
fn fig02_03(quick: bool) -> Values {
    let truth = TestCase::Fe4elt2.generate_scaled(if quick { 0.04 } else { 0.3 }, 11);
    let meas = Measurements::generate(&truth, 50, 7).expect("measurements");
    let sgl = learn(&meas, 200);
    let (knn, _) = knn_baseline(&meas, 5).expect("5NN baseline");
    let opts = ObjectiveOptions::default();
    let f = |g: &Graph| objective(g, &meas, &opts).expect("objective").total;
    // Algorithm 1 densifies on the raw kNN weights and rescales once at
    // the end, so the unscaled endpoint is held against the raw 5NN
    // graph, and the Step-5 endpoint against the scaled baseline.
    let last = sgl
        .graph_at_iteration(sgl.trace.len() - 1)
        .expect("last iterate");
    let truth_eigs = eigs(&truth, 30);
    let sgl_err = mean_rel_err(&truth_eigs, &eigs(&sgl.graph, 30));
    let knn_err = mean_rel_err(&truth_eigs, &eigs(&knn, 30));
    vec![
        ("fig02.objective".into(), f(&last) - f(&sgl.knn_graph)),
        ("fig02.objective_scaled".into(), f(&sgl.graph) - f(&knn)),
        ("fig02.density_ratio".into(), sgl.density() / knn.density()),
        ("fig03.eig_error_ratio".into(), sgl_err / knn_err),
    ]
}

/// Figs. 4 and 5: the learned density of airfoil and crack.
fn fig04_05(quick: bool) -> Values {
    let scale = if quick { 0.04 } else { 0.25 };
    [
        ("fig04.density", TestCase::Airfoil),
        ("fig05.density", TestCase::Crack),
    ]
    .into_iter()
    .map(|(id, case)| (id.into(), learn_case(case, scale).1.density()))
    .collect()
}

/// Fig. 6: G2_circuit's eigenvalue scatter. Both modes run 4% of the
/// paper's 150k nodes, since Step 1's exact kNN is quadratic.
fn fig06(_quick: bool) -> Values {
    let (truth, result) = learn_case(TestCase::G2Circuit, 0.04);
    let corr = pearson(&eigs(&truth, 30), &eigs(&result.graph, 30));
    vec![("fig06.eig_corr".into(), corr)]
}

/// Fig. 7: exact pair resistances, original against learned.
fn fig07(quick: bool) -> Values {
    // The paper's first four cases: 2D mesh, airfoil, fe_4elt2, crack.
    TestCase::ALL[..4]
        .iter()
        .map(|&case| {
            let (truth, result) = learn_case(case, if quick { 0.03 } else { 0.15 });
            let pairs = sample_node_pairs(truth.num_nodes(), 300, 13);
            let er = |g: &Graph| pairwise_effective_resistances(g, &pairs).expect("resistances");
            let id = format!("fig07.er_corr.{}", case.name().replace(' ', "_"));
            (id, pearson(&er(&truth), &er(&result.graph)))
        })
        .collect()
}

/// Fig. 8: networks reduced 5× and 10× from partial G2_circuit voltages.
fn fig08(quick: bool) -> Values {
    let truth = TestCase::G2Circuit.generate_scaled(if quick { 0.015 } else { 0.05 }, 11);
    let meas = Measurements::generate(&truth, 100, 7).expect("measurements");
    let config = SglConfig::default().with_tol(TOL).with_max_iterations(150);
    let truth_eigs = eigs(&truth, 25);
    [("fig08.corr_5x", 0.2), ("fig08.corr_10x", 0.1)]
        .into_iter()
        .map(|(id, fraction)| {
            let reduced = learn_reduced(&meas, fraction, &config, 5).expect("reduction");
            let corr = pearson(&truth_eigs, &eigs(&reduced.result.graph, 25));
            (id.into(), corr)
        })
        .collect()
}

/// Fig. 9: the 2D mesh learned from measurements with 50% noise.
fn fig09(quick: bool) -> Values {
    let side = mesh_side(if quick { 0.04 } else { 0.25 });
    let truth = grid2d(side, side);
    let clean = Measurements::generate(&truth, 50, 7).expect("measurements");
    let result = learn(&clean.with_noise(0.5, 99), 200);
    let corr = pearson(&eigs(&truth, 25), &eigs(&result.graph, 25));
    vec![("fig09.eig_corr_50pct".into(), corr)]
}

/// Fig. 10: eigenvalue error on fe_4elt2 from 5 and from 50 measurements.
fn fig10(quick: bool) -> Values {
    let truth = TestCase::Fe4elt2.generate_scaled(if quick { 0.03 } else { 0.15 }, 11);
    let truth_eigs = eigs(&truth, 25);
    let err = |m: usize| {
        let meas = Measurements::generate(&truth, m, 7).expect("measurements");
        mean_rel_err(&truth_eigs, &eigs(&learn(&meas, 200).graph, 25))
    };
    vec![("fig10.eig_error_ratio".into(), err(50) / err(5))]
}

/// Fig. 11: seconds per node-iteration of Steps 2–5 (the kNN graph is
/// built outside the timer) over growing meshes.
fn fig11(quick: bool) -> Values {
    // A fixed iteration budget isolates per-iteration cost from
    // convergence length.
    let config = SglConfig::default()
        .with_tol(0.0)
        .with_max_iterations(10)
        .with_scale_edges(true);
    let max_side = if quick { 40 } else { 140 };
    let costs: Vec<f64> = [20usize, 30, 40, 60, 80, 100, 120, 140]
        .into_iter()
        .filter(|&side| side <= max_side)
        .map(|side| {
            let meas = Measurements::generate(&grid2d(side, side), 50, 7).expect("measurements");
            let knn = build_knn_graph(meas.voltages(), 5);
            let (result, secs) = time(|| {
                Sgl::new(config.clone())
                    .learn_from_knn(&meas, knn)
                    .expect("learning")
            });
            secs / result.trace.len().max(1) as f64 / (side * side) as f64
        })
        .collect();
    let max = costs.iter().copied().fold(f64::MIN, f64::max);
    let min = costs.iter().copied().fold(f64::MAX, f64::min);
    vec![("fig11.cost_spread".into(), max / min)]
}

/// `x` to four decimals, trailing zeros dropped.
fn show(x: f64) -> String {
    let fixed = format!("{x:.4}");
    fixed.trim_end_matches('0').trim_end_matches('.').into()
}

/// The table as JSON, one claim per line.
fn render(mode: &str, rows: &[Row]) -> String {
    let lines: Vec<String> = rows
        .iter()
        .map(|r| {
            let c = r.claim;
            let (op, bound) = match c.bound {
                Some((cmp, b)) => (json::string(cmp.symbol()), b.to_string()),
                None => ("null".into(), "null".into()),
            };
            // An unconverged Fig. 1 run's infinity has no JSON number.
            let value = if r.value.is_finite() {
                r.value.to_string()
            } else {
                "null".into()
            };
            format!(
                r#"    {{"id": {}, "figure": {}, "statement": {}, "metric": {}, "op": {op}, "bound": {bound}, "value": {value}, "status": {}}}"#,
                json::string(c.id),
                figure(c.id),
                json::string(c.statement),
                json::string(c.metric),
                json::string(r.status()),
            )
        })
        .collect();
    format!(
        "{{\n  \"mode\": {},\n  \"claims\": [\n{}\n  ]\n}}\n",
        json::string(mode),
        lines.join(",\n")
    )
}

/// The figure number of a `figNN.…` claim id.
fn figure(id: &str) -> u32 {
    id[3..5].parse().expect("claim ids start with figNN")
}

/// The claims that pass in the tracked table `text` but are missing
/// from `run` (`(id, status)` pairs) or no longer pass in it. A table
/// that is not JSON, lacks `mode` or `claims`, or is of another `mode`
/// is an error.
fn regressions(text: &str, mode: &str, run: &[(&str, &str)]) -> Result<Vec<String>, String> {
    let tracked = json::parse(text)?;
    let tracked_mode = tracked
        .get("mode")
        .and_then(Json::as_str)
        .ok_or("the tracked table has no `mode`")?;
    if tracked_mode != mode {
        return Err(format!(
            "the tracked table is a {tracked_mode} run, this is a {mode} run"
        ));
    }
    let claims = tracked
        .get("claims")
        .and_then(Json::as_array)
        .ok_or("the tracked table has no `claims` array")?;
    let mut lost = Vec::new();
    for claim in claims {
        let field = |key| {
            claim
                .get(key)
                .and_then(Json::as_str)
                .ok_or(format!("a tracked claim has no string `{key}`"))
        };
        let (id, status) = (field("id")?, field("status")?);
        if status != "pass" {
            continue;
        }
        match run.iter().find(|(run_id, _)| *run_id == id) {
            None => lost.push(format!("{id}: passes in the tracked table, missing here")),
            Some((_, now)) if *now != "pass" => {
                lost.push(format!("{id}: passes in the tracked table, {now} here"));
            }
            Some(_) => {}
        }
    }
    Ok(lost)
}

/// `--quick` and `--against PATH`, nothing else.
fn parse_args(mut args: impl Iterator<Item = String>) -> Result<(bool, Option<String>), String> {
    let (mut quick, mut against) = (false, None);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--against" => against = Some(args.next().ok_or("--against needs a path")?),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok((quick, against))
}

fn main() -> ExitCode {
    let (quick, against) = match parse_args(std::env::args().skip(1)) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("repro: {e}\nusage: repro [--quick] [--against PATH]");
            return ExitCode::from(2);
        }
    };
    let mode = if quick { "quick" } else { "full" };
    println!("=== repro: the paper's claims, figure by figure ({mode}) ===\n");

    let figures: [(&str, Figure); 9] = [
        ("Fig. 1", fig01),
        ("Figs. 2-3", fig02_03),
        ("Figs. 4-5", fig04_05),
        ("Fig. 6", fig06),
        ("Fig. 7", fig07),
        ("Fig. 8", fig08),
        ("Fig. 9", fig09),
        ("Fig. 10", fig10),
        ("Fig. 11", fig11),
    ];
    let mut measured = std::collections::BTreeMap::new();
    for (name, run) in figures {
        let (values, secs) = time(|| run(quick));
        println!("{name}: {secs:.1} s");
        measured.extend(values);
    }
    let rows: Vec<Row> = CLAIMS
        .iter()
        .map(|claim| match measured.remove(claim.id) {
            Some(value) => Row { claim, value },
            None => panic!("no value measured for {}", claim.id),
        })
        .collect();
    assert!(measured.is_empty(), "values without a claim: {measured:?}");

    println!(
        "\n{:<24}{:>12}{:>12}  {:<8}paper | metric",
        "claim", "bound", "value", "status"
    );
    for r in &rows {
        let c = r.claim;
        let bound = c.bound.map_or("-".into(), |(cmp, b)| {
            format!("{} {}", cmp.symbol(), show(b))
        });
        let (value, status) = (show(r.value), r.status());
        println!(
            "{:<24}{bound:>12}{value:>12}  {status:<8}{} | {}",
            c.id, c.statement, c.metric
        );
    }

    let path = repro_dir().join("BENCH_repro.json");
    std::fs::write(&path, render(mode, &rows)).expect("write BENCH_repro.json");
    println!("\nwrote {}", path.display());

    if let Some(tracked) = against {
        let run: Vec<(&str, &str)> = rows.iter().map(|r| (r.claim.id, r.status())).collect();
        let lost = std::fs::read_to_string(&tracked)
            .map_err(|e| e.to_string())
            .and_then(|text| regressions(&text, mode, &run))
            .unwrap_or_else(|e| vec![format!("cannot gate against {tracked}: {e}")]);
        for l in &lost {
            eprintln!("repro: {l}");
        }
        if !lost.is_empty() {
            return ExitCode::FAILURE;
        }
        println!("every claim that passes in {tracked} still passes");
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tracked quick table of `(id, status)` claims.
    fn tracked(claims: &[(&str, &str)]) -> String {
        let claims: Vec<String> = claims
            .iter()
            .map(|(id, status)| format!(r#"{{"id": "{id}", "status": "{status}"}}"#))
            .collect();
        format!(r#"{{"mode": "quick", "claims": [{}]}}"#, claims.join(", "))
    }

    #[test]
    fn a_tracked_pass_that_now_fails_is_reported() {
        let text = tracked(&[("fig01.iterations", "pass")]);
        let lost = regressions(&text, "quick", &[("fig01.iterations", "fail")]).unwrap();
        assert_eq!(lost.len(), 1, "{lost:?}");
        assert!(lost[0].starts_with("fig01.iterations"));
        let run = [("fig01.iterations", "pass")];
        assert!(regressions(&text, "quick", &run).unwrap().is_empty());
    }

    #[test]
    fn a_tracked_pass_missing_from_the_run_is_reported() {
        let text = tracked(&[("fig01.iterations", "pass")]);
        let lost = regressions(&text, "quick", &[("fig02.objective", "pass")]).unwrap();
        assert_eq!(lost.len(), 1, "{lost:?}");
        assert!(lost[0].contains("missing"));
    }

    #[test]
    fn tracked_fail_and_report_rows_never_gate() {
        let run = [("fig04.density", "fail"), ("fig06.eig_corr", "report")];
        let text = tracked(&run);
        assert!(regressions(&text, "quick", &[]).unwrap().is_empty());
        assert!(regressions(&text, "quick", &run).unwrap().is_empty());
    }

    #[test]
    fn malformed_json_or_a_table_without_claims_is_an_error() {
        for text in [
            r#"{"mode": "quick", "#,
            r#"{"mode": "quick"}"#,
            r#"{"mode": "quick", "claims": {}}"#,
            r#"{"mode": "quick", "claims": [{"id": "fig01.iterations"}]}"#,
        ] {
            assert!(regressions(text, "quick", &[]).is_err(), "{text}");
        }
    }

    #[test]
    fn a_tracked_table_of_another_mode_is_an_error() {
        let text = tracked(&[]).replace("quick", "full");
        assert!(regressions(&text, "quick", &[])
            .unwrap_err()
            .contains("full"));
        assert!(regressions(r#"{"claims": []}"#, "quick", &[]).is_err());
    }

    #[test]
    fn a_rendered_table_gates_against_itself() {
        // Every bounded claim passes, apart from an unconverged Fig. 1
        // run (infinite iterations), which fails.
        let rows: Vec<Row> = CLAIMS
            .iter()
            .map(|claim| {
                let value = match claim.bound {
                    _ if claim.id == "fig01.iterations" => f64::INFINITY,
                    Some((cmp, b)) if cmp.holds(b + 1.0, b) => b + 1.0,
                    Some((_, b)) => b - 1.0,
                    None => 0.5,
                };
                Row { claim, value }
            })
            .collect();
        let run: Vec<(&str, &str)> = rows.iter().map(|r| (r.claim.id, r.status())).collect();
        assert_eq!(run[0].1, "fail");
        let text = render("quick", &rows);
        assert!(regressions(&text, "quick", &run).unwrap().is_empty());
        let none_pass: Vec<(&str, &str)> = run.iter().map(|&(id, _)| (id, "fail")).collect();
        assert_eq!(regressions(&text, "quick", &none_pass).unwrap().len(), 8);
    }

    #[test]
    fn every_figure_has_a_claim_with_a_unique_id() {
        let figures: std::collections::BTreeSet<u32> =
            CLAIMS.iter().map(|c| figure(c.id)).collect();
        assert_eq!(figures, (1..=11).collect());
        let ids: std::collections::BTreeSet<&str> = CLAIMS.iter().map(|c| c.id).collect();
        assert_eq!(ids.len(), CLAIMS.len());
    }

    #[test]
    fn only_quick_and_against_are_accepted() {
        let parse = |args: &[&str]| parse_args(args.iter().map(|a| a.to_string()));
        let expect = (true, Some("t.json".to_string()));
        assert_eq!(parse(&["--quick", "--against", "t.json"]), Ok(expect));
        assert_eq!(parse(&[]), Ok((false, None)));
        assert!(parse(&["--against"]).is_err());
        assert!(parse(&["--scale", "0.3"]).is_err());
    }
}
