//! Shared harness for the figure-reproduction binaries.
//!
//! Every `fig*` binary regenerates the data series behind one figure of
//! the paper, printing rows to stdout and writing CSV files under
//! `target/repro/` so they can be re-plotted. The helpers here keep the
//! binaries small and uniform: a tiny flag parser, timers, table/CSV
//! writers, and the default experimental setup of §III.A.

use std::fmt::Display;
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::Instant;

pub use sgl_core::{Measurements, Sgl, SglConfig};

/// Output directory for reproduction artifacts.
pub fn repro_dir() -> PathBuf {
    let dir = Path::new("target").join("repro");
    let _ = fs::create_dir_all(&dir);
    dir
}

/// Minimal `--flag value` argument parser shared by the binaries.
#[derive(Debug, Clone)]
pub struct Args {
    raw: Vec<String>,
}

impl Args {
    /// Capture the process arguments.
    pub fn from_env() -> Self {
        Args {
            raw: std::env::args().skip(1).collect(),
        }
    }

    /// Value of `--name <v>` parsed into `T`, or `default`.
    ///
    /// # Panics
    /// Panics (with a clear message) when the value fails to parse.
    pub fn get<T: std::str::FromStr>(&self, name: &str, default: T) -> T
    where
        T::Err: Display,
    {
        let flag = format!("--{name}");
        for i in 0..self.raw.len() {
            if self.raw[i] == flag {
                let v = self
                    .raw
                    .get(i + 1)
                    .unwrap_or_else(|| panic!("missing value for {flag}"));
                return v
                    .parse()
                    .unwrap_or_else(|e| panic!("bad value for {flag}: {e}"));
            }
        }
        default
    }

    /// Whether the bare flag `--name` is present.
    pub fn has(&self, name: &str) -> bool {
        let flag = format!("--{name}");
        self.raw.iter().any(|a| a == &flag)
    }
}

/// Wall-clock timer returning seconds.
pub fn time<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// A simple column-aligned table printer that mirrors the figure series.
#[derive(Debug)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Start a table with the given column headers.
    pub fn new(headers: &[&str]) -> Self {
        Table {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (stringified cells).
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells.to_vec());
    }

    /// Print to stdout with aligned columns.
    pub fn print(&self) {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for r in &self.rows {
            for (i, c) in r.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let line = |cells: &[String]| {
            let mut s = String::new();
            for (i, c) in cells.iter().enumerate() {
                s.push_str(&format!("{:>width$}  ", c, width = widths[i]));
            }
            println!("{}", s.trim_end());
        };
        line(&self.headers);
        let total: usize = widths.iter().sum::<usize>() + 2 * widths.len();
        println!("{}", "-".repeat(total));
        for r in &self.rows {
            line(r);
        }
    }

    /// Also write the table as CSV to `target/repro/<name>.csv`.
    pub fn write_csv(&self, name: &str) -> std::io::Result<PathBuf> {
        let path = repro_dir().join(format!("{name}.csv"));
        let mut f = fs::File::create(&path)?;
        writeln!(f, "{}", self.headers.join(","))?;
        for r in &self.rows {
            writeln!(f, "{}", r.join(","))?;
        }
        Ok(path)
    }
}

/// Format a float in compact scientific notation for tables.
pub fn sci(x: f64) -> String {
    format!("{x:.4e}")
}

/// Format a float with fixed decimals.
pub fn fix(x: f64, d: usize) -> String {
    format!("{x:.d$}")
}

/// Banner printed by each binary: figure id + description + parameters.
pub fn banner(figure: &str, description: &str, params: &[(&str, String)]) {
    println!("=== {figure}: {description} ===");
    let ps: Vec<String> = params.iter().map(|(k, v)| format!("{k}={v}")).collect();
    println!("params: {}", ps.join(" "));
    println!();
}

/// The full per-test-case report used by Figs. 4–6: objective curve,
/// densities, eigenvalue scatter and a spectral layout with clusters.
pub fn case_report(figure: &str, case: sgl_datasets::TestCase, args: &Args, full_scale: f64) {
    use sgl_core::{objective, ObjectiveOptions};

    let default_scale = if args.has("quick") {
        full_scale.min(0.04)
    } else {
        full_scale
    };
    let scale: f64 = args.get("scale", default_scale);
    let m: usize = args.get("m", 100); // the paper uses 100 for these figures
    let k_eigs: usize = args.get("eigs", 30);
    let stride: usize = args.get("stride", 5);
    let truth = case.generate_scaled(scale, 11);
    banner(
        figure,
        &format!("learning the \"{case}\" graph"),
        &[
            ("|V|", truth.num_nodes().to_string()),
            ("|E|", truth.num_edges().to_string()),
            ("paper_|V|", case.paper_nodes().to_string()),
            ("M", m.to_string()),
        ],
    );

    let meas = Measurements::generate(&truth, m, 7).expect("measurements");
    let ((result, knn_density), secs) = time(|| {
        let r = Sgl::new(
            SglConfig::default()
                .with_tol(1e-12)
                .with_max_iterations(200),
        )
        .learn(&meas)
        .expect("learning");
        let kd = r.knn_graph.density();
        (r, kd)
    });

    // Objective vs iteration (sampled, unscaled iterates — Step 5 only
    // rescales once after convergence in Algorithm 1).
    let obj_opts = ObjectiveOptions::default();
    let mut curve = Table::new(&["iteration", "objective", "density"]);
    let last = result.trace.len().saturating_sub(1);
    for (i, rec) in result.trace.iter().enumerate() {
        if i % stride != 0 && i != last {
            continue;
        }
        let snap = result.graph_at_iteration(i).expect("trace index in range");
        let f = objective(&snap, &meas, &obj_opts).expect("snapshot objective");
        curve.row(&[
            rec.iteration.to_string(),
            fix(f.total, 3),
            fix(snap.num_edges() as f64 / truth.num_nodes() as f64, 4),
        ]);
    }
    println!("objective vs iteration:");
    curve.print();
    let tag = case.name().replace(' ', "_");
    let _ = curve.write_csv(&format!("{}_objective", tag));

    // Eigenvalue scatter.
    let true_eigs =
        sgl_core::smallest_nonzero_eigenvalues(&truth, k_eigs).expect("true eigenvalues");
    let got_eigs =
        sgl_core::smallest_nonzero_eigenvalues(&result.graph, k_eigs).expect("learned eigenvalues");
    let mut scatter = Table::new(&["index", "lambda_original", "lambda_learned"]);
    for i in 0..k_eigs {
        scatter.row(&[(i + 2).to_string(), sci(true_eigs[i]), sci(got_eigs[i])]);
    }
    println!();
    println!("eigenvalue scatter (original vs learned):");
    scatter.print();
    let _ = scatter.write_csv(&format!("{}_eigenvalues", tag));

    // Spectral layouts with cluster colors (the figure's drawings).
    let clusters =
        sgl_core::clustering::spectral_clustering(&result.graph, 6, 3).expect("clustering");
    for (label, g) in [("original", &truth), ("learned", &result.graph)] {
        let layout = sgl_core::drawing::spectral_layout(g).expect("layout");
        let path = repro_dir().join(format!("{}_layout_{}.csv", tag, label));
        let f = fs::File::create(&path).expect("layout csv");
        layout
            .write_csv(std::io::BufWriter::new(f), Some(&clusters))
            .expect("layout write");
        println!("layout ({label}) written to {}", path.display());
    }

    println!();
    println!(
        "densities: original {:.3} / kNN {:.3} / learned {:.3}",
        truth.density(),
        knn_density,
        result.density()
    );
    println!(
        "paper densities: original {:.3} / learned ~1.0x",
        case.paper_edges() as f64 / case.paper_nodes() as f64
    );
    println!(
        "eigenvalue correlation: {:.4}",
        sgl_linalg::vecops::pearson(&true_eigs, &got_eigs)
    );
    println!(
        "iterations: {}  converged: {}  wall-clock: {:.1}s",
        result.trace.len(),
        result.converged,
        secs
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_roundtrip() {
        let mut t = Table::new(&["a", "b"]);
        t.row(&["1".into(), "2".into()]);
        let p = t.write_csv("test_table").unwrap();
        let s = std::fs::read_to_string(p).unwrap();
        assert!(s.contains("a,b"));
        assert!(s.contains("1,2"));
    }

    #[test]
    fn args_parse_defaults() {
        let a = Args {
            raw: vec!["--n".into(), "42".into(), "--quick".into()],
        };
        assert_eq!(a.get("n", 7usize), 42);
        assert_eq!(a.get("m", 7usize), 7);
        assert!(a.has("quick"));
        assert!(!a.has("slow"));
    }

    #[test]
    fn timer_returns_value() {
        let (v, secs) = time(|| 5);
        assert_eq!(v, 5);
        assert!(secs >= 0.0);
    }
}
