//! Shared harness for the bench binaries.
//!
//! `repro` checks the paper's claims (Figs. 1–11) against their bounds,
//! and `bench_learn`, `bench_serve` and `bench_solver` track performance.
//! Each prints its tables to stdout and writes JSON under `target/repro/`.
//! The helpers here keep the binaries small and uniform: a tiny flag
//! parser, a timer, a table printer and number formatting.

use std::fmt::Display;
use std::fs;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Output directory for reproduction artifacts.
pub fn repro_dir() -> PathBuf {
    let dir = Path::new("target").join("repro");
    let _ = fs::create_dir_all(&dir);
    dir
}

/// Minimal `--flag value` argument parser of the bench binaries.
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

/// A simple column-aligned table printer.
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

#[cfg(test)]
mod tests {
    use super::*;

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
