//! Metric definitions and the benchmark's output.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// A metric's name, unit and direction.
#[derive(Debug, Clone, Copy)]
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn def(name: &'static str, unit: &'static str, better: Better) -> Def {
    Def { name, unit, better }
}

use Better::{Higher, Lower};

/// What a user of the system sees; measured with tracing off and
/// reported by every workload.
pub const END_TO_END: &[Def] = &[
    def("setup_s", "s", Lower),
    def("peak_rss_mb", "MiB", Lower),
    def("learn_s", "s", Lower),
    def("er_corr", "ratio", Higher),
    def("learned_density", "edges/node", Lower),
    def("query_p50_ms", "ms", Lower),
];

/// Single layers, from the traced run. A workload that never reaches a
/// layer reports 0 for it.
pub const PER_LAYER: &[Def] = &[
    def("session.new_s", "s", Lower),
    def("session.step_s", "s", Lower),
    def("session.iterations", "count", Lower),
    def("session.embed_s", "s", Lower),
    def("session.embed_share", "ratio", Lower),
    def("session.score_s", "s", Lower),
    def("session.densify_s", "s", Lower),
    def("session.finish_s", "s", Lower),
    def("session.coverage", "ratio", Higher),
    def("solver.solves", "count", Lower),
    def("solver.pcg_iterations", "count", Lower),
    def("solver.pcg_iters_per_solve", "ratio", Lower),
    def("solver.handles_built", "count", Lower),
    def("solver.delta_updates", "count", Lower),
    def("solver.refreshes", "count", Lower),
    def("solver.pcg_solve_ms", "ms", Lower),
    def("linalg.csr_matvec_ns", "ns", Lower),
    def("linalg.csr_matvec_bytes", "bytes", Lower),
    def("linalg.gram_ns", "ns", Lower),
    def("linalg.gram_bytes", "bytes", Lower),
    def("linalg.par_speedup", "ratio", Higher),
    def("knn.build_s", "s", Lower),
    def("sfsgl.band_build_s", "s", Lower),
    def("sfsgl.rayleigh_ritz_s", "s", Lower),
    def("serve.snapshot_query_ms", "ms", Lower),
    def("serve.handle_query_ms", "ms", Lower),
    def("serve.queue_wait_p99_ms", "ms", Lower),
    def("serve.batch_occupancy", "ratio", Higher),
    def("serve.batches", "count", Lower),
    def("serve.ingest_s", "s", Lower),
    def("serve.deadline_misses", "count", Lower),
    def("serve.query_retries", "count", Lower),
    def("serve.lookup_p99_ms", "ms", Lower),
    def("serve.query_p99_ingest_ms", "ms", Lower),
    def("serve.publish_p50_s", "s", Lower),
    def("serve.saturation_qps", "1/s", Higher),
    def("query.p99_ms", "ms", Lower),
    def("query.samples", "count", Higher),
    def("net.json_parse_us", "us", Lower),
    def("net.json_render_us", "us", Lower),
    def("net.shed", "count", Lower),
    def("net.rejected", "count", Lower),
    def("net.max_queue_depth", "count", Lower),
    def("gen.lateness_p99_ms", "ms", Lower),
    def("gen.ingest_lateness_p99_ms", "ms", Lower),
    def("trace.overhead_pct", "%", Lower),
    def("learn.first_run_penalty_pct", "%", Lower),
    def("run.fail_share", "ratio", Lower),
    def("host.cores", "count", Higher),
];

/// Everything one run measured and checked.
#[derive(Debug)]
pub struct Report {
    workload: String,
    seed: u64,
    traced: bool,
    host_cores: usize,
    threads: usize,
    values: BTreeMap<&'static str, f64>,
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
}

impl Report {
    /// An empty report for one run.
    pub fn new(workload: &str, seed: u64, traced: bool, host_cores: usize, threads: usize) -> Self {
        let mut r = Report {
            workload: workload.to_string(),
            seed,
            traced,
            host_cores,
            threads,
            values: BTreeMap::new(),
            attempted: 0,
            failed: 0,
            notes: Vec::new(),
        };
        r.set("host.cores", host_cores as f64);
        r
    }

    /// Record metric `name` (which must be defined above).
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|d| d.name == name),
            "undefined metric {name}"
        );
        self.values.insert(name, value);
    }

    /// Count one checked operation; a failed check is noted with `what`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < 20 {
                self.notes.push(what());
            }
        }
    }

    /// Record a remark printed with the result.
    pub fn note(&mut self, text: String) {
        self.notes.push(text);
    }

    /// Failed checks over attempted ones.
    pub fn fail_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// Whether every checked operation passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    fn value(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    /// The metrics this run reports: per-layer when traced, else
    /// end-to-end.
    fn reported(&self) -> &'static [Def] {
        if self.traced {
            PER_LAYER
        } else {
            END_TO_END
        }
    }

    /// The human-readable part: a header with the host, every measured
    /// metric with unit and direction, and the notes.
    pub fn human(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "workload={} seed={} trace={} host_cores={} threads={}",
            self.workload, self.seed, self.traced as u8, self.host_cores, self.threads
        );
        // An untraced run still shows the per-layer figures it measured
        // on the way (tails, sample counts), outside the result line.
        for (title, defs) in [("end-to-end", END_TO_END), ("per-layer", PER_LAYER)] {
            let shown: Vec<&Def> = defs
                .iter()
                .filter(|d| {
                    self.traced || title == "end-to-end" || self.values.contains_key(d.name)
                })
                .collect();
            let _ = writeln!(out, "{title}:");
            for d in shown {
                let arrow = match d.better {
                    Better::Lower => "↓",
                    Better::Higher => "↑",
                };
                let _ = writeln!(
                    out,
                    "  {:<28} {:>16.6} {:<10} {arrow}",
                    d.name,
                    self.value(d.name),
                    d.unit
                );
            }
        }
        for n in &self.notes {
            let _ = writeln!(out, "note: {n}");
        }
        let _ = writeln!(
            out,
            "checked {} operations, {} failed",
            self.attempted, self.failed
        );
        out
    }

    /// The one-line JSON result.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .reported()
            .iter()
            .map(|d| {
                let v = self.value(d.name);
                let v = if v.is_finite() { v } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                    d.name, d.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Peak resident memory of this process so far, MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let all: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|d| d.name).collect();
        let set: std::collections::BTreeSet<_> = all.iter().collect();
        assert_eq!(set.len(), all.len());
        for n in all {
            assert!(n.len() <= 64 && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric()));
            assert!(n
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
    }

    #[test]
    fn host_cores_and_threads_go_with_every_result() {
        for traced in [false, true] {
            let r = Report::new("learn-grid", 3, traced, 2, 2);
            assert!(r
                .human()
                .starts_with("workload=learn-grid seed=3 trace=".to_string().as_str()));
            assert!(r.human().contains("host_cores=2 threads=2"));
        }
        let traced = Report::new("learn-grid", 3, true, 2, 2);
        assert!(traced
            .json()
            .contains("\"host.cores\": {\"value\": 2.0, \"unit\": \"count\"}"));
    }

    #[test]
    fn json_lists_exactly_the_reported_metrics() {
        let mut r = Report::new("serve-mixed", 1, false, 2, 2);
        r.set("learn_s", 1.25);
        r.check(true, String::new);
        let line = r.json();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0, "));
        assert!(line.contains("\"learn_s\": {\"value\": 1.25, \"unit\": \"s\"}"));
        for d in END_TO_END {
            assert!(line.contains(&format!("\"{}\":", d.name)));
        }
        assert!(!line.contains("session.new_s"));
    }

    #[test]
    fn a_failed_check_makes_the_run_incorrect() {
        let mut r = Report::new("learn-grid", 1, false, 1, 1);
        assert!(!r.correct(), "nothing attempted is not a pass");
        r.check(true, String::new);
        r.check(false, || "mismatch".into());
        assert!(!r.correct());
        assert!(r.human().contains("note: mismatch"));
        assert!(r.json().contains("\"attempted\": 2, \"failed\": 1"));
    }

    #[test]
    fn peak_rss_is_positive_on_linux() {
        assert!(peak_rss_mb() > 0.0);
    }
}
