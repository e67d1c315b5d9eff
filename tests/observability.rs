//! Cross-crate contract of the tracing/metrics layer (`sgl-trace`):
//! observability must be *free* when off and *inert* when on.
//!
//! * The recorder never touches the deterministic control path: the
//!   learned graph, iteration trace, and scale factor are bit-identical
//!   with tracing enabled or disabled, at 1 worker thread and at N.
//! * Counter totals are bit-stable across thread counts — the registry
//!   counts algorithmic work (iterations, solves, PCG sweeps), none of
//!   which may depend on the fork-join fan-out.
//! * Histogram percentiles track an exact reference within the log₂
//!   bucket bound (a factor of 2).
//! * The Chrome-trace exporter emits valid JSON with the per-iteration
//!   phase spans the profile tooling keys on.
//!
//! Tests that flip the global recorder serialize on
//! [`sgl_trace::test_guard`] so parallel test threads cannot interleave
//! enable/drain windows.

use sgl::prelude::*;

/// One deterministic learn run at the given parallelism.
fn learn(parallelism: usize) -> LearnResult {
    let truth = sgl_datasets::grid2d(8, 8);
    let meas = Measurements::generate(&truth, 16, 5).unwrap();
    let cfg = SglConfig::default()
        .with_tol(1e-5)
        .with_max_iterations(40)
        .with_scale_edges(true)
        .with_parallelism(parallelism);
    Sgl::new(cfg).learn(&meas).unwrap()
}

/// Bit-level equality of two learn results: edges, weights, iteration
/// trace, and the Step-5 scale factor.
fn assert_bit_identical(a: &LearnResult, b: &LearnResult, what: &str) {
    assert_eq!(a.graph.num_edges(), b.graph.num_edges(), "{what}: edges");
    for (ea, eb) in a.graph.edges().iter().zip(b.graph.edges()) {
        assert_eq!((ea.u, ea.v), (eb.u, eb.v), "{what}: topology");
        assert_eq!(
            ea.weight.to_bits(),
            eb.weight.to_bits(),
            "{what}: weight bits"
        );
    }
    assert_eq!(a.trace, b.trace, "{what}: iteration trace");
    assert_eq!(
        a.scale_factor.map(f64::to_bits),
        b.scale_factor.map(f64::to_bits),
        "{what}: scale factor bits"
    );
}

#[test]
fn recorder_never_perturbs_results_at_any_thread_count() {
    let _guard = sgl_trace::test_guard();
    sgl_trace::disable();
    sgl_trace::clear();

    let off_1 = learn(1);
    let off_2 = learn(2);
    assert_bit_identical(&off_1, &off_2, "recorder off, 1 vs 2 threads");
    assert!(
        sgl_trace::take_events().is_empty(),
        "disabled recorder captured events"
    );

    sgl_trace::enable();
    let on_1 = learn(1);
    let events_1 = sgl_trace::take_events();
    let on_2 = learn(2);
    let events_2 = sgl_trace::take_events();
    sgl_trace::disable();
    sgl_trace::clear();

    assert_bit_identical(&off_1, &on_1, "recorder on vs off, 1 thread");
    assert_bit_identical(&off_2, &on_2, "recorder on vs off, 2 threads");
    assert!(!events_1.is_empty() && !events_2.is_empty());

    // The span tree carries the per-iteration phases the profile
    // tooling keys on.
    for events in [&events_1, &events_2] {
        for phase in ["iteration", "score", "densify", "embed", "knn_build"] {
            assert!(
                events.iter().any(|e| e.name == phase),
                "traced run is missing the `{phase}` span"
            );
        }
    }
    // The 2-thread run fans out, so at least one parallel-region span
    // must come from a non-primary thread id.
    let par_spans: Vec<_> = events_2
        .iter()
        .filter(|e| e.name.starts_with("par_"))
        .collect();
    assert!(
        !par_spans.is_empty(),
        "2-thread run recorded no parallel-region spans"
    );
}

#[test]
fn counter_totals_are_bit_stable_across_thread_counts() {
    let _guard = sgl_trace::test_guard();
    sgl_trace::clear();
    sgl_trace::enable();

    let totals = |parallelism: usize| {
        sgl_trace::reset_metrics();
        let result = learn(parallelism);
        sgl_trace::clear();
        let counters: std::collections::BTreeMap<&'static str, u64> =
            sgl_trace::counters_snapshot()
                .into_iter()
                .map(|c| (c.name, c.value))
                .collect();
        (result, counters)
    };
    let (result_1, counters_1) = totals(1);
    let (_result_2, counters_2) = totals(2);
    sgl_trace::disable();

    // The work counters measure algorithmic progress, which the
    // determinism contract pins across thread counts.
    for name in [
        "session.iterations",
        "session.edges_added",
        "solver.solves",
        "solver.pcg_iterations_total",
        "solver.handles_built",
        "embed.lobpcg_iterations",
    ] {
        assert_eq!(
            counters_1.get(name),
            counters_2.get(name),
            "counter `{name}` drifted across thread counts"
        );
    }
    assert_eq!(
        counters_1.get("session.iterations").copied(),
        Some(result_1.trace.len() as u64),
        "session.iterations disagrees with the iteration trace"
    );
    // Every embed runs at least one eigensolver iteration.
    assert!(
        counters_1
            .get("embed.lobpcg_iterations")
            .copied()
            .unwrap_or(0)
            >= result_1.trace.len() as u64,
        "embed.lobpcg_iterations missed the re-embeds"
    );
}

#[test]
fn multilevel_revision_stats_count_every_handle_built() {
    let _guard = sgl_trace::test_guard();
    sgl_trace::clear();
    sgl_trace::enable();
    sgl_trace::reset_metrics();

    let truth = sgl_datasets::grid2d(14, 14);
    let meas = Measurements::generate(&truth, 25, 9).unwrap();
    let cfg = SglConfig::default().with_tol(1e-6).with_max_iterations(100);
    let opts = MultilevelOptions {
        hierarchy: sgl_multilevel::HierarchyOptions {
            coarsest_size: 49,
            ..Default::default()
        },
        target_density: Some(1.05),
        ..MultilevelOptions::default()
    };
    let result = learn_multilevel(&cfg, &meas, &opts).unwrap();
    let built = sgl_trace::counters_snapshot()
        .into_iter()
        .find(|c| c.name == "solver.handles_built")
        .map_or(0, |c| c.value);
    sgl_trace::disable();
    sgl_trace::clear();

    assert!(
        result.reports.iter().any(|r| r.edges_pruned > 0),
        "no level pruned: {:?}",
        result.reports
    );
    // In-cycle pruning builds its JL sketch's handle in a private
    // context; its builds must reach the run's revision counters too.
    assert_eq!(result.revision_stats.handles_built as u64, built);
}

#[test]
fn histogram_percentiles_track_exact_reference() {
    // Pure histogram math — no global state. A deterministic LCG stream
    // with a heavy tail, checked against exact order statistics.
    let h = sgl_trace::Histogram::new();
    let mut values: Vec<u64> = Vec::new();
    let mut x: u64 = 0x2545_F491_4F6C_DD1D;
    for _ in 0..10_000 {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let v = (x >> 33) % 1_000_000;
        values.push(v);
        h.record(v);
    }
    values.sort_unstable();
    for p in [50.0, 90.0, 99.0] {
        let exact =
            values[((p / 100.0 * values.len() as f64).ceil() as usize - 1).min(values.len() - 1)];
        let approx = h.percentile(p);
        let (lo, hi) = (exact as f64 / 2.0, exact as f64 * 2.0);
        assert!(
            (approx as f64) >= lo && (approx as f64) <= hi.max(1.0),
            "p{p}: approx {approx} outside factor-2 band of exact {exact}"
        );
    }
    assert_eq!(h.count(), 10_000);
    assert_eq!(h.min(), values[0]);
    assert_eq!(h.max(), *values.last().unwrap());
}

#[test]
fn chrome_trace_exporter_emits_valid_json() {
    let _guard = sgl_trace::test_guard();
    sgl_trace::clear();
    sgl_trace::enable();
    let _ = learn(1);
    sgl_trace::disable();
    let events = sgl_trace::take_events();
    assert!(!events.is_empty());

    let text = sgl_trace::chrome_trace_json(&events);
    let mut p = Json::new(&text);
    p.value()
        .unwrap_or_else(|e| panic!("invalid chrome trace JSON: {e}\n{text}"));
    p.eof().expect("trailing garbage after JSON document");
    assert!(text.contains("\"traceEvents\""));
    assert!(text.contains("\"ph\":\"X\""));

    // Folded stacks: `root;child value` lines, one per call path, with
    // iteration phases nested under their iteration span.
    let folded = sgl_trace::folded_stacks(&events);
    assert!(folded.lines().count() > 0);
    assert!(
        folded.lines().any(|l| l.starts_with("iteration;")),
        "no phase nested under `iteration` in:\n{folded}"
    );
    for line in folded.lines() {
        let (_stack, value) = line.rsplit_once(' ').expect("`stack value` shape");
        value.parse::<u64>().expect("integer folded value");
    }

    // The plain-text summary renders without panicking and mentions the
    // hot phase.
    let summary = sgl_trace::summary(&events);
    assert!(summary.contains("iteration"));
}

#[test]
fn serve_stats_surface_server_side_latency() {
    // The per-server histograms are always on — no recorder involved.
    let truth = sgl_datasets::grid2d(5, 5);
    let meas = Measurements::generate(&truth, 10, 3).unwrap();
    let cfg = SglConfig::builder()
        .k(4)
        .r(4)
        .tol(0.0)
        .max_iterations(3)
        .build()
        .unwrap();
    let mut session = SglSession::from_owned(cfg, meas).unwrap();
    session.run_to_completion().unwrap();
    let server = SglServer::new(session, ServeOptions::default()).unwrap();
    let reader = server.handle();
    // A rejected query is neither counted as solved nor timed.
    assert!(reader.resistances(&[(0, 0)]).is_err());
    let stats = server.stats();
    assert_eq!(stats.batches_executed, 0);
    assert_eq!(stats.query_latency_p50_ms, 0.0);
    for i in 0..8 {
        reader.resistances(&[(0, 12 + i)]).unwrap();
    }
    let stats = server.stats();
    assert!(stats.queries_answered >= 8);
    assert_eq!(stats.batches_executed, 8);
    assert!(
        stats.query_latency_p50_ms > 0.0 && stats.query_latency_p99_ms > 0.0,
        "server-side latency histogram recorded nothing: {stats:?}"
    );
    assert!(
        stats.query_latency_p50_ms <= stats.query_latency_p99_ms,
        "p50 {} above p99 {}",
        stats.query_latency_p50_ms,
        stats.query_latency_p99_ms
    );
}

/// A served request traces end to end: the network worker's `request`
/// span contains, on the same thread, the serving layer's `query` span,
/// which contains the `solve_batch` span that answered it.
#[test]
fn served_request_nests_query_and_solve_on_the_worker_thread() {
    let _guard = sgl_trace::test_guard();
    let truth = sgl_datasets::grid2d(5, 5);
    let meas = Measurements::generate(&truth, 10, 3).unwrap();
    let cfg = SglConfig::builder()
        .k(4)
        .r(4)
        .tol(0.0)
        .max_iterations(3)
        .build()
        .unwrap();
    let mut session = SglSession::from_owned(cfg, meas).unwrap();
    session.run_to_completion().unwrap();
    let server = SglServer::new(session, ServeOptions::default()).unwrap();
    let net = NetServer::bind(server, sgl_net::loopback(), NetOptions::default()).unwrap();

    sgl_trace::clear();
    sgl_trace::enable();
    let reply =
        sgl_net::client::post(net.local_addr(), "/resistances", "{\"pairs\":[[0,24]]}").unwrap();
    // Shutdown joins the workers, so every span they opened has closed.
    net.shutdown().unwrap();
    sgl_trace::disable();
    assert_eq!(reply.status, 200, "{}", reply.text());

    let events = sgl_trace::take_events();
    let spans = |name: &str| -> Vec<sgl_trace::Event> {
        events.iter().filter(|e| e.name == name).copied().collect()
    };
    let inside = |outer: &sgl_trace::Event, inner: &sgl_trace::Event| {
        inner.tid == outer.tid
            && inner.ts_ns >= outer.ts_ns
            && inner.ts_ns + inner.dur_ns <= outer.ts_ns + outer.dur_ns
    };
    let requests = spans("request");
    assert_eq!(requests.len(), 1, "one request, one `request` span");
    let request = requests[0];
    let query = spans("query")
        .into_iter()
        .find(|q| inside(&request, q))
        .expect("no `query` span inside the `request` span");
    assert!(
        spans("solve_batch").iter().any(|s| inside(&query, s)),
        "no `solve_batch` span inside the `query` span"
    );
}

/// Minimal recursive-descent JSON validator (no serde in the offline
/// image): accepts exactly the RFC 8259 grammar, rejects everything
/// else with a byte offset.
struct Json<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Json<'a> {
    fn new(text: &'a str) -> Self {
        Json {
            bytes: text.as_bytes(),
            pos: 0,
        }
    }

    fn ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, c: u8) -> Result<(), String> {
        self.ws();
        if self.bytes.get(self.pos) == Some(&c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", c as char, self.pos))
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.ws();
        self.bytes.get(self.pos).copied()
    }

    fn value(&mut self) -> Result<(), String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => self.string(),
            Some(b't') => self.literal("true"),
            Some(b'f') => self.literal("false"),
            Some(b'n') => self.literal("null"),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            other => Err(format!("unexpected {other:?} at byte {}", self.pos)),
        }
    }

    fn object(&mut self) -> Result<(), String> {
        self.eat(b'{')?;
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.string()?;
            self.eat(b':')?;
            self.value()?;
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(());
                }
                other => return Err(format!("bad object at byte {}: {other:?}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<(), String> {
        self.eat(b'[')?;
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.value()?;
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(());
                }
                other => return Err(format!("bad array at byte {}: {other:?}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<(), String> {
        self.eat(b'"')?;
        while let Some(&c) = self.bytes.get(self.pos) {
            self.pos += 1;
            match c {
                b'"' => return Ok(()),
                b'\\' => {
                    let esc = *self
                        .bytes
                        .get(self.pos)
                        .ok_or_else(|| "truncated escape".to_string())?;
                    self.pos += 1;
                    match esc {
                        b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't' => {}
                        b'u' => {
                            for _ in 0..4 {
                                let h = self.bytes.get(self.pos).copied().unwrap_or(0);
                                if !h.is_ascii_hexdigit() {
                                    return Err(format!("bad \\u escape at byte {}", self.pos));
                                }
                                self.pos += 1;
                            }
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                }
                0x00..=0x1f => return Err(format!("raw control byte at {}", self.pos - 1)),
                _ => {}
            }
        }
        Err("unterminated string".into())
    }

    fn number(&mut self) -> Result<(), String> {
        let start = self.pos;
        if self.bytes.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        let digits = |p: &mut Self| {
            let s = p.pos;
            while p.bytes.get(p.pos).is_some_and(u8::is_ascii_digit) {
                p.pos += 1;
            }
            p.pos > s
        };
        if !digits(self) {
            return Err(format!("bad number at byte {start}"));
        }
        if self.bytes.get(self.pos) == Some(&b'.') {
            self.pos += 1;
            if !digits(self) {
                return Err(format!("bad fraction at byte {}", self.pos));
            }
        }
        if matches!(self.bytes.get(self.pos), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.bytes.get(self.pos), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !digits(self) {
                return Err(format!("bad exponent at byte {}", self.pos));
            }
        }
        Ok(())
    }

    fn literal(&mut self, lit: &str) -> Result<(), String> {
        self.ws();
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(format!("expected `{lit}` at byte {}", self.pos))
        }
    }

    fn eof(&mut self) -> Result<(), String> {
        self.ws();
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(format!("trailing bytes at {}", self.pos))
        }
    }
}
