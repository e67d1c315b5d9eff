//! Checkpoint/resume for [`SglSession`]: crash the process mid-learn,
//! restart, and continue **bit-identically**.
//!
//! # Format
//!
//! A versioned, line-oriented ASCII file (`%%SGL-checkpoint v1`), no
//! external serialization crate:
//!
//! * every `f64` is written as its 16-hex-digit IEEE-754 bit pattern —
//!   exact round-trip by construction, no decimal printing involved;
//! * the learned and candidate graphs are embedded Matrix Market
//!   sections ([`sgl_graph::io`]'s writer prints full-precision
//!   weights and the reader preserves insertion order, so
//!   [`LearnResult::graph_at_iteration`](crate::LearnResult::graph_at_iteration)'s
//!   prefix property survives a resume);
//! * the remaining candidate pool is serialized verbatim, in order —
//!   selection removes by `swap_remove`, making the order
//!   history-dependent and unreconstructable from the graphs;
//! * the cached spectral embedding is saved bit-exactly so the resumed
//!   session keeps the warm start instead of re-embedding from cold.
//!
//! # Why resume is bit-identical
//!
//! [`SglSession::checkpoint`] is a solver **revision barrier**: after
//! writing the file it invalidates the live session's solver context.
//! Factorizations are not serializable state, so instead *both* futures
//! — the session that keeps running and the one restored from the file —
//! rebuild a fresh factorization from the same graph at their next
//! solve. Every other piece of resumable state (measurements, graphs,
//! pool order, trace, epoch counters, embedding, strategy) round-trips
//! exactly, so the two continuations are indistinguishable.
//! Solve/revision *statistics*
//! restart from zero in a restored session; they are diagnostics, not
//! inputs to the algorithm.
//!
//! # What is not saved
//!
//! Observers (process-local callbacks), fault plans (re-arm with
//! [`SglSession::set_fault_plan`] if desired), and solver handles (see
//! above). The Step-2 embedder is rebuilt from the config's strategy —
//! a session that degraded Solver → SolverFree resumes solver-free, and
//! a session pinned to
//! [`with_dense_embedding`](SglSession::with_dense_embedding) resumes on
//! its strategy's embedder.
//!
//! # Config fingerprint
//!
//! The file stores a fingerprint of the saving session's configuration
//! (with the strategy field canonicalized, since it may legitimately
//! have degraded mid-run). [`SglSession::restore`] recomputes the
//! fingerprint from the caller-supplied config and refuses to resume
//! under a different configuration — resuming a `tol = 1e-4` run under
//! `tol = 1e-2` would silently produce a graph neither config describes.

use crate::algorithm::StopVerdict;
use crate::config::SglConfig;
use crate::embedding::Embedding;
use crate::error::SglError;
use crate::measure::Measurements;
use crate::sensitivity::Candidate;
use crate::session::{SessionState, SglSession};
use crate::strategy::LearnStrategyKind;
use crate::IterationRecord;
use sgl_graph::io::{read_matrix_market, write_matrix_market, MatrixKind};
use sgl_graph::Graph;
use sgl_linalg::DenseMatrix;
use std::fmt::Write as _;
use std::path::Path;

/// Current on-disk format version.
const VERSION: u32 = 1;
const MAGIC: &str = "%%SGL-checkpoint";

impl SglSession<'_> {
    /// Write a resumable snapshot of this session to `path`, atomically
    /// (written to `<path>.tmp`, synced, then renamed — a crash mid-write
    /// leaves any previous checkpoint at `path` intact).
    ///
    /// This is a solver *revision barrier*: the session's cached
    /// factorization is invalidated after the write, so continuing this
    /// session and restoring the file produce bit-identical learning
    /// trajectories (see the [module docs](self)).
    ///
    /// # Errors
    /// Returns [`SglError::Checkpoint`] on I/O failure.
    pub fn checkpoint(&mut self, path: impl AsRef<Path>) -> Result<(), SglError> {
        write_checkpoint(path.as_ref(), &self.capture_state())?;
        self.invalidate_solver();
        Ok(())
    }
}

impl SglSession<'static> {
    /// Rebuild a session from a checkpoint file. `config` must be the
    /// configuration the saving session was created with (validated via
    /// the stored fingerprint); the strategy actually in force at save
    /// time — which may have degraded to solver-free — is restored from
    /// the file itself.
    ///
    /// # Errors
    /// Returns [`SglError::Checkpoint`] on unreadable, truncated,
    /// version-mismatched or fingerprint-mismatched files.
    pub fn restore(
        path: impl AsRef<Path>,
        config: SglConfig,
    ) -> Result<SglSession<'static>, SglError> {
        let state = read_checkpoint(path.as_ref(), config)?;
        SglSession::from_state(state)
    }
}

/// FNV-1a over the canonical `Debug` rendering of the config. Stable
/// across runs (unlike `DefaultHasher`, whose keys are randomized).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Fingerprint with the strategy field canonicalized: the live strategy
/// may have degraded (Solver → SolverFree) mid-run, and that must not
/// make the checkpoint unreadable under the user's original config.
fn config_fingerprint(config: &SglConfig) -> u64 {
    let mut canonical = config.clone();
    canonical.strategy = LearnStrategyKind::Solver;
    fnv1a(format!("{canonical:?}").as_bytes())
}

fn hex(v: f64) -> String {
    format!("{:016x}", v.to_bits())
}

// ---------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------

pub(crate) fn write_checkpoint(path: &Path, state: &SessionState) -> Result<(), SglError> {
    let body = render(state)?;
    let tmp = path.with_extension(match path.extension() {
        Some(e) => format!("{}.tmp", e.to_string_lossy()),
        None => "tmp".to_string(),
    });
    let io = |op: &'static str, e: std::io::Error| {
        SglError::Checkpoint(format!("{op} {}: {e}", tmp.display()))
    };
    {
        use std::io::Write as _;
        let mut f = std::fs::File::create(&tmp).map_err(|e| io("create", e))?;
        f.write_all(body.as_bytes()).map_err(|e| io("write", e))?;
        f.sync_all().map_err(|e| io("sync", e))?;
    }
    std::fs::rename(&tmp, path)
        .map_err(|e| SglError::Checkpoint(format!("rename into {}: {e}", path.display())))?;
    Ok(())
}

fn render(state: &SessionState) -> Result<String, SglError> {
    let mut out = String::new();
    let w = &mut out;
    let _ = writeln!(w, "{MAGIC} v{VERSION}");
    let _ = writeln!(w, "fingerprint {:016x}", config_fingerprint(&state.config));
    let _ = writeln!(w, "strategy {}", state.config.strategy.as_str());
    let _ = writeln!(
        w,
        "counters {} {} {} {} {} {} {}",
        state.epoch_iterations,
        state.epoch_start,
        u8::from(state.knn_candidates),
        u8::from(state.converged),
        u8::from(state.halted),
        state.solver_failures,
        state.fallbacks_taken,
    );
    let _ = writeln!(w, "verdict {}", state.verdict.as_str());

    // Measurements: X always, Y when present, row-major hex rows.
    let x = state.measurements.voltages();
    let y = state.measurements.currents();
    let _ = writeln!(
        w,
        "measurements {} {} {}",
        x.nrows(),
        x.ncols(),
        u8::from(y.is_some())
    );
    write_matrix_rows(w, x);
    if let Some(y) = y {
        write_matrix_rows(w, y);
    }

    write_graph(w, "knn", &state.knn_graph)?;
    write_graph(w, "learned", &state.graph)?;

    let _ = writeln!(
        w,
        "pool {} {}",
        state.candidates.len(),
        state.pool_measurements
    );
    for c in &state.candidates {
        let _ = writeln!(w, "cand {} {} {} {}", c.u, c.v, hex(c.weight), hex(c.zdata));
    }

    match &state.embedding {
        None => {
            let _ = writeln!(w, "embedding none");
        }
        Some(e) => {
            let _ = writeln!(
                w,
                "embedding {} {} {} {}",
                e.coords.nrows(),
                e.coords.ncols(),
                e.eigenvalues.len(),
                e.solver_iterations
            );
            write_matrix_rows(w, &e.coords);
            let evs: Vec<String> = e.eigenvalues.iter().map(|&v| hex(v)).collect();
            let _ = writeln!(w, "eigs {}", evs.join(" "));
        }
    }

    let _ = writeln!(w, "trace {}", state.trace.len());
    for r in &state.trace {
        let _ = writeln!(
            w,
            "rec {} {} {} {} {}",
            r.iteration,
            hex(r.smax),
            r.edges_added,
            r.total_edges,
            hex(r.lambda2)
        );
    }
    let _ = writeln!(w, "end");
    Ok(out)
}

fn write_matrix_rows(out: &mut String, m: &DenseMatrix) {
    for i in 0..m.nrows() {
        let toks: Vec<String> = m.row(i).iter().map(|&v| hex(v)).collect();
        let _ = writeln!(out, "row {}", toks.join(" "));
    }
}

fn write_graph(out: &mut String, name: &str, g: &Graph) -> Result<(), SglError> {
    let mut mm = Vec::<u8>::new();
    write_matrix_market(&mut mm, g)
        .map_err(|e| SglError::Checkpoint(format!("serializing {name} graph: {e}")))?;
    let text = String::from_utf8(mm)
        .map_err(|_| SglError::Checkpoint(format!("{name} graph is not valid UTF-8")))?;
    let lines = text.lines().count();
    let _ = writeln!(out, "graph {name} {lines}");
    out.push_str(&text);
    Ok(())
}

// ---------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------

/// Line cursor with checkpoint-flavoured errors.
struct Parser<'a> {
    lines: std::iter::Enumerate<std::str::Lines<'a>>,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        Parser {
            lines: text.lines().enumerate(),
        }
    }

    fn next_line(&mut self) -> Result<(usize, &'a str), SglError> {
        self.lines
            .next()
            .map(|(i, l)| (i + 1, l))
            .ok_or_else(|| SglError::Checkpoint("unexpected end of file".into()))
    }

    /// Next line, which must start with `tag`; returns the remaining
    /// whitespace-separated fields.
    fn tagged(&mut self, tag: &str) -> Result<(usize, Vec<&'a str>), SglError> {
        let (no, line) = self.next_line()?;
        let mut toks = line.split_whitespace();
        match toks.next() {
            Some(t) if t == tag => Ok((no, toks.collect())),
            other => Err(SglError::Checkpoint(format!(
                "line {no}: expected `{tag}`, found `{}`",
                other.unwrap_or("")
            ))),
        }
    }
}

fn parse_usize(no: usize, tok: &str) -> Result<usize, SglError> {
    tok.parse()
        .map_err(|_| SglError::Checkpoint(format!("line {no}: bad integer `{tok}`")))
}

fn parse_f64_bits(no: usize, tok: &str) -> Result<f64, SglError> {
    u64::from_str_radix(tok, 16)
        .map(f64::from_bits)
        .map_err(|_| SglError::Checkpoint(format!("line {no}: bad f64 bit pattern `{tok}`")))
}

fn parse_flag(no: usize, tok: &str) -> Result<bool, SglError> {
    match tok {
        "0" => Ok(false),
        "1" => Ok(true),
        _ => Err(SglError::Checkpoint(format!(
            "line {no}: bad flag `{tok}` (want 0 or 1)"
        ))),
    }
}

fn parse_verdict(no: usize, tok: &str) -> Result<StopVerdict, SglError> {
    for v in [
        StopVerdict::Converged,
        StopVerdict::MaxIterations,
        StopVerdict::CandidatesExhausted,
        StopVerdict::Stalled,
        StopVerdict::InProgress,
    ] {
        if v.as_str() == tok {
            return Ok(v);
        }
    }
    Err(SglError::Checkpoint(format!(
        "line {no}: unknown stop verdict `{tok}`"
    )))
}

fn parse_strategy(no: usize, tok: &str) -> Result<LearnStrategyKind, SglError> {
    for k in [LearnStrategyKind::Solver, LearnStrategyKind::SolverFree] {
        if k.as_str() == tok {
            return Ok(k);
        }
    }
    Err(SglError::Checkpoint(format!(
        "line {no}: unknown strategy `{tok}`"
    )))
}

fn read_matrix(p: &mut Parser<'_>, nrows: usize, ncols: usize) -> Result<DenseMatrix, SglError> {
    let mut data = Vec::with_capacity(nrows * ncols);
    for _ in 0..nrows {
        let (no, toks) = p.tagged("row")?;
        if toks.len() != ncols {
            return Err(SglError::Checkpoint(format!(
                "line {no}: expected {ncols} values, found {}",
                toks.len()
            )));
        }
        for t in toks {
            data.push(parse_f64_bits(no, t)?);
        }
    }
    Ok(DenseMatrix::from_fn(nrows, ncols, |i, j| {
        data[i * ncols + j]
    }))
}

fn read_graph(p: &mut Parser<'_>, name: &str) -> Result<Graph, SglError> {
    let (no, toks) = p.tagged("graph")?;
    if toks.len() != 2 || toks[0] != name {
        return Err(SglError::Checkpoint(format!(
            "line {no}: expected `graph {name} <lines>`"
        )));
    }
    let nlines = parse_usize(no, toks[1])?;
    let mut mm = String::new();
    for _ in 0..nlines {
        let (_, line) = p.next_line()?;
        mm.push_str(line);
        mm.push('\n');
    }
    read_matrix_market(mm.as_bytes(), MatrixKind::Adjacency)
        .map_err(|e| SglError::Checkpoint(format!("embedded {name} graph: {e}")))
}

pub(crate) fn read_checkpoint(path: &Path, config: SglConfig) -> Result<SessionState, SglError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| SglError::Checkpoint(format!("reading {}: {e}", path.display())))?;
    parse_checkpoint(&text, config)
}

fn parse_checkpoint(text: &str, mut config: SglConfig) -> Result<SessionState, SglError> {
    let mut p = Parser::new(text);

    let (no, header) = p.next_line()?;
    let mut toks = header.split_whitespace();
    if toks.next() != Some(MAGIC) {
        return Err(SglError::Checkpoint(format!(
            "line {no}: not an SGL checkpoint (missing `{MAGIC}` magic)"
        )));
    }
    match toks.next() {
        Some(v) if v == format!("v{VERSION}") => {}
        Some(v) => {
            return Err(SglError::Checkpoint(format!(
                "line {no}: unsupported checkpoint version `{v}` (this build reads v{VERSION})"
            )))
        }
        None => {
            return Err(SglError::Checkpoint(format!(
                "line {no}: missing checkpoint version"
            )))
        }
    }

    let (no, toks) = p.tagged("fingerprint")?;
    let stored = toks
        .first()
        .and_then(|t| u64::from_str_radix(t, 16).ok())
        .ok_or_else(|| SglError::Checkpoint(format!("line {no}: bad fingerprint")))?;
    let ours = config_fingerprint(&config);
    if stored != ours {
        return Err(SglError::Checkpoint(format!(
            "config fingerprint mismatch: checkpoint was written under {stored:016x}, \
             supplied config hashes to {ours:016x} — resume requires the original configuration"
        )));
    }

    let (no, toks) = p.tagged("strategy")?;
    let tok = toks
        .first()
        .ok_or_else(|| SglError::Checkpoint(format!("line {no}: missing strategy")))?;
    config.strategy = parse_strategy(no, tok)?;

    let (no, toks) = p.tagged("counters")?;
    if toks.len() != 7 {
        return Err(SglError::Checkpoint(format!(
            "line {no}: counters line must have 7 fields"
        )));
    }
    let epoch_iterations = parse_usize(no, toks[0])?;
    let epoch_start = parse_usize(no, toks[1])?;
    let knn_candidates = parse_flag(no, toks[2])?;
    let converged = parse_flag(no, toks[3])?;
    let halted = parse_flag(no, toks[4])?;
    let solver_failures = parse_usize(no, toks[5])?;
    let fallbacks_taken = parse_usize(no, toks[6])?;

    let (no, toks) = p.tagged("verdict")?;
    let tok = toks
        .first()
        .ok_or_else(|| SglError::Checkpoint(format!("line {no}: missing verdict")))?;
    let verdict = parse_verdict(no, tok)?;

    let (no, toks) = p.tagged("measurements")?;
    if toks.len() != 3 {
        return Err(SglError::Checkpoint(format!(
            "line {no}: measurements line must have 3 fields"
        )));
    }
    let n = parse_usize(no, toks[0])?;
    let m = parse_usize(no, toks[1])?;
    let has_y = parse_flag(no, toks[2])?;
    let x = read_matrix(&mut p, n, m)?;
    let measurements = if has_y {
        let y = read_matrix(&mut p, n, m)?;
        Measurements::new(x, y)?
    } else {
        Measurements::from_voltages(x)?
    };

    let knn_graph = read_graph(&mut p, "knn")?;
    let graph = read_graph(&mut p, "learned")?;

    let (no, toks) = p.tagged("pool")?;
    if toks.len() != 2 {
        return Err(SglError::Checkpoint(format!(
            "line {no}: pool line must have 2 fields"
        )));
    }
    let ncand = parse_usize(no, toks[0])?;
    let pool_measurements = parse_usize(no, toks[1])?;
    let mut candidates = Vec::with_capacity(ncand);
    for _ in 0..ncand {
        let (no, toks) = p.tagged("cand")?;
        if toks.len() != 4 {
            return Err(SglError::Checkpoint(format!(
                "line {no}: cand line must have 4 fields"
            )));
        }
        candidates.push(Candidate {
            u: parse_usize(no, toks[0])?,
            v: parse_usize(no, toks[1])?,
            weight: parse_f64_bits(no, toks[2])?,
            zdata: parse_f64_bits(no, toks[3])?,
        });
    }

    let (no, toks) = p.tagged("embedding")?;
    let embedding = match toks.as_slice() {
        ["none"] => None,
        [r, c, k, it] => {
            let nrows = parse_usize(no, r)?;
            let ncols = parse_usize(no, c)?;
            let neigs = parse_usize(no, k)?;
            let solver_iterations = parse_usize(no, it)?;
            let coords = read_matrix(&mut p, nrows, ncols)?;
            let (no, toks) = p.tagged("eigs")?;
            if toks.len() != neigs {
                return Err(SglError::Checkpoint(format!(
                    "line {no}: expected {neigs} eigenvalues, found {}",
                    toks.len()
                )));
            }
            let eigenvalues = toks
                .iter()
                .map(|t| parse_f64_bits(no, t))
                .collect::<Result<Vec<_>, _>>()?;
            Some(Embedding {
                coords,
                eigenvalues,
                solver_iterations,
            })
        }
        _ => {
            return Err(SglError::Checkpoint(format!(
                "line {no}: embedding line must be `none` or 4 fields"
            )))
        }
    };

    let (no, toks) = p.tagged("trace")?;
    let nrec = toks
        .first()
        .ok_or_else(|| SglError::Checkpoint(format!("line {no}: missing trace count")))
        .and_then(|t| parse_usize(no, t))?;
    let mut trace = Vec::with_capacity(nrec);
    for _ in 0..nrec {
        let (no, toks) = p.tagged("rec")?;
        if toks.len() != 5 {
            return Err(SglError::Checkpoint(format!(
                "line {no}: rec line must have 5 fields"
            )));
        }
        trace.push(IterationRecord {
            iteration: parse_usize(no, toks[0])?,
            smax: parse_f64_bits(no, toks[1])?,
            edges_added: parse_usize(no, toks[2])?,
            total_edges: parse_usize(no, toks[3])?,
            lambda2: parse_f64_bits(no, toks[4])?,
            // Timing is observational, not part of the persistent format:
            // restored records carry zeroed phase timings.
            timings: Default::default(),
        });
    }

    p.tagged("end")?;

    Ok(SessionState {
        config,
        measurements,
        knn_graph,
        graph,
        candidates,
        pool_measurements,
        embedding,
        trace,
        epoch_iterations,
        epoch_start,
        knn_candidates,
        converged,
        halted,
        verdict,
        solver_failures,
        fallbacks_taken,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::SglSession;
    use sgl_datasets::grid2d;
    use std::path::PathBuf;

    fn quick_config() -> SglConfig {
        SglConfig::default().with_tol(1e-6).with_max_iterations(100)
    }

    fn tmp_file(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("sgl-checkpoint-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn assert_graphs_identical(a: &Graph, b: &Graph) {
        assert_eq!(a.num_nodes(), b.num_nodes());
        assert_eq!(a.num_edges(), b.num_edges());
        for (x, y) in a.edges().iter().zip(b.edges()) {
            assert_eq!((x.u, x.v), (y.u, y.v));
            assert_eq!(x.weight.to_bits(), y.weight.to_bits(), "weight drift");
        }
    }

    #[test]
    fn resume_is_bit_identical_to_continuation() {
        let truth = grid2d(8, 8);
        let meas = Measurements::generate(&truth, 20, 41).unwrap();
        let path = tmp_file("roundtrip.sglchk");

        let mut live = SglSession::new(quick_config(), &meas).unwrap();
        live.step().unwrap();
        live.step().unwrap();
        live.checkpoint(&path).unwrap();

        let mut restored = SglSession::restore(&path, quick_config()).unwrap();
        assert_eq!(restored.trace(), live.trace());
        assert_graphs_identical(restored.graph(), live.graph());
        assert_eq!(restored.candidates_remaining(), live.candidates_remaining());

        // Both futures of the same checkpoint must agree to the bit.
        live.run_to_completion().unwrap();
        restored.run_to_completion().unwrap();
        let a = live.finish().unwrap();
        let b = restored.finish().unwrap();
        assert_eq!(a.trace, b.trace);
        assert_eq!(a.stop_verdict, b.stop_verdict);
        assert_eq!(
            a.scale_factor.map(f64::to_bits),
            b.scale_factor.map(f64::to_bits)
        );
        assert_graphs_identical(&a.graph, &b.graph);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn checkpoint_write_is_atomic() {
        let truth = grid2d(6, 6);
        let meas = Measurements::generate(&truth, 12, 42).unwrap();
        let path = tmp_file("atomic.sglchk");
        let mut session = SglSession::new(quick_config(), &meas).unwrap();
        session.step().unwrap();
        session.checkpoint(&path).unwrap();
        // No temp residue; the final file parses.
        assert!(path.exists());
        assert!(!path.with_extension("sglchk.tmp").exists());
        assert!(SglSession::restore(&path, quick_config()).is_ok());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn mismatched_config_is_rejected() {
        let truth = grid2d(6, 6);
        let meas = Measurements::generate(&truth, 12, 43).unwrap();
        let path = tmp_file("fingerprint.sglchk");
        let mut session = SglSession::new(quick_config(), &meas).unwrap();
        session.step().unwrap();
        session.checkpoint(&path).unwrap();
        let err = SglSession::restore(&path, quick_config().with_tol(1e-2)).unwrap_err();
        assert!(
            matches!(&err, SglError::Checkpoint(m) if m.contains("fingerprint")),
            "wrong error: {err}"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncated_and_corrupt_files_error_cleanly() {
        let truth = grid2d(6, 6);
        let meas = Measurements::generate(&truth, 12, 44).unwrap();
        let path = tmp_file("truncated.sglchk");
        let mut session = SglSession::new(quick_config(), &meas).unwrap();
        session.step().unwrap();
        session.checkpoint(&path).unwrap();

        let full = std::fs::read_to_string(&path).unwrap();
        // Cut mid-file: parse must fail with Checkpoint, never panic.
        let cut: String = full.lines().take(5).collect::<Vec<_>>().join("\n");
        assert!(matches!(
            parse_checkpoint(&cut, quick_config()),
            Err(SglError::Checkpoint(_))
        ));
        // Wrong magic.
        assert!(matches!(
            parse_checkpoint("%%not-a-checkpoint v1\n", quick_config()),
            Err(SglError::Checkpoint(_))
        ));
        // Future version.
        let future = full.replacen("v1", "v999", 1);
        assert!(matches!(
            parse_checkpoint(&future, quick_config()),
            Err(SglError::Checkpoint(_))
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn halted_session_round_trips_verdict_and_flags() {
        let truth = grid2d(6, 6);
        let meas = Measurements::generate(&truth, 12, 45).unwrap();
        let path = tmp_file("halted.sglchk");
        let mut session = SglSession::new(quick_config(), &meas).unwrap();
        session.run_to_completion().unwrap();
        let verdict = session.stop_verdict();
        assert!(session.is_done());
        session.checkpoint(&path).unwrap();
        let restored = SglSession::restore(&path, quick_config()).unwrap();
        assert!(restored.is_done());
        assert_eq!(restored.stop_verdict(), verdict);
        assert_eq!(restored.converged(), session.converged());
        std::fs::remove_file(&path).ok();
    }
}
