//! Kernel probes: single public-function calls timed on a workload's own
//! data. Bytes moved are computed from the operand sizes, not measured.

use std::hint::black_box;
use std::time::{Duration, Instant};

use sgl_graph::laplacian::laplacian_csr;
use sgl_graph::Graph;
use sgl_linalg::DenseMatrix;
use sgl_solver::SolverPolicy;

use crate::stats::median;

/// How long each probe keeps calling its kernel.
const PROBE_SPAN: Duration = Duration::from_millis(60);

/// Median seconds per call of `f`, over batches that together run for
/// about [`PROBE_SPAN`].
pub fn per_call_s(mut f: impl FnMut()) -> f64 {
    // Size a batch to ~1/10 of the span from one untimed warm call.
    let t = Instant::now();
    f();
    let one = t.elapsed().as_secs_f64().max(1e-9);
    let batch = ((PROBE_SPAN.as_secs_f64() / 10.0 / one).ceil() as usize).clamp(1, 1 << 20);
    let start = Instant::now();
    let mut per_call = Vec::new();
    while per_call.len() < 3 || start.elapsed() < PROBE_SPAN {
        let t = Instant::now();
        for _ in 0..batch {
            f();
        }
        per_call.push(t.elapsed().as_secs_f64() / batch as f64);
    }
    median(&per_call)
}

/// `CsrMatrix::matvec_into` on the Laplacian of `graph`: nanoseconds per
/// call, and the bytes one call reads and writes (values, column
/// indices, row pointers, `x` once and `y`).
pub fn csr_matvec(graph: &Graph) -> (f64, f64) {
    let lap = laplacian_csr(graph);
    let n = lap.nrows();
    let x: Vec<f64> = (0..n).map(|i| (i % 7) as f64 - 3.0).collect();
    let mut y = vec![0.0; n];
    let s = per_call_s(|| lap.matvec_into(black_box(&x), black_box(&mut y)));
    let word = std::mem::size_of::<f64>() as f64;
    let index = std::mem::size_of::<usize>() as f64;
    let bytes = lap.nnz() as f64 * (word + index) + (n + 1) as f64 * index + 2.0 * n as f64 * word;
    (s * 1e9, bytes)
}

/// `DenseMatrix::gram` on an `n × width` block: nanoseconds per call and
/// the bytes it reads and writes.
pub fn gram(n: usize, width: usize) -> (f64, f64) {
    let a = DenseMatrix::from_fn(n, width, |i, j| ((i * 31 + j * 17) % 13) as f64 - 6.0);
    let s = per_call_s(|| {
        black_box(black_box(&a).gram());
    });
    let bytes = ((n * width + width * width) * std::mem::size_of::<f64>()) as f64;
    (s * 1e9, bytes)
}

/// One solve on a default-policy handle (AMG-preconditioned CG on the
/// graphs this benchmark learns) for a fixed zero-sum right-hand side:
/// milliseconds per solve.
pub fn pcg_solve(graph: &Graph) -> f64 {
    let handle = SolverPolicy::default()
        .build_handle(graph)
        .expect("a learned graph is connected");
    let n = graph.num_nodes();
    let mut b = vec![0.0; n];
    b[0] = 1.0;
    b[n - 1] = -1.0;
    per_call_s(|| {
        black_box(handle.solve(black_box(&b)).expect("probe solve"));
    }) * 1e3
}
