//! Preconditioners for projected PCG on graph Laplacians, and the one
//! rule ([`exact_tree_or_amg`]) that picks between the exact near-tree
//! preconditioner and AMG.

use crate::amg::AmgHierarchy;
use crate::backend::PolicyMethod;
use crate::tree_solver::TreeSolver;
use sgl_graph::mst::maximum_spanning_tree;
use sgl_graph::Graph;
use sgl_linalg::vecops;
use sgl_linalg::{CholeskyFactor, CsrMatrix, DenseMatrix, Preconditioner};
use std::cell::RefCell;

/// The off-tree correction applies while `k² ≤ 16·n`: its factor then
/// holds at most 16 doubles per node, and its per-apply dense work stays
/// a small multiple of the `O(n)` tree sweeps.
const MAX_OFF_TREE_SQ_PER_NODE: usize = 16;

/// Whether `k` off-tree edges on `n` nodes fall within the exactness rule.
fn off_tree_fits(n: usize, k: usize) -> bool {
    k.saturating_mul(k) <= MAX_OFF_TREE_SQ_PER_NODE.saturating_mul(n)
}

/// The tree-or-AMG choice for a connected graph, made here alone for
/// [`PolicyMethod::Auto`] and for Step 2's embed. Within the rule — the
/// graph is a tree, or its `k = m − (n − 1)` off-tree edges satisfy
/// `k² ≤ 16·n` — it returns the exact near-tree [`TreePreconditioner`]
/// (one PCG iteration per solve); above the rule, or when the off-tree
/// capacitance fails to factor, an [`AmgHierarchy`]. The rule is decided
/// from `k` before anything is built.
///
/// A plain tree solve supports many off-tree edges poorly, so AMG takes
/// over above the rule: a cold width-4 LOBPCG embed of `grid2d(30, 30)`
/// takes 19 iterations on AMG and 282 on the plain tree, and on a
/// 224×224 learned near-tree (`k = 1,587` against a limit of 896) PCG
/// took 131 iterations per solve on AMG and 972 on the plain tree.
///
/// Returns the method picked ([`PolicyMethod::TreePcg`] or
/// [`PolicyMethod::AmgPcg`]) with its preconditioner.
///
/// # Panics
/// Panics if the graph is disconnected and within the rule.
pub fn exact_tree_or_amg(g: &Graph) -> (PolicyMethod, Box<dyn Preconditioner + Send + Sync>) {
    let n = g.num_nodes();
    let k = (g.num_edges() + 1).saturating_sub(n);
    if off_tree_fits(n, k) {
        let tree = TreePreconditioner::from_graph(g);
        if k == 0 || tree.off_tree.is_some() {
            return (PolicyMethod::TreePcg, Box::new(tree));
        }
    }
    (PolicyMethod::AmgPcg, Box::new(AmgHierarchy::build(g)))
}

/// Spanning-tree (support-graph) preconditioner: an exact solve on a
/// maximum spanning tree `T` of the graph, corrected for the off-tree
/// edges when there are few of them.
///
/// The SGL learned graph is a spanning tree plus `k = m − (n − 1)`
/// off-tree edges. When `0 < k` and `k² ≤ 16·n`,
/// [`from_graph`](Self::from_graph) absorbs them through the Woodbury
/// identity, with `B` their incidence columns and `W` their
/// conductances:
///
/// ```text
/// L⁺ r = L_T⁺ (r − B C⁻¹ Bᵀ L_T⁺ r),    C = W⁻¹ + Bᵀ L_T⁺ B.
/// ```
///
/// The preconditioner is then exact, and PCG converges in one iteration
/// (it still checks its tolerance against the true operator). Setup
/// costs `k` tree solves and a `k × k` Cholesky factorization; each
/// application costs two tree sweeps plus `O(k²)`, in `O(k²)` memory.
/// The setup is not bounded by the plain path's `O(n)`: near the rule's
/// limit it grows as `n^1.5` (about 50× the plain setup at `n = 10⁵`,
/// `k = 4√n`). The plain path pays instead on every solve, with PCG
/// iterations that grow with the off-tree weight (tens to hundreds on
/// such graphs), so the setup is repaid within a few solves.
/// Above the rule, or when `C` fails to factor, it stays the plain tree
/// solve.
#[derive(Debug, Clone)]
pub struct TreePreconditioner {
    solver: TreeSolver,
    /// The Woodbury correction for the off-tree edges (`None`: the plain
    /// tree solve).
    off_tree: Option<OffTreeCorrection>,
}

/// Off-tree edges `B` and the Cholesky factor of their capacitance
/// `C = W⁻¹ + Bᵀ L_T⁺ B`.
#[derive(Debug, Clone)]
struct OffTreeCorrection {
    /// Endpoints of the off-tree edges, in edge-index order.
    edges: Vec<(usize, usize)>,
    capacitance: CholeskyFactor,
}

impl OffTreeCorrection {
    /// Factor the capacitance of `g`'s off-tree edges, or `None` outside
    /// the exactness rule or when the factorization fails. Column `j` of
    /// `Bᵀ L_T⁺ B` is one tree solve on `b_j`, of which only the lower
    /// triangle is stored (all `CholeskyFactor` reads); the columns run
    /// serially in edge-index order, so the factor is the same at any
    /// thread count.
    fn build(g: &Graph, tree: &TreeSolver, off_tree: &[usize]) -> Option<Self> {
        let (n, k) = (g.num_nodes(), off_tree.len());
        if k == 0 || !off_tree_fits(n, k) {
            return None;
        }
        let edges: Vec<(usize, usize)> = off_tree
            .iter()
            .map(|&i| {
                let e = g.edge(i);
                (e.u, e.v)
            })
            .collect();
        let mut cap = DenseMatrix::zeros(k, k);
        let mut z = vec![0.0; n];
        for (j, (&(u, v), &e)) in edges.iter().zip(off_tree).enumerate() {
            z.fill(0.0);
            z[u] = 1.0;
            z[v] = -1.0;
            tree.solve_in_place(&mut z);
            for (i, &(p, q)) in edges.iter().enumerate().skip(j) {
                cap.set(i, j, z[p] - z[q]);
            }
            cap.set(j, j, cap.get(j, j) + 1.0 / g.edge(e).weight);
        }
        let capacitance = CholeskyFactor::compute(&cap).ok()?;
        Some(OffTreeCorrection { edges, capacitance })
    }
}

thread_local! {
    /// Per-thread `k`-vector for the off-tree correction, so applying the
    /// preconditioner allocates nothing inside the PCG loop.
    static OFF_TREE_SCRATCH: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
}

impl TreePreconditioner {
    /// Build from a connected graph by extracting its maximum spanning
    /// tree (heaviest conductances give the strongest support), exact on
    /// near-trees (see the [type docs](Self)).
    ///
    /// # Panics
    /// Panics if the graph is disconnected.
    pub fn from_graph(g: &Graph) -> Self {
        let t = maximum_spanning_tree(g);
        assert_eq!(
            t.num_components, 1,
            "tree preconditioner requires a connected graph"
        );
        let solver = TreeSolver::new(&t.to_graph(g));
        let off_tree = OffTreeCorrection::build(g, &solver, &t.off_tree_edges());
        TreePreconditioner { solver, off_tree }
    }

    /// Build directly from a known spanning tree (the plain tree solve).
    ///
    /// # Panics
    /// Panics if `tree` is not a connected tree.
    pub fn from_tree(tree: &Graph) -> Self {
        TreePreconditioner {
            solver: TreeSolver::new(tree),
            off_tree: None,
        }
    }
}

impl Preconditioner for TreePreconditioner {
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        self.solver.solve_into(r, z);
        let Some(c) = &self.off_tree else {
            return;
        };
        OFF_TREE_SCRATCH.with(|s| {
            let s = &mut *s.borrow_mut();
            // s = C⁻¹ Bᵀ L_T⁺ r, then z = r − B s.
            s.clear();
            s.extend(c.edges.iter().map(|&(u, v)| z[u] - z[v]));
            c.capacitance.solve_in_place(s);
            z.copy_from_slice(r);
            for (&(u, v), &se) in c.edges.iter().zip(s.iter()) {
                z[u] -= se;
                z[v] += se;
            }
        });
        self.solver.solve_in_place(z);
    }
}

/// Symmetric Gauss–Seidel preconditioner on a Laplacian-like CSR matrix.
///
/// One application performs a forward then a backward sweep, which keeps
/// the preconditioner symmetric (a requirement for PCG). The diagonal is
/// regularized with a tiny shift so singular Laplacians stay sweepable.
#[derive(Debug, Clone)]
pub struct GaussSeidelPreconditioner {
    a: CsrMatrix,
    diag: Vec<f64>,
    sweeps: usize,
}

impl GaussSeidelPreconditioner {
    /// Wrap a symmetric CSR matrix; `sweeps` forward+backward passes per
    /// application (1 is standard).
    ///
    /// # Panics
    /// Panics if the matrix is not square or `sweeps == 0`.
    pub fn new(a: CsrMatrix, sweeps: usize) -> Self {
        assert_eq!(a.nrows(), a.ncols(), "gauss-seidel: square matrix required");
        assert!(sweeps > 0, "gauss-seidel: needs at least one sweep");
        let diag: Vec<f64> = a
            .diagonal()
            .iter()
            .map(|&d| if d.abs() < 1e-300 { 1.0 } else { d })
            .collect();
        GaussSeidelPreconditioner { a, diag, sweeps }
    }

    /// One forward Gauss–Seidel sweep updating `x` in place.
    pub fn sweep_forward(&self, b: &[f64], x: &mut [f64]) {
        self.forward(b, x);
    }

    /// One backward Gauss–Seidel sweep updating `x` in place.
    pub fn sweep_backward(&self, b: &[f64], x: &mut [f64]) {
        self.backward(b, x);
    }

    fn forward(&self, b: &[f64], x: &mut [f64]) {
        let n = self.diag.len();
        for i in 0..n {
            let (cols, vals) = self.a.row(i);
            let mut s = b[i];
            for (c, v) in cols.iter().zip(vals) {
                if *c != i {
                    s -= v * x[*c];
                }
            }
            x[i] = s / self.diag[i];
        }
    }

    fn backward(&self, b: &[f64], x: &mut [f64]) {
        let n = self.diag.len();
        for i in (0..n).rev() {
            let (cols, vals) = self.a.row(i);
            let mut s = b[i];
            for (c, v) in cols.iter().zip(vals) {
                if *c != i {
                    s -= v * x[*c];
                }
            }
            x[i] = s / self.diag[i];
        }
    }

    /// Run `sweeps` symmetric smoothing passes on `x` for `A x = b`.
    pub fn smooth(&self, b: &[f64], x: &mut [f64]) {
        for _ in 0..self.sweeps {
            self.forward(b, x);
            self.backward(b, x);
        }
    }
}

impl Preconditioner for GaussSeidelPreconditioner {
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        z.iter_mut().for_each(|v| *v = 0.0);
        self.smooth(r, z);
        vecops::project_out_mean(z);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::SolverPolicy;
    use sgl_graph::laplacian::laplacian_csr;
    use sgl_linalg::cg::{pcg_solve, CgOptions};
    use sgl_linalg::{ProjectedOperator, Rng};

    fn cycle_graph(n: usize) -> Graph {
        let mut edges: Vec<(usize, usize, f64)> = (0..n - 1).map(|i| (i, i + 1, 1.0)).collect();
        edges.push((n - 1, 0, 1.0));
        Graph::from_edges(n, edges)
    }

    fn solve_with<M: Preconditioner>(g: &Graph, m: &M, seed: u64) -> usize {
        let l = laplacian_csr(g);
        let mut rng = Rng::seed_from_u64(seed);
        let mut b = rng.normal_vec(g.num_nodes());
        vecops::project_out_mean(&mut b);
        let opts = CgOptions {
            rtol: 1e-10,
            project_mean: true,
            ..CgOptions::default()
        };
        let p = ProjectedOperator::new(&l);
        let sol = pcg_solve(&p, m, &b, &opts).unwrap();
        // Verify residual.
        let lx = l.matvec(&sol.x);
        let mut r = vecops::sub(&b, &lx);
        vecops::project_out_mean(&mut r);
        assert!(vecops::norm2(&r) / vecops::norm2(&b) < 1e-8);
        sol.iterations
    }

    #[test]
    fn tree_preconditioner_is_exact_on_trees() {
        let tree = Graph::from_edges(50, (0..49).map(|i| (i, i + 1, 1.0 + i as f64)));
        // Through `from_graph`, k = 0: a pure tree needs no correction.
        let from_graph = TreePreconditioner::from_graph(&tree);
        assert!(from_graph.off_tree.is_none());
        assert_eq!(exact_tree_or_amg(&tree).0, PolicyMethod::TreePcg);
        for m in [TreePreconditioner::from_tree(&tree), from_graph] {
            let iters = solve_with(&tree, &m, 3);
            assert!(iters <= 2, "tree-preconditioned solve took {iters} iters");
        }
    }

    #[test]
    fn tree_preconditioner_fast_on_near_tree() {
        // Cycle = tree + one edge.
        let g = cycle_graph(100);
        let m = TreePreconditioner::from_graph(&g);
        let iters = solve_with(&g, &m, 4);
        assert_eq!(iters, 1, "near-tree solve took {iters} iters");
    }

    #[test]
    fn off_tree_correction_is_exact_across_four_decades() {
        // A random recursive tree on 200 nodes plus 20 chords (k² = 400
        // ≤ 16·n), every conductance log-uniform in [1e-2, 1e2].
        let n = 200;
        let g = sgl_datasets::weighted_near_tree(n, 20, 11);
        let m = TreePreconditioner::from_graph(&g);
        assert_eq!(m.off_tree.as_ref().map(|c| c.edges.len()), Some(20));
        assert_eq!(exact_tree_or_amg(&g).0, PolicyMethod::TreePcg);

        let dense = SolverPolicy::default()
            .with_method(PolicyMethod::DenseCholesky)
            .build_handle(&g)
            .unwrap();
        let l = laplacian_csr(&g);
        let opts = CgOptions {
            rtol: 1e-10,
            project_mean: true,
            ..CgOptions::default()
        };
        for seed in 0..3 {
            let mut b = Rng::seed_from_u64(seed).normal_vec(n);
            vecops::project_out_mean(&mut b);
            let x = pcg_solve(&ProjectedOperator::new(&l), &m, &b, &opts).unwrap();
            assert_eq!(x.iterations, 1, "seed {seed}");
            let want = dense.solve(&b).unwrap();
            let d = vecops::sub(&x.x, &want);
            let rel = vecops::norm2(&d) / vecops::norm2(&want);
            assert!(rel < 1e-10, "seed {seed}: {rel:.3e} from dense Cholesky");
        }
    }

    #[test]
    fn plain_tree_solve_outside_the_exactness_rule() {
        // A 7×7 grid has k = 36 off-tree edges, and k² > 16·49.
        let g = sgl_datasets::grid2d(7, 7);
        let m = TreePreconditioner::from_graph(&g);
        assert!(m.off_tree.is_none());
        assert_eq!(exact_tree_or_amg(&g).0, PolicyMethod::AmgPcg);
        assert!(solve_with(&g, &m, 7) > 1);
    }

    #[test]
    fn gauss_seidel_solves_cycle() {
        let g = cycle_graph(30);
        let m = GaussSeidelPreconditioner::new(laplacian_csr(&g), 1);
        let iters = solve_with(&g, &m, 5);
        assert!(iters < 100);
    }

    #[test]
    fn gauss_seidel_smooth_reduces_residual() {
        let g = cycle_graph(20);
        let l = laplacian_csr(&g);
        let m = GaussSeidelPreconditioner::new(l.clone(), 2);
        let mut rng = Rng::seed_from_u64(9);
        let mut b = rng.normal_vec(20);
        vecops::project_out_mean(&mut b);
        let mut x = vec![0.0; 20];
        let r0 = vecops::norm2(&b);
        m.smooth(&b, &mut x);
        let lx = l.matvec(&x);
        let mut r = vecops::sub(&b, &lx);
        vecops::project_out_mean(&mut r);
        assert!(vecops::norm2(&r) < r0);
    }

    #[test]
    #[should_panic(expected = "connected")]
    fn tree_preconditioner_rejects_disconnected() {
        let g = Graph::from_edges(4, [(0, 1, 1.0), (2, 3, 1.0)]);
        TreePreconditioner::from_graph(&g);
    }
}
