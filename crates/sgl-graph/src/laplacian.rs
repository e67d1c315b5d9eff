//! Graph Laplacian operators: explicit CSR assembly and a matrix-free
//! form that applies `L x` straight off the edge list.

use crate::Graph;
use sgl_linalg::{CsrMatrix, LinearOperator};

/// Assemble the graph Laplacian `L = D − W` as a CSR matrix.
pub fn laplacian_csr(g: &Graph) -> CsrMatrix {
    let n = g.num_nodes();
    let mut trip = Vec::with_capacity(4 * g.num_edges());
    for e in g.edges() {
        trip.push((e.u, e.u, e.weight));
        trip.push((e.v, e.v, e.weight));
        trip.push((e.u, e.v, -e.weight));
        trip.push((e.v, e.u, -e.weight));
    }
    CsrMatrix::from_triplets(n, n, &trip)
}

/// Matrix-free Laplacian: `(L x)_u = Σ_{(u,v)∈E} w_uv (x_u − x_v)`.
///
/// Cheaper to build than the CSR form and fast enough for the edge counts
/// SGL works with (ultra-sparse graphs).
///
/// # Example
/// ```
/// use sgl_graph::{Graph, LaplacianOp};
/// use sgl_linalg::LinearOperator;
/// let g = Graph::from_edges(2, [(0, 1, 2.0)]);
/// let l = LaplacianOp::new(&g);
/// assert_eq!(l.apply_vec(&[1.0, 0.0]), vec![2.0, -2.0]);
/// ```
#[derive(Debug, Clone)]
pub struct LaplacianOp {
    num_nodes: usize,
    edges: Vec<(usize, usize, f64)>,
}

impl LaplacianOp {
    /// Capture the graph's edge list.
    pub fn new(g: &Graph) -> Self {
        LaplacianOp {
            num_nodes: g.num_nodes(),
            edges: g.edges().iter().map(|e| (e.u, e.v, e.weight)).collect(),
        }
    }

    /// Laplacian quadratic form `xᵀ L x = Σ w_uv (x_u − x_v)²` (eq. 1).
    ///
    /// # Panics
    /// Panics if `x.len()` differs from the node count.
    pub fn quadratic_form(&self, x: &[f64]) -> f64 {
        assert_eq!(x.len(), self.num_nodes, "quadratic_form: length mismatch");
        self.edges
            .iter()
            .map(|&(u, v, w)| {
                let d = x[u] - x[v];
                w * d * d
            })
            .sum()
    }
}

impl LinearOperator for LaplacianOp {
    fn dim(&self) -> usize {
        self.num_nodes
    }

    fn apply(&self, x: &[f64], y: &mut [f64]) {
        y.iter_mut().for_each(|v| *v = 0.0);
        for &(u, v, w) in &self.edges {
            let d = w * (x[u] - x[v]);
            y[u] += d;
            y[v] -= d;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgl_linalg::vecops;

    fn triangle() -> Graph {
        Graph::from_edges(3, [(0, 1, 1.0), (1, 2, 2.0), (0, 2, 3.0)])
    }

    #[test]
    fn csr_matches_matrix_free() {
        let g = triangle();
        let csr = laplacian_csr(&g);
        let op = LaplacianOp::new(&g);
        let x = [1.0, -2.0, 0.5];
        assert_eq!(csr.matvec(&x), op.apply_vec(&x));
    }

    #[test]
    fn laplacian_rows_sum_to_zero() {
        let g = triangle();
        let csr = laplacian_csr(&g);
        let ones = vec![1.0; 3];
        let y = csr.matvec(&ones);
        assert!(vecops::norm2(&y) < 1e-14);
    }

    #[test]
    fn quadratic_form_matches_eq1() {
        let g = triangle();
        let op = LaplacianOp::new(&g);
        let x = [1.0, 0.0, -1.0];
        // 1·(1-0)² + 2·(0+1)² + 3·(1+1)² = 1 + 2 + 12 = 15
        assert_eq!(op.quadratic_form(&x), 15.0);
        let csr = laplacian_csr(&g);
        assert!((csr.quadratic_form(&x) - 15.0).abs() < 1e-14);
    }

    #[test]
    fn diagonal_is_weighted_degree() {
        let g = triangle();
        let csr = laplacian_csr(&g);
        assert_eq!(csr.diagonal(), g.weighted_degrees());
    }

    #[test]
    fn laplacian_is_symmetric() {
        let g = triangle();
        assert_eq!(laplacian_csr(&g).symmetry_defect(), 0.0);
    }
}
