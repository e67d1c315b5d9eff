//! Exact brute-force nearest-neighbor search.

use sgl_linalg::{par, vecops, DenseMatrix};

/// Exact kNN by linear scan; whole neighbor tables are built in parallel
/// across queries through the shared [`par`] layer (the ambient thread
/// count — `SglConfig::parallelism`, a [`par::with_threads`] scope, or
/// `SGL_NUM_THREADS` — controls the fan-out).
#[derive(Debug, Clone)]
pub struct BruteForceKnn {
    data: DenseMatrix,
}

impl BruteForceKnn {
    /// Index the rows of `data`.
    pub fn new(data: &DenseMatrix) -> Self {
        BruteForceKnn { data: data.clone() }
    }

    /// The `k` nearest points to `query`, as `(index, squared_distance)`
    /// pairs in ascending distance order (fewer than `k` when the index
    /// holds fewer points).
    pub fn knn(&self, query: &[f64], k: usize) -> Vec<(usize, f64)> {
        self.scan(query, k, None)
    }

    /// Like [`BruteForceKnn::knn`] for an indexed point, excluding the
    /// point itself.
    pub fn knn_of_point(&self, index: usize, k: usize) -> Vec<(usize, f64)> {
        let q = self.data.row(index).to_vec();
        self.scan(&q, k, Some(index))
    }

    /// Neighbor tables for every indexed point (excluding self),
    /// query-partitioned across the ambient [`par`] thread count. Each
    /// per-point table is computed by the identical serial scan, so the
    /// result is the same at every thread count.
    pub fn all_knn(&self, k: usize) -> Vec<Vec<(usize, f64)>> {
        let n = self.data.nrows();
        // Each query scans all n points; a handful of queries per chunk
        // is already far more work than a fork-join.
        par::map_indexed(n, 8, |i| self.knn_of_point(i, k))
    }

    fn scan(&self, query: &[f64], k: usize, exclude: Option<usize>) -> Vec<(usize, f64)> {
        assert_eq!(query.len(), self.data.ncols(), "query dimension mismatch");
        let n = self.data.nrows();
        // Bounded max-heap via sorted Vec is fine for the small k SGL uses.
        let mut best: Vec<(usize, f64)> = Vec::with_capacity(k + 1);
        for i in 0..n {
            if Some(i) == exclude {
                continue;
            }
            let d = vecops::dist_sq(self.data.row(i), query);
            if best.len() < k {
                best.push((i, d));
                best.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap());
            } else if let Some(last) = best.last() {
                if d < last.1 {
                    best.pop();
                    let pos = best
                        .binary_search_by(|p| p.1.partial_cmp(&d).unwrap())
                        .unwrap_or_else(|e| e);
                    best.insert(pos, (i, d));
                }
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgl_linalg::Rng;

    fn line_points(n: usize) -> DenseMatrix {
        DenseMatrix::from_rows(&(0..n).map(|i| vec![i as f64]).collect::<Vec<_>>())
    }

    #[test]
    fn nearest_on_line() {
        let idx = BruteForceKnn::new(&line_points(10));
        let nn = idx.knn(&[3.2], 3);
        assert_eq!(nn[0].0, 3);
        assert_eq!(nn[1].0, 4);
        assert_eq!(nn[2].0, 2);
        assert!((nn[0].1 - 0.04).abs() < 1e-12);
    }

    #[test]
    fn knn_of_point_excludes_self() {
        let idx = BruteForceKnn::new(&line_points(5));
        let nn = idx.knn_of_point(2, 2);
        assert!(!nn.iter().any(|&(i, _)| i == 2));
        assert_eq!(nn.len(), 2);
    }

    #[test]
    fn distances_are_sorted() {
        let mut rng = Rng::seed_from_u64(5);
        let data = DenseMatrix::from_fn(100, 4, |_, _| rng.standard_normal());
        let idx = BruteForceKnn::new(&data);
        let nn = idx.knn_of_point(0, 10);
        for w in nn.windows(2) {
            assert!(w[0].1 <= w[1].1);
        }
    }

    #[test]
    fn k_larger_than_n_returns_all_others() {
        let idx = BruteForceKnn::new(&line_points(4));
        let nn = idx.knn_of_point(0, 10);
        assert_eq!(nn.len(), 3);
    }

    #[test]
    fn all_knn_matches_individual_queries() {
        let mut rng = Rng::seed_from_u64(6);
        let data = DenseMatrix::from_fn(60, 3, |_, _| rng.standard_normal());
        let idx = BruteForceKnn::new(&data);
        let all = sgl_linalg::par::with_threads(3, || idx.all_knn(5));
        for i in [0usize, 17, 59] {
            assert_eq!(all[i], idx.knn_of_point(i, 5));
        }
    }

    #[test]
    fn all_knn_identical_at_any_thread_count() {
        let mut rng = Rng::seed_from_u64(7);
        let data = DenseMatrix::from_fn(90, 4, |_, _| rng.standard_normal());
        let idx = BruteForceKnn::new(&data);
        let serial = sgl_linalg::par::with_threads(1, || idx.all_knn(6));
        for t in [2usize, 5] {
            let par = sgl_linalg::par::with_threads(t, || idx.all_knn(6));
            assert_eq!(par, serial, "threads = {t}");
        }
    }
}
