//! Exact brute-force nearest-neighbor search.
//!
//! Every neighbor table is ordered, and selected, by `(distance, index)`
//! with distances compared by [`f64::total_cmp`]: under exact ties the
//! lower index comes first and survives a cut at `k`. A strict total order
//! makes the `k` smallest candidates of a row unique, so a table does not
//! depend on the order its candidates were offered in.
//!
//! [`BruteForceKnn::knn`] and [`BruteForceKnn::knn_of_point`] scan the
//! points once per query. [`BruteForceKnn::all_knn`] instead makes one
//! blocked pass over the upper triangle of the point set: 64-row tiles
//! sweep a panel-packed copy of the points, one L1-sized column strip at
//! a time, through the crate's 2-row × 8-point distance kernel. Each
//! unordered pair is computed once and offered to both of its rows, and
//! each worker keeps bounded top-`k` tables that are merged after the
//! join.

use crate::kernel::{block, Panels, LANES};
use sgl_linalg::{par, vecops, DenseMatrix};
use std::cmp::Ordering;
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// Rows per tile of the all-kNN pass.
const TILE: usize = 64;

/// Panels per column strip of the all-kNN pass: 16 panels of
/// 20-dimensional points take 20 KiB, so a strip and a tile's rows share
/// L1.
const STRIP: usize = 16;

// A block's offers fit one `u32` mask (see `TopK::admits`).
const _: () = assert!(4 * LANES <= 32);

/// Exact kNN by linear scan. Whole neighbor tables are built by one
/// blocked pass, in parallel through the shared [`par`] layer (the
/// ambient thread count — `SglConfig::parallelism`, a
/// [`par::with_threads`] scope, or `SGL_NUM_THREADS` — controls the
/// fan-out).
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
    /// pairs in ascending `(distance, index)` order (fewer than `k` when
    /// the index holds fewer points).
    pub fn knn(&self, query: &[f64], k: usize) -> Vec<(usize, f64)> {
        self.scan(query, k, None)
    }

    /// Like [`BruteForceKnn::knn`] for an indexed point, excluding the
    /// point itself.
    pub fn knn_of_point(&self, index: usize, k: usize) -> Vec<(usize, f64)> {
        self.scan(self.data.row(index), k, Some(index))
    }

    /// Neighbor tables for every indexed point (excluding self), each
    /// equal to [`BruteForceKnn::knn_of_point`] of that point, with every
    /// distance bit-identical to [`vecops::dist_sq`]. The result is the
    /// same at every thread count.
    pub fn all_knn(&self, k: usize) -> Vec<Vec<(usize, f64)>> {
        all_knn(&self.data, k)
    }

    fn scan(&self, query: &[f64], k: usize, exclude: Option<usize>) -> Vec<(usize, f64)> {
        assert_eq!(query.len(), self.data.ncols(), "query dimension mismatch");
        // Points arrive in index order, so a tied newcomer ranks after
        // every entry of equal distance.
        let mut best: Vec<(usize, f64)> = Vec::with_capacity(k + 1);
        for i in 0..self.data.nrows() {
            if Some(i) == exclude {
                continue;
            }
            let d = vecops::dist_sq(self.data.row(i), query);
            if best.len() == k && best.last().is_none_or(|last| d.total_cmp(&last.1).is_ge()) {
                continue;
            }
            let pos = best.partition_point(|p| p.1.total_cmp(&d).is_le());
            best.insert(pos, (i, d));
            best.truncate(k);
        }
        best
    }
}

/// The blocked all-kNN pass behind [`BruteForceKnn::all_knn`].
pub(crate) fn all_knn(x: &DenseMatrix, k: usize) -> Vec<Vec<(usize, f64)>> {
    let n = x.nrows();
    let k = k.min(n.saturating_sub(1));
    if k == 0 {
        return vec![Vec::new(); n];
    }
    let all: Vec<usize> = (0..n).collect();
    let panels = Panels::pack(x, &all);
    // The upper triangle in blocks of one row tile × one column strip.
    // Tiles run last to first and strips away from the diagonal, so on
    // inputs whose near neighbors have near indices a row meets its close
    // candidates first and its table's threshold tightens early. Blocks
    // are small, so workers claiming them in turn stay balanced; which
    // worker sees a pair cannot change the merged tables.
    let blocks: Vec<(usize, usize)> = (0..n.div_ceil(TILE))
        .rev()
        .flat_map(|tile| {
            (tile * TILE / LANES..panels.num_panels())
                .step_by(STRIP)
                .map(move |strip| (tile, strip))
        })
        .collect();
    let next = AtomicUsize::new(0);
    let workers = par::current_threads().min(blocks.len());
    let mut tables = par::map_indexed(workers, 1, |_| {
        let mut t = TopK::new(n, k);
        while let Some(&(tile, strip)) = blocks.get(next.fetch_add(1, Relaxed)) {
            sweep(x, &panels, tile, strip, &mut t);
        }
        t
    })
    .into_iter();
    let mut merged = tables.next().expect("at least one worker");
    for t in tables {
        merged.absorb(&t);
    }
    merged.into_tables()
}

/// Offer every pair `(i, j)` with `i` in row tile `tile`, `j` in the
/// column strip of [`STRIP`] panels from panel `strip`, and `j > i` to
/// both rows' tables. The strip stays in L1 while every row pair of the
/// tile passes over it.
fn sweep(x: &DenseMatrix, panels: &Panels, tile: usize, strip: usize, t: &mut TopK) {
    let n = x.nrows();
    let strip_end = (strip + STRIP).min(panels.num_panels());
    for i0 in (tile * TILE..((tile + 1) * TILE).min(n)).step_by(2) {
        // An odd last row runs as its own partner: no point lies past it,
        // so the copy offers nothing.
        let i1 = (i0 + 1).min(n - 1);
        let (a0, a1) = (x.row(i0), x.row(i1));
        for p in strip.max((i0 + 1) / LANES)..strip_end {
            let s = block(a0, a1, panels.panel(p));
            let j0 = p * LANES;
            // Lanes `j` with `i < j < n`, for row i0 and for row i1.
            let lanes = |i: usize| {
                let lo = (i + 1).saturating_sub(j0).min(LANES);
                let hi = (n - j0).min(LANES);
                (1u32 << hi) - (1u32 << lo.min(hi))
            };
            let (v0, v1) = (lanes(i0), lanes(i1));
            let valid = v0 | v1 << LANES | v0 << (2 * LANES) | v1 << (3 * LANES);
            let mut hits = t.admits(i0, i1, j0, &s) & valid;
            while hits != 0 {
                let bit = hits.trailing_zeros() as usize;
                hits &= hits - 1;
                let (r, l) = (bit / LANES % 2, bit % LANES);
                let (i, j, d) = ([i0, i1][r], j0 + l, s[r][l]);
                let (row, cand) = if bit < 2 * LANES { (i, j) } else { (j, i) };
                t.insert(row, cand, d);
            }
        }
    }
}

/// The `(distance, index)` order every table keeps.
fn order(a: (f64, usize), b: (f64, usize)) -> Ordering {
    a.0.total_cmp(&b.0).then(a.1.cmp(&b.1))
}

/// Whether distance `d` may enter a table whose threshold is `t`: it is
/// not strictly above it. NaN is never above, and [`order`] ranks it.
#[inline(always)]
fn clears(d: f64, t: f64) -> bool {
    d.partial_cmp(&t) != Some(Ordering::Greater)
}

/// Bounded per-row top-`k` tables under [`order`], `k ≥ 1`.
struct TopK {
    k: usize,
    /// Row `r`'s table: its first `len[r]` entries of `items[r·k ..]`,
    /// ascending.
    items: Vec<(f64, usize)>,
    len: Vec<usize>,
    /// Row `r`'s worst kept distance once its table is full, else `+∞`
    /// (also past the last row, up to a whole panel). A candidate
    /// strictly above it can never enter the table.
    thr: Vec<f64>,
}

impl TopK {
    fn new(n: usize, k: usize) -> Self {
        TopK {
            k,
            items: vec![(0.0, 0); n * k],
            len: vec![0; n],
            thr: vec![f64::INFINITY; n.next_multiple_of(LANES)],
        }
    }

    /// The offers of a block that clear their row's threshold, as a bit
    /// mask with `L = LANES`: bit `l` for `(i0 ← j0 + l)`, `L + l` for
    /// `(i1 ← j0 + l)`, `2L + l` for `(j0 + l ← i0)` and `3L + l` for
    /// `(j0 + l ← i1)`. Almost every block clears none once the tables
    /// fill, so the mask is computed without branches.
    #[inline(always)]
    fn admits(&self, i0: usize, i1: usize, j0: usize, s: &[[f64; LANES]; 2]) -> u32 {
        let (t0, t1) = (self.thr[i0], self.thr[i1]);
        let tj = &self.thr[j0..j0 + LANES];
        let mut mask = 0u32;
        for l in 0..LANES {
            let (d0, d1) = (s[0][l], s[1][l]);
            mask |= u32::from(clears(d0, t0)) << l
                | u32::from(clears(d1, t1)) << (LANES + l)
                | u32::from(clears(d0, tj[l])) << (2 * LANES + l)
                | u32::from(clears(d1, tj[l])) << (3 * LANES + l);
        }
        mask
    }

    /// Insert candidate `cand` at distance `d` into row `row` if it ranks
    /// among the row's `k` best.
    fn insert(&mut self, row: usize, cand: usize, d: f64) {
        let k = self.k;
        let len = self.len[row];
        let slots = &mut self.items[row * k..(row + 1) * k];
        if len == k && order((d, cand), slots[k - 1]).is_ge() {
            return;
        }
        // Shift the worse entries right (dropping the last of a full
        // table) and drop the candidate into the gap.
        let mut pos = len.min(k - 1);
        while pos > 0 && order((d, cand), slots[pos - 1]).is_lt() {
            slots[pos] = slots[pos - 1];
            pos -= 1;
        }
        slots[pos] = (d, cand);
        self.len[row] = (len + 1).min(k);
        if len + 1 >= k {
            self.thr[row] = slots[k - 1].0;
        }
    }

    /// Offer every entry of `other`'s tables.
    fn absorb(&mut self, other: &TopK) {
        for row in 0..self.len.len() {
            let start = row * other.k;
            for &(d, cand) in &other.items[start..start + other.len[row]] {
                self.insert(row, cand, d);
            }
        }
    }

    fn into_tables(self) -> Vec<Vec<(usize, f64)>> {
        self.items
            .chunks_exact(self.k)
            .zip(&self.len)
            .map(|(slots, &len)| slots[..len].iter().map(|&(d, j)| (j, d)).collect())
            .collect()
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
        assert_eq!(idx.all_knn(10)[0], nn);
    }

    #[test]
    fn exact_ties_are_ordered_and_selected_by_index() {
        let mut rows = vec![vec![0.0], vec![1.0], vec![-1.0], vec![3.0], vec![1.0]];
        let idx = BruteForceKnn::new(&DenseMatrix::from_rows(&rows));
        let want = vec![(1, 1.0), (2, 1.0), (4, 1.0)];
        assert_eq!(idx.knn_of_point(0, 3), want);
        assert_eq!(idx.knn(&[0.0], 4)[1..], want[..]);
        assert_eq!(idx.all_knn(3)[0], want);
        rows.push(vec![0.5]);
        let idx = BruteForceKnn::new(&DenseMatrix::from_rows(&rows));
        let want = vec![(5, 0.25), (1, 1.0), (2, 1.0)];
        assert_eq!(idx.knn_of_point(0, 3), want);
        assert_eq!(idx.all_knn(3)[0], want);
    }

    #[test]
    fn all_knn_matches_individual_queries() {
        let mut rng = Rng::seed_from_u64(6);
        let data = DenseMatrix::from_fn(160, 3, |_, _| rng.standard_normal());
        let idx = BruteForceKnn::new(&data);
        let all = sgl_linalg::par::with_threads(3, || idx.all_knn(5));
        for (i, table) in all.iter().enumerate() {
            assert_eq!(*table, idx.knn_of_point(i, 5), "row {i}");
        }
    }

    #[test]
    fn all_knn_identical_at_any_thread_count() {
        let mut rng = Rng::seed_from_u64(7);
        let data = DenseMatrix::from_fn(290, 4, |_, _| rng.standard_normal());
        let idx = BruteForceKnn::new(&data);
        let serial = sgl_linalg::par::with_threads(1, || idx.all_knn(6));
        for t in [2usize, 5] {
            let par = sgl_linalg::par::with_threads(t, || idx.all_knn(6));
            assert_eq!(par, serial, "threads = {t}");
        }
    }
}
