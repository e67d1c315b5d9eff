//! The blocked squared-distance kernel shared by the all-kNN pass and the
//! connectivity repair.
//!
//! Points are packed into panels of [`LANES`] points stored dimension by
//! dimension, and [`block`] computes the distances from two rows to one
//! panel at a time. The kernel vectorizes across the panel's points
//! (lanes), never across dimensions: every lane's sum starts at `-0.0`
//! (the additive identity `Iterator::sum` starts from) and adds
//! `(a_t − b_t)²` for `t = 0..d` in order, exactly as
//! [`vecops::dist_sq`](sgl_linalg::vecops::dist_sq) does. Each step is
//! one correctly rounded IEEE operation and Rust never contracts
//! `x * x + s` into a fused multiply-add, so every distance is
//! bit-identical to `dist_sq`, in either argument order
//! (`(a − b)² == (b − a)²` exactly).

use sgl_linalg::DenseMatrix;

/// Points per panel: the kernel's register block is 2 rows × `LANES`
/// points.
pub(crate) const LANES: usize = 8;

/// A padded copy of selected rows, packed for [`block`]: panel `p` holds
/// points `p·LANES .. p·LANES + LANES` of the selection, value `t` of
/// every lane contiguous at `data[p·d + t]`. Lanes past the last point
/// hold `+∞`, so their distances (`+∞`, or NaN against an infinite
/// row) never win a strict `<`; callers still skip them.
pub(crate) struct Panels {
    data: Vec<[f64; LANES]>,
    dim: usize,
    len: usize,
}

impl Panels {
    /// Pack rows `rows` of `x`, in the given order.
    pub(crate) fn pack(x: &DenseMatrix, rows: &[usize]) -> Self {
        let dim = x.ncols();
        let mut data = vec![[f64::INFINITY; LANES]; rows.len().div_ceil(LANES) * dim];
        for (slot, &r) in rows.iter().enumerate() {
            let (p, l) = (slot / LANES, slot % LANES);
            for (t, &v) in x.row(r).iter().enumerate() {
                data[p * dim + t][l] = v;
            }
        }
        Panels {
            data,
            dim,
            len: rows.len(),
        }
    }

    /// Number of packed points.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Number of panels, `⌈len / LANES⌉`.
    pub(crate) fn num_panels(&self) -> usize {
        self.len.div_ceil(LANES)
    }

    /// Panel `p`: `d` groups of `LANES` values.
    pub(crate) fn panel(&self, p: usize) -> &[[f64; LANES]] {
        &self.data[p * self.dim..(p + 1) * self.dim]
    }
}

/// Squared distances from rows `a0` and `a1` to the points of `panel`,
/// bit-identical to `dist_sq` lane by lane (see the module docs).
#[inline(always)]
pub(crate) fn block(a0: &[f64], a1: &[f64], panel: &[[f64; LANES]]) -> [[f64; LANES]; 2] {
    let mut s0 = [-0.0; LANES];
    let mut s1 = [-0.0; LANES];
    for ((&x0, &x1), b) in a0.iter().zip(a1).zip(panel) {
        for l in 0..LANES {
            let e = x0 - b[l];
            s0[l] += e * e;
        }
        for l in 0..LANES {
            let e = x1 - b[l];
            s1[l] += e * e;
        }
    }
    [s0, s1]
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgl_linalg::{vecops, Rng};

    #[test]
    fn block_matches_dist_sq_bit_for_bit() {
        let mut rng = Rng::seed_from_u64(3);
        for (n, d) in [(1usize, 1usize), (7, 3), (19, 20), (8, 0)] {
            let x = DenseMatrix::from_fn(n, d, |_, _| rng.standard_normal() * 1e3);
            let rows: Vec<usize> = (0..n).collect();
            let panels = Panels::pack(&x, &rows);
            assert_eq!(panels.len(), n);
            for (a0, a1) in [(0usize, n - 1), (n / 2, 0)] {
                for p in 0..panels.num_panels() {
                    let s = block(x.row(a0), x.row(a1), panels.panel(p));
                    for l in 0..LANES.min(n - p * LANES) {
                        let b = x.row(p * LANES + l);
                        for (a, got) in [(a0, s[0][l]), (a1, s[1][l])] {
                            assert_eq!(got.to_bits(), vecops::dist_sq(x.row(a), b).to_bits());
                            assert_eq!(got.to_bits(), vecops::dist_sq(b, x.row(a)).to_bits());
                        }
                    }
                }
            }
        }
    }
}
