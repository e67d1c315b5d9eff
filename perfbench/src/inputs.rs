//! Seeded workload inputs.
//!
//! Each workload fixes its dataset (a grid with fixed excitations, or a
//! fixed Gaussian-mixture cloud) and the seed relabels its nodes with a
//! random permutation and draws the queries. Every seed therefore gets
//! different input bytes and different queries for an isomorphic
//! problem, so the amount of learning work stays comparable from seed
//! to seed. The program only ever sees the generated matrices.

use sgl_core::{sample_node_pairs, Measurements};
use sgl_graph::Graph;
use sgl_linalg::{DenseMatrix, Rng};

/// Excitation seed of the fixed grid measurements.
const GRID_EXCITATION_SEED: u64 = 7;
/// Seed of the fixed Gaussian-mixture cloud.
const CLOUD_SEED: u64 = 17;
/// Node pairs per resistance query.
pub const PAIRS_PER_QUERY: usize = 8;
/// Distinct resistance queries in a workload's pool.
pub const QUERY_POOL: usize = 64;

/// A well-mixed sub-seed (splitmix64 of `seed` and `i`).
pub fn sub_seed(seed: u64, i: u64) -> u64 {
    let mut z = seed ^ i.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A uniformly random permutation of `0..n`: new node `i` is old node
/// `perm[i]`.
pub fn permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut rng = Rng::seed_from_u64(seed);
    let mut p: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        p.swap(i, rng.below(i + 1));
    }
    p
}

/// Rows of `a` in the order `perm` gives.
pub fn relabel_rows(a: &DenseMatrix, perm: &[usize]) -> DenseMatrix {
    DenseMatrix::from_fn(a.nrows(), a.ncols(), |i, j| a.get(perm[i], j))
}

/// `g` with node `perm[i]` renamed `i`.
pub fn relabel_graph(g: &Graph, perm: &[usize]) -> Graph {
    let mut new_of = vec![0; perm.len()];
    for (new, &old) in perm.iter().enumerate() {
        new_of[old] = new;
    }
    let edges = g
        .edges()
        .iter()
        .map(|e| (new_of[e.u], new_of[e.v], e.weight));
    Graph::from_edges(g.num_nodes(), edges)
}

/// The grid learn input: the relabelled truth and its measurements.
pub struct GridInput {
    /// Ground-truth grid, relabelled.
    pub truth: Graph,
    /// `m` voltage/current pairs on `truth`.
    pub meas: Measurements,
}

/// A `side × side` grid with `m` fixed excitations, relabelled by `seed`.
pub fn grid(side: usize, m: usize, seed: u64) -> GridInput {
    let truth = sgl_datasets::grid2d(side, side);
    let base = Measurements::generate(&truth, m, GRID_EXCITATION_SEED)
        .expect("a connected grid yields measurements");
    let perm = permutation(truth.num_nodes(), sub_seed(seed, 0));
    let currents = base
        .currents()
        .expect("generated measurements carry currents");
    GridInput {
        truth: relabel_graph(&truth, &perm),
        meas: Measurements::new(
            relabel_rows(base.voltages(), &perm),
            relabel_rows(currents, &perm),
        )
        .expect("relabelled measurements stay valid"),
    }
}

/// The fixed `n × dim` Gaussian-mixture cloud (four clusters).
fn base_cloud(n: usize, dim: usize) -> DenseMatrix {
    let mut rng = Rng::seed_from_u64(CLOUD_SEED);
    let centers: Vec<Vec<f64>> = (0..4).map(|_| rng.normal_vec(dim)).collect();
    DenseMatrix::from_fn(n, dim, |i, j| {
        3.0 * centers[i % 4][j] + rng.standard_normal()
    })
}

/// `copies` relabellings of the fixed cloud, used directly as
/// voltage-only data.
pub fn clouds(n: usize, dim: usize, copies: usize, seed: u64) -> Vec<Measurements> {
    let base = base_cloud(n, dim);
    (0..copies)
        .map(|c| {
            let perm = permutation(n, sub_seed(seed, 1 + c as u64));
            Measurements::from_voltages(relabel_rows(&base, &perm))
                .expect("a finite cloud is valid voltage data")
        })
        .collect()
}

/// The workload's pool of resistance queries over `n` nodes.
pub fn query_pool(n: usize, seed: u64) -> Vec<Vec<(usize, usize)>> {
    let pairs = sample_node_pairs(n, QUERY_POOL * PAIRS_PER_QUERY, sub_seed(seed, 1 << 20));
    pairs
        .chunks(PAIRS_PER_QUERY)
        .map(<[(usize, usize)]>::to_vec)
        .collect()
}

/// One request of the serving mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Request {
    /// `POST /resistances` with pool query `set`.
    Resistances(usize),
    /// `POST /interpolate` with the given injection vector.
    Interpolate(usize),
    /// `GET /coords/{node}`.
    Coords(usize),
    /// `GET /cluster/{node}`.
    Cluster(usize),
    /// `GET /distance/{s}/{t}`.
    Distance(usize, usize),
}

impl Request {
    /// Whether the request needs a solve (the `solve` class) rather than
    /// a snapshot lookup.
    pub fn is_solve(self) -> bool {
        matches!(self, Request::Resistances(_) | Request::Interpolate(_))
    }
}

/// Distinct injection vectors the interpolate requests cycle through.
pub const INJECTIONS: usize = 4;

/// `count` requests of the serving mix over `n` nodes: 40% resistance
/// queries, 10% interpolations, 50% lookups split evenly over coords,
/// cluster and distance.
///
/// No traffic record of a resistance-serving system exists to copy, so
/// the proportions are assumptions, each with its reason:
/// - solves and lookups half each: the two classes carry their own
///   latency figures, and an even split gives both the same sample count
///   for their tails;
/// - four resistance queries to one interpolation: effective resistance
///   is the paper's query, so it leads the solve class, while one solve
///   request in five still takes the full-length JSON body path in both
///   directions;
/// - lookups even over the three endpoints: nothing favours one of them.
pub fn request_mix(n: usize, count: usize, seed: u64) -> Vec<Request> {
    let mut rng = Rng::seed_from_u64(seed);
    (0..count)
        .map(|_| {
            let roll = rng.below(100);
            let node = rng.below(n);
            match roll {
                0..=39 => Request::Resistances(rng.below(QUERY_POOL)),
                40..=49 => Request::Interpolate(rng.below(INJECTIONS)),
                50..=66 => Request::Coords(node),
                67..=83 => Request::Cluster(node),
                _ => {
                    let other = (node + 1 + rng.below(n - 1)) % n;
                    Request::Distance(node, other)
                }
            }
        })
        .collect()
}

/// Zero-sum current injection vectors for the interpolate requests.
pub fn injections(n: usize, seed: u64) -> Vec<Vec<f64>> {
    let mut rng = Rng::seed_from_u64(seed);
    (0..INJECTIONS)
        .map(|_| {
            let mut v = rng.normal_vec(n);
            let mean = v.iter().sum::<f64>() / n as f64;
            v.iter_mut().for_each(|x| *x -= mean);
            v
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bits(m: &DenseMatrix) -> Vec<u64> {
        (0..m.nrows())
            .flat_map(|i| (0..m.ncols()).map(move |j| (i, j)))
            .map(|(i, j)| m.get(i, j).to_bits())
            .collect()
    }

    #[test]
    fn permutation_is_a_bijection() {
        let mut p = permutation(50, 3);
        p.sort_unstable();
        assert_eq!(p, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn relabelling_keeps_the_graph_isomorphic() {
        let g = sgl_datasets::grid2d(3, 3);
        let perm = permutation(9, 5);
        let r = relabel_graph(&g, &perm);
        assert_eq!(r.num_edges(), g.num_edges());
        for e in r.edges() {
            assert!(g
                .edges()
                .iter()
                .any(|f| (f.u, f.v) == (perm[e.u].min(perm[e.v]), perm[e.u].max(perm[e.v]))));
        }
    }

    #[test]
    fn same_seed_gives_the_same_inputs() {
        let (a, b) = (grid(6, 4, 11), grid(6, 4, 11));
        assert_eq!(bits(a.meas.voltages()), bits(b.meas.voltages()));
        let (ca, cb) = (clouds(40, 3, 2, 11), clouds(40, 3, 2, 11));
        assert_eq!(bits(ca[1].voltages()), bits(cb[1].voltages()));
        assert_eq!(query_pool(36, 11), query_pool(36, 11));
        assert_eq!(request_mix(36, 200, 11), request_mix(36, 200, 11));
        assert_eq!(injections(36, 11), injections(36, 11));
    }

    #[test]
    fn another_seed_gives_different_inputs() {
        let (a, b) = (grid(6, 4, 11), grid(6, 4, 12));
        assert_ne!(bits(a.meas.voltages()), bits(b.meas.voltages()));
        let (ca, cb) = (clouds(40, 3, 1, 11), clouds(40, 3, 1, 12));
        assert_ne!(bits(ca[0].voltages()), bits(cb[0].voltages()));
        assert_ne!(query_pool(36, 11), query_pool(36, 12));
        assert_ne!(request_mix(36, 200, 11), request_mix(36, 200, 12));
    }

    #[test]
    fn request_mix_has_every_class() {
        let mix = request_mix(100, 2000, 1);
        let solves = mix.iter().filter(|r| r.is_solve()).count();
        assert!((800..1200).contains(&solves), "{solves} solve requests");
        for probe in [
            |r: &Request| matches!(r, Request::Interpolate(_)),
            |r: &Request| matches!(r, Request::Coords(_)),
            |r: &Request| matches!(r, Request::Cluster(_)),
            |r: &Request| matches!(r, Request::Distance(s, t) if s != t),
        ] {
            assert!(mix.iter().any(probe));
        }
    }
}
