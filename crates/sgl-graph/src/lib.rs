//! Weighted undirected graph substrate for the SGL reproduction.
//!
//! A [`Graph`] models a resistor network: nodes are circuit nodes, an edge
//! `(s, t)` with weight `w` is a resistor of conductance `w`. The crate
//! supplies everything SGL's densification loop touches:
//!
//! * [`Graph`] and [`Edge`] — canonical edge-list storage with validation,
//! * [`AdjacencyCsr`] — neighbor iteration,
//! * [`laplacian`] — CSR and matrix-free Laplacian operators,
//! * [`coarsen`] — partition utilities and the Galerkin `Pᵀ L P` triple
//!   product behind the multilevel hierarchy,
//! * [`mst`] — Kruskal maximum spanning trees (Step 1 of Algorithm 1),
//! * [`traversal`] — BFS, connectivity, components,
//! * [`tree`] — rooted spanning-tree structure for `O(N)` tree solves,
//! * [`io`] — Matrix Market / edge-list import-export,
//! * [`stats`] — densities and degree statistics reported in the paper.
//!
//! # Example
//!
//! ```
//! use sgl_graph::{Graph, mst::maximum_spanning_tree};
//!
//! let mut g = Graph::new(4);
//! g.add_edge(0, 1, 2.0);
//! g.add_edge(1, 2, 1.0);
//! g.add_edge(2, 3, 3.0);
//! g.add_edge(3, 0, 0.5);
//! let tree = maximum_spanning_tree(&g);
//! assert_eq!(tree.edge_indices.len(), 3); // spanning tree of 4 nodes
//! ```

pub mod coarsen;
pub mod csr;
pub mod io;
pub mod laplacian;
pub mod mst;
pub mod stats;
pub mod traversal;
pub mod tree;
pub mod union_find;

pub use csr::AdjacencyCsr;
pub use laplacian::LaplacianOp;
pub use union_find::UnionFind;

use std::fmt;

/// An undirected weighted edge with canonical orientation `u < v`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Edge {
    /// Smaller endpoint.
    pub u: usize,
    /// Larger endpoint.
    pub v: usize,
    /// Positive weight (conductance).
    pub weight: f64,
}

impl Edge {
    /// Canonicalized edge (swaps endpoints if needed).
    ///
    /// # Panics
    /// Panics on self loops and non-positive/non-finite weights.
    pub fn new(u: usize, v: usize, weight: f64) -> Self {
        assert_ne!(u, v, "self loops are not allowed");
        assert!(
            weight > 0.0 && weight.is_finite(),
            "edge weight must be positive and finite, got {weight}"
        );
        let (u, v) = if u < v { (u, v) } else { (v, u) };
        Edge { u, v, weight }
    }

    /// The endpoint different from `x`.
    ///
    /// # Panics
    /// Panics if `x` is not an endpoint.
    pub fn other(&self, x: usize) -> usize {
        if x == self.u {
            self.v
        } else if x == self.v {
            self.u
        } else {
            panic!("node {x} is not an endpoint of ({}, {})", self.u, self.v)
        }
    }
}

/// Process-global source of [`Graph`] revision values: every mutation of
/// any graph draws a fresh value, so equal revisions imply equal content
/// (a clone shares its original's revision — and its exact content —
/// until either is mutated again).
static NEXT_REVISION: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(1);

#[inline]
fn fresh_revision() -> u64 {
    NEXT_REVISION.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
}

/// A weighted undirected graph stored as a validated edge list.
///
/// Parallel edges added through [`Graph::add_edge`] are merged by summing
/// weights (parallel resistors combine conductances).
#[derive(Debug, Clone, Default)]
pub struct Graph {
    num_nodes: usize,
    edges: Vec<Edge>,
    /// Map from canonical (u, v) to index in `edges` for merging.
    index: std::collections::HashMap<(usize, usize), usize>,
    /// Revision epoch: bumped to a process-unique value by every
    /// mutation, so caches can detect change in O(1).
    revision: u64,
}

impl Graph {
    /// Empty graph on `num_nodes` isolated nodes.
    pub fn new(num_nodes: usize) -> Self {
        Graph {
            num_nodes,
            edges: Vec::new(),
            index: std::collections::HashMap::new(),
            revision: fresh_revision(),
        }
    }

    /// The graph's revision epoch — an O(1) change detector for solver
    /// and preconditioner caches. Every mutating call ([`add_edge`],
    /// [`set_weight`], [`scale_weights`]) moves the graph to a fresh
    /// process-unique revision, so two graphs at the same revision are
    /// guaranteed to have identical content (they are clones with no
    /// mutation since the copy). The value itself is opaque: only
    /// equality is meaningful, not order.
    ///
    /// [`add_edge`]: Graph::add_edge
    /// [`set_weight`]: Graph::set_weight
    /// [`scale_weights`]: Graph::scale_weights
    #[inline]
    pub fn revision(&self) -> u64 {
        self.revision
    }

    /// Build from an edge iterator (merging duplicates).
    ///
    /// # Panics
    /// Panics if an endpoint is out of range, on self loops, or on
    /// non-positive weights.
    pub fn from_edges(
        num_nodes: usize,
        edges: impl IntoIterator<Item = (usize, usize, f64)>,
    ) -> Self {
        let mut g = Graph::new(num_nodes);
        for (u, v, w) in edges {
            g.add_edge(u, v, w);
        }
        g
    }

    /// Number of nodes.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Number of (merged) edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Borrow the edge list.
    #[inline]
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Edge by index.
    ///
    /// # Panics
    /// Panics if `i` is out of bounds.
    #[inline]
    pub fn edge(&self, i: usize) -> Edge {
        self.edges[i]
    }

    /// Add (or merge into) an undirected edge; returns its index.
    ///
    /// # Panics
    /// Panics if an endpoint is out of range, on self loops, or if the
    /// weight is not positive and finite.
    pub fn add_edge(&mut self, u: usize, v: usize, weight: f64) -> usize {
        assert!(
            u < self.num_nodes && v < self.num_nodes,
            "edge ({u}, {v}) out of range for {} nodes",
            self.num_nodes
        );
        let e = Edge::new(u, v, weight);
        self.revision = fresh_revision();
        match self.index.entry((e.u, e.v)) {
            std::collections::hash_map::Entry::Occupied(o) => {
                let i = *o.get();
                self.edges[i].weight += e.weight;
                i
            }
            std::collections::hash_map::Entry::Vacant(vac) => {
                let i = self.edges.len();
                self.edges.push(e);
                vac.insert(i);
                i
            }
        }
    }

    /// Look up the index of edge `(u, v)` if present.
    pub fn find_edge(&self, u: usize, v: usize) -> Option<usize> {
        let (a, b) = if u < v { (u, v) } else { (v, u) };
        self.index.get(&(a, b)).copied()
    }

    /// Whether `(u, v)` is an edge.
    pub fn has_edge(&self, u: usize, v: usize) -> bool {
        self.find_edge(u, v).is_some()
    }

    /// Multiply every edge weight by `factor` (spectral edge scaling).
    ///
    /// # Panics
    /// Panics if `factor` is not positive and finite.
    pub fn scale_weights(&mut self, factor: f64) {
        assert!(
            factor > 0.0 && factor.is_finite(),
            "scale factor must be positive and finite"
        );
        self.revision = fresh_revision();
        for e in &mut self.edges {
            e.weight *= factor;
        }
    }

    /// Set the weight of edge `i`.
    ///
    /// # Panics
    /// Panics if the weight is not positive and finite or `i` is out of
    /// bounds.
    pub fn set_weight(&mut self, i: usize, weight: f64) {
        assert!(
            weight > 0.0 && weight.is_finite(),
            "edge weight must be positive and finite"
        );
        self.revision = fresh_revision();
        self.edges[i].weight = weight;
    }

    /// Weighted node degrees (sum of incident conductances).
    pub fn weighted_degrees(&self) -> Vec<f64> {
        let mut d = vec![0.0; self.num_nodes];
        for e in &self.edges {
            d[e.u] += e.weight;
            d[e.v] += e.weight;
        }
        d
    }

    /// Unweighted node degrees.
    pub fn degrees(&self) -> Vec<usize> {
        let mut d = vec![0usize; self.num_nodes];
        for e in &self.edges {
            d[e.u] += 1;
            d[e.v] += 1;
        }
        d
    }

    /// Density `|E| / |V|` as reported in the paper's figures.
    pub fn density(&self) -> f64 {
        if self.num_nodes == 0 {
            0.0
        } else {
            self.num_edges() as f64 / self.num_nodes as f64
        }
    }

    /// Subgraph induced by the given edge indices (same node set).
    ///
    /// # Panics
    /// Panics if an index is out of bounds.
    pub fn edge_subgraph(&self, edge_indices: &[usize]) -> Graph {
        let mut g = Graph::new(self.num_nodes);
        for &i in edge_indices {
            let e = self.edges[i];
            g.add_edge(e.u, e.v, e.weight);
        }
        g
    }
}

impl fmt::Display for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Graph(|V|={}, |E|={}, density={:.3})",
            self.num_nodes,
            self.num_edges(),
            self.density()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edge_canonicalizes_orientation() {
        let e = Edge::new(5, 2, 1.0);
        assert_eq!((e.u, e.v), (2, 5));
        assert_eq!(e.other(2), 5);
        assert_eq!(e.other(5), 2);
    }

    #[test]
    #[should_panic(expected = "self loops")]
    fn self_loop_panics() {
        Edge::new(3, 3, 1.0);
    }

    #[test]
    #[should_panic(expected = "positive and finite")]
    fn non_positive_weight_panics() {
        Edge::new(0, 1, 0.0);
    }

    #[test]
    fn parallel_edges_merge_conductance() {
        let mut g = Graph::new(3);
        let i = g.add_edge(0, 1, 1.5);
        let j = g.add_edge(1, 0, 2.5);
        assert_eq!(i, j);
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.edge(i).weight, 4.0);
    }

    #[test]
    fn degrees_and_density() {
        let g = Graph::from_edges(4, [(0, 1, 1.0), (1, 2, 2.0), (2, 3, 3.0)]);
        assert_eq!(g.degrees(), vec![1, 2, 2, 1]);
        assert_eq!(g.weighted_degrees(), vec![1.0, 3.0, 5.0, 3.0]);
        assert!((g.density() - 0.75).abs() < 1e-15);
    }

    #[test]
    fn find_edge_is_orientation_free() {
        let g = Graph::from_edges(3, [(2, 0, 1.0)]);
        assert_eq!(g.find_edge(0, 2), Some(0));
        assert_eq!(g.find_edge(2, 0), Some(0));
        assert_eq!(g.find_edge(0, 1), None);
    }

    #[test]
    fn edge_subgraph_keeps_selected() {
        let g = Graph::from_edges(4, [(0, 1, 1.0), (1, 2, 2.0), (2, 3, 3.0)]);
        let s = g.edge_subgraph(&[0, 2]);
        assert_eq!(s.num_edges(), 2);
        assert!(s.has_edge(0, 1));
        assert!(s.has_edge(2, 3));
        assert!(!s.has_edge(1, 2));
    }

    #[test]
    fn scale_weights_multiplies_all() {
        let mut g = Graph::from_edges(3, [(0, 1, 1.0), (1, 2, 2.0)]);
        g.scale_weights(0.5);
        assert_eq!(g.edge(0).weight, 0.5);
        assert_eq!(g.edge(1).weight, 1.0);
    }

    #[test]
    fn revision_tracks_every_mutation() {
        let mut g = Graph::from_edges(3, [(0, 1, 1.0), (1, 2, 2.0)]);
        let r0 = g.revision();
        // A clone is identical content: same revision.
        let clone = g.clone();
        assert_eq!(clone.revision(), r0);
        // Every mutator moves to a fresh, process-unique revision.
        g.add_edge(0, 2, 1.0);
        let r1 = g.revision();
        assert_ne!(r1, r0);
        g.add_edge(0, 1, 0.5); // merge still counts as a mutation
        let r2 = g.revision();
        assert_ne!(r2, r1);
        g.set_weight(0, 3.0);
        let r3 = g.revision();
        assert_ne!(r3, r2);
        g.scale_weights(2.0);
        assert_ne!(g.revision(), r3);
        // Diverged clones never collide, even at equal mutation counts.
        let mut a = clone.clone();
        let mut b = clone;
        a.add_edge(0, 2, 1.0);
        b.add_edge(0, 2, 1.0);
        assert_ne!(a.revision(), b.revision());
    }

    #[test]
    fn display_contains_counts() {
        let g = Graph::from_edges(3, [(0, 1, 1.0)]);
        let s = g.to_string();
        assert!(s.contains("|V|=3"));
        assert!(s.contains("|E|=1"));
    }
}
