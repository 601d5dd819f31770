//! Multi-hypergraphs: the combinatorial skeleton of a conjunctive query.

use crate::VarId;

/// A multi-hypergraph `H = ([n], E)`: `n` vertices (query variables) and a multiset of
/// hyperedges (atom variable sets). Edges may repeat (e.g. the triangle query on a
/// single edge relation `R = S = T = E`), which is why edges are stored as a `Vec`
/// rather than a set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hypergraph {
    num_vertices: usize,
    /// Each edge is a sorted, deduplicated list of vertices.
    edges: Vec<Vec<VarId>>,
}

impl Hypergraph {
    /// Create a hypergraph with `num_vertices` vertices and the given edges. Vertices
    /// inside each edge are sorted and deduplicated; out-of-range vertices panic.
    pub fn new(num_vertices: usize, edges: Vec<Vec<VarId>>) -> Self {
        let edges = edges
            .into_iter()
            .map(|mut e| {
                e.sort_unstable();
                e.dedup();
                for &v in &e {
                    assert!(v < num_vertices, "vertex {v} out of range");
                }
                e
            })
            .collect();
        Hypergraph {
            num_vertices,
            edges,
        }
    }

    /// Number of vertices `n`.
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Number of edges `|E|` (with multiplicity).
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// The edges, each a sorted vertex list.
    pub fn edges(&self) -> &[Vec<VarId>] {
        &self.edges
    }

    /// The `i`-th edge.
    pub fn edge(&self, i: usize) -> &[VarId] {
        &self.edges[i]
    }

    /// Indices of the edges containing vertex `v` (the set `∂(v)` used in the
    /// inductive proof of Friedgut's inequality, Theorem 4.1).
    pub fn edges_containing(&self, v: VarId) -> Vec<usize> {
        self.edges
            .iter()
            .enumerate()
            .filter(|(_, e)| e.binary_search(&v).is_ok())
            .map(|(i, _)| i)
            .collect()
    }

    /// Whether `weights` (one per edge) is a fractional edge cover: non-negative and
    /// summing to at least 1 on every vertex.
    pub fn is_fractional_edge_cover(&self, weights: &[f64]) -> bool {
        if weights.len() != self.edges.len() || weights.iter().any(|&w| w < -1e-12) {
            return false;
        }
        (0..self.num_vertices).all(|v| {
            let total: f64 = self.edges_containing(v).iter().map(|&i| weights[i]).sum();
            total >= 1.0 - 1e-9
        })
    }

    /// The hypergraph of a Loomis–Whitney query `LW(n)`: `n` vertices and the `n`
    /// edges `[n] \ {i}` — every atom contains all but one variable (Section 1.2).
    pub fn loomis_whitney(n: usize) -> Hypergraph {
        assert!(n >= 2, "LW(n) needs n >= 2");
        let edges = (0..n)
            .map(|skip| (0..n).filter(|&v| v != skip).collect())
            .collect();
        Hypergraph::new(n, edges)
    }

    /// The hypergraph of the `k`-clique query: `k` vertices and an edge `{i, j}` for
    /// every pair `i < j`.
    pub fn clique(k: usize) -> Hypergraph {
        let mut edges = Vec::new();
        for i in 0..k {
            for j in (i + 1)..k {
                edges.push(vec![i, j]);
            }
        }
        Hypergraph::new(k, edges)
    }

    /// The hypergraph of the `k`-cycle query: vertices `0..k` and edges
    /// `{i, (i+1) mod k}`.
    pub fn cycle(k: usize) -> Hypergraph {
        assert!(k >= 3, "cycles need at least 3 vertices");
        let edges = (0..k).map(|i| vec![i, (i + 1) % k]).collect();
        Hypergraph::new(k, edges)
    }

    /// The star query with `k` leaves: center vertex `0` and edges `{0, i}` for
    /// `i = 1..=k`.
    pub fn star(k: usize) -> Hypergraph {
        let edges = (1..=k).map(|i| vec![0, i]).collect();
        Hypergraph::new(k + 1, edges)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn triangle_basics() {
        let h = Hypergraph::cycle(3);
        assert_eq!(h.num_vertices(), 3);
        assert_eq!(h.num_edges(), 3);
        assert_eq!(h.edges_containing(0), vec![0, 2]);
        assert!(h.is_fractional_edge_cover(&[0.5, 0.5, 0.5]));
        assert!(h.is_fractional_edge_cover(&[1.0, 1.0, 0.0]));
        assert!(!h.is_fractional_edge_cover(&[0.5, 0.5, 0.0]));
        assert!(!h.is_fractional_edge_cover(&[0.5, 0.5]));
        assert!(!h.is_fractional_edge_cover(&[-0.5, 1.5, 1.0]));
    }

    #[test]
    fn multi_edges_allowed() {
        let h = Hypergraph::new(2, vec![vec![0, 1], vec![0, 1], vec![1, 0, 0]]);
        assert_eq!(h.num_edges(), 3);
        assert_eq!(h.edge(2), &[0, 1]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_vertex_panics() {
        let _ = Hypergraph::new(2, vec![vec![0, 5]]);
    }

    #[test]
    fn uncovered_vertex_detected() {
        // no weight on the one edge covers vertex 2
        let h = Hypergraph::new(3, vec![vec![0, 1]]);
        assert!(h.edges_containing(2).is_empty());
        assert!(!h.is_fractional_edge_cover(&[1e9]));
    }

    #[test]
    fn loomis_whitney_shape() {
        let h = Hypergraph::loomis_whitney(4);
        assert_eq!(h.num_vertices(), 4);
        assert_eq!(h.num_edges(), 4);
        for (i, e) in h.edges().iter().enumerate() {
            assert_eq!(e.len(), 3);
            assert!(!e.contains(&i));
        }
        // LW(3) is the triangle
        assert_eq!(Hypergraph::loomis_whitney(3).num_edges(), 3);
    }

    #[test]
    fn clique_cycle_star_shapes() {
        assert_eq!(Hypergraph::clique(4).num_edges(), 6);
        assert_eq!(Hypergraph::cycle(4).num_edges(), 4);
        assert_eq!(Hypergraph::star(3).num_edges(), 3);
        assert_eq!(Hypergraph::star(3).num_vertices(), 4);
        // k-cycle edges wrap around
        let c4 = Hypergraph::cycle(4);
        assert_eq!(c4.edge(3), &[0, 3]);
    }

    #[test]
    #[should_panic]
    fn tiny_cycle_panics() {
        let _ = Hypergraph::cycle(2);
    }
}
