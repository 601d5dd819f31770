//! Shannon-flow inequalities (Definition 5 of the paper).
//!
//! A non-negative coefficient vector `δ = (δ_{Y|X})` defines the inequality
//! `h([n]) ≤ Σ δ_{Y|X} · (h(Y) − h(X))`. It is a *Shannon-flow inequality* when it
//! holds for every polymatroid `h ∈ Γ_n`. Proposition 5.4 characterizes these as the
//! feasible solutions of the dual LP (72); here we test the property directly with the
//! Shannon-cone LP of [`crate::polymatroid`]: the inequality holds for all
//! polymatroids iff
//!
//! ```text
//! max { h([n]) − Σ δ_{Y|X}·(h(Y) − h(X))  :  h ∈ Γ_n, h([n]) ≤ 1 }  ≤  0.
//! ```
//!
//! (The cone is scale-invariant, so normalizing `h([n]) ≤ 1` loses nothing; without a
//! normalization the LP would be unbounded whenever the inequality fails.) Every row
//! is `≤ 0` — each elemental Shannon inequality `−(…) ≤ 0` — except the
//! normalization's `≤ 1`, so `h = 0` is feasible and the one-phase solver of
//! [`crate::lp`] starts there.
//!
//! Shearer's inequality (Corollary 5.5) is the special case where every `X = ∅` and
//! the `Y` are the hyperedges: then `δ` is a Shannon-flow coefficient vector iff it is
//! a fractional edge cover.

use crate::polymatroid::{build_shannon_lp, ShannonLp};
use crate::setfn::{mask_of, SetFunction};
use crate::BoundError;
use wcoj_query::{ConstraintSet, Hypergraph};

/// A sparse coefficient vector `δ ∈ R_+^P`: terms `(X, Y, δ_{Y|X})` with `X ⊆ Y`
/// encoded as bitmasks.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DeltaVector {
    terms: Vec<(u32, u32, f64)>,
}

impl DeltaVector {
    /// An empty coefficient vector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `coeff` to the coefficient of the term `h(Y | X)`.
    pub fn add(&mut self, x_mask: u32, y_mask: u32, coeff: f64) {
        assert_eq!(x_mask & !y_mask, 0, "X must be a subset of Y");
        assert!(coeff >= 0.0, "Shannon-flow coefficients are non-negative");
        if let Some(t) = self
            .terms
            .iter_mut()
            .find(|(x, y, _)| *x == x_mask && *y == y_mask)
        {
            t.2 += coeff;
        } else {
            self.terms.push((x_mask, y_mask, coeff));
        }
    }

    /// Add a term given variable-index slices instead of masks.
    pub fn add_sets(&mut self, x: &[usize], y: &[usize], coeff: f64) {
        let x_mask = mask_of(x);
        let y_mask = mask_of(y) | x_mask;
        self.add(x_mask, y_mask, coeff);
    }

    /// The terms `(X, Y, δ)`.
    pub fn terms(&self) -> &[(u32, u32, f64)] {
        &self.terms
    }

    /// Evaluate the right-hand side `Σ δ_{Y|X} (h(Y) − h(X))` on a concrete set
    /// function.
    pub fn evaluate(&self, h: &SetFunction) -> f64 {
        self.terms
            .iter()
            .map(|&(x, y, d)| d * h.conditional(y, x))
            .sum()
    }

    /// The coefficient vector induced by the degree constraints and dual values of a
    /// bound computation: `δ_{Y|X} = dual` for each constraint. This is how PANDA
    /// obtains its Shannon-flow inequality (step 1 of Section 5.2.3).
    pub fn from_constraint_duals(dc: &ConstraintSet, duals: &[f64]) -> Self {
        let mut dv = DeltaVector::new();
        for (c, &d) in dc.iter().zip(duals) {
            if d > 1e-12 {
                dv.add(mask_of(&c.x), mask_of(&c.y), d);
            }
        }
        dv
    }

    /// The Shearer-style vector `δ_F` over the edges of a hypergraph (all `X = ∅`).
    pub fn from_edge_weights(h: &Hypergraph, weights: &[f64]) -> Self {
        assert_eq!(weights.len(), h.num_edges());
        let mut dv = DeltaVector::new();
        for (e, &w) in h.edges().iter().zip(weights) {
            if w > 0.0 {
                dv.add(0, mask_of(e), w);
            }
        }
        dv
    }
}

/// The LP that tests `δ` on `n` variables: maximize
/// `h([n]) − Σ δ_{Y|X} (h(Y) − h(X))` over the Shannon cone, normalized by the
/// last row, `h([n]) ≤ 1`.
pub fn flow_lp(n: usize, delta: &DeltaVector) -> Result<ShannonLp, BoundError> {
    let full: u32 = ((1u64 << n) - 1) as u32;
    let mut obj: Vec<(u32, f64)> = vec![(full, 1.0)];
    for &(x, y, d) in delta.terms() {
        obj.push((y, -d));
        if x != 0 {
            obj.push((x, d));
        }
    }
    let mut lp = build_shannon_lp(n, &obj)?;
    lp.add_row(&[(full, 1.0)], 1.0);
    Ok(lp)
}

/// Decide whether `h([n]) ≤ ⟨δ, h⟩` holds for every polymatroid on `n` variables:
/// whether the optimum of [`flow_lp`] is 0.
pub fn is_shannon_flow_inequality(n: usize, delta: &DeltaVector) -> Result<bool, BoundError> {
    Ok(flow_lp(n, delta)?.solve()?.objective <= 1e-7)
}

/// Verify Shearer's lemma / Corollary 5.5 both ways on a concrete weight vector:
/// returns `(is_cover, is_flow)`, which must agree.
pub fn shearer_check(h: &Hypergraph, weights: &[f64]) -> Result<(bool, bool), BoundError> {
    let is_cover = h.is_fractional_edge_cover(weights);
    let dv = DeltaVector::from_edge_weights(h, weights);
    let is_flow = is_shannon_flow_inequality(h.num_vertices(), &dv)?;
    Ok((is_cover, is_flow))
}

#[cfg(test)]
mod tests {
    use super::*;
    use wcoj_query::query::examples;

    #[test]
    fn shearer_triangle_half_weights() {
        let h = Hypergraph::cycle(3);
        let (cover, flow) = shearer_check(&h, &[0.5, 0.5, 0.5]).unwrap();
        assert!(cover && flow);
        // (0.4, 0.4, 0.4) is not a cover, and correspondingly not a flow inequality
        let (cover, flow) = shearer_check(&h, &[0.4, 0.4, 0.4]).unwrap();
        assert!(!cover && !flow);
        // integral cover (1, 1, 0)
        let (cover, flow) = shearer_check(&h, &[1.0, 1.0, 0.0]).unwrap();
        assert!(cover && flow);
    }

    #[test]
    fn shearer_loomis_whitney() {
        let h = Hypergraph::loomis_whitney(4);
        let w = vec![1.0 / 3.0; 4];
        let (cover, flow) = shearer_check(&h, &w).unwrap();
        assert!(cover && flow);
        let w_bad = vec![0.3; 4];
        let (cover, flow) = shearer_check(&h, &w_bad).unwrap();
        assert!(!cover && !flow);
    }

    #[test]
    fn example_one_inequality_is_shannon_flow() {
        // h(ABCD) <= 1/2 [h(AB) + h(BC) + h(CD) + h(ACD|AC) + h(ABD|BD)]
        // with A=0, B=1, C=2, D=3.
        let mut dv = DeltaVector::new();
        dv.add_sets(&[], &[0, 1], 0.5);
        dv.add_sets(&[], &[1, 2], 0.5);
        dv.add_sets(&[], &[2, 3], 0.5);
        dv.add_sets(&[0, 2], &[3], 0.5);
        dv.add_sets(&[1, 3], &[0], 0.5);
        assert!(is_shannon_flow_inequality(4, &dv).unwrap());
        // dropping one term breaks it
        let mut dv_bad = DeltaVector::new();
        dv_bad.add_sets(&[], &[0, 1], 0.5);
        dv_bad.add_sets(&[], &[1, 2], 0.5);
        dv_bad.add_sets(&[], &[2, 3], 0.5);
        dv_bad.add_sets(&[0, 2], &[3], 0.5);
        assert!(!is_shannon_flow_inequality(4, &dv_bad).unwrap());
    }

    #[test]
    fn triangle_degree_version() {
        // h(ABC) <= h(AB) + h(C | B) is a Shannon-flow inequality (chain + mono);
        // h(ABC) <= h(AB) + 0.5 h(C|B) is not.
        let mut dv = DeltaVector::new();
        dv.add_sets(&[], &[0, 1], 1.0);
        dv.add_sets(&[1], &[2], 1.0);
        assert!(is_shannon_flow_inequality(3, &dv).unwrap());
        let mut dv2 = DeltaVector::new();
        dv2.add_sets(&[], &[0, 1], 1.0);
        dv2.add_sets(&[1], &[2], 0.5);
        assert!(!is_shannon_flow_inequality(3, &dv2).unwrap());
    }

    #[test]
    fn duals_of_polymatroid_bound_are_shannon_flow() {
        // For any degree-constraint set, the optimal dual of the polymatroid LP is a
        // Shannon-flow coefficient vector (Proposition 5.4): check it on the triangle
        // with an FD.
        let q = examples::triangle();
        let mut dc =
            ConstraintSet::all_cardinalities(&q, &[("R", 64), ("S", 64), ("T", 64)]).unwrap();
        dc.push_named(&q, &["A"], &["B"], 4).unwrap();
        let b = crate::polymatroid::polymatroid_bound_for_query(&q, &dc).unwrap();
        let dv = DeltaVector::from_constraint_duals(&dc, &b.constraint_duals);
        assert!(is_shannon_flow_inequality(3, &dv).unwrap());
    }

    #[test]
    fn evaluate_on_concrete_polymatroid() {
        let mut dv = DeltaVector::new();
        dv.add_sets(&[], &[0, 1], 0.5);
        dv.add_sets(&[], &[1, 2], 0.5);
        dv.add_sets(&[], &[0, 2], 0.5);
        // on the modular function with all singletons = 1, LHS h([3]) = 3 and each
        // pair term = 2, so RHS = 3 and the inequality is tight.
        let h = SetFunction::modular(&[1.0, 1.0, 1.0]);
        assert!((dv.evaluate(&h) - 3.0).abs() < 1e-12);
        assert!(h.total() <= dv.evaluate(&h) + 1e-12);
    }

    #[test]
    fn delta_vector_accumulates_and_validates() {
        let mut dv = DeltaVector::new();
        dv.add(0b001, 0b011, 0.25);
        dv.add(0b001, 0b011, 0.25);
        assert_eq!(dv.terms().len(), 1);
        assert!((dv.terms()[0].2 - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "subset")]
    fn x_not_subset_of_y_panics() {
        let mut dv = DeltaVector::new();
        dv.add(0b100, 0b011, 1.0);
    }
}
