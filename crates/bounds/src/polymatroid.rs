//! The polymatroid bound (44)/(68): maximize `h([n])` over all polymatroids satisfying
//! the degree constraints.
//!
//! The LP has one variable `h(S)` per non-empty subset `S ⊆ [n]` and the *elemental*
//! Shannon inequalities, which generate the whole Shannon cone `Γ_n`, each written as
//! a row `≤ 0`:
//!
//! * monotonicity at the top: `h([n] \ {i}) − h([n]) ≤ 0` for every `i`;
//! * conditioned submodularity: `h(S ∪ {i,j}) + h(S) − h(S ∪ {i}) − h(S ∪ {j}) ≤ 0`
//!   for every pair `i ≠ j` and every `S ⊆ [n] \ {i, j}`;
//!
//! plus one degree constraint `h(Y) − h(X) ≤ log2 N_{Y|X}` per element of `DC`. Every
//! right-hand side is `≥ 0` (a zero bound `N` has already short-circuited to an empty
//! output), so `h = 0` is feasible and [`crate::lp::maximize`] solves the LP in one
//! phase from there; the degree rows' dual prices are the `δ` of equation (73).
//!
//! The LP is exponential in the number of query variables (the paper discusses why
//! this is unacceptable for 20+ variable OLAP queries and gives Proposition 4.4 as the
//! remedy); here it is exact and fine for the `n ≤ 8` queries of the experiments.

use crate::lp::{maximize, LpError, Optimum};
use crate::setfn::{mask_of, SetFunction};
use crate::BoundError;
use wcoj_query::{ConjunctiveQuery, ConstraintSet};

/// Maximum number of query variables accepted by the exponential LP.
pub const MAX_VARS: usize = 10;

/// The result of solving the polymatroid LP.
#[derive(Debug, Clone)]
pub struct PolymatroidBound {
    /// `log2` of the bound on `|Q|` (i.e. the LP optimum `h*([n])`).
    pub log2_bound: f64,
    /// The optimal polymatroid `h*`.
    pub h: SetFunction,
    /// Dual value `δ_{Y|X}` of each degree constraint, in `DC` order. By LP duality
    /// (equation (73) of the paper) `log2_bound = Σ δ_{Y|X} · log2 N_{Y|X}`, and the
    /// `δ` vector is the coefficient vector of a Shannon-flow inequality
    /// (Proposition 5.4).
    pub constraint_duals: Vec<f64>,
}

impl PolymatroidBound {
    /// The bound as a tuple count `2^{log2_bound}`.
    pub fn tuple_bound(&self) -> f64 {
        self.log2_bound.exp2()
    }
}

/// A Shannon-cone LP: variable `S − 1` is `h(S)` for every non-empty mask `S`, and
/// the rows are every elemental Shannon inequality as a row `≤ 0`, then the
/// caller's rows. Used by both the polymatroid bound and the Shannon-flow test in
/// [`crate::flow`].
#[derive(Debug, Clone)]
pub struct ShannonLp {
    objective: Vec<f64>,
    rows: Vec<(f64, Vec<(usize, f64)>)>,
}

impl ShannonLp {
    /// Add the row `Σ coeff · h(S) ≤ bound`, given as (mask, coeff) pairs over
    /// distinct masks; the empty mask contributes nothing (`h(∅) = 0`). The LP
    /// solves only while every bound is `≥ 0`.
    pub fn add_row(&mut self, terms: &[(u32, f64)], bound: f64) {
        let entries = (terms.iter().filter(|(m, _)| *m != 0))
            .map(|&(m, c)| (m as usize - 1, c))
            .collect();
        self.rows.push((bound, entries));
    }

    /// The objective `c`: the coefficient of `h(S)` at `S − 1`.
    pub fn objective(&self) -> &[f64] {
        &self.objective
    }

    /// The rows `(b_i, entries)`, each entry `(S − 1, coeff)`: the Shannon rows,
    /// then the added ones in order.
    pub fn rows(&self) -> &[(f64, Vec<(usize, f64)>)] {
        &self.rows
    }

    /// Maximize the objective over the cone and the added rows, from `h = 0`.
    pub fn solve(&self) -> Result<Optimum, LpError> {
        let rows = (self.rows.iter()).map(|(bound, entries)| (*bound, entries.iter().copied()));
        maximize(self.objective.iter().copied(), rows)
    }
}

/// Build the Shannon-cone LP skeleton over `n` variables with the objective
/// `maximize Σ coeff · h(S)` over (mask, coeff) pairs: a repeated mask sums, and
/// the empty mask contributes nothing (only non-zero entries need be present).
pub fn build_shannon_lp(n: usize, objective: &[(u32, f64)]) -> Result<ShannonLp, BoundError> {
    if n == 0 || n > MAX_VARS {
        return Err(BoundError::TooManyVariables(n));
    }
    let full: u32 = ((1u64 << n) - 1) as u32;
    let mut obj = vec![0.0; full as usize];
    for &(m, c) in objective.iter().filter(|(m, _)| *m != 0) {
        obj[m as usize - 1] += c;
    }
    let mut shannon = ShannonLp {
        objective: obj,
        rows: Vec::new(),
    };

    // Monotonicity at the top set: h([n] \ {i}) - h([n]) <= 0.
    for i in 0..n {
        shannon.add_row(&[(full & !(1u32 << i), 1.0), (full, -1.0)], 0.0);
    }

    // Conditioned submodularity: h(S+i+j) + h(S) - h(S+i) - h(S+j) <= 0.
    for i in 0..n {
        for j in (i + 1)..n {
            let bi = 1u32 << i;
            let bj = 1u32 << j;
            let rest = full & !(bi | bj);
            // enumerate subsets S of `rest`
            let mut s = rest;
            loop {
                let terms = [(s | bi, -1.0), (s | bj, -1.0), (s | bi | bj, 1.0), (s, 1.0)];
                shannon.add_row(&terms, 0.0);
                if s == 0 {
                    break;
                }
                s = (s - 1) & rest;
            }
        }
    }
    Ok(shannon)
}

/// The polymatroid LP (68) for `n` variables: maximize `h([n])` over the Shannon
/// cone, with one row `h(Y) − h(X) ≤ log2 N_{Y|X}` per degree constraint, in `DC`
/// order after the Shannon rows. A zero bound `N` makes a row the solver refuses
/// ([`LpError::InvalidBound`]); [`polymatroid_bound`] short-circuits it first.
pub fn polymatroid_lp(n: usize, dc: &ConstraintSet) -> Result<ShannonLp, BoundError> {
    let full: u32 = ((1u64 << n) - 1) as u32;
    let mut shannon = build_shannon_lp(n, &[(full, 1.0)])?;
    for c in dc.iter() {
        shannon.add_row(
            &[(mask_of(&c.y), 1.0), (mask_of(&c.x), -1.0)],
            c.log_bound(),
        );
    }
    Ok(shannon)
}

/// Compute the polymatroid bound `max { h([n]) : h ∈ Γ_n ∩ H_DC }` for a query with
/// `n` variables under degree constraints `dc`.
///
/// The degree rows follow the Shannon rows ([`polymatroid_lp`]), so their dual
/// values are the trailing entries of the LP dual — these are returned as
/// `constraint_duals`.
pub fn polymatroid_bound(n: usize, dc: &ConstraintSet) -> Result<PolymatroidBound, BoundError> {
    if dc.iter().any(|c| c.bound == 0) {
        // an empty guard relation: the output is empty
        return Ok(PolymatroidBound {
            log2_bound: f64::NEG_INFINITY,
            h: SetFunction::zero(n),
            constraint_duals: vec![0.0; dc.len()],
        });
    }
    let lp = polymatroid_lp(n, dc)?;
    let sol = match lp.solve() {
        Ok(s) => s,
        Err(LpError::Unbounded { .. }) => {
            return Err(BoundError::Infinite {
                reason: "degree constraints do not bound every variable".to_string(),
            })
        }
        Err(e) => return Err(e.into()),
    };

    let mut h = SetFunction::zero(n);
    for (mask, &value) in (1..).zip(&sol.primal) {
        h.set(mask, value);
    }
    let skeleton_rows = lp.rows().len() - dc.len();
    Ok(PolymatroidBound {
        log2_bound: sol.objective,
        h,
        constraint_duals: sol.dual[skeleton_rows..].to_vec(),
    })
}

/// Convenience wrapper taking the query (for its variable count).
pub fn polymatroid_bound_for_query(
    query: &ConjunctiveQuery,
    dc: &ConstraintSet,
) -> Result<PolymatroidBound, BoundError> {
    polymatroid_bound(query.num_vars(), dc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wcoj_query::query::examples;
    use wcoj_query::DegreeConstraint;

    #[test]
    fn triangle_cardinality_only_matches_agm() {
        // With only cardinality constraints the polymatroid bound equals the AGM bound
        // (Table 1, first row): for |R|=|S|=|T|=2^10 it is 2^15.
        let q = examples::triangle();
        let dc =
            ConstraintSet::all_cardinalities(&q, &[("R", 1024), ("S", 1024), ("T", 1024)]).unwrap();
        let b = polymatroid_bound_for_query(&q, &dc).unwrap();
        assert!((b.log2_bound - 15.0).abs() < 1e-6);
        assert!(b.h.is_polymatroid());
        // duals are the Shearer coefficients (1/2, 1/2, 1/2); their weighted sum
        // reproduces the bound (strong duality, equation (73))
        let dual_obj: f64 = b
            .constraint_duals
            .iter()
            .zip(dc.iter())
            .map(|(d, c)| d * c.log_bound())
            .sum();
        assert!((dual_obj - b.log2_bound).abs() < 1e-6);
        for d in &b.constraint_duals {
            assert!((d - 0.5).abs() < 1e-6);
        }
    }

    #[test]
    fn fd_constraints_tighten_the_bound() {
        // Triangle with cardinalities 2^10 plus the FD A -> B (guarded by R).
        // Intuition: once A is fixed B is determined, so the output is at most
        // |T| = 2^10 * 1 ... the polymatroid bound drops from 15 to 10.
        let q = examples::triangle();
        let mut dc =
            ConstraintSet::all_cardinalities(&q, &[("R", 1024), ("S", 1024), ("T", 1024)]).unwrap();
        dc.push_named(&q, &["A"], &["B"], 1).unwrap();
        let b = polymatroid_bound_for_query(&q, &dc).unwrap();
        assert!(
            b.log2_bound < 10.0 + 1e-6,
            "FD should cap the bound at |T|: got {}",
            b.log2_bound
        );
        assert!(b.log2_bound > 10.0 - 1e-6);
    }

    #[test]
    fn degree_constraints_interpolate() {
        // Triangle, |R|=|S|=|T|=2^10, deg_R(B|A) <= 2^d. As d grows from 0 to 10 the
        // bound grows monotonically from 10 to 15.
        let q = examples::triangle();
        let mut last = 0.0;
        for d in [0u32, 2, 5, 10] {
            let mut dc =
                ConstraintSet::all_cardinalities(&q, &[("R", 1024), ("S", 1024), ("T", 1024)])
                    .unwrap();
            dc.push_named(&q, &["A"], &["B"], 1u64 << d).unwrap();
            let b = polymatroid_bound_for_query(&q, &dc).unwrap();
            assert!(b.log2_bound >= last - 1e-6, "bound must be monotone in d");
            last = b.log2_bound;
            assert!(b.log2_bound <= 15.0 + 1e-6);
        }
        assert!((last - 15.0).abs() < 1e-6);
    }

    #[test]
    fn unbounded_variable_detected() {
        // A single cardinality constraint on {A,B} says nothing about C: infinite.
        let q = examples::triangle();
        let dc =
            ConstraintSet::from_constraints(vec![DegreeConstraint::cardinality(vec![0, 1], 1024)]);
        assert!(matches!(
            polymatroid_bound_for_query(&q, &dc).unwrap_err(),
            BoundError::Infinite { .. }
        ));
    }

    #[test]
    fn empty_relation_gives_zero_bound() {
        let q = examples::triangle();
        let dc = ConstraintSet::all_cardinalities(&q, &[("R", 0), ("S", 10), ("T", 10)]).unwrap();
        let b = polymatroid_bound_for_query(&q, &dc).unwrap();
        assert_eq!(b.log2_bound, f64::NEG_INFINITY);
        assert_eq!(b.tuple_bound(), 0.0);
    }

    #[test]
    fn too_many_variables_rejected() {
        let dc = ConstraintSet::new();
        assert!(matches!(
            polymatroid_bound(MAX_VARS + 1, &dc).unwrap_err(),
            BoundError::TooManyVariables(_)
        ));
        assert!(matches!(
            build_shannon_lp(0, &[]).unwrap_err(),
            BoundError::TooManyVariables(0)
        ));
    }

    #[test]
    fn example_one_bound_beats_the_half_sum_certificate() {
        // Example 1 of the paper: the Shannon-flow inequality
        //   h(ABCD) <= 1/2 [h(AB) + h(BC) + h(CD) + h(ACD|AC) + h(ABD|BD)]
        // certifies 2^{(5*8)/2} = 2^20 with all five statistics equal to 2^8 — but it
        // is not tight: subadditivity alone gives h(ABCD) <= h(AB) + h(CD) = 16 bits,
        // and the modular witness v = (8, 0, 8, 0) attains it, so the LP optimum is 16.
        let q = examples::example_one();
        let mut dc = ConstraintSet::new();
        let n = 256u64;
        dc.push_named(&q, &[], &["A", "B"], n).unwrap();
        dc.push_named(&q, &[], &["B", "C"], n).unwrap();
        dc.push_named(&q, &[], &["C", "D"], n).unwrap();
        dc.push_named(&q, &["A", "C"], &["D"], n).unwrap();
        dc.push_named(&q, &["B", "D"], &["A"], n).unwrap();
        let b = polymatroid_bound_for_query(&q, &dc).unwrap();
        assert!(
            (b.log2_bound - 16.0).abs() < 1e-5,
            "expected 16 bits, got {}",
            b.log2_bound
        );
        assert!(b.h.is_polymatroid());
        // strong duality still ties the duals to the optimum (equation (73))
        let dual_obj: f64 = b
            .constraint_duals
            .iter()
            .zip(dc.iter())
            .map(|(d, c)| d * c.log_bound())
            .sum();
        assert!((dual_obj - b.log2_bound).abs() < 1e-5);
    }

    #[test]
    fn four_cycle_bound() {
        // 4-cycle with all sizes N: AGM bound is N^2 (rho* = 2), and with cardinality
        // constraints only the polymatroid bound agrees.
        let q = examples::four_cycle();
        let dc = ConstraintSet::all_cardinalities(
            &q,
            &[("R", 1 << 8), ("S", 1 << 8), ("T", 1 << 8), ("W", 1 << 8)],
        )
        .unwrap();
        let b = polymatroid_bound_for_query(&q, &dc).unwrap();
        assert!((b.log2_bound - 16.0).abs() < 1e-6);
    }
}
