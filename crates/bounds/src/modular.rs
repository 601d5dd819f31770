//! The modular LP (54) for acyclic degree constraints and its dual (57) — the
//! generalized AGM bound of Proposition 4.4.
//!
//! When the constraint dependency graph `G_DC` is acyclic, the polymatroid bound
//! collapses onto the much smaller LP over *modular* functions:
//!
//! ```text
//! maximize   Σ_i v_i
//! subject to Σ_{i ∈ Y−X} v_i ≤ log2 N_{Y|X}   for every (X, Y, N) ∈ DC
//!            v ≥ 0
//! ```
//!
//! whose optimum equals `max_{h ∈ Γ_n ∩ H_DC} h([n])` (Proposition 4.4) and whose
//! dual variables `δ_{Y|X}` are the exponents of the generalized AGM bound
//! `|Q| ≤ ∏ N_{Y|X}^{δ_{Y|X}}` (equation (57)) — these exponents are exactly what
//! Algorithm 3's runtime analysis (Theorem 5.1) needs.
//!
//! (54) is a packing LP: its coefficients are 0/1 and, once a zero bound has
//! short-circuited to an empty output, every `log2 N_{Y|X}` is `≥ 0`. So its
//! origin is feasible and [`crate::lp::solve_packing_lp`] solves it in one phase
//! from the slack basis, with each constraint's `Y − X` as its row; `δ` is the
//! reduced costs of the slack columns. It is the solver of the AGM bound too
//! ([`crate::agm`]), which is (54) under cardinality constraints alone.

use crate::lp::{solve_packing_lp, LpError};
use crate::BoundError;
use wcoj_query::repair::{bound_variables, repair_to_acyclic};
use wcoj_query::ConstraintSet;

/// The result of solving the modular LP.
#[derive(Debug, Clone)]
pub struct ModularBound {
    /// `log2` of the bound on `|Q|`.
    pub log2_bound: f64,
    /// Optimal per-variable values `v_i = h({i})` of the modular witness.
    pub vertex_values: Vec<f64>,
    /// Dual exponents `δ_{Y|X}`, one per constraint in `DC` order (the generalized AGM
    /// exponents of equation (57)).
    pub exponents: Vec<f64>,
}

impl ModularBound {
    /// The bound as a tuple count `2^{log2_bound}`.
    pub fn tuple_bound(&self) -> f64 {
        self.log2_bound.exp2()
    }
}

/// Solve the modular LP for an *acyclic* constraint set over `n` variables.
///
/// Returns [`BoundError::CyclicConstraints`] if `dc` is cyclic (use
/// [`best_acyclic_repair`] first), and [`BoundError::Infinite`] if some variable is
/// not bounded by any constraint.
pub fn modular_bound(n: usize, dc: &ConstraintSet) -> Result<ModularBound, BoundError> {
    if !dc.is_acyclic(n) {
        return Err(BoundError::CyclicConstraints);
    }
    modular_bound_unchecked(n, dc)
}

/// Solve the modular LP without checking acyclicity. For cyclic `DC` the result is
/// still an upper bound on `max_{h ∈ M_n ∩ H_DC} h([n])` but Proposition 4.4's
/// equality with the polymatroid bound no longer applies; prefer [`modular_bound`].
pub fn modular_bound_unchecked(n: usize, dc: &ConstraintSet) -> Result<ModularBound, BoundError> {
    if dc.iter().any(|c| c.bound == 0) {
        return Ok(ModularBound {
            log2_bound: f64::NEG_INFINITY,
            vertex_values: vec![0.0; n],
            exponents: vec![0.0; dc.len()],
        });
    }
    // one packing row per constraint: its log bound over the variables of Y − X
    let rows = dc.constraints().iter().map(|c| {
        let y_minus_x = c.y.iter().copied().filter(|v| !c.x.contains(v));
        (c.log_bound(), y_minus_x)
    });
    let sol = match solve_packing_lp(n, rows) {
        Ok(s) => s,
        Err(LpError::Unbounded { .. }) => {
            return Err(BoundError::Infinite {
                reason: "some variable is not bounded by any degree constraint".to_string(),
            })
        }
        Err(e) => return Err(e.into()),
    };
    Ok(ModularBound {
        log2_bound: sol.objective,
        vertex_values: sol.primal,
        exponents: sol.dual,
    })
}

/// Search for the acyclic repair `DC'` of a (possibly cyclic) constraint set with the
/// *smallest* modular bound, following the discussion after Proposition 5.2.
///
/// The search explores all ways of weakening constraints along cycles (the same move
/// set as [`repair_to_acyclic`]) with memoization, and returns the acyclic candidate
/// with the minimum bound together with that bound. The state space is exponential in
/// the worst case; `max_states` caps the exploration (the greedy repair is used as a
/// fallback when the cap is hit).
pub fn best_acyclic_repair(
    dc: &ConstraintSet,
    n: usize,
    max_states: usize,
) -> Result<(ConstraintSet, ModularBound), BoundError> {
    use std::collections::HashSet;
    use wcoj_query::DegreeConstraint;

    // quick exit
    if dc.is_acyclic(n) {
        let b = modular_bound(n, dc)?;
        return Ok((dc.clone(), b));
    }
    if !bound_variables(n, dc).iter().all(|&b| b) {
        return Err(BoundError::Infinite {
            reason: "some variable is unbound under DC".to_string(),
        });
    }

    fn key(cs: &[DegreeConstraint]) -> String {
        let mut parts: Vec<String> = cs
            .iter()
            .map(|c| format!("{:?}|{:?}|{}", c.x, c.y, c.bound))
            .collect();
        parts.sort();
        parts.join(";")
    }

    let mut best: Option<(ConstraintSet, ModularBound)> = None;
    let mut seen: HashSet<String> = HashSet::new();
    let mut stack: Vec<Vec<DegreeConstraint>> = vec![dc.constraints().to_vec()];
    let mut states = 0usize;

    while let Some(current) = stack.pop() {
        if states >= max_states {
            break;
        }
        let k = key(&current);
        if !seen.insert(k) {
            continue;
        }
        states += 1;
        let cur_set = ConstraintSet::from_constraints(current.clone());
        if cur_set.is_acyclic(n) {
            if let Ok(b) = modular_bound(n, &cur_set) {
                let better = match &best {
                    None => true,
                    Some((_, bb)) => b.log2_bound < bb.log2_bound - 1e-12,
                };
                if better {
                    best = Some((cur_set, b));
                }
            }
            continue;
        }
        // branch: weaken any constraint by removing any single y from Y \ X, keeping
        // every variable bound
        for (ci, c) in current.iter().enumerate() {
            if c.x.is_empty() {
                continue; // cardinality constraints create no G_DC edges
            }
            for &y in &c.y_minus_x() {
                let mut candidate = current.clone();
                let new_y: Vec<usize> = c.y.iter().copied().filter(|&v| v != y).collect();
                if new_y.len() > c.x.len() {
                    let mut weakened = DegreeConstraint::new(c.x.clone(), new_y, c.bound);
                    weakened.guard = c.guard;
                    candidate[ci] = weakened;
                } else {
                    candidate.remove(ci);
                }
                let cand_set = ConstraintSet::from_constraints(candidate.clone());
                if bound_variables(n, &cand_set).iter().all(|&b| b) {
                    stack.push(candidate);
                }
            }
        }
    }

    match best {
        Some(found) => Ok(found),
        None => {
            // fall back to the greedy repair of Proposition 5.2
            let repaired = repair_to_acyclic(dc, n).map_err(|e| BoundError::Infinite {
                reason: e.to_string(),
            })?;
            let b = modular_bound(n, &repaired)?;
            Ok((repaired, b))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::polymatroid::polymatroid_bound_for_query;
    use wcoj_query::query::examples;

    #[test]
    fn cardinality_only_matches_agm() {
        // With only cardinality constraints the modular LP's dual is exactly the AGM
        // LP: triangle with |R|=|S|=|T|=2^10 gives 15 bits and exponents (1/2,1/2,1/2).
        let q = examples::triangle();
        let dc =
            ConstraintSet::all_cardinalities(&q, &[("R", 1024), ("S", 1024), ("T", 1024)]).unwrap();
        let b = modular_bound(q.num_vars(), &dc).unwrap();
        assert!((b.log2_bound - 15.0).abs() < 1e-6);
        for e in &b.exponents {
            assert!((e - 0.5).abs() < 1e-6);
        }
        // strong duality: sum of exponent * log size = bound
        let dual: f64 = b
            .exponents
            .iter()
            .zip(dc.iter())
            .map(|(e, c)| e * c.log_bound())
            .sum();
        assert!((dual - b.log2_bound).abs() < 1e-6);
        // modular witness: v_A = v_B = v_C = 5
        for v in &b.vertex_values {
            assert!((v - 5.0).abs() < 1e-6);
        }
    }

    #[test]
    fn acyclic_chain_constraints_bound() {
        // The paper's (63)-style acyclic set: N_A = 2^7 (card), N_{B|A} = 2^3,
        // N_{C|B} = 2^4, N_{D|C} = 2^5. The modular bound is the product:
        // 7 + 3 + 4 + 5 = 19 bits.
        let q = examples::chain_with_guard();
        let mut dc = ConstraintSet::new();
        dc.push_named(&q, &[], &["A"], 1 << 7).unwrap();
        dc.push_named(&q, &["A"], &["B"], 1 << 3).unwrap();
        dc.push_named(&q, &["B"], &["C"], 1 << 4).unwrap();
        dc.push_named(&q, &["C"], &["D"], 1 << 5).unwrap();
        assert!(dc.is_acyclic(4));
        let b = modular_bound(4, &dc).unwrap();
        assert!((b.log2_bound - 19.0).abs() < 1e-6);
        // every exponent is 1 (each constraint used once)
        for e in &b.exponents {
            assert!((e - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn agreement_with_polymatroid_bound_on_acyclic_dc() {
        // Proposition 4.4: for acyclic DC the modular and polymatroid bounds coincide.
        let q = examples::chain_with_guard();
        let mut dc = ConstraintSet::new();
        dc.push_named(&q, &[], &["A"], 1 << 6).unwrap();
        dc.push_named(&q, &["A"], &["B"], 1 << 2).unwrap();
        dc.push_named(&q, &["B"], &["C"], 1 << 3).unwrap();
        dc.push_named(&q, &["C"], &["D"], 1 << 4).unwrap();
        let m = modular_bound(4, &dc).unwrap();
        let p = polymatroid_bound_for_query(&q, &dc).unwrap();
        assert!(
            (m.log2_bound - p.log2_bound).abs() < 1e-5,
            "modular {} vs polymatroid {}",
            m.log2_bound,
            p.log2_bound
        );
    }

    #[test]
    fn cyclic_set_rejected_and_repaired() {
        let q = examples::chain_with_guard();
        let mut dc = ConstraintSet::new();
        dc.push_named(&q, &[], &["A"], 1 << 7).unwrap();
        dc.push_named(&q, &["A"], &["B"], 1 << 3).unwrap();
        dc.push_named(&q, &["B"], &["C"], 1 << 4).unwrap();
        dc.push_named(&q, &["C"], &["A", "D"], 1 << 5).unwrap();
        assert!(matches!(
            modular_bound(4, &dc).unwrap_err(),
            BoundError::CyclicConstraints
        ));
        let (repaired, bound) = best_acyclic_repair(&dc, 4, 10_000).unwrap();
        assert!(repaired.is_acyclic(4));
        // The only sensible repair drops A from the last constraint's Y, giving
        // 7 + 3 + 4 + 5 = 19 bits.
        assert!((bound.log2_bound - 19.0).abs() < 1e-6);
    }

    #[test]
    fn unbounded_variable_detected() {
        let q = examples::triangle();
        let mut dc = ConstraintSet::new();
        dc.push_named(&q, &[], &["A", "B"], 100).unwrap();
        // C never bounded
        assert!(matches!(
            modular_bound(3, &dc).unwrap_err(),
            BoundError::Infinite { .. }
        ));
        assert!(matches!(
            best_acyclic_repair(&dc, 3, 100).unwrap_err(),
            BoundError::Infinite { .. }
        ));
    }

    #[test]
    fn empty_relation_short_circuits() {
        let q = examples::triangle();
        let dc = ConstraintSet::all_cardinalities(&q, &[("R", 0), ("S", 4), ("T", 4)]).unwrap();
        let b = modular_bound(3, &dc).unwrap();
        assert_eq!(b.tuple_bound(), 0.0);
    }

    #[test]
    fn best_repair_of_acyclic_set_is_identity() {
        let q = examples::triangle();
        let dc = ConstraintSet::all_cardinalities(&q, &[("R", 8), ("S", 8), ("T", 8)]).unwrap();
        let (repaired, bound) = best_acyclic_repair(&dc, 3, 100).unwrap();
        assert_eq!(repaired, dc);
        assert!((bound.log2_bound - 4.5).abs() < 1e-6);
    }

    #[test]
    fn fd_cycle_repair_preserves_bound_for_simple_fds() {
        // Corollary 5.3: cardinalities + simple FD cycle A<->B. Breaking the cycle
        // must not change the optimal bound.
        let q = examples::triangle();
        let mut dc =
            ConstraintSet::all_cardinalities(&q, &[("R", 256), ("S", 256), ("T", 256)]).unwrap();
        dc.push_named(&q, &["A"], &["B"], 1).unwrap();
        dc.push_named(&q, &["B"], &["A"], 1).unwrap();
        let (repaired, bound) = best_acyclic_repair(&dc, 3, 10_000).unwrap();
        assert!(repaired.is_acyclic(3));
        // With the FD A->B (or B->A) kept, the bound is |T| * 1 = 2^8 = 8 bits:
        // choose v_A + v_C <= 8 (T), v_B <= 0 (FD), maximize v_A + v_B + v_C.
        assert!(
            (bound.log2_bound - 8.0).abs() < 1e-6,
            "got {}",
            bound.log2_bound
        );
    }
}
