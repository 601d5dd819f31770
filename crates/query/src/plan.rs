//! Variable-order planning for worst-case optimal join execution.
//!
//! Generic Join and Leapfrog Triejoin both fix a *global variable order*
//! `A_{σ(1)}, …, A_{σ(n)}` up front and bind variables in that order; every atom's
//! access path (trie or delta view) is then built over the atom's attributes sorted
//! by their global position. The AGM guarantee of Algorithm 2 holds for **any**
//! order, but constants vary wildly in practice, so the choice matters.
//!
//! This module provides the order machinery itself — validation, per-atom attribute
//! orders, and a *weighted greedy* heuristic parameterized by per-atom weights. The
//! weights are deliberately an input: `wcoj-core::planner` feeds the optimal
//! fractional edge cover `δ_F` from the AGM LP of `wcoj-bounds` (which depends on
//! this crate, so the LP call cannot live here), closing the loop between the bounds
//! layer and the execution layer.
//!
//! The greedy rule: repeatedly pick the unordered variable with the largest total
//! weight of atoms covering it, preferring variables already *connected* to the
//! ordered prefix (sharing an atom with a chosen variable). Connectivity avoids
//! Cartesian-product plateaus; the cover weight prioritizes variables whose bindings
//! the AGM certificate charges the most, which are the most selective to fix early.

use crate::query::{ConjunctiveQuery, QueryError};
use crate::VarId;

/// Whether `order` is a permutation of the query's variables.
pub fn is_valid_order(query: &ConjunctiveQuery, order: &[VarId]) -> bool {
    let n = query.num_vars();
    if order.len() != n {
        return false;
    }
    let mut seen = vec![false; n];
    for &v in order {
        if v >= n || seen[v] {
            return false;
        }
        seen[v] = true;
    }
    true
}

/// The default variable order: order of first appearance across atoms (the identity
/// permutation of [`VarId`]s).
pub fn default_order(query: &ConjunctiveQuery) -> Vec<VarId> {
    (0..query.num_vars()).collect()
}

/// The attribute order for atom `atom_index` induced by a global variable order: the
/// atom's variable names sorted by their position in `order`. This is the order its
/// access structure must be built over.
pub fn atom_attr_order<'q>(
    query: &'q ConjunctiveQuery,
    atom_index: usize,
    order: &[VarId],
) -> Result<Vec<&'q str>, QueryError> {
    if !is_valid_order(query, order) {
        return Err(QueryError::UnknownVariable(format!(
            "invalid variable order {order:?}"
        )));
    }
    let mut position = vec![0usize; query.num_vars()];
    for (i, &v) in order.iter().enumerate() {
        position[v] = i;
    }
    let mut vars = query.atom(atom_index).vars.clone();
    vars.sort_by_key(|&v| position[v]);
    Ok(vars.into_iter().map(|v| query.var_name(v)).collect())
}

/// The levels (positions in the global order) at which atom `atom_index`
/// participates, ascending. Engines use this to know which cursors to intersect when
/// binding each variable.
pub fn atom_levels(query: &ConjunctiveQuery, atom_index: usize, order: &[VarId]) -> Vec<usize> {
    let mut levels: Vec<usize> = query
        .atom(atom_index)
        .vars
        .iter()
        .map(|&v| order.iter().position(|&o| o == v).expect("valid order"))
        .collect();
    levels.sort_unstable();
    levels
}

/// Weighted greedy variable order.
///
/// `atom_weights[f]` is the weight of atom `f` — in the AGM-guided planner these are
/// the optimal fractional edge cover exponents `δ_F` scaled by `log2 N_F`, i.e. the
/// bits of output the certificate charges to that atom. A variable's score is the
/// summed weight of atoms containing it. Ties (and the all-equal case) fall back to
/// appearance order, which keeps the choice deterministic.
pub fn weighted_greedy_order(query: &ConjunctiveQuery, atom_weights: &[f64]) -> Vec<VarId> {
    assert_eq!(
        atom_weights.len(),
        query.atoms().len(),
        "one weight per atom"
    );
    let n = query.num_vars();
    let score = |v: VarId| -> f64 {
        query
            .atoms_containing(v)
            .into_iter()
            .map(|f| atom_weights[f])
            .sum()
    };
    let mut order: Vec<VarId> = Vec::with_capacity(n);
    let mut chosen = vec![false; n];
    while order.len() < n {
        // candidate set: variables connected to the prefix, or all if none are
        let connected: Vec<VarId> = (0..n)
            .filter(|&v| !chosen[v])
            .filter(|&v| {
                order.is_empty()
                    || query
                        .atoms_containing(v)
                        .iter()
                        .any(|&f| query.atom(f).vars.iter().any(|&u| chosen[u]))
            })
            .collect();
        let pool: Vec<VarId> = if connected.is_empty() {
            (0..n).filter(|&v| !chosen[v]).collect()
        } else {
            connected
        };
        // max score; tie-break on smaller VarId (appearance order)
        let best = pool
            .into_iter()
            .max_by(|&a, &b| {
                score(a).partial_cmp(&score(b)).unwrap().then(b.cmp(&a)) // reversed: prefer smaller id on ties
            })
            .expect("pool is non-empty");
        chosen[best] = true;
        order.push(best);
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::examples;

    #[test]
    fn valid_and_invalid_orders() {
        let q = examples::triangle();
        assert!(is_valid_order(&q, &[0, 1, 2]));
        assert!(is_valid_order(&q, &[2, 0, 1]));
        assert!(!is_valid_order(&q, &[0, 1]));
        assert!(!is_valid_order(&q, &[0, 1, 1]));
        assert!(!is_valid_order(&q, &[0, 1, 3]));
        assert_eq!(default_order(&q), vec![0, 1, 2]);
    }

    #[test]
    fn atom_attr_orders_follow_global_order() {
        let q = examples::triangle();
        // global order C, A, B -> R(A,B) becomes [A, B]; S(B,C) becomes [C, B];
        // T(A,C) becomes [C, A]
        let order = vec![2, 0, 1];
        assert_eq!(atom_attr_order(&q, 0, &order).unwrap(), vec!["A", "B"]);
        assert_eq!(atom_attr_order(&q, 1, &order).unwrap(), vec!["C", "B"]);
        assert_eq!(atom_attr_order(&q, 2, &order).unwrap(), vec!["C", "A"]);
        assert!(atom_attr_order(&q, 0, &[0, 1]).is_err());
    }

    #[test]
    fn atom_levels_are_global_positions() {
        let q = examples::triangle();
        let order = vec![2, 0, 1]; // C at level 0, A at 1, B at 2
        assert_eq!(atom_levels(&q, 0, &order), vec![1, 2]); // R(A,B)
        assert_eq!(atom_levels(&q, 1, &order), vec![0, 2]); // S(B,C)
        assert_eq!(atom_levels(&q, 2, &order), vec![0, 1]); // T(A,C)
    }

    #[test]
    fn greedy_order_is_deterministic_and_valid() {
        let q = examples::triangle();
        let order = weighted_greedy_order(&q, &[0.5, 0.5, 0.5]);
        assert!(is_valid_order(&q, &order));
        // equal weights: appearance order
        assert_eq!(order, vec![0, 1, 2]);
    }

    #[test]
    fn greedy_order_prefers_heavily_covered_vars() {
        // star query Q(A,B1,B2,B3): A is in every atom, so with any positive weights
        // A must come first.
        let q = examples::star(3);
        let order = weighted_greedy_order(&q, &[1.0, 2.0, 3.0]);
        assert_eq!(order[0], 0, "hub variable A ordered first");
        assert!(is_valid_order(&q, &order));
    }

    #[test]
    fn greedy_order_stays_connected() {
        // 4-cycle R(A,B), S(B,C), T(C,D), W(D,A) with weight concentrated on T(C,D):
        // C or D first, then the rest must each share an atom with the prefix.
        let q = examples::four_cycle();
        let order = weighted_greedy_order(&q, &[0.1, 0.1, 10.0, 0.1]);
        assert!(is_valid_order(&q, &order));
        assert!(order[0] == 2 || order[0] == 3, "starts from the heavy atom");
        // every later variable shares an atom with an earlier one (cycle: always true
        // except for a disconnected pick — guard against regressions)
        for i in 1..order.len() {
            let prefix = &order[..i];
            let v = order[i];
            let connected = q
                .atoms_containing(v)
                .iter()
                .any(|&f| q.atom(f).vars.iter().any(|u| prefix.contains(u)));
            assert!(
                connected,
                "variable {v} disconnected from prefix {prefix:?}"
            );
        }
    }
}
