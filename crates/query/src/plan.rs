//! Variable-order planning for worst-case optimal join execution.
//!
//! Generic Join and Leapfrog Triejoin both fix a *global variable order*
//! `A_{σ(1)}, …, A_{σ(n)}` up front and bind variables in that order; every atom's
//! access path (trie or delta view) is then built over the atom's attributes sorted
//! by their global position. The AGM guarantee of Algorithm 2 holds for **any**
//! order, but constants vary wildly in practice, so the choice matters.
//!
//! This module provides what sits below the bounds layer — validation and the
//! default order (the executor resolves an order to each atom's column positions
//! itself, `wcoj-core::exec`). *Choosing* an order is
//! `wcoj-core::planner`'s job: it costs an order by the AGM bounds of its prefixes,
//! which needs the LP of `wcoj-bounds` (which depends on this crate, so the choice
//! cannot live here).

use crate::query::ConjunctiveQuery;
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
}
