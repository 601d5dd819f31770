//! The baseline the paper's WCOJ algorithms are measured against: a left-deep
//! binary hash-join plan (the "one-pair-at-a-time join paradigm" of Section 1.1).
//!
//! Atoms are joined greedily — start from the smallest relation and repeatedly join
//! the smallest relation sharing an attribute with the accumulated result (falling
//! back to a Cartesian product only for disconnected queries). Intermediate tuple
//! counts are recorded in the [`WorkCounter`], which is where the `Ω(N^2)`
//! intermediate blow-up on e.g. skewed triangle inputs becomes visible while the
//! WCOJ engines stay within `O(N^{3/2})`.

use super::CancelToken;
use crate::error::ExecError;
use wcoj_query::{ConjunctiveQuery, Database, QueryError};
use wcoj_storage::ops::{hash_join, nested_loop_join};
use wcoj_storage::{Relation, WorkCounter};

/// Execute `query` with a greedy left-deep binary hash-join plan. The result keeps
/// one column per query variable, in the variable-id order of the query. A
/// [`CancelToken`] is polled **between** binary joins — the storage operators
/// themselves have no chunk seam, so one oversized intermediate join still runs to
/// completion before the cancellation is honored (coarse, but bounded per join).
pub(super) fn binary_hash_plan(
    query: &ConjunctiveQuery,
    db: &Database,
    counter: &WorkCounter,
    token: Option<&CancelToken>,
) -> Result<Relation, ExecError> {
    let mut pending: Vec<Relation> = db.atom_relations(query)?;
    // start from the smallest relation
    let start = pending
        .iter()
        .enumerate()
        .min_by_key(|(_, r)| r.len())
        .map(|(i, _)| i)
        .ok_or(QueryError::EmptyQuery)?;
    let mut acc = pending.swap_remove(start);

    while !pending.is_empty() {
        if let Some(t) = token {
            t.check()?;
        }
        // smallest joinable next; Cartesian product only if the query is disconnected
        let next = pending
            .iter()
            .enumerate()
            .filter(|(_, r)| !acc.schema().common_attrs(r.schema()).is_empty())
            .min_by_key(|(_, r)| r.len())
            .map(|(i, _)| i);
        match next {
            Some(i) => {
                let rel = pending.swap_remove(i);
                acc = hash_join(&acc, &rel, counter)?;
            }
            None => {
                let rel = pending.swap_remove(0);
                let product = nested_loop_join(&[&acc, &rel])?;
                counter.add_intermediate(product.len() as u64);
                acc = product;
            }
        }
    }

    let var_refs: Vec<&str> = query.var_names().iter().map(|s| s.as_str()).collect();
    let out = acc.project(&var_refs)?;
    counter.add_output(out.len() as u64);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wcoj_query::query::examples;

    #[test]
    fn triangle_plan_finds_all_triangles() {
        let q = examples::triangle();
        let mut db = Database::new();
        db.insert(
            "R",
            Relation::from_pairs("x", "y", vec![(1, 2), (2, 3), (1, 3)]),
        );
        db.insert(
            "S",
            Relation::from_pairs("x", "y", vec![(2, 3), (3, 1), (3, 4)]),
        );
        db.insert(
            "T",
            Relation::from_pairs("x", "y", vec![(1, 3), (2, 1), (1, 4)]),
        );
        let w = WorkCounter::new();
        let out = binary_hash_plan(&q, &db, &w, None).unwrap();
        assert_eq!(out.len(), 3);
        assert!(out.contains(&[1, 2, 3]));
        assert!(w.intermediate_tuples() > 0);
        assert_eq!(w.output_tuples(), 3);
    }

    #[test]
    fn disconnected_query_falls_back_to_product() {
        let q = ConjunctiveQuery::builder()
            .atom("R", &["A"])
            .atom("S", &["B"])
            .build()
            .unwrap();
        let mut db = Database::new();
        db.insert(
            "R",
            Relation::from_rows(wcoj_storage::Schema::new(&["A"]), vec![vec![1], vec![2]]),
        );
        db.insert(
            "S",
            Relation::from_rows(wcoj_storage::Schema::new(&["B"]), vec![vec![7], vec![8]]),
        );
        let w = WorkCounter::new();
        let out = binary_hash_plan(&q, &db, &w, None).unwrap();
        assert_eq!(out.len(), 4);
    }

    #[test]
    fn missing_relation_is_an_error() {
        let q = examples::triangle();
        let db = Database::new();
        let w = WorkCounter::new();
        assert!(matches!(
            binary_hash_plan(&q, &db, &w, None).unwrap_err(),
            ExecError::Database(_)
        ));
    }
}
