//! The AGM bound (Atserias–Grohe–Marx) and the fractional edge cover number.
//!
//! For a query with hypergraph `H` and cardinality constraints `|R_F| ≤ N_F`, the AGM
//! bound (Corollary 4.2) states `|Q| ≤ ∏_F N_F^{δ_F}` for any fractional edge cover
//! `δ`, and the best such bound is obtained by solving the LP (5):
//!
//! ```text
//! minimize   Σ_F δ_F · log2 N_F
//! subject to Σ_{F ∋ v} δ_F ≥ 1   for every variable v
//!            δ ≥ 0
//! ```
//!
//! With unit weights the optimum is the fractional edge cover number `ρ*(H)`, and
//! `|Q| ≤ N^{ρ*}` where `N = max_F N_F` (Grohe–Marx / Alon / Friedgut–Kahn).
//!
//! Under cardinality constraints alone, (5) is the dual of the modular LP (54):
//!
//! ```text
//! maximize   Σ_v h_v
//! subject to Σ_{v ∈ F} h_v ≤ log2 N_F   for every atom F
//!            h ≥ 0
//! ```
//!
//! Every log size is `≥ 0`, so the origin of (54) is feasible, and
//! [`crate::lp::solve_packing_lp`] solves it in one phase from the slack basis.
//! By complementary slackness the optimal cover `δ_F` is the reduced cost of
//! atom `F`'s slack column, read off the final tableau. Every bound here — the
//! AGM bound, the planner's prefix bounds and `ρ*` — is that one solve, over
//! rows taken from the atoms as they are.

use crate::lp::{solve_packing_lp, LpError};
use crate::BoundError;
use wcoj_query::{Atom, ConjunctiveQuery, Database, Hypergraph, VarId};

/// The result of solving the AGM LP.
#[derive(Debug, Clone)]
pub struct AgmBound {
    /// `log2` of the bound on `|Q|`.
    pub log2_bound: f64,
    /// An optimal fractional edge cover, one weight per atom (in atom order).
    pub exponents: Vec<f64>,
    /// `log2 N_F` per atom, as used in the objective.
    pub log_sizes: Vec<f64>,
}

impl AgmBound {
    /// The bound as a tuple count `2^{log2_bound}`.
    pub fn tuple_bound(&self) -> f64 {
        self.log2_bound.exp2()
    }
}

/// Solve the cover LP (5) over `num_vars` variables as its dual (54): one row per
/// atom, its weight (`log2` size) and the variables it covers. Returns
/// `(objective, cover)`.
fn solve_cover_lp<R, I>(num_vars: usize, rows: R) -> Result<(f64, Vec<f64>), BoundError>
where
    R: IntoIterator<Item = (f64, I)>,
    R::IntoIter: ExactSizeIterator,
    I: IntoIterator<Item = VarId>,
{
    match solve_packing_lp(num_vars, rows) {
        Ok(packing) => Ok((packing.objective, packing.dual)),
        Err(LpError::Unbounded { .. }) => Err(BoundError::Infinite {
            reason: "some variable occurs in no atom".to_string(),
        }),
        Err(e) => Err(e.into()),
    }
}

/// The fractional edge cover number `ρ*(H)`: the covering LP with unit weights.
pub fn fractional_edge_cover_number(h: &Hypergraph) -> f64 {
    let rows = h.edges().iter().map(|edge| (1.0, edge.iter().copied()));
    solve_cover_lp(h.num_vertices(), rows)
        .map(|(obj, _)| obj)
        .unwrap_or(f64::INFINITY)
}

/// The AGM bound for `query` given explicit per-atom sizes `N_F` (in atom order).
pub fn agm_bound_from_sizes(
    query: &ConjunctiveQuery,
    sizes: &[u64],
) -> Result<AgmBound, BoundError> {
    if sizes.len() != query.atoms().len() {
        return Err(BoundError::Invalid(format!(
            "expected {} sizes, got {}",
            query.atoms().len(),
            sizes.len()
        )));
    }
    if sizes.contains(&0) {
        // An empty relation forces an empty output; report log2 bound of -inf as 0
        // tuples via a zero bound.
        return Ok(AgmBound {
            log2_bound: f64::NEG_INFINITY,
            exponents: vec![0.0; sizes.len()],
            log_sizes: sizes
                .iter()
                .map(|&s| {
                    if s == 0 {
                        f64::NEG_INFINITY
                    } else {
                        (s as f64).log2()
                    }
                })
                .collect(),
        });
    }
    let log_sizes: Vec<f64> = sizes.iter().map(|&s| (s as f64).log2()).collect();
    let rows =
        (query.atoms().iter().zip(&log_sizes)).map(|(atom, &l)| (l, atom.vars.iter().copied()));
    let (obj, cover) = solve_cover_lp(query.num_vars(), rows)?;
    Ok(AgmBound {
        log2_bound: obj,
        exponents: cover,
        log_sizes,
    })
}

/// The AGM bound for `query` over the concrete database `db`, using the actual
/// relation sizes as the cardinality constraints.
pub fn agm_bound(query: &ConjunctiveQuery, db: &Database) -> Result<AgmBound, BoundError> {
    let sizes: Result<Vec<u64>, _> = (0..query.atoms().len())
        .map(|i| {
            // atom_size avoids materializing delta-backed (live) relations
            db.atom_size(query, i)
                .map(|n| n as u64)
                .map_err(|e| BoundError::Database(e.to_string()))
        })
        .collect();
    agm_bound_from_sizes(query, &sizes?)
}

/// `log2` of the AGM bound of `query` **restricted to the variables `vars`**:
/// every atom is projected onto `vars` (a projection is no larger than its
/// relation, so atom `F` keeps its weight `log_sizes[F]`) and the cover LP (5) is
/// solved over the variables of `vars` and the atoms touching them. This bounds
/// the bindings Generic Join visits once it has bound exactly `vars` (Section
/// 4.2), so the sum of these over the prefixes of a variable order is that
/// order's cost.
///
/// One and two variables need no LP. For `{v}` the bound is the smallest atom
/// containing `v`. For `{u, v}` the cover LP has two constraints, so a basic
/// optimum charges either one atom containing both or the smallest atom of each:
/// `min(min_{F ⊇ {u,v}} N_F, min_{F ∋ u} N_F · min_{F ∋ v} N_F)`.
///
/// Every log size must be a finite number `≥ 0` (`0` is a one-row relation) or
/// `-inf` (an empty relation), else [`BoundError::Invalid`] names the atom. An
/// empty atom touching `vars` gives `-inf`; a variable no atom contains is
/// [`BoundError::Infinite`].
pub fn prefix_log2_bound(
    query: &ConjunctiveQuery,
    log_sizes: &[f64],
    vars: &[VarId],
) -> Result<f64, BoundError> {
    let atoms = query.atoms();
    if log_sizes.len() != atoms.len() {
        return Err(BoundError::Invalid("one log size per atom".to_string()));
    }
    let valid = |l: f64| l == f64::NEG_INFINITY || (l.is_finite() && l >= 0.0);
    if let Some(f) = log_sizes.iter().position(|&l| !valid(l)) {
        return Err(BoundError::Invalid(format!(
            "atom {f} ({}) has log size {}, not a finite number >= 0 or -inf",
            atoms[f].name, log_sizes[f]
        )));
    }
    // the smallest log size among the atoms containing every variable of `of`
    let smallest = |of: &[VarId]| {
        let among = atoms.iter().zip(log_sizes);
        among
            .filter(|(atom, _)| of.iter().all(|v| atom.vars.contains(v)))
            .fold(f64::INFINITY, |least, (_, &l)| least.min(l))
    };
    let bound = match *vars {
        [] => 0.0,
        [v] => smallest(&[v]),
        [u, v] => smallest(&[u, v]).min(smallest(&[u]) + smallest(&[v])),
        _ => {
            // LP variable `i` is `vars[i]`; an atom that misses `vars` is an
            // empty row, which bounds nothing whatever its weight
            let touches = |atom: &Atom| vars.iter().any(|v| atom.vars.contains(v));
            if (atoms.iter().zip(log_sizes))
                .any(|(atom, &l)| l == f64::NEG_INFINITY && touches(atom))
            {
                return Ok(f64::NEG_INFINITY);
            }
            let rows = atoms.iter().zip(log_sizes).map(|(atom, &l)| {
                let row = (0..vars.len()).filter(|&i| atom.vars.contains(&vars[i]));
                (l.max(0.0), row)
            });
            solve_cover_lp(vars.len(), rows)?.0
        }
    };
    // a closed form over a variable no atom contains (the LP reports its own)
    if bound == f64::INFINITY {
        return Err(BoundError::Infinite {
            reason: "some variable occurs in no atom".to_string(),
        });
    }
    Ok(bound)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wcoj_query::query::examples;
    use wcoj_storage::Relation;

    #[test]
    fn rho_star_of_standard_hypergraphs() {
        assert!((fractional_edge_cover_number(&Hypergraph::cycle(3)) - 1.5).abs() < 1e-9);
        assert!((fractional_edge_cover_number(&Hypergraph::cycle(4)) - 2.0).abs() < 1e-9);
        assert!((fractional_edge_cover_number(&Hypergraph::cycle(5)) - 2.5).abs() < 1e-9);
        // LW(k) has rho* = k/(k-1)
        assert!((fractional_edge_cover_number(&Hypergraph::loomis_whitney(3)) - 1.5).abs() < 1e-9);
        assert!(
            (fractional_edge_cover_number(&Hypergraph::loomis_whitney(4)) - 4.0 / 3.0).abs() < 1e-9
        );
        assert!(
            (fractional_edge_cover_number(&Hypergraph::loomis_whitney(5)) - 5.0 / 4.0).abs() < 1e-9
        );
        // k-clique has rho* = k/2
        assert!((fractional_edge_cover_number(&Hypergraph::clique(4)) - 2.0).abs() < 1e-9);
        assert!((fractional_edge_cover_number(&Hypergraph::clique(5)) - 2.5).abs() < 1e-9);
        // star with k leaves needs every edge: rho* = k
        assert!((fractional_edge_cover_number(&Hypergraph::star(4)) - 4.0).abs() < 1e-9);
        // uncovered vertex: infinite
        assert!(fractional_edge_cover_number(&Hypergraph::new(2, vec![vec![0]])).is_infinite());
    }

    #[test]
    fn triangle_agm_equal_sizes() {
        let q = examples::triangle();
        let b = agm_bound_from_sizes(&q, &[1 << 10, 1 << 10, 1 << 10]).unwrap();
        assert!((b.log2_bound - 15.0).abs() < 1e-6);
        for e in &b.exponents {
            assert!((e - 0.5).abs() < 1e-6);
        }
        assert!((b.tuple_bound() - 32768.0).abs() < 1e-2);
    }

    #[test]
    fn triangle_agm_skewed_sizes_picks_integral_cover() {
        // |T| enormous: cover A and C through R and S instead (alpha = beta = 1).
        let q = examples::triangle();
        let b = agm_bound_from_sizes(&q, &[4, 4, 1 << 20]).unwrap();
        assert!((b.log2_bound - 4.0).abs() < 1e-6);
        assert!(b.exponents[2].abs() < 1e-6);
    }

    #[test]
    fn agm_wrong_arity_and_empty_relation() {
        let q = examples::triangle();
        assert!(matches!(
            agm_bound_from_sizes(&q, &[1, 2]).unwrap_err(),
            BoundError::Invalid(_)
        ));
        let b = agm_bound_from_sizes(&q, &[0, 5, 5]).unwrap();
        assert_eq!(b.log2_bound, f64::NEG_INFINITY);
        assert_eq!(b.tuple_bound(), 0.0);
    }

    #[test]
    fn agm_bound_from_database() {
        let q = examples::triangle();
        let mut db = Database::new();
        db.insert(
            "R",
            Relation::from_pairs("A", "B", (0..16).map(|i| (i / 4, i % 4))),
        );
        db.insert(
            "S",
            Relation::from_pairs("B", "C", (0..16).map(|i| (i / 4, i % 4))),
        );
        db.insert(
            "T",
            Relation::from_pairs("A", "C", (0..16).map(|i| (i / 4, i % 4))),
        );
        let b = agm_bound(&q, &db).unwrap();
        // |R|=|S|=|T|=16, bound = 16^{3/2} = 64
        assert!((b.tuple_bound() - 64.0).abs() < 1e-6);
        // the bound really is an upper bound on the true output (complete tripartite
        // structure here gives exactly 4*4*4 = 64 triangles)
        let missing = {
            let mut db2 = Database::new();
            db2.insert("R", Relation::from_pairs("A", "B", vec![(1, 2)]));
            db2
        };
        assert!(matches!(
            agm_bound(&q, &missing).unwrap_err(),
            BoundError::Database(_)
        ));
    }

    #[test]
    fn prefix_bounds_of_the_triangle_and_their_edge_cases() {
        let q = examples::triangle(); // R(A,B), S(B,C), T(A,C)
        let logs = [2.0, 6.0, 6.0];
        let bound = |vars: &[VarId]| prefix_log2_bound(&q, &logs, vars);
        assert_eq!(bound(&[]).unwrap(), 0.0);
        assert_eq!(bound(&[0]).unwrap(), 2.0); // A: min(R, T)
        assert_eq!(bound(&[2]).unwrap(), 6.0); // C: min(S, T)
        assert_eq!(bound(&[0, 1]).unwrap(), 2.0); // R covers both
        assert_eq!(bound(&[0, 2]).unwrap(), 6.0); // min(T, R·S)
        assert!((bound(&[2, 0, 1]).unwrap() - 7.0).abs() < 1e-9); // sqrt(R·S·T)
                                                                  // a variable no atom contains is a typed error at every size
        for vars in [&[9][..], &[0, 9], &[0, 1, 9]] {
            assert!(matches!(bound(vars), Err(BoundError::Infinite { .. })));
        }
        assert!(matches!(
            prefix_log2_bound(&q, &[1.0], &[0]),
            Err(BoundError::Invalid(_))
        ));
        // an empty atom empties every prefix it touches, and only those
        let empty_s = [2.0, f64::NEG_INFINITY, 6.0];
        assert_eq!(prefix_log2_bound(&q, &empty_s, &[0]).unwrap(), 2.0);
        for vars in [&[1][..], &[0, 1], &[0, 1, 2]] {
            let bound = prefix_log2_bound(&q, &empty_s, vars).unwrap();
            assert_eq!(bound, f64::NEG_INFINITY, "{vars:?}");
        }
    }

    #[test]
    fn a_log_size_that_is_no_size_is_invalid_and_names_its_atom() {
        let q = examples::triangle(); // R(A,B), S(B,C), T(A,C)
        for bad in [f64::NAN, f64::INFINITY, -1.0] {
            let logs = [2.0, bad, 6.0];
            for vars in [&[0][..], &[0, 1], &[0, 1, 2]] {
                match prefix_log2_bound(&q, &logs, vars) {
                    Err(BoundError::Invalid(msg)) => assert!(msg.contains("atom 1 (S)"), "{msg}"),
                    other => panic!("{bad} over {vars:?}: {other:?}"),
                }
            }
        }
        // a one-row relation weighs 0 bits; an empty one empties what it touches
        let one_row = [0.0, 6.0, 6.0];
        assert_eq!(prefix_log2_bound(&q, &one_row, &[0, 1]).unwrap(), 0.0);
        assert!((prefix_log2_bound(&q, &one_row, &[0, 1, 2]).unwrap() - 6.0).abs() < 1e-9);
        let empty = [f64::NEG_INFINITY, 6.0, 6.0];
        assert_eq!(prefix_log2_bound(&q, &empty, &[2]).unwrap(), 6.0);
        let bound = prefix_log2_bound(&q, &empty, &[0, 1, 2]).unwrap();
        assert_eq!(bound, f64::NEG_INFINITY);
    }

    #[test]
    fn agm_exponents_form_a_fractional_edge_cover() {
        let q = examples::four_cycle();
        let b = agm_bound_from_sizes(&q, &[100, 200, 300, 400]).unwrap();
        assert!(q.hypergraph().is_fractional_edge_cover(&b.exponents));
        // bound value consistent with exponents
        let recomputed: f64 = b
            .exponents
            .iter()
            .zip(&b.log_sizes)
            .map(|(d, l)| d * l)
            .sum();
        assert!((recomputed - b.log2_bound).abs() < 1e-6);
    }
}
