//! The packing solver, certified by duality on every instance.
//!
//! The cover side solves the AGM LP (5) as its dual, the packing LP (54), over
//! seeded `random_hypergraph` queries, the named families (cycles,
//! Loomis–Whitney, cliques, stars) and the rows the planner makes: zero weights
//! from one-row relations, empty rows from prefix restriction, duplicate rows.
//! The modular side solves LP (54) over random acyclic and cyclic constraint
//! sets. On every instance:
//! * the solve passes [`common::certify`]: the packing `v` is primal feasible,
//!   the cover `δ` dual feasible, and `Σ b_i δ_i = Σ v_j`, or its ray proves
//!   the LP unbounded — a check that does not depend on the solver's pivots;
//! * the packing is `Unbounded` (`BoundError::Infinite` through the bounds)
//!   exactly when a variable lies in no row;
//! * the bounds built on the solve report its certified objective.

mod common;

use common::{certify, close, random_constraints, Row};
use wcoj_bounds::agm::{agm_bound_from_sizes, fractional_edge_cover_number, prefix_log2_bound};
use wcoj_bounds::lp::solve_packing_lp;
use wcoj_bounds::modular::modular_bound_unchecked;
use wcoj_bounds::BoundError;
use wcoj_query::{ConjunctiveQuery, Hypergraph, VarId};
use wcoj_workloads::{random_hypergraph, SplitMix64};

/// One packing row: its bound and its variables.
type PackingRow = (f64, Vec<VarId>);

fn uncovered(num_vars: usize, rows: &[PackingRow]) -> bool {
    (0..num_vars).any(|j| rows.iter().all(|(_, vars)| !vars.contains(&j)))
}

/// Solve `rows` and check the solve's certificate. Returns the packing's
/// objective, or `None` where a variable lies in no row.
fn check(num_vars: usize, rows: &[PackingRow]) -> Option<f64> {
    let label = format!("{num_vars} variables, rows {rows:?}");
    let solved = solve_packing_lp(
        num_vars,
        rows.iter().map(|(b, vars)| (*b, vars.iter().copied())),
    );
    // the LP as `A x ≤ b`: a repeated variable counts once
    let general: Vec<Row> = (rows.iter())
        .map(|(b, vars)| {
            let mut vars = vars.clone();
            vars.sort_unstable();
            vars.dedup();
            (*b, vars.into_iter().map(|j| (j, 1.0)).collect())
        })
        .collect();
    let objective = certify(&vec![1.0; num_vars], &general, &solved, &label);
    assert_eq!(objective.is_none(), uncovered(num_vars, rows), "{label}");
    objective
}

/// A log size as the planner sees one: `0` for a one-row relation, else up to
/// `2^20` rows.
fn log_size(rng: &mut SplitMix64) -> f64 {
    let bits = 1 + rng.below(20);
    match rng.below(4) {
        0 => 0.0,
        _ => ((1 + rng.below(1 << bits)) as f64).log2(),
    }
}

fn atom_rows(query: &ConjunctiveQuery, log_sizes: &[f64]) -> Vec<PackingRow> {
    (query.atoms().iter().zip(log_sizes))
        .map(|(atom, &l)| (l, atom.vars.clone()))
        .collect()
}

/// `query`'s cover LP restricted to `vars` as the old `prefix_log2_bound` built
/// it: variable `i` is `vars[i]`, an atom that misses `vars` an empty row at
/// weight 0.
fn restricted_rows(query: &ConjunctiveQuery, log_sizes: &[f64], vars: &[VarId]) -> Vec<PackingRow> {
    (query.atoms().iter().zip(log_sizes))
        .map(|(atom, &l)| {
            let edge: Vec<VarId> = (0..vars.len())
                .filter(|&i| atom.vars.contains(&vars[i]))
                .collect();
            (if edge.is_empty() { 0.0 } else { l }, edge)
        })
        .collect()
}

#[test]
fn the_cover_side_is_certified_by_duality() {
    let mut instances = 0;
    for seed in 0..520u64 {
        let mut rng = SplitMix64::new(0xC0FE ^ seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let num_vars = 2 + rng.below(6) as usize;
        let num_atoms = 1 + rng.below(6) as usize;
        let max_arity = (2 + rng.below(3) as usize).max(num_vars.div_ceil(num_atoms));
        let w = random_hypergraph(num_vars, num_atoms, max_arity, 4, seed);
        let (query, n) = (&w.query, w.query.num_vars());
        let log_sizes: Vec<f64> = (0..num_atoms).map(|_| log_size(&mut rng)).collect();

        // the whole query, through the AGM bound
        let rows = atom_rows(query, &log_sizes);
        let objective = check(n, &rows).expect("every variable is in an atom");
        let sizes: Vec<u64> = log_sizes.iter().map(|l| l.exp2().round() as u64).collect();
        let agm = agm_bound_from_sizes(query, &sizes).unwrap();
        assert!(close(agm.log2_bound, objective), "{}: {agm:?}", w.name);
        assert!(
            query.hypergraph().is_fractional_edge_cover(&agm.exponents),
            "{}",
            w.name
        );

        // duplicate rows: an atom listed twice
        let mut doubled = rows.clone();
        doubled.extend_from_slice(&rows[..1 + rng.below(num_atoms as u64) as usize]);
        assert!(close(check(n, &doubled).unwrap(), objective), "{}", w.name);

        // a prefix: empty rows for the atoms that miss it, through the planner's bound
        let mut vars: Vec<VarId> = (0..n).filter(|_| rng.below(3) != 0).collect();
        if vars.len() < 3 {
            vars = (0..n.min(3)).collect();
        }
        let restricted = restricted_rows(query, &log_sizes, &vars);
        if let Some(objective) = check(vars.len(), &restricted) {
            let bound = prefix_log2_bound(query, &log_sizes, &vars).unwrap();
            assert!(close(bound, objective), "{} over {vars:?}", w.name);
        }

        // some atoms dropped: a variable may lie in no row, which is infinite
        let kept: Vec<PackingRow> = rows.iter().filter(|_| rng.below(3) != 0).cloned().collect();
        let solved = check(n, &kept);
        assert_eq!(solved.is_none(), uncovered(n, &kept), "{}", w.name);
        instances += 4;
    }
    assert!(instances >= 2000);
}

#[test]
fn a_variable_in_no_atom_is_infinite_through_the_bounds() {
    let w = random_hypergraph(4, 3, 3, 4, 7);
    let logs = [3.0, 0.0, 5.0];
    for vars in [&[0, 1, 4][..], &[4, 0, 1, 2], &[0, 1, 2, 3, 9]] {
        let bound = prefix_log2_bound(&w.query, &logs, vars);
        assert!(
            matches!(bound, Err(BoundError::Infinite { .. })),
            "{vars:?}: {bound:?}"
        );
    }
    let isolated = Hypergraph::new(3, vec![vec![0, 1], vec![1]]);
    assert_eq!(fractional_edge_cover_number(&isolated), f64::INFINITY);
}

#[test]
fn the_named_families_are_certified_by_duality() {
    let mut rng = SplitMix64::new(0xFA417);
    for k in 3..=7 {
        let families = [
            (Hypergraph::cycle(k), k as f64 / 2.0),
            (Hypergraph::loomis_whitney(k), k as f64 / (k - 1) as f64),
            (Hypergraph::clique(k), k as f64 / 2.0),
            (Hypergraph::star(k), k as f64),
        ];
        for (h, rho) in families {
            let unit: Vec<PackingRow> = h.edges().iter().map(|e| (1.0, e.clone())).collect();
            let n = h.num_vertices();
            assert!(close(check(n, &unit).unwrap(), rho), "{h:?}");
            assert!(close(fractional_edge_cover_number(&h), rho), "{h:?}");
            for _ in 0..8 {
                let weighted: Vec<PackingRow> = (h.edges().iter())
                    .map(|e| (log_size(&mut rng), e.clone()))
                    .collect();
                check(n, &weighted);
            }
        }
    }
}

#[test]
fn the_modular_side_is_certified_by_duality() {
    let mut rng = SplitMix64::new(0x0D0C);
    let (mut acyclic, mut cyclic, mut infinite) = (0, 0, 0);
    for i in 0..600 {
        let n = 2 + rng.below(5) as usize;
        let dc = random_constraints(n, i % 2 == 0, &mut rng);
        let rows: Vec<PackingRow> = dc.iter().map(|c| (c.log_bound(), c.y_minus_x())).collect();
        let solved = check(n, &rows);
        let bound = modular_bound_unchecked(n, &dc);
        match solved {
            Some(objective) => {
                let bound = bound.unwrap();
                assert!(close(bound.log2_bound, objective), "{dc:?}");
                assert_eq!(bound.exponents.len(), dc.len());
            }
            None => {
                assert!(matches!(bound, Err(BoundError::Infinite { .. })), "{dc:?}");
                infinite += 1;
            }
        }
        if dc.is_acyclic(n) {
            acyclic += 1;
        } else {
            cyclic += 1;
        }
    }
    assert!(
        acyclic >= 200 && cyclic >= 100 && infinite >= 50,
        "{acyclic} {cyclic} {infinite}"
    );
}
