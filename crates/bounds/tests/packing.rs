//! The packing solver against the two-phase `LinearProgram` it replaced on the
//! AGM and modular paths.
//!
//! The cover side solves the AGM LP (5) as the old path did — one `δ_F` per
//! atom, one `≥ 1` row per variable, minimized by the two-phase simplex — over
//! seeded `random_hypergraph` queries, the named families (cycles,
//! Loomis–Whitney, cliques, stars) and the rows the planner makes: zero weights
//! from one-row relations, empty rows from prefix restriction, duplicate rows.
//! The modular side solves LP (54) as a `Maximize` program over random acyclic
//! and cyclic constraint sets. On every instance:
//! * the objectives agree within `1e-9 · max(1, |obj|)`;
//! * the packing `v` is primal feasible and the cover `δ` dual feasible;
//! * strong duality holds, `Σ b_i δ_i = Σ v_j`;
//! * the packing is `Unbounded` (`BoundError::Infinite` through the bounds)
//!   exactly when a variable lies in no row, which is exactly when the two-phase
//!   cover LP is infeasible.

use wcoj_bounds::agm::{agm_bound_from_sizes, fractional_edge_cover_number, prefix_log2_bound};
use wcoj_bounds::modular::modular_bound_unchecked;
use wcoj_bounds::BoundError;
use wcoj_lp::{solve_packing_lp, Cmp, LinearProgram, LpError, Packing, Sense};
use wcoj_query::{ConjunctiveQuery, ConstraintSet, DegreeConstraint, Hypergraph, VarId};
use wcoj_workloads::{random_hypergraph, SplitMix64};

/// One packing row: its bound and its variables.
type Row = (f64, Vec<VarId>);

const TOL: f64 = 1e-9;

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= TOL * b.abs().max(1.0)
}

fn uncovered(num_vars: usize, rows: &[Row]) -> bool {
    (0..num_vars).any(|j| rows.iter().all(|(_, vars)| !vars.contains(&j)))
}

fn packing(num_vars: usize, rows: &[Row]) -> Result<Packing, LpError> {
    solve_packing_lp(
        num_vars,
        rows.iter().map(|(b, vars)| (*b, vars.iter().copied())),
    )
}

/// The old AGM path: the cover LP (5), one `δ` per row, by the two-phase simplex.
fn two_phase_cover(num_vars: usize, rows: &[Row]) -> Result<f64, LpError> {
    let mut lp = LinearProgram::new(Sense::Minimize);
    let delta: Vec<_> = (rows.iter().enumerate())
        .map(|(i, (b, _))| lp.add_var(format!("delta_{i}"), *b))
        .collect();
    for j in 0..num_vars {
        let terms: Vec<_> = (rows.iter().zip(&delta))
            .filter(|((_, vars), _)| vars.contains(&j))
            .map(|(_, &d)| (d, 1.0))
            .collect();
        lp.add_constraint(&terms, Cmp::Ge, 1.0);
    }
    lp.solve().map(|sol| sol.objective)
}

/// The old modular path: LP (54) as a `Maximize` program.
fn two_phase_packing(num_vars: usize, rows: &[Row]) -> Result<f64, LpError> {
    let mut lp = LinearProgram::new(Sense::Maximize);
    let v: Vec<_> = (0..num_vars)
        .map(|j| lp.add_var(format!("v{j}"), 1.0))
        .collect();
    for (b, vars) in rows {
        let mut vars = vars.clone();
        vars.sort_unstable();
        vars.dedup();
        let terms: Vec<_> = vars.iter().map(|&j| (v[j], 1.0)).collect();
        lp.add_constraint(&terms, Cmp::Le, *b);
    }
    lp.solve().map(|sol| sol.objective)
}

/// Solve `rows` both ways and check the packing's certificate. Returns the
/// packing's objective, or `None` where a variable lies in no row.
fn check(
    num_vars: usize,
    rows: &[Row],
    reference: fn(usize, &[Row]) -> Result<f64, LpError>,
) -> Option<f64> {
    let label = format!("{num_vars} variables, rows {rows:?}");
    let solved = packing(num_vars, rows);
    if uncovered(num_vars, rows) {
        assert_eq!(solved, Err(LpError::Unbounded), "{label}");
        assert!(reference(num_vars, rows).is_err(), "{label}");
        return None;
    }
    let p = solved.unwrap_or_else(|e| panic!("{label}: {e}"));
    let expected = reference(num_vars, rows).unwrap_or_else(|e| panic!("{label}: {e}"));
    assert!(
        close(p.objective, expected),
        "{label}: {} vs {expected}",
        p.objective
    );
    // primal feasibility
    assert!(
        p.primal.iter().all(|&v| v >= -TOL),
        "{label}: {:?}",
        p.primal
    );
    for (b, vars) in rows {
        let mut vars = vars.clone();
        vars.sort_unstable();
        vars.dedup();
        let load: f64 = vars.iter().map(|&j| p.primal[j]).sum();
        assert!(
            load <= b + TOL * b.max(1.0),
            "{label}: row {vars:?} packs {load} > {b}"
        );
    }
    // dual feasibility: δ is a fractional cover of every variable
    assert!(p.dual.iter().all(|&d| d >= -TOL), "{label}: {:?}", p.dual);
    for j in 0..num_vars {
        let cover: f64 = (rows.iter().zip(&p.dual))
            .filter(|((_, vars), _)| vars.contains(&j))
            .map(|(_, d)| d)
            .sum();
        assert!(cover >= 1.0 - TOL, "{label}: variable {j} covered {cover}");
    }
    // strong duality
    let priced: f64 = rows.iter().zip(&p.dual).map(|((b, _), d)| b * d).sum();
    let packed: f64 = p.primal.iter().sum();
    assert!(
        close(priced, p.objective) && close(packed, p.objective),
        "{label}"
    );
    Some(p.objective)
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

fn atom_rows(query: &ConjunctiveQuery, log_sizes: &[f64]) -> Vec<Row> {
    (query.atoms().iter().zip(log_sizes))
        .map(|(atom, &l)| (l, atom.vars.clone()))
        .collect()
}

/// `query`'s cover LP restricted to `vars` as the old `prefix_log2_bound` built
/// it: variable `i` is `vars[i]`, an atom that misses `vars` an empty row at
/// weight 0.
fn restricted_rows(query: &ConjunctiveQuery, log_sizes: &[f64], vars: &[VarId]) -> Vec<Row> {
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
fn the_cover_side_agrees_with_the_two_phase_lp() {
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
        let objective = check(n, &rows, two_phase_cover).expect("every variable is in an atom");
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
        assert!(
            close(check(n, &doubled, two_phase_cover).unwrap(), objective),
            "{}",
            w.name
        );

        // a prefix: empty rows for the atoms that miss it, through the planner's bound
        let mut vars: Vec<VarId> = (0..n).filter(|_| rng.below(3) != 0).collect();
        if vars.len() < 3 {
            vars = (0..n.min(3)).collect();
        }
        let restricted = restricted_rows(query, &log_sizes, &vars);
        if let Some(objective) = check(vars.len(), &restricted, two_phase_cover) {
            let bound = prefix_log2_bound(query, &log_sizes, &vars).unwrap();
            assert!(close(bound, objective), "{} over {vars:?}", w.name);
        }

        // some atoms dropped: a variable may lie in no row, which is infinite
        let kept: Vec<Row> = rows.iter().filter(|_| rng.below(3) != 0).cloned().collect();
        let solved = check(n, &kept, two_phase_cover);
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
fn the_named_families_agree_with_the_two_phase_lp() {
    let mut rng = SplitMix64::new(0xFA417);
    for k in 3..=7 {
        let families = [
            (Hypergraph::cycle(k), k as f64 / 2.0),
            (Hypergraph::loomis_whitney(k), k as f64 / (k - 1) as f64),
            (Hypergraph::clique(k), k as f64 / 2.0),
            (Hypergraph::star(k), k as f64),
        ];
        for (h, rho) in families {
            let unit: Vec<Row> = h.edges().iter().map(|e| (1.0, e.clone())).collect();
            let n = h.num_vertices();
            assert!(
                close(check(n, &unit, two_phase_cover).unwrap(), rho),
                "{h:?}"
            );
            assert!(close(fractional_edge_cover_number(&h), rho), "{h:?}");
            for _ in 0..8 {
                let weighted: Vec<Row> = (h.edges().iter())
                    .map(|e| (log_size(&mut rng), e.clone()))
                    .collect();
                check(n, &weighted, two_phase_cover);
            }
        }
    }
}

/// A random constraint set over `n` variables: with `acyclic`, every
/// constraint's `X` precedes its `Y − X` in one random order; otherwise the
/// variables are drawn freely and `X` is never empty, so `G_DC` often has a
/// cycle.
fn random_constraints(n: usize, acyclic: bool, rng: &mut SplitMix64) -> ConstraintSet {
    let mut order: Vec<VarId> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.below(i as u64 + 1) as usize);
    }
    let mut dc = ConstraintSet::new();
    for _ in 0..1 + rng.below(2 * n as u64) {
        let bits = 1 + rng.below(16);
        let bound = match rng.below(4) {
            0 => 1,
            _ => 1 + rng.below(1 << bits),
        };
        // a cyclic draw conditions on a non-empty X, so G_DC gets edges
        let len = if acyclic {
            1 + rng.below(n.min(3) as u64) as usize
        } else {
            2 + rng.below(n.min(3) as u64 - 1) as usize
        };
        let mut y: Vec<VarId> = Vec::new();
        while y.len() < len {
            let v = order[rng.below(n as u64) as usize];
            if !y.contains(&v) {
                y.push(v);
            }
        }
        // X: a proper prefix of Y — by `order` when acyclic
        if acyclic {
            y.sort_by_key(|v| order.iter().position(|u| u == v));
        }
        let x_len = if acyclic {
            rng.below(len as u64)
        } else {
            1 + rng.below(len as u64 - 1)
        };
        let x = y[..x_len as usize].to_vec();
        dc.push(DegreeConstraint::new(x, y, bound));
    }
    dc
}

#[test]
fn the_modular_side_agrees_with_the_two_phase_lp() {
    let mut rng = SplitMix64::new(0x0D0C);
    let (mut acyclic, mut cyclic, mut infinite) = (0, 0, 0);
    for i in 0..600 {
        let n = 2 + rng.below(5) as usize;
        let dc = random_constraints(n, i % 2 == 0, &mut rng);
        let rows: Vec<Row> = dc.iter().map(|c| (c.log_bound(), c.y_minus_x())).collect();
        let solved = check(n, &rows, two_phase_packing);
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
