//! Dense two-phase primal simplex with Bland's anti-cycling rule.
//!
//! The implementation favours clarity and robustness over speed: the LPs it gets from
//! `wcoj-bounds` — the polymatroid LP (68) and the Shannon-flow LP (72) — have at most
//! a few thousand rows/columns (up to ~10 variables), for which a dense tableau is
//! perfectly adequate. The packing LPs of the AGM and modular bounds, whose origin is
//! feasible, skip phase 1 and the artificials: [`crate::solve_packing_lp`].
//!
//! Outline:
//!
//! 1. The [`crate::LinearProgram`] is converted to standard form
//!    `min c'x  s.t.  Ax = b, x >= 0, b >= 0` by negating maximization objectives,
//!    splitting free variables, flipping rows with negative right-hand sides, and
//!    adding slack/surplus variables.
//! 2. An artificial column is appended for *every* row. Rows whose slack can serve as
//!    the initial basic variable use it; the others start with their artificial basic.
//!    Artificial columns are never allowed to enter the basis; they double as a record
//!    of the running basis inverse, which is how dual values are read off at the end
//!    (`y = c_B' B^{-1}`).
//! 3. Phase 1 minimizes the sum of basic artificials; a positive optimum means the
//!    program is infeasible. Remaining basic artificials (at level zero) are pivoted
//!    out, or their (redundant) rows dropped.
//! 4. Phase 2 minimizes the real objective. Bland's rule (smallest-index entering and
//!    leaving variable) guarantees termination.

use crate::error::LpError;
use crate::problem::{Cmp, LinearProgram, Sense};
use crate::solution::{Solution, Status};

/// Options controlling the simplex solver.
#[derive(Debug, Clone, Copy)]
pub struct SimplexOptions {
    /// Maximum number of pivots across both phases. `0` means "choose automatically"
    /// (a generous multiple of the problem size).
    pub max_pivots: usize,
    /// Numerical tolerance for feasibility / optimality tests.
    pub eps: f64,
}

impl Default for SimplexOptions {
    fn default() -> Self {
        SimplexOptions {
            max_pivots: 0,
            eps: crate::EPS,
        }
    }
}

/// Internal: the standard-form tableau plus bookkeeping to map back to the original
/// program.
struct Tableau {
    /// `rows[r]` has `ncols + 1` entries; the last entry is the right-hand side.
    rows: Vec<Vec<f64>>,
    /// Basic variable (column index) of each row.
    basis: Vec<usize>,
    /// Total number of columns (structural + slack + artificial).
    ncols: usize,
    /// First artificial column index; artificial `i` lives at `art0 + i` and initially
    /// corresponds to original constraint row `i`.
    art0: usize,
    /// Phase-2 cost of every column.
    cost: Vec<f64>,
    /// For each original variable: column of its non-negative part.
    pos_col: Vec<usize>,
    /// For each original variable: column of its negated part (free variables only).
    neg_col: Vec<Option<usize>>,
    /// +1 / -1 per original constraint depending on whether the row was flipped to make
    /// the right-hand side non-negative.
    row_sign: Vec<f64>,
    /// Original constraint index of each *current* row (rows may be dropped as
    /// redundant after phase 1).
    row_constraint: Vec<usize>,
}

fn build_tableau(lp: &LinearProgram) -> Tableau {
    let n = lp.num_vars();
    let m = lp.num_constraints();
    let sense_factor = match lp.sense() {
        Sense::Minimize => 1.0,
        Sense::Maximize => -1.0,
    };

    // Assign structural columns.
    let mut pos_col = Vec::with_capacity(n);
    let mut neg_col = Vec::with_capacity(n);
    let mut cost: Vec<f64> = Vec::new();
    for j in 0..n {
        pos_col.push(cost.len());
        cost.push(sense_factor * lp.objective()[j]);
        if lp.free_mask()[j] {
            neg_col.push(Some(cost.len()));
            cost.push(-sense_factor * lp.objective()[j]);
        } else {
            neg_col.push(None);
        }
    }
    let n_struct = cost.len();

    // One slack/surplus column per inequality row.
    let n_slack = lp.constraints().iter().filter(|c| c.cmp != Cmp::Eq).count();
    let art0 = n_struct + n_slack;
    let ncols = art0 + m;
    cost.resize(ncols, 0.0);

    let mut rows = Vec::with_capacity(m);
    let mut basis = Vec::with_capacity(m);
    let mut row_sign = Vec::with_capacity(m);
    let mut row_constraint = Vec::with_capacity(m);
    let mut next_slack = n_struct;

    for (ci, con) in lp.constraints().iter().enumerate() {
        let mut row = vec![0.0; ncols + 1];
        for &(v, coeff) in &con.terms {
            row[pos_col[v]] += coeff;
            if let Some(ncolv) = neg_col[v] {
                row[ncolv] -= coeff;
            }
        }
        row[ncols] = con.rhs;

        // Flip the row if the right-hand side is negative so that b >= 0.
        let mut cmp = con.cmp;
        let mut sign = 1.0;
        if row[ncols] < 0.0 {
            sign = -1.0;
            for e in row.iter_mut() {
                *e = -*e;
            }
            cmp = match cmp {
                Cmp::Le => Cmp::Ge,
                Cmp::Ge => Cmp::Le,
                Cmp::Eq => Cmp::Eq,
            };
        }

        // Slack / surplus.
        let mut initial_basic = None;
        match cmp {
            Cmp::Le => {
                row[next_slack] = 1.0;
                initial_basic = Some(next_slack);
                next_slack += 1;
            }
            Cmp::Ge => {
                row[next_slack] = -1.0;
                next_slack += 1;
            }
            Cmp::Eq => {}
        }

        // Artificial column (always present; only used as the initial basic variable
        // when the slack cannot serve).
        let art_col = art0 + ci;
        row[art_col] = 1.0;
        let basic = initial_basic.unwrap_or(art_col);

        rows.push(row);
        basis.push(basic);
        row_sign.push(sign);
        row_constraint.push(ci);
    }

    Tableau {
        rows,
        basis,
        ncols,
        art0,
        cost,
        pos_col,
        neg_col,
        row_sign,
        row_constraint,
    }
}

/// One simplex run over the current tableau with the given cost vector.
///
/// Entering candidates are restricted to columns `< tab.art0` (artificials never
/// enter). Returns the number of pivots performed.
fn run_simplex(
    tab: &mut Tableau,
    cost: &[f64],
    eps: f64,
    max_pivots: usize,
    pivots_done: &mut usize,
) -> Result<(), LpError> {
    loop {
        if *pivots_done > max_pivots {
            return Err(LpError::IterationLimit(max_pivots));
        }
        let m = tab.rows.len();
        let rhs_idx = tab.ncols;

        // Reduced costs r_j = c_j - c_B' * T[:, j]; Bland: entering = smallest index
        // with r_j < -eps.
        let mut entering = None;
        'cols: for j in 0..tab.art0 {
            if tab.basis.contains(&j) {
                continue;
            }
            let mut zj = 0.0;
            for r in 0..m {
                let cb = cost[tab.basis[r]];
                if cb != 0.0 {
                    zj += cb * tab.rows[r][j];
                }
            }
            let rj = cost[j] - zj;
            if rj < -eps {
                entering = Some(j);
                break 'cols;
            }
        }
        let Some(j) = entering else {
            return Ok(()); // optimal for this phase
        };

        // Ratio test with Bland's tie-break (smallest basic variable index).
        let mut leave: Option<(usize, f64)> = None;
        for r in 0..m {
            let a = tab.rows[r][j];
            if a > eps {
                let ratio = tab.rows[r][rhs_idx] / a;
                match leave {
                    None => leave = Some((r, ratio)),
                    Some((lr, lratio)) => {
                        if ratio < lratio - eps
                            || (ratio < lratio + eps && tab.basis[r] < tab.basis[lr])
                        {
                            leave = Some((r, ratio));
                        }
                    }
                }
            }
        }
        let Some((lr, _)) = leave else {
            return Err(LpError::Unbounded);
        };

        pivot(tab, lr, j);
        *pivots_done += 1;
    }
}

/// Pivot on `(row, col)`: normalize the pivot row and eliminate `col` from all other
/// rows; update the basis.
fn pivot(tab: &mut Tableau, row: usize, col: usize) {
    let width = tab.ncols + 1;
    let p = tab.rows[row][col];
    debug_assert!(p.abs() > 0.0, "pivot element must be non-zero");
    for k in 0..width {
        tab.rows[row][k] /= p;
    }
    for r in 0..tab.rows.len() {
        if r == row {
            continue;
        }
        let factor = tab.rows[r][col];
        if factor != 0.0 {
            for k in 0..width {
                tab.rows[r][k] -= factor * tab.rows[row][k];
            }
        }
    }
    tab.basis[row] = col;
}

/// Solve the program. This is the entry point used by [`LinearProgram::solve`].
pub(crate) fn solve(lp: &LinearProgram, opts: SimplexOptions) -> Result<Solution, LpError> {
    let mut tab = build_tableau(lp);
    let eps = opts.eps;
    let m = tab.rows.len();
    let max_pivots = if opts.max_pivots == 0 {
        500 * (m + tab.ncols + 10)
    } else {
        opts.max_pivots
    };
    let mut pivots = 0usize;

    // ---- Phase 1: minimize the sum of artificial variables. ----
    let mut phase1_cost = vec![0.0; tab.ncols];
    for cost in phase1_cost.iter_mut().skip(tab.art0) {
        *cost = 1.0;
    }
    // Price out the initially-basic artificials so reduced costs start consistent:
    // (run_simplex recomputes reduced costs from scratch each iteration, so nothing to
    // do here — this comment documents why no explicit pricing step is needed.)
    run_simplex(&mut tab, &phase1_cost, eps, max_pivots, &mut pivots)?;

    let rhs_idx = tab.ncols;
    let infeasibility: f64 = tab
        .basis
        .iter()
        .enumerate()
        .filter(|(_, &b)| b >= tab.art0)
        .map(|(r, _)| tab.rows[r][rhs_idx])
        .sum();
    if infeasibility > 1e-7 {
        return Err(LpError::Infeasible);
    }

    // Drive remaining (zero-level) artificials out of the basis, or drop their rows as
    // redundant.
    let mut r = 0;
    while r < tab.rows.len() {
        if tab.basis[r] >= tab.art0 {
            let mut pivot_col = None;
            for j in 0..tab.art0 {
                if tab.rows[r][j].abs() > eps {
                    pivot_col = Some(j);
                    break;
                }
            }
            match pivot_col {
                Some(j) => {
                    pivot(&mut tab, r, j);
                    pivots += 1;
                    r += 1;
                }
                None => {
                    // The row is all zeros over real columns: the original constraint
                    // is linearly dependent on the others. Drop it.
                    tab.rows.remove(r);
                    tab.basis.remove(r);
                    tab.row_constraint.remove(r);
                }
            }
        } else {
            r += 1;
        }
    }

    // ---- Phase 2: minimize the real objective. ----
    let phase2_cost = tab.cost.clone();
    run_simplex(&mut tab, &phase2_cost, eps, max_pivots, &mut pivots)?;

    // ---- Extract the primal solution. ----
    let mut x = vec![0.0; tab.ncols];
    for (r, &b) in tab.basis.iter().enumerate() {
        x[b] = tab.rows[r][rhs_idx];
    }
    let n = lp.num_vars();
    let mut primal = vec![0.0; n];
    for v in 0..n {
        let mut val = x[tab.pos_col[v]];
        if let Some(ncolv) = tab.neg_col[v] {
            val -= x[ncolv];
        }
        primal[v] = val;
    }
    let objective: f64 = (0..n).map(|v| lp.objective()[v] * primal[v]).sum();

    // ---- Extract the dual solution: y = c_B' B^{-1}. ----
    // The artificial column of original constraint i started as the i-th identity
    // column, so its current entries are the i-th column of B^{-1} (restricted to the
    // surviving rows). Dropped (redundant) rows get dual 0, which remains optimal
    // because the dropped constraints are implied by the others.
    let mut dual_std = vec![0.0; lp.num_constraints()];
    for (ci, d) in dual_std.iter_mut().enumerate() {
        let art_col = tab.art0 + ci;
        let mut y = 0.0;
        for (r, &b) in tab.basis.iter().enumerate() {
            let cb = phase2_cost[b];
            if cb != 0.0 {
                y += cb * tab.rows[r][art_col];
            }
        }
        *d = y;
    }
    let sense_factor = match lp.sense() {
        Sense::Minimize => 1.0,
        Sense::Maximize => -1.0,
    };
    let dual: Vec<f64> = dual_std
        .iter()
        .enumerate()
        .map(|(ci, &y)| sense_factor * tab.row_sign[ci] * y)
        .collect();

    Ok(Solution {
        status: Status::Optimal,
        objective,
        primal,
        dual,
        pivots,
    })
}

#[cfg(test)]
mod tests {
    use crate::{Cmp, LinearProgram, LpError, Sense};

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-7, "expected {b}, got {a}");
    }

    #[test]
    fn textbook_maximization() {
        // max 3x + 5y  s.t.  x <= 4, 2y <= 12, 3x + 2y <= 18 -> optimum 36 at (2, 6).
        let mut lp = LinearProgram::new(Sense::Maximize);
        let x = lp.add_var("x", 3.0);
        let y = lp.add_var("y", 5.0);
        lp.add_constraint(&[(x, 1.0)], Cmp::Le, 4.0);
        lp.add_constraint(&[(y, 2.0)], Cmp::Le, 12.0);
        lp.add_constraint(&[(x, 3.0), (y, 2.0)], Cmp::Le, 18.0);
        let sol = lp.solve().unwrap();
        assert_close(sol.objective, 36.0);
        assert_close(sol.primal[x], 2.0);
        assert_close(sol.primal[y], 6.0);
        // Strong duality.
        assert_close(sol.dual_objective(&[4.0, 12.0, 18.0]), 36.0);
        // Known duals for this classic: (0, 3/2, 1).
        assert_close(sol.dual[0], 0.0);
        assert_close(sol.dual[1], 1.5);
        assert_close(sol.dual[2], 1.0);
    }

    #[test]
    fn minimization_with_ge() {
        // min 2x + 3y  s.t.  x + y >= 4, x >= 1  -> optimum 8 at (4, 0)? check:
        // 2*4=8 vs (1,3): 2+9=11, so yes (4,0) with value 8.
        let mut lp = LinearProgram::new(Sense::Minimize);
        let x = lp.add_var("x", 2.0);
        let y = lp.add_var("y", 3.0);
        lp.add_constraint(&[(x, 1.0), (y, 1.0)], Cmp::Ge, 4.0);
        lp.add_constraint(&[(x, 1.0)], Cmp::Ge, 1.0);
        let sol = lp.solve().unwrap();
        assert_close(sol.objective, 8.0);
        assert_close(sol.primal[x], 4.0);
        assert_close(sol.primal[y], 0.0);
        assert_close(sol.dual_objective(&[4.0, 1.0]), 8.0);
    }

    #[test]
    fn equality_constraints() {
        // min x + 2y  s.t.  x + y = 3, x - y = 1  -> x = 2, y = 1, obj = 4.
        let mut lp = LinearProgram::new(Sense::Minimize);
        let x = lp.add_var("x", 1.0);
        let y = lp.add_var("y", 2.0);
        lp.add_constraint(&[(x, 1.0), (y, 1.0)], Cmp::Eq, 3.0);
        lp.add_constraint(&[(x, 1.0), (y, -1.0)], Cmp::Eq, 1.0);
        let sol = lp.solve().unwrap();
        assert_close(sol.objective, 4.0);
        assert_close(sol.primal[x], 2.0);
        assert_close(sol.primal[y], 1.0);
    }

    #[test]
    fn redundant_equality_rows_are_handled() {
        // The second equality is the first one doubled; the LP is still solvable and
        // strong duality must hold with the redundant row's dual set to zero.
        let mut lp = LinearProgram::new(Sense::Minimize);
        let x = lp.add_var("x", 1.0);
        let y = lp.add_var("y", 1.0);
        lp.add_constraint(&[(x, 1.0), (y, 1.0)], Cmp::Eq, 2.0);
        lp.add_constraint(&[(x, 2.0), (y, 2.0)], Cmp::Eq, 4.0);
        let sol = lp.solve().unwrap();
        assert_close(sol.objective, 2.0);
        assert_close(sol.dual_objective(&[2.0, 4.0]), 2.0);
    }

    #[test]
    fn infeasible_detected() {
        let mut lp = LinearProgram::new(Sense::Minimize);
        let x = lp.add_var("x", 1.0);
        lp.add_constraint(&[(x, 1.0)], Cmp::Le, 1.0);
        lp.add_constraint(&[(x, 1.0)], Cmp::Ge, 2.0);
        assert_eq!(lp.solve().unwrap_err(), LpError::Infeasible);
    }

    #[test]
    fn unbounded_detected() {
        let mut lp = LinearProgram::new(Sense::Maximize);
        let x = lp.add_var("x", 1.0);
        lp.add_constraint(&[(x, 1.0)], Cmp::Ge, 1.0);
        assert_eq!(lp.solve().unwrap_err(), LpError::Unbounded);
    }

    #[test]
    fn free_variable_can_go_negative() {
        // min x  s.t.  x >= -5 with x free -> optimum -5.
        let mut lp = LinearProgram::new(Sense::Minimize);
        let x = lp.add_free_var("x", 1.0);
        lp.add_constraint(&[(x, 1.0)], Cmp::Ge, -5.0);
        let sol = lp.solve().unwrap();
        assert_close(sol.objective, -5.0);
        assert_close(sol.primal[x], -5.0);
    }

    #[test]
    fn negative_rhs_row_is_flipped() {
        // min x + y  s.t. -x - y <= -3  (i.e. x + y >= 3).
        let mut lp = LinearProgram::new(Sense::Minimize);
        let x = lp.add_var("x", 1.0);
        let y = lp.add_var("y", 1.0);
        lp.add_constraint(&[(x, -1.0), (y, -1.0)], Cmp::Le, -3.0);
        let sol = lp.solve().unwrap();
        assert_close(sol.objective, 3.0);
        assert_close(sol.dual_objective(&[-3.0]), 3.0);
    }

    #[test]
    fn degenerate_problem_terminates() {
        // A classically degenerate LP (multiple constraints active at the optimum);
        // Bland's rule must terminate.
        let mut lp = LinearProgram::new(Sense::Maximize);
        let x = lp.add_var("x", 0.75);
        let y = lp.add_var("y", -150.0);
        let z = lp.add_var("z", 0.02);
        let w = lp.add_var("w", -6.0);
        lp.add_constraint(&[(x, 0.25), (y, -60.0), (z, -0.04), (w, 9.0)], Cmp::Le, 0.0);
        lp.add_constraint(&[(x, 0.5), (y, -90.0), (z, -0.02), (w, 3.0)], Cmp::Le, 0.0);
        lp.add_constraint(&[(z, 1.0)], Cmp::Le, 1.0);
        let sol = lp.solve().unwrap();
        assert_close(sol.objective, 0.05);
    }

    #[test]
    fn triangle_agm_lp_fractional_vertex() {
        // The paper's LP (5) with |R| = |S| = |T| = N: the optimum is the fractional
        // vertex (1/2, 1/2, 1/2) whenever the product of any two sizes exceeds the
        // third, giving bound N^{3/2}.
        let log_n = 10.0; // N = 1024
        let mut lp = LinearProgram::new(Sense::Minimize);
        let a = lp.add_var("alpha", log_n);
        let b = lp.add_var("beta", log_n);
        let c = lp.add_var("gamma", log_n);
        lp.add_constraint(&[(a, 1.0), (b, 1.0)], Cmp::Ge, 1.0);
        lp.add_constraint(&[(a, 1.0), (c, 1.0)], Cmp::Ge, 1.0);
        lp.add_constraint(&[(b, 1.0), (c, 1.0)], Cmp::Ge, 1.0);
        let sol = lp.solve().unwrap();
        assert_close(sol.objective, 1.5 * log_n);
        assert_close(sol.primal[a], 0.5);
        assert_close(sol.primal[b], 0.5);
        assert_close(sol.primal[c], 0.5);
    }

    #[test]
    fn triangle_agm_lp_integral_vertex_when_one_relation_tiny() {
        // If |T| is huge, cover A and C through R and S instead: optimum (1,1,0)-like.
        // log sizes: |R| = 2^2, |S| = 2^2, |T| = 2^10.
        let mut lp = LinearProgram::new(Sense::Minimize);
        let a = lp.add_var("alpha", 2.0);
        let b = lp.add_var("beta", 2.0);
        let c = lp.add_var("gamma", 10.0);
        lp.add_constraint(&[(a, 1.0), (b, 1.0)], Cmp::Ge, 1.0); // vertex B: in R, S
        lp.add_constraint(&[(a, 1.0), (c, 1.0)], Cmp::Ge, 1.0); // vertex A: in R, T
        lp.add_constraint(&[(b, 1.0), (c, 1.0)], Cmp::Ge, 1.0); // vertex C: in S, T
        let sol = lp.solve().unwrap();
        assert_close(sol.objective, 4.0); // alpha = beta = 1, gamma = 0
        assert_close(sol.primal[c], 0.0);
    }

    #[test]
    fn duals_certify_covering_bound() {
        // For the modular LP (54) of the paper (a maximization), the duals are the
        // exponents of the generalized AGM bound (57). Sanity-check sign conventions
        // on a small instance: max v1 + v2 s.t. v1 <= 3, v2 <= 4 -> duals (1, 1).
        let mut lp = LinearProgram::new(Sense::Maximize);
        let v1 = lp.add_var("v1", 1.0);
        let v2 = lp.add_var("v2", 1.0);
        lp.add_constraint(&[(v1, 1.0)], Cmp::Le, 3.0);
        lp.add_constraint(&[(v2, 1.0)], Cmp::Le, 4.0);
        let sol = lp.solve().unwrap();
        assert_close(sol.objective, 7.0);
        assert_close(sol.dual[0], 1.0);
        assert_close(sol.dual[1], 1.0);
    }

    #[test]
    fn many_random_lps_satisfy_strong_duality() {
        // Deterministic pseudo-random covering LPs: primal objective must equal the
        // dual objective and all primal constraints must be satisfied.
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _case in 0..30 {
            let nvars = 2 + (next() % 4) as usize;
            let nrows = 1 + (next() % 5) as usize;
            let mut lp = LinearProgram::new(Sense::Minimize);
            let vars: Vec<_> = (0..nvars)
                .map(|j| lp.add_var(format!("x{j}"), 1.0 + (next() % 9) as f64))
                .collect();
            let mut rhs = Vec::new();
            let mut rows = Vec::new();
            for _ in 0..nrows {
                let mut terms = Vec::new();
                for &v in &vars {
                    if next() % 2 == 0 {
                        terms.push((v, 1.0 + (next() % 3) as f64));
                    }
                }
                if terms.is_empty() {
                    terms.push((vars[0], 1.0));
                }
                let b = 1.0 + (next() % 10) as f64;
                lp.add_constraint(&terms, Cmp::Ge, b);
                rhs.push(b);
                rows.push(terms);
            }
            let sol = lp.solve().unwrap();
            // primal feasibility
            for (terms, &b) in rows.iter().zip(&rhs) {
                let lhs: f64 = terms.iter().map(|&(v, c)| c * sol.primal[v]).sum();
                assert!(lhs >= b - 1e-7, "constraint violated: {lhs} < {b}");
            }
            // strong duality
            assert!(
                (sol.objective - sol.dual_objective(&rhs)).abs() < 1e-6,
                "duality gap: {} vs {}",
                sol.objective,
                sol.dual_objective(&rhs)
            );
            // dual sign convention: minimization with >= rows has non-negative duals
            for &y in &sol.dual {
                assert!(y >= -1e-9);
            }
        }
    }
}
