//! The packing LP, solved from its feasible origin on one flat tableau.
//!
//! ```text
//! maximize   Σ_j v_j
//! subject to Σ_{j ∈ row_i} v_j ≤ b_i   for every row i
//!            v ≥ 0
//! ```
//!
//! With `b ≥ 0` the origin is feasible, so the slack variables are a feasible
//! basis to start from and one phase of primal simplex reaches the optimum: no
//! artificial variables, no phase 1. Its dual is the covering LP
//!
//! ```text
//! minimize   Σ_i b_i δ_i
//! subject to Σ_{i ∋ j} δ_i ≥ 1   for every variable j
//!            δ ≥ 0
//! ```
//!
//! and its optimal `δ` is read off the objective row: the reduced cost of row
//! `i`'s slack column is `δ_i` (complementary slackness). The LP is unbounded
//! exactly when some variable lies in no row, which is checked before the first
//! pivot.
//!
//! The tableau is one `Vec<f64>` of `(rows + 1) × (vars + rows + 1)` entries:
//! the constraint rows, then the objective row; in each, the variables' columns,
//! the slacks' columns, then the right-hand side.

use crate::error::LpError;
use crate::EPS;

/// The optimum of a packing LP with the dual prices that certify it.
#[derive(Debug, Clone, PartialEq)]
pub struct Packing {
    /// The optimal value `Σ_j v_j`.
    pub objective: f64,
    /// An optimal packing `v`, one value per variable.
    pub primal: Vec<f64>,
    /// An optimal cover `δ`, one price per row: `Σ_i b_i δ_i` equals
    /// [`Packing::objective`].
    pub dual: Vec<f64>,
}

/// Solve the packing LP over `num_vars` variables. Each row is its bound `b_i`
/// and the variables it holds (a repeated variable counts once), so a caller
/// passes an atom's variables or a constraint's `Y − X` as they are.
///
/// Every `b_i` must be finite and `≥ 0` ([`LpError::InvalidBound`]) and every
/// variable `< num_vars` ([`LpError::UnknownVariable`]); a variable in no row is
/// [`LpError::Unbounded`]. Pivots follow Bland's rule (least entering column,
/// ratio ties to the least basic column), so a degenerate program — zero
/// bounds, empty or repeated rows — terminates.
pub fn solve_packing_lp<R, I>(num_vars: usize, rows: R) -> Result<Packing, LpError>
where
    R: IntoIterator<Item = (f64, I)>,
    R::IntoIter: ExactSizeIterator,
    I: IntoIterator<Item = usize>,
{
    let rows = rows.into_iter();
    let (n, m) = (num_vars, rows.len());
    let width = n + m + 1;
    let rhs = width - 1;
    let mut t = vec![0.0; (m + 1) * width];
    let constraint_rows = t[..m * width].chunks_exact_mut(width);
    for (i, ((bound, vars), row)) in rows.zip(constraint_rows).enumerate() {
        if !(bound.is_finite() && bound >= 0.0) {
            return Err(LpError::InvalidBound(i));
        }
        for j in vars {
            if j >= n {
                return Err(LpError::UnknownVariable(j));
            }
            row[j] = 1.0;
        }
        row[n + i] = 1.0;
        row[rhs] = bound;
    }
    if (0..n).any(|j| (0..m).all(|i| t[i * width + j] == 0.0)) {
        return Err(LpError::Unbounded);
    }
    // the objective row holds the reduced costs, `−1` per variable at the origin
    let objective_row = m * width;
    t[objective_row..objective_row + n].fill(-1.0);
    let mut basis: Vec<usize> = (n..n + m).collect();

    let max_pivots = 500 * (width + m + 10);
    for _ in 0..max_pivots {
        let costs = &t[objective_row..objective_row + n + m];
        let Some(col) = costs.iter().position(|&r| r < -EPS) else {
            let mut primal = vec![0.0; n];
            for (i, &b) in basis.iter().enumerate() {
                if b < n {
                    primal[b] = t[i * width + rhs];
                }
            }
            return Ok(Packing {
                objective: t[objective_row + rhs],
                primal,
                dual: costs[n..].to_vec(),
            });
        };
        // ratio test; ties go to the row whose basic column is least
        let mut leave: Option<(usize, f64)> = None;
        for (i, row) in t.chunks_exact(width).take(m).enumerate() {
            if row[col] > EPS {
                let ratio = row[rhs] / row[col];
                let better = match leave {
                    None => true,
                    Some((l, least)) => {
                        ratio < least - EPS || (ratio < least + EPS && basis[i] < basis[l])
                    }
                };
                if better {
                    leave = Some((i, ratio));
                }
            }
        }
        // bounded once every variable is in a row; reached only by rounding
        let Some((row, _)) = leave else {
            return Err(LpError::Unbounded);
        };
        pivot(&mut t, width, row, col);
        basis[row] = col;
    }
    Err(LpError::IterationLimit(max_pivots))
}

/// Make `col` basic in `row`: scale the row to a unit pivot and eliminate `col`
/// from every other row, the objective row included.
fn pivot(t: &mut [f64], width: usize, row: usize, col: usize) {
    let (above, rest) = t.split_at_mut(row * width);
    let (pivot_row, below) = rest.split_at_mut(width);
    let p = pivot_row[col];
    pivot_row.iter_mut().for_each(|e| *e /= p);
    for other in above
        .chunks_exact_mut(width)
        .chain(below.chunks_exact_mut(width))
    {
        let factor = other[col];
        if factor != 0.0 {
            for (e, &q) in other.iter_mut().zip(pivot_row.iter()) {
                *e -= factor * q;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn solve(num_vars: usize, rows: &[(f64, &[usize])]) -> Result<Packing, LpError> {
        solve_packing_lp(
            num_vars,
            rows.iter().map(|&(b, vars)| (b, vars.iter().copied())),
        )
    }

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-9, "expected {b}, got {a}");
    }

    #[test]
    fn the_triangle_packs_half_of_each_edge() {
        // rows are the triangle's edges at weight 1: ρ* = 3/2, δ = (1/2, 1/2, 1/2)
        let p = solve(3, &[(1.0, &[0, 1]), (1.0, &[1, 2]), (1.0, &[0, 2])]).unwrap();
        assert_close(p.objective, 1.5);
        for (v, d) in p.primal.iter().zip(&p.dual) {
            assert_close(*v, 0.5);
            assert_close(*d, 0.5);
        }
    }

    #[test]
    fn a_cheap_pair_of_edges_covers_the_triangle() {
        // log sizes 2, 2, 10: cover through R and S, δ_T = 0
        let p = solve(3, &[(2.0, &[0, 1]), (2.0, &[1, 2]), (10.0, &[0, 2])]).unwrap();
        assert_close(p.objective, 4.0);
        assert_close(p.dual[2], 0.0);
        let dual_objective = 2.0 * p.dual[0] + 2.0 * p.dual[1] + 10.0 * p.dual[2];
        assert_close(dual_objective, 4.0);
    }

    #[test]
    fn a_star_needs_every_edge() {
        let p = solve(4, &[(1.0, &[0, 1]), (1.0, &[0, 2]), (1.0, &[0, 3])]).unwrap();
        assert_close(p.objective, 3.0);
        assert!(p.dual.iter().all(|&d| (d - 1.0).abs() < 1e-9));
    }

    #[test]
    fn degenerate_rows_terminate() {
        // zero bounds (one-row relations), an empty row and a repeated row
        let rows: &[(f64, &[usize])] = &[
            (0.0, &[0, 1]),
            (0.0, &[0, 1]),
            (3.0, &[]),
            (5.0, &[1, 2, 2]),
            (0.0, &[2]),
        ];
        let p = solve(3, rows).unwrap();
        assert_close(p.objective, 0.0);
        assert_close(p.dual[2], 0.0);
        let covered = |j: usize| -> f64 {
            rows.iter()
                .zip(&p.dual)
                .filter(|((_, vars), _)| vars.contains(&j))
                .map(|(_, d)| d)
                .sum()
        };
        for j in 0..3 {
            assert!(covered(j) >= 1.0 - 1e-9, "variable {j} is not covered");
        }
        // a variable repeated within a row is held once: v_0 ≤ 4, not 2 v_0 ≤ 4
        assert_close(solve(1, &[(4.0, &[0, 0])]).unwrap().objective, 4.0);
    }

    #[test]
    fn bad_input_is_a_typed_error() {
        assert_eq!(solve(2, &[(1.0, &[0])]), Err(LpError::Unbounded));
        assert_eq!(solve(1, &[]), Err(LpError::Unbounded));
        assert_eq!(solve(1, &[(1.0, &[1])]), Err(LpError::UnknownVariable(1)));
        for bad in [-1.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let rows: &[(f64, &[usize])] = &[(1.0, &[0]), (bad, &[0])];
            assert_eq!(solve(1, rows), Err(LpError::InvalidBound(1)), "{bad}");
        }
        // no variables: the empty packing, priced at zero
        let p = solve(0, &[(4.0, &[])]).unwrap();
        assert_eq!((p.objective, p.dual), (0.0, vec![0.0]));
    }
}
