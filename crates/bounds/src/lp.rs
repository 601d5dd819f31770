//! The one LP solver: one phase of primal simplex from the feasible origin, on
//! one flat tableau.
//!
//! ```text
//! maximize   c·x
//! subject to A x ≤ b
//!            x ≥ 0
//! ```
//!
//! With `b ≥ 0` the origin is feasible, so the slack variables are a feasible
//! basis to start from and one phase of primal simplex reaches the optimum: no
//! artificial variables, no feasibility phase. Every LP this crate solves has
//! that form:
//!
//! * the packing LP (54), whose rows are 0/1 ([`solve_packing_lp`]): the
//!   modular bound, and under cardinality constraints the dual of the AGM cover
//!   LP (5) — the AGM bound, the planner's prefix bounds and `ρ*`;
//! * the polymatroid LP (68): each elemental Shannon inequality is a row
//!   `−(…) ≤ 0` and each degree constraint a row `h(Y) − h(X) ≤ log2 N_{Y|X}`,
//!   at least 0 once an empty guard has short-circuited ([`crate::polymatroid`]);
//! * the Shannon-flow test of Proposition 5.4, normalized by `h([n]) ≤ 1`
//!   ([`crate::flow`]).
//!
//! The dual `min b·y  s.t.  Aᵀy ≥ c, y ≥ 0` is read off the objective row: the
//! reduced cost of row `i`'s slack column is `y_i` (complementary slackness).
//! Those prices are the certificates the paper reads: the cover `δ` of (5) and
//! (57), the `δ_{Y|X}` of (73). An unbounded LP returns a ray instead, read off
//! the column that failed the ratio test.
//!
//! The LPs of join queries have 0/±1 rows and `log`-of-cardinality right-hand
//! sides, so a dense `f64` tableau with a modest tolerance ([`EPS`]) is exact
//! enough: vertex solutions such as the triangle's (½, ½, ½) come back to ~1e-9.
//! The tableau is one `Vec<f64>` of `(rows + 1) × (vars + rows + 1)` entries:
//! the constraint rows, then the objective row; in each, the variables'
//! columns, the slacks' columns, then the right-hand side.
//!
//! # Example
//!
//! The triangle query with |R| = |S| = |T| = 2, as the packing LP (54): one row
//! per atom, its log size over its variables.
//!
//! ```
//! use wcoj_bounds::lp::solve_packing_lp;
//!
//! // variables A = 0, B = 1, C = 2; atoms R(A, B), S(B, C), T(A, C)
//! let atoms: [(f64, &[usize]); 3] = [(1.0, &[0, 1]), (1.0, &[1, 2]), (1.0, &[0, 2])];
//! let rows = atoms.iter().map(|&(log_size, vars)| (log_size, vars.iter().copied()));
//! let packing = solve_packing_lp(3, rows).unwrap();
//! assert!((packing.objective - 1.5).abs() < 1e-9); // rho* = 3/2
//! assert!((packing.primal[0] - 0.5).abs() < 1e-9); // v_A
//! assert!((packing.dual[0] - 0.5).abs() < 1e-9);   // the cover's delta_R
//! ```

use std::fmt;

/// Numerical tolerance of the solver's pricing and ratio tests.
pub const EPS: f64 = 1e-9;

/// Why an LP has no optimum to return.
#[derive(Debug, Clone, PartialEq)]
pub enum LpError {
    /// The objective is unbounded over the feasible region.
    Unbounded {
        /// A direction `d ≥ 0` with `A d ≤ 0` and `c·d > 0`, one entry per
        /// variable: the feasible region holds `x + θ d` for every `θ ≥ 0`.
        ray: Vec<f64>,
    },
    /// The pivot limit was exceeded (should not happen with Bland's rule;
    /// indicates severe numerical trouble).
    IterationLimit(usize),
    /// A row names a variable `≥` the number of variables.
    UnknownVariable(usize),
    /// A row's bound is not a finite number `≥ 0`, so the origin is no feasible
    /// start (the row's index).
    InvalidBound(usize),
}

impl fmt::Display for LpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LpError::Unbounded { .. } => write!(f, "linear program is unbounded"),
            LpError::IterationLimit(n) => {
                write!(f, "simplex exceeded the iteration limit of {n}")
            }
            LpError::UnknownVariable(v) => {
                write!(f, "constraint references unknown variable id {v}")
            }
            LpError::InvalidBound(row) => {
                write!(f, "row {row} has a bound that is not finite and >= 0")
            }
        }
    }
}

impl std::error::Error for LpError {}

/// The optimum of an LP with the dual prices that certify it.
#[derive(Debug, Clone, PartialEq)]
pub struct Optimum {
    /// The optimal value `c·x`.
    pub objective: f64,
    /// An optimal `x`, one value per variable.
    pub primal: Vec<f64>,
    /// An optimal dual `y ≥ 0`, one price per row, with `Aᵀy ≥ c`: `b·y`
    /// equals [`Optimum::objective`].
    pub dual: Vec<f64>,
}

/// Maximize `c·x` subject to `A x ≤ b`, `x ≥ 0`, from the origin. `objective`
/// is `c`, one coefficient per variable; each row is its bound `b_i` and its
/// entries `(j, A_ij)`. An entry sets its coefficient, so a variable listed
/// twice in a row keeps the last one.
///
/// Every `b_i` must be finite and `≥ 0` ([`LpError::InvalidBound`]) and every
/// `j` less than the number of variables ([`LpError::UnknownVariable`]). Pivots
/// follow Bland's rule (least entering column, ratio ties to the least basic
/// column), so a degenerate program — zero bounds, empty or repeated rows —
/// terminates.
pub fn maximize<C, R, I>(objective: C, rows: R) -> Result<Optimum, LpError>
where
    C: IntoIterator<Item = f64>,
    C::IntoIter: ExactSizeIterator,
    R: IntoIterator<Item = (f64, I)>,
    R::IntoIter: ExactSizeIterator,
    I: IntoIterator<Item = (usize, f64)>,
{
    let (objective, rows) = (objective.into_iter(), rows.into_iter());
    let (n, m) = (objective.len(), rows.len());
    let width = n + m + 1;
    let rhs = width - 1;
    let mut t = vec![0.0; (m + 1) * width];
    let constraint_rows = t[..m * width].chunks_exact_mut(width);
    for (i, ((bound, entries), row)) in rows.zip(constraint_rows).enumerate() {
        if !(bound.is_finite() && bound >= 0.0) {
            return Err(LpError::InvalidBound(i));
        }
        for (j, a) in entries {
            if j >= n {
                return Err(LpError::UnknownVariable(j));
            }
            row[j] = a;
        }
        row[n + i] = 1.0;
        row[rhs] = bound;
    }
    // the objective row holds the reduced costs, `−c` at the origin
    let objective_row = m * width;
    for (cost, c) in t[objective_row..objective_row + n]
        .iter_mut()
        .zip(objective)
    {
        *cost = -c;
    }
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
            return Ok(Optimum {
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
        // no row limits `col`: raising it moves every basic variable by
        // `−t[i][col] ≥ 0` and every row's slack with it
        let Some((row, _)) = leave else {
            let mut ray = vec![0.0; n];
            if col < n {
                ray[col] = 1.0;
            }
            for (i, &b) in basis.iter().enumerate() {
                if b < n {
                    ray[b] = (-t[i * width + col]).max(0.0);
                }
            }
            return Err(LpError::Unbounded { ray });
        };
        pivot(&mut t, width, row, col);
        basis[row] = col;
    }
    Err(LpError::IterationLimit(max_pivots))
}

/// Solve the packing LP `max Σ_j v_j  s.t.  Σ_{j ∈ row_i} v_j ≤ b_i, v ≥ 0`
/// over `num_vars` variables: [`maximize`] with unit costs and 0/1 rows. Each
/// row is its bound `b_i` and the variables it holds (a repeated variable
/// counts once), so a caller passes an atom's variables or a constraint's
/// `Y − X` as they are. Its dual is the covering LP
/// `min Σ_i b_i δ_i  s.t.  Σ_{i ∋ j} δ_i ≥ 1, δ ≥ 0`, whose optimal `δ` is
/// [`Optimum::dual`]; a variable in no row is [`LpError::Unbounded`].
pub fn solve_packing_lp<R, I>(num_vars: usize, rows: R) -> Result<Optimum, LpError>
where
    R: IntoIterator<Item = (f64, I)>,
    R::IntoIter: ExactSizeIterator,
    I: IntoIterator<Item = usize>,
{
    let rows = (rows.into_iter()).map(|(bound, vars)| (bound, vars.into_iter().map(|j| (j, 1.0))));
    maximize((0..num_vars).map(|_| 1.0), rows)
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

    type Entries<'a> = &'a [(usize, f64)];

    fn solve(num_vars: usize, rows: &[(f64, &[usize])]) -> Result<Optimum, LpError> {
        solve_packing_lp(
            num_vars,
            rows.iter().map(|&(b, vars)| (b, vars.iter().copied())),
        )
    }

    fn solve_general(objective: &[f64], rows: &[(f64, Entries)]) -> Result<Optimum, LpError> {
        let rows = rows
            .iter()
            .map(|&(b, entries)| (b, entries.iter().copied()));
        maximize(objective.iter().copied(), rows)
    }

    /// The cover LP `min Σ w_j x_j  s.t.  Σ_{j ∈ cover[i]} x_j ≥ 1, x ≥ 0`,
    /// solved as its packing dual: `(objective, x)`.
    fn solve_covering_lp(weights: &[f64], cover: &[&[usize]]) -> (f64, Vec<f64>) {
        let elements_of = |j: usize| (0..cover.len()).filter(move |&i| cover[i].contains(&j));
        let rows = weights
            .iter()
            .enumerate()
            .map(|(j, &w)| (w, elements_of(j)));
        let packing = solve_packing_lp(cover.len(), rows).unwrap();
        (packing.objective, packing.dual)
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
    fn covering_lp_triangle() {
        // unit weights: the fractional edge cover number of the triangle is 3/2
        let (obj, x) = solve_covering_lp(&[1.0, 1.0, 1.0], &[&[0, 2], &[0, 1], &[1, 2]]);
        assert_close(obj, 1.5);
        for v in x {
            assert_close(v, 0.5);
        }
    }

    #[test]
    fn covering_lp_single_edge() {
        // one edge of weight 7 holds both vertices
        let (obj, x) = solve_covering_lp(&[7.0], &[&[0], &[0]]);
        assert_close(obj, 7.0);
        assert_close(x[0], 1.0);
    }

    #[test]
    fn covering_lp_star_query() {
        // R1(A, B1), R2(A, B2), R3(A, B3): ρ* = 3, every edge needed
        let cover: &[&[usize]] = &[&[0, 1, 2], &[0], &[1], &[2]];
        let (obj, x) = solve_covering_lp(&[1.0, 1.0, 1.0], cover);
        assert_close(obj, 3.0);
        for v in x {
            assert_close(v, 1.0);
        }
    }

    #[test]
    fn triangle_agm_lp_fractional_vertex() {
        // the cover LP (5) with |R| = |S| = |T| = N = 2^10: the optimum is the
        // fractional vertex (1/2, 1/2, 1/2), the bound N^{3/2}
        let log_n = 10.0;
        let (obj, x) = solve_covering_lp(&[log_n; 3], &[&[0, 1], &[0, 2], &[1, 2]]);
        assert_close(obj, 1.5 * log_n);
        for v in x {
            assert_close(v, 0.5);
        }
    }

    #[test]
    fn triangle_agm_lp_integral_vertex_when_one_relation_tiny() {
        // log sizes |R| = 2, |S| = 2, |T| = 10: cover A and C through R and S,
        // the integral vertex (1, 1, 0)
        let (obj, x) = solve_covering_lp(&[2.0, 2.0, 10.0], &[&[0, 1], &[0, 2], &[1, 2]]);
        assert_close(obj, 4.0);
        for (v, expected) in x.into_iter().zip([1.0, 1.0, 0.0]) {
            assert_close(v, expected);
        }
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
        let unbounded = |ray: &[f64]| Err(LpError::Unbounded { ray: ray.to_vec() });
        assert_eq!(solve(2, &[(1.0, &[0])]), unbounded(&[0.0, 1.0]));
        assert_eq!(solve(1, &[]), unbounded(&[1.0]));
        assert_eq!(solve(1, &[(1.0, &[1])]), Err(LpError::UnknownVariable(1)));
        for bad in [-1.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let rows: &[(f64, &[usize])] = &[(1.0, &[0]), (bad, &[0])];
            assert_eq!(solve(1, rows), Err(LpError::InvalidBound(1)), "{bad}");
        }
        // no variables: the empty packing, priced at zero
        let p = solve(0, &[(4.0, &[])]).unwrap();
        assert_eq!((p.objective, p.dual), (0.0, vec![0.0]));
    }

    #[test]
    fn unknown_variable_rejected() {
        // a general row naming variable 7 of a one-variable LP
        let rows: &[(f64, Entries)] = &[(1.0, &[(0, 1.0)]), (1.0, &[(7, 1.0)])];
        assert_eq!(
            solve_general(&[1.0], rows),
            Err(LpError::UnknownVariable(7))
        );
    }

    #[test]
    fn textbook_maximization() {
        // max 3x + 5y  s.t.  x ≤ 4, 2y ≤ 12, 3x + 2y ≤ 18: optimum 36 at (2, 6)
        let rows: &[(f64, Entries)] = &[
            (4.0, &[(0, 1.0)]),
            (12.0, &[(1, 2.0)]),
            (18.0, &[(0, 3.0), (1, 2.0)]),
        ];
        let p = solve_general(&[3.0, 5.0], rows).unwrap();
        assert_close(p.objective, 36.0);
        assert_close(p.primal[0], 2.0);
        assert_close(p.primal[1], 6.0);
        // the classic's duals (0, 3/2, 1), which price the bounds to the optimum
        for (d, expected) in p.dual.iter().zip([0.0, 1.5, 1.0]) {
            assert_close(*d, expected);
        }
        let priced: f64 = rows.iter().zip(&p.dual).map(|((b, _), y)| b * y).sum();
        assert_close(priced, 36.0);
    }

    #[test]
    fn degenerate_problem_terminates() {
        // a classically cycling LP under the largest-coefficient rule: several
        // rows are tight at the origin, and Bland's rule must terminate
        let rows: &[(f64, Entries)] = &[
            (0.0, &[(0, 0.25), (1, -60.0), (2, -0.04), (3, 9.0)]),
            (0.0, &[(0, 0.5), (1, -90.0), (2, -0.02), (3, 3.0)]),
            (1.0, &[(2, 1.0)]),
        ];
        let p = solve_general(&[0.75, -150.0, 0.02, -6.0], rows).unwrap();
        assert_close(p.objective, 0.05);
    }

    #[test]
    fn duals_certify_covering_bound() {
        // the modular LP (54) max v1 + v2  s.t.  v1 ≤ 3, v2 ≤ 4: its duals (1, 1)
        // are the exponents of the generalized AGM bound (57)
        let p = solve_general(&[1.0, 1.0], &[(3.0, &[(0, 1.0)]), (4.0, &[(1, 1.0)])]).unwrap();
        assert_close(p.objective, 7.0);
        assert_close(p.dual[0], 1.0);
        assert_close(p.dual[1], 1.0);
    }

    #[test]
    fn an_unbounded_lp_returns_a_checked_ray() {
        // max x + 2y  s.t.  x − y ≤ 1, −x + y ≤ 2: the diagonal x = y is free
        let rows: &[(f64, Entries)] =
            &[(1.0, &[(0, 1.0), (1, -1.0)]), (2.0, &[(0, -1.0), (1, 1.0)])];
        let c = [1.0, 2.0];
        let Err(LpError::Unbounded { ray }) = solve_general(&c, rows) else {
            panic!("the LP is unbounded");
        };
        assert!(ray.iter().all(|&d| d >= 0.0), "{ray:?}");
        for (_, entries) in rows {
            let load: f64 = entries.iter().map(|&(j, a)| a * ray[j]).sum();
            assert!(load <= 1e-9, "{ray:?}");
        }
        assert!(c[0] * ray[0] + c[1] * ray[1] > 1e-9, "{ray:?}");
    }

    #[test]
    fn error_messages_name_their_cause() {
        let unbounded = LpError::Unbounded { ray: vec![1.0] };
        assert_eq!(unbounded.to_string(), "linear program is unbounded");
        assert!(LpError::IterationLimit(10).to_string().contains("10"));
        assert!(LpError::UnknownVariable(3).to_string().contains('3'));
        assert!(LpError::InvalidBound(4).to_string().contains('4'));
    }

    #[test]
    fn error_is_std_error() {
        fn takes_err<E: std::error::Error>(_e: E) {}
        takes_err(LpError::IterationLimit(1));
    }
}
