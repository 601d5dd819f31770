//! `wcoj-lp` — a small, dependency-free linear-programming solver.
//!
//! Every output-size bound in *Worst-Case Optimal Join Algorithms* (Ngo, PODS 2018)
//! is the optimal value of a linear program:
//!
//! * the AGM bound / fractional edge cover number is the LP (5)/(42) of the paper,
//! * the generalized bound for acyclic degree constraints is the modular LP (54)
//!   and its dual (57),
//! * the polymatroid bound is the exponential-size LP (68),
//! * Shannon-flow inequalities are characterized by feasibility of the dual LP (72).
//!
//! This crate has two solvers:
//!
//! * [`solve_packing_lp`] for the packing LP `max Σ v  s.t.  Σ_{j ∈ row} v_j ≤ b,
//!   v ≥ 0` with `b ≥ 0` — the modular LP (54), and under cardinality
//!   constraints the dual of the AGM cover LP (5). Its origin is feasible, so it
//!   runs one phase of primal simplex from the slack basis on one flat tableau,
//!   and returns the optimal cover `δ` as the dual prices. `wcoj-bounds` solves
//!   the AGM bound, the planner's prefix bounds, `ρ*` and the modular bound with
//!   it: every plan's LP;
//! * [`LinearProgram`], a dense two-phase primal simplex over general rows, for
//!   the LPs without that shape: the polymatroid LP (68) and the Shannon-flow
//!   LP (72). It returns both the primal optimum and the dual solution (needed
//!   to translate bound proofs into algorithms, Section 5 of the paper).
//!
//! Both pivot by Bland's anti-cycling rule and are intentionally simple: the LPs
//! arising from join queries have 0/±1 constraint matrices and
//! `log`-of-cardinality coefficients, so a dense tableau with `f64` arithmetic
//! and a modest tolerance is exact enough (vertex solutions such as the
//! triangle's (½, ½, ½) are recovered to ~1e-9).
//!
//! # Example
//!
//! The triangle query with |R| = |S| = |T| = 2, as the cover LP (5) through the
//! general solver and as its dual packing LP:
//!
//! ```
//! use wcoj_lp::{solve_packing_lp, LinearProgram, Sense, Cmp};
//!
//! let mut lp = LinearProgram::new(Sense::Minimize);
//! let r = lp.add_var("delta_R", 1.0); // objective coefficient log2 |R| = 1
//! let s = lp.add_var("delta_S", 1.0);
//! let t = lp.add_var("delta_T", 1.0);
//! // every vertex of the triangle hypergraph must be fractionally covered
//! lp.add_constraint(&[(r, 1.0), (t, 1.0)], Cmp::Ge, 1.0); // vertex A in edges R, T
//! lp.add_constraint(&[(r, 1.0), (s, 1.0)], Cmp::Ge, 1.0); // vertex B in edges R, S
//! lp.add_constraint(&[(s, 1.0), (t, 1.0)], Cmp::Ge, 1.0); // vertex C in edges S, T
//! let sol = lp.solve().unwrap();
//! assert!((sol.objective - 1.5).abs() < 1e-9);            // rho* = 3/2
//! assert!((sol.primal[r] - 0.5).abs() < 1e-9);
//!
//! // one row per edge: its log size and its variables A = 0, B = 1, C = 2
//! let edges: [(f64, &[usize]); 3] = [(1.0, &[0, 1]), (1.0, &[1, 2]), (1.0, &[0, 2])];
//! let packing = solve_packing_lp(3, edges.iter().map(|&(b, vars)| (b, vars.iter().copied())))
//!     .unwrap();
//! assert!((packing.objective - 1.5).abs() < 1e-9);
//! assert!((packing.dual[0] - 0.5).abs() < 1e-9);          // delta_R, as above
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod packing;
pub mod problem;
pub mod simplex;
pub mod solution;

pub use error::LpError;
pub use packing::{solve_packing_lp, Packing};
pub use problem::{Cmp, LinearProgram, Sense, VarId};
pub use simplex::SimplexOptions;
pub use solution::{Solution, Status};

/// Numerical tolerance used throughout the solver.
pub const EPS: f64 = 1e-9;

#[cfg(test)]
mod lib_tests {
    use super::*;

    /// The covering LP `min Σ w_j x_j  s.t.  Σ_{j ∈ cover[i]} x_j ≥ 1, x ≥ 0`
    /// solved as its dual packing LP: `(objective, x)`.
    fn solve_covering_lp(weights: &[f64], cover: &[Vec<usize>]) -> (f64, Vec<f64>) {
        let elements_of = |j: usize| (0..cover.len()).filter(move |&i| cover[i].contains(&j));
        let rows = weights
            .iter()
            .enumerate()
            .map(|(j, &w)| (w, elements_of(j)));
        let packing = solve_packing_lp(cover.len(), rows).unwrap();
        (packing.objective, packing.dual)
    }

    #[test]
    fn covering_lp_triangle() {
        // unit weights: fractional edge cover number of the triangle is 3/2
        let (obj, x) = solve_covering_lp(&[1.0, 1.0, 1.0], &[vec![0, 2], vec![0, 1], vec![1, 2]]);
        assert!((obj - 1.5).abs() < 1e-9);
        for v in x {
            assert!((v - 0.5).abs() < 1e-9);
        }
    }

    #[test]
    fn covering_lp_single_edge() {
        let (obj, x) = solve_covering_lp(&[7.0], &[vec![0], vec![0]]);
        assert!((obj - 7.0).abs() < 1e-9);
        assert!((x[0] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn covering_lp_star_query() {
        // star query R1(A,B1), R2(A,B2), R3(A,B3): rho* = 3 (every edge needed)
        let cover = [vec![0, 1, 2], vec![0], vec![1], vec![2]];
        let (obj, _) = solve_covering_lp(&[1.0, 1.0, 1.0], &cover);
        assert!((obj - 3.0).abs() < 1e-9);
    }
}
