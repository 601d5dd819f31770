//! Error type for the LP solver.

use std::fmt;

/// Errors returned by [`crate::LinearProgram::solve`] and
/// [`crate::solve_packing_lp`].
#[derive(Debug, Clone, PartialEq)]
pub enum LpError {
    /// The feasible region is empty.
    Infeasible,
    /// The objective is unbounded over the feasible region.
    Unbounded,
    /// The problem has no variables or no objective to optimize.
    EmptyProblem,
    /// The simplex iteration limit was exceeded (should not happen with Bland's rule
    /// on well-posed problems; indicates severe numerical trouble).
    IterationLimit(usize),
    /// A constraint referenced a variable id that was never added to the program.
    UnknownVariable(usize),
    /// A packing row's bound is not a finite number `≥ 0`, so the origin is no
    /// feasible start (the row's index).
    InvalidBound(usize),
}

impl fmt::Display for LpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LpError::Infeasible => write!(f, "linear program is infeasible"),
            LpError::Unbounded => write!(f, "linear program is unbounded"),
            LpError::EmptyProblem => write!(f, "linear program has no variables"),
            LpError::IterationLimit(n) => {
                write!(f, "simplex exceeded the iteration limit of {n}")
            }
            LpError::UnknownVariable(v) => {
                write!(f, "constraint references unknown variable id {v}")
            }
            LpError::InvalidBound(row) => {
                write!(
                    f,
                    "packing row {row} has a bound that is not finite and >= 0"
                )
            }
        }
    }
}

impl std::error::Error for LpError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert_eq!(
            LpError::Infeasible.to_string(),
            "linear program is infeasible"
        );
        assert_eq!(
            LpError::Unbounded.to_string(),
            "linear program is unbounded"
        );
        assert!(LpError::IterationLimit(10).to_string().contains("10"));
        assert!(LpError::UnknownVariable(3).to_string().contains('3'));
        assert!(LpError::InvalidBound(4).to_string().contains('4'));
    }

    #[test]
    fn error_is_std_error() {
        fn takes_err<E: std::error::Error>(_e: E) {}
        takes_err(LpError::EmptyProblem);
    }
}
