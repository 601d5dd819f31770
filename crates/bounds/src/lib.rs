//! `wcoj-bounds` — output-size bounds for conjunctive queries under degree
//! constraints.
//!
//! This crate implements Section 4 of *Worst-Case Optimal Join Algorithms* (Ngo,
//! PODS 2018) and the bound-related machinery of Section 5:
//!
//! * the **AGM bound** (Corollary 4.2): the fractional edge cover LP (5)/(42) with
//!   `log` cardinalities as weights, solved as its dual, the packing LP (54) under
//!   cardinality constraints, from that LP's feasible origin — [`agm`];
//! * **entropy set functions** of concrete query outputs (the entropy argument of
//!   Section 2 / 4.2), together with checks that they really are polymatroids —
//!   [`entropy`], [`setfn`];
//! * the **polymatroid bound** (44)/(68): an LP over all set functions on `2^[n]`
//!   satisfying the elemental Shannon inequalities plus the degree constraints —
//!   [`polymatroid`];
//! * the **modular LP** (54) and its dual (57) for *acyclic* degree constraints
//!   (Proposition 4.4), where the polymatroid bound is tight and poly-time
//!   computable, by the same packing solver — [`modular`];
//! * the **entropic bound** (43) in the regimes where it is computable, with the
//!   relationship between the bounds spelled out — [`entropic`];
//! * **Shannon-flow inequalities** (Definition 5) and **proof sequences**
//!   (Section 5.2.3), including a verifier, canonical sequences for the paper's
//!   examples, and a bounded search — [`flow`], [`proof`];
//! * numeric verification of **Friedgut's inequality** (Theorem 4.1) on concrete
//!   databases — [`friedgut`].
//!
//! # Example: the AGM bound of the triangle query
//!
//! ```
//! use wcoj_query::query::examples;
//! use wcoj_bounds::agm::{agm_bound_from_sizes, fractional_edge_cover_number};
//!
//! let q = examples::triangle();
//! // rho* of the triangle hypergraph is 3/2
//! let rho = fractional_edge_cover_number(&q.hypergraph());
//! assert!((rho - 1.5).abs() < 1e-9);
//! // with |R| = |S| = |T| = 1024 the AGM bound is 1024^{3/2} = 2^15
//! let b = agm_bound_from_sizes(&q, &[1024, 1024, 1024]).unwrap();
//! assert!((b.log2_bound - 15.0).abs() < 1e-6);
//! assert!((b.tuple_bound() - 32768.0).abs() < 1e-3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod agm;
pub mod entropic;
pub mod entropy;
pub mod flow;
pub mod friedgut;
pub mod modular;
pub mod polymatroid;
pub mod proof;
pub mod setfn;

pub use agm::{agm_bound, agm_bound_from_sizes, fractional_edge_cover_number, AgmBound};
pub use entropic::{entropic_bound, EntropicBound};
pub use entropy::entropy_of_relation;
pub use flow::{is_shannon_flow_inequality, DeltaVector};
pub use modular::{modular_bound, ModularBound};
pub use polymatroid::{polymatroid_bound, PolymatroidBound};
pub use proof::{ProofSequence, ProofStep};
pub use setfn::SetFunction;

/// Errors produced when computing bounds.
#[derive(Debug, Clone, PartialEq)]
pub enum BoundError {
    /// The underlying linear program failed (infeasible/unbounded/degenerate).
    Lp(wcoj_lp::LpError),
    /// The bound is infinite: some variable cannot be covered/bounded by the
    /// constraints (e.g. a vertex not covered by any atom, or an unbound variable in
    /// the sense of Proposition 5.2).
    Infinite {
        /// A human-readable reason.
        reason: String,
    },
    /// The requested bound needs an acyclic constraint set but the given one is
    /// cyclic.
    CyclicConstraints,
    /// Constraint/query mismatch (e.g. sizes list of the wrong length).
    Invalid(String),
    /// Too many variables for the exponential-size polymatroid LP.
    TooManyVariables(usize),
    /// A query/database level error.
    Database(String),
}

impl std::fmt::Display for BoundError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BoundError::Lp(e) => write!(f, "LP error: {e}"),
            BoundError::Infinite { reason } => write!(f, "bound is infinite: {reason}"),
            BoundError::CyclicConstraints => {
                write!(f, "constraint set is cyclic; an acyclic set is required")
            }
            BoundError::Invalid(msg) => write!(f, "invalid input: {msg}"),
            BoundError::TooManyVariables(n) => {
                write!(
                    f,
                    "{n} variables is too many for the exponential polymatroid LP"
                )
            }
            BoundError::Database(msg) => write!(f, "database error: {msg}"),
        }
    }
}

impl std::error::Error for BoundError {}

impl From<wcoj_lp::LpError> for BoundError {
    fn from(e: wcoj_lp::LpError) -> Self {
        BoundError::Lp(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display() {
        assert!(BoundError::CyclicConstraints.to_string().contains("cyclic"));
        assert!(BoundError::TooManyVariables(30).to_string().contains("30"));
        assert!(BoundError::Invalid("x".into()).to_string().contains('x'));
        assert!(BoundError::Infinite {
            reason: "unbound".into()
        }
        .to_string()
        .contains("unbound"));
        let e: BoundError = wcoj_lp::LpError::Infeasible.into();
        assert!(e.to_string().contains("infeasible"));
        assert!(BoundError::Database("boom".into())
            .to_string()
            .contains("boom"));
    }
}
