//! `wcoj-query` — queries, hypergraphs, and degree constraints.
//!
//! This crate models the objects of Section 3.1 of *Worst-Case Optimal Join
//! Algorithms* (Ngo, PODS 2018):
//!
//! * a **full conjunctive query** `Q(A_[n]) ← ⋀_{F ∈ E} R_F(A_F)` over a
//!   multi-hypergraph `H = ([n], E)` — [`ConjunctiveQuery`] / [`Hypergraph`];
//! * **degree constraints** `(X, Y, N_{Y|X})` (Definition 1), which strictly
//!   generalize cardinality constraints (`X = ∅`) and functional dependencies
//!   (`N = 1`) — [`DegreeConstraint`] / [`ConstraintSet`];
//! * the **constraint dependency graph** `G_DC` and acyclicity of a constraint set
//!   (Definition 3), compatible variable orders, and the acyclic **constraint repair**
//!   of Proposition 5.2 / Corollary 5.3 — [`constraint_graph`], [`repair`];
//! * a **database** binding atom names to [`wcoj_storage::Relation`]s, with
//!   verification that it satisfies a constraint set (`D ⊨ DC`) — [`Database`];
//! * **MVCC snapshots** pinning a database's visible state via `Arc` refcounts
//!   so readers run lock-free against a frozen view while writers proceed —
//!   [`Snapshot`];
//! * **variable-order validation** for the join engines of `wcoj-core` —
//!   [`plan`] (the order itself is chosen by `wcoj-core::planner`).
//!
//! # Example
//!
//! ```
//! use wcoj_query::{ConjunctiveQuery, ConstraintSet};
//!
//! // the triangle query of Section 2 of the paper
//! let q = ConjunctiveQuery::builder()
//!     .atom("R", &["A", "B"])
//!     .atom("S", &["B", "C"])
//!     .atom("T", &["A", "C"])
//!     .build()
//!     .unwrap();
//! assert_eq!(q.num_vars(), 3);
//! assert_eq!(q.hypergraph().num_edges(), 3);
//!
//! // cardinality constraints |R|,|S|,|T| <= 100 form an acyclic constraint set
//! let dc = ConstraintSet::all_cardinalities(&q, &[("R", 100), ("S", 100), ("T", 100)]).unwrap();
//! assert!(dc.is_acyclic(q.num_vars()));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod constraints;
pub mod database;
pub mod hypergraph;
pub mod plan;
pub mod query;
pub mod repair;
pub mod snapshot;

pub use constraints::{constraint_graph, ConstraintSet, DegreeConstraint};
pub use database::{Database, VarBinding};
pub use hypergraph::Hypergraph;
pub use plan::{default_order, is_valid_order};
pub use query::{Atom, ConjunctiveQuery, QueryBuilder, QueryError};
pub use repair::{bound_variables, is_output_finite, repair_to_acyclic};
pub use snapshot::Snapshot;

/// A variable identifier: a dense index into the query's variable list.
pub type VarId = usize;
