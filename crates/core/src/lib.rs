//! `wcoj-core` — the join-execution engine of the workspace.
//!
//! This crate turns the *objects* modeled by `wcoj-query` / `wcoj-storage` /
//! `wcoj-bounds` into the *subject* of Ngo's PODS 2018 survey: worst-case optimal
//! join execution. It provides:
//!
//! * **Generic Join** (Algorithm 2, Section 4.2) — recursive variable-at-a-time
//!   binding with smallest-first sorted-set intersection — and **Leapfrog
//!   Triejoin** (Veldhuizen 2014, the survey's Section 1.2 ancestor) — k-way
//!   leapfrog intersection over sorted trie cursors — as **one engine skeleton**
//!   parameterized by how an interior level's values are enumerated
//!   ([`exec::Engine`] picks which);
//! * the classical **binary hash-join baseline** the paper compares against
//!   ([`exec::Engine::BinaryHash`]);
//! * a **prefix-bound planner** that costs a variable order by the sum of the AGM
//!   bounds of its prefixes (the paper's own analysis of Algorithm 2) and picks
//!   the cheapest — [`planner`];
//! * **one entry**: [`planner::plan`] makes a [`planner::Plan`] — the variable
//!   order with its prefix bounds and the query's AGM bound, searched or costed
//!   from a given order — and [`exec::run`] executes it; [`exec::execute_opts`]
//!   and [`exec::execute_cancellable`] plan and run in one call. Each returns
//!   the output relation plus the [`wcoj_storage::WorkCounter`] tallies that let
//!   tests compare measured work against the `N^{ρ*}` bound directly.
//!
//! Rows and work counters are a function of `(query, database, options)`:
//! nothing in this crate reads the environment, the filesystem or a clock to
//! decide *what* to execute — there is no host tuning.
//!
//! The skeleton is written once, over the one cursor,
//! [`wcoj_storage::TrieCursor`] of the CSR trie — a delta log is read through
//! the trie of its run — and monomorphized per engine step. It is one serial
//! recursion, as Algorithm 2 is, run on the calling thread: the crate spawns
//! no thread.
//!
//! # Example: the triangle query three ways
//!
//! ```
//! use wcoj_core::exec::{execute_opts, run, Engine, ExecOptions};
//! use wcoj_core::planner::plan;
//! use wcoj_query::query::examples;
//! use wcoj_query::Database;
//! use wcoj_storage::Relation;
//!
//! let q = examples::triangle();
//! let mut db = Database::new();
//! db.insert("R", Relation::from_pairs("a", "b", vec![(1, 2), (2, 3), (1, 3)]));
//! db.insert("S", Relation::from_pairs("b", "c", vec![(2, 3), (3, 1), (3, 4)]));
//! db.insert("T", Relation::from_pairs("a", "c", vec![(1, 3), (2, 1), (1, 4)]));
//!
//! let gj = execute_opts(&q, &db, &ExecOptions::new(Engine::GenericJoin)).unwrap();
//! let bh = execute_opts(&q, &db, &ExecOptions::new(Engine::BinaryHash)).unwrap();
//! // plan once, run the plan: the order with the bounds that cost it
//! let p = plan(&q, &db, None).unwrap();
//! let lf = run(&q, &db, &p, &ExecOptions::new(Engine::Leapfrog), None).unwrap();
//! assert!(lf.result.len() as f64 <= p.agm.tuple_bound()); // the AGM bound holds
//! assert_eq!(gj.result, lf.result);
//! assert_eq!(gj.result, bh.result);
//! assert_eq!(gj.result.len(), 3); // three triangles
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod exec;
pub mod planner;

pub use error::ExecError;
pub use exec::{
    execute_cancellable, execute_opts, run, CacheMode, CacheStats, CancelToken, Engine,
    ExecOptions, ExecOutput,
};
pub use planner::{plan, plan_order, Plan};
pub use wcoj_obs::{AtomTrace, LevelTrace, QueryTrace, TraceSink};
