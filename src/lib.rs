//! Facade crate re-exporting the whole workspace public API.
pub use wcoj_bounds as bounds;
pub use wcoj_core as core;
pub use wcoj_obs as obs;
pub use wcoj_query as query;
pub use wcoj_service as service;
pub use wcoj_storage as storage;
pub use wcoj_workloads as workloads;

/// The README's Rust examples, compiled and run as doctests so that the
/// README cannot name an API the workspace no longer has.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
pub struct ReadmeDoctests;
