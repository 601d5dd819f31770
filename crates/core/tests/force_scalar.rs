//! The `WCOJ_FORCE_SCALAR=1` escape hatch: setting it before the first kernel
//! dispatch must pin the process to the scalar paths and leave results intact.
//!
//! This file holds exactly one test so it owns its process: the dispatch level
//! is detected once, and the env var is only consulted at that first use.

use wcoj_core::exec::{execute_opts, Engine, ExecOptions};
use wcoj_storage::simd::{self, SimdLevel};
use wcoj_workloads::triangle;

#[test]
fn force_scalar_env_pins_scalar_dispatch() {
    // set before anything touches the dispatch cache (single-test binary)
    std::env::set_var("WCOJ_FORCE_SCALAR", "1");
    assert_eq!(simd::active_level(), SimdLevel::Scalar);

    let w = triangle(256, 0xF5CA);
    let gj = execute_opts(&w.query, &w.db, &ExecOptions::new(Engine::GenericJoin))
        .expect("generic join");
    let lf = execute_opts(&w.query, &w.db, &ExecOptions::new(Engine::Leapfrog)).expect("leapfrog");
    assert_eq!(gj.result, lf.result);
    assert!(!gj.result.is_empty(), "fixture should produce triangles");
    // still scalar after execution — nothing re-detects behind the hatch
    assert_eq!(simd::active_level(), SimdLevel::Scalar);
}
