//! SIMD-parity property tests: the vector kernels must be **observationally
//! identical** to the scalar reference — same output tuples in the same order
//! *and* the same deterministic work counters — across the differential
//! workload suite and every engine. Each kernel forced at every level is compared with the scalar one
//! by the kernel layer's own tests (`wcoj_storage::kernels`).
//!
//! The sweep flips the process-wide dispatch level with
//! [`wcoj_storage::simd::force_active_level`] between runs, so it exercises the
//! exact production dispatch (cursors snapshot the level when created, kernels
//! read it per intersection) rather than a test-only code path. Everything
//! lives in a single `#[test]` because the dispatch level is process-global:
//! this file must not grow concurrent tests that execute queries.

use wcoj_core::exec::{run, Engine, ExecOptions};
use wcoj_core::planner::plan;
use wcoj_storage::simd::{self, SimdLevel};
use wcoj_workloads::differential_suite;

#[test]
fn simd_dispatch_is_bit_identical_to_scalar_everywhere() {
    let native = simd::detect_level();
    if native == SimdLevel::Scalar {
        // scalar-only host: the sweep would compare scalar against itself
        eprintln!("host has no SIMD level; parity holds vacuously");
    }
    let suite = differential_suite(0x51D0);
    for w in &suite {
        let plan = plan(&w.query, &w.db, None).expect("planner");
        for engine in [Engine::GenericJoin, Engine::Leapfrog] {
            let opts = ExecOptions::new(engine);

            simd::force_active_level(SimdLevel::Scalar);
            let scalar = run(&w.query, &w.db, &plan, &opts, None).expect("scalar");

            simd::force_active_level(native);
            let vector = run(&w.query, &w.db, &plan, &opts, None).expect("simd");

            let cfg = format!("{}/{engine:?} ({native:?} vs Scalar)", w.name);
            assert_eq!(vector.result, scalar.result, "{cfg}: output diverged");
            assert_eq!(vector.work, scalar.work, "{cfg}: work counters diverged");
        }
    }
}
