//! SIMD-parity property tests: the vector kernels must be **observationally
//! identical** to the scalar reference — same output tuples in the same order
//! *and* the same deterministic work counters — across the differential
//! workload suite (static and delta-backed atoms), every engine, both the
//! serial and morsel-parallel paths, and two sets of kernel thresholds (the
//! defaults and a set with every field moved, so other kernels and the other
//! seek path get exercised on the same data).
//!
//! The sweep flips the process-wide dispatch level with
//! [`wcoj_storage::simd::force_active_level`] between runs, so it exercises the
//! exact production dispatch (cursors snapshot the level when created, kernels
//! read it per intersection) rather than a test-only code path. Everything
//! lives in a single `#[test]` because the dispatch level is process-global:
//! this file must not grow concurrent tests that execute queries.

use wcoj_core::exec::{execute_opts_with_order, Engine, ExecOptions, KernelCalibration};
use wcoj_core::planner::agm_variable_order;
use wcoj_storage::simd::{self, SimdLevel};
use wcoj_workloads::differential_suite;

#[test]
fn simd_dispatch_is_bit_identical_to_scalar_everywhere() {
    let native = simd::detect_level();
    if native == SimdLevel::Scalar {
        // scalar-only host: the sweep would compare scalar against itself
        eprintln!("host has no SIMD level; parity holds vacuously");
    }
    let fixed = KernelCalibration::fixed();
    let moved = KernelCalibration {
        merge_max_ratio: 4,
        bitmap_max_span: 2048,
        bitmap_span_per_element: 8,
        linear_seek_max: 32,
    };
    let suite = differential_suite(0x51D0);
    for w in &suite {
        let order = agm_variable_order(&w.query, &w.db).expect("planner");
        for engine in [Engine::GenericJoin, Engine::Leapfrog] {
            for (threads, cal) in [(1, fixed), (4, fixed), (1, moved), (4, moved)] {
                let opts = ExecOptions::new(engine)
                    .with_threads(threads)
                    .with_calibration(cal);

                simd::force_active_level(SimdLevel::Scalar);
                let scalar =
                    execute_opts_with_order(&w.query, &w.db, &opts, &order).expect("scalar");

                simd::force_active_level(native);
                let vector = execute_opts_with_order(&w.query, &w.db, &opts, &order).expect("simd");

                let cfg = format!(
                    "{}/{engine:?}/t{threads}/{cal:?} ({native:?} vs Scalar)",
                    w.name
                );
                assert_eq!(vector.result, scalar.result, "{cfg}: output diverged");
                assert_eq!(vector.work, scalar.work, "{cfg}: work counters diverged");
            }
        }
    }
}
