//! Property tests for morsel-driven parallel execution.
//!
//! For every workload in the differential suite, both WCOJ engines, and thread
//! counts 1, 2, 4, 8: the parallel result relation must equal the serial engine's
//! (which is already sorted canonically), and the merged work counters must equal
//! the serial counters *exactly* — the determinism guarantee of
//! `wcoj_core::exec::parallel` (driver-counted intersection + scheduling-independent
//! per-extension work).

use wcoj_core::exec::{execute_opts, Engine, ExecOptions};
use wcoj_workloads::differential_suite;

#[test]
fn parallel_results_and_merged_counters_equal_serial() {
    for w in differential_suite(0x9A11E1) {
        for engine in [Engine::GenericJoin, Engine::Leapfrog] {
            let serial = execute_opts(&w.query, &w.db, &ExecOptions::new(engine))
                .unwrap_or_else(|e| panic!("{}: serial {engine:?} failed: {e}", w.name));
            for threads in [1usize, 2, 4, 8] {
                let opts = ExecOptions::new(engine).with_threads(threads);
                let out = execute_opts(&w.query, &w.db, &opts)
                    .unwrap_or_else(|e| panic!("{}: {engine:?} x{threads} failed: {e}", w.name));
                assert_eq!(
                    out.result, serial.result,
                    "{}: {engine:?} x{threads} result diverges from serial",
                    w.name
                );
                assert_eq!(
                    out.work, serial.work,
                    "{}: {engine:?} x{threads} merged counters diverge from serial",
                    w.name
                );
                assert_eq!(out.order, serial.order);
            }
        }
    }
}

#[test]
fn oversubscribed_threads_are_harmless() {
    // more threads than extension values: extra workers claim nothing and exit
    let w = wcoj_workloads::triangle(32, 0xFEED);
    let serial = execute_opts(&w.query, &w.db, &ExecOptions::new(Engine::GenericJoin)).unwrap();
    let opts = ExecOptions::new(Engine::GenericJoin).with_threads(64);
    let out = execute_opts(&w.query, &w.db, &opts).unwrap();
    assert_eq!(out.result, serial.result);
    assert_eq!(out.work, serial.work);
}
