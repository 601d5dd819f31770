//! E3 — morsel-parallel scaling of the WCOJ engines and of access-structure
//! construction (see `EXPERIMENTS.md`).
//!
//! Times Generic Join and Leapfrog Triejoin on large uniform triangle instances at
//! 1, 2, and 4 worker threads, reporting the speedup over serial execution, and
//! separately times `Trie::build_parallel` at the same thread counts. Verifies on
//! every row that the parallel output, the merged work counters, and the
//! parallel-built tries are identical to their serial counterparts — scaling
//! must not change *what* is computed, only how fast.
//!
//! Note: wall-clock speedup is bounded by the machine's core count; on a
//! single-core container every thread count ≥ 1 times the same — run this on
//! multi-core hardware to see the scaling axis. Usage:
//! `cargo run --release -p wcoj-bench --bin e3_parallel_scaling [-- --n <log2 N>]`
//! (default `--n 18`, i.e. N = 262144 tuples per relation).

use std::time::Instant;
use wcoj_bench::ExperimentTable;
use wcoj_core::exec::{execute_opts_with_order, Engine, ExecOptions};
use wcoj_core::planner::agm_variable_order;
use wcoj_storage::Trie;
use wcoj_workloads::triangle;

fn median_time_ms<F: FnMut()>(mut f: F, iters: usize) -> f64 {
    let mut samples: Vec<f64> = Vec::with_capacity(iters);
    for _ in 0..iters {
        let start = Instant::now();
        f();
        samples.push(start.elapsed().as_secs_f64() * 1e3);
    }
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    samples[samples.len() / 2]
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let log_n: u32 = args
        .iter()
        .position(|a| a == "--n")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(18);
    let n = 1usize << log_n;
    let cores = std::thread::available_parallelism().map_or(1, |c| c.get());

    let mut table = ExperimentTable::new(
        format!(
            "E3: morsel-parallel scaling, uniform triangle N = 2^{log_n} = {n} ({cores} core(s) available)"
        ),
        &["threads", "median_ms", "speedup", "total_work"],
    );

    let w = triangle(n, 0xE3);
    let order = agm_variable_order(&w.query, &w.db).expect("planner");
    for engine in [Engine::GenericJoin, Engine::Leapfrog] {
        let serial_opts = ExecOptions::new(engine);
        let serial = execute_opts_with_order(&w.query, &w.db, &serial_opts, &order).unwrap();
        let serial_ms = median_time_ms(
            || {
                let _ = execute_opts_with_order(&w.query, &w.db, &serial_opts, &order).unwrap();
            },
            3,
        );
        table.push(
            format!("{engine:?}/serial"),
            vec![1.0, serial_ms, 1.0, serial.work.total_work() as f64],
        );
        for threads in [2usize, 4] {
            let opts = serial_opts.with_threads(threads);
            let out = execute_opts_with_order(&w.query, &w.db, &opts, &order).unwrap();
            assert_eq!(out.result, serial.result, "{engine:?} x{threads} output");
            assert_eq!(out.work, serial.work, "{engine:?} x{threads} work");
            let ms = median_time_ms(
                || {
                    let _ = execute_opts_with_order(&w.query, &w.db, &opts, &order).unwrap();
                },
                3,
            );
            table.push(
                format!("{engine:?}/t{threads}"),
                vec![
                    threads as f64,
                    ms,
                    serial_ms / ms,
                    out.work.total_work() as f64,
                ],
            );
        }
    }
    table.print();

    // access-structure construction scaling: one representative reordered build
    // (the non-native order forces the parallel argsort too)
    let rel = &w.db.delta("R").expect("workload binds R").snapshot();
    let mut build_table = ExperimentTable::new(
        format!(
            "E3b: parallel access-structure build, |R| = {} rows",
            rel.len()
        ),
        &["threads", "trie_ms", "trie_speedup"],
    );
    let order = ["B", "A"];
    let trie_serial = Trie::build(rel, &order).expect("serial trie");
    let trie_serial_ms = median_time_ms(|| drop(Trie::build(rel, &order).unwrap()), 3);
    build_table.push("build/serial", vec![1.0, trie_serial_ms, 1.0]);
    for threads in [2usize, 4] {
        let trie = Trie::build_parallel(rel, &order, threads).expect("parallel trie");
        assert_eq!(trie, trie_serial, "parallel trie x{threads} differs");
        let trie_ms = median_time_ms(
            || drop(Trie::build_parallel(rel, &order, threads).unwrap()),
            3,
        );
        build_table.push(
            format!("build/t{threads}"),
            vec![threads as f64, trie_ms, trie_serial_ms / trie_ms],
        );
    }
    build_table.print();
    println!(
        "output, merged work counters, and parallel-built structures verified identical to serial on every row"
    );
}
