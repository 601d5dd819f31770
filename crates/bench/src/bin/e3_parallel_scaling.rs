//! E3 — morsel-parallel scaling of the WCOJ engines (see `EXPERIMENTS.md`).
//!
//! Times Generic Join and Leapfrog Triejoin on large uniform triangle instances at
//! 1, 2, and 4 worker threads, reporting the speedup over serial execution.
//! Verifies on every row that the parallel output and the merged work counters
//! are identical to their serial counterparts — scaling must not change *what*
//! is computed, only how fast. Access structures are built serially whatever
//! the thread count, and the timed runs find them memoized on the runs.
//!
//! Note: wall-clock speedup is bounded by the machine's core count; on a
//! single-core container every thread count ≥ 1 times the same — run this on
//! multi-core hardware to see the scaling axis. Usage:
//! `cargo run --release -p wcoj-bench --bin e3_parallel_scaling [-- --n <log2 N>]`
//! (default `--n 18`, i.e. N = 262144 tuples per relation).

use std::time::Instant;
use wcoj_bench::ExperimentTable;
use wcoj_core::exec::{run, Engine, ExecOptions};
use wcoj_core::planner::plan;
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
    let plan = plan(&w.query, &w.db, None).expect("planner");
    for engine in [Engine::GenericJoin, Engine::Leapfrog] {
        let serial_opts = ExecOptions::new(engine);
        let serial = run(&w.query, &w.db, &plan, &serial_opts, None).unwrap();
        let serial_ms = median_time_ms(
            || {
                let _ = run(&w.query, &w.db, &plan, &serial_opts, None).unwrap();
            },
            3,
        );
        table.push(
            format!("{engine:?}/serial"),
            vec![1.0, serial_ms, 1.0, serial.work.total_work() as f64],
        );
        for threads in [2usize, 4] {
            let opts = serial_opts.with_threads(threads);
            let out = run(&w.query, &w.db, &plan, &opts, None).unwrap();
            assert_eq!(out.result, serial.result, "{engine:?} x{threads} output");
            assert_eq!(out.work, serial.work, "{engine:?} x{threads} work");
            let ms = median_time_ms(
                || {
                    let _ = run(&w.query, &w.db, &plan, &opts, None).unwrap();
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
    println!("output and merged work counters verified identical to serial on every row");
}
