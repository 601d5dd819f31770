//! E4 — intersection-kernel selection statistics (see `EXPERIMENTS.md`).
//!
//! For each workload and WCOJ engine, runs the adaptive kernel policy and reports
//! the per-kernel invocation histogram (merge / gallop / bitmap) from the
//! `WorkCounter` breakdown, plus the serial median wall-clock of the adaptive
//! policy against every forced-kernel policy — making both *what* the heuristic
//! chose and *what that choice bought* visible per workload.
//!
//! Usage: `cargo run --release -p wcoj-bench --bin e4_kernel_stats [-- --smoke]`

use std::time::Instant;
use wcoj_bench::ExperimentTable;
use wcoj_core::exec::{execute_opts_with_order, Engine, ExecOptions};
use wcoj_core::planner::agm_variable_order;
use wcoj_storage::KernelPolicy;
use wcoj_workloads::{hub_spoke, kclique, triangle, triangle_skewed, Workload};

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
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (n, iters) = if smoke { (1_024, 1) } else { (16_384, 3) };
    let clique_n = if smoke { 512 } else { 4_096 };

    let workloads: Vec<Workload> = vec![
        triangle(n, 0xC0FFEE),
        triangle_skewed(n, (n as u64 / 4).max(4), 1.1, 0xBEEF),
        hub_spoke(n, 0xE4),
        kclique(4, clique_n, 0xE4),
    ];

    let mut table = ExperimentTable::new(
        "E4: adaptive kernel selection — histogram and forced-policy wall-clock",
        &[
            "k_merge",
            "k_gallop",
            "k_bitmap",
            "comparisons",
            "adaptive_ms",
            "merge_ms",
            "gallop_ms",
            "bitmap_ms",
        ],
    );
    for w in &workloads {
        let order = agm_variable_order(&w.query, &w.db).expect("planner");
        for engine in [Engine::GenericJoin, Engine::Leapfrog] {
            let adaptive = ExecOptions::new(engine);
            let out = execute_opts_with_order(&w.query, &w.db, &adaptive, &order).expect("exec");
            let mut cells = vec![
                out.work.kernel_merge() as f64,
                out.work.kernel_gallop() as f64,
                out.work.kernel_bitmap() as f64,
                out.work.comparisons() as f64,
            ];
            for policy in KernelPolicy::ALL {
                let opts = adaptive.with_kernel(policy);
                let reference = &out.result;
                let run = execute_opts_with_order(&w.query, &w.db, &opts, &order).expect("exec");
                assert_eq!(
                    &run.result, reference,
                    "{}: {engine:?} output must not depend on {policy:?}",
                    w.name
                );
                cells.push(median_time_ms(
                    || {
                        let _ = execute_opts_with_order(&w.query, &w.db, &opts, &order).unwrap();
                    },
                    iters,
                ));
            }
            table.push(format!("{}/{engine:?}", w.name), cells);
        }
    }
    table.print();
}
