//! E4 — intersection-kernel selection statistics (see `EXPERIMENTS.md`).
//!
//! For each workload and WCOJ engine, runs the adaptive kernel policy and reports
//! the per-kernel invocation histogram (merge / gallop / bitmap) from the
//! `WorkCounter` breakdown, plus the serial median wall-clock of the adaptive
//! policy against every forced-kernel policy — making both *what* the heuristic
//! chose and *what that choice bought* visible per workload.
//!
//! A second table times **one** dense intersection both ways: the list-bitmap
//! kernel, which derives both bitsets from the sorted lists on every call, and
//! the AND + decode over the set layouts an access structure prebuilds
//! (`kernels::intersect_layouts_into`) — the per-intersection saving behind
//! EXPERIMENTS E13.
//!
//! Usage: `cargo run --release -p wcoj-bench --bin e4_kernel_stats [-- --smoke]`

use std::time::Instant;
use wcoj_bench::ExperimentTable;
use wcoj_core::exec::{execute_opts_with_order, Engine, ExecOptions};
use wcoj_core::planner::agm_variable_order;
use wcoj_storage::{kernels, simd, KernelPolicy, Value, WorkCounter};
use wcoj_workloads::{hub_spoke, kclique, triangle, triangle_skewed, SplitMix64, Workload};

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
    dense_intersection_microbench(if smoke { 20_000 } else { 2_000_000 });
}

/// `len` distinct sorted values below `domain`.
fn random_group(rng: &mut SplitMix64, len: usize, domain: u64) -> Vec<Value> {
    let mut group: Vec<Value> = Vec::with_capacity(len);
    while group.len() < len {
        let v = rng.below(domain);
        if let Err(at) = group.binary_search(&v) {
            group.insert(at, v);
        }
    }
    group
}

/// Time one two-way intersection of dense groups — `triangle_join`'s shape is
/// 64 of 257 values — through the list-bitmap kernel and through prebuilt
/// layouts, over 64 group pairs visited round-robin.
fn dense_intersection_microbench(reps: usize) {
    let mut table = ExperimentTable::new(
        "E4.2: one dense intersection — list-bitmap kernel vs prebuilt layouts (ns each)",
        &["out_values", "list_bitmap_ns", "layout_and_ns", "ratio"],
    );
    let mut rng = SplitMix64::new(0xE42);
    for (len, domain) in [(16usize, 65u64), (64, 257), (256, 1025)] {
        let groups: Vec<Vec<Value>> = (0..128)
            .map(|_| random_group(&mut rng, len, domain))
            .collect();
        let layouts: Vec<Vec<u64>> = groups
            .iter()
            .map(|g| {
                let mut words = Vec::new();
                let dense = kernels::append_layout(&mut words, g) > 0;
                assert!(dense, "the shape must be dense");
                words
            })
            .collect();
        let layout = |i: usize| kernels::layout_of(groups[i][0], &layouts[i]).expect("dense");
        let (w, level) = (WorkCounter::new(), simd::active_level());
        let (mut by_list, mut by_layout) = (Vec::new(), Vec::new());
        let mut out_values = 0usize;
        let mut time_ns = |dense: bool, out: &mut Vec<Value>| {
            let start = Instant::now();
            for rep in 0..reps {
                let (a, b) = (2 * (rep % 64), 2 * (rep % 64) + 1);
                let lists: [&[Value]; 2] = [&groups[a], &groups[b]];
                out.clear(); // the kernels append
                if dense {
                    let layouts = [layout(a), layout(b)];
                    kernels::intersect_layouts_into(level, out, &lists, &layouts, &w);
                } else {
                    kernels::intersect_into(out, &lists, KernelPolicy::Adaptive, &w);
                }
                out_values += std::hint::black_box(&*out).len();
            }
            start.elapsed().as_secs_f64() * 1e9 / reps as f64
        };
        let list_ns = time_ns(false, &mut by_list);
        let layout_ns = time_ns(true, &mut by_layout);
        assert_eq!(by_list, by_layout, "both paths compute the same set");
        assert_eq!(
            w.kernel_calls(),
            w.kernel_bitmap(),
            "adaptive picks bitmap here"
        );
        table.push(
            format!("{len} of {domain}"),
            vec![
                out_values as f64 / (2 * reps) as f64,
                list_ns,
                layout_ns,
                list_ns / layout_ns,
            ],
        );
    }
    table.print();
}
