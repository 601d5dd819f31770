//! E7: SIMD kernels and morsel placement — the measurements behind the
//! `EXPERIMENTS.md` E7 writeup.
//!
//! Three sections (the numbering is E7's historical one; sections 1 and 4 —
//! the startup auto-tune probe and its calibrated-vs-fixed comparison — were
//! deleted with the probe, see the closing measurement in `EXPERIMENTS.md`):
//!
//! 2. **Kernel microbench** — the merge/gallop/bitmap kernels at every
//!    runnable SIMD level on dense and short/skewed list shapes, so the
//!    SIMD-vs-scalar ratio of each inner loop is visible in isolation; then
//!    one AND of two 5-word set layouts, and the name of the layout decoder
//!    the native level runs (`vbmi2` or `scalar`).
//! 3. **End-to-end SIMD A/B** — serial triangle joins (uniform and Zipf) with
//!    process-wide dispatch flipped between `Scalar` and the native level via
//!    [`wcoj_storage::simd::force_active_level`]; asserts bit-identical output
//!    and work counters, reports the wall-clock ratio.
//! 5. **Morsel scaling** — threads 1/2/4, worker `w` pinned to
//!    `topology::worker_cpu(w)`.
//!
//! `--smoke` shrinks sizes/iterations for CI; the full run backs the numbers
//! quoted in `EXPERIMENTS.md`.

use std::time::Instant;
use wcoj_bench::report::{parse_bench_json, write_bench_json, BenchRecord};
use wcoj_bounds::agm::agm_bound;
use wcoj_core::exec::{execute_opts_with_order, Engine, ExecOptions};
use wcoj_core::planner::agm_variable_order;
use wcoj_storage::simd::{self, SimdLevel};
use wcoj_storage::topology::available_cpus;
use wcoj_storage::{kernels, KernelPolicy, Value, WorkCounter};
use wcoj_workloads::{triangle, triangle_skewed, Workload};

fn min_time_ms<F: FnMut()>(mut f: F, iters: usize) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..iters {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_secs_f64() * 1e3);
    }
    best
}

fn sorted_unique(seed: &mut u64, len: usize, span: u64) -> Vec<Value> {
    let mut v: Vec<Value> = (0..len * 2)
        .map(|_| {
            *seed ^= *seed << 13;
            *seed ^= *seed >> 7;
            *seed ^= *seed << 17;
            *seed % span
        })
        .collect();
    v.sort_unstable();
    v.dedup();
    v.truncate(len);
    v
}

fn run_serial(
    w: &Workload,
    opts: &ExecOptions,
    iters: usize,
) -> (f64, wcoj_core::exec::ExecOutput) {
    let order = agm_variable_order(&w.query, &w.db).expect("planner");
    let out = execute_opts_with_order(&w.query, &w.db, opts, &order).expect("execute");
    let ms = min_time_ms(
        || {
            let _ = execute_opts_with_order(&w.query, &w.db, opts, &order).unwrap();
        },
        iters,
    );
    (ms, out)
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (n, iters) = if smoke { (2_048, 3) } else { (16_384, 15) };
    let native = simd::detect_level();

    // ---- 2. kernel microbench -------------------------------------------
    println!("E7.2 kernel microbench (min of {iters}, lower is better)");
    let mut seed = 0xE7u64;
    let dense_a: Vec<Value> = (0..4096u64).map(|i| i * 3).collect();
    let dense_b: Vec<Value> = (0..4096u64).map(|i| i * 4).collect();
    let small = sorted_unique(&mut seed, 64, 1 << 14);
    let large = sorted_unique(&mut seed, 4096, 1 << 14);
    let shapes: [(&str, [&[Value]; 2], usize); 2] = [
        ("dense 4096x4096", [&dense_a, &dense_b], 100),
        ("skewed 64x4096", [&small, &large], 1000),
    ];
    let w = WorkCounter::new();
    for (shape, lists, reps) in shapes {
        for policy in [
            KernelPolicy::Merge,
            KernelPolicy::Gallop,
            KernelPolicy::Bitmap,
        ] {
            let mut line = format!("  {shape} {policy:?}:");
            for level in simd::runnable_levels() {
                let mut out = Vec::new();
                let ms = min_time_ms(
                    || {
                        for _ in 0..reps {
                            out.clear(); // the kernels append
                            kernels::intersect_into_at(level, &mut out, &lists, policy, &w);
                        }
                    },
                    iters,
                );
                line.push_str(&format!(" {level:?} {ms:.3}ms/{reps}"));
            }
            println!("{line}");
        }
    }
    // the deepest step of a dense triangle: one AND of two prebuilt layouts,
    // each about 70 of 320 values, whose decode is most of the cost
    let groups: Vec<Vec<Value>> = (0..2)
        .map(|_| {
            (64..384)
                .filter(|_| {
                    seed ^= seed << 13;
                    seed ^= seed >> 7;
                    seed ^= seed << 17;
                    seed % 100 < 22
                })
                .collect()
        })
        .collect();
    let words: Vec<Vec<u64>> = groups
        .iter()
        .map(|g| {
            let mut words = Vec::new();
            assert_eq!(kernels::append_layout(&mut words, g), 5, "a 5-word layout");
            words
        })
        .collect();
    let layouts: Vec<kernels::Layout> = (0..2)
        .map(|i| kernels::layout_of(groups[i][0], &words[i]).expect("dense"))
        .collect();
    let lists: [&[Value]; 2] = [&groups[0], &groups[1]];
    let reps = 10_000;
    let (mut timings, mut values) = (String::new(), 0);
    for level in simd::runnable_levels() {
        let mut out = Vec::new();
        let ms = min_time_ms(
            || {
                for _ in 0..reps {
                    out.clear(); // the kernels append
                    kernels::intersect_layouts_into(level, &mut out, &lists, &layouts, &w);
                    std::hint::black_box(&out);
                }
            },
            iters,
        );
        values = out.len();
        timings.push_str(&format!(" {level:?} {ms:.3}ms/{reps}"));
    }
    println!("  layouts 2x5 words ({values} values):{timings}");
    println!(
        "  layout decoder at {native:?}: {}",
        if simd::decode_vbmi2(native) {
            "vbmi2"
        } else {
            "scalar"
        }
    );

    // ---- 3. end-to-end SIMD A/B -----------------------------------------
    println!("\nE7.3 end-to-end serial joins, {native:?} vs Scalar (min of {iters})");
    let workloads = [
        (format!("uniform_n{n}"), triangle(n, 0xC0FFEE)),
        (
            format!("zipf_n{n}"),
            triangle_skewed(n, (n / 4) as u64, 1.1, 0xBEEF),
        ),
    ];
    let mut e7_records: Vec<BenchRecord> = Vec::new();
    for (name, w) in &workloads {
        let agm = agm_bound(&w.query, &w.db).expect("agm").tuple_bound();
        for engine in [Engine::GenericJoin, Engine::Leapfrog] {
            let opts = ExecOptions::new(engine);
            simd::force_active_level(SimdLevel::Scalar);
            let (scalar_ms, scalar_out) = run_serial(w, &opts, iters);
            simd::force_active_level(native);
            let (simd_ms, simd_out) = run_serial(w, &opts, iters);
            assert_eq!(
                simd_out.result, scalar_out.result,
                "{name}/{engine:?} output"
            );
            assert_eq!(simd_out.work, scalar_out.work, "{name}/{engine:?} counters");
            println!(
                "  {name}/{engine:?}: scalar {scalar_ms:.2}ms -> {native:?} {simd_ms:.2}ms (x{:.2}, counters identical)",
                scalar_ms / simd_ms
            );
            for (level, ms, out) in [
                (SimdLevel::Scalar, scalar_ms, &scalar_out),
                (native, simd_ms, &simd_out),
            ] {
                e7_records.push(BenchRecord {
                    workload: format!("e7_{name}"),
                    engine: format!("{engine:?}[{level:?}]"),
                    threads: 1,
                    median_ms: ms,
                    out_tuples: out.result.len() as u64,
                    agm_bound: agm,
                    work: vec![
                        ("total_work".into(), out.work.total_work()),
                        ("probes".into(), out.work.probes()),
                        ("comparisons".into(), out.work.comparisons()),
                        ("kernel_merge".into(), out.work.kernel_merge()),
                        ("kernel_gallop".into(), out.work.kernel_gallop()),
                        ("kernel_bitmap".into(), out.work.kernel_bitmap()),
                        ("delta_merge".into(), out.work.delta_merge()),
                    ],
                });
            }
        }
    }

    // ---- 5. morsel scaling ----------------------------------------------
    println!(
        "\nE7.5 morsel scaling (uniform, GenericJoin; {} CPUs)",
        available_cpus()
    );
    let (name, w) = &workloads[0];
    let serial_opts = ExecOptions::new(Engine::GenericJoin);
    let (serial_ms, serial_out) = run_serial(w, &serial_opts, iters);
    println!("  {name}/t1: {serial_ms:.2}ms (x1.00)");
    for threads in [2usize, 4] {
        let opts = serial_opts.with_threads(threads);
        let (ms, out) = run_serial(w, &opts, iters);
        assert_eq!(out.result, serial_out.result, "t{threads} output");
        assert_eq!(out.work, serial_out.work, "t{threads} counters");
        println!("  {name}/t{threads}: {ms:.2}ms (x{:.2})", serial_ms / ms);
    }

    // ---- record E7 rows into BENCH_joins.json (full runs only) -----------
    if !smoke {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .join("BENCH_joins.json");
        let mut records: Vec<BenchRecord> = std::fs::read_to_string(&path)
            .ok()
            .and_then(|doc| parse_bench_json(&doc))
            .unwrap_or_default();
        // replace any previous E7 rows, keep everything else untouched
        records.retain(|r| !r.workload.starts_with("e7_"));
        records.extend(e7_records);
        match write_bench_json(
            &path,
            "cargo bench -p wcoj-bench (+ e7_hw_calibration)",
            &records,
        ) {
            Ok(()) => println!("\nwrote E7 rows into {}", path.display()),
            Err(e) => eprintln!("could not write {}: {e}", path.display()),
        }
    }
}
