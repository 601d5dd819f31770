//! E7.2: the SIMD kernel microbench — the measurement behind the
//! `EXPERIMENTS.md` E7 writeup, and the one the layout-decode work reads.
//!
//! The merge/gallop/bitmap kernels at every runnable SIMD level on dense and
//! short/skewed list shapes, so the SIMD-vs-scalar ratio of each inner loop is
//! visible in isolation; then one AND of two 5-word set layouts, and the name
//! of the layout decoder the native level runs (`vbmi2` or `scalar`).
//!
//! E7's other sections are retired (see `EXPERIMENTS.md`): the startup
//! auto-tune probe with the probe itself; the end-to-end scalar/SIMD A/B,
//! whose bit-identity `core/tests/simd_parity.rs` asserts; and the morsel
//! scaling rows, which went with intra-query parallelism (E3).
//!
//! `--smoke` shrinks the iteration count for CI.

use std::time::Instant;
use wcoj_storage::simd;
use wcoj_storage::{kernels, KernelPolicy, Value, WorkCounter};

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

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let iters = if smoke { 3 } else { 15 };
    let native = simd::detect_level();

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
}
