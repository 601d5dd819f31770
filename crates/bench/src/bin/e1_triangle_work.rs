//! E1 — work vs. AGM bound on the triangle query (see `EXPERIMENTS.md`).
//!
//! Reproduces the survey's Section 1.1/2 story as a table: for uniform and
//! adversarial ("bowtie") triangle instances of growing size, report the AGM bound
//! `N^{3/2}`, the output size, each engine's total work, and the binary plan's
//! intermediate-tuple count. On the bowtie instances the binary column grows
//! quadratically while the WCOJ engines track the bound.
//!
//! Pass `--threads N` to run the WCOJ engines under the morsel-parallel scheduler —
//! the work columns are identical for any `N` (merged parallel counters equal the
//! serial counters by construction; the property tests assert it), which this binary
//! double-checks on every row.

use wcoj_bench::ExperimentTable;
use wcoj_bounds::agm::agm_bound;
use wcoj_core::exec::{execute_opts, Engine, ExecOptions};
use wcoj_workloads::{triangle, triangle_adversarial, Workload};

fn row(table: &mut ExperimentTable, w: &Workload, threads: usize) {
    let agm = agm_bound(&w.query, &w.db).expect("agm").tuple_bound();
    let bh = execute_opts(&w.query, &w.db, &ExecOptions::new(Engine::BinaryHash)).expect("binary");
    let gj_opts = ExecOptions::new(Engine::GenericJoin).with_threads(threads);
    let lf_opts = ExecOptions::new(Engine::Leapfrog).with_threads(threads);
    let gj = execute_opts(&w.query, &w.db, &gj_opts).expect("generic join");
    let lf = execute_opts(&w.query, &w.db, &lf_opts).expect("leapfrog");
    assert_eq!(gj.result, lf.result);
    assert_eq!(gj.result, bh.result);
    if threads > 1 {
        // parallel work must merge to exactly the serial tallies
        let serial = execute_opts(&w.query, &w.db, &gj_opts.with_threads(1)).expect("serial");
        assert_eq!(serial.work, gj.work, "{}: parallel work diverges", w.name);
    }
    table.push(
        w.name.clone(),
        vec![
            agm,
            gj.result.len() as f64,
            (gj.work.probes() + gj.work.intersect_steps()) as f64,
            (lf.work.probes() + lf.work.intersect_steps()) as f64,
            bh.work.intermediate_tuples() as f64,
        ],
    );
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let threads = args
        .iter()
        .position(|a| a == "--threads")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(1);
    let mut table = ExperimentTable::new(
        "E1: triangle work vs AGM bound (probes + intersect steps; binary = intermediates)",
        &["agm_bound", "out", "generic", "leapfrog", "binary_interm"],
    );
    for &n in &[256usize, 1_024, 4_096] {
        row(&mut table, &triangle(n, 0xE1), threads);
    }
    for &m in &[64u64, 256, 1_024] {
        row(&mut table, &triangle_adversarial(m), threads);
    }
    table.print();
}
