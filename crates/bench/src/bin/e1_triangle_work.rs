//! E1 — work vs. AGM bound on the triangle query (see `EXPERIMENTS.md`).
//!
//! Reproduces the survey's Section 1.1/2 story as a table: for uniform and
//! adversarial ("bowtie") triangle instances of growing size, report the AGM bound
//! `N^{3/2}`, the output size, each engine's total work, and the binary plan's
//! intermediate-tuple count. On the bowtie instances the binary column grows
//! quadratically while the WCOJ engines track the bound.

use wcoj_bench::ExperimentTable;
use wcoj_bounds::agm::agm_bound;
use wcoj_core::exec::{execute_opts, Engine, ExecOptions};
use wcoj_workloads::{triangle, triangle_adversarial, Workload};

fn row(table: &mut ExperimentTable, w: &Workload) {
    let agm = agm_bound(&w.query, &w.db).expect("agm").tuple_bound();
    let bh = execute_opts(&w.query, &w.db, &ExecOptions::new(Engine::BinaryHash)).expect("binary");
    let gj = execute_opts(&w.query, &w.db, &ExecOptions::new(Engine::GenericJoin))
        .expect("generic join");
    let lf = execute_opts(&w.query, &w.db, &ExecOptions::new(Engine::Leapfrog)).expect("leapfrog");
    assert_eq!(gj.result, lf.result);
    assert_eq!(gj.result, bh.result);
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
    let mut table = ExperimentTable::new(
        "E1: triangle work vs AGM bound (probes + intersect steps; binary = intermediates)",
        &["agm_bound", "out", "generic", "leapfrog", "binary_interm"],
    );
    for &n in &[256usize, 1_024, 4_096] {
        row(&mut table, &triangle(n, 0xE1));
    }
    for &m in &[64u64, 256, 1_024] {
        row(&mut table, &triangle_adversarial(m));
    }
    table.print();
}
