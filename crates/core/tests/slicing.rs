//! Rows and work counters do not depend on where level 0 is cut. A plain
//! execution runs the first join variable's extension set as one slice; a
//! cancellable one, under a token that never fires, runs it in
//! [`CANCEL_CHUNK`]-value slices with a token poll between them. Over the
//! differential suite and both WCOJ engines the two must agree on rows, work
//! counters and variable order. No level 0 of the differential suite spans
//! more than 48 values, so two wider triangles join it, whose level 0 spans
//! two full slices and a partial one: the slicing really happens. (The
//! driver's unit test cuts level 0 at every slice length.)

use std::sync::Arc;
use wcoj_core::exec::cancel::CANCEL_CHUNK;
use wcoj_core::exec::{execute_cancellable, execute_opts, CancelToken, Engine, ExecOptions};
use wcoj_core::TraceSink;
use wcoj_workloads::{differential_suite, triangle, triangle_adversarial};

#[test]
fn cancellable_slices_give_the_plain_rows_counters_and_order() {
    let mut sliced = 0;
    let wide = [triangle(4096, 0x9A11E1), triangle_adversarial(150)];
    for w in differential_suite(0x9A11E1).into_iter().chain(wide) {
        for engine in [Engine::GenericJoin, Engine::Leapfrog] {
            let at = format!("{} {engine:?}", w.name);
            let opts = ExecOptions::new(engine);
            let whole = execute_opts(&w.query, &w.db, &opts)
                .unwrap_or_else(|e| panic!("{at}: plain run failed: {e}"));
            let sink = Arc::new(TraceSink::new());
            let traced = opts.with_trace(Arc::clone(&sink));
            let out = execute_cancellable(&w.query, &w.db, &traced, None, &CancelToken::new())
                .unwrap_or_else(|e| panic!("{at}: cancellable run failed: {e}"));
            assert_eq!(out.result, whole.result, "{at}: rows depend on the slicing");
            assert_eq!(out.work, whole.work, "{at}: counters depend on the slicing");
            assert_eq!(out.order, whole.order, "{at}: order");
            let level0 = sink.take().expect("trace deposited").levels[0].candidates;
            sliced += (level0 > CANCEL_CHUNK as u64) as usize;
        }
    }
    // both wide triangles, under both engines
    assert_eq!(sliced, 4, "level 0 spans more than {CANCEL_CHUNK} values");
}
