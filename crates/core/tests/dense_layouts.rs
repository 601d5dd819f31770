//! A dense differential through the engines: `clique(3)` over the complete
//! graph on 128 vertices (self-loops included), so every set layout is two
//! full words and every AND at every level decodes 64 bits per word — the
//! decoder's longest path, 8 rounds per word. At every runnable SIMD level,
//! both WCOJ engines must return the `BinaryHash` baseline's rows, with work
//! counters identical across levels.
//!
//! One `#[test]`: the dispatch level is process-global, so this file must not
//! grow concurrent tests that execute queries.

use wcoj_core::exec::{run, Engine, ExecOptions};
use wcoj_core::planner::plan;
use wcoj_query::query::examples;
use wcoj_query::Database;
use wcoj_storage::simd;
use wcoj_storage::Relation;

#[test]
fn complete_graph_triangles_agree_at_every_level() {
    const N: u64 = 128;
    let mut db = Database::new();
    let pairs = (0..N).flat_map(|a| (0..N).map(move |b| (a, b)));
    db.insert("E", Relation::from_pairs("src", "dst", pairs));
    let query = examples::clique(3);
    let plan = plan(&query, &db, None).expect("planner");
    let run = |engine| run(&query, &db, &plan, &ExecOptions::new(engine), None).expect("execute");
    let baseline = run(Engine::BinaryHash);
    assert_eq!(baseline.result.len() as u64, N * N * N);
    for engine in [Engine::GenericJoin, Engine::Leapfrog] {
        let mut first_work = None;
        for level in simd::runnable_levels() {
            simd::force_active_level(level);
            let out = run(engine);
            let cfg = format!("{engine:?} at {level:?}");
            assert_eq!(out.result, baseline.result, "{cfg}: rows");
            // every kernel call ran on the layouts
            assert!(out.work.kernel_bitmap() > 0, "{cfg}");
            assert_eq!(out.work.kernel_calls(), out.work.kernel_bitmap(), "{cfg}");
            match &first_work {
                Some(work) => assert_eq!(&out.work, work, "{cfg}: work counters"),
                None => first_work = Some(out.work),
            }
        }
    }
}
