//! Rows and work counters are a function of `(query, database, options)`:
//! nothing the process inherits — a home directory, the retired `WCOJ_TUNE*`
//! and per-threshold variables — can move them, and executing a query writes
//! nothing to disk.
//!
//! This file holds exactly one test so it owns its process: the variables are
//! set before the first execution, which is when a host calibration would have
//! been resolved (once per process) and its cache file written.

use wcoj_core::exec::{execute_opts, Engine, ExecOptions, KernelCalibration};
use wcoj_workloads::triangle_skewed;

#[test]
fn default_options_ignore_home_and_the_retired_tuning_variables() {
    let home = std::env::temp_dir().join(format!("wcoj-no-ambient-{}", std::process::id()));
    std::fs::remove_dir_all(&home).ok();
    std::fs::create_dir_all(&home).expect("temp home");
    std::env::set_var("HOME", &home);
    std::env::set_var("WCOJ_TUNE_FILE", home.join("tune.json"));
    std::env::set_var("WCOJ_MERGE_MAX_RATIO", "1");
    std::env::set_var("WCOJ_LINEAR_SEEK_MAX", "1");

    // skewed lists, so the merge/gallop ratio and the seek cutoff both matter
    let w = triangle_skewed(2_000, 64, 1.2, 0xA3B1);
    let runs = [Engine::GenericJoin, Engine::Leapfrog].map(|engine| {
        let default = ExecOptions::new(engine);
        let fixed = default.with_calibration(KernelCalibration::fixed());
        (
            engine,
            execute_opts(&w.query, &w.db, &default).expect("default options"),
            execute_opts(&w.query, &w.db, &fixed).expect("explicit fixed()"),
        )
    });
    let left_behind: Vec<_> = std::fs::read_dir(&home)
        .expect("temp home still there")
        .map(|e| e.expect("entry").file_name())
        .collect();
    std::fs::remove_dir_all(&home).ok();

    for (engine, default, fixed) in runs {
        assert!(
            !default.result.is_empty(),
            "fixture should produce triangles"
        );
        assert_eq!(default.result, fixed.result, "{engine:?} rows");
        assert_eq!(default.work, fixed.work, "{engine:?} work counters");
    }
    assert!(
        left_behind.is_empty(),
        "executing wrote {left_behind:?} under $HOME"
    );
}
