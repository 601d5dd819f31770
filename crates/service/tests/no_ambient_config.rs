//! The service is a function of its `ServiceConfig` and the calls made on it:
//! nothing the process inherits — the four `WCOJ_*` variables the library used
//! to resolve inside `ServiceConfig::default()` — can arm a fault, shrink a
//! segment, stretch a commit or switch tracing on.
//!
//! This file holds exactly one test so it owns its process: the variables are
//! set before the first `default()`.

use wcoj_query::{query::examples, Database};
use wcoj_service::{QueryService, ServiceConfig, WriteBatch};
use wcoj_storage::{DeltaRelation, FaultPlan, Schema, DEFAULT_SEGMENT_BYTES};

#[test]
fn default_config_is_a_constant_and_the_service_reads_no_environment() {
    std::env::set_var("WCOJ_FAULT", "fsync_fail:1");
    std::env::set_var("WCOJ_WAL_SEGMENT_BYTES", "1");
    std::env::set_var("WCOJ_GROUP_COMMIT_US", "999999");
    std::env::set_var("WCOJ_SLOW_QUERY_MS", "0");

    let config = ServiceConfig::default();
    assert_eq!(config.fault, FaultPlan::default());
    assert_eq!(config.segment_bytes, DEFAULT_SEGMENT_BYTES);
    assert_eq!(config.slow_query, None);

    let dir = std::env::temp_dir().join(format!("wcoj-no-ambient-cfg-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let mut db = Database::new();
    for (name, cols) in [("R", ["a", "b"]), ("S", ["b", "c"]), ("T", ["a", "c"])] {
        db.insert_delta_relation(name, DeltaRelation::new(Schema::new(&cols)));
    }
    let (service, _) = QueryService::open(&dir, db, config).expect("open");
    for (name, tuple) in [("R", [1, 2]), ("S", [2, 3]), ("T", [1, 3])] {
        let batch = WriteBatch::new().insert(name, tuple.to_vec()).seal(name);
        service.apply(&batch).expect("no fault is armed");
    }
    let out = service.query(&examples::triangle()).expect("query");
    assert_eq!(out.result.len(), 1, "the (1, 2, 3) triangle");
    assert!(service.slow_queries().is_empty(), "tracing was never on");

    let files: Vec<_> = std::fs::read_dir(&dir)
        .expect("log directory")
        .map(|e| e.expect("entry").file_name())
        .collect();
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(files, ["wal.000001"], "one segment, no rotation");
}
