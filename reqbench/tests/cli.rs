//! The binary as the driver and a user run it.

use std::path::Path;
use std::process::{Command, Output};

use wcoj_obs::json::Json;

const BIN: &str = env!("CARGO_BIN_EXE_reqbench");

fn reqbench(args: &[&str]) -> Output {
    Command::new(BIN).args(args).output().unwrap()
}

fn scratch_dirs() -> Vec<String> {
    let beside = Path::new(BIN).parent().unwrap();
    std::fs::read_dir(beside)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|name| name.starts_with("reqbench-tmp-"))
        .collect()
}

#[test]
fn one_command_prints_every_workload_and_cleans_up() {
    let out = reqbench(&["--seed", "5", "--seconds", "0.2", "--smoke"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let doc = Json::parse(std::str::from_utf8(&out.stdout).unwrap()).expect("one JSON document");
    let Some(Json::Obj(workloads)) = doc.get("workloads") else {
        panic!("no workloads")
    };
    let mut names: Vec<&str> = workloads.keys().map(String::as_str).collect();
    names.sort_unstable();
    assert_eq!(
        names,
        [
            "needle_cached",
            "social_decode",
            "stream_mixed",
            "triangle_join"
        ]
    );
    for (name, passes) in workloads {
        for pass in ["end_to_end", "per_layer"] {
            let result = passes.get(pass).unwrap();
            assert_eq!(
                result.get("correct"),
                Some(&Json::Bool(true)),
                "{name} {pass}"
            );
            assert_eq!(result.get("failed").and_then(Json::as_u64), Some(0));
        }
    }
    assert_eq!(scratch_dirs(), Vec::<String>::new());
}

#[test]
fn a_wcoj_variable_is_refused_before_anything_runs() {
    let out = Command::new(BIN)
        .args(["--workload", "stream_ingest", "--seed", "1", "--smoke"])
        .env("WCOJ_WAL_SEGMENT_BYTES", "4096")
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "no result may be printed");
    assert!(String::from_utf8_lossy(&out.stderr).contains("WCOJ_WAL_SEGMENT_BYTES"));
}

#[test]
fn bad_arguments_exit_with_usage() {
    for args in [
        &["--workload", "triangle_join"][..],
        &["--seed", "x"],
        &["--bogus"],
    ] {
        let out = reqbench(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(String::from_utf8_lossy(&out.stderr).contains("usage:"));
    }
}
