//! `--smoke` runs of every workload, end to end and traced: small inputs, a
//! short window, the same code paths.

use wcoj_obs::json::Json;

use crate::report::{END_TO_END, PER_LAYER};
use crate::spans::{check_nesting, Span};
use crate::{run_one, RunConfig, Workload};

fn smoke(workload: Workload, trace: bool) -> RunConfig {
    RunConfig {
        workload,
        seed: 0xC0FFEE,
        seconds: 0.3,
        trace,
        smoke: true,
        trace_out: None,
    }
}

/// Every declared metric appears exactly once, by its declared name, and
/// nothing failed.
fn assert_result(cfg: &RunConfig, names: &[&str]) {
    let result = run_one(cfg).unwrap();
    assert!(result.attempted > 0, "{cfg:?}");
    assert_eq!(
        (result.failed, &result.problems),
        (0, &Vec::new()),
        "{cfg:?}"
    );
    let line = result.to_json(cfg.trace).unwrap();
    for name in names {
        assert_eq!(line.matches(&format!("\"{name}\":")).count(), 1, "{name}");
    }
    let doc = Json::parse(&line).expect("the result line is JSON");
    let Some(Json::Obj(metrics)) = doc.get("metrics") else {
        panic!("no metrics in {line}")
    };
    assert_eq!(metrics.len(), names.len());
    assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
}

#[test]
fn every_workload_reports_every_end_to_end_metric() {
    let names: Vec<&str> = END_TO_END.iter().map(|m| m.0).collect();
    for workload in Workload::ALL {
        assert_result(&smoke(workload, false), &names);
    }
}

#[test]
fn every_workload_reports_every_per_layer_metric() {
    let names: Vec<&str> = PER_LAYER.iter().map(|m| m.0).collect();
    for workload in Workload::ALL {
        assert_result(&smoke(workload, true), &names);
    }
}

/// The spans written by `--trace-out` form one well-nested tree per request.
#[test]
fn written_spans_are_well_nested_and_share_a_request_id() {
    let dir = crate::host::TempDir::new("spans").unwrap();
    for workload in [Workload::SocialDecode, Workload::StreamMixed] {
        let path = dir.path().join(workload.name());
        let cfg = RunConfig {
            trace_out: Some(path.clone()),
            ..smoke(workload, true)
        };
        run_one(&cfg).unwrap();
        let spans: Vec<Span> = std::fs::read_to_string(&path)
            .unwrap()
            .lines()
            .map(|line| {
                let doc = Json::parse(line).expect("one JSON object per line");
                let num = |key| doc.get(key).and_then(Json::as_u64);
                Span {
                    name: Box::leak(doc.get("name").unwrap().as_str().unwrap().into()),
                    request: num("request").unwrap(),
                    parent: num("parent").map(|p| p as usize),
                    start_ns: num("start_ns").unwrap(),
                    end_ns: num("end_ns").unwrap(),
                }
            })
            .collect();
        assert_eq!(check_nesting(&spans), Ok(()));
        let roots = spans.iter().filter(|s| s.parent.is_none()).count();
        assert!(roots >= 2 && spans.len() > 3 * roots, "{}", workload.name());
        if workload == Workload::StreamMixed {
            for name in ["write", "storage.wal.fsync", "query", "core.exec.join"] {
                assert!(spans.iter().any(|s| s.name == name), "{name}");
            }
        } else {
            assert!(spans.iter().any(|s| s.name == "storage.typed"));
        }
    }
}
