//! The metric names and units `BENCHMARK.json` declares, and the result line
//! every run ends with.

use std::collections::BTreeMap;

/// End-to-end metrics, printed by every workload with `--trace 0`: name, unit
/// and the share of the parent's median by which the metric may get worse.
pub const END_TO_END: [(&str, &str, f64); 4] = [
    ("setup_s", "s", 0.25),
    ("request_p50_ms", "ms", 0.25),
    ("ops_per_s", "1/s", 0.25),
    ("peak_rss_mb", "MiB", 0.25),
];

/// Per-layer metrics (layer = crate.module), printed by every workload with
/// `--trace 1`; a metric a workload has no samples for reads 0.
pub const PER_LAYER: [(&str, &str); 56] = [
    ("service.overhead_us_p50", "us"),
    ("service.write_overhead_us_p50", "us"),
    ("service.admitted", "count"),
    ("service.shed", "count"),
    ("service.group.commit_wait_us_mean", "us"),
    ("service.group.batches_per_fsync_mean", "count"),
    ("service.query_p50_us", "us"),
    ("service.query_p95_us", "us"),
    ("service.write_p50_us", "us"),
    ("service.write_p95_us", "us"),
    ("service.write_steady_us_p50", "us"),
    ("service.reopen_ms", "ms"),
    ("query.snapshot.clone_us_p50", "us"),
    ("query.snapshot.cow_write_us_p50", "us"),
    ("query.database.apply_us_p50", "us"),
    ("query.database.apply_us_mean", "us"),
    ("core.planner.plan_us_p50", "us"),
    ("core.exec.build_us_p50", "us"),
    ("core.exec.join_us_p50", "us"),
    ("core.exec.materialize_us_p50", "us"),
    ("core.exec.total_work", "count"),
    ("core.exec.work_per_row", "count"),
    ("core.exec.work_over_agm", "ratio"),
    ("storage.kernels.merge", "count"),
    ("storage.kernels.gallop", "count"),
    ("storage.kernels.bitmap", "count"),
    ("storage.cache.hit_ratio", "ratio"),
    ("storage.cache.misses", "count"),
    ("storage.cache.incremental_merges", "count"),
    ("storage.cache.evictions", "count"),
    ("storage.cache.resident_bytes", "bytes"),
    ("storage.access.cold_build_us_p50", "us"),
    ("storage.typed.decode_us_p50", "us"),
    ("storage.typed.decode_ns_per_row", "ns"),
    ("storage.delta.runs_end", "count"),
    ("storage.delta.merge_work_per_query", "count"),
    ("storage.wal.append_us_p50", "us"),
    ("storage.wal.fsync_us_p50", "us"),
    ("storage.wal.fsync_us_mean", "us"),
    ("storage.wal.fsyncs", "count"),
    ("storage.wal.bytes_per_user_byte", "ratio"),
    ("storage.wal.disk_bytes_end", "bytes"),
    ("storage.wal.checkpoints", "count"),
    ("storage.wal.checkpoint_us_mean", "us"),
    ("storage.wal.segments_deleted", "count"),
    ("storage.wal.recovery_install_us", "us"),
    ("storage.wal.recovery_replay_us", "us"),
    ("storage.wal.recovery_tail_batches", "count"),
    ("host.nproc", "count"),
    ("host.simd_level", "code"),
    ("host.fsync_probe_us", "us"),
    ("host.tmp_is_tmpfs", "bool"),
    ("trace.coverage", "ratio"),
    ("trace.write_coverage", "ratio"),
    ("trace.overhead_frac", "ratio"),
    ("trace.requests", "count"),
];

/// Metric values by name, filled while a run proceeds.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// What one run of one workload found.
#[derive(Debug)]
pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    /// Problems that are not a failed request (an invalid decomposition, a
    /// catalog that differs after reopen); any of them makes the run incorrect.
    pub problems: Vec<String>,
    pub metrics: Metrics,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    /// The result line: exactly `correct`, `attempted`, `failed`, `metrics`,
    /// with every per-layer (`trace`) or end-to-end metric in its table's
    /// order. A layer the workload does not reach reads 0; an end-to-end
    /// metric that was not measured is a bug in the benchmark.
    pub fn to_json(&self, trace: bool) -> Result<String, String> {
        let table = if trace {
            PER_LAYER.to_vec()
        } else {
            END_TO_END.iter().map(|&(n, u, _)| (n, u)).collect()
        };
        let mut fields = Vec::with_capacity(table.len());
        for (name, unit) in table {
            let value = match self.metrics.get(name) {
                Some(v) if v.is_finite() => v,
                Some(v) => return Err(format!("metric {name} is {v}")),
                None if trace => 0.0,
                None => return Err(format!("metric {name} was not measured")),
            };
            fields.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            fields.join(", ")
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wcoj_obs::json::Json;

    /// `BENCHMARK.json` and the tables above name the same metrics with the
    /// same units, in the same order, each once, in the allowed alphabet.
    #[test]
    fn tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        let declared = |key: &str| -> Vec<(String, String, Option<f64>)> {
            let list = doc.get(key).and_then(Json::as_arr).expect("metric list");
            list.iter()
                .map(|m| {
                    let field = |k| m.get(k).and_then(Json::as_str).expect(k).to_string();
                    let bound = m.get("bound").and_then(Json::as_f64);
                    (field("name"), field("unit"), bound)
                })
                .collect()
        };
        let ours = |name: &str, unit: &str, bound| (name.to_string(), unit.to_string(), bound);
        assert_eq!(
            declared("end_to_end"),
            Vec::from_iter(END_TO_END.iter().map(|&(n, u, b)| ours(n, u, Some(b))))
        );
        assert_eq!(
            declared("per_layer"),
            Vec::from_iter(PER_LAYER.iter().map(|&(n, u)| ours(n, u, None)))
        );
        let per_layer = PER_LAYER.iter().map(|m| m.0);
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.0).chain(per_layer).collect();
        assert!(names.iter().all(|n| n.len() <= 64
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))));
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), END_TO_END.len() + PER_LAYER.len());
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
            .collect();
        let declared = crate::Workload::ALL.iter().filter(|w| w.declared());
        assert_eq!(workloads, Vec::from_iter(declared.map(|w| w.name())));
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut metrics = Metrics::default();
        for (i, (name, ..)) in END_TO_END.iter().enumerate() {
            metrics.set(name, 1.5 + i as f64);
        }
        let result = RunResult {
            attempted: 10,
            failed: 0,
            problems: Vec::new(),
            metrics,
        };
        let line = result.to_json(false).unwrap();
        let Json::Obj(doc) = Json::parse(&line).unwrap() else {
            panic!("not an object")
        };
        let keys: Vec<&str> = doc.keys().map(String::as_str).collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(doc["correct"], Json::Bool(true));
        assert_eq!(
            doc["metrics"].get("setup_s").unwrap().get("unit"),
            Some(&Json::Str("s".into()))
        );
        // an end-to-end metric that was not measured is refused, not zeroed
        let unmeasured = RunResult {
            metrics: Metrics::default(),
            ..result
        };
        assert!(unmeasured.to_json(false).is_err());
        assert!(unmeasured.to_json(true).is_ok());
    }
}
