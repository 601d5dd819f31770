//! Reporting for the experiment binaries and benchmarks: fixed-width plain-text
//! tables for eyeballing/diffing, and a JSON emitter so the perf
//! trajectory (`BENCH_joins.json`) is machine-readable across PRs.

use wcoj_obs::json::{escape as json_escape, num as json_f64, Json};
use wcoj_storage::simd;
use wcoj_storage::topology::available_cpus;

/// One row of an experiment table: a label plus numeric cells.
#[derive(Debug, Clone)]
pub struct Row {
    /// Row label (e.g. the parameter setting).
    pub label: String,
    /// Numeric cells, one per column.
    pub cells: Vec<f64>,
}

/// A plain-text table with a title, column headers, and rows; printed in a fixed-width
/// layout so experiment output is easy to diff against `EXPERIMENTS.md`.
#[derive(Debug, Clone)]
pub struct ExperimentTable {
    /// Table title (e.g. "E1: AGM bound for the triangle query").
    pub title: String,
    /// Column headers (not counting the leading label column).
    pub columns: Vec<String>,
    /// Table rows.
    pub rows: Vec<Row>,
}

impl ExperimentTable {
    /// Create an empty table.
    pub fn new(title: impl Into<String>, columns: &[&str]) -> Self {
        ExperimentTable {
            title: title.into(),
            columns: columns.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row.
    pub fn push(&mut self, label: impl Into<String>, cells: Vec<f64>) {
        self.rows.push(Row {
            label: label.into(),
            cells,
        });
    }

    /// Render the table as a string.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.title));
        let label_w = self
            .rows
            .iter()
            .map(|r| r.label.len())
            .chain(std::iter::once(12))
            .max()
            .unwrap_or(12);
        out.push_str(&format!("{:label_w$}", ""));
        for c in &self.columns {
            out.push_str(&format!(" {:>16}", c));
        }
        out.push('\n');
        for r in &self.rows {
            out.push_str(&format!("{:label_w$}", r.label));
            for v in &r.cells {
                if v.abs() >= 1e6 || (*v != 0.0 && v.abs() < 1e-3) {
                    out.push_str(&format!(" {:>16.3e}", v));
                } else {
                    out.push_str(&format!(" {:>16.3}", v));
                }
            }
            out.push('\n');
        }
        out
    }

    /// Print the table to stdout.
    pub fn print(&self) {
        println!("{}", self.render());
    }
}

/// One benchmark measurement: a workload/engine configuration with its
/// wall-clock time and work-counter tallies. Serialized into `BENCH_joins.json`,
/// whose rows are all serial.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRecord {
    /// Workload identifier (e.g. `uniform_n16384`).
    pub workload: String,
    /// Engine name (e.g. `GenericJoin`).
    pub engine: String,
    /// Worker thread count: 1, as the executor is serial (a column of the
    /// recorded file).
    pub threads: usize,
    /// Median wall-clock milliseconds across the timed iterations.
    pub median_ms: f64,
    /// Output tuple count.
    pub out_tuples: u64,
    /// AGM tuple bound for the instance.
    pub agm_bound: f64,
    /// Work-counter tallies: (name, value) pairs.
    pub work: Vec<(String, u64)>,
}

impl BenchRecord {
    /// Look up one work tally by name.
    pub fn work_value(&self, name: &str) -> Option<u64> {
        self.work.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }
}

/// The host the running process measures on, as one JSON object: the CPUs it
/// may run on, the SIMD level the kernels dispatch to, and whether set layouts
/// decode with the VBMI2 body at that level.
pub fn host_json() -> String {
    let level = simd::active_level();
    format!(
        "{{\"available_cpus\": {}, \"simd_level\": \"{level:?}\", \"decode_vbmi2\": {}}}",
        available_cpus(),
        simd::decode_vbmi2(level)
    )
}

/// Render benchmark records as a pretty-printed JSON document, under a
/// `"host"` line holding `host` (see [`host_json`]).
pub fn render_bench_json(command: &str, host: &str, records: &[BenchRecord]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!(
        "  \"generated_by\": \"{}\",\n",
        json_escape(command)
    ));
    out.push_str(&format!("  \"host\": {host},\n"));
    out.push_str("  \"runs\": [\n");
    for (i, r) in records.iter().enumerate() {
        out.push_str("    {");
        out.push_str(&format!("\"workload\": \"{}\", ", json_escape(&r.workload)));
        out.push_str(&format!("\"engine\": \"{}\", ", json_escape(&r.engine)));
        out.push_str(&format!("\"threads\": {}, ", r.threads));
        out.push_str(&format!("\"median_ms\": {}, ", json_f64(r.median_ms)));
        out.push_str(&format!("\"out_tuples\": {}, ", r.out_tuples));
        out.push_str(&format!("\"agm_bound\": {}, ", json_f64(r.agm_bound)));
        out.push_str("\"work\": {");
        for (j, (name, value)) in r.work.iter().enumerate() {
            out.push_str(&format!("\"{}\": {}", json_escape(name), value));
            if j + 1 < r.work.len() {
                out.push_str(", ");
            }
        }
        out.push_str("}}");
        out.push_str(if i + 1 < records.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

/// Parse a `BENCH_joins.json` document produced by [`render_bench_json`] back
/// into records — the reader behind the CI perf-regression gate, on the
/// workspace's one JSON parser ([`Json`]). One record per `{"workload": …}`
/// line, every other line (the host's among them) skipped; `parse(render(r))
/// == r` is property-tested below. Returns `None` for documents this emitter
/// did not produce.
pub fn parse_bench_json(doc: &str) -> Option<Vec<BenchRecord>> {
    let mut records = Vec::new();
    for line in doc.lines().map(str::trim) {
        if !line.starts_with("{\"workload\"") {
            continue;
        }
        let run = Json::parse(line.trim_end_matches(','))?;
        let Json::Obj(work) = run.get("work")? else {
            return None;
        };
        // `Json` sorts object keys; a record keeps its tallies in the order
        // they were written (the work object closes the line, so the last
        // occurrence of a quoted key is its own)
        let mut work: Vec<_> = work.iter().collect();
        work.sort_by_cached_key(|(name, _)| line.rfind(&format!("\"{}\":", json_escape(name))));
        records.push(BenchRecord {
            workload: run.get("workload")?.as_str()?.to_string(),
            engine: run.get("engine")?.as_str()?.to_string(),
            threads: run.get("threads")?.as_u64()? as usize,
            median_ms: run.get("median_ms")?.as_f64().unwrap_or(f64::NAN),
            out_tuples: run.get("out_tuples")?.as_u64()?,
            agm_bound: run.get("agm_bound")?.as_f64().unwrap_or(f64::NAN),
            work: work
                .into_iter()
                .map(|(name, v)| Some((name.clone(), v.as_u64()?)))
                .collect::<Option<_>>()?,
        });
    }
    (!records.is_empty()).then_some(records)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_contains_title_headers_and_cells() {
        let mut t = ExperimentTable::new("demo", &["N", "bound"]);
        t.push("case-1", vec![1000.0, 31.6]);
        let s = t.render();
        assert!(s.contains("demo"));
        assert!(s.contains("bound"));
        assert!(s.contains("case-1"));
        assert!(s.contains("31.6"));
    }

    #[test]
    fn large_values_use_scientific_notation() {
        let mut t = ExperimentTable::new("demo", &["big"]);
        t.push("row", vec![1.0e9]);
        assert!(t.render().contains('e'));
    }

    #[test]
    fn bench_json_is_well_formed() {
        let records = vec![BenchRecord {
            workload: "uniform_n1024".into(),
            engine: "GenericJoin".into(),
            threads: 4,
            median_ms: 1.25,
            out_tuples: 2783,
            agm_bound: 27616.56,
            work: vec![("probes".into(), 123), ("output_tuples".into(), 2783)],
        }];
        let s = render_bench_json("perf_gate --record", &host_json(), &records);
        assert!(s.contains("\"workload\": \"uniform_n1024\""));
        assert!(s.contains("\"host\": {\"available_cpus\": "));
        assert!(s.contains("\"threads\": 4"));
        assert!(s.contains("\"probes\": 123"));
        // balanced braces/brackets (crude well-formedness check without a parser)
        assert_eq!(s.matches('{').count(), s.matches('}').count());
        assert_eq!(s.matches('[').count(), s.matches(']').count());
    }

    #[test]
    fn json_escaping_handles_specials() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_f64(f64::NAN), "null");
        assert_eq!(json_f64(2.5), "2.5");
    }

    #[test]
    fn parse_round_trips_render() {
        let records = vec![
            BenchRecord {
                workload: "uniform_n1024".into(),
                engine: "GenericJoin".into(),
                threads: 1,
                median_ms: 1.25,
                out_tuples: 2783,
                agm_bound: 27616.5,
                work: vec![
                    ("probes".into(), 123),
                    ("total_work".into(), 456),
                    ("kernel_bitmap".into(), 7),
                ],
            },
            BenchRecord {
                workload: "zipf_n4096".into(),
                engine: "Leapfrog".into(),
                threads: 4,
                median_ms: 0.5,
                out_tuples: 0,
                agm_bound: 1.0,
                work: vec![],
            },
        ];
        let doc = render_bench_json("cmd", &host_json(), &records);
        let parsed = parse_bench_json(&doc).expect("parses");
        assert_eq!(parsed, records);
        assert_eq!(parsed[0].work_value("total_work"), Some(456));
        assert_eq!(parsed[0].work_value("missing"), None);
        assert!(parse_bench_json("not json").is_none());
    }
}
