//! Whole-suite modes: every workload in a fresh child process each (so peak
//! memory, allocator state and the access cache do not leak from one workload
//! into the next), and the repeatability self-check.

use std::process::{Command, Stdio};

use wcoj_obs::json::Json;

use crate::report::END_TO_END;
use crate::run::err;
use crate::stats::{median, quartile_spread};
use crate::Workload;

/// Per-layer metrics that are counts of work the seed fixes: they must repeat
/// bit for bit for one seed.
const EXACT: [&str; 17] = [
    "service.admitted",
    "core.exec.total_work",
    "core.exec.work_per_row",
    "core.exec.work_over_agm",
    "storage.kernels.merge",
    "storage.kernels.gallop",
    "storage.kernels.bitmap",
    "storage.cache.hit_ratio",
    "storage.cache.misses",
    "storage.cache.incremental_merges",
    "storage.cache.evictions",
    "storage.delta.runs_end",
    "storage.delta.merge_work_per_query",
    "storage.wal.fsyncs",
    "storage.wal.bytes_per_user_byte",
    "storage.wal.checkpoints",
    "trace.requests",
];

/// The result line of one child run.
struct Outcome {
    line: String,
    correct: bool,
    metrics: Vec<(String, f64)>,
}

impl Outcome {
    fn value(&self, name: &str) -> f64 {
        let found = self.metrics.iter().find(|(n, _)| n == name);
        found.map_or(f64::NAN, |(_, v)| *v)
    }
}

/// Run one workload in a child process and wait for it.
fn child(
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
) -> Result<Outcome, String> {
    let mut command = Command::new(std::env::current_exe().map_err(err)?);
    command
        .args(["--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(Stdio::inherit());
    if smoke {
        command.arg("--smoke");
    }
    let output = command.output().map_err(err)?;
    let stdout = String::from_utf8(output.stdout).map_err(err)?;
    let line = stdout
        .lines()
        .last()
        .ok_or_else(|| format!("{} printed no result", workload.name()))?;
    let doc = Json::parse(line).ok_or_else(|| format!("unparsable result: {line}"))?;
    let Some(Json::Obj(metrics)) = doc.get("metrics") else {
        return Err(format!("result without metrics: {line}"));
    };
    Ok(Outcome {
        line: line.to_string(),
        correct: doc.get("correct") == Some(&Json::Bool(true)),
        metrics: metrics
            .iter()
            .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
            .collect(),
    })
}

/// Every workload, end to end and traced, as one JSON document. `Ok(false)`
/// when any run was incorrect.
pub fn run_all(seed: u64, seconds: f64, smoke: bool) -> Result<bool, String> {
    let mut all_correct = true;
    println!("{{\"seed\": {seed}, \"seconds\": {seconds}, \"workloads\": {{");
    for (i, workload) in Workload::ALL.into_iter().enumerate() {
        let end_to_end = child(workload, seed, seconds, false, smoke)?;
        let per_layer = child(workload, seed, seconds, true, smoke)?;
        all_correct &= end_to_end.correct && per_layer.correct;
        println!(
            "\"{}\": {{\"end_to_end\": {}, \"per_layer\": {}}}{}",
            workload.name(),
            end_to_end.line,
            per_layer.line,
            if i + 1 < Workload::ALL.len() { "," } else { "" }
        );
    }
    println!("}}}}");
    Ok(all_correct)
}

/// The repeatability self-check, by the rule the benchmark is accepted by:
/// `sets` end-to-end runs per workload, each with another seed, whose
/// interquartile spread must stay within each metric's bound (`setup_s` and
/// undeclared workloads excepted); and two traced runs of one seed whose
/// counts must be identical, against a third of another seed whose work must
/// differ. Prints markdown tables; `Ok(false)` on any breach.
pub fn repeat(sets: usize, seed: u64, seconds: f64, smoke: bool) -> Result<bool, String> {
    if sets < 2 {
        return Err("--repeat needs at least 2 sets".to_string());
    }
    let mut ok = true;
    println!("| workload | metric | min | median | max | IQR/median | bound | within |");
    println!("|---|---|---|---|---|---|---|---|");
    for workload in Workload::ALL {
        let mut runs = Vec::with_capacity(sets);
        for i in 0..sets as u64 {
            let run = child(workload, seed + i, seconds, false, smoke)?;
            ok &= run.correct;
            runs.push(run);
        }
        for (name, _, bound) in END_TO_END {
            let values: Vec<f64> = runs.iter().map(|r| r.value(name)).collect();
            let spread = quartile_spread(&values);
            let gated = workload.declared() && name != "setup_s";
            let within = spread <= bound;
            ok &= within || !gated;
            println!(
                "| {} | {name} | {:.4} | {:.4} | {:.4} | {spread:.4} | {bound} | {} |",
                workload.name(),
                values.iter().copied().fold(f64::INFINITY, f64::min),
                median(&values),
                values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
                match (within, gated) {
                    (true, _) => "yes",
                    (false, true) => "NO",
                    (false, false) => "no (not gated)",
                }
            );
        }
    }
    println!();
    println!("| workload | counts identical for one seed | work differs for another |");
    println!("|---|---|---|");
    for workload in Workload::ALL {
        let first = child(workload, seed, seconds, true, smoke)?;
        let again = child(workload, seed, seconds, true, smoke)?;
        let other = child(workload, seed + 1, seconds, true, smoke)?;
        ok &= first.correct && again.correct && other.correct;
        let moved: Vec<&str> = EXACT
            .into_iter()
            .filter(|m| first.value(m).to_bits() != again.value(m).to_bits())
            .collect();
        // a workload without queries does no join work under any seed
        let work = "core.exec.total_work";
        let differs = first.value(work) == 0.0 || first.value(work) != other.value(work);
        ok &= moved.is_empty() && differs;
        println!(
            "| {} | {} | {} |",
            workload.name(),
            if moved.is_empty() {
                "yes".to_string()
            } else {
                format!("NO: {}", moved.join(", "))
            },
            if differs { "yes" } else { "NO" }
        );
    }
    Ok(ok)
}
