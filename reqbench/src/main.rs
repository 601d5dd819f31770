//! `reqbench` — the request-level benchmark of `wcoj_service::QueryService`,
//! decomposed by layer. See `README.md` beside `Cargo.toml`.
//!
//! One closed-loop client thread drives the service through its public API
//! the way an embedding application would. `--workload` runs one workload in
//! this process and ends with one result line; without it every workload runs
//! in a fresh child process each, end to end and traced; `--repeat N` runs
//! the repeatability self-check.

mod host;
mod oracle;
mod readonly;
mod report;
mod run;
#[cfg(test)]
mod smoke;
mod spans;
mod stats;
mod stream;
mod suite;

use std::path::PathBuf;
use std::process::ExitCode;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    TriangleJoin,
    NeedleCached,
    SocialDecode,
    StreamMixed,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::TriangleJoin,
        Workload::NeedleCached,
        Workload::SocialDecode,
        Workload::StreamMixed,
    ];

    /// Whether `BENCHMARK.json` lists the workload, so that later changes are
    /// accepted or refused by its numbers. `stream_mixed` is not listed: on
    /// the shared host the baseline was taken on, its latency follows the
    /// neighbours' disk and memory traffic (runs of one commit differ by up to
    /// 2×), and no bound it could hold would refuse anything.
    pub fn declared(self) -> bool {
        self != Workload::StreamMixed
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::TriangleJoin => "triangle_join",
            Workload::NeedleCached => "needle_cached",
            Workload::SocialDecode => "social_decode",
            Workload::StreamMixed => "stream_mixed",
        }
    }
}

/// One run of one workload.
#[derive(Debug, Clone)]
pub struct RunConfig {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    /// Report per-layer metrics from a staged pass instead of end-to-end ones.
    pub trace: bool,
    /// Inputs ÷ 8 and request counts ÷ 100, for the tests.
    pub smoke: bool,
    pub trace_out: Option<PathBuf>,
}

impl RunConfig {
    /// Rows per relation / edges in the window.
    pub fn n(&self) -> usize {
        if self.smoke {
            2048
        } else {
            16384
        }
    }

    /// A fixed request count at full scale, ÷ 100 (at least 2) under `--smoke`.
    pub fn scaled(&self, count: u64) -> u64 {
        if self.smoke {
            count.div_ceil(100).max(2)
        } else {
            count
        }
    }

    /// The request count of a traced pass: `per_second × --seconds`.
    pub fn count(&self, per_second: f64) -> u64 {
        self.scaled((per_second * self.seconds).ceil() as u64)
    }
}

/// Everything the command line can say.
struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    trace_out: Option<PathBuf>,
    repeat: Option<usize>,
}

const USAGE: &str = "usage: reqbench --seed <u64> [--workload <name>] [--seconds <n>] \
[--trace <0|1>] [--trace-out <file>] [--smoke] [--repeat <n>]";

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 0,
        seconds: 10.0,
        trace: false,
        smoke: false,
        trace_out: None,
        repeat: None,
    };
    let mut seed = None;
    while let Some(flag) = args.next() {
        if flag == "--smoke" {
            parsed.smoke = true;
            continue;
        }
        let value = args
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        let bad = || format!("bad value {value:?} for {flag}\n{USAGE}");
        match flag.as_str() {
            "--workload" => {
                let found = Workload::ALL.into_iter().find(|w| w.name() == value);
                parsed.workload = Some(found.ok_or_else(bad)?);
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => {
                parsed.seconds = value.parse().map_err(|_| bad())?;
                if !(parsed.seconds > 0.0 && parsed.seconds <= 60.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--trace-out" => parsed.trace_out = Some(PathBuf::from(&value)),
            "--repeat" => parsed.repeat = Some(value.parse().map_err(|_| bad())?),
            _ => return Err(format!("unknown argument {flag}\n{USAGE}")),
        }
    }
    parsed.seed = seed.ok_or_else(|| format!("--seed is required\n{USAGE}"))?;
    Ok(parsed)
}

/// Set up, drive and check one workload.
pub fn run_one(cfg: &RunConfig) -> Result<report::RunResult, String> {
    match cfg.workload {
        Workload::StreamMixed => stream::run(cfg),
        _ => readonly::run(cfg),
    }
}

/// Run one workload in this process. Prints a header line, a diagnostics
/// line and, last, the result line; `Ok(false)` when the run was incorrect.
pub fn run_workload(cfg: &RunConfig) -> Result<bool, String> {
    println!(
        "{{\"reqbench\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"smoke\": {}, \"git_commit\": \"{}\", \"rustc\": \"{}\", \"nproc\": {}, \
         \"simd_level\": {}}}}}",
        cfg.workload.name(),
        cfg.seed,
        cfg.seconds,
        cfg.trace,
        cfg.smoke,
        host::tool_line("git", &["rev-parse", "HEAD"]),
        host::tool_line("rustc", &["-V"]),
        host::nproc(),
        host::simd_level_code(),
    );
    let result = run_one(cfg)?;
    for problem in &result.problems {
        eprintln!("reqbench: {problem}");
    }
    println!("{}", result.to_json(cfg.trace)?);
    Ok(result.correct())
}

fn real_main() -> Result<bool, String> {
    host::refuse_wcoj_env()?;
    let args = parse_args(std::env::args().skip(1))?;
    match (args.workload, args.repeat) {
        (Some(workload), None) => run_workload(&RunConfig {
            workload,
            seed: args.seed,
            seconds: args.seconds,
            trace: args.trace,
            smoke: args.smoke,
            trace_out: args.trace_out,
        }),
        (None, None) => suite::run_all(args.seed, args.seconds, args.smoke),
        (None, Some(sets)) => suite::repeat(sets, args.seed, args.seconds, args.smoke),
        (Some(_), Some(_)) => Err(format!("--repeat runs every workload\n{USAGE}")),
    }
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("reqbench: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        parse_args(line.split_whitespace().map(str::to_string))
    }

    #[test]
    fn arguments_are_checked_where_they_enter() {
        let args = parse("--workload needle_cached --seed 7 --seconds 3 --trace 1").unwrap();
        assert_eq!(args.workload, Some(Workload::NeedleCached));
        assert_eq!((args.seed, args.seconds, args.trace), (7, 3.0, true));
        assert!(parse("--workload needle_cached").is_err(), "seed required");
        assert!(parse("--seed 1 --workload nope").is_err());
        assert!(parse("--seed 1 --trace 2").is_err());
        assert!(parse("--seed 1 --seconds 0").is_err());
        assert!(parse("--seed 1 --seconds 61").is_err());
        assert!(parse("--seed 1 --frobnicate 1").is_err());
        assert!(parse("--seed").is_err());
    }
}
