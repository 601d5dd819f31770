//! Facts about the host and the process: what the numbers were measured on,
//! and a scratch directory that never outlives the run.

use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::OnceLock;
use std::time::Instant;

use wcoj_storage::simd::{active_level, SimdLevel};

use crate::stats::percentile;

/// The library reads `WCOJ_*` variables from deep inside storage, core and
/// service code; any of them set would silently change what is measured.
pub fn refuse_wcoj_env() -> Result<(), String> {
    let set: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("WCOJ_"))
        .collect();
    if set.is_empty() {
        Ok(())
    } else {
        Err(format!("refusing to measure with {} set", set.join(", ")))
    }
}

/// CPUs this process may run on, read once: after a thread pins itself,
/// `available_parallelism` counts only the CPU it is pinned to.
pub fn nproc() -> usize {
    static CPUS: OnceLock<usize> = OnceLock::new();
    *CPUS.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// 0 = scalar, 1 = AVX2, 2 = NEON.
pub fn simd_level_code() -> u64 {
    match active_level() {
        SimdLevel::Scalar => 0,
        SimdLevel::Avx2 => 1,
        SimdLevel::Neon => 2,
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .unwrap_or(0.0);
    kb / 1024.0
}

/// Median cost of appending 4 KiB and `sync_data` (what the WAL issues per
/// commit) in `dir`, in microseconds.
pub fn fsync_probe_us(dir: &Path) -> std::io::Result<f64> {
    let path = dir.join("fsync-probe");
    let mut file = std::fs::File::create(&path)?;
    let block = [0xA5u8; 4096];
    let mut samples = Vec::with_capacity(50);
    for _ in 0..50 {
        let started = Instant::now();
        file.write_all(&block)?;
        file.sync_data()?;
        samples.push(started.elapsed().as_nanos() as u64);
    }
    drop(file);
    std::fs::remove_file(&path)?;
    Ok(percentile(&mut samples, 0.5) as f64 / 1e3)
}

/// Whether `dir` sits on a tmpfs mount (fsync is then free and says nothing
/// about a device).
pub fn is_tmpfs(dir: &Path) -> bool {
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    let dir = dir.canonicalize().unwrap_or_else(|_| dir.to_path_buf());
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, point, fs) = (f.next()?, f.next()?, f.next()?);
            dir.starts_with(point).then_some((point.len(), fs))
        })
        .max_by_key(|&(len, _)| len)
        .is_some_and(|(_, fs)| fs == "tmpfs")
}

/// First line a tool prints, or "unknown" when it cannot run here (the
/// benchmark's checkout is not a git repository, for one).
pub fn tool_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// A scratch directory beside the running executable — inside the checkout's
/// build directory, never in `/tmp` — removed when dropped, so also when the
/// run fails or panics.
pub struct TempDir(PathBuf);

impl TempDir {
    pub fn new(tag: &str) -> std::io::Result<TempDir> {
        use std::sync::atomic::{AtomicU64, Ordering};
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let exe = std::env::current_exe()?;
        let base = exe.parent().unwrap_or(Path::new("."));
        let dir = base.join(format!(
            "reqbench-tmp-{}-{}-{tag}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir)?;
        Ok(TempDir(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
