//! CPU-topology detection and worker placement.
//!
//! Parallel construction and execution in this workspace split work into
//! morsels claimed by scoped worker threads. Where those workers *run* matters
//! on real machines: two workers sharing an SMT pair compete for one core's
//! ports, and a worker migrating across sockets drags its working set across
//! the interconnect. This module gives the parallel layers just enough
//! topology awareness to avoid both, without any external dependency:
//!
//! * [`CpuTopology::detect`] parses `/sys/devices/system/cpu/*/topology/` into
//!   a per-CPU (package, core) map, falling back to a flat single-socket view
//!   when sysfs is unavailable (non-Linux, sandboxes);
//! * [`CpuTopology::pin_plan`] assigns each of `n` workers a CPU — distinct
//!   physical cores first, SMT siblings only once every core is occupied,
//!   filling one socket before spilling to the next so small worker groups
//!   stay socket-local;
//! * [`CpuTopology::socket_groups`] groups worker indices by the socket their
//!   planned CPU lives on, which the morsel scheduler uses to hand each group
//!   a contiguous range of the iteration space (socket-local first, stealing
//!   across sockets only when a group's range is exhausted);
//! * [`pin_current_thread`] applies the plan with one raw `sched_setaffinity`
//!   syscall (no libc binding in this workspace). Pinning is advisory: any
//!   failure is ignored, and `WCOJ_NO_PIN=1` disables it outright.
//!
//! None of this affects results or recorded work — morsel counts and counter
//! merging are deterministic regardless of placement — only wall-clock.

use std::sync::OnceLock;

/// One logical CPU's position in the machine: its kernel id, the physical
/// package (socket) it belongs to, and its core id within that package. Two
/// CPUs with equal `(package, core)` are SMT siblings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpuSlot {
    /// Kernel CPU number (`cpuN` in sysfs), usable with `sched_setaffinity`.
    pub cpu: usize,
    /// Physical package (socket) id.
    pub package: usize,
    /// Core id within the package.
    pub core: usize,
}

/// The machine's CPU layout: every online logical CPU with its socket and
/// core coordinates, in ascending CPU-id order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CpuTopology {
    slots: Vec<CpuSlot>,
}

impl CpuTopology {
    /// Detect the host topology from sysfs, cached for the process lifetime.
    ///
    /// Falls back to [`CpuTopology::flat`] over [`available_cpus`] when sysfs
    /// is unreadable, so callers never need a fallback path of their own.
    pub fn detect() -> &'static CpuTopology {
        static DETECTED: OnceLock<CpuTopology> = OnceLock::new();
        DETECTED.get_or_init(|| Self::from_sysfs().unwrap_or_else(|| Self::flat(available_cpus())))
    }

    /// A synthetic single-socket topology with `n` independent cores — the
    /// portable fallback, and a convenient fixture for deterministic tests.
    pub fn flat(n: usize) -> CpuTopology {
        CpuTopology {
            slots: (0..n.max(1))
                .map(|cpu| CpuSlot {
                    cpu,
                    package: 0,
                    core: cpu,
                })
                .collect(),
        }
    }

    /// Build a topology from an explicit slot list (tests and plan fixtures).
    /// Slots are sorted by CPU id; an empty list yields a single-CPU machine.
    pub fn from_slots(mut slots: Vec<CpuSlot>) -> CpuTopology {
        if slots.is_empty() {
            return Self::flat(1);
        }
        slots.sort_by_key(|s| s.cpu);
        CpuTopology { slots }
    }

    fn from_sysfs() -> Option<CpuTopology> {
        let mut slots = Vec::new();
        let entries = std::fs::read_dir("/sys/devices/system/cpu").ok()?;
        for entry in entries.flatten() {
            let name = entry.file_name();
            let name = name.to_str()?;
            let Some(rest) = name.strip_prefix("cpu") else {
                continue;
            };
            let Ok(cpu) = rest.parse::<usize>() else {
                continue;
            };
            let base = entry.path().join("topology");
            let read = |leaf: &str| -> Option<usize> {
                std::fs::read_to_string(base.join(leaf))
                    .ok()?
                    .trim()
                    .parse()
                    .ok()
            };
            // CPUs without a topology directory are offline; skip them.
            let (Some(package), Some(core)) = (read("physical_package_id"), read("core_id")) else {
                continue;
            };
            slots.push(CpuSlot { cpu, package, core });
        }
        if slots.is_empty() {
            None
        } else {
            Some(Self::from_slots(slots))
        }
    }

    /// All online logical CPUs, ascending by CPU id.
    pub fn slots(&self) -> &[CpuSlot] {
        &self.slots
    }

    /// Number of distinct physical packages (sockets).
    pub fn packages(&self) -> usize {
        let mut ids: Vec<usize> = self.slots.iter().map(|s| s.package).collect();
        ids.sort_unstable();
        ids.dedup();
        ids.len()
    }

    /// Assign each of `threads` workers a CPU id. Distinct physical cores are
    /// handed out first (so no two workers share an SMT pair until every core
    /// is busy), one socket is filled before the next (so small worker counts
    /// stay socket-local), and the plan wraps around when `threads` exceeds
    /// the number of logical CPUs.
    pub fn pin_plan(&self, threads: usize) -> Vec<usize> {
        // Order slots: socket-major, and within a socket every first SMT
        // sibling of each core before any second sibling.
        let mut ordered: Vec<(usize, CpuSlot)> = Vec::with_capacity(self.slots.len());
        let mut seen_cores: Vec<(usize, usize, usize)> = Vec::new(); // (package, core, count)
        for &slot in &self.slots {
            let smt_rank = match seen_cores
                .iter_mut()
                .find(|(p, c, _)| *p == slot.package && *c == slot.core)
            {
                Some((_, _, count)) => {
                    *count += 1;
                    *count - 1
                }
                None => {
                    seen_cores.push((slot.package, slot.core, 1));
                    0
                }
            };
            ordered.push((smt_rank, slot));
        }
        ordered.sort_by_key(|&(smt_rank, slot)| (smt_rank, slot.package, slot.cpu));
        (0..threads)
            .map(|w| ordered[w % ordered.len()].1.cpu)
            .collect()
    }

    /// Group worker indices `0..threads` by the socket their planned CPU
    /// belongs to, in ascending socket order. Workers on the same socket share
    /// cache and memory locality, so the morsel scheduler gives each group a
    /// contiguous slice of the iteration space.
    pub fn socket_groups(&self, threads: usize) -> Vec<Vec<usize>> {
        let plan = self.pin_plan(threads);
        let package_of = |cpu: usize| {
            self.slots
                .iter()
                .find(|s| s.cpu == cpu)
                .map_or(0, |s| s.package)
        };
        let mut packages: Vec<usize> = plan.iter().map(|&cpu| package_of(cpu)).collect();
        let mut distinct = packages.clone();
        distinct.sort_unstable();
        distinct.dedup();
        packages.truncate(threads);
        distinct
            .into_iter()
            .map(|pkg| {
                (0..threads)
                    .filter(|&w| packages[w] == pkg)
                    .collect::<Vec<usize>>()
            })
            .collect()
    }
}

/// Number of CPUs available to this process, from `std::thread` — read once.
/// `available_parallelism` reports the *calling thread's* affinity mask, which
/// [`pin_current_thread`] narrows to one CPU; a count read after a pin would
/// silently turn "use every core" into "run serially".
pub fn available_cpus() -> usize {
    static CPUS: OnceLock<usize> = OnceLock::new();
    *CPUS.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Whether pinning is enabled for this process (`WCOJ_NO_PIN` unset).
pub fn pinning_enabled() -> bool {
    static ENABLED: OnceLock<bool> = OnceLock::new();
    *ENABLED.get_or_init(|| {
        !std::env::var("WCOJ_NO_PIN")
            .map(|v| v == "1" || v.eq_ignore_ascii_case("true"))
            .unwrap_or(false)
    })
}

/// Pin the calling thread to `cpu`. Best-effort and advisory: returns `false`
/// (and leaves affinity untouched) when pinning is disabled via `WCOJ_NO_PIN`,
/// unsupported on this platform, or rejected by the kernel. Never affects
/// results — only where the scheduler places the thread.
pub fn pin_current_thread(cpu: usize) -> bool {
    if !pinning_enabled() {
        return false;
    }
    imp::pin_current_thread(cpu)
}

#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
mod imp {
    /// Raw `sched_setaffinity(0, size, mask)` — the workspace links no libc
    /// crate, so the one syscall the placement layer needs is issued directly.
    /// The mask lives on the stack and outlives the syscall; an error return
    /// (negative) simply reports failure to the advisory caller.
    #[allow(unsafe_code)]
    pub(super) fn pin_current_thread(cpu: usize) -> bool {
        const MASK_WORDS: usize = 16; // 1024 CPUs
        if cpu >= MASK_WORDS * 64 {
            return false;
        }
        let mut mask = [0u64; MASK_WORDS];
        mask[cpu / 64] = 1u64 << (cpu % 64);
        let size = core::mem::size_of_val(&mask);
        let ret: isize;
        #[cfg(target_arch = "x86_64")]
        // SAFETY: sched_setaffinity reads `size` bytes from `mask`, which is a
        // live stack array of exactly that size; no memory is written by the
        // kernel and no Rust invariants depend on the thread's affinity.
        unsafe {
            core::arch::asm!(
                "syscall",
                inlateout("rax") 203isize => ret, // __NR_sched_setaffinity
                in("rdi") 0usize,                 // pid 0 = calling thread
                in("rsi") size,
                in("rdx") mask.as_ptr(),
                lateout("rcx") _,
                lateout("r11") _,
                options(nostack),
            );
        }
        #[cfg(target_arch = "aarch64")]
        // SAFETY: as above; aarch64 passes the syscall number in x8.
        unsafe {
            core::arch::asm!(
                "svc 0",
                in("x8") 122usize, // __NR_sched_setaffinity
                inlateout("x0") 0usize => ret,
                in("x1") size,
                in("x2") mask.as_ptr(),
                options(nostack),
            );
        }
        ret == 0
    }
}

#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
mod imp {
    pub(super) fn pin_current_thread(_cpu: usize) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_socket_smt() -> CpuTopology {
        // 2 sockets × 2 cores × 2 SMT threads; sibling pairs (0,4) (1,5) (2,6) (3,7).
        CpuTopology::from_slots(
            (0..8)
                .map(|cpu| CpuSlot {
                    cpu,
                    package: (cpu % 4) / 2,
                    core: cpu % 2,
                })
                .collect(),
        )
    }

    #[test]
    fn detect_is_nonempty_and_cached() {
        let t = CpuTopology::detect();
        assert!(!t.slots().is_empty());
        assert!(std::ptr::eq(t, CpuTopology::detect()));
    }

    #[test]
    fn flat_plan_is_identity_then_wraps() {
        let t = CpuTopology::flat(4);
        assert_eq!(t.pin_plan(4), vec![0, 1, 2, 3]);
        assert_eq!(t.pin_plan(6), vec![0, 1, 2, 3, 0, 1]);
        assert_eq!(t.packages(), 1);
    }

    #[test]
    fn plan_fills_cores_before_smt_siblings() {
        let t = two_socket_smt();
        // Socket 0 cores are cpus {0,1} (siblings {4,5}); socket 1 cores are
        // {2,3} (siblings {6,7}). Four workers must land on four distinct
        // physical cores; eight workers then add the siblings.
        assert_eq!(t.pin_plan(4), vec![0, 1, 2, 3]);
        assert_eq!(t.pin_plan(8), vec![0, 1, 2, 3, 4, 5, 6, 7]);
    }

    #[test]
    fn socket_groups_partition_workers() {
        let t = two_socket_smt();
        assert_eq!(t.packages(), 2);
        let groups = t.socket_groups(4);
        assert_eq!(groups, vec![vec![0, 1], vec![2, 3]]);
        let all: usize = t.socket_groups(7).iter().map(Vec::len).sum();
        assert_eq!(all, 7);
    }

    /// A pin narrows the calling thread's affinity mask; the process-wide
    /// CPU count must not follow it down.
    #[test]
    fn available_cpus_survives_a_pin() {
        let before = available_cpus();
        let after = std::thread::scope(|s| {
            s.spawn(|| {
                pin_current_thread(0);
                available_cpus()
            })
            .join()
        });
        assert_eq!(after.ok(), Some(before));
    }

    #[test]
    fn pin_current_thread_is_advisory() {
        // Must not panic regardless of platform support; on Linux pinning to
        // CPU 0 of this process should generally succeed unless disabled.
        let _ = pin_current_thread(0);
        let _ = pin_current_thread(usize::MAX);
    }
}
