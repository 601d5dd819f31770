//! Worker placement: one rule, `worker w → the (w mod k)-th of the k CPUs the
//! process may run on`.
//!
//! Both parallel seams (morsel-driven joins and the parallel sort) pin worker
//! `w` to [`worker_cpu`]`(w)` with one raw `sched_setaffinity` syscall (no libc
//! binding in this workspace). The rule is relative to the process's affinity
//! mask, read once with a raw `sched_getaffinity`, so a process started under
//! `taskset -c 1` pins worker 0 to CPU 1, never to a CPU the operator excluded.
//! Where the mask cannot be read, worker `w` goes to CPU `w % available_cpus()`.
//! Pinning is advisory: a failed pin is ignored.
//!
//! The CPU count and the mask are read from the *calling thread*, which a pin
//! narrows to one CPU; so [`pin_current_thread`] reads both before its first
//! syscall, and a host that pins its own thread before its first query still
//! sees every CPU the process may use.
//!
//! None of this affects results or recorded work — morsel counts and counter
//! merging are deterministic regardless of placement — only wall-clock.

use std::sync::OnceLock;

/// Number of CPUs available to this process, from `std::thread` — read once,
/// before any [`pin_current_thread`] in the process. `available_parallelism`
/// reports the *calling thread's* affinity mask, which a pin narrows to one
/// CPU; a count read after a pin would silently turn "use every core" into
/// "run serially".
pub fn available_cpus() -> usize {
    static CPUS: OnceLock<usize> = OnceLock::new();
    *CPUS.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Words of affinity mask the syscalls pass: 1024 CPUs.
const MASK_WORDS: usize = 16;

/// The process's affinity mask — read once, before any [`pin_current_thread`]
/// in the process, for the reason [`available_cpus`] gives.
fn process_mask() -> Option<[u64; MASK_WORDS]> {
    static MASK: OnceLock<Option<[u64; MASK_WORDS]>> = OnceLock::new();
    *MASK.get_or_init(imp::affinity_mask)
}

/// The CPU worker `w` of a parallel seam pins to: the `(w mod k)`-th of the
/// `k` CPUs in the process's affinity mask, or `w % available_cpus()` where
/// the mask cannot be read.
pub fn worker_cpu(w: usize) -> usize {
    process_mask()
        .and_then(|mask| nth_allowed(&mask, w))
        .unwrap_or(w % available_cpus())
}

/// The `(w mod k)`-th set bit of `mask`, which has `k` set bits; `None` when
/// `k` is 0.
fn nth_allowed(mask: &[u64], w: usize) -> Option<usize> {
    let k: usize = mask.iter().map(|word| word.count_ones() as usize).sum();
    (0..mask.len() * 64)
        .filter(|&cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1)
        .nth(w.checked_rem(k)?)
}

/// Pin the calling thread to `cpu`. Best-effort and advisory: returns `false`
/// (and leaves affinity untouched) when pinning is unsupported on this
/// platform or rejected by the kernel. Never affects results — only where the
/// scheduler places the thread.
pub fn pin_current_thread(cpu: usize) -> bool {
    // the first pin must not be what the CPU count and the mask are read from
    available_cpus();
    process_mask();
    imp::pin_current_thread(cpu)
}

#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
mod imp {
    use super::MASK_WORDS;

    /// Raw `sched_getaffinity(0, size, mask)`: the calling thread's affinity
    /// mask, `None` when the kernel refuses (a mask wider than 1024 CPUs).
    #[allow(unsafe_code)]
    pub(super) fn affinity_mask() -> Option<[u64; MASK_WORDS]> {
        let mut mask = [0u64; MASK_WORDS];
        let size = core::mem::size_of_val(&mask);
        let ret: isize;
        #[cfg(target_arch = "x86_64")]
        // SAFETY: sched_getaffinity writes at most `size` bytes to `mask`, a
        // live stack array of exactly that size, and touches no other memory.
        unsafe {
            core::arch::asm!(
                "syscall",
                inlateout("rax") 204isize => ret, // __NR_sched_getaffinity
                in("rdi") 0usize,                 // pid 0 = calling thread
                in("rsi") size,
                in("rdx") mask.as_mut_ptr(),
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
                in("x8") 123usize, // __NR_sched_getaffinity
                inlateout("x0") 0usize => ret,
                in("x1") size,
                in("x2") mask.as_mut_ptr(),
                options(nostack),
            );
        }
        // success returns the bytes written; the rest of `mask` stays zero
        (ret > 0).then_some(mask)
    }

    /// Raw `sched_setaffinity(0, size, mask)` — the workspace links no libc
    /// crate, so the one syscall the placement layer needs is issued directly.
    /// The mask lives on the stack and outlives the syscall; an error return
    /// (negative) simply reports failure to the advisory caller.
    #[allow(unsafe_code)]
    pub(super) fn pin_current_thread(cpu: usize) -> bool {
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
    pub(super) fn affinity_mask() -> Option<[u64; super::MASK_WORDS]> {
        None
    }

    pub(super) fn pin_current_thread(_cpu: usize) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worker_cpu_wraps() {
        let mut mask = [0u64; MASK_WORDS];
        assert_eq!(nth_allowed(&mask, 0), None, "an empty mask falls back");
        mask[0] = 0b1100; // CPUs {2, 3}
        assert_eq!(
            (0..5).map(|w| nth_allowed(&mask, w)).collect::<Vec<_>>(),
            [Some(2), Some(3), Some(2), Some(3), Some(2)]
        );
        mask[2] = 1 << 5; // and CPU 133
        assert_eq!(nth_allowed(&mask, 2), Some(133));
        assert_eq!(nth_allowed(&mask, 3), Some(2));
    }

    /// `Cpus_allowed_list` of `/proc/self/status`, e.g. `0-3,6`.
    #[cfg(target_os = "linux")]
    fn allowed_list() -> Vec<usize> {
        let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
        let list = status
            .lines()
            .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
            .expect("Cpus_allowed_list");
        let mut cpus = Vec::new();
        for range in list.trim().split(',') {
            let (lo, hi) = range.split_once('-').unwrap_or((range, range));
            let (lo, hi): (usize, usize) = (lo.parse().expect("cpu"), hi.parse().expect("cpu"));
            cpus.extend(lo..=hi);
        }
        cpus
    }

    /// Run under `taskset -c 1` too (a CI step does): worker 0 must not be
    /// placed on CPU 0.
    #[cfg(target_os = "linux")]
    #[test]
    fn worker_cpus_lie_in_the_allowed_list() {
        let allowed = allowed_list();
        let n = available_cpus();
        for w in 0..2 * n {
            let cpu = worker_cpu(w);
            assert!(
                allowed.contains(&cpu),
                "worker {w} on CPU {cpu}, allowed {allowed:?}"
            );
        }
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
        // Must not panic regardless of platform support; an out-of-range CPU
        // is refused, not an error.
        let _ = pin_current_thread(0);
        assert!(!pin_current_thread(usize::MAX));
    }
}
