//! Thread placement: [`pin_current_thread`] pins the calling thread to one CPU
//! with one raw `sched_setaffinity` syscall (no libc binding in this
//! workspace), and [`available_cpus`] counts the CPUs the process may run on.
//! The library spawns no thread of its own; a host that runs one thread per
//! core — a benchmark client, a thread-per-core server — pins its threads
//! here. Pinning is advisory: a failed pin is ignored.
//!
//! The CPU count is read from the *calling thread*, which a pin narrows to one
//! CPU; so [`pin_current_thread`] reads it before its first syscall, and a
//! host that pins its own thread before it first asks still sees every CPU
//! the process may use.
//!
//! None of this affects results or recorded work, only wall-clock.

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

/// Pin the calling thread to `cpu`. Best-effort and advisory: returns `false`
/// (and leaves affinity untouched) when pinning is unsupported on this
/// platform or rejected by the kernel. Never affects results — only where the
/// scheduler places the thread.
pub fn pin_current_thread(cpu: usize) -> bool {
    // the first pin must not be what the CPU count is read from
    available_cpus();
    imp::pin_current_thread(cpu)
}

#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
mod imp {
    /// Words of affinity mask the syscall passes: 1024 CPUs.
    const MASK_WORDS: usize = 16;

    /// Raw `sched_setaffinity(0, size, mask)` — the workspace links no libc
    /// crate, so the one syscall a pin needs is issued directly.
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
    pub(super) fn pin_current_thread(_cpu: usize) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
