//! A host that pins its own thread before it first asks for the CPU count — a
//! benchmark client, a thread-per-core server — must still see every CPU the
//! process may use. This binary holds one test, so its pin really is the
//! process's first use of the topology layer.

#![cfg(target_os = "linux")]

use wcoj_storage::topology::{available_cpus, pin_current_thread};

/// `Cpus_allowed_list` of `/proc/self/status`, e.g. `0-3,6`.
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

#[test]
fn a_pin_before_first_use_narrows_nothing() {
    // read before the pin: if this thread is the main one, the pin shows in
    // /proc/self/status too
    let allowed = allowed_list();
    let last = *allowed.last().expect("some CPU is allowed");
    assert!(pin_current_thread(last), "pin to allowed CPU {last}");
    assert_eq!(
        available_cpus(),
        allowed.len(),
        "CPU count after a first pin"
    );
}
