//! A `TrieCursor` allocates once, when it is made: `Trie::cursor()` sizes the
//! frame stack for a full descent, so a request pays at most one allocation
//! per atom cursor and a sweep — `open`, `up`, `next`, however deep — none.
//!
//! This file holds exactly one test so it owns its process — the counting
//! allocator is global, and another test's allocations on a parallel test
//! thread would be charged to this one.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use wcoj_storage::{Relation, Schema, Trie};

struct Counting;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a statistic and publishes nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn a_trie_cursor_allocates_once_and_sweeps_without_allocating() {
    let rows = (0..4096u64).map(|i| vec![i % 16, i % 64, i]).collect();
    let r = Relation::from_rows(Schema::new(&["A", "B", "C"]), rows);
    let trie = Trie::build(&r, &["A", "B", "C"]).unwrap();

    // the process's first cursor also resolves the SIMD dispatch level once
    // (runtime feature detection): keep that one-time work out of the count
    drop(trie.cursor());

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let mut c = trie.cursor();
    let made = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert_eq!(made, 1, "the frame stack, sized for a full descent");

    // the first descent already runs in the presized stack
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    assert!(c.open());
    let mut opens = 1usize;
    loop {
        assert!(c.open());
        opens += 1;
        loop {
            assert!(c.open());
            opens += 1;
            c.up();
            if !c.next() {
                break;
            }
        }
        c.up();
        if !c.next() {
            break;
        }
    }
    let allocated = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert_eq!(opens, 1 + 16 + 64, "16 a-values x 4 b-values under each");
    assert_eq!(allocated, 0, "{allocated} allocations over {opens} opens");
}
