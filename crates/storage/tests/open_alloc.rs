//! `PrefixCursor::open` must not allocate once the cursor is warm: the prefix
//! buffer, the frame stack and the per-depth memo are all reused.
//!
//! This file holds exactly one test so it owns its process — the counting
//! allocator is global, and another test's allocations on a parallel test
//! thread would be charged to this one.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use wcoj_storage::{PrefixIndex, Relation, Schema, TrieAccess};

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
fn a_warm_prefix_cursor_opens_without_allocating() {
    let rows = (0..4096u64).map(|i| vec![i % 16, i % 64, i]).collect();
    let r = Relation::from_rows(Schema::new(&["A", "B", "C"]), rows);
    let index = PrefixIndex::build(&r, &["A", "B", "C"]).unwrap();
    let mut c = index.cursor();

    // one warm descent to the deepest level and back up to the root group
    assert!(c.open() && c.open() && c.open());
    c.up();
    c.up();

    // every (a, b) prefix is a memo miss at depth 2, every new a one at depth 1
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let mut opens = 0usize;
    loop {
        assert!(c.open());
        loop {
            assert!(c.open());
            opens += 2;
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
    assert_eq!(opens, 2 * 64, "16 a-values x 4 b-values under each");
    assert_eq!(allocated, 0, "{allocated} allocations over {opens} opens");
}
