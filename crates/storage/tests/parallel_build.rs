//! Property tests for parallel access-structure construction: for relations on
//! both sides of the parallel-build size threshold, several attribute orders, and
//! threads ∈ {1, 2, 4, 8}, `Trie::build_parallel` must produce **bit-identical**
//! contents — values, offsets and the dense groups' set layouts — to the serial
//! build (the acceptance criterion of the parallel-construction work), and the
//! parallel argsort must equal the serial argsort permutation exactly.

use wcoj_storage::{Relation, Schema, Trie};

/// A deterministic pseudo-random ternary relation with heavy prefix sharing.
fn ternary(n: usize, seed: u64) -> Relation {
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let rows: Vec<Vec<u64>> = (0..n)
        .map(|_| vec![next() % 37, next() % 53, next() % 211])
        .collect();
    Relation::from_rows(Schema::new(&["A", "B", "C"]), rows)
}

const ORDERS: [[&str; 3]; 3] = [["A", "B", "C"], ["C", "A", "B"], ["B", "C", "A"]];
const THREADS: [usize; 4] = [1, 2, 4, 8];

// 20_000 rows exercises the parallel path (threshold 4096); the small sizes
// exercise the serial fallback and the empty/tiny edge cases.
const SIZES: [usize; 4] = [0, 10, 500, 20_000];

#[test]
fn parallel_trie_build_is_bit_identical_to_serial() {
    for n in SIZES {
        let r = ternary(n, 0x7E57 ^ n as u64);
        for order in ORDERS {
            let serial = Trie::build(&r, &order).expect("serial build");
            // the derived equality below covers the set layouts: make sure the
            // large relations actually have some (every root value occurs)
            let mut root = serial.cursor();
            assert!(n < 500 || (root.open() && root.layout().is_some()));
            for t in THREADS {
                let parallel = Trie::build_parallel(&r, &order, t).expect("parallel build");
                assert_eq!(parallel, serial, "n={n} order={order:?} threads={t}");
            }
        }
    }
}

#[test]
fn parallel_argsort_equals_serial_argsort() {
    for n in SIZES {
        let r = ternary(n, 0xCAFE ^ n as u64);
        for positions in [[0usize, 1, 2], [2, 0, 1], [1, 2, 0]] {
            let serial = r.sort_perm(&positions);
            for t in THREADS {
                assert_eq!(
                    r.sort_perm_threads(&positions, t),
                    serial,
                    "n={n} positions={positions:?} threads={t}"
                );
            }
        }
    }
}

#[test]
fn parallel_build_rejects_bad_orders_like_serial() {
    let r = ternary(5_000, 1);
    assert!(Trie::build_parallel(&r, &["A", "B"], 4).is_err());
    assert!(Trie::build_parallel(&r, &["A", "B", "Z"], 4).is_err());
    assert!(Trie::build_parallel(&r, &["A", "A", "B"], 4).is_err());
}

#[test]
fn parallel_build_handles_degenerate_shapes() {
    // unary relation (no child_start levels at all)
    let rows: Vec<Vec<u64>> = (0..10_000).map(|i| vec![i * 3]).collect();
    let u = Relation::from_rows(Schema::new(&["A"]), rows);
    assert_eq!(
        Trie::build_parallel(&u, &["A"], 4).unwrap(),
        Trie::build(&u, &["A"]).unwrap()
    );
    // a single fat root group: every row shares the first attribute
    let rows: Vec<Vec<u64>> = (0..10_000).map(|i| vec![7, i]).collect();
    let fat = Relation::from_rows(Schema::new(&["A", "B"]), rows);
    assert_eq!(
        Trie::build_parallel(&fat, &["A", "B"], 8).unwrap(),
        Trie::build(&fat, &["A", "B"]).unwrap()
    );
    // more threads than rows above the threshold is impossible, but more threads
    // than root values is not: 3 roots, 8 workers
    let rows: Vec<Vec<u64>> = (0..9_000).map(|i| vec![i % 3, i]).collect();
    let few_roots = Relation::from_rows(Schema::new(&["A", "B"]), rows);
    assert_eq!(
        Trie::build_parallel(&few_roots, &["A", "B"], 8).unwrap(),
        Trie::build(&few_roots, &["A", "B"]).unwrap()
    );
}
