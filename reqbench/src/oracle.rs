//! Trivially-correct reference answers, computed outside every timed sample.

use std::collections::BTreeSet;

use wcoj_storage::{Relation, TypedRow, TypedValue, Value};

/// What a response must contain: its row count and an order-independent
/// checksum of its rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Answer {
    pub rows: u64,
    pub checksum: u64,
}

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Order-dependent hash of one row; rows are then summed, so the order of
/// rows does not matter and duplicate rows do.
fn row_hash(values: impl Iterator<Item = u64>) -> u64 {
    values.fold(0x9E37_79B9_7F4A_7C15, |h, v| mix(h ^ v).wrapping_add(h))
}

pub fn relation_answer(rel: &Relation) -> Answer {
    let cols = rel.columns();
    let checksum = (0..rel.len())
        .map(|i| row_hash(cols.iter().map(|c| c[i])))
        .fold(0u64, u64::wrapping_add);
    Answer {
        rows: rel.len() as u64,
        checksum,
    }
}

/// The same over decoded rows: strings hash by their bytes.
pub fn typed_answer(rows: &[TypedRow]) -> Answer {
    let checksum = rows
        .iter()
        .map(|row| {
            row_hash(row.iter().map(|v| match v {
                TypedValue::Int(i) => *i,
                TypedValue::Str(s) => s.bytes().fold(0xCBF2_9CE4_8422_2325u64, |h, b| {
                    (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
                }),
            }))
        })
        .fold(0u64, u64::wrapping_add);
    Answer {
        rows: rows.len() as u64,
        checksum,
    }
}

/// Directed 3-cycles `E(a,b), E(b,c), E(c,a)` of a live edge set, by walking
/// adjacency ranges of the ordered set — one row per rotation, as the join
/// returns them.
pub fn cycle_answer(live: &BTreeSet<(Value, Value)>) -> Answer {
    let mut answer = Answer {
        rows: 0,
        checksum: 0,
    };
    for &(a, b) in live {
        for &(_, c) in live.range((b, Value::MIN)..=(b, Value::MAX)) {
            if live.contains(&(c, a)) {
                answer.rows += 1;
                answer.checksum = answer
                    .checksum
                    .wrapping_add(row_hash([a, b, c].into_iter()));
            }
        }
    }
    answer
}

#[cfg(test)]
mod tests {
    use super::*;
    use wcoj_storage::Schema;

    #[test]
    fn cycle_oracle_agrees_with_the_relation_checksum() {
        // 1→2→3→1 is one cycle (three rotations); 4→4 is a self-loop cycle
        let live: BTreeSet<(Value, Value)> = [(1, 2), (2, 3), (3, 1), (4, 4), (2, 5)]
            .into_iter()
            .collect();
        let rows = vec![vec![1, 2, 3], vec![2, 3, 1], vec![3, 1, 2], vec![4, 4, 4]];
        let rel = Relation::from_rows(Schema::new(&["A", "B", "C"]), rows);
        assert_eq!(cycle_answer(&live), relation_answer(&rel));
        assert_eq!(cycle_answer(&live).rows, 4);
    }

    #[test]
    fn checksum_sees_values_not_row_order() {
        let schema = || Schema::new(&["A", "B"]);
        let a = Relation::from_rows(schema(), vec![vec![1, 2], vec![3, 4]]);
        let b = Relation::from_rows(schema(), vec![vec![3, 4], vec![1, 2]]);
        let c = Relation::from_rows(schema(), vec![vec![2, 1], vec![3, 4]]);
        assert_eq!(relation_answer(&a), relation_answer(&b));
        assert_ne!(relation_answer(&a), relation_answer(&c));
        let typed = |s: &str| vec![vec![TypedValue::Str(s.into()), TypedValue::Int(1)]];
        assert_ne!(typed_answer(&typed("ann")), typed_answer(&typed("bob")));
    }
}
