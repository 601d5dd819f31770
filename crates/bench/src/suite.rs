//! The shared benchmark workload matrix.
//!
//! One definition, read by `src/bin/perf_gate.rs` both when it records
//! `BENCH_joins.json` (`--record`) and when it re-measures a subset and diffs
//! it against that record — so the gate always measures exactly what the
//! record holds.

use wcoj_workloads::{
    edge_stream, hub_spoke, kclique, query_replay, social_graph, triangle, triangle_skewed,
    Workload,
};

/// The benchmark workload matrix at the given triangle sizes: uniform and
/// Zipf-skewed triangles and small-domain hub-and-spoke instances at each `n` in
/// `sizes`, plus 4-clique self-joins and string-keyed social-graph
/// triangle-self-joins at each `n` in `clique_sizes` (both are self-joins whose
/// output grows faster than the 3-relation triangles', so their sizes are capped
/// separately).
/// The social rows exercise the typed catalog — dictionary-encoded string ids —
/// and are directly comparable to the `clique4`/`hub` pure-`u64` rows; the
/// `stream` rows run the same triangle self-join over a **delta-backed**
/// sliding-window edge stream (one run that seals merged inserts and
/// tombstones into), so the static-vs-live overhead is visible in the same table, and
/// the `replay` rows run the triangle over two Zipf sliding-window streams plus
/// a static relation — the repeated-query regime the access-structure cache
/// targets (experiment E8). Labels match the `workload` field of
/// `BENCH_joins.json` records.
pub fn bench_matrix(sizes: &[usize], clique_sizes: &[usize]) -> Vec<(String, Workload)> {
    let mut out = Vec::new();
    for &n in sizes {
        out.push((format!("uniform_n{n}"), triangle(n, 0xC0FFEE)));
    }
    for &n in sizes {
        out.push((
            format!("zipf_n{n}"),
            triangle_skewed(n, (n as u64 / 4).max(4), 1.1, 0xBEEF),
        ));
    }
    for &n in sizes {
        out.push((format!("hub_n{n}"), hub_spoke(n, 0xCAB)));
    }
    for &n in clique_sizes {
        out.push((format!("clique4_n{n}"), kclique(4, n, 0xCAB)));
    }
    for &n in clique_sizes {
        out.push((format!("social_n{n}"), social_graph(n, 0xFACE)));
    }
    for &n in clique_sizes {
        out.push((format!("stream_n{n}"), edge_stream(n, 0xD17A)));
    }
    for &n in clique_sizes {
        out.push((format!("replay_n{n}"), query_replay(n, 0xCACE)));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_labels_are_distinct_and_bound() {
        let m = bench_matrix(&[256, 1024], &[256]);
        assert_eq!(m.len(), 10);
        let mut labels: Vec<&str> = m.iter().map(|(l, _)| l.as_str()).collect();
        labels.sort();
        labels.dedup();
        assert_eq!(labels.len(), 10);
        for (label, w) in &m {
            for i in 0..w.query.atoms().len() {
                assert!(
                    w.db.relation_for_atom(&w.query, i).is_ok(),
                    "{label}: atom {i} unbound"
                );
            }
        }
    }
}
