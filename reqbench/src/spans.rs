//! In-memory spans recorded by the benchmark's own code around its calls into
//! each layer. One request is one tree of spans sharing a request id; a
//! layer's self time is its span minus the part its children cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

use crate::stats::{faster_half, percentile};

/// One timed interval. `parent` indexes the recorder's span list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub request: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Appends spans in memory; nothing is written until the run ends.
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Start a root span for request `request`.
    pub fn root(&mut self, name: &'static str, request: u64) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            request,
            parent: None,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() - 1
    }

    /// Start a span under `parent`, inheriting its request id.
    pub fn child(&mut self, name: &'static str, parent: usize) -> usize {
        let id = self.root(name, self.spans[parent].request);
        self.spans[id].parent = Some(parent);
        id
    }

    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// A closed child whose duration was measured elsewhere (the library's
    /// own `QueryTrace` phases), placed `offset_ns` after its parent's start.
    pub fn measured_child(
        &mut self,
        name: &'static str,
        parent: usize,
        offset_ns: u64,
        duration_ns: u64,
    ) {
        let id = self.child(name, parent);
        let start_ns = self.spans[parent].start_ns + offset_ns;
        self.spans[id].start_ns = start_ns;
        self.spans[id].end_ns = start_ns + duration_ns;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the union of the intervals its
/// children cover (clipped to the span).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let start = s.start_ns.max(spans[p].start_ns);
            let end = s.end_ns.min(spans[p].end_ns);
            if end > start {
                children[p].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(start, end) in kids.iter() {
                if end > reach {
                    covered += end - start.max(reach);
                    reach = end;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Self-time samples grouped by span name.
pub fn self_times_by_name(spans: &[Span]) -> BTreeMap<&'static str, Vec<u64>> {
    let mut by_name: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        by_name.entry(s.name).or_default().push(t);
    }
    by_name
}

/// Durations of the spans called `name`.
pub fn durations(spans: &[Span], name: &str) -> Vec<u64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::duration_ns)
        .collect()
}

/// The spans of the requests that started in the quieter half of the
/// `slice_ns`-long slices of time, ranked by the median duration of the roots
/// called `rank_by` (see `run::Window` for why). Whole requests are kept or
/// dropped, so the result is again a list of well-formed trees.
pub fn quiet_half(spans: &[Span], rank_by: &str, slice_ns: u64) -> Vec<Span> {
    let origin = spans.first().map_or(0, |s| s.start_ns);
    let slice_of = |s: &Span| (s.start_ns - origin) / slice_ns;
    let mut per_slice: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
    for s in spans
        .iter()
        .filter(|s| s.parent.is_none() && s.name == rank_by)
    {
        per_slice
            .entry(slice_of(s))
            .or_default()
            .push(s.duration_ns());
    }
    let medians = per_slice
        .iter_mut()
        .map(|(&slice, durations)| (percentile(durations, 0.5), slice));
    let quiet = faster_half(medians.collect());
    let mut kept: Vec<Span> = Vec::new();
    let mut new_index: Vec<Option<usize>> = Vec::with_capacity(spans.len());
    for s in spans {
        let parent = match s.parent {
            None => quiet.contains(&slice_of(s)).then_some(None),
            Some(p) => new_index[p].map(Some),
        };
        new_index.push(parent.map(|parent| {
            kept.push(Span {
                parent,
                ..s.clone()
            });
            kept.len() - 1
        }));
    }
    kept
}

/// Every child lies inside its parent, shares its request id, and comes after
/// it in the list; siblings do not overlap.
pub fn check_nesting(spans: &[Span]) -> Result<(), String> {
    let mut last_end: Vec<u64> = spans.iter().map(|s| s.start_ns).collect();
    for (i, s) in spans.iter().enumerate() {
        if s.end_ns < s.start_ns {
            return Err(format!("span {i} ({}) ends before it starts", s.name));
        }
        let Some(p) = s.parent else { continue };
        let parent = spans
            .get(p)
            .filter(|_| p < i)
            .ok_or_else(|| format!("span {i} ({}) has no earlier parent {p}", s.name))?;
        if parent.request != s.request {
            return Err(format!("span {i} ({}) left its request", s.name));
        }
        if s.start_ns < parent.start_ns || s.end_ns > parent.end_ns {
            return Err(format!("span {i} ({}) leaves {}", s.name, parent.name));
        }
        if s.start_ns < last_end[p] {
            return Err(format!("span {i} ({}) overlaps a sibling", s.name));
        }
        last_end[p] = s.end_ns;
    }
    Ok(())
}

/// One JSON object per line: name, request, id, parent, start and end in ns.
pub fn write_jsonl(spans: &[Span], path: &Path) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (id, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"name\":\"{}\",\"request\":{},\"id\":{id},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
            s.name, s.request, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            request: 1,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("request", None, 0, 100),
            span("a", Some(0), 10, 40),
            span("b", Some(0), 30, 60), // overlaps a: union covers 10..60
            span("a.inner", Some(1), 15, 25),
            span("c", Some(0), 90, 120), // clipped to the parent: 90..100
        ];
        assert_eq!(self_times(&spans), vec![40, 20, 30, 10, 30]);
        let by_name = self_times_by_name(&spans);
        assert_eq!(by_name["request"], vec![40]);
        assert_eq!(durations(&spans, "b"), vec![30]);
    }

    #[test]
    fn nesting_check_accepts_trees_and_names_the_breach() {
        let good = vec![
            span("request", None, 0, 100),
            span("a", Some(0), 0, 40),
            span("b", Some(0), 40, 100),
            span("a.inner", Some(1), 5, 35),
        ];
        assert_eq!(check_nesting(&good), Ok(()));

        let mut leaves = good.clone();
        leaves[3].end_ns = 45;
        assert!(check_nesting(&leaves).unwrap_err().contains("leaves a"));

        let mut overlap = good.clone();
        overlap[2].start_ns = 30;
        assert!(check_nesting(&overlap).unwrap_err().contains("sibling"));

        let mut other_request = good.clone();
        other_request[1].request = 2;
        assert!(check_nesting(&other_request)
            .unwrap_err()
            .contains("left its request"));

        let mut forward = good;
        forward[1].parent = Some(2);
        assert!(check_nesting(&forward).unwrap_err().contains("no earlier"));
    }

    #[test]
    fn quiet_half_keeps_whole_requests_of_the_faster_slices() {
        // one request per 100 ns slice: durations 10, 90, 20, 80
        let mut spans = Vec::new();
        for (i, d) in [10, 90, 20, 80].into_iter().enumerate() {
            let start = i as u64 * 100;
            let root = spans.len();
            spans.push(span("query", None, start, start + d));
            spans.push(span("exec", Some(root), start, start + d / 2));
            spans.push(span("join", Some(root + 1), start, start + d / 4));
        }
        // a write in a slow slice is dropped with it
        spans.push(span("write", None, 150, 160));
        let quiet = quiet_half(&spans, "query", 100);
        assert_eq!(check_nesting(&quiet), Ok(()));
        assert_eq!(durations(&quiet, "query"), vec![10, 20]);
        assert_eq!(durations(&quiet, "join"), vec![2, 5]);
        assert_eq!(quiet.len(), 6);
        assert_eq!(quiet[5].parent, Some(4));
        assert!(quiet_half(&[], "query", 100).is_empty());
    }

    #[test]
    fn recorder_nests_measured_children_inside_their_parent() {
        let mut rec = Recorder::new();
        let root = rec.root("request", 7);
        let exec = rec.child("exec", root);
        std::thread::sleep(std::time::Duration::from_millis(2));
        rec.close(exec);
        rec.measured_child("build", exec, 0, 1_000);
        rec.measured_child("join", exec, 1_000, 500_000);
        rec.close(root);
        assert_eq!(check_nesting(rec.spans()), Ok(()));
        assert!(rec.spans().iter().all(|s| s.request == 7));
        assert_eq!(durations(rec.spans(), "join"), vec![500_000]);
    }
}
