//! Adaptive multi-way sorted-set intersection kernels.
//!
//! Every variable extension in a worst-case optimal join is a multi-way
//! intersection of sorted sets (the "intersection in time proportional to the
//! smaller set" primitive of Section 2 of the paper). The asymptotic discipline —
//! iterate the smallest set, search the others — admits a log-factor of freedom
//! that dominates *constants* in practice: the best machine kernel depends on the
//! relative sizes and the value density of the sets being intersected.
//!
//! This module offers three list kernels plus a per-intersection heuristic, and
//! the prebuilt-bitset path for groups dense enough to carry one (see *Set
//! layouts* below):
//!
//! * [`KernelKind::Merge`] — branchless two-pointer merge, pairwise
//!   smallest-first. `O(Σ|L_i|)` with no data-dependent branches in the hot loop;
//!   the fastest choice when the sets have comparable sizes.
//! * [`KernelKind::Gallop`] — iterate the smallest set, gallop (exponential then
//!   binary search) in the others with monotone frontiers.
//!   `O(k · m · log(M/m))`; the only safe choice when one set dwarfs another,
//!   and the kernel whose cost telescopes into the AGM bound.
//! * [`KernelKind::Bitmap`] — for small dense domains: materialize each set's
//!   span-window as a bitset and intersect word-parallel (64 values per AND).
//!   `O(Σ|L_i| + k · span/64)`; wins when the common span is a few thousand
//!   values or less, as in skewed hub-and-spoke data and small-domain cliques.
//!
//! [`KernelPolicy::Adaptive`] (the default) picks per intersection using the
//! common span and the size ratio; the other policy values force one kernel,
//! which is what the differential tests use to prove all kernels compute
//! bit-identical results. Every invocation is recorded in the
//! [`WorkCounter`] kernel breakdown (`kernel_merge` / `kernel_gallop` /
//! `kernel_bitmap`), so adaptivity is auditable per query.
//!
//! # Set layouts
//!
//! The bitmap kernel above derives both bitsets from the sorted lists on every
//! call. The lists of the *static* access structure ([`crate::Trie`]) do not
//! change between calls, so — as EmptyHeaded
//! fixes a layout per set when it builds its tries — every **dense sibling
//! group** gets its bitset once, at build time: a [`Layout`] `(base, words)`.
//!
//! * **Rule.** A group is dense when the adaptive policy's bitmap condition
//!   holds for the group alone: more than `TINY_LIST` (4) values, span at most
//!   [`BITMAP_MAX_SPAN`], span at most [`BITMAP_SPAN_PER_ELEMENT`] per value
//!   ([`append_layout`]).
//! * **Memory.** Words sit on the absolute 64-grid (`base = first / 64 · 64`), so
//!   any two layouts AND without shifting; that alignment costs at most one word
//!   beyond the span's own `⌈span/64⌉`, and the density rule bounds the total at
//!   `len/4 + 2` words per dense group — about 1/4 on top of the values, nothing
//!   for sparse groups. Both structures count it in their `heap_bytes()`.
//! * **Who uses them.** [`intersect_layouts_into`]: the execution layer takes
//!   it when *every* participant of an intersection has a layout and the policy
//!   is `Adaptive` or `Bitmap`. It ANDs the words under the common span, masks
//!   the two ends (which also drops values behind a cursor) and decodes — no list
//!   is scanned. Anything else — a sparse or delta-backed participant, or a
//!   forced `Merge`/`Gallop`, which must keep exercising the list kernels for
//!   the "all kernels agree" differentials — goes through
//!   [`intersect_into_at`] unchanged. The list-bitmap kernel stays: it is the
//!   only bitmap path for delta-backed atoms and for sparse groups whose
//!   *common* window is dense.
//! * **Rank.** A layout answers rank as well as membership: one bit per
//!   member, in order, so the members between two values are a popcount of the
//!   words between them (`members_between`). A [`crate::TrieCursor`] holds its
//!   group's layout and repositions at a kernel-found value by that count
//!   instead of searching the list — uncounted, like every reposition.
//! * **Decode.** Turning the ANDed words back into values is most of a dense
//!   intersection's cost. Both bitmap paths decode through
//!   [`simd::decode_words`] at the caller's level, which has no per-bit exit
//!   on any level: a VBMI2 compress-store where the x86 host has it, 8
//!   unconditional scalar slot writes per word everywhere else. The decode is
//!   uncharged — each path's tallies are charged before it — so no counter
//!   depends on the decoder.
//!
//! # Append contract
//!
//! Every `*_into` entry point ([`intersect_into`], [`intersect_into_at`],
//! [`intersect_layouts_into`]) **appends** the intersection to `out` and never
//! reads, reorders or drops what `out` already holds — short-circuits append
//! nothing. That is what lets the execution layer
//! hand the deepest join level the result column itself: the extension set of
//! a bound prefix lands behind the previous prefix's, written once. A caller
//! reusing one buffer across intersections clears it between calls; counters
//! and output are those of clear-then-intersect either way.
//!
//! # Work accounting
//!
//! * Gallop records `intersect_steps` (smallest-set elements consumed) and
//!   `probes` (galloping search probes) — the classic tallies.
//! * Merge records `comparisons` (two-pointer loop iterations).
//! * Bitmap records `comparisons` (elements scanned into bitsets) and `probes`
//!   (bitset words touched); over prebuilt layouts nothing is scanned, so it
//!   records `probes` alone.
//!
//! The adaptive policy only chooses merge when `max/min ≤ 8` and bitmap when the
//! span is within a constant factor of the smallest set, so every kernel's cost
//! stays `O(m)` up to the same log/constant factors the paper's analyses absorb —
//! adaptivity never gives up worst-case optimality.

use crate::simd::{self, SimdLevel};
use crate::stats::WorkCounter;
use crate::Value;

/// Which intersection kernel the execution layer should run. Carried through
/// `ExecOptions` in `wcoj-core`; [`KernelPolicy::Adaptive`] is the default.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KernelPolicy {
    /// Choose per intersection by the span/size-ratio heuristic ([`choose_kernel`]).
    #[default]
    Adaptive,
    /// Force the branchless pairwise merge kernel.
    Merge,
    /// Force the smallest-driven galloping kernel.
    Gallop,
    /// Force the small-domain bitmap kernel (falls back to galloping when the
    /// common span is too wide for bitsets to be affordable).
    Bitmap,
}

impl KernelPolicy {
    /// All policy values, for differential tests sweeping the policy space.
    pub const ALL: [KernelPolicy; 4] = [
        KernelPolicy::Adaptive,
        KernelPolicy::Merge,
        KernelPolicy::Gallop,
        KernelPolicy::Bitmap,
    ];
}

/// The concrete kernel that ran — what the adaptive policy chose (or the forced
/// kernel after fallbacks). Recorded per invocation in the [`WorkCounter`]
/// breakdown.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelKind {
    /// Branchless pairwise merge.
    Merge,
    /// Smallest-driven galloping search.
    Gallop,
    /// Span-windowed bitset AND.
    Bitmap,
}

/// Merge is chosen when the largest list is at most this many times the smallest:
/// below that ratio the merge kernel's `O(m + M)` beats galloping's branchy
/// `O(m log(M/m))` on real hardware.
pub const MERGE_MAX_RATIO: usize = 8;

/// Bitmap is considered only when the common span is at most this many values
/// (64 machine words — small enough to live in L1).
pub const BITMAP_MAX_SPAN: u64 = 4096;

/// ... and the span must be within this factor of the smallest list, so the
/// `span/64` word walk stays proportional to the smallest set.
pub const BITMAP_SPAN_PER_ELEMENT: u64 = 16;

/// Lists at or below this length skip the heuristic and merge directly — the
/// kernel-choice arithmetic would cost more than the intersection.
const TINY_LIST: usize = 4;

/// Stack-allocated frontier capacity: intersections of up to this many lists run
/// without heap allocation for their bookkeeping (queries with more atoms per
/// variable fall back to a `Vec`). The execution layer sizes its slice-gather
/// buffers against the same constant.
pub const MAX_INLINE_LISTS: usize = 16;

/// Pick the kernel for `lists` (all non-empty) whose common span is `[lo, hi]`.
/// Exposed so tests and experiments can audit the heuristic directly.
pub fn choose_kernel(lists: &[&[Value]], lo: Value, hi: Value) -> KernelKind {
    let m = lists.iter().map(|l| l.len()).min().unwrap_or(0);
    let max_len = lists.iter().map(|l| l.len()).max().unwrap_or(0);
    if m <= TINY_LIST {
        return if max_len <= MERGE_MAX_RATIO * m.max(1) {
            KernelKind::Merge
        } else {
            KernelKind::Gallop
        };
    }
    // the span is `width + 1`, which overflows when the operands hold both 0
    // and `u64::MAX`: compare widths (`span <= x` is `width < x`)
    let width = hi - lo;
    if width < BITMAP_MAX_SPAN && width < BITMAP_SPAN_PER_ELEMENT.saturating_mul(m as u64) {
        KernelKind::Bitmap
    } else if max_len <= MERGE_MAX_RATIO * m {
        KernelKind::Merge
    } else {
        KernelKind::Gallop
    }
}

/// Intersect any number of sorted, deduplicated value slices under `policy`,
/// returning a fresh vector. See [`intersect_into`] for the appending variant
/// the engines' hot loops use.
pub fn intersect(lists: &[&[Value]], policy: KernelPolicy, counter: &WorkCounter) -> Vec<Value> {
    let mut out = Vec::new();
    intersect_into(&mut out, lists, policy, counter);
    out
}

/// Intersect `lists` under `policy`, **appending** the result to `out` (see the
/// module docs' *Append contract*) and recording work and the kernel choice
/// into `counter`. All kernels produce identical output: the ascending sorted
/// intersection. Runs at the detected SIMD level; the SIMD level never changes
/// output or counters. Returns the kernel that ran (`None` when a short-circuit
/// skipped the kernel layer).
pub fn intersect_into(
    out: &mut Vec<Value>,
    lists: &[&[Value]],
    policy: KernelPolicy,
    counter: &WorkCounter,
) -> Option<KernelKind> {
    intersect_into_at(simd::active_level(), out, lists, policy, counter)
}

/// [`intersect_into`] at an explicit SIMD level, appending to `out` like every
/// `*_into` here. The execution layer resolves the level once per query and
/// calls this in its hot loop; differential tests pin it to compare code paths.
/// Returns the kernel that ran, so tracing can attribute the choice per level;
/// `None` means a short-circuit (empty operand, single list, disjoint spans)
/// answered before any kernel dispatched. The return value is derived from
/// state the function computes anyway, so ignoring it costs nothing.
pub fn intersect_into_at(
    level: SimdLevel,
    out: &mut Vec<Value>,
    lists: &[&[Value]],
    policy: KernelPolicy,
    counter: &WorkCounter,
) -> Option<KernelKind> {
    let (lo, hi, smallest) = span_and_smallest(lists)?;
    if let [only] = lists {
        // degenerate "intersection": enumerate the single set
        counter.add_intersect_steps(only.len() as u64);
        out.extend_from_slice(only);
        return None;
    }
    // Common span prefilter: disjoint spans short-circuit before any kernel
    // runs.
    if lo > hi {
        return None;
    }
    let kind = match policy {
        KernelPolicy::Adaptive => choose_kernel(lists, lo, hi),
        KernelPolicy::Merge => KernelKind::Merge,
        KernelPolicy::Gallop => KernelKind::Gallop,
        KernelPolicy::Bitmap => {
            // a forced bitmap over a wide sparse span would allocate far more
            // words than there are elements; degrade to galloping
            let words = (hi - lo) / 64 + 1;
            let total: usize = lists.iter().map(|l| l.len()).sum();
            if words > 2 * (total as u64 + 8) {
                KernelKind::Gallop
            } else {
                KernelKind::Bitmap
            }
        }
    };
    counter.add_kernel(kind);
    match kind {
        KernelKind::Merge => merge_intersect(level, out, lists, counter),
        KernelKind::Gallop => gallop_intersect(level, out, lists, smallest, counter),
        KernelKind::Bitmap => bitmap_intersect(level, out, lists, smallest, lo, hi, counter),
    }
    Some(kind)
}

/// The common span of `lists` — the intersection lives in `[max of firsts,
/// min of lasts]` — and the index of the (first) smallest list; `None` when
/// there is no list or some list is empty.
fn span_and_smallest(lists: &[&[Value]]) -> Option<(Value, Value, usize)> {
    let (first, rest) = lists.split_first()?;
    let (mut lo, mut hi) = (*first.first()?, *first.last()?);
    let mut smallest = 0;
    for (i, list) in rest.iter().enumerate() {
        lo = lo.max(*list.first()?);
        hi = hi.min(*list.last()?);
        if list.len() < lists[smallest].len() {
            smallest = i + 1;
        }
    }
    Some((lo, hi, smallest))
}

/// Branchless two-pointer intersection of two sorted slices, appending to `out`.
/// Returns the number of loop iterations (= comparisons).
#[inline]
fn merge2(out: &mut Vec<Value>, a: &[Value], b: &[Value]) -> u64 {
    let (mut i, mut j) = (0usize, 0usize);
    let mut cmps = 0u64;
    while i < a.len() && j < b.len() {
        let x = a[i];
        let y = b[j];
        if x == y {
            out.push(x);
        }
        // both advances are data-independent selects, not branches
        i += (x <= y) as usize;
        j += (y <= x) as usize;
        cmps += 1;
    }
    cmps
}

/// The comparison count the scalar [`merge2`] loop performs on `(a, b)`, in
/// closed form, given the number of matches `m`.
///
/// Every scalar iteration advances `i + j` by 1 (strict inequality) or 2
/// (match), so with terminal positions `(fi, fj)` the iteration count is
/// `fi + fj - m`. The terminal positions follow from the last elements: if
/// `a_last < b_last` the loop ends by exhausting `a` with `j` at the number of
/// `b` values `<= a_last` (symmetrically for `>`); equal last elements exhaust
/// both. This lets the SIMD block kernel — which takes a different path through
/// the data — charge *exactly* the scalar comparison tally.
fn merge2_cost(a: &[Value], b: &[Value], m: u64) -> u64 {
    if a.is_empty() || b.is_empty() {
        return 0;
    }
    let a_last = a[a.len() - 1];
    let b_last = b[b.len() - 1];
    let (fi, fj) = match a_last.cmp(&b_last) {
        std::cmp::Ordering::Equal => (a.len(), b.len()),
        std::cmp::Ordering::Less => (a.len(), b.partition_point(|&y| y <= a_last)),
        std::cmp::Ordering::Greater => (a.partition_point(|&x| x <= b_last), b.len()),
    };
    (fi + fj) as u64 - m
}

/// Two-way merge intersection at `level`, appending to `out` and returning the
/// scalar-equivalent comparison count (direct for scalar, closed-form for SIMD).
fn merge2_counted(level: SimdLevel, out: &mut Vec<Value>, a: &[Value], b: &[Value]) -> u64 {
    match level {
        SimdLevel::Scalar => merge2(out, a, b),
        _ => {
            let before = out.len();
            simd::merge2_into(level, out, a, b);
            let m = (out.len() - before) as u64;
            debug_assert_eq!(
                merge2_cost(a, b, m),
                {
                    let mut chk = Vec::new();
                    merge2(&mut chk, a, b)
                },
                "closed-form merge cost diverged from the scalar loop"
            );
            merge2_cost(a, b, m)
        }
    }
}

/// Pairwise merge intersection, smallest lists first so the accumulator — the
/// part of `out` this call appended — shrinks as early as possible.
fn merge_intersect(
    level: SimdLevel,
    out: &mut Vec<Value>,
    lists: &[&[Value]],
    counter: &WorkCounter,
) {
    debug_assert!(lists.len() >= 2);
    let mut order_buf = [0usize; MAX_INLINE_LISTS];
    let mut order_vec;
    let order: &mut [usize] = if lists.len() <= MAX_INLINE_LISTS {
        let o = &mut order_buf[..lists.len()];
        for (i, slot) in o.iter_mut().enumerate() {
            *slot = i;
        }
        o
    } else {
        order_vec = (0..lists.len()).collect::<Vec<_>>();
        &mut order_vec
    };
    order.sort_unstable_by_key(|&i| lists[i].len());

    let start = out.len();
    let mut cmps = merge2_counted(level, out, lists[order[0]], lists[order[1]]);
    match level {
        SimdLevel::Scalar => {
            for &i in &order[2..] {
                if out.len() == start {
                    break;
                }
                cmps += retain_common(out, start, lists[i]);
            }
        }
        _ => {
            // The SIMD block kernel can't retain in place (block writes may
            // overrun the read frontier), so for each extra list the
            // accumulator moves to one scratch vector and is merged back onto
            // the caller's prefix. retain_common is the same two-pointer loop
            // as merge2, so the closed-form cost still applies.
            let mut acc: Vec<Value> = Vec::new();
            for &i in &order[2..] {
                if out.len() == start {
                    break;
                }
                acc.clear();
                acc.extend_from_slice(&out[start..]);
                out.truncate(start);
                cmps += merge2_counted(level, out, &acc, lists[i]);
            }
        }
    }
    counter.add_comparisons(cmps);
}

/// Drop every element of `out[start..]` (sorted, distinct) not also present in
/// `b`, via a two-pointer pass with an in-place write cursor — the intersection
/// is a subset of it, so no scratch buffer is needed and the caller's prefix
/// and allocation survive. Returns the number of loop iterations
/// (= comparisons).
fn retain_common(out: &mut Vec<Value>, start: usize, b: &[Value]) -> u64 {
    let (mut r, mut j, mut w) = (start, 0usize, start);
    let mut cmps = 0u64;
    while r < out.len() && j < b.len() {
        let x = out[r];
        let y = b[j];
        if x == y {
            out[w] = x;
            w += 1;
        }
        r += (x <= y) as usize;
        j += (y <= x) as usize;
        cmps += 1;
    }
    out.truncate(w);
    cmps
}

/// Smallest-driven galloping intersection: enumerate the smallest list
/// (`lists[smallest]`), gallop in the others with monotone frontiers,
/// early-exiting when any frontier runs out.
fn gallop_intersect(
    level: SimdLevel,
    out: &mut Vec<Value>,
    lists: &[&[Value]],
    smallest: usize,
    counter: &WorkCounter,
) {
    debug_assert!(lists.len() >= 2);
    let mut pos_buf = [0usize; MAX_INLINE_LISTS];
    let mut pos_vec;
    let positions: &mut [usize] = if lists.len() <= MAX_INLINE_LISTS {
        &mut pos_buf[..lists.len()]
    } else {
        pos_vec = vec![0usize; lists.len()];
        &mut pos_vec
    };

    let mut steps = 0u64;
    'outer: for &v in lists[smallest] {
        steps += 1;
        for (i, list) in lists.iter().enumerate() {
            if i == smallest {
                continue;
            }
            let pos = crate::ops::gallop_at(level, list, positions[i], v, counter);
            positions[i] = pos;
            if pos >= list.len() {
                break 'outer; // this list is exhausted: nothing further matches
            }
            if list[pos] != v {
                continue 'outer;
            }
        }
        out.push(v);
    }
    counter.add_intersect_steps(steps);
}

/// Span-windowed bitset intersection: seed a bitset over `[lo, hi]` from the
/// smallest list (`lists[smallest]`), AND in a bitset of each other list, then
/// decode set bits (in word order, so the output is ascending).
fn bitmap_intersect(
    level: SimdLevel,
    out: &mut Vec<Value>,
    lists: &[&[Value]],
    smallest: usize,
    lo: Value,
    hi: Value,
    counter: &WorkCounter,
) {
    debug_assert!(lists.len() >= 2);
    let words = ((hi - lo) / 64 + 1) as usize;

    // the adaptive policy caps the span at BITMAP_MAX_SPAN (64 words), so the
    // common case runs on a stack buffer; only a forced wide-span Bitmap (within
    // its own affordability cap) spills to the heap
    const STACK_WORDS: usize = (BITMAP_MAX_SPAN / 64) as usize;
    let mut acc_buf = [0u64; STACK_WORDS];
    let mut acc_vec;
    let acc: &mut [u64] = if words <= STACK_WORDS {
        &mut acc_buf[..words]
    } else {
        acc_vec = vec![0u64; words];
        &mut acc_vec
    };

    // Each list's in-span window is ascending, so the values hitting one bitset
    // word are contiguous: accumulate each word's bits in a register and touch
    // memory once per (list, word) instead of once per element. The other lists
    // AND straight into `acc` — words they skip are zeroed in passing — so no
    // second bitset buffer (with its zero + AND passes) exists at all. Scanned
    // elements and words touched are unchanged, so the counter tallies are
    // identical to the two-buffer formulation.
    let mut scanned = 0u64;
    let in_span = |l: &[Value]| -> std::ops::Range<usize> {
        let start = l.partition_point(|&x| x < lo);
        let end = l.partition_point(|&x| x <= hi);
        start..end
    };
    {
        let window = &lists[smallest][in_span(lists[smallest])];
        scanned += window.len() as u64;
        let mut run_word = usize::MAX;
        let mut run_bits = 0u64;
        for &v in window {
            let off = (v - lo) as usize;
            let w = off / 64;
            if w != run_word {
                if run_word != usize::MAX {
                    acc[run_word] = run_bits;
                }
                run_word = w;
                run_bits = 0;
            }
            run_bits |= 1u64 << (off % 64);
        }
        if run_word != usize::MAX {
            acc[run_word] = run_bits;
        }
    }
    for (i, list) in lists.iter().enumerate() {
        if i == smallest {
            continue;
        }
        let window = &list[in_span(list)];
        scanned += window.len() as u64;
        let mut next_unflushed = 0usize;
        let mut run_word = usize::MAX;
        let mut run_bits = 0u64;
        for &v in window {
            let off = (v - lo) as usize;
            let w = off / 64;
            if w != run_word {
                if run_word != usize::MAX {
                    acc[next_unflushed..run_word].fill(0);
                    acc[run_word] &= run_bits;
                    next_unflushed = run_word + 1;
                }
                run_word = w;
                run_bits = 0;
            }
            run_bits |= 1u64 << (off % 64);
        }
        if run_word != usize::MAX {
            acc[next_unflushed..run_word].fill(0);
            acc[run_word] &= run_bits;
            next_unflushed = run_word + 1;
        }
        acc[next_unflushed..].fill(0);
    }
    counter.add_comparisons(scanned);
    counter.add_probes((words * lists.len()) as u64);

    simd::decode_words(level, out, lo, acc);
}

/// The most words one layout takes: a dense group spans at most
/// [`BITMAP_MAX_SPAN`] values, plus the one word the 64-grid alignment costs.
const LAYOUT_MAX_WORDS: usize = (BITMAP_MAX_SPAN / 64) as usize + 1;

/// A dense sibling group's prebuilt **set layout**: `(base, words)` where `base`
/// is a multiple of 64 and bit `b` of `words[i]` says whether `base + 64·i + b`
/// is in the group. See the module docs.
pub type Layout<'a> = (Value, &'a [u64]);

/// How many bitset words the set layout of `group` (sorted, distinct) takes —
/// `0` when the group is sparse and gets no layout. Dense is the adaptive
/// policy's bitmap condition under the fixed thresholds, applied to the group's
/// own span: more than [`TINY_LIST`] values, spanning at most
/// [`BITMAP_MAX_SPAN`] and at most [`BITMAP_SPAN_PER_ELEMENT`] per value — so a
/// layout costs at most `⌈span/64⌉ + 1 ≤ len/4 + 2` words (the `+ 1` is the
/// 64-grid alignment).
fn layout_words(group: &[Value]) -> usize {
    let (Some(&first), Some(&last)) = (group.first(), group.last()) else {
        return 0;
    };
    // widths, not spans: `last - first + 1` overflows on a {0, .., u64::MAX} group
    let width = last - first;
    if group.len() <= TINY_LIST
        || width >= BITMAP_MAX_SPAN
        || width >= BITMAP_SPAN_PER_ELEMENT * group.len() as u64
    {
        return 0;
    }
    (last / 64 - first / 64 + 1) as usize
}

/// The one builder of set layouts: if `group` (sorted, distinct) is dense (see
/// the module docs for the rule), append its bitset words to `pool` — on the
/// absolute 64-grid ([`layout_of`] turns them back into a [`Layout`]) — and return
/// how many were appended; `0`, with `pool` untouched, for a sparse group.
pub fn append_layout(pool: &mut Vec<u64>, group: &[Value]) -> usize {
    let n = layout_words(group);
    if n > 0 {
        let start = pool.len();
        pool.resize(start + n, 0);
        for &v in group {
            pool[start + (v / 64 - group[0] / 64) as usize] |= 1u64 << (v % 64);
        }
    }
    n
}

/// The [`Layout`] of a group whose first value is `first` over the `words`
/// [`append_layout`] appended for it — `None` when it appended none (a sparse
/// group). With `append_layout` and `members_between`, the only code that
/// knows the 64-grid.
#[inline]
pub fn layout_of(first: Value, words: &[u64]) -> Option<Layout<'_>> {
    (!words.is_empty()).then_some((first / 64 * 64, words))
}

/// How many members of the group whose layout is `(base, words)` lie in
/// `[from, to)`, for a member `from` and any `to >= from`: the set bits between
/// the two, counted a word at a time. From `from`'s position in the group, that
/// many places on is the least member `>= to`, or the group's end when there is
/// none — so a cursor repositions by rank instead of searching.
#[inline]
pub(crate) fn members_between((base, words): Layout<'_>, from: Value, to: Value) -> usize {
    debug_assert!(base <= from && from <= to);
    let (from, to) = (from - base, to - base);
    let (first, last) = ((from / 64) as usize, to / 64);
    let below_to = |word: u64| word & ((1u64 << (to % 64)) - 1);
    let head = words[first] & (u64::MAX << (from % 64));
    if last == first as u64 {
        return below_to(head).count_ones() as usize;
    }
    // a `to` past the last word counts every member from `from` on
    let last = last.min(words.len() as u64) as usize;
    let full: u32 = words[first + 1..last].iter().map(|w| w.count_ones()).sum();
    let tail = words.get(last).map_or(0, |&w| below_to(w).count_ones());
    (head.count_ones() + full + tail) as usize
}

/// Intersect `k ≥ 2` dense groups through their prebuilt [`Layout`]s,
/// **appending** to `out`: `lists[i]` is what remains of group `i` from its
/// cursor's position and `layouts[i]` the whole group's layout. The common span
/// comes from `lists` exactly as [`intersect_into_at`]'s prefilter computes it
/// — which also masks off the values behind each cursor — and the covered
/// words are ANDed first (every layout sits on the same 64-grid), masked at the
/// span's two ends, then decoded ascending by [`simd::decode_words`] at
/// `level`, the only step the level changes. Nothing is scanned, so the charge
/// is one `Bitmap` invocation and `words · k` probes, no comparisons, and the
/// decode is uncharged. Returns `None` when a short-circuit (empty operand,
/// disjoint spans) answered first.
#[inline]
pub fn intersect_layouts_into(
    level: SimdLevel,
    out: &mut Vec<Value>,
    lists: &[&[Value]],
    layouts: &[Layout<'_>],
    counter: &WorkCounter,
) -> Option<KernelKind> {
    debug_assert!(lists.len() >= 2 && lists.len() == layouts.len());
    let mut lo = Value::MIN;
    let mut hi = Value::MAX;
    for l in lists {
        lo = lo.max(*l.first()?);
        hi = hi.min(*l.last()?);
    }
    if lo > hi {
        return None;
    }
    let (first, last) = (lo / 64, hi / 64);
    counter.add_kernel(KernelKind::Bitmap);
    counter.add_probes((last - first + 1) * layouts.len() as u64);
    // the common span lies inside every group's own, so it covers at most
    // LAYOUT_MAX_WORDS words: the accumulator lives on the stack
    let mut acc = [u64::MAX; LAYOUT_MAX_WORDS];
    let acc = &mut acc[..(last - first + 1) as usize];
    for &(base, words) in layouts {
        let covered = &words[(first - base / 64) as usize..][..acc.len()];
        for (bits, &word) in acc.iter_mut().zip(covered) {
            *bits &= word;
        }
    }
    acc[0] &= u64::MAX << (lo % 64);
    acc[acc.len() - 1] &= u64::MAX >> (63 - hi % 64);
    simd::decode_words(level, out, first * 64, acc);
    Some(KernelKind::Bitmap)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(lists: &[&[Value]], policy: KernelPolicy) -> Vec<Value> {
        intersect(lists, policy, &WorkCounter::new())
    }

    /// Ground truth by brute force membership.
    fn naive(lists: &[&[Value]]) -> Vec<Value> {
        if lists.is_empty() {
            return Vec::new();
        }
        lists[0]
            .iter()
            .copied()
            .filter(|v| lists[1..].iter().all(|l| l.contains(v)))
            .collect()
    }

    /// `group`'s layout words as the access structures build them, `None`
    /// when sparse.
    fn built_words(group: &[Value]) -> Option<Vec<u64>> {
        let mut words = vec![];
        (append_layout(&mut words, group) > 0).then_some(words)
    }

    /// What a caller's `out` already holds when the appending forms run:
    /// neither sorted nor below the shapes' values, and never touched.
    const PREFIX: [Value; 2] = [99, 7];

    /// The dense path over `groups` with each cursor `skip[i]` values in,
    /// appended to `out`: `None` unless every group has a layout.
    fn run_dense_into(
        out: &mut Vec<Value>,
        groups: &[Vec<Value>],
        skip: &[usize],
        w: &WorkCounter,
    ) -> Option<()> {
        let owned: Vec<Vec<u64>> = groups
            .iter()
            .map(|g| built_words(g))
            .collect::<Option<_>>()?;
        let layouts: Vec<Layout> = groups
            .iter()
            .zip(&owned)
            .map(|(g, ws)| layout_of(g[0], ws).expect("dense"))
            .collect();
        let lists: Vec<&[Value]> = groups.iter().zip(skip).map(|(g, &s)| &g[s..]).collect();
        intersect_layouts_into(simd::active_level(), out, &lists, &layouts, w);
        Some(())
    }

    /// [`run_dense_into`] behind [`PREFIX`], which must survive; returns what
    /// was appended.
    fn run_dense(groups: &[Vec<Value>], skip: &[usize], w: &WorkCounter) -> Option<Vec<Value>> {
        let mut out = PREFIX.to_vec();
        run_dense_into(&mut out, groups, skip, w)?;
        assert_eq!(out[..PREFIX.len()], PREFIX, "the prefix is the caller's");
        Some(out.split_off(PREFIX.len()))
    }

    #[test]
    fn all_kernels_agree_on_shapes() {
        let shapes: Vec<Vec<Vec<Value>>> = vec![
            vec![vec![], vec![1, 2, 3]],                     // empty operand
            vec![vec![5]],                                   // singleton, k = 1
            vec![vec![5], vec![5]],                          // singleton match
            vec![vec![5], vec![6]],                          // singleton miss
            vec![vec![1, 2, 3], vec![10, 20]],               // disjoint spans
            vec![vec![1, 5, 9], vec![2, 6, 10], vec![3, 7]], // interleaved, empty
            vec![vec![1, 2, 3, 4], vec![1, 2, 3, 4]],        // fully overlapping
            vec![(0..100).collect(), (0..100).collect(), (50..150).collect()],
            vec![(0..1000).collect(), vec![3, 500, 999]], // extreme ratio
            vec![
                (0..1000).map(|i| i * 97).collect(),
                (0..1000).map(|i| i * 31).collect(),
            ],
            vec![
                vec![0, 63, 64, 127, 128],
                vec![0, 64, 128],
                vec![0, 1, 64, 100, 128],
            ],
            // spans of 2^64: `hi - lo + 1` overflowed here (debug: panic;
            // release: span 0 -> Bitmap -> a 2^58-word allocation)
            vec![
                vec![0, 1, 2, 3, 4, 5, u64::MAX],
                vec![0, 2, 4, 6, 8, 10, u64::MAX],
            ],
            // all dense, straddling word boundaries, firsts off the 64-grid
            vec![
                vec![63, 64, 127, 128, 129],
                vec![60, 63, 64, 65, 128, 130],
                (50..140).collect(),
            ],
            vec![
                (70..200).step_by(3).collect(),
                (100..260).step_by(2).collect(),
            ],
            vec![
                (u64::MAX - 70..=u64::MAX).collect(),
                (u64::MAX - 200..u64::MAX).step_by(2).collect(),
            ],
            vec![(0..64).collect(), (64..128).collect()], // dense, disjoint
        ];
        let mut dense_shapes = 0;
        for lists in &shapes {
            let refs: Vec<&[Value]> = lists.iter().map(|l| l.as_slice()).collect();
            let expected = naive(&refs);
            for policy in KernelPolicy::ALL {
                let fresh = WorkCounter::new();
                assert_eq!(
                    intersect(&refs, policy, &fresh),
                    expected,
                    "policy {policy:?} diverges on {lists:?}"
                );
                // the appending form, on every dispatch level: the caller's
                // prefix survives and the charge is the fresh run's
                for level in simd::runnable_levels() {
                    let (mut out, w) = (PREFIX.to_vec(), WorkCounter::new());
                    intersect_into_at(level, &mut out, &refs, policy, &w);
                    let what = format!("{policy:?} at {level:?} appending on {lists:?}");
                    assert_eq!(out[..PREFIX.len()], PREFIX, "{what}");
                    assert_eq!(out[PREFIX.len()..], expected, "{what}");
                    assert_eq!(w, fresh, "{what}");
                }
            }
            // ... and where every list is dense, so must the prebuilt layouts
            if lists.len() < 2 {
                continue;
            }
            let w = WorkCounter::new();
            if let Some(out) = run_dense(lists, &vec![0; lists.len()], &w) {
                assert_eq!(out, expected, "layouts diverge on {lists:?}");
                assert_eq!(w.comparisons(), 0, "the dense path scans nothing");
                assert_eq!(w.kernel_calls(), w.kernel_bitmap());
                let (mut cleared, fresh) = (Vec::new(), WorkCounter::new());
                run_dense_into(&mut cleared, lists, &vec![0; lists.len()], &fresh);
                assert_eq!(
                    (cleared, &fresh),
                    (out, &w),
                    "appending == clear-then-intersect"
                );
                dense_shapes += 1;
            }
        }
        assert_eq!(dense_shapes, 5);
    }

    #[test]
    fn the_overflow_reproducer_returns_its_four_values() {
        let a: Vec<Value> = vec![0, 1, 2, 3, 4, 5, u64::MAX];
        let b: Vec<Value> = vec![0, 2, 4, 6, 8, 10, u64::MAX];
        for policy in KernelPolicy::ALL {
            assert_eq!(run(&[&a, &b], policy), [0, 2, 4, u64::MAX], "{policy:?}");
        }
        // the widest possible span is never a bitmap candidate
        assert_ne!(choose_kernel(&[&a, &b], 0, u64::MAX), KernelKind::Bitmap);
        assert_eq!(layout_words(&a), 0);
    }

    #[test]
    fn layouts_hold_exactly_their_groups_values() {
        let mut state = 0x1A_707u64;
        let mut next = move |below: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % below
        };
        let (mut dense, mut sparse) = (0, 0);
        for _ in 0..2_000 {
            let first = next(1 << 40);
            let span = 1 + next(6_000);
            let mut group: Vec<Value> = (0..1 + next(400)).map(|_| first + next(span)).collect();
            group.sort_unstable();
            group.dedup();
            let Some(words) = built_words(&group) else {
                sparse += 1;
                assert_eq!(layout_of(group[0], &[]), None);
                continue;
            };
            dense += 1;
            let (base, words) = layout_of(group[0], &words).expect("dense");
            assert_eq!(base % 64, 0);
            assert!(base <= group[0] && group[0] - base < 64);
            assert!(words.len() <= group.len() / 4 + 2, "{} words", words.len());
            let mut decoded = Vec::new();
            simd::decode_words(simd::active_level(), &mut decoded, base, words);
            assert_eq!(decoded, group);
        }
        assert!(
            dense > 200 && sparse > 200,
            "{dense} dense, {sparse} sparse"
        );
    }

    #[test]
    fn the_density_rule_at_its_edges() {
        let with_last = |len: u64, last: u64| -> Vec<Value> {
            (0..len - 1).chain(std::iter::once(last)).collect()
        };
        // more than TINY_LIST values
        assert_eq!(layout_words(&[]), 0);
        assert_eq!(layout_words(&[10, 11, 12, 13]), 0);
        assert_eq!(layout_words(&[10, 11, 12, 13, 14]), 1);
        // span <= BITMAP_MAX_SPAN
        assert_eq!(layout_words(&with_last(300, 4095)), 64); // span 4096
        assert_eq!(layout_words(&with_last(300, 4096)), 0); // span 4097
                                                            // span <= BITMAP_SPAN_PER_ELEMENT * len, here 160
        assert_eq!(layout_words(&with_last(10, 158)), 3); // span 159
        assert_eq!(layout_words(&with_last(10, 159)), 3); // span 160
        assert_eq!(layout_words(&with_last(10, 160)), 0); // span 161
                                                          // the same rule the adaptive policy applies to a common span
        for (len, last) in [
            (300, 4095),
            (300, 4096),
            (10, 159),
            (10, 160),
            (4, 3),
            (5, 4),
        ] {
            let g = with_last(len, last);
            let chosen = choose_kernel(&[&g, &g], 0, last) == KernelKind::Bitmap;
            assert_eq!(layout_words(&g) > 0, chosen, "len {len} last {last}");
        }
        // alignment costs at most one word over the span's own
        let straddling: Vec<Value> = (63..143).step_by(16).chain([142]).collect();
        assert_eq!(straddling.len(), 6);
        assert_eq!(layout_words(&straddling), 3); // span 80: words 0, 1 and 2
    }

    #[test]
    fn values_behind_a_cursor_never_reappear() {
        // both cursors stopped mid-word: 70 and 72 are behind a's, 71 behind b's
        let a: Vec<Value> = vec![65, 70, 72, 75, 80, 100, 130];
        let b: Vec<Value> = vec![66, 70, 71, 72, 75, 100, 129, 130, 131];
        let w = WorkCounter::new();
        let out = run_dense(&[a.clone(), b.clone()], &[3, 3], &w).expect("both dense");
        assert_eq!(out, naive(&[&a[3..], &b[3..]]));
        assert_eq!(out, [75, 100, 130]);
        // [72, 130] covers words 1..=2 of two layouts
        assert_eq!((w.kernel_bitmap(), w.probes(), w.comparisons()), (1, 4, 0));
        // a cursor at its end, or past the other's last value, short-circuits
        let w = WorkCounter::new();
        assert_eq!(
            run_dense(&[a.clone(), b.clone()], &[7, 0], &w),
            Some(vec![])
        );
        assert_eq!(run_dense(&[a, b], &[6, 8], &w), Some(vec![]));
        assert_eq!((w.kernel_calls(), w.probes()), (0, 0));
    }

    #[test]
    fn heuristic_picks_each_kernel() {
        // dense small span -> bitmap
        let a: Vec<Value> = (0..200).collect();
        let b: Vec<Value> = (100..300).collect();
        assert_eq!(choose_kernel(&[&a, &b], 100, 199), KernelKind::Bitmap);
        // comparable sizes, wide sparse span -> merge
        let c: Vec<Value> = (0..200).map(|i| i * 1000).collect();
        let d: Vec<Value> = (0..220).map(|i| i * 997).collect();
        assert_eq!(choose_kernel(&[&c, &d], 0, 199_000), KernelKind::Merge);
        // extreme size ratio -> gallop
        let e: Vec<Value> = (0..100_000).collect();
        let f: Vec<Value> = vec![17, 40_000, 99_999];
        assert_eq!(choose_kernel(&[&e, &f], 17, 99_999), KernelKind::Gallop);
    }

    #[test]
    fn adaptive_records_kernel_breakdown() {
        let w = WorkCounter::new();
        let a: Vec<Value> = (0..200).collect();
        let b: Vec<Value> = (100..300).collect();
        let out = intersect(&[&a, &b], KernelPolicy::Adaptive, &w);
        assert_eq!(out, (100..200).collect::<Vec<_>>());
        assert_eq!(w.kernel_bitmap(), 1);
        assert_eq!(w.kernel_calls(), 1);
        assert!(w.comparisons() > 0, "bitmap counts scanned elements");
        assert!(w.probes() > 0, "bitmap counts words touched");
    }

    #[test]
    fn merge_kernel_counts_comparisons() {
        let w = WorkCounter::new();
        let a: Vec<Value> = (0..100).map(|i| i * 3).collect();
        let b: Vec<Value> = (0..100).map(|i| i * 5).collect();
        let out = intersect(&[&a, &b], KernelPolicy::Merge, &w);
        assert_eq!(out, (0..20).map(|i| i * 15).collect::<Vec<_>>());
        assert_eq!(w.kernel_merge(), 1);
        assert!(w.comparisons() > 0);
        assert_eq!(w.probes(), 0);
    }

    #[test]
    fn gallop_kernel_work_proportional_to_smallest() {
        let w = WorkCounter::new();
        let small: Vec<Value> = vec![10, 500, 900];
        let large: Vec<Value> = (0..100_000).collect();
        let out = intersect(&[&large, &small], KernelPolicy::Gallop, &w);
        assert_eq!(out, small);
        assert_eq!(w.intersect_steps(), 3);
        assert!(w.probes() < 200, "probes = {}", w.probes());
        assert_eq!(w.kernel_gallop(), 1);
    }

    #[test]
    fn forced_bitmap_on_wide_span_degrades_to_gallop() {
        let w = WorkCounter::new();
        let a: Vec<Value> = vec![0, 1, 1 << 40];
        let b: Vec<Value> = vec![1, 1 << 40, 1 << 41];
        let out = intersect(&[&a, &b], KernelPolicy::Bitmap, &w);
        assert_eq!(out, vec![1, 1 << 40]);
        assert_eq!(
            w.kernel_gallop(),
            1,
            "fallback must not allocate 2^34 words"
        );
        assert_eq!(w.kernel_bitmap(), 0);
    }

    #[test]
    fn kway_intersections_agree() {
        let a: Vec<Value> = (0..64).map(|i| i * 2).collect();
        let b: Vec<Value> = (0..64).map(|i| i * 3).collect();
        let c: Vec<Value> = (0..64).map(|i| i * 4).collect();
        let d: Vec<Value> = (0..128).collect();
        let refs: [&[Value]; 4] = [&a, &b, &c, &d];
        let expected = naive(&refs);
        assert!(!expected.is_empty());
        for policy in KernelPolicy::ALL {
            assert_eq!(run(&refs, policy), expected, "{policy:?}");
        }
    }

    #[test]
    fn intersect_into_appends_and_leaves_clearing_to_the_caller() {
        let w = WorkCounter::new();
        let mut out = vec![99, 98, 97];
        let a: Vec<Value> = vec![1, 2, 3];
        intersect_into(&mut out, &[&a, &a], KernelPolicy::Merge, &w);
        assert_eq!(out, vec![99, 98, 97, 1, 2, 3]);
        // every short-circuit leaves `out` alone too
        intersect_into(&mut out, &[], KernelPolicy::Adaptive, &w);
        intersect_into(&mut out, &[&a, &[]], KernelPolicy::Adaptive, &w);
        intersect_into(&mut out, &[&a, &[4, 5]], KernelPolicy::Adaptive, &w);
        assert_eq!(out, vec![99, 98, 97, 1, 2, 3]);
        // a reused buffer is the caller's to clear
        out.clear();
        intersect_into(&mut out, &[&a, &[2, 3, 4]], KernelPolicy::Gallop, &w);
        assert_eq!(out, vec![2, 3]);
    }
}
