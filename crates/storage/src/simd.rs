//! Explicit-SIMD inner loops for the intersection kernels and cursor seeks.
//!
//! Everything here is **observationally identical** to the scalar code it
//! replaces: same output values in the same order, and — because the callers
//! charge counted work through closed-form replays (see `kernels::merge2_cost`
//! and the seek replays in `ops`) — identical deterministic work counters. The
//! SIMD level is detected once per process and only changes *wall-clock*, never
//! results, so `BENCH_joins.json` work ratios stay exactly 1.000.
//!
//! Dispatch:
//! * x86-64 with AVX2 → 4×u64 block kernels (`_mm256_cmpeq_epi64` + movemask).
//!   Inside that level, set-layout decode ([`decode_words`]) runs a
//!   compress-store body when the host also has AVX-512 F + BW + VBMI2 and
//!   POPCNT (detected once, like the level; see [`decode_vbmi2`]) — a
//!   refinement of the x86 level, not a level of its own.
//! * aarch64 with NEON → 2×u64 block kernels.
//! * anything else → the scalar fallback.
//!
//! Every level without VBMI2 decodes layouts with the branch-light scalar body:
//! 8 unconditional slot writes per word, more rounds only for a word with more
//! than 8 bits set.
//!
//! The level is a function of the host alone: the library reads no
//! environment. Tests that cover every path on one machine pass an explicit
//! [`SimdLevel`], or re-point the process-wide dispatch between runs with
//! [`force_active_level`], as `perf_gate` does for each of
//! [`runnable_levels`].

// The only unsafe in the storage crate (with the `topology` affinity syscalls):
// `#[target_feature]` intrinsics, each call guarded by runtime detection.
#![allow(unsafe_code)]

use crate::Value;
use std::sync::atomic::{AtomicU8, Ordering};

/// Instruction-set level the block kernels run at. Detected once per process
/// ([`active_level`]); every SIMD entry point also accepts an explicit level so
/// differential tests can sweep `Scalar` vs the detected level deterministically.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimdLevel {
    /// Portable scalar loops — the reference semantics.
    Scalar,
    /// AVX2 4-lane u64 blocks (x86-64).
    Avx2,
    /// NEON 2-lane u64 blocks (aarch64).
    Neon,
}

/// Dispatch-level cache: 0 = not yet detected, otherwise `encode_level + 1`.
/// An atomic rather than a `OnceLock` so [`force_active_level`] can re-point
/// dispatch for in-process scalar-vs-SIMD runs.
static ACTIVE: AtomicU8 = AtomicU8::new(0);

fn encode_level(level: SimdLevel) -> u8 {
    match level {
        SimdLevel::Scalar => 1,
        SimdLevel::Avx2 => 2,
        SimdLevel::Neon => 3,
    }
}

fn decode_level(byte: u8) -> SimdLevel {
    match byte {
        2 => SimdLevel::Avx2,
        3 => SimdLevel::Neon,
        _ => SimdLevel::Scalar,
    }
}

/// The SIMD level every kernel dispatches to: the best level the host
/// supports ([`detect_level`]), detected once at first use and stable
/// thereafter unless [`force_active_level`] re-points it.
pub fn active_level() -> SimdLevel {
    match ACTIVE.load(Ordering::Relaxed) {
        0 => {
            // first writer wins, so racing initializers agree on the answer
            let _ = ACTIVE.compare_exchange(
                0,
                encode_level(detect_level()),
                Ordering::Relaxed,
                Ordering::Relaxed,
            );
            decode_level(ACTIVE.load(Ordering::Relaxed))
        }
        byte => decode_level(byte),
    }
}

/// Re-point process-wide dispatch at `level` — the one way to pin a level. A
/// process that wants one level throughout calls it at start-up, before its
/// first kernel; the engine-level parity tests (`core/tests/simd_parity.rs`,
/// `core/tests/dense_layouts.rs`) and `perf_gate` call it between runs to
/// compare the scalar and vector paths in one process. Panics if the host
/// cannot execute `level`. Not for concurrent use with live queries: flip it
/// only between runs.
pub fn force_active_level(level: SimdLevel) {
    assert!(
        runnable_levels().contains(&level),
        "SIMD level {level:?} is not runnable on this host"
    );
    ACTIVE.store(encode_level(level), Ordering::Relaxed);
}

/// The best level the host supports, whatever [`force_active_level`] pinned.
pub fn detect_level() -> SimdLevel {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            return SimdLevel::Avx2;
        }
    }
    #[cfg(target_arch = "aarch64")]
    {
        if std::arch::is_aarch64_feature_detected!("neon") {
            return SimdLevel::Neon;
        }
    }
    SimdLevel::Scalar
}

/// Levels that can actually run on this host (always includes `Scalar`), for
/// tests sweeping every executable path.
pub fn runnable_levels() -> Vec<SimdLevel> {
    let mut levels = vec![SimdLevel::Scalar];
    if detect_level() != SimdLevel::Scalar {
        levels.push(detect_level());
    }
    levels
}

/// Append the sorted intersection of two sorted, deduplicated slices to `out`.
///
/// Block algorithm (Inoue et al. / Schlegel et al. style): compare a 4-lane (or
/// 2-lane) block of `a` against every rotation of a block of `b`, push the
/// matching `a` lanes in lane order, then advance whichever block has the
/// smaller maximum (both on a tie). A matched value can never reappear (values
/// are distinct within each list) and later matches are strictly larger, so the
/// output is the ascending intersection — exactly the scalar merge's output.
pub fn merge2_into(level: SimdLevel, out: &mut Vec<Value>, a: &[Value], b: &[Value]) {
    match level {
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => unsafe { merge2_avx2(out, a, b) },
        #[cfg(target_arch = "aarch64")]
        SimdLevel::Neon => unsafe { merge2_neon(out, a, b) },
        _ => merge2_tail(out, a, b, 0, 0),
    }
}

/// The branchless two-pointer merge from `a[i..]` and `b[j..]`: the scalar
/// level's whole merge, and the block kernels' tail once fewer than a block
/// remains (no counting — callers that need the comparison tally use
/// `kernels::merge2` or the closed form).
#[inline]
fn merge2_tail(out: &mut Vec<Value>, a: &[Value], b: &[Value], mut i: usize, mut j: usize) {
    while i < a.len() && j < b.len() {
        let x = a[i];
        let y = b[j];
        if x == y {
            out.push(x);
        }
        i += (x <= y) as usize;
        j += (y <= x) as usize;
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn merge2_avx2(out: &mut Vec<Value>, a: &[Value], b: &[Value]) {
    use core::arch::x86_64::*;
    let (mut i, mut j) = (0usize, 0usize);
    while i + 4 <= a.len() && j + 4 <= b.len() {
        // SAFETY: i+4 <= a.len() and j+4 <= b.len() bound every unaligned load.
        debug_assert!(i + 4 <= a.len() && j + 4 <= b.len());
        let va = unsafe { _mm256_loadu_si256(a.as_ptr().add(i) as *const __m256i) };
        let vb = unsafe { _mm256_loadu_si256(b.as_ptr().add(j) as *const __m256i) };
        // va against all four rotations of vb: a lane matches iff its value
        // occurs anywhere in the b block
        let m0 = _mm256_cmpeq_epi64(va, vb);
        let m1 = _mm256_cmpeq_epi64(va, _mm256_permute4x64_epi64(vb, 0b00_11_10_01));
        let m2 = _mm256_cmpeq_epi64(va, _mm256_permute4x64_epi64(vb, 0b01_00_11_10));
        let m3 = _mm256_cmpeq_epi64(va, _mm256_permute4x64_epi64(vb, 0b10_01_00_11));
        let hit = _mm256_or_si256(_mm256_or_si256(m0, m1), _mm256_or_si256(m2, m3));
        let mut mask = _mm256_movemask_pd(_mm256_castsi256_pd(hit)) as u32;
        while mask != 0 {
            let lane = mask.trailing_zeros() as usize;
            out.push(a[i + lane]);
            mask &= mask - 1;
        }
        let a_max = a[i + 3];
        let b_max = b[j + 3];
        i += ((a_max <= b_max) as usize) * 4;
        j += ((b_max <= a_max) as usize) * 4;
    }
    merge2_tail(out, a, b, i, j);
}

#[cfg(target_arch = "aarch64")]
#[target_feature(enable = "neon")]
unsafe fn merge2_neon(out: &mut Vec<Value>, a: &[Value], b: &[Value]) {
    use core::arch::aarch64::*;
    let (mut i, mut j) = (0usize, 0usize);
    while i + 2 <= a.len() && j + 2 <= b.len() {
        // SAFETY: i+2 <= a.len() and j+2 <= b.len() bound every load.
        debug_assert!(i + 2 <= a.len() && j + 2 <= b.len());
        let va = unsafe { vld1q_u64(a.as_ptr().add(i)) };
        let vb = unsafe { vld1q_u64(b.as_ptr().add(j)) };
        let m0 = vceqq_u64(va, vb);
        let m1 = vceqq_u64(va, vextq_u64(vb, vb, 1));
        let hit = vorrq_u64(m0, m1);
        if vgetq_lane_u64(hit, 0) != 0 {
            out.push(a[i]);
        }
        if vgetq_lane_u64(hit, 1) != 0 {
            out.push(a[i + 1]);
        }
        let a_max = a[i + 1];
        let b_max = b[j + 1];
        i += ((a_max <= b_max) as usize) * 2;
        j += ((b_max <= a_max) as usize) * 2;
    }
    merge2_tail(out, a, b, i, j);
}

/// First index in `values[start..end]` whose value is `>= target` (the partition
/// point), found with SIMD compare+movemask over 4-lane blocks. Positions and
/// ordering match `slice::partition_point` exactly; only the instruction mix
/// differs. Used by the seek fast paths on short windows, where a predictable
/// forward scan beats a branchy binary search.
///
/// Windows under one vector's width stay on the inlinable scalar loop: a
/// `#[target_feature]` function can't inline into its caller, and for 1–3
/// elements the outlined call costs more than the scan it replaces.
#[inline]
pub fn linear_lub(
    level: SimdLevel,
    values: &[Value],
    start: usize,
    end: usize,
    target: Value,
) -> usize {
    debug_assert!(start <= end && end <= values.len());
    if end - start < 17 {
        return linear_lub_scalar(values, start, end, target);
    }
    match level {
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => unsafe { linear_lub_avx2(values, start, end, target) },
        _ => linear_lub_scalar(values, start, end, target),
    }
}

#[inline]
fn linear_lub_scalar(values: &[Value], start: usize, end: usize, target: Value) -> usize {
    let mut i = start;
    while i < end && values[i] < target {
        i += 1;
    }
    i
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn linear_lub_avx2(values: &[Value], start: usize, end: usize, target: Value) -> usize {
    use core::arch::x86_64::*;
    // unsigned `< target` via sign-bit flip + signed greater-than:
    // target > v  <=>  (target ^ MSB) >s (v ^ MSB)
    let sign = _mm256_set1_epi64x(i64::MIN);
    let vt = _mm256_xor_si256(_mm256_set1_epi64x(target as i64), sign);
    let mut i = start;
    while i + 4 <= end {
        // SAFETY: i+4 <= end <= values.len() bounds the load.
        debug_assert!(i + 4 <= end && end <= values.len());
        let v = unsafe { _mm256_loadu_si256(values.as_ptr().add(i) as *const __m256i) };
        let lt = _mm256_cmpgt_epi64(vt, _mm256_xor_si256(v, sign));
        let mask = _mm256_movemask_pd(_mm256_castsi256_pd(lt)) as u32;
        if mask != 0b1111 {
            // sorted input: the `< target` lanes form a prefix of ones
            return i + mask.count_ones() as usize;
        }
        i += 4;
    }
    linear_lub_scalar(values, i, end, target)
}

/// VBMI2 detection cache: 0 = not yet detected, 1 = absent, 2 = present.
static VBMI2: AtomicU8 = AtomicU8::new(0);

/// Whether [`decode_words`] at `level` runs the VBMI2 compress-store body:
/// the x86 level on a host that also has AVX-512 F, BW, VBMI2 and POPCNT.
/// Detected once at first use; every other case runs the scalar body.
pub fn decode_vbmi2(level: SimdLevel) -> bool {
    if level != SimdLevel::Avx2 {
        return false;
    }
    match VBMI2.load(Ordering::Relaxed) {
        0 => {
            #[cfg(target_arch = "x86_64")]
            let found = std::arch::is_x86_feature_detected!("avx512f")
                && std::arch::is_x86_feature_detected!("avx512bw")
                && std::arch::is_x86_feature_detected!("avx512vbmi2")
                && std::arch::is_x86_feature_detected!("popcnt");
            #[cfg(not(target_arch = "x86_64"))]
            let found = false;
            VBMI2.store(1 + found as u8, Ordering::Relaxed);
            found
        }
        byte => byte == 2,
    }
}

/// Append the values of the bitset `words` — `base + 64·i + b` for every set
/// bit `b` of `words[i]`, ascending — to `out`, leaving what `out` holds
/// untouched. The bits are counted first, so `out` grows once; each word then
/// writes 8 slots unconditionally (garbage past its own values, which the next
/// word or the final length cut off) and more rounds only when it has more
/// than 8 bits, so the loop's exits do not depend on where the bits lie.
pub fn decode_words(level: SimdLevel, out: &mut Vec<Value>, base: Value, words: &[u64]) {
    match level {
        // SAFETY: `decode_vbmi2` saw avx512f, avx512bw, avx512vbmi2 and
        // popcnt on this host.
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 if decode_vbmi2(level) => unsafe { decode_words_vbmi2(out, base, words) },
        _ => decode_words_scalar(out, base, words),
    }
}

/// The portable decode: 8 `tzcnt`/`blsr` slot writes per round into a buffer
/// with 8 spare slots, then cut back to the exact length.
fn decode_words_scalar(out: &mut Vec<Value>, base: Value, words: &[u64]) {
    let total: usize = words.iter().map(|w| w.count_ones() as usize).sum();
    let start = out.len();
    out.resize(start + total + 8, 0);
    let slots = &mut out[start..];
    let mut n = 0;
    for (i, &word) in words.iter().enumerate() {
        let word_base = base + 64 * i as u64;
        let count = word.count_ones() as usize;
        let mut bits = word;
        let mut k = 0;
        loop {
            // rounds end at n + count + 7 at most, inside the 8 spare slots
            for slot in &mut slots[n + k..n + k + 8] {
                // an exhausted word writes word_base + 64: garbage, which may
                // wrap on the top word of the value range
                *slot = word_base.wrapping_add(bits.trailing_zeros() as u64);
                bits &= bits.wrapping_sub(1);
            }
            k += 8;
            if k >= count {
                break;
            }
        }
        n += count;
    }
    out.truncate(start + total);
}

/// Byte `i` is `i`: compressed by a word's bits, it lists their positions.
#[cfg(target_arch = "x86_64")]
const BYTE_IOTA: [u8; 64] = {
    let mut iota = [0u8; 64];
    let mut i = 0;
    while i < 64 {
        iota[i] = i as u8;
        i += 1;
    }
    iota
};

/// The VBMI2 decode: per word, one byte compress of [`BYTE_IOTA`] lists the
/// set bits' positions; 8 of them at a time are zero-extended to `u64`, offset
/// by the word's base and stored as one 8-lane vector. Built with `popcnt`:
/// the workspace targets baseline x86-64, where each `count_ones` here would
/// compile to a 12-instruction bit trick.
///
/// # Safety
///
/// The host must support avx512f, avx512bw, avx512vbmi2 and popcnt.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512bw,avx512vbmi2,popcnt")]
unsafe fn decode_words_vbmi2(out: &mut Vec<Value>, base: Value, words: &[u64]) {
    use core::arch::x86_64::*;
    let total: usize = words.iter().map(|w| w.count_ones() as usize).sum();
    out.reserve(total + 8);
    let start = out.len();
    // SAFETY: `start` is `out`'s length, within its allocation.
    debug_assert!(start + total + 8 <= out.capacity());
    let dst = unsafe { out.as_mut_ptr().add(start) };
    // SAFETY: BYTE_IOTA is 64 readable bytes; the load is unaligned.
    let iota = unsafe { _mm512_loadu_si512(BYTE_IOTA.as_ptr().cast()) };
    let mut n = 0;
    for (i, &word) in words.iter().enumerate() {
        let word_base = _mm512_set1_epi64((base + 64 * i as u64) as i64);
        let count = word.count_ones() as usize;
        let mut positions = _mm512_maskz_compress_epi8(word, iota);
        let mut k = 0;
        loop {
            let eight = _mm512_cvtepu8_epi64(_mm512_castsi512_si128(positions));
            // SAFETY: the `total + 8` reservation above covers this store of
            // slots n + k .. n + k + 8: the last round starts at k = 0 or
            // k < count, so it ends by n + count + 8 <= total + 8.
            debug_assert!(n + k + 8 <= total + 8);
            unsafe {
                _mm512_storeu_si512(dst.add(n + k).cast(), _mm512_add_epi64(eight, word_base))
            };
            k += 8;
            if k >= count {
                break;
            }
            // the next 8 positions move down one lane
            positions = _mm512_alignr_epi64::<1>(positions, positions);
        }
        n += count;
    }
    // SAFETY: within the `total + 8` reservation, every slot below `total` was
    // written with its value: a word's rounds cover its own `count` slots, and
    // the next word's stores start at its first slot, past them.
    debug_assert_eq!(n, total);
    unsafe { out.set_len(start + total) };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_intersect(a: &[Value], b: &[Value]) -> Vec<Value> {
        a.iter().copied().filter(|v| b.contains(v)).collect()
    }

    fn xorshift(seed: &mut u64) -> u64 {
        *seed ^= *seed << 13;
        *seed ^= *seed >> 7;
        *seed ^= *seed << 17;
        *seed
    }

    fn sorted_unique(seed: &mut u64, len: usize, span: u64) -> Vec<Value> {
        let mut v: Vec<Value> = (0..len).map(|_| xorshift(seed) % span).collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    #[test]
    fn merge2_levels_agree_on_random_shapes() {
        let mut seed = 0x9E3779B97F4A7C15;
        for level in runnable_levels() {
            for &(la, lb, span) in &[
                (0usize, 5usize, 10u64),
                (1, 1, 2),
                (3, 200, 400),
                (64, 64, 96),
                (100, 1000, 1500),
                (257, 255, 300),
                (1000, 1000, 4096),
            ] {
                for _ in 0..8 {
                    let a = sorted_unique(&mut seed, la, span);
                    let b = sorted_unique(&mut seed, lb, span);
                    let mut out = Vec::new();
                    merge2_into(level, &mut out, &a, &b);
                    assert_eq!(
                        out,
                        naive_intersect(&a, &b),
                        "{level:?} {la}x{lb} span {span}"
                    );
                }
            }
        }
    }

    #[test]
    fn merge2_handles_extreme_values() {
        for level in runnable_levels() {
            let a = vec![0, 1, u64::MAX - 1, u64::MAX];
            let b = vec![1, 2, u64::MAX];
            let mut out = Vec::new();
            merge2_into(level, &mut out, &a, &b);
            assert_eq!(out, vec![1, u64::MAX], "{level:?}");
        }
    }

    /// The kernels append: behind a prefix, into a vector with no spare
    /// capacity and into one with exactly enough, the prefix stays and the
    /// intersection follows it.
    #[test]
    fn merge2_appends_behind_a_prefix_into_exact_capacity() {
        let mut seed = 0xA99E;
        let prefix = [5, u64::MAX, 0];
        for level in runnable_levels() {
            for &(la, lb, span) in &[(4usize, 4usize, 6u64), (9, 33, 40), (200, 150, 260)] {
                let a = sorted_unique(&mut seed, la, span);
                let b = sorted_unique(&mut seed, lb, span);
                let expected = naive_intersect(&a, &b);
                let mut tight = prefix.to_vec();
                tight.shrink_to_fit();
                let mut exact = Vec::with_capacity(prefix.len() + expected.len());
                exact.extend_from_slice(&prefix);
                for mut out in [tight, exact] {
                    merge2_into(level, &mut out, &a, &b);
                    let what = format!("{level:?} {la}x{lb} span {span}");
                    assert_eq!(out[..prefix.len()], prefix, "{what}: prefix");
                    assert_eq!(out[prefix.len()..], expected, "{what}: values");
                }
            }
        }
    }

    /// Callers probe windows of a longer slice: `start > 0`, `end < len`,
    /// and windows long enough (17 and up) to leave the scalar short path.
    #[test]
    fn linear_lub_matches_partition_point_on_sub_windows() {
        let mut seed = 0x5EB;
        let v = sorted_unique(&mut seed, 160, 1 << 40);
        for level in runnable_levels() {
            for start in [1usize, 2, 3, 5, 8, 31] {
                for width in [17usize, 18, 19, 20, 21, 32, 33, 64, 100] {
                    let end = start + width;
                    assert!(end < v.len());
                    let window = &v[start..end];
                    let mut targets = vec![0, window[0], window[width - 1], u64::MAX];
                    targets.extend(window.iter().step_by(3).map(|&x| x + 1));
                    targets.extend((0..4).map(|_| xorshift(&mut seed) % (1 << 41)));
                    for target in targets {
                        assert_eq!(
                            linear_lub(level, &v, start, end, target),
                            start + window.partition_point(|&x| x < target),
                            "{level:?} [{start}, {end}) target {target}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn linear_lub_matches_partition_point() {
        let mut seed = 0xDEADBEEF;
        for level in runnable_levels() {
            for len in [0usize, 1, 3, 4, 5, 15, 16, 17, 64, 100] {
                let v = sorted_unique(&mut seed, len, 1 << 40);
                for _ in 0..16 {
                    let target = xorshift(&mut seed) % (1 << 41);
                    let expected = v.partition_point(|&x| x < target);
                    assert_eq!(
                        linear_lub(level, &v, 0, v.len(), target),
                        expected,
                        "{level:?} len {len} target {target}"
                    );
                }
                // large targets land at the end; sign-flip must keep order
                assert_eq!(
                    linear_lub(level, &v, 0, v.len(), u64::MAX),
                    v.partition_point(|&x| x < u64::MAX)
                );
            }
        }
    }

    /// The reference: every set bit, one at a time.
    fn naive_decode(base: Value, words: &[u64]) -> Vec<Value> {
        let mut out = Vec::new();
        for (i, &word) in words.iter().enumerate() {
            for b in 0..64 {
                if word >> b & 1 == 1 {
                    out.push(base + 64 * i as u64 + b);
                }
            }
        }
        out
    }

    #[test]
    fn decode_words_is_bit_enumeration_at_every_level() {
        let mut seed = 0xDEC0DE;
        let mut shapes: Vec<(Value, Vec<u64>)> = vec![
            (0, vec![0]),
            (64, vec![u64::MAX]), // 8 rounds
            (u64::MAX - 63, vec![u64::MAX]),
            (u64::MAX - 127, vec![1 << 63, u64::MAX]),
            (128, vec![0x8000_0000_0000_0001, 0, 0]), // a zero tail
        ];
        for len in 1..=65usize {
            let base = xorshift(&mut seed) % (1 << 40) / 64 * 64;
            let words = (0..len)
                .map(|i| match (i + len) % 4 {
                    0 => 0,
                    1 => xorshift(&mut seed) & xorshift(&mut seed) & xorshift(&mut seed),
                    2 => xorshift(&mut seed),
                    _ => u64::MAX,
                })
                .collect();
            shapes.push((base, words));
        }
        for level in runnable_levels() {
            for (base, words) in &shapes {
                let expected = naive_decode(*base, words);
                let what = format!("{level:?} base {base} {} words", words.len());
                // behind a prefix, into no spare capacity, exactly enough,
                // and an empty vector
                let prefix = [7, 99, 3];
                let mut tight = prefix.to_vec();
                tight.shrink_to_fit();
                let mut exact = Vec::with_capacity(prefix.len() + expected.len());
                exact.extend_from_slice(&prefix);
                for (mut out, keep) in [(tight, 3), (exact, 3), (Vec::new(), 0)] {
                    decode_words(level, &mut out, *base, words);
                    assert_eq!(out[..keep], prefix[..keep], "{what}: prefix");
                    assert_eq!(out.len(), keep + expected.len(), "{what}: length");
                    assert_eq!(out[keep..], expected, "{what}: values");
                }
            }
        }
    }

    #[test]
    fn active_level_is_stable() {
        assert_eq!(active_level(), active_level());
    }
}
