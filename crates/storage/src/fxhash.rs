//! The in-tree hasher of the delta layer's live-tuple set.

use std::hash::Hasher;

/// The multiply-rotate "FxHash" scheme (as in rustc's `FxHasher`): live-set
/// lookups sit on the hot path of every delta `insert`/`delete`, and the keys
/// are internal dense dictionary codes — SipHash's DoS resistance buys nothing
/// there, while its per-word cost dominates short-key probes.
#[derive(Debug, Default, Clone)]
pub(crate) struct FxHasher {
    hash: u64,
}

impl FxHasher {
    const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(Self::SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(b as u64);
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_u128(&mut self, n: u128) {
        // two word-adds, not the default 16 byte-adds — the delta layer's
        // packed-tuple live set hashes u128 keys on its hot ingest path
        self.add(n as u64);
        self.add((n >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}
