//! A fast, deterministic hasher for the engine's hot maps.
//!
//! Every hot-path map in this crate is keyed by interned ids (`u32`) or
//! flat id slices (`Box<[u32]>`), probed once per candidate row of a
//! join. `std`'s default SipHash is DoS-resistant but costs tens of
//! nanoseconds per slice — measurably the largest single line item in
//! TC-style profiles — and its per-process random seed makes map
//! iteration order vary run to run (the drivers sort wherever order can
//! leak, but deterministic order is still the safer default). This is
//! the classic multiply-xor "Fx" scheme (as popularized by Firefox and
//! rustc): a couple of arithmetic ops per word, fully deterministic.
//!
//! Keys here are interned ids — and, in [`crate::intern`], the constants
//! of the caller's own EDB on their way to becoming ids (that module's
//! docs say why that is the same trust) — never data from a third
//! party, so hash flooding is not a concern.

use std::hash::{BuildHasherDefault, Hasher};

/// Multiplicative constant (high-entropy odd number, the 64-bit golden
/// ratio) spreading each xored word across the hash.
pub(crate) const SEED: u64 = 0x9e37_79b9_7f4a_7c15;

/// The hasher state: one 64-bit accumulator.
#[derive(Default, Clone)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_word(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add_word(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rest.len()].copy_from_slice(rest);
            self.add_word(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add_word(v as u64);
    }
    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add_word(v as u64);
    }
    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add_word(v);
    }
    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add_word(v as u64);
    }
}

/// `HashMap` with the engine's deterministic fast hasher.
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, BuildHasherDefault<FxHasher>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_spreading() {
        let h = |xs: &[u32]| {
            let mut hasher = FxHasher::default();
            for &x in xs {
                hasher.write_u32(x);
            }
            hasher.finish()
        };
        assert_eq!(h(&[1, 2, 3]), h(&[1, 2, 3]), "same input, same hash");
        assert_ne!(h(&[1, 2, 3]), h(&[3, 2, 1]), "order matters");
        assert_ne!(h(&[0]), h(&[1]));
        // Small consecutive ids (the common interned-key shape) spread.
        let hashes: std::collections::BTreeSet<u64> = (0u32..1000).map(|i| h(&[i])).collect();
        assert_eq!(hashes.len(), 1000, "no collisions on small ids");
    }

    #[test]
    fn maps_work_with_slice_keys() {
        let mut m: FxHashMap<Box<[u32]>, u32> = FxHashMap::default();
        m.insert(vec![1, 2].into(), 7);
        assert_eq!(m.get([1, 2].as_slice()), Some(&7));
        assert_eq!(m.get([2, 1].as_slice()), None);
    }
}
