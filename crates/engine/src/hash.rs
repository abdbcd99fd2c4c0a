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
//!
//! ## Which bits the table reads, and what `finish` owes it
//!
//! `std`'s `HashMap` (hashbrown) starts probing at `hash & (buckets − 1)`
//! — the **low** bits — and tells the keys that share a 16-slot group
//! apart by a 7-bit tag taken from the **top** of the hash. A bare
//! multiply feeds the top well (every key bit carries upward) and
//! starves the bottom: the low k bits of `key · odd` depend on the low k
//! bits of `key` and nothing else. The engine's hot keys keep most of
//! what tells them apart *out* of their low bits — `storage::pack` puts
//! column 0 of a pair in the high half of a `u64`, every odd column of a
//! boxed wide key is the high half of an 8-byte chunk, integer constants
//! may share a power-of-two stride — so under the bare multiply every
//! arity-2 row map, two-column index and accumulator started probing at
//! a position set by the *last column alone*: the 239 605 rows of an
//! all-pairs closure over 500 nodes shared 500 probe starts, ≈ 480 keys
//! chained behind each, and one `⊕`-merge cost 190–225 ns instead of the
//! O(1) the step bounds are multiplied by.
//!
//! [`FxHasher::finish`] therefore folds the high half of the product
//! into the low half, `h + (h >> 32)`: the bucket index takes bits
//! `[32, 32 + k)` of the product along, which every key bit below
//! `32 + k` has reached, and the tag stays the product's own top bits
//! (plus a carry). It is the one finalization for every map in the
//! crate — no map mixes its own keys.
//!
//! The fold is an addition, not an xor, for what dense ids visited in
//! order — the engine's commonest access pattern — get out of it: the
//! sum of two arithmetic progressions is one, so consecutive ids still
//! land a constant stride apart, and the bare multiply's best property
//! (dense single ids never collide: the low k bits of `i · odd` are a
//! bijection of `i mod 2ᵏ`) survives the fold — the property test below
//! reads 1.00 · N probe starts on single ids and on pairs with either
//! column fixed, 0.71 · N on the full pair grid (a random function gives
//! 0.79 · N). The xor fold `h ^ (h >> 32)` holds the test too but is
//! merely random-like everywhere (0.67–1.0 · N) and scatters consecutive
//! ids, and the maps keyed by single ids paid for that: 2–4 ns per
//! operation in a microprobe of 6 000–20 000 dense ids, `sssp-sparse`
//! `op_median_s` 0 to +6 % over the bare multiply in three sets
//! totalling 16 pairs, where the additive fold reads level
//! (0.0083 → 0.0082, 10 pairs); on `apsp-dense` the two folds are level. `rotate_left(26)`
//! (rustc-hash 2.x) does not separate from the additive fold on time
//! either (`apsp-dense` 0.199 against 0.188, behind in 6 of 10 pairs)
//! and fails the test: its tag is bits `[31, 38)` of the product — 64
//! of 128 values when only column 0 varies — and its index falls to
//! 0.57 · N when only the last column does; `rotate_left(32)` leaves
//! single ids at 0.28 · N and one tag for a whole high column.

use std::hash::{BuildHasherDefault, Hasher};

/// Multiplicative constant (high-entropy odd number, the 64-bit golden
/// ratio) spreading each xored word across the hash.
const SEED: u64 = 0x9e37_79b9_7f4a_7c15;

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
    /// The accumulator with its high half added into its low half, so
    /// the table's bucket index (low bits) sees every key bit the tag
    /// (top bits) already does — see the module docs.
    #[inline]
    fn finish(&self) -> u64 {
        self.hash.wrapping_add(self.hash >> 32)
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

    /// Asserts what `finish` owes std's table for one family of keys, in
    /// the order given: with N keys and k = ⌈log₂ N⌉ + 1 — the bucket
    /// count the table would hold them in, give or take a doubling —
    /// the low k bits of the hashes take ≥ 0.6 · N distinct values (a
    /// random function gives ≈ 0.79 · N), and every window of 1024
    /// consecutive keys shows ≥ 100 of the 128 top-7-bit tags.
    fn assert_reaches_bucket_and_tag<K: std::hash::Hash>(
        shape: &str,
        keys: impl Iterator<Item = K>,
    ) {
        use std::hash::BuildHasher;
        let build = BuildHasherDefault::<FxHasher>::default();
        let hashes: Vec<u64> = keys.map(|k| build.hash_one(&k)).collect();
        let n = hashes.len();
        let k = n.next_power_of_two().trailing_zeros() + 1;
        let mut hit = vec![false; 1 << k];
        for &h in &hashes {
            hit[(h & ((1 << k) - 1)) as usize] = true;
        }
        let starts = hit.iter().filter(|&&b| b).count();
        assert!(
            starts * 10 >= n * 6,
            "{shape}: {n} keys share {starts} probe starts at {k} index bits"
        );
        let tag = |h: u64| (h >> 57) as usize;
        let (mut count, mut distinct, mut fewest) = ([0u32; 128], 0, 128);
        for (i, &h) in hashes.iter().enumerate() {
            count[tag(h)] += 1;
            distinct += usize::from(count[tag(h)] == 1);
            if i >= 1024 {
                let out = tag(hashes[i - 1024]);
                count[out] -= 1;
                distinct -= usize::from(count[out] == 0);
            }
            if i >= 1023 {
                fewest = fewest.min(distinct);
            }
        }
        assert!(
            fewest >= 100,
            "{shape}: some 1024 consecutive keys show only {fewest} of 128 tags"
        );
    }

    #[test]
    fn bucket_index_and_tag_see_every_column() {
        // Packed pairs (`storage::pack`: column 0 in the high half), the
        // shape of every arity-2 row map, two-column index and
        // accumulator.
        let pair = |a: u64, b: u64| (a << 32) | b;
        assert_reaches_bucket_and_tag(
            "512 x 512 grid of packed pairs",
            (0..512).flat_map(|a| (0..512).map(move |b| pair(a, b))),
        );
        assert_reaches_bucket_and_tag("pairs, column 0 fixed", (0..1 << 16).map(|b| pair(7, b)));
        assert_reaches_bucket_and_tag("pairs, column 1 fixed", (0..1 << 16).map(|a| pair(a, 7)));
        // Single ids: packed width-1 keys, and (the same word through
        // `write_u32`) the `changed` maps' row ids.
        assert_reaches_bucket_and_tag("single ids", 0..1u64 << 18);
        assert_reaches_bucket_and_tag("single u32 ids", 0..1u32 << 18);
        // Boxed wide keys, hashed as a length prefix plus 8-byte chunks:
        // an odd column is the high half of its chunk.
        for width in [3, 4] {
            for col in 0..width {
                assert_reaches_bucket_and_tag(
                    &format!("width-{width} keys varying in column {col}"),
                    (0..1u32 << 16).map(|v| {
                        let mut key = vec![5u32; width];
                        key[col] = v;
                        key.into_boxed_slice()
                    }),
                );
            }
        }
        // Integer constants as the interner's `by_int` hashes them,
        // sharing a power-of-two stride (ids packed as `hi << 16`, say).
        for shift in [16, 20, 32] {
            assert_reaches_bucket_and_tag(
                &format!("i64 constants at stride 2^{shift}"),
                (0..1i64 << 16).map(|n| n << shift),
            );
        }
    }

    #[test]
    fn maps_work_with_slice_keys() {
        let mut m: FxHashMap<Box<[u32]>, u32> = FxHashMap::default();
        m.insert(vec![1, 2].into(), 7);
        assert_eq!(m.get([1, 2].as_slice()), Some(&7));
        assert_eq!(m.get([2, 1].as_slice()), None);
    }
}
