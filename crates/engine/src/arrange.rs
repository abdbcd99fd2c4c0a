//! Immutable sorted columnar runs: the probe structure of a relation
//! that was loaded in bulk and is only read.
//!
//! An [`Arrangement`] is the sorted counterpart of a hash-prefix index:
//! the relation's rows re-ordered by a **column permutation** that puts
//! the probe columns first (ascending), so a bound-prefix probe becomes
//! two binary searches over a contiguous `u32` run instead of a hash
//! lookup through boxed keys. It is built once, by counting passes over
//! the rows the relation holds at that moment, and never changes:
//!
//! * **Sorted by counting, in the comparator's order.** The keys are
//!   interned ids, dense from 0, so the run is ordered by
//!   `radix_order` — least-significant-digit counting passes over the
//!   permuted columns — and not by comparisons. Every pass is stable and
//!   the first starts from row-id order, so the run is exactly the one a
//!   comparison sort by `(permuted key, row id)` gives, which is the
//!   order the probes below rely on. On `dlo_benchmark`'s `wide-lookup`
//!   (300 000 arity-4 rows over ids below 134: one pass per column)
//!   traced `reported.arrange_s` reads 25.5 ms against 53.7 ms for the
//!   comparison sort through a row-id indirection it replaced (medians of
//!   five alternating runs each, 2-core shared host). The same kernel
//!   orders every decode by constant rank ([`crate::output`]).
//! * **One run, no maintenance.** There is no append path. A relation
//!   that grows after its runs were built drops them and answers through
//!   hash indexes from then on
//!   ([`ColumnRel::append_row`](crate::storage::ColumnRel::append_row)):
//!   keeping a sorted order current under one-row appends measured
//!   5–9× the hash index it would replace (see the crate docs), so the
//!   two structures split the regimes instead of sharing them.
//! * **Clones are free.** The run sits behind an `Arc`; cloning the
//!   owning relation (an `@old` snapshot of a bulk EDB) copies a
//!   pointer, not the sorted keys.
//! * **Probes stay deterministic.** A run is ordered by permuted key
//!   and then by row id, so the rows matching a key prefix come back
//!   ascending only within one full key; the caller sorts them
//!   ([`probe_arranged`](crate::storage::ColumnRel::probe_arranged)) —
//!   exactly the order the hash path's posting lists hold — so both
//!   structures emit in the same sequence and stay bit-identical even
//!   on POPS with non-associative `⊕` (f64).
//!
//! Values are *not* copied into the run: probes return row ids into the
//! owning [`ColumnRel`](crate::storage::ColumnRel)'s flat storage, the
//! same contract as hash probes. Only permuted key copies are
//! materialized, which is what the binary search touches.

use std::cmp::Ordering;
use std::sync::Arc;

use crate::storage::ColMask;

/// The widest digit [`radix_order`] counts by: a histogram of 2^11
/// `u32` counters is 8 KiB, which stays in the first-level cache while
/// a pass scatters through it.
const MAX_DIGIT_BITS: usize = 11;

/// Row ids `0..n` in `(key(r, 0), …, key(r, width − 1), r)` order, where
/// every key is at most `max` — the one sort the engine runs over
/// id-valued keys ([`Arrangement::build`], and the rank-ordered decode in
/// [`crate::output`]).
///
/// Least-significant-digit counting passes: the last column's lowest
/// digit first, the first column's highest digit last. Each pass is
/// stable and the first one starts from row-id order, so the result is
/// exactly the lexicographic comparator's with ties broken by row id.
/// Nothing is tuned from outside:
///
/// * a digit is at most [`MAX_DIGIT_BITS`] wide and at most the bit
///   length of `n`, so no histogram has more buckets than rows; the
///   digits of a column split the bits `max` uses evenly, and passes
///   cover only those bits;
/// * every histogram is counted in one sequential pass over the rows,
///   before any scatter;
/// * a pass whose histogram puts every row in one bucket — a constant
///   column, such as the bound column of a point query's answers — is
///   skipped: as a stable pass it would move nothing.
///
/// `scratch` lends the passes their second buffer of `n` ids; it comes
/// back empty, with its capacity. [`Arrangement::build`] lends the run's
/// own key buffer, which it fills only once the order is known, so the
/// build allocates what a comparison sort did: a buffer of its own read
/// +4.2 MiB `peak_rss_mb` on `wide-lookup` seed 1 (+0.6 borrowed).
pub(crate) fn radix_order(
    n: usize,
    width: usize,
    max: u32,
    key: impl Fn(u32, usize) -> u32,
    scratch: &mut Vec<u32>,
) -> Vec<u32> {
    let mut order: Vec<u32> = (0..n as u32).collect();
    let key_bits = (u32::BITS - max.leading_zeros()) as usize;
    if n < 2 || width == 0 || key_bits == 0 {
        return order;
    }
    let widest = MAX_DIGIT_BITS.min((usize::BITS - n.leading_zeros()) as usize);
    let digits = key_bits.div_ceil(widest);
    let bits = key_bits.div_ceil(digits);
    let buckets = 1usize << bits;
    let mask = (buckets - 1) as u32;
    // Histogram of (column c, digit d) at `(c * digits + d) * buckets`.
    let mut hist = vec![0u32; width * digits * buckets];
    for r in 0..n as u32 {
        for c in 0..width {
            let k = key(r, c);
            for d in 0..digits {
                let digit = ((k >> (d * bits)) & mask) as usize;
                hist[(c * digits + d) * buckets + digit] += 1;
            }
        }
    }
    let mut next = std::mem::take(scratch);
    next.clear();
    next.resize(n, 0);
    let mut in_scratch = false;
    for c in (0..width).rev() {
        for d in 0..digits {
            let counts = &mut hist[(c * digits + d) * buckets..][..buckets];
            if counts.contains(&(n as u32)) {
                continue;
            }
            let mut start = 0;
            for count in counts.iter_mut() {
                (*count, start) = (start, start + *count);
            }
            let shift = d * bits;
            for &r in &order {
                let digit = ((key(r, c) >> shift) & mask) as usize;
                next[counts[digit] as usize] = r;
                counts[digit] += 1;
            }
            std::mem::swap(&mut order, &mut next);
            in_scratch = !in_scratch;
        }
    }
    if in_scratch {
        next.copy_from_slice(&order);
        std::mem::swap(&mut order, &mut next);
    }
    next.clear();
    *scratch = next;
    order
}

/// The sort order induced by a probe mask: the bound columns ascending,
/// then the remaining columns ascending. Because bound columns come
/// first in ascending column order, the probe key (assembled ascending
/// by the executor) is directly comparable to a batch-key prefix, and
/// one arrangement serves every mask whose ascending column list is a
/// prefix of the permutation (`{c0}` rides on `{c0, c1}`'s order).
pub fn perm_for(arity: usize, mask: ColMask) -> Vec<u32> {
    let mut perm: Vec<u32> = (0..arity as u32).filter(|c| mask & (1 << c) != 0).collect();
    perm.extend((0..arity as u32).filter(|c| mask & (1 << c) == 0));
    perm
}

/// One immutable sorted run: row ids plus permuted key copies, ordered
/// lexicographically by permuted key (ties broken by row id, which can
/// only matter transiently — a relation never stores duplicate keys).
#[derive(Debug)]
pub struct ArrangeBatch {
    /// Row ids into the owning relation, parallel to `keys`.
    rows: Vec<u32>,
    /// Flat row-major permuted key copies: `rows.len() * arity` words.
    keys: Vec<u32>,
}

impl ArrangeBatch {
    /// Number of rows in this run.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the run is empty.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Compares row `i`'s leading columns to `key` column by column —
    /// hand-rolled rather than slice `cmp` because probe keys are 1–3
    /// words and this sits inside every binary-search step of every
    /// probe.
    #[inline]
    fn prefix_cmp(&self, arity: usize, i: usize, key: &[u32]) -> Ordering {
        let base = i * arity;
        for (j, k) in key.iter().enumerate() {
            match self.keys[base + j].cmp(k) {
                Ordering::Equal => {}
                o => return o,
            }
        }
        Ordering::Equal
    }

    /// First position whose key prefix is `≥ key`.
    fn lower_bound(&self, arity: usize, key: &[u32]) -> usize {
        let (mut lo, mut hi) = (0, self.len());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if self.prefix_cmp(arity, mid, key) == Ordering::Less {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// First position past `from` whose key prefix is `> key`. Join
    /// fan-outs are usually tiny, so this gallops: a short linear scan
    /// from `from` (already positioned by [`Self::lower_bound`]) covers
    /// the common case in O(match) instead of another O(log n) search,
    /// with a binary-search fallback for long runs.
    fn upper_bound(&self, arity: usize, key: &[u32], from: usize) -> usize {
        const LINEAR: usize = 8;
        let mut i = from;
        let stop = (from + LINEAR).min(self.len());
        while i < stop {
            if self.prefix_cmp(arity, i, key) != Ordering::Equal {
                return i;
            }
            i += 1;
        }
        let (mut lo, mut hi) = (i, self.len());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if self.prefix_cmp(arity, mid, key) == Ordering::Greater {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        lo
    }
}

/// A relation's rows sorted by one column permutation: one immutable
/// run. Cloning shares the run (`Arc`), not the row data.
#[derive(Clone, Debug)]
pub struct Arrangement {
    arity: usize,
    perm: Vec<u32>,
    run: Arc<ArrangeBatch>,
}

impl Arrangement {
    /// Orders every row of `keys` (flat row-major, `keys.len() / arity`
    /// rows, row id = position) the way probes through `mask` search:
    /// one [`radix_order`] over the permuted columns, bounded by one scan
    /// for the largest id — the only way an arrangement is made.
    pub(crate) fn build(arity: usize, mask: ColMask, keys: &[u32]) -> Self {
        assert!(arity > 0, "arrangements require arity ≥ 1");
        let perm = perm_for(arity, mask);
        let max = keys.iter().copied().max().unwrap_or(0);
        let mut flat = Vec::with_capacity(keys.len());
        let key = |r: u32, c: usize| keys[r as usize * arity + perm[c] as usize];
        let rows = radix_order(keys.len() / arity, arity, max, key, &mut flat);
        for &r in &rows {
            let key = &keys[r as usize * arity..][..arity];
            flat.extend(perm.iter().map(|&c| key[c as usize]));
        }
        Arrangement {
            arity,
            perm,
            run: Arc::new(ArrangeBatch { rows, keys: flat }),
        }
    }

    /// Whether probes through `mask` can run against this sort order:
    /// true iff the mask's columns, ascending, are exactly the leading
    /// columns of the permutation.
    pub fn serves(&self, mask: ColMask) -> bool {
        let leading: Vec<u32> = (0..ColMask::BITS)
            .filter(|c| mask & (1 << c) != 0)
            .collect();
        !leading.is_empty() && self.perm.starts_with(&leading)
    }

    /// The sorted run, as the one-element slice the benchmark's
    /// `arrange.batches` reading counts.
    pub fn batches(&self) -> &[Arc<ArrangeBatch>] {
        std::slice::from_ref(&self.run)
    }

    /// Collects into `out` the row ids whose leading `key.len()`
    /// permuted columns equal `key` — two binary searches. `out` is
    /// *not* cleared and *not* sorted here; the caller sorts (see
    /// [`probe_arranged`](crate::storage::ColumnRel::probe_arranged)).
    pub fn probe_into(&self, key: &[u32], out: &mut Vec<u32>) {
        debug_assert!(!key.is_empty() && key.len() <= self.arity);
        let lo = self.run.lower_bound(self.arity, key);
        let hi = self.run.upper_bound(self.arity, key, lo);
        out.extend_from_slice(&self.run.rows[lo..hi]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn probe(arr: &Arrangement, key: &[u32]) -> Vec<u32> {
        let mut out = Vec::new();
        arr.probe_into(key, &mut out);
        out.sort_unstable();
        out
    }

    /// The comparison sort [`radix_order`] replaced, kept as its
    /// reference: lexicographic by key, then by row id.
    fn comparator_order(n: usize, width: usize, key: impl Fn(u32, usize) -> u32) -> Vec<u32> {
        let mut rows: Vec<u32> = (0..n as u32).collect();
        rows.sort_unstable_by(|&a, &b| {
            (0..width)
                .map(|c| key(a, c).cmp(&key(b, c)))
                .find(|o| o.is_ne())
                .unwrap_or(Ordering::Equal)
                .then(a.cmp(&b))
        });
        rows
    }

    /// Random flat keys of every arity 1–5 and every size from empty to
    /// past 2^16 rows, over ids below 2 (ties everywhere), below 134
    /// (`wide-lookup`'s domain: one digit), just past 2^11 (two digits)
    /// and up to `u32::MAX` (three digits at 70 000 rows, more where `n`
    /// caps the digit), each once with column 0 held constant (its
    /// passes skipped) — the counting passes give the comparator's order
    /// every time.
    #[test]
    fn radix_order_is_the_comparator_order() {
        let mut seed = 0x2545_f491_4f6c_dd1d_u64;
        let mut rng = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for width in 1..=5usize {
            for n in [0usize, 1, 2, 1_000, 70_000] {
                for bound in [2u64, 134, (1 << 11) + 2, 1 << 32] {
                    for constant in [false, true] {
                        let mut keys: Vec<u32> =
                            (0..n * width).map(|_| (rng() % bound) as u32).collect();
                        if constant {
                            for row in keys.chunks_mut(width) {
                                row[0] = (bound - 1) as u32;
                            }
                        }
                        let max = keys.iter().copied().max().unwrap_or(0);
                        let key = |r: u32, c: usize| keys[r as usize * width + c];
                        assert_eq!(
                            radix_order(n, width, max, key, &mut Vec::new()),
                            comparator_order(n, width, key),
                            "width {width}, n {n}, ids < {bound}, constant column {constant}"
                        );
                    }
                }
            }
        }
        // No columns, or every key 0: row-id order, untouched.
        let none = radix_order(3, 0, 7, |_, _| unreachable!(), &mut Vec::new());
        assert_eq!(none, vec![0, 1, 2]);
        let zeros = radix_order(3, 2, 0, |_, _| 0, &mut Vec::new());
        assert_eq!(zeros, vec![0, 1, 2]);
    }

    #[test]
    fn perm_puts_bound_columns_first_ascending() {
        assert_eq!(perm_for(3, 0b100), vec![2, 0, 1]);
        assert_eq!(perm_for(4, 0b0101), vec![0, 2, 1, 3]);
        assert_eq!(perm_for(2, 0b11), vec![0, 1]);
    }

    #[test]
    fn built_arrangement_answers_prefix_probes() {
        // Rows of arity 3, probed on column 1 (mask 0b010).
        let rows: Vec<u32> = vec![
            5, 7, 1, // r0
            2, 7, 9, // r1
            4, 3, 0, // r2
            5, 7, 0, // r3
        ];
        let arr = Arrangement::build(3, 0b010, &rows);
        assert_eq!(arr.batches().len(), 1);
        assert_eq!(arr.batches()[0].len(), 4);
        assert_eq!(probe(&arr, &[7]), vec![0, 1, 3]);
        assert_eq!(probe(&arr, &[3]), vec![2]);
        assert_eq!(probe(&arr, &[8]), Vec::<u32>::new());
        // Two-column probe rides the same order: perm = [1, 0, 2], so
        // mask {1} is its own prefix but {0,1} is not ({0,1} ascending
        // = [0,1] ≠ perm prefix [1,0]).
        assert!(arr.serves(0b010));
        assert!(!arr.serves(0b011));
        assert!(!arr.serves(0b001));
    }

    #[test]
    fn prefix_masks_share_one_sort_order() {
        // mask {0, 2} on arity 3 → perm [0, 2, 1]; mask {0} is a prefix.
        let arr = Arrangement::build(3, 0b101, &[]);
        assert!(arr.serves(0b101));
        assert!(arr.serves(0b001));
        assert!(!arr.serves(0b100)); // [2] ≠ leading [0]
        assert!(!arr.serves(0b111)); // [0,1,2] ≠ [0,2,1]
    }
}
