//! Immutable sorted columnar runs: the probe structure of a relation
//! that was loaded in bulk and is only read.
//!
//! An [`Arrangement`] is the sorted counterpart of a hash-prefix index:
//! the relation's rows re-ordered by a **column permutation** that puts
//! the probe columns first (ascending), so a bound-prefix probe becomes
//! two binary searches over a contiguous `u32` run instead of a hash
//! lookup through boxed keys. It is built once, by one sort over the
//! rows the relation holds at that moment, and never changes:
//!
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
    /// Sorts every row of `keys` (flat row-major, `keys.len() / arity`
    /// rows, row id = position) into the order probes through `mask`
    /// search: one sort, the only way an arrangement is made.
    pub(crate) fn build(arity: usize, mask: ColMask, keys: &[u32]) -> Self {
        assert!(arity > 0, "arrangements require arity ≥ 1");
        let perm = perm_for(arity, mask);
        let row = |r: u32| &keys[r as usize * arity..(r as usize + 1) * arity];
        let mut rows: Vec<u32> = (0..(keys.len() / arity) as u32).collect();
        rows.sort_unstable_by(|&a, &b| {
            let (ra, rb) = (row(a), row(b));
            for &c in &perm {
                match ra[c as usize].cmp(&rb[c as usize]) {
                    Ordering::Equal => continue,
                    o => return o,
                }
            }
            a.cmp(&b)
        });
        let mut flat = Vec::with_capacity(keys.len());
        for &r in &rows {
            let key = row(r);
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
