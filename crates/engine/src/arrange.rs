//! Immutable sorted runs: the probe structure of a relation that was
//! loaded in bulk and is only read.
//!
//! An [`Arrangement`] is the sorted counterpart of a hash-prefix index:
//! the relation's rows in the order of a **column permutation** that
//! puts the probe columns first (ascending), so a bound-prefix probe
//! becomes two binary searches over a contiguous run instead of a hash
//! lookup through boxed keys. It is made once, over the rows the
//! relation holds at that moment, and never changes. There are two
//! kinds:
//!
//! * **A loaded relation is its own run.** The loader walks a classic
//!   relation's support, which is strictly ascending in tuple order, so
//!   its rows ascend by *constant rank*
//!   ([`Interner::load_relation`](crate::Interner::load_relation)).
//!   Under a mask that is a prefix of the columns the permutation is the
//!   identity, and the run is those rows as they lie: a probe maps its
//!   key ids through the interner's rank table
//!   ([`Interner::rank_table`](crate::Interner::rank_table), shared by
//!   every such run of an evaluation), binary-searches the relation's
//!   own keys by rank, and answers with one range of row ids, already
//!   ascending. An id past the table's end was interned after the load
//!   and matches nothing. Nothing is sorted and no key is copied: on
//!   `dlo_benchmark`'s `wide-lookup` (300 000 arity-4 rows over 134
//!   integers, masks `0b0111` + `0b1111`) traced `reported.arrange_s`
//!   reads ≈ 0.02 ms against 6.6–10.5 ms for the counting sort below,
//!   and `peak_rss_mb` 61.9 against 67.5 MiB on seed 1 (2-core shared
//!   host). Debug builds check the order where the run is made.
//! * **Sorted by counting, in the comparator's order.** Every other run
//!   — a mask that is no prefix, a bulk relation the loader did not
//!   make, and [`ColumnRel::ensure_arranged`](crate::storage::ColumnRel::ensure_arranged)
//!   — holds row ids and permuted key copies ordered by
//!   `radix_order`: the keys are interned ids, dense from 0, so one
//!   counting pass partitions the rows by the leading permuted column,
//!   then least-significant-digit counting passes finish each
//!   partition, in cache — no comparisons. Every pass is stable and the
//!   first reads the rows in row-id order, so the run is exactly the one
//!   a comparison sort by `(permuted key, row id)` gives, which is the
//!   order the probes below rely on (debug builds check it on every
//!   run). On `wide-lookup`'s table that sort read 13.3 ms against
//!   33.0 ms for the same passes run over the whole relation (medians of
//!   five alternating runs, seed 1, 2-core shared host), which had
//!   replaced a comparison sort at 53.7 ms. The same kernel orders every
//!   decode by constant rank ([`crate::output`]).
//! * **One run, no maintenance.** There is no append path. A relation
//!   that grows after its runs were made drops them and answers through
//!   hash indexes from then on
//!   ([`ColumnRel::append_row`](crate::storage::ColumnRel::append_row)):
//!   keeping a sorted order current under one-row appends measured
//!   5–9× the hash index it would replace (see the crate docs), so the
//!   two structures split the regimes instead of sharing them.
//! * **Clones are free.** A sorted run, and a load-order run's rank
//!   table, sit behind an `Arc`; cloning the owning relation copies a
//!   pointer, not the sorted keys.
//! * **Probes stay deterministic.** A load-order run's matches are one
//!   range of row ids. A sorted run is ordered by permuted key and then
//!   by row id, so the rows matching a key prefix come back ascending
//!   only within one full key, and the caller sorts them
//!   ([`probe_arranged`](crate::storage::ColumnRel::probe_arranged)).
//!   Either way a probe yields exactly the order the hash path's
//!   posting lists hold, so every structure emits in the same sequence
//!   and stays bit-identical even on POPS with non-associative `⊕`
//!   (f64).
//!
//! Values are *not* copied into a run: probes return row ids into the
//! owning [`ColumnRel`](crate::storage::ColumnRel)'s flat storage, the
//! same contract as hash probes. A sorted run copies only the permuted
//! keys, which is what its binary search touches.

use std::cmp::Ordering;
use std::ops::Range;
use std::sync::Arc;

use crate::storage::{ColMask, MAX_ARITY};

/// The widest digit [`radix_order`] counts by: a histogram of 2^11
/// `u32` counters is 8 KiB, which stays in the first-level cache while
/// a pass scatters through it.
const MAX_DIGIT_BITS: usize = 11;

/// The widest digit a sort of `n` rows counts by: at most
/// [`MAX_DIGIT_BITS`] and at most the bit length of `n`, so no
/// histogram has more buckets than twice its rows.
fn widest_digit(n: usize) -> usize {
    MAX_DIGIT_BITS.min((usize::BITS - n.leading_zeros()) as usize)
}

/// `bits` split evenly into digits of at most `widest` bits: the number
/// of digits, and the bits of each.
fn split_digits(bits: usize, widest: usize) -> (usize, usize) {
    let digits = bits.div_ceil(widest);
    (digits, bits.div_ceil(digits.max(1)))
}

/// Row ids `0..n` in `(key(r, 0), …, key(r, width − 1), r)` order, where
/// every key is at most `max` — the one sort the engine runs over
/// id-valued keys ([`Arrangement::build`], and the rank-ordered decode in
/// [`crate::output`]).
///
/// **Partition first, then finish each partition in cache.** One stable
/// counting pass splits the rows by the top digit of column 0 — all of
/// column 0 while ids fit one digit — and each partition is then
/// finished by least-significant-digit counting passes over its own
/// rows only: the last column's lowest digit first, column 0's digit
/// below the partition's last. Every pass is stable and the partition
/// pass reads the rows in row-id order, so the result is exactly the
/// lexicographic comparator's with ties broken by row id. Nothing is
/// tuned from outside:
///
/// * a digit is at most [`MAX_DIGIT_BITS`] wide and at most the bit
///   length of the rows it sorts — all `n` for the partition digit, the
///   partition's own for the digits inside — so no histogram has more
///   buckets than twice its rows; the digits of a column split the bits
///   `max` uses evenly, and passes cover only those bits;
/// * the rows are partitioned first only where a partition of average
///   size is finished in no more passes than the whole relation takes
///   ([`partitions_first`]); otherwise the same passes run over the
///   whole relation as one partition. Few rows over wide ids — a decode
///   of 20 000 rows over 2^20 ranks would leave partitions of ≈ 20 rows
///   and 11 passes where the whole relation takes 6 — stay whole;
/// * every histogram is counted in one sequential pass over the rows it
///   sorts, before any scatter;
/// * a pass whose histogram puts every row in one bucket — a constant
///   column, such as the bound column of a point query's answers — is
///   skipped: as a stable pass it would move nothing; a partition pass
///   whose count finds every partition in one run of consecutive rows
///   moves those runs as ranges ([`partition`]).
///
/// Why the passes inside run in cache: a bulk relation is loaded in
/// sorted tuple order ([`Interner::load_relation`](crate::Interner::load_relation)),
/// so the rows sharing a column-0 constant are one contiguous range of
/// row ids, whatever ids the interner gave the constants. Under a mask
/// that leads with column 0 each partition is such a range, and its
/// passes read keys from a few tens of kilobytes of the relation
/// instead of at random across all of it. On `wide-lookup`'s table
/// (300 000 rows, 134 partitions of ≈ 2 240, one digit per column) one
/// build reads 11.6–12.5 ms against 25.4–27.8 ms for the same passes run
/// over the whole relation (medians of 60 alternating builds in one
/// process, 2-core shared host). Where the rows of a partition are
/// scattered — a mask without column 0, a decode in derivation order —
/// each partition's first read misses as every pass over the whole
/// relation did, and the rest hit: `apsp-dense`'s 240 000-row decode
/// reads 0.97–1.02× the passes over the whole relation (two sets of 100
/// and 150 alternating decodes in one process).
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
    let key_bits = (u32::BITS - max.leading_zeros()) as usize;
    if n < 2 || width == 0 || key_bits == 0 {
        return (0..n as u32).collect();
    }
    let (digits, bits) = split_digits(key_bits, widest_digit(n));
    let low_bits = (digits - 1) * bits;
    // Partition `p` is `order[bounds[p]..bounds[p + 1]]`; its own passes
    // sort the `col0_bits` of column 0 below the partition digit.
    let (mut order, bounds, col0_bits) = if partitions_first(n, width, key_bits) {
        let (order, bounds) = partition(n, low_bits, key_bits - low_bits, &key);
        (order, bounds, low_bits)
    } else {
        ((0..n as u32).collect(), vec![0, n as u32], key_bits)
    };
    let mut spare = std::mem::take(scratch);
    spare.clear();
    spare.resize(n, 0);
    let mut passes = Passes::default();
    for p in bounds.windows(2) {
        let (start, end) = (p[0] as usize, p[1] as usize);
        if end - start > 1 {
            let (rows, spare) = (&mut order[start..end], &mut spare[start..end]);
            passes.finish(rows, spare, (width, key_bits, col0_bits), &key);
        }
    }
    spare.clear();
    *scratch = spare;
    order
}

/// Whether [`radix_order`] partitions `n` rows of `width` columns over
/// ids of `key_bits` bits first: only where a partition of the average
/// size — `n` over the partition digit's buckets — is finished in no
/// more passes than the whole relation takes without one, so the rows
/// of such a partition are counted and moved no more often than by
/// passes over the whole relation.
fn partitions_first(n: usize, width: usize, key_bits: usize) -> bool {
    let (digits, bits) = split_digits(key_bits, widest_digit(n));
    let low_bits = (digits - 1) * bits;
    let inner = widest_digit((n >> (key_bits - low_bits)).max(1));
    let passes = |bits| split_digits(bits, inner).0;
    1 + passes(low_bits) + (width - 1) * passes(key_bits) <= width * digits
}

/// The partition pass of [`radix_order`]: row ids `0..n` stably by the
/// `top_bits` of column 0 above `shift`, and the bounds of every
/// partition (`bounds[p]..bounds[p + 1]`). Where the count finds every
/// partition in one run of consecutive rows — one partition, or a
/// load's order under a mask that leads with column 0 — the pass moves
/// those runs as ranges instead of reading every key a second time:
/// 13.1–13.5 ms against 14.4–14.9 ms for the whole build of
/// `wide-lookup`'s run (300 000 rows, 134 partitions; medians of 60
/// alternating builds in one process, 2-core shared host).
fn partition(
    n: usize,
    shift: usize,
    top_bits: usize,
    key: &impl Fn(u32, usize) -> u32,
) -> (Vec<u32>, Vec<u32>) {
    // Rows per partition at `bounds[p + 1]`, then partition `p`'s first
    // position at `bounds[p]`; `first[p]` is the row that opens
    // partition `p`'s last run of consecutive rows.
    let mut bounds = vec![0u32; (1 << top_bits) + 1];
    let mut first = vec![0u32; 1 << top_bits];
    let (mut runs, mut last) = (0, usize::MAX);
    for r in 0..n as u32 {
        let p = (key(r, 0) >> shift) as usize;
        if p != last {
            (runs, last, first[p]) = (runs + 1, p, r);
        }
        bounds[p + 1] += 1;
    }
    let parts = bounds.iter().filter(|&&rows| rows > 0).count();
    for p in 1..bounds.len() {
        bounds[p] += bounds[p - 1];
    }
    let mut order = vec![0u32; n];
    if runs == parts {
        for (&start, p) in first.iter().zip(bounds.windows(2)) {
            let (from, to) = (p[0] as usize, p[1] as usize);
            for (at, r) in order[from..to].iter_mut().zip(start..) {
                *at = r;
            }
        }
    } else {
        let mut at = bounds.clone();
        for r in 0..n as u32 {
            let p = (key(r, 0) >> shift) as usize;
            order[at[p] as usize] = r;
            at[p] += 1;
        }
    }
    (order, bounds)
}

/// The counting passes that finish one partition of [`radix_order`] —
/// or the whole relation, where it is not partitioned first — with the
/// buffers they reuse from partition to partition.
#[derive(Default)]
struct Passes {
    /// `(column, shift, mask)` of every digit below the partition digit,
    /// least significant first: the pass order.
    digits: Vec<(usize, u32, u32)>,
    /// One histogram per digit, in pass order.
    hist: Vec<u32>,
}

impl Passes {
    /// Sorts `rows` — one partition, ascending row ids — through `spare`
    /// (as long as `rows`, contents ignored) by the digits below the
    /// partition digit: columns `1..width` over `key_bits` bits each,
    /// column 0 over its low `col0_bits`.
    fn finish(
        &mut self,
        rows: &mut [u32],
        spare: &mut [u32],
        (width, key_bits, col0_bits): (usize, usize, usize),
        key: &impl Fn(u32, usize) -> u32,
    ) {
        let widest = widest_digit(rows.len());
        self.digits.clear();
        for c in (0..width).rev() {
            let (digits, bits) = split_digits(if c == 0 { col0_bits } else { key_bits }, widest);
            let mask = (1 << bits) - 1;
            self.digits
                .extend((0..digits).map(|d| (c, (d * bits) as u32, mask)));
        }
        let stride = 1 << widest;
        self.hist.clear();
        self.hist.resize(self.digits.len() * stride, 0);
        for &r in rows.iter() {
            for (p, &(c, shift, mask)) in self.digits.iter().enumerate() {
                self.hist[p * stride + ((key(r, c) >> shift) & mask) as usize] += 1;
            }
        }
        let m = rows.len() as u32;
        let mut in_spare = false;
        for (counts, &(c, shift, mask)) in self.hist.chunks_exact_mut(stride).zip(&self.digits) {
            let counts = &mut counts[..=mask as usize];
            if counts.contains(&m) {
                continue;
            }
            let mut start = 0;
            for count in counts.iter_mut() {
                (*count, start) = (start, start + *count);
            }
            let (from, to) = if in_spare {
                (&*spare, &mut *rows)
            } else {
                (&*rows, &mut *spare)
            };
            for &r in from {
                let digit = ((key(r, c) >> shift) & mask) as usize;
                to[counts[digit] as usize] = r;
                counts[digit] += 1;
            }
            in_spare = !in_spare;
        }
        if in_spare {
            rows.copy_from_slice(spare);
        }
    }
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
}

/// The positions of `0..len` where `cmp` is `Equal`, for a `cmp` that
/// runs `Less`, then `Equal`, then `Greater` along the positions: a
/// binary search for the first, then a gallop for the end. Join
/// fan-outs are usually tiny, so a short linear scan from the first
/// match covers the common case in O(match) instead of another
/// O(log n) search, with a binary-search fallback for long runs.
#[inline]
fn equal_range(len: usize, cmp: impl Fn(usize) -> Ordering) -> Range<usize> {
    const LINEAR: usize = 8;
    let first = first_not(0, len, |i| cmp(i) == Ordering::Less);
    let stop = (first + LINEAR).min(len);
    match (first..stop).find(|&i| cmp(i) != Ordering::Equal) {
        Some(end) => first..end,
        None => first..first_not(stop, len, |i| cmp(i) != Ordering::Greater),
    }
}

/// The first position of `lo..hi` where `before` is false (`hi` if
/// none), for a `before` that holds up to some position and not after:
/// a binary search.
#[inline]
fn first_not(mut lo: usize, mut hi: usize, before: impl Fn(usize) -> bool) -> usize {
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if before(mid) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// What a probe of an [`Arrangement`] found.
pub(crate) enum Found<'a> {
    /// A load-order run's matches: one range of the owning relation's
    /// row ids, ascending.
    Rows(Range<u32>),
    /// A sorted run's matches, in (permuted key, row id) order —
    /// ascending by row id only within one full key, so the caller
    /// sorts them.
    Run(&'a [u32]),
}

/// How an [`Arrangement`] holds its order.
#[derive(Clone, Debug)]
enum Run {
    /// Row ids and permuted key copies, sorted by [`radix_order`].
    Sorted(Arc<ArrangeBatch>),
    /// The owning relation's own rows, which ascend by the constant
    /// ranks of this table ([`Interner::rank_table`](crate::Interner::rank_table)):
    /// nothing is copied or sorted.
    Loaded(Arc<[u32]>),
}

/// A relation's rows in the order of one column permutation: a sorted
/// run, or — for a loaded relation under a prefix mask — the rows as
/// they lie. Cloning shares the run or the rank table (`Arc`), not the
/// row data.
#[derive(Clone, Debug)]
pub struct Arrangement {
    arity: usize,
    perm: Vec<u32>,
    run: Run,
}

impl Arrangement {
    /// Orders every row of `keys` (flat row-major, `keys.len() / arity`
    /// rows, row id = position) the way probes through `mask` search: one
    /// [`radix_order`] over the permuted columns, bounded by one scan for
    /// the largest id. The key copy is a slice copy per row where the
    /// permutation is the identity (a mask that is a prefix of the
    /// columns).
    pub(crate) fn build(arity: usize, mask: ColMask, keys: &[u32]) -> Self {
        assert!(arity > 0, "arrangements require arity ≥ 1");
        let perm = perm_for(arity, mask);
        let max = keys.iter().copied().max().unwrap_or(0);
        let mut flat = Vec::with_capacity(keys.len());
        let key = |r: u32, c: usize| keys[r as usize * arity + perm[c] as usize];
        let rows = radix_order(keys.len() / arity, arity, max, key, &mut flat);
        let row = |r: u32| &keys[r as usize * arity..][..arity];
        if perm.iter().copied().eq(0..arity as u32) {
            rows.iter().for_each(|&r| flat.extend_from_slice(row(r)));
        } else {
            for &r in &rows {
                flat.extend(perm.iter().map(|&c| row(r)[c as usize]));
            }
        }
        let at = |i: usize| (&flat[i * arity..][..arity], rows[i]);
        debug_assert!(
            (1..rows.len()).all(|i| at(i - 1) < at(i)),
            "a run out of (permuted key, row id) order"
        );
        Arrangement {
            arity,
            perm,
            run: Run::Sorted(Arc::new(ArrangeBatch { rows, keys: flat })),
        }
    }

    /// The run the rows of `keys` already are, for every prefix mask:
    /// the caller guarantees that they ascend by `rank` (the loader's
    /// order, [`Interner::load_relation`](crate::Interner::load_relation)),
    /// which debug builds check here, and that every id they hold lies
    /// inside `rank`.
    pub(crate) fn in_load_order(arity: usize, rank: Arc<[u32]>, keys: &[u32]) -> Self {
        assert!(arity > 0, "arrangements require arity ≥ 1");
        debug_assert!(
            {
                let ranks = |r: usize| {
                    keys[r * arity..][..arity]
                        .iter()
                        .map(|&id| rank[id as usize])
                };
                (1..keys.len() / arity).all(|r| ranks(r - 1).lt(ranks(r)))
            },
            "a loaded relation out of constant order"
        );
        Arrangement {
            arity,
            perm: (0..arity as u32).collect(),
            run: Run::Loaded(rank),
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
    /// `arrange.batches` reading counts — empty for a load-order run,
    /// which sorted nothing.
    pub fn batches(&self) -> &[Arc<ArrangeBatch>] {
        match &self.run {
            Run::Sorted(run) => std::slice::from_ref(run),
            Run::Loaded(_) => &[],
        }
    }

    /// The rows whose leading `key.len()` permuted columns equal `key`
    /// — two binary searches; `keys` are the owning relation's rows,
    /// which a load-order run searches (a sorted run searches its own
    /// copies). A key id past a load-order run's rank table names a
    /// constant interned after the load, which no row holds.
    #[inline]
    pub(crate) fn probe<'s>(&'s self, keys: &[u32], key: &[u32]) -> Found<'s> {
        debug_assert!(!key.is_empty() && key.len() <= self.arity);
        let arity = self.arity;
        match &self.run {
            Run::Sorted(run) => {
                let at = equal_range(run.len(), |i| run.prefix_cmp(arity, i, key));
                Found::Run(&run.rows[at])
            }
            Run::Loaded(rank) => {
                let mut want = [0u32; MAX_ARITY];
                for (w, &id) in want.iter_mut().zip(key) {
                    match rank.get(id as usize) {
                        Some(&r) => *w = r,
                        None => return Found::Rows(0..0),
                    }
                }
                let want = &want[..key.len()];
                let at = equal_range(keys.len() / arity, |i| {
                    let row = &keys[i * arity..][..want.len()];
                    let ranks = row.iter().map(|&id| rank[id as usize]);
                    ranks.cmp(want.iter().copied())
                });
                Found::Rows(at.start as u32..at.end as u32)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn probe(arr: &Arrangement, keys: &[u32], key: &[u32]) -> Vec<u32> {
        let mut out = match arr.probe(keys, key) {
            Found::Rows(rows) => rows.collect(),
            Found::Run(rows) => rows.to_vec(),
        };
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

    /// Asserts [`radix_order`] over `keys` (flat rows of `arity`, read
    /// in the column order `mask` induces) partitions first iff
    /// `partitioned` and gives the comparator's order, and that the run
    /// [`Arrangement::build`] makes under `mask` is in it too.
    fn assert_sorted_like_the_comparator(
        keys: &[u32],
        arity: usize,
        mask: ColMask,
        partitioned: bool,
        what: &str,
    ) {
        let perm = perm_for(arity, mask);
        let n = keys.len() / arity;
        let max = keys.iter().copied().max().unwrap_or(0);
        let key_bits = (u32::BITS - max.leading_zeros()) as usize;
        assert_eq!(partitions_first(n, arity, key_bits), partitioned, "{what}");
        let key = |r: u32, c: usize| keys[r as usize * arity + perm[c] as usize];
        let want = comparator_order(n, arity, key);
        assert_eq!(
            radix_order(n, arity, max, key, &mut Vec::new()),
            want,
            "{what}"
        );
        let arr = Arrangement::build(arity, mask, keys);
        assert_eq!(arr.batches()[0].rows, want, "{what}: the run");
    }

    /// The shapes the partition pass meets: rows grouped by column 0 as
    /// a load lays them (integers and strings mixed, so id order is not
    /// constant order), one partition of every row, one-row partitions
    /// beside a large one, leading ids past 2^11 (the partition is their
    /// top digit, the rest is finished inside), fewer rows than 2^11
    /// over ids above it, and a permutation that does not start at
    /// column 0 (partitions scattered over the rows). Where an average
    /// partition would need more passes than the whole relation — few
    /// rows over wide ids — the passes run over the whole relation, and
    /// the order is the same.
    #[test]
    fn partition_first_is_the_comparator_order() {
        use crate::Interner;
        use dlo_core::relation::Relation;
        use dlo_core::Constant;
        use dlo_pops::Trop;
        let mut seed = 0x9e37_79b9_7f4a_7c15_u64;
        let mut rng = move |bound: u64| {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed % bound) as u32
        };
        let constant = |i: u32| match i % 3 {
            0 => Constant::str(&format!("s{i}")),
            _ => Constant::int(-(i as i64)),
        };
        for domain in [40, 3_000] {
            let mut interner = Interner::new();
            for i in (0..domain).rev().step_by(7) {
                interner.intern(&constant(i));
            }
            let tuples = (0..6_000).map(|_| {
                let tuple: Vec<Constant> = (0..4).map(|_| constant(rng(domain as u64))).collect();
                (tuple, Trop::finite(1.0))
            });
            let rel = interner.load_relation(&Relation::from_pairs(4, tuples));
            let keys: Vec<u32> = (0..rel.len() as u32)
                .flat_map(|r| rel.row(r).to_vec())
                .collect();
            for mask in [0b0001, 0b0111, 0b1111, 0b0110, 0b1000] {
                let what = format!("loaded, {domain} constants, mask {mask:04b}");
                assert_sorted_like_the_comparator(&keys, 4, mask, true, &what);
            }
        }
        let rows = |n: usize, col: &mut dyn FnMut(usize, usize) -> u32| -> Vec<u32> {
            (0..n * 3).map(|i| col(i / 3, i % 3)).collect()
        };
        let one = rows(40_000, &mut |_, c| if c == 0 { 77 } else { rng(256) });
        assert_sorted_like_the_comparator(&one, 3, 0b111, true, "one partition");
        let ones = rows(40_000, &mut |r, c| match c {
            0 => r.min(255) as u32,
            _ => rng(256),
        });
        let what = "255 one-row partitions and one of the rest";
        assert_sorted_like_the_comparator(&ones, 3, 0b111, true, what);
        let each = rows(5_000, &mut |r, c| match c {
            0 => (r * 7) as u32,
            _ => rng(9),
        });
        assert_sorted_like_the_comparator(&each, 3, 0b111, false, "a distinct column 0");
        let wide = rows(70_000, &mut |_, _| rng(1 << 16));
        assert_sorted_like_the_comparator(&wide, 3, 0b111, true, "70 000 rows, ids below 2^16");
        for (bound, partitioned) in [(1u64 << 12, true), (1 << 20, false), (1 << 32, false)] {
            let past = rows(20_000, &mut |_, _| rng(bound));
            let what = format!("ids below {bound}");
            assert_sorted_like_the_comparator(&past, 3, 0b111, partitioned, &what);
            let few = rows(1_500, &mut |_, _| rng(bound));
            let what = format!("1 500 rows, ids below {bound}");
            assert_sorted_like_the_comparator(&few, 3, 0b111, false, &what);
            let what = format!("{what}, perm [1, 2, 0]");
            assert_sorted_like_the_comparator(&few, 3, 0b110, false, &what);
        }
        let scattered = rows(20_000, &mut |_, _| rng(1 << 12));
        let what = "ids below 2^12, perm [1, 2, 0]";
        assert_sorted_like_the_comparator(&scattered, 3, 0b110, true, what);
        // The shapes the benchmark sorts: `wide-lookup`'s run (300 000
        // rows of arity 4 over 134 ids), `apsp-dense`'s decode (240 000
        // pairs over 500 ranks) partition first; a 20 000-row decode over
        // 2^20 ranks does not.
        assert!(partitions_first(300_000, 4, 8));
        assert!(partitions_first(240_000, 2, 9));
        assert!(!partitions_first(20_000, 3, 21));
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
        assert_eq!(probe(&arr, &rows, &[7]), vec![0, 1, 3]);
        assert_eq!(probe(&arr, &rows, &[3]), vec![2]);
        assert_eq!(probe(&arr, &rows, &[8]), Vec::<u32>::new());
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
