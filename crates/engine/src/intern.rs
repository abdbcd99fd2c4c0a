//! Constant interning: `Constant → u32` with O(1) decode and integer
//! views.
//!
//! Every constant known before evaluation (EDB tuples, program constants)
//! is interned **up front**, so the hot join loops compare and hash plain
//! `u32`s — no `Arc<str>` hashing, no `Constant` clones. The table is
//! *dynamic*: programs whose rule **heads** apply a key function (`W(i+1)
//! :- W(i) ⊗ V(i+1)`, Sec. 4.5) derive constants that did not exist at
//! compile time, and the drivers mint fresh ids for them **between**
//! iterations (the table is frozen while a phase's plans run, so the
//! executor only ever reads it). Minting goes through the same
//! [`Interner::intern`] append path, which keeps the decode (`consts`)
//! and integer (`ints`) side tables in sync by construction.
//!
//! *Body* key-function results are still resolved by *lookup*: a result
//! outside the interned domain cannot match any stored tuple, which is
//! exactly the semantics of joining against finite supports. Head
//! results are different — they name a new row rather than probe an
//! existing one, hence the mint path.
//!
//! ## One pass, one probe per constant
//!
//! The EDB is loaded by [`Interner::load_relation`]: one walk over a
//! classic relation that interns each constant as it is met and appends
//! the id straight into the columns of the [`ColumnRel`] under
//! construction — every stored constant costs exactly one probe of the
//! reverse map. That map is two [`FxHashMap`]s, one per constant kind,
//! so integers are resolved without building or hashing a `Constant`
//! (the executor's [`Interner::lookup_int`] on computed keys takes the
//! same path).
//!
//! **Why the walk reads ahead.** A classic relation is a `BTreeMap` of
//! heap-allocated tuples, so visiting it in key order is one cache (and
//! TLB) miss per tuple at an address the previous tuple says nothing
//! about — 300k of them on the EDB above. Interning a tuple right after
//! fetching it puts four hash probes between one miss and the next, and
//! the processor's window is too short to start the next miss while it
//! works through them: the load then runs at memory *latency*, which on
//! a shared host is the figure that moves most (measured: 30 ms of load
//! in a quiet minute, 55–65 ms in a busy one, while compute-bound code
//! beside it slowed by a fifth). So [`Interner::load_relation`] takes
//! the tuples a batch at a time and first reads one word of every
//! constant in the batch in a loop that does nothing else — those reads
//! are independent, so their misses overlap — and only then interns the
//! batch, from cache. Same tuples, same order, same ids; a quiet host
//! gains little (≈ 30 ms either way), a busy one loses a third less
//! (≈ 40 ms instead of 60), and it is the spread between the two that
//! this is for: over two sets of ten alternating 15 s `wide-lookup`
//! runs, the quartile spread of `facts_per_s` went 2466 and 2534 →
//! 1636 and 1469 facts/s (medians 23.7k → 28.5k; in the second set the
//! lowest run 20.6k → 27.2k). (`#![forbid(unsafe_code)]` rules out the prefetch
//! intrinsic; a plain read whose result is kept alive does the same
//! work.)
//!
//! **Why Fx and not SipHash here.** The load is an O(|input|) term no
//! schedule can amortize, and on a 300k-row arity-4 EDB the SipHash
//! probes (≈ 60 ns each, paid twice per constant by the two-pass loader
//! this replaces) were three quarters of the whole operation. The keys
//! are the caller's own data — the EDB and program text the caller
//! handed to this call, in this process — which is the trust every row
//! map and index in [`crate::storage`] already extends to the same
//! data one step later, so a caller who can craft colliding constants
//! can only slow down their own evaluation. Accidental structure is the
//! hasher's job, here as in every other map of the crate: integer
//! constants that share a power-of-two stride (ids packed as `hi << 16`,
//! say) multiply to hashes with equal low bits, and
//! [`FxHasher::finish`](crate::hash::FxHasher) folds the high half of
//! the product into the bits the table indexes by — `by_int` is keyed by
//! the plain `i64` (the stride cases of
//! `hash::tests::bucket_index_and_tag_see_every_column` hold that).

use crate::hash::FxHashMap;
use crate::storage::ColumnRel;
use dlo_core::relation::Relation;
use dlo_core::value::Constant;
use dlo_pops::Pops;
use std::sync::Arc;

/// Tuples per batch of [`Interner::load_relation`]: a batch of arity-4
/// tuples (≈ 100 bytes each) and the references to them stay inside the
/// first-level cache between the read-ahead and the interning.
const LOAD_BATCH: usize = 256;

/// The word of `c` that interning it reads first — the integer, or the
/// first byte of the string. [`Interner::load_relation`] reads it ahead
/// of time for what the read does to the cache, not for the value.
#[inline]
fn first_word(c: &Constant) -> u64 {
    match c {
        Constant::Int(i) => *i as u64,
        Constant::Str(s) => s.as_bytes().first().map_or(0, |&b| u64::from(b)),
    }
}

/// An append-only constant table with hashed reverse lookup.
#[derive(Clone, Debug, Default)]
pub struct Interner {
    by_int: FxHashMap<i64, u32>,
    by_str: FxHashMap<Arc<str>, u32>,
    consts: Vec<Constant>,
    /// `ints[id]` is `Some(i)` iff `consts[id]` is the integer `i`
    /// (flat side table so comparisons never touch the `Constant` enum).
    ints: Vec<Option<i64>>,
}

impl Interner {
    /// An empty interner.
    pub fn new() -> Self {
        Interner::default()
    }

    /// Interns `c`, returning its id (stable across repeated calls).
    pub fn intern(&mut self, c: &Constant) -> u32 {
        match c {
            Constant::Int(i) => self.intern_int(*i),
            Constant::Str(s) => {
                if let Some(&id) = self.by_str.get(&**s) {
                    return id;
                }
                let id = self.consts.len() as u32;
                self.by_str.insert(Arc::clone(s), id);
                self.consts.push(c.clone());
                self.ints.push(None);
                id
            }
        }
    }

    /// Interns the integer constant `i` (the mint path for head-computed
    /// keys; stable across repeated calls like [`Self::intern`]).
    pub fn intern_int(&mut self, i: i64) -> u32 {
        let next = self.consts.len() as u32;
        let id = *self.by_int.entry(i).or_insert(next);
        if id == next {
            self.consts.push(Constant::Int(i));
            self.ints.push(Some(i));
        }
        id
    }

    /// The id of `c`, if interned.
    pub fn lookup(&self, c: &Constant) -> Option<u32> {
        match c {
            Constant::Int(i) => self.lookup_int(*i),
            Constant::Str(s) => self.by_str.get(&**s).copied(),
        }
    }

    /// The id of the integer constant `i`, if interned.
    pub fn lookup_int(&self, i: i64) -> Option<u32> {
        self.by_int.get(&i).copied()
    }

    /// Loads a classic relation in **one pass**: each constant is
    /// interned as it is met and its id appended straight into the
    /// pre-sized columns of the result, in support order (so row `r` is
    /// the `r`-th supported tuple, and ids are assigned in
    /// tuple-then-column order). A classic relation is a map, so its
    /// tuples — and with them the interned keys — are distinct by
    /// construction, which is what lets the result defer its full-key
    /// row map until something reads it by key
    /// ([`ColumnRel::from_distinct_rows`]).
    ///
    /// The pass moves in batches of a few hundred tuples, and reads
    /// each batch's constants once before interning any of them (the
    /// module docs say why: the tuples' cache misses then overlap
    /// instead of queueing behind the hash probes).
    ///
    /// # Panics
    ///
    /// On a tuple of the wrong length (a release build of `Relation`
    /// lets one in): it would shift every later row of the flat storage.
    pub fn load_relation<P: Pops>(&mut self, rel: &Relation<P>) -> ColumnRel<P> {
        let ragged = |tuple| panic!("row arity mismatch: {tuple:?} at arity {}", rel.arity());
        self.try_load_relation(rel).unwrap_or_else(ragged)
    }

    /// [`Self::load_relation`], handing the first wrong-length tuple
    /// back instead of panicking on it — the same compare in the same
    /// pass, so checking input costs the loader nothing.
    pub(crate) fn try_load_relation<'r, P: Pops>(
        &mut self,
        rel: &'r Relation<P>,
    ) -> Result<ColumnRel<P>, &'r [Constant]> {
        let arity = rel.arity();
        let rows = rel.support_size();
        let mut keys: Vec<u32> = Vec::with_capacity(rows * arity);
        let mut vals: Vec<P> = Vec::with_capacity(rows);
        let mut support = rel.support();
        let mut batch: Vec<(&[Constant], &P)> = Vec::with_capacity(LOAD_BATCH.min(rows));
        loop {
            batch.clear();
            batch.extend(
                support
                    .by_ref()
                    .take(LOAD_BATCH)
                    .map(|(tuple, v)| (tuple.as_slice(), v)),
            );
            if batch.is_empty() {
                break;
            }
            // Read-ahead: these loads depend on nothing but the batch,
            // so their misses are in flight together.
            let mut warm = 0;
            for (tuple, _) in &batch {
                for c in *tuple {
                    warm ^= first_word(c);
                }
            }
            std::hint::black_box(warm);
            for &(tuple, v) in &batch {
                if tuple.len() != arity {
                    return Err(tuple);
                }
                keys.extend(tuple.iter().map(|c| self.intern(c)));
                vals.push(v.clone());
            }
        }
        Ok(ColumnRel::from_distinct_rows(arity, keys, vals))
    }

    /// Every interned id, in `Constant` order: the active domain's
    /// enumeration order, and — inverted — the rank table the decode
    /// sorts rows by. Constants are distinct, so the order is total.
    pub fn ids_in_constant_order(&self) -> Vec<u32> {
        let mut ids: Vec<u32> = (0..self.len() as u32).collect();
        ids.sort_unstable_by(|&a, &b| self.get(a).cmp(self.get(b)));
        ids
    }

    /// Decodes an id.
    pub fn get(&self, id: u32) -> &Constant {
        &self.consts[id as usize]
    }

    /// The integer value of an interned constant, if it is an integer.
    pub fn as_int(&self, id: u32) -> Option<i64> {
        self.ints[id as usize]
    }

    /// Number of interned constants.
    pub fn len(&self) -> usize {
        self.consts.len()
    }

    /// Whether nothing is interned.
    pub fn is_empty(&self) -> bool {
        self.consts.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent_and_decodable() {
        let mut i = Interner::new();
        let a = i.intern(&Constant::str("a"));
        let b = i.intern(&Constant::int(7));
        assert_eq!(i.intern(&Constant::str("a")), a);
        assert_ne!(a, b);
        assert_eq!(i.get(a), &Constant::str("a"));
        assert_eq!(i.as_int(b), Some(7));
        assert_eq!(i.as_int(a), None);
        assert_eq!(i.lookup_int(7), Some(b));
        assert_eq!(i.lookup_int(8), None);
        assert_eq!(i.len(), 2);
    }

    #[test]
    fn strided_integers_and_strings_keep_their_own_ids() {
        // Keys sharing a power-of-two stride all multiply to hashes with
        // equal low bits; the hasher's `finish` is what keeps them apart
        // in the table. Whatever the layout, ids are by first occurrence.
        let mut i = Interner::new();
        for n in 0..1000i64 {
            assert_eq!(i.intern(&Constant::int(n << 20)), 2 * n as u32);
            assert_eq!(i.intern(&Constant::str(&format!("{n}"))), 2 * n as u32 + 1);
        }
        for n in 0..1000i64 {
            assert_eq!(i.lookup_int(n << 20), Some(2 * n as u32));
            assert_eq!(
                i.lookup(&Constant::str(&format!("{n}"))),
                Some(2 * n as u32 + 1)
            );
            assert_eq!(i.as_int(2 * n as u32), Some(n << 20));
        }
        assert_eq!(i.lookup_int(-1), None);
        assert_eq!(i.lookup(&Constant::str("-1")), None);
        assert_eq!(i.len(), 2000);
    }

    #[test]
    fn load_relation_interns_in_tuple_then_column_order() {
        use dlo_core::relation::Relation;
        use dlo_pops::Trop;
        let mut i = Interner::new();
        let b = i.intern(&Constant::str("b"));
        let rel = Relation::from_pairs(
            2,
            vec![
                (
                    vec![Constant::str("b"), Constant::int(3)],
                    Trop::finite(2.0),
                ),
                (
                    vec![Constant::int(3), Constant::str("a")],
                    Trop::finite(1.0),
                ),
            ],
        );
        // Support order is the classic tuple order: integers before
        // strings.
        let col = i.load_relation(&rel);
        let (three, a) = (
            i.lookup_int(3).unwrap(),
            i.lookup(&Constant::str("a")).unwrap(),
        );
        assert_eq!((b, three, a), (0, 1, 2));
        let rows: Vec<_> = col.iter().collect();
        assert_eq!(
            rows,
            vec![
                (0, &[three, a][..], &Trop::finite(1.0)),
                (1, &[b, three][..], &Trop::finite(2.0)),
            ]
        );
        assert_eq!(col.rowid(&[b, three]), Some(1));
    }

    #[test]
    fn dynamic_minting_extends_the_table_in_sync() {
        let mut i = Interner::new();
        let a = i.intern(&Constant::int(1));
        // Mint an id for a constant first derived during evaluation.
        let fresh = i.intern_int(41);
        assert_ne!(fresh, a);
        assert_eq!(i.get(fresh), &Constant::int(41));
        assert_eq!(i.as_int(fresh), Some(41));
        assert_eq!(i.lookup_int(41), Some(fresh));
        // Minting is idempotent, and pre-interned ints resolve to their
        // existing ids.
        assert_eq!(i.intern_int(41), fresh);
        assert_eq!(i.intern_int(1), a);
        assert_eq!(i.len(), 2);
    }
}
