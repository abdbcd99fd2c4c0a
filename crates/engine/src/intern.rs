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
//! ## One pass, one probe per memo miss
//!
//! The EDB is loaded by [`Interner::load_relation`]: one walk over a
//! classic relation that interns each constant as it is met and appends
//! the id straight into the columns of the [`ColumnRel`] under
//! construction. The reverse map is two [`FxHashMap`]s, one per
//! constant kind, so integers are resolved without building or hashing
//! a `Constant` (the executor's [`Interner::lookup_int`] on computed
//! keys takes the same path).
//!
//! **Why an integer memo in front of the map.** An EDB's integers
//! repeat: `wide-lookup`'s `F` holds 1.2 M integer occurrences over only
//! 134 distinct values, and a probe of `by_int` costs ≈ 8 ns there. So
//! each load keeps a direct-mapped memo of 256 `(integer,
//! id)` pairs on its stack, indexed by the integer's low bits: a hit
//! returns the stored id with one compare, a miss probes the map
//! through [`Interner::intern_int`] and overwrites the slot. Only a
//! miss touches the map, and it interns exactly what a plain walk
//! would, in the same order — every id, every row and every counter
//! stay the same. Strings take the map as before. Measured on a 2-core
//! shared host (release, 30–40 alternating loads per variant in one
//! process, medians): `load_relation` of a 300 000-row arity-4 relation
//! over 134 integers 29.4–32.3 ms → 17.4–18.9 ms, and of an 80 000-edge
//! graph over 20 000 nodes (few hits but the repeated source column)
//! 3.9–4.9 ms → 3.5–4.4 ms. The memo makes the loop short, but the
//! read-ahead below still pays: the same memo in a plain walk without
//! it read 23.9–25.8 ms and 4.4–5.3 ms. (The benchmark's layer probe
//! `intern.intern_ns_per_const` times [`Interner::intern`] itself, which
//! has no memo, so that reading does not move.)
//!
//! **Why the walk reads ahead.** A classic relation is one sorted
//! vector of `(tuple, value)` pairs, so the walk reads a slice — but
//! each tuple is a separately allocated `Vec<Constant>`, so reading its
//! constants is still one cache (and TLB) miss per tuple at an address
//! the previous tuple says nothing about — 300k of them on the EDB
//! above. (When the relation was a `BTreeMap`, the walk chased a tree
//! node per tuple on top of that; the measurements below are from then.)
//! Interning a tuple right after
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
//! **Why a large relation loads in parts.** Read-ahead shortens the
//! wait, but one core still has only so many misses in flight, and the
//! load is the one pass of a run that is bound by memory latency rather
//! than by a dependency chain. A second core brings its own outstanding
//! misses and page walks. So the engine's entry points split a relation
//! of at least two parts of `LOAD_PART_ROWS` rows into up to
//! [`crate::EngineOpts::threads`] contiguous parts of its support
//! (`Interner::load_parts`), run side by side on the pool that builds
//! the indexes ([`crate::par::run_each`]). Part 0 interns into the
//! caller's interner, each later part into a local interner of its own;
//! every part writes straight into its slice of the pre-sized columns.
//! The sequential tail is short: each later part's *distinct*
//! constants are interned into the caller's table in that part's
//! first-seen order, which is exactly the order the one-part pass
//! would have given them ids in, and its ids are rewritten in place.
//! Ids, rows, values and the order contract are those of the one-part
//! pass at any part count. Unlike the rounds (see the crate's
//! parallelism section), nothing here is merged twice: the tail costs
//! one map probe per distinct constant of a later part and one pass
//! over its ids.
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
use dlo_core::value::{Constant, Tuple};
use dlo_pops::Pops;
use std::sync::Arc;

/// Tuples per batch of [`Interner::load_relation`]: a batch of arity-4
/// tuples (≈ 100 bytes each) and the references to them stay inside the
/// first-level cache between the read-ahead and the interning.
const LOAD_BATCH: usize = 256;

/// Slots of the memo [`Interner::load_relation`] keeps in front of
/// [`Interner::intern_int`]: an integer `i` is remembered in slot
/// `i mod MEMO_SLOTS`, so up to this many distinct small integers are
/// each probed in the reverse map once per load.
const MEMO_SLOTS: usize = 256;

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

/// Rows a part of a parted load ([`Interner::load_parts`]) holds at
/// least: a relation is split over the worker pool only where every
/// part gets this many rows, because a part's own fixed cost — a thread,
/// a local interner, and on the calling thread the re-interning of the
/// part's distinct constants and one pass over its ids — has to be
/// paid back by its share of the memory-latency pass.
pub(crate) const LOAD_PART_ROWS: usize = 16_384;

/// Why a load produced no relation.
#[derive(Debug, PartialEq)]
pub(crate) enum LoadError<'r> {
    /// The first tuple of the wrong length, in support order.
    Ragged(&'r [Constant]),
    /// A part panicked; the pool's message ([`crate::par::run_each`]).
    Panic(String),
}

/// One part of a load: interns the constants of `tuples` into
/// `interner`, through a memo of its own, and writes their ids into
/// `keys` and their values into `vals` (`arity` and one slot a row), in
/// batches read ahead as the module docs say. Stops at the first tuple
/// of the wrong length and hands it back.
fn load_part<'r, P: Pops>(
    interner: &mut Interner,
    arity: usize,
    tuples: &'r [(Tuple, P)],
    keys: &mut [u32],
    vals: &mut [P],
) -> Result<(), &'r [Constant]> {
    // Direct-mapped `(integer, id)` memo, local to this part. Slot `s`
    // starts out holding `s + 1`, which belongs in another slot, so an
    // empty slot never matches an integer (`0` is not id 0).
    let mut memo: [(i64, u32); MEMO_SLOTS] = std::array::from_fn(|s| (s as i64 + 1, 0));
    let mut intern = |c: &Constant| match c {
        Constant::Int(i) => {
            let slot = &mut memo[*i as usize % MEMO_SLOTS];
            if slot.0 != *i {
                *slot = (*i, interner.intern_int(*i));
            }
            slot.1
        }
        Constant::Str(_) => interner.intern(c),
    };
    let mut keys = keys.iter_mut();
    for (batch, vals) in tuples.chunks(LOAD_BATCH).zip(vals.chunks_mut(LOAD_BATCH)) {
        // Read-ahead: these loads depend on nothing but the batch, so
        // their misses are in flight together.
        let mut warm = 0;
        for (tuple, _) in batch {
            for c in tuple {
                warm ^= first_word(c);
            }
        }
        std::hint::black_box(warm);
        for ((tuple, v), val) in batch.iter().zip(vals) {
            if tuple.len() != arity {
                return Err(tuple);
            }
            for (c, id) in tuple.iter().zip(keys.by_ref()) {
                *id = intern(c);
            }
            *val = v.clone();
        }
    }
    Ok(())
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
    /// interned as it is met and its id written straight into the
    /// pre-sized columns of the result, in support order (so row `r` is
    /// the `r`-th supported tuple, and ids are assigned in
    /// tuple-then-column order). A classic relation is a map, so its
    /// tuples — and with them the interned keys — are distinct by
    /// construction, which is what lets the result defer its full-key
    /// row map until something reads it by key
    /// ([`ColumnRel::from_distinct_rows`]).
    ///
    /// **The order contract.** A classic relation's support is strictly
    /// ascending in tuple order, and this walk keeps it: row `r + 1`'s
    /// constants are lexicographically greater than row `r`'s, so under
    /// any [`Self::rank_table`] taken after the load the rows ascend by
    /// constant rank, whatever ids the constants got. The result
    /// records that (`ColumnRel::from_loaded_rows`), and a prefix
    /// probe of a wider-than-packed relation searches these rows as they
    /// lie instead of sorting a copy ([`crate::arrange`]); debug builds
    /// check the order when that run is made.
    ///
    /// The pass moves in batches of a few hundred tuples, and reads
    /// each batch's constants once before interning any of them (the
    /// module docs say why: the tuples' cache misses then overlap
    /// instead of queueing behind the hash probes). An integer is
    /// looked up in a small memo local to this call before the reverse
    /// map, so a repeated integer costs one compare, not a probe (the
    /// module docs have the measurement).
    ///
    /// This is the one-part load on the calling thread; the engine's
    /// own entry points split a large relation over their worker pool
    /// (module docs), with the same result.
    ///
    /// # Panics
    ///
    /// On a tuple of the wrong length (a release build of `Relation`
    /// lets one in): it would shift every later row of the flat storage.
    pub fn load_relation<P: Pops>(&mut self, rel: &Relation<P>) -> ColumnRel<P> {
        match self.load_parts(rel, 1) {
            Ok(rows) => rows,
            Err(LoadError::Ragged(tuple)) => {
                panic!("row arity mismatch: {tuple:?} at arity {}", rel.arity())
            }
            Err(LoadError::Panic(message)) => panic!("{message}"),
        }
    }

    /// [`Self::load_relation`] on up to `threads` workers: a relation of
    /// at least `threads` × [`LOAD_PART_ROWS`] rows is loaded in
    /// `threads` parts ([`Self::load_parts`]), a smaller one in as many
    /// parts as it has [`LOAD_PART_ROWS`] rows, and below that in one.
    /// The first wrong-length tuple comes back instead of a panic — the
    /// same compare in the same pass, so checking input costs the
    /// loader nothing.
    pub(crate) fn try_load_relation<'r, P: Pops>(
        &mut self,
        rel: &'r Relation<P>,
        threads: usize,
    ) -> Result<ColumnRel<P>, LoadError<'r>> {
        self.load_parts(rel, threads.min(rel.support_size() / LOAD_PART_ROWS))
    }

    /// Loads `rel` in `parts` contiguous parts of its support (at least
    /// one), side by side on the worker pool ([`crate::par::run_each`]),
    /// with the result of the one-part pass bit for bit: the same ids,
    /// rows, values and order contract.
    ///
    /// Part 0 interns into `self`, every later part into a fresh local
    /// interner of its own; each writes its rows' ids and values
    /// straight into its own slice of the result's pre-sized columns.
    /// A constant's id is fixed by its first occurrence in support
    /// order, so after the parts join, each later part's local
    /// constants are interned into `self` in local-id order — that
    /// part's first-seen order — and its slice of ids is rewritten in
    /// place through the map that makes. The first wrong-length tuple
    /// of the lowest part that has one is the first of the support; a
    /// panicking part is contained by the pool and comes back as
    /// [`LoadError::Panic`].
    pub(crate) fn load_parts<'r, P: Pops>(
        &mut self,
        rel: &'r Relation<P>,
        parts: usize,
    ) -> Result<ColumnRel<P>, LoadError<'r>> {
        let (arity, support) = (rel.arity(), rel.support_slice());
        let rows = support.len();
        let parts = parts.max(1);
        let start = |part: usize| rows * part / parts;
        let mut keys = vec![0u32; rows * arity];
        let mut vals = vec![P::zero(); rows];
        let mut locals: Vec<Interner> = (1..parts).map(|_| Interner::new()).collect();
        let mut ragged: Vec<Option<&'r [Constant]>> = vec![None; parts];
        {
            let interners = std::iter::once(&mut *self).chain(&mut locals);
            let (mut keys, mut vals) = (&mut keys[..], &mut vals[..]);
            let mut work = Vec::with_capacity(parts);
            for ((part, interner), ragged) in (0..parts).zip(interners).zip(&mut ragged) {
                let len = start(part + 1) - start(part);
                let (k, rest) = std::mem::take(&mut keys).split_at_mut(len * arity);
                keys = rest;
                let (v, rest) = std::mem::take(&mut vals).split_at_mut(len);
                vals = rest;
                let tuples = &support[start(part)..start(part + 1)];
                work.push((interner, tuples, k, v, ragged));
            }
            crate::par::run_each(work, parts, |(interner, tuples, k, v, ragged)| {
                *ragged = load_part(interner, arity, tuples, k, v).err();
            })
            .map_err(LoadError::Panic)?;
        }
        if let Some(tuple) = ragged.into_iter().flatten().next() {
            return Err(LoadError::Ragged(tuple));
        }
        for (part, local) in (1..).zip(&locals) {
            let ids: Vec<u32> = (0..local.len() as u32)
                .map(|id| match local.as_int(id) {
                    Some(i) => self.intern_int(i),
                    None => self.intern(local.get(id)),
                })
                .collect();
            for id in &mut keys[start(part) * arity..start(part + 1) * arity] {
                *id = ids[*id as usize];
            }
        }
        Ok(ColumnRel::from_loaded_rows(arity, keys, vals))
    }

    /// The rank of every interned id: `rank[id]` is the position of
    /// [`Self::get`]`(id)` among all interned constants in `Constant`
    /// order. Constants are distinct, so ranks are too, and ordering ids
    /// by rank is ordering them by the constants they name — the one
    /// table the decode orders rows by ([`crate::output`]) and a loaded
    /// relation's run searches by ([`crate::arrange`]). Ids interned
    /// after the call lie past its end.
    pub fn rank_table(&self) -> Vec<u32> {
        let mut rank = vec![0u32; self.len()];
        let order = self.in_constant_order(0..self.len() as u32);
        for (pos, id) in order.into_iter().enumerate() {
            rank[id as usize] = pos as u32;
        }
        rank
    }

    /// `ids` sorted by the constants they name: the integers first (a
    /// `Constant::Int` orders before every `Str`), sorted by value
    /// straight from the flat side table, then the strings. On 20 000
    /// integers that sort reads ≈ 1.0 ms where comparing the constants
    /// through [`Self::get`] read ≈ 1.6 ms.
    pub(crate) fn in_constant_order(&self, ids: impl IntoIterator<Item = u32>) -> Vec<u32> {
        let (mut ints, mut strs) = (Vec::new(), Vec::new());
        for id in ids {
            match self.ints[id as usize] {
                Some(i) => ints.push((i, id)),
                None => strs.push(id),
            }
        }
        ints.sort_unstable();
        strs.sort_unstable_by(|&a, &b| self.get(a).cmp(self.get(b)));
        ints.into_iter().map(|(_, id)| id).chain(strs).collect()
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

    /// Loads `tuples` (at arity `tuples[0].len()`) into an interner that
    /// already holds `pre`, and holds every id and every row to a plain
    /// walk that interns the support's constants one by one through
    /// [`Interner::intern`] — the load's memo may change neither.
    fn assert_loads_like_a_plain_walk(pre: &[Constant], tuples: Vec<Vec<Constant>>) {
        use dlo_core::relation::Relation;
        use dlo_pops::Trop;
        let arity = tuples[0].len();
        let pairs = tuples
            .into_iter()
            .zip(1..)
            .map(|(t, w)| (t, Trop::finite(w as f64)));
        let rel = Relation::from_pairs(arity, pairs);
        let (mut loaded, mut plain) = (Interner::new(), Interner::new());
        for c in pre {
            loaded.intern(c);
            plain.intern(c);
        }
        let col = loaded.load_relation(&rel);
        let want: Vec<(u32, Vec<u32>, Trop)> = (0..)
            .zip(rel.support())
            .map(|(r, (t, v))| (r, t.iter().map(|c| plain.intern(c)).collect(), *v))
            .collect();
        let got: Vec<(u32, Vec<u32>, Trop)> =
            col.iter().map(|(r, k, v)| (r, k.to_vec(), *v)).collect();
        assert_eq!(got, want);
        assert_eq!((loaded.consts, loaded.ints), (plain.consts, plain.ints));
        assert_eq!(loaded.by_int, plain.by_int);
    }

    fn ints(row: &[i64]) -> Vec<Constant> {
        row.iter().map(|&i| Constant::int(i)).collect()
    }

    #[test]
    fn load_memo_keeps_colliding_integers_apart() {
        // `k << 8` and `k << 16` all share slot 0 of the memo, `k` walks
        // every slot, and each tuple mixes the three, so every slot is
        // refilled by a different integer many times.
        let rows = (0..600i64).map(|k| ints(&[k << 8, (k * 7 % 600) << 16, k, -(k << 8)]));
        assert_loads_like_a_plain_walk(&[], rows.collect());
        let rows = (0..600i64).map(|k| ints(&[(k % 3) << 16, k << 8, (k % 5) << 8]));
        assert_loads_like_a_plain_walk(&[Constant::int(1 << 8)], rows.collect());
    }

    #[test]
    fn load_memo_handles_zero_signs_and_extremes() {
        let edge = [
            0,
            1,
            -1,
            255,
            256,
            -256,
            i64::MIN,
            i64::MIN + 1,
            i64::MAX,
            i64::MAX - 255,
        ];
        let rows = edge
            .iter()
            .flat_map(|&a| edge.iter().map(move |&b| ints(&[a, b])));
        assert_loads_like_a_plain_walk(&[], rows.collect());
        let rows = edge.iter().map(|&a| ints(&[a]));
        assert_loads_like_a_plain_walk(&[Constant::int(7), Constant::str("x")], rows.collect());
    }

    #[test]
    fn load_memo_never_reads_an_empty_slot_as_zero() {
        // The first constant, 5, takes id 0; `0` only comes later, and
        // must get an id of its own (an empty slot is not `(0, id 0)`).
        let rows = vec![ints(&[5, 0]), ints(&[5, 256]), ints(&[6, 0]), ints(&[7, 1])];
        assert_loads_like_a_plain_walk(&[], rows.clone());
        assert_loads_like_a_plain_walk(&[Constant::int(9)], rows);
    }

    #[test]
    fn load_memo_leaves_strings_to_their_own_map() {
        let rows = (0..300i64).map(|k| {
            let s = Constant::str(&format!("{}", k % 17));
            vec![
                Constant::int(k % 17),
                s,
                Constant::int(k << 8),
                Constant::str(""),
            ]
        });
        assert_loads_like_a_plain_walk(&[Constant::str("3")], rows.collect());
    }

    /// A debug build of `Relation` refuses a ragged tuple where it is
    /// made, so only a release build can hand one to the loader.
    #[cfg(not(debug_assertions))]
    #[test]
    fn load_reports_the_first_ragged_tuple() {
        use dlo_core::relation::Relation;
        use dlo_pops::Trop;
        let rows = [&[1, 2][..], &[1, 3], &[1, 2, 3], &[2], &[2, 1]];
        let pairs = rows.iter().map(|r| (ints(r), Trop::finite(1.0)));
        let rel = Relation::from_pairs(2, pairs);
        let mut i = Interner::new();
        let err = i.try_load_relation(&rel, 1).err();
        assert_eq!(err, Some(LoadError::Ragged(&ints(&[1, 2, 3])[..])));
        // Split, the first ragged tuple of the lowest part that holds
        // one is still the first of the support — also when a later
        // part holds another, and whichever part the first lands in.
        let rows = (0..20i64).map(|k| match k {
            13 => ints(&[k, 1, 1]),
            17 => ints(&[k]),
            _ => ints(&[k, 0]),
        });
        let rel = Relation::from_pairs(2, rows.map(|r| (r, Trop::finite(1.0))));
        for parts in 1..=7 {
            let err = Interner::new().load_parts(&rel, parts).err();
            let want = LoadError::Ragged(&ints(&[13, 1, 1])[..]);
            assert_eq!(err, Some(want), "{parts} parts");
        }
    }

    /// Loads `rel` at 1 to 7 parts, each time into an interner holding
    /// `pre`, and holds every load to the one-part load: the same
    /// interner (constants, integer side table, both reverse maps) and
    /// the same relation — keys, values, version and regime, the
    /// load-order flag, all in its `Debug` rendering.
    fn assert_parts_load_alike(pre: &[Constant], rel: &Relation<dlo_pops::Trop>) {
        let seeded = || {
            let mut i = Interner::new();
            for c in pre {
                i.intern(c);
            }
            i
        };
        let mut one = seeded();
        let want = format!("{:?}", one.load_parts(rel, 1).expect("loads"));
        for parts in 1..=7 {
            let mut i = seeded();
            let got = format!("{:?}", i.load_parts(rel, parts).expect("loads"));
            assert_eq!(got, want, "{parts} parts: relation");
            assert_eq!(
                (&i.consts, &i.ints),
                (&one.consts, &one.ints),
                "{parts} parts"
            );
            assert_eq!(
                (&i.by_int, &i.by_str),
                (&one.by_int, &one.by_str),
                "{parts} parts"
            );
        }
    }

    #[test]
    fn a_load_in_parts_is_the_one_part_load_bit_for_bit() {
        use dlo_pops::Trop;
        let weight = |k: i64| Trop::finite((1 + k % 9) as f64);
        // Integers that repeat across every part boundary, a column on
        // a power-of-two stride (one memo slot for all of it), and
        // strings that first appear in late parts.
        let rows = (0..500i64).map(|k| {
            let row = vec![
                Constant::int(k % 37),
                Constant::int((k * 7 % 50) << 16),
                Constant::str(&format!("s{}", k / 60)),
                Constant::int(k),
            ];
            (row, weight(k))
        });
        let rel = Relation::from_pairs(4, rows);
        assert_parts_load_alike(&[], &rel);
        // Pre-seeded, as a rebuild's interner is: some constants the
        // parts meet already have ids, in another order.
        let pre = [
            Constant::int(400),
            Constant::str("s3"),
            Constant::int(5 << 16),
        ];
        assert_parts_load_alike(&pre, &rel);
        // More parts than rows, and no rows at all.
        let few = (0..3i64).map(|k| (vec![Constant::int(2 - k), Constant::str("x")], weight(k)));
        let few = Relation::from_pairs(2, few);
        assert_parts_load_alike(&pre, &few);
        assert_parts_load_alike(&pre, &Relation::new(3));
        // Arity 0: one empty tuple, no key column.
        let unit = Relation::from_pairs(0, [(vec![], Trop::finite(2.0))]);
        assert_parts_load_alike(&[], &unit);
    }

    /// A POPS whose `clone` panics on one value: what a panicking part
    /// looks like to the load.
    #[derive(Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
    struct Fragile(u8);

    impl Clone for Fragile {
        fn clone(&self) -> Self {
            assert_ne!(self.0, 13, "cloned the fragile value");
            Fragile(self.0)
        }
    }

    impl dlo_pops::PreSemiring for Fragile {
        fn zero() -> Self {
            Fragile(0)
        }
        fn one() -> Self {
            Fragile(1)
        }
        fn add(&self, rhs: &Self) -> Self {
            Fragile(self.0.max(rhs.0))
        }
        fn mul(&self, rhs: &Self) -> Self {
            Fragile(self.0.min(rhs.0))
        }
    }

    impl Pops for Fragile {
        fn bottom() -> Self {
            Fragile(0)
        }
        fn leq(&self, rhs: &Self) -> bool {
            self.0 <= rhs.0
        }
    }

    #[test]
    fn a_panicking_part_is_contained_at_every_part_count() {
        let rows = (0..40i64).map(|k| (ints(&[k]), Fragile(if k == 29 { 13 } else { 2 })));
        let rel = Relation::from_pairs(1, rows);
        for parts in 1..=5 {
            let err = Interner::new().load_parts(&rel, parts).err();
            let want = "assertion `left != right` failed: cloned the fragile value";
            let got = match err {
                Some(LoadError::Panic(message)) => message,
                other => panic!("{parts} parts: {other:?}"),
            };
            assert!(got.starts_with(want), "{parts} parts: {got}");
        }
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
