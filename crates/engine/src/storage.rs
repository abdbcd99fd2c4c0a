//! Interned columnar relations with hash-prefix indexes, and sorted runs
//! over the ones that were loaded whole.
//!
//! A [`ColumnRel`] stores rows in one flat `Vec<u32>` (row-major) with a
//! parallel value vector and a full-row map (hashed, or a slot table
//! where the keys are dense — see "Packed and dense keys") for O(1)
//! merge. Indexes
//! map a *bound-column projection* to the matching row ids (`Postings`:
//! hashed, or a bulk relation's posting table), keyed by a column
//! bitmask; they are built lazily per
//! `(relation, bound-column-set)` — once a mask is requested it is
//! maintained incrementally by [`ColumnRel::insert_row`], so monotone
//! relations (the semi-naïve `new` state) never pay a rebuild. The
//! full-row map is lazy in the same way for relations loaded in bulk
//! ([`ColumnRel::from_distinct_rows`], the EDB load path): a
//! from-scratch run reads its EDB by scan and by prefix probe only, so
//! the map is built the first time something reads such a relation *by
//! full key* — see the [`ColumnRel`] docs for who does. A row at `0` is
//! a tombstone: it keeps its place, readers skip it, and a relation
//! whose tombstones outnumber its other rows is compacted (the
//! [`ColumnRel`] docs again).
//!
//! ## Two regimes, three probe structures
//!
//! A relation is in one of two regimes, and it knows which:
//!
//! * **bulk** — made by [`ColumnRel::from_distinct_rows`] and not
//!   appended to since: the EDB of a run. Nothing grows it while a run
//!   reads it, so what it is probed through is built once and never
//!   maintained (Ascent's `update_indices` before `run`). Where its
//!   probe keys are too wide to pack (`probes_arranged`, arity > 2) that
//!   is an immutable **sorted run** ([`crate::arrange`]), which serves
//!   every mask that shares the order's prefix, and no key is boxed.
//!   A relation the loader made (`ColumnRel::from_loaded_rows`)
//!   already ascends by constant rank, so under a mask that is a prefix
//!   of its columns its run is its own rows, searched through the
//!   interner's rank table: no sort, no key copy. Any other mask, and a
//!   bulk relation the loader did not make, gets a counting sort. A
//!   one-column mask of arity ≤ 2 gets a **posting table**
//!   (`Postings::Table`) where its column passes `row_map_dense`'s
//!   rule: interned ids are dense from 0, so one counting pass over the
//!   column and one stable scatter lay every key's row ids out in one
//!   array, and a probe reads two offsets — no `Vec` per key, no hash
//!   per probe. A sparser column, and a two-column mask, keep the hash
//!   index.
//! * **grown** — made by [`ColumnRel::new`] and filled row by row (the
//!   IDB state, every Δ, every relation an edit rebuilds), or a bulk
//!   relation from its first append on: probed through the hash index
//!   every append keeps current, at any arity.
//!
//! [`ColumnRel::ensure_probe`] is the one place that decides, and the
//! first append (`ColumnRel::grow`, run by every append) the one place a
//! relation changes regime: it drops the sorted runs and the tables and
//! builds the hash index of every mask they had been asked for. Nothing
//! sorted or counted is ever maintained under appends — see the crate
//! docs for what that cost.
//!
//! ## Packed and dense keys
//!
//! Row maps and indexes over keys of **width ≤ 2** (the overwhelmingly
//! common case: unary and binary relations, single-column probes) store
//! their keys packed into a `u64` instead of a `Box<[u32]>`. That turns
//! every lookup into an inline-integer hash and compare — no per-key
//! heap allocation on insert, no pointer chase on probe — which matters
//! because TC-class fixpoints do one row-map merge and one index probe
//! *per derivation*: at 500k+ derivations the boxed-slice map was the
//! single largest line item in the profile (hash + eq both dereference,
//! plus an allocation and eventual free per stored key).
//!
//! A row map can do better still, because interned ids are dense from 0:
//! where `row_map_dense` holds — width 1 or 2, the `side^width` keys
//! below the largest id at most 8 per row and at most 2^24 — the row
//! map is a **slot table** indexed by the key itself, and a merge is an
//! array index instead of a hash probe. The rule is asked when a
//! hashed map reaches a power-of-two row count ≥ 1 024, when a bulk
//! relation's map is first built, and when a key lands outside a dense
//! table (which doubles its side, or goes back to hashing); a
//! [`ColumnRel::clear`] always returns to an empty hash map. Row ids,
//! order and values never depend on the layout. On `dlo_benchmark`'s
//! `apsp-dense`, `T` holds 239 605 of its 500² keys: it goes dense at
//! 32 768 rows, its map shrinks from ≈ 8 MiB of buckets to a 976.6 KiB
//! table, and the 959 442 merges of an operation stop missing the cache
//! (on a 2-core shared host: merge+queue 82 → 41 ns per emission,
//! `reported.eval_s` 107 → 74 ms, `op_median_s` −18 %). Accumulators
//! and the posting-list indexes of grown relations stay hashed: their
//! keys are projections, rarely dense, and an index that appends keep
//! current holds a `Vec` per key anyway. A bulk relation's one-column
//! index is the exception (above): it is never appended to while read,
//! so its posting lists can share one array.

use crate::arrange::{Arrangement, Found};
use crate::hash::FxHashMap;
use dlo_pops::{Pops, PreSemiring};
use std::sync::{Arc, OnceLock};

/// A column bitmask: bit `c` set ⇔ column `c` participates in the probe.
pub type ColMask = u32;

/// The widest relation the engine stores: one [`ColMask`] bit per
/// column. The compiler rejects wider atoms and heads, and the executor
/// sizes its stack key buffers by it.
pub(crate) const MAX_ARITY: usize = 32;

/// Whether probes through `mask` on a relation of `arity` are past the
/// packed-`u64` hash fast path — `arity > 2` — and so worth a sorted run
/// ([`ColumnRel::ensure_arranged`]) **where the relation is bulk**;
/// `mask = 0` is a full scan and needs no structure. Half of the rule:
/// [`ColumnRel::ensure_probe`] adds the relation's own bulk state (what
/// gets built, and so what the executor probes), the planner's
/// `explain()` tags add "is an EDB relation", and nobody else asks.
///
/// Every structure hands a probe the same row ids in the same ascending
/// order, so the choice is cost only, and each owns a regime (measured
/// on a 2-core shared host while the log-structured spine still served
/// growing relations, and before a loaded relation's prefix masks
/// searched its rows as they lie — see [`crate::arrange`]). *Bulk, then
/// read-only* — 300 000 arity-4 rows,
/// masks `0b0111` + `0b1111`, `wide-lookup`'s shape: one sorted run
/// 44–56 ms by a comparison sort, 22–27 ms by counting passes over the
/// whole relation, 13–14 ms by [`crate::arrange::radix_order`]'s
/// partition-first passes (traced; the two masks share the run), two
/// boxed-key hash indexes
/// 177–248 ms plus 57–120 ms to drop them. *Growing while probed* —
/// 200 000 rows of arity 3–4, structure registered on the empty
/// relation, then `merge_changed` and a probe per row: a boxed-key hash
/// index 51–82 ms, a log-structured sorted spine 384–594 ms. The
/// benchmark has a workload on each side (`baseline.json`):
/// `wide-lookup` runs all of its probes against the sorted run of its
/// bulk-loaded table (`reported.merge_join_steps` 4000,
/// `reported.hash_join_steps` 0). At arity ≤ 2 a bulk relation's
/// one-column probes go to its posting table, which counts as a hash
/// probe: `apsp-dense` runs all of its probes against the table of its
/// `E` (`hash_join_steps` = `index_probes` = 239 605,
/// `merge_join_steps` 0), as does `sssp-sparse` (6 000); `point-query`
/// runs all but one of each run's 19 618 probes against `E`'s table
/// and that one against a hash index; `live-edits` builds its handle
/// through tables, but its first insert grows `E`, so every timed edit
/// and query probes hash indexes.
pub(crate) fn probes_arranged(arity: usize, mask: ColMask) -> bool {
    mask != 0 && arity > 2
}

/// Whether a row map over keys of `width` whose ids all lie below
/// `side` is a direct-addressed slot table ([`RowMap::Dense`]) rather
/// than a hash map — width 1 or 2, at most 8 slots per row (`side^width
/// ≤ 8·rows`: at 4 bytes a slot, no more than the ≈ 32 bytes a row the
/// hashed map spends) and at most 2^24 slots (64 MiB). The one rule:
/// asked by the lazy bulk build, by a hashed map whenever its row count
/// reaches a power of two ≥ 1 024, and by a dense one whenever a key
/// falls outside its table (see the module docs for what it buys).
pub(crate) fn row_map_dense(width: usize, side: usize, rows: usize) -> bool {
    let slots = match width {
        1 => side,
        2 => side.saturating_mul(side),
        _ => return false,
    };
    slots <= rows.saturating_mul(8) && slots <= 1 << 24
}

/// Whether a probe through `mask` names every column of a relation of
/// `arity` — a lookup of at most one row. On a standing IDB relation,
/// which always carries its full-key row map, that lookup **is**
/// [`ColumnRel::rowid`]: the engine registers no posting-list index for
/// it (`Engine::require_probes`) and the executor reads the row map
/// (`exec::run_plan`). A posting list per key would be one one-element
/// `Vec` per row — on an 87k-row closure, 4–5 MiB and a quarter of the
/// build — to answer what the row map already does.
pub(crate) fn probes_full_key(arity: usize, mask: ColMask) -> bool {
    mask != 0 && mask.count_ones() as usize == arity
}

/// Projects `row` onto the columns of `mask`, ascending.
pub fn project(row: &[u32], mask: ColMask) -> Box<[u32]> {
    let mut out = Vec::with_capacity(mask.count_ones() as usize);
    project_into(row, mask, &mut out);
    out.into_boxed_slice()
}

/// [`project`] into a caller-owned scratch buffer (cleared first) — the
/// allocation-free variant index maintenance uses: it runs once per
/// row ([`ColumnRel::insert_row`]), so a fresh `Box<[u32]>` per call
/// would show up directly in build profiles. (The executor assembles
/// its probe keys on the stack.)
pub fn project_into(row: &[u32], mask: ColMask, out: &mut Vec<u32>) {
    out.clear();
    for (c, &v) in row.iter().enumerate() {
        if mask & (1 << c) != 0 {
            out.push(v);
        }
    }
}

/// Packs a key of width ≤ 2 into one `u64` (width is fixed per map, so
/// `[a]` and `[a, 0]` can never meet in the same map).
///
/// Column 0 of a pair lives in the **high** half — packed order is then
/// lexicographic column order, which [`AccumMap::drain_sorted`] relies
/// on — while a hash table picks its bucket from the *low* bits of the
/// hash. What makes that safe is the hasher, not the packing:
/// [`FxHasher::finish`](crate::hash::FxHasher) carries the high half of
/// its product into the bucket index, so column 0 moves the probe start
/// as much as column 1 does (`crate::hash` has the measurements from
/// when it did not).
#[inline]
fn pack(key: &[u32]) -> u64 {
    match key {
        [] => 0,
        [a] => *a as u64,
        [a, b] => ((*a as u64) << 32) | *b as u64,
        _ => unreachable!("packed maps hold keys of width ≤ 2"),
    }
}

/// A hash map keyed by id tuples of a fixed width: packed into `u64`s
/// for width ≤ 2, boxed slices beyond. Neither variant mixes its keys:
/// both rely on the crate's one hasher to let every column reach the
/// bucket index (see [`pack`]; a boxed key has the same shape, every odd
/// column being the high half of an 8-byte chunk).
#[derive(Clone, Debug)]
pub(crate) enum KeyedMap<V> {
    Packed(FxHashMap<u64, V>),
    Wide(FxHashMap<Box<[u32]>, V>),
}

impl<V> KeyedMap<V> {
    fn new(width: usize) -> Self {
        KeyedMap::with_capacity(width, 0)
    }

    fn with_capacity(width: usize, entries: usize) -> Self {
        if width <= 2 {
            KeyedMap::Packed(FxHashMap::with_capacity_and_hasher(
                entries,
                Default::default(),
            ))
        } else {
            KeyedMap::Wide(FxHashMap::with_capacity_and_hasher(
                entries,
                Default::default(),
            ))
        }
    }

    fn len(&self) -> usize {
        match self {
            KeyedMap::Packed(m) => m.len(),
            KeyedMap::Wide(m) => m.len(),
        }
    }

    #[inline]
    pub(crate) fn get(&self, key: &[u32]) -> Option<&V> {
        match self {
            KeyedMap::Packed(m) => m.get(&pack(key)),
            KeyedMap::Wide(m) => m.get(key),
        }
    }

    #[inline]
    fn get_mut(&mut self, key: &[u32]) -> Option<&mut V> {
        match self {
            KeyedMap::Packed(m) => m.get_mut(&pack(key)),
            KeyedMap::Wide(m) => m.get_mut(key),
        }
    }

    #[inline]
    fn insert(&mut self, key: &[u32], v: V) {
        match self {
            KeyedMap::Packed(m) => {
                m.insert(pack(key), v);
            }
            KeyedMap::Wide(m) => {
                m.insert(key.into(), v);
            }
        }
    }

    fn remove(&mut self, key: &[u32]) {
        match self {
            KeyedMap::Packed(m) => {
                m.remove(&pack(key));
            }
            KeyedMap::Wide(m) => {
                m.remove(key);
            }
        }
    }

    fn clear(&mut self) {
        match self {
            KeyedMap::Packed(m) => m.clear(),
            KeyedMap::Wide(m) => m.clear(),
        }
    }
}

/// A dense slot nobody holds.
const EMPTY_SLOT: u32 = u32::MAX;

/// A hashed row map asks [`row_map_dense`] when its row count reaches a
/// power of two at least this large: one scan of its keys per doubling.
const DENSE_CHECK_MIN_ROWS: usize = 1024;

/// A [`ColumnRel`]'s full key → row id map, in one of two layouts that
/// answer identically: a [`KeyedMap`], or — where [`row_map_dense`]
/// holds — a slot table indexed by the key itself (`[a]` at slot `a`,
/// `[a, b]` at `a·side + b`, [`EMPTY_SLOT`] where no row is).
#[derive(Clone, Debug)]
pub(crate) enum RowMap {
    Hashed(KeyedMap<u32>),
    Dense { side: usize, slots: Vec<u32> },
}

/// The slot of `key` in a table of `side`, if every id is below `side`.
#[inline]
fn slot(side: usize, key: &[u32]) -> Option<usize> {
    match *key {
        [a] if (a as usize) < side => Some(a as usize),
        [a, b] if (a as usize) < side && (b as usize) < side => {
            Some(a as usize * side + b as usize)
        }
        _ => None,
    }
}

impl RowMap {
    fn new(width: usize) -> Self {
        RowMap::Hashed(KeyedMap::new(width))
    }

    /// The map over `rows` distinct keys of `width`, stored row-major in
    /// `keys`, laid out as [`row_map_dense`] says.
    fn build(width: usize, rows: usize, keys: &[u32]) -> Self {
        let side = keys.iter().max().map_or(0, |&id| id as usize + 1);
        if row_map_dense(width, side, rows) {
            return RowMap::dense(width, side, keys.chunks_exact(width).map(pack).zip(0..));
        }
        let mut map = KeyedMap::with_capacity(width, rows);
        for r in 0..rows {
            map.insert(&keys[r * width..(r + 1) * width], r as u32);
        }
        debug_assert_eq!(map.len(), rows, "bulk-loaded keys are distinct");
        RowMap::Hashed(map)
    }

    /// A slot table of `side` holding `entries` (packed key, row id).
    fn dense(width: usize, side: usize, entries: impl Iterator<Item = (u64, u32)>) -> Self {
        let mut slots = vec![EMPTY_SLOT; side.pow(width as u32)];
        for (k, r) in entries {
            let i = (k >> 32) as usize * side + (k as u32) as usize;
            debug_assert_eq!(slots[i], EMPTY_SLOT, "keys are distinct");
            slots[i] = r;
        }
        RowMap::Dense { side, slots }
    }

    #[inline(always)]
    pub(crate) fn get(&self, key: &[u32]) -> Option<u32> {
        match self {
            RowMap::Dense { side, slots } => {
                slot(*side, key).and_then(|i| Some(slots[i]).filter(|&r| r != EMPTY_SLOT))
            }
            RowMap::Hashed(m) => m.get(key).copied(),
        }
    }

    /// The row holding `key`, or — when there is none — `None` after
    /// registering `key` at row `next`, the relation's row count: the
    /// caller appends that row next. One map operation, except when the
    /// layout changes: a key outside a dense table widens it, and a
    /// hashed map that reaches a power-of-two row count asks whether to
    /// go dense. Both live out of line, so that this — once per
    /// emission — inlines into `ColumnRel::land`.
    #[inline(always)]
    fn get_or_insert(&mut self, key: &[u32], next: u32) -> Option<u32> {
        use std::collections::hash_map::Entry;
        match self {
            RowMap::Dense { side, slots } => match slot(*side, key) {
                Some(i) if slots[i] != EMPTY_SLOT => Some(slots[i]),
                Some(i) => {
                    slots[i] = next;
                    None
                }
                None => self.widen_and_insert(key, next),
            },
            RowMap::Hashed(KeyedMap::Packed(m)) => match m.entry(pack(key)) {
                Entry::Occupied(e) => Some(*e.get()),
                Entry::Vacant(e) => {
                    e.insert(next);
                    let rows = next as usize + 1;
                    if rows >= DENSE_CHECK_MIN_ROWS && rows.is_power_of_two() {
                        self.densify(key.len(), rows);
                    }
                    None
                }
            },
            // Wide keys would need an owned Box to use the entry API;
            // keep the two-op sequence there (arity > 2 is rare), and
            // they never go dense.
            RowMap::Hashed(KeyedMap::Wide(m)) => match m.get(key) {
                Some(&r) => Some(r),
                None => {
                    m.insert(key.into(), next);
                    None
                }
            },
        }
    }

    /// A packed hashed map of `rows` keys goes dense if the rule holds at
    /// the side its largest id needs.
    #[cold]
    #[inline(never)]
    fn densify(&mut self, width: usize, rows: usize) {
        let RowMap::Hashed(KeyedMap::Packed(m)) = self else {
            return;
        };
        let side = m
            .keys()
            .map(|&k| (k >> 32).max(k & u64::from(u32::MAX)))
            .max()
            .map_or(0, |id| id as usize + 1);
        if row_map_dense(width, side, rows) {
            *self = RowMap::dense(width, side, m.iter().map(|(&k, &r)| (k, r)));
        }
    }

    /// A dense table meets `key`, which lies outside it: it is re-laid
    /// out at `max(2·side, id + 1)` if the rule holds there for the rows
    /// it will hold, hashed otherwise, and `key` is registered at `next`.
    #[cold]
    #[inline(never)]
    fn widen_and_insert(&mut self, key: &[u32], next: u32) -> Option<u32> {
        let RowMap::Dense { side, slots } = self else {
            unreachable!("only a dense map widens");
        };
        let (width, side, slots) = (key.len(), *side, std::mem::take(slots));
        let need = key.iter().max().map_or(0, |&id| id as usize + 1);
        let wider = (2 * side).max(need);
        let entries = slots
            .iter()
            .enumerate()
            .filter(|&(_, &r)| r != EMPTY_SLOT)
            .map(|(i, &r)| ((((i / side) as u64) << 32) | (i % side) as u64, r));
        *self = if row_map_dense(width, wider, next as usize + 1) {
            RowMap::dense(width, wider, entries)
        } else {
            RowMap::Hashed(KeyedMap::Packed(entries.collect()))
        };
        self.get_or_insert(key, next)
    }

    fn remove(&mut self, key: &[u32]) {
        match self {
            RowMap::Dense { side, slots } => {
                if let Some(i) = slot(*side, key) {
                    slots[i] = EMPTY_SLOT;
                }
            }
            RowMap::Hashed(m) => m.remove(key),
        }
    }

    /// Empty and hashed: a relation refilled batch by batch (Δ, `@dlt`,
    /// `@cone`) never pays for a table sized by an earlier batch.
    fn clear(&mut self, width: usize) {
        match self {
            RowMap::Hashed(m) => m.clear(),
            RowMap::Dense { .. } => *self = RowMap::new(width),
        }
    }

    /// The layout and its approximate heap bytes, for `explain()`.
    fn describe(&self, width: usize) -> String {
        use std::mem::size_of;
        let size = |bytes: usize| match bytes {
            b if b >= 1 << 20 => format!("{:.1} MiB", b as f64 / (1 << 20) as f64),
            b if b >= 1 << 10 => format!("{:.1} KiB", b as f64 / 1024.0),
            b => format!("{b} B"),
        };
        match self {
            RowMap::Dense { side, slots } => {
                let power = if width == 2 { "²" } else { "" };
                let bytes = slots.capacity() * size_of::<u32>();
                format!("dense {side}{power} ({})", size(bytes))
            }
            RowMap::Hashed(m) => {
                // One control byte per bucket besides the entry.
                let bytes = match m {
                    KeyedMap::Packed(m) => m.capacity() * (size_of::<(u64, u32)>() + 1),
                    KeyedMap::Wide(m) => {
                        m.capacity() * (size_of::<(Box<[u32]>, u32)>() + 1)
                            + m.len() * width * size_of::<u32>()
                    }
                };
                format!("hashed ({})", size(bytes))
            }
        }
    }
}

/// A posting-list index over one mask: the row ids whose projection is
/// each key, ascending by row id in either layout, so a probe answers
/// the same list whichever one holds the mask.
#[derive(Clone, Debug)]
pub(crate) enum Postings {
    /// Hashed by the projected key: what every append keeps current.
    Hashed(KeyedMap<Vec<u32>>),
    /// A bulk relation's one-column index over ids below `side` (see
    /// the module docs), in one allocation: `cells[..side + 2]` are the
    /// starts, offsets into `cells` itself, and the row ids follow, so
    /// key `k`'s rows are `cells[cells[k]..cells[k + 1]]`. Never
    /// maintained — the first append turns it into [`Postings::Hashed`].
    Table { side: usize, cells: Vec<u32> },
}

impl Postings {
    /// The hash index over `mask` of the `len` rows of `arity` stored
    /// row-major in `keys`.
    fn hash(arity: usize, mask: ColMask, keys: &[u32], len: usize) -> Self {
        let width = mask.count_ones() as usize;
        let mut index: KeyedMap<Vec<u32>> = KeyedMap::new(width);
        let mut key: Vec<u32> = Vec::with_capacity(width);
        for r in 0..len {
            project_into(&keys[r * arity..(r + 1) * arity], mask, &mut key);
            match index.get_mut(&key) {
                Some(rows) => rows.push(r as u32),
                None => index.insert(&key, vec![r as u32]),
            }
        }
        Postings::Hashed(index)
    }

    /// The direct-addressed table of column `col` (< `arity`) of the
    /// `len` rows stored row-major in `keys`, or `None` where
    /// [`row_map_dense`] finds the column too sparse for one. One
    /// counting pass fills the starts, shifted by one so that the stable
    /// scatter that follows leaves them holding every key's start. One
    /// allocation, not two: the table of `apsp-dense`'s 2 000-row `E`
    /// as two buffers raised that workload's `peak_rss_mb` from 49.1 to
    /// 51.3 MiB in 6 of 7 15-second runs (glibc's placement of
    /// them), as one it read 49.1–49.2 in 7 of 7.
    fn table(arity: usize, col: usize, keys: &[u32], len: usize) -> Option<Self> {
        let column = || keys.iter().skip(col).step_by(arity);
        let side = column().max().map_or(0, |&id| id as usize + 1);
        if !row_map_dense(1, side, len) {
            return None;
        }
        let mut cells = vec![0u32; side + 2 + len];
        (cells[0], cells[1]) = ((side + 2) as u32, (side + 2) as u32);
        for &k in column() {
            cells[k as usize + 2] += 1;
        }
        for i in 2..side + 2 {
            cells[i] += cells[i - 1];
        }
        // `cells[k + 1]` is `k`'s next free cell, and ends as `k + 1`'s
        // start.
        for (r, &k) in column().enumerate() {
            let next = cells[k as usize + 1];
            cells[next as usize] = r as u32;
            cells[k as usize + 1] = next + 1;
        }
        Some(Postings::Table { side, cells })
    }

    /// The row ids whose projection is `key`, ascending.
    #[inline]
    pub(crate) fn get(&self, key: &[u32]) -> &[u32] {
        match self {
            Postings::Hashed(index) => index.get(key).map_or(&[], Vec::as_slice),
            Postings::Table { side, cells } => match key[0] as usize {
                k if k < *side => &cells[cells[k] as usize..cells[k + 1] as usize],
                _ => &[],
            },
        }
    }

    /// The hash index appends maintain — the only layout a relation
    /// holds once it has grown.
    fn hashed(&mut self) -> &mut KeyedMap<Vec<u32>> {
        match self {
            Postings::Hashed(index) => index,
            Postings::Table { .. } => {
                unreachable!("the first append turns tables into hash indexes")
            }
        }
    }
}

/// A `⊕`-merge accumulator with `KeyedMap`-style packed keys: widths
/// ≤ 2 key an `FxHashMap<u64, P>` (inline hash, no per-key allocation),
/// wider keys fall back to boxed slices. This is the per-iteration head
/// accumulator of the semi-naïve driver — one `merge` per derivation, so
/// at fixpoint scale the boxed-slice map it replaces was a top line item
/// (hash + eq dereference, plus an allocation per stored key).
///
/// An accumulator is reused round after round: [`AccumMap::drain_sorted`]
/// empties it through a sort buffer it keeps, and the map and the buffer
/// keep their capacity, so a warm round allocates nothing here.
#[derive(Debug)]
pub enum AccumMap<P> {
    /// Keys of width ≤ 2, packed into `u64`s (width fixed per map).
    Packed {
        /// The key width (needed to unpack on drain).
        width: usize,
        /// Packed key → accumulated value.
        map: FxHashMap<u64, P>,
        /// The drain's sort buffer, empty between drains.
        sorted: Vec<(u64, P)>,
    },
    /// Keys of width > 2, boxed.
    Wide {
        /// Key → accumulated value.
        map: FxHashMap<Box<[u32]>, P>,
        /// The drain's sort buffer, empty between drains.
        sorted: Vec<(Box<[u32]>, P)>,
    },
}

impl<P: PreSemiring> AccumMap<P> {
    /// An empty accumulator for keys of the given width.
    pub fn new(width: usize) -> Self {
        if width <= 2 {
            AccumMap::Packed {
                width,
                map: FxHashMap::default(),
                sorted: Vec::new(),
            }
        } else {
            AccumMap::Wide {
                map: FxHashMap::default(),
                sorted: Vec::new(),
            }
        }
    }

    /// Number of distinct keys accumulated.
    pub fn len(&self) -> usize {
        match self {
            AccumMap::Packed { map, .. } => map.len(),
            AccumMap::Wide { map, .. } => map.len(),
        }
    }

    /// Whether nothing has been accumulated.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `⊕`-merges `v` at `key` (insert when absent) in one map probe.
    #[inline]
    pub fn merge(&mut self, key: &[u32], v: P) {
        match self {
            AccumMap::Packed { map, .. } => match map.entry(pack(key)) {
                std::collections::hash_map::Entry::Occupied(mut e) => {
                    let g = e.get_mut();
                    *g = g.add(&v);
                }
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert(v);
                }
            },
            AccumMap::Wide { map, .. } => match map.get_mut(key) {
                Some(g) => *g = g.add(&v),
                None => {
                    map.insert(key.into(), v);
                }
            },
        }
    }

    /// Drains every entry in ascending key order — packed `u64` order is
    /// exactly the lexicographic column order the wide path sorts by, so
    /// both variants drain identically. Sorted draining is the
    /// workspace's determinism guarantee: accumulators are hash maps for
    /// O(1) merging, and draining in hash-iteration order would make
    /// row-insertion order (and with it the `⊕`-fold association on
    /// POPS whose addition is not exactly associative, e.g. f64 sums)
    /// vary run to run.
    pub fn drain_sorted(&mut self, mut out: impl FnMut(&[u32], P)) {
        match self {
            AccumMap::Packed { width, map, sorted } => {
                sorted.extend(map.drain());
                sorted.sort_unstable_by_key(|&(k, _)| k);
                for (k, v) in sorted.drain(..) {
                    match width {
                        0 => out(&[], v),
                        1 => out(&[k as u32], v),
                        _ => out(&[(k >> 32) as u32, k as u32], v),
                    }
                }
            }
            AccumMap::Wide { map, sorted } => {
                sorted.extend(map.drain());
                sorted.sort_unstable_by(|a, b| a.0.cmp(&b.0));
                for (k, v) in sorted.drain(..) {
                    out(&k, v);
                }
            }
        }
    }
}

/// An interned finite-support relation: flat rows, values, row map, and
/// lazily built probe structures — hash-prefix indexes, and sorted runs
/// while the relation is bulk (see the module docs).
///
/// ## The row map, and who needs it
///
/// Scans ([`Self::iter`], [`Self::row`], [`Self::val`]) and prefix
/// probes ([`Self::probe`], [`Self::probe_arranged`]) read the flat
/// columns and the per-mask structures only. The **full-key row map**
/// serves [`Self::rowid`], [`Self::get`], [`Self::insert_row`],
/// [`Self::merge`], [`Self::merge_changed`] and `land`. A relation
/// made by [`Self::new`] carries it from the start — every IDB relation
/// is written through `land` once per derivation — but one made by
/// [`Self::from_distinct_rows`] (how the EDB is loaded) builds it **on
/// first need**, inside whichever of those methods asks
/// first; nobody has to ensure it beforehand, and concurrent first
/// readers of a shared relation block on one build. Over an EDB exactly
/// two kinds of reader ever ask: a Boolean guard atom in a rule
/// condition (`exec::eval_cformula`) and a
/// [`Materialization`](crate::Materialization) edit (present-key checks
/// and `⊕`-merges into the live relation). A
/// from-scratch run of a program without guard atoms never builds it —
/// for wide keys that is one `Box<[u32]>` and one hash insert per row
/// not spent.
///
/// ## Tombstones
///
/// A row at `0` is no fact — a K-relation's support leaves it out — and
/// that is how a row leaves a standing relation: [`Self::set_val`] with
/// `0` leaves it where it stands, with its id, its row-map entry, its
/// postings, and the relation's regime, runs and tables. Readers skip
/// it ([`Self::iter`], [`Self::get`], the executor's join loop), and a
/// later write of the same key through [`Self::merge`] or `land` meets
/// the row at `0` and brings it back at its id (`0 ⊕ v = v`). The
/// relation counts its tombstones exactly, so its support size is
/// O(1), and once they are more than half its rows [`Self::compact`]
/// re-lays the rest. Only a [`Materialization`](crate::Materialization)
/// delete makes tombstones: a from-scratch run never stores a `0`.
#[derive(Clone, Debug)]
pub struct ColumnRel<P> {
    arity: usize,
    keys: Vec<u32>,
    vals: Vec<P>,
    /// Full key → row id. Unset only on a bulk-loaded relation nothing
    /// has read by key yet; once set it is maintained by every
    /// map-registering write.
    map: OnceLock<RowMap>,
    /// Posting-list indexes by mask: hashed, or — on a bulk relation —
    /// a one-column table (see the module docs).
    indexes: FxHashMap<ColMask, Postings>,
    /// Sorted runs under every mask that asked for one (a mask whose
    /// columns lead another's order shares that run); a clone shares
    /// them (`Arc`), not the row data. Emptied by the first append.
    arrangements: FxHashMap<ColMask, Arrangement>,
    /// How the rows came, and so what [`Self::ensure_probe`] builds.
    regime: Regime,
    /// How many rows hold `0` (see "Tombstones" above), kept exact by
    /// every write of a value. A `u32`, as row ids are, so that it fills
    /// the padding after `regime` and the relation does not grow.
    tombstones: u32,
    /// Monotone count of index/arrangement *builds* (not incremental
    /// maintenance) — `Materialization` pins its no-churn contract on
    /// this staying flat for untouched relations.
    index_builds: u64,
    /// Monotone mutation counter: bumped on every row append, value
    /// overwrite, and clear. Equal versions ⟹ identical contents, which
    /// is how the [`Materialization`](crate::incremental) tests pin that
    /// an edit leaves the relations it does not touch alone.
    version: u64,
    /// Reusable projection buffer for index maintenance (never observed
    /// across calls; cloned relations just get an empty one).
    scratch: Vec<u32>,
}

/// A [`ColumnRel`]'s regime (see the module docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Regime {
    /// Made by [`ColumnRel::new`], or appended to or cleared since it
    /// was made in one piece.
    Grown,
    /// Made in one piece by [`ColumnRel::from_distinct_rows`].
    Bulk,
    /// Made in one piece by the loader ([`ColumnRel::from_loaded_rows`]):
    /// bulk, and its rows ascend by constant rank.
    Loaded,
}

impl<P: Pops> ColumnRel<P> {
    /// An empty relation of the given arity.
    pub fn new(arity: usize) -> Self {
        assert!(arity <= MAX_ARITY, "engine supports arity ≤ 32");
        ColumnRel {
            arity,
            keys: Vec::new(),
            vals: Vec::new(),
            map: OnceLock::from(RowMap::new(arity)),
            indexes: FxHashMap::default(),
            arrangements: FxHashMap::default(),
            regime: Regime::Grown,
            tombstones: 0,
            index_builds: 0,
            version: 0,
            scratch: Vec::new(),
        }
    }

    /// A relation holding the given rows — `keys` row-major, one value
    /// per row — **without** building the full-key row map: it is built
    /// the first time a method that needs it runs (see the type docs).
    /// The caller guarantees the keys are pairwise distinct (checked
    /// when the map is built, in debug builds); the result is otherwise
    /// indistinguishable from `insert_row`-ing the rows in order into
    /// [`Self::new`] — same row ids, same [`Self::version`]. No value is
    /// `0`: a relation made in one piece holds no tombstone.
    pub fn from_distinct_rows(arity: usize, keys: Vec<u32>, vals: Vec<P>) -> Self {
        assert_eq!(keys.len(), vals.len() * arity, "row arity mismatch");
        debug_assert!(!vals.iter().any(P::is_zero), "a bulk row at 0");
        ColumnRel {
            map: OnceLock::new(),
            regime: Regime::Bulk,
            version: vals.len() as u64,
            keys,
            vals,
            ..ColumnRel::new(arity)
        }
    }

    /// [`Self::from_distinct_rows`] for the loader
    /// ([`Interner::load_relation`](crate::Interner::load_relation)),
    /// whose rows ascend by constant rank: the caller guarantees that
    /// order, which lets [`Self::ensure_probe`] search a prefix mask
    /// through the rows as they lie (checked there, in debug builds).
    pub(crate) fn from_loaded_rows(arity: usize, keys: Vec<u32>, vals: Vec<P>) -> Self {
        ColumnRel {
            regime: Regime::Loaded,
            ..ColumnRel::from_distinct_rows(arity, keys, vals)
        }
    }

    /// The full-key row map, built from the stored rows if this is the
    /// first call that needs it.
    pub(crate) fn row_map(&self) -> &RowMap {
        self.map
            .get_or_init(|| RowMap::build(self.arity, self.len(), &self.keys))
    }

    /// [`Self::row_map`] for the writers.
    fn row_map_mut(&mut self) -> &mut RowMap {
        self.row_map();
        self.map.get_mut().expect("row map just ensured")
    }

    /// Removes every row while keeping the arity, every registered index
    /// mask, and the allocated capacity — the worklist drivers refill
    /// per-frontier delta relations thousands of times per run, so
    /// re-registering indexes (or re-growing buffers) per batch would
    /// dominate.
    pub fn clear(&mut self) {
        self.version += 1;
        self.tombstones = 0;
        self.keys.clear();
        self.vals.clear();
        if let Some(map) = self.map.get_mut() {
            map.clear(self.arity);
        }
        for index in self.indexes.values_mut() {
            match index {
                Postings::Hashed(index) => index.clear(),
                Postings::Table { .. } => *index = Postings::Hashed(KeyedMap::new(1)),
            }
        }
        self.grow();
    }

    /// Ends the bulk regime — called by every append before its row
    /// lands, and by [`Self::clear`] once the rows are gone: the sorted
    /// runs and the posting tables are dropped (nothing maintains one)
    /// and every mask that had been asked of them gets the hash index
    /// appends keep current, so whoever probed a run finds an index (the
    /// executor looks for a run first and an index otherwise, once per
    /// plan run). On a grown relation holding no runs, which is every
    /// call but the first, this is two tests.
    #[inline]
    fn grow(&mut self) {
        if std::mem::replace(&mut self.regime, Regime::Grown) != Regime::Grown
            || !self.arrangements.is_empty()
        {
            self.rehash();
        }
    }

    /// [`Self::grow`]'s one-time work, out of the append path.
    #[cold]
    #[inline(never)]
    fn rehash(&mut self) {
        let tables = self
            .indexes
            .iter()
            .filter(|(_, i)| matches!(i, Postings::Table { .. }));
        let mut masks: Vec<ColMask> = tables.map(|(&mask, _)| mask).collect();
        masks.extend(std::mem::take(&mut self.arrangements).into_keys());
        for mask in masks {
            self.indexes.remove(&mask);
            self.ensure_index(mask);
        }
    }

    /// Once tombstones are more than half the rows, re-lays the live
    /// rows from row 0, in order, through [`Self::clear`] and the
    /// appends that maintain the row map and every index — at the cost
    /// of the relation, and the one step that moves row ids. Below that
    /// it does nothing, so whether it runs is a function of the
    /// relation's edits.
    pub(crate) fn compact(&mut self) {
        if self.tombstones as usize * 2 <= self.len() {
            return;
        }
        let arity = self.arity;
        let (keys, vals) = (
            std::mem::take(&mut self.keys),
            std::mem::take(&mut self.vals),
        );
        self.clear();
        for (r, v) in vals.into_iter().enumerate() {
            if !v.is_zero() {
                self.insert_row(&keys[r * arity..(r + 1) * arity], v);
            }
        }
    }

    /// The row map's layout and approximate heap bytes — `dense 500²
    /// (976.6 KiB)`, `hashed (476.0 KiB)`, or `not built` on a
    /// bulk-loaded relation nothing has read by key.
    pub(crate) fn describe_row_map(&self) -> String {
        self.map
            .get()
            .map_or_else(|| "not built".into(), |m| m.describe(self.arity))
    }

    /// The arity.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Number of rows, tombstones included.
    pub fn len(&self) -> usize {
        self.vals.len()
    }

    /// Number of rows that are no tombstone: the support.
    pub(crate) fn support_size(&self) -> usize {
        self.len() - self.tombstones as usize
    }

    /// Whether there are no rows.
    pub fn is_empty(&self) -> bool {
        self.vals.is_empty()
    }

    /// Every row's key columns, row-major: what a load-order run
    /// searches.
    pub(crate) fn keys(&self) -> &[u32] {
        &self.keys
    }

    /// The key columns of row `r`.
    pub fn row(&self, r: u32) -> &[u32] {
        let s = r as usize * self.arity;
        &self.keys[s..s + self.arity]
    }

    /// The value of row `r`.
    pub fn val(&self, r: u32) -> &P {
        &self.vals[r as usize]
    }

    /// The row id holding `key`, if present.
    pub fn rowid(&self, key: &[u32]) -> Option<u32> {
        self.row_map().get(key)
    }

    /// [`Self::rowid`], unless the row is a tombstone.
    pub(crate) fn live_rowid(&self, key: &[u32]) -> Option<u32> {
        self.rowid(key).filter(|&r| !self.val(r).is_zero())
    }

    /// The value at `key`, if present and no tombstone.
    pub fn get(&self, key: &[u32]) -> Option<&P> {
        self.live_rowid(key).map(|r| self.val(r))
    }

    /// Appends a fresh row (caller guarantees `key` is absent) and
    /// maintains every built index.
    ///
    /// The arity check is a hard assert: a wrong-length key would shift
    /// every subsequent row boundary in the flat storage, silently
    /// corrupting the relation.
    pub fn insert_row(&mut self, key: &[u32], value: P) -> u32 {
        let next = self.vals.len() as u32;
        let present = self.row_map_mut().get_or_insert(key, next);
        debug_assert!(present.is_none(), "insert_row on present key");
        self.append_row(key, value)
    }

    /// Appends a row **without** registering it in the full-key row map
    /// — for relations only ever read by scan or prefix-index probe
    /// (the drivers' Δ relations): the map insert is pure overhead when
    /// nothing calls [`Self::rowid`]/[`Self::get`]/[`Self::merge`] on
    /// the relation. Indexes are still maintained. Mixing `append_row`
    /// with the map-dependent methods on one relation is a caller bug.
    ///
    /// The first append to a relation holding sorted runs turns them
    /// into hash indexes (`grow`, above): a bulk-loaded wide EDB
    /// relation a [`Materialization`](crate::Materialization) inserts a
    /// new fact into pays one index build per probed mask, once.
    pub fn append_row(&mut self, key: &[u32], value: P) -> u32 {
        assert_eq!(key.len(), self.arity, "row arity mismatch");
        self.grow();
        self.version += 1;
        self.tombstones += u32::from(value.is_zero());
        let r = self.vals.len() as u32;
        self.keys.extend_from_slice(key);
        self.vals.push(value);
        for (&mask, index) in &mut self.indexes {
            let index = index.hashed();
            project_into(key, mask, &mut self.scratch);
            match index.get_mut(&self.scratch) {
                Some(rows) => rows.push(r),
                None => index.insert(&self.scratch, vec![r]),
            }
        }
        r
    }

    /// Overwrites the value of row `r` (keys unchanged, indexes intact):
    /// `0` makes the row a tombstone where it stands, and any other
    /// value brings a tombstone back at its id.
    pub fn set_val(&mut self, r: u32, value: P) {
        self.version += 1;
        self.tombstones += u32::from(value.is_zero());
        let old = std::mem::replace(&mut self.vals[r as usize], value);
        self.tombstones -= u32::from(old.is_zero());
    }

    /// `⊕`-merges `value` at `key` (insert when absent), returning the
    /// affected row id.
    pub fn merge(&mut self, key: &[u32], value: P) -> u32 {
        self.merge_changed(key, value).0
    }

    /// [`Self::merge`] that also reports whether the stored value
    /// actually changed (on naturally ordered POPS `old ⊕ v ≠ old` ⟺
    /// the row strictly improved, no `⊖` needed).
    pub fn merge_changed(&mut self, key: &[u32], value: P) -> (u32, bool) {
        self.land(key, |_, old| match old {
            Some(old) => Some(old.add(&value)).filter(|merged| merged != old),
            None => Some(value),
        })
    }

    /// The one write every fixpoint loop lands a row through: `rule` is
    /// handed the row id `key` lands at and its stored value (`None`
    /// if absent), and returns the value to store, or `None` to leave
    /// the relation as it was. Returns that row id and whether `rule`
    /// stored (the id names no row when an absent key was not stored).
    ///
    /// One map operation per call on both row-map layouts: the entry or
    /// slot is claimed and filled in a single probe (this runs once per
    /// derivation, so the second hash+probe of a lookup-then-insert
    /// sequence was measurable at fixpoint scale). An absent key `rule`
    /// declines costs a second, to give the claim back.
    #[inline(always)]
    pub(crate) fn land(
        &mut self,
        key: &[u32],
        rule: impl FnOnce(u32, Option<&P>) -> Option<P>,
    ) -> (u32, bool) {
        let next = self.vals.len() as u32;
        match self.row_map_mut().get_or_insert(key, next) {
            Some(r) => match rule(r, Some(&self.vals[r as usize])) {
                Some(v) => {
                    self.set_val(r, v);
                    (r, true)
                }
                None => (r, false),
            },
            None => match rule(next, None) {
                Some(v) => (self.append_row(key, v), true),
                None => {
                    self.row_map_mut().remove(key);
                    (next, false)
                }
            },
        }
    }

    /// Builds the hash index for `mask` if missing (subsequently
    /// maintained by [`Self::insert_row`]). `mask = 0` (full scan) needs
    /// no index.
    pub fn ensure_index(&mut self, mask: ColMask) {
        self.ensure_postings(mask, false);
    }

    /// [`Self::ensure_index`], except that where `table` is set and the
    /// column of a one-column `mask` is dense enough, the index is a
    /// [`Postings::Table`] — [`Self::ensure_probe`] sets it on a bulk
    /// relation.
    fn ensure_postings(&mut self, mask: ColMask, table: bool) {
        if mask == 0 || self.indexes.contains_key(&mask) {
            return;
        }
        self.index_builds += 1;
        let (arity, keys, len) = (self.arity, &self.keys[..], self.len());
        // A mask naming a column the relation lacks (an atom of another
        // arity, which no probe reads) is hashed as before.
        let col = mask.trailing_zeros() as usize;
        let index = (table && mask.count_ones() == 1 && col < arity)
            .then(|| Postings::table(arity, col, keys, len))
            .flatten()
            .unwrap_or_else(|| Postings::hash(arity, mask, keys, len));
        self.indexes.insert(mask, index);
    }

    /// The row ids whose `mask`-projection equals `key`, ascending. The
    /// index must have been built via [`Self::ensure_index`] or
    /// [`Self::ensure_probe`].
    pub fn probe(&self, mask: ColMask, key: &[u32]) -> &[u32] {
        self.index(mask)
            .expect("probe before ensure_index")
            .get(key)
    }

    /// The posting-list index on `mask`, if built — what the executor
    /// resolves once per plan run and then probes directly.
    pub(crate) fn index(&self, mask: ColMask) -> Option<&Postings> {
        self.indexes.get(&mask)
    }

    /// Sorts the rows held now into a run serving `mask`, unless a run
    /// already does (one whose order leads with `mask`'s columns is
    /// shared, not rebuilt). The run is a picture of this moment: the
    /// next append drops it and indexes `mask` by hash instead (see
    /// [`Self::append_row`]). `mask = 0` needs no arrangement.
    pub fn ensure_arranged(&mut self, mask: ColMask) {
        self.arrange(mask, |rel| Arrangement::build(rel.arity, mask, &rel.keys));
    }

    /// Registers under `mask` the arrangement of another mask that
    /// serves it, or else the one `build` makes (one more build).
    fn arrange(&mut self, mask: ColMask, build: impl FnOnce(&Self) -> Arrangement) {
        if mask == 0 || self.arrangements.contains_key(&mask) {
            return;
        }
        let shared = self.arrangements.values().find(|a| a.serves(mask));
        let arr = shared.cloned().unwrap_or_else(|| {
            self.index_builds += 1;
            build(self)
        });
        self.arrangements.insert(mask, arr);
    }

    /// Collects into `out` (cleared first) the row ids whose
    /// `mask`-projection equals `key`, **sorted ascending** — the same
    /// visit order the hash path's posting lists produce, which is what
    /// makes the two structures interchangeable under a plan. The
    /// arrangement must have been built via [`Self::ensure_arranged`]
    /// or [`Self::ensure_probe`].
    pub fn probe_arranged(&self, mask: ColMask, key: &[u32], out: &mut Vec<u32>) {
        out.clear();
        let arr = self
            .arrangement_for(mask)
            .expect("probe_arranged before ensure_arranged");
        match arr.probe(&self.keys, key) {
            Found::Rows(rows) => out.extend(rows),
            Found::Run(rows) => {
                out.extend_from_slice(rows);
                if out.len() > 1 {
                    out.sort_unstable();
                }
            }
        }
    }

    /// Builds the probe structure joins through `mask` run against —
    /// the single ensure entry point the drivers call, and the one
    /// place the structure is decided. On a bulk relation (made by
    /// [`Self::from_distinct_rows`], not appended to since): a sorted
    /// run where `probes_arranged` says the key is too wide for the
    /// packed hash path, and a posting table for a one-column mask whose
    /// column `row_map_dense` admits. The sorted run of a relation the
    /// loader made, under a mask that is a prefix of its columns, is
    /// the rows as they lie, searched by constant rank, where `rank`
    /// hands over the interner's [`rank_table`](crate::Interner::rank_table)
    /// (called once at most); without `rank`, and under any other mask,
    /// it is [`Self::ensure_arranged`]'s counting sort. A hash-prefix
    /// index otherwise, which is every relation made by [`Self::new`] —
    /// the IDB state, every Δ, every relation an edit rebuilds — and a
    /// bulk one from its first append on. Returns whether it was a
    /// sorted run (the drivers time those builds separately).
    pub fn ensure_probe(&mut self, mask: ColMask, rank: Option<&dyn Fn() -> Arc<[u32]>>) -> bool {
        let bulk = self.regime != Regime::Grown;
        let sorted = bulk && probes_arranged(self.arity, mask);
        // Columns `0..k` for some `k`: `perm_for` is the identity.
        let prefix = mask & mask.wrapping_add(1) == 0;
        match rank {
            Some(rank) if sorted && prefix && self.regime == Regime::Loaded => {
                self.arrange(mask, |rel| {
                    Arrangement::in_load_order(rel.arity, rank(), &rel.keys)
                });
            }
            _ if sorted => self.ensure_arranged(mask),
            _ => self.ensure_postings(mask, bulk),
        }
        sorted
    }

    /// Monotone count of index/arrangement builds over this relation's
    /// lifetime (clones inherit the count).
    pub fn index_builds(&self) -> u64 {
        self.index_builds
    }

    /// The mutation version (see the field doc): two observations with
    /// equal versions are guaranteed to see identical contents.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The sorted run serving `mask`, if [`Self::ensure_arranged`] or
    /// [`Self::ensure_probe`] made one and no row has been appended
    /// since — what the executor's per-plan-run dispatch goes by.
    #[doc(hidden)]
    pub fn arrangement_for(&self, mask: ColMask) -> Option<&Arrangement> {
        self.arrangements.get(&mask)
    }

    /// Iterates `(row-id, key, value)` in insertion order, tombstones
    /// left out.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &[u32], &P)> {
        let rows = (0..self.vals.len() as u32).map(move |r| (r, self.row(r), self.val(r)));
        rows.filter(|(_, _, v)| !v.is_zero())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlo_pops::Trop;

    #[test]
    fn rows_merge_and_probe() {
        let mut rel = ColumnRel::<Trop>::new(2);
        rel.ensure_index(0b01);
        rel.insert_row(&[0, 1], Trop::finite(1.0));
        rel.insert_row(&[0, 2], Trop::finite(2.0));
        rel.insert_row(&[1, 2], Trop::finite(3.0));
        // Incremental maintenance: the index was built while empty.
        assert_eq!(rel.probe(0b01, &[0]), &[0, 1]);
        assert_eq!(rel.probe(0b01, &[1]), &[2]);
        assert_eq!(rel.probe(0b01, &[9]), &[0u32; 0]);
        // Merge takes ⊕ (min on Trop).
        let r = rel.merge(&[0, 1], Trop::finite(0.5));
        assert_eq!(rel.val(r), &Trop::finite(0.5));
        assert_eq!(rel.len(), 3);
        // Late-built index sees all rows.
        rel.ensure_index(0b10);
        assert_eq!(rel.probe(0b10, &[2]).len(), 2);
    }

    #[test]
    fn wide_relations_use_boxed_keys_transparently() {
        // Arity 3 exceeds the packed-key width: same API, boxed path.
        let mut rel = ColumnRel::<Trop>::new(3);
        rel.ensure_index(0b101);
        rel.insert_row(&[1, 2, 3], Trop::finite(1.0));
        rel.insert_row(&[1, 9, 3], Trop::finite(2.0));
        assert_eq!(rel.probe(0b101, &[1, 3]), &[0, 1]);
        assert_eq!(rel.rowid(&[1, 9, 3]), Some(1));
        let (r, changed) = rel.merge_changed(&[1, 2, 3], Trop::finite(0.25));
        assert_eq!((r, changed), (0, true));
        assert_eq!(rel.get(&[1, 2, 3]), Some(&Trop::finite(0.25)));
    }

    #[test]
    fn packed_keys_distinguish_column_order() {
        let mut rel = ColumnRel::<Trop>::new(2);
        rel.insert_row(&[1, 2], Trop::finite(1.0));
        rel.insert_row(&[2, 1], Trop::finite(2.0));
        assert_eq!(rel.get(&[1, 2]), Some(&Trop::finite(1.0)));
        assert_eq!(rel.get(&[2, 1]), Some(&Trop::finite(2.0)));
        assert_eq!(rel.get(&[2, 2]), None);
    }

    #[test]
    fn projection_is_ascending_by_column() {
        assert_eq!(project(&[7, 8, 9], 0b101).as_ref(), &[7, 9]);
        assert_eq!(project(&[7, 8, 9], 0).as_ref(), &[0u32; 0]);
        let mut scratch = vec![99, 99];
        project_into(&[7, 8, 9], 0b110, &mut scratch);
        assert_eq!(scratch, vec![8, 9]);
    }

    #[test]
    fn clear_keeps_indexes_registered() {
        let mut rel = ColumnRel::<Trop>::new(2);
        rel.ensure_index(0b01);
        rel.insert_row(&[0, 1], Trop::finite(1.0));
        rel.clear();
        assert!(rel.is_empty());
        // The mask survives the clear: probes work and incremental
        // maintenance resumes without another ensure_index.
        assert_eq!(rel.probe(0b01, &[0]), &[0u32; 0]);
        rel.insert_row(&[0, 2], Trop::finite(2.0));
        assert_eq!(rel.probe(0b01, &[0]), &[0]);
    }

    /// A row set to `0` is a tombstone where it stands: its id, its
    /// row-map entry and its postings stay, and the readers skip it
    /// (`iter`, `get`, the support size). A merge of its key brings it
    /// back at its id. Once tombstones are more than half the rows,
    /// `compact` re-lays the rest, and the relation then reads, row for
    /// row and probe for probe, like one that only ever held them.
    #[test]
    fn a_row_at_zero_stays_where_it_stands_until_compaction() {
        for arity in [2, 3] {
            let key = |a: u32, b: u32| [a, b, a + b][..arity].to_vec();
            let rows = [(0, 1), (0, 3), (0, 2), (1, 2), (4, 2)];
            let holding = |kept: &[usize]| {
                let mut rel = ColumnRel::<Trop>::new(arity);
                rel.ensure_index(0b01);
                rel.ensure_index(0b10);
                for &i in kept {
                    let (a, b) = rows[i];
                    rel.insert_row(&key(a, b), Trop::finite((a + b) as f64));
                }
                rel
            };
            // Probe for probe and id for id, `rel` reads like `twin`.
            let reads_like = |rel: &ColumnRel<Trop>, twin: &ColumnRel<Trop>| {
                for (mask, k) in [(0b01, 0), (0b01, 4), (0b10, 2), (0b10, 3)] {
                    assert_eq!(
                        rel.probe(mask, &[k]),
                        twin.probe(mask, &[k]),
                        "{mask:b} {k}"
                    );
                }
                for &(a, b) in &rows {
                    assert_eq!(rel.rowid(&key(a, b)), twin.rowid(&key(a, b)));
                }
            };
            let mut rel = holding(&[0, 1, 2, 3, 4]);
            let standing = rel.clone();
            for r in [1, 3] {
                let before = rel.version();
                rel.set_val(r, Trop::zero());
                assert!(rel.version() > before, "a tombstone is a mutation");
            }
            rel.compact();
            assert_eq!((rel.len(), rel.support_size()), (5, 3), "2 of 5 stay");
            let live: Vec<u32> = rel.iter().map(|(r, _, _)| r).collect();
            assert_eq!((live, rel.get(&key(0, 3))), (vec![0, 2, 4], None));
            reads_like(&rel, &standing);
            assert_eq!(rel.merge_changed(&key(0, 3), Trop::finite(3.0)), (1, true));
            assert_eq!(rel.support_size(), 4, "back at its id");
            for r in [0, 2] {
                rel.set_val(r, Trop::zero());
            }
            rel.compact();
            let twin = holding(&[1, 4]);
            assert_eq!(rel.len(), 2, "3 of 5 are compacted");
            assert_eq!(
                rel.iter().collect::<Vec<_>>(),
                twin.iter().collect::<Vec<_>>()
            );
            reads_like(&rel, &twin);
            // A compacted key comes back as a fresh row, indexed again.
            assert_eq!(rel.merge_changed(&key(0, 1), Trop::finite(1.0)), (2, true));
            assert_eq!(rel.probe(0b01, &[0]), &[0, 2]);
        }
    }

    #[test]
    fn accum_map_merges_and_drains_sorted_on_both_paths() {
        // Packed path (width 2): drain order is lexicographic by column.
        let mut acc = AccumMap::<Trop>::new(2);
        acc.merge(&[2, 1], Trop::finite(5.0));
        acc.merge(&[1, 9], Trop::finite(3.0));
        acc.merge(&[1, 9], Trop::finite(1.0)); // ⊕ = min
        assert_eq!(acc.len(), 2);
        let mut seen: Vec<(Vec<u32>, Trop)> = vec![];
        acc.drain_sorted(|k, v| seen.push((k.to_vec(), v)));
        assert_eq!(
            seen,
            vec![
                (vec![1, 9], Trop::finite(1.0)),
                (vec![2, 1], Trop::finite(5.0)),
            ]
        );
        // Wide path (width 3): same contract.
        let mut acc = AccumMap::<Trop>::new(3);
        acc.merge(&[7, 0, 1], Trop::finite(2.0));
        acc.merge(&[0, 0, 1], Trop::finite(4.0));
        let mut keys: Vec<Vec<u32>> = vec![];
        acc.drain_sorted(|k, _| keys.push(k.to_vec()));
        assert_eq!(keys, vec![vec![0, 0, 1], vec![7, 0, 1]]);
        // A drained accumulator is empty and takes the next round.
        assert!(acc.is_empty());
        acc.merge(&[5, 5, 5], Trop::finite(1.0));
        keys.clear();
        acc.drain_sorted(|k, _| keys.push(k.to_vec()));
        assert_eq!(keys, vec![vec![5, 5, 5]]);
    }

    /// The sorted run against the hash index on a relation grown row by
    /// row (`every_probe_structure_answers_every_key_alike` crosses all
    /// three structures on bulk relations): on
    /// random rows of every arity 1–5, through every non-zero mask, a
    /// hash-index probe and an arranged probe return the same row ids
    /// in the same (ascending) order. A third of the masks are asked for
    /// a sorted run before any row exists and a third midway — the next
    /// append turns those runs into hash indexes, maintained from there
    /// — and after the last row every mask gets both structures, so
    /// the bulk sort, the conversion and incremental index maintenance
    /// are all crossed.
    #[test]
    fn arranged_probes_match_hash_probes_on_every_mask() {
        let mut seed = 0x9e37_79b9_7f4a_7c15_u64;
        let mut rng = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        let mut out = Vec::new();
        for arity in 1..=5usize {
            let masks = 1..(1u32 << arity);
            let mut rel = ColumnRel::<Trop>::new(arity);
            let arrange = |rel: &mut ColumnRel<Trop>, phase: u32| {
                for mask in masks.clone().filter(|m| m % 3 == phase) {
                    rel.ensure_arranged(mask);
                }
            };
            arrange(&mut rel, 0);
            for r in 0..120u32 {
                if r == 60 {
                    arrange(&mut rel, 1);
                }
                // Small domain: posting lists hold many rows.
                let key: Vec<u32> = (0..arity).map(|_| (rng() % 4) as u32).collect();
                if rel.rowid(&key).is_none() {
                    rel.insert_row(&key, Trop::finite(r as f64));
                }
            }
            assert!(rel.len() > 3, "arity {arity}: rows were stored");
            for mask in masks.clone() {
                rel.ensure_index(mask);
                rel.ensure_arranged(mask);
            }
            for mask in masks {
                let width = mask.count_ones() as usize;
                for _ in 0..40 {
                    // Values 0–4: some keys are absent by construction.
                    let key: Vec<u32> = (0..width).map(|_| (rng() % 5) as u32).collect();
                    rel.probe_arranged(mask, &key, &mut out);
                    assert_eq!(
                        out.as_slice(),
                        rel.probe(mask, &key),
                        "arity {arity}, mask {mask:#b}, key {key:?}"
                    );
                }
            }
        }
    }

    /// The rows `rel` answers a probe of `key` through `mask` with,
    /// through whichever structure holds the mask.
    fn probed(rel: &ColumnRel<Trop>, mask: ColMask, key: &[u32]) -> Vec<u32> {
        let mut out = Vec::new();
        if rel.arrangement_for(mask).is_some() {
            rel.probe_arranged(mask, key, &mut out);
        } else {
            out.extend_from_slice(rel.probe(mask, key));
        }
        out
    }

    /// Every probe structure a bulk relation can hold — the posting
    /// table (dense ids), the hash index (ids spread past 8 slots a row,
    /// or two columns) and the sorted run (arity > 2) — answers every
    /// key of every mask, on `from_distinct_rows` relations of arity
    /// 1–5, with `ensure_index`'s posting list: the same row ids in the
    /// same order. Then each way out of the bulk regime — the first
    /// append, a `clear` and refill, a compaction — leaves every mask
    /// answering like a hash index built afresh over the rows that are
    /// left, and no table or run behind. A tombstone is no way out: the
    /// runs and tables stay, and answer as before.
    #[test]
    fn every_probe_structure_answers_every_key_alike() {
        let mut seed = 0x51_7cc1_b727_220a_u64;
        let mut rng = move |bound: u64| {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed % bound
        };
        // Column `c`'s ids are drawn below 5 and multiplied by
        // `scale(c)`: 1 keeps a column dense, 1 000 spreads it past any
        // table.
        type Scale = fn(usize) -> u32;
        type Edit = fn(&mut ColumnRel<Trop>, &[u32]);
        let regimes: [(&str, Scale); 3] = [
            ("dense", |_| 1),
            ("sparse", |_| 1000),
            ("mixed", |c| if c % 2 == 1 { 1000 } else { 1 }),
        ];
        for arity in 1..=5usize {
            for (regime, scale) in regimes {
                let mut keys: Vec<Vec<u32>> = Vec::new();
                for _ in 0..80 {
                    let key: Vec<u32> = (0..arity).map(|c| rng(5) as u32 * scale(c)).collect();
                    if !keys.contains(&key) {
                        keys.push(key);
                    }
                }
                let vals = (0..keys.len()).map(|r| Trop::finite(r as f64)).collect();
                let base = ColumnRel::from_distinct_rows(arity, keys.concat(), vals);
                let masks = || 1..(1 as ColMask) << arity;
                // Present projections, ids just past the largest, and
                // one no table can reach.
                let probes = |rel: &ColumnRel<Trop>, mask: ColMask| {
                    let mut found: Vec<Vec<u32>> = rel
                        .iter()
                        .map(|(_, key, _)| project(key, mask).into_vec())
                        .collect();
                    let width = mask.count_ones() as usize;
                    for id in [5, 4001, 5000, u32::MAX - 1] {
                        found.push(vec![id; width]);
                    }
                    found
                };
                let at = |mask: ColMask, key: &[u32]| {
                    format!("{regime} arity {arity}, mask {mask:#b}, key {key:?}")
                };
                let mut hashed = base.clone();
                let mut bulk = base.clone();
                for mask in masks() {
                    hashed.ensure_index(mask);
                    let sorted = bulk.ensure_probe(mask, None);
                    assert_eq!(sorted, arity > 2, "{regime} arity {arity}, mask {mask:#b}");
                    let one_column = mask.count_ones() == 1;
                    let dense = scale(mask.trailing_zeros() as usize) == 1;
                    let table = matches!(bulk.index(mask), Some(Postings::Table { .. }));
                    assert_eq!(
                        table,
                        !sorted && one_column && dense,
                        "{regime} arity {arity}, mask {mask:#b}: a table exactly where the column is dense"
                    );
                }
                for mask in masks() {
                    for key in probes(&base, mask) {
                        assert_eq!(
                            probed(&bulk, mask, &key),
                            hashed.probe(mask, &key),
                            "{}",
                            at(mask, &key)
                        );
                    }
                }
                // A tombstone keeps every structure, row ids included.
                let mut stood = bulk.clone();
                stood.set_val(1, Trop::zero());
                for mask in masks() {
                    let table = |rel: &ColumnRel<Trop>| {
                        matches!(rel.index(mask), Some(Postings::Table { .. }))
                    };
                    let run = |rel: &ColumnRel<Trop>| rel.arrangement_for(mask).is_some();
                    assert_eq!((table(&stood), run(&stood)), (table(&bulk), run(&bulk)));
                    for key in probes(&base, mask) {
                        assert_eq!(probed(&stood, mask, &key), probed(&bulk, mask, &key));
                    }
                }
                // Out of the bulk regime, three ways.
                assert!(base.len() >= 4, "{regime} arity {arity}: rows to remove");
                let absent: Vec<u32> = (0..arity).map(|c| 6 * scale(c)).collect();
                let edits: [(&str, Edit); 3] = [
                    ("append", |rel, absent| {
                        rel.insert_row(absent, Trop::finite(0.5));
                    }),
                    ("clear", |rel, absent| {
                        let first = rel.row(0).to_vec();
                        rel.clear();
                        rel.insert_row(absent, Trop::finite(0.5));
                        rel.insert_row(&first, Trop::finite(1.5));
                    }),
                    ("compact", |rel, _| {
                        for r in 0..=rel.len() as u32 / 2 {
                            rel.set_val(r, Trop::zero());
                        }
                        rel.compact();
                    }),
                ];
                for (edit, apply) in edits {
                    let mut rel = bulk.clone();
                    apply(&mut rel, &absent);
                    let mut fresh = ColumnRel::<Trop>::new(arity);
                    for (_, key, v) in rel.iter() {
                        fresh.insert_row(key, *v);
                    }
                    for mask in masks() {
                        fresh.ensure_index(mask);
                        assert!(
                            rel.arrangement_for(mask).is_none(),
                            "{edit}: a run survived"
                        );
                        let index = rel.index(mask).expect("every mask stays indexed");
                        assert!(
                            matches!(index, Postings::Hashed(_)),
                            "{edit}: a table survived"
                        );
                        let appended = project(&absent, mask).into_vec();
                        for key in probes(&base, mask).into_iter().chain([appended]) {
                            assert_eq!(
                                rel.probe(mask, &key),
                                fresh.probe(mask, &key),
                                "{edit}: {}",
                                at(mask, &key)
                            );
                        }
                    }
                }
            }
        }
    }

    /// A loaded relation searched as it lies against its counting sort
    /// and its hash index. The constants mix strings and integers, and
    /// another relation interns one of them first, so id order is not
    /// constant order. At arity 3 and 4, through every prefix mask
    /// (the rows as they lie, no batch) and one mask that is no prefix
    /// (a counting sort even with a rank table), all three structures
    /// answer every present projection, random keys (most of them
    /// absent), an id interned after the rank table, and an id past
    /// every table with the same rows in the same order. After one
    /// append the relation answers through hash indexes alone, and
    /// like an index built afresh.
    #[test]
    fn a_loaded_relation_answers_like_its_sorted_run_and_its_hash_index() {
        use crate::Interner;
        use dlo_core::relation::Relation;
        use dlo_core::Constant;
        let mut seed = 0x2545_f491_4f6c_dd1d_u64;
        let mut rng = move |bound: u64| {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed % bound
        };
        let constant = |i: u64| match i % 3 {
            0 => Constant::str(&format!("s{}", 11 - i)),
            _ => Constant::int(40 - i as i64),
        };
        for arity in [3usize, 4] {
            let mut interner = Interner::new();
            let first = Relation::from_pairs(1, [(vec![constant(7)], Trop::finite(1.0))]);
            interner.load_relation(&first);
            let tuples = (0..400).map(|v| {
                let tuple: Vec<Constant> = (0..arity).map(|_| constant(rng(9))).collect();
                (tuple, Trop::finite(v as f64))
            });
            let loaded = interner.load_relation(&Relation::from_pairs(arity, tuples));
            let table: Arc<[u32]> = interner.rank_table().into();
            let rank: &dyn Fn() -> Arc<[u32]> = &|| Arc::clone(&table);
            let late = interner.intern(&Constant::str("interned after the run"));
            let prefixes = (1..=arity).map(|w| (1 as ColMask) << w).map(|m| m - 1);
            let masks: Vec<ColMask> = prefixes.chain([0b101]).collect();
            let (mut own, mut sorted, mut hashed) = (loaded.clone(), loaded.clone(), loaded);
            for &mask in &masks {
                assert!(
                    own.ensure_probe(mask, Some(rank)),
                    "arity {arity}, mask {mask:#b}"
                );
                let batches = own.arrangement_for(mask).map(|a| a.batches().len());
                let prefix = mask & mask.wrapping_add(1) == 0;
                assert_eq!(batches, Some(usize::from(!prefix)), "mask {mask:#b}");
                sorted.ensure_arranged(mask);
                hashed.ensure_index(mask);
            }
            let ids = interner.len() as u64;
            for &mask in &masks {
                let width = mask.count_ones() as usize;
                let mut keys: Vec<Vec<u32>> = own
                    .iter()
                    .map(|(_, key, _)| project(key, mask).into_vec())
                    .collect();
                keys.extend((0..200).map(|_| (0..width).map(|_| rng(ids) as u32).collect()));
                let mut past = keys[0].clone();
                for id in [late, u32::MAX - 1] {
                    *past.last_mut().unwrap() = id;
                    keys.extend([past.clone(), vec![id; width]]);
                }
                for key in &keys {
                    let want = hashed.probe(mask, key);
                    let at = format!("arity {arity}, mask {mask:#b}, key {key:?}");
                    assert_eq!(probed(&own, mask, key), want, "load order, {at}");
                    assert_eq!(probed(&sorted, mask, key), want, "counting sort, {at}");
                }
            }
            let absent = vec![late; arity];
            own.append_row(&absent, Trop::finite(0.5));
            hashed.append_row(&absent, Trop::finite(0.5));
            for &mask in &masks {
                assert!(
                    own.arrangement_for(mask).is_none(),
                    "mask {mask:#b}: a run survived"
                );
                let index = own.index(mask);
                assert!(matches!(index, Some(Postings::Hashed(_))), "mask {mask:#b}");
                for (_, key, _) in hashed.iter() {
                    let key = project(key, mask);
                    assert_eq!(own.probe(mask, &key), hashed.probe(mask, &key));
                }
            }
        }
    }

    /// The loader's order is a contract, not a guess: a relation that
    /// claims it and breaks it is refused where its run is made.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "a loaded relation out of constant order")]
    fn a_loaded_relation_out_of_order_is_refused() {
        let keys = vec![0, 1, 2, 0, 0, 2];
        let vals = vec![Trop::finite(1.0), Trop::finite(2.0)];
        let mut rel = ColumnRel::from_loaded_rows(3, keys, vals);
        let identity: &dyn Fn() -> Arc<[u32]> = &|| Arc::from([0, 1, 2]);
        rel.ensure_probe(0b001, Some(identity));
    }

    /// An empty bulk relation gets a table on either column too, and it
    /// answers nothing.
    #[test]
    fn an_empty_bulk_relation_gets_empty_tables() {
        let mut rel = ColumnRel::<Trop>::from_distinct_rows(2, vec![], vec![]);
        for mask in [0b01, 0b10] {
            assert!(!rel.ensure_probe(mask, None));
            assert!(matches!(rel.index(mask), Some(Postings::Table { .. })));
            assert_eq!(rel.probe(mask, &[0]), &[0u32; 0]);
        }
    }

    /// A relation loaded at another arity than the atom that probes it
    /// (the executor then scans none of its rows) is still indexed on
    /// the atom's masks, and a mask past its columns gets no table.
    #[test]
    fn a_mask_past_the_arity_is_hashed() {
        for arity in [0, 1] {
            let keys = vec![3; arity];
            let mut rel = ColumnRel::from_distinct_rows(arity, keys, vec![Trop::finite(1.0)]);
            assert!(!rel.ensure_probe(0b10, None));
            assert!(matches!(rel.index(0b10), Some(Postings::Hashed(_))));
        }
    }

    /// A bulk relation's one-column index is one counting pass and one
    /// scatter into two arrays, so building and dropping it costs a small
    /// part of the hash index it replaces: on `point-query`'s shape
    /// (80 000 arity-2 rows over 20 000 ids, probed on column 0), the
    /// table's build + drop must take under half of `ensure_index`'s
    /// hash build + drop, the median of 15 alternating pairs. Measured
    /// on a 2-core shared host, five invocations: 0.17–0.19 (table
    /// 0.64–0.77 ms, hash index 2.5–4.1 ms). It trips when
    /// `ensure_probe` stops building the table for this column (1.0,
    /// `row_map_dense`'s rule) or the table grows a `Vec` per key
    /// (0.54–0.58, three invocations of a scratch mutant). It does not
    /// see a counting pass through a hash map (0.37–0.41) or a second
    /// pass projecting every row (0.29): both stay far under the hash
    /// index, so read `point-query`'s traced `reported.edb_index_s`
    /// (≈ 0.4–0.5 ms) for those.
    #[cfg(not(debug_assertions))]
    #[test]
    fn bulk_one_column_index_is_one_counting_pass() {
        use std::hint::black_box;
        use std::time::Instant;
        const ROWS: u32 = 80_000;
        const IDS: u32 = 20_000;
        const TABLE_OVER_HASHED: f64 = 0.5;
        // Each source four times, scattered; the four destinations of a
        // source differ by multiples of 4 999.
        let keys: Vec<u32> = (0..ROWS)
            .flat_map(|i| [i * 7919 % IDS, (i * 15_761 + i / IDS * 4999) % IDS])
            .collect();
        let vals = (0..ROWS).map(|r| Trop::finite(r as f64)).collect();
        let base = ColumnRel::from_distinct_rows(2, keys, vals);
        let build_and_drop_ns = |table: bool| {
            let mut rel = base.clone();
            let t = Instant::now();
            if table {
                rel.ensure_probe(0b01, None);
            } else {
                rel.ensure_index(0b01);
            }
            let index = rel.indexes.remove(&0b01).expect("built");
            assert_eq!(matches!(index, Postings::Table { .. }), table);
            drop(black_box(index));
            t.elapsed().as_nanos() as f64
        };
        let mut ratios: Vec<f64> = (0..15)
            .map(|i| match i % 2 {
                0 => {
                    let table = build_and_drop_ns(true);
                    table / build_and_drop_ns(false)
                }
                _ => {
                    let hashed = build_and_drop_ns(false);
                    build_and_drop_ns(true) / hashed
                }
            })
            .collect();
        ratios.sort_by(f64::total_cmp);
        let median = ratios[ratios.len() / 2];
        assert!(
            median < TABLE_OVER_HASHED,
            "the posting table's build + drop took {median:.2}x the hash index's (sorted ratios {ratios:.2?})"
        );
    }

    #[test]
    fn prefix_probe_reuses_wider_arrangement() {
        let mut rel = ColumnRel::<Trop>::new(3);
        rel.insert_row(&[1, 2, 3], Trop::finite(1.0));
        rel.insert_row(&[1, 5, 4], Trop::finite(2.0));
        rel.insert_row(&[2, 2, 5], Trop::finite(3.0));
        rel.ensure_arranged(0b011);
        let builds = rel.index_builds();
        // {0} ascending is a prefix of the [0, 1, 2] order: no new build.
        rel.ensure_arranged(0b001);
        assert_eq!(rel.index_builds(), builds);
        assert!(rel.arrangement_for(0b001).is_some());
        assert!(rel.arrangement_for(0b010).is_none());
        let mut out = Vec::new();
        rel.probe_arranged(0b001, &[1], &mut out);
        assert_eq!(out, vec![0, 1]);
    }

    /// A clone of a bulk EDB relation shares the sorted run, and keeps
    /// answering from it — without the new row — after the original
    /// grew and went over to a hash index: the run is never copied and
    /// never changes under a reader.
    #[test]
    fn clone_keeps_the_shared_run_when_the_original_grows() {
        let (mut rel, _) = bulk_and_twin(3);
        assert!(rel.ensure_probe(0b001, None));
        let snap = rel.clone();
        let run = |r: &ColumnRel<Trop>| r.arrangement_for(0b001).map(|a| a.batches()[0].clone());
        assert!(
            std::sync::Arc::ptr_eq(&run(&rel).unwrap(), &run(&snap).unwrap()),
            "a clone copies the pointer, not the sorted keys"
        );
        rel.insert_row(&[99, 0, 0], Trop::finite(0.0));
        assert!(run(&rel).is_none());
        assert_eq!(rel.probe(0b001, &[99]), &[40]);
        let mut out = Vec::new();
        snap.probe_arranged(0b001, &[99], &mut out);
        assert!(out.is_empty());
        snap.probe_arranged(0b001, &[4], &mut out);
        assert_eq!(out.as_slice(), rel.probe(0b001, &[4]));
    }

    #[test]
    fn ensure_probe_dispatches_on_arity_and_bulk_state() {
        let (mut wide, mut grown) = bulk_and_twin(3);
        assert!(wide.ensure_probe(0b010, None), "bulk, arity 3 → sorted run");
        assert!(wide.arrangement_for(0b010).is_some());
        assert_eq!(wide.index_builds(), 1);
        assert!(
            !wide.ensure_probe(0, None),
            "a full scan needs no structure"
        );
        assert_eq!(wide.index_builds(), 1);
        assert!(
            !grown.ensure_probe(0b010, None),
            "grown row by row → hash index"
        );
        assert!(grown.arrangement_for(0b010).is_none());
        assert_eq!(grown.probe(0b010, &[0]).len(), 5);
        let mut empty = ColumnRel::<Trop>::new(3);
        assert!(
            !empty.ensure_probe(0b010, None),
            "made to be grown → hash index"
        );
        let (mut narrow, _) = bulk_and_twin(2);
        assert!(
            !narrow.ensure_probe(0b01, None),
            "arity 2 → packed hash index"
        );
        assert!(narrow.arrangement_for(0b01).is_none());
        assert_eq!(narrow.probe(0b01, &[7]), &[0u32; 0]);
        // A bulk relation that was appended to is a grown one.
        let (mut late, _) = bulk_and_twin(3);
        late.insert_row(&[9, 9, 9], Trop::finite(0.0));
        assert!(!late.ensure_probe(0b010, None));
    }

    #[test]
    fn cleared_runs_come_back_as_hash_indexes() {
        let (mut rel, _) = bulk_and_twin(3);
        assert!(rel.ensure_probe(0b001, None));
        rel.clear();
        assert!(rel.arrangement_for(0b001).is_none());
        assert_eq!(rel.probe(0b001, &[2]), &[0u32; 0]);
        let builds = rel.index_builds();
        rel.insert_row(&[2, 0, 0], Trop::finite(2.0));
        assert_eq!(rel.probe(0b001, &[2]), &[0]);
        assert_eq!(
            rel.index_builds(),
            builds,
            "refill is maintenance, not a rebuild"
        );
    }

    /// A bulk-loaded relation and its `insert_row`-built twin, arity 3
    /// (boxed keys) or 2 (packed keys).
    fn bulk_and_twin(arity: usize) -> (ColumnRel<Trop>, ColumnRel<Trop>) {
        let rows: Vec<Vec<u32>> = (0..40u32)
            .map(|r| [r % 5, r / 5, 7].into_iter().take(arity).collect())
            .collect();
        let mut twin = ColumnRel::new(arity);
        for (r, key) in rows.iter().enumerate() {
            twin.insert_row(key, Trop::finite(r as f64));
        }
        let bulk = ColumnRel::from_distinct_rows(
            arity,
            rows.concat(),
            (0..40).map(|r| Trop::finite(r as f64)).collect(),
        );
        (bulk, twin)
    }

    fn assert_same_rows(a: &ColumnRel<Trop>, b: &ColumnRel<Trop>) {
        assert_eq!(a.iter().collect::<Vec<_>>(), b.iter().collect::<Vec<_>>());
        assert_eq!(a.version(), b.version());
    }

    #[test]
    fn bulk_load_reads_and_merges_like_the_per_row_twin() {
        for arity in [2, 3] {
            let (bulk, twin) = bulk_and_twin(arity);
            assert_same_rows(&bulk, &twin);
            // A clone taken before anything read by key builds its own
            // map; one taken after inherits it.
            let early = bulk.clone();
            let present: Vec<u32> = twin.row(17).to_vec();
            let absent: Vec<u32> = vec![9; arity];
            for rel in [&bulk, &early, &bulk.clone()] {
                assert_eq!(rel.rowid(&present), Some(17));
                assert_eq!(rel.rowid(&absent), None);
                assert_eq!(rel.get(&present), twin.get(&present));
            }
            // Writers: an absorbed merge, an improving merge, an append.
            let (mut bulk, mut twin, mut late) = (early, twin, bulk);
            for rel in [&mut bulk, &mut twin, &mut late] {
                assert_eq!(rel.merge_changed(&present, Trop::finite(99.0)), (17, false));
                assert_eq!(rel.merge_changed(&present, Trop::finite(0.5)), (17, true));
                assert_eq!(rel.merge(&absent, Trop::finite(1.0)), 40);
                assert_eq!(rel.rowid(&absent), Some(40));
            }
            assert_same_rows(&bulk, &twin);
            assert_same_rows(&late, &twin);
        }
    }

    #[test]
    fn bulk_load_clears_and_refills() {
        for read_first in [false, true] {
            let (mut bulk, mut twin) = bulk_and_twin(3);
            if read_first {
                assert_eq!(bulk.rowid(&[0, 0, 7]), Some(0));
            }
            for rel in [&mut bulk, &mut twin] {
                rel.clear();
                assert_eq!(rel.rowid(&[0, 0, 7]), None);
                rel.insert_row(&[4, 4, 4], Trop::finite(1.0));
                rel.merge(&[4, 4, 4], Trop::finite(0.25));
                rel.merge(&[5, 5, 5], Trop::finite(2.0));
            }
            assert_same_rows(&bulk, &twin);
            assert_eq!(bulk.get(&[4, 4, 4]), Some(&Trop::finite(0.25)));
        }
    }

    /// The two regimes against each other: a bulk relation answers masks
    /// `0b011` and its prefix `0b001` from one sorted run, its
    /// `insert_row` twin from two hash indexes; the first append turns
    /// the run into hash indexes on **both** masks, and every probe —
    /// before and after — matches the twin's.
    #[test]
    fn probe_structures_built_after_a_bulk_load_match_the_twin() {
        let (mut bulk, mut twin) = bulk_and_twin(3);
        for mask in [0b011, 0b001] {
            assert!(bulk.ensure_probe(mask, None));
            assert!(!twin.ensure_probe(mask, None));
        }
        assert_eq!(bulk.index_builds(), 1, "the prefix mask shares the run");
        let keys = |mask: ColMask| {
            (0..6u32).flat_map(move |a| {
                [0, 3, 50].map(|b| if mask == 0b011 { vec![a, b] } else { vec![a] })
            })
        };
        let mut found = Vec::new();
        for mask in [0b011, 0b001] {
            for key in keys(mask) {
                bulk.probe_arranged(mask, &key, &mut found);
                assert_eq!(found.as_slice(), twin.probe(mask, &key));
            }
        }
        for rel in [&mut bulk, &mut twin] {
            rel.insert_row(&[2, 50, 7], Trop::finite(0.0));
        }
        assert_eq!(bulk.index_builds(), 3, "one sort, then one index per mask");
        for mask in [0b011, 0b001] {
            assert!(bulk.arrangement_for(mask).is_none());
            for key in keys(mask) {
                assert_eq!(bulk.probe(mask, &key), twin.probe(mask, &key));
            }
        }
        assert_same_rows(&bulk, &twin);
    }

    /// The row map's two layouts against a hash-map model: random
    /// `merge_changed` / `insert_row` / tombstone / `clone` steps, phase
    /// by phase, each phase drawing ids below its bound
    /// until the model holds its row target, then a `clear`. After every
    /// step the relation answers like the model — `len`, the touched
    /// key's `rowid` and `get`, the newest row — and every 64 steps and
    /// after each tombstone, clone and phase, for every row and for
    /// absent keys. A tombstone keeps its key in the model and its value
    /// at `0`; once they are more than half the rows, the relation and
    /// the model are both compacted.
    /// The phases cross each way the layout changes, checked at their
    /// ends: going dense at 1 024 rows (width 1; width 2 over 40²) or
    /// only at 2 048 (width 2 over 100², past 8 slots a row at 1 024),
    /// widening while dense (ids past the side), and falling back to
    /// hashed on an id no table can reach (8 192 at width 2 is 2^26
    /// slots; 2^20 at width 1 is past 8 slots a row).
    #[test]
    fn row_map_layouts_answer_like_a_hash_map_model() {
        /// (id bound, row target, an id to merge once before the phase's
        /// draws, layout at the end — `None` for a phase that clears).
        type Phase = (u32, usize, Option<u32>, Option<&'static str>);
        let phases: [(usize, &[Phase]); 2] = [
            (
                1,
                &[
                    (2000, 1100, Some(1999), Some("dense 2000 ")),
                    (5000, 2600, None, Some("dense 8192 ")),
                    (5000, 2700, Some(1 << 20), Some("hashed")),
                    (300, 200, None, None),
                ],
            ),
            (
                2,
                &[
                    (100, 1500, None, Some("hashed")),
                    (100, 2100, None, Some("dense 100² ")),
                    (100, 2200, None, None),
                    (40, 1100, None, Some("dense 40² ")),
                    (60, 1500, None, Some("dense 80² ")),
                    (60, 1600, Some(8192), Some("hashed")),
                ],
            ),
        ];
        let mut seed = 0x2545_f491_4f6c_dd1d_u64;
        let mut rng = move |bound: u64| {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed % bound
        };
        for (width, phases) in phases {
            let mut rel = ColumnRel::<Trop>::new(width);
            let mut model: FxHashMap<Vec<u32>, u32> = FxHashMap::default();
            let mut rows: Vec<(Vec<u32>, Trop)> = Vec::new();
            let check_all = |rel: &ColumnRel<Trop>,
                             model: &FxHashMap<Vec<u32>, u32>,
                             rows: &[(Vec<u32>, Trop)],
                             at: &str| {
                assert_eq!(rel.len(), rows.len(), "{at}");
                let live = rows.iter().filter(|(_, v)| !v.is_zero()).count();
                assert_eq!((rel.support_size(), rel.iter().count()), (live, live));
                for (r, key, v) in rel.iter() {
                    assert_eq!(
                        (key, v),
                        (&rows[r as usize].0[..], &rows[r as usize].1),
                        "{at}"
                    );
                    assert_eq!(model.get(key), Some(&r), "{at}");
                    assert_eq!(rel.rowid(key), Some(r), "{at}: {key:?}");
                }
                for id in [0, 39, 99, 1999, 4999, 8191, 1 << 20, u32::MAX - 1] {
                    let key = vec![id; width];
                    assert_eq!(rel.rowid(&key), model.get(&key).copied(), "{at}: {key:?}");
                }
            };
            for (phase, &(bound, target, far, layout)) in phases.iter().enumerate() {
                let mut step = 0usize;
                while rows.len() < target {
                    step += 1;
                    let at = format!("width {width}, phase {phase}, step {step}");
                    let mut key: Vec<u32> = (0..width).map(|_| rng(bound as u64) as u32).collect();
                    let mut op = rng(100);
                    if let Some(id) = far.filter(|_| step == 1) {
                        (key[width - 1], op) = (id, 99);
                    }
                    let value = Trop::finite(rng(16) as f64);
                    match op {
                        0 => {
                            rel = rel.clone();
                            check_all(&rel, &model, &rows, &at);
                        }
                        1 if !rows.is_empty() => {
                            let r = rng(rows.len() as u64) as usize;
                            rel.set_val(r as u32, Trop::zero());
                            rows[r].1 = Trop::zero();
                            rel.compact();
                            let dead = rows.iter().filter(|(_, v)| v.is_zero()).count();
                            if dead * 2 > rows.len() {
                                rows.retain(|(_, v)| !v.is_zero());
                                let ids = rows.iter().zip(0..);
                                model = ids.map(|((key, _), r)| (key.clone(), r)).collect();
                            }
                            check_all(&rel, &model, &rows, &at);
                        }
                        2..=16 if !model.contains_key(&key) => {
                            let r = rel.insert_row(&key, value);
                            assert_eq!(r as usize, rows.len(), "{at}");
                            model.insert(key.clone(), r);
                            rows.push((key.clone(), value));
                        }
                        _ => {
                            let got = rel.merge_changed(&key, value);
                            let want = match model.get(&key) {
                                Some(&r) => {
                                    let old = &mut rows[r as usize].1;
                                    let new = old.add(&value);
                                    let changed = new != *old;
                                    *old = new;
                                    (r, changed)
                                }
                                None => {
                                    let r = rows.len() as u32;
                                    model.insert(key.clone(), r);
                                    rows.push((key.clone(), value));
                                    (r, true)
                                }
                            };
                            assert_eq!(got, want, "{at}: {key:?}");
                        }
                    }
                    assert_eq!(rel.len(), rows.len(), "{at}");
                    assert_eq!(rel.rowid(&key), model.get(&key).copied(), "{at}");
                    assert_eq!(
                        rel.get(&key),
                        (model.get(&key).map(|&r| &rows[r as usize].1)).filter(|v| !v.is_zero()),
                        "{at}"
                    );
                    if let Some((last, v)) = rows.last() {
                        let r = rows.len() as u32 - 1;
                        assert_eq!((rel.row(r), rel.val(r)), (&last[..], v), "{at}");
                    }
                    if step.is_multiple_of(64) {
                        check_all(&rel, &model, &rows, &at);
                    }
                }
                let at = format!("width {width}, end of phase {phase}");
                check_all(&rel, &model, &rows, &at);
                match layout {
                    Some(layout) => {
                        let got = rel.describe_row_map();
                        assert!(got.starts_with(layout), "{at}: {got}");
                    }
                    None => {
                        rel.clear();
                        model.clear();
                        rows.clear();
                        assert!(rel.describe_row_map().starts_with("hashed"), "{at}");
                        check_all(&rel, &model, &rows, &at);
                    }
                }
            }
        }
    }

    #[test]
    fn merge_changed_reports_strict_improvement() {
        let mut rel = ColumnRel::<Trop>::new(1);
        let (r, ch) = rel.merge_changed(&[3], Trop::finite(5.0));
        assert!(ch, "insert is a change");
        // Worse value: ⊕ = min leaves the row alone.
        let (r2, ch) = rel.merge_changed(&[3], Trop::finite(9.0));
        assert!(!ch);
        assert_eq!(r, r2);
        // Strictly better value: change reported.
        let (_, ch) = rel.merge_changed(&[3], Trop::finite(1.0));
        assert!(ch);
        assert_eq!(rel.get(&[3]), Some(&Trop::finite(1.0)));
    }
}
