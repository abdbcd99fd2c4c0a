//! The priority frontier: per-row change propagation instead of global
//! Δ iterations.
//!
//! The semi-naïve loop in [`crate::driver`] re-runs every delta plan
//! against the *whole* Δ relation each round, so a program whose
//! fixpoint has a long dependency chain (1k-node chain TC ⇒ ~1000
//! rounds) pays the full per-round machinery — accumulator allocation,
//! sorted drains, Δ re-indexing — a thousand times. Over **absorptive**
//! POPS (`dlo_pops::Absorptive`: `x ⊕ 1 = 1`, i.e. every element is
//! 0-stable) the paper guarantees much more structure than the global
//! loop exploits: by Corollary 5.19 every polynomial over a 0-stable
//! semiring is `N`-stable, so each ground fact's value strictly improves
//! at most a bounded number of times before it settles. That licenses a
//! **frontier**: keep a per-`(relation, row)` change queue, and when a
//! row's value strictly improves (in the natural order), re-fire only
//! the rules that row can feed.
//!
//! One queue discipline, [`Strategy::Priority`] (and `Auto`, which
//! names it): a *bucketed best-first* queue keyed by value, needing
//! `Absorptive + TotallyOrderedDioid`. The ⊑-greatest pending bucket is
//! drained as one batch. Because `⊗` can only move values down the
//! chain (`x ⊗ y ⊑ x ⊗ 1 = x` by monotonicity + absorption), no future
//! derivation can improve a popped best-value row: every fact is popped
//! **settled**, Dijkstra-style, and the whole fixpoint is one
//! near-linear pass over the derivations. Stale queue entries (rows
//! improved after being pushed) are skipped lazily by comparing the
//! bucket value against the row's current value. The other two
//! [`Strategy`] variants name the semi-naïve rounds (Theorem 6.5):
//! every POPS `Strategy` admits is a complete distributive dioid.
//!
//! ## Batches run inline; whole frontiers run in shards
//!
//! Like every round of the other schedules, a batch runs its plans
//! inline in its loop. A batch's (row × plan) work only reads state, so
//! it could be fanned over a worker pool, and once was; it never paid.
//! Sparse frontiers pop one to a few rows per batch, and on dense ones
//! (`apsp-dense` under priority: some twenty batches of thousands of
//! rows) two threads measured 0.93–1.09× the time of one, median
//! 1.07×, the emissions being merged into `new` serially either way
//! ([`crate`]'s parallelism section has the readings, the semi-naïve
//! rounds' included). So every batch runs its plans inline through
//! `driver::run_plans_inline` — the one plan runner, which the round
//! loops use too. What runs in parallel is whole frontiers: where the
//! program decomposes (`plan::CompiledProgram::shard_cols`), a
//! from-scratch run deals the queue its seed step filled to a constant
//! number of shards (`BucketFrontier::split`), each drains its own
//! (`drain_frontier`) and logs its pops, and the one queue's batches
//! are merged back from the logs (`merge_frontier`): the same steps,
//! rows, counters and settled rows as the one frontier. Threads also
//! build the EDB indexes before the first batch. Maintenance batches are the same batches: a
//! [`crate::Materialization`] under a frontier [`Strategy`] builds,
//! inserts and rederives through this loop (seeded from its standing
//! state), and a delete's marking rounds are inline global rounds.
//!
//! ## What a batch costs
//!
//! The priority discipline earns its Θ(n) pops only if each pop is
//! O(rows in the batch), so nothing in the loop may grow with the
//! number of *pending* buckets, and a one-row batch should pay for its
//! row, not for itself. One batch pays for: the pop (one B-tree
//! descent, stale entries skipped by a value compare); marking and the
//! governance checkpoint (a branch when ungoverned); staging the rows as Δ; the
//! touched predicates' plans (inline, under one unwind guard); merging
//! the emissions (the
//! mint clock is read only when a head key function produced fresh
//! cells); and one stats row, whose queue depth is a count the queue
//! maintains on push and pop. It used to be a walk over every pending
//! bucket, and the gradient graph keeps n − 2 stale guesses pending for
//! most of its n batches: 10.6 µs per one-row bucket on `sssp-sparse`
//! (n = 6000), `reported.eval_s` 63.5 ms → 4.6 ms (median of five
//! traced runs, shared 2-core host). Most of what is left is not this
//! module's: the plan runs of [`crate::exec::run_plan`], which
//! allocate nothing (their buffers are the run's, lent batch after
//! batch), and the merge of each emission in `ColumnRel::land` — an array
//! index once the head relation's row map is a dense slot table (from
//! 1 024 rows on for `sssp-sparse`'s `L`, 32 768 for `apsp-dense`'s
//! `T`; `crate::storage`, "Packed and dense keys"), a hash probe on a
//! relation too sparse in its ids for one.
//!
//! Nor may a batch pay a fixed cost its row does not need. A `Bucket`
//! holds its first entry inline and spills into a `Vec` at the second,
//! so a one-row bucket allocates nothing, while a bucket of thousands
//! of rows (`apsp-dense`) grows its `Vec` (`tests/costs.rs` holds a
//! priority run to no allocation per bucket). The plan runner reads the
//! clock on one run in [`crate::PLAN_CLOCK_PERIOD`] of a small batch
//! and counts them all: a clock pair costs ≈ 62 ns here, a one-row plan
//! run ≈ 0.35 µs. On the gradient graph at n = 6000 the two costs were
//! a fifth of eval: with a `Vec` per bucket and a clock pair per run,
//! 300 alternating in-process pairs read 5.35 ms against 4.27 ms (the
//! shared 2-core host in a slow phase). One binary heap of entries instead
//! of the buckets was measured and bought nothing on `sssp-sparse` (920
//! vs 990 µs); it cost `apsp-dense`, whose buckets hold thousands of
//! rows, a quarter of its speed.
//!
//! The frontier fires the Δ family the semi-naïve rounds fire
//! ([`crate::plan::CompiledProgram::delta_plans`]): the changed row is
//! staged as a one-batch Δ relation carrying its **full current value**
//! (not a `⊖` difference — no `CompleteDistributiveDioid` bound needed),
//! and every other occurrence reads the live `new` state — the
//! `changed` map stays empty, so a suffix-`Old` read of Theorem 6.5's
//! split is a `New` read. On idempotent `⊕` the occasional
//! re-derivation merges to the same value, so the scheme is sound.
//!
//! A batch's emissions land through the step every loop lands through
//! (`driver::land`), so head key functions work exactly as in the
//! global drivers: the interner is frozen while plans run, fresh
//! integer cells accumulate in ordered buffers, and ids are minted
//! between batches; minted rows enter `new` as appends and are pushed
//! like any other improvement.
//!
//! `steps` in the returned outcome counts processed value buckets, and
//! the `cap` bounds that count (divergence through unbounded head-key
//! minting is still caught). Step counts are **not** comparable with
//! the rounds' counts; fixpoints are.

use crate::driver::{
    land, run_plans_inline, Emissions, Engine, FreshAccum, IdbState, Ids, LoopFail, RoundPlans,
    Rounds, Route, Run, SemiNaive,
};
use crate::govern::Checkpoint;
use crate::plan::by_delta_pred;
use crate::storage::ColumnRel;
use crate::telemetry::add_step;
use dlo_core::eval::stats::IterStat;
use dlo_pops::{Absorptive, CompleteDistributiveDioid, NaturallyOrdered, TotallyOrderedDioid};
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;

/// The runtime-chosen [`Schedule`](crate::Schedule): which evaluation
/// loop runs, for the totally ordered absorptive dioids (`Trop`,
/// `MinNat`, `MaxMin`, `Bool`) whose bounds license both of them. POPS
/// with weaker structure pass [`crate::Naive`] or [`SemiNaive`]
/// instead — this enum does not implement `Schedule` for them, so an
/// unsound choice is a compile error, never a runtime one.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Strategy {
    /// The strongest discipline the bounds allow: the priority
    /// frontier.
    #[default]
    Auto,
    /// The global semi-naïve rounds (Theorem 6.5).
    SemiNaive,
    /// Another name for [`Strategy::SemiNaive`]: the same rounds, label
    /// and step count. It stays only while the benchmark harness names
    /// it.
    Worklist,
    /// The bucketed best-first frontier (Dijkstra semantics; needs a
    /// total natural order on top of absorption).
    Priority,
}

/// Bucket key ordered best-first: the ⊑-greatest value is the
/// `BTreeMap`'s first key.
struct BestFirst<P>(P);

impl<P: TotallyOrderedDioid> PartialEq for BestFirst<P> {
    fn eq(&self, other: &Self) -> bool {
        self.0 == other.0
    }
}
impl<P: TotallyOrderedDioid> Eq for BestFirst<P> {}
impl<P: TotallyOrderedDioid> PartialOrd for BestFirst<P> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<P: TotallyOrderedDioid> Ord for BestFirst<P> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: chain_cmp's `Greater` (further up ⊑, better) sorts
        // first.
        other.0.chain_cmp(&self.0)
    }
}

/// Bucketed best-first discipline. Entries are pushed on every strict
/// improvement; an entry is *live* iff its bucket value still equals the
/// row's current value (lazy deletion — a superseding entry always sits
/// in a strictly better bucket, so it is processed first and the stale
/// one skipped). Two entries for one row always carry distinct values,
/// so a batch never holds a row twice.
///
/// A push or a pop costs one B-tree descent plus the rows it moves —
/// nothing proportional to how much else is queued: `pending` is the
/// entry count [`BucketFrontier::depth`] reports, kept by `push` /
/// `pop_into` and never re-walked.
pub(crate) struct BucketFrontier<P> {
    buckets: BTreeMap<BestFirst<P>, Bucket>,
    /// Entries queued across all buckets, stale ones included.
    pending: usize,
    /// A shard's record of its queue, for [`merge_frontier`]; `None`
    /// outside a shard, where nothing is recorded.
    log: Option<PopLog<P>>,
    /// The seed step's emission buffers ([`seed_frontier`]), which the
    /// batches after it reuse; `None` in a shard's queue, whose loop
    /// makes its own.
    phase: Option<Phase<P>>,
}

/// A batch's emission buffers, one per IDB, and its fresh-key buffers.
type Phase<P> = (Vec<EmitBuf<P>>, FreshAccum<P>);

/// What a loop carries from one step to the next besides the IDB
/// state (`driver::Rounds::seed`): the frontier's queue, none for the
/// rounds.
pub(crate) type Queue<P> = Option<BucketFrontier<P>>;

/// What a shard's frontier did, as [`merge_frontier`] needs it: the
/// entries it was dealt at the split and every bucket it popped, in
/// order.
struct PopLog<P> {
    dealt: usize,
    pops: Vec<Pop<P>>,
}

/// One popped bucket: its value, the entries it held (stale ones
/// included), and whether it was a batch (held a live entry).
struct Pop<P> {
    value: P,
    entries: usize,
    live: bool,
}

/// One bucket's `(pred, row)` entries in push order: the first held
/// inline, the rest in a `Vec` that allocates from the second entry on.
/// A one-row bucket — every bucket of a sparse frontier — allocates
/// nothing; a bucket of thousands of rows grows its `Vec` as it would.
struct Bucket {
    first: (u32, u32),
    rest: Vec<(u32, u32)>,
}

impl Bucket {
    fn len(&self) -> usize {
        1 + self.rest.len()
    }
}

impl<P: TotallyOrderedDioid> BucketFrontier<P> {
    /// An empty queue.
    fn new() -> Self {
        BucketFrontier {
            buckets: BTreeMap::new(),
            pending: 0,
            log: None,
            phase: None,
        }
    }

    /// Records that `(pred, row)` improved to `val`.
    fn push(&mut self, pred: usize, row: u32, val: &P) {
        let entry = (pred as u32, row);
        match self.buckets.entry(BestFirst(val.clone())) {
            Entry::Vacant(bucket) => {
                let rest = Vec::new();
                bucket.insert(Bucket { first: entry, rest });
            }
            Entry::Occupied(mut bucket) => bucket.get_mut().rest.push(entry),
        }
        self.pending += 1;
    }

    /// Moves the best live bucket into `batch` (cleared by the caller);
    /// `false` when the frontier is drained.
    fn pop_into(&mut self, new: &[ColumnRel<P>], batch: &mut Vec<(usize, u32)>) -> bool {
        while let Some((key, bucket)) = self.buckets.pop_first() {
            let entries = bucket.len();
            self.pending -= entries;
            for (pred, row) in std::iter::once(bucket.first).chain(bucket.rest) {
                if new[pred as usize].val(row) == &key.0 {
                    batch.push((pred as usize, row));
                }
            }
            let live = !batch.is_empty();
            if let Some(log) = &mut self.log {
                let value = key.0;
                log.pops.push(Pop {
                    value,
                    entries,
                    live,
                });
            }
            if live {
                return true;
            }
        }
        false
    }

    /// The queue dealt to `count` shards by `route`: every entry to its
    /// row's shard, under its bucket's value, in push order — each
    /// shard's queue is the one queue's entries of its rows, as the
    /// one-shard loop would hold them — and each shard's logs its pops.
    fn split(self, route: &Route, count: usize) -> Vec<BucketFrontier<P>> {
        let mut parts: Vec<BucketFrontier<P>> = (0..count)
            .map(|_| BucketFrontier {
                log: Some(PopLog {
                    dealt: 0,
                    pops: vec![],
                }),
                ..BucketFrontier::new()
            })
            .collect();
        for (key, bucket) in self.buckets {
            for (pred, row) in std::iter::once(bucket.first).chain(bucket.rest) {
                let (shard, row) = route[pred as usize][row as usize];
                parts[shard as usize].push(pred as usize, row, &key.0);
            }
        }
        for part in &mut parts {
            let dealt = part.pending;
            part.log.as_mut().expect("made with a log").dealt = dealt;
        }
        parts
    }

    /// Pending entries (stale ones included — a deterministic queue
    /// measure, reported per batch in the stats).
    fn depth(&self) -> usize {
        // Debug builds re-derive the count the slow way, once per batch.
        debug_assert_eq!(
            self.pending,
            self.buckets.values().map(Bucket::len).sum::<usize>(),
            "pending count drifted from the queued entries"
        );
        self.pending
    }
}

/// Per-IDB emission buffer: flat keys (arity stride) plus values, so one
/// batch's emissions append without per-derivation allocation. Plans run
/// against an immutable borrow of the state, so emissions are buffered
/// here and `⊕`-merged into `new` after the batch's plans finish.
struct EmitBuf<P> {
    arity: usize,
    keys: Vec<u32>,
    vals: Vec<P>,
}

impl<P> EmitBuf<P> {
    fn new(arity: usize) -> Self {
        EmitBuf {
            arity,
            keys: Vec::new(),
            vals: Vec::new(),
        }
    }

    fn push(&mut self, key: &[u32], v: P) {
        self.keys.extend_from_slice(key);
        self.vals.push(v);
    }
}

impl<P> Emissions<P> for Vec<EmitBuf<P>> {
    /// Predicate by predicate, each in emission order.
    fn drain(&mut self, mut land: impl FnMut(usize, &[u32], P)) {
        for (pred, buf) in self.iter_mut().enumerate() {
            let (arity, mut vals) = (buf.arity, std::mem::take(&mut buf.vals));
            for (i, v) in vals.drain(..).enumerate() {
                land(pred, &buf.keys[i * arity..(i + 1) * arity], v);
            }
            buf.vals = vals; // hand the capacity back for the next batch
            buf.keys.clear();
        }
    }
}

/// Lands a batch's buffered emissions in `state.new` ([`land`]) by the
/// frontier's rule: `⊕`-merge, and queue every row that strictly
/// improved. `settled` is the run's settled-row marking: an
/// improvement to a stored row defensively unmarks it (a popped row can
/// never improve — Cor. 5.19 — so the unmark never fires; it keeps the
/// marking sound by construction rather than by theorem).
fn land_batch<P: TotallyOrderedDioid>(
    engine: &Engine<P>,
    ids: &mut Ids<'_>,
    state: &mut IdbState<P>,
    phase: &mut Phase<P>,
    frontier: &mut BucketFrontier<P>,
    run: &mut Run<P>,
) {
    let (new, settled, col) = (&mut state.new, &mut run.settled, &mut run.col);
    land(engine, ids, new, phase, col, |pred, _, r, old, v| {
        let v = match old {
            Some(old) => {
                let merged = old.add(&v);
                if merged == *old {
                    return None;
                }
                settled.unmark(pred, r);
                merged
            }
            None => v,
        };
        frontier.push(pred, r, &v);
        Some(v)
    });
}

/// An empty [`Phase`] for `engine`'s IDBs.
fn emission_buffers<P: TotallyOrderedDioid>(engine: &Engine<P>) -> Phase<P> {
    let idbs = &engine.compiled.idbs;
    let bufs = idbs.iter().map(|(_, arity)| EmitBuf::new(*arity)).collect();
    (bufs, idbs.iter().map(|_| BTreeMap::new()).collect())
}

/// The one frontier loop, behind every from-scratch run and every
/// maintenance continuation: a seed round ([`seed_frontier`]), then the
/// queue drained batch by batch ([`drain_frontier`]), each batch firing
/// the plans of `plans.delta` that a touched predicate's Δ drives. It
/// starts from **any pre-fixpoint** in
/// `state` that lies below the least fixpoint it is to reach — the
/// empty state, a standing fixpoint whose EDB grew, the survivors of a
/// retraction — provided `plans.seed` covers every derivation the standing
/// rows do not already account for: all plans from the empty state,
/// the `@dlt` variants after an insert, the affected heads'
/// plans after a zero-out. The seed round `⊕`-merges those
/// contributions into `new` and queues every strict improvement; rows
/// that merely re-derive their standing value absorb (`⊕` is
/// idempotent on an absorptive POPS) and queue nothing. From there the
/// module docs' arguments apply unchanged: any fair draining of
/// improved rows reaches the least fixpoint above the start, and in
/// best-first order a popped row is final — every derivation not yet
/// fired comes from a row still queued at a value no better, and `⊗`
/// cannot move a value back up.
///
/// On a demand-rewritten program ([`dlo_core::demand`]) the seed round
/// from the empty state contributes exactly the magic seed fact — every
/// other sum-product carries a magic guard factor and finds it empty —
/// so the frontier starts at the **query constants** instead of the
/// whole EDB delta, and magic-fact derivation interleaves between
/// batches exactly like head-key minting: a popped row fires the
/// Δ-family plans whose Δ occurrence it is, demand rows and answer rows
/// alike.
///
/// The seed round is step `start` (its stats row reads
/// `plans.seed_rows` Δ rows); returns the queue it filled.
fn seed_frontier<P: TotallyOrderedDioid>(
    engine: &Engine<P>,
    ids: &mut Ids<'_>,
    state: &mut IdbState<P>,
    plans: &RoundPlans<'_, P>,
    run: &mut Run<P>,
    start: usize,
) -> Result<BucketFrontier<P>, LoopFail> {
    let mut frontier = BucketFrontier::new();
    let mut phase = emission_buffers(engine);
    // Seed: from the empty state only IDB-free sum-products contribute
    // (eq. 65); every inserted or improved row is enqueued.
    run.check(start, Checkpoint::Phase)?;
    let seed_before = run.col.stats.counters;
    run_plans_inline(
        engine,
        ids.get(),
        state,
        plans.seed,
        &mut phase.0,
        EmitBuf::push,
        &mut phase.1,
        plans.seed_rows,
        run,
    )
    .map_err(LoopFail::at(Checkpoint::Phase, start))?;
    land_batch(engine, ids, state, &mut phase, &mut frontier, run);
    frontier.phase = Some(phase);
    run.col.end_step(
        start,
        plans.seed_rows,
        frontier.depth() as u64,
        &seed_before,
    );
    Ok(frontier)
}

/// The frontier's batches after its seed round `start`
/// ([`seed_frontier`]), numbered from `start + 1`: returns the last
/// batch's number — the number of batches when `start` is 0.
/// `state.changed` is never populated: with an empty changed map `Old`
/// reads ≡ `New` reads, so every non-Δ occurrence of a split sees the
/// live state.
#[allow(clippy::too_many_arguments)]
fn drain_frontier<P: TotallyOrderedDioid>(
    engine: &Engine<P>,
    ids: &mut Ids<'_>,
    state: &mut IdbState<P>,
    frontier: &mut BucketFrontier<P>,
    plans: &RoundPlans<'_, P>,
    start: usize,
    cap: usize,
    run: &mut Run<P>,
) -> Result<usize, LoopFail> {
    let phase = frontier.phase.take();
    let mut phase = phase.unwrap_or_else(|| emission_buffers(engine));
    let fired_by = by_delta_pred(plans.delta, engine.compiled.idbs.len());
    let mut batch: Vec<(usize, u32)> = Vec::new();
    let mut touched: Vec<usize> = Vec::new();
    let mut steps = start;
    loop {
        batch.clear();
        if !frontier.pop_into(&state.new, &mut batch) {
            return Ok(steps);
        }
        if steps >= cap {
            return Err(LoopFail::Diverged(steps));
        }
        // Settled-on-pop: a popped row's value is final the moment the
        // frontier hands it over — independent of whether its
        // derivations ever fire — so marking precedes the governance
        // check and a mid-run abort still counts this batch.
        for &(pred, row) in &batch {
            run.settled.mark(pred, row);
        }
        run.check(steps, Checkpoint::Bucket)?;
        steps += 1;
        let before = run.col.stats.counters;

        // Stage the batch as per-pred Δ relations carrying full current
        // values (a batch never holds the same row twice — see
        // `BucketFrontier`).
        touched.clear();
        for &(pred, row) in &batch {
            if state.delta[pred].is_empty() {
                touched.push(pred);
            }
            let val = state.new[pred].val(row).clone();
            state.delta[pred].append_row(state.new[pred].row(row), val);
        }
        let batch_plans = touched
            .iter()
            .flat_map(|&pred| fired_by[pred].iter().copied());
        run_plans_inline(
            engine,
            ids.get(),
            state,
            batch_plans,
            &mut phase.0,
            EmitBuf::push,
            &mut phase.1,
            batch.len() as u64,
            run,
        )
        .map_err(LoopFail::at(Checkpoint::Bucket, steps))?;
        for &pred in &touched {
            state.delta[pred].clear();
        }
        land_batch(engine, ids, state, &mut phase, frontier, run);
        run.col
            .end_step(steps, batch.len() as u64, frontier.depth() as u64, &before);
    }
}

/// The step count and rows of a frontier run in shards after its seed
/// round `start`, from each shard's pop log and batch rows.
///
/// Every batch of the one queue is the union of the shards' batches of
/// one value: a batch's derivations land in its rows' shards, so each
/// shard's queue stays the one queue's entries of its rows, popped in
/// the same order. A value the one queue pops more than once — rows
/// derived at the value of the batch that derived them, which `⊗ = 1`
/// allows — is popped as often in the shards that hold those rows, so
/// a batch is keyed by its value and its generation at that value, and
/// the merged batches are the distinct keys of the shards' batches in
/// best-first order, each row the sum of theirs. A shard's stale-only
/// bucket is the one queue's bucket of that value, so the merged queue
/// depth after a batch is the entries dealt at the split, plus those
/// the shards pushed (their batches' inserted and improved rows) up to
/// that key, less those their pops took out up to that key.
fn merge_frontier<P: TotallyOrderedDioid>(
    shards: Vec<(Queue<P>, Vec<IterStat>)>,
    start: usize,
) -> (usize, Vec<IterStat>) {
    struct Popped<P> {
        value: P,
        generation: usize,
        entries: usize,
        batch: Option<IterStat>,
    }
    let mut depth = 0i64;
    let mut popped: Vec<Popped<P>> = vec![];
    for (frontier, rows) in shards {
        let log = frontier.and_then(|f| f.log).expect("a shard logs its pops");
        depth += log.dealt as i64;
        let mut rows = rows.into_iter();
        let mut generation = 0;
        for (i, pop) in log.pops.iter().enumerate() {
            let again = i > 0 && log.pops[i - 1].live && log.pops[i - 1].value == pop.value;
            generation = if again { generation + 1 } else { 0 };
            // A shard stopped by its governor pops a batch it never runs.
            let batch = pop.live.then(|| rows.next()).flatten();
            popped.push(Popped {
                value: pop.value.clone(),
                generation,
                entries: pop.entries,
                batch,
            });
        }
    }
    // Best value first, as the one queue pops them; generations in turn.
    popped.sort_by(|a, b| {
        let by_value = b.value.chain_cmp(&a.value);
        by_value.then(a.generation.cmp(&b.generation))
    });
    let mut merged: Vec<IterStat> = vec![];
    for group in popped.chunk_by(|a, b| a.value == b.value && a.generation == b.generation) {
        let mut row: Option<IterStat> = None;
        for p in group {
            depth -= p.entries as i64;
            if let Some(batch) = &p.batch {
                add_step(row.get_or_insert_with(IterStat::default), batch);
                depth += (batch.inserted + batch.improved) as i64;
            }
        }
        if let Some(mut row) = row {
            row.step = (start + 1 + merged.len()) as u64;
            row.queue_depth = depth.max(0) as u64;
            merged.push(row);
        }
    }
    (start + merged.len(), merged)
}

#[allow(private_interfaces)]
impl<P> Rounds<P> for Strategy
where
    P: NaturallyOrdered + CompleteDistributiveDioid + Absorptive + TotallyOrderedDioid,
{
    const MAINTENANCE_SUFFIX: &'static str = "";
    const SHARDS: bool = true;

    /// The frontier marks rows on pop: its settled marking is exact.
    fn label(self) -> (&'static str, bool) {
        match self {
            Strategy::SemiNaive | Strategy::Worklist => Rounds::<P>::label(SemiNaive),
            Strategy::Auto | Strategy::Priority => ("priority", true),
        }
    }

    /// The seed step of the loop the variant names: the semi-naïve
    /// rounds', or the frontier's ([`seed_frontier`]). Every type this
    /// impl admits is an absorptive chain, so a handle under it marks
    /// the attaining cone.
    fn seed(
        self,
        engine: &Engine<P>,
        ids: &mut Ids<'_>,
        state: &mut IdbState<P>,
        plans: &RoundPlans<'_, P>,
        run: &mut Run<P>,
        start: usize,
    ) -> Result<Queue<P>, LoopFail> {
        const {
            assert!(
                P::ABSORPTIVE_CHAIN,
                "an Absorptive + TotallyOrderedDioid POPS sets Pops::ABSORPTIVE_CHAIN"
            )
        };
        match self {
            Strategy::SemiNaive | Strategy::Worklist => {
                SemiNaive.seed(engine, ids, state, plans, run, start)?;
                Ok(None)
            }
            Strategy::Auto | Strategy::Priority => {
                seed_frontier(engine, ids, state, plans, run, start).map(Some)
            }
        }
    }

    /// The rest of the loop [`Rounds::seed`] began: the semi-naïve
    /// rounds, or the frontier's batches ([`drain_frontier`]).
    fn drain(
        self,
        engine: &Engine<P>,
        ids: &mut Ids<'_>,
        state: &mut IdbState<P>,
        queue: &mut Queue<P>,
        plans: &RoundPlans<'_, P>,
        cap: usize,
        run: &mut Run<P>,
        start: usize,
    ) -> Result<usize, LoopFail> {
        match queue {
            None => SemiNaive.drain(engine, ids, state, &mut None, plans, cap, run, start),
            Some(frontier) => drain_frontier(engine, ids, state, frontier, plans, start, cap, run),
        }
    }

    fn split(self, queue: Queue<P>, route: &Route, count: usize) -> Vec<Queue<P>> {
        match queue {
            None => (0..count).map(|_| None).collect(),
            Some(frontier) => frontier.split(route, count).into_iter().map(Some).collect(),
        }
    }

    fn merge(self, shards: Vec<(Queue<P>, Vec<IterStat>)>, start: usize) -> (usize, Vec<IterStat>) {
        match self {
            Strategy::SemiNaive | Strategy::Worklist => {
                let rows = shards.into_iter().map(|(_, rows)| rows);
                crate::driver::merge_rounds(rows, start)
            }
            Strategy::Auto | Strategy::Priority => merge_frontier(shards, start),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::tests::eval;
    use crate::driver::{engine_eval_interned, EngineOpts};
    use dlo_core::ast::{Atom, Factor, KeyFn, Program, SumProduct, Term, UnaryFn};
    use dlo_core::eval::seminaive::seminaive_eval;
    use dlo_core::examples_lib as ex;
    use dlo_core::relation::{BoolDatabase, Database, Relation};
    use dlo_core::tup;
    use dlo_pops::{MaxMin, MinNat, PreSemiring, Trop};

    /// Every [`Strategy`] agrees with the grounded reference on
    /// output databases.
    fn assert_frontier_matches_grounded<P>(
        program: &Program<P>,
        pops: &Database<P>,
        bools: &BoolDatabase,
    ) -> Database<P>
    where
        P: NaturallyOrdered + CompleteDistributiveDioid + Absorptive + TotallyOrderedDioid,
    {
        let reference = seminaive_eval(program, pops, bools, 100_000).unwrap();
        for strategy in [
            Strategy::Auto,
            Strategy::SemiNaive,
            Strategy::Worklist,
            Strategy::Priority,
        ] {
            let got = eval(program, pops, bools, 1_000_000, strategy).unwrap();
            assert_eq!(reference, got, "{strategy:?} differs from grounded");
        }
        reference
    }

    #[test]
    fn sssp_and_apsp_match_grounded() {
        let (program, edb) = ex::sssp_trop("a");
        let out = assert_frontier_matches_grounded(&program, &edb, &BoolDatabase::new());
        assert_eq!(out.get("L").unwrap().get(&tup!["d"]), Trop::finite(8.0));

        let (program, edb) = ex::apsp_trop(&[
            ("a", "b", 1.0),
            ("b", "a", 2.0),
            ("b", "c", 3.0),
            ("c", "d", 4.0),
            ("a", "c", 5.0),
        ]);
        assert_frontier_matches_grounded(&program, &edb, &BoolDatabase::new());
    }

    #[test]
    fn priority_processes_chain_in_one_bucket_per_distance() {
        // APSP on a 50-node unit chain: T(i, j) has value j - i, so the
        // bucketed frontier drains exactly one batch per distinct
        // distance (1..=49) — Dijkstra semantics — where the global
        // semi-naïve loop needs one full iteration per distance *and*
        // re-scans every plan each time.
        let g_edges: Vec<(Vec<dlo_core::value::Constant>, Trop)> = (0..49i64)
            .map(|i| (vec![i.into(), (i + 1).into()], Trop::finite(1.0)))
            .collect();
        let mut edb = Database::new();
        edb.insert("E", Relation::from_pairs(2, g_edges));
        let program = ex::apsp_program::<Trop>();
        let (out, steps) = eval(
            &program,
            &edb,
            &BoolDatabase::new(),
            1_000_000,
            Strategy::Priority,
        )
        .converged()
        .unwrap();
        assert_eq!(out.get("T").unwrap().support_size(), 49 * 50 / 2);
        assert_eq!(steps, 49, "one frontier batch per distinct distance");
    }

    #[test]
    fn priority_skips_stale_entries() {
        // a→b costs 10 directly but 2 via c. The direct edge seeds
        // T(a,b) = 10 into bucket 10; the improvement to 2 supersedes it
        // in bucket 2, and the stale bucket-10 entry must be skipped —
        // total: batch(1) = {(a,c),(c,b)}, batch(2) = {(a,b)}, done.
        let (program, edb) = ex::apsp_trop(&[("a", "b", 10.0), ("a", "c", 1.0), ("c", "b", 1.0)]);
        let (out, steps) = eval(
            &program,
            &edb,
            &BoolDatabase::new(),
            1_000_000,
            Strategy::Priority,
        )
        .converged()
        .unwrap();
        assert_eq!(
            out.get("T").unwrap().get(&tup!["a", "b"]),
            Trop::finite(2.0)
        );
        assert_eq!(steps, 2, "the stale bucket-10 entry must not be a batch");
    }

    /// Deterministic xorshift stream for the randomized tests.
    fn xorshift(mut s: u64) -> impl FnMut() -> u64 {
        move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        }
    }

    /// Drives the frontier with random improve / pop sequences over
    /// three predicates (re-improved rows leave stale entries behind)
    /// and holds `depth()` to `walked` — the queued entries counted the
    /// slow way — after every call, down to the final drain.
    fn assert_depth_is_walked_count(walked: impl Fn(&BucketFrontier<Trop>) -> usize) {
        for seed in 1..=24u64 {
            let mut rng = xorshift(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15));
            let mut new: Vec<ColumnRel<Trop>> = (0..3).map(|_| ColumnRel::new(1)).collect();
            let mut frontier = BucketFrontier::new();
            let mut batch: Vec<(usize, u32)> = Vec::new();
            let mut pushes = 0;
            for _ in 0..400 {
                if !rng().is_multiple_of(4) {
                    let pred = (rng() % 3) as usize;
                    let key = [(rng() % 16) as u32];
                    let val = Trop::finite((rng() % 64) as f64);
                    let (row, changed) = new[pred].merge_changed(&key, val);
                    if changed {
                        frontier.push(pred, row, new[pred].val(row));
                        pushes += 1;
                    }
                } else {
                    batch.clear();
                    frontier.pop_into(&new, &mut batch);
                }
                assert_eq!(frontier.depth(), walked(&frontier), "seed {seed}");
            }
            assert!(pushes > 48, "seed {seed}: rows were re-improved");
            loop {
                batch.clear();
                let more = frontier.pop_into(&new, &mut batch);
                assert_eq!(frontier.depth(), walked(&frontier), "seed {seed}: drain");
                if !more {
                    break;
                }
            }
            assert_eq!(frontier.depth(), 0, "seed {seed}: drained");
        }
    }

    #[test]
    fn depth_is_the_walked_entry_count() {
        assert_depth_is_walked_count(|f| f.buckets.values().map(Bucket::len).sum());
    }

    /// Holds a priority run to its golden per-batch stats rows —
    /// `[delta_rows, queue_depth, emits, inserted, improved, absorbed]`
    /// — and to the stored order of `pred`'s rows (insertion order, so
    /// it moves if a bucket hands its rows over in another order).
    fn assert_batches_pinned(
        program: &Program<Trop>,
        edb: &Database<Trop>,
        golden: &[[u64; 6]],
        pred: &str,
        golden_order: &[&str],
    ) {
        let out = engine_eval_interned(
            program,
            edb,
            &BoolDatabase::new(),
            1_000_000,
            Strategy::Priority,
            &EngineOpts::default(),
        )
        .expect("compiles");
        let rows: Vec<[u64; 6]> = out
            .stats()
            .iterations
            .iter()
            .map(|it| {
                [
                    it.delta_rows,
                    it.queue_depth,
                    it.emits,
                    it.inserted,
                    it.improved,
                    it.absorbed,
                ]
            })
            .collect();
        assert_eq!(rows, golden, "stats rows");
        let output = out.output();
        let order: Vec<String> = output
            .relation(pred)
            .expect("the IDB exists")
            .iter()
            .map(|(_, key, _)| {
                let names: Vec<String> = key
                    .iter()
                    .map(|&id| output.interner().get(id).to_string())
                    .collect();
                names.join(" ")
            })
            .collect();
        assert_eq!(order, golden_order, "row order");
    }

    #[test]
    fn priority_batches_are_pinned() {
        // The stale-entry triangle of `priority_skips_stale_entries`:
        // seed, bucket 1 = {(a,c), (c,b)} improving T(a,b) to 2, bucket
        // 2 = {(a,b)} — the superseded bucket-10 entry stays queued
        // (depth 1) and is never a batch.
        let (program, edb) = ex::apsp_trop(&[("a", "b", 10.0), ("a", "c", 1.0), ("c", "b", 1.0)]);
        assert_batches_pinned(
            &program,
            &edb,
            &[[0, 3, 3, 3, 0, 0], [2, 2, 1, 0, 1, 0], [1, 1, 0, 0, 0, 0]],
            "T",
            &["a b", "a c", "c b"],
        );

        // Gradient n = 8 (unit chain plus jumps 0 → i of weight 3i):
        // the source's batch queues one guess per node, each later
        // batch settles one node and improves its successor, and the
        // superseded guesses leave the queue only when their value
        // comes up (n2's guess of 6 rides in n6's bucket).
        let names: Vec<String> = (0..8).map(|i| format!("n{i}")).collect();
        let mut edges: Vec<(&str, &str)> = (0..7).map(|i| (&*names[i], &*names[i + 1])).collect();
        edges.extend((2..8).map(|i| (&*names[0], &*names[i])));
        let weight = |edge: usize| {
            if edge < 7 {
                1.0
            } else {
                3.0 * (edge - 5) as f64
            }
        };
        let (program, edb) = ex::sssp_trop_graph("n0", &edges, weight);
        assert_batches_pinned(
            &program,
            &edb,
            &[
                [0, 1, 1, 1, 0, 0],
                [1, 7, 7, 7, 0, 0],
                [1, 7, 1, 0, 1, 0],
                [1, 7, 1, 0, 1, 0],
                [1, 7, 1, 0, 1, 0],
                [1, 7, 1, 0, 1, 0],
                [1, 7, 1, 0, 1, 0],
                [1, 6, 1, 0, 1, 0],
                [1, 5, 0, 0, 0, 0],
            ],
            "L",
            &["n0", "n1", "n2", "n3", "n4", "n5", "n6", "n7"],
        );

        // Two lanes, where push order within a bucket is neither row
        // order nor its reverse: bucket 1 inserts T(s,u) = 2 and then
        // improves the earlier-stored T(t,w) from 7 to 2, so bucket 2
        // holds the new row ahead of the old one, and their derivations
        // T(s,u2), T(t,w2) are stored in that order.
        let (program, edb) = ex::apsp_trop(&[
            ("s", "m", 1.0),
            ("m", "u", 1.0),
            ("u", "u2", 1.0),
            ("t", "n", 1.0),
            ("n", "w", 1.0),
            ("w", "w2", 1.0),
            ("t", "w", 7.0),
        ]);
        assert_batches_pinned(
            &program,
            &edb,
            &[
                [0, 7, 7, 7, 0, 0],
                [6, 5, 4, 3, 1, 0],
                [4, 3, 2, 2, 0, 0],
                [2, 1, 0, 0, 0, 0],
            ],
            "T",
            &[
                "m u", "n w", "s m", "t n", "t w", "u u2", "w w2", "m u2", "n w2", "s u", "s u2",
                "t w2",
            ],
        );

        // The same lanes under the quadratic rule `T :- E + T * T`,
        // whose first split reads its other `T` through `Old` and the
        // empty `changed` map — rows recorded when both read `New`. Bucket 1
        // finds each two-hop pair from both sides (4 of 9 emits absorb)
        // and T(t,w2) = 8 through the stale T(t,w) = 7; bucket 2 improves
        // it to 3; the guesses 7 and 8 stay queued, never a batch.
        let program = ex::quadratic_tc_program::<Trop>();
        assert_batches_pinned(
            &program,
            &edb,
            &[
                [0, 7, 7, 7, 0, 0],
                [6, 6, 9, 4, 1, 4],
                [4, 4, 4, 1, 1, 2],
                [2, 2, 0, 0, 0, 0],
            ],
            "T",
            &[
                "m u", "n w", "s m", "t n", "t w", "u u2", "w w2", "m u2", "n w2", "s u", "t w2",
                "s u2",
            ],
        );
    }

    #[test]
    fn head_key_minting_works_under_both_disciplines() {
        use dlo_core::formula::{CmpOp, Formula};
        // The counter program: keys 1..=5 exist in no EDB and are minted
        // between frontier batches.
        let mut p = Program::<MinNat>::new();
        p.rule(
            Atom::new("N", vec![Term::c(0)]),
            vec![SumProduct::new(vec![]).with_coeff(MinNat::finite(1))],
        );
        p.rule(
            Atom::new(
                "N",
                vec![Term::Apply(KeyFn::AddInt(1), Box::new(Term::v(0)))],
            ),
            vec![SumProduct::new(vec![Factor::atom("N", vec![Term::v(0)])])
                .with_condition(Formula::cmp(Term::v(0), CmpOp::Lt, Term::c(5)))],
        );
        let out = assert_frontier_matches_grounded(&p, &Database::new(), &BoolDatabase::new());
        assert_eq!(out.get("N").unwrap().support_size(), 6);
    }

    #[test]
    fn unbounded_minting_diverges_under_the_cap() {
        // N(i+1) :- N(i) with no guard: the active domain grows forever.
        // Both disciplines must hit the cap and report divergence, like
        // the global backends do.
        let mut p = Program::<MinNat>::new();
        p.rule(
            Atom::new("N", vec![Term::c(0)]),
            vec![SumProduct::new(vec![]).with_coeff(MinNat::finite(1))],
        );
        p.rule(
            Atom::new(
                "N",
                vec![Term::Apply(KeyFn::AddInt(1), Box::new(Term::v(0)))],
            ),
            vec![SumProduct::new(vec![Factor::atom("N", vec![Term::v(0)])])],
        );
        let pops = Database::new();
        let bools = BoolDatabase::new();
        assert!(!eval(&p, &pops, &bools, 25, Strategy::Worklist).is_converged());
        assert!(!eval(&p, &pops, &bools, 25, Strategy::Priority).is_converged());
    }

    #[test]
    fn value_functions_ride_the_full_value_delta() {
        // A monotone value function on a recursive factor over MaxMin:
        // capacity capped at 0.5 along recursive hops. The semi-naïve
        // driver handles this with full-recompute delta plans; the
        // worklist handles it because Δ carries full values (func(Δ) is
        // exact, not a difference).
        let cap_fn = UnaryFn::new("cap", |v: &MaxMin| v.mul(&MaxMin::of(0.3)));
        let mut p = Program::<MaxMin>::new();
        p.rule(
            Atom::new("R", vec![Term::v(0)]),
            vec![
                SumProduct::new(vec![Factor::atom("S", vec![Term::v(0)])]),
                SumProduct::new(vec![
                    Factor::wrapped("R", vec![Term::v(1)], cap_fn),
                    Factor::atom("E", vec![Term::v(1), Term::v(0)]),
                ]),
            ],
        );
        let mut edb = Database::new();
        edb.insert(
            "S",
            Relation::from_pairs(1, vec![(tup!["s"], MaxMin::of(0.9))]),
        );
        edb.insert(
            "E",
            Relation::from_pairs(
                2,
                vec![
                    (tup!["s", "a"], MaxMin::of(0.4)),
                    (tup!["a", "b"], MaxMin::of(0.2)),
                ],
            ),
        );
        let out = assert_frontier_matches_grounded(&p, &edb, &BoolDatabase::new());
        let r = out.get("R").unwrap();
        // ⊗ = min on MaxMin: R(a) = min(cap(0.9) = 0.3, 0.4) = 0.3,
        // R(b) = min(cap(0.3) = 0.3, 0.2) = 0.2.
        assert_eq!(r.get(&tup!["a"]), MaxMin::of(0.3));
        assert_eq!(r.get(&tup!["b"]), MaxMin::of(0.2));
    }

    #[test]
    fn empty_program_converges_with_zero_batches() {
        let p = Program::<Trop>::new();
        let (db, steps) = eval(
            &p,
            &Database::new(),
            &BoolDatabase::new(),
            10,
            Strategy::Priority,
        )
        .converged()
        .unwrap();
        assert_eq!(steps, 0);
        assert!(db.iter().next().is_none());
    }

    #[test]
    fn random_graph_agrees_with_global_seminaive() {
        // A denser instance exercising batches with mixed improvements.
        let mut rng = xorshift(0xfeed);
        let mut pairs = vec![];
        for _ in 0..200 {
            let u = (rng() % 40) as i64;
            let v = (rng() % 40) as i64;
            if u != v {
                pairs.push((vec![u.into(), v.into()], MinNat::finite(1 + rng() % 9)));
            }
        }
        let mut edb = Database::new();
        edb.insert("E", Relation::from_pairs(2, pairs));
        let program = ex::quadratic_tc_program::<MinNat>();
        let bools = BoolDatabase::new();
        let semi = eval(&program, &edb, &bools, 100_000, SemiNaive).unwrap();
        let fifo = eval(&program, &edb, &bools, 10_000_000, Strategy::Worklist).unwrap();
        let prio = eval(&program, &edb, &bools, 10_000_000, Strategy::Priority).unwrap();
        assert_eq!(semi, fifo);
        assert_eq!(semi, prio);
        assert!(
            semi.get("T").unwrap().support_size() > 500,
            "non-trivial TC"
        );
    }

    #[test]
    fn interned_outcome_defers_the_decode() {
        let (program, edb) = ex::sssp_trop("a");
        let bools = BoolDatabase::new();
        let (out, steps) = engine_eval_interned(
            &program,
            &edb,
            &bools,
            1_000_000,
            Strategy::Priority,
            &EngineOpts::default(),
        )
        .expect("compiles")
        .converged()
        .unwrap();
        assert!(steps > 0);
        assert_eq!(out.get("L", &["d".into()]), Some(&Trop::finite(8.0)));
        let reference = eval(&program, &edb, &bools, 1_000_000, Strategy::Priority).unwrap();
        assert_eq!(out.materialize(), reference);
    }
}
