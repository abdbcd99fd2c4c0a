//! The join executor: runs one [`Plan`] against engine state.
//!
//! A plan run is a nested-loop join over the compiled steps — but each
//! step, instead of scanning a sorted support and unifying
//! `Constant`s, either scans a flat row range or probes with an
//! interned key: through a hash-prefix index, or — when the relation
//! carries a sorted arrangement serving the step's mask — through the
//! arrangement's binary searches (a merge probe, dispatched per step
//! on whichever structure exists; both yield row ids in identical
//! ascending order), or — when the key names every column of a
//! standing IDB relation — through that relation's row map, which
//! answers with the one row or none and needs no index of its own. The
//! *old* state `J(t-1)` is read through
//! the *new* state's storage plus the per-iteration `changed` map
//! (appended rows are skipped, updated rows patched back), so `J(t)` and
//! `J(t-1)` share one physical relation and one index set. A frontier
//! fires the same plans with the map left empty, so every `Old` read is
//! a `New` read at the price of one missing lookup — measured level
//! with all-`New` plans on quadratic TC (19.5 M such reads), hence no
//! emptiness shortcut here.
//!
//! The nesting is one loop over a stack of cursors, one per step, each
//! step's relation and probe structure resolved once per run.
//! Advancing the deepest cursor reads its next row (skipping an `Old`
//! row the old state lacks), binds and checks it, and opens the next
//! step — or, at the last step, fires the leaf: post-checks, condition,
//! the product in factor order, the head key, a sink the caller's
//! loop monomorphizes. An exhausted cursor unbinds its slots and pops.
//! That is the recursion's order exactly: depth first, each step's rows
//! as its structure yields them (a scan in row order, posting lists and
//! arranged matches ascending by row id), so every emission, counter
//! and float bit is what nested loops produce. Only the `D₀`
//! enumeration of unbound slots ([`Plan::fill`]) recurses. The buffers
//! — slots, cursors, arranged matches — are the calling loop's
//! ([`Scratch`]), so a warm run allocates nothing.
//!
//! Valuations are provably visited at most once per derivation (rows are
//! unique per relation and every column is probed, bound, or checked),
//! so no per-valuation dedup set is needed — unlike the grounding's
//! `seen` tree (`dlo_core::ground`).

use crate::arrange::{Arrangement, Found};
use crate::hash::FxHashMap;
use crate::intern::Interner;
use crate::plan::{CFormula, CTerm, HeadOp, Plan, ProbeCol, Source, Step};
use crate::storage::{ColumnRel, Postings, RowMap, MAX_ARITY};
use dlo_core::ast::KeyFn;
use dlo_core::formula::CmpOp;
use dlo_pops::{Bool, Pops};
use std::ops::Range;
use std::slice;

/// Sentinel for an unbound valuation slot.
const UNBOUND: u32 = u32::MAX;

/// One cell of an emitted head key whose row includes a head-computed
/// constant: either an id the (frozen) interner already knows, or an
/// integer first derived this iteration. The interner is frozen while a
/// phase's plans run, so `Fresh` cells travel by value and the
/// driver mints ids for them between iterations — deterministically,
/// because fresh accumulators are ordered (`Ord` below) and drained in
/// sorted order.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum HeadVal {
    /// An already-interned constant.
    Id(u32),
    /// An integer produced by a head key function with no id yet.
    Fresh(i64),
}

/// Work counters for one plan run, summed by the telemetry layer. The
/// counted events are fixed by the plan and the state it reads.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExecCounters {
    /// Index probes issued (hash or arranged — the split is below).
    pub probes: u64,
    /// Probes answered by a sorted arrangement's binary searches.
    pub merge_probes: u64,
    /// Probes answered by a posting-list probe: a hash-prefix index, a
    /// bulk relation's direct table, or a standing relation's row map.
    pub hash_probes: u64,
    /// Candidate tuples scanned (full-scan ranges + probe posting
    /// lists, before per-row checks; tombstones not counted).
    pub scanned: u64,
    /// Fully interned head-key emissions.
    pub emits: u64,
    /// Emissions routed to the fresh accumulator for minting.
    pub fresh_emits: u64,
}

impl ExecCounters {
    /// Adds `other` into `self`, field-wise.
    pub fn add(&mut self, other: &ExecCounters) {
        self.probes += other.probes;
        self.merge_probes += other.merge_probes;
        self.hash_probes += other.hash_probes;
        self.scanned += other.scanned;
        self.emits += other.emits;
        self.fresh_emits += other.fresh_emits;
    }
}

/// Everything a plan run reads: interned EDBs, the active domain, and
/// the three IDB states of Theorem 6.5.
///
/// Join steps read relations by scan or through the probe structures
/// the drivers ensured beforehand. The one exception is a Boolean guard
/// atom in a rule condition (`eval_cformula`), which asks its
/// `bool_edb` relation for a row **by full key**: EDB relations are
/// bulk-loaded without a row map ([`ColumnRel::from_distinct_rows`]),
/// so the first such read builds it — inside the plan run, behind the
/// relation's `OnceLock`, which is why a shared `&ColumnRel` suffices.
pub struct EvalCtx<'a, P> {
    /// The (frozen) constant table.
    pub interner: &'a Interner,
    /// Active-domain constant ids, ascending by constant order — empty
    /// unless some plan of the program has slots to fill from it.
    pub adom: &'a [u32],
    /// `P`-EDB relations by `pops_edbs` table index (`None` = absent).
    pub pops_edb: &'a [Option<ColumnRel<P>>],
    /// Boolean relations by `bool_edbs` table index (`None` = absent);
    /// guard atoms read these by full key (see above).
    pub bool_edb: &'a [Option<ColumnRel<Bool>>],
    /// Per-IDB *new* state `J(t)`.
    pub idb_new: &'a [ColumnRel<P>],
    /// Per-IDB rows changed in the step `J(t-1) → J(t)`:
    /// `row ↦ Some(old value)` for updates, `row ↦ None` for appends.
    /// Empty under a frontier and in the DRed marking rounds.
    pub idb_changed: &'a [FxHashMap<u32, Option<P>>],
    /// Per-IDB delta `δ(t-1)`: `⊖` differences in the semi-naïve
    /// rounds, full current values in a frontier batch.
    pub idb_delta: &'a [ColumnRel<P>],
}

/// A partially evaluated key term: an interned id or a computed integer
/// that may fall outside the interned domain.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Ev {
    Id(u32),
    Int(i64),
}

fn eval_cterm(t: &CTerm, slots: &[u32], interner: &Interner) -> Option<Ev> {
    match t {
        CTerm::Slot(s) => {
            let v = slots[*s];
            (v != UNBOUND).then_some(Ev::Id(v))
        }
        CTerm::Const(id) => Some(Ev::Id(*id)),
        CTerm::Apply(f, inner) => {
            let iv = match eval_cterm(inner, slots, interner)? {
                Ev::Id(id) => interner.as_int(id)?,
                Ev::Int(i) => i,
            };
            match f {
                KeyFn::AddInt(d) => Some(Ev::Int(iv + d)),
            }
        }
    }
}

/// A key term's interned id, if it evaluates to an interned constant.
fn eval_id(t: &CTerm, slots: &[u32], interner: &Interner) -> Option<u32> {
    eval_cterm(t, slots, interner).and_then(|ev| ev_to_id(ev, interner))
}

fn ev_to_id(ev: Ev, interner: &Interner) -> Option<u32> {
    match ev {
        Ev::Id(id) => Some(id),
        Ev::Int(i) => interner.lookup_int(i),
    }
}

fn ev_to_int(ev: Ev, interner: &Interner) -> Option<i64> {
    match ev {
        Ev::Id(id) => interner.as_int(id),
        Ev::Int(i) => Some(i),
    }
}

fn ev_eq(l: Ev, r: Ev, interner: &Interner) -> bool {
    match (l, r) {
        (Ev::Id(a), Ev::Id(b)) => a == b,
        (Ev::Id(a), Ev::Int(i)) | (Ev::Int(i), Ev::Id(a)) => interner.as_int(a) == Some(i),
        (Ev::Int(a), Ev::Int(b)) => a == b,
    }
}

/// Evaluates a compiled condition under a full valuation — the interned
/// mirror of `Formula::eval` (unbound/ill-typed terms make atoms and
/// comparisons false).
pub(crate) fn eval_cformula<P: Pops>(f: &CFormula, slots: &[u32], ctx: &EvalCtx<'_, P>) -> bool {
    match f {
        CFormula::True => true,
        CFormula::False => false,
        CFormula::BoolAtom { pred, args } => {
            let rel = ctx.bool_edb[*pred].as_ref();
            let Some(rel) = rel.filter(|rel| rel.arity() == args.len()) else {
                return false;
            };
            // Runs once per candidate valuation: the key lives on the
            // stack.
            let mut key = [0u32; MAX_ARITY];
            for (cell, a) in key.iter_mut().zip(args) {
                let Some(id) = eval_id(a, slots, ctx.interner) else {
                    return false;
                };
                *cell = id;
            }
            // The one full-key read of an EDB in a plan run — and so the
            // one place a bulk-loaded guard relation's row map gets
            // built, by whichever valuation asks first.
            rel.rowid(&key[..args.len()]).is_some()
        }
        CFormula::Not(g) => !eval_cformula(g, slots, ctx),
        CFormula::And(a, b) => eval_cformula(a, slots, ctx) && eval_cformula(b, slots, ctx),
        CFormula::Or(a, b) => eval_cformula(a, slots, ctx) || eval_cformula(b, slots, ctx),
        CFormula::Cmp(l, op, r) => {
            let (Some(lv), Some(rv)) = (
                eval_cterm(l, slots, ctx.interner),
                eval_cterm(r, slots, ctx.interner),
            ) else {
                return false;
            };
            let ints = || Some((ev_to_int(lv, ctx.interner)?, ev_to_int(rv, ctx.interner)?));
            match op {
                CmpOp::Eq => ev_eq(lv, rv, ctx.interner),
                CmpOp::Ne => !ev_eq(lv, rv, ctx.interner),
                CmpOp::Lt => ints().is_some_and(|(a, b)| a < b),
                CmpOp::Le => ints().is_some_and(|(a, b)| a <= b),
                CmpOp::Gt => ints().is_some_and(|(a, b)| a > b),
                CmpOp::Ge => ints().is_some_and(|(a, b)| a >= b),
            }
        }
    }
}

/// The buffers a plan run works in, lent by the loop that runs plans
/// (`driver::Run`) and reused from run to run and round to round, so a
/// warm run allocates nothing: the valuation slots, the stack of
/// arranged-probe matches (each open depth owns a suffix), and the
/// per-depth cursors, kept between runs as the capacity of an empty
/// vector (`recycle`).
#[derive(Default)]
pub struct Scratch {
    slots: Vec<u32>,
    matches: Vec<u32>,
    depths: Vec<Depth<'static, ()>>,
}

/// Hands `v`'s allocation to a vector of another element type. std
/// collects a `vec::IntoIter` in place when both types have one size
/// and alignment, as every `Depth<'_, P>` has (its `P`s sit behind
/// references): the cursor stack outlives the borrows of one run
/// without a new allocation for the next.
fn recycle<T, U>(mut v: Vec<T>) -> Vec<U> {
    v.clear();
    v.into_iter().map(|_| -> U { unreachable!() }).collect()
}

/// Runs `plan` against `ctx`, calling `emit(head_key, value)` once per
/// surviving valuation whose head key is fully interned, and
/// `emit_fresh` for valuations whose head contains a key-function result
/// outside the interned domain (the driver mints ids for those between
/// iterations). Probe, scan, and emit counts are accumulated into
/// `counters`; `scratch` is the caller's, reused across calls.
///
/// The join is one loop over a stack of per-step cursors (see the
/// module docs for why it visits what the nested loops would, in their
/// order); only the `D₀` enumeration of [`Plan::fill`] recurses.
pub fn run_plan<'a, P: Pops>(
    plan: &Plan<P>,
    ctx: &EvalCtx<'a, P>,
    scratch: &mut Scratch,
    counters: &mut ExecCounters,
    emit: impl FnMut(&[u32], P),
    emit_fresh: impl FnMut(&[HeadVal], P),
) {
    scratch.slots.clear();
    scratch.slots.resize(plan.nslots, UNBOUND);
    for &(s, id) in &plan.pre_bound {
        scratch.slots[s] = id;
    }
    let mut stack: Vec<Depth<'a, P>> = recycle(std::mem::take(&mut scratch.depths));
    stack.extend(plan.steps.iter().map(|step| Depth::resolve(ctx, step)));
    let mut join = Join {
        plan,
        ctx,
        slots: &mut scratch.slots,
        matches: &mut scratch.matches,
        counters,
        emit,
        emit_fresh,
    };
    join.run(&mut stack);
    scratch.depths = recycle(stack);
}

/// One step of a running plan: what it reads, resolved once per run,
/// its cursor, and the row it stands on.
struct Depth<'a, P> {
    rel: StepRel<'a, P>,
    probe: Probe<'a>,
    cursor: Cursor<'a>,
    /// The current row's key (post-checks read it).
    key: &'a [u32],
    /// The current row's value (the leaf reads it; `None` for a guard).
    val: Option<&'a P>,
}

/// What answers a step's opens, resolved once per run.
#[derive(Clone, Copy)]
enum Probe<'a> {
    /// Every row (this many), in row order — none when the relation is
    /// missing or of another arity: the factor is all-`0`, the guard
    /// all-false.
    Scan(u32),
    /// A posting-list index, hashed or a bulk relation's table (`None`
    /// until ensured: a probe then panics, as [`ColumnRel::probe`] does).
    Index(Option<&'a Postings>),
    /// A sorted run: binary searches, the merge-probe path. A
    /// load-order run searches the step's relation, which the open reads
    /// from [`StepRel::keys`] rather than from here: a second reference
    /// would double this enum, and every depth with it (`point-query`
    /// `op_median_s` read 1.04–1.11× in 25 alternating pairs with the
    /// keys carried here, 1.02× without).
    Arranged(&'a Arrangement),
    /// The full-key row map of a standing IDB relation
    /// ([`ColumnRel::rowid`]): at most one row, no posting list behind
    /// it — counted as a hash probe, which it is.
    RowMap(&'a RowMap),
}

impl<'a> Probe<'a> {
    /// How `rel` answers `step`.
    fn of<Q: Pops>(rel: &'a ColumnRel<Q>, step: &Step) -> Self {
        if rel.arity() != step.arity {
            Probe::Scan(0)
        } else if step.mask == 0 {
            Probe::Scan(rel.len() as u32)
        } else if step.reads_row_map() {
            Probe::RowMap(rel.row_map())
        } else if let Some(arr) = rel.arrangement_for(step.mask) {
            Probe::Arranged(arr)
        } else {
            Probe::Index(rel.index(step.mask))
        }
    }
}

/// The rows an open depth has left to visit, ascending by row id.
enum Cursor<'a> {
    /// A range of row ids: a scan, a row-map hit (one row or none), or
    /// a load-order run's matches.
    Rows(Range<u32>),
    /// A posting list (a hash index's, or a slice of a table).
    List(slice::Iter<'a, u32>),
    /// An arranged probe's matches: `matches[next..]`, the top of the
    /// stack, which this depth filled from `start` on.
    Matches { next: usize, start: usize },
}

/// How a step's rows are read.
enum StepRel<'a, P> {
    Pops(&'a ColumnRel<P>),
    /// New-state storage read *as* the old state: `changed` patches.
    PopsOld(&'a ColumnRel<P>, &'a FxHashMap<u32, Option<P>>),
    Guard(&'a ColumnRel<Bool>),
    /// No relation (its probe scans no row).
    Missing,
}

impl<'a, P: Pops> StepRel<'a, P> {
    /// Every row's key columns, row-major (what a load-order run
    /// searches).
    fn keys(&self) -> &'a [u32] {
        match self {
            StepRel::Pops(rel) | StepRel::PopsOld(rel, _) => rel.keys(),
            StepRel::Guard(rel) => rel.keys(),
            StepRel::Missing => &[],
        }
    }

    /// The row key and factor value of row `r`; `None` when the row does
    /// not exist in this state (appended after `J(t-1)`).
    #[inline]
    fn row(&self, r: u32) -> Option<(&'a [u32], Option<&'a P>)> {
        match self {
            StepRel::Pops(rel) => Some((rel.row(r), Some(rel.val(r)))),
            StepRel::PopsOld(rel, changed) => match changed.get(&r) {
                Some(None) => None,
                Some(Some(old)) => Some((rel.row(r), Some(old))),
                None => Some((rel.row(r), Some(rel.val(r)))),
            },
            StepRel::Guard(rel) => Some((rel.row(r), None)),
            StepRel::Missing => None,
        }
    }
}

impl<'a, P: Pops> Depth<'a, P> {
    /// Resolves the relation `step` reads and how it answers.
    fn resolve(ctx: &EvalCtx<'a, P>, step: &Step) -> Self {
        let rel = match step.source {
            Source::PopsEdb(i) => ctx.pops_edb[i].as_ref().map(StepRel::Pops),
            Source::IdbNew(i) => Some(StepRel::Pops(&ctx.idb_new[i])),
            Source::IdbOld(i) => Some(StepRel::PopsOld(&ctx.idb_new[i], &ctx.idb_changed[i])),
            Source::IdbDelta(i) => Some(StepRel::Pops(&ctx.idb_delta[i])),
            Source::BoolEdb(i) => ctx.bool_edb[i].as_ref().map(StepRel::Guard),
        };
        let rel = rel.unwrap_or(StepRel::Missing);
        let probe = match rel {
            StepRel::Pops(r) | StepRel::PopsOld(r, _) => Probe::of(r, step),
            StepRel::Guard(r) => Probe::of(r, step),
            StepRel::Missing => Probe::Scan(0),
        };
        Depth {
            rel,
            probe,
            cursor: Cursor::Rows(0..0),
            key: &[],
            val: None,
        }
    }

    /// The next row id to visit, or `None` once the cursor is spent
    /// (an arranged depth then hands its matches back to the stack).
    #[inline]
    fn advance(&mut self, matches: &mut Vec<u32>) -> Option<u32> {
        match &mut self.cursor {
            Cursor::Rows(rows) => rows.next(),
            Cursor::List(rows) => rows.next().copied(),
            Cursor::Matches { next, start } => {
                let r = matches.get(*next).copied();
                *next += 1;
                if r.is_none() {
                    matches.truncate(*start);
                }
                r
            }
        }
    }
}

/// One plan run: what it reads, the buffers it works in, and the sinks
/// a surviving valuation reaches after the deferred checks, the
/// condition, the product and the head key.
struct Join<'r, 'a, P, E, F> {
    plan: &'r Plan<P>,
    ctx: &'r EvalCtx<'a, P>,
    slots: &'r mut [u32],
    matches: &'r mut Vec<u32>,
    counters: &'r mut ExecCounters,
    emit: E,
    emit_fresh: F,
}

impl<'a, P: Pops, E: FnMut(&[u32], P), F: FnMut(&[HeadVal], P)> Join<'_, 'a, P, E, F> {
    /// The join loop: `stack[d]` is step `d`'s cursor, and `d` the
    /// deepest open step.
    fn run(&mut self, stack: &mut [Depth<'a, P>]) {
        let (plan, interner) = (self.plan, self.ctx.interner);
        let Some(first) = plan.steps.first() else {
            return self.fill(0, stack);
        };
        self.open(&mut stack[0], first);
        let (last, mut d) = (plan.steps.len() - 1, 0);
        while let Some(step) = plan.steps.get(d) {
            let depth = &mut stack[d];
            let Some(r) = depth.advance(self.matches) else {
                for &(_, slot) in &step.binds {
                    self.slots[slot] = UNBOUND;
                }
                d = d.wrapping_sub(1); // past step 0: the loop ends
                continue;
            };
            let Some((key, val)) = depth.rel.row(r) else {
                continue; // row absent from the old state
            };
            if val.is_some_and(P::is_zero) {
                // A tombstone (`storage::ColumnRel`) is no row to meet:
                // the open counted it, so the count gives it back.
                self.counters.scanned -= 1;
                continue;
            }
            for &(col, slot) in &step.binds {
                self.slots[slot] = key[col];
            }
            let slots = &*self.slots;
            let holds = |(col, t): &(usize, CTerm)| eval_id(t, slots, interner) == Some(key[*col]);
            if !step.checks.iter().all(holds) {
                continue;
            }
            (depth.key, depth.val) = (key, val);
            if d < last {
                d += 1;
                self.open(&mut stack[d], &plan.steps[d]);
            } else if plan.fill.is_empty() {
                self.fire(stack);
            } else {
                self.fill(0, stack);
            }
        }
    }

    /// Points the cursor at the rows `step` matches under `slots`: a
    /// scan's range, or one probe with a key assembled on the stack.
    fn open(&mut self, depth: &mut Depth<'a, P>, step: &Step) {
        let (slots, matches, counters) = (&*self.slots, &mut *self.matches, &mut *self.counters);
        if let Probe::Scan(n) = depth.probe {
            counters.scanned += n as u64;
            depth.cursor = Cursor::Rows(0..n);
            return;
        }
        depth.cursor = Cursor::Rows(0..0);
        let mut key = [0u32; MAX_ARITY];
        for (cell, p) in key.iter_mut().zip(&step.probe) {
            *cell = match p {
                ProbeCol::Const(id) => *id,
                ProbeCol::Slot(s) => slots[*s],
                ProbeCol::Term(t) => match eval_id(t, slots, self.ctx.interner) {
                    Some(id) => id,
                    None => return, // un-interned probe value: no match
                },
            };
        }
        let key = &key[..step.probe.len()];
        counters.probes += 1;
        let found = match depth.probe {
            Probe::Arranged(arr) => {
                counters.merge_probes += 1;
                match arr.probe(depth.rel.keys(), key) {
                    Found::Rows(rows) => {
                        depth.cursor = Cursor::Rows(rows.clone());
                        rows.len()
                    }
                    Found::Run(rows) => {
                        // Matches in the run's key order, sorted into the
                        // ascending row-id order a posting list holds, so
                        // both paths emit identically (≤ 1 row needs no
                        // sort).
                        let start = matches.len();
                        matches.extend_from_slice(rows);
                        if rows.len() > 1 {
                            matches[start..].sort_unstable();
                        }
                        depth.cursor = Cursor::Matches { next: start, start };
                        rows.len()
                    }
                }
            }
            Probe::RowMap(map) => {
                counters.hash_probes += 1;
                let Some(r) = map.get(key) else { return };
                depth.cursor = Cursor::Rows(r..r + 1);
                1
            }
            Probe::Index(index) => {
                counters.hash_probes += 1;
                let rows = index.expect("probe before ensure_index").get(key);
                depth.cursor = Cursor::List(rows.iter());
                rows.len()
            }
            Probe::Scan(_) => unreachable!("opened above"),
        };
        counters.scanned += found as u64;
    }

    /// Enumerates the active domain `D₀` for slots no step binds (the
    /// grounding's leftover-variable enumeration).
    fn fill(&mut self, j: usize, stack: &[Depth<'a, P>]) {
        let Some(&slot) = self.plan.fill.get(j) else {
            return self.fire(stack);
        };
        for &id in self.ctx.adom {
            self.slots[slot] = id;
            self.fill(j + 1, stack);
        }
        self.slots[slot] = UNBOUND;
    }

    // Forced inline, like `driver::land`: left to LLVM it stays a call
    // (two call sites), which cost `apsp-dense` ≈ 8 % of its plan time
    // (in-process A/B against the inlined body, 0.72× → 0.66× of the
    // recursive runner's).
    #[inline(always)]
    fn fire(&mut self, stack: &[Depth<'a, P>]) {
        let (plan, interner, slots) = (self.plan, self.ctx.interner, &*self.slots);
        // Deferred wildcard checks: the matched row's column must equal
        // the now-evaluable key-function term.
        for (si, col, t) in &plan.post_checks {
            if eval_id(t, slots, interner) != Some(stack[*si].key[*col]) {
                return;
            }
        }
        let cond = &plan.condition;
        if !matches!(cond, CFormula::True) && !eval_cformula(cond, slots, self.ctx) {
            return;
        }
        let mut acc = plan.coeff.clone().unwrap_or_else(P::one);
        for (si, func) in &plan.factors {
            let Some(v) = stack[*si].val else { return };
            acc = match func {
                Some(func) => acc.mul(&func.apply(v)),
                None => acc.mul(v),
            };
            if acc.is_zero() {
                return; // 0 absorbs on naturally ordered semirings
            }
        }
        // The head key lives on the stack, like the probe key. A
        // computed cell outside the interned domain sends the valuation
        // to `emit_fresh` instead; an unevaluable one (type mismatch)
        // drops it, mirroring the grounding's `eval_args`.
        let mut key = [0u32; MAX_ARITY];
        for (cell, h) in key.iter_mut().zip(&plan.head_cols) {
            *cell = match h {
                HeadOp::Slot(s) => slots[*s],
                HeadOp::Const(id) => *id,
                HeadOp::Computed(t) => match eval_cterm(t, slots, interner) {
                    None => return,
                    Some(ev) => match ev_to_id(ev, interner) {
                        Some(id) => id,
                        None => return self.fire_fresh(acc),
                    },
                },
            };
        }
        self.counters.emits += 1;
        (self.emit)(&key[..plan.head_cols.len()], acc)
    }

    /// [`Self::fire`]'s emission when a head key function computed an
    /// integer the frozen interner lacks: the key as [`HeadVal`]s, for
    /// the driver to mint.
    #[cold]
    fn fire_fresh(&mut self, acc: P) {
        let (interner, slots) = (self.ctx.interner, &*self.slots);
        let cell = |h: &HeadOp| match h {
            HeadOp::Slot(s) => Some(HeadVal::Id(slots[*s])),
            HeadOp::Const(id) => Some(HeadVal::Id(*id)),
            HeadOp::Computed(t) => match eval_cterm(t, slots, interner)? {
                Ev::Int(i) if interner.lookup_int(i).is_none() => Some(HeadVal::Fresh(i)),
                ev => ev_to_id(ev, interner).map(HeadVal::Id),
            },
        };
        let key: Option<Vec<HeadVal>> = self.plan.head_cols.iter().map(cell).collect();
        if let Some(key) = key {
            self.counters.fresh_emits += 1;
            (self.emit_fresh)(&key, acc)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{run_plans_inline, setup, EngineOpts, Run};
    use crate::plan::compile;
    use dlo_core::relation::{BoolDatabase, Database, Relation};
    use dlo_core::{parse_program, tup};
    use dlo_pops::Trop;
    use std::collections::BTreeMap;

    fn rel(arity: usize, rows: &[(&[u32], f64)]) -> ColumnRel<Trop> {
        let keys = rows.iter().flat_map(|(k, _)| k.iter().copied()).collect();
        let vals = rows.iter().map(|(_, v)| Trop::finite(*v)).collect();
        ColumnRel::from_distinct_rows(arity, keys, vals)
    }

    #[test]
    fn the_loop_visits_depth_first_in_row_id_order() {
        let program = parse_program::<Trop>(
            "R(X) :- S(X).\nQ(X, Y, W, V) :- R(X) * B(X, Y) * C(Y, W, K) * R(W).",
        )
        .unwrap();
        let c = compile(&program, &mut Interner::new()).unwrap();
        // The split at R(X): scan ΔR, probe B by hash and C's sorted
        // run, read R(W) from the old state by full key, fill V.
        let plan = &c.delta_plans[0];
        let (b, cc) = (1, 2);
        assert_eq!(c.pops_edbs, ["S", "B", "C"]);
        let shape: Vec<_> = plan.steps.iter().map(|s| (s.source, s.mask)).collect();
        let want = [
            (Source::IdbDelta(0), 0),
            (Source::PopsEdb(b), 0b01),
            (Source::PopsEdb(cc), 0b001),
            (Source::IdbOld(0), 0b1),
        ];
        assert_eq!(shape, want);
        assert_eq!(plan.fill.len(), 1);

        let delta_r = rel(1, &[(&[1], 1.0), (&[2], 2.0)]);
        // Posting list X = 1 is rows 0 and 2: Y = 11, then Y = 10.
        let mut edb_b = rel(2, &[(&[1, 11], 10.0), (&[2, 12], 20.0), (&[1, 10], 30.0)]);
        // The run orders Y = 11 as (11, 20, 1) before (11, 22, 0); the
        // loop visits them by row id: W = 22, then W = 20.
        let c_rows: &[(&[u32], f64)] = &[
            (&[11, 22, 0], 100.0),
            (&[10, 20, 0], 200.0),
            (&[11, 20, 1], 300.0),
            (&[10, 21, 0], 400.0),
        ];
        let mut edb_c = rel(3, c_rows);
        assert!(!edb_b.ensure_probe(0b01, None));
        assert!(edb_c.ensure_probe(0b001, None));
        // R(20) was 3000 before this step; R(21) was appended in it.
        let mut new_r = ColumnRel::new(1);
        new_r.insert_row(&[20], Trop::finite(0.5));
        new_r.insert_row(&[21], Trop::finite(0.25));
        new_r.insert_row(&[22], Trop::finite(4000.0));
        let changed: FxHashMap<u32, Option<Trop>> = [(0, Some(Trop::finite(3000.0))), (1, None)]
            .into_iter()
            .collect();
        let ctx = EvalCtx {
            interner: &Interner::new(),
            adom: &[5, 6],
            pops_edb: &[Some(rel(1, &[])), Some(edb_b), Some(edb_c)],
            bool_edb: &[],
            idb_new: &[new_r, ColumnRel::new(4)],
            idb_changed: &[changed, FxHashMap::default()],
            idb_delta: &[delta_r, ColumnRel::new(4)],
        };
        let mut emitted = vec![];
        let mut counters = ExecCounters::default();
        let mut scratch = Scratch::default();
        let emit = |k: &[u32], v: Trop| emitted.push((k.to_vec(), v));
        run_plan(plan, &ctx, &mut scratch, &mut counters, emit, |_, _| {
            panic!("nothing fresh")
        });
        let e = |k: [u32; 4], v: f64| (k.to_vec(), Trop::finite(v));
        let want = [
            e([1, 11, 22, 5], 4111.0),
            e([1, 11, 22, 6], 4111.0),
            e([1, 11, 20, 5], 3311.0),
            e([1, 11, 20, 6], 3311.0),
            e([1, 10, 20, 5], 3231.0),
            e([1, 10, 20, 6], 3231.0),
        ];
        assert_eq!(emitted, want);
        let want = ExecCounters {
            probes: 9,
            merge_probes: 3,
            hash_probes: 6,
            scanned: 13,
            emits: 6,
            fresh_emits: 0,
        };
        assert_eq!(counters, want);
    }

    /// Capacity and address of each lent buffer.
    fn footprint(s: &Scratch) -> [(usize, usize); 3] {
        [
            (s.slots.capacity(), s.slots.as_ptr() as usize),
            (s.matches.capacity(), s.matches.as_ptr() as usize),
            (s.depths.capacity(), s.depths.as_ptr() as usize),
        ]
    }

    #[test]
    fn a_warm_plan_run_allocates_nothing() {
        // Labelled closure over an arity-3 EDB, label first: the Δ plan
        // scans ΔT and probes E through its middle column, which is no
        // prefix of E's columns, so E's run is sorted and every lent
        // buffer is used (a prefix probe of a loaded relation fills no
        // match buffer).
        let program =
            parse_program::<Trop>("T(X, Y) :- E(L, X, Y) + T(X, Z) * E(L, Z, Y).").unwrap();
        let mut e = Relation::new(3);
        for (x, y, l) in [
            ("a", "b", "p"),
            ("b", "c", "p"),
            ("b", "a", "q"),
            ("c", "a", "p"),
        ] {
            e.set(tup![l, x, y], Trop::finite(1.0));
        }
        let mut edb = Database::new();
        edb.insert("E", e);
        let bools = BoolDatabase::new();
        let mut interner = Interner::new();
        let mut engine = setup(&program, &mut interner, &edb, &bools, &[], 1).unwrap();
        let mut state = engine.empty_state();
        let opts = EngineOpts::default();
        let mut run = Run::open(&engine, "test", false, &opts, 0);
        run.prepare(&mut engine, &interner, &mut state, &opts)
            .ok()
            .unwrap();
        let edges = engine.pops_edb[0].as_ref().unwrap();
        for (_, key, v) in edges.iter() {
            state.delta[0].append_row(&key[1..], *v);
        }
        let plans = &engine.compiled.delta_plans;
        assert!(plans.len() == 1 && plans[0].steps.len() == 2);
        let mut sinks = vec![vec![]];
        let mut fresh = vec![BTreeMap::new()];
        let mut fire = |run: &mut Run<Trop>| {
            let land = |s: &mut Vec<_>, k: &[u32], v| s.push((k.to_vec(), v));
            let ran = run_plans_inline(
                &engine, &interner, &state, plans, &mut sinks, land, &mut fresh, 5, run,
            );
            assert!(ran.is_ok());
            footprint(&run.scratch)
        };
        let warm = fire(&mut run);
        assert!(warm.iter().all(|&(cap, _)| cap > 0), "{warm:?}");
        assert_eq!(fire(&mut run), warm);
        // ΔT(a, b) meets two E(b, ·, ·) rows, the other three one each.
        assert_eq!(sinks[0].len(), 2 * 5);
    }
}
