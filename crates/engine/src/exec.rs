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
//! Valuations are provably visited at most once per derivation (rows are
//! unique per relation and every column is probed, bound, or checked),
//! so no per-valuation dedup set is needed — unlike the grounding's
//! `seen` tree (`dlo_core::ground`).

use crate::arrange::Arrangement;
use crate::hash::FxHashMap;
use crate::intern::Interner;
use crate::plan::{CFormula, CTerm, HeadOp, Plan, ProbeCol, Source, Step};
use crate::storage::{ColumnRel, MAX_ARITY};
use dlo_core::ast::KeyFn;
use dlo_core::formula::CmpOp;
use dlo_pops::{Bool, Pops};

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
    /// Probes answered by a hash-prefix index.
    pub hash_probes: u64,
    /// Candidate tuples scanned (full-scan ranges + probe posting
    /// lists, before per-row checks).
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
            let Some(rel) = &ctx.bool_edb[*pred] else {
                return false;
            };
            if rel.arity() != args.len() {
                return false;
            }
            // Runs once per candidate valuation: the key lives on the
            // stack.
            let mut key = [0u32; MAX_ARITY];
            for (cell, a) in key.iter_mut().zip(args) {
                let Some(ev) = eval_cterm(a, slots, ctx.interner) else {
                    return false;
                };
                let Some(id) = ev_to_id(ev, ctx.interner) else {
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
            match op {
                CmpOp::Eq => ev_eq(lv, rv, ctx.interner),
                CmpOp::Ne => !ev_eq(lv, rv, ctx.interner),
                CmpOp::Lt | CmpOp::Le | CmpOp::Gt | CmpOp::Ge => {
                    let (Some(a), Some(b)) =
                        (ev_to_int(lv, ctx.interner), ev_to_int(rv, ctx.interner))
                    else {
                        return false;
                    };
                    match op {
                        CmpOp::Lt => a < b,
                        CmpOp::Le => a <= b,
                        CmpOp::Gt => a > b,
                        CmpOp::Ge => a >= b,
                        _ => unreachable!(),
                    }
                }
            }
        }
    }
}

/// Runs `plan` against `ctx`, calling `emit(head_key, value)` once per
/// surviving valuation whose head key is fully interned, and
/// `emit_fresh` for valuations whose head contains a key-function result
/// outside the interned domain (the driver mints ids for those between
/// iterations). Probe, scan, and emit counts are accumulated into
/// `counters`.
pub fn run_plan<'a, P: Pops>(
    plan: &Plan<P>,
    ctx: &EvalCtx<'a, P>,
    counters: &mut ExecCounters,
    emit: &mut dyn FnMut(&[u32], P),
    emit_fresh: &mut dyn FnMut(&[HeadVal], P),
) {
    // Resolve each probing step's structure once per plan run: the
    // step → relation mapping is fixed for the run, and looking the
    // arrangement up per probe (a hash get plus a prefix-sharing scan)
    // would sit on the hot join path.
    let step_probe: Vec<StepProbe<'a>> = plan
        .steps
        .iter()
        .map(|s| {
            if s.reads_row_map() {
                return StepProbe::RowMap;
            }
            let arr = (s.mask != 0)
                .then(|| resolve_step(ctx, s)?.arrangement_for(s.mask))
                .flatten();
            arr.map_or(StepProbe::Index, StepProbe::Arranged)
        })
        .collect();
    let mut runner = Runner {
        plan,
        ctx,
        slots: vec![UNBOUND; plan.nslots],
        values: vec![None; plan.nfactors],
        row_keys: vec![None; plan.steps.len()],
        arr_rows: vec![Vec::new(); plan.steps.len()],
        step_probe,
        counters,
        emit,
        emit_fresh,
    };
    for &(s, id) in &plan.pre_bound {
        runner.slots[s] = id;
    }
    runner.step(0);
}

/// What answers a step's probes (a scanning step never asks).
#[derive(Clone, Copy)]
enum StepProbe<'a> {
    /// A hash-prefix index ([`ColumnRel::probe`]).
    Index,
    /// A sorted run: binary searches, the merge-probe path.
    Arranged(&'a Arrangement),
    /// The full-key row map of a standing IDB relation
    /// ([`ColumnRel::rowid`]): at most one row, no posting list behind
    /// it — counted as a hash probe, which it is.
    RowMap,
}

/// How a step's relation is read.
enum StepRel<'a, P> {
    Pops(&'a ColumnRel<P>),
    /// New-state storage read *as* the old state: `changed` patches.
    PopsOld(&'a ColumnRel<P>, &'a FxHashMap<u32, Option<P>>),
    Guard(&'a ColumnRel<Bool>),
}

impl<'a, P: Pops> StepRel<'a, P> {
    fn arity(&self) -> usize {
        match self {
            StepRel::Pops(r) | StepRel::PopsOld(r, _) => r.arity(),
            StepRel::Guard(r) => r.arity(),
        }
    }
    fn len(&self) -> usize {
        match self {
            StepRel::Pops(r) | StepRel::PopsOld(r, _) => r.len(),
            StepRel::Guard(r) => r.len(),
        }
    }
    fn probe(&self, mask: u32, key: &[u32]) -> &'a [u32] {
        match self {
            StepRel::Pops(r) | StepRel::PopsOld(r, _) => r.probe(mask, key),
            StepRel::Guard(r) => r.probe(mask, key),
        }
    }
    fn rowid(&self, key: &[u32]) -> Option<u32> {
        match self {
            StepRel::Pops(r) | StepRel::PopsOld(r, _) => r.rowid(key),
            StepRel::Guard(r) => r.rowid(key),
        }
    }
    /// The sorted arrangement serving `mask`, if one is built — the
    /// merge-probe dispatch, resolved once per plan run.
    fn arrangement_for(&self, mask: u32) -> Option<&'a Arrangement> {
        match self {
            StepRel::Pops(r) | StepRel::PopsOld(r, _) => r.arrangement_for(mask),
            StepRel::Guard(r) => r.arrangement_for(mask),
        }
    }
    /// The row key and factor value of row `r`; `None` when the row does
    /// not exist in this state (appended after `J(t-1)`).
    fn row(&self, r: u32) -> Option<(&'a [u32], Option<&'a P>)> {
        match self {
            StepRel::Pops(rel) => Some((rel.row(r), Some(rel.val(r)))),
            StepRel::PopsOld(rel, changed) => match changed.get(&r) {
                Some(None) => None,
                Some(Some(old)) => Some((rel.row(r), Some(old))),
                None => Some((rel.row(r), Some(rel.val(r)))),
            },
            StepRel::Guard(rel) => Some((rel.row(r), None)),
        }
    }
}

struct Runner<'r, 'a, P: Pops> {
    plan: &'r Plan<P>,
    ctx: &'r EvalCtx<'a, P>,
    slots: Vec<u32>,
    values: Vec<Option<&'a P>>,
    row_keys: Vec<Option<&'a [u32]>>,
    /// Per-step-depth row buffers for arranged probes: an arrangement
    /// collects matches across spine batches into caller-owned storage
    /// (unlike a hash probe, which returns a borrowed posting list), and
    /// giving each depth its own buffer keeps the recursion
    /// allocation-free in steady state.
    arr_rows: Vec<Vec<u32>>,
    /// Per-step probe dispatch, resolved once in [`run_plan`].
    step_probe: Vec<StepProbe<'a>>,
    counters: &'r mut ExecCounters,
    emit: &'r mut dyn FnMut(&[u32], P),
    emit_fresh: &'r mut dyn FnMut(&[HeadVal], P),
}

/// Resolves the relation a step reads from the evaluation context (the
/// mapping is fixed for a whole plan run).
fn resolve_step<'a, P: Pops>(ctx: &EvalCtx<'a, P>, step: &Step) -> Option<StepRel<'a, P>> {
    match step.source {
        Source::PopsEdb(i) => ctx.pops_edb[i].as_ref().map(StepRel::Pops),
        Source::IdbNew(i) => Some(StepRel::Pops(&ctx.idb_new[i])),
        Source::IdbOld(i) => Some(StepRel::PopsOld(&ctx.idb_new[i], &ctx.idb_changed[i])),
        Source::IdbDelta(i) => Some(StepRel::Pops(&ctx.idb_delta[i])),
        Source::BoolEdb(i) => ctx.bool_edb[i].as_ref().map(StepRel::Guard),
    }
}

impl<'a, P: Pops> Runner<'_, 'a, P> {
    fn resolve(&self, step: &Step) -> Option<StepRel<'a, P>> {
        resolve_step(self.ctx, step)
    }

    fn step(&mut self, i: usize) {
        let Some(step) = self.plan.steps.get(i) else {
            self.fill(0);
            return;
        };
        // Missing relation: the factor is all-0 / the guard all-false.
        let Some(rel) = self.resolve(step) else {
            return;
        };
        if rel.arity() != step.arity {
            return;
        }

        let visit = |this: &mut Self, r: u32| {
            let Some((key, value)) = rel.row(r) else {
                return; // row absent from the old state
            };
            for &(col, slot) in &step.binds {
                this.slots[slot] = key[col];
            }
            let ok = step.checks.iter().all(|(col, t)| {
                eval_cterm(t, &this.slots, this.ctx.interner)
                    .and_then(|ev| ev_to_id(ev, this.ctx.interner))
                    == Some(key[*col])
            });
            if ok {
                if let Some(factor) = &step.factor {
                    this.values[factor.index] = value;
                }
                this.row_keys[i] = Some(key);
                this.step(i + 1);
            }
            for &(_, slot) in &step.binds {
                this.slots[slot] = UNBOUND;
            }
        };

        if step.mask == 0 {
            self.counters.scanned += rel.len() as u64;
            for r in 0..rel.len() {
                visit(self, r as u32);
            }
            return;
        }

        // One probe per candidate row of the step before: the key lives
        // on the stack, at most one cell per column.
        let mut key = [0u32; MAX_ARITY];
        for (cell, p) in key.iter_mut().zip(&step.probe) {
            let id = match p {
                ProbeCol::Const(id) => Some(*id),
                ProbeCol::Slot(s) => Some(self.slots[*s]),
                ProbeCol::Term(t) => eval_cterm(t, &self.slots, self.ctx.interner)
                    .and_then(|ev| ev_to_id(ev, self.ctx.interner)),
            };
            let Some(id) = id else {
                return; // un-interned probe value: no match
            };
            *cell = id;
        }
        let key = &key[..step.probe.len()];
        if let StepProbe::Arranged(arr) = self.step_probe[i] {
            // Arranged path: collect matches across spine batches into
            // this depth's buffer, sorted ascending — the exact order
            // the hash posting lists hold, so both paths emit
            // identically. (Single-batch matches of ≤ 1 row, the common
            // join fan-out, skip the sort outright.)
            let mut rows = std::mem::take(&mut self.arr_rows[i]);
            rows.clear();
            arr.probe_into(key, &mut rows);
            if rows.len() > 1 {
                rows.sort_unstable();
            }
            self.counters.probes += 1;
            self.counters.merge_probes += 1;
            self.counters.scanned += rows.len() as u64;
            for &r in &rows {
                visit(self, r);
            }
            self.arr_rows[i] = rows;
        } else {
            let hit;
            let rows = match self.step_probe[i] {
                StepProbe::RowMap => {
                    hit = rel.rowid(key);
                    hit.as_slice()
                }
                _ => rel.probe(step.mask, key),
            };
            self.counters.probes += 1;
            self.counters.hash_probes += 1;
            self.counters.scanned += rows.len() as u64;
            for &r in rows {
                visit(self, r);
            }
        }
    }

    /// Enumerates the active domain `D₀` for slots no step binds (the
    /// grounding's leftover-variable enumeration).
    fn fill(&mut self, j: usize) {
        let Some(&slot) = self.plan.fill.get(j) else {
            self.leaf();
            return;
        };
        for k in 0..self.ctx.adom.len() {
            self.slots[slot] = self.ctx.adom[k];
            self.fill(j + 1);
        }
        self.slots[slot] = UNBOUND;
    }

    fn leaf(&mut self) {
        // Deferred wildcard checks: the matched row's column must equal
        // the now-evaluable key-function term.
        for (si, col, t) in &self.plan.post_checks {
            let expected = eval_cterm(t, &self.slots, self.ctx.interner)
                .and_then(|ev| ev_to_id(ev, self.ctx.interner));
            let actual = self.row_keys[*si].map(|key| key[*col]);
            if expected.is_none() || expected != actual {
                return;
            }
        }
        if !eval_cformula(&self.plan.condition, &self.slots, self.ctx) {
            return;
        }
        let mut acc = self.plan.coeff.clone().unwrap_or_else(P::one);
        for fi in 0..self.plan.nfactors {
            let Some(v) = self.values[fi] else { return };
            let v = match &self.plan.factor_funcs[fi] {
                Some(func) => func.apply(v),
                None => v.clone(),
            };
            acc = acc.mul(&v);
            if acc.is_zero() {
                return; // 0 absorbs on naturally ordered semirings
            }
        }
        // Assemble the head key. The all-interned case (every program
        // without head key functions) stays on the flat `u32` path — one
        // key per emission, so it lives on the stack like the probe key;
        // a computed cell outside the interned domain upgrades the key
        // to `HeadVal`s and routes through `emit_fresh`.
        let mut key = [0u32; MAX_ARITY];
        let mut fresh: Option<Vec<HeadVal>> = None;
        for (i, h) in self.plan.head_cols.iter().enumerate() {
            let hv = match h {
                HeadOp::Slot(s) => HeadVal::Id(self.slots[*s]),
                HeadOp::Const(id) => HeadVal::Id(*id),
                HeadOp::Computed(t) => {
                    // Unevaluable head terms (type mismatch) drop the
                    // derivation, mirroring the grounding's `eval_args`.
                    let Some(ev) = eval_cterm(t, &self.slots, self.ctx.interner) else {
                        return;
                    };
                    match ev_to_id(ev, self.ctx.interner) {
                        Some(id) => HeadVal::Id(id),
                        None => match ev {
                            Ev::Int(i) => HeadVal::Fresh(i),
                            Ev::Id(_) => unreachable!("ids always resolve"),
                        },
                    }
                }
            };
            match (&mut fresh, hv) {
                (None, HeadVal::Id(id)) => key[i] = id,
                (None, hv) => {
                    let mut up: Vec<HeadVal> = key[..i].iter().map(|&id| HeadVal::Id(id)).collect();
                    up.push(hv);
                    fresh = Some(up);
                }
                (Some(up), hv) => up.push(hv),
            }
        }
        match fresh {
            None => {
                self.counters.emits += 1;
                (self.emit)(&key[..self.plan.head_cols.len()], acc)
            }
            Some(up) => {
                self.counters.fresh_emits += 1;
                (self.emit_fresh)(&up, acc)
            }
        }
    }
}
