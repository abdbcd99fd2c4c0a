//! The evaluation drivers: the [`Schedule`] argument, the two full
//! entry points, and the naïve and semi-naïve round loops over compiled
//! plans — shared by from-scratch runs and by every
//! [`crate::Materialization`] build and edit.
//!
//! The semi-naïve loop is the relation-level reading of Theorem 6.5
//! (its outcomes and step counts agree with the grounded reference,
//! `dlo_core::seminaive_eval`):
//!
//! ```text
//! J(1) ← F(0);  δ(0) ← J(1)
//! repeat:  contrib ← ⊕_{rules, sum-products, k} plan_k(new, δ, old)
//!          δ'(t) ← contrib ⊖ J(t)   (pointwise on supports)
//!          J(t+1) ← J(t) ⊕ contrib
//! until δ = 0
//! ```
//!
//! One thread runs the fixpoint: every round's plans run in order on
//! the calling thread (`run_plans_inline`), `⊕`-merging into one
//! accumulator per head predicate that is drained in sorted key order,
//! so results are deterministic. Threads only build the EDB indexes
//! before the first round (`Engine::build_edb_indexes`; [`crate`]'s
//! parallelism section has the readings that decided it).
//!
//! ## Head-computed keys and dynamic interning
//!
//! Key functions in rule heads (`W(i+1) :- W(i) ⊗ V(i+1)`, Sec. 4.5)
//! derive constants that may not exist in the interner when plans are
//! compiled. The interner is frozen while a phase's plans run, so
//! the executor emits such cells as [`HeadVal::Fresh`] integers into a
//! per-IDB *fresh accumulator* (an ordered map, for determinism); the
//! drivers mint ids for them **between** phases, in sorted key order,
//! and only then insert the rows. A row minted at
//! iteration `t` is therefore first *visible* to joins at `t + 1`, which
//! is exactly the semi-naïve contract: minted rows enter `new`, `δ`, and
//! the `changed` map as ordinary appends, and every index on those
//! relations is maintained incrementally by the insert itself. Body-side
//! key functions never mint: a result the interner does not know cannot
//! match any stored row.

use crate::exec::{run_plan, EvalCtx, ExecCounters, HeadVal, Scratch};
use crate::govern::{abort_error, CancelToken, Checkpoint, EvalBudget, EvalError, Governor};
use crate::hash::FxHashMap;
use crate::intern::Interner;
use crate::output::{AbortedEval, InternedOutcome, InternedOutput, PartialOutput, SettledMark};
use crate::par;
use crate::plan::{compile_demand, CompileError, CompiledProgram, Plan, Source};
use crate::storage::{probes_full_key, AccumMap, ColMask, ColumnRel};
use crate::telemetry::{Collector, TraceHandle, PLAN_CLOCK_ALL_FROM_ROWS};
use dlo_core::ast::Program;
use dlo_core::eval::stats::{Counters, EvalStats};
use dlo_core::ground::domain;
use dlo_core::relation::{BoolDatabase, Database};
use dlo_pops::{Bool, CompleteDistributiveDioid, NaturallyOrdered, Pops, PreSemiring};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Per-run settings of the engine drivers: how many threads build the
/// EDB indexes, where trace events go, and when a run must stop. A run
/// that completes returns the same result under any of them.
/// [`Default`] is right for production use.
#[derive(Clone, Debug)]
pub struct EngineOpts {
    /// Worker-thread cap of the EDB index builds, the one thing the
    /// engine fans out (the fixpoint itself runs on the calling
    /// thread); `None` reads `DLO_ENGINE_THREADS` /
    /// `available_parallelism`.
    pub threads: Option<usize>,
    /// Structured trace sink for this run. `None` falls back to the
    /// `DLO_TRACE` environment variable (a JSONL path, appended to);
    /// unset there too means tracing is off. Tracing never changes
    /// results — only the timing fields of the returned stats.
    pub trace: Option<TraceHandle>,
    /// Resource ceilings for the run (wall-clock deadline, step /
    /// emitted-row / minted-id budgets), checked once per phase on the
    /// coordinating thread. The default is unlimited — ungoverned runs
    /// pay nothing. An exhausted ceiling returns the matching
    /// [`EvalError`] variant carrying the stats accumulated so far.
    pub budget: EvalBudget,
    /// Cooperative cancellation: clone a [`CancelToken`], hand one copy
    /// here, and flip the other from any thread; the run stops at its
    /// next phase boundary with [`EvalError::Cancelled`]. `None` (the
    /// default) skips the poll entirely.
    pub cancel: Option<CancelToken>,
}

impl Default for EngineOpts {
    fn default() -> Self {
        EngineOpts {
            threads: None,
            trace: None,
            budget: EvalBudget::unlimited(),
            cancel: None,
        }
    }
}

impl EngineOpts {
    pub(crate) fn effective_threads(&self) -> usize {
        self.threads.unwrap_or_else(par::max_threads).max(1)
    }
}

/// Per-IDB head accumulators for one iteration. [`AccumMap`] packs keys
/// of width ≤ 2 into `u64`s — the same trick the row maps and indexes in
/// [`crate::storage`] use — so the per-derivation `⊕`-merge is an
/// inline-integer hash with no per-key allocation (the boxed-slice maps
/// this replaces were the semi-naïve loop's last unpacked hot path).
pub(crate) type Accum<P> = Vec<AccumMap<P>>;

/// Per-IDB accumulators for head keys containing not-yet-interned
/// constants. `BTreeMap` so draining (and with it id minting) is
/// deterministic without a separate sort.
pub(crate) type FreshAccum<P> = Vec<BTreeMap<Box<[HeadVal]>, P>>;

/// The compiled program plus interned, indexed inputs (shared with the
/// frontier drivers in [`crate::worklist`]).
pub(crate) struct Engine<P> {
    pub(crate) interner: Interner,
    pub(crate) compiled: CompiledProgram<P>,
    pub(crate) pops_edb: Vec<Option<ColumnRel<P>>>,
    pub(crate) bool_edb: Vec<Option<ColumnRel<Bool>>>,
    /// `D₀` — the EDB's constants and the program's
    /// ([`dlo_core::ground::domain`]) — as ids in constant order: what
    /// the executor's fill enumerates for a slot no join step binds,
    /// as the grounded reference does. Filled in by [`setup`] only when
    /// some plan has such a slot ([`Engine::fills`]), empty otherwise.
    pub(crate) adom: Vec<u32>,
    /// Index masks needed on each IDB's `new` storage (serves both the
    /// `New` and `Old` sources). This and the three lists below are the
    /// engine's whole probe plumbing, filled once by [`setup`]
    /// ([`Engine::require_probes`]) with what the seed plans and the Δ
    /// family probe, the same under every schedule. Every place that
    /// builds a relation — [`Run::prepare`], the round loops, a
    /// [`crate::Materialization`]'s staging and marking — ensures exactly
    /// these; the standing relations keep them through every edit.
    pub(crate) idb_new_masks: Vec<Vec<ColMask>>,
    /// Index masks needed on each IDB's per-iteration delta (or staged
    /// frontier batch).
    pub(crate) idb_delta_masks: Vec<Vec<ColMask>>,
    /// Index masks needed on each `pops_edb` slot, built by
    /// [`Engine::build_edb_indexes`] — deferred so the builds can fan
    /// out over the worker pool once the caller knows its thread count.
    pub(crate) pops_masks: Vec<Vec<ColMask>>,
    /// Index masks needed on each `bool_edb` slot.
    pub(crate) bool_masks: Vec<Vec<ColMask>>,
    /// The part of [`setup`] spent in the bulk loader ([`load_db`]),
    /// reported as [`PhaseNanos::load`](dlo_core::eval::stats::PhaseNanos)
    /// by the run [`Run::open`] starts next. A
    /// [`crate::Materialization`] zeroes it after its build: edits load
    /// nothing.
    pub(crate) load_ns: u64,
}

/// The three semi-naïve IDB states (shared with the incremental
/// maintenance driver in [`crate::incremental`], which keeps one alive
/// across edits).
pub(crate) struct IdbState<P> {
    pub(crate) new: Vec<ColumnRel<P>>,
    pub(crate) changed: Vec<FxHashMap<u32, Option<P>>>,
    pub(crate) delta: Vec<ColumnRel<P>>,
}

/// Loads every relation of `db`, in the database's own (name) order —
/// the order constants get their ids in. Relations the program turns
/// out not to read are loaded all the same: their constants belong to
/// the interned domain, and which relations are read is only known once
/// the program is compiled, which has to come after (program constants
/// are numbered after the EDB's).
///
/// A classic `Relation` checks tuple lengths in debug builds only, so a
/// ragged tuple is input to reject, by name, not an invariant to assert.
fn load_db<'a, P: Pops>(
    db: &'a Database<P>,
    interner: &mut Interner,
) -> Result<BTreeMap<&'a str, ColumnRel<P>>, EvalError> {
    let mut loaded = BTreeMap::new();
    for (name, rel) in db.iter() {
        let rows = interner.try_load_relation(rel).map_err(|tuple| {
            let (arity, found) = (rel.arity(), tuple.len());
            let detail = format!(
                "EDB relation {name:?} has arity {arity} but holds {tuple:?}, of arity {found}"
            );
            EvalError::Compile { detail }
        })?;
        loaded.insert(name.as_str(), rows);
    }
    Ok(loaded)
}

/// Loads the EDB and compiles `program` — the setup every entry point
/// and every [`crate::Materialization`] build starts from. The load is
/// one pass per classic relation ([`Interner::load_relation`]), `P`
/// relations first, Boolean relations after, program constants last:
/// that order fixes every constant id and every EDB row id.
///
/// `interner` is where the numbering starts: empty for a fresh run, a
/// handle's own interner when [`crate::Materialization::rebuild`]
/// re-derives its fixpoint, so ids minted before the rebuild keep
/// their meaning.
///
/// Compiler rejections come back as [`EvalError::Compile`] (see
/// [`compile_error`]), and so does an EDB relation holding a tuple of
/// the wrong length ([`load_db`]).
pub(crate) fn setup<P: Pops>(
    program: &Program<P>,
    mut interner: Interner,
    pops_db: &Database<P>,
    bool_db: &BoolDatabase,
    set_valued: &[String],
) -> Result<Engine<P>, EvalError> {
    let t_load = Instant::now();
    let mut pops_loaded = load_db(pops_db, &mut interner)?;
    let mut bool_loaded = load_db(bool_db, &mut interner)?;
    let load_ns = t_load.elapsed().as_nanos() as u64;
    let compiled = compile_demand(program, &mut interner, set_valued).map_err(compile_error)?;
    let pops_edb: Vec<Option<ColumnRel<P>>> = compiled
        .pops_edbs
        .iter()
        .map(|name| pops_loaded.remove(name.as_str()))
        .collect();
    let bool_edb: Vec<Option<ColumnRel<Bool>>> = compiled
        .bool_edbs
        .iter()
        .map(|name| bool_loaded.remove(name.as_str()))
        .collect();

    let nidb = compiled.idbs.len();
    let reqs = compiled.index_requirements();
    let mut engine = Engine {
        interner,
        adom: vec![],
        idb_new_masks: vec![vec![]; nidb],
        idb_delta_masks: vec![vec![]; nidb],
        pops_masks: vec![vec![]; pops_edb.len()],
        bool_masks: vec![vec![]; bool_edb.len()],
        compiled,
        pops_edb,
        bool_edb,
        load_ns,
    };
    engine.require_probes(&reqs);
    if engine.fills() {
        let d0 = domain(program, pops_db, bool_db);
        engine.adom = d0.iter().map(|c| engine.interner.intern(c)).collect();
    }
    Ok(engine)
}

/// Renders a compiler rejection into the typed error every entry point
/// returns. The two structural limits of columnar storage (arity > 32,
/// one head predicate at two arities) land here; there is no slower
/// backend to fall back to any more — the engine is total over the
/// language, and programs outside these representation limits are
/// malformed for every backend.
pub(crate) fn compile_error(e: CompileError) -> EvalError {
    EvalError::Compile {
        detail: format!("dlo_engine cannot represent this program in columnar storage: {e:?}"),
    }
}

impl<P: Pops> Engine<P> {
    /// Whether some compiled plan has a slot no join step binds — the
    /// only reader of [`Engine::adom`].
    pub(crate) fn fills(&self) -> bool {
        let compiled = &self.compiled;
        let mut plans = compiled.seed_plans.iter().chain(&compiled.delta_plans);
        plans.any(|plan| !plan.fill.is_empty())
    }

    /// Folds `(source, mask)` probe requirements into the per-relation
    /// mask lists (`Old` reads share `New`'s storage). A full-key probe
    /// of an IDB's standing state asks for nothing: the executor answers
    /// it from the relation's row map (`storage::probes_full_key`).
    /// Nothing is built here: call before [`Run::prepare`].
    pub(crate) fn require_probes(&mut self, reqs: &[(Source, ColMask)]) {
        for &(source, mask) in reqs {
            let masks = match source {
                Source::PopsEdb(i) => &mut self.pops_masks[i],
                Source::BoolEdb(i) => &mut self.bool_masks[i],
                Source::IdbNew(i) | Source::IdbOld(i) => {
                    if probes_full_key(self.compiled.idbs[i].1, mask) {
                        continue;
                    }
                    &mut self.idb_new_masks[i]
                }
                Source::IdbDelta(i) => &mut self.idb_delta_masks[i],
            };
            if !masks.contains(&mask) {
                masks.push(mask);
            }
        }
    }

    pub(crate) fn empty_idbs(&self) -> Vec<ColumnRel<P>> {
        self.compiled
            .idbs
            .iter()
            .map(|(_, arity)| ColumnRel::new(*arity))
            .collect()
    }

    /// The empty IDB state every from-scratch run and every
    /// [`crate::Materialization`] build starts from (probe structures
    /// are ensured by [`Run::prepare`]).
    pub(crate) fn empty_state(&self) -> IdbState<P> {
        IdbState {
            new: self.empty_idbs(),
            changed: vec![FxHashMap::default(); self.compiled.idbs.len()],
            delta: self.empty_idbs(),
        }
    }

    /// Fresh per-IDB head accumulators, one per predicate at its arity.
    fn empty_accums(&self) -> Accum<P> {
        self.compiled
            .idbs
            .iter()
            .map(|(_, arity)| AccumMap::new(*arity))
            .collect()
    }

    /// Everything a plan run reads, over the IDB state in `state`.
    fn ctx<'a>(&'a self, state: &'a IdbState<P>) -> EvalCtx<'a, P> {
        EvalCtx {
            interner: &self.interner,
            adom: &self.adom,
            pops_edb: &self.pops_edb,
            bool_edb: &self.bool_edb,
            idb_new: &state.new,
            idb_changed: &state.changed,
            idb_delta: &state.delta,
        }
    }
}

impl<P: Pops + Send> Engine<P> {
    /// Builds every EDB-side index the engine's mask lists name
    /// ([`Engine::require_probes`]), fanning per-relation builds over
    /// `threads` scoped workers. Builds are independent per relation
    /// and each index's content is insertion-order determined, so
    /// parallel construction is observation-equivalent to a sequential
    /// loop. A panic in a build is contained by the pool and surfaced
    /// as [`EvalError::WorkerPanic`].
    pub(crate) fn build_edb_indexes(&mut self, threads: usize) -> Result<bool, EvalError> {
        enum Work<'a, P> {
            Pops(&'a mut ColumnRel<P>, &'a [ColMask]),
            Bool(&'a mut ColumnRel<Bool>, &'a [ColMask]),
        }
        let mut work: Vec<Work<'_, P>> = vec![];
        for (rel, masks) in self.pops_edb.iter_mut().zip(&self.pops_masks) {
            if let Some(rel) = rel.as_mut() {
                if !masks.is_empty() {
                    work.push(Work::Pops(rel, masks));
                }
            }
        }
        for (rel, masks) in self.bool_edb.iter_mut().zip(&self.bool_masks) {
            if let Some(rel) = rel.as_mut() {
                if !masks.is_empty() {
                    work.push(Work::Bool(rel, masks));
                }
            }
        }
        // The interner's rank table, ranked once for every loaded
        // relation that searches its rows as they lie.
        let rank = OnceLock::new();
        let rank = || Arc::clone(rank.get_or_init(|| Arc::from(self.interner.rank_table())));
        let sorted = AtomicBool::new(false);
        par::run_each(work, threads, |w| {
            let rank: &dyn Fn() -> Arc<[u32]> = &rank;
            let any = match w {
                Work::Pops(rel, masks) => ensure_probes(rel, masks, Some(rank)),
                Work::Bool(rel, masks) => ensure_probes(rel, masks, Some(rank)),
            };
            sorted.fetch_or(any, Ordering::Relaxed);
        })
        .map_err(|message| EvalError::WorkerPanic {
            message,
            stats: Box::default(),
        })?;
        Ok(sorted.into_inner())
    }
}

/// Ensures every probe structure in `masks` on `rel`
/// ([`ColumnRel::ensure_probe`], handed `rank`), reporting whether any
/// of them was a sorted run — only a bulk-loaded EDB relation wider
/// than a packed key gets one, so only [`Engine::build_edb_indexes`]
/// hands over a rank table or reads the answer.
pub(crate) fn ensure_probes<P: Pops>(
    rel: &mut ColumnRel<P>,
    masks: &[u32],
    rank: Option<&dyn Fn() -> Arc<[u32]>>,
) -> bool {
    let mut sorted = false;
    for &mask in masks {
        sorted |= rel.ensure_probe(mask, rank);
    }
    sorted
}

/// Consumes a finished engine into the decode-free output handle.
pub(crate) fn finish<P: Pops>(engine: Engine<P>, rels: Vec<ColumnRel<P>>) -> InternedOutput<P> {
    InternedOutput::new(engine.interner, engine.compiled.idbs, rels)
}

/// Why a round loop stopped short of its fixpoint.
pub(crate) enum LoopFail {
    /// Governed interruption or contained worker panic, at the
    /// checkpoint granularity that caught it, after `steps` steps.
    Abort {
        error: EvalError,
        checkpoint: Checkpoint,
        steps: usize,
    },
    /// Step-cap overrun after this many steps.
    Diverged(usize),
}

impl LoopFail {
    /// Tags a governed stop with where the loop was when it fired.
    pub(crate) fn at(checkpoint: Checkpoint, steps: usize) -> impl FnOnce(EvalError) -> LoopFail {
        move |error| LoopFail::Abort {
            error,
            checkpoint,
            steps,
        }
    }
}

/// One governed run over a prepared [`Engine`]: the stats collector,
/// the governor, the settled-row marking, the eval stopwatch, and the
/// buffers its plans and rounds work in — opened once per from-scratch
/// evaluation and once per [`crate::Materialization`] build or edit, so
/// every loop is governed and accounted for the same way.
pub(crate) struct Run<P> {
    pub(crate) col: Collector,
    gov: Governor,
    /// Rows known final at any point of the run: marked on pop by the
    /// priority frontier, empty (best effort) everywhere else.
    pub(crate) settled: SettledMark,
    /// The plan runner's buffers, lent to every plan the run fires.
    pub(crate) scratch: Scratch,
    /// A round's head accumulators and fresh-key buffers
    /// ([`run_round`]), kept like `scratch`: made by the run's first
    /// round, filled by each round and drained by its landing, so a warm
    /// round allocates nothing (and a frontier run none of it).
    pub(crate) round: (Accum<P>, FreshAccum<P>),
    /// The Δ relations the next semi-naïve round reads, made by the
    /// first advance ([`apply_contrib`]): cleared, filled and swapped
    /// with [`IdbState::delta`], so the two sets keep their capacity and
    /// their registered probe masks between rounds.
    pub(crate) next_delta: Vec<ColumnRel<P>>,
    t_eval: Instant,
}

impl<P: Pops> Run<P> {
    /// Starts collection and governance under the stats label `label`.
    /// `settles_on_pop` says whether the loop marks rows final as it
    /// goes (the priority frontier) or settles nothing before
    /// convergence. `setup_ns` is the caller-measured time already
    /// spent (load and compile, or staging an edit): it is recorded
    /// as the setup phase and backdated into the governor's deadline;
    /// the load inside it is `engine.load_ns`.
    pub(crate) fn open(
        engine: &Engine<P>,
        label: &str,
        settles_on_pop: bool,
        opts: &EngineOpts,
        setup_ns: u64,
    ) -> Run<P> {
        let nidb = engine.compiled.idbs.len();
        Run {
            col: Collector::new(
                label,
                opts.effective_threads(),
                setup_ns,
                engine.load_ns,
                engine.compiled.plan_metas(),
                opts,
            ),
            gov: Governor::new(opts, setup_ns),
            settled: if settles_on_pop {
                SettledMark::exact_empty(nidb)
            } else {
                SettledMark::best_effort(nidb)
            },
            scratch: Scratch::default(),
            round: (vec![], vec![]),
            next_delta: vec![],
            t_eval: Instant::now(),
        }
    }

    /// One governance checkpoint after `steps` completed steps.
    #[inline]
    pub(crate) fn check(&mut self, steps: usize, checkpoint: Checkpoint) -> Result<(), LoopFail> {
        self.gov
            .check(steps as u64, &mut self.col)
            .map_err(LoopFail::at(checkpoint, steps))
    }

    /// The from-empty prelude: a pre-index checkpoint (a cancelled or
    /// already-over-deadline run stops before paying for the EDB index
    /// build), the EDB index build, and the probe structures of the
    /// empty IDB state, all from the engine's mask lists
    /// ([`Engine::require_probes`]). The masks on `state.delta` are what
    /// a frontier stages its batches under — ensured once, since
    /// [`ColumnRel::clear`] keeps them registered; the round loops swap
    /// it with the run's `next_delta` every round and ensure them on
    /// whichever set comes in.
    /// The eval stopwatch restarts after the index build.
    pub(crate) fn prepare(
        &mut self,
        engine: &mut Engine<P>,
        state: &mut IdbState<P>,
        opts: &EngineOpts,
    ) -> Result<(), LoopFail>
    where
        P: Send,
    {
        self.check(0, Checkpoint::Phase)?;
        let t = Instant::now();
        let sorted = engine
            .build_edb_indexes(opts.effective_threads())
            .map_err(LoopFail::at(Checkpoint::Phase, 0))?;
        // One stopwatch over builds that may run side by side: the
        // phase goes to the `arrange` leg whole when any of them was a
        // bulk sort (hash builds beside it ride along), to `edb_index`
        // otherwise. Timing only — results never depend on it.
        self.col.index_phase(sorted, t.elapsed().as_nanos() as u64);
        self.t_eval = Instant::now();
        for (rel, masks) in state.new.iter_mut().zip(&engine.idb_new_masks) {
            ensure_probes(rel, masks, None);
        }
        ensure_delta_indexes(engine, state);
        Ok(())
    }

    /// Completes the stats of a run that ended after `steps` steps.
    pub(crate) fn finish(self, steps: usize, converged: bool) -> EvalStats {
        let eval_ns = self.t_eval.elapsed().as_nanos() as u64;
        self.col.finish(steps, converged, eval_ns)
    }

    /// Turns a failed loop into the typed error — the abort tail of
    /// [`abort_error`] (trace event, completed stats) for governed
    /// stops, [`EvalError::Diverged`] for a cap overrun (an error only
    /// to a [`crate::Materialization`]: [`Run::drive`] reports
    /// `Ok(Diverged)` instead) — and hands back the run's settled
    /// marking for the partial that rides with it.
    pub(crate) fn fail(self, cap: usize, fail: LoopFail) -> (EvalError, SettledMark) {
        let eval_ns = self.t_eval.elapsed().as_nanos() as u64;
        let error = match fail {
            LoopFail::Abort {
                error,
                checkpoint,
                steps,
            } => {
                let settled_rows = self.settled.settled_rows();
                abort_error(error, checkpoint, settled_rows, self.col, steps, eval_ns)
            }
            LoopFail::Diverged(steps) => EvalError::Diverged {
                cap,
                diagnostic: format!(
                    "maintenance did not converge within {cap} steps: the program diverges on the edited EDB"
                ),
                stats: Box::new(self.col.finish(steps, false, eval_ns)),
            },
        };
        (error, self.settled)
    }

    /// A whole from-scratch evaluation: the prelude, then `schedule`
    /// resumed from the empty state with every full plan as seed, then
    /// the outcome.
    /// Hitting the cap is `Ok(Diverged)`; a governed abort returns the
    /// boxed [`AbortedEval`] — the typed error with the abort-time IDB
    /// state and the run's settled marking attached as a
    /// [`PartialOutput`], both carrying the same completed stats.
    pub(crate) fn drive<S: Rounds<P>>(
        mut self,
        mut engine: Engine<P>,
        cap: usize,
        opts: &EngineOpts,
        schedule: S,
    ) -> Result<InternedOutcome<P>, Box<AbortedEval<P>>>
    where
        P: Send,
    {
        let mut state = engine.empty_state();
        // From the empty state every full plan seeds. The lists move
        // out of the engine: the loop borrows it mutably, to mint.
        let seed = std::mem::take(&mut engine.compiled.seed_plans);
        let delta = std::mem::take(&mut engine.compiled.delta_plans);
        let plans = RoundPlans {
            full: &seed,
            seed: &seed,
            seed_rows: 0,
            delta: &delta,
        };
        let result = self
            .prepare(&mut engine, &mut state, opts)
            .and_then(|()| schedule.resume(&mut engine, &mut state, &plans, cap, &mut self, 0));
        match result {
            Ok(steps) => Ok(InternedOutcome::Converged {
                stats: self.finish(steps, true),
                output: finish(engine, state.new),
                steps,
            }),
            Err(LoopFail::Diverged(_)) => Ok(InternedOutcome::Diverged {
                stats: self.finish(cap, false),
                last: finish(engine, state.new),
                cap,
            }),
            Err(fail) => {
                let (error, settled) = self.fail(cap, fail);
                let stats = error.stats().cloned().unwrap_or_default();
                let partial = PartialOutput::new(finish(engine, state.new), settled, stats);
                Err(Box::new(AbortedEval::new(error, partial)))
            }
        }
    }
}

/// Wraps a pre-run failure (a compile rejection) into the error channel
/// of the entry points: no evaluation ever started, so the attached partial is empty (no
/// predicates, no rows, nothing settled).
pub(crate) fn empty_aborted<P: Pops>(error: EvalError) -> Box<AbortedEval<P>> {
    let partial = PartialOutput::new(
        InternedOutput::new(Interner::new(), vec![], vec![]),
        SettledMark::best_effort(0),
        EvalStats::default(),
    );
    Box::new(AbortedEval::new(error, partial))
}

pub(crate) fn merge_fresh<P: PreSemiring>(
    map: &mut BTreeMap<Box<[HeadVal]>, P>,
    key: &[HeadVal],
    v: P,
) {
    match map.get_mut(key) {
        Some(g) => *g = g.add(&v),
        None => {
            map.insert(key.into(), v);
        }
    }
}

/// Resolves a fresh head key into a fully interned row, minting ids for
/// integers first derived by a head key function this iteration.
///
/// Distinct fresh keys always mint to distinct rows: `Fresh` cells map
/// injectively to brand-new ids (they were not interned when the phase
/// ran) and `Id` cells predate the phase, so a minted row can collide
/// neither with another minted row nor with any row already stored.
fn mint_key(interner: &mut Interner, key: &[HeadVal]) -> Vec<u32> {
    key.iter()
        .map(|hv| match hv {
            HeadVal::Id(id) => *id,
            HeadVal::Fresh(i) => interner.intern_int(*i),
        })
        .collect()
}

/// Runs `plans` in order on the calling thread — the one plan runner
/// behind every schedule: the naïve and semi-naïve rounds and the DRed
/// marking rounds ([`run_round`]) and every frontier batch
/// ([`crate::worklist`]). A plan's interned emissions land in its head
/// predicate's entry of `sinks` through `land` ([`AccumMap::merge`] for
/// the rounds, an ordered buffer for the frontier), its fresh head keys
/// in `fresh`, its counters in `run`'s collector; every plan works in
/// `run`'s buffers, so a warm run allocates nothing. One unwind guard
/// covers the list: the first panicking plan stops it, every earlier
/// plan already accounted, and surfaces as [`EvalError::WorkerPanic`].
///
/// `rows` is the size of the step's driving Δ (a round's Δ rows, a
/// batch's rows): from [`PLAN_CLOCK_ALL_FROM_ROWS`] on, every plan run
/// is timed; below it, one run of each plan in
/// [`crate::PLAN_CLOCK_PERIOD`] ([`Collector::plan_clock`]).
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_plans_inline<'p, P: Pops, S>(
    engine: &Engine<P>,
    state: &IdbState<P>,
    plans: impl IntoIterator<Item = &'p Plan<P>>,
    sinks: &mut [S],
    land: impl Fn(&mut S, &[u32], P),
    fresh: &mut [BTreeMap<Box<[HeadVal]>, P>],
    rows: u64,
    run: &mut Run<P>,
) -> Result<(), EvalError> {
    let ctx = engine.ctx(state);
    let whole = rows >= PLAN_CLOCK_ALL_FROM_ROWS;
    catch_unwind(AssertUnwindSafe(|| {
        for plan in plans {
            let sink = &mut sinks[plan.head_pred];
            let facc = &mut fresh[plan.head_pred];
            let mut counters = ExecCounters::default();
            let clock = run.col.plan_clock(plan.pid, whole);
            run_plan(
                plan,
                &ctx,
                &mut run.scratch,
                &mut counters,
                |key, v| land(sink, key, v),
                |key, v| merge_fresh(facc, key, v),
            );
            run.col.add_plan(plan.pid, counters, whole, clock);
        }
    }))
    .map_err(|p| EvalError::WorkerPanic {
        message: par::payload_message(p),
        stats: Box::default(),
    })
}

/// One global round: runs `plans` into the run's per-IDB accumulators
/// (`run.round`, left empty by the last round's landing), each emission
/// `⊕`-merged once into its head predicate's [`AccumMap`]; `rows` is
/// the round's driving Δ ([`run_plans_inline`]). A round skips the Δ
/// family's [`Plan::frontier_only`] splits: their sum-product's
/// whole-recompute plan is in the list beside them. The caller drains
/// `run.round` — the naïve and semi-naïve rounds through [`land`], the
/// delete's marking rounds by hand — before the next round.
pub(crate) fn run_round<P: Pops>(
    engine: &Engine<P>,
    plans: &[Plan<P>],
    state: &IdbState<P>,
    rows: u64,
    run: &mut Run<P>,
) -> Result<(), EvalError> {
    let nidb = engine.compiled.idbs.len();
    if run.round.0.len() != nidb {
        run.round = (engine.empty_accums(), vec![BTreeMap::new(); nidb]);
    }
    let (mut contrib, mut fresh) = std::mem::take(&mut run.round);
    let ran = run_plans_inline(
        engine,
        state,
        plans.iter().filter(|plan| !plan.frontier_only),
        &mut contrib,
        AccumMap::merge,
        &mut fresh,
        rows,
        run,
    );
    run.round = (contrib, fresh);
    ran
}

mod sealed {
    use super::*;

    /// What a [`Schedule`](super::Schedule) does, kept out of the public
    /// interface: the trait is sealed, so soundness stays a matter of
    /// which impls exist and what they are bounded over. The methods
    /// take crate-private types, so nothing outside the crate can call
    /// them — hence the `private_interfaces` allowances on the impls.
    #[allow(private_interfaces)]
    pub trait Rounds<P: Pops>: Sized {
        /// Suffix of the `incremental-*` stats labels of a
        /// [`crate::Materialization`] maintained under this schedule.
        const MAINTENANCE_SUFFIX: &'static str;

        /// The stats label of a from-scratch run, and whether its loop
        /// marks rows final as it pops them (the priority frontier: the
        /// run's settled marking is then exact).
        fn label(self) -> (&'static str, bool);

        /// The schedule's loop: continues from the pre-fixpoint in
        /// `state` to the least fixpoint above it, numbering steps from
        /// `start`, and returns the step count it reports. From the
        /// empty state with every full plan as seed, that is a
        /// from-scratch run ([`evaluate`]); from a standing fixpoint, a
        /// [`crate::Materialization`] edit.
        fn resume(
            self,
            engine: &mut Engine<P>,
            state: &mut IdbState<P>,
            plans: &RoundPlans<'_, P>,
            cap: usize,
            run: &mut Run<P>,
            start: usize,
        ) -> Result<usize, LoopFail>;
    }
}
pub(crate) use sealed::Rounds;

/// A licensed way to iterate to the least fixpoint, passed to every
/// entry point and to [`crate::Materialization::new`] as a value.
/// Which schedules exist for a POPS `P` is decided by trait bounds, so
/// an unsound pair does not type-check:
///
/// * [`Naive`] — any `P: NaturallyOrdered` (Algorithm 1);
/// * [`SemiNaive`] — `+ CompleteDistributiveDioid` (Theorem 6.5);
/// * [`crate::Strategy`] — the runtime choice between the semi-naïve
///   rounds and the two frontiers, for the totally ordered absorptive
///   dioids that license all of them (Cor. 5.19).
///
/// A schedule is only a loop. Every entry point runs it from the empty
/// state, and a [`crate::Materialization`] built under it resumes the
/// same loop from its standing fixpoint, so a handle reports the step
/// counts a from-scratch run reports. Which rows a delete marks is the
/// POPS's to say ([`dlo_pops::Pops::ABSORPTIVE_CHAIN`]), not the
/// schedule's.
///
/// The trait is sealed: these three are the only implementations.
pub trait Schedule<P: Pops>: Rounds<P> + Copy {}
impl<P: Pops, S: Rounds<P> + Copy> Schedule<P> for S {}

/// The naïve schedule `J(t+1) = F(J(t))`, every IDB occurrence reading
/// the new state — all that is licensed without `⊖`. Agrees with
/// the grounded `naive_eval_sparse` step for step, including programs whose
/// heads apply key functions (fresh constants are minted into the
/// interner between iterations). A [`crate::Materialization`] under it
/// re-runs these rounds from its standing state after every edit.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Naive;

/// The semi-naïve schedule of Theorem 6.5. Agrees with the grounded
/// `seminaive_eval` — same fixpoint, same step count, the
/// iteration that finds δ empty included — while running interned and
/// indexed. A [`crate::Materialization`] under it seeds the same rounds
/// with each edit's differential, and over an absorptive chain its
/// deletes mark the attaining cone, as [`crate::Strategy::SemiNaive`]'s
/// do.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SemiNaive;

/// The plans a loop may run: the program's from the empty state
/// ([`Run::drive`]), an edit's for a maintenance continuation.
pub(crate) struct RoundPlans<'a, P> {
    /// The program's full-application plans (what naïve rounds re-run).
    pub(crate) full: &'a [Plan<P>],
    /// What the seed round of the semi-naïve rounds or of a frontier
    /// folds in: every full plan at a build, the `@dlt` variants at an
    /// insert, the affected heads' plans after a
    /// retraction.
    pub(crate) seed: &'a [Plan<P>],
    /// Edit rows driving the seed round (its `delta_rows` stats cell).
    pub(crate) seed_rows: u64,
    /// The Δ family — the rounds' delta plans and the frontiers' batch
    /// plans (a [`crate::Materialization`] passes the original rules').
    pub(crate) delta: &'a [Plan<P>],
}

#[allow(private_interfaces)]
impl<P: NaturallyOrdered + Send + Sync> Rounds<P> for Naive {
    const MAINTENANCE_SUFFIX: &'static str = "-naive";

    fn label(self) -> (&'static str, bool) {
        ("naive", false)
    }

    fn resume(
        self,
        engine: &mut Engine<P>,
        state: &mut IdbState<P>,
        plans: &RoundPlans<'_, P>,
        cap: usize,
        run: &mut Run<P>,
        start: usize,
    ) -> Result<usize, LoopFail> {
        // Naïve steps recompute full sums, so the differential seed
        // plans stay out: they would double-count.
        naive_rounds(engine, state, plans.full, cap, run, start)
    }
}

#[allow(private_interfaces)]
impl<P> Rounds<P> for SemiNaive
where
    P: NaturallyOrdered + CompleteDistributiveDioid + Send + Sync,
{
    const MAINTENANCE_SUFFIX: &'static str = "";

    fn label(self) -> (&'static str, bool) {
        ("seminaive", false)
    }

    fn resume(
        self,
        engine: &mut Engine<P>,
        state: &mut IdbState<P>,
        plans: &RoundPlans<'_, P>,
        cap: usize,
        run: &mut Run<P>,
        start: usize,
    ) -> Result<usize, LoopFail> {
        seminaive_rounds(engine, state, plans, cap, run, start)
    }
}

/// Evaluates `program` under `schedule`, returning the **decode-free**
/// [`InternedOutcome`]: the fixpoint stays interned (ids + interner
/// handle) and the rank-sorted `Database` build is deferred to
/// [`InternedOutcome::materialize`] — on 500k-row outputs that build is
/// the largest single phase of a run, and pipelines feeding results
/// back into the engine never need it.
///
/// Hitting the iteration cap is **not** an error: it returns `Ok` with
/// [`InternedOutcome::Diverged`].
///
/// # Errors
///
/// Every failure is a boxed [`AbortedEval`]: the typed [`EvalError`]
/// (`?` converts it) plus the [`PartialOutput`] captured at the stop.
/// [`EvalError::Compile`] — programs the columnar storage cannot
/// represent (an atom of arity > 32, one head predicate at two
/// arities) — carries an empty partial; the budget / deadline /
/// cancellation / worker-panic variants of governed options carry the
/// abort-time instance, exact on its settled rows under the priority
/// frontier and a pointwise lower bound of the least fixpoint
/// otherwise.
pub fn engine_eval_interned<P, S>(
    program: &Program<P>,
    pops_edb: &Database<P>,
    bool_edb: &BoolDatabase,
    cap: usize,
    schedule: S,
    opts: &EngineOpts,
) -> Result<InternedOutcome<P>, Box<AbortedEval<P>>>
where
    P: Pops + Send,
    S: Schedule<P>,
{
    let t = Instant::now();
    evaluate(t, program, pops_edb, bool_edb, &[], cap, schedule, opts)
}

/// The one way in behind every entry point: [`setup`] (everything since
/// `started` counts as setup time), then the schedule's loop from the
/// empty state ([`Run::drive`]).
#[allow(clippy::too_many_arguments)]
pub(crate) fn evaluate<P: Pops + Send, S: Schedule<P>>(
    started: Instant,
    program: &Program<P>,
    pops_db: &Database<P>,
    bool_db: &BoolDatabase,
    set_valued: &[String],
    cap: usize,
    schedule: S,
    opts: &EngineOpts,
) -> Result<InternedOutcome<P>, Box<AbortedEval<P>>> {
    let engine =
        setup(program, Interner::new(), pops_db, bool_db, set_valued).map_err(empty_aborted)?;
    let (label, settles_on_pop) = schedule.label();
    let setup_ns = started.elapsed().as_nanos() as u64;
    let run = Run::open(&engine, label, settles_on_pop, opts, setup_ns);
    run.drive(engine, cap, opts, schedule)
}

/// Naïve rounds `J ↦ F(J)` over `plans` from the state in `state`, to
/// fixpoint. From the empty state that is Algorithm 1; from any other
/// pre-fixpoint (the old state after an insert, the survivors after a
/// retraction) it converges to the least fixpoint above it. Steps are
/// numbered from `start`; returns the step that found the fixpoint,
/// the first round that changed no row.
///
/// Each round computes `F(J)` whole, then lands it **in place**
/// ([`land`]): a new key is inserted, a changed value overwritten, an
/// equal one absorbed. That is `J ↦ F(J)` because every start is a
/// pre-fixpoint — the empty state, the old fixpoint under an insert's
/// grown operator, a delete's survivors with its cone at `0` — so
/// `F(J) ⊒ J` pointwise, at every round after too (`F` is monotone): no
/// row of `J` is missing from `F(J)` unless it is `0`, and no landed
/// value lowers a row.
pub(crate) fn naive_rounds<P: NaturallyOrdered>(
    engine: &mut Engine<P>,
    state: &mut IdbState<P>,
    plans: &[Plan<P>],
    cap: usize,
    run: &mut Run<P>,
    start: usize,
) -> Result<usize, LoopFail> {
    let mut steps = start;
    loop {
        run.check(steps, Checkpoint::Iteration)?;
        let before = run.col.stats.counters;
        // A naïve round reads the whole state: its Δ is every row but
        // the tombstones.
        let rows = state.new.iter().map(|rel| rel.support_size() as u64).sum();
        run_round(engine, plans, state, rows, run)
            .map_err(LoopFail::at(Checkpoint::Iteration, steps))?;
        let (new, phase, col) = (&mut state.new, &mut run.round, &mut run.col);
        land(engine, new, phase, col, |_, _, _, old, v| {
            debug_assert!(
                old.is_none_or(|old| old.leq(&v)),
                "naïve rounds start at a pre-fixpoint"
            );
            (old != Some(&v)).then_some(v)
        });
        let c = &run.col.stats.counters;
        let fixed =
            c.rows_inserted + c.rows_improved == before.rows_inserted + before.rows_improved;
        run.col.end_step(steps, 0, 0, &before);
        if fixed {
            return Ok(steps);
        }
        if steps >= cap {
            return Err(LoopFail::Diverged(steps));
        }
        steps += 1;
    }
}

/// Semi-naïve rounds (Theorem 6.5) from the state in `state`: a seed
/// round folds the contributions of `plans.seed` in through the advance
/// ([`apply_contrib`]) as step `start`, then `plans.delta` rounds run
/// until every delta drains. From the empty state with the full plans
/// as seed that is `J(1) = F(0)`, `δ(0) = J(1)`; a maintenance edit
/// seeds the same loop from its differential instead. The returned
/// count includes the iteration that finds δ empty, one past the last
/// round's step number, as the grounded `seminaive_eval` counts it.
pub(crate) fn seminaive_rounds<P>(
    engine: &mut Engine<P>,
    state: &mut IdbState<P>,
    plans: &RoundPlans<'_, P>,
    cap: usize,
    run: &mut Run<P>,
    start: usize,
) -> Result<usize, LoopFail>
where
    P: NaturallyOrdered + CompleteDistributiveDioid,
{
    let mut steps = start;
    let mut round = (plans.seed, plans.seed_rows, Checkpoint::Phase);
    loop {
        let (round_plans, delta_rows, checkpoint) = round;
        run.check(steps, checkpoint)?;
        let before = run.col.stats.counters;
        run_round(engine, round_plans, state, delta_rows, run)
            .map_err(LoopFail::at(checkpoint, steps))?;
        apply_contrib(engine, state, run);
        run.col.end_step(steps, delta_rows, 0, &before);
        if steps >= cap {
            return Err(LoopFail::Diverged(steps));
        }
        if state.delta.iter().all(|d| d.is_empty()) {
            return Ok(steps + 1);
        }
        steps += 1;
        let delta_rows = state.delta.iter().map(|d| d.len() as u64).sum();
        round = (plans.delta, delta_rows, Checkpoint::Iteration);
    }
}

/// The semi-naïve **advance**: lands the round's accumulated
/// contributions (`run.round`) in the IDB state ([`land`]) —
/// `δ' = contrib ⊖ new` (pointwise on supports), `new' = new ⊕ contrib`
/// — and leaves `state.delta` holding the next iteration's indexed
/// delta — every round of [`seminaive_rounds`], seed round included. δ'
/// is written into the run's cleared `next_delta`, which then trades
/// places with the Δ just read.
pub(crate) fn apply_contrib<P>(engine: &mut Engine<P>, state: &mut IdbState<P>, run: &mut Run<P>)
where
    P: NaturallyOrdered + CompleteDistributiveDioid,
{
    if run.next_delta.len() != state.delta.len() {
        run.next_delta = engine.empty_idbs();
    }
    let (phase, col, next_delta) = (&mut run.round, &mut run.col, &mut run.next_delta);
    for rel in next_delta.iter_mut() {
        rel.clear();
    }
    for ch in &mut state.changed {
        ch.clear();
    }
    let (zero, new, changed) = (P::zero(), &mut state.new, &mut state.changed);
    land(engine, new, phase, col, |pred, key, r, old, v| {
        let diff = v.minus(old.unwrap_or(&zero));
        if diff.is_zero() {
            return None;
        }
        next_delta[pred].append_row(key, diff);
        changed[pred].insert(r, old.cloned());
        Some(old.map(|old| old.add(&v)).unwrap_or(v))
    });
    std::mem::swap(&mut state.delta, next_delta);
    ensure_delta_indexes(engine, state);
}

/// A phase's buffered emissions, per head predicate: the rounds'
/// accumulators, a frontier's ordered buffers.
pub(crate) trait Emissions<P> {
    /// Hands every emission to `land` as `(pred, key, value)`, in the
    /// order the loop lands them, and leaves the buffers empty.
    fn drain(&mut self, land: impl FnMut(usize, &[u32], P));
}

impl<P: PreSemiring> Emissions<P> for Accum<P> {
    /// Predicate by predicate, each in ascending key order
    /// ([`AccumMap::drain_sorted`]); the maps keep their capacity.
    fn drain(&mut self, mut land: impl FnMut(usize, &[u32], P)) {
        for (pred, acc) in self.iter_mut().enumerate() {
            acc.drain_sorted(|key, v| land(pred, key, v));
        }
    }
}

/// The one landing step every loop's rows go through — the naïve
/// rounds, the semi-naïve advance, a frontier batch. It lands a phase's
/// interned emissions, then its fresh keys, in `new`, and each loop
/// passes only its
/// `rule`: handed `(pred, key, row, stored, value)`, it returns the
/// value to store, or `None` to absorb ([`ColumnRel::land`]). The step
/// owns what the loops share:
///
/// * a set-valued (magic) row is inserted at `1` once — demand is a
///   set, whatever `⊕`-sum the plans accumulated — and every later
///   emission to it is a `set_valued_shortcircuits`, `rule` unasked;
/// * fresh head keys are minted between phases, in the sorted order of
///   their accumulators (`mint_key`), and land like any other key: the
///   clock is read only when there are some;
/// * each landing is counted once: `rows_inserted` when the row enters
///   the support (absent, or at `0` — a delete's zeroed row coming
///   back), `rows_improved` when a row of the support rises,
///   `merges_absorbed` when `rule` declines.
#[inline(always)]
pub(crate) fn land<P: Pops>(
    engine: &mut Engine<P>,
    new: &mut [ColumnRel<P>],
    (emitted, fresh): &mut (impl Emissions<P>, FreshAccum<P>),
    col: &mut Collector,
    mut rule: impl FnMut(usize, &[u32], u32, Option<&P>, P) -> Option<P>,
) {
    let (interner, set_valued) = (&mut engine.interner, &engine.compiled.set_valued);
    let c = &mut col.stats.counters;
    emitted.drain(|pred, key, v| land_row(new, set_valued, pred, key, v, c, &mut rule));
    if fresh.iter().all(BTreeMap::is_empty) {
        return;
    }
    let t_mint = Instant::now();
    let minted_before = interner.len();
    for (pred, facc) in fresh.iter_mut().enumerate() {
        while let Some((key, v)) = facc.pop_first() {
            let key = mint_key(interner, &key);
            land_row(new, set_valued, pred, &key, v, c, &mut rule);
        }
    }
    c.minted_ids += (interner.len() - minted_before) as u64;
    col.stats.phases.mint += t_mint.elapsed().as_nanos() as u64;
}

/// [`land`] for one emission.
#[inline(always)]
fn land_row<P: Pops>(
    new: &mut [ColumnRel<P>],
    set_valued: &[bool],
    pred: usize,
    key: &[u32],
    v: P,
    c: &mut Counters,
    rule: &mut impl FnMut(usize, &[u32], u32, Option<&P>, P) -> Option<P>,
) {
    let (set_valued, mut present, mut held) = (set_valued[pred], false, false);
    let (_, stored) = new[pred].land(key, |r, old| {
        present = old.is_some();
        held = old.is_some_and(|old| !old.is_zero());
        match (set_valued, present) {
            (true, true) => None,
            (true, false) => rule(pred, key, r, None, P::one()),
            (false, _) => rule(pred, key, r, old, v),
        }
    });
    if stored && held {
        c.rows_improved += 1;
    } else if stored {
        c.rows_inserted += 1;
    } else if set_valued && present {
        c.set_valued_shortcircuits += 1;
    } else {
        c.merges_absorbed += 1;
    }
}

/// Ensures the per-iteration delta's probe structures.
pub(crate) fn ensure_delta_indexes<P: Pops>(engine: &Engine<P>, state: &mut IdbState<P>) {
    for (pred, rel) in state.delta.iter_mut().enumerate() {
        ensure_probes(rel, &engine.idb_delta_masks[pred], None);
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use dlo_core::eval::naive::naive_eval_sparse;
    use dlo_core::eval::EvalOutcome;
    use dlo_core::relation::Relation;
    use dlo_core::tup;
    use dlo_pops::{MinNat, Trop};

    /// Evaluates under `schedule` with default options and decodes —
    /// shared by the other modules' unit tests.
    pub(crate) fn eval<P: Pops + Send, S: Schedule<P>>(
        program: &Program<P>,
        pops: &Database<P>,
        bools: &BoolDatabase,
        cap: usize,
        schedule: S,
    ) -> EvalOutcome<P> {
        engine_eval_interned(program, pops, bools, cap, schedule, &EngineOpts::default())
            .expect("compiles")
            .materialize()
    }

    #[test]
    fn divergence_is_detected() {
        use dlo_core::ast::{Atom, Factor, SumProduct, Term};
        use dlo_pops::Nat;
        let mut p = Program::<Nat>::new();
        p.rule(
            Atom::new("X", vec![Term::c("u")]),
            vec![
                SumProduct::new(vec![]).with_coeff(Nat(1)),
                SumProduct::new(vec![Factor::atom("X", vec![Term::c("u")])]).with_coeff(Nat(2)),
            ],
        );
        assert!(!engine_eval_interned(
            &p,
            &Database::new(),
            &BoolDatabase::new(),
            30,
            Naive,
            &EngineOpts::default()
        )
        .expect("capped divergence is Ok(Diverged), not an error")
        .is_converged());
    }

    #[test]
    fn head_key_functions_mint_fresh_constants() {
        use dlo_core::ast::{Atom, Factor, KeyFn, SumProduct, Term};
        use dlo_core::formula::{CmpOp, Formula};
        // A counter that names rows the EDB never mentions:
        //   N(0)   :- $1.
        //   N(I+1) :- N(I) | I < 5.
        // Keys 1..4 exist in no relation and no program constant — they
        // are minted by the dynamic interner during the fixpoint.
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
        let (pops, bools) = (Database::new(), BoolDatabase::new());
        let reference = naive_eval_sparse(&p, &pops, &bools, 100).unwrap();
        let naive = eval(&p, &pops, &bools, 100, Naive).unwrap();
        let out = eval(&p, &pops, &bools, 100, SemiNaive).unwrap();
        assert_eq!(reference, naive, "engine naive differs");
        assert_eq!(reference, out, "engine semi-naive differs");
        let n = out.get("N").unwrap();
        assert_eq!(n.support_size(), 6, "keys 0..=5");
        for i in 0..=5i64 {
            assert_eq!(n.get(&tup![i]), MinNat::finite(1), "N({i})");
        }
    }

    #[test]
    fn float_sums_are_deterministic_across_runs() {
        use dlo_core::ast::{Atom, Factor, SumProduct, Term};
        use dlo_pops::NNReal;
        // ℝ₊'s ⊕ is f64 addition — not exactly associative — so result
        // stability requires deterministic accumulation order. A DAG
        // with many parallel paths and non-dyadic weights makes any
        // order wobble visible in the low bits.
        let mut p = Program::<NNReal>::new();
        p.rule(
            Atom::new("T", vec![Term::v(0), Term::v(1)]),
            vec![
                SumProduct::new(vec![Factor::atom("S", vec![Term::v(0), Term::v(1)])]),
                SumProduct::new(vec![
                    Factor::atom("T", vec![Term::v(0), Term::v(2)]),
                    Factor::atom("S", vec![Term::v(2), Term::v(1)]),
                ]),
            ],
        );
        let mut edb = Database::new();
        let mut pairs = vec![];
        for (layer, names) in [("a", "b"), ("b", "c"), ("c", "d")].iter().enumerate() {
            for i in 0..6i64 {
                pairs.push((
                    vec![format!("{}{i}", names.0).as_str().into(), names.1.into()],
                    NNReal::of(0.1 + 0.3 * (layer as f64) + 0.7 * (i as f64) / 11.0),
                ));
                pairs.push((
                    vec![names.0.into(), format!("{}{i}", names.0).as_str().into()],
                    NNReal::of(0.3 / (1.0 + i as f64)),
                ));
            }
        }
        edb.insert("S", Relation::from_pairs(2, pairs));
        let bools = BoolDatabase::new();
        let first = eval(&p, &edb, &bools, 1000, Naive).unwrap();
        for _ in 0..5 {
            let again = eval(&p, &edb, &bools, 1000, Naive).unwrap();
            assert_eq!(first, again, "engine result varied across runs");
        }
    }

    #[test]
    fn empty_program_converges_immediately() {
        let p = Program::<Trop>::new();
        let out = eval(&p, &Database::new(), &BoolDatabase::new(), 10, SemiNaive);
        let (db, steps) = out.converged().unwrap();
        assert_eq!(steps, 1);
        assert!(db.iter().next().is_none());
    }
}
