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
//! Each loop runs its rounds' plans in order on its own thread
//! (`run_plans_inline`), `⊕`-merging into one accumulator per head
//! predicate that is drained in sorted key order, so results are
//! deterministic. Threads load the EDB (a large relation in parts,
//! `load_db`) and build its indexes (`Engine::build_edb_indexes`)
//! before the first round, and run the shards of a decomposable
//! fixpoint (`Run::shards`): after its seed step, a from-scratch run
//! of a program whose rows split by a shard column
//! ([`CompiledProgram::shard_cols`]) runs one whole loop per shard of
//! the rows, a constant number of shards at any thread count
//! (`Shards`), and concatenates their relations ([`crate`]'s
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
use crate::intern::{Interner, LoadError};
use crate::output::{AbortedEval, InternedOutcome, InternedOutput, PartialOutput, SettledMark};
use crate::par;
use crate::plan::{compile_demand, CompileError, CompiledProgram, Plan, Source};
use crate::storage::{probes_full_key, AccumMap, ColMask, ColumnRel};
use crate::telemetry::{add_step, Collector, TraceHandle, PLAN_CLOCK_ALL_FROM_ROWS};
use crate::worklist::Queue;
use dlo_core::ast::Program;
use dlo_core::eval::stats::{Counters, EvalStats, IterStat};
use dlo_core::ground::domain;
use dlo_core::relation::{BoolDatabase, Database};
use dlo_pops::{Bool, CompleteDistributiveDioid, NaturallyOrdered, Pops, PreSemiring};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Per-run settings of the engine drivers: how many threads load the
/// EDB and build its indexes, where trace events go, and when a run
/// must stop. A run
/// that completes returns the same result under any of them.
/// [`Default`] is right for production use.
#[derive(Clone, Debug)]
pub struct EngineOpts {
    /// Worker-thread cap of the three things the engine fans out: the
    /// load of a large EDB relation, in up to this many parts, the EDB
    /// index builds, and the shards of a decomposable fixpoint (how
    /// many of them run at once — never how many there are); `Some(1)`
    /// runs each in sequence. `None` reads `DLO_ENGINE_THREADS` /
    /// `available_parallelism`.
    pub threads: Option<usize>,
    /// Structured trace sink for this run. `None` falls back to the
    /// `DLO_TRACE` environment variable (a JSONL path, appended to);
    /// unset there too means tracing is off. Tracing never changes
    /// results — only the timing fields of the returned stats.
    pub trace: Option<TraceHandle>,
    /// Resource ceilings for the run (wall-clock deadline, step /
    /// emitted-row / minted-id budgets), checked once per phase by the
    /// loop that runs it; a step or row ceiling keeps a decomposable
    /// fixpoint one loop. The default is unlimited — ungoverned runs
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
/// frontier drivers in [`crate::worklist`]): what every loop reads and
/// none writes, so the shards of a run share one. The interner that
/// gives the ids meaning stays beside it ([`Ids`]), as the one thing a
/// loop writes besides its IDB state.
pub(crate) struct Engine<P> {
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
/// the order constants get their ids in — each on up to `threads`
/// workers ([`Interner::try_load_relation`]: a large relation is
/// interned in parts, with the ids of the one-part pass). Relations the
/// program turns out not to read are loaded all the same: their
/// constants belong to the interned domain, and which relations are
/// read is only known once the program is compiled, which has to come
/// after (program constants are numbered after the EDB's).
///
/// A classic `Relation` checks tuple lengths in debug builds only, so a
/// ragged tuple is input to reject, by name, not an invariant to
/// assert. A panicking part comes back as [`EvalError::WorkerPanic`],
/// like a panicking index build.
fn load_db<'a, P: Pops>(
    db: &'a Database<P>,
    interner: &mut Interner,
    threads: usize,
) -> Result<BTreeMap<&'a str, ColumnRel<P>>, EvalError> {
    let mut loaded = BTreeMap::new();
    for (name, rel) in db.iter() {
        let rows = interner
            .try_load_relation(rel, threads)
            .map_err(|error| match error {
                LoadError::Ragged(tuple) => {
                    let (arity, found) = (rel.arity(), tuple.len());
                    let detail = format!(
                        "EDB relation {name:?} has arity {arity} but holds {tuple:?}, of arity {found}"
                    );
                    EvalError::Compile { detail }
                }
                LoadError::Panic(message) => EvalError::WorkerPanic {
                    message,
                    stats: Box::default(),
                },
            })?;
        loaded.insert(name.as_str(), rows);
    }
    Ok(loaded)
}

/// Loads the EDB and compiles `program` — the setup every entry point
/// and every [`crate::Materialization`] build starts from. The load is
/// one pass per classic relation ([`Interner::load_relation`]; in parts
/// on up to `threads` workers when a relation is large), `P` relations
/// first, Boolean relations after, program constants last: that order
/// fixes every constant id and every EDB row id, at any thread count.
///
/// `interner` is where the numbering starts: empty for a fresh run, a
/// handle's own interner when [`crate::Materialization::rebuild`]
/// re-derives its fixpoint, so ids minted before the rebuild keep
/// their meaning; it ends holding every EDB and program constant.
///
/// Compiler rejections come back as [`EvalError::Compile`] (see
/// [`compile_error`]), and so does an EDB relation holding a tuple of
/// the wrong length ([`load_db`]).
pub(crate) fn setup<P: Pops>(
    program: &Program<P>,
    interner: &mut Interner,
    pops_db: &Database<P>,
    bool_db: &BoolDatabase,
    set_valued: &[String],
    threads: usize,
) -> Result<Engine<P>, EvalError> {
    let t_load = Instant::now();
    let mut pops_loaded = load_db(pops_db, interner, threads)?;
    let mut bool_loaded = load_db(bool_db, interner, threads)?;
    let load_ns = t_load.elapsed().as_nanos() as u64;
    let compiled = compile_demand(program, interner, set_valued).map_err(compile_error)?;
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
        engine.adom = d0.iter().map(|c| interner.intern(c)).collect();
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
    fn ctx<'a>(&'a self, interner: &'a Interner, state: &'a IdbState<P>) -> EvalCtx<'a, P> {
        EvalCtx {
            interner,
            adom: &self.adom,
            pops_edb: &self.pops_edb,
            bool_edb: &self.bool_edb,
            idb_new: &state.new,
            idb_changed: &state.changed,
            idb_delta: &state.delta,
        }
    }

    /// Builds every EDB-side index the engine's mask lists name
    /// ([`Engine::require_probes`]), fanning per-relation builds over
    /// `threads` scoped workers. Builds are independent per relation
    /// and each index's content is insertion-order determined, so
    /// parallel construction is observation-equivalent to a sequential
    /// loop. A panic in a build is contained by the pool and surfaced
    /// as [`EvalError::WorkerPanic`].
    pub(crate) fn build_edb_indexes(
        &mut self,
        interner: &Interner,
        threads: usize,
    ) -> Result<bool, EvalError> {
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
        let rank = || Arc::clone(rank.get_or_init(|| Arc::from(interner.rank_table())));
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
pub(crate) fn finish<P: Pops>(
    engine: Engine<P>,
    interner: Interner,
    rels: Vec<ColumnRel<P>>,
) -> InternedOutput<P> {
    InternedOutput::new(interner, engine.compiled.idbs, rels)
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

/// The interner a loop's plans read constants through and its landing
/// mints head-computed keys into ([`land`]): the run's own, or — in a
/// shard ([`Run::shards`]) — the run's, shared read-only. A program that
/// runs in shards has no head key function
/// ([`CompiledProgram::shard_cols`]), so a shard never mints.
pub(crate) enum Ids<'a> {
    /// The run's interner.
    Own(&'a mut Interner),
    /// The run's interner, read by every shard at once.
    Shared(&'a Interner),
}

impl Ids<'_> {
    /// The constants a plan run reads.
    pub(crate) fn get(&self) -> &Interner {
        match self {
            Ids::Own(interner) => interner,
            Ids::Shared(interner) => interner,
        }
    }

    /// Where minted ids go.
    fn mint(&mut self) -> &mut Interner {
        match self {
            Ids::Own(interner) => interner,
            Ids::Shared(_) => unreachable!("a shard's program has no head key function"),
        }
    }
}

/// One governed run over a prepared [`Engine`]: the stats collector,
/// the governor, the settled-row marking, the eval stopwatch, and the
/// buffers its plans and rounds work in — opened once per from-scratch
/// evaluation and once per [`crate::Materialization`] build or edit, so
/// every loop is governed and accounted for the same way. A shard of a
/// run is a run of its own ([`Run::shards`]) under the same governor.
pub(crate) struct Run<P> {
    pub(crate) col: Collector,
    gov: Arc<Governor>,
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
            gov: Arc::new(Governor::new(opts, setup_ns)),
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
        interner: &Interner,
        state: &mut IdbState<P>,
        opts: &EngineOpts,
    ) -> Result<(), LoopFail> {
        self.check(0, Checkpoint::Phase)?;
        let t = Instant::now();
        let sorted = engine
            .build_edb_indexes(interner, opts.effective_threads())
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
    /// from the empty state with every full plan as seed — its seed
    /// step, then the rest of its loop, in `shards` where the program
    /// decomposes and the seed landed enough rows ([`Run::shards`]) —
    /// then the outcome.
    /// Hitting the cap is `Ok(Diverged)`; a governed abort returns the
    /// boxed [`AbortedEval`] — the typed error with the abort-time IDB
    /// state and the run's settled marking attached as a
    /// [`PartialOutput`], both carrying the same completed stats.
    pub(crate) fn drive<S: Rounds<P>>(
        mut self,
        mut engine: Engine<P>,
        mut interner: Interner,
        cap: usize,
        opts: &EngineOpts,
        schedule: S,
        shards: Shards,
    ) -> Result<InternedOutcome<P>, Box<AbortedEval<P>>> {
        let mut state = engine.empty_state();
        // From the empty state every full plan seeds. The lists move
        // out of the engine, which the loops share read-only.
        let seed = std::mem::take(&mut engine.compiled.seed_plans);
        let delta = std::mem::take(&mut engine.compiled.delta_plans);
        let plans = RoundPlans {
            full: &seed,
            seed: &seed,
            seed_rows: 0,
            delta: &delta,
        };
        let result = self
            .prepare(&mut engine, &interner, &mut state, opts)
            .and_then(|()| {
                let (engine, ids) = (&engine, &mut Ids::Own(&mut interner));
                let mut queue = schedule.seed(engine, ids, &mut state, &plans, &mut self, 0)?;
                let sharded = S::SHARDS && !opts.budget.counts_work();
                let count = shards.count(engine, &state, &plans, sharded);
                if count == 1 {
                    return schedule.drain(
                        engine, ids, &mut state, &mut queue, &plans, cap, &mut self, 0,
                    );
                }
                let threads = opts.effective_threads();
                let interner = ids.get();
                self.shards(
                    engine, interner, &mut state, queue, &plans, cap, schedule, count, threads,
                )
            });
        match result {
            Ok(steps) => Ok(InternedOutcome::Converged {
                stats: self.finish(steps, true),
                output: finish(engine, interner, state.new),
                steps,
            }),
            Err(LoopFail::Diverged(_)) => Ok(InternedOutcome::Diverged {
                stats: self.finish(cap, false),
                last: finish(engine, interner, state.new),
                cap,
            }),
            Err(fail) => {
                let (error, settled) = self.fail(cap, fail);
                let stats = error.stats().cloned().unwrap_or_default();
                let output = finish(engine, interner, state.new);
                let partial = PartialOutput::new(output, settled, stats);
                Err(Box::new(AbortedEval::new(error, partial)))
            }
        }
    }

    /// The rest of a from-scratch loop after its seed step 0, in
    /// `count` shards on up to `threads` threads: the rows the seed
    /// landed, and the queue entries naming them, move to shard
    /// `h(id in the predicate's shard column) mod count`
    /// ([`split_state`]); each shard runs the schedule's loop
    /// ([`Rounds::drain`]) as a run of its own — its own buffers,
    /// accumulators, Δ, queue, settled marking and collector, this
    /// run's governor — against the one engine and interner, read-only,
    /// over [`par::run_each`] (shard 0 on the calling thread); then the
    /// shards' relations are concatenated in shard order into
    /// `state.new`, and their settled marks, counters, plan tallies and
    /// step rows merged into this run's ([`Rounds::merge`]).
    ///
    /// No rule connects two shards' rows ([`CompiledProgram::shard_cols`]),
    /// so each emission is merged once, in its own shard, and a shard's
    /// loop meets its rows in the order the one-shard loop does: values,
    /// counters and steps are those of one shard, and `count` — a
    /// constant, never the thread count — fixes row order and plan-clock
    /// samples, so threads only decide how many shards run at once.
    #[allow(clippy::too_many_arguments)]
    fn shards<S: Rounds<P>>(
        &mut self,
        engine: &Engine<P>,
        interner: &Interner,
        state: &mut IdbState<P>,
        queue: Queue<P>,
        plans: &RoundPlans<'_, P>,
        cap: usize,
        schedule: S,
        count: usize,
        threads: usize,
    ) -> Result<usize, LoopFail> {
        let whole = std::mem::replace(state, engine.empty_state());
        let (parts, route) = split_state(engine, whole, count);
        let queues = schedule.split(queue, &route, count);
        drop(route);
        struct Shard<P, Q> {
            run: Run<P>,
            state: IdbState<P>,
            queue: Q,
            result: Option<Result<usize, LoopFail>>,
        }
        let mut shards: Vec<Shard<P, Queue<P>>> = parts
            .into_iter()
            .zip(queues)
            .map(|(state, queue)| Shard {
                run: self.shard(engine),
                state,
                queue,
                result: None,
            })
            .collect();
        let panicked = par::run_each(shards.iter_mut().collect(), threads, |shard| {
            let Shard {
                run,
                state,
                queue,
                result,
            } = shard;
            let ids = &mut Ids::Shared(interner);
            *result = Some(schedule.drain(engine, ids, state, queue, plans, cap, run, 0));
        })
        .err();

        let mut parts: Vec<Vec<ColumnRel<P>>> = state.new.iter().map(|_| vec![]).collect();
        let (mut logs, mut failed) = (Vec::with_capacity(count), None);
        for shard in shards {
            let Shard {
                run,
                state: part,
                queue,
                result,
            } = shard;
            let offsets: Vec<u32> = parts
                .iter()
                .map(|rels| rels.iter().map(|rel| rel.len() as u32).sum())
                .collect();
            self.settled.append(run.settled, &offsets);
            logs.push((queue, self.col.absorb(run.col)));
            for (rels, rel) in parts.iter_mut().zip(part.new) {
                rels.push(rel);
            }
            // The first abort in shard order, else the first overrun.
            if let Some(Err(fail)) = result {
                let abort = matches!(fail, LoopFail::Abort { .. });
                if failed.is_none() || abort && matches!(failed, Some(LoopFail::Diverged(_))) {
                    failed = Some(fail);
                }
            }
        }
        state.new = parts.into_iter().map(ColumnRel::concat).collect();
        self.col.stats.shards = count as u64;
        let (steps, rows) = schedule.merge(logs, 0);
        for row in rows {
            self.col.push_step(row);
        }
        let failed = match panicked {
            Some(message) => {
                let stats = Box::default();
                let error = EvalError::WorkerPanic { message, stats };
                Some(LoopFail::at(Checkpoint::Phase, steps)(error))
            }
            None => failed,
        };
        match failed {
            Some(LoopFail::Abort {
                error, checkpoint, ..
            }) => Err(LoopFail::Abort {
                error,
                checkpoint,
                steps,
            }),
            // Each shard counts its own batches, so the cap is judged on
            // the merged count.
            Some(LoopFail::Diverged(_)) => Err(LoopFail::Diverged(steps)),
            None if steps > cap => Err(LoopFail::Diverged(steps)),
            None => Ok(steps),
        }
    }

    /// A run of one shard of this one ([`Run::shards`]): fresh buffers
    /// and marking, a collector that keeps its step rows for the merge
    /// and streams nothing, and this run's governor.
    fn shard(&self, engine: &Engine<P>) -> Run<P> {
        let nidb = engine.compiled.idbs.len();
        Run {
            col: self.col.shard(),
            gov: Arc::clone(&self.gov),
            settled: match self.settled.is_exact() {
                true => SettledMark::exact_empty(nidb),
                false => SettledMark::best_effort(nidb),
            },
            scratch: Scratch::default(),
            round: (vec![], vec![]),
            next_delta: vec![],
            t_eval: Instant::now(),
        }
    }
}

/// How many shards a decomposable fixpoint from the empty state runs
/// in, and from how many rows landed by its seed step on ([`Run::drive`];
/// [`Shards::DEFAULT`] behind every entry point).
#[derive(Clone, Copy, Debug)]
pub(crate) struct Shards {
    /// Shards, whatever the thread count: it fixes row ids, counters
    /// and the plan clock's samples.
    pub(crate) count: usize,
    /// Rows the seed must land before the loop splits.
    pub(crate) min_rows: usize,
}

impl Shards {
    /// What every entry point runs with, from sweeps on a shared 2-core
    /// host.
    ///
    /// `count` 2. `apsp-dense` (seed 1, 3 s runs of `dlo_benchmark`)
    /// read `op_median_s` 0.076–0.086 s at 2 shards, 0.081–0.084 at 4,
    /// 0.088–0.091 at 8 and 0.081–0.084 at 16, against 0.112–0.125 in
    /// one; `peak_rss_mb` 52.1, 53.3, 55.4 and 54.5 against 49.0: the
    /// bytes are the one-shard run's (49.1 under
    /// `GLIBC_TUNABLES=glibc.malloc.arena_max=1`), the rest is what
    /// the worker thread's allocator arena keeps, which grows with the
    /// shards it runs. Two shards also keep a closure's rows dense
    /// enough for a direct-addressed row map (`storage::row_map_dense`).
    ///
    /// `min_rows` 512. On random APSP graphs of `4n` edges (medians of
    /// 31 runs, both schedules) 2 shards read 1.35–1.68× one shard at 57
    /// seed rows (the threads and buffers of a split are ≈ 0.1 ms),
    /// 0.70–1.2× at 123 and 251 rows — the host's phases move those
    /// runs more than the split does — and 0.57–0.74× from 507 rows on.
    pub(crate) const DEFAULT: Shards = Shards {
        count: 2,
        min_rows: 512,
    };

    /// The shards the rest of a loop runs in after its seed step:
    /// `count` when the program has shard columns, `plans` a Δ family,
    /// the run may shard (`sharded`: the schedule shards and no step or
    /// row ceiling counts the run's work, `EvalBudget::counts_work`)
    /// and the seed landed `min_rows` rows or more; else 1.
    fn count<P: Pops>(
        self,
        engine: &Engine<P>,
        state: &IdbState<P>,
        plans: &RoundPlans<'_, P>,
        sharded: bool,
    ) -> usize {
        let rows: usize = state.new.iter().map(ColumnRel::len).sum();
        let decomposes = engine.compiled.shard_cols.is_some() && !plans.delta.is_empty();
        match sharded && decomposes && rows >= self.min_rows {
            true => self.count.max(1),
            false => 1,
        }
    }
}

/// Per IDB, where each row of a split state went: `(shard, row id)`.
pub(crate) type Route = Vec<Vec<(u32, u32)>>;

/// Which of `count` shards a row goes to whose shard column
/// ([`CompiledProgram::shard_cols`]) holds `id`: a multiplicative hash,
/// so that dense, strided and clustered ids spread alike. A run in `k`
/// shards ([`EvalStats::shards`]) lists each relation's rows shard by
/// shard, in this order.
pub fn shard_of(id: u32, count: usize) -> usize {
    ((u64::from(id).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 32) % count as u64) as usize
}

/// `state`'s rows moved to `count` shards by their id in their
/// predicate's shard column ([`shard_of`]), each shard's relations in
/// the order the rows stood in `state` — so a shard's loop meets its
/// rows as the one-shard loop does — and carrying every probe structure
/// the loops read; the `changed` marks follow their rows. Returns the
/// shards' states and where each row of `state.new` went. No value is
/// cloned.
fn split_state<P: Pops>(
    engine: &Engine<P>,
    state: IdbState<P>,
    count: usize,
) -> (Vec<IdbState<P>>, Route) {
    let cols = engine.compiled.shard_cols.as_deref();
    let cols = cols.expect("a program split into shards has shard columns");
    let mut parts: Vec<IdbState<P>> = (0..count)
        .map(|_| {
            let mut part = engine.empty_state();
            for (rel, masks) in part.new.iter_mut().zip(&engine.idb_new_masks) {
                ensure_probes(rel, masks, None);
            }
            ensure_delta_indexes(engine, &mut part);
            part
        })
        .collect();
    let IdbState {
        new,
        changed,
        delta,
    } = state;
    let mut route: Route = Vec::with_capacity(new.len());
    for (pred, rel) in new.into_iter().enumerate() {
        let (arity, col) = (rel.arity(), cols[pred]);
        let (keys, vals) = rel.into_rows();
        let mut to = Vec::with_capacity(vals.len());
        for (key, v) in keys.chunks_exact(arity).zip(vals) {
            let s = shard_of(key[col], count);
            to.push((s as u32, parts[s].new[pred].insert_row(key, v)));
        }
        route.push(to);
    }
    for (pred, rel) in delta.into_iter().enumerate() {
        let (arity, col) = (rel.arity(), cols[pred]);
        let (keys, vals) = rel.into_rows();
        for (key, v) in keys.chunks_exact(arity).zip(vals) {
            parts[shard_of(key[col], count)].delta[pred].append_row(key, v);
        }
    }
    for (pred, marks) in changed.into_iter().enumerate() {
        for (row, old) in marks {
            let (s, row) = route[pred][row as usize];
            parts[s as usize].changed[pred].insert(row, old);
        }
    }
    (parts, route)
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
/// ([`crate::worklist`]), in one shard or in many ([`Run::shards`]). A
/// plan's interned emissions land in its head
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
    interner: &Interner,
    state: &IdbState<P>,
    plans: impl IntoIterator<Item = &'p Plan<P>>,
    sinks: &mut [S],
    land: impl Fn(&mut S, &[u32], P),
    fresh: &mut [BTreeMap<Box<[HeadVal]>, P>],
    rows: u64,
    run: &mut Run<P>,
) -> Result<(), EvalError> {
    let ctx = engine.ctx(interner, state);
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
    interner: &Interner,
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
        interner,
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
    ///
    /// A schedule's loop is a seed step, then the rest: [`Rounds::seed`]
    /// and [`Rounds::drain`], which [`Rounds::resume`] runs back to
    /// back. A from-scratch run may run the rest in shards
    /// ([`Run::shards`]), each shard its own `drain` from its part of
    /// the state and queue ([`Rounds::split`]), and merges their step
    /// rows as the one loop would have counted them ([`Rounds::merge`]).
    #[allow(private_interfaces)]
    pub trait Rounds<P: Pops>: Sized + Copy + Send + Sync {
        /// Suffix of the `incremental-*` stats labels of a
        /// [`crate::Materialization`] maintained under this schedule.
        const MAINTENANCE_SUFFIX: &'static str;

        /// Whether the rest of a from-scratch loop may run in shards:
        /// every loop's but the naïve rounds', which re-run the full
        /// plans over the whole state each round.
        const SHARDS: bool;

        /// The stats label of a from-scratch run, and whether its loop
        /// marks rows final as it pops them (the priority frontier: the
        /// run's settled marking is then exact).
        fn label(self) -> (&'static str, bool);

        /// The loop's seed step, numbered `start`: folds `plans.seed`
        /// into `state` and returns what the rest of the loop carries
        /// besides the IDB state — a frontier's queue, none for the
        /// rounds.
        fn seed(
            self,
            engine: &Engine<P>,
            ids: &mut Ids<'_>,
            state: &mut IdbState<P>,
            plans: &RoundPlans<'_, P>,
            run: &mut Run<P>,
            start: usize,
        ) -> Result<Queue<P>, LoopFail>;

        /// The rest of the loop after its seed step `start`, to the
        /// least fixpoint; returns the step count it reports.
        #[allow(clippy::too_many_arguments)]
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
        ) -> Result<usize, LoopFail>;

        /// The schedule's loop: continues from the pre-fixpoint in
        /// `state` to the least fixpoint above it, numbering steps from
        /// `start`, and returns the step count it reports. From the
        /// empty state with every full plan as seed, that is a
        /// from-scratch run ([`Run::drive`]); from a standing fixpoint,
        /// a [`crate::Materialization`] edit.
        #[allow(clippy::too_many_arguments)]
        fn resume(
            self,
            engine: &Engine<P>,
            ids: &mut Ids<'_>,
            state: &mut IdbState<P>,
            plans: &RoundPlans<'_, P>,
            cap: usize,
            run: &mut Run<P>,
            start: usize,
        ) -> Result<usize, LoopFail> {
            let mut queue = self.seed(engine, ids, state, plans, run, start)?;
            self.drain(engine, ids, state, &mut queue, plans, cap, run, start)
        }

        /// `queue` split into `count` shards' queues by `route`, the
        /// shards of the state it names ([`split_state`]): the rounds
        /// carry none.
        fn split(self, queue: Queue<P>, route: &Route, count: usize) -> Vec<Queue<P>> {
            debug_assert!(queue.is_none() && !route.is_empty());
            (0..count).map(|_| None).collect()
        }

        /// The step count and step rows of the one-shard loop, merged
        /// from each shard's queue and step rows (in shard order) after
        /// the seed step `start`: the rounds' ([`merge_rounds`]).
        fn merge(
            self,
            shards: Vec<(Queue<P>, Vec<IterStat>)>,
            start: usize,
        ) -> (usize, Vec<IterStat>) {
            merge_rounds(shards.into_iter().map(|(_, rows)| rows), start)
        }
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
impl<P: NaturallyOrdered> Rounds<P> for Naive {
    const MAINTENANCE_SUFFIX: &'static str = "-naive";
    const SHARDS: bool = false;

    fn label(self) -> (&'static str, bool) {
        ("naive", false)
    }

    /// Naïve rounds have no seed step: each recomputes the full sums,
    /// so the differential seed plans stay out — they would
    /// double-count.
    fn seed(
        self,
        _: &Engine<P>,
        _: &mut Ids<'_>,
        _: &mut IdbState<P>,
        _: &RoundPlans<'_, P>,
        _: &mut Run<P>,
        _: usize,
    ) -> Result<Queue<P>, LoopFail> {
        Ok(None)
    }

    fn drain(
        self,
        engine: &Engine<P>,
        ids: &mut Ids<'_>,
        state: &mut IdbState<P>,
        _: &mut Queue<P>,
        plans: &RoundPlans<'_, P>,
        cap: usize,
        run: &mut Run<P>,
        start: usize,
    ) -> Result<usize, LoopFail> {
        naive_rounds(engine, ids, state, plans.full, cap, run, start)
    }
}

#[allow(private_interfaces)]
impl<P> Rounds<P> for SemiNaive
where
    P: NaturallyOrdered + CompleteDistributiveDioid,
{
    const MAINTENANCE_SUFFIX: &'static str = "";
    const SHARDS: bool = true;

    fn label(self) -> (&'static str, bool) {
        ("seminaive", false)
    }

    fn seed(
        self,
        engine: &Engine<P>,
        ids: &mut Ids<'_>,
        state: &mut IdbState<P>,
        plans: &RoundPlans<'_, P>,
        run: &mut Run<P>,
        start: usize,
    ) -> Result<Queue<P>, LoopFail> {
        let (seed, rows) = (plans.seed, plans.seed_rows);
        seminaive_step(
            engine,
            ids,
            state,
            seed,
            rows,
            Checkpoint::Phase,
            start,
            run,
        )?;
        Ok(None)
    }

    fn drain(
        self,
        engine: &Engine<P>,
        ids: &mut Ids<'_>,
        state: &mut IdbState<P>,
        _: &mut Queue<P>,
        plans: &RoundPlans<'_, P>,
        cap: usize,
        run: &mut Run<P>,
        start: usize,
    ) -> Result<usize, LoopFail> {
        seminaive_rounds(engine, ids, state, plans.delta, cap, run, start)
    }
}

/// The step count and rows of semi-naïve rounds run in shards after
/// the seed round `start`: a shard's Δ at round `t` is the one-shard
/// Δ's rows of its groups, so round `t` of the one loop is round `t` of
/// every shard whose Δ was not yet empty — its row sums theirs — and
/// the loop ends with its longest shard, one step past its last round.
pub(crate) fn merge_rounds(
    shards: impl Iterator<Item = Vec<IterStat>>,
    start: usize,
) -> (usize, Vec<IterStat>) {
    let mut merged: Vec<IterStat> = vec![];
    for row in shards.flatten() {
        let i = row.step as usize - start - 1;
        if merged.len() <= i {
            merged.resize(i + 1, IterStat::default());
        }
        add_step(&mut merged[i], &row);
    }
    for (i, row) in merged.iter_mut().enumerate() {
        row.step = (start + 1 + i) as u64;
    }
    (start + 1 + merged.len(), merged)
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
    P: Pops,
    S: Schedule<P>,
{
    let t = Instant::now();
    let shards = Shards::DEFAULT;
    evaluate(
        t,
        program,
        pops_edb,
        bool_edb,
        &[],
        cap,
        schedule,
        opts,
        shards,
    )
}

/// The one way in behind every entry point: [`setup`] (everything since
/// `started` counts as setup time), then the schedule's loop from the
/// empty state ([`Run::drive`]), in `shards` where the program
/// decomposes.
#[allow(clippy::too_many_arguments)]
pub(crate) fn evaluate<P: Pops, S: Schedule<P>>(
    started: Instant,
    program: &Program<P>,
    pops_db: &Database<P>,
    bool_db: &BoolDatabase,
    set_valued: &[String],
    cap: usize,
    schedule: S,
    opts: &EngineOpts,
    shards: Shards,
) -> Result<InternedOutcome<P>, Box<AbortedEval<P>>> {
    let threads = opts.effective_threads();
    let mut interner = Interner::new();
    let engine = setup(
        program,
        &mut interner,
        pops_db,
        bool_db,
        set_valued,
        threads,
    )
    .map_err(empty_aborted)?;
    let (label, settles_on_pop) = schedule.label();
    let setup_ns = started.elapsed().as_nanos() as u64;
    let run = Run::open(&engine, label, settles_on_pop, opts, setup_ns);
    run.drive(engine, interner, cap, opts, schedule, shards)
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
    engine: &Engine<P>,
    ids: &mut Ids<'_>,
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
        run_round(engine, ids.get(), plans, state, rows, run)
            .map_err(LoopFail::at(Checkpoint::Iteration, steps))?;
        let (new, phase, col) = (&mut state.new, &mut run.round, &mut run.col);
        land(engine, ids, new, phase, col, |_, _, _, old, v| {
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

/// One semi-naïve step numbered `step` (Theorem 6.5): the governance
/// checkpoint, one round of `plans` driven by `rows` Δ rows, the
/// advance ([`apply_contrib`]) and the step's stats row. From the
/// empty state with the full plans as seed, the seed step is
/// `J(1) = F(0)`, `δ(0) = J(1)`; a maintenance edit seeds the same
/// loop from its differential instead.
#[allow(clippy::too_many_arguments)]
fn seminaive_step<P>(
    engine: &Engine<P>,
    ids: &mut Ids<'_>,
    state: &mut IdbState<P>,
    plans: &[Plan<P>],
    rows: u64,
    checkpoint: Checkpoint,
    step: usize,
    run: &mut Run<P>,
) -> Result<(), LoopFail>
where
    P: NaturallyOrdered + CompleteDistributiveDioid,
{
    run.check(step, checkpoint)?;
    let before = run.col.stats.counters;
    run_round(engine, ids.get(), plans, state, rows, run)
        .map_err(LoopFail::at(checkpoint, step))?;
    apply_contrib(engine, ids, state, run);
    run.col.end_step(step, rows, 0, &before);
    Ok(())
}

/// The semi-naïve rounds after the seed step `start`: `delta` rounds
/// until every delta drains. The returned count includes the iteration
/// that finds δ empty, one past the last round's step number, as the
/// grounded `seminaive_eval` counts it.
pub(crate) fn seminaive_rounds<P>(
    engine: &Engine<P>,
    ids: &mut Ids<'_>,
    state: &mut IdbState<P>,
    delta: &[Plan<P>],
    cap: usize,
    run: &mut Run<P>,
    start: usize,
) -> Result<usize, LoopFail>
where
    P: NaturallyOrdered + CompleteDistributiveDioid,
{
    let mut steps = start;
    loop {
        if steps >= cap {
            return Err(LoopFail::Diverged(steps));
        }
        if state.delta.iter().all(|d| d.is_empty()) {
            return Ok(steps + 1);
        }
        steps += 1;
        let rows = state.delta.iter().map(|d| d.len() as u64).sum();
        seminaive_step(
            engine,
            ids,
            state,
            delta,
            rows,
            Checkpoint::Iteration,
            steps,
            run,
        )?;
    }
}

/// The semi-naïve **advance**: lands the round's accumulated
/// contributions (`run.round`) in the IDB state ([`land`]) —
/// `δ' = contrib ⊖ new` (pointwise on supports), `new' = new ⊕ contrib`
/// — and leaves `state.delta` holding the next iteration's indexed
/// delta — every step of the rounds, seed step included. δ'
/// is written into the run's cleared `next_delta`, which then trades
/// places with the Δ just read.
pub(crate) fn apply_contrib<P>(
    engine: &Engine<P>,
    ids: &mut Ids<'_>,
    state: &mut IdbState<P>,
    run: &mut Run<P>,
) where
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
    land(engine, ids, new, phase, col, |pred, key, r, old, v| {
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
/// * fresh head keys are minted into `ids` between phases, in the
///   sorted order of their accumulators (`mint_key`), and land like any
///   other key: the clock is read only when there are some;
/// * each landing is counted once: `rows_inserted` when the row enters
///   the support (absent, or at `0` — a delete's zeroed row coming
///   back), `rows_improved` when a row of the support rises,
///   `merges_absorbed` when `rule` declines.
#[inline(always)]
pub(crate) fn land<P: Pops>(
    engine: &Engine<P>,
    ids: &mut Ids<'_>,
    new: &mut [ColumnRel<P>],
    (emitted, fresh): &mut (impl Emissions<P>, FreshAccum<P>),
    col: &mut Collector,
    mut rule: impl FnMut(usize, &[u32], u32, Option<&P>, P) -> Option<P>,
) {
    let set_valued = &engine.compiled.set_valued;
    let c = &mut col.stats.counters;
    emitted.drain(|pred, key, v| land_row(new, set_valued, pred, key, v, c, &mut rule));
    if fresh.iter().all(BTreeMap::is_empty) {
        return;
    }
    let t_mint = Instant::now();
    let interner = ids.mint();
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
    pub(crate) fn eval<P: Pops, S: Schedule<P>>(
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

    /// A run of `program` under `schedule` in `count` shards from one
    /// seed row on, at `threads` threads.
    fn eval_in_shards<P: Pops, S: Schedule<P>>(
        program: &Program<P>,
        edb: &Database<P>,
        schedule: S,
        count: usize,
        threads: usize,
    ) -> InternedOutcome<P> {
        let opts = EngineOpts {
            threads: Some(threads),
            ..EngineOpts::default()
        };
        let shards = Shards { count, min_rows: 1 };
        let bools = BoolDatabase::new();
        let t = Instant::now();
        evaluate(
            t,
            program,
            edb,
            &bools,
            &[],
            1_000_000,
            schedule,
            &opts,
            shards,
        )
        .map_err(|aborted| aborted.to_string())
        .expect("converges")
    }

    /// A random APSP-shaped graph: `n` nodes, about `3n` edges, weights
    /// from `weight(1..=9)`.
    fn random_graph<P: Pops>(seed: u64, n: u64, weight: impl Fn(u64) -> P) -> Database<P> {
        let mut s = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        let mut rng = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        let mut e = Relation::new(2);
        for _ in 0..3 * n {
            let (x, y, w) = (rng() % n, rng() % n, 1 + rng() % 9);
            e.set(vec![(x as i64).into(), (y as i64).into()], weight(w));
        }
        let mut edb = Database::new();
        edb.insert("E", e);
        edb
    }

    /// A run in 2, 3 or 5 shards at 1 or 2 threads decodes bit for bit
    /// to the one-shard run, with every counter, the step count and
    /// every step row equal; it reports its shards, and each plan ran
    /// as often as in one loop up to the shard count's multiple.
    fn assert_shards_are_one<P: Pops, S: Schedule<P> + std::fmt::Debug>(
        program: &Program<P>,
        edb: &Database<P>,
        schedule: S,
    ) {
        let one = eval_in_shards(program, edb, schedule, 1, 1);
        for (count, threads) in [(2, 1), (3, 2), (5, 2)] {
            let got = eval_in_shards(program, edb, schedule, count, threads);
            let what = format!("{schedule:?} in {count} shards at {threads} threads");
            assert_eq!(
                got.output().materialize(),
                one.output().materialize(),
                "{what}"
            );
            let (a, b) = (got.stats(), one.stats());
            assert_eq!(a.counters, b.counters, "{what}: counters");
            assert_eq!(a.steps, b.steps, "{what}: steps");
            assert_eq!(a.iterations, b.iterations, "{what}: step rows");
            assert_eq!(a.last_iter, b.last_iter, "{what}: last row");
            assert_eq!((a.shards, b.shards), (count as u64, 1), "{what}: shards");
            for (rule, one) in a.rules.iter().zip(&b.rules) {
                let runs = one.runs..=count as u64 * one.runs;
                assert!(runs.contains(&rule.runs), "{what}: {} runs", rule.label);
            }
        }
    }

    #[test]
    fn a_run_in_shards_is_the_one_shard_run() {
        use crate::Strategy;
        use dlo_core::examples_lib::apsp_program;
        use dlo_pops::Bool;
        for seed in 1..=4 {
            let edb = random_graph(seed, 24, |w| Trop::finite(w as f64));
            let program = apsp_program::<Trop>();
            assert_shards_are_one(&program, &edb, SemiNaive);
            assert_shards_are_one(&program, &edb, Strategy::SemiNaive);
            assert_shards_are_one(&program, &edb, Strategy::Priority);
            let edb = random_graph(seed, 24, MinNat::finite);
            let program = apsp_program::<MinNat>();
            assert_shards_are_one(&program, &edb, SemiNaive);
            assert_shards_are_one(&program, &edb, Strategy::Priority);
            // Over `Bool` every row is `1`: the frontier pops that one
            // value once per generation of rows.
            let edb = random_graph(seed, 24, |_| Bool::TRUE);
            let program = apsp_program::<Bool>();
            assert_shards_are_one(&program, &edb, SemiNaive);
            assert_shards_are_one(&program, &edb, Strategy::Priority);
        }
    }

    /// `MinNat` under another name, for a test POPS that differs from it
    /// in one hook: `$on_add`, where given, runs before every sum.
    macro_rules! like_min_nat {
        ($name:ident $(, $on_add:expr)?) => {
            impl PreSemiring for $name {
                fn zero() -> Self {
                    $name(MinNat::zero())
                }
                fn one() -> Self {
                    $name(MinNat::one())
                }
                fn add(&self, rhs: &Self) -> Self {
                    $($on_add;)?
                    $name(self.0.add(&rhs.0))
                }
                fn mul(&self, rhs: &Self) -> Self {
                    $name(self.0.mul(&rhs.0))
                }
            }

            impl Pops for $name {
                const ABSORPTIVE_CHAIN: bool = true;
                fn bottom() -> Self {
                    $name(MinNat::bottom())
                }
                fn leq(&self, rhs: &Self) -> bool {
                    self.0.leq(&rhs.0)
                }
            }

            impl dlo_pops::Semiring for $name {}
            impl dlo_pops::Dioid for $name {}
            impl NaturallyOrdered for $name {}
            impl dlo_pops::Absorptive for $name {}
            impl dlo_pops::TotallyOrderedDioid for $name {
                fn chain_cmp(&self, other: &Self) -> std::cmp::Ordering {
                    self.0.chain_cmp(&other.0)
                }
            }
            impl CompleteDistributiveDioid for $name {
                fn minus(&self, rhs: &Self) -> Self {
                    $name(self.0.minus(&rhs.0))
                }
            }
        };
    }

    /// `MinNat` whose sums count themselves on the calling thread and
    /// cancel that thread's armed token at the armed count ([`TRIP`]).
    #[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
    struct Tripwire(MinNat);

    thread_local! {
        /// Sums so far, and the count and token of the armed wire.
        static TRIP: std::cell::RefCell<(u64, Option<(u64, CancelToken)>)> =
            const { std::cell::RefCell::new((0, None)) };
    }

    like_min_nat!(
        Tripwire,
        TRIP.with_borrow_mut(|(sums, wire)| {
            if let Some((at, token)) = wire {
                if *sums == *at {
                    token.cancel();
                }
            }
            *sums += 1;
        })
    );

    /// Cancellation at every point of a small run in 3 shards at one
    /// thread — a token cancelled by the `k`-th sum, for every `k`, so
    /// the run stops at each checkpoint of its seed step and of every
    /// shard's loop in turn: the partial is a lower bound of the least
    /// fixpoint with no row at `0`, and under the frontier its settled
    /// rows, remapped into the concatenated relations, carry their
    /// least-fixpoint values exactly. A cancel after the last
    /// checkpoint leaves the least fixpoint itself.
    #[test]
    fn a_sharded_run_stops_at_every_checkpoint_below_its_fixpoint() {
        use crate::Strategy;
        use dlo_core::examples_lib::apsp_program;
        let (program, edb) = (
            apsp_program::<Tripwire>(),
            random_graph(7, 12, |w| Tripwire(MinNat::finite(w))),
        );
        let bools = BoolDatabase::new();
        for strategy in [Strategy::SemiNaive, Strategy::Priority] {
            let one = eval_in_shards(&program, &edb, strategy, 1, 1);
            let lfp = one.output().materialize();
            TRIP.set((0, None));
            let sharded = eval_in_shards(&program, &edb, strategy, 3, 1);
            assert_eq!(sharded.stats().shards, 3, "{strategy:?}: the run splits");
            let sums = TRIP.with_borrow(|(sums, _)| *sums);
            let mut stops = std::collections::BTreeSet::new();
            for at in 0..=sums {
                let what = format!("{strategy:?} cancelled at sum {at}");
                let token = CancelToken::new();
                TRIP.set((0, Some((at, token.clone()))));
                let opts = EngineOpts {
                    threads: Some(1),
                    cancel: Some(token),
                    ..EngineOpts::default()
                };
                let shards = Shards {
                    count: 3,
                    min_rows: 1,
                };
                let t = Instant::now();
                let got = evaluate(
                    t,
                    &program,
                    &edb,
                    &bools,
                    &[],
                    1 << 20,
                    strategy,
                    &opts,
                    shards,
                );
                let aborted = match got {
                    Ok(done) => {
                        assert_eq!(done.output().materialize(), lfp, "{what}");
                        continue;
                    }
                    Err(aborted) => aborted,
                };
                assert_eq!(aborted.error().kind(), "cancelled", "{what}");
                let partial = aborted.partial();
                if partial.stats().shards == 3 {
                    let stats = partial.stats();
                    stops.insert((stats.steps, stats.counters.emits));
                }
                let rel = partial.interned().relation("T").expect("T is the IDB");
                assert!(
                    rel.iter().all(|(_, _, v)| !v.is_zero()),
                    "{what}: a row at 0"
                );
                for (pred, rel) in partial.materialize().iter() {
                    for (tuple, v) in rel.support() {
                        let want = lfp.get(pred).expect("an IDB").get(tuple);
                        assert!(v.leq(&want), "{what}: {tuple:?} above the fixpoint");
                    }
                }
                let settled = partial.materialize_settled();
                for (pred, rel) in settled.iter() {
                    for (tuple, v) in rel.support() {
                        assert_eq!(*v, lfp.get(pred).expect("an IDB").get(tuple), "{what}");
                    }
                }
                assert_eq!(partial.is_exact(), strategy == Strategy::Priority, "{what}");
                let counted = settled
                    .iter()
                    .map(|(_, rel)| rel.support_size() as u64)
                    .sum::<u64>();
                assert_eq!(
                    counted,
                    partial.settled().settled_rows(),
                    "{what}: marks remapped"
                );
            }
            TRIP.set((0, None));
            // Each shard has a checkpoint per step of its own: stops
            // inside the shards outnumber the one loop's steps.
            let steps = sharded.stats().steps;
            assert!(
                stops.len() as u64 > steps,
                "{strategy:?}: {} stops in shards, {steps} steps",
                stops.len()
            );
        }
    }

    /// A step or row ceiling keeps a decomposable run one loop — a
    /// shard's own steps and rows are not the run's — so where it stops
    /// is the same at one thread and at two.
    #[test]
    fn a_run_under_a_step_or_row_ceiling_is_one_loop() {
        use crate::{EvalBudget, Strategy};
        use dlo_core::examples_lib::apsp_program;
        let (program, edb) = (
            apsp_program::<Trop>(),
            random_graph(7, 12, |w| Trop::finite(w as f64)),
        );
        let bools = BoolDatabase::new();
        for strategy in [Strategy::SemiNaive, Strategy::Priority] {
            let one = eval_in_shards(&program, &edb, strategy, 1, 1);
            let (steps, emits) = (one.stats().steps, one.stats().counters.emits);
            for budget in [
                EvalBudget::unlimited().with_max_steps(steps / 2),
                EvalBudget::unlimited().with_max_rows(emits / 2),
            ] {
                let what = format!("{strategy:?} under {budget:?}");
                let stop = |threads| {
                    let opts = EngineOpts {
                        threads: Some(threads),
                        budget: budget.clone(),
                        ..EngineOpts::default()
                    };
                    let shards = Shards {
                        count: 3,
                        min_rows: 1,
                    };
                    let t = Instant::now();
                    let got = evaluate(
                        t,
                        &program,
                        &edb,
                        &bools,
                        &[],
                        1 << 20,
                        strategy,
                        &opts,
                        shards,
                    );
                    let aborted = got.expect_err("the ceiling stops the run");
                    assert_eq!(aborted.error().kind(), "budget", "{what}");
                    let partial = aborted.partial();
                    let stats = partial.stats().invariants();
                    let rel = partial.interned().relation("T").expect("T is the IDB");
                    let rows: Vec<_> = rel.iter().map(|(_, k, v)| (k.to_vec(), *v)).collect();
                    (stats, rows)
                };
                let (a, b) = (stop(1), stop(2));
                assert_eq!(a.0.shards, 1, "{what}: one loop");
                assert_eq!(a, b, "{what}: one thread against two");
            }
        }
    }

    /// `MinNat` whose `clone` panics on 13.
    #[derive(Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
    struct Fragile(MinNat);

    impl Clone for Fragile {
        fn clone(&self) -> Self {
            assert_ne!(self.0, MinNat::finite(13), "cloned the fragile value");
            Fragile(self.0)
        }
    }

    like_min_nat!(Fragile);

    /// A shard whose loop panics outside any plan run — the frontier
    /// cloning a path cost of 13 into its queue — is contained by the
    /// pool and surfaces as [`EvalError::WorkerPanic`], at one thread
    /// and at two.
    #[test]
    fn a_panicking_shard_is_a_worker_panic() {
        use crate::Strategy;
        use dlo_core::examples_lib::apsp_program;
        // A unit-weight chain of 20 edges: its seed holds no 13, its
        // paths do.
        let mut e = Relation::new(2);
        for i in 0..20i64 {
            e.set(vec![i.into(), (i + 1).into()], Fragile(MinNat::finite(1)));
        }
        let mut edb = Database::new();
        edb.insert("E", e);
        let program = apsp_program::<Fragile>();
        for threads in [1, 2] {
            let opts = EngineOpts {
                threads: Some(threads),
                ..EngineOpts::default()
            };
            let shards = Shards {
                count: 2,
                min_rows: 1,
            };
            let (t, bools) = (Instant::now(), BoolDatabase::new());
            let got = evaluate(
                t,
                &program,
                &edb,
                &bools,
                &[],
                1 << 20,
                Strategy::Priority,
                &opts,
                shards,
            );
            let error = got.expect_err("the shard panics").error().clone();
            assert_eq!(error.kind(), "worker_panic", "{threads} threads: {error}");
            assert!(
                error.to_string().contains("cloned the fragile value"),
                "{error}"
            );
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
