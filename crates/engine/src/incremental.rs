//! Incremental maintenance: a live [`Materialization`] that absorbs
//! EDB edits without re-running the fixpoint from scratch.
//!
//! ## Inserts: one variant per EDB occurrence
//!
//! For an edit `E ↦ E′ = E ⊕ ΔE`, expand a sum-product over its EDB
//! occurrences `E₁ … Eₙ` by distributivity of `⊗` over `⊕`: every term
//! of `F′(J)` that is not a term of `F(J)` carries `ΔE` at some
//! occurrence `i`, and the **variant** `i` — `ΔEᵢ` there, the live,
//! edited relations at every other occurrence — enumerates it:
//!
//! ```text
//! F′(J) = F(J) ⊕ ⊕ᵢ  E′₁ ⊗ … ⊗ ΔEᵢ ⊗ … ⊗ E′ₙ
//! ```
//!
//! An instance with edited facts at two occurrences is enumerated by
//! two variants, so the identity needs `⊕` idempotent — and that is
//! exactly where the variants' values are used: only [`crate::SemiNaive`]
//! and a [`Strategy`] fold an insert's variants into values, and both
//! are bounded by a dioid (Theorem 6.5; `dlo_pops::checker::dioid_laws`
//! checks the law), whose fold does not change when a term repeats.
//! [`crate::Naive`] inserts never run them (below). [`Materialization::new`]
//! compiles the variant rules once (occurrence `i` renamed with the
//! reserved `@dlt` suffix, an engine EDB slot populated per edit), so
//! every edit reuses the same plans; the `@dlt` binder is forced first
//! by the join order, making the edit seed `O(|Δ|·join)` instead of a
//! full scan. No other relation is staged: the other occurrences read
//! the live EDB, which already holds the edit. Because the old fixpoint
//! `J` is a pre-fixpoint of the grown immediate-consequence operator
//! `F′`, the ordinary semi-naïve continuation from `J` seeded with the
//! variants converges to the new least fixpoint — *insert-only
//! maintenance needs no retraction machinery at all*. A frontier handle
//! (below) runs the same variant plans as its seed round and needs no
//! `⊖`: their contributions are `⊕`-merged into `J`, and every row that
//! strictly improved is queued.
//!
//! ## Deletes: one path, two marking tests
//!
//! Deletion is where non-idempotent / non-invertible `⊕` bites: a
//! deleted row's contributions are folded into downstream sums and
//! cannot be subtracted pointwise (no general `⊖` restores them, and
//! on absorptive dioids many distinct support sets share one value).
//! The classical delete–rederive answer carries over to POPS values,
//! and every handle takes it the same way: mark a cone of rows that may
//! change, zero it where it stands, and let the handle's schedule
//! re-derive it from what is left. The POPS decides only which rows
//! the marking takes; the schedule never does.
//!
//! 1. **Mark.** The `@dlt` variant plans (batch rows at their old
//!    values) and then the Δ family, fed the newly marked rows round by
//!    round, enumerate every ground instance that uses a deleted fact
//!    or a marked row, all of it evaluated at the old fixpoint `J`.
//!    The marking runs before any live relation changes, so a variant
//!    reads the pre-delete EDB at its other occurrences: an instance
//!    with deleted facts at two occurrences is enumerated twice, which
//!    marks nothing a single enumeration would not.
//!    Each round `⊕`-folds its contributions per head key, and one test
//!    says which heads join the cone:
//!    * **syntactic**, wherever the attaining argument does not reach:
//!      every head a round emits — DRed's cone, every key whose
//!      derivation-uses graph reaches a deleted EDB row. It is read off
//!      the plans, so it is sound for any POPS: joins enumerate
//!      instances by key, a zero-valued instance stays zero when inputs
//!      shrink (value maps are monotone and deletions move values down
//!      the natural order), and no derivation of an unmarked row
//!      touches a deleted fact, so it keeps its exact value.
//!    * **attaining**, on every handle over a POPS that is an
//!      absorptive chain ([`dlo_pops::Pops::ABSORPTIVE_CHAIN`]: `Trop`,
//!      `MinNat`, `MaxMin`, `Bool`), whatever its schedule: a head whose
//!      fold **equals** its stored value (below).
//! 2. **Zero in place.** Marked rows are set to `0` where they stand:
//!    row ids, row order and every index survive, and the executor
//!    drops a derivation the moment its product is `0` (the handle's
//!    value functions keep `0` at `0`, so a zeroed row is no fact to
//!    them either). Nothing is rebuilt, and no row moves — which is
//!    what keeps an edit's exact work counters a function of the edit
//!    and not of the handle's history: a frontier merges emissions one
//!    at a time, so what it counts as improved or absorbed depends on
//!    row order, and a handle that moved its cone to the end of the
//!    relation on every delete would do different work for the same
//!    edit the second time.
//! 3. **Re-derive only the cone.** The survivors — unmarked rows at
//!    their values, marked rows at `0` — are a pre-fixpoint of the
//!    edited operator `F′` below its least fixpoint, and Kleene
//!    iteration from any such pre-fixpoint reaches that least fixpoint,
//!    whatever the schedule. `F′` leaves the unmarked rows where they
//!    are (every derivation that counts for one reads unmarked rows
//!    only: every derivation under the syntactic test, every attaining
//!    one under the other), so all that is missing is `F′(survivors)`
//!    on the marked keys. Beside the `@dlt` variants the handle
//!    compiles one **head-guarded variant** per sum-product, `H(args) :-
//!    H@cone(args) * body`, `H@cone` an engine relation staged per
//!    delete with the marked keys at `1` and forced first by the join
//!    order exactly as `@dlt` is; behind the guard the EDB atoms are
//!    joined ahead of the standing IDB, which is reached last, by full
//!    key, through its row map. Those plans seed the handle's schedule,
//!    which runs to the new fixpoint — a semi-naïve handle folds them in
//!    through the advance, where `F′(survivors) ⊖ survivors` is `0` off
//!    the cone even when `⊕` is not idempotent; the naïve rounds, which
//!    recompute full sums, re-run the original rules from the survivors
//!    instead. A rule whose head applies a key function cannot be
//!    guarded by key and seeds with its full plan (its emissions outside
//!    the cone are absorbed). Rows still `0` afterwards have no
//!    derivation left, and that is all it takes for them to leave: a
//!    row at `0` is no fact (a K-relation's support leaves it out), so
//!    it stays where it stands as a **tombstone** — its id, its row-map
//!    entry and its postings kept — that every reader skips
//!    (`storage::ColumnRel`). A later insert that derives its key again
//!    merges into the `0` and gets the same id back. The deleted EDB
//!    facts leave the same way, so a loaded relation keeps its sorted
//!    runs and posting tables. Nothing is re-laid, whichever rows are
//!    lost, until a relation's tombstones are more than half its rows:
//!    the delete that made them then compacts it (`ColumnRel::compact`),
//!    a step that depends on the edits alone. The `@cone` relations are
//!    dropped on every exit.
//!
//! A delete then costs its cone: marking, zeroing and re-deriving are
//! joins driven by the cone's rows. On a strongly connected 300-node
//! digraph the syntactic cone of one edge is all 87 321 rows of the
//! closure but one; the attaining cone is at most the rows the matching
//! insert had improved (where nothing ties, exactly those): in a cycle
//! of insert, query, delete, query on that graph the two edits scan
//! 12 067 tuples, where with the syntactic cone the cycle scanned
//! 885 232.
//!
//! ### The attaining cone
//!
//! Over an absorptive chain ([`dlo_pops::Pops::ABSORPTIVE_CHAIN`], the
//! 0-stable case of Cor. 5.19) `⊕` is the maximum of a chain and
//! `a ⊗ b ⊑ a`. There a row's value **is** the value of one derivation
//! — an attaining one — and a row can only change if every attaining
//! derivation is lost. Contributions at `J` are never above `J` (it is
//! a fixpoint), so a round's fold that equals the stored value says
//! some instance of the round attains.
//!
//! *Unmarked rows do not change.* Let `J′` be the fixpoint after the
//! delete and `W` the unmarked rows with `J′(x) ≠ J(x)` (so `J′(x) ⊏
//! J(x)`: deleting only lowers). Suppose `W` is not empty; let `v` be
//! the best value `J` holds on `W`, and among the rows of `W` holding
//! it let `x` be one that reached `v` **first** in the naïve iteration
//! `J(0) = 0, J(t+1) = F(J(t))` that built `J`, at step `t`. `⊕` is a
//! maximum, so one ground instance `r` of `x` had value `v` at
//! `J(t−1)`; by monotonicity `r` yields at least `v` at `J`, and at
//! most `v` because `J` is a fixpoint: `r` attains at `J`. Had `r`
//! used a deleted fact or a marked row, the round that enumerated it
//! would have folded to `v` and marked `x`; so `r` uses neither, and
//! is an instance of the edited program too. `J′(x) ⊏ v` then means
//! `r` yields less at `J′` than at `J`: some body row `b` of `r` has
//! `J′(b) ⊏ J(b)` and is unmarked — `b ∈ W`. Absorption makes a
//! product no better than any of its factors (`a ⊗ b ⊑ a ⊗ 1 = a`),
//! so `v ⊑ J(t−1)(b) ⊑ J(b)`, and `v` is the best value on `W`, so
//! `J(b) = v = J(t−1)(b)`: `b` held `v` a step before `x` did,
//! against the choice of `x`. Hence `W` is empty. ∎
//!
//! Zero-weight cycles (rows attaining each other's values in a ring)
//! and a non-strict `⊗` (`MaxMin`: ties everywhere) are inside the
//! argument, and are what `tests/incremental.rs` generates. It needs
//! every IDB factor to enter the product as it is: a value function
//! on an IDB factor (the sum-products whose splits the compiler
//! marks `Plan::frontier_only`) may improve on its argument, and a
//! handle over such a program marks syntactically. So does a handle
//! over any other POPS (`MaxPlus`, `NNReal`, …): a sum there can exceed
//! each of its terms, so no derivation need attain it. Nothing in the
//! argument names a schedule — the naïve iteration in it is the one
//! that defines `J` — so a handle re-derives the cone with whichever
//! loop it was built with. The arithmetic is the stored one — a
//! variant plan multiplies the same factors in the same order as the
//! plan that stored the value — so equality is exact on `f64` carriers
//! too.
//!
//! ## The schedule that built it maintains it
//!
//! Every continuation above — the build from the empty state, an
//! insert from the old fixpoint, a rederive from the survivors — is the
//! handle's [`Schedule`] resumed from a pre-fixpoint with a seed plan
//! list: all original plans, the `@dlt` variants, the plans that
//! re-derive the cone. A from-scratch run is the same call from the
//! empty state, so a build is that run — rows, interner and step count
//! included — and every edit reports steps the way it does.
//! [`crate::SemiNaive`] (and [`Strategy::SemiNaive`], and
//! [`Strategy::Worklist`], another name for it) folds the seed in
//! through the semi-naïve advance and runs global Δ rounds;
//! [`Strategy::Priority`] / `Auto` merge it into the state, queue the
//! strict improvements and drain the queue (`worklist`'s one frontier
//! loop, the same one a from-scratch run uses), so a build costs what
//! the from-scratch run costs and an edit on a long dependency chain
//! pays per improved row, not per round (Cor. 5.19). All of them fire
//! the original rules' Δ family, and so does the *marking* pass of a
//! delete, which propagates the marked rows through it in global rounds
//! under every schedule.
//! Every loop changes the standing relations in place, and a delete
//! leaves what it loses for good where it stands, at `0`, so a row
//! keeps its id under every schedule and every edit, and a key that
//! comes back comes back at its old id. Only a compaction moves rows
//! (the survivors, in order).
//!
//! ## Naïve mode
//!
//! POPS without `⊖` (e.g. `NNReal` for company control) cannot run the
//! semi-naïve continuation, but both arguments above only need a
//! pre-fixpoint start: a handle built under the [`crate::Naive`]
//! schedule runs the naïve rounds `J ↦ F'(J)` from the old state
//! (respectively the survivors) with the original seed plans only —
//! the variant rules stay out, since naïve steps recompute full sums
//! and the differential would double-count — landing each round in
//! place. The schedule is fixed at [`Materialization::new`]; every
//! edit and rebuild after it is the same call for every POPS.
//!
//! ## Contract
//!
//! * Edits target **POPS EDB relations** only (Boolean guard EDBs are
//!   static; re-build for those).
//! * [`dlo_core::edit::FactInsert`] `⊕`-merges a value into a tuple;
//!   [`dlo_core::edit::FactDelete`] removes the tuple's fact entirely.
//!   Lower a value by deleting then re-inserting.
//! * Results are **bit-identical to the from-scratch fixpoint on the
//!   edited EDB** at any `DLO_ENGINE_THREADS` (a handle's builds and
//!   edits run one loop on the calling thread — never in shards: same
//!   plan-order merges, sorted drains, and mint-between-phases as every
//!   other driver). A slot no join step
//!   binds ranges over the edited EDB's `D₀`, never over constants
//!   minted or dropped by earlier epochs: an edit that changes `D₀`
//!   under such a program re-derives the fixpoint the way
//!   [`Materialization::rebuild`] does (its stats are a build's), and
//!   if that fails, the handle stays as it was before the edit.
//! * Each edit produces its own [`EvalStats`] (per-phase, per-rule)
//!   via [`Materialization::last_stats`], landed through the one step
//!   every loop lands through, so its per-step rows sum to its totals.
//! * An edit stages only its batch (`@dlt`) and, for a delete, its
//!   cone's guards (`@cone`): a variant reads the live EDB at every
//!   other occurrence — after an insert's merge, before a delete's
//!   removal.
//! * The handle holds **one copy of the EDB**, the interned relations
//!   its plans join against; [`Materialization::edb`] decodes them.
//! * A query is a **read of the standing fixpoint**: it reads only its
//!   answer's rows — through the queried relation's index on the
//!   query's bound columns, built by the first query of that adornment
//!   and kept current by every edit like the indexes the plans probe —
//!   and re-evaluates nothing, so its answers are the restriction of
//!   the from-scratch fixpoint by construction. An index a query made
//!   changes no edit's work counters, steps or results.
//! * Every public method returns `Result<_, `[`EvalError`]`>`. Invalid
//!   batches (unknown predicate, arity mismatch) are rejected **before
//!   any staging**, so they leave the handle untouched. An edit that
//!   fails *mid-flight* — step-cap overrun ([`EvalError::Diverged`]),
//!   budget/deadline exhaustion, cancellation, or a contained worker
//!   panic — leaves the interned state mid-fixpoint, so the handle is
//!   **poisoned**: every subsequent edit or query returns
//!   [`EvalError::Poisoned`] until [`Materialization::rebuild`]
//!   re-derives the fixpoint from the live EDB relations,
//!   bit-identical to a from-scratch build.
//!   The failed edit's EDB effect is retained — a delete takes its
//!   rows out of the EDB even when its marking fails —, so `rebuild()`
//!   completes the derivation the interrupted edit began.

use crate::driver::{
    ensure_delta_indexes, ensure_probes, run_round, setup, Engine, EngineOpts, IdbState, Ids,
    LoopFail, RoundPlans, Run, Schedule,
};
use crate::govern::{CancelToken, Checkpoint, EvalBudget, EvalError};
use crate::intern::Interner;
use crate::output::{decode_db, InternedOutcome, InternedOutput, PartialOutput};
use crate::plan::{Plan, EDB_CONE_SUFFIX, EDB_DELTA_SUFFIX};
use crate::query::{unanswerable, QueryAnswer};
use crate::storage::{ColMask, ColumnRel};
use crate::worklist::Strategy;
use dlo_core::ast::{Factor, Program, Rule, Term, UnaryFn};
use dlo_core::demand::DemandError;
use dlo_core::edit::{Edit, FactDelete, FactInsert};
use dlo_core::eval::stats::EvalStats;
use dlo_core::ground::domain;
use dlo_core::query::{Query, QueryArg};
use dlo_core::relation::{BoolDatabase, Database};
use dlo_core::value::Constant;
use dlo_pops::Pops;
use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::time::Instant;

/// Engine EDB-slot bookkeeping for one editable predicate.
struct EditSlot {
    /// Predicate name in the source program.
    name: String,
    /// Arity (from its factor occurrences).
    arity: usize,
    /// `pops_edb` index of the live relation.
    cur: usize,
    /// `pops_edb` index of the `name@dlt` edit-batch relation.
    dlt: Option<usize>,
}

/// A long-lived materialized fixpoint over an interned engine state,
/// absorbing EDB edits incrementally (see the module docs for the
/// algorithm and its correctness argument).
///
/// [`Materialization::new`] takes the [`Schedule`] that builds it, and
/// the schedule that built it maintains it: every later edit continues
/// the fixpoint the way the build reached it — [`crate::SemiNaive`] by
/// the semi-naïve differential (needs `⊖`), a [`Strategy`] by whichever
/// loop it names (the semi-naïve rounds, or the priority frontier
/// seeded with the edit's contributions), [`crate::Naive`] by
/// naïve rounds (any naturally ordered POPS).
/// [`Materialization::query`] reads the answer off the fixpoint the
/// handle holds, and re-evaluates nothing.
pub struct Materialization<P: Pops, S = Strategy> {
    /// The original program (what [`Materialization::rebuild`] compiles
    /// again; the engine runs the augmented maintenance program).
    program: Program<P>,
    engine: Engine<P>,
    /// The constants the handle's rows are interned against, kept
    /// across every edit and rebuild.
    interner: Interner,
    state: IdbState<P>,
    /// Original-rule full-application plans (initial build, naïve
    /// edits, delete rederive).
    seed_plans: Vec<Plan<P>>,
    /// Variant-rule plans reading `@dlt` (insert differential seed,
    /// delete affected-set seed).
    edit_plans: Vec<Plan<P>>,
    /// The original rules' Δ family (continuation loops under every
    /// schedule, and affected-set propagation); the variant rules'
    /// splits would only re-derive what the live relations give.
    delta_plans: Vec<Plan<P>>,
    /// What re-derives a delete's cone, filtered per delete to the
    /// heads it marked: the head-guarded `@cone` variants, beside the
    /// seed plans of the rules whose head no guard can name (key
    /// functions).
    rederive_plans: Vec<Plan<P>>,
    /// Whether a delete marks the attaining cone rather than the
    /// syntactic one (module docs): `P` is an absorptive chain
    /// ([`Pops::ABSORPTIVE_CHAIN`]) and no IDB factor sits under a value
    /// function — whatever the schedule.
    attaining: bool,
    /// Per IDB predicate, the `pops_edb` index of its `H@cone` relation
    /// (`None` where no rule of `H` is head-guarded).
    cones: Vec<Option<usize>>,
    slots: Vec<EditSlot>,
    /// The EDB relations the program does not read: no edit can name
    /// them, but their constants are part of `D₀`.
    unread: Database<P>,
    bool_edb: BoolDatabase,
    cap: usize,
    schedule: S,
    opts: EngineOpts,
    epoch: u64,
    /// [`Materialization::output`]'s snapshot and the epoch it shows.
    snapshot: Option<(u64, InternedOutput<P>)>,
    last_stats: EvalStats,
    /// Set when an edit failed mid-flight (the interned state may be
    /// mid-fixpoint): every subsequent edit/query returns
    /// [`EvalError::Poisoned`] until a rebuild.
    poisoned: Option<String>,
    /// The mid-fixpoint interned state captured when the handle was
    /// poisoned, exposed read-only by [`Materialization::partial`] for
    /// diagnostics while the poison stands.
    partial: Option<PartialOutput<P>>,
}

/// The program a handle's engine compiles: the original rules, then
/// the variant rules of [`maintenance_program`].
struct MaintenanceProgram<P> {
    program: Program<P>,
    /// The editable EDB predicates `(name, arity)`, in first-use order.
    editable: Vec<(String, usize)>,
    /// Per original rule, whether it has head-guarded variants.
    guarded: Vec<bool>,
    /// Index of the first head-guarded variant rule: the `@dlt`
    /// variants sit between the original rules and this.
    cone_rules: usize,
}

/// Appends the variant rules: for each sum-product and each EDB
/// occurrence `i`, a copy reading `E@dlt` at `i` and the live relations
/// everywhere else (module docs: exact wherever a variant's values are
/// used). Factor order (and with it `⊗` order) is preserved, so a
/// variant's value is the original's bit for bit under non-commutative
/// value assembly.
///
/// The **head-guarded variants** follow: `H(args) :- H@cone(args) *
/// body` for every sum-product of every rule whose head arguments are
/// variables or constants. The guard holds `1`, the identity, in front
/// of the factors, so a guarded derivation's value is the unguarded
/// one's bit for bit. Every value function of the handle's program maps
/// `0` to `0`, whatever it makes of `0` itself.
fn maintenance_program<P: Pops>(program: &Program<P>) -> Result<MaintenanceProgram<P>, EvalError> {
    let reserved = |pred: &str| EvalError::Compile {
        detail: format!("predicate {pred:?} uses the reserved '@' namespace"),
    };
    let idbs: HashSet<&str> = program.rules.iter().map(|r| r.head.pred.as_str()).collect();
    let mut editable: Vec<(String, usize)> = vec![];
    let mut out = program.clone();
    for rule in &program.rules {
        if rule.head.pred.contains('@') {
            return Err(reserved(&rule.head.pred));
        }
        for sp in &rule.body {
            for f in &sp.factors {
                if f.atom.pred.contains('@') {
                    return Err(reserved(&f.atom.pred));
                }
            }
            let edb_occs: Vec<usize> = sp
                .factors
                .iter()
                .enumerate()
                .filter(|(_, f)| !idbs.contains(f.atom.pred.as_str()))
                .map(|(i, _)| i)
                .collect();
            for (fi, f) in sp.factors.iter().enumerate() {
                if edb_occs.contains(&fi) && !editable.iter().any(|(n, _)| *n == f.atom.pred) {
                    editable.push((f.atom.pred.clone(), f.atom.args.len()));
                }
            }
            for &fi in &edb_occs {
                let mut vsp = sp.clone();
                vsp.factors[fi].atom.pred =
                    format!("{}{}", vsp.factors[fi].atom.pred, EDB_DELTA_SUFFIX);
                out.rules.push(Rule {
                    head: rule.head.clone(),
                    body: vec![vsp],
                });
            }
        }
    }
    let cone_rules = out.rules.len();
    let nameable = |t: &Term| !matches!(t, Term::Apply(..));
    let guarded: Vec<bool> = (program.rules.iter())
        .map(|rule| rule.head.args.iter().all(nameable))
        .collect();
    for (rule, _) in program.rules.iter().zip(&guarded).filter(|(_, &g)| g) {
        let guard = format!("{}{}", rule.head.pred, EDB_CONE_SUFFIX);
        for sp in &rule.body {
            let mut gsp = sp.clone();
            gsp.factors
                .insert(0, Factor::atom(&guard, rule.head.args.clone()));
            out.rules.push(Rule {
                head: rule.head.clone(),
                body: vec![gsp],
            });
        }
    }
    // A delete leaves its cone at `0` while it re-derives it, and a row
    // at `0` is no fact: a value function that lifts `0` must not make
    // one of it.
    let factors = out.rules.iter_mut().flat_map(|r| &mut r.body);
    for f in factors.flat_map(|sp| &mut sp.factors) {
        if let Some(g) = f.func.take() {
            let name = g.name.clone();
            let lifted = move |x: &P| if x.is_zero() { P::zero() } else { g.apply(x) };
            f.func = Some(UnaryFn::new(&name, lifted));
        }
    }
    Ok(MaintenanceProgram {
        program: out,
        editable,
        guarded,
        cone_rules,
    })
}

impl<P, S> Materialization<P, S>
where
    P: Pops,
    S: Schedule<P>,
{
    /// Builds the materialization and runs the initial fixpoint under
    /// `schedule`, which also continues it after every edit — naïve
    /// rounds for [`crate::Naive`], the semi-naïve differential for
    /// [`crate::SemiNaive`], the loop a [`Strategy`] names (under a
    /// frontier the build does exactly the work of a from-scratch run).
    /// `pops_edb` is loaded into the interned relations and not kept.
    ///
    /// # Errors
    ///
    /// [`EvalError::Compile`] on programs the columnar storage cannot
    /// represent or predicate names using the reserved `@` namespace;
    /// [`EvalError::Diverged`] when the initial fixpoint exceeds `cap`
    /// steps; the governed variants when `opts` carries a budget or
    /// cancel token that trips during the build. A failed build returns
    /// no handle, so there is nothing to poison.
    pub fn new(
        program: &Program<P>,
        pops_edb: &Database<P>,
        bool_edb: &BoolDatabase,
        cap: usize,
        schedule: S,
        opts: &EngineOpts,
    ) -> Result<Self, EvalError> {
        Self::build(
            program,
            pops_edb,
            bool_edb,
            cap,
            schedule,
            opts,
            Interner::new(),
        )
    }

    /// [`Materialization::new`] numbering from `interner`: compile the
    /// maintenance program, partition plans, resolve the edit slots,
    /// then run the schedule from the empty state over the original
    /// rules (the variant rules see empty `@dlt` and contribute
    /// nothing). `interner` is empty for a new handle and the retained
    /// one of a previous epoch on the rebuild path, so constant ids
    /// minted by earlier epochs stay stable across the recovery.
    fn build(
        program: &Program<P>,
        pops_edb: &Database<P>,
        bool_edb: &BoolDatabase,
        cap: usize,
        schedule: S,
        opts: &EngineOpts,
        mut interner: Interner,
    ) -> Result<Self, EvalError> {
        let t = Instant::now();
        for (name, _) in pops_edb.iter() {
            if name.contains('@') {
                return Err(EvalError::Compile {
                    detail: format!("EDB predicate {name:?} uses the reserved '@' namespace"),
                });
            }
        }
        let aug = maintenance_program(program)?;
        let n_rules = program.rules.len();
        let threads = opts.effective_threads();
        let engine = setup(
            &aug.program,
            &mut interner,
            pops_edb,
            bool_edb,
            &[],
            threads,
        )?;
        // The rule list is the original rules, the `@dlt` variants, the
        // head-guarded variants: `rule_idx` says which a plan is.
        let rules = |plans: &[Plan<P>], rules: std::ops::Range<usize>| -> Vec<Plan<P>> {
            let of = |p: &&Plan<P>| rules.contains(&p.rule_idx);
            plans.iter().filter(of).cloned().collect()
        };
        let seed_plans = rules(&engine.compiled.seed_plans, 0..n_rules);
        let edit_plans = rules(&engine.compiled.seed_plans, n_rules..aug.cone_rules);
        let delta_plans = rules(&engine.compiled.delta_plans, 0..n_rules);
        // The attaining argument covers every IDB factor that enters its
        // product as it is; a frontier-only split is one under a value
        // function.
        let attaining = P::ABSORPTIVE_CHAIN && !delta_plans.iter().any(|p| p.frontier_only);
        let mut rederive_plans = seed_plans.clone();
        rederive_plans.retain(|p| !aug.guarded[p.rule_idx]);
        rederive_plans.extend(rules(
            &engine.compiled.seed_plans,
            aug.cone_rules..usize::MAX,
        ));
        let pos = |name: &str| engine.compiled.pops_edbs.iter().position(|n| n == name);
        let idbs = engine.compiled.idbs.iter();
        let cones = idbs
            .map(|(name, _)| pos(&format!("{name}{EDB_CONE_SUFFIX}")))
            .collect();
        let slots: Vec<EditSlot> = aug
            .editable
            .into_iter()
            .map(|(name, arity)| EditSlot {
                cur: pos(&name).expect("every editable predicate is a compiled EDB"),
                dlt: pos(&format!("{name}{EDB_DELTA_SUFFIX}")),
                name,
                arity,
            })
            .collect();
        let unread = pops_edb.iter().filter(|(name, _)| pos(name).is_none());
        let unread = unread.map(|(n, r)| (n.clone(), r.clone())).collect();
        let mut m = Materialization {
            program: program.clone(),
            state: engine.empty_state(),
            engine,
            interner,
            seed_plans,
            edit_plans,
            delta_plans,
            rederive_plans,
            attaining,
            cones,
            slots,
            unread,
            bool_edb: bool_edb.clone(),
            cap,
            schedule,
            opts: opts.clone(),
            epoch: 0,
            snapshot: None,
            last_stats: EvalStats::default(),
            poisoned: None,
            partial: None,
        };
        let mut run = m.open_run("build", t);
        // The load belongs to the build's stats; edits load nothing.
        m.engine.load_ns = 0;
        let plans = RoundPlans {
            full: &m.seed_plans,
            seed: &m.seed_plans,
            seed_rows: 0,
            delta: &m.delta_plans,
        };
        let result = run
            .prepare(&mut m.engine, &m.interner, &mut m.state, &m.opts)
            .and_then(|()| {
                let ids = &mut Ids::Own(&mut m.interner);
                schedule.resume(&m.engine, ids, &mut m.state, &plans, cap, &mut run, 0)
            });
        match result {
            Ok(steps) => {
                m.settle();
                m.last_stats = run.finish(steps, true);
                Ok(m)
            }
            Err(fail) => Err(run.fail(cap, fail).0),
        }
    }

    /// Opens the governed run of one build or edit, labelled
    /// `incremental-<kind>` (plus the schedule's suffix); everything
    /// since `started` — compile and intern, or staging — is its setup
    /// time.
    fn open_run(&self, kind: &str, started: Instant) -> Run<P> {
        Run::open(
            &self.engine,
            &format!("incremental-{kind}{}", S::MAINTENANCE_SUFFIX),
            false,
            &self.opts,
            started.elapsed().as_nanos() as u64,
        )
    }

    /// Recovers (or refreshes) the handle: re-derives the fixpoint from
    /// the live EDB relations (decoded as [`Materialization::edb`]
    /// returns them, in constant order, so the build is the one a fresh
    /// handle on that EDB runs) and clears the poisoned bit (and the
    /// stashed [`Materialization::partial`]). The fixpoint agrees with
    /// a from-scratch build at any thread count, and the retained
    /// **interner is reused**, so constant ids minted by earlier epochs
    /// stay stable across the recovery — interned keys held by callers
    /// keep resolving to the same constants. The epoch advances past
    /// every previous epoch. A rebuild is itself governed by the
    /// current budget/cancel settings (adjust them first via
    /// [`Materialization::set_budget`] / [`Materialization::set_cancel`]
    /// if the poisoning budget would trip again); a failed rebuild
    /// leaves the handle poisoned.
    ///
    /// # Errors
    ///
    /// As [`Materialization::new`].
    pub fn rebuild(&mut self) -> Result<&EvalStats, EvalError> {
        self.rebuild_from(&self.edb())
    }

    /// [`Materialization::rebuild`] on `pops_edb` instead of the live
    /// EDB: also how an edit that moves `D₀` finishes
    /// ([`Materialization::moved_edb`]).
    fn rebuild_from(&mut self, pops_edb: &Database<P>) -> Result<&EvalStats, EvalError> {
        let epoch = self.epoch + 1;
        let mut fresh = Self::build(
            &self.program,
            pops_edb,
            &self.bool_edb,
            self.cap,
            self.schedule,
            &self.opts,
            self.interner.clone(),
        )?;
        fresh.epoch = epoch;
        *self = fresh;
        Ok(&self.last_stats)
    }

    /// The epoch counter: bumped by every edit.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The [`EvalStats`] of the last build or edit (per-phase and
    /// per-rule, like every engine driver).
    pub fn last_stats(&self) -> &EvalStats {
        &self.last_stats
    }

    /// The EDB at the current epoch (edits applied), decoded from the
    /// live interned relations the handle joins against, its only copy
    /// of the relations its program reads, beside the ones it does not
    /// read as they were given. Rows come in constant order, as a
    /// [`Database`] holds them.
    pub fn edb(&self) -> Database<P> {
        let decode = |s: &EditSlot| {
            let rel = std::slice::from_ref(self.engine.pops_edb[s.cur].as_ref()?);
            let name = [(s.name.clone(), s.arity)];
            Some(decode_db(&self.interner, &name, rel))
        };
        let live = self.slots.iter().filter_map(decode).flatten();
        live.chain(self.unread.iter().map(|(n, r)| (n.clone(), r.clone())))
            .collect()
    }

    /// The handle's EDB after `edit`, if the edit changes its `D₀`
    /// ([`dlo_core::ground::domain`]) under a program with a fill slot
    /// ([`Engine::fills`]). The standing fixpoint ranged those slots
    /// over the old `D₀`, and no continuation revisits them, so such an
    /// edit re-derives through [`Materialization::rebuild_from`].
    fn moved_edb(&self, edit: impl FnOnce(&mut Database<P>)) -> Option<Database<P>> {
        if !self.engine.fills() {
            return None;
        }
        let mut edb = self.edb();
        edit(&mut edb);
        let d0 = domain(&self.program, &edb, &self.bool_edb);
        let interner = &self.interner;
        let standing = self.engine.adom.iter().map(|&id| interner.get(id));
        (!d0.iter().eq(standing)).then_some(edb)
    }

    /// Why the handle is poisoned, if it is: a previous edit failed
    /// mid-flight and only [`Materialization::rebuild`] will accept
    /// further work.
    /// Read-only probes ([`Materialization::get`],
    /// [`Materialization::edb`], …) stay available for diagnostics.
    pub fn poisoned(&self) -> Option<&str> {
        self.poisoned.as_deref()
    }

    /// Replaces the [`EvalBudget`] governing subsequent edits and
    /// rebuilds (each run measures its deadline from its own start). A
    /// [`Materialization::query`] runs no loop, and no budget applies.
    pub fn set_budget(&mut self, budget: EvalBudget) {
        self.opts.budget = budget;
    }

    /// Installs (or clears) the [`CancelToken`] polled by subsequent
    /// edits and rebuilds (a [`Materialization::query`] polls nothing).
    pub fn set_cancel(&mut self, cancel: Option<CancelToken>) {
        self.opts.cancel = cancel;
    }

    /// The poisoned-bit gate every edit and query passes first.
    fn check_poisoned(&self) -> Result<(), EvalError> {
        match &self.poisoned {
            Some(reason) => Err(EvalError::Poisoned {
                reason: reason.clone(),
            }),
            None => Ok(()),
        }
    }

    /// The shared tail of every edit. Success clears the per-edit
    /// `changed` maps and records the edit's stats; a mid-flight
    /// failure poisons the handle, stashing the mid-fixpoint interned
    /// state as a read-only [`PartialOutput`] next to the poison, and
    /// passes the error through.
    fn close_edit(
        &mut self,
        run: Run<P>,
        result: Result<usize, LoopFail>,
    ) -> Result<&EvalStats, EvalError> {
        match result {
            Ok(steps) => {
                self.settle();
                self.last_stats = run.finish(steps, true);
                Ok(&self.last_stats)
            }
            Err(fail) => {
                let (err, settled) = run.fail(self.cap, fail);
                self.poisoned = Some(format!(
                    "epoch {} edit failed mid-flight ({}): rebuild() to recover",
                    self.epoch, err
                ));
                let interned = InternedOutput::new(
                    self.interner.clone(),
                    self.engine.compiled.idbs.clone(),
                    self.state.new.clone(),
                );
                let stats = err.stats().cloned().unwrap_or_default();
                self.partial = Some(PartialOutput::new(interned, settled, stats));
                Err(err)
            }
        }
    }

    /// The mid-fixpoint state captured when the handle was poisoned,
    /// or `None` while the handle is healthy. Read-only diagnostics:
    /// for an interrupted **insert** the values are a pointwise lower
    /// bound of the post-edit fixpoint (the maintenance loop only grows
    /// values along the natural order); for an interrupted **delete**
    /// the state may sit between the zero-out and the rederive, so rows
    /// can be *missing or below* their pre-edit values too — treat it
    /// as a snapshot for inspection, not a bound. Missing is the only
    /// way a taken-out row shows: a delete zeroes its cone in place, and
    /// the partial holds the state as the edit left it, rows still at
    /// `0` included — tombstones, which its readers skip, as do
    /// [`Materialization::get`], [`Materialization::support_size`] and
    /// [`Materialization::output`], which show the partial while the
    /// poison stands: never published as facts of value `0`. Cleared by
    /// a successful rebuild.
    ///
    /// An edit's partial is always best-effort
    /// ([`PartialOutput::is_exact`] is `false`). Under the priority
    /// order the rows the edit popped before it stopped are marked in
    /// [`PartialOutput::settled`] all the same, and they do hold their
    /// post-edit values — a popped row is final for the reason it is
    /// from scratch: everything not yet fired comes from a row still
    /// queued at a value no better. But the marking covers only what
    /// the edit queued: the standing rows it never touched are final
    /// too and are not marked, so an edit's settled set is a subset of
    /// the final rows, never the settled frontier of a from-scratch
    /// run. Under every other schedule nothing is marked.
    pub fn partial(&self) -> Option<&PartialOutput<P>> {
        self.partial.as_ref()
    }

    /// Validates a batch **before any staging**, so rejected edits
    /// leave the handle untouched (and unpoisoned): every predicate
    /// must be an editable EDB slot and every tuple must match its
    /// arity. Returns each fact's slot index, in batch order — what the
    /// staging helpers go by, so the check is made once.
    fn validate_edits<'a>(
        &self,
        facts: impl Iterator<Item = (&'a str, usize)>,
    ) -> Result<Vec<usize>, EvalError> {
        facts
            .map(|(pred, arity)| {
                let si = self
                    .slots
                    .iter()
                    .position(|s| s.name == pred)
                    .ok_or_else(|| EvalError::Compile {
                        detail: format!(
                            "edit targets {pred:?}, which is not an EDB predicate of the program"
                        ),
                    })?;
                let expected = self.slots[si].arity;
                if arity != expected {
                    return Err(EvalError::Compile {
                        detail: format!(
                            "edit on {pred:?} with arity {arity} (expected {expected})"
                        ),
                    });
                }
                Ok(si)
            })
            .collect()
    }

    /// The maintained relation of IDB predicate `pred`, if the program
    /// derives one.
    fn idb(&self, pred: &str) -> Option<&ColumnRel<P>> {
        let idbs = &self.engine.compiled.idbs;
        let pi = idbs.iter().position(|(n, _)| n == pred)?;
        Some(&self.state.new[pi])
    }

    /// One maintained value, decode-free: `None` if the tuple (or any
    /// of its constants) is not in the fixpoint's support.
    pub fn get(&self, pred: &str, tuple: &[Constant]) -> Option<&P> {
        let key: Option<Vec<u32>> = tuple.iter().map(|c| self.interner.lookup(c)).collect();
        self.idb(pred)?.get(&key?)
    }

    /// Support size of one maintained IDB predicate (0 if unknown).
    pub fn support_size(&self, pred: &str) -> usize {
        self.idb(pred).map_or(0, ColumnRel::support_size)
    }

    /// The current epoch as a decode-free [`InternedOutput`] snapshot,
    /// read without decoding the whole fixpoint.
    ///
    /// The snapshot is keyed by the [`Materialization::epoch`]: the
    /// first call after an edit clones the interner and every IDB
    /// relation once, later calls in the same epoch return that clone.
    /// A poisoned handle shows its
    /// [`Materialization::partial`] instead, whose readers skip every
    /// row a delete left at `0`.
    pub fn output(&mut self) -> &InternedOutput<P> {
        if let Some(partial) = &self.partial {
            return partial.interned();
        }
        if !matches!(&self.snapshot, Some((epoch, _)) if *epoch == self.epoch) {
            let snap = InternedOutput::new(
                self.interner.clone(),
                self.engine.compiled.idbs.clone(),
                self.state.new.clone(),
            );
            self.snapshot = Some((self.epoch, snap));
        }
        &self.snapshot.as_ref().expect("just built").1
    }

    /// Monotone count of probe-structure builds over one maintained
    /// IDB relation's lifetime — the churn probe the incremental tests pin: edits must
    /// never rebuild probe structures for relations they do not touch,
    /// and a [`Materialization::query`] builds one only for an
    /// adornment no plan or earlier query indexed. Returns 0 for
    /// unknown predicates. A rebuild starts the count again.
    pub fn index_builds_for(&self, pred: &str) -> u64 {
        self.idb(pred).map_or(0, ColumnRel::index_builds)
    }

    /// The [`ColumnRel::version`] of one maintained IDB relation
    /// (0 for unknown predicates) — lets tests assert that an edit
    /// left a predicate's storage untouched.
    pub fn version_for(&self, pred: &str) -> u64 {
        self.idb(pred).map_or(0, ColumnRel::version)
    }

    /// Clears the per-edit `changed` maps so that between edits (and
    /// during affected-set propagation) `Old` reads coincide with the
    /// current state.
    fn settle(&mut self) {
        for ch in &mut self.state.changed {
            ch.clear();
        }
    }

    /// Stages one per-edit engine relation — an `@dlt` batch, an
    /// `@cone` guard — in `pops_edb[slot]`: a fresh relation under the
    /// probe masks its readers registered, loaded by `fill` (which is
    /// handed the other EDB relations to read from).
    fn stage_rel(
        engine: &mut Engine<P>,
        slot: usize,
        arity: usize,
        fill: impl FnOnce(&mut ColumnRel<P>, &[Option<ColumnRel<P>>]),
    ) {
        let mut rel = ColumnRel::new(arity);
        ensure_probes(&mut rel, &engine.pops_masks[slot], None);
        fill(&mut rel, &engine.pops_edb);
        engine.pops_edb[slot] = Some(rel);
    }

    /// Stages the `@dlt` relation of touched slot `si`, where
    /// registered: a fresh relation under its probe masks that `fill`
    /// loads with the batch (it is handed the live relation to read
    /// values from).
    fn stage_edit_rels(
        &mut self,
        si: usize,
        fill: impl FnOnce(&mut ColumnRel<P>, Option<&ColumnRel<P>>),
    ) {
        let EditSlot {
            cur, dlt, arity, ..
        } = self.slots[si];
        if let Some(di) = dlt {
            Self::stage_rel(&mut self.engine, di, arity, |d, edb| {
                fill(d, edb[cur].as_ref())
            });
        }
    }

    /// Interns and stages an insert batch (`slots[i]` is the validated
    /// slot index of `batch[i]`): builds the `@dlt` relations (duplicate
    /// tuples `⊕`-merge) and `⊕`-merges the rows into the live
    /// relations, which the variants read at their other occurrences.
    /// Returns the touched slot indexes.
    fn stage_insert(&mut self, batch: &[FactInsert<P>], slots: &[usize]) -> Vec<usize> {
        let mut per_slot: Vec<Vec<(Vec<u32>, P)>> = (0..self.slots.len()).map(|_| vec![]).collect();
        for (f, &si) in batch.iter().zip(slots) {
            let key: Vec<u32> = f.tuple.iter().map(|c| self.interner.intern(c)).collect();
            per_slot[si].push((key, f.value.clone()));
        }
        let mut touched = vec![];
        for (si, rows) in per_slot.into_iter().enumerate() {
            if rows.is_empty() {
                continue;
            }
            touched.push(si);
            self.stage_edit_rels(si, |d, _| {
                for (key, v) in &rows {
                    d.merge(key, v.clone());
                }
            });
            let (cur, arity) = (self.slots[si].cur, self.slots[si].arity);
            let masks = &self.engine.pops_masks[cur];
            let live = self.engine.pops_edb[cur].get_or_insert_with(|| {
                let mut r = ColumnRel::new(arity);
                ensure_probes(&mut r, masks, None);
                r
            });
            for (key, v) in rows {
                live.merge(&key, v);
            }
        }
        touched
    }

    /// Stages a delete batch (`slots[i]` is the validated slot index of
    /// `batch[i]`): `@dlt` holds the *present* targeted rows (a
    /// tombstone is none) at their current values. The live relations
    /// are **not** touched yet — the affected-set propagation runs
    /// against the pre-delete state, which the variants read at their
    /// other occurrences, and [`Materialization::delete_run`] takes the
    /// rows out after it,
    /// whether or not it failed. Returns the
    /// deleted rows' ids in the live relation, ascending, per touched
    /// slot.
    fn stage_delete(&mut self, batch: &[FactDelete], slots: &[usize]) -> Vec<(usize, Vec<u32>)> {
        let mut per_slot: Vec<Vec<u32>> = vec![vec![]; self.slots.len()];
        for (f, &si) in batch.iter().zip(slots) {
            let key: Option<Vec<u32>> = f.tuple.iter().map(|c| self.interner.lookup(c)).collect();
            let live = self.engine.pops_edb[self.slots[si].cur].as_ref();
            if let Some(r) = key.and_then(|key| live?.live_rowid(&key)) {
                per_slot[si].push(r);
            }
        }
        let mut staged = vec![];
        for (si, mut rows) in per_slot.into_iter().enumerate() {
            if rows.is_empty() {
                continue;
            }
            rows.sort_unstable();
            rows.dedup();
            self.stage_edit_rels(si, |d, live| {
                let live = live.expect("checked present");
                for &r in &rows {
                    d.insert_row(live.row(r), live.val(r).clone());
                }
            });
            staged.push((si, rows));
        }
        staged
    }

    /// Clears the `@dlt` relations of the touched slots (masks stay
    /// registered).
    fn clear_edit_rels(&mut self, touched: &[usize]) {
        for &si in touched {
            let dlt = self.slots[si]
                .dlt
                .and_then(|di| self.engine.pops_edb[di].as_mut());
            if let Some(rel) = dlt {
                rel.clear();
            }
        }
    }

    /// Takes the deleted rows out of the live interned relations: each
    /// is set to `0` where it stands, a tombstone, and a relation whose
    /// tombstones this makes more than half its rows is compacted.
    fn apply_edb_deletes(&mut self, staged: &[(usize, Vec<u32>)]) {
        for (si, rows) in staged {
            let live = self.engine.pops_edb[self.slots[*si].cur].as_mut();
            let live = live.expect("staged ⇒ present");
            for &r in rows {
                live.set_val(r, P::zero());
            }
            live.compact();
        }
    }

    /// The marking pass: the affected cone, as ascending row ids into
    /// the current IDB state. Runs `seed` (the `@dlt` variant plans),
    /// then propagates the newly marked rows through `family`, the Δ
    /// family (rows carry their full current values) until closure. A
    /// head key a round emits joins the cone — always, without
    /// `attaining`; with it, only when the round's folded contribution
    /// **equals** the stored value (everything is evaluated at the old
    /// fixpoint, so a contribution is never above it). Must run against
    /// the pre-delete state with empty `changed` maps. Returns the
    /// marking and the number of propagation steps it took.
    #[allow(clippy::too_many_arguments)]
    fn affected_closure(
        engine: &Engine<P>,
        interner: &Interner,
        state: &mut IdbState<P>,
        seed: &[Plan<P>],
        family: &[Plan<P>],
        attaining: bool,
        cap: usize,
        run: &mut Run<P>,
    ) -> Result<(Vec<Vec<u32>>, usize), LoopFail> {
        let nidb = engine.compiled.idbs.len();
        let mut affected: Vec<BTreeSet<u32>> = vec![BTreeSet::new(); nidb];
        let mut frontier: Vec<Vec<u32>> = vec![vec![]; nidb];
        let mut steps = 0usize;
        let mut round = seed;
        loop {
            run.check(steps, Checkpoint::Iteration)?;
            let before = run.col.stats.counters;
            let delta_rows: u64 = frontier.iter().map(|f| f.len() as u64).sum();
            if steps > 0 {
                for (pred, rows) in frontier.iter().enumerate() {
                    let (new, delta) = (&state.new[pred], &mut state.delta[pred]);
                    delta.clear();
                    for &r in rows {
                        delta.append_row(new.row(r), new.val(r).clone());
                    }
                }
                ensure_delta_indexes(engine, state);
            }
            run_round(engine, interner, round, state, delta_rows, run)
                .map_err(LoopFail::at(Checkpoint::Iteration, steps))?;
            // A head key no id names yet is in no standing row.
            run.round.1.iter_mut().for_each(BTreeMap::clear);
            for (pred, acc) in run.round.0.iter_mut().enumerate() {
                let new = &state.new[pred];
                let (aff, front) = (&mut affected[pred], &mut frontier[pred]);
                front.clear();
                acc.drain_sorted(|key, v| {
                    if let Some(r) = new.rowid(key) {
                        if (!attaining || new.val(r) == &v) && aff.insert(r) {
                            front.push(r);
                        }
                    }
                });
            }
            run.col.stats.counters.cone_rows +=
                frontier.iter().map(|f| f.len() as u64).sum::<u64>();
            run.col.end_step(steps, delta_rows, 0, &before);
            if frontier.iter().all(|f| f.is_empty()) {
                break;
            }
            if steps >= cap {
                return Err(LoopFail::Diverged(steps));
            }
            steps += 1;
            round = family;
        }
        state.delta.iter_mut().for_each(ColumnRel::clear);
        let ascending = |rows: BTreeSet<u32>| rows.into_iter().collect();
        Ok((affected.into_iter().map(ascending).collect(), steps))
    }

    /// The zero-out: every marked row is set to `0` **where it stands**
    /// — row ids, row order and every index survive, and the executor
    /// drops a derivation the moment its product is `0` — and each marked
    /// predicate's keys are staged at `1`, in row order, as the `H@cone`
    /// relation its head-guarded plans are driven by.
    fn zero_affected(&mut self, affected: &[Vec<u32>]) {
        for (pred, rows) in affected.iter().enumerate() {
            if rows.is_empty() {
                continue;
            }
            let new = &mut self.state.new[pred];
            for &r in rows {
                new.set_val(r, P::zero());
            }
            if let Some(ci) = self.cones[pred] {
                Self::stage_rel(&mut self.engine, ci, new.arity(), |cone, _| {
                    for &r in rows {
                        cone.append_row(new.row(r), P::one());
                    }
                });
            }
        }
    }

    /// Absorbs an insert batch: `⊕`-merges the facts into the EDB and
    /// continues the fixpoint from the old one (a pre-fixpoint of the
    /// grown operator). The variant plans enumerate what the batch
    /// adds, one per EDB occurrence, reading the edited EDB elsewhere:
    /// the semi-naïve schedules fold it in through the standard advance
    /// and continue with delta rounds; a frontier merges it into the state and
    /// drains the rows it improved through its own queue; under
    /// [`crate::Naive`] the naïve rounds re-run the original rules —
    /// often a single confirming step when the edit is absorbed.
    ///
    /// Returns the edit's own [`EvalStats`].
    ///
    /// # Errors
    ///
    /// [`EvalError::Poisoned`] if a previous edit failed mid-flight;
    /// [`EvalError::Compile`] on unknown predicates or arity mismatches
    /// (rejected before staging — the handle is untouched);
    /// [`EvalError::Diverged`] on cap overrun and the governed variants
    /// on budget/deadline/cancellation — these **poison** the handle
    /// (see the module docs).
    pub fn insert(&mut self, batch: &[FactInsert<P>]) -> Result<&EvalStats, EvalError> {
        self.check_poisoned()?;
        let slots = self.validate_edits(batch.iter().map(|f| (f.pred.as_str(), f.tuple.len())))?;
        let moved = self.moved_edb(|edb| {
            for f in batch {
                let rel = edb.get_or_insert(&f.pred, f.tuple.len());
                rel.merge(f.tuple.clone(), f.value.clone());
            }
        });
        if let Some(edb) = moved {
            return self.rebuild_from(&edb);
        }
        let t = Instant::now();
        self.epoch += 1;
        let touched = self.stage_insert(batch, &slots);
        let mut run = self.open_run("insert", t);
        let plans = RoundPlans {
            full: &self.seed_plans,
            seed: &self.edit_plans,
            seed_rows: batch.len() as u64,
            delta: &self.delta_plans,
        };
        let result = self.schedule.resume(
            &self.engine,
            &mut Ids::Own(&mut self.interner),
            &mut self.state,
            &plans,
            self.cap,
            &mut run,
            0,
        );
        if result.is_ok() {
            self.clear_edit_rels(&touched);
        }
        self.close_edit(run, result)
    }

    /// Absorbs a delete batch by delete–rederive (module docs): mark
    /// the affected cone against the pre-delete state (no `⊖`
    /// involved), drop the deleted EDB rows, zero the cone where it
    /// stands — no row moves — and let the schedule re-derive it from
    /// the survivors, seeded by head-guarded plans that re-derive the
    /// marked keys only ([`crate::Naive`] re-runs its naïve rounds
    /// instead), so the delete costs its cone. Over an absorptive chain
    /// ([`Pops::ABSORPTIVE_CHAIN`]) every handle, whatever its schedule,
    /// marks the rows whose stored value a derivation through a deleted
    /// fact **attains**; over any other POPS, and where a value function
    /// wraps an IDB factor, every row such a derivation reaches.
    /// Deleting absent facts is a no-op. The edit's stats count the
    /// marked cone, the rows of the relations it was marked in, and the
    /// retracted rows (`counters.cone_rows`, `counters.cone_of_rows`,
    /// `counters.rows_retracted`); the rows that came back read as
    /// `rows_inserted`.
    ///
    /// Returns the edit's own [`EvalStats`].
    ///
    /// # Errors
    ///
    /// As [`Materialization::insert`].
    pub fn delete(&mut self, batch: &[FactDelete]) -> Result<&EvalStats, EvalError> {
        self.check_poisoned()?;
        let slots = self.validate_edits(batch.iter().map(|f| (f.pred.as_str(), f.tuple.len())))?;
        let moved = self.moved_edb(|edb| {
            for f in batch {
                let rel = edb.get_or_insert(&f.pred, f.tuple.len());
                rel.set(f.tuple.clone(), P::bottom());
            }
        });
        if let Some(edb) = moved {
            return self.rebuild_from(&edb);
        }
        let t = Instant::now();
        self.epoch += 1;
        let staged = self.stage_delete(batch, &slots);
        let mut run = self.open_run("delete", t);
        if staged.is_empty() {
            self.last_stats = run.finish(0, true);
            return Ok(&self.last_stats);
        }
        let result = self.delete_run(&mut run, &staged);
        self.close_edit(run, result)
    }

    /// The governed tail of [`Materialization::delete`]: mark, take the
    /// deleted EDB rows out — also when the marking failed, so that
    /// [`Materialization::rebuild`] sees the edited EDB —, zero the cone
    /// and stage its guards, resume the schedule, and compact a relation
    /// whose tombstones are now more than half its rows.
    fn delete_run(
        &mut self,
        run: &mut Run<P>,
        staged: &[(usize, Vec<u32>)],
    ) -> Result<usize, LoopFail> {
        let touched: Vec<usize> = staged.iter().map(|(si, _)| *si).collect();
        let (engine, state) = (&self.engine, &mut self.state);
        let (seed, family) = (&self.edit_plans, &self.delta_plans);
        let marking = Self::affected_closure(
            engine,
            &self.interner,
            state,
            seed,
            family,
            self.attaining,
            self.cap,
            run,
        );
        self.clear_edit_rels(&touched);
        self.apply_edb_deletes(staged);
        let (affected, steps) = marking?;
        let marked: u64 = affected.iter().map(|a| a.len() as u64).sum();
        if marked == 0 {
            return Ok(steps);
        }
        let c = &mut run.col.stats.counters;
        c.rows_retracted += marked;
        for (rows, rel) in affected.iter().zip(&self.state.new) {
            if !rows.is_empty() {
                c.cone_of_rows += rel.support_size() as u64;
            }
        }
        self.zero_affected(&affected);
        let rederive: Vec<Plan<P>> = self
            .rederive_plans
            .iter()
            .filter(|p| !affected[p.head_pred].is_empty())
            .cloned()
            .collect();
        let plans = RoundPlans {
            full: &self.seed_plans,
            seed: &rederive,
            seed_rows: 0,
            delta: &self.delta_plans,
        };
        let result = self.schedule.resume(
            &self.engine,
            &mut Ids::Own(&mut self.interner),
            &mut self.state,
            &plans,
            self.cap,
            run,
            steps + 1,
        );
        for ci in self.cones.iter().flatten() {
            self.engine.pops_edb[*ci] = None;
        }
        let steps = result?;
        // What is still `0` has no derivation left: a tombstone, gone
        // for good where it stands. The rest came back, each counted by
        // the step that landed it as the insertion it is. Only deletes
        // add tombstones, and each offers every relation a compaction,
        // so one this delete did not touch stays as it is.
        self.state.new.iter_mut().for_each(ColumnRel::compact);
        Ok(steps)
    }

    /// Applies an edit script in order, one batch per edit, stopping at
    /// the first failing edit (its error propagates, with the handle
    /// poisoned exactly as the direct call would have). Returns the
    /// stats of the last edit (each edit's stats are observable through
    /// [`Materialization::last_stats`] between steps).
    ///
    /// # Errors
    ///
    /// As [`Materialization::insert`].
    pub fn apply(&mut self, script: &[Edit<P>]) -> Result<&EvalStats, EvalError> {
        for edit in script {
            match edit {
                Edit::Insert(f) => {
                    self.insert(std::slice::from_ref(f))?;
                }
                Edit::Delete(f) => {
                    self.delete(std::slice::from_ref(f))?;
                }
            }
        }
        Ok(&self.last_stats)
    }

    /// Answers a query against the **current epoch** from the fixpoint
    /// the handle holds, reading only the answer's rows, and nothing is
    /// evaluated. The bound columns form a mask: a query binding some
    /// columns probes the queried IDB's standing relation through a
    /// hash index on that mask, a query binding every column reads its
    /// row map (zero or one row), and a query binding none copies the
    /// relation. The first query of an adornment on a predicate builds
    /// its index, once: the relation keeps every registered index
    /// current through every later edit, and a rebuild, or an edit that
    /// moves `D₀`, starts from fresh state, where the next such query
    /// builds it again. Past that one O(|IDB|) build a query costs its
    /// answer rows; the build is why it takes `&mut self`.
    /// Rows come in ascending row order, as a scan would meet them.
    ///
    /// The answer is converged in 0 steps with no magic or dropped
    /// predicates, and its stats are the read's own (`strategy`
    /// `"incremental-query"`, `tuples_scanned` the rows read, which are
    /// the answer's rows, `phases.eval` the read, the index build
    /// included when this query made it). [`QueryAnswer::answers`] is
    /// the query's restriction of the fixpoint a from-scratch run on
    /// [`Materialization::edb`] computes, bit for bit; a bound constant
    /// the handle never interned matches no row. The read runs no loop,
    /// so the handle's budget and cancel token do not apply to it.
    ///
    /// # Errors
    ///
    /// [`EvalError::Compile`] when the query names no IDB of the program
    /// or has its arity wrong, and [`EvalError::Poisoned`] when a prior
    /// edit on this handle failed mid-flight. A failed query leaves the
    /// handle untouched: it builds no index.
    pub fn query(&mut self, query: &Query) -> Result<QueryAnswer<P>, EvalError> {
        self.check_poisoned()?;
        let t = Instant::now();
        let idbs = &self.engine.compiled.idbs;
        let pi = (idbs.iter().position(|(n, _)| *n == query.pred))
            .ok_or_else(|| unanswerable(DemandError::UnknownPredicate(query.pred.clone())))?;
        let (pred, arity) = idbs[pi].clone();
        if query.arity() != arity {
            let (expected, got) = (arity, query.arity());
            return Err(unanswerable(DemandError::ArityMismatch {
                pred,
                expected,
                got,
            }));
        }
        let interner = &self.interner;
        let mut mask: ColMask = 0;
        let key: Option<Vec<u32>> = (query.args.iter().enumerate())
            .filter_map(|(c, arg)| match arg {
                QueryArg::Bound(k) => {
                    mask |= 1 << c;
                    Some(interner.lookup(k))
                }
                QueryArg::Free => None,
            })
            .collect();
        let partial = mask != 0 && (mask.count_ones() as usize) < arity;
        let rel = &mut self.state.new[pi];
        if partial && key.is_some() {
            rel.ensure_index(mask);
        }
        let (mut keys, mut vals) = (vec![], vec![]);
        let copy = |r: u32| {
            if !rel.val(r).is_zero() {
                keys.extend_from_slice(rel.row(r));
                vals.push(rel.val(r).clone());
            }
        };
        match key {
            None => {}
            Some(_) if mask == 0 => (0..rel.len() as u32).for_each(copy),
            Some(key) if partial => rel.probe(mask, &key).iter().copied().for_each(copy),
            Some(key) => rel.rowid(&key).into_iter().for_each(copy),
        }
        let mut stats = EvalStats::default();
        stats.counters.tuples_scanned = vals.len() as u64;
        let rows = ColumnRel::from_distinct_rows(arity, keys, vals);
        let output = InternedOutput::new(interner.clone(), vec![(pred, arity)], vec![rows]);
        stats.strategy = "incremental-query".into();
        stats.phases.eval = t.elapsed().as_nanos() as u64;
        Ok(QueryAnswer {
            outcome: InternedOutcome::Converged {
                output,
                steps: 0,
                stats,
            },
            query: query.clone(),
            magic_preds: vec![],
            dropped_preds: vec![],
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::worklist::Strategy;
    use dlo_core::parser::parse_program;
    use dlo_core::relation::Relation;
    use dlo_core::tup;
    use dlo_pops::Trop;

    /// Two independent labelled quadratic closures, so an edit on one
    /// EDB leaves the other IDB provably untouched — at arity 3, past
    /// the packed-key width, so both IDBs are probed through boxed-key
    /// hash indexes.
    fn two_tc() -> (Program<Trop>, Database<Trop>) {
        let program = parse_program(
            "P(L, X, Z) :- EP(L, X, Z) + P(L, X, Y) * P(L, Y, Z).\n\
             Q(L, X, Z) :- EQ(L, X, Z) + Q(L, X, Y) * Q(L, Y, Z).",
        )
        .unwrap();
        let mut edb = Database::new();
        edb.insert(
            "EP",
            Relation::from_pairs(
                3,
                vec![
                    (tup!["l", "a", "b"], Trop::finite(1.0)),
                    (tup!["l", "b", "c"], Trop::finite(1.0)),
                ],
            ),
        );
        edb.insert(
            "EQ",
            Relation::from_pairs(
                3,
                vec![
                    (tup!["l", "x", "y"], Trop::finite(2.0)),
                    (tup!["l", "y", "z"], Trop::finite(2.0)),
                ],
            ),
        );
        (program, edb)
    }

    /// The no-churn contract: an edit touching only `EP` must not
    /// rebuild `Q`'s probe structures and must not move `Q`'s version
    /// (its storage is not written), while still folding the edit into
    /// `P` — in the handle and in the snapshot taken after it.
    #[test]
    fn edits_keep_untouched_relations() {
        let (program, edb) = two_tc();
        let mut m = Materialization::new(
            &program,
            &edb,
            &BoolDatabase::new(),
            100_000,
            Strategy::Auto,
            &EngineOpts::default(),
        )
        .unwrap();
        // A snapshot of the build's epoch: the edit below must not
        // leave it standing.
        m.output();
        let builds_q = m.index_builds_for("Q");
        let ver_q = m.version_for("Q");
        let ver_p = m.version_for("P");
        assert!(ver_q > 0, "Q was derived, so its version moved");

        m.insert(&[FactInsert::new(
            "EP",
            tup!["l", "c", "d"],
            Trop::finite(1.0),
        )])
        .unwrap();
        let snap = m.output().clone();

        // The edit reached P…
        let ad = tup!["l", "a", "d"];
        assert_eq!(m.get("P", &ad), Some(&Trop::finite(3.0)));
        assert_eq!(snap.get("P", &ad), Some(&Trop::finite(3.0)));
        assert!(m.version_for("P") > ver_p, "P's storage was edited");
        // …and left Q alone: no probe-structure rebuilds, no mutation.
        assert_eq!(m.index_builds_for("Q"), builds_q, "Q index churn");
        assert_eq!(m.version_for("Q"), ver_q, "Q storage churn");
    }

    /// A delete writes the touched IDB — zeroes rows in place, removes
    /// the rows that stay `0` — and the version must move strictly
    /// (never alias the pre-edit version: equal versions claim equal
    /// contents).
    #[test]
    fn delete_rederive_moves_versions_strictly() {
        let (program, edb) = two_tc();
        let mut m = Materialization::new(
            &program,
            &edb,
            &BoolDatabase::new(),
            100_000,
            Strategy::Auto,
            &EngineOpts::default(),
        )
        .unwrap();
        let ver_p = m.version_for("P");
        let ver_q = m.version_for("Q");
        m.delete(&[FactDelete::new("EP", tup!["l", "a", "b"])])
            .unwrap();
        assert!(m.version_for("P") > ver_p, "delete must move P's version");
        assert_eq!(m.version_for("Q"), ver_q, "Q untouched by the delete");
        let (ab, bc) = (tup!["l", "a", "b"], tup!["l", "b", "c"]);
        assert_eq!(m.get("P", &ab), None);
        let snap = m.output();
        assert_eq!(snap.get("P", &ab), None);
        assert_eq!(snap.get("P", &bc), Some(&Trop::finite(1.0)));
    }

    /// What every handle re-derives a cone with: per sum-product one
    /// plan driven by the `T@cone` scan, the EDB atom ahead of the
    /// standing `T` (the tie the guard creates), and `T` reached by
    /// full key through its row map — for which no posting-list index
    /// is registered. A handle over a POPS that is no absorptive chain
    /// marks syntactically, and re-derives through the same plans.
    #[test]
    fn guarded_plans_reach_the_standing_idb_last_and_by_its_row_map() {
        use crate::plan::Source;
        use dlo_core::examples_lib::apsp_program;
        use dlo_pops::MaxPlus;
        fn edge<P: Pops>(w: P) -> Database<P> {
            let mut edb = Database::new();
            edb.insert("E", Relation::from_pairs(2, vec![(tup!["a", "b"], w)]));
            edb
        }
        fn assert_guarded<P: Pops, S: Schedule<P>>(m: &Materialization<P, S>) {
            let cone = Source::PopsEdb(m.cones[0].expect("T is head-guarded"));
            let (e, t) = (Source::PopsEdb(m.slots[0].cur), Source::IdbNew(0));
            let reads: Vec<Vec<(Source, u32)>> = m
                .rederive_plans
                .iter()
                .map(|p| p.steps.iter().map(|s| (s.source, s.mask)).collect())
                .collect();
            assert_eq!(
                reads,
                [
                    vec![(cone, 0), (e, 0b11)],
                    vec![(cone, 0), (e, 0b10), (t, 0b11)]
                ]
            );
            assert!(m.rederive_plans[1].steps[2].reads_row_map());
            assert_eq!(
                m.engine.idb_new_masks[0],
                [0b10],
                "the @dlt variant's probe"
            );
        }
        let (bools, opts) = (BoolDatabase::new(), EngineOpts::default());
        let (program, edb) = (apsp_program(), edge(Trop::finite(1.0)));
        let m = Materialization::new(&program, &edb, &bools, 1000, Strategy::Auto, &opts).unwrap();
        assert!(m.attaining);
        assert_guarded(&m);
        let (program, edb) = (apsp_program(), edge(MaxPlus::finite(1.0)));
        let m = Materialization::new(&program, &edb, &bools, 1000, crate::SemiNaive, &opts);
        let m = m.unwrap();
        assert!(!m.attaining);
        assert_guarded(&m);
    }
}
