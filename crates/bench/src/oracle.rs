//! # The differential oracle
//!
//! One check of the engine against the paper's semantics, shared by
//! every differential test. A [`Case`] is a program, its EDBs, an edit
//! script (possibly empty) and the queries to demand (possibly none).
//! The oracle runs each loop the POPS licenses once per step — from
//! scratch and as a [`Materialization`]'s build on the initial EDB, as
//! that handle's edit at every later step, as its `rebuild()` after the
//! last — and holds every loop to one reference per step, computed once
//! and shared: the grounded least fixpoint `naive_eval_sparse` of the
//! EDB at that step (the EDB mirrored edit by edit, [`mirror`]).
//!
//! The license comes from the POPS bounds, one entry per tier, never
//! from a flag:
//!
//! | entry | bound | loops |
//! | --- | --- | --- |
//! | [`Case::check_naive`] | `NaturallyOrdered` | [`Naive`] (Thm. 1.2) |
//! | [`Case::check_rounds`] | `+ CompleteDistributiveDioid` | `+` [`SemiNaive`] (Thm. 6.5) |
//! | [`Case::check`] | `+ Absorptive + TotallyOrderedDioid` | `+` [`Strategy::Priority`] (Cor. 5.19) |
//!
//! The aliases `Strategy::{Auto, SemiNaive, Worklist}` run one of these
//! loops under another name; the oracle runs none of them
//! (`tests/backend_matrix.rs::worklist_is_another_name_for_seminaive`
//! pins each alias to its loop).
//!
//! The checks, and the statement each one makes:
//!
//! 1. **Least fixpoint.** Every loop's run from scratch, and its handle
//!    after the build and after every edit, holds exactly the step's
//!    reference, a relation absent on either side read as empty: the
//!    naïve iterates converge to the lfp of Sec. 4 (Thm. 1.2), every
//!    licensed schedule reaches the same one (Thm. 6.5, Cor. 5.19), and
//!    maintenance is the lfp of the edited EDB.
//! 2. **Step counts.** The naïve loop takes the grounded naïve step
//!    count and the semi-naïve loop the grounded semi-naïve one (Thm.
//!    6.5: both iterate from `0`, the latter on Δs), where they run from
//!    scratch: the build, and the rebuild after a script. The grounded
//!    semi-naïve lfp is the naïve one there too.
//! 3. **A handle is a from-scratch run.** The build is the from-scratch
//!    run bit for bit (*loop parity*): equal `EvalStats::invariants()`
//!    up to the run's name, the same interner, the same interned rows
//!    in the same order. After every edit the handle decodes the
//!    mirrored EDB and the same IDBs as its build.
//! 4. **Reads.** Every query pattern on every IDB ([`assert_reads`]) and
//!    every query of the case, asked of every handle at every step, is
//!    `Query::restrict` of the reference, and the read touches only the
//!    answer's rows (`tuples_scanned` = answer size).
//! 5. **Demand.** Every query of the case under every loop at every
//!    step — and for a case with neither queries nor edits, one pattern
//!    of 4 per adornment under the strongest loop — through
//!    `engine_query_eval_with_opts`: it converges, answers
//!    `Query::restrict` of the reference, and every demanded row it
//!    derives holds its reference value — the magic-set rewrite neither
//!    under- nor over-derives a demanded row.
//! 6. **Rebuild.** After a script, `rebuild()` gives back the same
//!    decoded state, keeps every constant's id and takes the grounded
//!    step count of 2.
//!
//! Three kinds of case take their reference from the engine instead,
//! so the grounded lfp is not their specification check:
//! * a value function with `f(0) ≠ 0` (found by evaluating each at `0`):
//!   the engine reads a row at `0` as no fact and applies no function to
//!   it, the grounded operator applies it to every ground atom
//!   (`tests/incremental.rs::a_zeroed_row_is_no_fact_to_a_value_function`);
//!   the reference is the engine's naïve run from scratch;
//! * [`Case::engine_reference`]: inexact float products, or a grounding
//!   too large to run at every step; the same reference;
//! * [`Case::past_naive_reach`]: an input no naïve loop finishes in
//!   time; no naïve loop runs, and the reference is the engine's
//!   semi-naïve run from scratch.

use std::fmt::Debug;

use dlo_core::{
    naive_eval_sparse, seminaive_eval, BoolDatabase, Database, Edit, Program, Query, QueryArg,
    Relation,
};
use dlo_engine::{
    engine_eval_interned, engine_query_eval_with_opts, EngineOpts, EvalStats, InternedOutcome,
    InternedOutput, Materialization, Naive, Schedule, SemiNaive, Strategy,
};
use dlo_pops::{
    Absorptive, CompleteDistributiveDioid, NaturallyOrdered, Pops, TotallyOrderedDioid,
};

/// The iteration cap of every run the oracle makes.
pub const CAP: usize = 100_000;

/// One from-scratch engine run under `schedule`.
pub fn scratch<P: Pops, S: Schedule<P>>(
    program: &Program<P>,
    edb: &Database<P>,
    bools: &BoolDatabase,
    cap: usize,
    schedule: S,
    opts: &EngineOpts,
) -> InternedOutcome<P> {
    engine_eval_interned(program, edb, bools, cap, schedule, opts).expect("compiles")
}

/// Applies one edit to a classic EDB exactly as the engine defines edit
/// semantics: an insert `⊕`-merges, a delete removes the fact.
pub fn mirror<P: Pops>(edb: &mut Database<P>, edit: &Edit<P>) {
    match edit {
        Edit::Insert(f) => edb
            .get_or_insert(&f.pred, f.tuple.len())
            .merge(f.tuple.clone(), f.value.clone()),
        Edit::Delete(f) => edb
            .get_or_insert(&f.pred, f.tuple.len())
            .set(f.tuple.clone(), P::bottom()),
    }
}

/// `got` holds exactly the facts of `want`: every relation of `want`
/// equal, and nothing in a relation `want` lacks (an absent relation
/// reads as empty on both sides).
pub fn assert_same_facts<P: Pops>(leg: &str, want: &Database<P>, got: &Database<P>) {
    for (pred, r) in want.iter() {
        let empty = Relation::new(r.arity());
        assert_eq!(
            r,
            got.get(pred).unwrap_or(&empty),
            "{leg}: differs on {pred}"
        );
    }
    for (pred, r) in got.iter() {
        if want.get(pred).is_none() {
            assert!(r.is_empty(), "{leg}: extra atoms in {pred}");
        }
    }
}

/// Every query pattern on every relation of `lfp`: all free, one column
/// bound to a constant no EDB holds, and each column bound alone and
/// every column bound, to the first and to the last row's constants.
fn patterns<P: Pops>(lfp: &Database<P>) -> Vec<Query> {
    let mut queries = vec![];
    for (pred, full) in lfp.iter() {
        let arity = full.arity();
        queries.push(Query::all(pred, arity));
        if arity > 0 {
            let mut args = vec![QueryArg::Free; arity];
            args[0] = QueryArg::bound("never held");
            queries.push(Query::new(pred, args));
        }
        let (first, last) = (full.support().next(), full.support().last());
        let ends = [first, last.filter(|_| full.support_size() > 1)];
        for (tuple, _) in ends.into_iter().flatten() {
            for c in 0..arity {
                let mut args = vec![QueryArg::Free; arity];
                args[c] = QueryArg::Bound(tuple[c].clone());
                queries.push(Query::new(pred, args));
            }
            queries.push(Query::point(pred, tuple.clone()));
        }
    }
    queries
}

/// `Query::restrict` of `lfp`, its predicate absent read as empty.
fn restrict<P: Pops>(lfp: &Database<P>, q: &Query) -> Relation<P> {
    let rows = lfp.get(&q.pred).into_iter().flat_map(|r| r.support());
    let kept = rows.filter(|(t, _)| q.matches(t));
    Relation::from_pairs(q.arity(), kept.map(|(t, v)| (t.clone(), v.clone())))
}

/// One pattern per adornment (which columns are bound, and whether to a
/// constant no EDB holds) of [`patterns`]: what the demand path
/// rewrites differently.
fn adornments<P: Pops>(lfp: &Database<P>) -> Vec<Query> {
    let mut seen = std::collections::BTreeSet::new();
    let mut queries = patterns(lfp);
    queries.retain(|q| {
        let bound = q.args.iter().map(|a| match a {
            QueryArg::Free => 0,
            QueryArg::Bound(c) if *c == "never held".into() => 2,
            QueryArg::Bound(_) => 1,
        });
        seen.insert((q.pred.clone(), bound.collect::<Vec<u8>>()))
    });
    queries
}

/// Check 4 on one handle: every query pattern on every relation of
/// `lfp` (the fixpoint the handle must hold), asked of `mat`, is
/// `Query::restrict` of `lfp` bit for bit, the answer holds those rows
/// and no others, and the read touched no other row.
pub fn assert_reads<P: Pops, S: Schedule<P>>(
    leg: &str,
    mat: &mut Materialization<P, S>,
    lfp: &Database<P>,
) {
    for q in patterns(lfp) {
        assert_read(leg, mat, lfp, &q);
    }
}

fn assert_read<P: Pops, S: Schedule<P>>(
    leg: &str,
    mat: &mut Materialization<P, S>,
    lfp: &Database<P>,
    q: &Query,
) {
    let answer = mat.query(q).unwrap_or_else(|e| panic!("{leg}: {q:?}: {e}"));
    let want = restrict(lfp, q);
    assert_eq!(answer.answers(), want, "{leg}: {q:?}");
    // What the read kept, before `answers` restricts it again.
    assert_eq!(
        answer.support().get(&q.pred),
        Some(&want),
        "{leg}: {q:?} kept"
    );
    let read = answer.stats().counters.tuples_scanned;
    assert_eq!(read, want.support_size() as u64, "{leg}: {q:?} read");
}

/// Check 5: `q` through the demand path under `schedule`.
fn assert_demand<P: Pops, S: Schedule<P>>(leg: &str, at: &At<'_, P>, schedule: S, q: &Query) {
    let opts = EngineOpts::default();
    let answer = engine_query_eval_with_opts(at.program, q, at.edb, at.bools, CAP, schedule, &opts)
        .expect("compiles");
    assert!(answer.is_converged(), "{leg}: {q:?} diverged");
    assert_eq!(
        answer.answers(),
        restrict(at.lfp, q),
        "{leg}: demanded {q:?}"
    );
    for (pred, rel) in answer.support().iter() {
        let full = at.lfp.get(pred);
        for (t, v) in rel.support() {
            let want = full.map(|r| r.get(t));
            assert_eq!(
                want.as_ref(),
                Some(v),
                "{leg}: {q:?} demanded {pred}({t:?})"
            );
        }
    }
}

/// Everything an [`InternedOutput`] numbers: its interner, and every
/// relation's interned rows in order.
type Interned<P> = (Vec<dlo_core::Constant>, Vec<(String, Vec<(Vec<u32>, P)>)>);

fn interned<P: Pops>(out: &InternedOutput<P>) -> Interned<P> {
    let interner = out.interner();
    let consts = (0..interner.len() as u32).map(|id| interner.get(id).clone());
    let rows = out.predicates().map(|(pred, _)| {
        let rel = out.relation(pred).expect("listed predicate");
        let rows = rel.iter().map(|(_, key, v)| (key.to_vec(), v.clone()));
        (pred.to_string(), rows.collect())
    });
    (consts.collect(), rows.collect())
}

/// A differential case: build it with [`Case::new`], then run the entry
/// of the strongest tier its POPS admits.
pub struct Case<'a, P: Pops> {
    name: String,
    program: &'a Program<P>,
    edb: &'a Database<P>,
    bools: Option<&'a BoolDatabase>,
    script: &'a [Edit<P>],
    queries: &'a [Query],
    reference: Reference,
}

/// Where each step's reference comes from.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Reference {
    /// The grounded lfp, `naive_eval_sparse`.
    Grounded,
    /// The engine's naïve run from scratch.
    Naive,
    /// The engine's semi-naïve run from scratch; no naïve loop runs.
    SemiNaive,
}

/// What a case observed, for the pins a test keeps beside the oracle.
#[derive(Debug)]
pub struct Report<P: Pops> {
    /// The reference after the last step: the grounded least fixpoint,
    /// unless the case takes it from the engine.
    pub lfp: Database<P>,
    /// The reference's naïve step count on the initial EDB (`None` past
    /// the naïve loop's reach).
    pub naive_steps: Option<usize>,
    /// Per licensed loop, in tier order.
    pub loops: Vec<LoopReport>,
}

/// One loop's stats.
#[derive(Debug)]
pub struct LoopReport {
    /// The schedule, as `Debug` prints it (`Naive`, `SemiNaive`,
    /// `Priority`).
    pub name: String,
    /// The from-scratch run on the initial EDB.
    pub scratch: EvalStats,
    /// The handle's stats for each edit of the script.
    pub edits: Vec<EvalStats>,
}

impl<P: Pops> Report<P> {
    /// The report of the loop `name` ([`LoopReport::name`]).
    pub fn of(&self, name: &str) -> &LoopReport {
        let found = self.loops.iter().find(|l| l.name == name);
        found.unwrap_or_else(|| panic!("no {name} loop ran"))
    }
}

impl<'a, P: Pops> Case<'a, P> {
    /// `program` over `edb`, no Boolean EDB, no edits, no queries.
    pub fn new(name: impl Into<String>, program: &'a Program<P>, edb: &'a Database<P>) -> Self {
        Case {
            name: name.into(),
            program,
            edb,
            bools: None,
            script: &[],
            queries: &[],
            reference: Reference::Grounded,
        }
    }

    /// The Boolean EDB.
    pub fn bools(mut self, bools: &'a BoolDatabase) -> Self {
        self.bools = Some(bools);
        self
    }

    /// The edits every handle applies one at a time.
    pub fn script(mut self, script: &'a [Edit<P>]) -> Self {
        self.script = script;
        self
    }

    /// The queries checked at every step, on the handle and through the
    /// demand path.
    pub fn queries(mut self, queries: &'a [Query]) -> Self {
        self.queries = queries;
        self
    }

    /// Takes each step's reference from the engine's naïve run from
    /// scratch instead of the grounded lfp, for inputs the grounding
    /// cannot match to the bit or in time: products of inexact floats
    /// (every engine plan folds its factors in its rule's textual order,
    /// the grounding does not, and the fixpoints can differ in the last
    /// bit), and dense closures (`n³` ground monomials per step).
    pub fn engine_reference(mut self) -> Self {
        self.reference = Reference::Naive;
        self
    }

    /// For an input past the naïve loop's reach (a chain of thousands of
    /// minted keys is thousands of naïve rounds over thousands of rows,
    /// in the grounding and in the engine alike): no naïve loop runs,
    /// and each step's reference is the engine's semi-naïve run from
    /// scratch.
    pub fn past_naive_reach(mut self) -> Self {
        self.reference = Reference::SemiNaive;
        self
    }
}

impl<P: NaturallyOrdered> Case<'_, P> {
    /// The naïve loop alone: all a naturally ordered POPS licenses
    /// without `⊖`.
    pub fn check_naive(self) -> Report<P> {
        assert!(
            self.reference != Reference::SemiNaive,
            "{}: no loop left",
            self.name
        );
        self.run(vec![naive()], None, |_, _, _| None)
    }
}

impl<P: NaturallyOrdered + CompleteDistributiveDioid> Case<'_, P> {
    /// The naïve and the semi-naïve loop (Thm. 6.5: over a complete
    /// distributive dioid the semi-naïve rounds compute the naïve
    /// iterates' limit).
    pub fn check_rounds(self) -> Report<P> {
        let loops = self.with_naive(vec![semi_naive()]);
        self.run(loops, Some(engine_semi_naive), |p, e, b| {
            Some(grounded_semi_naive(p, e, b))
        })
    }

    /// `loops` behind the naïve loop, unless the input is past its
    /// reach.
    fn with_naive(&self, mut loops: Vec<Box<dyn Loop<P>>>) -> Vec<Box<dyn Loop<P>>> {
        if self.reference != Reference::SemiNaive {
            loops.insert(0, naive());
        }
        loops
    }
}

impl<P> Case<'_, P>
where
    P: NaturallyOrdered + CompleteDistributiveDioid + Absorptive + TotallyOrderedDioid,
{
    /// Every loop: naïve, semi-naïve, and the priority frontier, which
    /// an absorptive total order licenses (Cor. 5.19: each row settles
    /// on its first pop).
    pub fn check(self) -> Report<P> {
        let priority = Box::new(Leg::new(Strategy::Priority, |_| None));
        let loops = self.with_naive(vec![semi_naive(), priority]);
        self.run(loops, Some(engine_semi_naive), |p, e, b| {
            Some(grounded_semi_naive(p, e, b))
        })
    }
}

/// The naïve loop, held to the grounded naïve step count.
fn naive<P: NaturallyOrdered>() -> Box<dyn Loop<P>> {
    Box::new(Leg::new(Naive, |at| at.naive_steps))
}

/// The semi-naïve loop, held to the grounded semi-naïve step count.
fn semi_naive<P>() -> Box<dyn Loop<P>>
where
    P: NaturallyOrdered + CompleteDistributiveDioid,
{
    Box::new(Leg::new(SemiNaive, |at| at.semi_steps))
}

/// Whether a value function of `program` lifts `0` (`f(0) ≠ 0`).
fn lifts_zero<P: Pops>(program: &Program<P>) -> bool {
    let factors = program.rules.iter().flat_map(|r| &r.body);
    let funcs = factors
        .flat_map(|sp| &sp.factors)
        .filter_map(|f| f.func.as_ref());
    funcs.map(|f| f.apply(&P::zero())).any(|v| !v.is_zero())
}

/// The grounded semi-naïve fixpoint and step count.
fn grounded_semi_naive<P>(
    program: &Program<P>,
    edb: &Database<P>,
    bools: &BoolDatabase,
) -> (Database<P>, usize)
where
    P: NaturallyOrdered + CompleteDistributiveDioid,
{
    let outcome = seminaive_eval(program, edb, bools, CAP);
    outcome
        .converged()
        .expect("the grounded semi-naive lfp converges")
}

/// The grounded semi-naïve fixpoint and step count, where licensed.
type Grounded<P> = fn(&Program<P>, &Database<P>, &BoolDatabase) -> Option<(Database<P>, usize)>;

/// A step's reference fixpoint, and the naïve step count when it has one.
type Lfp<P> = fn(&Program<P>, &Database<P>, &BoolDatabase) -> (Database<P>, Option<usize>);

fn grounded_lfp<P: NaturallyOrdered>(
    program: &Program<P>,
    edb: &Database<P>,
    bools: &BoolDatabase,
) -> (Database<P>, Option<usize>) {
    let grounded = naive_eval_sparse(program, edb, bools, CAP);
    let (lfp, steps) = grounded.converged().expect("the grounded lfp converges");
    (lfp, Some(steps))
}

fn engine_naive<P: NaturallyOrdered>(
    program: &Program<P>,
    edb: &Database<P>,
    bools: &BoolDatabase,
) -> (Database<P>, Option<usize>) {
    let run = scratch(program, edb, bools, CAP, Naive, &EngineOpts::default());
    let (out, steps) = run.converged().expect("the naive run converges");
    (out.materialize(), Some(steps))
}

fn engine_semi_naive<P>(
    program: &Program<P>,
    edb: &Database<P>,
    bools: &BoolDatabase,
) -> (Database<P>, Option<usize>)
where
    P: NaturallyOrdered + CompleteDistributiveDioid,
{
    let run = scratch(program, edb, bools, CAP, SemiNaive, &EngineOpts::default());
    let (out, _) = run.converged().expect("the semi-naive run converges");
    (out.materialize(), None)
}

impl<P: NaturallyOrdered> Case<'_, P> {
    fn run(
        self,
        mut loops: Vec<Box<dyn Loop<P>>>,
        semi_naive: Option<Lfp<P>>,
        semi: Grounded<P>,
    ) -> Report<P> {
        let empty = BoolDatabase::new();
        let bools = self.bools.unwrap_or(&empty);
        let reference = match self.reference {
            // The engine reads a row at `0` as no fact and applies no
            // value function to it; the grounded ICO applies every
            // function to every ground atom.
            Reference::Grounded if lifts_zero(self.program) => Reference::Naive,
            reference => reference,
        };
        let lfp_of: Lfp<P> = match reference {
            Reference::Grounded => grounded_lfp,
            Reference::Naive => engine_naive,
            Reference::SemiNaive => semi_naive.expect("licensed"),
        };
        let mut edb = self.edb.clone();
        let mut report = Report {
            lfp: Database::new(),
            naive_steps: None,
            loops: vec![],
        };
        for step in 0..=self.script.len() {
            let edit = step.checked_sub(1).map(|i| &self.script[i]);
            if let Some(edit) = edit {
                mirror(&mut edb, edit);
            }
            let name = match edit {
                None => format!("{}: build", self.name),
                Some(edit) => format!("{}: step {step} ({edit:?})", self.name),
            };
            let (lfp, naive_steps) = lfp_of(self.program, &edb, bools);
            // The step counts are compared where a loop runs from
            // scratch: the build, and the rebuild after the last step.
            let last = step == self.script.len();
            let semi = (reference == Reference::Grounded && (step == 0 || last))
                .then(|| semi(self.program, &edb, bools))
                .flatten();
            if let Some((semi_lfp, _)) = &semi {
                assert_same_facts(&format!("{name}: grounded semi-naive"), &lfp, semi_lfp);
            }
            let at = At {
                name,
                program: self.program,
                edb: &edb,
                bools,
                lfp: &lfp,
                naive_steps,
                semi_steps: semi.map(|(_, steps)| steps),
                edit,
                last: last && step > 0,
                queries: self.queries,
            };
            // A case's queries go through the demand path under every
            // loop; a case with neither queries nor edits sends its
            // patterns through it once, under the strongest loop.
            let strongest = loops.len() - 1;
            let plain = self.queries.is_empty() && self.script.is_empty();
            for (i, leg) in loops.iter_mut().enumerate() {
                leg.step(&at, plain && i == strongest);
            }
            if step == 0 {
                report.naive_steps = naive_steps;
            }
            report.lfp = lfp;
        }
        report.loops = loops.into_iter().map(|l| l.report()).collect();
        report
    }
}

/// One step's shared reference: the mirrored EDB and its lfp.
struct At<'a, P: Pops> {
    name: String,
    program: &'a Program<P>,
    edb: &'a Database<P>,
    bools: &'a BoolDatabase,
    lfp: &'a Database<P>,
    naive_steps: Option<usize>,
    /// The grounded semi-naïve step count, on the first and last step.
    semi_steps: Option<usize>,
    /// The edit this step applied; `None` for the build.
    edit: Option<&'a Edit<P>>,
    /// Whether a script ends here: the handles rebuild.
    last: bool,
    queries: &'a [Query],
}

/// One licensed loop, its schedule type erased.
trait Loop<P: Pops> {
    /// Runs the loop once — from scratch and as the handle's build on
    /// the first step, as the handle's edit on every other, and as its
    /// rebuild after the last of a script — and checks 1–6 (5's
    /// patterns only under `demand_patterns`).
    fn step(&mut self, at: &At<'_, P>, demand_patterns: bool);
    fn report(self: Box<Self>) -> LoopReport;
}

/// A loop's schedule, its handle, and what it reports.
struct Leg<P: Pops, S> {
    schedule: S,
    /// The reference step count this loop's from-scratch run must take.
    grounded_steps: fn(&At<'_, P>) -> Option<usize>,
    handle: Option<Materialization<P, S>>,
    /// The predicates the build decoded: every IDB, empty or not.
    preds: Vec<String>,
    report: Option<LoopReport>,
}

impl<P: Pops, S> Leg<P, S> {
    fn new(schedule: S, grounded_steps: fn(&At<'_, P>) -> Option<usize>) -> Self {
        Leg {
            schedule,
            grounded_steps,
            handle: None,
            preds: vec![],
            report: None,
        }
    }
}

impl<P, S> Loop<P> for Leg<P, S>
where
    P: NaturallyOrdered,
    S: Schedule<P> + Debug,
{
    fn step(&mut self, at: &At<'_, P>, demand_patterns: bool) {
        let schedule = format!("{:?}", self.schedule);
        let leg = format!("{} under {schedule}", at.name);
        let grounded_steps = (self.grounded_steps)(at);
        let mat = match at.edit {
            None => {
                let opts = EngineOpts::default();
                let run = scratch(at.program, at.edb, at.bools, CAP, self.schedule, &opts);
                assert!(run.is_converged(), "{leg}: from scratch diverged");
                let fixpoint = run.output().materialize();
                assert_same_facts(&format!("{leg}, from scratch"), at.lfp, &fixpoint);
                if let Some(grounded) = grounded_steps {
                    assert_eq!(run.stats().steps as usize, grounded, "{leg}: steps");
                }
                let built =
                    Materialization::new(at.program, at.edb, at.bools, CAP, self.schedule, &opts);
                let mut built = built.expect("builds");
                assert_parity(&leg, at.program, &run, &mut built);
                self.preds = fixpoint.iter().map(|(pred, _)| pred.clone()).collect();
                self.report = Some(LoopReport {
                    name: schedule,
                    scratch: run.stats().clone(),
                    edits: vec![],
                });
                self.handle.insert(built)
            }
            Some(edit) => {
                let mat = self.handle.as_mut().expect("built");
                let stats = mat.apply(std::slice::from_ref(edit));
                let stats = stats.unwrap_or_else(|e| panic!("{leg}: {e}")).clone();
                self.report.as_mut().expect("built").edits.push(stats);
                assert_eq!(&mat.edb(), at.edb, "{leg}: the decoded EDB");
                mat
            }
        };
        let live = mat.output().materialize();
        assert_same_facts(&leg, at.lfp, &live);
        let preds: Vec<&String> = live.iter().map(|(pred, _)| pred).collect();
        assert_eq!(
            preds,
            self.preds.iter().collect::<Vec<_>>(),
            "{leg}: predicates"
        );
        for q in patterns(&live) {
            assert_read(&leg, mat, at.lfp, &q);
        }
        if at.edit.is_none() && demand_patterns {
            for q in adornments(&live) {
                assert_demand(&leg, at, self.schedule, &q);
            }
        }
        for q in at.queries {
            assert_read(&leg, mat, at.lfp, q);
            assert_demand(&leg, at, self.schedule, q);
        }
        if at.last {
            let leg = format!("{leg}: rebuild");
            let ids: Vec<_> = {
                let interner = mat.output().interner();
                (0..interner.len() as u32)
                    .map(|id| interner.get(id).clone())
                    .collect()
            };
            let stats = mat.rebuild().unwrap_or_else(|e| panic!("{leg}: {e}"));
            if let Some(grounded) = grounded_steps {
                assert_eq!(stats.steps as usize, grounded, "{leg}: steps");
            }
            assert_eq!(mat.output().materialize(), live, "{leg}: state");
            let interner = mat.output().interner();
            for (id, c) in ids.iter().enumerate() {
                assert_eq!(interner.lookup(c), Some(id as u32), "{leg}: {c:?} moved");
            }
        }
    }

    fn report(self: Box<Self>) -> LoopReport {
        self.report.expect("built")
    }
}

/// Check 3's loop parity: a handle's build and the from-scratch run
/// `run` are the same loop from the same empty state, up to what names
/// the run — the stats label, and the all-zero profile rows of the
/// `@dlt` variant plans only a handle compiles.
fn assert_parity<P: Pops, S: Schedule<P>>(
    leg: &str,
    program: &Program<P>,
    run: &InternedOutcome<P>,
    built: &mut Materialization<P, S>,
) {
    let unnamed = |stats: &EvalStats| {
        let mut inv = stats.invariants();
        inv.strategy.clear();
        inv.rules
            .retain(|r| (r.rule as usize) < program.rules.len());
        inv
    };
    assert_eq!(
        unnamed(run.stats()),
        unnamed(built.last_stats()),
        "{leg}: loop parity, stats"
    );
    assert_eq!(
        interned(run.output()),
        interned(built.output()),
        "{leg}: loop parity, interner and rows"
    );
}
