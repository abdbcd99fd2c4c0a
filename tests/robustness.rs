//! Fault-tolerance suite: typed compile errors, resource budgets,
//! cancellation, deadline-bounded termination, and poisoned
//! materializations recovering through `rebuild()`.
//!
//! Three legs:
//!
//! * **Compile regressions** — one test per [`EvalError::Compile`]
//!   cause (arity > 32, mixed-arity heads, ragged EDB tuples) pinning
//!   that every entry point returns the typed error instead of
//!   panicking.
//! * **Governance properties** — random graph and keyed programs under
//!   tiny budgets, zero deadlines, and pre-cancelled tokens: no panic
//!   escapes, every error carries populated [`EvalStats`], and a
//!   successful re-run after a budget error is bit-identical to the
//!   ungoverned run.
//! * **Injected failures** — edits forced over a ceiling poison the
//!   [`Materialization`]; `rebuild()` recovers bit-identically to a
//!   from-scratch build of the retained EDB, across strategies.
//! * **Graceful degradation** — governed aborts carry a
//!   `PartialOutput`: exact on the priority frontier's settled rows
//!   (differentially pinned against the ungoverned fixpoint), a
//!   pointwise lower bound elsewhere.

use std::time::{Duration, Instant};

use datalog_o::core::ast::{Atom, Factor, SumProduct, Term};
use datalog_o::core::{
    magic_pred, parse_program, parse_query, BoolDatabase, Database, Edit, EvalOutcome, FactInsert,
    Program, Relation,
};
use datalog_o::pops::{NNReal, Pops, PreSemiring, Trop};
use datalog_o::{
    engine_eval_interned, engine_query_eval_with_opts, CancelToken, EngineOpts, EvalBudget,
    EvalError, EvalStats, Materialization, Naive, PartialOutput, Schedule, SemiNaive, Strategy,
};
use proptest::prelude::*;
use proptest::strategy::Strategy as PropStrategy;

const CAP: usize = 1_000_000;

/// One evaluation under `schedule`, decoded, with the partial dropped:
/// the shape most legs here assert on (outcome, or typed error).
fn eval<P: Pops, S: Schedule<P>>(
    program: &Program<P>,
    edb: &Database<P>,
    bools: &BoolDatabase,
    cap: usize,
    schedule: S,
    opts: &EngineOpts,
) -> Result<EvalOutcome<P>, EvalError> {
    Ok(engine_eval_interned(program, edb, bools, cap, schedule, opts)?.materialize())
}

fn k(s: &str) -> datalog_o::core::Constant {
    s.into()
}

/// `T(X, Y) :- E(X, Y) + T(X, Z) * E(Z, Y).` over Trop.
fn apsp() -> Program<Trop> {
    parse_program("T(X, Y) :- E(X, Y) + T(X, Z) * E(Z, Y).").unwrap()
}

fn chain_edb(n: usize) -> Database<Trop> {
    let mut db = Database::new();
    db.insert(
        "E",
        Relation::from_pairs(
            2,
            (0..n).map(|i| {
                (
                    vec![k(&format!("n{i}")), k(&format!("n{}", i + 1))],
                    Trop::finite(1.0),
                )
            }),
        ),
    );
    db
}

fn opts_with(budget: EvalBudget, cancel: Option<CancelToken>, threads: usize) -> EngineOpts {
    EngineOpts {
        threads: Some(threads),
        budget,
        cancel,
        ..EngineOpts::default()
    }
}

/// An error's stats must be a real snapshot of the aborted run, not a
/// default: governance counters recorded, strategy label set.
fn assert_populated(err: &EvalError, governed: bool) {
    let stats = err
        .stats()
        .unwrap_or_else(|| panic!("{} error must carry stats", err.kind()));
    assert!(
        !stats.strategy.is_empty(),
        "{}: stats.strategy empty",
        err.kind()
    );
    if governed {
        assert!(
            stats.counters.budget_checks > 0 || stats.counters.cancel_polls > 0,
            "{}: governed abort recorded no checks",
            err.kind()
        );
    }
}

// ---------------------------------------------------------------------
// Compile regressions: one per CompileError cause.
// ---------------------------------------------------------------------

/// Every front — the full entry point under each schedule, the query
/// rewrite, a [`Materialization`] build — rejects `program` over `edb`
/// and `bools` with a typed compile error that names `cause` and
/// predates any run.
/// The fronts run under `catch_unwind`, so a panic reads as this
/// check's failure, not as a crashed test binary.
fn assert_compile_error_on_every_front(
    program: &Program<Trop>,
    edb: &Database<Trop>,
    bools: &BoolDatabase,
    query: &str,
    cause: &str,
) {
    let opts = EngineOpts::default();
    let query = parse_query(query).unwrap();
    let errors = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let naive = engine_eval_interned(program, edb, bools, 10, Naive, &opts).expect_err("naive");
        let partial = naive.partial().interned();
        assert_eq!(
            partial.predicates().count(),
            0,
            "nothing ran: the partial is empty"
        );
        let mut errors = vec![
            EvalError::from(naive),
            eval(program, edb, bools, 10, SemiNaive, &opts).expect_err("semi-naive"),
        ];
        for strategy in [Strategy::SemiNaive, Strategy::Worklist, Strategy::Priority] {
            errors.push(eval(program, edb, bools, 10, strategy, &opts).expect_err("strategy"));
        }
        let on = Strategy::SemiNaive;
        let answer = engine_query_eval_with_opts(program, &query, edb, bools, 10, on, &opts);
        errors.push(answer.expect_err("query front").into());
        let mat = Materialization::new(program, edb, bools, 10, on, &opts);
        errors.push(mat.err().expect("materialization front"));
        errors
    }))
    .expect("no front may panic on public input");
    for err in errors {
        match &err {
            EvalError::Compile { detail } => assert!(detail.contains(cause), "got: {detail}"),
            other => panic!("expected EvalError::Compile, got {other:?}"),
        }
        assert_eq!(err.kind(), "compile");
        assert!(err.stats().is_none(), "compile errors predate any run");
    }
}

/// An atom wider than the engine's 32-column storage limit is a typed
/// compile error from every entry point — never a panic.
#[test]
fn arity_over_32_is_a_typed_compile_error() {
    let mut p = Program::<Trop>::new();
    let wide: Vec<Term> = (0..33u32).map(Term::v).collect();
    p.rule(
        Atom::new("W", wide.clone()),
        vec![SumProduct::new(vec![Factor::atom("A", wide)])],
    );
    let all_w = format!("?- W({}).", vec!["X"; 33].join(", "));
    let (none, bools) = (Database::new(), BoolDatabase::new());
    assert_compile_error_on_every_front(&p, &none, &bools, &all_w, "ArityTooLarge");
    // A head can be wide on its own — 33 copies of one body variable —
    // and it is the head key the executor assembles in a 32-cell buffer.
    let mut q = Program::<Trop>::new();
    q.rule(
        Atom::new("W", vec![Term::v(0); 33]),
        vec![SumProduct::new(vec![Factor::atom("A", vec![Term::v(0)])])],
    );
    let mut edb = Database::new();
    edb.insert(
        "A",
        Relation::from_pairs(1, [(vec![1.into()], Trop::finite(1.0))]),
    );
    assert_compile_error_on_every_front(&q, &edb, &bools, &all_w, "ArityTooLarge");
}

/// One head predicate at two arities — columnar storage fixes one arity
/// per relation — is rejected the same way.
#[test]
fn mixed_arity_heads_are_typed_compile_errors_everywhere() {
    let mut p = Program::<Trop>::new();
    p.rule(
        Atom::new("T", vec![Term::v(0)]),
        vec![SumProduct::new(vec![Factor::atom("A", vec![Term::v(0)])])],
    );
    p.rule(
        Atom::new("T", vec![Term::v(0), Term::v(1)]),
        vec![SumProduct::new(vec![Factor::atom(
            "B",
            vec![Term::v(0), Term::v(1)],
        )])],
    );
    let (edb, bools) = (Database::new(), BoolDatabase::new());
    assert_compile_error_on_every_front(&p, &edb, &bools, "?- T(\"a\").", "HeadArityMismatch");
}

/// A ragged tuple in the EDB — `Relation` checks tuple lengths in debug
/// builds only, so a release caller can build one — is malformed input,
/// rejected by name where the EDB is loaded instead of tripping the
/// loader's row-boundary assert. Release-only: a debug build trips
/// `Relation::merge`'s own `debug_assert` while the database is made.
#[cfg(not(debug_assertions))]
#[test]
fn ragged_edb_tuples_are_typed_compile_errors_everywhere() {
    let text = "T(X, Y) :- E(X, Y) | G(X) + T(X, Z) * E(Z, Y).";
    let program: Program<Trop> = parse_program(text).unwrap();
    let query = "?- T(\"a\", Y).";
    let (ab, w) = (vec![k("a"), k("b")], Trop::finite(1.0));
    let (mut edb, mut bools) = (Database::new(), BoolDatabase::new());
    edb.insert("E", Relation::from_pairs(2, [(ab.clone(), w)]));
    bools.insert(
        "G",
        datalog_o::core::bool_relation(1, [vec![k("a")], ab.clone()]),
    );
    assert_compile_error_on_every_front(&program, &edb, &bools, query, "\"G\" has arity 1");
    edb.insert("E", Relation::from_pairs(2, [(ab, w), (vec![k("b")], w)]));
    assert_compile_error_on_every_front(&program, &edb, &bools, query, "\"E\" has arity 2");
}

// ---------------------------------------------------------------------
// Deadline-bounded termination on a genuinely divergent program.
// ---------------------------------------------------------------------

/// An unguarded counter mints a fresh key every step — the program has
/// no finite fixpoint. A wall-clock deadline must stop the run promptly
/// (checks are per phase; phases here are microseconds) with a typed
/// error carrying the partial stats.
#[test]
fn deadline_bounds_a_divergent_run() {
    let program: Program<Trop> = parse_program(
        "N(X) :- V(X).\n\
         N(X + 1) :- N(X).",
    )
    .unwrap();
    let mut edb = Database::new();
    edb.insert(
        "V",
        Relation::from_pairs(1, vec![(vec![0i64.into()], Trop::finite(0.0))]),
    );
    let bools = BoolDatabase::new();
    let deadline = Duration::from_millis(200);
    for strategy in [Strategy::SemiNaive, Strategy::Worklist, Strategy::Priority] {
        let opts = opts_with(EvalBudget::default().with_deadline(deadline), None, 1);
        let t = Instant::now();
        let err = eval(&program, &edb, &bools, usize::MAX, strategy, &opts)
            .expect_err("negative cycle cannot converge");
        let elapsed = t.elapsed();
        assert_eq!(err.kind(), "deadline", "{strategy:?}");
        assert_populated(&err, true);
        assert!(
            elapsed < deadline * 2 + Duration::from_millis(250),
            "{strategy:?}: took {elapsed:?} against a {deadline:?} deadline"
        );
    }
}

/// A pre-cancelled token stops every strategy at its first phase
/// boundary, with `cancel_polls` recorded in the carried stats.
#[test]
fn pre_cancelled_token_stops_every_strategy() {
    let program = apsp();
    let edb = chain_edb(64);
    let bools = BoolDatabase::new();
    let token = CancelToken::new();
    token.cancel();
    for strategy in [Strategy::SemiNaive, Strategy::Worklist, Strategy::Priority] {
        let opts = opts_with(EvalBudget::default(), Some(token.clone()), 1);
        let err = eval(&program, &edb, &bools, CAP, strategy, &opts)
            .expect_err("pre-cancelled run must not complete");
        assert_eq!(err.kind(), "cancelled", "{strategy:?}");
        let stats = err.stats().expect("cancelled carries stats");
        assert!(stats.counters.cancel_polls > 0, "{strategy:?}");
    }
}

/// Governance counters are thread-invariant: a budgeted-but-successful
/// run reports identical deterministic stats (and nonzero
/// `budget_checks`) at 1, 2, and 4 threads.
#[test]
fn budget_counters_are_thread_invariant() {
    let program = apsp();
    let edb = chain_edb(24);
    let bools = BoolDatabase::new();
    for strategy in [Strategy::SemiNaive, Strategy::Worklist, Strategy::Priority] {
        let mut baseline: Option<(EvalOutcome<Trop>, EvalStats)> = None;
        for threads in [1usize, 2, 4] {
            let budget = EvalBudget::default().with_max_steps(1_000_000);
            let opts = opts_with(budget, None, threads);
            let out =
                eval(&program, &edb, &bools, CAP, strategy, &opts).expect("well within budget");
            let stats = out.stats().clone();
            assert!(stats.counters.budget_checks > 0, "{strategy:?}");
            match &baseline {
                None => baseline = Some((out, stats)),
                Some((b_out, b_stats)) => {
                    assert_eq!(
                        b_out, &out,
                        "{strategy:?}: outcome differs at {threads} threads"
                    );
                    assert_eq!(
                        b_stats.invariants(),
                        stats.invariants(),
                        "{strategy:?}: governed stats differ at {threads} threads"
                    );
                }
            }
        }
    }
}

/// Ungoverned runs pay nothing observable: both counters stay zero.
#[test]
fn ungoverned_runs_record_no_governance_counters() {
    let program = apsp();
    let edb = chain_edb(8);
    let bools = BoolDatabase::new();
    for strategy in [Strategy::SemiNaive, Strategy::Worklist, Strategy::Priority] {
        let out = eval(
            &program,
            &edb,
            &bools,
            CAP,
            strategy,
            &EngineOpts::default(),
        )
        .expect("compiles");
        let s = out.stats();
        assert_eq!(s.counters.budget_checks, 0, "{strategy:?}");
        assert_eq!(s.counters.cancel_polls, 0, "{strategy:?}");
    }
}

// ---------------------------------------------------------------------
// Injected failures: poisoning and recovery.
// ---------------------------------------------------------------------

/// Forces an edit over a one-row budget, then checks the full poisoned
/// lifecycle: the edit reports the typed error, later calls return
/// [`EvalError::Poisoned`], `rebuild()` under a restored budget
/// recovers, and the recovered state is bit-identical to a from-scratch
/// build over the retained (post-edit) EDB.
fn assert_poison_and_rebuild(strategy: Strategy) {
    let program = apsp();
    let edb = chain_edb(12);
    let bools = BoolDatabase::new();
    let opts = EngineOpts::default();
    let mut mat = Materialization::new(&program, &edb, &bools, CAP, strategy, &opts)
        .expect("ungoverned build succeeds");
    assert!(mat.poisoned().is_none());

    // A long bridge edge derives many new paths: guaranteed to trip a
    // one-row emit ceiling mid-loop.
    let edit = [FactInsert::new(
        "E",
        vec![k("n12"), k("n0")],
        Trop::finite(0.5),
    )];
    mat.set_budget(EvalBudget::default().with_max_rows(1));
    let err = mat.insert(&edit).expect_err("one-row ceiling must trip");
    assert_eq!(err.kind(), "budget", "{strategy:?}");
    assert_populated(&err, true);
    let reason = mat.poisoned().expect("failed edit poisons").to_string();
    assert!(
        reason.contains("rebuild"),
        "reason advertises recovery: {reason}"
    );

    // Every entry point on a poisoned handle short-circuits.
    assert_eq!(mat.insert(&edit).expect_err("poisoned").kind(), "poisoned");
    assert_eq!(
        mat.delete(&[datalog_o::core::FactDelete::new(
            "E",
            vec![k("n0"), k("n1")]
        )])
        .expect_err("poisoned")
        .kind(),
        "poisoned"
    );
    let q = parse_query("?- T(\"n0\", Y).").unwrap();
    assert_eq!(mat.query(&q).expect_err("poisoned").kind(), "poisoned");

    // A rebuild under the tripping budget fails and stays poisoned.
    assert_eq!(
        mat.rebuild().expect_err("budget still trips").kind(),
        "budget"
    );
    assert!(mat.poisoned().is_some());

    // Restore the budget: rebuild re-derives from the retained EDB
    // (which includes the failed edit's staged facts) and the handle is
    // live again.
    mat.set_budget(EvalBudget::unlimited());
    let epoch_before = mat.epoch();
    mat.rebuild().expect("ungoverned rebuild succeeds");
    assert!(mat.poisoned().is_none());
    assert!(mat.epoch() > epoch_before, "epochs stay monotone");

    let recovered = mat.output().materialize();
    let scratch = Materialization::new(&program, &mat.edb(), &bools, CAP, strategy, &opts)
        .expect("from-scratch build on the retained EDB");
    let mut scratch = scratch;
    assert_eq!(
        recovered,
        scratch.output().materialize(),
        "{strategy:?}: recovered state is not the from-scratch fixpoint"
    );

    // And the recovered handle accepts edits again.
    mat.insert(&[FactInsert::new(
        "E",
        vec![k("n3"), k("n0")],
        Trop::finite(2.0),
    )])
    .expect("recovered handle is live");
}

#[test]
fn poisoned_materialization_rebuilds_bit_identically() {
    for strategy in [Strategy::SemiNaive, Strategy::Worklist, Strategy::Priority] {
        assert_poison_and_rebuild(strategy);
    }
}

/// Cancellation mid-lifecycle poisons too, and `set_cancel(None)`
/// plus `rebuild()` recovers.
#[test]
fn cancelled_edit_poisons_and_rebuild_recovers() {
    let program = apsp();
    let edb = chain_edb(6);
    let bools = BoolDatabase::new();
    let mut mat = Materialization::new(
        &program,
        &edb,
        &bools,
        CAP,
        Strategy::SemiNaive,
        &EngineOpts::default(),
    )
    .expect("compiles");
    let token = CancelToken::new();
    token.cancel();
    mat.set_cancel(Some(token));
    let err = mat
        .insert(&[FactInsert::new(
            "E",
            vec![k("n6"), k("n0")],
            Trop::finite(1.0),
        )])
        .expect_err("pre-cancelled edit");
    assert_eq!(err.kind(), "cancelled");
    assert!(mat.poisoned().is_some());
    mat.set_cancel(None);
    mat.rebuild().expect("rebuild after clearing the token");
    assert!(mat.poisoned().is_none());
}

/// Invalid batches are rejected *before* staging: the typed error comes
/// back, but the handle is not poisoned and keeps accepting edits.
#[test]
fn invalid_edits_reject_without_poisoning() {
    let program = apsp();
    let edb = chain_edb(4);
    let bools = BoolDatabase::new();
    let mut mat = Materialization::new(
        &program,
        &edb,
        &bools,
        CAP,
        Strategy::SemiNaive,
        &EngineOpts::default(),
    )
    .expect("compiles");
    let unknown = mat
        .insert(&[FactInsert::new("Nope", vec![k("a")], Trop::finite(1.0))])
        .expect_err("unknown predicate");
    assert_eq!(unknown.kind(), "compile");
    let arity = mat
        .insert(&[FactInsert::new("E", vec![k("a")], Trop::finite(1.0))])
        .expect_err("arity mismatch");
    assert_eq!(arity.kind(), "compile");
    assert!(mat.poisoned().is_none(), "bad input must not poison");
    mat.insert(&[FactInsert::new(
        "E",
        vec![k("n4"), k("n0")],
        Trop::finite(1.0),
    )])
    .expect("handle still live");
}

// ---------------------------------------------------------------------
// Governance properties on random programs.
// ---------------------------------------------------------------------

fn random_edb(edges: &[(usize, usize, u8)]) -> Database<Trop> {
    let mut db = Database::new();
    db.insert(
        "E",
        Relation::from_pairs(
            2,
            edges.iter().map(|&(u, v, w)| {
                (
                    vec![(u as i64).into(), (v as i64).into()],
                    Trop::finite(w as f64),
                )
            }),
        ),
    );
    db
}

fn edges_strategy() -> impl PropStrategy<Value = Vec<(usize, usize, u8)>> {
    (3usize..8).prop_flat_map(|n| proptest::collection::vec(((0..n), (0..n), 1u8..9), 1..=3 * n))
}

/// Every governed run either matches the ungoverned outcome exactly or
/// returns a typed, stats-carrying error — and a later ungoverned run
/// on the same inputs is bit-identical to the reference. No panics.
fn assert_governed_behavior(
    program: &Program<Trop>,
    edb: &Database<Trop>,
    bools: &BoolDatabase,
) -> Result<(), TestCaseError> {
    for strategy in [Strategy::SemiNaive, Strategy::Worklist, Strategy::Priority] {
        let free = eval(
            program,
            edb,
            bools,
            CAP,
            strategy,
            &opts_with(EvalBudget::default(), None, 2),
        )
        .expect("ungoverned reference run");
        let pre_cancelled = {
            let t = CancelToken::new();
            t.cancel();
            t
        };
        let regimes: Vec<(&str, EngineOpts)> = vec![
            (
                "steps-0",
                opts_with(EvalBudget::default().with_max_steps(0), None, 2),
            ),
            (
                "steps-1",
                opts_with(EvalBudget::default().with_max_steps(1), None, 2),
            ),
            (
                "rows-1",
                opts_with(EvalBudget::default().with_max_rows(1), None, 2),
            ),
            (
                "rows-32",
                opts_with(EvalBudget::default().with_max_rows(32), None, 2),
            ),
            (
                "deadline-0",
                opts_with(EvalBudget::default().with_deadline(Duration::ZERO), None, 2),
            ),
            (
                "cancelled",
                opts_with(EvalBudget::default(), Some(pre_cancelled), 2),
            ),
        ];
        for (label, opts) in &regimes {
            match eval(program, edb, bools, CAP, strategy, opts) {
                Ok(out) => prop_assert_eq!(
                    &free,
                    &out,
                    "{:?}/{}: governed success must match the ungoverned outcome",
                    strategy,
                    label
                ),
                Err(err) => {
                    prop_assert!(
                        matches!(err.kind(), "budget" | "deadline" | "cancelled"),
                        "{:?}/{}: unexpected error kind {}",
                        strategy,
                        label,
                        err.kind()
                    );
                    assert_populated(&err, true);
                }
            }
        }
        // Re-running ungoverned after the governed failures is still
        // bit-identical: aborted runs leak no state.
        let again = eval(
            program,
            edb,
            bools,
            CAP,
            strategy,
            &opts_with(EvalBudget::default(), None, 2),
        )
        .expect("ungoverned re-run");
        prop_assert_eq!(&free, &again, "{:?}: re-run after aborts differs", strategy);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Budgets, zero deadlines, and pre-cancelled tokens on random
    /// APSP instances: no panics, typed errors with populated stats,
    /// and bit-identical ungoverned re-runs.
    #[test]
    fn governed_runs_never_panic_on_random_graphs(edges in edges_strategy()) {
        let program = apsp();
        let edb = random_edb(&edges);
        assert_governed_behavior(&program, &edb, &BoolDatabase::new())?;
    }

    /// The same property on a head-key-minting program (the counter
    /// rule mints fresh constants, exercising the minted-id ceiling's
    /// code path alongside steps/rows/deadline).
    #[test]
    fn governed_runs_never_panic_on_keyed_programs(edges in edges_strategy()) {
        let program: Program<Trop> = parse_program(
            "R(X) :- V(X).\n\
             R(X + 1) :- R(X) | X < 6.",
        )
        .unwrap();
        let mut edb = random_edb(&edges);
        edb.insert(
            "V",
            Relation::from_pairs(1, (0..4i64).map(|i| (vec![i.into()], Trop::finite(i as f64)))),
        );
        assert_governed_behavior(&program, &edb, &BoolDatabase::new())?;
        // And the minted-id ceiling specifically: the counter mints
        // fresh keys, so a zero ceiling must abort with the Rows/Minted
        // budget error rather than panicking.
        let opts = opts_with(EvalBudget::default().with_max_minted(0), None, 2);
        match eval(&program, &edb, &BoolDatabase::new(), CAP, Strategy::SemiNaive, &opts) {
            Ok(_) => {}
            Err(err) => {
                prop_assert_eq!(err.kind(), "budget");
                assert_populated(&err, true);
            }
        }
    }

    /// Materialization edits under tiny budgets on random graphs: the
    /// edit either succeeds or poisons with a typed error, and
    /// `rebuild()` under no budget always recovers to exactly the
    /// from-scratch fixpoint of the retained EDB.
    #[test]
    fn governed_edits_poison_and_recover_on_random_graphs(edges in edges_strategy()) {
        let program = apsp();
        let edb = random_edb(&edges);
        let bools = BoolDatabase::new();
        let opts = EngineOpts::default();
        let mut mat = Materialization::new(&program, &edb, &bools, CAP,
                                           Strategy::SemiNaive, &opts)
            .expect("compiles");
        mat.set_budget(EvalBudget::default().with_max_rows(1));
        let edit = [FactInsert::new("E", vec![0i64.into(), 1i64.into()], Trop::finite(0.5))];
        match mat.insert(&edit) {
            Ok(_) => prop_assert!(mat.poisoned().is_none()),
            Err(err) => {
                prop_assert_eq!(err.kind(), "budget");
                assert_populated(&err, true);
                prop_assert!(mat.poisoned().is_some());
                mat.set_budget(EvalBudget::unlimited());
                mat.rebuild().expect("ungoverned rebuild");
            }
        }
        prop_assert!(mat.poisoned().is_none());
        let got = mat.output().materialize();
        let oracle = eval(&program, &mat.edb(), &bools, CAP, SemiNaive, &EngineOpts::default()).expect("compiles")
            .converged()
            .expect("bounded")
            .0;
        for (pred, r) in oracle.iter() {
            let empty = Relation::new(r.arity());
            prop_assert_eq!(r, got.get(pred).unwrap_or(&empty),
                "{} diverges from from-scratch after recovery", pred);
        }
    }
}

// ---------------------------------------------------------------------
// Graceful degradation: partial results on abort.
// ---------------------------------------------------------------------

/// The PR's acceptance differential: a priority-strategy run aborted by
/// a step budget returns a partial whose **settled** rows carry exactly
/// the ungoverned fixpoint's values (budget aborts are deterministic:
/// steps count value buckets).
#[test]
fn aborted_priority_run_returns_exact_settled_partial() {
    let program = apsp();
    let edb = chain_edb(200);
    let bools = BoolDatabase::new();
    let full = eval(
        &program,
        &edb,
        &bools,
        CAP,
        Strategy::Priority,
        &EngineOpts::default(),
    )
    .expect("reference run")
    .unwrap();

    let opts = EngineOpts {
        budget: EvalBudget::default().with_max_steps(40),
        ..EngineOpts::default()
    };
    let aborted = engine_eval_interned(&program, &edb, &bools, CAP, Strategy::Priority, &opts)
        .expect_err("a 40-step budget must trip on a 200-node chain");
    assert_eq!(aborted.error().kind(), "budget");
    assert_populated(aborted.error(), true);
    let partial = aborted.partial();
    assert!(partial.is_exact(), "priority partials are exact");
    assert!(
        partial.settled().settled_rows() > 0,
        "settled prefix must be non-empty"
    );
    let settled = partial.materialize_settled();
    let mut checked = 0usize;
    for (pred, rel) in settled.iter() {
        let full_rel = full.get(pred).expect("settled pred exists in the fixpoint");
        for (t, v) in rel.support() {
            assert_eq!(
                full_rel.get(t),
                v.clone(),
                "settled {pred}({t:?}) must be final"
            );
            checked += 1;
        }
    }
    assert!(checked > 0, "the differential actually compared rows");
    // Decode-free probe agrees with the decoded settled relation.
    let t0 = vec![k("n0"), k("n1")];
    if let Some(v) = partial.settled_value("T", &t0) {
        assert_eq!(full.get("T").unwrap().get(&t0), v.clone());
    }
}

/// The query path degrades the same way: a demanded priority run
/// stopped by its budget returns settled partial answers that are
/// value-exact against the full fixpoint's query restriction.
#[test]
fn aborted_query_returns_exact_settled_partial_answers() {
    let program = apsp();
    let edb = chain_edb(200);
    let bools = BoolDatabase::new();
    let full = eval(
        &program,
        &edb,
        &bools,
        CAP,
        Strategy::Priority,
        &EngineOpts::default(),
    )
    .expect("reference run")
    .unwrap();
    let q = parse_query("?- T(\"n0\", Y).").unwrap();
    let opts = opts_with(EvalBudget::default().with_max_steps(30), None, 1);
    let aborted =
        engine_query_eval_with_opts(&program, &q, &edb, &bools, CAP, Strategy::Priority, &opts)
            .expect_err("a 30-step budget must trip on the demanded 200-chain");
    assert_eq!(aborted.error().kind(), "budget");
    assert!(
        aborted.partial().is_exact(),
        "priority query partials are exact"
    );
    // The partial is the demanded fragment's state: the queried
    // predicate's magic relation is in it and holds the seed key.
    let demanded = aborted.partial().interned();
    let magic = magic_pred("T");
    assert!(
        demanded.predicates().any(|(name, _)| name == magic),
        "the partial names {magic}"
    );
    assert_eq!(
        demanded.get(&magic, &[k("n0")]),
        Some(&Trop::one()),
        "{magic} holds the seed key"
    );
    let settled = aborted.partial().materialize_settled();
    let partial_answers = q.restrict(settled.get("T").expect("T in the partial").clone());
    let full_t = full.get("T").expect("T in fixpoint");
    let mut rows = 0usize;
    for (t, v) in partial_answers.support() {
        assert_eq!(full_t.get(t), v.clone(), "partial answer T({t:?})");
        rows += 1;
    }
    assert!(rows > 0, "some answers settled before the abort");
}

/// Failure paths enumerated, not sampled, for the frontier loop: on the
/// gradient graph every bucket holds one node (`dist(i) = i`) while the
/// superseded jump guesses sit stale in the queue, and a step budget of
/// `k` stops the run at each bucket in turn. Budget 0 trips before the
/// index build with nothing settled; a budget of `1 ≤ k < n` runs `k`
/// buckets and trips at the next one, whose popped row is marked before
/// the check — so exactly nodes `0..=k` are settled, at their final
/// values, and no other row reads as final; `n` buckets fit a budget of
/// `n`.
#[test]
fn priority_abort_at_every_bucket_keeps_the_exact_settled_prefix() {
    const N: usize = 32;
    let graph = dlo_bench::GraphInstance::gradient(N);
    let (program, edb) = graph.sssp();
    let bools = BoolDatabase::new();
    let ungoverned = eval(
        &program,
        &edb,
        &bools,
        CAP,
        Strategy::Priority,
        &EngineOpts::default(),
    )
    .expect("reference run");
    let full = ungoverned.clone().unwrap();
    for k in 0..=N as u64 {
        let leg = format!("max_steps {k}");
        let opts = opts_with(EvalBudget::default().with_max_steps(k), None, 1);
        let run = engine_eval_interned(&program, &edb, &bools, CAP, Strategy::Priority, &opts);
        if k == N as u64 {
            let outcome = run.expect("n buckets fit a budget of n");
            assert_eq!(outcome.stats().steps, k, "{leg}");
            assert_eq!(outcome.materialize(), ungoverned, "{leg}");
            continue;
        }
        let aborted = run.expect_err("fewer than n steps cannot finish");
        assert_eq!(aborted.error().kind(), "budget", "{leg}");
        let partial = aborted.partial();
        assert!(partial.is_exact(), "{leg}: priority partials are exact");
        let settled = if k == 0 { 0 } else { k as usize + 1 };
        assert_eq!(partial.settled().settled_rows(), settled as u64, "{leg}");
        for i in 0..N {
            let expected = (i < settled).then(|| Trop::finite(i as f64));
            assert_eq!(
                partial.settled_value("L", &[graph.node(i)]),
                expected.as_ref(),
                "{leg}: L({i})"
            );
        }
        assert_partial_below(&leg, partial, true, &full);
    }
}

/// The same enumeration for edits on a live handle under the semi-naïve
/// rounds (named twice: `SemiNaive` and `Worklist`) and the priority
/// frontier: the shortcut `0 → n/2` inserted into the gradient graph
/// and retracted again, each stopped by a step budget of every `k`
/// below the edit's own step count (an insert's seed round and one
/// round or bucket per improved batch; a delete's
/// marking rounds first, then the same). Every stop is the typed budget
/// error, poisons the handle and leaves its mid-flight state on
/// `partial()` — best-effort, a pointwise lower bound of the post-edit
/// fixpoint on an insert; what the priority order had popped by then is
/// marked and already final, semi-naïve rounds mark nothing — and
/// `rebuild()` under a lifted budget lands on the
/// from-scratch build of the edited EDB. A budget of the step count
/// itself lets the edit through (one more under the semi-naïve rounds,
/// whose count leaves out the seed round).
///
/// A delete stopped after its marking has zeroed its cone in place —
/// the sixteen rows behind the shortcut — and brought back only what
/// its buckets reached: the live state holds rows at `0`, tombstones
/// that the partial holds as they stand. None of them may show: the
/// partial's readers skip them, and the poisoned handle's reads — `get`,
/// `support_size`, `output()` — show exactly what the partial shows.
#[test]
fn edits_abort_at_every_step_poison_and_rebuild() {
    const N: usize = 32;
    let graph = dlo_bench::GraphInstance::gradient(N);
    let (program, edb) = graph.sssp();
    let bools = BoolDatabase::new();
    let opts = EngineOpts::default();
    let shortcut = vec![graph.node(0), graph.node(N / 2)];
    let insert = [Edit::insert("E", shortcut.clone(), Trop::finite(0.5))];
    let delete = [Edit::delete("E", shortcut)];
    for strategy in [Strategy::SemiNaive, Strategy::Worklist, Strategy::Priority] {
        let build = |edb: &Database<Trop>| {
            Materialization::new(&program, edb, &bools, CAP, strategy, &opts)
                .expect("ungoverned build succeeds")
        };
        let mut widened = build(&edb);
        widened.apply(&insert).expect("ungoverned insert");
        let widened_edb = widened.edb().clone();
        for (kind, before, edit) in [("insert", &edb, &insert), ("delete", &widened_edb, &delete)] {
            let mut reference = build(before);
            let own_steps = reference.apply(edit).expect("ungoverned edit").steps;
            let after = reference.output().materialize();
            assert_eq!(after, build(&reference.edb()).output().materialize());
            assert!(own_steps as usize >= N / 2, "{strategy:?} {kind}");

            let mut marked_somewhere = false;
            let mut tombstones_somewhere = false;
            for budget in 0..=own_steps {
                let leg = format!("{strategy:?} {kind} under max_steps {budget}");
                let mut mat = build(before);
                mat.set_budget(EvalBudget::default().with_max_steps(budget));
                if budget == own_steps {
                    let stats = mat.apply(edit).expect("the edit's own step count fits");
                    assert_eq!(stats.steps, own_steps, "{leg}");
                    assert_eq!(mat.output().materialize(), after, "{leg}");
                    continue;
                }
                let err = mat.apply(edit).expect_err("fewer steps cannot finish");
                assert_eq!(err.kind(), "budget", "{leg}");
                assert_populated(&err, true);
                assert!(mat.poisoned().is_some(), "{leg}: poisoned");
                let partial = mat.partial().expect("the poison keeps the partial");
                if kind == "insert" {
                    assert_partial_below(&leg, partial, false, &after);
                }
                assert!(
                    !partial.is_exact(),
                    "{leg}: an edit's partial is best-effort"
                );
                let rows = partial.interned().relation("L").expect("L is derived");
                assert!(rows.iter().all(|(_, _, v)| !v.is_zero()), "{leg}: a 0 row");
                tombstones_somewhere |= rows.iter().count() < rows.len();
                for i in 0..N {
                    let read = mat.get("L", &[graph.node(i)]);
                    assert_eq!(read, partial.interned().get("L", &[graph.node(i)]), "{leg}");
                }
                for (pred, rel) in partial.materialize_settled().iter() {
                    for (t, v) in rel.support() {
                        assert_eq!(after.get(pred).unwrap().get(t), *v, "{leg}: {pred}({t:?})");
                        marked_somewhere = true;
                    }
                }
                if strategy != Strategy::Priority {
                    assert_eq!(partial.settled().settled_rows(), 0, "{leg}");
                }
                let shown = partial.interned().clone();
                assert_eq!(mat.support_size("L"), shown.support_size("L"), "{leg}");
                let out = mat.output();
                for i in 0..N {
                    let key = [graph.node(i)];
                    assert_eq!(out.get("L", &key), shown.get("L", &key), "{leg}: L({i})");
                }

                mat.set_budget(EvalBudget::unlimited());
                mat.rebuild().expect("ungoverned rebuild succeeds");
                assert!(mat.poisoned().is_none() && mat.partial().is_none(), "{leg}");
                assert_eq!(mat.edb(), reference.edb(), "{leg}: the edit's EDB effect");
                assert_eq!(mat.output().materialize(), after, "{leg}: rebuilt");
            }
            assert_eq!(
                marked_somewhere,
                strategy == Strategy::Priority,
                "{strategy:?} {kind}: rows marked on pop"
            );
            assert_eq!(
                tombstones_somewhere,
                kind == "delete",
                "{strategy:?} {kind}: some stop fell between the zero-out and the last bucket"
            );
        }
    }
}

/// What an abort must hand back, whichever entry point and schedule
/// produced it: a partial sitting pointwise below the least fixpoint,
/// exact on its settled rows precisely when the schedule settles on pop.
fn assert_partial_below(
    leg: &str,
    partial: &PartialOutput<Trop>,
    exact: bool,
    full: &Database<Trop>,
) {
    assert_eq!(partial.is_exact(), exact, "{leg}: exactness");
    // Magic (demand) relations of the query legs have no counterpart in
    // the full fixpoint; every other row is bounded by it.
    for (pred, rel) in partial.materialize().iter() {
        let Some(full_rel) = full.get(pred) else {
            continue;
        };
        for (t, v) in rel.support() {
            assert!(v.leq(&full_rel.get(t)), "{leg}: {pred}({t:?}) above lfp");
        }
    }
    if exact {
        for (pred, rel) in partial.materialize_settled().iter() {
            let Some(full_rel) = full.get(pred) else {
                continue;
            };
            for (t, v) in rel.support() {
                assert_eq!(full_rel.get(t), v.clone(), "{leg}: settled {pred}({t:?})");
            }
        }
    }
}

/// Both entry points under `schedule`, stopped by a zero deadline
/// and by one-step / one-row budgets: each returns `Err(aborted)` with
/// the partial attached, and `EvalError::from(aborted)` is the variant
/// the bare-error entry points used to return.
fn assert_aborts_carry_partial<S: Schedule<Trop> + std::fmt::Debug>(schedule: S, exact: bool) {
    let program = apsp();
    let edb = chain_edb(40);
    let bools = BoolDatabase::new();
    let free = EngineOpts::default();
    let prev = engine_eval_interned(&program, &edb, &bools, CAP, schedule, &free)
        .expect("reference run")
        .converged()
        .expect("bounded")
        .0;
    let full = prev.materialize();
    let q = parse_query("?- T(\"n0\", Y).").unwrap();
    let regimes = [
        (
            "deadline-0",
            EvalBudget::default().with_deadline(Duration::ZERO),
            "deadline",
        ),
        ("steps-1", EvalBudget::default().with_max_steps(1), "budget"),
        ("rows-1", EvalBudget::default().with_max_rows(1), "budget"),
    ];
    for (regime, budget, kind) in regimes {
        let opts = opts_with(budget, None, 2);
        let leg = format!("{schedule:?}/{regime}");
        let evals = [engine_eval_interned(
            &program, &edb, &bools, CAP, schedule, &opts,
        )];
        for ran in evals {
            let aborted = ran.expect_err(&leg);
            assert_partial_below(&leg, aborted.partial(), exact, &full);
            assert_populated(aborted.error(), true);
            assert_eq!(EvalError::from(aborted).kind(), kind, "{leg}");
        }
        let queries = [engine_query_eval_with_opts(
            &program, &q, &edb, &bools, CAP, schedule, &opts,
        )];
        for ran in queries {
            let aborted = ran.expect_err(&leg);
            assert_partial_below(&leg, aborted.partial(), exact, &full);
            let full_t = full.get("T").expect("T in lfp");
            let settled = aborted.partial().materialize_settled();
            if let Some(settled_t) = settled.get("T") {
                for (t, v) in q.restrict(settled_t.clone()).support() {
                    assert!(v.leq(&full_t.get(t)), "{leg}: answer T({t:?}) above lfp");
                }
            }
            assert_eq!(EvalError::from(aborted).kind(), kind, "{leg}");
        }
    }
}

/// Aborts always carry the partial — there is no entry point left that
/// drops it — and a compile rejection rides the same channel with an
/// empty one. (That `SemiNaive` and `Strategy` are not schedules for a
/// POPS without `⊖` is pinned by the `compile_fail` doctests in
/// `dlo_engine`; `Naive` over `NNReal` type-checks below.)
#[test]
fn aborts_always_carry_the_partial() {
    assert_aborts_carry_partial(Naive, false);
    assert_aborts_carry_partial(SemiNaive, false);
    assert_aborts_carry_partial(Strategy::SemiNaive, false);
    assert_aborts_carry_partial(Strategy::Worklist, false);
    assert_aborts_carry_partial(Strategy::Priority, true);
    assert_aborts_carry_partial(Strategy::Auto, true);

    let mut mixed = Program::<NNReal>::new();
    mixed.rule(
        Atom::new("T", vec![Term::v(0)]),
        vec![SumProduct::new(vec![Factor::atom("A", vec![Term::v(0)])])],
    );
    mixed.rule(
        Atom::new("T", vec![Term::v(0), Term::v(1)]),
        vec![SumProduct::new(vec![Factor::atom(
            "B",
            vec![Term::v(0), Term::v(1)],
        )])],
    );
    let (edb, bools, opts) = (Database::new(), BoolDatabase::new(), EngineOpts::default());
    let rejected = engine_eval_interned(&mixed, &edb, &bools, 10, Naive, &opts)
        .expect_err("mixed-arity heads must not compile");
    assert_eq!(rejected.partial().interned().predicates().count(), 0);
    assert_eq!(rejected.partial().settled().settled_rows(), 0);
    assert_eq!(EvalError::from(rejected).kind(), "compile");
    let q = parse_query("?- Nope(\"a\").").unwrap();
    let rejected = engine_query_eval_with_opts(&mixed, &q, &edb, &bools, 10, Naive, &opts)
        .expect_err("unknown query predicate");
    assert_eq!(rejected.partial().materialize_settled().iter().count(), 0);
    assert_eq!(rejected.partial().interned().predicates().count(), 0);
    assert_eq!(EvalError::from(rejected).kind(), "compile");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Partial outputs are pointwise lower bounds of the fixpoint on
    /// every strategy (the `J(t) ⊑ lfp` loop invariant), and exact on
    /// the priority frontier's settled rows.
    #[test]
    fn partials_are_lower_bounds_and_priority_settled_rows_are_exact(
        edges in edges_strategy()
    ) {
        let program = apsp();
        let edb = random_edb(&edges);
        let bools = BoolDatabase::new();
        let full = eval(&program, &edb, &bools, CAP, Strategy::Priority, &EngineOpts::default()).expect("reference").unwrap();
        for strategy in [Strategy::SemiNaive, Strategy::Worklist, Strategy::Priority] {
            for max_steps in [0u64, 1, 2, 4] {
                let opts = opts_with(
                    EvalBudget::default().with_max_steps(max_steps), None, 2);
                let Err(aborted) = engine_eval_interned(&program, &edb, &bools, CAP, strategy, &opts) else { continue };
                prop_assert_eq!(aborted.error().kind(), "budget");
                let partial = aborted.partial();
                prop_assert_eq!(
                    partial.is_exact(),
                    matches!(strategy, Strategy::Priority),
                    "exactness is a priority-only promise"
                );
                // Every partial row sits ⊑-below its fixpoint value.
                let snap = partial.materialize();
                for (pred, rel) in snap.iter() {
                    for (t, v) in rel.support() {
                        let fv = full.get(pred)
                            .map(|r| r.get(t))
                            .unwrap_or_else(Trop::bottom);
                        prop_assert!(
                            v.leq(&fv),
                            "{:?}: partial {}({:?}) = {:?} above fixpoint {:?}",
                            strategy, pred, t, v, fv
                        );
                    }
                }
                // Settled rows are bit-exact.
                let settled = partial.materialize_settled();
                if partial.is_exact() {
                    for (pred, rel) in settled.iter() {
                        for (t, v) in rel.support() {
                            prop_assert_eq!(
                                full.get(pred).expect("pred in fixpoint").get(t),
                                v.clone(),
                                "settled {}({:?}) not final", pred, t
                            );
                        }
                    }
                }
            }
        }
    }

    /// The priority frontier's settled set under a step budget is
    /// bit-identical at 1, 2, and 4 threads (budget aborts are
    /// deterministic — steps count value buckets).
    #[test]
    fn priority_settled_sets_are_thread_invariant(edges in edges_strategy()) {
        let program = apsp();
        let edb = random_edb(&edges);
        let bools = BoolDatabase::new();
        for max_steps in [1u64, 3] {
            let mut baseline: Option<(bool, Database<Trop>)> = None;
            for threads in [1usize, 2, 4] {
                let opts = EngineOpts {
                    threads: Some(threads),
                    budget: EvalBudget::default().with_max_steps(max_steps),
                    ..EngineOpts::default()
                };
                let got = match engine_eval_interned(&program, &edb, &bools, CAP, Strategy::Priority, &opts) {
                    Ok(_) => (true, Database::new()),
                    Err(aborted) => (false, aborted.partial().materialize_settled()),
                };
                match &baseline {
                    None => baseline = Some(got),
                    Some(base) => prop_assert_eq!(
                        base, &got,
                        "settled set differs at {} threads (max_steps {})",
                        threads, max_steps
                    ),
                }
            }
        }
    }
}
