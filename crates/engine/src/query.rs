//! Query-driven (demand-restricted) evaluation: magic sets end to end.
//!
//! The entry points here take a [`Query`] (`?- T("a", Y).`) next to the
//! program, run `dlo_core::demand::magic_rewrite`, and evaluate the
//! rewritten program natively: magic predicates compile into the same
//! interned, indexed columnar storage as ordinary relations (flagged
//! **set-valued** — stored at `1` once, never merged again, so demand
//! stays on the Bool lattice over any POPS), the magic seed's `Var =
//! const` bindings ride the existing equality pre-binding machinery in
//! the plan compiler, and under the frontier strategies the seed fact
//! is the *only* initial contribution — the frontier is **seeded from
//! the query constants** instead of the whole EDB delta, with
//! magic-fact derivation interleaved between batches exactly like
//! head-key minting.
//!
//! The result is a [`QueryAnswer`]: a decode-free handle exposing the
//! query-restricted rows, the full derived support (everything the
//! demanded fragment computed — the differential-testing surface: each
//! of its rows must carry exactly its full-fixpoint value), and the
//! raw [`InternedOutput`] for reading without a decode.

use crate::driver::{empty_aborted, evaluate, EngineOpts, Schedule};
use crate::govern::EvalError;
use crate::output::{AbortedEval, InternedOutcome, InternedOutput};
use dlo_core::ast::Program;
use dlo_core::demand::{magic_rewrite, DemandError};
use dlo_core::eval::EvalStats;
use dlo_core::query::Query;
use dlo_core::relation::{BoolDatabase, Database, Relation};
use dlo_core::value::Constant;
use dlo_pops::Pops;
use std::time::Instant;

/// The outcome of a query evaluation: the demand-restricted fixpoint in
/// interned form, plus the query metadata needed to read it. A
/// [`crate::Materialization::query`] answer is a *standing* one: read off
/// the fixpoint the handle holds, it carries only the answer rows, in 0
/// steps, with no magic or dropped predicates.
///
/// Everything is deferred: [`Self::get`] probes interned state,
/// [`Self::answers`] decodes one predicate and restricts it to the
/// query bindings, [`Self::support`] decodes the whole demanded
/// fragment, and [`Self::into_interned`] hands over the interned storage
/// without any decode.
#[derive(Clone, Debug)]
pub struct QueryAnswer<P> {
    pub(crate) outcome: InternedOutcome<P>,
    pub(crate) query: Query,
    pub(crate) magic_preds: Vec<String>,
    pub(crate) dropped_preds: Vec<String>,
}

impl<P: Pops> QueryAnswer<P> {
    /// Whether the demanded fixpoint converged under the cap.
    pub fn is_converged(&self) -> bool {
        self.outcome.is_converged()
    }

    /// Steps taken (global iterations or frontier batches, by
    /// strategy; 0 on a standing answer), or `None` if the run hit its
    /// cap.
    pub fn steps(&self) -> Option<usize> {
        match &self.outcome {
            InternedOutcome::Converged { steps, .. } => Some(*steps),
            InternedOutcome::Diverged { .. } => None,
        }
    }

    /// The evaluation telemetry of the demanded run (rewrite + setup
    /// time is folded into the `setup` phase), or of the read behind a
    /// standing answer.
    pub fn stats(&self) -> &EvalStats {
        self.outcome.stats()
    }

    /// The EXPLAIN/profile report for the demanded run (see
    /// [`EvalStats::explain`]) — per-plan attribution includes the
    /// generated magic rules.
    pub fn explain(&self) -> String {
        self.outcome.explain()
    }

    /// The query this answer was computed for.
    pub fn query(&self) -> &Query {
        &self.query
    }

    /// The generated magic predicates (present in
    /// [`Self::support_with_demand`] and the interned output).
    pub fn magic_preds(&self) -> &[String] {
        &self.magic_preds
    }

    /// IDBs whose rules the rewrite dropped: no demand reaches them.
    pub fn dropped_preds(&self) -> &[String] {
        &self.dropped_preds
    }

    /// The value of `query_pred(tuple)` without any decode. Only
    /// meaningful for tuples matching the query's bound positions;
    /// rows outside the demanded fragment are simply absent.
    pub fn get(&self, tuple: &[Constant]) -> Option<&P> {
        if !self.query.matches(tuple) {
            return None;
        }
        self.outcome.output().get(&self.query.pred, tuple)
    }

    /// The **demanded relation restriction**: the queried predicate's
    /// rows matching the query's bound constants, decoded. This is the
    /// answer in the magic-sets sense — exactly the query-matching
    /// slice of the full fixpoint (cross-checked in
    /// `tests/backend_matrix.rs` and `tests/proptest_engine.rs`). Only
    /// the matching rows are decoded, and only the constants they hold
    /// are ranked.
    pub fn answers(&self) -> Relation<P> {
        self.outcome
            .output()
            .materialize_answers(&self.query)
            .unwrap_or_else(|| Relation::new(self.query.arity()))
    }

    /// The **full derived support**: every non-magic IDB row the
    /// demanded fragment computed, decoded. A strict subset of the full
    /// fixpoint's support in general, but value-exact on every row it
    /// carries — the differential-testing surface. A standing answer
    /// has no demanded fragment: its support is the answer, the queried
    /// predicate's matching rows and nothing else.
    pub fn support(&self) -> Database<P> {
        let out = self.outcome.output();
        let mut db = Database::new();
        let names: Vec<String> = out
            .predicates()
            .map(|(n, _)| n.to_string())
            .filter(|n| !self.magic_preds.contains(n))
            .collect();
        for name in names {
            if let Some(rel) = out.materialize_pred(&name) {
                db.insert(&name, rel);
            }
        }
        db
    }

    /// [`Self::support`] including the magic (demand) relations —
    /// useful to inspect *what* was demanded.
    pub fn support_with_demand(&self) -> Database<P> {
        self.outcome.output().materialize()
    }

    /// The interned payload (magic relations included), borrowed.
    pub fn interned(&self) -> &InternedOutput<P> {
        self.outcome.output()
    }

    /// Consumes the answer into its [`InternedOutput`], for decode-free
    /// reads ([`InternedOutput::get`], [`InternedOutput::relation`]).
    pub fn into_interned(self) -> InternedOutput<P> {
        match self.outcome {
            InternedOutcome::Converged { output, .. } => output,
            InternedOutcome::Diverged { last, .. } => last,
        }
    }
}

/// The typed error of a query the program cannot answer (an unknown
/// predicate, a wrong arity), on every query front.
pub(crate) fn unanswerable(e: DemandError) -> EvalError {
    EvalError::Compile {
        detail: format!("dlo_engine cannot evaluate this query: {e}"),
    }
}

/// Query-driven evaluation under `schedule` (the query-seeded
/// counterpart of [`crate::engine_eval_interned`]): magic-set rewrite,
/// then the schedule's loop over the rewritten program (the rewrite
/// counts into the setup phase). Under the priority frontier the magic
/// seed pops first and demand spreads Dijkstra-interleaved with
/// answers; the rewrite itself is sound for any POPS (see
/// `dlo_core::demand`), so [`crate::Naive`] and [`crate::SemiNaive`]
/// apply demand restriction to the weaker classes too. Results are
/// bit-identical at any thread count, exactly as for the full-fixpoint
/// entry point: threads only build the EDB indexes.
///
/// # Errors
///
/// Every failure is a boxed [`AbortedEval`], as for
/// [`crate::engine_eval_interned`]: the typed error (`?` converts it)
/// plus the abort-time state of the **demanded** fragment — the
/// rewritten program's IDBs, its magic relations (`dlo_core::magic_pred`
/// of each demanded predicate) included. The partial answers are
/// [`Query::restrict`] of the queried predicate's relation in
/// [`crate::PartialOutput::materialize_settled`]: exact under the
/// priority frontier (Cor. 5.19, settled-on-pop), a pointwise lower
/// bound otherwise. The variants are those of
/// [`crate::engine_eval_interned`], plus [`EvalError::Compile`] on
/// queries the rewrite rejects (unknown predicate, arity mismatch),
/// which carries an empty partial.
pub fn engine_query_eval_with_opts<P, S>(
    program: &Program<P>,
    query: &Query,
    pops_edb: &Database<P>,
    bool_edb: &BoolDatabase,
    cap: usize,
    schedule: S,
    opts: &EngineOpts,
) -> Result<QueryAnswer<P>, Box<AbortedEval<P>>>
where
    P: Pops + Send,
    S: Schedule<P>,
{
    let t = Instant::now();
    let dp = magic_rewrite(program, query).map_err(|e| empty_aborted(unanswerable(e)))?;
    let outcome = evaluate(
        t,
        &dp.program,
        pops_edb,
        bool_edb,
        &dp.magic_preds,
        cap,
        schedule,
        opts,
    )?;
    Ok(QueryAnswer {
        outcome,
        query: dp.query,
        magic_preds: dp.magic_preds,
        dropped_preds: dp.dropped_preds,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::tests::eval;
    use crate::driver::{Naive, SemiNaive};
    use crate::worklist::Strategy;
    use dlo_core::examples_lib as ex;
    use dlo_core::query::QueryArg;
    use dlo_core::tup;
    use dlo_pops::{MinNat, PreSemiring, Trop};

    #[test]
    fn sssp_point_query_answers_match_the_full_fixpoint() {
        let (program, edb) = ex::sssp_trop("a");
        let bools = BoolDatabase::new();
        let full = eval(&program, &edb, &bools, 1_000_000, Strategy::Priority).unwrap();
        let q = Query::point("L", vec!["d".into()]);
        for strategy in [Strategy::SemiNaive, Strategy::Worklist, Strategy::Priority] {
            let qa = engine_query_eval_with_opts(
                &program,
                &q,
                &edb,
                &bools,
                1_000_000,
                strategy,
                &EngineOpts::default(),
            )
            .expect("query compiles");
            assert!(qa.is_converged(), "{strategy:?}");
            let answers = qa.answers();
            assert_eq!(answers.get(&tup!["d"]), Trop::finite(8.0), "{strategy:?}");
            // Every demanded row is value-exact against the full run.
            for (pred, rel) in qa.support().iter() {
                let full_rel = full.get(pred).expect("demanded pred exists in full run");
                for (t, v) in rel.support() {
                    assert_eq!(full_rel.get(t), v.clone(), "{strategy:?} {pred}({t:?})");
                }
            }
            // Decode-free probe agrees with the decoded relation.
            assert_eq!(qa.get(&["d".into()]), Some(&Trop::finite(8.0)));
            assert_eq!(qa.get(&["a".into()]), None, "non-matching tuple");
        }
    }

    #[test]
    fn apsp_single_source_demands_one_row_per_target() {
        // All-pairs program, single-source question: the demanded T
        // support must stay O(n), not O(n²).
        let (program, edb) = ex::apsp_trop(&[
            ("a", "b", 1.0),
            ("b", "a", 2.0),
            ("b", "c", 3.0),
            ("c", "d", 4.0),
            ("a", "c", 5.0),
        ]);
        let bools = BoolDatabase::new();
        let q = Query::new("T", vec![QueryArg::bound("a"), QueryArg::Free]);
        let qa = engine_query_eval_with_opts(
            &program,
            &q,
            &edb,
            &bools,
            1_000_000,
            Strategy::Priority,
            &EngineOpts::default(),
        )
        .expect("query compiles");
        let answers = qa.answers();
        assert_eq!(answers.get(&tup!["a", "d"]), Trop::finite(8.0));
        // Demand restricted: only sources reachable demand-wise (just
        // "a" here — the magic rule propagates the *source* column,
        // which the recursive occurrence keeps fixed).
        let support = qa.support();
        let t = support.get("T").unwrap();
        assert!(t.support().all(|(tu, _)| tu[0] == "a".into()), "{t:?}");
        let full = eval(&program, &edb, &bools, 1_000_000, Strategy::Priority).unwrap();
        assert_eq!(&answers, &q.restrict(full.get("T").unwrap().clone()));
    }

    #[test]
    fn set_valued_magic_survives_non_idempotent_sums() {
        // Company-control style: ℝ₊'s ⊕ is +, so without set-valued
        // clamping the cyclic magic rules would pump 1 ⊕ 1 ⊕ … forever.
        let (program, pops, bools) = ex::company_control(
            &["a", "b", "c", "d"],
            &[
                ("a", "b", 0.75),
                ("b", "c", 0.375),
                ("a", "c", 0.25),
                ("c", "d", 0.625),
                ("b", "d", 0.25),
            ],
        );
        let q = Query::new("T", vec![QueryArg::bound("a"), QueryArg::Free]);
        let qa = engine_query_eval_with_opts(
            &program,
            &q,
            &pops,
            &bools,
            1000,
            Naive,
            &EngineOpts::default(),
        )
        .expect("query compiles");
        assert!(qa.is_converged(), "magic stays on the Bool lattice");
        let full = eval(&program, &pops, &bools, 1000, Naive).unwrap();
        assert_eq!(&qa.answers(), &q.restrict(full.get("T").unwrap().clone()));
        assert_eq!(
            qa.answers().get(&tup!["a", "d"]),
            full.get("T").unwrap().get(&tup!["a", "d"])
        );
        // The demand relation holds 1s only.
        let demand = qa.support_with_demand();
        let m = demand.get(qa.magic_preds()[0].as_str()).unwrap();
        assert!(m.support().all(|(_, v)| v.is_one()));
    }

    #[test]
    fn counter_queries_fall_back_to_all_free_and_stay_exact() {
        // The counter's recursive occurrence N(I) sees no bound
        // variable (the head term is a key function, which binds
        // nothing backwards), so the adornment meet weakens N to
        // all-free: the query path must compute the full reachable
        // fragment — minted keys included — and restrict.
        use dlo_core::ast::{Atom, Factor, KeyFn, SumProduct, Term};
        use dlo_core::formula::{CmpOp, Formula};
        let mut p = dlo_core::Program::<MinNat>::new();
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
        let pops = Database::new();
        let bools = BoolDatabase::new();
        let full = eval(&p, &pops, &bools, 100, SemiNaive).unwrap();
        let q = Query::point("N", vec![3i64.into()]);
        for strategy in [Strategy::SemiNaive, Strategy::Worklist, Strategy::Priority] {
            let qa = engine_query_eval_with_opts(
                &p,
                &q,
                &pops,
                &bools,
                1_000_000,
                strategy,
                &EngineOpts::default(),
            )
            .expect("query compiles");
            assert!(qa.magic_preds().is_empty(), "all-free fallback");
            assert_eq!(&qa.answers(), &q.restrict(full.get("N").unwrap().clone()));
        }
    }

    #[test]
    fn magic_heads_mint_demand_keys_between_batches() {
        // R(X) :- S(X).  R(X) :- R(X - 1) ⊗ E(X).
        // X is bound by the plain E(X) factor, so the occurrence
        // R(X - 1) adorns bound and the magic rule's HEAD applies the
        // shift: m_R(X - 1) :- m_R(X) ⊗ @demand(E(X)). Querying R(7)
        // with E = {5, 7} demands key 6 — a constant no EDB or program
        // term mentions, minted between batches exactly like an
        // answer-side head key.
        use dlo_core::ast::{Atom, Factor, KeyFn, SumProduct, Term};
        let mut p = dlo_core::Program::<MinNat>::new();
        p.rule(
            Atom::new("R", vec![Term::v(0)]),
            vec![SumProduct::new(vec![Factor::atom("S", vec![Term::v(0)])])],
        );
        p.rule(
            Atom::new("R", vec![Term::v(0)]),
            vec![SumProduct::new(vec![
                Factor::atom(
                    "R",
                    vec![Term::Apply(KeyFn::AddInt(-1), Box::new(Term::v(0)))],
                ),
                Factor::atom("E", vec![Term::v(0)]),
            ])],
        );
        let mut pops = Database::new();
        pops.insert(
            "S",
            dlo_core::Relation::from_pairs(1, vec![(tup![3i64], MinNat::finite(1))]),
        );
        pops.insert(
            "E",
            dlo_core::Relation::from_pairs(
                1,
                vec![
                    (tup![4i64], MinNat::finite(1)),
                    (tup![5i64], MinNat::finite(1)),
                    (tup![7i64], MinNat::finite(1)),
                ],
            ),
        );
        let bools = BoolDatabase::new();
        let full = eval(&p, &pops, &bools, 100, SemiNaive).unwrap();
        // Positive query: R(5) is derivable (3 → 4 → 5).
        let q5 = Query::point("R", vec![5i64.into()]);
        // Past-the-data query: demand for R(7) asks for R(6) — key 6 is
        // minted as a demand constant, finds nothing, answers empty.
        let q7 = Query::point("R", vec![7i64.into()]);
        for strategy in [Strategy::SemiNaive, Strategy::Worklist, Strategy::Priority] {
            let qa5 = engine_query_eval_with_opts(
                &p,
                &q5,
                &pops,
                &bools,
                1_000_000,
                strategy,
                &EngineOpts::default(),
            )
            .expect("query compiles");
            assert!(!qa5.magic_preds().is_empty(), "rewrite applied");
            assert_eq!(&qa5.answers(), &q5.restrict(full.get("R").unwrap().clone()));
            assert_eq!(qa5.answers().support_size(), 1, "{strategy:?}");

            let qa7 = engine_query_eval_with_opts(
                &p,
                &q7,
                &pops,
                &bools,
                1_000_000,
                strategy,
                &EngineOpts::default(),
            )
            .expect("query compiles");
            assert_eq!(&qa7.answers(), &q7.restrict(full.get("R").unwrap().clone()));
            assert!(qa7.answers().is_empty(), "{strategy:?}: R(7) underivable");
            // The minted demand key 6 is really in the magic relation.
            let demand = qa7.support_with_demand();
            let m = demand.get(qa7.magic_preds()[0].as_str()).unwrap();
            assert_eq!(
                m.get(&tup![6i64]),
                MinNat::one(),
                "{strategy:?}: demand key 6 was minted"
            );
        }
    }

    #[test]
    fn domain_enumerated_programs_fall_back_to_full() {
        // A(X) :- B(X + 1): no join binds X, so evaluators enumerate it
        // over the active domain. A magic guard would re-scope X to the
        // demanded set — with a query constant (2) outside the domain
        // ({0, 5}), the query path would derive A(2) although the full
        // fixpoint has no such row. The rewrite must detect this and
        // fall back to unrestricted evaluation.
        use dlo_core::ast::{Atom, Factor, KeyFn, SumProduct, Term};
        use dlo_core::formula::{CmpOp, Formula};
        let mut p = dlo_core::Program::<MinNat>::new();
        p.rule(
            Atom::new("B", vec![Term::c(0)]),
            vec![SumProduct::new(vec![]).with_coeff(MinNat::finite(1))],
        );
        p.rule(
            Atom::new(
                "B",
                vec![Term::Apply(KeyFn::AddInt(1), Box::new(Term::v(0)))],
            ),
            vec![SumProduct::new(vec![Factor::atom("B", vec![Term::v(0)])])
                .with_condition(Formula::cmp(Term::v(0), CmpOp::Lt, Term::c(5)))],
        );
        p.rule(
            Atom::new("A", vec![Term::v(0)]),
            vec![SumProduct::new(vec![Factor::atom(
                "B",
                vec![Term::Apply(KeyFn::AddInt(1), Box::new(Term::v(0)))],
            )])],
        );
        let pops = Database::new();
        let bools = BoolDatabase::new();
        let full = eval(&p, &pops, &bools, 100, SemiNaive).unwrap();
        let q = Query::point("A", vec![2i64.into()]);
        for strategy in [Strategy::SemiNaive, Strategy::Worklist, Strategy::Priority] {
            let qa = engine_query_eval_with_opts(
                &p,
                &q,
                &pops,
                &bools,
                1_000_000,
                strategy,
                &EngineOpts::default(),
            )
            .expect("query compiles");
            assert!(qa.magic_preds().is_empty(), "domain-enumeration fallback");
            assert_eq!(
                &qa.answers(),
                &q.restrict(full.get("A").unwrap().clone()),
                "{strategy:?}: answers must stay a restriction of the full fixpoint"
            );
            assert!(qa.answers().is_empty(), "2 is outside the active domain");
        }
    }

    #[test]
    fn dropped_rules_never_run() {
        let mut program = ex::apsp_program::<Trop>();
        program.rule(
            dlo_core::ast::Atom::new("Huge", vec![dlo_core::ast::Term::v(0)]),
            vec![dlo_core::ast::SumProduct::new(vec![
                dlo_core::ast::Factor::atom("F", vec![dlo_core::ast::Term::v(0)]),
            ])],
        );
        let (_, edb) = ex::apsp_trop(&[("a", "b", 1.0)]);
        let q = Query::new("T", vec![QueryArg::bound("a"), QueryArg::Free]);
        let qa = engine_query_eval_with_opts(
            &program,
            &q,
            &edb,
            &BoolDatabase::new(),
            1_000_000,
            Strategy::Priority,
            &EngineOpts::default(),
        )
        .expect("query compiles");
        assert_eq!(qa.dropped_preds(), &["Huge".to_string()]);
        assert!(qa.support().get("Huge").is_none());
        let _ = PreSemiring::is_one(&Trop::one()); // keep the trait import used
    }

    #[test]
    fn unknown_query_predicate_is_a_typed_compile_error() {
        let (program, edb) = ex::sssp_trop("a");
        let q = Query::point("Nope", vec!["a".into()]);
        let err = engine_query_eval_with_opts(
            &program,
            &q,
            &edb,
            &BoolDatabase::new(),
            1000,
            Strategy::Priority,
            &EngineOpts::default(),
        )
        .expect_err("unknown predicate must be rejected");
        assert_eq!(
            err.partial().interned().predicates().count(),
            0,
            "empty partial"
        );
        let err = EvalError::from(err);
        assert_eq!(err.kind(), "compile");
        assert!(err.stats().is_none(), "no run happened");
        match err {
            EvalError::Compile { detail } => {
                assert!(detail.contains("cannot evaluate this query"), "{detail}");
            }
            other => panic!("expected Compile, got {other:?}"),
        }
    }
}
