//! # datalog-o — Datalog over (pre-)semirings
//!
//! Umbrella crate re-exporting the full workspace: a production-quality
//! implementation of *Convergence of Datalog over (Pre-) Semirings*
//! (PODS 2022). See the README for a tour.
//!
//! ```
//! use datalog_o::core::{parse_program, naive_eval, BoolDatabase, Database, Relation, Program};
//! use datalog_o::pops::Trop;
//!
//! // All-pairs shortest paths = transitive closure over (min, +).
//! let program: Program<Trop> =
//!     parse_program("T(X, Y) :- E(X, Y) + T(X, Z) * E(Z, Y).").unwrap();
//!
//! let mut edb = Database::new();
//! edb.insert("E", Relation::from_pairs(2, vec![
//!     (vec!["a".into(), "b".into()], Trop::finite(1.0)),
//!     (vec!["b".into(), "c".into()], Trop::finite(3.0)),
//! ]));
//!
//! let out = naive_eval(&program, &edb, &BoolDatabase::new(), 10_000).unwrap();
//! assert_eq!(out.get("T").unwrap()
//!               .get(&vec!["a".into(), "c".into()]), Trop::finite(4.0));
//! ```
//!
//! A governed run that stops early fails with its partial attached;
//! escalation is the caller's loop — rerun under a larger budget:
//!
//! ```
//! use datalog_o::core::{parse_program, BoolDatabase, Database, Program, Relation};
//! use datalog_o::pops::Trop;
//! use datalog_o::{engine_eval_interned, EngineOpts, EvalBudget, SemiNaive};
//!
//! let program: Program<Trop> =
//!     parse_program("T(X, Y) :- E(X, Y) + T(X, Z) * E(Z, Y).").unwrap();
//! let edge = |i: i64| (vec![i.into(), (i + 1).into()], Trop::finite(1.0));
//! let mut edb = Database::new();
//! edb.insert("E", Relation::from_pairs(2, (0..8).map(edge)));
//! let bools = BoolDatabase::new();
//! let run = |budget| {
//!     let opts = EngineOpts { budget, ..EngineOpts::default() };
//!     engine_eval_interned(&program, &edb, &bools, 10_000, SemiNaive, &opts)
//! };
//! let outcome = match run(EvalBudget::default().with_max_steps(2)) {
//!     Err(aborted) if aborted.error().kind() == "budget" => run(EvalBudget::unlimited()).unwrap(),
//!     _ => unreachable!("closing a 9-node chain takes more than 2 steps"),
//! };
//! assert_eq!(outcome.materialize(), datalog_o::eval(&program, &edb, &bools).unwrap());
//! ```

#![forbid(unsafe_code)]

pub use dlo_core as core;
pub use dlo_engine as engine;
pub use dlo_fixpoint as fixpoint;
pub use dlo_pops as pops;
pub use dlo_provenance as provenance;
pub use dlo_semilin as semilin;
pub use dlo_wellfounded as wellfounded;

// The engine backend's surface at top level, next to the grounded and
// relational backends re-exported through `core`: two entry points,
// the schedule argument they take, and the result/option types.
pub use dlo_engine::{
    engine_eval_interned, engine_query_eval_with_opts, AbortedEval, AbortedQuery, BudgetKind,
    CancelToken, EngineOpts, EvalBudget, EvalError, EvalStats, InternedOutcome, InternedOutput,
    JsonlSink, Materialization, MemorySink, Naive, PartialOutput, QueryAnswer, RuleProfile,
    Schedule, SemiNaive, SettledMark, Strategy, TraceEvent, TraceHandle, TraceSink,
};

/// Evaluates a program with the **default backend**: the execution
/// engine's semi-naïve schedule ([`engine_eval_interned`] with
/// [`SemiNaive`], decoded), which covers the full language surface
/// natively (interned and indexed) — including key
/// functions in rule heads. Reach for the grounded or
/// relational backends through [`core`] only for exotic POPS outside
/// the naturally-ordered dioids, or for iteration traces — and for the
/// totally ordered absorptive dioids (`Trop`, `MinNat`, `MaxMin`,
/// `Bool`) prefer [`eval_frontier`], which runs the Dijkstra-style
/// priority frontier instead of global iterations.
///
/// # Errors
///
/// [`EvalError::Compile`] on programs the engine's columnar storage
/// cannot represent: an atom of arity > 32, or one head predicate used
/// at two arities. Never panics.
pub fn eval<P>(
    program: &core::Program<P>,
    pops_edb: &core::Database<P>,
    bool_edb: &core::BoolDatabase,
) -> Result<core::EvalOutcome<P>, EvalError>
where
    P: pops::NaturallyOrdered + pops::CompleteDistributiveDioid + Send + Sync,
{
    Ok(engine_eval_interned(
        program,
        pops_edb,
        bool_edb,
        core::DEFAULT_CAP,
        SemiNaive,
        &EngineOpts::default(),
    )?
    .materialize())
}

/// Default divergence cap for the frontier entry point. Frontier
/// `steps` count per-value batches (or row pops), not global
/// iterations, so the iteration-scale [`core::DEFAULT_CAP`] would
/// falsely flag large *bounded* runs as diverged — one batch per
/// distinct value means a 1M-row output can legitimately need far more
/// than 100k steps.
pub const FRONTIER_DEFAULT_CAP: usize = 100_000_000;

/// Evaluates with the engine's **priority frontier**
/// ([`engine_eval_interned`] with [`Strategy::Auto`], decoded):
/// worklist-driven, settled-on-pop evaluation for totally ordered absorptive dioids
/// (Sec. 5 / Cor. 5.19 — every polynomial over a 0-stable semiring is
/// `N`-stable, so per-fact change propagation terminates). On
/// long-chain fixpoints this replaces one global iteration per chain
/// link with one bucket drain per distinct value. Every batch runs on
/// the calling thread (`DLO_ENGINE_THREADS` only sizes the pool that
/// builds the EDB indexes beforehand), so results are bit-identical at
/// any thread count. The divergence cap is [`FRONTIER_DEFAULT_CAP`] (frontier
/// steps are finer-grained than global iterations). For pipelines that
/// feed results back into the engine, [`engine_eval_interned`] skips
/// the `Database` materialization entirely.
///
/// # Errors
///
/// As [`eval`].
pub fn eval_frontier<P>(
    program: &core::Program<P>,
    pops_edb: &core::Database<P>,
    bool_edb: &core::BoolDatabase,
) -> Result<core::EvalOutcome<P>, EvalError>
where
    P: pops::NaturallyOrdered
        + pops::CompleteDistributiveDioid
        + pops::Absorptive
        + pops::TotallyOrderedDioid
        + Send
        + Sync,
{
    Ok(engine_eval_interned(
        program,
        pops_edb,
        bool_edb,
        FRONTIER_DEFAULT_CAP,
        Strategy::Auto,
        &EngineOpts::default(),
    )?
    .materialize())
}

/// **Query-driven** evaluation on the default backend (the engine's
/// semi-naïve loop): the program is magic-set rewritten for
/// the query (`dlo_core::demand` — Bool-lattice demand predicates
/// guarding the POPS rules, sound for any POPS), so only the fragment
/// the query can reach is computed. The returned [`QueryAnswer`]
/// exposes the query-restricted rows ([`QueryAnswer::answers`]), the
/// full derived support for differential testing
/// ([`QueryAnswer::support`]), and the interned storage for decode-free
/// reads ([`QueryAnswer::interned`]).
///
/// ```
/// use datalog_o::core::{parse_program, parse_query, BoolDatabase, Database, Program, Relation};
/// use datalog_o::pops::Trop;
///
/// let program: Program<Trop> =
///     parse_program("T(X, Y) :- E(X, Y) + T(X, Z) * E(Z, Y).").unwrap();
/// let query = parse_query("?- T(\"a\", Y).").unwrap();
/// let mut edb = Database::new();
/// edb.insert("E", Relation::from_pairs(2, vec![
///     (vec!["a".into(), "b".into()], Trop::finite(1.0)),
///     (vec!["b".into(), "c".into()], Trop::finite(3.0)),
/// ]));
///
/// let answer = datalog_o::eval_query(&program, &query, &edb, &BoolDatabase::new()).unwrap();
/// assert_eq!(answer.answers()
///                  .get(&vec!["a".into(), "c".into()]), Trop::finite(4.0));
/// ```
///
/// # Errors
///
/// As [`eval`], plus [`EvalError::Compile`] on queries the rewrite
/// rejects (unknown predicate, arity mismatch).
pub fn eval_query<P>(
    program: &core::Program<P>,
    query: &core::Query,
    pops_edb: &core::Database<P>,
    bool_edb: &core::BoolDatabase,
) -> Result<QueryAnswer<P>, EvalError>
where
    P: pops::NaturallyOrdered + pops::CompleteDistributiveDioid + Send + Sync,
{
    Ok(engine_query_eval_with_opts(
        program,
        query,
        pops_edb,
        bool_edb,
        core::DEFAULT_CAP,
        SemiNaive,
        &EngineOpts::default(),
    )?)
}

/// [`eval_query`] on the **priority frontier**: the frontier is seeded
/// from the query constants (the magic seed is the only initial
/// contribution of the rewritten program), demand spreads between
/// batches exactly like head-key minting, and answers settle on pop —
/// a single-source question against an all-pairs program does
/// Dijkstra-from-the-source work instead of the full least fixpoint
/// (the `point-query` workload of `dlo_benchmark` measures it).
///
/// # Errors
///
/// As [`eval_query`].
pub fn eval_frontier_query<P>(
    program: &core::Program<P>,
    query: &core::Query,
    pops_edb: &core::Database<P>,
    bool_edb: &core::BoolDatabase,
) -> Result<QueryAnswer<P>, EvalError>
where
    P: pops::NaturallyOrdered
        + pops::CompleteDistributiveDioid
        + pops::Absorptive
        + pops::TotallyOrderedDioid
        + Send
        + Sync,
{
    Ok(engine_query_eval_with_opts(
        program,
        query,
        pops_edb,
        bool_edb,
        FRONTIER_DEFAULT_CAP,
        Strategy::Auto,
        &EngineOpts::default(),
    )?)
}
