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
//! use datalog_o::core::{naive_eval, parse_program, BoolDatabase, Database, Program, Relation};
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
//! // The rerun is the least fixpoint the grounded semantics defines.
//! let grounded = naive_eval(&program, &edb, &bools, 10_000).unwrap();
//! assert_eq!(outcome.materialize().unwrap(), grounded);
//! ```

#![forbid(unsafe_code)]

pub use dlo_core as core;
pub use dlo_engine as engine;
pub use dlo_fixpoint as fixpoint;
pub use dlo_pops as pops;
pub use dlo_provenance as provenance;
pub use dlo_semilin as semilin;
pub use dlo_wellfounded as wellfounded;

// The engine backend's surface at top level, next to the grounded
// reference re-exported through `core`: two entry points,
// the schedule argument they take, and the result/option types.
pub use dlo_engine::{
    engine_eval_interned, engine_query_eval_with_opts, AbortedEval, BudgetKind, CancelToken,
    EngineOpts, EvalBudget, EvalError, EvalStats, InternedOutcome, InternedOutput, JsonlSink,
    Materialization, MemorySink, Naive, PartialOutput, QueryAnswer, RuleProfile, Schedule,
    SemiNaive, SettledMark, Strategy, TraceEvent, TraceHandle, TraceSink,
};
