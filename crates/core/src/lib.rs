//! # dlo-core — the datalog° language and its reference semantics
//!
//! The paper's primary contribution (Sec. 2.4, 4, 6) as an executable
//! library:
//!
//! * [`value`] / [`relation`] — the key space, `P`-relations with finite
//!   support, `P`-instances;
//! * [`ast`] / [`formula`] — sum-sum-product rules with conditionals `Φ`,
//!   case statements, interpreted key- and value-space functions;
//! * [`ground`](mod@ground) — grounding to the provenance-polynomial system of
//!   eq. (27), in dense (paper-literal) and sparse (support-join) modes;
//! * [`eval`] — the naïve algorithm (Algorithm 1) with iteration traces,
//!   and the semi-naïve algorithm (Algorithm 3 + the differential rule of
//!   Theorem 6.5) for complete distributive dioids, both reporting a
//!   missed fixpoint as [`EvalOutcome::Diverged`] and their work as
//!   [`eval::stats::EvalStats`];
//! * [`query`](mod@query) / [`demand`](mod@demand) — goal atoms
//!   (`?- T("a", Y).`) and the magic-set rewrite that restricts a
//!   program to what a query demands (Bool-lattice magic predicates
//!   guarding POPS rules — sound for any POPS);
//! * [`examples_lib`] — every example program of the paper as a
//!   constructor (SSSP, APSP, bill-of-material, company control,
//!   prefix-sum, win-move, …).
//!
//! What a run needs beyond the semantics — budgets, cancellation, the
//! typed errors of the public entry points and trace sinks — belongs
//! to the execution engine, `dlo_engine`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ast;
pub mod demand;
pub mod display;
pub mod edit;
pub mod eval;
pub mod examples_lib;
pub mod formula;
pub mod ground;
pub mod parser;
pub mod query;
pub mod relation;
pub mod value;

pub use ast::{Atom, Factor, KeyFn, Program, Rule, SumProduct, Term, UnaryFn, Var};
pub use demand::{magic_pred, magic_rewrite, DemandError, DemandProgram};
pub use display::{render_program, render_rule, PrintValue};
pub use edit::{Edit, FactDelete, FactInsert};
pub use eval::naive::{naive_eval, naive_eval_sparse, naive_eval_system, naive_eval_trace};
pub use eval::seminaive::{seminaive_eval, seminaive_eval_system, WorkStats};
pub use eval::{EvalOutcome, Trace, DEFAULT_CAP};
pub use formula::{CmpOp, Formula};
pub use ground::{ground, ground_sparse, GroundSystem};
pub use parser::{
    parse_program, parse_program_with_queries, parse_query, ParseValue, ProgramParser,
};
pub use query::{Query, QueryArg};
pub use relation::{bool_relation, BoolDatabase, Database, Relation};
pub use value::{Constant, GroundAtom, Tuple};
