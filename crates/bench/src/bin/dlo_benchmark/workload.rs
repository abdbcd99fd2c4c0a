//! The five workloads: what each generates from the seed, what one
//! operation is, and what the reference says its answers must be.
//!
//! An operation starts when the caller holds program text and a
//! classic `Database` and ends when it holds decoded answers. Engine
//! options are the defaults a user gets (`EngineOpts::default()`,
//! `Strategy::Auto`).

use crate::gen::{int, Graph, Wide};
use crate::reference::{self, Rows};
use crate::rng::SplitMix64;
use crate::span::Tracer;
use dlo_core::{
    parse_program, parse_program_with_queries, BoolDatabase, Database, EvalOutcome, FactDelete,
    FactInsert, Program, Query, QueryArg, Relation,
};
use dlo_engine::{
    engine_eval_interned, engine_query_eval_with_opts, Counters, EngineOpts, EvalStats,
    InternedOutput, Materialization, PhaseNanos, Strategy,
};
use dlo_pops::{Pops, Trop};
use std::collections::HashSet;

/// Step cap of every evaluation; no workload comes near it.
const CAP: usize = 100_000_000;
/// Distinct sources (`point-query`) and edges (`live-edits`) that the
/// operations cycle through, so every kind of operation repeats and its
/// exact counts can be compared between repeats.
const KINDS: usize = 16;
/// Weight of the edge `live-edits` inserts: below every base weight, so
/// the edit always changes answers; a half, so sums stay exact.
const EDIT_WEIGHT: f64 = 0.5;

const APSP: &str = "T(X, Y) :- E(X, Y) + T(X, Z) * E(Z, Y).\n";
const SSSP: &str = "L(X) :- 1 | X = 0 + L(Z) * E(Z, X).\n";
const WIDE: &str = "Out1(A, D) :- S(A, B, C) * F(A, B, C, D).\n\
                    Out2(A) :- S4(A, B, C, D) * F(A, B, C, D).\n";

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    ApspDense,
    SsspSparse,
    WideLookup,
    PointQuery,
    LiveEdits,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::ApspDense,
        Workload::SsspSparse,
        Workload::WideLookup,
        Workload::PointQuery,
        Workload::LiveEdits,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ApspDense => "apsp-dense",
            Workload::SsspSparse => "sssp-sparse",
            Workload::WideLookup => "wide-lookup",
            Workload::PointQuery => "point-query",
            Workload::LiveEdits => "live-edits",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

enum Data {
    Graph(Graph),
    Wide(Wide),
}

/// Everything one workload generates from its seed.
pub struct Inputs {
    pub workload: Workload,
    data: Data,
    /// The EDB the caller holds when an operation starts.
    pub db: Database<Trop>,
    /// The program's rules.
    rules: &'static str,
    /// `point-query`: the rules plus the kind's `?-` line, per kind.
    queries: Vec<String>,
    /// `point-query`: `(source, _)`; `live-edits`: the edge `(u, v)`.
    keys: Vec<(u32, u32)>,
}

impl Inputs {
    /// Generates the workload's inputs at `1 / div` of full size
    /// (`div = 1` for measurements, `20` for `--smoke`).
    pub fn generate(workload: Workload, seed: u64, div: usize) -> Inputs {
        let mut rng = SplitMix64::new(seed);
        let mut queries = vec![];
        let mut keys = vec![];
        let mut rules = APSP;
        let data = match workload {
            Workload::ApspDense => Data::Graph(Graph::random(500 / div, 2000 / div, 16, &mut rng)),
            Workload::SsspSparse => {
                rules = SSSP;
                Data::Graph(Graph::gradient(6000 / div))
            }
            Workload::WideLookup => {
                rules = WIDE;
                Data::Wide(Wide::random(300_000 / div, 2000 / div, &mut rng))
            }
            Workload::PointQuery => {
                let g = Graph::random(20_000 / div, 80_000 / div, 16, &mut rng);
                // A source without out-edges has no answers and makes an
                // operation of another kind; draw from the others.
                let has_out: HashSet<u32> = g.edges.iter().map(|e| e.0).collect();
                while keys.len() < KINDS {
                    let s = rng.below(g.n as u64) as u32;
                    if has_out.contains(&s) && !keys.contains(&(s, 0)) {
                        keys.push((s, 0));
                        queries.push(format!("{APSP}?- T({s}, Y).\n"));
                    }
                }
                Data::Graph(g)
            }
            Workload::LiveEdits => {
                let g = Graph::random(300 / div, 1200 / div, 16, &mut rng);
                // New edges only (an insert on a present key would ⊕-merge
                // and the delete would then remove a base edge), and from
                // nodes that have out-edges, so the query after the delete
                // still has answers.
                let present: HashSet<(u32, u32)> = g.edges.iter().map(|e| (e.0, e.1)).collect();
                let has_out: HashSet<u32> = g.edges.iter().map(|e| e.0).collect();
                while keys.len() < KINDS {
                    let edge = (rng.below(g.n as u64) as u32, rng.below(g.n as u64) as u32);
                    let fresh =
                        edge.0 != edge.1 && !present.contains(&edge) && !keys.contains(&edge);
                    if fresh && has_out.contains(&edge.0) {
                        keys.push(edge);
                    }
                }
                Data::Graph(g)
            }
        };
        let db = match &data {
            Data::Graph(g) => g.database(),
            Data::Wide(w) => w.database(),
        };
        Inputs {
            workload,
            data,
            db,
            rules,
            queries,
            keys,
        }
    }

    /// How many kinds of operation there are; operation `i` is of kind
    /// `i % kinds()`.
    pub fn kinds(&self) -> usize {
        self.keys.len().max(1)
    }

    /// The rules, without any query line.
    pub fn rules_text(&self) -> &str {
        self.rules
    }

    /// A query with its first argument bound, for the layers that need
    /// one: the workload's own where it has one, else the first head of
    /// the program at a constant of the EDB.
    pub fn probe_query(&self) -> Query {
        let bound_first = |pred: &str, c: i64, arity: usize| {
            let mut args = vec![QueryArg::Free; arity];
            args[0] = QueryArg::Bound(int(c));
            Query::new(pred, args)
        };
        match (&self.data, self.workload) {
            (Data::Wide(w), _) => bound_first("Out1", w.s[0][0], 2),
            (Data::Graph(g), Workload::SsspSparse) => bound_first("L", g.n as i64 - 1, 1),
            (Data::Graph(g), _) => {
                let source = self.keys.first().map_or(g.edges[0].0, |k| k.0);
                bound_first("T", source.into(), 2)
            }
        }
    }
}

/// The reference answers, per kind of operation: the relations an
/// operation must return, in the order it returns them.
pub struct Expected {
    kinds: Vec<Vec<(&'static str, Rows)>>,
}

impl Expected {
    /// Solves the workload with the reference solvers. Never timed.
    pub fn solve(inputs: &Inputs) -> Expected {
        let kinds = match (&inputs.data, inputs.workload) {
            (Data::Wide(w), _) => {
                let (out1, out2) = reference::wide_join(w);
                vec![vec![("Out1", out1), ("Out2", out2)]]
            }
            (Data::Graph(g), Workload::ApspDense) => {
                let d = reference::floyd_warshall(g);
                vec![vec![("T", reference::matrix_rows(g.n, &d))]]
            }
            (Data::Graph(g), Workload::SsspSparse) => {
                let dist = reference::gradient_closed_form(g.n);
                vec![vec![("L", reference::unary_rows(&dist))]]
            }
            (Data::Graph(g), Workload::PointQuery) => {
                let adj = g.adjacency();
                let row = |s| reference::source_rows(s, &reference::dijkstra(&adj, s, false));
                inputs.keys.iter().map(|k| vec![("T", row(k.0))]).collect()
            }
            (Data::Graph(g), _) => {
                // After the insert: Dijkstra on the edited edge list;
                // after the delete: on the base list again.
                let base = g.adjacency();
                let row =
                    |adj: &[_], s| reference::source_rows(s, &reference::dijkstra(adj, s, false));
                let per_edit = inputs.keys.iter().map(|&(u, v)| {
                    let mut edited = base.clone();
                    edited[u as usize].push((v, EDIT_WEIGHT));
                    vec![("T", row(&edited, u)), ("T", row(&base, u))]
                });
                per_edit.collect()
            }
        };
        Expected { kinds }
    }

    /// Checks one operation's answers against the reference: the same
    /// relations, each with the same keys and the same values.
    pub fn verify(&self, op: usize, answers: &[(String, Relation<Trop>)]) -> Result<(), String> {
        let expected = &self.kinds[op % self.kinds.len()];
        if answers.len() != expected.len() {
            return Err(format!(
                "{} relations returned, reference has {}",
                answers.len(),
                expected.len()
            ));
        }
        for ((name, rel), (pred, rows)) in answers.iter().zip(expected) {
            if name != pred {
                return Err(format!("relation {name} returned, reference has {pred}"));
            }
            reference::check(pred, rel, rows)?;
        }
        Ok(())
    }

    /// Rows the unedited EDB's fixpoint holds, for seeded point reads:
    /// the last relation of the first kind of operation (on
    /// `live-edits`, the answers after the delete).
    pub fn some_rows(&self) -> (&'static str, &Rows) {
        let (pred, rows) = self.kinds[0].last().expect("an operation has answers");
        (pred, rows)
    }
}

/// The damage `--self-test` does to an operation's answers before they
/// reach the checker.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Corrupt {
    /// Adds 1 to the first row's value.
    Value,
    /// Moves the first row to a key the reference does not have.
    Key,
}

impl Corrupt {
    pub fn apply(self, answers: &mut [(String, Relation<Trop>)]) {
        let Some((_, rel)) = answers.iter_mut().find(|(_, r)| !r.is_empty()) else {
            return;
        };
        let (tuple, value) = rel.support().next().expect("non-empty");
        let (mut tuple, value) = (tuple.clone(), *value);
        match self {
            Corrupt::Value => rel.set(tuple, Trop::finite(value.get() + 1.0)),
            Corrupt::Key => {
                rel.set(tuple.clone(), Trop::bottom());
                *tuple.last_mut().expect("arity ≥ 1") = int(-1);
                rel.set(tuple, value);
            }
        }
    }
}

/// The telemetry the engine attached to an operation's answers, summed
/// over the operation's calls.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Report {
    /// Exact work counts.
    pub counters: Counters,
    /// Fixpoint steps.
    pub steps: u64,
    /// Answer facts handed to the caller.
    pub facts: usize,
    /// The engine's own phase timers.
    pub phases: PhaseNanos,
}

impl Report {
    fn absorb(&mut self, stats: &EvalStats) {
        self.counters.add(&stats.counters);
        self.steps += stats.steps;
        let (p, q) = (&mut self.phases, &stats.phases);
        p.setup += q.setup;
        p.edb_index += q.edb_index;
        p.arrange += q.arrange;
        p.eval += q.eval;
        p.mint += q.mint;
        p.decode += q.decode;
    }

    /// Everything about the operation that must repeat exactly when
    /// the same kind of operation runs again.
    pub fn exact(&self) -> (Counters, u64, usize) {
        (self.counters, self.steps, self.facts)
    }
}

/// What one operation hands back: the decoded answer relations, in the
/// order the reference lists them, and the engine's report.
#[derive(Default)]
pub struct OpOut {
    pub answers: Vec<(String, Relation<Trop>)>,
    pub report: Report,
}

impl OpOut {
    fn push(&mut self, pred: &str, rows: Relation<Trop>) {
        self.report.facts += rows.support_size();
        self.answers.push((pred.to_string(), rows));
    }
}

/// State that outlives an operation: only `live-edits` has any.
pub struct State {
    live: Option<Materialization<Trop>>,
    /// Steps of the initial fixpoint.
    pub built_steps: Option<u64>,
}

impl State {
    /// Builds the long-lived state: `Materialization::new` on
    /// `live-edits`, nothing elsewhere. Part of set-up.
    pub fn start(inputs: &Inputs, tr: &mut Tracer) -> Result<State, String> {
        if inputs.workload != Workload::LiveEdits {
            return Ok(State {
                live: None,
                built_steps: None,
            });
        }
        let program = parse(inputs.rules_text())?;
        let live = tr.span("incremental.new", |_| {
            Materialization::new(
                &program,
                &inputs.db,
                &BoolDatabase::new(),
                CAP,
                Strategy::Auto,
                &EngineOpts::default(),
            )
        });
        let live = live.map_err(|e| format!("Materialization::new: {e}"))?;
        Ok(State {
            built_steps: Some(live.last_stats().steps),
            live: Some(live),
        })
    }
}

fn parse(text: &str) -> Result<Program<Trop>, String> {
    parse_program(text).map_err(|e| format!("parse: {e}"))
}

/// Runs operation `op`. Every public call into the program sits in a
/// span named after the module it enters; the caller wraps the whole
/// operation in an `op` span and holds the stopwatch.
pub fn run_op(
    inputs: &Inputs,
    state: &mut State,
    op: usize,
    tr: &mut Tracer,
) -> Result<OpOut, String> {
    let kind = op % inputs.kinds();
    let text = inputs
        .queries
        .get(kind)
        .map_or(inputs.rules, String::as_str);
    let no_guards = BoolDatabase::new();
    let opts = EngineOpts::default();
    let mut out = OpOut::default();
    match inputs.workload {
        Workload::ApspDense | Workload::SsspSparse | Workload::WideLookup => {
            let program = tr.span("parser.parse", |_| parse(text))?;
            let outcome = tr.span("engine.eval_interned", |_| {
                engine_eval_interned(&program, &inputs.db, &no_guards, CAP, Strategy::Auto, &opts)
            });
            let outcome = outcome.map_err(|e| format!("engine_eval_interned: {e}"))?;
            match tr.span("output.materialize", |_| outcome.materialize()) {
                EvalOutcome::Converged { output, stats, .. } => {
                    out.report.absorb(&stats);
                    for (pred, rows) in output {
                        out.push(&pred, rows);
                    }
                }
                EvalOutcome::Diverged { cap, .. } => {
                    return Err(format!("no fixpoint within {cap} steps"))
                }
            }
        }
        Workload::PointQuery => {
            let parsed = tr.span("parser.parse", |_| parse_program_with_queries::<Trop>(text));
            let (program, queries) = parsed.map_err(|e| format!("parse: {e}"))?;
            let query = queries.first().ok_or("program text carries no query")?;
            let answer = tr.span("query.eval", |_| {
                engine_query_eval_with_opts(
                    &program,
                    query,
                    &inputs.db,
                    &no_guards,
                    CAP,
                    Strategy::Auto,
                    &opts,
                )
            });
            let answer = answer.map_err(|e| format!("engine_query_eval_with_opts: {e}"))?;
            if !answer.is_converged() {
                return Err(format!("no fixpoint within {CAP} steps"));
            }
            let rows = tr.span("query.answers", |_| answer.answers());
            out.report.absorb(answer.stats());
            out.push(&query.pred, rows);
        }
        Workload::LiveEdits => {
            let live = state.live.as_mut().ok_or("live-edits was not started")?;
            let (u, v) = inputs.keys[kind];
            let edge = vec![int(u.into()), int(v.into())];
            let query = Query::new("T", vec![QueryArg::Bound(int(u.into())), QueryArg::Free]);
            let ask = |live: &mut Materialization<Trop>, out: &mut OpOut, tr: &mut Tracer| {
                let answer = tr.span("incremental.query", |_| live.query(&query));
                let answer = answer.map_err(|e| format!("Materialization::query: {e}"))?;
                if !answer.is_converged() {
                    return Err(format!("no fixpoint within {CAP} steps"));
                }
                let rows = tr.span("query.answers", |_| answer.answers());
                out.report.absorb(answer.stats());
                out.push("T", rows);
                Ok(())
            };
            let insert = [FactInsert::new(
                "E",
                edge.clone(),
                Trop::finite(EDIT_WEIGHT),
            )];
            let stats = tr.span("incremental.insert", |_| live.insert(&insert).cloned());
            out.report
                .absorb(&stats.map_err(|e| format!("Materialization::insert: {e}"))?);
            ask(live, &mut out, tr)?;
            let delete = [FactDelete::new("E", edge)];
            let stats = tr.span("incremental.delete", |_| live.delete(&delete).cloned());
            out.report
                .absorb(&stats.map_err(|e| format!("Materialization::delete: {e}"))?);
            ask(live, &mut out, tr)?;
        }
    }
    Ok(out)
}

/// One evaluation of the workload's program outside any operation, for
/// the layer probes: the full fixpoint, or on `point-query` — where the
/// full fixpoint is 400 M facts — the demanded one.
pub struct Evaluated {
    pub wall_s: f64,
    pub stats: EvalStats,
    pub output: InternedOutput<Trop>,
}

pub fn evaluate(
    inputs: &Inputs,
    strategy: Strategy,
    threads: Option<usize>,
) -> Result<Evaluated, String> {
    let opts = EngineOpts {
        threads,
        ..EngineOpts::default()
    };
    let program = parse(inputs.rules_text())?;
    let no_guards = BoolDatabase::new();
    let t = std::time::Instant::now();
    let (stats, output) = if inputs.workload == Workload::PointQuery {
        let query = inputs.probe_query();
        let answer = engine_query_eval_with_opts(
            &program, &query, &inputs.db, &no_guards, CAP, strategy, &opts,
        );
        let answer = answer.map_err(|e| format!("engine_query_eval_with_opts: {e}"))?;
        (answer.stats().clone(), answer.into_interned())
    } else {
        let outcome = engine_eval_interned(&program, &inputs.db, &no_guards, CAP, strategy, &opts);
        let outcome = outcome.map_err(|e| format!("engine_eval_interned: {e}"))?;
        let stats = outcome.stats().clone();
        let output = outcome.converged().ok_or("no fixpoint within the cap")?.0;
        (stats, output)
    };
    Ok(Evaluated {
        wall_s: t.elapsed().as_secs_f64(),
        stats,
        output,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const SMOKE: usize = 20;

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("nope"), None);
    }

    #[test]
    fn every_workload_answers_like_its_reference() {
        for w in Workload::ALL {
            let inputs = Inputs::generate(w, 1, SMOKE);
            let expected = Expected::solve(&inputs);
            let mut tr = Tracer::new(false);
            let mut state = State::start(&inputs, &mut tr).unwrap();
            for op in 0..inputs.kinds() + 1 {
                let out = run_op(&inputs, &mut state, op, &mut tr).unwrap();
                assert!(out.report.facts > 0, "{} op {op} has no answers", w.name());
                expected.verify(op, &out.answers).unwrap();
            }
        }
    }

    #[test]
    fn the_same_kind_of_operation_repeats_its_counts() {
        for w in Workload::ALL {
            let inputs = Inputs::generate(w, 2, SMOKE);
            let mut tr = Tracer::new(false);
            let mut state = State::start(&inputs, &mut tr).unwrap();
            let first = run_op(&inputs, &mut state, 0, &mut tr).unwrap().report;
            let again = run_op(&inputs, &mut state, inputs.kinds(), &mut tr).unwrap();
            assert_eq!(first.exact(), again.report.exact(), "{}", w.name());
        }
    }

    #[test]
    fn corrupted_answers_fail_verification() {
        for w in Workload::ALL {
            let inputs = Inputs::generate(w, 1, SMOKE);
            let expected = Expected::solve(&inputs);
            let mut tr = Tracer::new(false);
            let mut state = State::start(&inputs, &mut tr).unwrap();
            for how in [Corrupt::Value, Corrupt::Key] {
                let mut out = run_op(&inputs, &mut state, 0, &mut tr).unwrap();
                how.apply(&mut out.answers);
                assert!(
                    expected.verify(0, &out.answers).is_err(),
                    "{} {how:?}",
                    w.name()
                );
            }
        }
    }

    #[test]
    fn probe_evaluation_converges_under_every_strategy() {
        for w in Workload::ALL {
            let inputs = Inputs::generate(w, 1, SMOKE);
            let auto = evaluate(&inputs, Strategy::Auto, Some(1)).unwrap();
            for s in [Strategy::SemiNaive, Strategy::Worklist, Strategy::Priority] {
                let other = evaluate(&inputs, s, Some(2)).unwrap();
                let rows = |e: &Evaluated| e.output.materialize();
                assert_eq!(rows(&auto), rows(&other), "{} {s:?}", w.name());
            }
        }
    }
}
