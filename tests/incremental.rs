//! Incremental maintenance: every edit script — random and adversarial
//! — goes through the differential oracle (`dlo_bench::oracle`), which
//! applies it step by step to a live [`Materialization`] under every
//! loop the POPS licenses *and* mirrors it on a classic [`Database`];
//! after **every** step each handle must hold the grounded least
//! fixpoint of the edited EDB, values exact per row, and answer every
//! query pattern from the state it holds. The tests here keep their own
//! pins beside it: counters, cones, row ids, index lifecycles.
//!
//! The adversarial shapes target the places where incremental
//! maintenance over dioids can silently go wrong:
//!
//! * insert-only (the no-retraction fast path),
//! * delete-only (DRed marking + rederive),
//! * interleaved inserts and deletes (state handoff between the paths),
//! * delete-then-reinsert (a zeroed-out fact must come back bit-equal),
//! * deleting the only shortest path (the surviving optimum must
//!   *lengthen* — a value a pointwise `⊖` could never produce).

use datalog_o::core::examples_lib as ex;
use datalog_o::core::{
    parse_program, parse_query, Atom, BoolDatabase, Constant, Database, Edit, Factor, Program,
    Query, QueryArg, Relation, SumProduct, Term, Tuple, UnaryFn,
};
use datalog_o::pops::{
    Absorptive, CompleteDistributiveDioid, MaxMin, NNReal, NaturallyOrdered, Pops, PreSemiring,
    TotallyOrderedDioid, Trop,
};
use datalog_o::{
    engine_eval_interned, EngineOpts, EvalBudget, Materialization, Naive, Schedule, SemiNaive,
    Strategy,
};

use dlo_bench::oracle::{self, Case};

const CAP: usize = 100_000;

fn k(s: &str) -> Constant {
    s.into()
}

fn apsp_program() -> Program<Trop> {
    parse_program("T(X, Y) :- E(X, Y) + T(X, Z) * E(Z, Y).").unwrap()
}

fn edge_db(edges: &[(&str, &str, f64)]) -> Database<Trop> {
    let mut db = Database::new();
    db.insert(
        "E",
        Relation::from_pairs(
            2,
            edges
                .iter()
                .map(|(u, v, w)| (vec![k(u), k(v)], Trop::finite(*w))),
        ),
    );
    db
}

fn insert(u: &str, v: &str, w: f64) -> Edit<Trop> {
    Edit::insert("E", vec![k(u), k(v)], Trop::finite(w))
}

fn delete(u: &str, v: &str) -> Edit<Trop> {
    Edit::delete("E", vec![k(u), k(v)])
}

const ALL_STRATEGIES: [Strategy; 3] = [Strategy::SemiNaive, Strategy::Worklist, Strategy::Priority];

/// The Fig. 2(a)-flavoured base graph every adversarial script starts
/// from: a short expensive edge shadowed by a cheap two-hop path.
fn base_edges() -> Vec<(&'static str, &'static str, f64)> {
    vec![
        ("a", "b", 1.0),
        ("b", "c", 2.0),
        ("a", "c", 9.0),
        ("c", "d", 1.0),
        ("b", "d", 7.0),
    ]
}

#[test]
fn insert_only_scripts_match_from_scratch() {
    let script = vec![
        insert("d", "e", 2.0), // new node, extends closure
        insert("a", "c", 1.5), // improves an existing optimum
        insert("a", "c", 5.0), // worse parallel edge: ⊕-absorbed, no-op
        insert("e", "a", 0.5), // closes a cycle
        insert("c", "c", 0.0), // zero-weight self-loop
    ];
    Case::new("insert-only", &apsp_program(), &edge_db(&base_edges()))
        .script(&script)
        .check();
}

#[test]
fn delete_only_scripts_match_from_scratch() {
    let script = vec![
        delete("b", "d"), // redundant edge: optimum unchanged
        delete("b", "c"), // optimum a→c lengthens to the direct edge
        delete("a", "c"), // disconnects c and d from a entirely
        delete("a", "c"), // deleting an absent fact is a no-op
        delete("a", "b"), // empties the reachable set
    ];
    Case::new("delete-only", &apsp_program(), &edge_db(&base_edges()))
        .script(&script)
        .check();
}

#[test]
fn interleaved_scripts_match_from_scratch() {
    let script = vec![
        insert("d", "a", 1.0),
        delete("b", "c"),
        insert("b", "c", 0.5),
        delete("a", "b"),
        insert("a", "d", 2.0),
        delete("c", "d"),
        insert("c", "d", 4.0),
    ];
    Case::new("interleaved", &apsp_program(), &edge_db(&base_edges()))
        .script(&script)
        .check();
}

#[test]
fn delete_then_reinsert_restores_exact_values() {
    let script = vec![
        delete("b", "c"),
        insert("b", "c", 2.0), // same weight: fixpoint must return bit-equal
        delete("a", "b"),
        insert("a", "b", 3.0), // worse weight: downstream paths lengthen
        delete("a", "b"),
        insert("a", "b", 1.0), // back to the original optimum
    ];
    Case::new(
        "delete-then-reinsert",
        &apsp_program(),
        &edge_db(&base_edges()),
    )
    .script(&script)
    .check();
}

/// Every single insert or delete on each EDB relation of a sum-product
/// that joins two EDB atoms — `A * B`, the self-join `A * A`, and
/// `B * A` beside `A` — on a fresh handle under every schedule. An
/// edit's variant reads the live relation at its other occurrences;
/// a variant that read a pre-edit snapshot staged only for the edited
/// relation found the other one empty, and the insert derived nothing
/// and the delete retracted nothing.
#[test]
fn edits_to_joins_of_two_edb_relations_match_from_scratch() {
    let mut edb = Database::new();
    let rel = |rows: &[(&str, &str, f64)]| {
        let rows = rows
            .iter()
            .map(|(u, v, w)| (vec![k(u), k(v)], Trop::finite(*w)));
        Relation::from_pairs(2, rows)
    };
    edb.insert(
        "A",
        rel(&[("a", "b", 1.0), ("b", "c", 2.0), ("c", "d", 3.0)]),
    );
    let b = [
        ("b", "c", 1.0),
        ("c", "d", 2.0),
        ("d", "a", 4.0),
        ("a", "b", 5.0),
    ];
    edb.insert("B", rel(&b));
    let edge = |u: &str, v: &str| vec![k(u), k(v)];
    let edits = [
        Edit::insert("A", edge("d", "a"), Trop::finite(0.5)),
        Edit::insert("B", edge("d", "b"), Trop::finite(0.5)),
        Edit::delete("A", edge("a", "b")),
        Edit::delete("B", edge("b", "c")),
    ];
    for src in [
        "R(X, Z) :- A(X, Y) * B(Y, Z).",
        "R(X, Z) :- A(X, Y) * A(Y, Z).",
        "R(X, Z) :- B(X, Y) * A(Y, Z) + A(X, Z).",
    ] {
        let program: Program<Trop> = parse_program(src).unwrap();
        let read = |edit: &&Edit<Trop>| src.contains(&format!("{}(", edit.pred()));
        for edit in edits.iter().filter(read) {
            let script = std::slice::from_ref(edit);
            Case::new(src, &program, &edb).script(script).check();
        }
    }
}

#[test]
fn deleting_the_only_shortest_path_lengthens_the_optimum() {
    // a→b→c (cost 3) is the unique optimum; the direct edge costs 9.
    // Deleting b→c must *worsen* T(a,c) to 9 — the value moves up the
    // natural order, which no pointwise subtraction could produce.
    let program = apsp_program();
    let edb = edge_db(&base_edges());
    let bools = BoolDatabase::new();
    let opts = EngineOpts::default();
    let mut mat =
        Materialization::new(&program, &edb, &bools, CAP, Strategy::Auto, &opts).expect("compiles");
    let ac: Tuple = vec![k("a"), k("c")];
    assert_eq!(mat.get("T", &ac), Some(&Trop::finite(3.0)));
    mat.delete(&[datalog_o::core::FactDelete::new("E", vec![k("b"), k("c")])])
        .expect("edit applies");
    assert_eq!(
        mat.get("T", &ac),
        Some(&Trop::finite(9.0)),
        "optimum must lengthen to the surviving direct edge"
    );
    // And the full state still matches from-scratch.
    Case::new("only-shortest-path", &program, &edb)
        .script(&[delete("b", "c")])
        .check();
}

/// A tiny deterministic LCG — no external crates, stable across runs.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }
}

/// Everything observable about a handle after an edit: the edit's
/// thread-invariant stats, every interner entry, and every maintained
/// row with its id.
type Observed<P> = (
    datalog_o::EvalStats,
    Vec<Constant>,
    Vec<(String, Vec<(u32, Vec<u32>, P)>)>,
);

fn observe<P: Pops + Send + Sync, S: Schedule<P>>(mat: &mut Materialization<P, S>) -> Observed<P> {
    let stats = mat.last_stats().invariants();
    let out = mat.output();
    let consts = (0..out.interner().len() as u32)
        .map(|id| out.interner().get(id).clone())
        .collect();
    let preds: Vec<String> = out.predicates().map(|(p, _)| p.to_string()).collect();
    let rows = preds
        .into_iter()
        .map(|p| {
            let rel = out.relation(&p).expect("listed predicate");
            let rows = rel.iter().map(|(r, key, v)| (r, key.to_vec(), v.clone()));
            (p, rows.collect())
        })
        .collect();
    (stats, consts, rows)
}

/// The engine loads the EDB without its full-key row map, and an edit is
/// one of the two readers that need it (present-key checks on delete,
/// `⊕`-merges on insert). Each `edit` is applied as the **first** edit
/// of a fresh handle — the map is built by that edit — and again to a
/// twin whose map an earlier no-op (`warm_up`, deleting an absent fact
/// over known constants) already forced: stats, interner and every
/// maintained row must agree bit for bit. The result must also be the
/// from-scratch build on the edited EDB — same database, same constant
/// ids (the edits here neither introduce nor orphan a first occurrence)
/// — the decoded EDB must show a merged fact, never a second row, and
/// every query pattern must read the from-scratch fixpoint's restriction.
fn assert_first_edit_reads_the_bulk_loaded_edb<P, S>(
    scenario: &str,
    program: &Program<P>,
    edb: &Database<P>,
    schedule: S,
    warm_up: &Edit<P>,
    edits: &[Edit<P>],
) where
    P: Pops + Send + Sync,
    S: Schedule<P>,
{
    let bools = BoolDatabase::new();
    let opts = EngineOpts::default();
    let build = |edb: &Database<P>| {
        Materialization::new(program, edb, &bools, CAP, schedule, &opts).expect("compiles")
    };
    for edit in edits {
        let mut cold = build(edb);
        let mut warm = build(edb);
        warm.apply(std::slice::from_ref(warm_up)).expect("no-op");
        assert_eq!(
            &warm.edb(),
            edb,
            "{scenario}: the warm-up must change nothing"
        );
        cold.apply(std::slice::from_ref(edit))
            .expect("edit applies");
        warm.apply(std::slice::from_ref(edit))
            .expect("edit applies");
        let (cold_seen, warm_seen) = (observe(&mut cold), observe(&mut warm));
        assert_eq!(
            cold_seen, warm_seen,
            "{scenario}: {edit:?} cold vs warm row map"
        );

        let mut edited = edb.clone();
        oracle::mirror(&mut edited, edit);
        assert_eq!(cold.edb(), edited, "{scenario}: {edit:?} decoded EDB");
        let mut scratch = build(&edited);
        let fixpoint = scratch.output().materialize();
        assert_eq!(
            cold.output().materialize(),
            fixpoint,
            "{scenario}: {edit:?} vs from-scratch on the edited EDB"
        );
        oracle::assert_reads(&format!("{scenario}: {edit:?}"), &mut cold, &fixpoint);
        assert_eq!(
            cold_seen.1,
            observe(&mut scratch).1,
            "{scenario}: {edit:?} constant ids vs from-scratch"
        );
    }
}

#[test]
fn first_edit_after_build_reads_the_edb_by_key() {
    // Trop, the default frontier schedule: a worse and a better weight
    // onto a present edge, an absent edge, a present edge.
    let edges = base_edges();
    let (u, v, w) = edges[1];
    let edits = [
        insert(u, v, w + 5.0),
        insert(u, v, w / 2.0),
        delete(edges[0].1, edges[0].0),
        delete(u, v),
    ];
    let warm_up = delete(edges[0].1, edges[0].0);
    assert!(!edges
        .iter()
        .any(|(a, b, _)| (*a, *b) == (edges[0].1, edges[0].0)));
    for strategy in [Strategy::Auto, Strategy::SemiNaive] {
        assert_first_edit_reads_the_bulk_loaded_edb(
            &format!("trop {strategy:?}"),
            &apsp_program(),
            &edge_db(&edges),
            strategy,
            &warm_up,
            &edits,
        );
    }

    // ℝ₊ under the naive schedule (no `⊖`): `⊕` is `+`, so an insert
    // onto a present fact must show the sum. Path weights over a DAG,
    // dyadic so every association order is exact.
    let program: Program<NNReal> =
        parse_program("T(X, Y) :- S(X, Y) + T(X, Z) * S(Z, Y).").unwrap();
    let fact = |u: &str, v: &str| vec![k(u), k(v)];
    let mut edb = Database::new();
    edb.insert(
        "S",
        Relation::from_pairs(
            2,
            [
                ("a", "b", 0.5),
                ("a", "c", 0.25),
                ("b", "c", 0.75),
                ("c", "d", 0.5),
            ]
            .map(|(u, v, w)| (fact(u, v), NNReal::of(w))),
        ),
    );
    let edits = [
        Edit::insert("S", fact("a", "c"), NNReal::of(0.125)),
        Edit::delete("S", fact("d", "a")),
        Edit::delete("S", fact("a", "c")),
    ];
    assert_first_edit_reads_the_bulk_loaded_edb(
        "nnreal naive",
        &program,
        &edb,
        Naive,
        &Edit::delete("S", fact("d", "a")),
        &edits,
    );
    let mut summed = Materialization::new(
        &program,
        &edb,
        &BoolDatabase::new(),
        CAP,
        Naive,
        &EngineOpts::default(),
    )
    .unwrap();
    summed.apply(&edits[..1]).unwrap();
    let edb = summed.edb();
    let s = edb.get("S").unwrap();
    assert_eq!(s.support_size(), 4, "merged, not duplicated");
    assert_eq!(s.get(&fact("a", "c")), NNReal::of(0.375));
}

/// A random edit script over a fixed node universe: inserts twice as
/// likely as deletes, weights in 1..=8, self-loops allowed.
fn random_script(seed: u64, len: usize, nodes: &[&'static str]) -> Vec<Edit<Trop>> {
    let mut rng = Lcg(seed);
    (0..len)
        .map(|_| {
            let u = nodes[(rng.next() % nodes.len() as u64) as usize];
            let v = nodes[(rng.next() % nodes.len() as u64) as usize];
            if rng.next().is_multiple_of(3) {
                delete(u, v)
            } else {
                insert(u, v, (1 + rng.next() % 8) as f64)
            }
        })
        .collect()
}

#[test]
fn random_edit_scripts_match_from_scratch() {
    let nodes = ["a", "b", "c", "d", "e", "f"];
    for seed in [3, 17, 99] {
        let script = random_script(seed, 24, &nodes);
        Case::new(
            format!("random-{seed}"),
            &apsp_program(),
            &edge_db(&base_edges()),
        )
        .script(&script)
        .check();
    }
}

#[test]
fn sssp_gradient_scripts_match_from_scratch() {
    // A single-source program (head arity 1) over the Fig. 2(a) graph:
    // deletes force rederivation chains through the source condition,
    // inserts restore them, and one delete targets an absent edge.
    let (program, edb) = ex::sssp_trop("a");
    let script = vec![
        insert("a", "d", 10.0),
        delete("b", "d"),
        delete("c", "d"), // only the new shortcut remains
        insert("b", "d", 1.0),
        delete("a", "b"),
    ];
    Case::new("sssp-gradient", &program, &edb)
        .script(&script)
        .check();
}

/// A query is a read: it leaves the maintained state the from-scratch
/// fixpoint, rebuilt or not. A handle never re-evaluates to answer: 0
/// steps, no magic predicates, nothing emitted, and it reads the
/// answer's rows of `T` and no others. A query the program cannot answer
/// is a compile error that leaves the handle healthy.
#[test]
fn queries_answer_against_the_current_epoch() {
    let program = apsp_program();
    let edb = edge_db(&base_edges());
    let bools = BoolDatabase::new();
    let opts = EngineOpts::default();
    let mut mat =
        Materialization::new(&program, &edb, &bools, CAP, Strategy::Auto, &opts).expect("compiles");
    let query = parse_query("?- T(\"a\", Y).").unwrap();
    let ask = |mat: &mut Materialization<Trop>, to: &str| {
        let answer = mat.query(&query).expect("query compiles");
        assert_eq!(answer.steps(), Some(0), "no loop ran");
        assert!(answer.magic_preds().is_empty(), "no rewrite ran");
        let c = &answer.stats().counters;
        assert_eq!(c.emits, 0, "nothing was derived");
        assert_eq!(c.tuples_scanned, answer.answers().support_size() as u64);
        answer.answers().get(&vec![k("a"), k(to)])
    };

    assert_eq!(ask(&mut mat, "c"), Trop::finite(3.0));
    assert_eq!(mat.epoch(), 0);

    mat.apply(&[delete("b", "c"), insert("a", "e", 0.25)])
        .expect("edit applies");
    assert_eq!(mat.epoch(), 2);
    for rebuilt in [false, true] {
        if rebuilt {
            mat.rebuild().expect("rebuilds");
        }
        let optimum = ask(&mut mat, "c");
        assert_eq!(
            optimum,
            Trop::finite(9.0),
            "query must see the post-delete optimum"
        );
        let inserted = ask(&mut mat, "e");
        assert_eq!(
            inserted,
            Trop::finite(0.25),
            "query must see the inserted edge"
        );
        let scratch =
            engine_eval_interned(&program, &mat.edb(), &bools, CAP, Strategy::Auto, &opts);
        let scratch = scratch.expect("compiles").materialize().unwrap();
        assert_eq!(mat.output().materialize(), scratch, "rebuilt: {rebuilt}");
    }
    for unanswerable in ["?- Nope(\"a\", Y).", "?- T(\"a\").", "?- E(\"a\", Y)."] {
        let err = mat.query(&parse_query(unanswerable).unwrap());
        let err = err.expect_err(unanswerable);
        assert_eq!(err.kind(), "compile", "{unanswerable}: {err}");
        assert!(mat.poisoned().is_none(), "{unanswerable}");
    }
}

/// Nodes on the ring of [`ring_with_tail`].
const RING: usize = 12;

/// The ring `0 → 1 → … → RING-1 → 0` and the tail `RING → RING+1`,
/// which the bridge `3 → RING` connects: the graph the index-lifecycle
/// tests below edit.
fn ring_with_tail() -> dlo_bench::GraphInstance {
    let mut graph = dlo_bench::GraphInstance::cycle(RING);
    graph.edges.push((RING, RING + 1, 2.0));
    graph
}

/// Whether every row of `pred` that `after` lost sat at or past
/// `after`'s length in `before` — the relation's tail — and not in its
/// middle.
fn lost_only_its_tail(before: &Observed<Trop>, after: &Observed<Trop>, pred: &str) -> bool {
    let rows = |o: &Observed<Trop>| {
        let (_, rows) = o.2.iter().find(|(p, _)| p == pred).expect("listed");
        rows.iter()
            .map(|(r, key, _)| (key.clone(), *r))
            .collect::<std::collections::HashMap<_, _>>()
    };
    let (before, after) = (rows(before), rows(after));
    let lost = before.iter().filter(|(key, _)| !after.contains_key(*key));
    lost.map(|(_, &r)| r as usize).all(|r| r >= after.len())
}

/// A query's index follows every way an edit changes the queried
/// relation. Every query pattern is asked once after the build, which
/// registers `T`'s first-column index, and then after each of: an
/// insert (rows appended), the delete of that insert (the tail left at
/// `0`), a delete that loses rows from the middle of `T` (tombstones
/// where they stand), an edit that moves `D₀` (`R(X) :- V(X + 1)`
/// ranges over it, so the handle re-derives from fresh state), and
/// `rebuild()`. Every answer is the from-scratch restriction, bit for
/// bit, and reads its own rows only. The edits that keep the state keep
/// the index, with no build; the two that start afresh drop it, and
/// the next query builds it again.
#[test]
fn a_query_index_follows_every_edit_shape() {
    fn shapes<S: Schedule<Trop> + std::fmt::Debug>(schedule: S) {
        let graph = ring_with_tail();
        let program: Program<Trop> =
            parse_program("T(X, Y) :- E(X, Y) + T(X, Z) * E(Z, Y).\nR(X) :- V(X + 1).").unwrap();
        let mut edb = graph.trop_edb();
        let v = [(vec![graph.node(1)], Trop::finite(1.0))];
        edb.insert("V", Relation::from_pairs(1, v));
        let (bools, opts) = (BoolDatabase::new(), EngineOpts::default());
        let mut mat =
            Materialization::new(&program, &edb, &bools, CAP, schedule, &opts).expect("compiles");
        let ask = |leg: &str, mat: &mut Materialization<Trop, S>, edb: &Database<Trop>| {
            let scratch = engine_eval_interned(&program, edb, &bools, CAP, schedule, &opts)
                .expect("compiles")
                .materialize()
                .unwrap();
            assert_eq!(mat.output().materialize(), scratch, "{leg}");
            oracle::assert_reads(leg, mat, &scratch);
        };
        let built = mat.index_builds_for("T");
        ask(&format!("{schedule:?}: build"), &mut mat, &edb);
        let indexed = mat.index_builds_for("T");
        assert_eq!(indexed, built + 1, "{schedule:?}: T(x, Y) is indexed");

        let bridge = vec![graph.node(3), graph.node(RING)];
        let ring_cut = vec![graph.node(0), graph.node(1)];
        let new_node = vec![graph.node(RING + 1), graph.node(RING + 2)];
        // Per edit: whether the `T` rows it loses are all its tail
        // (`None`: it loses none), and whether it starts afresh.
        let script = [
            (
                "an insert appends",
                Edit::insert("E", bridge.clone(), Trop::finite(0.5)),
                None,
                false,
            ),
            (
                "its delete takes the tail",
                Edit::delete("E", bridge),
                Some(true),
                false,
            ),
            (
                "a ring cut leaves tombstones",
                Edit::delete("E", ring_cut),
                Some(false),
                false,
            ),
            (
                "a new constant moves D₀",
                Edit::insert("E", new_node, Trop::finite(1.0)),
                None,
                true,
            ),
        ];
        for (shape, edit, tail, fresh) in &script {
            let leg = format!("{schedule:?}: {shape}");
            let before = observe(&mut mat);
            oracle::mirror(&mut edb, edit);
            mat.apply(std::slice::from_ref(edit)).expect("edit applies");
            if let Some(tail) = tail {
                let lost = lost_only_its_tail(&before, &observe(&mut mat), "T");
                assert_eq!(lost, *tail, "{leg}: the rows lost are the tail");
            }
            let expected = if *fresh { built } else { indexed };
            assert_eq!(mat.index_builds_for("T"), expected, "{leg}: builds");
            ask(&leg, &mut mat, &edb);
            assert_eq!(mat.index_builds_for("T"), indexed, "{leg}: builds");
        }
        mat.rebuild().expect("rebuilds");
        assert_eq!(mat.index_builds_for("T"), built, "{schedule:?}: rebuilt");
        ask(&format!("{schedule:?}: rebuild"), &mut mat, &edb);
        assert_eq!(mat.index_builds_for("T"), indexed, "{schedule:?}: rebuilt");
    }
    for strategy in ALL_STRATEGIES {
        shapes(strategy);
    }
    shapes(SemiNaive);
    shapes(Naive);
}

/// An index a query made is invisible to evaluation. Twin handles run
/// one edit script, every edit shape in it; one twin is asked every
/// adornment of `T` after the build and after every edit, the other is
/// never asked. After every edit the twins' stats (counters, steps,
/// per-rule profile) and rows are identical, row ids included, and the
/// asked twin's answers are the quiet twin's restrictions. Only the
/// first query of an adornment may build (the first-column one must;
/// all-free and full-key reads never do), and neither a repeat query
/// nor an edit builds again. A query that fails — an unknown
/// predicate, the wrong arity, or a poisoned handle — builds nothing,
/// and neither does a bound constant the handle never interned, which
/// answers with no rows.
#[test]
fn a_query_index_is_invisible_to_evaluation() {
    fn twins<S: Schedule<Trop> + std::fmt::Debug>(schedule: S) {
        let graph = ring_with_tail();
        let (program, edb) = (ex::apsp_program::<Trop>(), graph.trop_edb());
        let (bools, opts) = (BoolDatabase::new(), EngineOpts::default());
        let new = || Materialization::new(&program, &edb, &bools, CAP, schedule, &opts);
        let (mut asked, mut quiet) = (new().expect("compiles"), new().expect("compiles"));
        let (from, to) = (graph.node(3), graph.node(RING));
        let bound = |c: &Constant| QueryArg::Bound(c.clone());
        let adornments = [
            Query::all("T", 2),
            Query::new("T", vec![bound(&from), QueryArg::Free]),
            Query::new("T", vec![QueryArg::Free, bound(&to)]),
            Query::point("T", vec![from.clone(), to.clone()]),
        ];

        let builds = asked.index_builds_for("T");
        let never = Query::new("T", vec![QueryArg::bound("never held"), QueryArg::Free]);
        let answer = asked.query(&never).expect("answers");
        assert_eq!(answer.answers().support_size(), 0, "{schedule:?}");
        for failing in [
            Query::new("Nope", vec![bound(&from), QueryArg::Free]),
            Query::new("T", vec![bound(&from)]),
        ] {
            let err = asked.query(&failing).expect_err("unanswerable");
            assert_eq!(err.kind(), "compile", "{schedule:?}: {failing:?}");
        }
        assert_eq!(
            asked.index_builds_for("T"),
            builds,
            "{schedule:?}: failed reads"
        );
        let mut poisoned = new().expect("compiles");
        poisoned.set_budget(EvalBudget::default().with_max_rows(1));
        let bridge = vec![from.clone(), to.clone()];
        let put = [Edit::insert("E", bridge.clone(), Trop::finite(0.5))];
        poisoned.apply(&put).expect_err("a one-row ceiling trips");
        let err = poisoned.query(&adornments[1]).expect_err("poisoned");
        assert_eq!(err.kind(), "poisoned", "{schedule:?}");
        assert_eq!(
            poisoned.index_builds_for("T"),
            builds,
            "{schedule:?}: poisoned"
        );

        // Per adornment, how many index builds its query made.
        let ask_all = |asked: &mut Materialization<Trop, S>,
                       quiet: &mut Materialization<Trop, S>,
                       leg: &str| {
            let standing = quiet.output().materialize().get("T").cloned();
            let standing = standing.unwrap_or_else(|| Relation::new(2));
            let builds = |m: &Materialization<Trop, S>| m.index_builds_for("T");
            let rises: Vec<u64> = (adornments.iter())
                .map(|q| {
                    let before = builds(asked);
                    let answer = asked.query(q).expect("answers");
                    let want = q.restrict(standing.clone());
                    assert_eq!(answer.answers(), want, "{leg}: {q:?}");
                    builds(asked) - before
                })
                .collect();
            rises
        };
        let first = ask_all(&mut asked, &mut quiet, &format!("{schedule:?}: build"));
        // `T(x, Y)` has no index until it is asked; `T(X, y)` has one
        // from the build: the `E@dlt` variant probes `T` by its second
        // column.
        assert_eq!(first, [0, 1, 0, 0], "{schedule:?}");

        let script = [
            Edit::insert("E", bridge.clone(), Trop::finite(0.5)),
            Edit::delete("E", bridge.clone()),
            Edit::delete("E", vec![graph.node(0), graph.node(1)]),
            Edit::insert("E", bridge, Trop::finite(0.5)),
            Edit::insert("E", vec![graph.node(0), graph.node(1)], Trop::finite(4.0)),
        ];
        for (step, edit) in script.iter().enumerate() {
            let leg = format!("{schedule:?}: step {step} ({edit:?})");
            asked
                .apply(std::slice::from_ref(edit))
                .expect("edit applies");
            quiet
                .apply(std::slice::from_ref(edit))
                .expect("edit applies");
            assert_eq!(observe(&mut asked), observe(&mut quiet), "{leg}");
            let quiet_builds = quiet.index_builds_for("T");
            assert_eq!(asked.index_builds_for("T"), quiet_builds + 1, "{leg}");
            let again = ask_all(&mut asked, &mut quiet, &leg);
            assert_eq!(again, [0; 4], "{leg}: repeated queries");
        }
    }
    for strategy in ALL_STRATEGIES {
        twins(strategy);
    }
    twins(SemiNaive);
    twins(Naive);
}

#[test]
fn per_edit_stats_attribute_work_to_each_edit() {
    let program = apsp_program();
    let edb = edge_db(&base_edges());
    let bools = BoolDatabase::new();
    let mut mat = Materialization::new(
        &program,
        &edb,
        &bools,
        CAP,
        Strategy::Auto,
        &EngineOpts::default(),
    )
    .expect("compiles");
    assert_eq!(mat.last_stats().strategy, "incremental-build");
    assert!(mat.last_stats().counters.rows_inserted > 0);

    let stats = mat
        .insert(&[datalog_o::core::FactInsert::new(
            "E",
            vec![k("d"), k("e")],
            Trop::finite(2.0),
        )])
        .expect("edit applies");
    assert_eq!(stats.strategy, "incremental-insert");
    assert!(
        stats.counters.rows_inserted >= 1,
        "the edit derived new facts"
    );
    assert!(
        !stats.rules.is_empty(),
        "per-rule profile rides along on edits"
    );

    let stats = mat
        .delete(&[datalog_o::core::FactDelete::new("E", vec![k("d"), k("e")])])
        .expect("edit applies");
    assert_eq!(stats.strategy, "incremental-delete");
    assert!(stats.counters.emits > 0, "marking + rederive ran plans");
}

/// `rebuild()` reuses the retained interner: constant ids minted by
/// earlier epochs (including constants introduced by edits) resolve to
/// the same ids after the recovery, so interned keys held by callers
/// stay valid across a rebuild.
#[test]
fn rebuild_keeps_minted_constant_ids_stable() {
    use datalog_o::core::FactInsert;
    use datalog_o::EvalBudget;
    let program = apsp_program();
    let edb = edge_db(&base_edges());
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

    // Edits introduce constants the original EDB never mentioned.
    mat.insert(&[FactInsert::new(
        "E",
        vec![k("zz1"), k("zz2")],
        Trop::finite(1.0),
    )])
    .expect("edit applies");
    mat.insert(&[FactInsert::new(
        "E",
        vec![k("zz2"), k("a")],
        Trop::finite(2.0),
    )])
    .expect("edit applies");
    let probe: Vec<Constant> = vec![k("a"), k("b"), k("zz1"), k("zz2")];
    let ids_before: Vec<u32> = probe
        .iter()
        .map(|c| mat.output().interner().lookup(c).expect("interned"))
        .collect();

    // A healthy-handle rebuild (refresh) keeps every id.
    mat.rebuild().expect("ungoverned rebuild");
    let ids_refreshed: Vec<u32> = probe
        .iter()
        .map(|c| mat.output().interner().lookup(c).expect("still interned"))
        .collect();
    assert_eq!(ids_before, ids_refreshed, "refresh rebuild remints ids");

    // Poison the handle, then recover: ids still stable.
    mat.set_budget(EvalBudget::default().with_max_rows(1));
    mat.insert(&[FactInsert::new(
        "E",
        vec![k("zz3"), k("a")],
        Trop::finite(0.5),
    )])
    .expect_err("one-row ceiling trips");
    assert!(mat.poisoned().is_some());
    mat.set_budget(EvalBudget::unlimited());
    mat.rebuild().expect("recovery rebuild");
    assert!(mat.poisoned().is_none());
    let ids_after: Vec<u32> = probe
        .iter()
        .map(|c| mat.output().interner().lookup(c).expect("still interned"))
        .collect();
    assert_eq!(ids_before, ids_after, "recovery rebuild remints ids");

    // And the recovered fixpoint still matches from-scratch.
    let edb_now = mat.edb().clone();
    let oracle = engine_eval_interned(
        &program,
        &edb_now,
        &bools,
        CAP,
        Strategy::SemiNaive,
        &EngineOpts::default(),
    )
    .expect("compiles")
    .materialize()
    .converged()
    .expect("oracle converges")
    .0;
    let live = mat.output().materialize();
    for (pred, reference) in oracle.iter() {
        let empty = Relation::new(reference.arity());
        assert_eq!(
            reference,
            live.get(pred).unwrap_or(&empty),
            "rebuilt {pred} differs from from-scratch"
        );
    }
}

/// `X` in `R(X) :- V(X + 1)` is bound by no atom, so it ranges over
/// `D₀` — the live EDB's constants and the program's. An edit that
/// grows or shrinks `D₀` must re-derive what `X` reaches, and a
/// constant the heads minted (`R(-1)` below) never joins `D₀`.
#[test]
fn edits_that_move_d0_match_from_scratch() {
    let src = "R(X) :- V(X + 1).\nR(Y - 2) :- R(X) * E(X, Y).\nS(X) :- W(X).";
    let program: Program<Trop> = parse_program(src).unwrap();
    let unary = |rows: &[(i64, f64)]| {
        let rows = rows.iter().map(|&(x, w)| (vec![x.into()], Trop::finite(w)));
        Relation::from_pairs(1, rows)
    };
    let db = |v: &[(i64, f64)], w: &[(i64, f64)], e: &[(i64, i64, f64)]| {
        let mut db = Database::new();
        db.insert("V", unary(v));
        db.insert("W", unary(w));
        let e = e
            .iter()
            .map(|&(x, y, c)| (vec![x.into(), y.into()], Trop::finite(c)));
        db.insert("E", Relation::from_pairs(2, e));
        db
    };
    let cases = [
        (
            "an insert grows D₀: R(-1) = V(0)",
            db(&[(0, 1.0)], &[], &[]),
            Edit::insert("W", vec![(-1i64).into()], Trop::finite(1.0)),
            vec![(-1, 1.0)],
        ),
        (
            "a delete shrinks D₀: R(0) = V(1) goes",
            db(&[(1, 2.0)], &[(0, 9.0)], &[]),
            Edit::delete("W", vec![0i64.into()]),
            vec![],
        ),
        (
            "an insert after minting: -1 stays out of D₀",
            db(&[(0, 1.0), (1, 2.0)], &[], &[(0, 1, 5.0)]),
            Edit::insert("V", vec![5i64.into()], Trop::finite(3.0)),
            vec![(-1, 7.0), (0, 2.0)],
        ),
        (
            "a relation no rule reads keeps its constants in D₀",
            {
                let mut edb = db(&[(0, 1.0)], &[], &[]);
                edb.insert("U", unary(&[(-1, 1.0)]));
                edb
            },
            Edit::insert("W", vec![3i64.into()], Trop::finite(1.0)),
            vec![(-1, 1.0)],
        ),
    ];
    for (case, edb, edit, want) in &cases {
        let lfp = Case::new(*case, &program, edb)
            .script(std::slice::from_ref(edit))
            .check()
            .lfp;
        let r = lfp.get("R").into_iter().flat_map(|r| r.support());
        let got: Vec<(i64, Trop)> = r.map(|(t, v)| (t[0].as_int().unwrap(), *v)).collect();
        let want: Vec<(i64, Trop)> = want.iter().map(|&(x, w)| (x, Trop::finite(w))).collect();
        assert_eq!(got, want, "{case}: R");
    }
}

/// Edits must not churn state the edit never touches: with two
/// independent closures in one program, editing one EDB leaves the
/// other IDB's lazy indexes *and* its row storage untouched — pinned
/// by the engine's per-relation `index_builds` / `version` counters.
#[test]
fn edits_leave_untouched_relations_indexes_alone() {
    let program: Program<Trop> = parse_program(
        "P(X, Z) :- EP(X, Z) + P(X, Y) * P(Y, Z).\n\
         Q(X, Z) :- EQ(X, Z) + Q(X, Y) * Q(Y, Z).",
    )
    .unwrap();
    let mut edb = Database::new();
    edb.insert(
        "EP",
        Relation::from_pairs(
            2,
            vec![
                (vec![k("a"), k("b")], Trop::finite(1.0)),
                (vec![k("b"), k("c")], Trop::finite(1.0)),
            ],
        ),
    );
    edb.insert(
        "EQ",
        Relation::from_pairs(
            2,
            vec![
                (vec![k("x"), k("y")], Trop::finite(2.0)),
                (vec![k("y"), k("z")], Trop::finite(2.0)),
            ],
        ),
    );
    let bools = BoolDatabase::new();
    let mut mat = Materialization::new(
        &program,
        &edb,
        &bools,
        CAP,
        Strategy::Auto,
        &EngineOpts::default(),
    )
    .expect("compiles");

    // Build the initial snapshot, then record Q's counters.
    let _ = mat.output();
    let q_builds = mat.index_builds_for("Q");
    let q_version = mat.version_for("Q");
    let p_version = mat.version_for("P");

    // A stream of edits that only ever touches the P side.
    mat.apply(&[
        Edit::insert("EP", vec![k("c"), k("d")], Trop::finite(1.0)),
        Edit::delete("EP", vec![k("a"), k("b")]),
        Edit::insert("EP", vec![k("a"), k("b")], Trop::finite(0.5)),
    ])
    .expect("edits apply");
    let snap = mat.output().materialize();
    assert_eq!(
        snap.get("P").unwrap().get(&vec![k("a"), k("d")]),
        Trop::finite(2.5),
        "P reflects the edits"
    );
    assert_eq!(
        snap.get("Q").unwrap().get(&vec![k("x"), k("z")]),
        Trop::finite(4.0),
        "Q is still complete"
    );

    assert_ne!(
        mat.version_for("P"),
        p_version,
        "the edited relation's version must move"
    );
    assert_eq!(
        mat.index_builds_for("Q"),
        q_builds,
        "edits to EP must not rebuild Q's indexes"
    );
    assert_eq!(
        mat.version_for("Q"),
        q_version,
        "edits to EP must not rewrite Q's rows"
    );
}

/// A poisoned handle keeps the failed edit's mid-fixpoint state
/// read-only next to the poison: `partial()` is `Some` (best-effort,
/// not exact), its values sit at-or-below the post-edit fixpoint for an
/// interrupted insert, and a successful rebuild clears it. What the
/// partial marks as settled depends on the schedule that maintained
/// the handle: the round loops mark nothing; the priority order marks
/// each row it pops, and those rows already hold their post-edit values
/// — while `is_exact()` stays `false`, because the rows the edit never
/// queued are final too and are not marked.
#[test]
fn poisoned_handle_exposes_partial_beside_the_poison() {
    use datalog_o::core::FactInsert;
    use datalog_o::pops::Pops;
    use datalog_o::EvalBudget;
    let program = apsp_program();
    let edb = edge_db(&base_edges());
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
    assert!(mat.partial().is_none(), "healthy handle has no partial");

    mat.set_budget(EvalBudget::default().with_max_rows(1));
    mat.insert(&[FactInsert::new(
        "E",
        vec![k("d"), k("a")],
        Trop::finite(0.5),
    )])
    .expect_err("one-row ceiling trips");
    assert!(mat.poisoned().is_some());
    let partial = mat.partial().expect("poisoned handle exposes its partial");
    assert!(
        !partial.is_exact(),
        "incremental partials are best-effort, never exact"
    );
    assert_eq!(
        partial.settled().settled_rows(),
        0,
        "semi-naïve rounds settle nothing before they converge"
    );

    // An interrupted *insert* leaves a pointwise lower bound of the
    // post-edit fixpoint (the maintenance loop only grows values).
    let oracle = engine_eval_interned(
        &program,
        &mat.edb(),
        &bools,
        CAP,
        Strategy::SemiNaive,
        &EngineOpts::default(),
    )
    .expect("from-scratch on the retained EDB")
    .materialize()
    .converged()
    .expect("oracle converges")
    .0;
    let snap = partial.materialize();
    for (pred, rel) in snap.iter() {
        for (t, v) in rel.support() {
            let fv = oracle
                .get(pred)
                .map(|r| r.get(t))
                .unwrap_or_else(Trop::bottom);
            assert!(
                v.leq(&fv),
                "partial {pred}({t:?}) = {v:?} above post-edit fixpoint {fv:?}"
            );
        }
    }

    // Recovery clears the partial with the poison.
    mat.set_budget(EvalBudget::unlimited());
    mat.rebuild().expect("recovery rebuild");
    assert!(
        mat.partial().is_none(),
        "rebuild clears the stashed partial"
    );

    // The same edit on a priority handle, stopped after its seed round
    // and one bucket: the seed queues what d→a at 0.5 derives from the
    // standing rows, the first bucket — T(d,a) itself, the best of them
    // — is popped, marked and fired, and the second is popped and marked
    // before the budget check stops the edit.
    let mut mat = Materialization::new(
        &program,
        &edb,
        &bools,
        CAP,
        Strategy::Priority,
        &EngineOpts::default(),
    )
    .expect("compiles");
    mat.set_budget(EvalBudget::default().with_max_steps(1));
    mat.insert(&[FactInsert::new(
        "E",
        vec![k("d"), k("a")],
        Trop::finite(0.5),
    )])
    .expect_err("one step is the seed round and a single bucket");
    let partial = mat.partial().expect("poisoned handle exposes its partial");
    assert!(!partial.is_exact(), "an edit's partial is never exact");
    assert!(
        partial.settled().settled_rows() >= 2,
        "both popped buckets are marked"
    );
    assert_eq!(
        partial.settled_value("T", &[k("d"), k("a")]),
        Some(&Trop::finite(0.5))
    );
    for (pred, rel) in partial.materialize_settled().iter() {
        for (t, v) in rel.support() {
            assert_eq!(
                oracle.get(pred).unwrap().get(t),
                *v,
                "marked {pred}({t:?}) is already final"
            );
        }
    }
    assert!(
        oracle.get("T").unwrap().support_size() as u64 > partial.settled().settled_rows(),
        "the rows the edit never queued are final too, and unmarked"
    );
}

/// A frontier fires splits the rounds never do — those of a
/// sum-product with a value function on an IDB factor — and every edit
/// rebuilds relations: the `@dlt` staging, the EDB without its
/// deleted rows, the IDB without its cone, the Δ relations of the
/// marking rounds. Each rebuild must carry what the frontier's next
/// batch probes (a missing one is a panic from public input, not a
/// wrong answer), and does: the wrapped splits' masks sit in the one
/// requirement list every relation is built from. Three shapes, each
/// through an insert / delete / re-insert script under every strategy:
///
/// * a value-function factor (the rounds recompute the sum-product
///   whole; only a frontier fires its Δ-split);
/// * a constant-bound IDB occurrence (the batch staged as Δ is probed
///   by that constant, not scanned);
/// * both at once — the one shape where the probed Δ mask belongs to no
///   plan the rounds fire, so nothing but that list re-ensures it after
///   the marking rounds swap the Δ relations out.
#[test]
fn edits_keep_every_probe_the_wrapped_splits_read() {
    let cap_fn = || UnaryFn::new("cap", |v: &MaxMin| v.mul(&MaxMin::of(0.3)));
    let widths = |edges: &[(&str, &str, f64)]| {
        Relation::from_pairs(
            2,
            edges
                .iter()
                .map(|(u, v, w)| (vec![k(u), k(v)], MaxMin::of(*w))),
        )
    };
    let widen = |u: &str, v: &str, w: f64| Edit::insert("E", vec![k(u), k(v)], MaxMin::of(w));
    let cut = |u: &str, v: &str| Edit::<MaxMin>::delete("E", vec![k(u), k(v)]);

    // R(X) :- S(X) + cap(R(Y)) * E(Y, X): capacity capped along hops.
    let mut capped = Program::<MaxMin>::new();
    capped.rule(
        Atom::new("R", vec![Term::v(0)]),
        vec![
            SumProduct::new(vec![Factor::atom("S", vec![Term::v(0)])]),
            SumProduct::new(vec![
                Factor::wrapped("R", vec![Term::v(1)], cap_fn()),
                Factor::atom("E", vec![Term::v(1), Term::v(0)]),
            ]),
        ],
    );
    let mut capped_edb = Database::new();
    capped_edb.insert(
        "S",
        Relation::from_pairs(1, vec![(vec![k("s")], MaxMin::of(0.9))]),
    );
    capped_edb.insert("E", widths(&[("s", "a", 0.4), ("a", "b", 0.2)]));
    let capped_script = [
        widen("b", "c", 0.8),
        cut("s", "a"),
        widen("s", "a", 0.4),
        cut("a", "b"),
        widen("a", "b", 0.25),
        widen("c", "s", 0.7),
        cut("b", "c"),
    ];

    // Widest paths, and what "a" reaches one capped hop further on:
    // T(X, Y) :- E(X, Y) + T(X, Z) * E(Z, Y).
    // R(Y)    :- cap(T("a", Z)) * E(Z, Y).
    let mut capped_from_a = Program::<MaxMin>::new();
    capped_from_a.rule(
        Atom::new("T", vec![Term::v(0), Term::v(1)]),
        vec![
            SumProduct::new(vec![Factor::atom("E", vec![Term::v(0), Term::v(1)])]),
            SumProduct::new(vec![
                Factor::atom("T", vec![Term::v(0), Term::v(2)]),
                Factor::atom("E", vec![Term::v(2), Term::v(1)]),
            ]),
        ],
    );
    capped_from_a.rule(
        Atom::new("R", vec![Term::v(0)]),
        vec![SumProduct::new(vec![
            Factor::wrapped("T", vec![Term::c("a"), Term::v(1)], cap_fn()),
            Factor::atom("E", vec![Term::v(1), Term::v(0)]),
        ])],
    );
    let mut from_a_edb = Database::new();
    from_a_edb.insert(
        "E",
        widths(&[("a", "b", 0.9), ("b", "c", 0.5), ("c", "d", 0.7)]),
    );
    let from_a_script = [
        widen("a", "c", 0.6),
        cut("a", "b"),
        widen("a", "b", 0.9),
        cut("b", "c"),
        widen("b", "c", 0.2),
        cut("a", "c"),
    ];

    // The same occurrence without the value function, over Trop.
    let from_a: Program<Trop> = parse_program(
        "T(X, Y) :- E(X, Y) + T(X, Z) * E(Z, Y).\n\
         R(Y) :- T(\"a\", Z) * E(Z, Y).",
    )
    .unwrap();
    let trop_script = [
        insert("d", "e", 2.0),
        delete("b", "c"),
        insert("b", "c", 2.0),
        delete("a", "b"),
        insert("a", "b", 0.5),
    ];

    Case::new("value function", &capped, &capped_edb)
        .script(&capped_script)
        .check();
    Case::new(
        "constant-bound occurrence",
        &from_a,
        &edge_db(&base_edges()),
    )
    .script(&trop_script)
    .check();
    Case::new("constant-bound value function", &capped_from_a, &from_a_edb)
        .script(&from_a_script)
        .check();
}

/// The work counters a build is held to: what the frontier did, not how
/// long it took.
fn work(stats: &datalog_o::EvalStats) -> [u64; 6] {
    let c = &stats.counters;
    [
        stats.steps,
        c.emits,
        c.index_probes,
        c.tuples_scanned,
        c.rows_inserted,
        c.rows_improved,
    ]
}

/// A frontier handle is built by the frontier: the same batches, plans
/// and merges as the from-scratch run under the same strategy — not the
/// semi-naïve rounds, and not one probe for the `@dlt` variant
/// rules the handle compiles beside the program's own.
#[test]
fn frontier_builds_do_exactly_the_from_scratch_work() {
    let bools = BoolDatabase::new();
    let opts = EngineOpts::default();
    let inputs = [("base", apsp_program(), edge_db(&base_edges())), {
        let (program, edb) = dlo_bench::GraphInstance::gradient(64).sssp();
        ("gradient-64", program, edb)
    }];
    for (name, program, edb) in &inputs {
        for strategy in [Strategy::Worklist, Strategy::Priority] {
            let scratch =
                engine_eval_interned(program, edb, &bools, CAP, strategy, &opts).expect("compiles");
            let built =
                Materialization::new(program, edb, &bools, CAP, strategy, &opts).expect("compiles");
            assert_eq!(
                work(built.last_stats()),
                work(scratch.stats()),
                "{name} under {strategy:?}: [steps, emits, probes, scanned, inserted, improved]"
            );
        }
    }
}

/// Cor. 5.19 on the maintenance path, as exact counts: on the gradient
/// graph every node settles once, so under the priority order a build
/// is `n` one-row buckets, a shortcut to the middle improves exactly the
/// `n/2` nodes behind it, and retracting it touches the same half again
/// — marking it, re-deriving it once per node — in work linear in `n`,
/// where global rounds pay Θ(n) rounds of Θ(n) improvements.
#[test]
fn maintenance_on_the_gradient_graph_is_linear_in_counts() {
    let bools = BoolDatabase::new();
    let opts = EngineOpts::default();
    for n in [1000usize, 4000] {
        let graph = dlo_bench::GraphInstance::gradient(n);
        let (program, edb) = graph.sssp();
        let from_scratch = |edb: &Database<Trop>| {
            engine_eval_interned(&program, edb, &bools, CAP, Strategy::Auto, &opts)
                .expect("compiles")
                .materialize()
                .unwrap()
        };
        let mut mat = Materialization::new(&program, &edb, &bools, CAP, Strategy::Auto, &opts)
            .expect("compiles");
        assert_eq!(mat.last_stats().steps, n as u64, "n = {n}: build buckets");
        assert_eq!(mat.output().materialize(), from_scratch(&edb));

        let shortcut = vec![graph.node(0), graph.node(n / 2)];
        let stats = mat
            .apply(&[Edit::insert("E", shortcut.clone(), Trop::finite(0.5))])
            .expect("insert applies");
        assert_eq!(
            stats.counters.rows_improved,
            n as u64 / 2,
            "n = {n}: the shortcut improves the far half, each node once"
        );
        assert_eq!(stats.counters.rows_inserted, 0, "n = {n}");
        assert_eq!(
            mat.get("L", &[graph.node(n - 1)]),
            Some(&Trop::finite(0.5 + (n - 1 - n / 2) as f64))
        );
        let edited = mat.edb().clone();
        assert_eq!(mat.output().materialize(), from_scratch(&edited));

        let stats = mat
            .apply(&[Edit::delete("E", shortcut)])
            .expect("delete applies")
            .clone();
        assert!(
            stats.counters.emits <= 3 * n as u64,
            "n = {n}: deleting the shortcut emitted {} rows",
            stats.counters.emits
        );
        assert_eq!(stats.counters.cone_rows, n as u64 / 2, "n = {n}: the cone");
        assert_eq!(stats.counters.rows_retracted, n as u64 / 2, "n = {n}");
        assert_eq!(stats.counters.rows_inserted, n as u64 / 2, "n = {n}");
        assert_eq!(
            mat.get("L", &[graph.node(n - 1)]),
            Some(&Trop::finite((n - 1) as f64))
        );
        let edited = mat.edb().clone();
        assert_eq!(mat.output().materialize(), from_scratch(&edited));
    }
}

/// A 20-edit script over seven nodes where ties are the rule: deletes
/// as likely as inserts (a delete takes an edge that is there), values
/// drawn from three by `value`, self-loops allowed. Starts from up to
/// fourteen random edges.
fn tie_heavy_script<P: Pops>(seed: u64, value: impl Fn(u64) -> P) -> (Database<P>, Vec<Edit<P>>) {
    const NODES: [&str; 7] = ["n0", "n1", "n2", "n3", "n4", "n5", "n6"];
    let mut rng = Lcg(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1);
    let mut present: Vec<(usize, usize)> = vec![];
    let insert = |rng: &mut Lcg, present: &mut Vec<(usize, usize)>| {
        let edge = ((rng.next() % 7) as usize, (rng.next() % 7) as usize);
        if !present.contains(&edge) {
            present.push(edge);
        }
        (
            vec![k(NODES[edge.0]), k(NODES[edge.1])],
            value(rng.next() % 3),
        )
    };
    let base: Vec<(Tuple, P)> = (0..14).map(|_| insert(&mut rng, &mut present)).collect();
    let mut edb = Database::new();
    let mut e = Relation::new(2);
    for (tuple, v) in base {
        e.merge(tuple, v);
    }
    edb.insert("E", e);
    let script = (0..20)
        .map(|_| {
            if rng.next().is_multiple_of(2) && !present.is_empty() {
                let (u, v) = present.swap_remove((rng.next() % present.len() as u64) as usize);
                Edit::delete("E", vec![k(NODES[u]), k(NODES[v])])
            } else {
                let (tuple, v) = insert(&mut rng, &mut present);
                Edit::insert("E", tuple, v)
            }
        })
        .collect();
    (edb, script)
}

/// The attaining cone's soundness, where it is hardest, on the linear
/// and the quadratic closure: `script_of(seed)` for 120 seeds through
/// the oracle — naïve, semi-naïve and priority handles, which mark the
/// same attaining cone and re-derive it each with its own loop — after
/// every edit.
fn assert_attaining_deletes_match_from_scratch<P>(
    pops: &str,
    script_of: impl Fn(u64) -> (Database<P>, Vec<Edit<P>>),
) where
    P: NaturallyOrdered
        + CompleteDistributiveDioid
        + Absorptive
        + TotallyOrderedDioid
        + Send
        + Sync,
{
    let programs = [
        ("linear", ex::apsp_program::<P>()),
        ("quadratic", ex::quadratic_tc_program::<P>()),
    ];
    for seed in 1..=120 {
        let (edb, script) = script_of(seed);
        for (name, program) in &programs {
            let scenario = format!("{pops} {name} seed {seed}");
            Case::new(scenario, program, &edb).script(&script).check();
        }
    }
}

/// Weights in {0, 1, 2} on `Trop`: a zero-weight cycle lets rows attain
/// each other's values in a ring — marking any must mark all, and none
/// may re-derive itself from the others.
#[test]
fn attaining_deletes_match_from_scratch_on_zero_weight_cycles() {
    assert_attaining_deletes_match_from_scratch("Trop", |seed| {
        tie_heavy_script(seed, |i| Trop::finite(i as f64))
    });
}

/// Capacities in {0.25, 0.5, 0.75} on `MaxMin`: `⊗ = min` is
/// non-strict, so most rows have many attaining derivations and most
/// contributions tie.
#[test]
fn attaining_deletes_match_from_scratch_under_a_non_strict_product() {
    assert_attaining_deletes_match_from_scratch("MaxMin", |seed| {
        tie_heavy_script(seed, |i| MaxMin::of(0.25 * (i + 1) as f64))
    });
}

/// Longest paths over `MaxPlus` on a DAG — every edge runs from a lower
/// to a higher node id, so every path sum is finite. `MaxPlus` is a
/// complete distributive dioid but no absorptive chain (`max(x, 0) ≠ 0`
/// for a gain `x > 0`), so a value can be the sum of derivations none of
/// which attains it, and every handle marks the **syntactic** cone: the
/// `T(x, y)` with a path `x →* u → v →* y` through the deleted `u → v`.
/// 24 random scripts over eight nodes, deletes as likely as inserts (a
/// delete takes an edge that is there): after every edit both round
/// handles are the from-scratch fixpoint, and every delete's
/// `cone_rows` is that count on the EDB before it.
#[test]
fn syntactic_deletes_match_from_scratch_off_absorptive_chains() {
    use datalog_o::pops::MaxPlus;
    const N: u64 = 8;
    let node = |i: u64| k(&format!("n{i}"));
    for seed in 1..=24u64 {
        let mut rng = Lcg(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1);
        let mut present: Vec<(u64, u64)> = vec![];
        let insert = |rng: &mut Lcg, present: &mut Vec<(u64, u64)>| {
            let from = rng.next() % (N - 1);
            let edge = (from, from + 1 + rng.next() % (N - 1 - from));
            if !present.contains(&edge) {
                present.push(edge);
            }
            let gain = MaxPlus::finite((1 + rng.next() % 5) as f64);
            Edit::insert("E", vec![node(edge.0), node(edge.1)], gain)
        };
        let mut edb = Database::new();
        for _ in 0..12 {
            oracle::mirror(&mut edb, &insert(&mut rng, &mut present));
        }
        let script: Vec<Edit<MaxPlus>> = (0..20)
            .map(|_| {
                if rng.next().is_multiple_of(2) && !present.is_empty() {
                    let (u, v) = present.swap_remove((rng.next() % present.len() as u64) as usize);
                    Edit::delete("E", vec![node(u), node(v)])
                } else {
                    insert(&mut rng, &mut present)
                }
            })
            .collect();
        // The syntactic cone of each delete, on the EDB it deletes from.
        let mut before = edb.clone();
        let expected: Vec<u64> = (script.iter())
            .map(|edit| {
                let cone = match edit {
                    Edit::Delete(f) => {
                        let edges: Vec<(&Constant, &Constant)> = (before.get("E").into_iter())
                            .flat_map(|e| e.support().map(|(t, _)| (&t[0], &t[1])))
                            .collect();
                        let reach = |from: &Constant, forward: bool| {
                            let mut seen = vec![from.clone()];
                            let mut i = 0;
                            while i < seen.len() {
                                for &(a, b) in &edges {
                                    let (near, far) = if forward { (a, b) } else { (b, a) };
                                    if *near == seen[i] && !seen.contains(far) {
                                        seen.push(far.clone());
                                    }
                                }
                                i += 1;
                            }
                            seen.len() as u64
                        };
                        reach(&f.tuple[0], false) * reach(&f.tuple[1], true)
                    }
                    Edit::Insert(_) => 0,
                };
                oracle::mirror(&mut before, edit);
                cone
            })
            .collect();
        let scenario = format!("MaxPlus DAG seed {seed}");
        let program = ex::apsp_program::<MaxPlus>();
        let report = Case::new(&scenario, &program, &edb)
            .script(&script)
            .check_rounds();
        for handle in &report.loops {
            let cones: Vec<u64> = handle.edits.iter().map(|s| s.counters.cone_rows).collect();
            assert_eq!(cones, expected, "{scenario}: {} cone_rows", handle.name);
        }
    }
}

/// Inexact floats: weights in {0.1, 0.2, 0.7} on `Trop` under a
/// three-factor rule, where `(a + b) + c ≠ a + (b + c)` in `f64`. The
/// attaining test compares a product a variant plan recomputes with the
/// stored one bit for bit, and every handle re-derives its cone through
/// guarded plans that join in another order than the plans that stored
/// the value: both hold only because every plan folds its factors in
/// its rule's textual order. Every handle, against from-scratch, after
/// every edit.
#[test]
fn deletes_match_from_scratch_under_inexact_float_products() {
    let program: Program<Trop> =
        parse_program("T(X, Y) :- E(X, Y) + T(X, Z) * E(Z, W) * E(W, Y).").unwrap();
    assert_ne!((0.1 + 0.2) + 0.7, 0.1 + (0.2 + 0.7));
    for seed in 1..=24 {
        let (edb, script) = tie_heavy_script(seed, |i| Trop::finite([0.1, 0.2, 0.7][i as usize]));
        let scenario = format!("three factors seed {seed}");
        let case = Case::new(scenario, &program, &edb).script(&script);
        case.engine_reference().check();
    }
}

/// A value function that lifts `0` (`lift(x) = x ⊕ 0.1` on `MaxMin`) on
/// the IDB factor of `R(X) :- S(X) + lift(R(Y)) * E(Y, X)` over the ring
/// s → a → b → s. A delete leaves its cone at `0` while it re-derives
/// it, and a row at `0` is no fact: `lift` must not raise it to `0.1`
/// and bring back rows that from scratch have no derivation at all.
#[test]
fn a_zeroed_row_is_no_fact_to_a_value_function() {
    let lift = UnaryFn::new("lift", |v: &MaxMin| v.add(&MaxMin::of(0.1)));
    let mut program = Program::<MaxMin>::new();
    program.rule(
        Atom::new("R", vec![Term::v(0)]),
        vec![
            SumProduct::new(vec![Factor::atom("S", vec![Term::v(0)])]),
            SumProduct::new(vec![
                Factor::wrapped("R", vec![Term::v(1)], lift),
                Factor::atom("E", vec![Term::v(1), Term::v(0)]),
            ]),
        ],
    );
    let mut ring = Database::new();
    ring.insert(
        "S",
        Relation::from_pairs(1, vec![(vec![k("s")], MaxMin::of(0.9))]),
    );
    ring.insert(
        "E",
        Relation::from_pairs(
            2,
            [("s", "a", 0.4), ("a", "b", 0.2), ("b", "s", 0.7)]
                .map(|(u, v, w)| (vec![k(u), k(v)], MaxMin::of(w))),
        ),
    );
    let script = [
        Edit::<MaxMin>::delete("S", vec![k("s")]),
        Edit::insert("S", vec![k("s")], MaxMin::of(0.9)),
        Edit::delete("E", vec![k("s"), k("a")]),
    ];
    Case::new("lifted ring", &program, &ring)
        .script(&script)
        .check();
}

/// The shapes beside the single closure: two mutually recursive IDBs
/// (a cone that crosses predicates, one `@cone` relation each); a
/// key-function head, which no guard can name — `W`'s second rule
/// re-derives through its full seed plan, its first through a guard;
/// and a value function on an IDB factor, where the attaining argument
/// does not hold and every handle marks the syntactic cone.
#[test]
fn attaining_deletes_cover_two_idbs_key_function_heads_and_fall_back_on_value_functions() {
    let opts = EngineOpts::default();
    let bools = BoolDatabase::new();
    let two_idbs: Program<Trop> = parse_program(
        "A(X, Y) :- E(X, Y) + B(X, Z) * E(Z, Y).\n\
         B(X, Y) :- A(X, Z) * A(Z, Y).",
    )
    .unwrap();
    for seed in 1..=24 {
        let (edb, script) = tie_heavy_script(seed, |i| Trop::finite(i as f64));
        let scenario = format!("two IDBs seed {seed}");
        Case::new(scenario, &two_idbs, &edb).script(&script).check();
    }

    // W(0) :- V(0).  W(I + 1) :- W(I) * V(I + 1).  Prefix sums of
    // 1, 2, …, 8 over Trop: W(i) hangs on every V(j ≤ i).
    let values: Vec<f64> = (1..=8).map(f64::from).collect();
    let (prefix, prefix_edb) = ex::prefix_sum_keyed(&values, Trop::finite);
    let v = |i: i64| vec![Constant::Int(i)];
    let prefix_script = [
        Edit::delete("V", v(5)),
        Edit::insert("V", v(5), Trop::finite(0.0)),
        Edit::delete("V", v(0)),
        Edit::insert("V", v(0), Trop::finite(1.0)),
        Edit::delete("V", v(7)),
    ];
    Case::new("key-function head", &prefix, &prefix_edb)
        .script(&prefix_script)
        .check();
    let mut mat = Materialization::new(&prefix, &prefix_edb, &bools, CAP, Strategy::Auto, &opts)
        .expect("compiles");
    let c = mat.apply(&prefix_script[..1]).expect("applies").counters;
    assert_eq!(
        (
            c.cone_rows,
            c.rows_retracted,
            c.rows_inserted,
            c.cone_of_rows
        ),
        (3, 3, 0, 8),
        "W(5), W(6), W(7) hang on V(5) and nothing brings them back"
    );
    let c = mat.apply(&prefix_script[1..3]).expect("applies").counters;
    assert_eq!(
        (c.cone_rows, c.rows_inserted, mat.support_size("W")),
        (8, 0, 0),
        "W(0), marked through its guarded rule, takes every row with it"
    );

    // R(X) :- S(X) + cap(R(Y)) * E(Y, X) on s → a → b → s: cutting
    // s → a reaches R(s) again through b → s, at 0.2 against the 0.9
    // R(s) holds from S. Syntactically that is the whole relation; by
    // attained value it would be R(a) and R(b) only — as it is for the
    // same rule without the value function.
    let cap_fn = UnaryFn::new("cap", |v: &MaxMin| v.mul(&MaxMin::of(0.3)));
    let body = |r: Factor<MaxMin>| {
        let mut p = Program::<MaxMin>::new();
        p.rule(
            Atom::new("R", vec![Term::v(0)]),
            vec![
                SumProduct::new(vec![Factor::atom("S", vec![Term::v(0)])]),
                SumProduct::new(vec![r, Factor::atom("E", vec![Term::v(1), Term::v(0)])]),
            ],
        );
        p
    };
    let capped = body(Factor::wrapped("R", vec![Term::v(1)], cap_fn));
    let plain = body(Factor::atom("R", vec![Term::v(1)]));
    let mut ring = Database::new();
    ring.insert(
        "S",
        Relation::from_pairs(1, vec![(vec![k("s")], MaxMin::of(0.9))]),
    );
    ring.insert(
        "E",
        Relation::from_pairs(
            2,
            [("s", "a", 0.4), ("a", "b", 0.2), ("b", "s", 0.7)]
                .map(|(u, v, w)| (vec![k(u), k(v)], MaxMin::of(w))),
        ),
    );
    let cut = [Edit::<MaxMin>::delete("E", vec![k("s"), k("a")])];
    Case::new("ring, capped", &capped, &ring)
        .script(&cut)
        .check();
    Case::new("ring, plain", &plain, &ring).script(&cut).check();
    for strategy in [Strategy::Auto, Strategy::SemiNaive, Strategy::Worklist] {
        for (program, cone) in [(&capped, 3), (&plain, 2)] {
            let mut mat = Materialization::new(program, &ring, &bools, CAP, strategy, &opts)
                .expect("compiles");
            let c = mat.apply(&cut).expect("applies").counters;
            assert_eq!((c.cone_rows, c.cone_of_rows), (cone, 3), "{strategy:?}");
            assert_eq!(
                mat.support_size("R"),
                1,
                "{strategy:?}: R(s) is what is left"
            );
        }
    }
}

/// A delete costs its cone, in exact counts. Single-source distances on
/// a 400-node unit chain with a shortcut `0 → 396`: four rows sit
/// behind the shortcut, and retracting it marks those four, zeroes
/// them where they stand and re-derives them through the head guard —
/// `tuples_scanned` a small multiple of four, where the full seed plan
/// alone reads all 400 rows of `L` once. Every handle marks the same
/// four rows (here the syntactic cone is the attaining one), so a
/// `SemiNaive` handle does the same; the naïve rounds re-run every
/// rule, but land in place like every other loop: the same counts, and
/// no row moved.
#[test]
fn a_delete_scans_its_cone_not_the_relation() {
    const N: usize = 400;
    fn check<S: Schedule<Trop> + std::fmt::Debug>(schedule: S, bounded: bool) {
        let mut graph = dlo_bench::GraphInstance::path(N);
        graph.edges.push((0, N - 4, 0.5));
        let (program, edb) = graph.sssp();
        let bools = BoolDatabase::new();
        let opts = EngineOpts::default();
        let shortcut = vec![graph.node(0), graph.node(N - 4)];
        let mut mat =
            Materialization::new(&program, &edb, &bools, CAP, schedule, &opts).expect("compiles");
        let before = observe(&mut mat).2;
        let stats = mat
            .apply(&[Edit::delete("E", shortcut.clone())])
            .expect("delete applies")
            .clone();
        let c = &stats.counters;
        assert_eq!(
            (
                c.cone_rows,
                c.cone_of_rows,
                c.rows_retracted,
                c.rows_inserted
            ),
            (4, N as u64, 4, 4),
            "{schedule:?}: the rows behind the shortcut, all back by the chain"
        );
        assert!(
            !bounded || (c.tuples_scanned <= 16 * c.cone_rows && c.emits <= 8 * c.cone_rows),
            "{schedule:?}: scanned {} rows and emitted {} for a cone of 4",
            c.tuples_scanned,
            c.emits
        );
        assert!(
            stats.explain().contains("| cone 1.0 % of 400 rows"),
            "{schedule:?}:\n{}",
            stats.explain()
        );
        assert_eq!(
            mat.get("L", &[graph.node(N - 1)]),
            Some(&Trop::finite((N - 1) as f64))
        );
        // No row moved: same ids, same order, four values changed.
        let after = observe(&mut mat).2;
        assert_eq!(before.len(), after.len());
        for ((pred, was), (_, is)) in before.iter().zip(&after) {
            let ids = |rows: &[(u32, Vec<u32>, Trop)]| -> Vec<(u32, Vec<u32>)> {
                rows.iter().map(|(r, key, _)| (*r, key.clone())).collect()
            };
            assert_eq!(
                ids(was),
                ids(is),
                "{schedule:?}: {pred} kept its rows in place"
            );
            let moved = was.iter().zip(is).filter(|(a, b)| a.2 != b.2).count();
            assert_eq!(moved, 4, "{schedule:?}");
        }
    }
    for strategy in ALL_STRATEGIES {
        check(strategy, true);
    }
    check(datalog_o::SemiNaive, true);
    check(Naive, false);
}

/// The engine-level twin of the benchmark's repeat check: on a strongly
/// connected digraph (a 60-ring plus chords), inserting a cheap chord
/// and deleting it again is the same work the second time as the first
/// — identical counters for the insert and for the delete — and leaves
/// the state row for row what it was, ids and order included, on every
/// handle. A delete that rebuilt `T` with its cone at the end would
/// pass the value check and fail both of these: the frontier merges
/// emissions one by one, so `rows_improved` / `merges_absorbed` depend
/// on row order. `Trop` is an absorptive chain, so every handle marks
/// the same attaining cone, and a `SemiNaive` handle does exactly what
/// a `Strategy::SemiNaive` one does.
#[test]
fn insert_then_delete_repeats_exactly_and_moves_no_row() {
    const N: usize = 60;
    use datalog_o::core::eval::stats::Counters;
    /// The two cycles' `(insert, delete)` counters on a fresh handle.
    fn cycle_twice<S: Schedule<Trop> + std::fmt::Debug>(schedule: S) -> Vec<(Counters, Counters)> {
        let mut graph = dlo_bench::GraphInstance::cycle(N);
        let mut rng = Lcg(7);
        while graph.edges.len() < 3 * N {
            let (u, v) = (
                (rng.next() % N as u64) as usize,
                (rng.next() % N as u64) as usize,
            );
            if u != v && (u + 1) % N != v && !graph.edges.iter().any(|e| (e.0, e.1) == (u, v)) {
                graph.edges.push((u, v, (2 + rng.next() % 7) as f64));
            }
        }
        let (program, edb) = (ex::apsp_program::<Trop>(), graph.trop_edb());
        let bools = BoolDatabase::new();
        let opts = EngineOpts::default();
        let chord = vec![graph.node(3), graph.node(40)];
        assert!(!graph.edges.iter().any(|e| (e.0, e.1) == (3, 40)));
        let mut mat =
            Materialization::new(&program, &edb, &bools, CAP, schedule, &opts).expect("compiles");
        assert_eq!(mat.support_size("T"), N * N, "strongly connected");
        let standing = observe(&mut mat).2;
        let mut cycles = vec![];
        for _ in 0..2 {
            let put = [Edit::insert("E", chord.clone(), Trop::finite(0.5))];
            let inserted = mat.apply(&put).expect("insert applies").counters;
            let cut = [Edit::delete("E", chord.clone())];
            let deleted = mat.apply(&cut).expect("delete applies").counters;
            assert_eq!(observe(&mut mat).2, standing, "{schedule:?}: rows moved");
            cycles.push((inserted, deleted));
        }
        assert_eq!(
            cycles[0], cycles[1],
            "{schedule:?}: the second cycle's counters"
        );
        cycles
    }
    for strategy in ALL_STRATEGIES {
        for (inserted, deleted) in cycle_twice(strategy) {
            // Paths over the chord end in .5 and no other does: nothing
            // ties, so the attaining cone is exactly the rows the insert
            // improved (each counted once per improvement).
            assert!(
                deleted.cone_rows > 0 && deleted.cone_rows <= inserted.rows_improved,
                "{strategy:?}: the cone is what the insert improved"
            );
            assert!(deleted.cone_rows < (N * N) as u64 / 4, "{strategy:?}");
        }
    }
    // `Trop` licenses the attaining cone whatever the schedule: a
    // `SemiNaive` handle runs `Strategy::SemiNaive`'s loop and marks its
    // cone, counter for counter, and a `Naive` handle marks it too.
    let twin = cycle_twice(Strategy::SemiNaive);
    assert_eq!(cycle_twice(datalog_o::SemiNaive), twin);
    for ((_, naive), (_, semi)) in cycle_twice(Naive).iter().zip(&twin) {
        assert_eq!(
            naive.cone_rows, semi.cone_rows,
            "Naive marks the attaining cone"
        );
    }
}

/// The same cycle with an edge that connects something new: a 40-ring,
/// a separate edge `40 → 41`, and the bridge `3 → 40`. The insert
/// appends `T(x, 40)` and `T(x, 41)` for every ring node `x`; the delete
/// loses exactly those 80 rows for good — tombstones where they stand,
/// which every reader skips, on every handle — and must leave the state
/// as its readers see it row for row what it was, and do the same work
/// the second time round, when the insert brings the 80 rows back at
/// their ids.
#[test]
fn a_delete_that_disconnects_takes_back_the_rows_its_insert_appended() {
    fn cycle_twice<S: Schedule<Trop> + std::fmt::Debug>(schedule: S) {
        const N: usize = 40;
        let mut graph = dlo_bench::GraphInstance::cycle(N);
        graph.edges.push((N, N + 1, 2.0));
        let (program, edb) = (ex::apsp_program::<Trop>(), graph.trop_edb());
        let (bools, opts) = (BoolDatabase::new(), EngineOpts::default());
        let bridge = vec![graph.node(3), graph.node(N)];
        let mut mat =
            Materialization::new(&program, &edb, &bools, CAP, schedule, &opts).expect("compiles");
        assert_eq!(mat.support_size("T"), N * N + 1);
        let standing = observe(&mut mat).2;
        let mut cycles = vec![];
        for _ in 0..2 {
            let put = [Edit::insert("E", bridge.clone(), Trop::finite(0.5))];
            let inserted = mat.apply(&put).expect("insert applies").counters;
            assert_eq!(mat.support_size("T"), N * N + 1 + 2 * N);
            let far = [graph.node(4), graph.node(N + 1)];
            assert_eq!(mat.get("T", &far), Some(&Trop::finite(N as f64 + 1.5)));
            let cut = [Edit::delete("E", bridge.clone())];
            let deleted = mat.apply(&cut).expect("delete applies").counters;
            assert_eq!(observe(&mut mat).2, standing, "{schedule:?}: rows moved");
            assert_eq!(deleted.cone_rows, 2 * N as u64, "{schedule:?}");
            assert_eq!(deleted.rows_retracted, 2 * N as u64, "{schedule:?}");
            assert_eq!(deleted.rows_inserted, 0, "{schedule:?}: nothing comes back");
            cycles.push((inserted, deleted));
        }
        assert_eq!(cycles[0], cycles[1], "{schedule:?}: the second cycle");
    }
    for strategy in ALL_STRATEGIES {
        cycle_twice(strategy);
    }
    cycle_twice(datalog_o::SemiNaive);
    cycle_twice(Naive);
}

/// The same graph with the bridge `3 → 40` loaded: its row of `E` and
/// the 80 rows of `T` it derives lie in the middle of their relations,
/// not at the tail. Deleting the bridge leaves them at `0` where they
/// stand, and putting it back brings every one of them back at its id:
/// after each cycle the state is row for row what the build left, ids
/// included, and the second cycle does exactly the first one's work, on
/// every handle.
#[test]
fn a_loaded_bridge_deleted_and_put_back_comes_back_at_its_row_ids() {
    fn cycle_twice<S: Schedule<Trop> + std::fmt::Debug>(schedule: S) {
        const N: usize = 40;
        let mut graph = dlo_bench::GraphInstance::cycle(N);
        graph.edges.extend([(3, N, 0.5), (N, N + 1, 2.0)]);
        let (program, edb) = (ex::apsp_program::<Trop>(), graph.trop_edb());
        let (bools, opts) = (BoolDatabase::new(), EngineOpts::default());
        let bridge = vec![graph.node(3), graph.node(N)];
        let mut mat =
            Materialization::new(&program, &edb, &bools, CAP, schedule, &opts).expect("compiles");
        assert_eq!(mat.support_size("T"), N * N + 1 + 2 * N);
        let standing = observe(&mut mat).2;
        let mut cycles = vec![];
        for _ in 0..2 {
            let cut = [Edit::delete("E", bridge.clone())];
            let deleted = mat.apply(&cut).expect("delete applies").counters;
            assert_eq!(mat.support_size("T"), N * N + 1, "{schedule:?}");
            assert_eq!(deleted.rows_retracted, 2 * N as u64, "{schedule:?}");
            let put = [Edit::insert("E", bridge.clone(), Trop::finite(0.5))];
            let inserted = mat.apply(&put).expect("insert applies").counters;
            assert_eq!(observe(&mut mat).2, standing, "{schedule:?}: rows moved");
            cycles.push((deleted, inserted));
        }
        assert_eq!(cycles[0], cycles[1], "{schedule:?}: the second cycle");
    }
    for strategy in ALL_STRATEGIES {
        cycle_twice(strategy);
    }
    cycle_twice(datalog_o::SemiNaive);
    cycle_twice(Naive);
}

/// Deletes that leave more than half of a relation at `0` compact it.
/// Five cuts of an 8-ring: the first turns the closure's 64 rows of `T`
/// into a path's 28, the third leaves 8 of those 28, the fifth 3 of 8,
/// and the fifth also leaves 5 of `E`'s 8 rows at `0`. The oracle holds
/// every handle to the least fixpoint at every step; beside it, two
/// handles given the script hold the same rows at the same ids, and the
/// compacted `T` holds its live rows only, at ids `0..len()`.
#[test]
fn deletes_past_half_a_relation_compact_it_alike_on_every_handle() {
    const N: usize = 8;
    let graph = dlo_bench::GraphInstance::cycle(N);
    let (program, edb) = (ex::apsp_program::<Trop>(), graph.trop_edb());
    let cut = |i: usize| Edit::delete("E", vec![graph.node(i), graph.node((i + 1) % N)]);
    let script: Vec<Edit<Trop>> = [0, 2, 4, 6, 1].map(cut).into();
    Case::new("ring cuts past half", &program, &edb)
        .script(&script)
        .check();
    fn twice<S: Schedule<Trop> + std::fmt::Debug>(
        schedule: S,
        program: &Program<Trop>,
        edb: &Database<Trop>,
        script: &[Edit<Trop>],
    ) {
        let (bools, opts) = (BoolDatabase::new(), EngineOpts::default());
        let run = || {
            let mut mat =
                Materialization::new(program, edb, &bools, CAP, schedule, &opts).expect("compiles");
            mat.apply(script).expect("the script applies");
            let len = mat.output().relation("T").expect("derived").len();
            (observe(&mut mat).2, len)
        };
        let ((rows, len), twin) = (run(), run());
        assert_eq!((&rows, len), (&twin.0, twin.1), "{schedule:?}");
        let (_, t) = rows.iter().find(|(p, _)| p == "T").expect("listed");
        let ids: Vec<u32> = t.iter().map(|(r, _, _)| *r).collect();
        assert_eq!(
            ids,
            (0..len as u32).collect::<Vec<_>>(),
            "{schedule:?}: compacted"
        );
        assert_eq!(len, 3, "{schedule:?}: 3 → 4, 5 → 6 and 7 → 0 are left");
    }
    for strategy in ALL_STRATEGIES {
        twice(strategy, &program, &edb, &script);
    }
    twice(datalog_o::SemiNaive, &program, &edb, &script);
    twice(Naive, &program, &edb, &script);
}

/// Edits on a closure whose row map is a slot table: APSP on a 48-node
/// near-complete digraph (all ordered pairs but `(7u + v) % 5 == 0`,
/// weights 1–9) keeps all 48² rows of `T` over ids 0–47, direct-addressed
/// from 1 024 rows on. A cheap chord in and out, a missing pair added,
/// an existing edge cut: every handle matches every from-scratch oracle
/// after every edit, and the standing `T` stays dense throughout.
#[test]
fn edits_on_a_direct_addressed_closure_match_from_scratch() {
    const N: usize = 48;
    let mut graph = dlo_bench::GraphInstance {
        n: N,
        edges: vec![],
    };
    for u in 0..N {
        for v in (0..N).filter(|&v| u != v && (7 * u + v) % 5 != 0) {
            graph.edges.push((u, v, (1 + (3 * u + 5 * v) % 9) as f64));
        }
    }
    let edge = |u: usize, v: usize| vec![graph.node(u), graph.node(v)];
    assert_eq!((7 * 2 + 11) % 5, 0, "2 → 11 is a missing pair");
    let script = [
        Edit::insert("E", edge(3, 40), Trop::finite(0.5)),
        Edit::insert("E", edge(2, 11), Trop::finite(1.0)),
        Edit::delete("E", edge(3, 40)),
        Edit::delete("E", edge(0, 1)),
        Edit::insert("E", edge(0, 1), Trop::finite(9.0)),
    ];
    let (program, edb) = (ex::apsp_program::<Trop>(), graph.trop_edb());
    let opts = EngineOpts::default();
    let case = Case::new("dense APSP", &program, &edb).script(&script);
    case.engine_reference().check();
    let mut mat = Materialization::new(
        &program,
        &edb,
        &BoolDatabase::new(),
        CAP,
        Strategy::Auto,
        &opts,
    )
    .expect("compiles");
    for edit in &script {
        mat.apply(std::slice::from_ref(edit)).expect("edit applies");
        let explain = mat.output().explain();
        assert!(
            explain.contains("T: 2304 rows, row map dense 48²"),
            "{edit:?}:\n{explain}"
        );
    }
}

/// The other way a slot table meets an edit: a head key function mints
/// the keys, so the ids of `W` outgrow the table's side between
/// batches. `W(I + 1) :- W(I) | I < 3100` walks from `V(1000)` to 3 100
/// (2 101 rows, dense from 1 024, its side doubled twice as the build
/// mints); inserting `V(-2500)` mints 3 500 more ids in one edit, past
/// that side, and the table widens again; deletes and a re-insert take
/// rows out and bring the minted ids back. Every handle matches every
/// from-scratch oracle after every edit.
#[test]
fn minted_keys_widen_a_dense_row_map_between_edits() {
    let program: Program<Trop> =
        parse_program("W(I) :- V(I).\nW(I + 1) :- W(I) | I < 3100.").unwrap();
    let v = |i: i64| vec![Constant::Int(i)];
    let mut edb = Database::new();
    edb.insert(
        "V",
        Relation::from_pairs(
            1,
            [(1000, 5.0), (2000, 3.0)].map(|(i, w)| (v(i), Trop::finite(w))),
        ),
    );
    let script = [
        Edit::insert("V", v(-2500), Trop::finite(4.0)),
        Edit::insert("V", v(3000), Trop::finite(1.0)),
        Edit::delete("V", v(2000)),
        Edit::delete("V", v(-2500)),
        Edit::insert("V", v(-2500), Trop::finite(2.0)),
    ];
    let opts = EngineOpts::default();
    let case = Case::new("minted dense keys", &program, &edb).script(&script);
    case.past_naive_reach().check();
    let mut mat = Materialization::new(
        &program,
        &edb,
        &BoolDatabase::new(),
        CAP,
        Strategy::Auto,
        &opts,
    )
    .expect("compiles");
    let row_map_of_w = |mat: &mut Materialization<Trop>| {
        let explain = mat.output().explain();
        explain
            .lines()
            .find(|l| l.starts_with("W:"))
            .map(str::to_owned)
    };
    let built = row_map_of_w(&mut mat).expect("W is an IDB");
    assert!(
        built.starts_with("W: 2101 rows, row map dense 4100 "),
        "{built}"
    );
    mat.apply(&script[..1]).expect("edit applies");
    let widened = row_map_of_w(&mut mat).expect("W is an IDB");
    assert!(
        widened.starts_with("W: 5601 rows, row map dense 8200 "),
        "{widened}"
    );
}
