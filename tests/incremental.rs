//! The incremental-maintenance differential harness: every edit script
//! — random and adversarial — is applied step by step to a live
//! [`Materialization`] *and* mirrored on a classic [`Database`], and
//! after **every** step the materialization must equal the from-scratch
//! fixpoint of the edited EDB, across evaluation strategies and thread
//! counts, values exact per row.
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
    parse_program, parse_query, BoolDatabase, Constant, Database, Edit, Program, Relation, Tuple,
};
use datalog_o::pops::{NNReal, Pops, Trop};
use datalog_o::{engine_eval_interned, EngineOpts, Materialization, Naive, Schedule, Strategy};

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

/// Applies one edit to the classic mirror exactly as the engine defines
/// edit semantics: insert `⊕`-merges, delete removes the fact.
fn mirror(edb: &mut Database<Trop>, edit: &Edit<Trop>) {
    match edit {
        Edit::Insert(f) => edb
            .get_or_insert(&f.pred, f.tuple.len())
            .merge(f.tuple.clone(), f.value),
        Edit::Delete(f) => edb
            .get_or_insert(&f.pred, f.tuple.len())
            .set(f.tuple.clone(), Trop::INF),
    }
}

/// Runs `script` through a [`Materialization`] and asserts that after
/// every step it is bit-identical to the from-scratch fixpoint of the
/// mirrored EDB under each of `strategies`.
fn assert_differential(
    scenario: &str,
    program: &Program<Trop>,
    edb: &Database<Trop>,
    script: &[Edit<Trop>],
    strategies: &[Strategy],
    opts: &EngineOpts,
) {
    let bools = BoolDatabase::new();
    let mut mat =
        Materialization::new(program, edb, &bools, CAP, Strategy::Auto, opts).expect("compiles");
    let mut mirror_edb = edb.clone();
    for (step, edit) in script.iter().enumerate() {
        mat.apply(std::slice::from_ref(edit)).expect("edit applies");
        mirror(&mut mirror_edb, edit);
        let live = mat.output().materialize();
        for &strategy in strategies {
            let scratch = engine_eval_interned(program, &mirror_edb, &bools, CAP, strategy, opts)
                .expect("compiles")
                .materialize()
                .converged()
                .unwrap_or_else(|| panic!("{scenario}: oracle diverged at step {step}"))
                .0;
            for (pred, reference) in scratch.iter() {
                let empty = Relation::new(reference.arity());
                assert_eq!(
                    reference,
                    live.get(pred).unwrap_or(&empty),
                    "{scenario}: step {step} ({edit:?}) differs from {strategy:?} oracle on {pred}"
                );
            }
            for (pred, r) in live.iter() {
                if scratch.get(pred).is_none() {
                    assert!(
                        r.is_empty(),
                        "{scenario}: step {step} kept extra atoms in {pred}"
                    );
                }
            }
        }
    }
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
    assert_differential(
        "insert-only",
        &apsp_program(),
        &edge_db(&base_edges()),
        &script,
        &ALL_STRATEGIES,
        &EngineOpts::default(),
    );
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
    assert_differential(
        "delete-only",
        &apsp_program(),
        &edge_db(&base_edges()),
        &script,
        &ALL_STRATEGIES,
        &EngineOpts::default(),
    );
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
    assert_differential(
        "interleaved",
        &apsp_program(),
        &edge_db(&base_edges()),
        &script,
        &ALL_STRATEGIES,
        &EngineOpts::default(),
    );
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
    assert_differential(
        "delete-then-reinsert",
        &apsp_program(),
        &edge_db(&base_edges()),
        &script,
        &ALL_STRATEGIES,
        &EngineOpts::default(),
    );
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
    assert_differential(
        "only-shortest-path",
        &program,
        &edb,
        &[delete("b", "c")],
        &ALL_STRATEGIES,
        &opts,
    );
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
/// — and the classic mirror must show a merged fact, never a second row.
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
            warm.edb(),
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
        match edit {
            Edit::Insert(f) => edited
                .get_or_insert(&f.pred, f.tuple.len())
                .merge(f.tuple.clone(), f.value.clone()),
            Edit::Delete(f) => edited
                .get_or_insert(&f.pred, f.tuple.len())
                .set(f.tuple.clone(), P::bottom()),
        }
        assert_eq!(cold.edb(), &edited, "{scenario}: {edit:?} classic mirror");
        let mut scratch = build(&edited);
        assert_eq!(
            cold.output().materialize(),
            scratch.output().materialize(),
            "{scenario}: {edit:?} vs from-scratch on the edited EDB"
        );
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
    let s = summed.edb().get("S").unwrap();
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
        assert_differential(
            &format!("random-{seed}"),
            &apsp_program(),
            &edge_db(&base_edges()),
            &script,
            &[Strategy::SemiNaive],
            &EngineOpts::default(),
        );
    }
}

#[test]
fn edits_are_bit_identical_at_any_thread_count() {
    // The same random script at 1, 2, and 4 workers — with the fan-out
    // threshold forced down so the maintenance rounds (semi-naïve under
    // every `Strategy`) actually run their parallel path — must produce
    // identical databases *after every step*.
    let program = apsp_program();
    let edb = edge_db(&base_edges());
    let bools = BoolDatabase::new();
    let script = random_script(42, 16, &["a", "b", "c", "d", "e"]);
    let opts_for = |threads: usize| EngineOpts {
        threads: Some(threads),
        par_threshold: 1,
        chunk_min: 2,
        ..EngineOpts::default()
    };
    let mut mats: Vec<Materialization<Trop>> = [1usize, 2, 4]
        .iter()
        .map(|&t| {
            Materialization::new(&program, &edb, &bools, CAP, Strategy::Auto, &opts_for(t))
                .expect("compiles")
        })
        .collect();
    for (step, edit) in script.iter().enumerate() {
        let mut snapshots = vec![];
        for mat in &mut mats {
            mat.apply(std::slice::from_ref(edit)).expect("edit applies");
            snapshots.push(mat.output().materialize());
        }
        assert_eq!(
            snapshots[0], snapshots[1],
            "step {step}: threads 1 vs 2 differ"
        );
        assert_eq!(
            snapshots[0], snapshots[2],
            "step {step}: threads 1 vs 4 differ"
        );
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
    assert_differential(
        "sssp-gradient",
        &program,
        &edb,
        &script,
        &ALL_STRATEGIES,
        &EngineOpts::default(),
    );
}

#[test]
fn queries_answer_against_the_current_epoch() {
    let program = apsp_program();
    let edb = edge_db(&base_edges());
    let bools = BoolDatabase::new();
    let opts = EngineOpts::default();
    let mut mat =
        Materialization::new(&program, &edb, &bools, CAP, Strategy::Auto, &opts).expect("compiles");
    let query = parse_query("?- T(\"a\", Y).").unwrap();

    let before = mat.query(&query).expect("query compiles");
    assert_eq!(
        before.answers().get(&vec![k("a"), k("c")]),
        Trop::finite(3.0)
    );
    assert_eq!(mat.epoch(), 0);

    mat.apply(&[delete("b", "c"), insert("a", "e", 0.25)])
        .expect("edit applies");
    assert_eq!(mat.epoch(), 2);
    let after = mat.query(&query).expect("query compiles");
    assert_eq!(
        after.answers().get(&vec![k("a"), k("c")]),
        Trop::finite(9.0),
        "query must see the post-delete optimum"
    );
    assert_eq!(
        after.answers().get(&vec![k("a"), k("e")]),
        Trop::finite(0.25),
        "query must see the inserted edge"
    );
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

/// Edits must not churn state the edit never touches: with two
/// independent closures in one program, editing one EDB leaves the
/// other IDB's lazy indexes *and* its row storage untouched — pinned
/// by the engine's per-relation `index_builds` / `version` counters.
/// (Before differential snapshot maintenance, every edit re-cloned and
/// re-indexed every relation.)
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
/// interrupted insert, and a successful rebuild clears it.
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

    // An interrupted *insert* leaves a pointwise lower bound of the
    // post-edit fixpoint (the maintenance loop only grows values).
    let oracle = engine_eval_interned(
        &program,
        mat.edb(),
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
}
