//! Property tests over the engine: randomized programs and instances.
//!
//! * the differential oracle (`dlo_bench::oracle`) on random graph and
//!   key-function programs, from scratch, under queries and through
//!   random edit scripts;
//! * Theorem 6.4: semi-naïve ≡ naïve on random graphs over the complete
//!   distributive dioids;
//! * sparse ≡ dense grounding on naturally ordered semirings;
//! * `LinearLFP` ≡ naïve on random linear systems;
//! * parser/pretty-printer round trips;
//! * engine vs Dijkstra on weighted random graphs.

use datalog_o::core::ast::{Atom, Factor, KeyFn, SumProduct, Term};
use datalog_o::core::examples_lib as ex;
use datalog_o::core::formula::{CmpOp, Formula};
use datalog_o::core::{
    bool_relation, ground, ground_sparse, naive_eval_system, parse_program, render_program,
    seminaive_eval_system, BoolDatabase, Database, ParseValue, Program, Relation,
};
use datalog_o::core::{Edit, Query, QueryArg};
use datalog_o::pops::{Bool, MaxMin, MinNat, Pops, Trop};
use datalog_o::semilin::{linear_lfp_auto, AffineSystem};
use datalog_o::{EngineOpts, Strategy as EngineStrategy};
use dlo_bench::oracle::{self, Case, Report};
use proptest::prelude::*;

/// Strategy: a random edge list over `n ≤ 8` integer nodes.
fn edges_strategy() -> impl Strategy<Value = (usize, Vec<(usize, usize, u8)>)> {
    (3usize..8).prop_flat_map(|n| {
        (
            Just(n),
            proptest::collection::vec(((0..n), (0..n), 1u8..9), 1..=3 * n),
        )
    })
}

fn trop_edb(edges: &[(usize, usize, u8)]) -> Database<Trop> {
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

fn minnat_edb(edges: &[(usize, usize, u8)]) -> Database<MinNat> {
    let mut db = Database::new();
    db.insert(
        "E",
        Relation::from_pairs(
            2,
            edges.iter().map(|&(u, v, w)| {
                (
                    vec![(u as i64).into(), (v as i64).into()],
                    MinNat::finite(w as u64),
                )
            }),
        ),
    );
    db
}

fn bool_edb(edges: &[(usize, usize, u8)]) -> Database<Bool> {
    let pairs = edges
        .iter()
        .map(|&(u, v, _)| vec![(u as i64).into(), (v as i64).into()]);
    let mut db = Database::new();
    db.insert("E", bool_relation(2, pairs));
    db
}

fn maxmin_edb(edges: &[(usize, usize, u8)]) -> Database<MaxMin> {
    let mut db = Database::new();
    db.insert(
        "E",
        Relation::from_pairs(
            2,
            edges.iter().map(|&(u, v, w)| {
                (
                    vec![(u as i64).into(), (v as i64).into()],
                    MaxMin::of(w as f64 / 10.0),
                )
            }),
        ),
    );
    db
}

/// A randomized single-IDB program exercising the whole key-function
/// surface: shifts in rule **heads** (the engine's dynamic-interning
/// path), shifts in bodies (lookup/deferred-check paths), comparisons,
/// and Boolean guards.
///
/// ```text
/// R(x)          :- V(x ⟨+ seed_shift⟩).
/// R(x + d)      :- R(x)            | x ⋖ bound [ ∧ B(x) ] [ ∧ x ≠ 0 ]   (counter form)
/// R(y + d)      :- R(x) ⊗ E(x, y)  |           [ ∧ B(x) ] [ ∧ x ≠ 0 ]   (walk form)
/// ```
///
/// Counter recursion is guarded by a comparison in the shift's
/// direction, and walk recursion derives keys only from the finite edge
/// set, so every instance converges on the 0-stable dioids tested.
#[derive(Clone, Debug)]
struct KeyedSpec {
    head_shift: i64,
    seed_shift: i64,
    use_edge: bool,
    use_guard: bool,
    neq_zero: bool,
    bound: i64,
}

fn keyed_spec_strategy() -> impl Strategy<Value = KeyedSpec> {
    ((-2i64..=2, -1i64..=1, 0u8..2, 0u8..2), (0u8..2, 3i64..8)).prop_map(
        |((head_shift, seed_shift, use_edge, use_guard), (neq_zero, bound))| KeyedSpec {
            head_shift,
            seed_shift,
            use_edge: use_edge == 1,
            use_guard: use_guard == 1,
            neq_zero: neq_zero == 1,
            bound,
        },
    )
}

fn shifted(var: u32, shift: i64) -> Term {
    if shift == 0 {
        Term::v(var)
    } else {
        Term::Apply(KeyFn::AddInt(shift), Box::new(Term::v(var)))
    }
}

fn keyed_program<P: Pops>(spec: &KeyedSpec) -> Program<P> {
    let mut p = Program::new();
    p.rule(
        Atom::new("R", vec![Term::v(0)]),
        vec![SumProduct::new(vec![Factor::atom(
            "V",
            vec![shifted(0, spec.seed_shift)],
        )])],
    );
    let (head, factors) = if spec.use_edge {
        (
            Atom::new("R", vec![shifted(1, spec.head_shift)]),
            vec![
                Factor::atom("R", vec![Term::v(0)]),
                Factor::atom("E", vec![Term::v(0), Term::v(1)]),
            ],
        )
    } else {
        (
            Atom::new("R", vec![shifted(0, spec.head_shift)]),
            vec![Factor::atom("R", vec![Term::v(0)])],
        )
    };
    let mut condition = Formula::True;
    if !spec.use_edge && spec.head_shift != 0 {
        // Bound the counter in the direction it runs, or it mints keys
        // forever.
        condition = if spec.head_shift > 0 {
            Formula::cmp(Term::v(0), CmpOp::Lt, Term::c(spec.bound))
        } else {
            Formula::cmp(Term::v(0), CmpOp::Gt, Term::c(-spec.bound))
        };
    }
    if spec.use_guard {
        condition = condition.and(Formula::atom("B", vec![Term::v(0)]));
    }
    if spec.neq_zero {
        condition = condition.and(Formula::cmp(Term::v(0), CmpOp::Ne, Term::c(0)));
    }
    p.rule(
        head,
        vec![SumProduct::new(factors).with_condition(condition)],
    );
    p
}

fn keyed_edb<P: Pops>(
    n: usize,
    edges: &[(usize, usize, u8)],
    lift: impl Fn(u8) -> P,
) -> Database<P> {
    let mut db = Database::new();
    db.insert(
        "E",
        Relation::from_pairs(
            2,
            edges
                .iter()
                .map(|&(u, v, w)| (vec![(u as i64).into(), (v as i64).into()], lift(w))),
        ),
    );
    db.insert(
        "V",
        Relation::from_pairs(
            1,
            (0..n).map(|i| (vec![(i as i64).into()], lift(1 + (i % 5) as u8))),
        ),
    );
    db
}

fn keyed_bools(n: usize) -> BoolDatabase {
    let mut db = BoolDatabase::new();
    db.insert(
        "B",
        bool_relation(1, (0..n).step_by(2).map(|i| vec![(i as i64).into()])),
    );
    db
}

/// A random graph plus a random edit script over its node space:
/// `(n, edges, ops)` where each op is `(kind, u, v, w)` — `kind == 0`
/// deletes, anything else inserts.
type EditedGraph = (usize, Vec<(usize, usize, u8)>, Vec<(u8, usize, usize, u8)>);

/// Strategy producing an [`EditedGraph`]. The compat proptest does not
/// shrink, so failures are replayed from the seeded case index instead
/// of a minimized script.
fn edited_graph_strategy() -> impl Strategy<Value = EditedGraph> {
    (3usize..8).prop_flat_map(|n| {
        (
            Just(n),
            proptest::collection::vec(((0..n), (0..n), 1u8..9), 1..=2 * n),
            proptest::collection::vec((0u8..3, 0..n, 0..n, 1u8..9), 1..=6),
        )
    })
}

/// Decodes graph ops into `E`-targeted [`Edit`]s.
fn graph_script<P: Pops>(ops: &[(u8, usize, usize, u8)], lift: impl Fn(u8) -> P) -> Vec<Edit<P>> {
    ops.iter()
        .map(|&(kind, u, v, w)| {
            let t = vec![(u as i64).into(), (v as i64).into()];
            if kind == 0 {
                Edit::delete("E", t)
            } else {
                Edit::insert("E", t, lift(w))
            }
        })
        .collect()
}

/// Decodes ops into edits over the keyed program's two POPS EDBs (`E`
/// and `V`). Specs without the edge factor compile no `E` slot, so
/// their `E` ops are remapped onto `V`.
fn keyed_script<P: Pops>(
    ops: &[(u8, usize, usize, u8)],
    use_edge: bool,
    lift: impl Fn(u8) -> P,
) -> Vec<Edit<P>> {
    ops.iter()
        .map(|&(kind, u, v, w)| {
            let edge = use_edge && v % 2 == 0;
            let t = if edge {
                vec![(u as i64).into(), (v as i64).into()]
            } else {
                vec![(u as i64).into()]
            };
            let pred = if edge { "E" } else { "V" };
            if kind == 0 {
                Edit::delete(pred, t)
            } else {
                Edit::insert(pred, t, lift(w))
            }
        })
        .collect()
}

/// The keyed program plus an active-domain pin: `D(x) :- A(x)` over a
/// constant, never-edited unary `A`. A `Materialization`'s interner is
/// append-only (deleting a fact does not forget its constants), while a
/// from-scratch run only quantifies over constants of the *current*
/// EDB — so a body-shift rule like `R(x) :- V(x + 1)` could bind `x = c`
/// incrementally but not from scratch after the last fact naming `c` is
/// deleted. Pinning every bindable constant into `A` (nodes are `< 8`,
/// counter bounds `< 8`, shifts `≤ 2`, so `[-12, 12]` covers all minted
/// and seeded keys) gives both evaluations the same domain and keeps
/// the differential test about maintenance, not the documented
/// append-only-interner caveat.
fn pinned_keyed_program<P: Pops>(spec: &KeyedSpec) -> Program<P> {
    let mut p = keyed_program(spec);
    p.rule(
        Atom::new("D", vec![Term::v(0)]),
        vec![SumProduct::new(vec![Factor::atom("A", vec![Term::v(0)])])],
    );
    p
}

fn pinned_keyed_edb<P: Pops>(
    n: usize,
    edges: &[(usize, usize, u8)],
    lift: impl Fn(u8) -> P,
) -> Database<P> {
    let mut db = keyed_edb(n, edges, lift);
    db.insert(
        "A",
        Relation::from_pairs(1, (-12i64..=12).map(|i| (vec![i.into()], P::one()))),
    );
    db
}

/// A closure whose base sum-product joins two EDB relations, `E` and
/// `F`: an edit to either is read by the other's occurrence.
fn two_edb_join_program<P: Pops + ParseValue>() -> Program<P> {
    parse_program("R(X, Z) :- E(X, Y) * F(Y, Z) + R(X, Y) * E(Y, Z).").unwrap()
}

/// `E` from the edges, `F` from the same edges turned around.
fn two_edb_join_edb<P: Pops>(edges: &[(usize, usize, u8)], lift: impl Fn(u8) -> P) -> Database<P> {
    let rel = |flip: bool| {
        let rows = edges.iter().map(|&(u, v, w)| {
            let (a, b) = if flip { (v, u) } else { (u, v) };
            (vec![(a as i64).into(), (b as i64).into()], lift(w))
        });
        Relation::from_pairs(2, rows)
    };
    let mut db = Database::new();
    db.insert("E", rel(false));
    db.insert("F", rel(true));
    db
}

/// [`graph_script`] over both relations of [`two_edb_join_program`]: an
/// op with an even weight edits `F`, an odd one `E`.
fn two_edb_join_script<P: Pops>(
    ops: &[(u8, usize, usize, u8)],
    lift: impl Fn(u8) -> P,
) -> Vec<Edit<P>> {
    let mut script = graph_script(ops, lift);
    for (edit, &(_, _, _, w)) in script.iter_mut().zip(ops) {
        if w % 2 == 0 {
            match edit {
                Edit::Insert(f) => f.pred = "F".into(),
                Edit::Delete(f) => f.pred = "F".into(),
            }
        }
    }
    script
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Incremental maintenance on random graphs: applying a random edit
    /// script (inserts ⊕-merging edges, deletes retracting them) to a
    /// live APSP [`Materialization`] matches the from-scratch fixpoint
    /// of the edited EDB after every step, on Trop, MinNat, and Bool.
    #[test]
    fn incremental_edits_match_from_scratch(
        (_n, edges, ops) in edited_graph_strategy(),
    ) {
        Case::new("apsp/trop", &ex::apsp_program::<Trop>(), &trop_edb(&edges))
            .script(&graph_script(&ops, |w| Trop::finite(w as f64)))
            .check();
        Case::new("apsp/minnat", &ex::apsp_program::<MinNat>(), &minnat_edb(&edges))
            .script(&graph_script(&ops, |w| MinNat::finite(w as u64)))
            .check();
        Case::new("apsp/bool", &ex::apsp_program::<Bool>(), &bool_edb(&edges))
            .script(&graph_script(&ops, |_| Bool(true)))
            .check();
        let join = two_edb_join_edb(&edges, |w| Trop::finite(w as f64));
        Case::new("join/trop", &two_edb_join_program::<Trop>(), &join)
            .script(&two_edb_join_script(&ops, |w| Trop::finite(w as f64)))
            .check();
        let join = two_edb_join_edb(&edges, |_| Bool(true));
        Case::new("join/bool", &two_edb_join_program::<Bool>(), &join)
            .script(&two_edb_join_script(&ops, |_| Bool(true)))
            .check();
    }

    /// Incremental maintenance on random keyed programs — the minting
    /// surface. Edits to `V` and `E` mint fresh head keys mid-edit;
    /// the decoded materialization must still equal the from-scratch
    /// fixpoint after every step (minted-id stability: stale or
    /// misaligned interner rows would decode to wrong tuples).
    #[test]
    fn incremental_edits_match_on_keyed_programs(
        spec in keyed_spec_strategy(),
        (n, edges, ops) in edited_graph_strategy(),
    ) {
        let (bools, label) = (keyed_bools(n), format!("keyed {spec:?}"));
        let edb = pinned_keyed_edb(n, &edges, |w| Trop::finite(w as f64));
        Case::new(&label, &pinned_keyed_program::<Trop>(&spec), &edb)
            .bools(&bools)
            .script(&keyed_script(&ops, spec.use_edge, |w| Trop::finite(w as f64)))
            .check();
        let edb = pinned_keyed_edb(n, &edges, |w| MinNat::finite(w as u64));
        Case::new(&label, &pinned_keyed_program::<MinNat>(&spec), &edb)
            .bools(&bools)
            .script(&keyed_script(&ops, spec.use_edge, |w| MinNat::finite(w as u64)))
            .check();
        let edb = pinned_keyed_edb(n, &edges, |_| Bool(true));
        Case::new(&label, &pinned_keyed_program::<Bool>(&spec), &edb)
            .bools(&bools)
            .script(&keyed_script(&ops, spec.use_edge, |_| Bool(true)))
            .check();
    }

    /// Random key-function programs (head + body shifts, comparisons,
    /// Boolean guards): the engine's native head-key path agrees with
    /// the grounded backend on Trop, Bool, and MinNat — databases and
    /// step counts both.
    #[test]
    fn engine_agrees_on_random_keyed_programs(
        spec in keyed_spec_strategy(),
        (n, edges) in edges_strategy(),
    ) {
        let (bools, label) = (keyed_bools(n), format!("keyed {spec:?}"));
        let edb = keyed_edb(n, &edges, |w| Trop::finite(w as f64));
        Case::new(&label, &keyed_program::<Trop>(&spec), &edb).bools(&bools).check();
        let edb = keyed_edb(n, &edges, |w| MinNat::finite(w as u64));
        Case::new(&label, &keyed_program::<MinNat>(&spec), &edb).bools(&bools).check();
        let edb = keyed_edb(n, &edges, |_| Bool(true));
        Case::new(&label, &keyed_program::<Bool>(&spec), &edb).bools(&bools).check();
    }

    /// Demand restriction on random graph programs (Trop/MinNat/Bool):
    /// single-source and point queries against the linear SSSP and
    /// all-pairs programs answer exactly the full fixpoint's
    /// restriction.
    #[test]
    fn query_answers_restrict_graph_programs((n, edges) in edges_strategy()) {
        let mid = (n / 2) as i64;
        let edb_t = trop_edb(&edges);
        let sssp = dlo_bench::single_source_int_program::<Trop>(0);
        let point = [Query::point("L", vec![mid.into()])];
        Case::new("sssp/point", &sssp, &edb_t).queries(&point).check();
        let source = [Query::new("T", vec![QueryArg::bound(0i64), QueryArg::Free])];
        let sink = [Query::new("T", vec![QueryArg::Free, QueryArg::bound(mid)])];
        Case::new("apsp/source", &ex::apsp_program::<Trop>(), &edb_t).queries(&source).check();
        Case::new("apsp/sink", &ex::apsp_program::<Trop>(), &edb_t).queries(&sink).check();
        let apsp_m = ex::apsp_program::<MinNat>();
        Case::new("apsp/minnat", &apsp_m, &minnat_edb(&edges)).queries(&source).check();
        let apsp_b = ex::apsp_program::<Bool>();
        Case::new("apsp/bool", &apsp_b, &bool_edb(&edges)).queries(&source).check();
    }

    /// Demand restriction on random keyed programs (head/body key
    /// shifts, comparisons, Boolean guards — the minting surface):
    /// point queries over Trop, MinNat, and Bool.
    #[test]
    fn query_answers_restrict_keyed_programs(
        spec in keyed_spec_strategy(),
        (n, edges) in edges_strategy(),
    ) {
        let q = [Query::point("R", vec![(n as i64 / 2).into()])];
        let (bools, label) = (keyed_bools(n), format!("keyed {spec:?}"));
        let edb = keyed_edb(n, &edges, |w| Trop::finite(w as f64));
        let prog = keyed_program::<Trop>(&spec);
        Case::new(&label, &prog, &edb).bools(&bools).queries(&q).check();
        let edb = keyed_edb(n, &edges, |w| MinNat::finite(w as u64));
        let prog = keyed_program::<MinNat>(&spec);
        Case::new(&label, &prog, &edb).bools(&bools).queries(&q).check();
        let edb = keyed_edb(n, &edges, |_| Bool(true));
        let prog = keyed_program::<Bool>(&spec);
        Case::new(&label, &prog, &edb).bools(&bools).queries(&q).check();
    }

    /// Theorem 6.4 over Trop: semi-naïve = naïve (SSSP, APSP).
    #[test]
    fn seminaive_equals_naive_trop((_n, edges) in edges_strategy()) {
        prop_assume!(!edges.iter().all(|(u, v, _)| u == v));
        let edb = trop_edb(&edges);
        for prog in [
            dlo_bench::single_source_int_program::<Trop>(0),
            ex::apsp_program::<Trop>(),
        ] {
            let sys = ground_sparse(&prog, &edb, &BoolDatabase::new());
            let naive = naive_eval_system(&sys, 100_000).unwrap();
            let (semi, _) = seminaive_eval_system(&sys, 100_000);
            prop_assert_eq!(naive, semi.unwrap());
        }
    }

    /// Theorem 6.4 over MinNat and MaxMin (other distributive dioids),
    /// including the quadratic TC rule.
    #[test]
    fn seminaive_equals_naive_other_dioids((_n, edges) in edges_strategy()) {
        let edb = minnat_edb(&edges);
        let prog = ex::quadratic_tc_program::<MinNat>();
        let sys = ground_sparse(&prog, &edb, &BoolDatabase::new());
        let naive = naive_eval_system(&sys, 100_000).unwrap();
        let (semi, _) = seminaive_eval_system(&sys, 100_000);
        prop_assert_eq!(naive, semi.unwrap());

        let edbm = maxmin_edb(&edges);
        let progm = ex::apsp_program::<MaxMin>();
        let sysm = ground_sparse(&progm, &edbm, &BoolDatabase::new());
        let naivem = naive_eval_system(&sysm, 100_000).unwrap();
        let (semim, _) = seminaive_eval_system(&sysm, 100_000);
        prop_assert_eq!(naivem, semim.unwrap());
    }

    /// The execution engine agrees with the grounded backend on random
    /// programs over Trop and Bool: same fixpoint, and the semi-naïve
    /// step count never exceeds the naïve count by more than the final
    /// no-change check.
    #[test]
    fn engine_agrees_with_grounded((_n, edges) in edges_strategy()) {
        fn semi_within_naive(report: Report<impl datalog_o::pops::Pops>) {
            let semi = report.of("SemiNaive").scratch.steps;
            let naive = report.naive_steps.expect("grounded") as u64;
            assert!(semi <= naive + 1, "engine took {semi} steps, naive {naive}");
        }
        let edb_t = trop_edb(&edges);
        for prog in [
            dlo_bench::single_source_int_program::<Trop>(0),
            ex::apsp_program::<Trop>(),
            ex::quadratic_tc_program::<Trop>(),
        ] {
            semi_within_naive(Case::new("trop", &prog, &edb_t).check());
        }
        let edb_b = bool_edb(&edges);
        for prog in [ex::apsp_program::<Bool>(), ex::quadratic_tc_program::<Bool>()] {
            semi_within_naive(Case::new("bool", &prog, &edb_b).check());
        }
    }

    /// The priority frontier reaches the same fixpoints as the global
    /// semi-naïve engine on random graph programs over the totally
    /// ordered absorptive dioids — Trop (APSP/SSSP/quadratic TC),
    /// MinNat, and Bool.
    #[test]
    fn frontier_strategies_agree_with_seminaive((_n, edges) in edges_strategy()) {
        let edb_t = trop_edb(&edges);
        for prog in [
            dlo_bench::single_source_int_program::<Trop>(0),
            ex::apsp_program::<Trop>(),
            ex::quadratic_tc_program::<Trop>(),
        ] {
            Case::new("trop", &prog, &edb_t).check();
        }
        Case::new("minnat", &ex::quadratic_tc_program::<MinNat>(), &minnat_edb(&edges)).check();
        Case::new("bool", &ex::apsp_program::<Bool>(), &bool_edb(&edges)).check();
    }

    /// Sparse and dense grounding agree on naturally ordered semirings.
    #[test]
    fn sparse_equals_dense((_n, edges) in edges_strategy()) {
        let edb = trop_edb(&edges);
        let prog = dlo_bench::single_source_int_program::<Trop>(0);
        let bools = BoolDatabase::new();
        let d = naive_eval_system(&ground(&prog, &edb, &bools), 100_000).unwrap();
        let s = naive_eval_system(&ground_sparse(&prog, &edb, &bools), 100_000).unwrap();
        prop_assert_eq!(d, s);
    }

    /// LinearLFP (Algorithm 2) = naïve on random linear groundings.
    #[test]
    fn linear_lfp_equals_naive((_n, edges) in edges_strategy()) {
        let edb = trop_edb(&edges);
        let prog = dlo_bench::single_source_int_program::<Trop>(0);
        let sys = ground_sparse(&prog, &edb, &BoolDatabase::new());
        let asys = AffineSystem::from_ground_system(&sys).expect("linear");
        let (naive, _) = asys.naive_lfp(100_000).unwrap();
        prop_assert_eq!(linear_lfp_auto(&asys), naive);
    }

    /// The engine computes true shortest distances (Dijkstra oracle).
    #[test]
    fn sssp_matches_dijkstra((n, edges) in edges_strategy()) {
        let g = dlo_bench::GraphInstance {
            n,
            edges: edges.iter().map(|&(u, v, w)| (u, v, w as f64)).collect(),
        };
        let (prog, edb) = g.sssp();
        let sys = ground_sparse(&prog, &edb, &BoolDatabase::new());
        let out = naive_eval_system(&sys, 100_000).unwrap();
        let oracle = dlo_bench::dijkstra(&g, 0);
        let l = out.get("L");
        for (i, d) in oracle.iter().enumerate() {
            let got = l.map(|r| r.get(&vec![g.node(i)])).unwrap_or(Trop::INF).get();
            prop_assert_eq!(got, *d, "node {}", i);
        }
    }

    /// Pretty-printer round trip: parse(render(p)) == p for programs built
    /// from random rule text fragments.
    #[test]
    fn parser_roundtrip(
        n_rules in 1usize..4,
        seeds in proptest::collection::vec(0u32..1000, 1..4)
    ) {
        // Assemble a random-but-valid program text.
        let mut src = String::new();
        for (i, s) in seeds.iter().take(n_rules).enumerate() {
            match s % 4 {
                0 => src.push_str(&format!("R{i}(X) :- E(X, Z) * R{i}(Z).\n")),
                1 => src.push_str(&format!("R{i}(X, Y) :- E(X, Y) + R{i}(X, Z) * E(Z, Y).\n")),
                2 => src.push_str(&format!("R{i}(X) :- $2 | X = a.\n")),
                _ => src.push_str(&format!(
                    "R{i}(X) :- E(X, Y) | (B(Y) && X != {s}) || !(C(X)).\n"
                )),
            }
        }
        let p: Program<Trop> = parse_program(&src).unwrap();
        let rendered = render_program(&p);
        let p2: Program<Trop> = parse_program(&rendered).unwrap();
        prop_assert_eq!(p, p2, "rendered:\n{}", rendered);
    }

    /// Boolean semantics sanity: support of the Trop fixpoint equals the
    /// Boolean fixpoint's support (finite distance ⟺ reachable).
    #[test]
    fn trop_support_equals_bool_reachability((_n, edges) in edges_strategy()) {
        let prog_t = dlo_bench::single_source_int_program::<Trop>(0);
        let prog_b = dlo_bench::single_source_int_program::<Bool>(0);
        let edb_t = trop_edb(&edges);
        let edb_b = bool_edb(&edges);
        let out_t = naive_eval_system(&ground_sparse(&prog_t, &edb_t, &BoolDatabase::new()), 100_000).unwrap();
        let out_b = naive_eval_system(&ground_sparse(&prog_b, &edb_b, &BoolDatabase::new()), 100_000).unwrap();
        let sup_t: Vec<_> = out_t.get("L").map(|r| r.support().map(|(t, _)| t.clone()).collect()).unwrap_or_default();
        let sup_b: Vec<_> = out_b.get("L").map(|r| r.support().map(|(t, _)| t.clone()).collect()).unwrap_or_default();
        prop_assert_eq!(sup_t, sup_b);
    }

    /// Telemetry on random graphs: emits bound merges on every
    /// strategy, and the deterministic stats (timings masked by
    /// `EvalStats::invariants`) are bit-identical across thread counts.
    #[test]
    fn stats_deterministic_across_threads((_n, edges) in edges_strategy()) {
        let prog = ex::apsp_program::<Trop>();
        let edb = trop_edb(&edges);
        let bools = BoolDatabase::new();
        for strategy in [EngineStrategy::SemiNaive, EngineStrategy::Worklist,
                         EngineStrategy::Priority] {
            let mut baseline = None;
            for threads in [1usize, 2, 4] {
                let opts = EngineOpts { threads: Some(threads), ..EngineOpts::default() };
                let out = oracle::scratch(&prog, &edb, &bools, 10_000_000, strategy, &opts);
                let s = out.stats();
                prop_assert!(
                    s.counters.emits + s.counters.fresh_emits
                        >= s.counters.rows_inserted + s.counters.rows_improved
                            + s.counters.merges_absorbed,
                    "{:?}: merges exceed emissions", strategy);
                let inv = s.invariants();
                match &baseline {
                    None => baseline = Some(inv),
                    Some(b) => prop_assert_eq!(b, &inv,
                        "{:?}: stats differ at {} threads", strategy, threads),
                }
            }
        }
    }
}
