//! The backend matrix: every oracle scenario from `paper_examples.rs`
//! and `textual_programs.rs` pushed through the differential oracle
//! (`dlo_bench::oracle`) — the grounded reference (naive and
//! semi-naive, closed over the constants head key functions mint)
//! against every engine loop the POPS licenses (naive, semi-naive, the
//! priority frontier), from scratch, as a handle, and under every query
//! pattern — and through the bulk loader's bit-identity check.
//! `cross_engine.rs` spot-checks a subset against external oracles;
//! this file is the exhaustive pairwise-agreement sweep, and since the
//! engine lost its head-key-function fallback it proves the fast backend
//! really is total over the language. `worklist_is_another_name_for_seminaive`
//! pins the `Strategy` aliases the oracle does not run.
//!
//! Scenarios whose paper POPS is not naturally ordered (the lifted reals
//! of Ex. 4.2, `THREE` of Sec. 7) cannot run on the sparse grounding or
//! the engine at all — the dense grounding is their reference — so the
//! matrix runs those programs over a naturally ordered carrier instead
//! (`MinNat`, `𝔹`), which exercises the identical rule shapes. POPS that
//! are naturally ordered but not complete distributive dioids (`ℝ₊`,
//! `Trop⁺_1`) run the naive legs only.

use datalog_o::core::examples_lib as ex;
use datalog_o::core::{
    bool_relation, naive_eval, naive_eval_sparse, parse_program, parse_query, seminaive_eval,
    BoolDatabase, Database, Program, ProgramParser, Query, Relation, UnaryFn,
};
use datalog_o::core::{Edit, QueryArg};
use datalog_o::engine::{ColumnRel, Interner};
use datalog_o::pops::{
    Absorptive, Bool, CompleteDistributiveDioid, MinNat, NNReal, NaturallyOrdered, Pops,
    TotallyOrderedDioid, Trop, TropP,
};
use datalog_o::{
    engine_eval_interned, engine_query_eval_with_opts, EngineOpts, EvalBudget, EvalStats,
    Materialization, Naive, Schedule, SemiNaive, Strategy,
};

use dlo_bench::oracle::{self, Case, CAP};

fn k(s: &str) -> datalog_o::core::Constant {
    s.into()
}

/// Loads `db` row by row through the public per-row API — every
/// constant through [`Interner::intern`] in relation, tuple, column
/// order, every row through [`ColumnRel::insert_row`]: the reference the
/// one-pass loader must reproduce bit for bit.
fn load_per_row<P: Pops>(db: &Database<P>, interner: &mut Interner) -> Vec<ColumnRel<P>> {
    db.iter()
        .map(|(_, rel)| {
            let mut col = ColumnRel::new(rel.arity());
            for (tuple, v) in rel.support() {
                let key: Vec<u32> = tuple.iter().map(|c| interner.intern(c)).collect();
                col.insert_row(&key, v.clone());
            }
            col
        })
        .collect()
}

/// The bulk loader against [`load_per_row`] on one scenario's EDB, `P`
/// relations first and Boolean relations after (the order the engine
/// loads them in): the same interner (`len`, every `get`, every
/// `as_int`) and, per relation, the same `(row id, key, value)` sequence
/// at the same version. A run of `program` over the same EDB must
/// number those constants the same way — its output's interner starts
/// with exactly the reference's ids, program constants only after.
fn assert_bulk_load_bit_identical<P: NaturallyOrdered>(
    scenario: &str,
    program: &Program<P>,
    pops: &Database<P>,
    bools: &BoolDatabase,
) {
    let mut reference = Interner::new();
    let ref_pops = load_per_row(pops, &mut reference);
    let ref_bools = load_per_row(bools, &mut reference);
    let mut interner = Interner::new();
    let got_pops: Vec<ColumnRel<P>> = pops
        .iter()
        .map(|(_, rel)| interner.load_relation(rel))
        .collect();
    let got_bools: Vec<ColumnRel<Bool>> = bools
        .iter()
        .map(|(_, rel)| interner.load_relation(rel))
        .collect();
    fn same_rows<Q: Pops>(scenario: &str, got: &[ColumnRel<Q>], want: &[ColumnRel<Q>]) {
        assert_eq!(got.len(), want.len(), "{scenario}: relation count");
        for (got, want) in got.iter().zip(want) {
            assert_eq!(
                got.iter().collect::<Vec<_>>(),
                want.iter().collect::<Vec<_>>(),
                "{scenario}: (row id, key, value) sequence"
            );
            assert_eq!(got.version(), want.version(), "{scenario}: version");
            for (r, key, _) in want.iter() {
                assert_eq!(got.rowid(key), Some(r), "{scenario}: row map");
            }
        }
    }
    same_rows(scenario, &got_pops, &ref_pops);
    same_rows(scenario, &got_bools, &ref_bools);
    let run = engine_eval_interned(program, pops, bools, CAP, Naive, &EngineOpts::default())
        .expect("compiles");
    let ran = run.output().interner();
    assert_eq!(interner.len(), reference.len(), "{scenario}: interner size");
    assert!(
        ran.len() >= reference.len(),
        "{scenario}: run interner size"
    );
    for id in 0..reference.len() as u32 {
        for (side, other) in [("loader", &interner), ("run", ran)] {
            assert_eq!(
                other.get(id),
                reference.get(id),
                "{scenario}: {side} id {id}"
            );
            assert_eq!(
                other.as_int(id),
                reference.as_int(id),
                "{scenario}: {side} id {id}"
            );
        }
    }
}

/// One `#[test]` per oracle scenario: the bulk loader's bit-identity,
/// then the oracle — `all` over every loop, `naive` over the naive loop;
/// the block must evaluate to `(Program<P>, Database<P>, BoolDatabase)`.
macro_rules! backend_matrix {
    ($(all $name:ident => $setup:block)*) => {
        $(#[test]
        fn $name() {
            let (program, pops, bools) = $setup;
            assert_bulk_load_bit_identical(stringify!($name), &program, &pops, &bools);
            Case::new(stringify!($name), &program, &pops).bools(&bools).check();
        })*
    };
    ($(naive $name:ident => $setup:block)*) => {
        $(#[test]
        fn $name() {
            let (program, pops, bools) = $setup;
            assert_bulk_load_bit_identical(stringify!($name), &program, &pops, &bools);
            Case::new(stringify!($name), &program, &pops).bools(&bools).check_naive();
        })*
    };
}

backend_matrix! {
    // Example 4.1 — SSSP over Trop⁺ on the Fig. 2(a) graph.
    all sssp_trop_example_4_1 => {
        let (program, edb) = ex::sssp_trop("a");
        (program, edb, BoolDatabase::new())
    }

    // Example 1.1 — APSP over Trop⁺ (the paper's opening program).
    all apsp_trop_example_1_1 => {
        let (program, edb) = ex::apsp_trop(&[
            ("a", "b", 1.0),
            ("b", "a", 2.0),
            ("b", "c", 3.0),
            ("c", "d", 4.0),
            ("a", "c", 5.0),
        ]);
        (program, edb, BoolDatabase::new())
    }

    // Example 4.2 — bill of material, over MinNat (the naturally ordered
    // carrier; the lifted-real original is grounded-only).
    all bom_minnat_example_4_2 => {
        let program: Program<MinNat> = ex::bom_program();
        let mut pops = Database::new();
        pops.insert(
            "C",
            Relation::from_pairs(
                1,
                vec![
                    (vec![k("a")], MinNat::finite(1)),
                    (vec![k("b")], MinNat::finite(1)),
                    (vec![k("c")], MinNat::finite(1)),
                    (vec![k("d")], MinNat::finite(10)),
                ],
            ),
        );
        (program, pops, ex::fig2b_bool_edges())
    }

    // Quadratic transitive closure with a Boolean edge guard.
    all quadratic_tc_bool_guarded => {
        let (program, edb) = ex::quadratic_tc_bool(&[("a", "b"), ("b", "c"), ("c", "a"), ("c", "d")]);
        (program, edb, BoolDatabase::new())
    }

    // Sec. 4.5 — keys to values (ShortestLength over Trop⁺).
    all shortest_length_sec_4_5 => {
        let (program, edb) = ex::shortest_length(&[("a", "b", 3), ("a", "b", 7), ("a", "c", 5), ("b", "c", 2)]);
        (program, edb, BoolDatabase::new())
    }

    // Sec. 4.5 — the prefix program in head-keyed form over Trop⁺: the
    // scenario the engine used to reject outright.
    all prefix_head_keyed_sec_4_5 => {
        let (program, edb) = ex::prefix_sum_keyed::<Trop>(&[2.0, 4.0, 1.5, 3.0, 0.5], Trop::finite);
        (program, edb, BoolDatabase::new())
    }

    // Sec. 4.5 — a counter whose heads mint the keys 1…4: the grounding
    // must close over them (one grounding over D₀ = {0, 5} gives 2 rows).
    all head_minted_counter_minnat => {
        let src = "N(0) :- $1.\nN(I + 1) :- N(I) | I < 5.";
        let program: Program<MinNat> = parse_program(src).unwrap();
        let (pops, bools) = (Database::new(), BoolDatabase::new());
        let out = naive_eval_sparse(&program, &pops, &bools, CAP).unwrap();
        assert_eq!(out.get("N").unwrap().support_size(), 6, "N(0) … N(5)");
        assert_eq!(naive_eval(&program, &pops, &bools, CAP).unwrap(), out, "dense grounding");
        (program, pops, bools)
    }

    // A minted key reaches a body only through an IDB factor: `X` in
    // `V(X + 1)` ranges over D₀ = {0, 1}, never over the minted -1, so
    // R(-1) is R(0) ⊗ E(0, 1) = 7, not V(0) = 1.
    all minted_keys_stay_out_of_edb_key_functions_trop => {
        let src = "R(X) :- V(X + 1).\nR(Y - 2) :- R(X) * E(X, Y).";
        let program: Program<Trop> = parse_program(src).unwrap();
        let mut pops = Database::new();
        let v = [(0i64, 1.0), (1, 2.0)].map(|(i, w)| (vec![i.into()], Trop::finite(w)));
        pops.insert("V", Relation::from_pairs(1, v));
        let e = (vec![0i64.into(), 1i64.into()], Trop::finite(5.0));
        pops.insert("E", Relation::from_pairs(2, [e]));
        let bools = BoolDatabase::new();
        let out = naive_eval_sparse(&program, &pops, &bools, CAP).unwrap();
        let r = out.get("R").unwrap();
        assert_eq!(r.get(&vec![(-1i64).into()]), Trop::finite(7.0), "R(-1)");
        assert_eq!(r.get(&vec![0i64.into()]), Trop::finite(2.0), "R(0)");
        assert_eq!(r.support_size(), 2);
        (program, pops, bools)
    }

    // Sec. 4.5 — the surface-syntax prefix program (body key function
    // `W(I - 1)` plus comparisons), over MinNat instead of the
    // grounded-only lifted reals.
    all prefix_surface_syntax_minnat => {
        let src = "
            W(I) :- V(0) | I = 0.
            W(I) :- W(I - 1) | I != 0 && I < 4.
            W(I) :- V(I)     | I != 0 && I < 4.
        ";
        let program: Program<MinNat> = parse_program(src).unwrap();
        let mut pops = Database::new();
        pops.insert(
            "V",
            Relation::from_pairs(
                1,
                (0..4i64).map(|i| (vec![i.into()], MinNat::finite(1 + i as u64))),
            ),
        );
        (program, pops, BoolDatabase::new())
    }

    // Textual single-source reachability, over 𝔹.
    all reach_surface_syntax_bool => {
        let src = "Reach(X) :- 1 | X = s.\nReach(X) :- Reach(Z) * E(Z, X).";
        let program: Program<Bool> = parse_program(src).unwrap();
        let mut pops = Database::new();
        pops.insert(
            "E",
            bool_relation(
                2,
                [("s", "a"), ("a", "b"), ("b", "a"), ("c", "d")]
                    .iter()
                    .map(|(x, y)| vec![k(x), k(y)]),
            ),
        );
        (program, pops, BoolDatabase::new())
    }

    // Textual single-source hop counts, over MinNat.
    all reach_surface_syntax_minnat => {
        let src = "Reach(X) :- 1 | X = s.\nReach(X) :- Reach(Z) * E(Z, X).";
        let program: Program<MinNat> = parse_program(src).unwrap();
        let mut pops = Database::new();
        pops.insert(
            "E",
            Relation::from_pairs(
                2,
                [("s", "a"), ("a", "b"), ("b", "a"), ("c", "d")]
                    .iter()
                    .map(|(x, y)| (vec![k(x), k(y)], MinNat::finite(1))),
            ),
        );
        (program, pops, BoolDatabase::new())
    }

    // Textual BOM over MinNat (the lifted-real surface program's shape).
    all bom_surface_syntax_minnat => {
        let src = "T(X) :- C(X).\nT(X) :- T(Y) | E(X, Y).";
        let program: Program<MinNat> = parse_program(src).unwrap();
        let mut pops = Database::new();
        pops.insert(
            "C",
            Relation::from_pairs(
                1,
                vec![(vec![k("c")], MinNat::finite(1)), (vec![k("d")], MinNat::finite(10))],
            ),
        );
        let mut bools = BoolDatabase::new();
        bools.insert("E", bool_relation(2, vec![vec![k("c"), k("d")]]));
        (program, pops, bools)
    }

    // Two textual rules with one head merge into one sum-sum-product.
    all multiple_rules_same_head_trop => {
        let src = "D(X) :- $5 | X = a.\nD(X) :- $3 | X = a.";
        let program: Program<Trop> = parse_program(src).unwrap();
        (program, Database::new(), BoolDatabase::new())
    }

    // Example 4.1's indicator form `{1 | X = s}` over MinNat.
    all single_source_indicator_minnat => {
        let program: Program<MinNat> = ex::single_source_program("s");
        let mut edb = Database::new();
        edb.insert(
            "E",
            Relation::from_pairs(
                2,
                vec![
                    (vec![k("s"), k("t")], MinNat::finite(2)),
                    (vec![k("t"), k("u")], MinNat::finite(3)),
                ],
            ),
        );
        (program, edb, BoolDatabase::new())
    }

    // Sec. 7 — one alternating-fixpoint step of win-move as a positive 𝔹
    // program with a negated Boolean guard (`THREE` itself is not
    // naturally ordered; this is the engine-compatible step program).
    all win_move_step_bool => {
        use datalog_o::core::ast::{Atom, SumProduct, Term};
        use datalog_o::core::formula::Formula;
        let mut program = Program::<Bool>::new();
        program.rule(
            Atom::new("W", vec![Term::v(0)]),
            vec![SumProduct::new(vec![]).with_condition(
                Formula::atom("E", vec![Term::v(0), Term::v(1)])
                    .and(Formula::atom("PrevW", vec![Term::v(1)]).negate()),
            )],
        );
        let mut bools = BoolDatabase::new();
        bools.insert(
            "E",
            bool_relation(2, ex::fig4_edges().iter().map(|(x, y)| vec![k(x), k(y)])),
        );
        (program, Database::<Bool>::new(), bools)
    }
}

backend_matrix! {
    // Example 4.3 — company control over ℝ₊ with the monotone threshold
    // value function. ℝ₊ is naturally ordered but ⊕ = + is not
    // idempotent, so only the naive legs run. Dyadic share weights keep
    // float sums exact under any association order.
    naive company_control_example_4_3 => {
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
        (program, pops, bools)
    }

    // The same scenario written in surface syntax with a registered
    // value function.
    naive company_control_surface_syntax => {
        let thr = UnaryFn::new("thr", |v: &NNReal| v.threshold(0.5));
        let parser = ProgramParser::<NNReal>::new().with_func(thr);
        let program = parser
            .parse("T(X, Y) :- S(X, Y) + thr(T(X, Z)) * S(Z, Y) | Company(Z) && Z != X.")
            .unwrap();
        let mut pops = Database::new();
        pops.insert(
            "S",
            Relation::from_pairs(
                2,
                vec![
                    (vec![k("a"), k("b")], NNReal::of(0.75)),
                    (vec![k("b"), k("c")], NNReal::of(0.875)),
                ],
            ),
        );
        let mut bools = BoolDatabase::new();
        bools.insert(
            "Company",
            bool_relation(1, vec![vec![k("a")], vec![k("b")], vec![k("c")]]),
        );
        (program, pops, bools)
    }

    // Example 4.1 over the bag semiring Trop⁺_1 (naturally ordered, not
    // a complete distributive dioid).
    naive sssp_tropp_bag_example_4_1 => {
        let program: Program<TropP<1>> = ex::single_source_program("a");
        let edb = ex::fig2a_graph(|w| TropP::<1>::from_costs(&[w]));
        (program, edb, BoolDatabase::new())
    }
}

/// The loader on a relation no scenario above has: arity 4 (boxed row
/// keys), string and integer constants mixed within a row and repeated
/// across rows and relations, beside a Boolean relation sharing them.
#[test]
fn bulk_load_bit_identical_on_wide_mixed_constants() {
    let mut pops = Database::new();
    pops.insert(
        "F",
        Relation::from_pairs(
            4,
            (0..60i64).map(|r| {
                let row = vec![
                    (r % 7).into(),
                    k(&format!("s{}", r % 5)),
                    (r / 7 - 3).into(),
                    k(&format!("{}", r % 7)),
                ];
                (row, Trop::finite(r as f64))
            }),
        ),
    );
    pops.insert(
        "S",
        Relation::from_pairs(
            3,
            (0..6i64).map(|r| {
                (
                    vec![r.into(), k(&format!("s{r}")), (-r).into()],
                    Trop::finite(0.0),
                )
            }),
        ),
    );
    let mut bools = BoolDatabase::new();
    bools.insert(
        "Keep",
        bool_relation(2, (0..4i64).map(|r| vec![k("s1"), (r - 3).into()])),
    );
    let program: Program<Trop> =
        parse_program("Out(A, D) :- S(A, B, C) * F(A, B, C2, D) | Keep(B, C2) && A != 99.")
            .unwrap();
    assert_bulk_load_bit_identical("wide mixed constants", &program, &pops, &bools);
}

/// Guard atoms are the one place a plan run reads an EDB relation by
/// full key, and EDB relations are bulk-loaded without their row map:
/// the first candidate valuation to reach the guard builds it. Guards
/// over a unary (packed key) and a ternary (boxed key) Boolean relation,
/// every schedule, against the grounded reference.
#[test]
fn guard_atoms_read_bulk_loaded_relations_by_key() {
    let src = "T(X, Y) :- E(X, Y) | Node(X) && Open(X, Y, day).\n\
               T(X, Y) :- T(X, Z) * E(Z, Y) | Open(Z, Y, day) && !Closed(Y).";
    let program: Program<Trop> = parse_program(src).unwrap();
    let n = 40i64;
    let edges = (0..n).flat_map(|u| {
        [
            (u, (u + 1) % n),
            (u, (u * 7 + 3) % n),
            (u, (u * 5 + 11) % n),
        ]
    });
    let edges: Vec<(i64, i64)> = edges.filter(|(u, v)| u != v).collect();
    let mut pops = Database::new();
    pops.insert(
        "E",
        Relation::from_pairs(
            2,
            edges.iter().map(|&(u, v)| {
                (
                    vec![u.into(), v.into()],
                    Trop::finite((1 + (u + v) % 4) as f64),
                )
            }),
        ),
    );
    let mut bools = BoolDatabase::new();
    bools.insert(
        "Node",
        bool_relation(1, (0..n).filter(|u| u % 9 != 4).map(|u| vec![u.into()])),
    );
    bools.insert(
        "Closed",
        bool_relation(1, [5i64, 17, 23].map(|u| vec![u.into()])),
    );
    bools.insert(
        "Open",
        bool_relation(
            3,
            edges
                .iter()
                .filter(|(u, v)| (u + 2 * v) % 5 != 0)
                .map(|&(u, v)| {
                    vec![
                        u.into(),
                        v.into(),
                        k(if (u + v) % 11 == 0 { "night" } else { "day" }),
                    ]
                }),
        ),
    );
    let report = Case::new("guarded closure", &program, &pops)
        .bools(&bools)
        .check();
    assert!(
        report.lfp.get("T").is_some_and(|t| t.support_size() > 100),
        "the guards must leave a non-trivial closure"
    );
}

#[test]
fn demand_leg_sssp_point_query() {
    let (program, edb) = ex::sssp_trop("a");
    let query = [parse_query("?- L(d).").unwrap()];
    let case = Case::new("sssp_trop_example_4_1", &program, &edb);
    case.queries(&query).check();
}

#[test]
fn demand_leg_apsp_single_source_and_single_sink() {
    let (program, edb) = ex::apsp_trop(&[
        ("a", "b", 1.0),
        ("b", "a", 2.0),
        ("b", "c", 3.0),
        ("c", "d", 4.0),
        ("a", "c", 5.0),
    ]);
    // Source-bound (adornment bf) and sink-bound (fb) both restrict.
    let queries = ["?- T(a, Y).", "?- T(X, d).", "?- T(b, c)."].map(|q| parse_query(q).unwrap());
    let case = Case::new("apsp_trop_example_1_1", &program, &edb);
    case.queries(&queries).check();
}

#[test]
fn demand_leg_bom_point_lookup() {
    let program: Program<MinNat> = ex::bom_program();
    let mut pops = Database::new();
    pops.insert(
        "C",
        Relation::from_pairs(
            1,
            vec![
                (vec![k("a")], MinNat::finite(1)),
                (vec![k("b")], MinNat::finite(1)),
                (vec![k("c")], MinNat::finite(1)),
                (vec![k("d")], MinNat::finite(10)),
            ],
        ),
    );
    let bools = ex::fig2b_bool_edges();
    let queries = ["a", "c", "d"].map(|part| Query::point("T", vec![part.into()]));
    let case = Case::new("bom_minnat_example_4_2", &program, &pops).bools(&bools);
    case.queries(&queries).check();
}

#[test]
fn demand_leg_reachability_bool() {
    let src = "Reach(X) :- 1 | X = s.\nReach(X) :- Reach(Z) * E(Z, X).";
    let program: Program<Bool> = parse_program(src).unwrap();
    let mut pops = Database::new();
    pops.insert(
        "E",
        bool_relation(
            2,
            [("s", "a"), ("a", "b"), ("b", "a"), ("c", "d")]
                .iter()
                .map(|(x, y)| vec![k(x), k(y)]),
        ),
    );
    // Both a reachable and an unreachable point query.
    let queries = ["b", "d"].map(|node| Query::point("Reach", vec![node.into()]));
    let case = Case::new("reach_surface_syntax_bool", &program, &pops);
    case.queries(&queries).check();
}

#[test]
fn demand_leg_quadratic_tc_falls_back_to_full() {
    // The quadratic rule collapses the adornment to all-free — the
    // query path must still answer correctly (full computation plus
    // restriction).
    let (program, edb) = ex::quadratic_tc_bool(&[("a", "b"), ("b", "c"), ("c", "a"), ("c", "d")]);
    let query = [parse_query("?- T(a, Y).").unwrap()];
    let case = Case::new("quadratic_tc_bool_guarded", &program, &edb);
    case.queries(&query).check();
}

#[test]
fn demand_leg_head_keyed_prefix() {
    // Head-key-function program: demand propagation itself mints keys.
    let (program, edb) = ex::prefix_sum_keyed::<Trop>(&[2.0, 4.0, 1.5, 3.0, 0.5], Trop::finite);
    let query = [parse_query("?- W(3).").unwrap()];
    let case = Case::new("prefix_head_keyed_sec_4_5", &program, &edb);
    case.queries(&query).check();
}

#[test]
fn demand_leg_company_control_nnreal_naive() {
    // ℝ₊: naturally ordered, ⊕ not idempotent — the set-valued clamp is
    // what keeps cyclic demand convergent here. Naive legs only (no ⊖).
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
    let query = [Query::new("T", vec![QueryArg::bound("a"), QueryArg::Free])];
    let case = Case::new("company_control_example_4_3", &program, &pops).bools(&bools);
    case.queries(&query).check_naive();
}

/// Satellite: divergence agreement. A non-stable program under a small
/// iteration cap must make **every** backend report `Diverged` with the
/// same cap — and the `EvalOutcome::unwrap` diagnostic (added in PR 1)
/// must name that cap — so a user cannot get a panic from one backend
/// and a silent wrong answer from another.
#[test]
fn divergence_agreement_nat_coefficient_blowup() {
    use datalog_o::core::ast::{Atom, Factor, SumProduct, Term};
    use datalog_o::pops::Nat;
    // X(u) :- 1 ⊕ 2·X(u) over ℕ: case (ii) of Sec. 4.2, diverges.
    let mut p = Program::<Nat>::new();
    p.rule(
        Atom::new("X", vec![Term::c("u")]),
        vec![
            SumProduct::new(vec![]).with_coeff(Nat(1)),
            SumProduct::new(vec![Factor::atom("X", vec![Term::c("u")])]).with_coeff(Nat(2)),
        ],
    );
    const SMALL_CAP: usize = 30;
    let pops = Database::new();
    let bools = BoolDatabase::new();
    let legs: [(&str, datalog_o::core::EvalOutcome<Nat>); 3] = [
        ("grounded", naive_eval_sparse(&p, &pops, &bools, SMALL_CAP)),
        ("grounded dense", naive_eval(&p, &pops, &bools, SMALL_CAP)),
        (
            "engine",
            oracle::scratch(&p, &pops, &bools, SMALL_CAP, Naive, &EngineOpts::default())
                .materialize(),
        ),
    ];
    for (backend, outcome) in legs {
        assert!(!outcome.is_converged(), "{backend} must diverge");
        let err = match std::panic::catch_unwind(move || outcome.unwrap()) {
            Err(e) => e,
            Ok(_) => panic!("{backend} unwrap must panic"),
        };
        let msg = err.downcast_ref::<String>().expect("formatted panic");
        assert!(
            msg.contains(&format!("iteration cap ({SMALL_CAP})")),
            "{backend} diagnostic must name the cap, got: {msg}"
        );
    }
}

/// Unbounded head-key minting is the other road to divergence (case (i):
/// the active domain grows forever). The grounded backends — whose
/// domain closure never closes — and the engine's semi-naive and
/// frontier loops, with its dynamic interner, must agree on that too.
#[test]
fn divergence_agreement_unbounded_head_minting() {
    use datalog_o::core::ast::{Atom, Factor, KeyFn, SumProduct, Term};
    // N(0) :- $1.  N(i+1) :- N(i).  — no guard: mints a key per step.
    let mut p = Program::<MinNat>::new();
    p.rule(
        Atom::new("N", vec![Term::c(0)]),
        vec![SumProduct::new(vec![]).with_coeff(MinNat::finite(1))],
    );
    p.rule(
        Atom::new(
            "N",
            vec![Term::Apply(KeyFn::AddInt(1), Box::new(Term::v(0)))],
        ),
        vec![SumProduct::new(vec![Factor::atom("N", vec![Term::v(0)])])],
    );
    const SMALL_CAP: usize = 25;
    let pops = Database::new();
    let bools = BoolDatabase::new();
    let opts = EngineOpts::default();
    let strategy = |s: Strategy| oracle::scratch(&p, &pops, &bools, SMALL_CAP, s, &opts);
    let legs: [(&str, datalog_o::core::EvalOutcome<MinNat>); 5] = [
        (
            "grounded naive",
            naive_eval_sparse(&p, &pops, &bools, SMALL_CAP),
        ),
        (
            "grounded semi-naive",
            seminaive_eval(&p, &pops, &bools, SMALL_CAP),
        ),
        (
            "engine semi-naive",
            oracle::scratch(&p, &pops, &bools, SMALL_CAP, SemiNaive, &opts).materialize(),
        ),
        // The frontier drivers cap *batches* rather than global
        // iterations, but unbounded minting must still surface as the
        // same capped divergence, cap named in the diagnostic.
        (
            "engine worklist",
            strategy(Strategy::Worklist).materialize(),
        ),
        (
            "engine priority",
            strategy(Strategy::Priority).materialize(),
        ),
    ];
    for (backend, outcome) in legs {
        assert!(!outcome.is_converged(), "{backend} must diverge");
        let err = match std::panic::catch_unwind(move || outcome.unwrap()) {
            Err(e) => e,
            Ok(_) => panic!("{backend} unwrap must panic"),
        };
        let msg = err.downcast_ref::<String>().expect("formatted panic");
        assert!(
            msg.contains(&format!("iteration cap ({SMALL_CAP})")),
            "{backend} diagnostic must name the cap, got: {msg}"
        );
    }
}

// ---------------------------------------------------------------------
// Telemetry legs: the `EvalStats` carried on every outcome obey their
// arithmetic invariants, agree across entry points, and are identical
// (modulo wall-clock fields, via `EvalStats::invariants`) at any thread
// count.

/// Shared instance for the stats legs: the 5-edge APSP graph used by
/// the demand legs, which exercises improvement (two a→c routes).
fn stats_workload() -> (Program<Trop>, Database<Trop>) {
    ex::apsp_trop(&[
        ("a", "b", 1.0),
        ("b", "a", 2.0),
        ("b", "c", 3.0),
        ("c", "d", 4.0),
        ("a", "c", 5.0),
    ])
}

/// Every drained merge — insertion, improvement, absorption, or
/// set-valued short-circuit — consumes at least one emitted
/// contribution, so the emit counters bound the merge counters on every
/// strategy, and every loop counts its insertions.
#[test]
fn stats_emits_cover_merges_across_strategies() {
    let (program, pops) = stats_workload();
    let bools = BoolDatabase::new();
    let opts = EngineOpts::default();
    let strategy = |s: Strategy| oracle::scratch(&program, &pops, &bools, CAP, s, &opts);
    let legs = [
        (
            "naive",
            oracle::scratch(&program, &pops, &bools, CAP, Naive, &opts),
        ),
        ("seminaive", strategy(Strategy::SemiNaive)),
        ("seminaive", strategy(Strategy::Worklist)),
        ("priority", strategy(Strategy::Priority)),
    ];
    for (leg, out) in &legs {
        let s = out.stats();
        assert_eq!(&s.strategy, leg, "strategy name recorded");
        assert!(s.steps > 0, "{leg}: steps populated");
        assert!(
            s.counters.emits + s.counters.fresh_emits > 0,
            "{leg}: emits populated"
        );
        assert!(
            s.counters.emits + s.counters.fresh_emits
                >= s.counters.rows_inserted
                    + s.counters.rows_improved
                    + s.counters.merges_absorbed
                    + s.counters.set_valued_shortcircuits,
            "{leg}: merges exceed emissions: {:?}",
            s.counters
        );
        assert!(s.counters.rows_inserted > 0, "{leg}: insertions populated");
    }
}

/// On the merging strategies every IDB row is inserted exactly once
/// (later contributions improve or are absorbed), so the per-iteration
/// `inserted` deltas sum to the final support — the invariant that makes
/// the iteration trace a complete account of where the output came from.
#[test]
fn stats_iteration_inserts_sum_to_final_support() {
    fn check<S: Schedule<Trop> + std::fmt::Debug>(strategy: S) {
        let (program, pops) = stats_workload();
        let bools = BoolDatabase::new();
        let opts = EngineOpts::default();
        let out =
            engine_eval_interned(&program, &pops, &bools, CAP, strategy, &opts).expect("compiles");
        let support = out.output().support_size("T") as u64;
        let s = out.stats();
        assert_eq!(
            s.iterations_dropped, 0,
            "{strategy:?}: tiny run keeps all snapshots"
        );
        let inserted: u64 = s.iterations.iter().map(|it| it.inserted).sum();
        assert_eq!(
            inserted, support,
            "{strategy:?}: per-iteration inserts must sum to the final support"
        );
        assert_eq!(
            s.counters.rows_inserted, support,
            "{strategy:?}: totals agree"
        );
        assert_eq!(
            s.last_iter.as_ref().map(|it| it.step),
            Some(s.iterations.last().unwrap().step),
            "{strategy:?}: last_iter mirrors the newest snapshot"
        );
    }
    check(Naive);
    for strategy in [Strategy::SemiNaive, Strategy::Worklist, Strategy::Priority] {
        check(strategy);
    }
}

// ---------------------------------------------------------------------
// Incremental legs: a live `Materialization` driven through edits must
// land on exactly the grounded oracle's fixpoint for the edited EDB
// after every step — the same reference the batch legs above use.

/// SSSP gradient with an edge retraction that **lengthens** the optimum
/// (the adversarial case for delete-rederive: the deleted edge carried
/// the unique shortest route, so the affected distances must settle on
/// strictly worse survivors, not resurrect the old values). Runs the
/// whole script through the oracle, and pins the distances on a handle
/// under every `Strategy` name.
#[test]
fn incremental_leg_sssp_gradient_retraction() {
    let (program, edb) = ex::sssp_trop("a");
    // Fig. 2(a): a→b 1, b→a 2, b→c 3, c→d 4, a→c 5. L(c) = 4 via b.
    // Retracting the b→c hop lengthens every shortest path through it —
    // L(c) falls back to the direct a→c edge, L(d) follows; a new b→d
    // shortcut improves the lengthened distance back down; reinserting
    // the retracted edge at its old weight restores the original optimum.
    let script = [
        Edit::delete("E", vec![k("b"), k("c")]),
        Edit::insert("E", vec![k("b"), k("d")], Trop::finite(1.5)),
        Edit::insert("E", vec![k("b"), k("c")], Trop::finite(3.0)),
    ];
    let pins: [&[(&str, f64)]; 4] = [
        &[("c", 4.0)],
        &[("c", 5.0), ("d", 9.0)],
        &[("d", 2.5)],
        &[("c", 4.0)],
    ];
    let (bools, opts) = (BoolDatabase::new(), EngineOpts::default());
    for strategy in [Strategy::SemiNaive, Strategy::Worklist, Strategy::Priority] {
        let mut mat =
            Materialization::new(&program, &edb, &bools, CAP, strategy, &opts).expect("compiles");
        for (step, pins) in pins.iter().enumerate() {
            if step > 0 {
                mat.apply(&script[step - 1..step]).expect("edit applies");
            }
            for &(node, d) in *pins {
                let got = mat.get("L", &[k(node)]);
                assert_eq!(
                    got,
                    Some(&Trop::finite(d)),
                    "{strategy:?} {step}: L({node})"
                );
            }
        }
    }
    Case::new("incremental sssp", &program, &edb)
        .script(&script)
        .check();
}

/// What one schedule must share with another to be its name: the
/// stats label, the step count, the exact counters and every
/// per-iteration `[delta_rows, queue_depth, emits, inserted, improved,
/// absorbed]` row.
type Signature = (String, u64, datalog_o::engine::Counters, Vec<[u64; 6]>);

fn run_signature(stats: &EvalStats) -> Signature {
    let rows = stats.iterations.iter().map(|it| {
        [
            it.delta_rows,
            it.queue_depth,
            it.emits,
            it.inserted,
            it.improved,
            it.absorbed,
        ]
    });
    (
        stats.strategy.clone(),
        stats.steps,
        stats.counters,
        rows.collect(),
    )
}

/// A handle's [`run_signature`] and decoded state after its build or
/// last edit, for [`assert_same_loop`].
fn snapshot<P: Pops, S: Schedule<P>>(mat: &mut Materialization<P, S>) -> (Signature, Database<P>) {
    (run_signature(mat.last_stats()), mat.output().materialize())
}

/// `a` is another name for `b`'s loop: from scratch, under `query`, and
/// through a [`Materialization`] driven by `script` one edit at a time,
/// both give the same output and the same [`run_signature`] after every
/// step.
fn assert_same_loop<P, A, B>(
    scenario: &str,
    program: &Program<P>,
    pops: &Database<P>,
    query: &Query,
    script: &[Edit<P>],
    (a, b): (A, B),
) where
    P: Pops,
    A: Schedule<P> + std::fmt::Debug,
    B: Schedule<P>,
{
    let scenario = format!("{scenario}: {a:?}");
    let (bools, opts) = (BoolDatabase::new(), EngineOpts::default());
    let from_scratch =
        |out: datalog_o::InternedOutcome<P>| (run_signature(out.stats()), out.materialize());
    assert_eq!(
        from_scratch(oracle::scratch(program, pops, &bools, CAP, a, &opts)),
        from_scratch(oracle::scratch(program, pops, &bools, CAP, b, &opts)),
        "{scenario}: from scratch"
    );
    let demand = |qa: Result<datalog_o::QueryAnswer<P>, _>| {
        let qa = qa.expect("compiles");
        (run_signature(qa.stats()), qa.support_with_demand())
    };
    assert_eq!(
        demand(engine_query_eval_with_opts(
            program, query, pops, &bools, CAP, a, &opts
        )),
        demand(engine_query_eval_with_opts(
            program, query, pops, &bools, CAP, b, &opts
        )),
        "{scenario}: under {query:?}"
    );
    let mut ours = Materialization::new(program, pops, &bools, CAP, a, &opts).expect("builds");
    let mut theirs = Materialization::new(program, pops, &bools, CAP, b, &opts).expect("builds");
    assert_eq!(
        snapshot(&mut ours),
        snapshot(&mut theirs),
        "{scenario}: build"
    );
    for edit in script {
        ours.apply(std::slice::from_ref(edit))
            .expect("edit applies");
        theirs
            .apply(std::slice::from_ref(edit))
            .expect("edit applies");
        let leg = format!("{scenario}: after {edit:?}");
        assert_eq!(snapshot(&mut ours), snapshot(&mut theirs), "{leg}");
    }
}

/// Each [`Strategy`] alias against the loop it names.
fn assert_aliases<P>(
    scenario: &str,
    program: &Program<P>,
    pops: &Database<P>,
    query: &Query,
    script: &[Edit<P>],
) where
    P: NaturallyOrdered + CompleteDistributiveDioid + Absorptive + TotallyOrderedDioid,
{
    let worklist = (Strategy::Worklist, Strategy::SemiNaive);
    assert_same_loop(scenario, program, pops, query, script, worklist);
    let rounds = (Strategy::SemiNaive, SemiNaive);
    assert_same_loop(scenario, program, pops, query, script, rounds);
    let auto = (Strategy::Auto, Strategy::Priority);
    assert_same_loop(scenario, program, pops, query, script, auto);
}

#[test]
fn worklist_is_another_name_for_seminaive() {
    let (program, edb) = ex::sssp_trop("a");
    assert_aliases(
        "sssp_trop_example_4_1",
        &program,
        &edb,
        &parse_query("?- L(d).").unwrap(),
        &[
            Edit::delete("E", vec![k("b"), k("c")]),
            Edit::insert("E", vec![k("b"), k("d")], Trop::finite(1.5)),
            Edit::insert("E", vec![k("b"), k("c")], Trop::finite(3.0)),
        ],
    );

    let edges = [
        ("a", "b", 1.0),
        ("b", "a", 2.0),
        ("b", "c", 3.0),
        ("c", "d", 4.0),
        ("a", "c", 5.0),
    ];
    let (program, edb) = ex::apsp_trop(&edges);
    let script = [
        Edit::insert("E", vec![k("d"), k("a")], Trop::finite(1.0)),
        Edit::delete("E", vec![k("a"), k("b")]),
    ];
    let query = parse_query("?- T(a, Y).").unwrap();
    assert_aliases("apsp_trop_example_1_1", &program, &edb, &query, &script);

    // The quadratic rule reads its second `T` through `Old`: the rounds'
    // split, not a frontier's.
    let program = ex::quadratic_tc_program::<Trop>();
    let (_, edb) = ex::apsp_trop(&edges);
    assert_aliases("quadratic tc", &program, &edb, &query, &script);
}

/// Company control (Ex. 4.3, ℝ₊) through a share sale: ⊕ = + is not
/// idempotent, so the handle is built under [`Naive`] (no ⊖-delta, no
/// DRed value zero-out — full re-fixpoint from the marked state) and
/// from there runs the same `apply` / `rebuild` every other POPS does.
/// Dyadic share weights keep float sums exact under any association
/// order, so the grounded oracle comparison is bitwise.
#[test]
fn incremental_leg_company_control_share_sale() {
    let (program, edb0, bools) = ex::company_control(
        &["a", "b", "c", "d"],
        &[
            ("a", "b", 0.75),
            ("b", "c", 0.375),
            ("a", "c", 0.25),
            ("c", "d", 0.625),
            ("b", "d", 0.25),
        ],
    );
    let scenario = "incremental company control (naive schedule)";
    let opts = EngineOpts::default();
    // The edit script: b sells its 37.5% stake in c (a's transitive
    // control of c through b collapses to the direct 25% holding); a
    // buys it (shares ⊕-accumulate, a(→c) = 0.25 + 0.375 crosses the 50%
    // control threshold of c, re-opening the c→d route); a newcomer e —
    // a constant no relation mentions yet — buys into a.
    let script: Vec<Edit<NNReal>> = vec![
        Edit::delete("S", vec![k("b"), k("c")]),
        Edit::insert("S", vec![k("a"), k("c")], NNReal::of(0.375)),
        Edit::insert("S", vec![k("e"), k("a")], NNReal::of(0.75)),
    ];
    let case = Case::new(scenario, &program, &edb0).bools(&bools);
    case.script(&script).check_naive();
    // The whole script in one `apply` lands on the state the edits one
    // at a time reach.
    let mut mat = Materialization::new(&program, &edb0, &bools, CAP, Naive, &opts).expect("builds");
    for edit in &script {
        mat.apply(std::slice::from_ref(edit)).expect("edit applies");
    }
    let mut whole =
        Materialization::new(&program, &edb0, &bools, CAP, Naive, &opts).expect("builds");
    whole.apply(&script).expect("script applies");
    assert_eq!(whole.output().materialize(), mat.output().materialize());

    // A 1-step budget starves the next edit mid-flight: the handle is
    // poisoned, refuses further work, and `rebuild()` recovers it —
    // bit-identical to a fresh build over the edited EDB, with every id
    // the live handle had assigned (the late-interned `e` included)
    // unchanged.
    let known: Vec<(datalog_o::core::Constant, u32)> = {
        let interner = mat.output().interner();
        (0..interner.len() as u32)
            .map(|id| (interner.get(id).clone(), id))
            .collect()
    };
    mat.set_budget(EvalBudget::default().with_max_steps(1));
    let starved = mat
        .apply(&[Edit::delete("S", vec![k("a"), k("b")])])
        .expect_err("one step cannot rederive the cone");
    assert_eq!(starved.kind(), "budget");
    assert!(mat.poisoned().is_some());
    assert!(mat.partial().is_some(), "the mid-flight state is kept");
    let refused = mat
        .apply(&script[1..2])
        .expect_err("poisoned handles refuse edits");
    assert_eq!(refused.kind(), "poisoned");
    mat.set_budget(EvalBudget::default());
    mat.rebuild().expect("rebuild recovers");
    assert!(mat.poisoned().is_none() && mat.partial().is_none());
    let edited = mat.edb().clone();
    let mut fresh =
        Materialization::new(&program, &edited, &bools, CAP, Naive, &opts).expect("builds");
    assert_eq!(mat.output().materialize(), fresh.output().materialize());
    assert_eq!(mat.last_stats().steps, fresh.last_stats().steps);
    let grounded = naive_eval_sparse(&program, &edited, &bools, CAP).unwrap();
    let rebuilt = mat.output().materialize();
    oracle::assert_same_facts(&format!("{scenario}: rebuild"), &grounded, &rebuilt);
    let interner = mat.output().interner();
    for (constant, id) in &known {
        assert_eq!(interner.lookup(constant), Some(*id), "{constant:?} moved");
    }
}

/// A wide-key scenario through the full matrix: each loop's counters
/// from scratch, for the caller to say which structure its probes must
/// have read.
fn matrix_probe_counters(
    scenario: &str,
    program: &Program<Trop>,
    edb: &Database<Trop>,
) -> Vec<(String, datalog_o::engine::Counters)> {
    assert_bulk_load_bit_identical(scenario, program, edb, &BoolDatabase::new());
    let report = Case::new(scenario, program, edb).check();
    let loops = report.loops.into_iter();
    loops.map(|l| (l.name, l.scratch.counters)).collect()
}

/// The wide-key regimes the arrangements exist for, as full matrix
/// scenarios — the arity-4 labelled closure (recursive IDB, three-column
/// probe) and the wide fact lookup (two masks sharing one sort order) —
/// and, under every engine schedule, every probe routed through a
/// sorted arrangement: nothing in these programs is narrow enough for a
/// packed hash index.
fn assert_matrix_arranged(scenario: &str, program: &Program<Trop>, edb: &Database<Trop>) {
    for (leg, c) in matrix_probe_counters(scenario, program, edb) {
        assert!(c.merge_join_steps > 0, "{scenario}/{leg}: nothing arranged");
        assert_eq!(c.hash_join_steps, 0, "{scenario}/{leg}: hash-probed");
    }
}

#[test]
fn labelled_closure_wide_keys() {
    let (program, edb) = dlo_bench::labeled_tc4(3, 10);
    assert_matrix_arranged("labelled closure (arity 4)", &program, &edb);
}

#[test]
fn wide_lookup_wide_keys() {
    let (program, edb) = dlo_bench::wide_lookup(3000, 48, 7);
    assert_matrix_arranged("wide lookup", &program, &edb);
}

/// The two scenarios above intern fewer than 2^11 constants, so every
/// column of their runs is one counting digit. Here `F` holds 6 000
/// arity-4 rows over ≈ 3 000 constants (integers and strings), so each
/// column spans two digits and a partition is the top digit of its
/// leading column: `Out1` probes `F` through the prefix `{A, B, C}`
/// (partitions are ranges of the load's rows), `Out2` through `{B, C,
/// D}`, which leaves column 0 out (partitions scattered over the rows).
#[test]
fn wide_lookup_past_one_digit() {
    let program: Program<Trop> = parse_program(
        "Out1(A, D) :- S(A, B, C) * F(A, B, C, D).\n\
         Out2(B, A) :- T(B, C, D) * F(A, B, C, D).",
    )
    .unwrap();
    let id = |i: u64| -> datalog_o::core::Constant {
        match i % 4 {
            0 => format!("c{i}").as_str().into(),
            _ => (i as i64).into(),
        }
    };
    let mut facts = std::collections::BTreeMap::new();
    for i in 0..6_000u64 {
        let key = [i % 61, i * 7_919 % 3_001, i % 5, i * 104_729 % 2_999];
        facts.insert(key.map(id).to_vec(), Trop::finite((1 + i % 9) as f64));
    }
    let rows = |cols: std::ops::Range<usize>, step: usize| -> Relation<Trop> {
        let picked = facts.keys().step_by(step);
        let tuples = picked.map(|t| (t[cols.clone()].to_vec(), Trop::finite(1.0)));
        Relation::from_pairs(cols.len(), tuples)
    };
    let mut edb = Database::new();
    edb.insert("S", rows(0..3, 97));
    edb.insert("T", rows(1..4, 89));
    edb.insert("F", Relation::from_pairs(4, facts.clone()));
    let mut interner = Interner::new();
    let f = interner.load_relation(edb.get("F").unwrap());
    assert!(interner.len() > 1 << 11 && f.len() >= 5_000);
    assert_matrix_arranged("wide lookup past one digit", &program, &edb);
}

/// Labelled edges `E3(X, Y, A)`: per label `A` a weighted chain over
/// six nodes with a long shortcut and a closing back edge, so closures
/// improve rows after inserting them.
fn labelled_edges(labels: i64) -> Database<Trop> {
    let edge =
        |x: i64, y: i64, a: i64, w: f64| (vec![x.into(), y.into(), a.into()], Trop::finite(w));
    let mut pops = Database::new();
    pops.insert(
        "E3",
        Relation::from_pairs(
            3,
            (0..labels).flat_map(|a| {
                let chain = (0..5).map(move |i| edge(i, i + 1, a, (1 + a) as f64));
                chain.chain([edge(0, 3, a, 5.0), edge(5, 0, a, 2.0)])
            }),
        ),
    );
    pops
}

/// The other side of the rule: a wide relation probed while it grows.
/// The labelled quadratic closure joins its own arity-3 IDB with itself
/// — `R(Z, Y, A)` probed on columns `{0, 2}`, and by the Δ plan that
/// starts from the other occurrence `R(X, Z, A)` on `{1, 2}` — while
/// `E3` is only scanned: under every schedule every probe is an IDB
/// probe, every one is answered by a hash index, and the fixpoint is
/// the grounded oracle's.
#[test]
fn labelled_quadratic_closure_probes_a_growing_wide_idb() {
    let scenario = "labelled quadratic closure (arity 3)";
    let program: Program<Trop> =
        parse_program("R(X, Y, A) :- E3(X, Y, A) + R(X, Z, A) * R(Z, Y, A).").unwrap();
    for (leg, c) in matrix_probe_counters(scenario, &program, &labelled_edges(3)) {
        assert_eq!(
            c.merge_join_steps + c.hash_join_steps,
            c.index_probes,
            "{scenario}/{leg}"
        );
        assert_eq!(c.merge_join_steps, 0, "{scenario}/{leg}: E3 is not probed");
        assert!(c.hash_join_steps > 0, "{scenario}/{leg}: R is, by hash");
    }
}

/// The linear twin on a [`Materialization`], where one relation crosses
/// from one regime to the other: `E3` is bulk-loaded and probed through
/// sorted runs by the build, the first insert appends to it — its runs
/// become hash indexes, which the two-hop rule's variants read too —
/// and the delete rebuilds it as a grown relation. Every epoch, under every
/// schedule, is the from-scratch run on the edited EDB (which sorts
/// `E3` afresh) and the grounded oracle, whichever structure answered.
#[test]
fn labelled_linear_closure_edits_a_bulk_loaded_wide_edb() {
    fn check<S: Schedule<Trop> + std::fmt::Debug>(
        schedule: S,
        program: &Program<Trop>,
        edb: &Database<Trop>,
        script: &[Edit<Trop>],
    ) {
        let scenario = format!("labelled linear closure (arity 3, {schedule:?})");
        let (bools, opts) = (BoolDatabase::new(), EngineOpts::default());
        let mut mat =
            Materialization::new(program, edb, &bools, CAP, schedule, &opts).expect("builds");
        let mut edited = edb.clone();
        for step in 0..=script.len() {
            if step > 0 {
                oracle::mirror(&mut edited, &script[step - 1]);
                mat.apply(&script[step - 1..step]).expect("edit applies");
            }
            let leg = format!("{scenario}, step {step}");
            let scratch = oracle::scratch(program, &edited, &bools, CAP, schedule, &opts);
            let s = &scratch.stats().counters;
            assert_eq!(
                (s.merge_join_steps, s.hash_join_steps),
                (s.index_probes, 0),
                "{leg}: from scratch every probe reads a sorted run"
            );
            let c = mat.last_stats().counters;
            assert!(c.index_probes > 0, "{leg}: the edit probes");
            assert_eq!(
                c.merge_join_steps + c.hash_join_steps,
                c.index_probes,
                "{leg}"
            );
            match step {
                0 => assert_eq!(c.hash_join_steps, 0, "{leg}: the build reads runs"),
                1 => assert!(c.hash_join_steps > 0, "{leg}: the grown E3 reads hash"),
                _ => assert_eq!(c.merge_join_steps, 0, "{leg}: no run is left"),
            }
        }
    }
    let program: Program<Trop> = parse_program(
        "R(X, Y, A) :- E3(X, Y, A) + R(X, Z, A) * E3(Z, Y, A).\n\
         Hop2(X, Y, A) :- E3(X, Z, A) * E3(Z, Y, A).",
    )
    .unwrap();
    let edb = labelled_edges(3);
    // A shortcut under label 0 that improves rows downstream, then the
    // chain's first hop under label 1, whose cone must rederive.
    let script = [
        Edit::insert(
            "E3",
            vec![1i64.into(), 4i64.into(), 0i64.into()],
            Trop::finite(0.5),
        ),
        Edit::delete("E3", vec![0i64.into(), 1i64.into(), 1i64.into()]),
    ];
    let case = Case::new("labelled linear closure (arity 3)", &program, &edb);
    case.script(&script).check();
    check(Naive, &program, &edb, &script);
    check(SemiNaive, &program, &edb, &script);
    for strategy in [Strategy::SemiNaive, Strategy::Worklist, Strategy::Priority] {
        check(strategy, &program, &edb, &script);
    }
}

/// A 48-node near-complete digraph: every ordered pair but those with
/// `(7u + v) % 5 == 0` (and the loops), integer weights 1–9, so every
/// path sum is exact.
fn near_complete_48() -> dlo_bench::GraphInstance {
    const N: usize = 48;
    let edges = (0..N).flat_map(|u| {
        (0..N)
            .filter(move |&v| u != v && (7 * u + v) % 5 != 0)
            .map(move |v| (u, v, (1 + (3 * u + 5 * v) % 9) as f64))
    });
    dlo_bench::GraphInstance {
        n: N,
        edges: edges.collect(),
    }
}

/// Shortest paths of at least one edge, by Floyd–Warshall — the
/// reference the dense closure below is held to.
fn floyd_warshall(graph: &dlo_bench::GraphInstance) -> Relation<Trop> {
    let n = graph.n;
    let mut d = vec![f64::INFINITY; n * n];
    for &(u, v, w) in &graph.edges {
        d[u * n + v] = d[u * n + v].min(w);
    }
    for m in 0..n {
        for i in 0..n {
            for j in 0..n {
                d[i * n + j] = d[i * n + j].min(d[i * n + m] + d[m * n + j]);
            }
        }
    }
    let finite = (0..n * n).filter(|&c| d[c].is_finite());
    Relation::from_pairs(
        2,
        finite.map(|c| {
            let key = vec![graph.node(c / n), graph.node(c % n)];
            (key, Trop::finite(d[c]))
        }),
    )
}

/// The scenario big enough for a direct-addressed row map: APSP on
/// [`near_complete_48`], whose `T` holds all 48² = 2 304 pairs over ids
/// 0–47 and so turns into a 48² slot table once it passes 1 024 rows
/// (`storage::row_map_dense`). Every schedule — both round loops and
/// every `Strategy` — lands on the Floyd–Warshall distances and reports
/// the slot table in `explain()`, and builds a handle that is the
/// from-scratch run, counters included.
#[test]
fn dense_apsp_runs_on_a_slot_table_under_every_schedule() {
    fn check<S: Schedule<Trop> + std::fmt::Debug>(schedule: S) {
        let graph = near_complete_48();
        let (program, edb) = (ex::apsp_program::<Trop>(), graph.trop_edb());
        let bools = BoolDatabase::new();
        let out = engine_eval_interned(
            &program,
            &edb,
            &bools,
            CAP,
            schedule,
            &EngineOpts::default(),
        )
        .expect("compiles");
        let explain = out.explain();
        assert!(
            explain.contains("T: 2304 rows, row map dense 48² (9.0 KiB)"),
            "{schedule:?}:\n{explain}"
        );
        let db = out.materialize().unwrap();
        assert_eq!(db.get("T"), Some(&floyd_warshall(&graph)), "{schedule:?}");
    }
    let (program, edb) = (ex::apsp_program::<Trop>(), near_complete_48().trop_edb());
    Case::new("dense apsp", &program, &edb)
        .engine_reference()
        .check();
    check(Naive);
    check(SemiNaive);
    for strategy in [
        Strategy::Auto,
        Strategy::SemiNaive,
        Strategy::Worklist,
        Strategy::Priority,
    ] {
        check(strategy);
    }
}

/// The engine switches to merge joins past the packed-key width: an
/// arity-3 join probes through a sorted arrangement, and stays
/// bit-identical to the grounded oracle.
#[test]
fn planner_auto_arranges_wide_relations() {
    let src = "J(X, U) :- A(X, Y, Z) * B(Y, Z, U).";
    let program: Program<Trop> = parse_program(src).unwrap();
    let mut pops = Database::new();
    pops.insert(
        "A",
        Relation::from_pairs(
            3,
            vec![
                (vec![k("a"), k("b"), k("c")], Trop::finite(1.0)),
                (vec![k("a"), k("b"), k("d")], Trop::finite(2.0)),
                (vec![k("f"), k("b"), k("d")], Trop::finite(3.0)),
            ],
        ),
    );
    pops.insert(
        "B",
        Relation::from_pairs(
            3,
            vec![
                (vec![k("b"), k("c"), k("e")], Trop::finite(1.0)),
                (vec![k("b"), k("d"), k("e")], Trop::finite(4.0)),
                (vec![k("b"), k("d"), k("g")], Trop::finite(0.5)),
            ],
        ),
    );
    let report = Case::new("planner_auto_arranges_wide", &program, &pops).check();
    let c = report.of("SemiNaive").scratch.counters;
    assert!(
        c.merge_join_steps > 0,
        "the arity-3 probe side must be arranged"
    );
    assert_eq!(
        c.hash_join_steps, 0,
        "no packed-width probes in this program"
    );
}

/// What `threads` still does, in one place: it sizes the pool that loads
/// a large EDB relation in parts and builds the EDB indexes before the
/// first step, and nothing else — one thread runs the fixpoint under
/// every schedule. (This EDB is below the load's minimum part size; the
/// next test splits one.) The program gives that build
/// three work items (`A` and `B` probed by one column, the Boolean guard
/// `Open` by its full key); at 1, 2 and 4 threads every schedule returns
/// the same outcome and the same `EvalStats::invariants()`, records the
/// thread count it was given, and fans no plan out. A `Materialization`
/// built and edited at 4 threads matches its twin at 1 after every step.
#[test]
fn threads_build_the_edb_indexes_and_nothing_else() {
    let src = "Hop(X, Z) :- A(X, Y) * B(Y, Z) | Open(X, Z).\n\
               T(X, Z) :- Hop(X, Z) + T(X, Y) * A(Y, Z).";
    let program: Program<Trop> = parse_program(src).unwrap();
    let n = 24i64;
    let edges = |stride: i64| {
        Relation::from_pairs(
            2,
            (0..n).flat_map(move |u| {
                [(u + 1) % n, (u * stride + 3) % n].map(|v| {
                    (
                        vec![u.into(), v.into()],
                        Trop::finite((1 + (u + v) % 5) as f64),
                    )
                })
            }),
        )
    };
    let mut pops = Database::new();
    pops.insert("A", edges(5));
    pops.insert("B", edges(7));
    let mut bools = BoolDatabase::new();
    bools.insert(
        "Open",
        bool_relation(
            2,
            (0..n * n)
                .filter(|i| i % 3 != 0)
                .map(|i| vec![(i / n).into(), (i % n).into()]),
        ),
    );
    fn at(threads: usize) -> EngineOpts {
        EngineOpts {
            threads: Some(threads),
            ..EngineOpts::default()
        }
    }
    fn check<S: Schedule<Trop> + std::fmt::Debug>(
        schedule: S,
        program: &Program<Trop>,
        pops: &Database<Trop>,
        bools: &BoolDatabase,
    ) {
        let run_at = |threads| {
            oracle::scratch(program, pops, bools, CAP, schedule, &at(threads)).materialize()
        };
        let base = run_at(1);
        assert!(
            base.stats().counters.index_probes > 100,
            "{schedule:?}: the indexes are read"
        );
        for threads in [1usize, 2, 4] {
            let got = run_at(threads);
            let stats = got.stats();
            assert_eq!(stats.threads, threads as u64, "{schedule:?}");
            assert_eq!(
                (stats.tasks_spawned, stats.parallel_batches),
                (0, 0),
                "{schedule:?} @ {threads} threads fanned plans out"
            );
            assert_eq!(
                base.stats().invariants(),
                stats.invariants(),
                "{schedule:?} @ {threads} threads: stats"
            );
            assert_eq!(base, got, "{schedule:?} @ {threads} threads: outcome");
        }
    }
    check(Naive, &program, &pops, &bools);
    check(SemiNaive, &program, &pops, &bools);
    for strategy in [Strategy::SemiNaive, Strategy::Worklist, Strategy::Priority] {
        check(strategy, &program, &pops, &bools);
    }

    let build = |threads| {
        Materialization::new(&program, &pops, &bools, CAP, Strategy::Auto, &at(threads))
            .expect("builds")
    };
    let (mut one, mut four) = (build(1), build(4));
    let assert_twins =
        |step: &str, one: &mut Materialization<Trop>, four: &mut Materialization<Trop>| {
            assert_eq!(four.last_stats().threads, 4, "{step}");
            assert_eq!(
                one.last_stats().invariants(),
                four.last_stats().invariants(),
                "{step}: handle stats at 4 threads"
            );
            assert_eq!(
                one.output().materialize(),
                four.output().materialize(),
                "{step}: handle state at 4 threads"
            );
        };
    assert_twins("build", &mut one, &mut four);
    for edit in [
        Edit::insert("A", vec![2i64.into(), 17i64.into()], Trop::finite(0.5)),
        Edit::delete("B", vec![3i64.into(), 4i64.into()]),
    ] {
        for handle in [&mut one, &mut four] {
            handle
                .apply(std::slice::from_ref(&edit))
                .expect("edit applies");
        }
        assert_twins(&format!("{edit:?}"), &mut one, &mut four);
    }
}

/// The parted load at every entry point: `F` holds 40 000 rows, above
/// the load's minimum part size, so at 2 and 4 threads it is interned
/// in parts. Every schedule returns the outcome, the
/// `EvalStats::invariants()` and the interner ids of one thread; a
/// `Materialization` built, edited and rebuilt at 4 threads matches its
/// twin at 1 after every step, interner included.
#[test]
fn threads_load_a_large_edb_relation_in_parts_with_the_same_ids() {
    let src = "Q(X, Z) :- S(X) * F(X, Y, Z).";
    let program: Program<Trop> = parse_program(src).unwrap();
    let rows = (0..40_000i64).map(|k| {
        let row = vec![
            (k / 400).into(),
            k.into(),
            format!("z{}", k * 7 % 1_000).as_str().into(),
        ];
        (row, Trop::finite((1 + k % 9) as f64))
    });
    let mut pops = Database::new();
    pops.insert("F", Relation::from_pairs(3, rows));
    let seeds = [3i64, 77, 99].map(|x| (vec![x.into()], Trop::finite(0.5)));
    pops.insert("S", Relation::from_pairs(1, seeds));
    let bools = BoolDatabase::new();
    let at = |threads| EngineOpts {
        threads: Some(threads),
        ..EngineOpts::default()
    };
    fn ids(i: &Interner) -> Vec<datalog_o::core::Constant> {
        (0..i.len() as u32).map(|id| i.get(id).clone()).collect()
    }
    fn twins(step: &str, one: &mut Materialization<Trop>, four: &mut Materialization<Trop>) {
        assert_eq!(
            one.last_stats().invariants(),
            four.last_stats().invariants(),
            "{step}: stats"
        );
        let (a, b) = (one.output().clone(), four.output());
        assert_eq!(ids(a.interner()), ids(b.interner()), "{step}: ids");
        assert_eq!(a.materialize(), b.materialize(), "{step}: state");
    }
    fn check<S: Schedule<Trop> + std::fmt::Debug>(
        schedule: S,
        program: &Program<Trop>,
        pops: &Database<Trop>,
        bools: &BoolDatabase,
    ) {
        let run = |threads| {
            let opts = EngineOpts {
                threads: Some(threads),
                ..EngineOpts::default()
            };
            engine_eval_interned(program, pops, bools, CAP, schedule, &opts).expect("compiles")
        };
        let base = run(1);
        for threads in [1usize, 2, 4] {
            let got = run(threads);
            let what = format!("{schedule:?} @ {threads} threads");
            assert_eq!(
                base.stats().invariants(),
                got.stats().invariants(),
                "{what}"
            );
            assert_eq!(
                ids(base.output().interner()),
                ids(got.output().interner()),
                "{what}"
            );
            assert_eq!(
                base.output().materialize(),
                got.output().materialize(),
                "{what}"
            );
        }
    }
    check(Naive, &program, &pops, &bools);
    check(SemiNaive, &program, &pops, &bools);
    check(Strategy::Priority, &program, &pops, &bools);

    let build = |threads| {
        Materialization::new(&program, &pops, &bools, CAP, Strategy::Auto, &at(threads))
            .expect("builds")
    };
    let (mut one, mut four) = (build(1), build(4));
    twins("build", &mut one, &mut four);
    for handle in [&mut one, &mut four] {
        let edit = Edit::insert("S", vec![5i64.into()], Trop::finite(1.0));
        handle.apply(&[edit]).expect("edit applies");
    }
    twins("insert", &mut one, &mut four);
    one.rebuild().expect("rebuilds");
    four.rebuild().expect("rebuilds");
    twins("rebuild", &mut one, &mut four);
}
