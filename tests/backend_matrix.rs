//! The backend matrix: every oracle scenario from `paper_examples.rs`
//! and `textual_programs.rs` pushed through **both** evaluator families
//! — the grounded reference (naive and semi-naive, closed over the
//! constants head key functions mint) and the execution engine (naive,
//! semi-naive, the semi-naive rounds again under their `Worklist`
//! name, and the priority frontier) — asserting identical output
//! databases. `cross_engine.rs` spot-checks a subset against external
//! oracles; this file is the exhaustive
//! pairwise-agreement sweep, and since the engine lost its
//! head-key-function fallback it proves the fast backend really is
//! total over the language.
//!
//! Scenarios whose paper POPS is not naturally ordered (the lifted reals
//! of Ex. 4.2, `THREE` of Sec. 7) cannot run on the sparse grounding or
//! the engine at all — the dense grounding is their reference — so the
//! matrix runs those programs over a naturally ordered carrier instead
//! (`MinNat`, `𝔹`), which exercises the identical rule shapes. POPS that
//! are naturally ordered but not complete distributive dioids (`ℝ₊`,
//! `Trop⁺_1`) run the two naive legs only.

use datalog_o::core::examples_lib as ex;
use datalog_o::core::{
    bool_relation, naive_eval, naive_eval_sparse, parse_program, parse_query, seminaive_eval,
    BoolDatabase, Database, Program, ProgramParser, Query, Relation, UnaryFn,
};
use datalog_o::core::{Edit, EvalOutcome, FactDelete, FactInsert};
use datalog_o::engine::{ColumnRel, Interner};
use datalog_o::pops::{
    Absorptive, Bool, CompleteDistributiveDioid, MinNat, NNReal, NaturallyOrdered, Pops,
    TotallyOrderedDioid, Trop, TropP,
};
use datalog_o::{
    engine_eval_interned, engine_query_eval_with_opts, EngineOpts, EvalBudget, EvalStats,
    Materialization, Naive, Schedule, SemiNaive, Strategy,
};

const CAP: usize = 100_000;

/// One from-scratch evaluation under `schedule`, decoded.
fn run<P: Pops + Send, S: Schedule<P>>(
    program: &Program<P>,
    pops: &Database<P>,
    bools: &BoolDatabase,
    cap: usize,
    schedule: S,
    opts: &EngineOpts,
) -> EvalOutcome<P> {
    engine_eval_interned(program, pops, bools, cap, schedule, opts)
        .expect("compiles")
        .materialize()
}

fn k(s: &str) -> datalog_o::core::Constant {
    s.into()
}

/// Asserts `got` carries exactly the relations of `reference` (empty
/// relations are equivalent to absent ones on both sides).
fn assert_same_db<P: datalog_o::pops::Pops>(
    scenario: &str,
    backend: &str,
    reference: &Database<P>,
    got: &Database<P>,
) {
    for (pred, r) in reference.iter() {
        let empty = Relation::new(r.arity());
        assert_eq!(
            r,
            got.get(pred).unwrap_or(&empty),
            "{scenario}: {backend} differs on {pred}"
        );
    }
    for (pred, r) in got.iter() {
        if reference.get(pred).is_none() {
            assert!(
                r.is_empty(),
                "{scenario}: {backend} derived extra atoms in {pred}"
            );
        }
    }
}

/// The full six-leg matrix: grounded naive/semi-naive, engine
/// naive/semi-naive, and the engine's two [`Strategy`] legs
/// (`Worklist`, another name for the semi-naive rounds, and the
/// bucketed priority frontier). Every `all` scenario runs over a
/// totally ordered absorptive dioid (`Trop`, `MinNat`, `𝔹`), so the
/// `Strategy` legs apply; POPS without those markers use
/// [`assert_matrix_naive`] below.
fn assert_matrix_all<P>(
    scenario: &str,
    program: &Program<P>,
    pops: &Database<P>,
    bools: &BoolDatabase,
) where
    P: NaturallyOrdered
        + CompleteDistributiveDioid
        + Absorptive
        + TotallyOrderedDioid
        + Send
        + Sync,
{
    assert_bulk_load_bit_identical(scenario, program, pops, bools);
    let converged = |outcome: EvalOutcome<P>| outcome.converged().expect("converges");
    let (grounded, naive_steps) = converged(naive_eval_sparse(program, pops, bools, CAP));
    // The semi-naïve loop counts the round that finds δ empty, as the
    // grounded one does.
    let (semi, semi_steps) = converged(seminaive_eval(program, pops, bools, CAP));
    let opts = EngineOpts::default();
    let (eng_naive, eng_naive_steps) = converged(run(program, pops, bools, CAP, Naive, &opts));
    let (eng_semi, eng_steps) = converged(run(program, pops, bools, CAP, SemiNaive, &opts));
    assert_eq!(eng_naive_steps, naive_steps, "{scenario}: naive steps");
    assert_eq!(eng_steps, semi_steps, "{scenario}: semi-naive steps");
    let legs: [(&str, Database<P>); 5] = [
        ("grounded semi-naive", semi),
        ("engine naive", eng_naive),
        ("engine semi-naive", eng_semi),
        (
            "engine worklist",
            run(
                program,
                pops,
                bools,
                CAP,
                Strategy::Worklist,
                &EngineOpts::default(),
            )
            .unwrap(),
        ),
        (
            "engine priority",
            run(
                program,
                pops,
                bools,
                CAP,
                Strategy::Priority,
                &EngineOpts::default(),
            )
            .unwrap(),
        ),
    ];
    for (backend, got) in &legs {
        assert_same_db(scenario, backend, &grounded, got);
    }
    assert_loop_parity(scenario, program, pops, bools, Naive);
    assert_loop_parity(scenario, program, pops, bools, SemiNaive);
}

/// The two naive legs, for POPS without `⊖` (no complete distributive
/// dioid structure): grounded naive, engine naive.
fn assert_matrix_naive<P>(
    scenario: &str,
    program: &Program<P>,
    pops: &Database<P>,
    bools: &BoolDatabase,
) where
    P: NaturallyOrdered + Send + Sync,
{
    assert_bulk_load_bit_identical(scenario, program, pops, bools);
    let grounded = naive_eval_sparse(program, pops, bools, CAP).unwrap();
    let eng = run(program, pops, bools, CAP, Naive, &EngineOpts::default()).unwrap();
    assert_same_db(scenario, "engine naive", &grounded, &eng);
    assert_loop_parity(scenario, program, pops, bools, Naive);
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
fn assert_bulk_load_bit_identical<P: NaturallyOrdered + Send + Sync>(
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

/// One `#[test]` per oracle scenario. `all` runs the six-leg matrix,
/// `naive` the two naive legs; the block must evaluate to
/// `(Program<P>, Database<P>, BoolDatabase)`.
macro_rules! backend_matrix {
    ($(all $name:ident => $setup:block)*) => {
        $(#[test]
        fn $name() {
            let (program, pops, bools) = $setup;
            assert_matrix_all(stringify!($name), &program, &pops, &bools);
        })*
    };
    ($(naive $name:ident => $setup:block)*) => {
        $(#[test]
        fn $name() {
            let (program, pops, bools) = $setup;
            assert_matrix_naive(stringify!($name), &program, &pops, &bools);
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
    let grounded = naive_eval_sparse(&program, &pops, &bools, CAP).unwrap();
    assert!(
        grounded.get("T").is_some_and(|t| t.support_size() > 100),
        "the guards must leave a non-trivial closure"
    );
    let opts = EngineOpts::default();
    let legs = [
        ("naive", run(&program, &pops, &bools, CAP, Naive, &opts)),
        (
            "semi-naive",
            run(&program, &pops, &bools, CAP, SemiNaive, &opts),
        ),
        (
            "worklist",
            run(&program, &pops, &bools, CAP, Strategy::Worklist, &opts),
        ),
        (
            "priority",
            run(&program, &pops, &bools, CAP, Strategy::Priority, &opts),
        ),
    ];
    for (leg, got) in legs {
        assert_same_db("guarded closure", leg, &grounded, &got.unwrap());
    }
}

/// The demand legs: `engine_query_eval_with_opts` under every schedule
/// must return exactly the query-restriction of the grounded reference's full
/// fixpoint, and every row of the demanded support must be value-exact
/// against it (magic sets never under- or over-derive a demanded row).
fn assert_query_matrix<P>(
    scenario: &str,
    program: &Program<P>,
    pops: &Database<P>,
    bools: &BoolDatabase,
    query: &Query,
) where
    P: NaturallyOrdered
        + CompleteDistributiveDioid
        + Absorptive
        + TotallyOrderedDioid
        + Send
        + Sync,
{
    let grounded = naive_eval_sparse(program, pops, bools, CAP).unwrap();
    let empty = Relation::new(query.arity());
    let expected = query.restrict(grounded.get(&query.pred).unwrap_or(&empty).clone());
    let defaults = EngineOpts::default();
    let legs: Vec<(String, datalog_o::QueryAnswer<P>)> =
        [Strategy::SemiNaive, Strategy::Worklist, Strategy::Priority]
            .into_iter()
            .map(|strategy| {
                (
                    format!("{strategy:?}"),
                    engine_query_eval_with_opts(
                        program, query, pops, bools, CAP, strategy, &defaults,
                    )
                    .expect("compiles"),
                )
            })
            .chain(std::iter::once((
                "query semi-naive (weak bounds)".to_string(),
                engine_query_eval_with_opts(program, query, pops, bools, CAP, SemiNaive, &defaults)
                    .expect("compiles"),
            )))
            .chain(std::iter::once((
                "query naive".to_string(),
                engine_query_eval_with_opts(program, query, pops, bools, CAP, Naive, &defaults)
                    .expect("compiles"),
            )))
            .collect();
    for (leg, qa) in &legs {
        assert!(qa.is_converged(), "{scenario}: {leg} diverged");
        assert_eq!(
            &expected,
            &qa.answers(),
            "{scenario}: {leg} answers differ from the grounded restriction for {query:?}"
        );
        for (pred, rel) in qa.support().iter() {
            let reference = grounded.get(pred);
            for (t, v) in rel.support() {
                assert_eq!(
                    reference.map(|r| r.get(t)),
                    Some(v.clone()),
                    "{scenario}: {leg} demanded row {pred}({t:?}) is not value-exact"
                );
            }
        }
    }
}

#[test]
fn demand_leg_sssp_point_query() {
    let (program, edb) = ex::sssp_trop("a");
    let query = parse_query("?- L(d).").unwrap();
    assert_query_matrix(
        "sssp_trop_example_4_1",
        &program,
        &edb,
        &BoolDatabase::new(),
        &query,
    );
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
    let bools = BoolDatabase::new();
    // Source-bound (adornment bf) and sink-bound (fb) both restrict.
    for src in ["?- T(a, Y).", "?- T(X, d).", "?- T(b, c)."] {
        let query = parse_query(src).unwrap();
        assert_query_matrix("apsp_trop_example_1_1", &program, &edb, &bools, &query);
    }
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
    for part in ["a", "c", "d"] {
        let query = Query::point("T", vec![part.into()]);
        assert_query_matrix("bom_minnat_example_4_2", &program, &pops, &bools, &query);
    }
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
    let bools = BoolDatabase::new();
    // Both a reachable and an unreachable point query.
    for node in ["b", "d"] {
        let query = Query::point("Reach", vec![node.into()]);
        assert_query_matrix("reach_surface_syntax_bool", &program, &pops, &bools, &query);
    }
}

#[test]
fn demand_leg_quadratic_tc_falls_back_to_full() {
    // The quadratic rule collapses the adornment to all-free — the
    // query path must still answer correctly (full computation plus
    // restriction).
    let (program, edb) = ex::quadratic_tc_bool(&[("a", "b"), ("b", "c"), ("c", "a"), ("c", "d")]);
    let query = parse_query("?- T(a, Y).").unwrap();
    assert_query_matrix(
        "quadratic_tc_bool_guarded",
        &program,
        &edb,
        &BoolDatabase::new(),
        &query,
    );
}

#[test]
fn demand_leg_head_keyed_prefix() {
    // Head-key-function program: demand propagation itself mints keys.
    let (program, edb) = ex::prefix_sum_keyed::<Trop>(&[2.0, 4.0, 1.5, 3.0, 0.5], Trop::finite);
    let query = parse_query("?- W(3).").unwrap();
    assert_query_matrix(
        "prefix_head_keyed_sec_4_5",
        &program,
        &edb,
        &BoolDatabase::new(),
        &query,
    );
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
    let grounded = naive_eval_sparse(&program, &pops, &bools, CAP).unwrap();
    let query = Query::new(
        "T",
        vec![
            datalog_o::core::QueryArg::bound("a"),
            datalog_o::core::QueryArg::Free,
        ],
    );
    let qa = engine_query_eval_with_opts(
        &program,
        &query,
        &pops,
        &bools,
        CAP,
        Naive,
        &EngineOpts::default(),
    )
    .expect("compiles");
    assert!(qa.is_converged());
    let expected = query.restrict(grounded.get("T").unwrap().clone());
    assert_eq!(expected, qa.answers());
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
            run(&p, &pops, &bools, SMALL_CAP, Naive, &EngineOpts::default()),
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
            run(
                &p,
                &pops,
                &bools,
                SMALL_CAP,
                SemiNaive,
                &EngineOpts::default(),
            ),
        ),
        // The frontier drivers cap *batches* rather than global
        // iterations, but unbounded minting must still surface as the
        // same capped divergence, cap named in the diagnostic.
        (
            "engine worklist",
            run(
                &p,
                &pops,
                &bools,
                SMALL_CAP,
                Strategy::Worklist,
                &EngineOpts::default(),
            ),
        ),
        (
            "engine priority",
            run(
                &p,
                &pops,
                &bools,
                SMALL_CAP,
                Strategy::Priority,
                &EngineOpts::default(),
            ),
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
    let legs = [
        (
            "naive",
            run(&program, &pops, &bools, CAP, Naive, &EngineOpts::default()),
        ),
        (
            "seminaive",
            run(
                &program,
                &pops,
                &bools,
                CAP,
                Strategy::SemiNaive,
                &EngineOpts::default(),
            ),
        ),
        (
            "seminaive",
            run(
                &program,
                &pops,
                &bools,
                CAP,
                Strategy::Worklist,
                &EngineOpts::default(),
            ),
        ),
        (
            "priority",
            run(
                &program,
                &pops,
                &bools,
                CAP,
                Strategy::Priority,
                &EngineOpts::default(),
            ),
        ),
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
/// whole script under every dioid strategy.
#[test]
fn incremental_leg_sssp_gradient_retraction() {
    let (program, edb0) = ex::sssp_trop("a");
    let bools = BoolDatabase::new();
    for strategy in [Strategy::SemiNaive, Strategy::Worklist, Strategy::Priority] {
        let scenario = format!("incremental sssp ({strategy:?})");
        let mut edb = edb0.clone();
        let mut mat = Materialization::new(
            &program,
            &edb,
            &bools,
            CAP,
            strategy,
            &EngineOpts::default(),
        )
        .expect("compiles");
        // Fig. 2(a): a→b 1, b→a 2, b→c 3, c→d 4, a→c 5. L(c) = 4 via b.
        assert_eq!(mat.get("L", &[k("c")]), Some(&Trop::finite(4.0)));

        // Retract the b→c hop: every shortest path through it lengthens
        // — L(c) falls back to the direct a→c edge, L(d) follows.
        edb.get_or_insert("E", 2)
            .set(vec![k("b"), k("c")], Trop::INF);
        mat.delete(&[FactDelete::new("E", vec![k("b"), k("c")])])
            .expect("edit applies");
        assert_eq!(mat.get("L", &[k("c")]), Some(&Trop::finite(5.0)));
        assert_eq!(mat.get("L", &[k("d")]), Some(&Trop::finite(9.0)));
        let oracle = naive_eval_sparse(&program, &edb, &bools, CAP).unwrap();
        assert_same_db(
            &scenario,
            "after retraction",
            &oracle,
            &mat.output().materialize(),
        );

        // A new b→d shortcut improves the lengthened distance back down.
        edb.get_or_insert("E", 2)
            .merge(vec![k("b"), k("d")], Trop::finite(1.5));
        mat.insert(&[FactInsert::new(
            "E",
            vec![k("b"), k("d")],
            Trop::finite(1.5),
        )])
        .expect("edit applies");
        assert_eq!(mat.get("L", &[k("d")]), Some(&Trop::finite(2.5)));
        let oracle = naive_eval_sparse(&program, &edb, &bools, CAP).unwrap();
        assert_same_db(
            &scenario,
            "after shortcut",
            &oracle,
            &mat.output().materialize(),
        );

        // Reinsert the retracted edge at its old weight: the original
        // optimum is restored exactly.
        edb.get_or_insert("E", 2)
            .merge(vec![k("b"), k("c")], Trop::finite(3.0));
        mat.insert(&[FactInsert::new(
            "E",
            vec![k("b"), k("c")],
            Trop::finite(3.0),
        )])
        .expect("edit applies");
        assert_eq!(mat.get("L", &[k("c")]), Some(&Trop::finite(4.0)));
        let oracle = naive_eval_sparse(&program, &edb, &bools, CAP).unwrap();
        assert_same_db(
            &scenario,
            "after reinsert",
            &oracle,
            &mat.output().materialize(),
        );
    }
}

/// What one schedule must share with another to be its name: the
/// stats label, the step count, the exact counters and every
/// per-iteration `[delta_rows, queue_depth, emits, inserted, improved,
/// absorbed]` row.
fn run_signature(stats: &EvalStats) -> (String, u64, datalog_o::engine::Counters, Vec<[u64; 6]>) {
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

/// [`Strategy::Worklist`] is another name for [`Strategy::SemiNaive`]:
/// from scratch, under `query`, and through a [`Materialization`]
/// driven by `script` one edit at a time, both give the same output and
/// the same [`run_signature`] after every step.
fn assert_worklist_is_seminaive<P>(
    scenario: &str,
    program: &Program<P>,
    pops: &Database<P>,
    query: &Query,
    script: &[Edit<P>],
) where
    P: NaturallyOrdered
        + CompleteDistributiveDioid
        + Absorptive
        + TotallyOrderedDioid
        + Send
        + Sync,
{
    let (bools, opts) = (BoolDatabase::new(), EngineOpts::default());
    let [worklist, semi] = [Strategy::Worklist, Strategy::SemiNaive].map(|strategy| {
        let out =
            engine_eval_interned(program, pops, &bools, CAP, strategy, &opts).expect("compiles");
        (run_signature(out.stats()), out.materialize())
    });
    assert_eq!(worklist, semi, "{scenario}: from scratch");

    let [worklist, semi] = [Strategy::Worklist, Strategy::SemiNaive].map(|strategy| {
        let qa = engine_query_eval_with_opts(program, query, pops, &bools, CAP, strategy, &opts)
            .expect("compiles");
        (run_signature(qa.stats()), qa.support_with_demand())
    });
    assert_eq!(worklist, semi, "{scenario}: under {query:?}");

    let [mut worklist, mut semi] = [Strategy::Worklist, Strategy::SemiNaive].map(|strategy| {
        Materialization::new(program, pops, &bools, CAP, strategy, &opts).expect("builds")
    });
    let snapshot = |mat: &mut Materialization<P>| {
        (run_signature(mat.last_stats()), mat.output().materialize())
    };
    assert_eq!(
        snapshot(&mut worklist),
        snapshot(&mut semi),
        "{scenario}: build"
    );
    for edit in script {
        for mat in [&mut worklist, &mut semi] {
            mat.apply(std::slice::from_ref(edit)).expect("edit applies");
        }
        let (worklist, semi) = (snapshot(&mut worklist), snapshot(&mut semi));
        assert_eq!(worklist, semi, "{scenario}: after {edit:?}");
    }
}

#[test]
fn worklist_is_another_name_for_seminaive() {
    let (program, edb) = ex::sssp_trop("a");
    assert_worklist_is_seminaive(
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
    assert_worklist_is_seminaive("apsp_trop_example_1_1", &program, &edb, &query, &script);

    // The quadratic rule reads its second `T` through `Old`: the rounds'
    // split, not a frontier's.
    let program = ex::quadratic_tc_program::<Trop>();
    let (_, edb) = ex::apsp_trop(&edges);
    assert_worklist_is_seminaive("quadratic tc", &program, &edb, &query, &script);
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
    let mut edb = edb0.clone();
    let mut mat = Materialization::new(&program, &edb, &bools, CAP, Naive, &opts).expect("builds");
    let oracle = naive_eval_sparse(&program, &edb, &bools, CAP).unwrap();
    assert_same_db(
        scenario,
        "initial build",
        &oracle,
        &mat.output().materialize(),
    );

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
    for (i, edit) in script.iter().enumerate() {
        match edit {
            Edit::Insert(f) => edb
                .get_or_insert(&f.pred, 2)
                .merge(f.tuple.clone(), f.value),
            Edit::Delete(f) => edb
                .get_or_insert(&f.pred, 2)
                .set(f.tuple.clone(), NNReal::of(0.0)),
        }
        mat.apply(std::slice::from_ref(edit)).expect("edit applies");
        let oracle = naive_eval_sparse(&program, &edb, &bools, CAP).unwrap();
        let leg = format!("after edit {i}");
        assert_same_db(scenario, &leg, &oracle, &mat.output().materialize());
        let scratch = run(&program, &edb, &bools, CAP, Naive, &opts).unwrap();
        assert_same_db(scenario, &leg, &scratch, &mat.output().materialize());
    }
    // The whole script in one `apply` lands on the same state.
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
    let oracle = naive_eval_sparse(&program, &edited, &bools, CAP).unwrap();
    assert_same_db(
        scenario,
        "after rebuild",
        &oracle,
        &mat.output().materialize(),
    );
    let interner = mat.output().interner();
    for (constant, id) in &known {
        assert_eq!(interner.lookup(constant), Some(*id), "{constant:?} moved");
    }
}

/// Loop parity: a [`Materialization`] build and a from-scratch run
/// under the same schedule are the same loop from the same empty state.
/// They produce the same interned rows in the same order, the same
/// interner, and equal `EvalStats::invariants()`, step count included —
/// up to what names the run: the stats label and the all-zero profile
/// rows of the `@dlt` variant plans only a handle compiles.
fn assert_loop_parity<P: Pops + Send + Sync, S: Schedule<P>>(
    scenario: &str,
    program: &Program<P>,
    pops: &Database<P>,
    bools: &BoolDatabase,
    schedule: S,
) {
    let unnamed = |stats: &EvalStats| {
        let mut inv = stats.invariants();
        inv.strategy.clear();
        inv.rules
            .retain(|r| (r.rule as usize) < program.rules.len());
        inv
    };
    let opts = EngineOpts::default();
    let leg = format!("{scenario}: loop parity");
    let scratch =
        engine_eval_interned(program, pops, bools, CAP, schedule, &opts).expect("compiles");
    assert!(scratch.is_converged(), "{leg}");
    let mut built =
        Materialization::new(program, pops, bools, CAP, schedule, &opts).expect("builds");
    assert_eq!(
        unnamed(scratch.stats()),
        unnamed(built.last_stats()),
        "{leg}: stats"
    );
    let (scratch, built) = (scratch.output(), built.output());
    let (ours, theirs) = (scratch.interner(), built.interner());
    assert_eq!(ours.len(), theirs.len(), "{leg}: minted ids");
    for id in 0..ours.len() as u32 {
        assert_eq!(ours.get(id), theirs.get(id), "{leg}: id {id}");
    }
    for (pred, _) in scratch.predicates() {
        let rows = |out: &datalog_o::InternedOutput<P>| -> Vec<(Vec<u32>, P)> {
            let rel = out.relation(pred).expect("same predicates");
            rel.iter()
                .map(|(_, k, v)| (k.to_vec(), v.clone()))
                .collect()
        };
        assert_eq!(rows(scratch), rows(built), "{leg}: rows of {pred}");
    }
}

/// A wide-key scenario through the full matrix, then from scratch under
/// every engine schedule: each leg's counters, for the caller to say
/// which structure its probes must have read.
fn matrix_probe_counters(
    scenario: &str,
    program: &Program<Trop>,
    edb: &Database<Trop>,
) -> Vec<(&'static str, datalog_o::engine::Counters)> {
    let bools = BoolDatabase::new();
    assert_matrix_all(scenario, program, edb, &bools);
    let opts = EngineOpts::default();
    let mut legs = vec![("naive", run(program, edb, &bools, CAP, Naive, &opts))];
    for (leg, strategy) in [
        ("semi-naive", Strategy::SemiNaive),
        ("worklist", Strategy::Worklist),
        ("priority", Strategy::Priority),
    ] {
        legs.push((leg, run(program, edb, &bools, CAP, strategy, &opts)));
    }
    let legs = legs.iter().map(|(leg, out)| (*leg, out.stats().counters));
    legs.collect()
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
    fn check<S: Schedule<Trop> + std::fmt::Debug>(schedule: S) {
        let scenario = format!("labelled linear closure (arity 3, {schedule:?})");
        let program: Program<Trop> = parse_program(
            "R(X, Y, A) :- E3(X, Y, A) + R(X, Z, A) * E3(Z, Y, A).\n\
             Hop2(X, Y, A) :- E3(X, Z, A) * E3(Z, Y, A).",
        )
        .unwrap();
        let (mut edb, bools) = (labelled_edges(3), BoolDatabase::new());
        let opts = EngineOpts::default();
        let mut mat =
            Materialization::new(&program, &edb, &bools, CAP, schedule, &opts).expect("builds");
        let epoch = |leg: &str, mat: &mut Materialization<Trop, S>, edb: &Database<Trop>| {
            let got = mat.output().materialize();
            let oracle = naive_eval_sparse(&program, edb, &bools, CAP).unwrap();
            assert_same_db(&scenario, leg, &oracle, &got);
            let scratch = run(&program, edb, &bools, CAP, schedule, &opts);
            let s = &scratch.stats().counters;
            assert_eq!(
                (s.merge_join_steps, s.hash_join_steps),
                (s.index_probes, 0),
                "{scenario}/{leg}: from scratch every probe reads a sorted run"
            );
            assert_eq!(scratch.unwrap(), got, "{scenario}/{leg}: from scratch");
            let c = mat.last_stats().counters;
            assert!(c.index_probes > 0, "{scenario}/{leg}: the edit probes");
            assert_eq!(
                c.merge_join_steps + c.hash_join_steps,
                c.index_probes,
                "{scenario}/{leg}"
            );
            c
        };
        let c = epoch("build", &mut mat, &edb);
        assert_eq!(c.hash_join_steps, 0, "{scenario}: the build reads runs");

        // A shortcut under label 0 that improves rows downstream.
        let shortcut = vec![1i64.into(), 4i64.into(), 0i64.into()];
        edb.get_or_insert("E3", 3)
            .merge(shortcut.clone(), Trop::finite(0.5));
        mat.insert(&[FactInsert::new("E3", shortcut, Trop::finite(0.5))])
            .expect("edit applies");
        let c = epoch("after insert", &mut mat, &edb);
        assert!(c.hash_join_steps > 0, "{scenario}: the grown E3 reads hash");

        // The chain's first hop under label 1: its cone must rederive.
        let hop = vec![0i64.into(), 1i64.into(), 1i64.into()];
        edb.get_or_insert("E3", 3).set(hop.clone(), Trop::INF);
        mat.delete(&[FactDelete::new("E3", hop)])
            .expect("edit applies");
        let c = epoch("after delete", &mut mat, &edb);
        assert_eq!(c.merge_join_steps, 0, "{scenario}: no run is left");
    }
    check(Naive);
    check(SemiNaive);
    for strategy in [Strategy::SemiNaive, Strategy::Worklist, Strategy::Priority] {
        check(strategy);
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
        let scenario = format!("dense apsp, {schedule:?}");
        assert_loop_parity(&scenario, &program, &edb, &bools, schedule);
    }
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
    let bools = BoolDatabase::new();
    let grounded = naive_eval_sparse(&program, &pops, &bools, CAP).unwrap();
    let opts = EngineOpts::default();
    let out = run(&program, &pops, &bools, CAP, Strategy::SemiNaive, &opts);
    let s = out.stats().clone();
    assert!(
        s.counters.merge_join_steps > 0,
        "the arity-3 probe side must be arranged"
    );
    assert_eq!(
        s.counters.hash_join_steps, 0,
        "no packed-width probes in this program"
    );
    assert_same_db(
        "planner_auto_arranges_wide",
        "semi-naive",
        &grounded,
        &out.unwrap(),
    );
}

/// What `threads` still does, in one place: it sizes the pool that builds
/// the EDB indexes before the first step, and nothing else — one thread
/// runs the fixpoint under every schedule. The program gives that build
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
        let run_at = |threads| run(program, pops, bools, CAP, schedule, &at(threads));
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
