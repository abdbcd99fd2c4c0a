//! Integration: programs written in the surface syntax, end to end —
//! the way a downstream user would drive the library.

use datalog_o::core::{
    bool_relation, naive_eval, parse_program, BoolDatabase, Database, Program, ProgramParser,
    Relation, UnaryFn, DEFAULT_CAP,
};
use datalog_o::pops::{Bool, LiftedReal, MinNat, NNReal, Three, Trop};
use datalog_o::{engine_eval_interned, EngineOpts, SemiNaive};

fn k(s: &str) -> datalog_o::core::Constant {
    s.into()
}

#[test]
fn same_source_reachability_and_distance() {
    let src = "
        % single-source 'cost' from node s, POPS-generic
        Reach(X) :- 1 | X = s.
        Reach(X) :- Reach(Z) * E(Z, X).
    ";
    let edges = [("s", "a"), ("a", "b"), ("b", "a"), ("c", "d")];

    // 𝔹: reachability.
    let pb: Program<Bool> = parse_program(src).unwrap();
    let mut db = Database::new();
    db.insert(
        "E",
        bool_relation(2, edges.iter().map(|(x, y)| vec![k(x), k(y)])),
    );
    let out = naive_eval(&pb, &db, &BoolDatabase::new(), 1000).unwrap();
    assert_eq!(out.get("Reach").unwrap().support_size(), 3); // s, a, b

    // MinNat: hop counts.
    let pm: Program<MinNat> = parse_program(src).unwrap();
    let mut db = Database::new();
    db.insert(
        "E",
        Relation::from_pairs(
            2,
            edges
                .iter()
                .map(|(x, y)| (vec![k(x), k(y)], MinNat::finite(1))),
        ),
    );
    let out = naive_eval(&pm, &db, &BoolDatabase::new(), 1000).unwrap();
    let r = out.get("Reach").unwrap();
    assert_eq!(r.get(&vec![k("b")]), MinNat(2));
    assert_eq!(r.get(&vec![k("d")]), MinNat::INF);
}

#[test]
fn win_move_in_surface_syntax() {
    let notf = UnaryFn::new("not", |x: &Three| x.not());
    let parser = ProgramParser::<Three>::new().with_func(notf);
    let program = parser.parse("Win(X) :- not(Win(Y)) | E(X, Y).").unwrap();
    let mut bools = BoolDatabase::new();
    bools.insert(
        "E",
        bool_relation(
            2,
            datalog_o::core::examples_lib::fig4_edges()
                .iter()
                .map(|(x, y)| vec![k(x), k(y)]),
        ),
    );
    let out = naive_eval(&program, &Database::<Three>::new(), &bools, 1000).unwrap();
    let win = out.get("Win").unwrap();
    assert_eq!(win.get(&vec![k("c")]), Three::True);
    assert_eq!(win.get(&vec![k("f")]), Three::False);
    assert_eq!(win.get(&vec![k("a")]), Three::Undef);
}

#[test]
fn bill_of_material_in_surface_syntax() {
    let src = "T(X) :- C(X) + T(Y) | E(X, Y).";
    // NOTE: the condition applies per sum-product; write it as the paper
    // does — C(X) unconditioned, T(Y) guarded:
    let src = {
        let _ = src;
        "T(X) :- C(X).\nT(X) :- T(Y) | E(X, Y)."
    };
    let p: Program<LiftedReal> = parse_program(src).unwrap();
    let mut pops = Database::new();
    pops.insert(
        "C",
        Relation::from_pairs(
            1,
            vec![
                (vec![k("c")], datalog_o::pops::lifted::lreal(1.0)),
                (vec![k("d")], datalog_o::pops::lifted::lreal(10.0)),
            ],
        ),
    );
    let mut bools = BoolDatabase::new();
    bools.insert("E", bool_relation(2, vec![vec![k("c"), k("d")]]));
    let out = naive_eval(&p, &pops, &bools, 1000).unwrap();
    assert_eq!(
        out.get("T").unwrap().get(&vec![k("c")]),
        datalog_o::pops::lifted::lreal(11.0)
    );
}

#[test]
fn multiple_rules_same_head_merge() {
    // Two textual rules with the same head behave as one sum-sum-product.
    let src = "
        D(X) :- $5 | X = a.
        D(X) :- $3 | X = a.
    ";
    let p: Program<Trop> = parse_program(src).unwrap();
    let out = naive_eval(&p, &Database::new(), &BoolDatabase::new(), 100).unwrap();
    assert_eq!(out.get("D").unwrap().get(&vec![k("a")]), Trop::finite(3.0));
}

#[test]
fn company_control_threshold_in_surface_syntax() {
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
                (vec![k("a"), k("b")], NNReal::of(0.7)),
                (vec![k("b"), k("c")], NNReal::of(0.8)),
            ],
        ),
    );
    let mut bools = BoolDatabase::new();
    bools.insert(
        "Company",
        bool_relation(1, vec![vec![k("a")], vec![k("b")], vec![k("c")]]),
    );
    let out = naive_eval(&program, &pops, &bools, 1000).unwrap();
    let t = out.get("T").unwrap();
    assert!(
        t.get(&vec![k("a"), k("c")]).get() > 0.5,
        "transitive control"
    );
}

#[test]
fn head_keyed_prefix_in_surface_syntax_via_default_eval() {
    // A key function in the rule *head*, straight from program text,
    // through the engine's semi-naïve schedule — it evaluates every
    // program the parser accepts (no fallback backend). Over Trop⁺
    // each key has one derivation, so ⊗ = + gives prefix sums.
    let src = "
        W(0) :- V(0).
        W(I + 1) :- W(I) * V(I + 1).
    ";
    let p: Program<Trop> = parse_program(src).unwrap();
    let mut pops = Database::new();
    pops.insert(
        "V",
        Relation::from_pairs(
            1,
            (0..5i64).map(|i| {
                (
                    vec![datalog_o::core::Constant::Int(i)],
                    Trop::finite((i + 1) as f64),
                )
            }),
        ),
    );
    let out = engine_eval_interned(
        &p,
        &pops,
        &BoolDatabase::new(),
        DEFAULT_CAP,
        SemiNaive,
        &EngineOpts::default(),
    )
    .expect("compiles")
    .materialize()
    .unwrap();
    let w = out.get("W").unwrap();
    for (i, want) in [1.0, 3.0, 6.0, 10.0, 15.0].iter().enumerate() {
        assert_eq!(
            w.get(&vec![datalog_o::core::Constant::Int(i as i64)]),
            Trop::finite(*want),
            "W({i})"
        );
    }
}

#[test]
fn prefix_sum_in_surface_syntax() {
    let src = "
        W(I) :- V(0) | I = 0.
        W(I) :- W(I - 1) | I != 0 && I < 4.
        W(I) :- V(I)     | I != 0 && I < 4.
    ";
    let p: Program<LiftedReal> = parse_program(src).unwrap();
    let mut pops = Database::new();
    pops.insert(
        "V",
        Relation::from_pairs(
            1,
            (0..4).map(|i| {
                (
                    vec![datalog_o::core::Constant::Int(i)],
                    datalog_o::pops::lifted::lreal((i + 1) as f64),
                )
            }),
        ),
    );
    let out = naive_eval(&p, &pops, &BoolDatabase::new(), 1000).unwrap();
    assert_eq!(
        out.get("W")
            .unwrap()
            .get(&vec![datalog_o::core::Constant::Int(3)]),
        datalog_o::pops::lifted::lreal(10.0) // 1+2+3+4
    );
}
