//! Integration: every numbered example of the paper, end to end through
//! the umbrella crate (parser → grounder → evaluator → POPS).

use datalog_o::core::examples_lib as ex;
use datalog_o::core::{
    ground, ground_sparse, naive_eval, naive_eval_system, naive_eval_trace, parse_program,
    seminaive_eval_system, BoolDatabase, Database, EvalOutcome, GroundAtom, Program, Trace,
};
use datalog_o::fixpoint::{general_bound, naive_lfp, Outcome};
use datalog_o::pops::lifted::lreal;
use datalog_o::pops::{Bool, Four, LiftedReal, Pops, PreSemiring, Three, Trop, TropEta, TropP};
use datalog_o::semilin::{fwk_closure, Matrix};
use datalog_o::wellfounded::{
    fig4_adjacency, fitting_lfp, well_founded, win_move_program, Literal, NegProgram, Wf,
    WinMoveInstance,
};
use dlo_bench::GraphInstance;

fn tup(names: &[&str]) -> Vec<datalog_o::core::Constant> {
    names.iter().map(|n| (*n).into()).collect()
}

/// The Kleene chain ascends, `J(t) ⊑ J(t+1)` pointwise at every step
/// (Sec. 3: a monotone ICO started at `⊥`). Since `F(J(t)) = J(t+1)`,
/// this is also the ICO's monotonicity on the chain.
fn assert_chain_ascends<P: Pops>(trace: &Trace<P>) {
    for (t, w) in trace.iterates.windows(2).enumerate() {
        for ((a, b), atom) in w[0].iter().zip(&w[1]).zip(&trace.atoms) {
            assert!(a.leq(b), "{atom}: J({t}) = {a:?} ⋢ J({}) = {b:?}", t + 1);
        }
    }
}

#[test]
fn example_4_1_kleene_chain_ascends() {
    // SSSP over Trop⁺ from `a`: the naïve iterates of the grounded
    // program form an ascending chain up to the lfp.
    let (prog, edb) = ex::sssp_trop("a");
    let sys = ground(&prog, &edb, &BoolDatabase::new());
    let trace = naive_eval_trace(&sys, 100);
    assert!(trace.converged);
    assert_chain_ascends(&trace);
}

#[test]
fn sec_7_win_move_three_kleene_chain_ascends() {
    // `not` is monotone in the knowledge order, so the grounded win-move
    // program's Kleene chain over THREE ascends in it (Fig. 4).
    let (prog, bools) = ex::win_move_three(&ex::fig4_edges());
    let sys = ground(&prog, &Database::new(), &bools);
    let trace = naive_eval_trace(&sys, 100);
    assert!(trace.converged);
    assert_chain_ascends(&trace);
}

#[test]
fn example_1_1_apsp_shapes() {
    // APSP over Trop+ on Fig. 2(a); spot-check against hand-computed paths.
    let (prog, edb) = ex::apsp_trop(&[
        ("a", "b", 1.0),
        ("b", "a", 2.0),
        ("b", "c", 3.0),
        ("c", "d", 4.0),
        ("a", "c", 5.0),
    ]);
    let out = naive_eval(&prog, &edb, &BoolDatabase::new(), 1000).unwrap();
    let t = out.get("T").unwrap();
    assert_eq!(t.get(&tup(&["a", "d"])), Trop::finite(8.0));
    assert_eq!(t.get(&tup(&["a", "a"])), Trop::finite(3.0)); // a→b→a
    assert_eq!(t.get(&tup(&["d", "a"])), Trop::INF);

    // On a random digraph every pair agrees with Floyd–Warshall and with
    // the matrix closure A·A* (the program sums paths of length ≥ 1, so
    // A⁺, not A*), and semi-naïve reaches naïve's fixpoint (Thm. 6.4).
    let g = GraphInstance::random(7, 16, 9, 99);
    let prog = ex::apsp_program::<Trop>();
    let sys = ground_sparse(&prog, &g.trop_edb(), &BoolDatabase::new());
    let naive = naive_eval_system(&sys, 100_000).unwrap();
    assert_eq!(seminaive_eval_system(&sys, 100_000).0.unwrap(), naive);
    let mut d = vec![vec![f64::INFINITY; g.n]; g.n];
    let mut a = Matrix::<Trop>::zeros(g.n);
    for &(u, v, w) in &g.edges {
        d[u][v] = d[u][v].min(w);
        let merged = Trop::finite(w).add(a.get(u, v));
        a.set(u, v, merged);
    }
    for k in 0..g.n {
        for i in 0..g.n {
            for j in 0..g.n {
                d[i][j] = d[i][j].min(d[i][k] + d[k][j]);
            }
        }
    }
    let aplus = a.mul(&fwk_closure(&a));
    let t = naive.get("T").unwrap();
    for (i, row) in d.iter().enumerate() {
        for (j, &dist) in row.iter().enumerate() {
            assert_eq!(
                t.get(&vec![g.node(i), g.node(j)]).get(),
                dist,
                "T({i}, {j})"
            );
            assert_eq!(aplus.get(i, j).get(), dist, "A⁺({i}, {j})");
        }
    }

    // Over B the same program is transitive closure: the cycle a → b → c
    // → a reaches all of {a, b, c, d} from each of a, b, c.
    let (prog, edb) = ex::linear_tc_bool(&[("a", "b"), ("b", "c"), ("c", "a"), ("c", "d")]);
    let out = naive_eval(&prog, &edb, &BoolDatabase::new(), 1000).unwrap();
    assert_eq!(out.get("T").unwrap().support_size(), 12);
}

#[test]
fn example_4_1_all_four_pops_from_one_source_text() {
    // The same surface text runs over B and Trop+ (ParseValue for both).
    let src = "L(X) :- 1 | X = a.\nL(X) :- L(Z) * E(Z, X).";
    let pb: Program<Bool> = parse_program(src).unwrap();
    let pt: Program<Trop> = parse_program(src).unwrap();
    let out_b = naive_eval(
        &pb,
        &ex::fig2a_graph(|_| Bool(true)),
        &BoolDatabase::new(),
        100,
    )
    .unwrap();
    let out_t = naive_eval(
        &pt,
        &ex::fig2a_graph(Trop::finite),
        &BoolDatabase::new(),
        100,
    )
    .unwrap();
    // Reachability support = finite-distance support.
    let rb: Vec<_> = out_b
        .get("L")
        .unwrap()
        .support()
        .map(|(t, _)| t.clone())
        .collect();
    let rt: Vec<_> = out_t
        .get("L")
        .unwrap()
        .support()
        .map(|(t, _)| t.clone())
        .collect();
    assert_eq!(rb, rt);
    assert_eq!(rb, ["a", "b", "c", "d"].map(|n| tup(&[n])));

    // Trop+: the paper's table. L(0)..L(4), the last one the fixpoint
    // (the paper also prints the confirming row L(5) = L(4)).
    let shortest = [("a", 0.0), ("b", 1.0), ("c", 4.0), ("d", 8.0)];
    let (program, edb) = ex::sssp_trop("a");
    let sys = ground(&program, &edb, &BoolDatabase::new());
    let trace = naive_eval_trace(&sys, 100);
    assert_eq!(trace.iterates.len(), 5);
    let last = trace.iterates.last().unwrap();
    for (n, d) in shortest {
        let ix = sys.index[&GroundAtom::new("L", tup(&[n]))];
        assert_eq!(last[ix], Trop::finite(d), "L({n})");
    }

    // Trop+_1: the two shortest path lengths, the paper's bags.
    let pp: Program<TropP<1>> = ex::single_source_program("a");
    let out_p = naive_eval(
        &pp,
        &ex::fig2a_graph(|w| TropP::<1>::from_costs(&[w])),
        &BoolDatabase::new(),
        100,
    )
    .unwrap();
    let bags = [
        ("a", [0.0, 3.0]),
        ("b", [1.0, 4.0]),
        ("c", [4.0, 5.0]),
        ("d", [8.0, 9.0]),
    ];
    for (n, bag) in bags {
        let got = out_p.get("L").unwrap().get(&tup(&[n]));
        assert_eq!(got, TropP::<1>::from_costs(&bag), "L({n})");
    }

    // Trop+_{≤4}: every path length within 4 of the shortest one.
    type TE = TropEta<4>;
    let pe: Program<TE> = ex::single_source_program("a");
    let edb_e = ex::fig2a_graph(|w| TE::singleton(w as u64));
    let out_e = naive_eval(&pe, &edb_e, &BoolDatabase::new(), 100).unwrap();
    for (n, d) in shortest {
        let set = out_e.get("L").unwrap().get(&tup(&[n]));
        assert_eq!(set.min_cost(), d as u64, "L({n})");
        assert!(set.costs().all(|c| c <= d as u64 + 4), "L({n})");
    }
}

#[test]
fn example_4_2_both_pops() {
    let (prog_n, pops_n, bools_n) = ex::bom_naturals();
    assert!(!naive_eval(&prog_n, &pops_n, &bools_n, 40).is_converged());

    let (prog, pops, bools) = ex::bom_lifted_reals();
    let sys = ground(&prog, &pops, &bools);
    let trace = naive_eval_trace(&sys, 100);
    assert!(trace.converged);
    assert_eq!(trace.iterates.len() - 1, 2);
    // Row T1 of the paper: (⊥, ⊥, ⊥, 10).
    let t1 = &trace.iterates[1];
    let ix = |n: &str| sys.index[&GroundAtom::new("T", tup(&[n]))];
    assert_eq!(t1[ix("a")], LiftedReal::Bot);
    assert_eq!(t1[ix("d")], lreal(10.0));
    // Fixpoint row.
    let tf = trace.iterates.last().unwrap();
    assert_eq!(tf[ix("c")], lreal(11.0));
    assert_eq!(tf[ix("b")], LiftedReal::Bot);
    // The paper's fixpoint: ⊥ on the a ↔ b cycle, T(c) = 11, T(d) = 10.
    let out = naive_eval(&prog, &pops, &bools, 100).unwrap();
    let t = out.get("T").unwrap();
    let fixpoint = [
        ("a", LiftedReal::Bot),
        ("b", LiftedReal::Bot),
        ("c", lreal(11.0)),
        ("d", lreal(10.0)),
    ];
    for (n, v) in fixpoint {
        assert_eq!(t.get(&tup(&[n])), v, "T({n})");
    }
}

#[test]
fn example_4_3_company_control_is_transitive() {
    let (prog, pops, bools) = ex::company_control(
        &["a", "b", "c"],
        &[("a", "b", 0.6), ("b", "c", 0.6), ("a", "c", 0.0)],
    );
    let out = naive_eval(&prog, &pops, &bools, 1000).unwrap();
    let t = out.get("T").unwrap();
    // a controls b directly; through b it holds b's 0.6 of c.
    assert!(t.get(&tup(&["a", "b"])).get() > 0.5);
    assert!(t.get(&tup(&["a", "c"])).get() > 0.5);

    // a owns 60 % of b outright; with b it owns 30 % + 30 % of c; a, b and
    // c together reach only 45 % of d, so nobody controls d.
    let companies = ["a", "b", "c", "d"];
    let shares = [
        ("a", "b", 0.6),
        ("a", "c", 0.3),
        ("b", "c", 0.3),
        ("a", "d", 0.2),
        ("b", "d", 0.2),
        ("c", "d", 0.05),
    ];
    let (prog, pops, bools) = ex::company_control(&companies, &shares);
    let out = naive_eval(&prog, &pops, &bools, 1000).unwrap();
    let t = out.get("T").unwrap();
    let pairs = companies.iter().flat_map(|x| companies.map(|y| (*x, y)));
    let control: Vec<_> = pairs
        .filter(|(x, y)| t.get(&tup(&[x, y])).get() > 0.5)
        .collect();
    assert_eq!(control, [("a", "b"), ("a", "c")]);
}

#[test]
fn sec_4_5_prefix_sum_and_shortest_length() {
    // Prefix sums by a case statement and the body key function i − 1.
    let values = [2.0, 4.0, 1.5, 3.0, 0.5];
    let (prog, edb) = ex::prefix_sum(&values);
    let out = naive_eval(&prog, &edb, &BoolDatabase::new(), 1000).unwrap();
    let w = out.get("W").unwrap();

    // The head-keyed form W(i + 1) :- W(i) * V(i + 1) over Trop+, where
    // ⊗ is + and each key has one derivation: the engine mints the
    // head-computed keys and must reach the grounded fixpoint.
    let (prog, edb) = ex::prefix_sum_keyed::<Trop>(&values, Trop::finite);
    let bools = BoolDatabase::new();
    let opts = datalog_o::EngineOpts::default();
    let engine =
        datalog_o::engine_eval_interned(&prog, &edb, &bools, 1000, datalog_o::SemiNaive, &opts)
            .expect("compiles")
            .materialize()
            .unwrap();
    assert_eq!(engine, naive_eval(&prog, &edb, &bools, 1000).unwrap());
    let keyed = engine.get("W").unwrap();

    let mut sum = 0.0;
    for (i, v) in values.iter().enumerate() {
        sum += v;
        let key = vec![(i as i64).into()];
        assert_eq!(w.get(&key), lreal(sum), "W({i})");
        assert_eq!(keyed.get(&key), Trop::finite(sum), "keyed W({i})");
    }

    // Keys to values: the least length c of Length(x, y, c) becomes the
    // tropical value of ShortestLength(x, y).
    let lengths = [
        ("a", "b", 3),
        ("a", "b", 7),
        ("a", "c", 5),
        ("b", "c", 2),
        ("x", "y", 9),
        ("x", "y", 4),
    ];
    let (prog, edb) = ex::shortest_length(&lengths);
    let out = naive_eval(&prog, &edb, &BoolDatabase::new(), 100).unwrap();
    let shortest = out.get("ShortestLength").unwrap();
    for (x, y, d) in [
        ("a", "b", 3.0),
        ("a", "c", 5.0),
        ("b", "c", 2.0),
        ("x", "y", 4.0),
    ] {
        assert_eq!(shortest.get(&tup(&[x, y])), Trop::finite(d), "({x}, {y})");
    }
}

#[test]
fn sec_7_win_move_through_core_engine() {
    // The datalog° THREE program through the generic engine (with `not` as
    // an interpreted function) matches the dedicated wellfounded crate.
    let edges = ex::fig4_edges();
    let (prog, bools) = ex::win_move_three(&edges);
    let out = naive_eval(
        &prog,
        &datalog_o::core::Database::<Three>::new(),
        &bools,
        100,
    )
    .unwrap();
    let win = out.get("Win").unwrap();
    assert_eq!(win.get(&tup(&["c"])), Three::True);
    assert_eq!(win.get(&tup(&["e"])), Three::True);
    assert_eq!(win.get(&tup(&["d"])), Three::False);
    assert_eq!(win.get(&tup(&["f"])), Three::False);
    // a, b undefined: ⊥ is not stored in the output relation.
    assert_eq!(win.get(&tup(&["a"])), Three::Undef);
    assert_eq!(win.get(&tup(&["b"])), Three::Undef);

    // Same answer as the wellfounded crate's dedicated evaluator.
    let p = win_move_program(&fig4_adjacency());
    let (lfp, trace) = fitting_lfp(&p);
    for n in ["a", "b", "c", "d", "e", "f"] {
        let ix = p.atom_index(&format!("W({n})")).unwrap();
        assert_eq!(win.get(&tup(&[n])), lfp[ix], "node {n}");
    }
    // Sec. 7.2's table: the THREE iteration W(0)..W(4) ends at its lfp.
    assert_eq!(trace.len(), 5);
    // On Fig. 4 the well-founded model, Fitting's THREE lfp and the
    // game's oracle agree.
    let node = |n: &str| usize::from(n.as_bytes()[0] - b'a');
    let fig4 = WinMoveInstance {
        n: 6,
        edges: edges.iter().map(|(u, v)| (node(u), node(v))).collect(),
    };
    fig4.check_equivalence()
        .expect("three semantics agree on Fig. 4");

    // Sec. 7.3: on P(a) :- P(a) they part — THREE leaves P(a) undefined,
    // the well-founded model makes it false.
    let mut q = NegProgram::new();
    let a = q.atom("P(a)");
    q.rule(a, vec![Literal::Pos(a)]);
    assert_eq!(fitting_lfp(&q).0[a], Three::Undef);
    assert_eq!(well_founded(&q).assignment[a], Wf::False);

    // Fitting's Prop. 7.1: iterated over FOUR from ⊥, win-move never
    // derives ⊤, and its lfp is THREE's — on 20 random games.
    for seed in 1..=20u64 {
        let prog = WinMoveInstance::random(7, 12, seed).program();
        let ico = |x: &Vec<Four>| {
            let mut next = vec![Four::False; x.len()];
            for r in &prog.rules {
                let body = r.body.iter().map(|l| match l {
                    Literal::Pos(b) => x[*b],
                    Literal::Neg(b) => x[*b].not(),
                });
                let v = body.fold(Four::True, |v, lit| v.mul(&lit));
                next[r.head] = next[r.head].add(&v);
            }
            next
        };
        let bottom = vec![Four::Undef; prog.num_atoms()];
        let Outcome::Converged { value, .. } = naive_lfp(ico, bottom, 100) else {
            panic!("seed {seed}: FOUR diverged");
        };
        assert!(!value.contains(&Four::Both), "seed {seed}: ⊤ derived");
        let (three, _) = fitting_lfp(&prog);
        let three: Vec<Four> = three.into_iter().map(Four::from_three).collect();
        assert_eq!(value, three, "seed {seed}");
    }
}

#[test]
fn eq_29_one_rule_program_diverges_iff_unstable() {
    // x :- 1 ⊕ c·x over ℕ diverges for c = 2 ...
    use datalog_o::core::ast::{Atom, Factor, SumProduct, Term};
    use datalog_o::pops::Nat;
    let mut p = Program::<Nat>::new();
    p.rule(
        Atom::new("X", vec![Term::c("u")]),
        vec![
            SumProduct::new(vec![]).with_coeff(Nat(1)),
            SumProduct::new(vec![Factor::atom("X", vec![Term::c("u")])]).with_coeff(Nat(2)),
        ],
    );
    assert!(!naive_eval(&p, &Default::default(), &BoolDatabase::new(), 50).is_converged());

    // ... and the same program over Trop+ converges (0-stable).
    let mut pt = Program::<Trop>::new();
    pt.rule(
        Atom::new("X", vec![Term::c("u")]),
        vec![
            SumProduct::new(vec![]).with_coeff(Trop::finite(1.0)),
            SumProduct::new(vec![Factor::atom("X", vec![Term::c("u")])])
                .with_coeff(Trop::finite(2.0)),
        ],
    );
    match naive_eval(&pt, &Default::default(), &BoolDatabase::new(), 50) {
        EvalOutcome::Converged { output, steps, .. } => {
            assert!(steps <= 2);
            assert_eq!(
                output.get("X").unwrap().get(&tup(&["u"])),
                Trop::finite(1.0)
            );
        }
        _ => panic!("must converge over Trop+"),
    }
}

#[test]
fn example_5_5_catalan_coefficients() {
    // f(x) = b ⊕ a·x²: the coefficient of aⁿbⁿ⁺¹ in f⁽ᵠ⁾(0) is the
    // Catalan number Cₙ once q ≥ n + 1 (eq. 33).
    use datalog_o::provenance::{catalan, iterate_coefficients};
    let catalans: [u128; 8] = [1, 1, 2, 5, 14, 42, 132, 429];
    assert_eq!((0..8).map(catalan).collect::<Vec<_>>(), catalans);
    for q in 1..=9 {
        let coefficients = iterate_coefficients(q, 7);
        for n in 0..q.min(8) {
            assert_eq!(coefficients[n], catalans[n], "q={q}, n={n}");
        }
    }
}

#[test]
fn example_5_7_parse_trees_and_lemma_5_6() {
    // x → a x y | b y | c ; y → u x y | v x | w. Fig. 3: the x-rooted
    // trees of depth ≤ 2 yield acw, bw and c, the three monomials of
    // (f⁽²⁾(0))ₓ; Lemma 5.6: the formal iterate is the sum of the yields
    // of the trees of depth ≤ q.
    use datalog_o::provenance::grammar::example_5_7;
    use datalog_o::provenance::{check_lemma_5_6, formal_iterates, trees_upto};
    let (g, _) = example_5_7();
    assert_eq!(trees_upto(&g, 0, 2, 1000).unwrap().len(), 3);
    assert_eq!(formal_iterates(&g.to_formal_system(), 2)[2][0].len(), 3);
    assert_eq!(check_lemma_5_6(&g, 3, 5_000_000), Ok(()));
}

#[test]
fn example_5_15_absorption() {
    // Over the 1-stable Trop+_1 the new monomials of
    // f(x) = a₀ ⊕ a₂x² ⊕ a₃x³ ⊕ a₄x⁴ are absorbed:
    // a₀³a₃ ⊕ a₀⁴a₂a₃ ⊕ a₀⁵a₂²a₃ = a₀³a₃ ⊕ a₀⁴a₂a₃.
    type T1 = TropP<1>;
    let (a0, a2, a3) = (
        T1::from_costs(&[1.0, 3.0]),
        T1::from_costs(&[2.0]),
        T1::from_costs(&[0.5, 4.0]),
    );
    let kept = a0.pow(3).mul(&a3).add(&a0.pow(4).mul(&a2).mul(&a3));
    let absorbed = a0.pow(5).mul(&a2.pow(2)).mul(&a3);
    assert_eq!(kept.add(&absorbed), kept);

    // So the program converges within Thm. 5.12's general bound for its
    // one ground atom, p + 2 steps: f⁽⁴⁾(0) = f⁽³⁾(0) over Trop+_1, and
    // within 4 over Trop+_2.
    fn lfp<const P: usize>(coeffs: [&[f64]; 4]) -> (usize, TropP<P>) {
        use datalog_o::core::ast::{Atom, Factor, SumProduct, Term};
        let [a0, a2, a3, a4] = coeffs.map(TropP::<P>::from_costs);
        let x = || Factor::atom("X", vec![Term::c("u")]);
        let mut p = Program::new();
        p.rule(
            Atom::new("X", vec![Term::c("u")]),
            vec![
                SumProduct::new(vec![]).with_coeff(a0),
                SumProduct::new(vec![x(), x()]).with_coeff(a2),
                SumProduct::new(vec![x(), x(), x()]).with_coeff(a3),
                SumProduct::new(vec![x(), x(), x(), x()]).with_coeff(a4),
            ],
        );
        match naive_eval(&p, &Database::new(), &BoolDatabase::new(), 100) {
            EvalOutcome::Converged { steps, output, .. } => {
                (steps, output.get("X").unwrap().get(&tup(&["u"])))
            }
            _ => panic!("Trop+_{P} is stable (Thm. 5.10)"),
        }
    }
    assert_eq!((general_bound(1, 1), general_bound(2, 1)), (3, 4));
    let (steps, x) = lfp::<1>([&[1.0], &[2.0], &[3.0], &[4.0]]);
    assert!(steps as u128 <= general_bound(1, 1), "{steps} steps");
    assert_eq!(x, T1::from_costs(&[1.0, 4.0]));
    let (steps, _) = lfp::<2>([&[1.0, 5.0], &[2.0], &[3.0, 3.0], &[4.0]]);
    assert!(steps as u128 <= general_bound(2, 1), "{steps} steps");
}
