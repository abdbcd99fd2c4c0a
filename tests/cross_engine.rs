//! Integration: independent computation paths must agree.
//!
//! datalog° engine ↔ affine systems / `LinearLFP` ↔ matrix closures ↔
//! classical graph algorithms ↔ game-theoretic oracles. Disagreement
//! anywhere is a bug in exactly one layer — these tests triangulate.
//! The engine ↔ grounded legs go through the differential oracle
//! (`dlo_bench::oracle`).

use datalog_o::core::{
    ground, ground_sparse, naive_eval, naive_eval_system, BoolDatabase, Database, EvalOutcome,
    Program, Relation,
};
use datalog_o::pops::{Bool, PreSemiring, Trop, TropP};
use datalog_o::semilin::{
    fwk_closure, fwk_solve, linear_lfp, linear_lfp_auto, linear_naive_lfp, AffineSystem, Matrix,
};
use datalog_o::{EngineOpts, SemiNaive};
use dlo_bench::oracle::{self, assert_same_facts, Case};
use dlo_bench::{dijkstra, GraphInstance};

#[test]
fn engine_equals_dijkstra_equals_linear_lfp() {
    for seed in [7u64, 8, 9, 10] {
        let g = GraphInstance::random(15, 45, 9, seed);
        let (prog, edb) = g.sssp();
        let bools = BoolDatabase::new();

        // Path 1: the datalog° engine (sparse grounding + naive).
        let sys = ground_sparse(&prog, &edb, &bools);
        let EvalOutcome::Converged { output, .. } = naive_eval_system(&sys, 100_000) else {
            panic!()
        };

        // Path 2: Algorithm 2 on the grounded affine system.
        let asys = AffineSystem::from_ground_system(&sys).expect("SSSP is linear");
        let alg2 = linear_lfp_auto(&asys);

        // Path 3: Dijkstra.
        let oracle = dijkstra(&g, 0);

        let l = output.get("L").unwrap();
        for (i, want) in oracle.iter().enumerate() {
            let from_engine = l.get(&vec![g.node(i)]).get();
            assert_eq!(from_engine, *want, "engine vs dijkstra, node {i}");
        }
        for (atom, v) in sys.atoms.iter().zip(&alg2) {
            let node: usize = atom.tuple[0].as_int().unwrap() as usize;
            assert_eq!(v.get(), oracle[node], "LinearLFP vs dijkstra, node {node}");
        }
    }
}

#[test]
fn dense_and_sparse_grounding_agree_on_natural_semirings() {
    for seed in [21u64, 22] {
        let g = GraphInstance::random(7, 18, 5, seed);
        let (prog, edb) = g.sssp();
        let bools = BoolDatabase::new();
        let dense = ground(&prog, &edb, &bools);
        let sparse = ground_sparse(&prog, &edb, &bools);
        let d = naive_eval_system(&dense, 100_000).unwrap();
        let s = naive_eval_system(&sparse, 100_000).unwrap();
        assert_eq!(d, s, "seed {seed}");
        // Sparse grounding must be no larger.
        assert!(sparse.num_monomials() <= dense.num_monomials());
    }
}

#[test]
fn boolean_tc_equals_matrix_closure() {
    let g = GraphInstance::random(10, 26, 1, 33);
    // Engine path (linear TC program, sparse).
    let prog = datalog_o::core::examples_lib::apsp_program::<Bool>();
    let edb = g.bool_edb();
    let sys = ground_sparse(&prog, &edb, &BoolDatabase::new());
    let out = naive_eval_system(&sys, 100_000).unwrap();
    let t = out.get("T");

    // Matrix path: A⁺ = A·A*.
    let mut a = Matrix::<Bool>::zeros(g.n);
    for &(u, v, _) in &g.edges {
        a.set(u, v, Bool(true));
    }
    let aplus = a.mul(&fwk_closure(&a));
    for i in 0..g.n {
        for j in 0..g.n {
            let engine = t
                .map(|r| !r.get(&vec![g.node(i), g.node(j)]).is_zero())
                .unwrap_or(false);
            assert_eq!(engine, aplus.get(i, j).0, "({i}, {j})");
        }
    }
}

#[test]
fn linear_lfp_equals_naive_on_trop_p_random_systems() {
    const P: usize = 2;
    let mut seed = 0x77777777u64;
    let mut rng = move || {
        seed ^= seed << 13;
        seed ^= seed >> 7;
        seed ^= seed << 17;
        seed
    };
    for n in [3usize, 6, 10] {
        let a = Matrix::<TropP<P>>::from_fn(n, |_, _| {
            if rng() % 3 == 0 {
                TropP::<P>::from_costs(&[(rng() % 9) as f64, (rng() % 9) as f64])
            } else {
                TropP::<P>::zero()
            }
        });
        let b: Vec<TropP<P>> = (0..n)
            .map(|_| {
                if rng() % 2 == 0 {
                    TropP::<P>::from_costs(&[(rng() % 5) as f64])
                } else {
                    TropP::<P>::zero()
                }
            })
            .collect();
        let (naive, _) = linear_naive_lfp(&a, &b, 1_000_000).unwrap();
        assert_eq!(fwk_solve(&a, &b), naive, "FWK n={n}");
        // Via the affine system too.
        let fns = (0..n)
            .map(|i| {
                let mut f = datalog_o::semilin::AffineFn::new();
                for j in 0..n {
                    if !a.get(i, j).is_zero() {
                        f.add_term(j, a.get(i, j).clone());
                    }
                }
                if !b[i].is_zero() {
                    f.add_const(b[i].clone());
                }
                f
            })
            .collect();
        let sys = AffineSystem { fns };
        assert_eq!(linear_lfp(&sys, P), naive, "Alg2 n={n}");
    }
    // Lemma 5.20's cycle from one source: the naïve iteration takes its
    // whole index (p+1)N − 1, plus the confirming step.
    for n in [8usize, 16] {
        let a = datalog_o::semilin::trop_p_cycle::<P>(n);
        let mut b = vec![TropP::<P>::zero(); n];
        b[0] = TropP::<P>::one();
        let (naive, steps) = linear_naive_lfp(&a, &b, 1_000_000).unwrap();
        assert_eq!((steps, &naive), ((P + 1) * n, &fwk_solve(&a, &b)), "n={n}");
    }
}

#[test]
fn winmove_three_way_on_larger_random_graphs() {
    for seed in 50..60u64 {
        let inst = datalog_o::wellfounded::WinMoveInstance::random(25, 70, seed);
        inst.check_equivalence()
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
    }
}

#[test]
fn engine_matches_grounded_on_sssp_example_4_1() {
    // Example 4.1: SSSP over Trop⁺ on the Fig. 2(a) graph.
    let (program, edb) = datalog_o::core::examples_lib::sssp_trop("a");
    // The paper's answers, which the oracle holds every loop to.
    let lfp = Case::new("sssp", &program, &edb).check().lfp;
    let l = lfp.get("L").unwrap();
    assert_eq!(l.get(&vec!["a".into()]), Trop::finite(0.0));
    assert_eq!(l.get(&vec!["b".into()]), Trop::finite(1.0));
    assert_eq!(l.get(&vec!["c".into()]), Trop::finite(4.0));
    assert_eq!(l.get(&vec!["d".into()]), Trop::finite(8.0));
}

#[test]
fn engine_matches_grounded_on_bom_example_4_2() {
    // Example 4.2 (bill of material) on the Fig. 2(b) subpart graph,
    // over MinNat (a complete distributive dioid, so every backend runs).
    use datalog_o::pops::MinNat;
    let program: Program<MinNat> = datalog_o::core::examples_lib::bom_program();
    let mut pops = Database::new();
    pops.insert(
        "C",
        Relation::from_pairs(
            1,
            vec![
                (vec!["a".into()], MinNat::finite(1)),
                (vec!["b".into()], MinNat::finite(1)),
                (vec!["c".into()], MinNat::finite(1)),
                (vec!["d".into()], MinNat::finite(10)),
            ],
        ),
    );
    let bools = datalog_o::core::examples_lib::fig2b_bool_edges();
    Case::new("bom", &program, &pops).bools(&bools).check();
}

#[test]
fn engine_matches_grounded_on_company_control_example_4_3() {
    // Example 4.3 over ℝ₊ with the monotone threshold wrapped around the
    // IDB factor. ℝ₊ is naturally ordered but not a dioid (⊕ = +), so
    // the semi-naïve backends are out; the naive paths — sparse and
    // dense grounding, the engine — must still agree.
    // Share weights are dyadic so float sums are exact under any
    // association order.
    let (program, pops, bools) = datalog_o::core::examples_lib::company_control(
        &["a", "b", "c", "d"],
        &[
            ("a", "b", 0.75),
            ("b", "c", 0.375),
            ("a", "c", 0.25),
            ("c", "d", 0.625),
            ("b", "d", 0.25),
        ],
    );
    let case = Case::new("company control", &program, &pops).bools(&bools);
    let lfp = case.check_naive().lfp;
    let dense = naive_eval(&program, &pops, &bools, 100_000).unwrap();
    assert_same_facts("dense grounding", &lfp, &dense);
    // a controls d transitively: T(a, d) must accumulate past 0.5.
    let t = lfp.get("T").unwrap();
    assert!(t.get(&vec!["a".into(), "d".into()]).0.get() > 0.5);
}

#[test]
fn engine_matches_grounded_on_tc_random_graphs() {
    for seed in [71u64, 72, 73] {
        let g = GraphInstance::random(12, 30, 9, seed);
        // Trop: linear APSP and the quadratic TC rule.
        let apsp = datalog_o::core::examples_lib::apsp_program::<Trop>();
        Case::new("apsp", &apsp, &g.trop_edb()).check();
        let quad = datalog_o::core::examples_lib::quadratic_tc_program::<Trop>();
        Case::new("quadratic", &quad, &g.trop_edb()).check();
        // Bool: plain transitive closure.
        let tc = datalog_o::core::examples_lib::apsp_program::<Bool>();
        Case::new("tc", &tc, &g.bool_edb()).check();
    }
}

#[test]
fn engine_seminaive_agrees_with_grounded_seminaive_step_counts() {
    for seed in [81u64, 82] {
        let g = GraphInstance::random(10, 24, 5, seed);
        let (prog, edb) = g.sssp();
        // The oracle holds the semi-naive loop to the grounded
        // semi-naive fixpoint and step count.
        Case::new(format!("sssp seed {seed}"), &prog, &edb).check();
    }
}

/// Win-move (Sec. 7) through the engine: each alternating-fixpoint step
/// of Van Gelder's construction is the positive datalog° program
/// `W(X) :- { 1 | E(X, Y) ∧ ¬PrevW(Y) }` over 𝔹, with the previous
/// iterate frozen into the Boolean EDB `PrevW`. The three-valued model
/// read off the even/odd limits must match the wellfounded crate's
/// solvers (alternating, Fitting/THREE) and the game-theoretic oracle.
#[test]
fn engine_powered_win_move_matches_three_and_oracle() {
    use datalog_o::core::ast::{Atom, SumProduct, Term};
    use datalog_o::core::bool_relation;
    use datalog_o::core::formula::Formula;
    use datalog_o::wellfounded::{Wf, WinMoveInstance};

    let mut program = Program::<Bool>::new();
    program.rule(
        Atom::new("W", vec![Term::v(0)]),
        vec![SumProduct::new(vec![]).with_condition(
            Formula::atom("E", vec![Term::v(0), Term::v(1)])
                .and(Formula::atom("PrevW", vec![Term::v(1)]).negate()),
        )],
    );

    for seed in [90u64, 91, 92, 93, 94] {
        let inst = WinMoveInstance::random(12, 26, seed);
        let reference = inst
            .check_equivalence()
            .unwrap_or_else(|e| panic!("seed {seed}: reference solvers disagree: {e}"));

        // Alternating fixpoint with the engine as the step evaluator.
        let step = |prev: &Vec<bool>| -> Vec<bool> {
            let mut bools = BoolDatabase::new();
            bools.insert(
                "E",
                bool_relation(
                    2,
                    inst.edges
                        .iter()
                        .map(|&(u, v)| vec![(u as i64).into(), (v as i64).into()]),
                ),
            );
            bools.insert(
                "PrevW",
                bool_relation(
                    1,
                    prev.iter()
                        .enumerate()
                        .filter(|(_, &w)| w)
                        .map(|(i, _)| vec![(i as i64).into()]),
                ),
            );
            let opts = EngineOpts::default();
            let edb = Database::<Bool>::new();
            let out = oracle::scratch(&program, &edb, &bools, 1000, SemiNaive, &opts)
                .materialize()
                .converged()
                .expect("one alternating step converges")
                .0;
            let w = out.get("W");
            (0..inst.n)
                .map(|i| {
                    w.map(|r| !r.get(&vec![(i as i64).into()]).is_zero())
                        .unwrap_or(false)
                })
                .collect()
        };
        let mut trace: Vec<Vec<bool>> = vec![vec![false; inst.n]];
        loop {
            let next = step(trace.last().unwrap());
            trace.push(next);
            let t = trace.len() - 1;
            if t >= 3 && trace[t] == trace[t - 2] && trace[t - 1] == trace[t - 3] {
                break;
            }
            if t >= 2 && trace[t] == trace[t - 1] && trace[t] == trace[t - 2] {
                break;
            }
        }
        let t = trace.len() - 1;
        let (l, g) = if t.is_multiple_of(2) {
            (&trace[t], &trace[t - 1])
        } else {
            (&trace[t - 1], &trace[t])
        };
        for i in 0..inst.n {
            let engine_wf = if l[i] {
                Wf::True
            } else if !g[i] {
                Wf::False
            } else {
                Wf::Undef
            };
            assert_eq!(
                engine_wf, reference[i],
                "seed {seed}, node {i}: engine-powered alternating fixpoint \
                 disagrees with the reference solvers"
            );
        }
    }
}

#[test]
fn trop_engine_agrees_with_trop_matrix_on_apsp() {
    let g = GraphInstance::random(9, 24, 9, 44);
    let prog = datalog_o::core::examples_lib::apsp_program::<Trop>();
    let edb = g.trop_edb();
    let sys = ground_sparse(&prog, &edb, &BoolDatabase::new());
    let out = naive_eval_system(&sys, 100_000).unwrap();
    let t = out.get("T").unwrap();

    let mut a = Matrix::<Trop>::zeros(g.n);
    for &(u, v, w) in &g.edges {
        let merged = Trop::finite(w).add(a.get(u, v));
        a.set(u, v, merged);
    }
    let aplus = a.mul(&fwk_closure(&a));
    for i in 0..g.n {
        for j in 0..g.n {
            assert_eq!(
                t.get(&vec![g.node(i), g.node(j)]),
                *aplus.get(i, j),
                "({i}, {j})"
            );
        }
    }
}
