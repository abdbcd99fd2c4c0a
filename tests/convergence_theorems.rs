//! Integration: the convergence theory of Sec. 3/5 exercised across
//! crates — measured stability indexes against every bound of
//! Theorem 1.2 / 5.12 and Lemma 5.20 on randomized workloads.

use datalog_o::core::{
    ground_sparse, naive_eval_system, BoolDatabase, Database, EvalOutcome, Relation,
};
use datalog_o::fixpoint::{general_bound, linear_bound, trop_p_matrix_bound, zero_stable_bound};
use datalog_o::pops::{stability, Bool, MaxPlus, Trop, TropEta, TropP};
use datalog_o::semilin::{matrix_stability_index, trop_p_cycle, Matrix};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_graph(rng: &mut StdRng, n: usize, m: usize) -> Vec<(usize, usize, f64)> {
    let mut edges = vec![];
    for _ in 0..m {
        let u = rng.gen_range(0..n);
        let v = rng.gen_range(0..n);
        if u != v {
            edges.push((u, v, rng.gen_range(1..10) as f64));
        }
    }
    edges
}

fn trop_p_edb<const P: usize>(edges: &[(usize, usize, f64)]) -> Database<TropP<P>> {
    let mut db = Database::new();
    db.insert(
        "E",
        Relation::from_pairs(
            2,
            edges.iter().map(|&(u, v, w)| {
                (
                    vec![(u as i64).into(), (v as i64).into()],
                    TropP::<P>::from_costs(&[w]),
                )
            }),
        ),
    );
    db
}

/// Theorem 1.2, linear bound: random linear programs over Trop+_p converge
/// within Σ (p+1)^i.
#[test]
fn linear_programs_respect_linear_bound() {
    const P: usize = 2;
    let mut rng = StdRng::seed_from_u64(0xfeed);
    for trial in 0..10 {
        let n = rng.gen_range(3..7);
        let edges = random_graph(&mut rng, n, 2 * n);
        let prog = dlo_bench::single_source_int_program::<TropP<P>>(0);
        let sys = ground_sparse(&prog, &trop_p_edb::<P>(&edges), &BoolDatabase::new());
        match naive_eval_system(&sys, 1_000_000) {
            EvalOutcome::Converged { steps, .. } => {
                assert!(
                    (steps as u128) <= linear_bound(P, sys.num_vars()),
                    "trial {trial}: steps {steps} > bound"
                );
                // Linear programs also respect the matrix bound (p+1)N-1 + 1.
                assert!(
                    (steps as u128) <= trop_p_matrix_bound(P, sys.num_vars()) + 1,
                    "trial {trial}"
                );
            }
            _ => panic!("stable semiring must converge (Thm 5.10)"),
        }
    }
}

/// Theorem 1.2, general bound: quadratic programs over Trop+_p.
#[test]
fn quadratic_programs_respect_general_bound() {
    const P: usize = 1;
    let mut rng = StdRng::seed_from_u64(0xbead);
    for _ in 0..6 {
        let n = rng.gen_range(3..5);
        let edges = random_graph(&mut rng, n, 2 * n);
        let prog = datalog_o::core::examples_lib::quadratic_tc_program::<TropP<P>>();
        let sys = ground_sparse(&prog, &trop_p_edb::<P>(&edges), &BoolDatabase::new());
        match naive_eval_system(&sys, 1_000_000) {
            EvalOutcome::Converged { steps, .. } => {
                assert!((steps as u128) <= general_bound(P, sys.num_vars()));
            }
            _ => panic!("must converge"),
        }
    }
}

/// Corollary 5.19: 0-stable POPS converge within N steps (B and Trop+).
#[test]
fn zero_stable_converges_within_n() {
    let mut rng = StdRng::seed_from_u64(0xabc);
    for _ in 0..10 {
        let n = rng.gen_range(4..12);
        let edges = random_graph(&mut rng, n, 3 * n);
        // Trop+ SSSP.
        let prog = dlo_bench::single_source_int_program::<Trop>(0);
        let mut edb = Database::new();
        edb.insert(
            "E",
            Relation::from_pairs(
                2,
                edges.iter().map(|&(u, v, w)| {
                    (vec![(u as i64).into(), (v as i64).into()], Trop::finite(w))
                }),
            ),
        );
        let sys = ground_sparse(&prog, &edb, &BoolDatabase::new());
        let EvalOutcome::Converged { steps, .. } = naive_eval_system(&sys, 100_000) else {
            panic!("0-stable must converge");
        };
        assert!((steps as u128) <= zero_stable_bound(sys.num_vars()));

        // Boolean quadratic TC.
        let progb = datalog_o::core::examples_lib::quadratic_tc_program::<Bool>();
        let mut edbb = Database::new();
        edbb.insert(
            "E",
            Relation::from_pairs(
                2,
                edges
                    .iter()
                    .map(|&(u, v, _)| (vec![(u as i64).into(), (v as i64).into()], Bool(true))),
            ),
        );
        let sysb = ground_sparse(&progb, &edbb, &BoolDatabase::new());
        let EvalOutcome::Converged { steps, .. } = naive_eval_system(&sysb, 100_000) else {
            panic!("B must converge");
        };
        assert!((steps as u128) <= zero_stable_bound(sysb.num_vars()));
    }
}

/// Corollary 5.19 as the priority frontier uses it: over a 0-stable,
/// totally ordered dioid every fact is popped settled, so Example 4.1
/// SSSP on the gradient graph is exactly `n` buckets, `2n − 2`
/// emissions and `n` index probes — and the loop around them must stay
/// linear too. Eight times the buckets may cost at most 20 times the
/// evaluation time (linear is 8; a loop that touches every pending
/// bucket per batch is 64). Timed in release builds only: debug builds
/// re-derive the queue depth by walking it on every batch.
#[cfg(not(debug_assertions))]
#[test]
fn priority_frontier_is_linear_in_settled_pops() {
    use datalog_o::{engine_eval_interned, EngineOpts, Strategy};
    let eval_ns = |n: usize| -> u64 {
        let (program, edb) = dlo_bench::GraphInstance::gradient(n).sssp();
        let runs = (0..3).map(|_| {
            let out = engine_eval_interned(
                &program,
                &edb,
                &BoolDatabase::new(),
                100_000,
                Strategy::Priority,
                &EngineOpts::default(),
            )
            .expect("compiles");
            assert!(out.is_converged());
            let stats = out.stats();
            assert_eq!(stats.steps as usize, n, "one bucket per node");
            assert_eq!(stats.counters.emits as usize, 2 * n - 2);
            assert_eq!(stats.counters.index_probes as usize, n);
            stats.phases.eval
        });
        runs.min().expect("three runs")
    };
    let (small, large) = (eval_ns(2_000), eval_ns(16_000));
    assert!(
        large < 20 * small,
        "8x the buckets took {:.1}x the time ({small} ns -> {large} ns)",
        large as f64 / small as f64
    );
}

/// Cor. 5.19 has to survive on a live handle too: building a
/// `Materialization` under the priority order, inserting the shortcut
/// `0 → n/2` and deleting it again on the gradient graph is a bounded
/// number of passes over n settled facts — the build is the
/// from-scratch frontier run, the insert improves n/2 rows once each,
/// the delete marks n/2 rows and re-derives them once each — so the
/// three together must scale like n: 8 000 nodes in under 8× the time
/// of 2 000 (linear is 4×; measured 4.2–5.5×, the from-scratch run
/// itself reading ≈ 5× over this range as its working set outgrows the
/// caches), the two sizes taking turns, min of 3. A `resume` that runs
/// the semi-naïve rounds instead pays Θ(n) rounds of Θ(n) improvements
/// for the build alone (≈ 5× per doubling, 27× over this range): if
/// this trips, some maintenance path is running global rounds. The
/// exact counts
/// behind it are `maintenance_on_the_gradient_graph_is_linear_in_counts`
/// in `tests/incremental.rs`, which also runs in debug builds.
#[cfg(not(debug_assertions))]
#[test]
fn maintenance_is_linear_on_the_gradient_graph() {
    use datalog_o::core::Edit;
    use datalog_o::{EngineOpts, Materialization, Strategy};
    use std::time::Instant;
    let cycle_ns = |n: usize| -> u64 {
        let graph = dlo_bench::GraphInstance::gradient(n);
        let (program, edb) = graph.sssp();
        let shortcut = vec![graph.node(0), graph.node(n / 2)];
        let t = Instant::now();
        let mut mat = Materialization::new(
            &program,
            &edb,
            &BoolDatabase::new(),
            100_000,
            Strategy::Auto,
            &EngineOpts::default(),
        )
        .expect("compiles");
        mat.apply(&[
            Edit::insert("E", shortcut.clone(), Trop::finite(0.5)),
            Edit::delete("E", shortcut),
        ])
        .expect("edits apply");
        let ns = t.elapsed().as_nanos() as u64;
        assert_eq!(mat.support_size("L"), n);
        ns
    };
    let (mut small, mut large) = (u64::MAX, u64::MAX);
    for _ in 0..3 {
        small = small.min(cycle_ns(2_000));
        large = large.min(cycle_ns(8_000));
    }
    assert!(
        large < 8 * small,
        "4x the nodes took {:.1}x the time ({small} ns -> {large} ns)",
        large as f64 / small as f64
    );
}

/// A delete pays for what it can change, not for the relation: on a
/// random digraph of 300 nodes and 1 200 edges (weights 1–9; all-pairs
/// closure `T` of ≈ 87 000 rows, strongly connected but for a few
/// nodes) a fresh edge of weight 0.5 improves one to five percent of
/// `T`, and inserting it and deleting it again on a handle under
/// `Strategy::Auto` must take under 0.3× the build — min of 3 each, one
/// host, so host speed cancels. Measured 0.08–0.10: the delete marks
/// the rows whose stored value a path over the edge attains, zeroes
/// them in place and re-derives them through head-guarded plans. With
/// the syntactic cone — every row a path over the edge *reaches*, which
/// on a strongly connected graph is all of them — the same cycle read
/// 2.4: all but one row of `T` marked and dropped, the relation
/// rebuilt, and one from-scratch frontier run to refill it. If this
/// trips, `Materialization::delete_run` is marking without looking at
/// values, or re-deriving with the full seed plans, or rebuilding `T`
/// to take rows out. The exact counts behind it are
/// `a_delete_scans_its_cone_not_the_relation` and
/// `insert_then_delete_repeats_exactly_and_moves_no_row` in
/// `tests/incremental.rs`, which also run in debug builds.
#[cfg(not(debug_assertions))]
#[test]
fn delete_costs_its_cone_not_the_relation() {
    use datalog_o::core::{examples_lib::apsp_program, Edit};
    use datalog_o::{EngineOpts, Materialization, Strategy};
    use std::time::Instant;
    let graph = dlo_bench::GraphInstance::random(300, 1200, 9, 1);
    let (program, edb) = (apsp_program::<Trop>(), graph.trop_edb());
    let fresh = (0..300)
        .map(|v| (7, v))
        .find(|&(u, v)| u != v && !graph.edges.iter().any(|e| (e.0, e.1) == (u, v)))
        .expect("node 7 has fewer than 299 out-edges");
    let edge = vec![graph.node(fresh.0), graph.node(fresh.1)];
    let (mut build, mut cycle) = (u64::MAX, u64::MAX);
    for _ in 0..3 {
        let t = Instant::now();
        let mut mat = Materialization::new(
            &program,
            &edb,
            &BoolDatabase::new(),
            100_000,
            Strategy::Auto,
            &EngineOpts::default(),
        )
        .expect("compiles");
        build = build.min(t.elapsed().as_nanos() as u64);
        let rows = mat.support_size("T");
        let t = Instant::now();
        mat.apply(&[
            Edit::insert("E", edge.clone(), Trop::finite(0.5)),
            Edit::delete("E", edge.clone()),
        ])
        .expect("edits apply");
        cycle = cycle.min(t.elapsed().as_nanos() as u64);
        let cone = mat.last_stats().counters.cone_rows;
        assert!(cone > 0 && mat.support_size("T") == rows, "cone {cone}");
    }
    assert!(
        (cycle as f64) < 0.3 * build as f64,
        "insert + delete took {:.2}x the build ({cycle} ns vs {build} ns)",
        cycle as f64 / build as f64
    );
}

/// Before step 0 every schedule pays one O(|input|) load of the classic
/// EDB into interned columns, and it must stay one cheap pass: 200 000
/// arity-4 rows over 124 distinct constants (strings and integers
/// mixed) through a one-rule copy program, `phases.setup` held to
/// `LOAD_OVER_WALK` times the cost of walking the same relation once and
/// cloning every tuple — a ratio of two O(rows) passes over one
/// structure on one host, min of 3 each, so host speed cancels.
/// Measured on a 2-core shared host (release, three invocations each):
/// 1.36 / 1.41 / 1.49 with the one-pass loader (≈ 32 ms against a
/// ≈ 22 ms walk; 1.10 / 1.16 / 1.57 once it read each batch of tuples
/// ahead of interning it); 6.25 / 6.93 / 7.23 with the loader it replaced (every
/// constant interned and then looked up again through SipHash, and a
/// boxed key hashed into a full-key row map per row, ≈ 143 ms). The
/// threshold sits midway between the two on a log scale,
/// √(1.42 · 6.8) ≈ 3.
#[cfg(not(debug_assertions))]
#[test]
fn edb_load_is_one_cheap_pass() {
    use datalog_o::{engine_eval_interned, EngineOpts, Strategy};
    use std::hint::black_box;
    use std::time::Instant;
    const ROWS: i64 = 200_000;
    const LOAD_OVER_WALK: f64 = 3.0;
    let program = datalog_o::core::parse_program::<Trop>("Copy(A, B, C, D) :- F(A, B, C, D).")
        .expect("parses");
    let mut edb = Database::new();
    edb.insert(
        "F",
        Relation::from_pairs(
            4,
            (0..ROWS).map(|r| {
                let row = vec![
                    (r % 40).into(),
                    format!("b{}", r / 40 % 40).as_str().into(),
                    (1000 + r / 1600 % 40).into(),
                    format!("d{}", r / 64_000).as_str().into(),
                ];
                (row, Trop::finite(r as f64))
            }),
        ),
    );
    let setup_ns = (0..3).map(|_| {
        let out = engine_eval_interned(
            &program,
            &edb,
            &BoolDatabase::new(),
            10,
            Strategy::SemiNaive,
            &EngineOpts::default(),
        )
        .expect("compiles");
        assert_eq!(out.output().support_size("Copy"), ROWS as usize);
        assert_eq!(out.output().interner().len(), 124);
        out.stats().phases.setup
    });
    let setup_ns = setup_ns.min().expect("three runs");
    let walk_ns = (0..3).map(|_| {
        let t = Instant::now();
        for (tuple, v) in edb.get("F").expect("inserted").support() {
            black_box((tuple.clone(), *v));
        }
        t.elapsed().as_nanos() as u64
    });
    let walk_ns = walk_ns.min().expect("three walks");
    assert!(
        (setup_ns as f64) < LOAD_OVER_WALK * walk_ns as f64,
        "loading {ROWS} rows took {:.2}x one cloning walk ({setup_ns} ns vs {walk_ns} ns)",
        setup_ns as f64 / walk_ns as f64
    );
}

/// A bulk EDB wider than a packed key is probed through one sorted run
/// (`dlo_engine::arrange`), and building that run must stay cheaper than
/// loading the rows it orders: `wide-lookup`'s shape — 300 000 arity-4
/// rows whose `(A, B, C)` is a key, over integers below 134, probed
/// through masks `0b0111` and `0b1111`, which share one run — with
/// `phases.arrange` held under `ARRANGE_OVER_SETUP` times `phases.setup`
/// of the same run, min of 3, so host speed cancels. Measured on a
/// 2-core shared host (release, this test's body run for both kernels
/// in one process, alternating, eighteen readings each): 0.15–0.27,
/// median 0.20, when one counting pass partitions the rows by their
/// leading column and each partition is finished in cache; 0.38–0.59,
/// median 0.46, when every counting pass ran over the whole relation
/// (0.77–1.14 with the comparison sort before those). The threshold,
/// 0.35, lies between the new kernel's worst reading and the old one's
/// best, with the wider margin on the new kernel's side, where a false
/// trip would fall. If it trips, look at
/// `arrange::radix_order`: a partition pass that reads rows out of load
/// order (the `F` rows sharing an `A` are one range of row ids, so its
/// partitions should be moved as ranges), a digit wider than its
/// partition needs, or `arrange::partitions_first` no longer choosing
/// to partition this shape.
#[cfg(not(debug_assertions))]
#[test]
fn sorted_run_costs_less_than_its_load() {
    use datalog_o::core::Constant;
    use datalog_o::{engine_eval_interned, EngineOpts, Strategy};
    const ROWS: u64 = 300_000;
    const DOMAIN: u64 = 134;
    const ARRANGE_OVER_SETUP: f64 = 0.35;
    let program = datalog_o::core::parse_program::<Trop>(
        "Out1(A, D) :- S(A, B, C) * F(A, B, C, D).\n\
         Out2(A) :- S4(A, B, C, D) * F(A, B, C, D).",
    )
    .expect("parses");
    // Row r's key is r · 1 000 003 mod 134³, distinct for every r: the
    // multiplier is prime to 134.
    let row = |r: u64| {
        let k = r * 1_000_003 % DOMAIN.pow(3);
        let cols = [k / DOMAIN / DOMAIN, k / DOMAIN % DOMAIN, k % DOMAIN];
        [cols[0], cols[1], cols[2], r * 7_919 % DOMAIN].map(|c| Constant::from(c as i64))
    };
    let one = Trop::finite(1.0);
    let mut edb = Database::new();
    let f = (0..ROWS).map(|r| (row(r).to_vec(), Trop::finite((1 + r % 9) as f64)));
    edb.insert("F", Relation::from_pairs(4, f));
    let s = (0..2_000).map(|r| (row(r)[..3].to_vec(), one));
    edb.insert("S", Relation::from_pairs(3, s));
    let s4 = (0..ROWS).step_by(150).map(|r| (row(r).to_vec(), one));
    edb.insert("S4", Relation::from_pairs(4, s4));
    let ratio = (0..3)
        .map(|_| {
            let out = engine_eval_interned(
                &program,
                &edb,
                &BoolDatabase::new(),
                10,
                Strategy::Auto,
                &EngineOpts::default(),
            )
            .expect("compiles");
            assert!(out.output().support_size("Out1") > 0);
            let phases = &out.stats().phases;
            assert!(phases.arrange > 0, "F is probed through a sorted run");
            phases.arrange as f64 / phases.setup as f64
        })
        .fold(f64::INFINITY, f64::min);
    assert!(
        ratio < ARRANGE_OVER_SETUP,
        "sorting {ROWS} rows took {ratio:.2}x loading them"
    );
}

/// The step bounds become time bounds by charging O(1) per ground-rule
/// instance, i.e. per `⊕`-merge into the head relation, and that charge
/// must not depend on which *column* of the key varies: 3 passes of
/// n² = 250 000 merges in a fixed scrambled order through
/// `ColumnRel::merge_changed`, once keyed by the pair `[a, b]` (packed
/// with column 0 in the high half of a `u64`) and once by the single id
/// `[a·n + b]` — the same cells, the same values, the same order, min of
/// 3 each, so host speed cancels. Measured on a 2-core shared host
/// (release): pair/single 1.0–1.1 with a hasher whose `finish` folds the
/// high half of the product into the low bits; 2.0–3.2 with the bare
/// multiply it replaced, under which the table's probe start depended on
/// column 1 alone and the 250 000 rows shared 500 of them. The threshold
/// sits between the two on a log scale, √(1.05 · 2.6) ≈ 1.6. If it
/// trips, some packed map's bucket index stopped seeing column 0 —
/// `hash.rs::FxHasher::finish` or `storage.rs::pack` changed; the unit
/// test `bucket_index_and_tag_see_every_column` names the key shape.
#[cfg(not(debug_assertions))]
#[test]
fn merge_cost_is_independent_of_key_shape() {
    use datalog_o::engine::ColumnRel;
    use std::hint::black_box;
    use std::time::Instant;
    const N: u64 = 500;
    const PAIR_OVER_SINGLE: f64 = 1.6;
    fn merge_ns<const W: usize>(keys: &[[u32; W]]) -> u64 {
        let mut rel = ColumnRel::<Trop>::new(W);
        let t = Instant::now();
        // Pass 0 inserts every row, pass 1 improves it, pass 2 is
        // absorbed — the three outcomes a fixpoint's merges have.
        for value in [2.0, 1.0, 1.0] {
            for key in keys {
                black_box(rel.merge_changed(key, Trop::finite(value)));
            }
        }
        let ns = t.elapsed().as_nanos() as u64;
        assert_eq!(rel.len(), keys.len());
        ns
    }
    // A multiplier coprime to n² walks every cell once, far from the
    // previous one. Both shapes carry one id at 2^24, past any slot
    // table (`dense_row_map_merges_cheaper_than_hashed` times that
    // layout), so both are merged through the hash map this measures.
    const FAR: u32 = 1 << 24;
    let cells = (0..N * N).map(|i| i * 2_654_435_761 % (N * N));
    let (mut pairs, mut singles): (Vec<[u32; 2]>, Vec<[u32; 1]>) = cells
        .map(|c| ([(c / N) as u32, (c % N) as u32], [c as u32]))
        .unzip();
    pairs[0] = [FAR, 0];
    singles[0] = [FAR];
    // The two shapes take turns, so a busy stretch on the host lands on
    // both.
    let (pair_ns, single_ns) = (0..3)
        .map(|_| (merge_ns(&pairs), merge_ns(&singles)))
        .reduce(|best, run| (best.0.min(run.0), best.1.min(run.1)))
        .expect("three runs");
    assert!(
        (pair_ns as f64) < PAIR_OVER_SINGLE * single_ns as f64,
        "merging by [a, b] took {:.2}x merging by [a*n + b] ({pair_ns} ns vs {single_ns} ns)",
        pair_ns as f64 / single_ns as f64
    );
}

/// The merge every schedule and every edit shares, on the shape that
/// motivated direct-addressed row maps: 1 000 000 `merge_changed` calls
/// into an arity-2 relation over ids below 500 holding 240 000 of the
/// 500² pairs — a first pass inserts each, later passes improve or are
/// absorbed, as on `apsp-dense` — against the same calls with every id
/// multiplied by 4 096, too sparse for a slot table (`side²` past both
/// 8 slots a row and 2^24), so hashed. Same rows, same order, same
/// values, min of 3 each. Measured on a 2-core shared host (release):
/// dense/hashed 0.19–0.29 with the slot table, 0.85–1.34 before it,
/// when both relations hashed. The bound, 0.5, sits between the worst
/// reading of each on a log scale (√(0.29 · 0.85) ≈ 0.50). If it trips,
/// the relation never went dense (`storage.rs::row_map_dense`, and the
/// power-of-two check in `RowMap::get_or_insert`) or the dense path
/// grew a hash probe.
#[cfg(not(debug_assertions))]
#[test]
fn dense_row_map_merges_cheaper_than_hashed() {
    use datalog_o::engine::ColumnRel;
    use std::hint::black_box;
    use std::time::Instant;
    const N: u64 = 500;
    const MERGES: usize = 1_000_000;
    const DENSE_OVER_HASHED: f64 = 0.5;
    fn merge_ns(keys: &[[u32; 2]]) -> u64 {
        let mut rel = ColumnRel::<Trop>::new(2);
        let t = Instant::now();
        for (i, key) in keys.iter().cycle().take(MERGES).enumerate() {
            // Passes 0–4 at 3, 2, 2, 1, 1: inserted, improved, absorbed.
            let value = [3.0, 2.0, 2.0, 1.0, 1.0][i / keys.len()];
            black_box(rel.merge_changed(key, Trop::finite(value)));
        }
        let ns = t.elapsed().as_nanos() as u64;
        assert_eq!(rel.len(), keys.len());
        ns
    }
    // Every cell but one in 25, visited by a multiplier coprime to n²,
    // far from the previous one.
    let cells = (0..N * N)
        .map(|i| i * 2_654_435_761 % (N * N))
        .filter(|c| c % 25 != 0);
    let dense: Vec<[u32; 2]> = cells.map(|c| [(c / N) as u32, (c % N) as u32]).collect();
    assert_eq!(dense.len(), 240_000);
    let sparse: Vec<[u32; 2]> = dense.iter().map(|k| k.map(|id| id * 4096)).collect();
    let (dense_ns, hashed_ns) = (0..3)
        .map(|_| (merge_ns(&dense), merge_ns(&sparse)))
        .reduce(|best, run| (best.0.min(run.0), best.1.min(run.1)))
        .expect("three runs");
    assert!(
        (dense_ns as f64) < DENSE_OVER_HASHED * hashed_ns as f64,
        "merging over dense ids took {:.2}x merging over sparse ones ({dense_ns} ns vs {hashed_ns} ns)",
        dense_ns as f64 / hashed_ns as f64
    );
}

/// A nonlinear rule probes its IDB *while it grows* — Thm. 6.5's `New`
/// and `Old` reads sit between the merges — so the O(1)-per-instance
/// charge has to hold for a probed relation of any arity: 100 000
/// distinct arity-3 rows `[a, b, c]` merged one by one into an empty
/// relation whose probe structure for `{a, c}` was ensured up front,
/// each merge followed by one probe (through whichever structure the
/// relation holds, the executor's dispatch), against the arity-2 twin
/// `[a·8 + c, b]` probed on its first column — the same groups, the same
/// order, min of 3 each. Measured on a 2-core shared host (release):
/// wide/narrow 3.2–3.5 with the boxed-key hash index a grown relation
/// keeps (a box per key in the row map and in the index, against two
/// packed `u64`s), 21.6–22.2 with the log-structured sorted spine that
/// served arity > 2 until PR 21, whose every append merged runs and
/// whose every probe searched all of them. The threshold, 6, leaves the
/// hash index 1.7× of headroom and the spine 3.6× over it. If it trips,
/// `ColumnRel::ensure_probe` is handing a relation made by
/// `ColumnRel::new` something that is maintained by re-sorting.
#[cfg(not(debug_assertions))]
#[test]
fn wide_relation_growth_is_hash_priced() {
    use datalog_o::engine::ColumnRel;
    use std::hint::black_box;
    use std::time::Instant;
    const GROUPS: u64 = 2000;
    const PER_GROUP: u64 = 50;
    const WIDE_OVER_NARROW: f64 = 6.0;
    fn grow_ns<const W: usize>(keys: &[[u32; W]], mask: u32) -> u64 {
        let cols = |key: &[u32; W]| -> Vec<u32> {
            (0..W)
                .filter(|c| mask >> c & 1 == 1)
                .map(|c| key[c])
                .collect()
        };
        let probes: Vec<Vec<u32>> = keys.iter().map(cols).collect();
        let mut rel = ColumnRel::<Trop>::new(W);
        rel.ensure_probe(mask);
        let (mut found, mut hits) = (vec![], 0usize);
        let t = Instant::now();
        for (key, probe) in keys.iter().zip(&probes) {
            black_box(rel.merge_changed(key, Trop::finite(1.0)));
            hits += if rel.arrangement_for(mask).is_some() {
                rel.probe_arranged(mask, probe, &mut found);
                found.len()
            } else {
                rel.probe(mask, probe).len()
            };
        }
        let ns = t.elapsed().as_nanos() as u64;
        assert_eq!(rel.len(), keys.len());
        // A group's i-th row finds itself and the i - 1 before it.
        assert_eq!(hits as u64, GROUPS * PER_GROUP * (PER_GROUP + 1) / 2);
        ns
    }
    // Groups are (a, c) with c < 8; a multiplier coprime to the row
    // count lands each row far from the previous one.
    let rows = GROUPS * PER_GROUP;
    let cells = (0..rows).map(|i| i * 2_654_435_761 % rows);
    let (wide, narrow): (Vec<[u32; 3]>, Vec<[u32; 2]>) = cells
        .map(|cell| {
            let (group, b) = ((cell / PER_GROUP) as u32, (cell % PER_GROUP) as u32);
            ([group / 8, b, group % 8], [group, b])
        })
        .unzip();
    let (wide_ns, narrow_ns) = (0..3)
        .map(|_| (grow_ns(&wide, 0b101), grow_ns(&narrow, 0b01)))
        .reduce(|best, run| (best.0.min(run.0), best.1.min(run.1)))
        .expect("three runs");
    assert!(
        (wide_ns as f64) < WIDE_OVER_NARROW * narrow_ns as f64,
        "growing and probing [a, b, c] took {:.2}x growing and probing [a*8 + c, b] \
         ({wide_ns} ns vs {narrow_ns} ns)",
        wide_ns as f64 / narrow_ns as f64
    );
}

/// Theorem 1.2 (converse direction): an unstable core diverges — MaxPlus
/// with a positive cycle.
#[test]
fn unstable_core_diverges_on_cycles() {
    let prog = dlo_bench::single_source_int_program::<MaxPlus>(0);
    let mut edb = Database::new();
    edb.insert(
        "E",
        Relation::from_pairs(
            2,
            [(0i64, 1i64), (1, 0)].iter().map(|&(u, v)| {
                (
                    vec![u.into(), v.into()],
                    MaxPlus::finite(1.0), // positive gain cycle
                )
            }),
        ),
    );
    let sys = ground_sparse(&prog, &edb, &BoolDatabase::new());
    assert!(!naive_eval_system(&sys, 200).is_converged());
    // The element driving it is indeed unstable:
    assert_eq!(
        stability::element_stability_index(&MaxPlus::finite(1.0), 100),
        None
    );
    // With non-positive gains the same program converges (0-stable zone).
    let mut edb2 = Database::new();
    edb2.insert(
        "E",
        Relation::from_pairs(
            2,
            [(0i64, 1i64), (1, 0)]
                .iter()
                .map(|&(u, v)| (vec![u.into(), v.into()], MaxPlus::finite(-1.0))),
        ),
    );
    let sys2 = ground_sparse(&prog, &edb2, &BoolDatabase::new());
    assert!(naive_eval_system(&sys2, 200).is_converged());
}

/// Theorem 5.10: stable but non-uniformly-stable semirings always
/// converge, in value-dependent time (Trop+_eta).
#[test]
fn trop_eta_converges_with_value_dependent_steps() {
    type T = TropEta<32>;
    let cycle = |w: u64| -> Database<T> {
        let mut db = Database::new();
        db.insert(
            "E",
            Relation::from_pairs(
                2,
                [(0i64, 1i64), (1, 0)]
                    .iter()
                    .map(|&(u, v)| (vec![u.into(), v.into()], T::singleton(w))),
            ),
        );
        db
    };
    let prog = dlo_bench::single_source_int_program::<T>(0);
    let steps = |w: u64| -> usize {
        let sys = ground_sparse(&prog, &cycle(w), &BoolDatabase::new());
        match naive_eval_system(&sys, 1_000_000) {
            EvalOutcome::Converged { steps, .. } => steps,
            _ => panic!("stable semiring must converge (Thm 5.10)"),
        }
    };
    let (s16, s4, s1) = (steps(16), steps(4), steps(1));
    assert!(
        s16 < s4 && s4 < s1,
        "steps must grow as weights shrink: {s16} {s4} {s1}"
    );
}

/// Lemma 5.20 tightness at scale, plus the naïve-vs-matrix relationship:
/// SSSP on the cycle takes exactly as long as the matrix stabilizes.
#[test]
fn cycle_matrix_and_program_agree_on_worst_case() {
    const P: usize = 1;
    for n in [3usize, 5, 8] {
        let a = trop_p_cycle::<P>(n);
        let q = matrix_stability_index(&a, 100_000).unwrap();
        assert_eq!(q as u128, trop_p_matrix_bound(P, n));

        // The corresponding datalog° program on the same cycle.
        let edges: Vec<(usize, usize, f64)> = (0..n).map(|i| (i, (i + 1) % n, 1.0)).collect();
        let prog = dlo_bench::single_source_int_program::<TropP<P>>(0);
        let sys = ground_sparse(&prog, &trop_p_edb::<P>(&edges), &BoolDatabase::new());
        let EvalOutcome::Converged { steps, .. } = naive_eval_system(&sys, 100_000) else {
            panic!()
        };
        // Program steps track the matrix index up to the +1 seeding step.
        assert!(
            steps >= q.saturating_sub(1) && steps <= q + 1,
            "n={n}: {steps} vs {q}"
        );
        let _ = Matrix::<TropP<P>>::identity(2);
    }
}
