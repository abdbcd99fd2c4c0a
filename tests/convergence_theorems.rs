//! Integration: the convergence theory of Sec. 3/5 exercised across
//! crates — measured stability indexes against every bound of
//! Theorem 1.2 / 5.12, Theorem 3.4, Lemma 3.3, Lemma 5.20 / Cor. 5.21 and
//! Prop. 5.3 / 5.4 on fixed and randomized workloads, the five
//! convergence classes of Sec. 4.2, and Newton's method against naïve
//! iteration.

use datalog_o::core::examples_lib::quadratic_tc_program;
use datalog_o::core::{
    ground_sparse, naive_eval_system, seminaive_eval_system, BoolDatabase, Database, EvalOutcome,
    Program, Relation,
};
use datalog_o::fixpoint::bounds::nested_bound;
use datalog_o::fixpoint::{
    clone_bound, general_bound, linear_bound, naive_lfp, nested_lfp, product_lfp,
    trop_p_matrix_bound, zero_stable_bound, Outcome,
};
use datalog_o::pops::natpair_lex::{case_i_chain_lub, case_i_ico};
use datalog_o::pops::stability::element_stability_index;
use datalog_o::pops::{
    Bool, MaxPlus, NatInf, NatPairLex, NaturallyOrdered, Pops, PreSemiring, Trop, TropEta, TropP,
};
use datalog_o::semilin::{
    closure_fixpoint, fwk_closure, matrix_stability_index, newton_lfp, trop_p_cycle, Matrix,
};
use dlo_bench::GraphInstance;
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

/// The xorshift64 stream the fixed random matrices and elements below
/// are drawn from.
fn xorshift(mut seed: u64) -> impl FnMut() -> u64 {
    move || {
        seed ^= seed << 13;
        seed ^= seed >> 7;
        seed ^= seed << 17;
        seed
    }
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

/// Naïve steps to the fixpoint of the sparse grounding, and its number
/// of ground atoms N.
fn naive_steps<P: NaturallyOrdered>(program: &Program<P>, edb: &Database<P>) -> (usize, usize) {
    let sys = ground_sparse(program, edb, &BoolDatabase::new());
    match naive_eval_system(&sys, 1_000_000) {
        EvalOutcome::Converged { steps, .. } => (steps, sys.num_vars()),
        _ => panic!("must converge"),
    }
}

/// Theorem 1.2 / 5.12, linear bound: linear programs over Trop+_p
/// converge within Σ_{i≤N} (p+1)^i — SSSP over Trop+_1 on a path, a
/// cycle, a random digraph and a grid, then on random graphs over
/// Trop+_2.
#[test]
fn linear_programs_respect_linear_bound() {
    // The bound itself over Trop+_1: Σ_{i=1..N} 2^i = 2^{N+1} − 2.
    for n in 1..20 {
        assert_eq!(linear_bound(1, n), (1 << (n + 1)) - 2, "N={n}");
    }
    for (name, g) in [
        ("path(6)", GraphInstance::path(6)),
        ("cycle(5)", GraphInstance::cycle(5)),
        ("random(8,20)", GraphInstance::random(8, 20, 9, 11)),
        ("grid(3)", GraphInstance::grid(3)),
    ] {
        let prog = dlo_bench::single_source_int_program::<TropP<1>>(0);
        let (steps, n) = naive_steps(&prog, &trop_p_edb::<1>(&g.edges));
        assert!(
            (steps as u128) <= linear_bound(1, n),
            "{name}: steps {steps} > bound"
        );
    }

    const P: usize = 2;
    let mut rng = StdRng::seed_from_u64(0xfeed);
    for trial in 0..10 {
        let n = rng.gen_range(3..7);
        let edges = random_graph(&mut rng, n, 2 * n);
        let prog = dlo_bench::single_source_int_program::<TropP<P>>(0);
        let (steps, n) = naive_steps(&prog, &trop_p_edb::<P>(&edges));
        assert!(
            (steps as u128) <= linear_bound(P, n),
            "trial {trial}: steps {steps} > bound"
        );
        // Linear programs also respect the matrix bound (p+1)N-1 + 1.
        assert!(
            (steps as u128) <= trop_p_matrix_bound(P, n) + 1,
            "trial {trial}"
        );
    }
}

/// Theorem 1.2 / 5.12, general bound: quadratic programs over Trop+_1
/// converge within Σ_{i≤N} (p+2)^i — TC by squaring on a path, a cycle
/// and random graphs.
#[test]
fn quadratic_programs_respect_general_bound() {
    // The bound itself over Trop+_1: Σ_{i=1..N} 3^i = (3^{N+1} − 3) / 2.
    for n in 1..20 {
        assert_eq!(
            general_bound(1, n),
            (3u128.pow(n as u32 + 1) - 3) / 2,
            "N={n}"
        );
    }
    const P: usize = 1;
    let fixed = [GraphInstance::path(4).edges, GraphInstance::cycle(4).edges];
    let mut rng = StdRng::seed_from_u64(0xbead);
    let random = (0..6).map(|_| {
        let n = rng.gen_range(3..5);
        random_graph(&mut rng, n, 2 * n)
    });
    for edges in fixed.into_iter().chain(random) {
        let (steps, n) = naive_steps(
            &quadratic_tc_program::<TropP<P>>(),
            &trop_p_edb::<P>(&edges),
        );
        assert!((steps as u128) <= general_bound(P, n), "{edges:?}");
    }
}

/// Corollary 5.19: 0-stable POPS converge within N steps (B and Trop+),
/// and SSSP down a path shows the bound is tight.
#[test]
fn zero_stable_converges_within_n() {
    let mut rng = StdRng::seed_from_u64(0xabc);
    for _ in 0..10 {
        let n = rng.gen_range(4..12);
        let g = GraphInstance {
            n,
            edges: random_graph(&mut rng, n, 3 * n),
        };
        // Trop+ SSSP.
        let prog = dlo_bench::single_source_int_program::<Trop>(0);
        let (steps, n) = naive_steps(&prog, &g.trop_edb());
        assert!((steps as u128) <= zero_stable_bound(n));

        // Boolean quadratic TC.
        let (steps, n) = naive_steps(&quadratic_tc_program::<Bool>(), &g.bool_edb());
        assert!((steps as u128) <= zero_stable_bound(n));
    }

    // Tight on paths: SSSP down a path of N nodes takes N steps.
    for n in [4usize, 8, 16, 32, 64] {
        let (prog, edb) = GraphInstance::path(n).sssp();
        let (steps, vars) = naive_steps(&prog, &edb);
        assert!(
            (steps as u128) <= zero_stable_bound(vars) && steps + 1 >= vars,
            "path({n}): {steps} steps, N = {vars}"
        );
    }
    // Boolean TC by squaring stays within N = n² on paths too (it takes
    // about log n steps).
    for n in [8usize, 16] {
        let edb = GraphInstance::path(n).bool_edb();
        let (steps, vars) = naive_steps(&quadratic_tc_program::<Bool>(), &edb);
        assert!(
            (steps as u128) <= zero_stable_bound(vars),
            "path({n}): {steps} steps, N = {vars}"
        );
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
/// cloning every tuple. The reading is the median of 15 alternating
/// (load, walk) pairs: per-pair ratios cancel the host's phases, and the
/// median drops the pairs one of them straddles (the minimum of three
/// walks alone swung 9.6–55.7 ms between invocations of one binary,
/// which made a ratio of two minimums flaky). Measured on a 2-core
/// shared host (release, this test's body, ten invocations each):
/// 0.70–0.92 with the one-pass loader and its integer memo; 1.03–1.27
/// when every constant is interned and then looked up again through the
/// interner's Fx-hashed map; 1.32–1.70 when that lookup is a second pass
/// over the relation; 2.22–2.58 with a boxed key hashed into a std
/// full-key row map per row; 3.12–4.23 with both of the last two; 6–7
/// (min of 3) with the loader the one-pass one replaced, which did both
/// through SipHash. The threshold, 3, was set midway on a log scale
/// between those two loaders; it catches a loader that does both
/// again, not either alone.
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
    let setup_ns = || {
        let out = engine_eval_interned(
            &program,
            &edb,
            &BoolDatabase::new(),
            10,
            Strategy::SemiNaive,
            // One thread: a parted load would hide a per-row regression
            // of up to the thread count behind the other cores.
            &EngineOpts {
                threads: Some(1),
                ..EngineOpts::default()
            },
        )
        .expect("compiles");
        assert_eq!(out.output().support_size("Copy"), ROWS as usize);
        assert_eq!(out.output().interner().len(), 124);
        out.stats().phases.setup
    };
    let walk_ns = || {
        let t = Instant::now();
        for (tuple, v) in edb.get("F").expect("inserted").support() {
            black_box((tuple.clone(), *v));
        }
        t.elapsed().as_nanos() as u64
    };
    let mut ratios: Vec<f64> = (0..15)
        .map(|_| setup_ns() as f64 / walk_ns() as f64)
        .collect();
    ratios.sort_by(f64::total_cmp);
    let ratio = ratios[ratios.len() / 2];
    assert!(
        ratio < LOAD_OVER_WALK,
        "loading {ROWS} rows took {ratio:.2}x one cloning walk (median of {ratios:.2?})"
    );
}

/// A bulk EDB wider than a packed key is probed through a sorted run
/// (`dlo_engine::arrange`), and under a mask that leads with the
/// column the load orders by, the counting sort must cost less than
/// under one whose partitions are scattered: `wide-lookup`'s shape —
/// 300 000 arity-4 rows whose `(A, B, C)` is a key, over integers below
/// 134 — probed through `(A, C)`, whose run partitions by `A`, against
/// a program that probes the same `F` through `(B, C, D)`, whose run
/// partitions by `B`, a column the load does not order by. Neither
/// mask is a prefix of `F`'s columns, so both programs sort (a prefix
/// mask searches a loaded relation's rows as they lie and sorts
/// nothing, which is why the in-order program no longer probes
/// `(A, B, C)`). Both programs load the same relation, so the ratio of
/// their `phases.arrange` reads the kernel alone, and no change to the
/// loader moves it. The reading is the median of 15 alternating pairs,
/// each pair one run of either program: per-pair ratios cancel the
/// host's phases, and the median drops the pairs one of them
/// straddles. Measured on a 2-core shared host (release, this test's
/// body): 0.69–0.80, median 0.76, over 16 invocations when one counting
/// pass partitions the rows by their leading column and each partition
/// is finished in cache; 0.94–1.11 over 14 with
/// `arrange::partitions_first` forced to `false`, so that every
/// counting pass of either program runs over the whole relation. The
/// threshold, 0.88, lies between the two. If it trips,
/// look at `arrange::radix_order`: a partition pass that reads rows out
/// of load order (the `F` rows sharing an `A` are one range of row ids,
/// so its partitions should be moved as ranges), or
/// `arrange::partitions_first` no longer choosing to partition this
/// shape.
#[cfg(not(debug_assertions))]
#[test]
fn sorted_run_in_load_order_costs_less_than_scattered() {
    use datalog_o::core::{Constant, Program};
    use datalog_o::{engine_eval_interned, EngineOpts, Strategy};
    const ROWS: u64 = 300_000;
    const DOMAIN: u64 = 134;
    const IN_ORDER_OVER_SCATTERED: f64 = 0.88;
    let parse = |text| datalog_o::core::parse_program::<Trop>(text).expect("parses");
    let in_order = parse("Out1(A, D) :- S2(A, C) * F(A, B, C, D).");
    let scattered = parse("Out3(A) :- S3(B, C, D) * F(A, B, C, D).");
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
    let s2 = (0..2_000).map(|r| (vec![row(r)[0].clone(), row(r)[2].clone()], one));
    edb.insert("S2", Relation::from_pairs(2, s2));
    let s3 = (0..2_000).map(|r| (row(r)[1..].to_vec(), one));
    edb.insert("S3", Relation::from_pairs(3, s3));
    let arrange_ns = |program: &Program<Trop>| {
        let out = engine_eval_interned(
            program,
            &edb,
            &BoolDatabase::new(),
            10,
            Strategy::Auto,
            &EngineOpts::default(),
        )
        .expect("compiles");
        assert!(out
            .output()
            .predicates()
            .all(|(p, _)| out.output().support_size(p) > 0));
        let arrange = out.stats().phases.arrange;
        assert!(arrange > 0, "F is probed through a sorted run");
        arrange
    };
    let mut ratios: Vec<f64> = (0..15)
        .map(|_| arrange_ns(&in_order) as f64 / arrange_ns(&scattered) as f64)
        .collect();
    ratios.sort_by(f64::total_cmp);
    let ratio = ratios[ratios.len() / 2];
    eprintln!("in order over scattered: {ratio:.2} (median of {ratios:.2?})");
    assert!(
        ratio < IN_ORDER_OVER_SCATTERED,
        "sorting {ROWS} rows in load order took {ratio:.2}x sorting them scattered \
         (median of {ratios:.2?})"
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
        rel.ensure_probe(mask, None);
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
    assert_eq!(element_stability_index(&MaxPlus::finite(1.0), 100), None);
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
/// converge, in value-dependent time (Trop+_eta) — Sec. 4.2's case (iii).
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
    let steps = |w: u64| naive_steps(&prog, &cycle(w)).0;
    let (s16, s4, s1) = (steps(16), steps(4), steps(1));
    assert!(
        s16 < s4 && s4 < s1,
        "steps must grow as weights shrink: {s16} {s4} {s1}"
    );
    // The same at the element level: over Trop+_{≤64} the index of
    // x :- 1 ⊕ {w}·x grows as w shrinks.
    let index = |w: u64| element_stability_index(&TropEta::<64>::singleton(w), 10_000).unwrap();
    let (i8, i2, i1) = (index(8), index(2), index(1));
    assert!(i8 < i2 && i2 < i1, "indexes {i8} {i2} {i1}");
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
        let prog = dlo_bench::single_source_int_program::<TropP<P>>(0);
        let (steps, _) = naive_steps(&prog, &trop_p_edb::<P>(&GraphInstance::cycle(n).edges));
        // Program steps track the matrix index up to the +1 seeding step.
        assert!(
            steps >= q.saturating_sub(1) && steps <= q + 1,
            "n={n}: {steps} vs {q}"
        );
    }
    // Lemma 5.20 is exact for every p: the N-cycle's index is (p+1)N − 1,
    // and the Floyd–Warshall–Kleene closure is the iterated one.
    fn exact<const P: usize>(n: usize) {
        let a = trop_p_cycle::<P>(n);
        let (closure, q) = closure_fixpoint(&a, 100_000).unwrap();
        assert_eq!(q as u128, trop_p_matrix_bound(P, n), "p={P}, N={n}");
        assert_eq!(fwk_closure(&a), closure, "p={P}, N={n}: FWK");
    }
    exact::<0>(4);
    exact::<0>(8);
    exact::<1>(4);
    exact::<1>(8);
    exact::<2>(4);
    exact::<2>(8);
    exact::<3>(6);
    exact::<4>(5);
}

/// Corollary 5.21: every N × N matrix over Trop+_p is ((p+1)N − 1)-stable
/// — 20 random Trop+_2 matrices per N, each also closed by FWK to the
/// iterated closure.
#[test]
fn cor_5_21_random_trop_p2_matrices_within_bound() {
    const P: usize = 2;
    let mut rng = xorshift(0x1234_5678_9abc_def0);
    for n in [3usize, 5, 7, 9] {
        for trial in 0..20 {
            let a = Matrix::<TropP<P>>::from_fn(n, |_, _| {
                if rng().is_multiple_of(3) {
                    TropP::<P>::from_costs(&[(rng() % 9) as f64])
                } else {
                    TropP::<P>::zero()
                }
            });
            let (closure, q) = closure_fixpoint(&a, 100_000).unwrap();
            assert!(
                q as u128 <= trop_p_matrix_bound(P, n),
                "N={n} #{trial}: {q}"
            );
            assert_eq!(fwk_closure(&a), closure, "N={n} #{trial}: FWK");
        }
    }
}

/// Sec. 4.2: the five convergence classes, one witness each. Case (iii)
/// is `trop_eta_converges_with_value_dependent_steps`.
#[test]
fn sec_4_2_five_convergence_classes() {
    // (i) ℕ×ℕ lexicographic, F(x, y) = (x, y + 1): the Kleene chain stays
    // below its lub (1, 0), which is not a fixpoint.
    let lub = case_i_chain_lub();
    assert_ne!(case_i_ico(lub), lub);
    let mut x = NatPairLex::bottom();
    for t in 0..100 {
        assert!(x.leq(&lub), "J({t}) is not below the lub");
        x = case_i_ico(x);
    }

    // (ii) ℕ ∪ {∞}, f(x) = x + 1: the lfp ∞ exists, naïve never reaches it.
    let f = |x: &NatInf| x.add(&NatInf::one());
    assert_eq!(f(&NatInf::Inf), NatInf::Inf);
    assert!(matches!(
        naive_lfp(f, NatInf::bottom(), 1000),
        Outcome::Diverged { .. }
    ));

    // (iv) Trop+_2: steps depend on |ADom| only — the 6-cycle takes the
    // same number for unit and for 1000× weights, within (p+1)N.
    const P: usize = 2;
    let steps = |scale: f64| {
        let mut edges = GraphInstance::cycle(6).edges;
        edges.iter_mut().for_each(|e| e.2 *= scale);
        let prog = dlo_bench::single_source_int_program::<TropP<P>>(0);
        naive_steps(&prog, &trop_p_edb::<P>(&edges)).0
    };
    let (unit, scaled) = (steps(1.0), steps(1000.0));
    assert_eq!(unit, scaled);
    assert!(unit <= (P + 1) * 6, "{unit} steps");

    // (v) Trop+ is 0-stable: ≤ N steps on a random graph of 14 nodes.
    let g = GraphInstance::random(14, 40, 9, 7);
    let (prog, edb) = g.sssp();
    let (steps, _) = naive_steps(&prog, &edb);
    assert!(steps <= g.n, "{steps} steps");
}

/// Proposition 5.3: Trop+_p is p-stable, and tightly — its unit 1_p has
/// stability index exactly p; 200 random Trop+_3 elements stay ≤ 3.
#[test]
fn prop_5_3_trop_p_is_p_stable_and_tight() {
    fn unit_index<const P: usize>() -> Option<usize> {
        element_stability_index(&TropP::<P>::one(), 200)
    }
    let units = [
        unit_index::<0>(),
        unit_index::<1>(),
        unit_index::<2>(),
        unit_index::<3>(),
        unit_index::<4>(),
        unit_index::<5>(),
        unit_index::<6>(),
        unit_index::<8>(),
    ];
    assert_eq!(units, [0, 1, 2, 3, 4, 5, 6, 8].map(Some));

    let mut rng = xorshift(0x5eed_5eed_5eed_5eed);
    for _ in 0..200 {
        let costs: Vec<f64> = (0..rng() % 4).map(|_| (rng() % 20) as f64).collect();
        let index = element_stability_index(&TropP::<3>::from_costs(&costs), 100);
        assert!(index.is_some_and(|i| i <= 3), "{costs:?}: {index:?}");
    }
}

/// Proposition 5.4: Trop+_{≤η} is stable but not uniformly — the index of
/// {a} rises as a shrinks, stays ≤ η/a + 1, and reaches ≈ η at a = 1.
#[test]
fn prop_5_4_trop_eta_is_stable_but_not_uniformly() {
    const ETA: u64 = 720;
    let mut last = 0;
    for a in [720, 360, 240, 120, 60, 30, 10, 5, 2, 1] {
        let index = element_stability_index(&TropEta::<ETA>::singleton(a), 100_000).unwrap();
        assert!(
            index >= last && index as u64 <= ETA / a + 1,
            "{{{a}}}: index {index} after {last}"
        );
        last = index;
    }
    assert!(last >= 700, "{{1}}: index {last}");
}

/// Theorem 3.4: a function on a product of posets whose components are
/// p₁ ≥ … ≥ pₙ-stable is Eₙ-stable, Eₙ = p₁ + p₁p₂ + … + p₁⋯pₙ —
/// witnessed by cascades on products of chains {0..pᵢ}: the first
/// component counts up freely, each later one only while it trails its
/// predecessor.
#[test]
fn thm_3_4_cascade_index_within_clone_bound() {
    fn cascade_index(ps: &[usize]) -> usize {
        let f = |x: &Vec<usize>| -> Vec<usize> {
            (0..ps.len())
                .map(|i| (x[i] + usize::from(i == 0 || x[i] < x[i - 1])).min(ps[i]))
                .collect()
        };
        match naive_lfp(f, vec![0; ps.len()], 1_000_000) {
            Outcome::Converged { steps, .. } => steps,
            Outcome::Diverged { .. } => panic!("{ps:?} diverged"),
        }
    }
    // (heights, measured index, Eₙ). The cascades stay far below Eₙ
    // except at [3], so the bound's values are pinned as well; Eₙ sorts
    // the heights descending first, which maximizes it.
    let cases: [(&[usize], usize, u128); 6] = [
        (&[3], 3, 3),
        (&[3, 3], 4, 12),
        (&[4, 2], 4, 12),
        (&[4, 3, 2], 4, 40),
        (&[5, 5, 5], 7, 155),
        (&[2, 2, 2, 2], 5, 30),
    ];
    for (ps, index, bound) in cases {
        assert_eq!(clone_bound(ps), bound, "E{ps:?}");
        assert_eq!(cascade_index(ps), index, "{ps:?}");
        assert!(index as u128 <= bound);
    }
}

/// Lemma 3.3: the nested schedule of Fig. 1 computes the lfp of the
/// product, and iterating the product directly stabilizes within
/// pq + p + q steps.
#[test]
fn lemma_3_3_nested_lfp_is_the_product_lfp() {
    let f = |x: &u32, y: &u32| (*x + u32::from(*y == 3)).min(5);
    let g = |_: &u32, y: &u32| (*y + 1).min(3);
    let nested = nested_lfp(f, g, 0, 0, 10_000).expect("converges");
    let Outcome::Converged { value, steps } = product_lfp(f, g, 0, 0, 10_000) else {
        panic!("the product iteration must converge");
    };
    assert_eq!(value, (nested.x, nested.y));
    assert_eq!(nested_bound(5, 3), 23);
    assert!(steps as u128 <= nested_bound(5, 3), "{steps} steps");
}

/// The introduction's alternative to naïve iteration: Newton's method
/// reaches the lfp naïve and semi-naïve reach, in no more iterations
/// than naïve — and within N on quadratic Boolean TC.
#[test]
fn newton_agrees_with_naive_in_fewer_iterations() {
    for g in [
        GraphInstance::path(48),
        GraphInstance::grid(7),
        GraphInstance::random(64, 256, 9, 77),
    ] {
        let (prog, edb) = g.sssp();
        let sys = ground_sparse(&prog, &edb, &BoolDatabase::new());
        let EvalOutcome::Converged { output, steps, .. } = naive_eval_system(&sys, 100_000) else {
            panic!("Trop+ converges");
        };
        assert_eq!(seminaive_eval_system(&sys, 100_000).0.unwrap(), output);
        let (nu, iterations) = newton_lfp(&sys, 1000).expect("Newton converges");
        assert_eq!(sys.to_database(&nu), output, "N={}", g.n);
        assert!(iterations <= steps, "N={}: {iterations} > {steps}", g.n);
    }

    let edb = GraphInstance::path(15).bool_edb();
    let sys = ground_sparse(&quadratic_tc_program::<Bool>(), &edb, &BoolDatabase::new());
    let output = naive_eval_system(&sys, 100_000).unwrap();
    let (nu, iterations) = newton_lfp(&sys, 1000).expect("Newton converges");
    assert_eq!(sys.to_database(&nu), output);
    assert!(iterations <= sys.num_vars(), "{iterations} iterations");
}
