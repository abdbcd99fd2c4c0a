//! E7: Sec. 4.5 extensions — case statements, interpreted key functions,
//! and keys-to-values.
//!
//! * prefix sums via `W(i) :- case i = 0 : V(0); i < n : W(i-1) + V(i)`;
//! * the same prefix computation in *head-keyed* form
//!   (`W(i+1) :- W(i) ⊗ V(i+1)`) running **natively on the execution
//!   engine** — head key functions no longer route around `dlo_engine`;
//! * `ShortestLength(x,y) :- min_c ([Length(x,y,c)] + c)` where the key
//!   `c` becomes a tropical value.

use dlo_bench::{print_host_note, print_table};
use dlo_core::examples_lib::{prefix_sum, prefix_sum_keyed, shortest_length};
use dlo_core::{naive_eval, relational_seminaive_eval, tup, BoolDatabase};
use dlo_engine::{engine_eval_interned, EngineOpts, SemiNaive};
use dlo_pops::lifted::lreal;
use dlo_pops::Trop;

fn ms(ns: u64) -> String {
    format!("{:.2}", ns as f64 / 1e6)
}

fn main() {
    print_host_note();
    let mut ok = true;

    // --- prefix sums --------------------------------------------------------
    let values = [2.0, 4.0, 1.5, 3.0, 0.5];
    let (prog, edb) = prefix_sum(&values);
    let out = naive_eval(&prog, &edb, &BoolDatabase::new(), 1000).unwrap();
    let w = out.get("W").unwrap();
    let mut rows = vec![];
    let mut acc = 0.0;
    for (i, v) in values.iter().enumerate() {
        acc += v;
        let got = w.get(&tup![i as i64]);
        rows.push(vec![
            format!("W({i})"),
            format!("{got:?}"),
            format!("{acc}"),
        ]);
        ok &= got == lreal(acc);
    }
    print_table(
        "Sec. 4.5 — prefix sums by case statement + key function i-1",
        &["atom", "computed", "expected"],
        &rows,
    );

    // --- head-keyed prefix, natively on the engine --------------------------
    // Over Trop⁺ every key has exactly one derivation, so ⊗ = + gives the
    // same prefix sums; the engine mints the head-computed keys i+1 via
    // its dynamic interner and must agree with the relational backend.
    let (prog, edb) = prefix_sum_keyed::<Trop>(&values, Trop::finite);
    let opts = EngineOpts::default();
    let eng_out = engine_eval_interned(&prog, &edb, &BoolDatabase::new(), 1000, SemiNaive, &opts)
        .expect("compiles")
        .materialize();
    let stats = eng_out.stats().clone();
    let eng = eng_out.unwrap();
    let rel = relational_seminaive_eval(&prog, &edb, &BoolDatabase::new(), 1000).unwrap();
    ok &= eng == rel;
    let w = eng.get("W").unwrap();
    let mut rows = vec![];
    let mut acc = 0.0;
    for (i, v) in values.iter().enumerate() {
        acc += v;
        let got = w.get(&tup![i as i64]);
        rows.push(vec![
            format!("W({i})"),
            format!("{got:?}"),
            format!("{acc}"),
        ]);
        ok &= got == Trop::finite(acc);
    }
    print_table(
        "Sec. 4.5 — head-keyed prefix W(i+1) :- W(i) * V(i+1), dlo_engine native",
        &["atom", "engine", "expected"],
        &rows,
    );
    // The engine leg's telemetry. The head-computed keys i+1 all land
    // inside V's already-interned domain here, so `minted` stays 0 —
    // genuinely fresh head-derived constants would surface there.
    print_table(
        "engine leg telemetry (per-phase ms from EvalStats)",
        &[
            "strategy",
            "setup_ms",
            "index_ms",
            "eval_ms",
            "mint_ms",
            "decode_ms",
            "steps",
            "emits",
            "merges",
            "minted",
        ],
        &[vec![
            stats.strategy.clone(),
            ms(stats.phases.setup),
            ms(stats.phases.edb_index),
            ms(stats.phases.eval),
            ms(stats.phases.mint),
            ms(stats.phases.decode),
            format!("{}", stats.steps),
            format!("{}", stats.counters.emits + stats.counters.fresh_emits),
            format!(
                "{}",
                stats.counters.rows_inserted
                    + stats.counters.rows_improved
                    + stats.counters.merges_absorbed
            ),
            format!("{}", stats.counters.minted_ids),
        ]],
    );

    // --- keys to values -----------------------------------------------------
    let lengths = [("a", "b", 3), ("a", "b", 7), ("a", "c", 5), ("b", "c", 2)];
    let (prog, edb) = shortest_length(&lengths);
    let out = naive_eval(&prog, &edb, &BoolDatabase::new(), 100).unwrap();
    let sl = out.get("ShortestLength").unwrap();
    let expect = [("a", "b", 3.0), ("a", "c", 5.0), ("b", "c", 2.0)];
    let mut rows = vec![];
    for (x, y, d) in expect {
        let got = sl.get(&tup![x, y]);
        rows.push(vec![
            format!("ShortestLength({x}, {y})"),
            format!("{got:?}"),
            format!("{d}"),
        ]);
        ok &= got == Trop::finite(d);
    }
    print_table(
        "Sec. 4.5 — keys to values: ShortestLength over Trop+",
        &["atom", "computed", "expected"],
        &rows,
    );

    println!("{}", if ok { "REPRO OK" } else { "REPRO MISMATCH" });
    std::process::exit(if ok { 0 } else { 1 });
}
