//! Example 4.1 end-to-end: single-source shortest paths with the naïve and
//! semi-naïve algorithms, full iteration trace, and the tropical delta
//! rule of eq. (7) — then the same program on the execution engine's
//! priority frontier.
//!
//! Run with `cargo run --example shortest_paths`; set `DLO_TRACE=out.jsonl`
//! to also write the engine run's event stream.

use datalog_o::core::examples_lib::sssp_trop;
use datalog_o::core::{ground_sparse, naive_eval_trace, seminaive_eval_system, BoolDatabase};
use datalog_o::{engine_eval_interned, EngineOpts, Strategy};

fn main() {
    let (program, edb) = sssp_trop("a");
    let sys = ground_sparse(&program, &edb, &BoolDatabase::new());

    // The naïve algorithm, with the full chain of IDB instances — compare
    // against the table printed in the paper (Example 4.1).
    let trace = naive_eval_trace(&sys, 1000);
    println!("naive evaluation trace (Example 4.1, Fig. 2(a)):\n");
    print!("{}", trace.render());

    // The semi-naïve algorithm (Algorithm 3 with the tropical ⊖ of eq. 6)
    // computes the same fixpoint touching far fewer monomials.
    let (outcome, stats) = seminaive_eval_system(&sys, 1000);
    let out = outcome.unwrap();
    println!("\nsemi-naive reached the same fixpoint:");
    for (t, v) in out.get("L").unwrap().support() {
        println!("  L{} = {v:?}", datalog_o::core::value::fmt_tuple(t));
    }
    println!(
        "\nwork: {} differential monomial expansions across {} iterations",
        stats.monomial_evals, stats.iterations
    );
    assert_eq!(
        &out,
        trace
            .iterates
            .last()
            .map(|x| sys.to_database(x))
            .as_ref()
            .unwrap()
    );
    println!("naive and semi-naive agree (Theorem 6.4).");

    // The engine's priority frontier settles each node once, best-first
    // (Cor. 5.19: Trop⁺ is 0-stable), and reaches the same fixpoint. Its
    // steps are one per settled value, well inside the cap of 1000.
    let engine = engine_eval_interned(
        &program,
        &edb,
        &BoolDatabase::new(),
        1000,
        Strategy::Priority,
        &EngineOpts::default(),
    )
    .expect("compiles")
    .materialize()
    .unwrap();
    assert_eq!(engine, out);
    println!("the engine's priority frontier agrees.");
}
