//! Example 4.3: company control — recursion through aggregation *and* a
//! monotone value-space boundary.
//!
//! `x` controls `y` when the shares it owns directly plus the shares owned
//! by companies it controls exceed 50%. The program runs over `ℝ₊` with
//! the monotone threshold `[v > 0.5]` as an interpreted value function.
//!
//! Run with `cargo run --example company_control`.

use datalog_o::core::examples_lib::company_control;
use datalog_o::core::{naive_eval, Edit};
use datalog_o::pops::{NNReal, Pops};
use datalog_o::{EngineOpts, Materialization, Naive};

fn main() {
    let companies = ["acme", "beta", "corp", "dyne"];
    let shares = [
        ("acme", "beta", 0.55), // direct majority
        ("acme", "corp", 0.40),
        ("beta", "corp", 0.15), // acme + beta = 0.55 of corp
        ("acme", "dyne", 0.10),
        ("beta", "dyne", 0.15),
        ("corp", "dyne", 0.30), // acme + beta + corp = 0.55 of dyne!
    ];
    let (prog, pops, bools) = company_control(&companies, &shares);
    let out = naive_eval(&prog, &pops, &bools, 10_000).unwrap();
    let t = out.get("T").unwrap();

    println!("accumulated share weights T(x, y):");
    for (tuple, v) in t.support() {
        if !v.is_bottom() {
            println!(
                "  T{} = {:.2}",
                datalog_o::core::value::fmt_tuple(tuple),
                v.get()
            );
        }
    }
    println!("\ncontrol relation C(x, y) = [T(x, y) > 0.5]:");
    for (tuple, v) in t.support() {
        if v.get() > 0.5 {
            println!("  {} controls {}", tuple[0], tuple[1]);
        }
    }
    // Transitive control: acme controls beta directly, corp through beta,
    // and dyne through the whole chain.

    // The same program on the execution engine, kept live. ℝ₊ has no ⊖,
    // so `Naive` is the one schedule that type-checks for it
    // (`SemiNaive` or a `Strategy` here would not compile); the handle
    // takes it at construction and then absorbs edit scripts like any
    // other. Beta sells its corp stake to an outsider: acme falls to
    // 40% of corp, and with corp gone so is its majority of dyne.
    let mut live =
        Materialization::new(&prog, &pops, &bools, 10_000, Naive, &EngineOpts::default())
            .expect("compiles and converges");
    let dyne = ["acme".into(), "dyne".into()];
    let weight =
        |live: &Materialization<NNReal, Naive>| live.get("T", &dyne).map_or(0.0, |v| v.get());
    println!("\nlive: T(acme, dyne) = {:.2}", weight(&live));
    live.apply(&[Edit::delete("S", vec!["beta".into(), "corp".into()])])
        .expect("edit applies");
    println!(
        "after beta sells its corp stake: T(acme, dyne) = {:.2}",
        weight(&live)
    );
}
