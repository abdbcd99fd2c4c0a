//! The naïve evaluation algorithm (Algorithm 1).
//!
//! `J(0) ← ⊥`; repeat `J(t+1) ← F(J(t))` until `J(t+1) = J(t)`. On a POPS
//! the chain is guaranteed increasing (the ICO is monotone and starts at
//! `⊥`), and it converges iff the core semiring is stable (Theorem 1.2).

use super::{to_outcome, EvalOutcome, Trace};
use crate::ast::Program;
use crate::ground::{eval_closed, GroundSystem};
use crate::relation::{BoolDatabase, Database};
use dlo_pops::{NaturallyOrdered, Pops};

/// Runs Algorithm 1 on a pre-grounded system.
pub fn naive_eval_system<P: Pops>(sys: &GroundSystem<P>, cap: usize) -> EvalOutcome<P> {
    let mut x = sys.bottom();
    for steps in 0..=cap {
        let next = sys.apply_ico(&x);
        if next == x {
            return to_outcome(sys, Ok((x, steps)), cap);
        }
        x = next;
    }
    to_outcome(sys, Err(x), cap)
}

/// Runs Algorithm 1 and records every iterate (for the paper's tables).
pub fn naive_eval_trace<P: Pops>(sys: &GroundSystem<P>, cap: usize) -> Trace<P> {
    let mut iterates = vec![sys.bottom()];
    let mut converged = false;
    loop {
        let x = iterates.last().unwrap();
        let next = sys.apply_ico(x);
        if &next == x {
            converged = true;
            break;
        }
        if iterates.len() > cap {
            break;
        }
        iterates.push(next);
    }
    Trace {
        atoms: sys.atoms.clone(),
        iterates,
        converged,
    }
}

/// Grounds (dense) and evaluates a program: the generic entry point, sound
/// for every POPS including non-semirings like the lifted reals. The
/// grounding closes over the constants head key functions mint
/// (`crate::ground`'s module docs).
pub fn naive_eval<P: Pops>(
    program: &Program<P>,
    pops_edb: &Database<P>,
    bool_edb: &BoolDatabase,
    cap: usize,
) -> EvalOutcome<P> {
    eval_closed(program, pops_edb, bool_edb, false, cap, |sys| {
        naive_eval_system(sys, cap)
    })
}

/// Grounds (sparse) and evaluates a program over a naturally ordered
/// semiring, closing over minted constants as [`naive_eval`] does — the
/// reference the execution engine's naïve loop is checked against.
pub fn naive_eval_sparse<P: NaturallyOrdered>(
    program: &Program<P>,
    pops_edb: &Database<P>,
    bool_edb: &BoolDatabase,
    cap: usize,
) -> EvalOutcome<P> {
    eval_closed(program, pops_edb, bool_edb, true, cap, |sys| {
        naive_eval_system(sys, cap)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::examples_lib as ex;
    use crate::ground::ground;
    use crate::tup;
    use crate::value::GroundAtom;
    use dlo_pops::{PreSemiring, Trop};

    #[test]
    fn example_4_1_sssp_converges_in_5_steps() {
        let (program, edb) = ex::sssp_trop("a");
        let out = naive_eval(&program, &edb, &BoolDatabase::new(), 100);
        match out {
            EvalOutcome::Converged { output, steps, .. } => {
                // The paper's table shows rows L(0)..L(5) with L(5) = L(4)
                // ("converges after 5 steps"); the stability index per the
                // Sec. 4 definition (least t with J(t) = J(t+1)) is 4.
                assert_eq!(steps, 4);
                let l = output.get("L").unwrap();
                assert_eq!(l.get(&tup!["a"]), Trop::finite(0.0));
                assert_eq!(l.get(&tup!["b"]), Trop::finite(1.0));
                assert_eq!(l.get(&tup!["c"]), Trop::finite(4.0));
                assert_eq!(l.get(&tup!["d"]), Trop::finite(8.0));
            }
            _ => panic!("SSSP must converge"),
        }
    }

    #[test]
    fn example_4_1_trace_matches_paper_table() {
        let (program, edb) = ex::sssp_trop("a");
        let sys = ground(&program, &edb, &BoolDatabase::new());
        let trace = naive_eval_trace(&sys, 100);
        assert!(trace.converged);
        // Row L(2) of the paper: (0, 1, 5, ∞).
        let ix = |name: &str| sys.index[&GroundAtom::new("L", tup![name])];
        let row2 = &trace.iterates[2];
        assert_eq!(row2[ix("a")], Trop::finite(0.0));
        assert_eq!(row2[ix("b")], Trop::finite(1.0));
        assert_eq!(row2[ix("c")], Trop::finite(5.0));
        assert_eq!(row2[ix("d")], Trop::zero());
        // Row L(3): (0, 1, 4, 9).
        let row3 = &trace.iterates[3];
        assert_eq!(row3[ix("c")], Trop::finite(4.0));
        assert_eq!(row3[ix("d")], Trop::finite(9.0));
    }

    #[test]
    fn divergence_is_reported() {
        // x :- 1 + 2x over ℕ (eq. 29).
        use crate::ast::{Atom, Factor, SumProduct, Term};
        use dlo_pops::Nat;
        let mut p = crate::ast::Program::<Nat>::new();
        p.rule(
            Atom::new("X", vec![Term::c("u")]),
            vec![
                SumProduct::new(vec![]).with_coeff(Nat(1)),
                SumProduct::new(vec![Factor::atom("X", vec![Term::c("u")])]).with_coeff(Nat(2)),
            ],
        );
        let out = naive_eval(&p, &Database::new(), &BoolDatabase::new(), 30);
        assert!(!out.is_converged());
    }

    #[test]
    fn trace_render_contains_atoms_and_rows() {
        let (program, edb) = ex::sssp_trop("a");
        let sys = ground(&program, &edb, &BoolDatabase::new());
        let trace = naive_eval_trace(&sys, 100);
        let s = trace.render();
        assert!(s.contains("L(a)"));
        assert!(s.contains("J(0)"));
        assert!(s.contains("J(4)"));
    }
}
