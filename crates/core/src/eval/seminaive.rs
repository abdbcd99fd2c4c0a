//! Semi-naïve evaluation (Sec. 6, Algorithm 3 + the differential rule of
//! Theorem 6.5).
//!
//! Requires the POPS to be a [`CompleteDistributiveDioid`] (Definition 6.2)
//! so the difference `b ⊖ a` (eq. 58) exists. Per iteration, instead of
//! re-evaluating every polynomial, only the monomials *touched* by a
//! non-zero delta are expanded, each through the prefix-new / delta /
//! suffix-old form of eq. (64):
//!
//! ```text
//! acc_i  = ⊕_{monomials m of f_i} ⊕_{positions k, δ(v_k) ≠ 0}
//!              c ⊗ Π_{j<k} new(v_j) ⊗ δ(v_k) ⊗ Π_{j>k} old(v_j)
//! δ'_i   = acc_i ⊖ J_i                 (eq. 63/64)
//! J'_i   = J_i ⊕ acc_i                 (Algorithm 3 update)
//! ```
//!
//! Idempotence of `⊕` and absorption of `0` make this equal to
//! `F_i(J) ⊖ J_i` (the expansion identity behind Theorem 6.5), and
//! Theorem 6.4 guarantees the final answer equals the naïve one.

use super::{to_outcome, EvalOutcome};
use crate::ast::Program;
use crate::ground::{eval_closed, GroundSystem};
use crate::relation::{BoolDatabase, Database};
use dlo_pops::{CompleteDistributiveDioid, NaturallyOrdered};

/// Work counters for comparing evaluation strategies (experiment E20).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WorkStats {
    /// Number of monomial evaluations (naïve) or differential monomial
    /// expansions (semi-naïve) performed.
    pub monomial_evals: u64,
    /// Number of outer iterations.
    pub iterations: u64,
}

/// Incidence index: for each variable, the `(poly, monomial)` pairs whose
/// monomial mentions it.
fn build_incidence<P: dlo_pops::Pops>(sys: &GroundSystem<P>) -> Vec<Vec<(usize, usize)>> {
    let mut inc: Vec<Vec<(usize, usize)>> = vec![vec![]; sys.num_vars()];
    for (i, poly) in sys.polys.iter().enumerate() {
        let Some(poly) = poly else { continue };
        for (j, m) in poly.monomials.iter().enumerate() {
            let mut seen_vars: Vec<usize> = vec![];
            for occ in &m.occs {
                if !seen_vars.contains(&occ.var) {
                    seen_vars.push(occ.var);
                    inc[occ.var].push((i, j));
                }
            }
        }
    }
    inc
}

/// Runs Algorithm 3 on a pre-grounded system, returning the outcome and
/// work statistics.
pub fn seminaive_eval_system<P: CompleteDistributiveDioid>(
    sys: &GroundSystem<P>,
    cap: usize,
) -> (EvalOutcome<P>, WorkStats) {
    let n = sys.num_vars();
    let mut stats = WorkStats::default();
    let incidence = build_incidence(sys);

    // t = 0: full evaluation from ⊥ (= 0 in a dioid).
    let mut old = sys.bottom();
    let mut new = vec![P::zero(); n];
    let mut delta = vec![P::zero(); n];
    let mut dirty: Vec<usize> = vec![];
    for i in 0..n {
        if let Some(poly) = &sys.polys[i] {
            stats.monomial_evals += poly.monomials.len() as u64;
            let v = poly.eval(&old);
            delta[i] = v.minus(&old[i]);
            new[i] = old[i].add(&v);
            if !delta[i].is_zero() {
                dirty.push(i);
            }
        }
    }
    stats.iterations = 1;

    // Persistent scratch buffers keep each iteration's cost proportional
    // to the touched set rather than to N.
    let mut acc: Vec<Option<P>> = vec![None; n];
    let mut touched: Vec<(usize, usize)> = Vec::new();
    for steps in 1..=cap {
        if dirty.is_empty() {
            // δ = 0: J(t+1) = J(t); done.
            return (to_outcome(sys, Ok((new, steps)), cap), stats);
        }
        // Gather the polynomials touched by a dirty variable.
        touched.clear();
        for &v in &dirty {
            touched.extend_from_slice(&incidence[v]);
        }
        touched.sort_unstable();
        touched.dedup();

        for &(i, j) in &touched {
            let poly = sys.polys[i].as_ref().expect("touched poly exists");
            let m = &poly.monomials[j];
            stats.monomial_evals += 1;
            let contrib = m.eval_differential(&new, &old, &delta);
            let slot = acc[i].get_or_insert_with(P::zero);
            *slot = slot.add(&contrib);
        }

        // Advance. `old` differs from `new` exactly on last round's dirty
        // set, so patching those entries makes old = J(t) in O(|dirty|);
        // then only touched heads can change:
        //   new[i] ← new[i] ⊕ a,  δ[i] ← a ⊖ new[i].
        for &v in &dirty {
            old[v] = new[v].clone();
            delta[v] = P::zero();
        }
        dirty.clear();
        let mut last_head = usize::MAX;
        for &(i, _) in &touched {
            if i == last_head {
                continue;
            }
            last_head = i;
            if let Some(a) = acc[i].take() {
                let d = a.minus(&new[i]);
                if !d.is_zero() {
                    delta[i] = d;
                    dirty.push(i);
                    new[i] = new[i].add(&a);
                }
            }
        }
        stats.iterations += 1;
    }
    (to_outcome(sys, Err(new), cap), stats)
}

/// Grounds (sparse) and evaluates with the semi-naïve algorithm, closing
/// over the constants head key functions mint (`crate::ground`'s module
/// docs). The `NaturallyOrdered` bound justifies sparse grounding; every
/// complete distributive dioid is naturally ordered (Prop. 6.1), so this
/// is the natural pairing.
pub fn seminaive_eval<P: CompleteDistributiveDioid + NaturallyOrdered>(
    program: &Program<P>,
    pops_edb: &Database<P>,
    bool_edb: &BoolDatabase,
    cap: usize,
) -> EvalOutcome<P> {
    eval_closed(program, pops_edb, bool_edb, true, cap, |sys| {
        seminaive_eval_system(sys, cap).0
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::naive::{naive_eval_system, naive_eval_trace};
    use crate::examples_lib as ex;
    use crate::ground::ground_sparse;
    use dlo_pops::Trop;

    #[test]
    fn theorem_6_4_sssp_seminaive_equals_naive() {
        let (program, edb) = ex::sssp_trop("a");
        let bools = BoolDatabase::new();
        let sys = ground_sparse(&program, &edb, &bools);
        let naive = naive_eval_system(&sys, 1000).unwrap();
        let (semi, _) = seminaive_eval_system(&sys, 1000);
        assert_eq!(naive, semi.unwrap());
    }

    #[test]
    fn theorem_6_4_quadratic_tc_equals_naive() {
        // Example 6.6: non-linear transitive closure over 𝔹.
        let (program, edb) =
            ex::quadratic_tc_bool(&[("a", "b"), ("b", "c"), ("c", "d"), ("d", "b")]);
        let bools = BoolDatabase::new();
        let sys = ground_sparse(&program, &edb, &bools);
        let naive = naive_eval_system(&sys, 1000).unwrap();
        let (semi, stats) = seminaive_eval_system(&sys, 1000);
        assert_eq!(naive, semi.unwrap());
        assert!(stats.iterations >= 2);
    }

    #[test]
    fn seminaive_does_less_monomial_work_than_naive() {
        // A longer path so naive repeats discovered work many times.
        let chain: Vec<(String, String)> = (0..30)
            .map(|i| (format!("n{i}"), format!("n{}", i + 1)))
            .collect();
        let pairs: Vec<(&str, &str)> = chain
            .iter()
            .map(|(a, b)| (a.as_str(), b.as_str()))
            .collect();
        let (program, edb) = ex::sssp_trop_graph("n0", &pairs, |_| 1.0);
        let sys = ground_sparse(&program, &edb, &BoolDatabase::new());
        // Naive work: monomials × iterations.
        let trace = naive_eval_trace(&sys, 1000);
        let naive_work = (sys.num_monomials() * (trace.iterates.len())) as u64;
        let (out, stats) = seminaive_eval_system(&sys, 1000);
        assert!(out.is_converged());
        assert!(
            stats.monomial_evals * 2 < naive_work,
            "semi-naive {} should be well under naive {}",
            stats.monomial_evals,
            naive_work
        );
    }

    #[test]
    fn converges_immediately_on_empty_program() {
        let sys = ground_sparse(
            &crate::ast::Program::<Trop>::new(),
            &Database::new(),
            &BoolDatabase::new(),
        );
        let (out, stats) = seminaive_eval_system(&sys, 10);
        assert!(out.is_converged());
        assert_eq!(stats.iterations, 1);
    }
}
