//! Exhaustive algebraic-law checker for finite structures.
//!
//! For structures with a [`FiniteCarrier`], verifies the definitions of
//! Sec. 2 and Sec. 6 literally: pre-semiring laws (Def. 2.1), absorption,
//! POPS laws (Def. 2.3 — poset axioms, `⊥` minimum, monotonicity of `⊕`/`⊗`,
//! strictness of `⊗`), dioid idempotency, Proposition 6.1 (a dioid's `⊕` is
//! the lub of its natural order), the natural-order coincidence for
//! [`NaturallyOrdered`] markers, and Lemma 6.3's difference laws
//! (58)–(60). Infinite structures get the same laws via sampled property
//! tests elsewhere.

use crate::traits::*;

/// A law violation found by the checker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Which law failed (human-readable).
    pub law: String,
}

fn check<T>(violations: &mut Vec<Violation>, ok: bool, law: impl FnOnce() -> String, _w: &T) {
    if !ok {
        violations.push(Violation { law: law() });
    }
}

/// Checks the commutative pre-semiring laws (Definition 2.1) exhaustively.
pub fn pre_semiring_laws<S: PreSemiring + FiniteCarrier>() -> Vec<Violation> {
    let mut v = vec![];
    let c = S::carrier();
    let zero = S::zero();
    let one = S::one();
    for x in &c {
        check(&mut v, &x.add(&zero) == x, || format!("{x:?} ⊕ 0 = x"), x);
        check(&mut v, &x.mul(&one) == x, || format!("{x:?} ⊗ 1 = x"), x);
        for y in &c {
            check(
                &mut v,
                x.add(y) == y.add(x),
                || format!("⊕ comm {x:?} {y:?}"),
                x,
            );
            check(
                &mut v,
                x.mul(y) == y.mul(x),
                || format!("⊗ comm {x:?} {y:?}"),
                x,
            );
            for z in &c {
                check(
                    &mut v,
                    x.add(y).add(z) == x.add(&y.add(z)),
                    || format!("⊕ assoc {x:?} {y:?} {z:?}"),
                    x,
                );
                check(
                    &mut v,
                    x.mul(y).mul(z) == x.mul(&y.mul(z)),
                    || format!("⊗ assoc {x:?} {y:?} {z:?}"),
                    x,
                );
                check(
                    &mut v,
                    x.mul(&y.add(z)) == x.mul(y).add(&x.mul(z)),
                    || format!("distributivity {x:?} {y:?} {z:?}"),
                    x,
                );
            }
        }
    }
    v
}

/// Checks the absorption rule `0 ⊗ x = 0` (semiring, Definition 2.1).
pub fn absorption_law<S: Semiring + FiniteCarrier>() -> Vec<Violation> {
    let mut v = vec![];
    let zero = S::zero();
    for x in S::carrier() {
        check(
            &mut v,
            zero.mul(&x) == zero,
            || format!("0 ⊗ {x:?} = 0"),
            &x,
        );
    }
    v
}

/// Checks the absorptive-dioid law `x ⊕ 1 = 1` (every element 0-stable,
/// Sec. 5.1) on an explicit sample — the [`Absorptive`] contract for
/// structures whose carrier is infinite (`Trop⁺`, `MinNat`, …).
pub fn absorptive_laws_on<S: Absorptive>(sample: &[S]) -> Vec<Violation> {
    let mut v = vec![];
    let one = S::one();
    for x in sample {
        check(
            &mut v,
            x.add(&one) == one,
            || format!("absorptive: {x:?} ⊕ 1 = 1"),
            x,
        );
        // Equivalent reading used by the frontier engine: every element
        // sits below 1 in the natural order, so ⊗ never improves.
        check(&mut v, x.leq(&one), || format!("absorptive: {x:?} ⊑ 1"), x);
    }
    v
}

/// [`absorptive_laws_on`] over a full finite carrier.
pub fn absorptive_laws<S: Absorptive + FiniteCarrier>() -> Vec<Violation> {
    absorptive_laws_on(&S::carrier())
}

/// Checks the [`Pops::ABSORPTIVE_CHAIN`] contract on an explicit sample:
/// `x ⊕ 1 = 1` and `x ⊑ 1` for every `x`, `⊑` total, and `x ⊕ y` the
/// ⊑-greater of `x` and `y` — so a ⊕-sum is one of its terms. Needs no
/// marker trait: it checks what a `true` const claims, whatever the
/// type wears.
pub fn absorptive_chain_laws_on<P: Pops>(sample: &[P]) -> Vec<Violation> {
    let mut v = vec![];
    let one = P::one();
    for x in sample {
        check(&mut v, x.add(&one) == one, || format!("{x:?} ⊕ 1 = 1"), x);
        check(&mut v, x.leq(&one), || format!("{x:?} ⊑ 1"), x);
        for y in sample {
            check(
                &mut v,
                x.leq(y) || y.leq(x),
                || format!("⊑ total at {x:?}, {y:?}"),
                x,
            );
            let greater = if x.leq(y) { y } else { x };
            check(
                &mut v,
                &x.add(y) == greater,
                || format!("{x:?} ⊕ {y:?} is the ⊑-greater"),
                x,
            );
        }
    }
    v
}

/// Checks the [`TotallyOrderedDioid`] contract on an explicit sample:
/// `chain_cmp` must be a total order that *coincides* with `⊑`
/// (`Less` ⟺ strictly below, `Equal` ⟺ equal), which also forces `⊑`
/// itself to be total on the sample.
pub fn chain_order_laws_on<S: TotallyOrderedDioid>(sample: &[S]) -> Vec<Violation> {
    use std::cmp::Ordering;
    let mut v = vec![];
    for x in sample {
        for y in sample {
            let c = x.chain_cmp(y);
            check(
                &mut v,
                (c == Ordering::Equal) == (x == y),
                || format!("chain_cmp Equal ⟺ == at {x:?}, {y:?}"),
                x,
            );
            check(
                &mut v,
                (c != Ordering::Greater) == x.leq(y),
                || format!("chain_cmp coincides with ⊑ at {x:?}, {y:?}"),
                x,
            );
            check(
                &mut v,
                c == y.chain_cmp(x).reverse(),
                || format!("chain_cmp antisymmetric at {x:?}, {y:?}"),
                x,
            );
            for z in sample {
                if x.chain_cmp(y) != Ordering::Greater && y.chain_cmp(z) != Ordering::Greater {
                    check(
                        &mut v,
                        x.chain_cmp(z) != Ordering::Greater,
                        || format!("chain_cmp transitive at {x:?}, {y:?}, {z:?}"),
                        x,
                    );
                }
            }
        }
    }
    v
}

/// [`chain_order_laws_on`] over a full finite carrier.
pub fn chain_order_laws<S: TotallyOrderedDioid + FiniteCarrier>() -> Vec<Violation> {
    chain_order_laws_on(&S::carrier())
}

/// Checks the POPS laws (Definition 2.3): partial order, minimum `⊥`,
/// monotone `⊕`/`⊗`, and strictness `x ⊗ ⊥ = ⊥`.
pub fn pops_laws<P: Pops + FiniteCarrier>() -> Vec<Violation> {
    let mut v = vec![];
    let c = P::carrier();
    let bot = P::bottom();
    for x in &c {
        check(&mut v, x.leq(x), || format!("reflexive {x:?}"), x);
        check(&mut v, bot.leq(x), || format!("⊥ ⊑ {x:?}"), x);
        for y in &c {
            check(
                &mut v,
                !(x.leq(y) && y.leq(x)) || x == y,
                || format!("antisymmetry {x:?} {y:?}"),
                x,
            );
            for z in &c {
                check(
                    &mut v,
                    !(x.leq(y) && y.leq(z)) || x.leq(z),
                    || format!("transitivity {x:?} {y:?} {z:?}"),
                    x,
                );
            }
        }
    }
    // Monotonicity of ⊕ and ⊗.
    for x in &c {
        for x2 in &c {
            if !x.leq(x2) {
                continue;
            }
            for y in &c {
                for y2 in &c {
                    if !y.leq(y2) {
                        continue;
                    }
                    check(
                        &mut v,
                        x.add(y).leq(&x2.add(y2)),
                        || format!("⊕ monotone {x:?}⊑{x2:?}, {y:?}⊑{y2:?}"),
                        x,
                    );
                    check(
                        &mut v,
                        x.mul(y).leq(&x2.mul(y2)),
                        || format!("⊗ monotone {x:?}⊑{x2:?}, {y:?}⊑{y2:?}"),
                        x,
                    );
                }
            }
        }
    }
    v
}

/// Checks strictness of `⊗` (`x ⊗ ⊥ = ⊥`) — assumed "throughout the paper
/// unless otherwise stated" (Sec. 2.1). `THREE` and `FOUR` are the stated
/// exceptions: there `0 ∧ ⊥ = 0`.
pub fn strictness_law<P: Pops + FiniteCarrier>() -> Vec<Violation> {
    let mut v = vec![];
    let bot = P::bottom();
    for x in P::carrier() {
        check(
            &mut v,
            x.mul(&bot) == bot,
            || format!("strictness {x:?} ⊗ ⊥ = ⊥"),
            &x,
        );
    }
    v
}

/// Checks dioid idempotency `a ⊕ a = a` (Sec. 6.1).
pub fn dioid_laws<S: Dioid + FiniteCarrier>() -> Vec<Violation> {
    let mut v = vec![];
    for x in S::carrier() {
        check(&mut v, x.add(&x) == x, || format!("{x:?} ⊕ x = x"), &x);
    }
    v
}

/// Whether `x ⪯ y` in the natural preorder: `∃z. x ⊕ z = y` (Sec. 2.1),
/// decided by enumeration of the finite carrier.
pub fn natural_preorder<S: PreSemiring + FiniteCarrier>(x: &S, y: &S) -> bool {
    S::carrier().iter().any(|z| &x.add(z) == y)
}

/// Checks that the POPS order coincides with the natural order and that
/// `⊥ = 0` (the [`NaturallyOrdered`] contract).
pub fn naturally_ordered_laws<S: NaturallyOrdered + FiniteCarrier>() -> Vec<Violation> {
    let mut v = vec![];
    check(
        &mut v,
        S::bottom() == S::zero(),
        || "⊥ = 0".to_string(),
        &(),
    );
    let c = S::carrier();
    for x in &c {
        for y in &c {
            check(
                &mut v,
                x.leq(y) == natural_preorder(x, y),
                || format!("⊑ = natural order at {x:?}, {y:?}"),
                x,
            );
        }
    }
    v
}

/// Checks Proposition 6.1 for dioids: `a ⊑ b ⟺ a ⊕ b = b`, and `⊕` is the
/// least upper bound of the natural order.
pub fn proposition_6_1<S: Dioid + Pops + FiniteCarrier>() -> Vec<Violation> {
    let mut v = vec![];
    let c = S::carrier();
    for a in &c {
        for b in &c {
            check(
                &mut v,
                a.leq(b) == (&a.add(b) == b),
                || format!("a ⊑ b ⟺ a⊕b=b at {a:?}, {b:?}"),
                a,
            );
            // a ⊕ b is an upper bound ...
            let s = a.add(b);
            check(
                &mut v,
                a.leq(&s) && b.leq(&s),
                || format!("⊕ ub {a:?} {b:?}"),
                a,
            );
            // ... and the least one.
            for u in &c {
                check(
                    &mut v,
                    !(a.leq(u) && b.leq(u)) || s.leq(u),
                    || format!("⊕ lub {a:?} {b:?} vs {u:?}"),
                    a,
                );
            }
        }
    }
    v
}

/// Checks the difference-operator laws: definition (58) against brute-force
/// meet, and Lemma 6.3's identities (59) and (60).
pub fn difference_laws<S: CompleteDistributiveDioid + FiniteCarrier>() -> Vec<Violation> {
    let mut v = vec![];
    let c = S::carrier();
    for b in &c {
        for a in &c {
            let d = b.minus(a);
            // (58): b ⊖ a = ⋀{c | a ⊕ c ⊒ b}; brute-force the meet.
            let candidates: Vec<&S> = c.iter().filter(|x| b.leq(&a.add(x))).collect();
            check(
                &mut v,
                candidates.contains(&&d),
                || format!("(58) witness: {b:?} ⊖ {a:?} = {d:?} must satisfy a ⊕ d ⊒ b"),
                b,
            );
            check(
                &mut v,
                candidates.iter().all(|x| d.leq(x)),
                || format!("(58) minimality of {b:?} ⊖ {a:?}"),
                b,
            );
            // (59): a ⊑ b ⟹ a ⊕ (b ⊖ a) = b.
            if a.leq(b) {
                check(
                    &mut v,
                    a.add(&d) == *b,
                    || format!("(59) at a={a:?} b={b:?}"),
                    b,
                );
            }
            // (60): (a ⊕ b) ⊖ (a ⊕ c) = b ⊖ (a ⊕ c).
            for x in &c {
                let lhs = a.add(b).minus(&a.add(x));
                let rhs = b.minus(&a.add(x));
                check(
                    &mut v,
                    lhs == rhs,
                    || format!("(60) at a={a:?} b={b:?} c={x:?}"),
                    b,
                );
            }
        }
    }
    v
}

/// Checks Proposition 5.2 on a finite semiring: if `1` is p-stable for some
/// `p ≤ |S|`, the natural preorder is antisymmetric (a partial order).
pub fn proposition_5_2<S: Semiring + FiniteCarrier>() -> Vec<Violation> {
    let mut v = vec![];
    let cap = S::carrier().len() + 1;
    if crate::stability::element_stability_index(&S::one(), cap).is_some() {
        let c = S::carrier();
        for x in &c {
            for y in &c {
                check(
                    &mut v,
                    !(natural_preorder(x, y) && natural_preorder(y, x)) || x == y,
                    || format!("natural order antisymmetric at {x:?}, {y:?}"),
                    x,
                );
            }
        }
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::boolean::Bool;
    use crate::completed::Completed;
    use crate::four::Four;
    use crate::lifted::LiftedBool;
    use crate::powerset::PowerSet;
    use crate::three::Three;

    fn assert_clean(vs: Vec<Violation>, what: &str) {
        assert!(vs.is_empty(), "{what}: {:?}", &vs[..vs.len().min(5)]);
    }

    #[test]
    fn bool_all_laws() {
        assert_clean(pre_semiring_laws::<Bool>(), "bool pre-semiring");
        assert_clean(absorption_law::<Bool>(), "bool absorption");
        assert_clean(pops_laws::<Bool>(), "bool pops");
        assert_clean(strictness_law::<Bool>(), "bool strictness");
        assert_clean(dioid_laws::<Bool>(), "bool dioid");
        assert_clean(naturally_ordered_laws::<Bool>(), "bool natural order");
        assert_clean(proposition_6_1::<Bool>(), "bool prop 6.1");
        assert_clean(difference_laws::<Bool>(), "bool minus");
        assert_clean(proposition_5_2::<Bool>(), "bool prop 5.2");
        // The frontier-engine gates, exhaustively on the full carrier.
        assert_clean(absorptive_laws::<Bool>(), "bool absorptive");
        assert_clean(chain_order_laws::<Bool>(), "bool chain order");
        const { assert!(Bool::ABSORPTIVE_CHAIN) };
        assert_clean(absorptive_chain_laws_on(&Bool::carrier()), "bool chain");
    }

    /// A deliberately *wrong* pair of marker impls: max-plus naturals,
    /// which are a perfectly good totally ordered dioid but are **not**
    /// absorptive (`max(0, a) = a` for `a > 0`), wearing the
    /// `Absorptive` marker and the `ABSORPTIVE_CHAIN` const anyway — and
    /// a `chain_cmp` that disagrees with `⊑`. The law checkers must catch
    /// all three; this is the gate that keeps a mis-marked POPS out of
    /// the engine's fast path and its attaining deletes.
    #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
    struct BadMaxNat(u64);

    impl PreSemiring for BadMaxNat {
        fn zero() -> Self {
            BadMaxNat(0)
        }
        fn one() -> Self {
            BadMaxNat(1)
        }
        fn add(&self, rhs: &Self) -> Self {
            BadMaxNat(self.0.max(rhs.0))
        }
        fn mul(&self, rhs: &Self) -> Self {
            BadMaxNat(self.0.saturating_mul(rhs.0))
        }
    }
    impl Semiring for BadMaxNat {}
    impl Dioid for BadMaxNat {}
    impl Pops for BadMaxNat {
        const ABSORPTIVE_CHAIN: bool = true; // WRONG: not absorptive
        fn bottom() -> Self {
            BadMaxNat(0)
        }
        fn leq(&self, rhs: &Self) -> bool {
            self.0 <= rhs.0
        }
    }
    impl Absorptive for BadMaxNat {} // WRONG: max(1, 5) = 5 ≠ 1
    impl TotallyOrderedDioid for BadMaxNat {
        fn chain_cmp(&self, other: &Self) -> std::cmp::Ordering {
            other.0.cmp(&self.0) // WRONG: reversed against ⊑
        }
    }

    #[test]
    fn wrong_marker_impls_fail_the_law_gates() {
        let sample: Vec<BadMaxNat> = (0..6).map(BadMaxNat).collect();
        assert!(
            !absorptive_laws_on(&sample).is_empty(),
            "a non-absorptive dioid wearing Absorptive must be caught"
        );
        assert!(
            !chain_order_laws_on(&sample).is_empty(),
            "a chain_cmp disagreeing with ⊑ must be caught"
        );
        const { assert!(BadMaxNat::ABSORPTIVE_CHAIN) };
        assert!(
            !absorptive_chain_laws_on(&sample).is_empty(),
            "a non-absorptive chain claiming ABSORPTIVE_CHAIN must be caught"
        );
    }

    #[test]
    fn three_laws() {
        assert_clean(pre_semiring_laws::<Three>(), "three pre-semiring");
        assert_clean(absorption_law::<Three>(), "three absorption");
        assert_clean(pops_laws::<Three>(), "three pops");
        assert_clean(dioid_laws::<Three>(), "three dioid");
        // THREE is the paper's stated exception to strictness: 0 ∧ ⊥ = 0.
        assert!(!strictness_law::<Three>().is_empty());
        // THREE is ordered by knowledge, NOT by its natural (truth) order:
        // 0 ⪯ 1 naturally (0 ∨ 1 = 1) but 0 ⋢_k 1.
        assert!(natural_preorder(&Three::False, &Three::True));
        assert!(!Three::False.leq(&Three::True));
    }

    #[test]
    fn four_laws() {
        assert_clean(pre_semiring_laws::<Four>(), "four pre-semiring");
        assert_clean(absorption_law::<Four>(), "four absorption");
        assert_clean(pops_laws::<Four>(), "four pops");
        assert_clean(dioid_laws::<Four>(), "four dioid");
        assert!(!strictness_law::<Four>().is_empty());
    }

    #[test]
    fn lifted_bool_laws() {
        assert_clean(pre_semiring_laws::<LiftedBool>(), "B⊥ pre-semiring");
        assert_clean(pops_laws::<LiftedBool>(), "B⊥ pops");
        assert_clean(strictness_law::<LiftedBool>(), "B⊥ strictness");
        // Lifted structures are not semirings: absorption fails at ⊥.
        use crate::traits::{Pops, PreSemiring};
        assert_ne!(
            LiftedBool::zero().mul(&LiftedBool::bottom()),
            LiftedBool::zero()
        );
    }

    #[test]
    fn completed_bool_laws() {
        assert_clean(pre_semiring_laws::<Completed<Bool>>(), "B⊥⊤ pre-semiring");
        assert_clean(pops_laws::<Completed<Bool>>(), "B⊥⊤ pops");
    }

    #[test]
    fn powerset_bool_laws() {
        assert_clean(pre_semiring_laws::<PowerSet<Bool>>(), "P(B) pre-semiring");
        assert_clean(pops_laws::<PowerSet<Bool>>(), "P(B) pops");
    }
}
