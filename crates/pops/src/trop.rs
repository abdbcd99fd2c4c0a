//! The tropical semiring `Trop⁺ = (ℝ₊ ∪ {∞}, min, +, ∞, 0)` (Example 2.2).
//!
//! The POPS order `x ⊑ y` is the *reverse* numeric order `x ≥ y` (shortest
//! paths improve downward). `Trop⁺` is:
//!
//! * a **0-stable** semiring (`min(0, x) = 0`), so every datalog° program
//!   over it converges in at most `N` steps (Corollary 5.19) — even though
//!   `Trop⁺` does **not** satisfy the ascending chain condition
//!   (`1 > 1/2 > 1/3 > …` ascends forever in `⊑`);
//! * a complete distributive dioid, with difference (eq. 6)
//!   `v ⊖ u = v` if `v < u`, else `∞` — the key to tropical semi-naïve
//!   evaluation (eq. 7).

use crate::f64total::F64;
use crate::traits::*;

/// A tropical semiring element: a cost in `ℝ₊ ∪ {∞}`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Trop(pub F64);

impl Trop {
    /// The infinite cost `∞` (tropical `0` = `⊥`).
    pub const INF: Trop = Trop(F64::INFINITY);

    /// A finite non-negative cost.
    pub fn finite(x: f64) -> Trop {
        assert!(
            x >= 0.0 && x.is_finite(),
            "Trop requires non-negative finite costs, got {x}"
        );
        Trop(F64::of(x))
    }

    /// The underlying cost.
    pub fn get(&self) -> f64 {
        self.0.get()
    }

    /// Whether the cost is finite (i.e. the tuple is "present").
    pub fn is_finite(&self) -> bool {
        self.0.is_finite()
    }
}

impl PreSemiring for Trop {
    fn zero() -> Self {
        Trop::INF
    }
    fn one() -> Self {
        Trop(F64::ZERO)
    }
    fn add(&self, rhs: &Self) -> Self {
        Trop(self.0.min(rhs.0))
    }
    fn mul(&self, rhs: &Self) -> Self {
        Trop(self.0.add(rhs.0))
    }
}

impl Semiring for Trop {}
impl Dioid for Trop {}
impl NaturallyOrdered for Trop {}
// `min(0, x) = 0` on non-negative costs: every element is 0-stable, so
// worklist/priority evaluation applies (Cor. 5.19).
impl Absorptive for Trop {}

impl TotallyOrderedDioid for Trop {
    fn chain_cmp(&self, other: &Self) -> std::cmp::Ordering {
        // ⊑ is the reverse numeric order: smaller cost = further up.
        other.0.cmp(&self.0)
    }
}

impl Pops for Trop {
    const ABSORPTIVE_CHAIN: bool = true;

    fn bottom() -> Self {
        Trop::INF
    }
    fn leq(&self, rhs: &Self) -> bool {
        // ⊑ is the reverse numeric order.
        self.0 >= rhs.0
    }
}

impl CompleteDistributiveDioid for Trop {
    fn minus(&self, rhs: &Self) -> Self {
        // eq. (6): v ⊖ u = v if v < u (numerically), else ∞.
        if self.0 < rhs.0 {
            *self
        } else {
            Trop::INF
        }
    }
}

impl StarSemiring for Trop {
    fn star(&self) -> Self {
        // min(0, a, 2a, …) = 0 for a ≥ 0.
        Trop::one()
    }
}

impl UniformlyStable for Trop {
    fn uniform_stability_index() -> usize {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stability::is_p_stable;

    #[test]
    fn min_plus_ops() {
        assert_eq!(Trop::finite(3.0).add(&Trop::finite(5.0)), Trop::finite(3.0));
        assert_eq!(Trop::finite(3.0).mul(&Trop::finite(5.0)), Trop::finite(8.0));
        assert_eq!(Trop::INF.add(&Trop::finite(5.0)), Trop::finite(5.0));
        assert_eq!(Trop::INF.mul(&Trop::finite(5.0)), Trop::INF);
    }

    #[test]
    fn identities() {
        assert_eq!(Trop::zero(), Trop::INF);
        assert_eq!(Trop::one(), Trop::finite(0.0));
        assert!(Trop::zero().is_zero());
    }

    #[test]
    fn order_is_reversed() {
        assert!(Trop::INF.leq(&Trop::finite(7.0)));
        assert!(Trop::finite(7.0).leq(&Trop::finite(3.0)));
        assert!(!Trop::finite(3.0).leq(&Trop::finite(7.0)));
        assert!(Trop::bottom().is_bottom());
    }

    #[test]
    fn minus_eq_6() {
        // new value strictly better -> keep it; otherwise ∞ ("no change").
        assert_eq!(
            Trop::finite(3.0).minus(&Trop::finite(5.0)),
            Trop::finite(3.0)
        );
        assert_eq!(Trop::finite(5.0).minus(&Trop::finite(3.0)), Trop::INF);
        assert_eq!(Trop::finite(5.0).minus(&Trop::finite(5.0)), Trop::INF);
        assert_eq!(Trop::finite(5.0).minus(&Trop::INF), Trop::finite(5.0));
    }

    #[test]
    fn frontier_marker_laws_hold_on_samples() {
        // Law gate for the `Absorptive` / `TotallyOrderedDioid` markers
        // (the engine's worklist fast path trusts them): checked on a
        // sample spanning 0, small/large finite costs, and ∞.
        let sample: Vec<Trop> = [0.0, 0.25, 1.0, 3.5, 1e9]
            .iter()
            .map(|&c| Trop::finite(c))
            .chain([Trop::INF])
            .collect();
        let v = crate::checker::absorptive_laws_on(&sample);
        assert!(v.is_empty(), "{v:?}");
        let v = crate::checker::chain_order_laws_on(&sample);
        assert!(v.is_empty(), "{v:?}");
        const { assert!(Trop::ABSORPTIVE_CHAIN) };
        let v = crate::checker::absorptive_chain_laws_on(&sample);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn zero_stable_without_acc() {
        // 0-stable...
        assert!(is_p_stable(&Trop::finite(0.25), 0));
        // ...while 1 > 1/2 > 1/3 > ... is an infinite ascending ⊑-chain,
        // so ACC fails: stability does not require ACC (Sec. 5.1).
        let chain: Vec<Trop> = (1..100).map(|k| Trop::finite(1.0 / k as f64)).collect();
        for w in chain.windows(2) {
            assert!(w[0].strictly_below(&w[1]));
        }
    }
}
