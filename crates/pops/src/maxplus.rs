//! The max-plus (longest-path) dioid `(ℝ ∪ {±∞}, max, +, -∞, 0)`.
//!
//! The dual of the tropical semiring. It is a complete distributive dioid
//! (so semi-naïve applies) but **not stable**: any element `a > 0` has
//! `a^(p) = max(0, a, …, pa) = pa` strictly increasing, so datalog°
//! programs with positive cycles diverge — our stock divergence workload on
//! an otherwise well-behaved dioid.

use crate::f64total::F64;
use crate::traits::*;

/// A gain in `ℝ ∪ {±∞}`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct MaxPlus(pub F64);

impl MaxPlus {
    /// `-∞`, the additive identity (= `⊥`).
    pub const NEG_INF: MaxPlus = MaxPlus(F64::NEG_INFINITY);
    /// `+∞`, the top element (needed for completeness of the lattice).
    pub const POS_INF: MaxPlus = MaxPlus(F64::INFINITY);

    /// A finite gain.
    pub fn finite(x: f64) -> MaxPlus {
        assert!(x.is_finite());
        MaxPlus(F64::of(x))
    }
}

impl PreSemiring for MaxPlus {
    fn zero() -> Self {
        MaxPlus::NEG_INF
    }
    fn one() -> Self {
        MaxPlus(F64::ZERO)
    }
    fn add(&self, rhs: &Self) -> Self {
        MaxPlus(self.0.max(rhs.0))
    }
    fn mul(&self, rhs: &Self) -> Self {
        // -∞ absorbs (even against +∞: -∞ + x = -∞).
        if self.0 == F64::NEG_INFINITY || rhs.0 == F64::NEG_INFINITY {
            return MaxPlus::NEG_INF;
        }
        MaxPlus(self.0.add(rhs.0))
    }
}

impl Semiring for MaxPlus {}
impl Dioid for MaxPlus {}
impl NaturallyOrdered for MaxPlus {}

// Deliberately NOT `Absorptive`: `max(0, a) = a ≠ 0` for `a > 0`, so
// positive elements are not 0-stable and worklist termination is not
// guaranteed (positive cycles improve forever). The natural order is
// still total, so MaxPlus can rank values — engines may use the order,
// but the Dijkstra settled-on-pop argument does not apply.
impl TotallyOrderedDioid for MaxPlus {
    fn chain_cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.cmp(&other.0)
    }
}

impl Pops for MaxPlus {
    fn bottom() -> Self {
        MaxPlus::NEG_INF
    }
    fn leq(&self, rhs: &Self) -> bool {
        self.0 <= rhs.0
    }
}

impl CompleteDistributiveDioid for MaxPlus {
    fn minus(&self, rhs: &Self) -> Self {
        // b ⊖ a = ⋀{c | max(a,c) ≥ b} = -∞ if a ≥ b else b.
        if rhs.0 >= self.0 {
            MaxPlus::NEG_INF
        } else {
            *self
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stability::element_stability_index;

    #[test]
    fn max_plus_ops() {
        assert_eq!(
            MaxPlus::finite(3.0).add(&MaxPlus::finite(5.0)),
            MaxPlus::finite(5.0)
        );
        assert_eq!(
            MaxPlus::finite(3.0).mul(&MaxPlus::finite(5.0)),
            MaxPlus::finite(8.0)
        );
        assert_eq!(
            MaxPlus::NEG_INF.mul(&MaxPlus::finite(5.0)),
            MaxPlus::NEG_INF
        );
    }

    #[test]
    fn positive_elements_unstable() {
        assert_eq!(element_stability_index(&MaxPlus::finite(1.0), 50), None);
        // Non-positive gains are 0-stable: max(0, a) = 0.
        assert_eq!(element_stability_index(&MaxPlus::finite(-2.0), 50), Some(0));
        assert_eq!(element_stability_index(&MaxPlus::finite(0.0), 50), Some(0));
    }

    #[test]
    fn chain_order_law_holds_but_absorption_fails() {
        let sample: Vec<MaxPlus> = [-2.0, 0.0, 1.0, 5.0]
            .iter()
            .map(|&c| MaxPlus::finite(c))
            .chain([MaxPlus::NEG_INF, MaxPlus::POS_INF])
            .collect();
        // The total order is sound…
        let v = crate::checker::chain_order_laws_on(&sample);
        assert!(v.is_empty(), "{v:?}");
        // …but `x ⊕ 1 = 1` fails for positive gains, which is exactly
        // why MaxPlus must not carry the `Absorptive` marker: a
        // worklist over it has no termination guarantee.
        assert_ne!(MaxPlus::finite(5.0).add(&MaxPlus::one()), MaxPlus::one());
        const { assert!(!MaxPlus::ABSORPTIVE_CHAIN) };
        assert!(!crate::checker::absorptive_chain_laws_on(&sample).is_empty());
    }

    #[test]
    fn minus_dual_of_trop() {
        assert_eq!(
            MaxPlus::finite(5.0).minus(&MaxPlus::finite(3.0)),
            MaxPlus::finite(5.0)
        );
        assert_eq!(
            MaxPlus::finite(3.0).minus(&MaxPlus::finite(5.0)),
            MaxPlus::NEG_INF
        );
    }
}
