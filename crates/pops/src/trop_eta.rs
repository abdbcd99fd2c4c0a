//! The stable but not uniformly stable semiring `Trop⁺_{≤η}` (Example 2.10).
//!
//! Elements are nonempty finite *sets* `x ⊆ ℕ ∪ {∞}` with
//! `max(x) ≤ min(x) + η`; `x ⊕ y = min_{≤η}(x ∪ y)` and
//! `x ⊗ y = min_{≤η}(x + y)` where `min_{≤η}` retains the elements within
//! `η` of the minimum. A datalog° program over `Trop⁺_{≤η}` computes all
//! path lengths within `η` of the shortest (Example 4.1).
//!
//! **Stability (Proposition 5.4):** every element is stable (index
//! `⌈η/x₀⌉` where `x₀` is the least nonzero member), but no single `p`
//! works for all elements — `{a}` with `a < η/(p+1)` defeats any `p`.
//!
//! *Substitution note:* the paper uses real costs; we use
//! integer costs with a const-generic `η`, which preserves every stability
//! phenomenon while keeping elements exactly comparable.

use crate::traits::*;
use std::collections::BTreeSet;

/// Integer cost with `u64::MAX` playing the role of `∞`.
pub type Cost = u64;
/// The infinite cost.
pub const INF_COST: Cost = u64::MAX;

fn sat_add(a: Cost, b: Cost) -> Cost {
    a.saturating_add(b)
}

/// A `Trop⁺_{≤η}` element: a nonempty set of costs within `η` of its min.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct TropEta<const ETA: u64> {
    /// Invariant: nonempty; all members `≤ min + η` (with `∞` allowed only
    /// when it is the minimum, i.e. the singleton `{∞}`).
    set: BTreeSet<Cost>,
}

impl<const ETA: u64> TropEta<ETA> {
    /// Builds an element from arbitrary costs, applying `min_{≤η}`.
    pub fn from_costs(costs: &[Cost]) -> Self {
        assert!(!costs.is_empty(), "TropEta elements are nonempty sets");
        Self::min_eta(costs.iter().copied().collect())
    }

    /// The singleton `{c}`.
    pub fn singleton(c: Cost) -> Self {
        TropEta {
            set: std::iter::once(c).collect(),
        }
    }

    /// `min_{≤η}(x)`: retain members within `η` of the minimum.
    fn min_eta(set: BTreeSet<Cost>) -> Self {
        let min = *set.iter().next().expect("nonempty");
        let cutoff = sat_add(min, ETA);
        TropEta {
            set: set.into_iter().take_while(|&c| c <= cutoff).collect(),
        }
    }

    /// The member costs, ascending.
    pub fn costs(&self) -> impl Iterator<Item = Cost> + '_ {
        self.set.iter().copied()
    }

    /// The minimum cost.
    pub fn min_cost(&self) -> Cost {
        *self.set.iter().next().expect("nonempty")
    }
}

impl<const ETA: u64> PreSemiring for TropEta<ETA> {
    fn zero() -> Self {
        Self::singleton(INF_COST)
    }
    fn one() -> Self {
        Self::singleton(0)
    }
    fn add(&self, rhs: &Self) -> Self {
        Self::min_eta(self.set.union(&rhs.set).copied().collect())
    }
    fn mul(&self, rhs: &Self) -> Self {
        let mut sums = BTreeSet::new();
        for &a in &self.set {
            for &b in &rhs.set {
                sums.insert(sat_add(a, b));
            }
        }
        Self::min_eta(sums)
    }
}

impl<const ETA: u64> Semiring for TropEta<ETA> {}
impl<const ETA: u64> Dioid for TropEta<ETA> {}
impl<const ETA: u64> NaturallyOrdered for TropEta<ETA> {}

impl<const ETA: u64> Pops for TropEta<ETA> {
    fn bottom() -> Self {
        Self::zero()
    }

    /// Natural order: `x ⊑ y ⟺ ∃z. min_{≤η}(x ∪ z) = y`, which holds iff
    /// `min(y) ≤ min(x)` and every member of `x` within `η` of `min(y)`
    /// belongs to `y` (verified against brute force in tests).
    fn leq(&self, rhs: &Self) -> bool {
        let ymin = rhs.min_cost();
        if ymin > self.min_cost() {
            return false;
        }
        let cutoff = sat_add(ymin, ETA);
        self.set
            .iter()
            .take_while(|&&u| u <= cutoff)
            .all(|u| rhs.set.contains(u))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stability::{element_stability_index, is_p_stable};

    // η = 6 stands in for the paper's η = 6.5 (integer costs).
    type T = TropEta<6>;

    #[test]
    fn example_2_10_ops() {
        // Paper (η=6.5): {3,7} ⊕ {5,9,10} = {3,5,7,9}; with η=6 identical.
        let x = T::from_costs(&[3, 7]);
        let y = T::from_costs(&[5, 9, 10]);
        assert_eq!(x.add(&y), T::from_costs(&[3, 5, 7, 9]));
        // {1,6} ⊗ {1,2,3} = {2,3,4,7,8}
        let a = T::from_costs(&[1, 6]);
        let b = T::from_costs(&[1, 2, 3]);
        assert_eq!(a.mul(&b), T::from_costs(&[2, 3, 4, 7, 8]));
    }

    #[test]
    fn min_eta_prunes() {
        assert_eq!(T::from_costs(&[3, 7, 20]), T::from_costs(&[3, 7]));
        assert_eq!(T::from_costs(&[3, 9]), T::from_costs(&[3, 9]));
        assert_eq!(T::from_costs(&[3, 10]), T::from_costs(&[3]));
    }

    #[test]
    fn eq_16_identities() {
        let x = T::from_costs(&[1, 4]);
        let y = T::from_costs(&[2, 5]);
        let z = T::from_costs(&[0, 3]);
        assert_eq!(x.add(&y).add(&z), x.add(&y.add(&z)));
        assert_eq!(x.mul(&y).mul(&z), x.mul(&y.mul(&z)));
        assert_eq!(x.mul(&y.add(&z)), x.mul(&y).add(&x.mul(&z)));
    }

    #[test]
    fn proposition_5_4_stable_with_index_ceil_eta_over_x0() {
        // c = {a}: stability index should be ⌈η/a⌉ when 0 < a.
        // η=6, a=2 -> c^(3) = {0,2,4,6} and c^(4) adds 8 > 0+6, pruned.
        let c = T::singleton(2);
        assert_eq!(element_stability_index(&c, 100), Some(3));
        let c1 = T::singleton(1);
        assert_eq!(element_stability_index(&c1, 100), Some(6));
        // {0} is 0-stable.
        assert_eq!(element_stability_index(&T::singleton(0), 10), Some(0));
        assert_eq!(element_stability_index(&T::zero(), 10), Some(0));
    }

    #[test]
    fn proposition_5_4_not_uniformly_stable() {
        // For ETA = 60, the element {a} with a < η/(p+1) is not p-stable:
        // take p = 5, a = 7 < 10: 1,7,14,...,42 all within 60 of 0.
        type U = TropEta<60>;
        let a = U::singleton(7);
        assert!(!is_p_stable(&a, 5));
        assert!(is_p_stable(&a, 9)); // the paper's bound p = ⌈60/7⌉ = 9 works
                                     // ... and the minimal index is 8 (7·8 = 56 ≤ 60 < 63 = 7·9).
        assert_eq!(element_stability_index(&a, 100), Some(8));
    }

    #[test]
    fn eta_zero_degenerates_to_trop() {
        type U = TropEta<0>;
        let x = U::singleton(3);
        let y = U::singleton(5);
        assert_eq!(x.add(&y), U::singleton(3));
        assert_eq!(x.mul(&y), U::singleton(8));
        assert_eq!(element_stability_index(&x, 5), Some(0));
    }

    /// Brute-force natural-order check on a small universe.
    #[test]
    fn natural_order_matches_brute_force() {
        type U = TropEta<2>;
        // All elements with members from {0,1,2,3,∞}.
        let grid: Vec<Cost> = vec![0, 1, 2, 3, INF_COST];
        let mut elements = vec![];
        for mask in 1u32..(1 << grid.len()) {
            let costs: Vec<Cost> = grid
                .iter()
                .enumerate()
                .filter(|(i, _)| mask & (1 << i) != 0)
                .map(|(_, &c)| c)
                .collect();
            let e = U::from_costs(&costs);
            if !elements.contains(&e) {
                elements.push(e);
            }
        }
        for x in &elements {
            for y in &elements {
                let brute = elements.iter().any(|z| &x.add(z) == y);
                assert_eq!(x.leq(y), brute, "leq mismatch x={x:?} y={y:?}");
            }
        }
    }
}
