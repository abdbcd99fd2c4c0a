//! The max-min (fuzzy / bottleneck) dioid `([0,1], max, min, 0, 1)`.
//!
//! A bounded distributive lattice, hence a 0-stable semiring (the paper,
//! Sec. 5.1: every distributive lattice with `+ = ∨`, `· = ∧` is 0-stable).
//! Datalog° over it computes widest-path / maximum-capacity-path style
//! queries; it also serves as an extra complete distributive dioid for the
//! semi-naïve machinery.

use crate::f64total::F64;
use crate::traits::*;

/// A confidence / capacity value in `[0, 1]`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct MaxMin(pub F64);

impl MaxMin {
    /// Constructs from a value in `[0, 1]`.
    pub fn of(x: f64) -> MaxMin {
        assert!((0.0..=1.0).contains(&x), "MaxMin requires [0,1], got {x}");
        MaxMin(F64::of(x))
    }
    /// The underlying value.
    pub fn get(&self) -> f64 {
        self.0.get()
    }
}

impl PreSemiring for MaxMin {
    fn zero() -> Self {
        MaxMin(F64::ZERO)
    }
    fn one() -> Self {
        MaxMin(F64::ONE)
    }
    fn add(&self, rhs: &Self) -> Self {
        MaxMin(self.0.max(rhs.0))
    }
    fn mul(&self, rhs: &Self) -> Self {
        MaxMin(self.0.min(rhs.0))
    }
}

impl Semiring for MaxMin {}
impl Dioid for MaxMin {}
impl NaturallyOrdered for MaxMin {}
// `max(x, 1) = 1` on `[0,1]`: bounded lattices are 0-stable.
impl Absorptive for MaxMin {}

impl TotallyOrderedDioid for MaxMin {
    fn chain_cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.cmp(&other.0)
    }
}

impl Pops for MaxMin {
    const ABSORPTIVE_CHAIN: bool = true;

    fn bottom() -> Self {
        MaxMin(F64::ZERO)
    }
    fn leq(&self, rhs: &Self) -> bool {
        self.0 <= rhs.0
    }
}

impl CompleteDistributiveDioid for MaxMin {
    fn minus(&self, rhs: &Self) -> Self {
        // b ⊖ a = ⋀{c | max(a,c) ≥ b} = 0 if a ≥ b else b.
        if rhs.0 >= self.0 {
            MaxMin(F64::ZERO)
        } else {
            *self
        }
    }
}

impl StarSemiring for MaxMin {
    fn star(&self) -> Self {
        MaxMin::one() // max(1, a, a², …) = 1
    }
}

impl UniformlyStable for MaxMin {
    fn uniform_stability_index() -> usize {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lattice_ops() {
        assert_eq!(MaxMin::of(0.3).add(&MaxMin::of(0.7)), MaxMin::of(0.7));
        assert_eq!(MaxMin::of(0.3).mul(&MaxMin::of(0.7)), MaxMin::of(0.3));
    }

    #[test]
    fn minus_definition() {
        assert_eq!(MaxMin::of(0.7).minus(&MaxMin::of(0.3)), MaxMin::of(0.7));
        assert_eq!(MaxMin::of(0.3).minus(&MaxMin::of(0.7)), MaxMin::zero());
        assert_eq!(MaxMin::of(0.3).minus(&MaxMin::of(0.3)), MaxMin::zero());
    }

    #[test]
    fn frontier_marker_laws_hold_on_samples() {
        let sample: Vec<MaxMin> = [0.0, 0.125, 0.5, 0.875, 1.0]
            .iter()
            .map(|&c| MaxMin::of(c))
            .collect();
        let v = crate::checker::absorptive_laws_on(&sample);
        assert!(v.is_empty(), "{v:?}");
        let v = crate::checker::chain_order_laws_on(&sample);
        assert!(v.is_empty(), "{v:?}");
        const { assert!(MaxMin::ABSORPTIVE_CHAIN) };
        let v = crate::checker::absorptive_chain_laws_on(&sample);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn zero_stable_distributive_lattice() {
        use crate::stability::element_stability_index;
        assert_eq!(element_stability_index(&MaxMin::of(0.42), 3), Some(0));
    }
}
