//! The Boolean semiring `𝔹 = ({0,1}, ∨, ∧, 0, 1)` (Example 2.2).
//!
//! Standard relations are `𝔹`-relations; datalog° over `𝔹` is plain datalog.
//! `𝔹` is a 0-stable complete distributive dioid, naturally ordered by
//! `0 ⪯ 1`, with difference `b ⊖ a = b ∧ ¬a` (classical semi-naïve).

use crate::traits::*;

/// A Boolean semiring element.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Bool(pub bool);

impl Bool {
    /// The constant `true` (= `1`).
    pub const TRUE: Bool = Bool(true);
    /// The constant `false` (= `0`).
    pub const FALSE: Bool = Bool(false);
}

impl PreSemiring for Bool {
    fn zero() -> Self {
        Bool(false)
    }
    fn one() -> Self {
        Bool(true)
    }
    fn add(&self, rhs: &Self) -> Self {
        Bool(self.0 || rhs.0)
    }
    fn mul(&self, rhs: &Self) -> Self {
        Bool(self.0 && rhs.0)
    }
}

impl Semiring for Bool {}
impl Dioid for Bool {}
impl NaturallyOrdered for Bool {}
// `x ∨ 1 = 1`: 𝔹 is 0-stable (plain datalog saturates).
impl Absorptive for Bool {}

impl TotallyOrderedDioid for Bool {
    fn chain_cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.cmp(&other.0)
    }
}

impl Pops for Bool {
    const ABSORPTIVE_CHAIN: bool = true;

    fn bottom() -> Self {
        Bool(false)
    }
    fn leq(&self, rhs: &Self) -> bool {
        !self.0 || rhs.0
    }
}

impl CompleteDistributiveDioid for Bool {
    fn minus(&self, rhs: &Self) -> Self {
        // b ⊖ a = ⋀{c | a ∨ c ⊒ b} = b ∧ ¬a
        Bool(self.0 && !rhs.0)
    }
}

impl StarSemiring for Bool {
    fn star(&self) -> Self {
        // 1 ∨ a ∨ a² ∨ … = 1
        Bool(true)
    }
}

impl UniformlyStable for Bool {
    fn uniform_stability_index() -> usize {
        0 // 1 ∨ u = 1 for all u
    }
}

impl FiniteCarrier for Bool {
    fn carrier() -> Vec<Self> {
        vec![Bool(false), Bool(true)]
    }
}

impl From<bool> for Bool {
    fn from(b: bool) -> Self {
        Bool(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stability::element_stability_index;

    #[test]
    fn semiring_ops() {
        assert_eq!(Bool(true).add(&Bool(false)), Bool(true));
        assert_eq!(Bool(false).add(&Bool(false)), Bool(false));
        assert_eq!(Bool(true).mul(&Bool(false)), Bool(false));
        assert_eq!(Bool(true).mul(&Bool(true)), Bool(true));
    }

    #[test]
    fn order_is_implication() {
        assert!(Bool(false).leq(&Bool(true)));
        assert!(Bool(false).leq(&Bool(false)));
        assert!(!Bool(true).leq(&Bool(false)));
    }

    #[test]
    fn minus_is_and_not() {
        assert_eq!(Bool(true).minus(&Bool(false)), Bool(true));
        assert_eq!(Bool(true).minus(&Bool(true)), Bool(false));
        assert_eq!(Bool(false).minus(&Bool(true)), Bool(false));
        assert_eq!(Bool(false).minus(&Bool(false)), Bool(false));
    }

    #[test]
    fn zero_stable() {
        for b in Bool::carrier() {
            assert_eq!(element_stability_index(&b, 4), Some(0));
        }
    }

    #[test]
    fn star_is_one() {
        assert_eq!(Bool(false).star(), Bool(true));
        assert_eq!(Bool(true).star(), Bool(true));
    }
}
