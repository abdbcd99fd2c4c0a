//! The tropical semiring over naturals `(ℕ ∪ {∞}, min, +, ∞, 0)`
//! (Sec. 6.1 lists it among the complete distributive dioids).
//!
//! Integer twin of [`crate::trop::Trop`]; useful for exact hop-count /
//! BFS-distance workloads and for exhaustive small-universe law tests.

use crate::traits::*;

/// A cost in `ℕ ∪ {∞}` (`u64::MAX` encodes `∞`).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct MinNat(pub u64);

impl MinNat {
    /// The infinite cost (tropical zero / `⊥`).
    pub const INF: MinNat = MinNat(u64::MAX);

    /// A finite cost.
    pub fn finite(c: u64) -> MinNat {
        assert!(c != u64::MAX, "u64::MAX is reserved for ∞");
        MinNat(c)
    }

    /// Whether the cost is finite.
    pub fn is_finite(&self) -> bool {
        self.0 != u64::MAX
    }
}

impl PreSemiring for MinNat {
    fn zero() -> Self {
        MinNat::INF
    }
    fn one() -> Self {
        MinNat(0)
    }
    fn add(&self, rhs: &Self) -> Self {
        MinNat(self.0.min(rhs.0))
    }
    fn mul(&self, rhs: &Self) -> Self {
        MinNat(self.0.saturating_add(rhs.0))
    }
}

impl Semiring for MinNat {}
impl Dioid for MinNat {}
impl NaturallyOrdered for MinNat {}
// `min(0, x) = 0`: 0-stable, worklist/priority evaluation applies.
impl Absorptive for MinNat {}

impl TotallyOrderedDioid for MinNat {
    fn chain_cmp(&self, other: &Self) -> std::cmp::Ordering {
        // ⊑ is the reverse numeric order.
        other.0.cmp(&self.0)
    }
}

impl Pops for MinNat {
    const ABSORPTIVE_CHAIN: bool = true;

    fn bottom() -> Self {
        MinNat::INF
    }
    fn leq(&self, rhs: &Self) -> bool {
        self.0 >= rhs.0
    }
}

impl CompleteDistributiveDioid for MinNat {
    fn minus(&self, rhs: &Self) -> Self {
        if self.0 < rhs.0 {
            *self
        } else {
            MinNat::INF
        }
    }
}

impl StarSemiring for MinNat {
    fn star(&self) -> Self {
        MinNat(0)
    }
}

impl UniformlyStable for MinNat {
    fn uniform_stability_index() -> usize {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn min_plus() {
        assert_eq!(MinNat(3).add(&MinNat(5)), MinNat(3));
        assert_eq!(MinNat(3).mul(&MinNat(5)), MinNat(8));
        assert_eq!(MinNat::INF.mul(&MinNat(5)), MinNat::INF);
        assert_eq!(MinNat::INF.add(&MinNat(5)), MinNat(5));
    }

    #[test]
    fn minus_mirrors_trop() {
        assert_eq!(MinNat(3).minus(&MinNat(5)), MinNat(3));
        assert_eq!(MinNat(5).minus(&MinNat(3)), MinNat::INF);
        assert_eq!(MinNat(5).minus(&MinNat(5)), MinNat::INF);
    }

    #[test]
    fn frontier_marker_laws_hold_on_samples() {
        let sample: Vec<MinNat> = [0, 1, 2, 7, u64::MAX - 1]
            .iter()
            .map(|&c| MinNat::finite(c))
            .chain([MinNat::INF])
            .collect();
        let v = crate::checker::absorptive_laws_on(&sample);
        assert!(v.is_empty(), "{v:?}");
        let v = crate::checker::chain_order_laws_on(&sample);
        assert!(v.is_empty(), "{v:?}");
        const { assert!(MinNat::ABSORPTIVE_CHAIN) };
        let v = crate::checker::absorptive_chain_laws_on(&sample);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn zero_stable() {
        use crate::stability::element_stability_index;
        assert_eq!(element_stability_index(&MinNat(7), 3), Some(0));
    }
}
