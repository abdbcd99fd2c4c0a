//! The semiring of natural numbers `(ℕ, +, ×, 0, 1)` (Example 2.2).
//!
//! `ℕ` is naturally ordered (by the usual `≤`) but **not stable**: the
//! one-rule program `x :- 1 + 2x` (eq. 29 with `c = 2`) produces the
//! strictly increasing sequence `0, 1, 3, 7, 15, …` and diverges. `ℕ` is the
//! canonical witness that datalog° may diverge (Example 4.2 over ℕ).
//!
//! Representation: `u64` with saturating arithmetic. Divergence detection in
//! the engine happens via iteration caps long before saturation could be
//! reached on any paper workload; saturation merely keeps the arithmetic
//! total.

use crate::traits::*;

/// A natural number semiring element.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Nat(pub u64);

impl PreSemiring for Nat {
    fn zero() -> Self {
        Nat(0)
    }
    fn one() -> Self {
        Nat(1)
    }
    fn add(&self, rhs: &Self) -> Self {
        Nat(self.0.saturating_add(rhs.0))
    }
    fn mul(&self, rhs: &Self) -> Self {
        Nat(self.0.saturating_mul(rhs.0))
    }
}

impl Semiring for Nat {}
impl NaturallyOrdered for Nat {}

impl Pops for Nat {
    fn bottom() -> Self {
        Nat(0)
    }
    fn leq(&self, rhs: &Self) -> bool {
        self.0 <= rhs.0
    }
}

impl From<u64> for Nat {
    fn from(n: u64) -> Self {
        Nat(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic() {
        assert_eq!(Nat(2).add(&Nat(3)), Nat(5));
        assert_eq!(Nat(2).mul(&Nat(3)), Nat(6));
        assert_eq!(Nat(0).mul(&Nat(9)), Nat(0));
    }

    #[test]
    fn natural_order() {
        assert!(Nat(0).leq(&Nat(5)));
        assert!(!Nat(5).leq(&Nat(4)));
        assert!(Nat::bottom().is_zero());
    }

    #[test]
    fn saturates_instead_of_overflowing() {
        assert_eq!(Nat(u64::MAX).add(&Nat(1)), Nat(u64::MAX));
        assert_eq!(Nat(u64::MAX).mul(&Nat(2)), Nat(u64::MAX));
    }

    #[test]
    fn eq_29_iteration_strictly_increases() {
        // f(x) = 1 + 2x: the divergence witness for ℕ (Sec. 5 opening).
        let f = |x: Nat| Nat(1).add(&Nat(2).mul(&x));
        let mut x = Nat(0);
        let mut last = None;
        for _ in 0..20 {
            let nx = f(x);
            if let Some(prev) = last {
                assert!(x > prev, "sequence must strictly increase");
            }
            last = Some(x);
            x = nx;
        }
    }
}
