//! The algebraic trait hierarchy of the paper (Sec. 2).
//!
//! ```text
//! PreSemiring ─── Semiring ─┬─ NaturallyOrdered (marker; requires Pops)
//!       │                   ├─ Dioid ── CompleteDistributiveDioid (requires Pops)
//!       │                   └─ StarSemiring / UniformlyStable
//!       └─ Pops (adds ⊥ and the partial order ⊑, decoupled from the algebra)
//! ```
//!
//! All operations take `&self` and are pure. Elements must be `Eq` so that
//! fixpoint iteration can detect convergence exactly, and `Hash + Ord` so
//! they can be used in deterministic containers and law checkers.

use std::fmt::Debug;
use std::hash::Hash;

/// A commutative pre-semiring `(S, ⊕, ⊗, 0, 1)` (Definition 2.1).
///
/// `(S, ⊕, 0)` is a commutative monoid, `(S, ⊗, 1)` is a commutative monoid
/// (the paper only considers commutative pre-semirings), and `⊗` distributes
/// over `⊕`. The absorption rule `0 ⊗ x = 0` is **not** required; structures
/// for which it holds additionally implement the [`Semiring`] marker.
///
/// Elements are plain data, so the trait asks for `Send + Sync`: an
/// engine may read one relation's values from several threads (the
/// parted EDB load does) without every signature repeating the bound.
pub trait PreSemiring: Clone + Eq + Ord + Hash + Debug + Send + Sync + 'static {
    /// The additive identity `0`.
    fn zero() -> Self;
    /// The multiplicative identity `1`.
    fn one() -> Self;
    /// Addition `⊕`.
    fn add(&self, rhs: &Self) -> Self;
    /// Multiplication `⊗`.
    fn mul(&self, rhs: &Self) -> Self;

    /// Whether this element equals `0`.
    fn is_zero(&self) -> bool {
        *self == Self::zero()
    }
    /// Whether this element equals `1`.
    fn is_one(&self) -> bool {
        *self == Self::one()
    }

    /// `self^k` with the convention `a^0 = 1` (Sec. 2.2).
    fn pow(&self, k: u32) -> Self {
        let mut acc = Self::one();
        for _ in 0..k {
            acc = acc.mul(self);
        }
        acc
    }

    /// `⊕`-fold of an iterator (empty sum is `0`).
    fn sum<'a, I: IntoIterator<Item = &'a Self>>(iter: I) -> Self
    where
        Self: 'a,
    {
        iter.into_iter().fold(Self::zero(), |acc, x| acc.add(x))
    }

    /// `⊗`-fold of an iterator (empty product is `1`).
    fn product<'a, I: IntoIterator<Item = &'a Self>>(iter: I) -> Self
    where
        Self: 'a,
    {
        iter.into_iter().fold(Self::one(), |acc, x| acc.mul(x))
    }
}

/// Marker: the absorption rule `0 ⊗ x = 0` holds, making this a semiring
/// (Definition 2.1).
pub trait Semiring: PreSemiring {}

/// A partially ordered pre-semiring (POPS, Definition 2.3).
///
/// `(P, ⊑)` is a poset with minimum element `⊥`, and `⊕`, `⊗` are monotone
/// under `⊑`. Throughout the paper (and this library) `⊗` is assumed
/// *strict*: `x ⊗ ⊥ = ⊥`.
pub trait Pops: PreSemiring {
    /// The least element `⊥` of the partial order.
    fn bottom() -> Self;
    /// The partial order `self ⊑ rhs`.
    fn leq(&self, rhs: &Self) -> bool;

    /// Whether this POPS is an **absorptive chain**: `x ⊕ 1 = 1` for
    /// every `x` (every element 0-stable, Sec. 5.1) and `⊑` is total, so
    /// `⊕` picks the ⊑-greater of its arguments. Then a ⊕-sum equals one
    /// of its terms: a fact's value is the value of one derivation, and
    /// `x ⊗ y ⊑ x ⊗ 1 = x` (the 0-stable case of Cor. 5.19). `false`
    /// unless an impl states it; [`crate::checker::absorptive_chain_laws_on`]
    /// checks a `true`.
    const ABSORPTIVE_CHAIN: bool = false;

    /// Whether this element equals `⊥`.
    fn is_bottom(&self) -> bool {
        *self == Self::bottom()
    }

    /// Strict order `self ⊏ rhs`.
    fn strictly_below(&self, rhs: &Self) -> bool {
        self != rhs && self.leq(rhs)
    }
}

/// Marker: this POPS is a *naturally ordered semiring*: the POPS order `⊑`
/// coincides with the natural order `x ⪯ y ⟺ ∃z. x ⊕ z = y`, and `⊥ = 0`
/// (Sec. 2.1/2.5). For such structures the core semiring `P ⊕ ⊥` is `P`
/// itself.
pub trait NaturallyOrdered: Semiring + Pops {}

/// Marker: `⊕` is idempotent (`a ⊕ a = a`), making this semiring a *dioid*
/// (Sec. 6.1). By Proposition 6.1 a dioid is naturally ordered and `⊕` is the
/// least upper bound of its natural order.
pub trait Dioid: Semiring {}

/// Marker: the dioid is **absorptive** (`x ⊕ 1 = 1` for every `x`; also
/// called *bounded*, *simple*, or — in the paper's terms — every element
/// is **0-stable**, Sec. 5.1). By Corollary 5.19 every datalog° program
/// over such a semiring is `N`-stable: each ground fact's value strictly
/// improves at most `N` times before it settles. This is the law that
/// licenses *worklist* (frontier) evaluation in `dlo_engine`: a per-fact
/// change queue is guaranteed to drain, so no global iteration count is
/// needed for termination.
///
/// The contract is checked by [`crate::checker::absorptive_laws`]
/// (exhaustively on finite carriers) and
/// [`crate::checker::absorptive_laws_on`] (on samples of infinite ones);
/// a wrong impl fails those tests rather than silently producing
/// unsettled fixpoints. Counter-example: [`crate::maxplus::MaxPlus`] is
/// a complete distributive dioid whose positive elements are *not*
/// 0-stable (`max(0, a) = a` for `a > 0`), so it must **not** implement
/// this marker.
///
/// A POPS that is absorptive *and* [`TotallyOrderedDioid`] states so in
/// [`Pops::ABSORPTIVE_CHAIN`]; `dlo_engine`'s `Strategy` schedule, which
/// needs both markers, refuses at compile time a type that does not.
pub trait Absorptive: Dioid + Pops {}

/// A dioid whose natural order `⊑` is **total**, with the order exposed
/// as a comparator so schedulers can rank values.
///
/// Combined with [`Absorptive`] this is the precondition for
/// *Dijkstra-style* priority-frontier evaluation (`dlo_engine`'s
/// `Strategy::Priority`): because `⊗` never moves a value up the chain
/// (`x ⊗ y ⊑ x ⊗ 1 = x` by monotonicity and absorption), the
/// ⊑-greatest pending fact can never be improved by any future
/// derivation and is *settled* the moment it is popped.
///
/// The contract — `chain_cmp` is a total order that coincides with `⊑`
/// — is checked by [`crate::checker::chain_order_laws`] /
/// [`crate::checker::chain_order_laws_on`]. With [`Absorptive`] beside
/// it, the type sets [`Pops::ABSORPTIVE_CHAIN`].
pub trait TotallyOrderedDioid: Dioid + Pops {
    /// The total order: `Less` ⟺ `self ⊏ other` (strictly below in the
    /// natural order, i.e. strictly *worse*), `Equal` ⟺ `self == other`.
    fn chain_cmp(&self, other: &Self) -> std::cmp::Ordering;
}

/// A POPS that is a *complete distributive dioid* (Definition 6.2): `⊑` is
/// the dioid's natural order and `(S, ⊑)` is a complete distributive
/// lattice. Provides the difference operator
/// `b ⊖ a = ⋀ { c | a ⊕ c ⊒ b }` (eq. 58), which powers semi-naïve
/// evaluation (Sec. 6).
pub trait CompleteDistributiveDioid: Dioid + Pops {
    /// `self ⊖ rhs` per eq. (58). Satisfies eq. (59) and (60) (Lemma 6.3):
    /// `a ⊑ b ⟹ a ⊕ (b ⊖ a) = b` and `(a ⊕ b) ⊖ (a ⊕ c) = b ⊖ (a ⊕ c)`.
    fn minus(&self, rhs: &Self) -> Self;
}

/// A semiring with a closure (star) operation `a* = ⨁_{i≥0} a^i`.
///
/// For a `p`-stable semiring `a* = a^(p) = 1 ⊕ a ⊕ … ⊕ a^p` (Sec. 5.5);
/// this is what makes the Floyd–Warshall–Kleene algorithm and Algorithm 2
/// (`LinearLFP`) applicable.
pub trait StarSemiring: Semiring {
    /// The Kleene star `a*`.
    fn star(&self) -> Self;
}

/// A uniformly stable ("p-stable") semiring (Definition 5.1): there is a
/// single `p` such that every element `u` satisfies `u^(p) = u^(p+1)` where
/// `u^(p) = 1 ⊕ u ⊕ u² ⊕ … ⊕ u^p`.
pub trait UniformlyStable: Semiring {
    /// The uniform stability index `p`.
    fn uniform_stability_index() -> usize;
}

/// A structure with a finite, enumerable carrier. Used by the exhaustive law
/// checker ([`crate::checker`]) and by exhaustive tests.
pub trait FiniteCarrier: Sized {
    /// Every element of the carrier, in a deterministic order.
    fn carrier() -> Vec<Self>;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::boolean::Bool;

    #[test]
    fn pow_zero_is_one() {
        assert_eq!(Bool(false).pow(0), Bool(true));
        assert_eq!(Bool(true).pow(0), Bool(true));
    }

    #[test]
    fn pow_repeats_mul() {
        assert_eq!(Bool(false).pow(3), Bool(false));
        assert_eq!(Bool(true).pow(3), Bool(true));
    }

    #[test]
    fn empty_sum_and_product() {
        let empty: [Bool; 0] = [];
        assert_eq!(Bool::sum(empty.iter()), Bool::zero());
        assert_eq!(Bool::product(empty.iter()), Bool::one());
    }

    #[test]
    fn sum_and_product_fold() {
        let xs = [Bool(false), Bool(true), Bool(false)];
        assert_eq!(Bool::sum(xs.iter()), Bool(true));
        assert_eq!(Bool::product(xs.iter()), Bool(false));
    }

    #[test]
    fn strictly_below_is_strict() {
        use crate::traits::Pops;
        assert!(Bool(false).strictly_below(&Bool(true)));
        assert!(!Bool(true).strictly_below(&Bool(true)));
        assert!(!Bool(true).strictly_below(&Bool(false)));
    }
}
