//! Relational combinators on `P`-relations.
//!
//! The fixpoint engine evaluates grounded polynomials and never needs
//! these, but a library user manipulating `P`-relations directly does:
//! value maps, unions (`⊕`-merge), natural joins (`⊗`-combine on shared
//! key prefixes), projections (`⊕`-aggregate the dropped columns) and
//! selections — the `K`-relation algebra of Green et al. \[38\] that
//! datalog° generalizes.

use crate::relation::Relation;
use crate::value::Tuple;
use dlo_pops::Pops;

/// Maps values pointwise (`f` must send `⊥` to `⊥` to preserve supports;
/// results equal to `⊥` are dropped).
pub fn map_values<P: Pops, Q: Pops>(rel: &Relation<P>, f: impl Fn(&P) -> Q) -> Relation<Q> {
    Relation::from_pairs(rel.arity(), rel.support().map(|(t, v)| (t.clone(), f(v))))
}

/// `⊕`-union of two relations of equal arity.
pub fn union<P: Pops>(a: &Relation<P>, b: &Relation<P>) -> Relation<P> {
    assert_eq!(a.arity(), b.arity(), "union arity mismatch");
    Relation::from_pairs(
        a.arity(),
        a.support()
            .chain(b.support())
            .map(|(t, v)| (t.clone(), v.clone())),
    )
}

/// Projection onto the key columns `cols` (in the given order); tuples
/// collapsing together are `⊕`-aggregated — the `⨁`-semantics of bound
/// variables (Definition 2.5).
pub fn project<P: Pops>(rel: &Relation<P>, cols: &[usize]) -> Relation<P> {
    Relation::from_pairs(
        cols.len(),
        rel.support().map(|(t, v)| {
            let key: Tuple = cols.iter().map(|&c| t[c].clone()).collect();
            (key, v.clone())
        }),
    )
}

/// Selection by a key predicate.
pub fn select<P: Pops>(rel: &Relation<P>, keep: impl Fn(&Tuple) -> bool) -> Relation<P> {
    Relation::from_pairs(
        rel.arity(),
        rel.support()
            .filter(|(t, _)| keep(t))
            .map(|(t, v)| (t.clone(), v.clone())),
    )
}

/// Equi-join on column positions: combines tuples with
/// `a\[acol\] = b\[bcol\]`, concatenating keys (b's join column dropped) and
/// `⊗`-multiplying values — the `K`-relation join.
pub fn join_on<P: Pops>(a: &Relation<P>, b: &Relation<P>, acol: usize, bcol: usize) -> Relation<P> {
    let arity = a.arity() + b.arity() - 1;
    // Hash-join on the shared key.
    let mut index: std::collections::BTreeMap<&crate::value::Constant, Vec<(&Tuple, &P)>> =
        std::collections::BTreeMap::new();
    for (t, v) in b.support() {
        index.entry(&t[bcol]).or_default().push((t, v));
    }
    let mut products = vec![];
    for (ta, va) in a.support() {
        if let Some(matches) = index.get(&ta[acol]) {
            for (tb, vb) in matches {
                let mut key: Tuple = ta.clone();
                key.extend(
                    tb.iter()
                        .enumerate()
                        .filter(|(i, _)| *i != bcol)
                        .map(|(_, c)| c.clone()),
                );
                products.push((key, va.mul(vb)));
            }
        }
    }
    Relation::from_pairs(arity, products)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tup;
    use dlo_pops::{NNReal, Nat, PreSemiring, Trop};

    /// Two overlapping relations over the reals whose `⊕` results depend
    /// on the order of the terms.
    fn overlapping_reals() -> (Relation<NNReal>, Relation<NNReal>) {
        let r = |x: f64| NNReal::of(x);
        let a = Relation::from_pairs(
            2,
            vec![
                (tup!["a", "b"], r(0.1)),
                (tup!["b", "b"], r(1e16)),
                (tup!["b", "c"], r(0.2)),
                (tup!["c", "a"], r(0.3)),
            ],
        );
        let b = Relation::from_pairs(
            2,
            vec![
                (tup!["a", "b"], r(0.2)),
                (tup!["b", "a"], r(0.7)),
                (tup!["b", "b"], r(1.0)),
                (tup!["c", "a"], r(0.1)),
            ],
        );
        (a, b)
    }

    #[test]
    fn union_is_the_tuple_by_tuple_fold() {
        let (a, b) = overlapping_reals();
        let mut folded = a.clone();
        for (t, v) in b.support() {
            folded.merge(t.clone(), *v);
        }
        assert_eq!(union(&a, &b), folded);
    }

    #[test]
    fn join_on_is_the_tuple_by_tuple_fold() {
        let (a, b) = overlapping_reals();
        for (acol, bcol) in [(0, 0), (1, 0), (0, 1), (1, 1)] {
            let mut folded = Relation::new(3);
            for (ta, va) in a.support() {
                for (tb, vb) in b.support().filter(|(tb, _)| tb[bcol] == ta[acol]) {
                    let mut key = ta.clone();
                    key.extend(
                        tb.iter()
                            .enumerate()
                            .filter(|&(i, _)| i != bcol)
                            .map(|(_, c)| c.clone()),
                    );
                    folded.merge(key, va.mul(vb));
                }
            }
            assert_eq!(join_on(&a, &b, acol, bcol), folded);
        }
    }

    fn edges() -> Relation<Trop> {
        Relation::from_pairs(
            2,
            vec![
                (tup!["a", "b"], Trop::finite(1.0)),
                (tup!["b", "c"], Trop::finite(3.0)),
                (tup!["a", "c"], Trop::finite(5.0)),
            ],
        )
    }

    #[test]
    fn map_values_converts_spaces() {
        let r: Relation<Nat> = map_values(&edges(), |v| Nat(v.get() as u64));
        assert_eq!(r.get(&tup!["b", "c"]), Nat(3));
    }

    #[test]
    fn union_merges_with_add() {
        let a = edges();
        let b = Relation::from_pairs(2, vec![(tup!["a", "b"], Trop::finite(0.5))]);
        let u = union(&a, &b);
        assert_eq!(u.get(&tup!["a", "b"]), Trop::finite(0.5)); // min
        assert_eq!(u.get(&tup!["b", "c"]), Trop::finite(3.0));
    }

    #[test]
    fn project_aggregates_dropped_columns() {
        // Project on source: min over outgoing edges.
        let p = project(&edges(), &[0]);
        assert_eq!(p.get(&tup!["a"]), Trop::finite(1.0)); // min(1, 5)
        assert_eq!(p.get(&tup!["b"]), Trop::finite(3.0));
        assert_eq!(p.arity(), 1);
    }

    #[test]
    fn select_filters_keys() {
        let s = select(&edges(), |t| t[0] == "a".into());
        assert_eq!(s.support_size(), 2);
    }

    #[test]
    fn join_is_min_plus_composition() {
        // E ⋈ E on middle column: two-hop paths with summed weights.
        let j = join_on(&edges(), &edges(), 1, 0);
        // (a,b)·(b,c) → (a,b,c) with 1+3.
        assert_eq!(j.get(&tup!["a", "b", "c"]), Trop::finite(4.0));
        assert_eq!(j.arity(), 3);
        // Project to endpoints: shortest two-hop distance.
        let two_hop = project(&j, &[0, 2]);
        assert_eq!(two_hop.get(&tup!["a", "c"]), Trop::finite(4.0));
    }

    #[test]
    fn join_aggregates_parallel_matches() {
        let a = Relation::from_pairs(
            2,
            vec![
                (tup!["x", "m1"], Trop::finite(1.0)),
                (tup!["x", "m2"], Trop::finite(2.0)),
            ],
        );
        let b = Relation::from_pairs(
            2,
            vec![
                (tup!["m1", "y"], Trop::finite(10.0)),
                (tup!["m2", "y"], Trop::finite(5.0)),
            ],
        );
        let via = project(&join_on(&a, &b, 1, 0), &[0, 2]);
        assert_eq!(via.get(&tup!["x", "y"]), Trop::finite(7.0)); // min(11, 7)
    }
}
