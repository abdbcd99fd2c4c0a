//! `P`-relations and `P`-instances (Sec. 2.3).
//!
//! A `P`-relation of arity `k` maps `k`-tuples over the key space to POPS
//! values, with *finite support* (only finitely many tuples map to values
//! `≠ ⊥`). A `P`-instance ([`Database`]) maps relation names to relations.
//! A relation is one vector of `(tuple, value)` pairs sorted by tuple, so
//! iteration (and therefore grounding, evaluation, and printed tables) is
//! fully deterministic and a walk over a support reads one slice. It is
//! built in bulk by [`Relation::from_pairs`]; [`Relation::set`] and
//! [`Relation::merge`] are single edits, each a binary search plus an
//! insert or remove that shifts the entries behind it.

use crate::value::{Constant, Tuple};
use dlo_pops::Pops;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// A finite-support mapping `D^arity → P`.
#[derive(Clone, PartialEq, Eq)]
pub struct Relation<P: Pops> {
    arity: usize,
    /// Invariant: tuples strictly increasing, and no stored value is `⊥`
    /// (absent ⇒ `⊥`).
    entries: Vec<(Tuple, P)>,
}

impl<P: Pops> Relation<P> {
    /// An empty relation (everything `⊥`) of the given arity.
    pub fn new(arity: usize) -> Self {
        Relation {
            arity,
            entries: Vec::new(),
        }
    }

    /// Builds a relation from `(tuple, value)` pairs; values equal to `⊥`
    /// are dropped, duplicate tuples are combined with `⊕`.
    ///
    /// The result is the left fold of [`Self::merge`] over `pairs` in
    /// input order, bit for bit (float `⊕` is not associative, and on the
    /// lifted reals `x ⊕ ⊥ = ⊥` empties an entry that the next value
    /// then sets outright). Pairs whose tuples already strictly increase
    /// cost one linear check and no sort; any others are stable-sorted by
    /// tuple and each run of equal tuples folded in place.
    pub fn from_pairs<I: IntoIterator<Item = (Tuple, P)>>(arity: usize, pairs: I) -> Self {
        let mut entries: Vec<(Tuple, P)> = pairs.into_iter().collect();
        debug_assert!(
            entries.iter().all(|(t, _)| t.len() == arity),
            "arity mismatch"
        );
        if !entries.windows(2).all(|w| w[0].0 < w[1].0) {
            entries.sort_by(|a, b| a.0.cmp(&b.0));
            // `acc` is the run's fold so far; `⊥` means the entry is
            // absent, so the next value sets it rather than `⊕`-ing.
            entries.dedup_by(|(t, v), (run, acc)| {
                if t != run {
                    return false;
                }
                let v = std::mem::replace(v, P::bottom());
                *acc = if acc.is_bottom() { v } else { acc.add(&v) };
                true
            });
        }
        entries.retain(|(_, v)| !v.is_bottom());
        Relation { arity, entries }
    }

    /// The arity.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Where `tuple` is stored (`Ok`) or would be inserted (`Err`).
    fn find(&self, tuple: &[Constant]) -> Result<usize, usize> {
        self.entries
            .binary_search_by(|(t, _)| t.as_slice().cmp(tuple))
    }

    /// The value of `tuple` (`⊥` when absent).
    pub fn get(&self, tuple: &Tuple) -> P {
        match self.find(tuple) {
            Ok(i) => self.entries[i].1.clone(),
            Err(_) => P::bottom(),
        }
    }

    /// Sets `tuple ↦ value` (removing the entry when `value = ⊥`): one
    /// edit of the sorted vector.
    pub fn set(&mut self, tuple: Tuple, value: P) {
        debug_assert_eq!(tuple.len(), self.arity, "arity mismatch");
        let at = self.find(&tuple);
        self.put(at, tuple, value);
    }

    /// `⊕`-combines `value` into the entry for `tuple`: one edit of the
    /// sorted vector.
    ///
    /// An absent tuple is *undefined* (`⊥`), not `0`: merging the first
    /// value sets it outright (the sum of one term is that term), and only
    /// genuine duplicates combine with `⊕`. Folding `⊥` in would be wrong
    /// on POPS with strict addition (`⊥ ⊕ v = ⊥` on the lifted reals).
    pub fn merge(&mut self, tuple: Tuple, value: P) {
        debug_assert_eq!(tuple.len(), self.arity, "arity mismatch");
        let at = self.find(&tuple);
        let value = match at {
            Ok(i) => self.entries[i].1.add(&value),
            Err(_) => value,
        };
        self.put(at, tuple, value);
    }

    /// Stores `value` at the position [`Self::find`] returned for `tuple`.
    fn put(&mut self, at: Result<usize, usize>, tuple: Tuple, value: P) {
        match (at, value.is_bottom()) {
            (Ok(i), true) => {
                self.entries.remove(i);
            }
            (Ok(i), false) => self.entries[i].1 = value,
            (Err(i), false) => self.entries.insert(i, (tuple, value)),
            (Err(_), true) => {}
        }
    }

    /// The support: tuples with value `≠ ⊥`, in tuple order.
    pub fn support(&self) -> impl Iterator<Item = (&Tuple, &P)> {
        self.entries.iter().map(|(t, v)| (t, v))
    }

    /// The support as the one sorted slice it is stored in: the pairs
    /// [`Self::support`] walks, for a reader that splits them into
    /// contiguous parts (the engine's parted EDB load).
    pub fn support_slice(&self) -> &[(Tuple, P)] {
        &self.entries
    }

    /// Consumes the relation into its `(tuple, value)` pairs, in tuple
    /// order — the owned counterpart of [`Self::support`], used by
    /// alternative backends (e.g. `dlo_engine`) to convert without
    /// cloning.
    pub fn into_support(self) -> impl Iterator<Item = (Tuple, P)> {
        self.entries.into_iter()
    }

    /// Number of supported tuples.
    pub fn support_size(&self) -> usize {
        self.entries.len()
    }

    /// Whether every tuple maps to `⊥`.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// All constants appearing in the support (contribution to `ADom`).
    pub fn constants(&self) -> BTreeSet<Constant> {
        self.entries
            .iter()
            .flat_map(|(t, _)| t.iter().cloned())
            .collect()
    }
}

impl<P: Pops> fmt::Debug for Relation<P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut m = f.debug_map();
        for (t, v) in self.support() {
            m.entry(&crate::value::fmt_tuple(t), v);
        }
        m.finish()
    }
}

/// A `P`-instance: named relations over a single POPS (Sec. 2.3,
/// `Inst(σ, D, P)`).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Database<P: Pops> {
    relations: BTreeMap<String, Relation<P>>,
}

impl<P: Pops> Default for Database<P> {
    fn default() -> Self {
        Self::new()
    }
}

impl<P: Pops> Database<P> {
    /// An empty instance.
    pub fn new() -> Self {
        Database {
            relations: BTreeMap::new(),
        }
    }

    /// Adds (or replaces) a relation.
    pub fn insert(&mut self, name: &str, rel: Relation<P>) {
        self.relations.insert(name.to_string(), rel);
    }

    /// Looks up a relation.
    pub fn get(&self, name: &str) -> Option<&Relation<P>> {
        self.relations.get(name)
    }

    /// Mutable lookup, creating an empty relation of `arity` if missing.
    pub fn get_or_insert(&mut self, name: &str, arity: usize) -> &mut Relation<P> {
        self.relations
            .entry(name.to_string())
            .or_insert_with(|| Relation::new(arity))
    }

    /// Iterates over `(name, relation)` deterministically.
    pub fn iter(&self) -> impl Iterator<Item = (&String, &Relation<P>)> {
        self.relations.iter()
    }

    /// The active domain: all constants in all supports.
    pub fn active_domain(&self) -> BTreeSet<Constant> {
        self.relations
            .values()
            .flat_map(|r| r.constants())
            .collect()
    }
}

/// Conversion hook: consume an instance into named relations.
impl<P: Pops> IntoIterator for Database<P> {
    type Item = (String, Relation<P>);
    type IntoIter = std::collections::btree_map::IntoIter<String, Relation<P>>;
    fn into_iter(self) -> Self::IntoIter {
        self.relations.into_iter()
    }
}

/// Conversion hook: assemble an instance from named relations (later
/// duplicates replace earlier ones, like repeated [`Database::insert`]).
impl<P: Pops> FromIterator<(String, Relation<P>)> for Database<P> {
    fn from_iter<I: IntoIterator<Item = (String, Relation<P>)>>(iter: I) -> Self {
        Database {
            relations: iter.into_iter().collect(),
        }
    }
}

/// A Boolean instance (`σ_B` in the paper) is just a `Database<Bool>`;
/// presence of a tuple means `true`.
pub type BoolDatabase = Database<dlo_pops::Bool>;

/// Convenience: builds a Boolean relation from a tuple list.
pub fn bool_relation<I: IntoIterator<Item = Tuple>>(
    arity: usize,
    tuples: I,
) -> Relation<dlo_pops::Bool> {
    Relation::from_pairs(arity, tuples.into_iter().map(|t| (t, dlo_pops::Bool(true))))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tup;
    use dlo_pops::lifted::{lreal, Bot};
    use dlo_pops::{LiftedReal, NNReal, PreSemiring, Trop};

    /// Deterministic xorshift stream for the randomized tests.
    fn xorshift(mut s: u64) -> impl FnMut() -> u64 {
        move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        }
    }

    /// One of twelve arity-2 tuples, so random lists repeat tuples.
    fn key(r: u64) -> Tuple {
        tup![(r % 4) as i64, ((r >> 8) % 3) as i64]
    }

    /// The reference the sorted vector is held to: a tree map under the
    /// `merge` rule (absent sets, present `⊕`-combines, `⊥` removes).
    fn model_merge<P: Pops>(m: &mut BTreeMap<Tuple, P>, t: Tuple, v: P) {
        let v = match m.get(&t) {
            Some(old) => old.add(&v),
            None => v,
        };
        if v.is_bottom() {
            m.remove(&t);
        } else {
            m.insert(t, v);
        }
    }

    /// `from_pairs` over shuffled, sorted and strictly increasing lists
    /// equals the left fold of `merge` in input order, and a tree map
    /// model's contents and order; random `set` / `merge` / `get`
    /// sequences match the same model.
    fn check_against_model<P: Pops>(seed: u64, mut value: impl FnMut(u64) -> P) {
        let mut rng = xorshift(seed);
        for _ in 0..200 {
            let n = (rng() % 40) as usize;
            let shuffled: Vec<(Tuple, P)> = (0..n).map(|_| (key(rng()), value(rng()))).collect();
            let mut sorted = shuffled.clone();
            sorted.sort_by(|a, b| a.0.cmp(&b.0));
            let mut increasing = sorted.clone();
            increasing.dedup_by(|a, b| a.0 == b.0);
            for pairs in [shuffled, sorted, increasing] {
                let mut folded = Relation::new(2);
                let mut model = BTreeMap::new();
                for (t, v) in pairs.clone() {
                    folded.merge(t.clone(), v.clone());
                    model_merge(&mut model, t, v);
                }
                let built = Relation::from_pairs(2, pairs);
                assert_eq!(built, folded);
                assert!(built.support().eq(model.iter()));
                assert_eq!(built.support_size(), model.len());
            }

            let mut rel = Relation::new(2);
            let mut model = BTreeMap::new();
            for _ in 0..60 {
                let (t, v) = (key(rng()), value(rng()));
                match rng() % 3 {
                    0 => {
                        rel.set(t.clone(), v.clone());
                        model.remove(&t);
                        model_merge(&mut model, t, v);
                    }
                    1 => {
                        rel.merge(t.clone(), v.clone());
                        model_merge(&mut model, t, v);
                    }
                    _ => assert_eq!(
                        rel.get(&t),
                        model.get(&t).cloned().unwrap_or_else(P::bottom)
                    ),
                }
            }
            assert!(rel.support().eq(model.iter()));
        }
    }

    #[test]
    fn from_pairs_is_the_left_fold_of_merge_in_input_order() {
        // Float `⊕` is not associative: 0.1 + 0.2 + 0.3 depends on the
        // order of the terms, and 1e16 swallows what is added after it.
        let reals = [0.0, 0.1, 0.2, 0.3, 1.0, 1e16, 3.7];
        check_against_model(1, |r| NNReal::of(reals[(r % 7) as usize]));
        // On the lifted reals `x ⊕ ⊥ = ⊥` empties an entry partway
        // through a run, and the next value sets it afresh.
        check_against_model(2, |r| match r % 5 {
            0 => Bot,
            i => lreal([0.1, -0.2, 0.3, 1e16][i as usize - 1]),
        });
        check_against_model(3, |r| match r % 4 {
            0 => Trop::INF,
            i => Trop::finite(i as f64),
        });
    }

    #[test]
    fn a_run_that_reaches_bottom_restarts() {
        let x = || tup!["x"];
        let pairs = vec![
            (x(), lreal(1.0)),
            (tup!["w"], lreal(5.0)),
            (x(), Bot),
            (x(), lreal(2.0)),
            (x(), lreal(0.5)),
        ];
        let r = Relation::<LiftedReal>::from_pairs(1, pairs);
        assert_eq!(r.get(&x()), lreal(2.5));
        assert_eq!(r.support_size(), 2);
    }

    #[test]
    fn bottom_is_not_stored() {
        let mut r = Relation::<Trop>::new(2);
        r.set(tup!["a", "b"], Trop::finite(3.0));
        r.set(tup!["a", "c"], Trop::INF); // ⊥ — dropped
        assert_eq!(r.support_size(), 1);
        assert_eq!(r.get(&tup!["a", "b"]), Trop::finite(3.0));
        assert_eq!(r.get(&tup!["a", "c"]), Trop::INF);
        // overwriting with ⊥ deletes:
        r.set(tup!["a", "b"], Trop::INF);
        assert!(r.is_empty());
    }

    #[test]
    fn merge_uses_add() {
        let mut r = Relation::<Trop>::new(1);
        r.merge(tup!["x"], Trop::finite(5.0));
        r.merge(tup!["x"], Trop::finite(3.0));
        assert_eq!(r.get(&tup!["x"]), Trop::finite(3.0)); // min
    }

    #[test]
    fn from_pairs_combines_duplicates() {
        let r = Relation::<Trop>::from_pairs(
            1,
            vec![
                (tup!["x"], Trop::finite(5.0)),
                (tup!["x"], Trop::finite(2.0)),
            ],
        );
        assert_eq!(r.get(&tup!["x"]), Trop::finite(2.0));
    }

    #[test]
    fn active_domain_collects_constants() {
        let mut db = Database::<Trop>::new();
        db.insert(
            "E",
            Relation::from_pairs(
                2,
                vec![
                    (tup!["a", "b"], Trop::finite(1.0)),
                    (tup!["b", "c"], Trop::finite(2.0)),
                ],
            ),
        );
        let adom = db.active_domain();
        assert_eq!(adom.len(), 3);
        assert!(adom.contains(&Constant::str("a")));
    }

    #[test]
    fn relation_equality_ignores_bottom_entries() {
        let mut a = Relation::<Trop>::new(1);
        let mut b = Relation::<Trop>::new(1);
        a.set(tup![1], Trop::finite(1.0));
        b.set(tup![1], Trop::finite(1.0));
        b.set(tup![2], Trop::zero()); // ⊥, not stored
        assert_eq!(a, b);
    }
}
