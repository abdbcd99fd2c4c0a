//! Relational (tuple-at-a-time) evaluation — the production-engine path.
//!
//! The grounded backend (\[`crate::ground`\]) materializes one polynomial
//! per ground IDB atom up front; faithful to eq. (27), but the grounding
//! itself costs `O(|ADom|^vars)` in the worst case. This backend instead
//! evaluates the immediate consequence operator *directly on relations*
//! each iteration, the way Soufflé-style engines run datalog: every
//! sum-product is a join over the supports of its atoms and of the
//! positive condition atoms, `⊕`-aggregated into the head relation.
//!
//! Soundness requires supports to be exhaustive, i.e. absent = `0` =
//! absorbing: the backend is therefore restricted to naturally ordered
//! semirings (the same restriction as sparse grounding; the dense grounded
//! backend remains the reference for exotic POPS like the lifted reals).
//!
//! Both the naïve loop and a semi-naïve loop (the relation-level reading
//! of Theorem 6.5: one join per IDB occurrence, with that occurrence
//! restricted to the Δ-support, earlier occurrences reading the new state
//! and later ones the old state) are provided; both are cross-checked
//! against the grounded backend in tests.

use crate::ast::{Atom, Program, SumProduct, Term, Var};
use crate::eval::EvalOutcome;
use crate::formula::{eval_args, eval_term, Formula, Valuation};
use crate::relation::{BoolDatabase, Database, Relation};
use crate::value::{Constant, Tuple};
use dlo_pops::{Bool, CompleteDistributiveDioid, NaturallyOrdered, Pops};
use std::collections::{BTreeMap, BTreeSet};

/// Which state an IDB occurrence reads during a join (Theorem 6.5's
/// prefix-new / delta / suffix-old split; naïve always reads `New`).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum IdbSource {
    New,
    Old,
    Delta,
}

/// The IDB states visible to a join.
struct IdbStates<'a, P: Pops> {
    new: &'a Database<P>,
    old: &'a Database<P>,
    delta: &'a Database<P>,
}

// Manual impls: references are Copy regardless of `P` (derive would
// incorrectly demand `P: Copy`).
impl<P: Pops> Clone for IdbStates<'_, P> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<P: Pops> Copy for IdbStates<'_, P> {}

impl<'a, P: Pops> IdbStates<'a, P> {
    fn get(&self, src: IdbSource, pred: &str) -> Option<&'a Relation<P>> {
        match src {
            IdbSource::New => self.new.get(pred),
            IdbSource::Old => self.old.get(pred),
            IdbSource::Delta => self.delta.get(pred),
        }
    }
}

/// A join participant.
enum Binder<'a, P: Pops> {
    /// A POPS factor: binds variables and supplies the value for factor
    /// slot `fi`.
    Factor {
        atom: &'a Atom,
        rel: Option<&'a Relation<P>>,
        fi: usize,
    },
    /// A positive Boolean condition atom: binds variables only.
    Guard {
        atom: &'a Atom,
        rel: Option<&'a Relation<Bool>>,
    },
}

/// Extracts `Var = constant` bindings from the conjunctive spine of a
/// condition — these pre-bind variables so indicator-style sum-products
/// (`{1 | X = a}`) don't fall back to full-ADom enumeration.
fn equality_bindings(phi: &Formula, theta: &mut Valuation) {
    match phi {
        Formula::And(a, b) => {
            equality_bindings(a, theta);
            equality_bindings(b, theta);
        }
        Formula::Cmp(Term::Var(v), crate::formula::CmpOp::Eq, Term::Const(c))
        | Formula::Cmp(Term::Const(c), crate::formula::CmpOp::Eq, Term::Var(v)) => {
            theta.entry(*v).or_insert_with(|| c.clone());
        }
        _ => {}
    }
}

/// Unifies `atom.args` against `tuple` under `theta`; on success returns
/// the variables newly bound (which the caller must unbind). A
/// key-function argument whose variables are not yet bound cannot be
/// evaluated here: it is accepted provisionally and pushed onto
/// `deferred` as a `(term, matched constant)` obligation that [`join`]
/// re-verifies once the valuation is complete (the caller truncates
/// `deferred` when it backtracks past this tuple).
fn unify<'a>(
    atom: &'a Atom,
    tuple: &'a [Constant],
    theta: &mut Valuation,
    deferred: &mut Vec<(&'a Term, &'a Constant)>,
) -> Option<Vec<Var>> {
    if tuple.len() != atom.args.len() {
        return None;
    }
    let mut bound_here: Vec<Var> = vec![];
    for (arg, c) in atom.args.iter().zip(tuple.iter()) {
        let ok = match arg {
            Term::Var(v) => match theta.get(v) {
                Some(existing) => existing == c,
                None => {
                    theta.insert(*v, c.clone());
                    bound_here.push(*v);
                    true
                }
            },
            term => match eval_term(term, theta) {
                None => {
                    deferred.push((term, c));
                    true
                }
                Some(val) => &val == c,
            },
        };
        if !ok {
            for b in &bound_here {
                theta.remove(b);
            }
            return None;
        }
    }
    Some(bound_here)
}

/// Nested-loop join over `binders`, then ADom enumeration for leftover
/// variables; calls `visit` once per (possibly repeated) full valuation —
/// the caller deduplicates. Deferred key-function obligations collected
/// by [`unify`] are verified here at every complete valuation, so a
/// tuple provisionally matched against a then-unevaluable term (e.g.
/// `A(X - 1)` unified before `X` is bound) only survives if the term
/// really evaluates to the tuple's constant.
#[allow(clippy::too_many_arguments)]
fn join<'a, P: Pops>(
    binders: &[Binder<'a, P>],
    vars: &[Var],
    adom: &[Constant],
    theta: &mut Valuation,
    depth: usize,
    values: &mut Vec<Option<&'a P>>,
    deferred: &mut Vec<(&'a Term, &'a Constant)>,
    visit: &mut impl FnMut(&Valuation, &[Option<&'a P>]),
) {
    if depth == binders.len() {
        fn fill<'a, P: Pops>(
            vars: &[Var],
            adom: &[Constant],
            theta: &mut Valuation,
            values: &[Option<&'a P>],
            deferred: &[(&'a Term, &'a Constant)],
            visit: &mut impl FnMut(&Valuation, &[Option<&'a P>]),
        ) {
            match vars.iter().find(|v| !theta.contains_key(v)) {
                None => {
                    let obligations_hold = deferred
                        .iter()
                        .all(|(t, c)| eval_term(t, theta).as_ref() == Some(*c));
                    if obligations_hold {
                        visit(theta, values)
                    }
                }
                Some(&v) => {
                    for c in adom {
                        theta.insert(v, c.clone());
                        fill(vars, adom, theta, values, deferred, visit);
                    }
                    theta.remove(&v);
                }
            }
        }
        fill(vars, adom, theta, values, deferred, visit);
        return;
    }
    match &binders[depth] {
        Binder::Factor { atom, rel, fi } => {
            let Some(rel) = rel else { return }; // missing relation: all 0
            for (tuple, value) in rel.support() {
                let dlen = deferred.len();
                if let Some(bound) = unify(atom, tuple, theta, deferred) {
                    values[*fi] = Some(value);
                    join(
                        binders,
                        vars,
                        adom,
                        theta,
                        depth + 1,
                        values,
                        deferred,
                        visit,
                    );
                    values[*fi] = None;
                    for b in &bound {
                        theta.remove(b);
                    }
                }
                deferred.truncate(dlen);
            }
        }
        Binder::Guard { atom, rel } => {
            let Some(rel) = rel else { return }; // guard over empty: false
            for (tuple, _) in rel.support() {
                let dlen = deferred.len();
                if let Some(bound) = unify(atom, tuple, theta, deferred) {
                    join(
                        binders,
                        vars,
                        adom,
                        theta,
                        depth + 1,
                        values,
                        deferred,
                        visit,
                    );
                    for b in &bound {
                        theta.remove(b);
                    }
                }
                deferred.truncate(dlen);
            }
        }
    }
}

/// Evaluates one sum-product under a choice of per-occurrence IDB sources,
/// pushing its derivations onto `out` (the caller `⊕`-folds them in one
/// bulk build, [`derive_heads`]).
#[allow(clippy::too_many_arguments)]
fn eval_sum_product<P: NaturallyOrdered>(
    head: &Atom,
    sp: &SumProduct<P>,
    pops_edb: &Database<P>,
    bool_edb: &BoolDatabase,
    idb_preds: &BTreeSet<String>,
    occ_source: impl Fn(usize) -> IdbSource,
    states: IdbStates<'_, P>,
    adom: &[Constant],
    out: &mut Rows<P>,
) {
    let mut vars: Vec<Var> = vec![];
    head.vars(&mut vars);
    for v in sp.vars() {
        if !vars.contains(&v) {
            vars.push(v);
        }
    }

    let mut theta = Valuation::new();
    equality_bindings(&sp.condition, &mut theta);

    let mut binders: Vec<Binder<P>> = vec![];
    let mut idb_occurrence = 0usize;
    for (fi, f) in sp.factors.iter().enumerate() {
        let rel = if idb_preds.contains(&f.atom.pred) {
            let src = occ_source(idb_occurrence);
            idb_occurrence += 1;
            states.get(src, &f.atom.pred)
        } else {
            pops_edb.get(&f.atom.pred)
        };
        binders.push(Binder::Factor {
            atom: &f.atom,
            rel,
            fi,
        });
    }
    for a in sp.condition.conjunctive_atoms() {
        binders.push(Binder::Guard {
            atom: a,
            rel: bool_edb.get(&a.pred),
        });
    }

    let mut seen: BTreeSet<Vec<Constant>> = BTreeSet::new();
    let mut values: Vec<Option<&P>> = vec![None; sp.factors.len()];
    let mut deferred: Vec<(&Term, &Constant)> = vec![];
    join(
        &binders,
        &vars,
        adom,
        &mut theta,
        0,
        &mut values,
        &mut deferred,
        &mut |theta, values| {
            let key: Vec<Constant> = vars
                .iter()
                .map(|v| theta.get(v).expect("full valuation").clone())
                .collect();
            if !seen.insert(key) {
                return;
            }
            if !sp.condition.eval(theta, bool_edb) {
                return;
            }
            let mut acc = sp.coeff.clone().unwrap_or_else(P::one);
            for (fi, f) in sp.factors.iter().enumerate() {
                let Some(v) = values[fi] else { return };
                let v = match &f.func {
                    Some(func) => func.apply(v),
                    None => v.clone(),
                };
                acc = acc.mul(&v);
                if acc.is_zero() {
                    return; // 0 absorbs: nothing to merge
                }
            }
            if let Some(tuple) = eval_args(head, theta) {
                out.push((tuple, acc));
            }
        },
    );
}

/// Every head predicate, with an empty relation.
fn empty_idbs<P: Pops>(program: &Program<P>) -> Database<P> {
    derive_heads(program, |_, _, _| {})
}

/// A head predicate's derivations, in the order they were found.
type Rows<P> = Vec<(Tuple, P)>;

/// Runs `eval` on every sum-product of every rule in program order,
/// collecting each head predicate's derivations, then builds every head
/// relation once — the same `⊕` fold, in the same order, as merging each
/// derivation as it is found.
fn derive_heads<P: Pops>(
    program: &Program<P>,
    mut eval: impl FnMut(&Atom, &SumProduct<P>, &mut Rows<P>),
) -> Database<P> {
    let mut rows: BTreeMap<&str, (usize, Rows<P>)> = BTreeMap::new();
    for rule in &program.rules {
        let (_, out) = rows
            .entry(&rule.head.pred)
            .or_insert_with(|| (rule.head.args.len(), vec![]));
        for sp in &rule.body {
            eval(&rule.head, sp, out);
        }
    }
    rows.into_iter()
        .map(|(pred, (arity, rows))| (pred.to_string(), Relation::from_pairs(arity, rows)))
        .collect()
}

/// One application of the ICO over relations: `F(current)`.
fn apply_ico_relational<P: NaturallyOrdered>(
    program: &Program<P>,
    pops_edb: &Database<P>,
    bool_edb: &BoolDatabase,
    current: &Database<P>,
    adom: &[Constant],
    idb_preds: &BTreeSet<String>,
) -> Database<P> {
    let states = IdbStates {
        new: current,
        old: current,
        delta: current,
    };
    derive_heads(program, |head, sp, out| {
        eval_sum_product(
            head,
            sp,
            pops_edb,
            bool_edb,
            idb_preds,
            |_| IdbSource::New,
            states,
            adom,
            out,
        )
    })
}

fn program_adom<P: Pops>(
    program: &Program<P>,
    pops_edb: &Database<P>,
    bool_edb: &BoolDatabase,
) -> Vec<Constant> {
    let mut adom: BTreeSet<Constant> = pops_edb.active_domain();
    adom.extend(bool_edb.active_domain());
    adom.extend(program.constants());
    adom.into_iter().collect()
}

/// Naïve evaluation directly over relations (no grounding). Restricted to
/// naturally ordered semirings; agrees with the grounded backend
/// (cross-checked in tests and property suites).
pub fn relational_naive_eval<P: NaturallyOrdered>(
    program: &Program<P>,
    pops_edb: &Database<P>,
    bool_edb: &BoolDatabase,
    cap: usize,
) -> EvalOutcome<P> {
    let adom = program_adom(program, pops_edb, bool_edb);
    let idb_preds: BTreeSet<String> = program.idb_preds().into_iter().collect();
    let mut current = empty_idbs(program);
    for steps in 0..=cap {
        let next = apply_ico_relational(program, pops_edb, bool_edb, &current, &adom, &idb_preds);
        if next == current {
            return EvalOutcome::from_converged(current, steps);
        }
        current = next;
    }
    EvalOutcome::from_diverged(current, cap)
}

/// Semi-naïve evaluation over relations: the relation-level differential
/// rule of Theorem 6.5 (eq. 64/65). Constant sum-products are covered by
/// the seeding step and skipped thereafter (eq. 65).
pub fn relational_seminaive_eval<P: CompleteDistributiveDioid + NaturallyOrdered>(
    program: &Program<P>,
    pops_edb: &Database<P>,
    bool_edb: &BoolDatabase,
    cap: usize,
) -> EvalOutcome<P> {
    let adom = program_adom(program, pops_edb, bool_edb);
    let idb_preds: BTreeSet<String> = program.idb_preds().into_iter().collect();

    // t = 0: full evaluation from the empty state; δ(0) = F(0) ⊖ 0 = F(0).
    let mut old = empty_idbs(program);
    let mut new = apply_ico_relational(program, pops_edb, bool_edb, &old, &adom, &idb_preds);
    let mut delta = new.clone();

    for steps in 1..=cap {
        if delta.iter().all(|(_, r)| r.is_empty()) {
            return EvalOutcome::from_converged(new, steps);
        }
        let states = IdbStates {
            new: &new,
            old: &old,
            delta: &delta,
        };
        let contrib = derive_heads(program, |head, sp, out| {
            let n_idb = sp
                .factors
                .iter()
                .filter(|f| idb_preds.contains(&f.atom.pred))
                .count();
            // Eq. (65): IDB-free sum-products never change.
            for k in 0..n_idb {
                eval_sum_product(
                    head,
                    sp,
                    pops_edb,
                    bool_edb,
                    &idb_preds,
                    |occ| {
                        use std::cmp::Ordering::*;
                        match occ.cmp(&k) {
                            Less => IdbSource::New,
                            Equal => IdbSource::Delta,
                            Greater => IdbSource::Old,
                        }
                    },
                    states,
                    &adom,
                    out,
                );
            }
        });
        // δ' = contrib ⊖ new (pointwise on supports); new' = new ⊕ contrib.
        // A support holds each tuple once, so every difference is taken
        // against `new` itself, and new' is `new`'s rows followed by the
        // changed ones, folded in one bulk build.
        let mut next_delta = Database::new();
        let mut next_new = Database::new();
        for (pred, c) in contrib.iter() {
            let cur = new.get(pred);
            let mut delta_rows = vec![];
            let mut new_rows: Vec<(Tuple, P)> = cur
                .into_iter()
                .flat_map(|r| r.support())
                .map(|(t, v)| (t.clone(), v.clone()))
                .collect();
            for (t, v) in c.support() {
                let existing = cur.map_or_else(P::bottom, |r| r.get(t));
                let diff = v.minus(&existing);
                if !diff.is_zero() {
                    delta_rows.push((t.clone(), diff));
                    new_rows.push((t.clone(), v.clone()));
                }
            }
            next_delta.insert(pred, Relation::from_pairs(c.arity(), delta_rows));
            next_new.insert(pred, Relation::from_pairs(c.arity(), new_rows));
        }
        old = new;
        new = next_new;
        delta = next_delta;
    }
    EvalOutcome::from_diverged(new, cap)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::naive::naive_eval_sparse;
    use crate::examples_lib as ex;
    use dlo_pops::{Bool, MinNat, Trop};

    fn assert_all_equal<P: NaturallyOrdered + CompleteDistributiveDioid>(
        program: &Program<P>,
        pops: &Database<P>,
        bools: &BoolDatabase,
    ) {
        let grounded = naive_eval_sparse(program, pops, bools, 100_000).unwrap();
        let rel = relational_naive_eval(program, pops, bools, 100_000).unwrap();
        let semi = relational_seminaive_eval(program, pops, bools, 100_000).unwrap();
        for (pred, r) in grounded.iter() {
            let rr = rel
                .get(pred)
                .cloned()
                .unwrap_or_else(|| Relation::new(r.arity()));
            let rs = semi
                .get(pred)
                .cloned()
                .unwrap_or_else(|| Relation::new(r.arity()));
            assert_eq!(r, &rr, "relational naive differs on {pred}");
            assert_eq!(r, &rs, "relational semi-naive differs on {pred}");
        }
        for (pred, r) in rel.iter() {
            if grounded.get(pred).is_none() {
                assert!(r.is_empty(), "extra derivations in {pred}");
            }
        }
    }

    #[test]
    fn sssp_matches_grounded_backend() {
        let (program, edb) = ex::sssp_trop("a");
        assert_all_equal(&program, &edb, &BoolDatabase::new());
    }

    #[test]
    fn apsp_matches_grounded_backend() {
        let (program, edb) = ex::apsp_trop(&[
            ("a", "b", 1.0),
            ("b", "a", 2.0),
            ("b", "c", 3.0),
            ("c", "d", 4.0),
            ("a", "c", 5.0),
        ]);
        assert_all_equal(&program, &edb, &BoolDatabase::new());
    }

    #[test]
    fn quadratic_tc_matches_grounded_backend() {
        let (program, edb) =
            ex::quadratic_tc_bool(&[("a", "b"), ("b", "c"), ("c", "a"), ("c", "d")]);
        assert_all_equal(&program, &edb, &BoolDatabase::new());
        let _ = Bool(true);
    }

    #[test]
    fn condition_guards_and_indicators_work() {
        // The SSSP program uses {1 | X = a}: the equality pre-binding path.
        let program: Program<MinNat> = ex::single_source_program("s");
        let mut edb = Database::new();
        edb.insert(
            "E",
            Relation::from_pairs(
                2,
                vec![
                    (crate::tup!["s", "t"], MinNat::finite(2)),
                    (crate::tup!["t", "u"], MinNat::finite(3)),
                ],
            ),
        );
        assert_all_equal(&program, &edb, &BoolDatabase::new());
        let out = relational_naive_eval(&program, &edb, &BoolDatabase::new(), 1000).unwrap();
        assert_eq!(out.get("L").unwrap().get(&crate::tup!["u"]), MinNat(5));
    }

    #[test]
    fn bool_condition_atoms_bind_through_guards() {
        // BOM-style over MinNat: T(x) :- C(x) ⊕ Σ{T(y) | E(x,y)}.
        let program: Program<MinNat> = ex::bom_program();
        let mut pops = Database::new();
        pops.insert(
            "C",
            Relation::from_pairs(
                1,
                vec![
                    (crate::tup!["c"], MinNat::finite(1)),
                    (crate::tup!["d"], MinNat::finite(10)),
                ],
            ),
        );
        let mut bools = BoolDatabase::new();
        bools.insert(
            "E",
            crate::relation::bool_relation(2, vec![crate::tup!["c", "d"]]),
        );
        assert_all_equal(&program, &pops, &bools);
        let out = relational_naive_eval(&program, &pops, &bools, 1000).unwrap();
        // With ⊕ = min: T(c) = min(C(c), T(d)) = min(1, 10) = 1.
        assert_eq!(out.get("T").unwrap().get(&crate::tup!["c"]), MinNat(1));
    }

    #[test]
    fn wildcard_key_function_args_are_rechecked() {
        use crate::ast::{Atom, Factor, KeyFn, SumProduct, Term};
        // R(X) :- A(X - 1) ⊗ V(X): the A factor unifies before X is
        // bound, so its key-function argument is a wildcard at unify
        // time and must be re-verified once the valuation completes —
        // otherwise every (A-tuple, V-tuple) pair survives.
        let mut p = Program::<Trop>::new();
        p.rule(
            Atom::new("R", vec![Term::v(0)]),
            vec![SumProduct::new(vec![
                Factor::atom(
                    "A",
                    vec![Term::Apply(KeyFn::AddInt(-1), Box::new(Term::v(0)))],
                ),
                Factor::atom("V", vec![Term::v(0)]),
            ])],
        );
        let mut db = Database::new();
        db.insert(
            "A",
            Relation::from_pairs(
                1,
                vec![
                    (crate::tup![0i64], Trop::finite(10.0)),
                    (crate::tup![5i64], Trop::finite(70.0)),
                ],
            ),
        );
        db.insert(
            "V",
            Relation::from_pairs(
                1,
                vec![
                    (crate::tup![1i64], Trop::finite(1.0)),
                    (crate::tup![6i64], Trop::finite(2.0)),
                ],
            ),
        );
        let grounded = naive_eval_sparse(&p, &db, &BoolDatabase::new(), 1000).unwrap();
        let rel = relational_naive_eval(&p, &db, &BoolDatabase::new(), 1000).unwrap();
        let semi = relational_seminaive_eval(&p, &db, &BoolDatabase::new(), 1000).unwrap();
        let r = grounded.get("R").unwrap();
        assert_eq!(r.get(&crate::tup![1i64]), Trop::finite(11.0), "A(0) ⊗ V(1)");
        assert_eq!(r.get(&crate::tup![6i64]), Trop::finite(72.0), "A(5) ⊗ V(6)");
        assert_eq!(r, rel.get("R").unwrap(), "relational naive recheck");
        assert_eq!(r, semi.get("R").unwrap(), "relational semi-naive recheck");
    }

    #[test]
    fn divergence_detected() {
        use crate::ast::{Atom, Factor, SumProduct, Term};
        use dlo_pops::Nat;
        let mut p = Program::<Nat>::new();
        p.rule(
            Atom::new("X", vec![Term::c("u")]),
            vec![
                SumProduct::new(vec![]).with_coeff(Nat(1)),
                SumProduct::new(vec![Factor::atom("X", vec![Term::c("u")])]).with_coeff(Nat(2)),
            ],
        );
        assert!(
            !relational_naive_eval(&p, &Database::new(), &BoolDatabase::new(), 30).is_converged()
        );
        let _ = Trop::INF;
    }
}
