//! Demand transformation: adornments and the magic-set rewrite.
//!
//! Given a [`Program`] and a [`Query`], [`magic_rewrite`] produces a
//! program whose least fixpoint, restricted to the query, equals the
//! original program's — while deriving (ideally) only the facts the
//! query can reach. A single-source shortest-path question against an
//! all-pairs program stops paying for all pairs.
//!
//! ## The rewrite
//!
//! 1. **Adornment pass** (sideways information passing). Starting from
//!    the query's bound/free pattern, propagate boundness through rule
//!    bodies: a head position adorned `b` binds its variable; `Var =
//!    const` equalities on the condition's conjunctive spine bind;
//!    every variable of a **non-IDB** factor or a conjunctive Boolean
//!    guard atom is bound (those atoms all travel into the magic rule
//!    bodies, so the rewrite can evaluate them — no reachability
//!    restriction is needed for soundness, and including them keeps
//!    demand tight). An IDB occurrence's adornment marks the positions
//!    whose argument terms are constants or use only bound variables.
//!    A predicate reached with several adornments gets their **meet**
//!    (bound only where *all* agree — one magic predicate per IDB, at
//!    the cost of slightly wider demand than the textbook
//!    one-copy-per-adornment rewrite). Bindings are *not* passed
//!    through IDB occurrences (that would make demand and answers
//!    mutually recursive across value spaces); an occurrence whose
//!    bound set comes up empty simply weakens its predicate to
//!    all-free, i.e. fully demanded. One guard precedes the pass: if
//!    any query-reachable rule has a variable no join can bind (those
//!    are enumerated over the **active domain**), the whole query
//!    falls back to all-free — a magic guard would re-scope such a
//!    variable from the domain to the demanded set, which may contain
//!    query constants or minted demand keys outside the domain, and
//!    the answers would no longer be a restriction of the original
//!    fixpoint ([`DemandProgram::domain_enumerated`]).
//!
//! 2. **Magic rules** (demand propagation). For every rule of an
//!    adorned predicate `p` and every IDB occurrence `q` in it, emit
//!    `m_q(bound args of q) :- m_p(bound head args) ⊗ demand(edb₁) ⊗ …
//!    | spine-guards`, where `demand(v) = 1 if v ≠ 0 else 0` collapses
//!    every EDB factor's value to the multiplicative identity.
//!    **Demand is set-valued even when program values are
//!    semiring-valued**: a magic fact means "this binding is needed",
//!    nothing more, so magic relations live on the Bool lattice
//!    {absent, present} regardless of the POPS — concretely, engine
//!    drivers store every magic row with value `1` and never merge
//!    into it again (see `set-valued` handling in `dlo_engine`).
//!    Hence a magic rule whose head *is* its guard is not emitted: APSP
//!    queried as `T(s, Y)` would get `m_T(X) :- m_T(X) ⊗ demand(E(Z, Y))`,
//!    which can only re-derive the fact it reads, yet would scan `E`
//!    once for every demanded `X`.
//!
//! 3. **Guarded rules** (answer restriction). Every rule of an adorned
//!    predicate with at least one bound position gets the magic factor
//!    `m_p(bound head args)` prepended. Its value is always `1`, so
//!    multiplying it in never changes an answer — it only gates which
//!    bindings fire. Rules of IDBs the adornment pass never reaches
//!    are dropped entirely: no demand can flow to them.
//!
//! 4. **Seed**. `m_query(query constants) :- 1` — the single fact the
//!    whole fixpoint grows from. Under `dlo_engine`'s frontier drivers
//!    this is the only seed-plan contribution, so the frontier starts
//!    at the query constants instead of the whole EDB.
//!
//! ## Why absorption is *not* required for correctness
//!
//! The rewrite is sound for **any** POPS, not just the absorptive
//! dioids the frontier strategies need. Correctness only needs two
//! facts. (a) Demand is an *over*-approximation: every valuation that
//! contributes to a demanded row has its IDB sub-occurrences demanded
//! too (the magic rule for that occurrence includes every non-IDB
//! factor and every spine guard of the body, so it fires for at least
//! the valuations the guarded rule fires for — dropping the
//! non-evaluable condition parts only widens it further). By induction
//! every contributing derivation tree survives the rewrite, so each
//! demanded row — the query rows included — carries exactly its
//! original fixpoint value. (b) The guard factor multiplies by `1`,
//! the `⊗`-identity, so values pass through unchanged. Neither fact
//! uses absorption, idempotence, or a total order; those only decide
//! *which evaluation strategies* may run the rewritten program
//! (absorption licenses the worklist, a total chain order the
//! settled-on-pop priority frontier), exactly as for any other
//! program. What absorption's absence *does* cost is that demand must
//! be kept set-valued by the evaluator: over a non-idempotent `⊕`
//! (e.g. ℕ) re-deriving a magic fact would otherwise pump its value
//! (`1 ⊕ 1 = 2`) forever around demand cycles. `dlo_engine` freezes
//! magic rows at `1` on first insertion; a backend without that
//! handling (the grounded reference) still computes
//! rewritten programs correctly over idempotent `⊕`, where `1 ⊕ 1 =
//! 1` holds algebraically.

use crate::ast::{Atom, Factor, Program, Rule, SumProduct, Term, UnaryFn, Var};
use crate::formula::{CmpOp, Formula};
use crate::query::{Query, QueryArg};
use dlo_pops::Pops;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;

/// The name prefix of generated magic predicates. Starts with `@` so no
/// parsed program can collide with it (the lexer rejects `@`).
pub const MAGIC_PREFIX: &str = "@magic_";

/// The reserved name of the demand value collapse `v ↦ [v ≠ 0]`.
pub const DEMAND_FN: &str = "@demand";

/// The magic predicate name for an IDB.
pub fn magic_pred(pred: &str) -> String {
    format!("{MAGIC_PREFIX}{pred}")
}

/// Why a query cannot be compiled against a program.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DemandError {
    /// The queried predicate is not an IDB of the program.
    UnknownPredicate(String),
    /// The query's arity differs from the predicate's.
    ArityMismatch {
        /// The queried predicate.
        pred: String,
        /// The predicate's arity.
        expected: usize,
        /// The query's arity.
        got: usize,
    },
    /// The program already uses a name the rewrite needs to generate.
    MagicNameClash(String),
}

impl fmt::Display for DemandError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DemandError::UnknownPredicate(p) => {
                write!(f, "query predicate `{p}` is not an IDB of the program")
            }
            DemandError::ArityMismatch {
                pred,
                expected,
                got,
            } => write!(
                f,
                "query arity {got} does not match `{pred}` (arity {expected})"
            ),
            DemandError::MagicNameClash(p) => {
                write!(f, "program already defines the reserved name `{p}`")
            }
        }
    }
}
impl std::error::Error for DemandError {}

/// The result of [`magic_rewrite`]: the demand-restricted program plus
/// the metadata an evaluator needs to treat it correctly.
#[derive(Clone, Debug)]
pub struct DemandProgram<P> {
    /// The rewritten program: magic seed + magic rules + guarded rules.
    pub program: Program<P>,
    /// Names of the generated magic predicates, in first-use order.
    /// Evaluators must treat these as **set-valued**: store `1` on
    /// first insertion and never merge into the row again.
    pub magic_preds: Vec<String>,
    /// IDBs the adornment pass never reached — their rules were
    /// dropped, because no demand can flow to them from the query.
    pub dropped_preds: Vec<String>,
    /// The final per-predicate adornment (`true` = bound) of every
    /// reached IDB. All-free means the predicate is fully demanded and
    /// its rules run unguarded.
    pub adornments: BTreeMap<String, Vec<bool>>,
    /// Whether the domain-enumeration guard fired: some query-reachable
    /// rule has a variable no join can bind (evaluators enumerate it
    /// over the active domain), so the rewrite fell back to
    /// unrestricted all-free evaluation of the reachable fragment —
    /// magic guards would have re-scoped that variable to the demanded
    /// set and broken the restriction invariant.
    pub domain_enumerated: bool,
    /// The query the rewrite was built for.
    pub query: Query,
}

/// The monotone demand collapse `v ↦ [v ≠ 0]`, mapping `0` to `0` and
/// everything else to `1`. Monotone on every naturally ordered POPS:
/// natural orders are zero-sum-free (`x ⊕ z = 0 ⟹ x = 0`), so `x ⊑ y`
/// and `x ≠ 0` imply `y ≠ 0`.
pub fn demand_fn<P: Pops>() -> UnaryFn<P> {
    UnaryFn::new(
        DEMAND_FN,
        |v: &P| {
            if v.is_zero() {
                P::zero()
            } else {
                P::one()
            }
        },
    )
}

/// Rewrites `program` for goal-directed evaluation of `query` (see the
/// module docs for the construction and its correctness argument).
///
/// An all-free query — or one whose predicate weakens to all-free
/// during the adornment meet — yields a program with no magic
/// predicates for that goal: the reachable fragment is computed in
/// full (rules of *unreachable* IDBs are still dropped).
pub fn magic_rewrite<P: Pops>(
    program: &Program<P>,
    query: &Query,
) -> Result<DemandProgram<P>, DemandError> {
    // IDB table with arities (first head occurrence wins, as in the
    // engine compiler).
    let mut idbs: Vec<(String, usize)> = vec![];
    for r in &program.rules {
        if !idbs.iter().any(|(n, _)| n == &r.head.pred) {
            idbs.push((r.head.pred.clone(), r.head.args.len()));
        }
    }
    let Some((_, arity)) = idbs.iter().find(|(n, _)| n == &query.pred) else {
        return Err(DemandError::UnknownPredicate(query.pred.clone()));
    };
    if *arity != query.arity() {
        return Err(DemandError::ArityMismatch {
            pred: query.pred.clone(),
            expected: *arity,
            got: query.arity(),
        });
    }
    for (name, _) in &idbs {
        if name.starts_with(MAGIC_PREFIX) {
            return Err(DemandError::MagicNameClash(name.clone()));
        }
    }
    let is_idb = |pred: &str| idbs.iter().any(|(n, _)| n == pred);

    // ── Domain-enumeration guard. ────────────────────────────────────
    // A variable bound by nothing a join can bind (no plain factor or
    // guard argument, no `Var = const` equality) is enumerated over the
    // **active domain** by every evaluator. Magic guards re-scope such
    // variables to the *demanded* set, which is not a subset of the
    // original domain when the query constants — or demand keys minted
    // through key functions in magic heads — lie outside it, so the
    // restriction invariant would break. When any query-reachable rule
    // has such a variable, fall back to unrestricted evaluation of the
    // reachable fragment (all-free adornment): without magic factors no
    // variable's range changes, and unreachable rules still drop.
    let domain_enumerated = {
        let mut reach: BTreeSet<&str> = BTreeSet::from([query.pred.as_str()]);
        let mut work: Vec<&str> = vec![query.pred.as_str()];
        while let Some(p) = work.pop() {
            for rule in program.rules.iter().filter(|r| r.head.pred == p) {
                for sp in &rule.body {
                    for f in sp.factors.iter().filter(|f| is_idb(&f.atom.pred)) {
                        if reach.insert(&f.atom.pred) {
                            work.push(&f.atom.pred);
                        }
                    }
                }
            }
        }
        program
            .rules
            .iter()
            .filter(|r| reach.contains(r.head.pred.as_str()))
            .any(|rule| rule.body.iter().any(|sp| sp_enumerates(rule, sp)))
    };

    // ── Adornment pass: meet-iterate to a fixpoint. ──────────────────
    let mut adorn: BTreeMap<String, Vec<bool>> = BTreeMap::new();
    let initial = if domain_enumerated {
        vec![false; query.arity()]
    } else {
        query.adornment()
    };
    adorn.insert(query.pred.clone(), initial);
    let mut work: VecDeque<String> = VecDeque::from([query.pred.clone()]);
    while let Some(p) = work.pop_front() {
        let ap = adorn[&p].clone();
        for rule in program.rules.iter().filter(|r| r.head.pred == p) {
            for sp in &rule.body {
                let bound = bound_vars(rule, &ap, sp, &is_idb);
                for f in sp.factors.iter().filter(|f| is_idb(&f.atom.pred)) {
                    let aq: Vec<bool> = f.atom.args.iter().map(|t| term_bound(t, &bound)).collect();
                    match adorn.get_mut(&f.atom.pred) {
                        None => {
                            adorn.insert(f.atom.pred.clone(), aq);
                            work.push_back(f.atom.pred.clone());
                        }
                        Some(old) => {
                            let meet: Vec<bool> =
                                old.iter().zip(&aq).map(|(a, b)| *a && *b).collect();
                            if meet != *old {
                                *old = meet;
                                work.push_back(f.atom.pred.clone());
                            }
                        }
                    }
                }
            }
        }
    }

    // ── Generate the rewritten program from the final adornments. ────
    let dfn = demand_fn::<P>();
    let mut magic_preds: Vec<String> = vec![];
    let mut note_magic = |pred: &str| {
        let m = magic_pred(pred);
        if !magic_preds.contains(&m) {
            magic_preds.push(m.clone());
        }
        m
    };
    let guarded = |pred: &str| adorn.get(pred).is_some_and(|a| a.iter().any(|b| *b));
    let mut out = Program::new();

    // Seed: m_query(bound constants) :- 1.
    if guarded(&query.pred) {
        let m = note_magic(&query.pred);
        let args: Vec<Term> = query
            .args
            .iter()
            .zip(&adorn[&query.pred])
            .filter(|(_, b)| **b)
            .map(|(a, _)| match a {
                QueryArg::Bound(c) => Term::Const(c.clone()),
                QueryArg::Free => unreachable!("meet of the query adornment never adds bounds"),
            })
            .collect();
        out.rule(Atom::new(&m, args), vec![SumProduct::new(vec![])]);
    }

    // Magic rules: demand propagation from every adorned rule to every
    // IDB occurrence with a bound position (dedup — occurrences of one
    // predicate in symmetric positions often yield identical rules).
    let mut magic_rules: Vec<Rule<P>> = vec![];
    for rule in &program.rules {
        let Some(ap) = adorn.get(&rule.head.pred) else {
            continue; // undemanded head: rule dropped below, no demand flows
        };
        for sp in &rule.body {
            let bound = bound_vars(rule, ap, sp, &is_idb);
            for f in sp.factors.iter().filter(|f| is_idb(&f.atom.pred)) {
                let aq = &adorn[&f.atom.pred];
                if !aq.iter().any(|b| *b) {
                    continue; // all-free occurrence: fully demanded, no magic
                }
                let head = Atom::new(
                    &note_magic(&f.atom.pred),
                    f.atom
                        .args
                        .iter()
                        .zip(aq)
                        .filter(|(_, b)| **b)
                        .map(|(t, _)| t.clone())
                        .collect(),
                );
                let mut factors: Vec<Factor<P>> = vec![];
                if guarded(&rule.head.pred) {
                    let guard = Factor::atom(
                        &note_magic(&rule.head.pred),
                        bound_head_args(&rule.head, ap),
                    );
                    if guard.atom == head {
                        continue; // derives only the fact it reads (step 2)
                    }
                    factors.push(guard);
                }
                for ef in sp.factors.iter().filter(|f| !is_idb(&f.atom.pred)) {
                    factors.push(Factor::wrapped(
                        &ef.atom.pred,
                        ef.atom.args.clone(),
                        dfn.clone(),
                    ));
                }
                let condition = restrict_formula(&sp.condition, &bound);
                let r = Rule {
                    head,
                    body: vec![SumProduct::new(factors).with_condition(condition)],
                };
                if !magic_rules.contains(&r) {
                    magic_rules.push(r);
                }
            }
        }
    }
    for r in magic_rules {
        out.rule(r.head, r.body);
    }

    // Guarded (or unguarded all-free) copies of the demanded rules.
    let mut dropped: Vec<String> = vec![];
    for rule in &program.rules {
        let Some(ap) = adorn.get(&rule.head.pred) else {
            if !dropped.contains(&rule.head.pred) {
                dropped.push(rule.head.pred.clone());
            }
            continue;
        };
        let body: Vec<SumProduct<P>> = rule
            .body
            .iter()
            .map(|sp| {
                let mut sp = sp.clone();
                if guarded(&rule.head.pred) {
                    sp.factors.insert(
                        0,
                        Factor::atom(
                            &note_magic(&rule.head.pred),
                            bound_head_args(&rule.head, ap),
                        ),
                    );
                }
                sp
            })
            .collect();
        out.rule(rule.head.clone(), body);
    }

    Ok(DemandProgram {
        program: out,
        magic_preds,
        dropped_preds: dropped,
        adornments: adorn,
        domain_enumerated,
        query: query.clone(),
    })
}

/// Whether this sum-product has a variable no join step can bind —
/// mirroring the engine compiler's binding rules: plain `Var` arguments
/// of factors and conjunctive guard atoms bind, `Var = const` spine
/// equalities pre-bind, and key-function arguments bind **nothing**
/// (they are evaluated, not inverted). Leftover variables are
/// enumerated over the active domain (`Plan::fill` in the engine, `D₀`
/// enumeration in the grounded backend).
fn sp_enumerates<P>(rule: &Rule<P>, sp: &SumProduct<P>) -> bool {
    let mut bound: BTreeSet<Var> = BTreeSet::new();
    equality_spine_vars(&sp.condition, &mut bound);
    let plain = |atom: &Atom, bound: &mut BTreeSet<Var>| {
        for t in &atom.args {
            if let Term::Var(v) = t {
                bound.insert(*v);
            }
        }
    };
    for f in &sp.factors {
        plain(&f.atom, &mut bound);
    }
    for a in sp.condition.conjunctive_atoms() {
        plain(a, &mut bound);
    }
    let mut all: Vec<Var> = vec![];
    rule.head.vars(&mut all);
    for v in sp.vars() {
        if !all.contains(&v) {
            all.push(v);
        }
    }
    all.iter().any(|v| !bound.contains(v))
}

/// The head arguments at the adornment's bound positions (the magic
/// atom's argument list, used identically in magic-rule bodies and
/// guarded-rule factors).
fn bound_head_args(head: &Atom, adornment: &[bool]) -> Vec<Term> {
    head.args
        .iter()
        .zip(adornment)
        .filter(|(_, b)| **b)
        .map(|(t, _)| t.clone())
        .collect()
}

/// Whether every variable of `t` is bound (constants are always bound;
/// a key-function term is bound iff its variables are — the function is
/// *evaluated*, never inverted).
fn term_bound(t: &Term, bound: &BTreeSet<Var>) -> bool {
    let mut vars = vec![];
    t.vars(&mut vars);
    vars.iter().all(|v| bound.contains(v))
}

/// The variables bound inside one sum-product, for demand purposes:
/// head variables at bound positions, `Var = const` equalities on the
/// conjunctive spine, and every variable of a non-IDB factor or a
/// conjunctive Boolean guard (all of which travel into the magic rule
/// body, so the rewrite can always evaluate them).
fn bound_vars<P>(
    rule: &Rule<P>,
    head_adornment: &[bool],
    sp: &SumProduct<P>,
    is_idb: &impl Fn(&str) -> bool,
) -> BTreeSet<Var> {
    let mut bound: BTreeSet<Var> = BTreeSet::new();
    for (t, b) in rule.head.args.iter().zip(head_adornment) {
        if *b {
            if let Term::Var(v) = t {
                bound.insert(*v);
            }
            // A constant or key-function head term at a bound position
            // restricts the match but binds no variable (the function
            // is not invertible).
        }
    }
    equality_spine_vars(&sp.condition, &mut bound);
    let mut scratch: Vec<Var> = vec![];
    for f in sp.factors.iter().filter(|f| !is_idb(&f.atom.pred)) {
        f.atom.vars(&mut scratch);
    }
    for a in sp.condition.conjunctive_atoms() {
        a.vars(&mut scratch);
    }
    bound.extend(scratch);
    bound
}

/// `Var = const` bindings on the conjunctive spine.
fn equality_spine_vars(phi: &Formula, out: &mut BTreeSet<Var>) {
    match phi {
        Formula::And(a, b) => {
            equality_spine_vars(a, out);
            equality_spine_vars(b, out);
        }
        Formula::Cmp(Term::Var(v), CmpOp::Eq, Term::Const(_))
        | Formula::Cmp(Term::Const(_), CmpOp::Eq, Term::Var(v)) => {
            out.insert(*v);
        }
        _ => {}
    }
}

/// Keeps the top-level conjuncts of `phi` whose variables are all
/// bound; drops the rest (sound: dropping a restriction only widens
/// demand).
fn restrict_formula(phi: &Formula, bound: &BTreeSet<Var>) -> Formula {
    match phi {
        Formula::And(a, b) => restrict_formula(a, bound).and(restrict_formula(b, bound)),
        other => {
            let mut vars = vec![];
            other.vars(&mut vars);
            if vars.iter().all(|v| bound.contains(v)) {
                other.clone()
            } else {
                Formula::True
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::seminaive::seminaive_eval;
    use crate::examples_lib as ex;
    use crate::query::QueryArg;
    use crate::relation::{BoolDatabase, Database, Relation};
    use crate::tup;
    use dlo_pops::{MinNat, PreSemiring, Trop};

    #[test]
    fn sssp_point_query_adorns_and_seeds() {
        let (program, _) = ex::sssp_trop("a");
        let q = Query::point("L", vec!["d".into()]);
        let dp = magic_rewrite(&program, &q).unwrap();
        assert_eq!(dp.adornments["L"], vec![true]);
        assert_eq!(dp.magic_preds, vec![magic_pred("L")]);
        assert!(dp.dropped_preds.is_empty());
        // Seed + one magic rule + the guarded original rule.
        assert_eq!(dp.program.rules.len(), 3);
        let seed = &dp.program.rules[0];
        assert_eq!(seed.head.pred, magic_pred("L"));
        assert_eq!(seed.head.args, vec![Term::c("d")]);
        // The magic rule passes bindings backwards through E(z, x).
        let magic = &dp.program.rules[1];
        assert_eq!(magic.head.pred, magic_pred("L"));
        assert_eq!(magic.body[0].factors.len(), 2);
        assert_eq!(
            magic.body[0].factors[1]
                .func
                .as_ref()
                .unwrap()
                .name
                .as_ref(),
            DEMAND_FN
        );
        // Guarded rule: magic factor prepended to both sum-products.
        let guarded = &dp.program.rules[2];
        assert!(guarded
            .body
            .iter()
            .all(|sp| sp.factors[0].atom.pred == magic_pred("L")));
    }

    #[test]
    fn rewritten_fixpoint_restricts_to_the_original() {
        // Grounded semi-naive on the rewritten program (Trop is
        // idempotent, so set-valued clamping is not needed) must agree
        // with the full fixpoint on every demanded row.
        let (program, edb) = ex::sssp_trop("a");
        let bools = BoolDatabase::new();
        let full = seminaive_eval(&program, &edb, &bools, 1000).unwrap();
        let q = Query::point("L", vec!["d".into()]);
        let dp = magic_rewrite(&program, &q).unwrap();
        let out = seminaive_eval(&dp.program, &edb, &bools, 1000).unwrap();
        let l = out.get("L").expect("demanded rows derived");
        // Every demanded row carries its exact full-fixpoint value…
        for (t, v) in l.support() {
            assert_eq!(full.get("L").unwrap().get(t), v.clone(), "row {t:?}");
        }
        // …and the query row is among them.
        assert_eq!(l.get(&tup!["d"]), Trop::finite(8.0));
    }

    #[test]
    fn quadratic_tc_collapses_to_all_free() {
        // T(x,y) :- E(x,y) + T(x,z) * T(z,y): the second occurrence's z
        // is bound by nothing we pass bindings through, so the meet
        // weakens T to all-free — full computation, no guards.
        let program = ex::quadratic_tc_program::<Trop>();
        let q = Query::new("T", vec![QueryArg::bound("a"), QueryArg::Free]);
        let dp = magic_rewrite(&program, &q).unwrap();
        assert_eq!(dp.adornments["T"], vec![false, false]);
        assert!(dp.magic_preds.is_empty());
        assert_eq!(dp.program.rules.len(), program.rules.len());
    }

    #[test]
    fn sink_bound_apsp_demands_predecessors() {
        // Query T(X, "d") on APSP: adornment fb; demand flows backwards
        // through E(z, y) with y bound.
        let program = ex::apsp_program::<Trop>();
        let q = Query::new("T", vec![QueryArg::Free, QueryArg::bound("d")]);
        let dp = magic_rewrite(&program, &q).unwrap();
        assert_eq!(dp.adornments["T"], vec![false, true]);
        let seed = &dp.program.rules[0];
        assert_eq!(seed.head.args, vec![Term::c("d")]);
    }

    #[test]
    fn source_bound_apsp_has_no_identity_magic_rule() {
        // Query T("a", Y): the occurrence T(X, Z) demands m_T(X), its
        // rule's own guard. Demand is set-valued, so that rule could
        // only re-derive what it reads: the rewrite is the seed and the
        // guarded rule alone.
        let program = ex::apsp_program::<Trop>();
        let q = Query::new("T", vec![QueryArg::bound("a"), QueryArg::Free]);
        let dp = magic_rewrite(&program, &q).unwrap();
        assert_eq!(dp.adornments["T"], vec![true, false]);
        for rule in &dp.program.rules {
            let mut first = rule.body.iter().filter_map(|sp| sp.factors.first());
            assert!(first.all(|f| f.atom != rule.head), "{rule:?}");
        }
        assert_eq!(dp.program.rules.len(), 2);
    }

    #[test]
    fn unreachable_idbs_are_dropped() {
        let mut program = ex::apsp_program::<Trop>();
        program.rule(
            Atom::new("Unrelated", vec![Term::v(0)]),
            vec![SumProduct::new(vec![Factor::atom("F", vec![Term::v(0)])])],
        );
        let q = Query::new("T", vec![QueryArg::bound("a"), QueryArg::Free]);
        let dp = magic_rewrite(&program, &q).unwrap();
        assert_eq!(dp.dropped_preds, vec!["Unrelated".to_string()]);
        assert!(dp.program.rules.iter().all(|r| r.head.pred != "Unrelated"));
    }

    #[test]
    fn bool_guards_pass_bindings() {
        // BOM: T(x) :- C(x) + { T(y) | E(x, y) } — E is a Boolean guard
        // and must bind y for the magic rule.
        let program: Program<MinNat> = ex::bom_program();
        let q = Query::point("T", vec!["a".into()]);
        let dp = magic_rewrite(&program, &q).unwrap();
        assert_eq!(dp.adornments["T"], vec![true]);
        let magic = dp
            .program
            .rules
            .iter()
            .find(|r| r.head.pred == magic_pred("T") && !r.body[0].factors.is_empty())
            .expect("magic propagation rule");
        // Condition kept: E(x, y) has only bound variables.
        assert!(format!("{:?}", magic.body[0].condition).contains('E'));
    }

    #[test]
    fn domain_enumerated_rules_force_the_all_free_fallback() {
        // A(X) :- B(X + 1): nothing binds X, so it is enumerated over
        // the active domain — guarding A with a magic factor would
        // re-scope X to the demanded set and break the restriction
        // invariant. The rewrite must detect this and skip the guards.
        use crate::ast::KeyFn;
        let mut p = Program::<Trop>::new();
        p.rule(
            Atom::new("A", vec![Term::v(0)]),
            vec![SumProduct::new(vec![Factor::atom(
                "B",
                vec![Term::Apply(KeyFn::AddInt(1), Box::new(Term::v(0)))],
            )])],
        );
        p.rule(
            Atom::new("B", vec![Term::v(0)]),
            vec![SumProduct::new(vec![Factor::atom("V", vec![Term::v(0)])])],
        );
        let q = Query::point("A", vec![2i64.into()]);
        let dp = magic_rewrite(&p, &q).unwrap();
        assert!(dp.domain_enumerated);
        assert!(dp.magic_preds.is_empty());
        assert_eq!(dp.adornments["A"], vec![false]);
        // The guard is scoped to query-REACHABLE rules: the same shape
        // hidden behind an unreachable predicate does not fire it.
        let mut p2 = p.clone();
        p2.rule(
            Atom::new("C", vec![Term::v(0)]),
            vec![SumProduct::new(vec![Factor::atom("W", vec![Term::v(0)])])],
        );
        let qc = Query::point("C", vec![1i64.into()]);
        let dp2 = magic_rewrite(&p2, &qc).unwrap();
        assert!(!dp2.domain_enumerated);
        assert_eq!(dp2.magic_preds, vec![magic_pred("C")]);
        assert!(dp2.dropped_preds.contains(&"A".to_string()));
    }

    #[test]
    fn query_errors_are_reported() {
        let (program, _) = ex::sssp_trop("a");
        let bad = Query::point("Nope", vec!["a".into()]);
        assert!(matches!(
            magic_rewrite(&program, &bad),
            Err(DemandError::UnknownPredicate(_))
        ));
        let bad = Query::point("L", vec!["a".into(), "b".into()]);
        assert!(matches!(
            magic_rewrite(&program, &bad),
            Err(DemandError::ArityMismatch { .. })
        ));
    }

    #[test]
    fn all_free_query_is_the_identity_modulo_dropping() {
        let (program, edb) = ex::sssp_trop("a");
        let q = Query::all("L", 1);
        let dp = magic_rewrite(&program, &q).unwrap();
        assert!(dp.magic_preds.is_empty());
        let bools = BoolDatabase::new();
        let full = seminaive_eval(&program, &edb, &bools, 1000).unwrap();
        let got = seminaive_eval(&dp.program, &edb, &bools, 1000).unwrap();
        assert_eq!(full, got);
    }

    #[test]
    fn demand_fn_collapses_values() {
        let f = demand_fn::<Trop>();
        assert_eq!(f.apply(&Trop::finite(7.0)), Trop::one());
        assert_eq!(f.apply(&Trop::INF), Trop::zero());
        let _ = Database::<Trop>::new(); // keep the import used on all paths
        let _ = Relation::<Trop>::new(1);
    }
}
