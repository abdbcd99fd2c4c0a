//! Grounding datalog° programs (Sec. 4.3).
//!
//! Grounding turns a program plus an EDB instance into the vector-valued
//! polynomial system `x_i :- f_i(x₁, …, x_N)` of eq. (27): one POPS
//! variable per ground IDB atom, one provenance polynomial per variable.
//! EDB values are substituted into coefficients during grounding.
//!
//! Two modes:
//!
//! * **dense** (default, always sound): bound variables not pinned by
//!   positive Boolean condition atoms range over the full `D₀` — this is
//!   the paper's semantics verbatim, required for POPS where `0` is not
//!   absorbing (e.g. the lifted reals, where a `⊥`-valued EDB coefficient
//!   must poison its sum);
//! * **sparse** (requires a [`NaturallyOrdered`] semiring): additionally
//!   joins on the supports of EDB POPS atoms and drops zero-coefficient
//!   monomials — sound because `0 = ⊥` is absorbing, and the standard
//!   trick for scaling to large instances.
//!
//! A head key function (`N(I + 1) :- N(I)`, Sec. 4.5) derives constants
//! outside `D₀`. The evaluators ([`crate::eval`]) therefore ground over
//! `D₀` plus the constants minted so far, evaluate, and — when the
//! output holds a constant outside both — re-ground and restart from
//! `⊥` (`eval_closed`) until no new constant appears. A minted
//! constant reaches a body only through an IDB factor, so only a
//! variable that is a bare argument of an IDB factor ranges over the
//! minted constants; every other unbound variable ranges over `D₀`, as
//! in the execution engine. [`ground`] and [`ground_sparse`] are one
//! grounding over `D₀` (what the iteration traces show).

pub mod poly;

use crate::ast::{Atom, Program, Term, Var};
use crate::eval::EvalOutcome;
use crate::formula::{eval_args, eval_term, Valuation};
use crate::relation::{BoolDatabase, Database, Relation};
use crate::value::{Constant, GroundAtom, Tuple};
use dlo_pops::{NaturallyOrdered, Pops};
use poly::{Monomial, Polynomial, VarOcc};
use std::collections::{BTreeMap, BTreeSet};

/// The grounded polynomial system of eq. (27).
#[derive(Clone, Debug)]
pub struct GroundSystem<P> {
    /// Ground IDB atoms, indexed by variable number.
    pub atoms: Vec<GroundAtom>,
    /// Reverse index.
    pub index: BTreeMap<GroundAtom, usize>,
    /// `polys[i]` defines variable `i`; `None` means the atom occurs only
    /// in bodies and is never derived — its value stays `⊥`.
    pub polys: Vec<Option<Polynomial<P>>>,
}

impl<P: Pops> GroundSystem<P> {
    fn new() -> Self {
        GroundSystem {
            atoms: vec![],
            index: BTreeMap::new(),
            polys: vec![],
        }
    }

    fn intern(&mut self, atom: GroundAtom) -> usize {
        if let Some(&ix) = self.index.get(&atom) {
            return ix;
        }
        let ix = self.atoms.len();
        self.atoms.push(atom.clone());
        self.index.insert(atom, ix);
        self.polys.push(None);
        ix
    }

    /// Number of POPS variables (ground IDB atoms), `N` in the paper.
    pub fn num_vars(&self) -> usize {
        self.atoms.len()
    }

    /// Total number of monomials across all polynomials.
    pub fn num_monomials(&self) -> usize {
        self.polys.iter().flatten().map(|p| p.monomials.len()).sum()
    }

    /// Applies the grounded immediate consequence operator once.
    pub fn apply_ico(&self, x: &[P]) -> Vec<P> {
        self.polys
            .iter()
            .enumerate()
            .map(|(i, p)| match p {
                Some(p) => p.eval(x),
                None => x[i].clone(), // never-derived atoms stay put (⊥)
            })
            .collect()
    }

    /// The all-`⊥` starting vector.
    pub fn bottom(&self) -> Vec<P> {
        vec![P::bottom(); self.num_vars()]
    }

    /// Whether the grounded system is linear (every polynomial affine).
    pub fn is_affine(&self) -> bool {
        self.polys.iter().flatten().all(|p| p.is_affine())
    }

    /// Packs an assignment vector back into per-predicate relations, one
    /// bulk build each; a predicate whose atoms are all `⊥` gets none.
    pub fn to_database(&self, x: &[P]) -> Database<P> {
        let mut rows: BTreeMap<&str, Vec<(Tuple, P)>> = BTreeMap::new();
        for (atom, v) in self.atoms.iter().zip(x) {
            if !v.is_bottom() {
                rows.entry(&atom.pred)
                    .or_default()
                    .push((atom.tuple.clone(), v.clone()));
            }
        }
        let build = |rows: Vec<(Tuple, P)>| Relation::from_pairs(rows[0].0.len(), rows);
        rows.into_iter()
            .map(|(pred, rows)| (pred.to_string(), build(rows)))
            .collect()
    }
}

/// `D₀`: the active domain of both EDBs plus the program's constants
/// (Sec. 4.3) — what a variable no atom binds ranges over in every
/// backend.
///
/// That range is the finite `D₀` only, never the infinite key domain
/// and never a key a head function minted: in `R(X) :- V(X + 1)` the
/// variable `X` takes the values of `D₀`, so over `V = {0, 1}` the rule
/// gives `R(0)` the value `V(1)` and gives `R(-1)` nothing, even where
/// another rule mints `-1`. This is the paper's finite reading of
/// Sec. 4.3, it keeps every grounding finite, and the
/// `minted_keys_stay_out_of_edb_key_functions_trop` scenario of
/// `tests/backend_matrix.rs` pins it on every backend.
pub fn domain<P: Pops>(
    program: &Program<P>,
    pops_edb: &Database<P>,
    bool_edb: &BoolDatabase,
) -> BTreeSet<Constant> {
    let mut d0 = pops_edb.active_domain();
    d0.extend(bool_edb.active_domain());
    d0.extend(program.constants());
    d0
}

/// Grounds a program over `D₀` once (dense mode — sound for every POPS).
/// A program whose heads mint constants needs more than one grounding:
/// [`crate::naive_eval`] closes over them.
pub fn ground<P: Pops>(
    program: &Program<P>,
    pops_edb: &Database<P>,
    bool_edb: &BoolDatabase,
) -> GroundSystem<P> {
    let d0 = domain(program, pops_edb, bool_edb);
    ground_with(program, pops_edb, bool_edb, &d0, &BTreeSet::new(), false)
}

/// Grounds a program over `D₀` once in sparse mode; the
/// `NaturallyOrdered` bound witnesses `⊥ = 0` with absorbing `0`, which
/// makes support-joins and zero-coefficient dropping
/// semantics-preserving. As with [`ground`], [`crate::naive_eval_sparse`]
/// and [`crate::seminaive_eval`] close over minted constants.
pub fn ground_sparse<P: NaturallyOrdered>(
    program: &Program<P>,
    pops_edb: &Database<P>,
    bool_edb: &BoolDatabase,
) -> GroundSystem<P> {
    let d0 = domain(program, pops_edb, bool_edb);
    ground_with(program, pops_edb, bool_edb, &d0, &BTreeSet::new(), true)
}

/// Evaluates `program` with `eval` on its grounding closed over the
/// constants its heads mint: ground over `D₀ ∪ minted`, evaluate from
/// `⊥`, and while the output holds a constant outside both, add it and
/// start again. `steps` is the last round's, so it counts what one
/// evaluation over the closed domain takes. A domain still growing
/// after `cap` rounds is `Diverged { cap }`, with the last round's
/// output. `sparse` joins on EDB supports, sound only for the
/// naturally ordered callers.
pub(crate) fn eval_closed<P: Pops>(
    program: &Program<P>,
    pops_edb: &Database<P>,
    bool_edb: &BoolDatabase,
    sparse: bool,
    cap: usize,
    eval: impl Fn(&GroundSystem<P>) -> EvalOutcome<P>,
) -> EvalOutcome<P> {
    let d0 = domain(program, pops_edb, bool_edb);
    let mut minted = BTreeSet::new();
    let mut last = Database::new();
    for _ in 0..=cap {
        let sys = ground_with(program, pops_edb, bool_edb, &d0, &minted, sparse);
        let outcome = eval(&sys);
        let EvalOutcome::Converged { output, .. } = &outcome else {
            return outcome;
        };
        let before = minted.len();
        let fresh = output.active_domain().into_iter();
        minted.extend(fresh.filter(|c| !d0.contains(c)));
        if minted.len() == before {
            return outcome;
        }
        last = output.clone();
    }
    EvalOutcome::from_diverged(last, cap)
}

fn ground_with<P: Pops>(
    program: &Program<P>,
    pops_edb: &Database<P>,
    bool_edb: &BoolDatabase,
    d0: &BTreeSet<Constant>,
    minted: &BTreeSet<Constant>,
    sparse: bool,
) -> GroundSystem<P> {
    let adom: Vec<Constant> = d0.iter().cloned().collect();
    let wide: Vec<Constant> = d0.union(minted).cloned().collect();

    let idb_preds: BTreeSet<String> = program.idb_preds().into_iter().collect();
    let idb_arities: BTreeMap<String, usize> = program
        .rules
        .iter()
        .map(|r| (r.head.pred.clone(), r.head.args.len()))
        .collect();
    let mut sys = GroundSystem::new();

    for rule in &program.rules {
        for sp in &rule.body {
            // Variables of this grounding task: head vars ∪ sum-product vars.
            let mut vars: Vec<Var> = vec![];
            rule.head.vars(&mut vars);
            for v in sp.vars() {
                if !vars.contains(&v) {
                    vars.push(v);
                }
            }

            // Binding atoms drive the join: positive Boolean condition
            // atoms always; EDB POPS factors additionally in sparse mode.
            let mut binding: Vec<(&Atom, BindSource)> = sp
                .condition
                .conjunctive_atoms()
                .into_iter()
                .map(|a| (a, BindSource::Bool))
                .collect();
            if sparse {
                for f in &sp.factors {
                    if !idb_preds.contains(&f.atom.pred) {
                        binding.push((&f.atom, BindSource::Pops));
                    }
                }
            }

            // A minted constant reaches the body only through an IDB
            // factor's support, so only a bare IDB argument ranges over it.
            let dom_of = |v: &Var| -> &[Constant] {
                let bare_idb_arg = sp.factors.iter().any(|f| {
                    idb_preds.contains(&f.atom.pred) && f.atom.args.contains(&Term::Var(*v))
                });
                if bare_idb_arg {
                    &wide
                } else {
                    &adom
                }
            };
            let doms: Vec<&[Constant]> = vars.iter().map(dom_of).collect();

            let mut seen: BTreeSet<Vec<Constant>> = BTreeSet::new();
            enumerate(
                &binding,
                &vars,
                &doms,
                pops_edb,
                bool_edb,
                &mut Valuation::new(),
                0,
                &mut |theta| {
                    // Deduplicate valuations (wildcard positions in binding
                    // atoms can replay the same θ).
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
                    // Build the monomial.
                    let mut coeff = sp.coeff.clone().unwrap_or_else(P::one);
                    let mut occs: Vec<VarOcc<P>> = vec![];
                    for f in &sp.factors {
                        let Some(tuple) = eval_args(&f.atom, theta) else {
                            return; // ill-typed key function: no grounding
                        };
                        if idb_preds.contains(&f.atom.pred) {
                            let var = sys.intern(GroundAtom::new(&f.atom.pred, tuple));
                            occs.push(VarOcc {
                                var,
                                func: f.func.clone(),
                            });
                        } else {
                            let mut v = pops_edb
                                .get(&f.atom.pred)
                                .map(|r| r.get(&tuple))
                                .unwrap_or_else(P::bottom);
                            if let Some(func) = &f.func {
                                v = func.apply(&v);
                            }
                            coeff = coeff.mul(&v);
                        }
                    }
                    if sparse && coeff.is_zero() {
                        return; // 0 is absorbing here: the monomial vanishes
                    }
                    let Some(head_tuple) = eval_args(&rule.head, theta) else {
                        return;
                    };
                    let head = sys.intern(GroundAtom::new(&rule.head.pred, head_tuple));
                    sys.polys[head]
                        .get_or_insert_with(Polynomial::new)
                        .push(Monomial { coeff, occs });
                },
            );
        }
    }

    // Dense mode implements eq. (27) literally: *every* ground IDB atom in
    // GA(τ, D₀) is defined, possibly by the empty polynomial (= the empty
    // sum 0). This matters on POPS where 0 ≠ ⊥ — e.g. win-move over THREE,
    // where a sink node's Win value is 0 (false), not ⊥ (Sec. 7.2). Sparse
    // mode targets naturally ordered semirings where 0 = ⊥ and skips this.
    if !sparse {
        for (pred, arity) in &idb_arities {
            let mut tuple: Vec<usize> = vec![0; *arity];
            if adom.is_empty() && *arity > 0 {
                continue;
            }
            loop {
                let t: Tuple = tuple.iter().map(|&i| adom[i].clone()).collect();
                let ix = sys.intern(GroundAtom::new(pred, t));
                sys.polys[ix].get_or_insert_with(Polynomial::new);
                // Odometer increment over ADom^arity.
                let mut pos = 0;
                loop {
                    if pos == tuple.len() {
                        break;
                    }
                    tuple[pos] += 1;
                    if tuple[pos] < adom.len() {
                        break;
                    }
                    tuple[pos] = 0;
                    pos += 1;
                }
                if pos == tuple.len() {
                    break;
                }
            }
        }
    }
    sys
}

#[derive(Clone, Copy)]
enum BindSource {
    Bool,
    Pops,
}

/// Nested-loop join over the binding atoms, then enumeration of any
/// still-unbound variable `vars[i]` over its domain `doms[i]`.
#[allow(clippy::too_many_arguments)]
fn enumerate<P: Pops>(
    binding: &[(&Atom, BindSource)],
    vars: &[Var],
    doms: &[&[Constant]],
    pops_edb: &Database<P>,
    bool_edb: &BoolDatabase,
    theta: &mut Valuation,
    depth: usize,
    visit: &mut impl FnMut(&Valuation),
) {
    if depth == binding.len() {
        fn fill(
            vars: &[Var],
            doms: &[&[Constant]],
            theta: &mut Valuation,
            visit: &mut impl FnMut(&Valuation),
        ) {
            match vars.iter().position(|v| !theta.contains_key(v)) {
                None => visit(theta),
                Some(i) => {
                    for c in doms[i] {
                        theta.insert(vars[i], c.clone());
                        fill(vars, doms, theta, visit);
                    }
                    theta.remove(&vars[i]);
                }
            }
        }
        fill(vars, doms, theta, visit);
        return;
    }

    let (atom, source) = binding[depth];
    // Collect the support tuples of the binding relation.
    let tuples: Vec<Tuple> = match source {
        BindSource::Bool => bool_edb
            .get(&atom.pred)
            .map(|r| r.support().map(|(t, _)| t.clone()).collect())
            .unwrap_or_default(),
        BindSource::Pops => pops_edb
            .get(&atom.pred)
            .map(|r| r.support().map(|(t, _)| t.clone()).collect())
            .unwrap_or_default(),
    };
    'tuples: for tuple in tuples {
        if tuple.len() != atom.args.len() {
            continue; // arity mismatch: no grounding through this atom
        }
        let mut bound_here: Vec<Var> = vec![];
        for (arg, c) in atom.args.iter().zip(tuple.iter()) {
            match arg {
                Term::Var(v) => match theta.get(v) {
                    Some(existing) => {
                        if existing != c {
                            for b in &bound_here {
                                theta.remove(b);
                            }
                            continue 'tuples;
                        }
                    }
                    None => {
                        theta.insert(*v, c.clone());
                        bound_here.push(*v);
                    }
                },
                term => {
                    // Constant or key-function term: filter if evaluable,
                    // wildcard otherwise (re-checked after full binding).
                    if let Some(val) = eval_term(term, theta) {
                        if &val != c {
                            for b in &bound_here {
                                theta.remove(b);
                            }
                            continue 'tuples;
                        }
                    }
                }
            }
        }
        enumerate(
            binding,
            vars,
            doms,
            pops_edb,
            bool_edb,
            theta,
            depth + 1,
            visit,
        );
        for b in &bound_here {
            theta.remove(b);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{Factor, SumProduct};
    use crate::formula::Formula;
    use crate::relation::{bool_relation, Relation};
    use crate::tup;
    use dlo_pops::{LiftedReal, MinNat, Trop};

    /// SSSP program (Example 4.1): L(x) :- [x=a] ⊕ ⊕_z L(z) ⊗ E(z,x).
    fn sssp_program() -> Program<Trop> {
        let mut p = Program::new();
        p.rule(
            Atom::new("L", vec![Term::v(0)]),
            vec![
                SumProduct::new(vec![]).with_condition(Formula::cmp(
                    Term::v(0),
                    crate::formula::CmpOp::Eq,
                    Term::c("a"),
                )),
                SumProduct::new(vec![
                    Factor::atom("L", vec![Term::v(1)]),
                    Factor::atom("E", vec![Term::v(1), Term::v(0)]),
                ]),
            ],
        );
        p
    }

    fn fig2a_edges() -> Database<Trop> {
        let mut db = Database::new();
        db.insert(
            "E",
            Relation::from_pairs(
                2,
                vec![
                    (tup!["a", "b"], Trop::finite(1.0)),
                    (tup!["b", "c"], Trop::finite(3.0)),
                    (tup!["a", "c"], Trop::finite(5.0)),
                    (tup!["c", "d"], Trop::finite(4.0)),
                    (tup!["d", "b"], Trop::finite(2.0)),
                ],
            ),
        );
        db
    }

    #[test]
    fn ground_sssp_dense_and_sparse_agree_on_fixpoint() {
        let p = sssp_program();
        let edb = fig2a_edges();
        let bools = BoolDatabase::new();
        let dense = ground(&p, &edb, &bools);
        let sparse = ground_sparse(&p, &edb, &bools);
        // Dense has a variable for every L(x), x ∈ ADom (4 atoms);
        // sparse may skip unreachable combinations but fixpoints agree.
        let run = |sys: &GroundSystem<Trop>| {
            let mut x = sys.bottom();
            for _ in 0..20 {
                let nx = sys.apply_ico(&x);
                if nx == x {
                    break;
                }
                x = nx;
            }
            sys.to_database(&x)
        };
        assert_eq!(run(&dense), run(&sparse));
    }

    /// One bulk build per predicate packs every iterate exactly as one
    /// `set` per atom did, over two interleaved IDB predicates and
    /// assignments that leave some atoms `⊥`.
    #[test]
    fn to_database_equals_the_per_atom_set() {
        let mut p = sssp_program();
        p.rule(
            Atom::new("M", vec![Term::v(0)]),
            vec![SumProduct::new(vec![
                Factor::atom("L", vec![Term::v(1)]),
                Factor::atom("E", vec![Term::v(0), Term::v(1)]),
            ])],
        );
        let sys = ground(&p, &fig2a_edges(), &BoolDatabase::new());
        let mut x = sys.bottom();
        for _ in 0..6 {
            let mut per_atom = Database::new();
            for (atom, v) in sys.atoms.iter().zip(&x) {
                if !v.is_bottom() {
                    per_atom
                        .get_or_insert(&atom.pred, atom.tuple.len())
                        .set(atom.tuple.clone(), *v);
                }
            }
            assert_eq!(sys.to_database(&x), per_atom);
            x = sys.apply_ico(&x);
        }
        assert!(sys.to_database(&x).get("M").is_some_and(|m| !m.is_empty()));
    }

    #[test]
    fn ground_atom_count_dense() {
        let p = sssp_program();
        let sys = ground(&p, &fig2a_edges(), &BoolDatabase::new());
        // L(a), L(b), L(c), L(d): 4 ground IDB atoms.
        assert_eq!(sys.num_vars(), 4);
        // Every atom is a head (x enumerates ADom in rule 1).
        assert!(sys.polys.iter().all(|p| p.is_some()));
    }

    #[test]
    fn never_derived_atoms_stay_bottom() {
        // L(x) :- L(x) ⊗ E(x, x) with empty E: but with a head condition
        // restricting heads to "a" only, L(b) never derived.
        let mut p = Program::<Trop>::new();
        p.rule(
            Atom::new("L", vec![Term::c("a")]),
            vec![SumProduct::new(vec![
                Factor::atom("L", vec![Term::c("b")]),
                Factor::atom("E", vec![Term::c("a"), Term::c("b")]),
            ])],
        );
        let mut edb = Database::new();
        edb.insert(
            "E",
            Relation::from_pairs(2, vec![(tup!["a", "b"], Trop::finite(1.0))]),
        );
        let sys = ground(&p, &edb, &BoolDatabase::new());
        let lb = sys
            .index
            .get(&GroundAtom::new("L", tup!["b"]))
            .copied()
            .expect("L(b) occurs in a body");
        // Dense mode defines L(b) by the empty polynomial (eq. 27): its
        // value is the empty sum 0 = ⊥ in Trop.
        assert!(sys.polys[lb].as_ref().unwrap().monomials.is_empty());
        let x = sys.apply_ico(&sys.bottom());
        assert!(x[lb].is_bottom());
    }

    /// Example 4.2 grounding over the lifted reals: the grounded program
    /// printed in Sec. 4.4.
    #[test]
    fn ground_bill_of_material() {
        use dlo_pops::lifted::lreal;
        let mut p = Program::<LiftedReal>::new();
        // T(x) :- C(x) + Σ_y {T(y) | E(x,y)}
        p.rule(
            Atom::new("T", vec![Term::v(0)]),
            vec![
                SumProduct::new(vec![Factor::atom("C", vec![Term::v(0)])]),
                SumProduct::new(vec![Factor::atom("T", vec![Term::v(1)])])
                    .with_condition(Formula::atom("E", vec![Term::v(0), Term::v(1)])),
            ],
        );
        let mut pops = Database::<LiftedReal>::new();
        pops.insert(
            "C",
            Relation::from_pairs(1, vec![(tup!["c"], lreal(1.0)), (tup!["d"], lreal(10.0))]),
        );
        let mut bools = BoolDatabase::new();
        bools.insert(
            "E",
            bool_relation(
                2,
                vec![
                    tup!["a", "b"],
                    tup!["a", "c"],
                    tup!["b", "a"],
                    tup!["b", "c"],
                    tup!["c", "d"],
                ],
            ),
        );
        let sys = ground(&p, &pops, &bools);
        assert_eq!(sys.num_vars(), 4); // T(a), T(b), T(c), T(d)
                                       // T(a)'s polynomial: C(a) constant (⊥!) + T(b) + T(c).
        let ta = sys.index[&GroundAtom::new("T", tup!["a"])];
        let poly = sys.polys[ta].as_ref().unwrap();
        assert_eq!(poly.monomials.len(), 3);
        // The C(a) coefficient is ⊥ — kept in dense mode (it must poison).
        assert!(poly.monomials.iter().any(|m| m.coeff.is_bottom()));
    }

    /// Both grounded evaluators of a naturally ordered program, which
    /// must agree; returns the naïve output.
    fn naive_and_seminaive<P: dlo_pops::CompleteDistributiveDioid + NaturallyOrdered>(
        program: &Program<P>,
        pops: &Database<P>,
        bools: &BoolDatabase,
    ) -> Database<P> {
        let naive = crate::naive_eval_sparse(program, pops, bools, 1000).unwrap();
        let semi = crate::seminaive_eval(program, pops, bools, 1000).unwrap();
        assert_eq!(naive, semi, "naive and semi-naive disagree");
        naive
    }

    #[test]
    fn condition_guards_and_indicators_work() {
        // The SSSP program's indicator {1 | X = s} over MinNat.
        let program: Program<MinNat> = crate::examples_lib::single_source_program("s");
        let mut edb = Database::new();
        edb.insert(
            "E",
            Relation::from_pairs(
                2,
                vec![
                    (tup!["s", "t"], MinNat::finite(2)),
                    (tup!["t", "u"], MinNat::finite(3)),
                ],
            ),
        );
        let out = naive_and_seminaive(&program, &edb, &BoolDatabase::new());
        assert_eq!(out.get("L").unwrap().get(&tup!["u"]), MinNat(5));
    }

    #[test]
    fn bool_condition_atoms_bind_through_guards() {
        // BOM-style over MinNat: T(x) :- C(x) ⊕ Σ{T(y) | E(x,y)}.
        let program: Program<MinNat> = crate::examples_lib::bom_program();
        let mut pops = Database::new();
        pops.insert(
            "C",
            Relation::from_pairs(
                1,
                vec![
                    (tup!["c"], MinNat::finite(1)),
                    (tup!["d"], MinNat::finite(10)),
                ],
            ),
        );
        let mut bools = BoolDatabase::new();
        bools.insert("E", bool_relation(2, vec![tup!["c", "d"]]));
        let out = naive_and_seminaive(&program, &pops, &bools);
        // With ⊕ = min: T(c) = min(C(c), T(d)) = min(1, 10) = 1.
        assert_eq!(out.get("T").unwrap().get(&tup!["c"]), MinNat(1));
    }

    #[test]
    fn wildcard_key_function_args_are_rechecked() {
        use crate::ast::KeyFn;
        // R(X) :- A(X - 1) ⊗ V(X): the A factor binds before X is, so
        // its key-function argument is a wildcard there and must be
        // re-verified once the valuation completes — otherwise every
        // (A-tuple, V-tuple) pair survives.
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
                    (tup![0i64], Trop::finite(10.0)),
                    (tup![5i64], Trop::finite(70.0)),
                ],
            ),
        );
        db.insert(
            "V",
            Relation::from_pairs(
                1,
                vec![
                    (tup![1i64], Trop::finite(1.0)),
                    (tup![6i64], Trop::finite(2.0)),
                ],
            ),
        );
        let out = naive_and_seminaive(&p, &db, &BoolDatabase::new());
        let r = out.get("R").unwrap();
        assert_eq!(r.support_size(), 2);
        assert_eq!(r.get(&tup![1i64]), Trop::finite(11.0), "A(0) ⊗ V(1)");
        assert_eq!(r.get(&tup![6i64]), Trop::finite(72.0), "A(5) ⊗ V(6)");
    }
}
