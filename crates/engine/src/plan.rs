//! The rule compiler: sum-products → executable join plans.
//!
//! For each sum-product, and for each IDB occurrence `k` of
//! Theorem 6.5's prefix-new / Δ / suffix-old split of it, the compiler
//! emits a [`Plan`]: an ordered list of [`Step`]s whose atom arguments
//! are resolved to *column positions* against interned constants — the
//! executor never hashes a string or clones a `Constant`.
//!
//! The splits are **one Δ family** ([`CompiledProgram::delta_plans`])
//! that every loop fires — the semi-naïve rounds, the DRed marking
//! rounds and both frontiers: a frontier has no round boundary, so its
//! `changed` map is empty and a suffix `Old` read *is* a `New` read.
//! The loops differ on one kind of sum-product only, an IDB factor
//! under a value function (`Plan::frontier_only`).
//!
//! Atom order is chosen greedily by **bound-variable coverage**: after
//! pre-binding `Var = const` equalities from the condition's conjunctive
//! spine, the compiler repeatedly picks the atom with the most
//! already-bound columns (tie-breaking toward fewer new variables, then
//! textual order). In a delta plan the Δ occurrence is forced first so
//! the (small) delta relation drives the join. Each step records which
//! columns are probed through a hash-prefix index ([`Step::mask`]),
//! which bind fresh slots, and which merely check.
//!
//! Head arguments compile to [`HeadOp`]s: slot copies, interned
//! constants, or — for key functions applied in the head (Sec. 4.5) —
//! [`HeadOp::Computed`] terms evaluated at emit time. Computed heads can
//! derive constants that were never interned at compile time; the
//! executor emits those as *fresh* integer cells and the drivers mint
//! ids for them between iterations (see [`crate::intern`]). The only
//! programs the compiler rejects are ones its columnar storage cannot
//! represent at all: arity > 32, or one head predicate used at two
//! arities.

use crate::intern::Interner;
use crate::storage::{probes_arranged, probes_full_key, ColMask, MAX_ARITY};
use dlo_core::ast::{Atom, Factor, KeyFn, Program, Rule, SumProduct, Term, UnaryFn, Var};
use dlo_core::formula::{CmpOp, Formula};
use dlo_pops::Pops;
use std::cmp::Ordering;
use std::collections::HashMap;

/// Reserved predicate-name suffix naming an **EDB edit delta** in the
/// variant rules the incremental maintenance driver
/// ([`crate::incremental`]) appends to a program: `E@dlt` holds the
/// rows of the current edit batch. The surface parser cannot produce
/// `@` in a predicate name, so the suffix never collides with user
/// programs. A binder on such a relation is forced first by the greedy
/// join order (like an IDB Δ occurrence) so edit-seed joins are driven
/// by the tiny batch instead of scanning the big stored relations.
pub(crate) const EDB_DELTA_SUFFIX: &str = "@dlt";

/// Reserved suffix for the **marked cone** of an IDB predicate
/// (`H@cone`): the keys a delete zeroed, staged at value `1`, read by
/// the head-guarded variants `H(args) :- H@cone(args) * body` that
/// re-derive exactly those keys. Forced first like `@dlt`, for the same
/// reason.
pub(crate) const EDB_CONE_SUFFIX: &str = "@cone";

/// Why a program cannot be compiled for the engine. Both variants are
/// structural limits of the flat columnar storage (not language gaps
/// like the old head-key-function rejection); the drivers surface them
/// as panics rather than falling back to a slower backend.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CompileError {
    /// An atom exceeds the engine's 32-column limit.
    ArityTooLarge,
    /// The same head predicate is used at two different arities
    /// (columnar storage fixes one arity per relation).
    HeadArityMismatch,
}

/// Which relation a step reads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Source {
    /// A `P`-EDB relation (by `pops_edbs` table index).
    PopsEdb(usize),
    /// An IDB read from the *new* state `J(t)`.
    IdbNew(usize),
    /// An IDB read from the *old* state `J(t-1)`.
    IdbOld(usize),
    /// An IDB read from the delta `δ(t-1)`.
    IdbDelta(usize),
    /// A Boolean EDB guard (by `bool_edbs` table index).
    BoolEdb(usize),
}

/// A compiled key term over valuation slots.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CTerm {
    /// The value of a valuation slot.
    Slot(usize),
    /// An interned constant.
    Const(u32),
    /// A key function applied to a term.
    Apply(KeyFn, Box<CTerm>),
}

/// A compiled conditional over valuation slots and interned constants.
#[derive(Clone, Debug)]
pub enum CFormula {
    /// Always true.
    True,
    /// Always false.
    False,
    /// A positive Boolean-EDB atom (by `bool_edbs` table index).
    BoolAtom {
        /// Table index of the Boolean predicate.
        pred: usize,
        /// Compiled argument terms.
        args: Vec<CTerm>,
    },
    /// Negation.
    Not(Box<CFormula>),
    /// Conjunction.
    And(Box<CFormula>, Box<CFormula>),
    /// Disjunction.
    Or(Box<CFormula>, Box<CFormula>),
    /// A key comparison.
    Cmp(CTerm, CmpOp, CTerm),
}

/// Where a probe-key column's value comes from.
#[derive(Clone, Debug)]
pub enum ProbeCol {
    /// A fixed interned constant.
    Const(u32),
    /// A slot bound by an earlier step.
    Slot(usize),
    /// A computed term (key function over bound slots); evaluation
    /// failure or an un-interned result means *no row can match*.
    Term(CTerm),
}

/// The factor position a step's row value feeds.
#[derive(Clone, Copy, Debug)]
pub struct FactorSlot {
    /// Index into the sum-product's factor list.
    pub index: usize,
}

/// One join participant, fully column-resolved.
#[derive(Clone, Debug)]
pub struct Step {
    /// The relation read.
    pub source: Source,
    /// Expected arity (rows of a different arity cannot match).
    pub arity: usize,
    /// Bitmask of probed columns (`0` = full scan).
    pub mask: ColMask,
    /// Probe-key sources, one per set mask bit, ascending by column.
    pub probe: Vec<ProbeCol>,
    /// `(column, slot)` pairs bound from the matched row.
    pub binds: Vec<(usize, usize)>,
    /// `(column, term)` equality checks evaluable once this step's binds
    /// are in place (repeated variables, key functions over bound vars).
    pub checks: Vec<(usize, CTerm)>,
    /// The factor this step supplies a value for (`None` for guards).
    pub factor: Option<FactorSlot>,
}

impl Step {
    /// Whether this step looks one row of a standing IDB relation up by
    /// its full key: answered by the relation's row map, not by a
    /// posting-list index (see `storage::probes_full_key`).
    pub(crate) fn reads_row_map(&self) -> bool {
        matches!(self.source, Source::IdbNew(_) | Source::IdbOld(_))
            && probes_full_key(self.arity, self.mask)
    }
}

/// A head column emit operation.
#[derive(Clone, Debug)]
pub enum HeadOp {
    /// Copy a valuation slot.
    Slot(usize),
    /// A fixed interned constant.
    Const(u32),
    /// A key function over bound slots, evaluated at emit time. An
    /// unevaluable term (e.g. `+1` on a string) drops the derivation —
    /// mirroring the grounding's `eval_args` — and a result
    /// outside the interned domain is emitted as a *fresh* cell for the
    /// driver to mint (see [`crate::exec::HeadVal`]).
    Computed(CTerm),
}

/// An executable join plan for one sum-product variant.
#[derive(Clone)]
pub struct Plan<P> {
    /// Global plan id, dense over a program's seed plans and then its
    /// Δ family — the key the telemetry layer attributes observed costs
    /// to ([`CompiledProgram::plan_metas`] decodes it back to a rule).
    pub pid: usize,
    /// Index of the originating rule, in program source order.
    pub rule_idx: usize,
    /// Human-readable plan skeleton (`head :- f₁ * f₂ …`, with the Δ
    /// occurrence marked), for profile reports.
    pub label: String,
    /// Target IDB (by `idbs` table index).
    pub head_pred: usize,
    /// How to assemble the emitted head key.
    pub head_cols: Vec<HeadOp>,
    /// Number of valuation slots (head vars ∪ sum-product vars).
    pub nslots: usize,
    /// Slots pre-bound by `Var = const` equalities in the condition's
    /// conjunctive spine.
    pub pre_bound: Vec<(usize, u32)>,
    /// Ordered join steps.
    pub steps: Vec<Step>,
    /// Per factor, in factor order: the step that supplies its value
    /// and the value transform applied to it.
    pub factors: Vec<(usize, Option<UnaryFn<P>>)>,
    /// Slots bound by no step: enumerated over the active domain.
    pub fill: Vec<usize>,
    /// The full compiled condition, evaluated per valuation.
    pub condition: CFormula,
    /// Optional scalar coefficient.
    pub coeff: Option<P>,
    /// Deferred wildcard checks: `(step, column, term)`.
    pub post_checks: Vec<(usize, usize, CTerm)>,
    /// Set on the `k`-splits of a sum-product with a value function on
    /// an IDB factor. `⊖` does not pass through the function, so the
    /// rounds, whose Δ rows are differences, never fire these; a
    /// frontier's Δ rows carry **full current values**, so `func(Δ)` is
    /// exact and the split is sound for idempotent `⊕`.
    pub(crate) frontier_only: bool,
}

impl<P> Plan<P> {
    /// The IDB whose Δ drives this plan (the Δ occurrence is forced
    /// first) — what a frontier groups the Δ family by; `None` for an
    /// all-`New` plan, which no frontier fires.
    pub(crate) fn delta_pred(&self) -> Option<usize> {
        match self.steps.first()?.source {
            Source::IdbDelta(pred) => Some(pred),
            _ => None,
        }
    }
}

/// Predicate tables and compiled plans for a program.
#[derive(Clone)]
pub struct CompiledProgram<P> {
    /// IDB predicates `(name, arity)` in first-head order.
    pub idbs: Vec<(String, usize)>,
    /// Referenced `P`-EDB predicate names.
    pub pops_edbs: Vec<String>,
    /// Referenced Boolean predicate names.
    pub bool_edbs: Vec<String>,
    /// All-`New` plans, one per (rule, sum-product): the naïve ICO, also
    /// used for semi-naïve seeding.
    pub seed_plans: Vec<Plan<P>>,
    /// The one Δ family, in compile order (rule, sum-product,
    /// occurrence): for every sum-product with an IDB factor, its
    /// `k`-splits — occurrence `k` reads Δ, the ones before it `New`,
    /// the ones after it `Old`. The semi-naïve and DRed marking rounds
    /// fire the list in order; a frontier fires, for each predicate
    /// with rows in its batch, the plans that predicate's Δ drives
    /// (`Plan::delta_pred`), in this order — which fixes the emission
    /// stream it merges. A sum-product with a value function on an IDB
    /// factor has both readings side by side: one whole-recompute plan
    /// (all `New`, no Δ step) for the rounds, then its splits, marked
    /// `frontier_only`. IDB-free sum-products are covered by
    /// seeding alone (eq. 65).
    pub delta_plans: Vec<Plan<P>>,
    /// Per-IDB **set-valued** flags (`true` for the magic predicates of
    /// a demand rewrite, `dlo_core::demand`): the drivers store such
    /// rows with value `1` on first insertion and never merge into
    /// them again — demand lives on the Bool lattice {absent, present}
    /// even when the program's values do not, which is what keeps the
    /// magic rewrite convergent over non-idempotent `⊕` (`1 ⊕ 1` would
    /// otherwise pump forever around demand cycles).
    pub set_valued: Vec<bool>,
}

/// Telemetry metadata for one compiled plan, indexed by [`Plan::pid`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PlanMeta {
    /// Index of the originating rule, in program source order.
    pub rule_idx: usize,
    /// The plan's skeleton label (shared with [`Plan::label`]).
    pub label: String,
    /// Plan family: `"seed"` or `"delta"`.
    pub kind: &'static str,
    /// Which probe structures the plan's probing steps run against in
    /// a from-scratch run (decided per step by what is probed, see
    /// [`ColumnRel::ensure_probe`](crate::ColumnRel::ensure_probe)):
    /// `"merge"` (all sorted runs — EDB relations of arity > 2),
    /// `"hash"` (all hash-indexed), `"mixed"`, or `"scan"` (no probing
    /// step at all).
    pub join: &'static str,
}

impl<P: Pops> CompiledProgram<P> {
    /// Total number of compiled plans (`pid`s run `0..total_plans()`).
    pub fn total_plans(&self) -> usize {
        self.seed_plans.len() + self.delta_plans.len()
    }

    /// Per-plan telemetry metadata, ordered by [`Plan::pid`] — what
    /// `explain()` reports per rule, the merge-vs-hash tag included.
    pub fn plan_metas(&self) -> Vec<PlanMeta> {
        let meta = |plan: &Plan<P>, kind| PlanMeta {
            rule_idx: plan.rule_idx,
            label: plan.label.clone(),
            kind,
            join: plan_join(plan),
        };
        let seed = self.seed_plans.iter().map(|plan| meta(plan, "seed"));
        let delta = self.delta_plans.iter().map(|plan| meta(plan, "delta"));
        seed.chain(delta).collect()
    }

    /// Every `(source, mask)` pair a seed or Δ-family plan probes: what
    /// the engine's mask lists are filled from, under every schedule.
    pub fn index_requirements(&self) -> Vec<(Source, ColMask)> {
        probed(self.seed_plans.iter().chain(&self.delta_plans))
    }

    /// The subset of [`Self::index_requirements`] the frontier-fired
    /// plans probe. Nothing in the engine reads it: it is kept **only**
    /// because the frozen `dlo_benchmark` calls it (`layers.rs`) and
    /// goes with that call in the next benchmark-only PR (ROADMAP).
    pub fn worklist_index_requirements(&self) -> Vec<(Source, ColMask)> {
        probed(self.delta_plans.iter().filter(|p| p.delta_pred().is_some()))
    }
}

/// The distinct `(source, mask)` pairs `plans` probe, in first-use order.
fn probed<'a, P: 'a>(plans: impl Iterator<Item = &'a Plan<P>>) -> Vec<(Source, ColMask)> {
    let mut out = vec![];
    for step in plans.flat_map(|plan| &plan.steps) {
        if step.mask != 0 && !out.contains(&(step.source, step.mask)) {
            out.push((step.source, step.mask));
        }
    }
    out
}

/// The Δ family as a frontier fires it: grouped by [`Plan::delta_pred`],
/// each group in list order (an all-`New` plan falls in no group).
pub(crate) fn by_delta_pred<P>(plans: &[Plan<P>], nidb: usize) -> Vec<Vec<&Plan<P>>> {
    let mut groups = vec![vec![]; nidb];
    for plan in plans {
        if let Some(pred) = plan.delta_pred() {
            groups[pred].push(plan);
        }
    }
    groups
}

/// Compiles `program`, interning every program constant into `interner`.
pub fn compile<P: Pops>(
    program: &Program<P>,
    interner: &mut Interner,
) -> Result<CompiledProgram<P>, CompileError> {
    compile_demand(program, interner, &[])
}

/// [`compile`] with **demand metadata**: IDBs named in `set_valued`
/// (the magic predicates of `dlo_core::demand::magic_rewrite`) are
/// flagged for set-valued storage — the drivers insert their rows at
/// value `1` once and never merge again.
pub fn compile_demand<P: Pops>(
    program: &Program<P>,
    interner: &mut Interner,
    set_valued: &[String],
) -> Result<CompiledProgram<P>, CompileError> {
    let mut c = Compiler {
        interner,
        idbs: vec![],
        pops_edbs: vec![],
        bool_edbs: vec![],
    };
    for rule in &program.rules {
        let name = &rule.head.pred;
        // Body atoms are checked where they become binders; a head can
        // be wide on its own (repeated variables, constants).
        if rule.head.args.len() > MAX_ARITY {
            return Err(CompileError::ArityTooLarge);
        }
        match c.idbs.iter().find(|(n, _)| n == name) {
            // Columnar storage has one fixed arity per relation; a head
            // predicate used at two arities cannot be represented.
            Some((_, arity)) if *arity != rule.head.args.len() => {
                return Err(CompileError::HeadArityMismatch)
            }
            Some(_) => {}
            None => c.idbs.push((name.clone(), rule.head.args.len())),
        }
    }
    let mut seed_plans = vec![];
    let mut delta_plans = vec![];
    for (rule_idx, rule) in program.rules.iter().enumerate() {
        for sp in &rule.body {
            let is_idb = |f: &&Factor<P>| c.idbs.iter().any(|(n, _)| n == &f.atom.pred);
            let idb_occurrences = sp.factors.iter().filter(is_idb).count();
            let wrapped_idb = sp.factors.iter().filter(is_idb).any(|f| f.func.is_some());
            let seed = c.compile_sp(rule_idx, rule, sp, None)?;
            if wrapped_idb {
                // The rounds re-derive the whole sum-product against
                // the new state; the splits below are the frontiers'.
                delta_plans.push(seed.clone());
            }
            seed_plans.push(seed);
            // eq. (65): no IDB occurrence, nothing to split or re-fire.
            for k in 0..idb_occurrences {
                let mut split = c.compile_sp(rule_idx, rule, sp, Some(k))?;
                split.frontier_only = wrapped_idb;
                delta_plans.push(split);
            }
        }
    }
    let set_valued_flags = c.idbs.iter().map(|(n, _)| set_valued.contains(n)).collect();
    // Assign global plan ids, seed plans then the Δ family — the key
    // telemetry attributes observed costs to.
    for (pid, plan) in seed_plans.iter_mut().chain(&mut delta_plans).enumerate() {
        plan.pid = pid;
    }
    Ok(CompiledProgram {
        idbs: c.idbs,
        pops_edbs: c.pops_edbs,
        bool_edbs: c.bool_edbs,
        seed_plans,
        delta_plans,
        set_valued: set_valued_flags,
    })
}

struct Compiler<'a> {
    interner: &'a mut Interner,
    idbs: Vec<(String, usize)>,
    pops_edbs: Vec<String>,
    bool_edbs: Vec<String>,
}

impl Compiler<'_> {
    fn idb_id(&self, pred: &str) -> Option<usize> {
        self.idbs.iter().position(|(n, _)| n == pred)
    }

    fn pops_edb_id(&mut self, pred: &str) -> usize {
        match self.pops_edbs.iter().position(|n| n == pred) {
            Some(i) => i,
            None => {
                self.pops_edbs.push(pred.to_string());
                self.pops_edbs.len() - 1
            }
        }
    }

    fn bool_edb_id(&mut self, pred: &str) -> usize {
        match self.bool_edbs.iter().position(|n| n == pred) {
            Some(i) => i,
            None => {
                self.bool_edbs.push(pred.to_string());
                self.bool_edbs.len() - 1
            }
        }
    }

    fn compile_term(&mut self, t: &Term, slot_of: &HashMap<Var, usize>) -> CTerm {
        match t {
            Term::Var(v) => CTerm::Slot(slot_of[v]),
            Term::Const(c) => CTerm::Const(self.interner.intern(c)),
            Term::Apply(f, inner) => CTerm::Apply(*f, Box::new(self.compile_term(inner, slot_of))),
        }
    }

    fn compile_formula(&mut self, phi: &Formula, slot_of: &HashMap<Var, usize>) -> CFormula {
        match phi {
            Formula::True => CFormula::True,
            Formula::False => CFormula::False,
            Formula::BoolAtom(a) => CFormula::BoolAtom {
                pred: self.bool_edb_id(&a.pred),
                args: a
                    .args
                    .iter()
                    .map(|t| self.compile_term(t, slot_of))
                    .collect(),
            },
            Formula::Not(f) => CFormula::Not(Box::new(self.compile_formula(f, slot_of))),
            Formula::And(a, b) => CFormula::And(
                Box::new(self.compile_formula(a, slot_of)),
                Box::new(self.compile_formula(b, slot_of)),
            ),
            Formula::Or(a, b) => CFormula::Or(
                Box::new(self.compile_formula(a, slot_of)),
                Box::new(self.compile_formula(b, slot_of)),
            ),
            Formula::Cmp(l, op, r) => CFormula::Cmp(
                self.compile_term(l, slot_of),
                *op,
                self.compile_term(r, slot_of),
            ),
        }
    }

    /// Pre-binds `Var = const` equalities on the conjunctive spine,
    /// first occurrence winning (the grounding enumerates such a
    /// variable over `D₀` and lets the condition filter it).
    fn equality_bindings(
        &mut self,
        phi: &Formula,
        slot_of: &HashMap<Var, usize>,
        out: &mut Vec<(usize, u32)>,
    ) {
        match phi {
            Formula::And(a, b) => {
                self.equality_bindings(a, slot_of, out);
                self.equality_bindings(b, slot_of, out);
            }
            Formula::Cmp(Term::Var(v), CmpOp::Eq, Term::Const(c))
            | Formula::Cmp(Term::Const(c), CmpOp::Eq, Term::Var(v)) => {
                let slot = slot_of[v];
                if !out.iter().any(|(s, _)| *s == slot) {
                    out.push((slot, self.interner.intern(c)));
                }
            }
            _ => {}
        }
    }

    fn term_vars_bound(t: &Term, bound: &[bool], slot_of: &HashMap<Var, usize>) -> bool {
        let mut vars = vec![];
        t.vars(&mut vars);
        vars.iter().all(|v| bound[slot_of[v]])
    }

    /// Compiles one sum-product: all IDB occurrences reading `New`
    /// when `delta_k` is `None`, else Theorem 6.5's split at IDB
    /// occurrence `k` — `New` before it, Δ at it, `Old` after it.
    fn compile_sp<P: Pops>(
        &mut self,
        rule_idx: usize,
        rule: &Rule<P>,
        sp: &SumProduct<P>,
        delta_k: Option<usize>,
    ) -> Result<Plan<P>, CompileError> {
        // The profile-report skeleton: head and factor predicate names
        // (values and conditions elided — `P` need not be printable),
        // with the Δ-driven occurrence marked.
        let mut label = format!("{} :- ", rule.head.pred);
        for (i, f) in sp.factors.iter().enumerate() {
            if i > 0 {
                label.push_str(" * ");
            }
            label.push_str(&f.atom.pred);
        }
        if let Some(k) = delta_k {
            label.push_str(&format!(" [\u{0394}@{k}]"));
        }
        // Slot layout: head vars first, then remaining sum-product vars
        // (the grounding's `vars` order).
        let mut vars: Vec<Var> = vec![];
        rule.head.vars(&mut vars);
        for v in sp.vars() {
            if !vars.contains(&v) {
                vars.push(v);
            }
        }
        let slot_of: HashMap<Var, usize> = vars.iter().enumerate().map(|(i, v)| (*v, i)).collect();
        let nslots = vars.len();

        let head_cols: Vec<HeadOp> = rule
            .head
            .args
            .iter()
            .map(|t| match t {
                Term::Var(v) => HeadOp::Slot(slot_of[v]),
                Term::Const(c) => HeadOp::Const(self.interner.intern(c)),
                t @ Term::Apply(..) => HeadOp::Computed(self.compile_term(t, &slot_of)),
            })
            .collect();

        let mut pre_bound = vec![];
        self.equality_bindings(&sp.condition, &slot_of, &mut pre_bound);

        // Binders: factors (with their IDB-occurrence source), then the
        // condition's conjunctive guard atoms.
        struct Binder<'b> {
            atom: &'b Atom,
            source: Source,
            factor: Option<FactorSlot>,
        }
        let mut binders: Vec<Binder> = vec![];
        let mut occ = 0usize;
        for (fi, f) in sp.factors.iter().enumerate() {
            if f.atom.args.len() > MAX_ARITY {
                return Err(CompileError::ArityTooLarge);
            }
            let source = match self.idb_id(&f.atom.pred) {
                Some(p) => {
                    let side = delta_k.map(|k| occ.cmp(&k));
                    occ += 1;
                    match side {
                        None | Some(Ordering::Less) => Source::IdbNew(p),
                        Some(Ordering::Equal) => Source::IdbDelta(p),
                        Some(Ordering::Greater) => Source::IdbOld(p),
                    }
                }
                None => Source::PopsEdb(self.pops_edb_id(&f.atom.pred)),
            };
            binders.push(Binder {
                atom: &f.atom,
                source,
                factor: Some(FactorSlot { index: fi }),
            });
        }
        for a in sp.condition.conjunctive_atoms() {
            if a.args.len() > MAX_ARITY {
                return Err(CompileError::ArityTooLarge);
            }
            binders.push(Binder {
                atom: a,
                source: Source::BoolEdb(self.bool_edb_id(&a.pred)),
                factor: None,
            });
        }

        // Greedy ordering by bound-column coverage. The Δ occurrence is
        // forced first so the small delta relation drives the join.
        let mut bound = vec![false; nslots];
        for &(s, _) in &pre_bound {
            bound[s] = true;
        }
        let mut order: Vec<usize> = vec![];
        let mut remaining: Vec<usize> = (0..binders.len()).collect();
        // An EDB edit delta (`E@dlt`, see [`EDB_DELTA_SUFFIX`]) plays
        // the same role in an incremental-maintenance variant rule as
        // the IDB Δ does in a delta plan: tiny, and the reason the plan
        // fires at all — so it gets the same forced-first treatment.
        let forced = binders
            .iter()
            .position(|b| matches!(b.source, Source::IdbDelta(_)))
            .or_else(|| {
                binders.iter().position(|b| {
                    matches!(b.source, Source::PopsEdb(_))
                        && (b.atom.pred.ends_with(EDB_DELTA_SUFFIX)
                            || b.atom.pred.ends_with(EDB_CONE_SUFFIX))
                })
            });
        // A head guard (`H@cone`, see [`EDB_CONE_SUFFIX`]) binds the
        // whole head at once, which ties a standing IDB occurrence
        // against the EDB atoms around it: the IDB is the bigger
        // relation (a closure's rows per source against a graph's edges
        // per node), so there — and in no other plan — it loses the tie
        // and is reached last, by full key.
        let guard_driven =
            forced.is_some_and(|di| binders[di].atom.pred.ends_with(EDB_CONE_SUFFIX));
        if let Some(di) = forced {
            order.push(di);
            remaining.retain(|&i| i != di);
            bind_atom_vars(binders[di].atom, &slot_of, &mut bound);
        }
        while !remaining.is_empty() {
            let mut best = 0usize;
            let mut best_score = (usize::MAX, usize::MAX, true, usize::MAX);
            for (ri, &bi) in remaining.iter().enumerate() {
                let atom = binders[bi].atom;
                let mut probeable = 0usize;
                let mut new_vars: Vec<usize> = vec![];
                for t in &atom.args {
                    match t {
                        Term::Const(_) => probeable += 1,
                        Term::Var(v) => {
                            let s = slot_of[v];
                            if bound[s] {
                                probeable += 1;
                            } else if !new_vars.contains(&s) {
                                new_vars.push(s);
                            }
                        }
                        t @ Term::Apply(..) => {
                            if Self::term_vars_bound(t, &bound, &slot_of) {
                                probeable += 1;
                            }
                        }
                    }
                }
                // Lexicographic: most probeable cols, fewest new vars,
                // (behind a head guard) EDB before standing IDB,
                // earliest textual position.
                let standing_idb = guard_driven
                    && matches!(binders[bi].source, Source::IdbNew(_) | Source::IdbOld(_));
                let score = (usize::MAX - probeable, new_vars.len(), standing_idb, bi);
                if score < best_score {
                    best_score = score;
                    best = ri;
                }
            }
            let bi = remaining.remove(best);
            order.push(bi);
            bind_atom_vars(binders[bi].atom, &slot_of, &mut bound);
        }

        // Emit steps in the chosen order, tracking bound slots.
        let mut bound = vec![false; nslots];
        for &(s, _) in &pre_bound {
            bound[s] = true;
        }
        let mut steps: Vec<Step> = vec![];
        let mut post_checks: Vec<(usize, usize, CTerm)> = vec![];
        for &bi in &order {
            let binder = &binders[bi];
            let atom = binder.atom;
            let mut mask: ColMask = 0;
            let mut probe = vec![];
            let mut binds = vec![];
            let mut checks = vec![];
            let mut local_bound: Vec<usize> = vec![];
            for (col, t) in atom.args.iter().enumerate() {
                match t {
                    Term::Const(c) => {
                        mask |= 1 << col;
                        probe.push(ProbeCol::Const(self.interner.intern(c)));
                    }
                    Term::Var(v) => {
                        let s = slot_of[v];
                        if bound[s] {
                            mask |= 1 << col;
                            probe.push(ProbeCol::Slot(s));
                        } else if local_bound.contains(&s) {
                            checks.push((col, CTerm::Slot(s)));
                        } else {
                            binds.push((col, s));
                            local_bound.push(s);
                        }
                    }
                    t @ Term::Apply(..) => {
                        let ct = self.compile_term(t, &slot_of);
                        if Self::term_vars_bound(t, &bound, &slot_of) {
                            mask |= 1 << col;
                            probe.push(ProbeCol::Term(ct));
                        } else {
                            let mut tvars = vec![];
                            t.vars(&mut tvars);
                            if tvars
                                .iter()
                                .all(|v| bound[slot_of[v]] || local_bound.contains(&slot_of[v]))
                            {
                                checks.push((col, ct));
                            } else {
                                post_checks.push((steps.len(), col, ct));
                            }
                        }
                    }
                }
            }
            for &s in &local_bound {
                bound[s] = true;
            }
            steps.push(Step {
                source: binder.source,
                arity: atom.args.len(),
                mask,
                probe,
                binds,
                checks,
                factor: binder.factor,
            });
        }

        // `exec` folds a derivation's product over the factor slots in
        // index order, whatever order the steps join in. Each factor feeds
        // the slot of its textual position, once: then every variant of a
        // sum-product (Δ split, `@dlt`, `@cone`) multiplies in the rule's
        // order and recomputes a stored value bit for bit, on `f64`
        // carriers too — what the attaining delete's equality test needs.
        debug_assert!(
            steps.iter().filter(|s| s.factor.is_some()).count() == sp.factors.len()
                && steps.iter().zip(&order).all(|(s, &bi)| {
                    let atom =
                        |f: FactorSlot| std::ptr::eq(binders[bi].atom, &sp.factors[f.index].atom);
                    s.factor.is_none_or(atom)
                }),
            "a plan's factor slots are its rule's textual factor order"
        );
        let mut factors: Vec<_> = sp.factors.iter().map(|f| (0, f.func.clone())).collect();
        for (si, step) in steps.iter().enumerate() {
            if let Some(f) = step.factor {
                factors[f.index].0 = si;
            }
        }
        let fill: Vec<usize> = (0..nslots).filter(|&s| !bound[s]).collect();
        let condition = self.compile_formula(&sp.condition, &slot_of);
        Ok(Plan {
            pid: 0, // assigned globally after compilation
            rule_idx,
            label,
            head_pred: self
                .idb_id(&rule.head.pred)
                .expect("head is an IDB by construction"),
            head_cols,
            nslots,
            pre_bound,
            factors,
            steps,
            fill,
            condition,
            coeff: sp.coeff.clone(),
            post_checks,
            frontier_only: false,
        })
    }
}

/// The join-strategy tag of one plan: what each probing step
/// dispatches to, folded across steps. A step reads a sorted run only
/// when its source is an EDB relation too wide for a packed key — IDB
/// and Δ relations grow while they are probed and index by hash at any
/// arity. The tag is what a from-scratch run does: an EDB relation a
/// [`Materialization`](crate::Materialization) has inserted into probes
/// by hash from that insert on, and `merge_join_steps` /
/// `hash_join_steps` in the run's counters are the truth either way.
fn plan_join<P: Pops>(plan: &Plan<P>) -> &'static str {
    let mut merge = 0usize;
    let mut hash = 0usize;
    for step in &plan.steps {
        if step.mask == 0 {
            continue;
        }
        let edb = matches!(step.source, Source::PopsEdb(_) | Source::BoolEdb(_));
        if edb && probes_arranged(step.arity, step.mask) {
            merge += 1;
        } else {
            hash += 1;
        }
    }
    match (merge, hash) {
        (0, 0) => "scan",
        (_, 0) => "merge",
        (0, _) => "hash",
        _ => "mixed",
    }
}

fn bind_atom_vars(atom: &Atom, slot_of: &HashMap<Var, usize>, bound: &mut [bool]) {
    let mut vars = vec![];
    atom.vars(&mut vars);
    for v in vars {
        bound[slot_of[&v]] = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlo_core::demand::magic_rewrite;
    use dlo_core::parse_program;
    use dlo_core::query::{Query, QueryArg};
    use dlo_pops::Trop;

    #[test]
    fn apsp_compiles_with_delta_variants() {
        let prog: dlo_core::Program<Trop> =
            parse_program("T(X, Y) :- E(X, Y) + T(X, Z) * E(Z, Y).").unwrap();
        let mut interner = Interner::new();
        let c = compile(&prog, &mut interner).unwrap();
        assert_eq!(c.idbs, vec![("T".to_string(), 2)]);
        assert_eq!(c.pops_edbs, vec!["E".to_string()]);
        // Two seed plans (one per sum-product), one delta variant (the
        // recursive sum-product has exactly one IDB occurrence).
        assert_eq!(c.seed_plans.len(), 2);
        assert_eq!(c.delta_plans.len(), 1);
        // The delta plan is driven by the Δ occurrence of T.
        let dp = &c.delta_plans[0];
        assert!(matches!(dp.steps[0].source, Source::IdbDelta(0)));
        // The trailing E(Z, Y) probes on the Z column bound by T(X, Z).
        assert!(matches!(dp.steps[1].source, Source::PopsEdb(0)));
        assert_eq!(dp.steps[1].mask, 0b01);
        assert!(dp.fill.is_empty());
    }

    /// `plan`'s IDB reads in factor order — `N`ew, `D`elta, `O`ld —
    /// behind a `!` when only a frontier may fire it.
    fn shape<P>(plan: &Plan<P>) -> String {
        let read = |s: &Step| match s.source {
            Source::IdbNew(_) => Some((s.factor?.index, 'N')),
            Source::IdbDelta(_) => Some((s.factor?.index, 'D')),
            Source::IdbOld(_) => Some((s.factor?.index, 'O')),
            Source::PopsEdb(_) | Source::BoolEdb(_) => None,
        };
        let mut reads: Vec<(usize, char)> = plan.steps.iter().filter_map(read).collect();
        reads.sort();
        let tag = if plan.frontier_only { "!" } else { "" };
        tag.chars().chain(reads.iter().map(|r| r.1)).collect()
    }

    #[test]
    fn every_loop_fires_one_delta_family() {
        let cap = UnaryFn::new("cap", Trop::clone);
        let parser = dlo_core::parser::ProgramParser::<Trop>::new().with_func(cap);
        let query = Query::new("T", vec![QueryArg::bound("a"), QueryArg::Free]);
        // Program, its Δ family (Theorem 6.5's splits, once each, in
        // compile order) and that of its magic rewrite for `?- T(a, Y)`.
        // Only the last shape differs between the loops: the rounds'
        // recompute plan (no Δ: no frontier groups it), then the split
        // the rounds skip.
        let cases = [
            (
                "T(X, Y) :- E(X, Y) + T(X, Z) * E(Z, Y).",
                "D",
                Some("D DO ND"),
            ),
            ("L(X) :- 1 | X = 0 + L(Z) * E(Z, X).", "D", None),
            (
                "O1(A, D) :- S(A, B, C) * F(A, B, C, D).\nO2(A) :- S4(A, B, C, D) * F(A, B, C, D).",
                "",
                None,
            ),
            (
                "T(X, Y) :- E(X, Y) + T(X, Z) * T(Z, Y).",
                "DO ND",
                Some("DO ND"),
            ),
            (
                "T(X, Y) :- E(X, Y) + T(X, Z) * T(Z, W) * T(W, Y).",
                "DOO NDO NND",
                None,
            ),
            (
                "A(X, Y) :- E(X, Y) + B(X, Z) * E(Z, Y).\nB(X, Y) :- A(X, Z) * A(Z, Y).",
                "D DO ND",
                None,
            ),
            (
                "P(L, X, Z) :- EP(L, X, Z) + P(L, X, Y) * P(L, Y, Z).",
                "DO ND",
                None,
            ),
            (
                "SG(X, Y) :- F(X, Y) + U(X, A) * SG(A, B) * D(B, Y).",
                "D",
                None,
            ),
            ("R(X) :- S(X) + cap(R(Y)) * E(Y, X).", "N !D", None),
        ];
        for (text, family, magic_family) in cases {
            let prog = parser.parse(text).unwrap();
            let mut compiled = vec![(compile(&prog, &mut Interner::new()).unwrap(), family)];
            if let Some(family) = magic_family {
                let m = magic_rewrite(&prog, &query).unwrap();
                let c = compile_demand(&m.program, &mut Interner::new(), &m.magic_preds);
                compiled.push((c.unwrap(), family));
            }
            for (c, family) in compiled {
                let shapes: Vec<String> = c.delta_plans.iter().map(shape).collect();
                assert_eq!(shapes.join(" "), family, "{text}");
                // Pids are dense: seed plans, then the family.
                let pids = c.seed_plans.iter().chain(&c.delta_plans).map(|p| p.pid);
                assert!(pids.eq(0..c.total_plans()), "{text}");
                assert_eq!(c.plan_metas().len(), c.total_plans(), "{text}");
                // A frontier fires, for Δ predicate `p`, the family's
                // plans whose first step is `IdbDelta(p)`, in family
                // order — every split (its Δ drives the join), nothing else.
                let groups = by_delta_pred(&c.delta_plans, c.idbs.len());
                for (p, fired) in groups.iter().enumerate() {
                    let drives = |plan: &&Plan<Trop>| plan.steps[0].source == Source::IdbDelta(p);
                    let family = c.delta_plans.iter().filter(drives).map(|plan| plan.pid);
                    let fired = fired.iter().map(|plan| plan.pid);
                    assert!(fired.eq(family), "{text}: Δ {p}");
                }
                let splits = shapes.iter().filter(|s| s.contains('D')).count();
                assert_eq!(groups.concat().len(), splits, "{text}");
            }
        }
    }

    #[test]
    fn equality_prebinding_reaches_probe_masks() {
        // Single-source: L(X) :- {1 | X = a} ⊕ Σ_z L(Z) ⊗ E(Z, X).
        let prog: dlo_core::Program<Trop> =
            parse_program("L(X) :- 1 | X = a.\nL(X) :- L(Z) * E(Z, X).").unwrap();
        let mut interner = Interner::new();
        let c = compile(&prog, &mut interner).unwrap();
        let indicator = &c.seed_plans[0];
        assert_eq!(indicator.pre_bound.len(), 1);
        assert!(indicator.steps.is_empty());
        assert!(indicator.fill.is_empty());
    }

    #[test]
    fn head_key_function_compiles_to_a_computed_emit() {
        use dlo_core::ast::{Atom, Program, Term};
        let mut p = Program::<Trop>::new();
        p.rule(
            Atom::new(
                "W",
                vec![Term::Apply(KeyFn::AddInt(1), Box::new(Term::v(0)))],
            ),
            vec![SumProduct::new(vec![Factor::atom("V", vec![Term::v(0)])])],
        );
        let mut interner = Interner::new();
        let c = compile(&p, &mut interner).expect("head key functions compile natively");
        let head = &c.seed_plans[0].head_cols;
        assert_eq!(head.len(), 1);
        match &head[0] {
            HeadOp::Computed(CTerm::Apply(KeyFn::AddInt(1), inner)) => {
                assert_eq!(**inner, CTerm::Slot(0));
            }
            other => panic!("expected a computed head op, got {other:?}"),
        }
    }
}
