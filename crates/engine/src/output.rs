//! Decode-free result handles: interned output without the `Database`
//! materialization cost.
//!
//! On large runs, materializing a [`Database`] — decoding every interned
//! row back to `Constant` tuples and bulk-building rank-sorted
//! `BTreeMap`s — is the single largest phase *after* the fixpoint itself
//! (it was the largest overall before the rank-sorted bulk build). A
//! pipeline that feeds results straight back into the engine, inspects a
//! handful of values, or only needs support counts pays that full price
//! for nothing. [`InternedOutput`] is the fix: it owns the final IDB
//! storage **and** the interner that gives the ids meaning, exposes the
//! cheap queries directly on interned state, and materializes a
//! `Database` (whole, or one predicate at a time) only when asked.
//!
//! Every entry point ([`crate::engine_eval_interned`] and its
//! siblings) returns an [`InternedOutcome`], the decode-free mirror of
//! `dlo_core::eval::EvalOutcome`; `.materialize()` converts between the
//! two on demand.

use crate::intern::Interner;
use crate::storage::ColumnRel;
use dlo_core::eval::{EvalError, EvalOutcome, EvalStats};
use dlo_core::relation::{Database, Relation};
use dlo_core::value::{Constant, Tuple};
use dlo_pops::Pops;
use std::fmt::Write as _;

/// A fixpoint result in interned, columnar form: the final IDB relations
/// plus the interner (including any ids minted for head-computed keys
/// during the run) that decodes them.
#[derive(Clone, Debug)]
pub struct InternedOutput<P> {
    interner: Interner,
    idbs: Vec<(String, usize)>,
    rels: Vec<ColumnRel<P>>,
}

impl<P: Pops> InternedOutput<P> {
    pub(crate) fn new(
        interner: Interner,
        idbs: Vec<(String, usize)>,
        rels: Vec<ColumnRel<P>>,
    ) -> Self {
        debug_assert_eq!(idbs.len(), rels.len());
        InternedOutput {
            interner,
            idbs,
            rels,
        }
    }

    /// The constant table the rows are interned against (EDB and program
    /// constants plus everything minted during the run).
    pub fn interner(&self) -> &Interner {
        &self.interner
    }

    /// Replaces one predicate's storage in place —
    /// [`Materialization`](crate::incremental) refreshes only the
    /// relations whose [`ColumnRel::version`] moved since the snapshot
    /// was taken, leaving untouched predicates' clones alive across
    /// edit epochs.
    pub(crate) fn update_relation(&mut self, idx: usize, rel: ColumnRel<P>) {
        self.rels[idx] = rel;
    }

    /// Replaces the interner — only needed when minting extended the
    /// constant table since the snapshot (the interner is append-only,
    /// so its length is its version).
    pub(crate) fn set_interner(&mut self, interner: Interner) {
        self.interner = interner;
    }

    /// The IDB predicates `(name, arity)` in compilation order.
    pub fn predicates(&self) -> impl Iterator<Item = (&str, usize)> {
        self.idbs.iter().map(|(n, a)| (n.as_str(), *a))
    }

    /// The interned storage of `pred`, if it is an IDB of the program.
    pub fn relation(&self, pred: &str) -> Option<&ColumnRel<P>> {
        self.idbs
            .iter()
            .position(|(n, _)| n == pred)
            .map(|i| &self.rels[i])
    }

    /// Support size of `pred` (0 when absent) — no decode.
    pub fn support_size(&self, pred: &str) -> usize {
        self.relation(pred).map_or(0, |r| r.len())
    }

    /// The value of `pred(tuple)`, if present: the tuple's constants are
    /// looked up in the interner (a constant the run never saw cannot
    /// name a row) and the packed row map is probed — no decode.
    pub fn get(&self, pred: &str, tuple: &[Constant]) -> Option<&P> {
        let rel = self.relation(pred)?;
        if tuple.len() != rel.arity() {
            return None;
        }
        let mut key: Vec<u32> = Vec::with_capacity(tuple.len());
        for c in tuple {
            key.push(self.interner.lookup(c)?);
        }
        rel.get(&key)
    }

    /// One line per IDB predicate: its rows and its row map's layout and
    /// heap bytes (`T: 239605 rows, row map dense 500² (976.6 KiB)`) — a
    /// relation that stays `hashed` where it could be direct-addressed
    /// shows here, not only in a profile.
    pub fn explain(&self) -> String {
        let mut s = String::new();
        for ((name, _), rel) in self.idbs.iter().zip(&self.rels) {
            let _ = writeln!(
                s,
                "{name}: {} rows, row map {}",
                rel.len(),
                rel.describe_row_map()
            );
        }
        s
    }

    /// Decodes one predicate into a [`Relation`] (rank-sorted bulk
    /// build), leaving every other predicate interned.
    pub fn materialize_pred(&self, pred: &str) -> Option<Relation<P>> {
        let i = self.idbs.iter().position(|(n, _)| n == pred)?;
        let rank = rank_table(&self.interner);
        Some(decode_rel(
            &self.interner,
            &rank,
            self.idbs[i].1,
            &self.rels[i],
        ))
    }

    /// Decodes the full output into a [`Database`] — the one expensive
    /// operation on this type, deferred until a caller actually needs
    /// `Constant`-keyed relations.
    pub fn materialize(&self) -> Database<P> {
        decode_db(&self.interner, &self.idbs, &self.rels)
    }
}

/// Rank over *all* currently interned ids (minting may have extended the
/// table past the setup-time active domain): rank order is
/// order-isomorphic to `Constant` order, so packed-rank comparisons give
/// exactly the tuple order a `BTreeMap` bulk build wants.
fn rank_table(interner: &Interner) -> Vec<u32> {
    let mut ids: Vec<u32> = (0..interner.len() as u32).collect();
    ids.sort_unstable_by(|a, b| interner.get(*a).cmp(interner.get(*b)));
    let mut rank = vec![0u32; ids.len()];
    for (pos, &id) in ids.iter().enumerate() {
        rank[id as usize] = pos as u32;
    }
    rank
}

/// The full rank-sorted decode of interned IDB storage — shared by
/// [`InternedOutput::materialize`] and the classic `Database`-returning
/// driver entry points.
pub(crate) fn decode_db<P: Pops>(
    interner: &Interner,
    idbs: &[(String, usize)],
    rels: &[ColumnRel<P>],
) -> Database<P> {
    let rank = rank_table(interner);
    let mut db = Database::new();
    for ((name, arity), rel) in idbs.iter().zip(rels) {
        db.insert(name, decode_rel(interner, &rank, *arity, rel));
    }
    db
}

/// Decodes one interned relation with rows pre-ordered by interned rank,
/// so `Relation::from_distinct_pairs` sees sorted keys and its internal
/// sort degenerates to a linear scan.
fn decode_rel<P: Pops>(
    interner: &Interner,
    rank: &[u32],
    arity: usize,
    rel: &ColumnRel<P>,
) -> Relation<P> {
    let order: Vec<u32> = if arity <= 2 {
        let mut keyed: Vec<(u64, u32)> = (0..rel.len() as u32)
            .map(|r| {
                let packed = match rel.row(r) {
                    [] => 0u64,
                    [a] => rank[*a as usize] as u64,
                    [a, b] => ((rank[*a as usize] as u64) << 32) | rank[*b as usize] as u64,
                    _ => unreachable!("arity ≤ 2"),
                };
                (packed, r)
            })
            .collect();
        keyed.sort_unstable_by_key(|&(k, _)| k);
        keyed.into_iter().map(|(_, r)| r).collect()
    } else {
        let mut order: Vec<u32> = (0..rel.len() as u32).collect();
        order.sort_unstable_by(|&a, &b| {
            let ra = rel.row(a).iter().map(|&id| rank[id as usize]);
            let rb = rel.row(b).iter().map(|&id| rank[id as usize]);
            ra.cmp(rb)
        });
        order
    };
    let pairs = order.into_iter().map(|r| {
        let tuple: Tuple = rel
            .row(r)
            .iter()
            .map(|&id| interner.get(id).clone())
            .collect();
        (tuple, rel.val(r).clone())
    });
    Relation::from_distinct_pairs(arity, pairs)
}

/// The decode-free mirror of `dlo_core::eval::EvalOutcome`: same
/// convergence semantics, interned payload. Both variants carry the
/// run's [`EvalStats`]; [`InternedOutcome::materialize`] forwards them
/// (with the decode phase timed into [`EvalStats::phases`]).
#[derive(Clone, Debug)]
pub enum InternedOutcome<P> {
    /// The loop reached a fixpoint.
    Converged {
        /// The least fixpoint, interned.
        output: InternedOutput<P>,
        /// Processed steps (global iterations for the semi-naïve
        /// strategy, frontier batches for the worklist/priority ones —
        /// not comparable across strategies).
        steps: usize,
        /// Evaluation telemetry.
        stats: EvalStats,
    },
    /// The loop hit its cap.
    Diverged {
        /// The last state computed, interned (for inspection).
        last: InternedOutput<P>,
        /// The cap that was hit.
        cap: usize,
        /// Evaluation telemetry.
        stats: EvalStats,
    },
}

impl<P: Pops> InternedOutcome<P> {
    /// Whether the run converged.
    pub fn is_converged(&self) -> bool {
        matches!(self, InternedOutcome::Converged { .. })
    }

    /// The converged output and step count, or `None` on divergence.
    pub fn converged(self) -> Option<(InternedOutput<P>, usize)> {
        match self {
            InternedOutcome::Converged { output, steps, .. } => Some((output, steps)),
            InternedOutcome::Diverged { .. } => None,
        }
    }

    /// The interned payload, converged or not.
    pub fn output(&self) -> &InternedOutput<P> {
        match self {
            InternedOutcome::Converged { output, .. } => output,
            InternedOutcome::Diverged { last, .. } => last,
        }
    }

    /// The evaluation telemetry, converged or not.
    pub fn stats(&self) -> &EvalStats {
        match self {
            InternedOutcome::Converged { stats, .. } | InternedOutcome::Diverged { stats, .. } => {
                stats
            }
        }
    }

    /// The EXPLAIN/profile report for this run ([`EvalStats::explain`]),
    /// then the output's row maps ([`InternedOutput::explain`]).
    pub fn explain(&self) -> String {
        self.stats().explain() + &self.output().explain()
    }

    /// Decodes into the classic `Database`-carrying [`EvalOutcome`],
    /// timing the decode into the stats' `decode` phase.
    pub fn materialize(self) -> EvalOutcome<P> {
        match self {
            InternedOutcome::Converged {
                output,
                steps,
                mut stats,
            } => {
                let t = std::time::Instant::now();
                let db = output.materialize();
                stats.phases.decode += t.elapsed().as_nanos() as u64;
                EvalOutcome::Converged {
                    output: db,
                    steps,
                    stats,
                }
            }
            InternedOutcome::Diverged {
                last,
                cap,
                mut stats,
            } => {
                let t = std::time::Instant::now();
                let db = last.materialize();
                stats.phases.decode += t.elapsed().as_nanos() as u64;
                EvalOutcome::Diverged {
                    last: db,
                    cap,
                    stats,
                }
            }
        }
    }
}

/// Per-key settled/unsettled marks over an [`InternedOutput`]'s rows.
///
/// Under the priority strategy the frontier pops keys best-value-first
/// and absorption makes `⊗` non-improving, so a popped key can never
/// improve again (the Dijkstra-style argument of the source paper's
/// Cor. 5.19): every popped row is **settled** — its value already
/// equals the least fixpoint's. The mark is then `exact`. The other
/// strategies give no such per-key guarantee; their marks are empty
/// and `exact` is false, and the partial instance is only a pointwise
/// lower bound (`J(t) ⊑ lfp`).
#[derive(Clone, Debug, Default)]
pub struct SettledMark {
    exact: bool,
    /// Per IDB predicate (in the output's compilation order), a bitmap
    /// over row indices; short vectors mean "unsettled past the end".
    rows: Vec<Vec<bool>>,
    count: u64,
}

impl SettledMark {
    /// The no-guarantee mark every non-priority driver produces:
    /// nothing settled, not exact.
    pub(crate) fn best_effort(npreds: usize) -> SettledMark {
        SettledMark {
            exact: false,
            rows: vec![Vec::new(); npreds],
            count: 0,
        }
    }

    /// An exact (settled-on-pop) mark with no rows settled yet.
    pub(crate) fn exact_empty(npreds: usize) -> SettledMark {
        SettledMark {
            exact: true,
            rows: vec![Vec::new(); npreds],
            count: 0,
        }
    }

    /// Marks one row settled.
    pub(crate) fn mark(&mut self, pred: usize, row: u32) {
        let bits = &mut self.rows[pred];
        let i = row as usize;
        if bits.len() <= i {
            bits.resize(i + 1, false);
        }
        if !bits[i] {
            bits[i] = true;
            self.count += 1;
        }
    }

    /// Clears one row's settled bit (defensive: an improved re-push
    /// means the earlier pop had not settled it after all).
    pub(crate) fn unmark(&mut self, pred: usize, row: u32) {
        let bits = &mut self.rows[pred];
        let i = row as usize;
        if i < bits.len() && bits[i] {
            bits[i] = false;
            self.count -= 1;
        }
    }

    /// Whether the settled rows are guaranteed to carry their final
    /// fixpoint values (priority strategy only).
    pub fn is_exact(&self) -> bool {
        self.exact
    }

    /// Number of settled rows.
    pub fn settled_rows(&self) -> u64 {
        self.count
    }

    /// Whether row `row` of predicate index `pred` is settled.
    pub fn is_settled(&self, pred: usize, row: u32) -> bool {
        self.rows
            .get(pred)
            .and_then(|bits| bits.get(row as usize))
            .copied()
            .unwrap_or(false)
    }
}

/// The abort-time state of a governed run that stopped early: the
/// partially evaluated instance (interned, decode-free), the per-key
/// [`SettledMark`], and the run's final [`EvalStats`].
///
/// Everything in here is a *pointwise lower bound* on the least
/// fixpoint (`J(t) ⊑ lfp`, the loop invariant of Algorithm 1); the
/// settled subset is additionally **exact** when the mark says so.
#[derive(Clone, Debug)]
pub struct PartialOutput<P> {
    interned: InternedOutput<P>,
    settled: SettledMark,
    stats: EvalStats,
}

impl<P: Pops> PartialOutput<P> {
    pub(crate) fn new(interned: InternedOutput<P>, settled: SettledMark, stats: EvalStats) -> Self {
        PartialOutput {
            interned,
            settled,
            stats,
        }
    }

    /// The partial instance, interned. Feeding this back through
    /// [`crate::engine_eval_interned_edb`] (as the retry module does) reuses
    /// its interner, so a warm retry mints the same ids.
    pub fn interned(&self) -> &InternedOutput<P> {
        &self.interned
    }

    /// Consumes the handle, keeping the interned payload.
    pub fn into_interned(self) -> InternedOutput<P> {
        self.interned
    }

    /// The per-key settled marks.
    pub fn settled(&self) -> &SettledMark {
        &self.settled
    }

    /// The telemetry snapshot at the abort.
    pub fn stats(&self) -> &EvalStats {
        &self.stats
    }

    /// Whether the settled subset is exact (see [`SettledMark`]).
    pub fn is_exact(&self) -> bool {
        self.settled.exact
    }

    /// The value of `pred(tuple)` **if that key is settled** — i.e.
    /// guaranteed final under an exact mark. Returns `None` for
    /// unsettled keys even when the partial instance holds a (lower
    /// bound) value for them.
    pub fn settled_value(&self, pred: &str, tuple: &[Constant]) -> Option<&P> {
        let idx = self.interned.idbs.iter().position(|(n, _)| n == pred)?;
        let rel = &self.interned.rels[idx];
        let mut key: Vec<u32> = Vec::with_capacity(tuple.len());
        for c in tuple {
            key.push(self.interned.interner.lookup(c)?);
        }
        let row = rel.rowid(&key)?;
        if self.settled.is_settled(idx, row) {
            Some(rel.val(row))
        } else {
            None
        }
    }

    /// Decodes the whole partial instance — a pointwise lower bound on
    /// the least fixpoint, settled or not.
    pub fn materialize(&self) -> Database<P> {
        self.interned.materialize()
    }

    /// Decodes only the settled rows: under an exact mark this is a
    /// sub-instance of the least fixpoint, bit-identical on every key
    /// it contains. Empty when nothing is settled.
    pub fn materialize_settled(&self) -> Database<P> {
        let mut db = Database::new();
        for (idx, ((name, arity), rel)) in self
            .interned
            .idbs
            .iter()
            .zip(&self.interned.rels)
            .enumerate()
        {
            let mut out = Relation::new(*arity);
            for (row, key, val) in rel.iter() {
                if self.settled.is_settled(idx, row) {
                    let tuple: Tuple = key
                        .iter()
                        .map(|&id| self.interned.interner.get(id).clone())
                        .collect();
                    out.set(tuple, val.clone());
                }
            }
            db.insert(name, out);
        }
        db
    }
}

/// A governed run that stopped early, with its abort-time state: the
/// typed [`EvalError`] plus the [`PartialOutput`] the driver captured
/// at the failing checkpoint — the error side of every entry point.
/// `?` converts the box into the bare [`EvalError`] for callers that do
/// not want the partial.
#[derive(Clone, Debug)]
pub struct AbortedEval<P> {
    error: EvalError,
    partial: PartialOutput<P>,
}

impl<P: Pops> AbortedEval<P> {
    pub(crate) fn new(error: EvalError, partial: PartialOutput<P>) -> Self {
        AbortedEval { error, partial }
    }

    /// The typed failure.
    pub fn error(&self) -> &EvalError {
        &self.error
    }

    /// The abort-time partial state.
    pub fn partial(&self) -> &PartialOutput<P> {
        &self.partial
    }

    /// Splits the carrier.
    pub fn into_parts(self) -> (EvalError, PartialOutput<P>) {
        (self.error, self.partial)
    }
}

impl<P: Pops> From<Box<AbortedEval<P>>> for EvalError {
    fn from(aborted: Box<AbortedEval<P>>) -> EvalError {
        aborted.error
    }
}

impl<P: Pops> std::fmt::Display for AbortedEval<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} ({} settled row(s) captured{})",
            self.error,
            self.partial.settled.settled_rows(),
            if self.partial.is_exact() {
                ", exact"
            } else {
                ", lower bound only"
            }
        )
    }
}

#[cfg(test)]
mod tests {
    use crate::driver::tests::eval;
    use crate::driver::{engine_eval_interned, EngineOpts, SemiNaive};
    use dlo_core::examples_lib as ex;
    use dlo_core::relation::BoolDatabase;
    use dlo_pops::Trop;

    #[test]
    fn interned_output_answers_without_decode_and_materializes_equal() {
        let (program, edb) = ex::sssp_trop("a");
        let bools = BoolDatabase::new();
        let (out, steps) = engine_eval_interned(
            &program,
            &edb,
            &bools,
            1000,
            SemiNaive,
            &EngineOpts::default(),
        )
        .expect("compiles")
        .converged()
        .unwrap();
        assert!(steps > 0);
        // Cheap queries on interned state.
        assert_eq!(out.get("L", &["d".into()]), Some(&Trop::finite(8.0)));
        assert_eq!(out.get("L", &["never-seen".into()]), None);
        assert_eq!(out.support_size("L"), out.relation("L").unwrap().len());
        assert_eq!(out.support_size("absent"), 0);
        // Full and per-pred materialization agree with the classic path.
        let reference = eval(&program, &edb, &bools, 1000, SemiNaive).unwrap();
        assert_eq!(out.materialize(), reference);
        assert_eq!(
            out.materialize_pred("L").as_ref(),
            reference.get("L"),
            "single-pred decode matches"
        );
    }
}
