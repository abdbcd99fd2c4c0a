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

use crate::arrange::radix_order;
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
/// table past the setup-time active domain) — the inverse of
/// [`Interner::ids_in_constant_order`]. Rank order is order-isomorphic
/// to `Constant` order, so ordering rows by rank gives exactly the tuple
/// order a `BTreeMap` bulk build wants.
fn rank_table(interner: &Interner) -> Vec<u32> {
    let mut rank = vec![0u32; interner.len()];
    for (pos, id) in interner.ids_in_constant_order().into_iter().enumerate() {
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

/// The row ids of `rel` in rank order — the counting passes of
/// [`radix_order`] over each row's ranks, at any arity.
fn decode_order<P: Pops>(rank: &[u32], rel: &ColumnRel<P>) -> Vec<u32> {
    let max = rank.len().saturating_sub(1) as u32;
    let key = |r: u32, c: usize| rank[rel.row(r)[c] as usize];
    radix_order(rel.len(), rel.arity(), max, key, &mut Vec::new())
}

/// Decodes one interned relation with rows pre-ordered by interned rank
/// ([`decode_order`]), so `Relation::from_distinct_pairs` sees sorted
/// keys and its internal sort degenerates to a linear scan.
fn decode_rel<P: Pops>(
    interner: &Interner,
    rank: &[u32],
    arity: usize,
    rel: &ColumnRel<P>,
) -> Relation<P> {
    let order = decode_order(rank, rel);
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

    /// The counting passes order a decode exactly as a comparator over
    /// rank sequences does: over constants interned out of order —
    /// integers and strings mixed, so id order is not constant order —
    /// arity 1, 2 and 3 relations reach `from_distinct_pairs` in the
    /// comparator's order, and decode to the relation built tuple by
    /// tuple.
    #[test]
    fn decode_order_is_the_rank_comparator_order() {
        use super::{decode_order, decode_rel, rank_table};
        use crate::intern::Interner;
        use crate::storage::ColumnRel;
        use dlo_core::relation::Relation;
        use dlo_core::value::Constant;
        let mut interner = Interner::new();
        for i in 0..300i64 {
            let c = match i % 3 {
                0 => Constant::int(1000 - i),
                1 => Constant::str(&format!("s{}", (i * 7919) % 300)),
                _ => Constant::int(i * 31 % 97 - 40),
            };
            interner.intern(&c);
        }
        let rank = rank_table(&interner);
        let ids = interner.len() as u64;
        let mut seed = 0x9e37_79b9_7f4a_7c15_u64;
        let mut rng = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed % ids) as u32
        };
        for arity in 1..=3usize {
            let mut rel = ColumnRel::<Trop>::new(arity);
            for v in 0..2_000 {
                let key: Vec<u32> = (0..arity).map(|_| rng()).collect();
                if rel.rowid(&key).is_none() {
                    rel.insert_row(&key, Trop::finite(v as f64));
                }
            }
            let mut before: Vec<u32> = (0..rel.len() as u32).collect();
            before.sort_unstable_by(|&a, &b| {
                let ra = rel.row(a).iter().map(|&id| rank[id as usize]);
                ra.cmp(rel.row(b).iter().map(|&id| rank[id as usize]))
            });
            assert_eq!(decode_order(&rank, &rel), before, "arity {arity}");
            let tuple = |r: u32| -> Vec<Constant> {
                rel.row(r)
                    .iter()
                    .map(|&id| interner.get(id).clone())
                    .collect()
            };
            let one_by_one =
                Relation::from_pairs(arity, rel.iter().map(|(r, _, v)| (tuple(r), *v)));
            assert_eq!(decode_rel(&interner, &rank, arity, &rel), one_by_one);
        }
    }
}
