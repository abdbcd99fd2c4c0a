//! Decode-free result handles: interned output without the `Database`
//! materialization cost.
//!
//! On large runs, materializing a [`Database`] — decoding every interned
//! row back to a `Constant` tuple of its own and handing the rows, in
//! rank order, to one bulk build per relation that checks the order and
//! does not sort — is the single largest phase *after* the fixpoint
//! itself (it was the largest overall before the rank-ordered build). A
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
use crate::govern::EvalError;
use crate::intern::Interner;
use crate::storage::ColumnRel;
use dlo_core::eval::{EvalOutcome, EvalStats};
use dlo_core::query::{Query, QueryArg};
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

    /// Support size of `pred` (0 when absent) — no decode, and no row a
    /// delete left at `0`.
    pub fn support_size(&self, pred: &str) -> usize {
        self.relation(pred).map_or(0, ColumnRel::support_size)
    }

    /// The value of `pred(tuple)`, if present: the tuple's constants are
    /// looked up in the interner (a constant the run never saw cannot
    /// name a row) and the packed row map is probed — no decode. A row
    /// at `0` is absent.
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
        let rank = self.interner.rank_table();
        let (arity, rel) = (self.idbs[i].1, &self.rels[i]);
        Some(decode_rel(&self.interner, &rank, arity, rel, |_| true))
    }

    /// Decodes only the rows of the queried predicate that match
    /// `query`'s bound constants — its answers, bit-identical to
    /// [`Query::restrict`] of [`Self::materialize_pred`]. The bound
    /// constants are tested as ids, and only the ids the kept rows hold
    /// are ranked, so the decode costs the answers, not the whole
    /// interner. `None` when the predicate is no IDB of the program.
    pub(crate) fn materialize_answers(&self, query: &Query) -> Option<Relation<P>> {
        let i = self.idbs.iter().position(|(n, _)| *n == query.pred)?;
        let (arity, rel) = (self.idbs[i].1, &self.rels[i]);
        // A query of another arity, or a constant the run never
        // interned, matches no row.
        if query.arity() != arity {
            return Some(Relation::new(arity));
        }
        let mut ids: Vec<(usize, u32)> = Vec::new();
        for (col, arg) in query.args.iter().enumerate() {
            if let QueryArg::Bound(c) = arg {
                match self.interner.lookup(c) {
                    Some(id) => ids.push((col, id)),
                    None => return Some(Relation::new(arity)),
                }
            }
        }
        let keep = |r: u32| ids.iter().all(|&(col, id)| rel.row(r)[col] == id);
        // `rank` first marks the ids the kept rows hold (with 1), then
        // ranks them among themselves; every other id keeps rank 0, and
        // `keep` drops its rows after the counting passes, whatever
        // order those put them in.
        let mut rank = vec![0u32; self.interner.len()];
        let mut held: Vec<u32> = Vec::new();
        for r in (0..rel.len() as u32).filter(|&r| keep(r)) {
            for &id in rel.row(r) {
                if rank[id as usize] == 0 {
                    rank[id as usize] = 1;
                    held.push(id);
                }
            }
        }
        let order = self.interner.in_constant_order(held);
        for (pos, &id) in order.iter().enumerate() {
            rank[id as usize] = pos as u32;
        }
        Some(decode_rel(&self.interner, &rank, arity, rel, keep))
    }

    /// Decodes the full output into a [`Database`] — the one expensive
    /// operation on this type, deferred until a caller actually needs
    /// `Constant`-keyed relations.
    pub fn materialize(&self) -> Database<P> {
        decode_db(&self.interner, &self.idbs, &self.rels)
    }
}

/// The full rank-sorted decode of interned IDB storage — shared by
/// [`InternedOutput::materialize`] and the classic `Database`-returning
/// driver entry points.
pub(crate) fn decode_db<P: Pops>(
    interner: &Interner,
    idbs: &[(String, usize)],
    rels: &[ColumnRel<P>],
) -> Database<P> {
    let rank = interner.rank_table();
    let mut db = Database::new();
    for ((name, arity), rel) in idbs.iter().zip(rels) {
        db.insert(name, decode_rel(interner, &rank, *arity, rel, |_| true));
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

/// Decodes the rows of one interned relation that `keep` says yes to,
/// pre-ordered by interned rank ([`decode_order`]), so
/// `Relation::from_pairs` sees strictly increasing tuples: one linear
/// check, no sort.
fn decode_rel<P: Pops>(
    interner: &Interner,
    rank: &[u32],
    arity: usize,
    rel: &ColumnRel<P>,
    keep: impl Fn(u32) -> bool,
) -> Relation<P> {
    let mut order = decode_order(rank, rel);
    // Filtered before the map, so `from_pairs` collects an exact-size
    // iterator into one allocation.
    order.retain(|&r| keep(r));
    let pairs = order.into_iter().map(|r| {
        let tuple: Tuple = rel
            .row(r)
            .iter()
            .map(|&id| interner.get(id).clone())
            .collect();
        (tuple, rel.val(r).clone())
    });
    Relation::from_pairs(arity, pairs)
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

    /// The partial instance, interned: read it without a decode, or
    /// decode it with [`InternedOutput::materialize`].
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
        let InternedOutput {
            interner,
            idbs,
            rels,
        } = &self.interned;
        let rank = interner.rank_table();
        let mut db = Database::new();
        for (pred, ((name, arity), rel)) in idbs.iter().zip(rels).enumerate() {
            let settled = |row| self.settled.is_settled(pred, row);
            db.insert(name, decode_rel(interner, &rank, *arity, rel, settled));
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
    /// arity 1, 2 and 3 relations reach `from_pairs` in the
    /// comparator's order, and decode to the relation built tuple by
    /// tuple.
    #[test]
    fn decode_order_is_the_rank_comparator_order() {
        use super::{decode_order, decode_rel};
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
        let rank = interner.rank_table();
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
            let decoded = decode_rel(&interner, &rank, arity, &rel, |_| true);
            assert_eq!(decoded, one_by_one);
        }
    }

    /// A query's decode reads only the matching rows and ranks only the
    /// ids they hold, and answers exactly what restricting the whole
    /// decode does: over constants interned out of order (integers and
    /// strings mixed), for every adornment of an arity-3 relation, for a
    /// constant the run never saw, and for a pattern of another arity.
    #[test]
    fn matching_decode_is_the_restricted_full_decode() {
        use super::InternedOutput;
        use crate::intern::Interner;
        use crate::storage::ColumnRel;
        use dlo_core::query::{Query, QueryArg};
        use dlo_core::relation::Relation;
        use dlo_core::value::Constant;
        let mut interner = Interner::new();
        for i in 0..60i64 {
            let c = match i % 3 {
                0 => Constant::int(100 - i),
                1 => Constant::str(&format!("s{}", (i * 7) % 60)),
                _ => Constant::int(i * 31 % 97 - 40),
            };
            interner.intern(&c);
        }
        let ids = interner.len() as u32;
        let mut rel = ColumnRel::<Trop>::new(3);
        for r in 0..3_000u32 {
            let key = [r % 5, r * 7 % ids, r * 13 % ids];
            if rel.rowid(&key).is_none() {
                rel.insert_row(&key, Trop::finite(r as f64));
            }
        }
        let consts: Vec<Constant> = rel
            .row(17)
            .iter()
            .map(|&id| interner.get(id).clone())
            .collect();
        let out = InternedOutput::new(interner, vec![("T".to_string(), 3)], vec![rel]);
        let full = out.materialize_pred("T").expect("an IDB");
        let unseen = Constant::str("never interned");
        for mask in 0..8 {
            for miss in [false, true] {
                let args: Vec<QueryArg> = (0..3)
                    .map(|c| match (mask >> c & 1 == 1, miss && c == 2) {
                        (false, _) => QueryArg::Free,
                        (true, false) => QueryArg::Bound(consts[c].clone()),
                        (true, true) => QueryArg::Bound(unseen.clone()),
                    })
                    .collect();
                let query = Query::new("T", args);
                let want = query.restrict(full.clone());
                let got = out.materialize_answers(&query).expect("an IDB");
                assert_eq!(got, want, "mask {mask:03b}, unseen {miss}");
                assert!(miss && mask & 4 != 0 || got.support_size() > 0);
            }
        }
        let short = Query::all("T", 2);
        assert_eq!(out.materialize_answers(&short), Some(Relation::new(3)));
        assert_eq!(out.materialize_answers(&Query::all("U", 3)), None);
    }
}
