//! Evaluation of grounded datalog° programs: the naïve algorithm
//! (Algorithm 1) and the semi-naïve algorithm (Algorithm 3).
//!
//! Two evaluator families share the [`EvalOutcome`] contract: the
//! grounded evaluators here ([`naive`]/[`seminaive`]), the repository's
//! one reference semantics, and the interned execution engine in
//! `dlo_engine`, which is checked against them. Both are total over the
//! language: a program whose heads apply key functions (Sec. 4.5) is
//! grounded again over the constants it mints until none is new
//! (`crate::ground`), so `N(0) :- $1.  N(I+1) :- N(I) | I < 5.` over
//! `MinNat` gives the 6 rows of `N` the engine gives. The engine itself
//! offers three evaluation *strategies* (global semi-naïve, FIFO
//! worklist, priority frontier — `dlo_engine::Strategy`), gated by POPS
//! trait bounds; for totally ordered absorptive dioids
//! `Strategy::Priority` runs the Dijkstra-style priority loop.
//!
//! For worklist/priority outcomes, `steps` counts frontier pops or
//! batches rather than ICO applications — fixpoints agree across
//! backends, step counts only within one discipline.
//!
//! A grounded run stops at its fixpoint or at its iteration cap and
//! nowhere else: deadlines, step and row budgets, cancellation, the
//! typed `EvalError` and trace sinks are the engine's run-time
//! governance (`dlo_engine`'s `govern` and `telemetry` modules).

pub mod naive;
pub mod seminaive;
pub mod stats;

use crate::ground::GroundSystem;
use crate::relation::Database;
use dlo_pops::Pops;
pub use stats::{Counters, EvalStats, IterStat, PhaseNanos, RuleProfile};

/// Default iteration cap used by the convenience entry points. High enough
/// for every workload in the repository; all entry points also take an
/// explicit cap.
pub const DEFAULT_CAP: usize = 100_000;

/// The outcome of evaluating a datalog° program.
///
/// Both variants carry [`EvalStats`] — the always-on telemetry every
/// backend populates (the grounded reference evaluators only fill the
/// skeleton fields; the execution engine fills everything). Stats are
/// **excluded from equality**: two outcomes compare equal iff their
/// fixpoints and step counts agree, so cross-backend and cross-thread
/// determinism tests are unaffected by timing noise. Compare
/// [`EvalStats::invariants`] explicitly to test stats determinism.
#[derive(Clone, Debug)]
pub enum EvalOutcome<P: Pops> {
    /// The naïve/semi-naïve loop reached a fixpoint.
    Converged {
        /// The least fixpoint as a database instance.
        output: Database<P>,
        /// Number of ICO applications performed before the fixpoint test
        /// succeeded (the `t` with `J(t+1) = J(t)`).
        steps: usize,
        /// Evaluation telemetry (ignored by `==`).
        stats: EvalStats,
    },
    /// The loop hit its iteration cap (Sec. 4.2 cases (i)/(ii)).
    Diverged {
        /// The last instance computed (for inspection).
        last: Database<P>,
        /// The cap that was hit.
        cap: usize,
        /// Evaluation telemetry (ignored by `==`).
        stats: EvalStats,
    },
}

impl<P: Pops> PartialEq for EvalOutcome<P> {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (
                EvalOutcome::Converged {
                    output: a,
                    steps: sa,
                    ..
                },
                EvalOutcome::Converged {
                    output: b,
                    steps: sb,
                    ..
                },
            ) => a == b && sa == sb,
            (
                EvalOutcome::Diverged {
                    last: a, cap: ca, ..
                },
                EvalOutcome::Diverged {
                    last: b, cap: cb, ..
                },
            ) => a == b && ca == cb,
            _ => false,
        }
    }
}

impl<P: Pops> Eq for EvalOutcome<P> {}

impl<P: Pops> EvalOutcome<P> {
    /// A converged outcome with default (empty) stats — the
    /// constructor the grounded backends use.
    pub fn from_converged(output: Database<P>, steps: usize) -> Self {
        EvalOutcome::Converged {
            output,
            steps,
            stats: EvalStats::default(),
        }
    }

    /// A diverged outcome with default (empty) stats.
    pub fn from_diverged(last: Database<P>, cap: usize) -> Self {
        EvalOutcome::Diverged {
            last,
            cap,
            stats: EvalStats::default(),
        }
    }

    /// The evaluation telemetry, converged or not.
    pub fn stats(&self) -> &EvalStats {
        match self {
            EvalOutcome::Converged { stats, .. } | EvalOutcome::Diverged { stats, .. } => stats,
        }
    }
    /// The converged output, panicking on divergence.
    ///
    /// The panic message reports the iteration cap that was hit, a
    /// sample of atoms from the last computed instance, and — when the
    /// backend recorded telemetry — the final step's stats snapshot
    /// (last Δ size, frontier queue depth), so a diverging program
    /// (Sec. 4.2 cases (i)/(ii)) is diagnosable without re-running
    /// under a tracer.
    pub fn unwrap(self) -> Database<P> {
        match self {
            EvalOutcome::Converged { output, .. } => output,
            EvalOutcome::Diverged { last, cap, stats } => panic!(
                "datalog° evaluation diverged: no fixpoint within the \
                 iteration cap ({cap}); {}",
                divergence_diagnostic(&last, &stats)
            ),
        }
    }

    /// The converged output and step count, if any.
    pub fn converged(self) -> Option<(Database<P>, usize)> {
        match self {
            EvalOutcome::Converged { output, steps, .. } => Some((output, steps)),
            EvalOutcome::Diverged { .. } => None,
        }
    }

    /// Whether evaluation converged.
    pub fn is_converged(&self) -> bool {
        matches!(self, EvalOutcome::Converged { .. })
    }
}

/// The divergence report of [`EvalOutcome::unwrap`]: a sample of atoms
/// from the last computed instance and — when the backend recorded
/// telemetry — the final step's stats snapshot (last Δ size, frontier
/// queue depth), which is what distinguishes "still pumping huge
/// deltas" from "cap merely too low".
fn divergence_diagnostic<P: Pops>(last: &Database<P>, stats: &EvalStats) -> String {
    const SAMPLE: usize = 5;
    let mut atoms: Vec<String> = vec![];
    let mut total = 0usize;
    for (pred, rel) in last.iter() {
        for (tuple, v) in rel.support() {
            total += 1;
            if atoms.len() < SAMPLE {
                atoms.push(format!("{pred}{} = {v:?}", crate::value::fmt_tuple(tuple)));
            }
        }
    }
    let sample = if atoms.is_empty() {
        "no supported atoms in the last instance".to_string()
    } else {
        format!(
            "last instance has {total} supported atom(s), e.g. {}",
            atoms.join(", ")
        )
    };
    let snapshot = match stats.last_iter {
        Some(it) => format!(
            "; final step {}: {} delta row(s), queue depth {}, \
             {} emit(s), {} inserted, {} improved",
            it.step, it.delta_rows, it.queue_depth, it.emits, it.inserted, it.improved
        ),
        None => String::new(),
    };
    format!("{sample}{snapshot}")
}

/// A full iteration trace: the sequence of IDB instances
/// `J(0) ⊑ J(1) ⊑ …` (used to regenerate the paper's tables).
#[derive(Clone, Debug)]
pub struct Trace<P: Pops> {
    /// The ground system the trace was produced from.
    pub atoms: Vec<crate::value::GroundAtom>,
    /// `iterates[t]` is the value vector of `J(t)`.
    pub iterates: Vec<Vec<P>>,
    /// Whether the final iterate is a fixpoint.
    pub converged: bool,
}

impl<P: Pops> Trace<P> {
    /// Renders the trace as a fixed-width text table with one column per
    /// ground atom and one row per iteration, like the tables of
    /// Examples 4.1/4.2 and Sec. 7.
    pub fn render(&self) -> String {
        let mut headers: Vec<String> = self.atoms.iter().map(|a| format!("{a}")).collect();
        let mut rows: Vec<Vec<String>> = vec![];
        for (t, x) in self.iterates.iter().enumerate() {
            let mut row = vec![format!("J({t})")];
            row.extend(x.iter().map(|v| format!("{v:?}")));
            rows.push(row);
        }
        headers.insert(0, String::new());
        let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
        for row in &rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.chars().count());
            }
        }
        let fmt_row = |cells: &[String]| -> String {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:>width$}", c, width = widths[i]))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let mut out = fmt_row(&headers);
        out.push('\n');
        for row in &rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }
}

/// Shared helper: run a vector-update loop to fixpoint with a cap.
pub(crate) fn to_outcome<P: Pops>(
    sys: &GroundSystem<P>,
    result: Result<(Vec<P>, usize), Vec<P>>,
    cap: usize,
) -> EvalOutcome<P> {
    match result {
        Ok((x, steps)) => EvalOutcome::from_converged(sys.to_database(&x), steps),
        Err(last) => EvalOutcome::from_diverged(sys.to_database(&last), cap),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relation::Relation;
    use crate::tup;
    use dlo_pops::Nat;

    #[test]
    fn diverged_unwrap_reports_cap_and_atom_sample() {
        let mut last = Database::<Nat>::new();
        let mut rel = Relation::new(1);
        rel.set(tup!["u"], Nat(64));
        last.insert("X", rel);
        let outcome = EvalOutcome::from_diverged(last, 30);
        let panic = std::panic::catch_unwind(move || outcome.unwrap())
            .expect_err("diverged unwrap must panic");
        let msg = panic
            .downcast_ref::<String>()
            .expect("panic payload is a formatted string");
        assert!(msg.contains("iteration cap (30)"), "got: {msg}");
        assert!(msg.contains("X(u)"), "got: {msg}");
        assert!(msg.contains("1 supported atom"), "got: {msg}");
    }

    #[test]
    fn diverged_unwrap_includes_final_stats_snapshot() {
        let mut stats = EvalStats::default();
        stats.push_iteration(IterStat {
            step: 29,
            delta_rows: 12,
            queue_depth: 4,
            emits: 80,
            inserted: 3,
            improved: 9,
            ..IterStat::default()
        });
        let outcome = EvalOutcome::Diverged {
            last: Database::<Nat>::new(),
            cap: 30,
            stats,
        };
        let panic = std::panic::catch_unwind(move || outcome.unwrap())
            .expect_err("diverged unwrap must panic");
        let msg = panic.downcast_ref::<String>().unwrap();
        assert!(msg.contains("final step 29"), "got: {msg}");
        assert!(msg.contains("12 delta row(s)"), "got: {msg}");
        assert!(msg.contains("queue depth 4"), "got: {msg}");
    }

    #[test]
    fn diverged_unwrap_mentions_empty_instances() {
        let outcome = EvalOutcome::from_diverged(Database::<Nat>::new(), 7);
        let panic = std::panic::catch_unwind(move || outcome.unwrap())
            .expect_err("diverged unwrap must panic");
        let msg = panic.downcast_ref::<String>().unwrap();
        assert!(msg.contains("no supported atoms"), "got: {msg}");
    }
}
