//! Typed evaluation failures and resource governance.
//!
//! Every public evaluation entry point of the execution engine (and the
//! umbrella crate's convenience wrappers) fails **as a value**: a
//! [`EvalError`] instead of a panic — compile rejections, budget and
//! deadline exhaustion, cancellation, contained worker panics, and
//! poisoned materializations all arrive through the same enum, so a
//! long-lived process (the ROADMAP's query server) can absorb a hostile
//! or merely non-convergent query without coming down.
//!
//! Run-phase errors carry the final [`EvalStats`] snapshot the engine
//! had accumulated when the run stopped. The error value itself stays
//! engine-agnostic: a budget-interrupted accumulation is not a
//! fixpoint, so the *typed error* never masquerades as answers.
//! Degraded answers are a separate, explicitly-labelled surface: the
//! engine's `PartialOutput` rides next to the error on the
//! partial-aware entry points, marked per key as settled (exact under
//! the priority strategy's settled-on-pop invariant) or merely a
//! lower bound — callers opt into the prefix, they cannot mistake it
//! for the least fixpoint.
//!
//! Governance inputs live here too: [`EvalBudget`] (deadline, step,
//! emitted-row, and minted-id ceilings, checked at loop checkpoints so
//! the hot per-tuple loops stay untouched) and [`CancelToken`] (a
//! shared atomic flag a server thread can flip mid-run, polled at the
//! same checkpoints). Escalation is the caller's: rerun with a larger
//! [`EvalBudget`].

use super::stats::EvalStats;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Which [`EvalBudget`] ceiling a run exhausted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BudgetKind {
    /// [`EvalBudget::max_steps`]: iterations / generations / frontier
    /// batches, whichever the strategy counts.
    Steps,
    /// [`EvalBudget::max_rows`]: rows emitted by rule bodies.
    Rows,
    /// [`EvalBudget::max_minted`]: fresh ids minted by head key
    /// functions.
    MintedIds,
}

impl std::fmt::Display for BudgetKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            BudgetKind::Steps => "steps",
            BudgetKind::Rows => "emitted rows",
            BudgetKind::MintedIds => "minted ids",
        })
    }
}

/// Resource ceilings for one evaluation. The default is unlimited;
/// every limit is independent and checked at phase boundaries
/// (iteration / generation / frontier-batch starts), so a runaway query
/// stops within one phase of crossing a line — never mid-merge.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct EvalBudget {
    /// Wall-clock ceiling for the whole run (setup included).
    pub deadline: Option<Duration>,
    /// Ceiling on evaluation steps (iterations, generations, or
    /// frontier batches, depending on the strategy).
    pub max_steps: Option<u64>,
    /// Ceiling on rows emitted by rule bodies (pre-merge).
    pub max_rows: Option<u64>,
    /// Ceiling on fresh constants minted by head key functions.
    pub max_minted: Option<u64>,
}

impl EvalBudget {
    /// No ceilings at all (the default).
    pub fn unlimited() -> EvalBudget {
        EvalBudget::default()
    }

    /// Whether any ceiling is set.
    pub fn is_limited(&self) -> bool {
        self.deadline.is_some()
            || self.max_steps.is_some()
            || self.max_rows.is_some()
            || self.max_minted.is_some()
    }

    /// Sets the wall-clock deadline.
    pub fn with_deadline(mut self, deadline: Duration) -> EvalBudget {
        self.deadline = Some(deadline);
        self
    }

    /// Sets the step ceiling.
    pub fn with_max_steps(mut self, steps: u64) -> EvalBudget {
        self.max_steps = Some(steps);
        self
    }

    /// Sets the emitted-row ceiling.
    pub fn with_max_rows(mut self, rows: u64) -> EvalBudget {
        self.max_rows = Some(rows);
        self
    }

    /// Sets the minted-id ceiling.
    pub fn with_max_minted(mut self, minted: u64) -> EvalBudget {
        self.max_minted = Some(minted);
        self
    }
}

/// A shared cancellation flag: clone it, hand one copy to the engine
/// via its options, keep the other, and flip it from any thread.
/// Drivers poll at phase boundaries (the poll is one relaxed atomic
/// load), and a cancelled run returns [`EvalError::Cancelled`] with the
/// stats it had accumulated.
#[derive(Clone, Debug, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Flips the flag; every evaluation polling this token stops at its
    /// next phase boundary.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Relaxed);
    }

    /// Whether [`CancelToken::cancel`] has been called.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }
}

/// A typed evaluation failure. See the module docs for the contract;
/// [`EvalError::stats`] exposes the run-phase telemetry snapshot.
///
/// Equality ignores the carried [`EvalStats`] and measured durations
/// (both are environmental), mirroring
/// [`EvalOutcome`](super::EvalOutcome) equality.
#[derive(Clone, Debug)]
pub enum EvalError {
    /// The program (or query) cannot be compiled or dispatched: an atom
    /// of arity > 32, one head predicate used at two arities, an
    /// unknown or ill-formed query goal, or an edit targeting an
    /// unknown predicate. `detail` names the variant and the offender.
    Compile {
        /// Human-readable rejection, including the compiler's own
        /// error rendering (e.g. `ArityTooLarge`, `HeadArityMismatch`).
        detail: String,
    },
    /// No fixpoint within the iteration cap (Sec. 4.2 cases (i)/(ii)).
    Diverged {
        /// The cap that was hit.
        cap: usize,
        /// An atom sample plus the final step's snapshot — the same
        /// report the legacy `EvalOutcome::unwrap` panic carried.
        diagnostic: String,
        /// Telemetry at the moment the cap was hit.
        stats: Box<EvalStats>,
    },
    /// An [`EvalBudget`] ceiling other than the deadline was crossed.
    BudgetExhausted {
        /// Which ceiling.
        resource: BudgetKind,
        /// The configured limit.
        limit: u64,
        /// The observed value at the failing check.
        used: u64,
        /// Telemetry at the failing check.
        stats: Box<EvalStats>,
    },
    /// The [`EvalBudget::deadline`] passed.
    DeadlineExceeded {
        /// The configured deadline.
        deadline: Duration,
        /// Wall-clock from run start to the failing check.
        elapsed: Duration,
        /// Telemetry at the failing check.
        stats: Box<EvalStats>,
    },
    /// The run's [`CancelToken`] was cancelled.
    Cancelled {
        /// Telemetry at the failing poll.
        stats: Box<EvalStats>,
    },
    /// A worker thread panicked; the panic was contained inside the
    /// pool (it never unwinds across the scope) and the run aborted.
    WorkerPanic {
        /// The panic payload, when it was a string.
        message: String,
        /// Telemetry at the abort.
        stats: Box<EvalStats>,
    },
    /// A `Materialization` edit previously failed mid-flight; the
    /// handle refuses further edits and queries until rebuilt.
    Poisoned {
        /// What poisoned the handle (the original error, rendered).
        reason: String,
    },
}

impl EvalError {
    /// The run-phase telemetry snapshot, for the variants that carry
    /// one (compile rejections and poisoning happen outside a run).
    pub fn stats(&self) -> Option<&EvalStats> {
        match self {
            EvalError::Diverged { stats, .. }
            | EvalError::BudgetExhausted { stats, .. }
            | EvalError::DeadlineExceeded { stats, .. }
            | EvalError::Cancelled { stats }
            | EvalError::WorkerPanic { stats, .. } => Some(stats),
            EvalError::Compile { .. } | EvalError::Poisoned { .. } => None,
        }
    }

    /// A stable short tag per variant (trace events and logs key on
    /// this).
    pub fn kind(&self) -> &'static str {
        match self {
            EvalError::Compile { .. } => "compile",
            EvalError::Diverged { .. } => "diverged",
            EvalError::BudgetExhausted { .. } => "budget",
            EvalError::DeadlineExceeded { .. } => "deadline",
            EvalError::Cancelled { .. } => "cancelled",
            EvalError::WorkerPanic { .. } => "worker_panic",
            EvalError::Poisoned { .. } => "poisoned",
        }
    }

    /// One-line JSON encoding for structured logs, mirroring
    /// [`EvalStats::to_json`](super::stats::EvalStats::to_json) and
    /// using the same in-tree writer: an object tagged by an `"error"`
    /// field (the [`EvalError::kind`] tag) with a rendered `"message"`,
    /// the variant's own fields, and — for run-phase failures — a
    /// compact `"stats"` summary (strategy, steps, emits, governance
    /// counters). Round-trips through `stats::json::parse`.
    pub fn to_json(&self) -> String {
        use super::stats::json;
        let mut w = json::Writer::new();
        w.obj_open();
        w.str_field("error", self.kind());
        w.str_field("message", &self.to_string());
        match self {
            EvalError::Compile { detail } => {
                w.str_field("detail", detail);
            }
            EvalError::Diverged {
                cap, diagnostic, ..
            } => {
                w.u64_field("cap", *cap as u64);
                w.str_field("diagnostic", diagnostic);
            }
            EvalError::BudgetExhausted {
                resource,
                limit,
                used,
                ..
            } => {
                w.str_field("resource", &resource.to_string());
                w.u64_field("limit", *limit);
                w.u64_field("used", *used);
            }
            EvalError::DeadlineExceeded {
                deadline, elapsed, ..
            } => {
                w.u64_field("deadline_ms", deadline.as_millis() as u64);
                w.u64_field("elapsed_ms", elapsed.as_millis() as u64);
            }
            EvalError::Cancelled { .. } => {}
            EvalError::WorkerPanic { message, .. } => {
                w.str_field("panic", message);
            }
            EvalError::Poisoned { reason } => {
                w.str_field("reason", reason);
            }
        }
        if let Some(stats) = self.stats() {
            w.key("stats");
            w.obj_open();
            w.str_field("strategy", &stats.strategy);
            w.u64_field("steps", stats.steps);
            w.u64_field("emits", stats.counters.emits);
            w.u64_field("budget_checks", stats.counters.budget_checks);
            w.u64_field("cancel_polls", stats.counters.cancel_polls);
            w.obj_close();
        }
        w.obj_close();
        w.finish()
    }
}

impl PartialEq for EvalError {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (EvalError::Compile { detail: a }, EvalError::Compile { detail: b }) => a == b,
            (EvalError::Diverged { cap: a, .. }, EvalError::Diverged { cap: b, .. }) => a == b,
            (
                EvalError::BudgetExhausted {
                    resource: ra,
                    limit: la,
                    ..
                },
                EvalError::BudgetExhausted {
                    resource: rb,
                    limit: lb,
                    ..
                },
            ) => ra == rb && la == lb,
            (
                EvalError::DeadlineExceeded { deadline: a, .. },
                EvalError::DeadlineExceeded { deadline: b, .. },
            ) => a == b,
            (EvalError::Cancelled { .. }, EvalError::Cancelled { .. }) => true,
            (
                EvalError::WorkerPanic { message: a, .. },
                EvalError::WorkerPanic { message: b, .. },
            ) => a == b,
            (EvalError::Poisoned { reason: a }, EvalError::Poisoned { reason: b }) => a == b,
            _ => false,
        }
    }
}

impl std::fmt::Display for EvalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EvalError::Compile { detail } => {
                write!(f, "compile error: {detail}")
            }
            EvalError::Diverged {
                cap, diagnostic, ..
            } => write!(
                f,
                "datalog° evaluation diverged: no fixpoint within the \
                 iteration cap ({cap}); {diagnostic}"
            ),
            EvalError::BudgetExhausted {
                resource,
                limit,
                used,
                ..
            } => write!(
                f,
                "evaluation budget exhausted: {used} {resource} observed, limit {limit}"
            ),
            EvalError::DeadlineExceeded {
                deadline, elapsed, ..
            } => write!(
                f,
                "evaluation deadline exceeded: {elapsed:?} elapsed, deadline {deadline:?}"
            ),
            EvalError::Cancelled { .. } => write!(f, "evaluation cancelled"),
            EvalError::WorkerPanic { message, .. } => {
                write!(f, "engine worker panicked (contained): {message}")
            }
            EvalError::Poisoned { reason } => write!(
                f,
                "materialization is poisoned by an earlier failed edit \
                 (rebuild() to recover): {reason}"
            ),
        }
    }
}

impl std::error::Error for EvalError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cancel_token_flips_shared_state_across_clones() {
        let token = CancelToken::new();
        let peer = token.clone();
        assert!(!peer.is_cancelled());
        token.cancel();
        assert!(peer.is_cancelled());
    }

    #[test]
    fn budget_builder_sets_each_ceiling() {
        let b = EvalBudget::unlimited()
            .with_deadline(Duration::from_millis(5))
            .with_max_steps(7)
            .with_max_rows(11)
            .with_max_minted(13);
        assert!(b.is_limited());
        assert_eq!(b.deadline, Some(Duration::from_millis(5)));
        assert_eq!(b.max_steps, Some(7));
        assert_eq!(b.max_rows, Some(11));
        assert_eq!(b.max_minted, Some(13));
        assert!(!EvalBudget::unlimited().is_limited());
    }

    #[test]
    fn equality_ignores_stats_but_not_limits() {
        let a = EvalError::BudgetExhausted {
            resource: BudgetKind::Steps,
            limit: 3,
            used: 4,
            stats: Box::new(EvalStats {
                steps: 99,
                ..EvalStats::default()
            }),
        };
        let b = EvalError::BudgetExhausted {
            resource: BudgetKind::Steps,
            limit: 3,
            used: 8,
            stats: Box::default(),
        };
        let c = EvalError::BudgetExhausted {
            resource: BudgetKind::Rows,
            limit: 3,
            used: 4,
            stats: Box::default(),
        };
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn error_json_round_trips_and_tags_the_kind() {
        use super::super::stats::json;
        let e = EvalError::BudgetExhausted {
            resource: BudgetKind::Rows,
            limit: 64,
            used: 91,
            stats: Box::new(EvalStats {
                strategy: "priority".into(),
                steps: 12,
                ..EvalStats::default()
            }),
        };
        let parsed = json::parse(&e.to_json()).expect("valid JSON");
        assert_eq!(parsed.get("error").unwrap().as_str(), Some("budget"));
        assert_eq!(
            parsed.get("resource").unwrap().as_str(),
            Some("emitted rows")
        );
        assert_eq!(parsed.get("limit").unwrap().as_u64(), Some(64));
        assert_eq!(parsed.get("used").unwrap().as_u64(), Some(91));
        let stats = parsed.get("stats").expect("stats summary");
        assert_eq!(stats.get("strategy").unwrap().as_str(), Some("priority"));
        assert_eq!(stats.get("steps").unwrap().as_u64(), Some(12));

        // Variants without a run: no stats object, kind still tagged.
        let p = EvalError::Poisoned {
            reason: "edit failed".into(),
        };
        let parsed = json::parse(&p.to_json()).expect("valid JSON");
        assert_eq!(parsed.get("error").unwrap().as_str(), Some("poisoned"));
        assert!(parsed.get("stats").is_none());
        let msg = parsed.get("message").unwrap().as_str().unwrap();
        assert!(msg.contains("rebuild()"), "got: {msg}");
    }

    #[test]
    fn display_names_the_failure() {
        let e = EvalError::DeadlineExceeded {
            deadline: Duration::from_millis(50),
            elapsed: Duration::from_millis(80),
            stats: Box::default(),
        };
        let text = e.to_string();
        assert!(text.contains("deadline exceeded"), "got: {text}");
        assert_eq!(e.kind(), "deadline");
        assert!(e.stats().is_some());
        let p = EvalError::Poisoned {
            reason: "boom".into(),
        };
        assert!(p.to_string().contains("rebuild()"), "got: {p}");
        assert!(p.stats().is_none());
    }
}
