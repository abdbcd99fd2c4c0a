//! Typed evaluation failures and resource governance: the
//! [`EvalError`] every public entry point fails with, the inputs that
//! govern a run ([`EvalBudget`], [`CancelToken`]), and the checkpoint
//! machinery that turns an interrupted run into an error.
//!
//! Every public evaluation entry point fails **as a value**: compile
//! rejections, budget and deadline exhaustion, cancellation, contained
//! worker panics, and poisoned materializations all arrive through
//! [`EvalError`], so a long-lived process (the ROADMAP's query server)
//! can absorb a hostile or merely non-convergent query without coming
//! down. Run-phase errors carry the final [`EvalStats`] snapshot of the
//! run they stopped. A budget-interrupted accumulation is not a
//! fixpoint, so the error never masquerades as answers; degraded
//! answers are a separate, explicitly labelled surface: the
//! [`PartialOutput`](crate::output::PartialOutput) that rides next to
//! the error in an [`AbortedEval`](crate::output::AbortedEval), marked
//! per key as settled (exact under the priority strategy's
//! settled-on-pop invariant) or merely a lower bound. Escalation is
//! the caller's: rerun with a larger [`EvalBudget`].
//!
//! A [`Governor`] is created by each driver right next to its
//! [`Collector`] and consulted at every loop checkpoint — the
//! **phase** boundaries (before the EDB index build and at the seed
//! round), each naïve/semi-naïve **iteration** top, each FIFO worklist
//! **generation**, and each priority-frontier **bucket** pop. A
//! post-merge re-check would be redundant: the very next loop-top
//! checkpoint fires before any further join work starts. All
//! checks run on the coordinating thread — never inside the per-tuple
//! loops — so governance costs a couple of branches plus at most one
//! `Instant::now()` per checkpoint and the hot paths stay untouched.
//! The checks increment the `budget_checks` / `cancel_polls` counters,
//! which are therefore thread-invariant like every other counter, and
//! stay `0` when governance is off.
//!
//! A failed check is the [`EvalError`] itself, with empty stats; the
//! run's abort tail, [`abort_error`], emits a
//! [`TraceEvent::Abort`](crate::TraceEvent) whose `reason` is the
//! error's `Display`, tagged with the [`Checkpoint`] granularity that
//! fired and the settled-row count, then the usual
//! `RunEnd { converged: false }` (so JSONL sinks flush), and puts the
//! completed stats into the error.

use crate::driver::EngineOpts;
use crate::telemetry::Collector;
use dlo_core::eval::stats::EvalStats;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

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
/// [`EvalOutcome`](dlo_core::EvalOutcome) equality.
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
    /// Only a [`Materialization`](crate::Materialization) build or edit
    /// fails this way; a one-shot run returns `Ok` with
    /// [`InternedOutcome::Diverged`](crate::InternedOutcome::Diverged).
    Diverged {
        /// The cap that was hit.
        cap: usize,
        /// What did not converge, in words.
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

    /// A stable short tag per variant, for callers and logs that
    /// branch on the kind of failure.
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

/// The loop granularity at which a governance checkpoint fired —
/// recorded on the abort trace event so a trace shows whether a stop
/// was caught at a coarse boundary (a whole seed phase blown past the
/// deadline) or mid-loop (one bucket over).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Checkpoint {
    /// A non-loop boundary: the seed phase before the first iteration.
    Phase,
    /// A naïve / semi-naïve global iteration.
    Iteration,
    /// A FIFO worklist generation.
    Generation,
    /// A priority-frontier bucket pop.
    Bucket,
}

impl Checkpoint {
    pub(crate) fn as_str(self) -> &'static str {
        match self {
            Checkpoint::Phase => "phase",
            Checkpoint::Iteration => "iteration",
            Checkpoint::Generation => "generation",
            Checkpoint::Bucket => "bucket",
        }
    }
}

/// Per-run governance state: the budget, the optional cancel token, and
/// the run's start instant (backdated by `setup_ns` so the deadline
/// covers compile/intern time too, as documented on
/// [`EvalBudget::deadline`]).
pub(crate) struct Governor {
    budget: EvalBudget,
    cancel: Option<CancelToken>,
    start: Instant,
    limited: bool,
}

impl Governor {
    pub(crate) fn new(opts: &EngineOpts, setup_ns: u64) -> Governor {
        let now = Instant::now();
        Governor {
            budget: opts.budget.clone(),
            cancel: opts.cancel.clone(),
            start: now
                .checked_sub(Duration::from_nanos(setup_ns))
                .unwrap_or(now),
            limited: opts.budget.is_limited(),
        }
    }

    /// One phase-boundary check. `steps` is the number of phases the
    /// driver has **completed** (in its own step semantics: global
    /// iterations, generations, or frontier batches); a step budget of
    /// `n` therefore allows at most `n` phases to run. Row and minted-id
    /// ceilings compare the live counters the same way (`used ≥ limit`
    /// aborts), so a run stops within one phase of crossing a line —
    /// never mid-merge. Increments `cancel_polls` / `budget_checks` so
    /// governed runs are auditable from their stats alone. A failed
    /// check returns the error with empty stats: [`abort_error`] fills
    /// them in once the run's collector is finished.
    #[inline]
    pub(crate) fn check(&self, steps: u64, col: &mut Collector) -> Result<(), EvalError> {
        if let Some(token) = &self.cancel {
            col.stats.counters.cancel_polls += 1;
            if token.is_cancelled() {
                return Err(EvalError::Cancelled {
                    stats: Box::default(),
                });
            }
        }
        if !self.limited {
            return Ok(());
        }
        col.stats.counters.budget_checks += 1;
        if let Some(deadline) = self.budget.deadline {
            let elapsed = self.start.elapsed();
            if elapsed > deadline {
                return Err(EvalError::DeadlineExceeded {
                    deadline,
                    elapsed,
                    stats: Box::default(),
                });
            }
        }
        let c = &col.stats.counters;
        for (limit, resource, used) in [
            (self.budget.max_steps, BudgetKind::Steps, steps),
            (self.budget.max_rows, BudgetKind::Rows, c.emits),
            (self.budget.max_minted, BudgetKind::MintedIds, c.minted_ids),
        ] {
            if let Some(limit) = limit.filter(|&limit| used >= limit) {
                return Err(EvalError::BudgetExhausted {
                    resource,
                    limit,
                    used,
                    stats: Box::default(),
                });
            }
        }
        Ok(())
    }
}

/// The shared abort tail of every driver: emits the `Abort` trace event
/// (the error's `Display` as its reason, tagged with the [`Checkpoint`]
/// granularity that fired and the settled-row count, then `RunEnd` via
/// [`Collector::finish`], so sinks flush), completes the stats, and
/// puts them into the error.
pub(crate) fn abort_error(
    mut error: EvalError,
    checkpoint: Checkpoint,
    settled_rows: u64,
    mut col: Collector,
    steps: usize,
    eval_ns: u64,
) -> EvalError {
    col.abort(&error.to_string(), checkpoint.as_str(), settled_rows, steps);
    let finished = col.finish(steps, false, eval_ns);
    if let EvalError::BudgetExhausted { stats, .. }
    | EvalError::DeadlineExceeded { stats, .. }
    | EvalError::Cancelled { stats }
    | EvalError::WorkerPanic { stats, .. } = &mut error
    {
        **stats = finished;
    }
    error
}

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

    fn collector() -> Collector {
        Collector::new("test", 1, 0, 0, vec![], &EngineOpts::default())
    }

    #[test]
    fn ungoverned_checks_are_free_and_count_nothing() {
        let gov = Governor::new(&EngineOpts::default(), 0);
        let mut col = collector();
        for s in 0..100 {
            assert!(gov.check(s, &mut col).is_ok());
        }
        assert_eq!(col.stats.counters.budget_checks, 0);
        assert_eq!(col.stats.counters.cancel_polls, 0);
    }

    #[test]
    fn step_budget_allows_exactly_that_many_phases() {
        let opts = EngineOpts {
            budget: EvalBudget::unlimited().with_max_steps(3),
            ..EngineOpts::default()
        };
        let gov = Governor::new(&opts, 0);
        let mut col = collector();
        for s in 0..3 {
            assert!(gov.check(s, &mut col).is_ok(), "phase {s} allowed");
        }
        match gov.check(3, &mut col) {
            Err(EvalError::BudgetExhausted {
                resource: BudgetKind::Steps,
                limit: 3,
                used: 3,
                ..
            }) => {}
            _ => panic!("step 3 must exhaust a 3-step budget"),
        }
        assert_eq!(col.stats.counters.budget_checks, 4);
    }

    #[test]
    fn cancellation_wins_over_budgets_and_is_polled() {
        let token = CancelToken::new();
        let opts = EngineOpts {
            budget: EvalBudget::unlimited().with_max_steps(0),
            cancel: Some(token.clone()),
            ..EngineOpts::default()
        };
        let gov = Governor::new(&opts, 0);
        let mut col = collector();
        token.cancel();
        assert!(matches!(
            gov.check(0, &mut col),
            Err(EvalError::Cancelled { .. })
        ));
        assert_eq!(col.stats.counters.cancel_polls, 1);
        // The poll short-circuits before any budget check.
        assert_eq!(col.stats.counters.budget_checks, 0);
    }

    #[test]
    fn backdated_deadline_covers_setup_time() {
        let opts = EngineOpts {
            budget: EvalBudget::unlimited().with_deadline(Duration::from_millis(1)),
            ..EngineOpts::default()
        };
        // Pretend setup took 10ms: the deadline is already blown.
        let gov = Governor::new(&opts, 10_000_000);
        let mut col = collector();
        assert!(matches!(
            gov.check(0, &mut col),
            Err(EvalError::DeadlineExceeded { .. })
        ));
    }

    #[test]
    fn abort_reason_names_the_cause() {
        use crate::telemetry::{MemorySink, TraceEvent, TraceHandle};
        let sink = MemorySink::default();
        let opts = EngineOpts {
            budget: EvalBudget::unlimited().with_max_rows(5),
            trace: Some(TraceHandle::new(sink.clone())),
            ..EngineOpts::default()
        };
        let gov = Governor::new(&opts, 0);
        let mut col = Collector::new("test", 1, 0, 0, vec![], &opts);
        col.stats.counters.emits = 9;
        let error = gov.check(4, &mut col).expect_err("9 rows exhaust 5");
        assert_eq!(
            error.stats().map(|s| s.steps),
            Some(0),
            "empty until the tail"
        );
        let error = abort_error(error, Checkpoint::Bucket, 3, col, 4, 0);
        let reason = error.to_string();
        assert!(reason.contains("9 emitted rows"), "{reason}");
        let stats = error.stats().expect("a run-phase error");
        assert_eq!((stats.steps, stats.counters.emits), (4, 9));
        let events = sink.events();
        assert_eq!(
            events[events.len() - 2..],
            [
                TraceEvent::Abort {
                    reason,
                    steps: 4,
                    granularity: "bucket".into(),
                    settled_rows: 3,
                },
                TraceEvent::RunEnd {
                    steps: 4,
                    converged: false,
                },
            ]
        );
    }
}
