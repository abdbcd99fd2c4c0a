//! Retry with deterministic budget escalation: run under a budget
//! class, and when the run is stopped by a **recoverable** governance
//! limit (budget ceiling or deadline — not cancellation, divergence, or
//! a worker panic), climb one rung up the [`BudgetClass`] ladder and
//! try again, **warm-started** from the aborted attempt.
//!
//! The warm start reuses the aborted attempt's interner as the next
//! attempt's starting vocabulary (the interned-EDB chaining path), so a
//! retry never re-interns the constants the failed attempt already
//! minted and every attempt of a ladder resolves the same constant to
//! the same id. The fixpoint itself is recomputed from the EDB — the
//! partial IDB values are *not* injected as seeds, which keeps every
//! successful attempt **bit-identical to a cold ungoverned run** at any
//! thread count (the property `tests/robustness.rs` pins); the saved
//! work is the interner and the caller-visible id stability.
//!
//! Escalation is deterministic: the ladder of budgets is fixed up
//! front ([`RetryPolicy::from_class`] takes it from
//! [`BudgetClass::ladder`]), each recoverable abort consumes exactly
//! one rung, and the optional backoff hook observes the attempt index
//! without influencing the schedule — sleeping (or jittering) between
//! rungs is the caller's business, never the engine's.

use crate::driver::{engine_eval_interned, engine_eval_interned_edb, EngineOpts, Schedule};
use crate::output::{AbortedEval, InternedOutcome};
use dlo_core::ast::Program;
use dlo_core::eval::{BudgetClass, EvalBudget, EvalError};
use dlo_core::relation::{BoolDatabase, Database};
use dlo_pops::Pops;

/// The escalation schedule for [`eval_with_retry`]: an ordered ladder
/// of budgets (attempt `i` runs under `ladder[i]`), a cap on attempts,
/// and an optional between-attempts backoff hook.
pub struct RetryPolicy {
    ladder: Vec<EvalBudget>,
    max_attempts: usize,
    backoff: Option<Box<dyn FnMut(usize) + Send>>,
}

impl std::fmt::Debug for RetryPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RetryPolicy")
            .field("ladder", &self.ladder)
            .field("max_attempts", &self.max_attempts)
            .field("backoff", &self.backoff.is_some())
            .finish()
    }
}

impl RetryPolicy {
    /// The ladder starting at `class` and climbing to `Unbounded`
    /// (e.g. `Interactive` → 3 attempts: interactive, batch, unbounded).
    pub fn from_class(class: BudgetClass) -> RetryPolicy {
        let ladder = class.ladder();
        RetryPolicy {
            max_attempts: ladder.len(),
            ladder,
            backoff: None,
        }
    }

    /// An explicit budget ladder (must be non-empty; attempts beyond
    /// its length reuse the last rung up to `max_attempts`).
    pub fn with_ladder(mut self, ladder: Vec<EvalBudget>) -> RetryPolicy {
        assert!(
            !ladder.is_empty(),
            "retry ladder must have at least one rung"
        );
        self.max_attempts = self.max_attempts.max(ladder.len());
        self.ladder = ladder;
        self
    }

    /// Caps the total number of attempts (clamped to at least 1).
    pub fn with_max_attempts(mut self, max_attempts: usize) -> RetryPolicy {
        self.max_attempts = max_attempts.max(1);
        self
    }

    /// Installs a hook called before each retry with the index of the
    /// attempt about to start (so `1` precedes the first retry). The
    /// engine never sleeps on its own: put `std::thread::sleep` (or
    /// nothing) here.
    pub fn with_backoff(mut self, hook: impl FnMut(usize) + Send + 'static) -> RetryPolicy {
        self.backoff = Some(Box::new(hook));
        self
    }

    fn budget_for(&self, attempt: usize) -> EvalBudget {
        self.ladder
            .get(attempt)
            .unwrap_or_else(|| self.ladder.last().expect("non-empty ladder"))
            .clone()
    }
}

/// One attempt's outcome inside a [`RetryReport`].
#[derive(Clone, Debug)]
pub struct AttemptLog {
    /// The budget this attempt ran under.
    pub budget: EvalBudget,
    /// `"converged"`, `"diverged"`, or the error kind that stopped the
    /// attempt (`"deadline"`, `"budget"`, …).
    pub outcome: String,
    /// Settled rows of the attempt's partial at abort (0 on success).
    pub settled_rows: u64,
    /// Steps completed (loop phases in the driver's own semantics).
    pub steps: u64,
    /// Whether the attempt was warm-started from a previous partial's
    /// interner (always `false` for attempt 0).
    pub warm_start: bool,
}

/// The per-attempt audit trail of an [`eval_with_retry`] run, returned
/// next to the final outcome (or inside the [`RetryFailure`]).
#[derive(Clone, Debug, Default)]
pub struct RetryReport {
    /// One entry per attempt, in order.
    pub attempts: Vec<AttemptLog>,
}

impl RetryReport {
    /// Total attempts made.
    pub fn attempts_made(&self) -> usize {
        self.attempts.len()
    }
}

/// All rungs exhausted (or a non-recoverable error): the last attempt's
/// [`AbortedEval`] — error plus abort-time partial — with the audit
/// trail of every attempt before it.
#[derive(Debug)]
pub struct RetryFailure<P> {
    /// The final attempt's error and partial state.
    pub last: Box<AbortedEval<P>>,
    /// What was tried, in order.
    pub report: RetryReport,
}

impl<P: Pops> RetryFailure<P> {
    /// The typed error of the last attempt.
    pub fn error(&self) -> &EvalError {
        self.last.error()
    }
}

impl<P: Pops> std::fmt::Display for RetryFailure<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} (after {} attempt(s))",
            self.last.error(),
            self.report.attempts.len()
        )
    }
}

impl<P: Pops> From<RetryFailure<P>> for EvalError {
    fn from(failure: RetryFailure<P>) -> EvalError {
        EvalError::from(failure.last)
    }
}

/// Whether escalating the budget can help: only budget ceilings and
/// deadlines are recoverable — cancellation is a caller's decision,
/// divergence and compile errors never improve with more budget, and a
/// worker panic is a bug to surface.
fn recoverable(error: &EvalError) -> bool {
    matches!(error.kind(), "budget" | "deadline")
}

/// Evaluates `program` under `policy`'s budget ladder: attempt 0 runs
/// cold under `ladder[0]`, and every recoverable governed abort climbs
/// one rung and retries warm-started from the aborted attempt's
/// interner (see the module docs — the result is still bit-identical to
/// a cold run). `base_opts` carries everything but the budget (threads,
/// trace sink, cancel token); the ladder overrides the budget per
/// attempt.
///
/// # Errors
///
/// [`RetryFailure`] when the rungs are exhausted or an attempt stops
/// for a non-recoverable reason (compile error, divergence-as-error,
/// cancellation, worker panic) — carrying the last attempt's partial
/// state and the full per-attempt report.
#[allow(clippy::type_complexity)]
pub fn eval_with_retry<P, S>(
    program: &Program<P>,
    pops_edb: &Database<P>,
    bool_edb: &BoolDatabase,
    cap: usize,
    schedule: S,
    base_opts: &EngineOpts,
    mut policy: RetryPolicy,
) -> Result<(InternedOutcome<P>, RetryReport), RetryFailure<P>>
where
    P: Pops,
    S: Schedule<P>,
{
    let mut report = RetryReport::default();
    let mut warm: Option<Box<AbortedEval<P>>> = None;
    for attempt in 0..policy.max_attempts {
        let budget = policy.budget_for(attempt);
        let opts = EngineOpts {
            budget: budget.clone(),
            ..base_opts.clone()
        };
        if attempt > 0 {
            if let Some(hook) = policy.backoff.as_mut() {
                hook(attempt);
            }
        }
        let ran = match &warm {
            None => engine_eval_interned(program, pops_edb, bool_edb, cap, schedule, &opts),
            Some(prev) => engine_eval_interned_edb(
                program,
                prev.partial().interned(),
                pops_edb,
                bool_edb,
                cap,
                schedule,
                &opts,
            ),
        };
        match ran {
            Ok(outcome) => {
                report.attempts.push(AttemptLog {
                    budget,
                    outcome: if outcome.is_converged() {
                        "converged".to_string()
                    } else {
                        "diverged".to_string()
                    },
                    settled_rows: 0,
                    steps: outcome.stats().steps,
                    warm_start: attempt > 0,
                });
                return Ok((outcome, report));
            }
            Err(aborted) => {
                let error = aborted.error();
                report.attempts.push(AttemptLog {
                    budget,
                    outcome: error.kind().to_string(),
                    settled_rows: aborted.partial().settled().settled_rows(),
                    steps: error.stats().map_or(0, |s| s.steps),
                    warm_start: attempt > 0,
                });
                if !recoverable(error) || attempt + 1 >= policy.max_attempts {
                    return Err(RetryFailure {
                        last: aborted,
                        report,
                    });
                }
                warm = Some(aborted);
            }
        }
    }
    unreachable!("max_attempts ≥ 1: the loop returns from its last iteration")
}
