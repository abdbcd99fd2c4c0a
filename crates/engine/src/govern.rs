//! Resource governance for the evaluation drivers: checkpointed
//! budget checks, cancellation polls, and the shared abort tail that
//! turns an interrupted run into a typed [`EvalError`].
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
//! stay `0` when governance is off. Which checkpoint detected a stop
//! is recorded as the [`Checkpoint`] granularity on the abort trace
//! event, so traces distinguish a deadline caught at a coarse boundary
//! from one caught mid-loop.
//!
//! An interrupted run flows through [`abort_error`]: the collector
//! emits a [`TraceEvent::Abort`](dlo_core::eval::stats::TraceEvent)
//! (tagged with the checkpoint granularity and the settled-row count)
//! followed by the usual `RunEnd { converged: false }` (so JSONL sinks
//! flush), and the completed [`EvalStats`] snapshot rides inside the
//! returned error. The partially evaluated instance itself is no
//! longer dropped: the drivers capture it as a
//! [`PartialOutput`](crate::output::PartialOutput) next to the error —
//! exact on the settled frontier under the priority strategy, a
//! best-effort lower bound elsewhere.

use crate::driver::EngineOpts;
use crate::telemetry::Collector;
use dlo_core::eval::stats::EvalStats;
use dlo_core::eval::{BudgetKind, CancelToken, EvalBudget, EvalError};
use std::time::{Duration, Instant};

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

/// Why a governed run stopped early — the driver-internal precursor of
/// the run-phase [`EvalError`] variants ([`abort_error`] adds the final
/// stats snapshot once the collector is finished).
pub(crate) enum Abort {
    /// An [`EvalBudget`] ceiling other than the deadline was reached.
    Budget {
        resource: BudgetKind,
        limit: u64,
        used: u64,
    },
    /// The wall-clock deadline passed.
    Deadline {
        deadline: Duration,
        elapsed: Duration,
    },
    /// The run's [`CancelToken`] was flipped.
    Cancelled,
    /// An index build panicked inside the pool (contained by
    /// [`crate::par`]) or a plan did on the coordinating thread
    /// (contained by `driver::run_plans_inline`).
    WorkerPanic { message: String },
}

impl Abort {
    /// The `reason` string of the emitted
    /// [`TraceEvent::Abort`](dlo_core::eval::stats::TraceEvent).
    pub(crate) fn reason(&self) -> String {
        match self {
            Abort::Budget {
                resource,
                limit,
                used,
            } => format!("budget: {used} {resource} observed, limit {limit}"),
            Abort::Deadline { deadline, elapsed } => {
                format!("deadline: {elapsed:?} elapsed, deadline {deadline:?}")
            }
            Abort::Cancelled => "cancelled".to_string(),
            Abort::WorkerPanic { message } => format!("worker panic: {message}"),
        }
    }

    /// Attaches the finished stats snapshot, producing the public error.
    pub(crate) fn into_error(self, stats: EvalStats) -> EvalError {
        let stats = Box::new(stats);
        match self {
            Abort::Budget {
                resource,
                limit,
                used,
            } => EvalError::BudgetExhausted {
                resource,
                limit,
                used,
                stats,
            },
            Abort::Deadline { deadline, elapsed } => EvalError::DeadlineExceeded {
                deadline,
                elapsed,
                stats,
            },
            Abort::Cancelled => EvalError::Cancelled { stats },
            Abort::WorkerPanic { message } => EvalError::WorkerPanic { message, stats },
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
    /// governed runs are auditable from their stats alone.
    #[inline]
    pub(crate) fn check(&self, steps: u64, col: &mut Collector) -> Result<(), Abort> {
        if let Some(token) = &self.cancel {
            col.stats.counters.cancel_polls += 1;
            if token.is_cancelled() {
                return Err(Abort::Cancelled);
            }
        }
        if !self.limited {
            return Ok(());
        }
        col.stats.counters.budget_checks += 1;
        if let Some(deadline) = self.budget.deadline {
            let elapsed = self.start.elapsed();
            if elapsed > deadline {
                return Err(Abort::Deadline { deadline, elapsed });
            }
        }
        if let Some(limit) = self.budget.max_steps {
            if steps >= limit {
                return Err(Abort::Budget {
                    resource: BudgetKind::Steps,
                    limit,
                    used: steps,
                });
            }
        }
        if let Some(limit) = self.budget.max_rows {
            let used = col.stats.counters.emits;
            if used >= limit {
                return Err(Abort::Budget {
                    resource: BudgetKind::Rows,
                    limit,
                    used,
                });
            }
        }
        if let Some(limit) = self.budget.max_minted {
            let used = col.stats.counters.minted_ids;
            if used >= limit {
                return Err(Abort::Budget {
                    resource: BudgetKind::MintedIds,
                    limit,
                    used,
                });
            }
        }
        Ok(())
    }
}

/// The shared abort tail of every driver: emits the `Abort` trace event
/// (tagged with the [`Checkpoint`] granularity that fired and the
/// settled-row count, then `RunEnd` via [`Collector::finish`], so sinks
/// flush), completes the stats, and wraps them into the typed error.
pub(crate) fn abort_error(
    abort: Abort,
    checkpoint: Checkpoint,
    settled_rows: u64,
    mut col: Collector,
    steps: usize,
    eval_ns: u64,
) -> EvalError {
    col.abort(&abort.reason(), checkpoint.as_str(), settled_rows, steps);
    let stats = col.finish(steps, false, eval_ns);
    abort.into_error(stats)
}

#[cfg(test)]
mod tests {
    use super::*;

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
            Err(Abort::Budget {
                resource: BudgetKind::Steps,
                limit: 3,
                used: 3,
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
        assert!(matches!(gov.check(0, &mut col), Err(Abort::Cancelled)));
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
            Err(Abort::Deadline { .. })
        ));
    }

    #[test]
    fn abort_reason_names_the_cause() {
        assert_eq!(Abort::Cancelled.reason(), "cancelled");
        let b = Abort::Budget {
            resource: BudgetKind::Rows,
            limit: 5,
            used: 9,
        };
        assert!(b.reason().contains("emitted rows"), "{}", b.reason());
        let w = Abort::WorkerPanic {
            message: "boom".into(),
        };
        assert!(w.reason().contains("boom"));
        assert!(matches!(
            w.into_error(EvalStats::default()),
            EvalError::WorkerPanic { .. }
        ));
    }
}
