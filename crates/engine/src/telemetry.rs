//! The engine-side telemetry collector: accumulates the
//! [`EvalStats`] every driver returns and streams [`TraceEvent`]s to
//! an optional sink while the run executes.
//!
//! One [`Collector`] lives for the duration of one evaluation. The
//! drivers feed it:
//!
//! * per-plan [`crate::exec::ExecCounters`] plus wall-clock, keyed by
//!   [`crate::plan::Plan::pid`] (the counter totals are functions of
//!   the program and its input, only `time_ns` is not);
//! * per-iteration/per-batch [`IterStat`] snapshots, derived from
//!   counter deltas around each step;
//! * phase timings (setup is measured by the entry points and passed
//!   in, and so is the EDB load inside it, measured by
//!   [`crate::driver::setup`]; EDB index build, mint, and eval are
//!   measured by the loops;
//!   decode by [`crate::output::InternedOutcome::materialize`]).
//!
//! Tracing resolves from [`crate::driver::EngineOpts::trace`], falling
//! back to the `DLO_TRACE` environment variable (a JSONL path, opened
//! in append mode). The collector emits every event from the thread
//! that runs the fixpoint, so sinks never see concurrent calls.

use crate::driver::EngineOpts;
use crate::exec::ExecCounters;
use crate::plan::PlanMeta;
use dlo_core::eval::stats::{
    Counters, EvalStats, IterStat, JsonlSink, RuleProfile, TraceEvent, TraceHandle,
};

/// Per-run stats accumulator + trace emitter (see module docs).
pub(crate) struct Collector {
    /// The stats under construction; the loops add counters directly.
    pub stats: EvalStats,
    /// Per-pid aggregation, folded into [`EvalStats::rules`] on finish.
    per_plan: Vec<(ExecCounters, u64)>,
    metas: Vec<PlanMeta>,
    trace: Option<TraceHandle>,
}

/// Resolves the active trace handle: an explicit [`TraceHandle`] on
/// the options wins; otherwise `DLO_TRACE=<path>` appends JSONL to
/// `<path>`; otherwise tracing is off.
fn resolve_trace(opts_trace: Option<&TraceHandle>) -> Option<TraceHandle> {
    if let Some(handle) = opts_trace {
        return Some(handle.clone());
    }
    let path = std::env::var_os("DLO_TRACE")?;
    if path.is_empty() {
        return None;
    }
    JsonlSink::create(std::path::Path::new(&path))
        .ok()
        .map(TraceHandle::new)
}

impl Collector {
    /// Starts collection for one run: records the resolved strategy,
    /// thread count, setup time and the part of it spent loading the
    /// EDB, and emits `RunStart` (plus the setup `Phase` event) to the
    /// trace.
    pub fn new(
        strategy: &str,
        threads: usize,
        setup_ns: u64,
        load_ns: u64,
        metas: Vec<PlanMeta>,
        opts: &EngineOpts,
    ) -> Collector {
        let mut stats = EvalStats {
            strategy: strategy.to_string(),
            threads: threads as u64,
            ..EvalStats::default()
        };
        stats.phases.setup = setup_ns;
        stats.phases.load = load_ns;
        let trace = resolve_trace(opts.trace.as_ref());
        if let Some(t) = &trace {
            t.emit(&TraceEvent::RunStart {
                strategy: strategy.to_string(),
                threads: threads as u64,
            });
            t.emit(&TraceEvent::Phase {
                name: "setup".to_string(),
                nanos: setup_ns,
            });
        }
        let per_plan = vec![(ExecCounters::default(), 0u64); metas.len()];
        Collector {
            stats,
            per_plan,
            metas,
            trace,
        }
    }

    /// Records the EDB index-build phase: the `arrange` leg of
    /// [`dlo_core::eval::stats::PhaseNanos`] when the build sorted
    /// something (hash builds beside it ride along), `edb_index`
    /// otherwise.
    pub fn index_phase(&mut self, sorted: bool, nanos: u64) {
        let phases = &mut self.stats.phases;
        let (name, total) = match sorted {
            true => ("arrange", &mut phases.arrange),
            false => ("edb_index", &mut phases.edb_index),
        };
        *total += nanos;
        if let Some(t) = &self.trace {
            let name = name.to_string();
            t.emit(&TraceEvent::Phase { name, nanos });
        }
    }

    /// Attributes one plan execution's counters and wall-clock to its
    /// pid, and adds the counters to the whole-run totals.
    pub fn add_plan(&mut self, pid: usize, counters: ExecCounters, nanos: u64) {
        let (acc, ns) = &mut self.per_plan[pid];
        acc.add(&counters);
        *ns += nanos;
        self.stats.counters.emits += counters.emits;
        self.stats.counters.fresh_emits += counters.fresh_emits;
        self.stats.counters.index_probes += counters.probes;
        self.stats.counters.merge_join_steps += counters.merge_probes;
        self.stats.counters.hash_join_steps += counters.hash_probes;
        self.stats.counters.tuples_scanned += counters.scanned;
    }

    /// Completes one iteration/batch: computes the snapshot from the
    /// counter delta since `before`, pushes it (cap-aware), and streams
    /// it to the trace.
    pub fn end_step(&mut self, step: usize, delta_rows: u64, queue_depth: u64, before: &Counters) {
        self.stats.counters.delta_rows += delta_rows;
        let d = self.stats.counters.since(before);
        let it = IterStat {
            step: step as u64,
            delta_rows,
            queue_depth,
            emits: d.emits,
            fresh_emits: d.fresh_emits,
            inserted: d.rows_inserted,
            improved: d.rows_improved,
            absorbed: d.merges_absorbed,
            minted: d.minted_ids,
        };
        self.stats.push_iteration(it);
        if let Some(t) = &self.trace {
            t.emit(&TraceEvent::Iteration(it));
        }
    }

    /// Streams the abort event of a governed stop (budget, deadline,
    /// cancellation, or contained worker panic). `granularity` names
    /// the checkpoint that detected the stop (`"phase"`,
    /// `"iteration"`, `"generation"`, or `"bucket"`); `settled_rows`
    /// is the number of rows provably settled at that moment (exact
    /// under the priority strategy, 0 elsewhere). Always followed by
    /// the `RunEnd { converged: false }` that [`Collector::finish`]
    /// emits, so JSONL sinks flush exactly as on a normal run.
    pub fn abort(&mut self, reason: &str, granularity: &str, settled_rows: u64, steps: usize) {
        if let Some(t) = &self.trace {
            t.emit(&TraceEvent::Abort {
                reason: reason.to_string(),
                steps: steps as u64,
                granularity: granularity.to_string(),
                settled_rows,
            });
        }
    }

    /// Finishes the run: stamps steps and the eval-loop wall-clock,
    /// folds the per-pid aggregation into [`EvalStats::rules`], emits
    /// `RunEnd`, and returns the completed stats.
    pub fn finish(mut self, steps: usize, converged: bool, eval_ns: u64) -> EvalStats {
        self.stats.steps = steps as u64;
        self.stats.phases.eval = eval_ns.saturating_sub(self.stats.phases.mint);
        self.stats.rules = self
            .per_plan
            .iter()
            .zip(&self.metas)
            .map(|(&(c, ns), meta)| RuleProfile {
                rule: meta.rule_idx as u64,
                label: meta.label.clone(),
                kind: meta.kind.to_string(),
                join: meta.join.to_string(),
                emits: c.emits,
                fresh_emits: c.fresh_emits,
                probes: c.probes,
                scanned: c.scanned,
                time_ns: ns,
            })
            .collect();
        if let Some(t) = &self.trace {
            t.emit(&TraceEvent::RunEnd {
                steps: steps as u64,
                converged,
            });
        }
        self.stats
    }
}
