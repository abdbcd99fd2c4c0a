//! Run telemetry on the engine side: the structured [`TraceEvent`]s a
//! run streams while it executes, the sinks that receive them, and the
//! collector that accumulates the [`EvalStats`] every driver returns.
//!
//! A [`TraceSink`] receives the events: [`JsonlSink`] appends one JSON
//! object per line to a file (the `DLO_TRACE=out.jsonl` quick-start,
//! written with `dlo_core`'s `stats::json` writer), [`MemorySink`]
//! buffers them for tests, and a [`TraceHandle`] shares one sink with
//! the engine through [`crate::driver::EngineOpts::trace`].
//!
//! One [`Collector`] lives for the duration of one evaluation. The
//! drivers feed it:
//!
//! * per-plan [`crate::exec::ExecCounters`] and run counts plus
//!   wall-clock, keyed by [`crate::plan::Plan::pid`] (the counter
//!   totals are functions of the program and its input, only `time_ns`
//!   is not). The clock is sampled ([`Collector::plan_clock`]): a step
//!   of one Δ row runs its plans in well under a microsecond, so a
//!   clock pair per run would be a sixth of such a run's eval phase;
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
//! in append mode). The collector emits every event from the calling
//! thread, so sinks never see concurrent calls: a fixpoint that runs in
//! shards gives each shard a collector of its own that streams nothing
//! ([`Collector::shard`]) and keeps its step rows, and the run's
//! collector takes in their counters and tallies
//! ([`Collector::absorb`]) and streams the merged rows once the shards
//! are done.

use crate::driver::EngineOpts;
use crate::exec::ExecCounters;
use crate::plan::PlanMeta;
use dlo_core::eval::stats::{json, Counters, EvalStats, IterStat, RuleProfile};
use std::io::Write as _;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// A step whose Δ holds at least this many rows times every plan run it
/// fires. A plan run costs ≈ 100 ns a Δ row on `apsp-dense`'s batches
/// (2-core shared host, where a clock pair costs ≈ 62 ns); at this size
/// it costs ≥ 6.4 µs even at a quarter of that rate, so the pair is
/// under 1 % of the run.
pub(crate) const PLAN_CLOCK_ALL_FROM_ROWS: u64 = 256;

/// Of the runs a smaller step fires, each plan times one in this many,
/// counted per plan from its first run (which is timed). Its time is
/// scaled up by the runs over the timed runs; the counts stay exact.
/// On the 6 000 one-row batches of the gradient graph that is 377
/// timed runs of 6 002: ≈ 23 µs of clock in a ≈ 2.2 ms eval, where a
/// pair per run was ≈ 0.37 ms.
pub const PLAN_CLOCK_PERIOD: u64 = 16;

/// A structured evaluation event, streamed to a [`TraceSink`] while the
/// run executes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceEvent {
    /// The run began: resolved strategy and thread count.
    RunStart {
        /// Strategy name (as in [`EvalStats::strategy`]).
        strategy: String,
        /// Resolved worker-thread count.
        threads: u64,
    },
    /// A non-loop phase finished.
    Phase {
        /// Phase name: `"setup"`, `"edb_index"`, or `"decode"`.
        name: String,
        /// Wall-clock nanoseconds.
        nanos: u64,
    },
    /// One iteration / frontier batch completed.
    Iteration(IterStat),
    /// The run is aborting before a fixpoint: a budget ceiling,
    /// deadline, cancellation, or contained worker panic stopped it.
    /// Always followed by a `RunEnd` with `converged: false`, so sinks
    /// flush on aborted runs exactly as on completed ones.
    Abort {
        /// The returned [`EvalError`](crate::EvalError)'s `Display`,
        /// e.g. `"evaluation cancelled"`.
        reason: String,
        /// Steps completed when the run stopped.
        steps: u64,
        /// Which checkpoint granularity detected the stop: `"phase"`
        /// (seed/setup boundary), `"iteration"` (naïve/semi-naïve
        /// loop), or `"bucket"` (priority frontier pop). Distinguishes
        /// a deadline caught at a coarse boundary from one caught
        /// mid-loop.
        granularity: String,
        /// Rows already settled (exact under the priority strategy's
        /// settled-on-pop invariant, 0 when nothing is provably
        /// settled) at the moment the checkpoint fired.
        settled_rows: u64,
    },
    /// The run finished.
    RunEnd {
        /// Steps processed.
        steps: u64,
        /// Whether the run reached a fixpoint (vs hitting its cap).
        converged: bool,
    },
}

impl TraceEvent {
    /// One-line JSON encoding, tagged by an `"event"` field.
    pub fn to_json(&self) -> String {
        let mut w = json::Writer::new();
        w.obj_open();
        match self {
            TraceEvent::RunStart { strategy, threads } => {
                w.str_field("event", "run_start");
                w.str_field("strategy", strategy);
                w.u64_field("threads", *threads);
            }
            TraceEvent::Phase { name, nanos } => {
                w.str_field("event", "phase");
                w.str_field("name", name);
                w.u64_field("nanos", *nanos);
            }
            TraceEvent::Iteration(it) => {
                w.str_field("event", "iteration");
                it.write_fields(&mut w);
            }
            TraceEvent::Abort {
                reason,
                steps,
                granularity,
                settled_rows,
            } => {
                w.str_field("event", "abort");
                w.str_field("reason", reason);
                w.u64_field("steps", *steps);
                w.str_field("granularity", granularity);
                w.u64_field("settled_rows", *settled_rows);
            }
            TraceEvent::RunEnd { steps, converged } => {
                w.str_field("event", "run_end");
                w.u64_field("steps", *steps);
                w.bool_field("converged", *converged);
            }
        }
        w.obj_close();
        w.finish()
    }
}

/// A receiver of structured per-run [`TraceEvent`]s.
///
/// Contract: [`TraceSink::record`] is called from the evaluating
/// thread only (never from worker tasks), in deterministic event
/// order — `RunStart`, then phases/iterations as they complete, then
/// `RunEnd`. Sinks must not panic on I/O failure (drop the event
/// instead); a panicking sink would poison the evaluation.
pub trait TraceSink {
    /// Receives one event. Must be cheap relative to an iteration.
    fn record(&mut self, event: &TraceEvent);
}

/// A [`TraceSink`] appending one JSON object per line to a file — the
/// `DLO_TRACE=out.jsonl` format.
pub struct JsonlSink {
    out: std::io::BufWriter<std::fs::File>,
}

impl JsonlSink {
    /// Opens `path` in append mode (several runs of one process share
    /// a trace file).
    pub fn create(path: &std::path::Path) -> std::io::Result<JsonlSink> {
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        Ok(JsonlSink {
            out: std::io::BufWriter::new(file),
        })
    }
}

impl TraceSink for JsonlSink {
    fn record(&mut self, event: &TraceEvent) {
        // I/O failure drops the event — tracing must not fail the run.
        let _ = writeln!(self.out, "{}", event.to_json());
        if matches!(event, TraceEvent::RunEnd { .. }) {
            let _ = self.out.flush();
        }
    }
}

/// An in-memory [`TraceSink`] for tests. Cloning shares the buffer, so
/// a test can hand one clone to the engine and inspect the other after
/// the run.
#[derive(Clone, Default)]
pub struct MemorySink {
    events: Arc<Mutex<Vec<TraceEvent>>>,
}

impl MemorySink {
    /// A snapshot of every event recorded so far, in order.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.events.lock().map(|e| e.clone()).unwrap_or_default()
    }
}

impl TraceSink for MemorySink {
    fn record(&mut self, event: &TraceEvent) {
        if let Ok(mut events) = self.events.lock() {
            events.push(event.clone());
        }
    }
}

/// A shared, cloneable handle to a [`TraceSink`], carried on the
/// engine's options struct. Events are serialized through a mutex; the
/// drivers only emit from the calling thread, so there is no
/// contention.
#[derive(Clone)]
pub struct TraceHandle(Arc<Mutex<dyn TraceSink + Send>>);

impl TraceHandle {
    /// Wraps a sink.
    pub fn new(sink: impl TraceSink + Send + 'static) -> TraceHandle {
        TraceHandle(Arc::new(Mutex::new(sink)))
    }

    /// Records one event (poisoned-mutex recording is skipped — a
    /// panicked sink must not cascade).
    pub fn emit(&self, event: &TraceEvent) {
        if let Ok(mut sink) = self.0.lock() {
            sink.record(event);
        }
    }
}

impl std::fmt::Debug for TraceHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("TraceHandle(..)")
    }
}

/// Per-run stats accumulator + trace emitter (see module docs).
pub(crate) struct Collector {
    /// The stats under construction; the loops add counters directly.
    pub stats: EvalStats,
    /// Per-pid aggregation, folded into [`EvalStats::rules`] on finish.
    per_plan: Vec<PlanTally>,
    metas: Vec<PlanMeta>,
    trace: Option<TraceHandle>,
    /// A shard's step rows, every one, for the merge; `None` outside a
    /// shard, where rows go to the stats (capped) and the trace.
    rows: Option<Vec<IterStat>>,
}

/// Adds one step row's counts into another's: how the rows of shards
/// that ran one step of the one-shard loop merge. `step` and
/// `queue_depth` are the merge's to set.
pub(crate) fn add_step(into: &mut IterStat, row: &IterStat) {
    into.delta_rows += row.delta_rows;
    into.emits += row.emits;
    into.fresh_emits += row.fresh_emits;
    into.inserted += row.inserted;
    into.improved += row.improved;
    into.absorbed += row.absorbed;
    into.minted += row.minted;
}

/// One plan's counters, and its runs in two strata, indexed by `whole`:
/// `strata[0]` the runs of steps under [`PLAN_CLOCK_ALL_FROM_ROWS`] Δ
/// rows, one in [`PLAN_CLOCK_PERIOD`] timed, `strata[1]` the runs of
/// larger steps, all timed. Each stratum is scaled on its own: the few
/// timed runs of small steps must not stand for the large ones.
#[derive(Clone, Copy, Default)]
struct PlanTally {
    counters: ExecCounters,
    strata: [Stratum; 2],
}

impl PlanTally {
    /// The plan's estimated time, over both strata.
    fn time_ns(&self) -> u128 {
        self.strata.iter().map(Stratum::time_ns).sum()
    }

    /// Adds another tally of the same plan (a shard's).
    fn add(&mut self, other: &PlanTally) {
        self.counters.add(&other.counters);
        for (stratum, other) in self.strata.iter_mut().zip(&other.strata) {
            stratum.runs += other.runs;
            stratum.timed += other.timed;
            stratum.ns += other.ns;
        }
    }
}

/// Runs of one stratum, those of them timed, and the time of those.
#[derive(Clone, Copy, Default)]
struct Stratum {
    runs: u64,
    timed: u64,
    ns: u64,
}

impl Stratum {
    /// The timed nanoseconds scaled by the runs over the timed runs.
    fn time_ns(&self) -> u128 {
        (self.ns as u128 * self.runs as u128)
            .checked_div(self.timed as u128)
            .unwrap_or(0)
    }
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
            shards: 1,
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
        let per_plan = vec![PlanTally::default(); metas.len()];
        Collector {
            stats,
            per_plan,
            metas,
            trace,
            rows: None,
        }
    }

    /// The collector of one shard of this run: empty, no trace, and it
    /// keeps every step row for [`Collector::absorb`].
    pub fn shard(&self) -> Collector {
        Collector {
            stats: EvalStats {
                strategy: self.stats.strategy.clone(),
                threads: self.stats.threads,
                ..EvalStats::default()
            },
            per_plan: vec![PlanTally::default(); self.per_plan.len()],
            metas: self.metas.clone(),
            trace: None,
            rows: Some(vec![]),
        }
    }

    /// Takes in a shard's counters, plan tallies and mint time, and
    /// hands back its step rows for the schedule's merge.
    pub fn absorb(&mut self, shard: Collector) -> Vec<IterStat> {
        self.stats.counters.add(&shard.stats.counters);
        self.stats.phases.mint += shard.stats.phases.mint;
        for (tally, other) in self.per_plan.iter_mut().zip(&shard.per_plan) {
            tally.add(other);
        }
        shard.rows.unwrap_or_default()
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

    /// Starts the clock on the next run of plan `pid` if that run is
    /// timed: every run of a `whole` step (one of at least
    /// [`PLAN_CLOCK_ALL_FROM_ROWS`] Δ rows), and of the others the
    /// plan's first and every [`PLAN_CLOCK_PERIOD`]-th after. The choice
    /// is a function of the counts only, so `timed_runs` is as
    /// deterministic as `runs`.
    #[inline]
    pub fn plan_clock(&self, pid: usize, whole: bool) -> Option<Instant> {
        let sampled_runs = self.per_plan[pid].strata[0].runs;
        (whole || sampled_runs.is_multiple_of(PLAN_CLOCK_PERIOD)).then(Instant::now)
    }

    /// Attributes one plan run's counters, and its wall-clock when
    /// [`Collector::plan_clock`] started one, to its pid, and adds the
    /// counters to the whole-run totals.
    #[inline]
    pub fn add_plan(
        &mut self,
        pid: usize,
        counters: ExecCounters,
        whole: bool,
        clock: Option<Instant>,
    ) {
        let tally = &mut self.per_plan[pid];
        tally.counters.add(&counters);
        let stratum = &mut tally.strata[whole as usize];
        stratum.runs += 1;
        if let Some(t) = clock {
            stratum.timed += 1;
            stratum.ns += t.elapsed().as_nanos() as u64;
        }
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
        match &mut self.rows {
            Some(rows) => rows.push(it),
            None => self.push_step(it),
        }
    }

    /// Records one step row in the stats (cap-aware) and streams it.
    pub fn push_step(&mut self, it: IterStat) {
        self.stats.push_iteration(it);
        if let Some(t) = &self.trace {
            t.emit(&TraceEvent::Iteration(it));
        }
    }

    /// Streams the abort event of a governed stop (budget, deadline,
    /// cancellation, or contained worker panic); `reason` is the
    /// error's `Display`. `granularity` names
    /// the checkpoint that detected the stop (`"phase"`,
    /// `"iteration"`, or `"bucket"`); `settled_rows`
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
    /// `RunEnd`, and returns the completed stats. The plans' estimated
    /// times are scaled down together where they would sum past the
    /// eval phase they ran in, so `Σ time_ns ≤ phases.eval` always.
    pub fn finish(mut self, steps: usize, converged: bool, eval_ns: u64) -> EvalStats {
        self.stats.steps = steps as u64;
        let eval = eval_ns.saturating_sub(self.stats.phases.mint);
        self.stats.phases.eval = eval;
        let total: u128 = self.per_plan.iter().map(PlanTally::time_ns).sum();
        let (cap, total) = ((eval as u128).min(total), total.max(1));
        self.stats.rules = self
            .per_plan
            .iter()
            .zip(&self.metas)
            .map(|(t, meta)| RuleProfile {
                rule: meta.rule_idx as u64,
                label: meta.label.clone(),
                kind: meta.kind.to_string(),
                join: meta.join.to_string(),
                emits: t.counters.emits,
                fresh_emits: t.counters.fresh_emits,
                probes: t.counters.probes,
                scanned: t.counters.scanned,
                runs: t.strata.iter().map(|s| s.runs).sum(),
                timed_runs: t.strata.iter().map(|s| s.timed).sum(),
                time_ns: (t.time_ns() * cap / total) as u64,
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_events_encode_and_round_trip() {
        let events = vec![
            TraceEvent::RunStart {
                strategy: "priority".into(),
                threads: 4,
            },
            TraceEvent::Phase {
                name: "setup".into(),
                nanos: 123,
            },
            TraceEvent::Iteration(IterStat {
                step: 0,
                delta_rows: 2,
                queue_depth: 9,
                emits: 4,
                ..IterStat::default()
            }),
            TraceEvent::RunEnd {
                steps: 1,
                converged: true,
            },
        ];
        for ev in &events {
            let parsed = json::parse(&ev.to_json()).expect("valid JSON");
            assert!(parsed.get("event").is_some());
        }
        let parsed = json::parse(&events[3].to_json()).unwrap();
        assert_eq!(parsed.get("converged"), Some(&json::Value::Bool(true)));
    }

    #[test]
    fn abort_event_encodes_reason_and_steps() {
        let ev = TraceEvent::Abort {
            reason: "deadline".into(),
            steps: 42,
            granularity: "bucket".into(),
            settled_rows: 17,
        };
        let parsed = json::parse(&ev.to_json()).expect("valid JSON");
        assert_eq!(parsed.get("event").unwrap().as_str(), Some("abort"));
        assert_eq!(parsed.get("reason").unwrap().as_str(), Some("deadline"));
        assert_eq!(parsed.get("steps").unwrap().as_u64(), Some(42));
        assert_eq!(parsed.get("granularity").unwrap().as_str(), Some("bucket"));
        assert_eq!(parsed.get("settled_rows").unwrap().as_u64(), Some(17));
    }

    /// A collector over `plans` plans with tracing off.
    fn collector(plans: usize) -> Collector {
        let meta = |i| PlanMeta {
            rule_idx: i,
            label: format!("r{i}"),
            kind: "delta",
            join: "hash",
        };
        let metas = (0..plans).map(meta).collect();
        let opts = EngineOpts::default();
        Collector::new("test", 1, 0, 0, metas, &opts)
    }

    #[test]
    fn small_steps_time_one_run_in_the_period_and_whole_steps_every_run() {
        let mut col = collector(2);
        let runs = 3 * PLAN_CLOCK_PERIOD + 1;
        for _ in 0..runs {
            let clock = col.plan_clock(0, false);
            col.add_plan(0, ExecCounters::default(), false, clock);
            let clock = col.plan_clock(1, true);
            assert!(clock.is_some(), "a whole step times every run");
            col.add_plan(1, ExecCounters::default(), true, clock);
        }
        let stats = col.finish(0, true, u64::MAX);
        let counts: Vec<_> = stats.rules.iter().map(|r| (r.runs, r.timed_runs)).collect();
        assert_eq!(counts, [(runs, 4), (runs, runs)]);
    }

    #[test]
    fn scaled_plan_times_stay_inside_the_eval_phase() {
        // One timed run of 10 ms stands for sixteen: the estimate, 160
        // ms, is capped to the 1 ms eval phase, and so are the
        // plans' estimates together.
        let mut col = collector(3);
        let long_ago = Instant::now() - std::time::Duration::from_millis(10);
        for pid in 0..3 {
            for i in 0..PLAN_CLOCK_PERIOD {
                let clock = (i == 0).then_some(long_ago);
                col.add_plan(pid, ExecCounters::default(), false, clock);
            }
        }
        let eval = 1_000_000;
        let stats = col.finish(0, true, eval);
        let plans: u64 = stats.rules.iter().map(|r| r.time_ns).sum();
        assert!(plans <= eval, "plans {plans} ns inside eval {eval} ns");
        assert!(plans > eval - 3, "capped, not dropped: {plans} ns");
        let timed: Vec<_> = stats.rules.iter().map(|r| r.timed_runs).collect();
        assert_eq!(timed, [1, 1, 1]);
    }

    #[test]
    fn memory_sink_buffers_events_in_order() {
        let sink = MemorySink::default();
        let handle = TraceHandle::new(sink.clone());
        handle.emit(&TraceEvent::RunStart {
            strategy: "naive".into(),
            threads: 1,
        });
        handle.emit(&TraceEvent::RunEnd {
            steps: 3,
            converged: false,
        });
        let events = sink.events();
        assert_eq!(events.len(), 2);
        assert!(matches!(events[0], TraceEvent::RunStart { .. }));
        assert!(matches!(
            events[1],
            TraceEvent::RunEnd {
                steps: 3,
                converged: false
            }
        ));
    }
}
