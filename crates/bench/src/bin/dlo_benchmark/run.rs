//! One run of one workload: set-up, a closed loop of verified
//! operations for the requested seconds, and the run's metrics.
//!
//! The untraced run yields the end-to-end metrics. The traced run
//! runs a shorter loop in two lanes — tracer off and tracer on, taking
//! turns — and adds the layer probes; its numbers are per-layer only.

use crate::calib::{to_reference, Calibrator, REFERENCE_S};
use crate::layers;
use crate::metrics::Readings;
use crate::span::{self, Tracer};
use crate::stats::{iqr_rel, median, tail};
use crate::workload::{run_op, Corrupt, Expected, Inputs, Report, State, Workload};
use dlo_engine::Counters;
use std::path::PathBuf;
use std::time::Instant;

/// Set-up is repeated so that `setup_s` is a median.
const SETUP_REPS: usize = 5;
/// Operations run (and verified) before the clock of set-up stops.
const WARM_OPS: usize = 1;
/// Fewest timed operations, however short the run.
const MIN_OPS: usize = 5;
/// Size divisor and operation count of `--smoke`.
const SMOKE_DIV: usize = 20;
const SMOKE_OPS: usize = 3;

pub struct Config {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub smoke: bool,
    pub corrupt: Option<Corrupt>,
    pub spans_out: Option<PathBuf>,
}

pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub first_error: Option<String>,
    pub readings: Readings,
    /// The raw wall median and the host's speed, for the human reader.
    pub note: String,
}

/// What a loop of operations measured.
#[derive(Default)]
struct Timed {
    /// Wall seconds per operation.
    walls: Vec<f64>,
    /// The same in reference seconds (see `calib.rs`).
    scaled: Vec<f64>,
    reports: Vec<Report>,
}

impl Timed {
    fn push(&mut self, m: Measured) {
        self.walls.push(m.wall_s);
        self.scaled.push(m.scaled_s);
        self.reports.push(m.report);
    }
}

struct Harness<'a> {
    cfg: &'a Config,
    expected: Option<Expected>,
    /// The exact counts of the first operation of each kind; every
    /// later one of that kind — in any loop of this run — must match.
    first_of_kind: Vec<Option<(Counters, u64, usize)>>,
    attempted: u64,
    failed: u64,
    first_error: Option<String>,
    verify_s: Vec<f64>,
    calibrator: Calibrator,
    /// Every reading of the calibration kernel, in order.
    kernel_s: Vec<f64>,
}

/// What one completed operation measured.
struct Measured {
    wall_s: f64,
    /// `wall_s` in reference seconds.
    scaled_s: f64,
    report: Report,
}

impl Harness<'_> {
    /// The latest kernel reading; takes one if there is none yet. A
    /// reading taken after one timed stretch also opens the next.
    fn kernel_before(&mut self) -> f64 {
        match self.kernel_s.last() {
            Some(&s) => s,
            None => self.kernel_after(),
        }
    }

    fn kernel_after(&mut self) -> f64 {
        let s = self.calibrator.seconds();
        self.kernel_s.push(s);
        s
    }

    fn fail(&mut self, why: String) {
        self.failed += 1;
        self.first_error.get_or_insert(why);
    }

    /// Generates the inputs and builds long-lived state; returns the
    /// seconds that took. Reference solving happens here too, once,
    /// outside the clock.
    fn set_up(&mut self, tr: &mut Tracer) -> Result<(Inputs, State, f64), String> {
        let div = if self.cfg.smoke { SMOKE_DIV } else { 1 };
        let t = Instant::now();
        let inputs = Inputs::generate(self.cfg.workload, self.cfg.seed, div);
        let state = State::start(&inputs, tr)?;
        let took = t.elapsed().as_secs_f64();
        if self.expected.is_none() {
            self.expected = Some(Expected::solve(&inputs));
            self.first_of_kind = vec![None; inputs.kinds()];
        }
        Ok((inputs, state, took))
    }

    /// Runs operation `op` under the stopwatch, between two readings
    /// of the calibration kernel, then — stopwatch stopped — checks its
    /// answers and its exact counts. Returns what an operation that
    /// completed measured.
    fn operate(
        &mut self,
        inputs: &Inputs,
        state: &mut State,
        op: usize,
        tr: &mut Tracer,
    ) -> Option<Measured> {
        self.attempted += 1;
        let before = self.kernel_before();
        let t = Instant::now();
        let out = tr.span("op", |tr| run_op(inputs, state, op, tr));
        let wall_s = t.elapsed().as_secs_f64();
        let after = self.kernel_after();
        let mut out = match out {
            Ok(out) => out,
            Err(why) => {
                self.fail(format!("op {op}: {why}"));
                return None;
            }
        };
        let t = Instant::now();
        if let Some(how) = self.cfg.corrupt {
            how.apply(&mut out.answers);
        }
        let expected = self.expected.as_ref().expect("solved in set_up");
        let mut verdict = expected.verify(op, &out.answers);
        let first = &mut self.first_of_kind[op % inputs.kinds()];
        let exact = out.report.exact();
        if *first.get_or_insert(exact) != exact {
            verdict = verdict.and(Err(
                "exact counts differ between operations of one kind".into()
            ));
        }
        self.verify_s.push(t.elapsed().as_secs_f64());
        if let Err(why) = verdict {
            self.fail(format!("op {op}: {why}"));
        }
        Some(Measured {
            wall_s,
            scaled_s: to_reference(wall_s, before, after),
            report: out.report,
        })
    }

    /// The closed loop: one client, the next operation starts when the
    /// previous one has been verified. Runs for `seconds` (at least
    /// `MIN_OPS` operations per lane), or exactly `SMOKE_OPS` under
    /// `--smoke`. With two tracers the loop runs two lanes, taking
    /// turns operation by operation, so that drift of the host over the
    /// run falls on both alike.
    fn run_loop(
        &mut self,
        inputs: &Inputs,
        state: &mut State,
        seconds: f64,
        lanes: &mut [&mut Tracer],
    ) -> Vec<Timed> {
        let mut timed: Vec<Timed> = lanes.iter().map(|_| Timed::default()).collect();
        let start = Instant::now();
        for op in 0.. {
            let enough = if self.cfg.smoke {
                op >= SMOKE_OPS
            } else {
                op >= MIN_OPS && start.elapsed().as_secs_f64() >= seconds
            };
            if enough {
                break;
            }
            for (tr, timed) in lanes.iter_mut().zip(&mut timed) {
                tr.set_op(op);
                if let Some(m) = self.operate(inputs, state, op, tr) {
                    timed.push(m);
                }
            }
        }
        timed
    }
}

pub fn run(cfg: &Config) -> Outcome {
    let mut h = Harness {
        cfg,
        expected: None,
        first_of_kind: vec![],
        attempted: 0,
        failed: 0,
        first_error: None,
        verify_s: vec![],
        calibrator: Calibrator::new(),
        kernel_s: vec![],
    };
    let mut readings = Readings::default();
    let result = if cfg.traced {
        traced(&mut h, &mut readings)
    } else {
        untraced(&mut h, &mut readings)
    };
    let note = match result {
        Ok(wall_median) => format!(
            "wall median {wall_median:.6} s per operation; the host ran at {:.3} of reference speed",
            REFERENCE_S / median(&h.kernel_s)
        ),
        Err(why) => {
            h.attempted += 1;
            h.fail(why);
            String::new()
        }
    };
    Outcome {
        attempted: h.attempted,
        failed: h.failed,
        first_error: h.first_error,
        readings,
        note,
    }
}

/// The untraced run; returns the timed loop's raw wall median.
fn untraced(h: &mut Harness, readings: &mut Readings) -> Result<f64, String> {
    let mut off = Tracer::new(false);
    let mut setups = vec![];
    let mut held = None;
    for _ in 0..SETUP_REPS {
        // Free the previous repeat first: the peak must be one copy.
        drop(held.take());
        let before = h.kernel_before();
        let (inputs, mut state, took) = h.set_up(&mut off)?;
        let mut took = to_reference(took, before, h.kernel_after());
        for op in 0..WARM_OPS {
            if let Some(m) = h.operate(&inputs, &mut state, op, &mut off) {
                took += m.scaled_s;
            }
        }
        setups.push(took);
        held = Some((inputs, state));
    }
    let (inputs, mut state) = held.expect("SETUP_REPS ≥ 1");
    let timed = h.run_loop(&inputs, &mut state, h.cfg.seconds, &mut [&mut off]);
    let timed = &timed[0];
    let facts: usize = timed.reports.iter().map(|r| r.facts).sum();
    let total: f64 = timed.scaled.iter().sum();
    readings.set("op_median_s", median(&timed.scaled));
    readings.set("facts_per_s", facts as f64 / total);
    readings.set("peak_rss_mb", peak_rss_kib()? as f64 / 1024.0);
    readings.set("setup_s", median(&setups));
    Ok(median(&timed.walls))
}

/// The traced run; returns the untraced lane's raw wall median.
fn traced(h: &mut Harness, readings: &mut Readings) -> Result<f64, String> {
    let (mut off, mut on) = (Tracer::new(false), Tracer::new(true));
    let (inputs, mut state, _) = h.set_up(&mut on)?;
    let built_steps = state.built_steps;
    // Two thirds of the run for the loop; the probes take the rest.
    let seconds = h.cfg.seconds * 2.0 / 3.0;
    let lanes = h.run_loop(&inputs, &mut state, seconds, &mut [&mut off, &mut on]);
    let (plain, spanned) = (&lanes[0], &lanes[1]);
    let Some(first) = spanned.reports.first().copied() else {
        return Err("no traced operation completed".into());
    };

    // Spans around the public calls, as a median per operation.
    let ops = spanned.walls.len();
    let per_op = |name: &str| span::per_op_seconds(&on.spans, name, ops);
    for (span_name, metric) in [
        ("parser.parse", "parser.parse_s"),
        ("engine.eval_interned", "engine.eval_interned_s"),
        ("output.materialize", "output.materialize_s"),
        ("query.eval", "query.eval_s"),
        ("query.answers", "query.answers_s"),
        ("incremental.insert", "incremental.insert_s"),
        ("incremental.query", "incremental.query_s"),
        ("incremental.delete", "incremental.delete_s"),
    ] {
        readings.set(metric, median(&per_op(span_name)));
    }
    let new_s = per_op("incremental.new").iter().sum::<f64>();
    readings.set("incremental.new_s", new_s);
    let deletes = per_op("incremental.delete");
    readings.set("incremental.delete_tail_s", tail(&deletes).1);
    if new_s > 0.0 {
        readings.set("incremental.delete_over_new", median(&deletes) / new_s);
    }
    let decoded = matches!(
        h.cfg.workload,
        Workload::ApspDense | Workload::SsspSparse | Workload::WideLookup
    );
    let rows_metric = if decoded {
        "output.rows"
    } else {
        "query.answer_rows"
    };
    readings.set(rows_metric, first.facts as f64);

    // What the program itself reported on the answers it returned:
    // timers as a median over the traced operations, counts from the
    // first (they are checked to repeat exactly).
    let phase = |f: fn(&Report) -> u64| {
        let secs: Vec<f64> = spanned.reports.iter().map(|r| f(r) as f64 / 1e9).collect();
        median(&secs)
    };
    readings.set("reported.setup_s", phase(|r| r.phases.setup));
    readings.set("reported.edb_index_s", phase(|r| r.phases.edb_index));
    readings.set("reported.arrange_s", phase(|r| r.phases.arrange));
    readings.set("reported.eval_s", phase(|r| r.phases.eval));
    readings.set("reported.mint_s", phase(|r| r.phases.mint));
    readings.set("reported.decode_s", phase(|r| r.phases.decode));
    let c = &first.counters;
    for (metric, count) in [
        ("reported.emits", c.emits),
        ("reported.index_probes", c.index_probes),
        ("reported.tuples_scanned", c.tuples_scanned),
        ("reported.delta_rows", c.delta_rows),
        ("reported.rows_inserted", c.rows_inserted),
        ("reported.rows_improved", c.rows_improved),
        ("reported.merges_absorbed", c.merges_absorbed),
        ("reported.minted_ids", c.minted_ids),
        ("reported.hash_join_steps", c.hash_join_steps),
        ("reported.merge_join_steps", c.merge_join_steps),
        ("reported.arrange_batches_merged", c.arrange_batches_merged),
        ("reported.budget_checks", c.budget_checks),
    ] {
        readings.set(metric, count as f64);
    }
    let useful = (c.rows_inserted + c.rows_improved) as f64;
    readings.set("reported.useful_emit_share", useful / c.emits.max(1) as f64);

    // The harness: the untraced loop's spread and tail, what tracing
    // cost, and how much of an operation no child span covers.
    let (tail_pct, tail_s) = tail(&plain.walls);
    readings.set("bench.op_wall_median_s", median(&plain.walls));
    readings.set("bench.kernel_s", median(&h.kernel_s));
    readings.set("bench.host_speed", REFERENCE_S / median(&h.kernel_s));
    readings.set("bench.op_tail_s", tail_s);
    readings.set("bench.op_tail_pct", tail_pct);
    readings.set("bench.op_samples", plain.walls.len() as f64);
    readings.set("bench.op_iqr_rel", iqr_rel(&plain.walls));
    readings.set("bench.verify_s", median(&h.verify_s));
    readings.set("bench.traced_op_median_s", median(&spanned.walls));
    let overhead = median(&spanned.walls) / median(&plain.walls);
    readings.set("bench.trace_overhead", overhead);
    let own = span::self_nanos(&on.spans);
    let op_spans = || on.spans.iter().zip(&own).filter(|(s, _)| s.name == "op");
    let uncovered: Vec<f64> = op_spans().map(|(_, &ns)| ns as f64 / 1e9).collect();
    let covered: Vec<f64> = op_spans()
        .map(|(s, &ns)| 1.0 - ns as f64 / s.nanos().max(1) as f64)
        .collect();
    readings.set("bench.unaccounted_s", median(&uncovered));
    readings.set("bench.accounted_share", median(&covered));
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    readings.set("bench.nproc", nproc as f64);

    // Free the operation state before the probes build their own.
    drop(state);
    let expected = h.expected.as_ref().expect("solved in set_up");
    layers::probe(&inputs, expected, h.cfg.seed, readings)?;
    // `live-edits` reaches its least fixpoint once, in set-up; the
    // others reach one per operation.
    let steps = built_steps.unwrap_or(first.steps) as f64;
    readings.set("fixpoint.steps", steps);
    let bound = readings.get("fixpoint.bound").max(1.0);
    readings.set("fixpoint.steps_over_bound", steps / bound);

    if let Some(path) = &h.cfg.spans_out {
        std::fs::write(path, span::to_json(&on.spans))
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    Ok(median(&plain.walls))
}

/// `VmHWM` of this process: the most resident memory it ever held.
fn peak_rss_kib() -> Result<u64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"));
    let kib = line.and_then(|l| l.split_whitespace().nth(1)?.parse().ok());
    kib.ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}
