//! Evaluation telemetry: counters, phase timers, per-iteration
//! snapshots and per-rule profiles.
//!
//! Every evaluation path of the execution engine (and, in skeleton
//! form, the grounded backends) carries an [`EvalStats`] on its
//! outcome. The stats are **always on** — the counters are plain `u64`
//! adds on paths that already touch the counted object, and the
//! committed benchmark baselines gate their overhead at ≤ 5% — and
//! split into two determinism classes:
//!
//! * **thread-invariant**: [`Counters`], `steps`, the per-iteration
//!   [`IterStat`] snapshots, and the per-rule emit/probe/scan counts.
//!   These are exact counts of work fixed by the compiled plans and
//!   the input, done by the one thread that runs the fixpoint, so they
//!   are bit-identical at any `DLO_ENGINE_THREADS` — the cross-thread
//!   determinism tests compare them directly via
//!   [`EvalStats::invariants`].
//! * **environmental**: wall-clock phase timers ([`PhaseNanos`]),
//!   per-rule `time_ns`, the resolved thread count, and the two
//!   fan-out counts (0 on every run now).
//!   [`EvalStats::invariants`] zeroes these.
//!
//! The [`json`] submodule holds the hand-rolled writer/parser pair
//! that [`EvalStats::to_json`], the engine's trace sinks and the
//! round-trip tests share — no serde, no dependencies.

use std::fmt::Write as _;

/// Thread-invariant work counters, summed over the whole run.
///
/// Every field is an exact count of a deterministic event stream:
/// identical across thread counts and across repeated runs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counters {
    /// Rows read from Δ relations (semi-naïve) or frontier batches
    /// (priority) — the "delta rows in" of each step.
    pub delta_rows: u64,
    /// Head-key emissions that reached an accumulator (post condition,
    /// post zero-short-circuit).
    pub emits: u64,
    /// Emissions whose head contained a computed cell outside the
    /// interned domain (routed to the fresh accumulator for minting).
    pub fresh_emits: u64,
    /// Index probes issued by join steps (hash-prefix lookups plus
    /// sorted-arrangement searches).
    pub index_probes: u64,
    /// Probes served by a sorted run (merge-join path): the probes into
    /// bulk-loaded EDB relations of arity > 2. Which structure serves a
    /// probe is fixed by the relation's arity and by whether it has
    /// grown since it was loaded, so the split is a function of the
    /// program, its input and a handle's edit history like every other
    /// counter.
    pub merge_join_steps: u64,
    /// Probes served by a posting-list probe (hash-join path): hashed,
    /// or a bulk relation's direct table (an EDB column of arity ≤ 2
    /// dense enough to address by id); `merge_join_steps +
    /// hash_join_steps = index_probes` always.
    pub hash_join_steps: u64,
    /// Reads 0 on every run: nothing merges sorted runs since the
    /// engine stopped maintaining them under appends (a relation that
    /// grows is probed by hash). Kept because the frozen benchmark reads
    /// the field (`reported.arrange_batches_merged`).
    pub arrange_batches_merged: u64,
    /// Candidate tuples scanned: full-scan range lengths plus probe
    /// posting-list lengths, before per-row checks.
    pub tuples_scanned: u64,
    /// Rows that entered the support: a brand-new key, or a row at `0`
    /// taking a value — a maintenance delete's zeroed row coming back is
    /// an insertion, counted by the step that lands it.
    pub rows_inserted: u64,
    /// Rows of the support whose value strictly improved.
    pub rows_improved: u64,
    /// Merges absorbed without change (`old ⊕ new = old`).
    pub merges_absorbed: u64,
    /// Set-valued (magic/demand) rows skipped because the key was
    /// already present — the Bool-lattice short-circuit.
    pub set_valued_shortcircuits: u64,
    /// Interner ids minted for head-computed fresh cells.
    pub minted_ids: u64,
    /// Budget checks performed at phase boundaries (0 when no
    /// `EvalBudget` ceiling is set — governance off means no checks at
    /// all).
    pub budget_checks: u64,
    /// `CancelToken` polls performed at phase boundaries (0 when no
    /// token is installed).
    pub cancel_polls: u64,
    /// IDB rows a maintenance delete's marking pass put in the affected
    /// cone (0 for everything that is not a delete). The POPS picks the
    /// cone, never the schedule: over an absorptive chain
    /// (`Pops::ABSORPTIVE_CHAIN`, with no IDB factor under a value
    /// function) the rows some derivation through a deleted fact
    /// **attains** the stored value of, transitively; otherwise every
    /// row such a derivation reaches at all.
    pub cone_rows: u64,
    /// Rows held, when the delete started, by the IDB relations its
    /// cone was marked in — what `cone_rows` is a share of (0 when
    /// nothing was marked).
    pub cone_of_rows: u64,
    /// IDB rows a maintenance delete took out of the state before
    /// rederiving — zeroed in place, on every handle — and what the
    /// rederive's `rows_inserted` (the zeroed rows that came back, each
    /// an insertion) is to be read against: the difference is gone for
    /// good. 0 for everything that is not a delete, and for a delete
    /// stopped before its zero-out.
    pub rows_retracted: u64,
}

impl Counters {
    /// Adds `other` into `self`, field-wise.
    pub fn add(&mut self, other: &Counters) {
        self.delta_rows += other.delta_rows;
        self.emits += other.emits;
        self.fresh_emits += other.fresh_emits;
        self.index_probes += other.index_probes;
        self.merge_join_steps += other.merge_join_steps;
        self.hash_join_steps += other.hash_join_steps;
        self.arrange_batches_merged += other.arrange_batches_merged;
        self.tuples_scanned += other.tuples_scanned;
        self.rows_inserted += other.rows_inserted;
        self.rows_improved += other.rows_improved;
        self.merges_absorbed += other.merges_absorbed;
        self.set_valued_shortcircuits += other.set_valued_shortcircuits;
        self.minted_ids += other.minted_ids;
        self.budget_checks += other.budget_checks;
        self.cancel_polls += other.cancel_polls;
        self.cone_rows += other.cone_rows;
        self.cone_of_rows += other.cone_of_rows;
        self.rows_retracted += other.rows_retracted;
    }

    /// Field-wise difference (`self - earlier`), for per-iteration
    /// snapshots taken as before/after totals.
    pub fn since(&self, earlier: &Counters) -> Counters {
        Counters {
            delta_rows: self.delta_rows - earlier.delta_rows,
            emits: self.emits - earlier.emits,
            fresh_emits: self.fresh_emits - earlier.fresh_emits,
            index_probes: self.index_probes - earlier.index_probes,
            merge_join_steps: self.merge_join_steps - earlier.merge_join_steps,
            hash_join_steps: self.hash_join_steps - earlier.hash_join_steps,
            arrange_batches_merged: self.arrange_batches_merged - earlier.arrange_batches_merged,
            tuples_scanned: self.tuples_scanned - earlier.tuples_scanned,
            rows_inserted: self.rows_inserted - earlier.rows_inserted,
            rows_improved: self.rows_improved - earlier.rows_improved,
            merges_absorbed: self.merges_absorbed - earlier.merges_absorbed,
            set_valued_shortcircuits: self.set_valued_shortcircuits
                - earlier.set_valued_shortcircuits,
            minted_ids: self.minted_ids - earlier.minted_ids,
            budget_checks: self.budget_checks - earlier.budget_checks,
            cancel_polls: self.cancel_polls - earlier.cancel_polls,
            cone_rows: self.cone_rows - earlier.cone_rows,
            cone_of_rows: self.cone_of_rows - earlier.cone_of_rows,
            rows_retracted: self.rows_retracted - earlier.rows_retracted,
        }
    }
}

/// Wall-clock phase timers, in nanoseconds. Environmental — zeroed by
/// [`EvalStats::invariants`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhaseNanos {
    /// Everything before the index builds: query rewrite, EDB load,
    /// program compile, state assembly.
    pub setup: u64,
    /// The part of `setup` spent loading the EDB — interning its
    /// constants and assembling the interned columns, one pass. A
    /// sub-interval of `setup`, so [`PhaseNanos::total`] does not add it
    /// again; 0 for runs that load nothing (maintenance edits).
    pub load: u64,
    /// EDB hash-prefix index builds (0 on a run whose EDB build sorted
    /// a relation: the whole build is under `arrange` then).
    pub edb_index: u64,
    /// The bulk sorts: the EDB build before the first step, when it
    /// sorted at least one relation of arity > 2 (hash builds running
    /// beside the sort ride along). 0 on every other run — nothing
    /// sorted is built or maintained once the fixpoint is under way.
    pub arrange: u64,
    /// The fixpoint loop itself (joins + merges).
    pub eval: u64,
    /// Between-iteration minting of fresh head keys.
    pub mint: u64,
    /// Decoding interned state back into a `Database`.
    pub decode: u64,
}

impl PhaseNanos {
    /// Sum of all phases, in nanoseconds (`load` is inside `setup`).
    pub fn total(&self) -> u64 {
        self.setup + self.edb_index + self.arrange + self.eval + self.mint + self.decode
    }
}

/// One iteration (semi-naïve) or frontier-batch (worklist/priority)
/// snapshot. Every field is thread-invariant.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IterStat {
    /// Step number, 0-based.
    pub step: u64,
    /// Δ rows (or frontier batch rows) driving this step.
    pub delta_rows: u64,
    /// Frontier queue depth after the batch was popped (0 for the
    /// global strategies, which have no queue).
    pub queue_depth: u64,
    /// Emissions reaching accumulators during this step.
    pub emits: u64,
    /// Fresh-cell emissions during this step.
    pub fresh_emits: u64,
    /// New keys inserted by this step's merges.
    pub inserted: u64,
    /// Existing keys strictly improved by this step's merges.
    pub improved: u64,
    /// Merges absorbed without change.
    pub absorbed: u64,
    /// Interner ids minted after this step.
    pub minted: u64,
}

/// Observed cost of one compiled plan, attributed by the plan's stable
/// id. `time_ns` is environmental; every other field is
/// thread-invariant.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RuleProfile {
    /// Rule index in program source order.
    pub rule: u64,
    /// Human-readable plan skeleton, e.g. `T :- T * E [Δ@0]`.
    pub label: String,
    /// Plan family: `"seed"` or `"delta"`. The Δ family is one list
    /// fired by every schedule, so a frontier run's batch plans read
    /// `"delta"` like a semi-naïve round's.
    pub kind: String,
    /// Which probe structures this plan's probing steps run against:
    /// `"merge"` (every one a sorted run), `"hash"` (every one
    /// a hash-prefix index), `"mixed"`, or `"scan"` (no probing
    /// steps). Fixed by which relations the plan probes: `"merge"` is
    /// an EDB relation of arity > 2, as a from-scratch run reads it.
    pub join: String,
    /// Emissions this plan produced.
    pub emits: u64,
    /// Fresh-cell emissions this plan produced.
    pub fresh_emits: u64,
    /// Index probes this plan issued.
    pub probes: u64,
    /// Candidate tuples this plan scanned.
    pub scanned: u64,
    /// Wall-clock nanoseconds spent running this plan.
    pub time_ns: u64,
}

/// How many per-iteration snapshots [`EvalStats::iterations`] retains
/// before switching to totals-only (frontier runs can take millions of
/// batches; the cutoff is deterministic, and a trace sink still
/// streams every event).
pub const ITER_SNAPSHOT_CAP: usize = 4096;

/// The always-on evaluation statistics carried by every outcome.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EvalStats {
    /// Strategy that produced the outcome: `"naive"`, `"seminaive"`,
    /// or `"priority"` (empty for backends that predate
    /// telemetry, e.g. the grounded reference evaluators).
    pub strategy: String,
    /// Steps processed (global iterations or frontier batches —
    /// mirrors the outcome's step count).
    pub steps: u64,
    /// Resolved worker-thread count (environmental): how many threads
    /// the engine's EDB index builds may use — the fixpoint itself runs
    /// on one.
    pub threads: u64,
    /// Plan tasks fanned over the worker pool. No schedule fans its
    /// plans out any more, so the engine reports 0 on every run (index
    /// builds are not counted here); kept, with its JSON key, for the
    /// benchmark that still reads it.
    pub tasks_spawned: u64,
    /// Rounds that ran their plans in parallel: 0 on every run, kept
    /// for the same reader as [`EvalStats::tasks_spawned`].
    pub parallel_batches: u64,
    /// Whole-run work counters (thread-invariant).
    pub counters: Counters,
    /// Wall-clock phase timers (environmental).
    pub phases: PhaseNanos,
    /// The first [`ITER_SNAPSHOT_CAP`] per-step snapshots
    /// (thread-invariant).
    pub iterations: Vec<IterStat>,
    /// Snapshots dropped past the cap (thread-invariant).
    pub iterations_dropped: u64,
    /// The final step's snapshot, always retained — this is what the
    /// divergence diagnostics print.
    pub last_iter: Option<IterStat>,
    /// Per-plan observed costs, ordered by plan id.
    pub rules: Vec<RuleProfile>,
}

impl EvalStats {
    /// The invariant projection: a copy with every environmental field
    /// (timers, thread count, fan-out counts, per-rule times) zeroed.
    /// Everything left — the merge/hash split of `index_probes`, the
    /// spine-merge count and the per-rule `join` tag included — is a
    /// function of the program and its input: two runs of the same
    /// program at different `DLO_ENGINE_THREADS` produce **equal**
    /// projections; the determinism tests assert exactly that.
    pub fn invariants(&self) -> EvalStats {
        let mut inv = self.clone();
        inv.threads = 0;
        inv.tasks_spawned = 0;
        inv.parallel_batches = 0;
        inv.phases = PhaseNanos::default();
        for r in &mut inv.rules {
            r.time_ns = 0;
        }
        inv
    }

    /// Records one per-step snapshot, honoring the retention cap and
    /// maintaining [`EvalStats::last_iter`].
    pub fn push_iteration(&mut self, it: IterStat) {
        if self.iterations.len() < ITER_SNAPSHOT_CAP {
            self.iterations.push(it);
        } else {
            self.iterations_dropped += 1;
        }
        self.last_iter = Some(it);
    }

    /// The EXPLAIN/profile report: phase timings, whole-run totals,
    /// and per-plan observed costs sorted by time (descending, plan
    /// order on ties).
    ///
    /// The eval phase is split with the timers already taken: `plans` is
    /// the sum of the per-plan times (the joins, up to handing each
    /// emission over), and the rest of the phase — merging emissions
    /// into the relations, the frontier or Δ bookkeeping between plans
    /// — is printed per emission as `merge+queue`. A maintenance delete that
    /// marked anything adds a `delete:` line: the cone, the rows taken
    /// out, how many of them the rederive brought back, and the cone's
    /// share of the relations it was marked in.
    pub fn explain(&self) -> String {
        let ms = |ns: u64| ns as f64 / 1e6;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "== eval profile: strategy={}, steps={}, threads={} ==",
            self.strategy, self.steps, self.threads
        );
        let p = &self.phases;
        let plans: u64 = self.rules.iter().map(|r| r.time_ns).sum();
        let _ = writeln!(
            s,
            "phases (ms): setup {:.3} (load {:.3}) | edb index {:.3} | arrange {:.3} | \
             eval {:.3} (plans {:.3}) | mint {:.3} | decode {:.3}",
            ms(p.setup),
            ms(p.load),
            ms(p.edb_index),
            ms(p.arrange),
            ms(p.eval),
            ms(plans),
            ms(p.mint),
            ms(p.decode)
        );
        let c = &self.counters;
        let emissions = c.emits + c.fresh_emits;
        if emissions > 0 {
            let rest = p.eval.saturating_sub(plans);
            let _ = writeln!(
                s,
                "merge+queue (eval - plans): {:.3} ms / {} emissions = {:.1} ns per emission",
                ms(rest),
                emissions,
                rest as f64 / emissions as f64
            );
        }
        let _ = writeln!(
            s,
            "totals: delta rows {} | emits {} (fresh {}) | probes {} (merge {} / hash {}) | \
             scanned {} | inserted {} | improved {} | absorbed {} | sv-shortcircuits {} | \
             minted {} | batches merged {}",
            c.delta_rows,
            c.emits,
            c.fresh_emits,
            c.index_probes,
            c.merge_join_steps,
            c.hash_join_steps,
            c.tuples_scanned,
            c.rows_inserted,
            c.rows_improved,
            c.merges_absorbed,
            c.set_valued_shortcircuits,
            c.minted_ids,
            c.arrange_batches_merged
        );
        if c.cone_rows > 0 {
            // A delete that touched something: how much of the state it
            // took out and put back, and what share of the relations it
            // marked in that was.
            let _ = writeln!(
                s,
                "delete: marked {} rows | retracted {} | re-inserted {} | cone {:.1} % of {} rows",
                c.cone_rows,
                c.rows_retracted,
                c.rows_inserted,
                100.0 * c.cone_rows as f64 / c.cone_of_rows.max(1) as f64,
                c.cone_of_rows
            );
        }
        if !self.rules.is_empty() {
            let _ = writeln!(s, "per-plan costs (by observed time):");
            let mut order: Vec<usize> = (0..self.rules.len()).collect();
            order.sort_by(|&a, &b| {
                self.rules[b]
                    .time_ns
                    .cmp(&self.rules[a].time_ns)
                    .then(a.cmp(&b))
            });
            for i in order {
                let r = &self.rules[i];
                let _ = writeln!(
                    s,
                    "  [{:<8}] r{}  {:<40}  join {:<5} emits {:<10} probes {:<10} \
                     scanned {:<12} time {:.3}ms",
                    r.kind,
                    r.rule,
                    r.label,
                    if r.join.is_empty() { "-" } else { &r.join },
                    r.emits,
                    r.probes,
                    r.scanned,
                    ms(r.time_ns)
                );
            }
        }
        s
    }

    /// One-line JSON encoding (the shape [`json::parse`] round-trips).
    pub fn to_json(&self) -> String {
        let mut w = json::Writer::new();
        w.obj_open();
        w.str_field("strategy", &self.strategy);
        w.u64_field("steps", self.steps);
        w.u64_field("threads", self.threads);
        w.u64_field("tasks_spawned", self.tasks_spawned);
        w.u64_field("parallel_batches", self.parallel_batches);
        w.key("counters");
        write_counters(&mut w, &self.counters);
        w.key("phases");
        w.obj_open();
        w.u64_field("setup_ns", self.phases.setup);
        w.u64_field("load_ns", self.phases.load);
        w.u64_field("edb_index_ns", self.phases.edb_index);
        w.u64_field("arrange_ns", self.phases.arrange);
        w.u64_field("eval_ns", self.phases.eval);
        w.u64_field("mint_ns", self.phases.mint);
        w.u64_field("decode_ns", self.phases.decode);
        w.obj_close();
        w.key("iterations");
        w.arr_open();
        for it in &self.iterations {
            w.obj_open();
            it.write_fields(&mut w);
            w.obj_close();
        }
        w.arr_close();
        w.u64_field("iterations_dropped", self.iterations_dropped);
        w.key("rules");
        w.arr_open();
        for r in &self.rules {
            w.obj_open();
            w.u64_field("rule", r.rule);
            w.str_field("label", &r.label);
            w.str_field("kind", &r.kind);
            w.str_field("join", &r.join);
            w.u64_field("emits", r.emits);
            w.u64_field("fresh_emits", r.fresh_emits);
            w.u64_field("probes", r.probes);
            w.u64_field("scanned", r.scanned);
            w.u64_field("time_ns", r.time_ns);
            w.obj_close();
        }
        w.arr_close();
        w.obj_close();
        w.finish()
    }
}

fn write_counters(w: &mut json::Writer, c: &Counters) {
    w.obj_open();
    w.u64_field("delta_rows", c.delta_rows);
    w.u64_field("emits", c.emits);
    w.u64_field("fresh_emits", c.fresh_emits);
    w.u64_field("index_probes", c.index_probes);
    w.u64_field("merge_join_steps", c.merge_join_steps);
    w.u64_field("hash_join_steps", c.hash_join_steps);
    w.u64_field("arrange_batches_merged", c.arrange_batches_merged);
    w.u64_field("tuples_scanned", c.tuples_scanned);
    w.u64_field("rows_inserted", c.rows_inserted);
    w.u64_field("rows_improved", c.rows_improved);
    w.u64_field("merges_absorbed", c.merges_absorbed);
    w.u64_field("set_valued_shortcircuits", c.set_valued_shortcircuits);
    w.u64_field("minted_ids", c.minted_ids);
    w.u64_field("budget_checks", c.budget_checks);
    w.u64_field("cancel_polls", c.cancel_polls);
    w.u64_field("cone_rows", c.cone_rows);
    w.u64_field("cone_of_rows", c.cone_of_rows);
    w.u64_field("rows_retracted", c.rows_retracted);
    w.obj_close();
}

impl IterStat {
    /// Writes the nine fields into the object `w` has open — the one
    /// encoding of a snapshot, shared by [`EvalStats::to_json`]'s
    /// `iterations` and the engine's `iteration` trace event.
    pub fn write_fields(&self, w: &mut json::Writer) {
        w.u64_field("step", self.step);
        w.u64_field("delta_rows", self.delta_rows);
        w.u64_field("queue_depth", self.queue_depth);
        w.u64_field("emits", self.emits);
        w.u64_field("fresh_emits", self.fresh_emits);
        w.u64_field("inserted", self.inserted);
        w.u64_field("improved", self.improved);
        w.u64_field("absorbed", self.absorbed);
        w.u64_field("minted", self.minted);
    }
}

pub mod json {
    //! A minimal JSON writer/parser pair — just enough for the
    //! telemetry formats (objects, arrays, strings, booleans, and
    //! non-negative integer numbers), with no dependencies. The parser
    //! exists so trace files and stats blocks can be round-trip
    //! *tested* (and validated by the benchmark guard) without serde.

    /// An incremental JSON writer with automatic comma placement.
    #[derive(Default)]
    pub struct Writer {
        buf: String,
        need_comma: Vec<bool>,
    }

    impl Writer {
        /// A fresh writer.
        pub fn new() -> Writer {
            Writer::default()
        }

        fn pre_value(&mut self) {
            if let Some(flag) = self.need_comma.last_mut() {
                if *flag {
                    self.buf.push(',');
                }
                *flag = true;
            }
        }

        /// Opens an object (`{`).
        pub fn obj_open(&mut self) {
            self.pre_value();
            self.buf.push('{');
            self.need_comma.push(false);
        }

        /// Closes an object (`}`).
        pub fn obj_close(&mut self) {
            self.need_comma.pop();
            self.buf.push('}');
        }

        /// Opens an array (`[`).
        pub fn arr_open(&mut self) {
            self.pre_value();
            self.buf.push('[');
            self.need_comma.push(false);
        }

        /// Closes an array (`]`).
        pub fn arr_close(&mut self) {
            self.need_comma.pop();
            self.buf.push(']');
        }

        /// Writes an object key; the next value call supplies its value.
        pub fn key(&mut self, k: &str) {
            self.pre_value();
            escape_into(&mut self.buf, k);
            self.buf.push(':');
            // The upcoming value must not emit another comma.
            if let Some(flag) = self.need_comma.last_mut() {
                *flag = false;
            }
        }

        /// Writes `"k": "v"`.
        pub fn str_field(&mut self, k: &str, v: &str) {
            self.key(k);
            self.pre_value();
            escape_into(&mut self.buf, v);
        }

        /// Writes `"k": n`.
        pub fn u64_field(&mut self, k: &str, n: u64) {
            self.key(k);
            self.pre_value();
            let _ = std::fmt::Write::write_fmt(&mut self.buf, format_args!("{n}"));
        }

        /// Writes `"k": true|false`.
        pub fn bool_field(&mut self, k: &str, b: bool) {
            self.key(k);
            self.pre_value();
            self.buf.push_str(if b { "true" } else { "false" });
        }

        /// The accumulated JSON text.
        pub fn finish(self) -> String {
            self.buf
        }
    }

    fn escape_into(buf: &mut String, s: &str) {
        buf.push('"');
        for c in s.chars() {
            match c {
                '"' => buf.push_str("\\\""),
                '\\' => buf.push_str("\\\\"),
                '\n' => buf.push_str("\\n"),
                '\r' => buf.push_str("\\r"),
                '\t' => buf.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    let _ = std::fmt::Write::write_fmt(buf, format_args!("\\u{:04x}", c as u32));
                }
                c => buf.push(c),
            }
        }
        buf.push('"');
    }

    /// A parsed JSON value.
    #[derive(Clone, Debug, PartialEq)]
    pub enum Value {
        /// `null`.
        Null,
        /// `true` / `false`.
        Bool(bool),
        /// Any number (integers round-trip exactly up to 2⁵³).
        Num(f64),
        /// A string.
        Str(String),
        /// An array.
        Arr(Vec<Value>),
        /// An object, insertion-ordered.
        Obj(Vec<(String, Value)>),
    }

    impl Value {
        /// Object-field lookup (first match), `None` on non-objects.
        pub fn get(&self, key: &str) -> Option<&Value> {
            match self {
                Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
                _ => None,
            }
        }

        /// The value as a `u64`, if it is a non-negative integer number.
        pub fn as_u64(&self) -> Option<u64> {
            match self {
                Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
                _ => None,
            }
        }

        /// The value as an `f64` number.
        pub fn as_f64(&self) -> Option<f64> {
            match self {
                Value::Num(n) => Some(*n),
                _ => None,
            }
        }

        /// The value as a string slice.
        pub fn as_str(&self) -> Option<&str> {
            match self {
                Value::Str(s) => Some(s),
                _ => None,
            }
        }

        /// The value as an array slice.
        pub fn as_arr(&self) -> Option<&[Value]> {
            match self {
                Value::Arr(items) => Some(items),
                _ => None,
            }
        }
    }

    /// Parses one JSON document, rejecting trailing garbage.
    pub fn parse(text: &str) -> Result<Value, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let v = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing characters at byte {pos}"));
        }
        Ok(v)
    }

    fn skip_ws(b: &[u8], pos: &mut usize) {
        while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
            *pos += 1;
        }
    }

    fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
        skip_ws(b, pos);
        if *pos < b.len() && b[*pos] == c {
            *pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", c as char, pos))
        }
    }

    fn parse_value(b: &[u8], pos: &mut usize) -> Result<Value, String> {
        skip_ws(b, pos);
        match b.get(*pos) {
            None => Err("unexpected end of input".into()),
            Some(b'{') => {
                *pos += 1;
                let mut fields = vec![];
                skip_ws(b, pos);
                if b.get(*pos) == Some(&b'}') {
                    *pos += 1;
                    return Ok(Value::Obj(fields));
                }
                loop {
                    skip_ws(b, pos);
                    let key = match parse_value(b, pos)? {
                        Value::Str(s) => s,
                        other => return Err(format!("object key must be a string, got {other:?}")),
                    };
                    expect(b, pos, b':')?;
                    let val = parse_value(b, pos)?;
                    fields.push((key, val));
                    skip_ws(b, pos);
                    match b.get(*pos) {
                        Some(b',') => *pos += 1,
                        Some(b'}') => {
                            *pos += 1;
                            return Ok(Value::Obj(fields));
                        }
                        _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
                    }
                }
            }
            Some(b'[') => {
                *pos += 1;
                let mut items = vec![];
                skip_ws(b, pos);
                if b.get(*pos) == Some(&b']') {
                    *pos += 1;
                    return Ok(Value::Arr(items));
                }
                loop {
                    items.push(parse_value(b, pos)?);
                    skip_ws(b, pos);
                    match b.get(*pos) {
                        Some(b',') => *pos += 1,
                        Some(b']') => {
                            *pos += 1;
                            return Ok(Value::Arr(items));
                        }
                        _ => return Err(format!("expected ',' or ']' at byte {pos}")),
                    }
                }
            }
            Some(b'"') => {
                *pos += 1;
                let mut s = String::new();
                loop {
                    match b.get(*pos) {
                        None => return Err("unterminated string".into()),
                        Some(b'"') => {
                            *pos += 1;
                            return Ok(Value::Str(s));
                        }
                        Some(b'\\') => {
                            *pos += 1;
                            match b.get(*pos) {
                                Some(b'"') => s.push('"'),
                                Some(b'\\') => s.push('\\'),
                                Some(b'/') => s.push('/'),
                                Some(b'n') => s.push('\n'),
                                Some(b'r') => s.push('\r'),
                                Some(b't') => s.push('\t'),
                                Some(b'u') => {
                                    let hex =
                                        b.get(*pos + 1..*pos + 5).ok_or("truncated \\u escape")?;
                                    let code = u32::from_str_radix(
                                        std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                                        16,
                                    )
                                    .map_err(|_| "bad \\u escape")?;
                                    s.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                                    *pos += 4;
                                }
                                other => return Err(format!("bad escape {other:?}")),
                            }
                            *pos += 1;
                        }
                        Some(_) => {
                            // Consume one UTF-8 scalar.
                            let rest = &b[*pos..];
                            let text =
                                std::str::from_utf8(rest).map_err(|_| "invalid UTF-8 in string")?;
                            let c = text.chars().next().unwrap();
                            s.push(c);
                            *pos += c.len_utf8();
                        }
                    }
                }
            }
            Some(b't') if b[*pos..].starts_with(b"true") => {
                *pos += 4;
                Ok(Value::Bool(true))
            }
            Some(b'f') if b[*pos..].starts_with(b"false") => {
                *pos += 5;
                Ok(Value::Bool(false))
            }
            Some(b'n') if b[*pos..].starts_with(b"null") => {
                *pos += 4;
                Ok(Value::Null)
            }
            Some(_) => {
                let start = *pos;
                if b.get(*pos) == Some(&b'-') {
                    *pos += 1;
                }
                while *pos < b.len()
                    && matches!(b[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
                {
                    *pos += 1;
                }
                let text = std::str::from_utf8(&b[start..*pos]).map_err(|_| "bad number")?;
                text.parse::<f64>()
                    .map(Value::Num)
                    .map_err(|e| format!("bad number {text:?}: {e}"))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_json_round_trips_through_the_parser() {
        let mut stats = EvalStats {
            strategy: "seminaive".into(),
            steps: 7,
            threads: 2,
            ..EvalStats::default()
        };
        stats.counters.emits = 41;
        stats.counters.rows_inserted = 13;
        stats.phases.setup = 900;
        stats.phases.load = 600;
        stats.phases.eval = 100;
        assert_eq!(stats.phases.total(), 1000, "load sits inside setup");
        stats.push_iteration(IterStat {
            step: 0,
            delta_rows: 5,
            emits: 41,
            inserted: 13,
            ..IterStat::default()
        });
        stats.rules.push(RuleProfile {
            rule: 0,
            label: "T :- T * E".into(),
            kind: "delta".into(),
            emits: 41,
            probes: 9,
            ..RuleProfile::default()
        });
        let parsed = json::parse(&stats.to_json()).expect("valid JSON");
        assert_eq!(parsed.get("strategy").unwrap().as_str(), Some("seminaive"));
        assert_eq!(parsed.get("steps").unwrap().as_u64(), Some(7));
        let counters = parsed.get("counters").unwrap();
        assert_eq!(counters.get("emits").unwrap().as_u64(), Some(41));
        let phases = parsed.get("phases").unwrap();
        assert_eq!(phases.get("setup_ns").unwrap().as_u64(), Some(900));
        assert_eq!(phases.get("load_ns").unwrap().as_u64(), Some(600));
        stats.rules[0].time_ns = 18;
        let report = stats.explain();
        assert!(report.contains("setup 0.001 (load 0.001)"));
        // (100 − 18) ns of eval outside the plans over 41 emissions.
        assert!(report.contains("= 2.0 ns per emission"), "{report}");
        let iters = parsed.get("iterations").unwrap().as_arr().unwrap();
        assert_eq!(iters.len(), 1);
        assert_eq!(iters[0].get("inserted").unwrap().as_u64(), Some(13));
        let rules = parsed.get("rules").unwrap().as_arr().unwrap();
        assert_eq!(rules[0].get("label").unwrap().as_str(), Some("T :- T * E"));
    }

    #[test]
    fn governance_counters_round_trip_and_diff() {
        let mut stats = EvalStats::default();
        stats.counters.budget_checks = 9;
        stats.counters.cancel_polls = 4;
        let parsed = json::parse(&stats.to_json()).unwrap();
        let counters = parsed.get("counters").unwrap();
        assert_eq!(counters.get("budget_checks").unwrap().as_u64(), Some(9));
        assert_eq!(counters.get("cancel_polls").unwrap().as_u64(), Some(4));
        let earlier = Counters {
            budget_checks: 2,
            cancel_polls: 1,
            ..Counters::default()
        };
        let d = stats.counters.since(&earlier);
        assert_eq!(d.budget_checks, 7);
        assert_eq!(d.cancel_polls, 3);
        let mut sum = Counters::default();
        sum.add(&stats.counters);
        assert_eq!(sum.budget_checks, 9);
        assert_eq!(sum.cancel_polls, 4);
    }

    #[test]
    fn delete_counters_sum_and_diff_like_the_rest() {
        // A benchmark cycle sums its edits' counters with `add`; the
        // per-step snapshots diff them with `since`.
        let edit = Counters {
            cone_rows: 7,
            rows_retracted: 5,
            ..Counters::default()
        };
        let mut cycle = edit;
        cycle.add(&edit);
        assert_eq!((cycle.cone_rows, cycle.rows_retracted), (14, 10));
        assert_eq!(cycle.since(&edit), edit);
    }

    #[test]
    fn invariants_zeroes_environmental_fields_only() {
        let mut stats = EvalStats {
            strategy: "worklist".into(),
            steps: 3,
            threads: 8,
            tasks_spawned: 40,
            parallel_batches: 2,
            ..EvalStats::default()
        };
        stats.phases.eval = 999;
        stats.counters.emits = 17;
        stats.counters.merge_join_steps = 5;
        stats.counters.arrange_batches_merged = 2;
        stats.rules.push(RuleProfile {
            time_ns: 555,
            emits: 17,
            join: "merge".into(),
            ..RuleProfile::default()
        });
        let inv = stats.invariants();
        assert_eq!(inv.threads, 0);
        assert_eq!(inv.tasks_spawned, 0);
        assert_eq!(inv.phases, PhaseNanos::default());
        assert_eq!(inv.rules[0].time_ns, 0);
        assert_eq!(inv.counters.emits, 17);
        // Probe attribution is a function of the program: kept.
        assert_eq!(inv.counters.merge_join_steps, 5);
        assert_eq!(inv.counters.arrange_batches_merged, 2);
        assert_eq!(inv.rules[0].join, "merge");
        assert_eq!(inv.strategy, "worklist");
        assert_eq!(inv.steps, 3);
    }

    #[test]
    fn string_escaping_survives_the_round_trip() {
        let mut w = json::Writer::new();
        w.obj_open();
        w.str_field("label", "a \"quoted\"\nlabel\twith\\slashes");
        w.obj_close();
        let parsed = json::parse(&w.finish()).unwrap();
        assert_eq!(
            parsed.get("label").unwrap().as_str(),
            Some("a \"quoted\"\nlabel\twith\\slashes")
        );
    }
}
