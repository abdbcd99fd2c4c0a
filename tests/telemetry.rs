//! PR 6 observability surface: structured trace events reach the
//! configured sink, the `DLO_TRACE` JSONL fallback produces parseable
//! lines, `explain()` attributes time and emissions to compiled rules,
//! and every public evaluation entry point returns populated
//! [`EvalStats`] — all without changing any result (the determinism
//! legs live in `backend_matrix.rs` / `proptest_engine.rs`).

use datalog_o::core::eval::stats::json;
use datalog_o::core::examples_lib as ex;
use datalog_o::core::{parse_query, BoolDatabase, Database};
use datalog_o::engine::{JsonlSink, MemorySink, TraceEvent, TraceHandle};
use datalog_o::pops::Trop;
use datalog_o::{
    engine_eval_interned, engine_query_eval_with_opts, EngineOpts, JoinMode, Naive, SemiNaive,
    Strategy,
};

const CAP: usize = 100_000;

/// Serializes the tests whose assertions depend on per-iteration
/// snapshot counts with the one that sets `DLO_STATS_SAMPLE`
/// process-wide (test threads share the environment).
static SNAPSHOT_ENV: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn snapshot_env_guard() -> std::sync::MutexGuard<'static, ()> {
    SNAPSHOT_ENV.lock().unwrap_or_else(|e| e.into_inner())
}

fn sssp() -> (datalog_o::core::Program<Trop>, Database<Trop>) {
    ex::sssp_trop("a")
}

/// A [`MemorySink`] handed through [`EngineOpts::trace`] receives the
/// full structured event stream: `RunStart`, one `Phase` per timed
/// non-loop phase, one `Iteration` per recorded step (matching the
/// stats' iteration snapshots), and a final converged `RunEnd`.
#[test]
fn memory_sink_receives_structured_event_stream() {
    let _env = snapshot_env_guard();
    let (program, edb) = sssp();
    let bools = BoolDatabase::new();
    for strategy in [Strategy::SemiNaive, Strategy::Worklist, Strategy::Priority] {
        let sink = MemorySink::default();
        let opts = EngineOpts {
            trace: Some(TraceHandle::new(sink.clone())),
            ..EngineOpts::default()
        };
        let out =
            engine_eval_interned(&program, &edb, &bools, CAP, strategy, &opts).expect("compiles");
        let stats = out.stats();
        let events = sink.events();
        let Some(TraceEvent::RunStart {
            strategy: name,
            threads,
        }) = events.first()
        else {
            panic!("{strategy:?}: stream must open with RunStart, got {events:?}");
        };
        assert_eq!(
            name, &stats.strategy,
            "{strategy:?}: RunStart names the strategy"
        );
        assert_eq!(
            *threads, stats.threads,
            "{strategy:?}: RunStart names the pool size"
        );
        let Some(TraceEvent::RunEnd { steps, converged }) = events.last() else {
            panic!("{strategy:?}: stream must close with RunEnd");
        };
        assert!(*converged, "{strategy:?}: SSSP converges");
        assert_eq!(
            *steps, stats.steps,
            "{strategy:?}: RunEnd steps match stats"
        );
        let iterations: Vec<_> = events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Iteration(it) => Some(*it),
                _ => None,
            })
            .collect();
        assert_eq!(
            iterations, stats.iterations,
            "{strategy:?}: traced iterations mirror the stats snapshots"
        );
        assert!(
            events
                .iter()
                .any(|e| matches!(e, TraceEvent::Phase { name, .. } if name == "edb_index")),
            "{strategy:?}: EDB index phase is traced"
        );
    }
}

/// The file sink writes one JSON object per line; every line parses
/// with the in-tree parser, and the decoded events round-trip the run
/// boundaries. This is the `DLO_TRACE=out.jsonl` format, exercised
/// here through an explicit handle so parallel tests cannot interleave
/// streams in one file.
#[test]
fn jsonl_sink_round_trips_through_the_parser() {
    let _env = snapshot_env_guard();
    let (program, edb) = sssp();
    let bools = BoolDatabase::new();
    let path = std::env::temp_dir().join(format!("dlo_trace_test_{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let sink = JsonlSink::create(&path).expect("temp trace file");
    let opts = EngineOpts {
        trace: Some(TraceHandle::new(sink)),
        ..EngineOpts::default()
    };
    let out = engine_eval_interned(&program, &edb, &bools, CAP, Strategy::Priority, &opts)
        .expect("compiles");
    drop(opts); // drop the handle so the writer flushes before we read
    let text = std::fs::read_to_string(&path).expect("trace file written");
    let _ = std::fs::remove_file(&path);
    let lines: Vec<&str> = text.lines().filter(|l| !l.is_empty()).collect();
    assert!(!lines.is_empty(), "traced run must write events");
    let mut kinds = vec![];
    for line in &lines {
        let v = json::parse(line).unwrap_or_else(|e| panic!("bad JSONL line {line:?}: {e}"));
        let kind = v.get("event").and_then(|e| e.as_str()).expect("event tag");
        kinds.push(kind.to_string());
    }
    assert_eq!(kinds.first().map(String::as_str), Some("run_start"));
    assert_eq!(kinds.last().map(String::as_str), Some("run_end"));
    let iteration_lines = kinds.iter().filter(|k| *k == "iteration").count();
    assert_eq!(
        iteration_lines,
        out.stats().iterations.len(),
        "one iteration line per recorded step"
    );
    // The stats block itself speaks the same JSON dialect.
    let stats_json = json::parse(&out.stats().to_json()).expect("stats JSON parses");
    assert_eq!(
        stats_json.get("steps").and_then(|v| v.as_u64()),
        Some(out.stats().steps)
    );
}

/// `explain()` renders a per-rule profile: every compiled plan of the
/// SSSP program shows up with its rule skeleton, and the phase/counter
/// headline agrees with the raw stats.
#[test]
fn explain_attributes_work_to_rules() {
    let (program, edb) = sssp();
    let bools = BoolDatabase::new();
    let out = engine_eval_interned(
        &program,
        &edb,
        &bools,
        CAP,
        Strategy::Auto,
        &EngineOpts::default(),
    )
    .expect("compiles");
    let stats = out.stats();
    let report = stats.explain();
    assert!(
        report.contains(&stats.strategy),
        "explain names the strategy:\n{report}"
    );
    assert!(!stats.rules.is_empty(), "per-rule profiles populated");
    for rule in &stats.rules {
        assert!(
            report.contains(&rule.label),
            "explain lists rule {:?}:\n{report}",
            rule.label
        );
    }
    // The SSSP recursion joins L with E — some profiled plan says so.
    assert!(
        stats
            .rules
            .iter()
            .any(|r| r.label.contains("L") && r.label.contains("E")),
        "rule labels carry the program skeleton: {:?}",
        stats.rules
    );
    let emitted: u64 = stats.rules.iter().map(|r| r.emits + r.fresh_emits).sum();
    assert_eq!(
        emitted,
        stats.counters.emits + stats.counters.fresh_emits,
        "per-rule emissions sum to the run totals"
    );
}

/// The join-strategy telemetry added with the sorted arrangements:
/// forcing merge joins routes every probing step through
/// `merge_join_steps` (and times the `arrange` phase leg), forcing hash
/// joins routes them all through `hash_join_steps`, the two always sum
/// to `index_probes`, `explain()` tags each probing rule with the
/// resolved strategy, and the stats JSON carries the new fields.
#[test]
fn join_mode_telemetry_attributes_probes_and_arranges() {
    // Quadratic TC probes the *IDB* on both sides of the recursive
    // join, so forced merge mode arranges per-iteration relations (the
    // `arrange` phase leg) rather than only the static EDB.
    let program = ex::quadratic_tc_program::<Trop>();
    let mut edb = Database::new();
    edb.insert(
        "E",
        datalog_o::core::Relation::from_pairs(
            2,
            ["a", "b", "c", "d"]
                .windows(2)
                .map(|w| (vec![w[0].into(), w[1].into()], Trop::finite(1.0))),
        ),
    );
    let bools = BoolDatabase::new();
    let run = |mode: JoinMode| {
        engine_eval_interned(
            &program,
            &edb,
            &bools,
            CAP,
            Strategy::SemiNaive,
            &EngineOpts {
                join_mode: Some(mode),
                ..EngineOpts::default()
            },
        )
        .expect("compiles")
    };

    let merged = run(JoinMode::Merge);
    let hashed = run(JoinMode::Hash);
    assert_eq!(
        merged.output().materialize(),
        hashed.output().materialize(),
        "join mode is a performance knob, not a semantics knob"
    );

    let mc = &merged.stats().counters;
    assert!(mc.merge_join_steps > 0, "forced merge probes arrangements");
    assert_eq!(mc.hash_join_steps, 0, "forced merge never hash-probes");
    assert_eq!(
        mc.merge_join_steps + mc.hash_join_steps,
        mc.index_probes,
        "the split partitions the probe total"
    );
    // The naive driver re-arranges the rebuilt IDB every iteration, so
    // its forced-merge runs must bank arrange-phase time. (Semi-naïve
    // maintains arrangements incrementally inside row insertion —
    // counted by `arrange_batches_merged`, not timed.)
    let naive = engine_eval_interned(
        &program,
        &edb,
        &bools,
        CAP,
        Naive,
        &EngineOpts {
            join_mode: Some(JoinMode::Merge),
            ..EngineOpts::default()
        },
    )
    .expect("compiles");
    assert!(
        naive.stats().phases.arrange > 0,
        "arrangement builds are timed under their own phase leg"
    );
    assert_eq!(naive.output().materialize(), merged.output().materialize());

    let hc = &hashed.stats().counters;
    assert!(hc.hash_join_steps > 0, "forced hash probes prefix indexes");
    assert_eq!(hc.merge_join_steps, 0, "forced hash never merge-probes");
    assert_eq!(hc.merge_join_steps + hc.hash_join_steps, hc.index_probes);
    assert_eq!(
        mc.index_probes, hc.index_probes,
        "the probe total is mode-invariant"
    );

    // explain() tags each probing rule with the strategy it resolved to.
    assert!(
        merged.stats().rules.iter().any(|r| r.join == "merge"),
        "merge-mode profile tags rules: {:?}",
        merged.stats().rules
    );
    assert!(
        hashed.stats().rules.iter().any(|r| r.join == "hash"),
        "hash-mode profile tags rules: {:?}",
        hashed.stats().rules
    );
    assert!(
        merged.stats().explain().contains("merge"),
        "explain renders the join tag"
    );

    // The JSON dialect carries the new counters and the arrange leg.
    let v = json::parse(&merged.stats().to_json()).expect("stats JSON parses");
    let counters = v.get("counters").expect("counters object");
    assert_eq!(
        counters.get("merge_join_steps").and_then(|x| x.as_u64()),
        Some(mc.merge_join_steps)
    );
    assert_eq!(
        counters.get("hash_join_steps").and_then(|x| x.as_u64()),
        Some(mc.hash_join_steps)
    );
    assert!(
        counters.get("arrange_batches_merged").is_some(),
        "spine-merge counter serialized"
    );
    let phases = v.get("phases").expect("phases object");
    assert_eq!(
        phases.get("arrange_ns").and_then(|x| x.as_u64()),
        Some(merged.stats().phases.arrange)
    );
}

/// Every public evaluation entry point — full and query-seeded, over a
/// classic and an interned EDB — under every schedule returns stats
/// with the strategy name, a step count, and emission counters filled
/// in.
#[test]
fn every_entry_point_returns_populated_stats() {
    fn legs_of<S: datalog_o::Schedule<Trop> + std::fmt::Debug>(
        schedule: S,
        legs: &mut Vec<(String, datalog_o::EvalStats)>,
    ) {
        let (program, edb) = sssp();
        let bools = BoolDatabase::new();
        let opts = EngineOpts::default();
        let query = parse_query("?- L(d).").unwrap();
        let full =
            engine_eval_interned(&program, &edb, &bools, CAP, schedule, &opts).expect("compiles");
        let prev = full.output();
        let chained =
            datalog_o::engine_eval_interned_edb(&program, prev, &edb, &bools, CAP, schedule, &opts)
                .expect("compiles");
        let asked =
            engine_query_eval_with_opts(&program, &query, &edb, &bools, CAP, schedule, &opts)
                .expect("compiles");
        let asked_chained = datalog_o::engine_query_eval_interned_edb(
            &program, &query, prev, &edb, &bools, CAP, schedule, &opts,
        )
        .expect("compiles");
        for (entry, stats) in [
            ("engine_eval_interned", full.stats()),
            ("engine_eval_interned_edb", chained.stats()),
            ("engine_query_eval_with_opts", asked.stats()),
            ("engine_query_eval_interned_edb", asked_chained.stats()),
        ] {
            legs.push((format!("{entry}/{schedule:?}"), stats.clone()));
        }
    }
    let mut legs = vec![];
    legs_of(Naive, &mut legs);
    legs_of(SemiNaive, &mut legs);
    for strategy in [Strategy::SemiNaive, Strategy::Worklist, Strategy::Priority] {
        legs_of(strategy, &mut legs);
    }
    for (leg, stats) in &legs {
        assert!(!stats.strategy.is_empty(), "{leg}: strategy recorded");
        assert!(stats.steps > 0, "{leg}: steps recorded");
        assert!(
            stats.counters.emits + stats.counters.fresh_emits > 0,
            "{leg}: emissions recorded"
        );
        assert!(stats.threads > 0, "{leg}: thread count recorded");
        assert!(
            !stats.iterations.is_empty(),
            "{leg}: iteration snapshots recorded"
        );
        // Query entry points pay the rewrite inside setup; everyone
        // times setup, and — the EDB being non-empty on every leg — the
        // load inside it.
        let phases = &stats.phases;
        assert!(phases.setup > 0, "{leg}: setup phase timed");
        assert!(phases.load > 0, "{leg}: EDB load timed");
        assert!(phases.load <= phases.setup, "{leg}: load is part of setup");
        assert_eq!(
            phases.total(),
            phases.setup
                + phases.edb_index
                + phases.arrange
                + phases.eval
                + phases.mint
                + phases.decode,
            "{leg}: load is not counted twice"
        );
        let report = stats.explain();
        assert!(
            report.contains(&format!("(load {:.3})", phases.load as f64 / 1e6)),
            "{leg}: explain shows the load inside setup:\n{report}"
        );
        let v = json::parse(&stats.to_json()).expect("stats JSON parses");
        assert_eq!(
            v.get("phases")
                .and_then(|p| p.get("load_ns"))
                .and_then(|x| x.as_u64()),
            Some(phases.load),
            "{leg}: load_ns serialized"
        );
    }
    // A maintenance edit loads nothing: its build did.
    let (program, edb) = sssp();
    let bools = BoolDatabase::new();
    let opts = EngineOpts::default();
    let mut live = datalog_o::Materialization::new(&program, &edb, &bools, CAP, Naive, &opts)
        .expect("compiles");
    let built = live.last_stats().phases;
    assert!(built.load > 0 && built.load <= built.setup, "build loads");
    let edge = live.edb().get("E").unwrap().support().next().unwrap();
    let fact = datalog_o::core::FactInsert::new("E", edge.0.clone(), *edge.1);
    let edit = live.insert(&[fact]).expect("edit applies").phases;
    assert_eq!(edit.load, 0, "edits load nothing");
}

/// The [`EngineOpts::iter_sample`] knob keeps every k-th per-iteration
/// snapshot: recorded steps are exactly those divisible by `k`,
/// sampled-out steps are accounted in `iterations_dropped`, `last_iter`
/// survives, an attached trace sink still streams **every** iteration,
/// and results are untouched.
#[test]
fn iter_sample_records_every_kth_snapshot() {
    let _env = snapshot_env_guard();
    // A 14-node chain: the semi-naïve loop takes one step per link, so
    // there are enough iterations for the stride to matter.
    let names: Vec<String> = (0..14).map(|i| format!("n{i}")).collect();
    let edges: Vec<(&str, &str)> = names
        .windows(2)
        .map(|w| (w[0].as_str(), w[1].as_str()))
        .collect();
    let (program, edb) = ex::sssp_trop_graph("n0", &edges, |i| 1.0 + i as f64);
    let bools = BoolDatabase::new();

    let full = engine_eval_interned(
        &program,
        &edb,
        &bools,
        CAP,
        Strategy::SemiNaive,
        &EngineOpts::default(),
    )
    .expect("compiles");
    let full_iters = &full.stats().iterations;
    assert!(
        full_iters.len() >= 10,
        "chain run yields enough iterations to sample: {}",
        full_iters.len()
    );

    let sink = MemorySink::default();
    let sampled = engine_eval_interned(
        &program,
        &edb,
        &bools,
        CAP,
        Strategy::SemiNaive,
        &EngineOpts {
            iter_sample: Some(3),
            trace: Some(TraceHandle::new(sink.clone())),
            ..EngineOpts::default()
        },
    )
    .expect("compiles");
    assert_eq!(
        full.output().materialize(),
        sampled.output().materialize(),
        "sampling never changes results"
    );
    let stats = sampled.stats();
    let expected: Vec<_> = full_iters
        .iter()
        .copied()
        .filter(|it| it.step % 3 == 0)
        .collect();
    assert_eq!(
        stats.iterations, expected,
        "recorded snapshots are exactly the steps divisible by the stride"
    );
    assert_eq!(
        stats.iterations_dropped as usize,
        full_iters.len() - expected.len(),
        "sampled-out steps are accounted as dropped"
    );
    assert_eq!(
        stats.last_iter,
        full.stats().last_iter,
        "the final step's snapshot survives sampling"
    );
    let traced = sink
        .events()
        .iter()
        .filter(|e| matches!(e, TraceEvent::Iteration(_)))
        .count();
    assert_eq!(
        traced,
        full_iters.len(),
        "the trace sink still streams every iteration"
    );
}

/// `DLO_STATS_SAMPLE` is the environment fallback for the same knob; an
/// explicit `iter_sample` wins over it.
#[test]
fn dlo_stats_sample_env_fallback() {
    let _env = snapshot_env_guard();
    let (program, edb) = sssp();
    let bools = BoolDatabase::new();
    std::env::set_var("DLO_STATS_SAMPLE", "2");
    let via_env = engine_eval_interned(
        &program,
        &edb,
        &bools,
        CAP,
        Strategy::SemiNaive,
        &EngineOpts::default(),
    )
    .expect("compiles");
    let explicit_wins = engine_eval_interned(
        &program,
        &edb,
        &bools,
        CAP,
        Strategy::SemiNaive,
        &EngineOpts {
            iter_sample: Some(1),
            ..EngineOpts::default()
        },
    )
    .expect("compiles");
    std::env::remove_var("DLO_STATS_SAMPLE");
    let unsampled = engine_eval_interned(
        &program,
        &edb,
        &bools,
        CAP,
        Strategy::SemiNaive,
        &EngineOpts::default(),
    )
    .expect("compiles");
    assert!(
        via_env.stats().iterations.iter().all(|it| it.step % 2 == 0),
        "env stride keeps even steps only"
    );
    assert!(
        via_env.stats().iterations.len() < unsampled.stats().iterations.len(),
        "env stride drops snapshots"
    );
    assert_eq!(
        explicit_wins.stats().iterations,
        unsampled.stats().iterations,
        "an explicit iter_sample overrides the environment"
    );
    assert_eq!(
        via_env.output().materialize(),
        unsampled.output().materialize(),
        "results unchanged"
    );
}

/// The `DLO_TRACE` environment fallback appends parseable JSONL without
/// an explicit handle. Runs in-process with other tests, so it only
/// asserts about lines (other engine tests do not set the variable, and
/// the variable is cleared before any of their runs could start here).
#[test]
fn dlo_trace_env_fallback_writes_jsonl() {
    let (program, edb) = sssp();
    let bools = BoolDatabase::new();
    let path = std::env::temp_dir().join(format!("dlo_trace_env_{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);
    std::env::set_var("DLO_TRACE", &path);
    let out = engine_eval_interned(
        &program,
        &edb,
        &bools,
        CAP,
        Strategy::Auto,
        &EngineOpts::default(),
    )
    .expect("compiles");
    std::env::remove_var("DLO_TRACE");
    assert!(out.is_converged());
    let text = std::fs::read_to_string(&path).expect("DLO_TRACE file written");
    let _ = std::fs::remove_file(&path);
    let mut saw_end = false;
    for line in text.lines().filter(|l| !l.is_empty()) {
        let v = json::parse(line).unwrap_or_else(|e| panic!("bad JSONL line {line:?}: {e}"));
        if v.get("event").and_then(|e| e.as_str()) == Some("run_end") {
            saw_end = true;
        }
    }
    assert!(saw_end, "stream contains a run_end event");
}
