//! PR 6 observability surface: structured trace events reach the
//! configured sink, the `DLO_TRACE` JSONL fallback produces parseable
//! lines, `explain()` attributes time and emissions to compiled rules,
//! and every public evaluation entry point returns populated
//! [`EvalStats`] — all without changing any result (the determinism
//! legs live in `backend_matrix.rs` / `proptest_engine.rs`).

use datalog_o::core::eval::stats::json;
use datalog_o::core::examples_lib as ex;
use datalog_o::core::{parse_program, parse_query, BoolDatabase, Database};
use datalog_o::engine::{JsonlSink, MemorySink, TraceEvent, TraceHandle};
use datalog_o::pops::Trop;
use datalog_o::{
    engine_eval_interned, engine_query_eval_with_opts, CancelToken, EngineOpts, EvalBudget,
    EvalError, Naive, SemiNaive, Strategy,
};

const CAP: usize = 100_000;

fn sssp() -> (datalog_o::core::Program<Trop>, Database<Trop>) {
    ex::sssp_trop("a")
}

/// A [`MemorySink`] handed through [`EngineOpts::trace`] receives the
/// full structured event stream: `RunStart`, one `Phase` per timed
/// non-loop phase, one `Iteration` per recorded step (matching the
/// stats' iteration snapshots), and a final converged `RunEnd`.
#[test]
fn memory_sink_receives_structured_event_stream() {
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

/// An iteration snapshot has one JSON encoding: the `iteration` events
/// of a traced run, less their `event` tag, are the objects of its
/// stats block's `iterations` array, field for field and in order.
#[test]
fn traced_iterations_encode_like_the_stats_iterations() {
    let (program, edb) = sssp();
    let bools = BoolDatabase::new();
    for strategy in [Strategy::SemiNaive, Strategy::Priority] {
        let sink = MemorySink::default();
        let opts = EngineOpts {
            trace: Some(TraceHandle::new(sink.clone())),
            ..EngineOpts::default()
        };
        let out =
            engine_eval_interned(&program, &edb, &bools, CAP, strategy, &opts).expect("compiles");
        let traced: Vec<json::Value> = sink
            .events()
            .iter()
            .map(|e| json::parse(&e.to_json()).expect("event JSON parses"))
            .filter_map(|v| match v {
                json::Value::Obj(mut fields) if is_iteration(&fields) => {
                    fields.remove(0);
                    Some(json::Value::Obj(fields))
                }
                _ => None,
            })
            .collect();
        let stats = json::parse(&out.stats().to_json()).expect("stats JSON parses");
        let recorded = stats.get("iterations").and_then(|v| v.as_arr());
        assert!(traced.len() > 1, "{strategy:?}: several steps traced");
        assert!(
            traced
                .iter()
                .any(|v| v.get("emits").and_then(|e| e.as_u64()) > Some(0)),
            "{strategy:?}: the snapshots carry counts"
        );
        assert_eq!(Some(traced.as_slice()), recorded, "{strategy:?}");
    }
    fn is_iteration(fields: &[(String, json::Value)]) -> bool {
        matches!(fields.first(), Some((k, json::Value::Str(tag))) if k == "event" && tag == "iteration")
    }
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

/// Probe attribution: every index probe is served by exactly one of the
/// two structures, so `merge_join_steps + hash_join_steps =
/// index_probes`, and which one is fixed by what is probed: a relation
/// that grows while it is read — every IDB, every Δ — by a hash-prefix
/// index at any arity, a bulk-loaded EDB relation wider than a packed
/// key by its sorted run. The quadratic closure (arity 2) and its
/// labelled arity-4 twin probe only their own IDB and run every probe on
/// `hash`; the linear labelled closure probes its arity-4 EDB and runs
/// every probe on `merge` — the one leg that sorts anything, so the one
/// leg whose `arrange` phase reads non-zero. No schedule merges batches
/// any more: `arrange_batches_merged` is 0 throughout. `explain()` tags
/// each probing rule with the structure, and the stats JSON carries the
/// fields.
#[test]
fn probe_telemetry_partitions_index_probes_by_structure() {
    let mut chain = Database::new();
    chain.insert(
        "E",
        datalog_o::core::Relation::from_pairs(
            2,
            ["a", "b", "c", "d"]
                .windows(2)
                .map(|w| (vec![w[0].into(), w[1].into()], Trop::finite(1.0))),
        ),
    );
    // Quadratic: both sides of the recursive join are the wide IDB.
    let labelled: datalog_o::core::Program<Trop> =
        parse_program("R(X, Y, A, B) :- E4(X, Y, A, B) + R(X, Z, A, B) * R(Z, Y, A, B).").unwrap();
    // Linear: the recursive join probes the wide EDB.
    let (labelled_linear, labels) = dlo_bench::labeled_tc4(2, 5);
    let workloads = [
        (
            "quadratic",
            "hash",
            ex::quadratic_tc_program::<Trop>(),
            chain,
        ),
        ("labelled quadratic", "hash", labelled, labels.clone()),
        ("labelled linear", "merge", labelled_linear, labels),
    ];
    let bools = BoolDatabase::new();
    for (leg, tag, program, edb) in &workloads {
        let tag = *tag;
        let opts = EngineOpts::default();
        let out = engine_eval_interned(program, edb, &bools, CAP, Strategy::SemiNaive, &opts)
            .expect("compiles");
        let naive =
            engine_eval_interned(program, edb, &bools, CAP, Naive, &opts).expect("compiles");
        assert_eq!(naive.output().materialize(), out.output().materialize());
        let stats = out.stats();
        let c = &stats.counters;
        for stats in [stats, naive.stats()] {
            let c = &stats.counters;
            assert!(c.index_probes > 0, "{leg}: the recursion probes");
            assert_eq!(
                c.merge_join_steps + c.hash_join_steps,
                c.index_probes,
                "{leg}: the split partitions the probe total"
            );
            let sorted = tag == "merge";
            let on_side = if sorted {
                c.merge_join_steps
            } else {
                c.hash_join_steps
            };
            assert_eq!(on_side, c.index_probes, "{leg}: every probe on one side");
            assert_eq!(c.arrange_batches_merged, 0, "{leg}: nothing merges runs");
            // The phase leg times the bulk sort of a probed wide EDB
            // relation and nothing else: a hash index build, over the
            // EDB or over a wide IDB, never banks time there.
            assert_eq!(stats.phases.arrange > 0, sorted, "{leg}: arrange leg");
        }

        // explain() tags each probing rule with its structure.
        let tags: Vec<&str> = stats.rules.iter().map(|r| r.join.as_str()).collect();
        assert!(
            tags.contains(&tag) && tags.iter().all(|t| *t == tag || *t == "scan"),
            "{leg}: profile tags rules: {tags:?}"
        );
        assert!(
            stats.explain().contains(tag),
            "{leg}: explain renders the tag"
        );

        // The JSON dialect carries the counters and the arrange leg.
        let v = json::parse(&stats.to_json()).expect("stats JSON parses");
        let counters = v.get("counters").expect("counters object");
        for (field, want) in [
            ("merge_join_steps", c.merge_join_steps),
            ("hash_join_steps", c.hash_join_steps),
            ("arrange_batches_merged", c.arrange_batches_merged),
        ] {
            assert_eq!(
                counters.get(field).and_then(|x| x.as_u64()),
                Some(want),
                "{leg}: {field} serialized"
            );
        }
        let phases = v.get("phases").expect("phases object");
        assert_eq!(
            phases.get("arrange_ns").and_then(|x| x.as_u64()),
            Some(stats.phases.arrange)
        );
    }
}

/// Both public evaluation entry points — full and query-seeded —
/// under every schedule return stats
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
        let asked =
            engine_query_eval_with_opts(&program, &query, &edb, &bools, CAP, schedule, &opts)
                .expect("compiles");
        for (entry, stats) in [
            ("engine_eval_interned", full.stats()),
            ("engine_query_eval_with_opts", asked.stats()),
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
        // One thread runs the plans, so the per-plan times are wall
        // time spent inside the eval phase: explain splits the phase
        // into the plans and, per emission, everything around them.
        assert_eq!(stats.tasks_spawned, 0, "{leg}: runs inline");
        let plans: u64 = stats.rules.iter().map(|r| r.time_ns).sum();
        assert!(
            plans <= phases.eval,
            "{leg}: plans ({plans} ns) run inside eval ({} ns)",
            phases.eval
        );
        let ms = |ns: u64| ns as f64 / 1e6;
        assert!(
            report.contains(&format!(
                "eval {:.3} (plans {:.3})",
                ms(phases.eval),
                ms(plans)
            )),
            "{leg}: explain shows the plans inside eval:\n{report}"
        );
        let split = report
            .lines()
            .find(|l| l.starts_with("merge+queue"))
            .unwrap_or_else(|| panic!("{leg}: explain prints the merge+queue line:\n{report}"));
        let per_emission: f64 = split
            .rsplit("= ")
            .next()
            .and_then(|tail| tail.strip_suffix(" ns per emission"))
            .and_then(|ns| ns.parse().ok())
            .unwrap_or_else(|| panic!("{leg}: {split:?} ends in a number of ns"));
        let emissions = stats.counters.emits + stats.counters.fresh_emits;
        let want = (phases.eval - plans) as f64 / emissions as f64;
        assert!(
            (per_emission - want).abs() < 0.06,
            "{leg}: {split:?} should read {want:.1}"
        );
        let v = json::parse(&stats.to_json()).expect("stats JSON parses");
        assert_eq!(
            v.get("phases")
                .and_then(|p| p.get("load_ns"))
                .and_then(|x| x.as_u64()),
            Some(phases.load),
            "{leg}: load_ns serialized"
        );
        // Nothing here retracts anything.
        let c = &stats.counters;
        assert_eq!((c.cone_rows, c.rows_retracted), (0, 0), "{leg}");
        assert!(!report.contains("delete:"), "{leg}:\n{report}");
    }
    // A maintenance edit loads nothing: its build did.
    let (program, edb) = sssp();
    let bools = BoolDatabase::new();
    let opts = EngineOpts::default();
    let mut live = datalog_o::Materialization::new(&program, &edb, &bools, CAP, Naive, &opts)
        .expect("compiles");
    let built = live.last_stats().phases;
    assert!(built.load > 0 && built.load <= built.setup, "build loads");
    let edb = live.edb();
    let edge = edb.get("E").unwrap().support().next().unwrap();
    let fact = datalog_o::core::FactInsert::new("E", edge.0.clone(), *edge.1);
    let edit = live.insert(&[fact]).expect("edit applies").phases;
    assert_eq!(edit.load, 0, "edits load nothing");
}

/// What a delete touched is on its stats: the rows its marking pass put
/// in the cone, the rows it dropped, and — `rows_inserted` — how many of
/// them the rederive brought back, all three on one `explain()` line.
/// Builds, inserts and no-op deletes retract nothing and read 0. SSSP
/// on the Fig. 2(a) graph with a leaf `d → e` hung on it: cutting the
/// leaf touches one row; cutting `a → b` reaches all of them — the
/// cycle through `b → a` would put even the source in the syntactic
/// cone. `Trop` is an absorptive chain, so every handle, whatever its
/// schedule, marks by attained value: the way round through `b → a`
/// costs more than the source's own `0`, so `L(a)` stays out and the
/// cone is the three rows whose shortest path did run over `a → b`.
#[test]
fn delete_stats_say_what_the_edit_touched() {
    use datalog_o::core::Edit;
    fn check<S: datalog_o::Schedule<Trop> + std::fmt::Debug>(
        schedule: S,
        cone: u64,
        reinserted: u64,
    ) {
        let (program, edb) = sssp();
        let bools = BoolDatabase::new();
        let opts = EngineOpts::default();
        let fact = |u: &str, v: &str| vec![u.into(), v.into()];
        let mut live =
            datalog_o::Materialization::new(&program, &edb, &bools, CAP, schedule, &opts)
                .expect("compiles");
        let untouched = |leg: &str, stats: &datalog_o::EvalStats| {
            let c = &stats.counters;
            assert_eq!(
                (c.cone_rows, c.rows_retracted),
                (0, 0),
                "{schedule:?} {leg}"
            );
            let v = json::parse(&stats.to_json()).expect("stats JSON parses");
            let counters = v.get("counters").expect("counters serialized");
            for field in ["cone_rows", "rows_retracted"] {
                assert_eq!(
                    counters.get(field).and_then(|x| x.as_u64()),
                    Some(0),
                    "{schedule:?} {leg}: {field}"
                );
            }
        };
        untouched("build", live.last_stats());
        assert!(!live.last_stats().explain().contains("delete:"));
        let stats = live
            .apply(&[Edit::insert("E", fact("d", "e"), Trop::finite(1.0))])
            .expect("insert applies");
        untouched("insert", stats);
        assert!(!stats.explain().contains("delete:"));
        let stats = live
            .apply(&[Edit::delete("E", fact("e", "a"))])
            .expect("deleting an absent fact is a no-op");
        untouched("no-op delete", stats);
        assert!(!stats.explain().contains("delete:"));

        // L(e) alone hangs on d→e: marked, dropped, gone.
        let stats = live
            .apply(&[Edit::delete("E", fact("d", "e"))])
            .expect("delete applies");
        let c = &stats.counters;
        assert_eq!(
            (c.cone_rows, c.rows_retracted, c.rows_inserted),
            (1, 1, 0),
            "{schedule:?}"
        );
        assert!(
            stats.explain().contains(
                "delete: marked 1 rows | retracted 1 | re-inserted 0 | cone 20.0 % of 5 rows"
            ),
            "{schedule:?}:\n{}",
            stats.explain()
        );
        // a→b feeds b, and through b→a, b→c and c→d every other row,
        // the source's own included: the syntactic cone would be all
        // four, the attaining one leaves the source out. b is gone for
        // good; c (by a→c) and d come back.
        let stats = live
            .apply(&[Edit::delete("E", fact("a", "b"))])
            .expect("delete applies")
            .clone();
        let c = &stats.counters;
        assert_eq!(
            (c.cone_rows, c.rows_retracted),
            (cone, cone),
            "{schedule:?}"
        );
        assert_eq!(c.cone_of_rows, 4, "{schedule:?}");
        assert_eq!(live.support_size("L"), 3, "{schedule:?}");
        assert_eq!(c.rows_inserted, reinserted, "{schedule:?}");
        assert!(
            stats.explain().contains(&format!(
                "delete: marked {cone} rows | retracted {cone} | re-inserted {reinserted}"
            )),
            "{schedule:?}:\n{}",
            stats.explain()
        );
        let v = json::parse(&stats.to_json()).expect("stats JSON parses");
        let counters = v.get("counters").expect("counters serialized");
        for field in ["cone_rows", "rows_retracted"] {
            assert_eq!(
                counters.get(field).and_then(|x| x.as_u64()),
                Some(cone),
                "{schedule:?}: {field}"
            );
        }
    }
    check(Naive, 3, 2);
    check(SemiNaive, 3, 2);
    for strategy in [Strategy::SemiNaive, Strategy::Worklist, Strategy::Priority] {
        check(strategy, 3, 2);
    }
}

/// A delete whose cone comes back reports each row once, where it
/// lands: on a 12-node unit ring the chord 0→6 at 0.5 shortens paths,
/// and deleting it zeroes them and re-derives every one. Under every
/// schedule the per-step `inserted` / `improved` rows of its stats, and
/// the `Iteration` events of its trace, sum to its totals.
#[test]
fn a_deletes_steps_add_up_to_its_totals() {
    use datalog_o::core::{Edit, Relation};
    fn check<S: datalog_o::Schedule<Trop> + std::fmt::Debug>(schedule: S) {
        let program = ex::apsp_program::<Trop>();
        let edge = |u: i64, v: i64| vec![u.into(), v.into()];
        let ring = (0..12).map(|i| (edge(i, (i + 1) % 12), Trop::finite(1.0)));
        let mut edb = Database::new();
        edb.insert("E", Relation::from_pairs(2, ring));
        let sink = MemorySink::default();
        let opts = EngineOpts {
            trace: Some(TraceHandle::new(sink.clone())),
            ..EngineOpts::default()
        };
        let bools = BoolDatabase::new();
        let mut live =
            datalog_o::Materialization::new(&program, &edb, &bools, CAP, schedule, &opts)
                .expect("compiles");
        live.apply(&[Edit::insert("E", edge(0, 6), Trop::finite(0.5))])
            .expect("insert applies");
        let seen = sink.events().len();
        let stats = live
            .apply(&[Edit::delete("E", edge(0, 6))])
            .expect("delete applies")
            .clone();
        let c = &stats.counters;
        assert!(c.rows_inserted > 0, "{schedule:?}: the cone comes back");
        let sum = |field: fn(&datalog_o::core::eval::stats::IterStat) -> u64| {
            stats.iterations.iter().map(field).sum::<u64>()
        };
        assert_eq!(
            (sum(|it| it.inserted), sum(|it| it.improved)),
            (c.rows_inserted, c.rows_improved),
            "{schedule:?}: per-step rows against the totals"
        );
        let traced: Vec<_> = sink.events()[seen..]
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Iteration(it) => Some(*it),
                _ => None,
            })
            .collect();
        assert_eq!(traced, stats.iterations, "{schedule:?}: traced steps");
    }
    check(Naive);
    check(SemiNaive);
    for strategy in [Strategy::SemiNaive, Strategy::Worklist, Strategy::Priority] {
        check(strategy);
    }
}

/// The whole option surface, destructured with no `..`: adding a field
/// to [`EngineOpts`] fails to compile here until its author has read
/// this. The rule (simplicity-review guide, *Options*): a field needs
/// two callers outside tests and examples that pass different values;
/// with one value in use it is a constant, and what the engine can work
/// out from its input it works out (which probe structure a relation
/// gets is decided by its arity, not set here).
#[test]
fn engine_opts_defaults_are_the_whole_option_surface() {
    let EngineOpts {
        threads,
        trace,
        budget,
        cancel,
    } = EngineOpts::default();
    assert_eq!(threads, None, "DLO_ENGINE_THREADS / available_parallelism");
    assert!(trace.is_none(), "DLO_TRACE, else tracing off");
    assert_eq!(budget, EvalBudget::unlimited());
    assert!(cancel.is_none());
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

/// Every governed stop streams exactly one `Abort` event: its `reason`
/// is the returned error's `Display`, its `granularity` names the
/// checkpoint that fired, and a non-converged `RunEnd` with the error's
/// step count closes the stream. Four stops, one per way in: a step
/// budget crossed at a semi-naïve round and a token cancelled before
/// the run (`engine_eval_interned`), a deadline already past when the
/// query's run starts (`engine_query_eval_with_opts`), and a step
/// budget crossed at a bucket of a live handle's insert.
#[test]
fn every_governed_stop_traces_one_abort_with_its_error() {
    fn assert_one_abort(leg: &str, events: &[TraceEvent], error: &EvalError, checkpoint: &str) {
        let aborts: Vec<(&str, &str)> = events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Abort {
                    reason,
                    granularity,
                    ..
                } => Some((reason.as_str(), granularity.as_str())),
                _ => None,
            })
            .collect();
        assert_eq!(
            aborts,
            [(error.to_string().as_str(), checkpoint)],
            "{leg}: {events:?}"
        );
        let steps = error.stats().expect("a run-phase error").steps;
        assert_eq!(
            events.last(),
            Some(&TraceEvent::RunEnd {
                steps,
                converged: false
            }),
            "{leg}"
        );
    }
    let (program, edb) = sssp();
    let bools = BoolDatabase::new();
    let traced = |budget: EvalBudget, cancel: Option<CancelToken>| {
        let sink = MemorySink::default();
        let opts = EngineOpts {
            trace: Some(TraceHandle::new(sink.clone())),
            budget,
            cancel,
            ..EngineOpts::default()
        };
        (sink, opts)
    };

    let (sink, opts) = traced(EvalBudget::unlimited().with_max_steps(2), None);
    let aborted = engine_eval_interned(&program, &edb, &bools, CAP, SemiNaive, &opts)
        .expect_err("two rounds do not reach the fixpoint");
    assert_eq!(aborted.error().kind(), "budget");
    assert_one_abort("step budget", &sink.events(), aborted.error(), "iteration");

    let token = CancelToken::new();
    token.cancel();
    let (sink, opts) = traced(EvalBudget::unlimited(), Some(token));
    let aborted = engine_eval_interned(&program, &edb, &bools, CAP, Strategy::Priority, &opts)
        .expect_err("a cancelled run stops");
    assert_eq!(aborted.error().kind(), "cancelled");
    assert_one_abort("cancelled", &sink.events(), aborted.error(), "phase");

    let deadline = EvalBudget::unlimited().with_deadline(std::time::Duration::ZERO);
    let (sink, opts) = traced(deadline, None);
    let query = parse_query("?- L(d).").unwrap();
    let aborted = engine_query_eval_with_opts(
        &program,
        &query,
        &edb,
        &bools,
        CAP,
        Strategy::Priority,
        &opts,
    )
    .expect_err("the deadline has passed by the first checkpoint");
    assert_eq!(aborted.error().kind(), "deadline");
    assert_one_abort("deadline", &sink.events(), aborted.error(), "phase");

    // The build converges ungoverned; the insert shortens `a → c` to
    // 1.5, which settles `c` and then `d` in two buckets, and a budget
    // of one step stops it at the second.
    let (sink, opts) = traced(EvalBudget::unlimited(), None);
    let mut live =
        datalog_o::Materialization::new(&program, &edb, &bools, CAP, Strategy::Priority, &opts)
            .expect("builds");
    let built = sink.events().len();
    live.set_budget(EvalBudget::unlimited().with_max_steps(1));
    let shortcut =
        datalog_o::core::FactInsert::new("E", vec!["a".into(), "c".into()], Trop::finite(1.5));
    let error = live.insert(&[shortcut]).expect_err("one bucket of two");
    assert_eq!(error.kind(), "budget");
    assert_one_abort("edit", &sink.events()[built..], &error, "bucket");
}
