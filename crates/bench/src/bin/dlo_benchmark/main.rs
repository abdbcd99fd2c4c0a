//! `dlo_benchmark` — the repository's one benchmark: five workloads,
//! each taken from program text and a classic `Database` to verified,
//! decoded answers, measured end to end and layer by layer. See
//! `README.md` beside this file for the workloads, the metric
//! glossary and how the layers are expected to move the totals.
//!
//! ```text
//! dlo_benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!     one run of one workload; the last line of output is the result
//!     as JSON, the exit code is non-zero if any operation failed
//! dlo_benchmark [--seed <n>] [--repeat <k>] [--seconds <s>] [--out <file>]
//!     every workload, untraced then traced, each run in a child
//!     process; writes the results file (default results.json)
//! dlo_benchmark --smoke           every workload at 1/20 size, 3 operations
//! dlo_benchmark --self-test       proves the checker catches wrong answers
//! dlo_benchmark --compare <a.json> <b.json>
//! ```

mod calib;
mod compare;
mod gen;
mod layers;
mod metrics;
mod reference;
mod rng;
mod run;
mod span;
mod stats;
mod workload;

use dlo_core::eval::stats::json::{self, Value};
use run::{Config, Outcome};
use std::process::{Command, ExitCode, Stdio};
use workload::{Corrupt, Workload};

/// Seconds one run measures unless `--seconds` says otherwise; equal to
/// `run_seconds` in `BENCHMARK.json`.
const RUN_SECONDS: f64 = 15.0;
/// Engine knobs a shell may carry; the benchmark measures the defaults.
const ENGINE_ENV: [&str; 4] = [
    "DLO_ENGINE_THREADS",
    "DLO_JOIN",
    "DLO_TRACE",
    "DLO_STATS_SAMPLE",
];

struct Args {
    workload: Option<Workload>,
    seed: u64,
    repeat: u64,
    seconds: f64,
    traced: bool,
    smoke: bool,
    self_test: bool,
    corrupt: Option<Corrupt>,
    spans_out: Option<String>,
    out: String,
    compare: Option<(String, String)>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        repeat: 1,
        seconds: RUN_SECONDS,
        traced: false,
        smoke: false,
        self_test: false,
        corrupt: None,
        spans_out: None,
        out: "results.json".to_string(),
        compare: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                let known = Workload::from_name(name);
                args.workload = Some(known.ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => args.seed = number(flag, value()?)?,
            "--repeat" => args.repeat = number(flag, value()?)?,
            "--seconds" => args.seconds = number(flag, value()?)?,
            "--trace" => {
                args.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--smoke" => args.smoke = true,
            "--self-test" => args.self_test = true,
            "--corrupt" => {
                args.corrupt = Some(match value()?.as_str() {
                    "value" => Corrupt::Value,
                    "key" => Corrupt::Key,
                    other => return Err(format!("--corrupt takes value or key, not {other}")),
                })
            }
            "--spans" => args.spans_out = Some(value()?.clone()),
            "--out" => args.out = value()?.clone(),
            "--compare" => args.compare = Some((value()?.clone(), value()?.clone())),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(args)
}

fn number<T: std::str::FromStr>(flag: &str, text: &str) -> Result<T, String> {
    text.parse()
        .map_err(|_| format!("{flag} takes a number, not {text}"))
}

fn main() -> ExitCode {
    for var in ENGINE_ENV {
        std::env::remove_var(var);
    }
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse_args(&argv).and_then(|args| {
        if let Some((a, b)) = &args.compare {
            compare::compare(a, b)
        } else if args.self_test {
            self_test()
        } else if let Some(workload) = args.workload {
            Ok(single(workload, &args))
        } else {
            suite(&args)
        }
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(why) => {
            eprintln!("dlo_benchmark: {why}");
            ExitCode::from(2)
        }
    }
}

/// One run of one workload in this process. Prints every metric by
/// name with its unit, then the result as one line of JSON.
fn single(workload: Workload, args: &Args) -> bool {
    let cfg = Config {
        workload,
        seed: args.seed,
        seconds: args.seconds,
        traced: args.traced,
        smoke: args.smoke,
        corrupt: args.corrupt,
        spans_out: args.spans_out.as_ref().map(Into::into),
    };
    let outcome = run::run(&cfg);
    let listed = outcome.readings.listed(cfg.traced);
    println!(
        "{} seed {} ({}): {} operations, {} failed",
        workload.name(),
        cfg.seed,
        if cfg.traced { "traced" } else { "untraced" },
        outcome.attempted,
        outcome.failed
    );
    for (name, value, unit) in &listed {
        println!("  {name:<32} {value:>16.6} {unit}");
    }
    println!("  {}", outcome.note);
    if let Some(why) = &outcome.first_error {
        println!("  first failure: {why}");
    }
    println!("{}", result_json(&outcome, &listed));
    outcome.failed == 0
}

fn result_json(outcome: &Outcome, listed: &[(&str, f64, &str)]) -> String {
    let metrics: Vec<String> = listed
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}

/// A run in a child process of this binary.
struct ChildRun {
    /// What the child printed before its result line.
    printed: String,
    /// The result line, verbatim and parsed.
    line: String,
    result: Value,
    /// Whether the child exited with success.
    passed: bool,
}

impl ChildRun {
    fn failed(&self) -> Option<u64> {
        self.result.get("failed").and_then(Value::as_u64)
    }
}

/// Runs one workload in a child process — one at a time, so that
/// `VmHWM` and the allocator's state belong to one workload.
fn child(
    workload: Workload,
    seed: u64,
    traced: bool,
    extra: &[String],
) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this binary: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload.name(), "--seed", &seed.to_string()]);
    cmd.args(["--trace", if traced { "1" } else { "0" }])
        .args(extra);
    let out = cmd.stderr(Stdio::inherit()).output();
    let out = out.map_err(|e| format!("starting a child run: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    let (printed, line) = split_result(&text);
    let result =
        json::parse(line).map_err(|e| format!("{} printed no result: {e}", workload.name()))?;
    Ok(ChildRun {
        printed: printed.to_string(),
        line: line.to_string(),
        result,
        passed: out.status.success(),
    })
}

/// Splits a child's output into what precedes its last line and that
/// line.
fn split_result(text: &str) -> (&str, &str) {
    let trimmed = text.trim_end_matches('\n');
    match trimmed.rfind('\n') {
        Some(at) => (&trimmed[..=at], &trimmed[at + 1..]),
        None => ("", trimmed),
    }
}

/// Every workload, untraced for each seed and traced for the first.
fn suite(args: &Args) -> Result<bool, String> {
    let mut extra = vec!["--seconds".to_string(), args.seconds.to_string()];
    if args.smoke {
        extra.push("--smoke".to_string());
    }
    let mut records = vec![];
    let mut all_passed = true;
    for workload in Workload::ALL {
        for seed in args.seed..args.seed + args.repeat {
            for traced in [false, true] {
                if traced && seed != args.seed {
                    continue;
                }
                let run = child(workload, seed, traced, &extra)?;
                print!("{}", run.printed);
                all_passed &= run.passed && run.failed() == Some(0);
                records.push(format!(
                    "{{\"workload\": \"{}\", \"seed\": {seed}, \"trace\": {}, \"result\": {}}}",
                    workload.name(),
                    u8::from(traced),
                    run.line
                ));
            }
        }
    }
    let doc = format!(
        "{{\"host\": {},\n \"seconds\": {}, \"smoke\": {},\n \"runs\": [\n  {}\n ]}}\n",
        host_json(),
        args.seconds,
        args.smoke,
        records.join(",\n  ")
    );
    std::fs::write(&args.out, doc).map_err(|e| format!("writing {}: {e}", args.out))?;
    println!("wrote {}; every operation verified: {all_passed}", args.out);
    Ok(all_passed)
}

/// Where and how the numbers were taken.
fn host_json() -> String {
    let run = |program: &str, args: &[&str]| {
        let out = Command::new(program).args(args).output().ok()?;
        let text = String::from_utf8(out.stdout).ok()?;
        out.status.success().then(|| text.trim().to_string())
    };
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let model = cpuinfo.lines().find(|l| l.starts_with("model name"));
    let model = model
        .and_then(|l| l.split(':').nth(1))
        .map_or("unknown", str::trim);
    let unknown = || "unknown".to_string();
    format!(
        "{{\"nproc\": {}, \"cpu\": \"{}\", \"rustc\": \"{}\", \"commit\": \"{}\", \
         \"profile\": \"{}\", \"env_removed\": [{}]}}",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        model.replace('"', "'"),
        run("rustc", &["-V"]).unwrap_or_else(unknown),
        run("git", &["rev-parse", "HEAD"]).unwrap_or_else(unknown),
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
        ENGINE_ENV.map(|v| format!("\"{v}\"")).join(", "),
    )
}

/// Tests the checker instead of assuming it: at smoke size, a clean
/// run of every workload must pass, and a run whose answers are
/// damaged — one value, then one key — must report failed operations
/// and exit non-zero.
fn self_test() -> Result<bool, String> {
    let mut ok = true;
    for workload in Workload::ALL {
        let smoke = ["--smoke".to_string()];
        let run = child(workload, 1, false, &smoke)?;
        let clean = run.passed && run.failed() == Some(0);
        println!("{:<12} clean run passes: {clean}", workload.name());
        ok &= clean;
        for how in ["value", "key"] {
            let extra = [
                "--smoke".to_string(),
                "--corrupt".to_string(),
                how.to_string(),
            ];
            let run = child(workload, 1, false, &extra)?;
            let failed = run.failed().unwrap_or(0);
            let attempted = run.result.get("attempted").and_then(Value::as_u64);
            let caught = !run.passed && failed > 0;
            println!(
                "{:<12} corrupt {how:<5} is caught: {caught} (failed share {failed}/{}, exit non-zero: {})",
                workload.name(),
                attempted.unwrap_or(1),
                !run.passed
            );
            ok &= caught;
        }
    }
    println!("self-test {}", if ok { "passed" } else { "FAILED" });
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Result<Args, String> {
        let argv: Vec<String> = line.split_whitespace().map(str::to_string).collect();
        parse_args(&argv)
    }

    #[test]
    fn the_driver_command_line_parses() {
        let a = args("--workload live-edits --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(a.workload, Some(Workload::LiveEdits));
        assert_eq!((a.seed, a.seconds, a.traced), (7, 10.0, true));
        let a = args("").unwrap();
        assert_eq!((a.workload, a.seed, a.seconds), (None, 1, RUN_SECONDS));
    }

    #[test]
    fn bad_command_lines_are_refused() {
        for line in [
            "--workload nope",
            "--seed x",
            "--trace 2",
            "--seconds 0",
            "--seconds",
            "--frobnicate",
            "--compare only-one.json",
        ] {
            assert!(args(line).is_err(), "{line}");
        }
    }

    #[test]
    fn the_result_line_is_the_contract_shape() {
        let mut readings = metrics::Readings::default();
        readings.set("op_median_s", 0.25);
        let outcome = Outcome {
            attempted: 4,
            failed: 1,
            first_error: None,
            readings,
            note: String::new(),
        };
        let line = result_json(&outcome, &outcome.readings.listed(false));
        let doc = json::parse(&line).unwrap();
        let Value::Obj(fields) = &doc else {
            panic!("not an object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(doc.get("correct"), Some(&Value::Bool(false)));
        let median = doc.get("metrics").unwrap().get("op_median_s").unwrap();
        assert_eq!(median.get("value").and_then(Value::as_f64), Some(0.25));
        assert_eq!(median.get("unit").and_then(Value::as_str), Some("s"));
    }

    #[test]
    fn the_result_is_the_last_line() {
        assert_eq!(split_result("a\nb\n{json}\n"), ("a\nb\n", "{json}"));
        assert_eq!(split_result("{json}\n"), ("", "{json}"));
        assert_eq!(split_result(""), ("", ""));
    }
}
