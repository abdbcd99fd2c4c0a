//! Layer probes: standalone calls into single modules, made on the
//! workload's own program and EDB after the traced operations. They
//! time what an operation's spans cannot separate — interning from
//! row insertion, index build from probe, one schedule from another —
//! always through public constructors, never by reaching inside.

use crate::metrics::Readings;
use crate::rng::SplitMix64;
use crate::stats::median;
use crate::workload::{evaluate, Evaluated, Expected, Inputs};
use dlo_core::{magic_rewrite, parse_program, Program};
use dlo_engine::plan::Source;
use dlo_engine::storage::{project, ColMask};
use dlo_engine::{compile, ColumnRel, Interner, Strategy};
use dlo_fixpoint::bounds::zero_stable_bound;
use dlo_pops::Trop;
use std::hint::black_box;
use std::time::Instant;

/// Repeats of a call that takes microseconds.
const TINY_REPS: usize = 200;
/// Seeded point reads against an interned output.
const POINT_READS: usize = 1000;
/// Seeded index probes, half of them on keys that are present.
const PROBES: usize = 100_000;
/// An evaluation under this many seconds is repeated for a median.
const CHEAP_S: f64 = 1.0;

fn seconds<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let t = Instant::now();
    let out = f();
    (t.elapsed().as_secs_f64(), out)
}

pub fn probe(
    inputs: &Inputs,
    expected: &Expected,
    seed: u64,
    readings: &mut Readings,
) -> Result<(), String> {
    let program: Program<Trop> =
        parse_program(inputs.rules_text()).map_err(|e| format!("parse: {e}"))?;
    let mut rng = SplitMix64::new(seed ^ 0x6c61_7965_7273); // "layers"

    let query = inputs.probe_query();
    let (took, _) = seconds(|| {
        for _ in 0..TINY_REPS {
            black_box(magic_rewrite(black_box(&program), &query)).ok();
        }
    });
    readings.set("demand.rewrite_s", took / TINY_REPS as f64);

    storage_probes(inputs, &program, &mut rng, readings)?;
    schedule_probes(inputs, expected, &mut rng, readings)
}

/// `intern`, `plan`, `storage`, `arrange`: the EDB interned and loaded
/// row by row, every index the compiled program asks of it built, and
/// the largest indexed relation probed both ways.
fn storage_probes(
    inputs: &Inputs,
    program: &Program<Trop>,
    rng: &mut SplitMix64,
    readings: &mut Readings,
) -> Result<(), String> {
    let mut interner = Interner::new();
    let mut keys: Vec<Vec<u32>> = vec![];
    let (took, consts) = seconds(|| {
        let mut consts = 0usize;
        for (_, rel) in inputs.db.iter() {
            let mut flat = Vec::with_capacity(rel.support_size() * rel.arity());
            for (tuple, _) in rel.support() {
                flat.extend(tuple.iter().map(|c| interner.intern(c)));
            }
            consts += flat.len();
            keys.push(flat);
        }
        consts
    });
    readings.set(
        "intern.intern_ns_per_const",
        took * 1e9 / consts.max(1) as f64,
    );
    readings.set("intern.consts", interner.len() as f64);

    let mut rels: Vec<(&str, ColumnRel<Trop>)> = vec![];
    let (took, rows) = seconds(|| {
        let mut rows = 0usize;
        for ((name, rel), flat) in inputs.db.iter().zip(&keys) {
            let mut col = ColumnRel::new(rel.arity());
            for (key, (_, value)) in flat.chunks(rel.arity()).zip(rel.support()) {
                col.insert_row(key, *value);
            }
            rows += col.len();
            rels.push((name, col));
        }
        rows
    });
    readings.set("storage.insert_ns_per_row", took * 1e9 / rows.max(1) as f64);
    readings.set("storage.rows", rows as f64);

    let (took, compiled) = seconds(|| {
        let mut last = None;
        for _ in 0..TINY_REPS {
            last = Some(compile(black_box(program), &mut interner.clone()));
        }
        last.expect("TINY_REPS ≥ 1")
    });
    let compiled = compiled.map_err(|e| format!("compile: {e:?}"))?;
    readings.set("plan.compile_s", took / TINY_REPS as f64);
    readings.set("plan.plans", compiled.total_plans() as f64);

    // Every (EDB relation, mask) any schedule of this program probes.
    let mut wanted: Vec<(usize, ColMask)> = vec![];
    let all = compiled.index_requirements().into_iter();
    for (source, mask) in all.chain(compiled.worklist_index_requirements()) {
        if let Source::PopsEdb(i) = source {
            let name = compiled.pops_edbs[i].as_str();
            let at = rels.iter().position(|(n, _)| *n == name);
            let at = at.ok_or_else(|| format!("program reads {name}, EDB lacks it"))?;
            if !wanted.contains(&(at, mask)) {
                wanted.push((at, mask));
            }
        }
    }
    let (took, ()) = seconds(|| {
        for &(at, mask) in &wanted {
            rels[at].1.ensure_index(mask);
        }
    });
    readings.set("storage.index_build_s", took);

    // Probe the largest indexed relation through its first mask.
    let Some(&(at, mask)) = wanted.iter().max_by_key(|(at, _)| rels[*at].1.len()) else {
        return Ok(());
    };
    let rel = &mut rels[at].1;
    let absent = interner.len() as u32;
    let probe_keys: Vec<Box<[u32]>> = (0..PROBES)
        .map(|i| {
            let row = rng.below(rel.len() as u64) as u32;
            let mut key = project(rel.row(row), mask);
            if i % 2 == 1 {
                key[0] = absent;
            }
            key
        })
        .collect();
    let (took, hits) = seconds(|| {
        let each = probe_keys.iter();
        each.map(|k| rel.probe(mask, black_box(k)).len())
            .sum::<usize>()
    });
    black_box(hits);
    readings.set("storage.probe_ns", took * 1e9 / PROBES as f64);

    let (took, ()) = seconds(|| rel.ensure_arranged(mask));
    readings.set("arrange.build_s", took);
    let mut found = vec![];
    let (took, hits_arranged) = seconds(|| {
        let mut hits = 0usize;
        for k in &probe_keys {
            rel.probe_arranged(mask, black_box(k), &mut found);
            hits += found.len();
        }
        hits
    });
    if hits_arranged != hits {
        return Err(format!(
            "arranged probes found {hits_arranged} rows, hash probes {hits}"
        ));
    }
    readings.set("arrange.probe_ns", took * 1e9 / PROBES as f64);
    let batches = rel.arrangement_for(mask).map_or(0, |a| a.batches().len());
    readings.set("arrange.batches", batches as f64);
    Ok(())
}

/// `driver`, `worklist`, `par`, `output`, `fixpoint`: the workload's
/// program evaluated whole under each schedule at one thread, then at
/// two, and the interned result read back point by point.
fn schedule_probes(
    inputs: &Inputs,
    expected: &Expected,
    rng: &mut SplitMix64,
    readings: &mut Readings,
) -> Result<(), String> {
    // One evaluation, or the median of three when they are cheap.
    let timed = |strategy, threads| -> Result<(f64, Evaluated), String> {
        let first = evaluate(inputs, strategy, Some(threads))?;
        if first.wall_s >= CHEAP_S {
            return Ok((first.wall_s, first));
        }
        let second = evaluate(inputs, strategy, Some(threads))?.wall_s;
        let third = evaluate(inputs, strategy, Some(threads))?.wall_s;
        Ok((median(&[first.wall_s, second, third]), first))
    };
    readings.set("driver.seminaive_s", timed(Strategy::SemiNaive, 1)?.0);
    readings.set("worklist.fifo_s", timed(Strategy::Worklist, 1)?.0);
    let (t1, one) = timed(Strategy::Priority, 1)?;
    readings.set("worklist.priority_s", t1);
    let (t2, two) = timed(Strategy::Priority, 2)?;
    readings.set("par.t2_over_t1", t2 / t1);
    readings.set("par.tasks_spawned", two.stats.tasks_spawned as f64);
    readings.set("par.parallel_batches", two.stats.parallel_batches as f64);
    if two.stats.counters != one.stats.counters {
        return Err("exact counts differ between one thread and two".into());
    }

    let (pred, rows) = expected.some_rows();
    let reads: Vec<Vec<_>> = (0..POINT_READS)
        .map(|_| {
            let (key, _) = &rows[rng.below(rows.len() as u64) as usize];
            key.iter().map(|&c| crate::gen::int(c)).collect()
        })
        .collect();
    let (took, found) = seconds(|| {
        let each = reads.iter();
        each.filter(|t| one.output.get(pred, black_box(t)).is_some())
            .count()
    });
    if found != POINT_READS {
        return Err(format!(
            "{found} of {POINT_READS} point reads found their row"
        ));
    }
    readings.set("output.get_ns", took * 1e9 / POINT_READS as f64);

    // Cor. 5.19: over a 0-stable semiring (Trop is one) N ground IDB
    // atoms converge within N steps.
    let preds = one.output.predicates();
    let atoms: usize = preds.map(|(p, _)| one.output.support_size(p)).sum();
    readings.set("fixpoint.bound", zero_stable_bound(atoms) as f64);
    Ok(())
}
