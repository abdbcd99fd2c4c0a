//! The metric catalogue: every name the benchmark reports, with its
//! unit, and for end-to-end metrics the direction and the regression
//! bound. `BENCHMARK.json` at the root of the repo lists the same
//! names; a unit test holds the two together.

use std::collections::BTreeMap;

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// An end-to-end metric: what a user of the engine sees.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// The share of the base median by which the metric may get worse
    /// before a change counts as a regression.
    pub bound: f64,
}

/// The end-to-end metrics, reported by every workload's untraced run.
/// Failed operations are not a metric here because a metric must never
/// read 0: every run reports `attempted` and `failed` beside these, and
/// any failure makes the run exit non-zero.
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "op_median_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "facts_per_s",
        unit: "facts/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
];

/// The per-layer metrics `(name, unit)`, reported by every workload's
/// traced run. A layer a workload's operations never enter reads 0.
pub const PER_LAYER: [(&str, &str); 67] = [
    // Spans around the public calls of an operation (median per op).
    ("parser.parse_s", "s"),
    ("engine.eval_interned_s", "s"),
    ("output.materialize_s", "s"),
    ("output.rows", "count"),
    ("query.eval_s", "s"),
    ("query.answers_s", "s"),
    ("query.answer_rows", "count"),
    ("incremental.new_s", "s"),
    ("incremental.insert_s", "s"),
    ("incremental.query_s", "s"),
    ("incremental.delete_s", "s"),
    ("incremental.delete_tail_s", "s"),
    ("incremental.delete_over_new", "ratio"),
    // Standalone calls on the workload's program.
    ("demand.rewrite_s", "s"),
    ("plan.compile_s", "s"),
    ("plan.plans", "count"),
    ("output.get_ns", "ns"),
    // Storage micro-spans over the workload's own EDB.
    ("intern.intern_ns_per_const", "ns"),
    ("intern.consts", "count"),
    ("storage.insert_ns_per_row", "ns"),
    ("storage.rows", "count"),
    ("storage.index_build_s", "s"),
    ("storage.probe_ns", "ns"),
    ("arrange.build_s", "s"),
    ("arrange.probe_ns", "ns"),
    ("arrange.batches", "count"),
    // The schedules at one thread, and two threads over one.
    ("driver.seminaive_s", "s"),
    ("worklist.fifo_s", "s"),
    ("worklist.priority_s", "s"),
    ("par.t2_over_t1", "ratio"),
    ("par.tasks_spawned", "count"),
    ("par.parallel_batches", "count"),
    // Convergence against Cor. 5.19's bound for 0-stable semirings.
    ("fixpoint.steps", "count"),
    ("fixpoint.bound", "count"),
    ("fixpoint.steps_over_bound", "ratio"),
    // Read from the `EvalStats` the program attaches to its answers.
    ("reported.setup_s", "s"),
    ("reported.edb_index_s", "s"),
    ("reported.arrange_s", "s"),
    ("reported.eval_s", "s"),
    ("reported.mint_s", "s"),
    ("reported.decode_s", "s"),
    ("reported.emits", "count"),
    ("reported.index_probes", "count"),
    ("reported.tuples_scanned", "count"),
    ("reported.delta_rows", "count"),
    ("reported.rows_inserted", "count"),
    ("reported.rows_improved", "count"),
    ("reported.merges_absorbed", "count"),
    ("reported.minted_ids", "count"),
    ("reported.hash_join_steps", "count"),
    ("reported.merge_join_steps", "count"),
    ("reported.arrange_batches_merged", "count"),
    ("reported.budget_checks", "count"),
    ("reported.useful_emit_share", "ratio"),
    // The harness itself.
    ("bench.op_wall_median_s", "s"),
    ("bench.op_tail_s", "s"),
    ("bench.op_tail_pct", "%"),
    ("bench.op_samples", "count"),
    ("bench.op_iqr_rel", "ratio"),
    ("bench.verify_s", "s"),
    ("bench.traced_op_median_s", "s"),
    ("bench.trace_overhead", "ratio"),
    ("bench.unaccounted_s", "s"),
    ("bench.accounted_share", "ratio"),
    ("bench.kernel_s", "s"),
    ("bench.host_speed", "ratio"),
    ("bench.nproc", "count"),
];

/// Readings of one run, by metric name.
#[derive(Default)]
pub struct Readings(BTreeMap<&'static str, f64>);

impl Readings {
    pub fn set(&mut self, name: &'static str, value: f64) {
        let known =
            END_TO_END.iter().any(|m| m.name == name) || PER_LAYER.iter().any(|(n, _)| *n == name);
        assert!(known, "metric {name} is not in the catalogue");
        self.0
            .insert(name, if value.is_finite() { value } else { 0.0 });
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// The run's metrics in catalogue order as `(name, value, unit)`:
    /// the end-to-end set for an untraced run, the per-layer set for a
    /// traced one.
    pub fn listed(&self, traced: bool) -> Vec<(&'static str, f64, &'static str)> {
        if traced {
            let each = PER_LAYER.iter();
            each.map(|&(n, u)| (n, self.get(n), u)).collect()
        } else {
            let each = END_TO_END.iter();
            each.map(|m| (m.name, self.get(m.name), m.unit)).collect()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlo_core::eval::stats::json::{self, Value};

    const BENCHMARK_JSON: &str = include_str!("../../../../../BENCHMARK.json");

    fn names(list: &Value) -> Vec<(String, String)> {
        let field = |m: &Value, k| m.get(k).and_then(Value::as_str).unwrap().to_string();
        let items = list.as_arr().unwrap().iter();
        items
            .map(|m| (field(m, "name"), field(m, "unit")))
            .collect()
    }

    #[test]
    fn benchmark_json_lists_the_catalogue() {
        let doc = json::parse(BENCHMARK_JSON).unwrap();
        let end_to_end = doc.get("end_to_end").unwrap();
        let ours: Vec<_> = END_TO_END
            .iter()
            .map(|m| (m.name.to_string(), m.unit.to_string()))
            .collect();
        assert_eq!(names(end_to_end), ours);
        for (m, listed) in END_TO_END.iter().zip(end_to_end.as_arr().unwrap()) {
            assert_eq!(listed.get("bound").and_then(Value::as_f64), Some(m.bound));
            let better = listed.get("better").and_then(Value::as_str);
            let ours = match m.better {
                Better::Lower => "lower",
                Better::Higher => "higher",
            };
            assert_eq!(better, Some(ours));
        }
        let ours: Vec<_> = PER_LAYER
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(names(doc.get("per_layer").unwrap()), ours);
        let workloads: Vec<_> = doc
            .get("workloads")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).unwrap().to_string())
            .collect();
        let ours: Vec<_> = crate::workload::Workload::ALL
            .iter()
            .map(|w| w.name())
            .collect();
        assert_eq!(workloads, ours);
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut all: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        all.extend(PER_LAYER.iter().map(|(n, _)| *n));
        let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
        assert!(all.iter().all(|n| n.len() <= 64 && n.chars().all(ok)));
        let mut sorted = all.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), all.len());
    }
}
