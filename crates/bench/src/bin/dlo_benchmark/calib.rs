//! Host-speed calibration.
//!
//! The sandboxes this benchmark runs in share their cores and caches
//! with other tenants: the same operation on the same input read
//! 66 ms, 80 ms and 130 ms within one hour, in phases that last
//! minutes — far more than any bound worth setting. So every timed
//! stretch is bracketed by a fixed **calibration kernel**, and
//! end-to-end times are reported in *reference seconds*: wall seconds
//! × ([`REFERENCE_S`] ÷ the kernel's time right before and after). On
//! a host running at reference speed the two are equal; on a slow
//! phase both the stretch and the kernel stretch, and the ratio holds.
//! Across ten-seed sets this halved the run-to-run spread
//! (13 % → 5–6 % on average). Per-layer metrics stay in raw seconds,
//! beside the kernel's own time, so they can be scaled the same way.
//!
//! The kernel does what the engine does to a machine, without sharing
//! code with it: it hashes, probes, sorts and tree-builds small keyed
//! rows; it maps, touches and unmaps fresh memory; and it chases
//! dependent loads through a table larger than the private caches.
//! Its work is fixed — no seed, no input — so only the host moves it.

use crate::rng::SplitMix64;
use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::time::Instant;

/// The kernel's median time over fifty runs on the host the benchmark
/// was defined on. A constant of the benchmark: changing it rescales
/// every end-to-end time.
pub const REFERENCE_S: f64 = 0.0053;

/// Entries of the pointer-chase table (4 MiB of `u32`).
const TABLE: usize = 1 << 20;
/// Above glibc's largest mmap threshold, so the block is always mapped
/// fresh and unmapped on drop.
const FRESH_BLOCK: usize = 33 << 20;
/// How much of the fresh block is touched.
const FRESH_TOUCHED: usize = 3 << 20;

pub struct Calibrator {
    /// One random cycle through `0..TABLE`: `table[i]` is `i`'s successor.
    table: Vec<u32>,
}

impl Calibrator {
    pub fn new() -> Calibrator {
        // Sattolo's shuffle yields a single cycle, so a chase of any
        // length never falls into a short loop.
        let mut rng = SplitMix64::new(0x63616c6962); // "calib"
        let mut table: Vec<u32> = (0..TABLE as u32).collect();
        for i in (1..TABLE).rev() {
            table.swap(i, rng.below(i as u64) as usize);
        }
        Calibrator { table }
    }

    /// Runs the kernel once; returns its wall seconds and a checksum of
    /// what it computed (the same on every call).
    pub fn run(&self) -> (f64, u64) {
        let t = Instant::now();

        let mut rng = SplitMix64::new(1);
        let mut key = || vec![rng.below(2000) as u32, rng.below(2000) as u32];
        let mut rows: HashMap<Vec<u32>, f64> = HashMap::new();
        for i in 0..6000 {
            let cell = rows.entry(key()).or_insert(f64::INFINITY);
            *cell = cell.min(f64::from(i % 16));
        }
        let hits = (0..12_000).filter(|_| rows.contains_key(&key())).count();
        let mut sorted: Vec<(Vec<u32>, f64)> = rows.into_iter().collect();
        sorted.sort_by(|a, b| a.0.cmp(&b.0));
        let tree: BTreeMap<Vec<u32>, f64> = sorted.into_iter().collect();

        let mut fresh: Vec<u8> = Vec::with_capacity(FRESH_BLOCK);
        fresh.resize(FRESH_TOUCHED, 1);
        let touched = black_box(&fresh).iter().step_by(4096).count();
        drop(fresh);

        let mut at = 0u32;
        for _ in 0..12_000 {
            at = self.table[at as usize];
        }

        let sum = hits as u64 + tree.len() as u64 + touched as u64 + u64::from(at);
        (t.elapsed().as_secs_f64(), black_box(sum))
    }

    /// The kernel's wall seconds alone.
    pub fn seconds(&self) -> f64 {
        self.run().0
    }
}

/// Scales wall seconds measured between two kernel runs to reference
/// seconds.
pub fn to_reference(wall_s: f64, kernel_before_s: f64, kernel_after_s: f64) -> f64 {
    wall_s * REFERENCE_S / ((kernel_before_s + kernel_after_s) / 2.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_kernel_does_the_same_work_every_time() {
        let c = Calibrator::new();
        let (first, again) = (c.run(), c.run());
        assert_eq!(first.1, again.1);
        assert!(first.0 > 0.0 && again.0 > 0.0);
    }

    #[test]
    fn the_table_is_one_cycle() {
        let c = Calibrator::new();
        let mut at = 0u32;
        let mut steps = 0usize;
        loop {
            at = c.table[at as usize];
            steps += 1;
            if at == 0 {
                break;
            }
        }
        assert_eq!(steps, TABLE);
    }

    #[test]
    fn reference_seconds_follow_the_host() {
        // At reference speed nothing changes; on a host twice as slow a
        // wall reading halves.
        assert_eq!(to_reference(1.0, REFERENCE_S, REFERENCE_S), 1.0);
        assert_eq!(to_reference(1.0, 2.0 * REFERENCE_S, 2.0 * REFERENCE_S), 0.5);
    }
}
