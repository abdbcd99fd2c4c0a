//! # dlo-bench — reproduction harness and workloads
//!
//! Shared infrastructure for the `repro_*` binaries (one per table/figure
//! of the paper — see DESIGN.md's experiment index and EXPERIMENTS.md for
//! recorded outputs).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod workloads;

pub use workloads::*;
