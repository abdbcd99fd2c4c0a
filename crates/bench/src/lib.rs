//! # dlo-bench — seeded workloads
//!
//! Graph and program generators shared by the root integration tests
//! (where the paper's theorems and examples are checked) and by the
//! engine benchmark, `dlo_benchmark`, which lives in `src/bin/` with its
//! own manifest.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod workloads;

pub use workloads::*;
