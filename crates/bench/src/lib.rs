//! # dlo-bench — seeded workloads and the differential oracle
//!
//! Graph and program generators, and [`oracle`], the one check of every
//! engine loop against the grounded semantics, shared by the root
//! integration tests (where the paper's theorems and examples are
//! checked). The engine benchmark, `dlo_benchmark`, lives in `src/bin/`
//! with its own manifest and depends on the engine crates only.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod oracle;
pub mod workloads;

pub use workloads::*;
