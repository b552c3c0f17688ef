#![warn(missing_docs)]

//! # ViReC — Virtual Register Context architecture simulator
//!
//! A from-scratch reproduction of *"ViReC: The Virtual Register Context
//! Architecture for Efficient Near-Memory Multithreading"* (ICPP 2025).
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`isa`] — AArch64-flavoured mini-ISA, assembler, golden interpreter.
//! * [`mem`] — caches with register-line pinning, DDR5-like DRAM, crossbar.
//! * [`core`] — the in-order CGMT pipeline, the VRMU with the LRC policy,
//!   and all baseline context engines (banked, software, prefetching, NSF).
//! * [`workloads`] — the memory-intensive kernels of the paper's evaluation.
//! * [`sim`] — multi-core systems, task offload, the declarative
//!   experiment layer and its parallel executor.
//! * [`area`] — the analytic area/delay model (CACTI-like, 45 nm).
//! * [`cc`] — a mini-compiler with a configurable register budget (§4.2).
//! * [`verify`] — CFG/dataflow static analysis: the lint gate behind
//!   `virec-cli lint`, exact-liveness prefetch oracles, and LRC live-bit
//!   cross-checks.
//! * [`bench`](mod@bench) — the shared sweep harness behind the fig*/table* binaries
//!   and `virec-cli sweep`.
//!
//! See `examples/quickstart.rs` for a five-minute tour and `DESIGN.md` for
//! the full system inventory.

pub use virec_area as area;
pub use virec_bench as bench;
pub use virec_cc as cc;
pub use virec_core as core;
pub use virec_isa as isa;
pub use virec_mem as mem;
pub use virec_sim as sim;
pub use virec_verify as verify;
pub use virec_workloads as workloads;
