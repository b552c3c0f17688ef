#![warn(missing_docs)]

//! # virec-verify
//!
//! Static-analysis verification layer for the ViReC reproduction: an
//! independent source of truth that cross-validates the timing models
//! against exact dataflow facts, plus a lint gate that catches malformed
//! kernels before they burn sweep cycles.
//!
//! * [`lint`] — the ISA lint driver over `virec_isa::cfg`/`dataflow`:
//!   maybe-uninitialized reads, dead stores, unreachable code,
//!   out-of-bounds branch targets, missing `halt`, reserved-register
//!   clobbers, irreducible/non-contiguous loops. Every built-in workload
//!   kernel and every `virec-cc` output at every register budget must lint
//!   clean (`virec-cli lint`, enforced in CI).
//! * [`oracle`] — [`oracle::StaticOracle`]: exact per-PC liveness turned
//!   into oracle prefetch contexts (§6.1), cross-checked against the
//!   per-quantum used and demand sets of the pipeline's quantum trace
//!   (the record the prefetch oracle is grouped from). The invariant is
//!   `demand ⊆ live_in(start_pc)` —
//!   acquired instructions are always on the true execution path, so the
//!   dynamic read-before-written set can never exceed static liveness.
//! * [`lrc`] — cross-checks the LRC replacement policy's live-bit
//!   bookkeeping (§5.1 commit bits sampled after rollback-queue
//!   compaction) against static liveness, and validates liveness itself
//!   against dynamic future-use sets from golden-interpreter traces.
//! * [`tv`] — translation validation of `virec-cc`'s register allocation:
//!   replays the emitter's per-instruction witness against independently
//!   recomputed liveness, spill/reload reaching-stores dataflow, scratch
//!   containment, and a concrete differential run against the IR
//!   interpreter. Every compiled kernel at every budget must validate
//!   (`virec-cli tv`, enforced in CI).
//! * [`suite`] — lint/TV configurations and drivers for the built-in
//!   workload suite and the `virec-cc` budget ladder (the CLI and CI entry
//!   points).

pub mod lint;
pub mod lrc;
pub mod oracle;
pub mod suite;
pub mod tv;

pub use lint::{lint_program, Diagnostic, LintConfig, LintKind};
pub use lrc::{check_liveness_on_golden_trace, check_lrc, LrcReport, LrcViolation};
pub use oracle::{OracleCrossCheck, OracleViolation, StaticOracle};
pub use suite::{
    broken_fixture, broken_spill_report, lint_compiled_budgets, lint_everything, lint_workloads,
    tv_compiled_budgets, tv_kernels, workload_lint_config, SuiteLint,
};
pub use tv::{validate, TvCase, TvKind, TvReport, TvViolation};
