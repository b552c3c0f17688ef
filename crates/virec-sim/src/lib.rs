#![warn(missing_docs)]

//! # virec-sim
//!
//! Full-system simulation: one or more near-memory cores attached to the
//! shared crossbar/DRAM fabric, the task-level offload mechanism that ships
//! thread contexts to each core's reserved region (§6), and the experiment
//! runner used by every figure reproduction.
//!
//! * [`offload`] — the host side: writes initial register contexts into the
//!   reserved region of memory, the image ViReC's fills read on first
//!   schedule.
//! * [`machine`] — the one step loop: N cores, the shared fabric and the
//!   memory image, ticked densely or skipped to the next event, with a
//!   generic cycle hook for fault injection, checkpoints and scrubbing.
//! * [`runner`] — single-core experiments (a 1-core [`Machine`]) with
//!   optional golden verification and oracle recording for exact-context
//!   prefetching.
//! * [`system`] — multi-core systems sharing the fabric (Figure 11), an
//!   N-core [`Machine`].
//! * [`experiment`] — the declarative experiment layer: keyed cell grids
//!   ([`ExperimentSpec`]) executed by a worker-pool [`Executor`] with
//!   deterministic collection and JSON result emission.
//! * [`report`] — plain-text table/CSV emission for the figure binaries.
//! * [`error`] — typed simulation errors ([`SimError`]) with per-run
//!   diagnostics; every entry point returns `Result`.
//! * [`watchdog`] — forward-progress monitoring that separates livelock
//!   from slow runs.
//! * [`fault`] — deterministic seeded fault injection and campaign
//!   classification against the golden checker.
//! * [`ecc`] — the SEC-DED/parity protection model: a (72,64) extended
//!   Hamming codec plus the per-site coverage map injected faults are
//!   routed through before they corrupt anything.
//! * [`cancel`] — cooperative cancellation tokens, per-cell wall-clock
//!   deadline gates, and the process-wide SIGINT/SIGTERM drain/abort pair.
//! * [`journal`] — the append-only, fsync'd cell journal behind
//!   crash-safe `--resume` sweeps.
//! * [`serve`] — the fault-tolerant streaming task service: a seeded
//!   arrival process dispatched through a bounded admission queue onto the
//!   multi-core offload path, with per-task deadlines, retry/backoff, core
//!   quarantine with failover, and typed load shedding under overload.

pub mod cancel;
pub mod ecc;
pub mod error;
pub mod experiment;
pub mod fault;
pub mod journal;
pub mod machine;
pub mod offload;
pub mod ras;
pub mod report;
pub mod runner;
pub mod serve;
pub mod system;
pub mod watchdog;

pub use cancel::{interrupt_tokens, CancelToken, GateTrip, RunGate};
pub use ecc::{EccStats, ProtectionConfig, ProtectionLevel};
pub use error::{DivergenceSite, RunDiagnostics, SimError};
pub use experiment::{
    builder, CellCtx, CellData, CellOutcome, CellResult, CellSpec, Executor, ExperimentResult,
    ExperimentSpec, Job, RetryPolicy, WorkloadBuilder,
};
pub use fault::{
    parse_sites, run_campaign, run_campaign_with, CampaignOptions, CampaignReport, FaultClass,
    FaultEvent, FaultPlan, FaultSite, InjectionOutcome, InjectionRecord,
};
pub use journal::JournalConfig;
pub use machine::{CycleHook, Dispatch, Machine};
pub use ras::{CeTracker, RasConfig, RasStats, RetiredRegion, Scrubber};
pub use runner::{
    arch_digest, golden_arch_digest, try_run_single, try_run_single_traced,
    try_verify_against_golden, RunOptions, RunResult,
};
pub use serve::{
    run_service, RejectReason, ServeConfig, ServeFaultPlan, ServeReport, TaskOutcome, TaskService,
};
pub use system::{System, SystemConfig, SystemConfigError, SystemResult};
pub use watchdog::{Watchdog, DEFAULT_LIVELOCK_CYCLES};
