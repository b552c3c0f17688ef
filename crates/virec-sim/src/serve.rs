//! Fault-tolerant streaming task service over the multi-core offload path.
//!
//! The paper's offload mechanism (§6) ships thread contexts from a host
//! into near-memory cores; everything below PR 6 ran one fixed workload
//! per core to completion. [`TaskService`] is the host-side serving layer
//! on top of that machinery: a seeded, reproducible arrival process of
//! offload tasks flows through a bounded admission queue onto idle cores
//! (fresh [`offload`] image per dispatch), and the service keeps its
//! throughput and accounting invariants under faults, hangs, and overload.
//! The cores, the shared fabric and the memory image are one [`Machine`];
//! the dispatcher is its [`CycleHook`], so the service steps and skips
//! through [`Machine::run`] like every other run.
//!
//! * **Admission control** — arrivals beyond [`ServeConfig::queue_depth`]
//!   are shed with a typed [`RejectReason::QueueFull`]; once every core is
//!   quarantined, arriving *and* queued tasks drain with
//!   [`RejectReason::QuarantinedCapacity`] instead of deadlocking.
//! * **Per-task deadlines** — a cycle-denominated SLO deadline relative to
//!   arrival ([`ServeConfig::deadline_cycles`]), plus a per-attempt
//!   watchdog and cycle budget; the service as a whole runs under the
//!   wall-clock gate of [`TaskService::run_with`].
//! * **Retry with backoff** — failed attempts re-dispatch with a
//!   geometrically scaled cycle budget, reusing the experiment layer's
//!   [`RetryPolicy`].
//! * **Quarantine & failover** — [`ServeConfig::quarantine_after`]
//!   consecutive failed attempts on one core quarantine it; the in-flight
//!   task that tripped the quarantine is re-dispatched to a healthy core
//!   without being charged a retry. Every task resolves to exactly one
//!   [`TaskOutcome`]: `completed + rejected + failed == submitted`, always.
//! * **Fault campaign** — [`ServeFaultPlan`] injects seeded word upsets
//!   into the data image of running tasks (single-bit transients and
//!   double-bit bursts on "sticky" bad cores), routed through the PR-5
//!   SEC-DED/parity protection model before they corrupt anything. An
//!   independent golden-digest cross-check counts silent corruptions on
//!   completed tasks even when verification is off.
//! * **Repair & degraded mode (PR-8)** — [`ServeFaultPlan::stuck_cores`]
//!   cores develop *permanent* defects that never heal. With
//!   [`ServeConfig::ras`] set, the first uncorrectable burst on such a
//!   core triggers the RAS path instead of quarantine: a spare region is
//!   consumed and the slot spends [`crate::ras::RasConfig::repair_cycles`]
//!   repairing (the in-flight task fails over exactly-once),
//!   or — spare pool dry — the core is *fenced* and keeps serving at 750
//!   millicores. Capacity is integrated in millicore-cycles so
//!   availability reports the loss without ever dropping a task.
//!
//! The report carries the serving-layer SLO metrics the north star asks
//! for: tasks/sec, p50/p99/p999 latency, availability (delivered
//! millicore-cycles over total capacity), goodput, and per-epoch fabric
//! traffic.

use crate::ecc::{word_verdict, ProtectionConfig, ProtectionLevel, WordVerdict};
use crate::error::{RunDiagnostics, SimError};
use crate::experiment::{CellData, RetryPolicy};
use crate::fault::FaultSite;
use crate::machine::{CycleHook, Dispatch, Machine};
use crate::offload::{check_region, offload};
use crate::ras::{CeTracker, RasConfig};
use crate::runner::{
    arch_digest, engine_label, golden_arch_digest, golden_step_cap, try_verify_against_golden,
    RunOptions,
};
use crate::system::SystemConfigError;
use crate::watchdog::{Watchdog, DEFAULT_LIVELOCK_CYCLES};
use std::collections::{HashMap, HashSet, VecDeque};
use virec_core::policy::XorShift;
use virec_core::{Core, CoreConfig, RegRegion};
use virec_isa::FlatMem;
use virec_mem::{Fabric, FabricConfig, FabricStats};
use virec_workloads::{kernels, layout, Layout, Workload, WorkloadCtor};

/// Why an arriving (or queued) task was shed by admission control.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RejectReason {
    /// The bounded admission queue was full at arrival.
    QueueFull,
    /// Every core was quarantined: no capacity remained to ever run it.
    QuarantinedCapacity,
}

impl std::fmt::Display for RejectReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RejectReason::QueueFull => write!(f, "queue_full"),
            RejectReason::QuarantinedCapacity => write!(f, "quarantined_capacity"),
        }
    }
}

/// Final, exactly-once outcome of one submitted task.
#[derive(Clone, Debug)]
pub enum TaskOutcome {
    /// The task ran to completion (and verified, when verification is on).
    Completed {
        /// Arrival-to-completion latency in cycles.
        latency: u64,
        /// Dispatch attempts consumed (1 = completed on the first try).
        attempts: u32,
        /// Core slot that ran the successful attempt.
        core: usize,
    },
    /// Shed by admission control without ever running.
    Rejected(RejectReason),
    /// Every attempt the retry policy allowed failed.
    Failed {
        /// Dispatch attempts consumed (0 = expired while still queued).
        attempts: u32,
        /// `SimError::kind`-style tag of the last failure.
        kind: &'static str,
    },
}

/// Seeded service-level fault campaign: which tasks suffer transient
/// upsets and which cores turn sticky-bad mid-run.
///
/// Faults are realized as word flips in the tail of the running task's
/// data segment — bytes the kernel never touches, so the upset perturbs
/// the *architectural image* the golden checker compares, on any engine,
/// without changing the timing run. Routed through the per-site protection
/// model first: under SEC-DED a single-bit transient corrects in place and
/// a sticky double-bit burst raises detected-uncorrectable mid-attempt.
#[derive(Clone, Copy, Debug, Default)]
pub struct ServeFaultPlan {
    /// Number of distinct tasks (seeded choice) whose *first* attempt
    /// suffers a single-bit upset; retries run clean.
    pub transient: usize,
    /// Number of cores (seeded choice) that go bad: every attempt
    /// dispatched to such a core after onset suffers a double-bit burst.
    pub sticky_cores: usize,
    /// Number of cores (seeded choice) with a **stuck-at** defect: every
    /// attempt after onset suffers a double-bit burst, like a sticky core —
    /// but the damage is a localized permanent defect, so with
    /// [`ServeConfig::ras`] enabled the service repairs (spare) or fences
    /// the region instead of quarantining the whole core.
    pub stuck_cores: usize,
    /// Global dispatch count after which sticky/stuck cores turn bad (lets
    /// the service warm up healthy before the campaign bites).
    pub sticky_after: usize,
    /// Number of NoC link upsets injected over the run (one per dispatch
    /// after onset, hammering one link to the RAS CE threshold before
    /// moving to the next). Only lands when the shared fabric is a mesh
    /// ([`virec_mem::FabricTopology::Mesh`]); ignored on the crossbar.
    pub link_faults: usize,
}

impl ServeFaultPlan {
    /// No injected faults.
    pub fn none() -> ServeFaultPlan {
        ServeFaultPlan::default()
    }

    /// A campaign with `transient` one-shot task upsets and
    /// `sticky_cores` bad cores turning after a short warmup.
    pub fn campaign(transient: usize, sticky_cores: usize) -> ServeFaultPlan {
        ServeFaultPlan {
            transient,
            sticky_cores,
            stuck_cores: 0,
            sticky_after: 4,
            link_faults: 0,
        }
    }

    /// A wear campaign: `stuck_cores` cores develop permanent stuck-at
    /// defects after a short warmup (the RAS repair/fence path's stimulus).
    pub fn stuck(stuck_cores: usize) -> ServeFaultPlan {
        ServeFaultPlan {
            transient: 0,
            sticky_cores: 0,
            stuck_cores,
            sticky_after: 4,
            link_faults: 0,
        }
    }

    /// A transport-wear campaign: `link_faults` seeded upsets on mesh NoC
    /// links, exercising CRC/retransmission and predictive link retirement.
    pub fn links(link_faults: usize) -> ServeFaultPlan {
        ServeFaultPlan {
            transient: 0,
            sticky_cores: 0,
            stuck_cores: 0,
            sticky_after: 4,
            link_faults,
        }
    }
}

/// The default task mix: one spec per entry, chosen per arrival by the
/// seeded generator. Covers the paper's headline kernel plus streaming,
/// reduction, and dense-copy behaviour at problem size `n`.
pub fn default_mix(n: u64) -> Vec<(WorkloadCtor, u64)> {
    vec![
        (kernels::spatter::gather as WorkloadCtor, n),
        (kernels::stream::stream_triad as WorkloadCtor, n),
        (kernels::stream::reduction as WorkloadCtor, n),
        (kernels::dense::copy as WorkloadCtor, n),
    ]
}

/// Configuration of a [`TaskService`] run.
#[derive(Clone)]
pub struct ServeConfig {
    /// Number of near-memory cores available to the dispatcher.
    pub ncores: usize,
    /// Per-core configuration (every slot runs the same engine).
    pub core: CoreConfig,
    /// Shared fabric configuration.
    pub fabric: FabricConfig,
    /// Total tasks the arrival process generates.
    pub tasks: usize,
    /// Seed of the arrival process, task mix, and fault campaign.
    pub seed: u64,
    /// Mean cycles between arrivals (jittered uniformly in
    /// `[mean/2, 3*mean/2)`); clamped to at least 1.
    pub mean_interarrival: u64,
    /// Bound of the admission queue; arrivals past it are shed with
    /// [`RejectReason::QueueFull`]. Must be nonzero.
    pub queue_depth: usize,
    /// Per-task SLO deadline in cycles from *arrival* (queued wait
    /// included); 0 disables. An exceeded task fails with kind `deadline`.
    pub deadline_cycles: u64,
    /// Retry policy for failed attempts: bounded count, geometrically
    /// scaled cycle budget.
    pub retry: RetryPolicy,
    /// Consecutive failed attempts on one core before it is quarantined;
    /// 0 disables quarantine.
    pub quarantine_after: u32,
    /// Protection levels the injected faults are routed through.
    pub protection: ProtectionConfig,
    /// The seeded service-level fault campaign.
    pub faults: ServeFaultPlan,
    /// RAS layer for permanent defects: `Some` lets a stuck-at core be
    /// repaired from the spare pool (slot offline for
    /// [`RasConfig::repair_cycles`] while data migrates) or, with the pool
    /// dry, fenced to reduced capacity — instead of being quarantined
    /// outright. `None` (the default) keeps the PR-6 behavior: a stuck
    /// core fails repeatedly until the health tracker quarantines it.
    pub ras: Option<RasConfig>,
    /// Task mix: each arrival picks one `(ctor, n)` spec (seeded).
    pub mix: Vec<(WorkloadCtor, u64)>,
    /// Verify every completed attempt against the golden interpreter.
    pub verify: bool,
}

impl ServeConfig {
    /// A streaming-service configuration with sensible defaults: default
    /// fabric, mean inter-arrival 2048 cycles, queue depth `2*ncores + 4`,
    /// no deadlines, default retry policy, quarantine after 3 consecutive
    /// failures, no protection, no faults, the [`default_mix`] at n=64,
    /// verification on.
    pub fn streaming(ncores: usize, core: CoreConfig, tasks: usize, seed: u64) -> ServeConfig {
        ServeConfig {
            ncores,
            core,
            fabric: FabricConfig::default(),
            tasks,
            seed,
            mean_interarrival: 2048,
            queue_depth: 2 * ncores.max(1) + 4,
            deadline_cycles: 0,
            retry: RetryPolicy::default(),
            quarantine_after: 3,
            protection: ProtectionConfig::none(),
            faults: ServeFaultPlan::none(),
            ras: None,
            mix: default_mix(64),
            verify: true,
        }
    }

    fn validate(&self) -> Result<(), SimError> {
        if self.ncores == 0 {
            return Err(SystemConfigError::ZeroCores.into());
        }
        // Every slot's layout reserves the same register region.
        self.core
            .validate()
            .and_then(|()| check_region(&Layout::for_core(0), self.core.nthreads))
            .map_err(|e| config_error(&e))?;
        if self.queue_depth == 0 {
            return Err(config_error("admission queue depth must be nonzero"));
        }
        if self.mix.is_empty() {
            return Err(config_error("the task mix must name at least one workload"));
        }
        Ok(())
    }
}

/// LCG step over link-injection targets: deterministic, and independent of
/// the service's arrival/fault RNG so enabling the link campaign cannot
/// perturb any other seeded draw.
fn advance_link_target(t: u64) -> u64 {
    t.wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407)
        | 1
}

fn config_error(detail: &str) -> SimError {
    SimError::Config {
        detail: detail.to_string(),
        diag: RunDiagnostics::placeholder("serve-config"),
    }
}

/// Fabric traffic and service occupancy over one reporting epoch.
#[derive(Clone, Copy, Debug, Default)]
pub struct EpochStats {
    /// Service cycle at the end of the epoch.
    pub cycle: u64,
    /// Fabric traffic during this epoch (delta since the previous one).
    pub fabric: FabricStats,
    /// Admission-queue length at epoch end.
    pub queue_len: usize,
    /// Busy core slots at epoch end.
    pub busy: usize,
    /// Healthy (non-quarantined) core slots at epoch end.
    pub healthy: usize,
    /// Tasks completed so far.
    pub completed: usize,
}

/// Aggregated outcome of a [`TaskService`] run.
#[derive(Clone, Debug, Default)]
pub struct ServeReport {
    /// Engine label of the serving cores (`virec`, `banked`, ...).
    pub engine: String,
    /// Core count the service was built with.
    pub ncores: usize,
    /// Tasks the arrival process generated.
    pub submitted: usize,
    /// Tasks that completed (and verified) exactly once.
    pub completed: usize,
    /// Arrivals shed because the admission queue was full.
    pub rejected_queue_full: usize,
    /// Tasks shed because every core was quarantined.
    pub rejected_quarantined: usize,
    /// Tasks whose every allowed attempt failed.
    pub failed: usize,
    /// Re-dispatches charged to the retry policy.
    pub retries: usize,
    /// Re-dispatches caused by a core quarantine (not charged a retry).
    pub failovers: usize,
    /// Cores quarantined by the health tracker.
    pub quarantined_cores: usize,
    /// Stuck-at defects repaired from the spare pool (slot offline for
    /// the migration window, then back at full capacity).
    pub repairs: usize,
    /// Stuck-at defects fenced with the spare pool dry: the core keeps
    /// serving at reduced capacity instead of being quarantined.
    pub fenced_cores: usize,
    /// Spare regions consumed by repairs.
    pub spares_consumed: usize,
    /// Fault events realized by the campaign (corrected ones included).
    pub faults_injected: usize,
    /// Injected upsets corrected in place by the protection model.
    pub faults_corrected: usize,
    /// Injected upsets detected but uncorrectable (attempt aborted).
    pub faults_uncorrectable: usize,
    /// Completed tasks whose final state digest disagreed with the golden
    /// reference — must be zero whenever verification is on.
    pub silent_corruptions: usize,
    /// Tasks that resolved to more than one outcome (must be zero).
    pub duplicated: usize,
    /// Tasks that never resolved to any outcome (must be zero).
    pub lost: usize,
    /// Total service cycles.
    pub cycles: u64,
    /// Sum over all cycles of delivered capacity in **millicores**: a
    /// healthy core contributes 1000 per cycle, a fenced (degraded) core
    /// 750, a repairing or quarantined core 0. Availability divides this
    /// by `ncores * cycles * 1000`.
    pub capacity_millicore_cycles: u64,
    /// Completion latencies in cycles, sorted ascending.
    pub latencies: Vec<u64>,
    /// Cumulative shared-fabric statistics at end of run: per-port
    /// attribution plus the mesh NoC counters (hops, CRC catches,
    /// retransmissions, link retirements) when the topology is a mesh.
    pub fabric: FabricStats,
    /// Per-epoch fabric/occupancy snapshots.
    pub epochs: Vec<EpochStats>,
    /// Human-readable description of the most recent attempt failure, kept
    /// for post-mortem diagnosis of faulty campaigns.
    pub last_failure: Option<String>,
}

impl ServeReport {
    /// Tasks that resolved to some outcome.
    pub fn accounted(&self) -> usize {
        self.completed + self.rejected_queue_full + self.rejected_quarantined + self.failed
    }

    /// Completed fraction of submitted tasks.
    pub fn goodput(&self) -> f64 {
        if self.submitted == 0 {
            return 0.0;
        }
        self.completed as f64 / self.submitted as f64
    }

    /// Time-weighted fraction of core capacity actually delivered, in
    /// millicore-cycles: quarantined and repairing slots deliver nothing,
    /// fenced slots deliver 750/1000, healthy slots the full 1000.
    pub fn availability(&self) -> f64 {
        let capacity = (self.ncores as u64 * self.cycles).saturating_mul(1000);
        if capacity == 0 {
            return 1.0;
        }
        self.capacity_millicore_cycles as f64 / capacity as f64
    }

    /// Completed tasks per second at the 1 GHz timing convention
    /// (cycles ≈ ns).
    pub fn tasks_per_sec(&self) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        self.completed as f64 / (self.cycles as f64 * 1e-9)
    }

    /// Nearest-rank latency percentile in cycles (`p` in 0..=1); 0 when no
    /// task completed.
    pub fn latency_percentile(&self, p: f64) -> u64 {
        if self.latencies.is_empty() {
            return 0;
        }
        let idx = (p.clamp(0.0, 1.0) * (self.latencies.len() - 1) as f64).round() as usize;
        self.latencies[idx]
    }

    /// Median completion latency in cycles.
    pub fn p50(&self) -> u64 {
        self.latency_percentile(0.50)
    }

    /// 99th-percentile completion latency in cycles.
    pub fn p99(&self) -> u64 {
        self.latency_percentile(0.99)
    }

    /// 99.9th-percentile completion latency in cycles.
    pub fn p999(&self) -> u64 {
        self.latency_percentile(0.999)
    }

    /// Multi-line, stable-format summary (one `serve[engine]:` prefix per
    /// line; CI greps these).
    pub fn summary(&self) -> String {
        let e = &self.engine;
        let mut s = format!(
            "serve[{e}]: submitted={} completed={} rejected_queue_full={} \
             rejected_quarantined={} failed={} lost={} duplicated={}\n\
             serve[{e}]: faults injected={} corrected={} uncorrectable={} \
             silent_corruptions={} retries={} failovers={} quarantined_cores={}\n\
             serve[{e}]: p50={} p99={} p999={} cycles, tasks_per_sec={:.0}, \
             availability={:.1}%, goodput={:.1}%\n\
             serve[{e}]: ras repairs={} fenced_cores={} spares_consumed={}",
            self.submitted,
            self.completed,
            self.rejected_queue_full,
            self.rejected_quarantined,
            self.failed,
            self.lost,
            self.duplicated,
            self.faults_injected,
            self.faults_corrected,
            self.faults_uncorrectable,
            self.silent_corruptions,
            self.retries,
            self.failovers,
            self.quarantined_cores,
            self.p50(),
            self.p99(),
            self.p999(),
            self.tasks_per_sec(),
            self.availability() * 100.0,
            self.goodput() * 100.0,
            self.repairs,
            self.fenced_cores,
            self.spares_consumed,
        );
        // Transport line only when the run actually moved flits over a
        // mesh, so crossbar summaries stay byte-identical.
        if self.fabric.noc_hops > 0 {
            s.push_str(&format!(
                "\nserve[{e}]: noc hops={} crc_detected={} retransmissions={} \
                 links_retired={} links_fenced={}",
                self.fabric.noc_hops,
                self.fabric.noc_crc_detected,
                self.fabric.noc_retransmissions,
                self.fabric.noc_links_retired,
                self.fabric.noc_links_fenced,
            ));
        }
        s
    }

    /// The SLO summary as experiment-layer metrics, for emission into the
    /// machine-readable `results/<name>.json` provenance format.
    pub fn metrics(&self) -> CellData {
        let mut m = vec![
            ("submitted".to_string(), self.submitted as f64),
            ("completed".to_string(), self.completed as f64),
            (
                "rejected_queue_full".to_string(),
                self.rejected_queue_full as f64,
            ),
            (
                "rejected_quarantined".to_string(),
                self.rejected_quarantined as f64,
            ),
            ("failed".to_string(), self.failed as f64),
            ("lost".to_string(), self.lost as f64),
            ("duplicated".to_string(), self.duplicated as f64),
            ("retries".to_string(), self.retries as f64),
            ("failovers".to_string(), self.failovers as f64),
            (
                "quarantined_cores".to_string(),
                self.quarantined_cores as f64,
            ),
            ("repairs".to_string(), self.repairs as f64),
            ("fenced_cores".to_string(), self.fenced_cores as f64),
            ("spares_consumed".to_string(), self.spares_consumed as f64),
            ("faults_injected".to_string(), self.faults_injected as f64),
            ("faults_corrected".to_string(), self.faults_corrected as f64),
            (
                "faults_uncorrectable".to_string(),
                self.faults_uncorrectable as f64,
            ),
            (
                "silent_corruptions".to_string(),
                self.silent_corruptions as f64,
            ),
            ("cycles".to_string(), self.cycles as f64),
            ("tasks_per_sec".to_string(), self.tasks_per_sec()),
            ("p50_cycles".to_string(), self.p50() as f64),
            ("p99_cycles".to_string(), self.p99() as f64),
            ("p999_cycles".to_string(), self.p999() as f64),
            ("availability".to_string(), self.availability()),
            ("goodput".to_string(), self.goodput()),
        ];
        if self.fabric.noc_hops > 0 {
            m.push((
                "noc_retransmissions".to_string(),
                self.fabric.noc_retransmissions as f64,
            ));
            m.push((
                "noc_links_retired".to_string(),
                self.fabric.noc_links_retired as f64,
            ));
            m.push((
                "noc_links_fenced".to_string(),
                self.fabric.noc_links_fenced as f64,
            ));
        }
        CellData::Metrics(m)
    }
}

/// Cycles per reporting epoch (fabric-traffic snapshots).
const EPOCH_CYCLES: u64 = 1 << 16;

/// One admitted task's dispatch state.
#[derive(Clone, Copy, Debug)]
struct Task {
    id: usize,
    spec: usize,
    arrival: u64,
    attempts: u32,
    retries_left: u32,
    scale: u64,
}

impl Task {
    /// Whether the task is past its `deadline`-cycle SLO at `now` (0
    /// disables the SLO).
    fn expired(&self, deadline: u64, now: u64) -> bool {
        deadline > 0 && now.saturating_sub(self.arrival) >= deadline
    }
}

/// A word upset scheduled against one attempt, applied `at` cycles after
/// dispatch.
#[derive(Clone, Copy, Debug)]
struct AttemptFault {
    at: u64,
    addr: u64,
    mask: u64,
}

/// The attempt a slot's core is running.
struct InFlight {
    task: Task,
    watchdog: Watchdog,
    dispatched_at: u64,
    budget: u64,
    fault: Option<AttemptFault>,
}

enum Slot {
    Idle,
    Busy(InFlight),
    Quarantined,
    /// Offline while a stuck region's data migrates onto a spare; back to
    /// `Idle` (at full capacity) at cycle `until`.
    Repairing {
        until: u64,
    },
}

enum AttemptEnd {
    Done,
    Fail { kind: &'static str, detail: String },
}

/// The host-side streaming dispatcher: admission queue, per-core dispatch
/// through [`offload`], retry/quarantine/failover, and SLO accounting.
pub struct TaskService {
    /// One core per slot, the shared fabric and the memory image.
    machine: Machine,
    dispatcher: Dispatcher,
}

/// The service's [`CycleHook`] on its machine: admits, dispatches and
/// settles tasks around every machine cycle.
struct Dispatcher {
    cfg: ServeConfig,
    slots: Vec<Slot>,
    consec: Vec<u32>,
    workloads: Vec<Vec<Workload>>,
    golden: HashMap<(usize, usize), u64>,
    sticky: Vec<bool>,
    /// Cores with an un-retired stuck-at defect (cleared by repair/fence).
    stuck: Vec<bool>,
    /// Cores running fenced: the defect is out of service but so is part
    /// of the capacity (750/1000 millicores).
    fenced: Vec<bool>,
    /// Spare regions left in the service-wide RAS pool.
    spares_left: u32,
    /// Leaky-bucket CE counters over mesh NoC links (keys `(1<<62)|link`,
    /// mirroring the runner's keying).
    link_tracker: CeTracker,
    /// Remaining link upsets the campaign may inject.
    link_faults_left: usize,
    /// Current link-injection target (an opaque index the fabric reduces
    /// modulo its link population); advanced by an LCG once a target is
    /// retired, so the campaign wears out one link at a time.
    link_target: u64,
    transient_tasks: HashSet<usize>,
    arrivals: Vec<(u64, usize)>,
    /// The next arrival to admit.
    next_arrival: usize,
    /// Admitted tasks waiting for a slot.
    queue: VecDeque<Task>,
    rng: XorShift,
    /// Slot the next dispatch scan starts from (round-robin, so light
    /// load still exercises every healthy core rather than pinning to
    /// slot 0).
    next_slot: usize,
    dispatches: usize,
    accounted: usize,
    /// Attempts that ended this cycle, in settle order.
    ended: Vec<(usize, AttemptEnd)>,
    /// Cycle of the next epoch snapshot.
    next_epoch: u64,
    /// Delivered capacity per cycle since `rate_from`, in millicores, not
    /// yet integrated into the report.
    rate: u64,
    rate_from: u64,
    outcomes: Vec<Option<TaskOutcome>>,
    report: ServeReport,
}

impl TaskService {
    /// Builds the service: validates the configuration, realizes the
    /// seeded arrival process and fault campaign, and pre-instantiates the
    /// per-slot workload images.
    pub fn new(cfg: ServeConfig) -> Result<TaskService, SimError> {
        cfg.validate()?;
        let mut rng = XorShift::new(cfg.seed);
        let mean = cfg.mean_interarrival.max(1);
        let mut t = 0u64;
        let arrivals: Vec<(u64, usize)> = (0..cfg.tasks)
            .map(|_| {
                t += mean / 2 + rng.next_u64() % mean;
                let spec = (rng.next_u64() % cfg.mix.len() as u64) as usize;
                (t, spec)
            })
            .collect();

        let mut plan_rng = XorShift::new(cfg.seed ^ 0x9E37_79B9_7F4A_7C15);
        let mut transient_tasks = HashSet::new();
        if cfg.tasks > 0 {
            while transient_tasks.len() < cfg.faults.transient.min(cfg.tasks) {
                transient_tasks.insert((plan_rng.next_u64() % cfg.tasks as u64) as usize);
            }
        }
        let mut sticky = vec![false; cfg.ncores];
        let mut picked = 0;
        while picked < cfg.faults.sticky_cores.min(cfg.ncores) {
            let c = (plan_rng.next_u64() % cfg.ncores as u64) as usize;
            if !sticky[c] {
                sticky[c] = true;
                picked += 1;
            }
        }
        let mut stuck = vec![false; cfg.ncores];
        let mut picked = 0;
        while picked < cfg.faults.stuck_cores.min(cfg.ncores) {
            let c = (plan_rng.next_u64() % cfg.ncores as u64) as usize;
            if !stuck[c] {
                stuck[c] = true;
                picked += 1;
            }
        }

        let workloads: Vec<Vec<Workload>> = (0..cfg.ncores)
            .map(|slot| {
                cfg.mix
                    .iter()
                    .map(|&(ctor, n)| ctor(n, Layout::for_core(slot)))
                    .collect()
            })
            .collect();

        let report = ServeReport {
            engine: engine_label(&cfg.core).to_string(),
            ncores: cfg.ncores,
            submitted: cfg.tasks,
            ..ServeReport::default()
        };
        let dispatcher = Dispatcher {
            slots: (0..cfg.ncores).map(|_| Slot::Idle).collect(),
            consec: vec![0; cfg.ncores],
            workloads,
            golden: HashMap::new(),
            sticky,
            stuck,
            fenced: vec![false; cfg.ncores],
            spares_left: cfg.ras.map_or(0, |rc| rc.spare_rows),
            link_tracker: {
                let rc = cfg.ras.unwrap_or_default();
                CeTracker::new(rc.ce_threshold, rc.ce_leak_interval)
            },
            link_faults_left: cfg.faults.link_faults,
            link_target: cfg.seed | 1,
            transient_tasks,
            arrivals,
            next_arrival: 0,
            queue: VecDeque::new(),
            rng: plan_rng,
            next_slot: 0,
            dispatches: 0,
            accounted: 0,
            ended: Vec::new(),
            next_epoch: EPOCH_CYCLES,
            rate: 0,
            rate_from: 0,
            outcomes: vec![None; cfg.tasks],
            report,
            cfg,
        };
        let cores = (0..dispatcher.cfg.ncores)
            .map(|slot| dispatcher.parked_core(slot))
            .collect();
        let machine = Machine::new(
            cores,
            Fabric::new(dispatcher.cfg.fabric),
            FlatMem::new(0, layout::mem_size(dispatcher.cfg.ncores)),
        );
        Ok(TaskService {
            machine,
            dispatcher,
        })
    }

    /// Runs the whole arrival process to drain and returns the report.
    pub fn run(&mut self) -> Result<ServeReport, SimError> {
        self.run_with(&RunOptions::default())
    }

    /// [`TaskService::run`] under `opts.gate` (a typed
    /// [`SimError::Deadline`] when the service-wide deadline expires or
    /// cancellation is requested) and `opts.dense_loop`; the other options
    /// are ignored, since each attempt keeps its own watchdog and budget.
    pub fn run_with(&mut self, opts: &RunOptions) -> Result<ServeReport, SimError> {
        let d = &mut self.dispatcher;
        let names = vec!["serve"; d.slots.len()];
        let now = self.machine.run(d, opts, &names)?;
        let fabric = &mut self.machine.fabric;
        d.integrate_capacity(now);
        // The last cycle's epoch check, then the closing snapshot.
        d.epoch_due(fabric, now);
        d.push_epoch(fabric, now);
        d.report.cycles = now;
        d.report.lost = d.outcomes.iter().filter(|o| o.is_none()).count();
        d.report.latencies.sort_unstable();
        d.report.fabric = *fabric.stats();
        Ok(d.report.clone())
    }

    /// Every task's final outcome, indexed by task id (`None` = lost).
    pub fn outcomes(&self) -> &[Option<TaskOutcome>] {
        &self.dispatcher.outcomes
    }
}

impl CycleHook for Dispatcher {
    /// Everything due before the cores tick: repair completions,
    /// admission, SLO shedding, dispatch, draining a fully quarantined
    /// queue, due word upsets and in-flight SLO expiries.
    fn before_tick(&mut self, m: &mut Machine, now: u64) {
        self.integrate_capacity(now);
        self.epoch_due(&mut m.fabric, now);

        // Repair completions: a slot whose migration window elapsed
        // returns to service at full capacity.
        for slot in &mut self.slots {
            if matches!(slot, Slot::Repairing { until } if now >= *until) {
                *slot = Slot::Idle;
            }
        }

        // Admission: arrivals due this cycle either queue or shed.
        while let Some(&(arrival, spec)) = self.arrivals.get(self.next_arrival) {
            if arrival > now {
                break;
            }
            let id = self.next_arrival;
            self.next_arrival += 1;
            let task = Task {
                id,
                spec,
                arrival,
                attempts: 0,
                retries_left: self.cfg.retry.max_retries,
                scale: 1,
            };
            if self.healthy() == 0 {
                self.finish(id, TaskOutcome::Rejected(RejectReason::QuarantinedCapacity));
            } else if self.queue.len() >= self.cfg.queue_depth {
                self.finish(id, TaskOutcome::Rejected(RejectReason::QueueFull));
            } else {
                self.queue.push_back(task);
            }
        }

        // SLO shedding: tasks whose deadline passed while still queued.
        let deadline = self.cfg.deadline_cycles;
        while let Some(i) = self.queue.iter().position(|t| t.expired(deadline, now)) {
            let t = self.queue.remove(i).expect("position is in range");
            let outcome = TaskOutcome::Failed {
                attempts: t.attempts,
                kind: "deadline",
            };
            self.finish(t.id, outcome);
        }

        // Dispatch queued tasks onto idle healthy slots. The scan starts
        // one past the last dispatched slot, so under light load work
        // rotates over every healthy core instead of pinning to slot 0
        // (which would starve the fault campaign's sticky cores of
        // dispatches and hide them from quarantine).
        for off in 0..self.slots.len() {
            let i = (self.next_slot + off) % self.slots.len();
            if !matches!(self.slots[i], Slot::Idle) {
                continue;
            }
            let Some(task) = self.queue.pop_front() else {
                break;
            };
            self.dispatch(m, i, task, now);
            self.next_slot = (i + 1) % self.slots.len();
        }

        // A fully-quarantined service must drain, not hang.
        if self.healthy() == 0 {
            for t in std::mem::take(&mut self.queue) {
                self.finish(
                    t.id,
                    TaskOutcome::Rejected(RejectReason::QuarantinedCapacity),
                );
            }
        }

        if !self.busy() {
            // Idle until the next due cycle: capacity holds at this rate.
            self.rate = self.capacity_millicores(&m.fabric);
            return;
        }
        // A due upset may abort an attempt, and an attempt past its SLO
        // fails; either way its core sits out the tick.
        for i in 0..self.slots.len() {
            let Slot::Busy(inf) = &mut self.slots[i] else {
                continue;
            };
            let expired = inf.task.expired(deadline, now);
            let due = inf.fault.take_if(|f| now - inf.dispatched_at >= f.at);
            let aborted = due.and_then(|f| self.apply_fault(&mut m.mem, f));
            if expired || aborted.is_some() {
                m.cores[i] = self.parked_core(i);
            }
            if let Some(detail) = aborted {
                let kind = "uncorrectable";
                self.ended.push((i, AttemptEnd::Fail { kind, detail }));
            }
        }
    }

    /// Settles the attempts that ended this cycle — aborted before the
    /// tick, or done, hazarded, livelocked or over budget after it — in
    /// slot order behind the aborted ones, then integrates capacity.
    fn after_tick(&mut self, m: &mut Machine, now: u64) -> Result<Option<u64>, SimError> {
        let deadline = self.cfg.deadline_cycles;
        for (i, slot) in self.slots.iter_mut().enumerate() {
            let Slot::Busy(inf) = slot else { continue };
            if self.ended.iter().any(|(s, _)| *s == i) {
                continue; // already aborted by an uncorrectable upset
            }
            let core = &m.cores[i];
            let local = now - inf.dispatched_at;
            let fail = |kind, detail| Some(AttemptEnd::Fail { kind, detail });
            let end = if inf.task.expired(deadline, now) {
                let detail = format!("task exceeded its {deadline}-cycle SLO deadline");
                fail("deadline", detail)
            } else if let Some(detail) = core.structural_fault() {
                fail("structural_hazard", detail.to_string())
            } else if core.done() {
                Some(AttemptEnd::Done)
            } else if let Err(stalled) = inf.watchdog.observe(local + 1, core.stats().instructions)
            {
                fail("livelock", format!("no commit for {stalled} cycles"))
            } else if local + 1 >= inf.budget {
                fail(
                    "cycle_budget",
                    format!("attempt exceeded {} cycles", inf.budget),
                )
            } else {
                None
            };
            self.ended.extend(end.map(|end| (i, end)));
        }
        for (slot, end) in std::mem::take(&mut self.ended) {
            self.settle(m, slot, end, now);
        }
        self.rate = self.capacity_millicores(&m.fabric);
        Ok(None)
    }

    /// The next cycle the dispatcher acts on. While busy, the skip lands
    /// on exactly the cycles of the dense loop's dispatcher actions: the
    /// next arrival, repair completion, epoch and queued-task SLO expiry,
    /// and each attempt's due upset, SLO deadline, watchdog firing and
    /// budget exhaustion. While idle, the clock jumps to the next arrival
    /// or repair completion.
    fn next_due(&self, now: u64) -> u64 {
        let arrival = self
            .arrivals
            .get(self.next_arrival)
            .map_or(u64::MAX, |a| a.0);
        let repair = self.slots.iter().fold(u64::MAX, |due, s| match s {
            Slot::Repairing { until } => due.min(*until),
            _ => due,
        });
        if !self.busy() {
            return arrival.min(repair).max(now);
        }
        // A queued task with an idle slot dispatches at the very next
        // cycle; a queued task with zero healthy cores drains there.
        if !self.queue.is_empty()
            && (self.healthy() == 0 || self.slots.iter().any(|s| matches!(s, Slot::Idle)))
        {
            return now;
        }
        let deadline = self.cfg.deadline_cycles;
        let mut due = arrival.min(repair).min(self.next_epoch);
        for slot in &self.slots {
            let Slot::Busy(inf) = slot else { continue };
            if let Some(f) = inf.fault {
                due = due.min(inf.dispatched_at + f.at);
            }
            if deadline > 0 {
                due = due.min(inf.task.arrival + deadline);
            }
            if let Some(fires) = inf.watchdog.deadline() {
                // `fires` is a local observation cycle (observe runs at
                // local+1), so the tick that fires it is one earlier.
                due = due.min(inf.dispatched_at + fires - 1);
            }
            due = due.min((inf.dispatched_at + inf.budget).saturating_sub(1));
        }
        if deadline > 0 {
            for t in &self.queue {
                due = due.min(t.arrival + deadline);
            }
        }
        due
    }

    fn dispatch_state(&self) -> Option<Dispatch> {
        Some(if self.accounted >= self.cfg.tasks {
            Dispatch::Drained
        } else if self.busy() {
            Dispatch::Busy
        } else {
            Dispatch::Idle
        })
    }
}

impl Dispatcher {
    /// Whether any slot has an attempt in flight.
    fn busy(&self) -> bool {
        self.slots.iter().any(|s| matches!(s, Slot::Busy(_)))
    }

    /// Slots that can still (eventually) serve: everything but
    /// quarantined. A repairing slot counts — it returns to service — so
    /// admission keeps queueing instead of shedding while repairs run.
    fn healthy(&self) -> usize {
        self.slots
            .iter()
            .filter(|s| !matches!(s, Slot::Quarantined))
            .count()
    }

    /// Delivered capacity this cycle in millicores: healthy slots are
    /// worth 1000, fenced slots 750, repairing and quarantined slots 0.
    fn capacity_millicores(&self, fabric: &Fabric) -> u64 {
        let cap: u64 = self
            .slots
            .iter()
            .zip(&self.fenced)
            .map(|(s, &fenced)| match s {
                Slot::Quarantined | Slot::Repairing { .. } => 0,
                _ if fenced => 750,
                _ => 1000,
            })
            .sum();
        // Mesh link loss shrinks delivered capacity: a retired link's
        // bandwidth is gone (traffic routes around it), a fenced link
        // keeps half. Defect-free meshes and crossbars scale by 1.
        match fabric.link_health() {
            Some(h) if h.total > 0 => {
                cap * (2 * h.healthy as u64 + h.fenced as u64) / (2 * h.total as u64)
            }
            _ => cap,
        }
    }

    /// Adds the capacity delivered over `[rate_from, now)` to the report.
    fn integrate_capacity(&mut self, now: u64) {
        // Saturating: a repeated run restarts the clock at 0.
        let span = now.saturating_sub(self.rate_from);
        self.report.capacity_millicore_cycles += self.rate * span;
        self.rate_from = now;
    }

    /// Takes the epoch snapshot once `now` reaches the next epoch.
    fn epoch_due(&mut self, fabric: &mut Fabric, now: u64) {
        if now >= self.next_epoch {
            self.push_epoch(fabric, now);
            self.next_epoch = now + EPOCH_CYCLES;
        }
    }

    fn push_epoch(&mut self, fabric: &mut Fabric, now: u64) {
        self.report.epochs.push(EpochStats {
            cycle: now,
            fabric: fabric.epoch_stats(),
            queue_len: self.queue.len(),
            busy: self
                .slots
                .iter()
                .filter(|s| matches!(s, Slot::Busy(_)))
                .count(),
            healthy: self.healthy(),
            completed: self.report.completed,
        });
    }

    /// A halted core that holds `slot` of the machine while no attempt
    /// runs there (a failed attempt's core must never tick again).
    fn parked_core(&self, slot: usize) -> Core {
        let cfg = self.cfg.core;
        let w = &self.workloads[slot][0];
        let region = RegRegion::new(w.layout.region_base, cfg.nthreads);
        let ports = (2 * slot, 2 * slot + 1);
        let mut core = Core::new(cfg, w.program().clone(), region, w.layout.code_base, ports);
        for tid in 0..cfg.nthreads {
            core.deactivate_thread(tid);
        }
        core
    }

    /// Zeroes the slot's whole address span so a re-offload starts from a
    /// clean image: stale data from a previous (possibly killed or
    /// corrupted) task must never leak into the next task's golden
    /// comparison.
    fn scrub(mem: &mut FlatMem, slot: usize) {
        const CHUNK: usize = 1 << 16;
        static ZEROS: [u8; CHUNK] = [0; CHUNK];
        let base = slot as u64 * layout::CORE_SPAN;
        let mut off = 0u64;
        while off < layout::CORE_SPAN {
            let len = CHUNK.min((layout::CORE_SPAN - off) as usize);
            mem.write_bytes(base + off, &ZEROS[..len]);
            off += len as u64;
        }
    }

    fn dispatch(&mut self, m: &mut Machine, slot: usize, mut task: Task, now: u64) {
        task.attempts += 1;
        self.dispatches += 1;
        self.inject_link_upset(&mut m.fabric, now);
        Self::scrub(&mut m.mem, slot);
        let fault = self.plan_attempt_fault(slot, &task);
        let w = &self.workloads[slot][task.spec];
        let region = offload(&mut m.mem, w, self.cfg.core.nthreads);
        m.cores[slot] = Core::new(
            self.cfg.core,
            w.program().clone(),
            region,
            w.layout.code_base,
            (2 * slot, 2 * slot + 1),
        );
        let budget = self.cfg.core.max_cycles.saturating_mul(task.scale);
        self.slots[slot] = Slot::Busy(InFlight {
            task,
            watchdog: Watchdog::new(DEFAULT_LIVELOCK_CYCLES),
            dispatched_at: now,
            budget,
            fault,
        });
    }

    /// Realizes one scheduled NoC link upset (dispatch-clocked, so both
    /// step loops inject on exactly the same cycles): the target link's
    /// next flit will arrive CRC-dirty and retransmit, and the service's
    /// CE tracker retires the link — route-around or half-bandwidth fence
    /// — once it crosses the RAS threshold. Crossbar fabrics have no
    /// links; the campaign is inert there.
    fn inject_link_upset(&mut self, fabric: &mut Fabric, now: u64) {
        if self.link_faults_left == 0 || self.dispatches <= self.cfg.faults.sticky_after {
            return;
        }
        let Some(link) = fabric.inject_link_fault(self.link_target) else {
            // Crossbar, or the target already out of service: move on (the
            // next dispatch attacks the advanced target).
            if fabric.link_health().is_some() {
                self.link_target = advance_link_target(self.link_target);
            }
            return;
        };
        self.link_faults_left -= 1;
        self.report.faults_injected += 1;
        let key = (1u64 << 62) | link as u64;
        if self.link_tracker.observe(key, now) {
            self.link_tracker.clear(key);
            let _ = fabric.retire_link(link);
            self.link_target = advance_link_target(self.link_target);
        }
    }

    /// Realizes the campaign for one attempt: sticky and stuck cores burst
    /// two bits of one word, transient tasks flip one bit on their first
    /// attempt.
    fn plan_attempt_fault(&mut self, slot: usize, task: &Task) -> Option<AttemptFault> {
        let onset = self.dispatches > self.cfg.faults.sticky_after;
        let sticky = self.sticky[slot] && onset;
        let stuck = self.stuck[slot] && onset;
        let transient = task.attempts == 1 && self.transient_tasks.contains(&task.id);
        if !sticky && !stuck && !transient {
            return None;
        }
        let w = &self.workloads[slot][task.spec];
        // Tail of the data segment: bytes no kernel touches, so the flip
        // perturbs the compared image without changing execution.
        let addr = w.layout.data_base + w.layout.data_size - 64 + 8 * (self.rng.next_u64() % 8);
        let b1 = (self.rng.next_u64() % 64) as u8;
        let mask = if sticky || stuck {
            let b2 = (b1 as u64 + 1 + self.rng.next_u64() % 63) % 64;
            (1u64 << b1) | (1u64 << b2)
        } else {
            1u64 << b1
        };
        Some(AttemptFault {
            at: 16 + self.rng.next_u64() % 240,
            addr,
            mask,
        })
    }

    /// Routes one scheduled word upset through the protection model.
    /// Returns the failure description when the upset was detected but
    /// uncorrectable (the attempt must abort).
    fn apply_fault(&mut self, mem: &mut FlatMem, fault: AttemptFault) -> Option<String> {
        self.report.faults_injected += 1;
        let level = self.cfg.protection.level(FaultSite::DramLine);
        let word = mem.read_u64(fault.addr);
        let mask = fault.mask;
        match word_verdict(level, word, mask) {
            WordVerdict::Applied | WordVerdict::PassedThrough => {
                mem.write_u64(fault.addr, word ^ mask);
                None
            }
            WordVerdict::Corrected => {
                self.report.faults_corrected += 1;
                None
            }
            WordVerdict::Detected => {
                self.report.faults_uncorrectable += 1;
                let what = match level {
                    ProtectionLevel::Parity => "parity detected",
                    _ => "secded detected double-bit",
                };
                Some(format!("{what} upset at {:#x} mask {mask:#x}", fault.addr))
            }
        }
    }

    /// Resolves one ended attempt: completion (verify + silent-corruption
    /// cross-check) or failure (retry / quarantine + failover / final).
    fn settle(&mut self, m: &mut Machine, slot: usize, end: AttemptEnd, now: u64) {
        let Slot::Busy(inf) = std::mem::replace(&mut self.slots[slot], Slot::Idle) else {
            return;
        };
        let mut task = inf.task;
        let end = match end {
            AttemptEnd::Done => {
                let Machine { cores, mem, .. } = &mut *m;
                let core = &mut cores[slot];
                core.finalize_stats();
                core.drain(mem);
                let w = &self.workloads[slot][task.spec];
                let nthreads = self.cfg.core.nthreads;
                let verdict = if self.cfg.verify {
                    try_verify_against_golden(w, nthreads, core, mem, now).err()
                } else {
                    None
                };
                match verdict {
                    Some(e) => AttemptEnd::Fail {
                        kind: e.kind(),
                        detail: e.to_string(),
                    },
                    None => {
                        // Independent second net: a completed task whose
                        // digest disagrees with the golden reference is a
                        // silent corruption (provably impossible while
                        // verification is on).
                        let digest = arch_digest(core, mem, w, nthreads);
                        let step_cap = golden_step_cap(core.stats().instructions);
                        let key = (slot, task.spec);
                        let golden = match self.golden.get(&key) {
                            Some(g) => Some(*g),
                            None => match golden_arch_digest(w, nthreads, step_cap) {
                                Ok(g) => {
                                    self.golden.insert(key, g);
                                    Some(g)
                                }
                                Err(_) => None,
                            },
                        };
                        if golden.is_some_and(|g| g != digest) {
                            self.report.silent_corruptions += 1;
                        }
                        self.consec[slot] = 0;
                        self.finish(
                            task.id,
                            TaskOutcome::Completed {
                                latency: now.saturating_sub(task.arrival) + 1,
                                attempts: task.attempts,
                                core: slot,
                            },
                        );
                        return;
                    }
                }
            }
            fail => fail,
        };
        let AttemptEnd::Fail { kind, detail } = end else {
            unreachable!("completions returned above")
        };
        if !m.cores[slot].done() {
            m.cores[slot] = self.parked_core(slot);
        }
        self.report.last_failure = Some(format!(
            "task {} attempt {} on core {slot}: {kind}: {detail}",
            task.id, task.attempts
        ));
        // A failure on a core with an un-retired stuck-at defect is the
        // defect's doing, not the task's or the core's: the RAS layer
        // retires the region — onto a spare when one is left (slot offline
        // while the data migrates), fenced at reduced capacity otherwise —
        // and the victim task re-dispatches for free, like a failover.
        // Without RAS the defect keeps firing until quarantine takes the
        // whole core (the pre-RAS behavior).
        if self.stuck[slot] && self.dispatches > self.cfg.faults.sticky_after {
            if let Some(rc) = self.cfg.ras {
                self.stuck[slot] = false;
                self.consec[slot] = 0;
                if self.spares_left > 0 {
                    self.spares_left -= 1;
                    self.report.spares_consumed += 1;
                    self.report.repairs += 1;
                    self.slots[slot] = Slot::Repairing {
                        until: now + rc.repair_cycles.max(1),
                    };
                } else {
                    self.fenced[slot] = true;
                    self.report.fenced_cores += 1;
                }
                self.report.failovers += 1;
                self.queue.push_front(task);
                return;
            }
        }
        self.consec[slot] += 1;
        let quarantine_now = self.cfg.quarantine_after > 0
            && self.consec[slot] >= self.cfg.quarantine_after
            && !matches!(self.slots[slot], Slot::Quarantined);
        if quarantine_now {
            self.slots[slot] = Slot::Quarantined;
            self.report.quarantined_cores += 1;
            if self.healthy() > 0 {
                // Failover: the task that tripped the quarantine gets a
                // free re-dispatch to a healthy core.
                self.report.failovers += 1;
                self.queue.push_front(task);
            } else {
                self.finish(
                    task.id,
                    TaskOutcome::Failed {
                        attempts: task.attempts,
                        kind,
                    },
                );
            }
            return;
        }
        match self.cfg.retry.next_scale(task.scale) {
            Some(next) if task.retries_left > 0 => {
                task.retries_left -= 1;
                task.scale = next;
                self.report.retries += 1;
                self.queue.push_front(task);
            }
            _ => self.finish(
                task.id,
                TaskOutcome::Failed {
                    attempts: task.attempts,
                    kind,
                },
            ),
        }
    }

    /// Records the final outcome of `id` exactly once; a second resolution
    /// is counted as a duplication (an invariant violation CI fails on)
    /// and otherwise ignored.
    fn finish(&mut self, id: usize, outcome: TaskOutcome) {
        if self.outcomes[id].is_some() {
            self.report.duplicated += 1;
            return;
        }
        match &outcome {
            TaskOutcome::Completed { latency, .. } => {
                self.report.completed += 1;
                self.report.latencies.push(*latency);
            }
            TaskOutcome::Rejected(RejectReason::QueueFull) => {
                self.report.rejected_queue_full += 1;
            }
            TaskOutcome::Rejected(RejectReason::QuarantinedCapacity) => {
                self.report.rejected_quarantined += 1;
            }
            TaskOutcome::Failed { .. } => self.report.failed += 1,
        }
        self.outcomes[id] = Some(outcome);
        self.accounted += 1;
    }
}

/// Convenience wrapper: builds and runs a service in one call.
pub fn run_service(cfg: ServeConfig) -> Result<ServeReport, SimError> {
    TaskService::new(cfg)?.run()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg(ncores: usize, tasks: usize) -> ServeConfig {
        let mut cfg = ServeConfig::streaming(ncores, CoreConfig::banked(2), tasks, 0xA11CE);
        cfg.mix = default_mix(32);
        cfg.mean_interarrival = 512;
        cfg
    }

    #[test]
    fn clean_service_completes_every_task() {
        let r = run_service(quick_cfg(2, 12)).expect("service runs");
        assert_eq!(r.completed, 12);
        assert_eq!(r.accounted(), r.submitted);
        assert_eq!(r.lost + r.duplicated + r.failed, 0);
        assert_eq!(r.latencies.len(), 12);
        assert!(r.p50() <= r.p99() && r.p99() <= r.p999());
        assert!(r.tasks_per_sec() > 0.0);
        assert!((r.availability() - 1.0).abs() < 1e-12);
        assert!((r.goodput() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn mesh_link_campaign_retires_links_and_loses_no_tasks() {
        let mut cfg = quick_cfg(4, 24);
        cfg.fabric.topology = "mesh2x2".parse().unwrap();
        cfg.faults = ServeFaultPlan::links(9);
        cfg.ras = Some(RasConfig::default());
        let r = run_service(cfg).expect("mesh service runs");
        assert_eq!(r.accounted(), r.submitted);
        assert_eq!(r.lost + r.duplicated + r.silent_corruptions, 0);
        assert!(r.fabric.noc_hops > 0, "traffic must traverse the mesh");
        assert!(
            r.fabric.noc_retransmissions >= 1,
            "corrupted flits must be caught and retried"
        );
        assert!(
            r.fabric.noc_links_retired + r.fabric.noc_links_fenced >= 1,
            "nine upsets at threshold 3 must retire links"
        );
        assert!(
            r.availability() < 1.0,
            "lost link bandwidth must show up in availability"
        );
        assert!(r.summary().contains("noc hops="));
    }

    #[test]
    fn crossbar_link_campaign_is_inert() {
        let mut cfg = quick_cfg(2, 8);
        cfg.faults = ServeFaultPlan::links(6);
        let r = run_service(cfg).expect("service runs");
        assert_eq!(r.faults_injected, 0, "no links to attack on a crossbar");
        assert_eq!(r.completed, 8);
        assert!(!r.summary().contains("noc hops="));
    }

    #[test]
    fn same_seed_is_deterministic() {
        let a = run_service(quick_cfg(3, 16)).unwrap();
        let b = run_service(quick_cfg(3, 16)).unwrap();
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.latencies, b.latencies);
        assert_eq!(a.completed, b.completed);
    }

    #[test]
    fn cancelled_gate_stops_the_service_typed() {
        let token = crate::cancel::CancelToken::new();
        token.cancel();
        let opts = RunOptions {
            gate: crate::cancel::RunGate::new(token, 0),
            ..RunOptions::default()
        };
        let mut service = TaskService::new(quick_cfg(2, 8)).unwrap();
        let err = service.run_with(&opts).expect_err("must be cancelled");
        assert_eq!(err.kind(), "deadline");
    }

    #[test]
    fn zero_cores_is_a_typed_config_error() {
        let err = TaskService::new(quick_cfg(0, 4)).err().expect("must fail");
        assert_eq!(err.kind(), "config");
    }

    #[test]
    fn zero_queue_depth_is_a_typed_config_error() {
        let mut cfg = quick_cfg(1, 4);
        cfg.queue_depth = 0;
        assert_eq!(TaskService::new(cfg).err().unwrap().kind(), "config");
    }

    #[test]
    fn empty_mix_is_a_typed_config_error() {
        let mut cfg = quick_cfg(1, 4);
        cfg.mix.clear();
        assert_eq!(TaskService::new(cfg).err().unwrap().kind(), "config");
    }

    #[test]
    fn overload_sheds_with_queue_full_not_deadlock() {
        let mut cfg = quick_cfg(1, 40);
        cfg.mean_interarrival = 8; // far beyond one core's capacity
        cfg.queue_depth = 2;
        let r = run_service(cfg).unwrap();
        assert!(r.rejected_queue_full > 0, "overload must shed load");
        assert_eq!(r.accounted(), r.submitted);
        assert_eq!(r.lost, 0);
        assert_eq!(r.duplicated, 0);
    }

    #[test]
    fn transient_fault_is_detected_and_retried() {
        let mut cfg = quick_cfg(1, 6);
        cfg.faults = ServeFaultPlan {
            transient: 6,
            sticky_cores: 0,
            stuck_cores: 0,
            sticky_after: 0,
            link_faults: 0,
        };
        cfg.quarantine_after = 0; // isolate the retry path
        let r = run_service(cfg).unwrap();
        assert_eq!(r.faults_injected, 6);
        assert!(r.retries > 0, "detected divergences must trigger retries");
        assert_eq!(r.completed, 6, "clean retries must complete every task");
        assert_eq!(r.silent_corruptions, 0);
        assert_eq!(r.accounted(), r.submitted);
    }

    #[test]
    fn secded_corrects_single_bit_transients_in_place() {
        let mut cfg = quick_cfg(1, 6);
        cfg.faults = ServeFaultPlan {
            transient: 6,
            sticky_cores: 0,
            stuck_cores: 0,
            sticky_after: 0,
            link_faults: 0,
        };
        cfg.protection = ProtectionConfig::secded();
        let r = run_service(cfg).unwrap();
        assert_eq!(r.faults_corrected, 6);
        assert_eq!(r.completed, 6);
        assert_eq!(r.retries, 0, "corrected upsets never cost a retry");
    }

    #[test]
    fn sticky_core_quarantines_and_fails_over() {
        let mut cfg = quick_cfg(2, 20);
        cfg.faults = ServeFaultPlan {
            transient: 0,
            sticky_cores: 1,
            stuck_cores: 0,
            sticky_after: 2,
            link_faults: 0,
        };
        cfg.protection = ProtectionConfig::secded();
        cfg.quarantine_after = 2;
        let r = run_service(cfg).unwrap();
        assert_eq!(r.quarantined_cores, 1);
        assert!(
            r.failovers >= 1,
            "quarantine must re-dispatch in-flight work"
        );
        assert!(r.faults_uncorrectable >= 2);
        assert_eq!(r.accounted(), r.submitted);
        assert_eq!(r.lost + r.duplicated + r.silent_corruptions, 0);
        assert!(r.availability() < 1.0, "a quarantined core costs capacity");
    }

    #[test]
    fn fully_quarantined_service_drains_with_rejections() {
        let mut cfg = quick_cfg(1, 15);
        cfg.faults = ServeFaultPlan {
            transient: 0,
            sticky_cores: 1,
            stuck_cores: 0,
            sticky_after: 0,
            link_faults: 0,
        };
        cfg.protection = ProtectionConfig::secded();
        cfg.quarantine_after = 1;
        cfg.retry = RetryPolicy::none();
        let r = run_service(cfg).unwrap();
        assert_eq!(r.quarantined_cores, 1);
        assert!(r.rejected_quarantined > 0, "drain must be typed rejections");
        assert_eq!(r.completed + r.failed + r.rejected_quarantined, r.submitted);
        assert_eq!(r.lost, 0);
    }

    #[test]
    fn queued_tasks_past_their_slo_deadline_fail_typed() {
        let mut cfg = quick_cfg(1, 30);
        cfg.mean_interarrival = 8;
        cfg.queue_depth = 30; // admit everything; the deadline must shed
        cfg.deadline_cycles = 2_000;
        let r = run_service(cfg).unwrap();
        assert!(r.failed > 0, "queued tasks must expire against the SLO");
        assert_eq!(r.accounted(), r.submitted);
    }

    #[test]
    fn epochs_capture_fabric_traffic() {
        let mut cfg = quick_cfg(2, 10);
        cfg.mean_interarrival = 8192; // long enough for a mid-run epoch
        let r = run_service(cfg).unwrap();
        assert!(r.epochs.len() >= 2, "{:?}", r.epochs);
        let reads: u64 = r.epochs.iter().map(|e| e.fabric.reads).sum();
        assert!(reads > 0, "epoch deltas must add up to real traffic");
    }

    #[test]
    fn summary_and_metrics_are_consistent() {
        let r = run_service(quick_cfg(2, 8)).unwrap();
        let s = r.summary();
        assert!(s.contains("lost=0 duplicated=0"), "{s}");
        assert!(s.contains("silent_corruptions=0"), "{s}");
        let CellData::Metrics(m) = r.metrics() else {
            panic!("metrics cell expected")
        };
        let get = |k: &str| m.iter().find(|(n, _)| n == k).map(|(_, v)| *v).unwrap();
        assert_eq!(get("completed") as usize, r.completed);
        assert_eq!(get("p99_cycles") as u64, r.p99());
        assert!((get("availability") - r.availability()).abs() < 1e-12);
    }

    #[test]
    fn reject_reason_labels_are_stable() {
        assert_eq!(RejectReason::QueueFull.to_string(), "queue_full");
        assert_eq!(
            RejectReason::QuarantinedCapacity.to_string(),
            "quarantined_capacity"
        );
    }
}
