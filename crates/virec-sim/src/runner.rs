//! Single-core experiment runner.
//!
//! [`try_run_single`] runs a workload on a 1-core [`Machine`]: the shared
//! step loop supplies the forward-progress watchdog, the budget, the gate
//! and cycle skipping, while this module's cycle hook routes any scheduled
//! [`FaultPlan`] through the shared fault router, keeps the checkpoint
//! ring and drives the RAS layer. The final architectural state is verified
//! against the golden interpreter, and every failure is a typed
//! [`SimError`].

use crate::cancel::RunGate;
use crate::ecc::{word_verdict, EccStats, ProtectionConfig, ProtectionLevel, WordVerdict};
use crate::error::{DivergenceSite, RunDiagnostics, SimError};
use crate::fault::{engine_fault_of, FaultEvent, FaultPlan, FaultSite};
use crate::machine::{CycleHook, Machine};
use crate::offload::{check_region, offload};
use crate::ras::{CeTracker, RasConfig, RasStats, RetiredRegion, Scrubber};
use crate::watchdog::DEFAULT_LIVELOCK_CYCLES;
use std::collections::{HashMap, VecDeque};
use virec_core::engines::ROLLBACK_DEPTH;
use virec_core::{Core, CoreConfig, CoreStats, EngineKind, OracleSchedule, QuantumTrace};
use virec_isa::{ExecOutcome, FlatMem, Interpreter, Reg, ThreadCtx};
use virec_mem::{line_of, Fabric, FabricConfig, FabricStats, LinkRetireOutcome, RetireOutcome};
use virec_workloads::{layout, Layout, Workload};

/// Default architectural-checkpoint spacing: the rollback depth (the
/// backend's in-flight window, §5.1) times a nominal 256-cycle scheduling
/// quantum — deep enough that checkpointing stays off the critical path,
/// shallow enough that replay after a detected-uncorrectable fault is a
/// small fraction of a run.
pub fn default_checkpoint_interval() -> u64 {
    ROLLBACK_DEPTH as u64 * 256
}

/// Depth of the in-memory checkpoint ring when checkpointing is on.
const CHECKPOINT_DEPTH: usize = 4;

/// Options for a single-core run. A [`crate::System`] run reads only
/// `gate`, `livelock_cycles` and `dense_loop`; a [`crate::TaskService`]
/// run only `gate` and `dense_loop`.
#[derive(Clone, Debug)]
pub struct RunOptions {
    /// Fabric (crossbar + DRAM) configuration.
    pub fabric: FabricConfig,
    /// Check final architectural state against the golden interpreter
    /// (cheap insurance; on by default).
    pub verify: bool,
    /// Oracle to feed an exact-context prefetching core.
    pub oracle: OracleSchedule,
    /// Watchdog threshold: cycles without a commit before the run is
    /// declared livelocked (0 disables the watchdog).
    pub livelock_cycles: u64,
    /// Scheduled fault injections (empty for ordinary runs).
    pub faults: FaultPlan,
    /// Per-site protection levels the fault events are routed through
    /// before they corrupt anything (default: everything unprotected, the
    /// pre-ECC behavior).
    pub protection: ProtectionConfig,
    /// Architectural-checkpoint spacing in cycles; 0 disables
    /// checkpointing (the default — ordinary runs pay nothing). See
    /// [`default_checkpoint_interval`] for the campaign default.
    pub checkpoint_interval: u64,
    /// Wall-clock deadline / cooperative-cancellation gate; the default
    /// never trips. The step loop polls it cheaply and degrades to a
    /// typed [`SimError::Deadline`] when it fires.
    pub gate: RunGate,
    /// Force the dense cycle-by-cycle loop instead of event-driven cycle
    /// skipping. Both loops produce byte-identical stats and digests; the
    /// dense loop exists as a differential reference.
    pub dense_loop: bool,
    /// RAS layer (patrol scrubber, CE tracker, spare pools) for surviving
    /// persistent faults. `None` (the default) leaves the machine exactly
    /// as before this layer existed; persistent faults then end in a
    /// bounded typed [`SimError::Uncorrectable`] after two failed
    /// checkpoint replays instead of a retirement.
    pub ras: Option<RasConfig>,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            fabric: FabricConfig::default(),
            verify: true,
            oracle: OracleSchedule::default(),
            livelock_cycles: DEFAULT_LIVELOCK_CYCLES,
            faults: FaultPlan::empty(),
            protection: ProtectionConfig::none(),
            checkpoint_interval: 0,
            gate: RunGate::unbounded(),
            dense_loop: false,
            ras: None,
        }
    }
}

/// Outcome of a run.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Total cycles until every thread halted.
    pub cycles: u64,
    /// Core statistics (caches folded in).
    pub stats: CoreStats,
    /// Descriptions of the injected faults that actually landed.
    pub faults_applied: Vec<String>,
    /// FNV digest of the final architectural state (all thread registers
    /// plus the data segment) — used by fault campaigns to distinguish
    /// masked faults from silent corruptions.
    pub arch_digest: u64,
    /// Protection-model and checkpoint/replay counters (all zero unless
    /// the run carried a fault plan with protection or checkpointing on).
    pub ecc: EccStats,
    /// Wall-clock nanoseconds spent snapshotting into the checkpoint ring
    /// (zero when checkpointing is off). Non-deterministic by nature, so it
    /// is reported but never journaled or folded into digests.
    pub checkpoint_clone_ns: u64,
    /// RAS-layer counters (all zero unless [`RunOptions::ras`] was set and
    /// the layer did something).
    pub ras: RasStats,
    /// Fabric counters: per-port read/write attribution plus, under a mesh
    /// topology, NoC hop/CRC/retransmission/retirement counts.
    pub fabric: FabricStats,
}

impl RunResult {
    /// Instructions per cycle — the paper's primary performance metric.
    pub fn ipc(&self) -> f64 {
        self.stats.ipc()
    }
}

/// Runs `workload` on a single core, returning a typed error instead of
/// panicking.
///
/// The step loop distinguishes *livelock* (no commit for
/// [`RunOptions::livelock_cycles`] — the machine is wedged, reported with a
/// full pipeline/engine/MSHR dump) from a *slow run* (commits still landing
/// when `CoreConfig::max_cycles` runs out — a budget problem). If the
/// options carry a [`FaultPlan`], events are applied at their scheduled
/// cycles and any subsequent failure is wrapped in
/// [`SimError::FaultDetected`] so campaign drivers can attribute it.
///
/// ```
/// use virec_core::CoreConfig;
/// use virec_sim::runner::{try_run_single, RunOptions};
/// use virec_workloads::{kernels, Layout};
///
/// let w = kernels::stream::reduction(256, Layout::for_core(0));
/// let r = try_run_single(CoreConfig::virec(4, 24), &w, &RunOptions::default())?;
/// assert!(r.ipc() > 0.0);
/// assert!(r.stats.instructions > 256);
/// # Ok::<(), virec_sim::SimError>(())
/// ```
pub fn try_run_single(
    cfg: CoreConfig,
    workload: &Workload,
    opts: &RunOptions,
) -> Result<RunResult, SimError> {
    try_run_single_impl(cfg, workload, opts, false).map(|(r, _)| r)
}

/// [`try_run_single`] plus a per-quantum trace: start/resume PCs, the
/// decode-acquired use and read-before-written demand masks, and the
/// engine's resident/committed live-bit samples at each switch-out. The
/// prefetch oracle is grouped from it ([`try_record_oracle`]) and
/// `virec-verify` cross-checks it against static liveness. `RunResult`
/// itself is unchanged (it round-trips through the sweep journal codec),
/// so the trace rides alongside.
pub fn try_run_single_traced(
    cfg: CoreConfig,
    workload: &Workload,
    opts: &RunOptions,
) -> Result<(RunResult, QuantumTrace), SimError> {
    try_run_single_impl(cfg, workload, opts, true)
}

fn try_run_single_impl(
    cfg: CoreConfig,
    workload: &Workload,
    opts: &RunOptions,
    want_trace: bool,
) -> Result<(RunResult, QuantumTrace), SimError> {
    // The RAS layer provisions its spare CAM ways at core construction:
    // they are physically present (priced by virec-area) but masked until
    // a retirement activates one.
    let mut cfg = cfg;
    if let Some(rc) = &opts.ras {
        if cfg.engine == EngineKind::ViReC {
            cfg.spare_ways = rc.spare_ways as usize;
        }
    }
    cfg.validate()
        .and_then(|()| check_region(&workload.layout, cfg.nthreads))
        .map_err(|detail| SimError::Config {
            detail,
            diag: RunDiagnostics::placeholder(workload.name),
        })?;
    let mut mem = FlatMem::new(
        0,
        layout::mem_size(1).max((workload.layout.data_base + workload.layout.data_size) as usize),
    );
    let region = offload(&mut mem, workload, cfg.nthreads);

    let mut core = Core::with_oracle(
        cfg,
        workload.program().clone(),
        region,
        workload.layout.code_base,
        (0, 1),
        opts.oracle.clone(),
    );
    if want_trace {
        core.enable_quantum_trace();
    }
    let mut m = Machine::new(vec![core], Fabric::new(opts.fabric), mem);
    if let Some(rc) = &opts.ras {
        m.fabric.provision_spare_rows(rc.spare_rows);
    }

    let mut faults = FaultLayer::new(workload, opts, region.base, region.size());
    let finished = m
        .run(&mut faults, opts, &[workload.name])
        .and_then(|cycles| {
            let core = &m.cores[0];
            let digest = arch_digest(core, &m.mem, workload, cfg.nthreads);
            if opts.verify {
                try_verify_against_golden(workload, cfg.nthreads, core, &m.mem, cycles)?;
            }
            Ok((cycles, digest))
        });
    let (cycles, arch_digest) = finished.map_err(|e| faults.wrap(e))?;

    let core = &mut m.cores[0];
    Ok((
        RunResult {
            cycles,
            stats: *core.stats(),
            faults_applied: faults.router.applied,
            arch_digest,
            ecc: faults.router.ecc,
            checkpoint_clone_ns: faults.checkpoint_clone_ns,
            ras: faults.router.ras,
            fabric: *m.fabric.stats(),
        },
        core.take_quantum_trace(),
    ))
}

/// One entry of the in-memory checkpoint ring: a full deep copy of the
/// machine plus the injection bookkeeping needed to replay
/// deterministically from this cycle.
struct Checkpoint {
    cycle: u64,
    machine: Machine,
    pending: Vec<FaultEvent>,
    applied: Vec<String>,
    ecc: EccStats,
}

/// The runner's cycle hook: the single-run fault policy around the shared
/// [`FaultRouter`] — the event schedule with its re-arming, the checkpoint
/// ring with rollback and replay, the patrol scrubber and row/way
/// retirement. Inert — and nearly free — for an ordinary run.
struct FaultLayer<'a> {
    workload: &'a Workload,
    opts: &'a RunOptions,
    pending: Vec<FaultEvent>,
    /// Routes the due events on core 0. Its log and ECC counters rewind
    /// with the checkpoint ring; its RAS state does not: a physical repair
    /// survives a rollback and is replayed onto every restored machine.
    router: FaultRouter,
    checkpoints: VecDeque<Checkpoint>,
    checkpoint_clone_ns: u64,
    scrubber: Option<Scrubber>,
    due_restores: HashMap<(FaultSite, u64), u32>,
}

impl<'a> FaultLayer<'a> {
    fn new(
        workload: &'a Workload,
        opts: &'a RunOptions,
        region_base: u64,
        region_size: u64,
    ) -> FaultLayer<'a> {
        FaultLayer {
            workload,
            opts,
            pending: opts.faults.events.clone(),
            router: FaultRouter::new(vec![workload.layout], opts.protection, opts.ras),
            checkpoints: VecDeque::new(),
            checkpoint_clone_ns: 0,
            scrubber: opts.ras.and_then(|rc| {
                (rc.scrub_interval > 0).then(|| {
                    Scrubber::new(vec![
                        (region_base, region_size),
                        (workload.layout.data_base, workload.layout.data_size),
                    ])
                })
            }),
            due_restores: HashMap::new(),
        }
    }

    /// Attributes a failure to the injected faults, if any landed.
    fn wrap(&self, e: SimError) -> SimError {
        if self.router.applied.is_empty() {
            e
        } else {
            let diag = Box::new(e.diagnostics().clone());
            SimError::FaultDetected {
                faults: self.router.applied.clone(),
                cause: Box::new(e),
                diag,
            }
        }
    }

    fn checkpoint(&mut self, m: &Machine, now: u64) {
        let snap_start = std::time::Instant::now();
        if self.checkpoints.len() == CHECKPOINT_DEPTH {
            // Swap-and-overwrite: recycle the evicted ring slot's heap
            // buffers instead of reallocating a full deep copy for every
            // snapshot.
            let mut slot = self.checkpoints.pop_front().expect("ring is non-empty");
            slot.cycle = now;
            slot.machine.clone_from(m);
            slot.pending.clone_from(&self.pending);
            slot.applied.clone_from(&self.router.applied);
            slot.ecc = self.router.ecc;
            self.checkpoints.push_back(slot);
        } else {
            self.checkpoints.push_back(Checkpoint {
                cycle: now,
                machine: m.clone(),
                pending: self.pending.clone(),
                applied: self.router.applied.clone(),
                ecc: self.router.ecc,
            });
        }
        self.checkpoint_clone_ns += snap_start.elapsed().as_nanos() as u64;
        self.router.ecc.checkpoints_taken += 1;
    }

    /// One patrol read. A persistent defect whose cells sit in the line
    /// just scrubbed registers a correctable error with the CE tracker
    /// before demand traffic trips over it.
    fn scrub(&mut self, m: &mut Machine, now: u64) {
        let Some(addr) = self.scrubber.as_mut().and_then(Scrubber::next_line) else {
            return;
        };
        // A real fabric request that occupies the target bank like demand
        // traffic — scrubbing is not free bandwidth.
        m.fabric.submit_scrub(now, addr);
        self.router.ras.scrub_reads += 1;
        // The first pending assertion of each live persistent family whose
        // word sits in the scrubbed line.
        let mut hits: Vec<(FaultEvent, u64)> = Vec::new();
        for ev in &self.pending {
            let fam = ev.family();
            if !ev.class.is_persistent()
                || !matches!(ev.site, FaultSite::BackingReg | FaultSite::DramLine)
                || self.router.retired_families.contains(&fam)
                || hits.iter().any(|(h, _)| h.family() == fam)
            {
                continue;
            }
            match self.router.word_target(0, ev, m) {
                Some((waddr, _)) if line_of(waddr) == line_of(addr) => hits.push((*ev, waddr)),
                _ => {}
            }
        }
        for (ev, waddr) in hits {
            if self.router.charge(m.fabric.row_key(waddr), now) {
                self.retire(&ev, Some(waddr), m, now);
            }
        }
    }

    /// Takes the physical region behind one persistent fault family out of
    /// service and disarms the family: masks a VRMU way (activating a spare
    /// when provisioned) or retires a DRAM row through the remap table
    /// (consuming a spare row or fencing onto the shared remnant row).
    /// Regions without retirable cells — control state, transport, a banked
    /// engine's register cells — are fenced logically: the family is
    /// dropped and the loss is accounted as degraded capacity. Migration of
    /// a retired row's data is modeled as real scrub-read traffic through
    /// the fabric.
    fn retire(&mut self, ev: &FaultEvent, word_addr: Option<u64>, m: &mut Machine, now: u64) {
        let Machine { cores, fabric, mem } = m;
        let r = &mut self.router;
        match (ev.site, word_addr) {
            (FaultSite::TagValue, _) => {
                match cores[0].retire_value_way(ev.index, true, fabric, mem) {
                    Some(w) => {
                        if !w.spared {
                            r.ras.degraded_regions += 1;
                        }
                        r.applied.push(format!("cycle {now}: ras {}", w.desc));
                        r.retired_log.push(RetiredRegion::Way {
                            idx: w.idx,
                            spared: w.spared,
                        });
                    }
                    None => {
                        // No maskable way (banked engine) or the store is
                        // at its in-flight floor: fence the family
                        // logically and run on with the capacity loss.
                        r.ras.degraded_regions += 1;
                        r.applied.push(format!(
                            "cycle {now}: ras fenced unmaskable way family index {}",
                            ev.index
                        ));
                    }
                }
            }
            (
                FaultSite::BackingReg | FaultSite::DramLine | FaultSite::FabricResponse,
                Some(addr),
            ) => {
                let outcome = fabric.retire_row(addr);
                let spared = matches!(outcome, RetireOutcome::Spared { .. });
                if !spared {
                    r.ras.degraded_regions += 1;
                }
                // Data migration: the row's live lines are copied to the
                // replacement row through the fabric — repair bandwidth is
                // real bandwidth, so it contends with demand traffic.
                let lines = fabric.config().dram.lines_per_row.min(32);
                let base = line_of(addr);
                for i in 0..lines {
                    fabric.submit_scrub(now, base + i * virec_mem::LINE_BYTES);
                }
                r.ras.migrated_lines += lines;
                r.applied.push(format!(
                    "cycle {now}: ras retired row behind {addr:#x} ({})",
                    if spared { "spared" } else { "fenced" }
                ));
                r.retired_log.push(RetiredRegion::Row { addr, spared });
            }
            _ => {
                r.ras.degraded_regions += 1;
                r.applied.push(format!(
                    "cycle {now}: ras fenced non-retirable site {} index {}",
                    ev.site, ev.index
                ));
            }
        }
        let fam = ev.family();
        r.retired_families.push(fam);
        self.pending.retain(|e| e.family() != fam);
    }

    /// Removes every event due at `now`, re-arming persistent classes and
    /// dropping assertions of retired families, and groups the rest by the
    /// word they hit: same-site same-word events are a multi-bit upset,
    /// and the protection model must see it whole (a double-bit flip is
    /// one DUE, not two correctable singles).
    fn take_due(&mut self, now: u64) -> Vec<Vec<FaultEvent>> {
        let mut groups: Vec<Vec<FaultEvent>> = Vec::new();
        let mut i = 0;
        while i < self.pending.len() {
            if self.pending[i].cycle > now {
                i += 1;
                continue;
            }
            let ev = self.pending.swap_remove(i);
            if self.router.retired_families.contains(&ev.family()) {
                // The region is out of service — its cells are no longer
                // wired to anything. The assertion is dropped and the
                // family is not re-armed.
                self.router.ras.suppressed_assertions += 1;
                continue;
            }
            // Persistent classes re-assert: schedule the next firing up
            // front so the skip's hook horizon covers it like any
            // scheduled event.
            if let Some((period, next)) = ev.class.rearm() {
                self.pending.push(FaultEvent {
                    cycle: now + period,
                    class: next,
                    ..ev
                });
            }
            match groups.iter_mut().find(|g| g[0].family() == ev.family()) {
                Some(g) => g.push(ev),
                None => groups.push(vec![ev]),
            }
        }
        groups
    }

    /// Predictive sparing: every *corrected* assertion of a persistent
    /// defect charges the region's leaky bucket; at the threshold the
    /// region is retired before a second cell failure can turn correctable
    /// into uncorrectable.
    fn charge_corrected(&mut self, ev: &FaultEvent, m: &mut Machine, now: u64) {
        if self.router.retired_families.contains(&ev.family()) {
            return;
        }
        // Word sites key on their DRAM row, everything else on its index.
        let waddr = self.router.word_target(0, ev, m).map(|(a, _)| a);
        let key = waddr.map_or((1 << 63) | ev.index, |a| m.fabric.row_key(a));
        if self.router.charge(key, now) {
            self.retire(ev, waddr, m, now);
        }
    }

    /// Handles a detected-uncorrectable fault set: rewinds to the newest
    /// checkpoint and returns its cycle, or fails the run.
    fn recover(
        &mut self,
        suppress: &[FaultEvent],
        detected_desc: String,
        m: &mut Machine,
        now: u64,
    ) -> Result<u64, SimError> {
        // Persistent faults cannot be outlived by replay alone — the cells
        // stay broken. Without the RAS layer the runner bounds the retry
        // loop: a defect family that trips a second detected-uncorrectable
        // after a restore fails the run with a typed error instead of
        // replaying forever.
        if self.opts.ras.is_none() {
            for fam in suppress
                .iter()
                .filter(|e| e.class.is_persistent())
                .map(FaultEvent::family)
            {
                let c = self.due_restores.entry(fam).or_insert(0);
                *c += 1;
                if *c >= 2 {
                    return Err(SimError::Uncorrectable {
                        site: fam.0.to_string(),
                        detail: format!(
                            "persistent fault at {} index {} re-asserted after a \
                             checkpoint replay; no RAS layer to retire the region",
                            fam.0, fam.1
                        ),
                        diag: RunDiagnostics::capture(self.workload.name, &m.cores[0], now),
                    });
                }
            }
        }
        let Some(ck) = self.checkpoints.back() else {
            return Err(SimError::Uncorrectable {
                site: suppress[0].site.to_string(),
                detail: detected_desc,
                diag: RunDiagnostics::capture(self.workload.name, &m.cores[0], now),
            });
        };
        // Mid-run recovery: rewind to the newest checkpoint (snapshotted
        // before this cycle's injection) and replay with the detected fault
        // suppressed.
        let restored = ck.cycle;
        m.clone_from(&ck.machine);
        self.pending.clone_from(&ck.pending);
        self.router.applied.clone_from(&ck.applied);
        // Correction/escape counters rewind with the state (re-fired events
        // in the replay window re-count); the cumulative recovery counters
        // carry forward.
        let ecc = &self.router.ecc;
        let ecc = EccStats {
            checkpoints_taken: ecc.checkpoints_taken,
            detected_uncorrectable: ck.ecc.detected_uncorrectable + 1,
            restores: ecc.restores + 1,
            replay_cycles: ecc.replay_cycles + (now - restored),
            ..ck.ecc
        };
        // Transient members of the detected group are suppressed for the
        // replay; persistent members stay armed — only a retirement (below)
        // or the bounded-restore tripwire above removes them.
        self.pending
            .retain(|e| !suppress.contains(e) || e.class.is_persistent());
        // Physical repairs survive the rollback: replay the retirement log
        // onto the restored machine. Stats are not recounted, and spare
        // numbering re-applies in log order, hence deterministically.
        let Machine { cores, fabric, mem } = &mut *m;
        for r in &self.router.retired_log {
            match *r {
                RetiredRegion::Way { idx, spared } => {
                    cores[0].remask_way(idx, spared, fabric, mem);
                }
                RetiredRegion::Row { addr, .. } => {
                    fabric.retire_row(addr);
                }
                RetiredRegion::Link { link } => {
                    // Re-decides rerouted-vs-fenced on the restored fabric;
                    // log order makes the outcome deterministic.
                    let _ = fabric.retire_link(link);
                }
            }
        }
        // Demand retirement: with RAS on, a detected uncorrectable in a
        // persistent region retires it on the restored machine, so the
        // replay cannot trip over the same defect again.
        if self.opts.ras.is_some() {
            for ev in suppress.iter().filter(|e| e.class.is_persistent()) {
                if !self.router.retired_families.contains(&ev.family()) {
                    let waddr = self.router.word_target(0, ev, m).map(|(a, _)| a);
                    self.router.ras.demand_retirements += 1;
                    self.retire(ev, waddr, m, restored);
                }
            }
            let retired = &self.router.retired_families;
            self.pending.retain(|e| !retired.contains(&e.family()));
        }
        self.router.ecc = ecc;
        self.router.applied.push(format!(
            "{detected_desc}; restored checkpoint @ cycle {restored} (replaying {} cycles)",
            now - restored
        ));
        Ok(restored)
    }
}

impl CycleHook for FaultLayer<'_> {
    fn before_tick(&mut self, m: &mut Machine, now: u64) {
        let interval = self.opts.checkpoint_interval;
        if interval > 0 && now.is_multiple_of(interval) {
            self.checkpoint(m, now);
        }
        if let (Some(rc), Some(_)) = (&self.opts.ras, &self.scrubber) {
            if now.is_multiple_of(rc.scrub_interval) {
                self.scrub(m, now);
            }
        }
    }

    fn after_tick(&mut self, m: &mut Machine, now: u64) -> Result<Option<u64>, SimError> {
        if self.pending.is_empty() {
            return Ok(None);
        }
        let groups = self.take_due(now);
        let mut suppress: Vec<FaultEvent> = Vec::new();
        let mut detected_desc = String::new();
        for group in &groups {
            if group[0].site == FaultSite::NocLink {
                for ev in group {
                    if self.router.link_upset(ev, m, now) == LinkVerdict::Retired {
                        let fam = ev.family();
                        self.pending.retain(|e| e.family() != fam);
                    }
                }
                continue;
            }
            match self.router.protect(0, group, m, now) {
                Verdict::Detected { desc, .. } => {
                    suppress.extend_from_slice(group);
                    detected_desc = desc;
                }
                Verdict::Corrected if self.opts.ras.is_some() && group[0].class.is_persistent() => {
                    self.charge_corrected(&group[0], m, now);
                }
                _ => {}
            }
        }
        if suppress.is_empty() {
            return Ok(None);
        }
        self.recover(&suppress, detected_desc, m, now).map(Some)
    }

    fn next_due(&self, now: u64) -> u64 {
        let mut due = self
            .pending
            .iter()
            .map(|ev| ev.cycle)
            .min()
            .unwrap_or(u64::MAX);
        let interval = self.opts.checkpoint_interval;
        if interval > 0 {
            due = due.min(now.next_multiple_of(interval));
        }
        if let (Some(rc), Some(_)) = (&self.opts.ras, &self.scrubber) {
            // Scrub wakeups are scheduled events like checkpoints: the
            // clock must land on every patrol cycle.
            due = due.min(now.next_multiple_of(rc.scrub_interval));
        }
        due
    }
}

/// What the protection model made of one fault group.
#[derive(Debug)]
pub(crate) enum Verdict {
    /// Nothing to corrupt: the target is out of range or empty, or the
    /// flips cancelled each other.
    NotApplied,
    /// The upset reached the machine: unprotected, or it defeated the
    /// check bits unseen.
    Landed,
    /// SEC-DED corrected it in place; the machine is untouched.
    Corrected,
    /// Detected but uncorrectable; the machine is untouched. The check that
    /// caught it, the word (0 for a VRMU entry), the bits and the log line.
    Detected {
        check: &'static str,
        addr: u64,
        mask: u64,
        desc: String,
    },
}

/// What the link layer made of one link upset.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum LinkVerdict {
    /// A crossbar, or the link is already out of service.
    NotApplied,
    /// The CRC caught the corrupted flit and the link retransmitted it.
    Landed,
    /// Landed, and the CE tracker retired the link (route-around, or a
    /// half-bandwidth fence when no route would survive).
    Retired,
}

/// The fault layer every machine shares: resolves a [`FaultEvent`] on one
/// core (each with its own layout and register region), routes it through
/// the protection model or the link CRC, and keeps the counters, the CE
/// tracker and the retirement ledger. What a verdict leads to — a rollback,
/// an aborted serve attempt — is the caller's policy.
#[derive(Default)]
pub(crate) struct FaultRouter {
    /// Each core's address-space layout, by core index.
    layouts: Vec<Layout>,
    protection: ProtectionConfig,
    /// Descriptions of the faults that landed (and of the recoveries).
    pub(crate) applied: Vec<String>,
    pub(crate) ecc: EccStats,
    pub(crate) ras: RasStats,
    /// Present only with RAS on: nothing charges it, and nothing retires
    /// predictively, without it.
    tracker: Option<CeTracker>,
    pub(crate) retired_log: Vec<RetiredRegion>,
    pub(crate) retired_families: Vec<(FaultSite, u64)>,
}

impl FaultRouter {
    /// A router over cores laid out as `layouts`.
    pub(crate) fn new(
        layouts: Vec<Layout>,
        protection: ProtectionConfig,
        ras: Option<RasConfig>,
    ) -> FaultRouter {
        FaultRouter {
            layouts,
            protection,
            tracker: ras.map(|rc| CeTracker::new(rc.ce_threshold, rc.ce_leak_interval)),
            ..FaultRouter::default()
        }
    }

    /// Resolves a word-site event to the memory word it targets on core
    /// `core`. Returns `(address, description)` or `None` when the target
    /// is out of range (or, for `FabricResponse`, when no request is in
    /// flight).
    pub(crate) fn word_target(
        &self,
        core: usize,
        event: &FaultEvent,
        m: &Machine,
    ) -> Option<(u64, String)> {
        let mem_end = m.mem.size() as u64;
        match event.site {
            FaultSite::BackingReg => {
                let core = &m.cores[core];
                let nthreads = core.config().nthreads as u64;
                let t = (event.index % nthreads) as usize;
                let r = Reg::new(((event.index / nthreads) % 31) as u8);
                let addr = core.region().reg_addr(t, r);
                (addr + 8 <= mem_end).then(|| (addr, format!("backing-store t{t} {r}")))
            }
            FaultSite::DramLine => {
                let layout = &self.layouts[core];
                let words = (layout.data_size / 8).max(1);
                let addr = layout.data_base + (event.index % words) * 8;
                (addr + 8 <= mem_end).then(|| (addr, format!("dram word {addr:#x}")))
            }
            FaultSite::FabricResponse => {
                let line = line_of(m.fabric.inflight_addr(event.index as usize)?);
                let word = line + (event.bit as u64 % 8) * 8;
                (word + 8 <= mem_end).then(|| {
                    (
                        word,
                        format!("fabric response line {line:#x} word {}", event.bit % 8),
                    )
                })
            }
            _ => None,
        }
    }

    /// Routes one fault group (same cycle, same site, same word) on core
    /// `core` through the coverage map and applies whatever the modeled
    /// hardware lets through. A detected-uncorrectable group leaves the
    /// machine untouched: the detection is precise.
    pub(crate) fn protect(
        &mut self,
        core: usize,
        group: &[FaultEvent],
        m: &mut Machine,
        now: u64,
    ) -> Verdict {
        let site = group[0].site;
        let level = self.protection.level(site);
        if level == ProtectionLevel::None {
            // No check bits: each event lands on its own, when its target
            // has something to corrupt.
            let mut verdict = Verdict::NotApplied;
            for ev in group {
                let landed = match engine_fault_of(ev) {
                    Some(f) => m.cores[core].inject_fault(f),
                    None => self.word_target(core, ev, m).map(|(addr, base)| {
                        let v = m.mem.read_u64(addr);
                        m.mem.write_u64(addr, v ^ (1u64 << (ev.bit % 64)));
                        format!("{base} bit {}", ev.bit % 64)
                    }),
                };
                if let Some(desc) = landed {
                    if !self.protection.is_none() {
                        self.ecc.unprotected += 1;
                    }
                    self.applied.push(format!("cycle {now}: {desc}"));
                    verdict = Verdict::Landed;
                }
            }
            return verdict;
        }
        // The target as its check bits see it: `None` for a VRMU entry
        // (modelled as a zero word), the flipped bits, how the log names
        // it, and how many flips land if they pass.
        let (addr, mask, name, flips) = match site {
            FaultSite::TagValue | FaultSite::RollbackSlot => {
                // Probe applicability on a deep copy so detected or
                // corrected flips never touch the real machine — the check
                // bits caught them before any consumer read the entry.
                let mut probe = m.cores[core].clone();
                let landed: Vec<String> = group
                    .iter()
                    .filter_map(engine_fault_of)
                    .filter_map(|f| probe.inject_fault(f))
                    .collect();
                let n = landed.len();
                if n == 0 {
                    return Verdict::NotApplied; // structure empty
                }
                // The entry's check bits see an n-bit flip.
                let mask = u64::MAX >> (64 - n.min(64));
                (None, mask, format!("{site} ({})", landed.join("; ")), n)
            }
            FaultSite::StuckFill => unreachable!("stuck-fill is never protected"),
            FaultSite::NocLink => unreachable!("link upsets are handled at the link layer"),
            FaultSite::BackingReg | FaultSite::DramLine | FaultSite::FabricResponse => {
                let Some((addr, base)) = self.word_target(core, &group[0], m) else {
                    return Verdict::NotApplied;
                };
                let mask: u64 = group.iter().fold(0, |m, ev| m ^ (1u64 << (ev.bit % 64)));
                if mask == 0 {
                    return Verdict::NotApplied; // flips cancelled each other
                }
                (Some(addr), mask, base, group.len())
            }
        };
        let word = addr.map_or(0, |a| m.mem.read_u64(a));
        // A word's log lines also name its flipped bits.
        let (bits, bit) = match addr {
            Some(_) => (
                format!(" mask {mask:#x}"),
                format!(" bit {}", mask.trailing_zeros()),
            ),
            None => (String::new(), String::new()),
        };
        match word_verdict(level, word, mask) {
            WordVerdict::Detected => {
                let check = match level {
                    ProtectionLevel::Parity => "parity detected",
                    _ => "secded detected double-bit",
                };
                let desc = format!("cycle {now}: {check} {name}{bits}");
                self.ecc.detected_uncorrectable += 1;
                self.applied.push(desc.clone());
                let addr = addr.unwrap_or(0);
                Verdict::Detected {
                    check,
                    addr,
                    mask,
                    desc,
                }
            }
            WordVerdict::Corrected => {
                self.ecc.corrected += 1;
                self.applied
                    .push(format!("cycle {now}: secded corrected {name}{bit}"));
                Verdict::Corrected
            }
            verdict => {
                // The corruption goes through for real and the
                // differential checker is the only remaining net.
                match addr {
                    Some(addr) => m.mem.write_u64(addr, word ^ mask),
                    None => {
                        for f in group.iter().filter_map(engine_fault_of) {
                            m.cores[core].inject_fault(f);
                        }
                    }
                }
                self.applied.push(if level == ProtectionLevel::Parity {
                    self.ecc.parity_escapes += 1;
                    format!("cycle {now}: parity escape {name}{bits}")
                } else {
                    debug_assert_eq!(verdict, WordVerdict::PassedThrough);
                    self.ecc.unprotected += flips as u64;
                    let n = mask.count_ones();
                    format!("cycle {now}: {n} flips passed {name}{bits}")
                });
                Verdict::Landed
            }
        }
    }

    /// Routes one link upset. Link upsets never reach the word-protection
    /// model: the per-hop CRC detects the corrupted flit in transit and the
    /// nack/retransmit protocol delivers a clean copy, so the upset is
    /// corrected at the link layer. With RAS on, persistent defects charge
    /// the link's CE leaky bucket toward predictive retirement
    /// (route-around) or, when no route would survive, degraded fencing.
    pub(crate) fn link_upset(&mut self, ev: &FaultEvent, m: &mut Machine, now: u64) -> LinkVerdict {
        let Some(link) = m.fabric.inject_link_fault(ev.index) else {
            return LinkVerdict::NotApplied;
        };
        self.ecc.corrected += 1;
        self.applied.push(format!(
            "cycle {now}: noc link {link} upset (crc caught, retransmitted)"
        ));
        let fam = ev.family();
        if !ev.class.is_persistent()
            || self.retired_families.contains(&fam)
            || !self.charge((1u64 << 62) | link as u64, now)
        {
            return LinkVerdict::Landed;
        }
        match m
            .fabric
            .retire_link(link)
            .expect("mesh confirmed by inject_link_fault")
        {
            LinkRetireOutcome::Rerouted => {
                self.applied.push(format!(
                    "cycle {now}: ras retired noc link {link} (rerouted)"
                ));
            }
            LinkRetireOutcome::Fenced => {
                self.ras.degraded_regions += 1;
                self.applied.push(format!(
                    "cycle {now}: ras fenced noc link {link} \
                     (half bandwidth, no surviving route)"
                ));
            }
        }
        self.retired_log.push(RetiredRegion::Link { link });
        self.retired_families.push(fam);
        LinkVerdict::Retired
    }

    /// Charges one corrected error against the region `key` (a packed
    /// DRAM row, a CAM way or a link) when RAS is on. Returns `true` when
    /// the region crossed the retirement threshold: its bucket is cleared
    /// and the predictive retirement is counted, and the caller retires it.
    pub(crate) fn charge(&mut self, key: u64, now: u64) -> bool {
        let Some(tracker) = &mut self.tracker else {
            return false;
        };
        self.ras.ce_observations += 1;
        let crossed = tracker.observe(key, now);
        if crossed {
            tracker.clear(key);
            self.ras.predictive_retirements += 1;
        }
        crossed
    }
}

/// The byte range of `workload`'s data segment within `mem`.
fn data_segment(mem: &FlatMem, workload: &Workload) -> std::ops::Range<usize> {
    let lo = workload.layout.data_base as usize;
    let hi = (workload.layout.data_base + workload.layout.data_size).min(mem.size() as u64);
    lo..hi as usize
}

/// FNV-1a over the architectural-state byte stream: `regs` in `(thread,
/// allocatable reg)` order, then the data segment. Shared by the
/// timing-side and golden-side digests so the two are directly comparable.
fn fnv_digest(regs: impl Iterator<Item = u64>, mem: &FlatMem, workload: &Workload) -> u64 {
    let data = mem.bytes()[data_segment(mem, workload)].iter().copied();
    regs.flat_map(u64::to_le_bytes)
        .chain(data)
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ b as u64).wrapping_mul(0x100_0000_01b3)
        })
}

/// FNV-1a digest of a finished core's architectural state: every
/// allocatable register of every thread, then the data segment bytes.
/// Used by fault campaigns to distinguish masked faults from silent
/// corruptions, and by the serve layer's per-task cross-check.
pub fn arch_digest(core: &Core, mem: &FlatMem, workload: &Workload, nthreads: usize) -> u64 {
    let regs =
        (0..nthreads).flat_map(|t| Reg::allocatable().map(move |r| core.arch_reg(t, r, mem)));
    fnv_digest(regs, mem, workload)
}

/// Runs `workload` on the golden interpreter with `nthreads` threads over a
/// fresh `mem_size`-byte image: every thread's final context and the final
/// image, or the first thread that does not halt within `step_cap` steps.
fn golden_run(
    workload: &Workload,
    nthreads: usize,
    mem_size: usize,
    step_cap: u64,
) -> Result<(Vec<ThreadCtx>, FlatMem), usize> {
    let mut mem = FlatMem::new(0, mem_size);
    workload.init_mem(&mut mem);
    let mut ctxs = Vec::with_capacity(nthreads);
    for t in 0..nthreads {
        let mut ctx = ThreadCtx::new();
        for (r, v) in workload.thread_ctx(t, nthreads) {
            ctx.set(r, v);
        }
        let out = Interpreter::new(workload.program(), &mut mem).run(&mut ctx, step_cap);
        if !matches!(out, ExecOutcome::Halted { .. }) {
            return Err(t);
        }
        ctxs.push(ctx);
    }
    Ok((ctxs, mem))
}

/// The [`arch_digest`] a fault-free run of `workload` must produce,
/// computed from a fresh golden-interpreter execution — the reference the
/// serve layer compares completed tasks against without re-running the
/// timing model. Fails with [`SimError::GoldenRunStuck`] if a thread does
/// not halt within `step_cap` interpreter steps.
pub fn golden_arch_digest(
    workload: &Workload,
    nthreads: usize,
    step_cap: u64,
) -> Result<u64, SimError> {
    let mem_size =
        layout::mem_size(1).max((workload.layout.data_base + workload.layout.data_size) as usize);
    let (ctxs, mem) = golden_run(workload, nthreads, mem_size, step_cap).map_err(|thread| {
        SimError::GoldenRunStuck {
            thread,
            step_cap,
            diag: RunDiagnostics::placeholder(workload.name),
        }
    })?;
    let regs = ctxs
        .iter()
        .flat_map(|ctx| Reg::allocatable().map(|r| ctx.get(r)));
    Ok(fnv_digest(regs, &mem, workload))
}

/// Step cap for the golden interpreter, derived from the timing run's
/// actual committed-instruction count (with generous slack) instead of a
/// hard-coded constant — a workload that legitimately needs more steps
/// cannot be misreported, and a wedged golden run is detected at a cap
/// proportional to the work actually done.
pub(crate) fn golden_step_cap(committed_instructions: u64) -> u64 {
    committed_instructions
        .saturating_mul(4)
        .saturating_add(100_000)
}

/// Compares a finished core's architectural state (registers and data
/// segment) against a fresh golden-interpreter run of the same workload.
/// A timing model must never change results, so any difference is a typed
/// [`SimError::GoldenDivergence`] naming the first diverging site.
pub fn try_verify_against_golden(
    workload: &Workload,
    nthreads: usize,
    core: &Core,
    mem: &FlatMem,
    cycles: u64,
) -> Result<(), SimError> {
    let diag = || RunDiagnostics::capture(workload.name, core, cycles);
    let step_cap = golden_step_cap(core.stats().instructions);
    let (ctxs, gold_mem) =
        golden_run(workload, nthreads, mem.size(), step_cap).map_err(|thread| {
            SimError::GoldenRunStuck {
                thread,
                step_cap,
                diag: diag(),
            }
        })?;
    for (t, ctx) in ctxs.iter().enumerate() {
        for r in Reg::allocatable() {
            let got = core.arch_reg(t, r, mem);
            let want = ctx.get(r);
            if got != want {
                return Err(SimError::GoldenDivergence {
                    site: DivergenceSite::Register {
                        thread: t,
                        reg: r,
                        got,
                        want,
                    },
                    diag: diag(),
                });
            }
        }
    }
    let data = data_segment(mem, workload);
    let got = &mem.bytes()[data.clone()];
    let want = &gold_mem.bytes()[data.clone()];
    if got != want {
        let first_mismatch = got
            .iter()
            .zip(want)
            .position(|(a, b)| a != b)
            .map_or(data.start, |off| data.start + off);
        return Err(SimError::GoldenDivergence {
            site: DivergenceSite::DataRange {
                lo: data.start,
                hi: data.end,
                first_mismatch,
            },
            diag: diag(),
        });
    }
    Ok(())
}

/// Records the per-quantum oracle by running the workload on a banked core
/// with the same thread count under `gate` (the recording substrate for
/// §6.1's exact prefetching comparison): each thread's quantum trace
/// `used` masks, in switch-out order.
pub fn try_record_oracle(
    workload: &Workload,
    nthreads: usize,
    fabric: FabricConfig,
    gate: &RunGate,
) -> Result<OracleSchedule, SimError> {
    let cfg = CoreConfig::banked(nthreads);
    let opts = RunOptions {
        fabric,
        verify: false,
        gate: gate.clone(),
        ..RunOptions::default()
    };
    try_run_single_traced(cfg, workload, &opts)
        .map(|(_, trace)| OracleSchedule::from_trace(&trace, nthreads))
}

/// Runs an exact-context prefetching core, recording the oracle first. The
/// same gate — and therefore the same wall-clock deadline — spans both the
/// oracle recording and the replay phase, so the total time is bounded.
pub fn try_run_prefetch_exact(
    nthreads: usize,
    regs_per_thread: usize,
    workload: &Workload,
    fabric: FabricConfig,
    gate: &RunGate,
) -> Result<RunResult, SimError> {
    let oracle = try_record_oracle(workload, nthreads, fabric, gate)?;
    let cfg = CoreConfig::prefetch_exact(nthreads, regs_per_thread);
    let opts = RunOptions {
        fabric,
        oracle,
        gate: gate.clone(),
        ..RunOptions::default()
    };
    try_run_single(cfg, workload, &opts)
}

/// Sanity marker so downstream code can assert which engine a config is.
pub fn engine_label(cfg: &CoreConfig) -> &'static str {
    match cfg.engine {
        EngineKind::ViReC => "virec",
        EngineKind::Banked => "banked",
        EngineKind::Software => "software",
        EngineKind::PrefetchFull => "prefetch_full",
        EngineKind::PrefetchExact => "prefetch_exact",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use virec_workloads::kernels;

    fn run(cfg: CoreConfig, w: &Workload) -> RunResult {
        try_run_single(cfg, w, &RunOptions::default()).expect("run verifies")
    }

    #[test]
    fn banked_gather_runs_and_verifies() {
        let w = kernels::spatter::gather(256, Layout::for_core(0));
        let r = run(CoreConfig::banked(4), &w);
        assert!(r.cycles > 0);
        assert!(r.stats.instructions > 256 * 5);
    }

    #[test]
    fn virec_gather_runs_and_verifies() {
        let w = kernels::spatter::gather(256, Layout::for_core(0));
        let r = run(CoreConfig::virec(4, 32), &w);
        assert!(r.stats.rf_misses > 0);
    }

    #[test]
    fn oracle_recording_produces_quanta() {
        let w = kernels::spatter::gather(256, Layout::for_core(0));
        let o = try_record_oracle(&w, 4, FabricConfig::default(), &RunGate::unbounded())
            .expect("oracle recording completes");
        assert_eq!(o.sets.len(), 4);
        assert!(
            o.sets.iter().any(|s| s.len() > 1),
            "multiple quanta expected"
        );
    }

    #[test]
    fn prefetch_exact_runs_with_recorded_oracle() {
        let w = kernels::spatter::gather(256, Layout::for_core(0));
        let r = try_run_prefetch_exact(4, 8, &w, FabricConfig::default(), &RunGate::unbounded())
            .expect("prefetch run verifies");
        assert!(r.cycles > 0);
    }

    #[test]
    fn multithreading_beats_single_thread_on_gather() {
        // The core premise: TLP hides memory latency.
        let w = kernels::spatter::gather(1024, Layout::for_core(0));
        let one = run(CoreConfig::banked(1), &w);
        let four = run(CoreConfig::banked(4), &w);
        assert!(
            four.cycles * 2 < one.cycles * 3,
            "4 threads ({}) should clearly beat 1 thread ({})",
            four.cycles,
            one.cycles
        );
    }

    #[test]
    fn budget_exhaustion_is_typed_not_a_panic() {
        let w = kernels::spatter::gather(512, Layout::for_core(0));
        let mut cfg = CoreConfig::virec(4, 32);
        cfg.max_cycles = 2_000; // far too small for 512 elements
        let err = try_run_single(cfg, &w, &RunOptions::default()).unwrap_err();
        match &err {
            SimError::CycleBudgetExceeded { budget, diag } => {
                assert_eq!(*budget, 2_000);
                assert_eq!(diag.nthreads, 4);
                assert_eq!(diag.last_commit_pc.len(), 4);
            }
            other => panic!("expected CycleBudgetExceeded, got {other:?}"),
        }
        assert_eq!(err.kind(), "cycle_budget");
    }

    #[test]
    fn cancelled_gate_surfaces_as_typed_deadline() {
        use crate::cancel::CancelToken;
        let w = kernels::spatter::gather(256, Layout::for_core(0));
        let token = CancelToken::new();
        token.cancel();
        let opts = RunOptions {
            gate: RunGate::new(token, 0),
            ..RunOptions::default()
        };
        let err = try_run_single(CoreConfig::virec(4, 32), &w, &opts).unwrap_err();
        match &err {
            SimError::Deadline { limit_ms, .. } => assert_eq!(*limit_ms, 0),
            other => panic!("expected Deadline, got {other:?}"),
        }
        assert_eq!(err.kind(), "deadline");
        assert!(!err.deadline_expired(), "a cancellation is not an expiry");
    }

    #[test]
    fn expired_deadline_stops_a_long_run() {
        // A deadline that has already passed when the loop starts polling:
        // the run must stop at the first poll with an expired trip.
        let w = kernels::spatter::gather(4096, Layout::for_core(0));
        let gate = RunGate::new(crate::cancel::CancelToken::new(), 1);
        std::thread::sleep(std::time::Duration::from_millis(5));
        let opts = RunOptions {
            gate,
            ..RunOptions::default()
        };
        let err = try_run_single(CoreConfig::virec(4, 32), &w, &opts).unwrap_err();
        assert_eq!(err.kind(), "deadline");
        assert!(err.deadline_expired());
    }

    #[test]
    fn golden_digest_matches_a_clean_run() {
        // The golden-side digest hashes the same byte stream as the
        // timing-side one, so a verified run must reproduce it exactly.
        let w = kernels::spatter::gather(128, Layout::for_core(0));
        let r = run(CoreConfig::banked(4), &w);
        let g = golden_arch_digest(&w, 4, 1_000_000).expect("golden halts");
        assert_eq!(r.arch_digest, g);
        // And at a non-zero core slot (the serve layer's failover path).
        let w1 = kernels::stream::reduction(128, Layout::for_core(1));
        let g1 = golden_arch_digest(&w1, 4, 1_000_000).expect("golden halts");
        assert_ne!(g, g1, "different slots/kernels must not collide");
    }

    #[test]
    fn dram_upsets_land_on_the_routed_core_with_word_verdicts() {
        let layouts: Vec<Layout> = (0..2).map(Layout::for_core).collect();
        let fabric = Fabric::new(FabricConfig::default());
        let mut m = Machine::new(Vec::new(), fabric, FlatMem::new(0, layout::mem_size(2)));
        let word = |c: usize| layouts[c].data_base + 3 * 8;
        m.mem.write_u64(word(0), 0xC0FF_EE00_1234_5678);
        m.mem.write_u64(word(1), 0x0BAD_F00D_8765_4321);
        for preset in ["none", "parity", "secded"] {
            let protection: ProtectionConfig = preset.parse().unwrap();
            let mut router = FaultRouter::new(layouts.clone(), protection, None);
            for (core, bits) in [(1, &[5u8][..]), (0, &[5]), (1, &[5, 9]), (0, &[5, 9])] {
                let class = crate::FaultClass::Transient;
                let group: Vec<_> =
                    FaultEvent::flips(0, FaultSite::DramLine, 3, class, bits).collect();
                let before = [m.mem.read_u64(word(0)), m.mem.read_u64(word(1))];
                let mask = bits.iter().fold(0, |a, &b| a ^ (1u64 << b));
                let (got, flip) = match router.protect(core, &group, &mut m, 0) {
                    Verdict::Landed => (WordVerdict::Applied, mask),
                    Verdict::Corrected => (WordVerdict::Corrected, 0),
                    Verdict::Detected { addr, mask: m, .. } if (addr, m) == (word(core), mask) => {
                        (WordVerdict::Detected, 0)
                    }
                    other => panic!("{preset}: {other:?}"),
                };
                let want = match word_verdict(protection.dram_line, before[core], mask) {
                    WordVerdict::PassedThrough => WordVerdict::Applied,
                    want => want,
                };
                assert_eq!(got, want, "{preset}");
                assert_eq!(m.mem.read_u64(word(core)), before[core] ^ flip, "{preset}");
                assert_eq!(m.mem.read_u64(word(1 - core)), before[1 - core], "{preset}");
            }
        }
    }
}
