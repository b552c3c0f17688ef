//! The one step loop: N near-memory cores, the shared fabric and the
//! functional memory image, advanced cycle by cycle or skipped to the next
//! event.
//!
//! A single-core run ([`crate::runner::try_run_single`]) is a 1-core
//! [`Machine`] and a multi-core [`crate::System`] is an N-core one; both go
//! through [`Machine::run`]. The serve layer keeps its own dispatcher loop
//! but shares the skip decision (`next_wake`) and its crediting
//! (`credit_span`). Cycle-indexed side effects that live outside the
//! machine — fault injection, ECC, checkpoints, the patrol scrubber — plug
//! in through a [`CycleHook`]; everyone else passes `()`.

use crate::error::{RunDiagnostics, SimError};
use crate::runner::RunOptions;
use crate::watchdog::Watchdog;
use virec_core::Core;
use virec_isa::FlatMem;
use virec_mem::Fabric;

/// Cores, fabric and memory: everything a checkpoint must copy.
pub struct Machine {
    /// The near-memory cores sharing the fabric.
    pub cores: Vec<Core>,
    /// The shared crossbar/NoC and DRAM.
    pub fabric: Fabric,
    /// The functional memory image.
    pub mem: FlatMem,
}

// Written by hand: the derived `clone_from` reallocates, and the checkpoint
// ring reuses each evicted snapshot's buffers (memory image, cache arrays,
// queues) instead of deep-copying into fresh ones.
impl Clone for Machine {
    fn clone(&self) -> Machine {
        Machine {
            cores: self.cores.clone(),
            fabric: self.fabric.clone(),
            mem: self.mem.clone(),
        }
    }

    fn clone_from(&mut self, src: &Machine) {
        self.cores.clone_from(&src.cores);
        self.fabric.clone_from(&src.fabric);
        self.mem.clone_from(&src.mem);
    }
}

/// Cycle-indexed side effects around the step loop. Generic, so the `()`
/// hook of ordinary runs compiles away.
pub trait CycleHook {
    /// Runs before the machine ticks cycle `now`.
    fn before_tick(&mut self, m: &mut Machine, now: u64);

    /// Runs after the machine ticked cycle `now` without a structural
    /// hazard. `Ok(Some(cycle))` means the hook rewound the machine to
    /// `cycle`; the loop resumes there with a fresh watchdog.
    fn after_tick(&mut self, m: &mut Machine, now: u64) -> Result<Option<u64>, SimError>;

    /// The earliest cycle at or after `now` on which the hook has work;
    /// the skip never jumps past it.
    fn next_due(&self, now: u64) -> u64;
}

impl CycleHook for () {
    fn before_tick(&mut self, _: &mut Machine, _: u64) {}

    fn after_tick(&mut self, _: &mut Machine, _: u64) -> Result<Option<u64>, SimError> {
        Ok(None)
    }

    fn next_due(&self, _: u64) -> u64 {
        u64::MAX
    }
}

/// The joint wakeup of `cores` and `fabric` after ticking cycle `now - 1`:
/// `None` when some core can act at `now` (the productive-cycle bail, taken
/// before the fabric scan), otherwise the earliest event of any core or
/// the fabric (`u64::MAX` when nothing is scheduled).
pub(crate) fn next_wake<'a>(
    cores: impl IntoIterator<Item = &'a Core>,
    fabric: &Fabric,
    now: u64,
) -> Option<u64> {
    let ticked = now - 1;
    let mut wake = u64::MAX;
    for core in cores {
        if let Some(t) = core.next_event(ticked, fabric) {
            if t <= now {
                return None;
            }
            wake = wake.min(t);
        }
    }
    Some(fabric.next_event(ticked).map_or(wake, |t| wake.min(t)))
}

/// Credits a skipped span of `span` cycles to the stall counters of
/// `cores`, exactly as the dense loop's ticks would have bumped them.
pub(crate) fn credit_span<'a>(cores: impl IntoIterator<Item = &'a mut Core>, span: u64) {
    for core in cores {
        core.credit_skipped(span);
    }
}

impl Machine {
    /// A machine of `cores` sharing `fabric` and `mem`.
    pub fn new(cores: Vec<Core>, fabric: Fabric, mem: FlatMem) -> Machine {
        Machine { cores, fabric, mem }
    }

    /// True once every core has halted.
    fn done(&self) -> bool {
        self.cores.iter().all(Core::done)
    }

    /// The cycle budget: the most generous per-core `max_cycles`, since the
    /// slowest core bounds completion under shared-fabric contention.
    pub(crate) fn cycle_budget(&self) -> u64 {
        self.cores
            .iter()
            .map(|c| c.config().max_cycles)
            .max()
            .unwrap_or(0)
    }

    /// Runs every core to completion and returns the cycle count; the cores
    /// are then finalized and drained into memory.
    ///
    /// Each cycle polls `opts.gate`, ticks the fabric and every unfinished
    /// core, reports a core or NoC structural hazard, and runs the watchdog
    /// (`opts.livelock_cycles`) over total commits and the cycle budget.
    /// Unless `opts.dense_loop` is set, the clock then jumps over every
    /// cycle on which provably nothing happens — capped so the watchdog's
    /// firing observation, the budget and `hook`'s next due cycle land
    /// exactly where the dense loop puts them — and the span is credited to
    /// the unfinished cores. Both modes produce byte-identical results.
    /// `names[i]` labels core `i` in error diagnostics.
    pub fn run<H: CycleHook>(
        &mut self,
        hook: &mut H,
        opts: &RunOptions,
        names: &[&str],
    ) -> Result<u64, SimError> {
        let budget = self.cycle_budget();
        let mut watchdog = Watchdog::new(opts.livelock_cycles);
        // The first poll is due at cycle 0, so a pre-cancelled run (e.g. a
        // SIGINT abort that lands between cells) trips deterministically
        // even when the workload would finish in under one poll interval.
        let mut next_poll = 0u64;
        let mut now = 0u64;
        while !self.done() {
            if let Some(trip) = opts.gate.poll_due(now, &mut next_poll) {
                return Err(SimError::Deadline {
                    elapsed_ms: trip.elapsed_ms,
                    limit_ms: trip.limit_ms,
                    diag: self.diag(names, now),
                });
            }
            hook.before_tick(self, now);
            self.fabric.tick(now);
            for core in self.cores.iter_mut().filter(|c| !c.done()) {
                core.tick(now, &mut self.fabric, &mut self.mem);
            }
            // A latched NoC fault (a flit past its age cap or out of
            // retransmission budget) means the interconnect can no longer
            // guarantee delivery: a structural hazard, not a hang.
            let hazard = self
                .cores
                .iter()
                .find_map(|c| c.structural_fault())
                .or_else(|| self.fabric.noc_fault());
            if let Some(detail) = hazard {
                return Err(SimError::StructuralHazard {
                    detail: detail.to_string(),
                    diag: self.diag(names, now),
                });
            }
            if let Some(cycle) = hook.after_tick(self, now)? {
                now = cycle;
                watchdog = Watchdog::new(opts.livelock_cycles);
                // The poll schedule rewinds with the clock so the replay
                // window stays responsive to cancellation.
                next_poll = now;
                continue;
            }

            now += 1;
            let committed = self.cores.iter().map(|c| c.stats().instructions).sum();
            if let Err(stalled) = watchdog.observe(now, committed) {
                return Err(SimError::Livelock {
                    stalled_cycles: stalled,
                    dump: self.debug_dump(names),
                    diag: self.diag(names, now),
                });
            }
            if now >= budget {
                return Err(SimError::CycleBudgetExceeded {
                    budget,
                    diag: self.diag(names, now),
                });
            }

            // The cycle just ticked was `now - 1`; if nothing can happen
            // before `wake`, every tick in `[now, wake)` is a no-op.
            if opts.dense_loop || self.done() {
                continue;
            }
            let busy = self.cores.iter().filter(|c| !c.done());
            let Some(mut wake) = next_wake(busy, &self.fabric, now) else {
                continue;
            };
            if let Some(deadline) = watchdog.deadline() {
                // Tick deadline-1; the observation at `deadline` then
                // reports a stall of exactly the threshold, as dense does.
                wake = wake.min(deadline - 1);
            }
            wake = wake.min(budget - 1).min(hook.next_due(now));
            if wake > now {
                let busy = self.cores.iter_mut().filter(|c| !c.done());
                credit_span(busy, wake - now);
                now = wake;
            }
        }
        for core in &mut self.cores {
            core.finalize_stats();
            core.drain(&mut self.mem);
        }
        Ok(now)
    }

    /// Diagnostics for the most-stuck core: the first unfinished one (or
    /// core 0 if all finished).
    fn diag(&self, names: &[&str], now: u64) -> Box<RunDiagnostics> {
        let i = self
            .cores
            .iter()
            .position(|c| !c.done())
            .unwrap_or_default();
        RunDiagnostics::capture(names[i], &self.cores[i], now)
    }

    /// The pipeline dump of a lone core, or the labelled dumps of every
    /// unfinished core of a multi-core machine.
    fn debug_dump(&self, names: &[&str]) -> String {
        if let [core] = &self.cores[..] {
            return core.debug_dump();
        }
        let mut s = String::new();
        for (i, core) in self.cores.iter().enumerate() {
            if !core.done() {
                s.push_str(&format!(
                    "--- core {i} ({}) ---\n{}",
                    names[i],
                    core.debug_dump()
                ));
            }
        }
        if s.is_empty() {
            s.push_str("(all cores report done)");
        }
        s
    }
}
