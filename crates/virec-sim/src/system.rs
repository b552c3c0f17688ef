//! Multi-core near-memory systems (Figure 11): several processors share the
//! crossbar and DRAM, so memory latency observed by each core grows with
//! system activity.

use crate::error::{RunDiagnostics, SimError};
use crate::machine::Machine;
use crate::offload::{check_region, offload};
use crate::runner::{try_verify_against_golden, RunOptions};
use virec_core::{Core, CoreConfig, CoreStats};
use virec_isa::FlatMem;
use virec_mem::{Fabric, FabricConfig, FabricStats};
use virec_workloads::{layout, Layout, Workload, WorkloadCtor};

/// Configuration of a multi-core system. Every core runs the same core
/// configuration and its own instance of the same workload on a private
/// slice of memory (the paper's per-processor offload regions).
///
/// The system's cycle budget is not configured here: it is derived as the
/// maximum of the per-core `CoreConfig::max_cycles` values, so a single
/// knob governs both single-core and system runs.
#[derive(Clone, Copy, Debug)]
pub struct SystemConfig {
    /// Number of near-memory processors on the crossbar.
    pub ncores: usize,
    /// Per-core configuration.
    pub core: CoreConfig,
    /// Shared fabric configuration.
    pub fabric: FabricConfig,
}

/// Why a [`System`] (or the serve layer built on top of it) could not be
/// constructed: a [`SimError::Config`] labelled `system-config`.
pub(crate) fn system_config_error(detail: impl Into<String>) -> SimError {
    SimError::Config {
        detail: detail.into(),
        diag: RunDiagnostics::placeholder("system-config"),
    }
}

/// The detail of a system with no cores.
pub(crate) const ZERO_CORES: &str = "a system needs at least one core (ncores == 0)";

/// Result of a system run.
#[derive(Clone, Debug)]
pub struct SystemResult {
    /// Cycles until *every* core finished.
    pub cycles: u64,
    /// Per-core statistics.
    pub per_core: Vec<CoreStats>,
    /// Shared crossbar/DRAM statistics (for observed-latency analysis).
    pub fabric: FabricStats,
}

impl SystemResult {
    /// Mean cycles a memory request queued in the fabric before service —
    /// the "observed latency" increase of Figure 11.
    pub fn mean_queue_delay(&self) -> f64 {
        let reqs = self.fabric.reads + self.fabric.writes;
        if reqs == 0 {
            0.0
        } else {
            self.fabric.queue_cycles as f64 / reqs as f64
        }
    }

    /// Aggregate instructions per cycle across the whole system.
    pub fn total_ipc(&self) -> f64 {
        let insts: u64 = self.per_core.iter().map(|s| s.instructions).sum();
        insts as f64 / self.cycles as f64
    }

    /// Mean per-core IPC (0.0 for an empty system, not a division by
    /// zero).
    pub fn mean_core_ipc(&self) -> f64 {
        if self.per_core.is_empty() {
            return 0.0;
        }
        let sum: f64 = self
            .per_core
            .iter()
            .map(|s| s.instructions as f64 / self.cycles as f64)
            .sum();
        sum / self.per_core.len() as f64
    }
}

/// A system of near-memory cores sharing one fabric: an N-core
/// [`Machine`] with one workload per core.
pub struct System {
    machine: Machine,
    workloads: Vec<Workload>,
}

impl System {
    /// Builds a system where core `i` runs `ctor(n, Layout::for_core(i))`;
    /// `ncores == 0` is a typed [`SimError::Config`].
    pub fn try_new(cfg: SystemConfig, ctor: WorkloadCtor, n: u64) -> Result<System, SimError> {
        let specs = vec![(ctor, n); cfg.ncores];
        Self::try_new_mixed(cfg, &specs)
    }

    /// Builds a heterogeneous system: core `i` runs `specs[i]` — a
    /// multi-programmed near-memory node, each processor offloaded a
    /// different kernel.
    pub fn try_new_mixed(
        cfg: SystemConfig,
        specs: &[(WorkloadCtor, u64)],
    ) -> Result<System, SimError> {
        let cores = vec![cfg.core; specs.len()];
        Self::try_new_heterogeneous(cfg, &cores, specs)
    }

    /// Fully heterogeneous construction: per-core configurations *and*
    /// per-core workloads — e.g. banked and ViReC processors contending on
    /// the same crossbar. Every invalid shape (zero cores, mismatched spec
    /// or core-config arity, an invalid core configuration) is a typed
    /// [`SimError::Config`].
    pub fn try_new_heterogeneous(
        cfg: SystemConfig,
        core_cfgs: &[CoreConfig],
        specs: &[(WorkloadCtor, u64)],
    ) -> Result<System, SimError> {
        let expected = cfg.ncores;
        if expected == 0 {
            return Err(system_config_error(ZERO_CORES));
        }
        if specs.len() != expected {
            return Err(system_config_error(format!(
                "one workload spec per core: expected {expected}, got {}",
                specs.len()
            )));
        }
        if core_cfgs.len() != expected {
            return Err(system_config_error(format!(
                "one core config per core: expected {expected}, got {}",
                core_cfgs.len()
            )));
        }
        for (core, c) in core_cfgs.iter().enumerate() {
            c.validate()
                .and_then(|()| check_region(&Layout::for_core(core), c.nthreads))
                .map_err(|detail| system_config_error(format!("core {core}: {detail}")))?;
        }
        let mut mem = FlatMem::new(0, layout::mem_size(cfg.ncores));
        let mut cores = Vec::with_capacity(cfg.ncores);
        let mut workloads = Vec::with_capacity(cfg.ncores);
        for (c, (&(ctor, n), core_cfg)) in specs.iter().zip(core_cfgs).enumerate() {
            let w = ctor(n, Layout::for_core(c));
            let region = offload(&mut mem, &w, core_cfg.nthreads);
            cores.push(Core::new(
                *core_cfg,
                w.program().clone(),
                region,
                w.layout.code_base,
                (2 * c, 2 * c + 1),
            ));
            workloads.push(w);
        }
        Ok(System {
            machine: Machine::new(cores, Fabric::new(cfg.fabric), mem),
            workloads,
        })
    }

    /// The system cycle budget: the most generous per-core budget, since
    /// the slowest core bounds completion under shared-fabric contention.
    pub fn cycle_budget(&self) -> u64 {
        self.machine.cycle_budget()
    }

    /// Runs the system to completion and verifies every core against the
    /// golden interpreter, returning a typed [`SimError`] on budget
    /// exhaustion, livelock, or divergence.
    pub fn try_run(&mut self) -> Result<SystemResult, SimError> {
        self.try_run_with(&RunOptions::default())
    }

    /// [`System::try_run`] under `opts.gate` (a typed [`SimError::Deadline`]
    /// when the wall-clock deadline expires or cancellation is requested),
    /// `opts.livelock_cycles` and `opts.dense_loop`; the single-core-only
    /// options are ignored.
    pub fn try_run_with(&mut self, opts: &RunOptions) -> Result<SystemResult, SimError> {
        let names: Vec<&str> = self.workloads.iter().map(|w| w.name).collect();
        let m = &mut self.machine;
        let cycles = m.run(&mut (), opts, &names)?;
        for (core, w) in m.cores.iter().zip(&self.workloads) {
            try_verify_against_golden(w, core.config().nthreads, core, &m.mem, cycles)?;
        }
        Ok(SystemResult {
            cycles,
            per_core: m.cores.iter().map(|c| *c.stats()).collect(),
            fabric: *m.fabric.stats(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use virec_workloads::kernels;

    fn sys_cfg(ncores: usize, core: CoreConfig) -> SystemConfig {
        SystemConfig {
            ncores,
            core,
            fabric: FabricConfig::default(),
        }
    }

    #[test]
    fn two_core_system_completes_and_verifies() -> Result<(), SimError> {
        let cfg = sys_cfg(2, CoreConfig::virec(4, 32));
        let r = System::try_new(cfg, kernels::spatter::gather, 256)?.try_run()?;
        assert_eq!(r.per_core.len(), 2);
        assert!(r.cycles > 0);
        Ok(())
    }

    #[test]
    fn mixed_workload_system_verifies() -> Result<(), SimError> {
        let cfg = sys_cfg(3, CoreConfig::virec(4, 32));
        let specs: Vec<(virec_workloads::WorkloadCtor, u64)> = vec![
            (kernels::spatter::gather, 256),
            (kernels::stream::stream_triad, 256),
            (kernels::sparse::spmv, 64),
        ];
        let r = System::try_new_mixed(cfg, &specs)?.try_run()?;
        assert_eq!(r.per_core.len(), 3);
        // All three kernels committed work.
        for s in &r.per_core {
            assert!(s.instructions > 100);
        }
        Ok(())
    }

    #[test]
    fn mixed_arity_is_a_typed_error() {
        let cfg = sys_cfg(2, CoreConfig::banked(2));
        let specs: Vec<(virec_workloads::WorkloadCtor, u64)> = vec![(kernels::spatter::gather, 64)];
        let err = System::try_new_mixed(cfg, &specs).err().expect("must fail");
        assert_eq!(err.kind(), "config");
        assert_eq!(
            err.to_string(),
            "system-config: invalid configuration — one workload spec per core: expected 2, got 1"
        );
    }

    #[test]
    fn core_config_arity_is_a_typed_error() {
        let cfg = sys_cfg(2, CoreConfig::banked(2));
        let specs: Vec<(virec_workloads::WorkloadCtor, u64)> = vec![
            (kernels::spatter::gather, 64),
            (kernels::spatter::gather, 64),
        ];
        let err = System::try_new_heterogeneous(cfg, &[CoreConfig::banked(2)], &specs)
            .err()
            .expect("must fail");
        assert_eq!(err.kind(), "config");
        assert_eq!(
            err.to_string(),
            "system-config: invalid configuration — one core config per core: expected 2, got 1"
        );
    }

    #[test]
    fn zero_cores_is_a_typed_error() {
        let cfg = sys_cfg(0, CoreConfig::banked(2));
        let err = System::try_new(cfg, kernels::spatter::gather, 64)
            .err()
            .expect("must fail");
        assert_eq!(err.kind(), "config");
        assert_eq!(
            err.to_string(),
            "system-config: invalid configuration — a system needs at least one core (ncores == 0)"
        );
    }

    #[test]
    fn invalid_core_config_is_a_typed_error() {
        let cfg = sys_cfg(1, CoreConfig::virec(4, 4));
        let err = System::try_new(cfg, kernels::spatter::gather, 64)
            .err()
            .expect("must fail");
        assert_eq!(err.kind(), "config");
        assert!(
            err.to_string()
                .starts_with("system-config: invalid configuration — core 0: "),
            "{err}"
        );
        assert!(err.to_string().contains("at least 12 registers"), "{err}");
    }

    #[test]
    fn mean_core_ipc_of_an_empty_result_is_zero() {
        let r = SystemResult {
            cycles: 100,
            per_core: Vec::new(),
            fabric: FabricStats::default(),
        };
        assert_eq!(r.mean_core_ipc(), 0.0);
    }

    #[test]
    fn heterogeneous_engines_share_the_fabric() -> Result<(), SimError> {
        // A banked core and a ViReC core contend for the same DRAM; both
        // must verify, and both make progress.
        let cfg = sys_cfg(2, CoreConfig::banked(4));
        let cores = [CoreConfig::banked(4), CoreConfig::virec(8, 52)];
        let specs: Vec<(virec_workloads::WorkloadCtor, u64)> = vec![
            (kernels::spatter::gather, 256),
            (kernels::spatter::gather, 256),
        ];
        let r = System::try_new_heterogeneous(cfg, &cores, &specs)?.try_run()?;
        assert!(r.per_core[0].instructions > 1000);
        assert!(r.per_core[1].instructions > 1000);
        // The ViReC core ran 8 threads, the banked core 4.
        assert!(r.per_core[1].context_switches > r.per_core[0].context_switches / 4);
        Ok(())
    }

    #[test]
    fn budget_derives_from_core_configs_and_is_typed() {
        let mut core = CoreConfig::banked(4);
        core.max_cycles = 3_000; // far too small for 512 elements
        let cfg = sys_cfg(2, core);
        let mut sys = System::try_new(cfg, kernels::spatter::gather, 512).expect("valid shape");
        assert_eq!(sys.cycle_budget(), 3_000);
        let err = sys.try_run().unwrap_err();
        match &err {
            SimError::CycleBudgetExceeded { budget, diag } => {
                assert_eq!(*budget, 3_000);
                assert!(!diag.workload.is_empty());
            }
            other => panic!("expected CycleBudgetExceeded, got {other:?}"),
        }
    }

    #[test]
    fn heterogeneous_budget_takes_the_max() {
        let mut small = CoreConfig::banked(2);
        small.max_cycles = 1_000;
        let big = CoreConfig::virec(4, 32); // preset budget 200M
        let cfg = sys_cfg(2, small);
        let specs: Vec<(virec_workloads::WorkloadCtor, u64)> = vec![
            (kernels::spatter::gather, 64),
            (kernels::spatter::gather, 64),
        ];
        let mut sys =
            System::try_new_heterogeneous(cfg, &[small, big], &specs).expect("valid shape");
        assert_eq!(sys.cycle_budget(), big.max_cycles);
        // The generous budget lets both cores finish despite `small`'s cap.
        let r = sys.try_run().expect("system completes under max budget");
        assert!(r.cycles > 0);
    }

    #[test]
    fn contention_slows_cores_down() -> Result<(), SimError> {
        // Per-core IPC must drop as more cores share the fabric.
        let run = |ncores: usize| -> Result<SystemResult, SimError> {
            let cfg = sys_cfg(ncores, CoreConfig::banked(4));
            System::try_new(cfg, kernels::spatter::gather, 512)?.try_run()
        };
        let one = run(1)?;
        let four = run(4)?;
        let ipc1 = one.per_core[0].ipc();
        let ipc4 = four.per_core[0].ipc();
        assert!(
            ipc4 < ipc1,
            "core 0 IPC should drop under contention: {ipc4} vs {ipc1}"
        );
        Ok(())
    }
}
