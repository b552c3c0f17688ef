//! Reproducibility: the simulator is fully deterministic — identical
//! configurations must give identical cycle counts and statistics, and
//! multi-core systems must verify against the golden model.

use virec::core::CoreConfig;
use virec::mem::FabricConfig;
use virec::sim::runner::{try_run_single, RunOptions};
use virec::sim::{SimError, System, SystemConfig, SystemResult};
use virec::workloads::{kernels, Layout};

#[test]
fn identical_runs_are_bit_identical() {
    let w = kernels::spatter::gather(1024, Layout::for_core(0));
    let cfg = CoreConfig::virec(8, 32);
    let a = try_run_single(cfg, &w, &RunOptions::default()).expect("run verifies");
    let b = try_run_single(cfg, &w, &RunOptions::default()).expect("run verifies");
    assert_eq!(a.cycles, b.cycles);
    assert_eq!(a.stats.instructions, b.stats.instructions);
    assert_eq!(a.stats.rf_hits, b.stats.rf_hits);
    assert_eq!(a.stats.rf_misses, b.stats.rf_misses);
    assert_eq!(a.stats.context_switches, b.stats.context_switches);
    assert_eq!(a.stats.dcache.misses, b.stats.dcache.misses);
}

#[test]
fn system_runs_are_deterministic_and_verified() -> Result<(), SimError> {
    let build = || -> Result<SystemResult, SimError> {
        let mut core = CoreConfig::virec(4, 32);
        core.max_cycles = 500_000_000; // system budget derives from the cores
        let cfg = SystemConfig {
            ncores: 4,
            core,
            fabric: FabricConfig::default(),
        };
        System::try_new(cfg, kernels::spatter::gather, 512)?.try_run()
    };
    let a = build()?;
    let b = build()?;
    assert_eq!(a.cycles, b.cycles);
    for (x, y) in a.per_core.iter().zip(&b.per_core) {
        assert_eq!(x.instructions, y.instructions);
        assert_eq!(x.context_switches, y.context_switches);
    }
    Ok(())
}

#[test]
fn eight_core_system_with_ten_threads_verifies() -> Result<(), SimError> {
    // The largest configuration of Figure 11 (shrunk problem size).
    let mut core = CoreConfig::virec(10, 64);
    core.max_cycles = 1_000_000_000;
    let cfg = SystemConfig {
        ncores: 8,
        core,
        fabric: FabricConfig::default(),
    };
    let r = System::try_new(cfg, kernels::spatter::gather, 256)?.try_run()?;
    assert_eq!(r.per_core.len(), 8);
    assert!(r.cycles > 0);
    Ok(())
}
