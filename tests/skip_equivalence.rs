//! Differential proof of the event-driven scheduler's headline invariant:
//! the wakeup-scheduled loop and the dense cycle-by-cycle loop produce
//! **byte-identical** statistics, architectural digests, and reports —
//! across every context engine, the whole workload suite, a seeded
//! fault-injection campaign with checkpointing, and a full serve run.
//!
//! Single runs, `System` and the serve layer all step through the one
//! `Machine::run` loop; the dense mode is selected per run via
//! `RunOptions::dense_loop` (for serve, through `TaskService::run_with`).
//! The event-driven loop is the default everywhere else in the tree, so
//! these tests are the main place both loops run side by side on the same
//! input.

use virec::core::CoreConfig;
use virec::sim::runner::{try_run_single, RunOptions, RunResult};
use virec::sim::serve::{default_mix, ServeConfig, ServeFaultPlan, ServeReport, TaskService};
use virec::sim::{
    FaultClass, FaultPlan, FaultSite, ProtectionConfig, RasConfig, SimError, System, SystemConfig,
};
use virec::workloads::{kernels, suite, Layout};

const N: u64 = 256;

/// Same options, dense loop forced.
fn densified(opts: &RunOptions) -> RunOptions {
    RunOptions {
        dense_loop: true,
        ..opts.clone()
    }
}

/// Serves `cfg` to drain in the dense or the event-driven loop.
fn serve(cfg: ServeConfig, dense_loop: bool) -> ServeReport {
    let opts = RunOptions {
        dense_loop,
        ..RunOptions::default()
    };
    let mut service = TaskService::new(cfg).expect("valid serve config");
    service.run_with(&opts).expect("serve run completes")
}

/// Field-by-field identity on everything deterministic in a [`RunResult`]
/// (`checkpoint_clone_ns` is wall-clock and deliberately excluded).
fn assert_identical(label: &str, dense: &RunResult, skip: &RunResult) {
    assert_eq!(dense.cycles, skip.cycles, "{label}: cycles diverged");
    assert_eq!(dense.stats, skip.stats, "{label}: stats diverged");
    assert_eq!(
        dense.arch_digest, skip.arch_digest,
        "{label}: arch digest diverged"
    );
    assert_eq!(
        dense.faults_applied, skip.faults_applied,
        "{label}: applied faults diverged"
    );
    assert_eq!(dense.ecc, skip.ecc, "{label}: ecc counters diverged");
    assert_eq!(dense.ras, skip.ras, "{label}: ras counters diverged");
}

#[test]
fn all_engines_all_workloads_byte_identical() {
    for w in suite(N, Layout::for_core(0)) {
        let configs = [
            CoreConfig::virec(4, 16),
            CoreConfig::virec(8, 12), // starved RF: maximal spill/fill traffic
            CoreConfig::banked(4),
            CoreConfig::software(3),
            CoreConfig::nsf(4, 16),
            CoreConfig::prefetch_full(4, w.active_context_size()),
        ];
        for cfg in configs {
            let opts = RunOptions::default();
            let skip = try_run_single(cfg, &w, &opts)
                .unwrap_or_else(|e| panic!("{}: event-driven run failed: {e}", w.name));
            let dense = try_run_single(cfg, &w, &densified(&opts))
                .unwrap_or_else(|e| panic!("{}: dense run failed: {e}", w.name));
            assert_identical(&format!("{} / {:?}", w.name, cfg.engine), &dense, &skip);
            assert!(skip.cycles > 0 && skip.stats.instructions > 0);
        }
    }
}

/// Flattens an outcome to a comparable string: full field identity for
/// successes, the (deterministic) display rendering for typed failures.
fn outcome_key(r: &Result<RunResult, SimError>) -> String {
    match r {
        Ok(res) => format!(
            "ok cycles={} digest={:#x} stats={:?} faults={:?} ecc={:?} ras={:?}",
            res.cycles, res.arch_digest, res.stats, res.faults_applied, res.ecc, res.ras
        ),
        Err(e) => format!("err {e}"),
    }
}

#[test]
fn seeded_fault_campaign_byte_identical() {
    // 64 seeded injections over live microarchitectural state, each run
    // under both loops with checkpointing enabled — detection cycle,
    // recovery/replay accounting, and final digests must all agree.
    let w = kernels::spatter::gather(256, Layout::for_core(0));
    let cfg = CoreConfig::virec(4, 32);
    let clean = try_run_single(cfg, &w, &RunOptions::default()).expect("clean run");
    let window = (clean.cycles / 10, clean.cycles * 9 / 10);
    let sites = [
        FaultSite::TagValue,
        FaultSite::RollbackSlot,
        FaultSite::DramLine,
    ];
    for i in 0..64u64 {
        let opts = RunOptions {
            livelock_cycles: clean.cycles * 4,
            faults: FaultPlan::seeded_class(
                0x5EED_7E57 ^ i,
                1,
                window,
                &sites,
                FaultClass::Transient,
            ),
            protection: ProtectionConfig::secded(),
            checkpoint_interval: 4096,
            ..RunOptions::default()
        };
        let skip = try_run_single(cfg, &w, &opts);
        let dense = try_run_single(cfg, &w, &densified(&opts));
        assert_eq!(
            outcome_key(&dense),
            outcome_key(&skip),
            "injection {i} diverged between loops"
        );
    }
}

/// The PR-8 fault classes through both loops: intermittent duty-cycled
/// upsets and permanent stuck-at cells, with the full RAS machinery live —
/// patrol-scrubber wakeups capping the skip horizon, CE-bucket predictive
/// retirement, demand retirement + migration, and degraded-mode fencing.
/// Every scrub read and every retirement must land on the same cycle in
/// both loops or the digests (and the RasStats identity) catch it.
#[test]
fn persistent_fault_classes_with_scrubber_byte_identical() {
    let w = kernels::spatter::gather(256, Layout::for_core(0));
    let classes = [
        FaultClass::Intermittent {
            period: 500,
            repeats: 6,
        },
        FaultClass::StuckAt { period: 400 },
    ];
    let engines = [
        (CoreConfig::virec(4, 32), &FaultSite::PERMANENT[..]),
        (CoreConfig::banked(4), &FaultSite::PERMANENT_NON_VRMU[..]),
    ];
    for (cfg, sites) in engines {
        let clean = try_run_single(cfg, &w, &RunOptions::default()).expect("clean run");
        let window = (clean.cycles / 10, clean.cycles * 9 / 10);
        for class in classes {
            for i in 0..16u64 {
                let opts = RunOptions {
                    livelock_cycles: clean.cycles * 8,
                    faults: FaultPlan::seeded_class(0x8A5_0BAD ^ i, 1, window, sites, class),
                    protection: ProtectionConfig::secded(),
                    checkpoint_interval: 4096,
                    ras: Some(RasConfig::default()),
                    ..RunOptions::default()
                };
                let skip = try_run_single(cfg, &w, &opts);
                let dense = try_run_single(cfg, &w, &densified(&opts));
                assert_eq!(
                    outcome_key(&dense),
                    outcome_key(&skip),
                    "{:?} injection {i} ({class:?}) diverged between loops",
                    cfg.engine
                );
            }
        }
    }
}

/// A RAS-enabled run with no faults at all still schedules patrol-scrub
/// wakeups; the skip loop must honor them (consuming the same fabric
/// bandwidth at the same cycles) without perturbing the workload.
#[test]
fn idle_scrubber_wakeups_byte_identical() {
    let w = kernels::spatter::gather(256, Layout::for_core(0));
    for cfg in [CoreConfig::virec(4, 16), CoreConfig::banked(4)] {
        let opts = RunOptions {
            ras: Some(RasConfig {
                scrub_interval: 300, // deliberately off-cadence vs the skip horizon
                ..RasConfig::default()
            }),
            ..RunOptions::default()
        };
        let skip = try_run_single(cfg, &w, &opts).expect("event-driven run");
        let dense = try_run_single(cfg, &w, &densified(&opts)).expect("dense run");
        assert_identical(&format!("scrub-only / {:?}", cfg.engine), &dense, &skip);
        assert!(skip.ras.scrub_reads > 0, "the patrol scrubber never ran");
    }
}

#[test]
fn system_run_byte_identical() {
    let cfg = SystemConfig {
        ncores: 3,
        core: CoreConfig::virec(4, 32),
        fabric: Default::default(),
    };
    let run = |dense: bool| {
        let mut sys = System::try_new(cfg, kernels::spatter::gather, 192).expect("valid shape");
        let opts = RunOptions {
            dense_loop: dense,
            ..RunOptions::default()
        };
        sys.try_run_with(&opts).expect("system run completes")
    };
    let skip = run(false);
    let dense = run(true);
    assert_eq!(dense.cycles, skip.cycles, "system cycles diverged");
    assert_eq!(dense.per_core, skip.per_core, "per-core stats diverged");
    assert_eq!(
        format!("{:?}", dense.fabric),
        format!("{:?}", skip.fabric),
        "fabric stats diverged"
    );
}

#[test]
fn serve_run_byte_identical() {
    // A faulty, protected, deadline-bearing service run: arrivals, SLO
    // shedding, quarantine, failover, epochs, and latency percentiles all
    // ride on the shared clock the skip loop fast-forwards.
    let run = |dense: bool| {
        let mut cfg = ServeConfig::streaming(3, CoreConfig::virec(2, 16), 48, 0xD1FF_5EED);
        cfg.mix = default_mix(32);
        cfg.mean_interarrival = 512;
        cfg.faults = ServeFaultPlan::campaign(8, 1);
        cfg.protection = ProtectionConfig::secded();
        cfg.deadline_cycles = 400_000;
        serve(cfg, dense)
    };
    let skip = run(false);
    let dense = run(true);
    // ServeReport has no wall-clock fields: the debug rendering covers
    // every counter, latency sample, and epoch snapshot.
    assert_eq!(
        format!("{dense:?}"),
        format!("{skip:?}"),
        "serve reports diverged"
    );
    assert!(skip.completed > 0, "serve run must do real work");
}

/// Serve with permanent (stuck-at) cores and the RAS layer live: repair
/// completions are exact-cycle events the skip loop must wake for, and the
/// millicore availability tape has to match the dense loop to the cycle.
#[test]
fn serve_repairs_and_fencing_byte_identical() {
    let run = |dense: bool| {
        let mut cfg = ServeConfig::streaming(4, CoreConfig::virec(2, 16), 64, 0xF00D_5EED);
        cfg.mix = default_mix(32);
        cfg.mean_interarrival = 512;
        cfg.faults = ServeFaultPlan::stuck(3);
        cfg.protection = ProtectionConfig::secded();
        cfg.ras = Some(RasConfig {
            spare_rows: 1, // pool runs dry: exercise fencing, not just repair
            ..RasConfig::default()
        });
        serve(cfg, dense)
    };
    let skip = run(false);
    let dense = run(true);
    assert_eq!(
        format!("{dense:?}"),
        format!("{skip:?}"),
        "serve reports diverged"
    );
    assert!(skip.repairs >= 1, "the spare pool never repaired");
    assert!(skip.fenced_cores >= 1, "a dry pool must fence");
    assert_eq!(skip.lost, 0);
    assert_eq!(skip.duplicated, 0);
}

/// Mesh NoC topologies through both loops, defect-free: per-hop arrivals,
/// express cut-through reservations, and credit returns are all exact-cycle
/// events the skip loop must reproduce — including the fabric's NoC
/// counters, which `assert_identical` does not cover.
#[test]
fn mesh_topologies_byte_identical() {
    use virec::mem::{FabricConfig, FabricTopology};
    let w = kernels::spatter::gather(256, Layout::for_core(0));
    for (cols, rows) in [(2usize, 2usize), (4, 2)] {
        for cfg in [CoreConfig::virec(4, 16), CoreConfig::banked(4)] {
            let opts = RunOptions {
                fabric: FabricConfig {
                    topology: FabricTopology::Mesh { cols, rows },
                    ..FabricConfig::default()
                },
                ..RunOptions::default()
            };
            let label = format!("mesh{cols}x{rows} / {:?}", cfg.engine);
            let skip = try_run_single(cfg, &w, &opts)
                .unwrap_or_else(|e| panic!("{label}: event-driven run failed: {e}"));
            let dense = try_run_single(cfg, &w, &densified(&opts))
                .unwrap_or_else(|e| panic!("{label}: dense run failed: {e}"));
            assert_identical(&label, &dense, &skip);
            assert_eq!(dense.fabric, skip.fabric, "{label}: fabric stats diverged");
            assert!(
                skip.fabric.noc_hops > 0,
                "{label}: traffic must cross the mesh"
            );
        }
    }
}

/// Seeded NoC link-fault campaigns (transient upsets and stuck-at links,
/// RAS live for the persistent class) through both loops on 2x2 and 4x2
/// meshes: every CRC catch, retransmission backoff, leaky-bucket
/// retirement, and route-around recompute must land on the same cycle.
#[test]
fn mesh_link_fault_campaigns_byte_identical() {
    use virec::mem::{FabricConfig, FabricTopology};
    let w = kernels::spatter::gather(256, Layout::for_core(0));
    let cfg = CoreConfig::virec(4, 32);
    for (cols, rows) in [(2usize, 2usize), (4, 2)] {
        let fabric = FabricConfig {
            topology: FabricTopology::Mesh { cols, rows },
            ..FabricConfig::default()
        };
        let clean = try_run_single(
            cfg,
            &w,
            &RunOptions {
                fabric,
                ..RunOptions::default()
            },
        )
        .expect("clean mesh run");
        let window = (clean.cycles / 10, clean.cycles * 9 / 10);
        let classes = [FaultClass::Transient, FaultClass::StuckAt { period: 400 }];
        for class in classes {
            for i in 0..8u64 {
                let opts = RunOptions {
                    livelock_cycles: clean.cycles * 8,
                    fabric,
                    faults: FaultPlan::seeded_class(
                        0x90C_11FE ^ i,
                        1,
                        window,
                        &[FaultSite::NocLink],
                        class,
                    ),
                    protection: ProtectionConfig::secded(),
                    checkpoint_interval: 4096,
                    ras: matches!(class, FaultClass::StuckAt { .. }).then(RasConfig::default),
                    ..RunOptions::default()
                };
                let skip = try_run_single(cfg, &w, &opts);
                let dense = try_run_single(cfg, &w, &densified(&opts));
                assert_eq!(
                    outcome_key(&dense),
                    outcome_key(&skip),
                    "mesh{cols}x{rows} injection {i} ({class:?}) diverged between loops"
                );
            }
        }
    }
}

/// A faulty serve run on the mesh: dispatch-clocked link upsets, CRC
/// retransmissions, link retirement, and the link-loss capacity scaling in
/// the availability tape must all match the dense loop byte for byte.
#[test]
fn mesh_serve_link_faults_byte_identical() {
    use virec::mem::{FabricConfig, FabricTopology};
    let run = |dense: bool| {
        let mut cfg = ServeConfig::streaming(4, CoreConfig::banked(2), 32, 0xF00D_5EED);
        cfg.mix = default_mix(32);
        cfg.mean_interarrival = 512;
        cfg.fabric = FabricConfig {
            topology: FabricTopology::Mesh { cols: 2, rows: 2 },
            ..FabricConfig::default()
        };
        cfg.faults = ServeFaultPlan::links(9);
        cfg.ras = Some(RasConfig::default());
        serve(cfg, dense)
    };
    let skip = run(false);
    let dense = run(true);
    assert_eq!(
        format!("{dense:?}"),
        format!("{skip:?}"),
        "mesh serve reports diverged"
    );
    assert!(
        skip.fabric.noc_retransmissions >= 1,
        "upsets must retransmit"
    );
    assert!(
        skip.fabric.noc_links_retired >= 1,
        "the flaky link must retire"
    );
    assert_eq!(skip.lost, 0);
    assert_eq!(skip.silent_corruptions, 0);
}
