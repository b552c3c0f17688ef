//! Digest tripwire: literal cycle counts and architectural digests for a
//! handful of small runs through every entry point of the simulator — the
//! single-core runner in both loop modes, the golden reference, a
//! multi-core `System`, a SEC-DED fault campaign and three serve runs.
//!
//! The differential suites prove that two paths agree with each other;
//! these constants prove that neither path moved. A refactor of the step
//! loop that changes any simulated quantity fails here even when every
//! path changed the same way.

use virec::core::CoreConfig;
use virec::mem::FabricConfig;
use virec::sim::runner::default_checkpoint_interval;
use virec::sim::serve::default_mix;
use virec::sim::{
    golden_arch_digest, run_campaign_with, run_service, try_run_single, CampaignOptions,
    FaultClass, FaultPlan, FaultSite, ProtectionConfig, RasConfig, RunOptions, ServeConfig,
    ServeFaultPlan, ServeReport, System, SystemConfig,
};
use virec::workloads::{kernels, Layout, WorkloadCtor};

const N: u64 = 256;
const THREADS: usize = 4;

/// Per kernel at n=256 with four threads: the golden `arch_digest`, which
/// every verified run reproduces, and the cycles of a banked and a ViReC
/// run, which both loop modes reproduce.
const SINGLE: [(&str, WorkloadCtor, u64, [u64; 2]); 2] = [
    (
        "reduction",
        kernels::stream::reduction,
        0x3168_5B76_D80B_4E4A,
        [3003, 3410],
    ),
    (
        "gather",
        kernels::spatter::gather,
        0x48B2_FE45_DFB1_BEDD,
        [4001, 4476],
    ),
];

#[test]
fn single_core_runs_and_golden_digests_are_pinned() {
    let engines = [CoreConfig::banked(THREADS), CoreConfig::virec(THREADS, 24)];
    for (name, ctor, digest, cycles) in SINGLE {
        let w = ctor(N, Layout::for_core(0));
        let golden = golden_arch_digest(&w, THREADS, 1 << 32).expect("golden run halts");
        assert_eq!(golden, digest, "{name}: golden digest {golden:#x}");
        for (cfg, want) in engines.into_iter().zip(cycles) {
            for dense_loop in [false, true] {
                let opts = RunOptions {
                    dense_loop,
                    ..RunOptions::default()
                };
                let r = try_run_single(cfg, &w, &opts).expect("run verifies");
                assert_eq!(
                    (r.cycles, r.arch_digest),
                    (want, digest),
                    "{name} on {:?}, dense={dense_loop}",
                    cfg.engine
                );
            }
        }
    }
}

#[test]
fn mixed_system_is_pinned() {
    let cfg = SystemConfig {
        ncores: 3,
        core: CoreConfig::virec(THREADS, 32),
        fabric: FabricConfig::default(),
    };
    let specs: [(WorkloadCtor, u64); 3] = [
        (kernels::spatter::gather, 256),
        (kernels::stream::stream_triad, 256),
        (kernels::sparse::spmv, 64),
    ];
    let r = System::try_new_mixed(cfg, &specs)
        .expect("valid shape")
        .try_run()
        .expect("system run completes");
    let instrs: Vec<u64> = r.per_core.iter().map(|s| s.instructions).collect();
    assert_eq!(
        (r.cycles, instrs.as_slice()),
        (11912, &[1544u64, 1796, 4193][..])
    );
}

#[test]
fn secded_campaign_outcomes_are_pinned() {
    let w = kernels::spatter::gather(N, Layout::for_core(0));
    let sites = [
        FaultSite::TagValue,
        FaultSite::RollbackSlot,
        FaultSite::BackingReg,
        FaultSite::DramLine,
    ];
    let report = run_campaign_with(
        CoreConfig::virec(THREADS, 32),
        &w,
        16,
        0x9147_ED00,
        &sites,
        &CampaignOptions::protected(),
    );
    let got: Vec<String> = report
        .records
        .iter()
        .map(|r| format!("{:?}/{:?}", r.outcome, r.replay_cycles))
        .collect();
    let want = "Corrected/None Corrected/None CheckpointRecovered/Some(163) \
                CheckpointRecovered/Some(688) CheckpointRecovered/Some(181) \
                CheckpointRecovered/Some(706) Corrected/None Corrected/None Corrected/None \
                Corrected/None CheckpointRecovered/Some(735) CheckpointRecovered/Some(236) \
                CheckpointRecovered/Some(753) CheckpointRecovered/Some(254) Corrected/None \
                Corrected/None";
    assert_eq!(got.join(" "), want, "clean_cycles={}", report.clean_cycles);
}

#[test]
fn mesh_serve_summary_is_pinned() {
    let mut cfg = ServeConfig::streaming(4, CoreConfig::banked(2), 32, 0xF00D_5EED);
    cfg.mix = default_mix(32);
    cfg.mean_interarrival = 512;
    cfg.fabric.topology = "mesh2x2".parse().expect("valid topology");
    cfg.faults = ServeFaultPlan::links(9);
    cfg.ras = Some(RasConfig::default());
    let r = run_service(cfg).expect("serve run completes");
    let want = "\
serve[banked]: submitted=32 completed=32 rejected_queue_full=0 rejected_quarantined=0 failed=0 lost=0 duplicated=0
serve[banked]: faults injected=6 corrected=0 uncorrectable=0 silent_corruptions=0 retries=0 failovers=0 quarantined_cores=0
serve[banked]: p50=938 p99=1240 p999=1240 cycles, tasks_per_sec=1948131, availability=80.7%, goodput=100.0%
serve[banked]: ras repairs=0 fenced_cores=0 spares_consumed=0
serve[banked]: noc hops=1966 crc_detected=4 retransmissions=4 links_retired=2 links_fenced=0";
    assert_eq!(r.summary(), want);
}

#[test]
fn stuck_at_ras_run_is_pinned() {
    let w = kernels::spatter::gather(N, Layout::for_core(0));
    let cfg = CoreConfig::virec(THREADS, 32);
    let opts = RunOptions {
        faults: FaultPlan::seeded_class(
            0xF00D_5EED,
            4,
            (0, 4000),
            &FaultSite::PERMANENT,
            FaultClass::StuckAt { period: 400 },
        ),
        protection: ProtectionConfig::secded(),
        checkpoint_interval: default_checkpoint_interval(),
        ras: Some(RasConfig::default()),
        ..RunOptions::default()
    };
    let r = try_run_single(cfg, &w, &opts).expect("a repaired run verifies");
    let got = format!(
        "cycles={} {:?}\n{}",
        r.cycles,
        r.ras,
        r.faults_applied.join("\n")
    );
    let want = "\
cycles=4802 RasStats { scrub_reads: 3, ce_observations: 3, predictive_retirements: 1, demand_retirements: 3, degraded_regions: 2, migrated_lines: 32, suppressed_assertions: 0 }
cycle 0: ras fenced unmaskable way family index 7282153219979759637
cycle 578: parity detected tag-value (tag-store[3] t0 x2 value bit 53); restored checkpoint @ cycle 0 (replaying 578 cycles)
cycle 0: ras fenced unmaskable way family index 1077316903530757637
cycle 880: parity detected tag-value (tag-store[5] t1 x3 value bit 57); restored checkpoint @ cycle 0 (replaying 880 cycles)
cycle 1010: secded corrected dram word 0x4e1e20 bit 3
cycle 1410: secded corrected dram word 0x4e1e20 bit 3
cycle 1810: secded corrected dram word 0x4e1e20 bit 3
cycle 1810: ras retired row behind 0x4e1e20 (spared)
cycle 2048: ras vrmu way 28 retired (spared=true)
cycle 2574: parity detected tag-value (tag-store[28] t2 x4 value bit 9); restored checkpoint @ cycle 2048 (replaying 526 cycles)";
    assert_eq!(got, want);
}

/// FNV-1a over the bytes of `s`.
fn fnv1a(s: &str) -> u64 {
    s.bytes().fold(0xCBF2_9CE4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3)
    })
}

/// Pins a whole serve report: its summary as text, and every other field
/// (latency samples, epoch snapshots, fabric counters, last failure)
/// through an FNV-1a of its debug rendering.
fn assert_report_pinned(r: &ServeReport, summary: &str, debug_fnv: u64) {
    assert_eq!(r.summary(), summary);
    let debug = format!("{r:?}");
    assert_eq!(fnv1a(&debug), debug_fnv, "{debug}");
}

#[test]
fn faulty_crossbar_serve_report_is_pinned() {
    // Transient and sticky faults under SEC-DED, a 400k-cycle SLO,
    // quarantine and failover, and epoch snapshots.
    let mut cfg = ServeConfig::streaming(3, CoreConfig::virec(2, 16), 48, 0xD1FF_5EED);
    cfg.mix = default_mix(32);
    cfg.mean_interarrival = 512;
    cfg.faults = ServeFaultPlan::campaign(8, 1);
    cfg.protection = ProtectionConfig::secded();
    cfg.deadline_cycles = 400_000;
    let r = run_service(cfg).expect("serve run completes");
    let want = "\
serve[virec]: submitted=48 completed=48 rejected_queue_full=0 rejected_quarantined=0 failed=0 lost=0 duplicated=0
serve[virec]: faults injected=11 corrected=8 uncorrectable=3 silent_corruptions=0 retries=2 failovers=1 quarantined_cores=1
serve[virec]: p50=2667 p99=4195 p999=4195 cycles, tasks_per_sec=1672940, availability=72.4%, goodput=100.0%
serve[virec]: ras repairs=0 fenced_cores=0 spares_consumed=0";
    assert_report_pinned(&r, want, 0x7D14_6CC0_2596_4D11);
}

#[test]
fn repaired_and_fenced_serve_report_is_pinned() {
    // Stuck-at cores with the RAS layer: one spare, so the pool runs dry
    // and later defects are fenced.
    let mut cfg = ServeConfig::streaming(4, CoreConfig::virec(2, 16), 64, 0xF00D_5EED);
    cfg.mix = default_mix(32);
    cfg.mean_interarrival = 512;
    cfg.faults = ServeFaultPlan::stuck(3);
    cfg.protection = ProtectionConfig::secded();
    cfg.ras = Some(RasConfig {
        spare_rows: 1,
        ..RasConfig::default()
    });
    let r = run_service(cfg).expect("serve run completes");
    let want = "\
serve[virec]: submitted=64 completed=64 rejected_queue_full=0 rejected_quarantined=0 failed=0 lost=0 duplicated=0
serve[virec]: faults injected=3 corrected=0 uncorrectable=3 silent_corruptions=0 retries=0 failovers=3 quarantined_cores=0
serve[virec]: p50=1236 p99=1444 p999=1710 cycles, tasks_per_sec=1920538, availability=73.5%, goodput=100.0%
serve[virec]: ras repairs=1 fenced_cores=2 spares_consumed=1";
    assert_report_pinned(&r, want, 0xA4A3_58D8_3F47_4BAE);
}
