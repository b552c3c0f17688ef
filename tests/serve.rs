//! End-to-end accounting tests for the streaming task service: every
//! submitted task must resolve to exactly one outcome under faults,
//! quarantine/failover, and sustained overload — `completed + rejected +
//! failed == submitted`, with zero lost, duplicated, or silently corrupt
//! tasks, on both the ViReC and banked engines.

use virec::core::CoreConfig;
use virec::sim::serve::{default_mix, ServeConfig, ServeFaultPlan};
use virec::sim::{run_service, ProtectionConfig, ServeReport};

fn base_cfg(core: CoreConfig, ncores: usize, tasks: usize, seed: u64) -> ServeConfig {
    let mut cfg = ServeConfig::streaming(ncores, core, tasks, seed);
    cfg.mix = default_mix(32);
    cfg.mean_interarrival = 512;
    cfg
}

/// The invariants every service run must uphold, faulty or not.
fn assert_conserved(r: &ServeReport) {
    assert_eq!(
        r.accounted(),
        r.submitted,
        "completed {} + rejected {}+{} + failed {} != submitted {}",
        r.completed,
        r.rejected_queue_full,
        r.rejected_quarantined,
        r.failed,
        r.submitted
    );
    assert_eq!(r.lost, 0, "a task never resolved to any outcome");
    assert_eq!(r.duplicated, 0, "a task resolved to two outcomes");
    assert_eq!(r.silent_corruptions, 0, "a corrupted result escaped");
}

/// The acceptance campaign: >= 64 injected faults with quarantine on.
/// Transients correct under SEC-DED; the sticky core accumulates
/// uncorrectable double-bit bursts, quarantines, and its in-flight task
/// fails over to a healthy core without being completed twice.
#[test]
fn fault_campaign_keeps_exactly_once_accounting() {
    for core in [CoreConfig::virec(2, 16), CoreConfig::banked(2)] {
        let mut cfg = base_cfg(core, 4, 160, 0xF00D_5EED);
        cfg.faults = ServeFaultPlan::campaign(64, 1);
        cfg.protection = ProtectionConfig::secded();
        let r = run_service(cfg).expect("campaign runs");
        assert_conserved(&r);
        assert!(
            r.faults_injected >= 64,
            "campaign realized only {} faults",
            r.faults_injected
        );
        assert!(r.faults_corrected > 0, "secded corrected nothing");
        assert_eq!(r.quarantined_cores, 1, "the sticky core must quarantine");
        assert!(
            r.failovers >= 1,
            "quarantine with work in flight fails over"
        );
        assert!(
            r.completed + r.failed >= r.submitted - r.rejected_queue_full,
            "every admitted task ran"
        );
        // SLO metrics are well-formed on a faulty run too.
        assert!(r.p50() > 0 && r.p50() <= r.p99() && r.p99() <= r.p999());
        assert!(r.availability() > 0.0 && r.availability() < 1.0);
    }
}

/// Sustained 2x overload: the bounded queue sheds with a typed reason and
/// the service still terminates with full accounting — never a deadlock,
/// never a panic.
#[test]
fn double_rate_overload_sheds_typed_and_terminates() {
    let mut cfg = base_cfg(CoreConfig::banked(2), 2, 120, 7);
    // ~2x capacity: two cores at ~900 cycles/task serve one task per
    // ~450 cycles; arrivals every ~225.
    cfg.mean_interarrival = 225;
    cfg.queue_depth = 4;
    let r = run_service(cfg).expect("overload run terminates");
    assert_conserved(&r);
    assert!(r.rejected_queue_full > 0, "overload must shed");
    assert_eq!(r.rejected_quarantined, 0);
    assert!(r.completed > 0, "the service still makes progress");
}

/// Every core goes sticky-bad with no protection-level correction: the
/// whole fleet quarantines, and the queue plus later arrivals drain with
/// `quarantined_capacity` rejections instead of hanging forever.
#[test]
fn fully_quarantined_fleet_drains_instead_of_deadlocking() {
    let mut cfg = base_cfg(CoreConfig::banked(2), 2, 60, 0xDEAD);
    cfg.faults = ServeFaultPlan::campaign(0, 2);
    cfg.protection = ProtectionConfig::secded(); // double-bit: detected, uncorrectable
    cfg.quarantine_after = 2;
    let r = run_service(cfg).expect("drains");
    assert_conserved(&r);
    assert_eq!(r.quarantined_cores, 2, "every core must quarantine");
    assert!(
        r.rejected_quarantined > 0,
        "tasks after total quarantine must shed typed"
    );
}

/// Same seed, same config: byte-identical accounting and latency tape,
/// even through a fault campaign with retries and failover.
#[test]
fn faulty_runs_are_deterministic() {
    let mk = || {
        let mut cfg = base_cfg(CoreConfig::virec(2, 16), 3, 80, 0xA11CE);
        cfg.faults = ServeFaultPlan::campaign(24, 1);
        cfg.protection = ProtectionConfig::secded();
        run_service(cfg).expect("runs")
    };
    let (a, b) = (mk(), mk());
    assert_eq!(a.cycles, b.cycles);
    assert_eq!(a.latencies, b.latencies);
    assert_eq!(a.completed, b.completed);
    assert_eq!(a.failovers, b.failovers);
    assert_eq!(a.faults_injected, b.faults_injected);
    assert_eq!(a.summary(), b.summary());
}
