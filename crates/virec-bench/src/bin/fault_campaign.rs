//! Deterministic fault-injection campaign across the context engines.
//!
//! Runs K seeded single-bit fault injections (default 64, override with
//! `VIREC_FAULTS`) against a ViReC core (all six fault sites: VRMU tag
//! store, rollback queue, stuck fills, backing-store registers, DRAM
//! lines, in-flight fabric responses) and a banked core (the four sites
//! that exist without a VRMU), classifying every run against the golden
//! interpreter and the clean run's architectural digest.
//!
//! Each engine's campaign is one custom cell; the outcome counts land in
//! the `results/` JSON while the full per-injection records flow through
//! a side channel for the SILENT-escape listing. Every checker-detected
//! injection is re-executed once without the fault plan and must
//! reproduce the clean run's architectural digest (`Recovered`). Exit
//! status is nonzero if any effectful fault escaped detection (a
//! `SILENT` outcome) or any detected injection failed to recover — both
//! are checker/recovery bugs, not simulator bugs.
//!
//! `VIREC_PROTECTION=secded` (or `parity`) routes every injection through
//! the in-situ protection model with architectural checkpointing enabled,
//! adding the corrected / checkpoint-recovered / detected-uncorrectable
//! classifications; `VIREC_MULTI_FAULT=1` switches to double-bit bursts
//! that defeat single-error correction.
//!
//! ```sh
//! cargo run --release -p virec-bench --bin fault_campaign
//! VIREC_FAULTS=256 VIREC_N=2048 cargo run --release -p virec-bench --bin fault_campaign
//! VIREC_PROTECTION=secded cargo run --release -p virec-bench --bin fault_campaign
//! ```

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use virec_bench::harness::*;
use virec_core::CoreConfig;
use virec_mem::FabricConfig;
use virec_sim::experiment::{CellData, ExperimentSpec};
use virec_sim::report::{pct, Table};
use virec_sim::runner::default_checkpoint_interval;
use virec_sim::{
    run_campaign_with, CampaignOptions, CampaignReport, FaultClass, FaultSite, InjectionOutcome,
    ProtectionConfig, RasConfig,
};
use virec_workloads::kernels;

/// Campaign options from `VIREC_PROTECTION` / `VIREC_MULTI_FAULT` /
/// `VIREC_FAULT_CLASS` (defaults: unprotected, single-fault, transient —
/// the historical behavior). A persistent fault class turns on the RAS
/// layer at its default rates.
fn campaign_options() -> CampaignOptions {
    let protection: ProtectionConfig =
        env_knob("VIREC_PROTECTION").unwrap_or_else(ProtectionConfig::none);
    let class: FaultClass = env_knob("VIREC_FAULT_CLASS").unwrap_or(FaultClass::Transient);
    CampaignOptions {
        protection,
        multi_fault: std::env::var("VIREC_MULTI_FAULT").is_ok_and(|v| v != "0"),
        checkpoint_interval: if protection.is_none() {
            0
        } else {
            default_checkpoint_interval()
        },
        class,
        ras: class.is_persistent().then(RasConfig::default),
        fabric: FabricConfig::default(),
    }
}

fn main() {
    // Campaigns run one full simulation per injection; keep the default
    // problem size modest so 2×64 runs stay interactive.
    let n = problem_size().min(2048);
    // Injection count per engine and base seed (`VIREC_FAULTS`,
    // `VIREC_SEED`).
    let injections: usize = env_knob("VIREC_FAULTS").unwrap_or(64);
    let base_seed: u64 = env_knob("VIREC_SEED").unwrap_or(0xF00D_5EED);

    // The executor already converts panics (a clean reference run failing)
    // into structured failure rows; the full reports travel through this
    // side channel so the SILENT-escape listing can show per-record detail.
    let reports: Arc<Mutex<BTreeMap<String, CampaignReport>>> = Default::default();

    let campaign = campaign_options();

    let mut spec = ExperimentSpec::new("fault_campaign");
    spec.set_meta("n", n);
    spec.set_meta(
        "protection",
        std::env::var("VIREC_PROTECTION").unwrap_or_else(|_| "none".into()),
    );
    spec.set_meta("multi_fault", campaign.multi_fault);
    for (key, cfg, sites) in [
        ("virec", CoreConfig::virec(4, 32), &FaultSite::ALL[..]),
        ("banked", CoreConfig::banked(4), &FaultSite::NON_VRMU[..]),
    ] {
        let reports = Arc::clone(&reports);
        spec.custom(key, move |_| {
            let w = kernels::spatter::gather(n, layout0());
            let r = run_campaign_with(cfg, &w, injections, base_seed, sites, &campaign);
            let data = CellData::metrics([
                ("injections", r.records.len() as f64),
                ("corrected", r.count(InjectionOutcome::Corrected) as f64),
                (
                    "ckpt_recovered",
                    r.count(InjectionOutcome::CheckpointRecovered) as f64,
                ),
                (
                    "detected_uncorrectable",
                    r.count(InjectionOutcome::DetectedUncorrectable) as f64,
                ),
                ("recovered", r.count(InjectionOutcome::Recovered) as f64),
                ("detected", r.count(InjectionOutcome::Detected) as f64),
                ("crashed", r.count(InjectionOutcome::Crashed) as f64),
                ("masked", r.count(InjectionOutcome::Masked) as f64),
                ("not_applied", r.count(InjectionOutcome::NotApplied) as f64),
                ("silent", r.count(InjectionOutcome::Silent) as f64),
                ("detection_rate", r.detection_rate()),
                ("recovery_rate", r.recovery_rate()),
                ("mean_replay_cycles", r.mean_replay_cycles().unwrap_or(0.0)),
                ("clean_cycles", r.clean_cycles as f64),
            ]);
            reports.lock().unwrap().insert(key.to_string(), r);
            Ok(data)
        });
    }

    // Crashed outcomes unwind through a panic inside the campaign; silence
    // the default hook so the report is the only output, and restore it
    // afterwards.
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let res = run_spec(&spec);
    std::panic::set_hook(prev);

    println!("fault campaign: gather n={n}, {injections} injections per engine\n");
    if !res.all_ok() {
        res.print_failures();
        eprintln!("campaign aborted: the clean reference run failed");
        std::process::exit(1);
    }
    let reports = reports.lock().unwrap();

    let mut t = Table::new(
        "Fault-injection campaign — detection by engine",
        &[
            "engine",
            "injections",
            "corrected",
            "ckpt_recovered",
            "detected_uncorr",
            "recovered",
            "detected",
            "crashed",
            "masked",
            "not_applied",
            "silent",
            "detection_rate",
            "recovery_rate",
            "mean_replay",
            "clean_cycles",
        ],
    );
    for key in ["virec", "banked"] {
        let r = &reports[key];
        t.row(vec![
            r.engine.clone(),
            r.records.len().to_string(),
            r.count(InjectionOutcome::Corrected).to_string(),
            r.count(InjectionOutcome::CheckpointRecovered).to_string(),
            r.count(InjectionOutcome::DetectedUncorrectable).to_string(),
            r.count(InjectionOutcome::Recovered).to_string(),
            r.count(InjectionOutcome::Detected).to_string(),
            r.count(InjectionOutcome::Crashed).to_string(),
            r.count(InjectionOutcome::Masked).to_string(),
            r.count(InjectionOutcome::NotApplied).to_string(),
            r.count(InjectionOutcome::Silent).to_string(),
            pct(r.detection_rate()),
            pct(r.recovery_rate()),
            r.mean_replay_cycles()
                .map_or_else(|| "-".into(), |m| format!("{m:.0}")),
            r.clean_cycles.to_string(),
        ]);
    }
    t.print();

    let mut escaped = false;
    let mut unrecovered = false;
    for key in ["virec", "banked"] {
        let r = &reports[key];
        println!("{}", r.summary());
        for rec in &r.records {
            match rec.outcome {
                InjectionOutcome::Silent => {
                    escaped = true;
                    println!("  SILENT escape: seed {} faults {:?}", rec.seed, rec.faults);
                }
                InjectionOutcome::Detected => {
                    unrecovered = true;
                    println!(
                        "  unrecovered detection: seed {} faults {:?}",
                        rec.seed, rec.faults
                    );
                }
                _ => {}
            }
        }
    }
    if escaped {
        eprintln!("\nFAIL: at least one effectful fault escaped every checker");
        std::process::exit(1);
    }
    if unrecovered {
        eprintln!("\nFAIL: at least one detected injection did not recover on re-execution");
        std::process::exit(1);
    }
    println!("\nOK: every effectful fault was detected and every detection recovered");
}
