//! `virec-cli` — run ViReC simulations from the command line.
//!
//! ```text
//! virec-cli list
//! virec-cli run --workload gather --n 4096 --engine virec --threads 8 --regs 52
//! virec-cli run --workload spmv --engine banked --threads 4
//! virec-cli sweep --jobs 4 --workloads gather,spmv --engines banked,virec40,virec80
//! virec-cli area --threads 8 --regs 64
//! ```

use std::collections::HashMap;
use std::process::ExitCode;
use std::time::Instant;
use virec::area::AreaModel;
use virec::bench::harness::{self, EngineSel, SuiteSweep};
use virec::bench::tune::{pareto_front, pick_for_area, tune_sweep, TuneConfig};
use virec::cc::{regalloc, AllocStrategy};
use virec::core::{CoreConfig, EngineKind, PolicyKind};
use virec::mem::{FabricConfig, FabricTopology};
use virec::sim::experiment::{Executor, RetryPolicy};
use virec::sim::runner::default_checkpoint_interval;
use virec::sim::runner::{try_run_prefetch_exact, try_run_single, RunOptions};
use virec::sim::{
    interrupt_tokens, parse_sites, run_campaign_with, run_service, CampaignOptions, FaultClass,
    FaultPlan, FaultSite, InjectionOutcome, JournalConfig, ProtectionConfig, RasConfig,
    ServeConfig, ServeFaultPlan,
};
use virec::verify::{
    broken_fixture, broken_spill_report, lint_everything, lint_program, tv_compiled_budgets,
    LintConfig,
};
use virec::workloads::{by_name, suite_names, Layout};

fn usage() -> ExitCode {
    eprintln!(
        "virec-cli — ViReC near-memory multithreading simulator

USAGE:
    virec-cli list
    virec-cli run      --workload <name> [--n <elems>] [--engine <e>]
                       [--threads <t>] [--regs <r>] [--policy <p>] [--no-verify]
                       [--group-evict <g>] [--switch-prefetch] [--max-cycles <c>]
                       [--topology crossbar|mesh<C>x<R>]
    virec-cli sweep    [--jobs <j>] [--workloads <w1,w2,..>] [--n <elems>]
                       [--threads <t>] [--engines <e1,e2,..>] [--json <dir>]
                       [--max-retries <k>] [--budget-factor <f>] [--budget-cap <c>]
                       [--resume] [--deadline <ms>]
    virec-cli campaign [--workload <name>] [--n <elems>] [--engine virec|banked]
                       [--threads <t>] [--regs <r>] [--faults <k>] [--seed <s>]
                       [--protection none|parity|secded] [--multi-fault]
                       [--sites <s1,s2,..>] [--topology crossbar|mesh<C>x<R>]
                       [--fault-class transient|intermittent|stuck-at]
    virec-cli ras      [--workload <name>] [--n <elems>] [--engine virec|banked]
                       [--threads <t>] [--regs <r>] [--faults <k>] [--seed <s>]
                       [--fault-class intermittent|stuck-at]
                       [--scrub-interval <c>] [--spare-rows <k>] [--spare-ways <k>]
                       [--ce-threshold <k>] [--protection parity|secded]
    virec-cli serve    [--cores <c>] [--tasks <k>] [--rate <tasks/Mcycle>]
                       [--engine virec|banked] [--threads <t>] [--regs <r>]
                       [--n <elems>] [--queue-depth <d>] [--deadline <cycles>]
                       [--quarantine-after <k>] [--protection none|parity|secded]
                       [--faults <k>] [--sticky-cores <k>] [--stuck-cores <k>]
                       [--spare-rows <k>] [--seed <s>] [--no-verify]
                       [--topology crossbar|mesh<C>x<R>] [--link-faults <k>]
    virec-cli noc      [--workload <name>] [--n <elems>] [--threads <t>]
                       [--faults <k>] [--seed <s>]
                       [--topology mesh<C>x<R>]
    virec-cli lint     [--n <elems>] [--broken-fixture]
    virec-cli tv       [--broken-fixture]
    virec-cli tune     [--n <elems>] [--threads <t>] [--strategy graph|linear]
                       [--budgets <b1,b2,..>] [--capacities <c1,c2,..>]
                       [--area-budget <mm2>]
    virec-cli area     [--threads <t>] [--regs <r>]

ENGINES:  virec (default) | banked | software | prefetch_full | prefetch_exact | nsf
POLICIES: lrc (default) | mrt-plru | plru | lru | mrt-lru | fifo | random
SWEEP ENGINES: banked | software | virec<pct> | nsf<pct> | pf_full | pf_exact
    (e.g. virec80; the first engine is the normalization baseline)

Sweeps journal completed cells to <json-dir>/<name>.journal.jsonl. An
interrupted sweep (Ctrl-C, or a cell hitting --deadline is just a FAILED
row) exits 130; re-run the same command with --resume to replay journaled
cells and execute only the remainder."
    );
    ExitCode::from(2)
}

fn parse_flags(args: &[String]) -> Result<HashMap<String, String>, String> {
    let mut out = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        let a = &args[i];
        let Some(key) = a.strip_prefix("--") else {
            return Err(format!("unexpected argument {a:?}"));
        };
        // Boolean flags.
        if matches!(
            key,
            "no-verify" | "switch-prefetch" | "resume" | "broken-fixture" | "multi-fault"
        ) {
            out.insert(key.to_string(), "true".to_string());
            i += 1;
            continue;
        }
        let Some(val) = args.get(i + 1) else {
            return Err(format!("--{key} needs a value"));
        };
        out.insert(key.to_string(), val.clone());
        i += 2;
    }
    Ok(out)
}

fn parse_policy(s: &str) -> Option<PolicyKind> {
    Some(match s.to_ascii_lowercase().as_str() {
        "lrc" => PolicyKind::Lrc,
        "mrt-plru" | "mrtplru" => PolicyKind::MrtPlru,
        "plru" => PolicyKind::Plru,
        "lru" => PolicyKind::Lru,
        "mrt-lru" | "mrtlru" => PolicyKind::MrtLru,
        "fifo" => PolicyKind::Fifo,
        "random" => PolicyKind::Random,
        _ => return None,
    })
}

/// Parses the shared `--topology` flag into a fabric config (crossbar when
/// absent, so every legacy invocation is byte-identical).
fn parse_fabric(flags: &HashMap<String, String>) -> Result<FabricConfig, String> {
    let mut fabric = FabricConfig::default();
    if let Some(t) = flags.get("topology") {
        fabric.topology = t
            .parse::<FabricTopology>()
            .map_err(|e| format!("--topology: {e}"))?;
    }
    Ok(fabric)
}

fn cmd_run(flags: HashMap<String, String>) -> ExitCode {
    let get = |k: &str| flags.get(k).map(|s| s.as_str());
    let Some(wname) = get("workload") else {
        eprintln!("error: --workload is required (see `virec-cli list`)");
        return ExitCode::from(2);
    };
    let n: u64 = get("n").map_or(Ok(4096), str::parse).unwrap_or(0);
    let threads: usize = get("threads").map_or(Ok(8), str::parse).unwrap_or(0);
    if n == 0 || threads == 0 {
        eprintln!("error: invalid --n or --threads");
        return ExitCode::from(2);
    }
    let Some(workload) = by_name(wname, n, Layout::for_core(0)) else {
        eprintln!("error: unknown workload {wname:?}; see `virec-cli list`");
        return ExitCode::from(2);
    };
    let default_regs = (threads * workload.active_context_size()).max(12);
    let regs: usize = get("regs")
        .map_or(Ok(default_regs), str::parse)
        .unwrap_or(0);
    if regs == 0 {
        eprintln!("error: invalid --regs");
        return ExitCode::from(2);
    }

    let engine = get("engine").unwrap_or("virec");
    let mut cfg = match engine {
        "virec" => CoreConfig::virec(threads, regs),
        "banked" => CoreConfig::banked(threads),
        "software" => CoreConfig::software(threads),
        "prefetch_full" => CoreConfig::prefetch_full(threads, workload.active_context_size()),
        "prefetch_exact" => CoreConfig::prefetch_exact(threads, workload.active_context_size()),
        "nsf" => CoreConfig::nsf(threads, regs),
        other => {
            eprintln!("error: unknown engine {other:?}");
            return ExitCode::from(2);
        }
    };
    if let Some(p) = get("policy") {
        let Some(p) = parse_policy(p) else {
            eprintln!("error: unknown policy {p:?}");
            return ExitCode::from(2);
        };
        cfg.policy = p;
    }
    if let Some(g) = get("group-evict") {
        cfg.group_evict = g.parse().unwrap_or(1);
    }
    if get("switch-prefetch").is_some() {
        cfg.switch_prefetch = true;
    }
    if let Some(c) = get("max-cycles") {
        let Ok(c) = c.parse() else {
            eprintln!("error: invalid --max-cycles");
            return ExitCode::from(2);
        };
        cfg.max_cycles = c;
    }
    let fabric = match parse_fabric(&flags) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let opts = RunOptions {
        verify: get("no-verify").is_none(),
        fabric,
        ..RunOptions::default()
    };

    let result = if cfg.engine == EngineKind::PrefetchExact {
        try_run_prefetch_exact(
            threads,
            workload.active_context_size(),
            &workload,
            opts.fabric,
            &opts.gate,
        )
    } else {
        try_run_single(cfg, &workload, &opts)
    };
    let result = match result {
        Ok(r) => r,
        Err(e) => {
            // One structured line: machine-greppable kind, then the full
            // error (which carries the diagnostics summary).
            eprintln!("error[{}]: {e}", e.kind());
            return ExitCode::FAILURE;
        }
    };

    println!("workload          : {} (n={n})", workload.name);
    println!(
        "engine            : {engine}, {threads} threads, {regs} regs, policy {:?}",
        cfg.policy
    );
    print!("{}", result.stats.report());
    ExitCode::SUCCESS
}

/// `virec-cli sweep` — a workloads × engines grid on the parallel
/// experiment executor. Tables and JSON are byte-identical for any
/// `--jobs`; a failed cell degrades to a FAILED row without aborting its
/// siblings, but does fail the exit status (for CI smoke use).
fn cmd_sweep(flags: HashMap<String, String>) -> ExitCode {
    let get = |k: &str| flags.get(k).map(|s| s.as_str());
    let n: u64 = get("n").map_or(Ok(1024), str::parse).unwrap_or(0);
    let threads: usize = get("threads").map_or(Ok(8), str::parse).unwrap_or(0);
    let jobs: usize = get("jobs")
        .map_or_else(|| Ok(harness::jobs()), str::parse)
        .unwrap_or(0);
    if n == 0 || threads == 0 || jobs == 0 {
        eprintln!("error: invalid --n, --threads or --jobs");
        return ExitCode::from(2);
    }
    let workloads: Vec<String> = match get("workloads") {
        None => suite_names().iter().map(|s| s.to_string()).collect(),
        Some(list) => {
            let names: Vec<String> = list.split(',').map(str::to_string).collect();
            for name in &names {
                if by_name(name, 64, Layout::for_core(0)).is_none() {
                    eprintln!("error: unknown workload {name:?}; see `virec-cli list`");
                    return ExitCode::from(2);
                }
            }
            names
        }
    };
    let engine_list = get("engines").unwrap_or("banked,virec40,virec80");
    let mut engines = Vec::new();
    for s in engine_list.split(',') {
        let Some(e) = EngineSel::parse(s) else {
            eprintln!("error: unknown sweep engine {s:?} (see usage)");
            return ExitCode::from(2);
        };
        engines.push(e);
    }
    let defaults = RetryPolicy::default();
    let retry = RetryPolicy {
        // `--budget-retries` is the pre-generalization spelling; keep it
        // as an alias so existing scripts stay valid.
        max_retries: get("max-retries")
            .or_else(|| get("budget-retries"))
            .map_or(Ok(defaults.max_retries), str::parse)
            .unwrap_or(u32::MAX),
        budget_factor: get("budget-factor")
            .map_or(Ok(defaults.budget_factor), str::parse)
            .unwrap_or(0),
        scale_cap: get("budget-cap")
            .map_or(Ok(defaults.scale_cap), str::parse)
            .unwrap_or(0),
    };
    if retry.max_retries == u32::MAX || retry.budget_factor == 0 || retry.scale_cap == 0 {
        eprintln!("error: invalid --max-retries, --budget-factor or --budget-cap");
        return ExitCode::from(2);
    }

    // Resume/deadline come from the environment too (VIREC_RESUME,
    // VIREC_DEADLINE_MS, VIREC_INTERRUPT_AFTER); explicit flags win.
    let mut ctl = harness::SweepControl::from_env_and_args();
    if get("resume").is_some() {
        ctl.resume = true;
    }
    if let Some(ms) = get("deadline") {
        let Ok(ms) = ms.parse() else {
            eprintln!("error: invalid --deadline");
            return ExitCode::from(2);
        };
        ctl.deadline_ms = ms;
    }

    let sweep = SuiteSweep {
        name: "sweep".into(),
        workloads,
        engines,
        n,
        threads,
        retry,
    };
    let spec = sweep.spec();
    let start = Instant::now();
    let (drain, abort) = interrupt_tokens();
    let mut exec = Executor::new(jobs)
        .with_interrupts(drain, abort)
        .with_deadline_ms(ctl.deadline_ms);
    if let Some(k) = ctl.interrupt_after {
        exec = exec.with_interrupt_after(k);
    }
    let dir = get("json")
        .map(std::path::PathBuf::from)
        .or_else(harness::results_dir);
    let journal = dir.as_ref().map(|d| JournalConfig {
        dir: d.clone(),
        resume: ctl.resume,
    });
    let res = match exec.run_journaled(&spec, journal.as_ref()) {
        Ok(res) => res,
        Err(e) => {
            eprintln!("[sweep] cell journal unavailable ({e}); running without crash-safety");
            exec.run(&spec)
        }
    };
    eprintln!(
        "[sweep] {} cell(s) on {} worker(s) in {:.2?}",
        spec.len(),
        jobs,
        start.elapsed()
    );
    if res.interrupted {
        eprintln!(
            "[sweep] interrupted: {} cell(s) not run; journal retained — re-run the same \
             command with --resume to pick up where this sweep left off",
            res.skipped()
        );
        return ExitCode::from(130);
    }
    print!("{}", sweep.render(&res));
    if let Some(dir) = dir {
        match res.write_json(&dir) {
            Ok(path) => eprintln!("[sweep] wrote {}", path.display()),
            Err(e) => eprintln!("[sweep] could not write results JSON: {e}"),
        }
    }
    res.print_failures();
    if res.all_ok() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn cmd_campaign(flags: HashMap<String, String>) -> ExitCode {
    let get = |k: &str| flags.get(k).map(|s| s.as_str());
    let wname = get("workload").unwrap_or("gather");
    let n: u64 = get("n").map_or(Ok(1024), str::parse).unwrap_or(0);
    let threads: usize = get("threads").map_or(Ok(4), str::parse).unwrap_or(0);
    let faults: usize = get("faults").map_or(Ok(64), str::parse).unwrap_or(0);
    let seed: u64 = get("seed").map_or(Ok(0xF00D_5EED), str::parse).unwrap_or(0);
    if n == 0 || threads == 0 || faults == 0 || seed == 0 {
        eprintln!("error: invalid --n, --threads, --faults or --seed");
        return ExitCode::from(2);
    }
    let Some(workload) = by_name(wname, n, Layout::for_core(0)) else {
        eprintln!("error: unknown workload {wname:?}; see `virec-cli list`");
        return ExitCode::from(2);
    };
    let regs: usize = get("regs")
        .map_or(
            Ok((threads * workload.active_context_size()).max(12)),
            |s| s.parse(),
        )
        .unwrap_or(0);
    let engine = get("engine").unwrap_or("virec");
    let (cfg, engine_sites) = match engine {
        "virec" => (CoreConfig::virec(threads, regs), &FaultSite::ALL[..]),
        "banked" => (CoreConfig::banked(threads), &FaultSite::NON_VRMU[..]),
        other => {
            eprintln!("error: campaign supports virec|banked, not {other:?}");
            return ExitCode::from(2);
        }
    };
    let fabric = match parse_fabric(&flags) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let mesh = fabric.topology != FabricTopology::Crossbar;
    // --sites narrows the injection surface; sites the chosen engine does
    // not have (VRMU structures on banked) are rejected, not ignored. The
    // transport site exists on any engine — but only when the fabric has
    // links to corrupt.
    let site_exists =
        |s: &FaultSite| engine_sites.contains(s) || (*s == FaultSite::NocLink && mesh);
    let sites: Vec<FaultSite> = match get("sites") {
        None => engine_sites.to_vec(),
        Some(list) => match parse_sites(list) {
            Ok(requested) => {
                if let Some(bad) = requested.iter().find(|s| !site_exists(s)) {
                    if *bad == FaultSite::NocLink {
                        eprintln!(
                            "error: site noc-link needs a mesh fabric \
                             (pass --topology mesh<C>x<R>)"
                        );
                    } else {
                        eprintln!("error: site {bad} does not exist on the {engine} engine");
                    }
                    return ExitCode::from(2);
                }
                requested
            }
            Err(e) => {
                eprintln!("error: --sites: {e}");
                return ExitCode::from(2);
            }
        },
    };
    let protection: ProtectionConfig = match get("protection").unwrap_or("none").parse() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: --protection: {e}");
            return ExitCode::from(2);
        }
    };
    let class: FaultClass = match get("fault-class").unwrap_or("transient").parse() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: --fault-class: {e}");
            return ExitCode::from(2);
        }
    };
    let campaign = CampaignOptions {
        protection,
        multi_fault: get("multi-fault").is_some(),
        // Mid-run recovery only makes sense with a detector in front of it.
        checkpoint_interval: if protection.is_none() {
            0
        } else {
            default_checkpoint_interval()
        },
        class,
        // Persistent defects are only survivable with the RAS layer; a
        // transient campaign keeps the historical no-RAS machine.
        ras: class.is_persistent().then(RasConfig::default),
        fabric,
    };

    // Crashed outcomes unwind through a panic; keep the report as the
    // only output.
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let report = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        run_campaign_with(cfg, &workload, faults, seed, &sites, &campaign)
    }));
    std::panic::set_hook(prev);
    let Ok(report) = report else {
        eprintln!("error[campaign]: the clean reference run failed");
        return ExitCode::FAILURE;
    };
    println!("{}", report.summary());
    if class.is_persistent() {
        println!("{}", report.ras_summary());
    }
    for rec in &report.records {
        match rec.outcome {
            InjectionOutcome::Silent => {
                println!("  SILENT escape: seed {} faults {:?}", rec.seed, rec.faults);
            }
            InjectionOutcome::Detected => {
                println!(
                    "  unrecovered detection: seed {} faults {:?}",
                    rec.seed, rec.faults
                );
            }
            _ => {}
        }
    }
    if !report.all_detected() {
        eprintln!("error[silent_fault]: an effectful fault escaped every checker");
        return ExitCode::FAILURE;
    }
    if !report.all_recovered() {
        eprintln!("error[unrecovered]: a detected injection did not recover on re-execution");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// `virec-cli ras` — one protected run under a seeded persistent-fault
/// plan with the RAS layer on, reporting what the scrubber, CE tracker,
/// and spare pools did. A clean reference run sizes the injection window
/// and provides the digest the degraded machine must still reproduce.
fn cmd_ras(flags: HashMap<String, String>) -> ExitCode {
    let get = |k: &str| flags.get(k).map(|s| s.as_str());
    let wname = get("workload").unwrap_or("gather");
    let n: u64 = get("n").map_or(Ok(1024), str::parse).unwrap_or(0);
    let threads: usize = get("threads").map_or(Ok(4), str::parse).unwrap_or(0);
    let faults: usize = get("faults").map_or(Ok(8), str::parse).unwrap_or(0);
    let seed: u64 = get("seed").map_or(Ok(0xF00D_5EED), str::parse).unwrap_or(0);
    if n == 0 || threads == 0 || faults == 0 || seed == 0 {
        eprintln!("error: invalid --n, --threads, --faults or --seed");
        return ExitCode::from(2);
    }
    let Some(workload) = by_name(wname, n, Layout::for_core(0)) else {
        eprintln!("error: unknown workload {wname:?}; see `virec-cli list`");
        return ExitCode::from(2);
    };
    let regs: usize = get("regs")
        .map_or(
            Ok((threads * workload.active_context_size()).max(12)),
            |s| s.parse(),
        )
        .unwrap_or(0);
    let engine = get("engine").unwrap_or("virec");
    let (cfg, sites) = match engine {
        "virec" => (CoreConfig::virec(threads, regs), &FaultSite::PERMANENT[..]),
        "banked" => (
            CoreConfig::banked(threads),
            &FaultSite::PERMANENT_NON_VRMU[..],
        ),
        other => {
            eprintln!("error: ras supports virec|banked, not {other:?}");
            return ExitCode::from(2);
        }
    };
    let class: FaultClass = match get("fault-class").unwrap_or("stuck-at").parse() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: --fault-class: {e}");
            return ExitCode::from(2);
        }
    };
    if !class.is_persistent() {
        eprintln!("error: the ras demo wants a persistent class (intermittent or stuck-at)");
        return ExitCode::from(2);
    }
    let mut rc = RasConfig::default();
    for (key, slot) in [
        ("scrub-interval", &mut rc.scrub_interval),
        ("ce-leak-interval", &mut rc.ce_leak_interval),
    ] {
        if let Some(v) = flags.get(key) {
            let Ok(v) = v.parse() else {
                eprintln!("error: invalid --{key}");
                return ExitCode::from(2);
            };
            *slot = v;
        }
    }
    for (key, slot) in [
        ("spare-rows", &mut rc.spare_rows),
        ("spare-ways", &mut rc.spare_ways),
        ("ce-threshold", &mut rc.ce_threshold),
    ] {
        if let Some(v) = flags.get(key) {
            let Ok(v) = v.parse() else {
                eprintln!("error: invalid --{key}");
                return ExitCode::from(2);
            };
            *slot = v;
        }
    }
    // RAS needs a detector in front of it: default to SEC-DED.
    let protection: ProtectionConfig = match get("protection").unwrap_or("secded").parse() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: --protection: {e}");
            return ExitCode::from(2);
        }
    };

    let clean = match try_run_single(cfg, &workload, &RunOptions::default()) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error[{}]: clean reference run failed: {e}", e.kind());
            return ExitCode::FAILURE;
        }
    };
    let opts = RunOptions {
        faults: FaultPlan::seeded_class(seed, faults, (0, clean.cycles), sites, class),
        protection,
        checkpoint_interval: default_checkpoint_interval(),
        ras: Some(rc),
        ..RunOptions::default()
    };
    let r = match try_run_single(cfg, &workload, &opts) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error[{}]: {e}", e.kind());
            return ExitCode::FAILURE;
        }
    };

    println!(
        "ras demo          : {} on {wname} (n={n}), {faults} {class} fault(s), seed {seed:#x}",
        engine
    );
    println!(
        "cycles            : clean {} vs ras {} ({:+.1}%)",
        clean.cycles,
        r.cycles,
        100.0 * (r.cycles as f64 / clean.cycles as f64 - 1.0)
    );
    println!("scrub reads       : {}", r.ras.scrub_reads);
    println!("ce observations   : {}", r.ras.ce_observations);
    println!(
        "retirements       : {} predictive, {} demand",
        r.ras.predictive_retirements, r.ras.demand_retirements
    );
    println!(
        "degraded regions  : {} (spares exhausted or unmaskable)",
        r.ras.degraded_regions
    );
    println!("migrated lines    : {}", r.ras.migrated_lines);
    println!("suppressed asserts: {}", r.ras.suppressed_assertions);
    for f in &r.faults_applied {
        println!("  {f}");
    }
    if r.arch_digest != clean.arch_digest {
        eprintln!("error[silent_fault]: degraded run diverged from the clean digest");
        return ExitCode::FAILURE;
    }
    println!(
        "arch digest       : {:#018x} (matches clean run)",
        r.arch_digest
    );
    ExitCode::SUCCESS
}

/// `virec-cli serve` — the fault-tolerant streaming task service: a seeded
/// arrival process dispatched onto a multi-core system through the bounded
/// admission queue, with retry, quarantine/failover, and typed shedding.
/// Exits nonzero when any task is lost, any task resolves twice, or any
/// completed task's state digest disagrees with the golden reference.
fn cmd_serve(flags: HashMap<String, String>) -> ExitCode {
    let get = |k: &str| flags.get(k).map(|s| s.as_str());
    let cores: usize = get("cores").map_or(Ok(4), str::parse).unwrap_or(0);
    let tasks: usize = get("tasks").map_or(Ok(128), str::parse).unwrap_or(0);
    let threads: usize = get("threads").map_or(Ok(4), str::parse).unwrap_or(0);
    let n: u64 = get("n").map_or(Ok(64), str::parse).unwrap_or(0);
    let seed: u64 = get("seed").map_or(Ok(0xF00D_5EED), str::parse).unwrap_or(0);
    if cores == 0 || tasks == 0 || threads == 0 || n == 0 || seed == 0 {
        eprintln!("error: invalid --cores, --tasks, --threads, --n or --seed");
        return ExitCode::from(2);
    }
    let engine = get("engine").unwrap_or("virec");
    let core = match engine {
        "virec" => {
            let ctx = by_name("gather", n, Layout::for_core(0))
                .expect("gather is a suite workload")
                .active_context_size();
            let regs: usize = get("regs")
                .map_or(Ok((threads * ctx).max(12)), str::parse)
                .unwrap_or(0);
            if regs == 0 {
                eprintln!("error: invalid --regs");
                return ExitCode::from(2);
            }
            CoreConfig::virec(threads, regs)
        }
        "banked" => CoreConfig::banked(threads),
        other => {
            eprintln!("error: serve supports virec|banked, not {other:?}");
            return ExitCode::from(2);
        }
    };

    let mut cfg = ServeConfig::streaming(cores, core, tasks, seed);
    cfg.mix = virec::sim::serve::default_mix(n);
    cfg.verify = get("no-verify").is_none();
    match parse_fabric(&flags) {
        Ok(f) => cfg.fabric = f,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    }
    // --rate is in tasks per million cycles; the service wants the mean
    // inter-arrival gap in cycles.
    if let Some(r) = get("rate") {
        let Ok(rate) = r.parse::<f64>() else {
            eprintln!("error: invalid --rate");
            return ExitCode::from(2);
        };
        if rate <= 0.0 {
            eprintln!("error: --rate must be positive");
            return ExitCode::from(2);
        }
        cfg.mean_interarrival = ((1.0e6 / rate) as u64).max(1);
    }
    if let Some(d) = get("queue-depth") {
        cfg.queue_depth = d.parse().unwrap_or(0);
    }
    if let Some(d) = get("deadline") {
        let Ok(d) = d.parse() else {
            eprintln!("error: invalid --deadline");
            return ExitCode::from(2);
        };
        cfg.deadline_cycles = d;
    }
    if let Some(q) = get("quarantine-after") {
        let Ok(q) = q.parse() else {
            eprintln!("error: invalid --quarantine-after");
            return ExitCode::from(2);
        };
        cfg.quarantine_after = q;
    }
    match get("protection").unwrap_or("none").parse() {
        Ok(p) => cfg.protection = p,
        Err(e) => {
            eprintln!("error: --protection: {e}");
            return ExitCode::from(2);
        }
    }
    let transient: usize = get("faults")
        .map_or(Ok(0), str::parse)
        .unwrap_or(usize::MAX);
    let sticky: usize = get("sticky-cores")
        .map_or(Ok(0), str::parse)
        .unwrap_or(usize::MAX);
    let stuck: usize = get("stuck-cores")
        .map_or(Ok(0), str::parse)
        .unwrap_or(usize::MAX);
    let link_faults: usize = get("link-faults")
        .map_or(Ok(0), str::parse)
        .unwrap_or(usize::MAX);
    if transient == usize::MAX
        || sticky == usize::MAX
        || stuck == usize::MAX
        || link_faults == usize::MAX
    {
        eprintln!("error: invalid --faults, --sticky-cores, --stuck-cores or --link-faults");
        return ExitCode::from(2);
    }
    if link_faults > 0 && cfg.fabric.topology == FabricTopology::Crossbar {
        eprintln!("error: --link-faults needs a mesh fabric (pass --topology mesh<C>x<R>)");
        return ExitCode::from(2);
    }
    cfg.faults = ServeFaultPlan::campaign(transient, sticky);
    cfg.faults.stuck_cores = stuck;
    cfg.faults.link_faults = link_faults;
    if stuck > 0 {
        // Stuck-at defects are only survivable with the RAS layer on.
        let mut rc = RasConfig::default();
        if let Some(v) = get("spare-rows") {
            let Ok(v) = v.parse() else {
                eprintln!("error: invalid --spare-rows");
                return ExitCode::from(2);
            };
            rc.spare_rows = v;
        }
        cfg.ras = Some(rc);
    }

    let report = match run_service(cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error[{}]: {e}", e.kind());
            return ExitCode::FAILURE;
        }
    };
    println!("{}", report.summary());
    if let Some(f) = &report.last_failure {
        eprintln!("[serve] last attempt failure: {f}");
    }
    if report.lost > 0 || report.duplicated > 0 || report.silent_corruptions > 0 {
        eprintln!(
            "error[accounting]: lost={} duplicated={} silent_corruptions={}",
            report.lost, report.duplicated, report.silent_corruptions
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// `virec-cli noc` — the mesh-NoC resilience demo, four legs on one mesh:
/// a transient `noc-link` campaign (every wire upset CRC-caught and
/// retransmitted), a stuck-at campaign (the RAS layer predictively retires
/// the flaky link and routes around it), one instrumented single run
/// reporting the fabric's transport counters, and a faulty serve run whose
/// link loss shows up in availability while no task is lost.
fn cmd_noc(flags: HashMap<String, String>) -> ExitCode {
    let get = |k: &str| flags.get(k).map(|s| s.as_str());
    let wname = get("workload").unwrap_or("gather");
    let n: u64 = get("n").map_or(Ok(512), str::parse).unwrap_or(0);
    let threads: usize = get("threads").map_or(Ok(4), str::parse).unwrap_or(0);
    let faults: usize = get("faults").map_or(Ok(32), str::parse).unwrap_or(0);
    let seed: u64 = get("seed").map_or(Ok(0xF00D_5EED), str::parse).unwrap_or(0);
    if n == 0 || threads == 0 || faults == 0 || seed == 0 {
        eprintln!("error: invalid --n, --threads, --faults or --seed");
        return ExitCode::from(2);
    }
    let Some(workload) = by_name(wname, n, Layout::for_core(0)) else {
        eprintln!("error: unknown workload {wname:?}; see `virec-cli list`");
        return ExitCode::from(2);
    };
    let mut fabric = match parse_fabric(&flags) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    if fabric.topology == FabricTopology::Crossbar {
        fabric.topology = FabricTopology::Mesh { cols: 2, rows: 2 };
    }
    let regs = (threads * workload.active_context_size()).max(12);
    let cfg = CoreConfig::virec(threads, regs);
    let sites = [FaultSite::NocLink];
    println!(
        "noc demo          : virec on {wname} (n={n}), {} fabric, seed {seed:#x}",
        fabric.topology
    );

    // Leg 1 — transient wire upsets: the per-hop CRC catches every one and
    // the retransmission delivers a clean flit; no checker ever fires.
    let transient = CampaignOptions {
        fabric,
        ..CampaignOptions::default()
    };
    let report = run_campaign_with(cfg, &workload, faults, seed, &sites, &transient);
    println!("{}", report.summary());
    if !report.all_detected() || !report.all_recovered() {
        eprintln!("error[noc]: a transient link upset escaped the CRC layer");
        return ExitCode::FAILURE;
    }

    // Leg 2 — stuck-at links under the full RAS stack: the CE leaky bucket
    // retires the marginal link before it can do worse.
    let stuck = CampaignOptions {
        class: FaultClass::StuckAt {
            period: FaultClass::DEFAULT_PERIOD,
        },
        ras: Some(RasConfig::default()),
        fabric,
        ..CampaignOptions::protected()
    };
    let report = run_campaign_with(cfg, &workload, faults, seed, &sites, &stuck);
    println!("{}", report.summary());
    println!("{}", report.ras_summary());
    if !report.all_detected() || !report.all_recovered() {
        eprintln!("error[noc]: a stuck-at link fault was not contained");
        return ExitCode::FAILURE;
    }

    // Leg 3 — one instrumented run: hammer the first mesh link with a
    // stuck-at defect and report exactly what the transport layer did.
    let clean_opts = RunOptions {
        fabric,
        ..RunOptions::default()
    };
    let clean = match try_run_single(cfg, &workload, &clean_opts) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error[{}]: clean reference run failed: {e}", e.kind());
            return ExitCode::FAILURE;
        }
    };
    let opts = RunOptions {
        faults: FaultPlan::single(virec::sim::FaultEvent {
            cycle: (clean.cycles / 4).max(1),
            site: FaultSite::NocLink,
            index: 0,
            bit: 0,
            class: FaultClass::StuckAt { period: 200 },
        }),
        protection: ProtectionConfig::secded(),
        checkpoint_interval: default_checkpoint_interval(),
        ras: Some(RasConfig::default()),
        fabric,
        ..RunOptions::default()
    };
    let r = match try_run_single(cfg, &workload, &opts) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error[{}]: {e}", e.kind());
            return ExitCode::FAILURE;
        }
    };
    println!(
        "noc: hops={} crc_detected={} retransmissions={} links_retired={} links_fenced={}",
        r.fabric.noc_hops,
        r.fabric.noc_crc_detected,
        r.fabric.noc_retransmissions,
        r.fabric.noc_links_retired,
        r.fabric.noc_links_fenced,
    );
    for f in &r.faults_applied {
        println!("  {f}");
    }
    if r.arch_digest != clean.arch_digest {
        eprintln!("error[silent_fault]: the degraded mesh diverged from the clean digest");
        return ExitCode::FAILURE;
    }
    println!(
        "arch digest       : {:#018x} (matches clean run)",
        r.arch_digest
    );

    // Leg 4 — the streaming service on the same mesh under a link-wear
    // campaign: capacity shrinks with the lost links, accounting stays
    // exact.
    let mut scfg = ServeConfig::streaming(4, CoreConfig::banked(2), 32, seed);
    scfg.mix = virec::sim::serve::default_mix(n.min(64));
    scfg.fabric = fabric;
    scfg.faults = ServeFaultPlan::links(9);
    scfg.ras = Some(RasConfig::default());
    let report = match run_service(scfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error[{}]: {e}", e.kind());
            return ExitCode::FAILURE;
        }
    };
    println!("{}", report.summary());
    if report.lost > 0 || report.duplicated > 0 || report.silent_corruptions > 0 {
        eprintln!(
            "error[accounting]: lost={} duplicated={} silent_corruptions={}",
            report.lost, report.duplicated, report.silent_corruptions
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// `virec-cli lint` — the static-analysis gate: every built-in workload
/// kernel and every `virec-cc` output at every register budget must lint
/// clean. `--broken-fixture` lints a deliberately malformed program instead
/// (the CI negative control: it must exit nonzero with a stable
/// diagnostic).
fn cmd_lint(flags: HashMap<String, String>) -> ExitCode {
    let get = |k: &str| flags.get(k).map(|s| s.as_str());
    if get("broken-fixture").is_some() {
        let diags = lint_program(&broken_fixture(), &LintConfig::default());
        for d in &diags {
            println!("broken-fixture: {d}");
        }
        if diags.is_empty() {
            eprintln!("error: the broken fixture linted clean — the gate is not catching bugs");
        }
        // Nonzero either way: with diagnostics (the designed outcome) so
        // CI can assert the gate rejects malformed programs, and without
        // them because a gate that passes its negative control is broken.
        return ExitCode::FAILURE;
    }

    let n: u64 = get("n").map_or(Ok(256), str::parse).unwrap_or(0);
    if n == 0 {
        eprintln!("error: invalid --n");
        return ExitCode::from(2);
    }
    let lints = lint_everything(n);
    let mut dirty = 0usize;
    for l in &lints {
        if l.is_clean() {
            println!("lint: {:<22} clean", l.name);
        } else {
            dirty += 1;
            for d in &l.diagnostics {
                println!("lint: {:<22} {d}", l.name);
            }
        }
    }
    println!(
        "lint: {} program(s), {} with diagnostics",
        lints.len(),
        dirty
    );
    if dirty == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn cmd_tv(flags: HashMap<String, String>) -> ExitCode {
    if flags.contains_key("broken-fixture") {
        let r = broken_spill_report();
        for v in &r.violations {
            println!("broken-fixture: {v}");
        }
        if r.is_valid() {
            eprintln!(
                "error: the broken spill fixture validated clean — the gate is not \
                 catching miscompiles"
            );
        }
        // Nonzero either way, mirroring `lint --broken-fixture`.
        return ExitCode::FAILURE;
    }

    let reports = tv_compiled_budgets();
    let mut bad = 0usize;
    for r in &reports {
        if r.is_valid() {
            println!(
                "tv: {:<28} validated ({} concrete case(s))",
                r.name, r.cases_run
            );
        } else {
            bad += 1;
            for v in &r.violations {
                println!("tv: {:<28} {v}", r.name);
            }
        }
    }
    println!("tv: {} program(s), {} with violations", reports.len(), bad);
    if bad == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn cmd_tune(flags: HashMap<String, String>) -> ExitCode {
    let get = |k: &str| flags.get(k).map(|s| s.as_str());
    let mut cfg = TuneConfig::default();
    if let Some(s) = get("n") {
        match s.parse() {
            Ok(n) if n > 0 => cfg.n = n,
            _ => {
                eprintln!("error: invalid --n");
                return ExitCode::from(2);
            }
        }
    }
    if let Some(s) = get("threads") {
        match s.parse() {
            Ok(t) if t > 0 => cfg.nthreads = t,
            _ => {
                eprintln!("error: invalid --threads");
                return ExitCode::from(2);
            }
        }
    }
    match get("strategy") {
        None | Some("graph") => cfg.strategy = AllocStrategy::GraphColor,
        Some("linear") => cfg.strategy = AllocStrategy::LinearScan,
        Some(s) => {
            eprintln!("error: unknown strategy {s:?} (graph|linear)");
            return ExitCode::from(2);
        }
    }
    let parse_list = |s: &str| -> Result<Vec<usize>, String> {
        s.split(',')
            .map(|p| p.trim().parse::<usize>().map_err(|_| p.to_string()))
            .collect::<Result<_, _>>()
            .map_err(|p| format!("invalid list element {p:?}"))
    };
    if let Some(s) = get("budgets") {
        match parse_list(s) {
            Ok(b) if !b.is_empty() => cfg.budgets = b,
            _ => {
                eprintln!("error: invalid --budgets");
                return ExitCode::from(2);
            }
        }
    }
    if let Some(s) = get("capacities") {
        match parse_list(s) {
            Ok(c) if !c.is_empty() => cfg.capacities = c,
            _ => {
                eprintln!("error: invalid --capacities");
                return ExitCode::from(2);
            }
        }
    }
    // Surface out-of-range budgets as the allocator's typed diagnostic
    // instead of a panic deep inside the sweep.
    for &b in &cfg.budgets {
        if let Err(e) = regalloc::pool(b) {
            eprintln!("error[alloc]: {e}");
            return ExitCode::from(2);
        }
    }

    let points = tune_sweep(&cfg);
    if points.is_empty() {
        eprintln!("error: no sweep point completed (capacities too small?)");
        return ExitCode::FAILURE;
    }
    println!(
        "tune: {} point(s) over budgets {:?} x capacities {:?} (strategy={}, n={}, threads={})",
        points.len(),
        cfg.budgets,
        cfg.capacities,
        cfg.strategy.name(),
        cfg.n,
        cfg.nthreads
    );
    for p in &points {
        println!(
            "tune: budget={:<2} capacity={:<3} cycles={:<9} area_mm2={:.4} spilled={} \
             spill_loads={} spill_stores={} ipc={:.3}",
            p.budget,
            p.capacity,
            p.cycles,
            p.area_mm2,
            p.spilled,
            p.spill_loads,
            p.spill_stores,
            p.ipc
        );
    }
    println!();
    for p in pareto_front(&points) {
        println!(
            "pareto: budget={} capacity={} cycles={} area_mm2={:.4} spill_loads={}",
            p.budget, p.capacity, p.cycles, p.area_mm2, p.spill_loads
        );
    }
    if let Some(s) = get("area-budget") {
        let Ok(envelope) = s.parse::<f64>() else {
            eprintln!("error: invalid --area-budget");
            return ExitCode::from(2);
        };
        match pick_for_area(&points, envelope) {
            Some(p) => println!(
                "pick: area envelope {envelope:.4} mm2 -> budget={} capacity={} \
                 ({} cycles, {:.4} mm2)",
                p.budget, p.capacity, p.cycles, p.area_mm2
            ),
            None => {
                eprintln!("error: no point fits the {envelope:.4} mm2 envelope");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

fn cmd_area(flags: HashMap<String, String>) -> ExitCode {
    let threads: usize = flags
        .get("threads")
        .map_or(Ok(8), |s| s.parse())
        .unwrap_or(8);
    let regs: usize = flags
        .get("regs")
        .map_or(Ok(64), |s| s.parse())
        .unwrap_or(64);
    let m = AreaModel::default();
    println!("area model (45 nm):");
    println!("  base core          : {:.3} mm²", m.base_core_mm2);
    println!(
        "  banked, {threads} banks     : {:.3} mm²",
        m.banked_core(threads)
    );
    println!(
        "  virec, {regs} regs      : {:.3} mm²  (RF {:.3} + tag {:.3} + logic {:.3})",
        m.virec_core(regs),
        m.rf_area(regs),
        m.tag_store_area(regs),
        m.vrmu_logic_area(regs)
    );
    println!(
        "  savings vs banked  : {:.1}%",
        100.0 * (1.0 - m.virec_core(regs) / m.banked_core(threads))
    );
    println!(
        "  RF delay           : virec {:.3} ns, banked {:.3} ns",
        m.virec_rf_delay(regs),
        m.banked_rf_delay(threads)
    );
    let e = virec::area::EccAreaModel::default();
    let r = virec::area::RasAreaModel::default();
    println!(
        "protected + RAS (secded, {} spare rows, {} spare ways, scrubber):",
        r.spare_rows, r.spare_ways
    );
    println!(
        "  virec ras bill     : {:.4} mm²  (spare ways {:.4} + remap {:.4} + scrub {:.4} + CE {:.4})",
        r.virec_overhead(&m, regs).total_mm2(),
        r.virec_overhead(&m, regs).spare_way_mm2,
        r.virec_overhead(&m, regs).remap_mm2,
        r.virec_overhead(&m, regs).scrubber_mm2,
        r.virec_overhead(&m, regs).trackers_mm2,
    );
    println!(
        "  banked ras bill    : {:.4} mm²",
        r.banked_overhead(&m, threads).total_mm2()
    );
    println!(
        "  savings vs banked  : {:.1}%  (both designs with ECC + RAS)",
        100.0 * (1.0 - r.virec_core(&m, &e, regs) / r.banked_core(&m, &e, threads))
    );
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        return usage();
    };
    match cmd.as_str() {
        "list" => {
            println!("available workloads:");
            for name in suite_names() {
                let w = by_name(name, 64, Layout::for_core(0)).expect("suite entry");
                println!(
                    "  {name:<15} active context = {:>2} registers, {} static instrs",
                    w.active_context_size(),
                    w.program().len()
                );
            }
            ExitCode::SUCCESS
        }
        "run" => match parse_flags(&args[1..]) {
            Ok(flags) => cmd_run(flags),
            Err(e) => {
                eprintln!("error: {e}");
                usage()
            }
        },
        "sweep" => match parse_flags(&args[1..]) {
            Ok(flags) => cmd_sweep(flags),
            Err(e) => {
                eprintln!("error: {e}");
                usage()
            }
        },
        "campaign" => match parse_flags(&args[1..]) {
            Ok(flags) => cmd_campaign(flags),
            Err(e) => {
                eprintln!("error: {e}");
                usage()
            }
        },
        "ras" => match parse_flags(&args[1..]) {
            Ok(flags) => cmd_ras(flags),
            Err(e) => {
                eprintln!("error: {e}");
                usage()
            }
        },
        "serve" => match parse_flags(&args[1..]) {
            Ok(flags) => cmd_serve(flags),
            Err(e) => {
                eprintln!("error: {e}");
                usage()
            }
        },
        "noc" => match parse_flags(&args[1..]) {
            Ok(flags) => cmd_noc(flags),
            Err(e) => {
                eprintln!("error: {e}");
                usage()
            }
        },
        "lint" => match parse_flags(&args[1..]) {
            Ok(flags) => cmd_lint(flags),
            Err(e) => {
                eprintln!("error: {e}");
                usage()
            }
        },
        "tv" => match parse_flags(&args[1..]) {
            Ok(flags) => cmd_tv(flags),
            Err(e) => {
                eprintln!("error: {e}");
                usage()
            }
        },
        "tune" => match parse_flags(&args[1..]) {
            Ok(flags) => cmd_tune(flags),
            Err(e) => {
                eprintln!("error: {e}");
                usage()
            }
        },
        "area" => match parse_flags(&args[1..]) {
            Ok(flags) => cmd_area(flags),
            Err(e) => {
                eprintln!("error: {e}");
                usage()
            }
        },
        _ => usage(),
    }
}
