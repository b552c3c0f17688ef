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
use std::fmt::Display;
use std::num::{NonZeroU64, NonZeroUsize};
use std::process::ExitCode;
use std::str::FromStr;
use std::time::Instant;
use virec::area::AreaModel;
use virec::bench::harness::{self, EngineSel, SuiteSweep};
use virec::bench::tune::{pareto_front, pick_for_area, tune_sweep, TuneConfig};
use virec::cc::{regalloc, AllocStrategy};
use virec::core::{CoreConfig, EngineKind};
use virec::mem::{FabricConfig, FabricTopology};
use virec::sim::experiment::{Executor, RetryPolicy};
use virec::sim::runner::default_checkpoint_interval;
use virec::sim::runner::{try_run_prefetch_exact, try_run_single, RunOptions};
use virec::sim::serve::default_mix;
use virec::sim::{
    interrupt_tokens, parse_sites, run_campaign_with, run_service, CampaignOptions, FaultClass,
    FaultPlan, FaultSite, InjectionOutcome, JournalConfig, ProtectionConfig, RasConfig,
    ServeConfig, ServeFaultPlan, SimError,
};
use virec::verify::{
    broken_fixture, broken_spill_report, lint_everything, lint_program, tv_compiled_budgets,
    LintConfig,
};
use virec::workloads::{by_name, suite_names, Layout, Workload};

const USAGE: &str = "virec-cli — ViReC near-memory multithreading simulator

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
                       (--budget-retries <k> is an alias of --max-retries)
    virec-cli campaign [--workload <name>] [--n <elems>] [--engine virec|banked]
                       [--threads <t>] [--regs <r>] [--faults <k>] [--seed <s>]
                       [--protection none|parity|secded] [--multi-fault]
                       [--sites <s1,s2,..>] [--topology crossbar|mesh<C>x<R>]
                       [--fault-class transient|intermittent|stuck-at]
    virec-cli ras      [--workload <name>] [--n <elems>] [--engine virec|banked]
                       [--threads <t>] [--regs <r>] [--faults <k>] [--seed <s>]
                       [--fault-class intermittent|stuck-at]
                       [--scrub-interval <c>] [--ce-leak-interval <c>]
                       [--spare-rows <k>] [--spare-ways <k>]
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
cells and execute only the remainder.

A flag the subcommand does not list is rejected. EXIT STATUS: 0 success,
1 simulation or accounting failure, 2 usage or config error, 130
interrupted sweep.";

/// One subcommand: the flags it declares and the function that runs it.
struct Command {
    name: &'static str,
    /// Space-separated flags that take a value.
    values: &'static str,
    /// Space-separated flags that take none.
    switches: &'static str,
    run: fn(&Flags) -> Result<ExitCode, String>,
}

const COMMANDS: [Command; 11] = [
    Command {
        name: "list",
        values: "",
        switches: "",
        run: cmd_list,
    },
    Command {
        name: "run",
        values: "workload n engine threads regs policy group-evict max-cycles topology",
        switches: "no-verify switch-prefetch",
        run: cmd_run,
    },
    Command {
        name: "sweep",
        values: "jobs workloads n threads engines json max-retries budget-retries \
                 budget-factor budget-cap deadline",
        switches: "resume",
        run: cmd_sweep,
    },
    Command {
        name: "campaign",
        values: "workload n engine threads regs faults seed protection sites topology fault-class",
        switches: "multi-fault",
        run: cmd_campaign,
    },
    Command {
        name: "ras",
        values: "workload n engine threads regs faults seed fault-class scrub-interval \
                 ce-leak-interval spare-rows spare-ways ce-threshold protection",
        switches: "",
        run: cmd_ras,
    },
    Command {
        name: "serve",
        values: "cores tasks rate engine threads regs n queue-depth deadline quarantine-after \
                 protection faults sticky-cores stuck-cores spare-rows seed topology link-faults",
        switches: "no-verify",
        run: cmd_serve,
    },
    Command {
        name: "noc",
        values: "workload n threads faults seed topology",
        switches: "",
        run: cmd_noc,
    },
    Command {
        name: "lint",
        values: "n",
        switches: "broken-fixture",
        run: cmd_lint,
    },
    Command {
        name: "tv",
        values: "",
        switches: "broken-fixture",
        run: cmd_tv,
    },
    Command {
        name: "tune",
        values: "n threads strategy budgets capacities area-budget",
        switches: "",
        run: cmd_tune,
    },
    Command {
        name: "area",
        values: "threads regs",
        switches: "",
        run: cmd_area,
    },
];

/// A subcommand's flags, parsed against its declarations.
struct Flags {
    values: HashMap<&'static str, String>,
    switches: Vec<&'static str>,
}

impl Flags {
    /// Parses `args` for `cmd`: a stray argument, an undeclared flag, or a
    /// value flag without its value is a usage error.
    fn parse(cmd: &Command, args: &[String]) -> Result<Flags, String> {
        let mut flags = Flags {
            values: HashMap::new(),
            switches: Vec::new(),
        };
        let mut args = args.iter();
        while let Some(arg) = args.next() {
            let Some(key) = arg.strip_prefix("--") else {
                return Err(format!("error: unexpected argument {arg:?}"));
            };
            if let Some(key) = cmd.switches.split_whitespace().find(|&s| s == key) {
                flags.switches.push(key);
            } else if let Some(key) = cmd.values.split_whitespace().find(|&v| v == key) {
                let value = args
                    .next()
                    .ok_or_else(|| format!("error: --{key} needs a value"))?;
                flags.values.insert(key, value.clone());
            } else {
                let declared: Vec<String> = cmd
                    .values
                    .split_whitespace()
                    .chain(cmd.switches.split_whitespace())
                    .map(|f| format!("--{f}"))
                    .collect();
                return Err(format!(
                    "error: unknown flag --{key} for `virec-cli {}`; accepted flags: [{}]",
                    cmd.name,
                    declared.join(" ")
                ));
            }
        }
        Ok(flags)
    }

    /// Whether switch `--key` was given.
    fn on(&self, key: &str) -> bool {
        self.switches.contains(&key)
    }

    /// The raw value of `--key`.
    fn str(&self, key: &str) -> Option<&str> {
        self.values.get(key).map(String::as_str)
    }

    /// `--key` parsed as `T` (`None` when absent); a value that does not
    /// parse is a usage error naming the flag.
    fn get<T: FromStr>(&self, key: &str) -> Result<Option<T>, String>
    where
        T::Err: Display,
    {
        self.str(key)
            .map(|s| s.parse().map_err(|e| format!("error: --{key} {s:?}: {e}")))
            .transpose()
    }

    /// `--key` parsed as `T`, or `default` when absent.
    fn or<T: FromStr>(&self, key: &str, default: T) -> Result<T, String>
    where
        T::Err: Display,
    {
        Ok(self.get(key)?.unwrap_or(default))
    }
}

/// A comma-separated list flag (`--budgets 2,8`).
struct List(Vec<usize>);

impl FromStr for List {
    type Err = std::num::ParseIntError;

    fn from_str(s: &str) -> Result<List, Self::Err> {
        s.split(',')
            .map(|p| p.trim().parse())
            .collect::<Result<_, _>>()
            .map(List)
    }
}

/// The workload and core shape `run`, `campaign`, `ras`, `serve` and `noc`
/// share: `--workload`, `--n`, `--threads`, `--regs` and `--seed`.
struct Target {
    workload: Workload,
    n: u64,
    threads: usize,
    /// Defaults to every thread's whole active context, and at least the
    /// 12-entry in-flight window.
    regs: usize,
    seed: u64,
}

impl Target {
    /// Reads the shared flags; `--workload` is required when `workload`
    /// names no default.
    fn parse(f: &Flags, workload: Option<&str>, n: u64, threads: usize) -> Result<Target, String> {
        let name = f
            .str("workload")
            .or(workload)
            .ok_or_else(|| "error: --workload is required (see `virec-cli list`)".to_string())?;
        let n = f.get("n")?.map_or(n, NonZeroU64::get);
        let threads = f.get("threads")?.map_or(threads, NonZeroUsize::get);
        let workload = by_name(name, n, Layout::for_core(0))
            .ok_or_else(|| format!("error: unknown workload {name:?}; see `virec-cli list`"))?;
        let full_context = threads.saturating_mul(workload.active_context_size());
        Ok(Target {
            regs: f.or("regs", full_context.max(12))?,
            seed: f.get("seed")?.map_or(0xF00D_5EED, NonZeroU64::get),
            workload,
            n,
            threads,
        })
    }
}

/// `--topology`, defaulting to the crossbar.
fn fabric(f: &Flags) -> Result<FabricConfig, String> {
    Ok(FabricConfig {
        topology: f.or("topology", FabricTopology::Crossbar)?,
        ..FabricConfig::default()
    })
}

/// A configuration the library rejected, reported like a usage error.
fn config_error(e: impl Display) -> String {
    format!("error[config]: {e}")
}

/// Reports a failed run: a rejected configuration is a usage error (exit
/// 2, through `main`); anything else failed the simulation (exit 1).
fn run_failed(e: SimError, context: &str) -> Result<ExitCode, String> {
    if e.kind() == "config" {
        return Err(config_error(e));
    }
    // One structured line: machine-greppable kind, then the full error
    // (which carries the diagnostics summary).
    eprintln!("error[{}]: {context}{e}", e.kind());
    Ok(ExitCode::FAILURE)
}

fn cmd_list(_: &Flags) -> Result<ExitCode, String> {
    println!("available workloads:");
    for name in suite_names() {
        let w = by_name(name, 64, Layout::for_core(0)).expect("suite entry");
        println!(
            "  {name:<15} active context = {:>2} registers, {} static instrs",
            w.active_context_size(),
            w.program().len()
        );
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_run(f: &Flags) -> Result<ExitCode, String> {
    let t = Target::parse(f, None, 4096, 8)?;
    let ctx = t.workload.active_context_size();
    let engine = f.str("engine").unwrap_or("virec");
    let mut cfg = match engine {
        "virec" => CoreConfig::virec(t.threads, t.regs),
        "banked" => CoreConfig::banked(t.threads),
        "software" => CoreConfig::software(t.threads),
        "prefetch_full" => CoreConfig::prefetch_full(t.threads, ctx),
        "prefetch_exact" => CoreConfig::prefetch_exact(t.threads, ctx),
        "nsf" => CoreConfig::nsf(t.threads, t.regs),
        other => return Err(format!("error: unknown engine {other:?}")),
    };
    cfg.policy = f.or("policy", cfg.policy)?;
    cfg.group_evict = f.or("group-evict", cfg.group_evict)?;
    cfg.switch_prefetch = f.on("switch-prefetch");
    cfg.max_cycles = f.or("max-cycles", cfg.max_cycles)?;
    let opts = RunOptions {
        verify: !f.on("no-verify"),
        fabric: fabric(f)?,
        ..RunOptions::default()
    };

    let result = if cfg.engine == EngineKind::PrefetchExact {
        try_run_prefetch_exact(t.threads, ctx, &t.workload, opts.fabric, &opts.gate)
    } else {
        try_run_single(cfg, &t.workload, &opts)
    };
    let result = match result {
        Ok(r) => r,
        Err(e) => return run_failed(e, ""),
    };

    println!("workload          : {} (n={})", t.workload.name, t.n);
    println!(
        "engine            : {engine}, {} threads, {} regs, policy {:?}",
        t.threads, t.regs, cfg.policy
    );
    print!("{}", result.stats.report());
    Ok(ExitCode::SUCCESS)
}

/// `virec-cli sweep` — a workloads × engines grid on the parallel
/// experiment executor. Tables and JSON are byte-identical for any
/// `--jobs`; a failed cell degrades to a FAILED row without aborting its
/// siblings, but does fail the exit status (for CI smoke use).
fn cmd_sweep(f: &Flags) -> Result<ExitCode, String> {
    let n = f.get("n")?.map_or(1024, NonZeroU64::get);
    let threads = f.get("threads")?.map_or(8, NonZeroUsize::get);
    let jobs = f.get("jobs")?.map_or_else(harness::jobs, NonZeroUsize::get);
    let workloads: Vec<String> = match f.str("workloads") {
        None => suite_names().iter().map(|s| s.to_string()).collect(),
        Some(list) => list
            .split(',')
            .map(|name| match by_name(name, 64, Layout::for_core(0)) {
                Some(_) => Ok(name.to_string()),
                None => Err(format!(
                    "error: unknown workload {name:?}; see `virec-cli list`"
                )),
            })
            .collect::<Result<_, _>>()?,
    };
    let engines = f
        .str("engines")
        .unwrap_or("banked,virec40,virec80")
        .split(',')
        .map(|s| {
            EngineSel::parse(s)
                .ok_or_else(|| format!("error: unknown sweep engine {s:?} (see usage)"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let defaults = RetryPolicy::default();
    let retry = RetryPolicy {
        // `--budget-retries` is the pre-generalization spelling; keep it
        // as an alias so existing scripts stay valid.
        max_retries: f.or("max-retries", f.or("budget-retries", defaults.max_retries)?)?,
        budget_factor: f
            .get("budget-factor")?
            .map_or(defaults.budget_factor, NonZeroU64::get),
        scale_cap: f
            .get("budget-cap")?
            .map_or(defaults.scale_cap, NonZeroU64::get),
    };

    // Resume/deadline come from the environment too (VIREC_RESUME,
    // VIREC_DEADLINE_MS, VIREC_INTERRUPT_AFTER); explicit flags win.
    let mut ctl = harness::SweepControl::from_env();
    ctl.resume |= f.on("resume");
    ctl.deadline_ms = f.or("deadline", ctl.deadline_ms)?;

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
    let dir = f
        .str("json")
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
        return Ok(ExitCode::from(130));
    }
    print!("{}", sweep.render(&res));
    if let Some(dir) = dir {
        match res.write_json(&dir) {
            Ok(path) => eprintln!("[sweep] wrote {}", path.display()),
            Err(e) => eprintln!("[sweep] could not write results JSON: {e}"),
        }
    }
    res.print_failures();
    Ok(if res.all_ok() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn cmd_campaign(f: &Flags) -> Result<ExitCode, String> {
    let t = Target::parse(f, Some("gather"), 1024, 4)?;
    let faults = f.get("faults")?.map_or(64, NonZeroUsize::get);
    let engine = f.str("engine").unwrap_or("virec");
    let (cfg, engine_sites) = match engine {
        "virec" => (CoreConfig::virec(t.threads, t.regs), &FaultSite::ALL[..]),
        "banked" => (CoreConfig::banked(t.threads), &FaultSite::NON_VRMU[..]),
        other => {
            return Err(format!(
                "error: campaign supports virec|banked, not {other:?}"
            ))
        }
    };
    cfg.validate().map_err(config_error)?;
    let fabric = fabric(f)?;
    let mesh = fabric.topology != FabricTopology::Crossbar;
    // --sites narrows the injection surface; sites the chosen engine does
    // not have (VRMU structures on banked) are rejected, not ignored. The
    // transport site exists on any engine — but only when the fabric has
    // links to corrupt.
    let site_exists =
        |s: &FaultSite| engine_sites.contains(s) || (*s == FaultSite::NocLink && mesh);
    let sites: Vec<FaultSite> = match f.str("sites") {
        None => engine_sites.to_vec(),
        Some(list) => {
            let requested = parse_sites(list).map_err(|e| format!("error: --sites: {e}"))?;
            match requested.iter().find(|s| !site_exists(s)) {
                Some(FaultSite::NocLink) => {
                    return Err("error: site noc-link needs a mesh fabric \
                                (pass --topology mesh<C>x<R>)"
                        .into())
                }
                Some(bad) => {
                    return Err(format!(
                        "error: site {bad} does not exist on the {engine} engine"
                    ))
                }
                None => requested,
            }
        }
    };
    let protection = f.or("protection", ProtectionConfig::none())?;
    let class = f.or("fault-class", FaultClass::Transient)?;
    let campaign = CampaignOptions {
        protection,
        multi_fault: f.on("multi-fault"),
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
        run_campaign_with(cfg, &t.workload, faults, t.seed, &sites, &campaign)
    }));
    std::panic::set_hook(prev);
    let Ok(report) = report else {
        eprintln!("error[campaign]: the clean reference run failed");
        return Ok(ExitCode::FAILURE);
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
        return Ok(ExitCode::FAILURE);
    }
    if !report.all_recovered() {
        eprintln!("error[unrecovered]: a detected injection did not recover on re-execution");
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}

/// `virec-cli ras` — one protected run under a seeded persistent-fault
/// plan with the RAS layer on, reporting what the scrubber, CE tracker,
/// and spare pools did. A clean reference run sizes the injection window
/// and provides the digest the degraded machine must still reproduce.
fn cmd_ras(f: &Flags) -> Result<ExitCode, String> {
    let t = Target::parse(f, Some("gather"), 1024, 4)?;
    let faults = f.get("faults")?.map_or(8, NonZeroUsize::get);
    let engine = f.str("engine").unwrap_or("virec");
    let (cfg, sites) = match engine {
        "virec" => (
            CoreConfig::virec(t.threads, t.regs),
            &FaultSite::PERMANENT[..],
        ),
        "banked" => (
            CoreConfig::banked(t.threads),
            &FaultSite::PERMANENT_NON_VRMU[..],
        ),
        other => return Err(format!("error: ras supports virec|banked, not {other:?}")),
    };
    let class = f.or(
        "fault-class",
        FaultClass::StuckAt {
            period: FaultClass::DEFAULT_PERIOD,
        },
    )?;
    if !class.is_persistent() {
        return Err(
            "error: the ras demo wants a persistent class (intermittent or stuck-at)".into(),
        );
    }
    let d = RasConfig::default();
    let rc = RasConfig {
        scrub_interval: f.or("scrub-interval", d.scrub_interval)?,
        ce_leak_interval: f.or("ce-leak-interval", d.ce_leak_interval)?,
        spare_rows: f.or("spare-rows", d.spare_rows)?,
        spare_ways: f.or("spare-ways", d.spare_ways)?,
        ce_threshold: f.or("ce-threshold", d.ce_threshold)?,
        ..d
    };
    // RAS needs a detector in front of it: default to SEC-DED.
    let protection = f.or("protection", ProtectionConfig::secded())?;

    let clean = match try_run_single(cfg, &t.workload, &RunOptions::default()) {
        Ok(r) => r,
        Err(e) => return run_failed(e, "clean reference run failed: "),
    };
    let opts = RunOptions {
        faults: FaultPlan::seeded_class(t.seed, faults, (0, clean.cycles), sites, class),
        protection,
        checkpoint_interval: default_checkpoint_interval(),
        ras: Some(rc),
        ..RunOptions::default()
    };
    let r = match try_run_single(cfg, &t.workload, &opts) {
        Ok(r) => r,
        Err(e) => return run_failed(e, ""),
    };

    println!(
        "ras demo          : {engine} on {} (n={}), {faults} {class} fault(s), seed {:#x}",
        t.workload.name, t.n, t.seed
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
        return Ok(ExitCode::FAILURE);
    }
    println!(
        "arch digest       : {:#018x} (matches clean run)",
        r.arch_digest
    );
    Ok(ExitCode::SUCCESS)
}

/// `virec-cli serve` — the fault-tolerant streaming task service: a seeded
/// arrival process dispatched onto a multi-core system through the bounded
/// admission queue, with retry, quarantine/failover, and typed shedding.
/// Exits nonzero when any task is lost, any task resolves twice, or any
/// completed task's state digest disagrees with the golden reference.
fn cmd_serve(f: &Flags) -> Result<ExitCode, String> {
    let t = Target::parse(f, Some("gather"), 64, 4)?;
    let cores = f.get("cores")?.map_or(4, NonZeroUsize::get);
    let tasks = f.get("tasks")?.map_or(128, NonZeroUsize::get);
    let core = match f.str("engine").unwrap_or("virec") {
        "virec" => CoreConfig::virec(t.threads, t.regs),
        "banked" => CoreConfig::banked(t.threads),
        other => return Err(format!("error: serve supports virec|banked, not {other:?}")),
    };

    let mut cfg = ServeConfig::streaming(cores, core, tasks, t.seed);
    cfg.mix = default_mix(t.n);
    cfg.verify = !f.on("no-verify");
    cfg.fabric = fabric(f)?;
    // --rate is in tasks per million cycles; the service wants the mean
    // inter-arrival gap in cycles.
    if let Some(rate) = f.get::<f64>("rate")? {
        if rate <= 0.0 {
            return Err("error: --rate must be positive".into());
        }
        cfg.mean_interarrival = ((1.0e6 / rate) as u64).max(1);
    }
    cfg.queue_depth = f.or("queue-depth", cfg.queue_depth)?;
    cfg.deadline_cycles = f.or("deadline", cfg.deadline_cycles)?;
    cfg.quarantine_after = f.or("quarantine-after", cfg.quarantine_after)?;
    cfg.protection = f.or("protection", ProtectionConfig::none())?;
    cfg.faults = ServeFaultPlan::campaign(f.or("faults", 0)?, f.or("sticky-cores", 0)?);
    cfg.faults.stuck_cores = f.or("stuck-cores", 0)?;
    cfg.faults.link_faults = f.or("link-faults", 0)?;
    if cfg.faults.link_faults > 0 && cfg.fabric.topology == FabricTopology::Crossbar {
        return Err(
            "error: --link-faults needs a mesh fabric (pass --topology mesh<C>x<R>)".into(),
        );
    }
    if cfg.faults.stuck_cores > 0 || cfg.faults.link_faults > 0 {
        // Stuck-at defects are only survivable, and worn links only
        // retire, with the RAS layer on.
        let d = RasConfig::default();
        cfg.ras = Some(RasConfig {
            spare_rows: f.or("spare-rows", d.spare_rows)?,
            ..d
        });
    }

    let report = match run_service(cfg) {
        Ok(r) => r,
        Err(e) => return run_failed(e, ""),
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
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}

/// `virec-cli noc` — the mesh-NoC resilience demo, four legs on one mesh:
/// a transient `noc-link` campaign (every wire upset CRC-caught and
/// retransmitted), a stuck-at campaign (the RAS layer predictively retires
/// the flaky link and routes around it), one instrumented single run
/// reporting the fabric's transport counters, and a faulty serve run whose
/// link loss shows up in availability while no task is lost.
fn cmd_noc(f: &Flags) -> Result<ExitCode, String> {
    let t = Target::parse(f, Some("gather"), 512, 4)?;
    let faults = f.get("faults")?.map_or(32, NonZeroUsize::get);
    let mut fabric = fabric(f)?;
    if fabric.topology == FabricTopology::Crossbar {
        fabric.topology = FabricTopology::Mesh { cols: 2, rows: 2 };
    }
    let cfg = CoreConfig::virec(t.threads, t.regs);
    cfg.validate().map_err(config_error)?;
    let (workload, n, seed) = (&t.workload, t.n, t.seed);
    let sites = [FaultSite::NocLink];
    println!(
        "noc demo          : virec on {} (n={n}), {} fabric, seed {seed:#x}",
        workload.name, fabric.topology
    );

    // Leg 1 — transient wire upsets: the per-hop CRC catches every one and
    // the retransmission delivers a clean flit; no checker ever fires.
    let transient = CampaignOptions {
        fabric,
        ..CampaignOptions::default()
    };
    let report = run_campaign_with(cfg, workload, faults, seed, &sites, &transient);
    println!("{}", report.summary());
    if !report.all_detected() || !report.all_recovered() {
        eprintln!("error[noc]: a transient link upset escaped the CRC layer");
        return Ok(ExitCode::FAILURE);
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
    let report = run_campaign_with(cfg, workload, faults, seed, &sites, &stuck);
    println!("{}", report.summary());
    println!("{}", report.ras_summary());
    if !report.all_detected() || !report.all_recovered() {
        eprintln!("error[noc]: a stuck-at link fault was not contained");
        return Ok(ExitCode::FAILURE);
    }

    // Leg 3 — one instrumented run: hammer the first mesh link with a
    // stuck-at defect and report exactly what the transport layer did.
    let clean_opts = RunOptions {
        fabric,
        ..RunOptions::default()
    };
    let clean = match try_run_single(cfg, workload, &clean_opts) {
        Ok(r) => r,
        Err(e) => return run_failed(e, "clean reference run failed: "),
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
    let r = match try_run_single(cfg, workload, &opts) {
        Ok(r) => r,
        Err(e) => return run_failed(e, ""),
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
        return Ok(ExitCode::FAILURE);
    }
    println!(
        "arch digest       : {:#018x} (matches clean run)",
        r.arch_digest
    );

    // Leg 4 — the streaming service on the same mesh under a link-wear
    // campaign: capacity shrinks with the lost links, accounting stays
    // exact.
    let mut scfg = ServeConfig::streaming(4, CoreConfig::banked(2), 32, seed);
    scfg.mix = default_mix(n.min(64));
    scfg.fabric = fabric;
    scfg.faults = ServeFaultPlan::links(9);
    scfg.ras = Some(RasConfig::default());
    let report = match run_service(scfg) {
        Ok(r) => r,
        Err(e) => return run_failed(e, ""),
    };
    println!("{}", report.summary());
    if report.lost > 0 || report.duplicated > 0 || report.silent_corruptions > 0 {
        eprintln!(
            "error[accounting]: lost={} duplicated={} silent_corruptions={}",
            report.lost, report.duplicated, report.silent_corruptions
        );
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}

/// `virec-cli lint` — the static-analysis gate: every built-in workload
/// kernel and every `virec-cc` output at every register budget must lint
/// clean. `--broken-fixture` lints a deliberately malformed program instead
/// (the CI negative control: it must exit nonzero with a stable
/// diagnostic).
fn cmd_lint(f: &Flags) -> Result<ExitCode, String> {
    if f.on("broken-fixture") {
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
        return Ok(ExitCode::FAILURE);
    }

    let n = f.get("n")?.map_or(256, NonZeroU64::get);
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
    Ok(if dirty == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn cmd_tv(f: &Flags) -> Result<ExitCode, String> {
    if f.on("broken-fixture") {
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
        return Ok(ExitCode::FAILURE);
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
    Ok(if bad == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn cmd_tune(f: &Flags) -> Result<ExitCode, String> {
    let d = TuneConfig::default();
    let strategy = match f.str("strategy") {
        None | Some("graph") => AllocStrategy::GraphColor,
        Some("linear") => AllocStrategy::LinearScan,
        Some(s) => return Err(format!("error: unknown strategy {s:?} (graph|linear)")),
    };
    let cfg = TuneConfig {
        n: f.get("n")?.map_or(d.n, NonZeroU64::get),
        nthreads: f.get("threads")?.map_or(d.nthreads, NonZeroUsize::get),
        budgets: f.get("budgets")?.map_or(d.budgets, |l: List| l.0),
        capacities: f.get("capacities")?.map_or(d.capacities, |l: List| l.0),
        strategy,
    };
    let envelope: Option<f64> = f.get("area-budget")?;
    // Surface out-of-range budgets as the allocator's typed diagnostic
    // instead of a panic deep inside the sweep.
    for &b in &cfg.budgets {
        regalloc::pool(b).map_err(|e| format!("error[alloc]: {e}"))?;
    }
    // A capacity the core rejects only drops its own points; when even the
    // largest one is rejected, no point can complete.
    let largest = cfg.capacities.iter().copied().max().unwrap_or_default();
    CoreConfig::virec(cfg.nthreads, largest)
        .validate()
        .map_err(config_error)?;

    let points = tune_sweep(&cfg, &harness::SweepControl::from_env());
    if points.is_empty() {
        eprintln!("error: no sweep point completed (capacities too small?)");
        return Ok(ExitCode::FAILURE);
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
    if let Some(envelope) = envelope {
        match pick_for_area(&points, envelope) {
            Some(p) => println!(
                "pick: area envelope {envelope:.4} mm2 -> budget={} capacity={} \
                 ({} cycles, {:.4} mm2)",
                p.budget, p.capacity, p.cycles, p.area_mm2
            ),
            None => {
                eprintln!("error: no point fits the {envelope:.4} mm2 envelope");
                return Ok(ExitCode::FAILURE);
            }
        }
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_area(f: &Flags) -> Result<ExitCode, String> {
    let threads: usize = f.or("threads", 8)?;
    let regs: usize = f.or("regs", 64)?;
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
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args
        .first()
        .and_then(|name| COMMANDS.iter().find(|c| c.name == name))
    else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    match Flags::parse(cmd, &args[1..]).and_then(|f| (cmd.run)(&f)) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}
