//! The traced run: per-layer metrics from spans the benchmark records
//! around its own calls into each crate, plus the layer microbenchmarks.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use virec_bench::harness::EngineSel;
use virec_sim::runner::default_checkpoint_interval;
use virec_sim::{try_run_single, InjectionOutcome, RunOptions, TaskService};

use crate::drive::{self, Checked, LoopCounters};
use crate::micro::{self, Streams};
use crate::trace::Tracer;
use crate::work::{self, Bench, Kind};
use crate::{Metric, Output};

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

const MS: f64 = 1e6;

/// Host-time split of one driven job, in nanoseconds.
struct Split {
    label: String,
    job: u64,
    flatmem: u64,
    offload: u64,
    looped: u64,
    digest: u64,
    verify: u64,
    instrs: u64,
    counters: LoopCounters,
}

impl Split {
    fn other(&self) -> u64 {
        self.job
            .saturating_sub(self.flatmem + self.offload + self.looped + self.digest + self.verify)
    }
}

pub fn traced(kind: Kind, name: &str, seed: u64) -> Result<Output, String> {
    let mut tr = Tracer::new(true);
    let bench = Bench::setup(kind, seed, &mut tr)?;
    let mut attempted = 0u64;
    let mut failed = 0u64;

    // Every single-core job, driven through the traced loop and checked
    // against `try_run_single` in skip and dense mode.
    let mut checked: Vec<Checked> = Vec::new();
    for (i, job) in bench.jobs.iter().enumerate() {
        let id = i as u32 + 1;
        let w = bench.workload(job);
        checked.push(drive::drive_checked(job, w, bench.gold(job), &mut tr, id)?);
        attempted += 1;
    }
    let span_of = |name: &str| tr.per_job(name);
    let (jobs_ns, flat, off, lp, dig, ver) = (
        span_of("runner.job"),
        span_of("isa.flatmem_new"),
        span_of("runner.offload"),
        span_of("runner.loop"),
        span_of("runner.digest"),
        span_of("runner.verify"),
    );
    let splits: Vec<Split> = bench
        .jobs
        .iter()
        .zip(&checked)
        .enumerate()
        .map(|(i, (job, c))| {
            let id = i as u32 + 1;
            Split {
                label: job.label(),
                job: jobs_ns[&id],
                flatmem: flat[&id],
                offload: off[&id],
                looped: lp[&id],
                digest: dig[&id],
                verify: ver[&id],
                instrs: c.driven.stats.instructions,
                counters: c.driven.counters,
            }
        })
        .collect();

    // Checkpoint snapshots of the first job, at the campaign's interval.
    let job0 = &bench.jobs[0];
    let ck = tr.enter("checkpoint.run", 0);
    let t0 = Instant::now();
    let ckr = try_run_single(
        job0.cfg,
        bench.workload(job0),
        &RunOptions {
            checkpoint_interval: default_checkpoint_interval(),
            ..job0.opts(false)
        },
    )
    .map_err(|e| format!("{}: checkpointed run: {e}", job0.label()))?;
    let ck_wall = t0.elapsed().as_nanos() as f64;
    tr.exit(ck);
    drive::check_run(job0, &ckr, bench.gold(job0))?;

    // The serving layer.
    let scfg = bench.probe_service();
    let tasks = scfg.tasks as u64;
    let mut svc = tr
        .span("serve.new", 0, || TaskService::new(scfg))
        .map_err(|e| format!("TaskService::new: {e}"))?;
    let rep = tr
        .span("serve.run", 0, || svc.run())
        .map_err(|e| format!("serve: {e}"))?;
    attempted += tasks;
    failed += work::serve_failures(&rep);

    // The campaign's outcome counts (only `campaign_secded` runs one).
    let campaign = (kind == Kind::CampaignSecded).then(|| {
        let open = tr.enter("campaign.run", 0);
        let rep = bench.full_campaign();
        tr.exit(open);
        rep
    });
    if let Some(rep) = &campaign {
        attempted += rep.records.len() as u64;
        failed += rep.count(InjectionOutcome::Silent) as u64;
    }

    // Layer microbenchmarks over the workload's own streams.
    let mut streams = Streams::default();
    for (&(kernel, n), w) in &bench.built {
        let job = bench
            .jobs
            .iter()
            .find(|j| j.kernel == kernel && j.n == n)
            .expect("every kernel has a job");
        micro::capture(w, job.threads, &mut streams);
    }
    let phys_regs = EngineSel::Virec(80)
        .cfg(bench.workload(job0), job0.threads)
        .phys_regs;
    let mb = micro::run(&streams, phys_regs);

    // Aggregates over the driven jobs.
    let mut c = LoopCounters::default();
    let (mut cycles, mut instrs, mut reference, mut traced_wall) = (0u64, 0u64, 0u64, 0u64);
    let (mut ctx_sw, mut rf_hits, mut rf_misses, mut spills) = (0u64, 0u64, 0u64, 0u64);
    let (mut dh, mut da, mut ih, mut ia) = (0u64, 0u64, 0u64, 0u64);
    let (mut reads, mut writes, mut hops) = (0u64, 0u64, 0u64);
    for ch in &checked {
        let d = &ch.driven;
        c.add(&d.counters);
        cycles += d.cycles;
        instrs += d.stats.instructions;
        reference += ch.reference_ns;
        traced_wall += d.wall_ns;
        ctx_sw += d.stats.context_switches;
        rf_hits += d.stats.rf_hits;
        rf_misses += d.stats.rf_misses;
        spills += d.stats.rf_spills;
        dh += d.stats.dcache.hits;
        da += d.stats.dcache.accesses();
        ih += d.stats.icache.hits;
        ia += d.stats.icache.accesses();
        reads += d.fabric.reads;
        writes += d.fabric.writes;
        hops += d.fabric.noc_hops;
    }
    let sum = |f: fn(&Split) -> u64| splits.iter().map(f).sum::<u64>() as f64;
    let mean_ms = |f: fn(&Split) -> u64| sum(f) / splits.len() as f64 / MS;
    let golden_ns = tr.total("isa.golden").0 as f64;
    let golden_instrs: u64 = bench.golden.values().map(|g| g.instrs).sum();
    let count = |o| campaign.as_ref().map_or(0, |r| r.count(o)) as f64;
    let replay_mean = campaign
        .as_ref()
        .and_then(|r| r.mean_replay_cycles())
        .unwrap_or(0.0);

    let metrics = vec![
        Metric::new(
            "workloads.build_ms",
            tr.mean_ns("workloads.build") / MS,
            "ms",
        ),
        Metric::new("verify.lint_ms", tr.mean_ns("verify.lint") / MS, "ms"),
        Metric::new("isa.flatmem_new_ms", mean_ms(|s| s.flatmem), "ms"),
        Metric::new("isa.golden_ms", tr.mean_ns("isa.golden") / MS, "ms"),
        Metric::new(
            "isa.golden_ns_per_instr",
            ratio(golden_ns, golden_instrs as f64),
            "ns",
        ),
        Metric::new("runner.offload_us", mean_ms(|s| s.offload) * 1e3, "us"),
        Metric::new("runner.loop_ms", mean_ms(|s| s.looped), "ms"),
        Metric::new("runner.digest_ms", mean_ms(|s| s.digest), "ms"),
        Metric::new("runner.verify_ms", mean_ms(|s| s.verify), "ms"),
        Metric::new("runner.other_ms", mean_ms(Split::other), "ms"),
        Metric::new("runner.job_ms", mean_ms(|s| s.job), "ms"),
        Metric::new(
            "runner.fixed_share",
            1.0 - ratio(sum(|s| s.looped), sum(|s| s.job)),
            "ratio",
        ),
        Metric::new(
            "core.tick_ns",
            ratio(c.core_tick_ns as f64, c.sampled_ticks as f64),
            "ns",
        ),
        Metric::new(
            "core.ticks_per_instr",
            ratio(c.ticks as f64, instrs as f64),
            "ticks/instr",
        ),
        Metric::new(
            "core.next_event_ns",
            ratio(c.core_next_ns as f64, c.sampled_core_next as f64),
            "ns",
        ),
        Metric::new(
            "core.next_event_now_share",
            ratio(c.core_next_now as f64, c.core_next_calls as f64),
            "ratio",
        ),
        Metric::new(
            "core.skipped_cycle_share",
            ratio(c.skipped_cycles as f64, cycles as f64),
            "ratio",
        ),
        Metric::new("core.context_switches", ctx_sw as f64, "count"),
        Metric::new(
            "vrmu.rf_hit_rate",
            ratio(rf_hits as f64, (rf_hits + rf_misses) as f64),
            "ratio",
        ),
        Metric::new("vrmu.spills", spills as f64, "count"),
        Metric::new(
            "cache.dcache_hit_rate",
            ratio(dh as f64, da as f64),
            "ratio",
        ),
        Metric::new(
            "cache.icache_hit_rate",
            ratio(ih as f64, ia as f64),
            "ratio",
        ),
        Metric::new(
            "fabric.tick_ns",
            ratio(c.fabric_tick_ns as f64, c.sampled_ticks as f64),
            "ns",
        ),
        Metric::new(
            "fabric.next_event_ns",
            ratio(c.fabric_next_ns as f64, c.sampled_fabric_next as f64),
            "ns",
        ),
        Metric::new("fabric.reads", reads as f64, "count"),
        Metric::new("fabric.writes", writes as f64, "count"),
        Metric::new("noc.hops", hops as f64, "count"),
        Metric::new(
            "checkpoint.clone_ms",
            ratio(
                ckr.checkpoint_clone_ns as f64,
                ckr.ecc.checkpoints_taken as f64,
            ) / MS,
            "ms",
        ),
        Metric::new(
            "checkpoint.share",
            ratio(ckr.checkpoint_clone_ns as f64, ck_wall),
            "ratio",
        ),
        Metric::new(
            "campaign.corrected",
            count(InjectionOutcome::Corrected),
            "count",
        ),
        Metric::new(
            "campaign.ckpt_recovered",
            count(InjectionOutcome::CheckpointRecovered),
            "count",
        ),
        Metric::new(
            "campaign.recovered",
            count(InjectionOutcome::Recovered),
            "count",
        ),
        Metric::new(
            "campaign.detected_uncorrectable",
            count(InjectionOutcome::DetectedUncorrectable),
            "count",
        ),
        Metric::new(
            "campaign.detected",
            count(InjectionOutcome::Detected),
            "count",
        ),
        Metric::new(
            "campaign.crashed",
            count(InjectionOutcome::Crashed),
            "count",
        ),
        Metric::new("campaign.masked", count(InjectionOutcome::Masked), "count"),
        Metric::new(
            "campaign.not_applied",
            count(InjectionOutcome::NotApplied),
            "count",
        ),
        Metric::new("campaign.silent", count(InjectionOutcome::Silent), "count"),
        Metric::new("ecc.replay_cycles_mean", replay_mean, "cycles"),
        Metric::new("serve.new_ms", tr.mean_ns("serve.new") / MS, "ms"),
        Metric::new(
            "serve.run_ms_per_task",
            tr.mean_ns("serve.run") / MS / tasks.max(1) as f64,
            "ms",
        ),
        Metric::new("serve.retries", rep.retries as f64, "count"),
        Metric::new("serve.failovers", rep.failovers as f64, "count"),
        Metric::new("vrmu.lookup_ns", mb.vrmu_lookup_ns, "ns"),
        Metric::new("vrmu.allocate_ns", mb.vrmu_allocate_ns, "ns"),
        Metric::new("vrmu.evict_ns", mb.vrmu_evict_ns, "ns"),
        Metric::new("cache.access_ns", mb.cache_access_ns, "ns"),
        Metric::new("fabric.roundtrip_ns", mb.fabric_roundtrip_ns, "ns"),
        Metric::new("noc.roundtrip_ns", mb.noc_roundtrip_ns, "ns"),
        Metric::new(
            "trace.overhead_pct",
            (ratio(traced_wall as f64, reference as f64) - 1.0) * 100.0,
            "%",
        ),
    ];

    let report = job_table(name, &splits);
    eprint!("{report}");
    write_trace(name, seed, &tr, &metrics, &splits)?;
    Ok(Output {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
    })
}

/// The per-job split of host time, and the share of it the digest takes.
fn job_table(name: &str, splits: &[Split]) -> String {
    let ms = |ns: u64| ns as f64 / MS;
    let mut s = format!(
        "perfbench {name}: per-job host time (ms) of the traced loop\n\
         {:<34} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>6} {:>8} {:>7}\n",
        "job",
        "job",
        "flatmem",
        "offload",
        "loop",
        "digest",
        "verify",
        "rest",
        "fixed",
        "tick_ns",
        "tk/ins"
    );
    for sp in splits {
        let c = &sp.counters;
        let _ = writeln!(
            s,
            "{:<34} {:>8.3} {:>8.3} {:>8.3} {:>8.3} {:>8.3} {:>8.3} {:>8.3} {:>5.1}% {:>8.1} {:>7.3}",
            sp.label,
            ms(sp.job),
            ms(sp.flatmem),
            ms(sp.offload),
            ms(sp.looped),
            ms(sp.digest),
            ms(sp.verify),
            ms(sp.other()),
            100.0 * (1.0 - ratio(sp.looped as f64, sp.job as f64)),
            ratio(c.core_tick_ns as f64, c.sampled_ticks as f64),
            ratio(c.ticks as f64, sp.instrs as f64),
        );
    }
    let total: u64 = splits.iter().map(|s| s.job).sum();
    let digest: u64 = splits.iter().map(|s| s.digest).sum();
    let _ = writeln!(
        s,
        "perfbench {name}: arch_digest takes {:.1}% of job wall time \
         (mean {:.2} of {:.2} ms per job)",
        100.0 * ratio(digest as f64, total as f64),
        ms(digest) / splits.len() as f64,
        ms(total) / splits.len() as f64,
    );
    s
}

/// Writes the spans and every metric to `.bench_trace/<workload>-<seed>.json`.
fn write_trace(
    name: &str,
    seed: u64,
    tr: &Tracer,
    metrics: &[Metric],
    splits: &[Split],
) -> Result<(), String> {
    let mut counters: Vec<(String, f64)> = metrics
        .iter()
        .map(|m| (m.name.to_string(), m.value))
        .collect();
    let per_job: BTreeMap<String, f64> = splits
        .iter()
        .flat_map(|sp| {
            let c = &sp.counters;
            [
                (format!("job.{}.job_ms", sp.label), sp.job as f64 / MS),
                (format!("job.{}.digest_ms", sp.label), sp.digest as f64 / MS),
                (
                    format!("job.{}.core.tick_ns", sp.label),
                    ratio(c.core_tick_ns as f64, c.sampled_ticks as f64),
                ),
                (
                    format!("job.{}.core.ticks_per_instr", sp.label),
                    ratio(c.ticks as f64, sp.instrs as f64),
                ),
            ]
        })
        .collect();
    counters.extend(per_job);
    let dir = std::path::Path::new(".bench_trace");
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("{name}-{seed}.json"));
    let header = format!("\"workload\":\"{name}\",\"seed\":{seed}");
    std::fs::write(&path, tr.to_json(&header, &counters))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!("perfbench {name}: spans written to {}", path.display());
    Ok(())
}
