//! Single-core jobs: the golden reference, and the runner's cycle loop
//! rebuilt from public calls so the traced run can time each layer.

use std::time::Instant;

use virec_bench::harness::EngineSel;
use virec_core::policy::XorShift;
use virec_core::{Core, CoreConfig, CoreStats, OracleSchedule};
use virec_isa::{ExecOutcome, FlatMem, Interpreter, ThreadCtx};
use virec_mem::{Fabric, FabricConfig, FabricStats};
use virec_sim::offload::offload;
use virec_sim::{
    arch_digest, golden_arch_digest, try_run_single, try_verify_against_golden, RunOptions,
    RunResult, Watchdog, DEFAULT_LIVELOCK_CYCLES,
};
use virec_workloads::{layout, Workload, WorkloadCtor};

use crate::trace::Tracer;

/// Interpreter step cap for golden references; every benchmark kernel
/// halts far below it.
const GOLDEN_STEP_CAP: u64 = 1 << 32;

/// One single-core run: a kernel at a size on an engine and a fabric.
#[derive(Clone)]
pub struct Job {
    pub kernel: &'static str,
    pub ctor: WorkloadCtor,
    pub n: u64,
    pub threads: usize,
    pub engine: EngineSel,
    /// `engine`'s configuration for this kernel.
    pub cfg: CoreConfig,
    pub fabric: FabricConfig,
}

impl Job {
    pub fn golden_key(&self) -> (&'static str, u64, usize) {
        (self.kernel, self.n, self.threads)
    }

    pub fn label(&self) -> String {
        format!(
            "{}/n{}/{}t/{}",
            self.kernel,
            self.n,
            self.threads,
            self.engine.label()
        )
    }

    pub fn opts(&self, dense: bool) -> RunOptions {
        RunOptions {
            fabric: self.fabric,
            dense_loop: dense,
            ..RunOptions::default()
        }
    }
}

/// What a fault-free run of a kernel must produce.
#[derive(Clone, Copy)]
pub struct Golden {
    pub digest: u64,
    pub instrs: u64,
}

/// The golden digest (through the public `golden_arch_digest`) and the
/// golden dynamic instruction count of `w` with `nthreads` threads.
pub fn golden(w: &Workload, nthreads: usize, tr: &mut Tracer) -> Result<Golden, String> {
    let digest = tr
        .span("isa.golden_digest", 0, || {
            golden_arch_digest(w, nthreads, GOLDEN_STEP_CAP)
        })
        .map_err(|e| format!("{}: golden digest: {e}", w.name))?;
    let instrs = golden_instrs(w, nthreads, tr)?;
    Ok(Golden { digest, instrs })
}

/// Runs the golden interpreter over every thread and counts instructions.
/// Only the interpretation itself sits inside the `isa.golden` span.
pub fn golden_instrs(w: &Workload, nthreads: usize, tr: &mut Tracer) -> Result<u64, String> {
    let mut mem = FlatMem::new(0, mem_size(w));
    w.init_mem(&mut mem);
    let open = tr.enter("isa.golden", 0);
    let mut total = 0;
    for t in 0..nthreads {
        let mut ctx = ThreadCtx::new();
        for (r, v) in w.thread_ctx(t, nthreads) {
            ctx.set(r, v);
        }
        match Interpreter::new(w.program(), &mut mem).run(&mut ctx, GOLDEN_STEP_CAP) {
            ExecOutcome::Halted { instructions } => total += instructions,
            ExecOutcome::BudgetExhausted => {
                return Err(format!("{}: golden thread {t} did not halt", w.name))
            }
        }
    }
    tr.exit(open);
    Ok(total)
}

/// The functional memory a single-core run allocates (as the runner does).
pub fn mem_size(w: &Workload) -> usize {
    layout::mem_size(1).max((w.layout.data_base + w.layout.data_size) as usize)
}

/// One cycle in `SAMPLE_EVERY` (chosen pseudo-randomly, so loop periods
/// cannot alias with it) has its per-cycle calls timed; timing every call
/// would cost more than some of the calls themselves.
const SAMPLE_EVERY: u64 = 16;

/// Host time and call counts of the per-cycle calls in the driven loop.
/// The `*_ns` fields sum the sampled calls only; `sampled_*` count them.
#[derive(Clone, Copy, Default)]
pub struct LoopCounters {
    pub fabric_tick_ns: u64,
    pub core_tick_ns: u64,
    pub sampled_ticks: u64,
    pub ticks: u64,
    pub core_next_ns: u64,
    pub sampled_core_next: u64,
    pub core_next_calls: u64,
    /// `Core::next_event` answered "this very cycle": the skip attempt was
    /// wasted.
    pub core_next_now: u64,
    pub fabric_next_ns: u64,
    pub sampled_fabric_next: u64,
    pub skipped_cycles: u64,
}

impl LoopCounters {
    pub fn add(&mut self, o: &LoopCounters) {
        self.fabric_tick_ns += o.fabric_tick_ns;
        self.core_tick_ns += o.core_tick_ns;
        self.sampled_ticks += o.sampled_ticks;
        self.ticks += o.ticks;
        self.core_next_ns += o.core_next_ns;
        self.sampled_core_next += o.sampled_core_next;
        self.core_next_calls += o.core_next_calls;
        self.core_next_now += o.core_next_now;
        self.fabric_next_ns += o.fabric_next_ns;
        self.sampled_fabric_next += o.sampled_fabric_next;
        self.skipped_cycles += o.skipped_cycles;
    }
}

/// Result of one driven run.
pub struct Driven {
    pub cycles: u64,
    pub digest: u64,
    pub stats: CoreStats,
    pub fabric: FabricStats,
    pub counters: LoopCounters,
    pub wall_ns: u64,
}

fn ns_since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// The fault-free path of the single-core runner (`try_run_single` with
/// default options: no faults, checkpoints, RAS or gate), made of public
/// calls so each layer can be timed. With `tr` enabled the per-cycle calls
/// of sampled cycles are timed; spans cover the set-up, the loop and the
/// post-loop phases.
pub fn drive(
    job: &Job,
    w: &Workload,
    dense: bool,
    tr: &mut Tracer,
    id: u32,
) -> Result<Driven, String> {
    let mut sampler = XorShift::new(0x5EED ^ id as u64);
    let cfg = job.cfg;
    let start = Instant::now();
    let job_span = tr.enter("runner.job", id);

    let mut mem = tr.span("isa.flatmem_new", id, || FlatMem::new(0, mem_size(w)));
    let region = tr.span("runner.offload", id, || offload(&mut mem, w, cfg.nthreads));
    let mut core = tr.span("core.new", id, || {
        Core::with_oracle(
            cfg,
            w.program().clone(),
            region,
            w.layout.code_base,
            (0, 1),
            OracleSchedule::default(),
        )
    });
    let mut fabric = tr.span("fabric.new", id, || Fabric::new(job.fabric));
    let mut watchdog = Watchdog::new(DEFAULT_LIVELOCK_CYCLES);
    let mut c = LoopCounters::default();

    let fail = |what: &str, now: u64| format!("{}: {what} at cycle {now}", job.label());
    let loop_span = tr.enter("runner.loop", id);
    let mut now = 0u64;
    while !core.done() {
        let timed = tr.enabled() && sampler.next_u64().is_multiple_of(SAMPLE_EVERY);
        if timed {
            let t0 = Instant::now();
            fabric.tick(now);
            let t1 = Instant::now();
            core.tick(now, &mut fabric, &mut mem);
            c.fabric_tick_ns += (t1 - t0).as_nanos() as u64;
            c.core_tick_ns += ns_since(t1);
            c.sampled_ticks += 1;
        } else {
            fabric.tick(now);
            core.tick(now, &mut fabric, &mut mem);
        }
        c.ticks += 1;
        if let Some(detail) = core.structural_fault() {
            return Err(fail(&format!("structural hazard ({detail})"), now));
        }
        if let Some(detail) = fabric.noc_fault() {
            return Err(fail(&format!("noc fault ({detail})"), now));
        }
        now += 1;
        if watchdog.observe(now, core.stats().instructions).is_err() {
            return Err(fail("livelock", now));
        }
        if now >= cfg.max_cycles {
            return Err(fail("cycle budget exceeded", now));
        }
        if !dense && !core.done() {
            let ticked = now - 1;
            let t0 = timed.then(Instant::now);
            let core_next = core.next_event(ticked, &fabric);
            if let Some(t0) = t0 {
                c.core_next_ns += ns_since(t0);
                c.sampled_core_next += 1;
            }
            c.core_next_calls += 1;
            if core_next == Some(now) {
                c.core_next_now += 1;
                continue;
            }
            let t0 = timed.then(Instant::now);
            let fabric_next = fabric.next_event(ticked);
            if let Some(t0) = t0 {
                c.fabric_next_ns += ns_since(t0);
                c.sampled_fabric_next += 1;
            }
            let mut wake = [core_next, fabric_next]
                .into_iter()
                .flatten()
                .min()
                .unwrap_or(u64::MAX);
            if let Some(deadline) = watchdog.deadline() {
                wake = wake.min(deadline - 1);
            }
            wake = wake.min(cfg.max_cycles - 1);
            if wake > now {
                core.credit_skipped(wake - now);
                c.skipped_cycles += wake - now;
                now = wake;
            }
        }
    }
    tr.exit(loop_span);
    tr.span("core.finalize", id, || {
        core.finalize_stats();
        core.drain(&mut mem);
    });
    let digest = tr.span("runner.digest", id, || {
        arch_digest(&core, &mem, w, cfg.nthreads)
    });
    tr.span("runner.verify", id, || {
        try_verify_against_golden(w, cfg.nthreads, &core, &mem, now)
    })
    .map_err(|e| format!("{}: {e}", job.label()))?;
    tr.exit(job_span);
    Ok(Driven {
        cycles: now,
        digest,
        stats: *core.stats(),
        fabric: *fabric.stats(),
        counters: c,
        wall_ns: ns_since(start),
    })
}

/// A traced job together with its untraced reference runs.
pub struct Checked {
    pub driven: Driven,
    /// Wall time of `try_run_single` on the same inputs (skip mode).
    pub reference_ns: u64,
}

/// Drives `job` traced (skip mode) and untraced (dense mode), and runs
/// `try_run_single` in both modes; every pair must agree on cycles,
/// committed instructions and the architectural digest, and the digest must
/// equal the golden one. Any disagreement is an error: per-layer numbers
/// are only worth reporting if the traced loop is the real program.
pub fn drive_checked(
    job: &Job,
    w: &Workload,
    gold: &Golden,
    tr: &mut Tracer,
    id: u32,
) -> Result<Checked, String> {
    let cfg = job.cfg;
    // The dense pair runs first and warms the host, so the skip-mode
    // reference and the traced run behind it are timed alike.
    let reference_dense = try_run_single(cfg, w, &job.opts(true)).map_err(|e| e.to_string())?;
    let driven_dense = drive(job, w, true, &mut Tracer::new(false), id)?;
    let t0 = Instant::now();
    let reference = try_run_single(cfg, w, &job.opts(false)).map_err(|e| e.to_string())?;
    let reference_ns = ns_since(t0);
    let driven = drive(job, w, false, tr, id)?;
    for (mode, d, r) in [
        ("skip", &driven, &reference),
        ("dense", &driven_dense, &reference_dense),
    ] {
        let ours = (d.cycles, d.stats.instructions, d.digest);
        let theirs = (r.cycles, r.stats.instructions, r.arch_digest);
        if ours != theirs {
            return Err(format!(
                "{} ({mode} loop): traced (cycles, instructions, digest) {ours:?} != \
                 try_run_single {theirs:?}",
                job.label()
            ));
        }
    }
    if driven.digest != gold.digest {
        return Err(format!(
            "{}: digest differs from the golden digest",
            job.label()
        ));
    }
    Ok(Checked {
        driven,
        reference_ns,
    })
}

/// Checks a finished run against its golden reference: the same
/// architectural digest and the same number of committed instructions.
pub fn check_run(job: &Job, r: &RunResult, gold: &Golden) -> Result<(), String> {
    if r.arch_digest != gold.digest || r.stats.instructions != gold.instrs {
        return Err(format!(
            "{}: (digest, instructions) ({:#x}, {}) != golden ({:#x}, {})",
            job.label(),
            r.arch_digest,
            r.stats.instructions,
            gold.digest,
            gold.instrs
        ));
    }
    Ok(())
}
