//! The three workloads: what each sets up, what one measured round runs, and
//! how each round's outputs are checked.

use std::collections::BTreeMap;

use virec_bench::harness::{EngineSel, SuiteSweep};
use virec_core::policy::XorShift;
use virec_mem::{FabricConfig, FabricTopology};
use virec_sim::experiment::{Executor, ExperimentSpec, RetryPolicy};
use virec_sim::serve::default_mix;
use virec_sim::{
    run_campaign_with, try_run_single, CampaignOptions, CampaignReport, FaultSite,
    InjectionOutcome, ServeConfig, ServeReport, TaskService,
};
use virec_workloads::{Workload, WorkloadCtor, SUITE};

use crate::drive::{self, Golden, Job};
use crate::trace::Tracer;

/// Problem size and threads of `sweep_small`: the smallest size at which
/// every suite kernel is valid with the `virec-cli sweep` default of 8
/// threads (`meabo` needs 32 elements per thread).
const SWEEP_N: u64 = 256;
const SWEEP_THREADS: usize = 8;
/// `serve_mesh`: the `virec-cli serve` defaults, on a 2x2 mesh.
const SERVE_CORES: usize = 4;
const SERVE_TASKS: usize = 64;
const SERVE_N: u64 = 64;
const SERVE_THREADS: usize = 4;
/// `campaign_secded`: 64-injection campaigns, run in slices of 16. A
/// period covers two campaigns (128 consecutive injection seeds): which
/// injections need a checkpoint restore or a full re-execution depends on
/// the seed, and one campaign's worth leaves that mix too seed-dependent.
const CAMPAIGN_N: u64 = 256;
const CAMPAIGN_THREADS: usize = 4;
const CAMPAIGN_INJECTIONS: usize = 64;
const CAMPAIGN_SLICE: usize = 16;
const CAMPAIGN_PERIOD_INJECTIONS: usize = 2 * CAMPAIGN_INJECTIONS;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    SweepSmall,
    ServeMesh,
    CampaignSecded,
}

impl Kind {
    pub fn parse(s: &str) -> Option<Kind> {
        Some(match s {
            "sweep_small" => Kind::SweepSmall,
            "serve_mesh" => Kind::ServeMesh,
            "campaign_secded" => Kind::CampaignSecded,
            _ => return None,
        })
    }

    /// Rounds repeat their inputs with this period, so round `r` must
    /// reproduce round `r - period` exactly.
    pub fn period(self) -> usize {
        match self {
            Kind::SweepSmall => 1,
            Kind::ServeMesh => 2,
            Kind::CampaignSecded => CAMPAIGN_PERIOD_INJECTIONS / CAMPAIGN_SLICE,
        }
    }
}

/// SplitMix64: derives independent sub-seeds from the benchmark seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)).max(1)
}

fn mesh2x2() -> FabricConfig {
    FabricConfig {
        topology: FabricTopology::Mesh { cols: 2, rows: 2 },
        ..FabricConfig::default()
    }
}

/// One timed piece of a round: a sweep cell, a long run, a served batch or
/// a campaign slice. A key recurs with the same work in every period.
pub struct Unit {
    pub key: usize,
    /// CPU seconds (user plus system) the piece took.
    pub cpu_s: f64,
    pub jobs: u64,
    /// Simulated instructions and cycles of the piece's jobs.
    pub instrs: u64,
    pub cycles: u64,
}

/// What one measured round did.
#[derive(Default)]
pub struct Round {
    pub units: Vec<Unit>,
    pub failed: u64,
    pub errors: Vec<String>,
    /// Simulated latency of each job (served task: arrival to completion;
    /// otherwise the run's length).
    pub latencies: Vec<u64>,
    /// Deterministic outputs compared between repeats of the same inputs.
    pub fingerprint: Vec<u64>,
}

impl Round {
    pub fn jobs(&self) -> u64 {
        self.units.iter().map(|u| u.jobs).sum()
    }

    fn fail(&mut self, e: String) {
        self.failed += 1;
        self.errors.push(e);
    }

    /// Runs `f` as the timed unit `key`; `f` adds the unit's work to the
    /// returned counters (jobs, instructions, cycles).
    fn unit(&mut self, key: usize, f: impl FnOnce(&mut Round) -> (u64, u64, u64)) {
        let cpu = crate::cpu_seconds();
        let (jobs, instrs, cycles) = f(self);
        self.units.push(Unit {
            key,
            cpu_s: crate::cpu_seconds() - cpu,
            jobs,
            instrs,
            cycles,
        });
    }
}

/// A set-up workload, ready to run measured rounds or the traced run.
pub struct Bench {
    pub kind: Kind,
    pub seed: u64,
    /// Every single-core job, in canonical order.
    pub jobs: Vec<Job>,
    /// Built workloads by `(kernel, n)`.
    pub built: BTreeMap<(&'static str, u64), Workload>,
    /// Golden references by `(kernel, n, threads)`, memoised at set-up.
    pub golden: BTreeMap<(&'static str, u64, usize), Golden>,
    /// `sweep_small`: one single-cell spec per sweep cell, in the seeded
    /// order, with the index of its job.
    sweep: Vec<(usize, ExperimentSpec)>,
    service: Option<TaskService>,
}

/// The serve mix as named kernels (the same constructors as `default_mix`).
fn serve_kernels() -> Vec<(&'static str, WorkloadCtor, u64)> {
    let names = ["gather", "stream_triad", "reduction", "copy"];
    let mix = default_mix(SERVE_N);
    assert_eq!(mix.len(), names.len(), "serve mix changed shape");
    names
        .iter()
        .zip(mix)
        .map(|(name, (ctor, n))| (*name, ctor, n))
        .collect()
}

fn suite_ctor(name: &str) -> WorkloadCtor {
    SUITE
        .iter()
        .find(|(n, _)| *n == name)
        .expect("suite kernel")
        .1
}

impl Bench {
    /// Builds the workloads, runs the lint preflight, memoises the golden
    /// references, constructs the sweep spec or the service, and warms up
    /// by running the first job once.
    pub fn setup(kind: Kind, seed: u64, tr: &mut Tracer) -> Result<Bench, String> {
        let (kernels, threads, engines, fabric): (Vec<_>, usize, Vec<EngineSel>, FabricConfig) =
            match kind {
                Kind::SweepSmall => (
                    SUITE.iter().map(|(n, c)| (*n, *c, SWEEP_N)).collect(),
                    SWEEP_THREADS,
                    vec![
                        EngineSel::Banked,
                        EngineSel::Virec(40),
                        EngineSel::Virec(80),
                    ],
                    FabricConfig::default(),
                ),
                Kind::ServeMesh => (
                    serve_kernels(),
                    SERVE_THREADS,
                    vec![EngineSel::Virec(100)],
                    mesh2x2(),
                ),
                Kind::CampaignSecded => (
                    vec![("gather", suite_ctor("gather"), CAMPAIGN_N)],
                    CAMPAIGN_THREADS,
                    vec![EngineSel::Virec(100)],
                    FabricConfig::default(),
                ),
            };

        let mut built = BTreeMap::new();
        for &(name, ctor, n) in &kernels {
            let w = tr.span("workloads.build", 0, || {
                ctor(n, virec_workloads::Layout::for_core(0))
            });
            built.insert((name, n), w);
        }
        for w in built.values() {
            let diags = tr.span("verify.lint", 0, || {
                virec_verify::lint_program(
                    w.program().instrs(),
                    &virec_verify::workload_lint_config(w),
                )
            });
            if let Some(d) = diags.first() {
                return Err(format!("{} fails the lint gate: {d}", w.name));
            }
        }
        let mut golden = BTreeMap::new();
        for (&(name, n), w) in &built {
            golden.insert((name, n, threads), drive::golden(w, threads, tr)?);
        }

        // The service runs every task on one configuration, sized for
        // `gather` as `virec-cli serve` sizes it; its jobs do the same.
        let sized_for = (kind == Kind::ServeMesh).then(|| &built[&("gather", SERVE_N)]);
        let mut jobs = Vec::new();
        for &(name, ctor, n) in &kernels {
            for engine in &engines {
                let w = sized_for.unwrap_or(&built[&(name, n)]);
                jobs.push(Job {
                    kernel: name,
                    ctor,
                    n,
                    threads,
                    engine: *engine,
                    cfg: engine.cfg(w, threads),
                    fabric,
                });
            }
        }

        let mut bench = Bench {
            kind,
            seed,
            jobs,
            built,
            golden,
            sweep: Vec::new(),
            service: None,
        };
        match kind {
            Kind::SweepSmall => {
                let mut names: Vec<String> = SUITE.iter().map(|(n, _)| n.to_string()).collect();
                shuffle(&mut names, mix(seed, 1));
                let sweep = SuiteSweep {
                    name: "perfbench_sweep_small".into(),
                    workloads: names,
                    engines,
                    n: SWEEP_N,
                    threads: SWEEP_THREADS,
                    retry: RetryPolicy::default(),
                };
                let spec = tr.span("bench.sweep_spec", 0, || sweep.spec());
                // Each cell goes through the executor on its own so it can
                // be timed on its own.
                for cell in spec.cells() {
                    let job = bench
                        .jobs
                        .iter()
                        .position(|j| sweep.key(j.kernel, &j.engine) == cell.key)
                        .ok_or_else(|| format!("sweep cell {} has no job", cell.key))?;
                    let mut one = ExperimentSpec::new(&spec.name).with_retry(spec.retry);
                    one.push(cell.key.clone(), cell.job.clone());
                    bench.sweep.push((job, one));
                }
            }
            Kind::ServeMesh => {
                let cfg = bench.serve_config(0);
                let svc = tr
                    .span("serve.new", 0, || TaskService::new(cfg))
                    .map_err(|e| format!("TaskService::new: {e}"))?;
                bench.service = Some(svc);
            }
            Kind::CampaignSecded => {}
        }

        let warm = tr.enter("bench.warmup", 0);
        let job = &bench.jobs[0];
        let r = try_run_single(job.cfg, bench.workload(job), &job.opts(false))
            .map_err(|e| e.to_string())?;
        drive::check_run(job, &r, bench.gold(job))?;
        tr.exit(warm);
        Ok(bench)
    }

    pub fn workload(&self, job: &Job) -> &Workload {
        &self.built[&(job.kernel, job.n)]
    }

    pub fn gold(&self, job: &Job) -> &Golden {
        &self.golden[&job.golden_key()]
    }

    /// The service of round variant `variant`: the arrival/mix seed is
    /// derived from the benchmark seed.
    fn serve_config(&self, variant: u64) -> ServeConfig {
        let core = self.jobs[0].cfg;
        let mut cfg = ServeConfig::streaming(
            SERVE_CORES,
            core,
            SERVE_TASKS,
            mix(self.seed, 100 + variant),
        );
        cfg.mix = default_mix(SERVE_N);
        cfg.fabric = mesh2x2();
        cfg
    }

    fn campaign_base(&self, slice: u64) -> u64 {
        // Seeds base + i (i < 128) stay distinct and nonzero.
        (mix(self.seed, 200) >> 8) + slice * CAMPAIGN_SLICE as u64
    }

    /// Runs measured round `r`.
    pub fn round(&mut self, r: usize) -> Round {
        let variant = r % self.kind.period();
        let mut out = Round::default();
        match self.kind {
            Kind::SweepSmall => self.sweep_round(&mut out),
            Kind::ServeMesh => self.serve_round(variant, &mut out),
            Kind::CampaignSecded => self.campaign_round(variant, &mut out),
        }
        out
    }

    /// Checks one run and returns its work (jobs, instructions, cycles).
    fn record_run(
        out: &mut Round,
        job: &Job,
        gold: &Golden,
        r: Result<&virec_sim::RunResult, String>,
    ) -> (u64, u64, u64) {
        let r = match r.and_then(|r| drive::check_run(job, r, gold).map(|()| r)) {
            Ok(r) => r,
            Err(e) => {
                out.fail(e);
                return (1, 0, 0);
            }
        };
        out.latencies.push(r.cycles);
        out.fingerprint
            .extend([r.cycles, r.stats.instructions, r.arch_digest]);
        (1, r.stats.instructions, r.cycles)
    }

    /// The `virec-cli sweep` grid, cell by cell through a single-worker
    /// `Executor`.
    fn sweep_round(&self, out: &mut Round) {
        for (key, (ji, spec)) in self.sweep.iter().enumerate() {
            let job = &self.jobs[*ji];
            out.unit(key, |out| {
                let res = Executor::new(1).run(spec);
                let cell = &spec.cells()[0].key;
                let r = res.run(cell).ok_or_else(|| {
                    let why = res.failures().into_iter().next().map(|(_, e)| e);
                    format!("{cell}: {}", why.unwrap_or_else(|| "no result".into()))
                });
                Self::record_run(out, job, self.gold(job), r)
            });
        }
    }

    fn serve_round(&mut self, variant: usize, out: &mut Round) {
        let cfg = self.serve_config(variant as u64);
        let seed = cfg.seed;
        let prebuilt = self.service.take();
        out.unit(variant, |out| {
            let svc = match prebuilt {
                Some(svc) if variant == 0 => Ok(svc),
                _ => TaskService::new(cfg),
            };
            match svc.and_then(|mut svc| svc.run()) {
                Ok(rep) => self.account_serve(seed, &rep, out),
                Err(e) => {
                    out.failed += SERVE_TASKS as u64;
                    out.errors.push(format!("serve: {e}"));
                    (SERVE_TASKS as u64, 0, 0)
                }
            }
        });
    }

    /// Checks a served batch and returns its work.
    fn account_serve(&self, seed: u64, rep: &ServeReport, out: &mut Round) -> (u64, u64, u64) {
        let bad = serve_failures(rep);
        if bad > 0 {
            out.failed += bad;
            out.errors
                .push(format!("serve seed {seed}: {}", rep.summary()));
        }
        // The service does not report committed instructions; each task's
        // kernel is recovered from the seeded arrival process (two draws
        // per task: the gap, then the mix index) and counted at its golden
        // instruction count.
        let kernels = serve_kernels();
        let mut rng = XorShift::new(seed);
        let mut instrs = 0;
        for _ in 0..rep.submitted {
            rng.next_u64();
            let (name, _, n) = kernels[(rng.next_u64() % kernels.len() as u64) as usize];
            instrs += self.golden[&(name, n, SERVE_THREADS)].instrs;
        }
        out.latencies.extend_from_slice(&rep.latencies);
        out.fingerprint.push(rep.cycles);
        out.fingerprint.extend_from_slice(&rep.latencies);
        (rep.submitted as u64, instrs, rep.cycles)
    }

    /// `injections` protected injections on the campaign's job, with seeds
    /// counting up from `base`.
    fn campaign(&self, injections: usize, base: u64) -> CampaignReport {
        let job = &self.jobs[0];
        quiet_panics(|| {
            run_campaign_with(
                job.cfg,
                self.workload(job),
                injections,
                base,
                &FaultSite::ALL,
                &CampaignOptions::protected(),
            )
        })
    }

    /// One 16-injection slice.
    fn campaign_round(&self, slice: usize, out: &mut Round) {
        out.unit(slice, |out| {
            let report = self.campaign(CAMPAIGN_SLICE, self.campaign_base(slice as u64));
            self.account_campaign(&report, out)
        });
    }

    /// Counts a campaign: a `Silent` injection fails; every other outcome
    /// (`Crashed` included, as `detection_rate` counts it) was caught.
    /// Work is counted from the clean reference: each injection simulates
    /// one clean run, a second one when the campaign re-executed it
    /// fault-free, plus the cycles replayed from a checkpoint.
    fn account_campaign(&self, rep: &CampaignReport, out: &mut Round) -> (u64, u64, u64) {
        let gold = self.gold(&self.jobs[0]);
        let (mut instrs, mut cycles) = (gold.instrs, rep.clean_cycles);
        out.fingerprint.push(rep.clean_cycles);
        for rec in &rep.records {
            if rec.outcome == InjectionOutcome::Silent {
                out.fail(format!("campaign seed {}: silent corruption", rec.seed));
            }
            let runs = 1 + reran(rec.outcome) as u64;
            let c = runs * rep.clean_cycles + rec.replay_cycles.unwrap_or(0);
            instrs += runs * gold.instrs;
            cycles += c;
            out.latencies.push(c);
            out.fingerprint.extend([rec.seed, rec.outcome as u64, c]);
        }
        (rep.records.len() as u64, instrs, cycles)
    }

    /// The first 64-injection campaign in one call (the traced run's).
    pub fn full_campaign(&self) -> CampaignReport {
        self.campaign(CAMPAIGN_INJECTIONS, self.campaign_base(0))
    }

    /// The service the traced run measures: on `serve_mesh` the real one;
    /// elsewhere a 4-core crossbar service over the workload's own kernels,
    /// one task per kernel, so `serve.*` shows what the serving layer costs
    /// per task of this workload.
    pub fn probe_service(&self) -> ServeConfig {
        if self.kind == Kind::ServeMesh {
            return self.serve_config(0);
        }
        let kernels: Vec<(WorkloadCtor, u64)> = self
            .built
            .keys()
            .map(|&(name, n)| {
                let job = self.jobs.iter().find(|j| j.kernel == name && j.n == n);
                (job.expect("every kernel has a job").ctor, n)
            })
            .collect();
        let mut cfg = ServeConfig::streaming(
            SERVE_CORES,
            self.jobs[0].cfg,
            kernels.len(),
            mix(self.seed, 300),
        );
        cfg.mix = kernels;
        cfg
    }
}

/// Tasks of a served batch that did not complete cleanly: rejected,
/// failed, lost, duplicated, or silently corrupted.
pub fn serve_failures(rep: &ServeReport) -> u64 {
    let bad = rep.rejected_queue_full
        + rep.rejected_quarantined
        + rep.failed
        + rep.lost
        + rep.duplicated
        + rep.silent_corruptions;
    bad.max(rep.submitted.saturating_sub(rep.completed)) as u64
}

/// Whether the campaign re-executed this injection without its fault.
fn reran(o: InjectionOutcome) -> bool {
    matches!(
        o,
        InjectionOutcome::Recovered
            | InjectionOutcome::Detected
            | InjectionOutcome::DetectedUncorrectable
    )
}

/// Campaign injections classified `Crashed` unwind through a panic; keep
/// the report as the only output.
fn quiet_panics<T>(f: impl FnOnce() -> T) -> T {
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let out = f();
    std::panic::set_hook(prev);
    out
}

fn shuffle<T>(v: &mut [T], seed: u64) {
    let mut rng = XorShift::new(seed);
    for i in (1..v.len()).rev() {
        v.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
    }
}
