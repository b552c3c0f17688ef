//! The compiler/architecture budget tuner: sweeps the `virec-cc` register
//! budget against the VRMU physical-register capacity and maps the
//! perf × area trade space.
//!
//! Each point compiles `gather_cc` at a budget, translation-validates the
//! exact artifact (the TV gate is a hard preflight — a miscompiled point
//! must never produce a "fast" datapoint), runs it to completion on the
//! event-driven single-core harness at a VRMU capacity, and prices the
//! fully-protected core (base + ECC + RAS) at that capacity. The Pareto
//! front over (cycles, mm²) is what `virec-cli tune` reports, along with
//! the best point inside a caller-supplied area envelope.

use crate::harness::{run_spec_controlled, SweepControl};
use virec_area::{AreaModel, EccAreaModel, RasAreaModel};
use virec_core::CoreConfig;
use virec_sim::experiment::{CellData, ExperimentSpec};
use virec_sim::runner::{try_run_single, RunOptions};
use virec_verify::suite::tv_compiled_budgets;
use virec_verify::tv::{validate, TvCase};
use virec_workloads::{gather_cc, gather_cc_ir, Layout};

pub use virec_cc::AllocStrategy;

/// One evaluated (budget × capacity) design point.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TunePoint {
    /// Compiler register budget (1..=17).
    pub budget: usize,
    /// VRMU physical-register capacity.
    pub capacity: usize,
    /// End-to-end cycles on the event-driven runner.
    pub cycles: u64,
    /// Fully-protected core area (base + ECC + RAS) at this capacity.
    pub area_mm2: f64,
    /// Temps the allocator sent to the frame.
    pub spilled: usize,
    /// Static spill reloads in the text.
    pub spill_loads: usize,
    /// Static spill writebacks in the text.
    pub spill_stores: usize,
    /// Committed IPC.
    pub ipc: f64,
}

/// Tuner sweep configuration.
#[derive(Clone, Debug)]
pub struct TuneConfig {
    /// Problem size (elements).
    pub n: u64,
    /// Hardware threads.
    pub nthreads: usize,
    /// Compiler budgets to sweep.
    pub budgets: Vec<usize>,
    /// VRMU capacities to sweep.
    pub capacities: Vec<usize>,
    /// Allocation strategy under tune.
    pub strategy: AllocStrategy,
}

impl Default for TuneConfig {
    fn default() -> TuneConfig {
        TuneConfig {
            n: 1024,
            nthreads: 4,
            budgets: virec_verify::suite::LINT_BUDGETS.to_vec(),
            capacities: vec![8, 12, 16, 24, 32],
            strategy: AllocStrategy::GraphColor,
        }
    }
}

/// Concrete TV inputs for the five-parameter `gather_cc` kernel, small
/// enough to interpret symbolically-checked artifacts in microseconds.
fn gather_cc_cases() -> Vec<TvCase> {
    let n = 16u64;
    let data = 0x1000u64;
    let idx = data + n * 8;
    let mut mem = Vec::new();
    for i in 0..n {
        mem.push((data + i * 8, i.wrapping_mul(17)));
        mem.push((idx + i * 8, (i * 13) % n));
    }
    vec![TvCase {
        args: vec![data, idx, n, 0, 1],
        mem,
    }]
}

/// The suite-wide TV preflight: every compiled kernel at every budget and
/// both strategies must translation-validate before any sweep cell runs.
/// Returns the violation listing on failure.
pub fn tv_preflight() -> Result<(), String> {
    let mut bad = Vec::new();
    for r in tv_compiled_budgets() {
        if !r.is_valid() {
            for v in &r.violations {
                bad.push(format!("{}: {v}", r.name));
            }
        }
    }
    if bad.is_empty() {
        Ok(())
    } else {
        Err(bad.join("\n"))
    }
}

/// Sweeps budgets × capacities through the experiment layer under `ctl`
/// and returns every point that completed. Points whose runs fail (livelock at an
/// undersized capacity, cycle caps) are dropped — the experiment layer
/// records them as structured failures, not panics.
///
/// # Panics
///
/// Panics if the TV preflight rejects any compiled kernel, or if a
/// specific sweep artifact fails validation — a miscompile must kill the
/// tuner, not bias it.
pub fn tune_sweep(cfg: &TuneConfig, ctl: &SweepControl) -> Vec<TunePoint> {
    if let Err(e) = tv_preflight() {
        panic!("translation-validation preflight failed:\n{e}");
    }

    let layout = Layout::for_core(0);
    let cases = gather_cc_cases();
    let ir = gather_cc_ir();

    let mut spec = ExperimentSpec::new("ext_tune_pareto");
    spec.set_meta("n", cfg.n);
    spec.set_meta("nthreads", cfg.nthreads);
    spec.set_meta("strategy", cfg.strategy.name());
    let mut compiled_meta = Vec::new();
    for &budget in &cfg.budgets {
        let cw = match gather_cc(cfg.n, layout, budget, cfg.strategy) {
            Ok(cw) => cw,
            Err(e) => panic!("budget {budget}: {e}"),
        };
        // Per-artifact TV: the exact program about to be driven.
        let report = validate(
            &format!("gather_cc@b{budget}/{}", cfg.strategy.name()),
            &ir,
            &cw.compiled,
            &cases,
        );
        assert!(
            report.is_valid(),
            "tune artifact failed translation validation:\n{}",
            report
                .violations
                .iter()
                .map(|v| v.to_string())
                .collect::<Vec<_>>()
                .join("\n")
        );
        compiled_meta.push((
            budget,
            cw.compiled.spilled,
            cw.compiled.spill_loads,
            cw.compiled.spill_stores,
        ));
        for &capacity in &cfg.capacities {
            let n = cfg.n;
            let nthreads = cfg.nthreads;
            let strategy = cfg.strategy;
            spec.custom(format!("b{budget}_c{capacity}"), move |_| {
                let cw = gather_cc(n, layout, budget, strategy).expect("preflighted budget");
                let core_cfg = CoreConfig::virec(nthreads, capacity);
                let r = try_run_single(core_cfg, &cw.workload, &RunOptions::default())?;
                Ok(CellData::metrics([
                    ("cycles", r.cycles as f64),
                    ("ipc", r.stats.ipc()),
                ]))
            });
        }
    }
    let res = run_spec_controlled(&spec, ctl);

    let area = |capacity: usize| {
        RasAreaModel::default().virec_core(
            &AreaModel::default(),
            &EccAreaModel::default(),
            capacity,
        )
    };
    let mut points = Vec::new();
    for &(budget, spilled, spill_loads, spill_stores) in &compiled_meta {
        for &capacity in &cfg.capacities {
            let key = format!("b{budget}_c{capacity}");
            let Some(cycles) = res.metric(&key, "cycles") else {
                continue; // structured failure (e.g. undersized capacity)
            };
            points.push(TunePoint {
                budget,
                capacity,
                cycles: cycles as u64,
                area_mm2: area(capacity),
                spilled,
                spill_loads,
                spill_stores,
                ipc: res.metric(&key, "ipc").unwrap_or(0.0),
            });
        }
    }
    points
}

/// The non-dominated set under (minimize cycles, minimize area), sorted by
/// area ascending (so cycles descend along the front).
pub fn pareto_front(points: &[TunePoint]) -> Vec<TunePoint> {
    let mut front: Vec<TunePoint> = points
        .iter()
        .filter(|p| {
            !points.iter().any(|q| {
                q.cycles <= p.cycles
                    && q.area_mm2 <= p.area_mm2
                    && (q.cycles < p.cycles || q.area_mm2 < p.area_mm2)
            })
        })
        .copied()
        .collect();
    front.sort_by(|a, b| {
        a.area_mm2
            .total_cmp(&b.area_mm2)
            .then(a.cycles.cmp(&b.cycles))
            .then(a.budget.cmp(&b.budget))
            .then(a.capacity.cmp(&b.capacity))
    });
    front.dedup_by(|a, b| a.cycles == b.cycles && a.area_mm2 == b.area_mm2);
    front
}

/// The fastest point whose fully-protected core fits `area_budget_mm2`
/// (ties broken toward smaller area, then smaller compiler budget).
pub fn pick_for_area(points: &[TunePoint], area_budget_mm2: f64) -> Option<TunePoint> {
    points
        .iter()
        .filter(|p| p.area_mm2 <= area_budget_mm2)
        .min_by(|a, b| {
            a.cycles
                .cmp(&b.cycles)
                .then(a.area_mm2.total_cmp(&b.area_mm2))
                .then(a.budget.cmp(&b.budget))
        })
        .copied()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pt(budget: usize, capacity: usize, cycles: u64, area: f64) -> TunePoint {
        TunePoint {
            budget,
            capacity,
            cycles,
            area_mm2: area,
            spilled: 0,
            spill_loads: 0,
            spill_stores: 0,
            ipc: 0.0,
        }
    }

    #[test]
    fn pareto_front_drops_dominated_points() {
        let pts = [
            pt(2, 8, 1000, 1.0),
            pt(4, 16, 800, 2.0),
            pt(4, 8, 900, 1.0),   // dominates the first point
            pt(8, 16, 850, 2.0),  // dominated by (4,16)
            pt(8, 32, 1200, 4.0), // dominated everywhere
        ];
        let front = pareto_front(&pts);
        assert_eq!(front.len(), 2);
        assert_eq!((front[0].budget, front[0].capacity), (4, 8));
        assert_eq!((front[1].budget, front[1].capacity), (4, 16));
    }

    #[test]
    fn pick_for_area_takes_the_fastest_fit() {
        let pts = [pt(2, 8, 1000, 1.0), pt(4, 16, 800, 2.0)];
        assert_eq!(pick_for_area(&pts, 1.5).unwrap().budget, 2);
        assert_eq!(pick_for_area(&pts, 2.5).unwrap().budget, 4);
        assert!(pick_for_area(&pts, 0.5).is_none());
    }

    #[test]
    fn tv_preflight_passes_on_the_shipped_compiler() {
        tv_preflight().expect("compiled kernels validate");
    }

    #[test]
    fn tune_sweep_produces_a_nonempty_front() {
        let cfg = TuneConfig {
            n: 256,
            budgets: vec![2, 8],
            capacities: vec![12, 24],
            ..TuneConfig::default()
        };
        let points = tune_sweep(&cfg, &SweepControl::from_env());
        assert!(!points.is_empty());
        let front = pareto_front(&points);
        assert!(!front.is_empty());
        // Looser budgets spill less.
        let p2 = points.iter().find(|p| p.budget == 2).unwrap();
        let p8 = points.iter().find(|p| p.budget == 8).unwrap();
        assert!(p2.spill_loads > p8.spill_loads);
    }
}
