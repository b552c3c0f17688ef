//! End-to-end: kernels compiled by `virec-cc` (at various register
//! budgets) run on the full ViReC core and must match the IR interpreter —
//! the complete §4.2 story, from register-allocation knob to near-memory
//! execution.

use virec::cc::ir::{BinOp, Cmp, Function, Operand, Stmt};
use virec::cc::{compile, Compiled};
use virec::core::{Core, CoreConfig, RegRegion};
use virec::isa::{FlatMem, Reg};
use virec::mem::{Fabric, FabricConfig};
use virec::sim::{Machine, RunOptions};

const REGION_BASE: u64 = 0x1000;
const DATA_BASE: u64 = 0x10_000;
const FRAME_BASE: u64 = 0x8000;
const CODE_BASE: u64 = 0x4000_0000;

/// The gather kernel as IR: params t0=data, t1=idx, t2=n, t3=start,
/// t4=step. Σ data[idx[i]] for i = start, start+step, … < n.
fn gather_ir() -> Function {
    Function {
        name: "gather_cc".into(),
        params: vec![0, 1, 2, 3, 4],
        body: vec![
            Stmt::def_const(5, 0), // sum
            Stmt::def_copy(6, 3),  // i = start
            Stmt::While {
                cond: (Operand::Temp(6), Cmp::Lt, Operand::Temp(2)),
                body: vec![
                    Stmt::Load {
                        dst: 7,
                        base: 1,
                        index: Operand::Temp(6),
                    },
                    Stmt::Load {
                        dst: 8,
                        base: 0,
                        index: Operand::Temp(7),
                    },
                    Stmt::def_bin(5, BinOp::Add, Operand::Temp(5), Operand::Temp(8)),
                    Stmt::def_bin(6, BinOp::Add, Operand::Temp(6), Operand::Temp(4)),
                ],
            },
            Stmt::Return {
                value: Operand::Temp(5),
            },
        ],
    }
}

fn init_mem(mem: &mut FlatMem, n: u64) {
    for i in 0..n {
        mem.write_u64(DATA_BASE + i * 8, i * 17);
        mem.write_u64(DATA_BASE + n * 8 + i * 8, (i * 13) % n);
    }
}

/// Runs the compiled kernel on a core configured by `cfg` and returns the
/// cycle count and each thread's x0 (the return value).
fn run_on_core(c: &Compiled, n: u64, cfg: CoreConfig) -> (u64, Vec<u64>) {
    let nthreads = cfg.nthreads;
    let mut mem = FlatMem::new(0, 0x100_000);
    init_mem(&mut mem, n);
    let region = RegRegion::new(REGION_BASE, nthreads);
    for t in 0..nthreads {
        let args = [DATA_BASE, DATA_BASE + n * 8, n, t as u64, nthreads as u64];
        for (i, &v) in args.iter().enumerate() {
            mem.write_u64(region.reg_addr(t, Reg::new(i as u8)), v);
        }
        // Per-thread spill frame.
        mem.write_u64(
            region.reg_addr(t, c.frame_reg),
            FRAME_BASE + t as u64 * 0x100,
        );
    }
    let core = Core::new(cfg, c.program.clone(), region, CODE_BASE, (0, 1));
    let mut m = Machine::new(vec![core], Fabric::new(FabricConfig::default()), mem);
    let cycles = m
        .run(&mut (), &RunOptions::default(), &["gather_cc"])
        .expect("compiled kernel runs to completion");
    let x0 = (0..nthreads)
        .map(|t| m.cores[0].arch_reg(t, Reg::new(0), &m.mem))
        .collect();
    (cycles, x0)
}

/// Reference answer straight from the IR interpreter.
fn golden(n: u64, nthreads: usize) -> Vec<u64> {
    let f = gather_ir();
    (0..nthreads)
        .map(|t| {
            let mut mem = FlatMem::new(0, 0x100_000);
            init_mem(&mut mem, n);
            virec::cc::ir::interpret(
                &f,
                &[DATA_BASE, DATA_BASE + n * 8, n, t as u64, nthreads as u64],
                &mut mem,
                10_000_000,
            )
            .value
        })
        .collect()
}

#[test]
fn compiled_gather_matches_ir_at_every_budget() {
    let n = 256;
    let nthreads = 4;
    let want = golden(n, nthreads);
    for budget in [2usize, 4, 8, 14] {
        let c = compile(&gather_ir(), budget).expect("compiles");
        let (_, got) = run_on_core(&c, n, CoreConfig::virec(nthreads, 48));
        assert_eq!(got, want, "budget {budget} diverged on the core");
    }
}

#[test]
fn graph_coloring_beats_linear_scan_at_tight_budgets() {
    use virec::cc::AllocStrategy;
    use virec::core::CoreConfig;
    use virec::sim::runner::{try_run_single, RunOptions};
    use virec::workloads::{gather_cc, Layout};

    let n = 256u64;
    let nthreads = 4;
    // Core 0's layout puts the data segment at this file's DATA_BASE and
    // the adapter seeds the same data/index values as init_mem, so the
    // golden answers line up.
    let layout = Layout::for_core(0);
    let want = golden(n, nthreads);

    for budget in [2usize, 3] {
        let g = gather_cc(n, layout, budget, AllocStrategy::GraphColor).unwrap();
        let l = gather_cc(n, layout, budget, AllocStrategy::LinearScan).unwrap();

        // Loop-depth-weighted spill costs keep hot temps in registers:
        // strictly fewer static reloads at tight budgets.
        assert!(
            g.compiled.spill_loads < l.compiled.spill_loads,
            "budget {budget}: graph {} reloads vs linear {}",
            g.compiled.spill_loads,
            l.compiled.spill_loads
        );
        assert!(g.compiled.spill_stores <= l.compiled.spill_stores);

        // Both allocations compute the same architectural answer.
        let cfg = CoreConfig::virec(nthreads, 48);
        assert_eq!(run_on_core(&g.compiled, n, cfg).1, want);
        assert_eq!(run_on_core(&l.compiled, n, cfg).1, want);

        // Under the event-driven harness (with golden verification on),
        // the event-driven and dense loops agree byte-for-byte on the
        // architectural digest, and fewer reloads show up as cycles.
        let rg = try_run_single(
            CoreConfig::virec(nthreads, 32),
            &g.workload,
            &RunOptions::default(),
        )
        .unwrap();
        let rg_dense = try_run_single(
            CoreConfig::virec(nthreads, 32),
            &g.workload,
            &RunOptions {
                dense_loop: true,
                ..RunOptions::default()
            },
        )
        .unwrap();
        assert_eq!(rg.arch_digest, rg_dense.arch_digest);
        let rl = try_run_single(
            CoreConfig::virec(nthreads, 32),
            &l.workload,
            &RunOptions::default(),
        )
        .unwrap();
        assert!(
            rg.cycles < rl.cycles,
            "budget {budget}: graph {} cycles vs linear {}",
            rg.cycles,
            rl.cycles
        );
    }
}

#[test]
fn budget_controls_active_context() {
    // §4.2's effect on the paper's key metric: a lower register budget
    // shrinks the active (inner-loop) register context, at the cost of
    // extra spill instructions inside the loop.
    let big = compile(&gather_ir(), 14).unwrap();
    let small = compile(&gather_ir(), 4).unwrap();
    let ctx_of = |c: &Compiled| {
        virec::isa::analysis::RegisterUsage::analyze(&c.program).active_context_size()
    };
    let (big_ctx, small_ctx) = (ctx_of(&big), ctx_of(&small));
    assert!(
        small_ctx <= big_ctx,
        "4-register budget should not enlarge the active context \
         ({small_ctx} vs {big_ctx})"
    );
    assert!(small.spilled > 0);
    assert!(big.spilled == 0);
}

#[test]
fn tight_budget_costs_cycles_on_the_core() {
    let n = 512;
    let nthreads = 4;
    let run_cycles = |budget: usize| {
        let c = compile(&gather_ir(), budget).unwrap();
        run_on_core(&c, n, CoreConfig::banked(nthreads)).0
    };
    let generous = run_cycles(14);
    let starved = run_cycles(2);
    assert!(
        starved > generous,
        "spill code must cost cycles: {starved} vs {generous}"
    );
}
