//! Compile a kernel from the mini-IR and run it on a ViReC core — the full
//! §4.2 toolchain: the register-allocation *budget* controls how much of
//! the architectural context the kernel occupies, trading spill
//! instructions for a smaller ViReC register file.
//!
//! ```sh
//! cargo run --release --example compiled_kernel
//! ```

use virec::cc::compile;
use virec::cc::ir::{BinOp, Cmp, Function, Operand, Stmt};
use virec::core::{Core, CoreConfig, RegRegion};
use virec::isa::analysis::RegisterUsage;
use virec::isa::{FlatMem, Reg};
use virec::mem::{Fabric, FabricConfig};
use virec::sim::{Machine, RunOptions, SimError};

const REGION_BASE: u64 = 0x1000;
const DATA_BASE: u64 = 0x10_000;
const FRAME_BASE: u64 = 0x8000;
const CODE_BASE: u64 = 0x4000_0000;

/// `dot(a, b)` over an interleaved partition, written in the mini-IR.
/// Params: t0 = a, t1 = b, t2 = n, t3 = start, t4 = step.
fn dot_ir() -> Function {
    Function {
        name: "dot".into(),
        params: vec![0, 1, 2, 3, 4],
        body: vec![
            Stmt::def_const(5, 0), // acc
            Stmt::def_copy(6, 3),  // i
            Stmt::While {
                cond: (Operand::Temp(6), Cmp::Lt, Operand::Temp(2)),
                body: vec![
                    Stmt::Load {
                        dst: 7,
                        base: 0,
                        index: Operand::Temp(6),
                    },
                    Stmt::Load {
                        dst: 8,
                        base: 1,
                        index: Operand::Temp(6),
                    },
                    Stmt::def_bin(9, BinOp::Mul, Operand::Temp(7), Operand::Temp(8)),
                    Stmt::def_bin(5, BinOp::Add, Operand::Temp(5), Operand::Temp(9)),
                    Stmt::def_bin(6, BinOp::Add, Operand::Temp(6), Operand::Temp(4)),
                ],
            },
            Stmt::Return {
                value: Operand::Temp(5),
            },
        ],
    }
}

fn main() -> Result<(), SimError> {
    let n: u64 = 2048;
    let nthreads = 4;

    for budget in [3usize, 6, 12] {
        let compiled = compile(&dot_ir(), budget).expect("kernel compiles");
        let active = RegisterUsage::analyze(&compiled.program).active_context_size();
        println!(
            "budget {budget:>2}: {} static instrs, {} temps spilled, active context {} regs",
            compiled.program.len(),
            compiled.spilled,
            active
        );

        // Offload and run on a ViReC core sized at 100% of this kernel's
        // (budget-dependent) active context.
        let mut mem = FlatMem::new(0, 0x100_000);
        for i in 0..n {
            mem.write_u64(DATA_BASE + i * 8, i % 100);
            mem.write_u64(DATA_BASE + n * 8 + i * 8, (3 * i) % 50);
        }
        let region = RegRegion::new(REGION_BASE, nthreads);
        for t in 0..nthreads {
            let args = [DATA_BASE, DATA_BASE + n * 8, n, t as u64, nthreads as u64];
            for (i, &v) in args.iter().enumerate() {
                mem.write_u64(region.reg_addr(t, Reg::new(i as u8)), v);
            }
            mem.write_u64(
                region.reg_addr(t, compiled.frame_reg),
                FRAME_BASE + t as u64 * 0x100,
            );
        }
        let cfg = CoreConfig::virec(nthreads, (active * nthreads).max(12));
        let core = Core::new(cfg, compiled.program.clone(), region, CODE_BASE, (0, 1));
        let mut m = Machine::new(vec![core], Fabric::new(FabricConfig::default()), mem);
        let cycles = m.run(&mut (), &RunOptions::default(), &["dot"])?;
        let total: u64 = (0..nthreads)
            .map(|t| m.cores[0].arch_reg(t, Reg::new(0), &m.mem))
            .fold(0, u64::wrapping_add);
        println!(
            "           {cycles} cycles on a {}-register ViReC core, dot = {total}",
            (active * nthreads).max(12)
        );
    }
    Ok(())
}
