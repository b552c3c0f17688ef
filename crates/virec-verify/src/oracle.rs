//! The liveness-derived static prefetch oracle (§6.1).
//!
//! The recorded `OracleSchedule` is a *dynamic* artifact: the per-quantum
//! register masks one particular run happened to use, grouped from its
//! quantum trace (`OracleSchedule::from_trace`). The [`StaticOracle`]
//! derives the same contexts from exact liveness at the quantum's start PC
//! — no recording run needed — and the cross-check pins down how the two
//! relate at every scheduling quantum:
//!
//! * `demand ⊆ live_in(start_pc)` — **hard invariant**. The demand set
//!   (registers read before written by acquired instructions) can never
//!   exceed static liveness, because acquired instructions are on the true
//!   execution path (branches resolve at decode-exit; only fetched-but-
//!   unacquired slots are squashed).
//! * `used \ live_in` — registers *written first* in the quantum. These
//!   are intentional divergence: a prefetcher can satisfy them with dummy
//!   fills (§6.2's dummy-fill optimization), so the static context omits
//!   them on purpose.
//! * `live_in \ used` — registers the static context would prefetch that
//!   the quantum never touched, because a context switch truncated the
//!   quantum before reaching them. Also intentional: the static oracle
//!   cannot know where the switch will land.

use virec_core::{OracleSchedule, QuantumTrace};
use virec_isa::cfg::{Cfg, CfgError};
use virec_isa::dataflow::{Liveness, ALL_REGS};
use virec_isa::{Instr, Program};

/// Exact static liveness over a program, packaged for prefetch derivation.
#[derive(Clone, Debug)]
pub struct StaticOracle {
    instrs: Vec<Instr>,
    live_in: Vec<u32>,
}

/// Aggregate statistics of a successful cross-check.
#[derive(Clone, Copy, Debug, Default)]
pub struct OracleCrossCheck {
    /// Quanta examined.
    pub quanta: usize,
    /// Quanta whose used set equals the static prefetch context exactly.
    pub exact: usize,
    /// Total write-first register occurrences (`used \ live_in`) — the
    /// dummy-fillable divergence.
    pub write_first: u64,
    /// Total prefetched-but-untouched occurrences (`live_in \ used`) —
    /// switch-truncated quanta.
    pub truncated: u64,
}

/// A violated cross-check invariant.
#[derive(Clone, Debug)]
pub enum OracleViolation {
    /// The pipeline's demand set exceeded static liveness at the quantum's
    /// start PC — the liveness analysis (or the trace) is wrong.
    DemandNotLive {
        /// Thread.
        tid: u8,
        /// Per-thread quantum index.
        quantum: usize,
        /// Quantum start PC.
        start_pc: u32,
        /// Observed demand mask.
        demand: u32,
        /// Static live-in mask.
        live_in: u32,
        /// `demand & !live_in`.
        excess: u32,
    },
}

impl std::fmt::Display for OracleViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OracleViolation::DemandNotLive {
                tid,
                quantum,
                start_pc,
                demand,
                live_in,
                excess,
            } => write!(
                f,
                "tid {tid} quantum {quantum} at pc {start_pc}: demand {demand:#010x} \
                 exceeds static live-in {live_in:#010x} (excess {excess:#010x})"
            ),
        }
    }
}

impl std::error::Error for OracleViolation {}

impl StaticOracle {
    /// Builds the oracle from exact liveness. `halt_live` follows the lint
    /// convention (usually [`ALL_REGS`]: the final register file is
    /// architecturally observable).
    pub fn build(program: &Program, halt_live: u32) -> Result<StaticOracle, CfgError> {
        let instrs = program.instrs().to_vec();
        let cfg = Cfg::build(&instrs)?;
        let lv = Liveness::compute(&cfg, &instrs, halt_live);
        Ok(StaticOracle {
            instrs,
            live_in: lv.live_in,
        })
    }

    /// Static live-in mask (registers + flags bit) at `pc`.
    pub fn live_in(&self, pc: u32) -> u32 {
        self.live_in.get(pc as usize).copied().unwrap_or(0)
    }

    /// The oracle-exact prefetch context for a quantum starting at `pc`:
    /// the statically live registers (flags travel with the sysreg buffer,
    /// not the register file, so the bit is stripped).
    pub fn prefetch_mask(&self, pc: u32) -> u32 {
        self.live_in(pc) & ALL_REGS
    }

    /// Union of registers referenced by any instruction reachable within
    /// `depth` instructions of `pc` (inclusive) — the static bound on what
    /// a flushed in-flight window can have touched.
    pub fn near_access_mask(&self, pc: u32, depth: usize) -> u32 {
        let mut mask = 0u32;
        let mut frontier = vec![pc as usize];
        let mut seen = vec![false; self.instrs.len()];
        for _ in 0..depth {
            let mut next = Vec::new();
            for p in frontier {
                if p >= self.instrs.len() || seen[p] {
                    continue;
                }
                seen[p] = true;
                let i = &self.instrs[p];
                for r in i.regs().iter() {
                    mask |= 1 << r.index();
                }
                match i {
                    Instr::Halt => {}
                    Instr::B { target } => next.push(*target as usize),
                    _ => {
                        next.push(p + 1);
                        if let Some(t) = i.branch_target() {
                            next.push(t as usize);
                        }
                    }
                }
            }
            frontier = next;
        }
        mask
    }

    /// Derives an [`OracleSchedule`] from static liveness at each traced
    /// quantum's start PC — the §6.1 "oracle prediction" without the
    /// recording run. Replaying it through a prefetch-exact core is
    /// verified against the golden interpreter (quantum boundaries differ
    /// between the recording and the replay, so correctness comes from the
    /// demand-fill fallback, not mask alignment).
    pub fn derive_schedule(&self, trace: &QuantumTrace, nthreads: usize) -> OracleSchedule {
        OracleSchedule::group(trace, nthreads, |q| self.prefetch_mask(q.start_pc))
    }

    /// Cross-checks a quantum trace against static liveness. See the
    /// module docs for the invariant and the two intentional divergence
    /// classes.
    pub fn cross_check(&self, trace: &QuantumTrace) -> Result<OracleCrossCheck, OracleViolation> {
        let mut per_tid_quantum = std::collections::HashMap::new();
        let mut out = OracleCrossCheck::default();
        for q in &trace.quanta {
            let k = per_tid_quantum.entry(q.tid).or_insert(0usize);
            let quantum = *k;
            *k += 1;

            let live = self.live_in(q.start_pc);
            if q.demand & !live != 0 {
                return Err(OracleViolation::DemandNotLive {
                    tid: q.tid,
                    quantum,
                    start_pc: q.start_pc,
                    demand: q.demand,
                    live_in: live,
                    excess: q.demand & !live,
                });
            }

            let static_ctx = live & ALL_REGS;
            out.quanta += 1;
            if q.used == static_ctx {
                out.exact += 1;
            }
            out.write_first += u64::from((q.used & !static_ctx).count_ones());
            out.truncated += u64::from((static_ctx & !q.used).count_ones());
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use virec_isa::reg::names::*;
    use virec_isa::Asm;

    fn prog() -> Program {
        let mut a = Asm::new("p");
        a.label("top");
        a.add(X0, X0, X1); // live at top: x0, x1, x2 (+everything via halt)
        a.subi(X1, X1, 1);
        a.cbnz(X1, "top");
        a.add(X3, X2, X2);
        a.halt();
        a.assemble()
    }

    #[test]
    fn prefetch_mask_is_liveness() {
        let o = StaticOracle::build(&prog(), 0).unwrap();
        let m = o.prefetch_mask(0);
        assert_eq!(m, (1 << 0) | (1 << 1) | (1 << 2));
    }

    #[test]
    fn near_access_window_bounds_inflight_regs() {
        let o = StaticOracle::build(&prog(), 0).unwrap();
        // From pc 0, a 2-instruction window touches x0 and x1 only.
        assert_eq!(o.near_access_mask(0, 2), (1 << 0) | (1 << 1));
        // A 4-instruction window can wrap the back edge or reach pc 3.
        let w4 = o.near_access_mask(0, 4);
        assert_eq!(w4, (1 << 0) | (1 << 1) | (1 << 2) | (1 << 3));
    }
}
