//! Core configuration and the Table 1 presets.

use crate::vrmu::{MAX_THREADS, MAX_WAYS, MIN_ACTIVE_WAYS};
use virec_mem::CacheConfig;

/// Which context-management engine the core uses (the architecture
/// alternatives compared throughout the paper's evaluation).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EngineKind {
    /// Banked register file: one full 32-register bank per thread,
    /// statically provisioned (Figure 3(b)).
    Banked,
    /// ViReC: the register file is a cache of partial contexts managed by
    /// the VRMU (Figure 3(c)).
    ViReC,
    /// Software context switching: every switch saves and restores the full
    /// context with ordinary loads/stores (Figure 3(a)).
    Software,
    /// Double-buffer prefetching of the **full** context of the next thread
    /// (the first prefetching alternative of §6.1).
    PrefetchFull,
    /// Double-buffer prefetching of the **exact** register set the next
    /// thread will use, with oracle knowledge (the second alternative).
    PrefetchExact,
}

/// Register-cache replacement policies (§4 and Figure 12).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PolicyKind {
    /// Pseudo-LRU over 3-bit ages only (prior work, e.g. the NSF).
    Plru,
    /// Perfect LRU (exact timestamps).
    Lru,
    /// Most-Recent-Thread PLRU: thread-recency bits concatenated above ages.
    MrtPlru,
    /// Most-Recent-Thread perfect LRU.
    MrtLru,
    /// Least Recently Committed: MRT-PLRU plus the commit bit (the paper's
    /// contribution).
    Lrc,
    /// FIFO by fill order (baseline).
    Fifo,
    /// Uniform-random victim (baseline).
    Random,
    /// Static RRIP (2-bit re-reference interval prediction, \[33\]): the
    /// paper's §7 argues such policies do not fit register caching because
    /// register reuse distance depends on instruction and context-switch
    /// behaviour rather than access recency classes — this variant lets us
    /// measure that claim.
    Srrip,
}

impl PolicyKind {
    /// Every policy, for sweep experiments.
    pub const ALL: [PolicyKind; 8] = [
        PolicyKind::Plru,
        PolicyKind::Lru,
        PolicyKind::MrtPlru,
        PolicyKind::MrtLru,
        PolicyKind::Lrc,
        PolicyKind::Fifo,
        PolicyKind::Random,
        PolicyKind::Srrip,
    ];

    /// Short label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            PolicyKind::Plru => "PLRU",
            PolicyKind::Lru => "LRU",
            PolicyKind::MrtPlru => "MRT-PLRU",
            PolicyKind::MrtLru => "MRT-LRU",
            PolicyKind::Lrc => "LRC",
            PolicyKind::Fifo => "FIFO",
            PolicyKind::Random => "Random",
            PolicyKind::Srrip => "SRRIP",
        }
    }
}

/// Full configuration of one near-memory core.
#[derive(Clone, Copy, Debug)]
pub struct CoreConfig {
    /// Hardware threads the core schedules (paper: 4–10).
    pub nthreads: usize,
    /// Context engine.
    pub engine: EngineKind,
    /// Physical register-file entries for [`EngineKind::ViReC`] and the
    /// prefetching engines (Table 1: 24–120). Ignored by banked/software.
    pub phys_regs: usize,
    /// Replacement policy for the ViReC register cache.
    pub policy: PolicyKind,
    /// Store-queue entries (Table 1: 5).
    pub sq_entries: usize,
    /// Instruction cache.
    pub icache: CacheConfig,
    /// Data cache (the ViReC backing store).
    pub dcache: CacheConfig,
    /// Non-blocking BSI pipelines several fill/spill requests (§5.3). The
    /// NSF baseline sets this to false.
    pub nonblocking_bsi: bool,
    /// Write dummy values for destination-only registers instead of waiting
    /// for the backing store (§5.3). The NSF baseline sets this to false.
    pub dummy_fill_opt: bool,
    /// Pin register lines in the dcache while their registers are live in
    /// the RF (§5.3). The NSF baseline sets this to false.
    pub reg_line_pinning: bool,
    /// Static backward-taken/forward-not-taken branch prediction.
    pub branch_pred: bool,
    /// **Extension (paper future work):** on each eviction, evict up to
    /// this many registers at once (committed registers of the same victim
    /// thread), amortizing spill traffic and pre-freeing entries. 1 =
    /// the paper's baseline single-victim behaviour.
    pub group_evict: usize,
    /// **Extension (paper future work):** combine prefetching with ViReC
    /// caching — on a context switch, prefetch the registers the incoming
    /// thread held at its last suspension (bounded, low priority, never on
    /// the critical path).
    pub switch_prefetch: bool,
    /// Spare VRMU CAM ways provisioned for RAS retirement: physically
    /// present but masked until a failing way is retired onto one. 0 (the
    /// default) keeps the tag store exactly as the paper sizes it.
    pub spare_ways: usize,
    /// Maximum cycles a single run may take before
    /// aborting (safety net for misconfigured experiments).
    pub max_cycles: u64,
}

impl CoreConfig {
    /// The paper's ViReC core (Table 1): 1 GHz single-issue, 24–120 regs,
    /// 5-entry SQ, 1 outstanding load, 32 KiB icache / 8 KiB dcache.
    pub fn virec(nthreads: usize, phys_regs: usize) -> CoreConfig {
        CoreConfig {
            nthreads,
            engine: EngineKind::ViReC,
            phys_regs,
            policy: PolicyKind::Lrc,
            sq_entries: 5,
            icache: CacheConfig::nmp_icache(),
            dcache: CacheConfig::nmp_dcache(),
            nonblocking_bsi: true,
            dummy_fill_opt: true,
            reg_line_pinning: true,
            branch_pred: true,
            group_evict: 1,
            switch_prefetch: false,
            spare_ways: 0,
            max_cycles: 200_000_000,
        }
    }

    /// The paper's banked core (Table 1): one 32-register bank per thread.
    pub fn banked(nthreads: usize) -> CoreConfig {
        let phys_regs = nthreads.saturating_mul(32);
        CoreConfig {
            engine: EngineKind::Banked,
            ..CoreConfig::virec(nthreads, phys_regs)
        }
    }

    /// A plain single-thread in-order core (the CVA6-like baseline).
    pub fn inorder() -> CoreConfig {
        CoreConfig::banked(1)
    }

    /// Software context switching on top of the banked pipeline structure.
    pub fn software(nthreads: usize) -> CoreConfig {
        CoreConfig {
            engine: EngineKind::Software,
            ..CoreConfig::virec(nthreads, 32)
        }
    }

    /// Full-context double-buffer prefetching (§6.1).
    pub fn prefetch_full(nthreads: usize, regs_per_thread: usize) -> CoreConfig {
        CoreConfig {
            engine: EngineKind::PrefetchFull,
            ..CoreConfig::virec(nthreads, 2 * regs_per_thread)
        }
    }

    /// Oracle exact-context prefetching (§6.1).
    pub fn prefetch_exact(nthreads: usize, regs_per_thread: usize) -> CoreConfig {
        CoreConfig {
            engine: EngineKind::PrefetchExact,
            ..CoreConfig::virec(nthreads, 2 * regs_per_thread)
        }
    }

    /// The NSF baseline \[41\]: register caching with PLRU and none of the
    /// ViReC system optimizations.
    pub fn nsf(nthreads: usize, phys_regs: usize) -> CoreConfig {
        CoreConfig {
            policy: PolicyKind::Plru,
            nonblocking_bsi: false,
            dummy_fill_opt: false,
            reg_line_pinning: false,
            ..CoreConfig::virec(nthreads, phys_regs)
        }
    }

    /// Physical RF entries for a ViReC core storing `ctx_fraction` of each
    /// thread's active context (Figure 1/9/10 sweeps: 0.4, 0.6, 0.8, 1.0).
    pub fn virec_for_context(
        nthreads: usize,
        active_ctx_regs: usize,
        ctx_fraction: f64,
    ) -> CoreConfig {
        let regs = ((active_ctx_regs * nthreads) as f64 * ctx_fraction).ceil() as usize;
        // The RF must at least hold the registers of one in-flight
        // instruction per pipeline stage.
        CoreConfig::virec(nthreads, regs.max(12))
    }

    /// Checks internal consistency, naming the first violated invariant.
    /// The fallible entry points (`try_run_single`, `System::try_new*`,
    /// `TaskService::new`) surface the message as a typed config error;
    /// `Core::new` panics with it.
    pub fn validate(&self) -> Result<(), String> {
        if self.nthreads == 0 {
            return Err("need at least one thread".into());
        }
        if self.sq_entries == 0 {
            return Err("need at least one store-queue entry".into());
        }
        if self.engine == EngineKind::ViReC {
            if self.nthreads > MAX_THREADS {
                return Err(format!(
                    "the VRMU tags at most {MAX_THREADS} threads, got {}",
                    self.nthreads
                ));
            }
            if self.phys_regs < MIN_ACTIVE_WAYS {
                return Err(format!(
                    "ViReC RF must hold at least {MIN_ACTIVE_WAYS} registers (in-flight window), got {}",
                    self.phys_regs
                ));
            }
            if self.phys_regs.saturating_add(self.spare_ways) > MAX_WAYS {
                return Err(format!(
                    "the VRMU indexes at most {MAX_WAYS} ways, got {} + {} spare",
                    self.phys_regs, self.spare_ways
                ));
            }
            if self.group_evict == 0 {
                return Err("group_evict must be at least 1".into());
            }
        }
        Ok(())
    }
}

/// Parses the CLI spelling of a policy, case-insensitively: `lrc`,
/// `mrt-plru` (or `mrtplru`), `plru`, `lru`, `mrt-lru` (or `mrtlru`),
/// `fifo`, `random`.
impl std::str::FromStr for PolicyKind {
    type Err = String;

    fn from_str(s: &str) -> Result<PolicyKind, String> {
        Ok(match s.to_ascii_lowercase().as_str() {
            "lrc" => PolicyKind::Lrc,
            "mrt-plru" | "mrtplru" => PolicyKind::MrtPlru,
            "plru" => PolicyKind::Plru,
            "lru" => PolicyKind::Lru,
            "mrt-lru" | "mrtlru" => PolicyKind::MrtLru,
            "fifo" => PolicyKind::Fifo,
            "random" => PolicyKind::Random,
            _ => return Err(format!("unknown policy {s:?}")),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_consistent() {
        for cfg in [
            CoreConfig::virec(8, 64),
            CoreConfig::banked(8),
            CoreConfig::inorder(),
            CoreConfig::software(4),
            CoreConfig::nsf(8, 32),
            CoreConfig::prefetch_full(4, 8),
        ] {
            assert_eq!(cfg.validate(), Ok(()));
        }
    }

    #[test]
    fn banked_has_full_contexts() {
        let c = CoreConfig::banked(8);
        assert_eq!(c.phys_regs, 8 * 32);
        assert_eq!(c.engine, EngineKind::Banked);
    }

    #[test]
    fn context_fraction_sizing() {
        // gather: 8 active regs, 4 threads → 32 regs at 100%, 13 at 40%.
        let full = CoreConfig::virec_for_context(4, 8, 1.0);
        assert_eq!(full.phys_regs, 32);
        let small = CoreConfig::virec_for_context(4, 8, 0.4);
        assert_eq!(small.phys_regs, 13);
        // 8 threads: 26 at 40%, 64 at 100% (paper's ranges).
        assert_eq!(CoreConfig::virec_for_context(8, 8, 0.4).phys_regs, 26);
        assert_eq!(CoreConfig::virec_for_context(8, 8, 1.0).phys_regs, 64);
    }

    #[test]
    fn nsf_disables_optimizations() {
        let c = CoreConfig::nsf(8, 32);
        assert!(!c.nonblocking_bsi);
        assert!(!c.dummy_fill_opt);
        assert!(!c.reg_line_pinning);
        assert_eq!(c.policy, PolicyKind::Plru);
    }

    #[test]
    fn tiny_virec_rf_rejected() {
        let e = CoreConfig::virec(8, 4).validate().unwrap_err();
        assert!(e.contains("at least 12 registers"), "{e}");
    }

    #[test]
    fn policy_labels_unique() {
        let mut labels: Vec<_> = PolicyKind::ALL.iter().map(|p| p.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), PolicyKind::ALL.len());
    }
}
