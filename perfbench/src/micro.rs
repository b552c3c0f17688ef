//! Layer microbenchmarks for what a span cannot reach from outside: the
//! VRMU tag store, the data cache, and a fabric request round trip. Each
//! replays the workload's own register and address streams, captured by
//! stepping the golden interpreter, not synthetic uniform addresses.

use std::hint::black_box;
use std::time::Instant;

use virec_core::vrmu::{AllocOutcome, TagStore};
use virec_core::PolicyKind;
use virec_isa::interp::effective_address;
use virec_isa::{FlatMem, Instr, Interpreter, Reg, ThreadCtx};
use virec_mem::{
    line_of, AccessKind, AccessResult, Cache, CacheConfig, Fabric, FabricConfig, FabricTopology,
};
use virec_workloads::Workload;

use crate::drive::mem_size;

/// Instructions captured per kernel; bounds the replay time.
const CAPTURE_INSTRS: usize = 40_000;

/// Requests kept in flight by the fabric round-trip replay (the dcache's
/// MSHR count would allow more; four keeps queueing visible but bounded).
const FABRIC_WINDOW: usize = 4;

/// A kernel's register and memory reference streams.
#[derive(Default)]
pub struct Streams {
    /// `(thread, register)` per register operand, in execution order.
    pub regs: Vec<(u8, Reg)>,
    /// `(address, is_write)` per load and store, in execution order.
    pub mem: Vec<(u64, bool)>,
}

/// Steps the golden interpreter over `w`'s threads and records every
/// register operand and effective address. Threads switch after each load,
/// the way the core switches on a long-latency access.
pub fn capture(w: &Workload, nthreads: usize, s: &mut Streams) {
    let mut mem = FlatMem::new(0, mem_size(w));
    w.init_mem(&mut mem);
    let mut ctxs: Vec<ThreadCtx> = (0..nthreads)
        .map(|t| {
            let mut ctx = ThreadCtx::new();
            for (r, v) in w.thread_ctx(t, nthreads) {
                ctx.set(r, v);
            }
            ctx
        })
        .collect();
    let prog = w.program();
    let mut t = 0;
    for _ in 0..CAPTURE_INSTRS {
        if ctxs.iter().all(|c| c.halted) {
            break;
        }
        while ctxs[t].halted {
            t = (t + 1) % nthreads;
        }
        let ctx = &mut ctxs[t];
        let instr = prog.fetch(ctx.pc);
        for r in instr.regs().iter().filter(|r| !r.is_zero()) {
            s.regs.push((t as u8, r));
        }
        let mut switch = false;
        match instr {
            Instr::Ldr { base, offset, .. } => {
                s.mem.push((effective_address(ctx, base, offset), false));
                switch = true;
            }
            Instr::Str { base, offset, .. } => {
                s.mem.push((effective_address(ctx, base, offset), true));
            }
            _ => {}
        }
        Interpreter::new(prog, &mut mem).step(ctx);
        if switch || ctx.halted {
            t = (t + 1) % nthreads;
        }
    }
}

/// Mean host nanoseconds per operation of each microbenchmark.
pub struct Micro {
    pub vrmu_lookup_ns: f64,
    pub vrmu_allocate_ns: f64,
    pub vrmu_evict_ns: f64,
    pub cache_access_ns: f64,
    pub fabric_roundtrip_ns: f64,
    pub noc_roundtrip_ns: f64,
}

pub fn run(s: &Streams, phys_regs: usize) -> Micro {
    let (vrmu_lookup_ns, vrmu_allocate_ns, vrmu_evict_ns) = vrmu(s, phys_regs);
    Micro {
        vrmu_lookup_ns,
        vrmu_allocate_ns,
        vrmu_evict_ns,
        cache_access_ns: cache(s),
        fabric_roundtrip_ns: roundtrip(s, FabricConfig::default()),
        noc_roundtrip_ns: roundtrip(
            s,
            FabricConfig {
                topology: FabricTopology::Mesh { cols: 2, rows: 2 },
                ..FabricConfig::default()
            },
        ),
    }
}

fn per_op(ns: u128, ops: usize) -> f64 {
    ns as f64 / ops.max(1) as f64
}

/// Replays the register stream through a tag store sized like the
/// workload's ViReC configuration: a miss allocates (evicting when full),
/// and each thread switch evicts one extra entry through `evict_one`.
/// Allocation and eviction are timed per call; lookups are timed as a
/// separate pass over the warmed store so no timer sits inside them.
fn vrmu(s: &Streams, phys_regs: usize) -> (f64, f64, f64) {
    let mut ts = TagStore::new(phys_regs, PolicyKind::Lrc);
    let (mut alloc_ns, mut allocs, mut evict_ns, mut evicts) = (0u128, 0usize, 0u128, 0usize);
    let mut last_tid = None;
    for &(tid, reg) in &s.regs {
        if last_tid.is_some_and(|t| t != tid) {
            let t0 = Instant::now();
            black_box(ts.evict_one());
            evict_ns += t0.elapsed().as_nanos();
            evicts += 1;
        }
        last_tid = Some(tid);
        match ts.lookup(tid, reg) {
            Some(idx) => ts.touch(idx),
            None => {
                let t0 = Instant::now();
                let out = ts.allocate(tid, reg);
                alloc_ns += t0.elapsed().as_nanos();
                allocs += 1;
                assert_ne!(out, AllocOutcome::NoVictim, "nothing is locked");
            }
        }
    }
    let t0 = Instant::now();
    let mut hits = 0usize;
    for &(tid, reg) in &s.regs {
        hits += black_box(ts.lookup(tid, reg)).is_some() as usize;
    }
    black_box(hits);
    let lookup_ns = per_op(t0.elapsed().as_nanos(), s.regs.len());
    (
        lookup_ns,
        per_op(alloc_ns, allocs),
        per_op(evict_ns, evicts),
    )
}

/// Advances a cache and its fabric to their next event (at least one
/// cycle), as the event-driven loop does, and ticks both there.
fn step(now: u64, cache: &mut Cache, fabric: &mut Fabric) -> u64 {
    let next = [cache.next_event(now, fabric), fabric.next_event(now)]
        .into_iter()
        .flatten()
        .min()
        .map_or(now + 1, |t| t.max(now + 1));
    fabric.tick(next);
    cache.tick(next, fabric);
    next
}

/// Replays the address stream through the paper's data cache; each access
/// is issued once the previous one completed (one outstanding load, as the
/// core allows). Reports host time per access, including the event-driven
/// fabric and cache ticks that complete its miss.
fn cache(s: &Streams) -> f64 {
    let mut fabric = Fabric::new(FabricConfig::default());
    let mut cache = Cache::new(CacheConfig::nmp_dcache(), 1);
    let mut now = 0u64;
    let t0 = Instant::now();
    for &(addr, is_write) in &s.mem {
        let kind = if is_write {
            AccessKind::DataStore
        } else {
            AccessKind::DataLoad
        };
        loop {
            match cache.access(now, addr, kind, &mut fabric) {
                AccessResult::Hit { ready_at } => {
                    now = ready_at.max(now + 1);
                    break;
                }
                AccessResult::Miss { mshr } => {
                    while !cache.mshr_ready(mshr, now) {
                        now = step(now, &mut cache, &mut fabric);
                    }
                    cache
                        .mshr_retire(mshr)
                        .expect("a ready MSHR retires cleanly");
                    now += 1;
                    break;
                }
                AccessResult::NoPort | AccessResult::NoMshr => {
                    now = step(now, &mut cache, &mut fabric);
                }
            }
        }
    }
    black_box(cache.stats().hits);
    per_op(t0.elapsed().as_nanos(), s.mem.len())
}

/// Replays the stream's line requests as fabric submit → `is_done` →
/// `retire` round trips, `FABRIC_WINDOW` in flight, advancing the clock to
/// the fabric's next event or response. Reports host time per request.
fn roundtrip(s: &Streams, cfg: FabricConfig) -> f64 {
    let mut fabric = Fabric::new(cfg);
    let mut inflight = Vec::with_capacity(FABRIC_WINDOW);
    let mut now = 0u64;
    let mut next = 0;
    let t0 = Instant::now();
    while next < s.mem.len() || !inflight.is_empty() {
        while inflight.len() < FABRIC_WINDOW && next < s.mem.len() {
            let (addr, is_write) = s.mem[next];
            inflight.push(fabric.submit(now, 1, line_of(addr), is_write));
            next += 1;
        }
        fabric.tick(now);
        inflight.retain(|&tok| {
            if fabric.is_done(tok, now) {
                fabric.retire(tok);
                false
            } else {
                true
            }
        });
        if inflight.len() == FABRIC_WINDOW || next == s.mem.len() {
            let wake = inflight
                .iter()
                .filter_map(|&tok| fabric.done_at(tok))
                .chain(fabric.next_event(now))
                .min();
            now = wake.map_or(now + 1, |t| t.max(now + 1));
        } else {
            now += 1;
        }
    }
    per_op(t0.elapsed().as_nanos(), s.mem.len())
}
