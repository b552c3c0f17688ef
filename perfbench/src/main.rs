//! The ViReC simulator benchmark.
//!
//! ```text
//! perfbench --workload <sweep_small|serve_mesh|campaign_secded>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it sets the workload up several times (reporting the
//! median set-up time), then runs measured rounds for `--seconds` and
//! prints the end-to-end metrics. With `--trace 1` it runs each job once
//! through a traced copy of the runner's loop and prints per-layer metrics.
//! Either way the last line of standard output is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. Every job is checked
//! against the golden interpreter; a failed check counts the job as
//! failed. A traced loop that disagrees with `try_run_single` aborts the
//! traced run with a nonzero exit. NOTES.md documents the workloads and
//! metrics.

mod drive;
mod layers;
mod micro;
mod trace;
mod work;

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use trace::Tracer;
use work::{Bench, Kind, Round};

/// Set-up repetitions per end-to-end run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit }
    }
}

pub struct Output {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Output {
    fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_num(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A finite number as JSON (all digits: Rust prints the shortest string
/// that reads back as the same `f64`).
pub fn json_num(v: f64) -> String {
    assert!(v.is_finite(), "metric is not a finite number: {v}");
    format!("{v}")
}

struct Args {
    kind: Kind,
    name: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let name = get("--workload")?.to_string();
    let kind = Kind::parse(&name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let seed = get("--seed")?
        .parse()
        .map_err(|_| "--seed must be a whole number".to_string())?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|_| "--seconds must be a number".to_string())?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        _ => return Err("--trace must be 0 or 1".into()),
    };
    Ok(Args {
        kind,
        name,
        seed,
        seconds,
        trace,
    })
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile.
fn percentile(mut v: Vec<u64>, p: f64) -> u64 {
    v.sort_unstable();
    let rank = ((p * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// CPU seconds (user plus system) this process has used.
#[cfg(target_os = "linux")]
pub fn cpu_seconds() -> f64 {
    /// `struct rusage` on 64-bit Linux: two `timeval`s (seconds,
    /// microseconds), then 14 longs.
    #[repr(C)]
    struct RUsage {
        utime: [i64; 2],
        stime: [i64; 2],
        rest: [i64; 14],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut RUsage) -> i32;
    }
    let mut ru = RUsage {
        utime: [0; 2],
        stime: [0; 2],
        rest: [0; 14],
    };
    // SAFETY: RUSAGE_SELF (0) asks getrusage to fill one `struct rusage`,
    // whose 64-bit Linux layout `RUsage` mirrors field for field; the
    // pointer is to a live, aligned, writable value of that size.
    let rc = unsafe { getrusage(0, &mut ru) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
    let secs = |tv: [i64; 2]| tv[0] as f64 + tv[1] as f64 * 1e-6;
    secs(ru.utime) + secs(ru.stime)
}

/// Counts live heap bytes and their high-water mark, the memory metric:
/// unlike the resident set, live bytes do not depend on when the
/// allocator returns memory to the system.
struct CountingAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counters are
// statistics that no allocation depends on.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
            grew(new_size);
        }
        p
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Peak live heap bytes so far, in MiB.
fn peak_heap_mb() -> f64 {
    PEAK.load(Ordering::Relaxed) as f64 / (1u64 << 20) as f64
}

fn end_to_end(kind: Kind, name: &str, seed: u64, seconds: f64) -> Result<Output, String> {
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut bench = None;
    for _ in 0..SETUP_REPS {
        drop(bench.take());
        let t0 = Instant::now();
        bench = Some(Bench::setup(kind, seed, &mut Tracer::new(false))?);
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let mut bench = bench.expect("at least one set-up");

    // Whole periods only, and at least two, so every unit of work is timed
    // at least twice and every run checks a repeat of its inputs.
    let period = kind.period();
    let mut rounds: Vec<Round> = Vec::new();
    let t0 = Instant::now();
    while rounds.len() < 2 * period
        || !rounds.len().is_multiple_of(period)
        || t0.elapsed().as_secs_f64() < seconds
    {
        rounds.push(bench.round(rounds.len()));
    }

    let attempted: u64 = rounds.iter().map(Round::jobs).sum();
    let failed: u64 = rounds.iter().map(|r| r.failed).sum();
    let mut errors: Vec<String> = rounds.iter().flat_map(|r| r.errors.clone()).collect();
    for r in period..rounds.len() {
        if rounds[r].fingerprint != rounds[r - period].fingerprint {
            errors.push(format!(
                "round {r} did not reproduce round {}: simulated cycles or digests differ",
                r - period
            ));
        }
    }
    for e in errors.iter().take(10) {
        eprintln!("perfbench {name}: {e}");
    }

    // Each unit of work is timed every time it repeats; host time is the
    // sum of the units' median times, so a burst of interference moves it
    // only if it hits most repeats of a unit.
    let mut per_key: BTreeMap<usize, (Vec<f64>, [u64; 3])> = BTreeMap::new();
    for u in rounds.iter().flat_map(|r| &r.units) {
        let e = per_key
            .entry(u.key)
            .or_insert_with(|| (Vec::new(), [u.jobs, u.instrs, u.cycles]));
        e.0.push(u.cpu_s);
    }
    let host_s: f64 = per_key.values().map(|(t, _)| median(t.clone())).sum();

    let work = |i: usize| per_key.values().map(|(_, w)| w[i]).sum::<u64>() as f64;
    let latencies: Vec<u64> = rounds[..period]
        .iter()
        .flat_map(|r| r.latencies.clone())
        .collect();
    eprintln!(
        "perfbench {name}: {} rounds in {:.2} s, {attempted} jobs, {failed} failed",
        rounds.len(),
        t0.elapsed().as_secs_f64()
    );
    Ok(Output {
        correct: errors.is_empty(),
        attempted,
        failed,
        metrics: vec![
            Metric::new("jobs_per_s", work(0) / host_s, "1/s"),
            Metric::new("sim_mips", work(1) / host_s / 1e6, "Minstr/s"),
            Metric::new("sim_mcps", work(2) / host_s / 1e6, "Mcycles/s"),
            Metric::new("peak_heap_mb", peak_heap_mb(), "MiB"),
            Metric::new("setup_s", median(setup_s), "s"),
            Metric::new("sim_ipc", work(1) / work(2), "instr/cycle"),
            Metric::new("p99_cycles", percentile(latencies, 0.99) as f64, "cycles"),
        ],
    })
}

/// Fixes glibc's allocator in the regime a long-running simulator process
/// settles into: every 16 MiB image (`FlatMem`, golden copy, checkpoint)
/// is recycled from the heap and the heap is never trimmed. By default
/// glibc slides its mmap threshold and trims the heap depending on the
/// order of earlier frees, which the simulator's randomly seeded hash maps
/// vary, so an identical run pays fresh page faults for its images or not.
#[cfg(target_os = "linux")]
fn fix_allocator_regime() {
    const M_TRIM_THRESHOLD: i32 = -1;
    const M_MMAP_THRESHOLD: i32 = -3;
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    for (param, value) in [(M_MMAP_THRESHOLD, 32 << 20), (M_TRIM_THRESHOLD, i32::MAX)] {
        // SAFETY: mallopt takes two integers and only sets allocator
        // parameters; it runs first in `main`, before any other thread.
        let ok = unsafe { mallopt(param, value) };
        assert_eq!(ok, 1, "mallopt({param}, {value}) failed");
    }
}

fn main() -> ExitCode {
    fix_allocator_regime();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "perfbench: {e}\nusage: perfbench --workload \
                 <sweep_small|serve_mesh|campaign_secded> --seed <n> \
                 --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let out = if args.trace {
        layers::traced(args.kind, &args.name, args.seed)
    } else {
        end_to_end(args.kind, &args.name, args.seed, args.seconds)
    };
    match out {
        Ok(o) => {
            println!("{}", o.to_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench {}: {e}", args.name);
            ExitCode::FAILURE
        }
    }
}
