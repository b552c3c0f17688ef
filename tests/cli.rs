//! The `virec-cli` input contract: bad input is a usage or config error
//! (exit 2 with an `error` line, never a panic or a silent default), valid
//! input keeps its exact output, and the usage text lists exactly the flags
//! each subcommand accepts.

use std::path::PathBuf;
use std::process::{Command, Output};

/// Runs `virec-cli args` with no sweep knobs from the environment but
/// `env`.
fn cli_env(args: &[&str], env: &[(&str, &str)]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_virec-cli"))
        .args(args)
        .env("VIREC_RESULTS", "off")
        .env_remove("VIREC_INTERRUPT_AFTER")
        .env_remove("VIREC_RESUME")
        .env_remove("VIREC_DEADLINE_MS")
        .envs(env.iter().copied())
        .output()
        .expect("virec-cli runs")
}

fn cli(args: &[&str]) -> Output {
    cli_env(args, &[])
}

fn words(line: &str) -> Vec<&str> {
    line.split_whitespace().collect()
}

#[test]
fn bad_input_exits_2_without_a_panic_or_a_silent_default() {
    for args in [
        // Below the 12-entry in-flight window.
        "run --workload gather --n 256 --regs 5",
        // Past the VRMU's 32-thread tag space.
        "run --workload gather --n 256 --threads 300",
        "run --workload gather --n 256 --group-evict abc",
        // A misspelled --faults.
        "campaign --n 256 --fault 8",
        "area --threads abc",
        "tune --n 256 --budgets 2 --capacities 4",
    ] {
        let out = cli(&words(args));
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "`{args}`: {stderr}");
        assert!(stderr.contains("error"), "`{args}`: {stderr}");
        assert!(!stderr.contains("panicked"), "`{args}`: {stderr}");
        assert!(out.stdout.is_empty(), "`{args}` must not run");
    }
}

#[test]
fn valid_run_output_is_unchanged() {
    let out = cli(&words("run --workload gather --n 256 --threads 4"));
    assert_eq!(out.status.code(), Some(0));
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        "\
workload          : gather (n=256)
engine            : virec, 4 threads, 32 regs, policy Lrc
cycles                : 4275
instructions          : 1544
IPC                   : 0.3612
context switches      : 100
switches masked       : 12
run length            : 15.4
RF hit rate           : 98.76%
RF spills             : 10
RF dummy fills        : 9
dcache hit rate       : 84.34%
icache hit rate       : 99.95%
stall: reg fill       : 636
stall: mem block      : 540
stall: idle           : 1
stall: fetch          : 154
stall: sq full        : 0
branch mispredicts    : 4
"
    );
}

/// The `--flag` tokens of `cmd`'s block in the usage text.
fn usage_flags(usage: &str, cmd: &str) -> Vec<String> {
    let opens_block = |l: &str| l.trim_start().starts_with("virec-cli ");
    let mut lines = usage
        .lines()
        .skip_while(|l| !(opens_block(l) && words(l)[1] == cmd));
    let first = lines
        .next()
        .unwrap_or_else(|| panic!("usage has no `{cmd}` block"));
    std::iter::once(first)
        .chain(lines.take_while(|l| !opens_block(l) && !l.trim().is_empty()))
        .flat_map(str::split_whitespace)
        .map(|w| w.trim_matches(|c| matches!(c, '[' | ']' | '(' | ')')))
        .filter(|w| w.starts_with("--"))
        .map(str::to_string)
        .collect()
}

#[test]
fn usage_lists_exactly_the_accepted_flags() {
    let usage = String::from_utf8(cli(&[]).stderr).expect("utf-8 usage");
    for cmd in [
        "list", "run", "sweep", "campaign", "ras", "serve", "noc", "lint", "tv", "tune", "area",
    ] {
        let out = cli(&[cmd, "--no-such-flag"]);
        assert_eq!(out.status.code(), Some(2), "{cmd}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let accepted: Vec<&str> = stderr
            .split_once("accepted flags: [")
            .and_then(|(_, rest)| rest.split_once(']'))
            .unwrap_or_else(|| panic!("{cmd}: no flag list in {stderr:?}"))
            .0
            .split_whitespace()
            .collect();
        let listed = usage_flags(&usage, cmd);
        for flag in &accepted {
            assert!(
                listed.iter().any(|l| l == flag),
                "`virec-cli {cmd}` accepts {flag} but the usage text omits it"
            );
        }
        for flag in &listed {
            assert!(
                accepted.contains(&flag.as_str()),
                "the usage text lists {flag} for `virec-cli {cmd}`, which rejects it"
            );
        }
    }
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("virec_cli_{}_{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn invalid_config_rows_resume_byte_identically() {
    // Every cell is a 40-thread ViReC core, past the VRMU's tag space: each
    // must be a typed `config` row, and a journaled one must replay as
    // `config` after an interruption.
    let grid = "sweep --jobs 1 --n 256 --threads 40 --workloads gather,reduction --engines virec80";
    let clean = temp_dir("config_clean");
    let resumed = temp_dir("config_resumed");
    let run = |dir: &PathBuf, env: &[(&str, &str)], resume: bool| {
        let mut args = words(grid);
        args.extend(["--json", dir.to_str().expect("utf-8 temp path")]);
        if resume {
            args.push("--resume");
        }
        cli_env(&args, env)
    };

    let out = run(&clean, &[], false);
    assert_eq!(out.status.code(), Some(1), "failed cells fail the sweep");
    let json = std::fs::read_to_string(clean.join("sweep.json")).expect("results JSON");
    assert_eq!(
        json.matches("\"error_kind\": \"config\"").count(),
        2,
        "{json}"
    );
    assert!(!String::from_utf8_lossy(&out.stderr).contains("panicked"));

    assert_eq!(
        run(&resumed, &[("VIREC_INTERRUPT_AFTER", "1")], false)
            .status
            .code(),
        Some(130)
    );
    assert_eq!(run(&resumed, &[], true).status.code(), Some(1));
    let replayed = std::fs::read_to_string(resumed.join("sweep.json")).expect("results JSON");
    assert_eq!(json, replayed);

    let _ = std::fs::remove_dir_all(&clean);
    let _ = std::fs::remove_dir_all(&resumed);
}
