//! One benchmark command for the IMP simulator.
//!
//! ```text
//! cargo run --release --manifest-path simbench/Cargo.toml -- \
//!     --workload spmv_imp --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Prints human-readable lines first (provenance, seed, statistics
//! digest, sample counts) and, as the last line, one JSON object with
//! the keys `correct`, `attempted`, `failed` and `metrics`: the
//! end-to-end metrics with `--trace 0`, the per-layer ones with
//! `--trace 1`. See `README.md` beside this file.

mod metrics;
mod replay;
mod run;
mod stats;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Parsed command line.
#[derive(Debug, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1, 10.0, false);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                seconds = value.parse().map_err(|e| bad(&e))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(bad(&"must lie in (0, 600]"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// One line of trimmed stdout from `cmd args...`, or `"unknown"`.
fn command_line(cmd: &str, args: &[&str]) -> String {
    let mut command = std::process::Command::new(cmd);
    command.args(args);
    // Keep git from reporting the commit of a repository that merely
    // encloses the directory the benchmark runs in.
    if let Some(parent) = std::env::current_dir()
        .ok()
        .and_then(|d| d.parent().map(Path::to_path_buf))
    {
        command.env("GIT_CEILING_DIRECTORIES", parent);
    }
    command
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .and_then(|text| text.lines().next().map(|l| l.trim().to_string()))
        .filter(|l| !l.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The provenance fields every result carries: the same ones the
/// repository's bench snapshots record.
fn provenance() -> String {
    let cores = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    format!(
        "{{\"git_sha\":\"{}\",\"rustc\":\"{}\",\"host_cores\":{cores}}}",
        command_line("git", &["rev-parse", "HEAD"]),
        command_line("rustc", &["-V"])
    )
}

/// A scratch directory for this process's result stores, inside the
/// directory the benchmark runs in.
fn scratch_dir() -> Result<PathBuf, String> {
    let dir = PathBuf::from(".simbench-tmp").join(std::process::id().to_string());
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("simbench: {e}");
            eprintln!(
                "usage: simbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1]",
                run::WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let Some(plan) = run::plan(&args.workload, args.seed, None) else {
        eprintln!(
            "simbench: unknown workload {} (one of {})",
            args.workload,
            run::WORKLOADS.join(", ")
        );
        return ExitCode::from(2);
    };
    println!(
        "# simbench workload={} seed={} held_out_seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        run::HELD_OUT_SEED,
        args.seconds,
        u8::from(args.trace)
    );
    println!("# provenance {}", provenance());

    let outcome = scratch_dir().and_then(|tmp| {
        let outcome = run::measure(&plan, args.seconds, args.trace, &tmp);
        std::fs::remove_dir_all(&tmp).ok();
        if let Some(root) = tmp.parent() {
            // Only succeeds once no other run is using it.
            std::fs::remove_dir(root).ok();
        }
        outcome
    });
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("simbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    let missing = outcome.report.missing();
    if !missing.is_empty() {
        eprintln!("simbench: {}: no value for {missing:?}", args.workload);
        return ExitCode::FAILURE;
    }
    println!("# stats digest {:#018x}", outcome.digest);
    for note in &outcome.notes {
        println!("# {note}");
    }
    let g = &outcome.gate;
    println!(
        "# error_rate {} ({} of {} runs and passes failed)",
        g.failed as f64 / g.attempted as f64,
        g.failed,
        g.attempted
    );
    for (name, unit, value) in outcome.report.values() {
        println!("{name} = {value} {unit}");
    }
    println!("{}", outcome.report.to_json(g.attempted, g.failed));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_command_line() {
        let a = args("--workload sgd_nopf --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(
            a,
            Args {
                workload: "sgd_nopf".into(),
                seed: 7,
                seconds: 10.0,
                trace: true,
            }
        );
        assert!(args("--seed 7").is_err(), "workload is required");
        assert!(args("--workload x --trace 2").is_err());
        assert!(args("--workload x --seconds 0").is_err());
        assert!(args("--workload x --bogus 1").is_err());
        assert!(args("--workload x --seed").is_err());
    }

    /// Every workload's traced and untraced tiny-input runs print every
    /// declared metric of their table and pass every check.
    #[test]
    fn every_workload_prints_its_whole_table() {
        for workload in run::WORKLOADS {
            for trace in [false, true] {
                let plan = run::plan(workload, 3, Some(imp_workloads::Scale::Tiny)).unwrap();
                let tmp = std::env::temp_dir().join(format!(
                    "simbench-test-{}-{workload}-{trace}",
                    std::process::id()
                ));
                std::fs::create_dir_all(&tmp).unwrap();
                let outcome = run::measure(&plan, 0.01, trace, &tmp).unwrap();
                std::fs::remove_dir_all(&tmp).ok();
                assert!(
                    outcome.report.missing().is_empty(),
                    "{workload} trace={trace} misses {:?}",
                    outcome.report.missing()
                );
                assert_eq!(outcome.gate.failed, 0, "{workload} trace={trace}");
                for (name, _, _) in outcome.report.values() {
                    assert!(metrics::valid_name(name), "{name}");
                }
            }
        }
    }
}
