//! Benchmark harness for the IMP reproduction.
//!
//! Each bench target under `benches/` regenerates one table or figure of
//! the paper: it prints the paper-style rows once (the reproduction
//! artifact), then runs a small Criterion measurement of a representative
//! simulation so `cargo bench` reports a stable timing signal.
//!
//! Knobs:
//! * `IMP_SCALE=tiny|small|large` — input sizing (default `small`).
//! * `IMP_BENCH_CORES=16,64` — restrict the core counts swept by the
//!   multi-panel figures (default: the paper's 16, 64, 256).

use criterion::Criterion;
use imp_experiments::{sim_for, Config};
use imp_workloads::Scale;

/// Writes `table` as a machine-readable `BENCH_<name>.json` perf
/// snapshot into `IMP_BENCH_DIR` (default: the current directory) and
/// returns the path. Benches call this after printing their
/// human-readable rows so CI can archive the numbers; a failed write
/// warns instead of failing the bench. The JSON carries a
/// `"provenance"` object (git SHA, rustc version, host core count) so
/// archived snapshots stay comparable across machines and revisions,
/// and the process's peak resident memory so far (`peak_rss_mb`), which
/// covers the grids the bench ran before emitting.
pub fn emit_snapshot(name: &str, table: &imp_experiments::Table) -> std::path::PathBuf {
    let dir = std::env::var_os("IMP_BENCH_DIR")
        .map_or_else(|| std::path::PathBuf::from("."), std::path::PathBuf::from);
    let path = dir.join(format!("BENCH_{name}.json"));
    let mut json = table.to_json();
    debug_assert!(json.ends_with('}'));
    json.pop();
    json.push_str(&format!(",\"provenance\":{}}}", provenance_json()));
    if let Err(e) = std::fs::write(&path, json) {
        eprintln!("warning: could not write {}: {e}", path.display());
    }
    path
}

/// One line of trimmed stdout from `cmd args...`, or `None` if the
/// command is missing or failed.
fn command_line(cmd: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(cmd).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8(out.stdout).ok()?;
    let line = text.lines().next()?.trim();
    (!line.is_empty()).then(|| line.to_string())
}

/// The `"provenance"` object embedded in every snapshot: where and
/// from what the numbers came, and the memory it took. Every string
/// field degrades to `"unknown"` and `peak_rss_mb` to `null` rather
/// than failing the bench (e.g. outside a git checkout, or off Linux).
fn provenance_json() -> String {
    fn escape(s: &str) -> String {
        s.replace('\\', "\\\\").replace('"', "\\\"")
    }
    let unknown = || "unknown".to_string();
    let sha = command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(unknown);
    let rustc = command_line("rustc", &["-V"]).unwrap_or_else(unknown);
    let cores = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    let rss = peak_rss_mb().map_or_else(|| "null".to_string(), |mb| format!("{mb:.1}"));
    format!(
        "{{\"git_sha\":\"{}\",\"rustc\":\"{}\",\"host_cores\":{cores},\"peak_rss_mb\":{rss}}}",
        escape(&sha),
        escape(&rustc)
    )
}

/// Peak resident memory of this process so far, in MiB: the kernel's
/// `VmHWM` high-water mark from `/proc/self/status`.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    let kb: f64 = kb.trim().strip_suffix("kB")?.trim().parse().ok()?;
    Some(kb / 1024.0)
}

/// Core counts for multi-panel figures, from `IMP_BENCH_CORES` or the
/// paper's default sweep.
///
/// # Panics
///
/// Panics if `IMP_BENCH_CORES` holds a token that is not a core count,
/// or lists none.
pub fn bench_core_counts() -> Vec<u32> {
    match std::env::var("IMP_BENCH_CORES") {
        Ok(s) => parse_core_counts(&s),
        Err(_) => vec![16, 64, 256],
    }
}

/// Parses a comma-separated core-count list; empty tokens are skipped.
fn parse_core_counts(list: &str) -> Vec<u32> {
    let counts: Vec<u32> = list
        .split(',')
        .map(str::trim)
        .filter(|t| !t.is_empty())
        .map(|t| {
            t.parse()
                .unwrap_or_else(|e| panic!("IMP_BENCH_CORES: bad core count {t:?}: {e}"))
        })
        .collect();
    assert!(
        !counts.is_empty(),
        "IMP_BENCH_CORES lists no core count: {list:?}"
    );
    counts
}

/// Standard Criterion measurement attached to every figure bench: one
/// fresh 16-core tiny-scale simulation of the given app/config.
pub fn criterion_probe(c: &mut Criterion, name: &str, app: &'static str, config: Config) {
    let sim = sim_for(app, 16, config).scale(Scale::Tiny);
    let mut group = c.benchmark_group(name);
    group.sample_size(10);
    group.bench_function("tiny_16c_probe", |b| {
        b.iter(|| std::hint::black_box(sim.run().unwrap_or_else(|e| panic!("{e}")).runtime))
    });
    group.finish();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn core_counts_skip_empty_tokens() {
        assert_eq!(parse_core_counts("16, 64,"), vec![16, 64]);
    }

    #[test]
    #[should_panic(expected = "bad core count \"abc\"")]
    fn a_bad_core_count_panics_with_the_token() {
        parse_core_counts("16,abc");
    }

    #[test]
    #[should_panic(expected = "lists no core count")]
    fn an_empty_core_count_list_panics() {
        parse_core_counts(" , ");
    }

    #[test]
    fn snapshot_embeds_provenance() {
        let dir = std::env::temp_dir().join(format!("imp-bench-prov-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::env::set_var("IMP_BENCH_DIR", &dir);
        let mut table = imp_experiments::Table::new("prov".into(), vec!["runtime"]);
        table.row("x", vec![1.0]);
        let path = emit_snapshot("prov_test", &table);
        std::env::remove_var("IMP_BENCH_DIR");
        let json = std::fs::read_to_string(&path).unwrap();
        assert!(json.contains("\"provenance\""), "{json}");
        for key in [
            "\"git_sha\":",
            "\"rustc\":",
            "\"host_cores\":",
            "\"peak_rss_mb\":",
        ] {
            assert!(json.contains(key), "missing {key}: {json}");
        }
        let rss = json.split("\"peak_rss_mb\":").nth(1).unwrap();
        let rss = rss.trim_end_matches('}');
        if cfg!(target_os = "linux") {
            let mb: f64 = rss.parse().unwrap_or_else(|e| panic!("{rss}: {e}"));
            assert!(mb > 0.0, "a running process has resident memory: {json}");
        } else {
            assert!(rss == "null" || rss.parse::<f64>().is_ok(), "{json}");
        }
        assert!(
            !json.contains("\"host_cores\":0"),
            "parallelism resolves on this host: {json}"
        );
        assert!(json.ends_with("}}"), "table object stays closed: {json}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
