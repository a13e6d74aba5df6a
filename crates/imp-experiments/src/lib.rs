//! Experiment drivers: one function per table/figure of the paper's
//! evaluation (Section 6), plus the motivation figures (Section 2).
//!
//! Each driver runs the necessary simulations and returns a [`Table`]
//! whose rows mirror the paper's figure. Absolute cycle counts will not
//! match the authors' testbed (our substrate is a from-scratch simulator
//! and inputs are scaled), but the *shape* — who wins, by what factor,
//! where crossovers appear — is the reproduction target; see
//! `EXPERIMENTS.md` at the repository root for the full figure-to-driver
//! map and reproduction caveats.
//!
//! Scale selection: set `IMP_SCALE=tiny|small|large` (default `small`).
//!
//! # Example
//!
//! ```no_run
//! let t = imp_experiments::fig09_performance(16);
//! println!("{t}");
//! ```

mod knob;
mod runner;
pub mod service;
pub mod sim;
pub mod sweep;
mod table;

pub use knob::Knob;
pub use runner::{prewarm, run, run_one, scale_from_env, sim_for, system_config, Config};
pub use service::{RequestError, SweepRequest};
pub use sim::{Sim, SimError};
pub use sweep::{CellOutcome, Sweep, SweepCell, SweepCellError, SweepReport, SweepResult};
pub use table::{RowWidthError, Table};

use imp_common::stats::AccessClass;
use imp_common::SystemConfig;
use imp_prefetch::cost;

/// The paper's application order in every figure.
pub const APPS: [&str; 7] = [
    "pagerank",
    "tri_count",
    "graph500",
    "sgd",
    "lsh",
    "spmv",
    "symgs",
];

/// Core counts evaluated in the paper.
pub const CORE_COUNTS: [u32; 3] = [16, 64, 256];

/// Figure 1: L1 cache-miss breakdown (indirect / stream / other) on the
/// Baseline at 64 cores.
pub fn fig01_miss_breakdown(cores: u32) -> Table {
    prewarm(&APPS, cores, &[Config::Base]);
    let mut t = Table::new(
        format!("Fig 1: L1 miss breakdown, Baseline, {cores} cores"),
        vec!["indirect", "stream", "other"],
    );
    let mut avg = [0.0f64; 3];
    for app in APPS {
        let s = run(app, cores, Config::Base);
        let m = s.misses_by_class();
        let total: u64 = m.iter().sum::<u64>().max(1);
        let fr: Vec<f64> = m.iter().map(|&x| x as f64 / total as f64).collect();
        for (a, f) in avg.iter_mut().zip(fr.iter()) {
            *a += f / APPS.len() as f64;
        }
        t.row(app, fr);
    }
    t.row("avg", avg.to_vec());
    t
}

/// Figure 2: runtime normalized to Ideal, split into indirect-stall and
/// everything-else, plus the Perfect Prefetching bar.
pub fn fig02_motivation(cores: u32) -> Table {
    prewarm(
        &APPS,
        cores,
        &[Config::Ideal, Config::Base, Config::PerfPref],
    );
    let mut t = Table::new(
        format!("Fig 2: runtime normalized to Ideal, {cores} cores"),
        vec!["indirect-stall", "other", "total", "PerfPref"],
    );
    for app in APPS {
        let ideal = run(app, cores, Config::Ideal);
        let base = run(app, cores, Config::Base);
        let perf = run(app, cores, Config::PerfPref);
        let norm = base.runtime as f64 / ideal.runtime.max(1) as f64;
        let ind_stall: u64 = base
            .cores
            .iter()
            .map(|c| c.stall_cycles[AccessClass::Indirect.index()])
            .sum();
        let all_cycles: u64 = base.cores.iter().map(|c| c.done_cycle).sum::<u64>().max(1);
        let ind_frac = ind_stall as f64 / all_cycles as f64;
        t.row(
            app,
            vec![
                norm * ind_frac,
                norm * (1.0 - ind_frac),
                norm,
                perf.runtime as f64 / ideal.runtime.max(1) as f64,
            ],
        );
    }
    t
}

/// Figure 9: throughput of Baseline, IMP and Software Prefetching
/// normalized to Perfect Prefetching, at the given core count.
pub fn fig09_performance(cores: u32) -> Table {
    prewarm(
        &APPS,
        cores,
        &[Config::PerfPref, Config::Base, Config::Imp, Config::SwPref],
    );
    let mut t = Table::new(
        format!("Fig 9: normalized throughput vs PerfPref, {cores} cores"),
        vec!["PerfPref", "Base", "IMP", "SW Pref"],
    );
    let mut sums = [0.0f64; 4];
    for app in APPS {
        let perf = run(app, cores, Config::PerfPref).runtime as f64;
        let base = run(app, cores, Config::Base).runtime as f64;
        let imp = run(app, cores, Config::Imp).runtime as f64;
        let sw = run(app, cores, Config::SwPref).runtime as f64;
        let vals = vec![1.0, perf / base, perf / imp, perf / sw];
        for (s, v) in sums.iter_mut().zip(vals.iter()) {
            *s += v / APPS.len() as f64;
        }
        t.row(app, vals);
    }
    t.row("avg", sums.to_vec());
    t
}

/// Table 3: prefetch coverage, accuracy and relative memory latency for
/// the stream prefetcher alone vs stream + IMP.
pub fn table3_effectiveness(cores: u32) -> Table {
    prewarm(&APPS, cores, &[Config::PerfPref, Config::Base, Config::Imp]);
    let mut t = Table::new(
        format!("Table 3: prefetch effectiveness, {cores} cores"),
        vec![
            "strm Cov", "strm Acc", "strm Lat", "IMP Cov", "IMP Acc", "IMP Lat",
        ],
    );
    let mut sums = [0.0f64; 6];
    for app in APPS {
        let perf = run(app, cores, Config::PerfPref);
        let perf_lat = perf.avg_memory_latency(1.0).max(1e-9);
        let base = run(app, cores, Config::Base);
        let imp = run(app, cores, Config::Imp);
        let vals = vec![
            base.coverage(),
            base.accuracy(),
            base.avg_memory_latency(1.0) / perf_lat,
            imp.coverage(),
            imp.accuracy(),
            imp.avg_memory_latency(1.0) / perf_lat,
        ];
        for (s, v) in sums.iter_mut().zip(vals.iter()) {
            *s += v / APPS.len() as f64;
        }
        t.row(app, vals);
    }
    t.row("avg", sums.to_vec());
    t
}

/// Figure 10: instruction overhead of software prefetching (instruction
/// counts normalized to Baseline).
pub fn fig10_sw_overhead(cores: u32) -> Table {
    prewarm(&APPS, cores, &[Config::Base, Config::Imp, Config::SwPref]);
    let mut t = Table::new(
        format!("Fig 10: instructions normalized to Baseline, {cores} cores"),
        vec!["Base", "IMP", "SW Pref"],
    );
    for app in APPS {
        let base = run(app, cores, Config::Base).total_instructions() as f64;
        let imp = run(app, cores, Config::Imp).total_instructions() as f64;
        let sw = run(app, cores, Config::SwPref).total_instructions() as f64;
        t.row(app, vec![1.0, imp / base, sw / base]);
    }
    t
}

/// Figure 11: IMP with partial cacheline accessing (NoC only, then NoC +
/// DRAM) normalized to Perfect Prefetching, with Ideal for reference.
pub fn fig11_partial(cores: u32) -> Table {
    prewarm(
        &APPS,
        cores,
        &[
            Config::PerfPref,
            Config::Imp,
            Config::ImpPartialNoc,
            Config::ImpPartialNocDram,
            Config::Ideal,
        ],
    );
    let mut t = Table::new(
        format!("Fig 11: partial cacheline accessing, {cores} cores"),
        vec!["IMP", "Partial NoC", "Partial NoC+DRAM", "Ideal"],
    );
    for app in APPS {
        let perf = run(app, cores, Config::PerfPref).runtime as f64;
        let imp = run(app, cores, Config::Imp).runtime as f64;
        let pn = run(app, cores, Config::ImpPartialNoc).runtime as f64;
        let pnd = run(app, cores, Config::ImpPartialNocDram).runtime as f64;
        let ideal = run(app, cores, Config::Ideal).runtime as f64;
        t.row(app, vec![perf / imp, perf / pn, perf / pnd, perf / ideal]);
    }
    t
}

/// Figure 12: NoC and DRAM traffic of partial cacheline accessing
/// normalized to full-line IMP.
pub fn fig12_traffic(cores: u32) -> Table {
    prewarm(&APPS, cores, &[Config::Imp, Config::ImpPartialNocDram]);
    let mut t = Table::new(
        format!("Fig 12: traffic of partial accessing vs full lines, {cores} cores"),
        vec!["NoC traffic", "DRAM traffic"],
    );
    let mut sums = [0.0f64; 2];
    for app in APPS {
        let full = run(app, cores, Config::Imp);
        let part = run(app, cores, Config::ImpPartialNocDram);
        let vals = vec![
            part.traffic.noc_flit_hops as f64 / full.traffic.noc_flit_hops.max(1) as f64,
            part.traffic.dram_bytes() as f64 / full.traffic.dram_bytes().max(1) as f64,
        ];
        for (s, v) in sums.iter_mut().zip(vals.iter()) {
            *s += v / APPS.len() as f64;
        }
        t.row(app, vals);
    }
    t.row("avg", sums.to_vec());
    t
}

/// Figure 13: in-order vs out-of-order cores (32-entry ROB) for one
/// memory-bound and one compute-bound application, normalized to the
/// out-of-order Baseline.
pub fn fig13_ooo(cores: u32) -> Table {
    prewarm(
        &["pagerank", "sgd"],
        cores,
        &[
            Config::BaseOoo,
            Config::Base,
            Config::Imp,
            Config::ImpOoo,
            Config::ImpPartialNocDram,
            Config::ImpPartialOoo,
        ],
    );
    let mut t = Table::new(
        format!("Fig 13: in-order vs OoO cores, {cores} cores"),
        vec![
            "Base io",
            "Base ooo",
            "IMP io",
            "IMP ooo",
            "Partial io",
            "Partial ooo",
        ],
    );
    for app in ["pagerank", "sgd"] {
        let base_ooo = run(app, cores, Config::BaseOoo).runtime as f64;
        let vals = vec![
            base_ooo / run(app, cores, Config::Base).runtime as f64,
            1.0,
            base_ooo / run(app, cores, Config::Imp).runtime as f64,
            base_ooo / run(app, cores, Config::ImpOoo).runtime as f64,
            base_ooo / run(app, cores, Config::ImpPartialNocDram).runtime as f64,
            base_ooo / run(app, cores, Config::ImpPartialOoo).runtime as f64,
        ];
        t.row(app, vals);
    }
    t
}

/// Figures 14/15/16: sensitivity to PT size, IPD size and max prefetch
/// distance. `param` selects which knob; values are the paper's sweep.
pub fn sensitivity(cores: u32, param: SweepParam) -> Table {
    let (name, values) = match param {
        SweepParam::PtSize => ("PT size", vec![8u32, 16, 32]),
        SweepParam::IpdSize => ("IPD size", vec![2, 4, 8]),
        SweepParam::Distance => ("max prefetch distance", vec![4, 8, 16, 32]),
    };
    let headers: Vec<String> = values.iter().map(|v| format!("{name}={v}")).collect();
    let mut t = Table::new(
        format!("Sensitivity to {name}, {cores} cores (normalized to default)"),
        headers.iter().map(String::as_str).collect::<Vec<_>>(),
    );
    prewarm(&APPS, cores, &[Config::Imp]);
    // The swept knob lives inside ImpConfig, so the cells run as explicit
    // configurations fanned across threads rather than as a Sweep axis.
    let grid: Vec<(&str, u32)> = APPS
        .iter()
        .flat_map(|&app| values.iter().map(move |&v| (app, v)))
        .collect();
    let threads = std::thread::available_parallelism()
        .map(usize::from)
        .unwrap_or(1);
    let runtimes = sweep::fanout(grid.len(), threads, |i| {
        let (app, v) = grid[i];
        let mut cfg = runner::system_config(cores, Config::Imp);
        match param {
            SweepParam::PtSize => cfg.imp.pt_entries = v as usize,
            SweepParam::IpdSize => cfg.imp.ipd_entries = v as usize,
            SweepParam::Distance => cfg.imp.max_prefetch_distance = v,
        }
        run_one(app, cfg).runtime as f64
    });
    for (a, app) in APPS.iter().enumerate() {
        let reference = run(app, cores, Config::Imp).runtime as f64;
        let row: Vec<f64> = (0..values.len())
            .map(|j| reference / runtimes[a * values.len() + j])
            .collect();
        t.row(app, row);
    }
    t
}

/// Which hardware knob [`sensitivity`] sweeps.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SweepParam {
    /// Figure 14.
    PtSize,
    /// Figure 15.
    IpdSize,
    /// Figure 16.
    Distance,
}

/// Section 6.1's GHB comparison: a correlation prefetcher on top of the
/// stream prefetcher provides no benefit on these workloads.
pub fn ghb_comparison(cores: u32) -> Table {
    prewarm(&APPS, cores, &[Config::Base, Config::Ghb, Config::Imp]);
    let mut t = Table::new(
        format!("GHB vs Baseline vs IMP, {cores} cores (throughput vs Base)"),
        vec!["Base", "GHB", "IMP"],
    );
    for app in APPS {
        let base = run(app, cores, Config::Base).runtime as f64;
        let ghb = run(app, cores, Config::Ghb).runtime as f64;
        let imp = run(app, cores, Config::Imp).runtime as f64;
        t.row(app, vec![1.0, base / ghb, base / imp]);
    }
    t
}

/// Section 6.1's no-harm check: IMP on a dense regular workload.
pub fn no_harm(cores: u32) -> Table {
    let mut t = Table::new(
        format!("No-harm check on dense workload, {cores} cores"),
        vec!["Base runtime", "IMP runtime", "IMP/Base"],
    );
    let base = run("dense", cores, Config::Base);
    let imp = run("dense", cores, Config::Imp);
    t.row(
        "dense",
        vec![
            base.runtime as f64,
            imp.runtime as f64,
            imp.runtime as f64 / base.runtime.max(1) as f64,
        ],
    );
    t
}

/// Section 6.4: storage cost of IMP and the Granularity Predictor.
pub fn storage_cost_table() -> Table {
    let sys = SystemConfig::paper_default(64);
    let c = cost::storage_cost(&sys.imp, &sys.mem);
    let mut t = Table::new(
        "Section 6.4: storage cost".to_string(),
        vec!["bits", "Kbits", "bytes"],
    );
    t.row(
        "PT indirect half",
        vec![
            c.pt_bits as f64,
            c.pt_bits as f64 / 1024.0,
            c.pt_bits as f64 / 8.0,
        ],
    );
    t.row(
        "IPD",
        vec![
            c.ipd_bits as f64,
            c.ipd_bits as f64 / 1024.0,
            c.ipd_bits as f64 / 8.0,
        ],
    );
    t.row(
        "IMP total",
        vec![c.imp_bits() as f64, c.imp_kbits(), c.imp_bytes() as f64],
    );
    t.row(
        "GP",
        vec![c.gp_bits as f64, c.gp_kbits(), c.gp_bits as f64 / 8.0],
    );
    t.row(
        "L1 sector masks (%)",
        vec![
            c.l1_mask_bits as f64,
            c.l1_mask_bits as f64 / 1024.0,
            100.0 * cost::mask_overhead_fraction(8, 64),
        ],
    );
    t.row(
        "L2 sector masks (%)",
        vec![
            c.l2_mask_bits as f64,
            c.l2_mask_bits as f64 / 1024.0,
            100.0 * cost::mask_overhead_fraction(2, 64),
        ],
    );
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn storage_table_has_all_rows() {
        let t = storage_cost_table();
        assert_eq!(t.rows(), 6);
    }

    #[test]
    fn tiny_fig01_sums_to_one() {
        std::env::set_var("IMP_SCALE", "tiny");
        let t = fig01_miss_breakdown(16);
        for (label, vals) in t.iter_rows() {
            let sum: f64 = vals.iter().sum();
            assert!((sum - 1.0).abs() < 1e-9, "{label}: {sum}");
        }
    }
}
