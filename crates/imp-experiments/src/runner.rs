//! Figure runner: maps the paper's named configurations onto the fluent
//! [`Sim`] builder ([`sim_for`]) and runs a figure's cells through the
//! sweep engine, the same one behind `Sweep` and `imp-sweepd`: each
//! distinct input is built once and shared, the cells fan out across
//! threads, and with `IMP_STORE_DIR` set every cell is served from or
//! persisted to that result store — a re-run of a figure driver
//! simulates nothing it already has. Without `IMP_STORE_DIR` the drivers
//! run without a store.

use crate::sim::Sim;
use crate::sweep::execute;
use imp_common::config::{CoreModel, MemMode, PartialMode, PrefetcherKind};
use imp_common::{SystemConfig, SystemStats};
use imp_store::ResultStore;
use imp_workloads::Scale;

/// The paper's evaluated configurations (Section 5.4 plus Section 4/6.3
/// variants).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Config {
    /// All accesses hit in L1 (Section 5.4 *Ideal*).
    Ideal,
    /// Magic prefetcher under finite bandwidth (*Perfect Prefetching*).
    PerfPref,
    /// Stream prefetcher only (*Baseline*).
    Base,
    /// Stream + IMP.
    Imp,
    /// IMP + partial cacheline accessing in the NoC only.
    ImpPartialNoc,
    /// IMP + partial accessing in NoC and DRAM.
    ImpPartialNocDram,
    /// Baseline hardware + Mowry-style software prefetching.
    SwPref,
    /// Stream + GHB correlation prefetcher.
    Ghb,
    /// Baseline on the out-of-order core.
    BaseOoo,
    /// IMP on the out-of-order core.
    ImpOoo,
    /// IMP + partial accessing on the out-of-order core.
    ImpPartialOoo,
}

/// Input scale from the `IMP_SCALE` environment variable; unset or
/// unrecognised values fall back to `Small`.
pub fn scale_from_env() -> Scale {
    std::env::var("IMP_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(Scale::Small)
}

/// The [`Sim`] builder for `app` at `cores` under the paper
/// configuration `config`, at the `IMP_SCALE` input scale.
pub fn sim_for(app: &str, cores: u32, config: Config) -> Sim {
    let sim = Sim::from_config(app, SystemConfig::paper_default(cores)).scale(scale_from_env());
    let imp = |sim: Sim| sim.prefetcher(PrefetcherKind::Imp);
    match config {
        Config::Ideal => sim.mem_mode(MemMode::Ideal),
        Config::PerfPref => sim.mem_mode(MemMode::PerfectPrefetch),
        Config::Base => sim,
        Config::Imp => imp(sim),
        Config::ImpPartialNoc => imp(sim).partial(PartialMode::NocOnly),
        Config::ImpPartialNocDram => imp(sim).partial(PartialMode::NocAndDram),
        Config::SwPref => sim.software_prefetch(16),
        Config::Ghb => sim.prefetcher(PrefetcherKind::Ghb),
        Config::BaseOoo => sim.core_model(CoreModel::OutOfOrder),
        Config::ImpOoo => imp(sim).core_model(CoreModel::OutOfOrder),
        Config::ImpPartialOoo => imp(sim)
            .partial(PartialMode::NocAndDram)
            .core_model(CoreModel::OutOfOrder),
    }
}

/// Runs `apps` × `configs` at `cores` as one grid ([`run`]); row `a`
/// holds app `a`'s statistics in `configs` order.
pub(crate) fn grid<const N: usize>(
    apps: &[&str],
    cores: u32,
    configs: [Config; N],
) -> Vec<[SystemStats; N]> {
    let sims: Vec<Sim> = apps
        .iter()
        .flat_map(|&app| configs.map(|c| sim_for(app, cores, c)))
        .collect();
    let mut stats = run(&sims).into_iter();
    apps.iter()
        .map(|_| std::array::from_fn(|_| stats.next().expect("one result per cell")))
        .collect()
}

/// Runs `sims` through the sweep engine against the `IMP_STORE_DIR`
/// store, when set, and returns their statistics in order.
///
/// # Panics
///
/// Panics if the store cannot be opened or read, or if any cell fails
/// (an unknown workload, a configuration that does not resolve).
pub(crate) fn run(sims: &[Sim]) -> Vec<SystemStats> {
    let store = std::env::var_os("IMP_STORE_DIR").map(|root| {
        ResultStore::open(&root).unwrap_or_else(|e| panic!("opening result store {root:?}: {e}"))
    });
    run_in(store.as_ref(), sims)
}

/// [`run`] against an explicit store. A failed store *write* only costs
/// a re-simulation later, so it is a warning here, not an error.
fn run_in(store: Option<&ResultStore>, sims: &[Sim]) -> Vec<SystemStats> {
    let report = execute(sims, store, None, None, |_| {}).unwrap_or_else(|e| panic!("{e}"));
    if let Some(e) = &report.store_error {
        eprintln!("warning: result store write failed: {e}");
    }
    report
        .results
        .into_iter()
        .map(|r| r.unwrap_or_else(|e| panic!("{e}")).stats)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::APPS;

    #[test]
    fn configs_map_to_expected_modes() {
        let config = |c| sim_for("spmv", 16, c).config().unwrap();
        assert_eq!(config(Config::Ideal).mem_mode, MemMode::Ideal);
        assert_eq!(config(Config::Base).prefetcher.name, "stream");
        assert_eq!(config(Config::Imp).prefetcher.name, "imp");
        assert_eq!(
            config(Config::ImpPartialNocDram).partial,
            PartialMode::NocAndDram
        );
        assert_eq!(config(Config::ImpOoo).core_model, CoreModel::OutOfOrder);
        // Software prefetching changes the program, not the hardware.
        assert_eq!(config(Config::SwPref), config(Config::Base));
        // The canonical keys distinguish paper configs even at one
        // (app, cores) coordinate.
        let canonical = |c| sim_for("dense", 4, c).canonical_input().unwrap();
        assert_ne!(canonical(Config::Ideal), canonical(Config::Base));
        assert_ne!(
            canonical(Config::Base),
            canonical(Config::SwPref),
            "software prefetch is part of the key"
        );
    }

    #[test]
    fn software_prefetch_cells_build_their_own_input() {
        let sims: Vec<Sim> = [Config::Base, Config::SwPref, Config::Imp]
            .map(|c| sim_for("spmv", 16, c).scale(Scale::Tiny))
            .to_vec();
        let stats = run_in(None, &sims);
        for (sim, stats) in sims.iter().zip(&stats) {
            assert_eq!(*stats, sim.run().unwrap(), "{:?}", sim.cell());
        }
        assert_ne!(
            stats[0], stats[1],
            "the software-prefetched program differs"
        );
    }

    #[test]
    fn a_warm_figure_grid_simulates_nothing() {
        let dir = std::env::temp_dir().join(format!("imp-runner-warm-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = ResultStore::open(&dir).unwrap();
        let sims: Vec<Sim> = APPS[..2]
            .iter()
            .flat_map(|&app| {
                [Config::Base, Config::Imp, Config::SwPref]
                    .map(|c| sim_for(app, 16, c).scale(Scale::Tiny))
            })
            .collect();
        let cold = run_in(Some(&store), &sims);
        assert_eq!(
            store.counters().puts,
            6,
            "the cold pass persists every cell"
        );
        let warm = run_in(Some(&store), &sims);
        let counters = store.counters();
        assert_eq!(counters.puts, 6, "the warm pass simulates nothing");
        assert_eq!(counters.hits, 6, "every warm cell is served from the store");
        assert_eq!(cold, warm, "store round-trip is bit-identical");
        std::fs::remove_dir_all(&dir).ok();
    }
}
