//! Pins the full `SystemStats` of a diverse grid of simulated cells
//! against a committed fixture (`tests/fixtures/golden_stats.txt`).
//!
//! Every cell runs at tiny scale on 16 cores; the fixture holds one
//! line per cell: its name and the digest of the `Debug` rendering of
//! its statistics. A refactor of the simulator kernel, its prefetch
//! accounting or the control plane must leave every digest unchanged.
//! The grid covers the paper's three prefetcher modes on three
//! workloads, the out-of-order core, finite TLBs with cached walks and
//! translation prefetching, partial cacheline accessing, two managed
//! runs (one that never intervenes, one that throttles) and one
//! observed managed run, whose ledger counts join its digested text.
//!
//! On a mismatch the test prints each moved cell's full statistics and
//! writes the fresh rendering to the system temp directory
//! (`golden_stats.actual.txt`) so it can be diffed against the fixture.

use imp::prelude::*;

const FIXTURE: &str = include_str!("fixtures/golden_stats.txt");

const THROTTLE: &str = "throttle:accuracy_floor=0.4,epoch=2000";

fn tiny(workload: &str, prefetcher: &str) -> Sim {
    Sim::workload(workload)
        .scale(Scale::Tiny)
        .cores(16)
        .prefetcher(prefetcher)
}

/// Every cell, in fixture order; `true` marks the observed one.
fn cells() -> Vec<(String, Sim, bool)> {
    let mut cells: Vec<(String, Sim, bool)> = Vec::new();
    for w in ["spmv", "pagerank", "graph500"] {
        for p in ["none", "stream", "imp"] {
            cells.push((format!("{w}/{p}"), tiny(w, p), false));
        }
    }
    cells.push((
        "spmv/imp/ooo".into(),
        tiny("spmv", "imp").core_model(CoreModel::OutOfOrder),
        false,
    ));
    cells.push((
        "pagerank/imp/tlb".into(),
        tiny("pagerank", "imp")
            .tlb_ways(2)
            .page_size(4096)
            .translation_policy(TranslationPolicy::DropOnMiss),
        false,
    ));
    cells.push((
        "pagerank/imp/l2tlb-walk".into(),
        tiny("pagerank", "imp")
            .tlb(TlbConfig::finite())
            .l2_tlb(64, 4)
            .tlb_prefetch(true)
            .walk_model(WalkModel::Cached)
            .translation_policy(TranslationPolicy::DropOnMiss),
        false,
    ));
    cells.push((
        "lsh/imp/partial".into(),
        tiny("lsh", "imp").partial(PartialMode::NocAndDram),
        false,
    ));
    cells.push((
        "pagerank/imp/static".into(),
        tiny("pagerank", "imp").manager("static"),
        false,
    ));
    cells.push((
        "pagerank/imp/throttle".into(),
        tiny("pagerank", "imp").manager(THROTTLE),
        false,
    ));
    cells.push((
        "pagerank/imp/throttle/observed".into(),
        tiny("pagerank", "imp")
            .manager(THROTTLE)
            .observe(ObsConfig::metrics()),
        true,
    ));
    cells
}

/// The ledger counts an observed cell adds to its digested text.
fn ledger_text(report: &ObsReport) -> String {
    format!(
        "ledger_total: {:?}, ledger_per_class: {:?}, ledger_per_hop: {:?}, \
         untracked_fills: {}, inflight_at_end: {}",
        report.ledger_total,
        report.ledger_per_class,
        report.ledger_per_hop,
        report.untracked_fills,
        report.inflight_at_end
    )
}

/// Runs one cell and returns the text its digest is taken over.
fn digested_text(sim: &Sim, observed: bool) -> String {
    if observed {
        let (stats, report) = sim.run_observed().unwrap();
        format!("{stats:?}\n{}", ledger_text(&report))
    } else {
        format!("{:?}", sim.run().unwrap())
    }
}

#[test]
fn cell_stats_match_the_fixture() {
    let fixture: Vec<(&str, &str)> = FIXTURE
        .lines()
        .map(|l| l.rsplit_once(' ').expect("fixture line is `name digest`"))
        .collect();
    let mut actual = String::new();
    let mut moved = Vec::new();
    for (name, sim, observed) in cells() {
        let text = digested_text(&sim, observed);
        let digest = digest_hex(cell_digest(&text));
        actual.push_str(&format!("{name} {digest}\n"));
        let pinned = fixture.iter().find(|(n, _)| *n == name).map(|(_, d)| *d);
        if pinned != Some(digest.as_str()) {
            println!("=== {name}: fixture {pinned:?}, actual {digest} ===\n{text}");
            moved.push(name);
        }
    }
    if actual != FIXTURE {
        let path = std::env::temp_dir().join("golden_stats.actual.txt");
        std::fs::write(&path, &actual).ok();
        panic!(
            "golden stats moved for {moved:?} (full stats printed above); \
             fresh rendering in {}",
            path.display()
        );
    }
}
