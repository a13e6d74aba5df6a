//! Pins the sweep grid's cell order, every cell's coordinates and the
//! store digest of every cell's canonical input against a committed
//! fixture (`tests/fixtures/sweep_canonical.txt`).
//!
//! A stored `.impres` record is addressed by the digest of its cell's
//! canonical input, so a change to either the enumeration or the
//! rendering silently orphans every stored result. Nothing here
//! simulates: the test only enumerates `Sweep::cells` and renders
//! `Sim::canonical_input` for each cell.
//!
//! On a mismatch the fresh rendering is written next to the system temp
//! directory (`sweep_canonical.actual.txt`) so it can be diffed against
//! the fixture.

use imp::prelude::*;

const FIXTURE: &str = include_str!("fixtures/sweep_canonical.txt");

/// The builder a cell runs: the template with the cell's coordinates
/// applied through the public setters.
fn cell_sim(base: &Sim, cell: &SweepCell) -> Sim {
    let sim = base
        .clone()
        .with_workload(&cell.workload)
        .cores(cell.cores)
        .prefetcher(cell.prefetcher.clone())
        .partial(cell.partial)
        .tlb(cell.tlb)
        .page_policies(cell.page_policy.clone())
        .seed(cell.seed);
    match &cell.manager {
        Some(m) => sim.manager(m.clone()),
        None => sim,
    }
}

fn render(grid: &str, base: &Sim, sweep: &Sweep, out: &mut String) {
    for (i, cell) in sweep.cells().iter().enumerate() {
        let canonical = cell_sim(base, cell)
            .canonical_input()
            .unwrap_or_else(|e| panic!("{grid} cell {i} does not resolve: {e}"));
        let manager = cell
            .manager
            .as_ref()
            .map_or_else(|| "-".to_string(), ToString::to_string);
        let policies = if cell.page_policy.is_empty() {
            "-".to_string()
        } else {
            cell.page_policy
                .iter()
                .map(|(region, policy)| format!("{region}={}", policy.canonical()))
                .collect::<Vec<_>>()
                .join("+")
        };
        out.push_str(&format!(
            "{grid} {i} {} {} {} {} {:?} {} {} {} {}\n",
            cell.workload,
            cell.cores,
            cell.prefetcher,
            manager,
            cell.partial,
            cell.tlb.canonical(),
            policies,
            cell.seed,
            digest_hex(cell_digest(&canonical)),
        ));
    }
}

/// Every grid the fixture covers, rendered in order.
fn rendering() -> String {
    let mut out = String::new();

    // The paper-style grid: workloads x cores x prefetchers x depths x
    // managers (unmanaged included) x partial modes.
    let base = Sim::workload("spmv").scale(Scale::Tiny);
    let sweep = Sweep::from(base.clone())
        .workloads(["spmv", "pagerank"])
        .cores([16, 64])
        .prefetchers(["none", "stream:distance=8,degree=2", "imp"])
        .depths([1, 3])
        .managers(["none", "static", "throttle:accuracy_floor=0.4,epoch=2000"])
        .partials([PartialMode::Off, PartialMode::NocAndDram]);
    render("core", &base, &sweep, &mut out);

    // Every axis of the translation sub-grid.
    let base = Sim::workload("hashjoin")
        .scale(Scale::Tiny)
        .prefetcher("imp");
    let sweep = Sweep::from(base.clone())
        .page_sizes([4096, 1 << 16])
        .tlb_ways([4, 8])
        .translation_policies([
            TranslationPolicy::DropOnMiss,
            TranslationPolicy::NonBlockingWalk,
        ])
        .l2_tlbs([(0, 0), (128, 8)])
        .tlb_prefetches([false, true])
        .walk_models([WalkModel::Flat, WalkModel::Cached]);
    render("tlb", &base, &sweep, &mut out);

    // Page-policy sets (the empty set included) over an explicit
    // configuration whose core count the sweep also varies: the 64-core
    // cells rebuild the mesh geometry and carry the non-geometry fields.
    let mut cfg = SystemConfig::paper_default(16).with_prefetcher("imp");
    cfg.mem.hop_latency = 5;
    cfg.rob_entries = 64;
    cfg.core_model = CoreModel::OutOfOrder;
    let base = Sim::from_config("pagerank", cfg)
        .scale(Scale::Tiny)
        .manager("static");
    let sweep = Sweep::from(base.clone()).cores([16, 64]).page_policies([
        vec![],
        vec![("pr0", PagePolicy::Huge2M)],
        vec![
            (
                "pr*",
                PagePolicy::Auto {
                    threshold_bytes: 1 << 20,
                },
            ),
            ("deg", PagePolicy::Base4K),
        ],
    ]);
    render("pages", &base, &sweep, &mut out);
    out
}

#[test]
fn cell_order_coordinates_and_digests_match_the_fixture() {
    let actual = rendering();
    if actual != FIXTURE {
        let path = std::env::temp_dir().join("sweep_canonical.actual.txt");
        std::fs::write(&path, &actual).ok();
        let first = actual
            .lines()
            .zip(FIXTURE.lines())
            .position(|(a, f)| a != f)
            .map_or_else(
                || "line count differs".to_string(),
                |i| {
                    format!(
                        "line {}:\n  fixture: {}\n  actual:  {}",
                        i + 1,
                        FIXTURE.lines().nth(i).unwrap_or(""),
                        actual.lines().nth(i).unwrap_or("")
                    )
                },
            );
        panic!(
            "sweep cells or canonical digests changed ({first}); fresh rendering in {}",
            path.display()
        );
    }
}
