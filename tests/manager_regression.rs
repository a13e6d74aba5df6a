//! Adaptive-management regression tests.
//!
//! The golden pin: `manager("static")` runs the entire control plane —
//! the ledger mirrored at every fill/use/evict site, the per-epoch
//! feedback distillation, the policy callback — and must still produce
//! `SystemStats` bit-identical to running unmanaged, because the static
//! policy never intervenes. Any divergence means the feedback loop
//! itself perturbed timing, which would invalidate every managed-vs-
//! unmanaged comparison the control plane exists to make.

use imp::prelude::*;

fn spmv(prefetcher: &str) -> Sim {
    Sim::workload("spmv")
        .scale(Scale::Tiny)
        .cores(16)
        .prefetcher(prefetcher)
}

/// The golden pin, across prefetcher models (including the one that
/// chains fills): observing through the manager must never steer.
#[test]
fn static_manager_is_bit_identical_to_unmanaged() {
    for pf in ["stream", "imp", "hybrid:components=stream+imp"] {
        let bare = spmv(pf).run().unwrap();
        let managed = spmv(pf).manager("static").run().unwrap();
        assert_eq!(bare, managed, "manager=static perturbed {pf}");
    }
}

/// An intervening policy must actually intervene: a throttle with an
/// impossible accuracy bar (always throttled) changes the run, proving
/// the control path is live and the static pin is not vacuous.
#[test]
fn throttling_changes_the_run_and_is_deterministic() {
    let bare = spmv("stream:distance=32").run().unwrap();
    let sim = spmv("stream:distance=32")
        .manager("throttle:accuracy_floor=0.95,recover=0.99,epoch=500,degree=0");
    let throttled = sim.run().unwrap();
    assert_ne!(bare, throttled, "an always-on throttle must change the run");
    assert!(
        throttled.prefetch_total().issued() < bare.prefetch_total().issued(),
        "throttling must issue fewer prefetches: {} vs {}",
        throttled.prefetch_total().issued(),
        bare.prefetch_total().issued()
    );
    assert_eq!(
        sim.run().unwrap(),
        throttled,
        "managed runs are deterministic"
    );
}

/// A tree forced into its switch leaf swaps the prefetcher model
/// mid-run; the stats carried across the swap keep counting.
#[test]
fn tree_switch_leaf_swaps_models_without_losing_stats() {
    let bare = spmv("imp").run().unwrap();
    let switched = spmv("imp")
        .manager("tree:epoch=2000,spec=(acc<2.0?switch_stream:pass)")
        .run()
        .unwrap();
    assert_ne!(bare, switched, "the switch leaf must change the run");
    // IMP's pattern detections happened before the swap; the replaced
    // model's counters must survive into the final stats.
    assert!(
        switched.prefetch_total().patterns_detected > 0,
        "pre-switch IMP detections were dropped from the stats"
    );
    assert!(
        switched.prefetch_total().issued_stream > 0,
        "post-switch stream model never ran"
    );
    // The stream model neither detects nor generates indirect requests,
    // so these counts can only come from the replaced IMP models.
    let t = switched.prefetch_total();
    assert!(t.detect_failures > 0, "pre-switch IPD failures dropped");
    assert!(
        t.issued_indirect > 0 && t.generated_indirect >= t.issued_indirect,
        "pre-switch generated indirect requests dropped: {t:?}"
    );
}

/// Manager identity lives in the canonical input: unmanaged keeps the
/// pre-manager rendering (every stored digest stays valid), managed
/// cells are distinct cache entries.
#[test]
fn manager_joins_the_canonical_input() {
    let plain = spmv("imp").canonical_input().unwrap();
    assert!(
        !plain.contains(";mgr:"),
        "unmanaged canonical must not mention a manager: {plain}"
    );
    let stat = spmv("imp").manager("static").canonical_input().unwrap();
    let thr = spmv("imp")
        .manager("throttle:accuracy_floor=0.4")
        .canonical_input()
        .unwrap();
    assert_ne!(plain, stat);
    assert_ne!(stat, thr);
    assert!(stat.ends_with(";mgr:static"), "{stat}");
}

/// The sweep axis end to end: one grid, managed and unmanaged cells
/// side by side, the unmanaged cell bit-identical to a plain run.
#[test]
fn sweep_manager_axis_runs_managed_and_unmanaged_cells() {
    let results = Sweep::from(spmv("stream:distance=32"))
        .managers([
            "none",
            "static",
            "throttle:accuracy_floor=0.95,recover=0.99,epoch=500,degree=0",
        ])
        .run()
        .unwrap();
    assert_eq!(results.len(), 3);
    // (Cells derive their own workload seed from the grid coordinates,
    // so compare cells to each other, not to a template-seed run.)
    assert_eq!(
        results[0].stats, results[1].stats,
        "manager=none cell == manager=static cell"
    );
    assert_ne!(
        results[2].stats, results[0].stats,
        "throttled cell must differ"
    );
}
