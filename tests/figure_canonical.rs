//! Pins the store digest of every cell the paper-figure drivers run
//! against a committed fixture (`tests/fixtures/figure_canonical.txt`).
//!
//! The figure drivers address their results in the content-addressed
//! store by each cell's canonical input, so a change to how a paper
//! configuration maps onto the simulator silently orphans every stored
//! figure result. The cells are every application (plus the `dense`
//! control) at every paper core count under every [`Config`], and the
//! IMP sensitivity cells of Figures 14-16. Nothing here simulates.
//!
//! On a mismatch the fresh rendering is written to the system temp
//! directory (`figure_canonical.actual.txt`) so it can be diffed against
//! the fixture.

use imp::experiments::{sim_for, Config, APPS, CORE_COUNTS};
use imp::prelude::*;

const FIXTURE: &str = include_str!("fixtures/figure_canonical.txt");

const CONFIGS: [Config; 11] = [
    Config::Ideal,
    Config::PerfPref,
    Config::Base,
    Config::Imp,
    Config::ImpPartialNoc,
    Config::ImpPartialNocDram,
    Config::SwPref,
    Config::Ghb,
    Config::BaseOoo,
    Config::ImpOoo,
    Config::ImpPartialOoo,
];

fn line(out: &mut String, app: &str, cores: u32, config: &str, sim: &Sim) {
    let canonical = sim
        .canonical_input()
        .unwrap_or_else(|e| panic!("{app}@{cores} {config} does not resolve: {e}"));
    out.push_str(&format!(
        "{app} {cores} {config} {}\n",
        digest_hex(cell_digest(&canonical))
    ));
}

/// Every figure cell, rendered in order.
fn rendering() -> String {
    let mut out = String::new();
    for app in APPS.iter().copied().chain(["dense"]) {
        for cores in CORE_COUNTS {
            for config in CONFIGS {
                let sim = sim_for(app, cores, config).scale(Scale::Tiny);
                line(&mut out, app, cores, &format!("{config:?}"), &sim);
            }
        }
    }
    // Figures 14-16: IMP at 64 cores with one Table 2 knob changed.
    type Knob = fn(&mut ImpConfig, u32);
    let sensitivity: [(&str, Knob, &[u32]); 3] = [
        (
            "pt_entries",
            |imp, v| imp.pt_entries = v as usize,
            &[8, 16, 32],
        ),
        (
            "ipd_entries",
            |imp, v| imp.ipd_entries = v as usize,
            &[2, 4, 8],
        ),
        (
            "max_prefetch_distance",
            |imp, v| imp.max_prefetch_distance = v,
            &[4, 8, 16, 32],
        ),
    ];
    for app in APPS {
        for (name, set, values) in sensitivity {
            for &v in values {
                let sim = sim_for(app, 64, Config::Imp)
                    .scale(Scale::Tiny)
                    .tune_imp(|imp| set(imp, v));
                line(&mut out, app, 64, &format!("Imp:{name}={v}"), &sim);
            }
        }
    }
    out
}

#[test]
fn figure_cells_match_the_fixture() {
    let actual = rendering();
    if actual != FIXTURE {
        let path = std::env::temp_dir().join("figure_canonical.actual.txt");
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
            "figure cells' canonical digests changed ({first}); fresh rendering in {}",
            path.display()
        );
    }
}
