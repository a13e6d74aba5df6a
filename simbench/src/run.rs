//! The benchmark's workloads and the passes that measure them.
//!
//! Every workload is a grid of cells, run once through `Sweep` into an
//! empty result store (untimed: it is the host warm-up and the reference
//! every later pass must reproduce). The simulation workloads are one
//! cell whose timed repetitions call `Sim::build_artifact`,
//! `System::try_new` and `System::try_run` directly; `sweep_store` times
//! whole cold `Sweep` passes instead. Warm passes, the observed run and
//! — when traced — the per-layer spans and replay follow.

use crate::metrics::Report;
use crate::replay::{replay, Replay};
use crate::stats::{median, tail};
use imp_common::{fnv1a, SystemStats, TlbConfig, WalkModel};
use imp_experiments::{Sim, SimError, Sweep, SweepReport};
use imp_obs::{merge_counts, Histogram, ObsConfig, ObsReport, MAX_HOPS};
use imp_sim::System;
use imp_store::{ResultStore, StoredResult};
use imp_workloads::Scale;
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = ["spmv_imp", "sgd_nopf", "hashjoin_vm", "sweep_store"];

/// A seed no benchmark figure was tuned on, kept for confirming a claim.
pub const HELD_OUT_SEED: u64 = 20_151_205;

/// The `sweep_store` grid: every stock kernel under each prefetcher.
const GRID_WORKLOADS: [&str; 8] = [
    "spmv",
    "pagerank",
    "sgd",
    "symgs",
    "graph500",
    "lsh",
    "tri_count",
    "hashjoin",
];
const GRID_PREFETCHERS: [&str; 3] = ["none", "stream", "imp"];

/// Timed repetitions made even when `--seconds` runs out first.
const MIN_REPS: usize = 3;
/// Warm passes over the filled store after each timed repetition, so
/// warm timings sample the same stretch of host time as cold ones.
const WARM_PER_REP: usize = 20;
/// Observed runs per cell on a traced run (one otherwise).
const OBS_REPS: usize = 3;
/// Untraced repetitions per cell on a traced `sweep_store` run.
const CELL_REPS: usize = 3;
/// Calls timed per store and canonical-input figure: enough for p99 to
/// have ten samples beyond it.
const STORE_SAMPLES: usize = 1200;
/// Observation settings of the observed runs.
const OBS_TRACE_EVENTS: usize = 4096;
const OBS_EPOCH_CYCLES: u64 = 10_000;

/// What one workload runs: its grid as a `Sweep`, and one builder per
/// grid cell in `Sweep::cells` order.
pub struct Plan {
    sweep: Sweep,
    sims: Vec<Sim>,
    /// Timed repetitions are whole sweep passes, not single cells.
    grid: bool,
}

/// The plan for `workload` at `seed`; `scale` overrides every cell's
/// input size (tests run the same code on tiny inputs).
pub fn plan(workload: &str, seed: u64, scale: Option<Scale>) -> Option<Plan> {
    let cell = |name: &str, default: Scale| {
        Sim::workload(name)
            .scale(scale.unwrap_or(default))
            .cores(16)
            .seed(seed)
    };
    let (base, sweep) = match workload {
        "spmv_imp" => single(cell("spmv", Scale::Small).prefetcher("imp")),
        "sgd_nopf" => single(cell("sgd", Scale::Small).prefetcher("none")),
        "hashjoin_vm" => single(
            cell("hashjoin", Scale::Large)
                .prefetcher("imp:depth=3")
                .tlb(TlbConfig::finite())
                .page_size(4096)
                .l2_tlb(64, 8)
                .walk_model(WalkModel::Cached)
                .tlb_prefetch(true),
        ),
        "sweep_store" => {
            let base = cell("spmv", Scale::Tiny);
            let sweep = Sweep::from(base.clone())
                .workloads(GRID_WORKLOADS)
                .prefetchers(GRID_PREFETCHERS)
                .cores([16])
                .threads(2);
            (base, sweep)
        }
        _ => return None,
    };
    // The sweep derives each cell's generation seed from the base seed;
    // the builders take the same one, which the reference pass checks
    // through the canonical inputs.
    let sims = sweep
        .cells()
        .into_iter()
        .map(|c| {
            base.clone()
                .with_workload(&c.workload)
                .cores(c.cores)
                .prefetcher(c.prefetcher)
                .seed(c.seed)
        })
        .collect();
    Some(Plan {
        grid: workload == "sweep_store",
        sweep,
        sims,
    })
}

/// A one-cell grid over `sim`, simulated by one worker.
fn single(sim: Sim) -> (Sim, Sweep) {
    (sim.clone(), Sweep::from(sim).threads(1))
}

/// Runs and runs that failed, where a run that returns but fails a
/// correctness check counts as failed.
#[derive(Debug, Default)]
pub struct Gate {
    /// Simulation runs, sweep passes and store-call phases attempted.
    pub attempted: u64,
    /// Those that errored or failed a check.
    pub failed: u64,
}

impl Gate {
    fn record(&mut self, what: &str, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failed += 1;
            eprintln!("check failed: {what}: {e}");
        }
    }
}

/// Fails with `msg` unless `ok`.
fn ensure(ok: bool, msg: impl FnOnce() -> String) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(msg())
    }
}

/// Everything one run measured.
pub struct Outcome {
    /// The metrics of this run's table.
    pub report: Report,
    /// Runs attempted and failed.
    pub gate: Gate,
    /// FNV-1a of every cell's reference `SystemStats`, in cell order.
    pub digest: u64,
    /// Human-readable lines: sample counts, tails and ratios' bases.
    pub notes: Vec<String>,
}

/// Host seconds of one untraced single-cell repetition, by span.
#[derive(Clone, Copy, Debug)]
struct Rep {
    build: f64,
    new: f64,
    run: f64,
    events: u64,
}

/// One repetition through the public entry points, checked against the
/// cell's reference statistics and, once known, its event count.
fn rep(
    sim: &Sim,
    reference: &SystemStats,
    events: Option<u64>,
    gate: &mut Gate,
    what: &str,
) -> Option<Rep> {
    let outcome = timed_rep(sim).and_then(|(rep, stats, program_instructions)| {
        ensure(stats == *reference, || {
            "stats differ from the reference".into()
        })?;
        ensure(stats.total_instructions() == program_instructions, || {
            format!(
                "retired {} of {program_instructions} instructions",
                stats.total_instructions()
            )
        })?;
        ensure(events.map_or(true, |e| e == rep.events), || {
            format!("{} events, not {events:?}", rep.events)
        })?;
        Ok(rep)
    });
    let rep = outcome.as_ref().ok().copied();
    gate.record(what, outcome.map(|_| ()));
    rep
}

/// Builds, constructs and runs `sim`'s system, timing each call. Returns
/// the times, the statistics and the program's instruction count.
fn timed_rep(sim: &Sim) -> Result<(Rep, SystemStats, u64), String> {
    let cfg = sim.config().map_err(err)?;
    let t0 = Instant::now();
    let artifact = sim.build_artifact().map_err(err)?;
    let t1 = Instant::now();
    let mut system =
        System::try_new(cfg, artifact.program().clone(), artifact.mem().clone()).map_err(err)?;
    let t2 = Instant::now();
    let stats = system.try_run().map_err(err)?;
    let t3 = Instant::now();
    let rep = Rep {
        build: (t1 - t0).as_secs_f64(),
        new: (t2 - t1).as_secs_f64(),
        run: (t3 - t2).as_secs_f64(),
        events: system.events_processed(),
    };
    Ok((rep, stats, artifact.program().total_instructions()))
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// The per-cell statistics of a sweep pass, or why the pass is unusable.
fn pass_stats(report: &SweepReport) -> Result<Vec<SystemStats>, String> {
    report
        .results
        .iter()
        .map(|r| {
            r.as_ref()
                .map(|r| r.stats.clone())
                .map_err(|e| e.error.to_string())
        })
        .collect()
}

/// Checks a sweep pass: `simulated` fresh cells, the rest from the
/// store, and every cell's statistics bit for bit the reference's.
fn check_pass(
    report: Result<SweepReport, SimError>,
    reference: &[SystemStats],
    simulated: usize,
) -> Result<(), String> {
    let report = report.map_err(err)?;
    ensure(report.store_error.is_none(), || {
        format!("store: {:?}", report.store_error)
    })?;
    ensure(
        report.simulated == simulated && report.cached == reference.len() - simulated,
        || {
            format!(
                "simulated {} and cached {}",
                report.simulated, report.cached
            )
        },
    )?;
    ensure(pass_stats(&report)? == reference, || {
        "stats differ from the reference".into()
    })
}

/// `num / den`, or 0 when `den` is 0.
fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Median of host samples, named for the error when there are none.
fn med(samples: &[f64], what: &str) -> Result<f64, String> {
    median(samples).ok_or_else(|| format!("no successful {what} samples"))
}

/// A note giving a sample set's median, tail and count.
fn spread_note(name: &str, samples: &[f64], scale: f64, unit: &str) -> String {
    let m = median(samples).unwrap_or(0.0) * scale;
    match tail(samples) {
        Some(t) => format!(
            "{name}: median {m:.6} {unit}, {} {:.6} {unit}, n={}",
            t.label(),
            t.value * scale,
            t.samples
        ),
        None => format!("{name}: median {m:.6} {unit}, n={}", samples.len()),
    }
}

/// Measures `plan` for about `seconds` of timed repetitions, writing its
/// result stores under `tmp`. A traced run adds the per-layer passes and
/// reports per-layer metrics; an untraced run reports end-to-end ones.
///
/// # Errors
///
/// When the reference pass fails, or a timing has no successful sample:
/// there is then nothing to report.
pub fn measure(plan: &Plan, seconds: f64, trace: bool, tmp: &Path) -> Result<Outcome, String> {
    let mut gate = Gate::default();
    let mut notes = Vec::new();
    let n = plan.sims.len();

    // Reference pass, untimed: also the host warm-up.
    let store = ResultStore::open(tmp.join("store")).map_err(err)?;
    let mut canonicals = Vec::with_capacity(n);
    let cold = plan
        .sweep
        .run_with(&store, |cell| canonicals.push(cell.canonical.clone()))
        .map_err(err)?;
    let reference = pass_stats(&cold)?;
    ensure(reference.len() == n && cold.simulated == n, || {
        format!("reference pass simulated {} of {n} cells", cold.simulated)
    })?;
    gate.record("reference pass", Ok(()));
    for (sim, canonical) in plan.sims.iter().zip(&canonicals) {
        let own = sim.canonical_input().map_err(err)?;
        ensure(own == *canonical, || {
            format!("cell builder differs from the grid: {own} vs {canonical}")
        })?;
    }
    let digest = fnv1a(format!("{reference:?}").as_bytes());
    // Peak memory of running the workload once. Read later, it would
    // grow with however many repetitions the host's speed allowed: the
    // allocator's footprint creeps with each one, and `sweep_store`'s
    // per-thread arenas multiply with each pass's fresh workers.
    let peak_rss = peak_rss_mb()?;

    // Timed repetitions, each followed by warm passes: every cell
    // served from the store, none simulated.
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut reps: Vec<Rep> = Vec::new();
    let mut setup_s = Vec::new();
    let mut pass_s = Vec::new();
    let mut warm_s = Vec::new();
    let mut i = 0;
    while i < MIN_REPS || Instant::now() < deadline {
        if plan.grid {
            // Set-up opens an empty store and resolves the grid into
            // the canonical inputs its records are keyed on. The empty
            // directory is made beforehand: a fresh `mkdir` times the
            // host filesystem's journal, not the program.
            let dir = tmp.join(format!("cold-{i}"));
            let made = std::fs::create_dir_all(&dir);
            let t0 = Instant::now();
            let fresh = made.and_then(|()| ResultStore::open(&dir).map_err(std::io::Error::other));
            let cells = plan.sweep.cells();
            let canonicals: Vec<_> = plan.sims.iter().map(Sim::canonical_input).collect();
            let t1 = Instant::now();
            let pass = match &fresh {
                Ok(s) => plan.sweep.run_with(s, |_| {}),
                Err(e) => Err(SimError::Store(e.to_string())),
            };
            let t2 = Instant::now();
            black_box((cells, canonicals));
            let ok = pass.is_ok();
            gate.record(&format!("cold pass {i}"), check_pass(pass, &reference, n));
            if ok {
                setup_s.push((t1 - t0).as_secs_f64());
                pass_s.push((t2 - t1).as_secs_f64());
            }
            // Cold stores stay on disk until the run ends: deleting
            // files here would put the filesystem's work into the next
            // timed pass.
        } else {
            let events = reps.first().map(|r| r.events);
            let what = format!("rep {i}");
            reps.extend(rep(&plan.sims[0], &reference[0], events, &mut gate, &what));
        }
        for w in 0..WARM_PER_REP {
            let t = Instant::now();
            let pass = plan.sweep.run_with(&store, |_| {});
            warm_s.push(t.elapsed().as_secs_f64());
            gate.record(
                &format!("warm pass {i}.{w}"),
                check_pass(pass, &reference, 0),
            );
        }
        i += 1;
    }

    let instructions: u64 = reference.iter().map(SystemStats::total_instructions).sum();
    let mut report = Report::new(trace);
    if !trace {
        let (run, setup, cold_cell) = if plan.grid {
            let pass = med(&pass_s, "cold pass")?;
            notes.push(spread_note("cold pass", &pass_s, 1.0, "s"));
            notes.push(spread_note("setup", &setup_s, 1.0, "s"));
            (pass, med(&setup_s, "setup")?, pass / n as f64)
        } else {
            let run: Vec<f64> = reps.iter().map(|r| r.run).collect();
            let setup: Vec<f64> = reps.iter().map(|r| r.build + r.new).collect();
            let cell: Vec<f64> = reps.iter().map(|r| r.build + r.new + r.run).collect();
            notes.push(spread_note("System::try_run", &run, 1.0, "s"));
            notes.push(spread_note("setup", &setup, 1.0, "s"));
            (
                med(&run, "run")?,
                med(&setup, "setup")?,
                med(&cell, "cell")?,
            )
        };
        notes.push(spread_note("warm pass", &warm_s, 1e3, "ms"));
        report.put("sim_mops_per_s", instructions as f64 / run / 1e6);
        report.put("setup_s", setup);
        report.put("peak_rss_mb", peak_rss);
        report.put(
            "sim_cycles",
            reference.iter().map(|s| s.runtime as f64).sum(),
        );
        report.put(
            "dram_bytes",
            reference
                .iter()
                .map(|s| s.traffic.dram_bytes() as f64)
                .sum(),
        );
        report.put("cold_cells_per_s", 1.0 / cold_cell);
        report.put("warm_cells_per_s", n as f64 / med(&warm_s, "warm pass")?);
    }

    // Observed runs: statistics must equal the unobserved reference and
    // the prefetch ledger must reconcile. Traced runs also time the
    // spans of every cell and replay its layers.
    let mut layers = Layers::default();
    for (c, sim) in plan.sims.iter().enumerate() {
        let artifact = sim.build_artifact().map_err(err)?;
        let observed = sim
            .clone()
            .observe(ObsConfig::full(OBS_TRACE_EVENTS, OBS_EPOCH_CYCLES));
        let mut obs_s = Vec::new();
        let mut last = None;
        for r in 0..if trace { OBS_REPS } else { 1 } {
            let t = Instant::now();
            let run = observed.run_observed_on(&artifact);
            obs_s.push(t.elapsed().as_secs_f64());
            let check = run.map_err(err).and_then(|(stats, obs)| {
                ensure(stats == reference[c], || "observed stats differ".into())?;
                ensure(obs.reconciles(), || "ledger does not reconcile".into())?;
                ensure(obs.reconciles_per_hop(), || {
                    "ledger does not reconcile per hop".into()
                })?;
                last = Some(obs);
                Ok(())
            });
            gate.record(&format!("observed run {c}.{r}"), check);
        }
        if !trace {
            continue;
        }
        let cell_reps: Vec<Rep> = if plan.grid {
            let mut cell_reps: Vec<Rep> = Vec::new();
            for r in 0..CELL_REPS {
                let events = cell_reps.first().map(|r| r.events);
                let what = format!("cell {c} rep {r}");
                cell_reps.extend(rep(sim, &reference[c], events, &mut gate, &what));
            }
            cell_reps
        } else {
            reps.clone()
        };
        let span = |f: fn(&Rep) -> f64| med(&cell_reps.iter().map(f).collect::<Vec<_>>(), "span");
        let (build, new, run) = (span(|r| r.build)?, span(|r| r.new)?, span(|r| r.run)?);
        layers.build_s += build;
        layers.new_s += new;
        layers.run_s += run;
        layers.obs_s += med(&obs_s, "observed run")?;
        layers.events += cell_reps.first().map_or(0, |r| r.events);
        if let Some(obs) = last {
            layers.add_obs(&obs);
        }
        let cfg = sim.config().map_err(err)?;
        layers.replay.add(&replay(&cfg, &artifact)?);
    }

    if trace {
        let reps_run: Vec<f64> = reps.iter().map(|r| r.run).collect();
        if !plan.grid {
            notes.push(spread_note("System::try_run", &reps_run, 1.0, "s"));
        }
        layers.report(&mut report, &reference, instructions);
        store_layer(
            &mut report,
            &mut notes,
            &mut gate,
            plan,
            &store,
            &canonicals,
            tmp,
        )?;
    }
    Ok(Outcome {
        report,
        gate,
        digest,
        notes,
    })
}

/// Per-layer figures summed over a workload's cells.
#[derive(Default)]
struct Layers {
    build_s: f64,
    new_s: f64,
    run_s: f64,
    obs_s: f64,
    events: u64,
    coh_msgs: u64,
    per_hop: [imp_obs::LedgerCounts; MAX_HOPS],
    demand_latency: Histogram,
    use_distance: Histogram,
    walk_latency: Histogram,
    replay: Replay,
}

impl Layers {
    fn add_obs(&mut self, obs: &ObsReport) {
        self.coh_msgs += obs.epochs.iter().map(|e| e.counters.coh_msgs).sum::<u64>();
        for (sum, hop) in self.per_hop.iter_mut().zip(&obs.ledger_per_hop) {
            *sum = merge_counts([*sum, *hop].iter());
        }
        self.demand_latency.merge(&obs.demand_latency);
        self.use_distance.merge(&obs.use_distance);
        self.walk_latency.merge(&obs.walk_latency);
    }

    fn report(&self, r: &mut Report, reference: &[SystemStats], instructions: u64) {
        let sum = |f: &dyn Fn(&SystemStats) -> u64| reference.iter().map(f).sum::<u64>() as f64;
        let cores = |f: &dyn Fn(&imp_common::CoreStats) -> u64| {
            sum(&|s: &SystemStats| s.cores.iter().map(f).sum())
        };
        let pf = |f: &dyn Fn(&imp_common::PrefetchStats) -> u64| {
            sum(&|s: &SystemStats| f(&s.prefetch_total()))
        };
        let tlb =
            |f: &dyn Fn(&imp_common::TlbStats) -> u64| sum(&|s: &SystemStats| f(&s.tlb_total()));
        let quantile = |h: &Histogram, q: f64| h.quantile(q).unwrap_or(0) as f64;

        r.put("imp-workloads.build_s", self.build_s);
        r.put("imp-sim.new_s", self.new_s);
        r.put("imp-sim.run_s", self.run_s);
        r.put("imp-sim.events", self.events as f64);
        r.put(
            "imp-sim.events_per_op",
            ratio(self.events as f64, instructions as f64),
        );
        r.put(
            "imp-sim.ns_per_event",
            ratio(self.run_s * 1e9, self.events as f64),
        );

        for (i, class) in ["indirect", "stream", "other"].iter().enumerate() {
            r.put(
                &format!("imp-cpu.stall_cycles.{class}"),
                cores(&|c| c.stall_cycles[i]),
            );
        }
        r.put("imp-cpu.barrier_cycles", cores(&|c| c.barrier_cycles));
        r.put("imp-cpu.walk_stall_cycles", cores(&|c| c.walk_stall_cycles));

        let misses = cores(&|c| c.total_misses());
        r.put("imp-cache.l1_accesses", cores(&|c| c.l1_accesses));
        r.put("imp-cache.l1_hits", cores(&|c| c.l1_hits));
        for (i, class) in ["indirect", "stream", "other"].iter().enumerate() {
            r.put(
                &format!("imp-cache.l1_misses.{class}"),
                cores(&|c| c.l1_misses[i]),
            );
        }
        r.put(
            "imp-cache.avg_miss_latency_cycles",
            ratio(
                cores(&|c| c.mem_latency_sum),
                cores(&|c| c.mem_latency_count),
            ),
        );
        r.put(
            "imp-cache.replay_ns_per_access",
            self.replay.cache.ns_per_call(),
        );

        // The formulas of `PrefetchStats::coverage` and `accuracy`,
        // over every cell's totals.
        let captured = pf(&|p| p.covered + p.late);
        let judged = pf(&|p| p.useful + p.unused);
        r.put("imp-prefetch.issued.stream", pf(&|p| p.issued_stream));
        r.put("imp-prefetch.issued.indirect", pf(&|p| p.issued_indirect));
        r.put(
            "imp-prefetch.generated_indirect",
            pf(&|p| p.generated_indirect),
        );
        r.put("imp-prefetch.useful", pf(&|p| p.useful));
        r.put("imp-prefetch.late", pf(&|p| p.late));
        r.put("imp-prefetch.unused", pf(&|p| p.unused));
        r.put("imp-prefetch.coverage", ratio(captured, captured + misses));
        r.put("imp-prefetch.accuracy", ratio(pf(&|p| p.useful), judged));
        r.put("imp-prefetch.mshr_drops", pf(&|p| p.mshr_drops));
        r.put("imp-prefetch.deferred_drops", pf(&|p| p.deferred_drops));
        r.put(
            "imp-prefetch.replay_ns_per_access",
            self.replay.prefetch.ns_per_call(),
        );

        r.put("imp-coherence.msgs", self.coh_msgs as f64);
        r.put(
            "imp-coherence.msgs_per_l1_miss",
            ratio(self.coh_msgs as f64, misses),
        );
        r.put(
            "imp-coherence.replay_ns_per_add_sharer",
            self.replay.directory.ns_per_call(),
        );
        r.put("imp-noc.messages", sum(&|s| s.traffic.noc_messages));
        r.put("imp-noc.flit_hops", sum(&|s| s.traffic.noc_flit_hops));
        r.put("imp-noc.replay_ns_per_send", self.replay.noc.ns_per_call());
        r.put("imp-dram.accesses", sum(&|s| s.traffic.dram_accesses));
        r.put("imp-dram.read_bytes", sum(&|s| s.traffic.dram_read_bytes));
        r.put("imp-dram.write_bytes", sum(&|s| s.traffic.dram_write_bytes));

        r.put("imp-vm.tlb_hits", tlb(&|t| t.hits));
        r.put("imp-vm.tlb_misses", tlb(&|t| t.misses));
        r.put("imp-vm.l2_tlb_misses", sum(&|s| s.tlb_l2.misses));
        r.put("imp-vm.walk_levels", tlb(&|t| t.walk_levels));
        r.put("imp-vm.walk_cycles", tlb(&|t| t.walk_cycles));
        r.put(
            "imp-vm.prefetch_walks",
            tlb(&|t| t.prefetch_walks) + sum(&|s| s.tlb_l2.prefetch_walks),
        );
        r.put("imp-vm.walk_p99_cycles", quantile(&self.walk_latency, 0.99));
        r.put(
            "imp-vm.replay_ns_per_translate",
            self.replay.translate.ns_per_call(),
        );

        r.put(
            "imp-obs.overhead_ratio",
            ratio(self.obs_s, self.new_s + self.run_s),
        );
        for (h, c) in self.per_hop.iter().take(4).enumerate() {
            r.put(&format!("imp-obs.ledger.fills.h{h}"), c.fills as f64);
            r.put(&format!("imp-obs.ledger.used.h{h}"), c.used as f64);
            r.put(&format!("imp-obs.ledger.late.h{h}"), c.late as f64);
            r.put(
                &format!("imp-obs.ledger.evicted_unused.h{h}"),
                c.evicted_unused as f64,
            );
        }
        r.put(
            "imp-obs.demand_latency_p50_cycles",
            quantile(&self.demand_latency, 0.5),
        );
        r.put(
            "imp-obs.demand_latency_p99_cycles",
            quantile(&self.demand_latency, 0.99),
        );
        r.put(
            "imp-obs.use_distance_p50_cycles",
            quantile(&self.use_distance, 0.5),
        );
    }
}

/// Times `ResultStore::get` and `put` on this workload's own records,
/// and `Sim::canonical_input` on its cells.
fn store_layer(
    r: &mut Report,
    notes: &mut Vec<String>,
    gate: &mut Gate,
    plan: &Plan,
    store: &ResultStore,
    canonicals: &[String],
    tmp: &Path,
) -> Result<(), String> {
    let mut get_us = Vec::with_capacity(STORE_SAMPLES);
    let mut records: Vec<StoredResult> = Vec::new();
    let mut lost = 0;
    while get_us.len() < STORE_SAMPLES {
        for canonical in canonicals {
            let t = Instant::now();
            let got = store.get(canonical);
            get_us.push(t.elapsed().as_secs_f64() * 1e6);
            match got {
                Ok(Some(record)) if records.len() < canonicals.len() => records.push(record),
                Ok(Some(_)) => {}
                _ => lost += 1,
            }
        }
    }
    gate.record(
        "store gets",
        ensure(lost == 0, || format!("{lost} gets found no record")),
    );
    ensure(records.len() == canonicals.len(), || {
        "the store lost records".into()
    })?;
    let put_store = ResultStore::open(tmp.join("put")).map_err(err)?;
    let mut put_us = Vec::with_capacity(STORE_SAMPLES);
    let mut failed_puts = 0;
    while put_us.len() < STORE_SAMPLES {
        for record in &records {
            let t = Instant::now();
            let put = put_store.put(record);
            put_us.push(t.elapsed().as_secs_f64() * 1e6);
            failed_puts += u32::from(put.is_err());
        }
    }
    gate.record(
        "store puts",
        ensure(failed_puts == 0, || format!("{failed_puts} puts failed")),
    );
    let mut canonical_us = Vec::with_capacity(STORE_SAMPLES);
    while canonical_us.len() < STORE_SAMPLES {
        for sim in &plan.sims {
            let t = Instant::now();
            let c = sim.canonical_input();
            canonical_us.push(t.elapsed().as_secs_f64() * 1e6);
            black_box(c.map_err(err)?);
        }
    }
    for (what, samples) in [("get", &get_us), ("put", &put_us)] {
        let t = tail(samples).ok_or("too few store samples")?;
        r.put(&format!("imp-store.{what}_us_p50"), med(samples, what)?);
        r.put(&format!("imp-store.{what}_us_{}", t.label()), t.value);
        notes.push(spread_note(
            &format!("ResultStore::{what}"),
            samples,
            1.0,
            "us",
        ));
    }
    let bytes: usize = records.iter().map(|rec| rec.to_bytes().len()).sum();
    r.put(
        "imp-store.record_bytes",
        ratio(bytes as f64, records.len() as f64),
    );
    r.put(
        "imp-experiments.canonical_us",
        med(&canonical_us, "canonical")?,
    );
    notes.push(spread_note(
        "Sim::canonical_input",
        &canonical_us,
        1.0,
        "us",
    ));
    Ok(())
}

/// Peak resident memory of this process so far, in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(err)?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}
