//! Standalone layer replay: a workload's own per-core demand stream,
//! read from the built artifact, fed through each layer's public entry
//! point outside the simulator, one layer at a time.
//!
//! Each phase is timed as a whole and divided by its call count, so a
//! figure is a layer's cost per call on this workload's addresses — not
//! its self time inside the simulator, where calls interleave with the
//! event loop and with each other.

use imp_cache::{AccessOutcome, LineState, SectoredCache};
use imp_coherence::Directory;
use imp_common::stats::AccessClass;
use imp_common::{Addr, Cycle, LineAddr, SectorMask, SystemConfig};
use imp_mem::FunctionalMemory;
use imp_noc::Mesh;
use imp_obs::CoreProbe;
use imp_prefetch::registry::{self, BuildCtx};
use imp_prefetch::{Access, IndexValueSource, L1Prefetcher, PrefetchCtx};
use imp_trace::{Op, OpKind};
use imp_vm::Vm;
use imp_workloads::BuiltArtifact;
use std::hint::black_box;
use std::time::Instant;

/// Host time and call count of each replayed layer.
#[derive(Clone, Copy, Debug, Default)]
pub struct Replay {
    /// `SectoredCache::demand_access` plus `fill` on a miss.
    pub cache: Phase,
    /// The configured prefetcher's `on_access_ctx`.
    pub prefetch: Phase,
    /// `Vm::demand_translate` (no calls under ideal translation, which
    /// the simulator skips too).
    pub translate: Phase,
    /// `Mesh::send`, a request and a response per L1 miss.
    pub noc: Phase,
    /// `Directory::add_sharer` at the home tile of each L1 miss.
    pub directory: Phase,
}

/// One layer's replay: total host time and calls made.
#[derive(Clone, Copy, Debug, Default)]
pub struct Phase {
    /// Host seconds spent in the phase.
    pub secs: f64,
    /// Calls made into the layer.
    pub calls: u64,
}

impl Phase {
    fn timed(calls: u64, start: Instant) -> Self {
        Phase {
            secs: start.elapsed().as_secs_f64(),
            calls,
        }
    }

    /// Host nanoseconds per call (0 when the layer was not called).
    pub fn ns_per_call(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.secs * 1e9 / self.calls as f64
        }
    }

    /// Adds another cell's replay of the same layer.
    pub fn add(&mut self, other: Phase) {
        self.secs += other.secs;
        self.calls += other.calls;
    }
}

impl Replay {
    /// Adds another cell's replay, layer by layer.
    pub fn add(&mut self, other: &Replay) {
        self.cache.add(other.cache);
        self.prefetch.add(other.prefetch);
        self.translate.add(other.translate);
        self.noc.add(other.noc);
        self.directory.add(other.directory);
    }
}

/// Index values read straight from the artifact's memory image.
struct MemValues<'a>(&'a FunctionalMemory);

impl IndexValueSource for MemValues<'_> {
    fn read_value(&mut self, addr: Addr, size: u32) -> Option<u64> {
        Some(self.0.read_uint(addr, size))
    }
}

/// Replays `artifact`'s demand stream through the layers `cfg` builds.
///
/// # Errors
///
/// A prefetcher spec the registry cannot build, or a TLB geometry the
/// VM rejects.
pub fn replay(cfg: &SystemConfig, artifact: &BuiltArtifact) -> Result<Replay, String> {
    let program = artifact.program();
    let n = cfg.cores as usize;
    let streams: Vec<&[Op]> = (0..n).map(|c| program.ops(c)).collect();
    let demand = |c: usize| streams[c].iter().filter(|op| op.is_demand());
    let partial = cfg.partial != imp_common::config::PartialMode::Off;

    // Cache: every demand access against its core's L1, filling on a
    // miss. The outcomes feed the later phases.
    let sectors = if partial { cfg.mem.l1d.sectors } else { 1 };
    let mut l1: Vec<SectoredCache> = (0..n)
        .map(|_| SectoredCache::new(cfg.mem.l1d.size_bytes, cfg.mem.l1d.associativity, sectors))
        .collect();
    let accesses: u64 = (0..n).map(|c| demand(c).count() as u64).sum();
    let mut missed: Vec<bool> = Vec::with_capacity(accesses as usize);
    let start = Instant::now();
    for (c, cache) in l1.iter_mut().enumerate() {
        for op in demand(c) {
            let addr = op.mem_addr();
            let line = LineAddr::containing(addr);
            let touch = SectorMask::l1_touch(addr, u32::from(op.size));
            let write = op.kind == OpKind::Store;
            let miss = !matches!(
                cache.demand_access(line, touch, write),
                AccessOutcome::Hit { .. }
            );
            if miss {
                let state = if write {
                    LineState::Modified
                } else {
                    LineState::Shared
                };
                black_box(cache.fill(line, touch, state, false));
            }
            missed.push(miss);
        }
    }
    let cache = Phase::timed(accesses, start);

    // Prefetcher: the same accesses with their L1 outcomes.
    let imp = &cfg.imp;
    let mut prefetchers: Vec<Box<dyn L1Prefetcher>> = (0..n)
        .map(|c| {
            let ctx = BuildCtx {
                core: c as u32,
                imp,
                partial,
            };
            registry::build(&cfg.prefetcher, &ctx)
        })
        .collect::<Result<_, _>>()
        .map_err(|e| e.to_string())?;
    let mut values = MemValues(artifact.mem());
    let probe = CoreProbe::disabled();
    let mut reqs = Vec::new();
    let mut issued = 0u64;
    let mut k = 0;
    let start = Instant::now();
    for (c, pf) in prefetchers.iter_mut().enumerate() {
        for op in demand(c) {
            let access = Access {
                pc: op.pc,
                addr: op.mem_addr(),
                size: u32::from(op.size),
                is_write: op.kind == OpKind::Store,
                miss: missed[k],
            };
            k += 1;
            let mut ctx =
                PrefetchCtx::new(op.pc, AccessClass::Other, &mut values, &mut reqs, &probe);
            pf.on_access_ctx(access, &mut ctx);
            issued += reqs.len() as u64;
            reqs.clear();
        }
    }
    let prefetch = Phase::timed(accesses, start);
    black_box(issued);

    // Translation: every demand address, unless translation is ideal.
    let translate = if cfg.tlb.ideal {
        Phase::default()
    } else {
        let mut vm = Vm::new(&cfg.tlb, n).map_err(|e| e.to_string())?;
        let mut stall: Cycle = 0;
        let start = Instant::now();
        for c in 0..n {
            for op in demand(c) {
                stall += vm.demand_translate(c, op.mem_addr()).walk_cycles;
            }
        }
        black_box(stall);
        Phase::timed(accesses, start)
    };

    // NoC and directory: each L1 miss goes to its line's home tile.
    let misses: Vec<(u32, LineAddr)> = {
        let mut k = 0;
        let mut v = Vec::new();
        for c in 0..n {
            for op in demand(c) {
                if missed[k] {
                    v.push((c as u32, LineAddr::containing(op.mem_addr())));
                }
                k += 1;
            }
        }
        v
    };
    let home = |line: LineAddr| (line.number() % u64::from(cfg.cores)) as u32;
    let side = (f64::from(cfg.cores)).sqrt() as u32;
    let mut mesh = Mesh::new(side, cfg.mem.hop_latency, cfg.mem.flit_bytes);
    let mut arrival: Cycle = 0;
    let start = Instant::now();
    for (i, &(core, line)) in misses.iter().enumerate() {
        let (at_home, _) = mesh.send(core, home(line), 0, i as Cycle);
        let (back, _) = mesh.send(home(line), core, cfg.mem.line_bytes, at_home);
        arrival = arrival.max(back);
    }
    let noc = Phase::timed(2 * misses.len() as u64, start);
    black_box(arrival);

    let mut dirs: Vec<Directory> = (0..n)
        .map(|_| Directory::new(cfg.mem.ackwise_k as usize, cfg.cores))
        .collect();
    let start = Instant::now();
    for &(core, line) in &misses {
        dirs[home(line) as usize].add_sharer(line, core);
    }
    let directory = Phase::timed(misses.len() as u64, start);
    black_box(dirs.iter().map(Directory::tracked_lines).sum::<usize>());

    Ok(Replay {
        cache,
        prefetch,
        translate,
        noc,
        directory,
    })
}
