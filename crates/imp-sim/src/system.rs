//! The full-system simulator: tiles (core + L1D + prefetcher + L2 slice +
//! directory slice), mesh NoC, memory controllers, and the event loop.
//!
//! The protocol is a simplified MSI directory protocol with ACKwise-4
//! sharer tracking (Table 1). Each home tile serializes transactions per
//! line; invalidations are collected with explicit acks; L2 evictions
//! recall L1 copies fire-and-forget (timing-only simplification — data
//! correctness is carried by the functional memory, not the caches).

use crate::msg::{Msg, MsgKind};
use imp_adapt::{EpochTracker, Manager, ManagerError};
use imp_cache::{AccessOutcome, Evicted, LineState, MshrAlloc, MshrFile, SectoredCache};
use imp_coherence::{Directory, InvTargets};
use imp_common::config::{
    CoreModel, DramModelKind, MemMode, PartialMode, PrefetcherSpec, WalkModel,
};
use imp_common::stats::{
    AccessClass, CoreStats, PrefetchStats, SystemStats, TlbStats, TrafficStats,
};
use imp_common::{
    Addr, Cycle, EventQueue, FastMap, LineAddr, SectorMask, SystemConfig, LINE_BYTES,
};
use imp_cpu::{CoreBlock, CoreEngine, InOrderCore, MemPort, MemResult, OooCore};
use imp_dram::{Ddr3Dram, Ddr3Timing, DramModel, FixedLatencyDram};
use imp_mem::FunctionalMemory;
use imp_noc::{mc_for_line, mc_tiles, Mesh};
use imp_obs::{CoreProbe, Ledger, Probe};
use imp_prefetch::registry::{self, BuildCtx, RegistryError};
use imp_prefetch::{
    class_of, Access, Control, IndexValueSource, L1Prefetcher, NullPrefetcher, PrefetchCtx,
    PrefetchRequest, PrefetcherStats,
};
use imp_trace::{BarrierMismatch, OpKind, Program};
use imp_vm::{PagePlacement, PrefetchTranslation, Vm, VmConfigError, WalkMemory, PTE_BYTES};
use std::collections::VecDeque;
use std::fmt;

/// Why [`System::try_new`] rejected its inputs.
#[derive(Clone, Debug, PartialEq)]
pub enum BuildError {
    /// The prefetcher spec did not resolve against the plugin registry.
    Registry(RegistryError),
    /// The program's cores disagree on barrier counts (it would
    /// deadlock).
    Barrier(BarrierMismatch),
    /// The program was generated for a different core count than the
    /// configuration describes.
    CoreCountMismatch {
        /// Cores the program was generated for.
        program: usize,
        /// Cores the configuration describes.
        config: u32,
    },
    /// The TLB configuration is invalid (zero sets/ways, bad page size).
    Vm(VmConfigError),
    /// The adaptive-manager spec did not resolve (unknown policy or
    /// invalid parameter).
    Manager(ManagerError),
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::Registry(e) => write!(f, "{e}"),
            BuildError::Barrier(e) => write!(f, "{e}"),
            BuildError::CoreCountMismatch { program, config } => write!(
                f,
                "program was generated for {program} cores but the configuration has {config}"
            ),
            BuildError::Vm(e) => write!(f, "{e}"),
            BuildError::Manager(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for BuildError {}

/// Why [`System::try_run`] stopped before the program finished.
#[derive(Clone, Debug)]
pub enum RunError {
    /// The event budget (default [`DEFAULT_EVENT_BUDGET`], see
    /// [`System::set_event_budget`]) was exhausted before every core
    /// retired. Carries the statistics collected so far, so a sweep can
    /// record the partial cell instead of aborting the process.
    EventBudgetExceeded {
        /// Events processed (= the budget that was exceeded).
        events: u64,
        /// Statistics at the moment the budget ran out.
        stats: Box<SystemStats>,
    },
    /// The event queue drained with unfinished cores: the program
    /// deadlocked (e.g. a core waiting on a barrier no one else reaches).
    Deadlock {
        /// Cores that had not finished.
        unfinished: usize,
        /// Total cores.
        cores: usize,
    },
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::EventBudgetExceeded { events, .. } => {
                write!(f, "simulation exceeded event budget ({events} events)")
            }
            RunError::Deadlock { unfinished, cores } => write!(
                f,
                "event queue drained with {unfinished} of {cores} cores unfinished (deadlock)"
            ),
        }
    }
}

impl std::error::Error for RunError {}

/// Default [`System::try_run`] event budget: generous enough that every
/// legitimate workload finishes, small enough to catch runaway cells.
pub const DEFAULT_EVENT_BUDGET: u64 = 20_000_000_000;

impl From<RegistryError> for BuildError {
    fn from(e: RegistryError) -> Self {
        BuildError::Registry(e)
    }
}

impl From<BarrierMismatch> for BuildError {
    fn from(e: BarrierMismatch) -> Self {
        BuildError::Barrier(e)
    }
}

impl From<VmConfigError> for BuildError {
    fn from(e: VmConfigError) -> Self {
        BuildError::Vm(e)
    }
}

impl From<ManagerError> for BuildError {
    fn from(e: ManagerError) -> Self {
        BuildError::Manager(e)
    }
}

/// The adaptive control plane's run state: a [`Manager`] (epoch length
/// and policy), the [`EpochTracker`] that turns the run's cumulative
/// timeliness ledger ([`Fabric`]'s, which a managed run always holds,
/// probe or not) into per-epoch deltas, and the [`Control`] currently
/// in force.
struct ManagerState {
    mgr: Manager,
    tracker: EpochTracker,
    /// Cycle at which the next epoch closes.
    next_epoch: Cycle,
    /// The control installed at the last epoch boundary; applied to
    /// every prefetch-request batch until the next boundary.
    control: Control,
    /// Cumulative demand misses (the tracker turns them into deltas).
    demand_misses: u64,
    /// The prefetcher spec currently running (switches are applied
    /// once per distinct spec).
    active: PrefetcherSpec,
}

/// Discrete events of the simulation.
#[derive(Debug)]
enum Event {
    CoreWake(u32),
    Deliver(Msg),
}

/// Per-core run state.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum CoreRun {
    Ready,
    WaitMem,
    WaitBarrier,
    Done,
}

/// Who is waiting on an outstanding L1 miss.
#[derive(Debug, Clone, Copy)]
enum Waiter {
    Demand {
        token: u64,
        write: bool,
        touch: SectorMask,
    },
    /// A store retired through the store buffer: no core to wake, but
    /// the filled line must be dirtied.
    Store {
        touch: SectorMask,
    },
    Prefetch {
        req: PrefetchRequest,
    },
    SwPrefetch,
    PerfPref {
        id: u64,
    },
}

/// An in-flight transaction at a home tile.
#[derive(Debug)]
struct Txn {
    requester: u32,
    sectors: SectorMask,
    exclusive: bool,
    acks_pending: u32,
    data_ready: bool,
}

/// Reads index values out of the L1 (IMP can only use values whose lines
/// are cache-resident, as the hardware would).
struct L1Values<'a> {
    l1: &'a SectoredCache,
    mem: &'a FunctionalMemory,
}

impl IndexValueSource for L1Values<'_> {
    fn read_value(&mut self, addr: Addr, size: u32) -> Option<u64> {
        let line = LineAddr::containing(addr);
        let l = self.l1.probe(line)?;
        // Clip the touch mask to the cache's sectoring (a non-sectored
        // cache has a single sector covering the whole line).
        let need = SectorMask::l1_touch(addr, size).intersect(self.l1.full_mask());
        if l.valid.contains(need) {
            Some(self.mem.read_uint(addr, size))
        } else {
            None
        }
    }
}

/// Everything except the core engines (so cores and fabric can be
/// borrowed simultaneously).
struct Fabric {
    cfg: SystemConfig,
    queue: EventQueue<Event>,
    l1: Vec<SectoredCache>,
    mshr: Vec<MshrFile<Waiter>>,
    pref: Vec<Box<dyn L1Prefetcher>>,
    pstats: Vec<PrefetchStats>,
    l2: Vec<SectoredCache>,
    dir: Vec<Directory>,
    txns: Vec<FastMap<LineAddr, Txn>>,
    queued: Vec<FastMap<LineAddr, VecDeque<Msg>>>,
    mesh: Mesh,
    drams: Vec<Box<dyn DramModel>>,
    mc_tiles: Vec<u32>,
    mem: FunctionalMemory,
    traffic: TrafficStats,
    completions: Vec<(u32, u64, Cycle)>,
    /// Observability hook (disabled by default; see
    /// [`System::attach_probe`]). Records only, so it changes no timing.
    /// Its prefetch hooks are called only with an outcome of `ledger`,
    /// and the finished ledger is handed to it at the end of the run.
    probe: Probe,
    /// Per-core views of `probe` handed to prefetchers through
    /// [`PrefetchCtx`] (pre-built so the hot path never clones).
    cprobes: Vec<CoreProbe>,
    /// Adaptive manager state; `None` — the default — leaves every
    /// path below bit-identical to an unmanaged build.
    mgr: Option<ManagerState>,
    /// The run's one prefetch-timeliness ledger, read by both the
    /// manager and the probe. `Some` when a manager is configured or an
    /// enabled probe is attached, `None` otherwise, so an unobserved
    /// unmanaged run pays one branch per prefetch fate.
    ledger: Option<Ledger>,
    /// Model-side prefetcher statistics carried over from prefetchers
    /// replaced by a manager-requested switch (zero until a switch
    /// happens); [`System::collect_stats`] adds them to the live
    /// model's counters.
    carried_pref: Vec<PrefetcherStats>,
    /// Reusable [`PrefetchRequest`] buffers for prefetcher callbacks
    /// (a pool, because fill hooks can recurse through
    /// [`Fabric::issue_prefetch`]). Keeps the per-access path
    /// allocation-free.
    req_bufs: Vec<Vec<PrefetchRequest>>,
    next_token: u64,
    /// Per-core dTLBs over a shared page table/walker; `None` under the
    /// default ideal translation (and in the Ideal/PerfectPrefetch
    /// memory modes), where every path below is bit-identical to the
    /// pre-`imp-vm` simulator. The page table identity-maps on first
    /// touch, so translation changes timing only — never which lines
    /// move.
    vm: Option<Vm>,
    // PerfectPrefetch state.
    shadow: Vec<SectoredCache>,
    pp_outstanding: Vec<VecDeque<u64>>,
    pp_issue: FastMap<u64, Cycle>,
    pp_blocked: Vec<Option<(u64, u64)>>,
    pp_next_id: u64,
}

impl Fabric {
    fn home_of(&self, line: LineAddr) -> u32 {
        (line.number() % u64::from(self.cfg.cores)) as u32
    }

    fn take_req_buf(&mut self) -> Vec<PrefetchRequest> {
        self.req_bufs.pop().unwrap_or_default()
    }

    fn put_req_buf(&mut self, mut buf: Vec<PrefetchRequest>) {
        buf.clear();
        self.req_bufs.push(buf);
    }

    /// Applies the manager's standing [`Control`] to a freshly
    /// collected request batch: masked PCs are dropped, then the batch
    /// is truncated to the degree limit. A no-op without a manager (or
    /// under the `static` policy, whose control is always empty).
    fn apply_control(&self, reqs: &mut Vec<PrefetchRequest>) {
        let Some(m) = self.mgr.as_ref() else { return };
        if m.control.is_none() {
            return;
        }
        if !m.control.masked_pcs.is_empty() {
            // masked_pcs is sorted+deduped by `Control::merge`.
            reqs.retain(|r| m.control.masked_pcs.binary_search(&r.pc).is_err());
        }
        if let Some(max_hop) = m.control.depth_limit {
            // Deep-chase demotion: drop chained requests past the
            // allowed hop (sequential prefetches are hop 0 and always
            // survive this filter).
            reqs.retain(|r| r.kind.hop() <= max_hop);
        }
        if let Some(limit) = m.control.degree_limit {
            reqs.truncate(limit as usize);
        }
    }

    /// Total prefetch translations dropped by the TLB so far (base +
    /// huge sub-TLBs, all cores) — the pressure signal behind the
    /// demote-IMP rule.
    fn tlb_prefetch_drops_total(&self) -> u64 {
        let Some(vm) = self.vm.as_ref() else { return 0 };
        (0..self.cfg.cores as usize)
            .map(|c| vm.stats(c).prefetch_drops + vm.huge_stats(c).map_or(0, |s| s.prefetch_drops))
            .sum()
    }

    /// Closes every epoch boundary at or before `now`: distills the
    /// ledger into a [`Feedback`](imp_prefetch::Feedback) delta, asks
    /// the policy and each core's prefetcher for a [`Control`], applies
    /// a requested switch, and installs the merged control until the
    /// next boundary.
    fn manager_tick(&mut self, now: Cycle) {
        let Some(mut m) = self.mgr.take() else { return };
        while now >= m.next_epoch {
            let end = m.next_epoch;
            let drops = self.tlb_prefetch_drops_total();
            let flit_hops = self.mesh.flit_hops();
            let dram_bytes = self.traffic.dram_read_bytes + self.traffic.dram_write_bytes;
            let fb = m.tracker.feedback(
                self.ledger.as_ref().expect("a managed run holds a ledger"),
                end,
                m.demand_misses,
                drops,
                flit_hops,
                dram_bytes,
            );
            let mut ctl = m.mgr.on_epoch(&fb);
            for p in &mut self.pref {
                ctl = ctl.merge(p.on_feedback(&fb));
            }
            if let Some(spec) = ctl.switch_to.take() {
                if spec != m.active && self.switch_prefetcher(&spec) {
                    m.active = spec;
                }
            }
            m.control = ctl;
            m.next_epoch = end + m.mgr.epoch_len();
        }
        self.mgr = Some(m);
    }

    /// Rebuilds every core's prefetcher from `spec`, folding the
    /// outgoing models' detection counters into the carried statistics
    /// so nothing is lost at the seam. Returns `false` (leaving the
    /// running prefetchers untouched) if the registry rejects the spec
    /// — a mid-run switch must never abort a simulation.
    fn switch_prefetcher(&mut self, spec: &PrefetcherSpec) -> bool {
        let partial = self.cfg.partial != PartialMode::Off;
        let mut fresh: Vec<Box<dyn L1Prefetcher>> = Vec::with_capacity(self.pref.len());
        for c in 0..self.pref.len() {
            let ctx = BuildCtx {
                core: c as u32,
                imp: &self.cfg.imp,
                partial,
            };
            match registry::build(spec, &ctx) {
                Ok(p) => fresh.push(p),
                Err(_) => return false,
            }
        }
        for (carried, old) in self.carried_pref.iter_mut().zip(&self.pref) {
            carried.merge(old.stats());
        }
        self.pref = fresh;
        true
    }

    fn send(&mut self, msg: Msg, at: Cycle) {
        let (arrival, _) = self.mesh.send(msg.src, msg.dst, msg.payload_bytes, at);
        self.queue.push(arrival, Event::Deliver(msg));
    }

    /// Bytes represented by an L1 sector mask under the current
    /// sectoring (a non-sectored line's single sector is the whole line).
    fn l1_mask_bytes(&self, c: usize, mask: SectorMask) -> u64 {
        let sectors = self.l1[c].sectors().max(1);
        let clipped = mask.intersect(self.l1[c].full_mask());
        u64::from(clipped.count()) * (LINE_BYTES / u64::from(sectors))
    }

    /// Bytes represented by an L2 sector mask under the current
    /// sectoring.
    fn l2_mask_bytes(&self, h: usize, mask: SectorMask) -> u64 {
        let sectors = self.l2[h].sectors().max(1);
        let clipped = mask.intersect(self.l2[h].full_mask());
        u64::from(clipped.count()) * (LINE_BYTES / u64::from(sectors))
    }

    fn full_or(&self, partial_sectors: SectorMask) -> SectorMask {
        if self.cfg.partial == PartialMode::Off {
            SectorMask::FULL_L1
        } else {
            partial_sectors
        }
    }

    // ------------------------------------------------------------------
    // Address translation (imp-vm)
    // ------------------------------------------------------------------

    /// First-order walk traffic under `WalkModel::Flat`: each radix
    /// level reads one 8-byte page-table entry from DRAM (no NoC or
    /// shared-cache occupancy). Under `WalkModel::Cached` the real PTE
    /// reads are accounted in [`Fabric::pte_read`] instead.
    fn walk_traffic(&mut self, levels: u32) {
        if self.cfg.tlb.walk_dram_traffic && self.cfg.tlb.walk_model == WalkModel::Flat {
            self.traffic.dram_read_bytes += 8 * u64::from(levels);
            self.traffic.dram_accesses += u64::from(levels);
        }
    }

    /// Translates a demand access issued at `now`, returning the
    /// translation cycles it must stall for (0 on a TLB hit or under
    /// ideal translation). The `Vm` is taken out of `self` for the
    /// call so a cached walk can route its PTE reads back through this
    /// fabric.
    fn demand_translate(&mut self, c: usize, addr: Addr, now: Cycle) -> Cycle {
        let Some(mut vm) = self.vm.take() else {
            return 0;
        };
        let t = vm.demand_translate_via(c, addr, now, self);
        self.vm = Some(vm);
        // walk_levels is 0 exactly on a TLB hit (either level); a
        // zero-latency flat walk still reads its page-table entries.
        if t.walk_levels > 0 {
            self.walk_traffic(t.walk_levels);
        }
        if t.source() != imp_vm::TranslationSource::DTlbHit {
            self.probe
                .translation(c as u32, addr.raw(), now, t.walk_cycles, t.walk_levels);
        }
        t.walk_cycles
    }

    /// Translates a prefetch address under the configured policy.
    /// Returns the cycle at which the prefetch may issue (delayed past
    /// `now` by a non-blocking walk or an L2-TLB hit), or `None` when
    /// the policy dropped it.
    fn prefetch_translate(&mut self, c: usize, addr: Addr, now: Cycle) -> Option<Cycle> {
        let Some(mut vm) = self.vm.take() else {
            return Some(now);
        };
        let outcome = vm.prefetch_translate_via(c, addr, now, self);
        self.vm = Some(vm);
        match outcome {
            PrefetchTranslation::Ready(_) => Some(now),
            PrefetchTranslation::Walked { cycles, levels, .. } => {
                self.walk_traffic(levels);
                Some(now + cycles)
            }
            PrefetchTranslation::Dropped => None,
        }
    }

    /// Drives the `Vm`'s translation-prefetch port for a value-derived
    /// prefetch target: prefill the shared L2 TLB with the page's
    /// translation so this prefetch (and later ones to the page)
    /// survive `DropOnMiss`. Returns the cycle the translation is
    /// ready, which is when the data prefetch may continue.
    fn translation_prefetch(&mut self, c: usize, addr: Addr, now: Cycle) -> Cycle {
        let Some(mut vm) = self.vm.take() else {
            return now;
        };
        let tp = vm.prefetch_translation(c, addr, now, self);
        self.vm = Some(vm);
        if tp.walk_levels > 0 {
            self.walk_traffic(tp.walk_levels);
        }
        tp.ready
    }

    // ------------------------------------------------------------------
    // Prefetch fates: one call per event. Each bumps core `c`'s
    // PrefetchStats, updates the run's ledger if there is one, and
    // forwards the ledger's outcome to the probe (which is enabled only
    // when the ledger exists). Software prefetches have no fate here.
    // ------------------------------------------------------------------

    /// A prefetch newly allocated an MSHR entry (`partial`: for fewer
    /// sectors than the whole line).
    fn fate_issue(&mut self, c: usize, req: &PrefetchRequest, partial: bool, now: Cycle) {
        let class = class_of(req.kind);
        let s = &mut self.pstats[c];
        if class == AccessClass::Stream {
            s.issued_stream += 1;
        } else {
            s.issued_indirect += 1;
        }
        s.partial_prefetches += u64::from(partial);
        if let Some(l) = self.ledger.as_mut() {
            l.issue(c as u32, req.line(), req.pc, class, req.kind.hop(), now);
            self.probe.prefetch_issue(now);
        }
    }

    /// A demand miss merged into `line`'s in-flight prefetch: it is late.
    fn fate_late(&mut self, c: usize, line: LineAddr, now: Cycle) {
        self.pstats[c].late += 1;
        if let Some(l) = self.ledger.as_mut() {
            l.demand_merge(c as u32, line);
            self.probe.prefetch_demand_merge(c as u32, line, now);
        }
    }

    /// A prefetch's data reached the L1.
    fn fate_fill(&mut self, c: usize, line: LineAddr, now: Cycle) {
        if let Some(l) = self.ledger.as_mut() {
            let outcome = l.fill(c as u32, line, now);
            self.probe.prefetch_fill(c as u32, line, outcome, now);
        }
    }

    /// The first demand touch of a prefetched resident line.
    fn fate_first_use(&mut self, c: usize, line: LineAddr, now: Cycle) {
        self.pstats[c].covered += 1;
        if let Some(l) = self.ledger.as_mut() {
            if let Some(distance) = l.first_use(c as u32, line, now) {
                self.probe.prefetch_first_use(c as u32, line, distance, now);
            }
        }
    }

    /// A line left the L1 (eviction, invalidation or fetch-invalidation):
    /// a prefetched one ends useful or unused, and the prefetcher hears
    /// of every departure.
    fn fate_left_l1(&mut self, c: usize, ev: &Evicted, now: Cycle) {
        if ev.prefetched_untouched {
            self.pstats[c].unused += 1;
            if let Some(l) = self.ledger.as_mut() {
                if l.evicted_unused(c as u32, ev.line) {
                    self.probe.prefetch_evicted_unused(c as u32, ev.line, now);
                }
            }
        } else if ev.prefetched_touched {
            self.pstats[c].useful += 1;
        }
        self.pref[c].on_eviction(ev.line);
    }

    // ------------------------------------------------------------------
    // L1 / core side
    // ------------------------------------------------------------------

    fn observe_and_prefetch(&mut self, c: usize, access: Access, now: Cycle) {
        let mut reqs = self.take_req_buf();
        {
            let mut src = L1Values {
                l1: &self.l1[c],
                mem: &self.mem,
            };
            let mut ctx = PrefetchCtx::new(
                access.pc,
                AccessClass::Other,
                &mut src,
                &mut reqs,
                &self.cprobes[c],
            );
            self.pref[c].on_access_ctx(access, &mut ctx);
        }
        self.apply_control(&mut reqs);
        for r in reqs.drain(..) {
            self.issue_prefetch(c, r, now, 0);
        }
        self.put_req_buf(reqs);
    }

    fn issue_prefetch(&mut self, c: usize, req: PrefetchRequest, now: Cycle, depth: u32) {
        if self.cfg.mem_mode != MemMode::Realistic || depth > 4 {
            return;
        }
        // Translation-only chain-ahead requests never touch the cache
        // hierarchy: they prefill the shared L2 TLB for the hop one past
        // the data frontier, and vanish when translation prefetching is
        // off.
        if req.kind.is_translation_only() {
            if self.cfg.tlb.tlb_prefetch {
                self.translation_prefetch(c, req.addr, now);
            }
            return;
        }
        // IMP's value-derived addresses land on arbitrary virtual pages:
        // the prefetch only proceeds once translated (the configured
        // TranslationPolicy may drop or delay it here). With translation
        // prefetching on, an indirect prediction first prefills the
        // shared L2 TLB for its target page — the data prefetch then
        // survives DropOnMiss via an L2-TLB hit, as do later prefetches
        // to the same page.
        let now = if self.cfg.tlb.tlb_prefetch && req.wants_translation_prefetch() {
            self.translation_prefetch(c, req.addr, now)
        } else {
            now
        };
        let Some(now) = self.prefetch_translate(c, req.addr, now) else {
            return;
        };
        let line = req.line();
        let sectors = self.full_or(req.sectors).intersect(self.l1[c].full_mask());
        if let Some(l) = self.l1[c].probe(line) {
            if l.valid.contains(sectors) {
                // Already resident: run the fill hook so multi-level
                // chains continue.
                let mut chained = self.take_req_buf();
                {
                    let mut src = L1Values {
                        l1: &self.l1[c],
                        mem: &self.mem,
                    };
                    let mut ctx = PrefetchCtx::new(
                        req.pc,
                        class_of(req.kind),
                        &mut src,
                        &mut chained,
                        &self.cprobes[c],
                    );
                    self.pref[c].on_prefetch_fill_ctx(req, &mut ctx);
                }
                self.apply_control(&mut chained);
                for r in chained.drain(..) {
                    self.issue_prefetch(c, r, now, depth + 1);
                }
                self.put_req_buf(chained);
                return;
            }
        }
        match self.mshr[c].alloc(line, sectors, true, Waiter::Prefetch { req }) {
            MshrAlloc::Full => self.pstats[c].mshr_drops += 1,
            MshrAlloc::Merged => {}
            MshrAlloc::MergedNeedsMore(extra) => self.request(c, line, extra, req.exclusive, now),
            MshrAlloc::New => {
                self.fate_issue(c, &req, sectors != self.l1[c].full_mask(), now);
                self.request(c, line, sectors, req.exclusive, now);
            }
        }
    }

    /// Sends core `c`'s request for `sectors` of `line` to its home
    /// tile: a GetX when `exclusive`, a GetS otherwise.
    fn request(
        &mut self,
        c: usize,
        line: LineAddr,
        sectors: SectorMask,
        exclusive: bool,
        now: Cycle,
    ) {
        let kind = if exclusive {
            MsgKind::GetX
        } else {
            MsgKind::GetS
        };
        self.send(
            Msg {
                kind,
                line,
                src: c as u32,
                dst: self.home_of(line),
                requester: c as u32,
                sectors,
                exclusive,
                payload_bytes: 0,
            },
            now,
        );
    }

    fn demand_miss(
        &mut self,
        c: usize,
        line: LineAddr,
        fetch: SectorMask,
        is_write: bool,
        touch: SectorMask,
        now: Cycle,
    ) -> MemResult {
        let token = self.next_token;
        self.next_token += 1;
        if let Some(m) = self.mgr.as_mut() {
            m.demand_misses += 1;
        }
        // A merge into a pure-prefetch entry is a late prefetch.
        if self.mshr[c].get(line).is_some_and(|e| e.prefetch_only) {
            self.fate_late(c, line, now);
        }
        let waiter = if is_write {
            Waiter::Store { touch }
        } else {
            Waiter::Demand {
                token,
                write: false,
                touch,
            }
        };
        match self.mshr[c].alloc(line, fetch, false, waiter) {
            MshrAlloc::Merged => {}
            MshrAlloc::MergedNeedsMore(extra) => self.request(c, line, extra, is_write, now),
            // Demand misses are never structurally refused: the MSHR
            // file is sized for prefetches; a demand always proceeds.
            MshrAlloc::New | MshrAlloc::Full => self.request(c, line, fetch, is_write, now),
        }
        if is_write {
            // Stores retire through the store buffer (1-cycle occupancy);
            // the line is fetched and dirtied in the background.
            MemResult::StoreBuffered(now + self.cfg.mem.l1d.latency)
        } else {
            MemResult::Miss(token)
        }
    }

    /// A demand access against the real L1/coherence path, issued at
    /// `now` (already past any translation stall).
    fn realistic_access(&mut self, c: usize, op: &imp_trace::Op, now: Cycle) -> MemResult {
        let addr = op.mem_addr();
        let line = LineAddr::containing(addr);
        let is_write = op.kind == OpKind::Store;
        let touch = SectorMask::l1_touch(addr, u32::from(op.size));
        let outcome = self.l1[c].demand_access(line, touch, is_write);
        let miss = !matches!(outcome, AccessOutcome::Hit { .. });
        self.observe_and_prefetch(
            c,
            Access {
                pc: op.pc,
                addr,
                size: u32::from(op.size),
                is_write,
                miss,
            },
            now,
        );
        match outcome {
            AccessOutcome::Hit {
                first_touch_of_prefetch,
            } => {
                if first_touch_of_prefetch {
                    self.fate_first_use(c, line, now);
                }
                self.pref[c].on_demand_touch(line, touch);
                let needs_upgrade = is_write
                    && self.l1[c]
                        .probe(line)
                        .is_some_and(|l| l.state == LineState::Shared);
                if needs_upgrade {
                    // Upgrade in the background; the store itself
                    // retires through the store buffer.
                    let _ = self.demand_miss(c, line, touch, true, touch, now);
                }
                MemResult::Hit(now + self.cfg.mem.l1d.latency)
            }
            AccessOutcome::SectorMiss { missing, .. } => {
                self.demand_miss(c, line, missing, is_write, touch, now)
            }
            AccessOutcome::Miss => {
                // Demand misses fetch full lines; only IMP's
                // indirect prefetches use partial masks (§4.2).
                self.demand_miss(c, line, SectorMask::FULL_L1, is_write, touch, now)
            }
        }
    }

    fn l1_data(&mut self, msg: Msg, now: Cycle) {
        let c = msg.dst as usize;
        let Some(mut entry) = self.mshr[c].complete(msg.line) else {
            return;
        };
        let state = if msg.exclusive {
            LineState::Modified
        } else {
            LineState::Shared
        };
        let evicted = self.l1[c].fill(msg.line, entry.requested, state, entry.prefetch_only);
        if let Some(ev) = evicted {
            self.l1_evicted(c, ev, now);
        }
        let at = now + self.cfg.mem.l1d.latency;
        let mut chained = self.take_req_buf();
        for w in entry.waiters.drain(..) {
            match w {
                Waiter::Demand {
                    token,
                    write,
                    touch,
                } => {
                    // Mark touch/dirty on the freshly filled line.
                    let _ = self.l1[c].demand_access(msg.line, touch, write);
                    self.pref[c].on_demand_touch(msg.line, touch);
                    self.completions.push((c as u32, token, at));
                }
                Waiter::Store { touch } => {
                    let _ = self.l1[c].demand_access(msg.line, touch, true);
                    self.l1[c].mark_dirty(msg.line, touch);
                    self.pref[c].on_demand_touch(msg.line, touch);
                }
                Waiter::Prefetch { req } => {
                    self.fate_fill(c, msg.line, now);
                    let mut src = L1Values {
                        l1: &self.l1[c],
                        mem: &self.mem,
                    };
                    let mut ctx = PrefetchCtx::new(
                        req.pc,
                        class_of(req.kind),
                        &mut src,
                        &mut chained,
                        &self.cprobes[c],
                    );
                    self.pref[c].on_prefetch_fill_ctx(req, &mut ctx);
                }
                Waiter::SwPrefetch => {}
                Waiter::PerfPref { id } => {
                    self.pp_issue.remove(&id);
                    if let Some(pos) = self.pp_outstanding[c].iter().position(|&x| x == id) {
                        self.pp_outstanding[c].remove(pos);
                    }
                    if let Some((bid, token)) = self.pp_blocked[c] {
                        if bid == id {
                            self.pp_blocked[c] = None;
                            self.completions.push((c as u32, token, at));
                        }
                    }
                }
            }
        }
        self.apply_control(&mut chained);
        for r in chained.drain(..) {
            self.issue_prefetch(c, r, now, 1);
        }
        self.put_req_buf(chained);
        self.mshr[c].recycle_waiters(entry.waiters);
    }

    fn l1_evicted(&mut self, c: usize, ev: Evicted, now: Cycle) {
        self.fate_left_l1(c, &ev, now);
        if !ev.dirty.is_empty() {
            let payload = self.l1_mask_bytes(c, ev.dirty);
            self.send(
                Msg {
                    kind: MsgKind::WbL1,
                    line: ev.line,
                    src: c as u32,
                    dst: self.home_of(ev.line),
                    requester: c as u32,
                    sectors: ev.dirty,
                    exclusive: false,
                    payload_bytes: payload,
                },
                now,
            );
        }
    }

    fn l1_inv(&mut self, msg: Msg, now: Cycle) {
        let c = msg.dst as usize;
        // Dirty data rides back with the ack conceptually; account its
        // bytes on the ack message.
        let dirty = match self.l1[c].invalidate(msg.line) {
            Some(ev) => {
                self.fate_left_l1(c, &ev, now);
                ev.dirty
            }
            None => SectorMask::EMPTY,
        };
        let payload = self.l1_mask_bytes(c, dirty);
        self.send(
            Msg {
                kind: MsgKind::InvAck,
                line: msg.line,
                src: c as u32,
                dst: msg.src,
                requester: msg.requester,
                sectors: dirty,
                exclusive: false,
                payload_bytes: payload,
            },
            now,
        );
    }

    fn l1_fetch(&mut self, msg: Msg, now: Cycle, invalidate: bool) {
        let c = msg.dst as usize;
        let present = if invalidate {
            let ev = self.l1[c].invalidate(msg.line);
            if let Some(ev) = &ev {
                self.fate_left_l1(c, ev, now);
            }
            ev.is_some()
        } else {
            self.l1[c].downgrade(msg.line);
            self.l1[c].probe(msg.line).is_some()
        };
        let payload = if present { LINE_BYTES } else { 0 };
        self.send(
            Msg {
                kind: MsgKind::FetchResp,
                line: msg.line,
                src: c as u32,
                dst: msg.src,
                requester: msg.requester,
                sectors: SectorMask::FULL_L1,
                exclusive: invalidate,
                payload_bytes: payload,
            },
            now,
        );
    }

    // ------------------------------------------------------------------
    // Home tile (L2 slice + directory)
    // ------------------------------------------------------------------

    fn home_request(&mut self, msg: Msg, now: Cycle) {
        let h = msg.dst as usize;
        if self.txns[h].contains_key(&msg.line) {
            self.queued[h].entry(msg.line).or_default().push_back(msg);
            return;
        }
        self.start_txn(msg, now);
    }

    fn start_txn(&mut self, msg: Msg, now: Cycle) {
        let h = msg.dst as usize;
        let line = msg.line;
        let t = now + self.cfg.mem.l2_slice.latency;
        let mut txn = Txn {
            requester: msg.requester,
            sectors: msg.sectors,
            exclusive: msg.kind == MsgKind::GetX,
            acks_pending: 0,
            data_ready: false,
        };
        let owner = self.dir[h].owner(line).filter(|&o| o != msg.requester);
        if let Some(o) = owner {
            // Data comes from the current owner.
            txn.acks_pending = 1;
            self.send(
                Msg {
                    kind: MsgKind::Fetch {
                        invalidate: txn.exclusive,
                    },
                    line,
                    src: h as u32,
                    dst: o,
                    requester: msg.requester,
                    sectors: SectorMask::FULL_L1,
                    exclusive: txn.exclusive,
                    payload_bytes: 0,
                },
                t,
            );
            self.txns[h].insert(line, txn);
            return;
        }
        if txn.exclusive {
            let targets = self.dir[h].invalidation_targets(line, Some(msg.requester));
            if !matches!(targets, InvTargets::None) {
                let precise = (!targets.is_broadcast()).then(|| targets.count(self.cfg.cores, 1));
                self.probe.dir_invalidate(h as u32, line, precise, t);
            }
            match targets {
                InvTargets::None => {}
                InvTargets::Precise(targets) => {
                    txn.acks_pending = targets.len() as u32;
                    for c in targets {
                        self.send(
                            Msg {
                                kind: MsgKind::Inv,
                                line,
                                src: h as u32,
                                dst: c,
                                requester: msg.requester,
                                sectors: SectorMask::EMPTY,
                                exclusive: false,
                                payload_bytes: 0,
                            },
                            t,
                        );
                    }
                }
                InvTargets::Broadcast => {
                    // ACKwise overflow: invalidate everyone (they all ack).
                    let n = self.cfg.cores;
                    txn.acks_pending = n - 1;
                    for c in (0..n).filter(|&c| c != msg.requester) {
                        self.send(
                            Msg {
                                kind: MsgKind::Inv,
                                line,
                                src: h as u32,
                                dst: c,
                                requester: msg.requester,
                                sectors: SectorMask::EMPTY,
                                exclusive: false,
                                payload_bytes: 0,
                            },
                            t,
                        );
                    }
                }
            }
        }
        self.data_lookup(h, line, &mut txn, t);
        self.txns[h].insert(line, txn);
        self.try_complete(h as u32, line, t);
    }

    fn data_lookup(&mut self, h: usize, line: LineAddr, txn: &mut Txn, t: Cycle) {
        let l2_need = txn.sectors.widen_to_l2();
        match self.l2[h].demand_access(line, l2_need, false) {
            AccessOutcome::Hit { .. } => {
                txn.data_ready = true;
            }
            AccessOutcome::SectorMiss { missing, .. } => {
                self.dram_fetch(h, line, missing, t);
            }
            AccessOutcome::Miss => {
                let mask = if self.cfg.partial == PartialMode::NocAndDram {
                    l2_need
                } else {
                    SectorMask::FULL_L2
                };
                self.dram_fetch(h, line, mask, t);
            }
        }
    }

    fn dram_fetch(&mut self, h: usize, line: LineAddr, l2_mask: SectorMask, t: Cycle) {
        let l2_mask = if self.cfg.partial == PartialMode::NocAndDram {
            l2_mask
        } else {
            SectorMask::FULL_L2
        };
        let mc = mc_for_line(line.number(), self.cfg.mem.mem_controllers);
        self.send(
            Msg {
                kind: MsgKind::MemRead,
                line,
                src: h as u32,
                dst: self.mc_tiles[mc as usize],
                requester: h as u32,
                sectors: l2_mask,
                exclusive: false,
                payload_bytes: 0,
            },
            t,
        );
    }

    fn mc_read(&mut self, msg: Msg, now: Cycle) {
        let mc = self
            .mc_tiles
            .iter()
            .position(|&t| t == msg.dst)
            .expect("MemRead delivered to a non-MC tile");
        let bytes = u64::from(msg.sectors.count()) * 32;
        let done = self.drams[mc].access(now, msg.line.base().raw(), bytes, false);
        self.traffic.dram_read_bytes += bytes;
        self.traffic.dram_accesses += 1;
        self.send(
            Msg {
                kind: MsgKind::MemReadResp,
                line: msg.line,
                src: msg.dst,
                dst: msg.requester, // the home tile
                requester: msg.requester,
                sectors: msg.sectors,
                exclusive: false,
                payload_bytes: bytes,
            },
            done,
        );
    }

    fn mc_write(&mut self, msg: Msg, now: Cycle) {
        let mc = self
            .mc_tiles
            .iter()
            .position(|&t| t == msg.dst)
            .expect("MemWrite delivered to a non-MC tile");
        let bytes = msg.payload_bytes.max(32);
        let _ = self.drams[mc].access(now, msg.line.base().raw(), bytes, true);
        self.traffic.dram_write_bytes += bytes;
        self.traffic.dram_accesses += 1;
    }

    fn home_memdata(&mut self, msg: Msg, now: Cycle) {
        let h = msg.dst as usize;
        let evicted = self.l2[h].fill(msg.line, msg.sectors, LineState::Shared, false);
        if let Some(ev) = evicted {
            self.l2_evicted(h, ev, now);
        }
        if let Some(txn) = self.txns[h].get_mut(&msg.line) {
            txn.data_ready = true;
        }
        self.try_complete(h as u32, msg.line, now);
    }

    fn l2_evicted(&mut self, h: usize, ev: Evicted, now: Cycle) {
        // Recall any L1 copies (fire-and-forget; acks are ignored for
        // lines without transactions).
        let targets = self.dir[h].invalidation_targets(ev.line, None);
        if !matches!(targets, InvTargets::None) {
            let precise = (!targets.is_broadcast()).then(|| targets.count(self.cfg.cores, 0));
            self.probe.dir_invalidate(h as u32, ev.line, precise, now);
        }
        match targets {
            InvTargets::None => {}
            InvTargets::Precise(targets) => {
                for c in targets {
                    self.send(
                        Msg {
                            kind: MsgKind::Inv,
                            line: ev.line,
                            src: h as u32,
                            dst: c,
                            requester: h as u32,
                            sectors: SectorMask::EMPTY,
                            exclusive: false,
                            payload_bytes: 0,
                        },
                        now,
                    );
                }
            }
            InvTargets::Broadcast => {
                for c in 0..self.cfg.cores {
                    self.send(
                        Msg {
                            kind: MsgKind::Inv,
                            line: ev.line,
                            src: h as u32,
                            dst: c,
                            requester: h as u32,
                            sectors: SectorMask::EMPTY,
                            exclusive: false,
                            payload_bytes: 0,
                        },
                        now,
                    );
                }
            }
        }
        self.dir[h].clear(ev.line);
        if !ev.dirty.is_empty() || ev.state == LineState::Modified {
            let bytes = if ev.dirty.is_empty() {
                LINE_BYTES
            } else {
                self.l2_mask_bytes(h, ev.dirty)
            };
            let mc = mc_for_line(ev.line.number(), self.cfg.mem.mem_controllers);
            self.send(
                Msg {
                    kind: MsgKind::MemWrite,
                    line: ev.line,
                    src: h as u32,
                    dst: self.mc_tiles[mc as usize],
                    requester: h as u32,
                    sectors: ev.dirty,
                    exclusive: false,
                    payload_bytes: bytes,
                },
                now,
            );
        }
    }

    fn home_fetchresp(&mut self, msg: Msg, now: Cycle) {
        let h = msg.dst as usize;
        let owner = msg.src;
        if msg.payload_bytes > 0 {
            let evicted = self.l2[h].fill(msg.line, SectorMask::FULL_L2, LineState::Shared, false);
            if let Some(ev) = evicted {
                self.l2_evicted(h, ev, now);
            }
            self.l2[h].mark_dirty(msg.line, SectorMask::FULL_L2);
        }
        if msg.exclusive {
            // Owner invalidated (write request).
            self.dir[h].remove(msg.line, owner);
        } else {
            // Owner downgraded to Shared: Modified(o) -> Shared{o}.
            self.dir[h].add_sharer(msg.line, owner);
        }
        if let Some(txn) = self.txns[h].get_mut(&msg.line) {
            txn.acks_pending = txn.acks_pending.saturating_sub(1);
            txn.data_ready = true;
        }
        self.try_complete(h as u32, msg.line, now);
    }

    fn home_invack(&mut self, msg: Msg, now: Cycle) {
        let h = msg.dst as usize;
        self.dir[h].remove(msg.line, msg.src);
        if let Some(txn) = self.txns[h].get_mut(&msg.line) {
            txn.acks_pending = txn.acks_pending.saturating_sub(1);
        }
        self.try_complete(h as u32, msg.line, now);
    }

    fn home_wb(&mut self, msg: Msg, now: Cycle) {
        let h = msg.dst as usize;
        let l2_mask = msg.sectors.widen_to_l2();
        let evicted = self.l2[h].fill(msg.line, l2_mask, LineState::Shared, false);
        if let Some(ev) = evicted {
            self.l2_evicted(h, ev, now);
        }
        self.l2[h].mark_dirty(msg.line, l2_mask);
        self.dir[h].remove(msg.line, msg.src);
    }

    fn try_complete(&mut self, home: u32, line: LineAddr, at: Cycle) {
        let h = home as usize;
        let ready = match self.txns[h].get(&line) {
            Some(t) => t.acks_pending == 0 && t.data_ready,
            None => false,
        };
        if !ready {
            return;
        }
        let txn = self.txns[h].remove(&line).expect("txn present");
        if txn.exclusive {
            self.dir[h].set_modified(line, txn.requester);
        } else {
            self.dir[h].add_sharer(line, txn.requester);
        }
        let payload = self.l1_mask_bytes(txn.requester as usize, txn.sectors);
        self.send(
            Msg {
                kind: MsgKind::Data,
                line,
                src: home,
                dst: txn.requester,
                requester: txn.requester,
                sectors: txn.sectors,
                exclusive: txn.exclusive,
                payload_bytes: payload,
            },
            at,
        );
        // Serve the next queued request for this line.
        let next = self.queued[h].get_mut(&line).and_then(VecDeque::pop_front);
        if let Some(next) = next {
            self.start_txn(next, at);
        }
    }

    fn handle_msg(&mut self, msg: Msg, now: Cycle) {
        self.traffic.noc_messages += 1;
        // Home-tile-bound protocol traffic lands on the destination's
        // L2-slice trace track (core- and MC-bound kinds would need
        // other tracks and dominate trace volume, so only the
        // directory-serialized kinds are recorded).
        if matches!(
            msg.kind,
            MsgKind::GetS | MsgKind::GetX | MsgKind::InvAck | MsgKind::FetchResp | MsgKind::WbL1
        ) {
            self.probe.coh_msg(msg.dst, msg.kind.code(), msg.line, now);
        }
        match msg.kind {
            MsgKind::GetS | MsgKind::GetX => self.home_request(msg, now),
            MsgKind::Data => self.l1_data(msg, now),
            MsgKind::Inv => self.l1_inv(msg, now),
            MsgKind::InvAck => self.home_invack(msg, now),
            MsgKind::Fetch { invalidate } => self.l1_fetch(msg, now, invalidate),
            MsgKind::FetchResp => self.home_fetchresp(msg, now),
            MsgKind::WbL1 => self.home_wb(msg, now),
            MsgKind::MemRead => self.mc_read(msg, now),
            MsgKind::MemReadResp => self.home_memdata(msg, now),
            MsgKind::MemWrite => self.mc_write(msg, now),
        }
    }
}

/// Page walks as first-class memory traffic (`WalkModel::Cached`): each
/// page-table-entry read crosses the NoC to the PTE line's home L2
/// slice, hits there when the page-table working set is warm, and
/// otherwise fetches the line from DRAM — filling the L2 (evicting
/// whatever loses the set), occupying NoC links and DRAM bandwidth, and
/// showing up in the traffic statistics. Walks therefore contend with
/// demand traffic instead of charging a flat latency.
///
/// The reads use the timing substrate (mesh links, L2 arrays, DRAM
/// models) directly rather than the directory protocol: PTE lines live
/// in their own address region, are never written, and are never cached
/// in L1s, so there is no coherence state to track — but an L2 fill's
/// *evictions* go through the ordinary [`Fabric::l2_evicted`] path and
/// can recall demand lines from L1s.
impl WalkMemory for Fabric {
    fn pte_read(&mut self, core: usize, pte: Addr, now: Cycle) -> Cycle {
        let line = LineAddr::containing(pte);
        let home = self.home_of(line);
        let h = home as usize;
        self.traffic.noc_messages += 1;
        let (at_home, _) = self.mesh.send(core as u32, home, 0, now);
        let probed = at_home + self.cfg.mem.l2_slice.latency;
        let ready = match self.l2[h].demand_access(line, SectorMask::FULL_L2, false) {
            AccessOutcome::Hit { .. } => probed,
            AccessOutcome::SectorMiss { .. } | AccessOutcome::Miss => {
                let mc = mc_for_line(line.number(), self.cfg.mem.mem_controllers) as usize;
                let mc_tile = self.mc_tiles[mc];
                self.traffic.noc_messages += 1;
                let (at_mc, _) = self.mesh.send(home, mc_tile, 0, probed);
                let fetched = self.drams[mc].access(at_mc, line.base().raw(), LINE_BYTES, false);
                self.traffic.dram_read_bytes += LINE_BYTES;
                self.traffic.dram_accesses += 1;
                self.traffic.noc_messages += 1;
                let (back, _) = self.mesh.send(mc_tile, home, LINE_BYTES, fetched);
                if let Some(ev) =
                    self.l2[h].fill(line, SectorMask::FULL_L2, LineState::Shared, false)
                {
                    self.l2_evicted(h, ev, back);
                }
                back
            }
        };
        self.traffic.noc_messages += 1;
        let (done, _) = self.mesh.send(home, core as u32, PTE_BYTES, ready);
        done
    }
}

impl MemPort for Fabric {
    fn access(&mut self, core: u32, op: &imp_trace::Op, now: Cycle) -> MemResult {
        let c = core as usize;
        let addr = op.mem_addr();
        let line = LineAddr::containing(addr);
        let is_write = op.kind == OpKind::Store;
        match self.cfg.mem_mode {
            MemMode::Ideal => MemResult::Hit(now + self.cfg.mem.l1d.latency),
            MemMode::PerfectPrefetch => {
                let hit = matches!(
                    self.shadow[c].demand_access(line, SectorMask::FULL_L1, is_write),
                    AccessOutcome::Hit { .. }
                );
                if !hit {
                    self.shadow[c].fill(line, SectorMask::FULL_L1, LineState::Shared, false);
                    let id = self.pp_next_id;
                    self.pp_next_id += 1;
                    self.pp_outstanding[c].push_back(id);
                    self.pp_issue.insert(id, now);
                    if let MshrAlloc::New =
                        self.mshr[c].alloc(line, SectorMask::FULL_L1, true, Waiter::PerfPref { id })
                    {
                        self.request(c, line, SectorMask::FULL_L1, false, now);
                    }
                }
                // Throttle: never run more than `lead` cycles past the
                // oldest incomplete fetch.
                if let Some(&front) = self.pp_outstanding[c].front() {
                    let issued = self.pp_issue.get(&front).copied().unwrap_or(now);
                    if now.saturating_sub(issued) > self.cfg.perfpref_lead {
                        let token = self.next_token;
                        self.next_token += 1;
                        self.pp_blocked[c] = Some((front, token));
                        return MemResult::Miss(token);
                    }
                }
                MemResult::Hit(now + self.cfg.mem.l1d.latency)
            }
            MemMode::Realistic => {
                // Demand accesses stall for the page-table walk before
                // touching the cache; everything downstream runs at the
                // post-walk cycle, so the walk delays fills and
                // prefetcher observations alike. With the default ideal
                // TLB the walk is 0 and this path is byte-for-byte the
                // pre-imp-vm behavior.
                let walk = self.demand_translate(c, addr, now);
                self.realistic_access(c, op, now + walk).with_walk(walk)
            }
        }
    }

    fn sw_prefetch(&mut self, core: u32, addr: Addr, now: Cycle) {
        if self.cfg.mem_mode != MemMode::Realistic {
            return;
        }
        let c = core as usize;
        // Software prefetches are non-binding: like hardware prefetches
        // they observe the translation policy instead of stalling.
        let Some(now) = self.prefetch_translate(c, addr, now) else {
            return;
        };
        let line = LineAddr::containing(addr);
        if self.l1[c].probe(line).is_some() {
            return;
        }
        if let MshrAlloc::New =
            self.mshr[c].alloc(line, SectorMask::FULL_L1, true, Waiter::SwPrefetch)
        {
            self.pstats[c].issued_stream += 1;
            self.request(c, line, SectorMask::FULL_L1, false, now);
        }
    }
}

/// The assembled system: call [`System::new`] with a configuration, a
/// program and the functional memory holding its arrays, then
/// [`System::run`].
pub struct System {
    cores: Vec<Box<dyn CoreEngine>>,
    state: Vec<CoreRun>,
    /// Cores parked at the current barrier, with their arrival cycles
    /// (the cycle is observability-only; release timing never reads it).
    barrier_waiting: Vec<(u32, Cycle)>,
    done_count: usize,
    event_budget: u64,
    events: u64,
    fab: Fabric,
}

impl System {
    /// Builds a system for `program` under `cfg`, resolving the
    /// configured prefetcher against the process-wide plugin registry
    /// (see `imp_prefetch::registry`).
    ///
    /// # Panics
    ///
    /// Panics on any condition [`System::try_new`] reports as a
    /// [`BuildError`]: an unresolvable prefetcher spec, a program whose
    /// core count does not match the configuration, or inconsistent
    /// barrier counts.
    pub fn new(cfg: SystemConfig, program: Program, mem: FunctionalMemory) -> Self {
        Self::try_new(cfg, program, mem).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Builds a system for `program` under `cfg`, surfacing every
    /// invalid-input condition — prefetcher registry failures (unknown
    /// name, bad parameters), a core-count mismatch between program and
    /// configuration, and unbalanced barriers — as a typed
    /// [`BuildError`].
    ///
    /// The program's streams are frozen and shared into the per-core
    /// engines (`Arc` clones, no per-core copies), so constructing many
    /// systems over one generated program is cheap.
    ///
    /// # Errors
    ///
    /// See [`BuildError`].
    pub fn try_new(
        cfg: SystemConfig,
        program: Program,
        mem: FunctionalMemory,
    ) -> Result<Self, BuildError> {
        Self::try_new_placed(cfg, program, mem, &[])
    }

    /// [`System::try_new`] with a huge-page placement: addresses inside
    /// the given `(base, bytes)` extents translate at
    /// [`imp_common::TlbConfig::huge_page_bytes`] (through the per-core
    /// huge-page sub-TLBs and shallower page-table walks); everything
    /// else stays on base pages. Extents are aligned outward to whole
    /// huge pages and merged, exactly like transparent huge pages
    /// promote the pages a region overlaps. An empty slice — or an
    /// ideal/absent TLB — reproduces [`System::try_new`] bit for bit.
    ///
    /// The extents normally come from a workload's recorded
    /// region/placement layer with `Sim::page_policy` overrides
    /// applied; this is the lower-level entry point taking resolved
    /// address ranges.
    ///
    /// # Errors
    ///
    /// See [`BuildError`]; a placement with no huge-page sub-TLB or a
    /// base page size too large to promote surfaces as
    /// [`BuildError::Vm`].
    pub fn try_new_placed(
        cfg: SystemConfig,
        mut program: Program,
        mem: FunctionalMemory,
        huge_regions: &[(u64, u64)],
    ) -> Result<Self, BuildError> {
        if program.cores() != cfg.cores as usize {
            return Err(BuildError::CoreCountMismatch {
                program: program.cores(),
                config: cfg.cores,
            });
        }
        program.validate_barriers()?;
        program.freeze();
        let n = cfg.cores as usize;
        let partial = cfg.partial != PartialMode::Off;
        let l1_sectors = if partial { cfg.mem.l1d.sectors } else { 1 };
        let l2_sectors = if partial { cfg.mem.l2_slice.sectors } else { 1 };

        let cores: Vec<Box<dyn CoreEngine>> = (0..n)
            .map(|c| -> Box<dyn CoreEngine> {
                let ops = program.stream(c); // shared, not copied
                match cfg.core_model {
                    CoreModel::InOrder => Box::new(InOrderCore::new(c as u32, ops)),
                    CoreModel::OutOfOrder => {
                        Box::new(OooCore::new(c as u32, ops, cfg.rob_entries as usize))
                    }
                }
            })
            .collect();

        let pref: Vec<Box<dyn L1Prefetcher>> = (0..n)
            .map(|c| -> Result<Box<dyn L1Prefetcher>, RegistryError> {
                if cfg.mem_mode != MemMode::Realistic {
                    return Ok(Box::new(NullPrefetcher::new()));
                }
                let ctx = BuildCtx {
                    core: c as u32,
                    imp: &cfg.imp,
                    partial,
                };
                registry::build(&cfg.prefetcher, &ctx)
            })
            .collect::<Result<_, _>>()?;

        let mshr_cap = match cfg.mem_mode {
            MemMode::PerfectPrefetch => 1 << 16,
            _ => cfg.mem.l1d.mshrs as usize,
        };

        // The VM subsystem only exists for finite TLBs in Realistic
        // mode; `None` keeps every path bit-identical to the seed.
        let vm = if cfg.mem_mode == MemMode::Realistic && !cfg.tlb.ideal {
            // Validate the base geometry before deriving the huge page
            // size from it (a bad `page_bytes` must surface as a typed
            // error, not a panic inside the placement build).
            imp_vm::validate_config(&cfg.tlb)?;
            let placement = if huge_regions.is_empty() {
                PagePlacement::empty()
            } else {
                PagePlacement::for_regions(huge_regions.iter().copied(), cfg.tlb.huge_page_bytes())
            };
            Some(Vm::with_placement(&cfg.tlb, n, placement)?)
        } else {
            imp_vm::validate_config(&cfg.tlb)?;
            None
        };

        // The manager only runs in Realistic mode (there is nothing to
        // manage elsewhere), but a configured spec is validated in
        // every mode so a typo surfaces regardless of the sweep axis.
        let mgr = match &cfg.manager {
            None => None,
            Some(spec) => {
                let m = Manager::build(spec)?;
                if cfg.mem_mode == MemMode::Realistic {
                    Some(ManagerState {
                        next_epoch: m.epoch_len(),
                        mgr: m,
                        tracker: EpochTracker::new(),
                        control: Control::none(),
                        demand_misses: 0,
                        active: cfg.prefetcher.clone(),
                    })
                } else {
                    None
                }
            }
        };

        let drams: Vec<Box<dyn DramModel>> = (0..cfg.mem.mem_controllers)
            .map(|_| -> Box<dyn DramModel> {
                match cfg.mem.dram {
                    DramModelKind::Simple => Box::new(FixedLatencyDram::new(
                        cfg.mem.dram_latency,
                        cfg.mem.dram_bytes_per_cycle,
                    )),
                    DramModelKind::Ddr3 => Box::new(Ddr3Dram::new(Ddr3Timing::default())),
                }
            })
            .collect();

        let side = cfg.mesh_side();
        let fab = Fabric {
            queue: EventQueue::new(),
            l1: (0..n)
                .map(|_| {
                    SectoredCache::new(
                        cfg.mem.l1d.size_bytes,
                        cfg.mem.l1d.associativity,
                        l1_sectors,
                    )
                })
                .collect(),
            mshr: (0..n).map(|_| MshrFile::new(mshr_cap)).collect(),
            pref,
            pstats: vec![PrefetchStats::default(); n],
            l2: (0..n)
                .map(|_| {
                    SectoredCache::new(
                        cfg.mem.l2_slice.size_bytes,
                        cfg.mem.l2_slice.associativity,
                        l2_sectors,
                    )
                })
                .collect(),
            dir: (0..n)
                .map(|_| Directory::new(cfg.mem.ackwise_k as usize, cfg.cores))
                .collect(),
            txns: (0..n).map(|_| FastMap::default()).collect(),
            queued: (0..n).map(|_| FastMap::default()).collect(),
            mesh: Mesh::new(side, cfg.mem.hop_latency, cfg.mem.flit_bytes),
            drams,
            mc_tiles: mc_tiles(side, cfg.mem.mem_controllers),
            mem,
            traffic: TrafficStats::default(),
            completions: Vec::new(),
            probe: Probe::disabled(),
            cprobes: vec![CoreProbe::disabled(); n],
            ledger: mgr.is_some().then(Ledger::default),
            mgr,
            carried_pref: vec![PrefetcherStats::default(); n],
            req_bufs: Vec::new(),
            next_token: 0,
            shadow: (0..n)
                .map(|_| SectoredCache::new(cfg.mem.l1d.size_bytes, cfg.mem.l1d.associativity, 1))
                .collect(),
            pp_outstanding: (0..n).map(|_| VecDeque::new()).collect(),
            pp_issue: FastMap::default(),
            pp_blocked: vec![None; n],
            pp_next_id: 0,
            vm,
            cfg,
        };
        Ok(System {
            cores,
            state: vec![CoreRun::Ready; n],
            barrier_waiting: Vec::new(),
            done_count: 0,
            event_budget: DEFAULT_EVENT_BUDGET,
            events: 0,
            fab,
        })
    }

    /// Attaches an observability probe: the fabric records prefetch
    /// timeliness, translation, coherence, and barrier events through
    /// it, and each core engine receives a [`imp_obs::CoreProbe`] for
    /// its demand-miss completions. The caller keeps a clone of the
    /// probe and harvests results with
    /// [`imp_obs::Probe::finish_into_report`] after the run.
    ///
    /// Probes observe only: attaching one (enabled or not) never
    /// changes timing, statistics, or which lines move.
    pub fn attach_probe(&mut self, probe: Probe) {
        for (c, core) in self.cores.iter_mut().enumerate() {
            core.attach_probe(probe.for_core(c as u32));
        }
        self.fab.cprobes = (0..self.cores.len())
            .map(|c| probe.for_core(c as u32))
            .collect();
        if probe.is_enabled() {
            self.fab.ledger.get_or_insert_with(Ledger::default);
        }
        self.fab.probe = probe;
    }

    /// Caps the number of events [`System::try_run`] will process before
    /// giving up with [`RunError::EventBudgetExceeded`]. Defaults to
    /// [`DEFAULT_EVENT_BUDGET`]. A timing knob only — it never changes
    /// the statistics of a run that finishes within budget.
    pub fn set_event_budget(&mut self, events: u64) {
        self.event_budget = events;
    }

    /// Runs the program to completion and returns the collected
    /// statistics.
    ///
    /// # Panics
    ///
    /// Panics on the conditions [`System::try_run`] reports as a
    /// [`RunError`]: a deadlocked program or an exhausted event budget.
    pub fn run(&mut self) -> SystemStats {
        match self.try_run() {
            Ok(stats) => stats,
            Err(RunError::EventBudgetExceeded { .. }) => {
                panic!("simulation exceeded event budget")
            }
            Err(RunError::Deadlock { unfinished, cores }) => panic!(
                "event queue drained with {unfinished} of {cores} cores unfinished (deadlock)"
            ),
        }
    }

    /// Runs the program to completion and returns the collected
    /// statistics, reporting runaway or deadlocked programs as typed
    /// errors instead of panicking.
    ///
    /// # Errors
    ///
    /// [`RunError::EventBudgetExceeded`] (with the partial statistics
    /// attached) when the configured event budget runs out;
    /// [`RunError::Deadlock`] when the event queue drains with
    /// unfinished cores.
    pub fn try_run(&mut self) -> Result<SystemStats, RunError> {
        let n = self.cores.len();
        for c in 0..n {
            self.fab.queue.push(0, Event::CoreWake(c as u32));
        }
        let mut guard: u64 = 0;
        while self.done_count < n {
            let Some((t, ev)) = self.fab.queue.pop() else {
                self.events = guard;
                return Err(RunError::Deadlock {
                    unfinished: n - self.done_count,
                    cores: n,
                });
            };
            guard += 1;
            if guard >= self.event_budget {
                self.events = guard;
                return Err(RunError::EventBudgetExceeded {
                    events: guard,
                    stats: Box::new(self.collect_stats()),
                });
            }
            // Epoch boundaries close against the event clock, before
            // the event dispatches: every epoch sees exactly the state
            // changes of events strictly before its end cycle.
            if self.fab.mgr.is_some() {
                self.fab.manager_tick(t);
            }
            match ev {
                // Stall fast-forward: wakes scheduled for a core that has
                // since blocked (on memory, a barrier, or retirement) are
                // stale — skip them without dispatching into the core,
                // jumping the clock straight to the next live event.
                Event::CoreWake(c) if self.state[c as usize] != CoreRun::Ready => {}
                Event::CoreWake(c) => self.drive_core(c, t),
                Event::Deliver(m) => {
                    self.fab.handle_msg(m, t);
                    self.drain_completions();
                }
            }
        }
        self.events = guard;
        // Drain in-flight protocol traffic so traffic statistics include
        // transactions that were still moving when the last core retired.
        while let Some((t, ev)) = self.fab.queue.pop() {
            if let Event::Deliver(m) = ev {
                self.fab.handle_msg(m, t);
                self.fab.completions.clear();
            }
        }
        Ok(self.collect_stats())
    }

    /// Events processed by the most recent [`System::try_run`] /
    /// [`System::run`] — a cost diagnostic (each event is one pop of the
    /// global queue), not part of the simulated statistics.
    pub fn events_processed(&self) -> u64 {
        self.events
    }

    fn drive_core(&mut self, c: u32, now: Cycle) {
        let ci = c as usize;
        if self.state[ci] != CoreRun::Ready {
            return;
        }
        match self.cores[ci].run(now, &mut self.fab) {
            CoreBlock::UntilTime(t) => {
                self.fab.queue.push(t.max(now + 1), Event::CoreWake(c));
            }
            CoreBlock::OnMemory => {
                self.state[ci] = CoreRun::WaitMem;
            }
            CoreBlock::AtBarrier => {
                self.state[ci] = CoreRun::WaitBarrier;
                self.barrier_waiting.push((c, now));
                if self.barrier_waiting.len() == self.cores.len() {
                    for (w, arrived) in std::mem::take(&mut self.barrier_waiting) {
                        self.state[w as usize] = CoreRun::Ready;
                        self.fab.probe.barrier_wait(w, arrived, now + 1);
                        self.fab.queue.push(now + 1, Event::CoreWake(w));
                    }
                }
            }
            CoreBlock::Done => {
                self.state[ci] = CoreRun::Done;
                self.cores[ci].finish(now);
                self.done_count += 1;
            }
        }
        self.drain_completions();
    }

    fn drain_completions(&mut self) {
        while let Some((c, token, at)) = self.fab.completions.pop() {
            let ci = c as usize;
            self.cores[ci].mem_complete(token, at);
            if self.state[ci] == CoreRun::WaitMem {
                self.state[ci] = CoreRun::Ready;
            }
            self.fab.queue.push(at, Event::CoreWake(c));
        }
    }

    fn collect_stats(&mut self) -> SystemStats {
        // Final sweep: resident prefetched lines count toward accuracy.
        for (c, l1) in self.fab.l1.iter().enumerate() {
            for line in l1.iter_lines() {
                if line.prefetched && line.touched {
                    self.fab.pstats[c].useful += 1;
                } else if line.prefetched && !line.touched {
                    self.fab.pstats[c].unused += 1;
                }
            }
        }
        // The ledger's own closing sweep; the probe reports its counts.
        if let Some(l) = self.fab.ledger.as_mut() {
            l.finish();
            self.fab.probe.close_ledger(l);
        }
        // Merge detection counters from the prefetcher models, plus
        // anything carried over from models replaced by a manager
        // switch (zero in unmanaged runs). Assignment, not +=, keeps
        // this idempotent across repeated collections. The destructure
        // has no `..`, so a new model counter fails to compile until it
        // is mapped here; `_` marks counters the fabric counts itself,
        // after MSHR filtering, or does not report.
        for (c, p) in self.fab.pref.iter().enumerate() {
            let mut s = self.fab.carried_pref[c].clone();
            s.merge(p.stats());
            let PrefetcherStats {
                stream_prefetches: _,
                indirect_prefetches,
                patterns_detected,
                detect_failures,
                ways_detected: _,
                levels_detected: _,
                partial_prefetches: _,
                value_unavailable,
                deferred_drops,
                deferred_retries,
                translation_ahead: _,
            } = s;
            let out = &mut self.fab.pstats[c];
            out.patterns_detected = patterns_detected;
            out.detect_failures = detect_failures;
            out.value_unavailable = value_unavailable;
            out.generated_indirect = indirect_prefetches;
            out.deferred_drops = deferred_drops;
            out.deferred_retries = deferred_retries;
        }
        let cores: Vec<CoreStats> = self.cores.iter().map(|c| c.stats().clone()).collect();
        let runtime = cores.iter().map(|c| c.done_cycle).max().unwrap_or(0);
        let mut traffic = self.fab.traffic.clone();
        traffic.noc_flit_hops = self.fab.mesh.flit_hops();
        let n = cores.len();
        let (tlb, tlb_huge, tlb_l2) = match &self.fab.vm {
            Some(vm) => (
                (0..n).map(|c| vm.stats(c).clone()).collect(),
                (0..n)
                    .map(|c| vm.huge_stats(c).cloned().unwrap_or_default())
                    .collect(),
                vm.l2_stats().cloned().unwrap_or_default(),
            ),
            None => (
                vec![TlbStats::default(); n],
                vec![TlbStats::default(); n],
                TlbStats::default(),
            ),
        };
        SystemStats {
            runtime,
            cores,
            prefetch: self.fab.pstats.clone(),
            tlb,
            tlb_huge,
            tlb_l2,
            traffic,
        }
    }
}
