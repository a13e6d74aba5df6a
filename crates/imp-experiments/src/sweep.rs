//! Parameter sweeps: fan a grid of simulation cells across threads and
//! collect structured results.
//!
//! A [`Sweep`] starts from a template [`Sim`] and varies any axis —
//! workloads, core counts, prefetcher specs, partial-accessing modes,
//! and the translation sub-grid (page sizes, dTLB ways, translation
//! policies, L2-TLB geometries, translation prefetching, walk models,
//! per-region page placements).
//! Cells are enumerated in a deterministic cross-product order and
//! executed by a scoped worker pool; each cell derives its
//! workload-generation seed from the template seed and the cell's
//! (workload, cores) coordinates — never from scheduling — so results are
//! identical whatever the thread count, and cells that differ only in
//! prefetcher or partial mode run the *same* generated input (the
//! comparison the paper's figures make).
//!
//! Cells sharing an input do not rebuild it: the cells are grouped by
//! every input the workload build reads — workload, cores, seed, scale
//! and software-prefetch distance — each group's
//! [`imp_workloads::BuiltArtifact`] is built exactly once, and the
//! hardware-only variants fan out over the shared artifact
//! ([`Sim::run_on`]). Memory stays bounded by the worker count, not the
//! grid: workers take cells group by group, the first to reach a group
//! builds its artifact, and the group's last cell drops it, so a run
//! holds at most one artifact per worker thread. The same engine runs
//! the paper-figure drivers' grids, which mix software prefetching with
//! hardware configurations of one application. Because artifacts are
//! immutable to the simulator, the statistics are bit-identical to
//! rebuilding per cell; only the wall-clock changes.
//!
//! ```
//! use imp_experiments::{Sim, Sweep};
//! use imp_workloads::Scale;
//!
//! let results = Sweep::from(Sim::workload("spmv").scale(Scale::Tiny))
//!     .prefetchers(["stream", "imp"])
//!     .cores([16])
//!     .run()
//!     .unwrap();
//! assert_eq!(results.len(), 2);
//! assert!(results.iter().all(|r| r.stats.runtime > 0));
//! ```

use crate::knob::Knob;
use crate::sim::{Sim, SimError};
use imp_common::config::{
    PagePolicy, PartialMode, PrefetcherSpec, TlbConfig, TranslationPolicy, WalkModel,
};
use imp_common::{fnv1a, SplitMix64, SystemStats};
use imp_obs::{ObsConfig, ObsSummary};
use imp_store::{cell_digest, ResultStore, StoredResult};
use imp_workloads::BuiltArtifact;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// One point of the sweep grid: the coordinates a cell was simulated
/// at ([`Sim::cell`] builds it). The *identity* of a cell is its
/// canonical input string ([`Sim::canonical_input`]); the coordinates
/// let reports and tests read the grid without re-parsing canonicals.
/// The default is an ideal-TLB, unmanaged cell.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SweepCell {
    /// Workload name (`Sim::workload` argument).
    pub workload: String,
    /// Simulated core count.
    pub cores: u32,
    /// The prefetcher configuration.
    pub prefetcher: PrefetcherSpec,
    /// Adaptive-management policy spec (`None` = unmanaged).
    pub manager: Option<PrefetcherSpec>,
    /// Partial cacheline accessing mode.
    pub partial: PartialMode,
    /// dTLB / page-walk configuration.
    pub tlb: TlbConfig,
    /// Per-region page-size policy overrides, in application order.
    pub page_policy: Vec<(String, PagePolicy)>,
    /// Workload generation seed.
    pub seed: u64,
}

/// A finished cell: where it ran and what came back.
#[derive(Clone, Debug)]
pub struct SweepResult {
    /// The grid point.
    pub cell: SweepCell,
    /// The simulation statistics.
    pub stats: SystemStats,
    /// Observability summary, when the sweep ran with
    /// [`Sweep::observe`] and this cell was freshly simulated. Cells
    /// served from the result store carry `None` — the store holds
    /// statistics only, and observation never re-runs a cached cell.
    pub obs: Option<ObsSummary>,
}

/// A failed cell: where it was and why it failed.
#[derive(Clone, Debug)]
pub struct SweepCellError {
    /// The grid point.
    pub cell: SweepCell,
    /// The cell's canonical input string (the same rendering the result
    /// store digests, [`Sim::canonical_input`]) — every axis value that
    /// produced the failure, so one bad cell in a 10k-cell grid is
    /// diagnosable from the error alone. Cells whose configuration did
    /// not resolve carry an `<unresolved config: ...>` placeholder.
    pub canonical: String,
    /// What went wrong.
    pub error: SimError,
}

impl std::fmt::Display for SweepCellError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}@{} [{} / {:?}]: {} (cell input: {})",
            self.cell.workload,
            self.cell.cores,
            self.cell.prefetcher,
            self.cell.partial,
            self.error,
            self.canonical
        )
    }
}

impl std::error::Error for SweepCellError {}

/// One delivered cell of a [`Sweep::run_with`] streaming run.
#[derive(Clone, Debug)]
pub struct CellOutcome {
    /// Position in [`Sweep::cells`] order.
    pub index: usize,
    /// The cell's canonical input string (the digest preimage).
    pub canonical: String,
    /// The content digest addressing this cell in the store.
    pub digest: u64,
    /// Whether the result was served from the store (`true`) or
    /// simulated this run (`false`; failed cells are also `false`).
    pub cached: bool,
    /// The cell's result.
    pub result: Result<SweepResult, SweepCellError>,
}

/// What a [`Sweep::run_with`] run did, cell by cell.
///
/// Every cell counts once in `cached`, `simulated` or `failed`, so the
/// three sum to the number of cells. A cell whose canonical input
/// repeats an earlier cell's is not looked up or simulated again: it
/// shares that cell's outcome (and its [`CellOutcome::cached`] flag) and
/// is counted the way that cell is — so `simulated` counts cells whose
/// result was simulated this run, which can exceed the number of
/// simulations run.
#[derive(Debug)]
pub struct SweepReport {
    /// Per-cell results in [`Sweep::cells`] order.
    pub results: Vec<Result<SweepResult, SweepCellError>>,
    /// Cells served from the store without simulating.
    pub cached: usize,
    /// Cells simulated (and persisted) this run.
    pub simulated: usize,
    /// Cells that failed.
    pub failed: usize,
    /// First failure *writing* a freshly simulated result back to the
    /// store, if any. Results are still returned — the cost of a failed
    /// write is a re-simulation next run, never lost work.
    pub store_error: Option<String>,
    /// Built inputs held at once during the run, and at its end.
    pub(crate) artifacts: ArtifactCount,
}

/// A config-grid runner over a template [`Sim`]. See the module docs.
#[derive(Clone, Debug)]
pub struct Sweep {
    base: Sim,
    /// The swept axes: each a non-empty list of one knob's values, held
    /// in knob-table order ([`Knob::KEYS`]). Unswept knobs keep the
    /// template's value.
    axes: Vec<Vec<Knob>>,
    threads: Option<usize>,
    store_path: Option<PathBuf>,
    spec_error: Option<String>,
    observe: Option<ObsConfig>,
}

impl From<Sim> for Sweep {
    fn from(base: Sim) -> Self {
        Sweep {
            base,
            axes: Vec::new(),
            threads: None,
            store_path: None,
            spec_error: None,
            observe: None,
        }
    }
}

impl Sweep {
    /// Sets the axis keyed `key` to `values`, in table position; an
    /// empty list unsets it (the template's value applies).
    pub(crate) fn axis(mut self, key: &str, values: impl IntoIterator<Item = Knob>) -> Self {
        let slot = Knob::slot_of(key).expect("a knob-table key");
        let values: Vec<Knob> = values.into_iter().collect();
        debug_assert!(values.iter().all(|k| k.key() == key), "{key}: {values:?}");
        self.axes.retain(|axis| axis[0].key() != key);
        if !values.is_empty() {
            let at = self
                .axes
                .partition_point(|axis| Knob::slot_of(axis[0].key()) < Some(slot));
            self.axes.insert(at, values);
        }
        self
    }

    /// Parses spec-valued axis items, keeping a malformed one's error
    /// so [`Sweep::run`] can report it instead of panicking here.
    fn specs<I, S>(&mut self, specs: I) -> Vec<PrefetcherSpec>
    where
        I: IntoIterator<Item = S>,
        S: TryInto<PrefetcherSpec>,
        S::Error: std::fmt::Display,
    {
        let error = &mut self.spec_error;
        specs
            .into_iter()
            .filter_map(|spec| {
                spec.try_into()
                    .map_err(|e| *error = Some(e.to_string()))
                    .ok()
            })
            .collect()
    }

    /// Varies the workload axis.
    #[must_use]
    pub fn workloads<I, S>(self, names: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.axis(
            "workloads",
            names.into_iter().map(|n| Knob::Workload(n.into())),
        )
    }

    /// Varies the core-count axis.
    #[must_use]
    pub fn cores<I: IntoIterator<Item = u32>>(self, counts: I) -> Self {
        self.axis("cores", counts.into_iter().map(Knob::Cores))
    }

    /// Varies the prefetcher axis (specs, kinds, or spec strings). A
    /// malformed spec string surfaces as [`SimError::InvalidSpec`] from
    /// [`Sweep::run`] rather than panicking here.
    #[must_use]
    pub fn prefetchers<I, S>(mut self, specs: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: TryInto<PrefetcherSpec>,
        S::Error: std::fmt::Display,
    {
        let specs = self.specs(specs);
        self.axis("prefetchers", specs.into_iter().map(Knob::Prefetcher))
    }

    /// Varies the chained-indirection depth: every prefetcher cell is
    /// cloned per depth with its `depth` parameter overridden (the
    /// `imp:depth=N` knob — data prefetches chase up to `N + 1` hops).
    /// Depth varies fastest within a prefetcher, and never changes the
    /// generated input, so a `depths([1, 2, 3])` sweep compares chain
    /// depths on byte-identical workloads. Prefetchers that do not
    /// accept a `depth` parameter fail their cells the same way any
    /// invalid parameter does; with no depth axis, specs pass through
    /// untouched (a spec's own `depth=` still applies).
    #[must_use]
    pub fn depths<I: IntoIterator<Item = u32>>(self, depths: I) -> Self {
        self.axis("depths", depths.into_iter().map(Knob::Depth))
    }

    /// Varies the adaptive-management axis (see `imp_adapt::Manager`).
    /// The spec `"none"` means *unmanaged* — a cell whose canonical
    /// input is byte-identical to a pre-manager build — so one sweep
    /// can compare managed against unmanaged cells directly:
    ///
    /// ```ignore
    /// Sweep::from(base).managers(["none", "static", "throttle:accuracy_floor=0.4"])
    /// ```
    ///
    /// A malformed spec string surfaces as [`SimError::InvalidSpec`]
    /// from [`Sweep::run`]; an unknown policy name fails its cells with
    /// [`SimError::Manager`].
    #[must_use]
    pub fn managers<I, S>(mut self, specs: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: TryInto<PrefetcherSpec>,
        S::Error: std::fmt::Display,
    {
        let specs = self.specs(specs);
        self.axis(
            "managers",
            specs
                .into_iter()
                .map(|s| Knob::Manager(Some(s).filter(|s| s.name != "none"))),
        )
    }

    /// Varies the partial-accessing axis.
    #[must_use]
    pub fn partials<I: IntoIterator<Item = PartialMode>>(self, modes: I) -> Self {
        self.axis("partials", modes.into_iter().map(Knob::Partial))
    }

    /// Varies the translation page size (bytes per page). Setting any
    /// TLB axis upgrades an ideal template TLB to the
    /// [`imp_common::TlbConfig::finite`] defaults, then applies the
    /// swept knob.
    #[must_use]
    pub fn page_sizes<I: IntoIterator<Item = u64>>(self, sizes: I) -> Self {
        self.axis("page_sizes", sizes.into_iter().map(Knob::PageSize))
    }

    /// Varies the dTLB associativity (ways per set); see
    /// [`Sweep::page_sizes`] for how an ideal template upgrades.
    #[must_use]
    pub fn tlb_ways<I: IntoIterator<Item = u32>>(self, ways: I) -> Self {
        self.axis("tlb_ways", ways.into_iter().map(Knob::TlbWays))
    }

    /// Varies the prefetch-translation policy; see
    /// [`Sweep::page_sizes`] for how an ideal template upgrades.
    #[must_use]
    pub fn translation_policies<I: IntoIterator<Item = TranslationPolicy>>(
        self,
        policies: I,
    ) -> Self {
        self.axis(
            "translation_policies",
            policies.into_iter().map(Knob::TranslationPolicy),
        )
    }

    /// Varies the shared L2-TLB geometry as `(sets, ways)` pairs
    /// (`(0, 0)` is the no-L2 point); see [`Sweep::page_sizes`] for how
    /// an ideal template upgrades.
    #[must_use]
    pub fn l2_tlbs<I: IntoIterator<Item = (u32, u32)>>(self, geometries: I) -> Self {
        self.axis(
            "l2_tlbs",
            geometries.into_iter().map(|(s, w)| Knob::L2Tlb(s, w)),
        )
    }

    /// Varies the translation-prefetching knob; see
    /// [`Sweep::page_sizes`] for how an ideal template upgrades.
    #[must_use]
    pub fn tlb_prefetches<I: IntoIterator<Item = bool>>(self, settings: I) -> Self {
        self.axis(
            "tlb_prefetches",
            settings.into_iter().map(Knob::TlbPrefetch),
        )
    }

    /// Varies the walk-timing model; see [`Sweep::page_sizes`] for how
    /// an ideal template upgrades.
    #[must_use]
    pub fn walk_models<I: IntoIterator<Item = WalkModel>>(self, models: I) -> Self {
        self.axis("walk_models", models.into_iter().map(Knob::WalkModel))
    }

    /// Varies the per-region page placement: each axis value is one
    /// `Sim::page_policy`-style override set applied to the workload's
    /// regions (an empty set keeps every declared policy — the all-4K
    /// baseline). Placement is translation-only, so the whole axis
    /// shares one built artifact per (workload, cores, seed) input;
    /// see [`Sweep::page_sizes`] for how an ideal template upgrades.
    #[must_use]
    pub fn page_policies<I, O, S>(self, sets: I) -> Self
    where
        I: IntoIterator<Item = O>,
        O: IntoIterator<Item = (S, PagePolicy)>,
        S: Into<String>,
    {
        self.axis(
            "page_policies",
            sets.into_iter().map(|set| {
                Knob::PagePolicies(
                    set.into_iter()
                        .map(|(name, policy)| (name.into(), policy))
                        .collect(),
                )
            }),
        )
    }

    /// Caps the worker-thread count (default: available parallelism).
    /// `threads(1)` runs the grid inline on the calling thread.
    #[must_use]
    pub fn threads(mut self, n: usize) -> Self {
        self.threads = Some(n.max(1));
        self
    }

    /// Observes every freshly simulated cell at the given level and
    /// attaches the resulting [`ObsSummary`] to its [`SweepResult`].
    /// Observation is a lens: cell statistics (and store digests) are
    /// bit-identical with or without it, and cells served from the
    /// result store are never re-simulated just to observe them (their
    /// `obs` stays `None`).
    #[must_use]
    pub fn observe(mut self, cfg: ObsConfig) -> Self {
        self.observe = Some(cfg);
        self
    }

    /// Routes this sweep through the content-addressed result store at
    /// `path`: [`Sweep::run`] and [`Sweep::run_partial`] serve cells
    /// already on disk without simulating (checksum- and
    /// canonical-verified; corrupt records re-simulate), and persist
    /// every freshly simulated cell. A warm re-run simulates nothing
    /// and is bit-identical to the cold run.
    #[must_use]
    pub fn store(mut self, path: impl Into<PathBuf>) -> Self {
        self.store_path = Some(path.into());
        self
    }

    /// Enumerates the grid in its deterministic execution order: the
    /// cartesian product of the swept axes in knob-table order, the
    /// first varying slowest — workloads, cores, prefetchers, depths,
    /// managers, partial modes, page sizes, dTLB ways, translation
    /// policies, L2-TLB geometries, translation prefetching, walk
    /// models, page-policy sets. Unswept knobs keep the template's
    /// value. Any swept translation knob (the page-policy set included)
    /// upgrades an ideal template TLB to the finite defaults.
    pub fn cells(&self) -> Vec<SweepCell> {
        self.sims().map(|sim| sim.cell()).collect()
    }

    /// One builder per grid cell, in [`Sweep::cells`] order: the
    /// template with each axis value applied in table order, then the
    /// cell's derived generation seed.
    pub(crate) fn sims(&self) -> impl Iterator<Item = Sim> + '_ {
        let cells: usize = self.axes.iter().map(Vec::len).product();
        let seed = self.base.seed_value();
        (0..cells).map(move |cell| {
            // The cell's value index on each axis, the last varying
            // fastest.
            let mut picks = [0; Knob::KEYS.len()];
            let mut rest = cell;
            for (pick, axis) in picks.iter_mut().zip(&self.axes).rev() {
                *pick = rest % axis.len();
                rest /= axis.len();
            }
            let sim = self
                .axes
                .iter()
                .zip(picks)
                .fold(self.base.clone(), |sim, (axis, pick)| {
                    axis[pick].clone().apply(sim)
                });
            let cell_seed = cell_seed(seed, &sim.workload, sim.cores);
            sim.seed(cell_seed)
        })
    }

    /// Runs every cell and returns results in [`Sweep::cells`] order.
    /// The first failing cell's error is returned; completed work for
    /// other cells is discarded — use [`Sweep::run_partial`] to keep
    /// the grid when individual cells fail.
    pub fn run(&self) -> Result<Vec<SweepResult>, SimError> {
        self.run_partial()?
            .into_iter()
            .map(|r| r.map_err(|e| e.error))
            .collect()
    }

    /// Runs every cell, returning a per-cell `Result` in
    /// [`Sweep::cells`] order: one bad cell (an unresolvable prefetcher,
    /// a failed `trace:` replay, an invalid core count) no longer throws
    /// away the completed rest of the grid. With [`Sweep::store`] set,
    /// this is [`Sweep::run_with`] against that store.
    ///
    /// Each distinct (workload, cores, seed) input is built exactly once,
    /// when the first of its cells runs, shared read-only across the
    /// cells that use it, and dropped after the last of them: at most
    /// one artifact per worker thread is alive at a time. A failed build
    /// is reported by every cell of its group, and by no other cell.
    ///
    /// # Errors
    ///
    /// The outer `Err` is reserved for a malformed grid — an axis spec
    /// string that did not parse — where no cells can be enumerated at
    /// all, and for a store that cannot be opened or read. Everything
    /// that goes wrong *inside* a cell comes back in that cell's slot.
    // A cell's error carries its (string-heavy) grid coordinates by
    // design; boxing would just push the size into every caller match.
    #[allow(clippy::type_complexity, clippy::result_large_err)]
    pub fn run_partial(&self) -> Result<Vec<Result<SweepResult, SweepCellError>>, SimError> {
        let store = match &self.store_path {
            Some(path) => {
                Some(ResultStore::open(path).map_err(|e| SimError::Store(e.to_string()))?)
            }
            None => None,
        };
        Ok(self.run_in(store.as_ref(), |_| {})?.results)
    }

    /// Runs the grid against `store`, streaming each cell's outcome to
    /// `on_cell` in deterministic [`Sweep::cells`] order as it becomes
    /// available: cached cells are served from disk (verified by
    /// checksum *and* canonical string; anything suspect re-simulates),
    /// only missing cells are simulated, and every fresh result is
    /// persisted. Workloads whose cells are all cached are never even
    /// built — a fully warm run touches only the store.
    ///
    /// The returned [`SweepReport`] carries the same per-cell results
    /// [`Sweep::run_partial`] would, plus hit/miss accounting.
    ///
    /// # Errors
    ///
    /// A malformed grid (axis spec that did not parse) or a store that
    /// cannot be *read* (I/O, not corruption) fails the whole run;
    /// per-cell simulation failures come back in their result slots.
    #[allow(clippy::result_large_err)]
    pub fn run_with<F>(&self, store: &ResultStore, on_cell: F) -> Result<SweepReport, SimError>
    where
        F: FnMut(&CellOutcome),
    {
        self.run_in(Some(store), on_cell)
    }

    /// Checks the grid parses, then runs its cells through [`execute`].
    #[allow(clippy::result_large_err)]
    fn run_in<F>(&self, store: Option<&ResultStore>, on_cell: F) -> Result<SweepReport, SimError>
    where
        F: FnMut(&CellOutcome),
    {
        if let Some(e) = &self.spec_error {
            return Err(SimError::InvalidSpec(e.clone()));
        }
        let sims: Vec<Sim> = self.sims().collect();
        execute(&sims, store, self.threads, self.observe, on_cell)
    }
}

/// The one execution engine, behind [`Sweep::run_partial`],
/// [`Sweep::run_with`] and the figure drivers: runs `sims` on up to
/// `threads` workers (default: available parallelism), serving cells
/// already in `store` and persisting fresh ones. Without a store every
/// cell is a miss. Cells sharing an input ([`input_groups`]) run over one
/// built artifact, built lazily and dropped after the group's last cell
/// ([`Artifacts`]), so at most `threads` artifacts are alive at once;
/// cells sharing a canonical input run once (see [`SweepReport`] for
/// how the repeats count). `observe` attaches an
/// [`ObsSummary`] to every freshly simulated cell. Outcomes stream to
/// `on_cell` in `sims` order.
///
/// # Errors
///
/// Only a store that cannot be *read* fails the run; per-cell failures
/// come back in their result slots.
#[allow(clippy::result_large_err)]
pub(crate) fn execute<F>(
    sims: &[Sim],
    store: Option<&ResultStore>,
    threads: Option<usize>,
    observe: Option<ObsConfig>,
    mut on_cell: F,
) -> Result<SweepReport, SimError>
where
    F: FnMut(&CellOutcome),
{
    let n = sims.len();

    // Probe phase: resolve each cell's canonical input and look it
    // up. Sequential and cheap — config resolution plus one read per
    // distinct canonical; no workload is built here. A cell repeating
    // an earlier cell's canonical is neither looked up nor simulated:
    // `first_of` points it at that cell, whose outcome it shares.
    type CellRun = Result<(SystemStats, Option<ObsSummary>), SimError>;
    let mut canonicals: Vec<String> = Vec::with_capacity(n);
    let mut digests: Vec<u64> = Vec::with_capacity(n);
    let mut slots: Vec<Option<CellRun>> = Vec::with_capacity(n);
    let mut first_of: Vec<Option<usize>> = Vec::with_capacity(n);
    // Keyed by digest; a collision is told apart by the canonicals.
    let mut seen: HashMap<u64, usize> = HashMap::with_capacity(n);
    for (i, sim) in sims.iter().enumerate() {
        let (canonical, error) = match sim.canonical_input() {
            Ok(canonical) => (canonical, None),
            Err(e) => (format!("<unresolved config: {e}>"), Some(e)),
        };
        let digest = cell_digest(&canonical);
        let (slot, first) = match error {
            // The configuration itself is invalid: the cell can never
            // be cached, and simulating would fail the same way. Fail
            // it now without touching the store.
            Some(e) => (Some(Err(e)), None),
            None => {
                let first = Some(*seen.entry(digest).or_insert(i))
                    .filter(|&j| j != i && canonicals[j] == canonical);
                let hit = match (store, first) {
                    (Some(store), None) => store
                        .get(&canonical)
                        .map_err(|e| SimError::Store(e.to_string()))?,
                    _ => None,
                };
                (hit.map(|record| Ok((record.stats, None))), first)
            }
        };
        canonicals.push(canonical);
        digests.push(digest);
        slots.push(slot);
        first_of.push(first);
    }
    let mut cached_flags: Vec<bool> = Vec::with_capacity(n);
    for (slot, first) in slots.iter().zip(&first_of) {
        let cached = first.map_or(matches!(slot, Some(Ok(_))), |j| cached_flags[j]);
        cached_flags.push(cached);
    }
    let missing: Vec<usize> = (0..n)
        .filter(|&i| slots[i].is_none() && first_of[i].is_none())
        .collect();

    // Only the groups that still have missing cells are built, each
    // from its first missing cell's builder, and only when a worker
    // reaches it: workers take the missing cells group by group, so at
    // most one group per worker is in flight and each artifact is
    // dropped after its group's last cell (see `Artifacts`).
    let threads = threads.unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(usize::from)
            .unwrap_or(1)
    });
    let (groups, group_of) = input_groups(missing.iter().map(|&i| &sims[i]));
    let mut work: Vec<usize> = (0..missing.len()).collect();
    work.sort_by_key(|&k| group_of[k]); // stable: cell order within a group
    let artifacts = Artifacts::new(groups.len(), &group_of);

    // Simulate the missing cells across workers while the calling
    // thread delivers outcomes in deterministic cell order; a
    // reorder slot buffers cells that finish early.
    let store_error: Mutex<Option<String>> = Mutex::new(None);
    let mut report = SweepReport {
        results: Vec::with_capacity(n),
        cached: cached_flags.iter().filter(|&&c| c).count(),
        simulated: 0,
        failed: 0,
        store_error: None,
        artifacts: ArtifactCount::default(),
    };
    let mut delivered = 0;
    let mut flush = |slots: &mut [Option<CellRun>]| {
        while delivered < n {
            let run = match first_of[delivered] {
                Some(j) => match &report.results[j] {
                    Ok(r) => Ok((r.stats.clone(), r.obs)),
                    Err(e) => Err(e.error.clone()),
                },
                None => match slots[delivered].take() {
                    Some(run) => run,
                    None => break,
                },
            };
            let cell = sims[delivered].cell();
            let result = match run {
                Ok((stats, obs)) => {
                    if !cached_flags[delivered] {
                        report.simulated += 1;
                    }
                    Ok(SweepResult { cell, stats, obs })
                }
                Err(error) => {
                    report.failed += 1;
                    Err(SweepCellError {
                        canonical: canonicals[delivered].clone(),
                        cell,
                        error,
                    })
                }
            };
            let outcome = CellOutcome {
                index: delivered,
                canonical: canonicals[delivered].clone(),
                digest: digests[delivered],
                cached: cached_flags[delivered],
                result,
            };
            on_cell(&outcome);
            report.results.push(outcome.result);
            delivered += 1;
        }
    };
    flush(&mut slots);
    let simulate = |w: usize| {
        let k = work[w];
        let (i, sim, g) = (missing[k], &sims[missing[k]], group_of[k]);
        let outcome = artifacts.run(
            g,
            || sims[missing[groups[g]]].build_artifact(),
            |artifact| run_cell(sim, artifact, observe),
        );
        if let (Some(store), Ok((stats, _))) = (store, &outcome) {
            let record = StoredResult {
                canonical: canonicals[i].clone(),
                stats: stats.clone(),
            };
            if let Err(e) = store.put(&record) {
                store_error
                    .lock()
                    .expect("store-error slot")
                    .get_or_insert_with(|| e.to_string());
            }
        }
        (i, outcome)
    };
    pool(missing.len(), threads, simulate, |_, (i, outcome)| {
        slots[i] = Some(outcome);
        flush(&mut slots);
    });
    report.store_error = store_error.into_inner().expect("store-error slot");
    report.artifacts = artifacts.count();
    Ok(report)
}

/// A grid's built inputs: each group's artifact is built by the first
/// cell that needs it and dropped when the group's last cell finishes.
struct Artifacts {
    groups: Vec<Mutex<Group>>,
    count: Mutex<ArtifactCount>,
}

/// One input group's share of [`Artifacts`].
struct Group {
    /// The artifact (or its build error) while a cell may still need it.
    artifact: Option<Arc<Result<BuiltArtifact, SimError>>>,
    /// Cells of the group not yet finished.
    remaining: usize,
}

/// How many artifacts a run held at once, and how many it still held
/// when it ended (read by the tests that pin the live-artifact bound).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct ArtifactCount {
    pub(crate) peak: usize,
    pub(crate) live: usize,
}

const POISONED: &str = "no artifact build or cell panicked";

impl Artifacts {
    fn new(groups: usize, group_of: &[usize]) -> Self {
        let mut remaining = vec![0; groups];
        for &g in group_of {
            remaining[g] += 1;
        }
        Artifacts {
            groups: remaining
                .into_iter()
                .map(|remaining| {
                    Mutex::new(Group {
                        artifact: None,
                        remaining,
                    })
                })
                .collect(),
            count: Mutex::new(ArtifactCount::default()),
        }
    }

    /// Runs one cell of group `g`: `f` over the group's artifact, which
    /// `build` makes first if no cell of the group has (other cells of
    /// the group wait for that build); a failed build is the cell's
    /// error. The group's last cell drops the artifact.
    fn run<T>(
        &self,
        g: usize,
        build: impl FnOnce() -> Result<BuiltArtifact, SimError>,
        f: impl FnOnce(&BuiltArtifact) -> Result<T, SimError>,
    ) -> Result<T, SimError> {
        let artifact = {
            let mut group = self.groups[g].lock().expect(POISONED);
            let artifact = group.artifact.get_or_insert_with(|| {
                let mut count = self.count.lock().expect(POISONED);
                count.live += 1;
                count.peak = count.peak.max(count.live);
                drop(count);
                Arc::new(build())
            });
            Arc::clone(artifact)
        };
        let out = artifact.as_ref().as_ref().map_err(Clone::clone).and_then(f);
        drop(artifact);
        let mut group = self.groups[g].lock().expect(POISONED);
        group.remaining -= 1;
        if group.remaining == 0 {
            group.artifact = None;
            self.count.lock().expect(POISONED).live -= 1;
        }
        out
    }

    fn count(&self) -> ArtifactCount {
        *self.count.lock().expect(POISONED)
    }
}

/// Runs one cell over its shared artifact, observing when `observe`
/// asks for it. Statistics are identical either way; only the summary
/// is extra.
fn run_cell(
    sim: &Sim,
    artifact: &BuiltArtifact,
    observe: Option<ObsConfig>,
) -> Result<(SystemStats, Option<ObsSummary>), SimError> {
    match observe.filter(ObsConfig::enabled) {
        Some(cfg) => {
            let (stats, report) = sim.clone().observe(cfg).run_observed_on(artifact)?;
            Ok((stats, Some(report.summary())))
        }
        None => Ok((sim.run_on(artifact)?, None)),
    }
}

/// Mixes the template seed with the cell's input coordinates (workload
/// and core count). Cells differing only in prefetcher or partial mode
/// share a seed — and therefore the generated input — while different
/// inputs decorrelate; nothing depends on scheduling.
fn cell_seed(base: u64, workload: &str, cores: u32) -> u64 {
    let h = fnv1a(workload.as_bytes());
    SplitMix64::new(base ^ h ^ u64::from(cores)).next_u64()
}

/// Groups cells by distinct generated input ([`Sim::input`]). Returns,
/// per group, the position of its first cell in `sims`, and, per cell,
/// its group index.
fn input_groups<'a, I>(sims: I) -> (Vec<usize>, Vec<usize>)
where
    I: Iterator<Item = &'a Sim>,
{
    let mut keys = Vec::new();
    let mut firsts = Vec::new();
    let group_of = sims
        .enumerate()
        .map(|(k, sim)| {
            let key = sim.input();
            keys.iter().position(|g| *g == key).unwrap_or_else(|| {
                keys.push(key);
                firsts.push(k);
                keys.len() - 1
            })
        })
        .collect();
    (firsts, group_of)
}

/// Runs `f(0..n)` on up to `threads` scoped workers and hands each
/// result to `deliver` on the calling thread as it completes (inline,
/// in index order, when one thread suffices).
fn pool<T, F, D>(n: usize, threads: usize, f: F, mut deliver: D)
where
    T: Send,
    F: Fn(usize) -> T + Sync,
    D: FnMut(usize, T),
{
    let threads = threads.clamp(1, n.max(1));
    if threads == 1 {
        (0..n).for_each(|i| deliver(i, f(i)));
        return;
    }
    let next = AtomicUsize::new(0);
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            let (f, next, tx) = (&f, &next, tx.clone());
            scope.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n || tx.send((i, f(i))).is_err() {
                    break;
                }
            });
        }
        drop(tx);
        rx.into_iter().for_each(|(i, value)| deliver(i, value));
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use imp_workloads::Scale;

    /// The canonical input of cell `i` of `sweep`.
    fn canonical(sweep: &Sweep, i: usize) -> String {
        sweep.sims().nth(i).unwrap().canonical_input().unwrap()
    }

    #[test]
    fn cells_enumerate_the_cross_product_in_order() {
        let sweep = Sweep::from(Sim::workload("spmv").scale(Scale::Tiny))
            .workloads(["spmv", "pagerank"])
            .cores([16, 64])
            .prefetchers(["stream", "imp"]);
        let cells = sweep.cells();
        assert_eq!(cells.len(), 8);
        assert_eq!(cells[0].workload, "spmv");
        assert_eq!(cells[0].cores, 16);
        assert_eq!(cells[0].prefetcher.name, "stream");
        assert_eq!(cells[1].prefetcher.name, "imp");
        assert_eq!(cells[2].cores, 64);
        assert_eq!(cells[4].workload, "pagerank");
        // Seeds are reproducible, shared across prefetcher-only
        // differences (same generated input), distinct across inputs.
        let again = sweep.cells();
        for (a, b) in cells.iter().zip(&again) {
            assert_eq!(a.seed, b.seed);
        }
        assert_eq!(cells[0].seed, cells[1].seed, "stream vs imp: same input");
        assert_ne!(cells[0].seed, cells[2].seed, "16 vs 64 cores: new input");
        assert_ne!(cells[0].seed, cells[4].seed, "spmv vs pagerank: new input");
    }

    #[test]
    fn depth_axis_multiplies_the_prefetcher_axis_and_shares_inputs() {
        let sweep = Sweep::from(Sim::workload("hashjoin").scale(Scale::Tiny))
            .prefetchers(["imp", "hybrid"])
            .depths([1, 2, 3]);
        let cells = sweep.cells();
        assert_eq!(cells.len(), 6);
        // Depth varies fastest within a prefetcher.
        for (i, cell) in cells.iter().enumerate() {
            assert_eq!(cell.prefetcher.name, ["imp", "hybrid"][i / 3]);
            assert_eq!(
                cell.prefetcher.params.get("depth").and_then(|v| v.as_u64()),
                Some(1 + (i % 3) as u64)
            );
        }
        // The depth knob never changes the generated input.
        assert!(cells.iter().all(|c| c.seed == cells[0].seed));
        // Distinct depths are distinct cells to the result store.
        assert_ne!(canonical(&sweep, 0), canonical(&sweep, 1));
        // Without the axis, specs pass through untouched.
        let plain = Sweep::from(Sim::workload("hashjoin").scale(Scale::Tiny))
            .prefetchers(["imp"])
            .cells();
        assert!(!plain[0].prefetcher.params.contains_key("depth"));
    }

    #[test]
    fn manager_axis_extends_the_grid_and_none_means_unmanaged() {
        let sweep = Sweep::from(Sim::workload("spmv").scale(Scale::Tiny))
            .prefetchers(["stream", "imp"])
            .managers(["none", "static", "throttle:accuracy_floor=0.4"]);
        let cells = sweep.cells();
        assert_eq!(cells.len(), 6);
        // Managers vary within a prefetcher, in the order given.
        assert_eq!(cells[0].prefetcher.name, "stream");
        assert_eq!(cells[0].manager, None);
        assert_eq!(cells[1].manager.as_ref().unwrap().name, "static");
        assert_eq!(cells[2].manager.as_ref().unwrap().name, "throttle");
        assert_eq!(cells[3].prefetcher.name, "imp");
        // The manager never changes the generated input.
        assert_eq!(cells[0].seed, cells[2].seed);
        // An unmanaged cell's canonical is byte-identical to a
        // managerless sweep's; a managed cell's differs.
        let plain = Sweep::from(Sim::workload("spmv").scale(Scale::Tiny)).prefetchers(["stream"]);
        assert_eq!(canonical(&sweep, 0), canonical(&plain, 0));
        assert_ne!(canonical(&sweep, 1), canonical(&sweep, 0));
        assert_ne!(canonical(&sweep, 1), canonical(&sweep, 2));
    }

    #[test]
    fn manager_axis_overrides_a_managed_template() {
        // A template with a manager: the "none" axis value clears it.
        let base = Sim::workload("spmv").scale(Scale::Tiny).manager("static");
        let swept = Sweep::from(base.clone()).managers(["none"]).cells();
        assert_eq!(swept[0].manager, None);
        // And with no axis, every cell inherits the template's manager.
        let inherited = Sweep::from(base).cells();
        assert_eq!(inherited[0].manager.as_ref().unwrap().name, "static");
    }

    #[test]
    fn tlb_axes_extend_the_grid_and_share_inputs() {
        let sweep = Sweep::from(Sim::workload("spmv").scale(Scale::Tiny))
            .prefetchers(["imp"])
            .page_sizes([4096, 1 << 16])
            .tlb_ways([2, 4])
            .translation_policies([
                TranslationPolicy::DropOnMiss,
                TranslationPolicy::NonBlockingWalk,
            ]);
        let cells = sweep.cells();
        assert_eq!(cells.len(), 8);
        assert!(
            cells.iter().all(|c| !c.tlb.ideal),
            "sweeping a TLB knob enables the dTLB"
        );
        assert_eq!(cells[0].tlb.page_bytes, 4096);
        assert_eq!(cells[0].tlb.ways, 2);
        assert_eq!(cells[0].tlb.policy, TranslationPolicy::DropOnMiss);
        assert_eq!(cells[7].tlb.page_bytes, 1 << 16);
        assert_eq!(cells[7].tlb.ways, 4);
        assert_eq!(cells[7].tlb.policy, TranslationPolicy::NonBlockingWalk);
        assert_eq!(
            cells[0].seed, cells[7].seed,
            "TLB axes never change the generated input"
        );
        // Without TLB axes, cells keep the template's (ideal) TLB.
        assert!(Sweep::from(Sim::workload("spmv")).cells()[0].tlb.ideal);
    }

    #[test]
    fn l2_and_prefetch_axes_extend_the_translation_subgrid() {
        let sweep = Sweep::from(Sim::workload("spmv").scale(Scale::Tiny))
            .l2_tlbs([(0, 0), (128, 8)])
            .tlb_prefetches([false, true])
            .walk_models([WalkModel::Flat, WalkModel::Cached]);
        let cells = sweep.cells();
        assert_eq!(cells.len(), 8);
        assert!(
            cells.iter().all(|c| !c.tlb.ideal),
            "sweeping any translation knob enables the dTLB"
        );
        // Walk model varies fastest, then tlb_prefetch, then L2.
        assert_eq!(cells[0].tlb.walk_model, WalkModel::Flat);
        assert_eq!(cells[1].tlb.walk_model, WalkModel::Cached);
        assert!(!cells[0].tlb.tlb_prefetch);
        assert!(cells[2].tlb.tlb_prefetch);
        assert!(!cells[0].tlb.has_l2());
        assert!(cells[4].tlb.has_l2());
        assert_eq!((cells[7].tlb.l2_sets, cells[7].tlb.l2_ways), (128, 8));
        assert!(cells[7].tlb.tlb_prefetch);
        assert_eq!(cells[7].tlb.walk_model, WalkModel::Cached);
        // One generated input across the whole translation sub-grid.
        assert!(cells.iter().all(|c| c.seed == cells[0].seed));
    }

    #[test]
    fn page_policy_axis_extends_the_grid_and_shares_inputs() {
        let sweep = Sweep::from(
            Sim::workload("pagerank")
                .scale(Scale::Tiny)
                .prefetcher("imp"),
        )
        .page_policies([vec![], vec![("pr0".to_string(), PagePolicy::Huge2M)]]);
        let cells = sweep.cells();
        assert_eq!(cells.len(), 2);
        assert!(
            cells.iter().all(|c| !c.tlb.ideal),
            "sweeping placement enables the dTLB"
        );
        assert!(cells[0].page_policy.is_empty());
        assert_eq!(cells[1].page_policy[0].0, "pr0");
        assert_eq!(
            cells[0].seed, cells[1].seed,
            "placement never changes the generated input"
        );
        let results = sweep.run().unwrap();
        assert_eq!(results[0].stats.tlb_huge_total(), Default::default());
        assert!(results[1].stats.tlb_huge_total().lookups() > 0);
        // Without the axis, cells inherit the template's overrides.
        let inherited =
            Sweep::from(Sim::workload("pagerank").page_policy("pr0", PagePolicy::Huge2M)).cells();
        assert_eq!(inherited[0].page_policy.len(), 1);
    }

    /// Eight workloads, each one input group of two cells.
    fn eight_groups() -> Sweep {
        Sweep::from(Sim::workload("spmv").scale(Scale::Tiny))
            .workloads([
                "spmv",
                "pagerank",
                "sgd",
                "symgs",
                "graph500",
                "lsh",
                "tri_count",
                "hashjoin",
            ])
            .prefetchers(["none", "imp"])
    }

    #[test]
    fn a_sweep_holds_at_most_one_artifact_per_worker() {
        let report = eight_groups().threads(2).run_in(None, |_| {}).unwrap();
        assert_eq!((report.simulated, report.failed), (16, 0));
        let ArtifactCount { peak, live } = report.artifacts;
        assert!((1..=2).contains(&peak), "2 workers held {peak} artifacts");
        assert_eq!(live, 0, "every artifact is dropped after its last cell");

        let inline = eight_groups().threads(1).run_in(None, |_| {}).unwrap();
        let expect = ArtifactCount { peak: 1, live: 0 };
        assert_eq!(inline.artifacts, expect, "one worker holds exactly one");
        for (a, b) in report.results.iter().zip(&inline.results) {
            assert_eq!(a.as_ref().unwrap().stats, b.as_ref().unwrap().stats);
        }
    }

    #[test]
    fn an_unbuildable_group_fails_only_its_own_cells() {
        let report = Sweep::from(Sim::workload("spmv").scale(Scale::Tiny))
            .workloads(["spmv", "no-such-workload", "dense"])
            .prefetchers(["none", "imp"])
            .threads(2)
            .run_in(None, |_| {})
            .unwrap();
        assert_eq!((report.simulated, report.failed), (4, 2));
        for (i, result) in report.results.iter().enumerate() {
            match result {
                Err(e) => {
                    assert!((2..4).contains(&i), "cell {i} failed: {e}");
                    assert!(matches!(e.error, SimError::UnknownWorkload(_)), "{e}");
                }
                Ok(_) => assert!(!(2..4).contains(&i), "cell {i} ran"),
            }
        }
        assert_eq!(report.artifacts.live, 0, "the failed build is dropped too");
    }

    #[test]
    fn errors_propagate_from_cells() {
        let err = Sweep::from(Sim::workload("spmv").scale(Scale::Tiny))
            .prefetchers(["stream", "no-such-prefetcher"])
            .run()
            .unwrap_err();
        assert!(matches!(err, SimError::Prefetcher(_)), "{err:?}");
    }

    #[test]
    fn run_partial_keeps_the_rest_of_the_grid() {
        // One bad axis value (an unregistered prefetcher) fails only its
        // own cells; `run()` on the same grid discards everything.
        let sweep = Sweep::from(Sim::workload("spmv").scale(Scale::Tiny)).prefetchers([
            "stream",
            "no-such-prefetcher",
            "imp",
        ]);
        let outcomes = sweep.run_partial().unwrap();
        assert_eq!(outcomes.len(), 3);
        assert!(outcomes[0].is_ok(), "stream cell survives");
        assert!(outcomes[2].is_ok(), "imp cell survives");
        let err = outcomes[1].as_ref().unwrap_err();
        assert!(matches!(err.error, SimError::Prefetcher(_)), "{err}");
        assert_eq!(err.cell.prefetcher.name, "no-such-prefetcher");
        assert!(sweep.run().is_err(), "run() still fails the whole grid");
    }

    #[test]
    fn store_serves_warm_cells_without_simulating() {
        let dir = std::env::temp_dir().join(format!("imp-sweep-store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let sweep =
            Sweep::from(Sim::workload("spmv").scale(Scale::Tiny)).prefetchers(["none", "imp"]);
        let store = ResultStore::open(&dir).unwrap();

        let cold = sweep.run_with(&store, |_| {}).unwrap();
        assert_eq!((cold.cached, cold.simulated, cold.failed), (0, 2, 0));
        assert!(cold.store_error.is_none());

        // Warm: zero cells simulated, outcomes stream in cell order
        // with cached=true, and the grid is bit-identical.
        let mut seen = Vec::new();
        let warm = sweep
            .run_with(&store, |o| seen.push((o.index, o.cached)))
            .unwrap();
        assert_eq!((warm.cached, warm.simulated, warm.failed), (2, 0, 0));
        assert_eq!(seen, vec![(0, true), (1, true)]);
        for (c, w) in cold.results.iter().zip(&warm.results) {
            let (c, w) = (c.as_ref().unwrap(), w.as_ref().unwrap());
            assert_eq!(c.cell, w.cell);
            assert_eq!(c.stats, w.stats, "warm run must be bit-identical");
        }

        // The store path is bit-identical to the storeless one.
        let plain = sweep.run().unwrap();
        for (s, p) in warm.results.iter().zip(&plain) {
            assert_eq!(s.as_ref().unwrap().stats, p.stats);
        }

        // Extending one axis simulates only the new cells.
        let extended = Sweep::from(Sim::workload("spmv").scale(Scale::Tiny))
            .prefetchers(["none", "imp", "stream"]);
        let r = extended.run_with(&store, |_| {}).unwrap();
        assert_eq!((r.cached, r.simulated, r.failed), (2, 1, 0));

        // `.store(path)` routes run()/run_partial() the same way.
        let routed = extended.clone().store(&dir).run().unwrap();
        for (a, b) in routed.iter().zip(r.results.iter()) {
            assert_eq!(a.stats, b.as_ref().unwrap().stats);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn repeated_canonicals_are_simulated_once() {
        let dir = std::env::temp_dir().join(format!("imp-sweep-repeat-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = ResultStore::open(&dir).unwrap();
        let sweep = Sweep::from(Sim::workload("spmv").scale(Scale::Tiny))
            .prefetchers(["imp", "none", "imp"])
            .threads(2);
        assert_eq!(canonical(&sweep, 0), canonical(&sweep, 2));

        let mut seen = Vec::new();
        let cold = sweep
            .run_with(&store, |o| seen.push((o.index, o.cached)))
            .unwrap();
        assert_eq!(store.counters().puts, 2, "one put per distinct canonical");
        assert_eq!(store.len().unwrap(), 2);
        assert_eq!((cold.cached, cold.simulated, cold.failed), (0, 3, 0));
        assert_eq!(seen, vec![(0, false), (1, false), (2, false)]);
        let (first, repeat) = (
            cold.results[0].as_ref().unwrap(),
            cold.results[2].as_ref().unwrap(),
        );
        assert_eq!(first.stats, repeat.stats);
        assert_eq!(first.cell, repeat.cell);

        // Warm: one lookup per distinct canonical, every cell cached.
        let warm = sweep.run_with(&store, |_| {}).unwrap();
        assert_eq!((warm.cached, warm.simulated, warm.failed), (3, 0, 0));
        assert_eq!(store.counters().hits, 2);
        let warm_repeat = warm.results[2].as_ref().unwrap();
        assert_eq!(warm_repeat.stats, repeat.stats);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn failed_cells_carry_their_canonical_input_and_are_not_stored() {
        let dir = std::env::temp_dir().join(format!("imp-sweep-badcell-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = ResultStore::open(&dir).unwrap();
        let sweep = Sweep::from(Sim::workload("spmv").scale(Scale::Tiny))
            .prefetchers(["stream", "no-such-prefetcher"]);
        let report = sweep.run_with(&store, |_| {}).unwrap();
        assert_eq!((report.cached, report.simulated, report.failed), (0, 1, 1));
        let err = report.results[1].as_ref().unwrap_err();
        assert!(
            err.canonical.contains("no-such-prefetcher"),
            "canonical names the failing axis value: {}",
            err.canonical
        );
        assert!(format!("{err}").contains(&err.canonical));
        assert_eq!(store.len().unwrap(), 1, "only the good cell persisted");
        // The storeless path attaches the canonical too.
        let outcomes = sweep.run_partial().unwrap();
        assert!(outcomes[1]
            .as_ref()
            .unwrap_err()
            .canonical
            .contains("no-such-prefetcher"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn malformed_axis_specs_fail_the_whole_grid_even_partially() {
        let err = Sweep::from(Sim::workload("spmv").scale(Scale::Tiny))
            .prefetchers(["stream:distance"])
            .run_partial()
            .unwrap_err();
        assert!(matches!(err, SimError::InvalidSpec(_)), "{err:?}");
    }
}
