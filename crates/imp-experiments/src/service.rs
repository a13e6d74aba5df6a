//! The resumable experiment service: declarative sweep *request files*
//! executed against a shared [`ResultStore`].
//!
//! A request is a `key = value` text file describing a sweep grid
//! (see [`SweepRequest::parse`] for the grammar). [`serve_dir`] scans a
//! directory for `*.sweep` files, runs each grid through
//! [`Sweep::run_with`] — so cells already in the store are served from
//! disk and only new cells simulate — writes a JSON manifest next to
//! the request, and renames the request `.sweep.done`. Re-submitting
//! the same request is therefore free, and a request that died halfway
//! resumes from exactly the cells it had finished: the store, not the
//! service, is the source of truth.
//!
//! The `imp-sweepd` binary is a thin loop over [`serve_dir`].
//!
//! ```
//! use imp_experiments::SweepRequest;
//!
//! let req = SweepRequest::parse(
//!     "demo",
//!     "workloads = spmv\nprefetchers = none, imp\nscale = tiny\n",
//! )
//! .unwrap();
//! assert_eq!(req.to_sweep().cells().len(), 2);
//! ```

use crate::knob::{on_off, Knob};
use crate::sim::Sim;
use crate::sweep::Sweep;
use crate::table::Table;
use imp_obs::ObsConfig;
use imp_store::{digest_hex, ResultStore, StoreCounters};
use imp_workloads::Scale;
use std::fmt;
use std::path::{Path, PathBuf};

/// A parsed sweep request: the axes of one [`Sweep`] grid plus
/// execution knobs. Unset axes fall back to the template defaults,
/// exactly as the corresponding [`Sweep`] builder methods do.
#[derive(Clone, Debug, PartialEq)]
pub struct SweepRequest {
    /// Request name (the file stem); names the manifest.
    pub name: String,
    /// The swept axes in the order given: each a non-empty list of one
    /// knob's values (see [`SweepRequest::parse`] for every key and its
    /// value syntax).
    /// `workloads` is required.
    pub axes: Vec<Vec<Knob>>,
    /// `scale = tiny | small | large` (default `tiny`).
    pub scale: Scale,
    /// `seed = 7` (default: the [`Sim`] default — so a request over a
    /// grid the fluent API already ran shares its store entries).
    pub seed: u64,
    /// `threads = 4` — worker cap (default: available parallelism).
    pub threads: Option<usize>,
    /// `observe = on` — attach the metrics probe to every freshly
    /// simulated cell and add its summary columns to the manifest
    /// (default off). Cached cells keep `null` there: the store serves
    /// stats, not observations, and observing never re-simulates.
    pub observe: bool,
}

/// Why a request file could not be parsed or served.
#[derive(Debug)]
pub enum RequestError {
    /// Filesystem failure reading/writing the request directory.
    Io(std::io::Error),
    /// A malformed line in the request text.
    Parse {
        /// Request name.
        name: String,
        /// 1-based line number.
        line: usize,
        /// What was wrong.
        message: String,
    },
}

impl fmt::Display for RequestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RequestError::Io(e) => write!(f, "request i/o failure: {e}"),
            RequestError::Parse {
                name,
                line,
                message,
            } => write!(f, "request {name}, line {line}: {message}"),
        }
    }
}

impl std::error::Error for RequestError {}

impl From<std::io::Error> for RequestError {
    fn from(e: std::io::Error) -> Self {
        RequestError::Io(e)
    }
}

/// What [`serve_dir`] did with one request file.
#[derive(Debug)]
pub struct ServedRequest {
    /// The request file as found (before the `.done`/`.failed` rename).
    pub request: PathBuf,
    /// The manifest written next to it (absent if the request failed
    /// before producing one).
    pub manifest: Option<PathBuf>,
    /// Cells served from the store.
    pub cached: usize,
    /// Cells simulated (and persisted) by this request.
    pub simulated: usize,
    /// Cells that failed.
    pub failed: usize,
    /// This request's traffic against the store (counter delta across
    /// the run), absent if the request failed before running.
    pub store: Option<StoreCounters>,
    /// Why the request as a whole failed, if it did.
    pub error: Option<String>,
}

impl SweepRequest {
    /// Parses request text. Grammar: one `key = value` per line, `#`
    /// starts a comment, blank lines ignored; list values are
    /// comma-separated.
    ///
    /// Axis keys, one per [`Knob`] in nesting order (outermost first),
    /// each taking a list: `workloads` (required; `chain:` specs
    /// included), `cores`, `prefetchers` (specs), `depths`, `managers`
    /// (specs, `none` = unmanaged), `partials` (`off` / `noc` /
    /// `noc+dram`), `page_sizes` (bytes), `tlb_ways`,
    /// `translation_policies` (`drop` / `walk` / `ideal`), `l2_tlbs`
    /// (`SETSxWAYS`, `0x0` = none), `tlb_prefetches` (`on` / `off`),
    /// `walk_models` (`flat` / `cached`) and `page_policies` (sets of
    /// `region=4k|2m|auto:<bytes>` joined by `+`, or `none`). In the
    /// spec lists (`workloads`, `prefetchers`, `managers`) an item of
    /// the form `key=value` with no `:` continues the previous spec, so
    /// `stream:distance=8,degree=2, imp` is two specs. Execution keys:
    /// `scale` (`tiny` / `small` / `large`, default `tiny`), `seed`,
    /// `threads`, `observe` (`on` / `off`).
    ///
    /// # Errors
    ///
    /// [`RequestError::Parse`] with the offending line for an unknown
    /// key, an unparsable value, a spec list opening with a parameter,
    /// a repeated key, or a missing `workloads`.
    pub fn parse(name: &str, text: &str) -> Result<Self, RequestError> {
        let mut req = SweepRequest {
            name: name.to_string(),
            axes: Vec::new(),
            scale: Scale::Tiny,
            seed: Sim::workload("").seed_value(),
            threads: None,
            observe: false,
        };
        let fail = |line: usize, message: String| RequestError::Parse {
            name: name.to_string(),
            line,
            message,
        };
        let mut seen: Vec<String> = Vec::new();
        for (i, raw) in text.lines().enumerate() {
            let line = i + 1;
            let stripped = raw.split('#').next().unwrap_or("").trim();
            if stripped.is_empty() {
                continue;
            }
            let (key, value) = stripped
                .split_once('=')
                .ok_or_else(|| fail(line, format!("expected `key = value`, got `{stripped}`")))?;
            let (key, value) = (key.trim(), value.trim());
            if seen.iter().any(|k| k == key) {
                return Err(fail(line, format!("key `{key}` given twice")));
            }
            seen.push(key.to_string());
            match key {
                "scale" => req.scale = value.parse().map_err(|m| fail(line, m))?,
                "seed" => req.seed = one_number(value).map_err(|m| fail(line, m))?,
                "threads" => req.threads = Some(one_number(value).map_err(|m| fail(line, m))?),
                "observe" => {
                    req.observe = on_off(value).ok_or_else(|| {
                        fail(line, format!("unknown observe value `{value}` (on / off)"))
                    })?;
                }
                _ if Knob::slot_of(key).is_none() => {
                    return Err(fail(line, format!("unknown key `{key}`")))
                }
                _ => {
                    let values = Knob::parse_list(key, value).map_err(|m| fail(line, m))?;
                    if !values.is_empty() {
                        req.axes.push(values);
                    }
                }
            }
        }
        if !req.axes.iter().any(|axis| axis[0].key() == "workloads") {
            return Err(fail(0, "`workloads` is required".to_string()));
        }
        Ok(req)
    }

    /// Reads and parses a request file; the name is the file stem.
    ///
    /// # Errors
    ///
    /// I/O reading the file, or any [`SweepRequest::parse`] error.
    pub fn from_file(path: &Path) -> Result<Self, RequestError> {
        let name = path
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_else(|| "request".to_string());
        SweepRequest::parse(&name, &std::fs::read_to_string(path)?)
    }

    /// The [`Sweep`] this request describes. The template names no
    /// workload: the required `workloads` axis names every cell's.
    pub fn to_sweep(&self) -> Sweep {
        let base = Sim::workload("").scale(self.scale).seed(self.seed);
        let mut sweep = self.axes.iter().fold(Sweep::from(base), |sweep, axis| {
            sweep.axis(axis[0].key(), axis.iter().cloned())
        });
        if let Some(n) = self.threads {
            sweep = sweep.threads(n);
        }
        if self.observe {
            sweep = sweep.observe(ObsConfig::metrics());
        }
        sweep
    }

    /// Runs the request against `store` and renders the manifest: one
    /// row per cell in grid order, labelled
    /// `<digest> <workload>@<cores> <prefetcher> <status>` with status
    /// `hit`, `sim`, or `fail`, and columns for the runtime and the
    /// hit/simulated/failed flags. Failed cells keep their row (runtime
    /// 0) so the manifest always has exactly one row per grid cell.
    /// With `observe = on` the table grows summary columns
    /// (`demand_p50`/`demand_p99`/`pf_used`/`pf_late`/`pf_unused`)
    /// filled on freshly simulated cells and `null` on cached or
    /// failed ones.
    ///
    /// # Errors
    ///
    /// A malformed grid or an unreadable store
    /// ([`crate::SimError::Store`]), stringified — per-cell failures
    /// are rows, not errors.
    pub fn process(
        &self,
        store: &ResultStore,
    ) -> Result<(Table, crate::sweep::SweepReport), String> {
        let mut headers = vec!["runtime", "cached", "simulated", "failed"];
        if self.observe {
            headers.extend([
                "demand_p50",
                "demand_p99",
                "pf_used",
                "pf_late",
                "pf_unused",
            ]);
        }
        let mut table = Table::new(self.name.clone(), headers);
        let report = self
            .to_sweep()
            .run_with(store, |outcome| {
                let (status, runtime, ok) = match &outcome.result {
                    Ok(r) => (
                        if outcome.cached { "hit" } else { "sim" },
                        r.stats.runtime as f64,
                        true,
                    ),
                    Err(_) => ("fail", 0.0, false),
                };
                let cell = match &outcome.result {
                    Ok(r) => &r.cell,
                    Err(e) => &e.cell,
                };
                let label = format!(
                    "{} {}@{} {} {}",
                    digest_hex(outcome.digest),
                    cell.workload,
                    cell.cores,
                    cell.prefetcher,
                    status
                );
                let hit = f64::from(u8::from(outcome.cached));
                let sim = f64::from(u8::from(ok && !outcome.cached));
                let fail = f64::from(u8::from(!ok));
                let mut values = vec![runtime, hit, sim, fail];
                if self.observe {
                    // Cached and failed cells carry no observation; NaN
                    // exports as JSON `null` / an empty CSV field.
                    let obs = outcome.result.as_ref().ok().and_then(|r| r.obs.as_ref());
                    let quantile = |q: Option<u64>| q.map_or(f64::NAN, |v| v as f64);
                    let count = |c: Option<u64>| c.map_or(f64::NAN, |v| v as f64);
                    values.extend([
                        quantile(obs.and_then(|o| o.demand_p50)),
                        quantile(obs.and_then(|o| o.demand_p99)),
                        count(obs.map(|o| o.ledger.used)),
                        count(obs.map(|o| o.ledger.late)),
                        count(obs.map(|o| o.ledger.evicted_unused)),
                    ]);
                }
                table.row(&label, values);
            })
            .map_err(|e| e.to_string())?;
        Ok((table, report))
    }
}

fn one_number<T: std::str::FromStr>(value: &str) -> Result<T, String> {
    value
        .parse::<T>()
        .map_err(|_| format!("`{value}` is not a valid number"))
}

/// Serves every `*.sweep` request in `dir` once, in name order:
/// parse → run against `store` (cached cells free) → write
/// `<name>.manifest.json` → rename the request `<name>.sweep.done`.
/// A request that fails is renamed `<name>.sweep.failed` with the
/// error in `<name>.error.txt`; other requests still run. Daemons
/// (`imp-sweepd`) call this in a loop — renaming is what makes each
/// pass idempotent.
///
/// # Errors
///
/// Only directory-level I/O (the listing itself); per-request failures
/// come back in their [`ServedRequest::error`] slots.
pub fn serve_dir(dir: &Path, store: &ResultStore) -> Result<Vec<ServedRequest>, RequestError> {
    let mut requests: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|e| e == "sweep"))
        .collect();
    requests.sort();
    let mut served = Vec::with_capacity(requests.len());
    for request in requests {
        served.push(serve_one(&request, store));
    }
    Ok(served)
}

/// The manifest JSON: the table object extended with a `"store"` key
/// holding this request's counter delta against the result store.
fn manifest_json(table: &Table, store: &StoreCounters) -> String {
    let mut json = table.to_json();
    debug_assert!(json.ends_with('}'));
    json.pop();
    json.push_str(&format!(
        ",\"store\":{{\"hits\":{},\"misses\":{},\"rejected\":{},\"puts\":{}}}}}",
        store.hits, store.misses, store.rejected, store.puts
    ));
    json
}

fn serve_one(request: &Path, store: &ResultStore) -> ServedRequest {
    let mut served = ServedRequest {
        request: request.to_path_buf(),
        manifest: None,
        cached: 0,
        simulated: 0,
        failed: 0,
        store: None,
        error: None,
    };
    let before = store.counters();
    let outcome = SweepRequest::from_file(request)
        .map_err(|e| e.to_string())
        .and_then(|req| req.process(store));
    match outcome {
        Ok((table, report)) => {
            // Counters are per-process and shared across requests; the
            // delta across this run is this request's own traffic.
            let after = store.counters();
            let delta = StoreCounters {
                hits: after.hits - before.hits,
                misses: after.misses - before.misses,
                rejected: after.rejected - before.rejected,
                puts: after.puts - before.puts,
            };
            served.store = Some(delta);
            let manifest = request.with_extension("manifest.json");
            served.cached = report.cached;
            served.simulated = report.simulated;
            served.failed = report.failed;
            if let Err(e) = std::fs::write(&manifest, manifest_json(&table, &delta)) {
                served.error = Some(format!("writing manifest: {e}"));
            } else {
                served.manifest = Some(manifest);
            }
            if let Some(e) = report.store_error {
                served.error.get_or_insert(format!("store write: {e}"));
            }
        }
        Err(e) => served.error = Some(e),
    }
    let suffix = if served.error.is_none() {
        "sweep.done"
    } else {
        let _ = std::fs::write(
            request.with_extension("error.txt"),
            served.error.as_deref().unwrap_or(""),
        );
        "sweep.failed"
    };
    if let Err(e) = std::fs::rename(request, request.with_extension(suffix)) {
        served
            .error
            .get_or_insert(format!("renaming processed request: {e}"));
    }
    served
}

#[cfg(test)]
mod tests {
    use super::*;
    use imp_common::config::{
        PagePolicy, PartialMode, PrefetcherSpec, TranslationPolicy, WalkModel,
    };

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("imp-service-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn parse_reads_every_key_and_rejects_junk() {
        let req = SweepRequest::parse(
            "r",
            "# grid\nworkloads = spmv, pagerank\ncores = 16, 64\n\
             prefetchers = stream:distance=8,degree=2, imp\n\
             managers = none, throttle:accuracy_floor=0.4,epoch=2000\n\
             partials = off, noc+dram\npage_sizes = 4096\ntlb_ways = 4, 8\n\
             scale = small\nseed = 7\nthreads = 2 # cap\nobserve = on\n",
        )
        .unwrap();
        assert_eq!(
            (req.scale, req.seed, req.threads, req.observe),
            (Scale::Small, 7, Some(2), true)
        );
        let cells = req.to_sweep().cells();
        assert_eq!(cells.len(), 2 * 2 * 2 * 2 * 2 * 2);
        assert_eq!(
            (cells[16].cores, cells[32].workload.as_str()),
            (64, "pagerank")
        );
        // A spec keeps its own comma-separated parameters; managers vary
        // outside partial modes and dTLB ways (a stride of 4).
        let spec = |s: &str| s.parse::<PrefetcherSpec>().unwrap();
        assert_eq!(cells[0].prefetcher, spec("stream:distance=8,degree=2"));
        assert_eq!(
            cells[4].manager,
            Some(spec("throttle:accuracy_floor=0.4,epoch=2000"))
        );
        assert_eq!(
            (cells[3].partial, cells[3].tlb.ways),
            (PartialMode::NocAndDram, 8)
        );

        for (text, what) in [
            ("cores = 16", "workloads is required"),
            ("workloads = spmv\nbogus = 1", "unknown key"),
            ("workloads = spmv\ncores = many", "bad number"),
            ("workloads = spmv\npartials = sideways", "bad partial"),
            ("workloads = spmv\nscale = huge", "bad scale"),
            ("workloads = spmv\nobserve = maybe", "bad observe"),
            ("workloads = spmv\nseed = 1\nseed = 2", "repeated key"),
            ("workloads = spmv\nno equals", "missing ="),
            (
                "workloads = spmv\nprefetchers = degree=2, imp",
                "lead param",
            ),
            ("workloads = spmv\nmanagers = epoch=2000", "lead param"),
            ("workloads = spmv\nl2_tlbs = 128", "bad geometry"),
            ("workloads = spmv\npage_policies = pr0=1g", "bad policy"),
        ] {
            let err = SweepRequest::parse("r", text).unwrap_err();
            assert!(matches!(err, RequestError::Parse { .. }), "{what}: {err}");
        }
    }

    #[test]
    fn every_knob_key_parses_like_its_typed_setter() {
        use PartialMode::*;
        use TranslationPolicy::*;
        const CHAIN: &str = "chain:depth=3,tables=probe+bucket+entry+payload";
        const STREAM: &str = "stream:distance=8,degree=2";
        const THROTTLE: &str = "throttle:accuracy_floor=0.4,epoch=2000";
        let typed = || Sweep::from(Sim::workload("spmv").scale(Scale::Tiny));
        let canonicals =
            |s: &Sweep| -> Vec<_> { s.sims().map(|sim| sim.canonical_input()).collect() };
        for key in Knob::KEYS {
            let (value, sweep) = match key {
                "workloads" => (format!("spmv, {CHAIN}"), typed().workloads(["spmv", CHAIN])),
                "cores" => ("16, 64".into(), typed().cores([16, 64])),
                "prefetchers" => (
                    format!("none, {STREAM}, imp:depth=2"),
                    typed().prefetchers(["none", STREAM, "imp:depth=2"]),
                ),
                "depths" => ("1, 3".into(), typed().depths([1, 3])),
                "managers" => (
                    format!("none, {THROTTLE}"),
                    typed().managers(["none", THROTTLE]),
                ),
                "partials" => (
                    "off, noc, noc+dram".into(),
                    typed().partials([Off, NocOnly, NocAndDram]),
                ),
                "page_sizes" => ("4096, 65536".into(), typed().page_sizes([4096, 65536])),
                "tlb_ways" => ("2, 8".into(), typed().tlb_ways([2, 8])),
                "translation_policies" => (
                    "drop, walk, ideal".into(),
                    typed().translation_policies([DropOnMiss, NonBlockingWalk, Ideal]),
                ),
                "l2_tlbs" => ("0x0, 128x8".into(), typed().l2_tlbs([(0, 0), (128, 8)])),
                "tlb_prefetches" => ("off, on".into(), typed().tlb_prefetches([false, true])),
                "walk_models" => (
                    "flat, cached".into(),
                    typed().walk_models([WalkModel::Flat, WalkModel::Cached]),
                ),
                "page_policies" => {
                    let auto = PagePolicy::Auto {
                        threshold_bytes: 4096,
                    };
                    let sets = [vec![], vec![("pr0", PagePolicy::Huge2M), ("deg", auto)]];
                    (
                        "none, pr0=2m+deg=auto:4096".into(),
                        typed().page_policies(sets),
                    )
                }
                other => panic!("no typed setter paired with knob `{other}`"),
            };
            let text = match key {
                "workloads" => format!("workloads = {value}\n"),
                _ => format!("workloads = spmv\n{key} = {value}\n"),
            };
            let parsed = SweepRequest::parse("t", &text).unwrap().to_sweep();
            assert!(sweep.cells().len() > 1, "{key}: the axis varies");
            assert_eq!(parsed.cells(), sweep.cells(), "{key}: cells");
            assert_eq!(canonicals(&parsed), canonicals(&sweep), "{key}: canonicals");
        }
    }

    #[test]
    fn serve_dir_writes_manifests_and_resumes_from_the_store() {
        let dir = scratch("dir");
        let store = ResultStore::open(dir.join("store")).unwrap();
        std::fs::write(
            dir.join("a.sweep"),
            "workloads = spmv\nprefetchers = none, imp\nthreads = 2\nobserve = on\n",
        )
        .unwrap();
        std::fs::write(dir.join("bad.sweep"), "cores = 16\n").unwrap();

        let served = serve_dir(&dir, &store).unwrap();
        assert_eq!(served.len(), 2);
        let a = &served[0];
        assert_eq!((a.cached, a.simulated, a.failed), (0, 2, 0));
        assert!(a.error.is_none());
        let delta = a.store.unwrap();
        assert_eq!((delta.hits, delta.misses, delta.puts), (0, 2, 2));
        let manifest = std::fs::read_to_string(a.manifest.as_ref().unwrap()).unwrap();
        assert!(manifest.contains("\"a\""), "titled by request: {manifest}");
        assert!(manifest.contains(" sim\""), "cold cells marked sim");
        assert!(
            manifest.contains("\"store\":{\"hits\":0,\"misses\":2,\"rejected\":0,\"puts\":2}"),
            "store delta embedded: {manifest}"
        );
        assert!(manifest.contains("\"demand_p99\""), "obs columns present");
        assert!(dir.join("a.sweep.done").exists());
        let bad = &served[1];
        assert!(bad.error.as_ref().unwrap().contains("workloads"));
        assert!(dir.join("bad.sweep.failed").exists());
        assert!(dir.join("bad.error.txt").exists());

        // Resubmitting the same grid is served entirely from the store.
        std::fs::rename(dir.join("a.sweep.done"), dir.join("a.sweep")).unwrap();
        let again = serve_dir(&dir, &store).unwrap();
        assert_eq!(again.len(), 1, "failed request not rescanned");
        assert_eq!((again[0].cached, again[0].simulated), (2, 0));
        let warm_delta = again[0].store.unwrap();
        assert_eq!((warm_delta.hits, warm_delta.puts), (2, 0));
        let warm = std::fs::read_to_string(again[0].manifest.as_ref().unwrap()).unwrap();
        assert!(warm.contains(" hit\""), "warm cells marked hit");
        assert!(
            warm.contains("\"hits\":2") && warm.contains("\"puts\":0"),
            "warm run served from the store: {warm}"
        );
        // Cached cells carry no observation: their obs columns are null.
        assert!(warm.contains("null"), "cached cells have null obs columns");
        std::fs::remove_dir_all(&dir).ok();
    }
}
