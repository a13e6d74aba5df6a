//! The versioned binary `.impres` container: one sweep cell's result.
//!
//! ## Layout (all integers little-endian)
//!
//! | section | encoding |
//! |---|---|
//! | magic | 8 bytes, `b"IMPRESLT"` |
//! | version | `u32`, currently 2 |
//! | canonical | `u32` length + UTF-8 bytes |
//! | cell key | workload, cores, seed, prefetcher, manager, partial, TLB, page policies |
//! | stats | runtime + per-core vectors + L2-TLB + traffic, `u64` words |
//! | checksum | `u64` FNV-1a over everything before it |
//!
//! The canonical string is stored *verbatim* (not just its digest) so a
//! reader can verify the record answers the exact question being asked;
//! [`crate::ResultStore::get`] treats any mismatch as a miss. Parameter
//! values in the prefetcher spec carry a type tag byte so `Str("8")`
//! survives the round-trip without collapsing into `Int(8)` — results
//! must come back **bit-identical**, not merely equivalent.

use imp_common::config::{
    PagePolicy, ParamValue, PartialMode, PrefetcherSpec, TlbConfig, TranslationPolicy, WalkModel,
};
use imp_common::fnv1a;
use imp_common::stats::{CoreStats, PrefetchStats, SystemStats, TlbStats, TrafficStats};
use std::fmt;
use std::path::Path;

/// File magic: the first eight bytes of every `.impres` file.
pub const MAGIC: [u8; 8] = *b"IMPRESLT";

/// Current format version written by [`StoredResult::to_bytes`].
///
/// Bump this when a code change alters simulated *timing* without
/// changing any config knob — stale results must become unreadable, not
/// silently wrong.
///
/// History: 1 → 2 added the optional adaptive-manager spec to the cell
/// key (a presence byte followed by a spec when present). Version-1
/// records — all necessarily unmanaged — become cache misses rather
/// than being grandfathered in, keeping the reader single-version.
pub const VERSION: u32 = 2;

/// Why a stored result could not be read or written.
#[derive(Debug)]
pub enum StoreError {
    /// Underlying filesystem failure.
    Io(std::io::Error),
    /// The file does not start with [`MAGIC`].
    BadMagic,
    /// The file's version is newer than this reader understands.
    UnsupportedVersion(u32),
    /// The file ended before a section was complete.
    Truncated {
        /// Which section was being read.
        section: &'static str,
        /// Bytes the section needed.
        needed: usize,
        /// Bytes that were left.
        available: usize,
    },
    /// A string section is not valid UTF-8.
    BadUtf8(&'static str),
    /// An enum tag byte is out of range.
    BadTag {
        /// Which section held the byte.
        section: &'static str,
        /// The offending value.
        value: u8,
    },
    /// The stored checksum does not match the file contents.
    ChecksumMismatch {
        /// Checksum recorded in the file.
        stored: u64,
        /// Checksum of the bytes actually read.
        computed: u64,
    },
    /// The file has bytes after the checksum trailer.
    TrailingBytes(usize),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store i/o error: {e}"),
            StoreError::BadMagic => write!(f, "not an .impres file (bad magic)"),
            StoreError::UnsupportedVersion(v) => write!(
                f,
                "unsupported .impres version {v} (reader supports {VERSION})"
            ),
            StoreError::Truncated {
                section,
                needed,
                available,
            } => write!(
                f,
                "truncated .impres: {section} needs {needed} bytes, {available} left"
            ),
            StoreError::BadUtf8(section) => write!(f, "{section} is not valid UTF-8"),
            StoreError::BadTag { section, value } => {
                write!(f, "unknown {section} tag byte {value:#x}")
            }
            StoreError::ChecksumMismatch { stored, computed } => write!(
                f,
                "checksum mismatch: file says {stored:#018x}, contents hash to {computed:#018x}"
            ),
            StoreError::TrailingBytes(n) => {
                write!(f, "{n} unexpected bytes after the checksum trailer")
            }
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

/// The sweep-cell coordinates a stored result was simulated under.
///
/// `imp_experiments` re-exports this as its `SweepCell` (`Sim::cell`
/// builds it); it lives here, built only from `imp-common` types, so
/// the store does not depend on the experiment layer. The *identity* of
/// a record is its canonical string; the key is carried so manifests
/// and debugging tools can reconstruct the grid coordinates without
/// re-parsing canonicals. The default is an ideal-TLB, unmanaged cell.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CellKey {
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

/// One persisted sweep-cell result: the canonical input it answers, the
/// grid coordinates it was simulated at, and the stats it produced.
#[derive(Clone, Debug, PartialEq)]
pub struct StoredResult {
    /// Full canonical input string (the digest preimage).
    pub canonical: String,
    /// Grid coordinates.
    pub cell: CellKey,
    /// The simulation outcome.
    pub stats: SystemStats,
}

impl StoredResult {
    /// Serializes to the `.impres` byte layout.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(256 + self.canonical.len());
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        put_str(&mut out, &self.canonical);
        encode_cell(&self.cell, &mut out);
        encode_stats(&self.stats, &mut out);
        let checksum = fnv1a(&out);
        out.extend_from_slice(&checksum.to_le_bytes());
        out
    }

    /// Parses the `.impres` byte layout.
    ///
    /// # Errors
    ///
    /// Any structural defect — wrong magic, newer version, truncation,
    /// invalid tag bytes, checksum mismatch — comes back as the matching
    /// [`StoreError`] variant.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, StoreError> {
        if bytes.len() < 8 {
            return Err(StoreError::Truncated {
                section: "checksum trailer",
                needed: 8,
                available: bytes.len(),
            });
        }
        let (body, trailer) = bytes.split_at(bytes.len() - 8);
        let stored = u64::from_le_bytes(trailer.try_into().expect("8-byte trailer"));
        let computed = fnv1a(body);
        if stored != computed {
            return Err(StoreError::ChecksumMismatch { stored, computed });
        }

        let mut r = Reader { buf: body, pos: 0 };
        if r.take("magic", MAGIC.len())? != MAGIC {
            return Err(StoreError::BadMagic);
        }
        let version = r.u32("version")?;
        if version != VERSION {
            return Err(StoreError::UnsupportedVersion(version));
        }
        let canonical = r.string("canonical")?;
        let cell = decode_cell(&mut r)?;
        let stats = decode_stats(&mut r)?;
        if r.pos != body.len() {
            return Err(StoreError::TrailingBytes(body.len() - r.pos));
        }
        Ok(StoredResult {
            canonical,
            cell,
            stats,
        })
    }

    /// Writes the record to `path` (conventionally `*.impres`).
    ///
    /// # Errors
    ///
    /// Filesystem failures surface as [`StoreError::Io`].
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), StoreError> {
        Ok(std::fs::write(path, self.to_bytes())?)
    }

    /// Reads a record back from `path`.
    ///
    /// # Errors
    ///
    /// Filesystem failures surface as [`StoreError::Io`]; malformed
    /// contents as the other [`StoreError`] variants.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, StoreError> {
        Self::from_bytes(&std::fs::read(path)?)
    }
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

fn put_spec(out: &mut Vec<u8>, spec: &PrefetcherSpec) {
    put_str(out, &spec.name);
    out.extend_from_slice(&(spec.params.len() as u32).to_le_bytes());
    for (key, value) in &spec.params {
        put_str(out, key);
        match value {
            ParamValue::Bool(b) => {
                out.push(0);
                out.push(u8::from(*b));
            }
            ParamValue::Int(v) => {
                out.push(1);
                out.extend_from_slice(&v.to_le_bytes());
            }
            ParamValue::Float(v) => {
                out.push(2);
                out.extend_from_slice(&v.to_bits().to_le_bytes());
            }
            ParamValue::Str(s) => {
                out.push(3);
                put_str(out, s);
            }
        }
    }
}

fn encode_cell(cell: &CellKey, out: &mut Vec<u8>) {
    put_str(out, &cell.workload);
    out.extend_from_slice(&cell.cores.to_le_bytes());
    out.extend_from_slice(&cell.seed.to_le_bytes());

    put_spec(out, &cell.prefetcher);
    match &cell.manager {
        None => out.push(0),
        Some(spec) => {
            out.push(1);
            put_spec(out, spec);
        }
    }

    out.push(match cell.partial {
        PartialMode::Off => 0,
        PartialMode::NocOnly => 1,
        PartialMode::NocAndDram => 2,
    });

    let tlb = &cell.tlb;
    out.push(u8::from(tlb.ideal));
    out.extend_from_slice(&tlb.sets.to_le_bytes());
    out.extend_from_slice(&tlb.ways.to_le_bytes());
    out.extend_from_slice(&tlb.page_bytes.to_le_bytes());
    out.extend_from_slice(&tlb.walk_latency.to_le_bytes());
    out.push(match tlb.policy {
        TranslationPolicy::DropOnMiss => 0,
        TranslationPolicy::NonBlockingWalk => 1,
        TranslationPolicy::Ideal => 2,
    });
    out.push(u8::from(tlb.walk_dram_traffic));
    out.extend_from_slice(&tlb.l2_sets.to_le_bytes());
    out.extend_from_slice(&tlb.l2_ways.to_le_bytes());
    out.extend_from_slice(&tlb.l2_latency.to_le_bytes());
    out.push(u8::from(tlb.tlb_prefetch));
    out.push(match tlb.walk_model {
        WalkModel::Flat => 0,
        WalkModel::Cached => 1,
    });
    out.extend_from_slice(&tlb.huge_sets.to_le_bytes());
    out.extend_from_slice(&tlb.huge_ways.to_le_bytes());

    out.extend_from_slice(&(cell.page_policy.len() as u32).to_le_bytes());
    for (region, policy) in &cell.page_policy {
        put_str(out, region);
        match policy {
            PagePolicy::Base4K => out.push(0),
            PagePolicy::Huge2M => out.push(1),
            PagePolicy::Auto { threshold_bytes } => {
                out.push(2);
                out.extend_from_slice(&threshold_bytes.to_le_bytes());
            }
        }
    }
}

fn read_spec(r: &mut Reader<'_>) -> Result<PrefetcherSpec, StoreError> {
    let name = r.string("spec name")?;
    let mut spec = PrefetcherSpec::new(name);
    let n_params = r.u32("param count")? as usize;
    for _ in 0..n_params {
        let key = r.string("param key")?;
        let value = match r.byte("param tag")? {
            0 => ParamValue::Bool(r.byte("param bool")? != 0),
            1 => ParamValue::Int(i64::from_le_bytes(
                r.take("param int", 8)?.try_into().expect("8 bytes"),
            )),
            2 => ParamValue::Float(f64::from_bits(r.u64("param float")?)),
            3 => ParamValue::Str(r.string("param string")?),
            value => {
                return Err(StoreError::BadTag {
                    section: "param value",
                    value,
                })
            }
        };
        spec.params.insert(key, value);
    }
    Ok(spec)
}

fn decode_cell(r: &mut Reader<'_>) -> Result<CellKey, StoreError> {
    let workload = r.string("workload")?;
    let cores = r.u32("cores")?;
    let seed = r.u64("seed")?;

    let prefetcher = read_spec(r)?;
    let manager = match r.byte("manager presence")? {
        0 => None,
        1 => Some(read_spec(r)?),
        value => {
            return Err(StoreError::BadTag {
                section: "manager presence",
                value,
            })
        }
    };

    let partial = match r.byte("partial mode")? {
        0 => PartialMode::Off,
        1 => PartialMode::NocOnly,
        2 => PartialMode::NocAndDram,
        value => {
            return Err(StoreError::BadTag {
                section: "partial mode",
                value,
            })
        }
    };

    let tlb = TlbConfig {
        ideal: r.byte("tlb ideal")? != 0,
        sets: r.u32("tlb sets")?,
        ways: r.u32("tlb ways")?,
        page_bytes: r.u64("tlb page bytes")?,
        walk_latency: r.u64("tlb walk latency")?,
        policy: match r.byte("translation policy")? {
            0 => TranslationPolicy::DropOnMiss,
            1 => TranslationPolicy::NonBlockingWalk,
            2 => TranslationPolicy::Ideal,
            value => {
                return Err(StoreError::BadTag {
                    section: "translation policy",
                    value,
                })
            }
        },
        walk_dram_traffic: r.byte("walk dram traffic")? != 0,
        l2_sets: r.u32("l2 tlb sets")?,
        l2_ways: r.u32("l2 tlb ways")?,
        l2_latency: r.u64("l2 tlb latency")?,
        tlb_prefetch: r.byte("tlb prefetch")? != 0,
        walk_model: match r.byte("walk model")? {
            0 => WalkModel::Flat,
            1 => WalkModel::Cached,
            value => {
                return Err(StoreError::BadTag {
                    section: "walk model",
                    value,
                })
            }
        },
        huge_sets: r.u32("huge tlb sets")?,
        huge_ways: r.u32("huge tlb ways")?,
    };

    let n_policies = r.u32("page policy count")? as usize;
    let mut page_policy = Vec::with_capacity(n_policies.min(r.remaining()));
    for _ in 0..n_policies {
        let region = r.string("page policy region")?;
        let policy = match r.byte("page policy tag")? {
            0 => PagePolicy::Base4K,
            1 => PagePolicy::Huge2M,
            2 => PagePolicy::Auto {
                threshold_bytes: r.u64("page policy threshold")?,
            },
            value => {
                return Err(StoreError::BadTag {
                    section: "page policy",
                    value,
                })
            }
        };
        page_policy.push((region, policy));
    }

    Ok(CellKey {
        workload,
        cores,
        prefetcher,
        manager,
        partial,
        tlb,
        page_policy,
        seed,
    })
}

/// `u64` words one [`CoreStats`] occupies on disk.
const CORE_WORDS: usize = 14;
/// `u64` words one [`PrefetchStats`] occupies on disk.
const PREFETCH_WORDS: usize = 14;
/// `u64` words one [`TlbStats`] occupies on disk.
const TLB_WORDS: usize = 9;

fn encode_stats(stats: &SystemStats, out: &mut Vec<u8>) {
    out.extend_from_slice(&stats.runtime.to_le_bytes());

    out.extend_from_slice(&(stats.cores.len() as u32).to_le_bytes());
    for c in &stats.cores {
        for w in [
            c.instructions,
            c.done_cycle,
            c.stall_cycles[0],
            c.stall_cycles[1],
            c.stall_cycles[2],
            c.barrier_cycles,
            c.l1_accesses,
            c.l1_misses[0],
            c.l1_misses[1],
            c.l1_misses[2],
            c.l1_hits,
            c.mem_latency_sum,
            c.mem_latency_count,
            c.walk_stall_cycles,
        ] {
            out.extend_from_slice(&w.to_le_bytes());
        }
    }

    out.extend_from_slice(&(stats.prefetch.len() as u32).to_le_bytes());
    for p in &stats.prefetch {
        for w in [
            p.issued_stream,
            p.issued_indirect,
            p.useful,
            p.unused,
            p.late,
            p.covered,
            p.patterns_detected,
            p.detect_failures,
            p.partial_prefetches,
            p.value_unavailable,
            p.deferred_drops,
            p.deferred_retries,
            p.mshr_drops,
            p.generated_indirect,
        ] {
            out.extend_from_slice(&w.to_le_bytes());
        }
    }

    out.extend_from_slice(&(stats.tlb.len() as u32).to_le_bytes());
    for t in &stats.tlb {
        encode_tlb(t, out);
    }
    out.extend_from_slice(&(stats.tlb_huge.len() as u32).to_le_bytes());
    for t in &stats.tlb_huge {
        encode_tlb(t, out);
    }
    encode_tlb(&stats.tlb_l2, out);

    for w in [
        stats.traffic.noc_flit_hops,
        stats.traffic.noc_messages,
        stats.traffic.dram_read_bytes,
        stats.traffic.dram_write_bytes,
        stats.traffic.dram_accesses,
    ] {
        out.extend_from_slice(&w.to_le_bytes());
    }
}

fn encode_tlb(t: &TlbStats, out: &mut Vec<u8>) {
    for w in [
        t.hits,
        t.misses,
        t.evictions,
        t.cold_fills,
        t.walk_cycles,
        t.walk_levels,
        t.prefetch_hits,
        t.prefetch_drops,
        t.prefetch_walks,
    ] {
        out.extend_from_slice(&w.to_le_bytes());
    }
}

fn decode_stats(r: &mut Reader<'_>) -> Result<SystemStats, StoreError> {
    let runtime = r.u64("runtime")?;

    let n_cores = r.u32("core stats count")? as usize;
    let mut cores = Vec::with_capacity(n_cores.min(r.remaining() / (CORE_WORDS * 8)));
    for _ in 0..n_cores {
        cores.push(CoreStats {
            instructions: r.u64("core stats")?,
            done_cycle: r.u64("core stats")?,
            stall_cycles: [
                r.u64("core stats")?,
                r.u64("core stats")?,
                r.u64("core stats")?,
            ],
            barrier_cycles: r.u64("core stats")?,
            l1_accesses: r.u64("core stats")?,
            l1_misses: [
                r.u64("core stats")?,
                r.u64("core stats")?,
                r.u64("core stats")?,
            ],
            l1_hits: r.u64("core stats")?,
            mem_latency_sum: r.u64("core stats")?,
            mem_latency_count: r.u64("core stats")?,
            walk_stall_cycles: r.u64("core stats")?,
        });
    }

    let n_prefetch = r.u32("prefetch stats count")? as usize;
    let mut prefetch = Vec::with_capacity(n_prefetch.min(r.remaining() / (PREFETCH_WORDS * 8)));
    for _ in 0..n_prefetch {
        prefetch.push(PrefetchStats {
            issued_stream: r.u64("prefetch stats")?,
            issued_indirect: r.u64("prefetch stats")?,
            useful: r.u64("prefetch stats")?,
            unused: r.u64("prefetch stats")?,
            late: r.u64("prefetch stats")?,
            covered: r.u64("prefetch stats")?,
            patterns_detected: r.u64("prefetch stats")?,
            detect_failures: r.u64("prefetch stats")?,
            partial_prefetches: r.u64("prefetch stats")?,
            value_unavailable: r.u64("prefetch stats")?,
            deferred_drops: r.u64("prefetch stats")?,
            deferred_retries: r.u64("prefetch stats")?,
            mshr_drops: r.u64("prefetch stats")?,
            generated_indirect: r.u64("prefetch stats")?,
        });
    }

    let n_tlb = r.u32("tlb stats count")? as usize;
    let mut tlb = Vec::with_capacity(n_tlb.min(r.remaining() / (TLB_WORDS * 8)));
    for _ in 0..n_tlb {
        tlb.push(decode_tlb(r)?);
    }
    let n_huge = r.u32("huge tlb stats count")? as usize;
    let mut tlb_huge = Vec::with_capacity(n_huge.min(r.remaining() / (TLB_WORDS * 8)));
    for _ in 0..n_huge {
        tlb_huge.push(decode_tlb(r)?);
    }
    let tlb_l2 = decode_tlb(r)?;

    let traffic = TrafficStats {
        noc_flit_hops: r.u64("traffic stats")?,
        noc_messages: r.u64("traffic stats")?,
        dram_read_bytes: r.u64("traffic stats")?,
        dram_write_bytes: r.u64("traffic stats")?,
        dram_accesses: r.u64("traffic stats")?,
    };

    Ok(SystemStats {
        runtime,
        cores,
        prefetch,
        tlb,
        tlb_huge,
        tlb_l2,
        traffic,
    })
}

fn decode_tlb(r: &mut Reader<'_>) -> Result<TlbStats, StoreError> {
    Ok(TlbStats {
        hits: r.u64("tlb stats")?,
        misses: r.u64("tlb stats")?,
        evictions: r.u64("tlb stats")?,
        cold_fills: r.u64("tlb stats")?,
        walk_cycles: r.u64("tlb stats")?,
        walk_levels: r.u64("tlb stats")?,
        prefetch_hits: r.u64("tlb stats")?,
        prefetch_drops: r.u64("tlb stats")?,
        prefetch_walks: r.u64("tlb stats")?,
    })
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, section: &'static str, n: usize) -> Result<&'a [u8], StoreError> {
        let available = self.remaining();
        if n > available {
            return Err(StoreError::Truncated {
                section,
                needed: n,
                available,
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn byte(&mut self, section: &'static str) -> Result<u8, StoreError> {
        Ok(self.take(section, 1)?[0])
    }

    fn u32(&mut self, section: &'static str) -> Result<u32, StoreError> {
        Ok(u32::from_le_bytes(
            self.take(section, 4)?.try_into().expect("4 bytes"),
        ))
    }

    fn u64(&mut self, section: &'static str) -> Result<u64, StoreError> {
        Ok(u64::from_le_bytes(
            self.take(section, 8)?.try_into().expect("8 bytes"),
        ))
    }

    fn string(&mut self, section: &'static str) -> Result<String, StoreError> {
        // The length is untrusted until checked against the bytes that
        // remain — `take` does that check before any allocation.
        let len = self.u32(section)? as usize;
        Ok(std::str::from_utf8(self.take(section, len)?)
            .map_err(|_| StoreError::BadUtf8(section))?
            .to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn sample() -> StoredResult {
        let mut stats = SystemStats {
            runtime: 123_456,
            ..SystemStats::default()
        };
        stats.cores.push(CoreStats {
            instructions: 1000,
            done_cycle: 123_456,
            stall_cycles: [10, 20, 30],
            barrier_cycles: 5,
            l1_accesses: 400,
            l1_misses: [1, 2, 3],
            l1_hits: 394,
            mem_latency_sum: 999,
            mem_latency_count: 6,
            walk_stall_cycles: 7,
        });
        stats.prefetch.push(PrefetchStats {
            issued_indirect: 42,
            useful: 40,
            ..PrefetchStats::default()
        });
        stats.tlb.push(TlbStats {
            hits: 100,
            misses: 3,
            ..TlbStats::default()
        });
        stats.traffic = TrafficStats {
            noc_flit_hops: 5000,
            noc_messages: 700,
            dram_read_bytes: 64 * 100,
            dram_write_bytes: 64 * 10,
            dram_accesses: 110,
        };
        StoredResult {
            canonical: "spmv|cores:16|seed:7|...".to_string(),
            cell: CellKey {
                workload: "spmv".to_string(),
                cores: 16,
                prefetcher: PrefetcherSpec::new("imp")
                    .with("pt_size", 64i64)
                    .with("tag", ParamValue::Str("8".to_string()))
                    .with("frac", 0.5f64)
                    .with("on", true),
                manager: Some(PrefetcherSpec::new("throttle").with("floor", 0.4f64)),
                partial: PartialMode::NocAndDram,
                tlb: TlbConfig::finite().with_l2(128, 8),
                page_policy: vec![
                    ("idx".to_string(), PagePolicy::Huge2M),
                    (
                        "val".to_string(),
                        PagePolicy::Auto {
                            threshold_bytes: 1 << 21,
                        },
                    ),
                ],
                seed: 7,
            },
            stats,
        }
    }

    #[test]
    fn byte_roundtrip_is_bit_identical() {
        let rec = sample();
        let bytes = rec.to_bytes();
        let back = StoredResult::from_bytes(&bytes).unwrap();
        assert_eq!(back, rec);
        // Re-serializing the parse is byte-identical too.
        assert_eq!(back.to_bytes(), bytes);
    }

    #[test]
    fn string_params_do_not_collapse_into_ints() {
        let rec = sample();
        let back = StoredResult::from_bytes(&rec.to_bytes()).unwrap();
        assert_eq!(
            back.cell.prefetcher.get("tag"),
            Some(&ParamValue::Str("8".to_string()))
        );
        assert_eq!(
            back.cell.prefetcher.get("pt_size"),
            Some(&ParamValue::Int(64))
        );
    }

    #[test]
    fn unmanaged_cells_roundtrip() {
        let mut rec = sample();
        rec.cell.manager = None;
        let back = StoredResult::from_bytes(&rec.to_bytes()).unwrap();
        assert_eq!(back.cell.manager, None);
        assert_eq!(back, rec);
    }

    #[test]
    fn corruption_is_detected() {
        let bytes = sample().to_bytes();

        let mut bad = bytes.clone();
        bad[bytes.len() / 2] ^= 0xff;
        assert!(matches!(
            StoredResult::from_bytes(&bad),
            Err(StoreError::ChecksumMismatch { .. })
        ));

        assert!(matches!(
            StoredResult::from_bytes(&bytes[..4]),
            Err(StoreError::Truncated { .. })
        ));

        let mut wrong = bytes.clone();
        wrong[0] = b'X';
        restamp(&mut wrong);
        assert!(matches!(
            StoredResult::from_bytes(&wrong),
            Err(StoreError::BadMagic)
        ));
    }

    #[test]
    fn newer_versions_are_rejected() {
        let mut bytes = sample().to_bytes();
        bytes[8..12].copy_from_slice(&99u32.to_le_bytes());
        restamp(&mut bytes);
        assert!(matches!(
            StoredResult::from_bytes(&bytes),
            Err(StoreError::UnsupportedVersion(99))
        ));
    }

    #[test]
    fn absurd_lengths_error_instead_of_allocating() {
        let mut bytes = sample().to_bytes();
        // The canonical length field sits right after magic+version.
        bytes[12..16].copy_from_slice(&u32::MAX.to_le_bytes());
        restamp(&mut bytes);
        assert!(matches!(
            StoredResult::from_bytes(&bytes),
            Err(StoreError::Truncated {
                section: "canonical",
                ..
            })
        ));
    }

    pub(crate) fn restamp(bytes: &mut [u8]) {
        let body_len = bytes.len() - 8;
        let sum = fnv1a(&bytes[..body_len]);
        bytes[body_len..].copy_from_slice(&sum.to_le_bytes());
    }
}
