//! The versioned binary `.impres` container: one sweep cell's result.
//!
//! ## Layout (all integers little-endian)
//!
//! | section | encoding |
//! |---|---|
//! | magic | 8 bytes, `b"IMPRESLT"` |
//! | version | `u32`, currently 3 |
//! | canonical | `u32` length + UTF-8 bytes |
//! | stats | runtime + per-core vectors + L2-TLB + traffic, `u64` words |
//! | checksum | `u64` FNV-1a over everything before it |
//!
//! The framing (magic, version, checksum) and every bounds-checked read
//! come from [`imp_common::codec`]. The canonical string is stored
//! *verbatim* (not just its digest) so a reader can verify the record
//! answers the exact question being asked; [`crate::ResultStore::get`]
//! treats any mismatch as a miss. A record is identified by its
//! canonical alone: the stats come back **bit-identical**, and nothing
//! else is stored.

use imp_common::codec::{self, CodecError, Reader};
use imp_common::stats::{CoreStats, PrefetchStats, SystemStats, TlbStats, TrafficStats};
use std::fmt;
use std::path::Path;

/// File magic: the first eight bytes of every `.impres` file.
pub const MAGIC: [u8; 8] = *b"IMPRESLT";

/// Current format version written by [`StoredResult::to_bytes`].
///
/// Bump this when a code change alters simulated *timing* without
/// changing any config knob — stale results must become unreadable, not
/// silently wrong. The reader accepts this version only; a record of
/// any other version is a store miss, re-simulated and overwritten.
///
/// History: 1 → 2 added the optional adaptive-manager spec to the cell
/// key. 2 → 3 dropped the cell key (workload, cores, seed, specs, TLB,
/// page policies), which no reader used: a record answers by its
/// canonical string alone.
pub const VERSION: u32 = 3;

/// Why a stored result could not be read or written.
#[derive(Debug)]
pub enum StoreError {
    /// Underlying filesystem failure.
    Io(std::io::Error),
    /// The bytes are not a well-formed `.impres` record of this
    /// version.
    Codec(CodecError),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store i/o error: {e}"),
            StoreError::Codec(e) => write!(f, "malformed .impres record: {e}"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            StoreError::Codec(e) => Some(e),
        }
    }
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

impl From<CodecError> for StoreError {
    fn from(e: CodecError) -> Self {
        StoreError::Codec(e)
    }
}

/// One persisted sweep-cell result: the canonical input it answers and
/// the stats it produced.
#[derive(Clone, Debug, PartialEq)]
pub struct StoredResult {
    /// Full canonical input string (the digest preimage).
    pub canonical: String,
    /// The simulation outcome.
    pub stats: SystemStats,
}

impl StoredResult {
    /// Serializes to the `.impres` byte layout.
    pub fn to_bytes(&self) -> Vec<u8> {
        codec::seal(&MAGIC, VERSION, |out| {
            codec::put_str(out, &self.canonical);
            encode_stats(&self.stats, out);
        })
    }

    /// Parses the `.impres` byte layout.
    ///
    /// # Errors
    ///
    /// Any structural defect — wrong magic, other version, truncation,
    /// checksum mismatch, trailing bytes — comes back as
    /// [`StoreError::Codec`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, StoreError> {
        let mut r = codec::open(bytes, &MAGIC, VERSION)?;
        let canonical = r.string("canonical")?;
        let stats = decode_stats(&mut r)?;
        r.finish()?;
        Ok(StoredResult { canonical, stats })
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
    /// contents as [`StoreError::Codec`].
    pub fn load(path: impl AsRef<Path>) -> Result<Self, StoreError> {
        Self::from_bytes(&std::fs::read(path)?)
    }
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

fn decode_stats(r: &mut Reader<'_>) -> Result<SystemStats, CodecError> {
    let runtime = r.u64("runtime")?;

    let n_cores = r.count_u32("core stats count", CORE_WORDS * 8)?;
    let mut cores = Vec::with_capacity(n_cores);
    for _ in 0..n_cores {
        let w = r.u64_array::<CORE_WORDS>("core stats")?;
        cores.push(CoreStats {
            instructions: w[0],
            done_cycle: w[1],
            stall_cycles: [w[2], w[3], w[4]],
            barrier_cycles: w[5],
            l1_accesses: w[6],
            l1_misses: [w[7], w[8], w[9]],
            l1_hits: w[10],
            mem_latency_sum: w[11],
            mem_latency_count: w[12],
            walk_stall_cycles: w[13],
        });
    }

    let n_prefetch = r.count_u32("prefetch stats count", PREFETCH_WORDS * 8)?;
    let mut prefetch = Vec::with_capacity(n_prefetch);
    for _ in 0..n_prefetch {
        let w = r.u64_array::<PREFETCH_WORDS>("prefetch stats")?;
        prefetch.push(PrefetchStats {
            issued_stream: w[0],
            issued_indirect: w[1],
            useful: w[2],
            unused: w[3],
            late: w[4],
            covered: w[5],
            patterns_detected: w[6],
            detect_failures: w[7],
            partial_prefetches: w[8],
            value_unavailable: w[9],
            deferred_drops: w[10],
            deferred_retries: w[11],
            mshr_drops: w[12],
            generated_indirect: w[13],
        });
    }

    let n_tlb = r.count_u32("tlb stats count", TLB_WORDS * 8)?;
    let tlb = (0..n_tlb)
        .map(|_| decode_tlb(r))
        .collect::<Result<_, _>>()?;
    let n_huge = r.count_u32("huge tlb stats count", TLB_WORDS * 8)?;
    let tlb_huge = (0..n_huge)
        .map(|_| decode_tlb(r))
        .collect::<Result<_, _>>()?;
    let tlb_l2 = decode_tlb(r)?;

    let w = r.u64_array::<5>("traffic stats")?;
    let traffic = TrafficStats {
        noc_flit_hops: w[0],
        noc_messages: w[1],
        dram_read_bytes: w[2],
        dram_write_bytes: w[3],
        dram_accesses: w[4],
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

fn decode_tlb(r: &mut Reader<'_>) -> Result<TlbStats, CodecError> {
    let w = r.u64_array::<TLB_WORDS>("tlb stats")?;
    Ok(TlbStats {
        hits: w[0],
        misses: w[1],
        evictions: w[2],
        cold_fills: w[3],
        walk_cycles: w[4],
        walk_levels: w[5],
        prefetch_hits: w[6],
        prefetch_drops: w[7],
        prefetch_walks: w[8],
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> StoredResult {
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
            stats,
        }
    }

    /// The body of a sealed record: what sits between the version and
    /// the checksum trailer.
    fn body(bytes: &[u8]) -> &[u8] {
        &bytes[12..bytes.len() - 8]
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
    fn corruption_is_detected() {
        let bytes = sample().to_bytes();

        let mut bad = bytes.clone();
        bad[bytes.len() / 2] ^= 0xff;
        assert!(matches!(
            StoredResult::from_bytes(&bad),
            Err(StoreError::Codec(CodecError::ChecksumMismatch { .. }))
        ));

        assert!(matches!(
            StoredResult::from_bytes(&bytes[..4]),
            Err(StoreError::Codec(CodecError::Truncated { .. }))
        ));

        let wrong = codec::seal(b"XMPRESLT", VERSION, |out| {
            out.extend_from_slice(body(&bytes))
        });
        assert!(matches!(
            StoredResult::from_bytes(&wrong),
            Err(StoreError::Codec(CodecError::BadMagic))
        ));
    }

    #[test]
    fn newer_versions_are_rejected() {
        let bytes = codec::seal(&MAGIC, 99, |out| {
            out.extend_from_slice(body(&sample().to_bytes()))
        });
        assert!(matches!(
            StoredResult::from_bytes(&bytes),
            Err(StoreError::Codec(CodecError::UnsupportedVersion {
                found: 99,
                supported: VERSION
            }))
        ));
    }

    #[test]
    fn absurd_lengths_error_instead_of_allocating() {
        let mut body = body(&sample().to_bytes()).to_vec();
        // The canonical length field opens the body.
        body[..4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            StoredResult::from_bytes(
                &codec::seal(&MAGIC, VERSION, |out| out.extend_from_slice(&body))
            ),
            Err(StoreError::Codec(CodecError::Truncated {
                section: "canonical",
                ..
            }))
        ));
    }
}
