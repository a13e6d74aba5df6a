//! Property tests for the `.impres` encoding and the cell digest:
//! arbitrary records round-trip bit-exactly, digests are stable, and no
//! single-byte corruption is ever silently accepted.
//!
//! The offline proptest shim generates integers only, so strings are
//! derived from integer draws via `prop_map`.

use imp_common::stats::{CoreStats, PrefetchStats, SystemStats, TlbStats, TrafficStats};
use imp_store::{cell_digest, digest_hex, StoredResult};
use proptest::prelude::*;

/// Lowercase-word string derived from integer draws (the shim has no
/// regex strategies).
fn word(seed: u64, max_len: usize) -> String {
    let mut s = String::new();
    let mut x = seed;
    for _ in 0..(seed as usize % (max_len + 1)) {
        s.push(char::from(b'a' + (x % 26) as u8));
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
    }
    s
}

fn core_from(w: [u64; 14]) -> CoreStats {
    CoreStats {
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
    }
}

fn tlb_stats_from(w: &[u64]) -> TlbStats {
    TlbStats {
        hits: w[0],
        misses: w[1],
        evictions: w[2],
        cold_fills: w[3],
        walk_cycles: w[4],
        walk_levels: w[5],
        prefetch_hits: w[6],
        prefetch_drops: w[7],
        prefetch_walks: w[8],
    }
}

fn words_strategy() -> impl Strategy<Value = [u64; 14]> {
    (
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
    )
        .prop_map(|(a, b, c, d, e, f)| {
            [
                a,
                b,
                c,
                d,
                e,
                f,
                a.wrapping_mul(3),
                b.rotate_left(13),
                c ^ d,
                e.wrapping_add(f),
                a.rotate_right(7),
                d ^ f,
                e.rotate_left(29),
                b.wrapping_sub(c),
            ]
        })
}

fn record_strategy() -> impl Strategy<Value = StoredResult> {
    (
        any::<u64>(),
        proptest::collection::vec(words_strategy(), 0..4),
        (words_strategy(), words_strategy(), any::<u64>()),
    )
        .prop_map(|(canon_seed, core_words, (pw, tw, runtime))| {
            let n = core_words.len();
            let stats = SystemStats {
                runtime,
                cores: core_words.iter().map(|w| core_from(*w)).collect(),
                prefetch: core_words
                    .iter()
                    .map(|w| PrefetchStats {
                        issued_stream: w[0],
                        issued_indirect: w[13],
                        useful: w[5],
                        unused: w[7],
                        late: w[2],
                        covered: w[3],
                        generated_indirect: w[11],
                        ..PrefetchStats::default()
                    })
                    .collect(),
                tlb: core_words.iter().map(|w| tlb_stats_from(&w[..9])).collect(),
                tlb_huge: if n % 2 == 0 {
                    Vec::new()
                } else {
                    core_words
                        .iter()
                        .map(|w| tlb_stats_from(&w[5..14]))
                        .collect()
                },
                tlb_l2: tlb_stats_from(&pw[..9]),
                traffic: TrafficStats {
                    noc_flit_hops: tw[0],
                    noc_messages: tw[1],
                    dram_read_bytes: tw[2],
                    dram_write_bytes: tw[3],
                    dram_accesses: tw[4],
                },
            };
            StoredResult {
                canonical: format!("w{}|{}|{}", n, runtime % 7, word(canon_seed, 24)),
                stats,
            }
        })
}

proptest! {
    /// The digest is a pure function of the canonical string: equal
    /// strings digest equal, and the hex form round-trips the value.
    #[test]
    fn digest_is_stable(seed in any::<u64>()) {
        let canonical = word(seed, 64);
        let d1 = cell_digest(&canonical);
        let d2 = cell_digest(&canonical.clone());
        prop_assert_eq!(d1, d2);
        prop_assert_eq!(digest_hex(d1).len(), 16);
        prop_assert_eq!(u64::from_str_radix(&digest_hex(d1), 16).unwrap(), d1);
    }

    /// Arbitrary records survive encode → decode **bit-identically**,
    /// and re-encoding the decode is byte-stable.
    #[test]
    fn impres_roundtrip(record in record_strategy()) {
        let bytes = record.to_bytes();
        let back = StoredResult::from_bytes(&bytes).unwrap();
        prop_assert_eq!(&back, &record);
        prop_assert_eq!(back.to_bytes(), bytes);
    }

    /// Any single flipped byte is rejected, never silently accepted:
    /// a corrupted store can only ever cause a re-simulation.
    #[test]
    fn impres_detects_any_single_byte_flip(
        record in record_strategy(),
        flip_at in any::<u64>(),
        flip_bits in 1u8..=255,
    ) {
        let bytes = record.to_bytes();
        let mut bad = bytes.clone();
        let i = (flip_at % bytes.len() as u64) as usize;
        bad[i] ^= flip_bits;
        prop_assert!(StoredResult::from_bytes(&bad).is_err(), "flip at byte {} accepted", i);
    }
}
