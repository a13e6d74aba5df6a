//! Hostile input for every decoder built on the shared byte codec
//! (`imp_common::codec`): `.imptrace` traces, `.impres` records,
//! functional-memory snapshots and the artifact region records.
//!
//! A flipped byte is caught by the checksum before any structural
//! decoding runs, so these inputs are sealed with a *valid* checksum:
//! arbitrary bodies, patched copies of valid bodies, every truncation of
//! a valid body, and every field overwritten with `u32::MAX` or
//! `u64::MAX` (which covers each count). Every case must come back as
//! `Ok` or a typed `Err`. None may panic, and none may allocate for a
//! count the input merely claims: a tracking allocator bounds the
//! largest single allocation of each decode by the input's size.

use imp::common::codec;
use imp::common::stats::{CoreStats, PrefetchStats, TlbStats};
use imp::prelude::*;
use imp::workloads::Built;
use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::OnceLock;

/// Forwards to the system allocator, recording per thread the largest
/// single request.
struct Tracking;

thread_local! {
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    // The slot is gone while a thread tears down; skip those requests.
    let _ = LARGEST.try_with(|l| l.set(l.get().max(size)));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; `note` only updates a
// const-initialized thread-local and never allocates.
unsafe impl GlobalAlloc for Tracking {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: Tracking = Tracking;

/// One of the four formats: how to decode it, and a valid input.
#[derive(Clone, Copy, Debug)]
enum Format {
    Trace,
    Impres,
    Snapshot,
    /// The `.imptrace` payload of a saved artifact: result, region
    /// records, memory image.
    ArtifactPayload,
}

const FORMATS: [Format; 4] = [
    Format::Trace,
    Format::Impres,
    Format::Snapshot,
    Format::ArtifactPayload,
];

fn program() -> Program {
    let mut p = Program::new("hostile", 2);
    p.core_mut(0).push(Op::load(
        Addr::new(0x40),
        8,
        Pc::new(1),
        AccessClass::Stream,
    ));
    p.core_mut(1).push(Op::compute(3));
    p.barrier();
    p
}

fn memory() -> FunctionalMemory {
    let mut mem = FunctionalMemory::new();
    mem.write_u64(Addr::new(0x1000), 7);
    mem.write_u64(Addr::new(0x9_0000), 9);
    mem
}

/// The payload of a saved artifact with one region of each page-policy
/// tag; written to disk once per process.
static ARTIFACT_PAYLOAD: OnceLock<Vec<u8>> = OnceLock::new();

fn artifact_payload() -> Vec<u8> {
    let regions = [
        PagePolicy::Base4K,
        PagePolicy::Huge2M,
        PagePolicy::Auto {
            threshold_bytes: 1 << 20,
        },
    ]
    .into_iter()
    .enumerate()
    .map(|(i, policy)| MemRegion {
        name: format!("r{i}"),
        base: 0x1000 << i,
        bytes: 4096,
        policy,
    })
    .collect();
    let artifact = BuiltArtifact::from(Built {
        program: program(),
        mem: memory(),
        result: 1.5,
        regions,
    });
    let path = std::env::temp_dir().join(format!("imp-hostile-{}.imptrace", std::process::id()));
    artifact.save(&path).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).ok();
    TraceFile::from_bytes(&bytes).unwrap().payload
}

impl Format {
    /// A valid input: the sealed body for the sealed formats, the raw
    /// bytes otherwise.
    fn valid(self) -> Vec<u8> {
        match self {
            Format::Trace => {
                let sealed = TraceFile::with_payload(program(), vec![1, 2, 3]).to_bytes();
                sealed[12..sealed.len() - 8].to_vec()
            }
            Format::Impres => {
                let stats = SystemStats {
                    runtime: 99,
                    cores: vec![CoreStats::default(); 2],
                    prefetch: vec![PrefetchStats::default(); 2],
                    tlb: vec![TlbStats::default(); 2],
                    tlb_huge: vec![TlbStats::default()],
                    ..SystemStats::default()
                };
                let record = StoredResult {
                    canonical: "w:spmv;seed:1".to_string(),
                    stats,
                };
                let sealed = record.to_bytes();
                sealed[12..sealed.len() - 8].to_vec()
            }
            Format::Snapshot => memory().snapshot(),
            Format::ArtifactPayload => ARTIFACT_PAYLOAD.get_or_init(artifact_payload).clone(),
        }
    }

    /// Decodes `body` (sealed first for the sealed formats), asserting
    /// the decode makes no allocation out of proportion to its input.
    /// Returns whether it decoded.
    fn decode(self, body: &[u8]) -> bool {
        let input = match self {
            Format::Trace => codec::seal(&imp::trace::file::MAGIC, 1, |out| {
                out.extend_from_slice(body)
            }),
            Format::Impres => codec::seal(&imp::store::MAGIC, imp::store::VERSION, |out| {
                out.extend_from_slice(body)
            }),
            Format::Snapshot => body.to_vec(),
            Format::ArtifactPayload => TraceFile::with_payload(program(), body.to_vec()).to_bytes(),
        };
        LARGEST.with(|l| l.set(0));
        let ok = match self {
            Format::Trace => TraceFile::from_bytes(&input).is_ok(),
            Format::Impres => StoredResult::from_bytes(&input).is_ok(),
            Format::Snapshot => FunctionalMemory::restore(&input).is_ok(),
            Format::ArtifactPayload => BuiltArtifact::from_bytes(&input).is_ok(),
        };
        let largest = LARGEST.with(Cell::get);
        assert!(
            largest <= 8 * input.len() + (64 << 10),
            "{self:?}: a {}-byte input made a {largest}-byte allocation",
            input.len()
        );
        ok
    }
}

#[test]
fn valid_inputs_decode() {
    for format in FORMATS {
        assert!(format.decode(&format.valid()), "{format:?}");
    }
}

#[test]
fn every_truncation_is_an_error() {
    for format in FORMATS {
        let valid = format.valid();
        // An empty artifact payload is a program-only trace, which is
        // valid; every other cut leaves a section incomplete.
        let from = usize::from(matches!(format, Format::ArtifactPayload));
        for cut in from..valid.len() {
            assert!(!format.decode(&valid[..cut]), "{format:?} cut at {cut}");
        }
    }
}

#[test]
fn maximal_fields_never_panic_or_allocate_for_their_claim() {
    for format in FORMATS {
        let valid = format.valid();
        for at in 0..valid.len() {
            for max in [&u32::MAX.to_le_bytes()[..], &u64::MAX.to_le_bytes()[..]] {
                let end = (at + max.len()).min(valid.len());
                let mut forged = valid.clone();
                forged[at..end].copy_from_slice(&max[..end - at]);
                format.decode(&forged);
            }
        }
    }
}

#[test]
fn maximal_counts_are_errors() {
    let name = 4 + "hostile".len();
    let canonical = 4 + "w:spmv;seed:1".len();
    // (format, offset of a count field in its valid body, field width)
    let counts = [
        (Format::Trace, name, 4),                      // core count
        (Format::Trace, name + 4, 8),                  // first stream length
        (Format::Trace, name + 4 + 2 * 8 + 4 * 16, 8), // payload length
        (Format::Impres, 0, 4),                        // canonical length
        (Format::Impres, canonical + 8, 4),            // core stats count
        (Format::Snapshot, 0, 8),                      // page count
        (Format::ArtifactPayload, 8 + 8, 4),           // region count
    ];
    for (format, at, width) in counts {
        let mut forged = format.valid();
        forged[at..at + width].fill(0xff);
        assert!(!format.decode(&forged), "{format:?} count at {at}");
    }
}

proptest! {
    /// Arbitrary bodies under a valid checksum decode or error.
    #[test]
    fn arbitrary_sealed_bodies_decode_or_error(
        body in proptest::collection::vec(any::<u8>(), 0..512),
    ) {
        for format in FORMATS {
            format.decode(&body);
        }
    }

    /// A valid body with a window overwritten by arbitrary bytes
    /// decodes or errors: the decoders get past the framing and the
    /// first counts before they meet the damage.
    #[test]
    fn patched_valid_bodies_decode_or_error(
        at in any::<u64>(),
        patch in proptest::collection::vec(any::<u8>(), 1..24),
    ) {
        for format in FORMATS {
            let mut body = format.valid();
            let at = (at % body.len() as u64) as usize;
            let end = (at + patch.len()).min(body.len());
            body[at..end].copy_from_slice(&patch[..end - at]);
            format.decode(&body);
        }
    }
}
