//! Pins the on-disk bytes of a saved workload artifact and of a
//! functional-memory snapshot by digest.
//!
//! Both layouts are read back by later runs (a `trace:<path>` replay
//! loads what an earlier `BuiltArtifact::save` wrote), so a change to
//! the code that writes or reads them must leave these bytes exactly as
//! they are. The input is one tiny built workload with a fixed core
//! count and seed; its region records are given one of each page-policy
//! tag so every record shape is covered.

use imp::common::fnv1a;
use imp::prelude::*;

/// FNV-1a of the `.imptrace` file `BuiltArtifact::save` writes.
const ARTIFACT_DIGEST: u64 = 0x9b01_8b15_f317_1757;
/// FNV-1a of `FunctionalMemory::snapshot` for the same workload.
const SNAPSHOT_DIGEST: u64 = 0x44ba_4ab6_82e1_8e6c;

fn built() -> imp::workloads::Built {
    let mut params = WorkloadParams::new(4, Scale::Tiny);
    params.seed = 7;
    let mut built = by_name("spmv").unwrap().build(&params);
    assert!(built.regions.len() >= 2, "spmv declares several arrays");
    built.regions[0].policy = PagePolicy::Huge2M;
    built.regions[1].policy = PagePolicy::Auto {
        threshold_bytes: 1 << 20,
    };
    built
}

#[test]
fn artifact_and_snapshot_bytes_are_pinned() {
    let built = built();
    let snapshot = fnv1a(&built.mem.snapshot());

    let path = std::env::temp_dir().join(format!("imp-byte-pin-{}.imptrace", std::process::id()));
    BuiltArtifact::from(built).save(&path).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).ok();
    let artifact = fnv1a(&bytes);

    assert_eq!(
        (artifact, snapshot),
        (ARTIFACT_DIGEST, SNAPSHOT_DIGEST),
        "artifact {artifact:#018x} ({} bytes), snapshot {snapshot:#018x}",
        bytes.len()
    );
}
