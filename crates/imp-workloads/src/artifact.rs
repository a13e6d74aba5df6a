//! Shareable, serializable workload artifacts: record a generated
//! workload once, replay it everywhere.
//!
//! A [`BuiltArtifact`] wraps a [`Built`] in an `Arc` so one generated
//! workload (op streams + functional-memory image + algorithm result)
//! can back any number of simulator configurations without re-running
//! the generator — the build-once path `Sweep` uses, and the unit a
//! `.imptrace` file persists.
//!
//! On disk the artifact is a standard `imp_trace::file` container whose
//! payload section carries the algorithm result (8 bytes, `f64` LE),
//! the region/placement records (region count, then per region: name,
//! extent and declared [`PagePolicy`]), and finally the
//! [`FunctionalMemory::snapshot`] image — so a saved trace replays with
//! the genuine index-array contents IMP reads *and* the page placement
//! the generator declared.
//!
//! ```no_run
//! use imp_workloads::{by_name, BuiltArtifact, Scale, WorkloadParams};
//!
//! let params = WorkloadParams::new(16, Scale::Tiny);
//! let built = by_name("spmv").unwrap().build(&params);
//! let artifact = BuiltArtifact::from(built);
//! artifact.save("spmv.imptrace").unwrap();
//!
//! // Later (any process): replay through the registry.
//! let replayed = by_name("trace:spmv.imptrace").unwrap();
//! let again = replayed.try_build(&params).unwrap();
//! assert_eq!(again.result, artifact.result());
//! ```

use crate::{Built, Workload, WorkloadParams};
use imp_common::codec::{self, CodecError, Reader};
use imp_common::{MemRegion, PagePolicy};
use imp_mem::{FunctionalMemory, SnapshotError};
use imp_trace::{Program, TraceError, TraceFile};
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// An immutable, cheaply cloneable handle to one generated workload.
///
/// Cloning bumps one reference count; the program streams and memory
/// pages inside are themselves `Arc`-backed, so feeding the artifact to
/// a simulator (`program().clone()` + `mem().clone()`) copies nothing.
#[derive(Clone, Debug)]
pub struct BuiltArtifact {
    inner: Arc<Built>,
}

impl From<Built> for BuiltArtifact {
    fn from(mut built: Built) -> Self {
        built.program.freeze();
        BuiltArtifact {
            inner: Arc::new(built),
        }
    }
}

impl BuiltArtifact {
    /// The multicore op streams (frozen; clones share them).
    pub fn program(&self) -> &Program {
        &self.inner.program
    }

    /// The functional-memory image (copy-on-write; clones share pages).
    pub fn mem(&self) -> &FunctionalMemory {
        &self.inner.mem
    }

    /// The algorithm's functional result (see [`Built::result`]).
    pub fn result(&self) -> f64 {
        self.inner.result
    }

    /// The generator's region/placement records (see
    /// [`Built::regions`]); empty for program-only traces.
    pub fn regions(&self) -> &[MemRegion] {
        &self.inner.regions
    }

    /// Materializes an owned [`Built`] sharing this artifact's storage.
    pub fn to_built(&self) -> Built {
        Built {
            program: self.inner.program.clone(),
            mem: self.inner.mem.clone(),
            result: self.inner.result,
            regions: self.inner.regions.clone(),
        }
    }

    /// Writes the artifact as an `.imptrace` file: program streams plus
    /// a payload carrying the result, the region/placement records and
    /// the memory image.
    ///
    /// # Errors
    ///
    /// Filesystem failures surface as
    /// [`ArtifactError::Trace`]`(`[`TraceError::Io`]`)`.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), ArtifactError> {
        let mut payload = self.inner.result.to_le_bytes().to_vec();
        encode_regions(&self.inner.regions, &mut payload);
        payload.extend_from_slice(&self.inner.mem.snapshot());
        TraceFile::with_payload(self.inner.program.clone(), payload).save(path)?;
        Ok(())
    }

    /// Reads an artifact back from an `.imptrace` file.
    ///
    /// A program-only trace (empty payload — what `Program::save` and
    /// external recorders produce) loads with an empty memory image, no
    /// regions and a `NaN` result: the op streams replay, IMP's
    /// speculative index reads see zeroes, every address translates at
    /// the base page size, and no algorithm result is claimed.
    ///
    /// # Errors
    ///
    /// See [`BuiltArtifact::from_bytes`]; filesystem failures surface
    /// as [`ArtifactError::Trace`]`(`[`TraceError::Io`]`)`.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, ArtifactError> {
        Self::from_bytes(&std::fs::read(path).map_err(TraceError::Io)?)
    }

    /// Parses the bytes [`BuiltArtifact::save`] writes (see
    /// [`BuiltArtifact::load`] for program-only traces).
    ///
    /// # Errors
    ///
    /// Malformed containers surface as [`ArtifactError::Trace`]; a
    /// well-formed container whose non-empty payload is not an artifact
    /// payload (too short, missing or corrupt region records, or a
    /// corrupt memory image) as the other variants.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, ArtifactError> {
        let tf = TraceFile::from_bytes(bytes)?;
        let (result, regions, mem) = if tf.payload.is_empty() {
            (f64::NAN, Vec::new(), FunctionalMemory::new())
        } else {
            let mut r = Reader::new(&tf.payload);
            let result = r
                .array("result")
                .map(f64::from_le_bytes)
                .map_err(|_| ArtifactError::ShortPayload(tf.payload.len()))?;
            let regions = decode_regions(&mut r).map_err(ArtifactError::MalformedRegions)?;
            (result, regions, FunctionalMemory::restore(r.rest())?)
        };
        Ok(BuiltArtifact::from(Built {
            program: tf.program,
            mem,
            result,
            regions,
        }))
    }
}

/// Marks the region-records section of the artifact payload.
const REGIONS_MAGIC: [u8; 8] = *b"IMPREGN1";

/// Bytes the smallest region record takes: empty name (4), base (8),
/// extent (8), policy tag (1) and policy argument (8).
const MIN_REGION_BYTES: usize = 29;

/// Serializes the region/placement records: the [`REGIONS_MAGIC`]
/// marker, a `u32` count, then per region a length-prefixed UTF-8
/// name, `u64` base, `u64` bytes, a policy tag byte (0 = `Base4K`,
/// 1 = `Huge2M`, 2 = `Auto`) and the `u64` policy argument (the
/// `Auto` threshold; 0 otherwise).
fn encode_regions(regions: &[MemRegion], out: &mut Vec<u8>) {
    out.extend_from_slice(&REGIONS_MAGIC);
    out.extend_from_slice(&(regions.len() as u32).to_le_bytes());
    for r in regions {
        codec::put_str(out, &r.name);
        out.extend_from_slice(&r.base.to_le_bytes());
        out.extend_from_slice(&r.bytes.to_le_bytes());
        let (tag, arg) = match r.policy {
            PagePolicy::Base4K => (0u8, 0u64),
            PagePolicy::Huge2M => (1, 0),
            PagePolicy::Auto { threshold_bytes } => (2, threshold_bytes),
        };
        out.push(tag);
        out.extend_from_slice(&arg.to_le_bytes());
    }
}

/// Reads the region records written by [`encode_regions`], leaving `r`
/// at the memory image that follows them.
fn decode_regions(r: &mut Reader<'_>) -> Result<Vec<MemRegion>, CodecError> {
    r.magic(&REGIONS_MAGIC)?;
    let count = r.count_u32("region count", MIN_REGION_BYTES)?;
    (0..count)
        .map(|_| {
            let name = r.string("region name")?;
            let base = r.u64("region base")?;
            let bytes = r.u64("region extent")?;
            let tag = r.u8("page policy")?;
            let arg = r.u64("page policy argument")?;
            let policy = match tag {
                0 => PagePolicy::Base4K,
                1 => PagePolicy::Huge2M,
                2 => PagePolicy::Auto {
                    threshold_bytes: arg,
                },
                value => {
                    return Err(CodecError::BadTag {
                        section: "page policy",
                        value,
                    })
                }
            };
            Ok(MemRegion {
                name,
                base,
                bytes,
                policy,
            })
        })
        .collect()
}

/// Why an artifact could not be saved or loaded.
#[derive(Debug)]
pub enum ArtifactError {
    /// The `.imptrace` container itself failed (I/O, corruption, ...).
    Trace(TraceError),
    /// The container's payload ends before the 8-byte result field.
    ShortPayload(usize),
    /// The region/placement records inside the payload are missing or
    /// malformed.
    MalformedRegions(CodecError),
    /// The memory image inside the payload is malformed.
    Memory(SnapshotError),
}

impl fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArtifactError::Trace(e) => write!(f, "{e}"),
            ArtifactError::ShortPayload(n) => write!(
                f,
                "artifact payload is {n} bytes; needs at least the 8-byte result"
            ),
            ArtifactError::MalformedRegions(e) => {
                write!(f, "malformed artifact region records: {e}")
            }
            ArtifactError::Memory(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ArtifactError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ArtifactError::Trace(e) => Some(e),
            ArtifactError::MalformedRegions(e) => Some(e),
            ArtifactError::Memory(e) => Some(e),
            ArtifactError::ShortPayload(_) => None,
        }
    }
}

impl From<TraceError> for ArtifactError {
    fn from(e: TraceError) -> Self {
        ArtifactError::Trace(e)
    }
}

impl From<SnapshotError> for ArtifactError {
    fn from(e: SnapshotError) -> Self {
        ArtifactError::Memory(e)
    }
}

/// Why a workload generator could not produce a [`Built`].
///
/// The stock generators are infallible; replaying a recorded trace is
/// not (the file may be missing, corrupt, or recorded for a different
/// core count).
#[derive(Debug)]
pub enum WorkloadError {
    /// The `.imptrace` artifact could not be loaded.
    Artifact(ArtifactError),
    /// The trace was recorded for a different core count than requested.
    CoreCountMismatch {
        /// Cores the trace was recorded with.
        trace: usize,
        /// Cores the caller asked for.
        requested: usize,
    },
}

impl fmt::Display for WorkloadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorkloadError::Artifact(e) => write!(f, "{e}"),
            WorkloadError::CoreCountMismatch { trace, requested } => write!(
                f,
                "trace was recorded for {trace} cores but {requested} were requested"
            ),
        }
    }
}

impl std::error::Error for WorkloadError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WorkloadError::Artifact(e) => Some(e),
            WorkloadError::CoreCountMismatch { .. } => None,
        }
    }
}

impl From<ArtifactError> for WorkloadError {
    fn from(e: ArtifactError) -> Self {
        WorkloadError::Artifact(e)
    }
}

/// The `trace:<path>` pseudo-workload: replays a recorded `.imptrace`
/// artifact instead of running a generator.
///
/// Scale, seed and software-prefetch parameters are properties of the
/// recording and are ignored at replay; the requested core count must
/// match the recording.
#[derive(Clone, Debug)]
pub struct TraceWorkload {
    path: PathBuf,
}

impl TraceWorkload {
    /// A replayer for the artifact at `path`.
    pub fn new(path: impl Into<PathBuf>) -> Self {
        TraceWorkload { path: path.into() }
    }

    /// The file this workload replays.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Workload for TraceWorkload {
    fn name(&self) -> &'static str {
        "trace"
    }

    /// # Panics
    ///
    /// Panics when the artifact cannot be loaded or does not match the
    /// requested core count; use [`Workload::try_build`] for the
    /// fallible form.
    fn build(&self, params: &WorkloadParams) -> Built {
        self.try_build(params).unwrap_or_else(|e| panic!("{e}"))
    }

    fn try_build(&self, params: &WorkloadParams) -> Result<Built, WorkloadError> {
        let artifact = BuiltArtifact::load(&self.path)?;
        if artifact.program().cores() != params.cores {
            return Err(WorkloadError::CoreCountMismatch {
                trace: artifact.program().cores(),
                requested: params.cores,
            });
        }
        Ok(artifact.to_built())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{by_name, Scale};

    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "imp-artifact-{tag}-{}.imptrace",
            std::process::id()
        ))
    }

    #[test]
    fn artifact_roundtrips_program_memory_and_result() {
        let params = WorkloadParams::new(4, Scale::Tiny);
        let built = by_name("spmv").unwrap().build(&params);
        let reference = by_name("spmv").unwrap().build(&params);
        let artifact = BuiltArtifact::from(built);

        let path = temp_path("roundtrip");
        artifact.save(&path).unwrap();
        let loaded = BuiltArtifact::load(&path).unwrap();
        std::fs::remove_file(&path).ok();

        assert_eq!(loaded.result(), reference.result);
        assert_eq!(loaded.program().cores(), 4);
        assert_eq!(loaded.mem().mapped_pages(), reference.mem.mapped_pages());
        assert_eq!(
            loaded.regions(),
            &reference.regions[..],
            "placement records replay"
        );
        assert!(
            loaded.regions().iter().any(|r| r.name == "x"),
            "spmv declares its target vector"
        );
        for c in 0..4 {
            assert_eq!(
                loaded.program().ops(c),
                reference.program.ops(c),
                "core {c}"
            );
        }
    }

    #[test]
    fn trace_workload_replays_through_the_registry() {
        let params = WorkloadParams::new(4, Scale::Tiny);
        let artifact = BuiltArtifact::from(by_name("sgd").unwrap().build(&params));
        let path = temp_path("registry");
        artifact.save(&path).unwrap();

        let name = format!("trace:{}", path.display());
        let replayed = by_name(&name).expect("trace: names resolve");
        let built = replayed.try_build(&params).unwrap();
        assert_eq!(built.result, artifact.result());
        assert_eq!(
            built.program.total_instructions(),
            artifact.program().total_instructions()
        );

        // Wrong core count is a typed error, not a deadlocked sim.
        let wrong = WorkloadParams::new(16, Scale::Tiny);
        assert!(matches!(
            replayed.try_build(&wrong),
            Err(WorkloadError::CoreCountMismatch {
                trace: 4,
                requested: 16
            })
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn program_only_traces_replay_with_empty_memory() {
        // External recorders (and `Program::save`) write the container
        // with no payload; that must still replay.
        let params = WorkloadParams::new(2, Scale::Tiny);
        let built = by_name("spmv").unwrap().build(&params);
        let path = temp_path("program-only");
        built.program.save(&path).unwrap();

        let loaded = BuiltArtifact::load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert!(loaded.result().is_nan(), "no result was recorded");
        assert_eq!(loaded.mem().mapped_pages(), 0, "no memory was recorded");
        assert_eq!(loaded.program().ops(0), built.program.ops(0));

        // And through the registry name, with matching cores.
        let path2 = temp_path("program-only-2");
        built.program.save(&path2).unwrap();
        let replayed = by_name(&format!("trace:{}", path2.display())).unwrap();
        let again = replayed.try_build(&params).unwrap();
        std::fs::remove_file(&path2).ok();
        assert_eq!(
            again.program.total_instructions(),
            built.program.total_instructions()
        );
    }

    #[test]
    fn region_records_roundtrip_and_reject_corruption() {
        let regions = vec![
            MemRegion {
                name: "idx".into(),
                base: 0x1_0000,
                bytes: 4096,
                policy: PagePolicy::Base4K,
            },
            MemRegion {
                name: "target".into(),
                base: 0x9_0000,
                bytes: 1 << 22,
                policy: PagePolicy::Huge2M,
            },
            MemRegion {
                name: "auto".into(),
                base: 0x100_0000,
                bytes: 123,
                policy: PagePolicy::Auto {
                    threshold_bytes: 1 << 20,
                },
            },
        ];
        let mut bytes = Vec::new();
        encode_regions(&regions, &mut bytes);
        bytes.extend_from_slice(b"tail");
        let mut r = Reader::new(&bytes);
        assert_eq!(decode_regions(&mut r).unwrap(), regions);
        assert_eq!(r.rest(), b"tail");

        // Truncation, a missing marker and a bad policy tag are typed
        // errors.
        assert!(matches!(
            decode_regions(&mut Reader::new(&bytes[..10])),
            Err(CodecError::Truncated { .. })
        ));
        assert_eq!(
            decode_regions(&mut Reader::new(&FunctionalMemory::new().snapshot())),
            Err(CodecError::BadMagic)
        );
        let mut bad_tag = Vec::new();
        encode_regions(&regions[..1], &mut bad_tag);
        let tag_at = bad_tag.len() - 9;
        bad_tag[tag_at] = 99;
        assert_eq!(
            decode_regions(&mut Reader::new(&bad_tag)),
            Err(CodecError::BadTag {
                section: "page policy",
                value: 99
            })
        );
    }

    #[test]
    fn payloads_without_region_records_are_typed_errors() {
        // The result field followed directly by the memory image, with
        // no region section, is not an artifact payload.
        let params = WorkloadParams::new(2, Scale::Tiny);
        let built = by_name("spmv").unwrap().build(&params);
        let mut payload = built.result.to_le_bytes().to_vec();
        payload.extend_from_slice(&built.mem.snapshot());
        let bytes = TraceFile::with_payload(built.program, payload).to_bytes();
        assert!(matches!(
            BuiltArtifact::from_bytes(&bytes),
            Err(ArtifactError::MalformedRegions(CodecError::BadMagic))
        ));
    }

    #[test]
    fn missing_trace_file_is_a_typed_error() {
        let replayed = by_name("trace:/no/such/file.imptrace").unwrap();
        let params = WorkloadParams::new(4, Scale::Tiny);
        assert!(matches!(
            replayed.try_build(&params),
            Err(WorkloadError::Artifact(ArtifactError::Trace(
                TraceError::Io(_)
            )))
        ));
    }
}
