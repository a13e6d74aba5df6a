//! The versioned binary `.imptrace` container.
//!
//! A trace file persists a [`Program`] — and an opaque payload section a
//! higher layer may attach (the workload crate stores the functional
//! memory image and the algorithm result there) — so a generated or
//! externally recorded op stream can be replayed without re-running the
//! generator.
//!
//! ## Layout (all integers little-endian)
//!
//! | section | encoding |
//! |---|---|
//! | magic | 8 bytes, `b"IMPTRACE"` |
//! | version | `u32`, currently 1 |
//! | name | `u32` length + UTF-8 bytes |
//! | cores | `u32` |
//! | stream lengths | `u64` per core |
//! | ops | 16 bytes per op, streams concatenated in core order |
//! | payload | `u64` length + bytes |
//! | checksum | `u64` FNV-1a over everything before it |
//!
//! Each op encodes as `addr:u64, pc:u32, kind:u8, size:u8, class:u8,
//! dep:u8` — the same 16 bytes the in-memory [`Op`] occupies. The
//! framing and every bounds-checked read come from
//! [`imp_common::codec`].
//!
//! ```
//! use imp_trace::{file::TraceFile, Op, Program};
//! use imp_common::{Addr, Pc, stats::AccessClass};
//!
//! let mut p = Program::new("demo", 1);
//! p.core_mut(0).push(Op::load(Addr::new(64), 8, Pc::new(1), AccessClass::Indirect));
//! let bytes = TraceFile::new(p).to_bytes();
//! let back = TraceFile::from_bytes(&bytes).unwrap();
//! assert_eq!(back.program.name(), "demo");
//! assert_eq!(back.program.ops(0).len(), 1);
//! ```

use crate::{Op, OpKind, Program};
use imp_common::codec::{self, CodecError, Reader};
use imp_common::stats::AccessClass;
use imp_common::Pc;
use std::fmt;
use std::path::Path;

/// File magic: the first eight bytes of every `.imptrace` file.
pub const MAGIC: [u8; 8] = *b"IMPTRACE";

/// Current format version written by [`TraceFile::save`].
pub const VERSION: u32 = 1;

/// Bytes one op occupies on disk (same as in memory).
pub const OP_BYTES: usize = 16;

/// Why a trace could not be read or written.
#[derive(Debug)]
pub enum TraceError {
    /// Underlying filesystem failure.
    Io(std::io::Error),
    /// The bytes are not a well-formed `.imptrace` file.
    Codec(CodecError),
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Io(e) => write!(f, "trace i/o error: {e}"),
            TraceError::Codec(e) => write!(f, "malformed .imptrace file: {e}"),
        }
    }
}

impl std::error::Error for TraceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceError::Io(e) => Some(e),
            TraceError::Codec(e) => Some(e),
        }
    }
}

impl From<std::io::Error> for TraceError {
    fn from(e: std::io::Error) -> Self {
        TraceError::Io(e)
    }
}

impl From<CodecError> for TraceError {
    fn from(e: CodecError) -> Self {
        TraceError::Codec(e)
    }
}

/// A deserialized (or to-be-serialized) trace: the program plus an
/// opaque payload owned by whatever layer recorded it.
#[derive(Clone, Debug)]
pub struct TraceFile {
    /// The multi-core op streams.
    pub program: Program,
    /// Opaque higher-layer section (e.g. a functional-memory image);
    /// empty when the trace carries only the program.
    pub payload: Vec<u8>,
}

impl TraceFile {
    /// A trace carrying only `program`.
    pub fn new(program: Program) -> Self {
        TraceFile {
            program,
            payload: Vec::new(),
        }
    }

    /// A trace carrying `program` plus a higher-layer `payload`.
    pub fn with_payload(program: Program, payload: Vec<u8>) -> Self {
        TraceFile { program, payload }
    }

    /// Serializes to the `.imptrace` byte layout.
    pub fn to_bytes(&self) -> Vec<u8> {
        let cores = self.program.cores();
        let total_ops: usize = (0..cores).map(|c| self.program.ops(c).len()).sum();
        let name = self.program.name();
        codec::seal(&MAGIC, VERSION, |out| {
            out.reserve(
                8 + name.len() + 8 * cores + OP_BYTES * total_ops + 8 + self.payload.len() + 8,
            );
            codec::put_str(out, name);
            out.extend_from_slice(&(cores as u32).to_le_bytes());
            for c in 0..cores {
                out.extend_from_slice(&(self.program.ops(c).len() as u64).to_le_bytes());
            }
            for c in 0..cores {
                for op in self.program.ops(c) {
                    encode_op(op, out);
                }
            }
            out.extend_from_slice(&(self.payload.len() as u64).to_le_bytes());
            out.extend_from_slice(&self.payload);
        })
    }

    /// Parses the `.imptrace` byte layout.
    ///
    /// # Errors
    ///
    /// Any structural defect — wrong magic, other version, truncation,
    /// invalid op bytes, checksum mismatch — comes back as
    /// [`TraceError::Codec`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, TraceError> {
        let mut r = codec::open(bytes, &MAGIC, VERSION)?;
        let name = r.string("name")?;
        let cores = r.count_u32("stream lengths", 8)?;
        let lens = (0..cores)
            .map(|_| r.u64("stream length"))
            .collect::<Result<Vec<_>, _>>()?;
        let mut program = Program::new(&name, cores);
        for (c, &len) in lens.iter().enumerate() {
            let len = usize::try_from(len).unwrap_or(usize::MAX);
            let ops = r.take("op stream", len.saturating_mul(OP_BYTES))?;
            let stream = program.core_mut(c);
            stream.reserve(len);
            for op in ops.chunks_exact(OP_BYTES) {
                stream.push(decode_op(op)?);
            }
        }
        program.freeze();
        let payload_len = r.u64("payload length")?;
        let payload = r
            .take(
                "payload",
                usize::try_from(payload_len).unwrap_or(usize::MAX),
            )?
            .to_vec();
        r.finish()?;
        Ok(TraceFile { program, payload })
    }

    /// Writes the trace to `path` (conventionally `*.imptrace`).
    ///
    /// # Errors
    ///
    /// Filesystem failures surface as [`TraceError::Io`].
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), TraceError> {
        Ok(std::fs::write(path, self.to_bytes())?)
    }

    /// Reads a trace back from `path`.
    ///
    /// # Errors
    ///
    /// Filesystem failures surface as [`TraceError::Io`]; malformed
    /// contents as [`TraceError::Codec`].
    pub fn load(path: impl AsRef<Path>) -> Result<Self, TraceError> {
        Self::from_bytes(&std::fs::read(path)?)
    }
}

impl Program {
    /// Saves this program (without payload) as an `.imptrace` file.
    ///
    /// # Errors
    ///
    /// See [`TraceFile::save`].
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), TraceError> {
        TraceFile::new(self.clone()).save(path)
    }

    /// Loads a program from an `.imptrace` file, ignoring any payload.
    ///
    /// # Errors
    ///
    /// See [`TraceFile::load`].
    pub fn load(path: impl AsRef<Path>) -> Result<Self, TraceError> {
        Ok(TraceFile::load(path)?.program)
    }
}

fn encode_op(op: &Op, out: &mut Vec<u8>) {
    out.extend_from_slice(&op.addr.to_le_bytes());
    out.extend_from_slice(&op.pc.raw().to_le_bytes());
    out.push(kind_byte(op.kind));
    out.push(op.size);
    out.push(op.class.index() as u8);
    out.push(op.dep);
}

fn decode_op(bytes: &[u8]) -> Result<Op, CodecError> {
    let mut r = Reader::new(bytes);
    Ok(Op {
        addr: r.u64("op address")?,
        pc: Pc::new(r.u32("op pc")?),
        kind: kind_from_byte(r.u8("op kind")?)?,
        size: r.u8("op size")?,
        class: class_from_byte(r.u8("op class")?)?,
        dep: r.u8("op dep")?,
    })
}

fn kind_byte(kind: OpKind) -> u8 {
    match kind {
        OpKind::Compute => 0,
        OpKind::Load => 1,
        OpKind::Store => 2,
        OpKind::SwPrefetch => 3,
        OpKind::Barrier => 4,
    }
}

fn kind_from_byte(value: u8) -> Result<OpKind, CodecError> {
    Ok(match value {
        0 => OpKind::Compute,
        1 => OpKind::Load,
        2 => OpKind::Store,
        3 => OpKind::SwPrefetch,
        4 => OpKind::Barrier,
        _ => {
            return Err(CodecError::BadTag {
                section: "op kind",
                value,
            })
        }
    })
}

fn class_from_byte(value: u8) -> Result<AccessClass, CodecError> {
    AccessClass::ALL
        .get(usize::from(value))
        .copied()
        .ok_or(CodecError::BadTag {
            section: "access class",
            value,
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use imp_common::Addr;

    fn sample() -> Program {
        let mut p = Program::new("sample", 2);
        p.core_mut(0).push(Op::load(
            Addr::new(0x40),
            4,
            Pc::new(1),
            AccessClass::Stream,
        ));
        p.core_mut(0)
            .push(Op::load(Addr::new(0x4000), 8, Pc::new(2), AccessClass::Indirect).with_dep(1));
        p.core_mut(1).push(Op::compute(17));
        p.core_mut(1).push(Op::store(
            Addr::new(0x80),
            8,
            Pc::new(3),
            AccessClass::Other,
        ));
        p.core_mut(1)
            .push(Op::sw_prefetch(Addr::new(0xc0), Pc::new(4)));
        p.barrier();
        p
    }

    #[test]
    fn byte_roundtrip_preserves_everything() {
        let tf = TraceFile::with_payload(sample(), vec![1, 2, 3, 255]);
        let back = TraceFile::from_bytes(&tf.to_bytes()).unwrap();
        assert_eq!(back.program.name(), "sample");
        assert_eq!(back.program.cores(), 2);
        for c in 0..2 {
            assert_eq!(back.program.ops(c), tf.program.ops(c), "core {c}");
        }
        assert_eq!(back.payload, vec![1, 2, 3, 255]);
    }

    #[test]
    fn file_roundtrip_via_program_convenience() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("imptrace-test-{}.imptrace", std::process::id()));
        let p = sample();
        p.save(&path).unwrap();
        let back = Program::load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(back.ops(0), p.ops(0));
        assert_eq!(back.validate_barriers(), p.validate_barriers());
    }

    /// The body of a sealed file: what sits between the version and
    /// the checksum trailer.
    fn body(bytes: &[u8]) -> &[u8] {
        &bytes[12..bytes.len() - 8]
    }

    #[test]
    fn corruption_is_detected() {
        let bytes = TraceFile::new(sample()).to_bytes();

        // Flip a byte in the middle: checksum catches it.
        let mut bad = bytes.clone();
        bad[bytes.len() / 2] ^= 0xff;
        assert!(matches!(
            TraceFile::from_bytes(&bad),
            Err(TraceError::Codec(CodecError::ChecksumMismatch { .. }))
        ));

        // Truncation before the trailer.
        assert!(matches!(
            TraceFile::from_bytes(&bytes[..4]),
            Err(TraceError::Codec(CodecError::Truncated { .. }))
        ));

        // Wrong magic under a valid checksum.
        let wrong = codec::seal(b"XMPTRACE", VERSION, |out| {
            out.extend_from_slice(body(&bytes))
        });
        assert!(matches!(
            TraceFile::from_bytes(&wrong),
            Err(TraceError::Codec(CodecError::BadMagic))
        ));
    }

    #[test]
    fn absurd_stream_lengths_error_instead_of_allocating() {
        let mut p = Program::new("k", 1);
        p.core_mut(0).push(Op::compute(1));
        let mut body = body(&TraceFile::new(p).to_bytes()).to_vec();
        // The single stream-length field sits after name(4+1)+cores(4);
        // forge it huge under a valid checksum so only the length check
        // can reject it.
        let len_at = 4 + 1 + 4;
        body[len_at..len_at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(
            TraceFile::from_bytes(&codec::seal(&MAGIC, VERSION, |out| out.extend_from_slice(&body))),
            Err(TraceError::Codec(CodecError::Truncated {
                section: "op stream",
                ..
            }))
        ));
    }

    #[test]
    fn newer_versions_are_rejected() {
        let bytes = TraceFile::new(sample()).to_bytes();
        assert!(matches!(
            TraceFile::from_bytes(
                &codec::seal(&MAGIC, 99, |out| out.extend_from_slice(body(&bytes)))
            ),
            Err(TraceError::Codec(CodecError::UnsupportedVersion {
                found: 99,
                supported: VERSION
            }))
        ));
    }

    #[test]
    fn bad_op_bytes_are_typed_errors() {
        let mut p = Program::new("k", 1);
        p.core_mut(0).push(Op::compute(1));
        let mut body = body(&TraceFile::new(p).to_bytes()).to_vec();
        // The op's kind byte sits 12 bytes into the op record; the op
        // record starts after name(4+1)+cores(4)+len(8).
        let op_start = 4 + 1 + 4 + 8;
        body[op_start + 12] = 200;
        assert!(matches!(
            TraceFile::from_bytes(&codec::seal(&MAGIC, VERSION, |out| out.extend_from_slice(&body))),
            Err(TraceError::Codec(CodecError::BadTag {
                section: "op kind",
                value: 200
            }))
        ));
    }
}
