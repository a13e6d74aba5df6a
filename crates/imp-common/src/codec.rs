//! The byte codec every on-disk format shares: `.imptrace` traces,
//! `.impres` result records, functional-memory snapshots and artifact
//! region records.
//!
//! A *sealed* container is `magic (8 bytes) | version (u32) | body |
//! checksum (u64 FNV-1a over everything before it)`, all integers
//! little-endian. [`seal`] writes that framing around a body and
//! [`open`] checks it, handing back a [`Reader`] over the body. The
//! reader is the one bounds-checked decoder: every field comes back as
//! a typed [`CodecError`] when the bytes run out, and counts read from
//! the input are checked against the bytes that remain before anything
//! is allocated for them — a hostile file errors, it never panics or
//! aborts on a huge allocation.
//!
//! ```
//! use imp_common::codec::{self, CodecError};
//!
//! let bytes = codec::seal(b"EXAMPLE1", 1, |out| {
//!     codec::put_str(out, "spmv");
//!     out.extend_from_slice(&7u64.to_le_bytes());
//! });
//!
//! let mut r = codec::open(&bytes, b"EXAMPLE1", 1).unwrap();
//! assert_eq!(r.string("name").unwrap(), "spmv");
//! assert_eq!(r.u64("seed").unwrap(), 7);
//! r.finish().unwrap();
//!
//! assert_eq!(
//!     codec::open(&bytes, b"EXAMPLE1", 2).err(),
//!     Some(CodecError::UnsupportedVersion { found: 1, supported: 2 })
//! );
//! ```

use crate::fnv1a;
use std::fmt;

/// Why bytes could not be decoded. The formats that use this codec wrap
/// it in their own error type, which names the format.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CodecError {
    /// The input ended before a section was complete.
    Truncated {
        /// Which section was being read.
        section: &'static str,
        /// Bytes the section needed.
        needed: usize,
        /// Bytes that were left.
        available: usize,
    },
    /// The input does not start with the format's magic.
    BadMagic,
    /// The input's version is not the one this reader understands.
    UnsupportedVersion {
        /// Version recorded in the input.
        found: u32,
        /// Version this reader supports.
        supported: u32,
    },
    /// The stored checksum does not match the contents.
    ChecksumMismatch {
        /// Checksum recorded in the input.
        stored: u64,
        /// Checksum of the bytes actually read.
        computed: u64,
    },
    /// Bytes remain after the last section.
    TrailingBytes(usize),
    /// A string section is not valid UTF-8.
    BadUtf8(&'static str),
    /// A tag byte is out of range.
    BadTag {
        /// Which section held the byte.
        section: &'static str,
        /// The offending value.
        value: u8,
    },
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated {
                section,
                needed,
                available,
            } => write!(
                f,
                "truncated: {section} needs {needed} bytes, {available} left"
            ),
            CodecError::BadMagic => write!(f, "bad magic"),
            CodecError::UnsupportedVersion { found, supported } => write!(
                f,
                "unsupported version {found} (reader supports {supported})"
            ),
            CodecError::ChecksumMismatch { stored, computed } => write!(
                f,
                "checksum mismatch: file says {stored:#018x}, contents hash to {computed:#018x}"
            ),
            CodecError::TrailingBytes(n) => {
                write!(f, "{n} unexpected bytes after the last section")
            }
            CodecError::BadUtf8(section) => write!(f, "{section} is not valid UTF-8"),
            CodecError::BadTag { section, value } => {
                write!(f, "unknown {section} tag byte {value:#x}")
            }
        }
    }
}

impl std::error::Error for CodecError {}

/// Writes a sealed container: `magic | version | body | checksum`, with
/// the body written by `body` straight into the output.
pub fn seal(magic: &[u8; 8], version: u32, body: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    let mut out = magic.to_vec();
    out.extend_from_slice(&version.to_le_bytes());
    body(&mut out);
    let checksum = fnv1a(&out);
    out.extend_from_slice(&checksum.to_le_bytes());
    out
}

/// Checks a sealed container's checksum, magic and version, in that
/// order, and returns a reader over its body.
///
/// # Errors
///
/// [`CodecError::ChecksumMismatch`], [`CodecError::BadMagic`] or
/// [`CodecError::UnsupportedVersion`]; [`CodecError::Truncated`] when
/// the input is too short to hold the framing.
pub fn open<'a>(bytes: &'a [u8], magic: &[u8; 8], version: u32) -> Result<Reader<'a>, CodecError> {
    let Some(body_len) = bytes.len().checked_sub(8) else {
        return Err(CodecError::Truncated {
            section: "checksum trailer",
            needed: 8,
            available: bytes.len(),
        });
    };
    let (body, trailer) = bytes.split_at(body_len);
    let stored = u64::from_le_bytes(trailer.try_into().expect("split leaves 8 bytes"));
    let computed = fnv1a(body);
    if stored != computed {
        return Err(CodecError::ChecksumMismatch { stored, computed });
    }
    let mut r = Reader::new(body);
    r.magic(magic)?;
    let found = r.u32("version")?;
    if found != version {
        return Err(CodecError::UnsupportedVersion {
            found,
            supported: version,
        });
    }
    Ok(r)
}

/// Appends `s` as a `u32` byte length followed by its UTF-8 bytes (the
/// encoding [`Reader::string`] reads).
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    let len = u32::try_from(s.len()).expect("encoded strings are shorter than 4 GiB");
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

/// A bounds-checked little-endian cursor over untrusted bytes. Every
/// read names the section it is reading, which the error carries.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    #[inline]
    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// The next `n` bytes.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] when fewer than `n` bytes remain.
    #[inline]
    pub fn take(&mut self, section: &'static str, n: usize) -> Result<&'a [u8], CodecError> {
        let available = self.remaining();
        if n > available {
            return Err(CodecError::Truncated {
                section,
                needed: n,
                available,
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// The next `N` bytes as an array.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] when fewer than `N` bytes remain.
    pub fn array<const N: usize>(&mut self, section: &'static str) -> Result<[u8; N], CodecError> {
        Ok(self
            .take(section, N)?
            .try_into()
            .expect("take returns N bytes"))
    }

    /// One byte.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] at the end of the input.
    #[inline]
    pub fn u8(&mut self, section: &'static str) -> Result<u8, CodecError> {
        Ok(self.take(section, 1)?[0])
    }

    /// A little-endian `u32`.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] when fewer than 4 bytes remain.
    #[inline]
    pub fn u32(&mut self, section: &'static str) -> Result<u32, CodecError> {
        self.array(section).map(u32::from_le_bytes)
    }

    /// A little-endian `u64`.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] when fewer than 8 bytes remain.
    #[inline]
    pub fn u64(&mut self, section: &'static str) -> Result<u64, CodecError> {
        self.array(section).map(u64::from_le_bytes)
    }

    /// `N` consecutive little-endian `u64` words, bounds-checked once.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] when fewer than `8 * N` bytes remain.
    pub fn u64_array<const N: usize>(
        &mut self,
        section: &'static str,
    ) -> Result<[u64; N], CodecError> {
        let bytes = self.take(section, 8 * N)?;
        Ok(std::array::from_fn(|i| {
            u64::from_le_bytes(bytes[8 * i..8 * i + 8].try_into().expect("8-byte word"))
        }))
    }

    /// A string written by [`put_str`]: `u32` length, then UTF-8 bytes.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] when the length exceeds what remains
    /// (checked before allocating), [`CodecError::BadUtf8`] for invalid
    /// text.
    pub fn string(&mut self, section: &'static str) -> Result<String, CodecError> {
        let len = self.u32(section)?;
        let bytes = self.take(section, usize::try_from(len).unwrap_or(usize::MAX))?;
        std::str::from_utf8(bytes)
            .map(str::to_string)
            .map_err(|_| CodecError::BadUtf8(section))
    }

    /// Consumes `magic`.
    ///
    /// # Errors
    ///
    /// [`CodecError::BadMagic`] when the next bytes differ (or run out).
    pub fn magic(&mut self, magic: &[u8; 8]) -> Result<(), CodecError> {
        match self.take("magic", magic.len()) {
            Ok(found) if found == magic => Ok(()),
            _ => Err(CodecError::BadMagic),
        }
    }

    /// Reads a `u32` record count and checks it against the bytes that
    /// remain, given that each record takes at least `min_record_bytes`.
    /// The returned count is safe to pre-allocate for.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] when the records cannot fit.
    pub fn count_u32(
        &mut self,
        section: &'static str,
        min_record_bytes: usize,
    ) -> Result<usize, CodecError> {
        let count = self.u32(section)?;
        self.fit(section, u64::from(count), min_record_bytes)
    }

    /// [`Reader::count_u32`] for a `u64` count field.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] when the records cannot fit.
    pub fn count_u64(
        &mut self,
        section: &'static str,
        min_record_bytes: usize,
    ) -> Result<usize, CodecError> {
        let count = self.u64(section)?;
        self.fit(section, count, min_record_bytes)
    }

    fn fit(
        &self,
        section: &'static str,
        count: u64,
        min_bytes: usize,
    ) -> Result<usize, CodecError> {
        let count = usize::try_from(count).unwrap_or(usize::MAX);
        let needed = count.saturating_mul(min_bytes.max(1));
        if needed > self.remaining() {
            return Err(CodecError::Truncated {
                section,
                needed,
                available: self.remaining(),
            });
        }
        Ok(count)
    }

    /// The unread bytes, consuming the reader.
    pub fn rest(self) -> &'a [u8] {
        &self.buf[self.pos..]
    }

    /// Checks that every byte was read.
    ///
    /// # Errors
    ///
    /// [`CodecError::TrailingBytes`] when some remain.
    pub fn finish(self) -> Result<(), CodecError> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(CodecError::TrailingBytes(n)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MAGIC: [u8; 8] = *b"TESTFMT1";

    #[test]
    fn sealed_bodies_open_and_read_back() {
        let bytes = seal(&MAGIC, 3, |out| {
            out.push(7);
            out.extend_from_slice(&0xdead_beefu32.to_le_bytes());
            put_str(out, "héllo");
        });
        let mut r = open(&bytes, &MAGIC, 3).unwrap();
        assert_eq!(r.u8("tag"), Ok(7));
        assert_eq!(r.u32("word"), Ok(0xdead_beef));
        assert_eq!(r.string("text").as_deref(), Ok("héllo"));
        assert_eq!(r.finish(), Ok(()));
    }

    #[test]
    fn framing_defects_are_typed() {
        let bytes = seal(&MAGIC, 3, |out| out.extend_from_slice(b"body"));
        let mut flipped = bytes.clone();
        flipped[9] ^= 1;
        assert!(matches!(
            open(&flipped, &MAGIC, 3).err(),
            Some(CodecError::ChecksumMismatch { .. })
        ));
        assert_eq!(
            open(&bytes, b"OTHERFMT", 3).err(),
            Some(CodecError::BadMagic)
        );
        assert_eq!(
            open(&bytes, &MAGIC, 4).err(),
            Some(CodecError::UnsupportedVersion {
                found: 3,
                supported: 4
            })
        );
        assert_eq!(
            open(&bytes[..5], &MAGIC, 3).err(),
            Some(CodecError::Truncated {
                section: "checksum trailer",
                needed: 8,
                available: 5
            })
        );
        // A valid checksum over a body too short for the header.
        let short = {
            let mut b = b"TEST".to_vec();
            b.extend_from_slice(&fnv1a(b"TEST").to_le_bytes());
            b
        };
        assert_eq!(open(&short, &MAGIC, 3).err(), Some(CodecError::BadMagic));
    }

    #[test]
    fn counts_are_checked_against_the_remaining_bytes() {
        let mut bytes = u32::MAX.to_le_bytes().to_vec();
        bytes.extend_from_slice(&[0; 16]);
        let mut r = Reader::new(&bytes);
        assert_eq!(
            r.count_u32("records", 8),
            Err(CodecError::Truncated {
                section: "records",
                needed: u32::MAX as usize * 8,
                available: 16
            })
        );
        let mut fits = 2u64.to_le_bytes().to_vec();
        fits.extend_from_slice(&[0; 16]);
        assert_eq!(Reader::new(&fits).count_u64("records", 8), Ok(2));
        let huge = u64::MAX.to_le_bytes();
        assert!(Reader::new(&huge).count_u64("records", 0).is_err());
    }

    #[test]
    fn strings_and_trailers_are_checked() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&2u32.to_le_bytes());
        bytes.extend_from_slice(&[0xff, 0xfe]);
        assert_eq!(
            Reader::new(&bytes).string("name"),
            Err(CodecError::BadUtf8("name"))
        );
        let absurd = u32::MAX.to_le_bytes();
        assert!(matches!(
            Reader::new(&absurd).string("name"),
            Err(CodecError::Truncated {
                section: "name",
                ..
            })
        ));
        let mut r = Reader::new(&[1, 2, 3]);
        assert_eq!(r.u8("x"), Ok(1));
        assert_eq!(r.finish(), Err(CodecError::TrailingBytes(2)));
    }
}
