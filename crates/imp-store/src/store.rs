//! The on-disk store: a directory of `.impres` records addressed by
//! content digest.

use crate::digest::{cell_digest, digest_hex};
use crate::record::{StoreError, StoredResult};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// A content-addressed directory of sweep results.
///
/// Records live under `<root>/<digest[..2]>/<digest>.impres` (the
/// two-hex-digit shard keeps any single directory from growing into the
/// millions). All methods take `&self` and are safe to share across the
/// sweep worker threads: reads are independent, and writes go through a
/// unique temporary file renamed into place, so concurrent writers of
/// the same cell race benignly — last rename wins with identical
/// contents.
///
/// A `get` never trusts the digest alone: the record's stored canonical
/// string must equal the queried one, a checksum mismatch (bit rot,
/// torn write) is a miss, and a record from a newer format version is a
/// miss — the caller re-simulates and overwrites. Only genuine I/O
/// errors (permissions, disk failure) surface as `Err`.
#[derive(Debug)]
pub struct ResultStore {
    root: PathBuf,
    hits: AtomicU64,
    misses: AtomicU64,
    rejected: AtomicU64,
    puts: AtomicU64,
}

/// A snapshot of a store's per-process traffic counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreCounters {
    /// `get`s served from disk.
    pub hits: u64,
    /// `get`s that found no record.
    pub misses: u64,
    /// `get`s that found a record but refused it (checksum mismatch,
    /// canonical mismatch, unreadable format) — also counted as misses.
    pub rejected: u64,
    /// Records written.
    pub puts: u64,
}

impl ResultStore {
    /// Opens (creating if needed) the store rooted at `root`.
    ///
    /// # Errors
    ///
    /// Filesystem failures creating the root surface as
    /// [`StoreError::Io`].
    pub fn open(root: impl Into<PathBuf>) -> Result<Self, StoreError> {
        let root = root.into();
        std::fs::create_dir_all(&root)?;
        Ok(ResultStore {
            root,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            puts: AtomicU64::new(0),
        })
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Where the record for `canonical` lives (whether or not it
    /// exists yet): `<root>/<digest[..2]>/<digest>.impres`.
    pub fn path_for(&self, canonical: &str) -> PathBuf {
        let hex = digest_hex(cell_digest(canonical));
        self.root.join(&hex[..2]).join(format!("{hex}.impres"))
    }

    /// Looks the result for `canonical` up.
    ///
    /// Returns `Ok(None)` on a miss — including the *defensive* misses:
    /// a record whose checksum no longer matches, whose format version
    /// is unknown, or whose stored canonical string differs from the
    /// queried one (digest collision or stale canonical scheme). The
    /// caller's contract is simply: `None` ⇒ simulate and `put`.
    ///
    /// # Errors
    ///
    /// Only genuine I/O failures (permission denied, disk errors);
    /// a missing file is a miss, not an error.
    pub fn get(&self, canonical: &str) -> Result<Option<StoredResult>, StoreError> {
        let path = self.path_for(canonical);
        let bytes = match std::fs::read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                return Ok(None);
            }
            Err(e) => return Err(StoreError::Io(e)),
        };
        match StoredResult::from_bytes(&bytes) {
            Ok(record) if record.canonical == canonical => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Ok(Some(record))
            }
            // Collision, corruption, or an unreadable version: treat as
            // a miss so the caller re-simulates instead of serving
            // garbage; the subsequent `put` overwrites the bad record.
            Ok(_) | Err(_) => {
                self.rejected.fetch_add(1, Ordering::Relaxed);
                self.misses.fetch_add(1, Ordering::Relaxed);
                Ok(None)
            }
        }
    }

    /// Persists `record` under its canonical string's digest.
    ///
    /// The write is atomic at the filesystem level: bytes go to a
    /// temporary file in the same shard directory, named uniquely per
    /// put (process id plus a process-wide counter), then rename into
    /// place — a reader never observes a half-written record, and
    /// concurrent puts of one cell never share a temporary file.
    ///
    /// # Errors
    ///
    /// Filesystem failures surface as [`StoreError::Io`].
    pub fn put(&self, record: &StoredResult) -> Result<PathBuf, StoreError> {
        let path = self.path_for(&record.canonical);
        let dir = path.parent().expect("sharded path has a parent");
        std::fs::create_dir_all(dir)?;
        // Unique per put, not just per process: two threads writing the
        // same cell must not rename each other's temporary file away.
        static NEXT_TMP: AtomicU64 = AtomicU64::new(0);
        let tmp = dir.join(format!(
            ".{}.{}.{}.tmp",
            path.file_name()
                .expect("sharded path has a file name")
                .to_string_lossy(),
            std::process::id(),
            NEXT_TMP.fetch_add(1, Ordering::Relaxed),
        ));
        std::fs::write(&tmp, record.to_bytes())?;
        if let Err(e) = std::fs::rename(&tmp, &path) {
            std::fs::remove_file(&tmp).ok();
            return Err(StoreError::Io(e));
        }
        self.puts.fetch_add(1, Ordering::Relaxed);
        Ok(path)
    }

    /// This process's traffic against the store so far.
    pub fn counters(&self) -> StoreCounters {
        StoreCounters {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            puts: self.puts.load(Ordering::Relaxed),
        }
    }

    /// Number of `.impres` records currently on disk (a directory walk;
    /// meant for manifests and tests, not hot paths).
    ///
    /// # Errors
    ///
    /// Filesystem failures surface as [`StoreError::Io`].
    pub fn len(&self) -> Result<usize, StoreError> {
        let mut n = 0;
        for shard in std::fs::read_dir(&self.root)? {
            let shard = shard?.path();
            if !shard.is_dir() {
                continue;
            }
            for entry in std::fs::read_dir(&shard)? {
                let path = entry?.path();
                if path.extension().is_some_and(|e| e == "impres") {
                    n += 1;
                }
            }
        }
        Ok(n)
    }

    /// Whether the store holds no records.
    ///
    /// # Errors
    ///
    /// See [`ResultStore::len`].
    pub fn is_empty(&self) -> Result<bool, StoreError> {
        Ok(self.len()? == 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use imp_common::stats::SystemStats;

    fn scratch(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("impstore-{tag}-{}", std::process::id()))
    }

    fn record(canonical: &str) -> StoredResult {
        StoredResult {
            canonical: canonical.to_string(),
            stats: SystemStats {
                runtime: 42,
                ..SystemStats::default()
            },
        }
    }

    #[test]
    fn put_get_roundtrip_and_counters() {
        let dir = scratch("roundtrip");
        let store = ResultStore::open(&dir).unwrap();
        assert!(store.is_empty().unwrap());
        assert!(store.get("cell-a").unwrap().is_none());

        let rec = record("cell-a");
        let path = store.put(&rec).unwrap();
        assert!(path.starts_with(&dir));
        assert_eq!(store.len().unwrap(), 1);
        assert_eq!(store.get("cell-a").unwrap().as_ref(), Some(&rec));
        assert!(store.get("cell-b").unwrap().is_none());

        let c = store.counters();
        assert_eq!((c.hits, c.misses, c.rejected, c.puts), (1, 2, 0, 1));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupted_record_reads_as_miss() {
        let dir = scratch("corrupt");
        let store = ResultStore::open(&dir).unwrap();
        let rec = record("cell-x");
        let path = store.put(&rec).unwrap();

        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();

        assert_eq!(store.get("cell-x").unwrap(), None);
        assert_eq!(store.counters().rejected, 1);

        // A fresh put repairs it.
        store.put(&rec).unwrap();
        assert_eq!(store.get("cell-x").unwrap().as_ref(), Some(&rec));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn colliding_digest_with_different_canonical_is_a_miss() {
        let dir = scratch("collide");
        let store = ResultStore::open(&dir).unwrap();
        let rec = record("real-canonical");
        // Force a "collision": drop a record for a different canonical
        // at the path `get("impostor")` would look up.
        let impostor_path = store.path_for("impostor");
        std::fs::create_dir_all(impostor_path.parent().unwrap()).unwrap();
        std::fs::write(&impostor_path, rec.to_bytes()).unwrap();

        assert_eq!(store.get("impostor").unwrap(), None);
        assert_eq!(store.counters().rejected, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn paths_are_sharded_by_digest_prefix() {
        let dir = scratch("shard");
        let store = ResultStore::open(&dir).unwrap();
        let hex = digest_hex(cell_digest("abc"));
        let path = store.path_for("abc");
        assert_eq!(path, dir.join(&hex[..2]).join(format!("{hex}.impres")));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn version_2_records_are_misses_and_get_overwritten() {
        let dir = scratch("v2");
        let store = ResultStore::open(&dir).unwrap();
        let rec = record("cell-v2");
        // A version-2 record: the canonical, then a cell-key section
        // this reader no longer knows, under a valid checksum.
        let v2 = imp_common::codec::seal(&crate::MAGIC, 2, |out| {
            imp_common::codec::put_str(out, &rec.canonical);
            imp_common::codec::put_str(out, "spmv");
            out.extend_from_slice(&[0; 64]);
        });
        let path = store.path_for(&rec.canonical);
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, v2).unwrap();

        assert_eq!(store.get(&rec.canonical).unwrap(), None);
        let c = store.counters();
        assert_eq!((c.hits, c.misses, c.rejected), (0, 1, 1));

        assert_eq!(store.put(&rec).unwrap(), path);
        assert_eq!(store.get(&rec.canonical).unwrap().as_ref(), Some(&rec));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn concurrent_puts_of_one_cell_all_succeed() {
        const THREADS: usize = 2;
        const PUTS: usize = 200;
        let dir = scratch("race");
        let store = ResultStore::open(&dir).unwrap();
        let rec = record("cell-race");
        let start = std::sync::Barrier::new(THREADS);
        let failed: usize = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..THREADS)
                .map(|_| {
                    scope.spawn(|| {
                        start.wait();
                        (0..PUTS).filter(|_| store.put(&rec).is_err()).count()
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).sum()
        });
        assert_eq!(failed, 0, "{failed} of {} puts failed", THREADS * PUTS);
        assert_eq!(store.counters().puts, (THREADS * PUTS) as u64);
        assert_eq!(store.len().unwrap(), 1);
        assert_eq!(store.get(&rec.canonical).unwrap().as_ref(), Some(&rec));
        std::fs::remove_dir_all(&dir).ok();
    }
}
