//! Persistent characterization cache.
//!
//! Characterization is the expensive half of the paper's flow: every grid
//! point is a dense PEEC solve. A real extractor runs it once per
//! process/layer and reuses the tables for every chip, so repeat
//! extractions should never touch the field solver. This module stores
//! built [`InductanceTables`] on disk, keyed by a content hash of every
//! input the solves depend on ([`crate::TableBuilder::cache_key`]).
//!
//! # File format
//!
//! One plain-text file per key, named `tables-<key>.txt`:
//!
//! ```text
//! rlcx-table-cache v1
//! key <16 hex digits>
//! <the `rlcx-tables v1` payload of crate::io>
//! ```
//!
//! Values are written as `{:.17e}`, which round-trips `f64` exactly, so a
//! cache hit reproduces the stored tables bit-for-bit.
//!
//! # Invalidation
//!
//! There is no timestamp logic: the key *is* the validity check. Any
//! change to the stackup, layer, frequency, mesh, axes, shields or loop
//! geometry produces a different key and therefore a different file; a
//! file whose recorded key disagrees with the requested one (or whose
//! version header is unknown, or which fails to parse) is treated as a
//! miss and rebuilt. Stale files are simply never read again.

use crate::table::InductanceTables;
use crate::{io, CoreError, Result};
use rlcx_numeric::obs;
use std::fmt;
use std::path::{Path, PathBuf};

/// The format version written to and required of every cache file.
const CACHE_HEADER: &str = "rlcx-table-cache v1";

/// 64-bit FNV-1a hash — small, dependency-free, and plenty for cache keys
/// that only ever compare against their own file.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Why a cache probe failed — every miss is attributable, so callers (and
/// the `cache.miss` metric) can tell a cold cache from a corrupted one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheMiss {
    /// No file exists for the key (cold cache), or it cannot be read.
    Absent,
    /// The file's version header is not the supported format.
    WrongVersion,
    /// The file's recorded key disagrees with the requested key.
    WrongKey,
    /// The table payload failed to parse (truncation, corruption).
    Corrupt,
}

impl fmt::Display for CacheMiss {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            CacheMiss::Absent => "absent",
            CacheMiss::WrongVersion => "wrong-version",
            CacheMiss::WrongKey => "wrong-key",
            CacheMiss::Corrupt => "corrupt",
        })
    }
}

/// A directory of cached table files.
#[derive(Debug, Clone)]
pub struct TableCache {
    dir: PathBuf,
}

impl TableCache {
    /// A cache rooted at `dir`. The directory is created lazily on the
    /// first [`TableCache::store`].
    pub fn new(dir: impl AsRef<Path>) -> Self {
        TableCache {
            dir: dir.as_ref().to_path_buf(),
        }
    }

    /// The file a given key lives in.
    pub fn path_for(&self, key: &str) -> PathBuf {
        self.dir.join(format!("tables-{key}.txt"))
    }

    /// Loads the tables stored under `key`, or `None` on any kind of miss:
    /// no file, unreadable file, version or key mismatch, or a payload
    /// that fails to parse. A miss is never an error — the caller rebuilds.
    ///
    /// Equivalent to [`TableCache::lookup`] with the miss reason dropped;
    /// both record the `cache.hit` / `cache.miss` metrics.
    pub fn load(&self, key: &str) -> Option<InductanceTables> {
        self.lookup(key).ok()
    }

    /// Probes the cache for `key`, reporting *why* on a miss, and records
    /// the outcome into the `cache.hit` / `cache.miss` metrics (plus a
    /// per-reason `cache.miss.<reason>` counter).
    ///
    /// # Errors
    ///
    /// The [`CacheMiss`] reason. A miss is still not a build error — the
    /// caller rebuilds and stores.
    pub fn lookup(&self, key: &str) -> std::result::Result<InductanceTables, CacheMiss> {
        let _span = obs::span("cache.probe");
        let outcome = self.lookup_uncounted(key);
        match &outcome {
            Ok(_) => obs::counter_add("cache.hit", 1),
            Err(reason) => {
                obs::counter_add("cache.miss", 1);
                obs::counter_add(&format!("cache.miss.{reason}"), 1);
            }
        }
        outcome
    }

    fn lookup_uncounted(&self, key: &str) -> std::result::Result<InductanceTables, CacheMiss> {
        let text = std::fs::read_to_string(self.path_for(key)).map_err(|_| CacheMiss::Absent)?;
        let mut lines = text.splitn(3, '\n');
        if lines.next().map(str::trim_end) != Some(CACHE_HEADER) {
            return Err(CacheMiss::WrongVersion);
        }
        let recorded = lines
            .next()
            .and_then(|l| l.trim_end().strip_prefix("key "))
            .ok_or(CacheMiss::Corrupt)?;
        if recorded != key {
            return Err(CacheMiss::WrongKey);
        }
        let payload = lines.next().ok_or(CacheMiss::Corrupt)?;
        io::from_string(payload).map_err(|_| CacheMiss::Corrupt)
    }

    /// Writes `tables` under `key`, creating the cache directory if needed,
    /// under a `cache.store` span.
    ///
    /// The write is atomic: the body goes to a uniquely named temp file in
    /// the cache directory which is then renamed over the final path.
    /// Concurrent readers therefore never observe a half-written file, and
    /// concurrent writers of the same key (two threads characterizing the
    /// same stackup) each install a complete file — last rename wins, and
    /// both bodies are bit-identical anyway because characterization is
    /// deterministic.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::MissingTable`] wrapping the I/O failure message
    /// if the directory or file cannot be written.
    pub fn store(&self, key: &str, tables: &InductanceTables) -> Result<PathBuf> {
        static STORE_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let _span = obs::span("cache.store");
        std::fs::create_dir_all(&self.dir).map_err(|e| CoreError::MissingTable {
            what: format!("cannot create cache dir {}: {e}", self.dir.display()),
        })?;
        let path = self.path_for(key);
        let body = format!("{CACHE_HEADER}\nkey {key}\n{}", io::to_string(tables));
        let tmp = self.dir.join(format!(
            ".tables-{key}.{}.{}.tmp",
            std::process::id(),
            STORE_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed),
        ));
        std::fs::write(&tmp, body).map_err(|e| CoreError::MissingTable {
            what: format!("cannot write {}: {e}", tmp.display()),
        })?;
        std::fs::rename(&tmp, &path).map_err(|e| {
            std::fs::remove_file(&tmp).ok();
            CoreError::MissingTable {
                what: format!("cannot install {}: {e}", path.display()),
            }
        })?;
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::TableBuilder;
    use rlcx_geom::Stackup;
    use rlcx_peec::MeshSpec;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("rlcx_cache_test_{tag}_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    fn small_builder() -> TableBuilder {
        TableBuilder::new(Stackup::hp_six_metal_copper(), 5)
            .unwrap()
            .widths(vec![2.0, 5.0])
            .spacings(vec![0.5, 1.0])
            .lengths(vec![200.0, 800.0])
            .mesh(MeshSpec::new(2, 1))
    }

    #[test]
    fn fnv1a64_reference_vectors() {
        // Standard FNV-1a test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a64(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn missing_file_is_a_miss() {
        let cache = TableCache::new(tmp_dir("missing"));
        assert!(cache.load("0123456789abcdef").is_none());
    }

    #[test]
    fn store_then_load_roundtrips() {
        let dir = tmp_dir("roundtrip");
        let cache = TableCache::new(&dir);
        let tables = small_builder().build().unwrap();
        let key = small_builder().cache_key();
        cache.store(&key, &tables).unwrap();
        let loaded = cache.load(&key).expect("hit");
        assert_eq!(
            loaded.self_l.lookup(3.0, 500.0),
            tables.self_l.lookup(3.0, 500.0)
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn key_mismatch_and_corruption_are_misses() {
        let dir = tmp_dir("corrupt");
        let cache = TableCache::new(&dir);
        let tables = small_builder().build().unwrap();
        let key = small_builder().cache_key();
        let path = cache.store(&key, &tables).unwrap();

        // Wrong key requested: miss (the file name differs, but also guard
        // against a renamed file by rewriting it under the other name).
        let other = "0000000000000000";
        std::fs::copy(&path, cache.path_for(other)).unwrap();
        assert!(cache.load(other).is_none(), "recorded key must be checked");

        // Unknown version header: miss.
        let body = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, body.replacen("v1", "v999", 1)).unwrap();
        assert!(cache.load(&key).is_none());

        // Truncated payload: miss.
        std::fs::write(&path, &body[..body.len() / 2]).unwrap();
        assert!(cache.load(&key).is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn cache_key_tracks_every_input() {
        let base = small_builder();
        let k = base.cache_key();
        assert_eq!(k.len(), 16);
        assert_eq!(k, small_builder().cache_key(), "key must be deterministic");
        for (what, other) in [
            ("frequency", small_builder().frequency(1e9)),
            ("mesh", small_builder().mesh(MeshSpec::new(3, 1))),
            ("widths", small_builder().widths(vec![2.0, 6.0])),
            ("spacings", small_builder().spacings(vec![0.5, 1.5])),
            ("lengths", small_builder().lengths(vec![200.0, 900.0])),
            (
                "shields",
                small_builder().shields(vec![
                    rlcx_geom::ShieldConfig::Coplanar,
                    rlcx_geom::ShieldConfig::PlaneBelow,
                ]),
            ),
            ("ratio", small_builder().ground_width_ratio(2.0)),
            ("loop_spacing", small_builder().loop_spacing(2.0)),
            ("plane_strips", small_builder().plane_strips(4)),
        ] {
            assert_ne!(k, other.cache_key(), "{what} must change the key");
        }
        let other_stack = TableBuilder::new(Stackup::asic_five_metal_aluminum(), 4)
            .unwrap()
            .widths(vec![2.0, 5.0])
            .spacings(vec![0.5, 1.0])
            .lengths(vec![200.0, 800.0])
            .mesh(MeshSpec::new(2, 1));
        assert_ne!(k, other_stack.cache_key(), "stackup must change the key");
    }

    #[test]
    fn concurrent_store_and_load_never_sees_a_torn_file() {
        // Writers rewrite the same key in a loop while readers hammer it;
        // because `store` installs via temp-file + rename, every probe
        // that finds the file must parse it completely and agree with the
        // original tables. Before the atomic install this raced a plain
        // `fs::write` and readers could hit `CacheMiss::Corrupt`.
        let dir = tmp_dir("concurrent");
        let cache = TableCache::new(&dir);
        let tables = small_builder().build().unwrap();
        let key = small_builder().cache_key();
        let reference = tables.self_l.lookup(3.0, 500.0);
        std::thread::scope(|scope| {
            for _ in 0..2 {
                scope.spawn(|| {
                    let cache = TableCache::new(&dir);
                    for _ in 0..25 {
                        cache.store(&key, &tables).unwrap();
                    }
                });
            }
            for _ in 0..2 {
                scope.spawn(|| {
                    let cache = TableCache::new(&dir);
                    for _ in 0..50 {
                        match cache.lookup(&key) {
                            Ok(loaded) => {
                                assert_eq!(loaded.self_l.lookup(3.0, 500.0), reference)
                            }
                            // Only "not there yet" is acceptable — a torn
                            // or mismatched file is the bug this guards.
                            Err(reason) => assert_eq!(reason, CacheMiss::Absent),
                        }
                    }
                });
            }
        });
        assert!(cache.load(&key).is_some(), "final state must be a hit");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn build_cached_hits_on_second_build() {
        let dir = tmp_dir("build");
        let cold = small_builder().build_cached(&dir).unwrap();
        assert!(!cold.cache_hit);
        let warm = small_builder().build_cached(&dir).unwrap();
        assert!(warm.cache_hit);
        assert!(warm.miss_reason.is_none(), "no miss reason on a hit");
        assert_eq!(
            warm.tables.self_l.lookup(3.3, 456.0),
            cold.tables.self_l.lookup(3.3, 456.0)
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
