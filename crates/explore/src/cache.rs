//! Content-addressed, on-disk cache of probe results.
//!
//! A probe (see [`crate::profile`]) is the expensive half of the
//! two-fidelity scheme: compile + 48k-uop trace + predictor/cache/
//! frontend measurement + three calibration simulations, typically tens
//! of milliseconds per (phase, feature set) pair, times 49 x 26 pairs
//! per full table. Every `fig*`/`table*` experiment binary needs the
//! same pairs, so the cache makes the whole suite incremental: the
//! first run pays, every later run — in any binary — loads.
//!
//! ## Keying
//!
//! Entries are addressed by an FNV-1a hash of everything the probe
//! result is a pure function of:
//!
//! - the full [`PhaseSpec`] generation fingerprint
//!   ([`PhaseSpec::fingerprint`]),
//! - the feature set (display form, e.g. `x86-16D-64W-P`),
//! - the probe parameters ([`crate::profile::PROBE_UOPS`] and the fixed
//!   trace seed),
//! - [`SCHEMA_VERSION`], bumped whenever the probe computation or the
//!   [`PhaseProfile`] layout changes.
//!
//! A stale or corrupt file is treated as a miss **and deleted on
//! sight** — a torn write or an old schema version can never be
//! re-served, and the next store rebuilds the entry cleanly. The cache
//! directory can always be deleted (or versions mixed) safely. Writes
//! go through a temp file + rename, so concurrent processes never
//! observe torn entries.
//!
//! ## Crash safety
//!
//! The write protocol (create temp → write payload → rename over the
//! final path) guarantees that a process killed at *any* point leaves
//! the published entry either bit-identical to its previous contents
//! or absent — never torn — because `rename(2)` is atomic on POSIX
//! filesystems and the final path is only ever the target of a rename.
//! [`CrashPoint`] enumerates every kill point in that protocol and
//! [`ProfileCache::store_crashing`] simulates dying there, so the
//! guarantee is directly testable. A crash can still leave an orphan
//! temp file behind; [`ProfileCache::recover`] scans the directory at
//! startup, deletes orphan temps and invalid entries, and reports what
//! it cleaned (`cache/recover_tmp` / `cache/recover_torn` counters).

use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use cisa_isa::FeatureSet;
use cisa_workloads::PhaseSpec;

use crate::profile::{PhaseProfile, PROBE_UOPS};

/// Version of the probe computation + serialized profile layout. Bump
/// on any change to `probe`, `fit`, or the `PhaseProfile` fields.
///
/// v2: the probe became the fused single-pass sweep over a
/// `TraceArena` (bit-identical to v1's multi-pass reference by
/// construction and by test, but versioned per the policy above).
pub const SCHEMA_VERSION: u32 = 2;

/// Magic bytes heading every cache file.
const FILE_MAGIC: u64 = 0xC15A_CAC4_E000_0000 | SCHEMA_VERSION as u64;

/// The fixed trace seed probes use (kept in the key so a future change
/// invalidates old entries).
const TRACE_SEED: u64 = 0xBEEF;

/// A kill point in the entry-write protocol (create temp → write →
/// rename). [`ProfileCache::store_crashing`] simulates a process dying
/// at the chosen point; the crash-safety acceptance test walks every
/// point and asserts the published entry is always either the old
/// bits or a clean miss.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashPoint {
    /// Killed right after the temp file was created (empty temp left).
    AfterTmpCreate,
    /// Killed mid-`write` (partially written temp left).
    AfterPartialWrite,
    /// Killed after the payload was fully written but before the
    /// rename (complete temp left, entry unpublished).
    AfterFullWrite,
    /// Killed after the rename (entry fully published; equivalent to a
    /// clean store).
    AfterRename,
}

impl CrashPoint {
    /// Every kill point, in protocol order.
    pub const ALL: [CrashPoint; 4] = [
        CrashPoint::AfterTmpCreate,
        CrashPoint::AfterPartialWrite,
        CrashPoint::AfterFullWrite,
        CrashPoint::AfterRename,
    ];
}

/// What [`ProfileCache::recover`] found and cleaned up.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Orphan temp files deleted (crashes between create and rename).
    pub tmp_removed: usize,
    /// Published entries that failed validation and were deleted.
    pub torn_removed: usize,
    /// Published entries that validated cleanly and were kept.
    pub entries_valid: usize,
}

impl RecoveryReport {
    /// True when the scan found nothing to clean.
    pub fn is_clean(&self) -> bool {
        self.tmp_removed == 0 && self.torn_removed == 0
    }
}

/// 64-bit FNV-1a over a byte string.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// On-disk profile cache rooted at one directory, with hit/miss/store
/// counters for tests and progress reporting.
#[derive(Debug)]
pub struct ProfileCache {
    dir: PathBuf,
    hits: AtomicU64,
    misses: AtomicU64,
    stores: AtomicU64,
}

impl ProfileCache {
    /// Exact byte length of a well-formed cache entry: the magic word
    /// plus the serialized profile values.
    pub const ENTRY_BYTES: usize = 8 + PhaseProfile::N_VALUES * 8;

    /// Opens (and creates if needed) a cache rooted at `dir`. Failure
    /// to create the directory is not fatal: the cache then misses on
    /// every lookup and drops every store.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        let dir = dir.into();
        let _ = std::fs::create_dir_all(&dir);
        ProfileCache {
            dir,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            stores: AtomicU64::new(0),
        }
    }

    /// The cache root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The content key of one (phase, feature set) probe.
    pub fn key(spec: &PhaseSpec, fs: FeatureSet) -> u64 {
        let ident = format!(
            "v{} uops={} seed={:#x} fs={} | {}",
            SCHEMA_VERSION,
            PROBE_UOPS,
            TRACE_SEED,
            fs,
            spec.fingerprint()
        );
        fnv1a(ident.as_bytes())
    }

    fn path_for(&self, key: u64) -> PathBuf {
        self.dir.join(format!("{key:016x}.profile"))
    }

    /// Looks up a probe result. `None` on absent, stale, or corrupt
    /// entries; stale and corrupt files are deleted so they can never
    /// be served (or mistaken for valid) by a later reader.
    pub fn load(&self, spec: &PhaseSpec, fs: FeatureSet) -> Option<PhaseProfile> {
        let path = self.path_for(Self::key(spec, fs));
        let res = self.read_file(&path);
        match res {
            Some(_) => {
                cisa_obs::counter("cache/hit", 1);
                self.hits.fetch_add(1, Ordering::Relaxed)
            }
            None => {
                // A missing file is a plain miss; an unreadable one is
                // garbage — evict it so the next store starts clean.
                if path.exists() {
                    cisa_obs::counter("cache/torn_evict", 1);
                    let _ = std::fs::remove_file(&path);
                }
                cisa_obs::counter("cache/miss", 1);
                self.misses.fetch_add(1, Ordering::Relaxed)
            }
        };
        res
    }

    fn read_file(&self, path: &Path) -> Option<PhaseProfile> {
        let bytes = std::fs::read(path).ok()?;
        if bytes.len() != Self::ENTRY_BYTES {
            return None;
        }
        let magic = u64::from_le_bytes(bytes[0..8].try_into().ok()?);
        if magic != FILE_MAGIC {
            return None;
        }
        let mut values = [0.0f64; PhaseProfile::N_VALUES];
        for (i, v) in values.iter_mut().enumerate() {
            let off = 8 + i * 8;
            *v = f64::from_le_bytes(bytes[off..off + 8].try_into().ok()?);
            if !v.is_finite() {
                return None;
            }
        }
        Some(PhaseProfile::from_values(&values))
    }

    /// Fault injection: truncates the entry for `(spec, fs)` to `keep`
    /// bytes, simulating a torn write (a crash between `write` and
    /// `rename` on a filesystem without atomic rename). Returns true
    /// if an entry existed and was torn.
    pub fn tear_entry(&self, spec: &PhaseSpec, fs: FeatureSet, keep: usize) -> bool {
        let path = self.path_for(Self::key(spec, fs));
        match std::fs::read(&path) {
            Ok(bytes) => {
                let keep = keep.min(bytes.len());
                std::fs::write(&path, &bytes[..keep]).is_ok()
            }
            Err(_) => false,
        }
    }

    /// Persists a probe result. Errors are swallowed (a read-only or
    /// full disk degrades to an always-miss cache, never a failure).
    pub fn store(&self, spec: &PhaseSpec, fs: FeatureSet, profile: &PhaseProfile) {
        let path = self.path_for(Self::key(spec, fs));
        let mut bytes = Vec::with_capacity(8 + PhaseProfile::N_VALUES * 8);
        bytes.extend_from_slice(&FILE_MAGIC.to_le_bytes());
        for v in profile.to_values() {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        // Atomic publish: write a process-unique temp file, then rename.
        let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
        let ok = std::fs::File::create(&tmp)
            .and_then(|mut f| f.write_all(&bytes))
            .and_then(|()| std::fs::rename(&tmp, &path));
        if ok.is_ok() {
            cisa_obs::counter("cache/store", 1);
            self.stores.fetch_add(1, Ordering::Relaxed);
        } else {
            let _ = std::fs::remove_file(&tmp);
        }
    }

    /// Fault injection: runs the entry-write protocol for `(spec,
    /// fs)` but simulates the process being killed at `point` — the
    /// on-disk state afterwards is exactly what a real kill there
    /// would leave (orphan temp files included). Uses a distinct temp
    /// suffix so a concurrent clean `store` from the same process is
    /// never disturbed.
    pub fn store_crashing(
        &self,
        spec: &PhaseSpec,
        fs: FeatureSet,
        profile: &PhaseProfile,
        point: CrashPoint,
    ) {
        let path = self.path_for(Self::key(spec, fs));
        let mut bytes = Vec::with_capacity(Self::ENTRY_BYTES);
        bytes.extend_from_slice(&FILE_MAGIC.to_le_bytes());
        for v in profile.to_values() {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        let tmp = path.with_extension(format!("tmp.crash{}", std::process::id()));
        let written: &[u8] = match point {
            CrashPoint::AfterTmpCreate => &[],
            CrashPoint::AfterPartialWrite => &bytes[..bytes.len() / 2],
            CrashPoint::AfterFullWrite | CrashPoint::AfterRename => &bytes,
        };
        let ok = std::fs::File::create(&tmp).and_then(|mut f| f.write_all(written));
        if ok.is_ok() && point == CrashPoint::AfterRename {
            let _ = std::fs::rename(&tmp, &path);
        }
    }

    /// Startup recovery scan: deletes orphan temp files (left by
    /// crashes between temp-create and rename) and published entries
    /// that fail validation, so every surviving `.profile` file in the
    /// directory is a complete, current-schema entry. Safe to run
    /// concurrently with readers — an entry is only ever deleted when
    /// it would read as a miss anyway.
    pub fn recover(&self) -> RecoveryReport {
        let mut report = RecoveryReport::default();
        let Ok(entries) = std::fs::read_dir(&self.dir) else {
            return report;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
                continue;
            };
            if name.contains(".tmp.") {
                if std::fs::remove_file(&path).is_ok() {
                    cisa_obs::counter("cache/recover_tmp", 1);
                    report.tmp_removed += 1;
                }
            } else if name.ends_with(".profile") {
                if self.read_file(&path).is_some() {
                    report.entries_valid += 1;
                } else if std::fs::remove_file(&path).is_ok() {
                    cisa_obs::counter("cache/recover_torn", 1);
                    report.torn_removed += 1;
                }
            }
        }
        report
    }

    /// `(hits, misses, stores)` since this handle was opened.
    pub fn stats(&self) -> (u64, u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
            self.stores.load(Ordering::Relaxed),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::probe;
    use cisa_workloads::all_phases;

    fn tmp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("cisa-cache-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn roundtrips_profiles_exactly() {
        let cache = ProfileCache::new(tmp_dir("roundtrip"));
        let spec = &all_phases()[0];
        let fs = FeatureSet::x86_64();
        let p = probe(spec, fs);
        assert_eq!(cache.load(spec, fs), None, "cold cache must miss");
        cache.store(spec, fs, &p);
        let q = cache.load(spec, fs).expect("stored entry loads");
        assert_eq!(p, q, "bit-identical roundtrip");
        assert_eq!(cache.stats(), (1, 1, 1));
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn keys_separate_specs_and_feature_sets() {
        let phases = all_phases();
        let (a, b) = (&phases[0], &phases[1]);
        let x86 = FeatureSet::x86_64();
        let sup = FeatureSet::superset();
        assert_ne!(ProfileCache::key(a, x86), ProfileCache::key(b, x86));
        assert_ne!(ProfileCache::key(a, x86), ProfileCache::key(a, sup));
        assert_eq!(ProfileCache::key(a, x86), ProfileCache::key(a, x86));
    }

    #[test]
    fn corrupt_entries_read_as_misses() {
        let cache = ProfileCache::new(tmp_dir("corrupt"));
        let spec = &all_phases()[0];
        let fs = FeatureSet::x86_64();
        let p = probe(spec, fs);
        cache.store(spec, fs, &p);
        // Truncate the file.
        let path = cache.path_for(ProfileCache::key(spec, fs));
        std::fs::write(&path, b"garbage").unwrap();
        assert_eq!(cache.load(spec, fs), None);
        // A store repairs it.
        cache.store(spec, fs, &p);
        assert_eq!(cache.load(spec, fs), Some(p));
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn torn_write_is_a_clean_miss_and_the_entry_is_deleted() {
        let cache = ProfileCache::new(tmp_dir("torn"));
        let spec = &all_phases()[0];
        let fs = FeatureSet::superset();
        let p = probe(spec, fs);
        cache.store(spec, fs, &p);
        assert!(cache.tear_entry(spec, fs, ProfileCache::ENTRY_BYTES / 2));

        let path = cache.path_for(ProfileCache::key(spec, fs));
        assert!(path.exists(), "torn entry present before the load");
        assert_eq!(cache.load(spec, fs), None, "torn entry must read as a miss");
        assert!(!path.exists(), "torn entry must be deleted, not re-served");
        // The next lookup is an ordinary miss (no stale state left).
        assert_eq!(cache.load(spec, fs), None);
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn wrong_schema_version_is_a_clean_miss_and_the_entry_is_deleted() {
        let cache = ProfileCache::new(tmp_dir("schema"));
        let spec = &all_phases()[1];
        let fs = FeatureSet::x86_64();
        let p = probe(spec, fs);
        cache.store(spec, fs, &p);

        // Rewrite the entry as a hypothetical *future* schema: right
        // length, wrong magic/version word.
        let path = cache.path_for(ProfileCache::key(spec, fs));
        let mut bytes = std::fs::read(&path).unwrap();
        let future_magic = 0xC15A_CAC4_E000_0000u64 | (SCHEMA_VERSION as u64 + 1);
        bytes[0..8].copy_from_slice(&future_magic.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();

        assert_eq!(
            cache.load(spec, fs),
            None,
            "foreign schema must read as a miss"
        );
        assert!(!path.exists(), "foreign-schema entry must be deleted");
        // A store then repairs it and the roundtrip is exact again.
        cache.store(spec, fs, &p);
        assert_eq!(cache.load(spec, fs), Some(p));
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn missing_entries_do_not_touch_the_filesystem() {
        let cache = ProfileCache::new(tmp_dir("absent"));
        let spec = &all_phases()[2];
        assert_eq!(cache.load(spec, FeatureSet::minimal()), None);
        assert_eq!(cache.stats(), (0, 1, 0));
        assert!(!cache.tear_entry(spec, FeatureSet::minimal(), 0));
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn recover_deletes_orphan_tmps_and_torn_entries_only() {
        let cache = ProfileCache::new(tmp_dir("recover"));
        let phases = all_phases();
        let fs = FeatureSet::x86_64();
        let good = probe(&phases[0], fs);
        cache.store(&phases[0], fs, &good);
        // A crash that never published: orphan temp, no entry.
        cache.store_crashing(
            &phases[1],
            fs,
            &probe(&phases[1], fs),
            CrashPoint::AfterFullWrite,
        );
        // A torn published entry (filesystem without atomic rename).
        cache.store(&phases[2], fs, &probe(&phases[2], fs));
        assert!(cache.tear_entry(&phases[2], fs, 11));

        let report = cache.recover();
        assert_eq!(report.tmp_removed, 1, "{report:?}");
        assert_eq!(report.torn_removed, 1, "{report:?}");
        assert_eq!(report.entries_valid, 1, "{report:?}");
        assert!(!report.is_clean());
        // The valid entry still reads bit-identically; the others miss.
        assert_eq!(cache.load(&phases[0], fs), Some(good));
        assert_eq!(cache.load(&phases[1], fs), None);
        assert_eq!(cache.load(&phases[2], fs), None);
        // A second scan finds nothing left to clean.
        assert!(cache.recover().is_clean());
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn values_layout_roundtrips() {
        let spec = &all_phases()[3];
        let p = probe(spec, FeatureSet::minimal());
        assert_eq!(PhaseProfile::from_values(&p.to_values()), p);
    }
}
