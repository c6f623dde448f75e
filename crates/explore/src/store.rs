//! Sharded, read-optimized store tier over the content-addressed
//! [`ProfileCache`].
//!
//! The batch pipeline reads each probe result a handful of times per
//! table build, so [`ProfileCache`]'s one-file-per-entry disk layout is
//! enough. A serving workload is different: the same hot rows are read
//! thousands of times per second from many worker threads at once, and
//! a `read(2)` + header validation per lookup (plus one global anything)
//! would dominate request latency. This module adds the in-memory tier
//! the `cisa-serve` query engine reads through:
//!
//! - [`ShardedLru`] — a generic N-way sharded LRU map keyed by `u64`
//!   content hashes. Each shard is an independent `Mutex`, so readers
//!   on different shards never contend; capacity is enforced per shard
//!   with least-recently-used eviction.
//! - [`ShardedProfileStore`] — the two-tier composition serving probe
//!   results: memory first, then the content-addressed disk cache
//!   (promoting hits into memory), then a genuine miss that the caller
//!   resolves by probing. Writes go to both tiers, so a restarted
//!   server warms from disk instead of re-probing.
//!
//! Hit/miss traffic is observable through the `store/*` counters (see
//! METRICS.md): `store/mem_hit`, `store/disk_hit`, `store/miss`,
//! `store/evict`.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use cisa_isa::FeatureSet;
use cisa_workloads::PhaseSpec;

use crate::cache::{ProfileCache, RecoveryReport};
use crate::faults::FaultPlan;
use crate::profile::PhaseProfile;

/// One LRU shard: a hash map from content key to `(value, last-use
/// tick)` plus the shard's logical clock.
struct Shard<V> {
    map: HashMap<u64, (V, u64)>,
    tick: u64,
}

impl<V> Shard<V> {
    fn next_tick(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }
}

/// An N-way sharded LRU map keyed by 64-bit content hashes.
///
/// Shard selection folds the key's high bits into the low bits before
/// reducing modulo the shard count, so content-hash keys (whose
/// entropy is spread across all 64 bits) distribute evenly. Each shard
/// holds at most `capacity_per_shard` entries; inserting into a full
/// shard evicts its least-recently-used entry. `get` refreshes
/// recency, making repeated reads of hot keys effectively free of
/// eviction risk.
///
/// Every shard is its own `Mutex`, so the store scales with concurrent
/// readers as long as they spread across shards — the serving tier's
/// whole point.
pub struct ShardedLru<V> {
    shards: Vec<Mutex<Shard<V>>>,
    capacity_per_shard: usize,
    evictions: AtomicU64,
}

impl<V: Clone> ShardedLru<V> {
    /// Creates a store with `n_shards` independent shards (minimum 1)
    /// of `capacity_per_shard` entries each (minimum 1).
    pub fn new(n_shards: usize, capacity_per_shard: usize) -> Self {
        let n = n_shards.max(1);
        ShardedLru {
            shards: (0..n)
                .map(|_| {
                    Mutex::new(Shard {
                        map: HashMap::new(),
                        tick: 0,
                    })
                })
                .collect(),
            capacity_per_shard: capacity_per_shard.max(1),
            evictions: AtomicU64::new(0),
        }
    }

    fn shard(&self, key: u64) -> &Mutex<Shard<V>> {
        let folded = (key ^ (key >> 32)) as usize;
        &self.shards[folded % self.shards.len()]
    }

    /// Looks up `key`, refreshing its recency on a hit.
    pub fn get(&self, key: u64) -> Option<V> {
        let mut shard = self.shard(key).lock().unwrap_or_else(|e| e.into_inner());
        let tick = shard.next_tick();
        let (v, last) = shard.map.get_mut(&key)?;
        *last = tick;
        Some(v.clone())
    }

    /// Inserts (or refreshes) `key`, evicting the shard's
    /// least-recently-used entry if the shard is at capacity.
    pub fn insert(&self, key: u64, value: V) {
        let mut shard = self.shard(key).lock().unwrap_or_else(|e| e.into_inner());
        let tick = shard.next_tick();
        if !shard.map.contains_key(&key) && shard.map.len() >= self.capacity_per_shard {
            if let Some((&victim, _)) = shard.map.iter().min_by_key(|(_, (_, last))| *last) {
                shard.map.remove(&victim);
                self.evictions.fetch_add(1, Ordering::Relaxed);
                cisa_obs::counter("store/evict", 1);
            }
        }
        shard.map.insert(key, (value, tick));
    }

    /// Total entries resident across all shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().unwrap_or_else(|e| e.into_inner()).map.len())
            .sum()
    }

    /// Whether no entries are resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// LRU evictions since creation.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }
}

impl<V> std::fmt::Debug for ShardedLru<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedLru")
            .field("shards", &self.shards.len())
            .field("capacity_per_shard", &self.capacity_per_shard)
            .finish()
    }
}

/// Cumulative hit/miss statistics of a [`ShardedProfileStore`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Lookups answered from the in-memory LRU tier.
    pub mem_hits: u64,
    /// Lookups answered from the disk tier (and promoted to memory).
    pub disk_hits: u64,
    /// Lookups that missed both tiers.
    pub misses: u64,
}

/// Two-tier (memory LRU over content-addressed disk) store of probe
/// results, keyed exactly like [`ProfileCache`].
///
/// Reads try the sharded in-memory tier first, then the disk cache —
/// promoting disk hits into memory — and report a miss only when both
/// tiers miss. Writes land in both tiers. Without a disk cache the
/// store degrades to the memory tier alone (useful in tests and for
/// ephemeral servers).
#[derive(Debug)]
pub struct ShardedProfileStore {
    mem: ShardedLru<PhaseProfile>,
    disk: Option<ProfileCache>,
    mem_hits: AtomicU64,
    disk_hits: AtomicU64,
    misses: AtomicU64,
    faults: Option<FaultPlan>,
    io_ops: AtomicU64,
}

/// Memory-tier shard count.
const SHARDS: usize = 16;
/// Memory-tier capacity per shard (16 shards x 256 entries comfortably
/// holds a full 49 x 26 probe grid with room for online traffic).
const SHARD_CAPACITY: usize = 256;

impl ShardedProfileStore {
    /// A store over an optional disk tier.
    pub fn new(disk: Option<ProfileCache>) -> Self {
        ShardedProfileStore {
            mem: ShardedLru::new(SHARDS, SHARD_CAPACITY),
            disk,
            mem_hits: AtomicU64::new(0),
            disk_hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            faults: None,
            io_ops: AtomicU64::new(0),
        }
    }

    /// Installs a chaos [`FaultPlan`]: every disk-tier operation then
    /// consults [`FaultPlan::store_io_fails`] and, when it fires,
    /// behaves exactly like a real I/O error — a failed read degrades
    /// to a miss, a failed write is dropped (the memory tier still
    /// updates). Counted as `serve/resilience/store_io_error`.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Whether the next disk operation survives fault injection. Draws
    /// one decision per call from the plan's store-I/O stream.
    fn disk_io_ok(&self) -> bool {
        let Some(plan) = &self.faults else {
            return true;
        };
        let op = self.io_ops.fetch_add(1, Ordering::Relaxed) as usize;
        if plan.store_io_fails(op) {
            cisa_obs::counter("serve/resilience/store_io_error", 1);
            false
        } else {
            true
        }
    }

    /// Runs the disk tier's startup recovery scan (orphan temp files,
    /// torn entries). A no-op [`RecoveryReport`] when the store has no
    /// disk tier.
    pub fn recover(&self) -> RecoveryReport {
        self.disk
            .as_ref()
            .map(ProfileCache::recover)
            .unwrap_or_default()
    }

    /// Looks up the probe result for `(spec, fs)`: memory, then disk
    /// (promoting into memory), then `None`.
    pub fn load(&self, spec: &PhaseSpec, fs: FeatureSet) -> Option<PhaseProfile> {
        let key = ProfileCache::key(spec, fs);
        if let Some(p) = self.mem.get(key) {
            cisa_obs::counter("store/mem_hit", 1);
            self.mem_hits.fetch_add(1, Ordering::Relaxed);
            return Some(p);
        }
        if let Some(disk) = &self.disk {
            if self.disk_io_ok() {
                if let Some(p) = disk.load(spec, fs) {
                    cisa_obs::counter("store/disk_hit", 1);
                    self.disk_hits.fetch_add(1, Ordering::Relaxed);
                    self.mem.insert(key, p);
                    return Some(p);
                }
            }
        }
        cisa_obs::counter("store/miss", 1);
        self.misses.fetch_add(1, Ordering::Relaxed);
        None
    }

    /// Persists a probe result into both tiers.
    pub fn store(&self, spec: &PhaseSpec, fs: FeatureSet, profile: &PhaseProfile) {
        self.mem.insert(ProfileCache::key(spec, fs), *profile);
        if let Some(disk) = &self.disk {
            if self.disk_io_ok() {
                disk.store(spec, fs, profile);
            }
        }
    }

    /// Entries resident in the memory tier.
    pub fn resident(&self) -> usize {
        self.mem.len()
    }

    /// Cumulative hit/miss statistics since creation.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            mem_hits: self.mem_hits.load(Ordering::Relaxed),
            disk_hits: self.disk_hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }

    /// The disk tier, if one is attached.
    pub fn disk(&self) -> Option<&ProfileCache> {
        self.disk.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::probe;
    use cisa_workloads::all_phases;
    use std::path::PathBuf;

    fn tmp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("cisa-store-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let lru: ShardedLru<u32> = ShardedLru::new(1, 2);
        lru.insert(1, 10);
        lru.insert(2, 20);
        assert_eq!(lru.get(1), Some(10)); // refresh key 1
        lru.insert(3, 30); // evicts key 2
        assert_eq!(lru.get(2), None);
        assert_eq!(lru.get(1), Some(10));
        assert_eq!(lru.get(3), Some(30));
        assert_eq!(lru.evictions(), 1);
        assert_eq!(lru.len(), 2);
    }

    #[test]
    fn lru_reinsert_refreshes_without_evicting() {
        let lru: ShardedLru<u32> = ShardedLru::new(1, 2);
        lru.insert(1, 10);
        lru.insert(2, 20);
        lru.insert(1, 11); // refresh, shard stays at capacity
        assert_eq!(lru.evictions(), 0);
        assert_eq!(lru.get(1), Some(11));
        assert_eq!(lru.get(2), Some(20));
    }

    #[test]
    fn lru_spreads_keys_across_shards() {
        let lru: ShardedLru<u64> = ShardedLru::new(8, 64);
        for k in 0..512u64 {
            // FNV-style mixing mimics content-hash keys.
            lru.insert(k.wrapping_mul(0x100000001b3), k);
        }
        assert_eq!(lru.len(), 512);
        assert_eq!(lru.shards(), 8);
        assert_eq!(lru.evictions(), 0);
    }

    #[test]
    fn store_promotes_disk_hits_into_memory() {
        let dir = tmp_dir("promote");
        let spec = &all_phases()[0];
        let fs = FeatureSet::x86_64();
        let p = probe(spec, fs);
        // Seed the disk tier through one store handle...
        ProfileCache::new(&dir).store(spec, fs, &p);
        // ...then read through a fresh two-tier store.
        let store = ShardedProfileStore::new(Some(ProfileCache::new(&dir)));
        assert_eq!(store.resident(), 0);
        assert_eq!(store.load(spec, fs), Some(p), "disk tier must answer");
        assert_eq!(store.load(spec, fs), Some(p), "memory tier must answer");
        let stats = store.stats();
        assert_eq!((stats.mem_hits, stats.disk_hits, stats.misses), (1, 1, 0));
        assert_eq!(store.resident(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn store_writes_reach_both_tiers() {
        let dir = tmp_dir("both");
        let spec = &all_phases()[1];
        let fs = FeatureSet::superset();
        let p = probe(spec, fs);
        let store = ShardedProfileStore::new(Some(ProfileCache::new(&dir)));
        assert_eq!(store.load(spec, fs), None, "cold store must miss");
        store.store(spec, fs, &p);
        assert_eq!(store.load(spec, fs), Some(p));
        // A different handle over the same directory sees the disk copy.
        let other = ShardedProfileStore::new(Some(ProfileCache::new(&dir)));
        assert_eq!(other.load(spec, fs), Some(p));
        assert_eq!(other.stats().disk_hits, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_io_errors_degrade_but_never_corrupt() {
        let dir = tmp_dir("faulty-io");
        let spec = &all_phases()[3];
        let fs = FeatureSet::x86_64();
        let p = probe(spec, fs);
        // Every disk op fails: the store degrades to its memory tier.
        let store = ShardedProfileStore::new(Some(ProfileCache::new(&dir)))
            .with_fault_plan(FaultPlan::new(1).with_store_io_errors(1.0));
        store.store(spec, fs, &p);
        assert_eq!(store.load(spec, fs), Some(p), "memory tier still serves");
        // Nothing reached disk, so a clean handle over the same
        // directory misses — a dropped write, not a torn one.
        let clean = ShardedProfileStore::new(Some(ProfileCache::new(&dir)));
        assert_eq!(clean.load(spec, fs), None);
        assert!(clean.recover().is_clean(), "no torn state left behind");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recover_without_disk_tier_is_a_clean_noop() {
        let store = ShardedProfileStore::new(None);
        assert_eq!(store.recover(), RecoveryReport::default());
    }

    #[test]
    fn memory_only_store_works_without_disk() {
        let spec = &all_phases()[2];
        let fs = FeatureSet::minimal();
        let p = probe(spec, fs);
        let store = ShardedProfileStore::new(None);
        assert_eq!(store.load(spec, fs), None);
        store.store(spec, fs, &p);
        assert_eq!(store.load(spec, fs), Some(p));
        assert!(store.disk().is_none());
    }
}
