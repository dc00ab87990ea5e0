//! A thread-safe, memoising design cache for `accel(v, R)`.
//!
//! The selection DP invokes the accelerator model at every unpruned wPST
//! vertex, and the evaluation protocol re-runs selection many times over the
//! same application — once per framework (Cayman / NOVIA / QsCores), once
//! per ablation point, once per α or budget sweep step. The model's output
//! for a candidate depends only on
//!
//! * the model identity and its options ([`ModelId`]), and
//! * the candidate itself ([`CandidateKey`]: function, block set, profile),
//!
//! given fixed per-function analysis inputs — so repeated invocations can be
//! answered from a memo table instead of re-running scheduling, pipelining
//! and interface assignment.
//!
//! A cache is only valid for one analysed application (one
//! module + profile): the keys do not capture `FuncInputs`. Owners that
//! re-analyse must start from a fresh cache (the `cayman` facade ties one
//! cache to one `Framework`, which owns exactly one analysed application).
//!
//! ## Two levels
//!
//! The in-memory stripes can be backed by a persistent second level through
//! [`DesignStoreBackend`] (implemented by `cayman-store`'s content-addressed
//! disk store). The cache is **write-through**: every insert is forwarded to
//! the backing store, and a memory miss consults the store before reporting
//! a miss, promoting disk hits into the missing stripe. Keys carry a content
//! fingerprint of the analysed function, so a persistent entry is valid for
//! every process that analyses the same function with the same model — which
//! is exactly what makes the store shareable across processes.

use cayman_hls::design::AcceleratorDesign;
use cayman_hls::inputs::CandidateKey;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Identity of an accelerator model instance: a model name plus a
/// fingerprint of its options (`0` for option-free models).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ModelId {
    /// Static model name (`"cayman"`, `"novia"`, `"qscores"`, …).
    pub name: &'static str,
    /// Fingerprint of the model's options
    /// (`cayman_hls::interface::ModelOptions::fingerprint`), or `0`.
    pub options: u64,
}

/// Full cache key: model identity × candidate identity.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct DesignKey {
    /// Which model produced the designs.
    pub model: ModelId,
    /// Which candidate they were produced for.
    pub candidate: CandidateKey,
}

/// A persistent second level under the in-memory stripes.
///
/// Implementations must be corruption-tolerant (a bad entry is a miss,
/// never a panic) and safe for concurrent use from many threads and many
/// processes. `save` is called with the designs the model just produced;
/// models are deterministic, so concurrent saves of the same key write
/// identical bytes and last-writer-wins is safe.
pub trait DesignStoreBackend: Send + Sync + std::fmt::Debug {
    /// Loads the memoised designs for `key`, or `None` on any kind of miss
    /// (absent, corrupt, version-mismatched, hash-collided).
    fn load(&self, key: &DesignKey) -> Option<Vec<AcceleratorDesign>>;
    /// Persists `designs` under `key`. Failures are swallowed (the store is
    /// an optimisation, not a source of truth).
    fn save(&self, key: &DesignKey, designs: &[AcceleratorDesign]);
}

/// Number of independent lock stripes. A power of two so the stripe pick is
/// a mask; 16 stripes keep the probability of two of ≤16 workers colliding
/// on one lock low without bloating the cache with empty maps.
const STRIPES: usize = 16;

/// 64-bit FNV-1a — a deterministic, dependency-free [`Hasher`] so stripe
/// assignment is stable across runs and processes (the `HashMap`s inside
/// each stripe still use `RandomState`; only the stripe pick needs to be
/// deterministic).
struct Fnv1a(u64);

impl Hasher for Fnv1a {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
}

/// Which lock stripe a key lives on.
fn stripe_of(key: &DesignKey) -> usize {
    let mut h = Fnv1a(0xCBF2_9CE4_8422_2325);
    key.hash(&mut h);
    // splitmix64 finaliser: FNV-1a's low bits alone mix the tail weakly.
    let mut z = h.finish();
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z as usize) & (STRIPES - 1)
}

/// One lock stripe: its map plus lifetime counters, bumped outside the
/// critical section.
#[derive(Debug, Default)]
struct Stripe {
    map: Mutex<HashMap<DesignKey, Arc<Vec<AcceleratorDesign>>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    inserts: AtomicU64,
}

/// Lifetime counters of one stripe, snapshotted by [`DesignCache::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StripeStats {
    /// Lookups answered from this stripe's map.
    pub hits: u64,
    /// Lookups that missed this stripe's map (disk hits still count a
    /// memory-level miss here; see [`CacheStats::disk_hits`]).
    pub misses: u64,
    /// Map writes (model inserts and disk-hit promotions).
    pub inserts: u64,
    /// Entries currently held.
    pub entries: usize,
}

/// A consistent-enough snapshot of the cache's lifetime counters, per
/// stripe plus the store level — memory-level and store-level hit rates are
/// separately computable (`table2 --json` prints this).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Per-stripe counters, in stripe order (length [`STRIPES`]).
    pub stripes: Vec<StripeStats>,
    /// Memory-level misses answered by the backing store.
    pub disk_hits: u64,
    /// Memory-level misses the backing store also missed.
    pub disk_misses: u64,
}

impl CacheStats {
    /// Total memory-level hits over all stripes.
    pub fn hits(&self) -> u64 {
        self.stripes.iter().map(|s| s.hits).sum()
    }

    /// Total memory-level misses over all stripes.
    pub fn misses(&self) -> u64 {
        self.stripes.iter().map(|s| s.misses).sum()
    }

    /// Total map writes over all stripes.
    pub fn inserts(&self) -> u64 {
        self.stripes.iter().map(|s| s.inserts).sum()
    }

    /// Total entries currently held.
    pub fn entries(&self) -> usize {
        self.stripes.iter().map(|s| s.entries).sum()
    }

    /// Number of stripes holding at least one entry (spread indicator).
    pub fn stripes_used(&self) -> usize {
        self.stripes.iter().filter(|s| s.entries > 0).count()
    }

    /// Accumulates another snapshot into this one (summary rows over many
    /// frameworks).
    pub fn merge(&mut self, other: &CacheStats) {
        if self.stripes.len() < other.stripes.len() {
            self.stripes
                .resize(other.stripes.len(), StripeStats::default());
        }
        for (a, b) in self.stripes.iter_mut().zip(&other.stripes) {
            a.hits += b.hits;
            a.misses += b.misses;
            a.inserts += b.inserts;
            a.entries += b.entries;
        }
        self.disk_hits += other.disk_hits;
        self.disk_misses += other.disk_misses;
    }
}

/// Memoised `accel(v, R)` results, shareable across selection runs and
/// across threads within a run.
///
/// Entries are `Arc`ed so hits hand out cheap clones of the design vector.
/// The table is sharded into [`STRIPES`] independently locked stripes keyed
/// by a deterministic hash of the [`DesignKey`], so parallel workers probing
/// different candidates do not serialise on one global lock. Hit/miss/insert
/// counters are per stripe (lifetime totals) and are bumped outside the
/// critical section; per-run counts are tracked by the DP's own stats.
///
/// An optional [`DesignStoreBackend`] turns the cache into the first level
/// of a two-level hierarchy (see the module docs).
#[derive(Debug, Default)]
pub struct DesignCache {
    stripes: [Stripe; STRIPES],
    disk_hits: AtomicU64,
    disk_misses: AtomicU64,
    backing: Option<Arc<dyn DesignStoreBackend>>,
}

impl DesignCache {
    /// An empty cache with no backing store.
    pub fn new() -> Self {
        DesignCache::default()
    }

    /// Attaches a persistent second level. Subsequent inserts write through
    /// to it and memory misses consult it. Intended to be called once,
    /// before the cache warms.
    pub fn set_backing(&mut self, backing: Arc<dyn DesignStoreBackend>) {
        self.backing = Some(backing);
    }

    /// Whether a backing store is attached.
    pub fn has_backing(&self) -> bool {
        self.backing.is_some()
    }

    /// Looks up memoised designs, counting a hit or a miss. Only the key's
    /// stripe is locked, and only for the probe itself. On a memory miss
    /// the backing store (when attached) is consulted and a disk hit is
    /// promoted into the stripe.
    ///
    /// The flag is `true` when this call promoted the designs from the
    /// backing store, so a caller can count its own disk hits: the
    /// lifetime [`CacheStats::disk_hits`] mixes every caller sharing the
    /// cache.
    pub fn lookup(&self, key: &DesignKey) -> Option<(Arc<Vec<AcceleratorDesign>>, bool)> {
        let stripe = &self.stripes[stripe_of(key)];
        let found = {
            let map = stripe.map.lock().expect("design cache poisoned");
            map.get(key).cloned()
        };
        if let Some(designs) = found {
            stripe.hits.fetch_add(1, Ordering::Relaxed);
            return Some((designs, false));
        }
        stripe.misses.fetch_add(1, Ordering::Relaxed);
        let backing = self.backing.as_ref()?;
        match backing.load(key) {
            Some(designs) => {
                self.disk_hits.fetch_add(1, Ordering::Relaxed);
                let arc = Arc::new(designs);
                stripe.inserts.fetch_add(1, Ordering::Relaxed);
                stripe
                    .map
                    .lock()
                    .expect("design cache poisoned")
                    .insert(key.clone(), Arc::clone(&arc));
                Some((arc, true))
            }
            None => {
                self.disk_misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Memoises `designs` under `key`, writing through to the backing store
    /// when one is attached. Concurrent inserts of the same key are benign:
    /// models are deterministic, so both values are identical and
    /// last-writer-wins is safe.
    pub fn insert(
        &self,
        key: DesignKey,
        designs: Vec<AcceleratorDesign>,
    ) -> Arc<Vec<AcceleratorDesign>> {
        if let Some(backing) = &self.backing {
            backing.save(&key, &designs);
        }
        let arc = Arc::new(designs);
        let stripe = &self.stripes[stripe_of(&key)];
        stripe.inserts.fetch_add(1, Ordering::Relaxed);
        stripe
            .map
            .lock()
            .expect("design cache poisoned")
            .insert(key, Arc::clone(&arc));
        arc
    }

    /// Number of memoised candidate entries, summed over stripes.
    pub fn len(&self) -> usize {
        self.stripes
            .iter()
            .map(|s| s.map.lock().expect("design cache poisoned").len())
            .sum()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of every stripe's lifetime counters plus the store-level
    /// hit/miss totals.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            stripes: self
                .stripes
                .iter()
                .map(|s| StripeStats {
                    hits: s.hits.load(Ordering::Relaxed),
                    misses: s.misses.load(Ordering::Relaxed),
                    inserts: s.inserts.load(Ordering::Relaxed),
                    entries: s.map.lock().expect("design cache poisoned").len(),
                })
                .collect(),
            disk_hits: self.disk_hits.load(Ordering::Relaxed),
            disk_misses: self.disk_misses.load(Ordering::Relaxed),
        }
    }

    /// Drops all in-memory entries and resets the lifetime counters. The
    /// backing store (when attached) keeps its entries: clearing memory is
    /// a per-process operation, the store is shared.
    pub fn clear(&self) {
        for stripe in &self.stripes {
            stripe.map.lock().expect("design cache poisoned").clear();
            stripe.hits.store(0, Ordering::Relaxed);
            stripe.misses.store(0, Ordering::Relaxed);
            stripe.inserts.store(0, Ordering::Relaxed);
        }
        self.disk_hits.store(0, Ordering::Relaxed);
        self.disk_misses.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cayman_ir::{BlockId, FuncId};

    fn key(func: u32, entries: u64) -> DesignKey {
        DesignKey {
            model: ModelId {
                name: "test",
                options: 1,
            },
            candidate: CandidateKey {
                func: FuncId(func),
                content_fp: 0xfeed,
                blocks: vec![BlockId(0), BlockId(1)],
                entries,
                cpu_cycles: 100,
                is_bb: false,
            },
        }
    }

    #[test]
    fn lookup_insert_roundtrip_and_counters() {
        let cache = DesignCache::new();
        assert!(cache.is_empty());
        assert!(cache.lookup(&key(0, 1)).is_none());
        cache.insert(key(0, 1), Vec::new());
        let (hit, from_backing) = cache.lookup(&key(0, 1)).expect("hit");
        assert!(hit.is_empty());
        assert!(!from_backing, "no backing store attached");
        assert_eq!(cache.len(), 1);
        let stats = cache.stats();
        assert_eq!((stats.hits(), stats.misses()), (1, 1));
        // distinct candidate → distinct entry
        assert!(cache.lookup(&key(0, 2)).is_none());
        cache.insert(key(0, 2), Vec::new());
        assert_eq!(cache.len(), 2);
        cache.clear();
        assert!(cache.is_empty());
        let stats = cache.stats();
        assert_eq!((stats.hits(), stats.misses()), (0, 0));
    }

    #[test]
    fn model_identity_partitions_the_cache() {
        let cache = DesignCache::new();
        let mut a = key(0, 1);
        cache.insert(a.clone(), Vec::new());
        a.model = ModelId {
            name: "other",
            options: 1,
        };
        assert!(cache.lookup(&a).is_none(), "different model must miss");
        a.model = ModelId {
            name: "test",
            options: 2,
        };
        assert!(cache.lookup(&a).is_none(), "different options must miss");
    }

    #[test]
    fn stripe_assignment_is_deterministic_and_spreads() {
        let keys: Vec<DesignKey> = (0..64).map(|i| key(i, u64::from(i))).collect();
        let stripes: Vec<usize> = keys.iter().map(stripe_of).collect();
        // stable across repeated hashing
        assert_eq!(stripes, keys.iter().map(stripe_of).collect::<Vec<_>>());
        let used: std::collections::HashSet<usize> = stripes.iter().copied().collect();
        assert!(
            used.len() > STRIPES / 2,
            "64 distinct keys landed on only {} stripe(s)",
            used.len()
        );
        assert!(used.iter().all(|&s| s < STRIPES));
    }

    #[test]
    fn striped_cache_survives_concurrent_mixed_use() {
        let cache = DesignCache::new();
        for i in 0..64 {
            cache.insert(key(i, 1), Vec::new());
        }
        assert_eq!(cache.len(), 64);
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let cache = &cache;
                s.spawn(move || {
                    for i in 0..64 {
                        assert!(cache.lookup(&key(i, 1)).is_some(), "pre-seeded key missing");
                        cache.insert(key(i, t + 2), Vec::new());
                    }
                });
            }
        });
        assert_eq!(cache.len(), 64 * 5, "64 seeded + 4×64 distinct inserts");
        let stats = cache.stats();
        assert_eq!((stats.hits(), stats.misses()), (4 * 64, 0));
        cache.clear();
        assert!(cache.is_empty());
    }

    #[test]
    fn stats_snapshot_sums_over_stripes() {
        let cache = DesignCache::new();
        for i in 0..32 {
            cache.lookup(&key(i, 1));
            cache.insert(key(i, 1), Vec::new());
            cache.lookup(&key(i, 1));
        }
        let stats = cache.stats();
        assert_eq!(stats.stripes.len(), STRIPES);
        assert_eq!(stats.hits(), 32);
        assert_eq!(stats.misses(), 32);
        assert_eq!(stats.inserts(), 32);
        assert_eq!(stats.entries(), cache.len());
        assert!(stats.stripes_used() > 1, "32 keys spread over stripes");
        assert_eq!((stats.disk_hits, stats.disk_misses), (0, 0));
        let mut merged = stats.clone();
        merged.merge(&stats);
        assert_eq!(merged.hits(), 64);
        assert_eq!(merged.entries(), 2 * cache.len());
    }

    /// An in-memory [`DesignStoreBackend`] for exercising the write-through
    /// and promote paths without touching disk.
    #[derive(Debug, Default)]
    struct MapStore {
        entries: Mutex<HashMap<DesignKey, Vec<AcceleratorDesign>>>,
        loads: AtomicU64,
        saves: AtomicU64,
    }

    impl DesignStoreBackend for MapStore {
        fn load(&self, key: &DesignKey) -> Option<Vec<AcceleratorDesign>> {
            self.loads.fetch_add(1, Ordering::Relaxed);
            self.entries.lock().unwrap().get(key).cloned()
        }

        fn save(&self, key: &DesignKey, designs: &[AcceleratorDesign]) {
            self.saves.fetch_add(1, Ordering::Relaxed);
            self.entries
                .lock()
                .unwrap()
                .insert(key.clone(), designs.to_vec());
        }
    }

    #[test]
    fn write_through_backing_promotes_on_memory_miss() {
        let store = Arc::new(MapStore::default());
        let mut warm = DesignCache::new();
        warm.set_backing(Arc::clone(&store) as Arc<dyn DesignStoreBackend>);
        assert!(warm.has_backing());

        // miss both levels, then write through
        assert!(warm.lookup(&key(0, 1)).is_none());
        warm.insert(key(0, 1), Vec::new());
        assert_eq!(store.saves.load(Ordering::Relaxed), 1);
        assert_eq!(warm.stats().disk_misses, 1);

        // a fresh cache over the same store: memory misses, store hits,
        // entry promoted so the second lookup never reaches the store
        let mut fresh = DesignCache::new();
        fresh.set_backing(Arc::clone(&store) as Arc<dyn DesignStoreBackend>);
        let (_, promoted) = fresh.lookup(&key(0, 1)).expect("disk hit serves lookup");
        assert!(promoted, "the caller sees its own disk hit");
        let loads_after_promote = store.loads.load(Ordering::Relaxed);
        let (_, promoted) = fresh.lookup(&key(0, 1)).expect("memory hit");
        assert!(!promoted, "a memory hit is not a disk hit");
        assert_eq!(
            store.loads.load(Ordering::Relaxed),
            loads_after_promote,
            "promoted entry answers from memory"
        );
        let stats = fresh.stats();
        assert_eq!(stats.disk_hits, 1);
        assert_eq!(stats.misses(), 1, "only the first probe missed memory");
        assert_eq!(stats.hits(), 1);
        assert_eq!(stats.entries(), 1);
    }
}
