//! The shared store/memo tier: one concurrency-safe handle holding every
//! cross-runner cache — resident generated traces and memoized static
//! simulations — plus the health accounting and degraded mode they all
//! share.
//!
//! This is the ROADMAP's named prereq for the sweep server: any number of
//! [`Runner`](crate::experiment::Runner) instances (or server connections)
//! clone one `SharedTier` and hit the same single-flight memos, so a sweep
//! fanned out over threads generates each trace and runs each simulation
//! exactly once per process. The tier is also where the robustness
//! machinery lives:
//!
//! * **[`Memo`]** — the per-key `OnceLock` single-flight map, with *poison
//!   recovery*: a worker that panics mid-generation poisons nothing
//!   permanently, because the outer mutex only guards slot lookup (safe to
//!   recover — the map's values are write-once `OnceLock`s) and a panicked
//!   `OnceLock` initializer leaves the slot empty for the next caller.
//! * **[`HealthCounters`] / [`StoreHealth`]** — every landing is counted
//!   (hits, misses, regenerations, warnings, degraded flag), so "the store
//!   survived" is observable in tests and in the bench JSON rather than
//!   anecdotal.
//! * **degraded mode** — after the first failed save (or an uncreatable
//!   store directory) the tier drops to in-memory-only operation
//!   ([`SharedTier::active_dir`] returns `None`) with a one-time warning,
//!   instead of hammering a dead disk on every request.
//!
//! Two *processes* sharing one store directory need no lock: every save
//! writes a per-writer temp file and renames it into place, so a cold entry
//! generated by both is written twice but never seen torn.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use rescache_trace::IoPolicy;

/// Default cap on resident full traces (see [`SharedTier::resident_cap`]):
/// generous for batch sweeps (a full 12-app × warm/measure sweep keeps under
/// half of this), while bounding a long-lived server replaying arbitrarily
/// many distinct workloads.
pub const DEFAULT_RESIDENT_CAP: usize = 64;

/// A shared once-per-key memoization map: the outer mutex is held only to
/// fetch or insert a slot, while the per-key [`OnceLock`] serializes
/// (blocking) the single computation of that key's value.
///
/// Both layers tolerate a panicking computation. The mutex is recovered from
/// poisoning (`PoisonError::into_inner`) — sound because the guarded state
/// is only the slot map, whose values are write-once cells that are either
/// fully initialized or untouched. A panicked initializer leaves its
/// `OnceLock` empty, so the next caller for that key simply runs the
/// computation again.
#[derive(Debug)]
pub struct Memo<K, V> {
    map: Arc<Mutex<HashMap<K, Arc<OnceLock<V>>>>>,
}

impl<K, V> Clone for Memo<K, V> {
    fn clone(&self) -> Self {
        Self {
            map: Arc::clone(&self.map),
        }
    }
}

impl<K, V> Default for Memo<K, V> {
    fn default() -> Self {
        Self {
            map: Arc::default(),
        }
    }
}

impl<K: std::hash::Hash + Eq, V> Memo<K, V> {
    /// Fetches (inserting if absent) the single-flight slot for `key`. The
    /// caller runs `slot.get_or_init(..)` *outside* the map lock, so slow
    /// computations never serialize unrelated keys.
    pub fn slot(&self, key: K) -> Arc<OnceLock<V>> {
        let mut map = self.map.lock().unwrap_or_else(PoisonError::into_inner);
        Arc::clone(map.entry(key).or_default())
    }

    /// Runs `f` over the slot map under the lock (the resident-trace
    /// eviction scan).
    pub fn with_map<R>(&self, f: impl FnOnce(&HashMap<K, Arc<OnceLock<V>>>) -> R) -> R {
        let map = self.map.lock().unwrap_or_else(PoisonError::into_inner);
        f(&map)
    }

    /// Removes `key`'s slot, so the next request recomputes.
    pub fn remove(&self, key: &K) {
        let mut map = self.map.lock().unwrap_or_else(PoisonError::into_inner);
        map.remove(key);
    }

    /// Number of slots holding an initialized value.
    pub fn initialized_count(&self) -> usize {
        let map = self.map.lock().unwrap_or_else(PoisonError::into_inner);
        map.values().filter(|slot| slot.get().is_some()).count()
    }
}

/// Live recovery counters of one shared tier (atomics: every recording site
/// is on a concurrent path). Read via [`HealthCounters::snapshot`].
#[derive(Debug, Default)]
pub struct HealthCounters {
    hits: AtomicU64,
    misses: AtomicU64,
    regenerations: AtomicU64,
    warnings: AtomicU64,
    evictions: AtomicU64,
    requests: AtomicU64,
    served: AtomicU64,
    coalesced: AtomicU64,
    degraded: AtomicBool,
}

impl HealthCounters {
    /// A request served from memoized or persisted state.
    pub fn note_hit(&self) {
        self.hits.fetch_add(1, Ordering::Relaxed);
    }

    /// A cold request that ran its generation/simulation (the single-flight
    /// initializer) — bounded by the number of distinct keys per process.
    pub fn note_miss(&self) {
        self.misses.fetch_add(1, Ordering::Relaxed);
    }

    /// A generation forced by an existing entry that failed to load
    /// (unreadable, corrupt, truncated, mislabeled or of a retired format)
    /// rather than by a cold key.
    pub fn note_regeneration(&self) {
        self.regenerations.fetch_add(1, Ordering::Relaxed);
    }

    /// One warning printed (warnings are also counted so tests can assert
    /// the "one-time" in one-time warning).
    pub fn note_warning(&self) {
        self.warnings.fetch_add(1, Ordering::Relaxed);
    }

    /// A resident full trace evicted by the [`SharedTier::resident_cap`]
    /// bound.
    pub fn note_eviction(&self) {
        self.evictions.fetch_add(1, Ordering::Relaxed);
    }

    /// One protocol request accepted by the sweep service.
    pub fn note_request(&self) {
        self.requests.fetch_add(1, Ordering::Relaxed);
    }

    /// One simulation result line served back to a sweep-service client.
    pub fn note_served(&self) {
        self.served.fetch_add(1, Ordering::Relaxed);
    }

    /// A request that neither found an initialized memo slot nor ran the
    /// computation itself: it blocked on a sibling's in-flight single-flight
    /// initializer and shared the result. The server's dedup guarantee —
    /// N concurrent clients, one simulation — is `coalesced + hits` covering
    /// everything beyond the single miss per distinct key.
    pub fn note_coalesced(&self) {
        self.coalesced.fetch_add(1, Ordering::Relaxed);
    }

    /// Flips the tier into degraded (in-memory-only) mode; true only for the
    /// caller that performed the transition — which is the caller that must
    /// print the one-time warning.
    pub fn mark_degraded(&self) -> bool {
        !self.degraded.swap(true, Ordering::Relaxed)
    }

    /// Whether the tier has degraded to in-memory-only operation.
    pub fn is_degraded(&self) -> bool {
        self.degraded.load(Ordering::Relaxed)
    }

    /// A point-in-time copy of every counter.
    pub fn snapshot(&self) -> StoreHealth {
        StoreHealth {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            regenerations: self.regenerations.load(Ordering::Relaxed),
            warnings: self.warnings.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            requests: self.requests.load(Ordering::Relaxed),
            served: self.served.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
            degraded: self.degraded.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time snapshot of a tier's [`HealthCounters`]: the observable
/// the stress tests assert on and the bench JSON reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreHealth {
    /// Requests served from memoized or persisted state.
    pub hits: u64,
    /// Cold single-flight generations/simulations.
    pub misses: u64,
    /// Generations forced by an existing entry that failed to load rather
    /// than by cold keys.
    pub regenerations: u64,
    /// Warnings printed.
    pub warnings: u64,
    /// Resident full traces evicted by the resident cap.
    pub evictions: u64,
    /// Protocol requests accepted by the sweep service.
    pub requests: u64,
    /// Result lines served back to sweep-service clients.
    pub served: u64,
    /// Requests that blocked on (and shared) a sibling's in-flight
    /// computation instead of running their own.
    pub coalesced: u64,
    /// Whether the tier is in in-memory-only degraded mode.
    pub degraded: bool,
}

impl StoreHealth {
    /// The fraction of memo lookups answered without running a computation —
    /// the sweep service's headline "result cache hit rate". Coalesced
    /// lookups count as hits (the work was shared, not repeated); returns
    /// `None` before any lookup has happened.
    pub fn result_cache_hit_rate(&self) -> Option<f64> {
        let shared = self.hits + self.coalesced;
        let total = shared + self.misses;
        (total > 0).then(|| shared as f64 / total as f64)
    }
}

/// The shared store/memo tier (see the module documentation). Clones share
/// everything — maps, health, degraded flag — which is what makes
/// one tier safely servable to any number of runner instances and threads.
#[derive(Debug, Clone)]
pub struct SharedTier {
    /// Full generated traces, keyed by the trace store's
    /// `(name, fingerprint, seed, total)`.
    pub(crate) traces: Memo<crate::experiment::trace_store::StoreKey, rescache_trace::Trace>,
    /// Memoized static simulations, keyed by the runner's
    /// `(trace key, system, geometries)`.
    pub(crate) sims: Memo<crate::experiment::runner::SimKey, crate::experiment::runner::StaticSim>,
    /// Recency stamps for the resident full-trace map (see
    /// [`SharedTier::resident_cap`]). Lock ordering: this mutex is always
    /// taken *before* the `traces` map mutex, never inside it.
    pub(crate) trace_lru: Arc<Mutex<TraceLru>>,
    dir: Option<PathBuf>,
    resident_cap: usize,
    health: Arc<HealthCounters>,
}

/// Recency bookkeeping for resident full traces: a monotonic use clock and
/// each key's last-use stamp. Kept beside the `traces` [`Memo`] rather than
/// inside it so eviction policy stays out of the single-flight machinery.
#[derive(Debug, Default)]
pub(crate) struct TraceLru {
    pub(crate) clock: u64,
    pub(crate) last_use: HashMap<crate::experiment::trace_store::StoreKey, u64>,
}

impl Default for SharedTier {
    fn default() -> Self {
        Self::new(None, IoPolicy::none())
    }
}

impl SharedTier {
    /// A tier persisting to `dir` (`None` = in-memory only). The policy is
    /// ignored: [`IoPolicy`] has only [`IoPolicy::none`], and the parameter
    /// stays because the standalone benchmark builds its tier with it.
    pub fn new(dir: Option<PathBuf>, _policy: IoPolicy) -> Self {
        Self {
            traces: Memo::default(),
            sims: Memo::default(),
            trace_lru: Arc::default(),
            dir,
            resident_cap: DEFAULT_RESIDENT_CAP,
            health: Arc::default(),
        }
    }

    /// This tier with the given cap on resident full traces (clamped to at
    /// least 1 — the trace being served must stay resident).
    pub fn with_resident_cap(mut self, cap: usize) -> Self {
        self.resident_cap = cap.max(1);
        self
    }

    /// Maximum number of full traces the tier keeps materialized at once;
    /// beyond it, the least-recently-used resident trace is evicted (counted
    /// in [`StoreHealth::evictions`]). Evicted traces are not lost — the next
    /// request re-reads from disk or regenerates, exactly like a cold key.
    pub fn resident_cap(&self) -> usize {
        self.resident_cap
    }

    /// The configured persistence directory, degraded or not.
    pub fn dir(&self) -> Option<&Path> {
        self.dir.as_deref()
    }

    /// The persistence directory *if the tier is still willing to use it*:
    /// `None` once degraded mode has latched. Every disk-path decision in
    /// the store goes through this, which is what makes degradation
    /// store-wide and immediate.
    pub fn active_dir(&self) -> Option<&Path> {
        if self.health.is_degraded() {
            None
        } else {
            self.dir.as_deref()
        }
    }

    /// The tier's health counters (recording sites).
    pub fn health(&self) -> &HealthCounters {
        &self.health
    }

    /// A point-in-time snapshot of the tier's health.
    pub fn health_snapshot(&self) -> StoreHealth {
        self.health.snapshot()
    }

    /// Latches degraded (in-memory-only) mode, printing the one-time
    /// warning on the transition. Safe to call from any number of threads —
    /// exactly one prints.
    pub fn degrade(&self, why: &str) {
        if self.health.mark_degraded() {
            self.health.note_warning();
            eprintln!(
                "rescache: trace store degrading to in-memory-only operation ({why}); \
                 subsequent traces are kept in memory only"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn memo_single_flights_and_shares() {
        let memo: Memo<u32, u64> = Memo::default();
        let runs = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    let slot = memo.slot(7);
                    let v = *slot.get_or_init(|| {
                        runs.fetch_add(1, Ordering::Relaxed);
                        99
                    });
                    assert_eq!(v, 99);
                });
            }
        });
        assert_eq!(runs.load(Ordering::Relaxed), 1, "one computation per key");
        assert_eq!(memo.initialized_count(), 1);
        assert_eq!(memo.slot(7).get(), Some(&99));
        assert_eq!(memo.slot(8).get(), None);
        memo.remove(&7);
        assert_eq!(memo.initialized_count(), 0);
    }

    #[test]
    fn memo_recovers_from_a_poisoned_map_lock() {
        let memo: Memo<u32, u64> = Memo::default();
        let slot = memo.slot(1);
        slot.set(5).expect("fresh slot");
        // Poison the outer mutex by panicking while holding it.
        let memo_ref = &memo;
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            memo_ref.with_map(|_| panic!("poison the map lock"));
        }));
        assert!(result.is_err());
        // Every access path recovers instead of propagating the poison.
        assert_eq!(memo.slot(1).get(), Some(&5));
        assert_eq!(memo.initialized_count(), 1);
        memo.remove(&1);
        assert_eq!(memo.initialized_count(), 0);
    }

    #[test]
    fn a_panicked_initializer_leaves_the_slot_retryable() {
        // The single-flight guarantee must not turn one worker's panic into
        // a permanently-wedged key: OnceLock's poison-tolerant initializer
        // lets the next caller run the computation again.
        let memo: Memo<u32, u64> = Memo::default();
        let slot = memo.slot(3);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            slot.get_or_init(|| panic!("worker died mid-generation"));
        }));
        assert!(result.is_err());
        assert_eq!(
            memo.slot(3).get(),
            None,
            "the failed init left nothing behind"
        );
        let v = *memo.slot(3).get_or_init(|| 42);
        assert_eq!(v, 42, "the sibling's retry succeeds");
    }

    #[test]
    fn health_counters_snapshot_and_degrade_once() {
        let tier = SharedTier::new(Some(PathBuf::from("/tmp/never-used")), IoPolicy::none());
        let h = tier.health();
        h.note_hit();
        h.note_hit();
        h.note_miss();
        h.note_regeneration();
        assert!(tier.active_dir().is_some());

        // Degrading latches, warns exactly once, and disables the dir.
        tier.degrade("test save failure");
        tier.degrade("second call must be silent");
        let snap = tier.health_snapshot();
        assert_eq!((snap.hits, snap.misses, snap.regenerations), (2, 1, 1));
        assert_eq!(snap.warnings, 1, "one-time warning");
        assert!(snap.degraded);
        assert!(tier.active_dir().is_none(), "degraded mode disables disk");
        assert!(tier.dir().is_some(), "the raw dir is still reported");

        // Clones share the health block and the degraded flag.
        assert!(tier.clone().health_snapshot().degraded);
    }

    #[test]
    fn resident_cap_builder_and_default() {
        let tier = SharedTier::default();
        assert_eq!(tier.resident_cap(), DEFAULT_RESIDENT_CAP);
        assert_eq!(tier.with_resident_cap(3).resident_cap(), 3);
        assert_eq!(
            SharedTier::default().with_resident_cap(0).resident_cap(),
            1,
            "cap clamps to 1: the trace being served must stay resident"
        );
    }
}
