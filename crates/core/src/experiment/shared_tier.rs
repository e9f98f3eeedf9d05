//! The shared store/memo tier: one concurrency-safe handle holding every
//! cross-runner cache — generated traces, streaming-persist markers, memoized
//! static simulations — plus the fault policy, health accounting, degraded
//! mode and the cross-process entry lock they all share.
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
//! * **[`HealthCounters`] / [`StoreHealth`]** — every recovery is counted
//!   (hits, misses, regenerations, retries, quarantines, lock steals,
//!   warnings, degraded flag), so "the store survived" is observable in
//!   tests and in the bench JSON rather than anecdotal.
//! * **degraded mode** — after a disk-full or unwritable-directory failure
//!   the tier drops to in-memory-only operation ([`SharedTier::active_dir`]
//!   returns `None`) with a one-time warning, instead of hammering a dead
//!   disk on every request.
//! * **[`SharedTier::lock_entry`]** — a cross-process advisory lock file
//!   (`<entry>.lock`) with a stale-lock timeout, so two *processes* sharing
//!   `RESCACHE_TRACE_DIR` don't both generate the same cold entry; liveness
//!   wins over deduplication (a deadline expiry proceeds unlocked, and a
//!   crashed writer's stale lock is stolen).

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::time::{Duration, Instant, SystemTime};

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

    /// Whether `key`'s slot exists and has been initialized.
    pub fn initialized(&self, key: &K) -> bool {
        let map = self.map.lock().unwrap_or_else(PoisonError::into_inner);
        map.get(key).is_some_and(|slot| slot.get().is_some())
    }

    /// Runs `f` over the slot map under the lock (used for prefix scans).
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
    retries: AtomicU64,
    quarantines: AtomicU64,
    lock_steals: AtomicU64,
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

    /// A generation forced by a fault (corrupt entry, failed read, crashed
    /// sibling) rather than by a cold key.
    pub fn note_regeneration(&self) {
        self.regenerations.fetch_add(1, Ordering::Relaxed);
    }

    /// One transient-error retry absorbed by the bounded-backoff loop.
    pub fn note_retry(&self) {
        self.retries.fetch_add(1, Ordering::Relaxed);
    }

    /// A corrupt entry renamed to its `.corrupt` sidecar.
    pub fn note_quarantine(&self) {
        self.quarantines.fetch_add(1, Ordering::Relaxed);
    }

    /// A stale cross-process lock stolen from a crashed writer.
    pub fn note_lock_steal(&self) {
        self.lock_steals.fetch_add(1, Ordering::Relaxed);
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
            retries: self.retries.load(Ordering::Relaxed),
            quarantines: self.quarantines.load(Ordering::Relaxed),
            lock_steals: self.lock_steals.load(Ordering::Relaxed),
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
    /// Generations forced by faults rather than cold keys.
    pub regenerations: u64,
    /// Transient-error retries absorbed by bounded backoff.
    pub retries: u64,
    /// Corrupt entries quarantined to `.corrupt` sidecars.
    pub quarantines: u64,
    /// Stale cross-process locks stolen from crashed writers.
    pub lock_steals: u64,
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

/// Timing knobs of the cross-process entry lock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LockParams {
    /// A lock file older than this is considered abandoned by a crashed
    /// writer and is stolen.
    pub stale_after: Duration,
    /// Sleep between acquisition attempts while another writer holds the
    /// lock.
    pub poll: Duration,
    /// Total time a waiter spends before giving up and proceeding unlocked
    /// (liveness beats cross-process deduplication).
    pub deadline: Duration,
}

impl Default for LockParams {
    fn default() -> Self {
        Self {
            stale_after: Duration::from_secs(10),
            poll: Duration::from_millis(25),
            deadline: Duration::from_secs(30),
        }
    }
}

/// Outcome of one [`SharedTier::lock_entry`] attempt.
#[derive(Debug)]
pub enum LockOutcome {
    /// This caller holds the lock and must generate the entry; the lock file
    /// is removed when the guard drops.
    Acquired(EntryLockGuard),
    /// The entry appeared while waiting (another writer finished): read it
    /// instead of generating.
    EntryAppeared,
    /// The deadline expired with the lock still held: proceed without the
    /// lock — duplicate cross-process work is acceptable, a hang is not.
    Unlocked,
}

/// Holder of one acquired cross-process entry lock; dropping it releases
/// (removes) the lock file. The removal is best-effort and un-policed: a
/// failure merely leaves a stale lock, which the next waiter steals after
/// [`LockParams::stale_after`].
#[derive(Debug)]
pub struct EntryLockGuard {
    path: PathBuf,
}

impl Drop for EntryLockGuard {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

/// The shared store/memo tier (see the module documentation). Clones share
/// everything — maps, policy, health, degraded flag — which is what makes
/// one tier safely servable to any number of runner instances and threads.
#[derive(Debug, Clone)]
pub struct SharedTier {
    /// Full generated traces, keyed by the trace store's
    /// `(name, fingerprint, seed, total)`.
    pub(crate) traces: Memo<crate::experiment::trace_store::StoreKey, rescache_trace::Trace>,
    /// Once-per-process streaming persists (value: whether the entry is now
    /// on disk).
    pub(crate) persists: Memo<crate::experiment::trace_store::StoreKey, bool>,
    /// Memoized static simulations, keyed by the runner's
    /// `(trace key, system, geometries)`.
    pub(crate) sims: Memo<crate::experiment::runner::SimKey, crate::experiment::runner::StaticSim>,
    /// Recency stamps for the resident full-trace map (see
    /// [`SharedTier::resident_cap`]). Lock ordering: this mutex is always
    /// taken *before* the `traces` map mutex, never inside it.
    pub(crate) trace_lru: Arc<Mutex<TraceLru>>,
    policy: IoPolicy,
    dir: Option<PathBuf>,
    lock: LockParams,
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
    /// A tier persisting to `dir` (`None` = in-memory only) with the given
    /// I/O policy.
    pub fn new(dir: Option<PathBuf>, policy: IoPolicy) -> Self {
        Self {
            traces: Memo::default(),
            persists: Memo::default(),
            sims: Memo::default(),
            trace_lru: Arc::default(),
            policy,
            dir,
            lock: LockParams::default(),
            resident_cap: DEFAULT_RESIDENT_CAP,
            health: Arc::default(),
        }
    }

    /// This tier with the given lock timings (tests shrink them).
    pub fn with_lock_params(mut self, lock: LockParams) -> Self {
        self.lock = lock;
        self
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

    /// The I/O policy every store/codec filesystem operation goes through.
    pub fn policy(&self) -> &IoPolicy {
        &self.policy
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
                 subsequent traces stream without persistence"
            );
        }
    }

    /// Acquires the cross-process advisory lock for `entry` (a `.lock`
    /// sibling file), so two processes sharing a store directory don't both
    /// generate the same cold entry. See [`LockOutcome`] for the three ways
    /// this resolves; a stale lock (older than [`LockParams::stale_after`])
    /// is stolen and counted in [`StoreHealth::lock_steals`].
    pub fn lock_entry(&self, entry: &Path) -> LockOutcome {
        let lock_path = Self::lock_path(entry);
        let start = Instant::now();
        loop {
            match self.policy.create_new(&lock_path) {
                Ok(_) => {
                    let guard = EntryLockGuard { path: lock_path };
                    // Recheck after acquiring: the writer we waited on may
                    // have committed the entry between our existence probe
                    // and its lock release.
                    if entry.exists() {
                        return LockOutcome::EntryAppeared;
                    }
                    return LockOutcome::Acquired(guard);
                }
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {
                    if entry.exists() {
                        return LockOutcome::EntryAppeared;
                    }
                    if self.lock_is_stale(&lock_path) {
                        // Best-effort steal; losing the race to another
                        // stealer just means the next create_new attempt
                        // resolves it.
                        if std::fs::remove_file(&lock_path).is_ok() {
                            self.health.note_lock_steal();
                        }
                        continue;
                    }
                }
                Err(_) => {
                    // Injected or real trouble creating the lock file: fall
                    // through to the deadline check and retry — the lock is
                    // an optimization, never a correctness requirement.
                }
            }
            if start.elapsed() >= self.lock.deadline {
                return LockOutcome::Unlocked;
            }
            std::thread::sleep(self.lock.poll);
        }
    }

    /// Whether the lock file's mtime marks it abandoned. An unreadable mtime
    /// (racing removal, filesystem without mtimes) reads as fresh — waiting
    /// is safe, the deadline bounds it. An mtime *in the future* by more than
    /// `stale_after` also reads as stale: that lock was planted under clock
    /// skew (writer on a fast-running clock, or an NTP step after a crash)
    /// and can never *age* past the threshold from here, so treating it as
    /// fresh would make every accessor eat the full deadline on every access,
    /// forever. Small future skew (within `stale_after`) stays fresh — a live
    /// writer a few ticks ahead of us must not lose its lock.
    fn lock_is_stale(&self, lock_path: &Path) -> bool {
        let Ok(modified) = std::fs::metadata(lock_path).and_then(|m| m.modified()) else {
            return false;
        };
        match SystemTime::now().duration_since(modified) {
            Ok(age) => age > self.lock.stale_after,
            Err(skew) => skew.duration() > self.lock.stale_after,
        }
    }

    /// The lock-file sibling of a store entry (`<file>.lock`).
    fn lock_path(entry: &Path) -> PathBuf {
        let mut name = entry.as_os_str().to_os_string();
        name.push(".lock");
        PathBuf::from(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("rescache-tier-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).expect("create temp dir");
        dir
    }

    fn fast_locks() -> LockParams {
        LockParams {
            stale_after: Duration::from_millis(50),
            poll: Duration::from_millis(5),
            deadline: Duration::from_millis(200),
        }
    }

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
        assert!(memo.initialized(&7));
        assert!(!memo.initialized(&8));
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
        assert!(memo.initialized(&1));
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
        assert!(!memo.initialized(&3), "the failed init left nothing behind");
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
        h.note_retry();
        h.note_quarantine();
        h.note_lock_steal();
        assert!(tier.active_dir().is_some());

        // Degrading latches, warns exactly once, and disables the dir.
        tier.degrade("test disk-full");
        tier.degrade("second call must be silent");
        let snap = tier.health_snapshot();
        assert_eq!(
            (snap.hits, snap.misses, snap.regenerations, snap.retries),
            (2, 1, 1, 1)
        );
        assert_eq!((snap.quarantines, snap.lock_steals), (1, 1));
        assert_eq!(snap.warnings, 1, "one-time warning");
        assert!(snap.degraded);
        assert!(tier.active_dir().is_none(), "degraded mode disables disk");
        assert!(tier.dir().is_some(), "the raw dir is still reported");

        // Clones share the health block and the degraded flag.
        assert!(tier.clone().health_snapshot().degraded);
    }

    #[test]
    fn lock_entry_acquires_releases_and_rechecks() {
        let dir = temp_dir("lock");
        let entry = dir.join("entry.rctrace");
        let tier =
            SharedTier::new(Some(dir.clone()), IoPolicy::none()).with_lock_params(fast_locks());

        let lock_file = dir.join("entry.rctrace.lock");
        let outcome = tier.lock_entry(&entry);
        assert!(matches!(outcome, LockOutcome::Acquired(_)));
        assert!(lock_file.exists(), "the lock file is held");
        drop(outcome);
        assert!(!lock_file.exists(), "dropping the guard releases the lock");

        // With the entry already present, acquisition short-circuits to
        // EntryAppeared (post-acquire recheck) and holds no lock.
        std::fs::write(&entry, b"present").expect("plant entry");
        assert!(matches!(
            tier.lock_entry(&entry),
            LockOutcome::EntryAppeared
        ));
        assert!(!lock_file.exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn waiter_sees_the_entry_appear_under_a_held_lock() {
        let dir = temp_dir("lock-appear");
        let entry = dir.join("entry.rctrace");
        let lock_file = dir.join("entry.rctrace.lock");
        let tier =
            SharedTier::new(Some(dir.clone()), IoPolicy::none()).with_lock_params(fast_locks());

        // Another "process" holds the lock and commits the entry while we
        // wait: the waiter must serve the entry, not steal or expire.
        std::fs::write(&lock_file, b"").expect("foreign lock");
        std::thread::scope(|scope| {
            scope.spawn(|| {
                std::thread::sleep(Duration::from_millis(20));
                std::fs::write(&entry, b"committed").expect("commit entry");
            });
            assert!(matches!(
                tier.lock_entry(&entry),
                LockOutcome::EntryAppeared
            ));
        });
        assert_eq!(tier.health_snapshot().lock_steals, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stale_lock_is_stolen_fresh_lock_expires_to_unlocked() {
        let dir = temp_dir("lock-stale");
        let entry = dir.join("entry.rctrace");
        let lock_file = dir.join("entry.rctrace.lock");
        let tier =
            SharedTier::new(Some(dir.clone()), IoPolicy::none()).with_lock_params(fast_locks());

        // A crashed writer's lock: backdate its mtime past stale_after.
        let file = std::fs::File::create(&lock_file).expect("plant stale lock");
        file.set_modified(std::time::SystemTime::now() - Duration::from_secs(60))
            .expect("backdate lock");
        drop(file);
        let outcome = tier.lock_entry(&entry);
        assert!(matches!(outcome, LockOutcome::Acquired(_)), "{outcome:?}");
        assert_eq!(tier.health_snapshot().lock_steals, 1);
        drop(outcome);

        // A *fresh* foreign lock with no entry forthcoming: the waiter gives
        // up at the deadline and proceeds unlocked. (Staleness is pushed out
        // of reach so the deadline, not the steal, resolves the wait.)
        let patient = tier.clone().with_lock_params(LockParams {
            stale_after: Duration::from_secs(60),
            poll: Duration::from_millis(5),
            deadline: Duration::from_millis(100),
        });
        std::fs::write(&lock_file, b"").expect("fresh foreign lock");
        let started = Instant::now();
        assert!(matches!(patient.lock_entry(&entry), LockOutcome::Unlocked));
        assert!(started.elapsed() >= Duration::from_millis(100));
        assert_eq!(tier.health_snapshot().lock_steals, 1, "no steal this time");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn future_dated_lock_from_clock_skew_is_stolen() {
        // Regression: a crashed writer can leave a lock whose mtime is in
        // the *future* (clock skew, NTP step). `SystemTime::elapsed()` errors
        // on such a timestamp, and the old code read the error as "fresh" —
        // so the lock could never age past stale_after and every accessor ate
        // the full deadline on every access, forever. A future mtime beyond
        // stale_after must be stolen like any other abandoned lock.
        let dir = temp_dir("lock-future");
        let entry = dir.join("entry.rctrace");
        let lock_file = dir.join("entry.rctrace.lock");
        let tier =
            SharedTier::new(Some(dir.clone()), IoPolicy::none()).with_lock_params(fast_locks());

        let file = std::fs::File::create(&lock_file).expect("plant skewed lock");
        file.set_modified(SystemTime::now() + Duration::from_secs(60))
            .expect("future-date lock");
        drop(file);
        let started = Instant::now();
        let outcome = tier.lock_entry(&entry);
        assert!(matches!(outcome, LockOutcome::Acquired(_)), "{outcome:?}");
        assert_eq!(tier.health_snapshot().lock_steals, 1, "stolen, not waited");
        assert!(
            started.elapsed() < fast_locks().deadline,
            "resolved by stealing, not by deadline expiry"
        );
        drop(outcome);

        // Future skew *within* stale_after is a live writer whose clock runs
        // slightly ahead: its lock must be honored until the deadline, not
        // stolen.
        let patient = tier.clone().with_lock_params(LockParams {
            stale_after: Duration::from_secs(60),
            poll: Duration::from_millis(5),
            deadline: Duration::from_millis(100),
        });
        let file = std::fs::File::create(&lock_file).expect("plant near lock");
        file.set_modified(SystemTime::now() + Duration::from_secs(30))
            .expect("slightly-future lock");
        drop(file);
        assert!(matches!(patient.lock_entry(&entry), LockOutcome::Unlocked));
        assert_eq!(
            tier.health_snapshot().lock_steals,
            1,
            "near-future lock was honored (deadline expiry, no second steal)"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resident_cap_builder_and_env_default() {
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
