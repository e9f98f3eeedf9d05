//! The shared store/memo tier: one concurrency-safe handle holding every
//! cross-runner cache — resident generated traces and memoized static
//! simulations — plus the health accounting and degraded mode they all
//! share. The tier is also the trace store: trace acquisition and
//! persistence are its methods in [`trace_store`](super::trace_store), and
//! [`TraceStore`](super::TraceStore) is another name for it.
//!
//! This is the ROADMAP's named prereq for the sweep server: any number of
//! [`Runner`](crate::experiment::Runner) instances (or server connections)
//! clone one `SharedTier` and hit the same single-flight memos, so a sweep
//! fanned out over threads generates each trace and runs each simulation
//! exactly once per process. The tier is also where the robustness
//! machinery lives:
//!
//! * **the memo** — one per-key `OnceLock` single-flight map per cache. Its
//!   one lookup counts how each request lands (a warm slot is a hit, a
//!   lookup that waited on a sibling's computation is coalesced, and the
//!   computation counts its own miss or store load) and keeps each key's
//!   recency stamp under the same lock, so the trace memo evicts its
//!   least-recently-used traces beyond [`SharedTier::resident_cap`] with no
//!   second lock to order. It makes room *before* a cold computation runs,
//!   so a trace being generated never sits beside a full memo, and it never
//!   evicts a trace a running simulation still holds (that would free
//!   nothing and make the simulation's next lookup regenerate it). A worker
//!   that panics mid-generation poisons nothing permanently: the mutex only
//!   guards slot lookup and stamps (safe to recover — the map's values are
//!   write-once `OnceLock`s), and a panicked `OnceLock` initializer leaves
//!   the slot empty for the next caller.
//! * **the resident cap** — one full trace by default: the memo keeps the
//!   traces that running jobs hold plus the one used last. A static search
//!   replays one application's trace at a time, so a sequential sweep needs
//!   one resident trace (a paper-length trace is 29.75 MiB). Concurrent
//!   callers keep their own traces by holding them — a held trace is never
//!   evicted, so the cap yields to it — rather than through a larger cap;
//!   the figure drivers hold each application's trace for its whole job. A
//!   long-lived server whose clients interleave applications between
//!   requests raises the cap with [`SharedTier::with_resident_cap`], or
//!   evicted traces are regenerated (or reloaded from the store directory)
//!   on their next request.
//! * **[`StoreHealth`]** — every landing is counted (hits, misses,
//!   coalesced, regenerations, evictions, warnings, degraded flag), so "the
//!   store survived" is observable in tests and in the bench JSON rather
//!   than anecdotal.
//! * **degraded mode** — after the first failed save (or an uncreatable
//!   store directory) the tier drops to in-memory-only operation
//!   ([`SharedTier::active_dir`] returns `None`) with a one-time warning,
//!   instead of hammering a dead disk on every request.
//!
//! Two *processes* sharing one store directory need no lock: every save
//! writes a per-writer temp file and renames it into place, so a cold entry
//! generated by both is written twice but never seen torn.

use std::collections::HashMap;
use std::hash::Hash;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

use rescache_trace::{IoPolicy, Trace};

/// A memoized value that can tell whether a handle outside its memo slot
/// still holds it. A capped [`Memo`] never evicts such a value: dropping the
/// slot's copy would free nothing, and the holder's next lookup would
/// compute it again.
pub(crate) trait Held {
    /// Whether a handle other than the memo slot's own shares this value.
    fn is_held(&self) -> bool;
}

impl Held for Trace {
    fn is_held(&self) -> bool {
        self.is_shared()
    }
}

impl<T> Held for Arc<T> {
    fn is_held(&self) -> bool {
        Arc::strong_count(self) > 1
    }
}

/// A shared once-per-key memoization map with its landing accounting and,
/// when capped, least-recently-used eviction of values no one else holds.
///
/// One mutex guards the slot map and the recency stamps; it is held only to
/// fetch, stamp or evict slots, while each key's [`OnceLock`] serializes
/// (blocking) the single computation of that key's value, so slow
/// computations never serialize unrelated keys.
///
/// Both layers tolerate a panicking computation. The mutex is recovered from
/// poisoning (`PoisonError::into_inner`) — sound because the guarded state
/// is only the slot map and its stamps, whose values are write-once cells
/// that are either fully initialized or untouched. A panicked initializer
/// leaves its `OnceLock` empty, so the next caller for that key simply runs
/// the computation again.
#[derive(Debug)]
pub(crate) struct Memo<K, V> {
    slots: Arc<Mutex<Slots<K, V>>>,
    /// Most initialized slots kept once a computation lands, counting the
    /// one it lands in (`usize::MAX`: unbounded).
    cap: usize,
}

/// The state behind a [`Memo`]'s mutex.
#[derive(Debug)]
struct Slots<K, V> {
    map: HashMap<K, Slot<V>>,
    /// Use clock: the stamp of the latest served lookup.
    clock: u64,
}

/// One key's single-flight cell and recency stamp.
#[derive(Debug)]
struct Slot<V> {
    cell: Arc<OnceLock<V>>,
    /// Clock value of the latest lookup that served this key; 0 until its
    /// first, so a never-stamped slot sorts oldest.
    last_use: u64,
}

impl<K, V> Clone for Memo<K, V> {
    fn clone(&self) -> Self {
        Self {
            slots: Arc::clone(&self.slots),
            cap: self.cap,
        }
    }
}

impl<K, V> Default for Memo<K, V> {
    fn default() -> Self {
        Self::bounded(usize::MAX)
    }
}

impl<K, V> Memo<K, V> {
    /// An empty memo keeping at most `cap` initialized slots.
    pub(crate) fn bounded(cap: usize) -> Self {
        Self {
            slots: Arc::new(Mutex::new(Slots {
                map: HashMap::new(),
                clock: 0,
            })),
            cap,
        }
    }

    fn lock(&self) -> MutexGuard<'_, Slots<K, V>> {
        self.slots.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Number of slots holding an initialized value.
    pub(crate) fn initialized_count(&self) -> usize {
        self.lock()
            .map
            .values()
            .filter(|slot| slot.cell.get().is_some())
            .count()
    }
}

impl<K: Hash + Eq + Clone, V: Clone + Held> Memo<K, V> {
    /// `key`'s value, computed by `init` at most once however many callers
    /// race, with the landing counted in `health`: a warm slot is a hit and
    /// a lookup that blocked on a sibling's computation is coalesced. The
    /// lookup that runs `init` counts nothing itself — `init` counts its
    /// own landing (a miss, or how a store entry loaded).
    ///
    /// Every served lookup stamps `key` as the most recently used. A lookup
    /// of a cold key first evicts the least-recently-used initialized slots
    /// until at most cap − 1 others remain, so the value about to be
    /// computed fits under the cap, and evicts again once it lands in case
    /// a sibling's landed meanwhile. Each eviction is counted in `health`;
    /// `key` itself, in-flight slots and values still [held](Held)
    /// elsewhere are never evicted, so the cap yields to values in use.
    pub(crate) fn get_or_init(
        &self,
        key: K,
        health: &HealthCounters,
        init: impl FnOnce() -> V,
    ) -> V {
        let keep = self.cap.saturating_sub(1);
        let cell = {
            let mut guard = self.lock();
            let slots = &mut *guard;
            let slot = slots.map.entry(key.clone()).or_insert_with(|| Slot {
                cell: Arc::default(),
                last_use: 0,
            });
            if let Some(value) = slot.cell.get() {
                slots.clock += 1;
                slot.last_use = slots.clock;
                health.note_hit();
                return value.clone();
            }
            let cell = Arc::clone(&slot.cell);
            slots.evict_others(&key, keep, health);
            cell
        };
        let mut ran = false;
        let value = cell
            .get_or_init(|| {
                ran = true;
                init()
            })
            .clone();
        if !ran {
            health.note_coalesced();
        }
        let mut slots = self.lock();
        slots.stamp(&key);
        slots.evict_others(&key, keep, health);
        value
    }
}

impl<K: Hash + Eq + Clone, V: Held> Slots<K, V> {
    /// Stamps `key` (if still present) as just used.
    fn stamp(&mut self, key: &K) {
        self.clock += 1;
        if let Some(slot) = self.map.get_mut(key) {
            slot.last_use = self.clock;
        }
    }

    /// Evicts the least-recently-used initialized slots other than `key`
    /// whose values no one else [holds](Held), until at most `keep` such
    /// others remain or none is evictable.
    fn evict_others(&mut self, key: &K, keep: usize, health: &HealthCounters) {
        while self.map.len() > keep {
            let mut others = 0usize;
            let mut victim: Option<(&K, u64)> = None;
            for (k, slot) in &self.map {
                let Some(value) = slot.cell.get().filter(|_| k != key) else {
                    continue;
                };
                others += 1;
                if !value.is_held() && victim.is_none_or(|(_, oldest)| slot.last_use < oldest) {
                    victim = Some((k, slot.last_use));
                }
            }
            if others <= keep {
                break;
            }
            let Some((victim, _)) = victim else {
                break;
            };
            let victim = victim.clone();
            self.map.remove(&victim);
            health.note_eviction();
        }
    }
}

/// Live recovery counters of one shared tier (atomics: every recording site
/// is on a concurrent path). Read via [`SharedTier::health`].
#[derive(Debug, Default)]
pub(crate) struct HealthCounters {
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

    /// A memo slot evicted by its cap: a resident full trace beyond
    /// [`SharedTier::resident_cap`].
    pub fn note_eviction(&self) {
        self.evictions.fetch_add(1, Ordering::Relaxed);
    }

    /// One protocol request accepted by the sweep service.
    pub fn note_request(&self) {
        self.requests.fetch_add(1, Ordering::Relaxed);
    }

    /// One measurement a sweep-service request delivered: a `point`
    /// request's result, each `sweep` result line, the full-size baseline
    /// every `sweep` and `dynamic` request runs first, and a `dynamic` run.
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

/// A point-in-time snapshot of a tier's health counters: the observable
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
    /// Measurements sweep-service requests delivered: one per `point`
    /// request, one per `sweep` result line plus the sweep's full-size
    /// baseline, and two per `dynamic` request (baseline and run).
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
    /// `(name, fingerprint, seed, total)` and capped at
    /// [`SharedTier::resident_cap`].
    pub(crate) traces: Memo<crate::experiment::trace_store::StoreKey, rescache_trace::Trace>,
    /// Memoized static simulations, keyed by the runner's
    /// `(trace key, system, geometries)`; shared so a lookup copies no
    /// statistics.
    pub(crate) sims:
        Memo<crate::experiment::runner::SimKey, Arc<crate::experiment::runner::StaticSim>>,
    dir: Option<PathBuf>,
    health: Arc<HealthCounters>,
}

impl Default for SharedTier {
    fn default() -> Self {
        Self::new(None, IoPolicy::none())
    }
}

impl SharedTier {
    /// A tier persisting to `dir` (`None` = in-memory only), keeping one
    /// resident full trace beyond those running jobs hold (see
    /// [`SharedTier::resident_cap`]). The policy is ignored: [`IoPolicy`]
    /// has only [`IoPolicy::none`], and the parameter stays because the
    /// standalone benchmark builds its tier with it.
    pub fn new(dir: Option<PathBuf>, _policy: IoPolicy) -> Self {
        Self {
            traces: Memo::bounded(1),
            sims: Memo::default(),
            dir,
            health: Arc::default(),
        }
    }

    /// This tier with the given cap on resident full traces (clamped to at
    /// least 1 — the trace being served must stay resident). A long-lived
    /// server whose clients interleave applications between requests keeps
    /// one trace per worker here, so a client's next request does not find
    /// its trace evicted by another client's.
    pub fn with_resident_cap(mut self, cap: usize) -> Self {
        self.traces.cap = cap.max(1);
        self
    }

    /// Maximum number of full traces the tier keeps materialized once no
    /// job holds them: 1 by default, the trace used last. A cold trace
    /// first evicts the least-recently-used resident traces that no running
    /// job holds (counted in [`StoreHealth::evictions`]) until it fits;
    /// traces in use are kept, so the cap yields to them. The cap applies
    /// at each cold fetch: traces released since then stay resident until
    /// the next one. Evicted traces are not lost — the next request
    /// re-reads from disk or regenerates, exactly like a cold key.
    pub fn resident_cap(&self) -> usize {
        self.traces.cap
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

    /// The tier's live health counters (recording sites).
    pub(crate) fn counters(&self) -> &HealthCounters {
        &self.health
    }

    /// A point-in-time snapshot of the tier's health.
    pub fn health(&self) -> StoreHealth {
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
    use rescache_trace::{InstrRecord, Op};
    use std::sync::atomic::AtomicUsize;

    /// Plain numbers stand in for values no handle outside the memo holds.
    impl Held for u64 {
        fn is_held(&self) -> bool {
            false
        }
    }

    /// A one-record trace whose record carries `pc`.
    fn trace(pc: u64) -> Trace {
        Trace::new("t", vec![InstrRecord::new(pc, Op::Int)])
    }

    /// `memo`'s counted lookup of `key`, whose computation yields `value`.
    fn fill(memo: &Memo<u32, u64>, health: &HealthCounters, key: u32, value: u64) -> u64 {
        memo.get_or_init(key, health, || value)
    }

    /// The keys of `memo`'s initialized slots, sorted.
    fn resident<V>(memo: &Memo<u32, V>) -> Vec<u32> {
        let slots = memo.lock();
        let mut keys: Vec<u32> = slots
            .map
            .iter()
            .filter(|(_, slot)| slot.cell.get().is_some())
            .map(|(k, _)| *k)
            .collect();
        keys.sort_unstable();
        keys
    }

    #[test]
    fn memo_single_flights_and_shares() {
        let memo: Memo<u32, u64> = Memo::default();
        let health = HealthCounters::default();
        let runs = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    let v = memo.get_or_init(7, &health, || {
                        runs.fetch_add(1, Ordering::Relaxed);
                        99
                    });
                    assert_eq!(v, 99);
                });
            }
        });
        assert_eq!(runs.load(Ordering::Relaxed), 1, "one computation per key");
        assert_eq!(memo.initialized_count(), 1);
        // The seven lookups that did not compute landed warm or coalesced;
        // the one that computed counted nothing itself.
        let snap = health.snapshot();
        assert_eq!(snap.hits + snap.coalesced, 7, "{snap:?}");
        assert_eq!(snap.misses, 0, "{snap:?}");
        assert_eq!(fill(&memo, &health, 7, 0), 99, "a warm slot is served");
        assert_eq!(health.snapshot().hits, snap.hits + 1);
        assert_eq!(fill(&memo, &health, 8, 5), 5, "another key computes");
        assert_eq!(memo.initialized_count(), 2);
    }

    /// A key whose `Hash` panics for the value 666, so a lookup of it
    /// panics while holding the map lock.
    #[derive(Debug, Clone, PartialEq, Eq)]
    struct PanicKey(u32);

    impl Hash for PanicKey {
        fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
            assert_ne!(self.0, 666, "poison the map lock");
            self.0.hash(state);
        }
    }

    #[test]
    fn memo_recovers_from_a_poisoned_map_lock() {
        let memo: Memo<PanicKey, u64> = Memo::bounded(1);
        let health = HealthCounters::default();
        assert_eq!(memo.get_or_init(PanicKey(1), &health, || 5), 5);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            memo.get_or_init(PanicKey(666), &health, || 0)
        }));
        assert!(result.is_err());
        assert!(memo.slots.is_poisoned(), "the panic held the map lock");
        // Every access path recovers instead of propagating the poison:
        // lookup, stamping and eviction.
        assert_eq!(memo.get_or_init(PanicKey(1), &health, || 0), 5);
        assert_eq!(memo.initialized_count(), 1);
        assert_eq!(memo.get_or_init(PanicKey(2), &health, || 6), 6);
        assert_eq!(memo.initialized_count(), 1, "the cap of 1 evicted key 1");
        assert_eq!(health.snapshot().evictions, 1);
    }

    #[test]
    fn a_panicked_initializer_leaves_the_slot_retryable() {
        // The single-flight guarantee must not turn one worker's panic into
        // a permanently-wedged key: OnceLock's poison-tolerant initializer
        // lets the next caller run the computation again.
        let memo: Memo<u32, u64> = Memo::default();
        let health = HealthCounters::default();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            memo.get_or_init(3, &health, || panic!("worker died mid-generation"))
        }));
        assert!(result.is_err());
        assert_eq!(
            memo.initialized_count(),
            0,
            "the failed init left nothing behind"
        );
        assert_eq!(
            fill(&memo, &health, 3, 42),
            42,
            "the sibling's retry succeeds"
        );
    }

    #[test]
    fn memo_evicts_the_least_recently_used_initialized_slot() {
        let memo: Memo<u32, u64> = Memo::bounded(2);
        let health = HealthCounters::default();
        fill(&memo, &health, 1, 10);
        fill(&memo, &health, 2, 20);
        // Serving key 1 again makes key 2 the least recently used.
        assert_eq!(fill(&memo, &health, 1, 0), 10);
        assert_eq!(health.snapshot().evictions, 0, "under the cap");
        fill(&memo, &health, 3, 30);
        assert_eq!(resident(&memo), [1, 3]);
        assert_eq!(health.snapshot().evictions, 1);
        // The evicted key computes again, evicting the next oldest (key 1).
        assert_eq!(fill(&memo, &health, 2, 21), 21);
        assert_eq!(resident(&memo), [2, 3]);
        assert_eq!(health.snapshot().evictions, 2);
    }

    #[test]
    fn memo_never_evicts_the_key_just_served_or_an_in_flight_slot() {
        let memo: Memo<u32, u64> = Memo::bounded(2);
        let health = HealthCounters::default();
        // While key 1 computes, its slot is in flight: three nested keys
        // land and evict among themselves, never key 1.
        let v = memo.get_or_init(1, &health, || {
            fill(&memo, &health, 2, 20);
            fill(&memo, &health, 3, 30);
            fill(&memo, &health, 4, 40);
            assert_eq!(
                resident(&memo),
                [3, 4],
                "key 2 went, in-flight key 1 stayed"
            );
            10
        });
        assert_eq!(v, 10);
        // Key 1 landed last: it stays although its slot is the oldest, and
        // the least recently used of the others (key 3) goes.
        assert_eq!(resident(&memo), [1, 4]);
        assert_eq!(health.snapshot().evictions, 2);
    }

    #[test]
    fn a_cold_key_makes_room_before_its_computation_runs() {
        let memo: Memo<u32, Trace> = Memo::bounded(2);
        let health = HealthCounters::default();
        memo.get_or_init(1, &health, || trace(1));
        memo.get_or_init(2, &health, || trace(2));
        // The cold key's init runs beside at most cap − 1 resident traces:
        // the least recently used (key 1) went before generation started.
        memo.get_or_init(3, &health, || {
            assert_eq!(resident(&memo), [2], "init sees cap - 1 traces");
            trace(3)
        });
        assert_eq!(resident(&memo), [2, 3]);
        assert_eq!(health.snapshot().evictions, 1);
        // A warm lookup makes no room: nothing is computed.
        memo.get_or_init(2, &health, || unreachable!("key 2 is resident"));
        assert_eq!(health.snapshot().evictions, 1);
    }

    #[test]
    fn a_trace_in_use_is_never_evicted() {
        let memo: Memo<u32, Trace> = Memo::bounded(1);
        let health = HealthCounters::default();
        let in_use = memo.get_or_init(1, &health, || trace(1));
        // Key 1 is the only eviction candidate, but a live handle holds it:
        // evicting it would free nothing, so the cap yields.
        memo.get_or_init(2, &health, || trace(2));
        assert_eq!(resident(&memo), [1, 2]);
        assert_eq!(health.snapshot().evictions, 0);
        // Once the handle drops, the next cold key evicts both (key 1 first,
        // as the least recently used) to fit under the cap of 1.
        drop(in_use);
        memo.get_or_init(3, &health, || {
            assert!(resident(&memo).is_empty(), "room made before init");
            trace(3)
        });
        assert_eq!(resident(&memo), [3]);
        assert_eq!(health.snapshot().evictions, 2);
    }

    #[test]
    fn memo_sorts_a_never_stamped_slot_oldest() {
        let memo: Memo<u32, u64> = Memo::bounded(2);
        let health = HealthCounters::default();
        fill(&memo, &health, 1, 10);
        // An initialized slot no lookup has stamped yet: what a computation
        // that landed leaves until its lookup takes the lock again.
        memo.lock().map.insert(
            2,
            Slot {
                cell: Arc::new(OnceLock::from(20)),
                last_use: 0,
            },
        );
        fill(&memo, &health, 3, 30);
        assert_eq!(resident(&memo), [1, 3], "the unstamped key 2 went first");
        assert_eq!(health.snapshot().evictions, 1);
    }

    #[test]
    fn health_counters_snapshot_and_degrade_once() {
        let tier = SharedTier::new(Some(PathBuf::from("/tmp/never-used")), IoPolicy::none());
        let h = tier.counters();
        h.note_hit();
        h.note_hit();
        h.note_miss();
        h.note_regeneration();
        assert!(tier.active_dir().is_some());

        // Degrading latches, warns exactly once, and disables the dir.
        tier.degrade("test save failure");
        tier.degrade("second call must be silent");
        let snap = tier.health();
        assert_eq!((snap.hits, snap.misses, snap.regenerations), (2, 1, 1));
        assert_eq!(snap.warnings, 1, "one-time warning");
        assert!(snap.degraded);
        assert!(tier.active_dir().is_none(), "degraded mode disables disk");
        assert!(tier.dir().is_some(), "the raw dir is still reported");

        // Clones share the health block and the degraded flag.
        assert!(tier.clone().health().degraded);
    }

    #[test]
    fn resident_cap_builder_and_default() {
        let tier = SharedTier::default();
        assert_eq!(tier.resident_cap(), 1, "the trace used last");
        assert_eq!(tier.with_resident_cap(3).resident_cap(), 3);
        assert_eq!(
            SharedTier::default().with_resident_cap(0).resident_cap(),
            1,
            "cap clamps to 1: the trace being served must stay resident"
        );
    }
}
