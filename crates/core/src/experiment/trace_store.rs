//! The shared trace store: once-per-key generation, copy-free in-process
//! sharing, and optional on-disk persistence.
//!
//! Every experiment replays the same `(application, seed, lengths)` trace
//! under many cache configurations, and trace generation is the slowest
//! single stage of a cold sweep. The store therefore keeps one *full*
//! generated trace per `(application, seed, total length)` within a process
//! (concurrent callers block on the one generation; warm/measure splits are
//! copy-free views, so two runner configurations whose totals agree share one
//! buffer) and — when `RESCACHE_TRACE_DIR` names a directory — persists each
//! generated trace with the [`rescache_trace::codec`] so later processes of a
//! multi-app/multi-seed campaign replay from disk instead of regenerating.
//!
//! There is one way to get records: [`TraceStore::fetch`] materializes (and
//! memoizes) the full trace — loading a persisted entry whole, or generating
//! the trace and persisting it — and every static or dynamic run replays a
//! cursor over that resident buffer. An entry is decoded once per process,
//! not once per run.
//!
//! Entries, resident and persisted, are keyed by *total* length and served
//! only for that exact key: two warm/measure splits of the same total share
//! one entry, while a request for a different total gets its own. Disk
//! entries are advisory, with typed recovery (all of it exercised
//! deterministically via the [`rescache_trace::IoPolicy`] fault seam and
//! accounted in [`StoreHealth`]):
//!
//! * a **missing** entry regenerates silently;
//! * an **I/O** error falls back to regeneration — a transient one (see
//!   [`rescache_trace::is_transient`]) after a bounded retry with backoff —
//!   and never quarantines, at open or mid-read: nothing proves the file is
//!   bad;
//! * a **corrupt, truncated, mislabeled or retired-format** entry is
//!   *quarantined* — renamed to a `.corrupt` sidecar — before regeneration,
//!   so repeated corruption is diagnosable on disk instead of silently
//!   churned;
//! * a **disk-full or unwritable** directory latches the whole store into
//!   in-memory-only degraded mode with a one-time warning (see
//!   [`SharedTier::degrade`]); generation proceeds, persistence stops.
//!
//! The memo maps, fault policy and health counters all live in the
//! [`SharedTier`] the store wraps, so any number of runners and threads
//! share one coherent cache-and-recovery state. Single flight is per
//! process; writers in different processes need no lock, because every save
//! writes a per-writer temp file and renames it into place.

use std::path::{Path, PathBuf};
use std::sync::PoisonError;

use rescache_trace::{
    codec, is_transient, AppProfile, InstrRecord, IoPolicy, Trace, TraceFileSource, TraceFormat,
    TraceGenerator, TraceSource,
};

use crate::experiment::runner::RunnerConfig;
use crate::experiment::shared_tier::{SharedTier, StoreHealth};

/// Key identifying one (warm, measure) trace request: application name,
/// profile fingerprint, seed, warm-up length, measured length. The
/// fingerprint covers the profile's full contents, so two differing profiles
/// that happen to share a name (possible via the `AppProfile` builders)
/// never alias. Simulation memo keys embed this type — the split matters to
/// a simulation even though the underlying records only depend on the
/// total.
pub(crate) type TraceKey = (&'static str, u64, u64, usize, usize);

/// Key of one full generated trace in the store: application name, profile
/// fingerprint, seed, total length. Requests whose totals agree share the
/// entry and split it at fetch time.
pub(crate) type StoreKey = (&'static str, u64, u64, usize);

/// File-name suffix of every store entry.
const ENTRY_SUFFIX: &str = TraceFormat::V3.file_suffix();

/// The store of generated traces (see the module documentation): a view
/// over the [`SharedTier`] that holds the actual maps, policy and health.
///
/// Clones share the tier, which is what lets the parallel sweeps fan out
/// over applications without regenerating per-worker state.
#[derive(Debug, Clone, Default)]
pub struct TraceStore {
    tier: SharedTier,
}

impl TraceStore {
    /// Creates a store with an explicit persistence directory (`None` =
    /// in-memory only) and no fault injection.
    pub fn with_dir(dir: Option<PathBuf>) -> Self {
        Self::with_tier(SharedTier::new(dir, IoPolicy::none()))
    }

    /// Creates a store over an explicit shared tier — how multiple runners
    /// (or server connections) share one set of memos, one fault policy and
    /// one health block.
    pub fn with_tier(tier: SharedTier) -> Self {
        Self { tier }
    }

    /// The shared tier backing this store.
    pub fn tier(&self) -> &SharedTier {
        &self.tier
    }

    /// A snapshot of the store's recovery counters.
    pub fn health(&self) -> StoreHealth {
        self.tier.health_snapshot()
    }

    /// The persistence directory, if any (reported even when degraded mode
    /// has stopped the store from using it).
    pub fn dir(&self) -> Option<&Path> {
        self.tier.dir()
    }

    /// The store key of an application under a runner configuration.
    pub(crate) fn key(app: &AppProfile, config: &RunnerConfig) -> TraceKey {
        (
            app.name,
            app.fingerprint(),
            config.trace_seed,
            config.warmup_instructions,
            config.measure_instructions,
        )
    }

    /// The full-trace key of an application under a runner configuration.
    fn store_key(app: &AppProfile, config: &RunnerConfig) -> StoreKey {
        (
            app.name,
            app.fingerprint(),
            config.trace_seed,
            config.warmup_instructions + config.measure_instructions,
        )
    }

    /// Number of full traces currently materialized in this process (bounded
    /// by the tier's [`resident_cap`](SharedTier::resident_cap)).
    pub fn resident_full_traces(&self) -> usize {
        self.tier.traces.initialized_count()
    }

    /// Returns the warm-up and measurement traces for an application,
    /// generating (or loading from disk) at most once per key.
    pub fn fetch(&self, app: &AppProfile, config: &RunnerConfig) -> (Trace, Trace) {
        self.fetch_full(app, config)
            .split_at(config.warmup_instructions)
    }

    /// Returns the full (warm + measure) trace for an application,
    /// materializing at most once per `(application, seed, total)`: the
    /// buffer every run replays a cursor over.
    pub(crate) fn fetch_full(&self, app: &AppProfile, config: &RunnerConfig) -> Trace {
        let key = Self::store_key(app, config);
        let slot = self.tier.traces.slot(key);
        if let Some(trace) = slot.get() {
            self.tier.health().note_hit();
            self.note_resident_use(&key);
            return trace.clone();
        }
        let mut ran = false;
        let trace = slot
            .get_or_init(|| {
                ran = true;
                self.load_or_generate(app, &key)
            })
            .clone();
        if !ran {
            // Neither an initialized slot nor our own generation: we blocked
            // on a sibling's in-flight initializer and shared its result.
            self.tier.health().note_coalesced();
        }
        self.note_resident_use(&key);
        trace
    }

    /// Stamps `key` as just-used in the resident-trace LRU, then evicts the
    /// least-recently-used resident traces until the tier's
    /// [`resident_cap`](SharedTier::resident_cap) holds. Called on every
    /// materialized serve, so a long-lived server replaying many distinct
    /// workloads keeps bounded memory instead of accreting every full trace
    /// it ever touched; evicted entries reload from disk (or regenerate)
    /// like any cold key. Lock ordering: the LRU mutex is taken first and
    /// the `traces` map mutex only inside it, never the reverse.
    fn note_resident_use(&self, key: &StoreKey) {
        let cap = self.tier.resident_cap();
        let mut lru = self
            .tier
            .trace_lru
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        lru.clock += 1;
        let stamp = lru.clock;
        lru.last_use.insert(*key, stamp);
        loop {
            // Victim scan: the initialized key (other than the one just
            // served) with the oldest use stamp. A key with no stamp sorts
            // oldest — it was resident before stamping began.
            let (resident, victim) = self.tier.traces.with_map(|map| {
                let mut resident = 0usize;
                let mut victim: Option<(StoreKey, u64)> = None;
                for (k, slot) in map.iter() {
                    if slot.get().is_none() {
                        continue;
                    }
                    resident += 1;
                    if k == key {
                        continue;
                    }
                    let at = lru.last_use.get(k).copied().unwrap_or(0);
                    if victim.is_none_or(|(_, best)| at < best) {
                        victim = Some((*k, at));
                    }
                }
                (resident, victim)
            });
            if resident <= cap {
                break;
            }
            let Some((victim_key, _)) = victim else {
                break;
            };
            self.tier.traces.remove(&victim_key);
            lru.last_use.remove(&victim_key);
            self.tier.health().note_eviction();
        }
        // Stamps for keys no longer resident (evicted above, or removed by
        // other paths) must not accrete either.
        let resident_keys: Vec<StoreKey> = self
            .tier
            .traces
            .with_map(|map| map.keys().copied().collect());
        if lru.last_use.len() > resident_keys.len() {
            let keep: std::collections::HashSet<StoreKey> = resident_keys.into_iter().collect();
            lru.last_use.retain(|k, _| keep.contains(k));
        }
    }

    /// Opens a chunked on-disk source over `key`'s entry, if a usable
    /// directory holds a valid one.
    fn disk_source(&self, app: &AppProfile, key: &StoreKey) -> Option<TraceFileSource> {
        self.open_entry(app, &self.entry_path(key)?, key.3)
    }

    /// Opens one entry of `total` records, validating the header (a
    /// retired-format file surfaces as the codec's typed
    /// [`codec::CodecError::UnsupportedVersion`] or
    /// [`codec::CodecError::UnsupportedFlags`]) and the header's application
    /// name and record count against what the *file name* promises — a
    /// header that disagrees marks a foreign, stale or hash-colliding file,
    /// which is quarantined, never served.
    fn open_entry(&self, app: &AppProfile, path: &Path, total: usize) -> Option<TraceFileSource> {
        let policy = self.tier.policy();
        // A transient open failure gets the bounded retry; anything typed is
        // decided immediately.
        let opened = policy
            .retrying(
                || self.tier.health().note_retry(),
                || match TraceFileSource::open_with(path, Some(total), policy) {
                    Err(codec::CodecError::Io(e)) => Err(e),
                    typed => Ok(typed),
                },
            )
            .unwrap_or_else(|e| Err(codec::CodecError::Io(e)));
        match opened {
            Ok(source) if source.name() == app.name && source.file_records() == total => {
                Some(source)
            }
            Ok(source) => {
                // A header that disagrees with the file's own name marks a
                // foreign, stale or hash-colliding file: a content problem,
                // so it is quarantined like corruption.
                eprintln!(
                    "rescache: trace store entry {} is for {}/{} records, expected {}/{total}; quarantining",
                    path.display(),
                    source.name(),
                    source.file_records(),
                    app.name,
                );
                drop(source);
                self.quarantine_entry(path);
                None
            }
            Err(codec::CodecError::Io(e)) if e.kind() == std::io::ErrorKind::NotFound => None,
            Err(codec::CodecError::Io(e)) => {
                // Retries exhausted or a persistent I/O error: the file may
                // be perfectly fine, so no quarantine — fall back to
                // regeneration for this request only.
                eprintln!(
                    "rescache: trace store entry {} unreadable ({e}); regenerating without it",
                    path.display()
                );
                None
            }
            Err(e) => {
                // Typed content errors (bad magic, retired or unknown
                // version or flags, bad name): provably not a servable
                // entry.
                eprintln!(
                    "rescache: trace store entry {} unreadable ({e}); quarantining",
                    path.display()
                );
                self.quarantine_entry(path);
                None
            }
        }
    }

    /// Renames a provably-bad entry to its `.corrupt` sidecar (so repeated
    /// corruption is diagnosable on disk) and counts the quarantine. If even
    /// the rename fails, the entry is removed instead — the store must never
    /// keep re-reading a corrupt file. The sidecar name is outside the
    /// store's entry-name grammar, so the store never opens it.
    fn quarantine_entry(&self, path: &Path) {
        let mut sidecar = path.as_os_str().to_os_string();
        sidecar.push(".corrupt");
        let sidecar = PathBuf::from(sidecar);
        let policy = self.tier.policy();
        let renamed = policy.retrying(
            || self.tier.health().note_retry(),
            || policy.rename(path, &sidecar),
        );
        match renamed {
            Ok(()) => self.tier.health().note_quarantine(),
            Err(rename_err) => {
                let removed = policy.retrying(
                    || self.tier.health().note_retry(),
                    || policy.remove_file(path),
                );
                match removed {
                    Ok(()) => self.tier.health().note_quarantine(),
                    Err(remove_err) => eprintln!(
                        "rescache: could not quarantine {} (rename: {rename_err}; remove: {remove_err}); leaving in place",
                        path.display()
                    ),
                }
            }
        }
    }

    /// The store's one mid-read recovery loop: drains `entry` and returns its
    /// records if the read is complete — no fault recorded and every record
    /// delivered; a bad entry must degrade to regeneration, never to a
    /// silently short read. A transient I/O error retries over a reopened
    /// entry (bounded, with backoff). Any other shortfall counts a
    /// regeneration and returns `None`; only a codec content error
    /// quarantines the entry first — an I/O error, persistent or not, cannot
    /// prove the file is bad.
    fn read_entry(
        &self,
        app: &AppProfile,
        key: &StoreKey,
        mut entry: TraceFileSource,
    ) -> Option<Vec<InstrRecord>> {
        let health = self.tier.health();
        let mut attempt = 1;
        loop {
            let records = drain(&mut entry);
            let fault = entry.fault();
            if fault.is_none() && entry.position() == entry.total_records() {
                return Some(records);
            }
            let transient = matches!(fault, Some(codec::CodecError::Io(e)) if is_transient(e));
            if transient && attempt < IoPolicy::ATTEMPTS {
                health.note_retry();
                std::thread::sleep(IoPolicy::BACKOFF * attempt);
                attempt += 1;
                if let Some(reopened) = self.disk_source(app, key) {
                    entry = reopened;
                    continue;
                }
            }
            eprintln!(
                "rescache: store read of {} fell short ({}); regenerating",
                app.name,
                fault.map_or_else(|| "short read".into(), |e| e.to_string()),
            );
            if fault.is_some_and(|e| !matches!(e, codec::CodecError::Io(_))) {
                // Keep the evidence as a `.corrupt` sidecar; the entry's
                // path is free for a fresh persist.
                let path = entry.path().to_path_buf();
                drop(entry);
                self.quarantine_entry(&path);
            }
            health.note_regeneration();
            return None;
        }
    }

    /// Probes (and creates) the store directory. A failure here — after the
    /// transient retries — means the directory cannot be written at all
    /// (occupied by a file, permission-denied, read-only filesystem), which
    /// latches degraded mode directly. Returns whether the directory is
    /// unusable.
    fn dir_unusable(&self, dir: &Path) -> bool {
        let policy = self.tier.policy();
        let created = policy.retrying(
            || self.tier.health().note_retry(),
            || policy.create_dir_all(dir),
        );
        match created {
            Ok(()) => false,
            Err(e) => {
                self.tier
                    .degrade(&format!("store directory {} unusable: {e}", dir.display()));
                true
            }
        }
    }

    /// Classifies one persist failure: disk-full and unwritable-directory
    /// conditions latch store-wide degraded mode (with its one-time
    /// warning); anything else — e.g. exhausted transient retries — skips
    /// only this persist, with a per-site note.
    fn note_persist_failure(&self, path: &Path, e: &std::io::Error) {
        use std::io::ErrorKind;
        let fatal = rescache_trace::is_disk_full(e)
            || matches!(
                e.kind(),
                ErrorKind::PermissionDenied
                    | ErrorKind::NotADirectory
                    | ErrorKind::ReadOnlyFilesystem
            );
        if fatal {
            self.tier
                .degrade(&format!("could not persist to {}: {e}", path.display()));
        } else {
            self.tier.health().note_warning();
            eprintln!(
                "rescache: could not persist trace to {} ({e}); keeping it in memory only",
                path.display()
            );
        }
    }

    /// Loads the keyed full trace from disk if possible, otherwise generates
    /// it (and persists the result, best-effort). Every landing is counted:
    /// a disk serve is a hit, a clean cold generation a miss, a generation
    /// forced by a bad entry a regeneration (counted by the read).
    fn load_or_generate(&self, app: &AppProfile, key: &StoreKey) -> Trace {
        match self.disk_source(app, key) {
            Some(entry) => {
                if let Some(records) = self.read_entry(app, key, entry) {
                    self.tier.health().note_hit();
                    return Trace::new(app.name, records);
                }
            }
            None => self.tier.health().note_miss(),
        }
        let full = TraceGenerator::new(app.clone(), key.2).generate(key.3);
        if let Some(path) = self.entry_path(key) {
            self.persist(&path, &full);
        }
        full
    }

    /// The store's one persist routine: probes the store directory, then
    /// saves `trace` (bounded transient retry) and classifies a failure.
    ///
    /// No lock is taken: the codec writes a per-writer temp file and renames
    /// it into place, so two writers of one entry (two processes sharing the
    /// directory) each commit a whole file and neither exposes a torn one.
    fn persist(&self, path: &Path, trace: &Trace) {
        if let Some(parent) = path.parent() {
            if self.dir_unusable(parent) {
                // Degraded mode just latched, with its one-time warning.
                return;
            }
        }
        let policy = self.tier.policy();
        let saved = policy.retrying(
            || self.tier.health().note_retry(),
            || codec::save_source(path, &mut trace.cursor(), policy),
        );
        if let Err(e) = saved {
            self.note_persist_failure(path, &e);
        }
    }

    /// The on-disk path of a key's exact-total entry, if a usable directory
    /// is configured (degraded mode reads as "no directory").
    fn entry_path(&self, key: &StoreKey) -> Option<PathBuf> {
        self.tier.active_dir().map(|d| d.join(Self::file_name(key)))
    }

    /// File name of a store entry: application name plus every key component
    /// that distinguishes trace contents. Entries are keyed by *total*
    /// length — the warm/measure split is a property of the request, not of
    /// the records — so two splits of one total share a file.
    fn file_name(key: &StoreKey) -> String {
        let (name, fingerprint, seed, total) = key;
        format!("{name}-{fingerprint:016x}-s{seed}-t{total}{ENTRY_SUFFIX}")
    }
}

/// Drains `source` into one buffer sized up front for its whole record
/// count: a grown-and-copied second buffer would show in peak RSS.
fn drain<S: TraceSource>(source: &mut S) -> Vec<InstrRecord> {
    let mut records = Vec::with_capacity(source.total_records());
    loop {
        let chunk = source.next_chunk();
        if chunk.is_empty() {
            break;
        }
        records.extend_from_slice(chunk);
    }
    records
}

#[cfg(test)]
mod tests {
    use super::*;
    use rescache_cache::{HierarchyConfig, MemoryHierarchy};
    use rescache_cpu::{CpuConfig, NoopHook, Simulator};
    use rescache_trace::{spec, FaultInjector, FaultKind, IoOp, ScriptedFault};
    use std::sync::Arc;

    fn temp_store(tag: &str) -> (TraceStore, PathBuf) {
        let dir = std::env::temp_dir().join(format!("rescache-store-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        (TraceStore::with_dir(Some(dir.clone())), dir)
    }

    fn entry_path(dir: &Path) -> PathBuf {
        let entries: Vec<_> = std::fs::read_dir(dir)
            .expect("store dir exists")
            .map(|e| e.expect("dir entry").path())
            .collect();
        assert_eq!(entries.len(), 1, "expected one store entry: {entries:?}");
        entries.into_iter().next().expect("one entry")
    }

    #[test]
    fn memoizes_in_process() {
        let store = TraceStore::with_dir(None);
        let cfg = RunnerConfig::fast();
        let (w1, m1) = store.fetch(&spec::ammp(), &cfg);
        let (w2, m2) = store.fetch(&spec::ammp(), &cfg);
        assert_eq!(w1.len(), cfg.warmup_instructions);
        assert_eq!(m1.len(), cfg.measure_instructions);
        // Same underlying buffer, not merely equal contents.
        assert_eq!(w1.records().as_ptr(), w2.records().as_ptr());
        assert_eq!(m1.records().as_ptr(), m2.records().as_ptr());
        assert_eq!(store.resident_full_traces(), 1);
    }

    #[test]
    fn same_total_different_split_shares_one_trace() {
        let store = TraceStore::with_dir(None);
        let cfg = RunnerConfig::fast();
        let mut shifted = cfg;
        shifted.warmup_instructions += 1_000;
        shifted.measure_instructions -= 1_000;
        let (w1, _) = store.fetch(&spec::gcc(), &cfg);
        let (w2, _) = store.fetch(&spec::gcc(), &shifted);
        assert_eq!(w2.len(), cfg.warmup_instructions + 1_000);
        // One materialization serves both splits.
        assert_eq!(store.resident_full_traces(), 1);
        assert_eq!(w1.records(), &w2.records()[..w1.len()]);
    }

    #[test]
    fn persists_and_reloads_across_store_instances() {
        let (store, dir) = temp_store("reload");
        let cfg = RunnerConfig::fast();
        let (_, m1) = store.fetch(&spec::m88ksim(), &cfg);
        let path = entry_path(&dir);

        // A fresh store (a "new process") must serve the identical trace
        // from disk; wrecking the first chunk's directory entry proves the
        // file is actually read (the fetch falls back to regeneration).
        // Flipping a *payload* byte would not do: a compressed chunk can
        // decode a flipped varint byte to different-but-valid records.
        let fresh = TraceStore::with_dir(Some(dir.clone()));
        let (_, m2) = fresh.fetch(&spec::m88ksim(), &cfg);
        assert_eq!(m1, m2);

        let mut bytes = std::fs::read(&path).expect("read entry");
        let first_chunk = 9 + 4 + "m88ksim".len() + 8;
        bytes[first_chunk + 4..first_chunk + 8].copy_from_slice(&u32::MAX.to_le_bytes());
        std::fs::write(&path, &bytes).expect("corrupt entry");
        let corrupted = TraceStore::with_dir(Some(dir.clone()));
        let (_, m3) = corrupted.fetch(&spec::m88ksim(), &cfg);
        assert_eq!(m1, m3, "regeneration must reproduce the trace");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn distinct_keys_get_distinct_files() {
        let (store, dir) = temp_store("keys");
        let cfg = RunnerConfig::fast();
        let mut other = cfg;
        other.trace_seed += 1;
        store.fetch(&spec::ammp(), &cfg);
        store.fetch(&spec::ammp(), &other);
        let entries = std::fs::read_dir(&dir).expect("dir").count();
        assert_eq!(entries, 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Entries serve exactly their own total, whatever the profile's
    /// schedules: a fresh store asked for a shorter total of `app` generates
    /// and persists its own entry, bit-equal to a fresh generator, and the
    /// longer entry's bytes stay as they were.
    fn assert_shorter_total_gets_its_own_entry(app: &AppProfile) {
        let cfg = RunnerConfig::fast();
        let mut short = cfg;
        short.measure_instructions /= 2;
        let short_total = short.warmup_instructions + short.measure_instructions;
        let name = app.name;
        let (store, dir) = temp_store(&format!("exact-{name}"));
        store.fetch(app, &cfg);
        let long_path = entry_path(&dir);
        let long_bytes = std::fs::read(&long_path).expect("read long entry");

        let fresh = TraceStore::with_dir(Some(dir.clone()));
        let (w, m) = fresh.fetch(app, &short);
        let expected = TraceGenerator::new(app.clone(), short.trace_seed).generate(short_total);
        assert_eq!(
            [w.records(), m.records()].concat(),
            expected.records(),
            "{name}"
        );
        assert_eq!(fresh.health().misses, 1, "{name}: generated, not reused");
        let short_path = dir.join(TraceStore::file_name(&TraceStore::store_key(app, &short)));
        assert!(short_path.exists(), "{name}: its own entry is written");
        assert_eq!(std::fs::read_dir(&dir).expect("dir").count(), 2, "{name}");
        assert_eq!(
            std::fs::read(&long_path).expect("reread long entry"),
            long_bytes,
            "{name}: the longer entry is untouched"
        );

        // Another fresh store loads the shorter total's own entry from disk.
        let reload = TraceStore::with_dir(Some(dir.clone()));
        let (w, m) = reload.fetch(app, &short);
        assert_eq!(
            [w.records(), m.records()].concat(),
            expected.records(),
            "{name}"
        );
        assert_eq!((reload.health().hits, reload.health().misses), (1, 0));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_shorter_total_gets_its_own_entry_and_leaves_the_longer_one_alone() {
        // Constant-schedule ammp: even where a prefix would match, the
        // shorter total is its own key.
        assert_shorter_total_gets_its_own_entry(&spec::ammp());
    }

    #[test]
    fn length_varying_profiles_never_share_prefixes() {
        // gcc's multi-phase sequence schedules scale with the total, so the
        // longer entry's prefix is not the shorter trace.
        assert_shorter_total_gets_its_own_entry(&spec::gcc());
    }

    #[test]
    fn entry_whose_header_disagrees_with_its_name_is_quarantined() {
        // A file whose header promises more records than its *name* claims
        // is foreign or stale: serving any of it would silently diverge.
        // The store must quarantine it and regenerate instead.
        let (_, dir) = temp_store("mislabel");
        std::fs::create_dir_all(&dir).expect("create dir");
        let cfg = RunnerConfig::fast();
        let mut short = cfg;
        short.measure_instructions /= 2;
        let short_total = short.warmup_instructions + short.measure_instructions;
        // Masquerade a long trace as the short entry (gcc's multi-phase
        // schedules scale with the total, so its prefix is not the short
        // trace).
        let short_name = TraceStore::file_name(&TraceStore::store_key(&spec::gcc(), &short));
        let long_trace = TraceGenerator::new(spec::gcc(), cfg.trace_seed)
            .generate(cfg.warmup_instructions + cfg.measure_instructions);
        codec::save_trace(&dir.join(&short_name), &long_trace).expect("plant mislabeled entry");

        let expected = TraceGenerator::new(spec::gcc(), cfg.trace_seed).generate(short_total);

        // The fetch regenerates and persists a fresh entry.
        let fresh = TraceStore::with_dir(Some(dir.clone()));
        let (w, m) = fresh.fetch(&spec::gcc(), &short);
        assert_eq!(
            w.records(),
            &expected.records()[..short.warmup_instructions]
        );
        assert_eq!(
            m.records(),
            &expected.records()[short.warmup_instructions..]
        );

        let health = fresh.health();
        assert_eq!((health.quarantines, health.misses), (1, 1), "{health:?}");
        let mut sidecar = dir.join(&short_name).into_os_string();
        sidecar.push(".corrupt");
        assert!(PathBuf::from(sidecar).exists(), "no .corrupt sidecar");

        // The fresh entry is honest: another store serves it from disk.
        let again = TraceStore::with_dir(Some(dir.clone()));
        let (w, m) = again.fetch(&spec::gcc(), &short);
        assert_eq!([w.records(), m.records()].concat(), expected.records());
        assert_eq!((again.health().hits, again.health().quarantines), (1, 0));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn racing_persists_of_one_key_leave_one_whole_entry() {
        // Two stores over one directory (as two processes would be) race on
        // a cold key: each generates and persists the same entry. No lock
        // orders them: each save renames its own temp file into place.
        let cfg = RunnerConfig::fast();
        let total = cfg.warmup_instructions + cfg.measure_instructions;
        let reference = TraceGenerator::new(spec::gcc(), cfg.trace_seed).generate(total);
        let fetch_all = |store: &TraceStore| {
            let (warm, measure) = store.fetch(&spec::gcc(), &cfg);
            [warm.records(), measure.records()].concat()
        };
        for round in 0..4 {
            let (first, dir) = temp_store(&format!("race-{round}"));
            let second = TraceStore::with_dir(Some(dir.clone()));
            let (a, b) = std::thread::scope(|scope| {
                let a = scope.spawn(|| fetch_all(&first));
                let b = scope.spawn(|| fetch_all(&second));
                (
                    a.join().expect("first store"),
                    b.join().expect("second store"),
                )
            });
            assert_eq!(a, reference.records(), "round {round}: first");
            assert_eq!(b, reference.records(), "round {round}: second");

            let entry = entry_path(&dir);
            let name = entry.file_name().expect("file name").to_string_lossy();
            assert!(
                name.ends_with(ENTRY_SUFFIX),
                "round {round}: debris left in the store: {name}"
            );
            let fresh = TraceStore::with_dir(Some(dir.clone()));
            assert_eq!(fetch_all(&fresh), reference.records(), "round {round}");
            assert_eq!(fresh.health().hits, 1, "round {round}: served from disk");
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn source_serves_resident_traces_and_in_memory_stores() {
        let store = TraceStore::with_dir(None);
        let cfg = RunnerConfig::fast();
        let total = cfg.warmup_instructions + cfg.measure_instructions;

        // In-memory-only store: the trace materializes once and every later
        // fetch replays the same resident buffer.
        let first = store.fetch_full(&spec::ammp(), &cfg);
        assert_eq!(first.len(), total);
        let again = store.fetch_full(&spec::ammp(), &cfg);
        assert_eq!(first.records().as_ptr(), again.records().as_ptr());
        assert_eq!(store.resident_full_traces(), 1);
        assert_eq!((store.health().misses, store.health().hits), (1, 1));

        // A shorter total is a key of its own: it materializes its own
        // trace rather than viewing the longer one.
        let mut short = cfg;
        short.measure_instructions /= 2;
        let shorter = store.fetch_full(&spec::ammp(), &short);
        assert_eq!(
            shorter.len(),
            short.warmup_instructions + short.measure_instructions
        );
        assert_eq!(store.resident_full_traces(), 2);
    }

    #[test]
    fn wrong_format_at_the_right_path_is_rejected_and_regenerated() {
        // Plant each retired layout at a v3 entry's exact path (a store
        // written by an older build): `RCTRACE1`/`RCTRACE2` headers (no
        // flags byte, raw 12-byte records) and an `RCTRACE3` header with the
        // raw layout's flags 0. Each is rejected typed, quarantined to a
        // `.corrupt` sidecar, and the request regenerates the honest bits.
        let cfg = RunnerConfig::fast();
        let total = cfg.warmup_instructions + cfg.measure_instructions;
        let app = spec::m88ksim();
        let expected = TraceGenerator::new(app.clone(), cfg.trace_seed).generate(total);
        let old_entry = |magic: &[u8; 8], flags: Option<u8>| {
            let mut bytes = magic.to_vec();
            bytes.extend(flags);
            bytes.extend_from_slice(&(app.name.len() as u32).to_le_bytes());
            bytes.extend_from_slice(app.name.as_bytes());
            bytes.extend_from_slice(&(total as u64).to_le_bytes());
            bytes.extend_from_slice(&1u32.to_le_bytes());
            bytes.extend_from_slice(&[0u8; 12]);
            bytes
        };
        let (_, dir) = temp_store("mixed");
        let path = dir.join(TraceStore::file_name(&TraceStore::store_key(&app, &cfg)));
        let mut sidecar = path.clone().into_os_string();
        sidecar.push(".corrupt");
        for (label, bytes) in [
            ("v1", old_entry(b"RCTRACE1", None)),
            ("v2", old_entry(b"RCTRACE2", None)),
            ("raw", old_entry(b"RCTRACE3", Some(0))),
        ] {
            std::fs::remove_dir_all(&dir).ok();
            std::fs::create_dir_all(&dir).expect("create dir");
            std::fs::write(&path, &bytes).expect("plant old entry");
            let err = TraceFileSource::open(&path, None).unwrap_err();
            let typed = match label {
                "v1" => matches!(err, codec::CodecError::UnsupportedVersion { version: b'1' }),
                "v2" => matches!(err, codec::CodecError::UnsupportedVersion { version: b'2' }),
                _ => matches!(err, codec::CodecError::UnsupportedFlags { flags: 0 }),
            };
            assert!(typed, "{label}: {err}");

            let fresh = TraceStore::with_dir(Some(dir.clone()));
            let (w, m) = fresh.fetch(&app, &cfg);
            assert_eq!(
                [w.records(), m.records()].concat(),
                expected.records(),
                "{label}"
            );
            assert_eq!(fresh.health().quarantines, 1, "{label}");
            assert!(
                PathBuf::from(&sidecar).exists(),
                "{label}: no .corrupt sidecar"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unknown_version_header_falls_back_to_regeneration() {
        // An entry whose magic names a future format version must be
        // ignored (typed UnsupportedVersion, never a panic) and the fetch
        // regenerated — mirroring the corrupt-prefix fallback.
        let (store, dir) = temp_store("unknownver");
        let cfg = RunnerConfig::fast();
        let (w1, m1) = store.fetch(&spec::ammp(), &cfg);
        let path = entry_path(&dir);
        let mut bytes = std::fs::read(&path).expect("read entry");
        bytes[7] = b'9';
        std::fs::write(&path, &bytes).expect("future-version entry");

        let fresh = TraceStore::with_dir(Some(dir.clone()));
        let (w2, m2) = fresh.fetch(&spec::ammp(), &cfg);
        assert_eq!(w1, w2, "regeneration must reproduce the trace");
        assert_eq!(m1, m2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn source_survives_an_unwritable_directory() {
        let dir =
            std::env::temp_dir().join(format!("rescache-store-not-a-dir-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::remove_file(&dir).ok();
        // Make the "directory" a file so create_dir_all fails.
        std::fs::write(&dir, b"occupied").expect("occupy path");
        let store = TraceStore::with_dir(Some(dir.clone()));
        let cfg = RunnerConfig::fast();
        let total = cfg.warmup_instructions + cfg.measure_instructions;
        assert_eq!(store.fetch_full(&spec::vpr(), &cfg).len(), total);
        assert_eq!(store.health().misses, 1);

        // The unusable directory latched degraded mode with its one-time
        // warning; later requests go straight to in-memory operation (no
        // repeated probing, no repeated warnings) and correctness holds.
        let health = store.health();
        assert!(health.degraded, "{health:?}");
        assert_eq!(health.warnings, 1, "{health:?}");
        assert_eq!(store.fetch_full(&spec::ammp(), &cfg).len(), total);
        assert_eq!(store.resident_full_traces(), 2);
        assert_eq!(store.health().warnings, 1, "warning fires exactly once");
        std::fs::remove_file(&dir).ok();
    }

    /// Builds a store whose tier routes all I/O through `injector`.
    fn injected_store(tag: &str, injector: Arc<FaultInjector>) -> (TraceStore, PathBuf) {
        let dir =
            std::env::temp_dir().join(format!("rescache-store-fault-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let tier = SharedTier::new(Some(dir.clone()), IoPolicy::with_injector(injector));
        (TraceStore::with_tier(tier), dir)
    }

    #[test]
    fn disk_full_mid_run_degrades_to_memory_with_one_warning() {
        // The first persist write hits an injected disk-full error mid-run:
        // the store must latch in-memory-only mode (one warning), keep
        // serving bit-exact records, and stop touching the directory.
        let injector = Arc::new(FaultInjector::scripted([ScriptedFault {
            op: IoOp::Write,
            kind: FaultKind::DiskFull,
        }]));
        let (store, dir) = injected_store("full", injector);
        let cfg = RunnerConfig::fast();
        let total = cfg.warmup_instructions + cfg.measure_instructions;
        let reference = TraceGenerator::new(spec::vpr(), cfg.trace_seed).generate(total);

        assert_eq!(
            store.fetch_full(&spec::vpr(), &cfg).records(),
            reference.records()
        );

        let health = store.health();
        assert!(health.degraded, "disk-full must latch degraded: {health:?}");
        assert_eq!(health.warnings, 1, "{health:?}");

        // Degraded mode: the trace stays resident, a new key generates in
        // memory without touching the directory, no new warnings, and the
        // directory holds no committed entries (the aborted temp file was
        // cleaned up).
        assert_eq!(
            store.fetch_full(&spec::vpr(), &cfg).records(),
            reference.records()
        );
        assert_eq!(store.fetch_full(&spec::ammp(), &cfg).len(), total);
        assert_eq!(store.health().warnings, 1, "warning fires exactly once");
        assert_eq!(std::fs::read_dir(&dir).expect("dir").count(), 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn exhausted_transient_write_faults_skip_one_persist_without_degrading() {
        // Every attempt of the first persist fails with a transient error:
        // the bounded retry runs out, that one persist is skipped with a
        // per-site warning, but the store stays on disk — a different key
        // persists fine afterwards.
        let fault = ScriptedFault {
            op: IoOp::Write,
            kind: FaultKind::Transient,
        };
        let injector = Arc::new(FaultInjector::scripted(
            [fault; IoPolicy::ATTEMPTS as usize],
        ));
        let (store, dir) = injected_store("transient", injector.clone());
        let cfg = RunnerConfig::fast();
        let total = cfg.warmup_instructions + cfg.measure_instructions;

        assert_eq!(store.fetch_full(&spec::vpr(), &cfg).len(), total);
        assert_eq!(injector.pending_script(), 0, "all three attempts faulted");

        let health = store.health();
        assert!(
            !health.degraded,
            "transient faults must not latch: {health:?}"
        );
        assert_eq!(health.warnings, 1, "{health:?}");
        assert!(health.retries >= 2, "{health:?}");

        // The directory is still live: the next key persists, and a fresh
        // store serves it from disk.
        assert_eq!(store.fetch_full(&spec::ammp(), &cfg).len(), total);
        assert_eq!(std::fs::read_dir(&dir).expect("dir").count(), 1);
        assert!(!store.health().degraded);
        let fresh = TraceStore::with_dir(Some(dir.clone()));
        assert_eq!(fresh.fetch_full(&spec::ammp(), &cfg).len(), total);
        assert_eq!((fresh.health().hits, fresh.health().misses), (1, 0));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// One mid-read fault, scripted after the store entry has opened.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum MidReadFault {
        /// A transient read error: retried, the entry presumed fine.
        Transient,
        /// A persistent (permission-denied) read error: regenerated, but an
        /// I/O error proves nothing about the file, so no quarantine.
        Permission,
        /// Corrupt bytes in the second chunk's header: a codec content
        /// error, quarantined and regenerated.
        Corrupt,
    }

    /// Reads a freshly persisted `m88ksim` entry through the recovery loop,
    /// injecting `fault` after the entry has opened, and checks the read and
    /// the health counters against the fault model. Then every consumer of
    /// the store's trace must see the clean bits: the fetched records equal
    /// `clean`, and `simulate` over them equals `clean_sim`.
    fn assert_mid_read_recovery<T: PartialEq + std::fmt::Debug>(
        fault: MidReadFault,
        clean: &Trace,
        simulate: impl Fn(&Trace) -> T,
        clean_sim: &T,
    ) {
        use std::io::{Seek, SeekFrom, Write};
        let label = format!("{fault:?}").to_lowercase();
        let injector = Arc::new(FaultInjector::default());
        let (writer, dir) = injected_store(&format!("midread-{label}"), injector.clone());
        let (app, cfg) = (spec::m88ksim(), RunnerConfig::fast());
        let key = TraceStore::store_key(&app, &cfg);
        writer.fetch(&app, &cfg);
        let path = entry_path(&dir);
        // The second chunk's header sits past the first chunk's payload,
        // beyond anything the open's buffered header read has pulled in.
        let bytes = std::fs::read(&path).expect("read entry");
        let first_chunk = 9 + 4 + app.name.len() + 8;
        let first_len =
            u32::from_le_bytes(bytes[first_chunk + 4..first_chunk + 8].try_into().unwrap());
        let second_chunk = (first_chunk + 8) as u64 + u64::from(first_len);

        // A second store over the same directory and injector: nothing of
        // the entry is resident there.
        let store = TraceStore::with_tier(SharedTier::new(
            Some(dir.clone()),
            IoPolicy::with_injector(injector.clone()),
        ));
        let entry = store.disk_source(&app, &key).expect("the entry opens");
        let kind = match fault {
            MidReadFault::Transient => Some(FaultKind::Transient),
            MidReadFault::Permission => Some(FaultKind::PermissionDenied),
            MidReadFault::Corrupt => {
                let mut file = std::fs::OpenOptions::new()
                    .write(true)
                    .open(&path)
                    .expect("open entry for writing");
                file.seek(SeekFrom::Start(second_chunk + 4)).expect("seek");
                file.write_all(&u32::MAX.to_le_bytes()).expect("corrupt");
                None
            }
        };
        if let Some(kind) = kind {
            injector.push(ScriptedFault {
                op: IoOp::Read,
                kind,
            });
        }
        let read = store.read_entry(&app, &key, entry);
        assert_eq!(
            read.as_deref(),
            (fault == MidReadFault::Transient).then_some(clean.records()),
            "{label}: a complete read is bit-identical; any other is refused"
        );
        assert_eq!(injector.pending_script(), 0, "{label}: the fault fired");

        let health = store.health();
        let counts = (health.retries, health.quarantines, health.regenerations);
        let expected = match fault {
            MidReadFault::Transient => (1, 0, 0),
            MidReadFault::Permission => (0, 0, 1),
            MidReadFault::Corrupt => (0, 1, 1),
        };
        assert_eq!(
            counts, expected,
            "{label}: (retries, quarantines, regenerations)"
        );
        assert_eq!(
            path.exists(),
            fault != MidReadFault::Corrupt,
            "{label}: only content errors move the entry aside"
        );

        let served = store.fetch_full(&app, &cfg);
        assert_eq!(served.records(), clean.records(), "{label}: fetched");
        assert_eq!(&simulate(&served), clean_sim, "{label}: simulated");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn mid_read_faults_recover_by_kind_for_every_consumer() {
        let cfg = RunnerConfig::fast();
        let total = cfg.warmup_instructions + cfg.measure_instructions;
        let expected = TraceGenerator::new(spec::m88ksim(), cfg.trace_seed).generate(total);
        let simulate = |trace: &Trace| {
            let mut hierarchy = MemoryHierarchy::new(HierarchyConfig::base()).expect("base");
            let result = Simulator::new(CpuConfig::base_out_of_order()).run_warm_measure(
                &mut trace.cursor(),
                cfg.warmup_instructions,
                cfg.measure_instructions,
                &mut hierarchy,
                &mut NoopHook,
            );
            (result, hierarchy.snapshot())
        };
        let clean_sim = simulate(&expected);
        for fault in [
            MidReadFault::Transient,
            MidReadFault::Permission,
            MidReadFault::Corrupt,
        ] {
            assert_mid_read_recovery(fault, &expected, simulate, &clean_sim);
        }
    }

    #[test]
    fn corrupt_entries_are_quarantined_to_a_sidecar_and_counted() {
        let (store, dir) = temp_store("quarantine");
        let cfg = RunnerConfig::fast();
        let (w1, m1) = store.fetch(&spec::gcc(), &cfg);
        let path = entry_path(&dir);
        let mut bytes = std::fs::read(&path).expect("read entry");
        let len = bytes.len();
        // Truncate mid-record: a typed `Truncated` error, provably corrupt
        // (a random bit-flip could land in an address field and decode as a
        // different-but-valid record, which no reader can detect).
        bytes.truncate(len - 5);
        std::fs::write(&path, &bytes).expect("truncate entry");

        // A fresh store ("new process") trips on the corruption, moves the
        // entry aside as a `.corrupt` sidecar, counts the quarantine and
        // the forced regeneration, and re-persists a healthy entry.
        let fresh = TraceStore::with_dir(Some(dir.clone()));
        let (w2, m2) = fresh.fetch(&spec::gcc(), &cfg);
        assert_eq!(
            (w1, m1),
            (w2.clone(), m2),
            "regeneration reproduces the trace"
        );

        let health = fresh.health();
        assert_eq!(health.quarantines, 1, "{health:?}");
        assert_eq!(health.regenerations, 1, "{health:?}");
        assert!(!health.degraded, "corruption is not a degradation");

        let mut names: Vec<_> = std::fs::read_dir(&dir)
            .expect("dir")
            .map(|e| e.expect("entry").file_name().into_string().expect("utf8"))
            .collect();
        names.sort();
        assert_eq!(names.len(), 2, "sidecar + fresh entry: {names:?}");
        assert!(names[0].ends_with(".rctrace"), "{names:?}");
        assert!(names[1].ends_with(".corrupt"), "{names:?}");

        // The sidecar sits outside the entry-name grammar: another fresh
        // store ignores it and serves the healthy entry with no further
        // quarantines.
        let again = TraceStore::with_dir(Some(dir.clone()));
        let (w3, _) = again.fetch(&spec::gcc(), &cfg);
        assert_eq!(w3, w2);
        assert_eq!(again.health().quarantines, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resident_cap_evicts_least_recently_used_and_counts() {
        // Regression: the resident full-trace map used to grow without
        // bound — harmless in batch sweeps, a memory leak in a long-lived
        // server replaying many distinct workloads. With a cap of 2, a third
        // distinct trace must evict exactly the least-recently-used one.
        let store =
            TraceStore::with_tier(SharedTier::new(None, IoPolicy::none()).with_resident_cap(2));
        let cfg = RunnerConfig::fast();

        let (w_ammp, _) = store.fetch(&spec::ammp(), &cfg);
        store.fetch(&spec::gcc(), &cfg);
        // Touch ammp again so gcc becomes the LRU.
        let (w_ammp_again, _) = store.fetch(&spec::ammp(), &cfg);
        assert_eq!(
            w_ammp.records().as_ptr(),
            w_ammp_again.records().as_ptr(),
            "the touch is a copy-free hit"
        );
        assert_eq!(store.resident_full_traces(), 2);
        assert_eq!(store.health().evictions, 0, "under the cap, no evictions");

        store.fetch(&spec::m88ksim(), &cfg);
        let health = store.health();
        assert_eq!(store.resident_full_traces(), 2, "the cap holds");
        assert_eq!(health.evictions, 1, "exactly one eviction");
        // gcc (the LRU) went; ammp survived. Refetching ammp is still a
        // shared hit, refetching gcc is a fresh miss.
        let hits_before = health.hits;
        let misses_before = health.misses;
        let (w_ammp_final, _) = store.fetch(&spec::ammp(), &cfg);
        assert_eq!(w_ammp.records().as_ptr(), w_ammp_final.records().as_ptr());
        assert_eq!(store.health().hits, hits_before + 1);
        store.fetch(&spec::gcc(), &cfg);
        assert_eq!(
            store.health().misses,
            misses_before + 1,
            "the evicted trace regenerates like a cold key"
        );
        // The recency map must not leak either: it never tracks more keys
        // than the map holds slots for.
        let stamped = store
            .tier()
            .trace_lru
            .lock()
            .expect("lru lock")
            .last_use
            .len();
        let slots = store.tier().traces.with_map(|m| m.len());
        assert!(stamped <= slots, "{stamped} stamps for {slots} slots");
    }

    #[test]
    fn evicted_trace_reloads_from_disk_not_regeneration() {
        // With persistence configured, eviction only drops the in-memory
        // copy: the next fetch re-reads the disk entry (a hit), keeping the
        // cap a memory bound rather than a throughput cliff.
        let dir = std::env::temp_dir().join(format!("rescache-store-cap-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let store = TraceStore::with_tier(
            SharedTier::new(Some(dir.clone()), IoPolicy::none()).with_resident_cap(1),
        );
        let cfg = RunnerConfig::fast();

        let (w1, m1) = store.fetch(&spec::ammp(), &cfg);
        store.fetch(&spec::gcc(), &cfg);
        assert_eq!(store.resident_full_traces(), 1, "cap 1 holds");
        assert_eq!(store.health().evictions, 1);

        let regen_before = store.health().regenerations;
        let misses_before = store.health().misses;
        let (w2, m2) = store.fetch(&spec::ammp(), &cfg);
        assert_eq!((w1, m1), (w2, m2), "disk round-trip is bit-identical");
        let health = store.health();
        assert_eq!(health.regenerations, regen_before, "no regeneration");
        assert_eq!(health.misses, misses_before, "no cold generation either");
        std::fs::remove_dir_all(&dir).ok();
    }
}
