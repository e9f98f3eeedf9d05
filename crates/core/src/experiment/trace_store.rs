//! The shared trace store: once-per-key generation, copy-free in-process
//! sharing, chunk-granular prefix sharing, optional on-disk persistence, and
//! streamed (never-materialized) serving for replay-once consumers.
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
//! Two access patterns get two serving modes:
//!
//! * [`TraceStore::fetch`] **materializes** (and memoizes) the full trace —
//!   right for the static sweeps, whose memoized simulations replay the same
//!   records dozens of times per process.
//! * [`TraceStore::source`] serves a **pull-based [`TraceSource`]** without
//!   materializing when it can: a copy-free cursor if the trace is already
//!   resident, otherwise a chunk-by-chunk on-disk reader
//!   ([`rescache_trace::TraceFileSource`]), otherwise (directory configured
//!   but entry missing) a streaming generate-to-disk followed by on-disk
//!   replay. Only when no directory is configured does it fall back to the
//!   materialized path. This is what lets the dynamic-controller experiments
//!   run with a single chunk buffer resident.
//!
//! Persisted entries are keyed by *total* length and shared chunk-granularly
//! between overlapping requests: a request is served from a longer entry's
//! leading chunks when the profile is
//! [`length-invariant`](AppProfile::length_invariant) (generation is
//! prefix-stable), and two warm/measure splits of the same total always
//! share one entry. Disk entries are advisory, with typed recovery (all of
//! it exercised deterministically via the [`rescache_trace::IoPolicy`] fault
//! seam and accounted in [`StoreHealth`]):
//!
//! * a **missing** entry regenerates silently;
//! * a **transient** I/O error (see [`rescache_trace::is_transient`]) gets a
//!   bounded retry with backoff before falling back to regeneration — the
//!   entry is *not* quarantined, because nothing proves the file is bad;
//! * a **corrupt, truncated, mislabeled or retired-format** entry is
//!   *quarantined* — renamed to a `.corrupt` sidecar — before regeneration,
//!   so repeated corruption is diagnosable on disk instead of silently
//!   churned;
//! * a **disk-full or unwritable** directory latches the whole store into
//!   in-memory-only degraded mode with a one-time warning (see
//!   [`SharedTier::degrade`]); generation proceeds, persistence stops.
//!
//! The memo maps, fault policy, health counters and cross-process entry
//! lock all live in the [`SharedTier`] the store wraps, so any number of
//! runners and threads share one coherent cache-and-recovery state.

use std::path::{Path, PathBuf};
use std::sync::PoisonError;

use rescache_trace::{
    codec, is_transient, AppProfile, InstrRecord, IoPolicy, Trace, TraceCursor, TraceFileSource,
    TraceFormat, TraceGenerator, TraceSource, TraceStream,
};

use crate::experiment::runner::RunnerConfig;
use crate::experiment::shared_tier::{LockOutcome, SharedTier, StoreHealth};

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

/// How a [`StoreSource`] produces its records (observable so tests and
/// benches can assert which path a run took).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreSourceKind {
    /// A copy-free cursor over a trace materialized in this process.
    Resident,
    /// A chunk-by-chunk decoder over a persisted entry; one chunk resident.
    Disk,
    /// A resumable generator stream; one chunk resident, records are
    /// produced on the fly.
    Generated,
}

/// A [`TraceSource`] served by [`TraceStore::source`]: one of the three
/// producers behind a single monomorphizable type. The generator variant is
/// boxed: a `TraceStream` carries the whole expansion state (~0.7 KB), and
/// one `StoreSource` exists per in-flight simulation, not per record.
#[derive(Debug)]
pub enum StoreSource {
    /// See [`StoreSourceKind::Resident`].
    Resident(TraceCursor),
    /// See [`StoreSourceKind::Disk`].
    Disk(TraceFileSource),
    /// See [`StoreSourceKind::Generated`].
    Generated(Box<TraceStream>),
}

impl StoreSource {
    /// Which producer is behind this source.
    pub fn kind(&self) -> StoreSourceKind {
        match self {
            StoreSource::Resident(_) => StoreSourceKind::Resident,
            StoreSource::Disk(_) => StoreSourceKind::Disk,
            StoreSource::Generated(_) => StoreSourceKind::Generated,
        }
    }

    /// The decode fault that interrupted an on-disk source, if any: a faulted
    /// source under-delivered, and the consuming simulation must be retried
    /// from another producer (the runner regenerates).
    pub fn fault(&self) -> Option<&codec::CodecError> {
        match self {
            StoreSource::Disk(d) => d.fault(),
            _ => None,
        }
    }
}

impl TraceSource for StoreSource {
    fn name(&self) -> &str {
        match self {
            StoreSource::Resident(s) => s.name(),
            StoreSource::Disk(s) => s.name(),
            StoreSource::Generated(s) => s.name(),
        }
    }

    fn total_records(&self) -> usize {
        match self {
            StoreSource::Resident(s) => s.total_records(),
            StoreSource::Disk(s) => s.total_records(),
            StoreSource::Generated(s) => s.total_records(),
        }
    }

    fn next_chunk(&mut self) -> &[InstrRecord] {
        match self {
            StoreSource::Resident(s) => s.next_chunk(),
            StoreSource::Disk(s) => s.next_chunk(),
            StoreSource::Generated(s) => s.next_chunk(),
        }
    }

    fn position(&self) -> usize {
        match self {
            StoreSource::Resident(s) => s.position(),
            StoreSource::Disk(s) => s.position(),
            StoreSource::Generated(s) => s.position(),
        }
    }

    fn split_at(&mut self, at: usize) {
        match self {
            StoreSource::Resident(s) => s.split_at(at),
            StoreSource::Disk(s) => s.split_at(at),
            StoreSource::Generated(s) => s.split_at(at),
        }
    }

    fn skip(&mut self, n: usize) {
        match self {
            StoreSource::Resident(s) => s.skip(n),
            StoreSource::Disk(s) => s.skip(n),
            StoreSource::Generated(s) => s.skip(n),
        }
    }
}

impl TraceStore {
    /// Creates a store persisting to `RESCACHE_TRACE_DIR` if that names a
    /// directory (created on first write), in-memory only otherwise, with
    /// fault injection from `RESCACHE_FAULTS` if set.
    pub fn from_env() -> Self {
        Self::with_tier(SharedTier::from_env())
    }

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

    /// Number of full traces currently materialized in this process — the
    /// observable the streamed experiment paths are measured against ("no
    /// materialized full-length trace" means this stays at zero).
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
    /// materializing at most once per `(application, seed, total)`.
    fn fetch_full(&self, app: &AppProfile, config: &RunnerConfig) -> Trace {
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

    /// Serves the full (warm + measure) record sequence as a pull-based
    /// source, preferring producers that keep at most one chunk resident
    /// (see the module documentation for the exact policy).
    pub fn source(&self, app: &AppProfile, config: &RunnerConfig) -> StoreSource {
        let key = Self::store_key(app, config);
        let total = key.3;

        // Already materialized in this process (exactly, or as a longer
        // prefix-stable trace): replaying the resident buffer is free.
        if let Some((served, full)) = self.resident_prefix(app, &key) {
            self.tier.health().note_hit();
            self.note_resident_use(&served);
            return StoreSource::Resident(full.cursor());
        }

        if self.tier.active_dir().is_some() {
            if let Some(source) = self.disk_source(app, &key) {
                self.tier.health().note_hit();
                return StoreSource::Disk(source);
            }
            // Cold key: persist a streaming-generated entry (once per
            // process — parallel sweeps block on the one writer, and the
            // cross-process entry lock keeps sibling *processes* off it too)
            // and replay it from disk. Nothing is ever fully resident.
            if self.ensure_persisted(app, &key) {
                if let Some(source) = self.disk_source(app, &key) {
                    return StoreSource::Disk(source);
                }
            }
            // The directory is unusable (degraded mode has latched, or the
            // freshly persisted entry immediately failed to read back):
            // generate on the fly rather than fail — still nothing
            // materialized.
            self.tier.health().note_miss();
            return StoreSource::Generated(Box::new(
                TraceGenerator::new(app.clone(), key.2).stream(total),
            ));
        }

        // In-memory-only store (by configuration or degraded): replay-heavy
        // consumers dominate here, so materialize once (memoized, shared)
        // and serve cursors.
        StoreSource::Resident(self.fetch_full(app, config).cursor())
    }

    /// A resident full trace covering `key` — exact, or a copy-free prefix
    /// view of a longer resident trace when the profile is prefix-stable.
    /// Returns the key of the entry actually serving the request (the longer
    /// entry's, on a prefix serve), so callers can stamp the right key in
    /// the resident LRU.
    fn resident_prefix(&self, app: &AppProfile, key: &StoreKey) -> Option<(StoreKey, Trace)> {
        self.tier.traces.with_map(|map| {
            if let Some(trace) = map.get(key).and_then(|slot| slot.get()) {
                return Some((*key, trace.clone()));
            }
            if !app.length_invariant() {
                return None;
            }
            let (name, fingerprint, seed, total) = *key;
            map.iter()
                .filter(|((n, f, s, t), _)| {
                    *n == name && *f == fingerprint && *s == seed && *t > total
                })
                .filter_map(|(k, slot)| slot.get().map(|t| (*k, t)))
                .min_by_key(|(k, _)| k.3)
                .map(|(k, trace)| (k, trace.slice(0..total)))
        })
    }

    /// Opens a chunked on-disk source for `key`: the exact-total entry, or a
    /// prefix of a longer entry when the profile is prefix-stable. The
    /// directory scan for a longer candidate runs only when the exact entry
    /// is absent or unusable — the hot path is one `open`.
    fn disk_source(&self, app: &AppProfile, key: &StoreKey) -> Option<TraceFileSource> {
        let total = key.3;
        if let Some(source) = self.open_entry(app, &self.entry_path(key)?, total, total) {
            return Some(source);
        }
        if app.length_invariant() {
            if let Some((path, file_total)) = self.find_longer_entry(key) {
                return self.open_entry(app, &path, total, file_total);
            }
        }
        None
    }

    /// Opens one candidate entry serving `take` records, validating the
    /// header (a retired-format file surfaces as the codec's typed
    /// [`codec::CodecError::UnsupportedVersion`] or
    /// [`codec::CodecError::UnsupportedFlags`]) and the header's application
    /// name and record count against what the *file name* promises
    /// (`file_total`) — a header that disagrees marks a foreign, stale or
    /// hash-colliding file, which must be ignored, never prefix-served.
    fn open_entry(
        &self,
        app: &AppProfile,
        path: &Path,
        take: usize,
        file_total: usize,
    ) -> Option<TraceFileSource> {
        let policy = self.tier.policy();
        let health = self.tier.health();
        // A transient open failure gets the bounded retry; anything typed is
        // decided immediately.
        let mut attempt = 1;
        let opened = loop {
            match TraceFileSource::open_with(path, Some(take), policy) {
                Err(codec::CodecError::Io(e))
                    if is_transient(&e) && attempt < IoPolicy::ATTEMPTS =>
                {
                    health.note_retry();
                    std::thread::sleep(IoPolicy::BACKOFF * attempt);
                    attempt += 1;
                }
                other => break other,
            }
        };
        match opened {
            Ok(source) if source.name() == app.name && source.file_records() == file_total => {
                Some(source)
            }
            Ok(source) => {
                // A header that disagrees with the file's own name marks a
                // foreign, stale or hash-colliding file: a content problem,
                // so it is quarantined like corruption.
                eprintln!(
                    "rescache: trace store entry {} is for {}/{} records, expected {}/{file_total}; quarantining",
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
    /// store's entry-name grammar, so scans and prefix sharing ignore it.
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

    /// Quarantines a faulted persisted entry and forgets that it was
    /// persisted, so the next [`TraceStore::source`] for its key re-persists
    /// a fresh entry instead of re-reading the corrupt one forever. When the
    /// fault was transient I/O (`quarantine = false`), the entry itself is
    /// left untouched — only the persist memo is cleared so the next request
    /// re-probes the disk.
    ///
    /// The faulted file may be the requesting key's exact entry *or* a
    /// longer shared entry, so the persist memo is cleared for both the
    /// requesting key and the key the file's own name claims.
    pub(crate) fn invalidate_disk_entry(
        &self,
        path: &Path,
        app: &AppProfile,
        config: &RunnerConfig,
        quarantine: bool,
    ) {
        if quarantine {
            self.quarantine_entry(path);
        }
        let (name, fingerprint, seed, _) = Self::store_key(app, config);
        self.tier.persists.remove(&Self::store_key(app, config));
        if let Some(file_total) = Self::entry_total_from_path(path, name, fingerprint, seed) {
            self.tier
                .persists
                .remove(&(name, fingerprint, seed, file_total));
        }
    }

    /// Parses the total-record count a store entry's file name claims, if
    /// the name matches the given (application, fingerprint, seed).
    fn entry_total_from_path(
        path: &Path,
        name: &str,
        fingerprint: u64,
        seed: u64,
    ) -> Option<usize> {
        let file_name = path.file_name()?.to_str()?;
        let prefix = format!("{name}-{fingerprint:016x}-s{seed}-t");
        file_name
            .strip_prefix(&prefix)?
            .strip_suffix(ENTRY_SUFFIX)?
            .parse()
            .ok()
    }

    /// Persists the keyed trace by draining a generator stream to disk (no
    /// materialization), once per process — and, via the cross-process entry
    /// lock, once per *store directory* when sibling processes race on the
    /// same cold key. Returns whether an entry exists.
    fn ensure_persisted(&self, app: &AppProfile, key: &StoreKey) -> bool {
        let Some(dir) = self.tier.active_dir().map(Path::to_path_buf) else {
            return false;
        };
        let slot = self.tier.persists.slot(*key);
        *slot.get_or_init(|| {
            let path = dir.join(Self::file_name(key));
            if self.dir_unusable(&dir) {
                return false;
            }
            let _guard = match self.tier.lock_entry(&path) {
                LockOutcome::Acquired(guard) => Some(guard),
                // Another process committed the entry while we waited.
                LockOutcome::EntryAppeared => return true,
                // Liveness over cross-process dedup: write without the lock
                // (atomic_save makes the duplicate harmless).
                LockOutcome::Unlocked => None,
            };
            self.tier.health().note_miss();
            let policy = self.tier.policy();
            let result = policy.retrying(
                || self.tier.health().note_retry(),
                || {
                    let mut stream = TraceGenerator::new(app.clone(), key.2).stream(key.3);
                    codec::save_source(&path, &mut stream, policy)
                },
            );
            match result {
                Ok(()) => true,
                Err(e) => {
                    self.note_persist_failure(&path, &e);
                    false
                }
            }
        })
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
                "rescache: could not persist trace to {} ({e}); streaming in-memory",
                path.display()
            );
        }
    }

    /// Loads the keyed full trace from disk if possible, otherwise generates
    /// it (and persists the result, best-effort). Every landing is counted:
    /// a disk (or resident-prefix) serve is a hit, a clean cold generation a
    /// miss, a generation forced by a bad entry a regeneration.
    fn load_or_generate(&self, app: &AppProfile, key: &StoreKey) -> Trace {
        let (_, _, seed, total) = *key;
        let health = self.tier.health();

        // A longer prefix-stable trace already resident in this process
        // serves the request as a copy-free view — the same sharing
        // `source()` applies (the exact key can't be resident: this runs
        // inside its one-time initializer).
        if let Some((served, prefix)) = self.resident_prefix(app, key) {
            health.note_hit();
            self.note_resident_use(&served);
            return prefix;
        }

        // One disk-serving policy for both access modes: `disk_source`
        // locates and validates the entry (exact total, or a longer entry's
        // prefix when the profile is prefix-stable — chunk-granular, so
        // corruption beyond the prefix is never even read) and this path
        // merely materializes what it streams. A transient mid-read fault
        // retries the whole materialization (bounded); a content fault
        // quarantines the entry before falling back to regeneration.
        let mut forced_regeneration = false;
        let mut attempt = 1;
        while let Some(mut source) = self.disk_source(app, key) {
            let mut records: Vec<InstrRecord> = Vec::with_capacity(total);
            loop {
                let chunk = source.next_chunk();
                if chunk.is_empty() {
                    break;
                }
                records.extend_from_slice(chunk);
            }
            if source.fault().is_none() && records.len() == total {
                health.note_hit();
                return Trace::new(app.name, records);
            }
            let transient = matches!(
                source.fault(),
                Some(codec::CodecError::Io(e)) if is_transient(e)
            );
            if transient && attempt < IoPolicy::ATTEMPTS {
                health.note_retry();
                std::thread::sleep(IoPolicy::BACKOFF * attempt);
                attempt += 1;
                continue;
            }
            eprintln!(
                "rescache: trace store entry {} unreadable ({}); regenerating",
                source.path().display(),
                source
                    .fault()
                    .map(|e| e.to_string())
                    .unwrap_or_else(|| "short stream".into()),
            );
            if !transient {
                // Provably bad content (corrupt, truncated, short): keep the
                // evidence as a `.corrupt` sidecar so the regeneration below
                // persists a fresh entry at the original path.
                let path = source.path().to_path_buf();
                drop(source);
                self.quarantine_entry(&path);
            }
            forced_regeneration = true;
            break;
        }

        if forced_regeneration {
            health.note_regeneration();
        } else {
            health.note_miss();
        }
        let full = TraceGenerator::new(app.clone(), seed).generate(total);
        if let Some(path) = self.entry_path(key) {
            if let Err(e) = self.persist(&path, &full) {
                self.note_persist_failure(&path, &e);
            }
        }
        full
    }

    /// Writes `full` to `path` (with bounded transient retry), creating the
    /// store directory on first use. Cross-process writers on the same cold
    /// entry are serialized by the advisory lock; if the entry appears while
    /// waiting, the persist is already done.
    fn persist(&self, path: &Path, full: &Trace) -> std::io::Result<()> {
        if let Some(parent) = path.parent() {
            if self.dir_unusable(parent) {
                // Degraded mode just latched (with its one-time warning);
                // the caller needs no second report.
                return Ok(());
            }
        }
        let _guard = match self.tier.lock_entry(path) {
            LockOutcome::Acquired(guard) => Some(guard),
            LockOutcome::EntryAppeared => return Ok(()),
            LockOutcome::Unlocked => None,
        };
        let policy = self.tier.policy();
        policy.retrying(
            || self.tier.health().note_retry(),
            || codec::save_source(path, &mut full.cursor(), policy),
        )
    }

    /// The on-disk path of a key's exact-total entry, if a usable directory
    /// is configured (degraded mode reads as "no directory").
    fn entry_path(&self, key: &StoreKey) -> Option<PathBuf> {
        self.tier.active_dir().map(|d| d.join(Self::file_name(key)))
    }

    /// Finds the smallest persisted entry for the same (application,
    /// fingerprint, seed) whose total exceeds the key's — the candidate for
    /// prefix serving. Returns the path and the total its file name claims.
    fn find_longer_entry(&self, key: &StoreKey) -> Option<(PathBuf, usize)> {
        let dir = self.tier.active_dir()?;
        let (name, fingerprint, seed, total) = *key;
        let prefix = format!("{name}-{fingerprint:016x}-s{seed}-t");
        let mut best: Option<(PathBuf, usize)> = None;
        for entry in self.tier.policy().read_dir(dir).ok()? {
            let Ok(entry) = entry else { continue };
            let file_name = entry.file_name();
            let Some(file_name) = file_name.to_str() else {
                continue;
            };
            let Some(rest) = file_name
                .strip_prefix(&prefix)
                .and_then(|r| r.strip_suffix(ENTRY_SUFFIX))
            else {
                continue;
            };
            let Ok(entry_total) = rest.parse::<usize>() else {
                continue;
            };
            if entry_total > total && best.as_ref().is_none_or(|(_, t)| entry_total < *t) {
                best = Some((entry.path(), entry_total));
            }
        }
        best
    }

    /// File name of a store entry: application name plus every key component
    /// that distinguishes trace contents. Entries are keyed by *total*
    /// length — the warm/measure split is a property of the request, not of
    /// the records — so overlapping requests share files.
    fn file_name(key: &StoreKey) -> String {
        let (name, fingerprint, seed, total) = key;
        format!("{name}-{fingerprint:016x}-s{seed}-t{total}{ENTRY_SUFFIX}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    fn drain(source: &mut StoreSource) -> Vec<InstrRecord> {
        let mut records = Vec::new();
        loop {
            let chunk = source.next_chunk();
            if chunk.is_empty() {
                break;
            }
            records.extend_from_slice(chunk);
        }
        records
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

    #[test]
    fn longer_entry_serves_a_shorter_request_without_regeneration() {
        let (store, dir) = temp_store("prefix");
        let cfg = RunnerConfig::fast();
        // ammp is length-invariant (constant schedules): persist the long
        // trace, then ask a fresh store for a shorter one.
        assert!(spec::ammp().length_invariant());
        let (w_long, m_long) = store.fetch(&spec::ammp(), &cfg);
        let long_path = entry_path(&dir);

        let mut short = cfg;
        short.measure_instructions /= 2;
        let fresh = TraceStore::with_dir(Some(dir.clone()));
        let (w_short, m_short) = fresh.fetch(&spec::ammp(), &short);
        assert_eq!(w_short, w_long);
        let long_records: Vec<_> = w_long
            .records()
            .iter()
            .chain(m_long.records())
            .copied()
            .collect();
        assert_eq!(
            m_short.records(),
            &long_records
                [short.warmup_instructions..short.warmup_instructions + short.measure_instructions]
        );
        // Served from the longer entry: no new file appeared.
        assert_eq!(std::fs::read_dir(&dir).expect("dir").count(), 1);

        // A corrupt chunk *inside* the requested prefix falls back to
        // regeneration (which writes the exact-total entry). Wreck the first
        // chunk's directory entry — v3 compressed container: magic(8) +
        // flags(1) + name_len(4) + name + count(8), then per chunk
        // [len u32][byte_len u32][payload].
        let mut bytes = std::fs::read(&long_path).expect("read entry");
        let first_chunk = 9 + 4 + "ammp".len() + 8;
        bytes[first_chunk + 4..first_chunk + 8].copy_from_slice(&u32::MAX.to_le_bytes());
        std::fs::write(&long_path, &bytes).expect("corrupt entry");
        let corrupted = TraceStore::with_dir(Some(dir.clone()));
        let (w_regen, m_regen) = corrupted.fetch(&spec::ammp(), &short);
        assert_eq!(w_regen, w_short, "regeneration reproduces the prefix");
        assert_eq!(m_regen, m_short);
        assert_eq!(
            std::fs::read_dir(&dir).expect("dir").count(),
            2,
            "regeneration persisted the exact-total entry"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn length_varying_profiles_never_share_prefixes() {
        let (store, dir) = temp_store("noprefix");
        let cfg = RunnerConfig::fast();
        // gcc's multi-phase sequence schedules scale with the total: a
        // shorter request must regenerate, not reuse the longer entry.
        assert!(!spec::gcc().length_invariant());
        store.fetch(&spec::gcc(), &cfg);

        let mut short = cfg;
        short.measure_instructions /= 2;
        let fresh = TraceStore::with_dir(Some(dir.clone()));
        let (_, m_short) = fresh.fetch(&spec::gcc(), &short);
        let expected = TraceGenerator::new(spec::gcc(), cfg.trace_seed)
            .generate(short.warmup_instructions + short.measure_instructions);
        assert_eq!(
            m_short.records(),
            &expected.records()[short.warmup_instructions..]
        );
        assert_eq!(
            std::fs::read_dir(&dir).expect("dir").count(),
            2,
            "the shorter gcc trace gets its own entry"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn mislabeled_entry_is_ignored_not_prefix_served() {
        // A file whose header promises more records than its *name* claims
        // is foreign or stale: serving its prefix would silently diverge for
        // length-varying profiles. Both the materialized and the streamed
        // paths must regenerate instead.
        let (_, dir) = temp_store("mislabel");
        std::fs::create_dir_all(&dir).expect("create dir");
        let cfg = RunnerConfig::fast();
        let mut short = cfg;
        short.measure_instructions /= 2;
        let short_total = short.warmup_instructions + short.measure_instructions;
        // Masquerade a long trace as the short entry (gcc is NOT
        // length-invariant, so no honest sharing path exists).
        let short_name = TraceStore::file_name(&TraceStore::store_key(&spec::gcc(), &short));
        let long_trace = TraceGenerator::new(spec::gcc(), cfg.trace_seed)
            .generate(cfg.warmup_instructions + cfg.measure_instructions);
        codec::save_trace(&dir.join(&short_name), &long_trace).expect("plant mislabeled entry");

        let expected = TraceGenerator::new(spec::gcc(), cfg.trace_seed).generate(short_total);

        // Materialized path regenerates (and overwrites the bad entry).
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

        // Streamed path on a separate planted copy: must not serve the
        // mislabeled header either.
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).expect("recreate dir");
        codec::save_trace(&dir.join(&short_name), &long_trace).expect("plant again");
        let fresh = TraceStore::with_dir(Some(dir.clone()));
        let mut source = fresh.source(&spec::gcc(), &short);
        assert_eq!(drain(&mut source), expected.records());
        assert!(source.fault().is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn source_prefers_disk_and_never_materializes_with_a_dir() {
        let (store, dir) = temp_store("source");
        let cfg = RunnerConfig::fast();
        let total = cfg.warmup_instructions + cfg.measure_instructions;
        let reference = TraceGenerator::new(spec::su2cor(), cfg.trace_seed).generate(total);

        // Cold key with a directory: generate-to-disk, then serve from disk.
        let mut source = store.source(&spec::su2cor(), &cfg);
        assert_eq!(source.kind(), StoreSourceKind::Disk);
        assert_eq!(source.total_records(), total);
        assert_eq!(drain(&mut source), reference.records());
        assert_eq!(store.resident_full_traces(), 0, "nothing materialized");
        assert_eq!(std::fs::read_dir(&dir).expect("dir").count(), 1);

        // Second source replays the persisted entry.
        let mut source = store.source(&spec::su2cor(), &cfg);
        assert_eq!(source.kind(), StoreSourceKind::Disk);
        assert_eq!(drain(&mut source), reference.records());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn source_serves_resident_traces_and_in_memory_stores() {
        let store = TraceStore::with_dir(None);
        let cfg = RunnerConfig::fast();
        let total = cfg.warmup_instructions + cfg.measure_instructions;

        // In-memory-only store: the source materializes once and replays.
        let mut source = store.source(&spec::ammp(), &cfg);
        assert_eq!(source.kind(), StoreSourceKind::Resident);
        assert_eq!(drain(&mut source).len(), total);
        assert_eq!(store.resident_full_traces(), 1);

        // A shorter request for a length-invariant profile is a copy-free
        // prefix view of the resident trace — still one materialization.
        let mut short = cfg;
        short.measure_instructions /= 2;
        let source = store.source(&spec::ammp(), &short);
        assert_eq!(source.kind(), StoreSourceKind::Resident);
        assert_eq!(
            source.total_records(),
            short.warmup_instructions + short.measure_instructions
        );
        assert_eq!(store.resident_full_traces(), 1);
    }

    #[test]
    fn wrong_format_at_the_right_path_is_rejected_and_regenerated() {
        // Plant each retired layout at a v3 entry's exact path (a store
        // written by an older build): `RCTRACE1`/`RCTRACE2` headers (no
        // flags byte, raw 12-byte records) and an `RCTRACE3` header with the
        // raw layout's flags 0. Each is rejected typed, quarantined to a
        // `.corrupt` sidecar, and the request regenerates the honest bits —
        // for both the materialized and the streamed access modes.
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
            for streamed in [false, true] {
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
                let records = if streamed {
                    let mut source = fresh.source(&app, &cfg);
                    let records = drain(&mut source);
                    assert!(source.fault().is_none(), "{label}");
                    records
                } else {
                    let (w, m) = fresh.fetch(&app, &cfg);
                    [w.records(), m.records()].concat()
                };
                assert_eq!(records, expected.records(), "{label} streamed={streamed}");
                assert_eq!(fresh.health().quarantines, 1, "{label} streamed={streamed}");
                assert!(
                    PathBuf::from(&sidecar).exists(),
                    "{label} streamed={streamed}: no .corrupt sidecar"
                );
            }
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
        let mut source = store.source(&spec::vpr(), &cfg);
        assert_eq!(source.kind(), StoreSourceKind::Generated);
        assert_eq!(drain(&mut source).len(), total);
        assert_eq!(store.resident_full_traces(), 0);

        // The unusable directory latched degraded mode with its one-time
        // warning; later requests go straight to in-memory operation (no
        // repeated probing, no repeated warnings) and correctness holds.
        let health = store.health();
        assert!(health.degraded, "{health:?}");
        assert_eq!(health.warnings, 1, "{health:?}");
        let mut source = store.source(&spec::ammp(), &cfg);
        assert_eq!(source.kind(), StoreSourceKind::Resident);
        assert_eq!(drain(&mut source).len(), total);
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

        let mut source = store.source(&spec::vpr(), &cfg);
        assert_eq!(source.kind(), StoreSourceKind::Generated);
        assert_eq!(drain(&mut source), reference.records());

        let health = store.health();
        assert!(health.degraded, "disk-full must latch degraded: {health:?}");
        assert_eq!(health.warnings, 1, "{health:?}");

        // Degraded mode: later sources are resident (in-memory fallback),
        // no new warnings, and the directory holds no committed entries
        // (the aborted temp file was cleaned up).
        let mut source = store.source(&spec::vpr(), &cfg);
        assert_eq!(source.kind(), StoreSourceKind::Resident);
        assert_eq!(drain(&mut source), reference.records());
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

        let mut source = store.source(&spec::vpr(), &cfg);
        assert_eq!(source.kind(), StoreSourceKind::Generated);
        assert_eq!(drain(&mut source).len(), total);
        assert_eq!(injector.pending_script(), 0, "all three attempts faulted");

        let health = store.health();
        assert!(
            !health.degraded,
            "transient faults must not latch: {health:?}"
        );
        assert_eq!(health.warnings, 1, "{health:?}");
        assert!(health.retries >= 2, "{health:?}");

        // The directory is still live: the next key persists and serves
        // from disk.
        let mut source = store.source(&spec::ammp(), &cfg);
        assert_eq!(source.kind(), StoreSourceKind::Disk);
        assert_eq!(drain(&mut source).len(), total);
        assert_eq!(std::fs::read_dir(&dir).expect("dir").count(), 1);
        assert!(!store.health().degraded);
        std::fs::remove_dir_all(&dir).ok();
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
