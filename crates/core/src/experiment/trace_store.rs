//! The trace half of the [`SharedTier`]: once-per-key generation, copy-free
//! in-process sharing, and optional on-disk persistence. This module is an
//! `impl SharedTier` block; [`TraceStore`] is another name for the tier.
//!
//! Every experiment replays the same `(application, seed, lengths)` trace
//! under many cache configurations, and trace generation is the slowest
//! single stage of a cold sweep. The store therefore keeps one *full*
//! generated trace per `(application, seed, total length)` within a process
//! (concurrent callers block on the one generation; warm/measure splits are
//! copy-free views, so two runner configurations whose totals agree share one
//! buffer) and — when the tier is built over a directory
//! ([`SharedTier::with_dir`]) — persists each generated trace with the
//! [`rescache_trace::codec`] so later processes over that directory replay
//! from disk instead of regenerating.
//! [`Runner::new`](crate::experiment::Runner::new) builds an in-memory tier.
//!
//! There is one way to get records: [`SharedTier::fetch`] materializes (and
//! memoizes) the full trace — loading a persisted entry whole with
//! [`codec::load`], or generating the trace and persisting it — and every
//! static or dynamic run replays that resident buffer's record slice. A
//! persisted entry is loaded once per process, not once per run.
//!
//! Entries, resident and persisted, are keyed by *total* length and served
//! only for that exact key: two warm/measure splits of the same total share
//! one entry, while a request for a different total gets its own. Disk
//! entries are advisory, with one failure rule each way (counted in
//! [`StoreHealth`](crate::experiment::StoreHealth)):
//!
//! * **load** — a *missing* entry generates silently (a miss). An existing
//!   entry that fails to load for any reason — an I/O error, or a corrupt,
//!   truncated, mislabeled or retired-format file — is one *regeneration*
//!   with one warning naming the path and the error. The regeneration's
//!   atomic save then replaces the bad file;
//! * **save** — a failed directory creation or save latches the whole store
//!   into in-memory-only degraded mode with a one-time warning (see
//!   [`SharedTier::degrade`]); generation proceeds, persistence stops.
//!
//! The trace memo sits beside the simulation memo, the health counters and
//! the degraded flag in the one tier, so any number of runners and threads
//! share one coherent cache state. Single flight is per process; writers in
//! different processes need no lock, because every save writes a per-writer
//! temp file and renames it into place.

use std::io::ErrorKind;
use std::path::{Path, PathBuf};

use rescache_trace::{codec, AppProfile, CodecError, IoPolicy, Trace, TraceFormat, TraceGenerator};

use crate::experiment::runner::RunnerConfig;
use crate::experiment::shared_tier::SharedTier;

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
const ENTRY_SUFFIX: &str = TraceFormat::V4.file_suffix();

/// The store of generated traces: another name for the [`SharedTier`]. It
/// stays only because the standalone benchmark (`perfbench/`) names it.
pub type TraceStore = SharedTier;

impl SharedTier {
    /// A tier with an explicit persistence directory (`None` = in-memory
    /// only).
    pub fn with_dir(dir: Option<PathBuf>) -> Self {
        Self::new(dir, IoPolicy::none())
    }

    /// Returns `tier` unchanged. An identity shim: it stays only because the
    /// standalone benchmark (`perfbench/src/serve.rs`) builds its store with
    /// `TraceStore::with_tier`.
    pub fn with_tier(tier: SharedTier) -> Self {
        tier
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

    /// Number of full traces currently materialized in this process. A cold
    /// fetch leaves at most the tier's
    /// [`resident_cap`](SharedTier::resident_cap), or the traces then in use
    /// plus the fetched one when those are more.
    pub fn resident_full_traces(&self) -> usize {
        self.traces.initialized_count()
    }

    /// Returns the warm-up and measurement traces for an application,
    /// generating (or loading from disk) at most once per key.
    pub fn fetch(&self, app: &AppProfile, config: &RunnerConfig) -> (Trace, Trace) {
        self.fetch_full(app, config)
            .split_at(config.warmup_instructions)
    }

    /// Returns the full (warm + measure) trace for an application,
    /// materializing at most once per `(application, seed, total)`: the
    /// buffer whose records every run replays. The tier's trace memo counts
    /// a resident or shared landing and, before a cold trace materializes,
    /// evicts the least recently used traces no run or job holds until it
    /// fits under [`resident_cap`](SharedTier::resident_cap) (by default
    /// only the held traces stay); an evicted trace reloads from disk (or
    /// regenerates) like any cold key.
    /// [`SharedTier::load_entry`] counts a materialization.
    pub(crate) fn fetch_full(&self, app: &AppProfile, config: &RunnerConfig) -> Trace {
        let key = Self::store_key(app, config);
        self.traces
            .get_or_init(key, self.counters(), || self.load_or_generate(app, &key))
    }

    /// Loads `key`'s persisted entry whole and counts how the request
    /// lands: a served entry is a hit; no entry (no usable directory, or no
    /// file) is a miss. An entry that exists but fails to load for any
    /// reason — an I/O error, a codec content error (corrupt, truncated or
    /// retired-format), or a header whose application name or record count
    /// disagrees with the *file name* (a foreign, stale or hash-colliding
    /// file) — is one regeneration with one warning; the regeneration's save
    /// replaces the file.
    fn load_entry(&self, app: &AppProfile, key: &StoreKey) -> Option<Trace> {
        let health = self.counters();
        let Some(path) = self.entry_path(key) else {
            health.note_miss();
            return None;
        };
        let why = match codec::load(&path) {
            Ok(trace) if trace.name() == app.name && trace.len() == key.3 => {
                health.note_hit();
                return Some(trace);
            }
            Err(CodecError::Io(e))
                if matches!(e.kind(), ErrorKind::NotFound | ErrorKind::NotADirectory) =>
            {
                health.note_miss();
                return None;
            }
            Ok(trace) => format!(
                "it holds {}/{} records, expected {}/{}",
                trace.name(),
                trace.len(),
                app.name,
                key.3
            ),
            Err(e) => e.to_string(),
        };
        health.note_warning();
        eprintln!(
            "rescache: trace store entry {} unusable ({why}); regenerating it",
            path.display()
        );
        health.note_regeneration();
        None
    }

    /// Loads the keyed full trace from disk if possible, otherwise generates
    /// it (and persists the result, best-effort). [`SharedTier::load_entry`]
    /// counts the landing.
    fn load_or_generate(&self, app: &AppProfile, key: &StoreKey) -> Trace {
        if let Some(trace) = self.load_entry(app, key) {
            return trace;
        }
        let full = TraceGenerator::new(app.clone(), key.2).generate(key.3);
        if let Some(path) = self.entry_path(key) {
            self.persist(&path, &full);
        }
        full
    }

    /// The store's one persist routine: creates the store directory and
    /// saves `trace`. Either failing latches degraded mode, with its
    /// one-time warning.
    ///
    /// No lock is taken: the codec writes a per-writer temp file and renames
    /// it into place, so two writers of one entry (two processes sharing the
    /// directory) each commit a whole file and neither exposes a torn one.
    fn persist(&self, path: &Path, trace: &Trace) {
        let saved = path
            .parent()
            .map_or(Ok(()), std::fs::create_dir_all)
            .and_then(|()| codec::save_trace(path, trace));
        if let Err(e) = saved {
            self.degrade(&format!("could not persist to {}: {e}", path.display()));
        }
    }

    /// The on-disk path of a key's exact-total entry, if a usable directory
    /// is configured (degraded mode reads as "no directory").
    fn entry_path(&self, key: &StoreKey) -> Option<PathBuf> {
        self.active_dir().map(|d| d.join(Self::file_name(key)))
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

#[cfg(test)]
mod tests {
    use super::*;
    use rescache_cache::{HierarchyConfig, MemoryHierarchy};
    use rescache_cpu::{CpuConfig, NoopHook, Simulator};
    use rescache_trace::spec;

    fn temp_store(tag: &str) -> (SharedTier, PathBuf) {
        let dir = std::env::temp_dir().join(format!("rescache-store-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        (SharedTier::with_dir(Some(dir.clone())), dir)
    }

    /// A record past the codec's first read buffer (4 Ki records) in a
    /// [`RunnerConfig::fast`] entry.
    const LATE_RECORD: usize = 10_000;

    /// Byte offset of record `k`'s kind byte in the v4 entry of `app`: the
    /// magic, the name length, the name and the count, then 11 bytes per
    /// record whose ninth is the kind.
    fn kind_offset(app: &str, k: usize) -> usize {
        8 + 4 + app.len() + 8 + 11 * k + 8
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
        let store = SharedTier::with_dir(None);
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
        let store = SharedTier::with_dir(None);
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
        // from disk; a bad kind byte in a record past the codec's first read
        // buffer proves the whole file is actually read (the fetch falls
        // back to regeneration). Flipping a PC or address byte would not
        // do: it decodes to a different-but-valid record.
        let fresh = SharedTier::with_dir(Some(dir.clone()));
        let (_, m2) = fresh.fetch(&spec::m88ksim(), &cfg);
        assert_eq!(m1, m2);

        let mut bytes = std::fs::read(&path).expect("read entry");
        bytes[kind_offset("m88ksim", LATE_RECORD)] = 0xff;
        std::fs::write(&path, &bytes).expect("corrupt entry");
        let corrupted = SharedTier::with_dir(Some(dir.clone()));
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

        let fresh = SharedTier::with_dir(Some(dir.clone()));
        let (w, m) = fresh.fetch(app, &short);
        let expected = TraceGenerator::new(app.clone(), short.trace_seed).generate(short_total);
        assert_eq!(
            [w.records(), m.records()].concat(),
            expected.records(),
            "{name}"
        );
        assert_eq!(fresh.health().misses, 1, "{name}: generated, not reused");
        let short_path = dir.join(SharedTier::file_name(&SharedTier::store_key(app, &short)));
        assert!(short_path.exists(), "{name}: its own entry is written");
        assert_eq!(std::fs::read_dir(&dir).expect("dir").count(), 2, "{name}");
        assert_eq!(
            std::fs::read(&long_path).expect("reread long entry"),
            long_bytes,
            "{name}: the longer entry is untouched"
        );

        // Another fresh store loads the shorter total's own entry from disk.
        let reload = SharedTier::with_dir(Some(dir.clone()));
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
    fn entry_whose_header_disagrees_with_its_name_regenerates() {
        // A file whose header promises more records than its *name* claims
        // is foreign or stale: serving any of it would silently diverge.
        // The store must regenerate instead.
        let (_, dir) = temp_store("mislabel");
        std::fs::create_dir_all(&dir).expect("create dir");
        let cfg = RunnerConfig::fast();
        let mut short = cfg;
        short.measure_instructions /= 2;
        let short_total = short.warmup_instructions + short.measure_instructions;
        // Masquerade a long trace as the short entry (gcc's multi-phase
        // schedules scale with the total, so its prefix is not the short
        // trace).
        let short_name = SharedTier::file_name(&SharedTier::store_key(&spec::gcc(), &short));
        let long_trace = TraceGenerator::new(spec::gcc(), cfg.trace_seed)
            .generate(cfg.warmup_instructions + cfg.measure_instructions);
        codec::save_trace(&dir.join(&short_name), &long_trace).expect("plant mislabeled entry");

        let expected = TraceGenerator::new(spec::gcc(), cfg.trace_seed).generate(short_total);

        // The fetch regenerates and persists a fresh entry.
        let fresh = SharedTier::with_dir(Some(dir.clone()));
        let (w, m) = fresh.fetch(&spec::gcc(), &short);
        assert_eq!(
            w.records(),
            &expected.records()[..short.warmup_instructions]
        );
        assert_eq!(
            m.records(),
            &expected.records()[short.warmup_instructions..]
        );

        // A mislabeled entry is a bad entry like any other: one
        // regeneration, not a miss.
        let health = fresh.health();
        assert_eq!((health.regenerations, health.misses), (1, 0), "{health:?}");

        // The regeneration replaced the entry: another store serves it from
        // disk.
        let again = SharedTier::with_dir(Some(dir.clone()));
        let (w, m) = again.fetch(&spec::gcc(), &short);
        assert_eq!([w.records(), m.records()].concat(), expected.records());
        assert_eq!((again.health().hits, again.health().misses), (1, 0));
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
        let fetch_all = |store: &SharedTier| {
            let (warm, measure) = store.fetch(&spec::gcc(), &cfg);
            [warm.records(), measure.records()].concat()
        };
        for round in 0..4 {
            let (first, dir) = temp_store(&format!("race-{round}"));
            let second = SharedTier::with_dir(Some(dir.clone()));
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
            let fresh = SharedTier::with_dir(Some(dir.clone()));
            assert_eq!(fetch_all(&fresh), reference.records(), "round {round}");
            assert_eq!(fresh.health().hits, 1, "round {round}: served from disk");
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn source_serves_resident_traces_and_in_memory_stores() {
        let store = SharedTier::with_dir(None).with_resident_cap(2);
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
        // Plant each retired layout at a v4 entry's exact path (a store
        // written by an older build): `RCTRACE1`/`RCTRACE2` headers (no
        // flags byte, raw 12-byte records) and an `RCTRACE3` header (a
        // flags byte, then delta-compressed chunks). Each is rejected at
        // its magic, typed, the request regenerates the honest bits, and
        // their save replaces the file.
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
        let path = dir.join(SharedTier::file_name(&SharedTier::store_key(&app, &cfg)));
        for (label, bytes) in [
            ("v1", old_entry(b"RCTRACE1", None)),
            ("v2", old_entry(b"RCTRACE2", None)),
            ("v3", old_entry(b"RCTRACE3", Some(1))),
        ] {
            std::fs::remove_dir_all(&dir).ok();
            std::fs::create_dir_all(&dir).expect("create dir");
            std::fs::write(&path, &bytes).expect("plant old entry");
            let err = codec::load(&path).unwrap_err();
            let typed = match label {
                "v1" => matches!(err, CodecError::UnsupportedVersion { version: b'1' }),
                "v2" => matches!(err, CodecError::UnsupportedVersion { version: b'2' }),
                _ => matches!(err, CodecError::UnsupportedVersion { version: b'3' }),
            };
            assert!(typed, "{label}: {err}");

            let fresh = SharedTier::with_dir(Some(dir.clone()));
            let (w, m) = fresh.fetch(&app, &cfg);
            assert_eq!(
                [w.records(), m.records()].concat(),
                expected.records(),
                "{label}"
            );
            assert_eq!(fresh.health().regenerations, 1, "{label}");
            assert_eq!(codec::load(&path).expect("replaced entry"), expected);
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

        let fresh = SharedTier::with_dir(Some(dir.clone()));
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
        let store = SharedTier::with_dir(Some(dir.clone())).with_resident_cap(2);
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

    /// How a fresh store's load of a persisted entry fails.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum LoadFault {
        /// A directory sits at the entry's path: opening it succeeds, the
        /// first read fails with a real I/O error, and the save that would
        /// replace it fails too.
        Unreadable,
        /// A bad kind byte in a record past the codec's first read buffer:
        /// a codec content error, replaced by the regeneration's save.
        Corrupt,
    }

    /// Persists an `m88ksim` entry, then fetches it through a second store
    /// whose load meets `fault`, and checks the health counters against the
    /// failure rule. Every consumer of the store's trace must see the clean
    /// bits: the fetched records equal `clean`, and `simulate` over them
    /// equals `clean_sim`.
    fn assert_load_recovery<T: PartialEq + std::fmt::Debug>(
        fault: LoadFault,
        clean: &Trace,
        simulate: impl Fn(&Trace) -> T,
        clean_sim: &T,
    ) {
        use std::io::{Seek, SeekFrom, Write};
        let label = format!("{fault:?}").to_lowercase();
        let (writer, dir) = temp_store(&format!("load-{label}"));
        let (app, cfg) = (spec::m88ksim(), RunnerConfig::fast());
        writer.fetch(&app, &cfg);
        let path = entry_path(&dir);
        match fault {
            LoadFault::Unreadable => {
                std::fs::remove_file(&path).expect("remove entry");
                std::fs::create_dir(&path).expect("directory at the entry path");
            }
            LoadFault::Corrupt => {
                let mut file = std::fs::OpenOptions::new()
                    .write(true)
                    .open(&path)
                    .expect("open entry for writing");
                let at = kind_offset(app.name, LATE_RECORD) as u64;
                file.seek(SeekFrom::Start(at)).expect("seek");
                file.write_all(&[0xff]).expect("corrupt");
            }
        }

        // A second store over the same directory: nothing of the entry is
        // resident there.
        let store = SharedTier::with_dir(Some(dir.clone()));
        let served = store.fetch_full(&app, &cfg);
        assert_eq!(served.records(), clean.records(), "{label}: fetched");
        assert_eq!(&simulate(&served), clean_sim, "{label}: simulated");

        // One regeneration either way. The corrupt file is replaced by the
        // regeneration's save; nothing can replace a directory, so that save
        // fails and latches degraded mode with its one-time warning.
        let health = store.health();
        let unreadable = fault == LoadFault::Unreadable;
        assert_eq!(
            (health.regenerations, health.hits, health.misses),
            (1, 0, 0),
            "{label}: {health:?}"
        );
        assert_eq!(health.degraded, unreadable, "{label}: {health:?}");
        let warnings = if unreadable { 2 } else { 1 };
        assert_eq!(health.warnings, warnings, "{label}: {health:?}");
        if !unreadable {
            assert_eq!(codec::load(&path).expect("replaced entry"), *clean);
        }
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
                trace.records(),
                cfg.warmup_instructions,
                cfg.measure_instructions,
                &mut hierarchy,
                &mut NoopHook,
            );
            (result, hierarchy.snapshot())
        };
        let clean_sim = simulate(&expected);
        for fault in [LoadFault::Unreadable, LoadFault::Corrupt] {
            assert_load_recovery(fault, &expected, simulate, &clean_sim);
        }
    }

    #[test]
    fn corrupt_entries_are_regenerated_once_and_replaced() {
        // A broken magic fails the load at the header; a cut mid-record
        // fails its length check with a typed `Truncated` error, provably
        // corrupt (a random bit-flip could land in an address field and
        // decode as a different-but-valid record, which no reader can
        // detect); two whole images back to back would decode as the
        // first, but the file is not that trace.
        let cfg = RunnerConfig::fast();
        for label in ["header", "body", "doubled"] {
            let (store, dir) = temp_store(&format!("bad-{label}"));
            let (w1, m1) = store.fetch(&spec::gcc(), &cfg);
            let path = entry_path(&dir);
            let clean = std::fs::read(&path).expect("read entry");
            let mut bytes = clean.clone();
            match label {
                "header" => bytes[0] ^= 0xff,
                "body" => bytes.truncate(bytes.len() - 5),
                _ => bytes.extend_from_within(..),
            }
            std::fs::write(&path, &bytes).expect("damage entry");

            // A fresh store ("new process") counts one regeneration, no
            // hit and no miss, and its save replaces the entry with the
            // clean image.
            let fresh = SharedTier::with_dir(Some(dir.clone()));
            let (w2, m2) = fresh.fetch(&spec::gcc(), &cfg);
            assert_eq!(
                (w1, m1),
                (w2.clone(), m2),
                "{label}: regeneration reproduces the trace"
            );
            let health = fresh.health();
            assert_eq!(
                (health.regenerations, health.hits, health.misses),
                (1, 0, 0),
                "{label}: {health:?}"
            );
            assert!(!health.degraded, "{label}: corruption is not a degradation");
            assert_eq!(
                std::fs::read(entry_path(&dir)).expect("reread entry"),
                clean,
                "{label}: the entry is replaced by a clean file"
            );

            // Another fresh store serves the replaced entry from disk.
            let again = SharedTier::with_dir(Some(dir.clone()));
            let (w3, _) = again.fetch(&spec::gcc(), &cfg);
            assert_eq!(w3, w2);
            assert_eq!(
                (again.health().hits, again.health().regenerations),
                (1, 0),
                "{label}"
            );
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn resident_cap_evicts_least_recently_used_and_counts() {
        // Regression: the resident full-trace map used to grow without
        // bound — harmless in batch sweeps, a memory leak in a long-lived
        // server replaying many distinct workloads. With a cap of 2, a third
        // distinct trace must evict exactly the least-recently-used one.
        let store = SharedTier::with_dir(None).with_resident_cap(2);
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
    }

    #[test]
    fn a_default_tier_keeps_only_the_trace_fetched_last() {
        // No handle outlives its fetch, so nothing is in use: B's cold
        // fetch evicts A, and B stays resident for the next request.
        let store = SharedTier::with_dir(None);
        let cfg = RunnerConfig::fast();
        store.fetch(&spec::ammp(), &cfg);
        store.fetch(&spec::gcc(), &cfg);
        assert_eq!(store.resident_full_traces(), 1);
        assert_eq!(store.health().evictions, 1);
        let misses = store.health().misses;
        store.fetch(&spec::gcc(), &cfg);
        assert_eq!(store.health().misses, misses, "B is the resident trace");
    }

    #[test]
    fn evicted_trace_reloads_from_disk_not_regeneration() {
        // With persistence configured, eviction only drops the in-memory
        // copy: the next fetch re-reads the disk entry (a hit), keeping the
        // cap a memory bound rather than a throughput cliff.
        let dir = std::env::temp_dir().join(format!("rescache-store-cap-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let store = SharedTier::with_dir(Some(dir.clone())).with_resident_cap(1);
        let cfg = RunnerConfig::fast();

        // Owned copies: a live handle would keep ammp's trace in use, and a
        // trace in use is never evicted.
        let (w1, m1) = {
            let (w, m) = store.fetch(&spec::ammp(), &cfg);
            let own = |t: &Trace| Trace::new(t.name(), t.records().to_vec());
            (own(&w), own(&m))
        };
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
