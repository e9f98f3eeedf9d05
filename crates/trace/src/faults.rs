//! Deterministic filesystem fault injection: the seam that makes every
//! store/codec recovery path provable.
//!
//! All filesystem I/O of the trace codec and the experiment trace store is
//! routed through an [`IoPolicy`]. The default policy is a transparent
//! pass-through with zero overhead beyond one branch per operation; a policy
//! carrying a [`FaultInjector`] turns the same code paths into a fault
//! harness — opens, reads, writes, renames and removals fail with seeded,
//! reproducible probabilities (or according to an explicit test script), so
//! retry, quarantine and degradation logic can be exercised deterministically
//! in CI instead of waiting for a flaky disk in production.
//!
//! Injected failures come in two flavours the recovery layers treat
//! differently:
//!
//! * **transient** ([`io::ErrorKind::TimedOut`]) — the kind of error a
//!   bounded retry with backoff is allowed to absorb (see [`is_transient`]);
//! * **disk-full** ([`io::ErrorKind::StorageFull`]) — a persistent condition
//!   that must degrade the store to in-memory-only operation (see
//!   [`is_disk_full`]).
//!
//! A scripted injector can additionally **panic** inside an operation, which
//! is how the single-flight memo tier's poisoned-lock recovery is regression
//! tested.
//!
//! The environment knob `RESCACHE_FAULTS` (parsed by [`FaultSpec::parse`];
//! read once per process by the core crate's knob layer) configures a seeded
//! probabilistic injector for every store built from the environment — the
//! CI fault-injection stress job runs the full shared-tier test suite under
//! it.

use std::collections::VecDeque;
use std::fmt;
use std::fs::File;
use std::io::{self, Read, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

/// The filesystem operations an [`IoPolicy`] routes (and a
/// [`FaultInjector`] can fail).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoOp {
    /// Opening (or creating) a file, including directory listings.
    Open,
    /// One `read` call on an open file.
    Read,
    /// One `write` (or `flush`) call on an open file.
    Write,
    /// Renaming a file (the atomic-save commit step).
    Rename,
    /// Removing a file.
    Remove,
    /// Creating the store directory.
    CreateDir,
}

impl IoOp {
    /// Every operation, in [`IoOp::index`] order.
    pub const ALL: [IoOp; 6] = [
        IoOp::Open,
        IoOp::Read,
        IoOp::Write,
        IoOp::Rename,
        IoOp::Remove,
        IoOp::CreateDir,
    ];

    /// Dense index of this operation (for per-op probability tables).
    pub fn index(self) -> usize {
        match self {
            IoOp::Open => 0,
            IoOp::Read => 1,
            IoOp::Write => 2,
            IoOp::Rename => 3,
            IoOp::Remove => 4,
            IoOp::CreateDir => 5,
        }
    }

    /// The knob name of this operation in `RESCACHE_FAULTS`.
    pub fn key(self) -> &'static str {
        match self {
            IoOp::Open => "open",
            IoOp::Read => "read",
            IoOp::Write => "write",
            IoOp::Rename => "rename",
            IoOp::Remove => "remove",
            IoOp::CreateDir => "create_dir",
        }
    }
}

impl fmt::Display for IoOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.key())
    }
}

/// Per-operation failure probabilities plus the seed that makes the draw
/// sequence reproducible: the parsed form of `RESCACHE_FAULTS`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultSpec {
    /// Seed of the deterministic decision stream.
    pub seed: u64,
    /// Probability (0.0..=1.0) that one operation of each kind fails with a
    /// transient error, indexed by [`IoOp::index`].
    pub probability: [f64; 6],
    /// Probability (0.0..=1.0) that one *write* fails with a disk-full error
    /// (checked before the transient write probability).
    pub disk_full: f64,
}

impl Default for FaultSpec {
    fn default() -> Self {
        Self {
            seed: 0,
            probability: [0.0; 6],
            disk_full: 0.0,
        }
    }
}

impl FaultSpec {
    /// Parses a `RESCACHE_FAULTS` value: comma-separated `key=value` pairs
    /// where the keys are `seed`, one of the [`IoOp::key`] names, or `full`
    /// (disk-full probability on writes). Example:
    ///
    /// ```text
    /// RESCACHE_FAULTS=seed=7,open=0.02,read=0.02,write=0.02,rename=0.01,remove=0.01,full=0
    /// ```
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed pair (unknown key,
    /// unparsable number, or a probability outside `0.0..=1.0`).
    pub fn parse(value: &str) -> Result<Self, String> {
        let mut spec = Self::default();
        for pair in value.split(',') {
            let pair = pair.trim();
            if pair.is_empty() {
                continue;
            }
            let (key, raw) = pair
                .split_once('=')
                .ok_or_else(|| format!("`{pair}` is not a key=value pair"))?;
            let key = key.trim();
            let raw = raw.trim();
            if key == "seed" {
                spec.seed = raw
                    .parse()
                    .map_err(|_| format!("seed `{raw}` is not an unsigned integer"))?;
                continue;
            }
            let probability: f64 = raw
                .parse()
                .map_err(|_| format!("`{raw}` for `{key}` is not a number"))?;
            if !(0.0..=1.0).contains(&probability) {
                return Err(format!("`{key}={raw}` is outside 0.0..=1.0"));
            }
            if key == "full" {
                spec.disk_full = probability;
                continue;
            }
            let op = IoOp::ALL
                .into_iter()
                .find(|op| op.key() == key)
                .ok_or_else(|| format!("unknown fault knob `{key}`"))?;
            spec.probability[op.index()] = probability;
        }
        Ok(spec)
    }

    /// True when every probability is zero — the spec injects nothing.
    pub fn is_quiet(&self) -> bool {
        self.disk_full == 0.0 && self.probability.iter().all(|p| *p == 0.0)
    }
}

/// One scripted decision a test enqueues on a [`FaultInjector`]: the next
/// operation matching `op` receives `kind`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScriptedFault {
    /// The operation kind this entry fires on.
    pub op: IoOp,
    /// What happens when it fires.
    pub kind: FaultKind,
}

/// The failure a scripted entry injects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// A transient error ([`io::ErrorKind::TimedOut`]): retryable.
    Transient,
    /// A disk-full error ([`io::ErrorKind::StorageFull`]): degrades the
    /// store to in-memory-only operation.
    DiskFull,
    /// A permission error ([`io::ErrorKind::PermissionDenied`]): a
    /// persistent, non-retryable condition that is not disk-full.
    PermissionDenied,
    /// Panic inside the operation (exercises poisoned-lock recovery).
    Panic,
}

/// A deterministic fault source shared by every [`IoPolicy`] clone that
/// carries it.
///
/// Two mechanisms compose, scripted entries first:
///
/// * a **script** — an ordered queue of [`ScriptedFault`]s; the next
///   operation whose kind matches the queue head consumes it (operations of
///   other kinds pass through unharmed while an entry waits);
/// * a **seeded spec** — every operation draws from a counter-indexed
///   SplitMix64 stream, so a given `(seed, draw index)` always decides the
///   same way regardless of host or timing.
#[derive(Debug, Default)]
pub struct FaultInjector {
    spec: FaultSpec,
    draws: AtomicU64,
    injected: AtomicU64,
    script: Mutex<VecDeque<ScriptedFault>>,
}

impl FaultInjector {
    /// An injector driven by a seeded probabilistic spec.
    pub fn seeded(spec: FaultSpec) -> Self {
        Self {
            spec,
            ..Self::default()
        }
    }

    /// An injector driven purely by an explicit script (no randomness).
    pub fn scripted(script: impl IntoIterator<Item = ScriptedFault>) -> Self {
        Self {
            script: Mutex::new(script.into_iter().collect()),
            ..Self::default()
        }
    }

    /// Appends one scripted entry (fires on the next matching operation once
    /// every earlier entry has been consumed).
    pub fn push(&self, fault: ScriptedFault) {
        self.script
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push_back(fault);
    }

    /// Total faults injected so far (scripted and probabilistic).
    pub fn injected(&self) -> u64 {
        self.injected.load(Ordering::Relaxed)
    }

    /// Scripted entries not yet consumed.
    pub fn pending_script(&self) -> usize {
        self.script
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// Decides the fate of one operation. Returns the error to inject, panics
    /// for a scripted [`FaultKind::Panic`], or returns `None` (proceed).
    fn decide(&self, op: IoOp) -> Option<io::Error> {
        if let Some(kind) = self.take_scripted(op) {
            self.injected.fetch_add(1, Ordering::Relaxed);
            match kind {
                FaultKind::Panic => panic!("injected panic on {op}"),
                kind => return Some(Self::error(op, kind)),
            }
        }
        let draw = self.draws.fetch_add(1, Ordering::Relaxed);
        let unit = |salt: u64| {
            // SplitMix64 over (seed, draw, salt): reproducible for a given
            // seed independent of thread interleaving *per draw index*.
            let mut z = self
                .spec
                .seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(draw.wrapping_mul(2).wrapping_add(salt))
                .wrapping_add(0x9E37_79B9_7F4A_7C15);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            (z >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
        };
        if op == IoOp::Write && self.spec.disk_full > 0.0 && unit(1) < self.spec.disk_full {
            self.injected.fetch_add(1, Ordering::Relaxed);
            return Some(Self::error(op, FaultKind::DiskFull));
        }
        let p = self.spec.probability[op.index()];
        if p > 0.0 && unit(0) < p {
            self.injected.fetch_add(1, Ordering::Relaxed);
            return Some(Self::error(op, FaultKind::Transient));
        }
        None
    }

    /// Pops the script head if it matches `op`.
    fn take_scripted(&self, op: IoOp) -> Option<FaultKind> {
        let mut script = self.script.lock().unwrap_or_else(PoisonError::into_inner);
        if script.front().is_some_and(|f| f.op == op) {
            return script.pop_front().map(|f| f.kind);
        }
        None
    }

    /// Builds the injected error for one (operation, kind) pair. The message
    /// names the injection so store diagnostics stay distinguishable from
    /// real disk trouble.
    fn error(op: IoOp, kind: FaultKind) -> io::Error {
        match kind {
            FaultKind::Transient => io::Error::new(
                io::ErrorKind::TimedOut,
                format!("injected transient {op} fault"),
            ),
            FaultKind::DiskFull => io::Error::new(
                io::ErrorKind::StorageFull,
                format!("injected disk-full {op} fault"),
            ),
            FaultKind::PermissionDenied => io::Error::new(
                io::ErrorKind::PermissionDenied,
                format!("injected permission {op} fault"),
            ),
            FaultKind::Panic => unreachable!("panics are raised in decide"),
        }
    }
}

/// True for errors a bounded retry with backoff may absorb (see
/// [`IoPolicy::BACKOFF`]): interrupted/timed-out/would-block conditions that
/// a healthy disk resolves on its own.
pub fn is_transient(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::TimedOut | io::ErrorKind::Interrupted | io::ErrorKind::WouldBlock
    )
}

/// True for errors that mean the device is out of space: the store must
/// degrade to in-memory-only operation rather than retry.
pub fn is_disk_full(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::StorageFull | io::ErrorKind::QuotaExceeded
    )
}

/// The injectable filesystem policy: every store/codec I/O operation goes
/// through one of these. Cloning shares the underlying injector (if any), so
/// one seeded decision stream covers a whole shared store tier.
#[derive(Debug, Clone, Default)]
pub struct IoPolicy {
    injector: Option<Arc<FaultInjector>>,
}

impl IoPolicy {
    /// Attempts per retryable operation (1 initial + 2 retries).
    pub const ATTEMPTS: u32 = 3;

    /// Backoff slept before retry *n* (1-based): `BACKOFF * n`.
    pub const BACKOFF: Duration = Duration::from_millis(1);

    /// The transparent policy: plain filesystem calls, no faults.
    pub fn none() -> Self {
        Self::default()
    }

    /// A policy carrying a shared fault injector.
    pub fn with_injector(injector: Arc<FaultInjector>) -> Self {
        Self {
            injector: Some(injector),
        }
    }

    /// The injector behind this policy, if any (tests inspect counters).
    pub fn injector(&self) -> Option<&Arc<FaultInjector>> {
        self.injector.as_ref()
    }

    /// Consults the injector for one operation.
    fn check(&self, op: IoOp) -> io::Result<()> {
        match &self.injector {
            Some(injector) => match injector.decide(op) {
                Some(e) => Err(e),
                None => Ok(()),
            },
            None => Ok(()),
        }
    }

    /// Opens a file for reading ([`IoOp::Open`]).
    pub fn open(&self, path: &Path) -> io::Result<File> {
        self.check(IoOp::Open)?;
        File::open(path)
    }

    /// Creates (truncating) a file for writing ([`IoOp::Open`]).
    pub fn create(&self, path: &Path) -> io::Result<File> {
        self.check(IoOp::Open)?;
        File::create(path)
    }

    /// Renames a file ([`IoOp::Rename`]).
    pub fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.check(IoOp::Rename)?;
        std::fs::rename(from, to)
    }

    /// Removes a file ([`IoOp::Remove`]).
    pub fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.check(IoOp::Remove)?;
        std::fs::remove_file(path)
    }

    /// Creates a directory and its parents ([`IoOp::CreateDir`]).
    pub fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        self.check(IoOp::CreateDir)?;
        std::fs::create_dir_all(path)
    }

    /// Wraps a reader so every `read` call is policed ([`IoOp::Read`]).
    pub fn reader<R: Read>(&self, inner: R) -> PolicedRead<R> {
        PolicedRead {
            inner,
            policy: self.clone(),
        }
    }

    /// Wraps a writer so every `write`/`flush` call is policed
    /// ([`IoOp::Write`]).
    pub fn writer<W: Write>(&self, inner: W) -> PolicedWrite<W> {
        PolicedWrite {
            inner,
            policy: self.clone(),
        }
    }

    /// Runs `f` with bounded retry: transient failures (see
    /// [`is_transient`]) are retried up to [`IoPolicy::ATTEMPTS`] total
    /// attempts with linear backoff; anything else (including exhaustion)
    /// returns the last error. `note_retry` is invoked once per retry so
    /// callers can count recoveries.
    pub fn retrying<T>(
        &self,
        mut note_retry: impl FnMut(),
        mut f: impl FnMut() -> io::Result<T>,
    ) -> io::Result<T> {
        let mut attempt = 1;
        loop {
            match f() {
                Err(e) if is_transient(&e) && attempt < Self::ATTEMPTS => {
                    note_retry();
                    std::thread::sleep(Self::BACKOFF * attempt);
                    attempt += 1;
                }
                other => return other,
            }
        }
    }
}

/// A reader whose every `read` consults the policy's injector first.
#[derive(Debug)]
pub struct PolicedRead<R> {
    inner: R,
    policy: IoPolicy,
}

impl<R: Read> Read for PolicedRead<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.policy.check(IoOp::Read)?;
        self.inner.read(buf)
    }
}

/// A writer whose every `write`/`flush` consults the policy's injector first.
#[derive(Debug)]
pub struct PolicedWrite<W> {
    inner: W,
    policy: IoPolicy,
}

impl<W: Write> Write for PolicedWrite<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.policy.check(IoOp::Write)?;
        self.inner.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.policy.check(IoOp::Write)?;
        self.inner.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_parses_every_knob() {
        let spec =
            FaultSpec::parse("seed=9, open=0.25, read=0.5,write=1,rename=0.125,remove=1.0,full=0.75,create_dir=0.0625")
                .expect("well-formed spec");
        assert_eq!(spec.seed, 9);
        assert_eq!(spec.probability[IoOp::Open.index()], 0.25);
        assert_eq!(spec.probability[IoOp::Read.index()], 0.5);
        assert_eq!(spec.probability[IoOp::Write.index()], 1.0);
        assert_eq!(spec.probability[IoOp::Rename.index()], 0.125);
        assert_eq!(spec.probability[IoOp::Remove.index()], 1.0);
        assert_eq!(spec.probability[IoOp::CreateDir.index()], 0.0625);
        assert_eq!(spec.disk_full, 0.75);
        assert!(!spec.is_quiet());
        assert!(FaultSpec::parse("").expect("empty is quiet").is_quiet());
        assert!(FaultSpec::parse("seed=3").expect("seed only").is_quiet());
    }

    #[test]
    fn spec_rejects_malformed_values() {
        for bad in [
            "read",
            "read=x",
            "read=1.5",
            "read=-0.1",
            "bogus=0.5",
            "seed=-1",
        ] {
            assert!(FaultSpec::parse(bad).is_err(), "{bad} should be rejected");
        }
    }

    #[test]
    fn seeded_injection_is_deterministic_and_rate_plausible() {
        let spec = FaultSpec::parse("seed=42,read=0.25").expect("spec");
        let run = || {
            let injector = FaultInjector::seeded(spec);
            let mut pattern = Vec::new();
            for _ in 0..4_000 {
                pattern.push(injector.decide(IoOp::Read).is_some());
            }
            pattern
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "same seed, same decision stream");
        let rate = a.iter().filter(|hit| **hit).count() as f64 / a.len() as f64;
        assert!(
            (0.2..0.3).contains(&rate),
            "rate {rate} should be near 0.25"
        );
        // Other operations are untouched by a read-only spec.
        let injector = FaultInjector::seeded(spec);
        for _ in 0..1_000 {
            assert!(injector.decide(IoOp::Write).is_none());
        }
    }

    #[test]
    fn different_seeds_give_different_streams() {
        let decisions = |seed: u64| {
            let injector =
                FaultInjector::seeded(FaultSpec::parse(&format!("seed={seed},open=0.5")).unwrap());
            (0..256)
                .map(|_| injector.decide(IoOp::Open).is_some())
                .collect::<Vec<_>>()
        };
        assert_ne!(decisions(1), decisions(2));
    }

    #[test]
    fn scripted_faults_fire_in_order_on_matching_ops() {
        let injector = FaultInjector::scripted([
            ScriptedFault {
                op: IoOp::Write,
                kind: FaultKind::Transient,
            },
            ScriptedFault {
                op: IoOp::Rename,
                kind: FaultKind::DiskFull,
            },
        ]);
        // A non-matching op passes while the write entry waits.
        assert!(injector.decide(IoOp::Read).is_none());
        let e = injector.decide(IoOp::Write).expect("scripted write fault");
        assert!(is_transient(&e));
        assert!(injector.decide(IoOp::Write).is_none(), "consumed");
        let e = injector
            .decide(IoOp::Rename)
            .expect("scripted rename fault");
        assert!(is_disk_full(&e));
        assert_eq!(injector.injected(), 2);
        assert_eq!(injector.pending_script(), 0);
    }

    #[test]
    fn scripted_panic_panics_inside_the_operation() {
        let injector = Arc::new(FaultInjector::scripted([ScriptedFault {
            op: IoOp::Open,
            kind: FaultKind::Panic,
        }]));
        let policy = IoPolicy::with_injector(Arc::clone(&injector));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = policy.open(Path::new("/nonexistent"));
        }));
        assert!(result.is_err(), "the scripted entry must panic");
        // The entry is consumed: the next open merely fails to find the file.
        let err = policy.open(Path::new("/nonexistent")).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::NotFound);
    }

    #[test]
    fn policed_wrappers_inject_mid_stream() {
        let injector = Arc::new(FaultInjector::scripted([
            ScriptedFault {
                op: IoOp::Read,
                kind: FaultKind::Transient,
            },
            ScriptedFault {
                op: IoOp::Write,
                kind: FaultKind::DiskFull,
            },
        ]));
        let policy = IoPolicy::with_injector(injector);
        let mut reader = policy.reader(&b"abcdef"[..]);
        let mut buf = [0u8; 3];
        let e = reader.read(&mut buf).unwrap_err();
        assert!(is_transient(&e));
        assert_eq!(reader.read(&mut buf).expect("second read passes"), 3);

        let mut sink = Vec::new();
        let mut writer = policy.writer(&mut sink);
        let e = writer.write(b"xyz").unwrap_err();
        assert!(is_disk_full(&e));
        writer.write_all(b"xyz").expect("second write passes");
        assert_eq!(sink, b"xyz");
    }

    #[test]
    fn retrying_absorbs_transients_and_gives_up_on_persistent_errors() {
        let policy = IoPolicy::none();
        let mut retries = 0u64;
        // One transient then success: absorbed, one retry noted.
        let mut left = 1;
        let value = policy
            .retrying(
                || retries += 1,
                || {
                    if left > 0 {
                        left -= 1;
                        Err(io::Error::new(io::ErrorKind::TimedOut, "flaky"))
                    } else {
                        Ok(7)
                    }
                },
            )
            .expect("retry succeeds");
        assert_eq!((value, retries), (7, 1));

        // Unbroken transients exhaust the attempt budget.
        retries = 0;
        let err = policy
            .retrying::<()>(
                || retries += 1,
                || Err(io::Error::new(io::ErrorKind::TimedOut, "still flaky")),
            )
            .unwrap_err();
        assert!(is_transient(&err));
        assert_eq!(retries, u64::from(IoPolicy::ATTEMPTS - 1));

        // A persistent error is returned immediately, no retries.
        retries = 0;
        let err = policy
            .retrying::<()>(
                || retries += 1,
                || Err(io::Error::new(io::ErrorKind::StorageFull, "full")),
            )
            .unwrap_err();
        assert!(is_disk_full(&err));
        assert_eq!(retries, 0);
    }

    #[test]
    fn from_env_spec_shapes() {
        // Not testing the env var itself (process-global): the parse +
        // is_quiet path the `RESCACHE_FAULTS` knob relies on is covered
        // here. A quiet spec installs no injector; a live one does.
        assert!(FaultSpec::parse("seed=1,read=0")
            .expect("quiet spec")
            .is_quiet());
        let spec = FaultSpec::parse("read=0.001").expect("live spec");
        assert!(!spec.is_quiet());
    }
}
