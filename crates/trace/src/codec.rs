//! Length-prefixed binary codec for traces: the persistence format of the
//! experiment trace store.
//!
//! Trace generation is deterministic but not free (it is the slowest single
//! stage of a cold sweep), so a trace store built over a directory persists
//! generated traces and replays them from disk.
//! There is one container, and it stores every record verbatim:
//!
//! ```text
//! magic      8 bytes   b"RCTRACE4"
//! name_len   4 bytes   u32 LE, at most MAX_NAME_BYTES
//! name       n bytes   UTF-8 application name
//! records    8 bytes   u64 LE record count
//! record*   11 bytes   each: pc u32 LE, addr u32 LE, kind, dep1, dep2
//! ```
//!
//! A file is therefore exactly `20 + name_len + 11 × records` bytes, and
//! [`load`] checks that against the file's length before it allocates:
//! a short file is [`CodecError::Truncated`], a long one
//! [`CodecError::TrailingBytes`]. The record bytes are the packed
//! [`InstrRecord`] lanes in field order; a kind byte past
//! [`kind::BRANCH_TAKEN`] is [`CodecError::BadKind`], naming the record.
//!
//! Readers validate everything they touch and return a [`CodecError`] —
//! never panic — on truncated, corrupt or foreign files, so a store
//! populated by a crashed or concurrent process degrades to regeneration
//! rather than an aborted sweep. A file of a retired format (`RCTRACE1` …
//! `RCTRACE3`) or an unknown one is [`CodecError::UnsupportedVersion`].
//! Nothing checksums the record bits: the magic, the name, the count, the
//! length and each kind byte are what a load can check.
//!
//! There is one save and one load: [`save_trace`] writes a resident
//! [`Trace`] to a file atomically, and [`load`] reads a file back whole,
//! through one fixed read buffer, into one record buffer sized from the
//! header. A load either returns the whole trace or a [`CodecError`];
//! there is no partial result to check afterwards.
//!
//! The atomic save writes a temp file unique to the writer and renames it
//! into place, so any number of threads or processes may save one path at
//! once: the path holds one writer's whole file, never a torn mix.

use std::fmt;
use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::Path;

use crate::format::TraceFormat;
use crate::record::{kind, InstrRecord};
use crate::source::TraceSource;
use crate::trace::Trace;

/// Version-independent prefix of every trace-file magic: a file with this
/// prefix but another version digit is a rescache trace of a format this
/// build does not read.
const MAGIC_PREFIX: [u8; 7] = *b"RCTRACE";

/// Upper bound on the encoded application-name length.
const MAX_NAME_BYTES: u32 = 4 * 1024;

/// Header bytes besides the name: the magic, the name length and the
/// record count.
const HEADER_BYTES: u64 = 8 + 4 + 8;

/// Bytes of one stored record.
const RECORD_BYTES: usize = 11;

/// Records per read or write of the body: the one fixed I/O buffer holds a
/// chunk of 4 Ki records (44 KiB).
const IO_CHUNK_RECORDS: usize = 4 * 1024;

/// Error produced when decoding a persisted trace.
#[derive(Debug)]
pub enum CodecError {
    /// The underlying reader failed.
    Io(io::Error),
    /// The file does not start with `RCTRACE` — not a rescache trace at all.
    BadMagic,
    /// The magic names a trace-format version this build does not read
    /// (the retired v1–v3, or a future one).
    UnsupportedVersion {
        /// The unrecognized version byte from the magic.
        version: u8,
    },
    /// The application name is over-long or not UTF-8.
    BadName,
    /// The file is shorter than its header promises.
    Truncated {
        /// Records promised by the header.
        expected: u64,
        /// Whole records the file holds.
        got: u64,
    },
    /// The file goes on after the last promised record (two images written
    /// back to back, or a foreign tail): serving its first trace would hide
    /// the damage.
    TrailingBytes {
        /// Bytes after the last record.
        extra: u64,
    },
    /// A record's kind byte is none of the [`kind`] tags.
    BadKind {
        /// Index of the record in the file.
        record: u64,
        /// The rejected kind byte.
        kind: u8,
    },
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Io(e) => write!(f, "trace codec i/o error: {e}"),
            CodecError::BadMagic => write!(f, "not a rescache trace file (bad magic)"),
            CodecError::UnsupportedVersion { version } => write!(
                f,
                "trace file has an unsupported format version byte {version:#04x}"
            ),
            CodecError::BadName => write!(f, "trace file has an invalid application name"),
            CodecError::Truncated { expected, got } => write!(
                f,
                "trace file is truncated: expected {expected} records, it holds {got}"
            ),
            CodecError::TrailingBytes { extra } => write!(
                f,
                "trace file has {extra} bytes after its last promised record"
            ),
            CodecError::BadKind { record, kind } => write!(
                f,
                "trace file record {record} has an invalid kind byte {kind:#04x}"
            ),
        }
    }
}

impl std::error::Error for CodecError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CodecError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for CodecError {
    fn from(e: io::Error) -> Self {
        CodecError::Io(e)
    }
}

/// Writes `trace` to `w` in the format described at module level.
///
/// # Errors
///
/// Besides writer errors, returns `InvalidInput` for a name over
/// [`MAX_NAME_BYTES`]: a reader would reject such a file, so it must never
/// be produced.
fn write_trace<W: Write>(w: &mut W, trace: &Trace) -> io::Result<()> {
    let name = trace.name().as_bytes();
    if name.len() as u64 > u64::from(MAX_NAME_BYTES) {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!(
                "trace name of {} bytes exceeds {MAX_NAME_BYTES}",
                name.len()
            ),
        ));
    }
    w.write_all(&TraceFormat::V4.magic())?;
    w.write_all(&(name.len() as u32).to_le_bytes())?;
    w.write_all(name)?;
    w.write_all(&(trace.len() as u64).to_le_bytes())?;

    let mut chunk = vec![0u8; IO_CHUNK_RECORDS * RECORD_BYTES];
    for records in trace.records().chunks(IO_CHUNK_RECORDS) {
        let bytes = &mut chunk[..records.len() * RECORD_BYTES];
        for (raw, record) in bytes.chunks_exact_mut(RECORD_BYTES).zip(records) {
            raw[..4].copy_from_slice(&record.pc_raw().to_le_bytes());
            raw[4..8].copy_from_slice(&record.addr_raw().to_le_bytes());
            raw[8..].copy_from_slice(&[record.kind_tag(), record.dep1(), record.dep2()]);
        }
        w.write_all(bytes)?;
    }
    Ok(())
}

/// Reads and validates the header: the application name and the record
/// count the file promises.
fn read_header<R: Read>(r: &mut R) -> Result<(String, u64), CodecError> {
    let mut magic = [0u8; 8];
    read_exact_or_truncated(r, &mut magic, 0, 0)?;
    if magic[..7] != MAGIC_PREFIX {
        return Err(CodecError::BadMagic);
    }
    if magic != TraceFormat::V4.magic() {
        return Err(CodecError::UnsupportedVersion { version: magic[7] });
    }

    let mut len4 = [0u8; 4];
    read_exact_or_truncated(r, &mut len4, 0, 0)?;
    let name_len = u32::from_le_bytes(len4);
    if name_len > MAX_NAME_BYTES {
        return Err(CodecError::BadName);
    }
    let mut name_bytes = vec![0u8; name_len as usize];
    read_exact_or_truncated(r, &mut name_bytes, 0, 0)?;
    let name = String::from_utf8(name_bytes).map_err(|_| CodecError::BadName)?;

    let mut len8 = [0u8; 8];
    read_exact_or_truncated(r, &mut len8, 0, 0)?;
    Ok((name, u64::from_le_bytes(len8)))
}

/// Decodes a whole trace image of `file_bytes` bytes from `r`. The image
/// must be exactly as long as its header promises; the body is read through
/// one fixed buffer into a record buffer sized once.
fn decode_trace<R: Read>(mut r: R, file_bytes: u64) -> Result<Trace, CodecError> {
    let (name, count) = read_header(&mut r)?;
    let body = file_bytes.saturating_sub(HEADER_BYTES + name.len() as u64);
    let promised = count.saturating_mul(RECORD_BYTES as u64);
    if body < promised {
        return Err(CodecError::Truncated {
            expected: count,
            got: body / RECORD_BYTES as u64,
        });
    }
    if body > promised {
        return Err(CodecError::TrailingBytes {
            extra: body - promised,
        });
    }
    // The count fits the file, so it fits memory's address space too.
    let capacity = count as usize;
    let mut records = Vec::with_capacity(capacity);
    let mut chunk = vec![0u8; IO_CHUNK_RECORDS * RECORD_BYTES];
    while records.len() < capacity {
        let first = records.len();
        let bytes = &mut chunk[..(capacity - first).min(IO_CHUNK_RECORDS) * RECORD_BYTES];
        read_exact_or_truncated(&mut r, bytes, count, first as u64)?;
        for (i, raw) in bytes.chunks_exact(RECORD_BYTES).enumerate() {
            let kind = raw[8];
            if kind > kind::BRANCH_TAKEN {
                return Err(CodecError::BadKind {
                    record: (first + i) as u64,
                    kind,
                });
            }
            records.push(InstrRecord::from_lanes_validated(
                u32::from_le_bytes([raw[0], raw[1], raw[2], raw[3]]),
                u32::from_le_bytes([raw[4], raw[5], raw[6], raw[7]]),
                kind,
                raw[9],
                raw[10],
            ));
        }
    }
    Ok(Trace::new(name, records))
}

/// Loads the trace at `path` whole.
///
/// # Errors
///
/// Returns [`CodecError::Io`] if the file cannot be opened or read, and a
/// content error if the file is truncated, corrupt, of another format or
/// longer than its records. Nothing of a failed load is returned.
pub fn load(path: &Path) -> Result<Trace, CodecError> {
    let file = File::open(path)?;
    let file_bytes = file.metadata()?.len();
    decode_trace(BufReader::new(file), file_bytes)
}

/// A [`TraceSource`] over one loaded trace file. Kept only because the
/// standalone benchmark (`perfbench/src/layers.rs`) compiles against it:
/// [`TraceFileSource::open`] loads the file whole with [`load`], and the
/// first [`TraceSource::next_chunk`] returns every record it serves.
#[derive(Debug)]
pub struct TraceFileSource {
    trace: Trace,
    served: bool,
}

impl TraceFileSource {
    /// Loads the trace at `path` and serves its first `take` records (`None`
    /// = the whole file).
    ///
    /// # Errors
    ///
    /// As [`load`], and [`CodecError::Truncated`] if the file holds fewer
    /// than `take` records.
    pub fn open(path: &Path, take: Option<usize>) -> Result<Self, CodecError> {
        let trace = load(path)?;
        let take = take.unwrap_or(trace.len());
        if take > trace.len() {
            return Err(CodecError::Truncated {
                expected: take as u64,
                got: trace.len() as u64,
            });
        }
        Ok(Self {
            trace: trace.slice(0..take),
            served: false,
        })
    }

    /// Always `None`: a load error is returned by [`TraceFileSource::open`].
    /// Kept only because the standalone benchmark checks it.
    pub fn fault(&self) -> Option<&CodecError> {
        None
    }
}

impl TraceSource for TraceFileSource {
    fn next_chunk(&mut self) -> &[InstrRecord] {
        if std::mem::replace(&mut self.served, true) {
            &[]
        } else {
            self.trace.records()
        }
    }
}

/// A policy with nothing to choose. Kept only because the standalone
/// benchmark (`perfbench/src/serve.rs`) passes [`IoPolicy::none`] to the
/// core crate's `SharedTier::new`: store I/O is plain filesystem calls.
#[derive(Debug, Clone, Copy)]
pub struct IoPolicy;

impl IoPolicy {
    /// The one policy.
    pub fn none() -> Self {
        Self
    }
}

/// `read_exact` that maps an early end-of-file to [`CodecError::Truncated`]
/// with the given progress context.
fn read_exact_or_truncated<R: Read>(
    r: &mut R,
    buf: &mut [u8],
    expected: u64,
    got: u64,
) -> Result<(), CodecError> {
    r.read_exact(buf).map_err(|e| {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            CodecError::Truncated { expected, got }
        } else {
            CodecError::Io(e)
        }
    })
}

/// Writes `trace` to `path` atomically. The write goes to a same-directory
/// temporary file that is renamed into place, so concurrent writers —
/// processes *or* threads — sharing a trace store never expose a
/// half-written file at the final path. On any failure the temporary file
/// is removed (best effort: a leftover is the same debris a crashed process
/// leaves, which readers ignore).
///
/// # Errors
///
/// Besides filesystem errors, returns `InvalidInput` for an over-long name
/// (the partial file is discarded, never renamed into place).
pub fn save_trace(path: &Path, trace: &Trace) -> io::Result<()> {
    // The temporary name must be unique per writer, not just per process:
    // two threads saving the same store entry would otherwise share the
    // temporary file and could rename a half-rewritten inode into place.
    static WRITER: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let writer = WRITER.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let tmp = path.with_extension(format!("tmp.{}.{writer}", std::process::id()));
    let result = (|| {
        let mut w = BufWriter::new(File::create(&tmp)?);
        match write_trace(&mut w, trace).and_then(|()| w.flush()) {
            Ok(()) => std::fs::rename(&tmp, path),
            Err(e) => {
                // Discard the buffered tail: `BufWriter`'s drop would
                // silently retry writing it to a file this function is
                // about to delete.
                let _ = w.into_parts();
                Err(e)
            }
        }
    })();
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::TraceGenerator;
    use crate::record::Op;
    use crate::spec;

    fn sample(n: usize) -> Trace {
        TraceGenerator::new(spec::compress(), 11).generate(n)
    }

    fn encode(trace: &Trace) -> Vec<u8> {
        let mut bytes = Vec::new();
        write_trace(&mut bytes, trace).expect("vec writes cannot fail");
        bytes
    }

    /// Decodes a whole in-memory image, as a file load does.
    fn decode(bytes: &[u8]) -> Result<Trace, CodecError> {
        decode_trace(bytes, bytes.len() as u64)
    }

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("rescache-codec-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create temp dir");
        dir
    }

    /// Byte offset of record `k`'s kind byte in an image of `name_len`.
    fn kind_offset(name_len: usize, k: usize) -> usize {
        HEADER_BYTES as usize + name_len + k * RECORD_BYTES + 8
    }

    #[test]
    fn round_trips_through_memory() {
        // Cover the empty, sub-chunk and multi-chunk cases.
        for n in [0usize, 1, 1000, IO_CHUNK_RECORDS + 17] {
            let trace = sample(n);
            let decoded = decode(&encode(&trace)).expect("round trip");
            assert_eq!(decoded, trace, "{n} records");
        }
    }

    #[test]
    fn a_saved_entry_is_its_header_and_eleven_bytes_per_record() {
        let dir = temp_dir("size");
        let path = dir.join("compress.rctrace");
        for n in [0usize, 1, 5_000] {
            let trace = sample(n);
            save_trace(&path, &trace).expect("save");
            let bytes = std::fs::read(&path).expect("read");
            assert_eq!(bytes.len(), 20 + "compress".len() + 11 * n, "{n} records");
            assert_eq!(&bytes[..8], b"RCTRACE4");
        }
        // Each record is its lanes verbatim, in field order.
        let record = InstrRecord::with_deps(0x0403_0201, Op::Store(0x0807_0605), 9, 10);
        let bytes = encode(&Trace::new("x", vec![record]));
        assert_eq!(&bytes[21..], &[1, 2, 3, 4, 5, 6, 7, 8, kind::STORE, 9, 10]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unknown_version_is_a_typed_error() {
        let mut bytes = encode(&sample(100));
        bytes[7] = b'9';
        assert!(matches!(
            decode(&bytes),
            Err(CodecError::UnsupportedVersion { version: b'9' })
        ));
        // A broken prefix is still BadMagic, not UnsupportedVersion.
        bytes[0] ^= 0xff;
        assert!(matches!(decode(&bytes), Err(CodecError::BadMagic)));
    }

    #[test]
    fn mixed_version_open_is_rejected_with_a_typed_error() {
        // Headers of the retired formats: v1/v2 were `RCTRACE1`/`RCTRACE2`
        // followed directly by the name and raw 12-byte records; v3 was
        // `RCTRACE3`, a flags byte and delta-compressed chunks. All are
        // rejected at the magic, typed, before any record is read.
        let dir = temp_dir("mixed");
        let old_header = |magic: &[u8], flags: Option<u8>| {
            let mut bytes = magic.to_vec();
            bytes.extend(flags);
            bytes.extend_from_slice(&4u32.to_le_bytes());
            bytes.extend_from_slice(b"ammp");
            bytes.extend_from_slice(&1u64.to_le_bytes());
            bytes.extend_from_slice(&1u32.to_le_bytes());
            bytes.extend_from_slice(&[0u8; 12]);
            bytes
        };
        for (version, bytes) in [
            (b'1', old_header(b"RCTRACE1", None)),
            (b'2', old_header(b"RCTRACE2", None)),
            (b'3', old_header(b"RCTRACE3", Some(1))),
        ] {
            let path = dir.join(format!("v{}.rctrace", char::from(version)));
            std::fs::write(&path, &bytes).expect("plant old file");
            let err = load(&path).unwrap_err();
            assert!(
                matches!(err, CodecError::UnsupportedVersion { version: v } if v == version),
                "v{}: {err}",
                char::from(version)
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn round_trips_through_a_file() {
        let dir = temp_dir("file");
        let path = dir.join("compress.rctrace");
        let trace = sample(5_000);
        save_trace(&path, &trace).expect("save");
        assert_eq!(load(&path).expect("load"), trace);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_file_is_an_error() {
        let err = load(Path::new("/nonexistent/rescache.rctrace")).unwrap_err();
        assert!(
            matches!(&err, CodecError::Io(e) if e.kind() == io::ErrorKind::NotFound),
            "{err}"
        );
    }

    #[test]
    fn bad_magic_is_an_error() {
        let mut bytes = encode(&sample(100));
        bytes[0] ^= 0xff;
        assert!(matches!(decode(&bytes), Err(CodecError::BadMagic)));
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        let bytes = encode(&sample(1000));
        // Cut the file at every structurally interesting prefix length:
        // inside the magic, the name length, the name, the count, the first
        // record and the body.
        for cut in [
            0,
            4,
            8,
            10,
            14,
            25,
            30,
            40,
            bytes.len() / 2,
            bytes.len() - 1,
        ] {
            let err = decode(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(err, CodecError::Truncated { .. }),
                "cut {cut}: {err}"
            );
        }
        // A body cut mid-record reports the whole records it holds.
        assert!(matches!(
            decode(&bytes[..bytes.len() - 12]),
            Err(CodecError::Truncated {
                expected: 1000,
                got: 998
            })
        ));
    }

    #[test]
    fn corrupt_record_tag_is_an_error() {
        // A kind byte past the last tag, at record k: the error names k.
        let trace = sample(100);
        for (k, tag) in [(0usize, kind::BRANCH_TAKEN + 1), (37, 0xff), (99, 6)] {
            let mut bytes = encode(&trace);
            bytes[kind_offset(trace.name().len(), k)] = tag;
            let err = decode(&bytes).unwrap_err();
            assert!(
                matches!(err, CodecError::BadKind { record, kind } if record == k as u64 && kind == tag),
                "record {k}: {err}"
            );
            assert!(err.to_string().contains(&format!("record {k} ")), "{err}");
        }
    }

    #[test]
    fn over_long_name_is_rejected_at_write_time() {
        let trace = Trace::new(
            "n".repeat(MAX_NAME_BYTES as usize + 1),
            vec![InstrRecord::new(0x400, Op::Int)],
        );
        let mut bytes = Vec::new();
        let err = write_trace(&mut bytes, &trace).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);

        // Through the atomic save, nothing lands at the path.
        let dir = temp_dir("longname");
        let path = dir.join("long.rctrace");
        let err = save_trace(&path, &trace).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert!(!path.exists());
        assert_eq!(
            std::fs::read_dir(&dir).expect("dir").count(),
            0,
            "no debris"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn concurrent_saves_of_one_entry_never_expose_a_torn_file() {
        let dir = temp_dir("race");
        let path = dir.join("entry.rctrace");
        let trace = sample(2_000);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..8 {
                        save_trace(&path, &trace).expect("save");
                        assert_eq!(load(&path).expect("load during races"), trace);
                    }
                });
            }
        });
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn oversized_name_is_an_error() {
        // The name-length field follows the magic.
        let mut bytes = encode(&sample(10));
        bytes[8..12].copy_from_slice(&(MAX_NAME_BYTES + 1).to_le_bytes());
        assert!(matches!(decode(&bytes), Err(CodecError::BadName)));
        // A name that is not UTF-8 is rejected the same way.
        let mut bytes = encode(&sample(10));
        bytes[12] = 0xff;
        assert!(matches!(decode(&bytes), Err(CodecError::BadName)));
    }

    #[test]
    fn file_source_replays_and_splits_across_chunk_boundaries() {
        let dir = temp_dir("fsrc");
        let path = dir.join("compress.rctrace");
        let trace = sample(2 * IO_CHUNK_RECORDS + 50);
        save_trace(&path, &trace).expect("save");
        let drain = |take: Option<usize>| {
            let mut src = TraceFileSource::open(&path, take).expect("open");
            let records = src.next_chunk().to_vec();
            assert!(src.next_chunk().is_empty(), "one chunk holds every record");
            assert!(src.fault().is_none());
            records
        };

        // Whole-file replay, and a prefix that ends mid-chunk.
        assert_eq!(drain(None), trace.records());
        let take = IO_CHUNK_RECORDS + 300;
        assert_eq!(drain(Some(take)), &trace.records()[..take]);

        // A request longer than the file is rejected at open time.
        assert!(matches!(
            TraceFileSource::open(&path, Some(trace.len() + 1)),
            Err(CodecError::Truncated { .. })
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_corrupt_later_chunk_fails_the_whole_load() {
        // A bad kind byte in the second read chunk: the intact first chunk
        // is not handed out on its own; the load returns the typed error.
        let dir = temp_dir("fault");
        let path = dir.join("compress.rctrace");
        let trace = sample(2 * IO_CHUNK_RECORDS + 100);
        save_trace(&path, &trace).expect("save");
        let mut bytes = std::fs::read(&path).expect("read");
        let k = IO_CHUNK_RECORDS + 5;
        bytes[kind_offset(trace.name().len(), k)] = 0x80;
        std::fs::write(&path, &bytes).expect("corrupt");
        assert!(matches!(
            load(&path),
            Err(CodecError::BadKind { record, kind: 0x80 }) if record == k as u64
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_record_count_the_file_cannot_hold_is_a_typed_error() {
        // A header promising 2^40 (or 2^64 − 1) records over a file of a
        // few hundred bytes must fail typed, never abort on an allocation.
        let trace = sample(100);
        let count = 12 + trace.name().len();
        for promised in [1u64 << 40, u64::MAX] {
            let mut bytes = encode(&trace);
            bytes[count..count + 8].copy_from_slice(&promised.to_le_bytes());
            assert!(matches!(
                decode(&bytes),
                Err(CodecError::Truncated { expected, got: 100 }) if expected == promised
            ));
        }
        let mut bytes = encode(&trace);
        bytes[count..count + 8].copy_from_slice(&(1u64 << 40).to_le_bytes());
        let dir = temp_dir("huge");
        let path = dir.join("compress.rctrace");
        std::fs::write(&path, &bytes).expect("plant");
        assert!(matches!(load(&path), Err(CodecError::Truncated { .. })));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bytes_after_the_last_chunk_are_a_typed_error() {
        // Two whole images back to back: the first is a valid trace, but the
        // file is not it, so the load must not serve it.
        let trace = TraceGenerator::new(spec::gcc(), 42).generate(10_000);
        let image = encode(&trace);
        let doubled = [image.as_slice(), image.as_slice()].concat();
        let extra = image.len() as u64;
        assert!(matches!(
            decode(&doubled),
            Err(CodecError::TrailingBytes { extra: e }) if e == extra
        ));
        let dir = temp_dir("doubled");
        let path = dir.join("gcc.rctrace");
        std::fs::write(&path, &doubled).expect("plant");
        assert!(matches!(
            load(&path),
            Err(CodecError::TrailingBytes { extra: e }) if e == extra
        ));
        // One stray byte is enough, and so is a count one record short.
        let mut padded = image.clone();
        padded.push(0);
        assert!(matches!(
            decode(&padded),
            Err(CodecError::TrailingBytes { extra: 1 })
        ));
        let mut short_count = image;
        let count = 12 + trace.name().len();
        short_count[count..count + 8].copy_from_slice(&9_999u64.to_le_bytes());
        assert!(matches!(
            decode(&short_count),
            Err(CodecError::TrailingBytes { extra: 11 })
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn errors_format_and_chain() {
        let err = CodecError::from(io::Error::other("boom"));
        assert!(err.to_string().contains("boom"));
        assert!(std::error::Error::source(&err).is_some());
        let err = CodecError::Truncated {
            expected: 10,
            got: 3,
        };
        assert!(err.to_string().contains("truncated"));
    }
}
