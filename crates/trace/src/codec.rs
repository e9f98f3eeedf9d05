//! Length-prefixed binary codec for traces: the persistence format of the
//! experiment trace store.
//!
//! Trace generation is deterministic but not free (it is the slowest single
//! stage of a cold sweep), so a trace store built over a directory persists
//! generated traces and replays them from disk.
//! There is one container, with delta-compressed chunks (the crate-private
//! `compress` module holds the per-record payload layout):
//!
//! ```text
//! magic      8 bytes   b"RCTRACE3"
//! flags      1 byte    always 1: chunks are delta compressed
//! name_len   4 bytes   u32 LE, at most MAX_NAME_BYTES
//! name       n bytes   UTF-8 application name
//! records    8 bytes   u64 LE total record count
//! chunk*                repeated until `records` records have been read:
//!   len      4 bytes   u32 LE records in this chunk (1 ..= CHUNK_RECORDS)
//!   bytes    4 bytes   u32 LE payload length (3×len ..= 13×len)
//!   data     bytes     compressed records, delta bases reset per chunk
//! ```
//!
//! Readers validate everything they touch and return a [`CodecError`] —
//! never panic — on truncated, corrupt or foreign files, so a store
//! populated by a crashed or concurrent process degrades to regeneration
//! rather than an aborted sweep. A file of a retired format (`RCTRACE1`,
//! `RCTRACE2`) or an unknown one is [`CodecError::UnsupportedVersion`]; a
//! header with any other flags byte (including the retired raw layout's `0`)
//! is [`CodecError::UnsupportedFlags`]. A file that goes on after its last
//! promised chunk is [`CodecError::TrailingBytes`].
//!
//! There is one save and one load: [`save_trace`] writes a resident
//! [`Trace`] to a file atomically, framing its records into
//! [`CHUNK_RECORDS`]-record chunks, and [`load`] reads a file back whole,
//! decoding each chunk straight into its slot of one record buffer. A load
//! either returns the whole trace or a [`CodecError`]; there is no partial
//! result to check afterwards.
//!
//! The atomic save writes a temp file unique to the writer and renames it
//! into place, so any number of threads or processes may save one path at
//! once: the path holds one writer's whole file, never a torn mix.

use std::fmt;
use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::Path;

use crate::compress;
use crate::format::TraceFormat;
use crate::record::InstrRecord;
use crate::source::{TraceSource, CHUNK_RECORDS};
use crate::trace::Trace;

pub use crate::compress::{CorruptChunk, UnencodableRecord};

/// Version-independent prefix of every trace-file magic: a file with this
/// prefix but another version digit is a rescache trace of a format this
/// build does not read.
const MAGIC_PREFIX: [u8; 7] = *b"RCTRACE";

/// The header flags byte: bit 0 announces delta-compressed chunks, the only
/// encoding.
const FLAGS: u8 = 1;

/// Upper bound on the encoded application-name length.
const MAX_NAME_BYTES: u32 = 4 * 1024;

/// Error produced when decoding a persisted trace.
#[derive(Debug)]
pub enum CodecError {
    /// The underlying reader failed.
    Io(io::Error),
    /// The file does not start with `RCTRACE` — not a rescache trace at all.
    BadMagic,
    /// The magic names a trace-format version this build does not read
    /// (the retired v1/v2, or a future one).
    UnsupportedVersion {
        /// The unrecognized version byte from the magic.
        version: u8,
    },
    /// The header's flags byte is not the delta-compressed encoding's — the
    /// retired raw layout, or a future encoding, must be regenerated, not
    /// half-decoded.
    UnsupportedFlags {
        /// The rejected flags byte.
        flags: u8,
    },
    /// The application name is over-long or not UTF-8.
    BadName,
    /// A chunk header is impossible (zero, over-long, or exceeding the
    /// remaining record count).
    BadChunk {
        /// The rejected chunk length.
        len: u32,
        /// Records still expected when the chunk header was read.
        remaining: u64,
    },
    /// A chunk's byte length is impossible for its record count (the chunk
    /// directory points at the wrong place).
    BadChunkBytes {
        /// Records the chunk header promises.
        len: u32,
        /// The impossible payload byte length.
        byte_len: u32,
    },
    /// A chunk payload failed to decode.
    BadPayload(CorruptChunk),
    /// The file ended before the promised record count was delivered.
    Truncated {
        /// Records promised by the header.
        expected: u64,
        /// Records successfully decoded before the end of the file.
        got: u64,
    },
    /// The file goes on after the last promised chunk (two images written
    /// back to back, or a foreign tail): serving its first trace would hide
    /// the damage.
    TrailingBytes {
        /// Bytes after the last chunk.
        extra: u64,
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
            CodecError::UnsupportedFlags { flags } => write!(
                f,
                "trace file header has unsupported flags byte {flags:#04x}"
            ),
            CodecError::BadName => write!(f, "trace file has an invalid application name"),
            CodecError::BadChunk { len, remaining } => write!(
                f,
                "trace file has an invalid chunk header (len {len}, {remaining} records remaining)"
            ),
            CodecError::BadChunkBytes { len, byte_len } => write!(
                f,
                "trace file has an impossible compressed chunk ({len} records in {byte_len} bytes)"
            ),
            CodecError::BadPayload(e) => {
                write!(f, "trace file has a corrupt compressed chunk: {e}")
            }
            CodecError::Truncated { expected, got } => write!(
                f,
                "trace file is truncated: expected {expected} records, decoded {got}"
            ),
            CodecError::TrailingBytes { extra } => write!(
                f,
                "trace file has {extra} bytes after its last promised chunk"
            ),
        }
    }
}

impl std::error::Error for CodecError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CodecError::Io(e) => Some(e),
            CodecError::BadPayload(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CorruptChunk> for CodecError {
    fn from(e: CorruptChunk) -> Self {
        CodecError::BadPayload(e)
    }
}

impl From<io::Error> for CodecError {
    fn from(e: io::Error) -> Self {
        CodecError::Io(e)
    }
}

/// Writes `trace` to `w` in the format described at module level, framed
/// into [`CHUNK_RECORDS`]-record chunks.
///
/// # Errors
///
/// Besides writer errors, returns `InvalidInput` for a name over
/// [`MAX_NAME_BYTES`] or a record the payload cannot represent (see
/// [`UnencodableRecord`]) — a reader would reject such a file, so it must
/// never be produced.
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
    w.write_all(&TraceFormat::V3.magic())?;
    w.write_all(&[FLAGS])?;
    w.write_all(&(name.len() as u32).to_le_bytes())?;
    w.write_all(name)?;
    w.write_all(&(trace.len() as u64).to_le_bytes())?;

    let mut payload = Vec::new();
    for frame in trace.records().chunks(CHUNK_RECORDS) {
        payload.clear();
        compress::encode_chunk(frame, &mut payload)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))?;
        w.write_all(&(frame.len() as u32).to_le_bytes())?;
        w.write_all(&(payload.len() as u32).to_le_bytes())?;
        w.write_all(&payload)?;
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
    if magic != TraceFormat::V3.magic() {
        return Err(CodecError::UnsupportedVersion { version: magic[7] });
    }
    let mut flags = [0u8; 1];
    read_exact_or_truncated(r, &mut flags, 0, 0)?;
    if flags[0] != FLAGS {
        return Err(CodecError::UnsupportedFlags { flags: flags[0] });
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

/// Decodes a whole trace image of `file_bytes` bytes from `r`. The record
/// buffer is sized once, and every chunk decodes straight into its slot of
/// it; the image must end with its last promised chunk.
fn decode_trace<R: Read>(mut r: R, file_bytes: u64) -> Result<Trace, CodecError> {
    let (name, total) = read_header(&mut r)?;
    // Every record takes at least `MIN_RECORD_BYTES` of payload, so a count
    // the file cannot hold is a lie: reject it before trusting it for an
    // allocation.
    let capacity = usize::try_from(total)
        .ok()
        .filter(|_| total <= file_bytes / compress::MIN_RECORD_BYTES as u64)
        .ok_or(CodecError::Truncated {
            expected: total,
            got: 0,
        })?;
    let mut records = Vec::with_capacity(capacity);
    let mut raw = Vec::new();
    let mut len4 = [0u8; 4];
    while records.len() < capacity {
        let got = records.len();
        let remaining = (capacity - got) as u64;
        read_exact_or_truncated(&mut r, &mut len4, total, got as u64)?;
        let len = u32::from_le_bytes(len4);
        if len == 0 || len as usize > CHUNK_RECORDS || u64::from(len) > remaining {
            return Err(CodecError::BadChunk { len, remaining });
        }
        read_exact_or_truncated(&mut r, &mut len4, total, got as u64)?;
        let byte_len = u32::from_le_bytes(len4);
        // The payload bounds are a structural invariant (3 layout and head
        // bytes plus two bounded delta fields per record); anything outside
        // them means the chunk directory is lying, so reject before trusting
        // it for an allocation or a read.
        if (byte_len as usize) < compress::MIN_RECORD_BYTES * len as usize
            || byte_len as usize > compress::MAX_RECORD_BYTES * len as usize
        {
            return Err(CodecError::BadChunkBytes { len, byte_len });
        }
        let byte_len = byte_len as usize;
        // Grow-only: a shorter chunk reuses the front of the buffer rather
        // than re-zeroing it on the next longer one.
        raw.resize(byte_len.max(raw.len()), 0);
        read_exact_or_truncated(&mut r, &mut raw[..byte_len], total, got as u64)?;
        records.resize(got + len as usize, InstrRecord::zeroed());
        compress::decode_chunk_into(&raw[..byte_len], &mut records[got..])?;
    }
    let extra = io::copy(&mut r, &mut io::sink())?;
    if extra > 0 {
        return Err(CodecError::TrailingBytes { extra });
    }
    Ok(Trace::new(name, records))
}

/// Loads the trace at `path` whole.
///
/// # Errors
///
/// Returns [`CodecError::Io`] if the file cannot be opened or read, and a
/// content error if the file is truncated, corrupt, of another format or
/// longer than its chunks. Nothing of a failed load is returned.
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
/// or an unencodable record (the partial file is discarded, never renamed
/// into place).
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

    /// Byte offsets of each chunk header, walked via the chunk directory's
    /// explicit byte lengths.
    fn chunk_offsets(bytes: &[u8], name_len: usize) -> Vec<usize> {
        let mut off = 9 + 4 + name_len + 8;
        let mut offsets = Vec::new();
        while off < bytes.len() {
            offsets.push(off);
            let byte_len =
                u32::from_le_bytes(bytes[off + 4..off + 8].try_into().expect("4 bytes")) as usize;
            off += 8 + byte_len;
        }
        offsets
    }

    #[test]
    fn round_trips_through_memory() {
        // Cover the empty, sub-chunk and multi-chunk cases.
        for n in [0usize, 1, 1000, CHUNK_RECORDS + 17] {
            let trace = sample(n);
            let decoded = decode(&encode(&trace)).expect("round trip");
            assert_eq!(decoded, trace, "{n} records");
        }
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
        // followed directly by the name (no flags byte) and raw 12-byte
        // records; v3's raw layout carried flags 0. All are rejected at the
        // header, typed, before any record is read.
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
        for (tag, bytes) in [
            ("v1", old_header(b"RCTRACE1", None)),
            ("v2", old_header(b"RCTRACE2", None)),
            ("raw", old_header(b"RCTRACE3", Some(0))),
        ] {
            let path = dir.join(format!("{tag}.rctrace"));
            std::fs::write(&path, &bytes).expect("plant old file");
            let err = load(&path).unwrap_err();
            let expected = match tag {
                "v1" => matches!(err, CodecError::UnsupportedVersion { version: b'1' }),
                "v2" => matches!(err, CodecError::UnsupportedVersion { version: b'2' }),
                _ => matches!(err, CodecError::UnsupportedFlags { flags: 0 }),
            };
            assert!(expected, "{tag}: {err}");
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
        // inside the magic, the flags byte, the name, the count, the chunk
        // header and the payload.
        for cut in [0, 4, 8, 10, 20, 30, 34, bytes.len() / 2, bytes.len() - 1] {
            let err = decode(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(err, CodecError::Truncated { .. }),
                "cut {cut}: {err}"
            );
        }
    }

    #[test]
    fn corrupt_record_tag_is_an_error() {
        // An operation tag beyond the last kind in the first record's head
        // (payload byte 1: the layout byte leads, then the little-endian
        // head whose low three bits are the tag).
        let trace = sample(100);
        let mut bytes = encode(&trace);
        let chunk = chunk_offsets(&bytes, trace.name().len())[0];
        bytes[chunk + 9] |= 0x07;
        assert!(matches!(
            decode(&bytes),
            Err(CodecError::BadPayload(CorruptChunk::BadHead { .. }))
        ));
    }

    #[test]
    fn impossible_chunk_header_is_an_error() {
        let trace = sample(100);
        let bytes = encode(&trace);
        let chunk = chunk_offsets(&bytes, trace.name().len())[0];
        // Zero, over-long and more-than-remaining record counts.
        for len in [0u32, u32::MAX, CHUNK_RECORDS as u32 + 1, 101] {
            let mut b = bytes.clone();
            b[chunk..chunk + 4].copy_from_slice(&len.to_le_bytes());
            assert!(
                matches!(decode(&b), Err(CodecError::BadChunk { len: l, .. }) if l == len),
                "chunk length {len}"
            );
        }
    }

    #[test]
    fn over_long_name_is_rejected_at_write_time() {
        use crate::record::Op;
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
        // The name-length field follows the magic and the flags byte.
        let mut bytes = encode(&sample(10));
        bytes[9..13].copy_from_slice(&(MAX_NAME_BYTES + 1).to_le_bytes());
        assert!(matches!(decode(&bytes), Err(CodecError::BadName)));
        // A name that is not UTF-8 is rejected the same way.
        let mut bytes = encode(&sample(10));
        bytes[13] = 0xff;
        assert!(matches!(decode(&bytes), Err(CodecError::BadName)));
    }

    #[test]
    fn file_source_replays_and_splits_across_chunk_boundaries() {
        let dir = temp_dir("fsrc");
        let path = dir.join("compress.rctrace");
        let trace = sample(2 * CHUNK_RECORDS + 50);
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
        let take = CHUNK_RECORDS + 300;
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
        let dir = temp_dir("fault");
        let path = dir.join("compress.rctrace");
        let trace = sample(2 * CHUNK_RECORDS + 100);
        save_trace(&path, &trace).expect("save");
        let clean = std::fs::read(&path).expect("read");
        let chunks = chunk_offsets(&clean, trace.name().len());

        // A bad record tag in the second chunk: the intact first chunk is
        // not handed out on its own; the load returns the typed error.
        let mut bytes = clean.clone();
        bytes[chunks[1] + 9] |= 0x07;
        std::fs::write(&path, &bytes).expect("corrupt");
        assert!(matches!(
            load(&path),
            Err(CodecError::BadPayload(CorruptChunk::BadHead { .. }))
        ));

        // Likewise a scribbled directory entry of the last chunk.
        let mut bytes = clean;
        let last = *chunks.last().expect("chunks");
        bytes[last + 4..last + 8].copy_from_slice(&u32::MAX.to_le_bytes());
        std::fs::write(&path, &bytes).expect("corrupt tail");
        assert!(matches!(load(&path), Err(CodecError::BadChunkBytes { .. })));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_record_count_the_file_cannot_hold_is_a_typed_error() {
        // A header promising 2^40 records over a file of a few hundred
        // bytes must fail typed, never abort on an allocation.
        let mut bytes = encode(&sample(100));
        let count = 9 + 4 + "compress".len();
        bytes[count..count + 8].copy_from_slice(&(1u64 << 40).to_le_bytes());
        assert!(matches!(
            decode(&bytes),
            Err(CodecError::Truncated {
                expected: 0x100_0000_0000,
                got: 0
            })
        ));
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
        // One stray byte is enough.
        let mut padded = image.clone();
        padded.push(0);
        assert!(matches!(
            decode(&padded),
            Err(CodecError::TrailingBytes { extra: 1 })
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn v3_default_is_compressed_and_at_least_halves_the_file() {
        let trace = sample(20_000);
        let bytes = encode(&trace);
        assert_eq!(&bytes[..8], b"RCTRACE3");
        assert_eq!(bytes[8], 1, "flags byte announces compression");
        assert!(
            bytes.len() * 2 <= trace.len() * std::mem::size_of::<InstrRecord>(),
            "{} bytes for {} records is under 2x compression",
            bytes.len(),
            trace.len()
        );
        assert_eq!(decode(&bytes).expect("decode").records(), trace.records());
    }

    #[test]
    fn unknown_flags_byte_is_a_typed_error() {
        for flags in [0x82u8, 0, 3] {
            let mut bytes = encode(&sample(100));
            bytes[8] = flags;
            assert!(
                matches!(decode(&bytes), Err(CodecError::UnsupportedFlags { flags: f }) if f == flags),
                "flags {flags:#04x}"
            );
        }
    }

    #[test]
    fn compressed_chunk_corruption_is_typed_never_a_panic() {
        let trace = sample(2 * CHUNK_RECORDS);
        let bytes = encode(&trace);
        let chunk = chunk_offsets(&bytes, trace.name().len())[0];
        let byte_len = u32::from_le_bytes(bytes[chunk + 4..chunk + 8].try_into().expect("4 bytes"));

        // An impossible chunk-directory byte length (pointing the payload
        // frame at the wrong place) is rejected before anything is decoded.
        let mut b = bytes.clone();
        b[chunk + 4..chunk + 8].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            decode(&b),
            Err(CodecError::BadChunkBytes {
                byte_len: u32::MAX,
                ..
            })
        ));

        // A lying-but-in-bounds byte length cuts the last record's delta
        // field: truncation inside the payload, reported typed.
        let mut b = bytes.clone();
        b[chunk + 4..chunk + 8].copy_from_slice(&(byte_len - 1).to_le_bytes());
        assert!(matches!(
            decode(&b),
            Err(CodecError::BadPayload(CorruptChunk::Truncated))
        ));

        // One byte too long: the payload keeps going after the last record.
        let mut b = bytes.clone();
        b[chunk + 4..chunk + 8].copy_from_slice(&(byte_len + 1).to_le_bytes());
        assert!(matches!(
            decode(&b),
            Err(CodecError::BadPayload(CorruptChunk::TrailingBytes {
                extra: 1
            }))
        ));

        // A reserved bit in the first record's head (payload byte 2: the
        // layout byte leads, then the little-endian head).
        let mut b = bytes.clone();
        b[chunk + 10] |= 0x80;
        assert!(matches!(
            decode(&b),
            Err(CodecError::BadPayload(CorruptChunk::BadHead { .. }))
        ));
    }

    #[test]
    fn bad_delta_base_is_a_typed_error() {
        // Hand-assemble a file whose single record steps the PC stream below
        // zero — the "bad delta base" shape a resequenced or bit-flipped
        // chunk produces.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(b"RCTRACE3");
        bytes.push(1); // flags: compressed
        bytes.extend_from_slice(&1u32.to_le_bytes()); // name_len
        bytes.push(b'x');
        bytes.extend_from_slice(&1u64.to_le_bytes()); // records
        bytes.extend_from_slice(&1u32.to_le_bytes()); // chunk len
        let payload: &[u8] = &[0x01, 0, 0, 0x01]; // layout: 1 PC byte; head = Int; pc delta = -1
        bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        bytes.extend_from_slice(payload);
        assert!(matches!(
            decode(&bytes),
            Err(CodecError::BadPayload(CorruptChunk::DeltaOutOfRange))
        ));
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
