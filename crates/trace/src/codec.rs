//! Length-prefixed binary codec for traces: the persistence format of the
//! experiment trace store.
//!
//! Trace generation is deterministic but not free (it is the slowest single
//! stage of a cold sweep), so multi-process experiment campaigns persist
//! generated traces under `RESCACHE_TRACE_DIR` and replay them from disk.
//! There is one container, with delta-compressed chunks (see
//! [`crate::compress`] internals for the per-record payload layout):
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
//! is [`CodecError::UnsupportedFlags`].
//!
//! There is one save and one open, both routing every filesystem operation
//! through an [`IoPolicy`]: [`save_source`] drains any [`TraceSource`] to a
//! file atomically without holding the full record array, and
//! [`TraceFileSource::open_with`] replays a file chunk by chunk (or only a
//! leading prefix of it), with one decoded chunk resident. The experiment
//! trace store keys entries by their exact total and always replays a whole
//! file.
//!
//! The atomic save writes a temp file unique to the writer and renames it
//! into place, so any number of threads or processes may save one path at
//! once: the path holds one writer's whole file, never a torn mix.

use std::fmt;
use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::Path;

use crate::compress;
use crate::faults::{IoPolicy, PolicedRead};
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

/// Writes `source` to `w` in the format described at module level, chunk by
/// chunk. Oversized producer chunks (a materialized cursor yields its whole
/// window as one chunk) are re-framed to the [`CHUNK_RECORDS`] bound.
///
/// # Errors
///
/// Besides writer errors, returns `InvalidInput` for a name over
/// [`MAX_NAME_BYTES`] or a record the payload cannot represent (see
/// [`UnencodableRecord`]) — a reader would reject such a file, so it must
/// never be produced — and `InvalidData` if the source delivers fewer
/// records than [`TraceSource::total_records`] promised.
fn write_source<W: Write, S: TraceSource>(w: &mut W, source: &mut S) -> io::Result<()> {
    let name = source.name().as_bytes().to_vec();
    if name.len() as u64 > u64::from(MAX_NAME_BYTES) {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!(
                "trace name of {} bytes exceeds {MAX_NAME_BYTES}",
                name.len()
            ),
        ));
    }
    let promised = source.total_records() as u64;
    w.write_all(&TraceFormat::V3.magic())?;
    w.write_all(&[FLAGS])?;
    w.write_all(&(name.len() as u32).to_le_bytes())?;
    w.write_all(&name)?;
    w.write_all(&promised.to_le_bytes())?;

    let mut written = 0u64;
    let mut payload = Vec::new();
    loop {
        let chunk = source.next_chunk();
        if chunk.is_empty() {
            break;
        }
        for frame in chunk.chunks(CHUNK_RECORDS) {
            payload.clear();
            compress::encode_chunk(frame, &mut payload)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))?;
            w.write_all(&(frame.len() as u32).to_le_bytes())?;
            w.write_all(&(payload.len() as u32).to_le_bytes())?;
            w.write_all(&payload)?;
            written += frame.len() as u64;
        }
    }
    if written != promised {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("source promised {promised} records but delivered {written}"),
        ));
    }
    Ok(())
}

/// An incremental reader over the persisted trace format: the header is
/// validated on construction, then [`ChunkedTraceReader::next_chunk`] decodes
/// one chunk at a time into an internal buffer, so at most
/// [`CHUNK_RECORDS`] decoded records are ever alive.
#[derive(Debug)]
struct ChunkedTraceReader<R: Read> {
    r: R,
    name: String,
    total: u64,
    delivered: u64,
    buf: Vec<InstrRecord>,
    raw: Vec<u8>,
}

impl<R: Read> ChunkedTraceReader<R> {
    /// Reads and validates the stream header.
    fn new(mut r: R) -> Result<Self, CodecError> {
        let mut magic = [0u8; 8];
        read_exact_or_truncated(&mut r, &mut magic, 0, 0)?;
        if magic[..7] != MAGIC_PREFIX {
            return Err(CodecError::BadMagic);
        }
        if magic != TraceFormat::V3.magic() {
            return Err(CodecError::UnsupportedVersion { version: magic[7] });
        }
        let mut flags = [0u8; 1];
        read_exact_or_truncated(&mut r, &mut flags, 0, 0)?;
        if flags[0] != FLAGS {
            return Err(CodecError::UnsupportedFlags { flags: flags[0] });
        }

        let mut len4 = [0u8; 4];
        read_exact_or_truncated(&mut r, &mut len4, 0, 0)?;
        let name_len = u32::from_le_bytes(len4);
        if name_len > MAX_NAME_BYTES {
            return Err(CodecError::BadName);
        }
        let mut name_bytes = vec![0u8; name_len as usize];
        read_exact_or_truncated(&mut r, &mut name_bytes, 0, 0)?;
        let name = String::from_utf8(name_bytes).map_err(|_| CodecError::BadName)?;

        let mut len8 = [0u8; 8];
        read_exact_or_truncated(&mut r, &mut len8, 0, 0)?;
        let total = u64::from_le_bytes(len8);

        Ok(Self {
            r,
            name,
            total,
            delivered: 0,
            buf: Vec::new(),
            raw: Vec::new(),
        })
    }

    /// Decodes the next chunk, or returns an empty slice once every promised
    /// record has been delivered. The decode *overwrites* the buffer:
    /// steady-state chunks are all the same length, so after the first chunk
    /// the resize is a no-op and the decode writes straight over the last
    /// chunk's records — a clear-then-grow cycle would re-zero the whole
    /// buffer every chunk. The reader must not be used further after an
    /// error.
    fn next_chunk(&mut self) -> Result<&[InstrRecord], CodecError> {
        let remaining = self.total - self.delivered;
        if remaining == 0 {
            self.buf.clear();
            return Ok(&self.buf);
        }
        let (total, delivered) = (self.total, self.delivered);
        let mut len4 = [0u8; 4];
        read_exact_or_truncated(&mut self.r, &mut len4, total, delivered)?;
        let len = u32::from_le_bytes(len4);
        if len == 0 || len as usize > CHUNK_RECORDS || u64::from(len) > remaining {
            return Err(CodecError::BadChunk { len, remaining });
        }
        read_exact_or_truncated(&mut self.r, &mut len4, total, delivered)?;
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
        self.raw.resize(byte_len.max(self.raw.len()), 0);
        read_exact_or_truncated(&mut self.r, &mut self.raw[..byte_len], total, delivered)?;
        self.buf.resize(len as usize, InstrRecord::zeroed());
        compress::decode_chunk_into(&self.raw[..byte_len], &mut self.buf)?;
        self.delivered += u64::from(len);
        Ok(&self.buf)
    }
}

/// A [`TraceSource`] replaying a persisted trace chunk by chunk from disk,
/// keeping one decoded chunk resident — and serving it as sub-slices of the
/// reader's decode buffer, so records reach the engines in one decode pass
/// with no staging copy. Opening with a `take` shorter than the file serves
/// only that prefix, chunk-granular — decoding stops with the chunk that
/// covers the request, so corruption *beyond* the prefix is never even
/// read. The experiment trace store does not use prefixes: it opens each
/// entry for exactly the total the entry was saved with.
///
/// The pull interface has no error channel, so a decode failure mid-stream
/// (a truncated or corrupted store entry) is recorded in
/// [`TraceFileSource::fault`] and the source reports exhaustion; callers
/// that must be robust check the fault after the run and fall back to
/// regeneration (as the experiment trace store does).
#[derive(Debug)]
pub struct TraceFileSource {
    path: std::path::PathBuf,
    reader: ChunkedTraceReader<BufReader<PolicedRead<File>>>,
    /// Records of the file this source serves (a prefix of the file when the
    /// entry is longer than the request).
    take: usize,
    pos: usize,
    fence: usize,
    /// Extent and cursor into the reader's current decoded chunk: the source
    /// serves sub-slices of the reader's buffer directly, so records flow
    /// from the decode buffer to the consumer without a second staging
    /// copy.
    chunk_len: usize,
    chunk_pos: usize,
    fault: Option<CodecError>,
}

impl TraceFileSource {
    /// [`TraceFileSource::open_with`] without fault injection. Kept as a
    /// one-line wrapper because the standalone benchmark
    /// (`perfbench/src/layers.rs`) compiles against it.
    ///
    /// # Errors
    ///
    /// As [`TraceFileSource::open_with`].
    pub fn open(path: &Path, take: Option<usize>) -> Result<Self, CodecError> {
        Self::open_with(path, take, &IoPolicy::none())
    }

    /// Opens the trace at `path`, serving its first `take` records (`None` =
    /// the whole file), with the open and every subsequent read routed
    /// through `policy`. A fault injected mid-stream surfaces through
    /// [`TraceFileSource::fault`] exactly like real disk trouble.
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] if the file cannot be opened, its header is
    /// invalid, it promises fewer than `take` records, or `policy` injects a
    /// fault.
    pub fn open_with(
        path: &Path,
        take: Option<usize>,
        policy: &IoPolicy,
    ) -> Result<Self, CodecError> {
        let file = policy.open(path)?;
        let reader = ChunkedTraceReader::new(BufReader::new(policy.reader(file)))?;
        let take = take.unwrap_or(reader.total as usize);
        if (take as u64) > reader.total {
            return Err(CodecError::Truncated {
                expected: take as u64,
                got: reader.total,
            });
        }
        Ok(Self {
            path: path.to_path_buf(),
            reader,
            take,
            pos: 0,
            fence: take,
            chunk_len: 0,
            chunk_pos: 0,
            fault: None,
        })
    }

    /// The file this source replays (callers that detect a fault use it to
    /// invalidate the entry).
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The record count the file's header promises — the whole entry, not
    /// the served prefix ([`TraceSource::total_records`] reports `take`).
    /// Store-layer callers compare this against the count implied by the
    /// entry's key to reject foreign or stale files.
    pub fn file_records(&self) -> usize {
        self.reader.total as usize
    }

    /// The decode error that interrupted this source, if any. When a fault is
    /// set the source under-delivers: the simulation that consumed it must be
    /// discarded and retried from another producer.
    pub fn fault(&self) -> Option<&CodecError> {
        self.fault.as_ref()
    }

    /// Advances the reader to its next decoded chunk (no copy — the records
    /// stay in the reader's buffer); false on fault/end.
    fn refill(&mut self) -> bool {
        match self.reader.next_chunk() {
            Ok([]) => {
                // `take` was validated against the header, so running dry
                // early means the file lied; record it as truncation.
                self.fault = Some(CodecError::Truncated {
                    expected: self.take as u64,
                    got: self.pos as u64,
                });
                false
            }
            Ok(chunk) => {
                self.chunk_len = chunk.len();
                self.chunk_pos = 0;
                true
            }
            Err(e) => {
                self.fault = Some(e);
                false
            }
        }
    }
}

impl TraceSource for TraceFileSource {
    fn name(&self) -> &str {
        &self.reader.name
    }

    fn total_records(&self) -> usize {
        self.take
    }

    fn next_chunk(&mut self) -> &[InstrRecord] {
        let limit = self.fence.min(self.take);
        if self.fault.is_some() || self.pos >= limit {
            return &[];
        }
        if self.chunk_pos >= self.chunk_len && !self.refill() {
            return &[];
        }
        // A file chunk that straddles the fence (or the prefix end) is
        // delivered piecewise: the remainder stays staged for the next
        // region, which is what makes the split chunk-boundary-agnostic.
        let n = (self.chunk_len - self.chunk_pos).min(limit - self.pos);
        let start = self.chunk_pos;
        self.chunk_pos += n;
        self.pos += n;
        &self.reader.buf[start..start + n]
    }

    fn position(&self) -> usize {
        self.pos
    }

    fn split_at(&mut self, at: usize) {
        self.fence = at.clamp(self.pos, self.take);
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

/// [`save_source`] of a materialized trace (through its cursor) without
/// fault injection. Kept as a one-line wrapper because the standalone
/// benchmark (`perfbench/src/layers.rs`) compiles against it.
///
/// # Errors
///
/// As [`save_source`].
pub fn save_trace(path: &Path, trace: &Trace) -> io::Result<()> {
    save_source(path, &mut trace.cursor(), &IoPolicy::none())
}

/// Drains `source` to `path` atomically, chunk by chunk, without ever
/// materializing the full record array. The write goes to a same-directory
/// temporary file that is renamed into place, so concurrent writers —
/// processes *or* threads — sharing a trace store never expose a
/// half-written file at the final path. The create, every buffered write
/// and the committing rename all go through `policy`; on any failure the
/// temporary file is cleaned up (best effort, unpoliced — injecting on the
/// cleanup of an already-failed save would only leave the same debris a
/// crashed process leaves, which readers already ignore).
///
/// # Errors
///
/// Besides writer errors and whatever `policy` injects, returns
/// `InvalidData` if the source delivers fewer records than
/// [`TraceSource::total_records`] promised (the partial file is discarded,
/// never renamed into place), and `InvalidInput` for an over-long name or
/// an unencodable record.
pub fn save_source<S: TraceSource>(
    path: &Path,
    source: &mut S,
    policy: &IoPolicy,
) -> io::Result<()> {
    // The temporary name must be unique per writer, not just per process:
    // two threads saving the same store entry would otherwise share the
    // temporary file and could rename a half-rewritten inode into place.
    static WRITER: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let writer = WRITER.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let tmp = path.with_extension(format!("tmp.{}.{writer}", std::process::id()));
    let result = (|| {
        let mut w = BufWriter::new(policy.writer(policy.create(&tmp)?));
        match write_source(&mut w, source).and_then(|()| w.flush()) {
            Ok(()) => policy.rename(&tmp, path),
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
        write_source(&mut bytes, &mut trace.cursor()).expect("vec writes cannot fail");
        bytes
    }

    /// Decodes a whole in-memory image through the chunked reader.
    fn decode(bytes: &[u8]) -> Result<Trace, CodecError> {
        let mut reader = ChunkedTraceReader::new(bytes)?;
        let mut records = Vec::new();
        loop {
            let chunk = reader.next_chunk()?;
            if chunk.is_empty() {
                break;
            }
            records.extend_from_slice(chunk);
        }
        Ok(Trace::new(reader.name, records))
    }

    /// Drains a file source, returning its records and fault.
    fn drain(source: &mut TraceFileSource) -> Vec<InstrRecord> {
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
            let err = TraceFileSource::open(&path, None).unwrap_err();
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
        let mut source = TraceFileSource::open(&path, None).expect("open");
        assert_eq!(source.name(), trace.name());
        assert_eq!(drain(&mut source), trace.records());
        assert!(source.fault().is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_file_is_an_error() {
        let err =
            TraceFileSource::open(Path::new("/nonexistent/rescache.rctrace"), None).unwrap_err();
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
        let err = write_source(&mut bytes, &mut trace.cursor()).unwrap_err();
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
                        let mut source =
                            TraceFileSource::open(&path, None).expect("open during races");
                        assert_eq!(drain(&mut source), trace.records());
                        assert!(source.fault().is_none());
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
    fn chunked_reader_delivers_the_exact_sequence() {
        let trace = sample(2 * CHUNK_RECORDS + 321);
        let bytes = encode(&trace);
        let mut reader = ChunkedTraceReader::new(bytes.as_slice()).expect("header");
        assert_eq!(reader.name, trace.name());
        assert_eq!(reader.total, trace.len() as u64);
        let mut records = Vec::new();
        loop {
            let chunk = reader.next_chunk().expect("chunk");
            if chunk.is_empty() {
                break;
            }
            assert!(chunk.len() <= CHUNK_RECORDS);
            records.extend_from_slice(chunk);
        }
        assert_eq!(records, trace.records());
        assert_eq!(reader.delivered, trace.len() as u64);
        // Exhausted readers keep returning empty chunks.
        assert!(reader.next_chunk().expect("past end").is_empty());
    }

    #[test]
    fn prefix_serving_is_chunk_granular() {
        let dir = temp_dir("prefix");
        let path = dir.join("compress.rctrace");
        let trace = sample(2 * CHUNK_RECORDS + 100);
        save_trace(&path, &trace).expect("save");

        let drain_prefix = |n: usize| {
            let mut source = TraceFileSource::open(&path, Some(n)).expect("open prefix");
            let records = drain(&mut source);
            assert!(source.fault().is_none(), "{:?}", source.fault());
            records
        };

        // A mid-chunk prefix delivers exactly the requested records.
        let n = CHUNK_RECORDS + 17;
        assert_eq!(drain_prefix(n), &trace.records()[..n]);

        // Corruption *beyond* the requested prefix is never read: set a
        // reserved head bit in the last chunk and the prefix still serves
        // cleanly...
        let mut bytes = std::fs::read(&path).expect("read");
        let last = *chunk_offsets(&bytes, trace.name().len())
            .last()
            .expect("chunks");
        bytes[last + 10] |= 0x80;
        std::fs::write(&path, &bytes).expect("corrupt tail");
        assert_eq!(drain_prefix(n), &trace.records()[..n]);
        // ... but a full replay now faults.
        let mut source = TraceFileSource::open(&path, None).expect("open full");
        drain(&mut source);
        assert!(matches!(
            source.fault(),
            Some(CodecError::BadPayload(CorruptChunk::BadHead { .. }))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn file_source_replays_and_splits_across_chunk_boundaries() {
        let dir = temp_dir("fsrc");
        let path = dir.join("compress.rctrace");
        let trace = sample(2 * CHUNK_RECORDS + 50);
        save_trace(&path, &trace).expect("save");

        // Whole-file replay.
        let mut src = TraceFileSource::open(&path, None).expect("open");
        assert_eq!(src.name(), trace.name());
        assert_eq!(src.total_records(), trace.len());
        assert_eq!(src.file_records(), trace.len());
        assert_eq!(drain(&mut src), trace.records());
        assert!(src.fault().is_none());

        // Prefix serving plus a split point that lands mid-chunk: the two
        // regions concatenate to the exact prefix.
        let take = CHUNK_RECORDS + 300;
        let split = CHUNK_RECORDS / 2 + 3;
        let mut src = TraceFileSource::open(&path, Some(take)).expect("open prefix");
        assert_eq!(src.total_records(), take);
        src.split_at(split);
        let mut records = drain(&mut src);
        assert_eq!(src.position(), split);
        src.split_at(take);
        records.extend(drain(&mut src));
        assert_eq!(records, &trace.records()[..take]);

        // A request longer than the file is rejected at open time.
        assert!(matches!(
            TraceFileSource::open(&path, Some(trace.len() + 1)),
            Err(CodecError::Truncated { .. })
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn file_source_records_a_fault_instead_of_panicking() {
        let dir = temp_dir("fault");
        let path = dir.join("compress.rctrace");
        let trace = sample(2 * CHUNK_RECORDS);
        save_trace(&path, &trace).expect("save");

        // Corrupt a record tag in the second chunk: the source delivers the
        // first chunk, then faults and under-delivers.
        let mut bytes = std::fs::read(&path).expect("read");
        let second = chunk_offsets(&bytes, trace.name().len())[1];
        bytes[second + 9] |= 0x07;
        std::fs::write(&path, &bytes).expect("corrupt");

        let mut src = TraceFileSource::open(&path, None).expect("header is intact");
        let delivered = drain(&mut src).len();
        assert_eq!(delivered, CHUNK_RECORDS, "only the intact chunk arrives");
        assert!(matches!(
            src.fault(),
            Some(CodecError::BadPayload(CorruptChunk::BadHead { .. }))
        ));
        // Once faulted, the source stays exhausted.
        assert!(src.next_chunk().is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn save_source_streams_a_generator_to_the_identical_file_contents() {
        let dir = temp_dir("savesrc");
        let n = CHUNK_RECORDS + 999;
        let generator = TraceGenerator::new(spec::compress(), 11);

        let streamed_path = dir.join("streamed.rctrace");
        let mut stream = generator.stream(n);
        save_source(&streamed_path, &mut stream, &IoPolicy::none()).expect("stream to disk");

        let materialized_path = dir.join("materialized.rctrace");
        save_trace(&materialized_path, &generator.generate(n)).expect("save");

        assert_eq!(
            std::fs::read(&streamed_path).expect("streamed bytes"),
            std::fs::read(&materialized_path).expect("materialized bytes"),
            "byte-identical persistence either way"
        );

        // An under-delivering source (fenced short) must not produce a file.
        let missing = dir.join("underdelivered.rctrace");
        let mut fenced = generator.stream(n);
        fenced.split_at(100);
        let err = save_source(&missing, &mut fenced, &IoPolicy::none()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(!missing.exists(), "partial file never renamed into place");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn injected_faults_surface_through_the_policed_codec_paths() {
        use crate::faults::{FaultInjector, FaultKind, IoOp, ScriptedFault};
        use std::sync::Arc;

        let dir = temp_dir("inject");
        let path = dir.join("entry.rctrace");
        let trace = sample(2 * CHUNK_RECORDS);
        let save = |policy: &IoPolicy| save_source(&path, &mut trace.cursor(), policy);

        // A write fault aborts the save and leaves no file (and no debris at
        // the final path).
        let injector = Arc::new(FaultInjector::scripted([ScriptedFault {
            op: IoOp::Write,
            kind: FaultKind::Transient,
        }]));
        let policy = IoPolicy::with_injector(Arc::clone(&injector));
        let err = save(&policy).unwrap_err();
        assert!(crate::faults::is_transient(&err));
        assert!(!path.exists(), "failed save leaves nothing at the path");

        // A rename fault likewise: the payload was fully written to the
        // temporary file, but it is never committed.
        injector.push(ScriptedFault {
            op: IoOp::Rename,
            kind: FaultKind::DiskFull,
        });
        let err = save(&policy).unwrap_err();
        assert!(crate::faults::is_disk_full(&err));
        assert!(!path.exists());

        // With the script drained the same policy saves cleanly, and a read
        // fault mid-replay surfaces as a recorded source fault — the same
        // degradation path a truncated entry takes.
        save(&policy).expect("clean save");
        // Open first (the header read passes), then inject: the fault lands
        // mid-replay rather than at open time.
        let mut src = TraceFileSource::open_with(&path, None, &policy).expect("open");
        injector.push(ScriptedFault {
            op: IoOp::Read,
            kind: FaultKind::Transient,
        });
        let delivered = drain(&mut src).len();
        assert!(
            delivered < trace.len(),
            "the injected read cut replay short"
        );
        assert!(
            matches!(src.fault(), Some(CodecError::Io(e)) if crate::faults::is_transient(e)),
            "{:?}",
            src.fault()
        );

        // An open fault is reported as CodecError::Io.
        injector.push(ScriptedFault {
            op: IoOp::Open,
            kind: FaultKind::Transient,
        });
        assert!(matches!(
            TraceFileSource::open_with(&path, None, &policy),
            Err(CodecError::Io(_))
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
    fn v3_prefix_serving_never_reads_corruption_beyond_the_prefix() {
        let dir = temp_dir("v3prefix");
        let path = dir.join("compress.v3.rctrace");
        let trace = sample(2 * CHUNK_RECORDS + 100);
        save_trace(&path, &trace).expect("save");

        // Scribble over the *last* chunk's directory entry.
        let mut bytes = std::fs::read(&path).expect("read");
        let last = *chunk_offsets(&bytes, trace.name().len())
            .last()
            .expect("chunks");
        bytes[last + 4..last + 8].copy_from_slice(&u32::MAX.to_le_bytes());
        std::fs::write(&path, &bytes).expect("corrupt tail");

        // A prefix covered by the intact chunks serves cleanly...
        let n = CHUNK_RECORDS + 17;
        let mut source = TraceFileSource::open(&path, Some(n)).expect("open prefix");
        assert_eq!(drain(&mut source), &trace.records()[..n]);
        assert!(source.fault().is_none(), "{:?}", source.fault());

        // ...while a full-file source faults mid-stream instead of
        // panicking, after delivering every intact chunk.
        let mut source = TraceFileSource::open(&path, None).expect("open full");
        assert_eq!(
            drain(&mut source).len(),
            2 * CHUNK_RECORDS,
            "intact chunks arrive"
        );
        assert!(matches!(
            source.fault(),
            Some(CodecError::BadChunkBytes { .. })
        ));
        assert!(source.next_chunk().is_empty(), "faulted source stays dry");
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
