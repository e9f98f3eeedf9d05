//! One client connection: bounded line reads, the non-blocking mid-sweep
//! poll, the request quota, and the read–dispatch loop.

use std::collections::VecDeque;
use std::io::{BufRead, BufReader, BufWriter, ErrorKind, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};

use super::dispatch::dispatch;
use super::protocol::error_line;
use super::{ServeConfig, ServerHandle, MAX_LINE_BYTES, SHUTDOWN_POLL};
use crate::experiment::runner::Runner;
use crate::experiment::shared_tier::HealthCounters;
use crate::json::Json;

/// Outcome of reading one request line.
pub(super) enum LineOutcome {
    /// A complete line (without the trailing newline).
    Line(String),
    /// The line exceeded the cap; the excess was drained to the next
    /// newline so the connection can continue.
    Oversized,
    /// The client closed the connection.
    Eof,
    /// Poll mode only: no complete line has arrived yet.
    Quiet,
}

/// Incremental `\n`-terminated line scanner, enforcing the byte cap without
/// ever buffering more than the cap. (`BufRead::read_line` would buffer the
/// whole oversized line first — exactly the unbounded allocation the cap
/// exists to prevent.) The partial-line state lives here, not on the stack,
/// so a mid-sweep *poll* can give up mid-line and resume gathering on the
/// next call without losing bytes.
#[derive(Default)]
pub(super) struct LineReader {
    partial: Vec<u8>,
    discarding: bool,
}

impl LineReader {
    /// Reads one line. On a socket read timeout, blocking mode re-checks
    /// the shutdown flag and keeps waiting. Poll mode runs on a
    /// non-blocking socket and returns [`LineOutcome::Quiet`] as soon as a
    /// read would block (any partial line stays gathered for the next
    /// call).
    pub(super) fn read_line(
        &mut self,
        reader: &mut impl BufRead,
        max_line_bytes: usize,
        shutdown: &AtomicBool,
        blocking: bool,
    ) -> std::io::Result<LineOutcome> {
        loop {
            let buf = match reader.fill_buf() {
                Ok(buf) => buf,
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    if shutdown.load(Ordering::SeqCst) {
                        return Ok(LineOutcome::Eof);
                    }
                    if !blocking {
                        return Ok(LineOutcome::Quiet);
                    }
                    continue;
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            };
            if buf.is_empty() {
                return Ok(if std::mem::take(&mut self.discarding) {
                    LineOutcome::Oversized
                } else if self.partial.is_empty() {
                    LineOutcome::Eof
                } else {
                    // A final unterminated line still counts as a request.
                    Self::finish_line(&mut self.partial)
                });
            }
            let newline = buf.iter().position(|&b| b == b'\n');
            let take = newline.map_or(buf.len(), |i| i + 1);
            if !self.discarding {
                let body = newline.map_or(take, |i| i);
                if self.partial.len() + body > max_line_bytes {
                    self.partial.clear();
                    self.discarding = true;
                } else {
                    self.partial.extend_from_slice(&buf[..body]);
                }
            }
            reader.consume(take);
            if newline.is_some() {
                return Ok(if std::mem::take(&mut self.discarding) {
                    LineOutcome::Oversized
                } else {
                    Self::finish_line(&mut self.partial)
                });
            }
        }
    }

    fn finish_line(partial: &mut Vec<u8>) -> LineOutcome {
        let bytes = std::mem::take(partial);
        LineOutcome::Line(String::from_utf8_lossy(&bytes).into_owned())
    }
}

/// Per-connection state: the buffered stream pair, the incremental line
/// scanner, any request lines the client pipelined while a sweep was
/// streaming (dispatched in arrival order once the sweep finishes), and the
/// count of request lines read against the connection's quota.
pub(super) struct Conn<'a> {
    pub(super) reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    lines: LineReader,
    pending: VecDeque<String>,
    accepted: usize,
    pub(super) config: &'a ServeConfig,
    pub(super) handle: &'a ServerHandle,
}

impl<'a> Conn<'a> {
    /// Wraps an accepted stream: a blocking socket with the shutdown-poll
    /// read timeout, read and written through two clones of it.
    pub(super) fn new(
        stream: TcpStream,
        config: &'a ServeConfig,
        handle: &'a ServerHandle,
    ) -> std::io::Result<Self> {
        // Reads poll so a shutdown drains even past idle clients; the
        // timeout never surfaces to the protocol (LineReader absorbs it).
        stream.set_read_timeout(Some(SHUTDOWN_POLL))?;
        Ok(Self {
            reader: BufReader::new(stream.try_clone()?),
            writer: BufWriter::new(stream),
            lines: LineReader::default(),
            pending: VecDeque::new(),
            accepted: 0,
            config,
            handle,
        })
    }

    /// Writes one response line (the protocol is strictly line-delimited).
    pub(super) fn send(&mut self, response: &Json) -> std::io::Result<()> {
        writeln!(self.writer, "{}", response.render())?;
        self.writer.flush()
    }

    /// A look at the connection that never waits, used between streamed
    /// sweep results. The socket is non-blocking only for the read: the
    /// reader and the writer are clones of one socket and share its
    /// `O_NONBLOCK` flag, and a write to a slow client while it is set
    /// would fail with `WouldBlock` and abort the sweep. So the flag is
    /// cleared again on every path before this returns.
    pub(super) fn poll_line(&mut self) -> std::io::Result<LineOutcome> {
        self.reader.get_ref().set_nonblocking(true)?;
        let outcome = self.lines.read_line(
            &mut self.reader,
            MAX_LINE_BYTES,
            &self.handle.shutdown,
            false,
        );
        self.reader.get_ref().set_nonblocking(false)?;
        outcome
    }

    /// The next request line, skipping blank ones. Every other line counts
    /// in the tier's health and against the connection's quota: an
    /// oversized one is answered with a typed error in place (the
    /// connection stays usable), and one past the quota with the typed
    /// `quota_exhausted` error, after which this reports `Eof` and the
    /// connection closes. Never returns `Oversized`; returns `Quiet` only
    /// when not `blocking` (see [`Conn::poll_line`]).
    fn next_request(
        &mut self,
        health: &HealthCounters,
        blocking: bool,
    ) -> std::io::Result<LineOutcome> {
        loop {
            let outcome = if blocking {
                let shutdown = &self.handle.shutdown;
                self.lines
                    .read_line(&mut self.reader, MAX_LINE_BYTES, shutdown, true)?
            } else {
                self.poll_line()?
            };
            let line = match outcome {
                LineOutcome::Line(line) if line.trim().is_empty() => continue,
                LineOutcome::Line(line) => Some(line),
                LineOutcome::Oversized => None,
                end => return Ok(end),
            };
            health.note_request();
            self.accepted += 1;
            let quota = self.config.max_requests_per_conn;
            if quota != 0 && self.accepted > quota {
                let id = line
                    .and_then(|line| Json::parse(&line).ok())
                    .and_then(|request| request.get("id").cloned())
                    .unwrap_or(Json::Null);
                let message =
                    format!("connection request quota of {quota} exhausted; closing connection");
                self.send(&error_line(&id, Some("quota_exhausted"), &message))?;
                return Ok(LineOutcome::Eof);
            }
            match line {
                Some(line) => return Ok(LineOutcome::Line(line)),
                None => {
                    let message =
                        format!("request line exceeds {MAX_LINE_BYTES} bytes; line skipped");
                    self.send(&error_line(&Json::Null, None, &message))?;
                }
            }
        }
    }
}

/// Whether the connection (and, on `Shutdown`, the whole server) continues
/// after a request.
pub(super) enum Flow {
    Continue,
    /// The connection is done (client vanished, or was refused past its
    /// quota, mid-stream); close without treating it as an I/O failure.
    Close,
    Shutdown,
}

/// Serves one client connection: read a request line, dispatch, repeat
/// until EOF, shutdown, or quota exhaustion.
pub(super) fn serve_connection(
    runner: &Runner,
    stream: TcpStream,
    config: &ServeConfig,
    handle: &ServerHandle,
) -> std::io::Result<()> {
    let health = runner.trace_store().tier().health();
    let mut conn = Conn::new(stream, config, handle)?;
    loop {
        // Lines pipelined during a sweep were admitted when the sweep's
        // poll read them; they go first, in arrival order.
        let line = match conn.pending.pop_front() {
            Some(line) => line,
            None => match conn.next_request(health, true)? {
                LineOutcome::Line(line) => line,
                _ => return Ok(()),
            },
        };
        match dispatch(runner, &line, &mut conn)? {
            Flow::Continue => {}
            Flow::Close => return Ok(()),
            Flow::Shutdown => {
                handle.stop();
                return Ok(());
            }
        }
    }
}

/// Why a streaming sweep stopped before its space was exhausted.
pub(super) enum SweepEnd {
    /// The client cancelled this sweep.
    Cancelled,
    /// The connection is done: the client is gone (EOF or connection
    /// error), or it sent a line past its quota and was refused.
    Closed,
    /// Writing a result line failed.
    WriteFailed(std::io::Error),
}

/// Polls the connection between streamed sweep results, without waiting:
/// consumes everything the client pipelined, counting each line against
/// the quota, handling a `cancel` that names this sweep (and answering,
/// mid-stream, cancels that name anything else), queueing other requests
/// for dispatch after the sweep, and detecting a vanished client. A line
/// past the quota is refused with the typed `quota_exhausted` error and
/// closes the connection. `None` means keep streaming.
pub(super) fn poll_control(
    conn: &mut Conn,
    health: &HealthCounters,
    sweep_id: &Json,
) -> Option<SweepEnd> {
    loop {
        // A failed read or write only means the client is already gone.
        let line = match conn.next_request(health, false) {
            Ok(LineOutcome::Line(line)) => line,
            Ok(LineOutcome::Quiet) => return None,
            _ => return Some(SweepEnd::Closed),
        };
        if let Ok(request) = Json::parse(&line) {
            if request.get("req").and_then(Json::as_str) == Some("cancel") {
                let cancel_id = request.get("id").cloned().unwrap_or(Json::Null);
                if cancel_id == *sweep_id {
                    return Some(SweepEnd::Cancelled);
                }
                // A cancel naming some other id would otherwise wait out
                // the very sweep it does not name; answer now.
                let message = "no in-flight sweep with that id on this connection";
                if conn.send(&error_line(&cancel_id, None, message)).is_err() {
                    return Some(SweepEnd::Closed);
                }
                continue;
            }
        }
        // Any other pipelined request (malformed ones included) waits its
        // turn until the sweep finishes.
        conn.pending.push_back(line);
    }
}
