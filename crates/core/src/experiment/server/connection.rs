//! One client connection: the transport seam, bounded line reads, the
//! non-blocking mid-sweep poll, the request quota, and the read–dispatch
//! loop.

use std::collections::VecDeque;
use std::io::{BufRead, BufReader, BufWriter, ErrorKind, Read, Write};
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

/// The byte source a [`Conn`] reads its client from: a reader whose waits
/// can be switched off. `TcpStream` is the one production impl.
pub(super) trait ClientRead: Read + Send {
    /// With waits off, a read that would wait fails with `WouldBlock` at
    /// once instead.
    fn set_waits(&mut self, waits: bool) -> std::io::Result<()>;
}

impl ClientRead for TcpStream {
    fn set_waits(&mut self, waits: bool) -> std::io::Result<()> {
        self.set_nonblocking(!waits)
    }
}

/// Per-connection state: the buffered reader and writer, the incremental
/// line scanner, any request lines the client pipelined while a sweep was
/// streaming (dispatched in arrival order once the sweep finishes), and the
/// count of request lines read against the connection's quota.
pub(super) struct Conn<'a> {
    reader: BufReader<Box<dyn ClientRead>>,
    writer: BufWriter<Box<dyn Write + Send>>,
    lines: LineReader,
    pending: VecDeque<String>,
    accepted: usize,
    pub(super) config: &'a ServeConfig,
    pub(super) handle: &'a ServerHandle,
}

impl<'a> Conn<'a> {
    /// A connection that reads its client from `reader` and answers
    /// through `writer`.
    pub(super) fn new(
        reader: Box<dyn ClientRead>,
        writer: Box<dyn Write + Send>,
        config: &'a ServeConfig,
        handle: &'a ServerHandle,
    ) -> Self {
        Self {
            reader: BufReader::new(reader),
            writer: BufWriter::new(writer),
            lines: LineReader::default(),
            pending: VecDeque::new(),
            accepted: 0,
            config,
            handle,
        }
    }

    /// Wraps an accepted stream: a blocking socket with the shutdown-poll
    /// read timeout, read and written through two clones of it.
    pub(super) fn tcp(
        stream: TcpStream,
        config: &'a ServeConfig,
        handle: &'a ServerHandle,
    ) -> std::io::Result<Self> {
        // Reads poll so a shutdown drains even past idle clients; the
        // timeout never surfaces to the protocol (LineReader absorbs it).
        stream.set_read_timeout(Some(SHUTDOWN_POLL))?;
        let reader = Box::new(stream.try_clone()?);
        Ok(Self::new(reader, Box::new(stream), config, handle))
    }

    /// Writes one response line (the protocol is strictly line-delimited).
    pub(super) fn send(&mut self, response: &Json) -> std::io::Result<()> {
        writeln!(self.writer, "{}", response.render())?;
        self.writer.flush()
    }

    /// A look at the connection that never waits, used between streamed
    /// sweep results. Waits are off only for the read: over TCP the reader
    /// and the writer are clones of one socket and share its `O_NONBLOCK`
    /// flag, and a write to a slow client while it is set would fail with
    /// `WouldBlock` and abort the sweep. So waits are switched back on, on
    /// every path, before this returns.
    pub(super) fn poll_line(&mut self) -> std::io::Result<LineOutcome> {
        self.reader.get_mut().set_waits(false)?;
        let outcome = self.lines.read_line(
            &mut self.reader,
            MAX_LINE_BYTES,
            &self.handle.shutdown,
            false,
        );
        self.reader.get_mut().set_waits(true)?;
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
pub(super) fn serve_connection(runner: &Runner, mut conn: Conn) -> std::io::Result<()> {
    let health = runner.trace_store().counters();
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
                conn.handle.stop();
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

#[cfg(test)]
mod tests {
    //! The stop paths, over a scripted client. The script keys everything
    //! to the number of lines the server has written: request lines are
    //! released after line k, the client hangs up after line k, the write
    //! of line k fails, or the server's shutdown flag is set after line k.
    //! Sweeps run on one worker, inline on the connection thread, so each
    //! test reaches its branch on every run.

    use std::collections::VecDeque;
    use std::io::{ErrorKind, Read, Write};
    use std::net::SocketAddr;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{Arc, Mutex};

    use super::{serve_connection, ClientRead, Conn};
    use crate::experiment::runner::{Runner, RunnerConfig};
    use crate::experiment::server::protocol::{
        cancelled_line, config_space, error_line, ok_line, parse_target, result_line,
    };
    use crate::experiment::server::{ServeConfig, ServerHandle, MAX_LINE_BYTES};
    use crate::json::Json;

    /// A scripted client.
    #[derive(Default)]
    struct Script {
        /// Request lines, each sent once the server has written its count.
        sends: VecDeque<(usize, String)>,
        /// Sent and not yet read.
        inbox: VecDeque<u8>,
        /// The client hangs up once everything is sent and the server has
        /// written this many lines; `None` never hangs up.
        hang_up: Option<usize>,
        /// This line (1-based) and every later one fail to write.
        fail_at: Option<usize>,
        /// The shutdown flag is set once the server has written this many
        /// lines.
        shut_down_at: Option<usize>,
        shutdown: Arc<AtomicBool>,
        /// Whether a read may wait (see [`ClientRead::set_waits`]).
        waits: bool,
        /// The lines the server wrote.
        lines: Vec<String>,
        /// The bytes of each failed write.
        refused: Vec<String>,
    }

    impl Script {
        /// A client that hangs up once everything it sends is read.
        fn new() -> Self {
            Self {
                hang_up: Some(0),
                waits: true,
                ..Self::default()
            }
        }

        fn send(mut self, after: usize, line: &str) -> Self {
            self.sends.push_back((after, line.to_string()));
            self
        }
    }

    /// One end of a scripted client: its reader and its writer share the
    /// script.
    struct Scripted(Arc<Mutex<Script>>);

    impl Read for Scripted {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let mut s = self.0.lock().unwrap();
            let written = s.lines.len();
            while s.sends.front().is_some_and(|(after, _)| *after <= written) {
                let (_, line) = s.sends.pop_front().unwrap();
                s.inbox.extend(line.bytes().chain([b'\n']));
            }
            if !s.inbox.is_empty() {
                let n = buf.len().min(s.inbox.len());
                for (slot, byte) in buf.iter_mut().zip(s.inbox.drain(..n)) {
                    *slot = byte;
                }
                return Ok(n);
            }
            if s.sends.is_empty() && s.hang_up.is_some_and(|after| written >= after) {
                return Ok(0);
            }
            // Only the connection thread waits, and while it waits no line
            // is written: the script would never send.
            assert!(
                !s.waits,
                "the server waits for a line the script never sends"
            );
            Err(ErrorKind::WouldBlock.into())
        }
    }

    impl ClientRead for Scripted {
        fn set_waits(&mut self, waits: bool) -> std::io::Result<()> {
            self.0.lock().unwrap().waits = waits;
            Ok(())
        }
    }

    impl Write for Scripted {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            let mut s = self.0.lock().unwrap();
            let text = String::from_utf8(buf.to_vec()).expect("the server writes UTF-8");
            if s.fail_at.is_some_and(|line| s.lines.len() + 1 >= line) {
                s.refused.push(text);
                return Err(ErrorKind::BrokenPipe.into());
            }
            // `Conn::send` flushes one whole line at a time.
            let line = text.strip_suffix('\n').expect("one whole line");
            s.lines.push(line.to_string());
            if s.shut_down_at.is_some_and(|after| s.lines.len() >= after) {
                s.shutdown.store(true, Ordering::SeqCst);
            }
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// What a scripted connection ended with.
    struct Ended {
        result: std::io::Result<()>,
        lines: Vec<String>,
        refused: Vec<String>,
    }

    /// Serves one scripted connection to its end, with sweeps on one worker
    /// and a request quota of `quota` (`0`: none).
    fn serve(runner: &Runner, quota: usize, script: Script) -> Ended {
        let config = ServeConfig {
            addr: String::new(),
            workers: 1,
            max_requests_per_conn: quota,
        };
        let handle = ServerHandle {
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            shutdown: Arc::clone(&script.shutdown),
            connections: Arc::default(),
        };
        let script = Arc::new(Mutex::new(script));
        let reader = Box::new(Scripted(Arc::clone(&script)));
        let writer = Box::new(Scripted(Arc::clone(&script)));
        let result = serve_connection(runner, Conn::new(reader, writer, &config, &handle));
        let script = std::mem::take(&mut *script.lock().unwrap());
        Ended {
            result,
            lines: script.lines,
            refused: script.refused,
        }
    }

    fn runner() -> Runner {
        Runner::new(RunnerConfig {
            warmup_instructions: 4_000,
            measure_instructions: 12_000,
            ..RunnerConfig::fast()
        })
    }

    const SWEEP: &str = r#"{"req":"sweep","id":11,"app":"ammp","org":"selective_sets"}"#;

    /// The tier's (requests, served, misses).
    fn counters(runner: &Runner) -> (u64, u64, u64) {
        let health = runner.trace_store().health();
        (health.requests, health.served, health.misses)
    }

    /// [`SWEEP`]'s result lines, in the order one worker evaluates them.
    fn sweep_results(runner: &Runner) -> Vec<String> {
        let target = parse_target(&Json::parse(SWEEP).unwrap(), "sweep").unwrap();
        let space = config_space(&target).unwrap();
        let (app, system) = (&target.app, &target.system);
        let id = Json::Num(11.0);
        space
            .points()
            .iter()
            .map(|&point| {
                let m =
                    runner.run_point(app, system, target.organization, target.side, Some(point));
                result_line(&id, Some(point), &m).render()
            })
            .collect()
    }

    #[test]
    fn cancelling_a_sweep_stops_the_cursor_and_reports_what_ran() {
        let runner = runner();
        let script = Script::new()
            .send(0, SWEEP)
            .send(1, r#"{"req":"cancel","id":999}"#)
            .send(1, r#"{"req":"cancel","id":11}"#)
            .send(1, r#"{"req":"ping","id":12}"#);
        let ended = serve(&runner, 0, script);
        ended.result.unwrap();
        // The poll before line 2 answers the cancel naming another id and
        // takes this sweep's: point 2 ran, no third point started, and the
        // connection goes on to answer the ping.
        assert_eq!(counters(&runner), (4, 2, 3));
        let unmatched = "no in-flight sweep with that id on this connection";
        assert_eq!(
            ended.lines,
            [
                sweep_results(&runner)[0].clone(),
                error_line(&Json::Num(999.0), None, unmatched).render(),
                cancelled_line(&Json::Num(11.0), 2, 5).render(),
                ok_line(&Json::Num(12.0), "pong", []).render(),
            ]
        );
    }

    #[test]
    fn client_disconnect_mid_sweep_stops_the_cursor() {
        let runner = runner();
        let mut script = Script::new().send(0, SWEEP);
        script.hang_up = Some(1);
        let ended = serve(&runner, 0, script);
        ended.result.unwrap();
        // The poll before line 2 reads the hang-up: point 2 ran but is not
        // served, and no third point started.
        assert_eq!(counters(&runner), (1, 2, 3));
        assert_eq!(ended.lines, sweep_results(&runner)[..1]);
    }

    #[test]
    fn server_shutdown_mid_sweep_starts_no_further_point() {
        let runner = runner();
        let mut script = Script::new().send(0, SWEEP);
        script.hang_up = None;
        script.shut_down_at = Some(2);
        let ended = serve(&runner, 0, script);
        ended.result.unwrap();
        // The quiet poll before line 3 sees the flag: point 3 ran, and the
        // connection closes without a done line.
        assert_eq!(counters(&runner), (1, 3, 4));
        assert_eq!(ended.lines, sweep_results(&runner)[..2]);
        for result in &ended.lines {
            let result = Json::parse(result).unwrap();
            assert!(result.get("latency").is_some(), "{result:?}");
        }
    }

    fn quota_refusal(id: f64, quota: usize) -> String {
        let message = format!("connection request quota of {quota} exhausted; closing connection");
        error_line(&Json::Num(id), Some("quota_exhausted"), &message).render()
    }

    #[test]
    fn request_quota_closes_the_connection_with_a_typed_error() {
        let runner = runner();
        let ping = |id: u64| format!(r#"{{"req":"ping","id":{id}}}"#);
        let script = (1..=4).fold(Script::new(), |script, id| script.send(0, &ping(id)));
        let ended = serve(&runner, 2, script);
        ended.result.unwrap();
        // The refused line still counts as a request; nothing after it is
        // read.
        let pong = |id: f64| ok_line(&Json::Num(id), "pong", []).render();
        assert_eq!(ended.lines, [pong(1.0), pong(2.0), quota_refusal(3.0, 2)]);
        assert_eq!(counters(&runner), (3, 0, 0));

        // A fresh connection gets a fresh quota.
        let again = serve(&runner, 2, Script::new().send(0, &ping(9)));
        assert_eq!(again.lines, [pong(9.0)]);
    }

    #[test]
    fn lines_sent_mid_sweep_count_against_the_request_quota() {
        let runner = runner();
        let mut script = Script::new().send(0, SWEEP);
        for id in 100..105 {
            script = script.send(1, &format!(r#"{{"req":"cancel","id":{id}}}"#));
        }
        let ended = serve(&runner, 2, script.send(1, r#"{"req":"ping","id":7}"#));
        ended.result.unwrap();
        // The sweep is request 1 and the first cancel request 2; the second
        // cancel is past the quota. Its refusal stops the search as a
        // hang-up does, and is the connection's last line.
        assert_eq!(counters(&runner), (3, 2, 3));
        let unmatched = "no in-flight sweep with that id on this connection";
        assert_eq!(
            ended.lines,
            [
                sweep_results(&runner)[0].clone(),
                error_line(&Json::Num(100.0), None, unmatched).render(),
                quota_refusal(101.0, 2),
            ]
        );
    }

    /// A `dynamic` run whose miss-bound (512) no interval of 256 accesses
    /// reaches: every decision downsizes, so resize lines stream before the
    /// done line.
    const DYNAMIC: &str = r#"{"req":"dynamic","id":4,"app":"gcc","interval":256,"miss_bound":512}"#;

    #[test]
    fn client_leaving_mid_dynamic_lets_the_run_finish() {
        let whole = serve(&runner(), 0, Script::new().send(0, DYNAMIC));
        whole.result.unwrap();
        let (done, resizes) = whole.lines.split_last().unwrap();
        let done = Json::parse(done).unwrap();
        assert!(resizes.len() >= 2, "{done:?}");
        assert_eq!(done.get("kind").and_then(Json::as_str), Some("done"));
        assert_eq!(
            done.get("decisions").and_then(Json::as_u64),
            Some(resizes.len() as u64)
        );

        for fail_at in [1, 2] {
            let runner = runner();
            let mut script = Script::new().send(0, DYNAMIC);
            script.fail_at = Some(fail_at);
            let ended = serve(&runner, 0, script);
            // The connection ends with the write error once the run has
            // ended; no line is offered after the failed one, and only the
            // baseline was served.
            let error = ended.result.unwrap_err();
            assert_eq!(error.kind(), ErrorKind::BrokenPipe);
            assert_eq!(ended.lines, resizes[..fail_at - 1]);
            let failed = format!("{}\n", resizes[fail_at - 1]);
            assert!(!ended.refused.is_empty());
            assert!(ended.refused.iter().all(|w| *w == failed), "{fail_at}");
            assert_eq!(counters(&runner), (1, 1, 2));

            // The next client's identical request gets the whole run.
            let next = serve(&runner, 0, Script::new().send(0, DYNAMIC));
            assert_eq!(next.lines, whole.lines);
        }
    }

    /// Refused requests, one a line: the request, the text its error
    /// contains and, where one applies, its code. Each verb takes only the
    /// target fields and its own, a tag must be a string, and a key may
    /// appear once: none is defaulted or ignored.
    const MALFORMED: &str = r#"this is not json | malformed request
{"no_req":true} | missing "req"
{"req":"frobnicate"} | unknown request
{"req":"point","id":1} | missing "app"
{"req":"point","app":"no_such_app"} | unknown application
{"req":"point","app":"ammp","sets":7,"ways":2} | not offered
{"req":"point","app":"ammp","sets":64} | both "sets" and "ways"
{"req":"sweep","app":"ammp","org":"bogus"} | unknown org
{"req":"point","id":2,"app":"ammp","sets":"64","ways":2} | must be non-negative integers
{"req":"point","id":3,"app":"ammp","sets":64,"ways":2.5} | must be non-negative integers
{"req":"point","id":4,"app":"ammp","sets":64,"ways":4294967296} | exceeds the supported maximum | out_of_range
{"req":"dynamic","id":5,"app":"ammp","interval":"fast"} | "interval" must be a non-negative integer
{"req":"dynamic","id":6,"app":"ammp","miss_bound":-1} | "miss_bound" must be a non-negative integer
{"req":"dynamic","id":7,"app":"ammp","size_bound":1.5} | "size_bound" must be a non-negative integer
{"req":"point","id":8,"app":"ammp","system":"bogus"} | unknown system
{"req":"dynamic","id":9,"app":"ammp","side":"bogus"} | unknown side
{"req":"sweep","id":"ten","app":"ammp","objective":"bogus"} | unknown field "objective"
{"req":"cancel","id":11} | no sweep in flight
{"req":"sweep","app":"ammp","sets":64} | unknown field "sets"
{"req":"point","app":"ammp","interval":9} | unknown field "interval"
{"req":"dynamic","app":"ammp","ways":2} | unknown field "ways"
{"req":"point","app":"ammp","system":5} | "system" must be a string
{"req":"sweep","app":"ammp","org":true} | "org" must be a string
{"req":"dynamic","app":"ammp","side":null} | "side" must be a
{"req":"point","app":"ammp","app":"gcc"} | duplicate field "app"
{"req":"sweep","app":"ammp","org":"x","org":"y"} | duplicate field"#;

    #[test]
    fn malformed_and_oversized_lines_get_typed_errors_and_the_connection_survives() {
        let cases: Vec<Vec<&str>> = MALFORMED
            .lines()
            .map(|l| l.split(" | ").collect())
            .collect();
        // A line past the 64 KiB cap is answered and skipped.
        let huge = format!(r#"{{"req":"point","pad":"{}"}}"#, "x".repeat(100_000));
        let script = cases
            .iter()
            .fold(Script::new(), |s, case| s.send(0, case[0]));
        let ended = serve(
            &runner(),
            0,
            script.send(0, &huge).send(0, r#"{"req":"ping","id":9}"#),
        );
        ended.result.unwrap();

        let (answers, last) = ended.lines.split_at(cases.len());
        for (case, answer) in cases.iter().zip(answers) {
            let (bad, expect, code) = (case[0], case[1], case.get(2).copied());
            let response = Json::parse(answer).unwrap();
            assert_eq!(
                response.get("ok"),
                Some(&Json::Bool(false)),
                "{bad} -> {answer}"
            );
            let error = response.get("error").and_then(Json::as_str).unwrap();
            assert!(error.contains(expect), "{bad} -> {error}");
            // The request's id is echoed; a line that is not JSON has none.
            let id = Json::parse(bad).ok().and_then(|r| r.get("id").cloned());
            assert_eq!(response.get("id"), Some(&id.unwrap_or(Json::Null)), "{bad}");
            assert_eq!(response.get("code").and_then(Json::as_str), code, "{bad}");
        }
        let oversized = format!("request line exceeds {MAX_LINE_BYTES} bytes; line skipped");
        assert_eq!(
            last,
            [
                error_line(&Json::Null, None, &oversized).render(),
                ok_line(&Json::Num(9.0), "pong", []).render(),
            ]
        );
    }
}
