//! The sweep service: a multi-threaded JSON-lines request server over the
//! shared store/memo tier — the ROADMAP's "millions of users" direction made
//! concrete.
//!
//! The [`Runner`] + [`SharedTier`](crate::experiment::SharedTier) already
//! behave like a cache tier: traces and static simulations are single-flight
//! memos shared by every clone. This module wraps them in a long-lived
//! [`TcpListener`] front end (std-only — the container builds offline, so no
//! tokio, no serde; the protocol uses the hand-rolled [`crate::json`]
//! module) so many concurrent clients share one tier:
//!
//! * every connection gets its own thread (finished threads are reaped each
//!   accept, and the live count is reported in `health`), and a `sweep`
//!   request shards its configuration space across [`effective_workers`]
//!   worker threads, streaming each point's result line back as it
//!   completes;
//! * a `dynamic` request runs the paper's miss-ratio resizing controller
//!   over the wire: every resize the controller performs streams back as a
//!   `kind:"resize"` line while the simulation runs, then a `kind:"done"`
//!   line carries the measurement;
//! * a streaming sweep is cancellable mid-flight — an interleaved
//!   `{"req":"cancel","id":...}` naming the sweep's id (or the client
//!   disconnecting) stops the shared point cursor, so workers finish only
//!   the points already in flight instead of computing the whole space.
//!   The check for such lines before each result line is a non-blocking
//!   read that never waits: a quiet client costs a streamed result one
//!   empty read, not a timer tick;
//! * identical in-flight requests — from one client or many — coalesce on
//!   the tier's single-flight memos exactly the way `TraceStore`
//!   single-flights generation: N clients asking for the same cold point run
//!   **one** simulation, observable as [`StoreHealth`] `coalesced`/`hits`
//!   (`StoreHealth::result_cache_hit_rate` is the service's headline
//!   metric). Several server *processes* can share one tier too, through
//!   the store's `RESCACHE_TRACE_DIR` entry locks;
//! * malformed, oversized or unserviceable request lines get typed error
//!   responses on the same connection — never a panic, never a silent
//!   disconnect — and a per-connection request quota
//!   ([`ServeConfig::max_requests_per_conn`]; the `serve` example takes it
//!   from `RESCACHE_SERVE_QUOTA`) caps the lines any one connection may send
//!   — those read mid-sweep included — before being closed with a typed
//!   `quota_exhausted` error.
//!
//! # Protocol
//!
//! One JSON object per line in, one or more JSON objects per line out.
//! Every response carries `"ok"` and echoes the request's `"id"` (if any);
//! typed errors carry `"error"` and, for range/quota violations, a
//! machine-readable `"code"`.
//!
//! | Request | Response lines |
//! |---|---|
//! | `{"req":"ping"}` | `{"ok":true,"kind":"pong"}` |
//! | `{"req":"health"}` | one `kind:"health"` line with the tier's [`StoreHealth`] counters plus the server's open-connection count |
//! | `{"req":"point","app":"ammp","sets":64,"ways":2}` | one `kind:"result"` line with the measurement |
//! | `{"req":"sweep","app":"ammp","org":"selective_sets"}` | one `kind:"result"` line per point *as each completes*, then a `kind:"done"` summary with the objective's best point |
//! | `{"req":"cancel","id":3}` | stops the in-flight sweep with that id on this connection; the sweep answers with a `kind:"cancelled"` line counting the points actually evaluated |
//! | `{"req":"dynamic","app":"ammp"}` | `kind:"resize"` lines streamed as the controller decides, then a `kind:"done"` line with the dynamic measurement |
//! | `{"req":"shutdown"}` | `{"ok":true,"kind":"bye"}`, then the whole server drains and exits |
//!
//! `point`, `sweep` and `dynamic` accept optional `"system"` (`"base"`
//! default, `"in_order"`), `"side"` (`"data"` default, `"instruction"`),
//! `"org"` (`"selective_sets"` default, `"selective_ways"`, `"hybrid"`) and
//! `"objective"` (`"edp"`, `"ed2p"`, `"delay"`; defaults to the runner's
//! configured objective); `point`
//! omitting `sets`/`ways` measures the full-size baseline. `dynamic`
//! additionally accepts `"interval"` (accesses; defaults to the runner's
//! `dynamic_interval`), `"miss_bound"` (defaults to the baseline's
//! per-interval miss count, as the profiling candidates derive it) and
//! `"size_bound"` (bytes, snapped to an offered capacity; defaults to the
//! smallest). Applications resolve through [`spec::profile`] first, then
//! the [`WorkloadRegistry`] scenario names. Every `kind:"result"` line
//! carries a `"latency"` block (delayed-hit counts and mean stall cycles)
//! next to the energy numbers, and a sweep's `kind:"done"` summary names
//! the objective that ranked its best point. For `dynamic`, the objective
//! also steers the controller's interval signal (a latency-first objective
//! counts delayed hits as upsizing pressure). Every simulated system uses
//! the d-cache replacement policy `RESCACHE_POLICY` names, resolved once when
//! the server binds; the policy is part of every memo key.

use std::collections::VecDeque;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

use rescache_cache::ReplacementPolicy;
use rescache_energy::Objective;
use rescache_trace::{spec, AppProfile, WorkloadRegistry};

use crate::experiment::parallel::effective_workers;
use crate::experiment::runner::{Measurement, RunSetup, Runner};
use crate::experiment::shared_tier::StoreHealth;
use crate::json::{obj, Json};
use crate::knobs::Knobs;
use crate::org::{CachePoint, ConfigSpace, Organization};
use crate::strategy::{DynamicParams, ResizeDecision};
use crate::system::{ResizableCacheSide, SystemConfig};

/// Default cap on one request line. Real requests are under 200 bytes; the
/// cap exists so a stuck or hostile client cannot make a connection thread
/// buffer unbounded memory. An oversized line is answered with a typed
/// error and skipped — the connection stays usable.
pub const DEFAULT_MAX_LINE_BYTES: usize = 64 * 1024;

/// How often an idle connection re-checks the shutdown flag. Connection
/// reads use this as their socket timeout so that [`ServerHandle::stop`]
/// drains within one interval even when clients hold connections open
/// without sending anything — a bounded shutdown, not one hostage to the
/// slowest client.
const SHUTDOWN_POLL: Duration = Duration::from_millis(100);

/// The address the sweep service binds when `RESCACHE_SERVE_ADDR` is unset.
pub const DEFAULT_ADDR: &str = "127.0.0.1:7878";

/// Configuration of one [`SweepServer`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Address to bind (`host:port`; port 0 picks an ephemeral port).
    pub addr: String,
    /// Longest request line accepted, in bytes.
    pub max_line_bytes: usize,
    /// Worker threads a single sweep request shards its points across.
    pub workers: usize,
    /// Requests one connection may make before it is closed with a typed
    /// `quota_exhausted` error; `0` means unlimited. Counts every request
    /// line the server reads (oversized ones, and cancels or pipelined
    /// requests read while a sweep streams, included), so a hostile or
    /// runaway client cannot monopolise the tier indefinitely.
    pub max_requests_per_conn: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            addr: DEFAULT_ADDR.to_string(),
            max_line_bytes: DEFAULT_MAX_LINE_BYTES,
            workers: effective_workers(),
            max_requests_per_conn: 0,
        }
    }
}

/// A handle for stopping a running [`SweepServer`] from another thread (or
/// from a connection thread serving a `shutdown` request).
#[derive(Debug, Clone)]
pub struct ServerHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    connections: Arc<AtomicUsize>,
}

impl ServerHandle {
    /// The address the server is listening on (with the ephemeral port
    /// resolved).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Number of client connections currently open (also reported on every
    /// `health` response line).
    pub fn open_connections(&self) -> usize {
        self.connections.load(Ordering::SeqCst)
    }

    /// Signals the accept loop to exit. The flag alone is not enough — the
    /// loop is blocked in `accept` — so a throwaway self-connection wakes
    /// it. Idempotent; safe from any thread.
    pub fn stop(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Failure is fine: the listener may already be gone.
        let _ = TcpStream::connect(wake_addr(self.addr));
    }
}

/// The address [`ServerHandle::stop`]'s throwaway wake-up connection dials.
/// A wildcard bind (`0.0.0.0:p` / `[::]:p`) stores the wildcard itself as
/// the local address; connecting *to* a wildcard is non-portable (it happens
/// to mean loopback on Linux, but fails elsewhere), which would leave
/// `serve()` blocked in `accept` forever — so wildcard hosts are rewritten
/// to the matching loopback, keeping the port.
fn wake_addr(addr: SocketAddr) -> SocketAddr {
    let ip = match addr.ip() {
        IpAddr::V4(ip) if ip.is_unspecified() => IpAddr::V4(Ipv4Addr::LOCALHOST),
        IpAddr::V6(ip) if ip.is_unspecified() => IpAddr::V6(Ipv6Addr::LOCALHOST),
        ip => ip,
    };
    SocketAddr::new(ip, addr.port())
}

/// The sweep service (see the module documentation).
#[derive(Debug)]
pub struct SweepServer {
    listener: TcpListener,
    runner: Runner,
    config: ServeConfig,
    policy: ReplacementPolicy,
    shutdown: Arc<AtomicBool>,
    connections: Arc<AtomicUsize>,
}

impl SweepServer {
    /// Binds the service (resolving an ephemeral port if `addr` asked for
    /// one) without accepting yet. The d-cache replacement policy of every
    /// simulated system is the `RESCACHE_POLICY` knob, resolved here once.
    ///
    /// # Errors
    ///
    /// Returns the bind error if the address is unavailable, and an
    /// [`InvalidInput`](std::io::ErrorKind::InvalidInput) error carrying the
    /// typed knob error if a runtime knob is malformed.
    pub fn bind(runner: Runner, config: ServeConfig) -> std::io::Result<Self> {
        let policy = Knobs::resolved()
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidInput, e))?
            .policy;
        let listener = TcpListener::bind(&config.addr)?;
        Ok(Self {
            listener,
            runner,
            config,
            policy,
            shutdown: Arc::new(AtomicBool::new(false)),
            connections: Arc::new(AtomicUsize::new(0)),
        })
    }

    /// The bound address (with the ephemeral port resolved).
    ///
    /// # Errors
    ///
    /// Propagates the OS error if the socket has no local address.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// A stop handle usable from any thread.
    ///
    /// # Errors
    ///
    /// Propagates the OS error if the socket has no local address.
    pub fn handle(&self) -> std::io::Result<ServerHandle> {
        Ok(ServerHandle {
            addr: self.local_addr()?,
            shutdown: Arc::clone(&self.shutdown),
            connections: Arc::clone(&self.connections),
        })
    }

    /// Runs the accept loop until [`ServerHandle::stop`] is called (or a
    /// client sends `shutdown`). Each connection is served on its own
    /// thread; threads of connections that have ended are reaped on every
    /// accept (a long-lived server must not grow a handle per client it
    /// ever served), and the loop drains the rest before returning, so a
    /// clean shutdown never drops an in-flight response mid-line.
    ///
    /// # Errors
    ///
    /// Returns an error only if obtaining the stop handle fails; accept
    /// errors on individual connections are absorbed (logged) and the loop
    /// continues.
    pub fn serve(self) -> std::io::Result<()> {
        let handle = self.handle()?;
        let mut connections: Vec<std::thread::JoinHandle<()>> = Vec::new();
        for stream in self.listener.incoming() {
            if self.shutdown.load(Ordering::SeqCst) {
                break;
            }
            // Reap finished connection threads (joining a finished thread
            // cannot block) so the handle list tracks live connections, not
            // the server's whole accept history.
            connections = connections
                .into_iter()
                .filter_map(|connection| {
                    if connection.is_finished() {
                        let _ = connection.join();
                        None
                    } else {
                        Some(connection)
                    }
                })
                .collect();
            match stream {
                Ok(stream) => {
                    let runner = self.runner.clone();
                    let config = self.config.clone();
                    let policy = self.policy;
                    let handle = handle.clone();
                    // Counted up front (not in the thread) so the gauge
                    // never under-reports a connection that was accepted
                    // but whose thread has not scheduled yet.
                    self.connections.fetch_add(1, Ordering::SeqCst);
                    let gauge = Arc::clone(&self.connections);
                    connections.push(std::thread::spawn(move || {
                        // Decremented on every exit path (panic included) so
                        // the health gauge cannot drift upward over a
                        // long-lived server's life.
                        struct Open(Arc<AtomicUsize>);
                        impl Drop for Open {
                            fn drop(&mut self) {
                                self.0.fetch_sub(1, Ordering::SeqCst);
                            }
                        }
                        let _open = Open(gauge);
                        if let Err(e) = serve_connection(&runner, stream, &config, policy, &handle)
                        {
                            // A vanished client is normal server life, not a
                            // server failure.
                            eprintln!("rescache-serve: connection ended: {e}");
                        }
                    }));
                }
                Err(e) => eprintln!("rescache-serve: accept failed: {e}"),
            }
        }
        for connection in connections {
            let _ = connection.join();
        }
        Ok(())
    }

    /// Convenience: serve on a background thread, returning the stop handle
    /// and the join handle.
    ///
    /// # Errors
    ///
    /// Propagates the OS error if the socket has no local address.
    pub fn spawn(self) -> std::io::Result<(ServerHandle, std::thread::JoinHandle<()>)> {
        let handle = self.handle()?;
        let join = std::thread::spawn(move || {
            if let Err(e) = self.serve() {
                eprintln!("rescache-serve: server exited with error: {e}");
            }
        });
        Ok((handle, join))
    }
}

/// Outcome of reading one request line.
enum LineOutcome {
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
struct LineReader {
    partial: Vec<u8>,
    discarding: bool,
}

impl LineReader {
    /// Reads one line. On a socket read timeout, blocking mode re-checks
    /// the shutdown flag and keeps waiting. Poll mode runs on a
    /// non-blocking socket and returns [`LineOutcome::Quiet`] as soon as a
    /// read would block (any partial line stays gathered for the next
    /// call).
    fn read_line(
        &mut self,
        reader: &mut impl BufRead,
        max_line_bytes: usize,
        shutdown: &AtomicBool,
        blocking: bool,
    ) -> std::io::Result<LineOutcome> {
        loop {
            let buf = match reader.fill_buf() {
                Ok(buf) => buf,
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    if shutdown.load(Ordering::SeqCst) {
                        return Ok(LineOutcome::Eof);
                    }
                    if !blocking {
                        return Ok(LineOutcome::Quiet);
                    }
                    continue;
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
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
struct Conn<'a> {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    lines: LineReader,
    pending: VecDeque<String>,
    accepted: usize,
    config: &'a ServeConfig,
    policy: ReplacementPolicy,
    handle: &'a ServerHandle,
}

impl<'a> Conn<'a> {
    /// Wraps an accepted stream: a blocking socket with the shutdown-poll
    /// read timeout, read and written through two clones of it.
    fn new(
        stream: TcpStream,
        config: &'a ServeConfig,
        policy: ReplacementPolicy,
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
            policy,
            handle,
        })
    }

    /// A blocking read of the next request line from the socket.
    fn read_request(&mut self) -> std::io::Result<LineOutcome> {
        self.lines.read_line(
            &mut self.reader,
            self.config.max_line_bytes,
            &self.handle.shutdown,
            true,
        )
    }

    /// A look at the connection that never waits, used between streamed
    /// sweep results. The socket is non-blocking only for the read: the
    /// reader and the writer are clones of one socket and share its
    /// `O_NONBLOCK` flag, and a write to a slow client while it is set
    /// would fail with `WouldBlock` and abort the sweep. So the flag is
    /// cleared again on every path before this returns.
    fn poll_line(&mut self) -> std::io::Result<LineOutcome> {
        self.reader.get_ref().set_nonblocking(true)?;
        let outcome = self.lines.read_line(
            &mut self.reader,
            self.config.max_line_bytes,
            &self.handle.shutdown,
            false,
        );
        self.reader.get_ref().set_nonblocking(false)?;
        outcome
    }

    /// Counts one request line the server read, in the tier's health and
    /// against the connection's quota; `false` once the quota is exhausted.
    fn admit(&mut self, runner: &Runner) -> bool {
        runner.trace_store().tier().health().note_request();
        self.accepted += 1;
        let quota = self.config.max_requests_per_conn;
        quota == 0 || self.accepted <= quota
    }

    /// Answers a line past the quota with the typed `quota_exhausted`
    /// error; the connection closes after it.
    fn refuse(&mut self, line: Option<&str>) -> std::io::Result<()> {
        let id = line
            .and_then(|line| Json::parse(line).ok())
            .and_then(|request| request.get("id").cloned())
            .unwrap_or(Json::Null);
        let quota = self.config.max_requests_per_conn;
        write_line(&mut self.writer, &quota_response(id, quota))
    }

    /// Answers an oversized line with a typed error; the connection stays
    /// usable.
    fn reject_oversized(&mut self) -> std::io::Result<()> {
        let message = format!(
            "request line exceeds {} bytes; line skipped",
            self.config.max_line_bytes
        );
        write_line(&mut self.writer, &error_response(Json::Null, &message))
    }
}

/// Serves one client connection: read a request line, dispatch, repeat
/// until EOF, shutdown, or quota exhaustion.
fn serve_connection(
    runner: &Runner,
    stream: TcpStream,
    config: &ServeConfig,
    policy: ReplacementPolicy,
    handle: &ServerHandle,
) -> std::io::Result<()> {
    let mut conn = Conn::new(stream, config, policy, handle)?;
    loop {
        // Lines pipelined during a sweep were admitted when the sweep's
        // poll read them; they go first, in arrival order.
        let line = match conn.pending.pop_front() {
            Some(line) => line,
            None => match conn.read_request()? {
                LineOutcome::Eof | LineOutcome::Quiet => return Ok(()),
                LineOutcome::Oversized => {
                    if !conn.admit(runner) {
                        return conn.refuse(None);
                    }
                    conn.reject_oversized()?;
                    continue;
                }
                LineOutcome::Line(line) if line.trim().is_empty() => continue,
                LineOutcome::Line(line) => {
                    if !conn.admit(runner) {
                        return conn.refuse(Some(&line));
                    }
                    line
                }
            },
        };
        match dispatch(runner, &line, &mut conn)? {
            Flow::Continue => {}
            Flow::Close => {
                conn.writer.flush()?;
                return Ok(());
            }
            Flow::Shutdown => {
                conn.writer.flush()?;
                handle.stop();
                return Ok(());
            }
        }
    }
}

/// Whether the connection (and, on `Shutdown`, the whole server) continues
/// after a request.
enum Flow {
    Continue,
    /// The connection is done (client vanished, or was refused past its
    /// quota, mid-stream); close without treating it as an I/O failure.
    Close,
    Shutdown,
}

/// Parses and executes one request line, writing the response line(s).
fn dispatch(runner: &Runner, line: &str, conn: &mut Conn) -> std::io::Result<Flow> {
    let request = match Json::parse(line) {
        Ok(v) => v,
        Err(e) => {
            write_line(
                &mut conn.writer,
                &error_response(Json::Null, &format!("malformed request: {e}")),
            )?;
            return Ok(Flow::Continue);
        }
    };
    let id = request.get("id").cloned().unwrap_or(Json::Null);
    let verb = request.get("req").and_then(Json::as_str).unwrap_or("");
    match verb {
        "ping" => {
            write_line(
                &mut conn.writer,
                &obj([
                    ("id", id),
                    ("ok", Json::Bool(true)),
                    ("kind", Json::Str("pong".into())),
                ]),
            )?;
            Ok(Flow::Continue)
        }
        "health" => {
            let health = runner.trace_store().tier().health_snapshot();
            let open = conn.handle.open_connections();
            write_line(&mut conn.writer, &health_response(id, &health, open))?;
            Ok(Flow::Continue)
        }
        "shutdown" => {
            write_line(
                &mut conn.writer,
                &obj([
                    ("id", id),
                    ("ok", Json::Bool(true)),
                    ("kind", Json::Str("bye".into())),
                ]),
            )?;
            Ok(Flow::Shutdown)
        }
        "point" => {
            match parse_target(&request, runner.config().objective, conn.policy) {
                Ok(target) => serve_point(runner, &request, id, &target, &mut conn.writer)?,
                Err(e) => write_line(&mut conn.writer, &error_response(id, &e))?,
            }
            Ok(Flow::Continue)
        }
        "sweep" => match parse_target(&request, runner.config().objective, conn.policy) {
            Ok(target) => serve_sweep(runner, id, &target, conn),
            Err(e) => {
                write_line(&mut conn.writer, &error_response(id, &e))?;
                Ok(Flow::Continue)
            }
        },
        "dynamic" => {
            match parse_target(&request, runner.config().objective, conn.policy) {
                Ok(target) => serve_dynamic(runner, &request, id, &target, conn)?,
                Err(e) => write_line(&mut conn.writer, &error_response(id, &e))?,
            }
            Ok(Flow::Continue)
        }
        "cancel" => {
            // A matching cancel is consumed *inside* serve_sweep's poll
            // loop; reaching dispatch means nothing is in flight here.
            write_line(
                &mut conn.writer,
                &error_response(id, "no sweep in flight to cancel on this connection"),
            )?;
            Ok(Flow::Continue)
        }
        "" => {
            write_line(
                &mut conn.writer,
                &error_response(id, "missing \"req\" field (string)"),
            )?;
            Ok(Flow::Continue)
        }
        other => {
            write_line(
                &mut conn.writer,
                &error_response(
                    id,
                    &format!(
                        "unknown request {other:?} (want ping, health, point, sweep, \
                         dynamic, cancel or shutdown)"
                    ),
                ),
            )?;
            Ok(Flow::Continue)
        }
    }
}

/// The (application, system, organization, side) every simulation request
/// names, with protocol defaults applied.
struct Target {
    app: AppProfile,
    system: SystemConfig,
    organization: Organization,
    side: ResizableCacheSide,
    objective: Objective,
}

/// Resolves a request's simulation target, with a protocol-level error
/// string on anything unresolvable. `default_objective` is the runner's
/// configured objective; a request's `"objective"` field overrides it for
/// that request only. `policy` is the server's d-cache replacement policy;
/// it lands in the hierarchy config and so in every memo key.
fn parse_target(
    request: &Json,
    default_objective: Objective,
    policy: ReplacementPolicy,
) -> Result<Target, String> {
    let name = request
        .get("app")
        .and_then(Json::as_str)
        .ok_or("missing \"app\" field (string)")?;
    let app = spec::profile(name)
        .or_else(|| WorkloadRegistry::builtin().get(name).map(|w| w.profile()))
        .ok_or_else(|| format!("unknown application {name:?}"))?;
    let mut system = match request.get("system").and_then(Json::as_str) {
        None | Some("base") => SystemConfig::base(),
        Some("in_order") => SystemConfig::in_order(),
        Some(other) => return Err(format!("unknown system {other:?} (want base or in_order)")),
    };
    system.hierarchy.l1d_policy = policy;
    let organization = match request.get("org").and_then(Json::as_str) {
        None | Some("selective_sets") => Organization::SelectiveSets,
        Some("selective_ways") => Organization::SelectiveWays,
        Some("hybrid") => Organization::Hybrid,
        Some(other) => {
            return Err(format!(
                "unknown org {other:?} (want selective_sets, selective_ways or hybrid)"
            ))
        }
    };
    let side = match request.get("side").and_then(Json::as_str) {
        None | Some("data") => ResizableCacheSide::Data,
        Some("instruction") => ResizableCacheSide::Instruction,
        Some(other) => return Err(format!("unknown side {other:?} (want data or instruction)")),
    };
    let objective = match request.get("objective").and_then(Json::as_str) {
        None => default_objective,
        Some(tag) => Objective::from_tag(tag)
            .ok_or_else(|| format!("unknown objective {tag:?} (want edp, ed2p or delay)"))?,
    };
    Ok(Target {
        app,
        system,
        organization,
        side,
        objective,
    })
}

/// Runs one target point through the memoized runner. The point is already
/// validated against the organization's configuration space, so this cannot
/// fail.
fn run_point(runner: &Runner, target: &Target, point: Option<CachePoint>) -> Measurement {
    runner.run_point(
        &target.app,
        &target.system,
        target.organization,
        target.side,
        point,
    )
}

/// Serves a `point` request: one simulation (baseline when `sets`/`ways`
/// are omitted), one `kind:"result"` line.
fn serve_point(
    runner: &Runner,
    request: &Json,
    id: Json,
    target: &Target,
    writer: &mut impl Write,
) -> std::io::Result<()> {
    let point = match (request.get("sets"), request.get("ways")) {
        (None, None) => None,
        (Some(sets), Some(ways)) => {
            let (Some(sets), Some(ways)) = (sets.as_u64(), ways.as_u64()) else {
                return write_line(
                    writer,
                    &error_response(id, "\"sets\" and \"ways\" must be non-negative integers"),
                );
            };
            // An out-of-range associativity used to be clamped to u32::MAX
            // and then rejected as "not offered" — misleading; report the
            // real problem with a typed range error instead.
            let Ok(ways) = u32::try_from(ways) else {
                return write_line(
                    writer,
                    &error_response_coded(
                        id,
                        "out_of_range",
                        &format!("\"ways\" {ways} exceeds the supported maximum {}", u32::MAX),
                    ),
                );
            };
            let point = CachePoint { sets, ways };
            // Validating against the organization's space turns a geometry
            // the engines cannot run (non-power-of-two sets, zero ways)
            // into a typed protocol error instead of an engine panic.
            let space = match config_space(target) {
                Ok(space) => space,
                Err(e) => return write_line(writer, &error_response(id, &e)),
            };
            if !space.points().contains(&point) {
                return write_line(
                    writer,
                    &error_response(
                        id,
                        &format!(
                            "point {}x{} is not offered by {:?} on this cache",
                            point.sets, point.ways, target.organization
                        ),
                    ),
                );
            }
            Some(point)
        }
        _ => {
            return write_line(
                writer,
                &error_response(id, "give both \"sets\" and \"ways\", or neither"),
            )
        }
    };
    let measurement = run_point(runner, target, point);
    runner.trace_store().tier().health().note_served();
    write_line(writer, &result_response(id, point, &measurement))
}

/// What a mid-sweep poll of the connection found.
enum Control {
    /// Nothing new; keep streaming.
    Quiet,
    /// The client cancelled this sweep.
    Cancel,
    /// The connection is done: the client is gone (EOF or connection
    /// error), or it sent a line past its quota and was refused.
    Close,
}

/// Polls the connection between streamed sweep results, without waiting:
/// consumes everything the client pipelined, counting each line against
/// the quota, handling a `cancel` that names this sweep (and answering,
/// mid-stream, cancels that name anything else), queueing other requests
/// for dispatch after the sweep, and detecting a vanished client. A line
/// past the quota is refused with the typed `quota_exhausted` error and
/// closes the connection.
fn poll_control(runner: &Runner, conn: &mut Conn, sweep_id: &Json) -> Control {
    loop {
        let line = match conn.poll_line() {
            Ok(LineOutcome::Quiet) => return Control::Quiet,
            Ok(LineOutcome::Eof) | Err(_) => return Control::Close,
            Ok(LineOutcome::Oversized) => None,
            Ok(LineOutcome::Line(line)) if line.trim().is_empty() => continue,
            Ok(LineOutcome::Line(line)) => Some(line),
        };
        if !conn.admit(runner) {
            // Refused or not, the connection closes; a failed write only
            // means the client is already gone.
            let _ = conn.refuse(line.as_deref());
            return Control::Close;
        }
        let Some(line) = line else {
            if conn.reject_oversized().is_err() {
                return Control::Close;
            }
            continue;
        };
        if let Ok(request) = Json::parse(&line) {
            if request.get("req").and_then(Json::as_str) == Some("cancel") {
                let cancel_id = request.get("id").cloned().unwrap_or(Json::Null);
                if cancel_id == *sweep_id {
                    return Control::Cancel;
                }
                // A cancel naming some other id would otherwise wait out
                // the very sweep it does not name; answer now.
                let unmatched = error_response(
                    cancel_id,
                    "no in-flight sweep with that id on this connection",
                );
                if write_line(&mut conn.writer, &unmatched).is_err() {
                    return Control::Close;
                }
                continue;
            }
        }
        // Any other pipelined request (malformed ones included) waits its
        // turn until the sweep finishes.
        conn.pending.push_back(line);
    }
}

/// Serves a `sweep` request: shards the organization's points across worker
/// threads sharing one atomic cursor, streams each `kind:"result"` line as
/// its simulation completes (coalescing with every concurrent request
/// through the tier memos), then writes the `kind:"done"` summary with the
/// best point under the request's objective (EDP by default).
///
/// Before each result line the connection is polled without waiting (see
/// [`Conn::poll_line`]): a `cancel` naming this sweep's id stops the shared
/// cursor, so the workers finish only the points already in flight and the
/// sweep answers with a `kind:"cancelled"` line counting what was
/// evaluated. The client disconnecting, or sending a line past its quota,
/// stops the cursor the same way and closes the connection.
fn serve_sweep(
    runner: &Runner,
    id: Json,
    target: &Target,
    conn: &mut Conn,
) -> std::io::Result<Flow> {
    let space = match config_space(target) {
        Ok(space) => space,
        Err(e) => {
            write_line(&mut conn.writer, &error_response(id, &e))?;
            return Ok(Flow::Continue);
        }
    };
    let points = space.points();
    let base = run_point(runner, target, None);
    runner.trace_store().tier().health().note_served();

    let (tx, rx) = mpsc::channel::<(CachePoint, Measurement)>();
    let cursor = AtomicUsize::new(0);
    let mut evaluated: Vec<(CachePoint, Measurement)> = Vec::with_capacity(points.len());
    let mut write_error = None;
    let mut cancelled = false;
    let mut closed = false;
    std::thread::scope(|scope| {
        let cursor = &cursor;
        for _ in 0..conn.config.workers.clamp(1, points.len().max(1)) {
            let tx = tx.clone();
            scope.spawn(move || loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(point) = points.get(i) else { break };
                let measurement = run_point(runner, target, Some(*point));
                if tx.send((*point, measurement)).is_err() {
                    break;
                }
            });
        }
        drop(tx);
        // Parking the cursor at the end of the space stops all future
        // claims; workers finish only their in-flight point.
        let stop_cursor = || cursor.store(points.len(), Ordering::Relaxed);
        // Stream results in completion order; the done line carries the
        // summary, so clients needing sweep order key on (sets, ways).
        loop {
            let result = match rx.recv_timeout(SHUTDOWN_POLL) {
                Ok(result) => Some(result),
                Err(mpsc::RecvTimeoutError::Timeout) => None,
                Err(mpsc::RecvTimeoutError::Disconnected) => break,
            };
            let streaming = |w: &Option<std::io::Error>, c: bool, d: bool| w.is_none() && !c && !d;
            if streaming(&write_error, cancelled, closed) {
                // A cancel racing a result must win: check the connection
                // before writing the line.
                match poll_control(runner, conn, &id) {
                    Control::Quiet => {}
                    Control::Cancel => {
                        cancelled = true;
                        stop_cursor();
                    }
                    Control::Close => {
                        closed = true;
                        stop_cursor();
                    }
                }
            }
            let Some((point, measurement)) = result else {
                // A server shutdown mid-sweep also stops claiming new
                // points (the done line reports what was evaluated).
                if conn.handle.shutdown.load(Ordering::SeqCst) {
                    stop_cursor();
                }
                continue;
            };
            evaluated.push((point, measurement));
            if streaming(&write_error, cancelled, closed) {
                runner.trace_store().tier().health().note_served();
                if let Err(e) = write_line(
                    &mut conn.writer,
                    &result_response(id.clone(), Some(point), &measurement),
                ) {
                    write_error = Some(e);
                    stop_cursor();
                }
            }
        }
    });
    if let Some(e) = write_error {
        return Err(e);
    }
    if closed {
        // The client is gone or was refused; the in-flight results already
        // drained into the shared tier for the next client.
        return Ok(Flow::Close);
    }
    if cancelled {
        write_line(
            &mut conn.writer,
            &obj([
                ("id", id),
                ("ok", Json::Bool(true)),
                ("kind", Json::Str("cancelled".into())),
                ("points", Json::Num(evaluated.len() as f64)),
                ("space_points", Json::Num(points.len() as f64)),
            ]),
        )?;
        return Ok(Flow::Continue);
    }

    let base_ed = base.energy_delay();
    let objective = target.objective;
    let best = evaluated
        .iter()
        .min_by(|a, b| a.1.score(objective).total_cmp(&b.1.score(objective)))
        .copied();
    let Some((best_point, best_measurement)) = best else {
        write_line(
            &mut conn.writer,
            &error_response(id, "configuration space was empty"),
        )?;
        return Ok(Flow::Continue);
    };
    write_line(
        &mut conn.writer,
        &obj([
            ("id", id),
            ("ok", Json::Bool(true)),
            ("kind", Json::Str("done".into())),
            ("points", Json::Num(evaluated.len() as f64)),
            ("objective", Json::Str(objective.tag().into())),
            (
                "best",
                obj([
                    ("sets", Json::Num(best_point.sets as f64)),
                    ("ways", Json::Num(f64::from(best_point.ways))),
                ]),
            ),
            ("best_score", Json::Num(best_measurement.score(objective))),
            (
                "edp_reduction_percent",
                Json::Num(best_measurement.energy_delay().reduction_vs(&base_ed)),
            ),
        ]),
    )?;
    Ok(Flow::Continue)
}

/// Serves a `dynamic` request: runs the miss-ratio resizing controller for
/// the target (parameters from the request, with profiling-style defaults),
/// streaming every resize decision back as a `kind:"resize"` line while the
/// simulation runs, then a `kind:"done"` line with the measurement.
///
/// Dynamic runs are not memoized (the controller's trajectory is the whole
/// point), so every `dynamic` request simulates; only the *trace* is shared
/// through the tier. If a store fault forces the streamed source to retry,
/// the retried attempt streams from a fresh controller into the same
/// connection. The two counters in the `done` line differ on purpose:
/// `decisions` counts every line streamed over the whole run (warm-up
/// included, retries included), while `resizes` is the measurement's
/// measured-region count — a run that settles at its size floor during
/// warm-up streams decisions but reports zero measured resizes, exactly as
/// the in-process [`Runner::run_dynamic`] would.
fn serve_dynamic(
    runner: &Runner,
    request: &Json,
    id: Json,
    target: &Target,
    conn: &mut Conn,
) -> std::io::Result<()> {
    let space = match config_space(target) {
        Ok(space) => space,
        Err(e) => return write_line(&mut conn.writer, &error_response(id, &e)),
    };
    let interval = match request.get("interval") {
        None => runner.config().dynamic_interval,
        Some(v) => match v.as_u64() {
            Some(n) => n,
            None => {
                return write_line(
                    &mut conn.writer,
                    &error_response(id, "\"interval\" must be a non-negative integer"),
                )
            }
        },
    };
    // The full-size baseline anchors the default miss-bound (the profiling
    // derivation: expected misses per interval at full size) and the done
    // line's EDP reduction.
    let base = run_point(runner, target, None);
    runner.trace_store().tier().health().note_served();
    let base_miss_ratio = match target.side {
        ResizableCacheSide::Data => base.l1d_miss_ratio,
        ResizableCacheSide::Instruction => base.l1i_miss_ratio,
    };
    let miss_bound = match request.get("miss_bound") {
        Some(v) => match v.as_u64() {
            Some(n) => n,
            None => {
                return write_line(
                    &mut conn.writer,
                    &error_response(id, "\"miss_bound\" must be a non-negative integer"),
                )
            }
        },
        None => DynamicParams::interval_misses(interval, base_miss_ratio).max(1.0) as u64,
    };
    let size_bound = match request.get("size_bound") {
        Some(v) => match v.as_u64() {
            Some(n) => n,
            None => {
                return write_line(
                    &mut conn.writer,
                    &error_response(id, "\"size_bound\" must be a non-negative integer"),
                )
            }
        },
        None => space.min_bytes(),
    };
    // Snap to an offered capacity, exactly as the profiling candidates do:
    // an in-between bound rounds up, an over-full bound clamps to full.
    let size_bound = space.snap_size_bound(size_bound);
    let params = match DynamicParams::new(interval, miss_bound, size_bound) {
        Ok(params) => params,
        Err(e) => {
            return write_line(
                &mut conn.writer,
                &error_response_coded(id, "out_of_range", &e.to_string()),
            )
        }
    };
    let tag_bits = target
        .organization
        .tag_bits(&target.side.config_of(&target.system.hierarchy));
    let mut setup = RunSetup {
        dynamic: Some((target.side, space, params)),
        ..RunSetup::default()
    };
    match target.side {
        ResizableCacheSide::Data => setup.d_tag_bits = tag_bits,
        ResizableCacheSide::Instruction => setup.i_tag_bits = tag_bits,
    }
    // The controller steers by the runner's configured objective; a
    // per-request objective therefore runs through a runner clone over the
    // *same* store (traces still shared, health still aggregated).
    let observer = if target.objective == runner.config().objective {
        runner.clone()
    } else {
        Runner::with_store(
            runner.config().with_objective(target.objective),
            runner.trace_store().clone(),
        )
    };

    let (tx, rx) = mpsc::channel::<ResizeDecision>();
    let mut decisions = 0u64;
    let mut write_error: Option<std::io::Error> = None;
    let outcome = std::thread::scope(|scope| {
        let observer = &observer;
        let setup = &setup;
        let sim = scope.spawn(move || {
            // `tx` moves in and drops when the run completes, which is what
            // ends the drain loop below.
            observer.run_dynamic_observed(&target.app, &target.system, setup, Some(&tx))
        });
        for decision in &rx {
            if write_error.is_some() {
                // The client is gone mid-stream; the simulation cannot be
                // aborted (it owns no cancellation point), so drain quietly
                // and let the run finish into the shared trace state.
                continue;
            }
            decisions += 1;
            let line = obj([
                ("id", id.clone()),
                ("ok", Json::Bool(true)),
                ("kind", Json::Str("resize".into())),
                ("accesses", Json::Num(decision.accesses as f64)),
                (
                    "interval_signal",
                    Json::Num(decision.interval_signal as f64),
                ),
                ("miss_bound", Json::Num(decision.miss_bound as f64)),
                (
                    "from",
                    obj([
                        ("sets", Json::Num(decision.from.sets as f64)),
                        ("ways", Json::Num(f64::from(decision.from.ways))),
                    ]),
                ),
                (
                    "to",
                    obj([
                        ("sets", Json::Num(decision.to.sets as f64)),
                        ("ways", Json::Num(f64::from(decision.to.ways))),
                    ]),
                ),
            ]);
            if let Err(e) = write_line(&mut conn.writer, &line) {
                write_error = Some(e);
            }
        }
        sim.join()
    });
    let Ok(measurement) = outcome else {
        // The simulation thread panicked — a bug, not a protocol error; the
        // connection survives to report it.
        return write_line(
            &mut conn.writer,
            &error_response(id, "internal error: dynamic run failed"),
        );
    };
    if let Some(e) = write_error {
        return Err(e);
    }
    runner.trace_store().tier().health().note_served();
    let (resizes, mean_bytes) = match target.side {
        ResizableCacheSide::Data => (measurement.l1d_resizes, measurement.l1d_mean_bytes),
        ResizableCacheSide::Instruction => (measurement.l1i_resizes, measurement.l1i_mean_bytes),
    };
    write_line(
        &mut conn.writer,
        &obj([
            ("id", id),
            ("ok", Json::Bool(true)),
            ("kind", Json::Str("done".into())),
            ("objective", Json::Str(target.objective.tag().into())),
            ("resizes", Json::Num(resizes as f64)),
            ("decisions", Json::Num(decisions as f64)),
            ("cycles", Json::Num(measurement.cycles as f64)),
            ("ipc", Json::Num(measurement.ipc)),
            ("energy_pj", Json::Num(measurement.energy_pj)),
            ("edp", Json::Num(measurement.energy_delay().product())),
            ("score", Json::Num(measurement.score(target.objective))),
            ("mean_bytes", Json::Num(mean_bytes)),
            (
                "edp_reduction_percent",
                Json::Num(
                    measurement
                        .energy_delay()
                        .reduction_vs(&base.energy_delay()),
                ),
            ),
            (
                "params",
                obj([
                    ("interval", Json::Num(params.interval_accesses as f64)),
                    ("miss_bound", Json::Num(params.miss_bound as f64)),
                    ("size_bound", Json::Num(params.size_bound_bytes as f64)),
                ]),
            ),
            ("latency", latency_block(&measurement)),
        ]),
    )
}

/// The configuration space the target's organization offers on its side's
/// cache, as a protocol error when inapplicable (e.g. selective-ways on a
/// direct-mapped cache).
fn config_space(target: &Target) -> Result<ConfigSpace, String> {
    ConfigSpace::enumerate(
        target.side.config_of(&target.system.hierarchy),
        target.organization,
    )
    .map_err(|e| format!("cannot enumerate configuration space: {e}"))
}

/// A measurement's latency-domain counters as a response sub-object.
fn latency_block(m: &Measurement) -> Json {
    obj([
        ("delayed_hits", Json::Num(m.latency.delayed_hits as f64)),
        (
            "delayed_hit_cycles",
            Json::Num(m.latency.delayed_hit_cycles as f64),
        ),
        (
            "mean_delayed_hit_cycles",
            Json::Num(m.latency.mean_delayed_hit_cycles()),
        ),
        (
            "d_primary_misses",
            Json::Num(m.latency.d_primary_misses as f64),
        ),
        ("d_miss_cycles", Json::Num(m.latency.d_miss_cycles as f64)),
        ("mean_miss_cycles", Json::Num(m.latency.mean_miss_cycles())),
    ])
}

/// One measurement as a `kind:"result"` response line.
fn result_response(id: Json, point: Option<CachePoint>, m: &Measurement) -> Json {
    let point_json = match point {
        Some(p) => obj([
            ("sets", Json::Num(p.sets as f64)),
            ("ways", Json::Num(f64::from(p.ways))),
        ]),
        None => Json::Str("full".into()),
    };
    obj([
        ("id", id),
        ("ok", Json::Bool(true)),
        ("kind", Json::Str("result".into())),
        ("point", point_json),
        ("cycles", Json::Num(m.cycles as f64)),
        ("ipc", Json::Num(m.ipc)),
        ("energy_pj", Json::Num(m.energy_pj)),
        ("edp", Json::Num(m.energy_delay().product())),
        ("l1d_miss_ratio", Json::Num(m.l1d_miss_ratio)),
        ("l1i_miss_ratio", Json::Num(m.l1i_miss_ratio)),
        ("latency", latency_block(m)),
    ])
}

/// The tier's [`StoreHealth`] (plus the server's live connection gauge) as a
/// `kind:"health"` response line.
fn health_response(id: Json, health: &StoreHealth, open_connections: usize) -> Json {
    obj([
        ("id", id),
        ("ok", Json::Bool(true)),
        ("kind", Json::Str("health".into())),
        ("connections", Json::Num(open_connections as f64)),
        ("hits", Json::Num(health.hits as f64)),
        ("misses", Json::Num(health.misses as f64)),
        ("coalesced", Json::Num(health.coalesced as f64)),
        ("requests", Json::Num(health.requests as f64)),
        ("served", Json::Num(health.served as f64)),
        ("evictions", Json::Num(health.evictions as f64)),
        ("regenerations", Json::Num(health.regenerations as f64)),
        ("retries", Json::Num(health.retries as f64)),
        ("quarantines", Json::Num(health.quarantines as f64)),
        ("lock_steals", Json::Num(health.lock_steals as f64)),
        ("warnings", Json::Num(health.warnings as f64)),
        ("degraded", Json::Bool(health.degraded)),
        (
            "result_cache_hit_rate",
            health.result_cache_hit_rate().map_or(Json::Null, Json::Num),
        ),
    ])
}

/// A typed `ok:false` response line.
fn error_response(id: Json, message: &str) -> Json {
    obj([
        ("id", id),
        ("ok", Json::Bool(false)),
        ("error", Json::Str(message.to_string())),
    ])
}

/// A typed `ok:false` response line with a machine-readable `"code"`
/// (`"out_of_range"`, `"quota_exhausted"`).
fn error_response_coded(id: Json, code: &str, message: &str) -> Json {
    obj([
        ("id", id),
        ("ok", Json::Bool(false)),
        ("code", Json::Str(code.to_string())),
        ("error", Json::Str(message.to_string())),
    ])
}

/// The `quota_exhausted` response a connection gets right before it closes.
fn quota_response(id: Json, quota: usize) -> Json {
    error_response_coded(
        id,
        "quota_exhausted",
        &format!("connection request quota of {quota} exhausted; closing connection"),
    )
}

/// Writes one response line (the protocol is strictly line-delimited).
fn write_line(writer: &mut impl Write, response: &Json) -> std::io::Result<()> {
    writeln!(writer, "{}", response.render())?;
    writer.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn read_request_line(
        reader: &mut impl BufRead,
        max_line_bytes: usize,
        shutdown: &AtomicBool,
    ) -> std::io::Result<LineOutcome> {
        LineReader::default().read_line(reader, max_line_bytes, shutdown, true)
    }

    #[test]
    fn read_request_line_splits_caps_and_recovers() {
        let live = AtomicBool::new(false);
        let input = b"{\"req\":\"ping\"}\nshort\n".to_vec();
        let mut reader = std::io::BufReader::new(std::io::Cursor::new(input));
        let LineOutcome::Line(first) = read_request_line(&mut reader, 64, &live).unwrap() else {
            panic!("first line");
        };
        assert_eq!(first, "{\"req\":\"ping\"}");
        let LineOutcome::Line(second) = read_request_line(&mut reader, 64, &live).unwrap() else {
            panic!("second line");
        };
        assert_eq!(second, "short");
        assert!(matches!(
            read_request_line(&mut reader, 64, &live).unwrap(),
            LineOutcome::Eof
        ));

        // An oversized line is reported and fully drained, leaving the next
        // line intact — and the reader never buffers more than the cap.
        let huge = format!("{}\nnext\n", "x".repeat(1000));
        let mut reader = std::io::BufReader::new(std::io::Cursor::new(huge.into_bytes()));
        let mut lines = LineReader::default();
        assert!(matches!(
            lines.read_line(&mut reader, 16, &live, true).unwrap(),
            LineOutcome::Oversized
        ));
        let LineOutcome::Line(next) = lines.read_line(&mut reader, 16, &live, true).unwrap() else {
            panic!("line after oversized");
        };
        assert_eq!(next, "next");

        // A final unterminated line still parses as a request.
        let mut reader = std::io::BufReader::new(std::io::Cursor::new(b"tail".to_vec()));
        let LineOutcome::Line(tail) = read_request_line(&mut reader, 16, &live).unwrap() else {
            panic!("unterminated tail");
        };
        assert_eq!(tail, "tail");
    }

    #[test]
    fn poll_line_never_waits_and_leaves_the_socket_blocking() {
        use std::io::Read;
        use std::time::Instant;

        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        let (stream, _) = listener.accept().unwrap();
        let config = ServeConfig::default();
        let handle = ServerHandle {
            addr,
            shutdown: Arc::new(AtomicBool::new(false)),
            connections: Arc::new(AtomicUsize::new(0)),
        };
        let mut conn = Conn::new(stream, &config, ReplacementPolicy::default(), &handle).unwrap();

        // A quiet connection answers every poll at once.
        let start = Instant::now();
        for _ in 0..200 {
            assert!(matches!(conn.poll_line().unwrap(), LineOutcome::Quiet));
        }
        let quiet = start.elapsed();
        assert!(
            quiet < Duration::from_millis(100),
            "200 quiet polls took {quiet:?}"
        );

        // A line the client has already sent comes back from the next poll.
        let request = b"{\"req\":\"ping\"}\n";
        client.write_all(request).unwrap();
        let mut peeked = vec![0u8; request.len()];
        while conn.reader.get_ref().peek(&mut peeked).unwrap_or(0) < request.len() {}
        let LineOutcome::Line(line) = conn.poll_line().unwrap() else {
            panic!("the sent line");
        };
        assert_eq!(line, "{\"req\":\"ping\"}");

        // The poll left the socket blocking: a plain read with nothing
        // pending waits out the socket timeout instead of failing at once.
        let start = Instant::now();
        let err = conn.reader.get_mut().read(&mut [0u8; 1]).unwrap_err();
        assert!(
            matches!(
                err.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            ),
            "{err:?}"
        );
        let waited = start.elapsed();
        assert!(
            waited >= Duration::from_millis(50),
            "a read after the poll returned after {waited:?}"
        );
    }

    #[test]
    fn wake_addr_rewrites_wildcards_to_loopback() {
        let cases = [
            ("0.0.0.0:7878", "127.0.0.1:7878"),
            ("[::]:7878", "[::1]:7878"),
            ("127.0.0.1:7878", "127.0.0.1:7878"),
            ("[::1]:9", "[::1]:9"),
            ("192.168.1.5:80", "192.168.1.5:80"),
        ];
        for (bound, expected) in cases {
            let bound: SocketAddr = bound.parse().unwrap();
            let expected: SocketAddr = expected.parse().unwrap();
            assert_eq!(wake_addr(bound), expected, "{bound}");
        }
    }

    #[test]
    fn serve_config_from_env_parses_the_quota() {
        // Default: unlimited.
        assert_eq!(ServeConfig::default().max_requests_per_conn, 0);
        // The `serve` example takes the quota from `RESCACHE_SERVE_QUOTA`:
        // unset and `0` both mean unlimited, anything else non-numeric is a
        // typed error naming the variable.
        let quota = |raw: Option<&'static str>| {
            crate::knobs::Knobs::parse(|name: &str| {
                (name == "RESCACHE_SERVE_QUOTA")
                    .then_some(raw)
                    .flatten()
                    .map(str::to_string)
            })
            .map(|k| k.serve_quota)
        };
        assert_eq!(quota(None), Ok(0));
        assert_eq!(quota(Some("0")), Ok(0));
        assert_eq!(quota(Some("25")), Ok(25));
        for bad in ["", "-1", "many"] {
            assert!(
                matches!(
                    quota(Some(bad)),
                    Err(crate::error::CoreError::InvalidParameter {
                        parameter: "RESCACHE_SERVE_QUOTA",
                        ..
                    })
                ),
                "{bad:?}"
            );
        }
    }

    #[test]
    fn parse_target_resolves_defaults_and_rejects_unknowns() {
        let ok = Json::parse(r#"{"req":"sweep","app":"ammp"}"#).unwrap();
        let target =
            parse_target(&ok, Objective::Edp, ReplacementPolicy::Lru).expect("defaults apply");
        assert_eq!(target.app.name, "ammp");
        assert_eq!(target.organization, Organization::SelectiveSets);
        assert_eq!(target.side, ResizableCacheSide::Data);
        assert_eq!(target.objective, Objective::Edp);
        // The runner's configured objective is the default the request
        // inherits when it names none.
        let target =
            parse_target(&ok, Objective::Delay, ReplacementPolicy::Lru).expect("defaults apply");
        assert_eq!(target.objective, Objective::Delay);

        let scenario = Json::parse(
            r#"{"app":"pointer_chase","org":"hybrid","side":"instruction","system":"in_order","objective":"ed2p"}"#,
        )
        .unwrap();
        let target = parse_target(&scenario, Objective::Edp, ReplacementPolicy::Lru)
            .expect("registry workloads resolve");
        assert_eq!(target.app.name, "pointer_chase");
        assert_eq!(target.organization, Organization::Hybrid);
        assert_eq!(target.side, ResizableCacheSide::Instruction);
        assert_eq!(target.objective, Objective::Ed2p);

        for bad in [
            r#"{"req":"sweep"}"#,
            r#"{"app":"no_such_app"}"#,
            r#"{"app":"ammp","org":"bogus"}"#,
            r#"{"app":"ammp","side":"bogus"}"#,
            r#"{"app":"ammp","system":"bogus"}"#,
            r#"{"app":"ammp","objective":"bogus"}"#,
        ] {
            let request = Json::parse(bad).unwrap();
            assert!(
                parse_target(&request, Objective::Edp, ReplacementPolicy::Lru).is_err(),
                "{bad}"
            );
        }
    }

    #[test]
    fn parse_target_applies_the_servers_policy_to_both_systems() {
        for system in ["base", "in_order"] {
            let request = Json::parse(&format!(r#"{{"app":"gcc","system":"{system}"}}"#)).unwrap();
            let target = parse_target(&request, Objective::Edp, ReplacementPolicy::LruMad)
                .expect("valid target");
            assert_eq!(
                target.system.hierarchy.l1d_policy,
                ReplacementPolicy::LruMad,
                "{system}"
            );
            let target = parse_target(&request, Objective::Edp, ReplacementPolicy::default())
                .expect("valid target");
            assert_eq!(
                target.system.hierarchy.l1d_policy,
                ReplacementPolicy::Lru,
                "{system}"
            );
        }
    }
}
