//! The sweep service: a multi-threaded JSON-lines request server over the
//! shared store/memo tier, serving the paper's static selective-sets /
//! selective-ways sweeps and its miss-ratio dynamic controller over the wire.
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
//!   request runs [`Runner::static_best`]'s own search over
//!   [`ServeConfig::workers`] threads (one worker runs inline on the
//!   connection thread), streaming each point's result line back as it
//!   completes;
//! * a `dynamic` request runs the paper's miss-ratio resizing controller
//!   over the wire, on the connection thread: the run's observer writes
//!   every resize the controller performs as a `kind:"resize"` line while
//!   the simulation runs, then a `kind:"done"` line carries the
//!   measurement. A `dynamic` run is not cancellable; once a line fails to
//!   write, the run finishes without writing and the connection closes;
//! * a streaming sweep is cancellable mid-flight — an interleaved
//!   `{"req":"cancel","id":...}` naming the sweep's id (or the client
//!   disconnecting) stops the search: no further point starts, and only
//!   the points already in flight finish. The worker that finishes a point
//!   takes the connection's lock and checks it for such lines before the
//!   point's line is written, with a non-blocking read that never waits: a
//!   quiet client costs a streamed result one empty read, not a timer
//!   tick;
//! * identical in-flight requests — from one client or many — coalesce on
//!   the tier's single-flight memos, the same memos that single-flight
//!   trace generation: N clients asking for the same cold point run
//!   **one** simulation, observable as
//!   [`StoreHealth`](crate::experiment::StoreHealth) `coalesced`/`hits`
//!   (`StoreHealth::result_cache_hit_rate` is the service's headline
//!   metric). Several server *processes* whose tiers are built over one
//!   directory ([`SharedTier::with_dir`](crate::experiment::SharedTier::with_dir))
//!   share its entries too: each save renames a whole file into place, so a
//!   cold entry two processes both generate is written twice but never read
//!   torn;
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
//! | `{"req":"health"}` | one `kind:"health"` line with the tier's [`StoreHealth`](crate::experiment::StoreHealth) counters plus the server's open-connection count |
//! | `{"req":"point","app":"ammp","sets":64,"ways":2}` | one `kind:"result"` line with the measurement |
//! | `{"req":"sweep","app":"ammp","org":"selective_sets"}` | one `kind:"result"` line per point *as each completes*, then a `kind:"done"` summary of the search's outcome: the minimum-EDP point [`Runner::static_best`] chooses |
//! | `{"req":"cancel","id":3}` | stops the in-flight sweep with that id on this connection; the sweep answers with a `kind:"cancelled"` line counting the points actually evaluated |
//! | `{"req":"dynamic","app":"ammp"}` | `kind:"resize"` lines streamed as the controller decides, then a `kind:"done"` line with the dynamic measurement |
//! | `{"req":"shutdown"}` | `{"ok":true,"kind":"bye"}`, then the whole server drains and exits |
//!
//! `point`, `sweep` and `dynamic` accept optional `"system"` (`"base"`
//! default, `"in_order"`), `"side"` (`"data"` default, `"instruction"`),
//! `"org"` (`"selective_sets"` default, `"selective_ways"`, `"hybrid"`);
//! `point` omitting `sets`/`ways` measures the full-size baseline. `dynamic`
//! additionally accepts `"interval"` (accesses; defaults to the runner's
//! `dynamic_interval`), `"miss_bound"` (defaults to the baseline's
//! per-interval miss count, as the profiling candidates derive it) and
//! `"size_bound"` (bytes, snapped to an offered capacity; defaults to the
//! smallest). Applications resolve through
//! [`spec::profile`](rescache_trace::spec::profile) first, then the
//! [`WorkloadRegistry`](rescache_trace::WorkloadRegistry) scenario names.
//! A simulation request carrying any other field is refused with
//! `unknown field "<key>"`. Every configuration is ranked by its
//! energy-delay product: a sweep's `kind:"done"` summary names the
//! minimum-EDP point and its `best_score` (that EDP). Every `kind:"result"`
//! line carries a `"latency"` block (delayed-hit counts and mean stall
//! cycles) next to the energy numbers. Every simulated system uses the
//! paper's LRU replacement.
//!
//! # Layers
//!
//! `protocol` parses requests and builds every response line (no socket, no
//! [`Runner`]); `connection` reads, polls, counts and answers one client;
//! `dispatch` runs the verbs and writes the one `ok:false` line a refusal gets.
//! A connection reads and writes through a transport seam: a boxed reader
//! whose waits can be switched off (`ClientRead`, whose one production impl
//! is [`TcpStream`]) and a boxed `Write`. The accept loop wraps each socket
//! in it; the connection tests wrap a scripted client, which reaches every
//! stop path (a cancel, a hang-up, a failed write, the quota, a shutdown)
//! on every run.

mod connection;
mod dispatch;
mod protocol;

use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::experiment::parallel::effective_workers;
use crate::experiment::runner::Runner;
use connection::{serve_connection, Conn};

/// Cap on one request line. Real requests are under 200 bytes; the cap
/// exists so a stuck or hostile client cannot make a connection thread
/// buffer unbounded memory. An oversized line is answered with a typed
/// error and skipped — the connection stays usable.
pub const MAX_LINE_BYTES: usize = 64 * 1024;

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
    /// Worker threads a single sweep request runs its points on (one runs
    /// them inline on the connection thread). Defaults to
    /// [`effective_workers`].
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
    shutdown: Arc<AtomicBool>,
    connections: Arc<AtomicUsize>,
}

impl SweepServer {
    /// Binds the service (resolving an ephemeral port if `addr` asked for
    /// one) without accepting yet.
    ///
    /// # Errors
    ///
    /// Returns the bind error if the address is unavailable.
    pub fn bind(runner: Runner, config: ServeConfig) -> std::io::Result<Self> {
        let listener = TcpListener::bind(&config.addr)?;
        Ok(Self {
            listener,
            runner,
            config,
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
            let (finished, live): (Vec<_>, Vec<_>) =
                connections.into_iter().partition(|c| c.is_finished());
            connections = live;
            for connection in finished {
                let _ = connection.join();
            }
            match stream {
                Ok(stream) => {
                    let runner = self.runner.clone();
                    let config = self.config.clone();
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
                        let served = Conn::tcp(stream, &config, &handle)
                            .and_then(|conn| serve_connection(&runner, conn));
                        if let Err(e) = served {
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

#[cfg(test)]
mod tests {
    use std::io::{BufRead, Write};

    use super::connection::{Conn, LineOutcome, LineReader};
    use super::protocol::{parse_target, Stop};
    use super::*;
    use crate::json::Json;
    use crate::org::Organization;
    use crate::system::ResizableCacheSide;

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
        // A clone of the served socket shares its timeout and its
        // `O_NONBLOCK` flag, so it shows what the polls leave behind.
        let mut probe = stream.try_clone().unwrap();
        let config = ServeConfig::default();
        let handle = ServerHandle {
            addr,
            shutdown: Arc::new(AtomicBool::new(false)),
            connections: Arc::new(AtomicUsize::new(0)),
        };
        let mut conn = Conn::tcp(stream, &config, &handle).unwrap();

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
        while probe.peek(&mut peeked).unwrap_or(0) < request.len() {}
        let LineOutcome::Line(line) = conn.poll_line().unwrap() else {
            panic!("the sent line");
        };
        assert_eq!(line, "{\"req\":\"ping\"}");

        // The poll left the socket blocking: a plain read with nothing
        // pending waits out the socket timeout instead of failing at once.
        let start = Instant::now();
        let err = probe.read(&mut [0u8; 1]).unwrap_err();
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
        let target = parse_target(&ok, "sweep").expect("defaults apply");
        assert_eq!(target.app.name, "ammp");
        assert_eq!(target.organization, Organization::SelectiveSets);
        assert_eq!(target.side, ResizableCacheSide::Data);

        // Every target field and every field of the verb is accepted.
        let scenario = Json::parse(
            r#"{"req":"dynamic","id":7,"app":"pointer_chase","org":"hybrid","side":"instruction","system":"in_order","interval":512,"miss_bound":3,"size_bound":4096}"#,
        )
        .unwrap();
        let target = parse_target(&scenario, "dynamic").expect("registry workloads resolve");
        assert_eq!(target.app.name, "pointer_chase");
        assert_eq!(target.organization, Organization::Hybrid);
        assert_eq!(target.side, ResizableCacheSide::Instruction);
        let point = Json::parse(r#"{"req":"point","app":"ammp","sets":64,"ways":2}"#).unwrap();
        assert!(parse_target(&point, "point").is_ok());

        for bad in [
            r#"{"req":"sweep"}"#,
            r#"{"req":"sweep","app":"no_such_app"}"#,
            r#"{"req":"sweep","app":"ammp","org":"bogus"}"#,
            r#"{"req":"sweep","app":"ammp","side":"bogus"}"#,
            r#"{"req":"sweep","app":"ammp","system":"bogus"}"#,
            r#"{"req":"sweep","app":"ammp","objective":"bogus"}"#,
            r#"{"req":"sweep","app":"ammp","sets":64,"ways":2}"#,
            r#"{"req":"point","app":"ammp","interval":512}"#,
            r#"{"req":"point","app":"ammp","system":5}"#,
            r#"{"req":"point","app":"ammp","app":"swim"}"#,
        ] {
            let request = Json::parse(bad).unwrap();
            let verb = request.get("req").and_then(Json::as_str).unwrap();
            assert!(parse_target(&request, verb).is_err(), "{bad}");
        }
        let request = Json::parse(r#"{"app":"ammp","objective":"edp"}"#).unwrap();
        match parse_target(&request, "sweep") {
            Err(Stop::Refuse { message, .. }) => {
                assert_eq!(message, r#"unknown field "objective""#)
            }
            _ => panic!("an unknown field is refused by name"),
        }
    }
}
