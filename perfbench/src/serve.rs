//! `serve_hot` and `serve_cold`: the sweep service in a child process,
//! driven over TCP by `nproc` closed-loop clients — each sends its next
//! request only after the previous one's last line arrived.
//!
//! * `serve_hot` warms the tier during set-up with every sweep of a small
//!   hot set, then asks only for sweeps and points of that set: every
//!   simulation is a memo hit, and request time is protocol, energy
//!   re-pricing and socket waits.
//! * `serve_cold` runs in epochs, each a fresh service on a fresh store
//!   directory with a resident-trace cap of [`resident_traces`], sent its
//!   own seeded sequence of distinct targets on distinct applications (see
//!   [`requests::cold_sequence`]): the tier mostly misses, every request but
//!   the last generates and persists its trace, and both engines and the
//!   dynamic controller run. The last request, sent once the others have
//!   completed, is a dynamic run that streams its trace back from the store.
//!
//! The service simulates regions a quarter of the paper's length (50k
//! warm-up, 600k measured instructions): long enough that a cold request's
//! time is engine time, short enough that a run sees a few hundred requests.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use rescache_core::experiment::{
    Runner, RunnerConfig, ServeConfig, SharedTier, StoreHealth, SweepServer, TraceStore,
};
use rescache_core::json::Json;
use rescache_trace::IoPolicy;

use crate::layers::{self, ProbeInput};
use crate::reference;
use crate::report::{note, Outcome};
use crate::requests::{self, HotMix, Kind, Request};
use crate::spans::Recorder;
use crate::{nproc, out_dir, stats, Args};

/// First argument that makes the benchmark binary act as the server child.
pub const CHILD_FLAG: &str = "serve-child";

/// Resident full traces the cold server may keep: one per client, so each
/// in-flight request keeps its own trace whatever the host's core count.
/// At most the sixteen other applications of an epoch, whose traces, all
/// loaded after the set-up's, therefore evict it before the revisit runs.
fn resident_traces() -> usize {
    nproc().min(requests::COLD_EPOCH - 1)
}

/// How long a client waits for any one response line before it counts the
/// request as failed.
const LINE_TIMEOUT: Duration = Duration::from_secs(120);

/// Hot set-ups per run; set-up time is the median over a run's set-ups
/// (for the cold workload, one per epoch).
const HOT_SETUPS: usize = 3;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    Hot,
    Cold,
}

/// The runner configuration of the service (and of its in-process
/// reference).
pub fn runner_config(seed: u64) -> RunnerConfig {
    RunnerConfig {
        warmup_instructions: 50_000,
        measure_instructions: 600_000,
        trace_seed: seed,
        ..RunnerConfig::paper()
    }
}

/// Entry point of the server child: `serve-child --seed <n> [--store <dir>]`.
/// Prints `port <n>` once listening, then serves until a `shutdown`
/// request.
pub fn child_main(argv: &[String]) {
    let value = |flag: &str| {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .cloned()
    };
    let seed = value("--seed")
        .and_then(|v| v.parse().ok())
        .expect("server child needs a numeric --seed");
    let store = match value("--store") {
        Some(dir) => TraceStore::with_tier(
            SharedTier::new(Some(PathBuf::from(dir)), IoPolicy::none())
                .with_resident_cap(resident_traces()),
        ),
        None => TraceStore::with_dir(None),
    };
    let runner = Runner::with_store(runner_config(seed), store);
    let config = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: nproc(),
        ..ServeConfig::default()
    };
    let server = SweepServer::bind(runner, config).expect("bind the sweep service");
    let port = server.local_addr().expect("bound address").port();
    println!("port {port}");
    std::io::stdout()
        .flush()
        .expect("hand the port to the parent");
    server.serve().expect("serve until shutdown");
}

/// A running server child. Dropping it kills and reaps the process and
/// removes its store directory.
struct Child {
    process: std::process::Child,
    addr: SocketAddr,
    store: Option<PathBuf>,
}

impl Child {
    fn spawn(mode: Mode, seed: u64, index: usize) -> std::io::Result<Child> {
        let mut command = Command::new(std::env::current_exe()?);
        command
            .arg(CHILD_FLAG)
            .args(["--seed", &seed.to_string()])
            .env("RESCACHE_THREADS", nproc().to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        let store = (mode == Mode::Cold)
            .then(|| out_dir().join(format!("store-{}-{index}", std::process::id())));
        if let Some(dir) = &store {
            std::fs::remove_dir_all(dir).ok();
            command.arg("--store").arg(dir);
        }
        let mut process = command.spawn()?;
        let stdout = process.stdout.take().expect("piped stdout");
        let mut child = Child {
            process,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            store,
        };
        let mut line = String::new();
        BufReader::new(stdout).read_line(&mut line)?;
        let port: u16 = line
            .strip_prefix("port ")
            .and_then(|p| p.trim().parse().ok())
            .ok_or_else(|| std::io::Error::other(format!("server child said {line:?}")))?;
        child.addr.set_port(port);
        Ok(child)
    }

    fn connect(&self) -> std::io::Result<Client> {
        let stream = TcpStream::connect(self.addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(LINE_TIMEOUT))?;
        Ok(Client {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        })
    }

    fn pid(&self) -> u32 {
        self.process.id()
    }

    /// Bytes the child has read through read-like system calls (sockets
    /// and files alike, page-cache hits included).
    fn rchar(&self) -> Option<u64> {
        let io = std::fs::read_to_string(format!("/proc/{}/io", self.pid())).ok()?;
        io.lines()
            .find_map(|l| l.strip_prefix("rchar:"))
            .and_then(|v| v.trim().parse().ok())
    }

    /// Asks the service to shut down and waits for the process to exit.
    fn shutdown(mut self) -> Result<(), String> {
        let bye = self
            .connect()
            .and_then(|mut c| c.exchange(r#"{"req":"shutdown"}"#, None, &Recorder::new(false)))
            .map_err(|e| format!("shutdown request: {e}"))?;
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match self.process.try_wait() {
                Ok(Some(status)) if status.success() && bye.ok => return Ok(()),
                Ok(Some(status)) => return Err(format!("server child exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                Ok(None) => return Err("server child did not exit after shutdown".into()),
                Err(e) => return Err(format!("waiting for the server child: {e}")),
            }
        }
    }
}

impl Drop for Child {
    fn drop(&mut self) {
        if matches!(self.process.try_wait(), Ok(None)) {
            let _ = self.process.kill();
        }
        let _ = self.process.wait();
        if let Some(dir) = &self.store {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// One client connection.
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

/// A request's response lines with their arrival times.
#[derive(Debug, Default)]
struct Exchange {
    lines: Vec<(Instant, String)>,
    /// Every line said `ok:true`.
    ok: bool,
    bytes: u64,
}

impl Client {
    /// Sends one request line and reads its response lines: one line for a
    /// point (or any single-line verb), up to the `done` line for a sweep
    /// or a dynamic run, or up to the first `ok:false` line.
    fn exchange(
        &mut self,
        line: &str,
        kind: Option<Kind>,
        rec: &Recorder,
    ) -> std::io::Result<Exchange> {
        rec.time("server.send", 0, || {
            self.writer.write_all(line.as_bytes())?;
            self.writer.write_all(b"\n")
        })?;
        let mut exchange = Exchange {
            ok: true,
            ..Exchange::default()
        };
        loop {
            let mut text = String::new();
            let read = rec.time("server.wait", 0, || self.reader.read_line(&mut text))?;
            let at = Instant::now();
            if read == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "server closed the connection mid-response",
                ));
            }
            exchange.bytes += read as u64;
            let response = rec
                .time("json.parse", 0, || Json::parse(text.trim_end()))
                .map_err(|e| std::io::Error::other(format!("bad response line: {e}")))?;
            let ok = response.get("ok").and_then(Json::as_bool) == Some(true);
            let done = response.get("kind").and_then(Json::as_str) == Some("done");
            exchange.ok &= ok;
            exchange.lines.push((at, text.trim_end().to_string()));
            let last = match kind {
                Some(Kind::Sweep) | Some(Kind::Dynamic) => done || !ok,
                Some(Kind::Point) | None => true,
            };
            if last {
                return Ok(exchange);
            }
        }
    }

    fn health(&mut self) -> std::io::Result<StoreHealth> {
        let reply = self.exchange(r#"{"req":"health"}"#, None, &Recorder::new(false))?;
        let line =
            Json::parse(&reply.lines[0].1).map_err(|e| std::io::Error::other(e.to_string()))?;
        let count = |k: &str| line.get(k).and_then(Json::as_u64).unwrap_or(0);
        Ok(StoreHealth {
            hits: count("hits"),
            misses: count("misses"),
            coalesced: count("coalesced"),
            ..StoreHealth::default()
        })
    }
}

/// One request as the client saw it.
#[derive(Debug)]
pub struct Sample {
    pub request: Request,
    /// Seconds from the start of the timed phase to the request's end.
    pub end_s: f64,
    /// Seconds from sending to each response line.
    pub line_s: Vec<f64>,
    pub lines: Vec<String>,
    pub bytes: u64,
    /// The transport failed or a line said `ok:false`.
    pub error: Option<String>,
}

impl Sample {
    fn kind_of(line: &str) -> Option<String> {
        Json::parse(line)
            .ok()?
            .get("kind")
            .and_then(Json::as_str)
            .map(String::from)
    }

    /// Seconds to the last line (the `done` line of a sweep or dynamic run).
    fn latency_s(&self) -> Option<f64> {
        self.line_s.last().copied()
    }

    /// Seconds to a sweep's first `kind:"result"` line.
    fn first_result_s(&self) -> Option<f64> {
        self.lines
            .iter()
            .zip(&self.line_s)
            .find(|(l, _)| Self::kind_of(l).as_deref() == Some("result"))
            .map(|(_, t)| *t)
    }

    /// Design points this request answered: result lines, or the one
    /// measurement of a dynamic run.
    fn points(&self) -> u64 {
        match self.request.kind {
            Kind::Dynamic => u64::from(self.error.is_none()),
            _ => self
                .lines
                .iter()
                .filter(|l| Self::kind_of(l).as_deref() == Some("result"))
                .count() as u64,
        }
    }

    /// Memoized design-point lookups the server made for this request: a
    /// point's one, a sweep's baseline plus its points, a dynamic run's
    /// baseline.
    fn lookups(&self) -> u64 {
        match self.request.kind {
            Kind::Point | Kind::Dynamic => 1,
            Kind::Sweep => 1 + self.points(),
        }
    }
}

/// Where the clients take their requests from.
enum Source {
    Hot(u64),
    Cold(ColdQueue),
}

/// A cold sequence handed out in order, its last request held back until
/// every other one has completed.
struct ColdQueue {
    sequence: Vec<Request>,
    /// Requests handed out and requests completed.
    progress: Mutex<(usize, usize)>,
    completed: Condvar,
}

impl ColdQueue {
    fn new(sequence: Vec<Request>) -> Self {
        Self {
            sequence,
            progress: Mutex::new((0, 0)),
            completed: Condvar::new(),
        }
    }

    /// Every request was handed out.
    fn drained(&self) -> bool {
        self.progress.lock().expect("cold queue lock").0 >= self.sequence.len()
    }
}

impl Source {
    fn next(&self, mix: &mut Option<HotMix>) -> Option<Request> {
        let Source::Cold(queue) = self else {
            return mix.as_mut().map(HotMix::next_request);
        };
        let mut progress = queue.progress.lock().expect("cold queue lock");
        let index = progress.0;
        let last = queue.sequence.len().checked_sub(1)?;
        if index > last {
            return None;
        }
        progress.0 += 1;
        while index == last && progress.1 < last {
            progress = queue.completed.wait(progress).expect("cold queue lock");
        }
        Some(queue.sequence[index].clone())
    }

    /// Marks a handed-out request as answered or failed.
    fn complete(&self) {
        if let Source::Cold(queue) = self {
            queue.progress.lock().expect("cold queue lock").1 += 1;
            queue.completed.notify_all();
        }
    }
}

/// Everything one timed phase measured.
#[derive(Default)]
struct Phase {
    samples: Vec<Sample>,
    wall_s: f64,
    /// Tier counters over the phase.
    health: StoreHealth,
    /// Distinct applications each tier saw, summed over the phase's tiers:
    /// a bound on its trace generations.
    apps: u64,
    /// Stretches of the phase whose rates the throughput metrics take the
    /// median of.
    rounds: Vec<Round>,
    /// Leading samples the latency metrics take: every hot sample, the
    /// samples of whole cold epochs (only the last epoch can be cut short,
    /// and its request mix is partial).
    whole: usize,
}

/// Work done over one stretch of a timed phase: a whole cold epoch, or one
/// of [`HOT_ROUNDS`] runs of consecutive hot completions.
#[derive(Debug, Clone, Copy)]
struct Round {
    points: u64,
    requests: u64,
    wall_s: f64,
}

/// Rounds the hot phase's completions are split into.
const HOT_ROUNDS: usize = 10;

impl Round {
    fn of<'a>(samples: impl Iterator<Item = &'a Sample>, wall_s: f64) -> Round {
        let ok: Vec<&Sample> = samples.filter(|s| s.error.is_none()).collect();
        Round {
            points: ok.iter().map(|s| s.points()).sum(),
            requests: ok.len() as u64,
            wall_s,
        }
    }
}

impl Phase {
    /// Adds a later stretch of the same phase (the next cold epoch).
    fn absorb(&mut self, other: Phase) {
        if other.whole == other.samples.len() {
            self.whole = self.samples.len() + other.whole;
        }
        self.rounds.extend(other.rounds);
        self.samples.extend(other.samples);
        self.wall_s += other.wall_s;
        self.health.hits += other.health.hits;
        self.health.misses += other.health.misses;
        self.health.coalesced += other.health.coalesced;
        self.apps += other.apps;
    }
}

/// Runs `nproc` closed-loop clients for `seconds`, or until a cold source
/// runs out; requests handed out before the deadline run to completion.
fn timed(child: &Child, source: &Source, seconds: f64, rec: &Recorder) -> Result<Phase, String> {
    let mut control = child
        .connect()
        .map_err(|e| format!("control connection: {e}"))?;
    let before = control.health().map_err(|e| format!("health: {e}"))?;
    let samples = Mutex::new(Vec::new());
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    std::thread::scope(|scope| {
        for client_index in 0..nproc() {
            let samples = &samples;
            scope.spawn(move || {
                let root = rec.span("bench.client", client_index as u64);
                let mut mix = match source {
                    Source::Hot(seed) => Some(HotMix::new(*seed, client_index as u64)),
                    Source::Cold(..) => None,
                };
                let mut mine = Vec::new();
                let mut client = child.connect();
                let mut sequence = 0u64;
                while Instant::now() < deadline {
                    let Some(request) = source.next(&mut mix) else {
                        break;
                    };
                    let id = (client_index as u64) << 32 | sequence;
                    sequence += 1;
                    let line = rec.time("json.render", id, || request.to_json(id).render());
                    let sent = Instant::now();
                    let exchange = match client.as_mut() {
                        Ok(c) => c.exchange(&line, Some(request.kind), rec),
                        Err(e) => Err(std::io::Error::new(e.kind(), e.to_string())),
                    };
                    source.complete();
                    let sample = match exchange {
                        Ok(exchange) => Sample {
                            end_s: start.elapsed().as_secs_f64(),
                            line_s: exchange
                                .lines
                                .iter()
                                .map(|(at, _)| at.duration_since(sent).as_secs_f64())
                                .collect(),
                            lines: exchange.lines.into_iter().map(|(_, l)| l).collect(),
                            bytes: exchange.bytes,
                            error: (!exchange.ok).then(|| "a response line said ok:false".into()),
                            request,
                        },
                        Err(e) => {
                            let failed = Sample {
                                request,
                                end_s: start.elapsed().as_secs_f64(),
                                line_s: Vec::new(),
                                lines: Vec::new(),
                                bytes: 0,
                                error: Some(e.to_string()),
                            };
                            mine.push(failed);
                            // The connection is in an unknown state.
                            client = child.connect();
                            continue;
                        }
                    };
                    mine.push(sample);
                }
                drop(root);
                samples.lock().expect("sample list lock").extend(mine);
            });
        }
    });
    let wall_s = start.elapsed().as_secs_f64();
    let after = control.health().map_err(|e| format!("health: {e}"))?;
    let samples: Vec<Sample> = samples.into_inner().expect("sample list lock");
    let mut apps: Vec<&str> = samples.iter().map(|s| s.request.app).collect();
    apps.sort_unstable();
    apps.dedup();
    // A cold epoch cut short by the deadline has a partial request mix, so
    // neither its rate nor its latencies are scored.
    let cut_short = matches!(source, Source::Cold(queue) if !queue.drained());
    let whole = if cut_short { 0 } else { samples.len() };
    let rounds = match source {
        Source::Cold(_) if cut_short => Vec::new(),
        Source::Cold(_) => vec![Round::of(samples.iter(), wall_s)],
        // Consecutive completions in equal-count chunks, each timed from
        // the previous chunk's last completion.
        Source::Hot(_) => {
            let mut ends: Vec<&Sample> = samples.iter().collect();
            ends.sort_by(|a, b| a.end_s.total_cmp(&b.end_s));
            let per = (ends.len() / HOT_ROUNDS).max(1);
            let mut previous = 0.0;
            ends.chunks_exact(per)
                .map(|chunk| {
                    let end = chunk[chunk.len() - 1].end_s;
                    let round = Round::of(chunk.iter().copied(), end - previous);
                    previous = end;
                    round
                })
                .collect()
        }
    };
    Ok(Phase {
        apps: apps.len() as u64,
        rounds,
        whole,
        samples,
        wall_s,
        health: StoreHealth {
            hits: after.hits - before.hits,
            misses: after.misses - before.misses,
            coalesced: after.coalesced - before.coalesced,
            ..StoreHealth::default()
        },
    })
}

/// Spawns the service, hands over its port and warms its tier with `warm`:
/// every hot sweep, or a cold epoch's revisit baseline. Returns the child
/// and the seconds that took.
fn set_up(mode: Mode, seed: u64, index: usize, warm: &[Request]) -> Result<(Child, f64), String> {
    let start = Instant::now();
    let child = Child::spawn(mode, seed, index).map_err(|e| format!("spawn the service: {e}"))?;
    let mut client = child.connect().map_err(|e| format!("connect: {e}"))?;
    let off = Recorder::new(false);
    let pong = client
        .exchange(r#"{"req":"ping"}"#, None, &off)
        .map_err(|e| format!("ping: {e}"))?;
    if !pong.ok {
        return Err("ping refused".into());
    }
    for (i, request) in warm.iter().enumerate() {
        let reply = client
            .exchange(
                &request.to_json(i as u64).render(),
                Some(request.kind),
                &off,
            )
            .map_err(|e| format!("warm-up request: {e}"))?;
        if !reply.ok {
            return Err(format!("warm-up request {request:?} refused"));
        }
    }
    Ok((child, start.elapsed().as_secs_f64()))
}

fn metrics_ms(samples: &[&Sample], f: impl Fn(&Sample) -> Option<f64>) -> Vec<f64> {
    samples
        .iter()
        .filter_map(|s| f(s))
        .map(|s| s * 1e3)
        .collect()
}

/// The service processes of one run: the current child, every set-up's
/// duration, and the peak RSS of every child that served timed traffic.
struct Service {
    mode: Mode,
    seed: u64,
    child: Option<Child>,
    setups: Vec<f64>,
    /// VmHWM of the hot child after each timed phase, or of each whole cold
    /// epoch's child after its epoch.
    peaks_mb: Vec<f64>,
    epochs: u64,
    /// Bytes each whole cold epoch's child read while it was timed.
    epoch_reads: Vec<f64>,
}

impl Service {
    /// Replaces the running child (if any) with a freshly set-up one.
    fn replace_child(&mut self, warm: &[Request], outcome: &mut Outcome) -> Result<(), String> {
        self.retire(outcome);
        let (child, seconds) = set_up(self.mode, self.seed, self.setups.len(), warm)?;
        self.setups.push(seconds);
        self.child = Some(child);
        Ok(())
    }

    /// Shuts the running child down.
    fn retire(&mut self, outcome: &mut Outcome) {
        if let Some(child) = self.child.take() {
            if let Err(e) = child.shutdown() {
                outcome.problems.push(e);
            }
        }
    }

    fn child(&self) -> &Child {
        self.child.as_ref().expect("set up before timing")
    }

    /// One timed phase. The hot service keeps its warm child. The cold
    /// service runs epochs until the seconds are used up: each epoch is a
    /// fresh child with an empty tier and store, set up with its revisit's
    /// baseline and sent its own cold sequence of [`requests::COLD_EPOCH`]
    /// requests. An epoch is cold from its first request, so the phase can
    /// run for any length without the tier warming up.
    fn phase(
        &mut self,
        seconds: f64,
        rec: &Recorder,
        outcome: &mut Outcome,
    ) -> Result<Phase, String> {
        if self.mode == Mode::Hot {
            let phase = timed(self.child(), &Source::Hot(self.seed), seconds, rec)?;
            self.peaks_mb.extend(crate::peak_rss_mb(self.child().pid()));
            return Ok(phase);
        }
        let start = Instant::now();
        let mut phase = Phase::default();
        loop {
            let sequence = requests::cold_sequence(epoch_seed(self.seed, self.epochs));
            let revisit = requests::revisit_baseline(&sequence);
            self.replace_child(std::slice::from_ref(&revisit), outcome)?;
            self.epochs += 1;
            let left = seconds - start.elapsed().as_secs_f64();
            let child = self.child.as_ref().expect("set up above");
            let before = child.rchar();
            let epoch = timed(
                child,
                &Source::Cold(ColdQueue::new(sequence)),
                left.max(0.0),
                rec,
            )?;
            if !epoch.rounds.is_empty() {
                // A whole epoch ran its revisit, which must have streamed the
                // set-up's store entry back from disk.
                let read = before.zip(child.rchar()).map(|(b, a)| a - b);
                self.peaks_mb.extend(crate::peak_rss_mb(child.pid()));
                match (read, entry_bytes(child, revisit.app)) {
                    (Some(read), Some(entry)) if read >= entry => {
                        self.epoch_reads.push(read as f64)
                    }
                    (read, entry) => outcome.problems.push(format!(
                        "serve_cold: the revisit of {} read no store entry from disk \
                         (the epoch read {read:?} bytes; the entry has {entry:?})",
                        revisit.app
                    )),
                }
            }
            phase.absorb(epoch);
            if start.elapsed().as_secs_f64() >= seconds {
                return Ok(phase);
            }
        }
    }
}

pub fn run(args: &Args, mode: Mode) -> Outcome {
    let mut outcome = Outcome::default();
    let mut service = Service {
        mode,
        seed: args.seed,
        child: None,
        setups: Vec::new(),
        peaks_mb: Vec::new(),
        epochs: 0,
        epoch_reads: Vec::new(),
    };
    let off = Recorder::new(false);
    let rec = Recorder::new(args.trace);
    let measured = (|| -> Result<(Option<Phase>, Phase), String> {
        if mode == Mode::Hot {
            // Several warm set-ups; the last one's child serves the run.
            let warm = requests::hot_targets(args.seed);
            for _ in 0..HOT_SETUPS {
                service.replace_child(&warm, &mut outcome)?;
            }
        }
        if args.trace {
            let untraced = service.phase(args.seconds / 2.0, &off, &mut outcome)?;
            Ok((
                Some(untraced),
                service.phase(args.seconds / 2.0, &rec, &mut outcome)?,
            ))
        } else {
            Ok((None, service.phase(args.seconds, &off, &mut outcome)?))
        }
    })();
    let (untraced, main) = match measured {
        Ok(phases) => phases,
        Err(e) => {
            // Nothing complete was measured: report and abort the run.
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    let phases: Vec<&Phase> = untraced.iter().chain([&main]).collect();
    check_invariants(mode, &phases, &mut outcome);
    let all: Vec<&Sample> = phases.iter().flat_map(|p| &p.samples).collect();
    if mode == Mode::Cold {
        match stats::median(&service.epoch_reads) {
            Some(read) => note("cold.epoch_read_bytes", read, "bytes"),
            None => outcome
                .problems
                .push("serve_cold: no whole epoch read its revisit from disk".into()),
        }
    }

    // Reference answers are computed after the timed phases.
    outcome.attempted += all.len() as u64;
    for sample in &all {
        if let Some(e) = &sample.error {
            outcome.fail(format!("{:?}: {e}", sample.request));
        }
    }
    let reference_start = Instant::now();
    let reference = {
        let _root = rec.span("bench.reference", 0);
        reference::check(&all, runner_config(args.seed), &rec, &mut outcome)
    };
    let reference_s = reference_start.elapsed().as_secs_f64();

    let ok: Vec<&Sample> = main.samples[..main.whole]
        .iter()
        .filter(|s| s.error.is_none())
        .collect();
    let of_kind = |kind: Kind| -> Vec<&Sample> {
        ok.iter()
            .copied()
            .filter(|s| s.request.kind == kind)
            .collect()
    };
    let sweeps = of_kind(Kind::Sweep);
    let mut gaps_us = Vec::new();
    for s in &sweeps {
        let results: Vec<f64> = s
            .lines
            .iter()
            .zip(&s.line_s)
            .filter(|(l, _)| Sample::kind_of(l).as_deref() == Some("result"))
            .map(|(_, t)| *t)
            .collect();
        gaps_us.extend(results.windows(2).map(|w| (w[1] - w[0]) * 1e6));
    }
    let sample_lines: usize = main.samples.iter().map(|s| s.lines.len()).sum();
    let bytes_out: u64 = main.samples.iter().map(|s| s.bytes).sum();
    if let (Some(p50), Some(tail)) = (stats::median(&gaps_us), stats::tail(&gaps_us)) {
        note("server.line_gap_p50_us", p50, "us");
        note("server.line_gap_tail_us", tail.value, "us");
        println!(
            "line gap tail: p{:.1} over {} gaps",
            tail.percentile, tail.samples
        );
    }
    let lookups: u64 = ok.iter().map(|s| s.lookups()).sum();
    let pricings = lookups + of_kind(Kind::Dynamic).len() as u64;

    if !args.trace {
        let latencies = metrics_ms(&sweeps, Sample::latency_s);
        let tail = stats::tail(&latencies);
        if tail.is_none() {
            outcome.problems.push(format!(
                "{} sweeps completed: too few for a tail",
                latencies.len()
            ));
        }
        // Rates are medians over the phase's rounds, so a stretch of host
        // interference shifts them only if it covers most of the run; a
        // phase too short for a whole round is taken as one.
        let rounds = if main.rounds.is_empty() {
            vec![Round::of(main.samples.iter(), main.wall_s)]
        } else {
            main.rounds.clone()
        };
        let rate = |f: fn(&Round) -> u64| {
            let rates: Vec<f64> = rounds.iter().map(|r| f(r) as f64 / r.wall_s).collect();
            stats::median(&rates).unwrap_or(0.0)
        };
        outcome.set("points_per_s", rate(|r| r.points));
        outcome.set("requests_per_s", rate(|r| r.requests));
        outcome.set("sweep_p50_ms", stats::median(&latencies).unwrap_or(0.0));
        outcome.set("sweep_tail_ms", tail.map_or(0.0, |t| t.value));
        outcome.set(
            "first_result_p50_ms",
            stats::median(&metrics_ms(&sweeps, Sample::first_result_s)).unwrap_or(0.0),
        );
        outcome.set("setup_s", stats::median(&service.setups).unwrap_or(0.0));
        outcome.set(
            "peak_rss_mb",
            stats::median(&service.peaks_mb).unwrap_or(0.0),
        );
        if let Some(t) = tail {
            println!("sweep tail: p{:.1} over {} sweeps", t.percentile, t.samples);
        }
        for (name, kind) in [
            ("point_p50_ms", Kind::Point),
            ("dynamic_p50_ms", Kind::Dynamic),
        ] {
            if let Some(p50) = stats::median(&metrics_ms(&of_kind(kind), Sample::latency_s)) {
                note(name, p50, "ms");
            }
        }
        note(
            "failed_ratio",
            outcome.failed as f64 / outcome.attempted.max(1) as f64,
            "ratio",
        );
        note("requests", main.samples.len() as f64, "count");
        note(
            "tier.hit_rate",
            main.health.result_cache_hit_rate().unwrap_or(0.0),
            "ratio",
        );
    } else {
        let untraced = untraced
            .as_ref()
            .expect("traced runs time an untraced phase");
        let per_request = |p: &Phase| p.wall_s / p.samples.len().max(1) as f64;
        let overhead_pct = 100.0 * (per_request(&main) / per_request(untraced) - 1.0);
        let pairs: Vec<_> = probe_pairs(mode, args.seed)
            .iter()
            .map(|r| (r.profile(), r.system.config()))
            .collect();
        let lines: Vec<String> = main.samples.iter().flat_map(|s| s.lines.clone()).collect();
        let probe_start = Instant::now();
        let counts = layers::probe(
            &ProbeInput {
                pairs,
                config: runner_config(args.seed),
                price_calls: pricings,
                lines: &lines,
                dir: &out_dir().join(format!("probe-{}", std::process::id())),
            },
            &rec,
            &mut outcome,
        );
        let probe_s = probe_start.elapsed().as_secs_f64();
        let ledger = crate::finish_traced(
            &rec,
            main.wall_s + reference_s + probe_s,
            overhead_pct,
            args,
            &mut outcome,
        );
        layers::set_metrics(&counts, |name| ledger.op(name), &mut outcome);
        outcome.set(
            "runner.static_s",
            ledger.layers.get("runner").copied().unwrap_or(0.0),
        );
        outcome.set("runner.sims_executed", reference.sims_executed as f64);
        crate::set_tier(&main.health, &mut outcome);
        outcome.set("strategy.decisions", reference.decisions as f64);
        outcome.set("strategy.resizes", reference.resizes as f64);
        outcome.set("server.lines", sample_lines as f64);
        outcome.set("server.bytes_out", bytes_out as f64);
    }
    service.retire(&mut outcome);
    outcome
}

/// The seed of a run's `epoch`-th cold sequence.
fn epoch_seed(seed: u64, epoch: u64) -> u64 {
    seed.wrapping_add(epoch.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// The (application, system) pairs the layer probe simulates: the hot set,
/// or the first round of the first cold epoch.
fn probe_pairs(mode: Mode, seed: u64) -> Vec<Request> {
    match mode {
        Mode::Hot => requests::hot_targets(seed),
        Mode::Cold => requests::cold_sequence(epoch_seed(seed, 0))[..8].to_vec(),
    }
}

/// The workload invariants the timed phases must keep, over the run's whole
/// traffic.
fn check_invariants(mode: Mode, phases: &[&Phase], outcome: &mut Outcome) {
    match mode {
        Mode::Hot => {
            let misses: u64 = phases.iter().map(|p| p.health.misses).sum();
            if misses != 0 {
                outcome.problems.push(format!(
                    "serve_hot missed the tier {misses} times in its timed phases"
                ));
            }
        }
        Mode::Cold => {
            // Trace generations are misses too, at most one per application
            // each tier saw.
            let lookups: u64 = phases
                .iter()
                .flat_map(|p| &p.samples)
                .map(|s| s.lookups())
                .sum();
            let misses: u64 = phases.iter().map(|p| p.health.misses).sum();
            let apps: u64 = phases.iter().map(|p| p.apps).sum();
            let sim_misses = misses.saturating_sub(apps);
            if 2 * sim_misses <= lookups {
                outcome.problems.push(format!(
                    "serve_cold: only {sim_misses} of {lookups} design-point lookups missed"
                ));
            }
            note(
                "cold.lookup_miss_share",
                sim_misses as f64 / lookups.max(1) as f64,
                "ratio",
            );
        }
    }
}

/// Size of an application's store entry in the child's store directory.
fn entry_bytes(child: &Child, app: &str) -> Option<u64> {
    let prefix = format!("{app}-");
    std::fs::read_dir(child.store.as_ref()?)
        .ok()?
        .filter_map(Result::ok)
        .find(|e| {
            let name = e.file_name().to_string_lossy().into_owned();
            name.starts_with(&prefix) && !name.ends_with(".lock") && !name.ends_with(".corrupt")
        })
        .and_then(|e| e.metadata().ok())
        .map(|m| m.len())
}
