//! The sweep service as a process: serve the JSON-lines protocol over a
//! shared store/memo tier, so many clients (or many terminals) share one
//! pool of traces and simulation results.
//!
//! Run a long-lived server (address from `RESCACHE_SERVE_ADDR`, default
//! `127.0.0.1:7878`; per-connection quota from `RESCACHE_SERVE_QUOTA`; runner
//! knobs from the usual `RESCACHE_*` variables — a malformed one exits with
//! status 2 before the server binds):
//!
//! ```text
//! cargo run --release --example serve
//! ```
//!
//! Then talk to it from any line client, e.g.:
//!
//! ```text
//! printf '{"req":"sweep","app":"gcc","org":"selective_sets"}\n' | nc 127.0.0.1 7878
//! ```
//!
//! Or run the self-contained demo — an ephemeral server plus a scripted
//! client exercising ping, a point, a streamed sweep, a cancelled sweep, a
//! streamed `dynamic` run, health and shutdown:
//!
//! ```text
//! cargo run --release --example serve -- --demo
//! ```

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

use rescache::core::json::Json;
use rescache::core::Knobs;
use rescache::prelude::*;

fn main() -> std::io::Result<()> {
    let knobs = Knobs::resolved().unwrap_or_else(|e| {
        eprintln!("rescache-serve: {e}");
        std::process::exit(2)
    });
    if std::env::args().any(|a| a == "--demo") {
        demo()
    } else {
        let config = ServeConfig {
            addr: knobs.serve_addr.clone(),
            max_requests_per_conn: knobs.serve_quota,
            ..ServeConfig::default()
        };
        // Clients may interleave applications between requests, so the
        // tier keeps one trace per worker, not only those in use.
        let tier = SharedTier::default().with_resident_cap(config.workers);
        let runner = Runner::with_store(knobs.runner_config(RunnerConfig::paper()), tier);
        let server = SweepServer::bind(runner, config)?;
        println!(
            "rescache sweep service listening on {}",
            server.local_addr()?
        );
        println!("send {{\"req\":\"shutdown\"}} to stop it.");
        server.serve()
    }
}

/// One scripted client session against an ephemeral in-process server.
fn demo() -> std::io::Result<()> {
    // Long enough per-point that a pipelined cancel always lands before a
    // worker can walk the whole space, short enough to stay demo-quick.
    let runner = Runner::new(RunnerConfig {
        measure_instructions: 120_000,
        ..RunnerConfig::fast()
    });
    // One worker runs a sweep inline on the connection thread, which keeps
    // the cancelled-sweep exchange deterministic: the connection is read
    // after each point, and no point starts once the cancel is consumed.
    let config = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        ..ServeConfig::default()
    };
    let server = SweepServer::bind(runner, config)?;
    let addr = server.local_addr()?;
    let (_handle, join) = server.spawn()?;
    println!("demo server on {addr}");

    let mut client = Client::connect(addr)?;
    client.exchange(r#"{"req":"ping","id":1}"#)?;
    client.exchange(r#"{"req":"point","id":2,"app":"gcc"}"#)?;

    // A sweep streams one result line per point, then a "done" summary.
    let sweep = client.stream(r#"{"req":"sweep","id":3,"app":"gcc","org":"selective_sets"}"#)?;
    assert_eq!(kind(sweep.last().expect("a terminal line")), "done");
    for response in sweep.iter().filter(|r| kind(r) == "result") {
        // Every result line carries the latency-domain block.
        assert!(
            response.get("latency").is_some(),
            "result lines render the latency block"
        );
    }

    // A cancelled sweep: the cancel rides the same pipe right behind the
    // sweep, so the server consumes it after an early point and stops the
    // search — no further point starts. A fresh app keeps the points
    // unmemoized, so the sweep cannot finish before the cancel arrives.
    let cancelled = client.stream(concat!(
        r#"{"req":"sweep","id":5,"app":"vortex","org":"selective_sets"}"#,
        "\n",
        r#"{"req":"cancel","id":5}"#
    ))?;
    assert!(
        cancelled.iter().all(|r| kind(r) != "done"),
        "the pipelined cancel reaches the server before the sweep finishes"
    );
    let last = cancelled.last().expect("a terminal line");
    assert_eq!(kind(last), "cancelled");
    let points = last.get("points").and_then(Json::as_u64).unwrap_or(0);
    let space = last.get("space_points").and_then(Json::as_u64).unwrap_or(0);
    assert!(
        points < space,
        "a cancelled sweep evaluates fewer points than the space \
         ({points} of {space})"
    );

    // A dynamic run streams one line per resize decision, then a done line
    // matching what the in-process `Runner::run_dynamic` would report.
    let dynamic = client.stream(r#"{"req":"dynamic","id":6,"app":"gcc"}"#)?;
    let done = dynamic.last().expect("a terminal line");
    assert_eq!(kind(done), "done");
    let resizes = dynamic.iter().filter(|r| kind(r) == "resize").count() as u64;
    assert!(
        done.get("params").is_some()
            && done.get("decisions").and_then(Json::as_u64) == Some(resizes),
        "the dynamic done line reports the controller parameters and counts the resize lines"
    );

    client.exchange(r#"{"req":"health","id":7}"#)?;
    let bye = client.exchange(r#"{"req":"shutdown","id":8}"#)?;
    assert_eq!(kind(&bye), "bye");
    drop(client);

    join.join().expect("server thread exits cleanly");
    println!("server drained; demo complete.");
    Ok(())
}

/// The demo's side of one connection.
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: std::net::SocketAddr) -> std::io::Result<Self> {
        let writer = TcpStream::connect(addr)?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Self { reader, writer })
    }

    /// Sends `request` (one or more lines), echoing it.
    fn send(&mut self, request: &str) -> std::io::Result<()> {
        writeln!(self.writer, "{request}")?;
        for line in request.lines() {
            println!("> {line}");
        }
        Ok(())
    }

    /// Reads, prints and parses one response line.
    fn recv(&mut self) -> std::io::Result<Json> {
        let mut line = String::new();
        self.reader.read_line(&mut line)?;
        println!("< {}", line.trim_end());
        Ok(Json::parse(line.trim_end()).expect("server speaks valid JSON"))
    }

    /// Sends one request line and returns its one-line response.
    fn exchange(&mut self, request: &str) -> std::io::Result<Json> {
        self.send(request)?;
        self.recv()
    }

    /// Sends `request`, then reads response lines until the stream ends: a
    /// `done` or `cancelled` line, or a refusal. Returns every line read,
    /// the terminal one last.
    fn stream(&mut self, request: &str) -> std::io::Result<Vec<Json>> {
        self.send(request)?;
        let mut responses = Vec::new();
        loop {
            let response = self.recv()?;
            let last = matches!(kind(&response), "done" | "cancelled")
                || response.get("ok").and_then(Json::as_bool) != Some(true);
            responses.push(response);
            if last {
                return Ok(responses);
            }
        }
    }
}

/// A response line's `kind` (empty when absent).
fn kind(response: &Json) -> &str {
    response.get("kind").and_then(Json::as_str).unwrap_or("")
}
