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
//! client exercising ping, a point, a streamed sweep (once under the
//! default EDP objective, once re-ranked latency-first with
//! `"objective":"delay"`), a cancelled sweep, a streamed `dynamic` run,
//! health and shutdown:
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
        let runner = Runner::new(knobs.runner_config(RunnerConfig::paper()));
        let config = ServeConfig {
            addr: knobs.serve_addr.clone(),
            max_requests_per_conn: knobs.serve_quota,
            ..ServeConfig::default()
        };
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
    // One worker keeps the cancelled-sweep exchange deterministic: after
    // the cancel is consumed, at most the single in-flight point finishes.
    let config = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        ..ServeConfig::default()
    };
    let server = SweepServer::bind(runner, config)?;
    let addr = server.local_addr()?;
    let (_handle, join) = server.spawn()?;
    println!("demo server on {addr}");

    let stream = TcpStream::connect(addr)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream;
    let mut line = String::new();
    exchange(&mut writer, &mut reader, r#"{"req":"ping","id":1}"#)?;
    exchange(
        &mut writer,
        &mut reader,
        r#"{"req":"point","id":2,"app":"gcc"}"#,
    )?;

    // A sweep streams one result line per point, then a "done" summary.
    writeln!(
        writer,
        r#"{{"req":"sweep","id":3,"app":"gcc","org":"selective_sets"}}"#
    )?;
    println!(r#"> {{"req":"sweep","id":3,"app":"gcc","org":"selective_sets"}}"#);
    loop {
        line.clear();
        reader.read_line(&mut line)?;
        println!("< {}", line.trim_end());
        let response = Json::parse(line.trim_end()).expect("server speaks valid JSON");
        if response.get("kind").and_then(Json::as_str) == Some("result") {
            // Every result line carries the latency-domain block.
            assert!(
                response.get("latency").is_some(),
                "result lines render the latency block"
            );
        }
        if response.get("kind").and_then(Json::as_str) == Some("done") {
            break;
        }
    }

    // The same sweep re-ranked latency-first: the measurements coalesce on
    // the tier's memos (no re-simulation), only the "done" ranking changes.
    writeln!(
        writer,
        r#"{{"req":"sweep","id":4,"app":"gcc","org":"selective_sets","objective":"delay"}}"#
    )?;
    println!(
        r#"> {{"req":"sweep","id":4,"app":"gcc","org":"selective_sets","objective":"delay"}}"#
    );
    loop {
        line.clear();
        reader.read_line(&mut line)?;
        println!("< {}", line.trim_end());
        let response = Json::parse(line.trim_end()).expect("server speaks valid JSON");
        if response.get("kind").and_then(Json::as_str) == Some("done") {
            assert_eq!(
                response.get("objective").and_then(Json::as_str),
                Some("delay"),
                "the done summary names the objective that ranked it"
            );
            break;
        }
    }

    // A cancelled sweep: the cancel rides the same pipe right behind the
    // sweep, so the server consumes it before streaming and parks the
    // shared cursor — only the in-flight point finishes. A fresh app keeps
    // the points unmemoized, so the single worker cannot outrun the cancel.
    let sweep_then_cancel = concat!(
        r#"{"req":"sweep","id":5,"app":"vortex","org":"selective_sets"}"#,
        "\n",
        r#"{"req":"cancel","id":5}"#
    );
    writeln!(writer, "{sweep_then_cancel}")?;
    println!(r#"> {{"req":"sweep","id":5,"app":"vortex","org":"selective_sets"}}"#);
    println!(r#"> {{"req":"cancel","id":5}}"#);
    loop {
        line.clear();
        reader.read_line(&mut line)?;
        println!("< {}", line.trim_end());
        let response = Json::parse(line.trim_end()).expect("server speaks valid JSON");
        assert_ne!(
            response.get("kind").and_then(Json::as_str),
            Some("done"),
            "the pipelined cancel reaches the server before the sweep finishes"
        );
        if response.get("kind").and_then(Json::as_str) == Some("cancelled") {
            let points = response.get("points").and_then(Json::as_u64).unwrap_or(0);
            let space = response
                .get("space_points")
                .and_then(Json::as_u64)
                .unwrap_or(0);
            assert!(
                points < space,
                "a cancelled sweep evaluates fewer points than the space \
                 ({points} of {space})"
            );
            break;
        }
    }

    // A dynamic run streams one line per resize decision, then a done line
    // matching what the in-process `Runner::run_dynamic` would report.
    writeln!(writer, r#"{{"req":"dynamic","id":6,"app":"gcc"}}"#)?;
    println!(r#"> {{"req":"dynamic","id":6,"app":"gcc"}}"#);
    loop {
        line.clear();
        reader.read_line(&mut line)?;
        println!("< {}", line.trim_end());
        let response = Json::parse(line.trim_end()).expect("server speaks valid JSON");
        if response.get("kind").and_then(Json::as_str) == Some("done") {
            assert!(
                response.get("params").is_some() && response.get("decisions").is_some(),
                "the dynamic done line reports the controller parameters"
            );
            break;
        }
    }

    exchange(&mut writer, &mut reader, r#"{"req":"health","id":7}"#)?;
    let bye = exchange(&mut writer, &mut reader, r#"{"req":"shutdown","id":8}"#)?;
    assert_eq!(bye.get("kind").and_then(Json::as_str), Some("bye"));
    drop(writer);

    join.join().expect("server thread exits cleanly");
    println!("server drained; demo complete.");
    Ok(())
}

/// Sends one request line, prints and parses the one-line response.
fn exchange(
    writer: &mut TcpStream,
    reader: &mut BufReader<TcpStream>,
    request: &str,
) -> std::io::Result<Json> {
    writeln!(writer, "{request}")?;
    let mut line = String::new();
    reader.read_line(&mut line)?;
    println!("> {request}");
    println!("< {}", line.trim_end());
    Ok(Json::parse(line.trim_end()).expect("server speaks valid JSON"))
}
