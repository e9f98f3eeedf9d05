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
//! Every exchange of the protocol is tested end to end over sockets in
//! `tests/sweep_service.rs`, and its stop paths over a scripted client in
//! the server's `connection` module.

use rescache::core::Knobs;
use rescache::prelude::*;

fn main() -> std::io::Result<()> {
    let knobs = Knobs::resolved().unwrap_or_else(|e| {
        eprintln!("rescache-serve: {e}");
        std::process::exit(2)
    });
    let config = ServeConfig {
        addr: knobs.serve_addr.clone(),
        max_requests_per_conn: knobs.serve_quota,
        ..ServeConfig::default()
    };
    // Clients may interleave applications between requests, so the tier
    // keeps one trace per worker, not only those in use.
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
