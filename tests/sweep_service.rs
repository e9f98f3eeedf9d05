//! Integration tests of the sweep service: the JSON-lines request server
//! over the shared store/memo tier.
//!
//! The contract under test:
//!
//! * **Coalescing** — N concurrent clients requesting the same cold point
//!   trigger exactly one simulation (and one trace generation); everything
//!   beyond those two misses is a `hit` or a `coalesced` in the tier's
//!   health counters. Likewise N clients running the same sweep share one
//!   simulation per unique point.
//! * **Robustness** — malformed, oversized and unserviceable request lines
//!   get typed `ok:false` responses on a connection that stays usable;
//!   never a panic, never a silent disconnect.
//! * **Degradation** — over a store directory that cannot be created the
//!   service keeps serving correct results while the store degrades to
//!   in-memory operation.
//! * **Cancellation** — a `cancel` naming an in-flight sweep (or the client
//!   disconnecting mid-stream) stops the search: provably fewer points
//!   are evaluated than the space offers.
//! * **Quotas** — `ServeConfig::max_requests_per_conn` closes a connection
//!   with a typed `quota_exhausted` error once exceeded, counting the lines
//!   a client sends while a sweep streams too.
//! * **Dynamic verb** — a `dynamic` request streams the controller's resize
//!   decisions, one line per decision of the in-process
//!   `Runner::run_dynamic`, and its done line matches that run
//!   bit-for-bit. A client leaving mid-run closes its connection once the
//!   run ends, and the next client's identical request gets the whole run.
//! * **Multi-process** — N server *processes* whose tiers persist to one
//!   directory share persisted trace entries and agree bit-for-bit.
//! * **Shutdown** — a `shutdown` request drains the server cleanly, even
//!   when the server was bound to a wildcard address with no clients.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use rescache::prelude::*;
use rescache_core::experiment::{Measurement, RunSetup, ServeConfig, SharedTier, SweepServer};
use rescache_core::json::Json;
use rescache_core::ResizeDecision;
use rescache_trace::IoPolicy;

fn service_config() -> RunnerConfig {
    RunnerConfig {
        warmup_instructions: 4_000,
        measure_instructions: 12_000,
        ..RunnerConfig::fast()
    }
}

/// Binds a server over `tier` on an ephemeral port and serves it in the
/// background. Returns the address and the stop/join pair.
fn spawn_server(
    tier: SharedTier,
) -> (
    SocketAddr,
    rescache_core::experiment::ServerHandle,
    std::thread::JoinHandle<()>,
) {
    let config = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        ..ServeConfig::default()
    };
    spawn_server_with(service_config(), tier, config)
}

/// [`spawn_server`] with explicit runner and serve configurations (for the
/// quota, cancellation and disconnect tests, which need a request cap or a
/// single slow worker).
fn spawn_server_with(
    runner_config: RunnerConfig,
    tier: SharedTier,
    config: ServeConfig,
) -> (
    SocketAddr,
    rescache_core::experiment::ServerHandle,
    std::thread::JoinHandle<()>,
) {
    let runner = Runner::with_store(runner_config, tier);
    let server = SweepServer::bind(runner, config).expect("bind ephemeral port");
    let addr = server.local_addr().expect("local addr");
    let (handle, join) = server.spawn().expect("spawn server");
    (addr, handle, join)
}

struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: SocketAddr) -> Self {
        let writer = TcpStream::connect(addr).expect("connect");
        let reader = BufReader::new(writer.try_clone().expect("clone stream"));
        Self { reader, writer }
    }

    fn send(&mut self, line: &str) {
        writeln!(self.writer, "{line}").expect("send request");
    }

    fn recv(&mut self) -> Json {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line).expect("read response");
        assert!(n > 0, "server closed the connection unexpectedly");
        Json::parse(line.trim_end()).expect("response is valid JSON")
    }

    fn request(&mut self, line: &str) -> Json {
        self.send(line);
        self.recv()
    }
}

fn is_ok(response: &Json) -> bool {
    response.get("ok").and_then(Json::as_bool) == Some(true)
}

fn kind(response: &Json) -> &str {
    response.get("kind").and_then(Json::as_str).unwrap_or("")
}

/// The number of points selective-sets offers on the base d-cache — the
/// per-unique-point simulation bound the sweep assertions use.
fn selective_sets_points() -> usize {
    let system = SystemConfig::base();
    ConfigSpace::enumerate(system.hierarchy.l1d, Organization::SelectiveSets)
        .expect("selective-sets applies to the base d-cache")
        .len()
}

#[test]
fn concurrent_point_requests_coalesce_to_one_simulation() {
    let tier = SharedTier::new(None, IoPolicy::none());
    let (addr, handle, join) = spawn_server(tier.clone());

    // Every client asks for the same cold full-size point.
    let system = SystemConfig::base();
    let request = format!(
        r#"{{"req":"point","id":7,"app":"ammp","sets":{},"ways":{}}}"#,
        system.hierarchy.l1d.num_sets(),
        system.hierarchy.l1d.associativity
    );
    const CLIENTS: usize = 6;
    std::thread::scope(|scope| {
        for _ in 0..CLIENTS {
            let request = &request;
            scope.spawn(move || {
                let mut client = Client::connect(addr);
                let response = client.request(request);
                assert!(is_ok(&response), "{response:?}");
                assert_eq!(kind(&response), "result");
                assert_eq!(response.get("id").and_then(Json::as_u64), Some(7));
                assert!(response.get("cycles").and_then(Json::as_u64).unwrap() > 0);
            });
        }
    });

    let health = tier.health();
    // One trace generation + one simulation, no matter how many clients
    // raced: the single-flight memos coalesce everything else.
    assert_eq!(health.misses, 2, "{health:?}");
    assert_eq!(
        health.hits + health.coalesced,
        (CLIENTS - 1) as u64,
        "every non-running client shared the one simulation: {health:?}"
    );
    assert_eq!(health.requests, CLIENTS as u64, "{health:?}");
    assert_eq!(health.served, CLIENTS as u64, "{health:?}");

    handle.stop();
    join.join().expect("server thread exits cleanly");
}

#[test]
fn overlapping_sweeps_share_one_simulation_per_unique_point() {
    let tier = SharedTier::new(None, IoPolicy::none());
    let (addr, handle, join) = spawn_server(tier.clone());
    let points = selective_sets_points();

    const CLIENTS: usize = 3;
    let done_lines: Vec<Json> = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..CLIENTS).map(|id| {
            scope.spawn(move || {
                let mut client = Client::connect(addr);
                client.send(&format!(
                    r#"{{"req":"sweep","id":{id},"app":"ammp","org":"selective_sets","side":"data"}}"#
                ));
                let mut results = 0;
                // Each result line's (point, edp): the done line's summary
                // must agree with them.
                let mut edps: Vec<(Json, f64)> = Vec::new();
                let done = loop {
                    let response = client.recv();
                    assert!(is_ok(&response), "{response:?}");
                    assert_eq!(response.get("id").and_then(Json::as_u64), Some(id as u64));
                    match kind(&response) {
                        "result" => {
                            results += 1;
                            let point = response.get("point").expect("result names its point");
                            let edp = response.get("edp").and_then(Json::as_f64);
                            edps.push((point.clone(), edp.expect("result carries its edp")));
                        }
                        "done" => {
                            assert_eq!(
                                response.get("points").and_then(Json::as_u64),
                                Some(results as u64)
                            );
                            let best = response.get("best").expect("done carries best point");
                            assert!(best.get("sets").and_then(Json::as_u64).is_some());
                            let min_edp = edps.iter().map(|(_, e)| *e).fold(f64::INFINITY, f64::min);
                            assert_eq!(
                                response.get("best_score").and_then(Json::as_f64),
                                Some(min_edp),
                                "best_score is the sweep's minimum EDP: {response:?}"
                            );
                            assert!(
                                edps.iter().any(|(p, e)| p == best && *e == min_edp),
                                "best names a minimum-EDP point: {response:?}"
                            );
                            assert!(response.get("objective").is_none(), "{response:?}");
                            break response;
                        }
                        other => panic!("unexpected response kind {other:?}: {response:?}"),
                    }
                };
                assert_eq!(results, points, "one line per sweep point");
                done
            })
        }).collect();
        clients
            .into_iter()
            .map(|c| c.join().expect("client thread"))
            .collect()
    });

    let health = tier.health();
    // Unique work across all clients: one trace generation plus one
    // simulation per point (the sweep's full-size baseline shares the
    // full point's memo key).
    assert_eq!(health.misses as usize, points + 1, "{health:?}");
    assert_eq!(health.requests, CLIENTS as u64, "{health:?}");
    // Every sweep serves its full-size baseline plus one line per point.
    assert_eq!(health.served, (CLIENTS * (points + 1)) as u64, "{health:?}");
    let rate = health.result_cache_hit_rate().expect("lookups happened");
    assert!(rate > 0.5, "most lookups were shared: {health:?}");

    // Every done line is the in-process static search's outcome, run on a
    // runner over the same tier.
    let outcome = Runner::with_store(service_config(), tier.clone())
        .static_best(
            &spec::ammp(),
            &SystemConfig::base(),
            Organization::SelectiveSets,
            ResizableCacheSide::Data,
        )
        .expect("selective-sets applies to the base d-cache");
    let best = &outcome.best;
    for done in &done_lines {
        let chosen = done.get("best").expect("done carries best point");
        assert_eq!(
            chosen.get("sets").and_then(Json::as_u64),
            Some(best.choice.sets),
            "{done:?}"
        );
        assert_eq!(
            chosen.get("ways").and_then(Json::as_u64),
            Some(u64::from(best.choice.ways)),
            "{done:?}"
        );
        let bits = |key: &str| done.get(key).and_then(Json::as_f64).map(f64::to_bits);
        let best_score = best.measurement.energy_delay().product();
        assert_eq!(bits("best_score"), Some(best_score.to_bits()), "{done:?}");
        assert_eq!(
            bits("edp_reduction_percent"),
            Some(best.edp_reduction_percent.to_bits()),
            "{done:?}"
        );
        assert_eq!(
            done.get("points").and_then(Json::as_u64),
            Some(outcome.evaluated.len() as u64),
            "{done:?}"
        );
    }

    handle.stop();
    join.join().expect("server thread exits cleanly");
}

#[test]
fn malformed_and_oversized_lines_get_typed_errors_and_the_connection_survives() {
    let tier = SharedTier::new(None, IoPolicy::none());
    let (addr, handle, join) = spawn_server(tier);
    let mut client = Client::connect(addr);

    for (bad, expect, code) in [
        ("this is not json", "malformed request", None),
        (r#"{"no_req":true}"#, "missing \"req\"", None),
        (r#"{"req":"frobnicate"}"#, "unknown request", None),
        (r#"{"req":"point","id":1}"#, "missing \"app\"", None),
        (
            r#"{"req":"point","app":"no_such_app"}"#,
            "unknown application",
            None,
        ),
        (
            r#"{"req":"point","app":"ammp","sets":7,"ways":2}"#,
            "not offered",
            None,
        ),
        (
            r#"{"req":"point","app":"ammp","sets":64}"#,
            "both \"sets\" and \"ways\"",
            None,
        ),
        (
            r#"{"req":"sweep","app":"ammp","org":"bogus"}"#,
            "unknown org",
            None,
        ),
        (
            r#"{"req":"point","id":2,"app":"ammp","sets":"64","ways":2}"#,
            "must be non-negative integers",
            None,
        ),
        (
            r#"{"req":"point","id":3,"app":"ammp","sets":64,"ways":2.5}"#,
            "must be non-negative integers",
            None,
        ),
        (
            r#"{"req":"point","id":4,"app":"ammp","sets":64,"ways":4294967296}"#,
            "exceeds the supported maximum",
            Some("out_of_range"),
        ),
        (
            r#"{"req":"dynamic","id":5,"app":"ammp","interval":"fast"}"#,
            "\"interval\" must be a non-negative integer",
            None,
        ),
        (
            r#"{"req":"dynamic","id":6,"app":"ammp","miss_bound":-1}"#,
            "\"miss_bound\" must be a non-negative integer",
            None,
        ),
        (
            r#"{"req":"dynamic","id":7,"app":"ammp","size_bound":1.5}"#,
            "\"size_bound\" must be a non-negative integer",
            None,
        ),
        (
            r#"{"req":"point","id":8,"app":"ammp","system":"bogus"}"#,
            "unknown system",
            None,
        ),
        (
            r#"{"req":"dynamic","id":9,"app":"ammp","side":"bogus"}"#,
            "unknown side",
            None,
        ),
        (
            r#"{"req":"sweep","id":"ten","app":"ammp","objective":"bogus"}"#,
            "unknown field \"objective\"",
            None,
        ),
        (r#"{"req":"cancel","id":11}"#, "no sweep in flight", None),
        // Each verb takes only the target fields and its own, a tag must be
        // a string, and a key may appear once: none is defaulted or ignored.
        (
            r#"{"req":"sweep","app":"ammp","sets":64}"#,
            "unknown field \"sets\"",
            None,
        ),
        (
            r#"{"req":"point","app":"ammp","interval":9}"#,
            "unknown field \"interval\"",
            None,
        ),
        (
            r#"{"req":"dynamic","app":"ammp","ways":2}"#,
            "unknown field \"ways\"",
            None,
        ),
        (
            r#"{"req":"point","app":"ammp","system":5}"#,
            "\"system\" must be a string",
            None,
        ),
        (
            r#"{"req":"sweep","app":"ammp","org":true}"#,
            "\"org\" must be a string",
            None,
        ),
        (
            r#"{"req":"dynamic","app":"ammp","side":null}"#,
            "\"side\" must be a",
            None,
        ),
        (
            r#"{"req":"point","app":"ammp","app":"gcc"}"#,
            "duplicate field \"app\"",
            None,
        ),
        (
            r#"{"req":"sweep","app":"ammp","org":"x","org":"y"}"#,
            "duplicate field",
            None,
        ),
    ] {
        let response = client.request(bad);
        assert_eq!(
            response.get("ok").and_then(Json::as_bool),
            Some(false),
            "{bad} -> {response:?}"
        );
        let error = response
            .get("error")
            .and_then(Json::as_str)
            .expect("typed error");
        assert!(error.contains(expect), "{bad} -> {error}");
        // The request's id is echoed; a line that is not JSON has none.
        let id = Json::parse(bad)
            .ok()
            .and_then(|request| request.get("id").cloned())
            .unwrap_or(Json::Null);
        assert_eq!(response.get("id"), Some(&id), "{bad} -> {response:?}");
        assert_eq!(
            response.get("code").and_then(Json::as_str),
            code,
            "{bad} -> {response:?}"
        );
    }

    // An oversized line (beyond the 64 KiB cap) is answered and skipped
    // without buffering it or killing the connection.
    let mut huge = String::with_capacity(100_000);
    huge.push_str(r#"{"req":"point","pad":""#);
    huge.push_str(&"x".repeat(100_000 - huge.len() - 2));
    huge.push_str("\"}");
    let response = client.request(&huge);
    assert_eq!(response.get("ok").and_then(Json::as_bool), Some(false));
    assert!(response
        .get("error")
        .and_then(Json::as_str)
        .expect("typed error")
        .contains("exceeds"));

    // The same connection still serves real requests afterwards.
    let pong = client.request(r#"{"req":"ping","id":9}"#);
    assert!(is_ok(&pong), "{pong:?}");
    assert_eq!(kind(&pong), "pong");
    assert_eq!(pong.get("id").and_then(Json::as_u64), Some(9));

    handle.stop();
    join.join().expect("server thread exits cleanly");
}

#[test]
fn sweep_service_survives_disk_faults_and_degrades_gracefully() {
    // A store directory whose path is a regular file: persistence fails,
    // the tier degrades to in-memory operation mid-serve, and every client
    // still gets a full, correct sweep.
    let dir = std::env::temp_dir().join(format!("rescache-serve-faults-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::write(&dir, b"occupied").expect("occupy the store path");
    let faulty = SharedTier::new(Some(dir.clone()), IoPolicy::none());
    let (addr, handle, join) = spawn_server(faulty.clone());

    let mut client = Client::connect(addr);
    client.send(r#"{"req":"sweep","id":1,"app":"gcc","org":"selective_sets"}"#);
    let mut results: Vec<Json> = Vec::new();
    loop {
        let response = client.recv();
        assert!(
            is_ok(&response),
            "an unusable store must not fail requests: {response:?}"
        );
        if kind(&response) == "done" {
            break;
        }
        results.push(response);
    }
    assert_eq!(results.len(), selective_sets_points());

    // Reference: the same sweep on an in-memory tier must produce
    // bit-identical cycle counts (a dead disk may cost degradation, never
    // results).
    let clean = SharedTier::new(None, IoPolicy::none());
    let (clean_addr, clean_handle, clean_join) = spawn_server(clean);
    let mut reference = Client::connect(clean_addr);
    reference.send(r#"{"req":"sweep","id":1,"app":"gcc","org":"selective_sets"}"#);
    let mut reference_results: Vec<Json> = Vec::new();
    loop {
        let response = reference.recv();
        if kind(&response) == "done" {
            break;
        }
        reference_results.push(response);
    }
    let cycles_of = |rs: &[Json]| {
        let mut cycles: Vec<(u64, u64, u64)> = rs
            .iter()
            .map(|r| {
                let point = r.get("point").expect("point");
                (
                    point.get("sets").and_then(Json::as_u64).expect("sets"),
                    point.get("ways").and_then(Json::as_u64).expect("ways"),
                    r.get("cycles").and_then(Json::as_u64).expect("cycles"),
                )
            })
            .collect();
        cycles.sort_unstable();
        cycles
    };
    assert_eq!(cycles_of(&results), cycles_of(&reference_results));

    let health = faulty.health();
    assert!(health.degraded, "{health:?}");
    assert_eq!(health.warnings, 1, "one-time warning: {health:?}");

    handle.stop();
    clean_handle.stop();
    join.join().expect("faulty server exits cleanly");
    clean_join.join().expect("clean server exits cleanly");
    std::fs::remove_file(&dir).ok();
}

#[test]
fn shutdown_request_drains_the_server() {
    let tier = SharedTier::new(None, IoPolicy::none());
    let (addr, _handle, join) = spawn_server(tier);

    let mut client = Client::connect(addr);
    let health = client.request(r#"{"req":"health"}"#);
    assert!(is_ok(&health), "{health:?}");
    assert_eq!(kind(&health), "health");
    assert!(health.get("result_cache_hit_rate").is_some());
    // The health line reports the server's live connection gauge — this
    // client is the only one.
    assert_eq!(health.get("connections").and_then(Json::as_u64), Some(1));

    let bye = client.request(r#"{"req":"shutdown"}"#);
    assert!(is_ok(&bye), "{bye:?}");
    assert_eq!(kind(&bye), "bye");
    join.join().expect("shutdown drains the accept loop");
}

#[test]
fn stopping_a_wildcard_bound_server_needs_no_clients() {
    // A server bound to 0.0.0.0 must be stoppable through its handle alone:
    // stop()'s wake-up connection rewrites the wildcard to loopback (dialing
    // a wildcard address is non-portable). A regression hangs this join.
    let tier = SharedTier::new(None, IoPolicy::none());
    let config = ServeConfig {
        addr: "0.0.0.0:0".to_string(),
        ..ServeConfig::default()
    };
    let (addr, handle, join) = spawn_server_with(service_config(), tier, config);
    assert!(addr.ip().is_unspecified(), "bound the wildcard: {addr}");
    handle.stop();
    join.join()
        .expect("wildcard-bound server stops without clients");
}

#[test]
fn request_quota_closes_the_connection_with_a_typed_error() {
    let tier = SharedTier::new(None, IoPolicy::none());
    let config = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        max_requests_per_conn: 2,
        ..ServeConfig::default()
    };
    let (addr, handle, join) = spawn_server_with(service_config(), tier.clone(), config);

    let mut client = Client::connect(addr);
    for id in [1, 2] {
        let pong = client.request(&format!(r#"{{"req":"ping","id":{id}}}"#));
        assert!(is_ok(&pong), "within quota: {pong:?}");
    }
    let refused = client.request(r#"{"req":"ping","id":3}"#);
    assert_eq!(refused.get("ok").and_then(Json::as_bool), Some(false));
    assert_eq!(
        refused.get("code").and_then(Json::as_str),
        Some("quota_exhausted"),
        "{refused:?}"
    );
    assert_eq!(refused.get("id").and_then(Json::as_u64), Some(3));
    // After the typed error the server closes the connection.
    let mut line = String::new();
    let n = client
        .reader
        .read_line(&mut line)
        .expect("read after quota");
    assert_eq!(
        n, 0,
        "connection closed after quota exhaustion, got {line:?}"
    );
    // The refused request still counted as a request.
    assert_eq!(tier.health().requests, 3);

    // A fresh connection gets a fresh quota.
    let mut again = Client::connect(addr);
    let pong = again.request(r#"{"req":"ping","id":9}"#);
    assert!(is_ok(&pong), "quota is per-connection: {pong:?}");

    handle.stop();
    join.join().expect("server thread exits cleanly");
}

/// A runner configuration slow enough per point that a cancel (or a
/// disconnect) sent after the first result line lands while most of the
/// space is still unevaluated — with one worker, the stop is then
/// observable as strictly fewer evaluated points.
fn slow_sweep_config() -> RunnerConfig {
    RunnerConfig {
        warmup_instructions: 20_000,
        measure_instructions: 400_000,
        ..RunnerConfig::fast()
    }
}

fn single_worker_config() -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        ..ServeConfig::default()
    }
}

#[test]
fn cancelling_a_sweep_stops_the_cursor_and_reports_what_ran() {
    let tier = SharedTier::new(None, IoPolicy::none());
    let (addr, handle, join) =
        spawn_server_with(slow_sweep_config(), tier.clone(), single_worker_config());
    let points = selective_sets_points();

    let mut client = Client::connect(addr);
    client.send(r#"{"req":"sweep","id":11,"app":"ammp","org":"selective_sets"}"#);
    let first = client.recv();
    assert!(is_ok(&first), "{first:?}");
    assert_eq!(kind(&first), "result");
    // Cancel naming the wrong id is answered mid-stream and changes nothing.
    client.send(r#"{"req":"cancel","id":999}"#);
    // Then cancel the sweep itself.
    client.send(r#"{"req":"cancel","id":11}"#);
    let mut results = 1;
    let cancelled = loop {
        let response = client.recv();
        match kind(&response) {
            "result" => results += 1,
            "cancelled" => break response,
            // The unmatched cancel's error line arrives interleaved.
            "" => {
                assert_eq!(response.get("ok").and_then(Json::as_bool), Some(false));
                assert_eq!(response.get("id").and_then(Json::as_u64), Some(999));
            }
            other => panic!("unexpected response kind {other:?}: {response:?}"),
        }
    };
    assert!(is_ok(&cancelled), "{cancelled:?}");
    assert_eq!(cancelled.get("id").and_then(Json::as_u64), Some(11));
    let evaluated = cancelled
        .get("points")
        .and_then(Json::as_u64)
        .expect("cancelled line counts evaluated points") as usize;
    assert_eq!(
        cancelled.get("space_points").and_then(Json::as_u64),
        Some(points as u64)
    );
    // The acceptance criterion: a cancel after the first result provably
    // evaluates fewer points than the space offers.
    assert!(
        evaluated < points,
        "cancel stopped the search: {evaluated} of {points} points"
    );
    assert!(evaluated >= results, "every written result was evaluated");

    // The connection survives cancellation.
    let pong = client.request(r#"{"req":"ping","id":12}"#);
    assert!(is_ok(&pong), "{pong:?}");

    // The tier never simulated the skipped points: fewer sim misses than a
    // full sweep's trace + per-point count.
    let health = tier.health();
    assert!(
        (health.misses as usize) < points + 1,
        "skipped points were never simulated: {health:?}"
    );

    handle.stop();
    join.join().expect("server thread exits cleanly");
}

#[test]
fn client_disconnect_mid_sweep_stops_the_cursor() {
    let tier = SharedTier::new(None, IoPolicy::none());
    let (addr, handle, join) =
        spawn_server_with(slow_sweep_config(), tier.clone(), single_worker_config());
    let points = selective_sets_points();

    {
        let mut client = Client::connect(addr);
        client.send(r#"{"req":"sweep","id":1,"app":"ammp","org":"selective_sets"}"#);
        let first = client.recv();
        assert_eq!(kind(&first), "result");
        // Dropping the client closes the socket mid-stream.
    }

    // The server notices the disconnect at its next poll, stops the search
    // and winds the connection down (observable on the live-connection
    // gauge, which the reaper keeps honest).
    let deadline = Instant::now() + Duration::from_secs(60);
    while handle.open_connections() > 0 {
        assert!(
            Instant::now() < deadline,
            "sweep wound down after the disconnect"
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    let health = tier.health();
    assert!(
        (health.misses as usize) < points + 1,
        "the search stopped before the space was exhausted: {health:?}"
    );
    assert!(
        (health.served as usize) < points + 1,
        "only written results count as served: {health:?}"
    );

    handle.stop();
    join.join().expect("server thread exits cleanly");
}

#[test]
fn lines_sent_mid_sweep_count_against_the_request_quota() {
    let tier = SharedTier::new(None, IoPolicy::none());
    let config = ServeConfig {
        max_requests_per_conn: 2,
        ..single_worker_config()
    };
    let (addr, handle, join) = spawn_server_with(slow_sweep_config(), tier.clone(), config);
    let points = selective_sets_points();

    let mut client = Client::connect(addr);
    client.send(r#"{"req":"sweep","id":1,"app":"ammp","org":"selective_sets"}"#);
    let first = client.recv();
    assert_eq!(kind(&first), "result", "{first:?}");
    // The sweep is request 1 and the first cancel request 2; the second
    // cancel is past the quota, and nothing after it may be answered.
    for id in 100..105 {
        client.send(&format!(r#"{{"req":"cancel","id":{id}}}"#));
    }
    client.send(r#"{"req":"ping","id":7}"#);
    // A connection left open would otherwise hang the test.
    client
        .writer
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    let mut answered = Vec::new();
    loop {
        let mut line = String::new();
        match client.reader.read_line(&mut line) {
            Ok(0) | Err(_) => break,
            Ok(_) => answered.push(Json::parse(line.trim_end()).expect("valid JSON")),
        }
    }
    let errors: Vec<&Json> = answered.iter().filter(|r| kind(r) != "result").collect();
    assert_eq!(
        errors.len(),
        2,
        "one unmatched cancel, then the refusal: {errors:?}"
    );
    assert_eq!(errors[0].get("id").and_then(Json::as_u64), Some(100));
    assert_eq!(errors[0].get("ok").and_then(Json::as_bool), Some(false));
    let refused = errors[1];
    assert_eq!(
        refused.get("code").and_then(Json::as_str),
        Some("quota_exhausted"),
        "{refused:?}"
    );
    assert_eq!(refused.get("id").and_then(Json::as_u64), Some(101));
    assert_eq!(
        kind(answered.last().expect("answered")),
        "",
        "the refusal is the connection's last line: {answered:?}"
    );

    // The refusal stopped the search as a disconnect does: the connection
    // winds down without finishing the space.
    let deadline = Instant::now() + Duration::from_secs(60);
    while handle.open_connections() > 0 {
        assert!(
            Instant::now() < deadline,
            "sweep wound down after the refusal"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    let health = tier.health();
    assert!(
        (health.misses as usize) < points + 1,
        "the search stopped before the space was exhausted: {health:?}"
    );
    // The sweep and the two cancels it read were counted as requests.
    assert_eq!(health.requests, 3, "{health:?}");

    handle.stop();
    join.join().expect("server thread exits cleanly");
}

/// A `dynamic` request for gcc whose miss-bound (512) is above the interval
/// length (256) and so can never be exceeded: every interval decision is a
/// downsize until the size-bound floor, and resize lines deterministically
/// stream before the done line.
fn gcc_dynamic_request(id: u64) -> String {
    format!(r#"{{"req":"dynamic","id":{id},"app":"gcc","interval":256,"miss_bound":512}}"#)
}

/// Reads the response to one `dynamic` request: its resize lines, then its
/// done line.
fn recv_dynamic(client: &mut Client, id: u64) -> (Vec<Json>, Json) {
    let mut resize_lines = Vec::new();
    loop {
        let response = client.recv();
        assert!(is_ok(&response), "{response:?}");
        assert_eq!(response.get("id").and_then(Json::as_u64), Some(id));
        match kind(&response) {
            "resize" => resize_lines.push(response),
            "done" => return (resize_lines, response),
            other => panic!("unexpected response kind {other:?}: {response:?}"),
        }
    }
}

/// The in-process run [`gcc_dynamic_request`] must match: its measurement,
/// every decision its observer saw, and the size-bound the request
/// defaults to (the smallest offered capacity).
fn gcc_dynamic_reference() -> (Measurement, Vec<ResizeDecision>, u64) {
    let system = SystemConfig::base();
    let space = ConfigSpace::enumerate(
        ResizableCacheSide::Data.config_of(&system.hierarchy),
        Organization::SelectiveSets,
    )
    .expect("selective-sets applies to the base d-cache");
    let size_bound = space.min_bytes();
    let params = DynamicParams::new(256, 512, size_bound).expect("valid params");
    let setup = RunSetup {
        dynamic: Some((ResizableCacheSide::Data, space, params)),
        d_tag_bits: ResizableCacheSide::Data
            .config_of(&system.hierarchy)
            .resizing_tag_bits(),
        ..RunSetup::default()
    };
    let mut observed = Vec::new();
    let expected = Runner::new(service_config()).run_dynamic(
        &spec::profile("gcc").expect("gcc is a spec profile"),
        &system,
        &setup,
        |decision| observed.push(*decision),
    );
    (expected, observed, size_bound)
}

#[test]
fn dynamic_request_streams_resizes_and_matches_the_in_process_run() {
    let tier = SharedTier::new(None, IoPolicy::none());
    let (addr, handle, join) = spawn_server(tier);
    let mut client = Client::connect(addr);

    // Protocol errors first — all on a connection that stays usable.
    let bad = client.request(r#"{"req":"dynamic","id":1,"app":"ammp","interval":"soon"}"#);
    assert_eq!(bad.get("ok").and_then(Json::as_bool), Some(false));
    assert!(bad
        .get("error")
        .and_then(Json::as_str)
        .expect("typed error")
        .contains("interval"));
    let zero = client.request(r#"{"req":"dynamic","id":2,"app":"ammp","interval":0}"#);
    assert_eq!(zero.get("ok").and_then(Json::as_bool), Some(false));
    assert_eq!(
        zero.get("code").and_then(Json::as_str),
        Some("out_of_range"),
        "{zero:?}"
    );
    let stray = client.request(r#"{"req":"cancel","id":3}"#);
    assert!(stray
        .get("error")
        .and_then(Json::as_str)
        .expect("typed error")
        .contains("no sweep in flight"));

    client.send(&gcc_dynamic_request(4));
    let (resize_lines, done) = recv_dynamic(&mut client, 4);
    // `decisions` counts every streamed line over the whole run (the
    // downsizing to the floor happens during warm-up); `resizes` is the
    // measurement's measured-region count and may legitimately be smaller.
    assert!(
        !resize_lines.is_empty(),
        "the never-exceeded miss-bound downsizes: {done:?}"
    );
    assert_eq!(
        done.get("decisions").and_then(Json::as_u64),
        Some(resize_lines.len() as u64),
        "{done:?}"
    );
    let resizes = done.get("resizes").and_then(Json::as_u64).expect("resizes");
    // The run settles at the floor: the mean enabled size equals the
    // size-bound, proving the streamed decisions were applied.
    assert_eq!(
        done.get("mean_bytes").and_then(Json::as_u64),
        done.get("params")
            .and_then(|p| p.get("size_bound"))
            .and_then(Json::as_u64),
        "{done:?}"
    );
    let geometry = |p: &Json| {
        (
            p.get("sets").and_then(Json::as_u64).expect("sets"),
            p.get("ways").and_then(Json::as_u64).expect("ways"),
        )
    };
    let accesses = |line: &Json| {
        line.get("accesses")
            .and_then(Json::as_u64)
            .expect("interval boundary")
    };
    let mut last_accesses = 0;
    for line in &resize_lines {
        let accesses = accesses(line);
        assert!(accesses > last_accesses, "decisions arrive in order");
        last_accesses = accesses;
        let from = geometry(line.get("from").expect("from"));
        let to = geometry(line.get("to").expect("to"));
        assert_ne!(from, to, "a resize changes the geometry: {line:?}");
        assert_eq!(
            line.get("miss_bound").and_then(Json::as_u64),
            Some(512),
            "{line:?}"
        );
    }

    // The done line must match the in-process run bit-for-bit.
    let (expected, observed, size_bound) = gcc_dynamic_reference();
    assert_eq!(
        done.get("params")
            .and_then(|p| p.get("size_bound"))
            .and_then(Json::as_u64),
        Some(size_bound),
        "the default size-bound is the smallest offered capacity"
    );
    // `decisions` has one meaning: the decisions of the one run, each
    // streamed as exactly one resize line.
    assert_eq!(
        done.get("decisions").and_then(Json::as_u64),
        Some(observed.len() as u64),
        "{done:?}"
    );
    assert_eq!(resize_lines.len(), observed.len());
    for (line, decision) in resize_lines.iter().zip(&observed) {
        let point = |p: CachePoint| (p.sets, u64::from(p.ways));
        assert_eq!(accesses(line), decision.accesses, "{line:?}");
        assert_eq!(
            geometry(line.get("from").expect("from")),
            point(decision.from),
            "{line:?}"
        );
        assert_eq!(
            geometry(line.get("to").expect("to")),
            point(decision.to),
            "{line:?}"
        );
    }
    assert_eq!(
        done.get("cycles").and_then(Json::as_u64),
        Some(expected.cycles),
        "served dynamic run diverged from the in-process run"
    );
    assert_eq!(resizes, expected.l1d_resizes);
    let ipc = done.get("ipc").and_then(Json::as_f64).expect("ipc");
    assert!(
        (ipc - expected.ipc).abs() < 1e-12,
        "{ipc} vs {}",
        expected.ipc
    );
    let mean_bytes = done
        .get("mean_bytes")
        .and_then(Json::as_f64)
        .expect("mean bytes");
    assert!(
        (mean_bytes - expected.l1d_mean_bytes).abs() < 1e-9,
        "{mean_bytes} vs {}",
        expected.l1d_mean_bytes
    );
    assert!(
        done.get("latency").is_some(),
        "done carries a latency block"
    );

    handle.stop();
    join.join().expect("server thread exits cleanly");
}

#[test]
fn client_leaving_mid_dynamic_lets_the_run_finish() {
    let tier = SharedTier::new(None, IoPolicy::none());
    let (addr, handle, join) = spawn_server(tier);

    {
        let mut client = Client::connect(addr);
        client.send(&gcc_dynamic_request(1));
        let first = client.recv();
        assert_eq!(kind(&first), "resize", "{first:?}");
        // Dropping the client closes the socket mid-stream.
    }

    // The run owns the connection thread, so the connection closes only
    // once the run has finished; the server must not hang or die on the
    // lines it can no longer write.
    let deadline = Instant::now() + Duration::from_secs(60);
    while handle.open_connections() > 0 {
        assert!(
            Instant::now() < deadline,
            "dynamic run wound down after the disconnect"
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    // The next client's identical request gets the whole run.
    let (expected, observed, _) = gcc_dynamic_reference();
    let mut client = Client::connect(addr);
    client.send(&gcc_dynamic_request(2));
    let (resize_lines, done) = recv_dynamic(&mut client, 2);
    assert_eq!(
        done.get("cycles").and_then(Json::as_u64),
        Some(expected.cycles),
        "{done:?}"
    );
    assert_eq!(
        done.get("decisions").and_then(Json::as_u64),
        Some(observed.len() as u64),
        "{done:?}"
    );
    assert_eq!(resize_lines.len(), observed.len());
    let health = client.request(r#"{"req":"health","id":3}"#);
    assert_eq!(
        health.get("connections").and_then(Json::as_u64),
        Some(1),
        "only the asking connection is open: {health:?}"
    );

    drop(client);
    handle.stop();
    join.join().expect("server thread exits cleanly");
}

/// Re-exec target for [`multi_process_servers_share_one_store`]: inert in a
/// normal test run; with `RESCACHE_SWEEP_WORKER_PORT_FILE` set it becomes a
/// server process over a tier persisting to the directory
/// `RESCACHE_SWEEP_WORKER_STORE_DIR` names, publishing its port through the
/// port file (stdout is useless for the handoff — libtest's capture holds
/// it until the test *ends*, and the worker serves until shutdown) and
/// serving until a client sends `shutdown`.
#[test]
fn multiproc_worker() {
    let Ok(port_file) = std::env::var("RESCACHE_SWEEP_WORKER_PORT_FILE") else {
        return;
    };
    let dir = std::env::var_os("RESCACHE_SWEEP_WORKER_STORE_DIR").expect("store directory");
    let runner = Runner::with_store(service_config(), SharedTier::with_dir(Some(dir.into())));
    let config = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        ..ServeConfig::default()
    };
    let server = SweepServer::bind(runner, config).expect("bind worker server");
    let addr = server.local_addr().expect("local addr");
    // Write-then-rename so the parent never reads a half-written port.
    let tmp = format!("{port_file}.tmp");
    std::fs::write(&tmp, addr.port().to_string()).expect("write port file");
    std::fs::rename(&tmp, &port_file).expect("publish port file");
    server.serve().expect("worker serves until shutdown");
}

#[test]
fn multi_process_servers_share_one_store() {
    let dir = std::env::temp_dir().join(format!("rescache-serve-multiproc-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("create shared store directory");

    // Two *processes* (not threads) whose tiers persist to one directory,
    // sharing entries only through the store's atomic saves.
    let exe = std::env::current_exe().expect("test binary path");
    let port_file = |i: usize| {
        std::env::temp_dir().join(format!(
            "rescache-multiproc-port-{}-{i}",
            std::process::id()
        ))
    };
    let spawn_worker = |i: usize| {
        std::fs::remove_file(port_file(i)).ok();
        std::process::Command::new(&exe)
            .args(["multiproc_worker", "--exact", "--test-threads=1"])
            .env("RESCACHE_SWEEP_WORKER_PORT_FILE", port_file(i))
            .env("RESCACHE_SWEEP_WORKER_STORE_DIR", &dir)
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::null())
            .spawn()
            .expect("spawn worker process")
    };
    let mut workers = vec![spawn_worker(0), spawn_worker(1)];
    let mut addrs = Vec::new();
    for i in 0..workers.len() {
        let deadline = Instant::now() + Duration::from_secs(60);
        let port = loop {
            if let Ok(contents) = std::fs::read_to_string(port_file(i)) {
                break contents.trim().parse::<u16>().expect("valid port");
            }
            assert!(
                Instant::now() < deadline,
                "worker {i} published its port before the deadline"
            );
            std::thread::sleep(Duration::from_millis(20));
        };
        addrs.push(SocketAddr::from(([127, 0, 0, 1], port)));
    }

    let points = selective_sets_points();
    let mut per_process_cycles = Vec::new();
    let mut aggregate = (0u64, 0u64, 0u64); // (hits, coalesced, misses)
    for &addr in &addrs {
        let mut client = Client::connect(addr);
        client.send(r#"{"req":"sweep","id":1,"app":"ammp","org":"selective_sets"}"#);
        let mut cycles = Vec::new();
        loop {
            let response = client.recv();
            assert!(is_ok(&response), "{response:?}");
            match kind(&response) {
                "result" => {
                    let point = response.get("point").expect("point");
                    cycles.push((
                        point.get("sets").and_then(Json::as_u64).expect("sets"),
                        point.get("ways").and_then(Json::as_u64).expect("ways"),
                        response
                            .get("cycles")
                            .and_then(Json::as_u64)
                            .expect("cycles"),
                    ));
                }
                "done" => break,
                other => panic!("unexpected response kind {other:?}: {response:?}"),
            }
        }
        assert_eq!(cycles.len(), points);
        cycles.sort_unstable();
        per_process_cycles.push(cycles);

        let health = client.request(r#"{"req":"health"}"#);
        assert!(is_ok(&health), "{health:?}");
        let counter = |name: &str| health.get(name).and_then(Json::as_u64).unwrap_or(0);
        aggregate.0 += counter("hits");
        aggregate.1 += counter("coalesced");
        aggregate.2 += counter("misses");

        let bye = client.request(r#"{"req":"shutdown"}"#);
        assert_eq!(kind(&bye), "bye");
    }

    assert_eq!(
        per_process_cycles[0], per_process_cycles[1],
        "processes sharing the store agree bit-for-bit"
    );
    // The trace was generated by whichever process got there first and
    // *loaded* by the other: strictly fewer aggregate misses than two
    // isolated cold sweeps, and the sibling's load shows up as hits.
    let (hits, coalesced, misses) = aggregate;
    assert!(
        misses < 2 * (points as u64 + 1),
        "the store shared work across processes: {aggregate:?}"
    );
    assert!(
        hits + coalesced > 0,
        "cross-process reuse is visible in the health counters: {aggregate:?}"
    );

    for worker in &mut workers {
        let status = worker.wait().expect("worker exits");
        assert!(
            status.success(),
            "worker process exited cleanly: {status:?}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}
