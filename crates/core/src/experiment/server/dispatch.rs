//! The verb handlers: the one server layer that runs simulations. Each
//! handler returns `Result<Flow, Stop>`; [`dispatch`] writes the one
//! `ok:false` line for a refusal.

use std::sync::{mpsc, Mutex, PoisonError};

use super::connection::{poll_control, Conn, Flow, SweepEnd};
use super::protocol::{
    cancelled_line, config_space, dynamic_done_line, error_line, health_line, ok_line, parse_point,
    parse_target, resize_line, result_line, sweep_done_line, u64_field, Stop, Target,
};
use crate::experiment::runner::{Measurement, RunSetup, Runner};
use crate::experiment::shared_tier::HealthCounters;
use crate::json::Json;
use crate::org::CachePoint;
use crate::strategy::{DynamicParams, ResizeDecision};
use crate::system::ResizableCacheSide;

/// Parses and executes one request line, writing the response line(s).
pub(super) fn dispatch(runner: &Runner, line: &str, conn: &mut Conn) -> std::io::Result<Flow> {
    let request = Json::parse(line).map_err(|e| Stop::refuse(format!("malformed request: {e}")));
    let id = request
        .as_ref()
        .ok()
        .and_then(|r| r.get("id").cloned())
        .unwrap_or(Json::Null);
    match request.and_then(|request| serve(runner, &request, &id, conn)) {
        Ok(flow) => Ok(flow),
        Err(Stop::Refuse { code, message }) => {
            conn.send(&error_line(&id, code, &message))?;
            Ok(Flow::Continue)
        }
        Err(Stop::Io(e)) => Err(e),
    }
}

/// Routes one parsed request to its verb.
fn serve(runner: &Runner, request: &Json, id: &Json, conn: &mut Conn) -> Result<Flow, Stop> {
    match request.get("req").and_then(Json::as_str).unwrap_or("") {
        "ping" => conn.send(&ok_line(id, "pong", []))?,
        "health" => {
            let health = runner.trace_store().health();
            conn.send(&health_line(id, &health, conn.handle.open_connections()))?;
        }
        "shutdown" => {
            conn.send(&ok_line(id, "bye", []))?;
            return Ok(Flow::Shutdown);
        }
        verb @ ("point" | "sweep" | "dynamic") => {
            let target = parse_target(request, verb)?;
            match verb {
                "point" => {
                    // One simulation (the baseline when `sets`/`ways` are
                    // omitted), one `kind:"result"` line.
                    let point = parse_point(request, &target)?;
                    let measurement = run_point(runner, &target, point);
                    health(runner).note_served();
                    conn.send(&result_line(id, point, &measurement))?;
                }
                "sweep" => return serve_sweep(runner, id, &target, conn),
                _ => return serve_dynamic(runner, request, id, &target, conn),
            }
        }
        // A matching cancel is consumed *inside* serve_sweep's poll;
        // reaching dispatch means nothing is in flight here.
        "cancel" => {
            return Err(Stop::refuse(
                "no sweep in flight to cancel on this connection",
            ))
        }
        "" => return Err(Stop::refuse("missing \"req\" field (string)")),
        other => {
            return Err(Stop::refuse(format!(
                "unknown request {other:?} (want ping, health, point, sweep, dynamic, cancel or \
                 shutdown)"
            )))
        }
    }
    Ok(Flow::Continue)
}

fn health(runner: &Runner) -> &HealthCounters {
    runner.trace_store().counters()
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

/// Serves a `sweep` request: runs [`Runner::static_best`]'s own search over
/// [`ServeConfig::workers`](super::ServeConfig::workers) threads (one runs
/// inline on the connection thread), streams each `kind:"result"` line as
/// its simulation completes (coalescing with every concurrent request
/// through the tier memos), then writes the `kind:"done"` summary of the
/// search's outcome, whose minimum-EDP point is the one `static_best` names.
///
/// The worker that finishes a point takes the connection's lock and polls
/// it without waiting (see `Conn::poll_line`) before writing the point's
/// line: a `cancel` naming this sweep's id stops the search, so only the
/// points already in flight finish, and the sweep answers with a
/// `kind:"cancelled"` line counting what was evaluated. The client
/// disconnecting, sending a line past its quota, or a server shutdown stops
/// the search the same way and closes the connection.
fn serve_sweep(runner: &Runner, id: &Json, target: &Target, conn: &mut Conn) -> Result<Flow, Stop> {
    let space_points = config_space(target)?.len();
    let health = health(runner);
    // The search runs the full-size baseline first.
    health.note_served();

    let workers = conn.config.workers;
    let stream = Mutex::new((conn, None::<SweepEnd>));
    let outcome = runner
        .static_search(
            &target.app,
            &target.system,
            target.organization,
            target.side,
            workers,
            |point, measurement| {
                // A poisoned lock means a worker panicked mid-write; that
                // panic ends the connection, so start no further point.
                let Ok(mut guard) = stream.lock() else {
                    return false;
                };
                let (conn, end) = &mut *guard;
                // A cancel racing a result must win: check the connection
                // before writing the line.
                if end.is_none() {
                    *end = poll_control(conn, health, id);
                }
                if end.is_some() {
                    return false;
                }
                health.note_served();
                if let Err(e) = conn.send(&result_line(id, Some(point), measurement)) {
                    *end = Some(SweepEnd::WriteFailed(e));
                    return false;
                }
                true
            },
        )
        .map_err(|e| Stop::refuse(format!("cannot enumerate configuration space: {e}")))?;
    let (conn, end) = stream.into_inner().unwrap_or_else(PoisonError::into_inner);
    match end {
        Some(SweepEnd::WriteFailed(e)) => Err(Stop::Io(e)),
        // The client is gone or was refused; the in-flight results already
        // drained into the shared tier for the next client.
        Some(SweepEnd::Closed) => Ok(Flow::Close),
        Some(SweepEnd::Cancelled) => {
            conn.send(&cancelled_line(id, outcome.evaluated.len(), space_points))?;
            Ok(Flow::Continue)
        }
        None => {
            conn.send(&sweep_done_line(id, &outcome))?;
            Ok(Flow::Continue)
        }
    }
}

/// Serves a `dynamic` request: runs the miss-ratio resizing controller for
/// the target (parameters from the request, with profiling-style defaults),
/// streaming every resize decision back as a `kind:"resize"` line while the
/// simulation runs, then a `kind:"done"` line with the measurement.
///
/// Dynamic runs are not memoized (the controller's trajectory is the whole
/// point), so every `dynamic` request simulates; only the *trace* is shared
/// through the tier. The two counters in the `done` line differ on purpose:
/// `decisions` counts every line streamed over the one run (warm-up
/// included), while `resizes` is the measurement's measured-region count —
/// a run that settles at its size floor during warm-up streams decisions
/// but reports zero measured resizes, exactly as the in-process
/// [`Runner::run_dynamic_observed`] would.
fn serve_dynamic(
    runner: &Runner,
    request: &Json,
    id: &Json,
    target: &Target,
    conn: &mut Conn,
) -> Result<Flow, Stop> {
    let space = config_space(target)?;
    let interval = u64_field(request, "interval")?.unwrap_or(runner.config().dynamic_interval);
    let miss_bound = u64_field(request, "miss_bound")?;
    let size_bound = u64_field(request, "size_bound")?;
    // The full-size baseline anchors the default miss-bound (the profiling
    // derivation: expected misses per interval at full size) and the done
    // line's EDP reduction.
    let base = run_point(runner, target, None);
    health(runner).note_served();
    let base_miss_ratio = match target.side {
        ResizableCacheSide::Data => base.l1d_miss_ratio,
        ResizableCacheSide::Instruction => base.l1i_miss_ratio,
    };
    let miss_bound = miss_bound.unwrap_or_else(|| {
        DynamicParams::interval_misses(interval, base_miss_ratio).max(1.0) as u64
    });
    // Snap to an offered capacity, exactly as the profiling candidates do:
    // an in-between bound rounds up, an over-full bound clamps to full.
    let size_bound = space.snap_size_bound(size_bound.unwrap_or(space.min_bytes()));
    let params = DynamicParams::new(interval, miss_bound, size_bound)
        .map_err(|e| Stop::out_of_range(e.to_string()))?;
    let setup = RunSetup::dynamic(target.side, space, params);

    let (tx, rx) = mpsc::channel::<ResizeDecision>();
    let mut decisions = 0u64;
    let mut write_error: Option<std::io::Error> = None;
    let outcome = std::thread::scope(|scope| {
        let setup = &setup;
        let sim = scope.spawn(move || {
            // `tx` moves in and drops when the run completes, which is what
            // ends the drain loop below.
            runner.run_dynamic_observed(&target.app, &target.system, setup, Some(&tx))
        });
        for decision in &rx {
            if write_error.is_some() {
                // The client is gone mid-stream; the simulation cannot be
                // aborted (it owns no cancellation point), so drain quietly
                // and let the run finish into the shared trace state.
                continue;
            }
            decisions += 1;
            if let Err(e) = conn.send(&resize_line(id, &decision)) {
                write_error = Some(e);
            }
        }
        sim.join()
    });
    // A panicked simulation thread is a bug, not a protocol error; the
    // connection survives to report it.
    let measurement = outcome.map_err(|_| Stop::refuse("internal error: dynamic run failed"))?;
    if let Some(e) = write_error {
        return Err(Stop::Io(e));
    }
    health(runner).note_served();
    let done = dynamic_done_line(id, target, &params, decisions, &measurement, &base);
    conn.send(&done)?;
    Ok(Flow::Continue)
}
