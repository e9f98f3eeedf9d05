//! Output checks of the serve workloads: every answered request is
//! recomputed in-process by a fresh [`Runner`] of the same commit and seed
//! (`run_static`, `static_best`, `run_dynamic_observed`), after the timed
//! phases, and every result and `done` line must match it exactly. The
//! reference is this build's own runner, not stored goldens, so a
//! deliberate model change still passes.

use std::collections::{HashMap, HashSet};
use std::sync::mpsc;

use rescache_core::experiment::{
    parallel_map, Measurement, RunSetup, Runner, RunnerConfig, StaticOutcome, TraceStore,
};
use rescache_core::json::Json;
use rescache_core::{CachePoint, DynamicParams, ResizableCacheSide};
use rescache_energy::Objective;

use crate::report::Outcome;
use crate::requests::{Kind, Request};
use crate::serve::Sample;
use crate::spans::Recorder;

/// What the reference computation did.
#[derive(Debug, Default)]
pub struct Reference {
    /// Static simulations the reference runner executed.
    pub sims_executed: u64,
    /// Resize decisions its dynamic runs streamed.
    pub decisions: u64,
    /// Measured-region resizes of its dynamic runs.
    pub resizes: u64,
}

enum Expected {
    Point(Measurement),
    Sweep(StaticOutcome),
    Dynamic {
        measurement: Measurement,
        base: Measurement,
        params: DynamicParams,
        decisions: u64,
    },
}

fn tag_bits(request: &Request) -> u32 {
    if request.org.needs_resizing_tag_bits() {
        ResizableCacheSide::Data
            .config_of(&request.system.config().hierarchy)
            .resizing_tag_bits()
    } else {
        0
    }
}

/// Computes the answer the service should have given, the way the service
/// derives it (same defaults for the dynamic controller's parameters).
fn expected(runner: &Runner, request: &Request) -> Expected {
    let app = request.profile();
    let system = request.system.config();
    match request.kind {
        Kind::Point => {
            let bits = if request.point.is_some() {
                tag_bits(request)
            } else {
                0
            };
            Expected::Point(runner.run_static(&app, &system, request.point, None, bits, 0))
        }
        Kind::Sweep => Expected::Sweep(
            runner
                .static_best(&app, &system, request.org, ResizableCacheSide::Data)
                .expect("generated sweeps are applicable"),
        ),
        Kind::Dynamic => {
            let space = request.space();
            let interval = runner.config().dynamic_interval;
            let base = runner.run_static(&app, &system, None, None, 0, 0);
            let miss_bound = (base.l1d_miss_ratio.max(1e-4) * interval as f64)
                .ceil()
                .max(1.0) as u64;
            let size_bound = space.snap_size_bound(space.min_bytes());
            let params = DynamicParams::new(interval, miss_bound, size_bound)
                .expect("the default interval is positive");
            let setup = RunSetup {
                dynamic: Some((ResizableCacheSide::Data, space, params)),
                d_tag_bits: tag_bits(request),
                ..RunSetup::default()
            };
            let (tx, rx) = mpsc::channel();
            let measurement = runner.run_dynamic_observed(&app, &system, &setup, Some(&tx));
            drop(tx);
            Expected::Dynamic {
                measurement,
                base,
                params,
                decisions: rx.iter().count() as u64,
            }
        }
    }
}

fn num(line: &Json, key: &str) -> Option<f64> {
    line.get(key).and_then(Json::as_f64)
}

/// Whether a `kind:"result"` line carries exactly this measurement.
fn result_matches(line: &Json, m: &Measurement) -> bool {
    let latency = line.get("latency");
    let lat = |key: &str| latency.and_then(|l| num(l, key));
    num(line, "cycles") == Some(m.cycles as f64)
        && num(line, "ipc") == Some(m.ipc)
        && num(line, "energy_pj") == Some(m.energy_pj)
        && num(line, "edp") == Some(m.energy_delay().product())
        && num(line, "l1d_miss_ratio") == Some(m.l1d_miss_ratio)
        && num(line, "l1i_miss_ratio") == Some(m.l1i_miss_ratio)
        && lat("delayed_hits") == Some(m.latency.delayed_hits as f64)
        && lat("delayed_hit_cycles") == Some(m.latency.delayed_hit_cycles as f64)
        && lat("d_primary_misses") == Some(m.latency.d_primary_misses as f64)
        && lat("d_miss_cycles") == Some(m.latency.d_miss_cycles as f64)
}

fn point_of(line: &Json) -> Option<CachePoint> {
    let p = line.get("point")?;
    Some(CachePoint {
        sets: p.get("sets")?.as_u64()?,
        ways: u32::try_from(p.get("ways")?.as_u64()?).ok()?,
    })
}

/// Checks one answered request's lines; `Err` names the first mismatch.
fn check_sample(lines: &[Json], expected: &Expected) -> Result<(), String> {
    let (last, body) = lines.split_last().ok_or("no response lines")?;
    match expected {
        Expected::Point(m) => result_matches(last, m)
            .then_some(())
            .ok_or_else(|| "point result differs from the runner".into()),
        Expected::Sweep(outcome) => {
            if body.len() != outcome.evaluated.len() {
                return Err(format!(
                    "{} result lines for {} points",
                    body.len(),
                    outcome.evaluated.len()
                ));
            }
            for line in body {
                let point = point_of(line).ok_or("result line without a point")?;
                let (_, m) = outcome
                    .evaluated
                    .iter()
                    .find(|(p, _)| *p == point)
                    .ok_or_else(|| format!("point {point} is not in the space"))?;
                if !result_matches(line, m) {
                    return Err(format!("result for {point} differs from the runner"));
                }
            }
            let best = &outcome.best;
            let best_score = best.measurement.score(Objective::Edp);
            // Equal scores may rank in any order; the score decides.
            let best_point = last.get("best").and_then(|b| {
                Some(CachePoint {
                    sets: b.get("sets")?.as_u64()?,
                    ways: u32::try_from(b.get("ways")?.as_u64()?).ok()?,
                })
            });
            let named_score = outcome
                .evaluated
                .iter()
                .find(|(p, _)| Some(*p) == best_point)
                .map(|(_, m)| m.score(Objective::Edp));
            let ok = last.get("kind").and_then(Json::as_str) == Some("done")
                && num(last, "points") == Some(outcome.evaluated.len() as f64)
                && named_score == Some(best_score)
                && num(last, "best_score") == Some(best_score)
                && num(last, "edp_reduction_percent") == Some(best.edp_reduction_percent);
            ok.then_some(())
                .ok_or_else(|| "sweep summary differs from static_best".into())
        }
        Expected::Dynamic {
            measurement: m,
            base,
            params,
            decisions,
        } => {
            let resize_lines = body
                .iter()
                .filter(|l| l.get("kind").and_then(Json::as_str) == Some("resize"))
                .count() as f64;
            let p = last.get("params");
            let param = |key: &str| p.and_then(|p| num(p, key));
            let ok = last.get("kind").and_then(Json::as_str) == Some("done")
                && resize_lines == *decisions as f64
                && num(last, "decisions") == Some(*decisions as f64)
                && num(last, "resizes") == Some(m.l1d_resizes as f64)
                && num(last, "cycles") == Some(m.cycles as f64)
                && num(last, "ipc") == Some(m.ipc)
                && num(last, "energy_pj") == Some(m.energy_pj)
                && num(last, "edp") == Some(m.energy_delay().product())
                && num(last, "mean_bytes") == Some(m.l1d_mean_bytes)
                && num(last, "edp_reduction_percent")
                    == Some(m.energy_delay().reduction_vs(&base.energy_delay()))
                && param("interval") == Some(params.interval_accesses as f64)
                && param("miss_bound") == Some(params.miss_bound as f64)
                && param("size_bound") == Some(params.size_bound_bytes as f64);
            ok.then_some(())
                .ok_or_else(|| "dynamic summary differs from run_dynamic".into())
        }
    }
}

/// Recomputes every distinct answered request and checks every answered
/// sample against it, counting mismatches as failures.
pub fn check(
    samples: &[&Sample],
    config: RunnerConfig,
    rec: &Recorder,
    outcome: &mut Outcome,
) -> Reference {
    let answered: Vec<&Sample> = samples
        .iter()
        .copied()
        .filter(|s| s.error.is_none())
        .collect();
    let distinct: HashSet<&Request> = answered.iter().map(|s| &s.request).collect();
    // Sweeps first, so points and dynamic baselines reuse their memos.
    let (sweeps, others): (Vec<&Request>, Vec<&Request>) =
        distinct.into_iter().partition(|r| r.kind == Kind::Sweep);
    let runner = Runner::with_store(config, TraceStore::with_dir(None));
    let computed: Vec<(&Request, Expected)> = rec.time("runner.reference", 0, || {
        let mut all = parallel_map(&sweeps, |r| (*r, expected(&runner, r)));
        all.extend(parallel_map(&others, |r| (*r, expected(&runner, r))));
        all
    });
    let by_request: HashMap<&Request, &Expected> = computed.iter().map(|(r, e)| (*r, e)).collect();

    let mut reference = Reference::default();
    for (_, expected) in &computed {
        if let Expected::Dynamic {
            measurement,
            decisions,
            ..
        } = expected
        {
            reference.decisions += decisions;
            reference.resizes += measurement.l1d_resizes;
        }
    }
    let mut apps: Vec<&str> = computed.iter().map(|(r, _)| r.app).collect();
    apps.sort_unstable();
    apps.dedup();
    // A fresh in-memory runner misses once per trace it generates.
    reference.sims_executed = runner
        .trace_store()
        .health()
        .misses
        .saturating_sub(apps.len() as u64);

    for sample in answered {
        let lines: Result<Vec<Json>, _> = sample.lines.iter().map(|l| Json::parse(l)).collect();
        let verdict = match lines {
            Ok(lines) => check_sample(&lines, by_request[&sample.request]),
            Err(e) => Err(format!("unparsable line: {e}")),
        };
        if let Err(e) = verdict {
            outcome.fail(format!("{:?}: {e}", sample.request));
        }
    }
    reference
}
