//! The wire format: request parsers and the functions that build response
//! lines. Nothing here touches a socket or runs a simulation; every `ok`
//! line goes through [`ok_line`] and every refusal through [`error_line`].

use rescache_trace::{spec, AppProfile, WorkloadRegistry};

use crate::experiment::runner::{Measurement, StaticOutcome};
use crate::experiment::shared_tier::StoreHealth;
use crate::json::{obj, Json};
use crate::org::{CachePoint, ConfigSpace, Organization};
use crate::strategy::{DynamicParams, ResizeDecision};
use crate::system::{ResizableCacheSide, SystemConfig};

/// Why a request handler stopped before its normal end.
#[derive(Debug)]
pub(super) enum Stop {
    /// The request cannot be served: answer with one `ok:false` line (with
    /// a machine-readable `code` where one applies) and keep the
    /// connection.
    Refuse {
        code: Option<&'static str>,
        message: String,
    },
    /// Writing to the client failed; the connection ends.
    Io(std::io::Error),
}

impl Stop {
    pub(super) fn refuse(message: impl Into<String>) -> Self {
        Stop::Refuse {
            code: None,
            message: message.into(),
        }
    }

    pub(super) fn out_of_range(message: impl Into<String>) -> Self {
        Stop::Refuse {
            code: Some("out_of_range"),
            message: message.into(),
        }
    }
}

impl From<std::io::Error> for Stop {
    fn from(e: std::io::Error) -> Self {
        Stop::Io(e)
    }
}

/// The (application, system, organization, side) every simulation request
/// names, with protocol defaults applied.
pub(super) struct Target {
    pub(super) app: AppProfile,
    pub(super) system: SystemConfig,
    pub(super) organization: Organization,
    pub(super) side: ResizableCacheSide,
}

/// The fields every simulation request (`point`, `sweep`, `dynamic`) may
/// carry.
const TARGET_FIELDS: [&str; 6] = ["req", "id", "app", "system", "org", "side"];

/// The fields `verb` accepts beyond [`TARGET_FIELDS`].
fn verb_fields(verb: &str) -> &'static [&'static str] {
    match verb {
        "point" => &["sets", "ways"],
        "dynamic" => &["interval", "miss_bound", "size_bound"],
        _ => &[],
    }
}

/// Resolves a `verb` request's simulation target. Refuses a field outside
/// [`TARGET_FIELDS`] and the verb's own, a key given twice, a non-string
/// tag, and anything unresolvable.
pub(super) fn parse_target(request: &Json, verb: &str) -> Result<Target, Stop> {
    let known = |key: &str| TARGET_FIELDS.contains(&key) || verb_fields(verb).contains(&key);
    if let Json::Obj(pairs) = request {
        for (i, (key, _)) in pairs.iter().enumerate() {
            if !known(key) {
                return Err(Stop::refuse(format!("unknown field {key:?}")));
            }
            if pairs[..i].iter().any(|(earlier, _)| earlier == key) {
                return Err(Stop::refuse(format!("duplicate field {key:?}")));
            }
        }
    }
    let name = request
        .get("app")
        .and_then(Json::as_str)
        .ok_or_else(|| Stop::refuse("missing \"app\" field (string)"))?;
    let app = spec::profile(name)
        .or_else(|| WorkloadRegistry::builtin().get(name).map(|w| w.profile()))
        .ok_or_else(|| Stop::refuse(format!("unknown application {name:?}")))?;
    let tag = |field: &str| {
        request
            .get(field)
            .map(|v| {
                v.as_str()
                    .ok_or_else(|| Stop::refuse(format!("\"{field}\" must be a string")))
            })
            .transpose()
    };
    let unknown = |field: &str, tag: &str, want: &str| {
        Stop::refuse(format!("unknown {field} {tag:?} (want {want})"))
    };
    let system = match tag("system")? {
        None | Some("base") => SystemConfig::base(),
        Some("in_order") => SystemConfig::in_order(),
        Some(other) => return Err(unknown("system", other, "base or in_order")),
    };
    let organization = match tag("org")? {
        None | Some("selective_sets") => Organization::SelectiveSets,
        Some("selective_ways") => Organization::SelectiveWays,
        Some("hybrid") => Organization::Hybrid,
        Some(other) => {
            let want = "selective_sets, selective_ways or hybrid";
            return Err(unknown("org", other, want));
        }
    };
    let side = match tag("side")? {
        None | Some("data") => ResizableCacheSide::Data,
        Some("instruction") => ResizableCacheSide::Instruction,
        Some(other) => return Err(unknown("side", other, "data or instruction")),
    };
    Ok(Target {
        app,
        system,
        organization,
        side,
    })
}

/// The configuration space the target's organization offers on its side's
/// cache, refused when inapplicable (e.g. selective-ways on a direct-mapped
/// cache).
pub(super) fn config_space(target: &Target) -> Result<ConfigSpace, Stop> {
    ConfigSpace::enumerate(
        target.side.config_of(&target.system.hierarchy),
        target.organization,
    )
    .map_err(|e| Stop::refuse(format!("cannot enumerate configuration space: {e}")))
}

/// A `point` request's geometry: `None` (the full-size baseline) when
/// `sets`/`ways` are both omitted, else a point the target's configuration
/// space offers. Validating against the space turns a geometry the engines cannot run
/// (non-power-of-two sets, zero ways) into a refusal, not an engine panic.
pub(super) fn parse_point(request: &Json, target: &Target) -> Result<Option<CachePoint>, Stop> {
    let (sets, ways) = match (request.get("sets"), request.get("ways")) {
        (None, None) => return Ok(None),
        (Some(sets), Some(ways)) => sets
            .as_u64()
            .zip(ways.as_u64())
            .ok_or_else(|| Stop::refuse("\"sets\" and \"ways\" must be non-negative integers"))?,
        _ => return Err(Stop::refuse("give both \"sets\" and \"ways\", or neither")),
    };
    // An associativity past u32 is a range error, not "not offered".
    let ways = u32::try_from(ways).map_err(|_| {
        Stop::out_of_range(format!(
            "\"ways\" {ways} exceeds the supported maximum {}",
            u32::MAX
        ))
    })?;
    let point = CachePoint { sets, ways };
    if !config_space(target)?.points().contains(&point) {
        return Err(Stop::refuse(format!(
            "point {}x{} is not offered by {:?} on this cache",
            point.sets, point.ways, target.organization
        )));
    }
    Ok(Some(point))
}

/// An optional non-negative integer field (`None` when absent).
pub(super) fn u64_field(request: &Json, name: &str) -> Result<Option<u64>, Stop> {
    request
        .get(name)
        .map(|v| {
            v.as_u64()
                .ok_or_else(|| Stop::refuse(format!("\"{name}\" must be a non-negative integer")))
        })
        .transpose()
}

/// A successful response line: `id`, `ok`, `kind`, then `fields` in order.
pub(super) fn ok_line(
    id: &Json,
    kind: &str,
    fields: impl IntoIterator<Item = (&'static str, Json)>,
) -> Json {
    obj([
        ("id", id.clone()),
        ("ok", Json::Bool(true)),
        ("kind", Json::Str(kind.into())),
    ]
    .into_iter()
    .chain(fields))
}

/// A typed `ok:false` response line, with a machine-readable `code`
/// (`"out_of_range"`, `"quota_exhausted"`) where one applies.
pub(super) fn error_line(id: &Json, code: Option<&str>, message: &str) -> Json {
    obj([("id", id.clone()), ("ok", Json::Bool(false))]
        .into_iter()
        .chain(code.map(|code| ("code", Json::Str(code.into()))))
        .chain([("error", Json::Str(message.into()))]))
}

/// A cache geometry as a `{"sets","ways"}` object.
pub(super) fn point_json(point: CachePoint) -> Json {
    obj([
        ("sets", Json::Num(point.sets as f64)),
        ("ways", Json::Num(f64::from(point.ways))),
    ])
}

/// A measurement's latency-domain counters as a response sub-object.
fn latency_block(m: &Measurement) -> Json {
    let l = &m.latency;
    obj([
        ("delayed_hits", Json::Num(l.delayed_hits as f64)),
        ("delayed_hit_cycles", Json::Num(l.delayed_hit_cycles as f64)),
        (
            "mean_delayed_hit_cycles",
            Json::Num(l.mean_delayed_hit_cycles()),
        ),
        ("d_primary_misses", Json::Num(l.d_primary_misses as f64)),
        ("d_miss_cycles", Json::Num(l.d_miss_cycles as f64)),
        ("mean_miss_cycles", Json::Num(l.mean_miss_cycles())),
    ])
}

/// One measurement as a `kind:"result"` line (`point` `None` is the
/// full-size baseline).
pub(super) fn result_line(id: &Json, point: Option<CachePoint>, m: &Measurement) -> Json {
    ok_line(
        id,
        "result",
        [
            ("point", point.map_or(Json::Str("full".into()), point_json)),
            ("cycles", Json::Num(m.cycles as f64)),
            ("ipc", Json::Num(m.ipc)),
            ("energy_pj", Json::Num(m.energy_pj)),
            ("edp", Json::Num(m.energy_delay().product())),
            ("l1d_miss_ratio", Json::Num(m.l1d_miss_ratio)),
            ("l1i_miss_ratio", Json::Num(m.l1i_miss_ratio)),
            ("latency", latency_block(m)),
        ],
    )
}

/// The tier's [`StoreHealth`] (plus the server's live connection gauge) as
/// a `kind:"health"` line.
pub(super) fn health_line(id: &Json, health: &StoreHealth, open_connections: usize) -> Json {
    let hit_rate = health.result_cache_hit_rate().map_or(Json::Null, Json::Num);
    ok_line(
        id,
        "health",
        [
            ("connections", Json::Num(open_connections as f64)),
            ("hits", Json::Num(health.hits as f64)),
            ("misses", Json::Num(health.misses as f64)),
            ("coalesced", Json::Num(health.coalesced as f64)),
            ("requests", Json::Num(health.requests as f64)),
            ("served", Json::Num(health.served as f64)),
            ("evictions", Json::Num(health.evictions as f64)),
            ("regenerations", Json::Num(health.regenerations as f64)),
            ("warnings", Json::Num(health.warnings as f64)),
            ("degraded", Json::Bool(health.degraded)),
            ("result_cache_hit_rate", hit_rate),
        ],
    )
}

/// A finished sweep's `kind:"done"` summary of the search's outcome: the
/// number of evaluated points, the chosen minimum-EDP point and its EDP
/// reduction against the full-size base.
pub(super) fn sweep_done_line(id: &Json, outcome: &StaticOutcome) -> Json {
    let best = &outcome.best;
    ok_line(
        id,
        "done",
        [
            ("points", Json::Num(outcome.evaluated.len() as f64)),
            ("best", point_json(best.choice)),
            (
                "best_score",
                Json::Num(best.measurement.energy_delay().product()),
            ),
            (
                "edp_reduction_percent",
                Json::Num(best.edp_reduction_percent),
            ),
        ],
    )
}

/// A cancelled sweep's line: `points` evaluated of the space's `space_points`.
pub(super) fn cancelled_line(id: &Json, points: usize, space_points: usize) -> Json {
    ok_line(
        id,
        "cancelled",
        [
            ("points", Json::Num(points as f64)),
            ("space_points", Json::Num(space_points as f64)),
        ],
    )
}

/// One controller decision as a streamed `kind:"resize"` line.
pub(super) fn resize_line(id: &Json, decision: &ResizeDecision) -> Json {
    ok_line(
        id,
        "resize",
        [
            ("accesses", Json::Num(decision.accesses as f64)),
            (
                "interval_signal",
                Json::Num(decision.interval_signal as f64),
            ),
            ("miss_bound", Json::Num(decision.miss_bound as f64)),
            ("from", point_json(decision.from)),
            ("to", point_json(decision.to)),
        ],
    )
}

/// A dynamic run's `kind:"done"` line: the measurement `m` of the run on
/// `target.side` with `params`, `decisions` streamed resize lines, and the
/// EDP reduction against the full-size `base`.
pub(super) fn dynamic_done_line(
    id: &Json,
    target: &Target,
    params: &DynamicParams,
    decisions: u64,
    m: &Measurement,
    base: &Measurement,
) -> Json {
    let (resizes, mean_bytes) = match target.side {
        ResizableCacheSide::Data => (m.l1d_resizes, m.l1d_mean_bytes),
        ResizableCacheSide::Instruction => (m.l1i_resizes, m.l1i_mean_bytes),
    };
    let reduction = m.energy_delay().reduction_vs(&base.energy_delay());
    ok_line(
        id,
        "done",
        [
            ("resizes", Json::Num(resizes as f64)),
            ("decisions", Json::Num(decisions as f64)),
            ("cycles", Json::Num(m.cycles as f64)),
            ("ipc", Json::Num(m.ipc)),
            ("energy_pj", Json::Num(m.energy_pj)),
            ("edp", Json::Num(m.energy_delay().product())),
            ("mean_bytes", Json::Num(mean_bytes)),
            ("edp_reduction_percent", Json::Num(reduction)),
            (
                "params",
                obj([
                    ("interval", Json::Num(params.interval_accesses as f64)),
                    ("miss_bound", Json::Num(params.miss_bound as f64)),
                    ("size_bound", Json::Num(params.size_bound_bytes as f64)),
                ]),
            ),
            ("latency", latency_block(m)),
        ],
    )
}
