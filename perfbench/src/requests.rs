//! The seeded request generator: the sweep-service requests the serve
//! workloads send. The same seed gives the same requests in the same order;
//! the server only ever sees these generated lines.

use rescache_core::json::{obj, Json};
use rescache_core::{CachePoint, ConfigSpace, Organization, ResizableCacheSide, SystemConfig};
use rescache_trace::{spec, AppProfile, Prng, WorkloadRegistry};

/// What a request asks the service for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Kind {
    Sweep,
    Point,
    Dynamic,
}

/// The two processors the service offers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum System {
    Base,
    InOrder,
}

impl System {
    pub const ALL: [System; 2] = [System::Base, System::InOrder];

    pub fn tag(self) -> &'static str {
        match self {
            System::Base => "base",
            System::InOrder => "in_order",
        }
    }

    /// The configuration the service resolves the tag to (with LRU, the
    /// policy the service uses when `RESCACHE_POLICY` is unset).
    pub fn config(self) -> SystemConfig {
        match self {
            System::Base => SystemConfig::base(),
            System::InOrder => SystemConfig::in_order(),
        }
    }
}

/// The organizations the service offers.
pub const ORGS: [Organization; 3] = [
    Organization::SelectiveSets,
    Organization::SelectiveWays,
    Organization::Hybrid,
];

pub fn org_tag(org: Organization) -> &'static str {
    match org {
        Organization::SelectiveSets => "selective_sets",
        Organization::SelectiveWays => "selective_ways",
        Organization::Hybrid => "hybrid",
    }
}

/// The applications the service resolves: the twelve spec profiles, then
/// the registry workloads.
pub fn app_names() -> Vec<&'static str> {
    let mut names: Vec<&'static str> = spec::APP_NAMES.to_vec();
    names.extend(WorkloadRegistry::builtin().names());
    names
}

/// Resolves an application name the way the service does.
pub fn profile(app: &str) -> Option<AppProfile> {
    spec::profile(app).or_else(|| WorkloadRegistry::builtin().get(app).map(|w| w.profile()))
}

/// One generated request. Every request resizes the data cache.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Request {
    pub kind: Kind,
    pub app: &'static str,
    pub org: Organization,
    pub system: System,
    /// The point a `point` request asks for; `None` asks for the full-size
    /// baseline.
    pub point: Option<CachePoint>,
}

impl Request {
    /// The request line, with `id` echoed back on every response line.
    pub fn to_json(&self, id: u64) -> Json {
        let verb = match self.kind {
            Kind::Sweep => "sweep",
            Kind::Point => "point",
            Kind::Dynamic => "dynamic",
        };
        let mut fields = vec![
            ("req", Json::Str(verb.into())),
            ("id", Json::Num(id as f64)),
            ("app", Json::Str(self.app.into())),
            ("org", Json::Str(org_tag(self.org).into())),
            ("system", Json::Str(self.system.tag().into())),
        ];
        if let Some(p) = self.point {
            fields.push(("sets", Json::Num(p.sets as f64)));
            fields.push(("ways", Json::Num(f64::from(p.ways))));
        }
        obj(fields)
    }

    pub fn profile(&self) -> AppProfile {
        profile(self.app).expect("generated requests name known applications")
    }

    pub fn space(&self) -> ConfigSpace {
        space(self.org, self.system).expect("generated requests name applicable organizations")
    }
}

/// The data-cache configuration space `org` offers on `system`.
pub fn space(org: Organization, system: System) -> Option<ConfigSpace> {
    let cache = ResizableCacheSide::Data.config_of(&system.config().hierarchy);
    ConfigSpace::enumerate(cache, org).ok()
}

/// Whether the service accepts `request`: the application resolves, the
/// organization applies to the data cache, and a point is one the space
/// offers.
#[cfg(test)]
fn accepts(request: &Request) -> Result<(), String> {
    profile(request.app).ok_or_else(|| format!("unknown application {:?}", request.app))?;
    let space = space(request.org, request.system)
        .ok_or_else(|| format!("{:?} does not apply", request.org))?;
    match (request.kind, request.point) {
        (Kind::Point, Some(p)) if !space.points().contains(&p) => {
            Err(format!("point {p} is not offered by {:?}", request.org))
        }
        (Kind::Point, _) => Ok(()),
        (_, Some(_)) => Err("only point requests name a point".into()),
        (_, None) => Ok(()),
    }
}

fn shuffle<T>(items: &mut [T], rng: &mut Prng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.below_usize(i + 1));
    }
}

fn pairs() -> Vec<(&'static str, System)> {
    app_names()
        .into_iter()
        .flat_map(|app| System::ALL.map(|system| (app, system)))
        .collect()
}

/// The hot set: two sweep targets per organization, each on its own
/// application (so every seed keeps the same number of traces resident).
pub fn hot_targets(seed: u64) -> Vec<Request> {
    let mut rng = Prng::new(seed ^ 0x4854_4f54);
    let mut pairs = pairs();
    shuffle(&mut pairs, &mut rng);
    let mut pairs = pairs.into_iter();
    let mut targets = Vec::new();
    for org in ORGS {
        while targets.iter().filter(|t: &&Request| t.org == org).count() < 2 {
            let (app, system) = pairs.next().expect("enough pairs for the hot set");
            if space(org, system).is_some() && targets.iter().all(|t| t.app != app) {
                targets.push(Request {
                    kind: Kind::Sweep,
                    app,
                    org,
                    system,
                    point: None,
                });
            }
        }
    }
    targets
}

/// The hot mix of one client: sweeps and points in turn over the hot set,
/// every one of them already memoized once the set is warm.
pub struct HotMix {
    targets: Vec<Request>,
    rng: Prng,
    sent: u64,
}

impl HotMix {
    pub fn new(seed: u64, client: u64) -> Self {
        Self {
            targets: hot_targets(seed),
            rng: Prng::new(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (client + 1)),
            sent: 0,
        }
    }

    pub fn next_request(&mut self) -> Request {
        let target = &self.targets[self.rng.below_usize(self.targets.len())];
        self.sent += 1;
        if self.sent % 2 == 1 {
            return target.clone();
        }
        let points = target.space().points().to_vec();
        // One draw in `points + 1` asks for the full-size baseline.
        let pick = self.rng.below_usize(points.len() + 1);
        Request {
            kind: Kind::Point,
            point: points.get(pick).copied(),
            ..target.clone()
        }
    }
}

/// Rounds of eight requests in one cold sequence.
const COLD_ROUNDS: usize = 2;

/// Requests in one cold sequence: the rounds, then the revisit.
pub const COLD_EPOCH: usize = 8 * COLD_ROUNDS + 1;

/// One cold sequence: [`COLD_EPOCH`] distinct targets in a seeded order,
/// each on a different application. The first sixteen come in rounds of
/// eight — a sweep per organization, three points, two dynamic runs —
/// shuffled within the round, and each is the first request to ask for its
/// application's trace and simulations. The last is the *revisit*: a
/// dynamic run on an application whose full-size baseline the epoch's
/// set-up simulated (see [`revisit_baseline`]), so its trace is already in
/// the store. Systems, the organizations of points and dynamic runs, and the
/// points themselves (never the full size) are drawn from the seed.
pub fn cold_sequence(seed: u64) -> Vec<Request> {
    let mut rng = Prng::new(seed ^ 0x434f_4c44);
    let mut apps = app_names();
    shuffle(&mut apps, &mut rng);
    let mut out = Vec::with_capacity(COLD_EPOCH);
    for _ in 0..COLD_ROUNDS {
        let mut round = [
            (Kind::Sweep, Some(Organization::SelectiveSets)),
            (Kind::Sweep, Some(Organization::SelectiveWays)),
            (Kind::Sweep, Some(Organization::Hybrid)),
            (Kind::Point, None),
            (Kind::Point, None),
            (Kind::Point, None),
            (Kind::Dynamic, None),
            (Kind::Dynamic, None),
        ];
        shuffle(&mut round, &mut rng);
        for (kind, org) in round {
            let app = apps.pop().expect("more applications than requests");
            let system = System::ALL[rng.below_usize(System::ALL.len())];
            let org = org.unwrap_or(ORGS[rng.below_usize(ORGS.len())]);
            let space = space(org, system).expect("every organization applies to the data cache");
            let point = (kind == Kind::Point).then(|| {
                let full = space.points()[space.full_index()];
                let smaller: Vec<CachePoint> = space
                    .points()
                    .iter()
                    .copied()
                    .filter(|p| *p != full)
                    .collect();
                smaller[rng.below_usize(smaller.len())]
            });
            out.push(Request {
                kind,
                app,
                org,
                system,
                point,
            });
        }
    }
    let system = System::ALL[rng.below_usize(System::ALL.len())];
    out.push(Request {
        kind: Kind::Dynamic,
        app: apps.pop().expect("more applications than requests"),
        org: ORGS[rng.below_usize(ORGS.len())],
        system,
        point: None,
    });
    out
}

/// The request an epoch's set-up sends for a cold sequence: the full-size
/// baseline of the revisit's application and system. It persists the
/// application's store entry and memoizes the baseline, so the revisit
/// simulates only its dynamic run, streaming the trace from the store.
pub fn revisit_baseline(sequence: &[Request]) -> Request {
    let revisit = sequence.last().expect("a cold sequence is not empty");
    Request {
        kind: Kind::Point,
        point: None,
        ..revisit.clone()
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashSet;

    use super::*;

    #[test]
    fn generators_are_deterministic_per_seed() {
        assert_eq!(cold_sequence(7), cold_sequence(7));
        assert_ne!(cold_sequence(7), cold_sequence(8));
        assert_eq!(hot_targets(3), hot_targets(3));
        let draw = |seed, client| {
            let mut mix = HotMix::new(seed, client);
            (0..100).map(|_| mix.next_request()).collect::<Vec<_>>()
        };
        assert_eq!(draw(3, 0), draw(3, 0));
        assert_ne!(draw(3, 0), draw(3, 1));
    }

    #[test]
    fn generated_requests_are_accepted_by_the_service() {
        for seed in 0..4 {
            let sequence = cold_sequence(seed);
            for request in sequence.iter().chain([&revisit_baseline(&sequence)]) {
                accepts(request).unwrap();
            }
            let mut mix = HotMix::new(seed, 0);
            for _ in 0..300 {
                accepts(&mix.next_request()).unwrap();
            }
        }
        // The acceptance check itself rejects what the service rejects.
        let bad_point = Request {
            kind: Kind::Point,
            app: "ammp",
            org: Organization::SelectiveWays,
            system: System::Base,
            point: Some(CachePoint { sets: 3, ways: 1 }),
        };
        assert!(accepts(&bad_point).is_err());
        assert!(accepts(&Request {
            app: "no_such_app",
            point: None,
            ..bad_point.clone()
        })
        .is_err());
    }

    #[test]
    fn request_lines_parse_back_to_their_fields() {
        let request = cold_sequence(11)
            .into_iter()
            .find(|r| r.kind == Kind::Point)
            .unwrap();
        let line = request.to_json(42).render();
        let parsed = Json::parse(&line).unwrap();
        assert_eq!(parsed.get("req").and_then(Json::as_str), Some("point"));
        assert_eq!(parsed.get("id").and_then(Json::as_u64), Some(42));
        assert_eq!(parsed.get("app").and_then(Json::as_str), Some(request.app));
        let point = request.point.unwrap();
        assert_eq!(parsed.get("sets").and_then(Json::as_u64), Some(point.sets));
        assert_eq!(
            parsed.get("ways").and_then(Json::as_u64),
            Some(u64::from(point.ways))
        );
    }

    #[test]
    fn cold_sequence_has_distinct_apps_rounds_and_a_revisit() {
        assert_eq!(app_names().len(), 21);
        for seed in 0..8 {
            let sequence = cold_sequence(seed);
            assert_eq!(sequence.len(), COLD_EPOCH);
            let apps: HashSet<&str> = sequence.iter().map(|r| r.app).collect();
            assert_eq!(apps.len(), COLD_EPOCH);
            let (revisit, rounds) = sequence.split_last().unwrap();
            assert_eq!(revisit.kind, Kind::Dynamic);
            let baseline = revisit_baseline(&sequence);
            assert_eq!((baseline.kind, baseline.point), (Kind::Point, None));
            assert_eq!(
                (baseline.app, baseline.system),
                (revisit.app, revisit.system)
            );
            for round in rounds.chunks(8) {
                let dynamic = round.iter().filter(|r| r.kind == Kind::Dynamic).count();
                assert_eq!(dynamic, 2);
                for org in ORGS {
                    let sweeps = round
                        .iter()
                        .filter(|r| r.kind == Kind::Sweep && r.org == org);
                    assert_eq!(sweeps.count(), 1);
                }
            }
        }
    }

    #[test]
    fn hot_set_has_two_targets_per_organization_on_distinct_apps() {
        for seed in 0..8 {
            let targets = hot_targets(seed);
            assert_eq!(targets.len(), 6);
            for org in ORGS {
                assert_eq!(targets.iter().filter(|t| t.org == org).count(), 2);
            }
            let apps: HashSet<&str> = targets.iter().map(|t| t.app).collect();
            assert_eq!(apps.len(), 6);
        }
        let mut mix = HotMix::new(1, 0);
        let kinds: Vec<Kind> = (0..6).map(|_| mix.next_request().kind).collect();
        assert_eq!(
            kinds,
            [
                Kind::Sweep,
                Kind::Point,
                Kind::Sweep,
                Kind::Point,
                Kind::Sweep,
                Kind::Point
            ]
        );
    }
}
