//! The benchmark's result: the named metrics with their units, the counts
//! of attempted and failed operations, and the final JSON line.

use rescache_core::json::{obj, Json};

/// End-to-end metrics, printed by the untraced run of every workload.
pub const END_TO_END: [(&str, &str); 7] = [
    ("points_per_s", "1/s"),
    ("requests_per_s", "1/s"),
    ("sweep_p50_ms", "ms"),
    ("sweep_tail_ms", "ms"),
    ("first_result_p50_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by the traced run of every workload.
pub const PER_LAYER: [(&str, &str); 37] = [
    ("trace.gen_s", "s"),
    ("trace.gen_mips", "Minstr/s"),
    ("trace.write_s", "s"),
    ("trace.decode_s", "s"),
    ("trace.decode_mips", "Minstr/s"),
    ("trace.store_bytes", "bytes"),
    ("trace.compression_ratio", "x"),
    ("cpu.run_s", "s"),
    ("cpu.mips", "Minstr/s"),
    ("cpu.instructions", "count"),
    ("cpu.cycles", "count"),
    ("cpu.ipc", "instr/cycle"),
    ("cache.replay_s", "s"),
    ("cache.maccess_per_s", "Maccess/s"),
    ("cache.l1d_accesses", "count"),
    ("cache.l1d_miss_ratio", "ratio"),
    ("cache.l2_misses", "count"),
    ("cache.delayed_hits", "count"),
    ("cache.delayed_hit_cycles", "count"),
    ("energy.price_s", "s"),
    ("energy.price_calls", "count"),
    ("runner.static_s", "s"),
    ("runner.sims_executed", "count"),
    ("tier.hits", "count"),
    ("tier.misses", "count"),
    ("tier.coalesced", "count"),
    ("tier.hit_rate", "ratio"),
    ("strategy.decisions", "count"),
    ("strategy.resizes", "count"),
    ("server.lines", "count"),
    ("server.bytes_out", "bytes"),
    ("json.parse_us", "us"),
    ("json.render_us", "us"),
    ("ledger.wall_s", "s"),
    ("ledger.attributed_s", "s"),
    ("ledger.unattributed_s", "s"),
    ("ledger.overhead_pct", "%"),
];

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted: requests sent, or figure rows computed.
    pub attempted: u64,
    /// Operations that failed or whose output did not match the check.
    pub failed: u64,
    /// Broken workload invariants and failed checks, one line each.
    pub problems: Vec<String>,
    metrics: Vec<(String, f64)>,
}

impl Outcome {
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.push((name.to_string(), value));
    }

    /// Records a problem and counts it against the run.
    pub fn fail(&mut self, problem: String) {
        self.failed += 1;
        self.problems.push(problem);
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// The final line: every metric of the run's set, in declaration order.
    /// A metric the run did not produce, or one that is not finite, is a
    /// bug in the benchmark, not a measurement.
    pub fn final_line(&self, traced: bool) -> String {
        let set: &[(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
        let metrics = set
            .iter()
            .map(|(name, unit)| {
                let value = self
                    .value(name)
                    .unwrap_or_else(|| panic!("workload did not measure {name}"));
                assert!(value.is_finite(), "{name} = {value} is not finite");
                (
                    name.to_string(),
                    obj([
                        ("value", Json::Num(value)),
                        ("unit", Json::Str(unit.to_string())),
                    ]),
                )
            })
            .collect();
        obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::Obj(metrics)),
        ])
        .render()
    }
}

/// Prints one human-readable metric line (stdout, before the final line).
pub fn note(name: &str, value: f64, unit: &str) {
    println!("{name:<26} {value:>14.4} {unit}");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names_in(json: &Json, key: &str) -> Vec<(String, String)> {
        json.get(key)
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|m| {
                (
                    m.get("name").and_then(Json::as_str).unwrap().to_string(),
                    m.get("unit").and_then(Json::as_str).unwrap().to_string(),
                )
            })
            .collect()
    }

    #[test]
    fn metric_sets_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let spec = Json::parse(&text).unwrap();
        let owned = |set: &[(&str, &str)]| -> Vec<(String, String)> {
            set.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names_in(&spec, "end_to_end"), owned(&END_TO_END));
        assert_eq!(names_in(&spec, "per_layer"), owned(&PER_LAYER));
    }

    #[test]
    fn final_line_carries_exactly_the_declared_set() {
        let mut outcome = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        for (i, (name, _)) in END_TO_END.iter().enumerate() {
            outcome.set(name, 1.5 + i as f64);
        }
        outcome.set("point_p50_ms", 9.0);
        let line = Json::parse(&outcome.final_line(false)).unwrap();
        assert_eq!(line.get("correct").and_then(Json::as_bool), Some(true));
        assert_eq!(line.get("attempted").and_then(Json::as_u64), Some(3));
        let Some(Json::Obj(metrics)) = line.get("metrics") else {
            panic!("metrics object")
        };
        assert_eq!(metrics.len(), END_TO_END.len());
        assert_eq!(metrics[0].1.get("unit").and_then(Json::as_str), Some("1/s"));
        outcome.fail("mismatch".into());
        let line = Json::parse(&outcome.final_line(false)).unwrap();
        assert_eq!(line.get("correct").and_then(Json::as_bool), Some(false));
        assert_eq!(line.get("failed").and_then(Json::as_u64), Some(1));
    }
}
