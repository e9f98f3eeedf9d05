//! The one place the process environment is read: every runtime
//! `RESCACHE_*` knob, parsed strictly into [`Knobs`].
//!
//! Parsing is pure — [`Knobs::parse`] takes a lookup function, so tests
//! never touch the process environment — and [`Knobs::resolved`] applies it
//! to the real environment once per process. A malformed value (not an
//! unsigned integer, `0` where only a positive count makes sense, a fault
//! spec [`FaultSpec::parse`] rejects, or a set-but-empty value) is a [`CoreError::InvalidParameter`] naming the
//! variable; nothing is silently defaulted.
//!
//! Entry points that can report errors (the figure benches, the `serve`
//! example, the throughput harness) resolve the knobs before doing any work
//! and exit with status 2 on an error. Library paths that cannot return one
//! ([`Runner::new`](crate::experiment::Runner::new),
//! [`effective_workers`](crate::experiment::effective_workers)) panic with
//! the same typed message.

use std::path::PathBuf;
use std::str::FromStr;
use std::sync::{Arc, OnceLock};

use rescache_trace::{FaultInjector, FaultSpec, IoPolicy};

use crate::error::CoreError;
use crate::experiment::server::DEFAULT_ADDR;
use crate::experiment::{RunnerConfig, SharedTier};

/// Every runtime knob, parsed. A `None` field was unset: the consumer's own
/// default applies.
#[derive(Debug, Clone, PartialEq)]
pub struct Knobs {
    /// `RESCACHE_WARMUP`: warm-up instructions per run.
    pub warmup: Option<usize>,
    /// `RESCACHE_MEASURE`: measured instructions per run (positive).
    pub measure: Option<usize>,
    /// `RESCACHE_SEED`: trace-generation seed.
    pub seed: Option<u64>,
    /// `RESCACHE_INTERVAL`: dynamic-controller interval in cache accesses
    /// (positive).
    pub interval: Option<u64>,
    /// `RESCACHE_THREADS`: parallel-sweep worker count (positive; capped
    /// at 512 when resolved; host parallelism when unset).
    pub threads: Option<usize>,
    /// `RESCACHE_TRACE_DIR`: persistent trace-store directory (in-memory
    /// only when unset).
    pub trace_dir: Option<PathBuf>,
    /// `RESCACHE_RESIDENT_TRACES`: cap on resident full traces (positive).
    pub resident_traces: Option<usize>,
    /// `RESCACHE_FAULTS`: seeded fault-injection spec for store I/O.
    pub faults: Option<FaultSpec>,
    /// `RESCACHE_SERVE_ADDR`: the sweep service's bind address.
    pub serve_addr: String,
    /// `RESCACHE_SERVE_QUOTA`: requests per connection (`0` = unlimited).
    pub serve_quota: usize,
}

impl Knobs {
    /// Parses every knob through `lookup` (the variable's raw value, `None`
    /// when unset). Surrounding whitespace is ignored.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] naming the first malformed
    /// variable.
    pub fn parse(lookup: impl Fn(&str) -> Option<String>) -> Result<Self, CoreError> {
        let vars = Vars(lookup);
        Ok(Self {
            warmup: vars.number("RESCACHE_WARMUP")?,
            measure: vars.positive("RESCACHE_MEASURE")?,
            seed: vars.number("RESCACHE_SEED")?,
            interval: vars.positive("RESCACHE_INTERVAL")?,
            threads: vars.positive("RESCACHE_THREADS")?,
            trace_dir: vars.value("RESCACHE_TRACE_DIR")?.map(PathBuf::from),
            resident_traces: vars.positive("RESCACHE_RESIDENT_TRACES")?,
            faults: vars.get("RESCACHE_FAULTS", FaultSpec::parse)?,
            serve_addr: vars
                .value("RESCACHE_SERVE_ADDR")?
                .unwrap_or_else(|| DEFAULT_ADDR.to_string()),
            serve_quota: vars.number("RESCACHE_SERVE_QUOTA")?.unwrap_or(0),
        })
    }

    /// The process's knobs, parsed from the environment on first call; every
    /// later call returns the same outcome.
    ///
    /// # Errors
    ///
    /// Returns the typed error of the first malformed variable.
    pub fn resolved() -> Result<&'static Knobs, CoreError> {
        static KNOBS: OnceLock<Result<Knobs, CoreError>> = OnceLock::new();
        KNOBS
            .get_or_init(|| {
                Knobs::parse(|name| {
                    std::env::var_os(name).map(|v| v.to_string_lossy().into_owned())
                })
            })
            .as_ref()
            .map_err(Clone::clone)
    }

    /// `base` with the set length, seed and interval knobs applied.
    pub fn runner_config(&self, base: RunnerConfig) -> RunnerConfig {
        RunnerConfig {
            warmup_instructions: self.warmup.unwrap_or(base.warmup_instructions),
            measure_instructions: self.measure.unwrap_or(base.measure_instructions),
            trace_seed: self.seed.unwrap_or(base.trace_seed),
            dynamic_interval: self.interval.unwrap_or(base.dynamic_interval),
            ..base
        }
    }

    /// The shared tier the knobs configure: persistence under the trace
    /// directory, a seeded injector for a non-quiet fault spec, and the
    /// resident-trace cap.
    pub(crate) fn shared_tier(&self) -> SharedTier {
        let policy = match self.faults {
            Some(spec) if !spec.is_quiet() => {
                IoPolicy::with_injector(Arc::new(FaultInjector::seeded(spec)))
            }
            _ => IoPolicy::none(),
        };
        let tier = SharedTier::new(self.trace_dir.clone(), policy);
        match self.resident_traces {
            Some(cap) => tier.with_resident_cap(cap),
            None => tier,
        }
    }
}

/// The resolved knobs, for library paths that cannot return an error: a
/// malformed knob panics with its typed message.
pub(crate) fn knobs() -> &'static Knobs {
    Knobs::resolved().unwrap_or_else(|e| panic!("{e}"))
}

fn invalid(parameter: &'static str, detail: impl Into<String>) -> CoreError {
    CoreError::InvalidParameter {
        parameter,
        detail: detail.into(),
    }
}

/// The raw variables of one parse. Every accessor applies the shared rules
/// (a set-but-empty value is an error, surrounding whitespace is ignored)
/// before its own format, and returns `None` for an unset variable.
struct Vars<F>(F);

impl<F: Fn(&str) -> Option<String>> Vars<F> {
    fn value(&self, name: &'static str) -> Result<Option<String>, CoreError> {
        match (self.0)(name) {
            None => Ok(None),
            Some(v) if v.trim().is_empty() => Err(invalid(name, "is set but empty")),
            // The process lookup decodes lossily; a replaced byte must not
            // silently name a different directory or value.
            Some(v) if v.contains(char::REPLACEMENT_CHARACTER) => {
                Err(invalid(name, "is not valid UTF-8"))
            }
            Some(v) => Ok(Some(v.trim().to_string())),
        }
    }

    /// The value converted by `convert`, whose error text becomes the
    /// detail of the typed error.
    fn get<T>(
        &self,
        name: &'static str,
        convert: impl FnOnce(&str) -> Result<T, String>,
    ) -> Result<Option<T>, CoreError> {
        self.value(name)?
            .map(|v| convert(&v).map_err(|detail| invalid(name, detail)))
            .transpose()
    }

    fn number<T: FromStr>(&self, name: &'static str) -> Result<Option<T>, CoreError> {
        self.get(name, |v| {
            v.parse()
                .map_err(|_| format!("{v:?} is not an unsigned integer"))
        })
    }

    fn positive<T: FromStr + PartialEq + From<u8>>(
        &self,
        name: &'static str,
    ) -> Result<Option<T>, CoreError> {
        match self.number(name)? {
            Some(n) if n == T::from(0) => Err(invalid(name, "must be positive, not 0")),
            n => Ok(n),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(set: &[(&str, &str)]) -> Result<Knobs, CoreError> {
        Knobs::parse(|name| {
            set.iter()
                .find(|(k, _)| *k == name)
                .map(|(_, v)| v.to_string())
        })
    }

    #[test]
    fn every_knob_defaults_parses_and_rejects_by_name() {
        let unset = Knobs {
            warmup: None,
            measure: None,
            seed: None,
            interval: None,
            threads: None,
            trace_dir: None,
            resident_traces: None,
            faults: None,
            serve_addr: DEFAULT_ADDR.to_string(),
            serve_quota: 0,
        };
        assert_eq!(parse(&[]), Ok(unset.clone()));
        let faults = FaultSpec::parse("seed=17,read=0.01").expect("valid spec");
        let with = |set: &dyn Fn(&mut Knobs)| {
            let mut knobs = unset.clone();
            set(&mut knobs);
            knobs
        };
        // (variable, valid setting, what it parses to, malformed settings)
        let table: [(&str, &str, Knobs, &[&str]); 10] = [
            (
                "RESCACHE_WARMUP",
                "5000",
                with(&|k| k.warmup = Some(5000)),
                &["", "5k", "-1", "1.5"],
            ),
            (
                "RESCACHE_MEASURE",
                " 20000 ",
                with(&|k| k.measure = Some(20_000)),
                &["  ", "2e4", "0x10"],
            ),
            (
                "RESCACHE_SEED",
                "7",
                with(&|k| k.seed = Some(7)),
                &["", "seven", "18446744073709551616"],
            ),
            (
                "RESCACHE_INTERVAL",
                "512",
                with(&|k| k.interval = Some(512)),
                &["", "0", "abc"],
            ),
            (
                "RESCACHE_THREADS",
                "3",
                with(&|k| k.threads = Some(3)),
                &["", "0", "-2", "1e3"],
            ),
            (
                "RESCACHE_TRACE_DIR",
                "/var/cache/rescache",
                with(&|k| k.trace_dir = Some("/var/cache/rescache".into())),
                &["", " ", "/var/\u{FFFD}"],
            ),
            (
                "RESCACHE_RESIDENT_TRACES",
                "8",
                with(&|k| k.resident_traces = Some(8)),
                &["", "0", "many"],
            ),
            (
                "RESCACHE_FAULTS",
                "seed=17,read=0.01",
                with(&|k| k.faults = Some(faults)),
                &["", "read=2", "bogus=0.1", "read"],
            ),
            (
                "RESCACHE_SERVE_ADDR",
                "0.0.0.0:9000",
                with(&|k| k.serve_addr = "0.0.0.0:9000".into()),
                &[""],
            ),
            (
                "RESCACHE_SERVE_QUOTA",
                "25",
                with(&|k| k.serve_quota = 25),
                &["", "-1", "lots"],
            ),
        ];
        for (var, valid, parsed, malformed) in table {
            assert_eq!(parse(&[(var, valid)]), Ok(parsed), "{var}={valid:?}");
            for bad in malformed {
                let err = parse(&[(var, bad)]).expect_err(&format!("{var}={bad:?} must fail"));
                assert!(
                    matches!(&err, CoreError::InvalidParameter { parameter, .. } if *parameter == var),
                    "{var}={bad:?}: {err}"
                );
                assert!(err.to_string().contains(var), "{err}");
            }
        }
    }

    #[test]
    fn an_empty_trace_dir_is_rejected_not_read_as_the_current_directory() {
        // `create_dir_all("")` succeeds and `"".join(name)` is `name`, so an
        // accepted empty value would write store entries into the working
        // directory.
        let err = parse(&[("RESCACHE_TRACE_DIR", "")]).expect_err("empty dir");
        assert_eq!(
            err,
            invalid("RESCACHE_TRACE_DIR", "is set but empty"),
            "{err}"
        );
    }

    #[test]
    fn zero_quota_is_unlimited_and_the_thread_count_is_kept_for_the_cap() {
        let knobs = parse(&[
            ("RESCACHE_SERVE_QUOTA", "0"),
            ("RESCACHE_THREADS", "1000000"),
        ])
        .expect("valid knobs");
        assert_eq!(knobs.serve_quota, 0);
        assert_eq!(knobs.threads, Some(1_000_000));
    }

    #[test]
    fn an_empty_measured_region_is_rejected() {
        // Every configuration would measure nothing and tie, so a figure
        // run at `RESCACHE_MEASURE=0` would print one meaningless row per
        // application.
        let err = parse(&[("RESCACHE_MEASURE", "0")]).expect_err("zero measured instructions");
        assert_eq!(
            err,
            invalid("RESCACHE_MEASURE", "must be positive, not 0"),
            "{err}"
        );
        assert!(
            parse(&[("RESCACHE_WARMUP", "0")]).is_ok(),
            "no warm-up is valid"
        );
    }

    #[test]
    fn runner_config_applies_only_the_set_knobs() {
        let base = RunnerConfig::fast();
        assert_eq!(parse(&[]).expect("defaults").runner_config(base), base);
        let knobs = parse(&[("RESCACHE_MEASURE", "1234"), ("RESCACHE_INTERVAL", "512")])
            .expect("valid knobs");
        let config = knobs.runner_config(base);
        assert_eq!(config.measure_instructions, 1234);
        assert_eq!(config.dynamic_interval, 512);
        assert_eq!(config.warmup_instructions, base.warmup_instructions);
        assert_eq!(config.trace_seed, base.trace_seed);
    }
}
