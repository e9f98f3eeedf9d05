//! The [`TraceGenerator`]: expands an [`AppProfile`] into a materialized
//! [`Trace`], one record at a time straight into the trace's buffer.

use crate::address::AddressStream;
use crate::code::CodeStream;
use crate::format::TraceFormat;
use crate::ilp::DistanceSampler;
use crate::mix::{MixClass, MixThresholds};
use crate::phase::ScheduleCursor;
use crate::profile::AppProfile;
use crate::record::{InstrRecord, Op};
use crate::rng::Prng;
use crate::trace::Trace;

/// Deterministically expands an application profile into a dynamic
/// instruction trace.
///
/// The same `(profile, seed, length)` triple always produces the same trace,
/// which lets an experiment generate each application once and replay it under
/// every cache configuration.
///
/// # Examples
///
/// ```
/// use rescache_trace::{spec, TraceGenerator};
///
/// let trace = TraceGenerator::new(spec::ammp(), 1).generate(5_000);
/// assert_eq!(trace.name(), "ammp");
/// assert_eq!(trace.len(), 5_000);
/// ```
#[derive(Debug, Clone)]
pub struct TraceGenerator {
    profile: AppProfile,
    seed: u64,
}

impl TraceGenerator {
    /// Creates a generator for the given profile and seed.
    pub fn new(profile: AppProfile, seed: u64) -> Self {
        Self { profile, seed }
    }

    /// Selects the [`TraceFormat`] this generator produces. v4 is the only
    /// format, so this returns the generator unchanged; it stays because the
    /// standalone benchmark (`perfbench/src/layers.rs`) compiles against it.
    pub fn with_format(self, TraceFormat::V4: TraceFormat) -> Self {
        self
    }

    /// The profile this generator expands.
    pub fn profile(&self) -> &AppProfile {
        &self.profile
    }

    /// Generates a trace of `instructions` dynamic instructions.
    pub fn generate(&self, instructions: usize) -> Trace {
        let mut state = GenState::new(&self.profile, self.seed, instructions);
        let mut records = Vec::with_capacity(instructions);
        for _ in 0..instructions {
            let record = state.step();
            records.push(record);
        }
        Trace::new(self.profile.name, records)
    }
}

/// The generator's walk state between records: code walk, address walk,
/// RNG sub-streams and phase-schedule cursors.
struct GenState<'a> {
    profile: &'a AppProfile,
    total: u64,
    pos: u64,
    code: CodeStream,
    data: AddressStream,
    mix_rng: Prng,
    ilp_rng: Prng,
    ilp: DistanceSampler,
    /// The integer-threshold instruction-mix draw.
    mix_thresholds: MixThresholds,
    code_cursor: ScheduleCursor,
    data_cursor: ScheduleCursor,
}

impl<'a> GenState<'a> {
    fn new(profile: &'a AppProfile, seed: u64, instructions: usize) -> Self {
        let mut rng = Prng::new(seed ^ hash_name(profile.name));
        let mut code_shape = profile.code.shape;
        code_shape.data_dep_branch_prob = profile.branch.data_dependent_fraction;

        let code = CodeStream::new(code_shape, rng.fork(1));
        let data = AddressStream::new(profile.data.access_mix, profile.data.stride, rng.fork(2));
        let mix_rng = rng.fork(3);
        let ilp_rng = rng.fork(4);

        Self {
            ilp: profile.ilp.sampler(),
            // Zero-f64 classification: the cumulative thresholds are hoisted
            // out of the per-record loop here, exactly as the distance
            // sampler hoists its table.
            mix_thresholds: profile.mix.thresholds(),
            profile,
            total: instructions as u64,
            pos: 0,
            code,
            data,
            mix_rng,
            ilp_rng,
            code_cursor: ScheduleCursor::new(),
            data_cursor: ScheduleCursor::new(),
        }
    }

    /// Generates the next record; the caller guarantees `pos < total`.
    #[inline]
    fn step(&mut self) -> InstrRecord {
        let i = self.pos;
        let code_ws = *self
            .code_cursor
            .active(&self.profile.code.schedule, i, self.total);
        let data_ws = *self
            .data_cursor
            .active(&self.profile.data.schedule, i, self.total);
        let step = self.code.next_step(&code_ws);

        let op = if step.is_branch {
            Op::Branch { taken: step.taken }
        } else {
            // One raw 64-bit draw against precomputed fixed-point
            // thresholds — no f64 math per record.
            match self.mix_thresholds.classify(self.mix_rng.next_u64()) {
                MixClass::Load => Op::Load(self.data.next_address(&data_ws)),
                MixClass::Store => Op::Store(self.data.next_address(&data_ws)),
                MixClass::Fp => Op::Fp,
                MixClass::Int => Op::Int,
            }
        };

        let (dep1, dep2) = self.ilp.sample(&mut self.ilp_rng);
        self.pos = i + 1;
        InstrRecord::with_deps(step.pc, op, dep1, dep2)
    }
}

/// Stable FNV-1a hash of the application name, used to decorrelate seeds
/// across applications.
fn hash_name(name: &str) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for byte in name.as_bytes() {
        hash ^= u64::from(*byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec;
    use std::collections::HashSet;

    #[test]
    fn generation_is_deterministic() {
        let a = TraceGenerator::new(spec::gcc(), 7).generate(2_000);
        let b = TraceGenerator::new(spec::gcc(), 7).generate(2_000);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = TraceGenerator::new(spec::gcc(), 7).generate(2_000);
        let b = TraceGenerator::new(spec::gcc(), 8).generate(2_000);
        assert_ne!(a, b);
    }

    #[test]
    fn different_apps_differ() {
        let a = TraceGenerator::new(spec::gcc(), 7).generate(2_000);
        let b = TraceGenerator::new(spec::vpr(), 7).generate(2_000);
        assert_ne!(a.records(), b.records());
    }

    #[test]
    fn mem_fraction_tracks_mix() {
        for p in [spec::gcc(), spec::swim(), spec::m88ksim()] {
            let expected = p.mix.mem();
            let trace = TraceGenerator::new(p, 3).generate(50_000);
            let got = trace.stats().mem_fraction();
            // Branches take ~12-16% of slots, so the observed memory fraction
            // is slightly below the non-branch mix value.
            assert!(
                got > expected * 0.7 && got < expected * 1.05,
                "{}: mem fraction {got} vs mix {expected}",
                trace.name()
            );
        }
    }

    #[test]
    fn branch_fraction_is_reasonable() {
        let trace = TraceGenerator::new(spec::gcc(), 3).generate(50_000);
        let frac = trace.stats().branch_fraction();
        assert!((0.08..=0.25).contains(&frac), "branch fraction {frac}");
    }

    #[test]
    fn data_footprint_scales_with_working_set() {
        // Count only working-set blocks (below the streaming region) so the
        // comparison reflects the profiles' working-set sizes.
        let blocks = |name: &str| {
            let trace = TraceGenerator::new(spec::profile(name).unwrap(), 5).generate(100_000);
            let mut set = HashSet::new();
            for r in trace.iter() {
                if let Some(addr) = r.op().address() {
                    if addr < 0x7000_0000 {
                        set.insert(addr / 32);
                    }
                }
            }
            set.len()
        };
        let small = blocks("ammp");
        let large = blocks("swim");
        assert!(
            large > small * 4,
            "swim ({large} blocks) should touch far more data than ammp ({small})"
        );
    }

    #[test]
    fn instruction_footprint_scales_with_code_schedule() {
        let blocks = |name: &str| {
            let trace = TraceGenerator::new(spec::profile(name).unwrap(), 5).generate(100_000);
            let mut set = HashSet::new();
            for r in trace.iter() {
                set.insert(r.pc() / 32);
            }
            set.len()
        };
        let small = blocks("swim");
        let large = blocks("gcc");
        assert!(
            large > small * 4,
            "gcc ({large} i-blocks) should touch far more code than swim ({small})"
        );
    }
}
