//! Application profiles: everything needed to generate one application's
//! trace.

use crate::address::AccessMix;
use crate::branch::BranchBehavior;
use crate::code::CodeShape;
use crate::ilp::IlpBehavior;
use crate::mix::InstructionMix;
use crate::phase::PhaseSchedule;

/// Data-reference behaviour of an application.
#[derive(Debug, Clone, PartialEq)]
pub struct DataBehavior {
    /// How the data working set evolves over the trace.
    pub schedule: PhaseSchedule,
    /// Relative weights of sequential / random-in-set / streaming accesses.
    pub access_mix: AccessMix,
    /// Byte stride of sequential accesses.
    pub stride: u64,
}

impl DataBehavior {
    /// Creates a data behaviour with a default access mix and an 8-byte
    /// stride.
    pub fn new(schedule: PhaseSchedule) -> Self {
        Self {
            schedule,
            access_mix: AccessMix::default(),
            stride: 8,
        }
    }

    /// Overrides the access mix.
    pub fn with_access_mix(mut self, mix: AccessMix) -> Self {
        self.access_mix = mix;
        self
    }

    /// Overrides the sequential stride.
    pub fn with_stride(mut self, stride: u64) -> Self {
        self.stride = stride.max(1);
        self
    }
}

/// Instruction-reference behaviour of an application.
#[derive(Debug, Clone, PartialEq)]
pub struct CodeBehavior {
    /// How the instruction footprint evolves over the trace.
    pub schedule: PhaseSchedule,
    /// Shape of the loop/call structure over that footprint.
    pub shape: CodeShape,
}

impl CodeBehavior {
    /// Creates a code behaviour with the default shape.
    pub fn new(schedule: PhaseSchedule) -> Self {
        Self {
            schedule,
            shape: CodeShape::default(),
        }
    }

    /// Overrides the code shape.
    pub fn with_shape(mut self, shape: CodeShape) -> Self {
        self.shape = shape;
        self
    }
}

/// A complete synthetic application profile.
///
/// The twelve profiles shipped in [`crate::spec`] stand in for the SPEC95 /
/// SPEC2000 applications of the paper; see the crate-level documentation for
/// the substitution rationale.
#[derive(Debug, Clone, PartialEq)]
pub struct AppProfile {
    /// Application name (matches the paper's benchmark name).
    pub name: &'static str,
    /// Data-reference behaviour.
    pub data: DataBehavior,
    /// Instruction-reference behaviour.
    pub code: CodeBehavior,
    /// Instruction mix.
    pub mix: InstructionMix,
    /// Branch behaviour.
    pub branch: BranchBehavior,
    /// Instruction-level parallelism behaviour.
    pub ilp: IlpBehavior,
}

impl AppProfile {
    /// Creates a profile with default mix, branch and ILP behaviour.
    pub fn new(name: &'static str, data: DataBehavior, code: CodeBehavior) -> Self {
        Self {
            name,
            data,
            code,
            mix: InstructionMix::default(),
            branch: BranchBehavior::default(),
            ilp: IlpBehavior::default(),
        }
    }

    /// Overrides the instruction mix.
    pub fn with_mix(mut self, mix: InstructionMix) -> Self {
        self.mix = mix;
        self
    }

    /// Overrides the branch behaviour.
    pub fn with_branch(mut self, branch: BranchBehavior) -> Self {
        self.branch = branch;
        self
    }

    /// Overrides the ILP behaviour.
    pub fn with_ilp(mut self, ilp: IlpBehavior) -> Self {
        self.ilp = ilp;
        self
    }

    /// A stable fingerprint of the profile's full contents (FNV-1a over the
    /// `Debug` rendering, which covers every field including float exacts).
    ///
    /// Profiles are usually identified by [`AppProfile::name`], but the
    /// builder methods allow two differing profiles to share a name; caches
    /// keyed per profile (like the experiment runner's trace cache) include
    /// this fingerprint so such profiles never alias.
    pub fn fingerprint(&self) -> u64 {
        let repr = format!("{self:?}");
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for byte in repr.as_bytes() {
            hash ^= u64::from(*byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        hash
    }

    /// Instruction-weighted mean data working-set size in bytes.
    pub fn mean_data_working_set(&self) -> f64 {
        self.data.schedule.mean_bytes()
    }

    /// Instruction-weighted mean instruction footprint in bytes.
    pub fn mean_code_footprint(&self) -> f64 {
        self.code.schedule.mean_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::working_set::WorkingSetSpec;

    fn profile() -> AppProfile {
        AppProfile::new(
            "test",
            DataBehavior::new(PhaseSchedule::constant(WorkingSetSpec::uniform(4096))),
            CodeBehavior::new(PhaseSchedule::constant(WorkingSetSpec::uniform(2048))),
        )
    }

    #[test]
    fn builder_chain() {
        let p = profile()
            .with_mix(InstructionMix::floating_point())
            .with_branch(BranchBehavior::predictable())
            .with_ilp(IlpBehavior::parallel());
        assert_eq!(p.mix, InstructionMix::floating_point());
        assert_eq!(p.branch, BranchBehavior::predictable());
        assert_eq!(p.ilp, IlpBehavior::parallel());
    }

    #[test]
    fn mean_working_sets() {
        let p = profile();
        assert_eq!(p.mean_data_working_set(), 4096.0);
        assert_eq!(p.mean_code_footprint(), 2048.0);
    }

    #[test]
    fn data_behavior_builders() {
        let d = DataBehavior::new(PhaseSchedule::constant(WorkingSetSpec::uniform(1024)))
            .with_stride(0)
            .with_access_mix(AccessMix::new(1.0, 0.0, 0.0));
        assert_eq!(d.stride, 1);
        assert!((d.access_mix.sequential - 1.0).abs() < 1e-12);
    }
}
