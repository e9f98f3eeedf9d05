//! Instruction-address (PC) stream generation.
//!
//! Code is modelled as a set of equally sized *regions* (loop bodies /
//! functions) covering the application's instruction footprint. Execution
//! walks a region sequentially, repeats it `inner_iters` times (a loop), then
//! moves to the next region — mostly round-robin, occasionally via a random
//! jump (a call). Cycling through all regions gives the instruction stream a
//! reuse distance equal to the footprint, which is what makes the i-cache
//! *size* matter; the number of repeats controls how hot each region is.

use crate::rng::Prng;
use crate::working_set::{ResolvedWorkingSet, WorkingSetSpec};

/// Size in bytes of one instruction.
pub const INSTR_BYTES: u64 = 4;

/// One step of the PC stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PcStep {
    /// The program counter of this instruction.
    pub pc: u64,
    /// Whether this instruction slot is a control-flow instruction
    /// (loop back-edge, region-to-region transfer, or in-body conditional).
    pub is_branch: bool,
    /// If `is_branch`, whether the branch is taken.
    pub taken: bool,
    /// If `is_branch`, whether the outcome is data-dependent (hard to
    /// predict) rather than loop-structured (easy to predict).
    pub data_dependent: bool,
}

/// Configuration of the code-stream shape.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CodeShape {
    /// Bytes per region (loop body / function).
    pub region_bytes: u64,
    /// Number of times a region body is repeated before moving on.
    pub inner_iters: u64,
    /// Instructions per basic block (one conditional branch terminates each).
    pub block_len: u64,
    /// Probability that the next region is a random jump rather than the next
    /// region in round-robin order.
    pub call_jump_prob: f64,
    /// Probability that an in-body conditional branch outcome is
    /// data-dependent (essentially unpredictable) rather than loop-structured.
    pub data_dep_branch_prob: f64,
}

impl Default for CodeShape {
    fn default() -> Self {
        Self {
            region_bytes: 1024,
            inner_iters: 8,
            block_len: 8,
            call_jump_prob: 0.10,
            data_dep_branch_prob: 0.15,
        }
    }
}

impl CodeShape {
    /// A tight-loop shape: few large repeats of small regions (e.g. `swim`,
    /// `tomcatv` numeric kernels).
    pub fn tight_loops() -> Self {
        Self {
            region_bytes: 512,
            inner_iters: 64,
            block_len: 12,
            call_jump_prob: 0.02,
            data_dep_branch_prob: 0.05,
        }
    }

    /// A call-heavy shape: many regions visited with little repetition
    /// (e.g. `gcc`, `vortex`).
    pub fn call_heavy() -> Self {
        Self {
            region_bytes: 1024,
            inner_iters: 3,
            block_len: 6,
            call_jump_prob: 0.15,
            data_dep_branch_prob: 0.30,
        }
    }
}

/// Generates the PC stream for a (possibly phase-varying) instruction
/// footprint.
///
/// The stream caches the resolved geometry of the most recent footprint (one
/// `next_step` call runs per generated instruction, and the footprint only
/// changes at phase boundaries) and tracks the intra-block position
/// incrementally, keeping the per-step cost to a handful of adds.
#[derive(Debug, Clone)]
pub struct CodeStream {
    shape: CodeShape,
    region: u64,
    iter_in_region: u64,
    offset: u64,
    /// `offset / INSTR_BYTES` modulo `shape.block_len`, maintained
    /// incrementally.
    block_pos: u64,
    /// Resolution of the footprint the previous step used.
    resolved: ResolvedWorkingSet,
    /// Region count of the resolved footprint.
    regions: u64,
    /// PC of the most recent step, valid while `linear_left > 0`.
    linear_pc: u64,
    /// Steps whose PC is `linear_pc + INSTR_BYTES` each: the walk advances
    /// linearly until the mapped offset crosses a segment boundary, wraps
    /// the footprint, or the region ends — only then is the full address
    /// mapping recomputed.
    linear_left: u64,
    rng: Prng,
}

impl CodeStream {
    /// Creates a code stream with the given shape.
    pub fn new(shape: CodeShape, rng: Prng) -> Self {
        let resolved = WorkingSetSpec::default().resolve();
        let regions = Self::region_count(&shape, &resolved.spec);
        Self {
            shape,
            region: 0,
            iter_in_region: 0,
            offset: 0,
            block_pos: 0,
            resolved,
            regions,
            linear_pc: 0,
            linear_left: 0,
            rng,
        }
    }

    /// Number of regions covering footprint `ws`.
    fn region_count(shape: &CodeShape, ws: &WorkingSetSpec) -> u64 {
        (ws.bytes / shape.region_bytes).max(1)
    }

    /// Returns the next PC step for footprint `ws`.
    pub fn next_step(&mut self, ws: &WorkingSetSpec) -> PcStep {
        if *ws != self.resolved.spec {
            self.resolved = ws.resolve();
            self.regions = Self::region_count(&self.shape, ws);
            self.linear_left = 0;
        }
        let regions = self.regions;
        if self.region >= regions {
            self.region %= regions;
            self.linear_left = 0;
        }
        let pc = if self.linear_left > 0 {
            self.linear_left -= 1;
            self.linear_pc += INSTR_BYTES;
            self.linear_pc
        } else {
            let global = self.region * self.shape.region_bytes + self.offset;
            let at = self.resolved.locate(global);
            let pc = at.address();
            // Steps after this one whose PC simply advances by one
            // instruction: until the mapped offset reaches the end of its
            // segment or the end of the footprint (region ends reset
            // `linear_left` below, so they need no accounting here).
            let bytes = self.resolved.spec.bytes;
            self.linear_left = if bytes > 0 {
                let segment_end = at.offset - at.within + self.resolved.segment_bytes();
                (segment_end.min(bytes) - at.offset - 1) / INSTR_BYTES
            } else {
                0
            };
            self.linear_pc = pc;
            pc
        };

        let at_region_end = self.offset + INSTR_BYTES >= self.shape.region_bytes;
        let at_block_end = self.block_pos + 1 == self.shape.block_len;
        self.block_pos = if at_block_end || at_region_end {
            0
        } else {
            self.block_pos + 1
        };

        if at_region_end {
            // Loop back-edge or transfer to the next region.
            let step = if self.iter_in_region + 1 < self.shape.inner_iters {
                self.iter_in_region += 1;
                PcStep {
                    pc,
                    is_branch: true,
                    taken: true,
                    data_dependent: false,
                }
            } else {
                self.iter_in_region = 0;
                self.region = if self.rng.chance(self.shape.call_jump_prob) {
                    self.rng.below(regions)
                } else {
                    (self.region + 1) % regions
                };
                PcStep {
                    pc,
                    is_branch: true,
                    taken: true,
                    data_dependent: false,
                }
            };
            self.offset = 0;
            self.linear_left = 0;
            step
        } else if at_block_end {
            let data_dependent = self.rng.chance(self.shape.data_dep_branch_prob);
            let taken = if data_dependent {
                self.rng.chance(0.5)
            } else {
                // Loop-structured conditionals are strongly biased.
                self.rng.chance(0.9)
            };
            self.offset += INSTR_BYTES;
            PcStep {
                pc,
                is_branch: true,
                taken,
                data_dependent,
            }
        } else {
            self.offset += INSTR_BYTES;
            PcStep {
                pc,
                is_branch: false,
                taken: false,
                data_dependent: false,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn footprint(bytes: u64) -> WorkingSetSpec {
        WorkingSetSpec::uniform(bytes).at_base(0x0040_0000)
    }

    #[test]
    fn pcs_stay_within_footprint_span() {
        let ws = footprint(4096);
        let mut cs = CodeStream::new(CodeShape::default(), Prng::new(3));
        for _ in 0..10_000 {
            let step = cs.next_step(&ws);
            assert!(step.pc >= ws.base);
            assert!(step.pc < ws.base + ws.bytes);
        }
    }

    #[test]
    fn footprint_bounds_unique_blocks() {
        let ws = footprint(2048);
        let mut cs = CodeStream::new(CodeShape::call_heavy(), Prng::new(3));
        let mut blocks = HashSet::new();
        for _ in 0..20_000 {
            blocks.insert(cs.next_step(&ws).pc / 32);
        }
        assert!(blocks.len() as u64 <= 2048 / 32);
        // And a call-heavy stream should actually cover most of it.
        assert!(blocks.len() as u64 >= 2048 / 32 / 2);
    }

    #[test]
    fn sequential_within_block() {
        let ws = footprint(4096);
        let mut cs = CodeStream::new(CodeShape::default(), Prng::new(3));
        let a = cs.next_step(&ws);
        let b = cs.next_step(&ws);
        assert_eq!(b.pc - a.pc, INSTR_BYTES);
    }

    #[test]
    fn branch_density_tracks_block_len() {
        let ws = footprint(8192);
        let shape = CodeShape {
            block_len: 8,
            ..CodeShape::default()
        };
        let mut cs = CodeStream::new(shape, Prng::new(7));
        let n = 40_000;
        let branches = (0..n).filter(|_| cs.next_step(&ws).is_branch).count();
        let frac = branches as f64 / n as f64;
        assert!(
            (0.10..=0.18).contains(&frac),
            "branch fraction {frac} outside expected band"
        );
    }

    /// The original, division-per-step stream the optimized walk must match
    /// step for step (including RNG consumption).
    #[derive(Debug, Clone)]
    struct ReferenceStream {
        shape: CodeShape,
        region: u64,
        iter_in_region: u64,
        offset: u64,
        rng: Prng,
    }

    impl ReferenceStream {
        fn next_step(&mut self, ws: &WorkingSetSpec) -> PcStep {
            let regions = (ws.bytes / self.shape.region_bytes).max(1);
            if self.region >= regions {
                self.region %= regions;
            }
            let pc = ws.offset_to_address(self.region * self.shape.region_bytes + self.offset);
            let at_region_end = self.offset + INSTR_BYTES >= self.shape.region_bytes;
            let instr_index = self.offset / INSTR_BYTES;
            let at_block_end = (instr_index + 1).is_multiple_of(self.shape.block_len);
            if at_region_end {
                let step = if self.iter_in_region + 1 < self.shape.inner_iters {
                    self.iter_in_region += 1;
                    PcStep {
                        pc,
                        is_branch: true,
                        taken: true,
                        data_dependent: false,
                    }
                } else {
                    self.iter_in_region = 0;
                    self.region = if self.rng.chance(self.shape.call_jump_prob) {
                        self.rng.below(regions)
                    } else {
                        (self.region + 1) % regions
                    };
                    PcStep {
                        pc,
                        is_branch: true,
                        taken: true,
                        data_dependent: false,
                    }
                };
                self.offset = 0;
                step
            } else if at_block_end {
                let data_dependent = self.rng.chance(self.shape.data_dep_branch_prob);
                let taken = if data_dependent {
                    self.rng.chance(0.5)
                } else {
                    self.rng.chance(0.9)
                };
                self.offset += INSTR_BYTES;
                PcStep {
                    pc,
                    is_branch: true,
                    taken,
                    data_dependent,
                }
            } else {
                self.offset += INSTR_BYTES;
                PcStep {
                    pc,
                    is_branch: false,
                    taken: false,
                    data_dependent: false,
                }
            }
        }
    }

    #[test]
    fn optimized_stream_matches_reference_step_for_step() {
        let footprints = [
            WorkingSetSpec::uniform(4096).at_base(0x40_0000),
            WorkingSetSpec::conflicting(24 * 1024, 3).at_base(0x40_0000),
            WorkingSetSpec::conflicting(2048, 8).at_base(0x40_0000),
            // Region size exceeding the footprint (single wrapped region).
            WorkingSetSpec::uniform(700).at_base(0x40_0000),
        ];
        for shape in [
            CodeShape::default(),
            CodeShape::tight_loops(),
            CodeShape::call_heavy(),
            CodeShape {
                block_len: 1,
                ..CodeShape::default()
            },
        ] {
            // Constant footprint.
            for ws in &footprints {
                let mut fast = CodeStream::new(shape, Prng::new(5));
                let mut reference = ReferenceStream {
                    shape,
                    region: 0,
                    iter_in_region: 0,
                    offset: 0,
                    rng: Prng::new(5),
                };
                for i in 0..30_000 {
                    assert_eq!(
                        fast.next_step(ws),
                        reference.next_step(ws),
                        "step {i} of {shape:?} over {ws:?}"
                    );
                }
            }
            // Footprint flipping mid-stream (phase changes), including back
            // to a previously seen spec.
            let mut fast = CodeStream::new(shape, Prng::new(9));
            let mut reference = ReferenceStream {
                shape,
                region: 0,
                iter_in_region: 0,
                offset: 0,
                rng: Prng::new(9),
            };
            for i in 0..30_000 {
                let ws = &footprints[(i / 1000) % footprints.len()];
                assert_eq!(fast.next_step(ws), reference.next_step(ws), "flip step {i}");
            }
        }
    }

    #[test]
    fn tight_loops_have_fewer_unique_blocks_than_call_heavy() {
        let ws = footprint(16 * 1024);
        let count_unique = |shape: CodeShape| {
            let mut cs = CodeStream::new(shape, Prng::new(11));
            let mut blocks = HashSet::new();
            for _ in 0..10_000 {
                blocks.insert(cs.next_step(&ws).pc / 32);
            }
            blocks.len()
        };
        assert!(count_unique(CodeShape::tight_loops()) < count_unique(CodeShape::call_heavy()));
    }
}
