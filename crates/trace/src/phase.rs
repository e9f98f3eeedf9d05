//! Phase schedules: how a working set evolves over the course of execution.
//!
//! The paper classifies applications into three behaviours (Section 4.2.1):
//! constant working-set size, working-set *variation* (including periodic
//! variation), and required sizes that fall *between* offered sizes. Phase
//! schedules express the first two directly; the third is a property of the
//! chosen working-set sizes relative to the cache organization.

use crate::working_set::WorkingSetSpec;

/// One phase of execution: a working set that is active for a fraction of the
/// total instruction count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Phase {
    /// Relative weight of this phase; weights are normalised over the schedule.
    pub weight: f64,
    /// The working set active during this phase.
    pub spec: WorkingSetSpec,
}

impl Phase {
    /// Creates a phase with the given relative weight.
    pub fn new(weight: f64, spec: WorkingSetSpec) -> Self {
        Self { weight, spec }
    }
}

/// How the phases of a schedule are traversed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScheduleKind {
    /// The phases are visited once, in order, each occupying its weight
    /// fraction of the whole trace.
    Sequence,
    /// The phases repeat with the given period (in instructions), each
    /// occupying its weight fraction of the period.
    Periodic {
        /// Period length in dynamic instructions.
        period: u64,
    },
}

/// A schedule of working-set phases over a trace.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseSchedule {
    kind: ScheduleKind,
    phases: Vec<Phase>,
}

impl PhaseSchedule {
    /// A schedule with a single, constant working set.
    pub fn constant(spec: WorkingSetSpec) -> Self {
        Self {
            kind: ScheduleKind::Sequence,
            phases: vec![Phase::new(1.0, spec)],
        }
    }

    /// A schedule that visits each phase once, in order.
    ///
    /// # Panics
    ///
    /// Panics if `phases` is empty or all weights are non-positive.
    pub fn sequence(phases: Vec<Phase>) -> Self {
        assert!(!phases.is_empty(), "a schedule needs at least one phase");
        assert!(
            phases.iter().any(|p| p.weight > 0.0),
            "at least one phase weight must be positive"
        );
        Self {
            kind: ScheduleKind::Sequence,
            phases,
        }
    }

    /// A schedule that repeats the phases with the given period.
    ///
    /// # Panics
    ///
    /// Panics if `phases` is empty, all weights are non-positive, or
    /// `period == 0`.
    pub fn periodic(period: u64, phases: Vec<Phase>) -> Self {
        assert!(!phases.is_empty(), "a schedule needs at least one phase");
        assert!(
            phases.iter().any(|p| p.weight > 0.0),
            "at least one phase weight must be positive"
        );
        assert!(period > 0, "period must be positive");
        Self {
            kind: ScheduleKind::Periodic { period },
            phases,
        }
    }

    /// The traversal mode of this schedule.
    pub fn kind(&self) -> ScheduleKind {
        self.kind
    }

    /// The phases of this schedule.
    pub fn phases(&self) -> &[Phase] {
        &self.phases
    }

    /// Returns the working set active at dynamic instruction `index` of a
    /// trace of `total` instructions.
    pub fn active(&self, index: u64, total: u64) -> &WorkingSetSpec {
        &self.phases[self.active_index(index, total)].spec
    }

    /// Returns the index (into [`PhaseSchedule::phases`]) of the phase active
    /// at dynamic instruction `index` of a trace of `total` instructions.
    ///
    /// Within one traversal of the schedule (the whole trace for
    /// [`ScheduleKind::Sequence`], one period for
    /// [`ScheduleKind::Periodic`]) the returned index is non-decreasing in
    /// `index`, which is what lets [`ScheduleCursor`] locate phase
    /// boundaries by binary search.
    pub fn active_index(&self, index: u64, total: u64) -> usize {
        let total = total.max(1);
        let position = match self.kind {
            ScheduleKind::Sequence => index.min(total - 1) as f64 / total as f64,
            ScheduleKind::Periodic { period } => {
                let period = period.max(1);
                (index % period) as f64 / period as f64
            }
        };
        let weight_sum: f64 = self.phases.iter().map(|p| p.weight.max(0.0)).sum();
        let mut acc = 0.0;
        for (i, phase) in self.phases.iter().enumerate() {
            acc += phase.weight.max(0.0) / weight_sum;
            if position < acc {
                return i;
            }
        }
        self.phases.len() - 1
    }

    /// The instruction-weighted mean working-set size in bytes.
    pub fn mean_bytes(&self) -> f64 {
        let weight_sum: f64 = self.phases.iter().map(|p| p.weight.max(0.0)).sum();
        if weight_sum <= 0.0 {
            return 0.0;
        }
        self.phases
            .iter()
            .map(|p| p.weight.max(0.0) / weight_sum * p.spec.bytes as f64)
            .sum()
    }

    /// The largest working-set size in bytes across all phases.
    pub fn max_bytes(&self) -> u64 {
        self.phases.iter().map(|p| p.spec.bytes).max().unwrap_or(0)
    }
}

/// An amortized-O(1) reader of a [`PhaseSchedule`] for monotonically
/// increasing instruction indices.
///
/// [`PhaseSchedule::active`] scans the phase weights on every call — two such
/// calls per generated record made the schedule lookup the single largest
/// cost of trace generation. The cursor instead resolves the active phase
/// once per *segment*: on a miss it asks the schedule for the current phase,
/// then binary-searches (using [`PhaseSchedule::active_index`] as the oracle,
/// so the segmentation is exactly the schedule's own) for the first index at
/// which the phase changes, and serves every index up to that boundary from
/// the cached copy.
#[derive(Debug, Clone)]
pub struct ScheduleCursor {
    spec: WorkingSetSpec,
    /// First index at which `spec` is no longer known to be active.
    valid_until: u64,
}

impl ScheduleCursor {
    /// Creates a cursor; the first [`ScheduleCursor::active`] call resolves
    /// the initial phase.
    pub fn new() -> Self {
        Self {
            spec: WorkingSetSpec::default(),
            valid_until: 0,
        }
    }

    /// Returns the working set active at instruction `index` of a trace of
    /// `total` instructions — equal to `schedule.active(index, total)` for
    /// every input, provided `index` never decreases between calls against
    /// the same `(schedule, total)`.
    #[inline]
    pub fn active(&mut self, schedule: &PhaseSchedule, index: u64, total: u64) -> &WorkingSetSpec {
        if index >= self.valid_until {
            self.refresh(schedule, index, total);
        }
        &self.spec
    }

    /// Re-resolves the active phase at `index` and the segment it extends to.
    fn refresh(&mut self, schedule: &PhaseSchedule, index: u64, total: u64) {
        let phase = schedule.active_index(index, total);
        self.spec = schedule.phases()[phase].spec;
        // The phase index is non-decreasing up to the end of the current
        // schedule traversal, so the first change point is binary-searchable
        // in (index, limit]; `limit` itself stands for "end of traversal".
        let limit = match schedule.kind() {
            ScheduleKind::Sequence => total.max(index + 1),
            ScheduleKind::Periodic { period } => {
                let period = period.max(1);
                (index - index % period).saturating_add(period)
            }
        };
        let mut same = index; // highest index known to share `phase`
        let mut changed = limit; // lowest index known (or assumed) to differ
        while same + 1 < changed {
            let mid = same + (changed - same) / 2;
            if schedule.active_index(mid, total) == phase {
                same = mid;
            } else {
                changed = mid;
            }
        }
        self.valid_until = changed;
    }
}

impl Default for ScheduleCursor {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ws(bytes: u64) -> WorkingSetSpec {
        WorkingSetSpec::uniform(bytes)
    }

    #[test]
    fn constant_schedule_is_constant() {
        let s = PhaseSchedule::constant(ws(4096));
        for i in [0u64, 10, 500, 999] {
            assert_eq!(s.active(i, 1000).bytes, 4096);
        }
        assert_eq!(s.mean_bytes(), 4096.0);
        assert_eq!(s.max_bytes(), 4096);
    }

    #[test]
    fn sequence_schedule_switches_midway() {
        let s = PhaseSchedule::sequence(vec![Phase::new(1.0, ws(1024)), Phase::new(1.0, ws(8192))]);
        assert_eq!(s.active(0, 1000).bytes, 1024);
        assert_eq!(s.active(499, 1000).bytes, 1024);
        assert_eq!(s.active(500, 1000).bytes, 8192);
        assert_eq!(s.active(999, 1000).bytes, 8192);
    }

    #[test]
    fn periodic_schedule_repeats() {
        let s = PhaseSchedule::periodic(
            100,
            vec![Phase::new(1.0, ws(1024)), Phase::new(1.0, ws(8192))],
        );
        assert_eq!(s.active(0, 10_000).bytes, 1024);
        assert_eq!(s.active(60, 10_000).bytes, 8192);
        assert_eq!(s.active(100, 10_000).bytes, 1024);
        assert_eq!(s.active(160, 10_000).bytes, 8192);
    }

    #[test]
    fn mean_is_weighted() {
        let s = PhaseSchedule::sequence(vec![Phase::new(3.0, ws(1000)), Phase::new(1.0, ws(5000))]);
        assert!((s.mean_bytes() - 2000.0).abs() < 1e-9);
        assert_eq!(s.max_bytes(), 5000);
    }

    #[test]
    #[should_panic(expected = "at least one phase")]
    fn empty_schedule_panics() {
        let _ = PhaseSchedule::sequence(vec![]);
    }

    #[test]
    #[should_panic(expected = "period must be positive")]
    fn zero_period_panics() {
        let _ = PhaseSchedule::periodic(0, vec![Phase::new(1.0, ws(1024))]);
    }

    #[test]
    fn accessors() {
        let s = PhaseSchedule::periodic(10, vec![Phase::new(1.0, ws(1024))]);
        assert_eq!(s.kind(), ScheduleKind::Periodic { period: 10 });
        assert_eq!(s.phases().len(), 1);
    }

    #[test]
    fn cursor_matches_direct_lookup_exactly() {
        // Include a repeated spec (1024 ... 1024) so the cursor must track
        // phase identity, not spec equality, across the A-B-A pattern.
        let schedules = [
            PhaseSchedule::constant(ws(4096)),
            PhaseSchedule::sequence(vec![
                Phase::new(0.3, ws(1024)),
                Phase::new(0.4, ws(8192)),
                Phase::new(0.3, ws(1024)),
            ]),
            PhaseSchedule::periodic(
                997,
                vec![
                    Phase::new(0.5, ws(2048)),
                    Phase::new(0.25, ws(16384)),
                    Phase::new(0.25, ws(2048)),
                ],
            ),
        ];
        for schedule in &schedules {
            for total in [1u64, 10, 997, 10_000] {
                let mut cursor = ScheduleCursor::new();
                for i in 0..total {
                    assert_eq!(
                        cursor.active(schedule, i, total),
                        schedule.active(i, total),
                        "index {i} of {total}"
                    );
                }
            }
        }
    }
}
