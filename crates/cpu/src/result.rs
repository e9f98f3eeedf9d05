//! Simulation results.

use crate::activity::ActivityCounters;
use crate::branch::BranchStats;

/// Latency-domain accounting for the data side of one run.
///
/// Every d-cache access the engine prices lands in exactly one class:
/// an L1 hit (not counted here), a **delayed hit** (the block's fill is
/// still in flight, so the access pays only the *remaining* latency), or a
/// **primary miss** (a fresh fill from L2 or memory). Fields are integers so
/// [`SimResult`] stays `Copy + Eq`; means are derived by methods.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LatencyStats {
    /// Loads to a block whose fill was still in flight: tag hits whose data
    /// had not arrived, and secondary misses that merged with the fill.
    pub delayed_hits: u64,
    /// Total stall cycles those delayed hits paid (remaining fill latency).
    pub delayed_hit_cycles: u64,
    /// Data accesses that started a fresh fill (or, on the blocking engine,
    /// any d-cache miss).
    pub d_primary_misses: u64,
    /// Total latency cycles those primary misses paid.
    pub d_miss_cycles: u64,
    /// Primary misses satisfied by the unified L2.
    pub l2_hit_fills: u64,
    /// Primary misses that went all the way to main memory.
    pub memory_fills: u64,
}

impl LatencyStats {
    /// Counts one primary miss that paid `cycles` and filled from the L2
    /// (`l2_hit`) or from memory.
    #[inline]
    pub fn note_primary_miss(&mut self, cycles: u64, l2_hit: bool) {
        self.d_primary_misses += 1;
        self.d_miss_cycles += cycles;
        self.l2_hit_fills += u64::from(l2_hit);
        self.memory_fills += u64::from(!l2_hit);
    }

    /// Mean stall cycles per delayed hit.
    pub fn mean_delayed_hit_cycles(&self) -> f64 {
        if self.delayed_hits == 0 {
            0.0
        } else {
            self.delayed_hit_cycles as f64 / self.delayed_hits as f64
        }
    }

    /// Mean latency cycles per primary miss.
    pub fn mean_miss_cycles(&self) -> f64 {
        if self.d_primary_misses == 0 {
            0.0
        } else {
            self.d_miss_cycles as f64 / self.d_primary_misses as f64
        }
    }
}

/// Result of replaying one trace on one engine.
///
/// Cache-side statistics stay on the [`rescache_cache::MemoryHierarchy`] that
/// was passed to the engine; this struct carries the processor-side numbers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimResult {
    /// Total execution time in cycles.
    pub cycles: u64,
    /// Instructions committed (equals the trace length).
    pub instructions: u64,
    /// Per-structure activity for the energy model.
    pub activity: ActivityCounters,
    /// Branch-prediction accuracy.
    pub branch: BranchStats,
    /// Latency-domain breakdown of the data-side accesses.
    pub latency: LatencyStats,
}

impl SimResult {
    /// Committed instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }

    /// Cycles per committed instruction.
    pub fn cpi(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            self.cycles as f64 / self.instructions as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ipc_and_cpi_are_reciprocal() {
        let r = SimResult {
            cycles: 500,
            instructions: 1000,
            activity: ActivityCounters::default(),
            branch: BranchStats::default(),
            latency: LatencyStats::default(),
        };
        assert!((r.ipc() - 2.0).abs() < 1e-12);
        assert!((r.cpi() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn latency_means_follow_the_counters() {
        let l = LatencyStats {
            delayed_hits: 4,
            delayed_hit_cycles: 20,
            d_primary_misses: 2,
            d_miss_cycles: 36,
            l2_hit_fills: 1,
            memory_fills: 1,
        };
        assert!((l.mean_delayed_hit_cycles() - 5.0).abs() < 1e-12);
        assert!((l.mean_miss_cycles() - 18.0).abs() < 1e-12);
        let empty = LatencyStats::default();
        assert_eq!(empty.mean_delayed_hit_cycles(), 0.0);
        assert_eq!(empty.mean_miss_cycles(), 0.0);
    }

    #[test]
    fn degenerate_results_do_not_divide_by_zero() {
        let r = SimResult {
            cycles: 0,
            instructions: 0,
            activity: ActivityCounters::default(),
            branch: BranchStats::default(),
            latency: LatencyStats::default(),
        };
        assert_eq!(r.ipc(), 0.0);
        assert_eq!(r.cpi(), 0.0);
    }
}
