//! Per-structure activity counters for the energy model.
//!
//! Wattch charges each processor structure per access and scales by activity;
//! these counters are the activity side of that contract. Cache accesses are
//! counted by the caches themselves (`rescache_cache::CacheStats`), so only
//! the core-pipeline structures appear here.

/// Activity counts accumulated during one simulation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ActivityCounters {
    /// Instructions fetched (front-end occupancy).
    pub fetched: u64,
    /// Instructions renamed / dispatched into the window.
    pub dispatched: u64,
    /// Instructions committed.
    pub committed: u64,
    /// Integer ALU operations executed.
    pub int_alu_ops: u64,
    /// Floating-point operations executed.
    pub fp_ops: u64,
    /// Load/store-queue accesses (one per memory operation).
    pub lsq_accesses: u64,
    /// Reorder-buffer accesses (dispatch, writeback and commit touches).
    pub rob_accesses: u64,
    /// Register-file read ports exercised.
    pub regfile_reads: u64,
    /// Register-file write ports exercised.
    pub regfile_writes: u64,
    /// Result-bus transfers (one per completing instruction).
    pub result_bus: u64,
    /// Branch-predictor accesses (lookup plus update).
    pub bpred_accesses: u64,
}

impl ActivityCounters {
    /// Builds the counters for a completed run of `instructions` committed
    /// instructions in one step.
    ///
    /// Every instruction is fetched, dispatched, executed and committed
    /// exactly once in both engines, so all per-instruction counters are
    /// derivable from the totals; the engines accumulate only the four inputs
    /// that vary per instruction and call this once per run instead of
    /// updating eleven counters per instruction in the hot loop.
    pub fn from_run_totals(
        instructions: u64,
        fp_ops: u64,
        mem_ops: u64,
        branches: u64,
        regfile_reads: u64,
    ) -> Self {
        Self {
            fetched: instructions,
            dispatched: instructions,
            committed: instructions,
            int_alu_ops: instructions - fp_ops,
            fp_ops,
            lsq_accesses: mem_ops,
            // Dispatch, writeback and commit each touch the ROB once.
            rob_accesses: 3 * instructions,
            regfile_reads,
            regfile_writes: instructions,
            result_bus: instructions,
            bpred_accesses: 2 * branches,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_totals_derive_every_counter() {
        let (n, fp, mem, branches, reads) = (1_000, 150, 320, 90, 1_700);
        let a = ActivityCounters::from_run_totals(n, fp, mem, branches, reads);
        for (name, count) in [
            ("fetched", a.fetched),
            ("dispatched", a.dispatched),
            ("committed", a.committed),
            ("result_bus", a.result_bus),
            ("regfile_writes", a.regfile_writes),
        ] {
            assert_eq!(count, n, "{name}");
        }
        assert_eq!(a.int_alu_ops, n - fp);
        assert_eq!(a.fp_ops, fp);
        assert_eq!(a.rob_accesses, 3 * n);
        assert_eq!(a.bpred_accesses, 2 * branches);
        assert_eq!(a.lsq_accesses, mem);
        assert_eq!(a.regfile_reads, reads);
    }
}
