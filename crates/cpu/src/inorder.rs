//! The in-order issue engine with a blocking data cache.
//!
//! [`run`] is one loop over the record slice: each record is
//! fetched through the [`FetchUnit`], waits for its producers in the
//! completion ring, and dispatches on its one-byte kind tag. The loop counts
//! the four activity totals as it goes and expands them into the full
//! counter set once at the end. [`crate::scalar`] holds the `Op`-matching
//! oracle this loop is differentially tested against.

use rescache_cache::MemoryHierarchy;
use rescache_trace::{kind, InstrRecord};

use crate::activity::ActivityCounters;
use crate::branch::BranchPredictor;
use crate::completion::{producer_ready, COMPLETION_RING};
use crate::config::CpuConfig;
use crate::fetch::FetchUnit;
use crate::hook::SimHook;
use crate::result::{LatencyStats, SimResult};

/// Replays `records` against `hierarchy` on the in-order, width-limited
/// issue engine with a blocking d-cache, invoking `hook` after every
/// committed instruction. Every data-cache miss stalls the pipeline until
/// the fill returns, so d-cache miss latency is fully exposed to execution
/// time.
///
/// `cfg` must pass [`CpuConfig::assert_valid`]; [`crate::Simulator::new`]
/// checks it once. The loop monomorphizes over the hook:
/// [`crate::NoopHook`] compiles the hook call away, so plain (non-resizing)
/// simulations pay no per-instruction virtual call.
pub fn run<H: SimHook + ?Sized>(
    cfg: &CpuConfig,
    records: &[InstrRecord],
    hierarchy: &mut MemoryHierarchy,
    hook: &mut H,
) -> SimResult {
    let mut cycle: u64 = 1;
    let mut issued_this_cycle: u32 = 0;
    let mut completion = [0u64; COMPLETION_RING];
    let mut fetch = FetchUnit::new(hierarchy.config().l1i.block_bytes, cfg.issue_width);
    let mut predictor = BranchPredictor::default();
    let mut max_completion: u64 = 0;
    // The ALU classes (the most common pair) resolve their latency by a
    // two-entry table indexed with the kind tag instead of a branch.
    let alu_latency = [cfg.int_latency, cfg.fp_latency];
    // Only four activity totals are counted per instruction, without a
    // branch; the full counter set follows from them (see
    // `ActivityCounters::from_run_totals`).
    let mut fp_ops: u64 = 0;
    let mut mem_ops: u64 = 0;
    let mut branches: u64 = 0;
    let mut regfile_reads: u64 = 0;
    // The blocking d-cache admits no overlap, so there are no delayed
    // hits by construction: every d-miss is a primary miss whose full
    // latency the pipeline pays.
    let mut latency = LatencyStats::default();

    let mut idx: usize = 0;
    for rec in records {
        let k = rec.kind_tag();
        fp_ops += u64::from(k == kind::FP);
        mem_ops += u64::from(k == kind::LOAD || k == kind::STORE);
        branches += u64::from(k >= kind::BRANCH_NOT_TAKEN);
        regfile_reads += u64::from(rec.dep1() > 0) + u64::from(rec.dep2() > 0);

        // Width wrap and dependency waits resolve through selects where
        // possible: both follow simulated data, so host branches here
        // are unpredictable (this loop head runs once per instruction).
        let wrap = issued_this_cycle >= cfg.issue_width;
        cycle += u64::from(wrap);
        if wrap {
            issued_this_cycle = 0;
        }

        let fetch_stall = fetch.fetch(rec.pc(), cycle, hierarchy);
        if fetch_stall > 0 {
            cycle += fetch_stall;
            issued_this_cycle = 0;
        }

        // In-order issue: wait for both producers to have completed.
        let dep_ready = producer_ready(&completion, idx, rec.dep1()).max(producer_ready(
            &completion,
            idx,
            rec.dep2(),
        ));
        let waited = dep_ready > cycle;
        cycle = cycle.max(dep_ready);
        if waited {
            issued_this_cycle = 0;
        }

        let complete = if k >= kind::BRANCH_NOT_TAKEN {
            let correct = predictor.resolve(rec.pc(), k == kind::BRANCH_TAKEN);
            if !correct {
                cycle += cfg.mispredict_penalty;
                issued_this_cycle = 0;
            }
            cycle + cfg.int_latency
        } else if k >= kind::LOAD {
            let write = k == kind::STORE;
            let access = hierarchy.access_data(u64::from(rec.addr_raw()), write, cycle);
            if access.l1_hit {
                cycle + access.latency
            } else {
                // Blocking cache: the whole pipeline waits for the fill.
                latency.note_primary_miss(access.latency, access.l2_hit);
                cycle += access.latency;
                issued_this_cycle = 0;
                cycle
            }
        } else {
            cycle + alu_latency[usize::from(k)]
        };

        completion[idx % COMPLETION_RING] = complete;
        max_completion = max_completion.max(complete);
        issued_this_cycle += 1;
        idx += 1;
        hook.post_commit(idx as u64, hierarchy);
    }

    SimResult {
        cycles: cycle.max(max_completion),
        instructions: idx as u64,
        activity: ActivityCounters::from_run_totals(
            idx as u64,
            fp_ops,
            mem_ops,
            branches,
            regfile_reads,
        ),
        branch: predictor.stats(),
        latency,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hook::NoopHook;
    use rescache_cache::HierarchyConfig;
    use rescache_trace::{spec, Op, Trace, TraceGenerator};

    fn run_trace(trace: &Trace) -> (SimResult, MemoryHierarchy) {
        let mut hierarchy = MemoryHierarchy::new(HierarchyConfig::base()).unwrap();
        let result = run(
            &CpuConfig::base_in_order(),
            trace.records(),
            &mut hierarchy,
            &mut NoopHook,
        );
        (result, hierarchy)
    }

    #[test]
    fn independent_alu_ops_issue_wide() {
        let records = (0..4000)
            .map(|i| InstrRecord::new(0x40_0000 + (i % 8) * 4, Op::Int))
            .collect();
        let trace = Trace::new("alu", records);
        let (result, _) = run_trace(&trace);
        let ipc = result.ipc();
        assert!(
            ipc > 2.0,
            "independent ALU ops should issue wide, ipc {ipc}"
        );
    }

    #[test]
    fn dependent_chain_serialises() {
        let records = (0..4000)
            .map(|i| InstrRecord::with_deps(0x40_0000 + (i % 8) * 4, Op::Int, 1, 0))
            .collect();
        let trace = Trace::new("chain", records);
        let (result, _) = run_trace(&trace);
        assert!(
            result.ipc() <= 1.05,
            "a dependent chain cannot exceed 1 IPC, got {}",
            result.ipc()
        );
    }

    #[test]
    fn dcache_misses_stall_the_pipeline() {
        // Loads striding far apart so every one misses.
        let records = (0..2000u64)
            .map(|i| InstrRecord::new(0x40_0000, Op::Load(0x100_0000 + i * 4096)))
            .collect();
        let trace = Trace::new("misses", records);
        let (result, hierarchy) = run_trace(&trace);
        assert!(hierarchy.l1d().stats().miss_ratio() > 0.9);
        assert!(
            result.cpi() > 50.0,
            "blocking misses should dominate execution, cpi {}",
            result.cpi()
        );
    }

    #[test]
    fn runs_full_spec_profile() {
        let trace = TraceGenerator::new(spec::m88ksim(), 3).generate(20_000);
        let (result, hierarchy) = run_trace(&trace);
        assert_eq!(result.instructions, 20_000);
        assert!(result.cycles > 5_000);
        assert!(result.ipc() > 0.1 && result.ipc() < 4.0);
        assert!(hierarchy.l1d().stats().accesses > 3_000);
        assert!(hierarchy.l1i().stats().accesses > 1_000);
        assert_eq!(result.activity.committed, 20_000);
    }

    #[test]
    fn branch_mispredicts_add_cycles() {
        // Alternate predictable and random-looking branch outcomes.
        let predictable: Vec<_> = (0..4000)
            .map(|_| InstrRecord::new(0x40_0000, Op::Branch { taken: true }))
            .collect();
        let mut x = 9u64;
        let random: Vec<_> = (0..4000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                InstrRecord::new(0x40_0000, Op::Branch { taken: x & 1 == 1 })
            })
            .collect();
        let (good, _) = run_trace(&Trace::new("predictable", predictable));
        let (bad, _) = run_trace(&Trace::new("random", random));
        assert!(
            bad.cycles > good.cycles * 2,
            "mispredictions should cost cycles: {} vs {}",
            bad.cycles,
            good.cycles
        );
        assert!(bad.branch.mispredict_ratio() > 0.3);
        assert!(good.branch.mispredict_ratio() < 0.05);
    }

    #[test]
    fn hook_sees_every_commit() {
        struct Counter(u64);
        impl SimHook for Counter {
            fn post_commit(&mut self, committed: u64, _h: &mut MemoryHierarchy) {
                self.0 = committed;
            }
        }
        let trace = TraceGenerator::new(spec::ammp(), 1).generate(1_000);
        let mut hierarchy = MemoryHierarchy::new(HierarchyConfig::base()).unwrap();
        let mut hook = Counter(0);
        run(
            &CpuConfig::base_in_order(),
            trace.records(),
            &mut hierarchy,
            &mut hook,
        );
        assert_eq!(hook.0, 1_000);
    }
}
