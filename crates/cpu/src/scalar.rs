//! Scalar reference implementations of both engines, kept verbatim as
//! differential oracles.
//!
//! Like the engines, these walk the record slice one record at a time; they
//! differ in how they spell each step. The oracles match on the
//! materialized [`Op`] where the engines dispatch on the raw kind tag with
//! an ALU-latency table, count each activity total in its `Op` arm, and
//! commit and price the ROB and LSQ through the unfused
//! `is_full`/`commit_oldest` and `reserve` calls where the engines use
//! `commit_if_full` and `reserve_delay`. The engines in [`crate::ooo`] and
//! [`crate::inorder`] must be bit-identical to these loops — result, final
//! hierarchy snapshot and every hook observation — on every warm/measure
//! split plan, hooked and unhooked (`tests/engine_oracle.rs`), so a
//! divergence localizes a bug to that spelling.
//!
//! Both references share the engines' building blocks ([`FetchUnit`],
//! [`ReorderBuffer`], [`LoadStoreQueue`], [`BranchPredictor`] and the
//! completion ring) on purpose: the differential pins the engine loops, not
//! the microarchitectural model.
//!
//! This module is not part of the supported API surface; it exists for the
//! test suite and is hidden from documentation.

#![doc(hidden)]

use rescache_cache::{AccessClass, MemoryHierarchy, MshrFile};
use rescache_trace::{InstrRecord, Op};

use crate::activity::ActivityCounters;
use crate::branch::BranchPredictor;
use crate::completion::{producer_ready, COMPLETION_RING};
use crate::config::{CpuConfig, EngineKind};
use crate::fetch::FetchUnit;
use crate::hook::SimHook;
use crate::lsq::LoadStoreQueue;
use crate::result::{LatencyStats, SimResult};
use crate::rob::ReorderBuffer;

/// Dispatches to the scalar reference loop of the configuration's engine —
/// the reference twin of one engine run (`InOrderEngine::run` or
/// `OutOfOrderEngine::run`).
pub fn run_engine_reference<H: SimHook + ?Sized>(
    cfg: &CpuConfig,
    records: &[InstrRecord],
    hierarchy: &mut MemoryHierarchy,
    hook: &mut H,
) -> SimResult {
    match cfg.engine {
        EngineKind::InOrderBlocking => run_inorder_reference(cfg, records, hierarchy, hook),
        EngineKind::OutOfOrderNonBlocking => run_ooo_reference(cfg, records, hierarchy, hook),
    }
}

/// Per-record reference of the out-of-order engine loop.
pub fn run_ooo_reference<H: SimHook + ?Sized>(
    cfg: &CpuConfig,
    records: &[InstrRecord],
    hierarchy: &mut MemoryHierarchy,
    hook: &mut H,
) -> SimResult {
    let mut dispatch_cycle: u64 = 1;
    let mut dispatched_this_cycle: u32 = 0;
    let mut fetch_resume_cycle: u64 = 0;
    let mut completion = [0u64; COMPLETION_RING];
    let mut rob = ReorderBuffer::new(cfg.rob_entries, cfg.issue_width);
    let mut lsq = LoadStoreQueue::new(cfg.lsq_entries);
    let mut mshr = MshrFile::new(cfg.mshr_entries);
    let mut fetch = FetchUnit::new(hierarchy.config().l1i.block_bytes, cfg.issue_width);
    let mut predictor = BranchPredictor::default();
    let mut last_forced_commit: u64 = 0;
    let block_shift = hierarchy.config().l1d.block_bytes.max(1).trailing_zeros();
    let store_latency_cap = hierarchy.config().l1d.hit_latency + 1;
    let mut fp_ops: u64 = 0;
    let mut mem_ops: u64 = 0;
    let mut branches: u64 = 0;
    let mut regfile_reads: u64 = 0;
    let mut latency = LatencyStats::default();

    let mut idx: usize = 0;
    for rec in records {
        let wrap = dispatched_this_cycle >= cfg.issue_width;
        dispatch_cycle += u64::from(wrap);
        if wrap {
            dispatched_this_cycle = 0;
        }
        let redirected = dispatch_cycle < fetch_resume_cycle;
        dispatch_cycle = dispatch_cycle.max(fetch_resume_cycle);
        if redirected {
            dispatched_this_cycle = 0;
        }

        let fetch_stall = fetch.fetch(rec.pc(), dispatch_cycle, hierarchy);
        if fetch_stall > 0 {
            dispatch_cycle += fetch_stall;
            dispatched_this_cycle = 0;
        }

        if rob.is_full() {
            let commit_cycle = rob.commit_oldest().expect("full ROB is non-empty");
            last_forced_commit = last_forced_commit.max(commit_cycle);
            let bumped = commit_cycle > dispatch_cycle;
            dispatch_cycle = dispatch_cycle.max(commit_cycle);
            if bumped {
                dispatched_this_cycle = 0;
            }
        }

        regfile_reads += u64::from(rec.dep1() > 0) + u64::from(rec.dep2() > 0);

        let dep_ready = producer_ready(&completion, idx, rec.dep1()).max(producer_ready(
            &completion,
            idx,
            rec.dep2(),
        ));
        let ready = dispatch_cycle.max(dep_ready);

        let complete = match rec.op() {
            Op::Int => ready + cfg.int_latency,
            Op::Fp => {
                fp_ops += 1;
                ready + cfg.fp_latency
            }
            Op::Load(addr) => {
                mem_ops += 1;
                let access = hierarchy.access_data(addr, false, ready);
                let block = addr >> block_shift;
                let fill = mshr.lookup_retire(block, ready);
                let finish = match access.classify(fill.map(|f| f.ready_cycle), ready) {
                    AccessClass::Hit => ready + access.latency,
                    AccessClass::DelayedHit { remaining } => {
                        latency.delayed_hits += 1;
                        latency.delayed_hit_cycles += remaining;
                        hierarchy.note_delayed_hit(remaining);
                        ready + remaining
                    }
                    AccessClass::PrimaryMiss => {
                        let start = if mshr.is_full() {
                            let free_at = mshr
                                .earliest_completion()
                                .expect("full MSHR file is non-empty");
                            mshr.retire_completed(free_at);
                            free_at.max(ready)
                        } else {
                            ready
                        };
                        let finish = start + access.latency;
                        mshr.allocate(block, start, finish);
                        latency.note_primary_miss(access.latency, access.l2_hit);
                        finish
                    }
                };
                let available = lsq.reserve(ready, finish);
                finish + available.saturating_sub(ready)
            }
            Op::Store(addr) => {
                mem_ops += 1;
                let access = hierarchy.access_data(addr, true, ready);
                if !access.l1_hit {
                    latency.note_primary_miss(access.latency.min(store_latency_cap), access.l2_hit);
                }
                let finish = ready + access.latency.min(store_latency_cap);
                let available = lsq.reserve(ready, finish);
                finish + available.saturating_sub(ready)
            }
            Op::Branch { taken } => {
                branches += 1;
                let correct = predictor.resolve(rec.pc(), taken);
                let finish = ready + cfg.int_latency;
                if !correct {
                    fetch_resume_cycle = fetch_resume_cycle.max(finish + cfg.mispredict_penalty);
                }
                finish
            }
        };

        rob.dispatch(complete);
        completion[idx % COMPLETION_RING] = complete;
        dispatched_this_cycle += 1;
        idx += 1;
        hook.post_commit(idx as u64, dispatch_cycle, hierarchy);
    }

    let drained = rob.drain();
    let cycles = drained.max(last_forced_commit).max(dispatch_cycle);
    SimResult {
        cycles,
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

/// Per-record reference of the in-order engine loop.
pub fn run_inorder_reference<H: SimHook + ?Sized>(
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
    let mut fp_ops: u64 = 0;
    let mut mem_ops: u64 = 0;
    let mut branches: u64 = 0;
    let mut regfile_reads: u64 = 0;
    let mut latency = LatencyStats::default();

    let mut idx: usize = 0;
    for rec in records {
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

        regfile_reads += u64::from(rec.dep1() > 0) + u64::from(rec.dep2() > 0);

        let complete = match rec.op() {
            Op::Int => cycle + cfg.int_latency,
            Op::Fp => {
                fp_ops += 1;
                cycle + cfg.fp_latency
            }
            Op::Load(addr) | Op::Store(addr) => {
                mem_ops += 1;
                let write = rec.op().is_store();
                let access = hierarchy.access_data(addr, write, cycle);
                if access.l1_hit {
                    cycle + access.latency
                } else {
                    latency.note_primary_miss(access.latency, access.l2_hit);
                    cycle += access.latency;
                    issued_this_cycle = 0;
                    cycle
                }
            }
            Op::Branch { taken } => {
                branches += 1;
                let correct = predictor.resolve(rec.pc(), taken);
                if !correct {
                    cycle += cfg.mispredict_penalty;
                    issued_this_cycle = 0;
                }
                cycle + cfg.int_latency
            }
        };

        completion[idx % COMPLETION_RING] = complete;
        max_completion = max_completion.max(complete);
        issued_this_cycle += 1;
        idx += 1;
        hook.post_commit(idx as u64, cycle, hierarchy);
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
    use rescache_trace::Trace;

    #[test]
    fn reference_prices_a_hit_on_an_in_flight_fill() {
        // Two independent loads to one block in one fetch group: the second
        // hits the line the first is still filling.
        let trace = Trace::new(
            "hit-under-fill",
            vec![
                InstrRecord::new(0x40_0000, Op::Load(0x100_0000)),
                InstrRecord::new(0x40_0004, Op::Load(0x100_0008)),
            ],
        );
        let mut hierarchy = MemoryHierarchy::new(HierarchyConfig::base()).unwrap();
        let result = run_ooo_reference(
            &CpuConfig::base_out_of_order(),
            trace.records(),
            &mut hierarchy,
            &mut NoopHook,
        );
        let latency = result.latency;
        assert_eq!(latency.d_primary_misses, 1);
        assert_eq!(latency.delayed_hits, 1, "the second load is a delayed hit");
        assert_eq!(
            latency.delayed_hit_cycles, latency.d_miss_cycles,
            "the second load finishes no earlier than the fill"
        );
    }
}
