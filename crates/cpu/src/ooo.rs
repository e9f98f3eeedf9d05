//! The out-of-order issue engine with a non-blocking data cache.
//!
//! [`OutOfOrderEngine::run`] is one loop over the record slice: each record
//! is fetched through the [`FetchUnit`], takes a ROB slot (committing the
//! oldest entry when the window is full), reads its producers from the
//! completion ring and dispatches on its one-byte kind tag. The loop counts
//! the four activity totals as it goes and expands them into the full
//! counter set once at the end. [`crate::scalar`] holds the `Op`-matching
//! oracle this loop is differentially tested against.

use rescache_cache::{AccessClass, MemoryHierarchy, MshrFile};
use rescache_trace::{kind, InstrRecord};

use crate::activity::ActivityCounters;
use crate::branch::BranchPredictor;
use crate::completion::{producer_ready, COMPLETION_RING};
use crate::config::CpuConfig;
use crate::fetch::FetchUnit;
use crate::hook::SimHook;
use crate::lsq::LoadStoreQueue;
use crate::result::{LatencyStats, SimResult};
use crate::rob::ReorderBuffer;

/// Four-wide out-of-order issue with a non-blocking d-cache.
///
/// The model is dispatch-driven: instructions enter the window at up to
/// `issue_width` per cycle (stalling on i-cache misses, branch mispredictions
/// and a full ROB/LSQ), execute as soon as their producers are ready, and
/// commit in order. Data-cache misses overlap with younger independent work
/// as long as MSHRs and the ROB have capacity — which is precisely why the
/// paper finds static resizing competitive with dynamic resizing on this
/// configuration: the extra d-cache misses a smaller static size causes are
/// largely off the critical path.
#[derive(Debug, Clone)]
pub struct OutOfOrderEngine {
    config: CpuConfig,
}

impl OutOfOrderEngine {
    /// Creates the engine.
    ///
    /// # Panics
    ///
    /// Panics if the configuration has zero-sized structures.
    pub fn new(config: CpuConfig) -> Self {
        config.assert_valid();
        Self { config }
    }

    /// The configuration this engine runs with.
    pub fn config(&self) -> &CpuConfig {
        &self.config
    }

    /// Replays `records` against `hierarchy`, invoking `hook` after every
    /// dispatched-and-eventually-committed instruction — the engine's one
    /// run entry.
    ///
    /// The loop monomorphizes over the hook: [`crate::NoopHook`] compiles
    /// the hook call away, so plain (non-resizing) simulations pay no
    /// per-instruction virtual call.
    pub fn run<H: SimHook + ?Sized>(
        &self,
        records: &[InstrRecord],
        hierarchy: &mut MemoryHierarchy,
        hook: &mut H,
    ) -> SimResult {
        let cfg = &self.config;
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
        let mut latency = LatencyStats::default();

        let mut idx: usize = 0;
        for rec in records {
            let k = rec.kind_tag();
            fp_ops += u64::from(k == kind::FP);
            mem_ops += u64::from(k == kind::LOAD || k == kind::STORE);
            branches += u64::from(k >= kind::BRANCH_NOT_TAKEN);
            regfile_reads += u64::from(rec.dep1() > 0) + u64::from(rec.dep2() > 0);

            // Width wrap and misprediction redirects resolve through selects:
            // both follow simulated data, so host branches here are
            // unpredictable (this loop head runs once per instruction).
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

            // Instruction fetch: i-cache misses stall dispatch directly.
            let fetch_stall = fetch.fetch(rec.pc(), dispatch_cycle, hierarchy);
            if fetch_stall > 0 {
                dispatch_cycle += fetch_stall;
                dispatched_this_cycle = 0;
            }

            // Window space: a full ROB forces the oldest instruction to
            // commit before this one can dispatch.
            if let Some(commit_cycle) = rob.commit_if_full() {
                last_forced_commit = last_forced_commit.max(commit_cycle);
                let bumped = commit_cycle > dispatch_cycle;
                dispatch_cycle = dispatch_cycle.max(commit_cycle);
                if bumped {
                    dispatched_this_cycle = 0;
                }
            }

            // Operands become ready when both producers have completed.
            let dep_ready = producer_ready(&completion, idx, rec.dep1()).max(producer_ready(
                &completion,
                idx,
                rec.dep2(),
            ));
            let ready = dispatch_cycle.max(dep_ready);

            let complete = if k >= kind::BRANCH_NOT_TAKEN {
                let correct = predictor.resolve(rec.pc(), k == kind::BRANCH_TAKEN);
                let finish = ready + cfg.int_latency;
                if !correct {
                    // Fetch resumes only after the branch resolves and the
                    // front end refills.
                    fetch_resume_cycle = fetch_resume_cycle.max(finish + cfg.mispredict_penalty);
                }
                finish
            } else if k == kind::LOAD {
                let addr = u64::from(rec.addr_raw());
                let access = hierarchy.access_data(addr, false, ready);
                // Every load looks the block up in the MSHR file, hit or
                // miss: a tag hit may find its fill still in flight (the
                // hierarchy fills lines at access time), and the same pass
                // retires completed entries. `ready` is not monotone across
                // loads, so retiring only on misses would let a later,
                // earlier-`ready` miss merge with an entry an intervening hit
                // would have retired.
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
                            // All MSHRs busy: the miss waits for one to free.
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
                finish + lsq.reserve_delay(ready, finish)
            } else if k == kind::STORE {
                // Stores update the cache but retire through the write
                // buffer: the pipeline only pays the L1 access.
                let access = hierarchy.access_data(u64::from(rec.addr_raw()), true, ready);
                if !access.l1_hit {
                    // A store miss starts a fill too, but the pipeline only
                    // ever pays the capped write-buffer latency.
                    latency.note_primary_miss(access.latency.min(store_latency_cap), access.l2_hit);
                }
                let finish = ready + access.latency.min(store_latency_cap);
                finish + lsq.reserve_delay(ready, finish)
            } else {
                ready + alu_latency[usize::from(k)]
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hook::NoopHook;
    use crate::inorder::InOrderEngine;
    use rescache_cache::HierarchyConfig;
    use rescache_trace::{spec, Op, Trace, TraceGenerator};

    fn run_ooo(trace: &Trace) -> (SimResult, MemoryHierarchy) {
        let mut hierarchy = MemoryHierarchy::new(HierarchyConfig::base()).unwrap();
        let result = OutOfOrderEngine::new(CpuConfig::base_out_of_order()).run(
            trace.records(),
            &mut hierarchy,
            &mut NoopHook,
        );
        (result, hierarchy)
    }

    fn run_inorder(trace: &Trace) -> SimResult {
        let mut hierarchy = MemoryHierarchy::new(HierarchyConfig::base()).unwrap();
        InOrderEngine::new(CpuConfig::base_in_order()).run(
            trace.records(),
            &mut hierarchy,
            &mut NoopHook,
        )
    }

    /// A trace of independent loads over a working set larger than the L1 so
    /// that misses are frequent but overlappable.
    fn independent_miss_trace(n: usize) -> Trace {
        let records = (0..n as u64)
            .map(|i| {
                // 8 independent ALU ops per load give the window work to hide
                // the miss under.
                if i % 8 == 0 {
                    InstrRecord::new(
                        0x40_0000 + (i % 8) * 4,
                        Op::Load(0x100_0000 + (i * 67 % 4096) * 4096),
                    )
                } else {
                    InstrRecord::new(0x40_0000 + (i % 8) * 4, Op::Int)
                }
            })
            .collect();
        Trace::new("overlap", records)
    }

    /// Two independent loads to one block in one fetch group: the first
    /// misses and starts the fill, the second hits the freshly allocated
    /// line while that fill is still in flight.
    fn hit_under_fill_trace() -> Trace {
        Trace::new(
            "hit-under-fill",
            vec![
                InstrRecord::new(0x40_0000, Op::Load(0x100_0000)),
                InstrRecord::new(0x40_0004, Op::Load(0x100_0008)),
            ],
        )
    }

    #[test]
    fn a_hit_on_an_in_flight_fill_waits_for_the_fill() {
        let (result, hierarchy) = run_ooo(&hit_under_fill_trace());
        let latency = result.latency;
        assert_eq!(latency.d_primary_misses, 1);
        assert_eq!(latency.delayed_hits, 1, "the second load is a delayed hit");
        // Both loads are ready in the same cycle, so the second finishes no
        // earlier than the first's fill: it waits out the whole miss.
        assert_eq!(latency.delayed_hit_cycles, latency.d_miss_cycles);
        assert_eq!(hierarchy.stats().delayed_hits, 1);
        assert_eq!(
            run_inorder(&hit_under_fill_trace()).latency.delayed_hits,
            0,
            "a blocking cache has no fill in flight"
        );
    }

    #[test]
    fn independent_work_issues_wide() {
        let records = (0..4000)
            .map(|i| InstrRecord::new(0x40_0000 + (i % 8) * 4, Op::Int))
            .collect();
        let trace = Trace::new("alu", records);
        let (result, _) = run_ooo(&trace);
        assert!(result.ipc() > 3.0, "ipc {}", result.ipc());
    }

    #[test]
    fn nonblocking_cache_hides_miss_latency_relative_to_blocking() {
        let trace = independent_miss_trace(16_000);
        let (ooo, _) = run_ooo(&trace);
        let ino = run_inorder(&trace);
        assert!(
            ino.cycles as f64 > ooo.cycles as f64 * 1.5,
            "out-of-order should hide a large part of the miss latency: in-order {} vs ooo {}",
            ino.cycles,
            ooo.cycles
        );
    }

    #[test]
    fn rob_bounds_runahead() {
        // A single enormous-latency chain of misses: the window cannot hide
        // everything because the ROB fills.
        let records: Vec<_> = (0..4000u64)
            .map(|i| InstrRecord::with_deps(0x40_0000, Op::Load(0x100_0000 + i * 4096), 1, 0))
            .collect();
        let trace = Trace::new("serial-misses", records);
        let (result, _) = run_ooo(&trace);
        assert!(
            result.cpi() > 50.0,
            "dependent misses cannot be hidden, cpi {}",
            result.cpi()
        );
    }

    #[test]
    fn icache_misses_stall_dispatch() {
        // Instructions spread over a footprint far larger than the 32K L1I,
        // with no data accesses: cycles are dominated by i-cache misses.
        let records: Vec<_> = (0..20_000u64)
            .map(|i| InstrRecord::new(0x40_0000 + (i * 97 % 8192) * 32, Op::Int))
            .collect();
        let trace = Trace::new("ifootprint", records);
        let (result, hierarchy) = run_ooo(&trace);
        assert!(hierarchy.l1i().stats().miss_ratio() > 0.5);
        assert!(
            result.cpi() > 10.0,
            "i-cache misses are exposed in the OoO engine, cpi {}",
            result.cpi()
        );
    }

    #[test]
    fn runs_full_spec_profiles() {
        for profile in [spec::gcc(), spec::swim(), spec::vortex()] {
            let name = profile.name;
            let trace = TraceGenerator::new(profile, 11).generate(30_000);
            let (result, hierarchy) = run_ooo(&trace);
            assert_eq!(result.instructions, 30_000, "{name}");
            assert!(
                result.ipc() > 0.05 && result.ipc() < 4.0,
                "{name}: {}",
                result.ipc()
            );
            assert!(hierarchy.l1d().stats().accesses > 3_000, "{name}");
            assert_eq!(result.activity.committed, 30_000, "{name}");
        }
    }

    #[test]
    fn ooo_is_faster_than_inorder_on_real_profiles() {
        let trace = TraceGenerator::new(spec::su2cor(), 5).generate(30_000);
        let (ooo, _) = run_ooo(&trace);
        let ino = run_inorder(&trace);
        assert!(
            ooo.cycles < ino.cycles,
            "ooo {} should beat in-order {}",
            ooo.cycles,
            ino.cycles
        );
    }

    /// A probe workload for the completion-ring distance semantics: a serial
    /// chain of far-striding misses ends at `bomb_end` with an enormous
    /// completion time, and the mispredicted branch at index 300 carries
    /// dependency distance `probe_dep`. If the probe's `ready` picks up the
    /// bomb's completion, the (hugely penalized) front-end redirect lands
    /// ~`C_bomb` later and the run visibly stretches; if the distance reads
    /// as "already complete", the redirect lands near the small dispatch
    /// cycle instead.
    fn ring_probe_cycles(probe_dep: u8, bomb_end: u64) -> SimResult {
        let records: Vec<InstrRecord> = (0..340u64)
            .map(|i| {
                if i > bomb_end.saturating_sub(24) && i <= bomb_end {
                    InstrRecord::with_deps(0x40_0000, Op::Load(0x100_0000 + i * 4096), 1, 0)
                } else if i == 300 {
                    InstrRecord::with_deps(0x40_0010, Op::Branch { taken: false }, probe_dep, 0)
                } else {
                    InstrRecord::new(0x40_0000 + (i % 4) * 4, Op::Int)
                }
            })
            .collect();
        let trace = Trace::new("ring-probe", records);
        // A window larger than the trace (no forced commits) and a huge
        // misprediction penalty make the probe's operand-ready cycle, and
        // nothing else, decide where the redirect lands.
        let config = CpuConfig {
            rob_entries: 2048,
            mispredict_penalty: 100_000,
            ..CpuConfig::base_out_of_order()
        };
        let mut hierarchy = MemoryHierarchy::new(HierarchyConfig::base()).unwrap();
        OutOfOrderEngine::new(config).run(trace.records(), &mut hierarchy, &mut NoopHook)
    }

    #[test]
    fn ooo_dependency_distance_beyond_the_ring_reads_as_complete() {
        // Distances past COMPLETION_RING (128) must behave exactly like "no
        // producer": the sampled producer is over 128 instructions back and
        // its ring slot has been recycled. Before the saturation fix,
        // distance 200 from index 300 aliased slot (300 - 200) % 128 — the
        // slot of the *younger* instruction 228, here the bomb — and the
        // probe inherited its enormous completion.
        let with_dep = ring_probe_cycles(200, 228);
        let without_dep = ring_probe_cycles(0, 228);
        assert_eq!(
            with_dep.cycles, without_dep.cycles,
            "a dependency 200 back exceeds the ring and must not alias a younger slot"
        );
        assert_eq!(with_dep.instructions, without_dep.instructions);
    }

    #[test]
    fn ooo_dependency_distance_at_exactly_the_ring_still_resolves() {
        // Distance == COMPLETION_RING is the last in-range distance: the slot
        // is overwritten only after the current instruction's operands are
        // read, so it still holds the exact producer (here the bomb at
        // 300 - 128 = 172). The probe must wait on it, unlike the saturated
        // beyond-ring case.
        let at_ring = ring_probe_cycles(128, 172);
        let without_dep = ring_probe_cycles(0, 172);
        assert!(
            at_ring.cycles > without_dep.cycles + 1_000,
            "distance 128 reads the true (still in-flight) producer: {} vs {}",
            at_ring.cycles,
            without_dep.cycles
        );
    }

    #[test]
    fn hook_called_once_per_instruction() {
        struct Counter(u64);
        impl SimHook for Counter {
            fn post_commit(&mut self, committed: u64, _c: u64, _h: &mut MemoryHierarchy) {
                assert_eq!(committed, self.0 + 1);
                self.0 = committed;
            }
        }
        let trace = TraceGenerator::new(spec::vpr(), 2).generate(2_000);
        let mut hierarchy = MemoryHierarchy::new(HierarchyConfig::base()).unwrap();
        let mut hook = Counter(0);
        OutOfOrderEngine::new(CpuConfig::base_out_of_order()).run(
            trace.records(),
            &mut hierarchy,
            &mut hook,
        );
        assert_eq!(hook.0, 2_000);
    }
}
