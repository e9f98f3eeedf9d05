//! The miss-ratio-based dynamic resizing controller.

use std::sync::mpsc;

use rescache_cache::MemoryHierarchy;
use rescache_cpu::SimHook;

use crate::error::CoreError;
use crate::org::{CachePoint, ConfigSpace};
use crate::system::ResizableCacheSide;

/// Parameters of the dynamic (miss-ratio based) resizing framework.
///
/// The paper's framework monitors the cache in fixed-length intervals
/// measured in cache accesses; at the end of each interval the miss counter
/// is compared against the **miss-bound** to decide between upsizing and
/// downsizing, and the **size-bound** prevents the cache from shrinking past
/// a floor. Both parameters are extracted offline through profiling (the
/// experiment runner sweeps a small set of candidates).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DynamicParams {
    /// Interval length in cache accesses.
    pub interval_accesses: u64,
    /// Miss count per interval above which the cache upsizes, and below
    /// which it downsizes.
    pub miss_bound: u64,
    /// Smallest enabled capacity (bytes) the controller may select.
    pub size_bound_bytes: u64,
}

impl DynamicParams {
    /// Creates a parameter set.
    ///
    /// # Errors
    ///
    /// Returns an error if the interval is zero.
    pub fn new(
        interval_accesses: u64,
        miss_bound: u64,
        size_bound_bytes: u64,
    ) -> Result<Self, CoreError> {
        if interval_accesses == 0 {
            return Err(CoreError::InvalidParameter {
                parameter: "interval_accesses",
                detail: "interval must be at least one access".into(),
            });
        }
        Ok(Self {
            interval_accesses,
            miss_bound,
            size_bound_bytes,
        })
    }

    /// The non-resizable cache's miss count per interval of
    /// `interval_accesses` at `base_miss_ratio` (floored at a 10⁻⁴ ratio),
    /// rounded up: the anchor the profiling candidates scale their
    /// miss-bounds from, and the sweep service's default miss-bound.
    pub(crate) fn interval_misses(interval_accesses: u64, base_miss_ratio: f64) -> f64 {
        (base_miss_ratio.max(1e-4) * interval_accesses as f64).ceil()
    }

    /// Profiling candidates: every requested size-bound crossed with
    /// miss-bounds at several multiples of the full-size cache's observed
    /// per-interval miss count.
    ///
    /// The paper extracts both bounds offline through profiling;
    /// [`Runner::dynamic_best`](crate::experiment::Runner::dynamic_best)
    /// passes size-bounds derived from the static profiling result (the
    /// static best size, half and a quarter of it, and the smallest offered
    /// size). Each bound is first snapped to the capacity the
    /// controller would actually floor at ([`ConfigSpace::snap_size_bound`]):
    /// a bound between two offered sizes rounds up to the next offered size
    /// and a bound beyond the full capacity clamps to the full size, so no
    /// candidate sweeps an unreachable floor. Bounds that snap to the same
    /// capacity collapse to one.
    pub fn candidates(
        interval_accesses: u64,
        base_miss_ratio: f64,
        space: &ConfigSpace,
        size_bounds: &[u64],
    ) -> Vec<DynamicParams> {
        let base_misses = Self::interval_misses(interval_accesses, base_miss_ratio);
        let mut bounds: Vec<u64> = size_bounds
            .iter()
            .map(|b| space.snap_size_bound(*b))
            .collect();
        bounds.sort_unstable();
        bounds.dedup();
        let mut candidates = Vec::new();
        for size_bound in bounds {
            for factor in [0.25, 0.5, 1.0, 2.0, 4.0] {
                candidates.push(DynamicParams {
                    interval_accesses,
                    miss_bound: (base_misses * factor).ceil().max(1.0) as u64,
                    size_bound_bytes: size_bound,
                });
            }
        }
        candidates.dedup();
        candidates
    }
}

/// One resize the dynamic controller performed, as observed through a
/// decision sink ([`DynamicController::with_decision_sink`]): the interval
/// bookkeeping that triggered it plus the geometry transition. Resize-only
/// by design — quiet intervals emit nothing, which bounds the stream's
/// volume by the resize count rather than the access count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResizeDecision {
    /// Cache accesses observed (since the last statistics reset) when the
    /// decision fired.
    pub accesses: u64,
    /// The interval's miss count.
    pub interval_signal: u64,
    /// The miss-bound the signal was compared against.
    pub miss_bound: u64,
    /// The geometry before the resize.
    pub from: CachePoint,
    /// The geometry after the resize.
    pub to: CachePoint,
}

/// The dynamic resizing controller, attached to a simulation as a
/// [`SimHook`].
///
/// The controller walks the organization's offered configuration list: when
/// an interval sees more misses than the miss-bound it steps towards the full
/// size, otherwise it steps towards the smallest size allowed by the
/// size-bound. Resizes apply the paper's flush semantics through
/// [`CachePoint::apply`] and the dirty-flush traffic is credited to the L2.
#[derive(Debug, Clone)]
pub struct DynamicController {
    side: ResizableCacheSide,
    space: ConfigSpace,
    params: DynamicParams,
    current: usize,
    min_index: usize,
    last_accesses: u64,
    last_misses: u64,
    resizes: u64,
    sink: Option<mpsc::Sender<ResizeDecision>>,
}

impl DynamicController {
    /// Creates a controller for one cache side over an offered configuration
    /// space.
    ///
    /// # Errors
    ///
    /// Returns an error if the size-bound is larger than the full cache (the
    /// controller could never move).
    pub fn new(
        side: ResizableCacheSide,
        space: ConfigSpace,
        params: DynamicParams,
    ) -> Result<Self, CoreError> {
        let full_bytes = space.sizes_bytes()[0];
        if params.size_bound_bytes > full_bytes {
            return Err(CoreError::InvalidParameter {
                parameter: "size_bound_bytes",
                detail: format!(
                    "size bound {} exceeds the full cache size {}",
                    params.size_bound_bytes, full_bytes
                ),
            });
        }
        let min_index = space.index_of_at_least(params.size_bound_bytes.max(1));
        Ok(Self {
            side,
            space,
            params,
            current: 0,
            min_index,
            last_accesses: 0,
            last_misses: 0,
            resizes: 0,
            sink: None,
        })
    }

    /// Returns this controller streaming every resize it performs into
    /// `sink` as a [`ResizeDecision`] — the observation hook the sweep
    /// service's `dynamic` verb uses to forward interval-by-interval
    /// decisions over the wire while the simulation runs. A dropped
    /// receiver is absorbed silently: observation must never perturb (or
    /// abort) the run it observes.
    pub fn with_decision_sink(mut self, sink: mpsc::Sender<ResizeDecision>) -> Self {
        self.sink = Some(sink);
        self
    }

    /// The currently selected configuration point.
    pub fn current_point(&self) -> CachePoint {
        self.space.points()[self.current]
    }

    /// Number of resizes performed so far.
    pub fn resizes(&self) -> u64 {
        self.resizes
    }

    /// The parameters this controller runs with.
    pub fn params(&self) -> DynamicParams {
        self.params
    }

    /// The interval signal pair: (accesses, misses) of the resized cache.
    fn cache_counters(&self, hierarchy: &MemoryHierarchy) -> (u64, u64) {
        let stats = match self.side {
            ResizableCacheSide::Data => hierarchy.l1d().stats(),
            ResizableCacheSide::Instruction => hierarchy.l1i().stats(),
        };
        (stats.accesses, stats.misses())
    }

    fn apply_point(&mut self, index: usize, hierarchy: &mut MemoryHierarchy) {
        let point = self.space.points()[index];
        let effect = match self.side {
            ResizableCacheSide::Data => point.apply(hierarchy.l1d_mut()),
            ResizableCacheSide::Instruction => point.apply(hierarchy.l1i_mut()),
        };
        hierarchy.note_resize_flush_writebacks(effect.dirty_writebacks);
        self.current = index;
        self.resizes += 1;
    }
}

impl SimHook for DynamicController {
    fn post_commit(&mut self, _committed: u64, hierarchy: &mut MemoryHierarchy) {
        let (accesses, misses) = self.cache_counters(hierarchy);
        if accesses < self.last_accesses {
            // Statistics were reset (end of warm-up): re-anchor the interval.
            self.last_accesses = accesses;
            self.last_misses = misses;
            return;
        }
        if accesses - self.last_accesses < self.params.interval_accesses {
            return;
        }
        let interval_misses = misses - self.last_misses;
        self.last_accesses = accesses;
        self.last_misses = misses;

        let target = if interval_misses > self.params.miss_bound {
            self.current.saturating_sub(1)
        } else if interval_misses < self.params.miss_bound {
            (self.current + 1).min(self.min_index)
        } else {
            self.current
        };
        if target != self.current {
            let from = self.space.points()[self.current];
            self.apply_point(target, hierarchy);
            if let Some(sink) = &self.sink {
                // Ignore a dropped receiver: the run's correctness never
                // depends on anyone watching it.
                let _ = sink.send(ResizeDecision {
                    accesses,
                    interval_signal: interval_misses,
                    miss_bound: self.params.miss_bound,
                    from,
                    to: self.space.points()[target],
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::org::Organization;
    use rescache_cache::{CacheConfig, HierarchyConfig};

    fn space() -> ConfigSpace {
        ConfigSpace::enumerate(
            CacheConfig::l1_default(32 * 1024, 2),
            Organization::SelectiveSets,
        )
        .unwrap()
    }

    fn controller(miss_bound: u64, size_bound: u64) -> DynamicController {
        DynamicController::new(
            ResizableCacheSide::Data,
            space(),
            DynamicParams::new(100, miss_bound, size_bound).unwrap(),
        )
        .unwrap()
    }

    fn drive(hierarchy: &mut MemoryHierarchy, controller: &mut DynamicController, misses: bool) {
        // Issue one interval's worth of d-cache accesses, hitting or missing.
        for i in 0..100u64 {
            let addr = if misses {
                0x900_0000 + (hierarchy.l1d().stats().accesses + i) * 64 * 1024
            } else {
                0x100
            };
            hierarchy.access_data(addr, false, i);
        }
        controller.post_commit(0, hierarchy);
    }

    #[test]
    fn quiet_intervals_downsize_to_the_size_bound() {
        let mut h = MemoryHierarchy::new(HierarchyConfig::base()).unwrap();
        let mut c = controller(10, 4 * 1024);
        for _ in 0..10 {
            drive(&mut h, &mut c, false);
        }
        assert_eq!(
            c.current_point().bytes(32),
            4 * 1024,
            "stops at the size bound"
        );
        assert!(c.resizes() >= 3);
        assert_eq!(h.l1d().enabled_bytes(), 4 * 1024);
    }

    #[test]
    fn missy_intervals_upsize_back_to_full() {
        let mut h = MemoryHierarchy::new(HierarchyConfig::base()).unwrap();
        let mut c = controller(10, 2 * 1024);
        for _ in 0..6 {
            drive(&mut h, &mut c, false);
        }
        assert!(c.current_point().bytes(32) < 32 * 1024);
        for _ in 0..10 {
            drive(&mut h, &mut c, true);
        }
        assert_eq!(
            c.current_point().bytes(32),
            32 * 1024,
            "misses push back to full size"
        );
    }

    #[test]
    fn interval_boundary_is_respected() {
        let mut h = MemoryHierarchy::new(HierarchyConfig::base()).unwrap();
        let mut c = controller(10, 2 * 1024);
        // Fewer accesses than one interval: no decision yet.
        for i in 0..50u64 {
            h.access_data(0x100, false, i);
            c.post_commit(i, &mut h);
        }
        assert_eq!(c.resizes(), 0);
        assert_eq!(c.current_point().bytes(32), 32 * 1024);
    }

    #[test]
    fn stats_reset_reanchors_the_interval() {
        let mut h = MemoryHierarchy::new(HierarchyConfig::base()).unwrap();
        let mut c = controller(10, 2 * 1024);
        for _ in 0..3 {
            drive(&mut h, &mut c, false);
        }
        let before = c.resizes();
        h.reset_stats();
        c.post_commit(0, &mut h);
        assert_eq!(c.resizes(), before, "a reset must not trigger a resize");
    }

    #[test]
    fn candidates_scale_with_the_observed_miss_ratio() {
        let s = space();
        let low = DynamicParams::candidates(1000, 0.01, &s, &[s.min_bytes()]);
        let high = DynamicParams::candidates(1000, 0.2, &s, &[s.min_bytes()]);
        assert_eq!(low.len(), 5);
        assert!(high[1].miss_bound > low[1].miss_bound);
        assert!(low.iter().all(|p| p.size_bound_bytes == s.min_bytes()));
        assert!(low.iter().all(|p| p.miss_bound >= 1));
    }

    #[test]
    fn candidates_with_bounds_cover_the_cross_product() {
        let c = DynamicParams::candidates(1000, 0.05, &space(), &[4 * 1024, 16 * 1024, 4 * 1024]);
        // Duplicate bounds collapse: 2 bounds x 5 miss factors.
        assert_eq!(c.len(), 10);
        assert!(c.iter().any(|p| p.size_bound_bytes == 4 * 1024));
        assert!(c.iter().any(|p| p.size_bound_bytes == 16 * 1024));
    }

    #[test]
    fn candidates_for_space_snap_unoffered_bounds() {
        // Regression: a size-bound the space does not offer used to survive
        // into the sweep — a bound above the full capacity made controller
        // construction fail, and in-between bounds duplicated the
        // neighbouring candidate's simulation under a different label.
        let s = space(); // selective-sets 32K 2-way: 32/16/8/4/2 KiB
        let c = DynamicParams::candidates(1000, 0.05, &s, &[64 * 1024, 5 * 1024, 8 * 1024, 1]);
        // 64K clamps to 32K, 5K rounds up to 8K (collapsing with the
        // explicit 8K), 1 floors at the smallest offered 2K: 3 distinct
        // bounds x 5 miss factors.
        assert_eq!(c.len(), 15);
        for p in &c {
            assert!(
                s.sizes_bytes().contains(&p.size_bound_bytes),
                "bound {} not offered",
                p.size_bound_bytes
            );
            // Every candidate must construct a controller.
            DynamicController::new(ResizableCacheSide::Data, s.clone(), *p)
                .expect("snapped bounds are always valid");
        }
        assert!(c.iter().any(|p| p.size_bound_bytes == 32 * 1024));
        assert!(c.iter().any(|p| p.size_bound_bytes == 8 * 1024));
        assert!(c.iter().any(|p| p.size_bound_bytes == 2 * 1024));
    }

    #[test]
    fn decision_sink_observes_every_resize_and_survives_a_dropped_receiver() {
        let (tx, rx) = std::sync::mpsc::channel();
        let mut h = MemoryHierarchy::new(HierarchyConfig::base()).unwrap();
        let mut c = controller(10, 4 * 1024).with_decision_sink(tx);
        for _ in 0..10 {
            drive(&mut h, &mut c, false);
        }
        let decisions: Vec<ResizeDecision> = rx.try_iter().collect();
        assert_eq!(decisions.len() as u64, c.resizes(), "one line per resize");
        for pair in decisions.windows(2) {
            assert_eq!(pair[0].to, pair[1].from, "transitions chain");
        }
        let last = decisions.last().expect("quiet intervals downsize");
        assert_eq!(last.to, c.current_point());
        assert!(last.interval_signal < 10, "quiet interval signal");
        assert_eq!(last.miss_bound, 10);

        // The receiver is gone (collected above); further resizes must be
        // absorbed, not panic or poison the run.
        for _ in 0..10 {
            drive(&mut h, &mut c, true);
        }
        assert_eq!(c.current_point().bytes(32), 32 * 1024);
    }

    #[test]
    fn invalid_parameters_are_rejected() {
        assert!(DynamicParams::new(0, 5, 1024).is_err());
        let err = DynamicController::new(
            ResizableCacheSide::Data,
            space(),
            DynamicParams::new(100, 5, 64 * 1024).unwrap(),
        )
        .unwrap_err();
        assert!(matches!(err, CoreError::InvalidParameter { .. }));
    }

    #[test]
    fn instruction_side_controller_resizes_the_icache() {
        let mut h = MemoryHierarchy::new(HierarchyConfig::base()).unwrap();
        let mut c = DynamicController::new(
            ResizableCacheSide::Instruction,
            space(),
            DynamicParams::new(100, 10, 2 * 1024).unwrap(),
        )
        .unwrap();
        for _ in 0..8 {
            for i in 0..100u64 {
                h.access_instruction(0x40_0000, i);
            }
            c.post_commit(0, &mut h);
        }
        assert!(h.l1i().enabled_bytes() < 32 * 1024);
        assert_eq!(h.l1d().enabled_bytes(), 32 * 1024, "d-cache untouched");
    }
}
