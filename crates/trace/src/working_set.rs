//! Working-set specification shared by data and instruction streams.

/// Describes one working set (data) or footprint (code) that an application
/// touches during a phase of its execution.
///
/// The working set is modelled as `conflict_ways` equally sized *segments*.
/// Segment base addresses are spaced at a multiple of [`DEFAULT_ALIAS_SPACING`]
/// (the largest L1 capacity in the study), so the segments map onto the same
/// cache sets in every L1 configuration under test. This is how the generator
/// reproduces the conflict-miss behaviour the paper attributes to applications
/// such as `gcc`, `vortex` and `vpr`: their working sets need *associativity*
/// at least equal to the number of hot segments, so reducing associativity
/// (selective-ways) hurts them while reducing the number of sets
/// (selective-sets) does not.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkingSetSpec {
    /// Total size in bytes of the working set / footprint.
    pub bytes: u64,
    /// Number of mutually aliasing segments the working set is split into.
    /// `1` means no deliberate conflict behaviour.
    pub conflict_ways: u32,
    /// Byte distance granule between segment bases. Segments alias in every
    /// cache whose capacity divides this spacing.
    pub alias_spacing: u64,
    /// Base byte address of the first segment.
    pub base: u64,
}

/// Default alias spacing: the largest L1 capacity in the paper's study
/// (32 KiB). Every L1 configuration under test has `sets × block size`
/// dividing 32 KiB, so segments spaced at 32 KiB multiples share index bits in
/// all of them, while remaining spread over distinct sets of the 512 KiB L2.
pub const DEFAULT_ALIAS_SPACING: u64 = 32 * 1024;

impl WorkingSetSpec {
    /// Creates a working set of `bytes` bytes with no conflict structure.
    pub fn uniform(bytes: u64) -> Self {
        Self {
            bytes,
            conflict_ways: 1,
            alias_spacing: DEFAULT_ALIAS_SPACING,
            base: 0x1000_0000,
        }
    }

    /// Creates a working set of `bytes` bytes split into `conflict_ways`
    /// mutually aliasing segments.
    pub fn conflicting(bytes: u64, conflict_ways: u32) -> Self {
        Self {
            bytes,
            conflict_ways: conflict_ways.max(1),
            alias_spacing: DEFAULT_ALIAS_SPACING,
            base: 0x1000_0000,
        }
    }

    /// Overrides the base address (useful to separate code from data regions).
    pub fn at_base(mut self, base: u64) -> Self {
        self.base = base;
        self
    }

    /// Size in bytes of each segment.
    pub fn segment_bytes(&self) -> u64 {
        (self.bytes / u64::from(self.conflict_ways.max(1))).max(64)
    }

    /// Byte stride between consecutive segment bases: the alias spacing,
    /// rounded up so that segments never overlap.
    pub fn segment_stride(&self) -> u64 {
        let spacing = self.alias_spacing.max(64);
        let seg = self.segment_bytes();
        seg.div_ceil(spacing) * spacing
    }

    /// Maps an abstract offset in `[0, bytes)` to a concrete byte address,
    /// laying consecutive offsets out within a segment (so sequential walks
    /// keep their spatial locality) and switching segment at segment-size
    /// boundaries.
    pub fn offset_to_address(&self, offset: u64) -> u64 {
        let seg_bytes = self.segment_bytes();
        let ways = u64::from(self.conflict_ways.max(1));
        let offset = if self.bytes == 0 {
            0
        } else {
            offset % self.bytes.max(1)
        };
        let seg = (offset / seg_bytes) % ways;
        let within = offset % seg_bytes;
        self.base + seg * self.segment_stride() + within
    }

    /// Precomputes the derived geometry (segment size, stride, way count)
    /// for repeated [`ResolvedWorkingSet::offset_to_address`] calls.
    ///
    /// Address mapping runs once or twice per generated record, and almost
    /// every mapping re-derives the same segment geometry: the generator's
    /// streams cache one resolution per phase instead of paying the
    /// division chain per record.
    pub fn resolve(&self) -> ResolvedWorkingSet {
        let seg_bytes = self.segment_bytes();
        ResolvedWorkingSet {
            spec: *self,
            seg_bytes,
            stride: self.segment_stride(),
            ways: u64::from(self.conflict_ways.max(1)),
        }
    }
}

/// A [`WorkingSetSpec`] with its derived segment geometry precomputed (see
/// [`WorkingSetSpec::resolve`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResolvedWorkingSet {
    /// The specification this resolution was derived from.
    pub spec: WorkingSetSpec,
    seg_bytes: u64,
    stride: u64,
    ways: u64,
}

/// Where an offset lands in a working set (see
/// [`ResolvedWorkingSet::locate`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Location {
    /// The offset reduced into the working set (`offset % bytes`).
    pub(crate) offset: u64,
    /// Bytes from the start of the offset's segment.
    pub(crate) within: u64,
    /// Base address of the offset's segment.
    pub(crate) segment_base: u64,
}

impl Location {
    /// The byte address of the location.
    #[inline]
    pub(crate) fn address(&self) -> u64 {
        self.segment_base + self.within
    }
}

impl ResolvedWorkingSet {
    /// Size in bytes of each segment (see [`WorkingSetSpec::segment_bytes`]).
    pub fn segment_bytes(&self) -> u64 {
        self.seg_bytes
    }

    /// See [`WorkingSetSpec::offset_to_address`]; produces identical
    /// addresses with the segment geometry amortized.
    #[inline]
    pub fn offset_to_address(&self, offset: u64) -> u64 {
        self.locate(offset).address()
    }

    /// The mapping of [`WorkingSetSpec::offset_to_address`], split into the
    /// reduced offset, its place in its segment and the segment's base.
    /// An offset already inside the working set skips the reduction.
    #[inline]
    pub(crate) fn locate(&self, offset: u64) -> Location {
        let bytes = self.spec.bytes;
        let offset = if offset < bytes {
            offset
        } else if bytes == 0 {
            0
        } else {
            offset % bytes
        };
        let q = offset / self.seg_bytes;
        let seg = if q < self.ways { q } else { q % self.ways };
        Location {
            offset,
            within: offset - q * self.seg_bytes,
            segment_base: self.spec.base + seg * self.stride,
        }
    }

    /// The location `step` bytes after `at`, where `offset` is the new raw
    /// offset (`at`'s raw offset plus `step`, or its wrap-around if that
    /// overflowed). While the step stays inside `at`'s segment and the
    /// working set, this is two adds; otherwise (a segment crossing, a wrap
    /// of the working set or of `u64`) it is [`ResolvedWorkingSet::locate`]
    /// of `offset`.
    #[inline]
    pub(crate) fn advance(&self, at: Location, step: u64, offset: u64, wrapped: bool) -> Location {
        let within = at.within.saturating_add(step);
        let reduced = at.offset.saturating_add(step);
        if within < self.seg_bytes && reduced < self.spec.bytes && !wrapped {
            Location {
                offset: reduced,
                within,
                segment_base: at.segment_base,
            }
        } else {
            self.locate(offset)
        }
    }
}

impl Default for WorkingSetSpec {
    fn default() -> Self {
        Self::uniform(8 * 1024)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_has_single_segment() {
        let ws = WorkingSetSpec::uniform(4096);
        assert_eq!(ws.conflict_ways, 1);
        assert_eq!(ws.segment_bytes(), 4096);
    }

    #[test]
    fn conflicting_splits_segments() {
        let ws = WorkingSetSpec::conflicting(16 * 1024, 4);
        assert_eq!(ws.segment_bytes(), 4 * 1024);
        assert_eq!(ws.segment_stride(), DEFAULT_ALIAS_SPACING);
    }

    #[test]
    fn conflict_ways_minimum_one() {
        let ws = WorkingSetSpec::conflicting(4096, 0);
        assert_eq!(ws.conflict_ways, 1);
    }

    #[test]
    fn sequential_offsets_are_adjacent_within_segment() {
        let ws = WorkingSetSpec::conflicting(8 * 1024, 2);
        let a0 = ws.offset_to_address(0);
        let a1 = ws.offset_to_address(64);
        assert_eq!(a1 - a0, 64);
    }

    #[test]
    fn segments_alias_in_every_l1_size() {
        let ws = WorkingSetSpec::conflicting(16 * 1024, 4);
        let seg = ws.segment_bytes();
        let a_seg0 = ws.offset_to_address(0);
        let a_seg1 = ws.offset_to_address(seg);
        let a_seg2 = ws.offset_to_address(2 * seg);
        for l1_index_span in [1024u64, 2048, 4096, 8192, 16 * 1024, 32 * 1024] {
            assert_eq!(a_seg0 % l1_index_span, a_seg1 % l1_index_span);
            assert_eq!(a_seg0 % l1_index_span, a_seg2 % l1_index_span);
        }
    }

    #[test]
    fn segments_do_not_overlap_when_large() {
        let ws = WorkingSetSpec::conflicting(160 * 1024, 2);
        assert!(ws.segment_stride() >= ws.segment_bytes());
    }

    #[test]
    fn builder_methods() {
        let ws = WorkingSetSpec::uniform(1024).at_base(0x5000_0000);
        assert_eq!(ws.base, 0x5000_0000);
    }

    #[test]
    fn wraps_offsets_beyond_size() {
        let ws = WorkingSetSpec::uniform(1024);
        assert_eq!(ws.offset_to_address(0), ws.offset_to_address(1024));
    }

    #[test]
    fn advancing_a_location_matches_locating_the_new_offset() {
        let specs = [
            WorkingSetSpec::uniform(4096),
            WorkingSetSpec::conflicting(24 * 1024, 3),
            WorkingSetSpec::conflicting(100 * 1000, 7),
            WorkingSetSpec::conflicting(160 * 1024, 8).at_base(0x40_0000),
            WorkingSetSpec::conflicting(200, 4),
            WorkingSetSpec::uniform(0),
        ];
        for spec in specs {
            let resolved = spec.resolve();
            for step in [1u64, 8, 24, 64, 4096, 70_000] {
                let mut raw = u64::MAX - 50 * step;
                let mut at = resolved.locate(raw);
                for _ in 0..20_000 {
                    let (next, wrapped) = raw.overflowing_add(step);
                    raw = next;
                    at = resolved.advance(at, step, raw, wrapped);
                    assert_eq!(at, resolved.locate(raw), "{spec:?} step {step} at {raw}");
                    assert_eq!(at.address(), spec.offset_to_address(raw));
                }
            }
        }
    }

    #[test]
    fn resolved_mapping_matches_spec_mapping() {
        let specs = [
            WorkingSetSpec::uniform(4096),
            WorkingSetSpec::conflicting(24 * 1024, 3),
            WorkingSetSpec::conflicting(160 * 1024, 8).at_base(0x40_0000),
            WorkingSetSpec::uniform(0),
        ];
        for spec in specs {
            let resolved = spec.resolve();
            assert_eq!(resolved.spec, spec);
            for offset in [0u64, 1, 63, 64, 4095, 4096, 30_000, 1 << 40] {
                assert_eq!(
                    resolved.offset_to_address(offset),
                    spec.offset_to_address(offset),
                    "{spec:?} at {offset}"
                );
            }
        }
    }
}
