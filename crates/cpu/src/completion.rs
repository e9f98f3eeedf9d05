//! The producer completion ring shared by both engines (and their scalar
//! oracles): each instruction's completion cycle is written to a fixed ring,
//! and a consumer reads its producers' slots by dependency distance.

/// Ring-buffer size for producer completion times. Valid dependency
/// distances are `1..=COMPLETION_RING`; see `producer_ready` for how
/// out-of-range distances are resolved (generated traces never exceed 63).
pub const COMPLETION_RING: usize = 128;

/// Completion cycle of the producer `distance` instructions before `idx`,
/// or 0 if there is no such producer (shared by both engines).
///
/// The ring read is unconditional (the index is masked into range) and the
/// no-producer case resolves through a select rather than a branch: the
/// dependency distances follow the simulated program, so a host branch here
/// is unpredictable, and this runs twice per simulated instruction.
///
/// Distances are saturated against the ring capacity: the ring slot for
/// `distance == COMPLETION_RING` still holds that exact producer's completion
/// (it is overwritten only after the current instruction's operands are
/// read), but any larger distance would alias a *younger* instruction's slot,
/// so distances beyond `COMPLETION_RING` — which generated traces never emit
/// (their maximum is 63) but hand-built or foreign decoded traces may carry —
/// are treated as producers that have long since completed, exactly like the
/// pre-history case `distance > idx`.
#[inline(always)]
pub(crate) fn producer_ready(completion: &[u64; COMPLETION_RING], idx: usize, distance: u8) -> u64 {
    let distance = distance as usize;
    let value = completion[idx.wrapping_sub(distance) % COMPLETION_RING];
    if distance == 0 || distance > idx || distance > COMPLETION_RING {
        0
    } else {
        value
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn producer_ready_reads_in_ring_producers() {
        let mut completion = [0u64; COMPLETION_RING];
        completion[5] = 42;
        assert_eq!(producer_ready(&completion, 6, 1), 42);
        assert_eq!(producer_ready(&completion, 6, 0), 0, "no producer");
        assert_eq!(producer_ready(&completion, 6, 7), 0, "pre-history");
    }

    #[test]
    fn producer_ready_full_ring_distance_reads_the_exact_producer() {
        // Slot idx % RING is written *after* operands are read, so it still
        // holds the completion of the instruction exactly RING back.
        let mut completion = [0u64; COMPLETION_RING];
        let idx = 300usize;
        completion[(idx - COMPLETION_RING) % COMPLETION_RING] = 77;
        assert_eq!(producer_ready(&completion, idx, COMPLETION_RING as u8), 77);
    }

    #[test]
    fn producer_ready_saturates_beyond_the_ring() {
        // A distance one past the ring would alias the slot written one
        // iteration ago (a *younger* instruction); the saturation returns
        // "long completed" instead.
        let completion = [7777u64; COMPLETION_RING];
        for distance in [129u8, 200, 255] {
            assert_eq!(
                producer_ready(&completion, 300, distance),
                0,
                "distance {distance} exceeds the ring and must read as complete"
            );
        }
    }
}
