//! The write-back buffer between the L1 data cache and the L2.
//!
//! Dirty victims evicted from the L1 are parked in the write-back buffer
//! (8 entries in the paper's base configuration) and drained to the L2 in the
//! background; the processor only stalls if the buffer is full when a new
//! victim arrives.

/// A fixed-capacity write-back buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WritebackBuffer {
    capacity: usize,
    /// Completion cycles of in-flight writebacks.
    in_flight: Vec<u64>,
    /// Total writebacks accepted.
    accepted: u64,
    /// Number of times a writeback found the buffer full (stall events).
    full_stalls: u64,
}

impl WritebackBuffer {
    /// Creates a buffer with the given number of entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "a write-back buffer needs at least one entry");
        Self {
            capacity,
            in_flight: Vec::with_capacity(capacity),
            accepted: 0,
            full_stalls: 0,
        }
    }

    /// Number of entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of writebacks currently in flight.
    pub fn occupancy(&self) -> usize {
        self.in_flight.len()
    }

    /// Total writebacks accepted so far.
    pub fn accepted(&self) -> u64 {
        self.accepted
    }

    /// Number of times a push had to wait for a free entry.
    pub fn full_stalls(&self) -> u64 {
        self.full_stalls
    }

    /// Forgets every in-flight writeback: the next push finds the buffer
    /// empty. A region boundary calls this, because the next region's clock
    /// restarts at cycle 1 and entries timed on the old clock would hold
    /// their slots until the new clock caught up.
    pub fn clear(&mut self) {
        self.in_flight.clear();
    }

    /// Retires every writeback that has completed by `cycle`.
    pub fn drain_completed(&mut self, cycle: u64) {
        self.in_flight.retain(|ready| *ready > cycle);
    }

    /// Pushes a writeback at `cycle` that will complete after `latency`
    /// cycles. Returns the number of stall cycles the processor incurs
    /// (zero unless the buffer was full, in which case it waits for the
    /// earliest in-flight writeback to retire).
    pub fn push(&mut self, cycle: u64, latency: u64) -> u64 {
        self.drain_completed(cycle);
        let mut stall = 0;
        if self.in_flight.len() >= self.capacity {
            let earliest = self
                .in_flight
                .iter()
                .copied()
                .min()
                .expect("full buffer is non-empty");
            stall = earliest.saturating_sub(cycle);
            self.full_stalls += 1;
            self.drain_completed(earliest);
        }
        self.accepted += 1;
        self.in_flight.push(cycle + stall + latency);
        stall
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_without_pressure_is_free() {
        let mut wb = WritebackBuffer::new(2);
        assert_eq!(wb.push(100, 12), 0);
        assert_eq!(wb.occupancy(), 1);
        assert_eq!(wb.accepted(), 1);
        assert_eq!(wb.full_stalls(), 0);
    }

    #[test]
    fn full_buffer_stalls_until_drain() {
        let mut wb = WritebackBuffer::new(1);
        assert_eq!(wb.push(0, 12), 0);
        // Buffer holds one entry completing at cycle 12; pushing at cycle 5
        // must wait 7 cycles.
        assert_eq!(wb.push(5, 12), 7);
        assert_eq!(wb.full_stalls(), 1);
    }

    #[test]
    fn completed_entries_drain_automatically() {
        let mut wb = WritebackBuffer::new(1);
        wb.push(0, 12);
        assert_eq!(wb.push(20, 12), 0, "first writeback already completed");
        assert_eq!(wb.occupancy(), 1);
    }

    #[test]
    fn clear_empties_the_buffer() {
        let mut wb = WritebackBuffer::new(1);
        wb.push(1_000, 12);
        wb.clear();
        assert_eq!(wb.occupancy(), 0);
        assert_eq!(wb.push(1, 12), 0, "a cleared buffer has a free entry");
    }

    #[test]
    fn capacity_accessor() {
        assert_eq!(WritebackBuffer::new(8).capacity(), 8);
    }

    #[test]
    #[should_panic(expected = "at least one entry")]
    fn zero_capacity_panics() {
        let _ = WritebackBuffer::new(0);
    }
}
