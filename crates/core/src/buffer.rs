//! The fully-associative SRAM prefetch buffer.
//!
//! The buffer stages prefetched cache lines so that reads arriving while
//! the parent rank is frozen can be serviced in `sram_latency` cycles.
//! Ranks sharing the refresh circuitry take turns using the buffer, so it
//! is flushed when a refresh completes.
//!
//! Keys are opaque `u64` line identifiers chosen by the controller (it
//! uses the global cache-line address); the buffer itself only needs
//! membership, not the data bytes, because the simulator tracks timing and
//! energy rather than contents.

use rop_events::{TraceBuffer, TraceEvent};

use crate::Cycle;

/// A fully-associative buffer of at most `capacity` line keys with FIFO
/// replacement (each refresh's prefetch batch is written fresh, so
/// recency-based replacement has nothing to exploit within one window).
#[derive(Debug, Clone)]
pub struct SramBuffer {
    capacity: usize,
    /// Resident line keys in insertion order.
    lines: Vec<u64>,
    /// Number of line insertions (SRAM writes) performed.
    writes: u64,
    /// Number of successful reads served (SRAM reads).
    reads_served: u64,
    /// True when the buffer is powered (it is turned off during Training
    /// to save leakage, per §IV-B).
    powered: bool,
    /// Trace sink for fills/hits/evictions (the FIFO eviction is visible
    /// nowhere else, so the buffer stamps its own events).
    trace: TraceBuffer,
    /// Cycle stamp for the next emitted events (the owner advances it,
    /// since buffer operations themselves carry no clock).
    trace_cycle: Cycle,
}

impl SramBuffer {
    /// Creates an empty, powered-off buffer.
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "SRAM buffer needs non-zero capacity");
        SramBuffer {
            capacity,
            lines: Vec::with_capacity(capacity),
            writes: 0,
            reads_served: 0,
            powered: false,
            trace: TraceBuffer::new(),
            trace_cycle: 0,
        }
    }

    /// The buffer's trace sink (enable/drain it from the owner).
    pub fn trace_mut(&mut self) -> &mut TraceBuffer {
        &mut self.trace
    }

    /// Sets the cycle stamped onto subsequently emitted trace events.
    #[inline]
    pub fn set_trace_cycle(&mut self, now: Cycle) {
        self.trace_cycle = now;
    }

    /// Capacity in cache lines.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of lines currently resident.
    pub fn len(&self) -> usize {
        self.lines.len()
    }

    /// True when no lines are resident.
    pub fn is_empty(&self) -> bool {
        self.lines.is_empty()
    }

    /// Powers the buffer on (Observing/Prefetching phases).
    pub fn power_on(&mut self) {
        self.powered = true;
    }

    /// Powers the buffer off and drops contents (Training phase).
    pub fn power_off(&mut self) {
        self.powered = false;
        self.lines.clear();
        let cycle = self.trace_cycle;
        self.trace.emit(|| TraceEvent::SramClear { cycle });
    }

    /// True when powered.
    pub fn is_powered(&self) -> bool {
        self.powered
    }

    /// Inserts a prefetched line. Duplicate keys are ignored; when full,
    /// the oldest line is evicted. No-op while powered off.
    pub fn insert(&mut self, key: u64) {
        if !self.powered {
            return;
        }
        if self.lines.contains(&key) {
            return;
        }
        let cycle = self.trace_cycle;
        if self.lines.len() == self.capacity {
            let evicted = self.lines.remove(0);
            self.trace.emit(|| TraceEvent::SramEvict {
                cycle,
                line: evicted,
            });
        }
        self.lines.push(key);
        self.writes += 1;
        self.trace
            .emit(|| TraceEvent::SramFill { cycle, line: key });
    }

    /// Looks up a line for a read arriving during a refresh. Records the
    /// outcome in the hit-rate statistics. Returns `true` on hit.
    pub fn lookup(&mut self, key: u64) -> bool {
        if !self.powered {
            return false;
        }
        let hit = self.lines.contains(&key);
        if hit {
            self.reads_served += 1;
            let cycle = self.trace_cycle;
            self.trace.emit(|| TraceEvent::SramHit { cycle, line: key });
        }
        hit
    }

    /// Membership probe without statistics side effects.
    pub fn contains(&self, key: u64) -> bool {
        self.powered && self.lines.contains(&key)
    }

    /// Serves a read outside the frozen window: counts the SRAM read (for
    /// the energy model) but does not enter the refresh hit-rate
    /// statistics. Returns `true` on hit.
    pub fn serve_quiet(&mut self, key: u64) -> bool {
        let hit = self.contains(key);
        if hit {
            self.reads_served += 1;
            let cycle = self.trace_cycle;
            self.trace.emit(|| TraceEvent::SramHit { cycle, line: key });
        }
        hit
    }

    /// Flushes all contents (refresh completed; the next rank takes over).
    pub fn invalidate_all(&mut self) {
        self.lines.clear();
        let cycle = self.trace_cycle;
        self.trace.emit(|| TraceEvent::SramClear { cycle });
    }

    /// Total SRAM write operations (for the energy model).
    pub fn write_count(&self) -> u64 {
        self.writes
    }

    /// Total SRAM reads served (for the energy model).
    pub fn read_count(&self) -> u64 {
        self.reads_served
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn powered_off_ignores_inserts_and_misses() {
        let mut b = SramBuffer::new(4);
        b.insert(1);
        assert!(b.is_empty());
        assert!(!b.lookup(1));
    }

    #[test]
    fn insert_and_hit() {
        let mut b = SramBuffer::new(4);
        b.power_on();
        b.insert(10);
        b.insert(20);
        assert!(b.lookup(10));
        assert!(b.lookup(20));
        assert!(!b.lookup(30));
        assert_eq!(b.read_count(), 2);
        assert_eq!(b.write_count(), 2);
    }

    #[test]
    fn duplicates_not_double_inserted() {
        let mut b = SramBuffer::new(4);
        b.power_on();
        b.insert(7);
        b.insert(7);
        assert_eq!(b.len(), 1);
        assert_eq!(b.write_count(), 1);
    }

    #[test]
    fn fifo_eviction_at_capacity() {
        let mut b = SramBuffer::new(2);
        b.power_on();
        b.insert(1);
        b.insert(2);
        b.insert(3); // evicts 1
        assert!(!b.contains(1));
        assert!(b.contains(2));
        assert!(b.contains(3));
        assert_eq!(b.len(), 2);
    }

    #[test]
    fn invalidate_clears_but_keeps_power() {
        let mut b = SramBuffer::new(2);
        b.power_on();
        b.insert(1);
        b.invalidate_all();
        assert!(b.is_empty());
        assert!(b.is_powered());
        assert!(!b.lookup(1));
    }

    #[test]
    fn power_off_clears_contents() {
        let mut b = SramBuffer::new(2);
        b.power_on();
        b.insert(1);
        b.power_off();
        b.power_on();
        assert!(!b.contains(1));
    }

    #[test]
    #[should_panic]
    fn zero_capacity_panics() {
        SramBuffer::new(0);
    }
}
