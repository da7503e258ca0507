//! Hierarchical timing wheel for in-flight read completions.
//!
//! The event engine used to keep pending completions in a
//! `BinaryHeap<Reverse<(done_at, id)>>`; every push/pop paid a
//! logarithmic sift through a pointer-free but cache-unfriendly array.
//! Real completion horizons are tiny — data arrives `CL + BL/2 (+
//! tRTRS)` cycles after the column command issues, so nearly every event
//! lands within a few dozen cycles of `now` — which is the textbook case
//! for a calendar queue: O(1) push into a slot indexed by the due cycle,
//! O(1) pop via an occupancy bitmap.
//!
//! Geometry (see DESIGN.md §14):
//!
//! * **near wheel** — 256 slots at 1-cycle granularity (`done_at & 255`).
//!   Holds every event due within 256 cycles; in steady state this is
//!   the only level touched.
//! * **far wheels** — two 64-slot levels at 256- and 16384-cycle
//!   granularity (`(done_at >> 8) & 63`, `(done_at >> 14) & 63`),
//!   covering horizons of 2^14 and 2^20 cycles for events scheduled
//!   across long fast-forwards.
//! * **overflow** — unsorted spill list beyond 2^20 cycles.
//!
//! Slot membership is a pure function of `done_at`, so events never
//! migrate as the clock advances; only the *placement level* of a push
//! depends on the current distance. The near wheel alone relies on the
//! `delta < 256` horizon (its bitmap scan reconstructs absolute cycles
//! from slot indices); far slots always carry their `done_at` and are
//! min-scanned exactly, so leftovers from a different rotation may stay
//! put. Same-slot events from a later near rotation are re-homed to a
//! far level when the slot drains.
//!
//! Determinism: [`TimingWheel::pop_due`] delivers events in exactly the
//! order the old heap produced — ascending `(done_at, id)` — by draining
//! one due cycle at a time and sorting each same-cycle batch by id. The
//! differential oracle and the wheel-vs-heap proptest below pin this.
//!
//! Allocation: near slots are linked lists threaded through one node
//! arena with a free list, so the arena grows only when more events are
//! in flight at once than ever before, wherever they land. (Per-slot
//! `Vec`s would each grow to their own high-water mark, and a burst of
//! same-cycle SRAM completions landing on a fresh slot would allocate
//! long after warm-up.) Far slots are `Vec`s that are emptied but never
//! dropped. After warm-up the steady-state push/pop cycle allocates
//! nothing (the `hot-alloc` lint rule and
//! `crates/bench/tests/alloc_free.rs` guard this).

use rop_memctrl::Completion;

use crate::Cycle;

const NEAR_BITS: u32 = 8;
/// Near-wheel size: 256 one-cycle slots.
const NEAR_SLOTS: usize = 1 << NEAR_BITS;
const NEAR_MASK: u64 = NEAR_SLOTS as u64 - 1;
const FAR_BITS: u32 = 6;
/// Far-wheel size: 64 slots per level.
const FAR_SLOTS: usize = 1 << FAR_BITS;
const FAR_MASK: u64 = FAR_SLOTS as u64 - 1;
/// Level-1 far wheel: 256-cycle slots covering deltas below 2^14.
const FAR1_SHIFT: u32 = NEAR_BITS;
const FAR1_HORIZON: u64 = 1 << (NEAR_BITS + FAR_BITS);
/// Level-2 far wheel: 16384-cycle slots covering deltas below 2^20.
const FAR2_SHIFT: u32 = NEAR_BITS + FAR_BITS;
const FAR2_HORIZON: u64 = 1 << (NEAR_BITS + 2 * FAR_BITS);

/// End of a near-slot list.
const NIL: u32 = u32::MAX;

/// One near-wheel event, linked into its slot's list (or the free list).
#[derive(Debug, Clone, Copy)]
struct NearNode {
    c: Completion,
    next: u32,
}

/// Calendar queue over [`Completion`]s keyed by `done_at`, popping in
/// ascending `(done_at, id)` order.
#[derive(Debug)]
pub struct TimingWheel {
    /// Lower bound on every pending event's `done_at` (except `past`
    /// entries); advanced by [`TimingWheel::pop_due`].
    clock: Cycle,
    /// Head node of each near slot's list (`NIL` when empty).
    near: Vec<u32>,
    /// Node arena behind the near slots.
    nodes: Vec<NearNode>,
    /// Head of the arena's free list.
    free: u32,
    /// One bit per near slot, set while the slot is non-empty.
    near_occ: [u64; NEAR_SLOTS / 64],
    far1: Vec<Vec<Completion>>,
    far1_occ: u64,
    far2: Vec<Vec<Completion>>,
    far2_occ: u64,
    /// Events beyond the far-2 horizon (min-scanned; expected empty).
    overflow: Vec<Completion>,
    /// Events pushed with `done_at` already behind the clock (possible
    /// under arbitrary test schedules, never in the engine).
    past: Vec<Completion>,
    /// Scratch for re-homing near-slot leftovers (reused, never dropped).
    rehome: Vec<Completion>,
    /// Exact earliest pending `done_at`, `Cycle::MAX` when empty.
    earliest: Cycle,
    len: usize,
}

impl Default for TimingWheel {
    fn default() -> Self {
        Self::new()
    }
}

impl TimingWheel {
    /// An empty wheel anchored at cycle 0.
    pub fn new() -> Self {
        TimingWheel {
            clock: 0,
            near: vec![NIL; NEAR_SLOTS],
            nodes: Vec::new(),
            free: NIL,
            near_occ: [0; NEAR_SLOTS / 64],
            far1: (0..FAR_SLOTS).map(|_| Vec::new()).collect(),
            far1_occ: 0,
            far2: (0..FAR_SLOTS).map(|_| Vec::new()).collect(),
            far2_occ: 0,
            overflow: Vec::new(),
            past: Vec::new(),
            rehome: Vec::new(),
            earliest: Cycle::MAX,
            len: 0,
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Earliest pending `done_at`, if any — the engine's fast-forward
    /// bound, equal to what `heap.peek()` returned.
    pub fn peek_earliest(&self) -> Option<Cycle> {
        (self.len > 0).then_some(self.earliest)
    }

    /// Schedules one completion.
    // rop-lint: hot
    pub fn push(&mut self, c: Completion) {
        self.earliest = self.earliest.min(c.done_at);
        self.len += 1;
        self.place(c);
    }

    /// Inserts without touching `len`/`earliest` (shared by push and
    /// re-homing).
    // rop-lint: hot
    fn place(&mut self, c: Completion) {
        if c.done_at < self.clock {
            self.past.push(c);
            return;
        }
        let delta = c.done_at - self.clock;
        if delta < NEAR_SLOTS as u64 {
            let s = (c.done_at & NEAR_MASK) as usize;
            let node = NearNode {
                c,
                next: self.near[s],
            };
            self.near[s] = if self.free == NIL {
                self.nodes.push(node);
                (self.nodes.len() - 1) as u32
            } else {
                let i = self.free;
                self.free = self.nodes[i as usize].next;
                self.nodes[i as usize] = node;
                i
            };
            self.near_occ[s >> 6] |= 1u64 << (s & 63);
        } else if delta < FAR1_HORIZON {
            let j = ((c.done_at >> FAR1_SHIFT) & FAR_MASK) as usize;
            self.far1[j].push(c);
            self.far1_occ |= 1u64 << j;
        } else if delta < FAR2_HORIZON {
            let j = ((c.done_at >> FAR2_SHIFT) & FAR_MASK) as usize;
            self.far2[j].push(c);
            self.far2_occ |= 1u64 << j;
        } else {
            self.overflow.push(c);
        }
    }

    /// Appends every event with `done_at <= now` to `out`, in ascending
    /// `(done_at, id)` order — bit-compatible with draining the old
    /// binary heap — and advances the wheel clock to `now`.
    // rop-lint: hot
    pub fn pop_due(&mut self, now: Cycle, out: &mut Vec<Completion>) {
        while self.len > 0 && self.earliest <= now {
            let e = self.earliest;
            self.clock = self.clock.max(e);
            let start = out.len();
            self.extract_cycle(e, out);
            debug_assert!(out.len() > start, "earliest cycle {e} had no events");
            out[start..].sort_unstable_by_key(|c| c.id);
            self.recompute_earliest();
        }
        self.clock = self.clock.max(now);
    }

    /// Moves every event with `done_at == e` into `out` (unsorted).
    // rop-lint: hot
    fn extract_cycle(&mut self, e: Cycle, out: &mut Vec<Completion>) {
        let before = out.len();
        extract_matching(&mut self.past, e, out);

        let s = (e & NEAR_MASK) as usize;
        if self.near_occ[s >> 6] & (1u64 << (s & 63)) != 0 {
            // Same-slot events from a later rotation must leave the near
            // wheel (its cycle reconstruction assumes delta < 256), so
            // the slot always drains completely.
            let mut i = std::mem::replace(&mut self.near[s], NIL);
            while i != NIL {
                let NearNode { c, next } = self.nodes[i as usize];
                self.nodes[i as usize].next = self.free;
                self.free = i;
                if c.done_at == e {
                    out.push(c);
                } else {
                    self.rehome.push(c);
                }
                i = next;
            }
            self.near_occ[s >> 6] &= !(1u64 << (s & 63));
            let mut rehome = std::mem::take(&mut self.rehome);
            for c in rehome.drain(..) {
                self.place(c);
            }
            self.rehome = rehome;
        }

        let j = ((e >> FAR1_SHIFT) & FAR_MASK) as usize;
        if self.far1_occ & (1u64 << j) != 0 {
            extract_matching(&mut self.far1[j], e, out);
            if self.far1[j].is_empty() {
                self.far1_occ &= !(1u64 << j);
            }
        }

        let j = ((e >> FAR2_SHIFT) & FAR_MASK) as usize;
        if self.far2_occ & (1u64 << j) != 0 {
            extract_matching(&mut self.far2[j], e, out);
            if self.far2[j].is_empty() {
                self.far2_occ &= !(1u64 << j);
            }
        }

        extract_matching(&mut self.overflow, e, out);
        self.len -= out.len() - before;
    }

    /// Recomputes the exact earliest pending `done_at` across all
    /// levels. Near events reconstruct from the occupancy bitmap alone;
    /// far levels min-scan their (few, usually zero) occupied slots.
    // rop-lint: hot
    fn recompute_earliest(&mut self) {
        let mut best = Cycle::MAX;
        for c in &self.past {
            best = best.min(c.done_at);
        }
        if let Some(s) = self.near_scan() {
            let start = (self.clock & NEAR_MASK) as usize;
            let offset = (s + NEAR_SLOTS - start) & (NEAR_SLOTS - 1);
            best = best.min(self.clock + offset as u64);
        }
        let mut occ = self.far1_occ;
        while occ != 0 {
            let j = occ.trailing_zeros() as usize;
            occ &= occ - 1;
            for c in &self.far1[j] {
                best = best.min(c.done_at);
            }
        }
        let mut occ = self.far2_occ;
        while occ != 0 {
            let j = occ.trailing_zeros() as usize;
            occ &= occ - 1;
            for c in &self.far2[j] {
                best = best.min(c.done_at);
            }
        }
        for c in &self.overflow {
            best = best.min(c.done_at);
        }
        self.earliest = best;
    }

    /// First occupied near slot at or circularly after the clock's slot.
    // rop-lint: hot
    fn near_scan(&self) -> Option<usize> {
        let start = (self.clock & NEAR_MASK) as usize;
        let (sw, sb) = (start >> 6, start & 63);
        let head = self.near_occ[sw] & (!0u64 << sb);
        if head != 0 {
            return Some((sw << 6) + head.trailing_zeros() as usize);
        }
        for i in 1..self.near_occ.len() {
            let w = (sw + i) & (self.near_occ.len() - 1);
            if self.near_occ[w] != 0 {
                return Some((w << 6) + self.near_occ[w].trailing_zeros() as usize);
            }
        }
        let tail = self.near_occ[sw] & !(!0u64 << sb);
        if tail != 0 {
            return Some((sw << 6) + tail.trailing_zeros() as usize);
        }
        None
    }
}

/// Swap-removes every event with `done_at == e` from `v` into `out`.
// rop-lint: hot
fn extract_matching(v: &mut Vec<Completion>, e: Cycle, out: &mut Vec<Completion>) {
    let mut i = 0;
    while i < v.len() {
        if v[i].done_at == e {
            out.push(v.swap_remove(i));
        } else {
            i += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    fn c(done_at: Cycle, id: u64) -> Completion {
        Completion {
            id,
            core: (id % 4) as usize,
            done_at,
            from_sram: id.is_multiple_of(3),
        }
    }

    /// The old engine's heap ordering: earliest `done_at` first, then id.
    #[derive(Debug)]
    struct HeapEv(Completion);

    impl PartialEq for HeapEv {
        fn eq(&self, other: &Self) -> bool {
            (self.0.done_at, self.0.id) == (other.0.done_at, other.0.id)
        }
    }
    impl Eq for HeapEv {}
    impl PartialOrd for HeapEv {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }
    impl Ord for HeapEv {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            (self.0.done_at, self.0.id).cmp(&(other.0.done_at, other.0.id))
        }
    }

    /// Drains `heap` exactly like the old engine did: pop while the head
    /// is due.
    fn heap_pop_due(heap: &mut BinaryHeap<Reverse<HeapEv>>, now: Cycle, out: &mut Vec<Completion>) {
        while let Some(Reverse(head)) = heap.peek() {
            if head.0.done_at > now {
                break;
            }
            let Some(Reverse(HeapEv(c))) = heap.pop() else {
                unreachable!()
            };
            out.push(c);
        }
    }

    #[test]
    fn pops_in_done_at_then_id_order() {
        let mut w = TimingWheel::new();
        for &(t, id) in &[(5u64, 3u64), (5, 1), (2, 9), (5, 2), (700, 4), (2, 0)] {
            w.push(c(t, id));
        }
        let mut out = Vec::new();
        w.pop_due(10, &mut out);
        let got: Vec<_> = out.iter().map(|c| (c.done_at, c.id)).collect();
        assert_eq!(got, [(2, 0), (2, 9), (5, 1), (5, 2), (5, 3)]);
        assert_eq!(w.len(), 1);
        assert_eq!(w.peek_earliest(), Some(700));
        out.clear();
        w.pop_due(700, &mut out);
        assert_eq!(out.len(), 1);
        assert!(w.is_empty());
        assert_eq!(w.peek_earliest(), None);
    }

    #[test]
    fn far_levels_and_overflow_round_trip() {
        let mut w = TimingWheel::new();
        // One event per level: near, far1, far2, overflow.
        let events = [
            (10u64, 0u64),
            (300, 1),
            (20_000, 2),
            (2_000_000, 3),
            (2_000_000, 4),
        ];
        for &(t, id) in &events {
            w.push(c(t, id));
        }
        assert_eq!(w.peek_earliest(), Some(10));
        let mut out = Vec::new();
        w.pop_due(3_000_000, &mut out);
        let got: Vec<_> = out.iter().map(|c| (c.done_at, c.id)).collect();
        assert_eq!(
            got,
            [
                (10, 0),
                (300, 1),
                (20_000, 2),
                (2_000_000, 3),
                (2_000_000, 4)
            ]
        );
        assert!(w.is_empty());
    }

    #[test]
    fn near_slot_collision_across_rotations() {
        let mut w = TimingWheel::new();
        w.push(c(100, 0));
        // Advance so a later push lands in the same near slot (356 ≡ 100
        // mod 256) while 100 is still pending.
        w.pop_due(90, &mut Vec::new());
        assert_eq!(w.peek_earliest(), Some(100));
        w.push(c(356, 1));
        let mut out = Vec::new();
        w.pop_due(100, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].done_at, 100);
        // The rotation-mate was re-homed, not lost or delivered early.
        assert_eq!(w.len(), 1);
        assert_eq!(w.peek_earliest(), Some(356));
        out.clear();
        w.pop_due(356, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].id, 1);
    }

    #[test]
    fn late_pushes_behind_the_clock_still_deliver() {
        let mut w = TimingWheel::new();
        w.pop_due(1000, &mut Vec::new());
        w.push(c(500, 7));
        assert_eq!(w.peek_earliest(), Some(500));
        let mut out = Vec::new();
        w.pop_due(1000, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].id, 7);
        assert!(w.is_empty());
    }

    mod prop {
        use super::*;
        use proptest::prelude::*;

        /// An interleaved schedule step: push an event at `now + delta`,
        /// or advance `now` and pop everything due.
        #[derive(Debug, Clone)]
        enum Step {
            Push { delta: u64, id_salt: u64 },
            Advance { by: u64 },
        }

        fn step() -> impl Strategy<Value = Step> {
            // Deltas span all wheel levels, biased toward the near
            // wheel like real completion traffic (repeated branches
            // stand in for weights — the vendored proptest's Union is
            // uniform); id_salt creates same-cycle ties.
            let delta = prop_oneof![
                0u64..64,
                0u64..64,
                0u64..64,
                0u64..512,
                0u64..512,
                0u64..40_000,
                0u64..3_000_000,
            ];
            let advance = prop_oneof![
                1u64..128,
                1u64..128,
                1u64..128,
                1u64..100_000,
                1u64..2_000_000,
            ];
            prop_oneof![
                (delta, 0u64..1000).prop_map(|(delta, id_salt)| Step::Push { delta, id_salt }),
                advance.prop_map(|by| Step::Advance { by }),
            ]
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// For arbitrary interleaved schedules — same-cycle ties,
            /// all wheel levels, long jumps — the wheel pops exactly
            /// the sequence the old binary heap popped.
            #[test]
            fn wheel_matches_heap_pop_order(steps in proptest::collection::vec(step(), 1..200)) {
                let mut wheel = TimingWheel::new();
                let mut heap: BinaryHeap<Reverse<HeapEv>> = BinaryHeap::new();
                let mut now = 0u64;
                let mut next_id = 0u64;
                let mut wheel_out = Vec::new();
                let mut heap_out = Vec::new();
                for s in &steps {
                    match *s {
                        Step::Push { delta, id_salt } => {
                            // Bias ids so arrival order and id order
                            // disagree sometimes.
                            let id = (next_id % 7) * 1000 + id_salt + next_id;
                            next_id += 1;
                            let ev = c(now + delta, id);
                            wheel.push(ev);
                            heap.push(Reverse(HeapEv(ev)));
                        }
                        Step::Advance { by } => {
                            now += by;
                            wheel.pop_due(now, &mut wheel_out);
                            heap_pop_due(&mut heap, now, &mut heap_out);
                        }
                    }
                    prop_assert_eq!(wheel.len(), heap.len());
                    prop_assert_eq!(
                        wheel.peek_earliest(),
                        heap.peek().map(|Reverse(h)| h.0.done_at)
                    );
                }
                // Drain whatever is left.
                now += 4_000_000;
                wheel.pop_due(now, &mut wheel_out);
                heap_pop_due(&mut heap, now, &mut heap_out);
                prop_assert_eq!(&wheel_out, &heap_out);
                prop_assert!(wheel.is_empty());
            }
        }
    }
}
