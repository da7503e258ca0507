//! Sorted queue of in-flight read completions (DESIGN.md §14).
//!
//! Few completions are ever in flight (at most 10 on the benchmark jobs),
//! pushed almost in due order, so one `VecDeque` in `(done_at, id)` order —
//! the old heap's pop order, pinned by `wheel_matches_heap_pop_order` —
//! takes a push by a short back scan and pops from the front. Pre-sized,
//! it allocates nothing in steady state (`crates/bench/tests/alloc_free.rs`).

use std::collections::VecDeque;

use rop_memctrl::Completion;

use crate::Cycle;

/// Pending [`Completion`]s in ascending `(done_at, id)` order. The old
/// calendar-queue name stays because ropbench's engine replicas import it.
#[derive(Debug)]
pub struct TimingWheel {
    queue: VecDeque<Completion>,
}

impl Default for TimingWheel {
    fn default() -> Self {
        Self::new()
    }
}

impl TimingWheel {
    /// An empty queue.
    pub fn new() -> Self {
        TimingWheel {
            queue: VecDeque::with_capacity(256),
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Earliest pending `done_at`, if any: the engine's fast-forward bound.
    pub fn peek_earliest(&self) -> Option<Cycle> {
        self.queue.front().map(|c| c.done_at)
    }

    /// Inserts `c` after every pending event that sorts at or before it.
    // rop-lint: hot
    pub fn push(&mut self, c: Completion) {
        let mut i = self.queue.len();
        while i > 0 && (self.queue[i - 1].done_at, self.queue[i - 1].id) > (c.done_at, c.id) {
            i -= 1;
        }
        self.queue.insert(i, c);
    }

    /// Moves every event with `done_at <= now` to the end of `out`, in order.
    // rop-lint: hot
    pub fn pop_due(&mut self, now: Cycle, out: &mut Vec<Completion>) {
        while self.queue.front().is_some_and(|c| c.done_at <= now) {
            out.extend(self.queue.pop_front());
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
    fn far_apart_events_pop_in_order() {
        let mut w = TimingWheel::new();
        // Horizons from a few cycles to millions, with a same-cycle pair.
        let events = [
            (2_000_000u64, 4u64),
            (10, 0),
            (20_000, 2),
            (2_000_000, 3),
            (300, 1),
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
    fn same_residue_events_pop_in_order() {
        let mut w = TimingWheel::new();
        w.push(c(100, 0));
        // 356 ≡ 100 (mod 256): pushed after a partial drain, while 100 is
        // still pending.
        w.pop_due(90, &mut Vec::new());
        assert_eq!(w.peek_earliest(), Some(100));
        w.push(c(356, 1));
        let mut out = Vec::new();
        w.pop_due(100, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].done_at, 100);
        // The later event stays pending: not lost, not delivered early.
        assert_eq!(w.len(), 1);
        assert_eq!(w.peek_earliest(), Some(356));
        out.clear();
        w.pop_due(356, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].id, 1);
    }

    #[test]
    fn out_of_order_pushes_scan_back_to_their_place() {
        let dram = |done_at, id| Completion {
            id,
            core: 0,
            done_at,
            from_sram: false,
        };
        let mut w = TimingWheel::new();
        // Two DRAM reads due later, then an SRAM hit due earlier, then
        // three same-cycle completions pushed in descending id order.
        w.push(dram(40, 1));
        w.push(dram(44, 2));
        w.push(Completion {
            id: 3,
            core: 1,
            done_at: 12,
            from_sram: true,
        });
        for id in [9, 8, 7] {
            w.push(dram(40, id));
        }
        assert_eq!(w.peek_earliest(), Some(12));
        let mut out = Vec::new();
        w.pop_due(44, &mut out);
        let got: Vec<_> = out.iter().map(|c| (c.done_at, c.id)).collect();
        assert_eq!(got, [(12, 3), (40, 1), (40, 7), (40, 8), (40, 9), (44, 2)]);
        assert!(out[0].from_sram);
        assert!(w.is_empty());
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
            // Deltas span a few cycles to millions, biased toward short
            // horizons like real completion traffic (repeated branches
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
            /// far horizons, long jumps — the queue pops exactly the
            /// sequence a binary heap pops.
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
