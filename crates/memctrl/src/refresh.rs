//! The Refresh Manager: per-slot auto-refresh bookkeeping — due times,
//! the Idle → Draining → Refreshing lifecycle, and the drain deadline.
//!
//! Every `tREFI` a slot (a rank, or a bank under per-bank refresh) owes
//! one refresh. When one falls due the manager enters **Draining** for
//! that slot: the controller prioritises the requests already queued
//! for it (the *drain set*) plus any ROP prefetch requests, and the
//! refresh issues as soon as the drain set has been issued and the
//! scope is precharged. A hard deadline bounds postponement (JEDEC DDR4
//! permits up to eight outstanding postponed refreshes; the
//! controller's default deadline is far inside that). Scheduling is by
//! *due time*, not issue time, so the long-run refresh rate is exactly
//! one per `tREFI` regardless of postponement.
//!
//! The manager has no policy of its own: *when* a slot starts draining
//! beyond the plain due-time rule (DARP's pull-ins, Elastic's debt) is
//! the refresh mechanism's call (see [`crate::mechanism`]).
//!
//! Each slot has one *event* cycle: its due time while Idle, its drain
//! deadline while Draining, its completion while Refreshing. The manager
//! keeps a lower bound on all of them (the *floor*) and a flag saying
//! whether the floor is the minimum itself, both kept in O(1) per
//! mutation. Below the floor no poll can move a slot, so the polls
//! return at once, and while the floor is exact and in the future it is
//! the hint. Only a walk over the slots (a poll at or past the floor, or
//! [`RefreshManager::settle_floor`]) makes an inexact floor exact again.

use std::cell::Cell;

use crate::Cycle;

/// Per-slot refresh lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RefreshState {
    /// No refresh due.
    Idle,
    /// A refresh is due; queued requests for the slot are being drained.
    Draining {
        /// The cycle the drain deadline counts from: the due time, or
        /// the cycle a mechanism started the drain.
        due: Cycle,
    },
    /// REF issued; slot frozen until `until`.
    Refreshing {
        /// Completion cycle.
        until: Cycle,
    },
}

/// Auto-refresh bookkeeping for one channel.
#[derive(Debug, Clone)]
pub struct RefreshManager {
    t_refi: Cycle,
    max_postpone: Cycle,
    /// Due time of the oldest refresh not yet issued, per slot.
    next_due: Vec<Cycle>,
    /// Current state per slot.
    state: Vec<RefreshState>,
    /// Refreshes issued per slot.
    issued: Vec<u64>,
    /// True when refresh is disabled (ideal no-refresh memory).
    enabled: bool,
    /// A lower bound on every slot's event cycle (`Cycle::MAX` when
    /// refresh is disabled).
    floor: Cycle,
    /// `floor` is the minimum event cycle itself.
    floor_exact: bool,
    /// Slots examined by per-slot loops (the manager's and, through
    /// [`Self::note_visits`], the mechanism's) since the last
    /// [`Self::take_visits`]. A `Cell` so the `&self` hint paths count
    /// too.
    visits: Cell<u64>,
}

impl RefreshManager {
    /// Creates a manager for `slots` slots. Slot due times are staggered
    /// by `tREFI / slots` as real controllers do, so refreshes of
    /// different slots do not collide on the command bus.
    pub fn new(slots: usize, t_refi: Cycle, max_postpone: Cycle, enabled: bool) -> Self {
        assert!(slots > 0 && t_refi > 0);
        let stagger = t_refi / slots as u64;
        RefreshManager {
            t_refi,
            max_postpone,
            next_due: (0..slots).map(|r| t_refi + r as u64 * stagger).collect(),
            state: vec![RefreshState::Idle; slots],
            issued: vec![0; slots],
            enabled,
            // Slot 0 falls due first.
            floor: if enabled { t_refi } else { Cycle::MAX },
            floor_exact: true,
            visits: Cell::new(0),
        }
    }

    /// `slot`'s event cycle: due time, drain deadline or completion.
    #[inline]
    fn event_of(&self, slot: usize) -> Cycle {
        match self.state[slot] {
            RefreshState::Idle => self.next_due[slot],
            RefreshState::Draining { due } => due + self.max_postpone,
            RefreshState::Refreshing { until } => until,
        }
    }

    /// Keeps the floor after one slot's event moved from `old` to `new`.
    #[inline]
    fn moved(&mut self, old: Cycle, new: Cycle) {
        if new < self.floor {
            // Every other slot sits at or above the old floor.
            self.floor = new;
            self.floor_exact = true;
        } else if old == self.floor && new != old {
            // The minimum may have risen with it.
            self.floor_exact = false;
        }
    }

    /// The minimum event cycle over all slots.
    fn min_event(&self) -> Cycle {
        self.note_visits(self.state.len());
        (0..self.state.len())
            .map(|slot| self.event_of(slot))
            .min()
            .unwrap_or(Cycle::MAX)
    }

    /// A lower bound on every slot's event cycle: its due time while
    /// Idle, its drain deadline while Draining, its completion while
    /// Refreshing (`Cycle::MAX` when refresh is disabled). No poll
    /// before this cycle moves a slot.
    pub fn floor(&self) -> Cycle {
        self.floor
    }

    /// True when [`Self::floor`] is the minimum event cycle itself, not
    /// only a bound below it.
    pub fn floor_exact(&self) -> bool {
        self.floor_exact
    }

    /// Makes the floor exact, walking the slots only when it is not.
    /// The hint path calls this so [`Self::next_event`] can answer from
    /// the floor after a mutation raised the slot that held it.
    pub fn settle_floor(&mut self) {
        if self.enabled && !self.floor_exact {
            self.floor = self.min_event();
            self.floor_exact = true;
        }
    }

    /// Number of slots managed.
    pub fn ranks(&self) -> usize {
        self.state.len()
    }

    /// The refresh interval every slot's schedule advances by.
    pub fn t_refi(&self) -> Cycle {
        self.t_refi
    }

    /// Current state of `slot`.
    pub fn state(&self, slot: usize) -> RefreshState {
        self.state[slot]
    }

    /// Due time of `slot`'s oldest refresh not yet issued (`Cycle::MAX`
    /// if disabled).
    pub fn next_due(&self, slot: usize) -> Cycle {
        if self.enabled {
            self.next_due[slot]
        } else {
            Cycle::MAX
        }
    }

    /// Counts `n` slots examined by a per-slot loop over this manager's
    /// slots (the work counter behind
    /// [`crate::MemCtrlStats::refresh_slot_visits`]).
    #[inline]
    pub(crate) fn note_visits(&self, n: usize) {
        self.visits.set(self.visits.get() + n as u64);
    }

    /// Slots examined since the last call, resetting the count.
    pub(crate) fn take_visits(&mut self) -> u64 {
        self.visits.take()
    }

    /// Total refreshes issued on `slot`.
    pub fn issued(&self, slot: usize) -> u64 {
        self.issued[slot]
    }

    /// Moves every Idle slot whose refresh is due at `now` to Draining
    /// and appends it to `out` (which the caller clears and reuses
    /// across ticks), so the controller can snapshot drain sets and ask
    /// ROP for a decision.
    // rop-lint: hot
    pub fn poll_due_into(&mut self, now: Cycle, out: &mut Vec<usize>) {
        if now < self.floor {
            return;
        }
        self.note_visits(self.state.len());
        let mut floor = Cycle::MAX;
        for slot in 0..self.state.len() {
            if self.state[slot] == RefreshState::Idle && now >= self.next_due[slot] {
                self.state[slot] = RefreshState::Draining {
                    due: self.next_due[slot],
                };
                out.push(slot);
            }
            floor = floor.min(self.event_of(slot));
        }
        self.floor = floor;
        self.floor_exact = true;
    }

    /// Starts `slot`'s drain with its deadline counting from `due`:
    /// Idle → Draining, leaving the schedule alone, so
    /// [`Self::refresh_issued`] still advances it in exact `tREFI`
    /// steps. DARP passes the nominal due time to start a refresh early
    /// on an idle bank; Elastic passes the current cycle when it decides
    /// to pay an owed refresh. Returns `false` without transitioning
    /// unless the slot is Idle and refresh is enabled.
    pub fn start_drain(&mut self, slot: usize, due: Cycle) -> bool {
        if !self.enabled || self.state[slot] != RefreshState::Idle {
            return false;
        }
        let old = self.event_of(slot);
        self.state[slot] = RefreshState::Draining { due };
        self.moved(old, due + self.max_postpone);
        true
    }

    /// True when the drain deadline for `slot` has passed and the
    /// refresh must be forced regardless of remaining drain-set requests.
    pub fn drain_deadline_passed(&self, slot: usize, now: Cycle) -> bool {
        self.draining_longer_than(slot, now, self.max_postpone)
    }

    /// True when `slot` has been in Draining for at least `budget`
    /// cycles (used for the ROP prefetch grace window).
    pub fn draining_longer_than(&self, slot: usize, now: Cycle, budget: Cycle) -> bool {
        match self.state[slot] {
            RefreshState::Draining { due } => now >= due + budget,
            _ => false,
        }
    }

    /// Records that REF was issued on `slot`, completing at `until`. Pays
    /// the oldest owed refresh: the schedule advances by exactly one
    /// `tREFI` (from the due time, not the issue time), preserving the
    /// average refresh rate.
    pub fn refresh_issued(&mut self, slot: usize, until: Cycle) {
        match self.state[slot] {
            RefreshState::Draining { .. } => {}
            // Controller bug, not a config error: the scheduler only
            // issues REF from Draining.
            other => panic!("refresh issued on slot {slot} in state {other:?}"), // rop-lint: allow(no-panic)
        }
        let old = self.event_of(slot);
        self.state[slot] = RefreshState::Refreshing { until };
        self.next_due[slot] += self.t_refi;
        self.issued[slot] += 1;
        self.moved(old, until);
    }

    /// Transitions Refreshing → Idle for every slot whose refresh has
    /// completed at `now`, appending the thawed slots to `out`.
    // rop-lint: hot
    pub fn poll_complete_into(&mut self, now: Cycle, out: &mut Vec<usize>) {
        if now < self.floor {
            return;
        }
        self.note_visits(self.state.len());
        let mut floor = Cycle::MAX;
        for slot in 0..self.state.len() {
            if let RefreshState::Refreshing { until } = self.state[slot] {
                if now >= until {
                    self.state[slot] = RefreshState::Idle;
                    out.push(slot);
                }
            }
            floor = floor.min(self.event_of(slot));
        }
        self.floor = floor;
        self.floor_exact = true;
    }

    /// The earliest future cycle at which this manager needs attention
    /// (a due time, a drain deadline or a completion), for
    /// fast-forwarding. An exact floor in the future is the answer;
    /// otherwise every slot is walked.
    pub fn next_event(&self, now: Cycle) -> Option<Cycle> {
        if !self.enabled {
            return None;
        }
        if self.floor_exact && self.floor > now {
            // Every event lies after `now`, so each counts as it is.
            return Some(self.floor);
        }
        let mut next: Option<Cycle> = None;
        let mut consider = |c: Cycle| {
            if c > now {
                next = Some(next.map_or(c, |n| n.min(c)));
            }
        };
        self.note_visits(self.state.len());
        for slot in 0..self.state.len() {
            match self.state[slot] {
                RefreshState::Idle => consider(self.next_due[slot]),
                RefreshState::Draining { due } => consider(due + self.max_postpone),
                // `until.max(now + 1)`: a zero-length round (RAIDR skip)
                // completes at the next tick, which still needs a hint.
                RefreshState::Refreshing { until } => consider(until.max(now + 1)),
            }
        }
        next
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const T_REFI: Cycle = 6240;
    const T_RFC: Cycle = 280;

    fn due(m: &mut RefreshManager, now: Cycle) -> Vec<usize> {
        let mut out = Vec::new();
        m.poll_due_into(now, &mut out);
        out
    }

    fn complete(m: &mut RefreshManager, now: Cycle) -> Vec<usize> {
        let mut out = Vec::new();
        m.poll_complete_into(now, &mut out);
        out
    }

    #[test]
    fn staggered_due_times() {
        let m = RefreshManager::new(4, T_REFI, 2 * T_REFI, true);
        let dues: Vec<Cycle> = (0..4).map(|r| m.next_due(r)).collect();
        assert_eq!(dues[0], T_REFI);
        assert_eq!(dues[1], T_REFI + T_REFI / 4);
        assert!(dues.windows(2).all(|w| w[1] > w[0]));
    }

    #[test]
    fn lifecycle_idle_draining_refreshing() {
        let mut m = RefreshManager::new(1, T_REFI, 2 * T_REFI, true);
        assert!(due(&mut m, 100).is_empty());
        assert_eq!(due(&mut m, T_REFI), vec![0]);
        assert!(matches!(m.state(0), RefreshState::Draining { .. }));
        m.refresh_issued(0, T_REFI + 50 + T_RFC);
        assert!(matches!(m.state(0), RefreshState::Refreshing { .. }));
        assert!(complete(&mut m, T_REFI + 100).is_empty());
        assert_eq!(complete(&mut m, T_REFI + 50 + T_RFC), vec![0]);
        assert_eq!(m.state(0), RefreshState::Idle);
        assert_eq!(m.issued(0), 1);
        // Next due advanced by exactly one tREFI from the *due* time.
        assert_eq!(m.next_due(0), 2 * T_REFI);
    }

    #[test]
    fn average_rate_preserved_under_postponement() {
        let mut m = RefreshManager::new(1, T_REFI, 2 * T_REFI, true);
        for _ in 0..10 {
            let now = m.next_due(0);
            assert_eq!(due(&mut m, now), vec![0]);
            // Postpone every refresh by 500 cycles.
            let issue_at = now + 500;
            m.refresh_issued(0, issue_at + T_RFC);
            assert_eq!(complete(&mut m, issue_at + T_RFC), vec![0]);
        }
        // Due times march in exact tREFI steps despite postponement.
        assert_eq!(m.next_due(0), 11 * T_REFI);
        assert_eq!(m.issued(0), 10);
    }

    #[test]
    fn deadline_forces_refresh() {
        let mut m = RefreshManager::new(1, T_REFI, 1000, true);
        assert_eq!(due(&mut m, T_REFI), vec![0]);
        assert!(!m.drain_deadline_passed(0, T_REFI + 999));
        assert!(m.drain_deadline_passed(0, T_REFI + 1000));
    }

    #[test]
    fn disabled_manager_never_fires() {
        let mut m = RefreshManager::new(2, T_REFI, 1000, false);
        assert!(due(&mut m, 100 * T_REFI).is_empty());
        assert_eq!(m.next_due(0), Cycle::MAX);
        assert!(m.next_event(0).is_none());
        assert!(!m.start_drain(0, 0));
    }

    #[test]
    fn next_event_tracks_state() {
        let mut m = RefreshManager::new(1, T_REFI, 1000, true);
        assert_eq!(m.next_event(0), Some(T_REFI));
        assert_eq!(due(&mut m, T_REFI), vec![0]);
        assert_eq!(m.next_event(T_REFI), Some(T_REFI + 1000));
        m.refresh_issued(0, T_REFI + 10 + T_RFC);
        assert_eq!(m.next_event(T_REFI + 10), Some(T_REFI + 10 + T_RFC));
    }

    #[test]
    fn early_drain_keeps_the_nominal_schedule() {
        let mut m = RefreshManager::new(1, T_REFI, 2 * T_REFI, true);
        // Start the first refresh 1000 cycles early, deadline counting
        // from its nominal due.
        assert!(m.start_drain(0, m.next_due(0)));
        assert!(matches!(m.state(0), RefreshState::Draining { due: T_REFI }));
        // Idempotent while draining.
        assert!(!m.start_drain(0, T_REFI));
        let issue_at = T_REFI - 1000;
        m.refresh_issued(0, issue_at + T_RFC);
        assert_eq!(complete(&mut m, issue_at + T_RFC), vec![0]);
        // The schedule advanced from the *due* time, not the early issue.
        assert_eq!(m.next_due(0), 2 * T_REFI);
        assert_eq!(m.issued(0), 1);
    }

    #[test]
    #[should_panic]
    fn issue_without_draining_panics() {
        let mut m = RefreshManager::new(1, T_REFI, 1000, true);
        m.refresh_issued(0, 290);
    }
}
