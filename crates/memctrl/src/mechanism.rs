//! The refresh-mechanism seam: pluggable policies that drive the
//! [`RefreshManager`]'s slot lifecycle and decide what each due slot's
//! refresh *round* looks like on the command bus.
//!
//! The controller owns one [`RefreshManager`] (the slot state machine:
//! due times, Draining/Refreshing transitions, postpone deadlines) and
//! one [`Mechanism`] layered on top of it, built from the config's
//! [`MechanismKind`] — which also fixes the slot granularity
//! ([`MechanismKind::scope`]). The mechanism intercepts exactly four
//! points of the refresh path:
//!
//! 1. **`poll_due`** — which slots enter Draining this tick. `AllBank`
//!    delegates verbatim (bit-exact with the pre-seam controller); DARP
//!    additionally *pulls in* upcoming per-bank refreshes whose banks
//!    are idle; Elastic postpones due refreshes into a debt while the
//!    rank is busy and reports the growth through
//!    [`RefreshMechanism::postponed`].
//! 2. **`round_shape`** — what the controller must issue for a due
//!    slot: a standard REF/REFpb, a SARP subarray-scoped refresh, a
//!    RAIDR pro-rata-shortened REF, or nothing at all (a skipped round).
//! 3. **`on_refresh_issued` / `on_refresh_skipped`** — round
//!    accounting (RAIDR bin rotation, DARP pull-in counts) on top of the
//!    manager's schedule advance.
//! 4. **`on_bank_activity`** — demand arrivals, so DARP can require a
//!    quiet window before refreshing a bank out of order.
//!
//! Dispatch is enum-based ([`Mechanism`]), not boxed: the hooks sit on
//! the controller's per-tick path and must stay allocation-free and
//! branch-predictable.

use crate::config::{MechanismKind, MemCtrlConfig, ELASTIC_MAX_DEBT};
use crate::refresh::{RefreshManager, RefreshState};
use crate::Cycle;

/// Granularity at which a mechanism schedules refresh slots.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RefreshScope {
    /// One slot per rank (all-bank REF).
    PerRank,
    /// One slot per (rank, bank) pair (REFpb).
    PerBank,
}

/// What the controller must put on the command bus for a due slot's
/// current refresh round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoundShape {
    /// A standard REF (per-rank scope) or REFpb (per-bank scope). The
    /// pre-seam path.
    Standard,
    /// A SARP refresh locking only `subarray` of the slot's bank for
    /// `tRFCsa`; the bank's other subarrays stay accessible.
    Subarray {
        /// The subarray this round recharges.
        subarray: usize,
    },
    /// A RAIDR round: an all-bank REF shortened pro rata to the rows
    /// whose retention bin falls due this round.
    Scaled {
        /// Lock duration in cycles (1..=tRFC).
        duration: Cycle,
        /// Monotonic round index for the retention audit.
        round: u64,
        /// The 128 ms-class bin is recharged this round.
        covers_128: bool,
        /// The 256 ms-class bin (all remaining rows) is recharged.
        covers_256: bool,
    },
    /// A RAIDR round in which no retention bin falls due: the refresh
    /// is skipped outright (the slot still cycles to keep the schedule).
    Skip {
        /// Monotonic round index for the retention audit.
        round: u64,
    },
}

impl RoundShape {
    /// The subarray a SARP round locks (`None` for every other shape).
    pub fn subarray(self) -> Option<usize> {
        match self {
            RoundShape::Subarray { subarray } => Some(subarray),
            _ => None,
        }
    }
}

/// The hooks a refresh mechanism implements over the shared
/// [`RefreshManager`]. All methods take the manager explicitly so the
/// controller can keep mechanism and manager as separate fields (the
/// borrow-splitting its tick loop needs).
pub trait RefreshMechanism {
    /// Advances due-time bookkeeping at `now` and appends newly-Draining
    /// slots to `out`. `busy(slot)` reports queued demand for the slot's
    /// scope; `write_drain` is the controller's write-drain mode flag
    /// (DARP widens its pull-in window during drains).
    fn poll_due(
        &mut self,
        base: &mut RefreshManager,
        now: Cycle,
        busy: &dyn Fn(usize) -> bool,
        write_drain: bool,
        out: &mut Vec<usize>,
    );

    /// The shape of `slot`'s current round. Pure: stable across ticks
    /// until [`Self::on_refresh_issued`]/[`Self::on_refresh_skipped`]
    /// advances the round.
    fn round_shape(&self, base: &RefreshManager, slot: usize) -> RoundShape;

    /// A refresh command for `slot` issued at `now`, completing at
    /// `until`. Must advance the manager's schedule exactly as the
    /// pre-seam controller did.
    fn on_refresh_issued(
        &mut self,
        base: &mut RefreshManager,
        slot: usize,
        now: Cycle,
        until: Cycle,
    );

    /// `slot`'s round was skipped at `now` (RAIDR only): the schedule
    /// advances as if a zero-length refresh issued.
    fn on_refresh_skipped(&mut self, base: &mut RefreshManager, slot: usize, now: Cycle) {
        // Only RAIDR produces Skip shapes; reaching here otherwise is a
        // controller bug.
        let _ = (base, slot, now);
        unreachable!("mechanism produced no Skip shape"); // rop-lint: allow(no-panic)
    }

    /// A demand request arrived for `slot` at `now`.
    fn on_bank_activity(&mut self, slot: usize, now: Cycle) {
        let _ = (slot, now);
    }

    /// Earliest future cycle the refresh path needs attention, for the
    /// controller's fast-forward hint.
    fn next_event(&self, base: &RefreshManager, now: Cycle) -> Option<Cycle> {
        base.next_event(now)
    }

    /// Rounds skipped because no retention bin fell due (RAIDR).
    fn refreshes_skipped(&self) -> u64 {
        0
    }

    /// Refreshes pulled in ahead of schedule (DARP).
    fn refreshes_pulled_in(&self) -> u64 {
        0
    }

    /// Slots whose refresh debt grew during the last
    /// [`Self::poll_due`], each with the debt it reached — the
    /// `RefreshPostponed` trace hook. Only Elastic postpones into a
    /// debt; everyone else reports nothing.
    fn postponed(&self) -> &[(usize, u64)] {
        &[]
    }

    /// One word of *behaviour-relevant* mechanism state for `slot` at
    /// `now` — the `MechState` snapshot hook the model checker hashes
    /// into its visited-state fingerprints. The contract: two
    /// mechanism instances whose every slot word (and manager state)
    /// agree must behave identically from here on, and the word must
    /// range over a *finite* set when time deltas are bounded —
    /// monotonic counters go in only after reduction (modulo a period,
    /// or saturated at the horizon beyond which they stop mattering).
    fn mech_state(&self, base: &RefreshManager, now: Cycle, slot: usize) -> u64 {
        let _ = (base, now, slot);
        0
    }
}

/// The pre-seam behaviour: slots drain when due and issue standard
/// REF/REFpb commands, in slot order. Every hook is a verbatim
/// delegation to the [`RefreshManager`], which is what makes the
/// differential oracle's bit-exactness claim meaningful. The same
/// mechanism runs at either scope; the slot count the manager was
/// built with is the only difference.
#[derive(Debug, Clone)]
pub struct AllBank;

impl RefreshMechanism for AllBank {
    // rop-lint: hot
    fn poll_due(
        &mut self,
        base: &mut RefreshManager,
        now: Cycle,
        _busy: &dyn Fn(usize) -> bool,
        _write_drain: bool,
        out: &mut Vec<usize>,
    ) {
        base.poll_due_into(now, out);
    }

    fn round_shape(&self, _base: &RefreshManager, _slot: usize) -> RoundShape {
        RoundShape::Standard
    }

    fn on_refresh_issued(
        &mut self,
        base: &mut RefreshManager,
        slot: usize,
        _now: Cycle,
        until: Cycle,
    ) {
        base.refresh_issued(slot, until);
    }
}

/// Elastic Refresh (Stuecheli et al., MICRO'10) over all-bank REF. Due
/// refreshes are not drained at once: each due time that passes adds
/// one unit of *debt* to its rank, and an owed refresh starts draining
/// only when the rank has no pending demand, or unconditionally once
/// the debt reaches the cap. Each issued refresh pays the oldest owed
/// one, so the manager's schedule still advances in exact `tREFI`
/// steps.
#[derive(Debug, Clone)]
pub struct Elastic {
    max_debt: u32,
    /// Owed refreshes per slot: due times passed but not yet paid. The
    /// manager's `next_due` is the oldest of them, so the next due time
    /// not yet accrued is `next_due + debt × tREFI`.
    debt: Vec<u32>,
    /// Slots whose debt grew in the last poll, with the debt reached.
    postponed: Vec<(usize, u64)>,
}

impl Elastic {
    /// Elastic Refresh over `slots` rank slots, capped at the JEDEC
    /// budget of [`ELASTIC_MAX_DEBT`] owed refreshes.
    pub fn new(slots: usize) -> Self {
        Self::with_max_debt(slots, ELASTIC_MAX_DEBT)
    }

    /// As [`Self::new`] with an explicit debt cap.
    pub fn with_max_debt(slots: usize, max_debt: u32) -> Self {
        assert!(max_debt >= 1, "elastic refresh needs a debt budget");
        Elastic {
            max_debt,
            debt: vec![0; slots],
            postponed: Vec::with_capacity(slots),
        }
    }

    /// Owed refreshes on `slot`.
    pub fn debt(&self, slot: usize) -> u32 {
        self.debt[slot]
    }
}

impl RefreshMechanism for Elastic {
    // rop-lint: hot
    fn poll_due(
        &mut self,
        base: &mut RefreshManager,
        now: Cycle,
        busy: &dyn Fn(usize) -> bool,
        _write_drain: bool,
        out: &mut Vec<usize>,
    ) {
        self.postponed.clear();
        let t_refi = base.t_refi();
        base.note_visits(base.ranks());
        for slot in 0..base.ranks() {
            // Accrue debt as due times pass (possibly several after a
            // long fast-forward), whatever state the slot is in.
            let before = self.debt[slot];
            while now
                >= base
                    .next_due(slot)
                    .saturating_add(u64::from(self.debt[slot]) * t_refi)
            {
                self.debt[slot] += 1;
            }
            if self.debt[slot] > before {
                self.postponed.push((slot, u64::from(self.debt[slot])));
            }
            // Pay an owed refresh when the rank goes idle, or at once at
            // the cap; the drain deadline counts from this decision.
            let debt = self.debt[slot];
            if debt > 0 && (debt >= self.max_debt || !busy(slot)) && base.start_drain(slot, now) {
                out.push(slot);
            }
        }
    }

    fn round_shape(&self, _base: &RefreshManager, _slot: usize) -> RoundShape {
        RoundShape::Standard
    }

    fn on_refresh_issued(
        &mut self,
        base: &mut RefreshManager,
        slot: usize,
        _now: Cycle,
        until: Cycle,
    ) {
        debug_assert!(
            self.debt[slot] > 0,
            "elastic issued a refresh it did not owe"
        );
        self.debt[slot] = self.debt[slot].saturating_sub(1);
        base.refresh_issued(slot, until);
    }

    fn next_event(&self, base: &RefreshManager, now: Cycle) -> Option<Cycle> {
        base.note_visits(base.ranks());
        let owed_idle =
            (0..base.ranks()).any(|s| self.debt[s] > 0 && base.state(s) == RefreshState::Idle);
        // Owed refreshes fire at the next idle poll. The manager's own
        // Idle hint is the oldest owed due — already past when a debt is
        // outstanding, so it only speaks for debt-free slots.
        if owed_idle {
            Some(now + 1)
        } else {
            base.next_event(now)
        }
    }

    fn postponed(&self) -> &[(usize, u64)] {
        &self.postponed
    }

    fn mech_state(&self, _base: &RefreshManager, _now: Cycle, slot: usize) -> u64 {
        // The debt decides when the slot drains. It is not bounded on
        // its own (see EXPERIMENTS.md); a search that enforces a debt
        // bound keeps the word finite.
        u64::from(self.debt[slot])
    }
}

/// DARP: out-of-order per-bank refresh (Chang et al., HPCA'14). An
/// upcoming REFpb is pulled into the present when its bank has been
/// demand-quiet for a window and no sibling slot of the rank is mid
/// refresh; the pull-in lookahead widens during write drains, so
/// refreshes hide behind write bursts instead of colliding with reads.
#[derive(Debug, Clone)]
pub struct Darp {
    banks_per_rank: usize,
    /// Pull-in lookahead: a slot due within this many cycles is a
    /// candidate.
    lookahead: Cycle,
    /// Widened lookahead while the controller is draining writes.
    drain_lookahead: Cycle,
    /// A bank must have seen no demand arrival for this long.
    idle_window: Cycle,
    /// Last demand arrival per slot.
    last_activity: Vec<Cycle>,
    pulled_in: u64,
    /// Every slot in (next due, slot) order. Only an issued refresh
    /// moves a due time, and it passes through
    /// [`RefreshMechanism::on_refresh_issued`], which re-files the slot;
    /// the manager's initial stagger is already in slot order.
    by_due: Vec<usize>,
    /// Pull-in candidates of one poll, put back in slot order.
    cands: Vec<usize>,
    /// The slots that may have seen a demand arrival in the last
    /// `idle_window` cycles, in last-arrival order: every such slot,
    /// and maybe some whose window ran out after the last poll, which
    /// drops the rest from the front.
    recent: Vec<usize>,
    /// Per slot: listed in `recent`.
    is_recent: Vec<bool>,
}

impl Darp {
    /// DARP over `slots` per-bank slots (`banks_per_rank` per rank).
    pub fn new(slots: usize, banks_per_rank: usize, t_refi: Cycle) -> Self {
        Darp {
            banks_per_rank,
            // One bank's share of the tREFI: roughly one pull-in
            // candidate at a time per rank.
            lookahead: t_refi / banks_per_rank.max(1) as u64,
            drain_lookahead: t_refi / 2,
            idle_window: 64,
            last_activity: vec![0; slots],
            pulled_in: 0,
            by_due: (0..slots).collect(),
            cands: Vec::with_capacity(slots),
            // Every slot's last arrival reads as cycle 0.
            recent: (0..slots).collect(),
            is_recent: vec![true; slots],
        }
    }

    /// `next`, lowered to the earliest pull-in wake after `now` of an
    /// Idle slot listed in `recent`, under either lookahead: its due
    /// enters the lookahead *and* its bank has sat idle for the window.
    /// No slot wakes before its window ends, and the windows end in
    /// list order, so the walk stops at the first one ending at or
    /// after the wake found so far.
    fn activity_wake(
        &self,
        base: &RefreshManager,
        now: Cycle,
        mut next: Option<Cycle>,
    ) -> Option<Cycle> {
        let mut seen = 0;
        for &slot in &self.recent {
            let idle_ok = self.last_activity[slot] + self.idle_window;
            if next.is_some_and(|n| idle_ok >= n) {
                break;
            }
            seen += 1;
            let due = base.next_due(slot);
            if base.state(slot) != RefreshState::Idle || due == Cycle::MAX {
                continue;
            }
            for look in [self.lookahead, self.drain_lookahead] {
                let t = due.saturating_sub(look).max(idle_ok);
                if t < due && t > now {
                    next = Some(next.map_or(t, |n| n.min(t)));
                }
            }
        }
        base.note_visits(seen);
        next
    }

    /// `next`, lowered to the earliest pull-in wake after `now` of an
    /// Idle slot not listed in `recent`, under lookahead `look`. Such a
    /// slot's bank has sat idle since `now - idle_window` at the latest,
    /// so it wakes at `due - look` once that lies after `now`: the first
    /// such slot in due order past `now + look` wakes first, and the
    /// walk stops where `due - look` reaches `next`.
    fn due_wake(
        &self,
        base: &RefreshManager,
        now: Cycle,
        look: Cycle,
        next: Option<Cycle>,
    ) -> Option<Cycle> {
        if look == 0 {
            return next;
        }
        let past = now.saturating_add(look);
        let from = self.by_due.partition_point(|&s| base.next_due(s) <= past);
        let mut seen = 0;
        let mut wake = next;
        for &slot in &self.by_due[from..] {
            let due = base.next_due(slot);
            if due == Cycle::MAX || next.is_some_and(|n| due - look >= n) {
                break;
            }
            seen += 1;
            if base.state(slot) == RefreshState::Idle && !self.is_recent[slot] {
                wake = Some(due - look);
                break;
            }
        }
        base.note_visits(seen);
        wake
    }
}

impl RefreshMechanism for Darp {
    // rop-lint: hot
    fn poll_due(
        &mut self,
        base: &mut RefreshManager,
        now: Cycle,
        busy: &dyn Fn(usize) -> bool,
        write_drain: bool,
        out: &mut Vec<usize>,
    ) {
        let look = if write_drain {
            self.drain_lookahead
        } else {
            self.lookahead
        };
        // The slots whose idle window ran out leave the recent list.
        let ended = self
            .recent
            .iter()
            .take_while(|&&slot| self.last_activity[slot] + self.idle_window <= now)
            .count();
        for slot in self.recent.drain(..ended) {
            self.is_recent[slot] = false;
        }
        // Only Idle slots due after `now` and within the lookahead can
        // pull in: walk the due order from the first one past `now` up
        // to the first one past the lookahead.
        let mut cands = std::mem::take(&mut self.cands);
        cands.clear();
        let mut seen = 0;
        let from = self.by_due.partition_point(|&s| base.next_due(s) <= now);
        for &slot in &self.by_due[from..] {
            seen += 1;
            let due = base.next_due(slot);
            if due == Cycle::MAX || due.saturating_sub(now) > look {
                break;
            }
            if base.state(slot) != RefreshState::Idle || due <= now {
                continue;
            }
            if busy(slot) || now < self.last_activity[slot] + self.idle_window {
                continue;
            }
            cands.push(slot);
        }
        base.note_visits(seen);
        // A pull-in blocks its later siblings, so the candidates start
        // draining in slot order, as a walk over every slot would.
        cands.sort_unstable();
        for &slot in &cands {
            // One refresh in flight per rank: out-of-order, not en masse.
            let first = (slot / self.banks_per_rank) * self.banks_per_rank;
            if (first..first + self.banks_per_rank).any(|s| base.state(s) != RefreshState::Idle) {
                continue;
            }
            if base.start_drain(slot, base.next_due(slot)) {
                self.pulled_in += 1;
                out.push(slot);
            }
        }
        self.cands = cands;
        base.poll_due_into(now, out);
    }

    fn round_shape(&self, _base: &RefreshManager, _slot: usize) -> RoundShape {
        RoundShape::Standard
    }

    fn on_refresh_issued(
        &mut self,
        base: &mut RefreshManager,
        slot: usize,
        _now: Cycle,
        until: Cycle,
    ) {
        let key = |s: usize| (base.next_due(s), s);
        let from = self
            .by_due
            .binary_search_by_key(&key(slot), |&s| key(s))
            .expect("every slot is filed by its due time");
        base.refresh_issued(slot, until);
        // The due moved one tREFI later: slide the slot to its new place.
        let key = |s: usize| (base.next_due(s), s);
        let to = from + self.by_due[from + 1..].partition_point(|&s| key(s) < key(slot));
        self.by_due[from..=to].rotate_left(1);
    }

    // rop-lint: hot
    fn on_bank_activity(&mut self, slot: usize, now: Cycle) {
        self.last_activity[slot] = now;
        // To the back of the list, which stays in last-arrival order.
        if self.is_recent[slot] {
            let at = self
                .recent
                .iter()
                .position(|&s| s == slot)
                .expect("a recent slot is listed");
            self.recent.remove(at);
        }
        self.is_recent[slot] = true;
        self.recent.push(slot);
    }

    fn next_event(&self, base: &RefreshManager, now: Cycle) -> Option<Cycle> {
        // A pull-in becomes possible once the due enters the lookahead
        // window *and* the bank has sat idle long enough. Hints must
        // never be late (the event engine would fast-forward past a
        // cycle where the reference loop acts), so consider both
        // lookaheads — waking at the wider write-drain one is at worst
        // a no-op tick. A slot idle for the whole window wakes on its
        // due alone; only the recently active ones need their own walk.
        let next = base.next_event(now);
        let next = self.due_wake(base, now, self.drain_lookahead, next);
        let next = self.due_wake(base, now, self.lookahead, next);
        self.activity_wake(base, now, next)
    }

    fn refreshes_pulled_in(&self) -> u64 {
        self.pulled_in
    }

    fn mech_state(&self, _base: &RefreshManager, now: Cycle, slot: usize) -> u64 {
        // Only the *age* of the last demand arrival matters, and only
        // up to the idle window: any older and the pull-in gate is
        // equally open. Saturating keeps the word finite as time runs.
        now.saturating_sub(self.last_activity[slot])
            .min(self.idle_window)
    }
}

/// SARP: subarray-level refresh parallelism (Chang et al., HPCA'14).
/// Each per-bank refresh round locks a single subarray (for `tRFCsa`),
/// rotating round-robin across the bank's subarrays; reads and writes
/// to the bank's *other* subarrays keep flowing through the refresh.
#[derive(Debug, Clone)]
pub struct Sarp {
    subarrays: usize,
}

impl Sarp {
    /// SARP rotating over `subarrays` subarrays per bank.
    pub fn new(subarrays: usize) -> Self {
        assert!(subarrays >= 2, "SARP needs subarray parallelism");
        Sarp { subarrays }
    }
}

impl RefreshMechanism for Sarp {
    // rop-lint: hot
    fn poll_due(
        &mut self,
        base: &mut RefreshManager,
        now: Cycle,
        _busy: &dyn Fn(usize) -> bool,
        _write_drain: bool,
        out: &mut Vec<usize>,
    ) {
        base.poll_due_into(now, out);
    }

    fn round_shape(&self, base: &RefreshManager, slot: usize) -> RoundShape {
        RoundShape::Subarray {
            subarray: (base.issued(slot) % self.subarrays as u64) as usize,
        }
    }

    fn on_refresh_issued(
        &mut self,
        base: &mut RefreshManager,
        slot: usize,
        _now: Cycle,
        until: Cycle,
    ) {
        base.refresh_issued(slot, until);
    }

    fn mech_state(&self, base: &RefreshManager, _now: Cycle, slot: usize) -> u64 {
        // The rotation position is all that distinguishes two SARP
        // states with equal manager state.
        base.issued(slot) % self.subarrays as u64
    }
}

/// RAIDR: retention-aware refresh binning (Liu et al., ISCA'12). Rows
/// are binned into 64/128/256 ms retention classes by seeded Bloom
/// filters; each tREFI round refreshes only the rows whose bin falls
/// due — a full REF when the slowest bin is due, a pro-rata-shortened
/// REF for the small fast bins, and nothing at all on rounds where no
/// bin is due. Bloom false positives show up as extra refreshed rows,
/// exactly as in the paper's hardware.
#[derive(Debug, Clone)]
pub struct Raidr {
    bins: Vec<RetentionBins>,
    round: Vec<u64>,
    /// Rounds between recharges of the fastest bin.
    stride: u64,
    t_rfc: Cycle,
    skipped: u64,
}

impl Raidr {
    /// RAIDR over `ranks` rank slots: per-rank weak-row draws seeded
    /// from `seed`, the fastest bin recharged every `bin_period` cycles
    /// (a multiple of `t_refi`), rounds scaled against `t_rfc` over
    /// `rows` row addresses per rank.
    pub fn new(
        ranks: usize,
        seed: u64,
        bin_period: Cycle,
        t_refi: Cycle,
        t_rfc: Cycle,
        rows: usize,
    ) -> Self {
        assert!(t_refi > 0 && bin_period > 0 && bin_period.is_multiple_of(t_refi));
        Raidr {
            bins: (0..ranks)
                .map(|r| RetentionBins::seeded(seed.wrapping_add(r as u64), rows))
                .collect(),
            round: vec![0; ranks],
            stride: bin_period / t_refi,
            t_rfc,
            skipped: 0,
        }
    }
}

impl RefreshMechanism for Raidr {
    // rop-lint: hot
    fn poll_due(
        &mut self,
        base: &mut RefreshManager,
        now: Cycle,
        _busy: &dyn Fn(usize) -> bool,
        _write_drain: bool,
        out: &mut Vec<usize>,
    ) {
        base.poll_due_into(now, out);
    }

    fn round_shape(&self, _base: &RefreshManager, slot: usize) -> RoundShape {
        let r = self.round[slot];
        let covers_256 = r.is_multiple_of(4 * self.stride);
        let covers_128 = r.is_multiple_of(2 * self.stride);
        let covers_64 = r.is_multiple_of(self.stride);
        let frac = if covers_256 {
            1.0
        } else if covers_128 {
            self.bins[slot].frac_le_128()
        } else if covers_64 {
            self.bins[slot].frac_64()
        } else {
            return RoundShape::Skip { round: r };
        };
        let duration = ((self.t_rfc as f64 * frac).ceil() as Cycle).clamp(1, self.t_rfc);
        RoundShape::Scaled {
            duration,
            round: r,
            covers_128,
            covers_256,
        }
    }

    fn on_refresh_issued(
        &mut self,
        base: &mut RefreshManager,
        slot: usize,
        _now: Cycle,
        until: Cycle,
    ) {
        base.refresh_issued(slot, until);
        self.round[slot] += 1;
    }

    fn on_refresh_skipped(&mut self, base: &mut RefreshManager, slot: usize, now: Cycle) {
        // A zero-length "refresh": the slot cycles (Draining →
        // Refreshing{until: now} → Idle next tick) and the schedule
        // advances by exactly one tREFI, but nothing touches the bus.
        base.refresh_issued(slot, now);
        self.round[slot] += 1;
        self.skipped += 1;
    }

    fn refreshes_skipped(&self) -> u64 {
        self.skipped
    }

    fn mech_state(&self, _base: &RefreshManager, _now: Cycle, slot: usize) -> u64 {
        // Round shape is periodic in 4×stride (the 256 ms-bin cadence);
        // reducing the monotonic round counter modulo that period keeps
        // the reachable fingerprint set finite.
        self.round[slot] % (4 * self.stride)
    }
}

/// One rank's retention-time bins: two seeded Bloom filters (64 ms and
/// 128 ms classes; everything else retains ≥ 256 ms). The filters are
/// populated with a seeded weak-row draw and then *measured* — the
/// stored fractions include Bloom false positives, so the refresh work
/// RAIDR does is the work the filters mandate, not the ground truth.
#[derive(Debug, Clone)]
pub struct RetentionBins {
    bits_64: Box<[u64; BLOOM_WORDS]>,
    seed: u64,
    frac_64: f64,
    frac_le_128: f64,
    weak_64: usize,
    weak_128: usize,
}

const BLOOM_WORDS: usize = 64; // 4096 bits per filter
const BLOOM_HASHES: u64 = 3;

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

impl RetentionBins {
    /// Draws weak rows for one rank from `seed` and bins them: a
    /// handful of 64 ms rows (possibly none — retention outliers are
    /// rare and DIMM-dependent) and a larger 128 ms population, over a
    /// universe of `rows` row addresses.
    pub fn seeded(seed: u64, rows: usize) -> Self {
        assert!(rows > 0);
        let mut bits_64 = Box::new([0u64; BLOOM_WORDS]);
        let mut bits_128 = Box::new([0u64; BLOOM_WORDS]);
        let mut state = splitmix64(seed ^ 0x5245_5441_494e); // "RETAIN"
        let mut next = || {
            state = splitmix64(state);
            state
        };
        // Weak-row populations, scaled to the universe: the 64 ms bin
        // is a rare-outlier draw (0..=24 rows), the 128 ms bin a
        // steadier ~0.5% of rows.
        let n_64 = (next() % 25) as usize;
        let n_128 = rows / 256 + (next() % 64) as usize;
        for _ in 0..n_64 {
            let row = (next() % rows as u64) as usize;
            bloom_insert(&mut bits_64, seed, row);
        }
        for _ in 0..n_128 {
            let row = (next() % rows as u64) as usize;
            bloom_insert(&mut bits_128, seed, row);
        }
        // Measure what the filters mandate (false positives included).
        let mut c_64 = 0usize;
        let mut c_128 = 0usize;
        for row in 0..rows {
            if bloom_query(&bits_64, seed, row) {
                c_64 += 1;
            } else if bloom_query(&bits_128, seed, row) {
                c_128 += 1;
            }
        }
        RetentionBins {
            bits_64,
            seed,
            frac_64: c_64 as f64 / rows as f64,
            frac_le_128: (c_64 + c_128) as f64 / rows as f64,
            weak_64: n_64,
            weak_128: n_128,
        }
    }

    /// Fraction of rows the filters place in the 64 ms bin.
    pub fn frac_64(&self) -> f64 {
        self.frac_64
    }

    /// Fraction of rows in the 64 ms *or* 128 ms bin.
    pub fn frac_le_128(&self) -> f64 {
        self.frac_le_128
    }

    /// Rows actually drawn into the 64 ms bin (pre-false-positive).
    pub fn weak_64(&self) -> usize {
        self.weak_64
    }

    /// Rows actually drawn into the 128 ms bin (pre-false-positive).
    pub fn weak_128(&self) -> usize {
        self.weak_128
    }

    /// True when the filters place `row` in the 64 ms bin.
    pub fn in_bin_64(&self, row: usize) -> bool {
        bloom_query(&self.bits_64, self.seed, row)
    }
}

fn bloom_slots(seed: u64, row: usize) -> impl Iterator<Item = (usize, u64)> {
    (0..BLOOM_HASHES).map(move |k| {
        let h = splitmix64(seed ^ (row as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ (k << 56));
        let bit = (h % (BLOOM_WORDS as u64 * 64)) as usize;
        (bit / 64, 1u64 << (bit % 64))
    })
}

fn bloom_insert(bits: &mut [u64; BLOOM_WORDS], seed: u64, row: usize) {
    for (word, mask) in bloom_slots(seed, row) {
        bits[word] |= mask;
    }
}

fn bloom_query(bits: &[u64; BLOOM_WORDS], seed: u64, row: usize) -> bool {
    bloom_slots(seed, row).all(|(word, mask)| bits[word] & mask != 0)
}

/// Enum-dispatched mechanism: one variant per rival, no boxing on the
/// controller's per-tick path.
#[derive(Debug, Clone)]
pub enum Mechanism {
    /// Pre-seam auto-refresh (the paper's baseline and ROP systems),
    /// per rank or per bank.
    AllBank(AllBank),
    /// Debt-based postponed all-bank refresh.
    Elastic(Elastic),
    /// Out-of-order per-bank refresh.
    Darp(Darp),
    /// Subarray-scoped refresh.
    Sarp(Sarp),
    /// Retention-aware binned refresh.
    Raidr(Raidr),
}

impl Mechanism {
    /// Builds the mechanism selected by `cfg.mechanism`.
    ///
    /// # Panics
    /// Panics on a configuration `cfg.validate()` would reject.
    pub fn from_config(cfg: &MemCtrlConfig) -> Self {
        let g = &cfg.dram.geometry;
        match cfg.mechanism {
            MechanismKind::AllBank { .. } => Mechanism::AllBank(AllBank),
            MechanismKind::Elastic => Mechanism::Elastic(Elastic::new(g.ranks)),
            MechanismKind::Darp => Mechanism::Darp(Darp::new(
                g.ranks * g.banks_per_rank,
                g.banks_per_rank,
                cfg.dram.timing.t_refi(),
            )),
            MechanismKind::Sarp => Mechanism::Sarp(Sarp::new(g.subarrays_per_bank)),
            MechanismKind::Raidr { seed, bin_period } => Mechanism::Raidr(Raidr::new(
                g.ranks,
                seed,
                bin_period,
                cfg.dram.timing.t_refi(),
                cfg.dram.timing.t_rfc(),
                g.rows_per_bank,
            )),
        }
    }

    /// Label for metrics and sweep exports. Elastic and REFpb issue
    /// plain REF/REFpb commands and record as `allbank`, the family
    /// they share with the baseline.
    pub fn label(&self) -> &'static str {
        match self {
            Mechanism::AllBank(_) | Mechanism::Elastic(_) => "allbank",
            Mechanism::Darp(_) => "darp",
            Mechanism::Sarp(_) => "sarp",
            Mechanism::Raidr(_) => "raidr",
        }
    }
}

macro_rules! dispatch {
    ($self:expr, $m:pat => $body:expr) => {
        match $self {
            Mechanism::AllBank($m) => $body,
            Mechanism::Elastic($m) => $body,
            Mechanism::Darp($m) => $body,
            Mechanism::Sarp($m) => $body,
            Mechanism::Raidr($m) => $body,
        }
    };
}

impl RefreshMechanism for Mechanism {
    // rop-lint: hot
    fn poll_due(
        &mut self,
        base: &mut RefreshManager,
        now: Cycle,
        busy: &dyn Fn(usize) -> bool,
        write_drain: bool,
        out: &mut Vec<usize>,
    ) {
        dispatch!(self, m => m.poll_due(base, now, busy, write_drain, out))
    }

    // rop-lint: hot
    fn round_shape(&self, base: &RefreshManager, slot: usize) -> RoundShape {
        dispatch!(self, m => m.round_shape(base, slot))
    }

    fn on_refresh_issued(
        &mut self,
        base: &mut RefreshManager,
        slot: usize,
        now: Cycle,
        until: Cycle,
    ) {
        dispatch!(self, m => m.on_refresh_issued(base, slot, now, until))
    }

    fn on_refresh_skipped(&mut self, base: &mut RefreshManager, slot: usize, now: Cycle) {
        dispatch!(self, m => m.on_refresh_skipped(base, slot, now))
    }

    // rop-lint: hot
    fn on_bank_activity(&mut self, slot: usize, now: Cycle) {
        dispatch!(self, m => m.on_bank_activity(slot, now))
    }

    fn next_event(&self, base: &RefreshManager, now: Cycle) -> Option<Cycle> {
        dispatch!(self, m => m.next_event(base, now))
    }

    fn refreshes_skipped(&self) -> u64 {
        dispatch!(self, m => m.refreshes_skipped())
    }

    fn refreshes_pulled_in(&self) -> u64 {
        dispatch!(self, m => m.refreshes_pulled_in())
    }

    fn postponed(&self) -> &[(usize, u64)] {
        dispatch!(self, m => m.postponed())
    }

    fn mech_state(&self, base: &RefreshManager, now: Cycle, slot: usize) -> u64 {
        dispatch!(self, m => m.mech_state(base, now, slot))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const T_REFI: Cycle = 6240;
    const T_RFC: Cycle = 280;

    fn manager(slots: usize) -> RefreshManager {
        RefreshManager::new(slots, T_REFI, 2 * T_REFI, true)
    }

    /// Polls `mech` at `now` with a fixed busy answer; returns the slots
    /// that started draining.
    fn poll(
        mech: &mut impl RefreshMechanism,
        base: &mut RefreshManager,
        now: Cycle,
        busy: bool,
    ) -> Vec<usize> {
        let mut out = Vec::new();
        mech.poll_due(base, now, &|_| busy, false, &mut out);
        out
    }

    fn complete(base: &mut RefreshManager, now: Cycle) {
        let mut out = Vec::new();
        base.poll_complete_into(now, &mut out);
    }

    #[test]
    fn allbank_delegates_verbatim() {
        let mut a = manager(2);
        let mut b = manager(2);
        let mut mech = AllBank;
        let mut out_a = Vec::new();
        let mut out_b = Vec::new();
        for now in (0..40_000).step_by(37) {
            out_a.clear();
            out_b.clear();
            a.poll_due_into(now, &mut out_a);
            mech.poll_due(&mut b, now, &|_| false, false, &mut out_b);
            assert_eq!(out_a, out_b);
            for &s in &out_a {
                a.refresh_issued(s, now + T_RFC);
                mech.on_refresh_issued(&mut b, s, now, now + T_RFC);
            }
            let mut d = Vec::new();
            a.poll_complete_into(now, &mut d);
            d.clear();
            b.poll_complete_into(now, &mut d);
            assert_eq!(a.next_event(now), mech.next_event(&b, now));
        }
        assert_eq!(a.issued(0), b.issued(0));
        assert_eq!(a.issued(1), b.issued(1));
    }

    #[test]
    fn darp_pulls_idle_banks_in_early() {
        let banks = 4;
        let mut base = manager(banks);
        let mut darp = Darp::new(banks, banks, T_REFI);
        // Slot 0 is due at tREFI; within the lookahead window, idle, and
        // nothing else in flight, it gets pulled in early.
        let look = T_REFI / banks as u64;
        let now = T_REFI - look + 1;
        let mut out = Vec::new();
        darp.poll_due(&mut base, now, &|_| false, false, &mut out);
        assert_eq!(out, vec![0]);
        assert!(matches!(base.state(0), RefreshState::Draining { .. }));
        assert_eq!(darp.refreshes_pulled_in(), 1);
        // Schedule still advances in exact tREFI steps from the due.
        darp.on_refresh_issued(&mut base, 0, now, now + 100);
        assert_eq!(base.next_due(0), 2 * T_REFI);
    }

    #[test]
    fn darp_respects_busy_and_recent_activity() {
        let banks = 4;
        let mut base = manager(banks);
        let mut darp = Darp::new(banks, banks, T_REFI);
        let now = T_REFI - 10;
        let mut out = Vec::new();
        // Busy bank: no pull-in.
        darp.poll_due(&mut base, now, &|s| s == 0, false, &mut out);
        assert!(out.is_empty());
        // Recent demand on the bank: no pull-in either.
        darp.on_bank_activity(0, now - 5);
        darp.poll_due(&mut base, now, &|_| false, false, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn darp_allows_one_in_flight_refresh_per_rank() {
        let banks = 4;
        let mut base = manager(banks);
        let mut darp = Darp::new(banks, banks, T_REFI);
        // Widened window during a write drain can cover several slots,
        // but only one may pull in while another is non-Idle.
        let now = T_REFI;
        let mut out = Vec::new();
        darp.poll_due(&mut base, now, &|_| false, true, &mut out);
        // Slot 0 is naturally due at tREFI; others pulled in at most up
        // to the one-in-flight rule.
        assert!(!out.is_empty());
        let drained = out
            .iter()
            .filter(|&&s| matches!(base.state(s), RefreshState::Draining { .. }))
            .count();
        assert_eq!(drained, out.len());
    }

    #[test]
    fn sarp_rotates_subarrays() {
        let mut base = manager(1);
        let mut sarp = Sarp::new(8);
        assert_eq!(
            sarp.round_shape(&base, 0),
            RoundShape::Subarray { subarray: 0 }
        );
        assert_eq!(poll(&mut sarp, &mut base, T_REFI, false), vec![0]);
        sarp.on_refresh_issued(&mut base, 0, T_REFI, T_REFI + 90);
        assert_eq!(
            sarp.round_shape(&base, 0),
            RoundShape::Subarray { subarray: 1 }
        );
    }

    #[test]
    fn raidr_round_cadence_and_skips() {
        let mut base = manager(1);
        // stride 2: rounds 0..8 = full, skip, 64, skip, 128, skip, 64, skip.
        let mut raidr = Raidr::new(1, 42, 2 * T_REFI, T_REFI, T_RFC, 1 << 15);
        let mut durations = Vec::new();
        let mut skips = 0;
        for i in 0..8u64 {
            let now = (i + 1) * T_REFI;
            assert_eq!(poll(&mut raidr, &mut base, now, false), vec![0]);
            match raidr.round_shape(&base, 0) {
                RoundShape::Scaled {
                    duration,
                    round,
                    covers_128,
                    covers_256,
                } => {
                    assert_eq!(round, i);
                    assert_eq!(covers_256, i % 8 == 0);
                    assert_eq!(covers_128, i % 4 == 0);
                    durations.push(duration);
                    raidr.on_refresh_issued(&mut base, 0, now, now + duration);
                }
                RoundShape::Skip { round } => {
                    assert_eq!(round, i);
                    skips += 1;
                    raidr.on_refresh_skipped(&mut base, 0, now);
                }
                other => panic!("unexpected shape {other:?}"),
            }
            complete(&mut base, now + T_RFC);
        }
        // Odd rounds all skip under stride 2.
        assert_eq!(skips, 4);
        assert_eq!(raidr.refreshes_skipped(), 4);
        // Round 0 is the full sweep; the binned rounds are far shorter.
        assert_eq!(durations[0], T_RFC);
        assert!(durations[1..].iter().all(|&d| (1..T_RFC / 4).contains(&d)));
        // The 128-class round does at least as much work as 64-class.
        assert!(durations[2] >= durations[1]);
    }

    #[test]
    fn retention_bins_are_seeded_and_deterministic() {
        let a = RetentionBins::seeded(7, 1 << 15);
        let b = RetentionBins::seeded(7, 1 << 15);
        assert_eq!(a.frac_64(), b.frac_64());
        assert_eq!(a.frac_le_128(), b.frac_le_128());
        let c = RetentionBins::seeded(8, 1 << 15);
        // Different seeds draw different weak rows (fractions almost
        // surely differ; the draw counts certainly can).
        assert!(
            a.frac_le_128() != c.frac_le_128()
                || a.weak_64() != c.weak_64()
                || a.weak_128() != c.weak_128()
        );
        // Bin membership is consistent with the measured fractions.
        let rows = 1usize << 15;
        let n64 = (0..rows).filter(|&r| a.in_bin_64(r)).count();
        assert_eq!(n64 as f64 / rows as f64, a.frac_64());
        // The filters cover everything drawn (no false negatives), and
        // the fast bins stay small.
        assert!(a.frac_le_128() < 0.05);
    }

    #[test]
    fn mech_state_words_are_finite_and_behavioural() {
        // DARP: only the activity *age* matters, saturated at the idle
        // window — far-past activity fingerprints identically.
        let base = manager(2);
        let mut darp = Darp::new(2, 2, T_REFI);
        darp.on_bank_activity(0, 100);
        assert_eq!(darp.mech_state(&base, 100, 0), 0);
        assert_eq!(darp.mech_state(&base, 130, 0), 30);
        assert_eq!(
            darp.mech_state(&base, 10_000, 0),
            darp.mech_state(&base, 1_000_000, 0)
        );
        // SARP: the word is the rotation position.
        let mut base = manager(1);
        let mut sarp = Sarp::new(4);
        assert_eq!(sarp.mech_state(&base, 0, 0), 0);
        assert_eq!(poll(&mut sarp, &mut base, T_REFI, false), vec![0]);
        sarp.on_refresh_issued(&mut base, 0, T_REFI, T_REFI + 90);
        assert_eq!(sarp.mech_state(&base, T_REFI, 0), 1);
        // RAIDR: rounds reduce modulo the 256 ms cadence (4×stride).
        let mut base = manager(1);
        let mut raidr = Raidr::new(1, 42, 2 * T_REFI, T_REFI, T_RFC, 1 << 12);
        assert_eq!(raidr.mech_state(&base, 0, 0), 0);
        for i in 0..8u64 {
            let now = (i + 1) * T_REFI;
            assert_eq!(poll(&mut raidr, &mut base, now, false), vec![0]);
            match raidr.round_shape(&base, 0) {
                RoundShape::Skip { .. } => raidr.on_refresh_skipped(&mut base, 0, now),
                _ => raidr.on_refresh_issued(&mut base, 0, now, now + 1),
            }
            complete(&mut base, now + T_RFC);
        }
        // stride 2 → period 8: after 8 rounds the word wraps to 0.
        assert_eq!(raidr.mech_state(&base, 9 * T_REFI, 0), 0);
    }

    #[test]
    fn mechanism_enum_builds_from_config() {
        use rop_dram::DramConfig;
        let d = || DramConfig::baseline(2);
        for cfg in [
            MemCtrlConfig::baseline(d()),
            MemCtrlConfig::per_bank(d()),
            MemCtrlConfig::elastic(d()),
            MemCtrlConfig::darp(d()),
            MemCtrlConfig::sarp(d()),
            MemCtrlConfig::raidr(d(), 3),
        ] {
            let m = Mechanism::from_config(&cfg);
            assert_eq!(m.label(), cfg.mechanism.metrics_label());
        }
    }

    #[test]
    fn elastic_postpones_while_busy() {
        let mut base = manager(1);
        let mut m = Elastic::new(1);
        // Busy rank: due passes, debt accrues, no drain starts.
        assert!(poll(&mut m, &mut base, T_REFI, true).is_empty());
        assert_eq!(m.debt(0), 1);
        assert_eq!(m.postponed(), &[(0, 1)]);
        assert!(poll(&mut m, &mut base, 2 * T_REFI + 1, true).is_empty());
        assert_eq!(m.debt(0), 2);
        // Rank goes idle: a drain starts immediately (nothing new
        // accrued, nothing postponed) and issuing a refresh pays one
        // unit of debt.
        let now = 2 * T_REFI + 10;
        assert_eq!(poll(&mut m, &mut base, now, false), vec![0]);
        assert!(m.postponed().is_empty());
        assert_eq!(base.state(0), RefreshState::Draining { due: now });
        m.on_refresh_issued(&mut base, 0, now, now + T_RFC);
        assert_eq!(m.debt(0), 1);
        complete(&mut base, now + T_RFC);
        // Still owing one: the hint asks for the next cycle, and the
        // next idle poll fires again (catch-up).
        assert_eq!(m.next_event(&base, now + T_RFC), Some(now + T_RFC + 1));
        assert_eq!(poll(&mut m, &mut base, now + T_RFC, false), vec![0]);
    }

    #[test]
    fn elastic_forces_at_debt_cap() {
        let mut base = manager(1);
        let mut m = Elastic::with_max_debt(1, 3);
        // Permanently busy: the third owed refresh forces a drain.
        assert!(poll(&mut m, &mut base, T_REFI, true).is_empty());
        assert!(poll(&mut m, &mut base, 2 * T_REFI, true).is_empty());
        assert_eq!(poll(&mut m, &mut base, 3 * T_REFI, true), vec![0]);
        assert_eq!(m.debt(0), 3);
        // A fast-forward past several dues accrues them all at once.
        let mut base = manager(1);
        let mut m = Elastic::new(1);
        assert!(poll(&mut m, &mut base, 5 * T_REFI, true).is_empty());
        assert_eq!(m.postponed(), &[(0, 5)]);
    }

    #[test]
    fn elastic_long_run_rate_is_preserved() {
        let mut base = manager(1);
        let mut m = Elastic::new(1);
        // Alternate busy/idle stretches for 40 tREFI; every owed refresh
        // must eventually be issued.
        for epoch in 0..40u64 {
            let mut now = (epoch + 1) * T_REFI + 17;
            let busy = epoch % 3 != 0;
            // Catch up any remaining debt while idle.
            while !poll(&mut m, &mut base, now, busy).is_empty() {
                m.on_refresh_issued(&mut base, 0, now, now + T_RFC);
                now += T_RFC;
                complete(&mut base, now);
                if busy {
                    break;
                }
            }
        }
        assert!(
            base.issued(0) + u64::from(m.debt(0)) >= 39,
            "issued {} debt {}",
            base.issued(0),
            m.debt(0)
        );
        assert!(m.debt(0) <= ELASTIC_MAX_DEBT);
        // Each issue paid the oldest owed due: the schedule sits exactly
        // `debt` tREFI behind the next due not yet accrued.
        assert_eq!(base.next_due(0), (base.issued(0) + 1) * T_REFI);
    }
}
