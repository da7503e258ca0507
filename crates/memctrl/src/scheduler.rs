//! The FR-FCFS request scheduler: the per-bank transaction queues and
//! the candidate index over them, behind a narrow API.
//!
//! The controller uses it only through these calls:
//!
//! * [`Scheduler::enqueue`] and [`Scheduler::remove`] put a request in
//!   and take one out; [`Scheduler::queue`] reads a bank's queues;
//! * [`Scheduler::set_gate`] sets a refresh slot's admission state
//!   (marking the slot's banks when it moves), and
//!   [`Scheduler::start_drain`] rewrites its drain-set membership;
//! * [`Scheduler::note_issued`] records every command the controller
//!   issues, refreshes included. It is the only place the index epoch
//!   rises, and where an ACT or PRE marks its bank's row as moved;
//! * [`Scheduler::select`] picks the request whose next command issues
//!   at `now`, under the slot gates and the serve-writes state, or
//!   returns the next cycle at which one can.
//!
//! The policy `select` implements is written out plainly in this
//! module's tests, as a from-scratch walk over every admissible queued
//! request in key order, and a property test holds `select`'s choice
//! and hint to the walk's.

use rop_dram::{Command, DramDevice, Geometry};

use crate::address::DecodedAddr;
use crate::config::MemCtrlConfig;
use crate::controller::MemCtrlStats;
use crate::mechanism::RefreshScope;
use crate::request::MemRequest;
use crate::Cycle;

/// A queued request.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Queued {
    pub(crate) req: MemRequest,
    /// True once an ACT has been issued on behalf of this request (used
    /// for the row-buffer-hit statistic).
    pub(crate) acted: bool,
    /// Member of its slot's drain set: queued when the slot's current
    /// (or last) drain started. Only read while the slot drains; every
    /// drain start rewrites the flag for each of the slot's requests.
    pub(crate) in_set: bool,
}

/// The queue a request waits in; its discriminant indexes a bank's
/// queues.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum QueueKind {
    Read,
    Write,
    Prefetch,
}

/// How requests map onto refresh slots: one slot per rank, or one per
/// (rank, bank) pair when the mechanism refreshes per bank. Fixed at
/// construction from [`crate::MechanismKind::scope`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct SlotMap {
    /// Per-bank scope: one slot per (rank, bank), else one per rank.
    per_bank: bool,
    /// Slots per rank: 1, or the bank count under per-bank scope.
    pub(crate) per_rank: usize,
    /// Banks per rank.
    banks: usize,
}

impl SlotMap {
    pub(crate) fn new(scope: RefreshScope, banks_per_rank: usize) -> Self {
        let per_bank = scope == RefreshScope::PerBank;
        SlotMap {
            per_bank,
            per_rank: if per_bank { banks_per_rank } else { 1 },
            banks: banks_per_rank,
        }
    }

    /// The global bank key of a request: `rank * banks + bank`.
    #[inline]
    pub(crate) fn bank_key(self, addr: &DecodedAddr) -> usize {
        addr.rank * self.banks + addr.bank
    }

    /// The refresh slot a global bank key belongs to. Under per-bank
    /// scope the slot index is the bank key itself.
    // rop-lint: hot
    #[inline]
    pub(crate) fn of_bank(self, key: usize) -> usize {
        if self.per_bank {
            key
        } else {
            key / self.banks
        }
    }

    /// The refresh slot a request belongs to.
    // rop-lint: hot
    #[inline]
    pub(crate) fn of(self, addr: &DecodedAddr) -> usize {
        if self.per_bank {
            addr.rank * self.per_rank + addr.bank
        } else {
            addr.rank
        }
    }

    /// The global bank keys a slot covers.
    #[inline]
    pub(crate) fn banks_of(self, slot: usize) -> std::ops::Range<usize> {
        if self.per_bank {
            slot..slot + 1
        } else {
            slot * self.banks..(slot + 1) * self.banks
        }
    }

    // The per-rank case skips the division: these run per queued
    // request per tick.
    #[inline]
    pub(crate) fn rank(self, slot: usize) -> usize {
        if self.per_bank {
            slot / self.per_rank
        } else {
            slot
        }
    }

    /// The single bank a per-bank slot refreshes (`None`: the whole rank).
    #[inline]
    pub(crate) fn bank(self, slot: usize) -> Option<usize> {
        self.per_bank.then(|| slot % self.per_rank)
    }

    /// The slots covering `rank`.
    pub(crate) fn of_rank(self, rank: usize) -> std::ops::Range<usize> {
        rank * self.per_rank..(rank + 1) * self.per_rank
    }
}

/// A refresh slot's admission state.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct SlotGate {
    /// The slot drains: its drain-set requests rank in tier 0.
    pub(crate) draining: bool,
    /// Requests outside the drain set may not issue (scope frozen, or
    /// quiescing for its refresh).
    pub(crate) blocked: bool,
    /// Drain-set requests and prefetches may not issue (scope frozen).
    pub(crate) blocked_set: bool,
    /// SARP: the subarray the slot's freeze or drain locks. Requests to
    /// other subarrays are exempt from both gates.
    pub(crate) sa_scope: Option<usize>,
}

/// The request [`Scheduler::select`] chose: its next command is ready.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Selection {
    /// The request's next command: its column command when its row is
    /// open, PRE on a row conflict, ACT on a closed bank.
    pub(crate) cmd: Command,
    /// Queue holding the request.
    pub(crate) kind: QueueKind,
    /// Global bank key of the request.
    pub(crate) bank: usize,
    /// Index within the bank's queue of `kind`.
    pub(crate) idx: usize,
}

/// A scheduling candidate: one queued request and its place in the
/// FR-FCFS order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Pick {
    /// `tier << 62 | id`, the FR-FCFS order. Tier 0 is draining-slot
    /// demand, 1 regular traffic, 2 ROP prefetches. Ids are allocated
    /// in nondecreasing arrival order, so within a tier the id order is
    /// the (arrival, id) order.
    key: u64,
    /// Queue holding the request.
    kind: QueueKind,
    /// Global bank key of the request.
    bank: u32,
    /// Index within the bank's queue of `kind`.
    idx: u32,
    /// The request's row is open in its bank.
    hit: bool,
}

impl Pick {
    fn new(tier: u64, kind: QueueKind, bank: usize, idx: usize, q: &Queued, hit: bool) -> Self {
        debug_assert!(q.req.id < 1 << 62, "request id overflows the pick key");
        Pick {
            key: tier << 62 | q.req.id,
            kind,
            bank: bank as u32,
            idx: idx as u32,
            hit,
        }
    }
}

/// The earlier of two optional picks in FR-FCFS order.
#[inline]
fn earlier(a: Option<Pick>, b: Option<Pick>) -> Option<Pick> {
    match (a, b) {
        (Some(x), Some(y)) => Some(if y.key < x.key { y } else { x }),
        (x, None) => x,
        (None, y) => y,
    }
}

/// What a bank lists in the candidate index while the controller does
/// or does not serve writes (index `serve_writes as usize`): its head,
/// the oldest admissible request, and the oldest row hit of its read
/// and write groups. Writes outside a drain set compete only while the
/// controller serves writes, which can flip on any tick without the
/// bank changing, so the picks of both states are kept.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct BankPicks {
    /// The head, per serve-writes state.
    head: [Option<Pick>; 2],
    /// The oldest read or prefetch row hit, listed in both states.
    read_hit: Option<Pick>,
    /// The oldest write row hit, per serve-writes state: drain-set
    /// writes only, or all writes.
    write_hit: [Option<Pick>; 2],
}

/// One bank's share of the transaction queues and its FR-FCFS picks.
/// Each queue is in id order, which is arrival order.
#[derive(Debug, Default)]
struct BankQueues {
    /// The read, write and prefetch queues, by `QueueKind as usize`.
    queues: [Vec<Queued>; 3],
    /// The picks the candidate index lists for this bank.
    picks: BankPicks,
}

impl BankQueues {
    // rop-lint: hot
    #[inline]
    fn queue(&self, kind: QueueKind) -> &Vec<Queued> {
        &self.queues[kind as usize]
    }

    // rop-lint: hot
    #[inline]
    fn queue_mut(&mut self, kind: QueueKind) -> &mut Vec<Queued> {
        &mut self.queues[kind as usize]
    }

    /// The bank's picks: one pass over its requests under the slot's
    /// `gate`, with `open_row` open.
    // rop-lint: hot
    fn scan(
        &self,
        bank: usize,
        gate: SlotGate,
        open_row: Option<usize>,
        geom: &Geometry,
    ) -> BankPicks {
        // A gate is waived for requests outside the slot's frozen
        // subarray (SARP); `None` scope waives nothing.
        let exempt = |row: usize| {
            gate.sa_scope
                .is_some_and(|sa| geom.subarray_of_row(row) != sa)
        };
        // Per class, the oldest pick and the oldest row hit: reads and
        // prefetches, drain-set writes (tier 0), other writes (tier 1).
        let offer = |[best, hit]: &mut [Option<Pick>; 2], p: Pick| {
            *best = earlier(*best, Some(p));
            if p.hit {
                *hit = earlier(*hit, Some(p));
            }
        };
        // The tier of an admitted demand request: 0 in a draining slot's
        // drain set, 1 otherwise.
        let demand_tier = |q: &Queued| {
            let in_set = gate.draining && q.in_set;
            let gated = if in_set {
                gate.blocked_set
            } else {
                gate.blocked
            };
            (!gated || exempt(q.req.addr.row)).then_some(u64::from(!in_set))
        };
        let hit = |q: &Queued| open_row == Some(q.req.addr.row);
        let (mut read, mut drain_write, mut write) = ([None; 2], [None; 2], [None; 2]);
        let [reads, writes, prefetches] = &self.queues;
        for (i, q) in prefetches.iter().enumerate() {
            if !gate.blocked_set || exempt(q.req.addr.row) {
                offer(
                    &mut read,
                    Pick::new(2, QueueKind::Prefetch, bank, i, q, hit(q)),
                );
            }
        }
        for (i, q) in reads.iter().enumerate() {
            if let Some(tier) = demand_tier(q) {
                offer(
                    &mut read,
                    Pick::new(tier, QueueKind::Read, bank, i, q, hit(q)),
                );
            }
        }
        for (i, q) in writes.iter().enumerate() {
            if let Some(tier) = demand_tier(q) {
                let class = if tier == 0 {
                    &mut drain_write
                } else {
                    &mut write
                };
                offer(class, Pick::new(tier, QueueKind::Write, bank, i, q, hit(q)));
            }
        }
        let drain_head = earlier(read[0], drain_write[0]);
        BankPicks {
            head: [drain_head, earlier(drain_head, write[0])],
            read_hit: read[1],
            write_hit: [drain_write[1], earlier(drain_write[1], write[1])],
        }
    }
}

/// A listed candidate: a pick and its not-before bound.
#[derive(Debug, Clone, Copy)]
struct Cand {
    pick: Pick,
    /// The device's last earliest-issue answer for the pick's next
    /// command (0 until asked). Never above the true answer: see
    /// [`CandIndex`].
    bound: Cycle,
    /// [`CandIndex::epoch`] when `bound` was asked. Until the next
    /// command issues, an asked bound is exact.
    epoch: u64,
}

/// One candidate list of the index (see [`CandIndex::list`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ListKind {
    /// Each bank's head: its oldest admissible request.
    Heads,
    /// Each (bank, read/write) group's oldest row hit.
    Hits,
}

/// The FR-FCFS candidate index, kept across scheduler calls.
///
/// For each serve-writes state it holds two lists sorted by key: the
/// bank heads and the group-oldest row hits of every bank, so at most
/// one entry per bank in a head list and two in a hit list. Only banks
/// marked stale are re-entered, slot by slot (see [`Self::reenter`]):
/// a pick that stays keeps its entry, a changed one slides to its new
/// key, and only a slot that appears or disappears inserts or removes.
/// A bank is marked when its queues change, its slot's gate moves, or
/// an ACT or PRE issues there (its open row changes, which also sets
/// [`Self::row_moved`]).
///
/// A bound is an earliest-issue answer for the candidate's next
/// command. The device's timing registers only rise, so a bound never
/// exceeds the true answer for the same command, and a candidate whose
/// bound lies after `now` cannot issue. A re-entered pick for the same
/// request keeps its bound unless its bank's row moved: only a row move
/// changes which command a request needs next. Until the next command
/// ([`Self::epoch`] unchanged) the true answer is `max(now, bound)`.
#[derive(Debug, Default)]
struct CandIndex {
    /// Heads, indexed by `serve_writes as usize`.
    heads: [Vec<Cand>; 2],
    /// Row hits, indexed by `serve_writes as usize`.
    hits: [Vec<Cand>; 2],
    /// Banks to re-enter at the next call, each listed once.
    stale: Vec<u32>,
    /// Per bank: listed in `stale`.
    is_stale: Vec<bool>,
    /// Per bank: ACT or PRE issued there since its last re-entry.
    row_moved: Vec<bool>,
    /// Commands the controller has issued.
    epoch: u64,
}

impl CandIndex {
    /// An empty index for `banks` banks, pre-sized to its hard bounds.
    fn with_banks(banks: usize) -> Self {
        let list = |per_bank: usize| Vec::with_capacity(per_bank * banks);
        CandIndex {
            heads: [list(1), list(1)],
            hits: [list(2), list(2)],
            stale: Vec::with_capacity(banks),
            is_stale: vec![false; banks],
            row_moved: vec![false; banks],
            epoch: 0,
        }
    }

    /// Marks `bank`'s picks stale.
    // rop-lint: hot
    #[inline]
    fn mark(&mut self, bank: usize) {
        if !self.is_stale[bank] {
            self.is_stale[bank] = true;
            self.stale.push(bank as u32);
        }
    }

    // rop-lint: hot
    #[inline]
    fn list(&self, kind: ListKind, sw: usize) -> &Vec<Cand> {
        match kind {
            ListKind::Heads => &self.heads[sw],
            ListKind::Hits => &self.hits[sw],
        }
    }

    // rop-lint: hot
    #[inline]
    fn list_mut(&mut self, kind: ListKind, sw: usize) -> &mut Vec<Cand> {
        match kind {
            ListKind::Heads => &mut self.heads[sw],
            ListKind::Hits => &mut self.hits[sw],
        }
    }

    /// Re-enters stale `bank`, whose listed picks change from `old` to
    /// `new`, and clears its marks. Returns the entries inserted,
    /// removed or slid.
    // rop-lint: hot
    fn reenter(&mut self, bank: usize, old: &BankPicks, new: &BankPicks) -> u64 {
        self.is_stale[bank] = false;
        let moved = std::mem::take(&mut self.row_moved[bank]);
        let mut moves = 0;
        for sw in 0..2 {
            moves += reenter_one(&mut self.heads[sw], old.head[sw], new.head[sw], moved);
            moves += reenter_one(&mut self.hits[sw], old.read_hit, new.read_hit, moved);
            moves += reenter_one(
                &mut self.hits[sw],
                old.write_hit[sw],
                new.write_hit[sw],
                moved,
            );
        }
        moves
    }
}

/// Moves one listed slot of a bank from pick `old` to pick `new` in
/// the key-sorted `list`; `moved`: the bank's row moved since the slot
/// was entered. A pick for the same request (same key) keeps its entry,
/// and its bound unless `moved`; a new key slides the entry there, with
/// an unasked bound. Returns the entries inserted, removed or slid.
// rop-lint: hot
#[inline]
fn reenter_one(list: &mut Vec<Cand>, old: Option<Pick>, new: Option<Pick>, moved: bool) -> u64 {
    if old == new && !moved {
        return 0;
    }
    let fresh = |pick| Cand {
        pick,
        bound: 0,
        epoch: 0,
    };
    let at = |list: &[Cand], key: u64| list.binary_search_by_key(&key, |c| c.pick.key);
    // Keys are unique, and the list holds every pick the bank listed.
    let listed = |list: &[Cand], key| at(list, key).expect("candidate index out of step");
    match (old, new) {
        (Some(o), Some(n)) if o.key == n.key => {
            // The hit flag follows the open row.
            debug_assert!(moved || o.hit == n.hit, "{o:?} -> {n:?} with no row move");
            let i = listed(list, o.key);
            list[i] = if moved {
                fresh(n)
            } else {
                Cand { pick: n, ..list[i] }
            };
            0
        }
        (Some(o), Some(n)) => {
            // Shift the entries between the old and the new place by
            // one, toward the old place.
            let i = listed(list, o.key);
            let j = if n.key > o.key {
                let j = i + at(&list[i + 1..], n.key).unwrap_err();
                list.copy_within(i + 1..=j, i);
                j
            } else {
                let j = at(&list[..i], n.key).unwrap_err();
                list.copy_within(j..i, j + 1);
                j
            };
            list[j] = fresh(n);
            1
        }
        (Some(o), None) => {
            list.remove(listed(list, o.key));
            1
        }
        (None, Some(n)) => {
            list.insert(at(list, n.key).unwrap_err(), fresh(n));
            1
        }
        (None, None) => 0,
    }
}

/// The running minima of one scheduler call's passes.
struct PassMin {
    now: Cycle,
    /// [`CandIndex::epoch`] during the passes.
    epoch: u64,
    /// The minimum over the answers the call got and the bounds of the
    /// current epoch it passed over.
    earliest: Cycle,
    /// The minimum over the older bounds it passed over: only floors.
    stale: Cycle,
}

impl PassMin {
    /// Whether a pass skips `c`, whose bound lies after `now`, without
    /// asking the device; its bound then enters the minimum of its kind.
    // rop-lint: hot
    #[inline(always)]
    fn passed_over(&mut self, c: &Cand) -> bool {
        if c.bound <= self.now {
            return false;
        }
        if c.epoch == self.epoch {
            self.earliest = self.earliest.min(c.bound);
        } else {
            self.stale = self.stale.min(c.bound);
        }
        true
    }
}

/// The transaction queues of one channel, split by bank, and the
/// FR-FCFS candidate index over them.
#[derive(Debug)]
pub(crate) struct Scheduler {
    /// Per global bank key `rank * banks_per_rank + bank`: the bank's
    /// queues and its listed picks.
    banks: Vec<BankQueues>,
    /// The bank picks in FR-FCFS order, with their not-before bounds.
    index: CandIndex,
    /// Per-slot admission state the bank picks were computed under.
    gates: Vec<SlotGate>,
    /// Requests queued over all banks, by `QueueKind as usize`.
    queued: [usize; 3],
    slot_map: SlotMap,
    geom: Geometry,
    /// A first request in FR-FCFS order older than this goes first.
    age_cap: Cycle,
}

impl Scheduler {
    /// Empty queues for `cfg`'s channel, with refresh slots `slot_map`.
    pub(crate) fn new(cfg: &MemCtrlConfig, slot_map: SlotMap) -> Self {
        let geom = cfg.dram.geometry;
        let banks = geom.ranks * geom.banks_per_rank;
        Scheduler {
            // Pre-sized to the hard bounds (one bank can hold a whole
            // queue, and a prefetch burst is at most one buffer's worth)
            // so no steady-state push grows a bank's queue.
            banks: (0..banks)
                .map(|_| BankQueues {
                    queues: [
                        cfg.read_queue_capacity,
                        cfg.write_queue_capacity,
                        cfg.rop.as_ref().map_or(0, |r| r.buffer_capacity),
                    ]
                    .map(Vec::with_capacity),
                    picks: BankPicks::default(),
                })
                .collect(),
            index: CandIndex::with_banks(banks),
            gates: vec![SlotGate::default(); geom.ranks * slot_map.per_rank],
            queued: [0; 3],
            slot_map,
            geom,
            age_cap: cfg.age_cap,
        }
    }

    /// Bank `bank`'s queue of `kind`, in id order.
    // rop-lint: hot
    #[inline]
    pub(crate) fn queue(&self, bank: usize, kind: QueueKind) -> &[Queued] {
        self.banks[bank].queue(kind)
    }

    /// Requests queued in `kind` queues, over all banks.
    #[inline]
    pub(crate) fn len(&self, kind: QueueKind) -> usize {
        self.queued[kind as usize]
    }

    /// Queues request `id` of `core` for `line_addr`, arriving at `now`,
    /// in its bank's `kind` queue. Ids follow arrival order, so every
    /// queue, appended to in id order, stays in (arrival, id) order: the
    /// picks rely on it.
    #[inline]
    pub(crate) fn enqueue(
        &mut self,
        kind: QueueKind,
        id: u64,
        line_addr: u64,
        addr: DecodedAddr,
        core: usize,
        now: Cycle,
    ) {
        let bank = self.slot_map.bank_key(&addr);
        let queue = self.banks[bank].queue_mut(kind);
        debug_assert!(queue.last().is_none_or(|l| l.req.id < id));
        let req = MemRequest {
            id,
            line_addr,
            addr,
            is_write: kind == QueueKind::Write,
            arrival: now,
            core,
            is_prefetch: kind == QueueKind::Prefetch,
        };
        queue.push(Queued {
            req,
            acted: false,
            in_set: false,
        });
        self.queued[kind as usize] += 1;
        self.index.mark(bank);
    }

    /// Takes request `idx` out of bank `bank`'s `kind` queue.
    // rop-lint: hot
    #[inline]
    pub(crate) fn remove(&mut self, kind: QueueKind, bank: usize, idx: usize) -> Queued {
        let q = self.banks[bank].queue_mut(kind).remove(idx);
        self.queued[kind as usize] -= 1;
        self.index.mark(bank);
        q
    }

    /// Records that the ACT `sel` chose issued on its request's behalf.
    #[inline]
    pub(crate) fn set_acted(&mut self, sel: &Selection) {
        self.banks[sel.bank].queue_mut(sel.kind)[sel.idx].acted = true;
    }

    /// `slot`'s admission state, as last set.
    #[cfg(debug_assertions)]
    pub(crate) fn gate(&self, slot: usize) -> SlotGate {
        self.gates[slot]
    }

    /// Sets `slot`'s admission state. A gate that moves marks the
    /// slot's banks.
    // rop-lint: hot
    #[inline]
    pub(crate) fn set_gate(&mut self, slot: usize, gate: SlotGate) {
        if gate != self.gates[slot] {
            self.gates[slot] = gate;
            for bank in self.slot_map.banks_of(slot) {
                self.index.mark(bank);
            }
        }
    }

    /// Snapshots `slot`'s drain set: every read and write queued for
    /// its scope, or, when `subarray` is set (SARP), those aimed at that
    /// subarray. Every request of the slot has its membership flag
    /// rewritten. Returns the members.
    pub(crate) fn start_drain(&mut self, slot: usize, subarray: Option<usize>) -> usize {
        let geom = self.geom;
        let mut members = 0;
        for bank in self.slot_map.banks_of(slot) {
            let [reads, writes, _] = &mut self.banks[bank].queues;
            self.index.mark(bank);
            for q in reads.iter_mut().chain(writes) {
                q.in_set = subarray.is_none_or(|sa| geom.subarray_of_row(q.req.addr.row) == sa);
                members += usize::from(q.in_set);
            }
        }
        members
    }

    /// Drops every prefetch queued for `slot`'s scope and returns how
    /// many.
    pub(crate) fn drop_prefetches(&mut self, slot: usize) -> usize {
        let mut dropped = 0;
        for bank in self.slot_map.banks_of(slot) {
            let prefetches = self.banks[bank].queue_mut(QueueKind::Prefetch);
            if !prefetches.is_empty() {
                dropped += prefetches.len();
                prefetches.clear();
                self.index.mark(bank);
            }
        }
        self.queued[QueueKind::Prefetch as usize] -= dropped;
        dropped
    }

    /// Records that `cmd` issued (every command the controller issues,
    /// refreshes included, passes through here). Each starts a new
    /// index epoch; ACT and PRE change their bank's open row, so they
    /// also mark the bank stale with its row moved.
    // rop-lint: hot
    #[inline]
    pub(crate) fn note_issued(&mut self, cmd: &Command) {
        self.index.epoch += 1;
        if let Command::Activate { rank, bank, .. } | Command::Precharge { rank, bank } = *cmd {
            let key = rank * self.geom.banks_per_rank + bank;
            self.index.mark(key);
            self.index.row_moved[key] = true;
        }
    }

    /// One FR-FCFS decision at `now`: `Ok` with the request whose next
    /// command is ready, or `Err` with the earliest cycle at which one
    /// can be (`Cycle::MAX`: none).
    ///
    /// Tier 0: draining-slot demand (must issue before its REF); tier 1:
    /// regular traffic; tier 2: ROP prefetches — strictly
    /// opportunistic, they only get bus slots no demand request can use
    /// this cycle (§IV-D's "minimise interference with demand
    /// requests"). Within a tier, oldest first. Writes outside a drain
    /// set compete only while `serve_writes`.
    ///
    /// Every row hit of one (bank, read/write) group needs the same
    /// column command timing, so each group's oldest hit stands for all
    /// of them. A candidate whose bound lies after `now` cannot issue,
    /// so it is passed over without asking the device. A row hit's
    /// bound is first raised to the channel's column floor, which no
    /// column command can beat.
    // rop-lint: hot
    pub(crate) fn select(
        &mut self,
        device: &DramDevice,
        serve_writes: bool,
        now: Cycle,
        stats: &mut MemCtrlStats,
    ) -> Result<Selection, Cycle> {
        self.reenter_marked(device, stats);
        let sw = usize::from(serve_writes);
        let Some(oldest) = self.index.heads[sw].first() else {
            return Err(Cycle::MAX);
        };
        let over_age = self.queued(oldest.pick).req.age(now) > self.age_cap;
        let mut m = PassMin {
            now,
            epoch: self.index.epoch,
            earliest: Cycle::MAX,
            stale: Cycle::MAX,
        };

        // Pass 0: starvation guard — serve the oldest over-age request.
        if over_age {
            if m.passed_over(&self.index.heads[sw][0]) {
                stats.bound_skips += 1;
            } else {
                match self.try_listed(device, ListKind::Heads, sw, 0, now, stats) {
                    Ok(sel) => return Ok(sel),
                    Err(e) => m.earliest = m.earliest.min(e),
                }
            }
        }

        // Pass 1: ready row-hit column commands, oldest group first.
        let floor = [device.column_floor(false), device.column_floor(true)];
        for i in 0..self.index.hits[sw].len() {
            let c = &mut self.index.hits[sw][i];
            let write = usize::from(c.pick.kind == QueueKind::Write);
            c.bound = c.bound.max(floor[write]);
            if m.passed_over(c) {
                stats.bound_skips += 1;
                continue;
            }
            match self.try_listed(device, ListKind::Hits, sw, i, now, stats) {
                Ok(sel) => return Ok(sel),
                Err(e) => m.earliest = m.earliest.min(e),
            }
        }

        // Pass 2: each bank's oldest request drives PRE/ACT. A head that
        // is a row hit is its group's oldest hit, already tried above.
        for i in 0..self.index.heads[sw].len() {
            let c = &self.index.heads[sw][i];
            if c.pick.hit {
                continue;
            }
            if m.passed_over(c) {
                stats.bound_skips += 1;
                continue;
            }
            match self.try_listed(device, ListKind::Heads, sw, i, now, stats) {
                Ok(sel) => return Ok(sel),
                Err(e) => m.earliest = m.earliest.min(e),
            }
        }

        // An older bound at or above the minimum cannot lower it.
        if m.stale < m.earliest {
            return Err(self.exact_hint(device, sw, now, m.earliest, stats));
        }
        Err(m.earliest)
    }

    /// Brings the candidate index up to date: re-enters every marked
    /// bank under its slot's gate and its open row.
    // rop-lint: hot
    fn reenter_marked(&mut self, device: &DramDevice, stats: &mut MemCtrlStats) {
        let geom = self.geom;
        let mut stale = std::mem::take(&mut self.index.stale);
        for &b in &stale {
            let bank = b as usize;
            let bq = &mut self.banks[bank];
            let open = device.open_row(bank / geom.banks_per_rank, bank % geom.banks_per_rank);
            let picks = bq.scan(bank, self.gates[self.slot_map.of_bank(bank)], open, &geom);
            stats.index_moves += self.index.reenter(bank, &bq.picks, &picks);
            bq.picks = picks;
            let queued: usize = bq.queues.iter().map(Vec::len).sum();
            stats.schedule_entries_scanned += queued as u64;
        }
        stale.clear();
        self.index.stale = stale;
    }

    /// Asks about the candidate at `i` in list `kind`: its selection
    /// when ready, else the device's answer, left as its new bound.
    // rop-lint: hot
    fn try_listed(
        &mut self,
        device: &DramDevice,
        kind: ListKind,
        sw: usize,
        i: usize,
        now: Cycle,
        stats: &mut MemCtrlStats,
    ) -> Result<Selection, Cycle> {
        let pick = self.index.list(kind, sw)[i].pick;
        let (cmd, e) = self.ask(device, pick, now, stats);
        if e > now {
            self.set_bound(kind, sw, i, e);
            return Err(e);
        }
        Ok(Selection {
            cmd,
            kind: pick.kind,
            bank: pick.bank as usize,
            idx: pick.idx as usize,
        })
    }

    /// The exact hint of a call that selected nothing. `earliest` is
    /// the minimum over the answers this call got and the bounds of the
    /// current epoch. Every other candidate holds a bound after `now`
    /// that may have risen since: it is asked again only while its
    /// bound is below the running minimum (its true answer is at least
    /// its bound, so the rest cannot lower the minimum).
    // rop-lint: hot
    fn exact_hint(
        &mut self,
        device: &DramDevice,
        sw: usize,
        now: Cycle,
        mut earliest: Cycle,
        stats: &mut MemCtrlStats,
    ) -> Cycle {
        for kind in [ListKind::Hits, ListKind::Heads] {
            for i in 0..self.index.list(kind, sw).len() {
                let c = self.index.list(kind, sw)[i];
                let tried_as_hit = kind == ListKind::Heads && c.pick.hit;
                if tried_as_hit || c.epoch == self.index.epoch || c.bound >= earliest {
                    continue;
                }
                let (_, e) = self.ask(device, c.pick, now, stats);
                self.set_bound(kind, sw, i, e);
                earliest = earliest.min(e);
            }
        }
        earliest
    }

    /// Stores `bound`, asked in the current epoch, for the candidate at
    /// `i` in list `kind`.
    // rop-lint: hot
    #[inline]
    fn set_bound(&mut self, kind: ListKind, sw: usize, i: usize, bound: Cycle) {
        let epoch = self.index.epoch;
        let c = &mut self.index.list_mut(kind, sw)[i];
        c.bound = bound;
        c.epoch = epoch;
    }

    // rop-lint: hot
    fn queued(&self, p: Pick) -> &Queued {
        &self.banks[p.bank as usize].queue(p.kind)[p.idx as usize]
    }

    /// Asks the device when pick `p`'s next command can issue
    /// (`Cycle::MAX`: not in the current state). Counts one issue
    /// attempt.
    // rop-lint: hot
    fn ask(
        &self,
        device: &DramDevice,
        p: Pick,
        now: Cycle,
        stats: &mut MemCtrlStats,
    ) -> (Command, Cycle) {
        stats.issue_attempts += 1;
        let cmd = next_command(device, &self.queued(p).req);
        let e = match device.earliest_issue(&cmd, now) {
            Ok(e) => e,
            Err(err) => {
                // A column command finds its row open, and PRE its bank.
                debug_assert!(
                    matches!(cmd, Command::Activate { .. }),
                    "{cmd:?} refused: {err:?}"
                );
                Cycle::MAX
            }
        };
        (cmd, e)
    }

    /// The debug self-check run after every scheduler call.
    ///
    /// Every bank not marked stale holds the picks a from-scratch scan
    /// gives under its slot's gate and its open row. Each list of the
    /// index holds exactly the listed picks of every bank, in strict key
    /// order (each entry is a pick of its bank, and the counts agree).
    /// Every bound of such a bank is at most the device's answer for
    /// its candidate's next command, and equal to it while the bound's
    /// epoch is current.
    #[cfg(debug_assertions)]
    pub(crate) fn check_index(&self, device: &DramDevice, now: Cycle) {
        let geom = self.geom;
        for (bank, bq) in self.banks.iter().enumerate() {
            if self.index.is_stale[bank] {
                continue;
            }
            let open = device.open_row(bank / geom.banks_per_rank, bank % geom.banks_per_rank);
            let gate = self.gates[self.slot_map.of_bank(bank)];
            assert_eq!(
                bq.picks,
                bq.scan(bank, gate, open, &geom),
                "bank {bank} holds stale picks at cycle {now}"
            );
        }
        // What a bank lists in list `kind` of serve-writes state `sw`.
        let listed = |bq: &BankQueues, kind: ListKind, sw: usize| {
            let p = &bq.picks;
            match kind {
                ListKind::Heads => [p.head[sw], None],
                ListKind::Hits => [p.read_hit, p.write_hit[sw]],
            }
        };
        for sw in 0..2 {
            for kind in [ListKind::Heads, ListKind::Hits] {
                let list = self.index.list(kind, sw);
                let want: usize = self
                    .banks
                    .iter()
                    .map(|bq| listed(bq, kind, sw).iter().flatten().count())
                    .sum();
                assert_eq!(list.len(), want, "{kind:?}[{sw}] at cycle {now}");
                assert!(
                    list.windows(2).all(|w| w[0].pick.key < w[1].pick.key),
                    "{kind:?}[{sw}] out of key order at cycle {now}"
                );
                for c in list {
                    let bank = c.pick.bank as usize;
                    assert!(
                        listed(&self.banks[bank], kind, sw).contains(&Some(c.pick)),
                        "{kind:?}[{sw}] lists {c:?}, not a pick of bank {bank}"
                    );
                    if self.index.is_stale[bank] {
                        continue;
                    }
                    let cmd = next_command(device, &self.queued(c.pick).req);
                    let e = device.earliest_issue(&cmd, now).unwrap_or(Cycle::MAX);
                    assert!(
                        c.bound <= e,
                        "{c:?}: bound above the device's answer {e} for {cmd:?} at cycle {now}"
                    );
                    if c.epoch == self.index.epoch && c.bound > now {
                        assert_eq!(c.bound, e, "{c:?}: current-epoch bound inexact for {cmd:?}");
                    }
                }
            }
        }
    }

    /// The debug self-check run on a tick the controller skips: no bank
    /// is marked, and [`Self::check_index`] holds at `now`.
    #[cfg(debug_assertions)]
    pub(crate) fn check_idle(&self, device: &DramDevice, now: Cycle) {
        assert!(
            self.index.stale.is_empty(),
            "banks {:?} marked since the last full tick, skipped at cycle {now}",
            self.index.stale
        );
        self.check_index(device, now);
    }
}

/// The command `req` needs next: its column command when its row is
/// open, PRE on a row conflict, ACT on a closed bank.
// rop-lint: hot
fn next_command(device: &DramDevice, req: &MemRequest) -> Command {
    let (rank, bank, row, column) = (req.addr.rank, req.addr.bank, req.addr.row, req.addr.col);
    match device.open_row(rank, bank) {
        Some(open) if open == row && req.is_write => Command::Write { rank, bank, column },
        Some(open) if open == row => Command::Read { rank, bank, column },
        Some(_) => Command::Precharge { rank, bank },
        None => Command::Activate { rank, bank, row },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rop_dram::DramConfig;

    impl Scheduler {
        /// The first head listed while not serving writes: its request
        /// id, row-hit flag and bound.
        pub(crate) fn first_head(&self) -> (u64, bool, Cycle) {
            let h = self.index.heads[0][0];
            (self.queued(h.pick).req.id, h.pick.hit, h.bound)
        }
    }

    /// FR-FCFS written plainly: the choice and hint [`Scheduler::select`]
    /// must give at `now`, from a walk over every queued request.
    ///
    /// The admissible requests are taken in key order (tier, then id).
    /// 1. If the first is older than the age cap and its next command
    ///    is ready, it goes.
    /// 2. Otherwise the first row hit whose column command is ready.
    /// 3. Otherwise the first bank-oldest request that is not a row hit
    ///    and whose PRE or ACT is ready: only a bank's oldest request
    ///    may close or open its row.
    /// 4. Otherwise the hint is the earliest answer over those
    ///    candidates (`Cycle::MAX` when there are none).
    fn spec_select(
        s: &Scheduler,
        device: &DramDevice,
        serve_writes: bool,
        now: Cycle,
    ) -> Result<Selection, Cycle> {
        let mut admitted = Vec::new();
        for (bank, bq) in s.banks.iter().enumerate() {
            let gate = s.gates[s.slot_map.of_bank(bank)];
            for kind in [QueueKind::Read, QueueKind::Write, QueueKind::Prefetch] {
                for (idx, q) in bq.queue(kind).iter().enumerate() {
                    if let Some(tier) = spec_tier(kind, q, gate, serve_writes, &s.geom) {
                        let cmd = spec_command(device, &q.req);
                        let sel = Selection {
                            cmd,
                            kind,
                            bank,
                            idx,
                        };
                        admitted.push((tier << 62 | q.req.id, q.req.age(now), sel));
                    }
                }
            }
        }
        admitted.sort_by_key(|&(key, ..)| key);
        let answer = |sel: &Selection| device.earliest_issue(&sel.cmd, now).unwrap_or(Cycle::MAX);
        let is_hit =
            |sel: &Selection| matches!(sel.cmd, Command::Read { .. } | Command::Write { .. });
        let hits: Vec<Selection> = admitted
            .iter()
            .map(|&(.., sel)| sel)
            .filter(is_hit)
            .collect();
        let openers: Vec<Selection> = admitted
            .iter()
            .enumerate()
            .filter(|&(i, (.., sel))| admitted[..i].iter().all(|(.., o)| o.bank != sel.bank))
            .map(|(_, &(.., sel))| sel)
            .filter(|sel| !is_hit(sel))
            .collect();
        if let Some(&(_, age, first)) = admitted.first() {
            if age > s.age_cap && answer(&first) <= now {
                return Ok(first);
            }
        }
        let ready = hits.iter().chain(&openers).find(|sel| answer(sel) <= now);
        match ready {
            Some(&sel) => Ok(sel),
            None => Err(hits
                .iter()
                .chain(&openers)
                .map(answer)
                .min()
                .unwrap_or(Cycle::MAX)),
        }
    }

    /// The tier of queued request `q` when its slot's `gate` and the
    /// serve-writes state admit it. A draining slot's drain-set demand
    /// is tier 0, other demand tier 1 and prefetches tier 2. A frozen
    /// scope blocks everything; a quiescing one blocks what is outside
    /// the drain set; SARP waives both for rows outside the locked
    /// subarray. Writes outside a drain set wait while writes are not
    /// served.
    fn spec_tier(
        kind: QueueKind,
        q: &Queued,
        gate: SlotGate,
        serve_writes: bool,
        geom: &Geometry,
    ) -> Option<u64> {
        let in_set = kind != QueueKind::Prefetch && gate.draining && q.in_set;
        let (tier, blocked) = match kind {
            QueueKind::Prefetch => (2, gate.blocked_set),
            _ if in_set => (0, gate.blocked_set),
            _ => (1, gate.blocked),
        };
        if kind == QueueKind::Write && !in_set && !serve_writes {
            return None;
        }
        let exempt = gate
            .sa_scope
            .is_some_and(|sa| geom.subarray_of_row(q.req.addr.row) != sa);
        (!blocked || exempt).then_some(tier)
    }

    /// The command `req` needs next on `device`.
    fn spec_command(device: &DramDevice, req: &MemRequest) -> Command {
        let (rank, bank, column) = (req.addr.rank, req.addr.bank, req.addr.col);
        match device.open_row(rank, bank) {
            None => Command::Activate {
                rank,
                bank,
                row: req.addr.row,
            },
            Some(row) if row != req.addr.row => Command::Precharge { rank, bank },
            Some(_) if req.is_write => Command::Write { rank, bank, column },
            Some(_) => Command::Read { rank, bank, column },
        }
    }

    #[derive(Debug, Clone, Copy)]
    enum Op {
        /// A request into queue `kind` % 3 of bank `bank`, to the
        /// `row`-th of a few rows spread over three subarrays.
        Enqueue {
            kind: usize,
            bank: usize,
            row: usize,
            col: usize,
        },
        /// Time moves on.
        Advance(Cycle),
        /// Issue what `select` chose, as the controller does.
        Issue,
        /// A new admission state for slot `slot`.
        Gate {
            slot: usize,
            draining: bool,
            blocked: bool,
            blocked_set: bool,
            sa_scope: Option<usize>,
        },
        /// Snapshot slot `slot`'s drain set.
        Drain {
            slot: usize,
            subarray: Option<usize>,
        },
        /// Flip the serve-writes state.
        FlipServeWrites,
        /// A command on bank `bank` when legal at `now`, issued outside
        /// `select` as refresh preparation issues its PREs: ACT to the
        /// `row`-th row, READ or WRITE to column `col`, or PRE (`which`).
        Command {
            bank: usize,
            which: usize,
            row: usize,
            col: usize,
        },
        /// A refresh of bank `bank`'s rank, the bank alone, or one of
        /// its subarrays (`scope` % 3), when legal.
        Refresh { bank: usize, scope: usize },
        /// Take out the `pick`-th read of bank `bank`, as an SRAM serve
        /// does.
        RemoveRead { bank: usize, pick: usize },
        /// Drop slot `slot`'s prefetches.
        DropPrefetches(usize),
    }

    fn op() -> impl Strategy<Value = Op> {
        let enqueue =
            (0usize..3, 0usize..16, 0usize..6, 0usize..4).prop_map(|(kind, bank, row, col)| {
                Op::Enqueue {
                    kind,
                    bank,
                    row,
                    col,
                }
            });
        let gate = (
            0usize..16,
            any::<bool>(),
            any::<bool>(),
            any::<bool>(),
            0usize..5,
        )
            .prop_map(|(slot, draining, blocked, blocked_set, sa)| Op::Gate {
                slot,
                draining,
                blocked,
                blocked_set,
                sa_scope: (sa < 3).then_some(sa),
            });
        prop_oneof![
            enqueue.clone(),
            enqueue,
            (0u64..8).prop_map(Op::Advance),
            (0u64..8).prop_map(Op::Advance),
            (0u64..40).prop_map(Op::Advance),
            (0u64..600).prop_map(Op::Advance),
            Just(Op::Issue),
            Just(Op::Issue),
            Just(Op::Issue),
            gate,
            (0usize..16, 0usize..5).prop_map(|(slot, sa)| Op::Drain {
                slot,
                subarray: (sa < 3).then_some(sa),
            }),
            Just(Op::FlipServeWrites),
            (0usize..16, 0usize..4, 0usize..6, 0usize..4).prop_map(|(bank, which, row, col)| {
                Op::Command {
                    bank,
                    which,
                    row,
                    col,
                }
            }),
            (0usize..16, 0usize..4, 0usize..6, 0usize..4).prop_map(|(bank, which, row, col)| {
                Op::Command {
                    bank,
                    which,
                    row,
                    col,
                }
            }),
            (0usize..16, 0usize..4, 0usize..6, 0usize..4).prop_map(|(bank, which, row, col)| {
                Op::Command {
                    bank,
                    which,
                    row,
                    col,
                }
            }),
            (0usize..16, 0usize..4, 0usize..6, 0usize..4).prop_map(|(bank, which, row, col)| {
                Op::Command {
                    bank,
                    which,
                    row,
                    col,
                }
            }),
            (0usize..16, 0usize..3).prop_map(|(bank, scope)| Op::Refresh { bank, scope }),
            (0usize..16, 0usize..4).prop_map(|(bank, pick)| Op::RemoveRead { bank, pick }),
            (0usize..16).prop_map(Op::DropPrefetches),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        /// The real scheduler, on a real device, through random
        /// enqueues, removals, issues, outside commands, refreshes, gate
        /// changes, drain snapshots, serve-writes flips and time steps:
        /// after every step its choice and hint equal the plain walk's.
        /// Few banks, a short age cap and a write-to-read turnaround of
        /// up to 47 cycles make the races a kept bound can lose (an
        /// over-age row hit waiting out a turnaround, then precharged)
        /// common enough to find.
        #[test]
        fn select_matches_the_fr_fcfs_walk(
            ranks in 1usize..3,
            banks_per_rank in prop_oneof![Just(1usize), Just(2usize), Just(8usize)],
            per_bank in any::<bool>(),
            age_cap in 0u64..300,
            t_wtr in 6u64..48,
            ops in proptest::collection::vec(op(), 1..300),
        ) {
            let mut cfg = MemCtrlConfig::baseline(DramConfig::baseline(ranks));
            cfg.dram.geometry.banks_per_rank = banks_per_rank;
            cfg.dram.timing.t_wtr = t_wtr;
            cfg.age_cap = age_cap;
            let geom = cfg.dram.geometry;
            let scope = if per_bank { RefreshScope::PerBank } else { RefreshScope::PerRank };
            let slot_map = SlotMap::new(scope, geom.banks_per_rank);
            let slots = ranks * slot_map.per_rank;
            let banks = ranks * geom.banks_per_rank;
            let rps = geom.rows_per_subarray();
            let rows = [0, 1, 2, rps, rps + 1, 2 * rps];
            let mut s = Scheduler::new(&cfg, slot_map);
            let mut device = DramDevice::new(cfg.dram.clone());
            let mut stats = MemCtrlStats::default();
            let (mut now, mut next_id, mut serve_writes) = (0, 0, false);
            for op in ops {
                match op {
                    Op::Enqueue { kind, bank, row, col } => {
                        let bank = bank % banks;
                        let kind = [QueueKind::Read, QueueKind::Write, QueueKind::Prefetch][kind];
                        let addr = DecodedAddr {
                            rank: bank / geom.banks_per_rank,
                            bank: bank % geom.banks_per_rank,
                            row: rows[row],
                            col,
                        };
                        s.enqueue(kind, next_id, next_id, addr, 0, now);
                        next_id += 1;
                    }
                    Op::Advance(dt) => now += dt,
                    Op::Issue => {}
                    Op::Gate { slot, draining, blocked, blocked_set, sa_scope } => {
                        let gate = SlotGate { draining, blocked, blocked_set, sa_scope };
                        s.set_gate(slot % slots, gate);
                    }
                    Op::Drain { slot, subarray } => {
                        s.start_drain(slot % slots, subarray);
                    }
                    Op::FlipServeWrites => serve_writes = !serve_writes,
                    Op::Command { bank, which, row, col } => {
                        let bank = bank % banks;
                        let (rank, bank) = (bank / geom.banks_per_rank, bank % geom.banks_per_rank);
                        let cmd = match which {
                            0 => Command::Activate { rank, bank, row: rows[row] },
                            1 => Command::Read { rank, bank, column: col },
                            2 => Command::Write { rank, bank, column: col },
                            _ => Command::Precharge { rank, bank },
                        };
                        if device.earliest_issue(&cmd, now).is_ok_and(|e| e <= now) {
                            s.note_issued(&cmd);
                            device.issue(&cmd, now);
                        }
                    }
                    Op::Refresh { bank, scope } => {
                        let bank = bank % banks;
                        let (rank, bank) = (bank / geom.banks_per_rank, bank % geom.banks_per_rank);
                        let cmd = match scope {
                            0 => Command::Refresh { rank },
                            _ => Command::RefreshBank { rank, bank },
                        };
                        if scope == 2 {
                            let sa = now as usize % 3;
                            if device
                                .earliest_subarray_refresh(rank, bank, sa, now)
                                .is_ok_and(|e| e <= now)
                            {
                                s.note_issued(&cmd);
                                device
                                    .try_issue_subarray_refresh(rank, bank, sa, now)
                                    .expect("legal at its earliest-issue cycle");
                            }
                        } else if device.earliest_issue(&cmd, now).is_ok_and(|e| e <= now) {
                            s.note_issued(&cmd);
                            device.issue(&cmd, now);
                        }
                    }
                    Op::RemoveRead { bank, pick } => {
                        let bank = bank % banks;
                        let reads = s.queue(bank, QueueKind::Read).len();
                        if reads > 0 {
                            s.remove(QueueKind::Read, bank, pick % reads);
                        }
                    }
                    Op::DropPrefetches(slot) => {
                        s.drop_prefetches(slot % slots);
                    }
                }
                let want = spec_select(&s, &device, serve_writes, now);
                let got = s.select(&device, serve_writes, now, &mut stats);
                prop_assert_eq!(got, want, "at cycle {}", now);
                #[cfg(debug_assertions)]
                s.check_index(&device, now);
                if let (Op::Issue, Ok(sel)) = (op, got) {
                    // As the controller issues a selection.
                    s.note_issued(&sel.cmd);
                    device.issue(&sel.cmd, now);
                    match sel.cmd {
                        Command::Read { .. } | Command::Write { .. } => {
                            s.remove(sel.kind, sel.bank, sel.idx);
                        }
                        Command::Activate { .. } => s.set_acted(&sel),
                        _ => {}
                    }
                }
            }
        }
    }
}
