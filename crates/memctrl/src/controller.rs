//! The memory controller: transaction queues, FR-FCFS scheduling, write
//! batching, refresh handling, and the ROP integration points.
//!
//! # Scheduling model
//!
//! The controller issues at most one DRAM command per memory cycle
//! (single command bus). [`MemController::tick`] performs, in order:
//!
//! 1. SRAM fills whose prefetch data has arrived;
//! 2. refresh-manager bookkeeping (completions thaw ranks and drive ROP
//!    phase transitions; newly due refreshes snapshot drain sets and ask
//!    ROP for a prefetch decision);
//! 3. refresh preparation for ranks whose drain is complete: precharge
//!    remaining open banks, then issue REF;
//! 4. FR-FCFS command scheduling over the request queues, with the
//!    draining rank's demand requests in a priority tier, ROP prefetches
//!    below regular traffic, and an age cap as a starvation guard. The
//!    queues are kept per bank, and each bank's oldest candidates sit
//!    in a key-sorted index kept across ticks: a tick re-enters only the
//!    banks that changed, and passes over a candidate whose cached
//!    not-before bound lies in the future without asking the device.
//!
//! `tick` returns a *hint*: the next cycle at which calling `tick` again
//! can possibly make progress, enabling the driver to fast-forward idle
//! stretches without losing cycle accuracy.

use rop_core::{PhaseTransition, RopConfig, RopEngine, RopPhase, SramBuffer};
use rop_dram::{Command, DramDevice, EnergyBreakdown, Geometry, IssueOutcome};
use rop_events::{EventSink, TraceBuffer, TraceEvent};
use rop_stats::RatioCounter;

use crate::address::{AddressMapping, DecodedAddr};
use crate::analysis::RefreshAnalysis;
use crate::config::MemCtrlConfig;
use crate::mechanism::{Mechanism, RefreshMechanism, RefreshScope, RoundShape};
use crate::refresh::{RefreshManager, RefreshState};
use crate::request::MemRequest;
use crate::Cycle;

/// A finished read delivered back to a core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion {
    /// Id returned by [`MemController::enqueue_read`].
    pub id: u64,
    /// Originating core.
    pub core: usize,
    /// Cycle at which the data is available to the core.
    pub done_at: Cycle,
    /// True when the read was served by the ROP SRAM buffer.
    pub from_sram: bool,
}

/// Aggregate controller statistics.
#[derive(Debug, Clone, Default)]
pub struct MemCtrlStats {
    /// Reads completed (including SRAM-served).
    pub reads_completed: u64,
    /// Reads served by the SRAM buffer.
    pub reads_from_sram: u64,
    /// Writes accepted into the write queue.
    pub writes_accepted: u64,
    /// Sum over completed reads of (completion − arrival), in cycles.
    pub sum_read_latency: u64,
    /// Row-buffer hit ratio over demand column commands.
    pub row_buffer: RatioCounter,
    /// Read arrivals rejected because the read queue was full.
    pub read_queue_full: u64,
    /// Write arrivals rejected because the write queue was full.
    pub write_queue_full: u64,
    /// ROP prefetch requests issued to DRAM.
    pub prefetches_issued: u64,
    /// ROP prefetch requests dropped because the refresh could not wait.
    pub prefetches_dropped: u64,
    /// Prefetched lines actually inserted into the buffer.
    pub prefetch_fills: u64,
    /// Reads that arrived during a refresh and missed the SRAM buffer.
    pub reads_blocked_by_refresh: u64,
    /// Cycles read requests spent blocked behind an in-flight refresh,
    /// summed over reads still queued when their scope's refresh
    /// completed (per read: completion − max(refresh start, arrival)).
    /// The head-to-head mechanism figures' central metric.
    pub refresh_blocked_cycles: u64,
    /// Total SRAM lookups performed for reads arriving during refreshes.
    pub sram_lookups: u64,
    /// SRAM lookup hits.
    pub sram_hits: u64,
    /// FR-FCFS scheduler calls: ticks that reached the request
    /// scheduler (a tick that issued a refresh-preparation command does
    /// not).
    pub schedule_calls: u64,
    /// Scheduler calls that issued a command.
    pub schedule_issued: u64,
    /// Queue entries the scheduler read to pick its candidates, summed
    /// over calls.
    pub schedule_entries_scanned: u64,
    /// Times the scheduler asked the device when a candidate's next
    /// command can issue (an ask at a ready candidate issues it),
    /// summed over calls.
    pub issue_attempts: u64,
    /// Candidates the scheduler passed over without asking the device,
    /// because their cached not-before bound lay in the future, summed
    /// over calls.
    pub bound_skips: u64,
    /// Candidate-index entries inserted, removed or slid to a new key
    /// when the scheduler re-entered a changed bank, summed over calls.
    pub index_moves: u64,
    /// Refresh slots examined by refresh bookkeeping, summed over
    /// ticks: every slot a per-slot loop of the controller, the
    /// refresh manager or the mechanism looked at (completion and due
    /// polls, refresh preparation, slot gates, hints).
    pub refresh_slot_visits: u64,
    /// Full controller ticks run. [`MemController::tick`] skips the
    /// work of a tick that provably cannot act and does not count it.
    pub ticks: u64,
}

#[derive(Debug, Clone, Copy)]
struct Queued {
    req: MemRequest,
    /// True once an ACT has been issued on behalf of this request (used
    /// for the row-buffer-hit statistic).
    acted: bool,
    /// Member of its slot's drain set: queued when the slot's current
    /// (or last) drain started. Only read while the slot drains; every
    /// drain start rewrites the flag for each of the slot's requests.
    in_set: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum QueueKind {
    Read,
    Write,
    Prefetch,
}

/// ROP state attached to the controller (engines are per rank, the SRAM
/// buffer is shared across the channel — ranks take turns).
#[derive(Debug)]
struct RopState {
    engines: Vec<RopEngine>,
    buffer: SramBuffer,
    /// Rank currently owning the buffer (decided at its drain start),
    /// cleared when its refresh completes.
    active_rank: Option<usize>,
    /// Per-rank flag: a positive prefetch decision whose candidates have
    /// not been generated yet (generation happens once the demand drain
    /// finishes, right before the refresh would issue).
    prefetch_pending: Vec<bool>,
    /// Per-rank (hits, lookups) for the refresh currently in flight.
    refresh_hits: Vec<u64>,
    refresh_lookups: Vec<u64>,
    /// Per-access SRAM energy in nJ (from the paper's Table III).
    access_energy_nj: f64,
    /// SRAM access latency in cycles.
    latency: Cycle,
}

/// How requests map onto refresh slots: one slot per rank, or one per
/// (rank, bank) pair when the mechanism refreshes per bank. Fixed at
/// construction from [`crate::MechanismKind::scope`].
#[derive(Debug, Clone, Copy)]
struct SlotMap {
    /// Per-bank scope: one slot per (rank, bank), else one per rank.
    per_bank: bool,
    /// Slots per rank: 1, or the bank count under per-bank scope.
    per_rank: usize,
    /// Banks per rank.
    banks: usize,
}

impl SlotMap {
    fn new(scope: RefreshScope, banks_per_rank: usize) -> Self {
        let per_bank = scope == RefreshScope::PerBank;
        SlotMap {
            per_bank,
            per_rank: if per_bank { banks_per_rank } else { 1 },
            banks: banks_per_rank,
        }
    }

    /// The global bank key of a request: `rank * banks + bank`.
    #[inline]
    fn bank_key(self, addr: &DecodedAddr) -> usize {
        addr.rank * self.banks + addr.bank
    }

    /// The refresh slot a global bank key belongs to. Under per-bank
    /// scope the slot index is the bank key itself.
    // rop-lint: hot
    #[inline]
    fn of_bank(self, key: usize) -> usize {
        if self.per_bank {
            key
        } else {
            key / self.banks
        }
    }

    /// The global bank keys a slot covers.
    #[inline]
    fn banks_of(self, slot: usize) -> std::ops::Range<usize> {
        if self.per_bank {
            slot..slot + 1
        } else {
            slot * self.banks..(slot + 1) * self.banks
        }
    }

    /// The refresh slot a request belongs to.
    // rop-lint: hot
    #[inline]
    fn of(self, addr: &DecodedAddr) -> usize {
        if self.per_bank {
            addr.rank * self.per_rank + addr.bank
        } else {
            addr.rank
        }
    }

    // The per-rank case skips the division: these run per queued
    // request per tick.
    #[inline]
    fn rank(self, slot: usize) -> usize {
        if self.per_bank {
            slot / self.per_rank
        } else {
            slot
        }
    }

    /// The single bank a per-bank slot refreshes (`None`: the whole rank).
    #[inline]
    fn bank(self, slot: usize) -> Option<usize> {
        self.per_bank.then(|| slot % self.per_rank)
    }

    /// The slots covering `rank`.
    fn of_rank(self, rank: usize) -> std::ops::Range<usize> {
        rank * self.per_rank..(rank + 1) * self.per_rank
    }
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

/// A slot's admission state, as of the last scheduler call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct SlotGate {
    /// The slot drains: its drain-set requests rank in tier 0.
    draining: bool,
    /// Requests outside the drain set may not issue (scope frozen, or
    /// quiescing for its refresh).
    blocked: bool,
    /// Drain-set requests and prefetches may not issue (scope frozen).
    blocked_set: bool,
    /// SARP: the subarray the slot's freeze or drain locks. Requests to
    /// other subarrays are exempt from both gates.
    sa_scope: Option<usize>,
}

/// One bank's share of the transaction queues and its FR-FCFS picks.
/// Each queue is in id order, which is arrival order.
#[derive(Debug, Default)]
struct BankQueues {
    reads: Vec<Queued>,
    writes: Vec<Queued>,
    prefetches: Vec<Queued>,
    /// The picks the candidate index lists for this bank.
    picks: BankPicks,
}

impl BankQueues {
    fn with_capacity(reads: usize, writes: usize, prefetches: usize) -> Self {
        BankQueues {
            reads: Vec::with_capacity(reads),
            writes: Vec::with_capacity(writes),
            prefetches: Vec::with_capacity(prefetches),
            ..BankQueues::default()
        }
    }

    // rop-lint: hot
    #[inline]
    fn queue(&self, kind: QueueKind) -> &Vec<Queued> {
        match kind {
            QueueKind::Read => &self.reads,
            QueueKind::Write => &self.writes,
            QueueKind::Prefetch => &self.prefetches,
        }
    }

    // rop-lint: hot
    #[inline]
    fn queue_mut(&mut self, kind: QueueKind) -> &mut Vec<Queued> {
        match kind {
            QueueKind::Read => &mut self.reads,
            QueueKind::Write => &mut self.writes,
            QueueKind::Prefetch => &mut self.prefetches,
        }
    }

    /// Requests queued at this bank, over all three queues.
    #[inline]
    fn len(&self) -> usize {
        self.prefetches.len() + self.reads.len() + self.writes.len()
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
        let (mut read, mut drain_write, mut write) = ([None; 2], [None; 2], [None; 2]);
        for (i, q) in self.prefetches.iter().enumerate() {
            let row = q.req.addr.row;
            if !gate.blocked_set || exempt(row) {
                let pick = Pick::new(2, QueueKind::Prefetch, bank, i, q, open_row == Some(row));
                offer(&mut read, pick);
            }
        }
        for (i, q) in self.reads.iter().enumerate() {
            let row = q.req.addr.row;
            let in_set = gate.draining && q.in_set;
            let gated = if in_set {
                gate.blocked_set
            } else {
                gate.blocked
            };
            if !gated || exempt(row) {
                let tier = if in_set { 0 } else { 1 };
                let pick = Pick::new(tier, QueueKind::Read, bank, i, q, open_row == Some(row));
                offer(&mut read, pick);
            }
        }
        for (i, q) in self.writes.iter().enumerate() {
            let row = q.req.addr.row;
            let in_set = gate.draining && q.in_set;
            let gated = if in_set {
                gate.blocked_set
            } else {
                gate.blocked
            };
            if !gated || exempt(row) {
                let hit = open_row == Some(row);
                if in_set {
                    let pick = Pick::new(0, QueueKind::Write, bank, i, q, hit);
                    offer(&mut drain_write, pick);
                } else {
                    let pick = Pick::new(1, QueueKind::Write, bank, i, q, hit);
                    offer(&mut write, pick);
                }
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
/// the controller issues ACT or PRE there (its open row changes, which
/// also sets [`Self::row_moved`]).
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
    /// Whether a pass skips `c`, whose bound lies after `now`; its bound
    /// then enters the minimum of its kind.
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

/// Reusable per-tick scratch buffers. Taking these out of the
/// controller, filling them and putting them back keeps the
/// steady-state hot path allocation-free (capacities are retained
/// across ticks).
#[derive(Debug, Default)]
struct TickScratch {
    /// Refresh slots reported by the manager this tick.
    slots: Vec<usize>,
    /// Prefetch lines whose fill landed this tick.
    filled: Vec<u64>,
    /// (id, bank key) of reads served or blocked by a refresh event,
    /// sorted into id order before they are processed.
    found: Vec<(u64, usize)>,
}

impl TickScratch {
    /// Scratch pre-sized to the controller's hard occupancy bounds, so
    /// the per-cycle paths never grow these vectors: per-slot lists are
    /// capped by the refresh-slot count, and request lists by the total
    /// queue capacity. (ROP prefetch fills have no configured cap; the
    /// caller's allowance covers the paper's deepest buffer, and
    /// anything beyond it merely grows once.)
    fn with_bounds(queue_cap: usize, slots: usize) -> Self {
        TickScratch {
            slots: Vec::with_capacity(slots),
            filled: Vec::with_capacity(queue_cap),
            found: Vec::with_capacity(queue_cap),
        }
    }
}

/// The memory controller for one channel.
#[derive(Debug)]
pub struct MemController {
    cfg: MemCtrlConfig,
    device: DramDevice,
    mapping: AddressMapping,
    refresh: RefreshManager,
    /// The refresh mechanism layered over the manager (AllBank,
    /// Elastic, DARP, SARP or RAIDR). Kept as a separate field so the
    /// tick loop can borrow mechanism and manager disjointly.
    mech: Mechanism,
    /// The mechanism's slot granularity.
    slot_map: SlotMap,
    /// Per-slot issue cycle of the in-flight refresh (`Cycle::MAX` when
    /// none, or when the round was skipped) — blocked-cycle accounting.
    refresh_started_at: Vec<Cycle>,
    /// Per-slot subarray scope of the in-flight refresh (SARP only).
    refresh_scope_sa: Vec<Option<usize>>,
    /// The transaction queues, split by bank (global bank key
    /// `rank * banks_per_rank + bank`), each bank with its FR-FCFS
    /// picks.
    banks: Vec<BankQueues>,
    /// The bank picks in FR-FCFS order, with their not-before bounds.
    index: CandIndex,
    /// Queued reads and writes, over all banks.
    reads_queued: usize,
    writes_queued: usize,
    /// Per-slot admission state the bank picks were computed under.
    /// An Idle slot's gate is always `SlotGate::default()`.
    gates: Vec<SlotGate>,
    /// The non-Idle refresh slots in slot order: each slot the due poll
    /// reports joins, each slot the completion poll reports leaves. The
    /// per-tick slot loops walk this instead of every slot.
    active: Vec<usize>,
    /// (buffer key, fill-ready cycle) for prefetch data in flight.
    pending_fills: Vec<(u64, Cycle)>,
    completions: Vec<Completion>,
    /// Per-slot drain-set size: queued requests that must issue before
    /// the slot's REF (see [`Queued::in_set`]).
    drain_left: Vec<usize>,
    rop: Option<RopState>,
    analysis: Vec<RefreshAnalysis>,
    write_drain: bool,
    next_id: u64,
    stats: MemCtrlStats,
    /// Controller-level trace sink (refresh/drain lifecycle events).
    trace: TraceBuffer,
    scratch: TickScratch,
    // Cold fields stay behind `stats`/`scratch`: inserting them
    // mid-struct shifts the hot tick fields across cache lines and
    // costs ~25% end-to-end throughput (perf_gate catches this).
    /// Opt-in (open-loop tail accounting): record the id of every read
    /// that overlaps a refresh freeze. Off by default so closed-loop
    /// runs never grow `blocked_ids`.
    track_blocked: bool,
    /// Ids of reads observed blocked by refresh since the last drain
    /// (may contain duplicates; consumers dedup).
    blocked_ids: Vec<u64>,
    /// Arrival cycle of the newest request id (ids must follow arrival
    /// order; see [`alloc_id`]).
    last_arrival: Cycle,
    /// The hint the last full tick returned.
    hint: Cycle,
    /// An enqueue reached the controller's state since the last full
    /// tick.
    touched: bool,
}

/// Allocates the next request id for a request arriving at `now`. Ids
/// follow arrival order, so within a tier the FR-FCFS order (arrival,
/// then id) is the id order, and every queue, appended to in id order,
/// stays sorted by it.
fn alloc_id(next_id: &mut u64, last_arrival: &mut Cycle, now: Cycle) -> u64 {
    assert!(
        now >= *last_arrival,
        "request at {now} after one at {last_arrival}"
    );
    *last_arrival = now;
    let id = *next_id;
    *next_id += 1;
    id
}

/// Appends a fresh request to a queue kept in id order.
fn push_in_order(queue: &mut Vec<Queued>, req: MemRequest) {
    debug_assert!(queue.last().is_none_or(|l| l.req.id < req.id));
    queue.push(Queued {
        req,
        acted: false,
        in_set: false,
    });
}

impl MemController {
    /// Builds a controller (and its DRAM device) from `cfg`.
    ///
    /// # Panics
    /// Panics on an invalid configuration.
    pub fn new(cfg: MemCtrlConfig) -> Self {
        cfg.validate().expect("invalid controller configuration");
        let device = DramDevice::new(cfg.dram.clone());
        let mapping = AddressMapping::new(cfg.dram.geometry, cfg.mapping);
        let ranks = cfg.dram.geometry.ranks;
        let banks = cfg.dram.geometry.banks_per_rank;
        // Refresh is managed per *slot*: one slot per rank for an
        // all-bank mechanism, one per (rank, bank) for a per-bank one.
        // Every slot owes one refresh per tREFI; the manager staggers
        // them.
        let scope = cfg.mechanism.scope();
        let slot_map = SlotMap::new(scope, banks);
        let slots = ranks * slot_map.per_rank;
        let t_rfc = match scope {
            RefreshScope::PerRank => cfg.dram.timing.t_rfc(),
            RefreshScope::PerBank => cfg.dram.timing.t_rfc_pb,
        };
        let refresh = RefreshManager::new(
            slots,
            cfg.dram.timing.t_refi(),
            cfg.max_refresh_postpone,
            cfg.dram.refresh_enabled,
        );
        let rop = cfg.rop.as_ref().map(|rc| {
            let mut engines: Vec<RopEngine> = (0..ranks)
                .map(|r| {
                    let mut c: RopConfig = rc.clone();
                    // Give each rank's throttle an independent stream.
                    c.seed = rc
                        .seed
                        .wrapping_add(0x9e37_79b9_7f4a_7c15u64.wrapping_mul(r as u64 + 1));
                    RopEngine::new(c)
                })
                .collect();
            for (r, e) in engines.iter_mut().enumerate() {
                // Per rank: the earliest due among the rank's slots.
                let due = slot_map.of_rank(r).map(|s| refresh.next_due(s)).min();
                e.set_next_refresh_due(due.expect("at least one slot"));
            }
            RopState {
                buffer: SramBuffer::new(rc.buffer_capacity),
                engines,
                active_rank: None,
                prefetch_pending: vec![false; slots],
                refresh_hits: vec![0; slots],
                refresh_lookups: vec![0; slots],
                access_energy_nj: rc.sram_access_energy_nj(),
                latency: rc.sram_latency,
            }
        });
        let mech = Mechanism::from_config(&cfg);
        MemController {
            analysis: (0..slots).map(|_| RefreshAnalysis::new(t_rfc)).collect(),
            drain_left: vec![0; slots],
            // Pre-sized to the hard bounds (one bank can hold a whole
            // queue, and a prefetch burst is at most one buffer's worth)
            // so no steady-state push grows a bank's queue.
            banks: (0..ranks * banks)
                .map(|_| {
                    BankQueues::with_capacity(
                        cfg.read_queue_capacity,
                        cfg.write_queue_capacity,
                        cfg.rop.as_ref().map_or(0, |r| r.buffer_capacity),
                    )
                })
                .collect(),
            index: CandIndex::with_banks(ranks * banks),
            reads_queued: 0,
            writes_queued: 0,
            gates: vec![SlotGate::default(); slots],
            active: Vec::with_capacity(slots),
            device,
            mapping,
            refresh,
            mech,
            slot_map,
            refresh_started_at: vec![Cycle::MAX; slots],
            refresh_scope_sa: vec![None; slots],
            pending_fills: Vec::new(),
            // Room for one tick's worst burst: a full read queue
            // swept from SRAM at refresh issue on top of as many
            // SRAM-served arrivals; more grows once.
            completions: Vec::with_capacity(2 * cfg.read_queue_capacity),
            rop,
            write_drain: false,
            next_id: 0,
            track_blocked: false,
            blocked_ids: Vec::new(),
            last_arrival: 0,
            hint: 0,
            touched: false,
            stats: MemCtrlStats::default(),
            trace: TraceBuffer::new(),
            scratch: TickScratch::with_bounds(
                cfg.read_queue_capacity + cfg.write_queue_capacity + 128,
                slots,
            ),
            cfg,
        }
    }

    /// Turns the event trace on or off across every layer the controller
    /// owns: its own lifecycle events, the DRAM device's command stream,
    /// the per-rank ROP engines, and the SRAM buffer.
    pub fn set_trace_enabled(&mut self, enabled: bool) {
        self.trace.set_enabled(enabled);
        self.device.trace_mut().set_enabled(enabled);
        if let Some(rop) = &mut self.rop {
            for (r, e) in rop.engines.iter_mut().enumerate() {
                e.set_trace_rank(r);
                e.trace_mut().set_enabled(enabled);
            }
            rop.buffer.trace_mut().set_enabled(enabled);
        }
    }

    /// Drains every layer's buffered trace events into `sink` in the
    /// documented merge order: controller first, then the device, then
    /// the per-rank engines, then the SRAM buffer. Within one tick this
    /// puts refresh/drain transitions before the commands they caused and
    /// before the profiler-window events they opened.
    pub fn drain_trace(&mut self, sink: &mut impl EventSink) {
        self.trace.drain_into(sink);
        self.device.trace_mut().drain_into(sink);
        if let Some(rop) = &mut self.rop {
            for e in rop.engines.iter_mut() {
                e.trace_mut().drain_into(sink);
            }
            rop.buffer.trace_mut().drain_into(sink);
        }
    }

    /// The controller's configuration.
    pub fn config(&self) -> &MemCtrlConfig {
        &self.cfg
    }

    /// The address mapping in force.
    pub fn mapping(&self) -> &AddressMapping {
        &self.mapping
    }

    /// Controller statistics so far.
    pub fn stats(&self) -> &MemCtrlStats {
        &self.stats
    }

    /// Turns refresh-blocked read-id tracking on or off. Purely
    /// observational: scheduling is identical either way. The open-loop
    /// injector uses the drained ids to attribute tail latency to
    /// refresh; closed-loop runs leave this off so the id buffer never
    /// grows.
    pub fn set_track_refresh_blocked(&mut self, enabled: bool) {
        self.track_blocked = enabled;
        if !enabled {
            self.blocked_ids.clear();
        }
    }

    /// Appends the ids of reads observed blocked by refresh since the
    /// last drain and clears the internal buffer. Ids may repeat (a
    /// read can arrive during one freeze and still be queued at the
    /// next thaw); consumers dedup.
    pub fn drain_refresh_blocked_into(&mut self, out: &mut Vec<u64>) {
        out.append(&mut self.blocked_ids);
    }

    /// Number of refresh slots: ranks (all-bank mode) or rank×bank pairs
    /// (per-bank mode).
    pub fn refresh_slots(&self) -> usize {
        self.drain_left.len()
    }

    /// True while `slot`'s refresh blocks this *particular* request at
    /// `now`. Identical to [`Self::slot_frozen`] except under SARP,
    /// where a subarray-scoped refresh only blocks requests whose row
    /// lives in the frozen subarray.
    // rop-lint: hot
    #[inline]
    fn request_frozen(&self, slot: usize, addr: &DecodedAddr, now: Cycle) -> bool {
        if !self.slot_frozen(slot, now) {
            return false;
        }
        match self.device.frozen_subarray(addr.rank, addr.bank, now) {
            // Subarray-scoped freeze: only the matching subarray blocks.
            Some(sa) => self.cfg.dram.geometry.subarray_of_row(addr.row) == sa,
            // Bank- or rank-wide freeze blocks everything in scope.
            None => true,
        }
    }

    /// True while `slot`'s refresh holds its scope frozen at `now`.
    #[inline]
    fn slot_frozen(&self, slot: usize, now: Cycle) -> bool {
        let rank = self.slot_map.rank(slot);
        match self.slot_map.bank(slot) {
            Some(bank) => self.device.is_bank_refreshing(rank, bank, now),
            None => self.device.is_rank_refreshing(rank, now),
        }
    }

    /// Refreshes the engine's notion of its rank's next due time (the
    /// earliest among the rank's slots).
    fn update_engine_due(&mut self, rank: usize) {
        let due = self
            .slot_map
            .of_rank(rank)
            .map(|s| self.refresh.next_due(s))
            .min()
            .expect("banks > 0");
        if let Some(rop) = &mut self.rop {
            rop.engines[rank].set_next_refresh_due(due);
        }
    }

    /// Refreshes issued on `rank` (all its slots in per-bank mode).
    pub fn refreshes_issued(&self, rank: usize) -> u64 {
        self.slot_map
            .of_rank(rank)
            .map(|s| self.refresh.issued(s))
            .sum()
    }

    /// The refresh mechanism in force (AllBank, Elastic, DARP, SARP or
    /// RAIDR).
    pub fn mechanism(&self) -> &Mechanism {
        &self.mech
    }

    /// Refresh rounds skipped outright (RAIDR: no retention bin due).
    pub fn refreshes_skipped(&self) -> u64 {
        self.mech.refreshes_skipped()
    }

    /// Refreshes pulled in ahead of their due time (DARP).
    pub fn refreshes_pulled_in(&self) -> u64 {
        self.mech.refreshes_pulled_in()
    }

    /// ROP phase of `rank`'s engine, if ROP is enabled.
    pub fn rop_phase(&self, rank: usize) -> Option<RopPhase> {
        self.rop.as_ref().map(|r| r.engines[rank].phase())
    }

    /// ROP engine statistics for `rank`, if ROP is enabled.
    pub fn rop_engine_stats(&self, rank: usize) -> Option<rop_core::EngineStats> {
        self.rop.as_ref().map(|r| r.engines[rank].stats())
    }

    /// (λ, β) of `rank`'s engine, if ROP is enabled and trained.
    pub fn rop_probabilities(&self, rank: usize) -> Option<(f64, f64)> {
        self.rop
            .as_ref()
            .map(|r| (r.engines[rank].lambda(), r.engines[rank].beta()))
    }

    /// The refresh-analysis instrumentation for `rank` (finalise before
    /// reading: [`Self::finalize_analysis`]).
    pub fn analysis(&self, rank: usize) -> &RefreshAnalysis {
        &self.analysis[rank]
    }

    /// Folds in-flight refreshes into the analysis (call at end of run).
    pub fn finalize_analysis(&mut self) {
        for a in &mut self.analysis {
            a.finalize_current();
        }
    }

    /// Number of read-queue entries currently pending.
    pub fn read_queue_len(&self) -> usize {
        self.reads_queued
    }

    /// Number of write-queue entries currently pending.
    pub fn write_queue_len(&self) -> usize {
        self.writes_queued
    }

    /// Full energy breakdown: DRAM (device model) + ROP SRAM accesses.
    pub fn energy_breakdown(&mut self, now: Cycle) -> EnergyBreakdown {
        let mut b = self.device.energy_breakdown(now);
        if let Some(rop) = &self.rop {
            let accesses = rop.buffer.read_count() + rop.buffer.write_count();
            b.sram_nj = accesses as f64 * rop.access_energy_nj;
        }
        b
    }

    /// Drains the accumulated read completions: appends them to `out`
    /// and clears the internal buffer *in place*, so both sides keep
    /// their capacity across the simulation's steady state.
    // rop-lint: hot
    pub fn drain_completions_into(&mut self, out: &mut Vec<Completion>) {
        out.extend_from_slice(&self.completions);
        self.completions.clear();
    }

    /// Enqueues a read for `line_addr`. Returns the request id, or `None`
    /// when the controller cannot accept it this cycle (queue full — the
    /// core must retry). Reads arriving while their rank is frozen consult
    /// the SRAM buffer and may complete without touching DRAM.
    ///
    /// # Panics
    /// Panics if `now` is earlier than a previously enqueued request's
    /// cycle: request ids must follow arrival order.
    pub fn enqueue_read(&mut self, line_addr: u64, core: usize, now: Cycle) -> Option<u64> {
        let sram = self.rop.as_ref().is_some_and(|r| r.buffer.is_powered());
        if !sram && self.reads_queued >= self.cfg.read_queue_capacity {
            self.stats.read_queue_full += 1;
            return None;
        }
        self.touched = true;
        let addr = self.mapping.decode(line_addr);
        let slot = self.slot_map.of(&addr);
        let refreshing = self.request_frozen(slot, &addr, now);
        if let Some(rop) = &mut self.rop {
            rop.buffer.set_trace_cycle(now);
        }

        // The SRAM buffer answers whenever it holds the line — during the
        // refresh that is the whole point; before it, serving from SRAM
        // makes each prefetch *substitute* the demand DRAM read it
        // anticipated, so prefetching stays bandwidth-neutral. The
        // hit-rate statistics that drive the Training fallback only count
        // lookups during frozen cycles (the paper's Figure 9 metric).
        if let Some(rop) = &mut self.rop {
            if rop.buffer.is_powered() {
                if refreshing {
                    rop.refresh_lookups[slot] += 1;
                    self.stats.sram_lookups += 1;
                }
                let hit = if refreshing {
                    rop.buffer.lookup(line_addr)
                } else {
                    rop.buffer.serve_quiet(line_addr)
                };
                if hit {
                    if refreshing {
                        rop.refresh_hits[slot] += 1;
                        self.stats.sram_hits += 1;
                    }
                    let latency = rop.latency;
                    // Served from SRAM: no DRAM involvement at all.
                    let id = self.alloc_id(now);
                    let done_at = now + latency;
                    self.completions.push(Completion {
                        id,
                        core,
                        done_at,
                        from_sram: true,
                    });
                    self.stats.reads_completed += 1;
                    self.stats.reads_from_sram += 1;
                    self.stats.sum_read_latency += latency;
                    self.note_arrival(addr.rank, addr.bank, addr, true, now);
                    return Some(id);
                }
            }
        }

        if self.reads_queued >= self.cfg.read_queue_capacity {
            self.stats.read_queue_full += 1;
            return None;
        }
        let id = self.alloc_id(now);
        if refreshing {
            self.stats.reads_blocked_by_refresh += 1;
            if self.track_blocked {
                self.blocked_ids.push(id);
            }
        }
        self.note_arrival(addr.rank, addr.bank, addr, true, now);
        self.push_request(
            QueueKind::Read,
            MemRequest {
                id,
                line_addr,
                addr,
                is_write: false,
                arrival: now,
                core,
                is_prefetch: false,
            },
        );
        Some(id)
    }

    /// Enqueues a write (store or LLC writeback). Returns false when the
    /// write queue is full (the core must retry).
    ///
    /// # Panics
    /// Panics if `now` is earlier than a previously enqueued request's
    /// cycle, as [`Self::enqueue_read`] does.
    pub fn enqueue_write(&mut self, line_addr: u64, core: usize, now: Cycle) -> bool {
        if self.writes_queued >= self.cfg.write_queue_capacity {
            self.stats.write_queue_full += 1;
            return false;
        }
        self.touched = true;
        let addr = self.mapping.decode(line_addr);
        let id = self.alloc_id(now);
        self.note_arrival(addr.rank, addr.bank, addr, false, now);
        self.push_request(
            QueueKind::Write,
            MemRequest {
                id,
                line_addr,
                addr,
                is_write: true,
                arrival: now,
                core,
                is_prefetch: false,
            },
        );
        self.stats.writes_accepted += 1;
        true
    }

    /// Allocates the next request id for a request arriving at `now`.
    fn alloc_id(&mut self, now: Cycle) -> u64 {
        alloc_id(&mut self.next_id, &mut self.last_arrival, now)
    }

    /// Appends a request to its bank's `kind` queue. Ids are allocated
    /// in nondecreasing arrival order, which keeps every queue in
    /// (arrival, id) order: the FR-FCFS picks rely on it.
    fn push_request(&mut self, kind: QueueKind, req: MemRequest) {
        let bank = self.slot_map.bank_key(&req.addr);
        push_in_order(self.banks[bank].queue_mut(kind), req);
        self.index.mark(bank);
        match kind {
            QueueKind::Read => self.reads_queued += 1,
            QueueKind::Write => self.writes_queued += 1,
            QueueKind::Prefetch => {}
        }
    }

    /// Takes request `idx` out of bank `bank`'s `kind` queue, keeping
    /// the occupancy counts and the drain-set size in step.
    // rop-lint: hot
    fn remove_request(&mut self, kind: QueueKind, bank: usize, idx: usize) -> Queued {
        let q = self.banks[bank].queue_mut(kind).remove(idx);
        self.index.mark(bank);
        match kind {
            QueueKind::Read => self.reads_queued -= 1,
            QueueKind::Write => self.writes_queued -= 1,
            QueueKind::Prefetch => {}
        }
        if q.in_set {
            self.drain_left[self.slot_map.of_bank(bank)] -= 1;
        }
        q
    }

    /// Records an accepted demand arrival with the analysis and ROP hooks.
    fn note_arrival(
        &mut self,
        rank: usize,
        bank: usize,
        addr: crate::address::DecodedAddr,
        is_read: bool,
        now: Cycle,
    ) {
        let slot = self.slot_map.of(&addr);
        self.analysis[slot].note_arrival(now, is_read);
        self.mech.on_bank_activity(slot, now);
        if let Some(rop) = &mut self.rop {
            let line_in_bank = addr.line_in_bank(self.cfg.dram.geometry.lines_per_row);
            rop.engines[rank].note_access(bank, line_in_bank, is_read, now);
        }
    }

    /// Advances the controller at `now`. Returns the next cycle at which
    /// another call can possibly make progress.
    ///
    /// A tick before the last full tick's hint, with no enqueue since
    /// that tick, cannot act: it returns that hint without doing the
    /// work (DESIGN.md §8). [`Self::tick_reference`] always does it.
    // rop-lint: hot
    pub fn tick(&mut self, now: Cycle) -> Cycle {
        if !self.touched && now < self.hint {
            #[cfg(debug_assertions)]
            self.check_idle(now);
            return self.hint;
        }
        self.tick_reference(now)
    }

    /// [`Self::tick`] without the idle shortcut: every call runs the
    /// full tick. The per-cycle reference loops call this, so their
    /// oracle does not rest on the shortcut.
    // rop-lint: hot
    pub fn tick_reference(&mut self, now: Cycle) -> Cycle {
        self.touched = false;
        self.stats.ticks += 1;
        let hint = self.tick_inner(now);
        self.hint = hint;
        self.stats.refresh_slot_visits += self.refresh.take_visits();
        #[cfg(debug_assertions)]
        self.check_active(now);
        hint
    }

    // rop-lint: hot
    fn tick_inner(&mut self, now: Cycle) -> Cycle {
        if let Some(rop) = &mut self.rop {
            rop.buffer.set_trace_cycle(now);
        }
        // 1. Prefetch data arriving from DRAM fills the SRAM buffer.
        self.apply_fills(now);

        // 2. Refresh bookkeeping.
        self.handle_refresh_completions(now);
        self.handle_refresh_dues(now);

        // 3. Write-drain hysteresis.
        if self.writes_queued >= self.cfg.write_drain_high {
            self.write_drain = true;
        } else if self.writes_queued <= self.cfg.write_drain_low {
            self.write_drain = false;
        }

        // 4. One command this cycle: refresh preparation first, then the
        //    request scheduler.
        let mut earliest_hint = Cycle::MAX;
        if let Some(hint) = self.try_refresh_prep(now) {
            match hint {
                Ok(()) => return now.saturating_add(1), // command issued
                Err(e) => earliest_hint = earliest_hint.min(e),
            }
        }
        match self.schedule(now) {
            Ok(()) => return now.saturating_add(1),
            Err(e) => earliest_hint = earliest_hint.min(e),
        }

        // Nothing issued: compute the fast-forward hint.
        self.refresh.settle_floor();
        if let Some(e) = self.mech.next_event(&self.refresh, now) {
            earliest_hint = earliest_hint.min(e);
        }
        if let Some(e) = self.grace_expiry(now) {
            earliest_hint = earliest_hint.min(e);
        }
        if let Some(&(_, at)) = self.pending_fills.iter().min_by_key(|&&(_, at)| at) {
            earliest_hint = earliest_hint.min(at.max(now.saturating_add(1)));
        }
        earliest_hint.max(now.saturating_add(1))
    }

    /// The next cycle at which a Draining slot's ROP prefetch-grace
    /// window runs out. [`Self::drain_complete`] turns true then even
    /// with prefetches still queued, so the tick hint must name it; the
    /// manager's own hint only knows the postpone deadline.
    // rop-lint: hot
    fn grace_expiry(&self, now: Cycle) -> Option<Cycle> {
        self.rop.as_ref()?;
        self.refresh.note_visits(self.active.len());
        self.active
            .iter()
            .filter_map(|&slot| match self.refresh.state(slot) {
                RefreshState::Draining { due } => Some(due.saturating_add(self.cfg.prefetch_grace)),
                _ => None,
            })
            .filter(|&at| at > now)
            .min()
    }

    // rop-lint: hot
    fn apply_fills(&mut self, now: Cycle) {
        if self.rop.is_none() || self.pending_fills.is_empty() {
            return;
        }
        let rop = self.rop.as_mut().expect("checked above");
        let mut filled = std::mem::take(&mut self.scratch.filled);
        filled.clear();
        self.pending_fills.retain(|&(key, at)| {
            if at <= now {
                rop.buffer.insert(key);
                filled.push(key);
                false
            } else {
                true
            }
        });
        self.stats.prefetch_fills += filled.len() as u64;
        if filled.is_empty() {
            self.scratch.filled = filled;
            return;
        }
        // Late fills: prefetch data issued just before REF can land after
        // the rank froze. Reads already swept (and skipped as in-flight)
        // get matched against the arriving lines, exactly as an MSHR
        // would match a fill against its waiting queue — oldest first.
        let latency = rop.latency;
        let mut found = std::mem::take(&mut self.scratch.found);
        found.clear();
        for (bank, bq) in self.banks.iter().enumerate() {
            for q in &bq.reads {
                let slot = self.slot_map.of_bank(bank);
                if self.request_frozen(slot, &q.req.addr, now) && filled.contains(&q.req.line_addr)
                {
                    found.push((q.req.id, bank));
                }
            }
        }
        found.sort_unstable();
        for &(id, bank) in &found {
            let req = self.remove_read(bank, id).req;
            let slot = self.slot_map.of_bank(bank);
            let rop = self.rop.as_mut().expect("rop enabled");
            rop.refresh_lookups[slot] += 1;
            rop.refresh_hits[slot] += 1;
            let served = rop.buffer.lookup(req.line_addr);
            debug_assert!(served, "line was just inserted");
            self.stats.sram_lookups += 1;
            self.stats.sram_hits += 1;
            self.completions.push(Completion {
                id: req.id,
                core: req.core,
                done_at: now.saturating_add(latency),
                from_sram: true,
            });
            self.stats.reads_completed += 1;
            self.stats.reads_from_sram += 1;
            self.stats.sum_read_latency += now.saturating_add(latency) - req.arrival;
        }
        self.scratch.found = found;
        self.scratch.filled = filled;
    }

    // rop-lint: hot
    fn handle_refresh_completions(&mut self, now: Cycle) {
        let mut slots = std::mem::take(&mut self.scratch.slots);
        slots.clear();
        self.refresh.poll_complete_into(now, &mut slots);
        for &slot in &slots {
            // Thawed: off the active list, and back to the Idle gate.
            let at = self
                .active
                .binary_search(&slot)
                .expect("a thawed slot was active");
            self.active.remove(at);
            if self.gates[slot] != SlotGate::default() {
                self.gates[slot] = SlotGate::default();
                for bank in self.slot_map.banks_of(slot) {
                    self.index.mark(bank);
                }
            }
            let rank = self.slot_map.rank(slot);
            let scope_bank = self.slot_map.bank(slot);
            // A skipped RAIDR round never started (sentinel stays at
            // `Cycle::MAX`): no RefreshEnd, nothing was blocked.
            let started = self.refresh_started_at[slot];
            let scope_sa = self.refresh_scope_sa[slot];
            self.refresh_started_at[slot] = Cycle::MAX;
            self.refresh_scope_sa[slot] = None;
            if started != Cycle::MAX {
                self.trace.emit(|| TraceEvent::RefreshEnd {
                    cycle: now,
                    rank,
                    bank: scope_bank,
                });
            }
            // Blocked-cycle accounting: reads still queued for the
            // thawed scope were stalled from max(refresh start,
            // arrival) until now. Purely observational — identical
            // scheduling either way.
            if started != Cycle::MAX {
                let mut blocked = 0u64;
                let mut ids = std::mem::take(&mut self.blocked_ids);
                let first = ids.len();
                for bank in self.slot_map.banks_of(slot) {
                    for q in &self.banks[bank].reads {
                        if let Some(sa) = scope_sa {
                            if self.cfg.dram.geometry.subarray_of_row(q.req.addr.row) != sa {
                                continue;
                            }
                        }
                        blocked += now - started.max(q.req.arrival);
                        if self.track_blocked {
                            ids.push(q.req.id);
                        }
                    }
                }
                // Queue order across the slot's banks: oldest first.
                ids[first..].sort_unstable();
                self.blocked_ids = ids;
                // A u64 counter of blocked cycles cannot overflow in any
                // reachable run length. // rop-lint: allow(cycle-cast)
                self.stats.refresh_blocked_cycles += blocked;
            }
            if let Some(rop) = &mut self.rop {
                let hits = rop.refresh_hits[slot];
                let lookups = rop.refresh_lookups[slot];
                let transition = rop.engines[rank].refresh_completed(now, hits, lookups);
                match transition {
                    PhaseTransition::StartObserving | PhaseTransition::StartTraining => {
                        // Buffer power follows the union of engine phases:
                        // on if any rank is out of Training.
                        let any_active =
                            rop.engines.iter().any(|e| e.phase() != RopPhase::Training);
                        if any_active {
                            rop.buffer.power_on();
                        } else {
                            rop.buffer.power_off();
                        }
                    }
                    PhaseTransition::None => {}
                }
                // Lazy buffer handoff: the lines stay resident (serving
                // demand hits, which is what keeps prefetching
                // bandwidth-neutral) until another rank claims the buffer
                // for its own refresh, or the buffer powers off.
                if !rop.buffer.is_powered() {
                    rop.active_rank = None;
                    self.pending_fills.clear();
                }
                self.update_engine_due(rank);
            }
        }
        self.scratch.slots = slots;
    }

    // rop-lint: hot
    fn handle_refresh_dues(&mut self, now: Cycle) {
        // `busy` for the mechanism: does the slot's scope have pending
        // demand?
        let slot_map = self.slot_map;
        let banks = &self.banks;
        let busy = |slot: usize| {
            slot_map
                .banks_of(slot)
                .any(|b| !banks[b].reads.is_empty() || !banks[b].writes.is_empty())
        };
        let mut due = std::mem::take(&mut self.scratch.slots);
        due.clear();
        self.mech
            .poll_due(&mut self.refresh, now, &busy, self.write_drain, &mut due);
        for &slot in &due {
            let at = self
                .active
                .binary_search(&slot)
                .expect_err("a due slot was Idle");
            self.active.insert(at, slot);
            let rank = self.slot_map.rank(slot);
            let shape = self.mech.round_shape(&self.refresh, slot);
            // RAIDR rounds with no retention bin due never touch the
            // bus: the slot cycles immediately (no drain, no freeze).
            if let RoundShape::Skip { round } = shape {
                self.mech.on_refresh_skipped(&mut self.refresh, slot, now);
                self.trace.emit(|| TraceEvent::RetentionRound {
                    cycle: now,
                    rank,
                    round,
                    covers_128: false,
                    covers_256: false,
                });
                continue;
            }
            self.trace
                .emit(|| TraceEvent::DrainStart { cycle: now, rank });
            // Snapshot the drain set: everything queued for this slot's
            // scope (rank, or single bank in per-bank mode; under SARP
            // only the refreshing subarray needs to drain — the rest of
            // the bank keeps flowing through the refresh). Every
            // request of the slot has its membership flag rewritten.
            let sa_filter = match shape {
                RoundShape::Subarray { subarray } => Some(subarray),
                _ => None,
            };
            let geom = self.cfg.dram.geometry;
            let mut members = 0;
            for bank in slot_map.banks_of(slot) {
                let bq = &mut self.banks[bank];
                self.index.mark(bank);
                for q in bq.reads.iter_mut().chain(bq.writes.iter_mut()) {
                    q.in_set =
                        sa_filter.is_none_or(|sa| geom.subarray_of_row(q.req.addr.row) == sa);
                    members += usize::from(q.in_set);
                }
            }
            self.drain_left[slot] = members;

            if let Some(rop) = &mut self.rop {
                // The buffer is claimable when free, already owned by this
                // slot, or owned by a slot whose refresh cycle is over
                // (its lines are only serving residual demand hits).
                let claimable = match rop.active_rank {
                    None => true,
                    Some(owner) if owner == slot => true,
                    Some(owner) => self.refresh.state(owner) == RefreshState::Idle,
                };
                if claimable
                    && rop.buffer.is_powered()
                    && rop.engines[rank].decide_prefetch_gate(now)
                {
                    if rop.active_rank != Some(slot) && rop.active_rank.is_some() {
                        // Taking over from another slot: its lines are
                        // dead weight for this refresh.
                        rop.buffer.invalidate_all();
                        self.pending_fills.clear();
                    }
                    // Candidates are generated later, once the drain has
                    // emptied the slot's demand queue (see
                    // `try_refresh_prep`): the drained requests move the
                    // stream, and extrapolating now would go stale.
                    rop.active_rank = Some(slot);
                    rop.prefetch_pending[slot] = true;
                }
            }
        }
        if self.trace.is_enabled() {
            for &(slot, debt) in self.mech.postponed() {
                let rank = slot_map.rank(slot);
                self.trace.emit(|| TraceEvent::RefreshPostponed {
                    cycle: now,
                    rank,
                    debt,
                });
            }
        }
        self.scratch.slots = due;
    }

    /// Generates the pending prefetch candidates for `rank` and queues
    /// them as prefetch requests. Called exactly once per positive
    /// decision, at the moment the demand drain completes.
    fn fill_prefetch_queue(&mut self, slot: usize, now: Cycle) {
        let rank = self.slot_map.rank(slot);
        let bank = self.slot_map.bank(slot);
        let grace = self.cfg.prefetch_grace;
        let capacity = self
            .cfg
            .rop
            .as_ref()
            .map(|r| r.buffer_capacity)
            .unwrap_or(0);
        let Some(rop) = &mut self.rop else { return };
        rop.prefetch_pending[slot] = false;
        // Lead by the full grace window: the fill of a busy channel takes
        // most of the grace, so candidates extrapolate to where the
        // stream will be when the rank actually freezes. Lines between
        // LastAddr and the lead are served by DRAM before the freeze, so
        // under-coverage there costs nothing.
        let cands = match bank {
            // Per-bank refresh: only `bank` freezes (for tRFCpb, a
            // fraction of tRFC), so a fraction of the buffer suffices.
            Some(b) => rop.engines[rank].generate_candidates_for_bank(
                b,
                (capacity / 4).max(8).min(capacity.max(1)),
                now,
                grace,
            ),
            None => rop.engines[rank].generate_candidates(now, grace),
        };
        for cand in cands {
            let line_addr = self
                .mapping
                .encode_bank_line(rank, cand.bank, cand.line_offset);
            let addr = self.mapping.decode(line_addr);
            let id = alloc_id(&mut self.next_id, &mut self.last_arrival, now);
            let bank = self.slot_map.bank_key(&addr);
            push_in_order(
                &mut self.banks[bank].prefetches,
                MemRequest {
                    id,
                    line_addr,
                    addr,
                    is_write: false,
                    arrival: now,
                    core: usize::MAX,
                    is_prefetch: true,
                },
            );
            self.index.mark(bank);
            self.stats.prefetches_issued += 1;
        }
    }

    /// True when `slot`'s snapshot of demand requests has been issued (or
    /// the postpone deadline forces the refresh).
    fn demand_drained(&self, slot: usize, now: Cycle) -> bool {
        self.refresh.drain_deadline_passed(slot, now) || self.drain_left[slot] == 0
    }

    /// True when `slot`'s drain obligations are met: the demand drain set
    /// has issued, and its prefetch requests have either issued or used
    /// up their opportunistic grace window.
    fn drain_complete(&self, slot: usize, now: Cycle) -> bool {
        if self.refresh.drain_deadline_passed(slot, now) {
            return true;
        }
        if !self.demand_drained(slot, now) {
            return false;
        }
        let prefetch_done = (!self
            .slot_map
            .banks_of(slot)
            .any(|b| !self.banks[b].prefetches.is_empty())
            && !self.rop.as_ref().is_some_and(|r| r.prefetch_pending[slot]))
            || self
                .refresh
                .draining_longer_than(slot, now, self.cfg.prefetch_grace);
        prefetch_done
    }

    /// Refresh preparation: for a Draining rank whose drain is complete,
    /// precharge open banks and then issue REF. `Ok(())` = command issued;
    /// `Err(earliest)` = nothing issuable now, retry at `earliest`.
    fn try_refresh_prep(&mut self, now: Cycle) -> Option<Result<(), Cycle>> {
        let mut earliest = Cycle::MAX;
        let mut any = false;
        self.refresh.note_visits(self.active.len());
        // By index: a slot stays on the list through this loop (only a
        // completion poll takes one off), and an issue returns at once.
        for i in 0..self.active.len() {
            let slot = self.active[i];
            if !matches!(self.refresh.state(slot), RefreshState::Draining { .. }) {
                continue;
            }
            let rank = self.slot_map.rank(slot);
            // The demand drain just finished: now is the moment to
            // extrapolate the stream into prefetch candidates.
            if self.demand_drained(slot, now)
                && self.rop.as_ref().is_some_and(|r| r.prefetch_pending[slot])
                && !self.refresh.drain_deadline_passed(slot, now)
            {
                self.fill_prefetch_queue(slot, now);
            }
            if !self.drain_complete(slot, now) {
                continue;
            }
            any = true;
            // What this round puts on the bus is the mechanism's call.
            let shape = self.mech.round_shape(&self.refresh, slot);
            let sa_target = match shape {
                RoundShape::Subarray { subarray } => Some(subarray),
                _ => None,
            };
            // Close any open bank in the refresh scope (a single bank in
            // per-bank mode, the whole rank otherwise). Under SARP only
            // a row open in the *target* subarray needs closing; rows in
            // sibling subarrays stay open through the refresh.
            let banks = self.cfg.dram.geometry.banks_per_rank;
            let (scope_lo, scope_hi) = match self.slot_map.bank(slot) {
                Some(b) => (b, b + 1),
                None => (0, banks),
            };
            let mut all_idle = true;
            for bank in scope_lo..scope_hi {
                if let Some(row) = self.device.open_row(rank, bank) {
                    if sa_target.is_some_and(|sa| self.device.subarray_of_row(row) != sa) {
                        continue;
                    }
                    all_idle = false;
                    let cmd = Command::Precharge { rank, bank };
                    match self.device.earliest_issue(&cmd, now) {
                        Ok(e) if e <= now => {
                            self.issue_command(&cmd, now);
                            return Some(Ok(()));
                        }
                        Ok(e) => earliest = earliest.min(e),
                        Err(_) => {}
                    }
                }
            }
            if all_idle {
                let issued = match shape {
                    RoundShape::Standard => {
                        let cmd = match self.slot_map.bank(slot) {
                            Some(bank) => Command::RefreshBank { rank, bank },
                            None => Command::Refresh { rank },
                        };
                        match self.device.earliest_issue(&cmd, now) {
                            Ok(e) if e <= now => Some(self.issue_command(&cmd, now)),
                            Ok(e) => {
                                earliest = earliest.min(e);
                                None
                            }
                            Err(_) => None,
                        }
                    }
                    RoundShape::Subarray { subarray } => {
                        let bank = self.slot_map.bank(slot).expect("SARP refresh is per-bank");
                        match self
                            .device
                            .earliest_subarray_refresh(rank, bank, subarray, now)
                        {
                            Ok(e) if e <= now => {
                                self.index.epoch += 1;
                                Some(
                                    self.device
                                        .try_issue_subarray_refresh(rank, bank, subarray, now)
                                        .expect("legal at its earliest-issue cycle"),
                                )
                            }
                            Ok(e) => {
                                earliest = earliest.min(e);
                                None
                            }
                            Err(_) => None,
                        }
                    }
                    RoundShape::Scaled {
                        duration,
                        round,
                        covers_128,
                        covers_256,
                    } => match self.device.earliest_issue(&Command::Refresh { rank }, now) {
                        Ok(e) if e <= now => {
                            self.index.epoch += 1;
                            let o = self
                                .device
                                .try_issue_refresh_scaled(rank, now, duration)
                                .expect("legal at its earliest-issue cycle");
                            self.trace.emit(|| TraceEvent::RetentionRound {
                                cycle: now,
                                rank,
                                round,
                                covers_128,
                                covers_256,
                            });
                            Some(o)
                        }
                        Ok(e) => {
                            earliest = earliest.min(e);
                            None
                        }
                        Err(_) => None,
                    },
                    // Skips resolve at due time, never reach Draining.
                    RoundShape::Skip { .. } => {
                        unreachable!("skipped round entered drain") // rop-lint: allow(no-panic)
                    }
                };
                if let Some(outcome) = issued {
                    self.mech
                        .on_refresh_issued(&mut self.refresh, slot, now, outcome.completes_at);
                    self.refresh_started_at[slot] = now;
                    self.refresh_scope_sa[slot] = sa_target;
                    self.analysis[slot].refresh_started(now);
                    let scope_bank = self.slot_map.bank(slot);
                    self.trace
                        .emit(|| TraceEvent::DrainEnd { cycle: now, rank });
                    self.trace.emit(|| TraceEvent::RefreshStart {
                        cycle: now,
                        rank,
                        bank: scope_bank,
                        subarray: sa_target,
                    });
                    if let Some(rop) = &mut self.rop {
                        rop.refresh_hits[slot] = 0;
                        rop.refresh_lookups[slot] = 0;
                        rop.prefetch_pending[slot] = false;
                        rop.engines[rank].refresh_started_scoped(now, scope_bank);
                        // Prefetches for this slot that have not issued
                        // can no longer help; drop them.
                        for bank in self.slot_map.banks_of(slot) {
                            let bq = &mut self.banks[bank];
                            if !bq.prefetches.is_empty() {
                                self.stats.prefetches_dropped += bq.prefetches.len() as u64;
                                bq.prefetches.clear();
                                self.index.mark(bank);
                            }
                        }
                    }
                    self.sweep_blocked_reads(slot, now);
                    return Some(Ok(()));
                }
            }
        }
        if any {
            Some(Err(earliest))
        } else {
            None
        }
    }

    /// At refresh issue, reads still queued for the frozen rank are
    /// blocked for the whole `tRFC`. They count toward the blocked-read
    /// analysis (`A` side), and with ROP enabled they get an SRAM-buffer
    /// lookup: hits complete from SRAM immediately, misses wait out the
    /// refresh in the queue.
    fn sweep_blocked_reads(&mut self, slot: usize, now: Cycle) {
        let rank = self.slot_map.rank(slot);
        // Under SARP only reads aimed at the refreshing subarray are
        // blocked; siblings keep flowing and are not swept.
        let scope_sa = self.refresh_scope_sa[slot];
        let geom = self.cfg.dram.geometry;
        let mut blocked = std::mem::take(&mut self.scratch.found);
        blocked.clear();
        for bank in self.slot_map.banks_of(slot) {
            blocked.extend(
                self.banks[bank]
                    .reads
                    .iter()
                    .filter(|q| {
                        scope_sa.is_none_or(|sa| geom.subarray_of_row(q.req.addr.row) == sa)
                    })
                    .map(|q| (q.req.id, bank)),
            );
        }
        // Oldest first across the slot's banks.
        blocked.sort_unstable();
        if blocked.is_empty() {
            self.scratch.found = blocked;
            return;
        }
        self.analysis[slot].note_blocked_at_refresh_start(blocked.len() as u64);
        let Some(rop) = &mut self.rop else {
            self.stats.reads_blocked_by_refresh += blocked.len() as u64;
            if self.track_blocked {
                self.blocked_ids.extend(blocked.iter().map(|&(id, _)| id));
            }
            self.scratch.found = blocked;
            return;
        };
        rop.engines[rank].note_blocked_queued(blocked.len() as u64);
        if !rop.buffer.is_powered() {
            // Training phase: the buffer is off, nothing can be served.
            self.stats.reads_blocked_by_refresh += blocked.len() as u64;
            if self.track_blocked {
                self.blocked_ids.extend(blocked.iter().map(|&(id, _)| id));
            }
            self.scratch.found = blocked;
            return;
        }
        let latency = rop.latency;
        for &(id, bank) in &blocked {
            let idx = self.read_index(bank, id);
            let req = self.banks[bank].reads[idx].req;
            // The line may still be in flight from a just-issued prefetch;
            // defer judgement — `apply_fills` re-matches it on arrival.
            if self
                .pending_fills
                .iter()
                .any(|&(key, _)| key == req.line_addr)
            {
                continue;
            }
            let rop = self.rop.as_mut().expect("rop enabled");
            rop.refresh_lookups[slot] += 1;
            self.stats.sram_lookups += 1;
            if rop.buffer.lookup(req.line_addr) {
                rop.refresh_hits[slot] += 1;
                self.stats.sram_hits += 1;
                self.remove_request(QueueKind::Read, bank, idx);
                self.completions.push(Completion {
                    id: req.id,
                    core: req.core,
                    done_at: now.saturating_add(latency),
                    from_sram: true,
                });
                self.stats.reads_completed += 1;
                self.stats.reads_from_sram += 1;
                self.stats.sum_read_latency += now.saturating_add(latency) - req.arrival;
            } else {
                self.stats.reads_blocked_by_refresh += 1;
                if self.track_blocked {
                    self.blocked_ids.push(id);
                }
            }
        }
        self.scratch.found = blocked;
    }

    /// Position of the queued read `id` in bank `bank`'s read queue.
    fn read_index(&self, bank: usize, id: u64) -> usize {
        self.banks[bank]
            .reads
            .binary_search_by_key(&id, |q| q.req.id)
            .expect("read is queued")
    }

    /// Removes the queued read `id` from bank `bank`.
    fn remove_read(&mut self, bank: usize, id: u64) -> Queued {
        let idx = self.read_index(bank, id);
        self.remove_request(QueueKind::Read, bank, idx)
    }

    /// `slot`'s admission state at `now`.
    // rop-lint: hot
    fn slot_gate(&self, slot: usize, now: Cycle) -> SlotGate {
        let frozen = self.slot_frozen(slot, now);
        let draining = matches!(self.refresh.state(slot), RefreshState::Draining { .. });
        // Demand keeps flowing through the drain and the prefetch burst
        // (prefetches yield to it on the command bus); only the final
        // precharge-and-REF stage quiesces the scope, and then only for
        // requests outside the drain set.
        let quiesced = draining && !frozen && self.drain_complete(slot, now);
        SlotGate {
            draining,
            blocked: frozen || quiesced,
            blocked_set: frozen,
            sa_scope: self.slot_sa_scope(slot, now),
        }
    }

    /// Subarray scope of `slot`'s current freeze/quiesce, when the
    /// mechanism refreshes at subarray granularity. Requests to rows
    /// *outside* the returned subarray are exempt from the slot's
    /// admission gates (SARP's whole point: siblings stay accessible).
    // rop-lint: hot
    fn slot_sa_scope(&self, slot: usize, now: Cycle) -> Option<usize> {
        if !matches!(self.mech, Mechanism::Sarp(_)) {
            return None;
        }
        let rank = self.slot_map.rank(slot);
        let bank = self.slot_map.bank(slot)?;
        if self.slot_frozen(slot, now) {
            return self.device.frozen_subarray(rank, bank, now);
        }
        if matches!(self.refresh.state(slot), RefreshState::Draining { .. }) {
            if let RoundShape::Subarray { subarray } = self.mech.round_shape(&self.refresh, slot) {
                return Some(subarray);
            }
        }
        None
    }

    /// FR-FCFS scheduling. `Ok(())` = one command issued; `Err(earliest)`
    /// = nothing ready, next possible issue at `earliest`.
    // rop-lint: hot
    fn schedule(&mut self, now: Cycle) -> Result<(), Cycle> {
        self.stats.schedule_calls += 1;
        let result = self.schedule_indexed(now);
        if result.is_ok() {
            self.stats.schedule_issued += 1;
        }
        #[cfg(debug_assertions)]
        self.check_index(now);
        result
    }

    /// Brings the candidate index up to date: recomputes each active
    /// slot's gate, marking the slot's banks when it moved, then
    /// re-enters every marked bank. An Idle slot's gate is the default,
    /// set once when it thaws.
    // rop-lint: hot
    fn refresh_index(&mut self, now: Cycle) {
        self.refresh.note_visits(self.active.len());
        for i in 0..self.active.len() {
            let slot = self.active[i];
            let gate = self.slot_gate(slot, now);
            if gate != self.gates[slot] {
                self.gates[slot] = gate;
                for bank in self.slot_map.banks_of(slot) {
                    self.index.mark(bank);
                }
            }
        }
        let geom = self.cfg.dram.geometry;
        let mut stale = std::mem::take(&mut self.index.stale);
        for &b in &stale {
            let bank = b as usize;
            let bq = &mut self.banks[bank];
            let open = self
                .device
                .open_row(bank / geom.banks_per_rank, bank % geom.banks_per_rank);
            let picks = bq.scan(bank, self.gates[self.slot_map.of_bank(bank)], open, &geom);
            self.stats.index_moves += self.index.reenter(bank, &bq.picks, &picks);
            bq.picks = picks;
            self.stats.schedule_entries_scanned += bq.len() as u64;
        }
        stale.clear();
        self.index.stale = stale;
    }

    /// One scheduling decision over the candidate index.
    ///
    /// Tier 0: draining-slot demand (must issue before its REF); tier 1:
    /// regular traffic; tier 2: ROP prefetches — strictly
    /// opportunistic, they only get bus slots no demand request can use
    /// this cycle (§IV-D's "minimise interference with demand
    /// requests"). Within a tier, oldest first.
    ///
    /// A failed issue attempt mutates nothing, and every row hit of one
    /// (bank, read/write) group needs the same column command timing,
    /// so each group's oldest hit stands for all of them. A candidate
    /// whose bound lies after `now` cannot issue, so it is passed over
    /// without asking the device. A row hit's bound is first raised to
    /// the channel's column floor, which no column command can beat.
    // rop-lint: hot
    fn schedule_indexed(&mut self, now: Cycle) -> Result<(), Cycle> {
        self.refresh_index(now);
        let sw = usize::from(self.write_drain || self.reads_queued == 0);
        let Some(oldest) = self.index.heads[sw].first() else {
            return Err(Cycle::MAX);
        };
        let oldest = oldest.pick;
        let mut m = PassMin {
            now,
            epoch: self.index.epoch,
            earliest: Cycle::MAX,
            stale: Cycle::MAX,
        };

        // Pass 0: starvation guard — serve the oldest over-age request.
        if self.queued(oldest).req.age(now) > self.cfg.age_cap {
            if m.passed_over(&self.index.heads[sw][0]) {
                self.stats.bound_skips += 1;
            } else {
                match self.try_listed(ListKind::Heads, sw, 0, now) {
                    Ok(()) => return Ok(()),
                    Err(e) => m.earliest = m.earliest.min(e),
                }
            }
        }

        // Pass 1: ready row-hit column commands, oldest group first.
        let floor = [
            self.device.column_floor(false),
            self.device.column_floor(true),
        ];
        for i in 0..self.index.hits[sw].len() {
            let c = &mut self.index.hits[sw][i];
            let write = usize::from(c.pick.kind == QueueKind::Write);
            c.bound = c.bound.max(floor[write]);
            if m.passed_over(c) {
                self.stats.bound_skips += 1;
                continue;
            }
            match self.try_listed(ListKind::Hits, sw, i, now) {
                Ok(()) => return Ok(()),
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
                self.stats.bound_skips += 1;
                continue;
            }
            match self.try_listed(ListKind::Heads, sw, i, now) {
                Ok(()) => return Ok(()),
                Err(e) => m.earliest = m.earliest.min(e),
            }
        }

        // An older bound at or above the minimum cannot lower it.
        if m.stale < m.earliest {
            return Err(self.exact_hint(sw, now, m.earliest));
        }
        Err(m.earliest)
    }

    /// Asks about the candidate at `i` in list `kind` and issues it when
    /// ready. A failed ask leaves its answer as the new bound.
    // rop-lint: hot
    fn try_listed(&mut self, kind: ListKind, sw: usize, i: usize, now: Cycle) -> Result<(), Cycle> {
        let pick = self.index.list(kind, sw)[i].pick;
        let result = self.issue_for(pick, now);
        if let Err(e) = result {
            self.set_bound(kind, sw, i, e);
        }
        result
    }

    /// The exact tick hint of a call that issued nothing. `earliest` is
    /// the minimum over the answers this call got and the bounds of the
    /// current epoch. Every other candidate holds a bound after `now`
    /// that may have risen since: it is asked again only while its
    /// bound is below the running minimum (its true answer is at least
    /// its bound, so the rest cannot lower the minimum).
    // rop-lint: hot
    fn exact_hint(&mut self, sw: usize, now: Cycle, mut earliest: Cycle) -> Cycle {
        for kind in [ListKind::Hits, ListKind::Heads] {
            for i in 0..self.index.list(kind, sw).len() {
                let c = self.index.list(kind, sw)[i];
                let tried_as_hit = kind == ListKind::Heads && c.pick.hit;
                if tried_as_hit || c.epoch == self.index.epoch || c.bound >= earliest {
                    continue;
                }
                let (_, e) = self.ask(c.pick, now);
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

    /// The command `req` needs next: its column command when its row is
    /// open, PRE on a row conflict, ACT on a closed bank.
    // rop-lint: hot
    fn next_command(&self, req: &MemRequest) -> Command {
        let (rank, bank, row, column) = (req.addr.rank, req.addr.bank, req.addr.row, req.addr.col);
        match self.device.open_row(rank, bank) {
            Some(open) if open == row && req.is_write => Command::Write { rank, bank, column },
            Some(open) if open == row => Command::Read { rank, bank, column },
            Some(_) => Command::Precharge { rank, bank },
            None => Command::Activate { rank, bank, row },
        }
    }

    /// Asks the device when pick `p`'s next command can issue
    /// (`Cycle::MAX`: not in the current state). Counts one issue
    /// attempt.
    // rop-lint: hot
    fn ask(&mut self, p: Pick, now: Cycle) -> (Command, Cycle) {
        self.stats.issue_attempts += 1;
        let cmd = self.next_command(&self.queued(p).req);
        let e = match self.device.earliest_issue(&cmd, now) {
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

    /// Issues the next command required by request `p`. `Ok(())`
    /// when a command was issued (column commands also retire the
    /// request); `Err(earliest)` when timing forbids issuing now.
    // rop-lint: hot
    fn issue_for(&mut self, p: Pick, now: Cycle) -> Result<(), Cycle> {
        let (cmd, e) = self.ask(p, now);
        if e > now {
            return Err(e);
        }
        let Queued { req, acted, .. } = *self.queued(p);
        let outcome = self.issue_command(&cmd, now);
        match cmd {
            Command::Read { rank, bank, .. } | Command::Write { rank, bank, .. } => {
                if !req.is_prefetch {
                    self.stats.row_buffer.record(!acted);
                    if !req.is_write {
                        // The prediction table trails the *served* read
                        // stream (see `RopEngine::note_served`).
                        if let Some(rop) = &mut self.rop {
                            let line_in_bank =
                                req.addr.line_in_bank(self.cfg.dram.geometry.lines_per_row);
                            rop.engines[rank].note_served(bank, line_in_bank, now);
                        }
                    }
                }
                self.retire(p, outcome.data_at.expect("column command"));
            }
            Command::Activate { .. } => {
                self.banks[p.bank as usize].queue_mut(p.kind)[p.idx as usize].acted = true;
            }
            _ => {}
        }
        Ok(())
    }

    /// Issues `cmd` at `now` (the caller has checked it is legal). Every
    /// command starts a new index epoch; ACT and PRE change their bank's
    /// open row, so they also mark the bank stale with its row moved.
    // rop-lint: hot
    fn issue_command(&mut self, cmd: &Command, now: Cycle) -> IssueOutcome {
        self.index.epoch += 1;
        if let Command::Activate { rank, bank, .. } | Command::Precharge { rank, bank } = *cmd {
            let key = rank * self.cfg.dram.geometry.banks_per_rank + bank;
            self.index.mark(key);
            self.index.row_moved[key] = true;
        }
        self.device.issue(cmd, now)
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
    fn check_index(&self, now: Cycle) {
        let geom = self.cfg.dram.geometry;
        for (bank, bq) in self.banks.iter().enumerate() {
            if self.index.is_stale[bank] {
                continue;
            }
            let open = self
                .device
                .open_row(bank / geom.banks_per_rank, bank % geom.banks_per_rank);
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
                    let cmd = self.next_command(&self.queued(c.pick).req);
                    let e = self.device.earliest_issue(&cmd, now).unwrap_or(Cycle::MAX);
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

    /// The debug self-check run on a tick the idle shortcut skips. No
    /// bank is marked (every enqueue that marks one sets `touched`), the
    /// index and its bounds hold at `now`, and no active slot's gate has
    /// moved since the last full tick: its hint covers every gate change.
    #[cfg(debug_assertions)]
    fn check_idle(&self, now: Cycle) {
        assert!(
            self.index.stale.is_empty(),
            "banks {:?} marked since the last full tick, skipped at cycle {now}",
            self.index.stale
        );
        self.check_index(now);
        for &slot in &self.active {
            assert_eq!(
                self.slot_gate(slot, now),
                self.gates[slot],
                "slot {slot}'s gate moved before the hint {}, at cycle {now}",
                self.hint
            );
        }
    }

    /// The active list holds exactly the non-Idle slots, in slot order,
    /// and every Idle slot's gate, stored and recomputed, is the default.
    #[cfg(debug_assertions)]
    fn check_active(&self, now: Cycle) {
        // Compared without collecting: the allocation audit runs this
        // check too.
        let busy = (0..self.refresh_slots())
            .filter(|&slot| self.refresh.state(slot) != RefreshState::Idle);
        assert!(
            self.active.iter().copied().eq(busy),
            "active refresh slots {:?} at cycle {now}",
            self.active
        );
        for slot in (0..self.refresh_slots()).filter(|s| self.active.binary_search(s).is_err()) {
            assert_eq!(
                self.gates[slot],
                SlotGate::default(),
                "slot {slot} at {now}"
            );
            assert_eq!(
                self.slot_gate(slot, now),
                SlotGate::default(),
                "Idle slot {slot} gated at cycle {now}"
            );
        }
    }

    /// Removes a request whose column command issued, delivering its
    /// effect (completion, fill, or write retirement).
    // rop-lint: hot
    fn retire(&mut self, p: Pick, data_at: Cycle) {
        let req = self
            .remove_request(p.kind, p.bank as usize, p.idx as usize)
            .req;
        match p.kind {
            QueueKind::Read => {
                self.completions.push(Completion {
                    id: req.id,
                    core: req.core,
                    done_at: data_at,
                    from_sram: false,
                });
                self.stats.reads_completed += 1;
                self.stats.sum_read_latency += data_at - req.arrival;
            }
            QueueKind::Write => {
                // Fire-and-forget; nothing to deliver.
            }
            QueueKind::Prefetch => {
                self.pending_fills.push((req.line_addr, data_at));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rop_dram::DramConfig;

    fn baseline_1rank() -> MemController {
        MemController::new(MemCtrlConfig::baseline(DramConfig::baseline(1)))
    }

    /// The completions delivered so far.
    fn completions(c: &mut MemController) -> Vec<Completion> {
        let mut out = Vec::new();
        c.drain_completions_into(&mut out);
        out
    }

    /// Runs the controller until `pred` or `deadline`, returning when.
    fn run_until(
        c: &mut MemController,
        mut now: Cycle,
        deadline: Cycle,
        mut pred: impl FnMut(&MemController) -> bool,
    ) -> Cycle {
        while now < deadline {
            let hint = c.tick(now);
            if pred(c) {
                return now;
            }
            now = hint.max(now + 1).min(deadline);
        }
        now
    }

    #[test]
    fn single_read_completes() {
        let mut c = baseline_1rank();
        let id = c.enqueue_read(12345, 0, 10).expect("queue empty");
        run_until(&mut c, 10, 10_000, |c| !c.completions.is_empty());
        let comps = completions(&mut c);
        assert_eq!(comps.len(), 1);
        assert_eq!(comps[0].id, id);
        assert!(!comps[0].from_sram);
        // ACT + RD latency: tRCD + CL + burst = 11 + 11 + 4 = 26 from issue.
        assert!(comps[0].done_at >= 10 + 26);
        assert!(comps[0].done_at < 100);
        assert_eq!(c.stats().reads_completed, 1);
    }

    #[test]
    fn row_hits_are_faster_than_conflicts() {
        let mut c = baseline_1rank();
        // Two reads in the same bank and row (bank-interleaved mapping:
        // same bank repeats every 8 lines, next column).
        c.enqueue_read(100, 0, 0).unwrap();
        c.enqueue_read(108, 0, 0).unwrap();
        run_until(&mut c, 0, 10_000, |c| c.stats().reads_completed == 2);
        let s = c.stats();
        assert_eq!(s.row_buffer.hits(), 1); // second read hits the open row
        let comps = completions(&mut c);
        assert_eq!(comps.len(), 2);
    }

    /// Ids of every queued request (reads, writes and prefetches).
    fn queued_ids(c: &MemController) -> std::collections::BTreeSet<u64> {
        c.banks
            .iter()
            .flat_map(|b| b.reads.iter().chain(&b.writes).chain(&b.prefetches))
            .map(|q| q.req.id)
            .collect()
    }

    /// More than 20 same-cycle requests across banks, the order
    /// decided by the tie-break: 48 writes queued at the cycle the
    /// first refresh falls due enter its drain set (tier 0, one
    /// arrival cycle), and a younger tier-1 read hit sorts ahead of
    /// them in queue order. std's unstable sort moves equal keys on
    /// such input, so only the request id keeps each (bank, read/write)
    /// group retiring oldest first.
    #[test]
    fn same_cycle_requests_issue_in_id_order() {
        let mut c = baseline_1rank();
        let due = c.refresh.next_due(0);
        let mut group = std::collections::HashMap::new();
        let line = |c: &MemController, bank, col| c.mapping().encode_bank_line(0, bank, col);
        for (bank, cols) in [(0, 36), (1, 4), (2, 4), (3, 4)] {
            for col in 0..cols {
                assert!(c.enqueue_write(line(&c, bank, col), 0, due));
                group.insert(c.next_id - 1, (bank, true));
            }
        }
        c.tick(due);
        assert_eq!(c.drain_left[0], 48, "the writes form the drain set");
        let id = c.enqueue_read(line(&c, 0, 100), 0, due + 1).expect("room");
        group.insert(id, (0, false));

        let mut retired = Vec::new();
        let mut queued = queued_ids(&c);
        let mut now = due + 1;
        while !queued.is_empty() {
            assert!(now < due + 100_000, "requests starved");
            now = c.tick(now).max(now + 1);
            let left = queued_ids(&c);
            retired.extend(queued.difference(&left).copied());
            queued = left;
        }
        for bank in 0..4 {
            let order: Vec<u64> = retired
                .iter()
                .copied()
                .filter(|id| group[id] == (bank, true))
                .collect();
            assert!(
                order.windows(2).all(|w| w[0] < w[1]),
                "bank {bank} retired its writes as {order:?}"
            );
        }
    }

    /// The scheduler counters on a fixed trace: a row hit, a row
    /// conflict, a second bank and two writes, all queued at cycle 0
    /// and served before the first refresh falls due.
    #[test]
    fn scheduler_counters_on_a_fixed_trace() {
        let mut c = baseline_1rank();
        let line = |c: &MemController, bank, row: u64, col| {
            let lines_per_row = c.cfg.dram.geometry.lines_per_row as u64;
            c.mapping()
                .encode_bank_line(0, bank, row * lines_per_row + col)
        };
        for (bank, row, col) in [(0, 0, 0), (0, 0, 1), (0, 5, 0), (3, 2, 7)] {
            c.enqueue_read(line(&c, bank, row, col), 0, 0).unwrap();
        }
        for (bank, row, col) in [(0, 5, 3), (6, 1, 1)] {
            assert!(c.enqueue_write(line(&c, bank, row, col), 0, 0));
        }
        let mut now = 0;
        while c.read_queue_len() + c.write_queue_len() > 0 {
            now = c.tick(now);
            assert!(now < 2_000, "requests starved");
        }
        assert_eq!(c.refreshes_issued(0), 0);
        let d = c.device.counts();
        let s = c.stats();
        // Every scheduled command is one that issued; there was no
        // refresh preparation.
        assert_eq!(
            s.schedule_issued,
            d.activates + d.precharges + d.reads + d.writes
        );
        assert_eq!(
            (
                s.schedule_calls,
                s.schedule_issued,
                s.schedule_entries_scanned,
                s.issue_attempts,
                s.bound_skips,
                s.index_moves
            ),
            (20, 11, 22, 23, 10, 31)
        );
    }

    /// A re-entered pick keeps its bound only while its bank's row
    /// stays put. Bank 0's head X is an over-age read hit whose RD
    /// waits out the write-to-read turnaround of a write to bank 1, so
    /// pass 0 leaves a bound on X's head entry. Bank 0 is then
    /// precharged, as refresh preparation does when a drain deadline
    /// passes with X still queued: X now needs an ACT that is legal
    /// before that bound. A read to bank 2 arrives and its ACT issues.
    /// Had X's head entry kept the old bound, the call would pass X
    /// over and leave its bound above the device's answer.
    #[test]
    fn a_row_move_resets_kept_bounds() {
        let mut c = baseline_1rank();
        let lines_per_row = c.cfg.dram.geometry.lines_per_row as u64;
        let line = |c: &MemController, bank, row: u64| {
            c.mapping().encode_bank_line(0, bank, row * lines_per_row)
        };
        let issue = |c: &mut MemController, cmd: Command, not_before: Cycle| {
            let at = c.device.earliest_issue(&cmd, not_before).unwrap();
            c.issue_command(&cmd, at);
            at
        };
        let x = c.enqueue_read(line(&c, 0, 5), 0, 0).unwrap();
        let x_act = Command::Activate {
            rank: 0,
            bank: 0,
            row: 5,
        };
        issue(&mut c, x_act, 1_900);
        let b1 = Command::Activate {
            rank: 0,
            bank: 1,
            row: 1,
        };
        let b1 = issue(&mut c, b1, 1_990);
        let write = Command::Write {
            rank: 0,
            bank: 1,
            column: 0,
        };
        let write = issue(&mut c, write, b1 + 1);

        let t1 = write + 1;
        assert!(t1 > c.cfg.age_cap, "X must be over age");
        // The first head: its request id, row-hit flag and bound.
        let head = |c: &MemController| {
            let h = c.index.heads[0][0];
            (c.queued(h.pick).req.id, h.pick.hit, h.bound)
        };
        let hint = c.tick(t1);
        let (id, hit, rd_bound) = head(&c);
        assert_eq!((id, hit), (x, true));
        assert_eq!(hint, rd_bound, "X's RD waits for the write turnaround");

        let pre = issue(&mut c, Command::Precharge { rank: 0, bank: 0 }, t1 + 1);
        let now = pre + 1;
        let act_at = c.device.earliest_issue(&x_act, now).unwrap();
        assert!(
            act_at < rd_bound,
            "ACT at {act_at} is legal before {rd_bound}"
        );
        c.enqueue_read(line(&c, 2, 3), 0, now).unwrap();
        c.tick(now);
        assert_eq!(c.device.counts().activates, 3, "bank 2's ACT issued");
        let (id, hit, bound) = head(&c);
        assert_eq!((id, hit), (x, false));
        let act_at = c.device.earliest_issue(&x_act, now).unwrap();
        assert!(bound <= act_at, "X's bound {bound} > {act_at}");
    }

    #[test]
    fn writes_are_batched_and_drain() {
        let mut c = baseline_1rank();
        for k in 0..20u64 {
            assert!(c.enqueue_write(k * 128, 0, 0));
        }
        // With no reads pending, writes drain opportunistically.
        run_until(&mut c, 0, 50_000, |c| c.write_queue_len() == 0);
        assert_eq!(c.write_queue_len(), 0);
        assert_eq!(c.stats().writes_accepted, 20);
    }

    #[test]
    fn read_queue_capacity_enforced() {
        let mut c = baseline_1rank();
        let mut accepted = 0;
        for k in 0..200u64 {
            if c.enqueue_read(k * 1_000_003, 0, 0).is_some() {
                accepted += 1;
            }
        }
        assert_eq!(accepted, 64);
        assert_eq!(c.stats().read_queue_full, 200 - 64);
    }

    #[test]
    fn refreshes_happen_at_trefi_rate() {
        let mut c = baseline_1rank();
        // Idle memory for 10 tREFI.
        let mut now = 0;
        let end = 10 * 6240 + 1000;
        while now < end {
            now = c.tick(now).min(end);
        }
        let issued = c.refreshes_issued(0);
        assert!((9..=11).contains(&issued), "issued {issued}");
    }

    #[test]
    fn no_refresh_config_never_refreshes() {
        let mut c = MemController::new(MemCtrlConfig::baseline(DramConfig::no_refresh(1)));
        let mut now = 0;
        while now < 20 * 6240 {
            now = c.tick(now).min(20 * 6240);
        }
        assert_eq!(c.refreshes_issued(0), 0);
    }

    #[test]
    fn reads_blocked_by_refresh_wait_for_thaw() {
        let mut c = baseline_1rank();
        // Let the first refresh start.
        let mut now = 0;
        while c.refreshes_issued(0) == 0 {
            now = c.tick(now);
        }
        // Rank is now refreshing; a read arriving must be blocked.
        assert!(c.device.is_rank_refreshing(0, now));
        c.enqueue_read(777, 0, now).unwrap();
        assert_eq!(c.stats().reads_blocked_by_refresh, 1);
        let done = run_until(&mut c, now, now + 10_000, |c| {
            c.stats().reads_completed == 1
        });
        // It can only have completed after the refresh ended.
        assert!(done >= c.device.refresh_done_at(0) || c.stats().reads_completed == 1);
        let comps = completions(&mut c);
        assert!(comps[0].done_at > c.device.refresh_done_at(0));
    }

    /// Opt-in blocked-id tracking records the id of a read arriving
    /// during a freeze, is drained exactly once, and stays empty (and
    /// allocation-free) when the flag is off.
    #[test]
    fn refresh_blocked_ids_are_tracked_on_opt_in() {
        let mut c = baseline_1rank();
        c.set_track_refresh_blocked(true);
        let mut now = 0;
        while c.refreshes_issued(0) == 0 {
            now = c.tick(now);
        }
        assert!(c.device.is_rank_refreshing(0, now));
        let id = c.enqueue_read(777, 0, now).unwrap();
        let mut ids = Vec::new();
        c.drain_refresh_blocked_into(&mut ids);
        assert!(ids.contains(&id), "blocked id {id} missing from {ids:?}");
        ids.clear();
        c.drain_refresh_blocked_into(&mut ids);
        assert!(ids.is_empty(), "drain must clear the buffer");

        // Default-off: same scenario records nothing.
        let mut c = baseline_1rank();
        let mut now = 0;
        while c.refreshes_issued(0) == 0 {
            now = c.tick(now);
        }
        c.enqueue_read(777, 0, now).unwrap();
        assert_eq!(c.stats().reads_blocked_by_refresh, 1);
        let mut ids = Vec::new();
        c.drain_refresh_blocked_into(&mut ids);
        assert!(ids.is_empty());
    }

    #[test]
    fn drain_set_issues_before_refresh() {
        let mut c = baseline_1rank();
        // Enqueue reads just before the refresh due time.
        let due = 6240;
        for k in 0..4u64 {
            c.enqueue_read(1_000 + k, 0, due - 10).unwrap();
        }
        let mut now = due - 10;
        while c.refreshes_issued(0) == 0 {
            now = c.tick(now);
            assert!(now < due + 20_000, "refresh never issued");
        }
        // All drained reads completed before or at refresh issue.
        assert_eq!(c.stats().reads_completed, 4);
    }

    #[test]
    fn rop_controller_trains_then_observes() {
        let cfg = MemCtrlConfig::rop(DramConfig::baseline(1), 64, 42);
        let mut c = MemController::new(cfg);
        assert_eq!(c.rop_phase(0), Some(RopPhase::Training));
        // Drive enough traffic + refreshes to complete training (50).
        let mut now = 0u64;
        let mut k = 0u64;
        while c.refreshes_issued(0) < 55 {
            // Steady read stream.
            if now.is_multiple_of(40) {
                let _ = c.enqueue_read(k * 3, 0, now);
                k += 1;
            }
            let hint = c.tick(now);
            completions(&mut c);
            now = hint.max(now + 1).min(now + 40 - now % 40);
        }
        // At least one training phase completed and λ/β published. (The
        // engine may legitimately be back in Training if this synthetic
        // stream defeats the prefetcher's hit-rate threshold.)
        assert!(c.rop_engine_stats(0).unwrap().trainings_completed >= 1);
        let (lambda, _beta) = c.rop_probabilities(0).unwrap();
        // Continuous traffic: λ must be high.
        assert!(lambda > 0.8, "lambda {lambda}");
    }

    #[test]
    fn per_bank_refresh_mode_runs_and_freezes_banks_only() {
        let mut c = MemController::new(MemCtrlConfig::per_bank(DramConfig::baseline(1)));
        assert_eq!(c.refresh_slots(), 8);
        // Idle memory for several tREFI: every bank slot refreshes once
        // per tREFI (8 REFpb per tREFI for the rank).
        let mut now = 0;
        let end = 5 * 6240 + 1000;
        while now < end {
            now = c.tick(now).min(end);
        }
        let issued = c.refreshes_issued(0);
        assert!(
            (4 * 8..=6 * 8).contains(&issued),
            "per-bank refreshes issued: {issued}"
        );
        // The device never saw an all-bank REF.
        assert_eq!(c.device.counts().refreshes, 0);
        assert!(c.device.counts().refreshes_pb > 0);
    }

    #[test]
    fn per_bank_scope_holds_on_a_one_bank_geometry() {
        // One bank per rank still means per-bank scope: REFpb, DARP and
        // SARP must issue bank- or subarray-scoped refreshes, never an
        // all-bank REF.
        let one_bank = || {
            let mut d = DramConfig::baseline(1);
            d.geometry.banks_per_rank = 1;
            d.validate().expect("one bank per rank is a legal geometry");
            d
        };
        for cfg in [
            MemCtrlConfig::per_bank(one_bank()),
            MemCtrlConfig::darp(one_bank()),
            MemCtrlConfig::sarp(one_bank()),
        ] {
            let label = cfg.mechanism.label();
            let mut c = MemController::new(cfg);
            assert_eq!(c.refresh_slots(), 1, "{label}");
            let mut now = 0;
            let end = 5 * 6240 + 1000;
            while now < end {
                now = c.tick(now).min(end);
            }
            let counts = c.device.counts();
            assert_eq!(counts.refreshes, 0, "{label} issued an all-bank REF");
            assert!(
                counts.refreshes_pb + counts.refreshes_sa >= 4,
                "{label}: {counts:?}"
            );
        }
    }

    #[test]
    fn per_bank_refresh_serves_reads_on_other_banks() {
        let mut c = MemController::new(MemCtrlConfig::per_bank(DramConfig::baseline(1)));
        // Let the first REFpb start.
        let mut now = 0;
        while c.device.counts().refreshes_pb == 0 {
            now = c.tick(now);
        }
        // Find the refreshing bank and read from a different one.
        let frozen: Vec<usize> = (0..8)
            .filter(|&b| c.device.is_bank_refreshing(0, b, now))
            .collect();
        assert_eq!(frozen.len(), 1);
        let other_bank = (frozen[0] + 1) % 8;
        // Line addr hitting (rank 0, other_bank): bank bits lowest.
        let line = other_bank as u64;
        c.enqueue_read(line, 0, now).unwrap();
        let t_rfc_pb = c.cfg.dram.timing.t_rfc_pb;
        let mut done = now;
        while c.stats().reads_completed == 0 {
            done = c.tick(done);
            assert!(done < now + 10_000, "read starved");
        }
        let comps = completions(&mut c);
        // Served well inside the REFpb window: the sibling bank was free.
        assert!(
            comps[0].done_at < now + t_rfc_pb,
            "done {} vs refresh end {}",
            comps[0].done_at,
            now + t_rfc_pb
        );
    }

    #[test]
    fn rop_per_bank_mode_trains_and_prefetches() {
        let mut c =
            MemController::new(MemCtrlConfig::rop_per_bank(DramConfig::baseline(1), 64, 11));
        // Stream reads; REFpb slots come 8× as often, so training (50
        // refresh events) completes quickly.
        let mut now = 0u64;
        let mut k = 0u64;
        while c.refreshes_issued(0) < 120 {
            if now.is_multiple_of(16) {
                let _ = c.enqueue_read(k, 0, now);
                k += 3;
            }
            let hint = c.tick(now);
            completions(&mut c);
            now = hint.max(now + 1).min(now + 16 - now % 16);
        }
        assert!(c.rop_engine_stats(0).unwrap().trainings_completed >= 1);
        assert!(
            c.stats().prefetches_issued > 0,
            "per-bank ROP must prefetch"
        );
    }

    #[test]
    fn analysis_counts_refreshes() {
        let mut c = baseline_1rank();
        let mut now = 0;
        while c.refreshes_issued(0) < 5 {
            now = c.tick(now);
        }
        c.finalize_analysis();
        let r = c.analysis(0).report(0);
        assert!(r.refreshes >= 4);
        // No traffic at all: every refresh non-blocking.
        assert_eq!(r.non_blocking_fraction, 1.0);
    }

    #[test]
    fn energy_accumulates() {
        let mut c = baseline_1rank();
        c.enqueue_read(5, 0, 0).unwrap();
        let mut now = 0;
        while c.stats().reads_completed == 0 {
            now = c.tick(now);
        }
        let e = c.energy_breakdown(now + 100);
        assert!(e.read_nj > 0.0);
        assert!(e.act_pre_nj > 0.0);
        assert!(e.background_nj > 0.0);
    }
}
