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
//!    queues and the decision live in the `scheduler` module; the
//!    controller sets each refresh slot's admission gate, asks it for
//!    a selection and issues the command.
//!
//! `tick` returns a *hint*: the next cycle at which calling `tick` again
//! can possibly make progress, enabling the driver to fast-forward idle
//! stretches without losing cycle accuracy.

use rop_core::{PhaseTransition, RopConfig, RopEngine, RopPhase, SramBuffer};
use rop_dram::{Command, DramDevice, EnergyBreakdown, IssueOutcome};
use rop_events::{EventSink, TraceBuffer, TraceEvent};
use rop_stats::RatioCounter;

use crate::address::{AddressMapping, DecodedAddr};
use crate::analysis::RefreshAnalysis;
use crate::config::MemCtrlConfig;
use crate::mechanism::{Mechanism, RefreshMechanism, RefreshScope, RoundShape};
use crate::refresh::{RefreshManager, RefreshState};
use crate::scheduler::{QueueKind, Queued, Scheduler, Selection, SlotGate, SlotMap};
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

/// Reusable per-tick scratch buffers. Taking these out of the
/// controller, filling them and putting them back keeps the
/// steady-state hot path allocation-free (capacities are retained
/// across ticks). They are pre-sized to the controller's hard occupancy
/// bounds, so the per-cycle paths never grow them: per-slot lists are
/// capped by the refresh-slot count, and request lists by the total
/// queue capacity. (ROP prefetch fills have no configured cap; the
/// allowance covers the paper's deepest buffer, and anything beyond it
/// merely grows once.)
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
    /// The transaction queues and the FR-FCFS decision over them. An
    /// Idle slot's gate there is always `SlotGate::default()`.
    sched: Scheduler,
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
            let engines: Vec<RopEngine> = (0..ranks)
                .map(|r| {
                    let mut c: RopConfig = rc.clone();
                    // Give each rank's throttle an independent stream.
                    c.seed = rc
                        .seed
                        .wrapping_add(0x9e37_79b9_7f4a_7c15u64.wrapping_mul(r as u64 + 1));
                    RopEngine::new(c)
                })
                .collect();
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
        let queue_cap = cfg.read_queue_capacity + cfg.write_queue_capacity + 128;
        let mut c = MemController {
            analysis: (0..slots).map(|_| RefreshAnalysis::new(t_rfc)).collect(),
            drain_left: vec![0; slots],
            sched: Scheduler::new(&cfg, slot_map),
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
            scratch: TickScratch {
                slots: Vec::with_capacity(slots),
                filled: Vec::with_capacity(queue_cap),
                found: Vec::with_capacity(queue_cap),
            },
            cfg,
        };
        for rank in 0..ranks {
            c.update_engine_due(rank);
        }
        c
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
        self.sched.len(QueueKind::Read)
    }

    /// Number of write-queue entries currently pending.
    pub fn write_queue_len(&self) -> usize {
        self.sched.len(QueueKind::Write)
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
        if !sram && self.sched.len(QueueKind::Read) >= self.cfg.read_queue_capacity {
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
        let hit = sram
            && if refreshing {
                self.refresh_lookup(slot, line_addr)
            } else {
                let rop = self.rop.as_mut().expect("buffer powered");
                rop.buffer.serve_quiet(line_addr)
            };
        if hit {
            // Served from SRAM: no DRAM involvement at all.
            let id = self.alloc_id(now);
            self.serve_from_sram(id, core, now, now);
            self.note_arrival(addr, true, now);
            return Some(id);
        }

        if self.sched.len(QueueKind::Read) >= self.cfg.read_queue_capacity {
            self.stats.read_queue_full += 1;
            return None;
        }
        let id = self.alloc_id(now);
        if refreshing {
            self.note_blocked(id);
        }
        self.note_arrival(addr, true, now);
        self.sched
            .enqueue(QueueKind::Read, id, line_addr, addr, core, now);
        Some(id)
    }

    /// Enqueues a write (store or LLC writeback). Returns false when the
    /// write queue is full (the core must retry).
    ///
    /// # Panics
    /// Panics if `now` is earlier than a previously enqueued request's
    /// cycle, as [`Self::enqueue_read`] does.
    pub fn enqueue_write(&mut self, line_addr: u64, core: usize, now: Cycle) -> bool {
        if self.sched.len(QueueKind::Write) >= self.cfg.write_queue_capacity {
            self.stats.write_queue_full += 1;
            return false;
        }
        self.touched = true;
        let addr = self.mapping.decode(line_addr);
        let id = self.alloc_id(now);
        self.note_arrival(addr, false, now);
        self.sched
            .enqueue(QueueKind::Write, id, line_addr, addr, core, now);
        self.stats.writes_accepted += 1;
        true
    }

    /// Allocates the next request id for a request arriving at `now`.
    fn alloc_id(&mut self, now: Cycle) -> u64 {
        alloc_id(&mut self.next_id, &mut self.last_arrival, now)
    }

    /// Takes request `idx` out of bank `bank`'s `kind` queue, keeping
    /// the drain-set size in step.
    // rop-lint: hot
    fn remove_request(&mut self, kind: QueueKind, bank: usize, idx: usize) -> Queued {
        let q = self.sched.remove(kind, bank, idx);
        if q.in_set {
            self.drain_left[self.slot_map.of_bank(bank)] -= 1;
        }
        q
    }

    /// Records an accepted demand arrival with the analysis and ROP hooks.
    fn note_arrival(&mut self, addr: DecodedAddr, is_read: bool, now: Cycle) {
        let slot = self.slot_map.of(&addr);
        self.analysis[slot].note_arrival(now, is_read);
        self.mech.on_bank_activity(slot, now);
        if let Some(rop) = &mut self.rop {
            let line_in_bank = addr.line_in_bank(self.cfg.dram.geometry.lines_per_row);
            rop.engines[addr.rank].note_access(addr.bank, line_in_bank, is_read, now);
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
        let writes = self.sched.len(QueueKind::Write);
        if writes >= self.cfg.write_drain_high {
            self.write_drain = true;
        } else if writes <= self.cfg.write_drain_low {
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
        let mut found = std::mem::take(&mut self.scratch.found);
        found.clear();
        let geom = self.cfg.dram.geometry;
        for bank in 0..geom.ranks * geom.banks_per_rank {
            let slot = self.slot_map.of_bank(bank);
            for q in self.sched.queue(bank, QueueKind::Read) {
                if self.request_frozen(slot, &q.req.addr, now) && filled.contains(&q.req.line_addr)
                {
                    found.push((q.req.id, bank));
                }
            }
        }
        found.sort_unstable();
        for &(id, bank) in &found {
            let idx = self.read_index(bank, id);
            let req = self.remove_request(QueueKind::Read, bank, idx).req;
            let served = self.refresh_lookup(self.slot_map.of_bank(bank), req.line_addr);
            debug_assert!(served, "line was just inserted");
            self.serve_from_sram(req.id, req.core, req.arrival, now);
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
            self.sched.set_gate(slot, SlotGate::default());
            let rank = self.slot_map.rank(slot);
            let scope_bank = self.slot_map.bank(slot);
            // A skipped RAIDR round never started (sentinel stays at
            // `Cycle::MAX`): no RefreshEnd, nothing was blocked.
            let started = std::mem::replace(&mut self.refresh_started_at[slot], Cycle::MAX);
            let scope_sa = self.refresh_scope_sa[slot].take();
            if started != Cycle::MAX {
                self.trace.emit(|| TraceEvent::RefreshEnd {
                    cycle: now,
                    rank,
                    bank: scope_bank,
                });
                // Blocked-cycle accounting: reads still queued for the
                // thawed scope were stalled from max(refresh start,
                // arrival) until now. Purely observational — identical
                // scheduling either way.
                let geom = self.cfg.dram.geometry;
                let mut blocked = 0u64;
                let mut ids = std::mem::take(&mut self.blocked_ids);
                let first = ids.len();
                for bank in self.slot_map.banks_of(slot) {
                    for q in self.sched.queue(bank, QueueKind::Read) {
                        if scope_sa.is_some_and(|sa| geom.subarray_of_row(q.req.addr.row) != sa) {
                            continue;
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
                if transition != PhaseTransition::None {
                    // Buffer power follows the union of engine phases: on
                    // if any rank is out of Training.
                    if rop.engines.iter().any(|e| e.phase() != RopPhase::Training) {
                        rop.buffer.power_on();
                    } else {
                        rop.buffer.power_off();
                    }
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
        let sched = &self.sched;
        let busy = |slot: usize| {
            slot_map.banks_of(slot).any(|b| {
                !sched.queue(b, QueueKind::Read).is_empty()
                    || !sched.queue(b, QueueKind::Write).is_empty()
            })
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
            self.drain_left[slot] = self.sched.start_drain(slot, shape.subarray());

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
        let capacity = self.cfg.rop.as_ref().map_or(0, |r| r.buffer_capacity);
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
            self.sched
                .enqueue(QueueKind::Prefetch, id, line_addr, addr, usize::MAX, now);
            self.stats.prefetches_issued += 1;
        }
    }

    /// True when `slot`'s drain obligations are met (or the postpone
    /// deadline forces the refresh): the demand drain set has issued,
    /// and its prefetch requests have either issued or used up their
    /// opportunistic grace window.
    fn drain_complete(&self, slot: usize, now: Cycle) -> bool {
        let prefetch_done = || {
            (!self
                .slot_map
                .banks_of(slot)
                .any(|b| !self.sched.queue(b, QueueKind::Prefetch).is_empty())
                && !self.rop.as_ref().is_some_and(|r| r.prefetch_pending[slot]))
                || self
                    .refresh
                    .draining_longer_than(slot, now, self.cfg.prefetch_grace)
        };
        self.refresh.drain_deadline_passed(slot, now)
            || (self.drain_left[slot] == 0 && prefetch_done())
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
            if self.drain_left[slot] == 0
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
            let sa_target = shape.subarray();
            // Close any open bank in the refresh scope (a single bank in
            // per-bank mode, the whole rank otherwise). Under SARP only
            // a row open in the *target* subarray needs closing; rows in
            // sibling subarrays stay open through the refresh.
            let scope_bank = self.slot_map.bank(slot);
            let mut all_idle = true;
            for key in self.slot_map.banks_of(slot) {
                let bank = key % self.cfg.dram.geometry.banks_per_rank;
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
            if !all_idle {
                continue;
            }
            // The refresh command of the slot's scope. A SARP round
            // refreshes one subarray of its bank; a RAIDR round locks its
            // rank for a scaled duration.
            let cmd = match scope_bank {
                Some(bank) => Command::RefreshBank { rank, bank },
                None => Command::Refresh { rank },
            };
            let sarp_bank = || scope_bank.expect("SARP refresh is per-bank");
            let ready = match shape {
                RoundShape::Subarray { subarray } => {
                    self.device
                        .earliest_subarray_refresh(rank, sarp_bank(), subarray, now)
                }
                // Skips resolve at due time, never reach Draining.
                RoundShape::Skip { .. } => {
                    unreachable!("skipped round entered drain") // rop-lint: allow(no-panic)
                }
                _ => self.device.earliest_issue(&cmd, now),
            };
            match ready {
                Ok(e) if e <= now => {}
                Ok(e) => {
                    earliest = earliest.min(e);
                    continue;
                }
                Err(_) => continue,
            }
            self.sched.note_issued(&cmd);
            let outcome = match shape {
                RoundShape::Subarray { subarray } => self
                    .device
                    .try_issue_subarray_refresh(rank, sarp_bank(), subarray, now)
                    .expect("legal at its earliest-issue cycle"),
                RoundShape::Scaled {
                    duration,
                    round,
                    covers_128,
                    covers_256,
                } => {
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
                    o
                }
                _ => self.device.issue(&cmd, now),
            };
            self.mech
                .on_refresh_issued(&mut self.refresh, slot, now, outcome.completes_at);
            self.refresh_started_at[slot] = now;
            self.refresh_scope_sa[slot] = sa_target;
            self.analysis[slot].refresh_started(now);
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
                // Prefetches for this slot that have not issued can no
                // longer help; drop them.
                self.stats.prefetches_dropped += self.sched.drop_prefetches(slot) as u64;
            }
            self.sweep_blocked_reads(slot, now);
            return Some(Ok(()));
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
                self.sched
                    .queue(bank, QueueKind::Read)
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
        // In the Training phase the buffer is off: nothing can be served.
        let powered = self.rop.as_mut().is_some_and(|rop| {
            rop.engines[rank].note_blocked_queued(blocked.len() as u64);
            rop.buffer.is_powered()
        });
        for &(id, bank) in &blocked {
            if powered {
                let idx = self.read_index(bank, id);
                let req = self.sched.queue(bank, QueueKind::Read)[idx].req;
                // The line may still be in flight from a just-issued
                // prefetch; defer judgement — `apply_fills` re-matches
                // it on arrival.
                if self
                    .pending_fills
                    .iter()
                    .any(|&(key, _)| key == req.line_addr)
                {
                    continue;
                }
                if self.refresh_lookup(slot, req.line_addr) {
                    self.remove_request(QueueKind::Read, bank, idx);
                    self.serve_from_sram(req.id, req.core, req.arrival, now);
                    continue;
                }
            }
            self.note_blocked(id);
        }
        self.scratch.found = blocked;
    }

    /// Looks `line` up in the SRAM buffer for a read that `slot`'s
    /// refresh blocks, counting the lookup and its outcome in the
    /// refresh's hit-rate statistics and the run's.
    fn refresh_lookup(&mut self, slot: usize, line: u64) -> bool {
        let rop = self.rop.as_mut().expect("rop enabled");
        let hit = rop.buffer.lookup(line);
        rop.refresh_lookups[slot] += 1;
        rop.refresh_hits[slot] += u64::from(hit);
        self.stats.sram_lookups += 1;
        self.stats.sram_hits += u64::from(hit);
        hit
    }

    /// Completes read `id` of `core`, which arrived at `arrival`, from
    /// the SRAM buffer at `now`.
    fn serve_from_sram(&mut self, id: u64, core: usize, arrival: Cycle, now: Cycle) {
        let latency = self.rop.as_ref().expect("rop enabled").latency;
        let done_at = now.saturating_add(latency);
        self.completions.push(Completion {
            id,
            core,
            done_at,
            from_sram: true,
        });
        self.stats.reads_completed += 1;
        self.stats.reads_from_sram += 1;
        self.stats.sum_read_latency += done_at - arrival;
    }

    /// Counts read `id` as blocked by a refresh.
    fn note_blocked(&mut self, id: u64) {
        self.stats.reads_blocked_by_refresh += 1;
        if self.track_blocked {
            self.blocked_ids.push(id);
        }
    }

    /// Position of the queued read `id` in bank `bank`'s read queue.
    fn read_index(&self, bank: usize, id: u64) -> usize {
        self.sched
            .queue(bank, QueueKind::Read)
            .binary_search_by_key(&id, |q| q.req.id)
            .expect("read is queued")
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
            return self.mech.round_shape(&self.refresh, slot).subarray();
        }
        None
    }

    /// FR-FCFS scheduling. `Ok(())` = one command issued; `Err(earliest)`
    /// = nothing ready, next possible issue at `earliest`.
    // rop-lint: hot
    fn schedule(&mut self, now: Cycle) -> Result<(), Cycle> {
        self.stats.schedule_calls += 1;
        // Each active slot's gate; an Idle slot's is the default, set
        // once when it thaws.
        self.refresh.note_visits(self.active.len());
        for i in 0..self.active.len() {
            let slot = self.active[i];
            let gate = self.slot_gate(slot, now);
            self.sched.set_gate(slot, gate);
        }
        let serve_writes = self.write_drain || self.sched.len(QueueKind::Read) == 0;
        let result = match self
            .sched
            .select(&self.device, serve_writes, now, &mut self.stats)
        {
            Ok(sel) => {
                self.issue_selected(sel, now);
                self.stats.schedule_issued += 1;
                Ok(())
            }
            Err(e) => Err(e),
        };
        #[cfg(debug_assertions)]
        self.sched.check_index(&self.device, now);
        result
    }

    /// Issues the command the scheduler selected at `now`. A column
    /// command retires its request and delivers its effect (a
    /// completion, a fill, or nothing for a write); an ACT marks it as
    /// having paid for its row.
    // rop-lint: hot
    fn issue_selected(&mut self, sel: Selection, now: Cycle) {
        let outcome = self.issue_command(&sel.cmd, now);
        match sel.cmd {
            Command::Read { rank, bank, .. } | Command::Write { rank, bank, .. } => {
                let Queued { req, acted, .. } = self.remove_request(sel.kind, sel.bank, sel.idx);
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
                let data_at = outcome.data_at.expect("column command");
                match sel.kind {
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
                    QueueKind::Write => {}
                    QueueKind::Prefetch => self.pending_fills.push((req.line_addr, data_at)),
                }
            }
            Command::Activate { .. } => self.sched.set_acted(&sel),
            _ => {}
        }
    }

    /// Issues `cmd` at `now` (the caller has checked it is legal) and
    /// records it with the scheduler.
    // rop-lint: hot
    fn issue_command(&mut self, cmd: &Command, now: Cycle) -> IssueOutcome {
        self.sched.note_issued(cmd);
        self.device.issue(cmd, now)
    }

    /// The debug self-check run on a tick the idle shortcut skips. No
    /// bank is marked (every enqueue that marks one sets `touched`), the
    /// index and its bounds hold at `now`, and no active slot's gate has
    /// moved since the last full tick: its hint covers every gate change.
    #[cfg(debug_assertions)]
    fn check_idle(&self, now: Cycle) {
        self.sched.check_idle(&self.device, now);
        for &slot in &self.active {
            assert_eq!(
                self.slot_gate(slot, now),
                self.sched.gate(slot),
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
                self.sched.gate(slot),
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
        let kinds = [QueueKind::Read, QueueKind::Write, QueueKind::Prefetch];
        (0..c.cfg.dram.geometry.banks_per_rank)
            .flat_map(|bank| kinds.iter().flat_map(move |&k| c.sched.queue(bank, k)))
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
        let hint = c.tick(t1);
        let (id, hit, rd_bound) = c.sched.first_head();
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
        let (id, hit, bound) = c.sched.first_head();
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
