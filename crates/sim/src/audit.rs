//! Online invariant auditor over the memory system's event trace.
//!
//! The [`Auditor`] is an [`EventSink`]: wire it to
//! `MemController::drain_trace` (the [`crate::System`] does this when
//! audit mode is on) and it checks, event by event:
//!
//! * **DRAM timing legality** — an independent shadow model of every
//!   bank re-derives the tRCD/tRP/tRAS/tRC/tRRD/tFAW/tCCD constraints
//!   from the issued command stream, plus tRFC freezes: no command may
//!   touch a refreshing scope, and a refresh completion may not be
//!   observed before `start + tRFC` has elapsed.
//! * **Refresh-postpone bound** — a drain may hold a due refresh back
//!   at most `max_refresh_postpone` cycles (plus a bounded quiesce
//!   allowance for the final precharges); under a mechanism that
//!   postpones into a debt (Elastic Refresh) the traced debt may never
//!   exceed its cap plus the refreshes that can legitimately fall due
//!   while one is in flight.
//! * **SRAM never-serve-stale** — replays fills/evictions/clears into a
//!   shadow membership set; a hit on a line the shadow does not hold
//!   means the buffer served data it was never given.
//! * **Profiler A/B consistency** — recomputes the per-refresh `(B, A)`
//!   pair from the raw demand-arrival events and compares it with what
//!   the ROP engine latched, so the profiler that drives λ/β estimation
//!   can never silently drift from the controller-observed request
//!   stream.
//!
//! Every violation captures a ring-buffer tail of the most recent trace
//! events, so a failed run's report shows the lead-up, not just the
//! offending event.

use std::collections::{HashSet, VecDeque};
use std::fmt;

use rop_dram::TimingParams;
use rop_events::{CmdKind, Cycle, EventSink, TraceEvent};
use rop_memctrl::{MechanismKind, MemCtrlConfig, RefreshScope};

/// How many trailing events a violation report keeps.
const TAIL_CAPACITY: usize = 64;
/// How many violations keep their full detail (all are counted).
const MAX_DETAILED: usize = 16;

/// Everything the auditor needs to know about the system under audit,
/// extracted from the controller configuration.
#[derive(Debug, Clone)]
pub struct AuditorConfig {
    /// DRAM timing parameters the shadow model enforces.
    pub timing: TimingParams,
    /// Ranks on the channel.
    pub ranks: usize,
    /// Banks per rank.
    pub banks_per_rank: usize,
    /// True when refreshes are per-bank (REFpb).
    pub per_bank: bool,
    /// Drain-before-refresh postpone budget (cycles).
    pub max_refresh_postpone: Cycle,
    /// Debt cap of a mechanism that postpones refreshes into a debt
    /// ([`MechanismKind::debt_cap`]); `None` when drains are bounded by
    /// `max_refresh_postpone` instead.
    pub max_debt: Option<u32>,
    /// ROP observational window (cycles), when ROP is enabled.
    pub observational_window: Option<Cycle>,
    /// Rows per subarray (for SARP: maps an ACT's row to its subarray).
    pub rows_per_subarray: usize,
    /// Subarrays per bank (for SARP: a REFsa naming a subarray outside
    /// this range targets rows that do not exist, i.e. refreshes
    /// nothing while the mechanism believes it made progress).
    pub subarrays_per_bank: usize,
    /// RAIDR's shortest retention-bin period, when that mechanism runs;
    /// drives the bin-deadline coverage check.
    pub raidr_bin_period: Option<Cycle>,
}

impl AuditorConfig {
    /// Derives the audit parameters from a controller configuration;
    /// everything refresh-specific comes from its mechanism.
    pub fn from_ctrl(cfg: &MemCtrlConfig) -> Self {
        AuditorConfig {
            timing: cfg.dram.timing,
            ranks: cfg.dram.geometry.ranks,
            banks_per_rank: cfg.dram.geometry.banks_per_rank,
            per_bank: cfg.mechanism.scope() == RefreshScope::PerBank,
            max_refresh_postpone: cfg.max_refresh_postpone,
            max_debt: cfg.mechanism.debt_cap(),
            observational_window: cfg.rop.as_ref().map(|r| r.observational_window),
            rows_per_subarray: cfg.dram.geometry.rows_per_subarray(),
            subarrays_per_bank: cfg.dram.geometry.subarrays_per_bank,
            raidr_bin_period: match cfg.mechanism {
                MechanismKind::Raidr { bin_period, .. } => Some(bin_period),
                _ => None,
            },
        }
    }

    /// Slack allowed past `max_refresh_postpone` before a drain counts
    /// as a violation: after the deadline the controller still has to
    /// precharge every open bank in the scope (one command bus, so up
    /// to `banks` precharges each gated by up to ~tRC of bank timing)
    /// and other slots' refresh preparation can interleave.
    fn quiesce_slack(&self) -> Cycle {
        let banks = self.banks_per_rank as Cycle;
        let slots = if self.per_bank {
            (self.ranks * self.banks_per_rank) as Cycle
        } else {
            self.ranks as Cycle
        };
        slots * (self.timing.t_rc + banks * (self.timing.t_rp + 1))
    }

    /// Debt a debt-postponing mechanism can legitimately reach: the cap
    /// plus the refreshes that fall due while a drain/refresh is in
    /// flight (debt keeps accruing during those states). `None` when no
    /// debt cap is configured.
    pub fn debt_bound(&self) -> Option<u64> {
        let in_flight = self.max_refresh_postpone + self.quiesce_slack() + self.timing.t_rfc();
        self.max_debt
            .map(|cap| u64::from(cap) + in_flight / self.timing.t_refi().max(1) + 1)
    }
}

/// One detected invariant violation.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Which invariant failed, e.g. `timing.tRCD` or `sram.stale-serve`.
    pub invariant: &'static str,
    /// Cycle stamp of the offending event.
    pub cycle: Cycle,
    /// Human-readable description with the observed and required values.
    pub message: String,
    /// The most recent trace events up to and including the offender.
    pub tail: Vec<TraceEvent>,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "[{}] at cycle {}: {}",
            self.invariant, self.cycle, self.message
        )?;
        writeln!(f, "  last {} events:", self.tail.len())?;
        for e in &self.tail {
            writeln!(f, "    {e:?}")?;
        }
        Ok(())
    }
}

/// Counts reported by a finished audit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AuditSummary {
    /// Trace events consumed.
    pub events: u64,
    /// Invariant violations detected.
    pub violations: u64,
}

/// Shadow state of one DRAM bank.
#[derive(Debug, Clone, Copy, Default)]
struct ShadowBank {
    /// Row currently open in the bank, if any (REFsa needs the row to
    /// decide whether the open page conflicts with the target subarray).
    open: Option<usize>,
    /// Cycle of the last ACT, if any.
    last_act: Option<Cycle>,
    /// Cycle of the last PRE, if any.
    last_pre: Option<Cycle>,
}

/// Shadow state of one rank.
#[derive(Debug, Clone, Default)]
struct ShadowRank {
    /// Cycle of the last activate-class command (ACT or REFpb).
    last_act: Option<Cycle>,
    /// Issue cycles of the last four activate-class commands (tFAW).
    act_history: VecDeque<Cycle>,
    /// All-bank refresh in flight: the start cycle.
    frozen_since: Option<Cycle>,
    /// The in-flight all-bank refresh is a RAIDR scaled round (variable
    /// duration, so the tRFC lower bound does not apply).
    frozen_scaled: bool,
    /// Per-bank refresh in flight per bank: the start cycle.
    bank_frozen_since: Vec<Option<Cycle>>,
    /// Subarray scope of the per-bank refresh in flight (`None` =
    /// whole-bank REFpb; `Some` = SARP, siblings stay accessible).
    bank_frozen_sa: Vec<Option<usize>>,
    /// RAIDR: pending RetentionRound for this cycle (coverage flags);
    /// consumed by the RefreshStart that follows at the same cycle.
    pending_retention: Option<(Cycle, bool, bool)>,
    /// RAIDR: cycle of the last refresh covering the 64/128/256 ms bins.
    last_cover: [Option<Cycle>; 3],
    /// Drain in progress: the start cycle.
    drain_since: Option<Cycle>,
    /// Profiler window replication.
    window_open: bool,
    /// Scope bank of the open window (`None` = whole rank).
    window_bank: Option<usize>,
    /// `B` the engine latched at window open.
    latched_b: u64,
    /// The auditor's independently accumulated `A`.
    expect_a: u64,
    /// Demand arrival cycles inside the observational window.
    arrivals: VecDeque<Cycle>,
}

/// The online invariant checker. Feed it the merged trace via
/// [`EventSink::record`]; read the outcome with
/// [`Auditor::summary`] / [`Auditor::violations`] / [`Auditor::report`].
#[derive(Debug)]
pub struct Auditor {
    cfg: AuditorConfig,
    banks: Vec<ShadowBank>,
    ranks: Vec<ShadowRank>,
    /// Channel-wide last column-read issue (tCCD read-to-read).
    last_read: Option<Cycle>,
    /// Channel-wide last column-write issue (tCCD write-to-write).
    last_write: Option<Cycle>,
    /// Shadow of the SRAM buffer's resident line keys.
    sram: HashSet<u64>,
    /// Ring buffer of recent events for violation tails.
    tail: VecDeque<TraceEvent>,
    violations: Vec<Violation>,
    events_seen: u64,
    violation_count: u64,
}

impl Auditor {
    /// Creates an auditor for the given system shape.
    pub fn new(cfg: AuditorConfig) -> Self {
        let ranks = cfg.ranks;
        let banks = cfg.banks_per_rank;
        Auditor {
            banks: vec![ShadowBank::default(); ranks * banks],
            ranks: (0..ranks)
                .map(|_| ShadowRank {
                    bank_frozen_since: vec![None; banks],
                    bank_frozen_sa: vec![None; banks],
                    ..ShadowRank::default()
                })
                .collect(),
            last_read: None,
            last_write: None,
            sram: HashSet::new(),
            tail: VecDeque::with_capacity(TAIL_CAPACITY),
            violations: Vec::new(),
            events_seen: 0,
            violation_count: 0,
            cfg,
        }
    }

    /// Total events consumed and violations found.
    pub fn summary(&self) -> AuditSummary {
        AuditSummary {
            events: self.events_seen,
            violations: self.violation_count,
        }
    }

    /// The detailed violations (the first `MAX_DETAILED`, 16; the
    /// summary counts all of them).
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// Renders every detailed violation into one labelled report.
    pub fn report(&self) -> String {
        let mut out = format!(
            "audit failed: {} violation(s) over {} events\n",
            self.violation_count, self.events_seen
        );
        for v in &self.violations {
            out.push_str(&v.to_string());
        }
        if self.violation_count > self.violations.len() as u64 {
            out.push_str(&format!(
                "  … and {} more\n",
                self.violation_count - self.violations.len() as u64
            ));
        }
        out
    }

    fn violate(&mut self, invariant: &'static str, cycle: Cycle, message: String) {
        self.violation_count += 1;
        if self.violations.len() < MAX_DETAILED {
            self.violations.push(Violation {
                invariant,
                cycle,
                message,
                tail: self.tail.iter().copied().collect(),
            });
        }
    }

    #[inline]
    fn bank_mut(&mut self, rank: usize, bank: usize) -> &mut ShadowBank {
        &mut self.banks[rank * self.cfg.banks_per_rank + bank]
    }

    #[inline]
    fn bank(&self, rank: usize, bank: usize) -> &ShadowBank {
        &self.banks[rank * self.cfg.banks_per_rank + bank]
    }

    /// Checks and records one activate-class command (ACT or REFpb) for
    /// the rank-level tRRD/tFAW constraints.
    fn check_rank_activate(&mut self, kind: &'static str, rank: usize, cycle: Cycle) {
        let t_rrd = self.cfg.timing.t_rrd;
        let t_faw = self.cfg.timing.t_faw;
        let r = &self.ranks[rank];
        if let Some(last) = r.last_act {
            if cycle < last + t_rrd {
                self.violate(
                    "timing.tRRD",
                    cycle,
                    format!("{kind} on rank {rank} only {} cycles after the previous activate (tRRD {t_rrd})", cycle - last),
                );
            }
        }
        let r = &self.ranks[rank];
        if r.act_history.len() == 4 {
            let oldest = *r.act_history.front().expect("len checked");
            if cycle < oldest + t_faw {
                self.violate(
                    "timing.tFAW",
                    cycle,
                    format!("{kind} on rank {rank} is the fifth activate within {} cycles (tFAW {t_faw})", cycle - oldest),
                );
            }
        }
        let r = &mut self.ranks[rank];
        r.last_act = Some(cycle);
        r.act_history.push_back(cycle);
        if r.act_history.len() > 4 {
            r.act_history.pop_front();
        }
    }

    /// True when the command conflicts with a frozen refresh scope. A
    /// whole-rank or whole-bank freeze admits nothing; a SARP freeze
    /// (subarray-scoped) admits everything except an ACT whose row maps
    /// into the refreshing subarray — sibling subarrays stay accessible,
    /// and column commands can only land on rows opened legally.
    fn freeze_conflict(&self, rank: usize, bank: Option<usize>, row: Option<usize>) -> bool {
        let r = &self.ranks[rank];
        if r.frozen_since.is_some() {
            return true;
        }
        match bank {
            Some(b) => {
                if r.bank_frozen_since[b].is_none() {
                    return false;
                }
                match r.bank_frozen_sa[b] {
                    None => true,
                    Some(sa) => row.is_some_and(|row| row / self.cfg.rows_per_subarray == sa),
                }
            }
            // Rank-wide commands (REF) conflict with any frozen bank.
            None => r.bank_frozen_since.iter().any(Option::is_some),
        }
    }

    fn on_command(
        &mut self,
        cycle: Cycle,
        kind: CmdKind,
        rank: usize,
        bank: Option<usize>,
        row: Option<usize>,
    ) {
        if rank >= self.cfg.ranks || bank.is_some_and(|b| b >= self.cfg.banks_per_rank) {
            self.violate(
                "trace.malformed",
                cycle,
                format!("command {kind:?} targets rank {rank} bank {bank:?} outside the geometry"),
            );
            return;
        }
        let t = self.cfg.timing;
        // A refresh command *initiates* the freeze it belongs to, so the
        // frozen-scope check applies to every other command kind.
        if !matches!(
            kind,
            CmdKind::Refresh | CmdKind::RefreshBank | CmdKind::RefreshSubarray
        ) && self.freeze_conflict(rank, bank, row)
        {
            self.violate(
                "timing.tRFC",
                cycle,
                format!("{kind:?} issued to rank {rank} bank {bank:?} while its refresh scope is frozen"),
            );
        }
        match kind {
            CmdKind::Activate => {
                let b = bank.expect("ACT carries a bank");
                let sb = *self.bank(rank, b);
                if sb.open.is_some() {
                    self.violate(
                        "timing.structure",
                        cycle,
                        format!("ACT on rank {rank} bank {b} while a row is already open"),
                    );
                }
                if let Some(pre) = sb.last_pre {
                    if cycle < pre + t.t_rp {
                        self.violate(
                            "timing.tRP",
                            cycle,
                            format!(
                                "ACT on rank {rank} bank {b} only {} cycles after PRE (tRP {})",
                                cycle - pre,
                                t.t_rp
                            ),
                        );
                    }
                }
                if let Some(act) = sb.last_act {
                    if cycle < act + t.t_rc {
                        self.violate(
                            "timing.tRC",
                            cycle,
                            format!("ACT on rank {rank} bank {b} only {} cycles after the previous ACT (tRC {})", cycle - act, t.t_rc),
                        );
                    }
                }
                self.check_rank_activate("ACT", rank, cycle);
                let sb = self.bank_mut(rank, b);
                sb.open = Some(row.unwrap_or(0));
                sb.last_act = Some(cycle);
            }
            CmdKind::Precharge => {
                let b = bank.expect("PRE carries a bank");
                let sb = *self.bank(rank, b);
                if sb.open.is_some() {
                    if let Some(act) = sb.last_act {
                        if cycle < act + t.t_ras {
                            self.violate(
                                "timing.tRAS",
                                cycle,
                                format!("PRE on rank {rank} bank {b} only {} cycles after ACT (tRAS {})", cycle - act, t.t_ras),
                            );
                        }
                    }
                }
                let sb = self.bank_mut(rank, b);
                sb.open = None;
                sb.last_pre = Some(cycle);
            }
            CmdKind::Read | CmdKind::Write => {
                let b = bank.expect("column command carries a bank");
                let sb = *self.bank(rank, b);
                if sb.open.is_none() {
                    self.violate(
                        "timing.structure",
                        cycle,
                        format!("{kind:?} on rank {rank} bank {b} with no open row"),
                    );
                }
                if let Some(act) = sb.last_act {
                    if cycle < act + t.t_rcd {
                        self.violate(
                            "timing.tRCD",
                            cycle,
                            format!("{kind:?} on rank {rank} bank {b} only {} cycles after ACT (tRCD {})", cycle - act, t.t_rcd),
                        );
                    }
                }
                let last_same = if kind == CmdKind::Read {
                    self.last_read
                } else {
                    self.last_write
                };
                if let Some(prev) = last_same {
                    if cycle < prev + t.t_ccd {
                        self.violate(
                            "timing.tCCD",
                            cycle,
                            format!(
                                "{kind:?} only {} cycles after the previous {kind:?} (tCCD {})",
                                cycle - prev,
                                t.t_ccd
                            ),
                        );
                    }
                }
                if kind == CmdKind::Read {
                    self.last_read = Some(cycle);
                } else {
                    self.last_write = Some(cycle);
                }
            }
            CmdKind::Refresh => {
                for b in 0..self.cfg.banks_per_rank {
                    let sb = *self.bank(rank, b);
                    if sb.open.is_some() {
                        self.violate(
                            "timing.structure",
                            cycle,
                            format!("REF on rank {rank} with bank {b} still open"),
                        );
                    }
                    if let Some(pre) = sb.last_pre {
                        if cycle < pre + t.t_rp {
                            self.violate(
                                "timing.tRP",
                                cycle,
                                format!("REF on rank {rank} only {} cycles after bank {b}'s PRE (tRP {})", cycle - pre, t.t_rp),
                            );
                        }
                    }
                }
            }
            CmdKind::RefreshBank => {
                let b = bank.expect("REFpb carries a bank");
                let sb = *self.bank(rank, b);
                if sb.open.is_some() {
                    self.violate(
                        "timing.structure",
                        cycle,
                        format!("REFpb on rank {rank} bank {b} while a row is open"),
                    );
                }
                if let Some(pre) = sb.last_pre {
                    if cycle < pre + t.t_rp {
                        self.violate(
                            "timing.tRP",
                            cycle,
                            format!(
                                "REFpb on rank {rank} bank {b} only {} cycles after PRE (tRP {})",
                                cycle - pre,
                                t.t_rp
                            ),
                        );
                    }
                }
                // REFpb occupies an activate slot for tRRD/tFAW purposes
                // (the device records it in the activate history).
                self.check_rank_activate("REFpb", rank, cycle);
            }
            CmdKind::RefreshSubarray => {
                let b = bank.expect("REFsa carries a bank");
                let sa = row.map(|r| r / self.cfg.rows_per_subarray);
                let sb = *self.bank(rank, b);
                // Sibling subarrays stay open under SARP; only a page
                // inside the refreshing subarray conflicts.
                if sb.open.is_some_and(|open| {
                    sa.is_some_and(|sa| open / self.cfg.rows_per_subarray == sa)
                }) {
                    self.violate(
                        "timing.structure",
                        cycle,
                        format!(
                            "REFsa on rank {rank} bank {b} with a row open in the target subarray"
                        ),
                    );
                }
                if let Some(pre) = sb.last_pre {
                    if cycle < pre + t.t_rp {
                        self.violate(
                            "timing.tRP",
                            cycle,
                            format!(
                                "REFsa on rank {rank} bank {b} only {} cycles after PRE (tRP {})",
                                cycle - pre,
                                t.t_rp
                            ),
                        );
                    }
                }
                // Like REFpb, REFsa consumes an activate slot in the
                // rank's power windows.
                self.check_rank_activate("REFsa", rank, cycle);
            }
        }
    }

    /// RAIDR bin-deadline coverage: every actual refresh covers the
    /// 64 ms bin; rounds flagged `covers_128`/`covers_256` (and full
    /// REFs, which carry no RetentionRound) cover the longer bins. The
    /// gap between consecutive covers of a bin must stay within its
    /// period plus the drain/quiesce slack every refresh is allowed.
    fn note_bin_coverage(&mut self, cycle: Cycle, rank: usize, covers_128: bool, covers_256: bool) {
        let Some(bin) = self.cfg.raidr_bin_period else {
            return;
        };
        let slack =
            self.cfg.max_refresh_postpone + self.cfg.quiesce_slack() + self.cfg.timing.t_refi();
        let covered = [true, covers_128, covers_256];
        for (i, &c) in covered.iter().enumerate() {
            if !c {
                continue;
            }
            let deadline = bin * (1 << i) + slack;
            if let Some(prev) = self.ranks[rank].last_cover[i] {
                if cycle.saturating_sub(prev) > deadline {
                    self.violate(
                        "raidr.bin-deadline",
                        cycle,
                        format!(
                            "rank {rank} {} ms-bin rows went {} cycles without refresh (deadline {deadline})",
                            64 << i,
                            cycle - prev
                        ),
                    );
                }
            }
            self.ranks[rank].last_cover[i] = Some(cycle);
        }
    }

    fn on_refresh_start(
        &mut self,
        cycle: Cycle,
        rank: usize,
        bank: Option<usize>,
        subarray: Option<usize>,
    ) {
        if rank >= self.cfg.ranks {
            return;
        }
        // Postpone bound: a bounded drain. Under a debt cap the drain
        // starts only once the mechanism decides to pay, and the debt
        // check covers postponement instead.
        if self.cfg.max_debt.is_none() {
            if let Some(start) = self.ranks[rank].drain_since {
                let bound = self.cfg.max_refresh_postpone + self.cfg.quiesce_slack();
                if cycle.saturating_sub(start) > bound {
                    self.violate(
                        "refresh.postpone-bound",
                        cycle,
                        format!("refresh on rank {rank} issued {} cycles after its drain began (bound {bound})", cycle - start),
                    );
                }
            }
        }
        self.ranks[rank].drain_since = None;
        match bank {
            Some(b) if b < self.cfg.banks_per_rank => {
                if let Some(sa) = subarray {
                    if sa >= self.cfg.subarrays_per_bank {
                        self.violate(
                            "refresh.subarray-scope",
                            cycle,
                            format!("REFsa on rank {rank} bank {b} targets subarray {sa}, but banks have only {} subarrays — the round refreshes no real rows", self.cfg.subarrays_per_bank),
                        );
                    }
                }
                self.ranks[rank].bank_frozen_since[b] = Some(cycle);
                self.ranks[rank].bank_frozen_sa[b] = subarray;
            }
            Some(_) => {}
            None => {
                // A RetentionRound stamped this cycle marks the refresh
                // as a RAIDR scaled round (variable duration, partial
                // bin coverage); a plain REF on a RAIDR rank is a full
                // round and covers every bin.
                let pending = self.ranks[rank].pending_retention.take();
                let (scaled, covers_128, covers_256) = match pending {
                    Some((c, c128, c256)) if c == cycle => (true, c128, c256),
                    _ => (false, true, true),
                };
                self.ranks[rank].frozen_since = Some(cycle);
                self.ranks[rank].frozen_scaled = scaled;
                self.note_bin_coverage(cycle, rank, covers_128, covers_256);
            }
        }
    }

    fn on_refresh_end(&mut self, cycle: Cycle, rank: usize, bank: Option<usize>) {
        if rank >= self.cfg.ranks {
            return;
        }
        let (started, t_rfc, scope) = match bank {
            Some(b) if b < self.cfg.banks_per_rank => {
                let started = self.ranks[rank].bank_frozen_since[b].take();
                // A subarray-scoped refresh (SARP) runs tRFCsa, not the
                // full per-bank tRFCpb.
                match self.ranks[rank].bank_frozen_sa[b].take() {
                    Some(_) => (started, self.cfg.timing.t_rfc_sa, "REFsa"),
                    None => (started, self.cfg.timing.t_rfc_pb, "REFpb"),
                }
            }
            Some(_) => (None, 0, "REFpb"),
            None => {
                let started = self.ranks[rank].frozen_since.take();
                if std::mem::take(&mut self.ranks[rank].frozen_scaled) {
                    // RAIDR scaled round: the duration is pro-rated to
                    // the weak-row fraction, so only a lower bound of
                    // one cycle applies.
                    (started, 1, "REF(scaled)")
                } else {
                    (started, self.cfg.timing.t_rfc(), "REF")
                }
            }
        };
        match started {
            Some(start) => {
                if cycle < start + t_rfc {
                    self.violate(
                        "timing.tRFC",
                        cycle,
                        format!("{scope} on rank {rank} bank {bank:?} completed after only {} cycles (tRFC {t_rfc})", cycle - start),
                    );
                }
            }
            None => self.violate(
                "trace.malformed",
                cycle,
                format!("{scope} completion on rank {rank} bank {bank:?} without a matching start"),
            ),
        }
    }

    fn on_window_open(&mut self, cycle: Cycle, rank: usize, bank: Option<usize>, b: u64) {
        let Some(window) = self.cfg.observational_window else {
            return;
        };
        if rank >= self.cfg.ranks {
            return;
        }
        let r = &mut self.ranks[rank];
        // Replicate AccessWindow::count(now): arrivals in (now-window, now].
        let cutoff = cycle.saturating_sub(window);
        while let Some(&front) = r.arrivals.front() {
            if front <= cutoff {
                r.arrivals.pop_front();
            } else {
                break;
            }
        }
        let expected = r.arrivals.len() as u64;
        r.window_open = true;
        r.window_bank = bank;
        r.latched_b = b;
        r.expect_a = 0;
        if b != expected {
            self.violate(
                "profiler.B",
                cycle,
                format!("rank {rank} latched B={b} at refresh start but the trace shows {expected} arrivals in the last {window} cycles"),
            );
        }
    }

    fn on_window_close(&mut self, cycle: Cycle, rank: usize, b: u64, a: u64) {
        if self.cfg.observational_window.is_none() || rank >= self.cfg.ranks {
            return;
        }
        let r = &mut self.ranks[rank];
        if !r.window_open {
            self.violate(
                "profiler.window",
                cycle,
                format!("rank {rank} closed a profiler window that was never opened"),
            );
            return;
        }
        r.window_open = false;
        let (latched_b, expect_a) = (r.latched_b, r.expect_a);
        if b != latched_b {
            self.violate(
                "profiler.B",
                cycle,
                format!(
                    "rank {rank} reported B={b} at window close but latched {latched_b} at open"
                ),
            );
        }
        if a != expect_a {
            self.violate(
                "profiler.A",
                cycle,
                format!("rank {rank} reported A={a} but the trace accounts for {expect_a} blocked reads"),
            );
        }
    }

    fn on_demand(&mut self, cycle: Cycle, rank: usize, bank: usize, is_read: bool) {
        if self.cfg.observational_window.is_none() || rank >= self.cfg.ranks {
            return;
        }
        let r = &mut self.ranks[rank];
        r.arrivals.push_back(cycle);
        if r.window_open && is_read && r.window_bank.is_none_or(|wb| wb == bank) {
            r.expect_a += 1;
        }
    }

    fn observe(&mut self, event: TraceEvent) {
        self.events_seen += 1;
        if self.tail.len() == TAIL_CAPACITY {
            self.tail.pop_front();
        }
        self.tail.push_back(event);
        match event {
            TraceEvent::CmdIssued {
                cycle,
                kind,
                rank,
                bank,
                row,
            } => self.on_command(cycle, kind, rank, bank, row),
            TraceEvent::RefreshStart {
                cycle,
                rank,
                bank,
                subarray,
            } => self.on_refresh_start(cycle, rank, bank, subarray),
            TraceEvent::RefreshEnd { cycle, rank, bank } => self.on_refresh_end(cycle, rank, bank),
            TraceEvent::RefreshPostponed { cycle, rank, debt } => {
                if let Some(bound) = self.cfg.debt_bound() {
                    if debt > bound {
                        self.violate(
                            "refresh.postpone-bound",
                            cycle,
                            format!(
                                "rank {rank} accumulated a refresh debt of {debt} (bound {bound})"
                            ),
                        );
                    }
                }
            }
            TraceEvent::DrainStart { cycle, rank } => {
                if rank < self.cfg.ranks && self.ranks[rank].drain_since.is_none() {
                    self.ranks[rank].drain_since = Some(cycle);
                }
            }
            TraceEvent::DrainEnd { .. } => {}
            TraceEvent::SramFill { cycle, line } => {
                let _ = cycle;
                self.sram.insert(line);
            }
            TraceEvent::SramEvict { cycle, line } => {
                if !self.sram.remove(&line) {
                    self.violate(
                        "sram.phantom-evict",
                        cycle,
                        format!("line {line:#x} evicted but the shadow set never saw it filled"),
                    );
                }
            }
            TraceEvent::SramClear { .. } => self.sram.clear(),
            TraceEvent::SramHit { cycle, line } => {
                if !self.sram.contains(&line) {
                    self.violate(
                        "sram.stale-serve",
                        cycle,
                        format!("read served for line {line:#x} which is not resident in the shadow buffer"),
                    );
                }
            }
            TraceEvent::ProfilerWindowOpen {
                cycle,
                rank,
                bank,
                b,
            } => self.on_window_open(cycle, rank, bank, b),
            TraceEvent::ProfilerWindowClose { cycle, rank, b, a } => {
                self.on_window_close(cycle, rank, b, a)
            }
            TraceEvent::DemandObserved {
                cycle,
                rank,
                bank,
                is_read,
            } => self.on_demand(cycle, rank, bank, is_read),
            TraceEvent::RetentionRound {
                cycle,
                rank,
                round: _,
                covers_128,
                covers_256,
            } => {
                if rank < self.cfg.ranks {
                    // Stash for the RefreshStart this cycle. A skipped
                    // round has no RefreshStart and covers nothing, so
                    // an unconsumed stash is simply overwritten.
                    self.ranks[rank].pending_retention = Some((cycle, covers_128, covers_256));
                }
            }
            TraceEvent::BlockedQueued { cycle, rank, count } => {
                let _ = cycle;
                if self.cfg.observational_window.is_some()
                    && rank < self.cfg.ranks
                    && self.ranks[rank].window_open
                {
                    self.ranks[rank].expect_a += count;
                }
            }
        }
    }
}

impl EventSink for Auditor {
    fn record(&mut self, event: TraceEvent) {
        self.observe(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rop_dram::DramConfig;

    fn auditor() -> Auditor {
        Auditor::new(AuditorConfig::from_ctrl(&MemCtrlConfig::baseline(
            DramConfig::baseline(1),
        )))
    }

    fn rop_auditor() -> Auditor {
        Auditor::new(AuditorConfig::from_ctrl(&MemCtrlConfig::rop(
            DramConfig::baseline(1),
            64,
            42,
        )))
    }

    fn act(cycle: Cycle, bank: usize) -> TraceEvent {
        act_row(cycle, bank, 0)
    }

    fn act_row(cycle: Cycle, bank: usize, row: usize) -> TraceEvent {
        TraceEvent::CmdIssued {
            cycle,
            kind: CmdKind::Activate,
            rank: 0,
            bank: Some(bank),
            row: Some(row),
        }
    }

    fn rd(cycle: Cycle, bank: usize) -> TraceEvent {
        TraceEvent::CmdIssued {
            cycle,
            kind: CmdKind::Read,
            rank: 0,
            bank: Some(bank),
            row: None,
        }
    }

    fn pre(cycle: Cycle, bank: usize) -> TraceEvent {
        TraceEvent::CmdIssued {
            cycle,
            kind: CmdKind::Precharge,
            rank: 0,
            bank: Some(bank),
            row: None,
        }
    }

    fn ref_start(cycle: Cycle, bank: Option<usize>, subarray: Option<usize>) -> TraceEvent {
        TraceEvent::RefreshStart {
            cycle,
            rank: 0,
            bank,
            subarray,
        }
    }

    #[test]
    fn legal_sequence_passes() {
        let mut a = auditor();
        // ACT, wait tRCD (11), RD, wait, PRE after tRAS (28), ACT after tRP.
        a.record(act(0, 0));
        a.record(rd(11, 0));
        a.record(pre(28, 0));
        a.record(act(39, 0));
        assert_eq!(a.summary().violations, 0);
        assert_eq!(a.summary().events, 4);
    }

    #[test]
    fn trcd_violation_detected() {
        let mut a = auditor();
        a.record(act(0, 0));
        a.record(rd(5, 0)); // tRCD is 11
        assert_eq!(a.summary().violations, 1);
        assert_eq!(a.violations()[0].invariant, "timing.tRCD");
        assert!(a.violations()[0].message.contains("tRCD"));
        assert_eq!(a.violations()[0].tail.len(), 2);
    }

    #[test]
    fn trp_and_tras_violations_detected() {
        let mut a = auditor();
        a.record(act(0, 0));
        a.record(pre(10, 0)); // tRAS is 28
        a.record(act(12, 0)); // tRP is 11
        let kinds: Vec<_> = a.violations().iter().map(|v| v.invariant).collect();
        assert!(kinds.contains(&"timing.tRAS"), "{kinds:?}");
        assert!(kinds.contains(&"timing.tRP"), "{kinds:?}");
    }

    #[test]
    fn tfaw_violation_detected() {
        let mut a = auditor();
        // Five activates to distinct banks, tRRD (5) apart: the fifth at
        // cycle 20 sits inside the first's tFAW window (24).
        for (i, c) in [0u64, 5, 10, 15, 20].iter().enumerate() {
            a.record(act(*c, i));
        }
        let kinds: Vec<_> = a.violations().iter().map(|v| v.invariant).collect();
        assert!(kinds.contains(&"timing.tFAW"), "{kinds:?}");
        // Spacing out the fifth is legal.
        let mut a = auditor();
        for (i, c) in [0u64, 5, 10, 15, 24].iter().enumerate() {
            a.record(act(*c, i));
        }
        assert_eq!(a.summary().violations, 0);
    }

    #[test]
    fn tccd_violation_detected() {
        let mut a = auditor();
        a.record(act(0, 0));
        a.record(act(5, 1));
        a.record(rd(16, 0));
        a.record(rd(18, 1)); // tCCD is 5
        let kinds: Vec<_> = a.violations().iter().map(|v| v.invariant).collect();
        assert!(kinds.contains(&"timing.tCCD"), "{kinds:?}");
    }

    #[test]
    fn command_to_frozen_rank_is_a_violation() {
        let mut a = auditor();
        a.record(ref_start(100, None, None));
        a.record(act(150, 0));
        let kinds: Vec<_> = a.violations().iter().map(|v| v.invariant).collect();
        assert!(kinds.contains(&"timing.tRFC"), "{kinds:?}");
    }

    #[test]
    fn short_refresh_is_a_violation() {
        let mut a = auditor();
        a.record(ref_start(100, None, None));
        a.record(TraceEvent::RefreshEnd {
            cycle: 200, // tRFC is 280
            rank: 0,
            bank: None,
        });
        assert_eq!(a.violations()[0].invariant, "timing.tRFC");
        // A full-length refresh passes.
        let mut a = auditor();
        a.record(ref_start(100, None, None));
        a.record(TraceEvent::RefreshEnd {
            cycle: 380,
            rank: 0,
            bank: None,
        });
        assert_eq!(a.summary().violations, 0);
    }

    #[test]
    fn postpone_bound_enforced() {
        let mut a = auditor();
        let bound = a.cfg.max_refresh_postpone + a.cfg.quiesce_slack();
        a.record(TraceEvent::DrainStart { cycle: 0, rank: 0 });
        a.record(ref_start(bound + 1, None, None));
        assert_eq!(a.violations()[0].invariant, "refresh.postpone-bound");
        // Inside the bound is fine.
        let mut a = auditor();
        a.record(TraceEvent::DrainStart { cycle: 0, rank: 0 });
        a.record(ref_start(bound, None, None));
        assert_eq!(a.summary().violations, 0);
    }

    #[test]
    fn stale_sram_serve_detected() {
        let mut a = rop_auditor();
        a.record(TraceEvent::SramFill { cycle: 1, line: 7 });
        a.record(TraceEvent::SramHit { cycle: 2, line: 7 });
        assert_eq!(a.summary().violations, 0);
        a.record(TraceEvent::SramClear { cycle: 3 });
        a.record(TraceEvent::SramHit { cycle: 4, line: 7 });
        assert_eq!(a.violations()[0].invariant, "sram.stale-serve");
    }

    #[test]
    fn profiler_ab_replication() {
        let mut a = rop_auditor();
        let demand = |cycle| TraceEvent::DemandObserved {
            cycle,
            rank: 0,
            bank: 0,
            is_read: true,
        };
        // Two arrivals inside the 280-cycle window, one outside it.
        a.record(demand(10));
        a.record(demand(900));
        a.record(demand(950));
        a.record(TraceEvent::ProfilerWindowOpen {
            cycle: 1000,
            rank: 0,
            bank: None,
            b: 2,
        });
        // One read during the refresh plus three already-blocked reads.
        a.record(demand(1010));
        a.record(TraceEvent::BlockedQueued {
            cycle: 1000,
            rank: 0,
            count: 3,
        });
        a.record(TraceEvent::ProfilerWindowClose {
            cycle: 1280,
            rank: 0,
            b: 2,
            a: 4,
        });
        assert_eq!(a.summary().violations, 0, "{}", a.report());
        // A mismatching A is flagged.
        a.record(TraceEvent::ProfilerWindowOpen {
            cycle: 2000,
            rank: 0,
            bank: None,
            b: 0,
        });
        a.record(TraceEvent::ProfilerWindowClose {
            cycle: 2280,
            rank: 0,
            b: 0,
            a: 9,
        });
        assert_eq!(a.violations()[0].invariant, "profiler.A");
    }

    fn sarp_auditor() -> Auditor {
        Auditor::new(AuditorConfig::from_ctrl(&MemCtrlConfig::sarp(
            DramConfig::baseline(1),
        )))
    }

    #[test]
    fn sarp_freeze_admits_only_sibling_subarrays() {
        let mut a = sarp_auditor();
        let rps = a.cfg.rows_per_subarray;
        // Bank 0 refreshes subarray 0; an ACT into subarray 1 is legal.
        a.record(ref_start(100, Some(0), Some(0)));
        a.record(act_row(110, 0, rps));
        assert_eq!(a.summary().violations, 0, "{}", a.report());
        // An ACT into the refreshing subarray is not.
        let mut a = sarp_auditor();
        a.record(ref_start(100, Some(0), Some(0)));
        a.record(act_row(110, 0, rps - 1));
        let kinds: Vec<_> = a.violations().iter().map(|v| v.invariant).collect();
        assert!(kinds.contains(&"timing.tRFC"), "{kinds:?}");
    }

    #[test]
    fn out_of_range_subarray_is_flagged() {
        let mut a = sarp_auditor();
        let sas = a.cfg.subarrays_per_bank;
        // The last real subarray is fine; one past the end is a scope
        // violation (the round refreshes rows that do not exist).
        a.record(ref_start(100, Some(0), Some(sas - 1)));
        assert_eq!(a.summary().violations, 0, "{}", a.report());
        a.record(ref_start(500, Some(1), Some(sas)));
        let kinds: Vec<_> = a.violations().iter().map(|v| v.invariant).collect();
        assert!(kinds.contains(&"refresh.subarray-scope"), "{kinds:?}");
    }

    #[test]
    fn whole_bank_freeze_still_admits_nothing() {
        let mut a = auditor();
        a.record(ref_start(100, Some(0), None));
        a.record(act_row(110, 0, 0));
        let kinds: Vec<_> = a.violations().iter().map(|v| v.invariant).collect();
        assert!(kinds.contains(&"timing.tRFC"), "{kinds:?}");
    }

    #[test]
    fn sarp_refresh_end_checks_trfcsa() {
        let mut a = sarp_auditor();
        let t_rfc_sa = a.cfg.timing.t_rfc_sa;
        a.record(ref_start(100, Some(0), Some(0)));
        a.record(TraceEvent::RefreshEnd {
            cycle: 100 + t_rfc_sa,
            rank: 0,
            bank: Some(0),
        });
        assert_eq!(a.summary().violations, 0, "{}", a.report());
        let mut a = sarp_auditor();
        a.record(ref_start(100, Some(0), Some(0)));
        a.record(TraceEvent::RefreshEnd {
            cycle: 100 + t_rfc_sa - 1,
            rank: 0,
            bank: Some(0),
        });
        assert_eq!(a.violations()[0].invariant, "timing.tRFC");
    }

    fn raidr_auditor() -> Auditor {
        Auditor::new(AuditorConfig::from_ctrl(&MemCtrlConfig::raidr(
            DramConfig::baseline(1),
            7,
        )))
    }

    #[test]
    fn raidr_scaled_round_may_end_early() {
        let mut a = raidr_auditor();
        a.record(TraceEvent::RetentionRound {
            cycle: 100,
            rank: 0,
            round: 2,
            covers_128: false,
            covers_256: false,
        });
        a.record(ref_start(100, None, None));
        a.record(TraceEvent::RefreshEnd {
            cycle: 140, // far below tRFC: fine, the round was scaled
            rank: 0,
            bank: None,
        });
        assert_eq!(a.summary().violations, 0, "{}", a.report());
    }

    #[test]
    fn raidr_bin_deadline_enforced() {
        let mut a = raidr_auditor();
        let bin = a.cfg.raidr_bin_period.expect("raidr config");
        let slack = a.cfg.max_refresh_postpone + a.cfg.quiesce_slack() + a.cfg.timing.t_refi();
        let t_rfc = a.cfg.timing.t_rfc();
        // Two full refreshes a legal distance apart.
        a.record(ref_start(0, None, None));
        a.record(TraceEvent::RefreshEnd {
            cycle: t_rfc,
            rank: 0,
            bank: None,
        });
        a.record(ref_start(bin, None, None));
        a.record(TraceEvent::RefreshEnd {
            cycle: bin + t_rfc,
            rank: 0,
            bank: None,
        });
        assert_eq!(a.summary().violations, 0, "{}", a.report());
        // The next cover of the 64 ms bin arrives too late.
        let late = bin + bin + slack + 1;
        a.record(TraceEvent::RetentionRound {
            cycle: late,
            rank: 0,
            round: 2,
            covers_128: false,
            covers_256: false,
        });
        a.record(ref_start(late, None, None));
        let kinds: Vec<_> = a.violations().iter().map(|v| v.invariant).collect();
        assert!(kinds.contains(&"raidr.bin-deadline"), "{kinds:?}");
    }

    #[test]
    fn tail_is_bounded() {
        let mut a = auditor();
        for i in 0..200u64 {
            a.record(TraceEvent::DrainStart { cycle: i, rank: 0 });
            a.record(TraceEvent::DrainEnd { cycle: i, rank: 0 });
            // Reset drain tracking so no postpone violation fires.
            a.ranks[0].drain_since = None;
        }
        a.record(act(10_000, 0));
        a.record(rd(10_001, 0)); // tRCD violation
        let v = &a.violations()[0];
        assert_eq!(v.tail.len(), TAIL_CAPACITY);
        assert_eq!(v.tail.last().copied(), Some(rd(10_001, 0)));
    }
}
