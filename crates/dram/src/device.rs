//! The DRAM device: command validation, timing enforcement, and
//! energy/event accounting for one memory channel.

use crate::command::{Command, CommandKind};
use crate::config::DramConfig;
use crate::energy::{EnergyBreakdown, EnergyEvents};
use crate::soa::ChannelTiming;
use crate::Cycle;
use rop_events::{CmdKind, TraceBuffer, TraceEvent};

/// Why a command cannot be issued.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IssueError {
    /// Rank or bank index out of range for the configured geometry.
    BadIndex,
    /// ACT targeted a bank that already has an open row.
    BankNotIdle,
    /// READ/WRITE/PRE targeted a bank with no open row.
    BankNotOpen,
    /// READ/WRITE targeted a column of a different row than the open one.
    RowMismatch {
        /// Row currently open in the bank.
        open: usize,
    },
    /// REF issued while some bank of the rank still has an open row.
    RefreshNeedsIdleBanks,
    /// REF issued while the rank is already refreshing.
    AlreadyRefreshing,
    /// The command is structurally fine but violates a timing constraint;
    /// `earliest` is the first cycle at which it could issue.
    TooEarly {
        /// Earliest legal issue cycle.
        earliest: Cycle,
    },
}

/// Successful command issue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IssueOutcome {
    /// Cycle the command issued (the `now` passed in).
    pub issued_at: Cycle,
    /// For READ: cycle the last data beat reaches the controller.
    /// For WRITE: cycle the last data beat is driven. `None` otherwise.
    pub data_at: Option<Cycle>,
    /// Cycle at which the command's effect completes (refresh end, row
    /// open, precharge done, or the data completion).
    pub completes_at: Cycle,
}

/// Per-kind command counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct CommandCounts {
    /// ACT commands issued.
    pub activates: u64,
    /// PRE commands issued.
    pub precharges: u64,
    /// READ commands issued.
    pub reads: u64,
    /// WRITE commands issued.
    pub writes: u64,
    /// REF commands issued.
    pub refreshes: u64,
    /// Per-bank REFpb commands issued.
    pub refreshes_pb: u64,
    /// Subarray-scoped refreshes issued (SARP).
    pub refreshes_sa: u64,
    /// Partial all-bank refreshes issued (RAIDR bin rounds).
    pub refreshes_partial: u64,
    /// Total cycles spent in partial all-bank refreshes.
    pub refresh_partial_cycles: u64,
}

/// Cycle-level model of the DRAM behind one channel.
///
/// The device is a *passive* timing oracle: the controller asks when a
/// command may issue ([`Self::earliest_issue`]) and commits it with
/// [`Self::try_issue`]. All state transitions happen at issue time with
/// future effects encoded as earliest-issue registers, which is what makes
/// the fast-forwarding simulation loop exact.
#[derive(Debug, Clone)]
pub struct DramDevice {
    config: DramConfig,
    /// All per-bank/per-rank timing registers, flattened into
    /// struct-of-arrays columns (see [`ChannelTiming`]).
    state: ChannelTiming,
    /// Channel-level earliest cycle for the next READ (CAS-to-CAS and
    /// write-to-read turnaround).
    next_read_ok: Cycle,
    /// Channel-level earliest cycle for the next WRITE.
    next_write_ok: Cycle,
    /// Cycle until which the shared data bus is busy.
    data_bus_free: Cycle,
    /// Rank that last drove the data bus (for the tRTRS switch penalty).
    last_data_rank: Option<usize>,
    counts: CommandCounts,
    /// Trace sink stamping every successfully issued command (disabled
    /// by default; the controller enables and drains it when auditing).
    trace: TraceBuffer,
}

/// Trace discriminant of a command.
fn trace_kind(cmd: &Command) -> CmdKind {
    match cmd.kind() {
        CommandKind::Activate => CmdKind::Activate,
        CommandKind::Precharge => CmdKind::Precharge,
        CommandKind::Read => CmdKind::Read,
        CommandKind::Write => CmdKind::Write,
        CommandKind::Refresh => CmdKind::Refresh,
        CommandKind::RefreshBank => CmdKind::RefreshBank,
    }
}

impl DramDevice {
    /// Builds a device for `config`.
    ///
    /// # Panics
    /// Panics if the configuration fails validation.
    pub fn new(config: DramConfig) -> Self {
        config.validate().expect("invalid DRAM configuration");
        let state = ChannelTiming::new(config.geometry.ranks, config.geometry.banks_per_rank);
        DramDevice {
            config,
            state,
            next_read_ok: 0,
            next_write_ok: 0,
            data_bus_free: 0,
            last_data_rank: None,
            counts: CommandCounts::default(),
            trace: TraceBuffer::new(),
        }
    }

    /// The configuration this device was built with.
    pub fn config(&self) -> &DramConfig {
        &self.config
    }

    /// The device's trace buffer (enable/drain it from the owner).
    pub fn trace_mut(&mut self) -> &mut TraceBuffer {
        &mut self.trace
    }

    /// Command counts so far.
    pub fn counts(&self) -> CommandCounts {
        self.counts
    }

    /// True while `rank` is frozen by an in-progress refresh.
    pub fn is_rank_refreshing(&self, rank: usize, now: Cycle) -> bool {
        self.state.is_refreshing(rank, now)
    }

    /// Completion cycle of the in-progress refresh on `rank` (0 if none
    /// ever started).
    pub fn refresh_done_at(&self, rank: usize) -> Cycle {
        self.state.refresh_done_at(rank)
    }

    /// The row currently open in `(rank, bank)`, if any.
    pub fn open_row(&self, rank: usize, bank: usize) -> Option<usize> {
        self.state.open_row(self.state.bank_index(rank, bank))
    }

    /// True while `(rank, bank)` is held by a per-bank refresh (REFpb).
    pub fn is_bank_refreshing(&self, rank: usize, bank: usize, now: Cycle) -> bool {
        self.state
            .is_bank_refreshing(self.state.bank_index(rank, bank), now)
    }

    /// Completion cycle of `(rank, bank)`'s in-flight REFpb (0 if never).
    pub fn bank_refresh_done_at(&self, rank: usize, bank: usize) -> Cycle {
        self.state
            .bank_refresh_done_at(self.state.bank_index(rank, bank))
    }

    /// The subarray locked by `(rank, bank)`'s in-flight refresh at
    /// `now`: `Some(sa)` only for SARP-scoped refreshes. `None` means
    /// either no refresh or a bank-wide freeze (check
    /// [`Self::is_bank_refreshing`] to distinguish).
    // rop-lint: hot
    pub fn frozen_subarray(&self, rank: usize, bank: usize, now: Cycle) -> Option<usize> {
        self.state
            .frozen_subarray(self.state.bank_index(rank, bank), now)
    }

    /// Subarray containing `row` under the configured geometry.
    // rop-lint: hot
    #[inline]
    pub fn subarray_of_row(&self, row: usize) -> usize {
        self.config.geometry.subarray_of_row(row)
    }

    fn check_index(&self, cmd: &Command) -> Result<(), IssueError> {
        let g = &self.config.geometry;
        if cmd.rank() >= g.ranks {
            return Err(IssueError::BadIndex);
        }
        if let Some(bank) = cmd.bank() {
            if bank >= g.banks_per_rank {
                return Err(IssueError::BadIndex);
            }
        }
        if let Command::Activate { row, .. } = *cmd {
            if row >= g.rows_per_bank {
                return Err(IssueError::BadIndex);
            }
        }
        if let Command::Read { column, .. } | Command::Write { column, .. } = *cmd {
            if column >= g.lines_per_row {
                return Err(IssueError::BadIndex);
            }
        }
        Ok(())
    }

    /// Earliest cycle (>= `now`) at which `cmd` could legally issue, or a
    /// structural error if no amount of waiting would make it legal in the
    /// current state.
    // rop-lint: hot
    pub fn earliest_issue(&self, cmd: &Command, now: Cycle) -> Result<Cycle, IssueError> {
        self.check_index(cmd)?;
        let t = &self.config.timing;
        let s = &self.state;
        let r = cmd.rank();
        match *cmd {
            Command::Activate { bank, row, .. } => {
                let i = s.bank_index(r, bank);
                if s.is_open(i) {
                    return Err(IssueError::BankNotIdle);
                }
                let earliest = s.earliest_activate(r, now, t.t_faw).max(s.next_act[i]);
                // A SARP-scoped refresh leaves the bank-wide ACT gate
                // down; only rows of the frozen subarray must wait for
                // the refresh window to end.
                match s.frozen_subarray(i, earliest) {
                    Some(sa) if self.config.geometry.subarray_of_row(row) == sa => {
                        Ok(s.bank_refresh_done_at(i))
                    }
                    _ => Ok(earliest),
                }
            }
            Command::Precharge { bank, .. } => {
                let i = s.bank_index(r, bank);
                if !s.is_open(i) {
                    return Err(IssueError::BankNotOpen);
                }
                Ok(now.max(s.next_pre[i]))
            }
            Command::Read { bank, column, .. } => {
                let i = s.bank_index(r, bank);
                if !s.is_open(i) {
                    return Err(IssueError::BankNotOpen);
                }
                let _ = column;
                let mut earliest = now
                    .max(s.next_read[i])
                    .max(self.next_read_ok)
                    .max(s.next_read_rank[r]);
                earliest = earliest.max(self.bus_constraint(r, t.cl));
                Ok(earliest)
            }
            Command::Write { bank, .. } => {
                let i = s.bank_index(r, bank);
                if !s.is_open(i) {
                    return Err(IssueError::BankNotOpen);
                }
                let mut earliest = now.max(s.next_write[i]).max(self.next_write_ok);
                earliest = earliest.max(self.bus_constraint(r, t.cwl));
                Ok(earliest)
            }
            Command::Refresh { .. } => {
                if s.is_refreshing(r, now) {
                    return Err(IssueError::AlreadyRefreshing);
                }
                if !s.all_banks_idle(r) {
                    return Err(IssueError::RefreshNeedsIdleBanks);
                }
                // All per-bank windows (tRP after PRE, tRC after ACT) must
                // have elapsed before REF: one batched max-pass over the
                // rank's contiguous next_act slice.
                Ok(now.max(s.rank_act_gate(r)))
            }
            Command::RefreshBank { bank, .. } => {
                if s.is_refreshing(r, now) {
                    return Err(IssueError::AlreadyRefreshing);
                }
                let i = s.bank_index(r, bank);
                if s.is_open(i) {
                    return Err(IssueError::RefreshNeedsIdleBanks);
                }
                // REFpb behaves like an activation for the power windows
                // (tRRD/tFAW) and must wait out the bank's own tRP/tRC.
                Ok(s.earliest_activate(r, now, t.t_faw).max(s.next_act[i]))
            }
        }
    }

    /// A channel-wide lower bound on [`Self::earliest_issue`] for every
    /// WRITE (`write`) or READ, whatever its rank and bank: the channel's
    /// CAS-to-CAS gate and the data bus without the rank-switch penalty.
    // rop-lint: hot
    #[inline]
    pub fn column_floor(&self, write: bool) -> Cycle {
        let t = &self.config.timing;
        if write {
            self.next_write_ok
                .max(self.data_bus_free.saturating_sub(t.cwl))
        } else {
            self.next_read_ok
                .max(self.data_bus_free.saturating_sub(t.cl))
        }
    }

    /// Earliest cycle the data bus permits a column command whose data
    /// phase starts `cas` cycles after issue, from `rank`.
    // rop-lint: hot
    fn bus_constraint(&self, rank: usize, cas: Cycle) -> Cycle {
        let mut bus_ready = self.data_bus_free;
        if let Some(last) = self.last_data_rank {
            if last != rank {
                bus_ready += self.config.timing.t_rtrs;
            }
        }
        bus_ready.saturating_sub(cas)
    }

    /// Validates the open row for a column command. Returns `RowMismatch`
    /// if the open row differs from the target row implied by the caller's
    /// bookkeeping; the device itself only knows the open row, so callers
    /// pass the intended row for the check.
    pub fn check_open_row(
        &self,
        rank: usize,
        bank: usize,
        expected_row: usize,
    ) -> Result<(), IssueError> {
        match self.state.open_row(self.state.bank_index(rank, bank)) {
            Some(open) if open == expected_row => Ok(()),
            Some(open) => Err(IssueError::RowMismatch { open }),
            None => Err(IssueError::BankNotOpen),
        }
    }

    /// Issues `cmd` at `now`, or explains why it cannot issue.
    // rop-lint: hot
    pub fn try_issue(&mut self, cmd: &Command, now: Cycle) -> Result<IssueOutcome, IssueError> {
        let earliest = self.earliest_issue(cmd, now)?;
        if earliest > now {
            return Err(IssueError::TooEarly { earliest });
        }
        let t = self.config.timing;
        let rank_idx = cmd.rank();
        // Attribute background time under the pre-command state.
        self.state.accrue_background(rank_idx, now);
        let s = &mut self.state;
        let outcome = match *cmd {
            Command::Activate { bank, row, .. } => {
                let i = s.bank_index(rank_idx, bank);
                s.apply_activate(i, now, row, t.t_rcd, t.t_ras, t.t_rc);
                s.record_activate(rank_idx, now, t.t_rrd, t.t_faw);
                self.counts.activates += 1;
                IssueOutcome {
                    issued_at: now,
                    data_at: None,
                    completes_at: now.saturating_add(t.t_rcd),
                }
            }
            Command::Precharge { bank, .. } => {
                let i = s.bank_index(rank_idx, bank);
                s.apply_precharge(i, now, t.t_rp);
                self.counts.precharges += 1;
                IssueOutcome {
                    issued_at: now,
                    data_at: None,
                    completes_at: now.saturating_add(t.t_rp),
                }
            }
            Command::Read { bank, .. } => {
                let i = s.bank_index(rank_idx, bank);
                let data_at = s.apply_read(i, now, t.cl, t.burst_cycles(), t.t_rtp, t.t_ccd);
                self.counts.reads += 1;
                self.next_read_ok = self.next_read_ok.max(now.saturating_add(t.t_ccd));
                // Read-to-write: write data may not collide with read data
                // on the bus; conservative gap.
                self.next_write_ok = self.next_write_ok.max(
                    (now.saturating_add(t.cl + t.burst_cycles() + t.t_rtrs)).saturating_sub(t.cwl),
                );
                self.data_bus_free = data_at;
                self.last_data_rank = Some(rank_idx);
                IssueOutcome {
                    issued_at: now,
                    data_at: Some(data_at),
                    completes_at: data_at,
                }
            }
            Command::Write { bank, .. } => {
                let i = s.bank_index(rank_idx, bank);
                let data_at = s.apply_write(i, now, t.cwl, t.burst_cycles(), t.t_wr, t.t_ccd);
                self.counts.writes += 1;
                self.next_write_ok = self.next_write_ok.max(now.saturating_add(t.t_ccd));
                // Write-to-read turnaround on this rank.
                s.next_read_rank[rank_idx] = s.next_read_rank[rank_idx].max(data_at + t.t_wtr);
                self.data_bus_free = data_at;
                self.last_data_rank = Some(rank_idx);
                IssueOutcome {
                    issued_at: now,
                    data_at: Some(data_at),
                    completes_at: data_at,
                }
            }
            Command::Refresh { .. } => {
                s.start_refresh(rank_idx, now, t.t_rfc());
                self.counts.refreshes += 1;
                IssueOutcome {
                    issued_at: now,
                    data_at: None,
                    completes_at: now.saturating_add(t.t_rfc()),
                }
            }
            Command::RefreshBank { bank, .. } => {
                let done = now.saturating_add(t.t_rfc_pb);
                let i = s.bank_index(rank_idx, bank);
                s.apply_bank_refresh(i, done);
                s.record_activate(rank_idx, now, t.t_rrd, t.t_faw);
                self.counts.refreshes_pb += 1;
                IssueOutcome {
                    issued_at: now,
                    data_at: None,
                    completes_at: done,
                }
            }
        };
        self.trace.emit(|| TraceEvent::CmdIssued {
            cycle: now,
            kind: trace_kind(cmd),
            rank: rank_idx,
            bank: cmd.bank(),
            row: match *cmd {
                Command::Activate { row, .. } => Some(row),
                _ => None,
            },
        });
        Ok(outcome)
    }

    /// Earliest cycle a SARP subarray-scoped refresh could issue on
    /// `(rank, bank, subarray)`, or a structural error.
    ///
    /// The refresh needs the rank not all-bank refreshing, the bank not
    /// already refreshing, no open row *in the target subarray* (rows
    /// open in sibling subarrays are fine — local sense amplifiers),
    /// and the rank's ACT-class windows (tRRD/tFAW): internally the
    /// refresh activates rows of the target subarray.
    pub fn earliest_subarray_refresh(
        &self,
        rank: usize,
        bank: usize,
        subarray: usize,
        now: Cycle,
    ) -> Result<Cycle, IssueError> {
        let g = &self.config.geometry;
        if rank >= g.ranks || bank >= g.banks_per_rank || subarray >= g.subarrays_per_bank {
            return Err(IssueError::BadIndex);
        }
        let s = &self.state;
        if s.is_refreshing(rank, now) {
            return Err(IssueError::AlreadyRefreshing);
        }
        let i = s.bank_index(rank, bank);
        if s.is_bank_refreshing(i, now) {
            return Err(IssueError::AlreadyRefreshing);
        }
        if let Some(open) = s.open_row(i) {
            if g.subarray_of_row(open) == subarray {
                return Err(IssueError::RefreshNeedsIdleBanks);
            }
        }
        // Like REFpb, a subarray refresh occupies an activate slot for
        // the power windows (tRRD/tFAW) and must wait out the bank's own
        // tRP/tRC — only the *freeze* is subarray-scoped.
        Ok(s.earliest_activate(rank, now, self.config.timing.t_faw)
            .max(s.next_act[i]))
    }

    /// Issues a SARP subarray-scoped refresh at `now`: locks only
    /// `subarray` of `(rank, bank)` for `tRFCsa`; accesses to the
    /// bank's other subarrays keep flowing.
    pub fn try_issue_subarray_refresh(
        &mut self,
        rank: usize,
        bank: usize,
        subarray: usize,
        now: Cycle,
    ) -> Result<IssueOutcome, IssueError> {
        let earliest = self.earliest_subarray_refresh(rank, bank, subarray, now)?;
        if earliest > now {
            return Err(IssueError::TooEarly { earliest });
        }
        let t = self.config.timing;
        self.state.accrue_background(rank, now);
        let done = now + t.t_rfc_sa;
        let i = self.state.bank_index(rank, bank);
        self.state.apply_subarray_refresh(i, done, subarray);
        self.state.record_activate(rank, now, t.t_rrd, t.t_faw);
        self.counts.refreshes_sa += 1;
        self.trace.emit(|| TraceEvent::CmdIssued {
            cycle: now,
            kind: CmdKind::RefreshSubarray,
            rank,
            bank: Some(bank),
            row: Some(subarray * self.config.geometry.rows_per_subarray()),
        });
        Ok(IssueOutcome {
            issued_at: now,
            data_at: None,
            completes_at: done,
        })
    }

    /// Issues a *partial* all-bank refresh at `now` locking `rank` for
    /// `duration` cycles instead of the full `tRFC` (RAIDR rounds that
    /// only recharge a retention bin's rows). Admission rules are
    /// identical to [`Command::Refresh`].
    ///
    /// # Panics
    /// Debug-asserts `1 <= duration <= tRFC`.
    pub fn try_issue_refresh_scaled(
        &mut self,
        rank: usize,
        now: Cycle,
        duration: Cycle,
    ) -> Result<IssueOutcome, IssueError> {
        debug_assert!(duration >= 1 && duration <= self.config.timing.t_rfc());
        let earliest = self.earliest_issue(&Command::Refresh { rank }, now)?;
        if earliest > now {
            return Err(IssueError::TooEarly { earliest });
        }
        self.state.accrue_background(rank, now);
        self.state.start_refresh(rank, now, duration);
        self.counts.refreshes_partial += 1;
        self.counts.refresh_partial_cycles += duration;
        self.trace.emit(|| TraceEvent::CmdIssued {
            cycle: now,
            kind: CmdKind::Refresh,
            rank,
            bank: None,
            row: None,
        });
        Ok(IssueOutcome {
            issued_at: now,
            data_at: None,
            completes_at: now + duration,
        })
    }

    /// Issues `cmd` at `now`, panicking on failure. For tests and callers
    /// that have already consulted [`Self::earliest_issue`].
    pub fn issue(&mut self, cmd: &Command, now: Cycle) -> IssueOutcome {
        self.try_issue(cmd, now)
            // Documented contract: callers consult `earliest_issue` first.
            // rop-lint: allow(no-panic)
            .unwrap_or_else(|e| panic!("illegal DRAM command {cmd:?} at cycle {now}: {e:?}"))
    }

    /// Count of commands of `kind` issued so far.
    pub fn count_of(&self, kind: CommandKind) -> u64 {
        match kind {
            CommandKind::Activate => self.counts.activates,
            CommandKind::Precharge => self.counts.precharges,
            CommandKind::Read => self.counts.reads,
            CommandKind::Write => self.counts.writes,
            CommandKind::Refresh => self.counts.refreshes,
            CommandKind::RefreshBank => self.counts.refreshes_pb,
        }
    }

    /// Finalises background accrual up to `now` and returns the energy
    /// breakdown for the whole channel.
    pub fn energy_breakdown(&mut self, now: Cycle) -> EnergyBreakdown {
        self.state.accrue_all(now);
        let events = EnergyEvents {
            activates: self.counts.activates,
            reads: self.counts.reads,
            writes: self.counts.writes,
            refreshes: self.counts.refreshes,
            refreshes_pb: self.counts.refreshes_pb,
            refreshes_sa: self.counts.refreshes_sa,
            refresh_partial_cycles: self.counts.refresh_partial_cycles,
            cycles_some_active: self.state.total_cycles_some_active(),
            cycles_all_precharged: self.state.total_cycles_all_precharged(),
        };
        events.breakdown(&self.config.energy, &self.config.timing)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DramConfig;
    use crate::timing::TimingParams;

    fn device() -> DramDevice {
        DramDevice::new(DramConfig::baseline(2))
    }

    #[test]
    fn open_read_close_sequence() {
        let mut d = device();
        let t = d.config().timing;
        let act = Command::Activate {
            rank: 0,
            bank: 0,
            row: 7,
        };
        let out = d.issue(&act, 0);
        assert_eq!(out.completes_at, t.t_rcd);
        assert_eq!(d.open_row(0, 0), Some(7));

        let rd = Command::Read {
            rank: 0,
            bank: 0,
            column: 3,
        };
        // Too early before tRCD.
        assert!(matches!(
            d.try_issue(&rd, 1),
            Err(IssueError::TooEarly { .. })
        ));
        let out = d.issue(&rd, t.t_rcd);
        assert_eq!(out.data_at, Some(t.t_rcd + t.cl + t.burst_cycles()));

        let pre = Command::Precharge { rank: 0, bank: 0 };
        let earliest = d.earliest_issue(&pre, t.t_rcd).unwrap();
        assert!(earliest >= t.t_ras); // tRAS still governs
        d.issue(&pre, earliest);
        assert_eq!(d.open_row(0, 0), None);
    }

    #[test]
    fn read_requires_open_row() {
        let mut d = device();
        let rd = Command::Read {
            rank: 0,
            bank: 0,
            column: 0,
        };
        assert_eq!(d.try_issue(&rd, 0), Err(IssueError::BankNotOpen));
    }

    #[test]
    fn activate_requires_idle_bank() {
        let mut d = device();
        d.issue(
            &Command::Activate {
                rank: 0,
                bank: 0,
                row: 1,
            },
            0,
        );
        let again = Command::Activate {
            rank: 0,
            bank: 0,
            row: 2,
        };
        assert_eq!(d.try_issue(&again, 100), Err(IssueError::BankNotIdle));
    }

    #[test]
    fn refresh_locks_rank_for_trfc() {
        let mut d = device();
        let t = d.config().timing;
        let out = d.issue(&Command::Refresh { rank: 0 }, 10);
        assert_eq!(out.completes_at, 10 + t.t_rfc());
        assert!(d.is_rank_refreshing(0, 10));
        assert!(d.is_rank_refreshing(0, 10 + t.t_rfc() - 1));
        assert!(!d.is_rank_refreshing(0, 10 + t.t_rfc()));
        // ACT on the frozen rank must wait for the refresh to finish.
        let act = Command::Activate {
            rank: 0,
            bank: 0,
            row: 0,
        };
        let earliest = d.earliest_issue(&act, 20).unwrap();
        assert_eq!(earliest, 10 + t.t_rfc());
        // The *other* rank is unaffected.
        let act1 = Command::Activate {
            rank: 1,
            bank: 0,
            row: 0,
        };
        assert_eq!(d.earliest_issue(&act1, 20).unwrap(), 20);
    }

    #[test]
    fn per_bank_refresh_freezes_only_its_bank() {
        let mut d = device();
        let t = d.config().timing;
        let out = d.issue(&Command::RefreshBank { rank: 0, bank: 2 }, 10);
        assert_eq!(out.completes_at, 10 + t.t_rfc_pb);
        assert!(d.is_bank_refreshing(0, 2, 10));
        assert!(!d.is_bank_refreshing(0, 2, 10 + t.t_rfc_pb));
        // The refreshing bank cannot activate until REFpb completes...
        let act2 = Command::Activate {
            rank: 0,
            bank: 2,
            row: 0,
        };
        assert_eq!(d.earliest_issue(&act2, 20).unwrap(), 10 + t.t_rfc_pb);
        // ...but a sibling bank activates immediately.
        let act3 = Command::Activate {
            rank: 0,
            bank: 3,
            row: 0,
        };
        assert_eq!(d.earliest_issue(&act3, 20).unwrap(), 20);
        assert_eq!(d.counts().refreshes_pb, 1);
        assert_eq!(d.count_of(CommandKind::RefreshBank), 1);
    }

    #[test]
    fn subarray_refresh_admits_other_subarrays() {
        let mut d = device();
        let t = d.config().timing;
        let g = d.config().geometry;
        let out = d.try_issue_subarray_refresh(0, 2, 0, 10).unwrap();
        assert_eq!(out.completes_at, 10 + t.t_rfc_sa);
        assert!(d.is_bank_refreshing(0, 2, 10));
        assert_eq!(d.frozen_subarray(0, 2, 10), Some(0));
        // ACT to a row of the frozen subarray must wait out the window...
        let frozen_row = Command::Activate {
            rank: 0,
            bank: 2,
            row: 0,
        };
        assert_eq!(d.earliest_issue(&frozen_row, 20).unwrap(), 10 + t.t_rfc_sa);
        // ...but a row of a sibling subarray of the SAME bank activates
        // immediately (the point of SARP).
        let other_row = Command::Activate {
            rank: 0,
            bank: 2,
            row: g.rows_per_subarray(),
        };
        assert_eq!(d.earliest_issue(&other_row, 20).unwrap(), 20);
        assert_eq!(d.counts().refreshes_sa, 1);
    }

    #[test]
    fn subarray_refresh_needs_target_subarray_idle() {
        let mut d = device();
        let g = d.config().geometry;
        // Open a row in subarray 1 of bank 0.
        d.issue(
            &Command::Activate {
                rank: 0,
                bank: 0,
                row: g.rows_per_subarray(),
            },
            0,
        );
        // Refreshing subarray 1 is rejected while its row is open...
        assert_eq!(
            d.try_issue_subarray_refresh(0, 0, 1, 50),
            Err(IssueError::RefreshNeedsIdleBanks)
        );
        // ...but subarray 0 can refresh under the open row next door.
        assert!(d.try_issue_subarray_refresh(0, 0, 0, 50).is_ok());
        // Double subarray refresh on the same bank is rejected.
        assert_eq!(
            d.try_issue_subarray_refresh(0, 0, 3, 51),
            Err(IssueError::AlreadyRefreshing)
        );
    }

    #[test]
    fn scaled_refresh_locks_for_its_duration_only() {
        let mut d = device();
        let out = d.try_issue_refresh_scaled(0, 10, 40).unwrap();
        assert_eq!(out.completes_at, 50);
        assert!(d.is_rank_refreshing(0, 49));
        assert!(!d.is_rank_refreshing(0, 50));
        let c = d.counts();
        assert_eq!(c.refreshes, 0);
        assert_eq!(c.refreshes_partial, 1);
        assert_eq!(c.refresh_partial_cycles, 40);
        // Energy is charged pro rata, not per full REF quantum.
        let e = d.energy_breakdown(1000);
        let full = d.config().energy.refresh_energy_nj(&d.config().timing);
        assert!(e.refresh_nj > 0.0 && e.refresh_nj < full / 2.0);
    }

    #[test]
    fn per_bank_refresh_requires_idle_bank() {
        let mut d = device();
        d.issue(
            &Command::Activate {
                rank: 0,
                bank: 1,
                row: 4,
            },
            0,
        );
        assert_eq!(
            d.try_issue(&Command::RefreshBank { rank: 0, bank: 1 }, 50),
            Err(IssueError::RefreshNeedsIdleBanks)
        );
    }

    #[test]
    fn refresh_requires_idle_banks() {
        let mut d = device();
        d.issue(
            &Command::Activate {
                rank: 0,
                bank: 3,
                row: 9,
            },
            0,
        );
        assert_eq!(
            d.try_issue(&Command::Refresh { rank: 0 }, 50),
            Err(IssueError::RefreshNeedsIdleBanks)
        );
    }

    #[test]
    fn double_refresh_rejected() {
        let mut d = device();
        d.issue(&Command::Refresh { rank: 0 }, 0);
        assert_eq!(
            d.try_issue(&Command::Refresh { rank: 0 }, 5),
            Err(IssueError::AlreadyRefreshing)
        );
    }

    #[test]
    fn row_mismatch_detected() {
        let mut d = device();
        d.issue(
            &Command::Activate {
                rank: 0,
                bank: 0,
                row: 5,
            },
            0,
        );
        assert!(d.check_open_row(0, 0, 5).is_ok());
        assert_eq!(
            d.check_open_row(0, 0, 6),
            Err(IssueError::RowMismatch { open: 5 })
        );
    }

    #[test]
    fn write_to_read_turnaround() {
        let mut d = device();
        let t = d.config().timing;
        d.issue(
            &Command::Activate {
                rank: 0,
                bank: 0,
                row: 1,
            },
            0,
        );
        let wr = Command::Write {
            rank: 0,
            bank: 0,
            column: 0,
        };
        let wr_out = d.issue(&wr, t.t_rcd);
        let rd = Command::Read {
            rank: 0,
            bank: 0,
            column: 1,
        };
        let earliest = d.earliest_issue(&rd, t.t_rcd + 1).unwrap();
        assert!(earliest >= wr_out.data_at.unwrap() + t.t_wtr);
    }

    #[test]
    fn rank_switch_penalty_on_bus() {
        let mut d = device();
        let t = d.config().timing;
        d.issue(
            &Command::Activate {
                rank: 0,
                bank: 0,
                row: 1,
            },
            0,
        );
        d.issue(
            &Command::Activate {
                rank: 1,
                bank: 0,
                row: 1,
            },
            t.t_rrd,
        );
        let rd0 = Command::Read {
            rank: 0,
            bank: 0,
            column: 0,
        };
        let out0 = d.issue(&rd0, t.t_rcd + t.t_rrd);
        // Read from the other rank: its data must wait tRTRS after rank 0's.
        let rd1 = Command::Read {
            rank: 1,
            bank: 0,
            column: 0,
        };
        let earliest = d.earliest_issue(&rd1, out0.issued_at).unwrap();
        assert!(earliest + t.cl >= out0.data_at.unwrap() + t.t_rtrs);
    }

    #[test]
    fn fgr_modes_shrink_the_freeze() {
        for (cfg, expect_rfc) in [
            (rop_config_with(TimingParams::ddr4_1600_8gb()), 280),
            (rop_config_with(TimingParams::ddr4_1600_8gb_fgr2x()), 208),
            (rop_config_with(TimingParams::ddr4_1600_8gb_fgr4x()), 128),
        ] {
            let mut d = DramDevice::new(cfg);
            let out = d.issue(&Command::Refresh { rank: 0 }, 0);
            assert_eq!(out.completes_at, expect_rfc);
        }
    }

    fn rop_config_with(timing: TimingParams) -> DramConfig {
        DramConfig {
            timing,
            ..DramConfig::baseline(1)
        }
    }

    #[test]
    fn all_bank_refresh_waits_for_per_bank_refresh() {
        let mut d = device();
        let t = d.config().timing;
        d.issue(&Command::RefreshBank { rank: 0, bank: 0 }, 0);
        // REF requires every bank window elapsed, including the REFpb'd one.
        let earliest = d
            .earliest_issue(&Command::Refresh { rank: 0 }, 1)
            .expect("banks idle");
        assert_eq!(earliest, t.t_rfc_pb);
    }

    #[test]
    fn refresh_pb_energy_counted() {
        let mut d = device();
        d.issue(&Command::RefreshBank { rank: 0, bank: 0 }, 0);
        let e = d.energy_breakdown(10_000);
        assert!(e.refresh_nj > 0.0);
        // A REFpb costs far less than an all-bank REF.
        let quantum = d.config().energy.refresh_pb_energy_nj(&d.config().timing);
        let full = d.config().energy.refresh_energy_nj(&d.config().timing);
        assert!(quantum < full / 4.0);
    }

    #[test]
    fn bad_indices_rejected() {
        let mut d = device();
        assert_eq!(
            d.try_issue(&Command::Refresh { rank: 9 }, 0),
            Err(IssueError::BadIndex)
        );
        assert_eq!(
            d.try_issue(
                &Command::Activate {
                    rank: 0,
                    bank: 99,
                    row: 0
                },
                0
            ),
            Err(IssueError::BadIndex)
        );
        assert_eq!(
            d.try_issue(
                &Command::Activate {
                    rank: 0,
                    bank: 0,
                    row: usize::MAX
                },
                0
            ),
            Err(IssueError::BadIndex)
        );
    }

    #[test]
    fn counts_and_energy() {
        let mut d = device();
        let t = d.config().timing;
        d.issue(
            &Command::Activate {
                rank: 0,
                bank: 0,
                row: 1,
            },
            0,
        );
        d.issue(
            &Command::Read {
                rank: 0,
                bank: 0,
                column: 0,
            },
            t.t_rcd,
        );
        let pre_at = d
            .earliest_issue(&Command::Precharge { rank: 0, bank: 0 }, t.t_rcd)
            .unwrap();
        d.issue(&Command::Precharge { rank: 0, bank: 0 }, pre_at);
        d.issue(&Command::Refresh { rank: 1 }, 0);
        let c = d.counts();
        assert_eq!(c.activates, 1);
        assert_eq!(c.reads, 1);
        assert_eq!(c.precharges, 1);
        assert_eq!(c.refreshes, 1);
        assert_eq!(d.count_of(CommandKind::Read), 1);
        let e = d.energy_breakdown(10_000);
        assert!(e.refresh_nj > 0.0);
        assert!(e.background_nj > 0.0);
        assert!(e.total_nj() > e.refresh_nj);
    }
}
