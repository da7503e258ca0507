//! Controller configuration.

use crate::address::MappingScheme;
use crate::mechanism::RefreshScope;
use crate::Cycle;
use rop_core::RopConfig;
use rop_dram::DramConfig;

/// Elastic Refresh's debt cap: the JEDEC DDR4 budget of eight
/// outstanding postponed refreshes.
pub const ELASTIC_MAX_DEBT: u32 = 8;

/// Which refresh *mechanism* drives the controller's Refresh Manager —
/// the one config axis for "how refresh behaves": issue policy and
/// granularity together, so a mechanism can never be paired with a
/// granularity it does not run at. It is the seam along which the
/// paper's baseline and the related-work rivals (Elastic Refresh,
/// REFpb, DARP, SARP, RAIDR) are compared head to head.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MechanismKind {
    /// Auto-refresh, drain-then-refresh, in slot order: one REF per
    /// rank per tREFI — the paper's baseline — or, with `per_bank`,
    /// one REFpb per bank per tREFI (the paper's §VII future-work
    /// memory model, each bank freezing only itself for `tRFCpb`).
    AllBank {
        /// Refresh each bank independently (REFpb) instead of the rank.
        per_bank: bool,
    },
    /// Elastic Refresh (Stuecheli et al., MICRO'10) over all-bank REF:
    /// postpone a due refresh while the rank has pending demand,
    /// accruing a debt of owed refreshes; pay owed refreshes as soon as
    /// the rank goes idle, and start paying regardless once the debt
    /// reaches [`ELASTIC_MAX_DEBT`]. A forced payment still drains
    /// first, so the debt can overshoot the cap (EXPERIMENTS.md, D3).
    Elastic,
    /// DARP (Chang et al., HPCA'14): per-bank refresh issued *out of
    /// order* — an upcoming REFpb is pulled into the present when its
    /// bank has no queued demand, and pull-in is widened during write
    /// drains so refreshes hide behind write bursts.
    Darp,
    /// SARP (Chang et al., HPCA'14): subarray-level parallelism — each
    /// per-bank refresh locks only one subarray (for `tRFCsa`), rotating
    /// round-robin; accesses to the bank's other subarrays keep flowing.
    Sarp,
    /// RAIDR (Liu et al., ISCA'12) over all-bank REF: retention-aware
    /// refresh binning. Rows are binned 64/128/256 ms by seeded Bloom
    /// filters; each tREFI round refreshes only the rows whose bin
    /// falls due, as a pro-rata-shortened REF, and rounds with no due
    /// bin are skipped.
    Raidr {
        /// Seed for the per-rank weak-row draw and Bloom hashing.
        seed: u64,
        /// Period of the fastest (64 ms-class) bin, in memory cycles.
        /// Must be a positive multiple of tREFI; the 128/256 ms-class
        /// bins refresh at 2× and 4× this period.
        bin_period: Cycle,
    },
}

impl MechanismKind {
    /// Short stable name, one per variant: the key `rop-lint
    /// verify-mech` and the pre-sweep gate select zoo members by.
    pub fn label(&self) -> &'static str {
        match self {
            MechanismKind::AllBank { per_bank: false } => "allbank",
            MechanismKind::AllBank { per_bank: true } => "allbank-pb",
            MechanismKind::Elastic => "elastic",
            MechanismKind::Darp => "darp",
            MechanismKind::Sarp => "sarp",
            MechanismKind::Raidr { .. } => "raidr",
        }
    }

    /// The label a run records in `RunMetrics::mechanism` (and the
    /// sweep export's `mechanism` column): the refresh-command family.
    /// Elastic and REFpb issue plain REF/REFpb commands and record as
    /// `allbank`, the family they share with the baseline.
    pub fn metrics_label(&self) -> &'static str {
        match self {
            MechanismKind::AllBank { .. } | MechanismKind::Elastic => "allbank",
            other => other.label(),
        }
    }

    /// Slot granularity the mechanism refreshes at.
    pub fn scope(&self) -> RefreshScope {
        match self {
            MechanismKind::AllBank { per_bank: true }
            | MechanismKind::Darp
            | MechanismKind::Sarp => RefreshScope::PerBank,
            MechanismKind::AllBank { per_bank: false }
            | MechanismKind::Elastic
            | MechanismKind::Raidr { .. } => RefreshScope::PerRank,
        }
    }

    /// The cap on owed refreshes, for a mechanism that postpones
    /// refreshes into a debt (Elastic); `None` for the drain-bounded
    /// rest of the zoo.
    pub fn debt_cap(&self) -> Option<u32> {
        matches!(self, MechanismKind::Elastic).then_some(ELASTIC_MAX_DEBT)
    }
}

/// Memory-controller configuration (paper Table III: 64/64-entry
/// read/write queues, FR-FCFS, writes scheduled in batches).
#[derive(Debug, Clone)]
pub struct MemCtrlConfig {
    /// DRAM device configuration.
    pub dram: DramConfig,
    /// Address-mapping scheme.
    pub mapping: MappingScheme,
    /// Read-queue capacity.
    pub read_queue_capacity: usize,
    /// Write-queue capacity.
    pub write_queue_capacity: usize,
    /// Enter write-drain mode when the write queue reaches this depth.
    pub write_drain_high: usize,
    /// Leave write-drain mode when it falls to this depth.
    pub write_drain_low: usize,
    /// FR-FCFS age cap: a request older than this is served before any
    /// younger row hit (starvation guard).
    pub age_cap: Cycle,
    /// Refresh-drain deadline: a due refresh is forced once it has been
    /// postponed this many cycles (JEDEC allows up to 8·tREFI; draining
    /// normally finishes within a fraction of one tREFI).
    pub max_refresh_postpone: Cycle,
    /// ROP prefetch grace: once a refresh is due, prefetch requests get
    /// at most this many cycles of *opportunistic* (lowest-priority) bus
    /// slots before the refresh issues anyway and leftover prefetches are
    /// dropped. Bounds the refresh delay prefetching can cause (§IV-D:
    /// JEDEC tolerates delayed refreshes; we keep the delay small).
    pub prefetch_grace: Cycle,
    /// The refresh mechanism driving the Refresh Manager: issue policy
    /// and granularity (see [`MechanismKind`]).
    pub mechanism: MechanismKind,
    /// ROP configuration; `None` disables ROP entirely (baseline system).
    pub rop: Option<RopConfig>,
}

impl MemCtrlConfig {
    /// Paper baseline controller over the given DRAM config.
    pub fn baseline(dram: DramConfig) -> Self {
        MemCtrlConfig {
            dram,
            mapping: MappingScheme::RowRankBankCol,
            read_queue_capacity: 64,
            write_queue_capacity: 64,
            write_drain_high: 48,
            write_drain_low: 16,
            age_cap: 2_000,
            max_refresh_postpone: 2 * 6_240,
            prefetch_grace: 560,
            mechanism: MechanismKind::AllBank { per_bank: false },
            rop: None,
        }
    }

    /// Baseline controller with per-bank refresh (§VII future work).
    pub fn per_bank(dram: DramConfig) -> Self {
        MemCtrlConfig {
            mechanism: MechanismKind::AllBank { per_bank: true },
            ..Self::baseline(dram)
        }
    }

    /// ROP on top of per-bank refresh: the windows track `tRFCpb`, and
    /// each REFpb prefetches only for its own bank.
    pub fn rop_per_bank(dram: DramConfig, buffer_capacity: usize, seed: u64) -> Self {
        let mut cfg = Self::rop(dram, buffer_capacity, seed);
        cfg.mechanism = MechanismKind::AllBank { per_bank: true };
        let t_rfc_pb = cfg.dram.timing.t_rfc_pb;
        let rop = cfg.rop.as_mut().expect("rop config present");
        rop.observational_window = t_rfc_pb;
        rop.refresh_period = t_rfc_pb;
        cfg
    }

    /// DARP (out-of-order per-bank refresh).
    pub fn darp(dram: DramConfig) -> Self {
        MemCtrlConfig {
            mechanism: MechanismKind::Darp,
            ..Self::baseline(dram)
        }
    }

    /// SARP (subarray-scoped per-bank refresh).
    pub fn sarp(dram: DramConfig) -> Self {
        MemCtrlConfig {
            mechanism: MechanismKind::Sarp,
            ..Self::baseline(dram)
        }
    }

    /// RAIDR (retention-aware binned refresh) over all-bank REF. The
    /// default bin period compresses the paper's 64 ms bin to two tREFI
    /// so bin rotation is observable at simulation timescales.
    pub fn raidr(dram: DramConfig, seed: u64) -> Self {
        let bin_period = 2 * dram.timing.t_refi();
        MemCtrlConfig {
            mechanism: MechanismKind::Raidr { seed, bin_period },
            ..Self::baseline(dram)
        }
    }

    /// Baseline controller with Elastic Refresh (Stuecheli et al.), the
    /// related-work refresh-hiding scheduler the paper discusses.
    pub fn elastic(dram: DramConfig) -> Self {
        MemCtrlConfig {
            mechanism: MechanismKind::Elastic,
            ..Self::baseline(dram)
        }
    }

    /// Baseline with rank partitioning (the paper's Baseline-RP).
    pub fn baseline_rp(dram: DramConfig) -> Self {
        MemCtrlConfig {
            mapping: MappingScheme::RankPartitioned,
            ..Self::baseline(dram)
        }
    }

    /// Full ROP system: rank partitioning + the ROP engine.
    ///
    /// The ROP engine's window/geometry parameters are derived from the
    /// DRAM config so they stay consistent.
    pub fn rop(dram: DramConfig, buffer_capacity: usize, seed: u64) -> Self {
        let mut rop = RopConfig::with_capacity(buffer_capacity);
        rop.observational_window = dram.timing.t_rfc();
        rop.refresh_period = dram.timing.t_rfc();
        rop.banks_per_rank = dram.geometry.banks_per_rank;
        rop.lines_per_bank = (dram.geometry.rows_per_bank * dram.geometry.lines_per_row) as u64;
        rop.seed = seed;
        let mut cfg = MemCtrlConfig {
            mapping: MappingScheme::RankPartitioned,
            rop: Some(rop),
            ..Self::baseline(dram)
        };
        // The fill of `capacity` lines is tCCD-bound; give the grace
        // window room for it (plus slack for demand interleaving), or
        // large buffers never fill and their tail candidates are dropped.
        cfg.prefetch_grace = cfg
            .prefetch_grace
            .max(buffer_capacity as u64 * cfg.dram.timing.t_ccd + 120);
        cfg
    }

    /// Validates queue and watermark consistency.
    pub fn validate(&self) -> Result<(), String> {
        self.dram.validate()?;
        if self.read_queue_capacity == 0 || self.write_queue_capacity == 0 {
            return Err("queues must be non-empty".into());
        }
        if self.write_drain_high > self.write_queue_capacity {
            return Err("write_drain_high exceeds write queue capacity".into());
        }
        if self.write_drain_low >= self.write_drain_high {
            return Err("write_drain_low must be below write_drain_high".into());
        }
        match self.mechanism {
            MechanismKind::AllBank { .. } | MechanismKind::Elastic | MechanismKind::Darp => {}
            MechanismKind::Sarp => {
                if self.dram.geometry.subarrays_per_bank < 2 {
                    return Err("SARP needs at least 2 subarrays per bank".into());
                }
                if self.dram.timing.t_rfc_sa == 0 {
                    return Err("SARP needs tRFCsa > 0".into());
                }
            }
            MechanismKind::Raidr { bin_period, .. } => {
                let t_refi = self.dram.timing.t_refi();
                if bin_period == 0 || bin_period % t_refi != 0 {
                    return Err(format!(
                        "RAIDR bin period {bin_period} must be a positive multiple of tREFI ({t_refi})"
                    ));
                }
            }
        }
        if let Some(rop) = &self.rop {
            rop.validate()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_valid() {
        MemCtrlConfig::baseline(DramConfig::baseline(1))
            .validate()
            .unwrap();
        MemCtrlConfig::baseline_rp(DramConfig::baseline(4))
            .validate()
            .unwrap();
        MemCtrlConfig::rop(DramConfig::baseline(4), 64, 1)
            .validate()
            .unwrap();
    }

    #[test]
    fn rop_config_derived_from_dram() {
        let c = MemCtrlConfig::rop(DramConfig::baseline(1), 32, 7);
        let rop = c.rop.as_ref().unwrap();
        assert_eq!(rop.observational_window, 280);
        assert_eq!(rop.banks_per_rank, 8);
        assert_eq!(rop.buffer_capacity, 32);
        assert_eq!(rop.lines_per_bank, (1u64 << 15) * 128);
    }

    #[test]
    fn mechanism_presets_valid() {
        MemCtrlConfig::darp(DramConfig::baseline(1))
            .validate()
            .unwrap();
        MemCtrlConfig::sarp(DramConfig::baseline(2))
            .validate()
            .unwrap();
        MemCtrlConfig::raidr(DramConfig::baseline(1), 7)
            .validate()
            .unwrap();
    }

    #[test]
    fn every_preset_names_its_granularity() {
        let d = || DramConfig::baseline(1);
        let kinds = [
            (
                MemCtrlConfig::baseline(d()),
                "allbank",
                RefreshScope::PerRank,
            ),
            (
                MemCtrlConfig::per_bank(d()),
                "allbank-pb",
                RefreshScope::PerBank,
            ),
            (
                MemCtrlConfig::rop_per_bank(d(), 64, 1),
                "allbank-pb",
                RefreshScope::PerBank,
            ),
            (
                MemCtrlConfig::elastic(d()),
                "elastic",
                RefreshScope::PerRank,
            ),
            (MemCtrlConfig::darp(d()), "darp", RefreshScope::PerBank),
            (MemCtrlConfig::sarp(d()), "sarp", RefreshScope::PerBank),
            (MemCtrlConfig::raidr(d(), 1), "raidr", RefreshScope::PerRank),
        ];
        for (cfg, label, scope) in kinds {
            cfg.validate().unwrap();
            assert_eq!(cfg.mechanism.label(), label);
            assert_eq!(cfg.mechanism.scope(), scope, "{label}");
        }
        // Elastic and REFpb record under the all-bank family.
        assert_eq!(MechanismKind::Elastic.metrics_label(), "allbank");
        assert_eq!(
            MechanismKind::AllBank { per_bank: true }.metrics_label(),
            "allbank"
        );
        assert_eq!(MechanismKind::Darp.metrics_label(), "darp");
        assert_eq!(MechanismKind::Elastic.debt_cap(), Some(ELASTIC_MAX_DEBT));
        assert_eq!(MechanismKind::Darp.debt_cap(), None);
    }

    #[test]
    fn sarp_needs_subarrays_and_trfcsa() {
        let mut c = MemCtrlConfig::sarp(DramConfig::baseline(1));
        c.dram.geometry.subarrays_per_bank = 1;
        assert!(c.validate().is_err());
        let mut c = MemCtrlConfig::sarp(DramConfig::baseline(1));
        c.dram.timing.t_rfc_sa = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn raidr_bin_period_must_divide_trefi() {
        let mut c = MemCtrlConfig::raidr(DramConfig::baseline(1), 1);
        if let MechanismKind::Raidr { bin_period, .. } = &mut c.mechanism {
            *bin_period += 1;
        }
        assert!(c.validate().is_err());
        let mut c = MemCtrlConfig::raidr(DramConfig::baseline(1), 1);
        if let MechanismKind::Raidr { bin_period, .. } = &mut c.mechanism {
            *bin_period = 0;
        }
        assert!(c.validate().is_err());
    }

    #[test]
    fn watermark_validation() {
        let mut c = MemCtrlConfig::baseline(DramConfig::baseline(1));
        c.write_drain_low = c.write_drain_high;
        assert!(c.validate().is_err());
        let mut c = MemCtrlConfig::baseline(DramConfig::baseline(1));
        c.write_drain_high = c.write_queue_capacity + 1;
        assert!(c.validate().is_err());
    }
}
