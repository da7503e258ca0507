//! DDR4 timing parameters.
//!
//! All values are in memory-clock cycles (tCK = 1.25 ns at DDR4-1600).
//! The preset matches the paper's Table III configuration: DDR4-1600,
//! 8 Gb devices, `tREFI = 7.8 µs`, `tRFC = 350 ns` in 1x refresh mode.

use crate::Cycle;

/// DDR4 fine-grained refresh (FGR) mode.
///
/// JEDEC DDR4 allows trading refresh-command frequency against
/// per-command duration: 2x mode halves `tREFI` and shrinks `tRFC`,
/// 4x mode quarters `tREFI`. The paper evaluates 1x mode and lists FGR as
/// the motivation for `Adaptive Refresh`-style related work; we expose all
/// three so the ablation benches can sweep them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RefreshGranularity {
    /// Normal mode: refresh every `tREFI`, each taking `tRFC1`.
    X1,
    /// Fine-grained 2x: refresh every `tREFI/2`, each taking `tRFC2`.
    X2,
    /// Fine-grained 4x: refresh every `tREFI/4`, each taking `tRFC4`.
    X4,
}

/// The complete set of timing constraints the device model enforces.
///
/// Field names follow JEDEC. Same-bank-group (`_L`) timings are used
/// uniformly — the model does not track bank groups separately, which is
/// the conservative choice (it never under-reports latency).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimingParams {
    /// ACT to internal read/write delay.
    pub t_rcd: Cycle,
    /// PRE to ACT delay (row precharge).
    pub t_rp: Cycle,
    /// ACT to PRE minimum (row active time).
    pub t_ras: Cycle,
    /// ACT to ACT same bank (`tRAS + tRP`).
    pub t_rc: Cycle,
    /// CAS latency: READ issue to first data beat.
    pub cl: Cycle,
    /// CAS write latency: WRITE issue to first data beat.
    pub cwl: Cycle,
    /// Burst length in beats (8 for DDR4); occupies `bl/2` clock cycles.
    pub bl: Cycle,
    /// Column-to-column delay (same bank group, conservative).
    pub t_ccd: Cycle,
    /// ACT to ACT different bank, same rank.
    pub t_rrd: Cycle,
    /// Four-activate window: at most 4 ACTs per rank in this window.
    pub t_faw: Cycle,
    /// Write recovery: last write data beat to PRE.
    pub t_wr: Cycle,
    /// Write-to-read turnaround: last write data beat to READ issue.
    pub t_wtr: Cycle,
    /// Read-to-precharge delay.
    pub t_rtp: Cycle,
    /// Rank-to-rank data-bus switch penalty.
    pub t_rtrs: Cycle,
    /// Average refresh interval in 1x mode.
    pub t_refi_base: Cycle,
    /// Refresh command duration in 1x mode.
    pub t_rfc1: Cycle,
    /// Refresh command duration in FGR 2x mode.
    pub t_rfc2: Cycle,
    /// Refresh command duration in FGR 4x mode.
    pub t_rfc4: Cycle,
    /// Per-bank refresh (REFpb) duration — the §VII future-work mode:
    /// one bank refreshes while the rest of the rank keeps serving.
    pub t_rfc_pb: Cycle,
    /// Subarray-scoped refresh duration (SARP): while a per-bank refresh
    /// is charging one subarray, accesses to the bank's other subarrays
    /// proceed; only this window locks the target subarray's rows.
    pub t_rfc_sa: Cycle,
    /// Active refresh granularity.
    pub refresh_mode: RefreshGranularity,
}

impl TimingParams {
    /// DDR4-1600 timing for 8 Gb devices — the paper's configuration
    /// (Table III): `tCK = 1.25 ns`, `tREFI = 7.8 µs = 6240 tCK`,
    /// `tRFC = 350 ns = 280 tCK`.
    pub fn ddr4_1600_8gb() -> Self {
        TimingParams {
            t_rcd: 11, // 13.75 ns
            t_rp: 11,  // 13.75 ns
            t_ras: 28, // 35 ns
            t_rc: 39,  // 48.75 ns
            cl: 11,    // 13.75 ns
            cwl: 9,    // 11.25 ns
            bl: 8,     // 8 beats = 4 clocks of data bus
            t_ccd: 5,  // tCCD_L
            t_rrd: 5,  // tRRD_L
            t_faw: 24, // 30 ns
            t_wr: 12,  // 15 ns
            t_wtr: 6,  // tWTR_L, 7.5 ns
            t_rtp: 6,  // 7.5 ns
            t_rtrs: 2,
            t_refi_base: 6240, // 7.8 µs
            t_rfc1: 280,       // 350 ns
            t_rfc2: 208,       // 260 ns
            t_rfc4: 128,       // 160 ns
            t_rfc_pb: 112,     // 140 ns (LPDDR4-class REFpb for 8 Gb)
            t_rfc_sa: 90,      // 112.5 ns (REFpb minus the shared-I/O overlap)
            refresh_mode: RefreshGranularity::X1,
        }
    }

    /// Same device with fine-grained refresh 2x enabled.
    pub fn ddr4_1600_8gb_fgr2x() -> Self {
        TimingParams {
            refresh_mode: RefreshGranularity::X2,
            ..Self::ddr4_1600_8gb()
        }
    }

    /// Same device with fine-grained refresh 4x enabled.
    pub fn ddr4_1600_8gb_fgr4x() -> Self {
        TimingParams {
            refresh_mode: RefreshGranularity::X4,
            ..Self::ddr4_1600_8gb()
        }
    }

    /// Number of data-bus clock cycles one burst occupies (`BL/2`).
    #[inline]
    pub fn burst_cycles(&self) -> Cycle {
        self.bl / 2
    }

    /// Effective refresh interval under the active FGR mode.
    #[inline]
    pub fn t_refi(&self) -> Cycle {
        match self.refresh_mode {
            RefreshGranularity::X1 => self.t_refi_base,
            RefreshGranularity::X2 => self.t_refi_base / 2,
            RefreshGranularity::X4 => self.t_refi_base / 4,
        }
    }

    /// Effective refresh-command duration under the active FGR mode.
    #[inline]
    pub fn t_rfc(&self) -> Cycle {
        match self.refresh_mode {
            RefreshGranularity::X1 => self.t_rfc1,
            RefreshGranularity::X2 => self.t_rfc2,
            RefreshGranularity::X4 => self.t_rfc4,
        }
    }

    /// Refresh duty cycle `tRFC / tREFI` — the fraction of time a rank is
    /// frozen, which the paper calls out as the quantity that grows with
    /// density.
    pub fn refresh_duty_cycle(&self) -> f64 {
        self.t_rfc() as f64 / self.t_refi() as f64
    }

    /// Read command issue to last data beat received.
    #[inline]
    pub fn read_latency(&self) -> Cycle {
        self.cl + self.burst_cycles()
    }

    /// Write command issue to last data beat driven.
    #[inline]
    pub fn write_latency(&self) -> Cycle {
        self.cwl + self.burst_cycles()
    }

    /// Validates internal consistency of the parameters.
    pub fn validate(&self) -> Result<(), String> {
        if self.t_rc < self.t_ras + self.t_rp {
            return Err(format!(
                "tRC ({}) must be >= tRAS + tRP ({})",
                self.t_rc,
                self.t_ras + self.t_rp
            ));
        }
        if !self.bl.is_multiple_of(2) || self.bl == 0 {
            return Err(format!(
                "burst length must be even and non-zero, got {}",
                self.bl
            ));
        }
        if self.t_rfc1 < self.t_rfc2 || self.t_rfc2 < self.t_rfc4 {
            return Err("tRFC must shrink with finer refresh granularity".into());
        }
        if self.t_rfc_pb >= self.t_rfc1 {
            return Err("per-bank refresh must be shorter than all-bank".into());
        }
        if self.t_rfc_sa == 0 || self.t_rfc_sa > self.t_rfc_pb {
            return Err(format!(
                "subarray refresh window tRFCsa ({}) must be in 1..=tRFCpb ({})",
                self.t_rfc_sa, self.t_rfc_pb
            ));
        }
        if self.t_rfc() >= self.t_refi() {
            return Err("tRFC must be smaller than tREFI (duty cycle < 1)".into());
        }
        if self.t_faw < self.t_rrd {
            return Err("tFAW must be at least tRRD".into());
        }
        // A column command moves the data bus forward by at least one
        // burst and can lift the rank-switch penalty off its own rank's
        // column commands. With the burst at least tRTRS, the first
        // covers the second, so no command lowers another column
        // command's earliest-issue cycle: the controller's cached
        // not-before bounds rely on it.
        if self.burst_cycles() < self.t_rtrs {
            return Err(format!(
                "burst ({} cycles) must be at least tRTRS ({})",
                self.burst_cycles(),
                self.t_rtrs
            ));
        }
        Ok(())
    }
}

impl Default for TimingParams {
    fn default() -> Self {
        Self::ddr4_1600_8gb()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preset_is_valid() {
        TimingParams::ddr4_1600_8gb().validate().unwrap();
        TimingParams::ddr4_1600_8gb_fgr2x().validate().unwrap();
        TimingParams::ddr4_1600_8gb_fgr4x().validate().unwrap();
    }

    #[test]
    fn paper_refresh_numbers() {
        let t = TimingParams::ddr4_1600_8gb();
        // 7.8 µs at 1.25 ns/cycle.
        assert_eq!(t.t_refi(), 6240);
        // 350 ns at 1.25 ns/cycle.
        assert_eq!(t.t_rfc(), 280);
        // duty cycle about 4.5%
        assert!((t.refresh_duty_cycle() - 280.0 / 6240.0).abs() < 1e-12);
    }

    #[test]
    fn fgr_scales_intervals() {
        let x1 = TimingParams::ddr4_1600_8gb();
        let x2 = TimingParams::ddr4_1600_8gb_fgr2x();
        let x4 = TimingParams::ddr4_1600_8gb_fgr4x();
        assert_eq!(x2.t_refi(), x1.t_refi() / 2);
        assert_eq!(x4.t_refi(), x1.t_refi() / 4);
        assert!(x2.t_rfc() < x1.t_rfc());
        assert!(x4.t_rfc() < x2.t_rfc());
    }

    #[test]
    fn latencies() {
        let t = TimingParams::ddr4_1600_8gb();
        assert_eq!(t.burst_cycles(), 4);
        assert_eq!(t.read_latency(), 15);
        assert_eq!(t.write_latency(), 13);
    }

    #[test]
    fn validate_rejects_bad_trfcsa() {
        let t = TimingParams {
            t_rfc_sa: 200, // > tRFCpb
            ..TimingParams::ddr4_1600_8gb()
        };
        assert!(t.validate().is_err());
        let t = TimingParams {
            t_rfc_sa: 0,
            ..TimingParams::ddr4_1600_8gb()
        };
        assert!(t.validate().is_err());
    }

    #[test]
    fn validate_rejects_bad_trc() {
        let t = TimingParams {
            t_rc: 10,
            ..TimingParams::ddr4_1600_8gb()
        };
        assert!(t.validate().is_err());
    }

    #[test]
    fn validate_rejects_burst_shorter_than_trtrs() {
        let t = TimingParams {
            t_rtrs: 5, // > the 4-cycle burst
            ..TimingParams::ddr4_1600_8gb()
        };
        assert!(t.validate().is_err());
        let t = TimingParams {
            t_rtrs: 4,
            ..TimingParams::ddr4_1600_8gb()
        };
        assert!(t.validate().is_ok(), "a burst equal to tRTRS is legal");
    }

    #[test]
    fn validate_rejects_duty_cycle_one() {
        let t = TimingParams {
            t_refi_base: 100,
            ..TimingParams::ddr4_1600_8gb()
        };
        assert!(t.validate().is_err());
    }
}
