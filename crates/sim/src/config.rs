//! System-level configuration: which memory system, which workloads.

use rop_cache::CacheConfig;
use rop_cpu::CoreConfig;
use rop_dram::DramConfig;
use rop_memctrl::MemCtrlConfig;
use rop_trace::{AddressPattern, ArrivalProcess, Benchmark};

use crate::Cycle;

/// The memory systems compared throughout the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SystemKind {
    /// Auto-refresh baseline with conventional interleaved mapping.
    Baseline,
    /// Baseline plus rank partitioning (the paper's Baseline-RP).
    BaselineRp,
    /// Full ROP: rank partitioning + refresh-oriented prefetching with an
    /// SRAM buffer of this many cache lines.
    Rop {
        /// SRAM buffer capacity in cache lines (16/32/64/128 in the paper).
        buffer: usize,
    },
    /// Idealised memory that never refreshes (upper bound).
    NoRefresh,
    /// Baseline scheduling with Elastic Refresh (Stuecheli et al.,
    /// MICRO'10) — the related-work refresh-hiding scheduler, for
    /// quantitative comparison against ROP.
    ElasticRefresh,
    /// Baseline with per-bank refresh (REFpb): each bank refreshes
    /// independently, freezing only itself — the paper's §VII
    /// future-work memory model.
    PerBankRefresh,
    /// ROP running on top of per-bank refresh (§VII: "we anticipate
    /// similar efficacy in those memory systems as well").
    RopPerBank {
        /// SRAM buffer capacity in cache lines.
        buffer: usize,
    },
    /// DARP (Chang et al., HPCA'14): per-bank refresh with out-of-order
    /// idle-bank selection — refreshes are pulled into idle windows and
    /// write-drain phases instead of waiting for their nominal due.
    Darp,
    /// SARP (Chang et al., HPCA'14): subarray-level parallelism — only
    /// the refreshing subarray of a bank freezes; siblings keep serving.
    Sarp,
    /// RAIDR (Liu et al., ISCA'12): retention-aware binning — rows that
    /// retain longer than 64 ms are refreshed at 128/256 ms rates, so
    /// most rounds shrink or skip entirely.
    Raidr,
}

impl SystemKind {
    /// Display label as used in the paper's figures.
    pub fn label(&self) -> String {
        match self {
            SystemKind::Baseline => "Baseline".to_string(),
            SystemKind::BaselineRp => "Baseline-RP".to_string(),
            SystemKind::Rop { buffer } => format!("ROP-{buffer}"),
            SystemKind::NoRefresh => "No-Refresh".to_string(),
            SystemKind::ElasticRefresh => "Elastic".to_string(),
            SystemKind::PerBankRefresh => "REFpb".to_string(),
            SystemKind::RopPerBank { buffer } => format!("ROP-pb-{buffer}"),
            SystemKind::Darp => "DARP".to_string(),
            SystemKind::Sarp => "SARP".to_string(),
            SystemKind::Raidr => "RAIDR".to_string(),
        }
    }

    /// Builds the controller configuration for this system over `ranks`
    /// ranks. `seed` feeds ROP's probabilistic throttle.
    pub fn memctrl_config(&self, ranks: usize, seed: u64) -> MemCtrlConfig {
        match *self {
            SystemKind::Baseline => MemCtrlConfig::baseline(DramConfig::baseline(ranks)),
            SystemKind::BaselineRp => MemCtrlConfig::baseline_rp(DramConfig::baseline(ranks)),
            SystemKind::Rop { buffer } => {
                MemCtrlConfig::rop(DramConfig::baseline(ranks), buffer, seed)
            }
            SystemKind::NoRefresh => MemCtrlConfig::baseline(DramConfig::no_refresh(ranks)),
            SystemKind::ElasticRefresh => MemCtrlConfig::elastic(DramConfig::baseline(ranks)),
            SystemKind::PerBankRefresh => MemCtrlConfig::per_bank(DramConfig::baseline(ranks)),
            SystemKind::RopPerBank { buffer } => {
                MemCtrlConfig::rop_per_bank(DramConfig::baseline(ranks), buffer, seed)
            }
            SystemKind::Darp => MemCtrlConfig::darp(DramConfig::baseline(ranks)),
            SystemKind::Sarp => MemCtrlConfig::sarp(DramConfig::baseline(ranks)),
            SystemKind::Raidr => MemCtrlConfig::raidr(DramConfig::baseline(ranks), seed),
        }
    }

    /// The refresh-mechanism roster compared head-to-head (AllBank is
    /// the conventional baseline the others are measured against).
    pub const MECHANISMS: [SystemKind; 4] = [
        SystemKind::Baseline,
        SystemKind::Darp,
        SystemKind::Sarp,
        SystemKind::Raidr,
    ];
}

/// Open-loop (datacenter traffic) mode: arrivals on a wall-clock
/// schedule instead of trace-driven cores. Present on a
/// [`SystemConfig`] when the job runs the open-loop injector.
#[derive(Debug, Clone, PartialEq)]
pub struct OpenLoopSpec {
    /// Stochastic clock generating the arrival schedule.
    pub process: ArrivalProcess,
    /// Offered load in requests per kilo-cycle, *summed over tenants*
    /// (each tenant injects `offered_rpkc / tenants`).
    pub offered_rpkc: f64,
    /// Independent traffic sources, each pinned to its own rank via the
    /// rank-partitioned mapping (must not exceed the rank count).
    pub tenants: usize,
    /// Address pattern each tenant walks inside its footprint.
    pub pattern: AddressPattern,
    /// Per-tenant footprint in cache lines.
    pub region_lines: u64,
    /// Fraction of arrivals that are stores.
    pub write_fraction: f64,
    /// Simulated duration in memory cycles (the run is time-bounded,
    /// not work-bounded: tail quantiles need a fixed observation
    /// window).
    pub duration: Cycle,
}

impl OpenLoopSpec {
    /// Validates parameter sanity (process parameters, load, shape).
    pub fn validate(&self) -> Result<(), String> {
        self.process.validate()?;
        if !self.offered_rpkc.is_finite() || self.offered_rpkc <= 0.0 {
            return Err("open-loop offered_rpkc must be finite and positive".into());
        }
        if self.tenants == 0 {
            return Err("open-loop tenants must be non-zero".into());
        }
        if self.region_lines == 0 {
            return Err("open-loop region_lines must be non-zero".into());
        }
        if !(0.0..=1.0).contains(&self.write_fraction) {
            return Err("open-loop write_fraction must be in [0,1]".into());
        }
        if self.duration == 0 {
            return Err("open-loop duration must be non-zero".into());
        }
        Ok(())
    }
}

/// Everything needed to instantiate a [`crate::System`].
#[derive(Debug, Clone)]
pub struct SystemConfig {
    /// Workloads, one per core (1 for single-core, 4 for multi-program).
    pub benchmarks: Vec<Benchmark>,
    /// Which memory system to build.
    pub kind: SystemKind,
    /// Shared LLC configuration (2 MB single-core, 1/2/4 MB multi-core).
    pub llc: CacheConfig,
    /// Core microarchitecture parameters.
    pub core: CoreConfig,
    /// Number of DRAM ranks (1 single-core, 4 multi-core in the paper).
    pub ranks: usize,
    /// Master seed (workloads and ROP derive their streams from it).
    pub seed: u64,
    /// When set, this controller configuration is used verbatim instead
    /// of the one derived from `kind` — the hook the ablation studies use
    /// to tweak individual knobs (window length, throttle mode, drain
    /// budget) while keeping everything else identical.
    pub ctrl_override: Option<MemCtrlConfig>,
    /// When set, the job runs the open-loop injector instead of the
    /// closed-loop core pipeline: `benchmarks` only sizes labels, and
    /// the arrival schedule below drives the memory system directly.
    pub open_loop: Option<OpenLoopSpec>,
}

impl SystemConfig {
    /// Paper single-core setup: one benchmark, 1 rank, 2 MB LLC.
    pub fn single_core(benchmark: Benchmark, kind: SystemKind, seed: u64) -> Self {
        SystemConfig {
            benchmarks: vec![benchmark],
            kind,
            llc: CacheConfig::llc_2mb(),
            core: CoreConfig::default_ooo(),
            ranks: 1,
            seed,
            ctrl_override: None,
            open_loop: None,
        }
    }

    /// Paper 4-core setup: four benchmarks, 4 ranks, 4 MB LLC by default.
    pub fn multi_core(benchmarks: [Benchmark; 4], kind: SystemKind, seed: u64) -> Self {
        SystemConfig {
            benchmarks: benchmarks.to_vec(),
            kind,
            llc: CacheConfig::llc_4mb(),
            core: CoreConfig::default_ooo(),
            ranks: 4,
            seed,
            ctrl_override: None,
            open_loop: None,
        }
    }

    /// The controller configuration the run builds: `ctrl_override`
    /// when set, else the one derived from `kind`.
    pub fn ctrl_config(&self) -> MemCtrlConfig {
        self.ctrl_override
            .clone()
            .unwrap_or_else(|| self.kind.memctrl_config(self.ranks, self.seed))
    }

    /// Validates shape constraints.
    pub fn validate(&self) -> Result<(), String> {
        if self.benchmarks.is_empty() {
            return Err("need at least one core".into());
        }
        if self.benchmarks.len() > self.ranks
            && matches!(
                self.kind,
                SystemKind::BaselineRp | SystemKind::Rop { .. } | SystemKind::RopPerBank { .. }
            )
        {
            return Err(format!(
                "rank partitioning needs one rank per core ({} cores, {} ranks)",
                self.benchmarks.len(),
                self.ranks
            ));
        }
        self.llc.validate()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rop_trace::WORKLOAD_MIXES;

    #[test]
    fn labels() {
        assert_eq!(SystemKind::Baseline.label(), "Baseline");
        assert_eq!(SystemKind::Rop { buffer: 64 }.label(), "ROP-64");
        assert_eq!(SystemKind::NoRefresh.label(), "No-Refresh");
        assert_eq!(SystemKind::BaselineRp.label(), "Baseline-RP");
    }

    #[test]
    fn kind_configs() {
        assert!(SystemKind::Baseline.memctrl_config(1, 0).rop.is_none());
        assert!(SystemKind::Rop { buffer: 32 }
            .memctrl_config(4, 0)
            .rop
            .is_some());
        assert!(
            !SystemKind::NoRefresh
                .memctrl_config(1, 0)
                .dram
                .refresh_enabled
        );
    }

    #[test]
    fn mechanism_roster_builds_valid_configs() {
        for kind in SystemKind::MECHANISMS {
            let cfg = kind.memctrl_config(1, 7);
            cfg.validate().unwrap_or_else(|e| panic!("{kind:?}: {e}"));
        }
        assert_eq!(SystemKind::Darp.label(), "DARP");
        assert_eq!(SystemKind::Sarp.label(), "SARP");
        assert_eq!(SystemKind::Raidr.label(), "RAIDR");
        assert_eq!(
            SystemKind::Raidr.memctrl_config(1, 3).mechanism.label(),
            "raidr"
        );
    }

    #[test]
    fn presets_validate() {
        SystemConfig::single_core(Benchmark::Lbm, SystemKind::Baseline, 1)
            .validate()
            .unwrap();
        SystemConfig::multi_core(
            WORKLOAD_MIXES[0].programs,
            SystemKind::Rop { buffer: 64 },
            1,
        )
        .validate()
        .unwrap();
    }

    #[test]
    fn partitioning_requires_enough_ranks() {
        let mut c = SystemConfig::multi_core(
            WORKLOAD_MIXES[0].programs,
            SystemKind::Rop { buffer: 64 },
            1,
        );
        c.ranks = 2;
        assert!(c.validate().is_err());
        c.kind = SystemKind::Baseline;
        c.validate().unwrap(); // interleaved mapping has no such constraint
    }
}
