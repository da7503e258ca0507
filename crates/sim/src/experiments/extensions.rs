//! Extension experiments beyond the paper's evaluation:
//!
//! * **refresh-policy comparison** — the related-work scheduler Elastic
//!   Refresh (Stuecheli et al.) against the paper's baseline, ROP, and
//!   the no-refresh bound, quantifying where scheduling alone runs out
//!   of headroom and prefetching keeps going (§VI of the paper argues
//!   this qualitatively);
//! * **fine-grained refresh (FGR) sweep** — DDR4's 1x/2x/4x refresh
//!   modes with and without ROP, the paper's §VII future-work direction:
//!   "we intend to implement our idea in DRAM systems which perform
//!   refreshes in finer granularities";
//! * **per-bank refresh (REFpb)** — ROP on all-bank and per-bank
//!   refresh, the other §VII direction.
//!
//! Each study is one grid of [`EXTENSION_BENCHMARKS`] × columns, run as
//! one job set through the caller's executor and rendered as IPC
//! normalised to the row's first column.

use rop_stats::TableBuilder;
use rop_trace::Benchmark;

use crate::config::{SystemConfig, SystemKind};
use crate::metrics::RunMetrics;
use crate::runner::{RunSpec, SweepExecutor, SweepJob};

/// Benchmarks used by the extension studies (the refresh-sensitive set).
pub const EXTENSION_BENCHMARKS: [Benchmark; 4] = [
    Benchmark::Libquantum,
    Benchmark::Lbm,
    Benchmark::GemsFDTD,
    Benchmark::CactusADM,
];

/// Result of an extension study: one row per [`EXTENSION_BENCHMARKS`]
/// entry, one metrics entry per column.
#[derive(Debug, Clone)]
pub struct ExtensionStudy {
    /// Table title.
    pub title: &'static str,
    /// Column headers after `benchmark`.
    pub columns: Vec<String>,
    /// (benchmark, per-column metrics in `columns` order).
    pub rows: Vec<(&'static str, Vec<RunMetrics>)>,
}

impl ExtensionStudy {
    /// Renders IPC normalised to each row's first column.
    pub fn render(&self) -> String {
        let header: Vec<String> = std::iter::once("benchmark".to_string())
            .chain(self.columns.iter().cloned())
            .collect();
        let mut t = TableBuilder::new(self.title).header(header);
        for (name, ms) in &self.rows {
            let base = ms[0].ipc();
            let mut cells = vec![name.to_string()];
            for m in ms {
                cells.push(format!("{:.3}", m.ipc() / base));
            }
            t.row(cells);
        }
        t.render()
    }
}

/// Runs one study grid through `exec`: per benchmark, one job per
/// column, configured by `config(benchmark, column index)` and labelled
/// `{slug}/{benchmark}/{column}`.
fn run_study(
    slug: &str,
    title: &'static str,
    columns: Vec<String>,
    config: impl Fn(Benchmark, usize) -> SystemConfig,
    spec: RunSpec,
    exec: &dyn SweepExecutor,
) -> ExtensionStudy {
    let mut jobs = Vec::new();
    for &b in &EXTENSION_BENCHMARKS {
        for (i, column) in columns.iter().enumerate() {
            jobs.push(SweepJob::custom(
                format!("{slug}/{}/{column}", b.name()),
                config(b, i),
                spec,
            ));
        }
    }
    let metrics = exec.execute(jobs);
    let rows = EXTENSION_BENCHMARKS
        .iter()
        .zip(metrics.chunks(columns.len()))
        .map(|(b, ms)| (b.name(), ms.to_vec()))
        .collect();
    ExtensionStudy {
        title,
        columns,
        rows,
    }
}

/// A study whose columns are plain single-core systems.
fn run_systems_study(
    slug: &str,
    title: &'static str,
    systems: &[SystemKind],
    spec: RunSpec,
    exec: &dyn SweepExecutor,
) -> ExtensionStudy {
    run_study(
        slug,
        title,
        systems.iter().map(|k| k.label()).collect(),
        |b, i| SystemConfig::single_core(b, systems[i], spec.seed),
        spec,
        exec,
    )
}

/// Systems compared by [`run_policy_comparison`].
pub const POLICY_SYSTEMS: [SystemKind; 4] = [
    SystemKind::Baseline,
    SystemKind::ElasticRefresh,
    SystemKind::Rop { buffer: 64 },
    SystemKind::NoRefresh,
];

/// Runs the policy comparison on the extension benchmarks.
pub fn run_policy_comparison(spec: RunSpec, exec: &dyn SweepExecutor) -> ExtensionStudy {
    run_systems_study(
        "policies",
        "Extension — refresh-policy comparison (IPC normalised to Baseline)",
        &POLICY_SYSTEMS,
        spec,
        exec,
    )
}

/// FGR modes swept (refresh-interval divisor).
pub const FGR_MODES: [u32; 3] = [1, 2, 4];

/// One FGR cell: the refresh `mode` timing, on the baseline or on ROP
/// with its windows shrunk to the mode's tRFC.
fn fgr_config(b: Benchmark, mode: u32, rop: bool, seed: u64) -> SystemConfig {
    use rop_dram::TimingParams;
    let kind = if rop {
        SystemKind::Rop { buffer: 64 }
    } else {
        SystemKind::Baseline
    };
    let mut cfg = SystemConfig::single_core(b, kind, seed);
    let mut ctrl = cfg.kind.memctrl_config(cfg.ranks, cfg.seed);
    ctrl.dram.timing = match mode {
        1 => TimingParams::ddr4_1600_8gb(),
        2 => TimingParams::ddr4_1600_8gb_fgr2x(),
        _ => TimingParams::ddr4_1600_8gb_fgr4x(),
    };
    if let Some(rc) = ctrl.rop.as_mut() {
        // Keep ROP's windows consistent with the shrunken tRFC.
        rc.observational_window = ctrl.dram.timing.t_rfc();
        rc.refresh_period = ctrl.dram.timing.t_rfc();
    }
    cfg.ctrl_override = Some(ctrl);
    cfg
}

/// Runs 1x/2x/4x refresh granularity, each without and with ROP.
pub fn run_fgr_sweep(spec: RunSpec, exec: &dyn SweepExecutor) -> ExtensionStudy {
    let columns = FGR_MODES
        .iter()
        .flat_map(|m| [format!("{m}x base"), format!("{m}x ROP")])
        .collect();
    run_study(
        "fgr",
        "Extension — fine-grained refresh sweep (IPC normalised to 1x baseline)",
        columns,
        |b, i| fgr_config(b, FGR_MODES[i / 2], i % 2 == 1, spec.seed),
        spec,
        exec,
    )
}

/// Systems compared by [`run_per_bank_study`]: all-bank baseline, ROP on
/// all-bank refresh, per-bank baseline, ROP on per-bank refresh, and the
/// no-refresh bound.
pub const PER_BANK_SYSTEMS: [SystemKind; 5] = [
    SystemKind::Baseline,
    SystemKind::Rop { buffer: 64 },
    SystemKind::PerBankRefresh,
    SystemKind::RopPerBank { buffer: 64 },
    SystemKind::NoRefresh,
];

/// Runs the §VII future-work study: does refresh-oriented prefetching
/// still pay off when refresh granularity shrinks to a single bank?
pub fn run_per_bank_study(spec: RunSpec, exec: &dyn SweepExecutor) -> ExtensionStudy {
    run_systems_study(
        "per-bank",
        "Extension (§VII) — per-bank refresh: IPC normalised to all-bank Baseline",
        &PER_BANK_SYSTEMS,
        spec,
        exec,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::System;

    #[test]
    fn elastic_system_runs_and_refreshes() {
        let spec = RunSpec {
            instructions: 300_000,
            max_cycles: 60_000_000,
            seed: 3,
        };
        let mut sys = System::new(SystemConfig::single_core(
            Benchmark::Libquantum,
            SystemKind::ElasticRefresh,
            spec.seed,
        ));
        let m = sys.run_until(spec.instructions, spec.max_cycles);
        assert!(!m.hit_cycle_cap);
        assert!(m.refreshes > 0, "elastic must still refresh");
        // Long-run refresh rate stays near one per tREFI (debt bounded).
        let expected = m.total_cycles / 6240;
        assert!(
            m.refreshes + 8 >= expected,
            "refreshes {} vs expected {}",
            m.refreshes,
            expected
        );
    }

    #[test]
    fn fgr_modes_change_refresh_count() {
        let spec = RunSpec {
            instructions: 300_000,
            max_cycles: 60_000_000,
            seed: 3,
        };
        let mut counts = Vec::new();
        for mode in [1, 4] {
            let cfg = fgr_config(Benchmark::Libquantum, mode, false, spec.seed);
            let mut sys = System::new(cfg);
            let m = sys.run_until(spec.instructions, spec.max_cycles);
            counts.push((m.refreshes, m.total_cycles));
        }
        // 4x mode refreshes ~4× as often per cycle.
        let (r1, c1) = counts[0];
        let (r4, c4) = counts[1];
        let rate1 = r1 as f64 / c1 as f64;
        let rate4 = r4 as f64 / c4 as f64;
        assert!(
            rate4 > 3.0 * rate1,
            "4x rate {rate4:.6} vs 1x rate {rate1:.6}"
        );
    }
}
