//! §V-C multiprogram comparison: Figure 10 (normalised weighted speedup
//! of Baseline / Baseline-RP / ROP over WL1–WL6) and Figure 11
//! (normalised energy).

use rop_stats::{geometric_mean, normalize_to, TableBuilder};
use rop_trace::{Benchmark, WorkloadMix};

use crate::config::{SystemConfig, SystemKind};
use crate::metrics::RunMetrics;
use crate::runner::{RunSpec, SweepExecutor, SweepJob};

/// The ROP buffer size used in the multicore experiments (paper default).
pub const ROP_BUFFER: usize = 64;

/// Alone-IPC table: IPC of each benchmark running alone on the baseline
/// 4-rank machine with the given LLC, the denominator of Equation 4.
#[derive(Debug, Clone)]
pub struct AloneIpcs {
    ipcs: Vec<(Benchmark, f64)>,
}

impl AloneIpcs {
    /// The declarative job set behind [`AloneIpcs::measure_with`]:
    /// each benchmark alone on the baseline 4-rank machine.
    pub fn jobs(benchmarks: &[Benchmark], llc_mib: usize, spec: RunSpec) -> Vec<SweepJob> {
        benchmarks
            .iter()
            .map(|&b| {
                let cfg = SystemConfig {
                    benchmarks: vec![b],
                    kind: SystemKind::Baseline,
                    llc: rop_cache::CacheConfig::llc_mib(llc_mib),
                    core: rop_cpu::CoreConfig::default_ooo(),
                    ranks: 4,
                    seed: spec.seed,
                    ctrl_override: None,
                    open_loop: None,
                };
                SweepJob::custom(format!("alone/llc{llc_mib}/{}", b.name()), cfg, spec)
            })
            .collect()
    }

    /// Alone-IPC measurement for a benchmark subset through an
    /// arbitrary executor.
    pub fn measure_with(
        benchmarks: &[Benchmark],
        llc_mib: usize,
        spec: RunSpec,
        exec: &dyn SweepExecutor,
    ) -> Self {
        let metrics = exec.execute(Self::jobs(benchmarks, llc_mib, spec));
        let ipcs = benchmarks
            .iter()
            .zip(&metrics)
            .map(|(&b, m)| (b, m.ipc()))
            .collect();
        AloneIpcs { ipcs }
    }

    /// Alone-IPC of one benchmark.
    pub fn get(&self, b: Benchmark) -> f64 {
        self.ipcs
            .iter()
            .find(|(x, _)| *x == b)
            .map(|&(_, ipc)| ipc)
            .expect("all benchmarks measured")
    }

    /// Alone-IPCs for a mix, in program order.
    pub fn for_mix(&self, mix: &WorkloadMix) -> Vec<f64> {
        mix.programs.iter().map(|&b| self.get(b)).collect()
    }
}

/// Per-mix multicore comparison.
#[derive(Debug, Clone)]
pub struct MulticoreRow {
    /// Mix name (WL1–WL6).
    pub mix: &'static str,
    /// Intensive programs in the mix.
    pub intensive_count: usize,
    /// Baseline metrics.
    pub baseline: RunMetrics,
    /// Baseline-RP metrics.
    pub baseline_rp: RunMetrics,
    /// ROP metrics.
    pub rop: RunMetrics,
    /// Weighted speedups (Eq. 4) for the three systems.
    pub ws: [f64; 3],
}

/// Result of the multicore sweep at one LLC size.
#[derive(Debug, Clone)]
pub struct MulticoreResult {
    /// LLC size in MiB.
    pub llc_mib: usize,
    /// One row per mix.
    pub rows: Vec<MulticoreRow>,
}

/// The three comparison systems of Figures 10/11.
pub const MULTICORE_SYSTEMS: [SystemKind; 3] = [
    SystemKind::Baseline,
    SystemKind::BaselineRp,
    SystemKind::Rop { buffer: ROP_BUFFER },
];

/// The declarative job set behind [`run_multicore_on`], in row order:
/// per mix, one job per [`MULTICORE_SYSTEMS`] entry.
pub fn multicore_jobs(mixes: &[WorkloadMix], llc_mib: usize, spec: RunSpec) -> Vec<SweepJob> {
    let mut jobs = Vec::new();
    for &mix in mixes {
        for &k in &MULTICORE_SYSTEMS {
            jobs.push(SweepJob::multi(mix, k, llc_mib, spec));
        }
    }
    jobs
}

/// Runs Baseline / Baseline-RP / ROP for every mix at `llc_mib` through
/// an arbitrary executor (figures assemble from whatever metrics it
/// returns), with a precomputed alone-IPC table (the LLC sweep shares
/// one per size).
pub fn run_multicore_on(
    mixes: &[WorkloadMix],
    llc_mib: usize,
    spec: RunSpec,
    alone: &AloneIpcs,
    exec: &dyn SweepExecutor,
) -> MulticoreResult {
    let metrics = exec.execute(multicore_jobs(mixes, llc_mib, spec));
    let rows = mixes
        .iter()
        .enumerate()
        .map(|(i, mix)| {
            let chunk = &metrics[i * 3..(i + 1) * 3];
            let alone_ipcs = alone.for_mix(mix);
            let ws = [
                chunk[0].weighted_speedup(&alone_ipcs),
                chunk[1].weighted_speedup(&alone_ipcs),
                chunk[2].weighted_speedup(&alone_ipcs),
            ];
            MulticoreRow {
                mix: mix.name,
                intensive_count: mix.intensive_count(),
                baseline: chunk[0].clone(),
                baseline_rp: chunk[1].clone(),
                rop: chunk[2].clone(),
                ws,
            }
        })
        .collect();
    MulticoreResult { llc_mib, rows }
}

impl MulticoreResult {
    /// Figure 10: weighted speedup normalised to Baseline.
    pub fn render_fig10(&self) -> String {
        let mut t = TableBuilder::new(format!(
            "Figure 10 — normalised weighted speedup (4-core, {} MiB LLC)",
            self.llc_mib
        ))
        .header(["mix", "#intensive", "Baseline", "Baseline-RP", "ROP"]);
        let mut rop_norm = Vec::new();
        for r in &self.rows {
            let base = r.ws[0];
            rop_norm.push(normalize_to(r.ws[2], base));
            t.row([
                r.mix.to_string(),
                r.intensive_count.to_string(),
                "1.000".to_string(),
                format!("{:.3}", normalize_to(r.ws[1], base)),
                format!("{:.3}", normalize_to(r.ws[2], base)),
            ]);
        }
        t.row([
            "geomean (ROP/Baseline)".to_string(),
            String::new(),
            String::new(),
            String::new(),
            format!("{:.3}", geometric_mean(&rop_norm)),
        ]);
        t.render()
    }

    /// Figure 11: energy normalised to Baseline.
    pub fn render_fig11(&self) -> String {
        let mut t = TableBuilder::new(format!(
            "Figure 11 — normalised energy (4-core, {} MiB LLC)",
            self.llc_mib
        ))
        .header(["mix", "Baseline", "Baseline-RP", "ROP"]);
        let mut rop_norm = Vec::new();
        for r in &self.rows {
            let base = r.baseline.energy.total_nj();
            let rp = normalize_to(r.baseline_rp.energy.total_nj(), base);
            let rop = normalize_to(r.rop.energy.total_nj(), base);
            rop_norm.push(rop);
            t.row([
                r.mix.to_string(),
                "1.000".to_string(),
                format!("{rp:.3}"),
                format!("{rop:.3}"),
            ]);
        }
        t.row([
            "geomean (ROP/Baseline)".to_string(),
            String::new(),
            String::new(),
            format!("{:.3}", geometric_mean(&rop_norm)),
        ]);
        t.render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rop_trace::{ALL_BENCHMARKS, WORKLOAD_MIXES};

    #[test]
    fn alone_ipcs_cover_all_benchmarks() {
        let spec = RunSpec {
            instructions: 30_000,
            max_cycles: 20_000_000,
            seed: 5,
        };
        let alone =
            AloneIpcs::measure_with(&ALL_BENCHMARKS, 4, spec, &crate::runner::LocalExecutor);
        for b in ALL_BENCHMARKS {
            assert!(alone.get(b) > 0.0, "{} has zero alone IPC", b.name());
        }
        let mix = WORKLOAD_MIXES[0];
        assert_eq!(alone.for_mix(&mix).len(), 4);
    }
}
