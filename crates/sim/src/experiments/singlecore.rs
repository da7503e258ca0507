//! §V-B single-core comparison: Figure 7 (IPC normalised to baseline for
//! ROP-16/32/64/128 and no-refresh), Figure 8 (normalised energy) and
//! Figure 9 (SRAM buffer hit rate vs. capacity).

use rop_stats::{normalize_to, TableBuilder};
use rop_trace::Benchmark;

use crate::config::SystemKind;
use crate::metrics::RunMetrics;
use crate::runner::{RunSpec, SweepExecutor, SweepJob};

/// SRAM capacities swept by the paper.
pub const BUFFER_SIZES: [usize; 4] = [16, 32, 64, 128];

/// Per-benchmark single-core comparison.
#[derive(Debug, Clone)]
pub struct SinglecoreRow {
    /// Benchmark name.
    pub name: &'static str,
    /// Baseline metrics.
    pub baseline: RunMetrics,
    /// No-refresh metrics.
    pub no_refresh: RunMetrics,
    /// ROP metrics, one per entry of [`BUFFER_SIZES`].
    pub rop: Vec<RunMetrics>,
}

/// Result of the single-core sweep.
#[derive(Debug, Clone)]
pub struct SinglecoreResult {
    /// One row per benchmark.
    pub rows: Vec<SinglecoreRow>,
}

/// The declarative job set behind [`run_singlecore_with`], in row order:
/// per benchmark, baseline, no-refresh, then each [`BUFFER_SIZES`] entry.
pub fn singlecore_jobs(benchmarks: &[Benchmark], spec: RunSpec) -> Vec<SweepJob> {
    let mut jobs = Vec::new();
    for &b in benchmarks {
        jobs.push(SweepJob::single("single", b, SystemKind::Baseline, spec));
        jobs.push(SweepJob::single("single", b, SystemKind::NoRefresh, spec));
        for &cap in &BUFFER_SIZES {
            jobs.push(SweepJob::single(
                "single",
                b,
                SystemKind::Rop { buffer: cap },
                spec,
            ));
        }
    }
    jobs
}

/// Runs baseline, no-refresh and four ROP sizes for `benchmarks` through
/// `exec`: the figures are assembled from whatever metrics the executor
/// returns (fresh runs for [`crate::runner::LocalExecutor`], store-backed
/// results for the sweep harness).
pub fn run_singlecore_with(
    benchmarks: &[Benchmark],
    spec: RunSpec,
    exec: &dyn SweepExecutor,
) -> SinglecoreResult {
    let metrics = exec.execute(singlecore_jobs(benchmarks, spec));
    let per = 2 + BUFFER_SIZES.len();
    let rows = benchmarks
        .iter()
        .enumerate()
        .map(|(i, b)| {
            let chunk = &metrics[i * per..(i + 1) * per];
            SinglecoreRow {
                name: b.name(),
                baseline: chunk[0].clone(),
                no_refresh: chunk[1].clone(),
                rop: chunk[2..].to_vec(),
            }
        })
        .collect();
    SinglecoreResult { rows }
}

impl SinglecoreResult {
    /// Figure 7: IPC normalised to the baseline.
    pub fn render_fig7(&self) -> String {
        let mut header = vec!["benchmark".to_string(), "Baseline".to_string()];
        header.extend(BUFFER_SIZES.iter().map(|c| format!("ROP-{c}")));
        header.push("No-Refresh".to_string());
        let mut t =
            TableBuilder::new("Figure 7 — single-core IPC normalised to baseline").header(header);
        let mut best_gains = Vec::new();
        for r in &self.rows {
            let base = r.baseline.ipc();
            let mut cells = vec![r.name.to_string(), "1.000".to_string()];
            let mut best = 0.0f64;
            for m in &r.rop {
                let norm = normalize_to(m.ipc(), base);
                best = best.max(norm);
                cells.push(format!("{norm:.3}"));
            }
            cells.push(format!("{:.3}", normalize_to(r.no_refresh.ipc(), base)));
            best_gains.push((best - 1.0) * 100.0);
            t.row(cells);
        }
        let avg = best_gains.iter().sum::<f64>() / best_gains.len().max(1) as f64;
        let max = best_gains.iter().cloned().fold(0.0f64, f64::max);
        t.row([format!("ROP gain: avg {avg:.1}%"), format!("max {max:.1}%")]);
        t.render()
    }

    /// Figure 8: energy normalised to the baseline.
    pub fn render_fig8(&self) -> String {
        let mut header = vec!["benchmark".to_string(), "Baseline".to_string()];
        header.extend(BUFFER_SIZES.iter().map(|c| format!("ROP-{c}")));
        header.push("No-Refresh".to_string());
        let mut t =
            TableBuilder::new("Figure 8 — single-core memory energy normalised to baseline")
                .header(header);
        let mut best_savings = Vec::new();
        for r in &self.rows {
            let base = r.baseline.energy.total_nj();
            let mut cells = vec![r.name.to_string(), "1.000".to_string()];
            let mut best = 1.0f64;
            for m in &r.rop {
                let norm = normalize_to(m.energy.total_nj(), base);
                best = best.min(norm);
                cells.push(format!("{norm:.3}"));
            }
            cells.push(format!(
                "{:.3}",
                normalize_to(r.no_refresh.energy.total_nj(), base)
            ));
            best_savings.push((1.0 - best) * 100.0);
            t.row(cells);
        }
        let avg = best_savings.iter().sum::<f64>() / best_savings.len().max(1) as f64;
        let max = best_savings.iter().cloned().fold(0.0f64, f64::max);
        t.row([
            format!("ROP saving: avg {avg:.1}%"),
            format!("max {max:.1}%"),
        ]);
        t.render()
    }

    /// Figure 9: SRAM buffer hit rates per capacity.
    pub fn render_fig9(&self) -> String {
        let header: Vec<String> = std::iter::once("benchmark".to_string())
            .chain(BUFFER_SIZES.iter().map(|c| format!("ROP-{c}")))
            .collect();
        let mut t =
            TableBuilder::new("Figure 9 — SRAM buffer hit rate (reads arriving during refresh)")
                .header(header);
        for r in &self.rows {
            let mut cells = vec![r.name.to_string()];
            for m in &r.rop {
                cells.push(format!("{:.2}", m.sram_hit_rate));
            }
            t.row(cells);
        }
        t.render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn singlecore_smoke_streaming() {
        // Long enough for ROP training (50 refreshes ≈ 312k cycles) plus
        // a meaningful prefetching stretch.
        let spec = RunSpec {
            instructions: 2_500_000,
            max_cycles: 60_000_000,
            seed: 11,
        };
        let res = run_singlecore_with(
            &[Benchmark::Libquantum],
            spec,
            &crate::runner::LocalExecutor,
        );
        let row = &res.rows[0];
        assert!(!row.baseline.hit_cycle_cap);
        // No-refresh is the upper bound.
        assert!(row.no_refresh.ipc() >= row.baseline.ipc() * 0.999);
        // ROP issues prefetches on a streaming workload.
        assert!(row.rop.iter().any(|m| m.prefetches > 0));
        // Renders work.
        assert!(res.render_fig7().contains("libquantum"));
        assert!(res.render_fig8().contains("ROP-64"));
        assert!(res.render_fig9().contains("ROP-128"));
    }
}
