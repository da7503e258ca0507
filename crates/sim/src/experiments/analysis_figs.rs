//! §III analysis experiments: Figure 1 (refresh overheads), Figure 2
//! (non-blocking refresh fraction), Figure 3 (blocked requests per
//! blocking refresh), Figure 4 (dominant-event coverage) and Table I
//! (λ/β at 1×/2×/4× windows).
//!
//! All of these derive from two single-core runs per benchmark — the
//! auto-refresh baseline and the idealised no-refresh memory — using the
//! always-on [`rop_memctrl::RefreshAnalysis`] instrumentation of the
//! baseline run.

use rop_memctrl::RefreshAnalysisReport;
use rop_stats::{percent_delta, TableBuilder};
use rop_trace::Benchmark;

use crate::config::SystemKind;
use crate::runner::{RunSpec, SweepExecutor, SweepJob};

/// Per-benchmark analysis row.
#[derive(Debug, Clone)]
pub struct AnalysisRow {
    /// Benchmark name.
    pub name: &'static str,
    /// Memory-intensive classification.
    pub intensive: bool,
    /// Baseline IPC.
    pub base_ipc: f64,
    /// Ideal (no-refresh) IPC.
    pub ideal_ipc: f64,
    /// Baseline total energy (nJ).
    pub base_energy_nj: f64,
    /// Ideal total energy (nJ).
    pub ideal_energy_nj: f64,
    /// Refresh analysis at 1×/2×/4× tRFC windows (baseline run, rank 0).
    pub reports: [RefreshAnalysisReport; 3],
}

impl AnalysisRow {
    /// Performance degradation caused by refresh, in percent (Figure 1).
    pub fn perf_degradation_pct(&self) -> f64 {
        percent_delta(self.ideal_ipc, self.base_ipc).max(0.0)
    }

    /// Extra energy caused by refresh, in percent (Figure 1).
    pub fn energy_overhead_pct(&self) -> f64 {
        percent_delta(self.base_energy_nj, self.ideal_energy_nj).max(0.0)
    }
}

/// Result of the §III analysis sweep.
#[derive(Debug, Clone)]
pub struct AnalysisResult {
    /// One row per benchmark, in Table I column order.
    pub rows: Vec<AnalysisRow>,
}

/// Runs baseline + no-refresh for every benchmark through `exec`. Both
/// runs are the single-core grid's own jobs, so a store shares them.
pub fn run_analysis(
    benchmarks: &[Benchmark],
    spec: RunSpec,
    exec: &dyn SweepExecutor,
) -> AnalysisResult {
    let jobs = benchmarks
        .iter()
        .flat_map(|&b| {
            [SystemKind::Baseline, SystemKind::NoRefresh]
                .map(|kind| SweepJob::single("analysis", b, kind, spec))
        })
        .collect();
    let metrics = exec.execute(jobs);
    let rows = benchmarks
        .iter()
        .zip(metrics.chunks(2))
        .map(|(&b, pair)| {
            let (base, ideal) = (&pair[0], &pair[1]);
            AnalysisRow {
                name: b.name(),
                intensive: b.is_intensive(),
                base_ipc: base.ipc(),
                ideal_ipc: ideal.ipc(),
                base_energy_nj: base.energy.total_nj(),
                ideal_energy_nj: ideal.energy.total_nj(),
                reports: base.analysis[0],
            }
        })
        .collect();
    AnalysisResult { rows }
}

impl AnalysisResult {
    /// Figure 1: baseline vs. ideal performance and energy.
    pub fn render_fig1(&self) -> String {
        let mut t = TableBuilder::new(
            "Figure 1 — refresh overheads: baseline vs. idealised no-refresh memory",
        )
        .header([
            "benchmark",
            "base IPC",
            "ideal IPC",
            "perf loss",
            "base E(mJ)",
            "ideal E(mJ)",
            "extra energy",
        ]);
        let mut perf = Vec::new();
        let mut energy = Vec::new();
        for r in &self.rows {
            perf.push(r.perf_degradation_pct());
            energy.push(r.energy_overhead_pct());
            t.row([
                r.name.to_string(),
                format!("{:.3}", r.base_ipc),
                format!("{:.3}", r.ideal_ipc),
                format!("{:.1}%", r.perf_degradation_pct()),
                format!("{:.2}", r.base_energy_nj / 1e6),
                format!("{:.2}", r.ideal_energy_nj / 1e6),
                format!("{:.1}%", r.energy_overhead_pct()),
            ]);
        }
        let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
        t.row([
            "AVERAGE".to_string(),
            String::new(),
            String::new(),
            format!("{:.1}%", avg(&perf)),
            String::new(),
            String::new(),
            format!("{:.1}%", avg(&energy)),
        ]);
        t.render()
    }

    /// Figure 2: percentage of non-blocking refreshes at 1×/2×/4×.
    pub fn render_fig2(&self) -> String {
        let mut t = TableBuilder::new(
            "Figure 2 — non-blocking refreshes (% of refreshes blocking no read)",
        )
        .header(["benchmark", "1x", "2x", "4x"]);
        for r in &self.rows {
            t.row([
                r.name.to_string(),
                format!("{:.1}%", r.reports[0].non_blocking_fraction * 100.0),
                format!("{:.1}%", r.reports[1].non_blocking_fraction * 100.0),
                format!("{:.1}%", r.reports[2].non_blocking_fraction * 100.0),
            ]);
        }
        let ni: Vec<f64> = self
            .rows
            .iter()
            .filter(|r| !r.intensive)
            .map(|r| r.reports[0].non_blocking_fraction * 100.0)
            .collect();
        t.row([
            "non-intensive avg (1x)".to_string(),
            format!("{:.1}%", ni.iter().sum::<f64>() / ni.len().max(1) as f64),
            String::new(),
            String::new(),
        ]);
        t.render()
    }

    /// Figure 3: average blocked reads per blocking refresh (1× window).
    pub fn render_fig3(&self) -> String {
        let mut t = TableBuilder::new("Figure 3 — blocked reads per blocking refresh (1x window)")
            .header(["benchmark", "avg blocked", "max blocked"]);
        for r in &self.rows {
            t.row([
                r.name.to_string(),
                format!("{:.2}", r.reports[0].avg_blocked_per_blocking),
                format!("{}", r.reports[0].max_blocked),
            ]);
        }
        t.render()
    }

    /// Figure 4: fraction of refreshes in the two dominant categories.
    pub fn render_fig4(&self) -> String {
        let mut t = TableBuilder::new(
            "Figure 4 — dominant-event coverage: P(E1 ∪ E2), E1 = B>0∧A>0, E2 = B=0∧A=0",
        )
        .header(["benchmark", "1x", "2x", "4x"]);
        for r in &self.rows {
            t.row([
                r.name.to_string(),
                format!("{:.1}%", r.reports[0].dominant_fraction * 100.0),
                format!("{:.1}%", r.reports[1].dominant_fraction * 100.0),
                format!("{:.1}%", r.reports[2].dominant_fraction * 100.0),
            ]);
        }
        t.render()
    }

    /// Table I: λ and β at the three window lengths.
    pub fn render_table1(&self) -> String {
        let mut t = TableBuilder::new("Table I — conditional probabilities λ and β").header([
            "benchmark",
            "λ (1x)",
            "β (1x)",
            "λ (2x)",
            "β (2x)",
            "λ (4x)",
            "β (4x)",
        ]);
        for r in &self.rows {
            t.row([
                r.name.to_string(),
                format!("{:.2}", r.reports[0].lambda),
                format!("{:.2}", r.reports[0].beta),
                format!("{:.2}", r.reports[1].lambda),
                format!("{:.2}", r.reports[1].beta),
                format!("{:.2}", r.reports[2].lambda),
                format!("{:.2}", r.reports[2].beta),
            ]);
        }
        let avg = |f: fn(&RefreshAnalysisReport) -> f64, i: usize| -> f64 {
            self.rows.iter().map(|r| f(&r.reports[i])).sum::<f64>() / self.rows.len() as f64
        };
        t.row([
            "Average".to_string(),
            format!("{:.2}", avg(|r| r.lambda, 0)),
            format!("{:.2}", avg(|r| r.beta, 0)),
            format!("{:.2}", avg(|r| r.lambda, 1)),
            format!("{:.2}", avg(|r| r.beta, 1)),
            format!("{:.2}", avg(|r| r.lambda, 2)),
            format!("{:.2}", avg(|r| r.beta, 2)),
        ]);
        t.render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn analysis_smoke() {
        // gobmk reaches memory rarely (IPC ≈ issue width), so give it
        // enough instructions to live through several refresh intervals.
        let spec = RunSpec {
            instructions: 400_000,
            max_cycles: 30_000_000,
            seed: 3,
        };
        // Keep the test fast: two contrasting benchmarks only.
        let res = run_analysis(
            &[Benchmark::Libquantum, Benchmark::Gobmk],
            spec,
            &crate::runner::LocalExecutor,
        );
        // Refresh must cost energy on both.
        for r in &res.rows {
            assert!(
                r.base_energy_nj > r.ideal_energy_nj,
                "{}: refresh must add energy",
                r.name
            );
            assert!(r.reports[0].refreshes > 0);
        }
        // The streaming benchmark sees far fewer non-blocking refreshes
        // than the cache-friendly one.
        let lib = &res.rows[0];
        let gob = &res.rows[1];
        assert!(
            lib.reports[0].non_blocking_fraction < gob.reports[0].non_blocking_fraction,
            "libquantum {} vs gobmk {}",
            lib.reports[0].non_blocking_fraction,
            gob.reports[0].non_blocking_fraction
        );
        // λ: streaming ≈ 1.
        assert!(lib.reports[0].lambda > 0.9, "λ {}", lib.reports[0].lambda);
        // All five renders produce output.
        for s in [
            res.render_fig1(),
            res.render_fig2(),
            res.render_fig3(),
            res.render_fig4(),
            res.render_table1(),
        ] {
            assert!(s.contains("libquantum"));
        }
    }
}
