//! §V-C3 LLC-size sensitivity: Figure 12 (weighted speedup vs. LLC),
//! Figure 13 (energy vs. LLC) and Figure 14 (SRAM hit rate vs. LLC).

use rop_stats::{geometric_mean, normalize_to, TableBuilder};
use rop_trace::{Benchmark, WorkloadMix, ALL_BENCHMARKS};

use crate::experiments::multicore::{run_multicore_on, AloneIpcs, MulticoreResult};
use crate::runner::{RunSpec, SweepExecutor};

/// LLC sizes swept (MiB), per the paper's sensitivity study.
pub const LLC_SIZES_MIB: [usize; 3] = [1, 2, 4];

/// Result of the LLC sweep: one [`MulticoreResult`] per size.
#[derive(Debug, Clone)]
pub struct LlcSweepResult {
    /// Per-size results, in [`LLC_SIZES_MIB`] order.
    pub per_size: Vec<MulticoreResult>,
}

/// The multicore comparison at each of `sizes` (MiB) over `mixes`,
/// through an arbitrary executor. Alone-IPC denominators are measured
/// (per size) only for benchmarks appearing in `mixes`, in
/// [`ALL_BENCHMARKS`] order.
pub fn run_llc_sweep_with(
    sizes: &[usize],
    mixes: &[WorkloadMix],
    spec: RunSpec,
    exec: &dyn SweepExecutor,
) -> LlcSweepResult {
    let needed: Vec<Benchmark> = ALL_BENCHMARKS
        .into_iter()
        .filter(|b| mixes.iter().any(|m| m.programs.contains(b)))
        .collect();
    let per_size = sizes
        .iter()
        .map(|&mib| {
            let alone = AloneIpcs::measure_with(&needed, mib, spec, exec);
            run_multicore_on(mixes, mib, spec, &alone, exec)
        })
        .collect();
    LlcSweepResult { per_size }
}

impl LlcSweepResult {
    /// Header row: `mix` plus one column per swept LLC size.
    fn size_header(&self) -> Vec<String> {
        std::iter::once("mix".to_string())
            .chain(self.per_size.iter().map(|r| format!("{}MB", r.llc_mib)))
            .collect()
    }

    /// Figure 12: ROP's normalised weighted speedup per LLC size.
    pub fn render_fig12(&self) -> String {
        let mut t = TableBuilder::new(
            "Figure 12 — ROP weighted speedup normalised to Baseline, by LLC size",
        )
        .header(self.size_header());
        let mixes: Vec<&str> = self.per_size[0].rows.iter().map(|r| r.mix).collect();
        for (i, mix) in mixes.iter().enumerate() {
            let mut cells = vec![mix.to_string()];
            for res in &self.per_size {
                let r = &res.rows[i];
                cells.push(format!("{:.3}", normalize_to(r.ws[2], r.ws[0])));
            }
            t.row(cells);
        }
        let mut cells = vec!["geomean".to_string()];
        for res in &self.per_size {
            let norms: Vec<f64> = res
                .rows
                .iter()
                .map(|r| normalize_to(r.ws[2], r.ws[0]))
                .collect();
            cells.push(format!("{:.3}", geometric_mean(&norms)));
        }
        t.row(cells);
        t.render()
    }

    /// Figure 13: ROP's normalised energy per LLC size.
    pub fn render_fig13(&self) -> String {
        let mut t = TableBuilder::new("Figure 13 — ROP energy normalised to Baseline, by LLC size")
            .header(self.size_header());
        let mixes: Vec<&str> = self.per_size[0].rows.iter().map(|r| r.mix).collect();
        for (i, mix) in mixes.iter().enumerate() {
            let mut cells = vec![mix.to_string()];
            for res in &self.per_size {
                let r = &res.rows[i];
                cells.push(format!(
                    "{:.3}",
                    normalize_to(r.rop.energy.total_nj(), r.baseline.energy.total_nj())
                ));
            }
            t.row(cells);
        }
        t.render()
    }

    /// Figure 14: SRAM buffer hit rate per LLC size (ROP system).
    pub fn render_fig14(&self) -> String {
        let mut t = TableBuilder::new("Figure 14 — SRAM buffer hit rate, by LLC size (ROP-64)")
            .header(self.size_header());
        let mixes: Vec<&str> = self.per_size[0].rows.iter().map(|r| r.mix).collect();
        for (i, mix) in mixes.iter().enumerate() {
            let mut cells = vec![mix.to_string()];
            for res in &self.per_size {
                cells.push(format!("{:.2}", res.rows[i].rop.sram_hit_rate));
            }
            t.row(cells);
        }
        t.render()
    }
}
