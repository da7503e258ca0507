//! Refresh-mechanism head-to-head: the zoo figures.
//!
//! Runs the whole [`SystemKind::MECHANISMS`] roster — auto-refresh
//! all-bank, DARP, SARP and RAIDR — on the same benchmarks and renders
//! four figures: IPC (normalised to all-bank), refresh-blocked read
//! cycles, memory-energy proxy and the per-mechanism refresh counters
//! (issued / skipped / pulled-in). Each figure is produced twice: once
//! on the stock DDR4 timing and once on a *refresh-heavy* shape with
//! tREFI divided by [`REFRESH_HEAVY_DIVISOR`] — the high-density regime
//! where refresh mechanisms actually separate (the stock 64 ms interval
//! hides most of the difference, exactly as the ROP paper's motivation
//! section argues).

use rop_stats::{normalize_to, TableBuilder};
use rop_trace::Benchmark;

use crate::config::{SystemConfig, SystemKind};
use crate::metrics::RunMetrics;
use crate::runner::{RunSpec, SweepExecutor, SweepJob};

/// Benchmarks in the head-to-head: the two streaming refresh-sensitive
/// ones plus a phase-structured one (DARP's idle-window fodder).
pub const MECHANISM_BENCHMARKS: [Benchmark; 3] =
    [Benchmark::Libquantum, Benchmark::Lbm, Benchmark::Gcc];

/// tREFI divisor of the refresh-heavy shape (stands in for the 8×-density
/// future-DRAM scaling the paper projects).
pub const REFRESH_HEAVY_DIVISOR: u64 = 8;

/// The two timing shapes every mechanism runs on.
const SHAPES: [(&str, u64); 2] = [("stock", 1), ("refresh-heavy", REFRESH_HEAVY_DIVISOR)];

/// One benchmark's runs across the mechanism roster, in
/// [`SystemKind::MECHANISMS`] order.
#[derive(Debug, Clone)]
pub struct MechanismRow {
    /// Benchmark name.
    pub benchmark: &'static str,
    /// One entry per [`SystemKind::MECHANISMS`] element.
    pub per_mechanism: Vec<RunMetrics>,
}

/// All rows of one timing shape.
#[derive(Debug, Clone)]
pub struct MechanismShape {
    /// Shape label (`stock` or `refresh-heavy`).
    pub shape: &'static str,
    /// One row per benchmark.
    pub rows: Vec<MechanismRow>,
}

/// Result of the mechanism head-to-head.
#[derive(Debug, Clone)]
pub struct MechanismsResult {
    /// One entry per element of `SHAPES`, in order.
    pub shapes: Vec<MechanismShape>,
}

/// Builds the fully-resolved config for one (shape, benchmark,
/// mechanism) cell. The tREFI override is applied through the
/// controller-override hook so the job's content hash captures it; the
/// RAIDR bin period is re-derived from the shrunken tREFI to keep the
/// config valid (bin periods must stay multiples of tREFI).
fn mechanism_config(kind: SystemKind, divisor: u64, b: Benchmark, seed: u64) -> SystemConfig {
    let mut cfg = SystemConfig::single_core(b, kind, seed);
    if divisor > 1 {
        let mut ctrl = cfg.kind.memctrl_config(cfg.ranks, cfg.seed);
        ctrl.dram.timing.t_refi_base /= divisor;
        // Budgets expressed in tREFI shrink with it (the postpone
        // allowance stays within JEDEC's 8 x tREFI, the grace under one).
        ctrl.max_refresh_postpone /= divisor;
        ctrl.prefetch_grace /= divisor;
        if let rop_memctrl::MechanismKind::Raidr { bin_period, .. } = &mut ctrl.mechanism {
            *bin_period = 2 * ctrl.dram.timing.t_refi();
        }
        cfg.ctrl_override = Some(ctrl);
    }
    cfg
}

/// The declarative job set behind [`run_mechanisms_with`], in result
/// order: per shape, per benchmark, one job per
/// [`SystemKind::MECHANISMS`] element.
pub fn mechanism_jobs(benchmarks: &[Benchmark], spec: RunSpec) -> Vec<SweepJob> {
    let mut jobs = Vec::new();
    for &(shape, divisor) in &SHAPES {
        for &b in benchmarks {
            for &kind in &SystemKind::MECHANISMS {
                jobs.push(SweepJob::custom(
                    format!("mech/{shape}/{}/{}", b.name(), kind.label()),
                    mechanism_config(kind, divisor, b, spec.seed),
                    spec,
                ));
            }
        }
    }
    jobs
}

/// The head-to-head on `benchmarks` through an arbitrary executor (fresh
/// runs locally, store-backed in the sweep harness).
pub fn run_mechanisms_with(
    benchmarks: &[Benchmark],
    spec: RunSpec,
    exec: &dyn SweepExecutor,
) -> MechanismsResult {
    let metrics = exec.execute(mechanism_jobs(benchmarks, spec));
    let per_mech = SystemKind::MECHANISMS.len();
    let per_shape = benchmarks.len() * per_mech;
    let shapes = SHAPES
        .iter()
        .enumerate()
        .map(|(s, &(shape, _))| MechanismShape {
            shape,
            rows: benchmarks
                .iter()
                .enumerate()
                .map(|(i, b)| MechanismRow {
                    benchmark: b.name(),
                    per_mechanism: metrics
                        [s * per_shape + i * per_mech..s * per_shape + (i + 1) * per_mech]
                        .to_vec(),
                })
                .collect(),
        })
        .collect();
    MechanismsResult { shapes }
}

/// Column headers for the roster, `AllBank` first.
fn mechanism_headers() -> Vec<String> {
    SystemKind::MECHANISMS.iter().map(|k| k.label()).collect()
}

impl MechanismsResult {
    /// Figure M1: IPC normalised to the all-bank baseline, per shape.
    pub fn render_ipc(&self) -> String {
        let mut header = vec!["shape/benchmark".to_string()];
        header.extend(mechanism_headers());
        let mut t = TableBuilder::new(
            "Figure M1 — mechanism head-to-head: IPC normalised to all-bank refresh",
        )
        .header(header);
        for shape in &self.shapes {
            for r in &shape.rows {
                let base = r.per_mechanism[0].ipc();
                let mut cells = vec![format!("{}/{}", shape.shape, r.benchmark)];
                for m in &r.per_mechanism {
                    cells.push(format!("{:.3}", normalize_to(m.ipc(), base)));
                }
                t.row(cells);
            }
        }
        t.render()
    }

    /// Figure M2: refresh-blocked read cycles (the cycles demand reads
    /// sat behind a frozen refresh scope), raw per run.
    pub fn render_blocked(&self) -> String {
        let mut header = vec!["shape/benchmark".to_string()];
        header.extend(mechanism_headers());
        let mut t =
            TableBuilder::new("Figure M2 — mechanism head-to-head: refresh-blocked read cycles")
                .header(header);
        for shape in &self.shapes {
            for r in &shape.rows {
                let mut cells = vec![format!("{}/{}", shape.shape, r.benchmark)];
                for m in &r.per_mechanism {
                    cells.push(format!("{}", m.refresh_blocked_cycles));
                }
                t.row(cells);
            }
        }
        t.render()
    }

    /// Figure M3: memory-energy proxy normalised to all-bank.
    pub fn render_energy(&self) -> String {
        let mut header = vec!["shape/benchmark".to_string()];
        header.extend(mechanism_headers());
        let mut t = TableBuilder::new(
            "Figure M3 — mechanism head-to-head: memory energy normalised to all-bank",
        )
        .header(header);
        for shape in &self.shapes {
            for r in &shape.rows {
                let base = r.per_mechanism[0].energy.total_nj();
                let mut cells = vec![format!("{}/{}", shape.shape, r.benchmark)];
                for m in &r.per_mechanism {
                    cells.push(format!("{:.3}", normalize_to(m.energy.total_nj(), base)));
                }
                t.row(cells);
            }
        }
        t.render()
    }

    /// Figure M4: refresh activity — issued refreshes plus each
    /// mechanism's signature counter (RAIDR rounds skipped, DARP
    /// refreshes pulled in early).
    pub fn render_refresh_counts(&self) -> String {
        let mut header = vec!["shape/benchmark".to_string()];
        for k in &SystemKind::MECHANISMS {
            header.push(format!("{} refs", k.label()));
        }
        header.push("RAIDR skipped".to_string());
        header.push("DARP pulled-in".to_string());
        let mut t = TableBuilder::new(
            "Figure M4 — mechanism head-to-head: refresh counts and signature counters",
        )
        .header(header);
        for shape in &self.shapes {
            for r in &shape.rows {
                let mut cells = vec![format!("{}/{}", shape.shape, r.benchmark)];
                for m in &r.per_mechanism {
                    cells.push(format!("{}", m.refreshes));
                }
                let skipped: u64 = r.per_mechanism.iter().map(|m| m.refreshes_skipped).sum();
                let pulled: u64 = r.per_mechanism.iter().map(|m| m.refreshes_pulled_in).sum();
                cells.push(format!("{skipped}"));
                cells.push(format!("{pulled}"));
                t.row(cells);
            }
        }
        t.render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_order_matches_result_assembly() {
        let spec = RunSpec::quick();
        let jobs = mechanism_jobs(&MECHANISM_BENCHMARKS, spec);
        assert_eq!(
            jobs.len(),
            SHAPES.len() * MECHANISM_BENCHMARKS.len() * SystemKind::MECHANISMS.len()
        );
        assert_eq!(jobs[0].label, "mech/stock/libquantum/Baseline");
        assert!(jobs.last().unwrap().label.starts_with("mech/refresh-heavy"));
        // Every job's config validates (the RAIDR bin re-derivation on
        // the refresh-heavy shape is what this guards).
        for j in &jobs {
            j.config.validate().expect("mechanism job config valid");
        }
    }

    #[test]
    fn head_to_head_separates_mechanisms_under_pressure() {
        // Small quota, one benchmark: enough refreshes on the heavy
        // shape for the ordering DARP/SARP < all-bank to emerge.
        let spec = RunSpec {
            instructions: 200_000,
            max_cycles: 40_000_000,
            seed: 42,
        };
        let res = run_mechanisms_with(
            &[Benchmark::Libquantum],
            spec,
            &crate::runner::LocalExecutor,
        );
        let heavy = &res.shapes[1];
        assert_eq!(heavy.shape, "refresh-heavy");
        let row = &heavy.rows[0];
        let blocked: Vec<u64> = row
            .per_mechanism
            .iter()
            .map(|m| m.refresh_blocked_cycles)
            .collect();
        // MECHANISMS order: Baseline(all-bank), DARP, SARP, RAIDR.
        assert!(
            blocked[1] < blocked[0],
            "DARP must shrink blocking on the heavy shape ({blocked:?})"
        );
        assert!(
            blocked[2] < blocked[0],
            "SARP must shrink blocking on the heavy shape ({blocked:?})"
        );
        // The figures render and carry the roster labels.
        assert!(res.render_ipc().contains("DARP"));
        assert!(res.render_blocked().contains("refresh-heavy/libquantum"));
        assert!(res.render_energy().contains("RAIDR"));
        assert!(res.render_refresh_counts().contains("DARP pulled-in"));
    }
}
