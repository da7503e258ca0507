//! Tail latency vs offered load: the datacenter figure family.
//!
//! Drives the open-loop injector ([`crate::OpenLoopSystem`]) across a
//! grid of offered loads × arrival processes × the refresh-mechanism
//! roster ([`SystemKind::MECHANISMS`]) and renders read-latency
//! percentiles (p50/p99/p999), the refresh-attributed tail, and the
//! achieved-throughput / saturation picture. This is the experiment
//! where refresh mechanisms separate most visibly: a 280-cycle tRFC
//! freeze barely moves the mean but parks an entire arrival burst
//! behind it, so all-bank refresh shows up directly in p99/p999 while
//! DARP/SARP/RAIDR flatten the tail.

use rop_stats::TableBuilder;
use rop_trace::{AddressPattern, ArrivalProcess};

use crate::config::{OpenLoopSpec, SystemConfig, SystemKind};
use crate::metrics::RunMetrics;
use crate::runner::{RunSpec, SweepExecutor, SweepJob};
use crate::Cycle;

/// Offered loads swept, in requests per kilo-cycle summed over tenants.
/// DDR4-1600 with 4-cycle bursts serves at most 250 rpkc, so the grid
/// walks from comfortable (24%) to near-saturation (96%).
pub const OFFERED_LOADS_RPKC: [f64; 4] = [60.0, 120.0, 180.0, 240.0];

/// Traffic sources, each pinned to one of the 4 ranks.
pub const TENANTS: usize = 4;

/// Per-tenant footprint in cache lines (4 MB of 64 B lines — large
/// enough to defeat the row buffer, small within one rank partition).
pub const REGION_LINES: u64 = 1 << 16;

/// Store fraction of the offered traffic.
pub const WRITE_FRACTION: f64 = 0.25;

/// The arrival processes swept (labels are [`ArrivalProcess::label`]).
/// The MMPP burst regime quadruples the rate with ~20k-cycle dwells
/// (bursts several refresh intervals long); the diurnal period spans
/// the whole observation window so one run sees a full "day".
pub fn arrival_processes(duration: Cycle) -> [ArrivalProcess; 3] {
    [
        ArrivalProcess::Poisson,
        ArrivalProcess::Mmpp2 {
            burst_rate_multiplier: 4.0,
            mean_dwell_cycles: 20_000,
        },
        ArrivalProcess::Diurnal {
            period_cycles: duration.max(8),
        },
    ]
}

/// Observation window derived from the run spec: reuse the instruction
/// quota as a cycle budget (open-loop runs retire no instructions),
/// capped at the spec's own cycle limit. The floor of two refresh
/// intervals wins over the cap — a window with no refresh activity in
/// frame cannot measure a refresh-attributed tail.
pub fn duration_for(spec: RunSpec) -> Cycle {
    spec.instructions.min(spec.max_cycles).max(16_000)
}

/// Builds the fully-resolved config for one (process, load, mechanism)
/// cell: 4 tenants on 4 ranks, rank-partitioned mapping forced through
/// the controller override so tenant traffic stays rank-local for every
/// mechanism (the mechanisms' own defaults keep interleaved mapping).
pub fn tail_config(
    kind: SystemKind,
    process: ArrivalProcess,
    offered_rpkc: f64,
    duration: Cycle,
    seed: u64,
) -> SystemConfig {
    let mut cfg = SystemConfig::multi_core(
        crate::experiments::mechanisms::MECHANISM_BENCHMARKS
            .iter()
            .cycle()
            .take(4)
            .copied()
            .collect::<Vec<_>>()
            .try_into()
            .expect("exactly 4 benchmarks"),
        kind,
        seed,
    );
    let mut ctrl = kind.memctrl_config(cfg.ranks, seed);
    ctrl.mapping = rop_memctrl::MappingScheme::RankPartitioned;
    cfg.ctrl_override = Some(ctrl);
    cfg.open_loop = Some(OpenLoopSpec {
        process,
        offered_rpkc,
        tenants: TENANTS,
        pattern: AddressPattern::Random,
        region_lines: REGION_LINES,
        write_fraction: WRITE_FRACTION,
        duration,
    });
    cfg
}

/// The declarative job set, in result order: per process, per offered
/// load, one job per [`SystemKind::MECHANISMS`] element.
pub fn tail_latency_jobs(spec: RunSpec) -> Vec<SweepJob> {
    let duration = duration_for(spec);
    let mut jobs = Vec::new();
    for process in arrival_processes(duration) {
        for &load in &OFFERED_LOADS_RPKC {
            for &kind in &SystemKind::MECHANISMS {
                jobs.push(SweepJob::custom(
                    format!("tail/{}/{load}/{}", process.label(), kind.label()),
                    tail_config(kind, process.clone(), load, duration, spec.seed),
                    spec,
                ));
            }
        }
    }
    jobs
}

/// One (process, offered load) row across the mechanism roster.
#[derive(Debug, Clone)]
pub struct TailRow {
    /// Arrival process label (`poisson`/`mmpp`/`diurnal`).
    pub process: &'static str,
    /// Offered load in rpkc (summed over tenants).
    pub offered_rpkc: f64,
    /// One entry per [`SystemKind::MECHANISMS`] element.
    pub per_mechanism: Vec<RunMetrics>,
}

/// Result of the tail-latency sweep.
#[derive(Debug, Clone)]
pub struct TailLatencyResult {
    /// One row per (process, load) cell, processes outer.
    pub rows: Vec<TailRow>,
}

/// The sweep through an arbitrary executor (fresh runs locally,
/// store-backed in the harness, dry in the planner).
pub fn run_tail_latency_with(spec: RunSpec, exec: &dyn SweepExecutor) -> TailLatencyResult {
    let duration = duration_for(spec);
    let metrics = exec.execute(tail_latency_jobs(spec));
    let per_mech = SystemKind::MECHANISMS.len();
    let mut rows = Vec::new();
    let mut it = metrics.into_iter();
    for process in arrival_processes(duration) {
        for &load in &OFFERED_LOADS_RPKC {
            rows.push(TailRow {
                process: process_label_static(&process),
                offered_rpkc: load,
                per_mechanism: it.by_ref().take(per_mech).collect(),
            });
        }
    }
    TailLatencyResult { rows }
}

/// `'static` copy of the process label (labels are fixed strings).
fn process_label_static(p: &ArrivalProcess) -> &'static str {
    match p {
        ArrivalProcess::Poisson => "poisson",
        ArrivalProcess::Mmpp2 { .. } => "mmpp",
        ArrivalProcess::Diurnal { .. } => "diurnal",
    }
}

/// Extracts the open-loop block, tolerating placeholder/closed rows.
fn ol(m: &RunMetrics) -> Option<&crate::metrics::OpenLoopMetrics> {
    m.open_loop.as_ref()
}

impl TailLatencyResult {
    /// Figure T1: read-latency percentiles per mechanism across the
    /// load grid — the paper-style tail-latency-vs-offered-load curves.
    pub fn render_tail(&self) -> String {
        let mut header = vec!["process/rpkc".to_string()];
        for k in &SystemKind::MECHANISMS {
            header.push(format!("{} p50", k.label()));
            header.push(format!("{} p99", k.label()));
            header.push(format!("{} p999", k.label()));
        }
        let mut t = TableBuilder::new(
            "Figure T1 — open-loop read latency percentiles (cycles) vs offered load",
        )
        .header(header);
        for r in &self.rows {
            let mut cells = vec![format!("{}/{}", r.process, r.offered_rpkc)];
            for m in &r.per_mechanism {
                match ol(m) {
                    Some(o) => {
                        cells.push(format!("{}", o.read_latency.p50()));
                        cells.push(format!("{}", o.read_latency.p99()));
                        cells.push(format!("{}", o.read_latency.p999()));
                    }
                    None => cells.extend(["-".into(), "-".into(), "-".into()]),
                }
            }
            t.row(cells);
        }
        t.render()
    }

    /// Figure T2: the refresh-attributed tail — p99 of reads whose
    /// lifetime overlapped a refresh freeze, next to the overall p99.
    pub fn render_refresh_tail(&self) -> String {
        let mut header = vec!["process/rpkc".to_string()];
        for k in &SystemKind::MECHANISMS {
            header.push(format!("{} p99", k.label()));
            header.push(format!("{} rp99", k.label()));
        }
        let mut t = TableBuilder::new(
            "Figure T2 — refresh-attributed p99 (rp99: reads blocked by a freeze) vs overall p99",
        )
        .header(header);
        for r in &self.rows {
            let mut cells = vec![format!("{}/{}", r.process, r.offered_rpkc)];
            for m in &r.per_mechanism {
                match ol(m) {
                    Some(o) => {
                        cells.push(format!("{}", o.read_latency.p99()));
                        cells.push(format!("{}", o.refresh_blocked_latency.p99()));
                    }
                    None => cells.extend(["-".into(), "-".into()]),
                }
            }
            t.row(cells);
        }
        t.render()
    }

    /// Figure T3: achieved throughput and saturation — the knee of each
    /// mechanism's load-service curve ('*' marks a saturated cell).
    pub fn render_saturation(&self) -> String {
        let mut header = vec!["process/rpkc".to_string()];
        for k in &SystemKind::MECHANISMS {
            header.push(format!("{} rpkc", k.label()));
        }
        let mut t = TableBuilder::new(
            "Figure T3 — achieved read throughput (rpkc; '*' = saturated) vs offered load",
        )
        .header(header);
        for r in &self.rows {
            let mut cells = vec![format!("{}/{}", r.process, r.offered_rpkc)];
            for m in &r.per_mechanism {
                match ol(m) {
                    Some(o) => cells.push(format!(
                        "{:.1}{}",
                        o.achieved_rpkc,
                        if o.saturated { "*" } else { "" }
                    )),
                    None => cells.push("-".into()),
                }
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
    fn job_grid_shape_and_labels() {
        let spec = RunSpec::quick();
        let jobs = tail_latency_jobs(spec);
        assert_eq!(jobs.len(), 3 * OFFERED_LOADS_RPKC.len() * 4);
        assert_eq!(jobs[0].label, "tail/poisson/60/Baseline");
        assert!(jobs.last().unwrap().label.starts_with("tail/diurnal/240/"));
        for j in &jobs {
            j.config.validate().expect("tail job config valid");
            let ol = j.config.open_loop.as_ref().expect("open-loop job");
            ol.validate().expect("tail open-loop spec valid");
            assert_eq!(ol.duration, duration_for(spec));
            assert!(matches!(
                j.config.ctrl_override.as_ref().map(|c| &c.mapping),
                Some(rop_memctrl::MappingScheme::RankPartitioned)
            ));
        }
    }

    #[test]
    fn sweep_runs_and_renders() {
        // 25k-cycle windows keep this a smoke run while still spanning
        // ~4 refresh intervals per rank.
        let spec = RunSpec {
            instructions: 25_000,
            max_cycles: 1_000_000,
            seed: 42,
        };
        let res = run_tail_latency_with(spec, &crate::runner::LocalExecutor);
        assert_eq!(res.rows.len(), 3 * OFFERED_LOADS_RPKC.len());
        for r in &res.rows {
            assert_eq!(r.per_mechanism.len(), 4);
            for m in &r.per_mechanism {
                let o = m.open_loop.as_ref().expect("open-loop metrics");
                assert!(o.read_latency.count() > 0, "{}: no reads", r.process);
            }
        }
        let t1 = res.render_tail();
        assert!(t1.contains("DARP p999"));
        assert!(t1.contains("poisson/60"));
        assert!(res.render_refresh_tail().contains("rp99"));
        assert!(res.render_saturation().contains("diurnal/240"));
    }
}
