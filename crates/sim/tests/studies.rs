//! The §III analysis and the extension studies are job sets: every job
//! reaches the caller's executor, the figures are assembled from the
//! metrics it returns, and the jobs the studies share with the sweep
//! grid keep the grid's identities (so a store runs them once).

use std::cell::RefCell;
use std::collections::HashSet;

use rop_memctrl::RefreshAnalysisReport;
use rop_sim_system::experiments::extensions::EXTENSION_BENCHMARKS;
use rop_sim_system::experiments::{
    plan_jobs, run_analysis, run_fgr_sweep, run_per_bank_study, run_policy_comparison,
    ExtensionStudy,
};
use rop_sim_system::runner::{RunSpec, SweepExecutor, SweepJob};
use rop_sim_system::RunMetrics;
use rop_trace::ALL_BENCHMARKS;

/// Records every job it is handed and answers with synthetic metrics:
/// the n-th job (counting from 1) reports IPC n and, in every analysis
/// window, λ = n / 100.
#[derive(Default)]
struct Recorder {
    jobs: RefCell<Vec<SweepJob>>,
}

impl SweepExecutor for Recorder {
    fn execute(&self, jobs: Vec<SweepJob>) -> Vec<RunMetrics> {
        let mut seen = self.jobs.borrow_mut();
        jobs.into_iter()
            .map(|job| {
                let mut m = job.placeholder_metrics();
                seen.push(job);
                let n = seen.len() as f64;
                m.cores[0].ipc = n;
                m.analysis = vec![[report(n / 100.0); 3]];
                m
            })
            .collect()
    }
}

fn report(lambda: f64) -> RefreshAnalysisReport {
    RefreshAnalysisReport {
        window_multiplier: 1,
        refreshes: 1,
        non_blocking_fraction: 0.5,
        avg_blocked_per_blocking: 1.0,
        max_blocked: 1,
        lambda,
        beta: 0.5,
        dominant_fraction: 0.5,
    }
}

fn spec() -> RunSpec {
    RunSpec::quick()
}

/// Every job label is distinct and every config validates.
fn assert_well_formed(jobs: &[SweepJob]) {
    let labels: HashSet<&str> = jobs.iter().map(|j| j.label.as_str()).collect();
    assert_eq!(labels.len(), jobs.len(), "duplicate labels");
    for j in jobs {
        j.config.validate().expect(&j.label);
    }
}

#[test]
fn analysis_renders_from_the_executors_metrics() {
    let rec = Recorder::default();
    let res = run_analysis(&ALL_BENCHMARKS, spec(), &rec);
    let jobs = rec.jobs.into_inner();
    assert_eq!(jobs.len(), 2 * ALL_BENCHMARKS.len());
    assert_well_formed(&jobs);
    assert_eq!(jobs[0].label, "analysis/perlbench/Baseline");
    assert_eq!(jobs[1].label, "analysis/perlbench/No-Refresh");
    assert_eq!(res.rows.len(), ALL_BENCHMARKS.len());
    for (i, (row, b)) in res.rows.iter().zip(ALL_BENCHMARKS).enumerate() {
        assert_eq!(row.name, b.name());
        // Row i is built from jobs 2i+1 (baseline) and 2i+2 (no-refresh).
        assert_eq!(row.base_ipc, (2 * i + 1) as f64);
        assert_eq!(row.ideal_ipc, (2 * i + 2) as f64);
        assert_eq!(row.reports[0].lambda, (2 * i + 1) as f64 / 100.0);
    }
    let fig1 = res.render_fig1();
    let first = fig1.lines().find(|l| l.starts_with("perlbench")).unwrap();
    let cells: Vec<&str> = first.split_whitespace().collect();
    assert_eq!(cells[1..3], ["1.000", "2.000"], "{fig1}");
    let table1 = res.render_table1();
    let first = table1.lines().find(|l| l.starts_with("perlbench")).unwrap();
    assert_eq!(first.split_whitespace().nth(1), Some("0.01"), "{table1}");
}

/// Runs a study on a fresh [`Recorder`], checks its grid and that every
/// rendered cell is the recorded IPC over its row's first column.
fn check_study(study: fn(RunSpec, &dyn SweepExecutor) -> ExtensionStudy, slug: &str) {
    let rec = Recorder::default();
    let res = study(spec(), &rec);
    let jobs = rec.jobs.into_inner();
    let cols = res.columns.len();
    assert_eq!(jobs.len(), EXTENSION_BENCHMARKS.len() * cols);
    assert_well_formed(&jobs);
    assert_eq!(
        jobs[0].label,
        format!("{slug}/libquantum/{}", res.columns[0])
    );
    let table = res.render();
    for (i, b) in EXTENSION_BENCHMARKS.iter().enumerate() {
        let line = table.lines().find(|l| l.starts_with(b.name())).unwrap();
        let cells: Vec<&str> = line.split_whitespace().skip(1).collect();
        let expected: Vec<String> = (0..cols)
            .map(|j| format!("{:.3}", (i * cols + j + 1) as f64 / (i * cols + 1) as f64))
            .collect();
        assert_eq!(cells, expected, "{slug} row {}:\n{table}", b.name());
    }
}

#[test]
fn extension_studies_render_from_the_executors_metrics() {
    check_study(run_policy_comparison, "policies");
    check_study(run_fgr_sweep, "fgr");
    check_study(run_per_bank_study, "per-bank");
}

/// How many of a study's jobs have an id in the `all` sweep grid.
fn shared_with_grid(study: impl FnOnce(&Recorder)) -> usize {
    let grid: HashSet<u64> = plan_jobs("all", spec())
        .unwrap()
        .iter()
        .map(SweepJob::fingerprint)
        .collect();
    let rec = Recorder::default();
    study(&rec);
    rec.jobs
        .into_inner()
        .iter()
        .filter(|j| grid.contains(&j.fingerprint()))
        .count()
}

#[test]
fn studies_share_job_ids_with_the_sweep_grid() {
    // Baseline and no-refresh per benchmark are single-core grid jobs.
    let n = shared_with_grid(|rec| drop(run_analysis(&ALL_BENCHMARKS, spec(), rec)));
    assert_eq!(n, 24);
    // Baseline, ROP-64 and no-refresh per benchmark; Elastic is new.
    let n = shared_with_grid(|rec| drop(run_policy_comparison(spec(), rec)));
    assert_eq!(n, 12);
    // Baseline, ROP-64 and no-refresh per benchmark; REFpb is new.
    let n = shared_with_grid(|rec| drop(run_per_bank_study(spec(), rec)));
    assert_eq!(n, 12);
    // Only the 1x ROP cell of the ablation benchmarks equals a grid job
    // (ablate-window's 1x variant).
    let n = shared_with_grid(|rec| drop(run_fgr_sweep(spec(), rec)));
    assert_eq!(n, 3);
}
