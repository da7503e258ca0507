//! Name-addressed experiment driving.
//!
//! The single place mapping experiment *names* (`single`, `multi`,
//! `llc`, the ablations, `all`) to the job sets and figure renderers of
//! the experiment modules. `rop-sweep run` feeds it a persistent
//! store-backed executor, `rop-sweep status` and the static linter feed
//! it the dry [`PlanExecutor`], and both see exactly the same jobs —
//! there is no second enumeration to drift. `repro` renders these names
//! through it too; its §III analysis and extension studies are job
//! sets of their own outside this grid.

use std::collections::HashSet;

use rop_trace::{ALL_BENCHMARKS, WORKLOAD_MIXES};

use crate::experiments::{
    ablate_drain_with, ablate_table_with, ablate_throttle_with, ablate_window_with,
    run_llc_sweep_with, run_mechanisms_with, run_singlecore_with, run_tail_latency_with,
    AblationResult, MECHANISM_BENCHMARKS,
};
use crate::runner::{RunSpec, SweepExecutor, SweepJob};

/// Experiment names `run`/`resume`/`status` accept.
pub const EXPERIMENTS: [&str; 10] = [
    "single",
    "multi",
    "llc",
    "mechanisms",
    "tail-latency",
    "ablate-window",
    "ablate-throttle",
    "ablate-drain",
    "ablate-table",
    "all",
];

/// Hex job id from a job's content hash.
pub fn job_id(job: &SweepJob) -> String {
    format!("{:016x}", job.fingerprint())
}

/// An executor that *enumerates* jobs without running anything: every
/// job returns placeholder metrics and is recorded in `planned`. Used
/// by `rop-sweep status` and the pre-run lint to know a sweep's full
/// job set.
#[derive(Default)]
pub struct PlanExecutor {
    planned: std::cell::RefCell<Vec<SweepJob>>,
}

impl PlanExecutor {
    /// A fresh planner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Every job enumerated so far, in execution order.
    pub fn into_jobs(self) -> Vec<SweepJob> {
        self.planned.into_inner()
    }
}

impl SweepExecutor for PlanExecutor {
    fn execute(&self, jobs: Vec<SweepJob>) -> Vec<crate::metrics::RunMetrics> {
        let metrics = jobs.iter().map(SweepJob::placeholder_metrics).collect();
        self.planned.borrow_mut().extend(jobs);
        metrics
    }
}

/// Runs the named experiment through `exec`; when `render` is true the
/// assembled figures are returned (a dry [`PlanExecutor`] pass sets it
/// false — placeholder metrics enumerate jobs fine but cannot be
/// summarised).
fn drive_experiment(
    name: &str,
    spec: RunSpec,
    exec: &dyn SweepExecutor,
    render: bool,
) -> Result<Vec<String>, String> {
    let mut out = Vec::new();
    let single = |out: &mut Vec<String>| {
        let res = run_singlecore_with(&ALL_BENCHMARKS, spec, exec);
        if render {
            out.push(res.render_fig7());
            out.push(res.render_fig8());
            out.push(res.render_fig9());
        }
    };
    let multi = |out: &mut Vec<String>| {
        let res = run_llc_sweep_with(&[4], &WORKLOAD_MIXES, spec, exec);
        if render {
            out.push(res.per_size[0].render_fig10());
            out.push(res.per_size[0].render_fig11());
        }
    };
    let llc = |out: &mut Vec<String>| {
        let res = run_llc_sweep_with(
            &crate::experiments::sensitivity::LLC_SIZES_MIB,
            &WORKLOAD_MIXES,
            spec,
            exec,
        );
        if render {
            out.push(res.render_fig12());
            out.push(res.render_fig13());
            out.push(res.render_fig14());
        }
    };
    let mechanisms = |out: &mut Vec<String>| {
        let res = run_mechanisms_with(&MECHANISM_BENCHMARKS, spec, exec);
        if render {
            out.push(res.render_ipc());
            out.push(res.render_blocked());
            out.push(res.render_energy());
            out.push(res.render_refresh_counts());
        }
    };
    let tail = |out: &mut Vec<String>| {
        let res = run_tail_latency_with(spec, exec);
        if render {
            out.push(res.render_tail());
            out.push(res.render_refresh_tail());
            out.push(res.render_saturation());
        }
    };
    let ablation = |out: &mut Vec<String>, res: AblationResult| {
        if render {
            out.push(res.render());
        }
    };
    match name {
        "single" => single(&mut out),
        "multi" => multi(&mut out),
        "llc" => llc(&mut out),
        "mechanisms" => mechanisms(&mut out),
        "tail-latency" => tail(&mut out),
        "ablate-window" => ablation(&mut out, ablate_window_with(spec, exec)),
        "ablate-throttle" => ablation(&mut out, ablate_throttle_with(spec, exec)),
        "ablate-drain" => ablation(&mut out, ablate_drain_with(spec, exec)),
        "ablate-table" => ablation(&mut out, ablate_table_with(spec, exec)),
        "all" => {
            single(&mut out);
            multi(&mut out);
            llc(&mut out);
            mechanisms(&mut out);
            tail(&mut out);
            ablation(&mut out, ablate_window_with(spec, exec));
            ablation(&mut out, ablate_throttle_with(spec, exec));
            ablation(&mut out, ablate_drain_with(spec, exec));
            ablation(&mut out, ablate_table_with(spec, exec));
        }
        other => {
            return Err(format!(
                "unknown experiment '{other}' (expected one of: {})",
                EXPERIMENTS.join(" ")
            ))
        }
    }
    Ok(out)
}

/// Runs the named experiment through `exec` and returns its rendered
/// figures.
pub fn render_experiment(
    name: &str,
    spec: RunSpec,
    exec: &dyn SweepExecutor,
) -> Result<Vec<String>, String> {
    drive_experiment(name, spec, exec, true)
}

/// The full, id-deduplicated job set an experiment would run, via a dry
/// [`PlanExecutor`] pass — nothing is simulated.
pub fn plan_jobs(name: &str, spec: RunSpec) -> Result<Vec<SweepJob>, String> {
    let plan = PlanExecutor::new();
    drive_experiment(name, spec, &plan, false)?;
    let mut seen = HashSet::new();
    Ok(plan
        .into_jobs()
        .into_iter()
        .filter(|j| seen.insert(job_id(j)))
        .collect())
}

/// The job ids (with labels) an experiment would run.
pub fn plan_experiment(name: &str, spec: RunSpec) -> Result<Vec<(String, String)>, String> {
    Ok(plan_jobs(name, spec)?
        .into_iter()
        .map(|j| (job_id(&j), j.label))
        .collect())
}
