//! One module per table/figure of the paper's evaluation, plus the
//! ablation and extension studies called out in DESIGN.md.
//!
//! Every experiment is a job set: its one entry point enumerates
//! [`crate::runner::SweepJob`]s, hands them to the caller's
//! [`crate::runner::SweepExecutor`] and assembles a result from the
//! metrics that come back; a `render…()` on the result produces the
//! ASCII table the `repro` binary prints. Experiments sharing
//! simulations (Figures 1–4 and Table I come from the single-core
//! grid's baseline and no-refresh runs) share job identities, so a
//! store or a [`crate::runner::MemoExecutor`] runs them once.

pub mod ablations;
pub mod analysis_figs;
pub mod driver;
pub mod extensions;
pub mod mechanisms;
pub mod multicore;
pub mod sensitivity;
pub mod singlecore;
pub mod tail_latency;

pub use ablations::{
    ablate_drain_with, ablate_table_with, ablate_throttle_with, ablate_window_with, AblationResult,
};
pub use analysis_figs::{run_analysis, AnalysisResult};
pub use driver::{
    job_id, plan_experiment, plan_jobs, render_experiment, PlanExecutor, EXPERIMENTS,
};
pub use extensions::{run_fgr_sweep, run_per_bank_study, run_policy_comparison, ExtensionStudy};
pub use mechanisms::{run_mechanisms_with, MechanismsResult, MECHANISM_BENCHMARKS};
pub use multicore::{run_multicore_on, AloneIpcs, MulticoreResult};
pub use sensitivity::{run_llc_sweep_with, LlcSweepResult};
pub use singlecore::{run_singlecore_with, SinglecoreResult};
pub use tail_latency::{
    run_tail_latency_with, tail_latency_jobs, TailLatencyResult, OFFERED_LOADS_RPKC,
};
