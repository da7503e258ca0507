//! The pre-run gates every workload's set-up pays: `lint_jobs` (the
//! config rule catalog) and `mech::gate_jobs` (the verify-mech model
//! check of each refresh mechanism the jobs build).

use rop_sim_system::runner::SweepJob;

use crate::layers::LayerCounts;
use crate::tracer::{span, Layer};

/// Runs both gates; an error names the failing gate.
pub fn lint_and_gate(jobs: &[SweepJob]) -> Result<usize, String> {
    let report = rop_lint::config::lint_jobs(jobs);
    if !report.clean() {
        return Err(format!("lint_jobs rejected the jobs:\n{}", report.render()));
    }
    let mechs = rop_lint::mech::gate_jobs(jobs).map_err(|e| format!("verify-mech gate: {e}"))?;
    Ok(mechs.len())
}

/// [`lint_and_gate`] with each gate in its own span.
pub fn traced_lint_and_gate(jobs: &[SweepJob], counts: &mut LayerCounts) -> Result<(), String> {
    let report = span(Layer::LintConfig, || rop_lint::config::lint_jobs(jobs));
    if !report.clean() {
        return Err(format!("lint_jobs rejected the jobs:\n{}", report.render()));
    }
    let mechs = span(Layer::LintMech, || rop_lint::mech::gate_jobs(jobs))
        .map_err(|e| format!("verify-mech gate: {e}"))?;
    counts.lint_mech_count += mechs.len() as u64;
    Ok(())
}
