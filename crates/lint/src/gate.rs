//! The fail-fast pre-run gate: the config pass and the mechanism model
//! check over one experiment's planned jobs, before any job runs.

/// The pre-run gate `repro` and `rop-sweep run` share: plans the named
/// experiment's jobs, checks every job config against the static rules,
/// then model-checks every refresh mechanism those jobs build. Each
/// passing step prints its `# lint:` line to stderr; `Err` says which
/// step refused the run and why.
pub fn pre_run_gate(experiment: &str, spec: rop_sim_system::runner::RunSpec) -> Result<(), String> {
    let jobs = rop_sim_system::experiments::plan_jobs(experiment, spec)?;
    let report = crate::config::lint_jobs(&jobs);
    if !report.clean() {
        return Err(format!(
            "static config lint rejected the run (rerun with --no-lint to bypass):\n{}",
            report.render()
        ));
    }
    eprintln!(
        "# lint: {} job config(s) statically verified",
        report.points
    );
    let reports = crate::mech::gate_jobs(&jobs).map_err(|failures| {
        format!(
            "mechanism model check rejected the run (rerun with --no-lint to bypass):\n{failures}"
        )
    })?;
    let labels: Vec<&str> = reports.iter().map(|r| r.kind.label()).collect();
    eprintln!(
        "# lint: refresh mechanism(s) {} model-checked",
        labels.join(" ")
    );
    Ok(())
}
