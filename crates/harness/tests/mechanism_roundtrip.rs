//! `MechanismKind` round-trip acceptance: the refresh mechanism chosen
//! at config time must arrive unchanged in the metrics a run reports,
//! in the JSONL store, and in the `rop-sweep export` CSV — the zoo
//! figures are keyed on that column. Runs record the mechanism's
//! metrics label (Elastic and REFpb record as `allbank`, the command
//! family they issue); the verify-mech gate keys on the kind's label.

use rop_harness::cli::export_csv;
use rop_harness::{job_id, Record, Status, Store};
use rop_memctrl::MechanismKind;
use rop_sim_system::experiments::driver::plan_jobs;
use rop_sim_system::runner::{LocalExecutor, RunSpec, SweepExecutor, SweepJob};
use rop_sim_system::{SystemConfig, SystemKind};
use rop_trace::Benchmark;

fn tiny_spec() -> RunSpec {
    RunSpec {
        instructions: 2_000,
        max_cycles: 2_000_000,
        seed: 7,
    }
}

/// The mechanism a job will actually build: the controller override if
/// the cell carries one, the kind-derived controller otherwise.
fn resolved_mechanism(job: &SweepJob) -> MechanismKind {
    job.config.ctrl_config().mechanism
}

#[test]
fn the_mechanisms_experiment_plans_the_full_zoo() {
    let jobs = plan_jobs("mechanisms", tiny_spec()).expect("plan");
    let mut labels: Vec<&str> = jobs.iter().map(|j| resolved_mechanism(j).label()).collect();
    labels.sort();
    labels.dedup();
    assert_eq!(labels, ["allbank", "darp", "raidr", "sarp"]);
    // Every job's display label names its system, so a grid cell can
    // be traced back from the store without re-deriving configs.
    for j in &jobs {
        assert!(
            j.label.contains(&j.config.kind.label()),
            "job label {} does not name its system",
            j.label
        );
    }
}

#[test]
fn planned_placeholders_name_the_mechanism_the_job_builds() {
    // Planners render unrun jobs from their placeholder metrics; a
    // mechanism set through the controller override must label the
    // placeholder, not the kind's default mechanism. The mechanisms
    // planner's overrides keep each kind's own mechanism, so the last
    // job is a baseline kind whose override runs DARP.
    let mut jobs = plan_jobs("mechanisms", tiny_spec()).expect("plan");
    let mut cfg = SystemConfig::single_core(Benchmark::Libquantum, SystemKind::Baseline, 7);
    cfg.ctrl_override = Some(SystemKind::Darp.memctrl_config(cfg.ranks, cfg.seed));
    jobs.push(SweepJob::custom("override", cfg, tiny_spec()));
    for j in &jobs {
        assert_eq!(
            j.placeholder_metrics().mechanism,
            resolved_mechanism(j).metrics_label(),
            "placeholder for {} names the wrong mechanism",
            j.label
        );
    }
    assert_eq!(jobs.last().unwrap().placeholder_metrics().mechanism, "darp");
}

#[test]
fn mechanism_labels_survive_run_store_and_export() {
    let jobs = plan_jobs("mechanisms", tiny_spec()).expect("plan");
    // The first four cells are the stock shape on one benchmark, one
    // per roster mechanism; Elastic and REFpb all-bank complete the
    // zoo.
    let zoo: Vec<SweepJob> = jobs
        .into_iter()
        .take(4)
        .chain(
            [SystemKind::ElasticRefresh, SystemKind::PerBankRefresh]
                .map(|k| SweepJob::single("zoo", Benchmark::Libquantum, k, tiny_spec())),
        )
        .collect();
    let mut kinds: Vec<&str> = zoo.iter().map(|j| resolved_mechanism(j).label()).collect();
    kinds.sort_unstable();
    assert_eq!(
        kinds,
        ["allbank", "allbank-pb", "darp", "elastic", "raidr", "sarp"]
    );
    let expected: Vec<&'static str> = zoo
        .iter()
        .map(|j| resolved_mechanism(j).metrics_label())
        .collect();

    // Config → run: the live controller reports the configured
    // mechanism in its metrics.
    let metrics = LocalExecutor.execute(zoo.clone());
    for ((j, m), want) in zoo.iter().zip(&metrics).zip(&expected) {
        assert_eq!(
            &m.mechanism, want,
            "job {} ran a different mechanism than configured",
            j.label
        );
    }

    // Run → store: the JSONL round-trip keeps the column intact.
    let mut path = std::env::temp_dir();
    path.push(format!("rop-mech-roundtrip-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let store = Store::open(&path);
    for (j, m) in zoo.iter().zip(&metrics) {
        store
            .append(&Record {
                job: job_id(j),
                label: j.label.clone(),
                status: Status::Ok,
                attempts: 1,
                panic_msg: None,
                ts: 0,
                metrics: Some(m.clone()),
                epoch: 0,
                worker: String::new(),
            })
            .expect("append");
    }
    let contents = store.load().expect("load");
    assert_eq!(contents.records.len(), zoo.len());
    assert_eq!(contents.corrupt_lines, 0);
    for (j, want) in zoo.iter().zip(&expected) {
        let id = job_id(j);
        let rec = contents
            .records
            .iter()
            .find(|r| r.job == id)
            .expect("record for job");
        let m = rec.metrics.as_ref().expect("ok record has metrics");
        assert_eq!(&m.mechanism, want, "store lost the mechanism for {id}");
    }

    // Store → export: the CSV mechanism column matches per job row.
    let csv = export_csv(&contents);
    let header = csv.lines().next().expect("header");
    let mech_col = header
        .split(',')
        .position(|c| c == "mechanism")
        .expect("mechanism column in export header");
    for (j, want) in zoo.iter().zip(&expected) {
        let id = job_id(j);
        let row = csv
            .lines()
            .find(|l| l.starts_with(&id))
            .unwrap_or_else(|| panic!("no export row for {id}"));
        let got = row.split(',').nth(mech_col).expect("mechanism cell");
        assert_eq!(&got, want, "export lost the mechanism for {id}");
    }

    let _ = std::fs::remove_file(&path);
}
