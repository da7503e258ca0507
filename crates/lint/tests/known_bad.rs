//! The known-bad tables: one config per config rule and one source
//! snippet per source rule, each violating exactly that rule, plus
//! acceptance of every shipped experiment config and the
//! seeded-mutation checks on the FSM model.

use rop_dram::DramConfig;
use rop_lint::config::{lint_config, lint_jobs, RULES};
use rop_lint::fsm::{build_rop_fsm, check_fsm, EdgeKind};
use rop_lint::srclint::{scan_source, SRC_RULES};
use rop_memctrl::{MechanismKind, MemCtrlConfig};
use rop_sim_system::experiments::driver::{plan_jobs, EXPERIMENTS};
use rop_sim_system::experiments::tail_latency::tail_config;
use rop_sim_system::runner::{RunSpec, SweepJob};
use rop_sim_system::SystemKind;
use rop_trace::ArrivalProcess;

/// A legal ROP configuration to mutate from.
fn good() -> MemCtrlConfig {
    MemCtrlConfig::rop(DramConfig::baseline(1), 64, 1)
}

/// One entry per rule: (rule id, a config violating exactly that rule).
fn known_bad_table() -> Vec<(&'static str, MemCtrlConfig)> {
    let mut table: Vec<(&'static str, MemCtrlConfig)> = Vec::new();
    let mut push = |rule: &'static str, mutate: &dyn Fn(&mut MemCtrlConfig)| {
        let mut cfg = good();
        mutate(&mut cfg);
        table.push((rule, cfg));
    };

    // tRAS(10) < tRCD(11) + burst(4).
    push("tim-ras", &|c| c.dram.timing.t_ras = 10);
    // tRC(30) < tRAS(28) + tRP(11).
    push("tim-rc", &|c| c.dram.timing.t_rc = 30);
    // tFAW(4) < tRRD(5).
    push("tim-rrd-faw", &|c| c.dram.timing.t_faw = 4);
    // tRFC2(300) > tRFC1(280).
    push("tim-fgr-mono", &|c| c.dram.timing.t_rfc2 = 300);
    // tRFCpb(300) >= tRFC1(280).
    push("tim-refpb", &|c| c.dram.timing.t_rfc_pb = 300);
    // tRFCsa(150) >= tRFCpb(112) while staying under tRFC1.
    push("tim-refsa", &|c| c.dram.timing.t_rfc_sa = 150);
    // tRFC1(7000) > tREFI(6240) while everything else stays legal.
    push("tim-duty", &|c| c.dram.timing.t_rfc1 = 7000);
    // Postpone budget beyond JEDEC's 8 x tREFI.
    push("mc-postpone", &|c| {
        c.max_refresh_postpone = 8 * c.dram.timing.t_refi() + 1;
    });
    // A zero-capacity read queue.
    push("mc-queues", &|c| c.read_queue_capacity = 0);
    // Drain watermarks inverted: low(50) >= high(48).
    push("mc-drain", &|c| c.write_drain_low = 50);
    // Grace of a full tREFI would let a prefetch hold off refresh
    // indefinitely.
    push("mc-grace", &|c| {
        c.prefetch_grace = c.dram.timing.t_refi();
    });
    // A non-power-of-two row count breaks shift/mask address decode.
    push("geo-pow2", &|c| c.dram.geometry.rows_per_bank = 1000);
    // Three subarrays per bank break the contiguous-block row decode.
    push("geo-subarrays", &|c| {
        c.dram.geometry.subarrays_per_bank = 3;
    });
    // A RAIDR bin period off the tREFI lattice never lands on a slot.
    push("mc-raidr-bins", &|c| {
        c.mechanism = MechanismKind::Raidr {
            seed: 1,
            bin_period: c.dram.timing.t_refi() + 1,
        };
    });
    // Observational window stretched to a full tREFI.
    push("rop-window", &|c| {
        if let Some(r) = c.rop.as_mut() {
            r.observational_window = c.dram.timing.t_refi();
        }
    });
    // A zero refresh period.
    push("rop-period", &|c| {
        if let Some(r) = c.rop.as_mut() {
            r.refresh_period = 0;
        }
    });
    // A probability threshold above 1.
    push("rop-threshold", &|c| {
        if let Some(r) = c.rop.as_mut() {
            r.hit_rate_threshold = 1.5;
        }
    });
    // 4 SRAM lines cannot cover 8 banks.
    push("rop-capacity", &|c| {
        if let Some(r) = c.rop.as_mut() {
            r.buffer_capacity = 4;
        }
    });
    // Training over zero refreshes never produces λ/β.
    push("rop-training", &|c| {
        if let Some(r) = c.rop.as_mut() {
            r.training_refreshes = 0;
        }
    });
    // ROP table sized for 16 banks on an 8-bank DRAM.
    push("rop-banks-match", &|c| {
        if let Some(r) = c.rop.as_mut() {
            r.banks_per_rank = 16;
        }
    });

    table
}

/// One entry per job-level rule: (rule id, a sweep job violating
/// exactly that rule). The `mc-openloop-*` rules read the open-loop
/// spec on the *system* config, which `lint_config` never sees — they
/// are exercised through `lint_jobs` instead.
fn known_bad_job_table() -> Vec<(&'static str, SweepJob)> {
    let base = || {
        // A legal open-loop cell from the shipped tail-latency grid.
        tail_config(
            SystemKind::Baseline,
            ArrivalProcess::Poisson,
            60.0,
            100_000,
            1,
        )
    };
    let job = |rule: &'static str, mutate: &dyn Fn(&mut rop_sim_system::OpenLoopSpec)| {
        let mut cfg = base();
        mutate(cfg.open_loop.as_mut().expect("open-loop cell"));
        (
            rule,
            SweepJob::custom(
                format!("known-bad/{rule}"),
                cfg,
                RunSpec {
                    instructions: 1000,
                    max_cycles: 1000,
                    seed: 1,
                },
            ),
        )
    };
    vec![
        // 400 rpkc x 4-cycle bursts = 1600 > the 1000-cycle bus budget.
        job("mc-openloop-load", &|ol| ol.offered_rpkc = 400.0),
        // 8 tenants cannot each own one of 4 ranks.
        job("mc-openloop-tenants", &|ol| ol.tenants = 8),
        // A window shorter than two tREFI (12480) sees no refresh tail.
        job("mc-openloop-duration", &|ol| ol.duration = 10_000),
        // A write fraction above 1 is not a probability.
        job("mc-openloop-write", &|ol| ol.write_fraction = 1.5),
    ]
}

#[test]
fn every_rule_has_a_known_bad_entry() {
    let table = known_bad_table();
    let job_table = known_bad_job_table();
    for rule in RULES {
        // Config-level and job-level tables jointly cover the catalog.
        assert!(
            table.iter().any(|(id, _)| *id == rule.id)
                || job_table.iter().any(|(id, _)| *id == rule.id),
            "rule {} has no known-bad entry",
            rule.id
        );
    }
    assert_eq!(table.len() + job_table.len(), RULES.len());
}

#[test]
fn each_known_bad_job_violates_exactly_its_rule() {
    for (rule, job) in known_bad_job_table() {
        let report = lint_jobs(std::slice::from_ref(&job));
        assert_eq!(
            report.violations.len(),
            1,
            "job for {rule} produced {:?}",
            report.violations
        );
        let (label, vs) = &report.violations[0];
        assert_eq!(label, &job.label);
        let rules: Vec<&str> = vs.iter().map(|v| v.rule).collect();
        assert_eq!(rules, vec![rule], "job for {rule} violated {rules:?}");
    }
}

#[test]
fn the_job_mutation_base_is_clean() {
    let cfg = tail_config(
        SystemKind::Baseline,
        ArrivalProcess::Poisson,
        60.0,
        100_000,
        1,
    );
    let job = SweepJob::custom(
        "known-bad/base",
        cfg,
        RunSpec {
            instructions: 1000,
            max_cycles: 1000,
            seed: 1,
        },
    );
    assert!(lint_jobs(std::slice::from_ref(&job)).clean());
}

#[test]
fn each_known_bad_entry_violates_exactly_its_rule() {
    for (rule, cfg) in known_bad_table() {
        let violations = lint_config(&cfg);
        assert_eq!(
            violations.len(),
            1,
            "config for {rule} violated {:?}",
            violations.iter().map(|v| v.rule).collect::<Vec<_>>()
        );
        assert_eq!(violations[0].rule, rule);
    }
}

#[test]
fn the_mutation_base_is_clean() {
    assert!(lint_config(&good()).is_empty());
}

#[test]
fn every_shipped_experiment_config_is_accepted() {
    let spec = RunSpec {
        instructions: 1000,
        max_cycles: 1000,
        seed: 1,
    };
    for exp in EXPERIMENTS {
        let jobs = plan_jobs(exp, spec).expect("plan");
        assert!(!jobs.is_empty(), "{exp} plans no jobs");
        let report = lint_jobs(&jobs);
        assert!(
            report.clean(),
            "shipped experiment {exp} rejected:\n{}",
            report.render()
        );
    }
}

#[test]
fn a_sweep_with_one_illegal_point_is_refused_with_the_job_named() {
    let spec = RunSpec {
        instructions: 1000,
        max_cycles: 1000,
        seed: 1,
    };
    let mut jobs = plan_jobs("ablate-window", spec).expect("plan");
    let mut bad = good();
    bad.rop
        .as_mut()
        .expect("rop preset has an engine config")
        .observational_window = bad.dram.timing.t_refi();
    let poisoned = jobs.len() - 1;
    jobs[poisoned].config.ctrl_override = Some(bad);
    let report = lint_jobs(&jobs);
    assert!(!report.clean());
    assert_eq!(report.violations.len(), 1);
    assert_eq!(report.violations[0].0, jobs[poisoned].label);
    assert_eq!(report.violations[0].1[0].rule, "rop-window");
}

/// One entry per source rule: (rule id, crate the snippet is scanned
/// as, whether it is a crate root, a snippet violating exactly that
/// rule).
fn known_bad_src_table() -> Vec<(&'static str, &'static str, bool, &'static str)> {
    vec![
        (
            "no-unwrap",
            "harness",
            false,
            "fn f(x: Option<u8>) -> u8 { x.unwrap() }\n",
        ),
        ("no-panic", "harness", false, "fn f() { panic!(\"boom\") }\n"),
        (
            "wallclock",
            "sim",
            false,
            "fn f() -> Instant { Instant::now() }\n",
        ),
        (
            "float-eq",
            "stats",
            false,
            "fn f(x: f64) -> bool { x == 0.5 }\n",
        ),
        (
            "hash-order",
            "harness",
            false,
            "use std::collections::HashMap;\n\
             fn f(m: HashMap<u32, u32>) -> u64 { let mut s = 0; for (_, v) in m.iter() { s += *v as u64; } s }\n",
        ),
        (
            "io-ignored",
            "harness",
            false,
            "fn f(mut w: std::fs::File) { let _ = w.write_all(b\"evidence\"); }\n",
        ),
        ("forbid-unsafe", "harness", true, "pub fn f() {}\n"),
        (
            "hot-alloc",
            "memctrl",
            false,
            "// rop-lint: hot\n\
             fn f(n: usize) -> Vec<u64> { let mut v = Vec::new(); for i in 0..n { v.push(i as u64); } v }\n",
        ),
        (
            "cycle-cast",
            "memctrl",
            false,
            "fn f(now: Cycle) -> u32 { now as u32 }\n",
        ),
        (
            "lease-clock",
            "harness",
            false,
            "fn lease_is_live(last_beat: std::time::Instant) -> bool {\n    \
             last_beat.elapsed() < std::time::Duration::from_secs(30)\n}\n",
        ),
    ]
}

#[test]
fn every_src_rule_has_a_known_bad_entry() {
    let table = known_bad_src_table();
    for rule in SRC_RULES {
        assert!(
            table.iter().any(|(id, _, _, _)| id == rule),
            "source rule {rule} has no known-bad entry"
        );
    }
    assert_eq!(table.len(), SRC_RULES.len());
}

#[test]
fn each_known_bad_snippet_violates_exactly_its_rule() {
    for (rule, krate, is_root, src) in known_bad_src_table() {
        let findings = scan_source("snippet.rs", src, krate, is_root);
        let rules: Vec<&str> = findings.iter().map(|f| f.rule).collect();
        assert_eq!(rules, vec![rule], "snippet for {rule} found {rules:?}");
    }
}

#[test]
fn fsm_mutation_dropping_the_fallback_edge_is_caught() {
    let cfg = rop_core::RopConfig::paper_default();
    let mut fsm = build_rop_fsm(&cfg);
    assert!(check_fsm(&fsm).ok(), "unmutated machine must be clean");
    fsm.remove_edges(EdgeKind::Fallback);
    let report = check_fsm(&fsm);
    assert!(!report.ok());
    assert!(
        !report.missing_fallback.is_empty(),
        "fallback removal must be reported as the missing mandated edge"
    );
    assert!(
        !report.dead.is_empty(),
        "degraded observing states must become dead without the fallback"
    );
}

#[test]
fn fsm_mutation_dropping_train_done_is_caught() {
    let cfg = rop_core::RopConfig::paper_default();
    let mut fsm = build_rop_fsm(&cfg);
    fsm.remove_edges(EdgeKind::TrainDone);
    let report = check_fsm(&fsm);
    assert!(!report.ok());
    // Training can never complete: all of Observing/Prefetching is
    // unreachable.
    assert!(report.unmet_mandates.iter().any(|m| m == "prefetching"));
    assert!(!report.livelock_no_prefetch.is_empty());
}
