//! `repro` — regenerates every table and figure of the ROP paper's
//! evaluation on the Rust reproduction stack.
//!
//! Usage:
//!
//! ```text
//! repro <experiment> [--instr N] [--seed S]
//!
//! experiments:
//!   fig1 fig2 fig3 fig4 table1      §III analysis (baseline vs no-refresh)
//!   fig7 fig8 fig9                  single-core ROP comparison
//!   fig10 fig11                     4-core Baseline / Baseline-RP / ROP
//!   fig12 fig13 fig14               LLC-size sensitivity sweep
//!   table2 table3                   configuration tables
//!   ablate-window ablate-throttle ablate-drain ablate-table
//!   analysis                        fig1+fig2+fig3+fig4+table1 (one sweep)
//!   single                          fig7+fig8+fig9 (one sweep)
//!   multi                           fig10+fig11 (one sweep)
//!   llc                             fig12+fig13+fig14 (one sweep)
//!   mechanisms                      figM1..M4 refresh-mechanism head-to-head
//!   tail-latency                    figT1..T3 open-loop tail latency vs load
//!   all                             everything above
//! ```
//!
//! `--instr` (or env `ROP_INSTR`) sets the per-core instruction quota;
//! the default (20 M) reproduces the full shapes in minutes. Experiments
//! sharing simulations are grouped so `all` runs each sweep once.
//!
//! `--store PATH` routes the executor-backed experiments (single/multi/
//! llc/ablations) through the persistent `rop-harness` store: finished
//! jobs are appended to PATH as JSONL and an interrupted invocation
//! resumes from it, skipping every job already on disk. The analysis
//! and extension studies always run fresh in-process.
//!
//! `--audit` attaches the trace-backed invariant auditor to every
//! executor-backed job: runs that break a DRAM timing rule, the
//! refresh-postpone bound, SRAM consistency, or profiler A/B
//! replication abort with a labeled violation report (see DESIGN.md
//! §Auditor).

use rop_harness::{PoolConfig, Store, StoreExecutor};
use rop_lint::config::lint_jobs;
use rop_sim_system::experiments::driver::plan_jobs;
use rop_sim_system::experiments::sensitivity::LLC_SIZES_MIB;
use rop_sim_system::experiments::{
    ablate_drain_with, ablate_table_with, ablate_throttle_with, ablate_window_with, run_analysis,
    run_fgr_sweep, run_llc_sweep_with, run_mechanisms_with, run_per_bank_study,
    run_policy_comparison, run_singlecore_with, run_tail_latency_with, MECHANISM_BENCHMARKS,
};
use rop_sim_system::runner::{AuditingExecutor, LocalExecutor, RunSpec, SweepExecutor};
use rop_stats::TableBuilder;
use rop_trace::{ALL_BENCHMARKS, WORKLOAD_MIXES};

fn usage() -> ! {
    eprintln!(
        "usage: repro <experiment> [--instr N] [--seed S] [--store PATH] [--audit] [--no-lint]\n\
         experiments: fig1 fig2 fig3 fig4 table1 fig7 fig8 fig9 fig10 fig11\n\
         fig12 fig13 fig14 table2 table3 analysis single multi llc mechanisms\n\
         tail-latency policies fgr per-bank\n\
         ablate-window ablate-throttle ablate-drain ablate-table all"
    );
    std::process::exit(2);
}

fn parse_spec(args: &[String]) -> (RunSpec, Option<String>, bool, bool) {
    let mut spec = RunSpec::from_env();
    let mut store = None;
    let mut audit = false;
    let mut no_lint = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--audit" => audit = true,
            "--no-lint" => no_lint = true,
            "--instr" => {
                i += 1;
                spec.instructions = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--seed" => {
                i += 1;
                spec.seed = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--store" => {
                i += 1;
                store = Some(args.get(i).cloned().unwrap_or_else(|| usage()));
            }
            _ => usage(),
        }
        i += 1;
    }
    (spec, store, audit, no_lint)
}

/// The `rop-sweep` experiment name covering a repro command's
/// executor-backed jobs, if any (analysis/extension studies always run
/// fresh in-process and are vetted by their own `validate()` calls).
fn lintable_experiment(cmd: &str) -> Option<&'static str> {
    match cmd {
        "fig7" | "fig8" | "fig9" | "single" => Some("single"),
        "fig10" | "fig11" | "multi" => Some("multi"),
        "fig12" | "fig13" | "fig14" | "llc" => Some("llc"),
        "mechanisms" => Some("mechanisms"),
        "tail-latency" => Some("tail-latency"),
        "ablate-window" => Some("ablate-window"),
        "ablate-throttle" => Some("ablate-throttle"),
        "ablate-drain" => Some("ablate-drain"),
        "ablate-table" => Some("ablate-table"),
        "all" => Some("all"),
        _ => None,
    }
}

/// Fail-fast static config check: no job is dispatched from a provably
/// illegal grid point. `--no-lint` bypasses.
fn lint_gate(cmd: &str, spec: RunSpec) {
    let Some(experiment) = lintable_experiment(cmd) else {
        return;
    };
    let jobs = match plan_jobs(experiment, spec) {
        Ok(jobs) => jobs,
        Err(e) => {
            eprintln!("# lint: cannot enumerate jobs: {e}");
            std::process::exit(2);
        }
    };
    let report = lint_jobs(&jobs);
    if report.clean() {
        eprintln!(
            "# lint: {} job config(s) statically verified",
            report.points
        );
    } else {
        eprintln!("# lint: static config check rejected this run (use --no-lint to bypass):");
        eprint!("{}", report.render());
        std::process::exit(1);
    }
    // Model-check every refresh mechanism this run will build.
    match rop_lint::mech::gate_jobs(&jobs) {
        Ok(reports) => {
            let labels: Vec<&str> = reports.iter().map(|r| r.kind.label()).collect();
            eprintln!(
                "# lint: refresh mechanism(s) {} model-checked",
                labels.join(" ")
            );
        }
        Err(failures) => {
            eprintln!("# lint: mechanism model check rejected this run (use --no-lint to bypass):");
            eprint!("{failures}");
            std::process::exit(1);
        }
    }
}

fn render_table2() -> String {
    let mut t = TableBuilder::new("Table II — benchmarks and workload mixes").header([
        "benchmark",
        "intensive",
        "in mixes",
    ]);
    for b in ALL_BENCHMARKS {
        let mixes: Vec<&str> = WORKLOAD_MIXES
            .iter()
            .filter(|m| m.programs.contains(&b))
            .map(|m| m.name)
            .collect();
        t.row([
            b.name().to_string(),
            if b.is_intensive() { "Y" } else { "" }.to_string(),
            mixes.join(" "),
        ]);
    }
    t.render()
}

fn render_table3() -> String {
    use rop_dram::{DramConfig, TimingParams};
    let timing = TimingParams::ddr4_1600_8gb();
    let cfg = DramConfig::baseline(1);
    let mut t = TableBuilder::new("Table III — system parameters").header(["parameter", "value"]);
    t.row(["Processor", "4-wide OoO, 192-entry ROB, 16 MSHRs, 3.2 GHz"]);
    t.row([
        "Memory controller",
        "64/64-entry read/write queues, FR-FCFS, batched writes",
    ]);
    t.row([
        "DRAM",
        "DDR4-1600, 1 channel, 1 rank (single-core) / 4 ranks (4-core)",
    ]);
    let refi = format!(
        "tREFI = {} cycles (7.8 us), tRFC = {} cycles (350 ns), 1x mode",
        timing.t_refi(),
        timing.t_rfc()
    );
    t.row(["Refresh", refi.as_str()]);
    t.row([
        "SRAM buffer",
        "16/32/64/128 lines, 3-cycle access, 0.0132-0.0152 nJ/access",
    ]);
    let cap = format!(
        "{} GiB/rank, 8 banks, 32768 rows, 8 KiB rows",
        cfg.geometry.capacity_bytes() / (1 << 30)
    );
    t.row(["Geometry", cap.as_str()]);
    t.render()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else { usage() };
    let (spec, store_path, audit, no_lint) = parse_spec(&args[1..]);
    eprintln!(
        "# repro {} — {} instructions/core, seed {}{}",
        cmd,
        spec.instructions,
        spec.seed,
        if audit { ", auditing on" } else { "" }
    );
    if !no_lint {
        lint_gate(cmd, spec);
    }
    let store_exec = store_path.map(|p| {
        eprintln!("# results store: {p} (resumable)");
        // Every finished job is fsync'd into the store as it completes,
        // so Ctrl-C loses at most the jobs in flight: re-running the
        // same command resumes from the last checkpoint.
        eprintln!("# checkpoint: safe to interrupt — rerun to resume from {p}");
        StoreExecutor::new(Store::open(p))
            .with_pool(PoolConfig::default())
            .with_progress()
    });
    let base_exec: &dyn SweepExecutor = match &store_exec {
        Some(e) => e,
        None => &LocalExecutor,
    };
    let auditing_exec = AuditingExecutor(base_exec);
    let exec: &dyn SweepExecutor = if audit { &auditing_exec } else { base_exec };
    let t0 = std::time::Instant::now();

    match cmd.as_str() {
        "fig1" | "fig2" | "fig3" | "fig4" | "table1" | "analysis" => {
            let res = run_analysis(spec);
            match cmd.as_str() {
                "fig1" => println!("{}", res.render_fig1()),
                "fig2" => println!("{}", res.render_fig2()),
                "fig3" => println!("{}", res.render_fig3()),
                "fig4" => println!("{}", res.render_fig4()),
                "table1" => println!("{}", res.render_table1()),
                _ => {
                    println!("{}", res.render_fig1());
                    println!("{}", res.render_fig2());
                    println!("{}", res.render_fig3());
                    println!("{}", res.render_fig4());
                    println!("{}", res.render_table1());
                }
            }
        }
        "fig7" | "fig8" | "fig9" | "single" => {
            let res = run_singlecore_with(&ALL_BENCHMARKS, spec, exec);
            match cmd.as_str() {
                "fig7" => println!("{}", res.render_fig7()),
                "fig8" => println!("{}", res.render_fig8()),
                "fig9" => println!("{}", res.render_fig9()),
                _ => {
                    println!("{}", res.render_fig7());
                    println!("{}", res.render_fig8());
                    println!("{}", res.render_fig9());
                }
            }
        }
        "fig10" | "fig11" | "multi" => {
            let mut sweep = run_llc_sweep_with(&[4], &WORKLOAD_MIXES, spec, exec);
            let res = sweep.per_size.remove(0);
            match cmd.as_str() {
                "fig10" => println!("{}", res.render_fig10()),
                "fig11" => println!("{}", res.render_fig11()),
                _ => {
                    println!("{}", res.render_fig10());
                    println!("{}", res.render_fig11());
                }
            }
        }
        "fig12" | "fig13" | "fig14" | "llc" => {
            let res = run_llc_sweep_with(&LLC_SIZES_MIB, &WORKLOAD_MIXES, spec, exec);
            match cmd.as_str() {
                "fig12" => println!("{}", res.render_fig12()),
                "fig13" => println!("{}", res.render_fig13()),
                "fig14" => println!("{}", res.render_fig14()),
                _ => {
                    println!("{}", res.render_fig12());
                    println!("{}", res.render_fig13());
                    println!("{}", res.render_fig14());
                }
            }
        }
        "mechanisms" => {
            let res = run_mechanisms_with(&MECHANISM_BENCHMARKS, spec, exec);
            println!("{}", res.render_ipc());
            println!("{}", res.render_blocked());
            println!("{}", res.render_energy());
            println!("{}", res.render_refresh_counts());
        }
        "tail-latency" => {
            let res = run_tail_latency_with(spec, exec);
            println!("{}", res.render_tail());
            println!("{}", res.render_refresh_tail());
            println!("{}", res.render_saturation());
        }
        "table2" => println!("{}", render_table2()),
        "table3" => println!("{}", render_table3()),
        "policies" => println!("{}", run_policy_comparison(spec).render()),
        "fgr" => println!("{}", run_fgr_sweep(spec).render()),
        "per-bank" => println!("{}", run_per_bank_study(spec).render()),
        "ablate-window" => println!("{}", ablate_window_with(spec, exec).render()),
        "ablate-throttle" => println!("{}", ablate_throttle_with(spec, exec).render()),
        "ablate-drain" => println!("{}", ablate_drain_with(spec, exec).render()),
        "ablate-table" => println!("{}", ablate_table_with(spec, exec).render()),
        "all" => {
            println!("{}", render_table2());
            println!("{}", render_table3());
            let res = run_analysis(spec);
            println!("{}", res.render_fig1());
            println!("{}", res.render_fig2());
            println!("{}", res.render_fig3());
            println!("{}", res.render_fig4());
            println!("{}", res.render_table1());
            let res = run_singlecore_with(&ALL_BENCHMARKS, spec, exec);
            println!("{}", res.render_fig7());
            println!("{}", res.render_fig8());
            println!("{}", res.render_fig9());
            let res = run_llc_sweep_with(&LLC_SIZES_MIB, &WORKLOAD_MIXES, spec, exec);
            // The 4 MiB point of the sweep *is* Figures 10/11.
            let four = res
                .per_size
                .iter()
                .find(|r| r.llc_mib == 4)
                .expect("sweep covers 4 MiB");
            println!("{}", four.render_fig10());
            println!("{}", four.render_fig11());
            println!("{}", res.render_fig12());
            println!("{}", res.render_fig13());
            println!("{}", res.render_fig14());
            let res = run_mechanisms_with(&MECHANISM_BENCHMARKS, spec, exec);
            println!("{}", res.render_ipc());
            println!("{}", res.render_blocked());
            println!("{}", res.render_energy());
            println!("{}", res.render_refresh_counts());
            let res = run_tail_latency_with(spec, exec);
            println!("{}", res.render_tail());
            println!("{}", res.render_refresh_tail());
            println!("{}", res.render_saturation());
            println!("{}", ablate_window_with(spec, exec).render());
            println!("{}", ablate_throttle_with(spec, exec).render());
            println!("{}", ablate_drain_with(spec, exec).render());
            println!("{}", ablate_table_with(spec, exec).render());
            println!("{}", run_policy_comparison(spec).render());
            println!("{}", run_fgr_sweep(spec).render());
            println!("{}", run_per_bank_study(spec).render());
        }
        _ => usage(),
    }
    if let Some(exec) = &store_exec {
        let stats = exec.stats();
        eprintln!(
            "# store: {} cached, {} executed, {} failed",
            stats.cache_hits, stats.executed, stats.failed
        );
        let failures = exec.failures();
        if !failures.is_empty() {
            for f in &failures {
                eprintln!(
                    "# FAILED {} ({} attempts): {}",
                    f.label, f.attempts, f.panic_msg
                );
            }
            std::process::exit(1);
        }
    }
    let secs = t0.elapsed().as_secs_f64();
    let totals = rop_sim_system::engine_stats::totals();
    if totals.cycles > 0 && secs > 0.0 {
        eprintln!(
            "# done in {secs:.1}s — simulated {} cycles / {} instructions / {} events \
             ({:.3e} cycles/sec, {:.3e} instr/sec, {:.3e} events/sec)",
            totals.cycles,
            totals.instructions,
            totals.events,
            totals.cycles as f64 / secs,
            totals.instructions as f64 / secs,
            totals.events as f64 / secs,
        );
    } else {
        eprintln!("# done in {secs:.1}s");
    }
}
