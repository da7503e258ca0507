//! `repro` — regenerates every table and figure of the ROP paper's
//! evaluation on the Rust reproduction stack.
//!
//! Usage:
//!
//! ```text
//! repro <experiment> [--instr N] [--seed S] [--store PATH] [--audit] [--no-lint]
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
//!   policies fgr per-bank           extension studies (Elastic, FGR, REFpb)
//!   all                             everything above
//! ```
//!
//! `--instr` (or env `ROP_INSTR`) sets the per-core instruction quota;
//! the default (20 M) reproduces the full shapes in minutes. Every
//! experiment is a job set run through one executor, which runs each
//! distinct job once per invocation: `all` simulates the runs its
//! figures share (the 4 MiB point of Fig 10/11 and Fig 12–14, the
//! analysis runs inside the single-core grid) only once.
//!
//! The sweep names (`single multi llc mechanisms tail-latency`, the
//! ablations, `all`) render through `experiments::driver`, the same
//! mapping `rop-sweep` uses; a `figN` command prints one figure of its
//! sweep. The §III analysis and the extension studies (`policies fgr
//! per-bank`) are `repro`-only job sets outside the sweep grid.
//!
//! `--store PATH` routes every experiment's jobs through the persistent
//! `rop-harness` store: finished jobs are appended to PATH as JSONL and
//! an interrupted invocation resumes from it, skipping every job
//! already on disk. Jobs of different experiments with the same
//! configuration share one record.
//!
//! `--audit` attaches the trace-backed invariant auditor to every job:
//! runs that break a DRAM timing rule, the refresh-postpone bound, SRAM
//! consistency, or profiler A/B replication abort with a labeled
//! violation report (see DESIGN.md §Auditor).

use rop_harness::{PoolConfig, Store, StoreExecutor};
use rop_sim_system::experiments::{
    render_experiment, run_analysis, run_fgr_sweep, run_per_bank_study, run_policy_comparison,
    EXPERIMENTS,
};
use rop_sim_system::runner::{
    AuditingExecutor, LocalExecutor, MemoExecutor, RunSpec, SweepExecutor,
};
use rop_stats::TableBuilder;
use rop_trace::{ALL_BENCHMARKS, WORKLOAD_MIXES};

/// Single-figure commands: (command, the group that renders it, its
/// index in that group's figure list).
const FIGURES: [(&str, &str, usize); 15] = [
    ("fig1", "analysis", 0),
    ("fig2", "analysis", 1),
    ("fig3", "analysis", 2),
    ("fig4", "analysis", 3),
    ("table1", "analysis", 4),
    ("fig7", "single", 0),
    ("fig8", "single", 1),
    ("fig9", "single", 2),
    ("fig10", "multi", 0),
    ("fig11", "multi", 1),
    ("fig12", "llc", 0),
    ("fig13", "llc", 1),
    ("fig14", "llc", 2),
    ("table2", "table2", 0),
    ("table3", "table3", 0),
];

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

/// The groups `repro all` prints, in order: the configuration tables,
/// the analysis, every sweep (the driver's `all`), then the extension
/// studies.
const ALL_GROUPS: [&str; 7] = [
    "table2", "table3", "analysis", "all", "policies", "fgr", "per-bank",
];

/// The figures of a command group, in print order, or `None` for an
/// unknown group. Sweep names (`all` among them) render through the
/// experiment driver.
fn render_group(group: &str, spec: RunSpec, exec: &dyn SweepExecutor) -> Option<Vec<String>> {
    let figures = match group {
        "table2" => vec![render_table2()],
        "table3" => vec![render_table3()],
        "analysis" => {
            let res = run_analysis(&ALL_BENCHMARKS, spec, exec);
            vec![
                res.render_fig1(),
                res.render_fig2(),
                res.render_fig3(),
                res.render_fig4(),
                res.render_table1(),
            ]
        }
        "policies" => vec![run_policy_comparison(spec, exec).render()],
        "fgr" => vec![run_fgr_sweep(spec, exec).render()],
        "per-bank" => vec![run_per_bank_study(spec, exec).render()],
        g if EXPERIMENTS.contains(&g) => {
            render_experiment(g, spec, exec).expect("a listed experiment")
        }
        _ => return None,
    };
    Some(figures)
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
    let (group, pick) = match FIGURES.iter().find(|(fig, _, _)| fig == cmd) {
        Some(&(_, group, i)) => (group, Some(i)),
        None => (cmd.as_str(), None),
    };
    // Fail-fast static check of the sweep grid's jobs (the repro-only
    // studies are vetted by `SweepJob::run`'s own `validate()`).
    if !no_lint && EXPERIMENTS.contains(&group) {
        if let Err(e) = rop_lint::pre_run_gate(group, spec) {
            eprintln!("# lint: {e}");
            std::process::exit(1);
        }
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
    let exec = MemoExecutor::new(if audit { &auditing_exec } else { base_exec });
    let t0 = std::time::Instant::now();

    let groups = if group == "all" {
        &ALL_GROUPS[..]
    } else {
        std::slice::from_ref(&group)
    };
    for g in groups {
        let Some(figures) = render_group(g, spec, &exec) else {
            usage()
        };
        match pick {
            Some(i) => println!("{}", figures[i]),
            None => figures.iter().for_each(|f| println!("{f}")),
        }
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
