//! The `rop-sweep` command line: persistent, resumable sweeps over the
//! paper's experiments.
//!
//! ```text
//! rop-sweep run    <experiment> [flags]   execute missing jobs, render figures
//! rop-sweep resume <experiment> [flags]   alias for run (resume is implicit)
//! rop-sweep status <experiment> [flags]   plan vs store, nothing simulated
//! rop-sweep diff   <store-a> <store-b>    compare two stores
//! rop-sweep export [flags]                store as CSV on stdout
//!
//! experiments: single multi llc mechanisms tail-latency
//!              ablate-window ablate-throttle ablate-drain
//!              ablate-table all
//! flags: --store PATH (default sweep.jsonl) --instr N --seed S
//!        --max-cycles N --workers N --retries N --quiet --audit
//! ```
//!
//! `--retries N` is the *total* attempt budget per job: `--retries 1`
//! means one attempt and no retry. `--audit` attaches the trace-backed
//! invariant auditor to every executed job; a violation fails the job
//! with a labeled report, recorded in the store like any other failure.
//!
//! `--join PATH` turns the run into one worker of a shared sweep: any
//! number of `rop-sweep run <exp> --join PATH` processes (on one host
//! or many, over a shared filesystem) claim jobs through a lease log
//! beside the store, heartbeat them while running, steal leases from
//! dead peers, and commit behind an epoch fence — see the [`crate::lease`]
//! module. `--worker-id` names this worker (default `w<pid>`).

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use rop_lint::config::lint_jobs;
use rop_sim_system::runner::{AuditingExecutor, RunSpec, SweepExecutor};

use crate::executor::StoreExecutor;
use crate::lease::{LeaseConfig, LeaseKind, LeaseLog, LeaseManager};
use crate::pool::PoolConfig;
use crate::store::{unix_now, Status, Store, StoreContents};

// The experiment-name → job-set mapping lives in `rop-sim-system`
// (`experiments::driver`), shared with `repro` and `rop-lint`.
pub use rop_sim_system::experiments::driver::{
    plan_experiment, plan_jobs, render_experiment, EXPERIMENTS,
};

const USAGE: &str = "usage: rop-sweep <command> [experiment] [flags]\n\
  commands:    run resume status diff export\n\
  experiments: single multi llc mechanisms tail-latency\n\
               ablate-window ablate-throttle ablate-drain ablate-table all\n\
  flags:       --store PATH --instr N --seed S --max-cycles N\n\
               --workers N --retries N (total attempts) --quiet --audit\n\
               --no-lint (skip the static config pre-check)\n\
  distributed: --join PATH (claim jobs from a shared store via leases)\n\
               --worker-id S (default w<pid>) --lease-stale N\n\
               --lease-poll-ms N --lease-expire-secs N (status display)";

/// Parsed command-line options shared by all subcommands.
#[derive(Debug, Clone)]
pub struct Options {
    /// JSONL store path.
    pub store: PathBuf,
    /// Work quota / seed for every job.
    pub spec: RunSpec,
    /// Worker threads (None = machine default).
    pub workers: Option<usize>,
    /// Total attempts per job (1 = no retry).
    pub retries: u32,
    /// Suppress the live progress line.
    pub quiet: bool,
    /// Run every job with the invariant auditor attached.
    pub audit: bool,
    /// Skip the static config lint before dispatching jobs.
    pub no_lint: bool,
    /// Join a shared sweep: claim jobs through the lease log beside
    /// the store instead of partitioning alone.
    pub join: bool,
    /// Worker identity for `--join` (None = `w<pid>`).
    pub worker_id: Option<String>,
    /// Observation rounds before a peer's silent lease counts as
    /// expired and stealable.
    pub lease_stale: u32,
    /// Pacing sleep (ms) between lease observation rounds.
    pub lease_poll_ms: u64,
    /// `status` display heuristic only: a live lease whose last record
    /// is older than this many seconds is reported as orphaned.
    pub lease_expire_secs: u64,
}

impl Options {
    /// Parses `--flag value` pairs; unknown flags are an error.
    pub fn parse(args: &[String]) -> Result<Options, String> {
        let mut opt = Options {
            store: PathBuf::from("sweep.jsonl"),
            spec: RunSpec::from_env(),
            workers: None,
            retries: 2,
            quiet: false,
            audit: false,
            no_lint: false,
            join: false,
            worker_id: None,
            lease_stale: 3,
            lease_poll_ms: 50,
            lease_expire_secs: 60,
        };
        let mut i = 0;
        while i < args.len() {
            let flag = args[i].as_str();
            let value = |i: &mut usize| -> Result<&str, String> {
                *i += 1;
                args.get(*i)
                    .map(String::as_str)
                    .ok_or_else(|| format!("{flag} needs a value"))
            };
            match flag {
                "--store" => opt.store = PathBuf::from(value(&mut i)?),
                "--instr" => {
                    opt.spec.instructions = parse_num(flag, value(&mut i)?)?.max(1);
                }
                "--seed" => opt.spec.seed = parse_num(flag, value(&mut i)?)?,
                "--max-cycles" => {
                    opt.spec.max_cycles = parse_num(flag, value(&mut i)?)?.max(1);
                }
                "--workers" => {
                    opt.workers = Some(parse_positive(flag, value(&mut i)?)? as usize);
                }
                "--retries" => {
                    let n = parse_positive(flag, value(&mut i)?)?;
                    if n > 100 {
                        return Err(format!("{flag}: {n} exceeds the maximum of 100"));
                    }
                    opt.retries = n as u32;
                }
                "--quiet" => opt.quiet = true,
                "--audit" => opt.audit = true,
                "--no-lint" => opt.no_lint = true,
                "--join" => {
                    opt.store = PathBuf::from(value(&mut i)?);
                    opt.join = true;
                }
                "--worker-id" => opt.worker_id = Some(value(&mut i)?.to_string()),
                "--lease-stale" => {
                    opt.lease_stale = parse_positive(flag, value(&mut i)?)? as u32;
                }
                "--lease-poll-ms" => {
                    opt.lease_poll_ms = parse_positive(flag, value(&mut i)?)?;
                }
                "--lease-expire-secs" => {
                    opt.lease_expire_secs = parse_positive(flag, value(&mut i)?)?;
                }
                other => return Err(format!("unknown flag {other}")),
            }
            i += 1;
        }
        Ok(opt)
    }

    /// The lease configuration `--join` implies (`None` when running
    /// single-process).
    pub fn lease_config(&self) -> Option<LeaseConfig> {
        if !self.join {
            return None;
        }
        let worker = self
            .worker_id
            .clone()
            .unwrap_or_else(|| format!("w{}", std::process::id()));
        let mut cfg = LeaseConfig::new(worker);
        cfg.stale_rounds = self.lease_stale;
        cfg.poll = Duration::from_millis(self.lease_poll_ms);
        Some(cfg)
    }
}

fn parse_num(flag: &str, s: &str) -> Result<u64, String> {
    s.trim()
        .parse::<u64>()
        .map_err(|_| format!("{flag}: '{s}' is not a number"))
}

/// Like [`parse_num`] but zero is an error, not something to silently
/// round up: a user typing `--workers 0` should find out their request
/// is impossible rather than get one worker they did not ask for.
fn parse_positive(flag: &str, s: &str) -> Result<u64, String> {
    match parse_num(flag, s)? {
        0 => Err(format!("{flag} must be at least 1 (got 0)")),
        n => Ok(n),
    }
}

/// Statically vets the experiment's full job set before anything is
/// dispatched. Returns an error listing every violated rule per job
/// label; `--no-lint` bypasses it.
fn lint_gate(experiment: &str, spec: RunSpec) -> Result<(), String> {
    let jobs = plan_jobs(experiment, spec)?;
    let report = lint_jobs(&jobs);
    if report.clean() {
        eprintln!(
            "# lint: {} job config(s) statically verified{}",
            report.points,
            if report.symbolic { " (symbolic)" } else { "" }
        );
    } else {
        return Err(format!(
            "static config lint rejected the sweep (rerun with --no-lint to bypass):\n{}",
            report.render()
        ));
    }
    // Model-check every refresh mechanism the sweep will build before a
    // single controller is constructed out of it.
    match rop_lint::mech::gate_jobs(&jobs) {
        Ok(reports) => {
            let labels: Vec<&str> = reports.iter().map(|r| r.kind.label()).collect();
            eprintln!(
                "# lint: refresh mechanism(s) {} model-checked",
                labels.join(" ")
            );
            Ok(())
        }
        Err(failures) => Err(format!(
            "mechanism model check rejected the sweep (rerun with --no-lint to bypass):\n{failures}"
        )),
    }
}

fn cmd_run(experiment: &str, opt: &Options) -> Result<i32, String> {
    if !opt.no_lint {
        lint_gate(experiment, opt.spec)?;
    }
    let mut pool = PoolConfig {
        max_attempts: opt.retries,
        report_interval: (!opt.quiet).then(|| Duration::from_secs(2)),
        // Seed the retry jitter from the sweep seed so a replay of the
        // same sweep sleeps the same backoff sequence.
        backoff_seed: opt.spec.seed,
        ..PoolConfig::default()
    };
    if let Some(w) = opt.workers {
        pool.workers = w;
    }
    eprintln!(
        "# rop-sweep {experiment} — store {}, {} instructions/core, seed {}, {} workers{}",
        opt.store.display(),
        opt.spec.instructions,
        opt.spec.seed,
        pool.workers,
        if opt.audit { ", auditing on" } else { "" }
    );
    let mut exec = StoreExecutor::new(Store::open(&opt.store)).with_pool(pool);
    if let Some(cfg) = opt.lease_config() {
        eprintln!(
            "# joined as worker {} — lease log {}, stale after {} silent rounds",
            cfg.worker,
            crate::lease::lease_log_path(&opt.store).display(),
            cfg.stale_rounds
        );
        let mgr =
            LeaseManager::new(&opt.store, cfg).map_err(|e| format!("invalid lease config: {e}"))?;
        exec = exec.with_lease(Arc::new(mgr));
    }
    if !opt.quiet {
        exec = exec.with_progress();
    }
    let auditing = AuditingExecutor(&exec);
    let driver: &dyn SweepExecutor = if opt.audit { &auditing } else { &exec };
    let figures = render_experiment(experiment, opt.spec, driver)?;

    let stats = exec.stats();
    let failures = exec.failures();
    if failures.is_empty() {
        for fig in &figures {
            println!("{fig}");
        }
    } else {
        eprintln!(
            "# {} job(s) failed permanently — figures suppressed:",
            failures.len()
        );
        for f in &failures {
            eprintln!(
                "#   {} ({}, {} attempts): {}",
                f.label, f.job, f.attempts, f.panic_msg
            );
        }
    }
    let denominator = stats.planned.max(1);
    println!(
        "# cache-hits: {}/{} ({:.1}%)",
        stats.cache_hits,
        stats.planned,
        stats.cache_hits as f64 * 100.0 / denominator as f64
    );
    println!(
        "# executed: {} (failed: {}, not run: {})",
        stats.executed, stats.failed, stats.not_run
    );
    if opt.join {
        println!(
            "# distributed: {} by peers, {} leases stolen, {} commits fenced",
            stats.peer_ok, stats.stolen, stats.fenced
        );
    }
    Ok(if failures.is_empty() { 0 } else { 1 })
}

fn cmd_status(experiment: &str, opt: &Options) -> Result<i32, String> {
    let planned = plan_experiment(experiment, opt.spec)?;
    let contents = Store::open(&opt.store).load()?;
    let latest = contents.latest();

    let mut completed = 0usize;
    let mut failed = 0usize;
    let mut remaining = 0usize;
    let mut wall = 0.0f64;
    let mut failed_labels: Vec<&str> = Vec::new();
    for (id, label) in &planned {
        match latest.get(id.as_str()) {
            Some(rec) if rec.status == Status::Ok => {
                completed += 1;
                if let Some(m) = &rec.metrics {
                    wall += m.wall_seconds;
                }
            }
            Some(_) => {
                failed += 1;
                failed_labels.push(label);
            }
            None => remaining += 1,
        }
    }
    // Gate on the *whole store*, not just this experiment's plan: a
    // Failed record left by any sweep against this store means the
    // store is not clean, and CI keys its exit code off this command.
    let store_failed = latest
        .values()
        .filter(|rec| rec.status == Status::Failed)
        .count();

    println!(
        "# rop-sweep status — experiment {experiment}, store {}",
        opt.store.display()
    );
    println!("planned:   {}", planned.len());
    println!("completed: {completed}");
    println!("failed:    {failed}");
    println!("remaining: {remaining}");
    if completed > 0 && wall > 0.0 {
        println!(
            "throughput: {:.2} jobs/s over {:.1}s of recorded simulation time",
            completed as f64 / wall,
            wall
        );
    }
    println!("store failed records: {store_failed}");
    println!("corrupt lines quarantined: {}", contents.corrupt_lines);
    for label in failed_labels {
        println!("  failed: {label}");
    }

    // Per-worker lease telemetry, present whenever `--join` workers
    // have ever driven this store. An *orphaned* lease — live in the
    // log, job still unfinished, worker silent past the display
    // threshold — flips the exit code: a sweep someone believes is
    // running has in fact lost workers. The wall-clock age here is a
    // reporting heuristic for humans; running workers decide expiry by
    // observation counters alone (see `crate::lease`).
    let lease = LeaseLog::beside(&opt.store).load()?;
    let mut orphaned = 0usize;
    if !lease.records.is_empty() {
        let view = crate::lease::resolve_leases(&lease.records);
        // (held live leases, committed jobs, last-record ts) per worker.
        let mut rows: std::collections::BTreeMap<&str, (usize, usize, u64)> =
            std::collections::BTreeMap::new();
        for r in lease.records.iter() {
            let row = rows.entry(r.worker.as_str()).or_default();
            row.2 = row.2.max(r.ts);
            if r.kind == LeaseKind::Done {
                row.1 += 1;
            }
        }
        let now = unix_now();
        for (job, l) in &view.jobs {
            if !l.live() {
                continue;
            }
            let silent_secs = rows
                .get(l.worker.as_str())
                .map(|row| now.saturating_sub(row.2))
                .unwrap_or(u64::MAX);
            if let Some(row) = rows.get_mut(l.worker.as_str()) {
                row.0 += 1;
            }
            let job_ok = latest
                .get(job.as_str())
                .is_some_and(|r| r.status == Status::Ok);
            if !job_ok && silent_secs > opt.lease_expire_secs {
                orphaned += 1;
            }
        }
        println!("workers:");
        println!("  {:<20} {:>5} {:>5}  last heard", "worker", "held", "done");
        for (worker, (held, done, last_ts)) in &rows {
            println!(
                "  {worker:<20} {held:>5} {done:>5}  {}s ago",
                now.saturating_sub(*last_ts)
            );
        }
        println!("orphaned expired leases: {orphaned}");
        if lease.corrupt_lines > 0 {
            println!("corrupt lease lines quarantined: {}", lease.corrupt_lines);
        }
    }
    Ok(if failed > 0 || store_failed > 0 || orphaned > 0 {
        1
    } else {
        0
    })
}

fn cmd_diff(path_a: &str, path_b: &str) -> Result<i32, String> {
    let a = Store::open(path_a).load()?;
    let b = Store::open(path_b).load()?;
    let la = a.latest();
    let lb = b.latest();

    let mut differs = false;
    let only = |name: &str,
                this: &std::collections::BTreeMap<&str, &crate::store::Record>,
                other: &std::collections::BTreeMap<&str, &crate::store::Record>|
     -> Vec<String> {
        let mut lines: Vec<String> = this
            .iter()
            .filter(|(id, _)| !other.contains_key(*id))
            .map(|(id, rec)| format!("  only in {name}: {id} {}", rec.label))
            .collect();
        lines.sort();
        lines
    };
    let only_a = only("a", &la, &lb);
    let only_b = only("b", &lb, &la);
    for line in only_a.iter().chain(&only_b) {
        println!("{line}");
        differs = true;
    }

    let mut shared: Vec<&&str> = la.keys().filter(|id| lb.contains_key(**id)).collect();
    shared.sort();
    for id in shared {
        let (ra, rb) = (la[*id], lb[*id]);
        if ra.status != rb.status {
            println!(
                "  {id} {}: status {:?} vs {:?}",
                ra.label, ra.status, rb.status
            );
            differs = true;
            continue;
        }
        if let (Some(ma), Some(mb)) = (&ra.metrics, &rb.metrics) {
            if ma.mechanism != mb.mechanism {
                println!(
                    "  {id} {}: mechanism {} vs {}",
                    ra.label, ma.mechanism, mb.mechanism
                );
                differs = true;
            }
            let fields = [
                ("ipc", ma.ipc(), mb.ipc()),
                ("cycles", ma.total_cycles as f64, mb.total_cycles as f64),
                ("energy_mj", ma.energy_mj(), mb.energy_mj()),
                ("refreshes", ma.refreshes as f64, mb.refreshes as f64),
                (
                    "refresh_blocked_cycles",
                    ma.refresh_blocked_cycles as f64,
                    mb.refresh_blocked_cycles as f64,
                ),
            ];
            for (field, va, vb) in fields {
                if (va - vb).abs() > 1e-12 {
                    println!("  {id} {}: {field} {va} vs {vb}", ra.label);
                    differs = true;
                }
            }
            // Open-loop tail percentiles, when both sides carry them.
            if let (Some(oa), Some(ob)) = (&ma.open_loop, &mb.open_loop) {
                let tails = [
                    ("p99", oa.read_latency.p99(), ob.read_latency.p99()),
                    ("p999", oa.read_latency.p999(), ob.read_latency.p999()),
                ];
                for (field, va, vb) in tails {
                    if va != vb {
                        println!("  {id} {}: {field} {va} vs {vb}", ra.label);
                        differs = true;
                    }
                }
            } else if ma.open_loop.is_some() != mb.open_loop.is_some() {
                println!("  {id} {}: open_loop presence differs", ra.label);
                differs = true;
            }
        }
    }
    if !differs {
        println!("stores agree ({} shared jobs)", la.len());
    }
    Ok(if differs { 1 } else { 0 })
}

fn csv_escape(s: &str) -> String {
    if s.contains([',', '"', '\n']) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

/// Renders the latest record per job as the `rop-sweep export` CSV.
/// Public so the mechanism round-trip tests can assert on the exact
/// bytes the sweep pipeline hands downstream tooling.
pub fn export_csv(contents: &StoreContents) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let latest = contents.latest();
    let mut ids: Vec<&&str> = latest.keys().collect();
    ids.sort();
    let _ = writeln!(
        out,
        "job,label,status,attempts,mechanism,ipc,energy_mj,refreshes,refresh_blocked_cycles,\
         sram_hit_rate,total_cycles,wall_seconds,audit_events,audit_violations,\
         read_p50,read_p99,read_p999"
    );
    for id in ids {
        let rec = latest[*id];
        let (mechanism, ipc, energy, refreshes, blocked, sram, cycles, wall) = match &rec.metrics {
            Some(m) => (
                csv_escape(&m.mechanism),
                format!("{:?}", m.ipc()),
                format!("{:?}", m.energy_mj()),
                m.refreshes.to_string(),
                m.refresh_blocked_cycles.to_string(),
                format!("{:?}", m.sram_hit_rate),
                m.total_cycles.to_string(),
                format!("{:?}", m.wall_seconds),
            ),
            None => Default::default(),
        };
        // Audit columns stay empty for un-audited runs so "0 events"
        // is never conflated with "auditing was off".
        let (audit_events, audit_violations) = match rec.metrics.as_ref().and_then(|m| m.audit) {
            Some(a) => (a.events.to_string(), a.violations.to_string()),
            None => Default::default(),
        };
        // Tail columns stay empty for closed-loop runs, like the audit
        // columns: "0 cycles" must never mean "not an open-loop job".
        let (p50, p99, p999) = match rec.metrics.as_ref().and_then(|m| m.open_loop.as_ref()) {
            Some(ol) => (
                ol.read_latency.p50().to_string(),
                ol.read_latency.p99().to_string(),
                ol.read_latency.p999().to_string(),
            ),
            None => Default::default(),
        };
        let _ = writeln!(
            out,
            "{},{},{},{},{mechanism},{ipc},{energy},{refreshes},{blocked},{sram},{cycles},{wall},\
             {audit_events},{audit_violations},{p50},{p99},{p999}",
            rec.job,
            csv_escape(&rec.label),
            match rec.status {
                Status::Ok => "ok",
                Status::Failed => "failed",
            },
            rec.attempts,
        );
    }
    out
}

fn cmd_export(opt: &Options) -> Result<i32, String> {
    let contents = Store::open(&opt.store).load()?;
    print!("{}", export_csv(&contents));
    Ok(0)
}

/// An extra subcommand plugged into [`main_with`] by a downstream
/// crate — `rop-chaos` registers `rop-sweep chaos` this way, keeping
/// the dependency arrow pointing from chaos to harness.
pub struct Extension {
    /// Subcommand name (`rop-sweep <name> ...`).
    pub name: &'static str,
    /// One usage line appended to `--help` output.
    pub usage: &'static str,
    /// Handler; receives the args after the subcommand name and returns
    /// an exit code, or an error message printed to stderr (exit 2).
    pub run: fn(&[String]) -> Result<i32, String>,
}

/// CLI entry point; returns the process exit code.
pub fn main(args: &[String]) -> i32 {
    main_with(args, &[])
}

/// [`main`] plus extension subcommands registered by downstream crates.
pub fn main_with(args: &[String], extensions: &[Extension]) -> i32 {
    let usage = || {
        let mut u = USAGE.to_string();
        if !extensions.is_empty() {
            let names: Vec<&str> = extensions.iter().map(|e| e.name).collect();
            u = u.replacen(
                "run resume status diff export",
                &format!("run resume status diff export {}", names.join(" ")),
                1,
            );
        }
        for ext in extensions {
            u.push('\n');
            u.push_str(ext.usage);
        }
        u
    };
    let run = || -> Result<i32, String> {
        let Some(cmd) = args.first().map(String::as_str) else {
            return Err(usage());
        };
        match cmd {
            "run" | "resume" => {
                let exp = args.get(1).ok_or_else(usage)?;
                cmd_run(exp, &Options::parse(&args[2..])?)
            }
            "status" => {
                let exp = args.get(1).ok_or_else(usage)?;
                cmd_status(exp, &Options::parse(&args[2..])?)
            }
            "diff" => {
                let a = args.get(1).ok_or_else(usage)?;
                let b = args.get(2).ok_or_else(usage)?;
                if args.len() > 3 {
                    return Err(usage());
                }
                cmd_diff(a, b)
            }
            "export" => cmd_export(&Options::parse(&args[1..])?),
            "--help" | "-h" | "help" => {
                println!("{}", usage());
                Ok(0)
            }
            other => match extensions.iter().find(|e| e.name == other) {
                Some(ext) => (ext.run)(&args[1..]),
                None => Err(usage()),
            },
        }
    };
    match run() {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("{msg}");
            2
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn options_parse_flags() {
        let opt = Options::parse(&argv(&[
            "--store",
            "/tmp/x.jsonl",
            "--instr",
            "5000",
            "--seed",
            "9",
            "--max-cycles",
            "100",
            "--workers",
            "3",
            "--retries",
            "4",
            "--quiet",
        ]))
        .unwrap();
        assert_eq!(opt.store, PathBuf::from("/tmp/x.jsonl"));
        assert_eq!(opt.spec.instructions, 5000);
        assert_eq!(opt.spec.seed, 9);
        assert_eq!(opt.spec.max_cycles, 100);
        assert_eq!(opt.workers, Some(3));
        assert_eq!(opt.retries, 4);
        assert!(opt.quiet);
        assert!(!opt.audit);
        assert!(Options::parse(&argv(&["--audit"])).unwrap().audit);
    }

    #[test]
    fn options_reject_garbage() {
        assert!(Options::parse(&argv(&["--instr", "many"])).is_err());
        assert!(Options::parse(&argv(&["--instr"])).is_err());
        assert!(Options::parse(&argv(&["--bogus"])).is_err());
    }

    #[test]
    fn zero_workers_and_retries_are_errors_not_rewrites() {
        let err = Options::parse(&argv(&["--workers", "0"])).unwrap_err();
        assert!(err.contains("--workers"), "{err}");
        assert!(err.contains("at least 1"), "{err}");
        let err = Options::parse(&argv(&["--retries", "0"])).unwrap_err();
        assert!(err.contains("--retries"), "{err}");
        assert!(Options::parse(&argv(&["--retries", "101"])).is_err());
        // The boundaries themselves parse.
        assert_eq!(
            Options::parse(&argv(&["--retries", "1"])).unwrap().retries,
            1
        );
        assert_eq!(
            Options::parse(&argv(&["--workers", "1"])).unwrap().workers,
            Some(1)
        );
    }

    #[test]
    fn unknown_command_and_experiment_fail() {
        assert_eq!(main(&argv(&["frobnicate"])), 2);
        assert_eq!(main(&argv(&["run", "not-an-experiment", "--quiet"])), 2);
        assert_eq!(main(&argv(&[])), 2);
    }

    #[test]
    fn plan_enumerates_without_running() {
        let spec = RunSpec {
            instructions: 1000,
            max_cycles: 1000,
            seed: 1,
        };
        let jobs = plan_experiment("single", spec).unwrap();
        // 12 benchmarks × (baseline + no-refresh + 4 buffer sizes).
        assert_eq!(jobs.len(), 12 * 6);
        assert!(jobs.iter().any(|(_, l)| l == "single/lbm/Baseline"));
        // Ids are unique 16-hex strings.
        for (id, _) in &jobs {
            assert_eq!(id.len(), 16);
        }
    }

    #[test]
    fn plan_all_dedups_shared_jobs() {
        let spec = RunSpec {
            instructions: 1000,
            max_cycles: 1000,
            seed: 1,
        };
        let multi = plan_experiment("multi", spec).unwrap();
        let llc = plan_experiment("llc", spec).unwrap();
        let all = plan_experiment("all", spec).unwrap();
        // `multi` is the 4 MiB slice of `llc`, so `all` must not count
        // those jobs twice.
        assert!(multi.iter().all(|j| llc.contains(j)));
        let single = plan_experiment("single", spec).unwrap();
        assert!(all.len() < single.len() + multi.len() + llc.len() + 200);
        assert!(all.len() > llc.len());
    }

    #[test]
    fn csv_escaping() {
        assert_eq!(csv_escape("plain"), "plain");
        assert_eq!(csv_escape("a,b"), "\"a,b\"");
        assert_eq!(csv_escape("q\"q"), "\"q\"\"q\"");
    }

    #[test]
    fn status_exits_nonzero_when_store_holds_failed_records() {
        use crate::store::{unix_now, Record, Store};

        let mut path = std::env::temp_dir();
        path.push(format!("rop-cli-status-{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);

        // Empty store: clean exit.
        let store_flag = path.to_string_lossy().to_string();
        assert_eq!(
            main(&argv(&["status", "single", "--store", &store_flag])),
            0
        );

        // A Failed record that is NOT part of the planned experiment
        // must still flip the exit code — CI gates on the whole store.
        Store::open(&path)
            .append(&Record {
                job: "feedfeedfeedfeed".into(),
                label: "other-sweep/poisoned".into(),
                status: Status::Failed,
                attempts: 2,
                panic_msg: Some("boom".into()),
                ts: unix_now(),
                metrics: None,
                epoch: 0,
                worker: String::new(),
            })
            .unwrap();
        assert_eq!(
            main(&argv(&["status", "single", "--store", &store_flag])),
            1
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn diff_flags_open_loop_tail_differences_and_export_succeeds() {
        use crate::store::{unix_now, Record, Store};
        use rop_sim_system::metrics::{LatencyHistogram, OpenLoopMetrics};
        use rop_sim_system::RunMetrics;
        use rop_stats::Json;

        // A minimal ok record whose metrics carry an open-loop block
        // with the given tail shape.
        let record = |tail: u64| -> Record {
            let skeleton = r#"{"system":"Baseline","cores":[],"total_cycles":10,
                "energy":{"act_pre_nj":0,"read_nj":0,"write_nj":0,"refresh_nj":0,
                "background_nj":0,"sram_nj":0},"refreshes":1,"sram_hit_rate":0,
                "sram_lookups":0,"prefetches":0,"analysis":[],"row_hit_rate":0,
                "avg_read_latency":0,"hit_cycle_cap":false}"#;
            let mut m = RunMetrics::from_json(&Json::parse(skeleton).unwrap()).unwrap();
            let mut hist = LatencyHistogram::new();
            for _ in 0..99 {
                hist.record(20);
            }
            hist.record(tail);
            m.open_loop = Some(OpenLoopMetrics {
                process: "poisson".into(),
                offered_rpkc: 60.0,
                achieved_rpkc: 45.0,
                reads_injected: 100,
                writes_injected: 0,
                backlog_peak: 3,
                backlog_final: 0,
                saturated: false,
                read_latency: hist,
                refresh_blocked_latency: LatencyHistogram::new(),
            });
            Record {
                job: "feedbeeffeedbeef".into(),
                label: "tail/poisson/60/Baseline".into(),
                status: Status::Ok,
                attempts: 1,
                panic_msg: None,
                ts: unix_now(),
                metrics: Some(m),
                epoch: 0,
                worker: String::new(),
            }
        };
        let tmp = |tag: &str| {
            let mut p = std::env::temp_dir();
            p.push(format!("rop-cli-tail-{}-{tag}.jsonl", std::process::id()));
            let _ = std::fs::remove_file(&p);
            p
        };
        let (pa, pb, pc) = (tmp("a"), tmp("b"), tmp("c"));
        Store::open(&pa).append(&record(20)).unwrap();
        Store::open(&pb).append(&record(5_000)).unwrap();
        Store::open(&pc).append(&record(20)).unwrap();
        let s = |p: &std::path::Path| p.to_string_lossy().to_string();
        // Same closed-loop fields, different p999: diff must flag it.
        assert_eq!(main(&argv(&["diff", &s(&pa), &s(&pb)])), 1);
        // Identical tails: stores agree.
        assert_eq!(main(&argv(&["diff", &s(&pa), &s(&pc)])), 0);
        // Export over a store with open-loop records succeeds.
        assert_eq!(main(&argv(&["export", "--store", &s(&pa)])), 0);
        for p in [pa, pb, pc] {
            let _ = std::fs::remove_file(&p);
        }
    }

    #[test]
    fn extension_subcommands_dispatch_through_main_with() {
        fn handler(args: &[String]) -> Result<i32, String> {
            Ok(40 + args.len() as i32)
        }
        let ext = [Extension {
            name: "chaos",
            usage: "  chaos: injected by rop-chaos",
            run: handler,
        }];
        assert_eq!(main_with(&argv(&["chaos", "--a", "--b"]), &ext), 42);
        // Without the extension the same word is an unknown command.
        assert_eq!(main_with(&argv(&["chaos"]), &[]), 2);
    }
}
