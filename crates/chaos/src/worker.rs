//! The hidden `_dist-worker` subcommand: one child process of the
//! distributed chaos oracle.
//!
//! A worker joins the shared sweep exactly like a human-driven
//! `rop-sweep run --join` process would — same [`LeaseManager`], same
//! drain loop — except its lease transitions flow through
//! `DistHooks`, which fires this slot's share of the
//! [`DistPlan`] at exact, replayable protocol points:
//!
//! * **crash-on-startup** — `abort()` before touching the store;
//! * **split-brain-claim** — claim a job a live peer already holds, at
//!   the *same* epoch (modelling two workers racing past the advisory
//!   lock);
//! * **crash-after-claim** — `abort()` between the claim decision and
//!   its append, leaving no trace;
//! * **torn-lease-claim** — half the claim line lands without a
//!   newline, fusing with the real claim into one corrupt line the
//!   next load quarantines;
//! * **duplicate-claim** — the claim append lands twice;
//! * **lease-stall** — all further heartbeats for one job are
//!   swallowed, so its lease goes stale and peers steal it while the
//!   job still runs here;
//! * **crash-before-commit** — `abort()` after the job ran, before its
//!   record lands;
//! * **worker-disconnect** — the zombie dance: the worker "disconnects"
//!   at commit time, waits for a peer to steal the job and commit, then
//!   fires a *poisoned* late commit at its superseded epoch. Only the
//!   epoch fence (and epoch-aware store resolution) keeps that poison
//!   out of the figures — the `no-fencing` mutant proves it.
//!
//! Every fault appends a `fired <index> <kind> ...` line to the chaos
//! log *before* acting, so the parent can rebuild the fired set across
//! respawns and pass it back via `--fired`.

use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use rop_harness::cli::Extension;
use rop_harness::{
    ClaimDecision, JobLease, LeaseConfig, LeaseHooks, LeaseKind, LeaseManager, LeaseRecord,
    PoolConfig, RealIo, Record, Status, Store, StoreExecutor, StoreIo,
};
use rop_sim_system::experiments::driver::render_experiment;
use rop_sim_system::runner::RunSpec;

use crate::plan::{DistFault, DistFaultKind, DistPlan, DistSite};

/// The chaos event log lives beside the store: `sweep.jsonl` logs to
/// `sweep.chaos.log`. Shared protocol between workers (writers) and
/// the parent oracle (reader).
pub fn chaos_log_path(store_path: &Path) -> PathBuf {
    store_path.with_extension("chaos.log")
}

/// Startup barrier: tiny jobs drain so fast that the first worker to
/// finish process startup would otherwise empty the store before its
/// peers claim anything — and a fault site nobody reaches can never
/// fire. Each worker appends `ready <slot>` to the chaos log, then
/// waits (bounded — a peer that crashed on startup is respawned by the
/// parent, so the barrier resolves) until every slot has announced at
/// least once in the run's history.
fn await_fleet(chaos_log: &Path, procs: usize, slot: usize) {
    let line = format!("ready {slot}\n");
    if let Err(e) = RealIo.append_line(chaos_log, &line) {
        eprintln!("# w{slot}: ready announce failed: {e}");
    }
    let deadline = Instant::now() + Duration::from_secs(5);
    while Instant::now() < deadline {
        let announced: std::collections::BTreeSet<usize> = std::fs::read_to_string(chaos_log)
            .unwrap_or_default()
            .lines()
            .filter_map(|l| l.strip_prefix("ready "))
            .filter_map(|s| s.trim().parse().ok())
            .collect();
        if (0..procs).all(|s| announced.contains(&s)) {
            return;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    eprintln!("# w{slot}: fleet barrier timed out; proceeding solo");
}

/// The subcommand registration handed to [`rop_harness::cli::main_with`].
/// Hidden: the oracle spawns it; humans run `rop-sweep chaos-dist`.
pub fn extension() -> Extension {
    Extension {
        name: "_dist-worker",
        usage: "  _dist-worker: internal child of `rop-sweep chaos-dist` (not for direct use)",
        run: run_command,
    }
}

struct WorkerOptions {
    store: PathBuf,
    experiment: String,
    spec: RunSpec,
    chaos_seed: u64,
    faults: usize,
    procs: usize,
    slot: usize,
    threads: usize,
    stale_rounds: u32,
    poll_ms: u64,
    fired: Vec<usize>,
    mutate: Option<String>,
}

fn parse(args: &[String]) -> Result<WorkerOptions, String> {
    let mut opt = WorkerOptions {
        store: PathBuf::new(),
        experiment: "single".to_string(),
        spec: RunSpec::quick(),
        chaos_seed: 1,
        faults: 8,
        procs: 3,
        slot: 0,
        threads: 1,
        stale_rounds: 3,
        poll_ms: 50,
        fired: Vec::new(),
        mutate: None,
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
        let num = |flag: &str, s: &str| -> Result<u64, String> {
            s.trim()
                .parse::<u64>()
                .map_err(|_| format!("{flag}: '{s}' is not a number"))
        };
        match flag {
            "--store" => opt.store = PathBuf::from(value(&mut i)?),
            "--experiment" => opt.experiment = value(&mut i)?.to_string(),
            "--instr" => opt.spec.instructions = num(flag, value(&mut i)?)?.max(1),
            "--max-cycles" => opt.spec.max_cycles = num(flag, value(&mut i)?)?.max(1),
            "--run-seed" => opt.spec.seed = num(flag, value(&mut i)?)?,
            "--chaos-seed" => opt.chaos_seed = num(flag, value(&mut i)?)?,
            "--faults" => opt.faults = num(flag, value(&mut i)?)? as usize,
            "--procs" => opt.procs = num(flag, value(&mut i)?)?.max(1) as usize,
            "--slot" => opt.slot = num(flag, value(&mut i)?)? as usize,
            "--threads" => opt.threads = num(flag, value(&mut i)?)?.max(1) as usize,
            "--stale" => opt.stale_rounds = num(flag, value(&mut i)?)?.max(1) as u32,
            "--poll-ms" => opt.poll_ms = num(flag, value(&mut i)?)?.max(1),
            "--fired" => {
                for part in value(&mut i)?.split(',').filter(|s| !s.is_empty()) {
                    opt.fired.push(num("--fired", part)? as usize);
                }
            }
            "--mutate" => opt.mutate = Some(value(&mut i)?.to_string()),
            other => return Err(format!("unknown _dist-worker flag {other}")),
        }
        i += 1;
    }
    if opt.store.as_os_str().is_empty() {
        return Err("_dist-worker needs --store".into());
    }
    if let Some(m) = &opt.mutate {
        if m != "no-fencing" {
            return Err(format!("unknown mutant '{m}' (expected no-fencing)"));
        }
    }
    Ok(opt)
}

/// This slot's not-yet-fired faults plus the chaos-log writer; doubles
/// as the [`LeaseHooks`] implementation.
struct DistHooks {
    chaos_log: PathBuf,
    slot: usize,
    /// Total faults in the whole plan (all slots), for the politeness
    /// throttle.
    faults_total: usize,
    /// One throttle pause = one lease poll interval.
    pace: Duration,
    pending: Mutex<Vec<DistFault>>,
    /// Job whose heartbeats are swallowed for the rest of this
    /// process's life (armed by a fired lease-stall).
    stalled: Mutex<Option<String>>,
}

impl DistHooks {
    fn new(
        chaos_log: PathBuf,
        slot: usize,
        faults_total: usize,
        pace: Duration,
        pending: Vec<DistFault>,
    ) -> DistHooks {
        DistHooks {
            chaos_log,
            slot,
            faults_total,
            pace,
            pending: Mutex::new(pending),
            stalled: Mutex::new(None),
        }
    }

    /// Removes and returns the first pending fault `want` accepts.
    fn take(&self, want: impl Fn(&DistFault) -> bool) -> Option<DistFault> {
        let mut pending = self.pending.lock().unwrap_or_else(PoisonError::into_inner);
        let pos = pending.iter().position(want)?;
        Some(pending.remove(pos))
    }

    /// Appends the durable `fired` line **before** the fault acts, so a
    /// crash the fault causes cannot lose the fact that it fired.
    fn fire(&self, f: &DistFault) {
        let line = format!(
            "fired {} {} slot={} site={}\n",
            f.index,
            f.kind.name(),
            f.slot,
            f.site
        );
        eprintln!("# w{}: firing {} at {}", self.slot, f.kind.name(), f.site);
        if let Err(e) = RealIo.append_line(&self.chaos_log, &line) {
            eprintln!("# w{}: chaos log write failed: {e}", self.slot);
        }
    }

    /// True while any planned fault — ours or a peer slot's — has not
    /// fired yet. The caller pauses one poll interval per commit while
    /// this holds. On a starved machine (one core, sub-millisecond
    /// jobs) an unthrottled worker can drain the whole grid before a
    /// lagging slot racks up the claim/beat/commit counts its fault
    /// sites index — and a site nobody reaches can never fire, so the
    /// schedule would never drain. Universal pacing equalises the
    /// claim race without exempting anyone (pausing never stops our
    /// *own* sites from firing; we still claim, beat and commit, just
    /// slower), and pausing *inside* `before_commit` keeps our lease
    /// live-but-uncommitted for the whole pause — exactly the window a
    /// peer's split-brain fault needs a foreign live lease inside its
    /// candidate batch. Once the last fault fires, the throttle lifts
    /// and the tail drains at full speed.
    fn should_yield(&self) -> bool {
        let fired: std::collections::BTreeSet<usize> = std::fs::read_to_string(&self.chaos_log)
            .unwrap_or_default()
            .lines()
            .filter_map(|l| l.strip_prefix("fired "))
            .filter_map(|rest| rest.split_whitespace().next())
            .filter_map(|s| s.parse().ok())
            .collect();
        fired.len() < self.faults_total
    }
}

/// True when the store's epoch-aware resolution already prefers a
/// peer's `Ok` record for `job` over a commit we would append at
/// `(epoch, me)` — i.e. our late record is *guaranteed* to lose the
/// `(epoch, worker)` comparison. A zombie may only poison its commit
/// under this condition: if our identity would still win (same-epoch
/// split-brain against a lexically smaller peer), a poisoned record
/// would enter the figures and break convergence by design.
fn superseded_in_store(store: &Store, job: &str, epoch: u64, me: &str) -> bool {
    let Ok(contents) = store.load() else {
        return false;
    };
    contents.latest().get(job).is_some_and(|r| {
        r.status == Status::Ok && r.worker != me && (r.epoch, r.worker.as_str()) > (epoch, me)
    })
}

impl LeaseHooks for DistHooks {
    fn on_claim(
        &self,
        mgr: &LeaseManager,
        seq: u64,
        job: &str,
        current: Option<&JobLease>,
        decision: &mut ClaimDecision,
    ) {
        // Split-brain: the only skip reason with a live lease attached
        // is "a non-stale peer holds this" — exactly the race the
        // advisory lock normally prevents. Re-claim at the SAME epoch.
        if decision.epoch.is_none() {
            if let Some(l) = current.filter(|l| l.live()) {
                if let Some(f) = self.take(|f| {
                    f.kind == DistFaultKind::SplitBrainClaim
                        && matches!(f.site, DistSite::Claim(n) if n <= seq)
                }) {
                    self.fire(&f);
                    decision.epoch = Some(l.epoch);
                    return;
                }
            }
        }
        let Some(epoch) = decision.epoch else {
            return;
        };
        let Some(f) = self.take(|f| {
            matches!(
                f.kind,
                DistFaultKind::CrashAfterClaim
                    | DistFaultKind::TornLeaseClaim
                    | DistFaultKind::DuplicateClaim
            ) && matches!(f.site, DistSite::Claim(n) if n <= seq)
        }) else {
            return;
        };
        self.fire(&f);
        match f.kind {
            // Die between deciding to claim and appending the claim:
            // the lease log never learns we were here.
            DistFaultKind::CrashAfterClaim => std::process::abort(),
            DistFaultKind::DuplicateClaim => decision.duplicate = true,
            DistFaultKind::TornLeaseClaim => {
                // Half a claim line, no newline: the manager's real
                // claim append fuses onto it, producing one corrupt
                // line. This worker then runs the job believing it
                // holds a lease nobody else can see.
                let rec = LeaseRecord {
                    kind: LeaseKind::Claim,
                    job: job.to_string(),
                    worker: mgr.config().worker.clone(),
                    epoch,
                    hb: 0,
                    ts: 0,
                };
                let line = rec.to_json().render();
                if let Err(e) =
                    crate::io::append_raw(mgr.log_path(), &line.as_bytes()[..line.len() / 2])
                {
                    eprintln!("# torn-lease-claim injection failed: {e}");
                }
            }
            _ => {}
        }
    }

    fn on_beat(&self, seq: u64, job: &str) -> bool {
        {
            let stalled = self.stalled.lock().unwrap_or_else(PoisonError::into_inner);
            if stalled.as_deref() == Some(job) {
                return false;
            }
        }
        if let Some(f) = self.take(|f| {
            f.kind == DistFaultKind::LeaseStall && matches!(f.site, DistSite::Beat(n) if n <= seq)
        }) {
            self.fire(&f);
            let mut stalled = self.stalled.lock().unwrap_or_else(PoisonError::into_inner);
            *stalled = Some(job.to_string());
            return false;
        }
        true
    }

    fn before_commit(&self, mgr: &LeaseManager, store: &Store, seq: u64, rec: &mut Record) {
        if self.should_yield() {
            std::thread::sleep(self.pace);
        }
        if let Some(f) = self.take(|f| {
            f.kind == DistFaultKind::CrashBeforeCommit
                && matches!(f.site, DistSite::Commit(n) if n <= seq)
        }) {
            self.fire(&f);
            // The job ran to completion but its record never lands.
            std::process::abort();
        }
        let Some(f) = self.take(|f| {
            f.kind == DistFaultKind::WorkerDisconnect
                && matches!(f.site, DistSite::Commit(n) if n <= seq)
        }) else {
            return;
        };
        self.fire(&f);
        // The zombie dance: "disconnect" right at commit time — stop
        // heartbeating (the guard is already down) and wait for a peer
        // to declare us dead, steal the job and commit its own result.
        // Then poison OUR metrics and let the commit proceed: only the
        // epoch fence (plus epoch-aware resolution on readers) keeps
        // the poisoned record out of the figures. If no peer shows up
        // inside the window (degenerate scheduling), commit clean so a
        // fault-free protocol still converges.
        let me = mgr.config().worker.clone();
        let deadline = Instant::now() + Duration::from_secs(8);
        let mut superseded = false;
        while Instant::now() < deadline {
            if superseded_in_store(store, &rec.job, rec.epoch, &me) {
                superseded = true;
                break;
            }
            std::thread::sleep(Duration::from_millis(50));
        }
        if superseded {
            // Corrupt fields the figure renderers actually read (IPC
            // feeds fig7/8/9 normalisation) so an unfenced resolution
            // that lets this record win cannot produce clean figures.
            if let Some(m) = rec.metrics.as_mut() {
                m.total_cycles = m.total_cycles.wrapping_mul(3);
                for c in &mut m.cores {
                    c.ipc *= 3.0;
                }
            }
            eprintln!(
                "# w{}: zombie commit for {} goes out poisoned (ipc and total_cycles x3)",
                self.slot, rec.job
            );
        } else {
            eprintln!(
                "# w{}: zombie escape — no peer superseded {} in time, committing clean",
                self.slot, rec.job
            );
        }
    }
}

fn run_command(args: &[String]) -> Result<i32, String> {
    let opt = parse(args)?;
    let plan = DistPlan::generate(opt.chaos_seed, opt.faults, opt.procs);
    let mine: Vec<DistFault> = plan
        .for_slot(opt.slot)
        .into_iter()
        .filter(|f| !opt.fired.contains(&f.index))
        .collect();
    let chaos_log = chaos_log_path(&opt.store);

    let hooks = DistHooks::new(
        chaos_log.clone(),
        opt.slot,
        opt.faults,
        Duration::from_millis(opt.poll_ms),
        mine,
    );
    // Crash-on-startup happens before the store or lease log is ever
    // opened: the worker announces the firing and dies on the spot.
    if let Some(f) = hooks.take(|f| f.kind == DistFaultKind::CrashOnStartup) {
        hooks.fire(&f);
        std::process::abort();
    }
    await_fleet(&chaos_log, opt.procs, opt.slot);

    let mut cfg = LeaseConfig::new(format!("w{}", opt.slot));
    cfg.stale_rounds = opt.stale_rounds;
    cfg.poll = Duration::from_millis(opt.poll_ms);
    cfg.fence = opt.mutate.is_none();
    let mgr = LeaseManager::new(&opt.store, cfg)?.with_hooks(Arc::new(hooks));

    let pool = PoolConfig {
        workers: opt.threads,
        // Injected deaths consume no attempts (the process is gone),
        // but stolen-then-fenced jobs may retry locally; keep room.
        max_attempts: opt.faults as u32 + 2,
        retry_backoff: Some(Duration::from_millis(2)),
        backoff_seed: opt.spec.seed,
        ..PoolConfig::default()
    };
    let mut exec = StoreExecutor::new(Store::open(&opt.store))
        .with_pool(pool)
        .with_lease(Arc::new(mgr));
    if opt.mutate.is_some() {
        exec = exec.with_unfenced_resolution();
    }

    eprintln!(
        "# _dist-worker w{}: joining {} ({}; seed {}, {} instructions/job)",
        opt.slot,
        opt.store.display(),
        opt.experiment,
        opt.spec.seed,
        opt.spec.instructions
    );
    render_experiment(&opt.experiment, opt.spec, &exec)?;
    let stats = exec.stats();
    eprintln!(
        "# _dist-worker w{}: done — {} executed, {} by peers, {} stolen, {} fenced",
        opt.slot, stats.executed, stats.peer_ok, stats.stolen, stats.fenced
    );
    Ok(if exec.failures().is_empty() { 0 } else { 4 })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parse_accepts_the_full_flag_set() {
        let opt = parse(&argv(&[
            "--store",
            "/tmp/d.jsonl",
            "--experiment",
            "single",
            "--instr",
            "1500",
            "--max-cycles",
            "77",
            "--run-seed",
            "9",
            "--chaos-seed",
            "3",
            "--faults",
            "8",
            "--procs",
            "3",
            "--slot",
            "2",
            "--threads",
            "2",
            "--stale",
            "4",
            "--poll-ms",
            "25",
            "--fired",
            "0,3,7",
            "--mutate",
            "no-fencing",
        ]))
        .unwrap();
        assert_eq!(opt.store, PathBuf::from("/tmp/d.jsonl"));
        assert_eq!(opt.spec.instructions, 1500);
        assert_eq!(opt.spec.max_cycles, 77);
        assert_eq!(opt.spec.seed, 9);
        assert_eq!((opt.chaos_seed, opt.faults, opt.procs), (3, 8, 3));
        assert_eq!((opt.slot, opt.threads), (2, 2));
        assert_eq!((opt.stale_rounds, opt.poll_ms), (4, 25));
        assert_eq!(opt.fired, vec![0, 3, 7]);
        assert_eq!(opt.mutate.as_deref(), Some("no-fencing"));
    }

    #[test]
    fn parse_rejects_missing_store_and_unknown_mutants() {
        assert!(parse(&argv(&[])).is_err());
        assert!(parse(&argv(&["--store", "s.jsonl", "--mutate", "bogus"])).is_err());
        assert!(parse(&argv(&["--store", "s.jsonl", "--bogus"])).is_err());
    }

    #[test]
    fn fired_faults_are_filtered_and_takes_are_one_shot() {
        let plan = DistPlan::generate(1, 8, 3);
        let slot0 = plan.for_slot(0);
        assert!(!slot0.is_empty());
        let hooks = DistHooks::new(
            PathBuf::from("/tmp/unused.chaos.log"),
            0,
            8,
            Duration::from_millis(50),
            slot0.clone(),
        );
        let first = hooks.take(|_| true).expect("slot 0 has faults");
        assert!(
            hooks.take(|f| f.index == first.index).is_none(),
            "a taken fault never fires twice"
        );
        let remaining: Vec<DistFault> = {
            let p = hooks.pending.lock().unwrap();
            p.clone()
        };
        assert_eq!(remaining.len(), slot0.len() - 1);
    }

    #[test]
    fn stalled_job_swallows_all_later_beats() {
        let mut log = std::env::temp_dir();
        log.push(format!("rop-dist-worker-stall-{}.log", std::process::id()));
        let _ = std::fs::remove_file(&log);
        let hooks = DistHooks::new(
            log.clone(),
            0,
            1,
            Duration::from_millis(50),
            vec![DistFault {
                index: 1,
                slot: 0,
                site: DistSite::Beat(2),
                kind: DistFaultKind::LeaseStall,
            }],
        );
        assert!(hooks.on_beat(0, "job-a"), "before the site: beat passes");
        assert!(hooks.on_beat(1, "job-a"), "still before the site");
        assert!(!hooks.on_beat(2, "job-a"), "at the site: stall fires");
        assert!(!hooks.on_beat(3, "job-a"), "stalled forever after");
        assert!(hooks.on_beat(4, "job-b"), "other jobs beat freely");
        let _ = std::fs::remove_file(&log);
    }

    #[test]
    fn pacing_holds_until_every_planned_fault_fired() {
        let mut log = std::env::temp_dir();
        log.push(format!("rop-dist-worker-yield-{}.log", std::process::id()));
        let _ = std::fs::remove_file(&log);
        // No chaos log yet: 0 of 3 fired, everyone paces — including
        // workers with pending faults of their own (pacing never stops
        // our own sites from firing, it only equalises the claim race).
        let hooks = DistHooks::new(
            log.clone(),
            0,
            3,
            Duration::from_millis(1),
            vec![DistFault {
                index: 0,
                slot: 0,
                site: DistSite::Commit(0),
                kind: DistFaultKind::CrashBeforeCommit,
            }],
        );
        assert!(hooks.should_yield());

        // Fleet at 1/3 fired (ready lines and noise ignored): still on.
        std::fs::write(
            &log,
            "fired 0 crash-before-commit slot=0 site=commit#0\nready 1\n",
        )
        .unwrap();
        assert!(hooks.should_yield());

        // Fleet fully fired (duplicate lines count once): throttle off.
        std::fs::write(
            &log,
            "fired 0 a slot=0 site=x\nfired 0 a slot=0 site=x\nfired 1 b slot=1 site=y\nfired 2 c slot=2 site=z\n",
        )
        .unwrap();
        assert!(!hooks.should_yield());
        let _ = std::fs::remove_file(&log);
    }
}
