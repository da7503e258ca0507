//! Store-backed sweep execution.
//!
//! [`StoreExecutor`] is the bridge between the declarative experiment
//! job sets in `rop-sim-system` and the persistence layer here: it
//! resolves every job against the JSONL store first (resume), runs only
//! the missing ones on the fault-isolated pool, appends each outcome as
//! soon as it lands, and returns metrics decoded *from their serialized
//! form* — so a figure assembled through it is, by construction, a
//! figure read from the store.

use std::collections::{BTreeMap, HashSet};
use std::sync::{Arc, Mutex, PoisonError};

use rop_sim_system::metrics::RunMetrics;
use rop_sim_system::runner::{SweepExecutor, SweepJob};
use rop_stats::Json;

use crate::lease::{CommitOutcome, HeartbeatGuard, LeaseManager};
use crate::pool::{run_jobs, JobOutcome, PoolConfig};
use crate::progress::Progress;
use crate::store::{unix_now, Record, Status, Store, StoreContents};

// The dry-run planner and job-id scheme moved to `rop-sim-system`
// (`experiments::driver`) so the static linter can enumerate job sets
// without depending on this crate; re-exported here for existing users.
pub use rop_sim_system::experiments::driver::{job_id, PlanExecutor};

/// Counters accumulated across an executor's `execute` calls.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Jobs requested.
    pub planned: usize,
    /// Jobs satisfied from the store without running.
    pub cache_hits: usize,
    /// Jobs actually simulated this invocation.
    pub executed: usize,
    /// Jobs that exhausted their retry budget this invocation.
    pub failed: usize,
    /// Jobs left unclaimed because the pool was stopped early.
    pub not_run: usize,
    /// Leases stolen from expired peers (distributed mode only).
    pub stolen: usize,
    /// Commits refused because our lease was stolen mid-run
    /// (distributed mode only).
    pub fenced: usize,
    /// Jobs a peer worker completed while we ran (distributed mode
    /// only).
    pub peer_ok: usize,
}

/// One permanently-failed job, for end-of-run reporting.
#[derive(Debug, Clone)]
pub struct Failure {
    /// Job id.
    pub job: String,
    /// Job label.
    pub label: String,
    /// Final panic message.
    pub panic_msg: String,
    /// Attempts used.
    pub attempts: u32,
}

/// A [`SweepExecutor`] that persists every outcome to a [`Store`] and
/// resumes by content-hashed job id.
pub struct StoreExecutor {
    store: Store,
    pool: PoolConfig,
    stats: Mutex<ExecStats>,
    failures: Mutex<Vec<Failure>>,
    /// Jobs finishing with `Ok` get real metrics; failed or not-run
    /// jobs yield placeholders so assembly can proceed structurally.
    /// Callers must check [`StoreExecutor::failures`] before trusting a
    /// figure.
    progress_enabled: bool,
    /// When set, `execute` runs the distributed lease-claiming drain
    /// loop instead of the single-process partition.
    lease: Option<Arc<LeaseManager>>,
    /// Resolve the store by pure file order instead of lease epochs —
    /// only the chaos oracle's `no-fencing` mutant sets this.
    unfenced: bool,
}

impl StoreExecutor {
    /// An executor over the store at `path` with default pool knobs.
    pub fn new(store: Store) -> Self {
        StoreExecutor {
            store,
            pool: PoolConfig::default(),
            stats: Mutex::new(ExecStats::default()),
            failures: Mutex::new(Vec::new()),
            progress_enabled: false,
            lease: None,
            unfenced: false,
        }
    }

    /// Replaces the pool configuration (workers, retry budget,
    /// stop-after hook, report interval).
    pub fn with_pool(mut self, pool: PoolConfig) -> Self {
        self.pool = pool;
        self
    }

    /// Enables the live stderr progress line.
    pub fn with_progress(mut self) -> Self {
        self.progress_enabled = true;
        self
    }

    /// Joins a shared sweep: jobs are claimed through `mgr`'s lease
    /// log, heartbeated while running, and committed behind an epoch
    /// fence, so any number of processes can drain one store together.
    pub fn with_lease(mut self, mgr: Arc<LeaseManager>) -> Self {
        self.lease = Some(mgr);
        self
    }

    /// Switches store resolution to pure file-order newest-wins (no
    /// epoch fencing). **Chaos-mutant only**: this re-creates the
    /// split-brain hazard the lease epochs exist to close, and exists
    /// so the oracle can prove that hazard is real.
    pub fn with_unfenced_resolution(mut self) -> Self {
        self.unfenced = true;
        self
    }

    /// The backing store.
    pub fn store(&self) -> &Store {
        &self.store
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> ExecStats {
        // A panicking holder of this lock only ever leaves fully-written
        // counters behind, so recovering from poison is sound.
        *self.stats.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Permanent failures recorded so far.
    pub fn failures(&self) -> Vec<Failure> {
        self.failures
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// Winning record per job under this executor's resolution policy.
    fn resolved<'a>(&self, contents: &'a StoreContents) -> BTreeMap<&'a str, &'a Record> {
        if self.unfenced {
            contents.latest_unfenced()
        } else {
            contents.latest()
        }
    }

    /// The distributed drain loop: claim a capped batch of missing
    /// jobs through the lease log, run them with heartbeats attached,
    /// commit behind the epoch fence, and repeat until every planned
    /// job has an `ok` record (possibly written by a peer) or only
    /// permanently-failed work remains.
    fn execute_leased(&self, mgr: &Arc<LeaseManager>, jobs: Vec<SweepJob>) -> Vec<RunMetrics> {
        let ids: Vec<String> = jobs.iter().map(job_id).collect();
        let mut by_id: BTreeMap<&str, usize> = BTreeMap::new();
        for (i, id) in ids.iter().enumerate() {
            by_id.entry(id.as_str()).or_insert(i);
        }

        let contents = self
            .store
            .load()
            .unwrap_or_else(|e| panic!("cannot load store: {e}")); // rop-lint: allow(no-panic)
        let latest0 = self.resolved(&contents);
        let cache_hits = ids
            .iter()
            .filter(|id| {
                latest0
                    .get(id.as_str())
                    .is_some_and(|r| r.status == Status::Ok)
            })
            .count();
        let mut known_ok: HashSet<String> = latest0
            .iter()
            .filter(|(_, r)| r.status == Status::Ok)
            .map(|(id, _)| id.to_string())
            .collect();
        let missing0 = by_id.keys().filter(|id| !known_ok.contains(**id)).count();
        drop(latest0);
        drop(contents);

        let progress = Arc::new(Progress::new(
            missing0,
            cache_hits,
            self.pool.workers.max(1),
        ));
        let pool_cfg = PoolConfig {
            report_interval: if self.progress_enabled {
                self.pool.report_interval
            } else {
                None
            },
            ..self.pool.clone()
        };

        // Ids whose previously-failed record this invocation already
        // retried (one retry per invocation, matching single-process
        // resume semantics), and ids whose commit this worker wrote.
        let mut retried: HashSet<String> = HashSet::new();
        let mut my_committed: HashSet<String> = HashSet::new();
        let mut executed = 0usize;
        let mut my_failed = 0usize;
        let mut peer_ok = 0usize;

        for round in 0.. {
            if round >= mgr.config().max_rounds {
                // A livelock here is a coordination bug, not a job
                // failure; aborting loudly beats spinning forever.
                panic!("lease drain exceeded max_rounds"); // rop-lint: allow(no-panic)
            }
            let contents = self
                .store
                .load()
                .unwrap_or_else(|e| panic!("cannot load store: {e}")); // rop-lint: allow(no-panic)
            let latest = self.resolved(&contents);
            let mut missing: Vec<String> = Vec::new();
            for &id in by_id.keys() {
                let ok = latest.get(id).is_some_and(|r| r.status == Status::Ok);
                if ok {
                    if known_ok.insert(id.to_string()) && !my_committed.contains(id) {
                        peer_ok += 1;
                        progress.peer_completes();
                    }
                } else {
                    missing.push(id.to_string());
                }
            }
            if missing.is_empty() {
                break;
            }
            let view = mgr
                .observe()
                .unwrap_or_else(|e| panic!("cannot load lease log: {e}")); // rop-lint: allow(no-panic)

            // Claim a bounded batch. Claimable and stealable jobs fill
            // the window first — a peer's live lease deep in the grid
            // must not wait for the drain frontier to reach it before a
            // steal can happen, and must not crowd real work out of the
            // bounded batch. A capped tail of peer-held jobs rides
            // along behind them: `claim_batch` skips those (so the
            // batch this worker actually runs stays `cap`-sized), but
            // they keep flowing past the claim hooks and the staleness
            // machinery instead of hiding until the frontier reaches
            // them. Jobs whose failed record we already retried this
            // invocation are excluded outright.
            let cap = self.pool.workers.max(1) * 2;
            let eligible = missing
                .iter()
                .filter(|id| !(latest.contains_key(id.as_str()) && retried.contains(*id)));
            let (free, held): (Vec<&String>, Vec<&String>) =
                eligible.partition(|id| !mgr.blocked_by_peer(&view, id));
            let candidates: Vec<String> = free
                .into_iter()
                .take(cap)
                .chain(held.into_iter().take(cap))
                .cloned()
                .collect();
            let claims = if candidates.is_empty() {
                Vec::new()
            } else {
                mgr.claim_batch(&candidates)
                    .unwrap_or_else(|e| panic!("lease claim failed: {e}")) // rop-lint: allow(no-panic)
            };
            if claims.is_empty() {
                // Nothing claimable. If a live peer still holds any
                // missing job, wait for it; otherwise only permanently
                // failed work remains and the drain is over. The check
                // MUST use a fresh view, not the one the candidates
                // were chosen from: a peer may have claimed our whole
                // candidate window between that load and our
                // `claim_batch` (which is why it came back empty), and
                // the stale view would show no live lease — reading it
                // here would end our drain while work is still in
                // flight.
                let fresh = mgr
                    .view()
                    .unwrap_or_else(|e| panic!("cannot load lease log: {e}")); // rop-lint: allow(no-panic)
                let waiting = missing.iter().any(|id| {
                    fresh
                        .jobs
                        .get(id)
                        .is_some_and(|l| l.live() && l.worker != mgr.config().worker)
                });
                if !waiting {
                    break;
                }
                std::thread::sleep(mgr.config().poll);
                continue;
            }
            for (job, _) in &claims {
                if latest.contains_key(job.as_str()) {
                    retried.insert(job.clone());
                }
            }
            drop(latest);
            drop(contents);

            let epochs: BTreeMap<String, u64> = claims.iter().cloned().collect();
            let run_ixs: Vec<usize> = claims.iter().map(|(job, _)| by_id[job.as_str()]).collect();
            let mgr2 = mgr.clone();
            let ids_ref = &ids;
            let jobs_ref = &jobs;
            let outcomes = run_jobs(
                &run_ixs,
                |&i| jobs_ref[i].label.clone(),
                |&i, token| {
                    // The guard beats our lease with the simulation's
                    // committed-instruction progress until the job
                    // returns (or panics — the guard drops either way).
                    let _beat = HeartbeatGuard::spawn(
                        mgr2.clone(),
                        ids_ref[i].clone(),
                        epochs[ids_ref[i].as_str()],
                        token.clone(),
                    );
                    jobs_ref[i].run_with(token.clone())
                },
                &pool_cfg,
                Some(progress.clone()),
            );

            for (&i, outcome) in run_ixs.iter().zip(outcomes) {
                let id = ids[i].clone();
                let epoch = epochs[id.as_str()];
                match outcome {
                    JobOutcome::Ok { value, attempts } => {
                        executed += 1;
                        let rec = Record {
                            job: id.clone(),
                            label: jobs[i].label.clone(),
                            status: Status::Ok,
                            attempts,
                            panic_msg: None,
                            ts: unix_now(),
                            metrics: Some(value),
                            epoch: 0,
                            worker: String::new(),
                        };
                        match mgr.commit(&self.store, rec, epoch) {
                            Ok(CommitOutcome::Committed) => {
                                my_committed.insert(id.clone());
                                known_ok.insert(id);
                            }
                            // Our lease was stolen mid-run; the
                            // stealing worker's record stands.
                            Ok(CommitOutcome::Fenced { .. }) => {}
                            Err(e) => panic!("store append failed: {e}"), // rop-lint: allow(no-panic)
                        }
                    }
                    JobOutcome::Failed {
                        panic_msg,
                        attempts,
                    } => {
                        executed += 1;
                        let rec = Record {
                            job: id.clone(),
                            label: jobs[i].label.clone(),
                            status: Status::Failed,
                            attempts,
                            panic_msg: Some(panic_msg),
                            ts: unix_now(),
                            metrics: None,
                            epoch: 0,
                            worker: String::new(),
                        };
                        match mgr.commit(&self.store, rec, epoch) {
                            Ok(CommitOutcome::Committed) => {
                                my_failed += 1;
                                my_committed.insert(id);
                            }
                            Ok(CommitOutcome::Fenced { .. }) => {}
                            Err(e) => panic!("store append failed: {e}"), // rop-lint: allow(no-panic)
                        }
                    }
                    JobOutcome::NotRun => {
                        // Give the claim back so peers need not wait
                        // out the staleness window.
                        let _ = mgr.release(&id, epoch);
                    }
                }
            }
        }

        // Assemble results (and the failure report) from the final
        // store state: in a shared sweep the authoritative outcome of
        // a job may well have been written by a peer.
        let contents = self
            .store
            .load()
            .unwrap_or_else(|e| panic!("cannot load store: {e}")); // rop-lint: allow(no-panic)
        let latest = self.resolved(&contents);
        let mut failed_ids: Vec<&str> = Vec::new();
        let mut not_run = 0usize;
        for &id in by_id.keys() {
            match latest.get(id) {
                Some(r) if r.status == Status::Failed => failed_ids.push(id),
                None => not_run += 1,
                _ => {}
            }
        }
        {
            let mut failures = self.failures.lock().unwrap_or_else(PoisonError::into_inner);
            for id in failed_ids {
                let r = latest[id];
                failures.push(Failure {
                    job: id.to_string(),
                    label: r.label.clone(),
                    panic_msg: r.panic_msg.clone().unwrap_or_default(),
                    attempts: r.attempts,
                });
            }
        }
        {
            let mut stats = self.stats.lock().unwrap_or_else(PoisonError::into_inner);
            stats.planned += jobs.len();
            stats.cache_hits += cache_hits;
            stats.executed += executed;
            stats.failed += my_failed;
            stats.not_run += not_run;
            stats.stolen += mgr.stolen_count() as usize;
            stats.fenced += mgr.fenced_count() as usize;
            stats.peer_ok += peer_ok;
        }

        ids.iter()
            .enumerate()
            .map(|(i, id)| {
                latest
                    .get(id.as_str())
                    .filter(|r| r.status == Status::Ok)
                    .and_then(|r| r.metrics.clone())
                    .unwrap_or_else(|| jobs[i].placeholder_metrics())
            })
            .collect()
    }
}

impl SweepExecutor for StoreExecutor {
    fn execute(&self, jobs: Vec<SweepJob>) -> Vec<RunMetrics> {
        if let Some(mgr) = self.lease.clone() {
            return self.execute_leased(&mgr, jobs);
        }
        let contents = self
            .store
            .load()
            // A store that cannot even be read makes every job outcome
            // unrecordable; aborting the sweep is the only safe move.
            .unwrap_or_else(|e| panic!("cannot load store: {e}")); // rop-lint: allow(no-panic)
        let latest = self.resolved(&contents);

        // Resolve cache hits; collect the rest for the pool. Duplicate
        // ids inside one batch (e.g. shared baselines) run once.
        let ids: Vec<String> = jobs.iter().map(job_id).collect();
        let mut results: Vec<Option<RunMetrics>> = vec![None; jobs.len()];
        let mut to_run: Vec<usize> = Vec::new();
        let mut seen_this_batch: std::collections::HashMap<&str, usize> =
            std::collections::HashMap::new();
        let mut cache_hits = 0usize;
        for (i, id) in ids.iter().enumerate() {
            if let Some(rec) = latest.get(id.as_str()) {
                if rec.status == Status::Ok {
                    results[i] = rec.metrics.clone();
                    cache_hits += 1;
                    continue;
                }
                // Failed previously: retry on this invocation.
            }
            match seen_this_batch.get(id.as_str()) {
                Some(_) => {} // an earlier index already runs this id
                None => {
                    seen_this_batch.insert(id.as_str(), i);
                    to_run.push(i);
                }
            }
        }

        let progress = Arc::new(Progress::new(
            to_run.len(),
            cache_hits,
            self.pool.workers.max(1),
        ));
        let pool_cfg = PoolConfig {
            report_interval: if self.progress_enabled {
                self.pool.report_interval
            } else {
                None
            },
            ..self.pool.clone()
        };
        let run_indices = to_run.clone();
        let outcomes = run_jobs(
            &run_indices,
            |&i| jobs[i].label.clone(),
            // Thread the attempt's cancel token into the simulation so
            // a watchdog can cancel a stalled job cooperatively.
            |&i, token| jobs[i].run_with(token.clone()),
            &pool_cfg,
            Some(progress),
        );

        // Append every outcome, decode ok metrics back from their
        // serialized record, and fill result slots (including batch
        // duplicates of the same id).
        let mut executed = 0usize;
        let mut failed = 0usize;
        let mut not_run = 0usize;
        let mut fresh: std::collections::HashMap<String, Option<RunMetrics>> =
            std::collections::HashMap::new();
        for (&i, outcome) in run_indices.iter().zip(outcomes) {
            let id = ids[i].clone();
            match outcome {
                JobOutcome::Ok { value, attempts } => {
                    executed += 1;
                    let rec = Record {
                        job: id.clone(),
                        label: jobs[i].label.clone(),
                        status: Status::Ok,
                        attempts,
                        panic_msg: None,
                        ts: unix_now(),
                        metrics: Some(value),
                        epoch: 0,
                        worker: String::new(),
                    };
                    self.store
                        .append(&rec)
                        // Losing a finished result silently would defeat
                        // the durability contract; fail loudly instead.
                        .unwrap_or_else(|e| panic!("store append failed: {e}")); // rop-lint: allow(no-panic)
                                                                                 // Round-trip through the serialized form: what the
                                                                                 // figure sees is exactly what the store holds.
                    let line = rec.to_json().render();
                    let decoded = Json::parse(&line)
                        .and_then(|j| Record::from_json(&j))
                        .unwrap_or_else(|e| panic!("store round-trip failed: {e}")); // rop-lint: allow(no-panic)
                    fresh.insert(id, decoded.metrics);
                }
                JobOutcome::Failed {
                    panic_msg,
                    attempts,
                } => {
                    executed += 1;
                    failed += 1;
                    let rec = Record {
                        job: id.clone(),
                        label: jobs[i].label.clone(),
                        status: Status::Failed,
                        attempts,
                        panic_msg: Some(panic_msg.clone()),
                        ts: unix_now(),
                        metrics: None,
                        epoch: 0,
                        worker: String::new(),
                    };
                    self.store
                        .append(&rec)
                        .unwrap_or_else(|e| panic!("store append failed: {e}")); // rop-lint: allow(no-panic)
                    self.failures
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .push(Failure {
                            job: id.clone(),
                            label: jobs[i].label.clone(),
                            panic_msg,
                            attempts,
                        });
                    fresh.insert(id, None);
                }
                JobOutcome::NotRun => {
                    not_run += 1;
                }
            }
        }

        {
            let mut stats = self.stats.lock().unwrap_or_else(PoisonError::into_inner);
            stats.planned += jobs.len();
            stats.cache_hits += cache_hits;
            stats.executed += executed;
            stats.failed += failed;
            stats.not_run += not_run;
        }

        results
            .into_iter()
            .enumerate()
            .map(|(i, slot)| match slot {
                Some(m) => m,
                None => fresh
                    .get(&ids[i])
                    .and_then(|m| m.clone())
                    .unwrap_or_else(|| jobs[i].placeholder_metrics()),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rop_sim_system::config::SystemKind;
    use rop_sim_system::runner::RunSpec;
    use rop_trace::Benchmark;

    fn tiny_spec() -> RunSpec {
        RunSpec {
            instructions: 5_000,
            max_cycles: 5_000_000,
            seed: 7,
        }
    }

    fn tmp_store(name: &str) -> Store {
        let mut p = std::env::temp_dir();
        p.push(format!("rop-exec-test-{name}-{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&p);
        Store::open(p)
    }

    #[test]
    fn cache_hit_on_second_execute() {
        let store = tmp_store("cache");
        let job = || {
            vec![SweepJob::single(
                "t",
                Benchmark::Bzip2,
                SystemKind::Baseline,
                tiny_spec(),
            )]
        };
        let exec = StoreExecutor::new(store.clone());
        let first = exec.execute(job());
        assert_eq!(exec.stats().executed, 1);
        assert_eq!(exec.stats().cache_hits, 0);

        let exec2 = StoreExecutor::new(store.clone());
        let second = exec2.execute(job());
        assert_eq!(exec2.stats().executed, 0);
        assert_eq!(exec2.stats().cache_hits, 1);
        // Identical metrics either way (both decoded from the store).
        assert_eq!(first[0].total_cycles, second[0].total_cycles);
        assert_eq!(first[0].ipc().to_bits(), second[0].ipc().to_bits());
        let _ = std::fs::remove_file(store.path());
    }

    #[test]
    fn repeated_executes_parse_each_stored_byte_once() {
        use crate::store::{RealIo, StoreIo};
        use std::path::Path;
        use std::sync::atomic::{AtomicU64, Ordering};

        /// Real I/O that counts the reads and the bytes handed to the
        /// parser.
        #[derive(Default)]
        struct CountingIo {
            reads: AtomicU64,
            bytes: AtomicU64,
        }
        impl StoreIo for CountingIo {
            fn read_file(&self, path: &Path) -> Result<Option<String>, String> {
                RealIo.read_file(path)
            }
            fn read_from(&self, path: &Path, offset: u64) -> Result<Option<(u64, String)>, String> {
                let out = RealIo.read_from(path, offset)?;
                self.reads.fetch_add(1, Ordering::SeqCst);
                let n = out.as_ref().map_or(0, |(_, t)| t.len() as u64);
                self.bytes.fetch_add(n, Ordering::SeqCst);
                Ok(out)
            }
            fn append_line(&self, path: &Path, line: &str) -> Result<(), String> {
                RealIo.append_line(path, line)
            }
        }

        let store = tmp_store("parse-once");
        let jobs = || {
            vec![
                SweepJob::single("t", Benchmark::Bzip2, SystemKind::Baseline, tiny_spec()),
                SweepJob::single("t", Benchmark::Lbm, SystemKind::Baseline, tiny_spec()),
            ]
        };
        StoreExecutor::new(store.clone()).execute(jobs());
        let size = std::fs::metadata(store.path()).unwrap().len();

        let io = Arc::new(CountingIo::default());
        let exec = StoreExecutor::new(Store::with_io(store.path(), io.clone()));
        const N: u64 = 5;
        for _ in 0..N {
            exec.execute(jobs());
        }
        assert_eq!(exec.stats().cache_hits, 2 * N as usize);
        assert_eq!(exec.stats().executed, 0);
        assert_eq!(io.reads.load(Ordering::SeqCst), N, "one load per execute");
        assert_eq!(
            io.bytes.load(Ordering::SeqCst),
            size,
            "each byte parsed once"
        );
        let _ = std::fs::remove_file(store.path());
    }

    #[test]
    fn duplicate_ids_in_one_batch_run_once() {
        let store = tmp_store("dup");
        let exec = StoreExecutor::new(store.clone());
        let j = SweepJob::single("t", Benchmark::Gobmk, SystemKind::Baseline, tiny_spec());
        let out = exec.execute(vec![j.clone(), j.clone()]);
        assert_eq!(exec.stats().executed, 1);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].total_cycles, out[1].total_cycles);
        let _ = std::fs::remove_file(store.path());
    }

    #[test]
    fn invalid_config_is_recorded_as_failed_and_rest_completes() {
        let store = tmp_store("fail");
        // ROP with 4 cores on 2 ranks fails validation → panics in run().
        let mut bad = SweepJob::multi(
            rop_trace::WORKLOAD_MIXES[0],
            SystemKind::Rop { buffer: 64 },
            4,
            tiny_spec(),
        );
        bad.config.ranks = 2;
        let good = SweepJob::single("t", Benchmark::Bzip2, SystemKind::Baseline, tiny_spec());
        let exec = StoreExecutor::new(store.clone()).with_pool(PoolConfig {
            workers: 2,
            max_attempts: 3,
            ..PoolConfig::default()
        });
        let out = exec.execute(vec![bad.clone(), good.clone()]);
        assert_eq!(out.len(), 2);

        let failures = exec.failures();
        assert_eq!(failures.len(), 1);
        assert_eq!(failures[0].attempts, 3, "retried to the bound");
        assert!(
            failures[0].panic_msg.contains("rank partitioning"),
            "{}",
            failures[0].panic_msg
        );
        assert!(
            failures[0].panic_msg.contains(&bad.label),
            "panic message '{}' lost the job label",
            failures[0].panic_msg
        );
        // The good job completed despite the poisoned one.
        assert!(out[1].total_cycles > 0);

        // The store recorded the failure durably.
        let contents = store.load().unwrap();
        let latest = contents.latest();
        let rec = latest[job_id(&bad).as_str()];
        assert_eq!(rec.status, Status::Failed);
        assert_eq!(rec.attempts, 3);
        let _ = std::fs::remove_file(store.path());
    }

    #[test]
    fn failed_jobs_are_retried_on_resume() {
        let store = tmp_store("retry");
        let mut bad = SweepJob::multi(
            rop_trace::WORKLOAD_MIXES[0],
            SystemKind::Rop { buffer: 64 },
            4,
            tiny_spec(),
        );
        bad.config.ranks = 2;
        let exec = StoreExecutor::new(store.clone());
        exec.execute(vec![bad.clone()]);
        assert_eq!(exec.stats().failed, 1);

        // Resume: the failed job is attempted again, not cache-hit.
        let exec2 = StoreExecutor::new(store.clone());
        exec2.execute(vec![bad.clone()]);
        assert_eq!(exec2.stats().cache_hits, 0);
        assert_eq!(exec2.stats().executed, 1);
        let _ = std::fs::remove_file(store.path());
    }

    #[test]
    fn plan_executor_collects_without_running() {
        let plan = PlanExecutor::new();
        let jobs = vec![
            SweepJob::single("t", Benchmark::Lbm, SystemKind::Baseline, tiny_spec()),
            SweepJob::single("t", Benchmark::Lbm, SystemKind::NoRefresh, tiny_spec()),
        ];
        let out = plan.execute(jobs);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].total_cycles, 0, "placeholder, not a real run");
        assert_eq!(plan.into_jobs().len(), 2);
    }
}
