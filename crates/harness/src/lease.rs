//! Lease-based job claiming for multi-process sweeps.
//!
//! N independent `rop-sweep run --join <store>` workers share one
//! append-only results store. Coordination happens through a second
//! append-only JSONL file beside it — the *lease log* — holding
//! `claim` / `beat` / `done` / `abort` records. Every claim carries a
//! monotonically increasing **epoch** per job: claiming a fresh job
//! writes epoch 1, stealing an expired lease writes the highest epoch
//! seen plus one. Result records in the store carry the committing
//! worker's `(epoch, worker)` pair, and resolution picks the maximum
//! pair, so a fenced-out zombie can never shadow the stealing worker's
//! result no matter the append order ([`crate::StoreContents::latest`]).
//!
//! Liveness is decided without reading any clock: a worker heartbeats
//! its leases with the job's *simulation progress* (committed
//! instructions, via `CancelToken::progress`), and a lease is stale
//! once its `(epoch, worker, hb)` triple has been observed unchanged
//! for [`LeaseConfig::stale_rounds`] consecutive observation rounds.
//! Wall-clock time only paces the polling sleeps; it never enters an
//! expiry decision (the `lease-clock` src-lint rule enforces this
//! repo-wide). Unix timestamps on lease records are forensic metadata
//! for `rop-sweep status`, not inputs to any decision.
//!
//! The advisory file lock around claim batches is an optimisation
//! that shrinks (but cannot eliminate) duplicate work on a shared
//! filesystem; correctness never depends on it. Safety comes from
//! epoch fencing plus job determinism: even a split-brain double
//! execution commits records that resolve deterministically to
//! byte-identical figures.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use rop_sim_system::runner::CancelToken;
use rop_stats::Json;

use crate::jsonl::JsonlLog;
use crate::store::{unix_now, RealIo, Record, Store, StoreIo};

/// Tuning for one worker's participation in a shared sweep.
#[derive(Debug, Clone)]
pub struct LeaseConfig {
    /// This worker's identity; lands in every lease record and in the
    /// store records it commits. Must be unique among live workers.
    pub worker: String,
    /// Consecutive unchanged observations of a peer's lease before it
    /// counts as expired and may be stolen. Counter-based, never
    /// wall-clock-based.
    pub stale_rounds: u32,
    /// Pacing sleep between observation rounds when no work is
    /// claimable. Pacing only — never part of an expiry decision.
    pub poll: Duration,
    /// Refuse to commit a result when the job's lease has moved to a
    /// higher epoch. Disabled only by the chaos oracle's `no-fencing`
    /// mutant.
    pub fence: bool,
    /// Backstop on executor drain rounds before giving up (protects
    /// against livelock bugs, not a tuning knob).
    pub max_rounds: usize,
}

impl LeaseConfig {
    /// Defaults for `worker`: 3 stale rounds, 50 ms poll, fencing on.
    pub fn new(worker: impl Into<String>) -> LeaseConfig {
        LeaseConfig {
            worker: worker.into(),
            stale_rounds: 3,
            poll: Duration::from_millis(50),
            fence: true,
            max_rounds: 10_000,
        }
    }

    /// Statically vets the config, returning one violation per broken
    /// `mc-lease-*` rule (empty = valid). Mirrors the config-lint
    /// convention: stable rule IDs first, prose second.
    pub fn validate(&self) -> Vec<LeaseViolation> {
        let mut out = Vec::new();
        let w = &self.worker;
        if w.is_empty()
            || w.len() > 64
            || w.chars()
                .any(|c| c.is_whitespace() || c.is_control() || c == '"' || c == '\\')
        {
            out.push(LeaseViolation {
                rule: "mc-lease-worker",
                what: format!(
                    "worker id {w:?} must be 1..=64 chars with no whitespace, control, quote or backslash characters"
                ),
            });
        }
        if self.stale_rounds == 0 {
            out.push(LeaseViolation {
                rule: "mc-lease-stale",
                what: "stale_rounds must be >= 1 (0 would steal live leases instantly)".into(),
            });
        }
        if self.poll.is_zero() {
            out.push(LeaseViolation {
                rule: "mc-lease-poll",
                what: "poll interval must be non-zero (a zero sleep spins the store)".into(),
            });
        }
        if self.max_rounds == 0 {
            out.push(LeaseViolation {
                rule: "mc-lease-rounds",
                what: "max_rounds must be >= 1".into(),
            });
        }
        out
    }
}

/// One broken `mc-lease-*` rule from [`LeaseConfig::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LeaseViolation {
    /// Stable machine-readable rule id (`mc-lease-worker`, ...).
    pub rule: &'static str,
    /// Human-readable explanation.
    pub what: String,
}

impl std::fmt::Display for LeaseViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.rule, self.what)
    }
}

/// Kind of one lease-log line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LeaseKind {
    /// A worker claims (or steals, at a higher epoch) a job.
    Claim,
    /// Progress heartbeat for a held lease (`hb` = simulation progress).
    Beat,
    /// The holder committed a result record for the job.
    Done,
    /// The holder gave the job up without committing.
    Abort,
}

impl LeaseKind {
    fn as_str(self) -> &'static str {
        match self {
            LeaseKind::Claim => "claim",
            LeaseKind::Beat => "beat",
            LeaseKind::Done => "done",
            LeaseKind::Abort => "abort",
        }
    }
}

/// One lease-log line.
#[derive(Debug, Clone, PartialEq)]
pub struct LeaseRecord {
    /// What happened.
    pub kind: LeaseKind,
    /// Job id the lease covers.
    pub job: String,
    /// Worker writing the record.
    pub worker: String,
    /// Lease epoch the record belongs to.
    pub epoch: u64,
    /// Simulation progress at the last heartbeat (claims start at 0).
    pub hb: u64,
    /// Unix seconds when appended — forensic metadata only, never an
    /// input to expiry or resolution.
    pub ts: u64,
}

impl LeaseRecord {
    /// Encodes as one JSON object (no newline).
    pub fn to_json(&self) -> Json {
        let mut j = Json::obj();
        j.push("v", Json::Num(1.0))
            .push("kind", Json::Str(self.kind.as_str().to_string()))
            .push("job", Json::Str(self.job.clone()))
            .push("worker", Json::Str(self.worker.clone()))
            .push("epoch", Json::Num(self.epoch as f64))
            .push("hb", Json::Num(self.hb as f64))
            .push("ts", Json::Num(self.ts as f64));
        j
    }

    /// Decodes one parsed lease-log line; rejects unknown versions and
    /// kinds the same way [`Record::from_json`] does.
    pub fn from_json(j: &Json) -> Result<LeaseRecord, String> {
        match j.get("v") {
            None => {}
            Some(v) => match v.as_u64() {
                Some(1) => {}
                Some(other) => return Err(format!("unsupported lease record version {other}")),
                None => return Err("non-numeric lease record version".into()),
            },
        }
        let kind = match j.get("kind").and_then(Json::as_str) {
            Some("claim") => LeaseKind::Claim,
            Some("beat") => LeaseKind::Beat,
            Some("done") => LeaseKind::Done,
            Some("abort") => LeaseKind::Abort,
            other => return Err(format!("bad lease kind {other:?}")),
        };
        let job = j
            .get("job")
            .and_then(Json::as_str)
            .ok_or("missing job id")?
            .to_string();
        let worker = j
            .get("worker")
            .and_then(Json::as_str)
            .ok_or("missing worker id")?
            .to_string();
        let epoch = j
            .get("epoch")
            .and_then(Json::as_u64)
            .ok_or("missing epoch")?;
        if epoch == 0 {
            return Err("lease epoch 0 is reserved for unleased records".into());
        }
        Ok(LeaseRecord {
            kind,
            job,
            worker,
            epoch,
            hb: j.get("hb").and_then(Json::as_u64).unwrap_or(0),
            ts: j.get("ts").and_then(Json::as_u64).unwrap_or(0),
        })
    }
}

/// The lease log lives beside the store: `sweep.jsonl` coordinates
/// through `sweep.leases.jsonl`.
pub fn lease_log_path(store_path: &Path) -> PathBuf {
    store_path.with_extension("leases.jsonl")
}

/// Advisory claim-lock file beside the lease log.
pub fn lease_lock_path(store_path: &Path) -> PathBuf {
    store_path.with_extension("leases.lock")
}

/// Everything read from a lease log.
#[derive(Debug, Default)]
pub struct LeaseLogContents {
    /// Parseable records, in file order (order never affects
    /// resolution — see [`resolve_leases`]): a snapshot shared with the
    /// [`LeaseLog`] handle, not a copy.
    pub records: Arc<Vec<LeaseRecord>>,
    /// Lines that failed to parse (e.g. a torn claim from a worker
    /// that died mid-append).
    pub corrupt_lines: usize,
}

/// Handle on a lease-log file; same incremental reader and
/// quarantine-on-corruption contract as the results [`Store`].
#[derive(Clone)]
pub struct LeaseLog {
    log: JsonlLog<LeaseRecord>,
}

impl std::fmt::Debug for LeaseLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LeaseLog")
            .field("path", &self.path())
            .finish()
    }
}

impl LeaseLog {
    /// The lease log for the store at `store_path`, on real I/O.
    pub fn beside(store_path: &Path) -> LeaseLog {
        LeaseLog::beside_with_io(store_path, Arc::new(RealIo))
    }

    /// Same, with raw I/O routed through `io` (the chaos seam).
    pub fn beside_with_io(store_path: &Path, io: Arc<dyn StoreIo>) -> LeaseLog {
        LeaseLog {
            log: JsonlLog::new(lease_log_path(store_path), io, LeaseRecord::from_json),
        }
    }

    /// The backing file path.
    pub fn path(&self) -> &Path {
        self.log.path()
    }

    /// Reads every lease record; a missing file is an empty log.
    pub fn load(&self) -> Result<LeaseLogContents, String> {
        let (records, corrupt_lines) = self.log.load()?;
        Ok(LeaseLogContents {
            records,
            corrupt_lines,
        })
    }

    /// Appends one record, fsync'd.
    pub fn append(&self, rec: &LeaseRecord) -> Result<(), String> {
        self.log.append(&rec.to_json())
    }
}

/// Resolved state of one job's lease chain.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct JobLease {
    /// Winning claim's epoch (max `(epoch, worker)` over all claims).
    pub epoch: u64,
    /// Winning claim's worker.
    pub worker: String,
    /// Highest heartbeat recorded for the winning claim.
    pub hb: u64,
    /// The winner committed a result.
    pub done: bool,
    /// The winner gave the job up.
    pub released: bool,
    /// Highest epoch seen in *any* record for the job; fresh claims
    /// and steals go to `max_epoch + 1` so epochs never repeat.
    pub max_epoch: u64,
    /// Total claim records (telemetry: >1 means steals or split-brain).
    pub claims: usize,
}

impl JobLease {
    /// Still held: claimed, not finished, not released.
    pub fn live(&self) -> bool {
        !self.done && !self.released
    }
}

/// Resolved view of a whole lease log.
#[derive(Debug, Default)]
pub struct LeaseView {
    /// Per-job resolved lease state, in job-id order.
    pub jobs: BTreeMap<String, JobLease>,
    /// Corrupt (quarantined) lease-log lines.
    pub corrupt_lines: usize,
}

/// Folds lease records into per-job state. **Permutation-independent**:
/// the winner is the maximum `(epoch, worker)` pair over claim records
/// and `hb`/`done`/`released` are aggregates over records matching the
/// winner, so any reordering of the log resolves identically — the
/// property `tests/lease_fencing.rs` exercises.
pub fn resolve_leases(records: &[LeaseRecord]) -> LeaseView {
    let mut view = LeaseView::default();
    // Pass 1: pick each job's winning claim and track the epoch roof.
    for r in records {
        let e = view.jobs.entry(r.job.clone()).or_default();
        e.max_epoch = e.max_epoch.max(r.epoch);
        if r.kind == LeaseKind::Claim {
            e.claims += 1;
            if (r.epoch, r.worker.as_str()) > (e.epoch, e.worker.as_str()) {
                e.epoch = r.epoch;
                e.worker = r.worker.clone();
            }
        }
    }
    // Pass 2: aggregate the winner's heartbeat and terminal markers.
    for r in records {
        let Some(e) = view.jobs.get_mut(&r.job) else {
            continue;
        };
        if r.epoch != e.epoch || r.worker != e.worker {
            continue;
        }
        match r.kind {
            LeaseKind::Claim => {}
            LeaseKind::Beat => e.hb = e.hb.max(r.hb),
            LeaseKind::Done => e.done = true,
            LeaseKind::Abort => e.released = true,
        }
    }
    view
}

/// Counter-based expiry: a job's lease goes stale after its
/// `(epoch, worker, hb)` triple survives `stale_rounds` consecutive
/// [`StalenessTracker::observe`] calls unchanged. No clock anywhere.
#[derive(Debug, Default)]
pub struct StalenessTracker {
    seen: BTreeMap<String, ((u64, String, u64), u32)>,
}

impl StalenessTracker {
    /// Ticks the tracker with a freshly resolved view.
    pub fn observe(&mut self, view: &LeaseView) {
        for (job, lease) in &view.jobs {
            if !lease.live() {
                self.seen.remove(job);
                continue;
            }
            let key = (lease.epoch, lease.worker.clone(), lease.hb);
            match self.seen.get_mut(job) {
                Some((k, rounds)) if *k == key => *rounds += 1,
                Some(entry) => *entry = (key, 0),
                None => {
                    self.seen.insert(job.clone(), (key, 0));
                }
            }
        }
    }

    /// True once `job`'s live lease has sat unchanged for `threshold`
    /// observations beyond the first.
    pub fn is_stale(&self, job: &str, threshold: u32) -> bool {
        self.seen.get(job).is_some_and(|(_, n)| *n >= threshold)
    }
}

/// What [`LeaseManager::claim_batch`] decided for one candidate; chaos
/// hooks may override it to force split-brain and duplicate claims.
#[derive(Debug, Default)]
pub struct ClaimDecision {
    /// Claim the job at this epoch (`None` = skip: someone else holds
    /// a live, non-stale lease).
    pub epoch: Option<u64>,
    /// Write the claim record twice (models a retried append landing
    /// both times).
    pub duplicate: bool,
    /// This claim steals an expired lease from a peer.
    pub stolen: bool,
}

/// Chaos seam: every lease transition flows through one of these
/// callbacks with a process-local monotone sequence number, so a fault
/// plan can fire at exact, replayable points. All defaults are no-ops.
pub trait LeaseHooks: Send + Sync {
    /// Inspect/override a claim decision (`current` = the job's
    /// resolved lease, if any).
    fn on_claim(
        &self,
        mgr: &LeaseManager,
        seq: u64,
        job: &str,
        current: Option<&JobLease>,
        decision: &mut ClaimDecision,
    ) {
        let _ = (mgr, seq, job, current, decision);
    }

    /// Return `false` to suppress this heartbeat (a stalled worker).
    fn on_beat(&self, seq: u64, job: &str) -> bool {
        let _ = (seq, job);
        true
    }

    /// Last look at (and chance to die before) a result commit; `rec`
    /// already carries the committing `(epoch, worker)` identity.
    fn before_commit(&self, mgr: &LeaseManager, store: &Store, seq: u64, rec: &mut Record) {
        let _ = (mgr, store, seq, rec);
    }
}

/// The default no-op hooks.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoHooks;

impl LeaseHooks for NoHooks {}

/// Outcome of a fenced commit attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CommitOutcome {
    /// The record landed in the store.
    Committed,
    /// Refused: the job's lease moved on to a higher epoch while we
    /// ran (our lease was stolen). The record was **not** appended.
    Fenced {
        /// The epoch that outran ours.
        current_epoch: u64,
    },
}

/// One worker's handle on the shared lease log: claim, heartbeat,
/// fence-checked commit, release.
pub struct LeaseManager {
    log: LeaseLog,
    lock_path: PathBuf,
    cfg: LeaseConfig,
    tracker: Mutex<StalenessTracker>,
    hooks: Arc<dyn LeaseHooks>,
    claim_seq: AtomicU64,
    beat_seq: AtomicU64,
    commit_seq: AtomicU64,
    stolen: AtomicU64,
    fenced: AtomicU64,
}

impl std::fmt::Debug for LeaseManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LeaseManager")
            .field("log", &self.log)
            .field("cfg", &self.cfg)
            .finish()
    }
}

impl LeaseManager {
    /// A manager for the sweep at `store_path`, on real I/O. Fails
    /// with the joined `mc-lease-*` violations when `cfg` is invalid.
    pub fn new(store_path: &Path, cfg: LeaseConfig) -> Result<LeaseManager, String> {
        LeaseManager::with_io(store_path, cfg, Arc::new(RealIo))
    }

    /// Same, with lease-log I/O routed through `io` (the chaos seam).
    pub fn with_io(
        store_path: &Path,
        cfg: LeaseConfig,
        io: Arc<dyn StoreIo>,
    ) -> Result<LeaseManager, String> {
        let violations = cfg.validate();
        if !violations.is_empty() {
            let msgs: Vec<String> = violations.iter().map(LeaseViolation::to_string).collect();
            return Err(msgs.join("; "));
        }
        Ok(LeaseManager {
            log: LeaseLog::beside_with_io(store_path, io),
            lock_path: lease_lock_path(store_path),
            cfg,
            tracker: Mutex::new(StalenessTracker::default()),
            hooks: Arc::new(NoHooks),
            claim_seq: AtomicU64::new(0),
            beat_seq: AtomicU64::new(0),
            commit_seq: AtomicU64::new(0),
            stolen: AtomicU64::new(0),
            fenced: AtomicU64::new(0),
        })
    }

    /// Installs chaos hooks (builder-style, before wrapping in `Arc`).
    pub fn with_hooks(mut self, hooks: Arc<dyn LeaseHooks>) -> LeaseManager {
        self.hooks = hooks;
        self
    }

    /// This worker's config.
    pub fn config(&self) -> &LeaseConfig {
        &self.cfg
    }

    /// The lease-log path (chaos hooks use it to tear claims).
    pub fn log_path(&self) -> &Path {
        self.log.path()
    }

    /// Leases stolen from expired peers so far.
    pub fn stolen_count(&self) -> u64 {
        self.stolen.load(Ordering::SeqCst)
    }

    /// Commits refused because our lease was stolen mid-run.
    pub fn fenced_count(&self) -> u64 {
        self.fenced.load(Ordering::SeqCst)
    }

    /// Loads and resolves the lease log.
    pub fn view(&self) -> Result<LeaseView, String> {
        let contents = self.log.load()?;
        let mut view = resolve_leases(&contents.records);
        view.corrupt_lines = contents.corrupt_lines;
        Ok(view)
    }

    /// One observation round: loads the log and ticks the staleness
    /// tracker. Call once per executor drain round.
    pub fn observe(&self) -> Result<LeaseView, String> {
        let view = self.view()?;
        let mut tracker = self.tracker.lock().unwrap_or_else(|e| e.into_inner());
        tracker.observe(&view);
        Ok(view)
    }

    /// The resolved current epoch for `job` (0 = never claimed).
    pub fn current_epoch(&self, job: &str) -> Result<u64, String> {
        Ok(self.view()?.jobs.get(job).map(|l| l.epoch).unwrap_or(0))
    }

    /// True when `job` is held by a live foreign lease this worker
    /// would not steal yet (not stale per the tracker). The executor
    /// keeps such jobs out of the front of its bounded claim window so
    /// a peer's held job cannot crowd out claimable or stealable work;
    /// the moment the tracker flags the lease stale this returns false
    /// and the job becomes eligible for an immediate steal regardless
    /// of its position in the grid.
    pub fn blocked_by_peer(&self, view: &LeaseView, job: &str) -> bool {
        view.jobs.get(job).is_some_and(|l| {
            l.live()
                && l.worker != self.cfg.worker
                && !self
                    .tracker
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .is_stale(job, self.cfg.stale_rounds)
        })
    }

    /// Claims as many of `candidates` as legitimately claimable under
    /// one advisory lock: fresh jobs at epoch 1, finished/released
    /// leases at `max_epoch + 1`, stale peer leases stolen at
    /// `max_epoch + 1`. Live peer leases are skipped. Returns
    /// `(job, epoch)` pairs this worker now holds.
    pub fn claim_batch(&self, candidates: &[String]) -> Result<Vec<(String, u64)>, String> {
        let lock = self.acquire_claim_lock();
        let view = self.view()?;
        let mut claimed = Vec::new();
        for job in candidates {
            let current = view.jobs.get(job);
            let mut decision = ClaimDecision::default();
            match current {
                None => decision.epoch = Some(1),
                Some(l) if !l.live() => decision.epoch = Some(l.max_epoch + 1),
                Some(l) if l.worker == self.cfg.worker => {
                    // Our own live lease (e.g. a claim whose run was
                    // cut short): re-announce at the same epoch.
                    decision.epoch = Some(l.epoch);
                }
                Some(l) => {
                    let tracker = self.tracker.lock().unwrap_or_else(|e| e.into_inner());
                    if tracker.is_stale(job, self.cfg.stale_rounds) {
                        decision.epoch = Some(l.max_epoch + 1);
                        decision.stolen = true;
                    }
                }
            }
            let seq = self.claim_seq.fetch_add(1, Ordering::SeqCst);
            self.hooks.on_claim(self, seq, job, current, &mut decision);
            let Some(epoch) = decision.epoch else {
                continue;
            };
            let rec = LeaseRecord {
                kind: LeaseKind::Claim,
                job: job.clone(),
                worker: self.cfg.worker.clone(),
                epoch,
                hb: 0,
                ts: unix_now(),
            };
            self.log.append(&rec)?;
            if decision.duplicate {
                self.log.append(&rec)?;
            }
            if decision.stolen {
                self.stolen.fetch_add(1, Ordering::SeqCst);
            }
            claimed.push((job.clone(), epoch));
        }
        drop(lock);
        Ok(claimed)
    }

    /// Heartbeats a held lease with the job's simulation progress.
    /// Best-effort: chaos hooks may suppress it, and callers tolerate
    /// errors (a missed beat only delays peers' staleness verdicts).
    pub fn beat(&self, job: &str, epoch: u64, hb: u64) -> Result<(), String> {
        let seq = self.beat_seq.fetch_add(1, Ordering::SeqCst);
        if !self.hooks.on_beat(seq, job) {
            return Ok(());
        }
        self.log.append(&LeaseRecord {
            kind: LeaseKind::Beat,
            job: job.to_string(),
            worker: self.cfg.worker.clone(),
            epoch,
            hb,
            ts: unix_now(),
        })
    }

    /// Fence-checked result commit: stamps `rec` with our
    /// `(epoch, worker)` identity, refuses if the job's lease has
    /// moved past `epoch`, otherwise appends to the store and records
    /// `done` in the lease log.
    pub fn commit(
        &self,
        store: &Store,
        mut rec: Record,
        epoch: u64,
    ) -> Result<CommitOutcome, String> {
        rec.epoch = epoch;
        rec.worker = self.cfg.worker.clone();
        let seq = self.commit_seq.fetch_add(1, Ordering::SeqCst);
        self.hooks.before_commit(self, store, seq, &mut rec);
        if self.cfg.fence {
            let current = self.current_epoch(&rec.job)?;
            if current > epoch {
                self.fenced.fetch_add(1, Ordering::SeqCst);
                return Ok(CommitOutcome::Fenced {
                    current_epoch: current,
                });
            }
        }
        let job = rec.job.clone();
        store.append(&rec)?;
        self.log.append(&LeaseRecord {
            kind: LeaseKind::Done,
            job,
            worker: self.cfg.worker.clone(),
            epoch,
            hb: 0,
            ts: unix_now(),
        })?;
        Ok(CommitOutcome::Committed)
    }

    /// Gives a held lease up without committing (the job becomes
    /// immediately claimable by anyone at `max_epoch + 1`).
    pub fn release(&self, job: &str, epoch: u64) -> Result<(), String> {
        self.log.append(&LeaseRecord {
            kind: LeaseKind::Abort,
            job: job.to_string(),
            worker: self.cfg.worker.clone(),
            epoch,
            hb: 0,
            ts: unix_now(),
        })
    }

    /// Takes the advisory claim lock with a bounded wait, then barges:
    /// the lock only reduces duplicate claims between polite peers; a
    /// peer that died holding it (the OS releases advisory locks on
    /// process exit, but a wedged-not-dead peer may sit on it) must
    /// not wedge the whole sweep. Returns the open handle; dropping it
    /// releases the lock.
    fn acquire_claim_lock(&self) -> Option<std::fs::File> {
        let file = std::fs::OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(false)
            .open(&self.lock_path)
            .ok()?;
        for _ in 0..500 {
            match file.try_lock() {
                Ok(()) => return Some(file),
                Err(std::fs::TryLockError::WouldBlock) => {
                    std::thread::sleep(Duration::from_millis(2));
                }
                // Filesystem without lock support: proceed unlocked —
                // epoch fencing still guarantees correctness.
                Err(std::fs::TryLockError::Error(_)) => return Some(file),
            }
        }
        Some(file)
    }
}

/// Heartbeat for one running job: one beat of the lease with
/// `CancelToken::progress` (committed instructions) at spawn, then a
/// thread that beats every half poll interval until dropped. Progress-based beats mean a
/// wedged simulation stops advancing `hb` and its lease goes stale —
/// exactly the signal peers need to steal it.
pub struct HeartbeatGuard {
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl HeartbeatGuard {
    /// Starts beating `job` at `epoch` with `token`'s progress.
    pub fn spawn(
        mgr: Arc<LeaseManager>,
        job: String,
        epoch: u64,
        token: Arc<CancelToken>,
    ) -> HeartbeatGuard {
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = stop.clone();
        let interval = (mgr.config().poll / 2).max(Duration::from_millis(5));
        // The first beat is synchronous: a job shorter than the thread's
        // start-up would otherwise never beat, leaving the beat count to
        // the scheduler.
        let _ = mgr.beat(&job, epoch, token.progress());
        let handle = std::thread::spawn(move || {
            loop {
                std::thread::sleep(interval);
                if stop2.load(Ordering::SeqCst) {
                    break;
                }
                // Errors are tolerated: a lost beat only delays the
                // staleness verdict peers reach about us.
                let _ = mgr.beat(&job, epoch, token.progress());
            }
        });
        HeartbeatGuard {
            stop,
            handle: Some(handle),
        }
    }
}

impl Drop for HeartbeatGuard {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "rop-lease-test-{name}-{}.jsonl",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&p);
        let _ = std::fs::remove_file(lease_log_path(&p));
        let _ = std::fs::remove_file(lease_lock_path(&p));
        p
    }

    fn mgr(store: &Path, worker: &str) -> LeaseManager {
        let mut cfg = LeaseConfig::new(worker);
        cfg.stale_rounds = 2;
        LeaseManager::new(store, cfg).unwrap()
    }

    fn cleanup(store: &Path) {
        let _ = std::fs::remove_file(store);
        let _ = std::fs::remove_file(lease_log_path(store));
        let _ = std::fs::remove_file(lease_lock_path(store));
    }

    #[test]
    fn config_violations_carry_stable_rule_ids() {
        let mut cfg = LeaseConfig::new("");
        cfg.stale_rounds = 0;
        cfg.poll = Duration::ZERO;
        cfg.max_rounds = 0;
        let rules: Vec<&str> = cfg.validate().iter().map(|v| v.rule).collect();
        assert_eq!(
            rules,
            vec![
                "mc-lease-worker",
                "mc-lease-stale",
                "mc-lease-poll",
                "mc-lease-rounds"
            ]
        );
        assert!(LeaseConfig::new("w 1").validate()[0].rule == "mc-lease-worker");
        assert!(LeaseConfig::new("w1").validate().is_empty());
        let err = LeaseManager::new(Path::new("x.jsonl"), LeaseConfig::new("")).unwrap_err();
        assert!(err.contains("mc-lease-worker"), "{err}");
    }

    #[test]
    fn lease_record_roundtrip_rejects_bad_lines() {
        let rec = LeaseRecord {
            kind: LeaseKind::Claim,
            job: "abcd".into(),
            worker: "w1".into(),
            epoch: 2,
            hb: 17,
            ts: 1_700_000_000,
        };
        let back = LeaseRecord::from_json(&Json::parse(&rec.to_json().render()).unwrap()).unwrap();
        assert_eq!(back, rec);
        let j = Json::parse(r#"{"v":1,"kind":"claim","job":"a","worker":"w","epoch":0}"#).unwrap();
        assert!(LeaseRecord::from_json(&j).is_err(), "epoch 0 reserved");
        let j = Json::parse(r#"{"v":2,"kind":"claim","job":"a","worker":"w","epoch":1}"#).unwrap();
        assert!(LeaseRecord::from_json(&j).is_err(), "unknown version");
        let j = Json::parse(r#"{"v":1,"kind":"zap","job":"a","worker":"w","epoch":1}"#).unwrap();
        assert!(LeaseRecord::from_json(&j).is_err(), "unknown kind");
    }

    #[test]
    fn fresh_claim_then_done_then_reclaim_bumps_epoch() {
        let store_path = tmp("reclaim");
        let store = Store::open(&store_path);
        let m = mgr(&store_path, "w1");
        let claimed = m.claim_batch(&["aaaa".into()]).unwrap();
        assert_eq!(claimed, vec![("aaaa".to_string(), 1)]);
        // Live lease held by us: re-announced at the same epoch.
        let again = m.claim_batch(&["aaaa".into()]).unwrap();
        assert_eq!(again, vec![("aaaa".to_string(), 1)]);
        // A peer skips our live lease entirely.
        let peer = mgr(&store_path, "w2");
        assert!(peer.claim_batch(&["aaaa".into()]).unwrap().is_empty());
        // Commit (as a failed record: done still ends the lease), then
        // the next claim goes to epoch 2.
        let rec = Record {
            job: "aaaa".into(),
            label: "t/aaaa".into(),
            status: crate::store::Status::Failed,
            attempts: 1,
            panic_msg: Some("boom".into()),
            ts: 0,
            metrics: None,
            epoch: 0,
            worker: String::new(),
        };
        assert_eq!(m.commit(&store, rec, 1).unwrap(), CommitOutcome::Committed);
        let reclaimed = peer.claim_batch(&["aaaa".into()]).unwrap();
        assert_eq!(reclaimed, vec![("aaaa".to_string(), 2)]);
        cleanup(&store_path);
    }

    #[test]
    fn stale_lease_is_stolen_after_counter_rounds_and_commit_is_fenced() {
        let store_path = tmp("steal");
        let store = Store::open(&store_path);
        let dead = mgr(&store_path, "wdead");
        assert_eq!(dead.claim_batch(&["aaaa".into()]).unwrap().len(), 1);

        let thief = mgr(&store_path, "wthief");
        // Round 0 registers the triple; rounds 1..=2 see it unchanged
        // (stale_rounds = 2 in these tests).
        for _ in 0..3 {
            thief.observe().unwrap();
        }
        let stolen = thief.claim_batch(&["aaaa".into()]).unwrap();
        assert_eq!(stolen, vec![("aaaa".to_string(), 2)]);
        assert_eq!(thief.stolen_count(), 1);

        // The zombie's late commit at epoch 1 is fenced off.
        let rec = Record {
            job: "aaaa".into(),
            label: "t/aaaa".into(),
            status: crate::store::Status::Failed,
            attempts: 1,
            panic_msg: Some("late".into()),
            ts: 0,
            metrics: None,
            epoch: 0,
            worker: String::new(),
        };
        assert_eq!(
            dead.commit(&store, rec, 1).unwrap(),
            CommitOutcome::Fenced { current_epoch: 2 }
        );
        assert_eq!(dead.fenced_count(), 1);
        assert!(store.load().unwrap().records.is_empty(), "nothing landed");
        cleanup(&store_path);
    }

    #[test]
    fn heartbeats_keep_a_lease_fresh() {
        let store_path = tmp("beats");
        let holder = mgr(&store_path, "wheld");
        assert_eq!(holder.claim_batch(&["aaaa".into()]).unwrap().len(), 1);
        let watcher = mgr(&store_path, "wwatch");
        for hb in 1..=4u64 {
            holder.beat("aaaa", 1, hb * 100).unwrap();
            watcher.observe().unwrap();
        }
        // hb advanced every round: never stale, never claimable.
        assert!(watcher.claim_batch(&["aaaa".into()]).unwrap().is_empty());
        cleanup(&store_path);
    }

    #[test]
    fn released_lease_is_immediately_reclaimable() {
        let store_path = tmp("release");
        let m = mgr(&store_path, "w1");
        assert_eq!(m.claim_batch(&["aaaa".into()]).unwrap().len(), 1);
        m.release("aaaa", 1).unwrap();
        let peer = mgr(&store_path, "w2");
        assert_eq!(
            peer.claim_batch(&["aaaa".into()]).unwrap(),
            vec![("aaaa".to_string(), 2)]
        );
        cleanup(&store_path);
    }

    #[test]
    fn resolution_is_permutation_independent() {
        let recs = vec![
            LeaseRecord {
                kind: LeaseKind::Claim,
                job: "j".into(),
                worker: "wa".into(),
                epoch: 1,
                hb: 0,
                ts: 10,
            },
            LeaseRecord {
                kind: LeaseKind::Beat,
                job: "j".into(),
                worker: "wa".into(),
                epoch: 1,
                hb: 500,
                ts: 11,
            },
            LeaseRecord {
                kind: LeaseKind::Claim,
                job: "j".into(),
                worker: "wb".into(),
                epoch: 2,
                hb: 0,
                ts: 12,
            },
            LeaseRecord {
                kind: LeaseKind::Done,
                job: "j".into(),
                worker: "wb".into(),
                epoch: 2,
                hb: 0,
                ts: 13,
            },
        ];
        let forward = resolve_leases(&recs);
        let mut rev = recs.clone();
        rev.reverse();
        let backward = resolve_leases(&rev);
        assert_eq!(forward.jobs, backward.jobs);
        let l = &forward.jobs["j"];
        assert_eq!((l.epoch, l.worker.as_str(), l.done), (2, "wb", true));
        assert_eq!(l.hb, 0, "loser's beats must not leak onto the winner");
        assert_eq!(l.claims, 2);
    }

    #[test]
    fn torn_lease_lines_are_quarantined() {
        let store_path = tmp("torn");
        let m = mgr(&store_path, "w1");
        m.claim_batch(&["aaaa".into()]).unwrap();
        // A worker died mid-append: half a claim line, no newline.
        let log_path = lease_log_path(&store_path);
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&log_path)
            .unwrap();
        use std::io::Write;
        f.write_all(b"{\"v\":1,\"kind\":\"claim\",\"jo").unwrap();
        drop(f);
        let view = m.view().unwrap();
        assert_eq!(view.corrupt_lines, 1);
        assert_eq!(view.jobs.len(), 1);
        cleanup(&store_path);
    }
}
