//! Fault-isolated worker pool.
//!
//! Workers pull jobs from a shared queue (an atomic cursor — idle
//! workers immediately steal whatever is next, so a slow job never
//! serializes the rest). Each job runs under `catch_unwind` with a
//! bounded retry budget: a panicking job is retried in place and, once
//! the budget is exhausted, reported as [`JobOutcome::Failed`] with the
//! panic message — the sweep itself never aborts.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

use rop_sim_system::runner::{panic_message, CancelToken};

use crate::progress::Progress;

/// Observes every job attempt from outside the job body.
///
/// The pool hands each attempt's [`CancelToken`] to the supervisor so
/// it can be registered with a watchdog (stalled attempts get cancelled
/// rather than waited on forever). `attempt_starts` runs *inside* the
/// attempt's `catch_unwind`, so a panic raised there — e.g. an injected
/// fault from the chaos harness — fails the attempt exactly as a panic
/// from the job body would, consuming one retry. `attempt_ends` always
/// runs, whether the attempt succeeded or panicked, so registrations
/// cannot leak.
pub trait Supervisor: Send + Sync {
    /// Called inside the attempt's `catch_unwind`, before the job body.
    fn attempt_starts(&self, label: &str, attempt: u32, token: &Arc<CancelToken>);
    /// Called after the attempt resolves (ok or panicked).
    fn attempt_ends(&self, label: &str, attempt: u32, ok: bool);
}

/// Worker-pool knobs.
#[derive(Clone)]
pub struct PoolConfig {
    /// Worker threads. Defaults to the machine's available parallelism.
    pub workers: usize,
    /// Total attempts per job (1 = no retry). A job is `Failed` only
    /// after panicking this many times.
    pub max_attempts: u32,
    /// Run at most this many jobs (ok or failed); the rest come back
    /// as [`JobOutcome::NotRun`]. The cap is enforced at claim time as
    /// a single atomic decision, so exactly `min(cap, jobs)` run no
    /// matter how many workers race. This is the test hook that
    /// simulates killing a sweep mid-flight.
    pub stop_after: Option<usize>,
    /// When set, a reporter thread prints a progress line to stderr at
    /// this interval while the pool runs.
    pub report_interval: Option<Duration>,
    /// Base delay between failed attempts of the same job. The worker
    /// sleeps a jittered exponential backoff — uniformly drawn from
    /// `[full/2, full]` where `full = base * 2^(attempt-1)` (exponent
    /// capped at 10, total capped at 5 s) — before retrying, so a job
    /// poisoned by a transient environment fault does not burn its
    /// whole budget in one burst and N workers hitting the same fault
    /// do not retry in lockstep. `None` retries immediately (the
    /// pre-chaos behaviour).
    pub retry_backoff: Option<Duration>,
    /// Seed for the backoff jitter. The draw is a pure function of
    /// `(seed, job label, attempt)` — no global RNG, no clock — so a
    /// chaos replay with the same seed sleeps the same delays and
    /// stays byte-identical.
    pub backoff_seed: u64,
    /// Attempt observer (watchdog registration, fault injection).
    pub supervisor: Option<Arc<dyn Supervisor>>,
}

impl std::fmt::Debug for PoolConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PoolConfig")
            .field("workers", &self.workers)
            .field("max_attempts", &self.max_attempts)
            .field("stop_after", &self.stop_after)
            .field("report_interval", &self.report_interval)
            .field("retry_backoff", &self.retry_backoff)
            .field("backoff_seed", &self.backoff_seed)
            .field("supervisor", &self.supervisor.as_ref().map(|_| "<dyn>"))
            .finish()
    }
}

impl Default for PoolConfig {
    fn default() -> Self {
        PoolConfig {
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
            max_attempts: 2,
            stop_after: None,
            report_interval: None,
            retry_backoff: None,
            backoff_seed: 0,
            supervisor: None,
        }
    }
}

/// Backoff delay before retry number `attempt + 1`, given the attempt
/// that just failed: a jittered exponential, uniformly drawn from
/// `[full/2, full]` where `full` has a capped exponent and a 5 s
/// ceiling so misconfigured bases cannot wedge a worker. The jitter is
/// a pure function of `(seed, salt, failed_attempt)` — deterministic
/// for replays, decorrelated across jobs and workers via the salt.
fn backoff_delay(base: Duration, failed_attempt: u32, seed: u64, salt: u64) -> Duration {
    let exp = failed_attempt.saturating_sub(1).min(10);
    let full = base.saturating_mul(1u32 << exp).min(Duration::from_secs(5));
    let half = full / 2;
    let span = (full - half).as_nanos() as u64;
    if span == 0 {
        return full;
    }
    let draw = splitmix64(
        seed ^ salt.rotate_left(17) ^ (failed_attempt as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15),
    );
    half + Duration::from_nanos(draw % (span + 1))
}

/// SplitMix64: the one-shot mixer the chaos planner also uses; good
/// enough to decorrelate retry delays and dead cheap.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// FNV-1a over a job label: the per-job salt for the backoff jitter.
fn label_salt(label: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in label.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Terminal state of one job.
#[derive(Debug, Clone)]
pub enum JobOutcome<R> {
    /// The job produced a value (possibly after retries).
    Ok {
        /// The job's result.
        value: R,
        /// Attempts used (1 = first try succeeded).
        attempts: u32,
    },
    /// Every attempt panicked; the job is poisoned but isolated.
    Failed {
        /// Message of the final panic (labeled by the job runner).
        panic_msg: String,
        /// Attempts used (== `max_attempts`).
        attempts: u32,
    },
    /// The pool stopped (via `stop_after`) before claiming this job.
    NotRun,
}

impl<R> JobOutcome<R> {
    /// True for [`JobOutcome::Ok`].
    pub fn is_ok(&self) -> bool {
        matches!(self, JobOutcome::Ok { .. })
    }
}

/// Runs every job and returns one outcome per job, in input order.
///
/// `label` names a job for progress display and failure records;
/// `work` is the job body (it may panic — that is the point). Each
/// attempt gets a fresh [`CancelToken`]: the body should thread it into
/// long-running work (e.g. [`rop_sim_system::runner::SweepJob::run_with`])
/// so a watchdog registered through [`PoolConfig::supervisor`] can
/// cancel a stalled attempt cooperatively.
pub fn run_jobs<J, R>(
    jobs: &[J],
    label: impl Fn(&J) -> String + Sync,
    work: impl Fn(&J, &Arc<CancelToken>) -> R + Sync,
    cfg: &PoolConfig,
    progress: Option<Arc<Progress>>,
) -> Vec<JobOutcome<R>>
where
    J: Sync,
    R: Send,
{
    let mut results: Vec<JobOutcome<R>> = (0..jobs.len()).map(|_| JobOutcome::NotRun).collect();
    if jobs.is_empty() {
        return results;
    }
    let workers = cfg.workers.max(1).min(jobs.len());
    let next = AtomicUsize::new(0);
    let claims = AtomicUsize::new(0);
    let done_flag = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, JobOutcome<R>)>();

    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for w in 0..workers {
            let tx = tx.clone();
            let (next, claims, jobs, label, work, progress) =
                (&next, &claims, jobs, &label, &work, &progress);
            handles.push(scope.spawn(move || loop {
                // The cap check IS the claim: one fetch_add decides
                // whether this worker may take another job, so workers
                // racing past a separate "have enough finished?" test
                // can never overshoot the cap.
                if let Some(cap) = cfg.stop_after {
                    if claims.fetch_add(1, Ordering::SeqCst) >= cap {
                        break;
                    }
                }
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= jobs.len() {
                    break;
                }
                let name = label(&jobs[i]);
                if let Some(p) = progress {
                    p.worker_starts(w, &name);
                }
                let mut attempts = 0;
                let outcome = loop {
                    attempts += 1;
                    let token = CancelToken::new();
                    let result = catch_unwind(AssertUnwindSafe(|| {
                        if let Some(sup) = &cfg.supervisor {
                            sup.attempt_starts(&name, attempts, &token);
                        }
                        work(&jobs[i], &token)
                    }));
                    if let Some(sup) = &cfg.supervisor {
                        sup.attempt_ends(&name, attempts, result.is_ok());
                    }
                    match result {
                        Ok(value) => break JobOutcome::Ok { value, attempts },
                        Err(payload) => {
                            let msg = panic_message(payload.as_ref());
                            if attempts >= cfg.max_attempts {
                                break JobOutcome::Failed {
                                    panic_msg: msg,
                                    attempts,
                                };
                            }
                            if let Some(base) = cfg.retry_backoff {
                                let delay = backoff_delay(
                                    base,
                                    attempts,
                                    cfg.backoff_seed,
                                    label_salt(&name),
                                );
                                if !delay.is_zero() {
                                    std::thread::sleep(delay);
                                }
                            }
                        }
                    }
                };
                if let Some(p) = progress {
                    p.worker_finishes(w, outcome.is_ok());
                }
                // A send error means the receiver is gone, which only
                // happens if the scope is unwinding from a panic.
                let _ = tx.send((i, outcome));
            }));
        }
        drop(tx);

        // Optional reporter thread; exits when all workers are done.
        if let Some(interval) = cfg.report_interval {
            if let Some(p) = progress.clone() {
                let done_flag = &done_flag;
                handles.push(scope.spawn(move || {
                    while done_flag.load(Ordering::SeqCst) == 0 {
                        std::thread::sleep(interval.min(Duration::from_millis(200)));
                        eprintln!("# sweep: {}", p.snapshot());
                    }
                }));
            }
        }

        for (i, outcome) in rx {
            results[i] = outcome;
        }
        done_flag.store(1, Ordering::SeqCst);
        // The scope alone returns once every closure has finished, which
        // can be before the threads have exited and handed their malloc
        // arenas back; a batch spawned right after would then open a new
        // arena, and back-to-back batches ratchet the resident set up.
        // Joining waits for the exit. Job panics are caught above; any
        // other panic is re-raised with its own payload.
        let panics: Vec<_> = handles.into_iter().filter_map(|h| h.join().err()).collect();
        if let Some(payload) = panics.into_iter().next() {
            std::panic::resume_unwind(payload);
        }
    });
    results
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    fn cfg(workers: usize, max_attempts: u32) -> PoolConfig {
        PoolConfig {
            workers,
            max_attempts,
            ..PoolConfig::default()
        }
    }

    #[test]
    fn all_jobs_run_in_order() {
        let jobs: Vec<u64> = (0..30).collect();
        let out = run_jobs(&jobs, |j| format!("j{j}"), |&j, _| j * 3, &cfg(4, 1), None);
        for (i, o) in out.iter().enumerate() {
            match o {
                JobOutcome::Ok { value, attempts } => {
                    assert_eq!(*value, i as u64 * 3);
                    assert_eq!(*attempts, 1);
                }
                other => panic!("job {i}: unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn panicking_job_is_isolated_and_retried_to_the_bound() {
        let jobs: Vec<u32> = (0..6).collect();
        let tries = AtomicU32::new(0);
        let out = run_jobs(
            &jobs,
            |j| format!("job-{j}"),
            |&j, _| {
                if j == 3 {
                    tries.fetch_add(1, Ordering::SeqCst);
                    panic!("poisoned job {j}");
                }
                j
            },
            &cfg(3, 3),
            None,
        );
        // The poisoned job used its full retry budget…
        assert_eq!(tries.load(Ordering::SeqCst), 3);
        match &out[3] {
            JobOutcome::Failed {
                panic_msg,
                attempts,
            } => {
                assert_eq!(*attempts, 3);
                assert!(panic_msg.contains("poisoned job 3"), "{panic_msg}");
            }
            other => panic!("unexpected {other:?}"),
        }
        // …and every other job still completed.
        for (i, o) in out.iter().enumerate() {
            if i != 3 {
                assert!(o.is_ok(), "job {i} did not complete: {o:?}");
            }
        }
    }

    #[test]
    fn flaky_job_succeeds_within_budget() {
        let jobs = vec![()];
        let tries = AtomicU32::new(0);
        let out = run_jobs(
            &jobs,
            |_| "flaky".into(),
            |_, _| {
                if tries.fetch_add(1, Ordering::SeqCst) < 2 {
                    panic!("transient");
                }
                42u32
            },
            &cfg(1, 5),
            None,
        );
        match &out[0] {
            JobOutcome::Ok { value, attempts } => {
                assert_eq!(*value, 42);
                assert_eq!(*attempts, 3);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn stop_after_leaves_remaining_not_run() {
        let jobs: Vec<u32> = (0..10).collect();
        let mut c = cfg(1, 1); // single worker → deterministic cut
        c.stop_after = Some(4);
        let out = run_jobs(&jobs, |j| format!("{j}"), |&j, _| j, &c, None);
        let ran = out.iter().filter(|o| o.is_ok()).count();
        let not_run = out
            .iter()
            .filter(|o| matches!(o, JobOutcome::NotRun))
            .count();
        assert_eq!(ran, 4);
        assert_eq!(not_run, 6);
    }

    #[test]
    fn stop_after_is_exact_under_worker_races() {
        // Many workers hammering the claim path: the cap must hold
        // exactly, not approximately. The old finished-count check let
        // every in-flight worker claim one more job past the cap.
        let jobs: Vec<u32> = (0..100).collect();
        let mut c = cfg(8, 1);
        c.stop_after = Some(7);
        let out = run_jobs(
            &jobs,
            |j| format!("{j}"),
            |&j, _| {
                std::thread::sleep(Duration::from_millis(1));
                j
            },
            &c,
            None,
        );
        let ran = out.iter().filter(|o| o.is_ok()).count();
        let not_run = out
            .iter()
            .filter(|o| matches!(o, JobOutcome::NotRun))
            .count();
        assert_eq!(ran, 7);
        assert_eq!(not_run, 93);
    }

    #[test]
    fn stop_after_zero_runs_nothing() {
        let jobs: Vec<u32> = (0..5).collect();
        let mut c = cfg(3, 1);
        c.stop_after = Some(0);
        let out = run_jobs(&jobs, |j| format!("{j}"), |&j, _| j, &c, None);
        assert!(out.iter().all(|o| matches!(o, JobOutcome::NotRun)));
    }

    #[test]
    fn progress_counts_match() {
        let jobs: Vec<u32> = (0..8).collect();
        let p = Arc::new(Progress::new(jobs.len(), 0, 2));
        let out = run_jobs(
            &jobs,
            |j| format!("{j}"),
            |&j, _| {
                if j == 1 {
                    panic!("bad");
                }
                j
            },
            &cfg(2, 1),
            Some(p.clone()),
        );
        let s = p.snapshot();
        assert_eq!(s.completed, 7);
        assert_eq!(s.failed, 1);
        assert_eq!(s.remaining, 0);
        assert_eq!(out.len(), 8);
    }

    #[test]
    fn supervisor_sees_every_attempt_and_injected_panics_consume_retries() {
        use std::sync::Mutex;

        #[derive(Default)]
        struct Recorder {
            events: Mutex<Vec<(String, u32, &'static str)>>,
        }
        impl Supervisor for Recorder {
            fn attempt_starts(&self, label: &str, attempt: u32, token: &Arc<CancelToken>) {
                assert!(!token.is_cancelled(), "fresh token per attempt");
                self.events.lock().unwrap_or_else(|e| e.into_inner()).push((
                    label.to_string(),
                    attempt,
                    "start",
                ));
                // Inject: first attempt of job "bomb" dies before the
                // body runs — exactly one retry is consumed.
                if label == "bomb" && attempt == 1 {
                    panic!("injected: pre-body fault"); // rop-lint: allow(no-panic)
                }
            }
            fn attempt_ends(&self, label: &str, attempt: u32, ok: bool) {
                self.events.lock().unwrap_or_else(|e| e.into_inner()).push((
                    label.to_string(),
                    attempt,
                    if ok { "ok" } else { "err" },
                ));
            }
        }

        let sup = Arc::new(Recorder::default());
        let jobs = vec!["bomb", "calm"];
        let mut c = cfg(1, 3);
        c.supervisor = Some(sup.clone() as Arc<dyn Supervisor>);
        c.retry_backoff = Some(Duration::from_millis(1));
        let out = run_jobs(&jobs, |j| j.to_string(), |&j, _| j.len(), &c, None);
        // The injected fault consumed one attempt; the retry succeeded.
        match &out[0] {
            JobOutcome::Ok { value, attempts } => {
                assert_eq!(*value, 4);
                assert_eq!(*attempts, 2);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(out[1].is_ok());
        let events = sup.events.lock().unwrap_or_else(|e| e.into_inner());
        let bomb: Vec<_> = events.iter().filter(|(l, _, _)| l == "bomb").collect();
        assert_eq!(
            bomb.iter().map(|(_, a, k)| (*a, *k)).collect::<Vec<_>>(),
            vec![(1, "start"), (1, "err"), (2, "start"), (2, "ok")],
            "attempt_ends fires even when attempt_starts panicked"
        );
    }

    #[test]
    fn backoff_delay_is_exponential_capped_and_jittered_within_bounds() {
        let base = Duration::from_millis(10);
        let full = |attempt: u32| {
            Duration::from_millis(10)
                .saturating_mul(1u32 << attempt.saturating_sub(1).min(10))
                .min(Duration::from_secs(5))
        };
        for attempt in [1u32, 2, 4, 40] {
            for seed in 0..8u64 {
                let d = backoff_delay(base, attempt, seed, label_salt("job-x"));
                let f = full(attempt);
                assert!(
                    d >= f / 2,
                    "attempt {attempt} seed {seed}: {d:?} < {:?}",
                    f / 2
                );
                assert!(d <= f, "attempt {attempt} seed {seed}: {d:?} > {f:?}");
            }
        }
        // The 5 s ceiling holds even for misconfigured bases.
        assert!(backoff_delay(Duration::from_secs(60), 1, 3, 7) <= Duration::from_secs(5));
    }

    #[test]
    fn backoff_jitter_is_seed_deterministic_and_decorrelated() {
        let base = Duration::from_millis(10);
        // Same (seed, label, attempt) → identical delay, every time:
        // a chaos replay sleeps exactly what the original run slept.
        for attempt in 1..=5u32 {
            let a = backoff_delay(base, attempt, 42, label_salt("single/lbm"));
            let b = backoff_delay(base, attempt, 42, label_salt("single/lbm"));
            assert_eq!(a, b);
        }
        // Different seeds (and different labels under one seed) spread
        // out: at least one pair must differ, or the "jitter" is a
        // constant and workers retry in lockstep again.
        let spread: std::collections::HashSet<Duration> = (0..16u64)
            .map(|seed| backoff_delay(base, 3, seed, label_salt("single/lbm")))
            .collect();
        assert!(spread.len() > 8, "seeds barely move the delay: {spread:?}");
        let across_jobs: std::collections::HashSet<Duration> = ["a", "b", "c", "d", "e", "f"]
            .iter()
            .map(|l| backoff_delay(base, 3, 42, label_salt(l)))
            .collect();
        assert!(across_jobs.len() > 3, "labels barely move the delay");
    }

    #[test]
    fn worker_token_reaches_the_job_body() {
        let jobs = vec![()];
        let out = run_jobs(
            &jobs,
            |_| "tok".into(),
            |_, token: &Arc<CancelToken>| {
                token.beat(7);
                token.progress()
            },
            &cfg(1, 1),
            None,
        );
        match &out[0] {
            JobOutcome::Ok { value, .. } => assert_eq!(*value, 7),
            other => panic!("unexpected {other:?}"),
        }
    }
}
