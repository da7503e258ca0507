//! Experiment runner: builds and runs systems, with a scoped-thread
//! parallel map for sweeping benchmarks × systems.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use rop_trace::{Benchmark, WorkloadMix};

use crate::config::{SystemConfig, SystemKind};
use crate::metrics::RunMetrics;
use crate::system::System;
use crate::Cycle;

/// Cooperative cancellation and progress heartbeat shared between a
/// running simulation and an external watchdog.
///
/// The simulation side calls [`CancelToken::beat`] with its current
/// cycle on every engine iteration and [`CancelToken::checkpoint`]s at
/// the same cadence; a supervisor thread reads [`CancelToken::progress`]
/// from outside and calls [`CancelToken::cancel`] when the heartbeat
/// stalls (hung job) or exceeds a cycle budget. Cancellation surfaces as
/// a labeled panic at the next checkpoint, which the harness pool's
/// `catch_unwind` fault isolation converts into a retryable attempt
/// failure — so a cancelled job is indistinguishable from any other
/// isolated fault and the sweep keeps draining.
///
/// Deliberately built from atomics only: no wall-clock state lives in
/// this (deterministic) crate, and when nobody cancels, beating is a
/// pair of relaxed atomic operations that cannot perturb simulation
/// results.
#[derive(Debug, Default)]
pub struct CancelToken {
    cancelled: AtomicBool,
    heartbeat: AtomicU64,
}

impl CancelToken {
    /// A fresh, shareable token.
    pub fn new() -> Arc<CancelToken> {
        Arc::new(CancelToken::default())
    }

    /// Requests cancellation; the running job panics at its next
    /// [`CancelToken::checkpoint`].
    pub fn cancel(&self) {
        self.cancelled.store(true, Ordering::SeqCst);
    }

    /// True once [`CancelToken::cancel`] has been called.
    pub fn is_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::SeqCst)
    }

    /// Publishes the job's progress (the current simulation cycle).
    pub fn beat(&self, progress: u64) {
        self.heartbeat.store(progress, Ordering::Relaxed);
    }

    /// The most recently published progress value.
    pub fn progress(&self) -> u64 {
        self.heartbeat.load(Ordering::Relaxed)
    }

    /// Cooperative cancellation point: panics when cancelled.
    pub fn checkpoint(&self) {
        if self.is_cancelled() {
            // Documented contract: cancellation IS a panic, so the
            // pool's fault isolation handles it like any other failure.
            panic!("cancelled by watchdog at cycle {}", self.progress()); // rop-lint: allow(no-panic)
        }
    }
}

/// Work quota and safety cap for a run.
#[derive(Debug, Clone, Copy)]
pub struct RunSpec {
    /// Instructions each core must retire.
    pub instructions: u64,
    /// Hard cycle cap (guards against pathological configurations).
    pub max_cycles: Cycle,
    /// Master seed.
    pub seed: u64,
}

impl RunSpec {
    /// Quick spec for tests and smoke runs.
    pub fn quick() -> Self {
        RunSpec {
            instructions: 300_000,
            max_cycles: 50_000_000,
            seed: 42,
        }
    }

    /// Full spec used by the `repro` binary (several thousand refreshes
    /// per run; minutes per figure on a laptop-class machine).
    pub fn full() -> Self {
        RunSpec {
            instructions: 20_000_000,
            max_cycles: 2_000_000_000,
            seed: 42,
        }
    }

    /// Reads `ROP_INSTR` (instructions per core), `ROP_SEED` (master
    /// seed) and `ROP_MAX_CYCLES` (safety cap) from the environment,
    /// falling back to [`RunSpec::full`] for anything unset or
    /// malformed. Lets CI shrink the workload.
    pub fn from_env() -> Self {
        Self::from_env_with(|key| std::env::var(key).ok())
    }

    /// [`RunSpec::from_env`] with an injected variable getter, so tests
    /// can exercise the parsing without mutating process-global state.
    pub fn from_env_with(getter: impl Fn(&str) -> Option<String>) -> Self {
        let parse = |key: &str| -> Option<u64> { getter(key)?.trim().parse::<u64>().ok() };
        let mut spec = Self::full();
        if let Some(n) = parse("ROP_INSTR") {
            spec.instructions = n.max(1);
        }
        if let Some(n) = parse("ROP_SEED") {
            spec.seed = n;
        }
        if let Some(n) = parse("ROP_MAX_CYCLES") {
            spec.max_cycles = n.max(1);
        }
        spec
    }
}

/// Extracts the human-readable message from a panic payload (the
/// `Box<dyn Any>` that [`std::panic::catch_unwind`] returns).
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs `f`, and if it panics re-raises with `label` prepended to the
/// panic message so sweep-level failures identify the offending
/// benchmark × system instead of an anonymous worker thread.
pub fn with_panic_label<R>(label: &str, f: impl FnOnce() -> R) -> R {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)) {
        Ok(r) => r,
        Err(payload) => {
            std::panic::panic_any(format!("[{label}] {}", panic_message(payload.as_ref())))
        }
    }
}

/// Runs one single-core experiment.
pub fn run_single(benchmark: Benchmark, kind: SystemKind, spec: RunSpec) -> RunMetrics {
    let mut sys = System::new(SystemConfig::single_core(benchmark, kind, spec.seed));
    sys.run_until(spec.instructions, spec.max_cycles)
}

/// Runs one single-core experiment through the per-cycle reference loop.
/// Produces bit-identical metrics to [`run_single`]; exists so benchmarks
/// and differential tests can compare engine implementations.
pub fn run_single_reference(benchmark: Benchmark, kind: SystemKind, spec: RunSpec) -> RunMetrics {
    let mut sys = System::new(SystemConfig::single_core(benchmark, kind, spec.seed));
    sys.run_until_reference(spec.instructions, spec.max_cycles)
}

/// One fully-resolved simulation in a sweep: everything needed to build
/// and run a [`System`], plus a human-readable label for progress
/// reporting and panic attribution.
///
/// Jobs are *declarative*: an experiment enumerates its jobs and hands
/// them to a [`SweepExecutor`], which decides how (and whether) to run
/// them — in-process for the classic figures, or through the persistent
/// `rop-harness` store for resumable sweeps.
#[derive(Debug, Clone)]
pub struct SweepJob {
    /// Display label, e.g. `single/lbm/ROP-64`. Not part of the
    /// identity hash: relabeling must not invalidate stored results.
    pub label: String,
    /// The resolved system configuration (including any controller
    /// override an ablation applied).
    pub config: SystemConfig,
    /// Work quota and seed.
    pub spec: RunSpec,
    /// Run with the invariant auditor attached (see [`crate::audit`]).
    /// Deliberately *not* part of [`SweepJob::fingerprint`]: auditing
    /// checks a run, it does not change what is simulated, so stored
    /// results keep their identity either way.
    pub audit: bool,
}

/// Revision of the simulation model, folded into every job fingerprint.
/// Bump it whenever a change moves what some job simulates without
/// touching its configuration, so a resumed store never serves metrics
/// the current model would not reproduce. Revision 1: FR-FCFS ties
/// break on request id, and the controller wakes when a ROP
/// prefetch-grace window expires.
pub const MODEL_REVISION: u32 = 1;

impl SweepJob {
    /// A single-core job as the paper's single-core experiments run it.
    pub fn single(prefix: &str, benchmark: Benchmark, kind: SystemKind, spec: RunSpec) -> Self {
        SweepJob {
            label: format!("{prefix}/{}/{}", benchmark.name(), kind.label()),
            config: SystemConfig::single_core(benchmark, kind, spec.seed),
            spec,
            audit: false,
        }
    }

    /// A 4-core multiprogram job with an explicit LLC size.
    pub fn multi(mix: WorkloadMix, kind: SystemKind, llc_mib: usize, spec: RunSpec) -> Self {
        let mut config = SystemConfig::multi_core(mix.programs, kind, spec.seed);
        config.llc = rop_cache::CacheConfig::llc_mib(llc_mib);
        SweepJob {
            label: format!("multi/llc{llc_mib}/{}/{}", mix.name, kind.label()),
            config,
            spec,
            audit: false,
        }
    }

    /// A job over an arbitrary configuration (ablations, alone-IPC runs).
    pub fn custom(label: impl Into<String>, config: SystemConfig, spec: RunSpec) -> Self {
        SweepJob {
            label: label.into(),
            config,
            spec,
            audit: false,
        }
    }

    /// Returns the job with auditing switched on or off.
    pub fn with_audit(mut self, audit: bool) -> Self {
        self.audit = audit;
        self
    }

    /// Content hash of the job identity: the fully-resolved
    /// configuration, the run spec (instructions, cycle cap, seed) and
    /// the [`MODEL_REVISION`]. Two jobs with the same hash would
    /// simulate the identical system, so a results store can dedup on
    /// it. FNV-1a over the `Debug` rendering of the resolved config —
    /// stable across runs of the same build, and invalidated when a
    /// config field is added or changed. A model change that moves
    /// results under an unchanged configuration (a scheduler tie-break,
    /// a wake-up hint) bumps [`MODEL_REVISION`] instead, so cached
    /// metrics go stale then too.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint_at(MODEL_REVISION)
    }

    /// [`SweepJob::fingerprint`] under an explicit model revision.
    fn fingerprint_at(&self, revision: u32) -> u64 {
        let canonical = format!("{:?}|{:?}|model-rev{revision}", self.config, self.spec);
        fnv1a_64(canonical.as_bytes())
    }

    /// Runs the simulation (panicking with this job's label on any
    /// internal failure, including config validation).
    pub fn run(&self) -> RunMetrics {
        self.run_with(CancelToken::new())
    }

    /// [`SweepJob::run`] under a cancellation token: the simulation
    /// beats `token` with its cycle count as it advances and panics
    /// (with this job's label) at the next engine iteration after
    /// `token.cancel()` — the seam a watchdog uses to reclaim hung
    /// jobs.
    pub fn run_with(&self, token: Arc<CancelToken>) -> RunMetrics {
        with_panic_label(&self.label, || {
            if let Err(e) = self.config.validate() {
                // Documented contract: run() panics with the job label so
                // the pool can record a labeled failure.
                panic!("invalid config: {e}"); // rop-lint: allow(no-panic)
            }
            if self.config.open_loop.is_some() {
                // Open-loop jobs run the datacenter-traffic injector
                // instead of the trace-driven core pipeline.
                let mut sys = crate::OpenLoopSystem::new(self.config.clone());
                sys.set_cancel_token(token.clone());
                if self.audit {
                    sys.enable_audit();
                }
                return sys.run();
            }
            let mut sys = System::new(self.config.clone());
            sys.set_cancel_token(token.clone());
            if self.audit {
                sys.enable_audit();
            }
            sys.run_until(self.spec.instructions, self.spec.max_cycles)
        })
    }

    /// Zeroed metrics shaped like this job's output (right core count
    /// and labels). Used by planners that enumerate jobs without
    /// running them.
    pub fn placeholder_metrics(&self) -> RunMetrics {
        RunMetrics {
            system: self.config.kind.label(),
            // Open-loop runs have no trace-driven cores; mirror that
            // shape so planners render the right columns.
            cores: if self.config.open_loop.is_some() {
                Vec::new()
            } else {
                self.config
                    .benchmarks
                    .iter()
                    .map(|b| crate::metrics::CoreMetrics {
                        benchmark: b.name().to_string(),
                        instructions: 0,
                        finish_cycle: 0,
                        ipc: 0.0,
                        llc_hits: 0,
                        read_misses: 0,
                        stall_cycles: 0,
                    })
                    .collect()
            },
            total_cycles: 0,
            energy: Default::default(),
            refreshes: 0,
            mechanism: self
                .config
                .ctrl_config()
                .mechanism
                .metrics_label()
                .to_string(),
            refresh_blocked_cycles: 0,
            refreshes_skipped: 0,
            refreshes_pulled_in: 0,
            sram_hit_rate: 0.0,
            sram_lookups: 0,
            prefetches: 0,
            analysis: Vec::new(),
            row_hit_rate: 0.0,
            avg_read_latency: 0.0,
            hit_cycle_cap: false,
            wall_seconds: 0.0,
            instructions_total: 0,
            events: 0,
            audit: None,
            open_loop: self
                .config
                .open_loop
                .as_ref()
                .map(|ol| crate::metrics::OpenLoopMetrics {
                    process: ol.process.label().to_string(),
                    offered_rpkc: ol.offered_rpkc,
                    achieved_rpkc: 0.0,
                    reads_injected: 0,
                    writes_injected: 0,
                    backlog_peak: 0,
                    backlog_final: 0,
                    saturated: false,
                    read_latency: Default::default(),
                    refresh_blocked_latency: Default::default(),
                }),
        }
    }
}

/// 64-bit FNV-1a — the store's stable content hash (no dependency on
/// `std::hash` internals, identical in every process and build).
pub fn fnv1a_64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Strategy for executing a batch of sweep jobs. `execute` must return
/// one [`RunMetrics`] per job, in input order.
///
/// The in-process [`LocalExecutor`] runs everything fresh via
/// [`parallel_map`]; the harness crate provides a store-backed
/// executor with persistence, fault isolation and resume.
pub trait SweepExecutor {
    /// Executes (or resolves from cache) every job, preserving order.
    fn execute(&self, jobs: Vec<SweepJob>) -> Vec<RunMetrics>;
}

/// Default executor: fresh in-process runs on scoped worker threads,
/// panics propagated (with job labels) on first failure.
pub struct LocalExecutor;

impl SweepExecutor for LocalExecutor {
    fn execute(&self, jobs: Vec<SweepJob>) -> Vec<RunMetrics> {
        // `SweepJob::run` labels its own panics.
        parallel_map(jobs, SweepJob::run)
    }
}

/// Executor adapter that switches auditing on for every job before
/// delegating to the wrapped executor. Lets `--audit` flags reuse the
/// experiment drivers unchanged — they keep constructing plain jobs.
pub struct AuditingExecutor<'a>(pub &'a dyn SweepExecutor);

impl SweepExecutor for AuditingExecutor<'_> {
    fn execute(&self, jobs: Vec<SweepJob>) -> Vec<RunMetrics> {
        self.0
            .execute(jobs.into_iter().map(|j| j.with_audit(true)).collect())
    }
}

/// Executor adapter that runs each distinct job (by
/// [`SweepJob::fingerprint`]) once through the wrapped executor and
/// answers every later request for it from memory. Experiments that
/// re-request shared jobs (the 4 MiB point `multi` and `llc` share, the
/// ablation baselines, the analysis runs inside the single-core grid)
/// then simulate each of them once per process, store or no store.
pub struct MemoExecutor<'a> {
    inner: &'a dyn SweepExecutor,
    done: std::cell::RefCell<std::collections::HashMap<u64, RunMetrics>>,
}

impl<'a> MemoExecutor<'a> {
    /// An empty memo over `inner`.
    pub fn new(inner: &'a dyn SweepExecutor) -> Self {
        MemoExecutor {
            inner,
            done: Default::default(),
        }
    }
}

impl SweepExecutor for MemoExecutor<'_> {
    fn execute(&self, jobs: Vec<SweepJob>) -> Vec<RunMetrics> {
        let ids: Vec<u64> = jobs.iter().map(SweepJob::fingerprint).collect();
        let mut done = self.done.borrow_mut();
        let (mut fresh, mut fresh_ids) = (Vec::new(), Vec::new());
        for (job, &id) in jobs.into_iter().zip(&ids) {
            if !done.contains_key(&id) && !fresh_ids.contains(&id) {
                fresh_ids.push(id);
                fresh.push(job);
            }
        }
        done.extend(fresh_ids.into_iter().zip(self.inner.execute(fresh)));
        ids.iter().map(|id| done[id].clone()).collect()
    }
}

/// Applies `f` to every item of `items` on scoped worker threads and
/// returns the results in input order. The simulator is single-threaded
/// per system, so figure-level sweeps parallelise across runs. A panic
/// in `f` is re-raised with its own payload once every worker has
/// stopped ([`SweepJob::run`] labels its panics with the job).
///
/// Workers pull indices from a shared atomic counter and send each
/// `(index, result)` over a channel as soon as it is ready, so no lock
/// is held across runs and slow items don't serialize the rest.
pub fn parallel_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    if items.is_empty() {
        return Vec::new();
    }
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .min(items.len());
    if threads <= 1 {
        return items.iter().map(f).collect();
    }

    let next = std::sync::atomic::AtomicUsize::new(0);
    let (tx, rx) = std::sync::mpsc::channel::<(usize, R)>();
    let mut results: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
    let panics = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let tx = tx.clone();
                let (next, items, f) = (&next, &items, &f);
                scope.spawn(move || loop {
                    let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    if i >= items.len() {
                        break;
                    }
                    // A send error means the receiver is gone, which only
                    // happens if the scope is unwinding from a panic.
                    let _ = tx.send((i, f(&items[i])));
                })
            })
            .collect();
        drop(tx);
        for (i, r) in rx {
            results[i] = Some(r);
        }
        // Join every worker ourselves: a scope left to join a panicked
        // thread re-panics with a generic message and drops the
        // labelled payload.
        handles
            .into_iter()
            .filter_map(|h| h.join().err())
            .collect::<Vec<_>>()
    });
    if let Some(payload) = panics.into_iter().next() {
        std::panic::resume_unwind(payload);
    }
    results
        .into_iter()
        .map(|r| r.expect("every slot filled"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_map_preserves_order() {
        let items: Vec<u64> = (0..50).collect();
        let out = parallel_map(items, |&x| x * 2);
        assert_eq!(out, (0..50).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_map_empty() {
        let out: Vec<u64> = parallel_map(Vec::<u64>::new(), |&x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn spec_from_env_parses() {
        // Injected getter: no process-global env mutation, safe under
        // the parallel test runner.
        let s = RunSpec::from_env_with(|k| (k == "ROP_INSTR").then(|| "1234".to_string()));
        assert_eq!(s.instructions, 1234);
        let s = RunSpec::from_env_with(|_| None);
        assert_eq!(s.instructions, RunSpec::full().instructions);
        // Garbage values fall back; zero instruction quota clamps to 1.
        let s = RunSpec::from_env_with(|_| Some("not a number".to_string()));
        assert_eq!(s.instructions, RunSpec::full().instructions);
        let s = RunSpec::from_env_with(|k| (k == "ROP_INSTR").then(|| "0".to_string()));
        assert_eq!(s.instructions, 1);
    }

    #[test]
    fn spec_from_env_parses_seed_and_max_cycles() {
        let s = RunSpec::from_env_with(|k| match k {
            "ROP_SEED" => Some(" 77 ".to_string()),
            "ROP_MAX_CYCLES" => Some("123456".to_string()),
            _ => None,
        });
        assert_eq!(s.seed, 77);
        assert_eq!(s.max_cycles, 123_456);
        assert_eq!(s.instructions, RunSpec::full().instructions);
        // Malformed values leave the full-spec defaults untouched.
        let s = RunSpec::from_env_with(|k| match k {
            "ROP_SEED" => Some("-3".to_string()),
            "ROP_MAX_CYCLES" => Some("1e9".to_string()),
            _ => None,
        });
        assert_eq!(s.seed, RunSpec::full().seed);
        assert_eq!(s.max_cycles, RunSpec::full().max_cycles);
        // A zero cycle cap would spin forever doing nothing: clamp to 1.
        let s = RunSpec::from_env_with(|k| (k == "ROP_MAX_CYCLES").then(|| "0".to_string()));
        assert_eq!(s.max_cycles, 1);
    }

    #[test]
    fn local_executor_panic_names_the_failing_job() {
        let spec = RunSpec {
            instructions: 1_000,
            max_cycles: 1_000_000,
            seed: 1,
        };
        let ok = SweepJob::single("t", rop_trace::Benchmark::Bzip2, SystemKind::Baseline, spec);
        let mut broken = ok.clone();
        broken.label = "t/broken".into();
        broken.config.benchmarks.clear();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            LocalExecutor.execute(vec![ok, broken])
        }));
        let msg = panic_message(caught.unwrap_err().as_ref());
        assert!(msg.contains("[t/broken]"), "label missing from '{msg}'");
        assert!(msg.contains("invalid config"), "message lost in '{msg}'");
    }

    #[test]
    fn memo_executor_runs_each_distinct_job_once() {
        let spec = RunSpec {
            instructions: 1_000,
            max_cycles: 1_000_000,
            seed: 1,
        };
        let a = SweepJob::single("a", rop_trace::Benchmark::Bzip2, SystemKind::Baseline, spec);
        let b = SweepJob::single("b", rop_trace::Benchmark::Lbm, SystemKind::Baseline, spec);
        let plan = crate::experiments::PlanExecutor::new();
        let memo = MemoExecutor::new(&plan);
        let first = memo.execute(vec![a.clone(), a.clone(), b.clone()]);
        let mut relabeled = a.clone();
        relabeled.label = "renamed".into();
        let second = memo.execute(vec![b, relabeled]);
        // The wrapped executor saw `a` and `b` once each, in order…
        let seen: Vec<String> = plan.into_jobs().into_iter().map(|j| j.label).collect();
        assert_eq!(seen, ["a/bzip2/Baseline", "b/lbm/Baseline"]);
        // …and every request was still answered, in request order.
        assert_eq!(first.len(), 3);
        assert_eq!(second.len(), 2);
        assert_eq!(second[1].cores[0].benchmark, "bzip2");
        assert_eq!(second[0].cores[0].benchmark, "lbm");
    }

    #[test]
    fn sweep_job_fingerprint_is_content_hash() {
        let spec = RunSpec::quick();
        let a = SweepJob::single(
            "single",
            rop_trace::Benchmark::Lbm,
            SystemKind::Baseline,
            spec,
        );
        let b = SweepJob::single(
            "single",
            rop_trace::Benchmark::Lbm,
            SystemKind::Baseline,
            spec,
        );
        assert_eq!(a.fingerprint(), b.fingerprint());
        // Label changes do NOT change identity…
        let mut c = a.clone();
        c.label = "renamed".into();
        assert_eq!(a.fingerprint(), c.fingerprint());
        // …but any config or spec change does.
        let d = SweepJob::single(
            "single",
            rop_trace::Benchmark::Lbm,
            SystemKind::Rop { buffer: 64 },
            spec,
        );
        assert_ne!(a.fingerprint(), d.fingerprint());
        let mut e = a.clone();
        e.spec.seed += 1;
        assert_ne!(a.fingerprint(), e.fingerprint());
    }

    #[test]
    fn model_revision_bump_changes_every_job_id() {
        let jobs = crate::experiments::driver::plan_jobs("all", RunSpec::quick())
            .expect("the full grid plans");
        assert!(jobs.len() > 100, "{} jobs", jobs.len());
        for job in &jobs {
            assert_eq!(job.fingerprint(), job.fingerprint_at(MODEL_REVISION));
            assert_ne!(
                job.fingerprint_at(MODEL_REVISION),
                job.fingerprint_at(MODEL_REVISION + 1),
                "{}",
                job.label
            );
        }
    }

    #[test]
    fn local_executor_matches_run_single() {
        let spec = RunSpec {
            instructions: 20_000,
            max_cycles: 10_000_000,
            seed: 3,
        };
        let job = SweepJob::single("t", rop_trace::Benchmark::Bzip2, SystemKind::Baseline, spec);
        let via_exec = LocalExecutor.execute(vec![job]).pop().unwrap();
        let direct = run_single(rop_trace::Benchmark::Bzip2, SystemKind::Baseline, spec);
        assert_eq!(via_exec.total_cycles, direct.total_cycles);
        assert_eq!(via_exec.cores[0].instructions, direct.cores[0].instructions);
    }

    #[test]
    fn placeholder_metrics_match_core_count() {
        let spec = RunSpec::quick();
        let job = SweepJob::multi(rop_trace::WORKLOAD_MIXES[0], SystemKind::Baseline, 4, spec);
        let m = job.placeholder_metrics();
        assert_eq!(m.cores.len(), 4);
        assert_eq!(m.total_cycles, 0);
        assert!(m.open_loop.is_none());
    }

    #[test]
    fn executors_dispatch_open_loop_jobs_to_the_injector() {
        let spec = RunSpec {
            instructions: 30_000,
            max_cycles: 1_000_000,
            seed: 5,
        };
        let job = SweepJob::custom(
            "tail/test",
            crate::experiments::tail_latency::tail_config(
                SystemKind::Baseline,
                rop_trace::ArrivalProcess::Poisson,
                80.0,
                30_000,
                spec.seed,
            ),
            spec,
        );
        // Placeholder mirrors the open-loop shape (no cores, tail block).
        let ph = job.placeholder_metrics();
        assert!(ph.cores.is_empty());
        assert_eq!(ph.open_loop.as_ref().unwrap().process, "poisson");
        // Both executor paths route to the injector and agree exactly.
        let via_exec = LocalExecutor.execute(vec![job.clone()]).pop().unwrap();
        let direct = job.run();
        let ol = via_exec.open_loop.as_ref().expect("open-loop metrics");
        assert!(ol.read_latency.count() > 0);
        assert_eq!(
            ol.read_latency,
            direct.open_loop.as_ref().unwrap().read_latency
        );
        // An audited open-loop job runs clean end to end.
        let audited = LocalExecutor
            .execute(vec![job.with_audit(true)])
            .pop()
            .unwrap();
        assert_eq!(audited.audit.unwrap().violations, 0);
    }

    #[test]
    fn cancel_token_aborts_a_running_job_with_its_label() {
        let spec = RunSpec {
            instructions: 50_000_000, // far more work than we let it do
            max_cycles: u64::MAX / 2,
            seed: 1,
        };
        let job = SweepJob::single("t", rop_trace::Benchmark::Lbm, SystemKind::Baseline, spec);
        let token = CancelToken::new();
        token.cancel(); // pre-cancelled: the first checkpoint fires
        let caught =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| job.run_with(token.clone())));
        let msg = panic_message(caught.unwrap_err().as_ref());
        assert!(msg.contains("cancelled by watchdog"), "{msg}");
        assert!(msg.contains(&job.label), "label lost: {msg}");
    }

    #[test]
    fn heartbeat_reports_forward_progress() {
        let spec = RunSpec {
            instructions: 20_000,
            max_cycles: 10_000_000,
            seed: 2,
        };
        let job = SweepJob::single("t", rop_trace::Benchmark::Bzip2, SystemKind::Baseline, spec);
        let token = CancelToken::new();
        let m = job.run_with(token.clone());
        // The final beat left the last simulated cycle behind; an
        // uncancelled run is unaffected by the token.
        assert!(token.progress() > 0);
        assert!(token.progress() <= m.total_cycles + 1);
        assert!(!token.is_cancelled());
        let bare = job.run();
        assert_eq!(
            bare.total_cycles, m.total_cycles,
            "token must not perturb results"
        );
    }

    #[test]
    fn run_single_smoke() {
        let m = run_single(
            rop_trace::Benchmark::Bzip2,
            SystemKind::Baseline,
            RunSpec {
                instructions: 50_000,
                max_cycles: 10_000_000,
                seed: 1,
            },
        );
        assert!(!m.hit_cycle_cap);
        assert!(m.ipc() > 0.0);
    }
}
