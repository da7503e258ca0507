//! `sweep-resume`: the harness path over the `all` experiment grid, which
//! includes every refresh mechanism: plan → check-config lint →
//! verify-mech gate → `StoreExecutor`.
//!
//! Each round starts from an empty store. A cold pass at a tiny quota
//! executes and appends every job; the same grid is then resumed several
//! times, and every resume loads, parses, resolves and renders the
//! finished store. Simulation is small here; the harness, store and lint
//! do the work, and the cold pass puts the append path beside the parse
//! path.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use rop_harness::{PoolConfig, RealIo, Store, StoreExecutor, StoreIo, Supervisor};
use rop_sim_system::experiments::driver::{plan_jobs, render_experiment};
use rop_sim_system::runner::{CancelToken, RunSpec};

use crate::common::{
    median, note_samples, pass_seed, repeat_for, spin, CalClock, Outcome, SUB_SEEDS,
};
use crate::layers::LayerCounts;
use crate::tracer::{self, span, Layer};

/// The experiment grid swept.
const EXPERIMENT: &str = "all";
/// Instructions per core (and open-loop window) of each job.
const INSTR: u64 = 20_000;
/// Resumes of the finished store per round (few, so a run holds many
/// rounds and so many cold-pass samples).
const RESUMES: usize = 4;
/// Set-up repetitions before the first round; each round adds one more,
/// so the samples span the whole run (the reported `setup_s` is their
/// median).
const SETUP_REPS: usize = 15;

fn spec(seed: u64) -> RunSpec {
    RunSpec {
        instructions: INSTR,
        max_cycles: 50_000_000,
        seed,
    }
}

fn pool() -> PoolConfig {
    PoolConfig {
        workers: 1,
        ..PoolConfig::default()
    }
}

/// Plan, lint and gate the grid; returns the calibrated seconds taken.
fn setup(seed: u64) -> Result<f64, String> {
    let mut clock = CalClock::start();
    let jobs = plan_jobs(EXPERIMENT, spec(seed))?;
    crate::gate::lint_and_gate(&jobs)?;
    Ok(clock.read())
}

/// One cold pass or resume: figures, executor counters, and calibrated
/// and raw host seconds.
struct Pass {
    figures: Vec<String>,
    hits: usize,
    executed: usize,
    failed: usize,
    wall: f64,
    raw: f64,
}

/// A cold pass lasts seconds, longer than the host's speed phases, so
/// its calibrated clock is cut at every job attempt's start and end.
struct ClockMarks(Mutex<CalClock>);

impl Supervisor for ClockMarks {
    fn attempt_starts(&self, _label: &str, _attempt: u32, _token: &Arc<CancelToken>) {
        self.0.lock().expect("clock lock").mark();
    }

    fn attempt_ends(&self, _label: &str, _attempt: u32, _ok: bool) {
        self.0.lock().expect("clock lock").mark();
    }
}

/// One cold pass or resume, timed in calibrated seconds.
fn pass(seed: u64, store: Store) -> Result<Pass, String> {
    let clock = Arc::new(ClockMarks(Mutex::new(CalClock::start())));
    let exec = StoreExecutor::new(store).with_pool(PoolConfig {
        supervisor: Some(clock.clone()),
        ..pool()
    });
    let figures = render_experiment(EXPERIMENT, spec(seed), &exec);
    let (wall, raw) = {
        let mut clock = clock.0.lock().expect("clock lock");
        (clock.read(), clock.raw())
    };
    let stats = exec.stats();
    Ok(Pass {
        figures: figures?,
        hits: stats.cache_hits,
        executed: stats.executed,
        failed: stats.failed + exec.failures().len(),
        wall,
        raw,
    })
}

/// One round's measurements and the checks it failed.
struct Round {
    /// Raw host seconds of the round's passes, calibration kernels
    /// excluded (the untraced side of `tracing.overhead_ratio`).
    raw: f64,
    cold_wall: f64,
    /// Memory cycles the cold pass simulated, summed over the store.
    sim_cycles: u64,
    resume_walls: Vec<f64>,
    resolved: u64,
    failed: u64,
    failures: Vec<String>,
    cold_figures: Vec<String>,
}

/// Cold pass plus [`RESUMES`] resumes over a fresh store at `path`, with
/// every output check: resumes are all cache hits, their figures are
/// byte-identical to the cold pass's, and the store holds one clean
/// record per unique planned job.
fn round(seed: u64, path: &Path, io: Arc<dyn StoreIo>, unique: usize) -> Result<Round, String> {
    let _ = std::fs::remove_file(path);
    let store = || Store::with_io(path, io.clone());
    let cold = pass(seed, store())?;
    let mut r = Round {
        raw: cold.raw,
        cold_wall: cold.wall,
        sim_cycles: 0,
        resume_walls: Vec::new(),
        resolved: (cold.hits + cold.executed) as u64,
        failed: 0,
        failures: Vec::new(),
        cold_figures: cold.figures.clone(),
    };
    // The experiment re-requests shared jobs (baselines, alone runs), so
    // the cold pass hits those; every unique job must execute once.
    if cold.executed != unique || cold.failed != 0 {
        r.failed += (cold.hits + cold.executed) as u64;
        r.failures.push(format!(
            "cold pass: {} hits, {} executed, {} failed for {unique} unique jobs",
            cold.hits, cold.executed, cold.failed
        ));
    }
    for i in 0..RESUMES {
        let p = pass(seed, store())?;
        r.resume_walls.push(p.wall);
        r.raw += p.raw;
        let jobs = (p.hits + p.executed) as u64;
        r.resolved += jobs;
        let mut bad = Vec::new();
        if p.executed != 0 || p.failed != 0 || p.hits == 0 {
            bad.push(format!(
                "resume {i}: {} hits, {} executed, {} failed",
                p.hits, p.executed, p.failed
            ));
        }
        if p.figures != cold.figures {
            bad.push(format!("resume {i}: figures differ from the cold pass"));
        }
        if !bad.is_empty() {
            r.failed += jobs;
            r.failures.extend(bad);
        }
    }
    let contents = store().load()?;
    let latest = contents.latest();
    r.sim_cycles = latest
        .values()
        .filter_map(|rec| rec.metrics.as_ref())
        .map(|m| m.total_cycles)
        .sum();
    if contents.corrupt_lines != 0 || contents.records.len() != unique || latest.len() != unique {
        r.failed += unique as u64;
        r.failures.push(format!(
            "store: {} records, {} resolved, {} corrupt lines for {unique} unique jobs",
            contents.records.len(),
            latest.len(),
            contents.corrupt_lines
        ));
    }
    Ok(r)
}

fn store_path(work: &Path) -> PathBuf {
    work.join(format!("sweep-resume-{}.jsonl", std::process::id()))
}

/// One measured sweep-resume run: set-up samples, then rounds over a
/// store under `work` (each with one more set-up sample) until `seconds`
/// have passed.
pub fn run(seed: u64, seconds: f64, work: &Path) -> Result<Outcome, String> {
    let mut setups = Vec::new();
    for _ in 0..SETUP_REPS {
        setups.push(setup(seed)?);
    }
    let unique = (0..SUB_SEEDS)
        .map(|k| plan_jobs(EXPERIMENT, spec(pass_seed(seed, k))).map(|jobs| jobs.len()))
        .collect::<Result<Vec<_>, _>>()?;
    std::fs::create_dir_all(work).map_err(|e| format!("{}: {e}", work.display()))?;
    let path = store_path(work);
    let io: Arc<dyn StoreIo> = Arc::new(RealIo);
    // Each round runs on its pass seed; every pass seed runs at least
    // twice.
    let rounds = repeat_for(seconds, 2 * SUB_SEEDS, |r| {
        let k = r % SUB_SEEDS;
        let round = round(pass_seed(seed, k), &path, io.clone(), unique[k])?;
        setup(seed).map(|s| (round, s))
    });
    let _ = std::fs::remove_file(&path);
    let (rounds, more): (Vec<_>, Vec<_>) = rounds
        .into_iter()
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .unzip();
    setups.extend(more);

    let mut out = Outcome::default();
    for (i, r) in rounds.iter().enumerate() {
        out.attempted += r.resolved;
        out.failed += r.failed;
        out.failures.extend(r.failures.iter().cloned());
        if r.cold_figures != rounds[i % SUB_SEEDS].cold_figures {
            out.failed += r.resolved;
            out.fail("same seed, different figures across rounds");
        }
    }
    // A round is one cold pass plus RESUMES resumes of identical work, so
    // its robust time is the cold median plus RESUMES resume medians.
    let colds: Vec<f64> = rounds.iter().map(|r| r.cold_wall).collect();
    let resumes: Vec<f64> = rounds.iter().flat_map(|r| r.resume_walls.clone()).collect();
    let cold_s = median(&colds);
    let wall_s = cold_s + RESUMES as f64 * median(&resumes);
    note_samples("setup_s", &setups);
    note_samples("cold pass", &colds);
    note_samples("resume", &resumes);
    out.push("setup_s", median(&setups), "s");
    out.push("wall_s", wall_s, "s");
    out.push("peak_rss_mb", crate::common::peak_rss_mib(), "MiB");
    out.push("job_ok_ratio", out.ok_ratio(), "ratio");
    // Rates divide the mean work of a round over the pass seeds.
    let mean = |f: fn(&Round) -> u64| {
        rounds[..SUB_SEEDS].iter().map(|r| f(r) as f64).sum::<f64>() / SUB_SEEDS as f64
    };
    out.push("jobs_per_s", mean(|r| r.resolved) / wall_s, "jobs/s");
    // Only the cold pass simulates.
    out.push(
        "sim_mcycles_per_s",
        mean(|r| r.sim_cycles) / 1e6 / cold_s,
        "Mcycles/s",
    );
    Ok(out)
}

/// A [`StoreIo`] over [`RealIo`] that counts and times every read and
/// append; `plant` adds a busy wait to every read (the self-test).
struct CountingIo {
    plant: Duration,
    bytes_read: AtomicU64,
}

impl StoreIo for CountingIo {
    fn read_file(&self, path: &Path) -> Result<Option<String>, String> {
        span(Layer::StoreLoad, || {
            if !self.plant.is_zero() {
                spin(self.plant);
            }
            let text = RealIo.read_file(path)?;
            let n = text.as_ref().map_or(0, |t| t.len() as u64);
            self.bytes_read.fetch_add(n, Ordering::Relaxed);
            Ok(text)
        })
    }

    fn append_line(&self, path: &Path, line: &str) -> Result<(), String> {
        span(Layer::StoreAppend, || RealIo.append_line(path, line))
    }
}

/// Times each job attempt the pool runs. Attempts run on the pool's
/// worker thread; they are handed to the tracer afterwards as children
/// of the span the main thread waited in.
#[derive(Default)]
struct JobTimer {
    open: Mutex<Option<Instant>>,
    done: Mutex<Vec<(Instant, Instant)>>,
}

impl Supervisor for JobTimer {
    fn attempt_starts(&self, _label: &str, _attempt: u32, _token: &Arc<CancelToken>) {
        *self.open.lock().expect("job timer lock") = Some(Instant::now());
    }

    fn attempt_ends(&self, _label: &str, _attempt: u32, _ok: bool) {
        let end = Instant::now();
        if let Some(start) = self.open.lock().expect("job timer lock").take() {
            self.done.lock().expect("job timer lock").push((start, end));
        }
    }
}

impl JobTimer {
    fn flush_into_tracer(&self) {
        for (s, e) in self.done.lock().expect("job timer lock").drain(..) {
            tracer::record_foreign(Layer::HarnessJob, s, e);
        }
    }
}

/// The traced sweep-resume run: an untraced round, then the same round
/// through the counting store I/O with every harness call in a span. The
/// traced round must render figures byte-identical to the untraced one.
pub fn traced(seed: u64, work: &Path, plant: Duration) -> Result<LayerCounts, String> {
    let mut counts = LayerCounts::default();
    let jobs = span(Layer::HarnessPlan, || plan_jobs(EXPERIMENT, spec(seed)))?;
    crate::gate::traced_lint_and_gate(&jobs, &mut counts)?;
    std::fs::create_dir_all(work).map_err(|e| format!("{}: {e}", work.display()))?;
    let path = store_path(work);

    // The untraced reference: the same round through the real store I/O
    // (nothing in it opens a span).
    let plain = round(seed, &path, Arc::new(RealIo), jobs.len())?;
    counts.jobs = jobs.len() as u64;
    counts.resume_walls = plain.resume_walls.clone();
    counts.untraced_wall += plain.raw;

    let _ = std::fs::remove_file(&path);
    let io = Arc::new(CountingIo {
        plant,
        bytes_read: AtomicU64::new(0),
    });
    let timer = Arc::new(JobTimer::default());
    let store = || Store::with_io(&path, io.clone());
    let mut figures = Vec::new();
    let t = Instant::now();
    for _ in 0..=RESUMES {
        let exec = StoreExecutor::new(store()).with_pool(PoolConfig {
            supervisor: Some(timer.clone()),
            ..pool()
        });
        let figs = span(Layer::Harness, || {
            let f = render_experiment(EXPERIMENT, spec(seed), &exec);
            timer.flush_into_tracer();
            f
        })?;
        let s = exec.stats();
        counts.harness_cache_hits += s.cache_hits as u64;
        counts.harness_executed += s.executed as u64;
        figures = figs;
    }
    counts.traced_wall += t.elapsed().as_secs_f64();
    let _ = std::fs::remove_file(&path);
    counts.store_bytes_read = io.bytes_read.load(Ordering::Relaxed);
    if figures != plain.cold_figures || !plain.failures.is_empty() {
        return Err("traced sweep round differs from the untraced one".into());
    }
    Ok(counts)
}
