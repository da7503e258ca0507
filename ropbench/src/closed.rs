//! `closed-rop`: fixed-work runs of the paper's ROP system.
//!
//! Jobs: libquantum and lbm single-core, plus the 4-core WL1 mix with
//! rank partitioning, all on `SystemKind::Rop { buffer: 64 }`. The
//! trace/cpu/cache front-end and the controller with its ROP engine do
//! the work; the refresh mechanism is all-bank only and the harness is
//! absent.
//!
//! The traced mode runs [`Replica`], the benchmark's own copy of
//! `System::drive`, built from the public APIs of each layer so every
//! call can be timed from outside. Before a layer number is written the
//! replica must reproduce `System::run_until` bit-exactly.

use std::time::{Duration, Instant};

use rop_cache::{Cache, TryAccess};
use rop_cpu::{Core, MemOp, SubmitResult};
use rop_memctrl::{Completion, MemController};
use rop_sim_system::runner::{RunSpec, SweepJob};
use rop_sim_system::wheel::TimingWheel;
use rop_sim_system::{CoreMetrics, RunMetrics, System, SystemConfig, SystemKind};
use rop_trace::{Benchmark, SyntheticWorkload, TraceRecord, WorkloadGen, WORKLOAD_MIXES};

use crate::common::{
    catch, median, note_samples, pass_seed, pass_time, repeat_for, sim_fingerprint, spin, timed,
    timed_cal, CalClock, Outcome, SUB_SEEDS,
};
use crate::layers::{self, LayerCounts};
use crate::tracer::{span, Layer};

/// Instructions per single-core job: long enough for the ROP engine to
/// finish training (50 refreshes per rank) and prefetch.
const SINGLE_INSTR: u64 = 4_000_000;
/// Instructions per core of the 4-core job.
const MULTI_INSTR: u64 = 1_000_000;
/// Safety cap on simulated cycles (never reached by a correct program).
const MAX_CYCLES: u64 = 400_000_000;
/// Instructions per core for the reference-loop and audit checks.
const CHECK_INSTR: u64 = 150_000;
/// Set-up repetitions before the first pass; each pass adds one more, so
/// the samples span the whole run (the reported `setup_s` is their
/// median). A set-up takes under a millisecond, too short to time once.
const SETUP_REPS: usize = 100;

/// The job set for `seed`.
pub fn jobs(seed: u64) -> Vec<SweepJob> {
    let kind = SystemKind::Rop { buffer: 64 };
    let spec = |instructions| RunSpec {
        instructions,
        max_cycles: MAX_CYCLES,
        seed,
    };
    let wl1 = WORKLOAD_MIXES[0];
    assert_eq!(wl1.name, "WL1");
    vec![
        SweepJob::custom(
            "closed-rop/libquantum",
            SystemConfig::single_core(Benchmark::Libquantum, kind, seed),
            spec(SINGLE_INSTR),
        ),
        SweepJob::custom(
            "closed-rop/lbm",
            SystemConfig::single_core(Benchmark::Lbm, kind, seed),
            spec(SINGLE_INSTR),
        ),
        SweepJob::custom(
            "closed-rop/WL1",
            SystemConfig::multi_core(wl1.programs, kind, seed),
            spec(MULTI_INSTR),
        ),
    ]
}

/// Start-up cost: plan, lint, verify-mech gate and system construction.
/// Returns the calibrated seconds taken and the systems built.
fn setup(seed: u64) -> Result<(Vec<SweepJob>, Vec<System>, f64), String> {
    let mut clock = CalClock::start();
    let jobs = jobs(seed);
    crate::gate::lint_and_gate(&jobs)?;
    let systems: Vec<System> = jobs.iter().map(|j| System::new(j.config.clone())).collect();
    Ok((jobs, systems, clock.read()))
}

/// Checks that hold for any correct program at any seed, on one job:
/// the event loop matches the per-cycle reference on a bounded prefix,
/// and an audited run is clean.
fn check_job(job: &SweepJob) -> Vec<String> {
    let mut bad = Vec::new();
    let prefix = |reference: bool| {
        let mut sys = System::new(job.config.clone());
        let mut m = if reference {
            sys.run_until_reference(CHECK_INSTR, MAX_CYCLES)
        } else {
            sys.run_until(CHECK_INSTR, MAX_CYCLES)
        };
        // The per-cycle loop counts one event per cycle by design.
        m.events = 0;
        sim_fingerprint(&m)
    };
    if prefix(false) != prefix(true) {
        bad.push(format!(
            "{}: run_until differs from run_until_reference",
            job.label
        ));
    }
    match catch(|| {
        let mut sys = System::new(job.config.clone());
        sys.enable_audit();
        sys.run_until(CHECK_INSTR, MAX_CYCLES).audit
    }) {
        Ok(Some(a)) if a.violations == 0 && a.events > 0 => {}
        Ok(a) => bad.push(format!("{}: audit summary {a:?}", job.label)),
        Err(e) => bad.push(format!("{}: audit failed: {e}", job.label)),
    }
    bad
}

/// One measured closed-rop run: set-up samples, timed passes (each with
/// one more set-up sample) until `seconds` have passed, then the output
/// checks (outside the timing).
pub fn run(seed: u64, seconds: f64) -> Result<Outcome, String> {
    let mut setups = Vec::new();
    for _ in 0..SETUP_REPS {
        setups.push(setup(seed)?.2);
    }
    let job_sets: Vec<Vec<SweepJob>> = (0..SUB_SEEDS).map(|k| jobs(pass_seed(seed, k))).collect();

    // Each pass runs every job of its seed once; each job run is one
    // timed sample. Every pass seed runs at least twice.
    let passes = repeat_for(seconds, 2 * SUB_SEEDS, |p| {
        let pass: Vec<(RunMetrics, f64)> = job_sets[p % SUB_SEEDS]
            .iter()
            .map(|j| {
                let mut sys = System::new(j.config.clone());
                timed_cal(|| sys.run_until(j.spec.instructions, j.spec.max_cycles))
            })
            .collect();
        setup(seed).map(|s| (pass, s.2))
    });
    let (passes, more): (Vec<_>, Vec<_>) = passes
        .into_iter()
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .unzip();
    setups.extend(more);

    let mut out = Outcome::default();
    let checked: Vec<Vec<Vec<String>>> = job_sets
        .iter()
        .map(|jobs| jobs.iter().map(check_job).collect())
        .collect();
    for (p, pass) in passes.iter().enumerate() {
        let k = p % SUB_SEEDS;
        for (i, (m, _)) in pass.iter().enumerate() {
            out.attempted += 1;
            let label = &job_sets[k][i].label;
            let mut bad = checked[k][i].clone();
            if m.hit_cycle_cap {
                bad.push(format!("{label}: hit the cycle cap"));
            }
            if sim_fingerprint(m) != sim_fingerprint(&passes[k][i].0) {
                bad.push(format!("{label}: same seed, different simulated output"));
            }
            if !bad.is_empty() {
                out.failed += 1;
                out.failures.extend(bad);
            }
        }
    }
    out.failures.dedup();

    // Every rate divides the mean work of a pass over the pass seeds by
    // the same robust pass time: the sum of per-job median calibrated
    // times.
    let wall_s = pass_time(&passes);
    note_samples("setup_s", &setups);
    for (i, j) in job_sets[0].iter().enumerate() {
        note_samples(&j.label, &passes.iter().map(|p| p[i].1).collect::<Vec<_>>());
    }
    let cycles = passes[..SUB_SEEDS]
        .iter()
        .flatten()
        .map(|(m, _)| m.total_cycles as f64)
        .sum::<f64>()
        / SUB_SEEDS as f64;
    out.push("setup_s", median(&setups), "s");
    out.push("wall_s", wall_s, "s");
    out.push("peak_rss_mb", crate::common::peak_rss_mib(), "MiB");
    out.push("job_ok_ratio", out.ok_ratio(), "ratio");
    out.push("jobs_per_s", job_sets[0].len() as f64 / wall_s, "jobs/s");
    out.push("sim_mcycles_per_s", cycles / 1e6 / wall_s, "Mcycles/s");
    Ok(out)
}

/// The traced closed-rop run: untraced program run, traced replica run,
/// bit-exact comparison, then the per-layer split, added to `counts`.
/// `plant` adds a busy wait to every workload-generator call (the
/// self-test).
pub fn traced(seed: u64, plant: Duration, counts: &mut LayerCounts) -> Result<(), String> {
    let jobs = jobs(seed);
    crate::gate::traced_lint_and_gate(&jobs, counts)?;
    for job in &jobs {
        let (real, real_wall) = timed(|| {
            let mut sys = System::new(job.config.clone());
            let m = sys.run_until(job.spec.instructions, job.spec.max_cycles);
            (m, format!("{:?}", sys.controller().stats()))
        });
        let mut rep = Replica::new(job.config.clone(), plant);
        let (m, rep_wall) = timed(|| rep.run_until(job.spec.instructions, job.spec.max_cycles));
        if sim_fingerprint(&m) != sim_fingerprint(&real.0)
            || format!("{:?}", rep.ctrl.stats()) != real.1
        {
            return Err(format!(
                "{}: traced replica diverges from System::run_until",
                job.label
            ));
        }
        counts.jobs += 1;
        counts.instructions += real.0.instructions_total;
        counts.instructions_wall += real_wall;
        counts.core_ipcs.extend(real.0.cores.iter().map(|c| c.ipc));
        counts.untraced_wall += real_wall;
        counts.traced_wall += rep_wall;
        rep.fold_into(counts, &m);
    }
    Ok(())
}

/// `SyntheticWorkload` behind a timing [`WorkloadGen`].
struct TimedGen {
    inner: SyntheticWorkload,
    plant: Duration,
}

impl WorkloadGen for TimedGen {
    fn next_record(&mut self) -> TraceRecord {
        span(Layer::Trace, || {
            if !self.plant.is_zero() {
                spin(self.plant);
            }
            self.inner.next_record()
        })
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

/// The benchmark's copy of `System`: same construction, same loop, every
/// call into a layer wrapped in a span.
struct Replica {
    cfg: SystemConfig,
    cores: Vec<Core<TimedGen>>,
    llc: Cache,
    ctrl: MemController,
    inflight: TimingWheel,
    due: Vec<Completion>,
    now: u64,
    finish: Vec<Option<u64>>,
    line_shift: Option<u32>,
    events: u64,
    wall: f64,
    c: Counters,
}

/// Counts the replica gathers at the layer boundaries.
#[derive(Default)]
struct Counters {
    cpu_calls: u64,
    cache_accesses: u64,
    tick_calls: u64,
    enqueue_refused: u64,
    wheel_pushes: u64,
    wheel_pops: u64,
    wheel_peak: u64,
    /// Σ read-queue length × cycles it held (queues only change at events).
    read_queue_cycles: u128,
}

impl Replica {
    fn new(cfg: SystemConfig, plant: Duration) -> Self {
        let ctrl_cfg = cfg
            .ctrl_override
            .clone()
            .unwrap_or_else(|| cfg.kind.memctrl_config(cfg.ranks, cfg.seed));
        let ctrl = MemController::new(ctrl_cfg);
        let lines_per_rank = ctrl.mapping().lines_per_rank();
        let line_bytes = ctrl.mapping().geometry().line_bytes as u64;
        let cores = cfg
            .benchmarks
            .iter()
            .enumerate()
            .map(|(i, b)| {
                let mut params = b.params();
                params.base_addr = i as u64 * lines_per_rank * line_bytes;
                let inner = SyntheticWorkload::new(params, cfg.seed.wrapping_add(i as u64 * 7919));
                Core::new(cfg.core, TimedGen { inner, plant })
            })
            .collect();
        let llc_line = cfg.llc.line_bytes as u64;
        Replica {
            llc: Cache::new(cfg.llc),
            finish: vec![None; cfg.benchmarks.len()],
            cores,
            ctrl,
            inflight: TimingWheel::new(),
            due: Vec::new(),
            now: 0,
            line_shift: llc_line
                .is_power_of_two()
                .then(|| llc_line.trailing_zeros()),
            events: 0,
            wall: 0.0,
            c: Counters::default(),
            cfg,
        }
    }

    fn run_until(&mut self, target: u64, max_cycles: u64) -> RunMetrics {
        let start = Instant::now();
        span(Layer::Sim, || self.drive(target, max_cycles));
        self.wall = start.elapsed().as_secs_f64();
        self.collect(target)
    }

    fn drive(&mut self, target: u64, max_cycles: u64) {
        let line_bytes = self.cfg.llc.line_bytes as u64;
        let line_shift = self.line_shift;
        while self.finish.iter().any(Option::is_none) && self.now < max_cycles {
            let now = self.now;
            self.events += 1;

            let Self {
                inflight, due, c, ..
            } = self;
            span(Layer::Wheel, || inflight.pop_due(now, due));
            c.wheel_pops += due.len() as u64;
            for i in 0..self.due.len() {
                let d = self.due[i];
                self.c.cpu_calls += 1;
                span(Layer::Cpu, || self.cores[d.core].complete_read(d.id));
            }
            self.due.clear();

            let Self {
                cores,
                llc,
                ctrl,
                c,
                ..
            } = self;
            for (i, core) in cores.iter_mut().enumerate() {
                c.cpu_calls += 1;
                span(Layer::Cpu, || {
                    core.tick(|op| submit(llc, ctrl, c, line_bytes, line_shift, i, now, op))
                });
            }

            for (i, core) in self.cores.iter().enumerate() {
                if self.finish[i].is_none() && core.stats().instructions >= target {
                    self.finish[i] = Some(now + 1);
                }
            }

            self.c.tick_calls += 1;
            let Self { ctrl, due, .. } = self;
            let hint = span(Layer::MemctrlTick, || ctrl.tick(now));
            span(Layer::MemctrlDrain, || ctrl.drain_completions_into(due));
            let queued = span(Layer::MemctrlDrain, || ctrl.read_queue_len()) as u128;
            let Self {
                inflight, due, c, ..
            } = self;
            for d in due.iter() {
                span(Layer::Wheel, || inflight.push(*d));
            }
            c.wheel_pushes += due.len() as u64;
            c.wheel_peak = c.wheel_peak.max(inflight.len() as u64);
            due.clear();

            if self.finish.iter().all(Option::is_some) {
                self.c.read_queue_cycles += queued;
                self.now = now + 1;
                continue;
            }

            let mut next = hint;
            if let Some(done_at) = span(Layer::Wheel, || self.inflight.peek_earliest()) {
                next = next.min(done_at);
            }
            for (i, core) in self.cores.iter().enumerate() {
                self.c.cpu_calls += 1;
                next = next.min(span(Layer::Cpu, || core.next_event(now)));
                if self.finish[i].is_none() {
                    self.c.cpu_calls += 1;
                    let crossing = span(Layer::Cpu, || core.next_quota_crossing(now, target));
                    next = next.min(crossing.saturating_add(1));
                }
            }
            assert!(next != u64::MAX, "replica deadlock");
            let next = next.max(now + 1).min(max_cycles);

            if next > now + 1 {
                let skip = next - now - 1;
                for (i, core) in self.cores.iter_mut().enumerate() {
                    self.c.cpu_calls += 1;
                    let crossed = span(Layer::Cpu, || core.fast_forward(skip, target));
                    if self.finish[i].is_none() {
                        if let Some(offset) = crossed {
                            self.finish[i] = Some(now + 1 + offset + 1);
                        }
                    }
                }
            }
            self.c.read_queue_cycles += queued * (next - now) as u128;
            self.now = next;
        }
    }

    /// `System::collect`, field for field.
    fn collect(&mut self, target: u64) -> RunMetrics {
        let hit_cycle_cap = self.finish.iter().any(Option::is_none);
        let total_cycles = self
            .finish
            .iter()
            .map(|f| f.unwrap_or(self.now))
            .max()
            .unwrap_or(self.now)
            .max(1);
        self.ctrl.finalize_analysis();
        let cores: Vec<CoreMetrics> = self
            .cores
            .iter()
            .enumerate()
            .map(|(i, core)| {
                let s = core.stats();
                let finish = self.finish[i].unwrap_or(self.now).max(1);
                CoreMetrics {
                    benchmark: core.workload_name().to_string(),
                    instructions: s.instructions.min(target),
                    finish_cycle: finish,
                    ipc: s.instructions.min(target) as f64
                        / (finish * core.config().clock_ratio) as f64,
                    llc_hits: s.llc_hits,
                    read_misses: s.read_misses,
                    stall_cycles: s.stall_cycles,
                }
            })
            .collect();
        let energy = self.ctrl.energy_breakdown(total_cycles);
        let analysis = (0..self.ctrl.refresh_slots())
            .map(|slot| self.ctrl.analysis(slot).reports())
            .collect();
        let stats = self.ctrl.stats().clone();
        let refreshes: u64 = (0..self.cfg.ranks)
            .map(|r| self.ctrl.refreshes_issued(r))
            .sum();
        let instructions_total: u64 = self
            .cores
            .iter()
            .map(|c| c.stats().instructions.min(target))
            .sum();
        RunMetrics {
            system: self.cfg.kind.label(),
            cores,
            total_cycles,
            energy,
            refreshes,
            mechanism: self.ctrl.mechanism().label().to_string(),
            refresh_blocked_cycles: stats.refresh_blocked_cycles,
            refreshes_skipped: self.ctrl.refreshes_skipped(),
            refreshes_pulled_in: self.ctrl.refreshes_pulled_in(),
            sram_hit_rate: if stats.sram_lookups == 0 {
                0.0
            } else {
                stats.sram_hits as f64 / stats.sram_lookups as f64
            },
            sram_lookups: stats.sram_lookups,
            prefetches: stats.prefetches_issued,
            analysis,
            row_hit_rate: stats.row_buffer.ratio(),
            avg_read_latency: if stats.reads_completed == 0 {
                0.0
            } else {
                stats.sum_read_latency as f64 / stats.reads_completed as f64
            },
            hit_cycle_cap,
            wall_seconds: self.wall,
            instructions_total,
            events: self.events,
            audit: None,
            open_loop: None,
        }
    }

    /// Adds this run's counts to the per-layer totals.
    fn fold_into(&self, counts: &mut LayerCounts, m: &RunMetrics) {
        let c = &self.c;
        counts.sim_events += self.events;
        counts.sim_cycles += m.total_cycles;
        counts.cpu_calls += c.cpu_calls;
        for core in &self.cores {
            let s = core.stats();
            counts.cpu_retries += s.retries;
            counts.cpu_stall_cycles += s.stall_cycles;
        }
        let cs = self.llc.stats();
        counts.cache_accesses += c.cache_accesses;
        counts.cache_hits += cs.accesses.hits();
        counts.cache_lookups += cs.accesses.total();
        counts.cache_writebacks += cs.writebacks;
        counts.tick_calls += c.tick_calls;
        counts.enqueue_refused += c.enqueue_refused;
        counts.read_queue_cycles += c.read_queue_cycles;
        counts.wheel_pushes += c.wheel_pushes;
        counts.wheel_pops += c.wheel_pops;
        counts.wheel_peak = counts.wheel_peak.max(c.wheel_peak);
        layers::fold_ctrl(counts, &self.ctrl, m);
    }
}

/// `System`'s `submit`, with the cache and controller calls in spans.
#[allow(clippy::too_many_arguments)]
fn submit(
    llc: &mut Cache,
    ctrl: &mut MemController,
    c: &mut Counters,
    line_bytes: u64,
    line_shift: Option<u32>,
    core: usize,
    now: u64,
    op: MemOp,
) -> SubmitResult {
    let (addr, is_write) = match op {
        MemOp::Read { addr } => (addr, false),
        MemOp::Write { addr } => (addr, true),
    };
    let line = match line_shift {
        Some(shift) => addr >> shift,
        None => addr / line_bytes,
    };
    c.cache_accesses += 1;
    let token = match span(Layer::Cache, || llc.try_access(line, is_write)) {
        TryAccess::Hit => return SubmitResult::LlcHit,
        TryAccess::Miss(token) => token,
    };
    let write_room = span(Layer::MemctrlDrain, || {
        ctrl.write_queue_len() < ctrl.config().write_queue_capacity
    });
    if !write_room {
        return SubmitResult::Retry;
    }
    if is_write {
        c.cache_accesses += 1;
        match span(Layer::Cache, || llc.fill(token)) {
            Some(victim) => {
                enqueue_victim(ctrl, victim, core, now);
                SubmitResult::QueuedWrite
            }
            None => SubmitResult::LlcHit,
        }
    } else {
        let Some(id) = span(Layer::MemctrlEnqueue, || ctrl.enqueue_read(line, core, now)) else {
            c.enqueue_refused += 1;
            return SubmitResult::Retry;
        };
        c.cache_accesses += 1;
        if let Some(victim) = span(Layer::Cache, || llc.fill(token)) {
            enqueue_victim(ctrl, victim, core, now);
        }
        SubmitResult::QueuedRead(id)
    }
}

/// Queues an evicted dirty line (room was checked before the fill).
fn enqueue_victim(ctrl: &mut MemController, victim: u64, core: usize, now: u64) {
    let ok = span(Layer::MemctrlEnqueue, || {
        ctrl.enqueue_write(victim, core, now)
    });
    assert!(ok, "write room was checked");
}
