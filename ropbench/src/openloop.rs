//! `openloop-knee`: the open-loop injector near saturation.
//!
//! `OpenLoopSystem` is driven by a 2-state MMPP (4× bursts) from 4 tenants
//! with 25% writes, once per refresh mechanism (all-bank, DARP, SARP,
//! RAIDR) at the highest offered load whose backlog stays bounded over the
//! window. There are no cores, so the front-end drops out: controller
//! scheduling with full queues, forced per-cycle stepping, the wheel and
//! the non-trivial mechanisms do the work.
//!
//! The mean dwell is 2 000 cycles, not T3's 20 000: with 20 000-cycle
//! dwells a window holds about a dozen bursts per tenant, and the simulated
//! work (events, queue depth) then differs so much from seed to seed that
//! no host-time metric stays within its bound across seeds.
//!
//! The traced mode runs [`Replica`], the benchmark's copy of
//! `OpenLoopSystem::run` over the public APIs, and requires it to match
//! the real run bit-exactly before any layer number is written.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::time::{Duration, Instant};

use rop_memctrl::{Completion, MemController};
use rop_sim_system::experiments::tail_latency::tail_config;
use rop_sim_system::runner::{RunSpec, SweepJob};
use rop_sim_system::wheel::TimingWheel;
use rop_sim_system::{
    LatencyHistogram, OpenLoopMetrics, OpenLoopSpec, OpenLoopSystem, RunMetrics, SystemConfig,
    SystemKind,
};
use rop_trace::{Arrival, ArrivalGen, ArrivalProcess};

use crate::common::{
    catch, median, note_samples, pass_seed, pass_time, repeat_for, sim_fingerprint, spin, timed,
    timed_cal, CalClock, Outcome, SUB_SEEDS,
};
use crate::layers::{self, LayerCounts};
use crate::tracer::{span, Layer};

/// Offered load, requests per kilo-cycle summed over the 4 tenants.
pub const OFFERED_RPKC: f64 = 150.0;
/// Observation window per mechanism, in memory cycles.
pub const DURATION: u64 = 150_000;
/// Window of the audited check runs.
const AUDIT_CYCLES: u64 = 40_000;
/// Set-up repetitions per run (the reported `setup_s` is their median).
const SETUP_REPS: usize = 15;

fn process() -> ArrivalProcess {
    ArrivalProcess::Mmpp2 {
        burst_rate_multiplier: 4.0,
        mean_dwell_cycles: 2_000,
    }
}

/// One job per refresh mechanism.
pub fn jobs(seed: u64, duration: u64) -> Vec<SweepJob> {
    let spec = RunSpec {
        instructions: duration,
        max_cycles: duration,
        seed,
    };
    SystemKind::MECHANISMS
        .iter()
        .map(|&kind| {
            SweepJob::custom(
                format!("openloop-knee/{}", kind.label()),
                tail_config(kind, process(), OFFERED_RPKC, duration, seed),
                spec,
            )
        })
        .collect()
}

fn setup(seed: u64) -> Result<(Vec<SweepJob>, Vec<OpenLoopSystem>, f64), String> {
    let mut clock = CalClock::start();
    let jobs = jobs(seed, DURATION);
    crate::gate::lint_and_gate(&jobs)?;
    let systems = jobs
        .iter()
        .map(|j| OpenLoopSystem::new(j.config.clone()))
        .collect();
    Ok((jobs, systems, clock.read()))
}

/// Arrivals scheduled before the window end, recounted from generators
/// seeded exactly as the injector seeds its own.
fn recount_arrivals(cfg: &SystemConfig) -> u64 {
    let spec = cfg.open_loop.as_ref().expect("open-loop job");
    (0..spec.tenants)
        .map(|t| {
            let mut g = tenant_gen(spec, cfg.seed, t);
            let mut n = 0;
            while g.next_arrival().at < spec.duration {
                n += 1;
            }
            n
        })
        .sum()
}

fn tenant_gen(spec: &OpenLoopSpec, seed: u64, tenant: usize) -> ArrivalGen {
    ArrivalGen::new(
        spec.process.clone(),
        spec.offered_rpkc / spec.tenants as f64,
        spec.pattern.clone(),
        spec.region_lines,
        spec.write_fraction,
        seed.wrapping_add(tenant as u64 * 7919),
    )
}

/// Output checks on one finished job.
fn check_run(job: &SweepJob, m: &RunMetrics, arrivals: u64) -> Vec<String> {
    let mut bad = Vec::new();
    let Some(ol) = &m.open_loop else {
        return vec![format!("{}: no open-loop metrics", job.label)];
    };
    let accounted = ol.reads_injected + ol.writes_injected + ol.backlog_final;
    if accounted != arrivals {
        bad.push(format!(
            "{}: {arrivals} arrivals scheduled but {accounted} injected or backlogged",
            job.label
        ));
    }
    if ol.read_latency.count() > ol.reads_injected {
        bad.push(format!(
            "{}: {} latencies recorded for {} reads",
            job.label,
            ol.read_latency.count(),
            ol.reads_injected
        ));
    }
    if ol.read_latency.count() == 0 {
        bad.push(format!("{}: no read completed", job.label));
    }
    bad
}

/// An audited short window of the same configuration must be clean.
fn check_audit(job: &SweepJob) -> Vec<String> {
    let mut cfg = job.config.clone();
    if let Some(spec) = cfg.open_loop.as_mut() {
        spec.duration = AUDIT_CYCLES;
    }
    match catch(|| {
        let mut sys = OpenLoopSystem::new(cfg);
        sys.enable_audit();
        sys.run().audit
    }) {
        Ok(Some(a)) if a.violations == 0 && a.events > 0 => Vec::new(),
        Ok(a) => vec![format!("{}: audit summary {a:?}", job.label)],
        Err(e) => vec![format!("{}: audit failed: {e}", job.label)],
    }
}

/// One measured openloop-knee run: set-up samples, timed passes until
/// `seconds` have passed, then the output checks (outside the timing).
pub fn run(seed: u64, seconds: f64) -> Result<Outcome, String> {
    let mut setups = Vec::new();
    for _ in 0..SETUP_REPS {
        setups.push(setup(seed)?.2);
    }
    let job_sets: Vec<Vec<SweepJob>> = (0..SUB_SEEDS)
        .map(|k| jobs(pass_seed(seed, k), DURATION))
        .collect();

    // Each pass runs every mechanism once with its seed; each run is one
    // timed sample. Every pass seed runs at least twice.
    let passes: Vec<Vec<(RunMetrics, f64)>> = repeat_for(seconds, 2 * SUB_SEEDS, |p| {
        job_sets[p % SUB_SEEDS]
            .iter()
            .map(|j| {
                let mut sys = OpenLoopSystem::new(j.config.clone());
                timed_cal(|| sys.run())
            })
            .collect()
    });

    let mut out = Outcome::default();
    let checked: Vec<Vec<Vec<String>>> = job_sets
        .iter()
        .zip(&passes)
        .map(|(jobs, pass)| {
            jobs.iter()
                .zip(pass)
                .map(|(j, (m, _))| {
                    let mut bad = check_run(j, m, recount_arrivals(&j.config));
                    bad.extend(check_audit(j));
                    bad
                })
                .collect()
        })
        .collect();
    for (p, pass) in passes.iter().enumerate() {
        let k = p % SUB_SEEDS;
        for (i, (m, _)) in pass.iter().enumerate() {
            out.attempted += 1;
            let mut bad = checked[k][i].clone();
            if sim_fingerprint(m) != sim_fingerprint(&passes[k][i].0) {
                bad.push(format!(
                    "{}: same seed, different simulated output",
                    job_sets[k][i].label
                ));
            }
            if !bad.is_empty() {
                out.failed += 1;
                out.failures.extend(bad);
            }
        }
    }
    out.failures.dedup();

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

/// The traced openloop-knee run, added to `counts`. `plant` adds a busy
/// wait to every arrival-generator call (the self-test).
pub fn traced(seed: u64, plant: Duration, counts: &mut LayerCounts) -> Result<(), String> {
    let jobs = jobs(seed, DURATION);
    crate::gate::traced_lint_and_gate(&jobs, counts)?;
    for job in &jobs {
        let (real, real_wall) = timed(|| {
            let mut sys = OpenLoopSystem::new(job.config.clone());
            let m = sys.run();
            (m, format!("{:?}", sys.controller().stats()))
        });
        let mut rep = Replica::new(job.config.clone(), plant);
        let (m, rep_wall) = timed(|| rep.run());
        if sim_fingerprint(&m) != sim_fingerprint(&real.0)
            || format!("{:?}", rep.ctrl.stats()) != real.1
        {
            return Err(format!(
                "{}: traced replica diverges from OpenLoopSystem::run",
                job.label
            ));
        }
        if let Some(ol) = &real.0.open_loop {
            counts.read_p99 = counts.read_p99.max(ol.read_latency.p99());
        }
        counts.jobs += 1;
        counts.untraced_wall += real_wall;
        counts.traced_wall += rep_wall;
        rep.fold_into(counts, &m);
    }
    Ok(())
}

#[derive(Debug, Clone, Copy)]
struct PendingReq {
    at: u64,
    tenant: usize,
    line_addr: u64,
    is_write: bool,
}

/// The benchmark's copy of `OpenLoopSystem` with every layer call in a
/// span.
struct Replica {
    cfg: SystemConfig,
    spec: OpenLoopSpec,
    ctrl: MemController,
    gens: Vec<ArrivalGen>,
    heads: Vec<Arrival>,
    tenant_base: Vec<u64>,
    backlog: VecDeque<PendingReq>,
    arrival_of: BTreeMap<u64, u64>,
    blocked: BTreeSet<u64>,
    blocked_scratch: Vec<u64>,
    inflight: TimingWheel,
    due: Vec<Completion>,
    now: u64,
    read_hist: LatencyHistogram,
    refresh_hist: LatencyHistogram,
    reads_injected: u64,
    writes_injected: u64,
    backlog_peak: u64,
    wall: f64,
    events: u64,
    plant: Duration,
    forced_steps: u64,
    tick_calls: u64,
    enqueue_refused: u64,
    wheel_pushes: u64,
    wheel_pops: u64,
    wheel_peak: u64,
    read_queue_cycles: u128,
    backlog_cycles: u128,
}

impl Replica {
    fn new(cfg: SystemConfig, plant: Duration) -> Self {
        let spec = cfg.open_loop.clone().expect("open-loop job");
        let ctrl_cfg = cfg
            .ctrl_override
            .clone()
            .unwrap_or_else(|| cfg.kind.memctrl_config(cfg.ranks, cfg.seed));
        let mut ctrl = MemController::new(ctrl_cfg);
        let lines_per_rank = ctrl.mapping().lines_per_rank();
        let mut gens: Vec<ArrivalGen> = (0..spec.tenants)
            .map(|t| tenant_gen(&spec, cfg.seed, t))
            .collect();
        let heads = gens.iter_mut().map(|g| next_arrival(g, plant)).collect();
        let tenant_base = (0..spec.tenants)
            .map(|t| t as u64 * lines_per_rank)
            .collect();
        ctrl.set_track_refresh_blocked(true);
        Replica {
            cfg,
            spec,
            ctrl,
            gens,
            heads,
            tenant_base,
            backlog: VecDeque::new(),
            arrival_of: BTreeMap::new(),
            blocked: BTreeSet::new(),
            blocked_scratch: Vec::new(),
            inflight: TimingWheel::new(),
            due: Vec::new(),
            now: 0,
            read_hist: LatencyHistogram::new(),
            refresh_hist: LatencyHistogram::new(),
            reads_injected: 0,
            writes_injected: 0,
            backlog_peak: 0,
            wall: 0.0,
            events: 0,
            plant,
            forced_steps: 0,
            tick_calls: 0,
            enqueue_refused: 0,
            wheel_pushes: 0,
            wheel_pops: 0,
            wheel_peak: 0,
            read_queue_cycles: 0,
            backlog_cycles: 0,
        }
    }

    fn merge_arrivals(&mut self, now: u64) {
        loop {
            let mut best: Option<usize> = None;
            for (t, h) in self.heads.iter().enumerate() {
                if h.at > now {
                    continue;
                }
                if best.is_none_or(|b| h.at < self.heads[b].at) {
                    best = Some(t);
                }
            }
            let Some(t) = best else { break };
            let h = self.heads[t];
            self.backlog.push_back(PendingReq {
                at: h.at,
                tenant: t,
                line_addr: self.tenant_base[t] + h.line_offset,
                is_write: h.is_write,
            });
            self.heads[t] = next_arrival(&mut self.gens[t], self.plant);
        }
        self.backlog_peak = self.backlog_peak.max(self.backlog.len() as u64);
    }

    fn inject(&mut self, now: u64) {
        while let Some(&head) = self.backlog.front() {
            let ctrl = &mut self.ctrl;
            if head.is_write {
                let ok = span(Layer::MemctrlEnqueue, || {
                    ctrl.enqueue_write(head.line_addr, head.tenant, now)
                });
                if !ok {
                    self.enqueue_refused += 1;
                    break;
                }
                self.writes_injected += 1;
            } else {
                let id = span(Layer::MemctrlEnqueue, || {
                    ctrl.enqueue_read(head.line_addr, head.tenant, now)
                });
                let Some(id) = id else {
                    self.enqueue_refused += 1;
                    break;
                };
                self.arrival_of.insert(id, head.at);
                self.reads_injected += 1;
            }
            self.backlog.pop_front();
        }
    }

    fn run(&mut self) -> RunMetrics {
        let start = Instant::now();
        span(Layer::Sim, || self.drive());
        self.wall = start.elapsed().as_secs_f64();
        self.collect()
    }

    fn drive(&mut self) {
        let duration = self.spec.duration;
        while self.now < duration {
            let now = self.now;
            self.events += 1;

            let Self { inflight, due, .. } = self;
            span(Layer::Wheel, || inflight.pop_due(now, due));
            self.wheel_pops += self.due.len() as u64;
            for i in 0..self.due.len() {
                let c = self.due[i];
                if let Some(at) = self.arrival_of.remove(&c.id) {
                    let latency = c.done_at.saturating_sub(at);
                    self.read_hist.record(latency);
                    if self.blocked.remove(&c.id) {
                        self.refresh_hist.record(latency);
                    }
                }
            }
            self.due.clear();

            self.merge_arrivals(now);
            self.inject(now);

            self.tick_calls += 1;
            let Self { ctrl, due, .. } = self;
            let hint = span(Layer::MemctrlTick, || ctrl.tick(now));
            span(Layer::MemctrlDrain, || ctrl.drain_completions_into(due));
            let queued = span(Layer::MemctrlDrain, || ctrl.read_queue_len()) as u128;
            for i in 0..self.due.len() {
                let d = self.due[i];
                span(Layer::Wheel, || self.inflight.push(d));
            }
            self.wheel_pushes += self.due.len() as u64;
            self.wheel_peak = self.wheel_peak.max(self.inflight.len() as u64);
            self.due.clear();
            let Self {
                ctrl,
                blocked_scratch,
                ..
            } = self;
            span(Layer::MemctrlDrain, || {
                ctrl.drain_refresh_blocked_into(blocked_scratch)
            });
            for &id in &self.blocked_scratch {
                self.blocked.insert(id);
            }
            self.blocked_scratch.clear();

            let mut next = hint;
            if let Some(done_at) = span(Layer::Wheel, || self.inflight.peek_earliest()) {
                next = next.min(done_at);
            }
            if let Some(at) = self.heads.iter().map(|h| h.at).min() {
                next = next.min(at);
            }
            if !self.backlog.is_empty() {
                next = now + 1;
                self.forced_steps += 1;
            }
            let next = next.max(now + 1).min(duration);
            self.read_queue_cycles += queued * (next - now) as u128;
            self.backlog_cycles += self.backlog.len() as u128 * (next - now) as u128;
            self.now = next;
        }
    }

    /// `OpenLoopSystem::collect`, field for field.
    fn collect(&mut self) -> RunMetrics {
        let duration = self.spec.duration.max(1);
        self.ctrl.finalize_analysis();
        let energy = self.ctrl.energy_breakdown(duration);
        let analysis = (0..self.ctrl.refresh_slots())
            .map(|slot| self.ctrl.analysis(slot).reports())
            .collect();
        let stats = self.ctrl.stats().clone();
        let refreshes: u64 = (0..self.cfg.ranks)
            .map(|r| self.ctrl.refreshes_issued(r))
            .sum();
        let open_loop = OpenLoopMetrics {
            process: self.spec.process.label().to_string(),
            offered_rpkc: self.spec.offered_rpkc,
            achieved_rpkc: self.read_hist.count() as f64 * 1000.0 / duration as f64,
            reads_injected: self.reads_injected,
            writes_injected: self.writes_injected,
            backlog_peak: self.backlog_peak,
            backlog_final: self.backlog.len() as u64,
            saturated: self.backlog.len() > self.ctrl.config().read_queue_capacity,
            read_latency: self.read_hist.clone(),
            refresh_blocked_latency: self.refresh_hist.clone(),
        };
        RunMetrics {
            system: self.cfg.kind.label(),
            cores: Vec::new(),
            total_cycles: duration,
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
            avg_read_latency: self.read_hist.mean(),
            hit_cycle_cap: false,
            wall_seconds: self.wall,
            instructions_total: 0,
            events: self.events,
            audit: None,
            open_loop: Some(open_loop),
        }
    }

    fn fold_into(&self, c: &mut LayerCounts, m: &RunMetrics) {
        c.sim_events += self.events;
        c.sim_cycles += m.total_cycles;
        c.sim_forced_steps += self.forced_steps;
        c.tick_calls += self.tick_calls;
        c.enqueue_refused += self.enqueue_refused;
        c.read_queue_cycles += self.read_queue_cycles;
        c.wheel_pushes += self.wheel_pushes;
        c.wheel_pops += self.wheel_pops;
        c.wheel_peak = c.wheel_peak.max(self.wheel_peak);
        c.ol_backlog_peak = c.ol_backlog_peak.max(self.backlog_peak);
        c.ol_backlog_cycles += self.backlog_cycles;
        c.ol_reads_scored += self.read_hist.count();
        c.ol_cycles += m.total_cycles;
        layers::fold_ctrl(c, &self.ctrl, m);
    }
}

/// `ArrivalGen::next_arrival` in a trace-layer span.
fn next_arrival(g: &mut ArrivalGen, plant: Duration) -> Arrival {
    span(Layer::Trace, || {
        if !plant.is_zero() {
            spin(plant);
        }
        g.next_arrival()
    })
}
