//! Open-loop traffic injector: the datacenter-mode machine.
//!
//! [`crate::System`] is closed-loop — a stalled core stops issuing, so
//! the request rate adapts to the memory system and mean IPC is the
//! natural metric. Datacenter front-ends are open-loop: requests arrive
//! on a wall-clock schedule regardless of how the memory system is
//! doing, queue up in front of it when it falls behind, and the metric
//! that matters is the *tail* of schedule-to-data latency (DSARP's
//! motivation, Chang et al., HPCA 2014). [`OpenLoopSystem`] drives the
//! unmodified [`MemController`] with seeded arrival processes
//! ([`rop_trace::arrival`]) and collects fixed-bucket log2 latency
//! histograms ([`crate::metrics::LatencyHistogram`]).
//!
//! Semantics:
//!
//! * Each of `tenants` traffic sources owns one rank-partition worth of
//!   lines (base line `t × lines_per_rank`), so under the
//!   rank-partitioned mapping tenant *t*'s requests land on rank *t* —
//!   the same isolation contrast the closed-loop multicore runs use.
//! * Arrivals from all tenants merge into one FIFO frontend backlog in
//!   `(arrival cycle, tenant)` order. The head of the backlog is
//!   offered to the controller every cycle; when the controller refuses
//!   (queue full), the backlog grows — there is no back-pressure on the
//!   generators. Latency is measured from the *scheduled arrival*, so
//!   backlog wait counts toward the tail, exactly like a datacenter SLO
//!   clock that starts when the request hits the front-end.
//! * Reads whose lifetime overlaps a refresh freeze (tracked by the
//!   controller's opt-in id tap) are additionally recorded in a second
//!   histogram — the refresh-attributed tail.
//! * The run is time-bounded (`duration` cycles), not work-bounded:
//!   quantiles need a fixed observation window. Reads still in flight
//!   or still backlogged at the end are censored (counted in
//!   `backlog_final`, not in the histogram).
//!
//! [`OpenLoopSystem`] is the shared [`Engine`] loop (DESIGN.md §8) with
//! an [`ArrivalFrontend`] in place of the cores, so it has the same
//! per-cycle reference mode ([`OpenLoopSystem::run_reference`]) that
//! the differential tests compare [`OpenLoopSystem::run`] against.

use std::collections::VecDeque;

use rop_memctrl::{Completion, MemController};
use rop_trace::{Arrival, ArrivalGen};

use crate::config::{OpenLoopSpec, SystemConfig};
use crate::engine::{controller_for, Engine, Frontend};
use crate::metrics::{LatencyHistogram, OpenLoopMetrics, RunMetrics};
use crate::Cycle;

/// One request waiting in the frontend backlog.
#[derive(Debug, Clone, Copy)]
struct PendingReq {
    /// Scheduled arrival cycle (the SLO clock start).
    at: Cycle,
    /// Tenant index (doubles as the controller's `core` id).
    tenant: usize,
    /// Absolute line address inside the tenant's partition.
    line_addr: u64,
    is_write: bool,
}

/// The reads a front-end has injected and not yet scored, indexed by
/// request id: each one's scheduled arrival and whether a refresh
/// freeze blocked it. Controller ids rise with every request (writes
/// take ids too), so the live reads sit in a window from the oldest
/// unscored one to the newest id, which the queue depth bounds.
#[derive(Debug)]
struct ReadSlab {
    /// The id of `entries[0]`.
    first: u64,
    /// Per id from `first` on: `(arrival, blocked)` for a live read,
    /// `None` for a write's id or a scored read.
    entries: VecDeque<Option<(Cycle, bool)>>,
}

impl ReadSlab {
    fn with_capacity(ids: usize) -> Self {
        ReadSlab {
            first: 0,
            entries: VecDeque::with_capacity(ids),
        }
    }

    /// Files read `id`, newer than every id filed before.
    fn insert(&mut self, id: u64, at: Cycle) {
        if self.entries.is_empty() {
            self.first = id;
        }
        let end = self.first + self.entries.len() as u64;
        debug_assert!(id >= end, "read ids must rise");
        for _ in end..id {
            self.entries.push_back(None);
        }
        self.entries.push_back(Some((at, false)));
    }

    fn entry(&mut self, id: u64) -> Option<&mut (Cycle, bool)> {
        let i = usize::try_from(id.checked_sub(self.first)?).ok()?;
        self.entries.get_mut(i)?.as_mut()
    }

    /// Marks live read `id` as blocked by a refresh freeze.
    fn mark_blocked(&mut self, id: u64) {
        if let Some(e) = self.entry(id) {
            e.1 = true;
        }
    }

    /// Takes live read `id` out: its arrival and blocked flag.
    fn remove(&mut self, id: u64) -> Option<(Cycle, bool)> {
        let taken = self.entry(id).copied();
        if taken.is_some() {
            let i = (id - self.first) as usize;
            self.entries[i] = None;
            while let Some(None) = self.entries.front() {
                self.entries.pop_front();
                self.first += 1;
            }
        }
        taken
    }
}

/// A complete open-loop machine: arrival generators → frontend backlog
/// → controller → DRAM.
pub type OpenLoopSystem = Engine<ArrivalFrontend>;

/// The open-loop front-end: per-tenant arrival generators merged into
/// one FIFO backlog, plus the latency histograms scored on completion.
pub struct ArrivalFrontend {
    spec: OpenLoopSpec,
    gens: Vec<ArrivalGen>,
    /// Peeked next arrival per tenant (generators are infinite).
    heads: Vec<Arrival>,
    /// The earliest of `heads`.
    next_at: Cycle,
    /// Base line address of each tenant's footprint.
    tenant_base: Vec<u64>,
    /// FIFO of requests that have arrived but not yet been accepted.
    backlog: VecDeque<PendingReq>,
    /// Live reads by id: scheduled arrival (latency is scored from it
    /// on completion) and whether a refresh freeze blocked them.
    reads: ReadSlab,
    blocked_scratch: Vec<u64>,
    read_hist: LatencyHistogram,
    refresh_hist: LatencyHistogram,
    reads_injected: u64,
    writes_injected: u64,
    backlog_peak: u64,
}

impl ArrivalFrontend {
    /// Moves every arrival scheduled at or before `now` from the
    /// generators into the backlog, in `(arrival, tenant)` order.
    fn merge_arrivals(&mut self, now: Cycle) {
        // Nothing is due. The backlog has only shrunk since the last
        // merge, so its peak stands.
        if now < self.next_at {
            return;
        }
        loop {
            let mut best: Option<usize> = None;
            for (t, h) in self.heads.iter().enumerate() {
                if h.at > now {
                    continue;
                }
                // Ascending tenant iteration makes the first strict
                // minimum the (at, tenant) winner.
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
            self.heads[t] = self.gens[t].next_arrival();
        }
        self.next_at = earliest(&self.heads);
        self.backlog_peak = self.backlog_peak.max(self.backlog.len() as u64);
    }

    /// Offers the backlog head to the controller until it refuses.
    /// Head-of-line blocking is deliberate: the frontend is a FIFO, so
    /// one full queue stalls everything behind it (that wait is real
    /// latency and must show in the tail).
    fn inject(&mut self, ctrl: &mut MemController, now: Cycle) {
        while let Some(&head) = self.backlog.front() {
            if head.is_write {
                if !ctrl.enqueue_write(head.line_addr, head.tenant, now) {
                    break;
                }
                self.writes_injected += 1;
            } else {
                let Some(id) = ctrl.enqueue_read(head.line_addr, head.tenant, now) else {
                    break;
                };
                self.reads.insert(id, head.at);
                self.reads_injected += 1;
            }
            self.backlog.pop_front();
        }
    }
}

/// The earliest scheduled arrival among `heads`.
fn earliest(heads: &[Arrival]) -> Cycle {
    heads.iter().map(|h| h.at).min().unwrap_or(Cycle::MAX)
}

impl Frontend for ArrivalFrontend {
    /// Scores a delivered read against its SLO clock.
    fn deliver(&mut self, c: Completion) {
        if let Some((at, blocked)) = self.reads.remove(c.id) {
            let latency = c.done_at.saturating_sub(at);
            self.read_hist.record(latency);
            if blocked {
                self.refresh_hist.record(latency);
            }
        }
    }

    /// Pulls due arrivals, then pushes at the controller.
    fn act(&mut self, ctrl: &mut MemController, now: Cycle) {
        self.merge_arrivals(now);
        self.inject(ctrl, now);
    }

    /// Collects the read ids the tick saw blocked by a refresh freeze.
    fn after_tick(&mut self, ctrl: &mut MemController, _now: Cycle) {
        ctrl.drain_refresh_blocked_into(&mut self.blocked_scratch);
        for &id in &self.blocked_scratch {
            self.reads.mark_blocked(id);
        }
        self.blocked_scratch.clear();
    }

    /// Time-bounded: only the window's end stops the run.
    fn done(&self) -> bool {
        false
    }

    /// The next scheduled arrival. A non-empty backlog forces per-cycle
    /// stepping — a queue slot can open at any controller event, and
    /// the frontend must retry immediately.
    fn next_event(&self, now: Cycle) -> Cycle {
        if !self.backlog.is_empty() {
            return now + 1;
        }
        self.next_at
    }

    /// Arrivals are scheduled in absolute cycles, so a skipped span has
    /// nothing to replay.
    fn skip(&mut self, _now: Cycle, _span: Cycle) {}
}

impl OpenLoopSystem {
    /// Builds the open-loop machine described by `cfg` (whose
    /// `open_loop` field must be set).
    ///
    /// # Panics
    /// Panics on an invalid configuration: missing/invalid open-loop
    /// spec, more tenants than ranks, or a tenant footprint larger than
    /// one rank partition.
    pub fn new(cfg: SystemConfig) -> Self {
        let mut ctrl = controller_for(&cfg);
        let spec = cfg
            .open_loop
            .clone()
            .expect("OpenLoopSystem requires cfg.open_loop");
        spec.validate().expect("invalid open-loop spec");
        let lines_per_rank = ctrl.mapping().lines_per_rank();
        assert!(
            spec.tenants <= cfg.ranks,
            "open-loop tenants ({}) exceed ranks ({})", // rop-lint: allow(no-panic)
            spec.tenants,
            cfg.ranks
        );
        assert!(
            spec.region_lines <= lines_per_rank,
            "tenant footprint ({} lines) exceeds one rank partition ({lines_per_rank})", // rop-lint: allow(no-panic)
            spec.region_lines
        );
        let per_tenant_rpkc = spec.offered_rpkc / spec.tenants as f64;
        let mut gens: Vec<ArrivalGen> = (0..spec.tenants)
            .map(|t| {
                ArrivalGen::new(
                    spec.process.clone(),
                    per_tenant_rpkc,
                    spec.pattern.clone(),
                    spec.region_lines,
                    spec.write_fraction,
                    cfg.seed.wrapping_add(t as u64 * 7919),
                )
            })
            .collect();
        let heads: Vec<Arrival> = gens.iter_mut().map(|g| g.next_arrival()).collect();
        let tenant_base = (0..spec.tenants)
            .map(|t| t as u64 * lines_per_rank)
            .collect();
        ctrl.set_track_refresh_blocked(true);
        let fe = ArrivalFrontend {
            spec,
            gens,
            next_at: earliest(&heads),
            heads,
            tenant_base,
            backlog: VecDeque::new(),
            // Live ids span about one pass through the controller's
            // queues; more grows once.
            reads: ReadSlab::with_capacity(
                4 * (ctrl.config().read_queue_capacity + ctrl.config().write_queue_capacity),
            ),
            blocked_scratch: Vec::new(),
            read_hist: LatencyHistogram::new(),
            refresh_hist: LatencyHistogram::new(),
            reads_injected: 0,
            writes_injected: 0,
            backlog_peak: 0,
        };
        Engine::with_frontend(cfg, ctrl, fe)
    }

    /// Runs the injector for the configured duration and returns the
    /// metrics (with `open_loop` populated).
    pub fn run(&mut self) -> RunMetrics {
        self.advance_to(self.fe.spec.duration);
        self.collect()
    }

    /// Runs the injector event-driven up to cycle `until`, capped at the
    /// configured window's end, without collecting metrics; a later
    /// call or [`OpenLoopSystem::run`] carries on from there.
    pub fn advance_to(&mut self, until: Cycle) {
        self.drive(until.min(self.fe.spec.duration), true);
    }

    /// [`OpenLoopSystem::run`] stepping every single cycle: the
    /// per-cycle oracle the differential tests compare the event-driven
    /// run against.
    pub fn run_reference(&mut self) -> RunMetrics {
        self.drive(self.fe.spec.duration, false);
        self.collect()
    }

    fn collect(&mut self) -> RunMetrics {
        let duration = self.fe.spec.duration.max(1);
        let mut m = self.metrics(duration, 0);
        let fe = &self.fe;
        m.avg_read_latency = fe.read_hist.mean();
        m.open_loop = Some(OpenLoopMetrics {
            process: fe.spec.process.label().to_string(),
            offered_rpkc: fe.spec.offered_rpkc,
            achieved_rpkc: fe.read_hist.count() as f64 * 1000.0 / duration as f64,
            reads_injected: fe.reads_injected,
            writes_injected: fe.writes_injected,
            backlog_peak: fe.backlog_peak,
            backlog_final: fe.backlog.len() as u64,
            // Behind schedule by more than one controller queue's worth
            // at the end of the window: the offered load is past this
            // mechanism's saturation point.
            saturated: fe.backlog.len() > self.ctrl.config().read_queue_capacity,
            read_latency: fe.read_hist.clone(),
            refresh_blocked_latency: fe.refresh_hist.clone(),
        });
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemKind;
    use rop_memctrl::MappingScheme;
    use rop_trace::{AddressPattern, ArrivalProcess, Benchmark};

    fn open_loop_config(kind: SystemKind, rpkc: f64, duration: Cycle) -> SystemConfig {
        let mut cfg = SystemConfig::multi_core(
            [
                Benchmark::Lbm,
                Benchmark::Libquantum,
                Benchmark::Bwaves,
                Benchmark::GemsFDTD,
            ],
            kind,
            42,
        );
        // Pin tenants to ranks regardless of the mechanism's default
        // mapping (the tail-latency experiment does the same).
        let mut ctrl = kind.memctrl_config(cfg.ranks, cfg.seed);
        ctrl.mapping = MappingScheme::RankPartitioned;
        cfg.ctrl_override = Some(ctrl);
        cfg.open_loop = Some(OpenLoopSpec {
            process: ArrivalProcess::Poisson,
            offered_rpkc: rpkc,
            tenants: 4,
            pattern: AddressPattern::Random,
            region_lines: 1 << 12,
            write_fraction: 0.25,
            duration,
        });
        cfg
    }

    #[test]
    fn runs_and_reports_latency() {
        let mut sys = OpenLoopSystem::new(open_loop_config(SystemKind::Baseline, 80.0, 100_000));
        let m = sys.run();
        let ol = m.open_loop.expect("open-loop metrics");
        assert!(ol.reads_injected > 1_000, "{}", ol.reads_injected);
        assert!(ol.read_latency.count() > 1_000);
        assert!(ol.read_latency.p50() > 0);
        assert!(ol.read_latency.p999() >= ol.read_latency.p99());
        assert!(ol.read_latency.p99() >= ol.read_latency.p50());
        assert!(!ol.saturated);
        assert!(
            (ol.achieved_rpkc - 80.0 * 0.75).abs() < 12.0,
            "{}",
            ol.achieved_rpkc
        );
        assert_eq!(m.total_cycles, 100_000);
        assert!(m.refreshes > 0);
        // Refresh-attributed tail: some reads overlapped a freeze, and
        // the blocked subset is worse (or equal) at the median.
        assert!(ol.refresh_blocked_latency.count() > 0);
        assert!(ol.refresh_blocked_latency.p50() >= ol.read_latency.p50());
    }

    #[test]
    fn deterministic_across_runs() {
        let run = || {
            let mut sys = OpenLoopSystem::new(open_loop_config(SystemKind::Darp, 120.0, 60_000));
            let mut m = sys.run();
            // Wall-clock timing is the one legitimately nondeterministic
            // field; everything else must be byte-identical.
            m.wall_seconds = 0.0;
            m.to_json().render()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn audit_clean_for_every_mechanism() {
        for kind in SystemKind::MECHANISMS {
            let mut sys = OpenLoopSystem::new(open_loop_config(kind, 60.0, 40_000));
            sys.enable_audit();
            let m = sys.run(); // panics on any violation
            let audit = m.audit.expect("audited run");
            assert!(audit.events > 0, "{kind:?}: no events audited");
            assert_eq!(audit.violations, 0);
        }
    }

    #[test]
    fn saturates_past_the_bus_ceiling() {
        // DDR4-1600, burst 4: the data bus serves at most 250 rpkc.
        // Offering 400 rpkc must leave the frontend behind schedule.
        let mut sys = OpenLoopSystem::new(open_loop_config(SystemKind::Baseline, 400.0, 80_000));
        let m = sys.run();
        let ol = m.open_loop.unwrap();
        assert!(ol.saturated, "backlog_final = {}", ol.backlog_final);
        assert!(ol.achieved_rpkc < 300.0);
        // Saturation shows up as queueing-dominated latency: the tail is
        // thousands of cycles, far past any DRAM service time.
        assert!(ol.read_latency.p999() > 2_048, "{}", ol.read_latency.p999());
    }

    #[test]
    fn higher_load_has_fatter_tail() {
        let p999 = |rpkc: f64| {
            let mut sys =
                OpenLoopSystem::new(open_loop_config(SystemKind::Baseline, rpkc, 120_000));
            let m = sys.run();
            m.open_loop.unwrap().read_latency.p999()
        };
        assert!(p999(220.0) > p999(40.0));
    }

    #[test]
    #[should_panic(expected = "tenants")]
    fn more_tenants_than_ranks_panics() {
        let mut cfg = open_loop_config(SystemKind::Baseline, 60.0, 10_000);
        cfg.open_loop.as_mut().unwrap().tenants = 8;
        let _ = OpenLoopSystem::new(cfg);
    }

    #[test]
    fn mechanism_config_without_override_works() {
        // No ctrl_override: the mechanism's own mapping applies
        // (footprints stay disjoint even when not rank-pinned).
        let mut cfg = open_loop_config(SystemKind::Sarp, 60.0, 30_000);
        cfg.ctrl_override = None;
        let m = OpenLoopSystem::new(cfg).run();
        assert!(m.open_loop.unwrap().read_latency.count() > 100);
    }

    /// Closed-loop differential guard: constructing/running the
    /// open-loop engine must not perturb the closed-loop path — a
    /// `System` run before and after an interleaved `OpenLoopSystem`
    /// run is byte-identical.
    #[test]
    fn closed_loop_engine_is_unperturbed() {
        let closed = || {
            let cfg = SystemConfig::single_core(Benchmark::Lbm, SystemKind::Rop { buffer: 64 }, 7);
            let mut sys = crate::System::new(cfg);
            let mut m = sys.run_until(20_000, 2_000_000);
            m.wall_seconds = 0.0;
            m.to_json().render()
        };
        let before = closed();
        let mut ol = OpenLoopSystem::new(open_loop_config(SystemKind::Baseline, 120.0, 30_000));
        let _ = ol.run();
        let after = closed();
        assert_eq!(before, after);
    }

    /// An open-loop run's metrics survive a JSON round trip
    /// byte-for-byte, latency histograms included.
    #[test]
    fn run_metrics_roundtrip_from_openloop_run() {
        let mut sys = OpenLoopSystem::new(open_loop_config(SystemKind::Raidr, 100.0, 50_000));
        let m = sys.run();
        let text = m.to_json().render();
        let back = RunMetrics::from_json(&rop_stats::Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back.to_json().render(), text);
        let ol = back.open_loop.unwrap();
        assert_eq!(
            ol.read_latency.p999(),
            m.open_loop.as_ref().unwrap().read_latency.p999()
        );
    }

    /// Per-cycle oracle where the backlog's forced step matters: ROP-64
    /// at tREFI/8 and 150 rpkc keeps the backlog non-empty across
    /// refresh freezes, so an event-driven loop that stopped retrying
    /// the backlog head every cycle would inject late and diverge.
    #[test]
    fn event_loop_matches_reference_under_refresh_pressure() {
        let kind = SystemKind::Rop { buffer: 64 };
        let mut cfg = open_loop_config(kind, 150.0, 60_000);
        let ctrl = cfg.ctrl_override.as_mut().expect("override set");
        ctrl.dram.timing.t_refi_base /= 8;
        let run = |reference: bool| {
            let mut sys = OpenLoopSystem::new(cfg.clone());
            let mut m = if reference {
                sys.run_reference()
            } else {
                sys.run()
            };
            // The event count is what the two modes legitimately
            // differ in, wall-clock time is nondeterministic.
            m.events = 0;
            m.wall_seconds = 0.0;
            m.to_json().render()
        };
        assert_eq!(run(false), run(true));
    }
}
