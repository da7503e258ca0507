//! The closed-loop machine: trace-driven cores → shared LLC → controller
//! → DRAM, run for a fixed amount of work.
//!
//! [`System`] is the shared [`Engine`] loop with a [`CoreFrontend`]: the
//! front-end ticks every core at each visited cycle, routes its memory
//! operations through the LLC into the controller, records quota
//! crossings, and replays skipped spans in O(1) per core via
//! [`Core::fast_forward`]. Two entry points drive it:
//!
//! * [`System::run_until`] — event-driven: every iteration advances
//!   straight to the earliest next event (core memory op, controller
//!   hint, or in-flight read completion).
//! * [`System::run_until_reference`] — the same loop ticking every
//!   single cycle. It exists as the semantic oracle: the differential
//!   tests assert both produce identical metrics.
//!
//! See DESIGN.md §8 for the event contract and the invariants that make
//! the batched loop cycle-exact.

use rop_cache::{Cache, TryAccess};
use rop_cpu::{Core, MemOp, SubmitResult};
use rop_memctrl::{Completion, MemController};
use rop_trace::SyntheticWorkload;

use crate::config::SystemConfig;
use crate::engine::{controller_for, Engine, Frontend};
use crate::metrics::{CoreMetrics, RunMetrics};
use crate::Cycle;

/// A complete simulated machine: cores → shared LLC → controller → DRAM.
pub type System = Engine<CoreFrontend>;

/// The closed-loop front-end: trace-driven cores behind a shared LLC,
/// each running to an instruction quota.
pub struct CoreFrontend {
    cores: Vec<Core<SyntheticWorkload>>,
    llc: Cache,
    line_bytes: u64,
    /// `log2(line_bytes)` when the line size is a power of two.
    line_shift: Option<u32>,
    /// Instruction quota of the current run.
    target: u64,
    /// Cycle at which each core crossed its instruction quota.
    finish: Vec<Option<Cycle>>,
}

impl Frontend for CoreFrontend {
    fn deliver(&mut self, c: Completion) {
        self.cores[c.core].complete_read(c.id);
    }

    /// Ticks every core for exactly this cycle.
    fn act(&mut self, ctrl: &mut MemController, now: Cycle) {
        let Self {
            cores,
            llc,
            line_bytes,
            line_shift,
            ..
        } = self;
        for (i, core) in cores.iter_mut().enumerate() {
            core.tick(|op| submit(llc, ctrl, *line_bytes, *line_shift, i, now, op));
        }
    }

    /// Records quota crossings.
    fn after_tick(&mut self, _ctrl: &mut MemController, now: Cycle) {
        for (i, core) in self.cores.iter().enumerate() {
            if self.finish[i].is_none() && core.stats().instructions >= self.target {
                self.finish[i] = Some(now + 1);
            }
        }
    }

    fn done(&self) -> bool {
        self.finish.iter().all(Option::is_some)
    }

    /// The next core memory op, or the tick after an unfinished core's
    /// quota crossing: the reference loop stops simulating once the last
    /// core crosses, so replaying past the crossing would count stall
    /// cycles the reference never executes.
    fn next_event(&self, now: Cycle) -> Cycle {
        let mut next = Cycle::MAX;
        for (i, core) in self.cores.iter().enumerate() {
            next = next.min(core.next_event(now));
            if self.finish[i].is_none() {
                let crossing = core.next_quota_crossing(now, self.target);
                next = next.min(crossing.saturating_add(1));
            }
        }
        next
    }

    /// Batch-replays the skipped cycles on every core (stall and
    /// gap-retirement accounting stays cycle-exact), watching for quota
    /// crossings inside the span.
    fn skip(&mut self, now: Cycle, span: Cycle) {
        for (i, core) in self.cores.iter_mut().enumerate() {
            let crossed = core.fast_forward(span, self.target);
            if self.finish[i].is_none() {
                if let Some(offset) = crossed {
                    self.finish[i] = Some(now + 1 + offset + 1);
                }
            }
        }
    }
}

impl System {
    /// Builds the system described by `cfg`.
    ///
    /// Each core's footprint is offset by one rank-partition worth of
    /// lines, so under rank-partitioned mappings core *i* occupies rank
    /// *i*, and under the interleaved baseline mapping footprints remain
    /// disjoint but spread over all ranks — exactly the contrast between
    /// the paper's Baseline and Baseline-RP/ROP systems.
    pub fn new(cfg: SystemConfig) -> Self {
        let ctrl = controller_for(&cfg);
        let lines_per_rank = ctrl.mapping().lines_per_rank();
        let line_bytes = ctrl.mapping().geometry().line_bytes as u64;
        let cores = cfg
            .benchmarks
            .iter()
            .enumerate()
            .map(|(i, b)| {
                let mut params = b.params();
                params.base_addr = i as u64 * lines_per_rank * line_bytes;
                let workload =
                    SyntheticWorkload::new(params, cfg.seed.wrapping_add(i as u64 * 7919));
                Core::new(cfg.core, workload)
            })
            .collect();
        let llc_line = cfg.llc.line_bytes as u64;
        let fe = CoreFrontend {
            cores,
            llc: Cache::new(cfg.llc),
            line_bytes: llc_line,
            line_shift: llc_line
                .is_power_of_two()
                .then(|| llc_line.trailing_zeros()),
            target: 0,
            finish: vec![None; cfg.benchmarks.len()],
        };
        Engine::with_frontend(cfg, ctrl, fe)
    }

    /// Runs until every core has retired `target_instructions` (or the
    /// safety cap of `max_cycles` is reached) and returns the metrics.
    ///
    /// Finished cores keep executing so multi-program contention persists
    /// until the last core completes, as in fixed-work methodology; their
    /// statistics are frozen at the quota-crossing cycle.
    pub fn run_until(&mut self, target_instructions: u64, max_cycles: Cycle) -> RunMetrics {
        self.fe.target = target_instructions;
        self.drive(max_cycles, true);
        self.collect()
    }

    /// [`System::run_until`] without any fast-forwarding: ticks every
    /// single cycle. Semantically identical and much slower — it is the
    /// oracle the differential tests compare the event-driven engine
    /// against.
    pub fn run_until_reference(
        &mut self,
        target_instructions: u64,
        max_cycles: Cycle,
    ) -> RunMetrics {
        self.fe.target = target_instructions;
        self.drive(max_cycles, false);
        self.collect()
    }

    fn collect(&mut self) -> RunMetrics {
        let (fe, now) = (&self.fe, self.now);
        let target = fe.target;
        let total_cycles = fe
            .finish
            .iter()
            .map(|f| f.unwrap_or(now))
            .max()
            .unwrap_or(now)
            .max(1);
        let cores: Vec<CoreMetrics> = fe
            .cores
            .iter()
            .zip(&fe.finish)
            .map(|(core, finish)| {
                let s = core.stats();
                let finish = finish.unwrap_or(now).max(1);
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
        let hit_cycle_cap = !fe.done();
        let instructions_total = cores.iter().map(|c| c.instructions).sum();
        let mut m = self.metrics(total_cycles, instructions_total);
        m.cores = cores;
        m.hit_cycle_cap = hit_cycle_cap;
        m
    }
}

/// Routes one core memory operation through the shared LLC and, on a
/// miss, into the memory controller.
///
/// The LLC is probed exactly once: a hit commits immediately, a miss
/// yields a token that is only committed after the controller has
/// accepted everything the miss generates — dropping the token on
/// back-pressure leaves the cache untouched, exactly like the retried
/// access never happened.
///
/// Store misses allocate in the LLC without fetching the line from DRAM
/// (their fill traffic is omitted; the store's memory-side cost is the
/// eventual dirty writeback — see DESIGN.md's substitution notes). Load
/// misses become DRAM reads and may evict a dirty victim, which becomes a
/// DRAM write.
fn submit(
    llc: &mut Cache,
    ctrl: &mut MemController,
    line_bytes: u64,
    line_shift: Option<u32>,
    core: usize,
    now: Cycle,
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

    let token = match llc.try_access(line, is_write) {
        TryAccess::Hit => return SubmitResult::LlcHit,
        TryAccess::Miss(token) => token,
    };

    // Miss path: make sure the controller can take everything this miss
    // may generate before committing the fill.
    let write_room = ctrl.write_queue_len() < ctrl.config().write_queue_capacity;
    if !write_room {
        return SubmitResult::Retry;
    }
    if is_write {
        match llc.fill(token) {
            Some(victim) => {
                let ok = ctrl.enqueue_write(victim, core, now);
                debug_assert!(ok, "write room was checked");
                SubmitResult::QueuedWrite
            }
            None => SubmitResult::LlcHit,
        }
    } else {
        let Some(id) = ctrl.enqueue_read(line, core, now) else {
            return SubmitResult::Retry;
        };
        if let Some(victim) = llc.fill(token) {
            let ok = ctrl.enqueue_write(victim, core, now);
            debug_assert!(ok, "write room was checked");
        }
        SubmitResult::QueuedRead(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemKind;
    use rop_trace::Benchmark;

    fn quick(kind: SystemKind, b: Benchmark) -> RunMetrics {
        let mut sys = System::new(SystemConfig::single_core(b, kind, 42));
        sys.run_until(200_000, 20_000_000)
    }

    #[test]
    fn baseline_single_core_completes() {
        let m = quick(SystemKind::Baseline, Benchmark::Libquantum);
        assert!(!m.hit_cycle_cap);
        assert_eq!(m.cores[0].instructions, 200_000);
        assert!(m.ipc() > 0.0);
        assert!(m.refreshes > 0);
        assert!(m.energy.total_nj() > 0.0);
        assert!(m.cores[0].read_misses > 0, "libquantum must stream");
    }

    #[test]
    fn no_refresh_is_at_least_as_fast() {
        let base = quick(SystemKind::Baseline, Benchmark::Lbm);
        let ideal = quick(SystemKind::NoRefresh, Benchmark::Lbm);
        assert_eq!(ideal.refreshes, 0);
        assert!(
            ideal.ipc() >= base.ipc() * 0.999,
            "ideal {} vs base {}",
            ideal.ipc(),
            base.ipc()
        );
    }

    #[test]
    fn deterministic_runs() {
        let a = quick(SystemKind::Baseline, Benchmark::Gcc);
        let b = quick(SystemKind::Baseline, Benchmark::Gcc);
        assert_eq!(a.ipc(), b.ipc());
        assert_eq!(a.total_cycles, b.total_cycles);
        assert_eq!(a.refreshes, b.refreshes);
        assert!((a.energy.total_nj() - b.energy.total_nj()).abs() < 1e-6);
    }

    #[test]
    fn rop_system_runs_and_prefetches() {
        // Long enough to complete the 50-refresh training phase
        // (~312k memory cycles) and prefetch for a while after.
        let mut sys = System::new(SystemConfig::single_core(
            Benchmark::Libquantum,
            SystemKind::Rop { buffer: 64 },
            42,
        ));
        let m = sys.run_until(2_500_000, 80_000_000);
        assert!(!m.hit_cycle_cap);
        // A streaming benchmark must trigger prefetching after training.
        assert!(m.prefetches > 0, "no prefetches issued");
        assert!(m.sram_lookups > 0, "no reads arrived during refreshes");
    }

    #[test]
    fn multicore_runs() {
        let mix = rop_trace::WORKLOAD_MIXES[5]; // lightest mix for speed
        let mut sys = System::new(SystemConfig::multi_core(
            mix.programs,
            SystemKind::Baseline,
            7,
        ));
        let m = sys.run_until(100_000, 50_000_000);
        assert!(!m.hit_cycle_cap);
        assert_eq!(m.cores.len(), 4);
        for c in &m.cores {
            assert!(c.ipc > 0.0, "{} stalled forever", c.benchmark);
        }
    }

    /// Runs the same configuration through both loops and asserts the
    /// metrics the acceptance criteria pin down are bit-identical.
    fn assert_loops_agree(kind: SystemKind, b: Benchmark, target: u64, cap: Cycle) {
        let mut event = System::new(SystemConfig::single_core(b, kind, 42));
        let me = event.run_until(target, cap);
        let mut reference = System::new(SystemConfig::single_core(b, kind, 42));
        let mr = reference.run_until_reference(target, cap);

        assert_eq!(me.total_cycles, mr.total_cycles, "{kind:?}/{b:?}");
        assert_eq!(me.refreshes, mr.refreshes, "{kind:?}/{b:?}");
        assert_eq!(me.hit_cycle_cap, mr.hit_cycle_cap, "{kind:?}/{b:?}");
        assert_eq!(me.sram_lookups, mr.sram_lookups, "{kind:?}/{b:?}");
        assert_eq!(me.prefetches, mr.prefetches, "{kind:?}/{b:?}");
        assert_eq!(me.energy.total_nj(), mr.energy.total_nj(), "{kind:?}/{b:?}");
        for (ce, cr) in me.cores.iter().zip(&mr.cores) {
            assert_eq!(ce.instructions, cr.instructions, "{kind:?}/{b:?}");
            assert_eq!(ce.finish_cycle, cr.finish_cycle, "{kind:?}/{b:?}");
            assert_eq!(ce.ipc, cr.ipc, "{kind:?}/{b:?}");
            assert_eq!(ce.llc_hits, cr.llc_hits, "{kind:?}/{b:?}");
            assert_eq!(ce.read_misses, cr.read_misses, "{kind:?}/{b:?}");
            assert_eq!(ce.stall_cycles, cr.stall_cycles, "{kind:?}/{b:?}");
        }
    }

    #[test]
    fn event_loop_is_cycle_exact_memory_light() {
        // Compute-heavy: the event engine skips most cycles here, so this
        // is where fast-forward bugs would surface.
        assert_loops_agree(SystemKind::Baseline, Benchmark::Gcc, 120_000, 20_000_000);
        assert_loops_agree(
            SystemKind::Rop { buffer: 64 },
            Benchmark::Gcc,
            120_000,
            20_000_000,
        );
    }

    #[test]
    fn event_loop_is_cycle_exact_streaming() {
        assert_loops_agree(
            SystemKind::Baseline,
            Benchmark::Libquantum,
            120_000,
            20_000_000,
        );
        assert_loops_agree(
            SystemKind::Rop { buffer: 64 },
            Benchmark::Libquantum,
            120_000,
            20_000_000,
        );
    }

    #[test]
    fn event_loop_is_cycle_exact_mixed() {
        assert_loops_agree(SystemKind::Baseline, Benchmark::Lbm, 120_000, 20_000_000);
        assert_loops_agree(
            SystemKind::Rop { buffer: 64 },
            Benchmark::Lbm,
            120_000,
            20_000_000,
        );
    }

    /// Differential check with a tweaked controller configuration —
    /// the hook for stressing timing corners (refresh pressure, tFAW
    /// saturation) that the stock DDR4 profile rarely exercises.
    fn assert_loops_agree_with(
        kind: SystemKind,
        b: Benchmark,
        target: u64,
        cap: Cycle,
        tweak: impl Fn(&mut rop_memctrl::MemCtrlConfig),
    ) {
        let mut cfg = SystemConfig::single_core(b, kind, 42);
        let mut ctrl = kind.memctrl_config(cfg.ranks, cfg.seed);
        tweak(&mut ctrl);
        cfg.ctrl_override = Some(ctrl);
        let mut event = System::new(cfg.clone());
        let me = event.run_until(target, cap);
        let mut reference = System::new(cfg);
        let mr = reference.run_until_reference(target, cap);

        assert_eq!(me.total_cycles, mr.total_cycles, "{kind:?}/{b:?}");
        assert_eq!(me.refreshes, mr.refreshes, "{kind:?}/{b:?}");
        assert_eq!(me.hit_cycle_cap, mr.hit_cycle_cap, "{kind:?}/{b:?}");
        assert_eq!(me.sram_lookups, mr.sram_lookups, "{kind:?}/{b:?}");
        assert_eq!(me.prefetches, mr.prefetches, "{kind:?}/{b:?}");
        assert_eq!(me.energy.total_nj(), mr.energy.total_nj(), "{kind:?}/{b:?}");
        for (ce, cr) in me.cores.iter().zip(&mr.cores) {
            assert_eq!(ce.finish_cycle, cr.finish_cycle, "{kind:?}/{b:?}");
            assert_eq!(ce.ipc, cr.ipc, "{kind:?}/{b:?}");
            assert_eq!(ce.stall_cycles, cr.stall_cycles, "{kind:?}/{b:?}");
        }
    }

    /// Every simulated field of a run: the metrics JSON without host
    /// time and without the event count (the per-cycle loop counts
    /// every cycle as an event).
    fn simulated_fields(m: &RunMetrics) -> String {
        let mut m = m.clone();
        m.wall_seconds = 0.0;
        m.events = 0;
        m.to_json().render()
    }

    #[test]
    fn event_loop_wakes_when_the_prefetch_grace_window_expires() {
        // Training cut to 4 refreshes, so the engine prefetches within
        // the window. A drain holding queued prefetches completes when
        // the grace window runs out; without that cycle in the tick
        // hint the event loop wakes late and the runs diverge.
        let kind = SystemKind::Rop { buffer: 64 };
        let mut cfg = SystemConfig::single_core(Benchmark::Libquantum, kind, 42);
        let mut ctrl = kind.memctrl_config(cfg.ranks, cfg.seed);
        ctrl.rop.as_mut().expect("ROP system").training_refreshes = 4;
        cfg.ctrl_override = Some(ctrl);
        let me = System::new(cfg.clone()).run_until(600_000, 20_000_000);
        let mr = System::new(cfg).run_until_reference(600_000, 20_000_000);
        assert!(me.prefetches > 0, "{} prefetches", me.prefetches);
        assert_eq!(simulated_fields(&me), simulated_fields(&mr));
    }

    #[test]
    fn event_loop_is_cycle_exact_refresh_heavy() {
        // tREFI/8 (still > tRFC, so the config stays legal): REF
        // traffic dominates and every drain/freeze/thaw transition in
        // the wheel-driven engine must land on the same cycle as the
        // per-cycle oracle.
        for kind in [SystemKind::Baseline, SystemKind::Rop { buffer: 64 }] {
            assert_loops_agree_with(kind, Benchmark::Libquantum, 120_000, 20_000_000, |ctrl| {
                ctrl.dram.timing.t_refi_base /= 8
            });
        }
    }

    #[test]
    fn event_loop_is_cycle_exact_tfaw_saturated() {
        // A pathologically wide four-activate window (tFAW 24 -> 120)
        // makes the rolling-ACT constraint bind on essentially every
        // activate, exercising the SoA ACT-ring bookkeeping and the
        // fast-forward hints it feeds.
        for kind in [SystemKind::Baseline, SystemKind::Rop { buffer: 64 }] {
            assert_loops_agree_with(kind, Benchmark::Libquantum, 120_000, 40_000_000, |ctrl| {
                ctrl.dram.timing.t_faw = 120
            });
        }
    }

    #[test]
    fn event_loop_is_cycle_exact_per_mechanism() {
        // Every refresh mechanism must agree with the per-cycle oracle:
        // Elastic's debt catch-up, DARP's pull-in eligibility, SARP's
        // subarray freezes and RAIDR's skipped rounds all have their own
        // wake-up hints, and a late hint shows up here as a diverging
        // cycle count.
        for kind in [
            SystemKind::ElasticRefresh,
            SystemKind::PerBankRefresh,
            SystemKind::Darp,
            SystemKind::Sarp,
            SystemKind::Raidr,
        ] {
            assert_loops_agree(kind, Benchmark::Libquantum, 120_000, 20_000_000);
            assert_loops_agree(kind, Benchmark::Gcc, 120_000, 20_000_000);
        }
        // Refresh-heavy corners (tREFI/8) for Elastic and REFpb: Elastic
        // accrues and pays debt every few hundred cycles, REFpb cycles
        // eight slots per rank.
        for kind in [SystemKind::ElasticRefresh, SystemKind::PerBankRefresh] {
            for b in [Benchmark::Libquantum, Benchmark::GemsFDTD] {
                assert_loops_agree_with(kind, b, 120_000, 20_000_000, |ctrl| {
                    ctrl.dram.timing.t_refi_base /= 8
                });
            }
        }
    }

    #[test]
    fn allbank_mechanism_is_bitexact_with_the_pre_seam_controller() {
        // The seam's AllBank delegation must not change a single cycle
        // relative to the refresh-heavy and tFAW-saturated differential
        // corners the pre-seam controller was pinned on.
        for b in [Benchmark::Libquantum, Benchmark::Lbm] {
            assert_loops_agree(SystemKind::Baseline, b, 120_000, 20_000_000);
        }
        assert_loops_agree_with(
            SystemKind::Baseline,
            Benchmark::Libquantum,
            120_000,
            20_000_000,
            |ctrl| ctrl.dram.timing.t_refi_base /= 8,
        );
    }

    #[test]
    fn mechanisms_are_deterministic() {
        // Same seed, same mechanism: byte-identical metrics payloads
        // (the property the figure files inherit).
        for kind in [SystemKind::Darp, SystemKind::Sarp, SystemKind::Raidr] {
            let mut a = quick(kind, Benchmark::Libquantum);
            let mut b = quick(kind, Benchmark::Libquantum);
            // Wall-clock timing is the one legitimately nondeterministic
            // field; blank it before comparing.
            a.wall_seconds = 0.0;
            b.wall_seconds = 0.0;
            assert_eq!(a.to_json().render(), b.to_json().render(), "{kind:?}");
        }
    }

    #[test]
    fn mechanisms_report_their_signature_counters() {
        let base = quick(SystemKind::Baseline, Benchmark::Libquantum);
        assert_eq!(base.mechanism, "allbank");
        assert_eq!(base.refreshes_skipped, 0);
        assert_eq!(base.refreshes_pulled_in, 0);
        assert!(base.refresh_blocked_cycles > 0, "libquantum must block");

        let raidr = quick(SystemKind::Raidr, Benchmark::Libquantum);
        assert_eq!(raidr.mechanism, "raidr");
        assert!(raidr.refreshes_skipped > 0, "half the rounds should skip");

        let darp = quick(SystemKind::Darp, Benchmark::Gcc);
        assert_eq!(darp.mechanism, "darp");
        assert!(
            darp.refreshes_pulled_in > 0,
            "gcc leaves idle windows to pull refreshes into"
        );

        let sarp = quick(SystemKind::Sarp, Benchmark::Libquantum);
        assert_eq!(sarp.mechanism, "sarp");
        assert!(sarp.refreshes > 0);
    }

    #[test]
    fn darp_and_sarp_shrink_refresh_blocking_under_pressure() {
        // Refresh-heavy shape (tREFI/8): the rivals' whole pitch is
        // fewer demand-visible freeze cycles than all-bank refresh.
        let heavy = |kind: SystemKind| {
            let mut cfg = SystemConfig::single_core(Benchmark::Libquantum, kind, 42);
            let mut ctrl = kind.memctrl_config(cfg.ranks, cfg.seed);
            ctrl.dram.timing.t_refi_base /= 8;
            cfg.ctrl_override = Some(ctrl);
            let mut sys = System::new(cfg);
            sys.run_until(200_000, 40_000_000)
        };
        let base = heavy(SystemKind::Baseline);
        let darp = heavy(SystemKind::Darp);
        let sarp = heavy(SystemKind::Sarp);
        assert!(
            darp.refresh_blocked_cycles < base.refresh_blocked_cycles,
            "DARP {} vs AllBank {}",
            darp.refresh_blocked_cycles,
            base.refresh_blocked_cycles
        );
        assert!(
            sarp.refresh_blocked_cycles < base.refresh_blocked_cycles,
            "SARP {} vs AllBank {}",
            sarp.refresh_blocked_cycles,
            base.refresh_blocked_cycles
        );
    }

    #[test]
    fn event_loop_is_cycle_exact_multicore() {
        let mix = rop_trace::WORKLOAD_MIXES[5];
        let mut event = System::new(SystemConfig::multi_core(
            mix.programs,
            SystemKind::Baseline,
            7,
        ));
        let me = event.run_until(60_000, 50_000_000);
        let mut reference = System::new(SystemConfig::multi_core(
            mix.programs,
            SystemKind::Baseline,
            7,
        ));
        let mr = reference.run_until_reference(60_000, 50_000_000);
        assert_eq!(me.total_cycles, mr.total_cycles);
        assert_eq!(me.refreshes, mr.refreshes);
        for (ce, cr) in me.cores.iter().zip(&mr.cores) {
            assert_eq!(ce.finish_cycle, cr.finish_cycle, "{}", ce.benchmark);
            assert_eq!(ce.stall_cycles, cr.stall_cycles, "{}", ce.benchmark);
        }
    }

    #[test]
    fn wall_clock_throughput_is_populated() {
        let m = quick(SystemKind::Baseline, Benchmark::Gcc);
        assert!(m.wall_seconds > 0.0);
        assert!(m.cycles_per_sec() > 0.0);
        assert!(m.events_per_sec() > 0.0);
    }

    #[test]
    fn event_engine_processes_fewer_events_than_cycles() {
        // The honest throughput metric: the event engine visits a strict
        // subset of cycles, while the reference loop visits every one.
        let mut event = System::new(SystemConfig::single_core(
            Benchmark::Gcc,
            SystemKind::Baseline,
            42,
        ));
        let me = event.run_until(120_000, 20_000_000);
        assert!(me.events > 0);
        assert!(
            me.events < me.total_cycles,
            "gcc is memory-light; the engine must fast-forward ({} events, {} cycles)",
            me.events,
            me.total_cycles
        );
        let mut reference = System::new(SystemConfig::single_core(
            Benchmark::Gcc,
            SystemKind::Baseline,
            42,
        ));
        let mr = reference.run_until_reference(120_000, 20_000_000);
        assert!(mr.events >= mr.total_cycles.saturating_sub(1));
    }

    fn quick_audited(kind: SystemKind, b: Benchmark) -> RunMetrics {
        let mut sys = System::new(SystemConfig::single_core(b, kind, 42));
        sys.enable_audit();
        sys.run_until(200_000, 20_000_000)
    }

    #[test]
    fn audited_runs_are_clean() {
        // Every controller flavour must stream an event trace the
        // auditor accepts; `run_until` panics on any violation.
        for kind in [
            SystemKind::Baseline,
            SystemKind::ElasticRefresh,
            SystemKind::PerBankRefresh,
            SystemKind::Rop { buffer: 64 },
            SystemKind::Darp,
            SystemKind::Sarp,
            SystemKind::Raidr,
        ] {
            let m = quick_audited(kind, Benchmark::Libquantum);
            let audit = m.audit.expect("audited run must carry a summary");
            assert!(audit.events > 0, "{kind:?}: no events traced");
            assert_eq!(audit.violations, 0, "{kind:?}");
        }
    }

    #[test]
    fn audit_does_not_perturb_the_run() {
        let plain = quick(SystemKind::Rop { buffer: 64 }, Benchmark::Lbm);
        let audited = quick_audited(SystemKind::Rop { buffer: 64 }, Benchmark::Lbm);
        assert_eq!(plain.total_cycles, audited.total_cycles);
        assert_eq!(plain.refreshes, audited.refreshes);
        assert_eq!(plain.cores[0].ipc, audited.cores[0].ipc);
        assert!((plain.energy.total_nj() - audited.energy.total_nj()).abs() < 1e-6);
        assert_eq!(plain.audit, None);
    }

    /// Differential check from the acceptance criteria: auditing the
    /// real device against deliberately tightened timing parameters
    /// must produce a labeled violation report.
    #[test]
    fn corrupted_timing_is_detected() {
        let cfg = SystemConfig::single_core(Benchmark::Libquantum, SystemKind::Baseline, 42);
        let mcfg = cfg.kind.memctrl_config(cfg.ranks, cfg.seed);
        let mut audit_cfg = crate::audit::AuditorConfig::from_ctrl(&mcfg);
        // Pretend the device must wait twice as long after ACT before a
        // column command: every real tRCD-paced read now looks illegal.
        audit_cfg.timing.t_rcd *= 2;
        let err = std::panic::catch_unwind(move || {
            let mut sys = System::new(cfg);
            sys.enable_audit_with(audit_cfg);
            sys.run_until(200_000, 20_000_000)
        })
        .expect_err("tightened tRCD must trip the auditor");
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_else(|| "unexpected panic payload".into());
        assert!(msg.contains("timing.tRCD"), "report was: {msg}");
        assert!(msg.contains("violation"), "report was: {msg}");
    }
}
