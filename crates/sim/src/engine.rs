//! The one simulation loop, shared by every execution mode.
//!
//! [`Engine`] owns everything on the memory side of a run — the
//! controller, the sorted queue of in-flight completions
//! ([`TimingWheel`]), the clock, the event count, the auditor and the
//! cancel token — and drives it with a single loop. What feeds the
//! controller is a [`Frontend`]:
//!
//! * [`crate::system::CoreFrontend`] — trace-driven cores behind a
//!   shared LLC, the closed-loop machine ([`crate::System`]);
//! * [`crate::openloop::ArrivalFrontend`] — seeded arrival generators
//!   and a FIFO backlog, the open-loop machine
//!   ([`crate::OpenLoopSystem`]).
//!
//! Each loop iteration at cycle `now` delivers the completions due at
//! `now`, lets the front-end act, ticks the controller, files fresh
//! completions into the queue and gives the front-end its post-tick
//! turn. Event-driven mode then jumps to the earliest of the controller
//! hint, the next completion and the front-end's own next event,
//! replaying the skipped span through [`Frontend::skip`]; reference
//! mode steps every cycle and is the oracle the differential tests
//! compare the event-driven mode against (DESIGN.md §8).

use std::sync::Arc;
use std::time::Instant;

use rop_memctrl::{Completion, MemController};

use crate::audit::{Auditor, AuditorConfig};
use crate::config::SystemConfig;
use crate::metrics::RunMetrics;
use crate::runner::CancelToken;
use crate::wheel::TimingWheel;
use crate::Cycle;

/// What drives the controller: the hooks [`Engine`] calls once per
/// loop iteration, in the order they are listed.
pub trait Frontend {
    /// Hands over one read completion whose data arrives this cycle.
    fn deliver(&mut self, c: Completion);
    /// Acts at `now`, before the controller ticks: issue memory
    /// operations into `ctrl`.
    fn act(&mut self, ctrl: &mut MemController, now: Cycle);
    /// Bookkeeping after the controller ticked at `now`.
    fn after_tick(&mut self, ctrl: &mut MemController, now: Cycle);
    /// Whether the run is over before the cycle cap.
    fn done(&self) -> bool;
    /// The earliest cycle after `now` at which the front-end must act
    /// again ([`Cycle::MAX`] when it has nothing scheduled).
    fn next_event(&self, now: Cycle) -> Cycle;
    /// Replays the `span` cycles after `now` that event-driven mode
    /// skips, in which the front-end must not act.
    fn skip(&mut self, now: Cycle, span: Cycle);
}

/// A simulated machine: one front-end feeding one memory controller.
pub struct Engine<F> {
    pub(crate) cfg: SystemConfig,
    pub(crate) ctrl: MemController,
    pub(crate) fe: F,
    /// Read completions waiting for their data-arrival cycle, popped in
    /// `(done_at, id)` order (see [`crate::wheel`]).
    inflight: TimingWheel,
    /// Reused batch buffer for completions due this cycle.
    due: Vec<Completion>,
    pub(crate) now: Cycle,
    /// Engine loop iterations executed (events processed).
    events: u64,
    /// Wall-clock seconds spent inside the run loop.
    wall_seconds: f64,
    /// Online invariant checker consuming the event trace, when audit
    /// mode is enabled.
    auditor: Option<Auditor>,
    /// Cooperative cancellation + heartbeat, when a supervisor watches
    /// this run (see [`CancelToken`]).
    cancel: Option<Arc<CancelToken>>,
}

/// Validates `cfg` and builds its memory controller (the mechanism's
/// default unless `cfg.ctrl_override` is set).
pub(crate) fn controller_for(cfg: &SystemConfig) -> MemController {
    cfg.validate().expect("invalid system configuration");
    let ctrl_cfg = cfg
        .ctrl_override
        .clone()
        .unwrap_or_else(|| cfg.kind.memctrl_config(cfg.ranks, cfg.seed));
    MemController::new(ctrl_cfg)
}

impl<F: Frontend> Engine<F> {
    pub(crate) fn with_frontend(cfg: SystemConfig, ctrl: MemController, fe: F) -> Self {
        // Sized like the controller's completion buffer it drains.
        let due = Vec::with_capacity(2 * ctrl.config().read_queue_capacity);
        Engine {
            cfg,
            ctrl,
            fe,
            inflight: TimingWheel::new(),
            due,
            now: 0,
            events: 0,
            wall_seconds: 0.0,
            auditor: None,
            cancel: None,
        }
    }

    /// Attaches a cancellation token: every engine iteration publishes
    /// the current cycle as a heartbeat and panics if the token has been
    /// cancelled. Pure observation while uncancelled — two relaxed
    /// atomic operations per iteration, no effect on simulated state.
    pub fn set_cancel_token(&mut self, token: Arc<CancelToken>) {
        self.cancel = Some(token);
    }

    /// Enables audit mode with parameters derived from the controller
    /// configuration: the full event trace is collected and checked
    /// online, and the run panics with a labelled violation report if
    /// any invariant fails (see [`crate::audit`]).
    pub fn enable_audit(&mut self) {
        let cfg = AuditorConfig::from_ctrl(self.ctrl.config());
        self.enable_audit_with(cfg);
    }

    /// [`Engine::enable_audit`] with explicit audit parameters — the
    /// differential tests use this to audit against deliberately
    /// corrupted timing and prove the auditor catches it.
    pub fn enable_audit_with(&mut self, cfg: AuditorConfig) {
        self.ctrl.set_trace_enabled(true);
        self.auditor = Some(Auditor::new(cfg));
    }

    /// Immutable access to the controller (for inspection in tests).
    pub fn controller(&self) -> &MemController {
        &self.ctrl
    }

    /// Runs until the front-end is done or the clock reaches
    /// `max_cycles`, visiting only event cycles when `event_driven` and
    /// every cycle otherwise.
    ///
    /// Event-driven invariant (enforced by the differential tests): no
    /// front-end action, controller action or read completion occurs at
    /// any skipped cycle — so replaying the skips with
    /// [`Frontend::skip`] and leaving the controller untouched
    /// reproduces the per-cycle execution exactly.
    pub(crate) fn drive(&mut self, max_cycles: Cycle, event_driven: bool) {
        // Wall-clock throughput metadata only — never fed back into
        // simulated state, so determinism is unaffected.
        let start = Instant::now(); // rop-lint: allow(wallclock)
        while !self.fe.done() && self.now < max_cycles {
            let now = self.now;
            self.events += 1;
            if let Some(token) = &self.cancel {
                token.beat(now);
                token.checkpoint(); // panics when a watchdog cancelled us
            }

            // Deliver read data that has arrived, in `(done_at, id)`
            // order.
            self.inflight.pop_due(now, &mut self.due);
            for i in 0..self.due.len() {
                self.fe.deliver(self.due[i]);
            }
            self.due.clear();

            self.fe.act(&mut self.ctrl, now);

            // Tick the controller and collect fresh completions. The
            // reference mode runs every tick in full.
            let hint = if event_driven {
                self.ctrl.tick(now)
            } else {
                self.ctrl.tick_reference(now)
            };
            if let Some(auditor) = &mut self.auditor {
                self.ctrl.drain_trace(auditor);
            }
            self.ctrl.drain_completions_into(&mut self.due);
            for i in 0..self.due.len() {
                self.inflight.push(self.due[i]);
            }
            self.due.clear();
            self.fe.after_tick(&mut self.ctrl, now);

            // Once the front-end is done the run is over; do not replay
            // (and tally stalls for) cycles the per-cycle reference
            // would never execute.
            if !event_driven || self.fe.done() {
                self.now = now + 1;
                continue;
            }

            // Advance straight to the earliest next event: the
            // controller hint, the next read completion, or the
            // front-end's next action.
            let mut next = hint.min(self.fe.next_event(now));
            if let Some(done_at) = self.inflight.peek_earliest() {
                next = next.min(done_at);
            }
            assert!(
                next != Cycle::MAX,
                "system deadlock: front-end stalled with no pending events"
            );
            let next = next.max(now + 1).min(max_cycles);
            if next > now + 1 {
                self.fe.skip(now, next - now - 1);
            }
            self.now = next;
        }
        // Publish the final position: a short run can fast-forward to
        // completion in a single engine iteration, and its only in-loop
        // beat would then be cycle 0.
        if let Some(token) = &self.cancel {
            token.beat(self.now);
        }
        self.wall_seconds += start.elapsed().as_secs_f64();
        if let Some(auditor) = &self.auditor {
            if auditor.summary().violations > 0 {
                panic!("{}", auditor.report()); // rop-lint: allow(no-panic)
            }
        }
    }

    /// The controller half of [`RunMetrics`] over `total_cycles`. The
    /// front-end fields (`cores`, `hit_cycle_cap`, `open_loop`) are left
    /// empty for the caller to fill in; `avg_read_latency` is the
    /// controller's enqueue-to-data mean, which the open-loop caller
    /// replaces with its arrival-to-data mean.
    pub(crate) fn metrics(&mut self, total_cycles: Cycle, instructions_total: u64) -> RunMetrics {
        crate::engine_stats::record(total_cycles, instructions_total, self.events);
        self.ctrl.finalize_analysis();
        let energy = self.ctrl.energy_breakdown(total_cycles);
        let ctrl = &self.ctrl;
        let stats = ctrl.stats();
        RunMetrics {
            system: self.cfg.kind.label(),
            cores: Vec::new(),
            total_cycles,
            energy,
            refreshes: (0..self.cfg.ranks).map(|r| ctrl.refreshes_issued(r)).sum(),
            mechanism: ctrl.mechanism().label().to_string(),
            refresh_blocked_cycles: stats.refresh_blocked_cycles,
            refreshes_skipped: ctrl.refreshes_skipped(),
            refreshes_pulled_in: ctrl.refreshes_pulled_in(),
            sram_hit_rate: if stats.sram_lookups == 0 {
                0.0
            } else {
                stats.sram_hits as f64 / stats.sram_lookups as f64
            },
            sram_lookups: stats.sram_lookups,
            prefetches: stats.prefetches_issued,
            analysis: (0..ctrl.refresh_slots())
                .map(|slot| ctrl.analysis(slot).reports())
                .collect(),
            row_hit_rate: stats.row_buffer.ratio(),
            avg_read_latency: if stats.reads_completed == 0 {
                0.0
            } else {
                stats.sum_read_latency as f64 / stats.reads_completed as f64
            },
            hit_cycle_cap: false,
            wall_seconds: self.wall_seconds,
            instructions_total,
            events: self.events,
            audit: self.auditor.as_ref().map(|a| a.summary()),
            open_loop: None,
        }
    }
}
